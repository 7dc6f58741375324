//! Time-travel replay: reconstruct a run from its flight recording.
//!
//! A recording ([`etpn_rec::Recording`]) pins down everything the step
//! loop of Def. 3.1 does not determine on its own: the firing order chosen
//! by the policy, the environment streams, and the injected faults. Replay
//! therefore never *re-decides* — it restores the nearest checkpoint at or
//! before the target step and re-derives each step with the journaled
//! firing set, verifying every committed effect (latches, input cursor
//! advances, external events) against the journal as it goes. Any mismatch
//! is a [`SimError::ReplayDivergence`], not a silent drift.
//!
//! This module holds the recording ↔ engine glue that is independent of
//! the engine's internals: fault-plan serialisation to the raw
//! [`RecFault`] wire form, and [`replay_recording`] — the one-call
//! "recording in, trace out" entry point that rebuilds the environment and
//! policy from the recording's own metadata.

use crate::compiled::Backend;
use crate::engine::Simulator;
use crate::env::ScriptedEnv;
use crate::error::SimError;
use crate::fault::{Fault, FaultKind, FaultPlan, FaultSite, FaultWindow};
use crate::policy::FiringPolicy;
use crate::trace::Trace;
use etpn_core::{Etpn, PlaceId, PortId};
use etpn_rec::{RecFault, Recording};

/// Serialise a fault plan into the recording's raw wire form (see
/// [`RecFault`] for the field encoding).
pub fn faults_to_rec(plan: &FaultPlan) -> Vec<RecFault> {
    plan.faults()
        .iter()
        .map(|f| {
            let (site_kind, site) = match f.site {
                FaultSite::Port(p) => (0, p.0),
                FaultSite::Place(s) => (1, s.0),
            };
            let (kind, bit) = match f.kind {
                FaultKind::StuckAt0 => (0, 0),
                FaultKind::StuckAt1 => (1, 0),
                FaultKind::BitFlip(b) => (2, b),
                FaultKind::TokenLoss => (3, 0),
                FaultKind::TokenDup => (4, 0),
            };
            let (window_kind, at) = match f.window {
                FaultWindow::Transient(s) => (0, s),
                FaultWindow::Permanent(s) => (1, s),
            };
            RecFault {
                site_kind,
                site,
                kind,
                bit,
                window_kind,
                at,
            }
        })
        .collect()
}

/// Deserialise the recording's raw fault list back into a plan — the
/// inverse of [`faults_to_rec`]. Unknown kind/window tags (from a future
/// format revision) are dropped rather than misread: replay then diverges
/// loudly at the first affected step instead of silently mutating state.
pub fn faults_from_rec(rfs: &[RecFault]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for rf in rfs {
        let site = match rf.site_kind {
            0 => FaultSite::Port(PortId::new(rf.site)),
            1 => FaultSite::Place(PlaceId::new(rf.site)),
            _ => continue,
        };
        let kind = match rf.kind {
            0 => FaultKind::StuckAt0,
            1 => FaultKind::StuckAt1,
            2 => FaultKind::BitFlip(rf.bit),
            3 => FaultKind::TokenLoss,
            4 => FaultKind::TokenDup,
            _ => continue,
        };
        let window = match rf.window_kind {
            0 => FaultWindow::Transient(rf.at),
            1 => FaultWindow::Permanent(rf.at),
            _ => continue,
        };
        plan = plan.with(Fault { site, kind, window });
    }
    plan
}

/// Rebuild the recorded environment: every embedded stream, plus the
/// repeat-last flag. A recording made against a non-enumerable
/// environment (closures) has no streams; replaying it reads `⊥`
/// everywhere, and the journal verification catches any resulting drift.
pub fn env_from_recording(rec: &Recording) -> ScriptedEnv {
    let mut env = ScriptedEnv::new();
    for (name, values) in &rec.meta.streams {
        env = env.with_raw_stream(name, values.clone());
    }
    if rec.meta.repeat_last {
        env = env.repeat_last();
    }
    env
}

/// Replay a recording on `g` from its earliest retained checkpoint up to
/// step `target`, entirely from the recording's own metadata:
/// environment, firing policy, and fault plan are all reconstructed from
/// it. For a full-journal recording this reproduces the original run's
/// prefix bit-for-bit (events, waveforms); for a ring recording it covers
/// the longest reconstructible window. Use
/// [`Simulator::replay_between`][crate::engine::Simulator::replay_between]
/// directly to jump in from a later checkpoint.
///
/// Fails with [`SimError::ReplayDivergence`] when the design fingerprint
/// does not match, the target lies outside the journal, no checkpoint was
/// retained at all (ring eviction), or any re-derived step disagrees with
/// the journal.
pub fn replay_recording(
    g: &Etpn,
    rec: &Recording,
    target: u64,
    backend: Backend,
) -> Result<Trace, SimError> {
    let policy =
        FiringPolicy::decode(rec.meta.policy_tag, rec.meta.policy_seed).ok_or_else(|| {
            SimError::ReplayDivergence {
                step: rec.first_step,
                detail: format!("unknown firing-policy tag {}", rec.meta.policy_tag),
            }
        })?;
    let from = rec.checkpoints.first().map_or(rec.first_step, |ck| ck.step);
    Simulator::on(g, env_from_recording(rec), backend)
        .with_policy(policy)
        .replay_between(rec, from, target)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_wire_form_roundtrips() {
        let plan = FaultPlan::new()
            .with(Fault {
                site: FaultSite::Port(PortId::new(3)),
                kind: FaultKind::BitFlip(17),
                window: FaultWindow::Transient(5),
            })
            .with(Fault {
                site: FaultSite::Place(PlaceId::new(1)),
                kind: FaultKind::TokenDup,
                window: FaultWindow::Permanent(2),
            })
            .with(Fault {
                site: FaultSite::Port(PortId::new(0)),
                kind: FaultKind::StuckAt0,
                window: FaultWindow::Permanent(0),
            });
        let wire = faults_to_rec(&plan);
        assert_eq!(wire.len(), 3);
        let back = faults_from_rec(&wire);
        assert_eq!(back.faults(), plan.faults());
    }

    #[test]
    fn unknown_wire_tags_are_dropped_not_misread() {
        let wire = vec![
            RecFault {
                site_kind: 9,
                site: 0,
                kind: 0,
                bit: 0,
                window_kind: 0,
                at: 0,
            },
            RecFault {
                site_kind: 0,
                site: 0,
                kind: 9,
                bit: 0,
                window_kind: 0,
                at: 0,
            },
            RecFault {
                site_kind: 0,
                site: 2,
                kind: 1,
                bit: 0,
                window_kind: 1,
                at: 4,
            },
        ];
        let plan = faults_from_rec(&wire);
        assert_eq!(
            plan.faults(),
            &[Fault {
                site: FaultSite::Port(PortId::new(2)),
                kind: FaultKind::StuckAt1,
                window: FaultWindow::Permanent(4),
            }]
        );
    }
}
