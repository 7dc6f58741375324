//! Time-travel replay: reconstruct a run from its flight recording.
//!
//! A recording ([`etpn_rec::Recording`]) pins down everything the step
//! loop of Def. 3.1 does not determine on its own: the firing order chosen
//! by the policy, the environment streams, and the injected faults. Replay
//! therefore never *re-decides* — it restores the nearest checkpoint at or
//! before the target step and re-derives each step with the journaled
//! firing set, checking each re-derived row (fired transitions, latches,
//! external events, input cursor advances, fault flags) against the
//! journal with the same comparator as `etpnc why`
//! ([`etpn_rec::step_diff`]). Any mismatch is a
//! [`SimError::ReplayDivergence`] naming the differing field, not a
//! silent drift.
//!
//! This module holds the recording ↔ engine glue that is independent of
//! the engine's internals: [`replay_recording`] — the one-call "recording
//! in, trace out" entry point that rebuilds the environment, policy and
//! faults from the recording's own metadata.

use crate::compiled::Backend;
use crate::engine::Simulator;
use crate::env::ScriptedEnv;
use crate::error::SimError;
use crate::policy::FiringPolicy;
use crate::trace::Trace;
use etpn_core::Etpn;
use etpn_rec::Recording;

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
/// Refuses with [`SimError::ReplayRefused`] when the recording does not
/// fit `g`, the target lies beyond the journal or no checkpoint was
/// retained at all (ring eviction), and fails with
/// [`SimError::ReplayDivergence`] when a re-derived step disagrees with
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
