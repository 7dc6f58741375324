//! Execution traces: the observable record of one run.

use etpn_core::bitset::BitSet;
use etpn_core::{ArcId, Etpn, ExternalEvent, PortId, Value};
use etpn_cov::CovDb;
use std::fmt;

/// Why a run stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Termination {
    /// No token remained in any control state (Def. 3.1(6)).
    Terminated,
    /// Tokens remain and at least one transition is token-enabled, but its
    /// guards are false and no input stream advances: a guard fixpoint.
    Quiescent,
    /// Tokens remain but *no* transition is token-enabled — the control net
    /// is structurally stuck (e.g. a join waiting on a partner token that
    /// was lost). Unlike [`Termination::Quiescent`] no guard flip could
    /// ever unblock it.
    Deadlock,
    /// The step budget ran out first.
    StepLimit,
    /// The per-job wall-clock budget ran out first (see
    /// `Simulator::with_wall_budget`).
    Budget,
}

impl Termination {
    /// True for the outcomes that mean the run was cut short or stuck
    /// rather than finishing of its own accord: [`Termination::Deadlock`],
    /// [`Termination::StepLimit`] and [`Termination::Budget`]. Fault
    /// campaigns classify these as *hangs*.
    pub fn is_hang(self) -> bool {
        matches!(
            self,
            Termination::Deadlock | Termination::StepLimit | Termination::Budget
        )
    }
}

/// Exact work counts of one simulator, kept in plain fields while it runs
/// and added to the global `sim.*` counters once, when it is dropped (so
/// after [`crate::Simulator::run`] returns, or when a simulator driven by
/// `step_once` goes away). Unlike wall time they are deterministic: the
/// same run counts the same work on every host.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct WorkCounts {
    /// Control steps completed (`sim.steps`).
    pub steps: u64,
    /// Transitions fired by completed steps (`sim.firings`).
    pub firings: u64,
    /// Data-path evaluations begun, one per step that got past
    /// perturbation (`sim.evals`).
    pub evaluations: u64,
    /// Ports evaluated (`sim.events.fired`): every live port on a full
    /// walk, on either engine, and the dirty-queue pops of a compiled
    /// incremental step.
    pub port_evals: u64,
    /// Evaluations done by the interpreter's full walk: the compiled
    /// engine's first step, resyncs, forced data faults and statically
    /// cyclic designs, and every interpreter step. No global counter.
    pub full_walks: u64,
}

/// The observable outcome of a simulation run.
///
/// Its `Debug` rendering leaves out [`Trace::work`]: the rest is the
/// run's observable record, which every backend and every replay must
/// reproduce byte for byte, while the work counts are the cost of
/// producing it and differ by engine.
#[derive(Clone)]
pub struct Trace {
    /// All external events in occurrence order (ties broken by arc id).
    pub events: Vec<ExternalEvent>,
    /// Number of control steps executed.
    pub steps: u64,
    /// Number of transition firings.
    pub firings: u64,
    /// How the run ended.
    pub termination: Termination,
    /// Ports captured per step (see `Simulator::watch_registers`).
    pub watch: Vec<PortId>,
    /// One value row per executed step, aligned with `watch`.
    pub watched: Vec<Vec<Value>>,
    /// One marking snapshot (bit per place, raw-id indexed) per executed
    /// step (see `Simulator::watch_control`). Empty unless requested.
    pub marking_rows: Vec<BitSet>,
    /// The guard ports sampled into `guard_rows`, deduplicated and in
    /// raw-id order. Empty unless control watching was requested.
    pub guard_ports: Vec<PortId>,
    /// One guard-truth snapshot per executed step: bit `k` set iff
    /// `guard_ports[k]` evaluated true that step.
    pub guard_rows: Vec<BitSet>,
    /// Functional coverage collected during the run (see
    /// `Simulator::with_coverage`). `None` unless requested.
    pub cov: Option<CovDb>,
    /// Firing count per transition (raw-id indexed).
    pub fire_counts: Vec<u64>,
    /// Activation (exit) count per control state (raw-id indexed).
    pub exit_counts: Vec<u64>,
    /// The flight recording of the run (see `Simulator::with_recorder`).
    /// `None` unless requested.
    pub recording: Option<etpn_rec::Recording>,
    /// The simulator's work counts, up to the end of the run.
    pub work: WorkCounts,
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("events", &self.events)
            .field("steps", &self.steps)
            .field("firings", &self.firings)
            .field("termination", &self.termination)
            .field("watch", &self.watch)
            .field("watched", &self.watched)
            .field("marking_rows", &self.marking_rows)
            .field("guard_ports", &self.guard_ports)
            .field("guard_rows", &self.guard_rows)
            .field("cov", &self.cov)
            .field("fire_counts", &self.fire_counts)
            .field("exit_counts", &self.exit_counts)
            .field("recording", &self.recording)
            .finish_non_exhaustive()
    }
}

impl Trace {
    /// The *defined* values delivered to the output vertex named `name`,
    /// in occurrence order. Convenience for asserting computed results.
    pub fn values_on_named_output(&self, g: &Etpn, name: &str) -> Vec<i64> {
        let Some(v) = g.dp.vertex_by_name(name) else {
            return Vec::new();
        };
        let Some(&ip) = g.dp.vertex(v).inputs.first() else {
            return Vec::new();
        };
        let arcs: Vec<ArcId> = g.dp.incoming_arcs(ip).to_vec();
        self.events
            .iter()
            .filter(|e| arcs.contains(&e.arc))
            .filter_map(|e| e.value.as_i64())
            .collect()
    }

    /// Total number of external events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hang_classification_of_terminations() {
        assert!(!Termination::Terminated.is_hang());
        assert!(!Termination::Quiescent.is_hang());
        assert!(Termination::Deadlock.is_hang());
        assert!(Termination::StepLimit.is_hang());
        assert!(Termination::Budget.is_hang());
    }
}
