//! One run's configuration as a plain value.
//!
//! Under Def. 3.1 a run is fixed by the design, its input streams, the
//! initial register values and how firing choices are resolved; this crate
//! adds the step engine, coverage, faults, budgets and recording on top.
//! [`RunSpec`] holds everything except the design and the environment, so
//! every layer that configures runs — [`crate::SimJob`], fault campaigns,
//! `etpnc`'s flags, `etpnd`'s request bodies — fills in the same struct,
//! and [`Simulator::from_spec`] is the one translation into the engine.

use crate::compiled::Backend;
use crate::engine::Simulator;
use crate::env::Environment;
use crate::fault::FaultPlan;
use crate::policy::FiringPolicy;
use etpn_core::Etpn;
use etpn_rec::RecordConfig;
use std::time::Duration;

/// How one run is configured. [`RunSpec::default`] is the fleet default:
/// the compiled engine, the deterministic [`FiringPolicy::MaximalStep`]
/// policy and a 10 000-step budget, with everything optional off.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Step engine, [`Backend::Compiled`] by default. The compiled engine
    /// is bit-identical to the interpreter
    /// (`tests/backend_differential.rs`), and jobs over one design share
    /// its compilation; [`Backend::Interp`] selects the reference.
    pub backend: Backend,
    /// Firing policy (the seed lives inside the policy).
    pub policy: FiringPolicy,
    /// Step budget; the run ends with `Termination::StepLimit` past it.
    pub max_steps: u64,
    /// Register reset values by register vertex name, in the shape of a
    /// compiled design's `reg_inits`. Unknown names are ignored.
    pub registers: Vec<(String, i64)>,
    /// Raise `SimError::InputExhausted` on a committed read past the end
    /// of a finite input stream instead of reading `⊥`.
    pub strict_inputs: bool,
    /// Collect functional coverage into the trace's `CovDb`; the fleet
    /// merges per-job DBs into `FleetBatch::coverage`.
    pub coverage: bool,
    /// Faults to inject (see [`crate::fault`]).
    pub faults: Option<FaultPlan>,
    /// Stop with `Termination::Budget` after this much wall-clock time,
    /// measured from the run's own start.
    pub wall_budget: Option<Duration>,
    /// Flight-record the run into `Trace::recording`.
    pub record: Option<RecordConfig>,
}

impl Default for RunSpec {
    fn default() -> Self {
        Self {
            backend: Backend::default(),
            policy: FiringPolicy::MaximalStep,
            max_steps: 10_000,
            registers: Vec::new(),
            strict_inputs: false,
            coverage: false,
            faults: None,
            wall_budget: None,
            record: None,
        }
    }
}

impl<'g, E: Environment> Simulator<'g, E> {
    /// A simulator over `g` and `env` configured by `spec`, on the spec's
    /// engine only (an [`Backend::Interp`] spec compiles nothing). The
    /// step budget is not part of the simulator: pass `spec.max_steps` to
    /// [`Simulator::run`].
    pub fn from_spec(g: &'g Etpn, env: E, spec: &RunSpec) -> Self {
        let mut sim = Simulator::on(g, env, spec.backend).with_policy(spec.policy);
        for (name, v) in &spec.registers {
            sim = sim.init_register(name, *v);
        }
        if spec.strict_inputs {
            sim = sim.strict_inputs();
        }
        if spec.coverage {
            sim = sim.with_coverage();
        }
        if let Some(plan) = &spec.faults {
            sim = sim.with_faults(plan.clone());
        }
        if let Some(budget) = spec.wall_budget {
            sim = sim.with_wall_budget(budget);
        }
        if let Some(cfg) = spec.record {
            sim = sim.with_recorder(cfg);
        }
        sim
    }
}
