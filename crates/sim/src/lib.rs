//! # etpn-sim — operational semantics for the ETPN model
//!
//! Executable form of the behaviour rules of *Peng, ICPP 1988*, Def. 3.1:
//! the Petri-net token game interleaved with data-path evaluation.
//!
//! * [`mod@env`] — the environment: predefined value streams per input vertex;
//! * [`eval`] — per-step data-path evaluation (open arcs, combinatorial
//!   propagation, `⊥` handling, register latching);
//! * [`policy`] — resolution of firing nondeterminism (maximal-step,
//!   random-maximal, single-random interleaving);
//! * [`engine`] — the step loop, committing external events and register
//!   updates once per control-state activation;
//! * [`trace`] / [`extract`] — run records and extraction of the external
//!   event structure `S(Γ)` (Def. 3.5);
//! * [`compiled`] / [`dirty`] — the compile-once, simulate-many engine
//!   every simulator runs by default: per-design flat dispatch tables plus
//!   an event-driven dirty set, bit-identical to the interpreter (which
//!   [`engine::Simulator::with_backend`] selects as the reference);
//! * [`mod@battery`] — one fleet batch of reference and compared runs, and
//!   one verdict per group with a typed [`Witness`] for the first
//!   divergence (Defs. 3.2 and 4.1);
//! * [`determinism`] — the policy-invariance battery justifying Def. 3.2;
//! * [`spec`] — [`RunSpec`], one run's configuration as a plain value
//!   (backend, policy, budgets, registers, coverage, faults, recording),
//!   turned into a simulator by [`Simulator::from_spec`];
//! * [`fleet`] — work-stealing batch simulation for
//!   policy/seed/environment sweeps, with per-job panic isolation and
//!   bounded retries;
//! * [`fault`] — fault injection (stuck-at, bit-flip, token loss/dup) and
//!   fleet-backed fault-simulation campaigns classifying each fault as
//!   masked / silent corruption / detected / hang against a golden run;
//! * [`replay`] — flight-recorder glue: always-on step journaling
//!   ([`engine::Simulator::with_recorder`]) and checkpointed time-travel
//!   replay ([`engine::Simulator::replay_to`], [`replay::replay_recording`]);
//!   a recording holds the engine's own [`Fault`]s.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod battery;
pub mod compiled;
pub mod determinism;
pub mod dirty;
pub mod engine;
pub mod env;
pub mod error;
pub mod eval;
pub mod extract;
pub mod fault;
pub mod fleet;
pub mod policy;
pub mod replay;
pub mod retry;
pub mod spec;
pub mod trace;
pub mod vcd;

#[allow(deprecated)]
pub use battery::compare_structures;
pub use battery::{battery, BatteryGroup, BatteryRun, BatteryVerdict, EquivalenceVerdict, Witness};
pub use compiled::{get_or_compile, Backend, CompiledDesign};
pub use determinism::{check_determinism, check_determinism_with, DeterminismReport};
pub use engine::Simulator;
pub use env::{Environment, ScriptedEnv};
pub use error::SimError;
pub use extract::event_structure;
pub use fault::{
    run_campaign, CampaignConfig, CampaignReport, Fault, FaultClass, FaultKind, FaultOutcome,
    FaultPlan, FaultSite, FaultWindow,
};
pub use fleet::{Fleet, FleetBatch, FleetStats, SaturationConfig, SaturationOutcome, SimJob};
pub use policy::FiringPolicy;
pub use replay::{env_from_recording, replay_recording};
pub use retry::{Backoff, RetryPolicy};
pub use spec::RunSpec;
pub use trace::{Termination, Trace, WorkCounts};
