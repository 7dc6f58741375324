//! # etpn-rec — flight recorder for ETPN simulations
//!
//! The paper's semantics (Def. 3.1) make every run a deterministic function
//! of `(design, firing policy, seed, environment)`: data-path evaluation is
//! pure, and the *only* free choice per step is which ready transitions the
//! policy fires. A journal of those choices — plus the per-step effects
//! they committed (register latches, consumed inputs, external events,
//! applied faults) — therefore pins down the whole trajectory, and a
//! periodic checkpoint of the configuration `(marking, register state,
//! input cursors)` makes any step reachable without re-running from zero.
//!
//! * [`journal`] — the data model ([`StepRecord`], [`Checkpoint`],
//!   [`Recording`]) and its compact binary encoding (LEB128 varints,
//!   zigzag deltas, stable digests);
//! * [`fault`] — the engine's fault model ([`Fault`]), which a
//!   recording's metadata holds as is;
//! * [`recorder`] — the live [`Recorder`] the engine drives: it appends
//!   the engine's one row per step to the [`Recording`] it returns, in
//!   full-journal mode for bounded runs or a fixed-capacity ring, trimmed
//!   in batches, for always-on recording without steady-state allocation;
//! * [`divergence`] — forensics over two recordings of the same design:
//!   one step comparator ([`step_diff`]) that replay verification shares,
//!   the first divergent step with a checkpoint-digest fallback, and a
//!   causal slice (the cone of ports/places feeding the divergent
//!   decision) rendered as text, JSON, or a DOT heat overlay.
//!
//! The crate knows nothing about the step loop: `etpn-sim` depends on it
//! (the engine holds a [`Recorder`] and replays [`Recording`]s), never
//! the reverse. The firing policy stays a tag and a seed in [`RecMeta`],
//! because ordering a policy's choices needs `rand`, which this crate
//! does not depend on.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod divergence;
pub mod fault;
pub mod journal;
pub mod recorder;

pub use divergence::{
    causal_slice, first_divergence, step_diff, CausalSlice, Divergence, DivergenceReason,
    DivergenceReport,
};
pub use fault::{Fault, FaultKind, FaultSite, FaultWindow};
pub use journal::{
    Checkpoint, RecError, RecMeta, RecordConfig, RecordMode, Recording, StepRecord,
    FLAG_CONTROL_FAULT, FLAG_DATA_FAULT,
};
pub use recorder::Recorder;
