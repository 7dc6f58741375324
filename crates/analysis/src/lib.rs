//! # etpn-analysis — static analysis for the ETPN model
//!
//! The decision procedures behind the paper's restrictions and synthesis
//! guidance:
//!
//! * [`reach`] — reachability graph and the exploration-only safeness
//!   oracle;
//! * [`conflict`] — conflict-freedom (Def. 3.2(3)) via syntactic guard
//!   exclusivity;
//! * [`comb_loop`] — per-state combinational-loop detection (Def. 3.2(4));
//! * [`proper`] — the *properly designed* rules (Def. 3.2) and their report;
//!   safeness tries the invariant cover, then budgeted reachability;
//! * [`datadep`] — the data-dependence relations `↔` and `◇`
//!   (Defs. 4.3/4.4) that bound the legal transformations;
//! * [`mod@critical_path`] — state delays and the control critical path (§5);
//! * [`invariants`] — P-invariants, structural safeness and mutual
//!   exclusion.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod comb_loop;
pub mod conflict;
pub mod critical_path;
pub mod datadep;
pub mod invariants;
pub mod proper;
pub mod reach;

pub use comb_loop::{find_all_comb_loops, find_comb_loop, CombLoop};
pub use conflict::{check_conflicts, ConflictFinding};
pub use critical_path::{critical_path, default_delay, state_delay, CriticalPath};
pub use datadep::DataDependence;
pub use invariants::{cyclic_closure, p_invariants, p_semiflows, PInvariants};
pub use proper::{
    check_properly_designed, check_properly_designed_with, ProperReport, SafetyVerdict,
};
pub use reach::{is_safe, ExploreBudget, ReachGraph};
