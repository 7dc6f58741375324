//! # etpn-workloads — benchmark designs and workload generators
//!
//! The standard high-level-synthesis benchmarks of the paper's era as
//! behavioural programs — [`diffeq`] (the HAL differential-equation
//! solver), [`ewf`] (fifth-order elliptic wave filter), [`fir`] (16-tap
//! FIR), [`gcd`], [`ar_lattice`], [`iir`] (biquad cascade), [`alphabeta`]
//! (fixed-gain Kalman tracker), [`isqrt`] (Newton square root) — plus seeded [`random`] generators for the
//! scaling experiments.
//!
//! [`interp`] provides a reference interpreter for the behavioural
//! language, used as an independent oracle: for every workload the ETPN
//! simulation of the compiled design must reproduce the interpreter's
//! outputs exactly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alphabeta;
pub mod ar_lattice;
pub mod catalog;
pub mod diffeq;
pub mod ewf;
pub mod fir;
pub mod gcd;
pub mod iir;
pub mod interp;
pub mod isqrt;
pub mod random;
pub mod workload;

pub use catalog::{by_name, catalog};
pub use interp::{interpret, InterpError};
pub use random::{cyclic_net, random_design, random_net, random_program, ProgramShape};
pub use workload::Workload;
