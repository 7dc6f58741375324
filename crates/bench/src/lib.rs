//! # etpn-bench — the experiment harness
//!
//! Regenerates every table of EXPERIMENTS.md. The paper itself publishes no
//! quantitative tables (it is a formal-semantics paper); this suite is the
//! evaluation it implies — empirical validation of Theorems 4.1/4.2 and the
//! classic cost/performance studies the CAMAD literature reports on the
//! standard benchmarks. See DESIGN.md §5 for the experiment index.
//!
//! Run everything:
//!
//! ```text
//! cargo run -p etpn-bench --release --bin experiments
//! cargo run -p etpn-bench --release --bin experiments -- --quick E3 E6
//! cargo run -p etpn-bench --release --bin experiments -- --markdown
//! cargo run -p etpn-bench --release --bin experiments -- --json out.json
//! ```
//!
//! Every timed row goes through [`measure::measure`]: a warm-up, then
//! rounds that rotate which arm runs first, reported as medians.
//! Criterion micro-benchmarks for the computational kernels live in
//! `benches/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod measure;
pub mod seqgen;
pub mod table;

pub use experiments::{run_all, run_one, Scale};
pub use table::Table;
