//! The experiment suite: one module per EXPERIMENTS.md table.
//!
//! Every experiment is a pure function `run(scale) -> Table`, shared by the
//! `experiments` binary and the harness tests.

pub mod e10_determinism;
pub mod e11_obs;
pub mod e12_fault;
pub mod e13_coverage;
pub mod e14_recorder;
pub mod e15_service;
pub mod e1_e2_equivalence;
pub mod e3_parallelize;
pub mod e4_pareto;
pub mod e5_synthesis;
pub mod e6_baselines;
pub mod e7_scaling;
pub mod e8_ablation;
pub mod e9_throughput;

use crate::table::Table;
use etpn_synth::CompiledDesign;
use etpn_workloads::{catalog, Workload};

/// Experiment scale.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Reduced seeds/sizes — used by the harness tests.
    Quick,
    /// The full published configuration.
    Full,
}

impl Scale {
    /// Scale a count down in quick mode.
    pub fn n(self, quick: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Every catalogue workload with its compiled design.
pub(crate) fn compiled_catalog() -> Vec<(Workload, CompiledDesign)> {
    catalog()
        .into_iter()
        .map(|w| {
            let d = etpn_synth::compile_source(&w.source).expect("workload compiles");
            (w, d)
        })
        .collect()
}

/// Run every experiment in order.
pub fn run_all(scale: Scale) -> Vec<Table> {
    vec![
        e1_e2_equivalence::run_e1(scale),
        e1_e2_equivalence::run_e2(scale),
        e3_parallelize::run(scale),
        e4_pareto::run(scale),
        e5_synthesis::run(scale),
        e6_baselines::run(scale),
        e7_scaling::run(scale),
        e8_ablation::run(scale),
        e9_throughput::run(scale),
        e9_throughput::run_fleet(scale),
        e9_throughput::run_backends(scale),
        e10_determinism::run(scale),
        e11_obs::run(scale),
        e12_fault::run(scale),
        e13_coverage::run(scale),
        e14_recorder::run(scale),
        e15_service::run(scale),
    ]
}

/// Run one experiment by id (`"E1"`, `"e4"`, …).
pub fn run_one(id: &str, scale: Scale) -> Option<Table> {
    Some(match id.to_ascii_uppercase().as_str() {
        "E1" => e1_e2_equivalence::run_e1(scale),
        "E2" => e1_e2_equivalence::run_e2(scale),
        "E3" => e3_parallelize::run(scale),
        "E4" => e4_pareto::run(scale),
        "E5" => e5_synthesis::run(scale),
        "E6" => e6_baselines::run(scale),
        "E7" => e7_scaling::run(scale),
        "E8" => e8_ablation::run(scale),
        "E9" => e9_throughput::run(scale),
        "E9B" => e9_throughput::run_fleet(scale),
        "E9C" => e9_throughput::run_backends(scale),
        "E10" => e10_determinism::run(scale),
        "E11" => e11_obs::run(scale),
        "E12" => e12_fault::run(scale),
        "E13" => e13_coverage::run(scale),
        "E14" => e14_recorder::run(scale),
        "E15" => e15_service::run(scale),
        _ => return None,
    })
}
