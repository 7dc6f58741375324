//! Integration tests for semantics preservation across *mixed*
//! transformation sequences — interleaved data-invariant and
//! control-invariant rewrites on the real benchmark designs, checked
//! against the representative inputs (exact output equality) and the
//! randomized oracle.

use etpn_bench::seqgen::{random_sequence, Family};
use etpn_sim::Simulator;
use etpn_transform::{semantic_oracle, OracleConfig, OracleVerdict};
use etpn_workloads::catalog;

fn outputs(
    w: &etpn_workloads::Workload,
    g: &etpn_core::Etpn,
    inits: &[(String, i64)],
) -> Vec<(String, Vec<i64>)> {
    let mut sim = Simulator::new(g, w.env());
    for (n, v) in inits {
        sim = sim.init_register(n, *v);
    }
    let trace = sim.run(w.max_steps).unwrap();
    w.program()
        .outputs
        .iter()
        .map(|o| (o.clone(), trace.values_on_named_output(g, o)))
        .collect()
}

#[test]
fn mixed_sequences_preserve_outputs_on_all_workloads() {
    for w in catalog() {
        let d = etpn_synth::compile_source(&w.source).unwrap();
        let reference = outputs(&w, &d.etpn, &d.reg_inits);
        for seed in 0..3u64 {
            let (g2, applied) = random_sequence(&d.etpn, Family::Mixed, seed, 10);
            let got = outputs(&w, &g2, &d.reg_inits);
            assert_eq!(
                got, reference,
                "{} seed {seed}: outputs changed after {applied:?}",
                w.name
            );
            // The transformed design stays properly designed.
            let report = etpn_analysis::check_properly_designed(&g2);
            assert!(
                report.is_proper(),
                "{} seed {seed}: {}",
                w.name,
                report.summary()
            );
        }
    }
}

#[test]
fn mixed_sequences_survive_the_oracle_on_diffeq() {
    let w = etpn_workloads::by_name("diffeq").unwrap();
    let g0 = etpn_synth::compile_source(&w.source).unwrap().etpn;
    for seed in 0..2u64 {
        let (g2, applied) = random_sequence(&g0, Family::Mixed, seed, 8);
        let cfg = OracleConfig {
            environments: 4,
            stream_len: 4,
            policy_seeds: 1,
            max_steps: 20_000,
            value_min: -16,
            value_max: 16,
            threads: 0,
        };
        match semantic_oracle(&g0, &g2, cfg) {
            // Environments whose reference hits the step limit are
            // skipped; a pass that compared no run would be vacuous.
            OracleVerdict::NoCounterexample { runs, skipped } => {
                assert!(
                    runs > 0,
                    "seed {seed}: every environment skipped ({skipped})"
                );
            }
            other => panic!("seed {seed}, after {applied:?}: {other:?}"),
        }
    }
}

#[test]
fn optimizer_composes_with_manual_transforms() {
    // Run the optimiser, then keep rewriting by hand: the provenance log
    // must replay, and semantics must hold end to end.
    let w = etpn_workloads::by_name("ar_lattice").unwrap();
    let d = etpn_synth::compile_source(&w.source).unwrap();
    let reference = outputs(&w, &d.etpn, &d.reg_inits);
    let lib = etpn_synth::ModuleLibrary::standard();
    let mut rw = etpn_transform::Rewriter::new(d.etpn.clone());
    etpn_synth::Optimizer::new(lib, etpn_synth::Objective::Balanced)
        .with_budget(400)
        .optimize(&mut rw);
    let (g2, _) = random_sequence(rw.design(), Family::Mixed, 9, 5);
    assert_eq!(outputs(&w, &g2, &d.reg_inits), reference);
    assert!(rw.replay_matches().unwrap());
}
