//! End-to-end cross-validation: for every benchmark in the catalogue, the
//! ETPN simulation of the compiled design must reproduce the outputs of the
//! independent AST interpreter — before *and after* optimisation under
//! every objective. This is the workhorse correctness test of the whole
//! stack (front-end → compiler → model → simulator → transformations).

use etpn_analysis::proper::check_properly_designed;
use etpn_core::Etpn;
use etpn_sim::{Simulator, Termination};
use etpn_synth::{synthesize, ModuleLibrary, Objective};
use etpn_workloads::{catalog, Workload};

fn simulate_outputs(
    w: &Workload,
    g: &Etpn,
    reg_inits: &[(String, i64)],
) -> Vec<(String, Vec<i64>)> {
    let mut sim = Simulator::new(g, w.env());
    for (name, v) in reg_inits {
        sim = sim.init_register(name, *v);
    }
    let trace = sim
        .run(w.max_steps)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    assert_eq!(
        trace.termination,
        Termination::Terminated,
        "{} must terminate",
        w.name
    );
    w.program()
        .outputs
        .iter()
        .map(|o| (o.clone(), trace.values_on_named_output(g, o)))
        .collect()
}

#[test]
fn every_workload_compiles_properly() {
    for w in catalog() {
        let d = etpn_synth::compile_source(&w.source).unwrap();
        let report = check_properly_designed(&d.etpn);
        assert!(report.is_proper(), "{}: {}", w.name, report.summary());
    }
}

#[test]
fn simulation_matches_interpreter_for_every_workload() {
    for w in catalog() {
        let d = etpn_synth::compile_source(&w.source).unwrap();
        let expected = w.expected();
        for (name, values) in simulate_outputs(&w, &d.etpn, &d.reg_inits) {
            assert_eq!(
                values, expected[&name],
                "{}: output `{name}` diverges from the reference interpreter",
                w.name
            );
        }
    }
}

#[test]
fn optimized_designs_still_match_interpreter() {
    let lib = ModuleLibrary::standard();
    for w in catalog() {
        let expected = w.expected();
        for objective in [
            Objective::MinDelay { max_area: None },
            Objective::MinArea { max_latency: None },
            Objective::Balanced,
        ] {
            let res = synthesize(&w.source, objective, &lib)
                .unwrap_or_else(|e| panic!("{} under {objective:?}: {e}", w.name));
            for (name, values) in simulate_outputs(&w, &res.optimized, &res.compiled.reg_inits) {
                assert_eq!(
                    values, expected[&name],
                    "{} under {objective:?}: output `{name}` changed",
                    w.name
                );
            }
        }
    }
}

#[test]
fn representative_inputs_fully_cover_the_control() {
    // Every state and transition of each benchmark fires under its
    // representative inputs (dead control would mean the workload does not
    // exercise its own specification).
    for w in catalog() {
        let d = etpn_synth::compile_source(&w.source).unwrap();
        let mut sim = Simulator::new(&d.etpn, w.env()).with_coverage();
        for (n, v) in &d.reg_inits {
            sim = sim.init_register(n, *v);
        }
        let trace = sim.run(w.max_steps).unwrap();
        let db = trace.cov.as_ref().expect("the run collected coverage");
        // Nothing is excluded as statically dead: every item counts.
        let report = etpn_cov::report(&d.etpn, db, &etpn_cov::StaticDead::none());
        for dim in [&report.places, &report.transitions] {
            assert_eq!(dim.excluded, 0, "{}: {dim:?}", w.name);
            assert_eq!(dim.covered, dim.total, "{}: {dim:?}", w.name);
            assert!(dim.holes.is_empty(), "{}: {dim:?}", w.name);
        }
    }
}

#[test]
fn optimization_improves_its_objective_on_the_filters() {
    let lib = ModuleLibrary::standard();
    for name in ["ewf", "fir16", "ar_lattice"] {
        let w = etpn_workloads::by_name(name).unwrap();
        let fast = synthesize(&w.source, Objective::MinDelay { max_area: None }, &lib).unwrap();
        assert!(
            fast.final_cost.latency_bound < fast.initial_cost.latency_bound,
            "{name}: min-delay should shorten the latency bound \
             ({} → {})",
            fast.initial_cost.latency_bound,
            fast.final_cost.latency_bound
        );
        let small = synthesize(&w.source, Objective::MinArea { max_latency: None }, &lib).unwrap();
        assert!(
            small.final_cost.total_area < small.initial_cost.total_area,
            "{name}: min-area should shrink the area \
             ({} → {})",
            small.initial_cost.total_area,
            small.final_cost.total_area
        );
    }
}
