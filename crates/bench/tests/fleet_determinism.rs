//! Tier-1 jobs-invariance test: for every catalog workload, a fleet batch
//! at 1, 4 and 8 workers yields byte-identical trace and event-structure
//! output to the plain sequential [`Simulator`]. This extends the E10
//! policy-invariance story to thread count — worker count and work-stealing
//! order must be unobservable in the results.

use etpn_sim::{event_structure, FiringPolicy, Fleet, RunSpec, SimJob};
use etpn_workloads::catalog;

#[test]
fn fleet_matches_sequential_simulator_for_every_workload() {
    // The policy battery run for each workload. Randomized policies draw
    // from per-job RNGs, so their traces too must be independent of
    // scheduling.
    let policies = FiringPolicy::battery(2);
    for w in catalog() {
        let d = etpn_synth::compile_source(&w.source).unwrap();

        // Sequential reference: one Simulator run per policy, in order.
        // Traces don't implement PartialEq; their Debug form is a complete
        // rendering, so byte-comparing it is the strictest check available.
        let mut expected = Vec::new();
        for &policy in &policies {
            let trace = d
                .simulator(w.env())
                .with_policy(policy)
                .run(w.max_steps)
                .unwrap();
            let structure = event_structure(&d.etpn, &trace);
            expected.push((format!("{trace:?}"), format!("{structure:?}")));
        }

        for workers in [1usize, 4, 8] {
            let jobs: Vec<SimJob> = policies
                .iter()
                .map(|&policy| {
                    let spec = RunSpec {
                        policy,
                        max_steps: w.max_steps,
                        registers: d.reg_inits.clone(),
                        ..RunSpec::default()
                    };
                    SimJob::from_spec(&d.etpn, w.env(), spec)
                })
                .collect();
            let batch = Fleet::new(workers).run_batch(jobs);
            assert_eq!(batch.results.len(), expected.len());
            for (i, (result, (exp_trace, exp_structure))) in
                batch.results.iter().zip(&expected).enumerate()
            {
                let trace = result.as_ref().unwrap();
                let structure = event_structure(&d.etpn, trace);
                assert_eq!(
                    format!("{trace:?}"),
                    *exp_trace,
                    "{}: job {i} at {workers} workers diverged from sequential",
                    w.name
                );
                assert_eq!(
                    format!("{structure:?}"),
                    *exp_structure,
                    "{}: job {i} event structure at {workers} workers",
                    w.name
                );
            }
        }
    }
}
