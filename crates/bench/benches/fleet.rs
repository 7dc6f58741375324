//! Criterion benches for the batch-simulation fleet (E9b table): the
//! policy-battery batch through the fleet (1 and 8 workers) against the
//! plain sequential loop over the same jobs, on the default backend.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use etpn_sim::{FiringPolicy, Fleet, RunSpec, SimJob};
use etpn_synth::CompiledDesign;
use etpn_workloads::{catalog, Workload};

/// One deterministic run plus seeded sweeps of both randomized policies,
/// for every catalog design: 9 jobs per design, ≥64 in total.
fn battery(designs: &[(Workload, CompiledDesign)]) -> Vec<SimJob<'_>> {
    let mut jobs = Vec::new();
    for (w, d) in designs {
        for policy in FiringPolicy::battery(4) {
            let spec = RunSpec {
                policy,
                max_steps: w.max_steps,
                registers: d.reg_inits.clone(),
                ..RunSpec::default()
            };
            jobs.push(SimJob::from_spec(&d.etpn, w.env(), spec));
        }
    }
    jobs
}

fn bench_fleet_vs_sequential(c: &mut Criterion) {
    let designs: Vec<(Workload, CompiledDesign)> = catalog()
        .into_iter()
        .map(|w| {
            let d = etpn_synth::compile_source(&w.source).unwrap();
            (w, d)
        })
        .collect();
    let n_jobs = battery(&designs).len();
    assert!(n_jobs >= 64, "acceptance requires a ≥64-job batch");

    let mut group = c.benchmark_group("e9b_fleet");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("sequential", n_jobs), |b| {
        b.iter(|| {
            for job in battery(&designs) {
                job.run().unwrap();
            }
        })
    });
    for workers in [1usize, 8] {
        group.bench_function(BenchmarkId::new(format!("fleet_{workers}w"), n_jobs), |b| {
            b.iter(|| {
                let batch = Fleet::new(workers).run_batch(battery(&designs));
                for r in &batch.results {
                    r.as_ref().unwrap();
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fleet_vs_sequential);
criterion_main!(benches);
