//! Criterion benches for the simulation engine (E9 table): full benchmark
//! runs, sustained stepping on cyclic random nets, and the event-structure
//! extraction kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use etpn_sim::{event_structure, ScriptedEnv, Simulator};
use etpn_workloads::{by_name, cyclic_net};

fn bench_workload_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_workload_runs");
    for name in ["diffeq", "gcd", "ewf"] {
        let w = by_name(name).unwrap();
        let d = etpn_synth::compile_source(&w.source).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| d.simulator(w.env()).run(w.max_steps).unwrap())
        });
    }
    group.finish();
}

fn bench_sustained_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_sustained_steps");
    for &n in &[32usize, 256] {
        let g = cyclic_net(23, n);
        group.bench_with_input(BenchmarkId::new("cyclic_1k_steps", n), &g, |b, g| {
            b.iter(|| Simulator::new(g, ScriptedEnv::new()).run(1_000).unwrap())
        });
    }
    group.finish();
}

fn bench_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_event_extraction");
    let w = by_name("fir16").unwrap();
    let d = etpn_synth::compile_source(&w.source).unwrap();
    let trace = d.simulator(w.env()).run(w.max_steps).unwrap();
    group.bench_function("fir16_structure", |b| {
        b.iter(|| event_structure(&d.etpn, &trace))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_workload_runs,
    bench_sustained_steps,
    bench_extraction
);
criterion_main!(benches);
