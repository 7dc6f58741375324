//! Criterion benches for the observability layer (E11): the primitive
//! costs (counter add, histogram record, disabled/enabled span) and the
//! end-to-end simulation at each level.

use criterion::{criterion_group, criterion_main, Criterion};
use etpn_obs as obs;
use etpn_workloads::by_name;

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_primitives");
    let ctr = obs::global().counter("bench.counter");
    group.bench_function("counter_inc", |b| b.iter(|| ctr.inc()));
    let h = obs::global().histogram("bench.hist");
    group.bench_function("histogram_record", |b| b.iter(|| h.record(12_345)));
    obs::set_level(obs::Level::Off);
    group.bench_function("span_disabled", |b| b.iter(|| obs::span("bench.span")));
    obs::set_level(obs::Level::Trace);
    group.bench_function("span_enabled", |b| b.iter(|| obs::span("bench.span")));
    // Lowering the level drops the profile root and its spans.
    obs::set_level(obs::Level::Off);
    group.finish();
}

fn bench_sim_at_levels(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_sim_levels");
    let w = by_name("gcd").unwrap();
    let d = etpn_synth::compile_source(&w.source).unwrap();
    for (name, level) in [
        ("off", obs::Level::Off),
        ("stats", obs::Level::Stats),
        ("trace", obs::Level::Trace),
    ] {
        obs::set_level(level);
        group.bench_function(name, |b| {
            b.iter(|| d.simulator(w.env()).run(w.max_steps).unwrap())
        });
        obs::set_level(obs::Level::Off);
    }
    group.finish();
}

criterion_group!(benches, bench_primitives, bench_sim_at_levels);
criterion_main!(benches);
