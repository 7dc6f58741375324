//! Criterion benches for the E9c step-engine comparison: the interpreter
//! and the event-driven compiled engine, on sustained stepping over cyclic
//! random nets. The `experiments` binary (`--quick E9C`) produces the same
//! comparison as a steps/s table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use etpn_sim::{Backend, RunSpec, ScriptedEnv, Simulator};
use etpn_workloads::cyclic_net;

fn bench_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9c_backends");
    for &n in &[32usize, 256] {
        let g = cyclic_net(23, n);
        // Warm the global compile cache so timed iterations measure
        // stepping, not compilation.
        let _ = etpn_sim::get_or_compile(&g);
        for backend in [Backend::Interp, Backend::Compiled] {
            let spec = RunSpec {
                backend,
                ..RunSpec::default()
            };
            group.bench_with_input(BenchmarkId::new(backend.name(), n), &g, |b, g| {
                b.iter(|| {
                    Simulator::from_spec(g, ScriptedEnv::new(), &spec)
                        .run(1_000)
                        .unwrap()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_backends);
criterion_main!(benches);
