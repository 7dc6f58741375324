//! Golden work counts of the compiled engine, and their publication.
//!
//! Each row of `tests/golden/work.txt` gives one design's exact
//! [`WorkCounts`] — `steps firings evaluations port_evals full_walks` —
//! for a compiled-backend `MaximalStep` run: the eight catalogue workloads
//! on their representative inputs, register inits and step budgets, and
//! the seeded cyclic 1 024-place `random_net` with coverage for 4 096
//! steps. Unlike wall time these counts are the same on every host, so a
//! change in how much work a step does shows up as a diff. Regenerate
//! after an intentional change (and say why in the change log) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_work
//! ```
//!
//! The file holds a single test function on purpose: the `sim.*` counters
//! live in the process-wide registry, and tests in one binary run in
//! parallel, so only a lone test can check that a run adds exactly its
//! own counts to them.

use etpn_core::Etpn;
use etpn_sim::{Backend, ScriptedEnv, Simulator, WorkCounts};
use etpn_workloads::{by_name, catalog, cyclic_net, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Places of the cyclic net.
const PLACES: usize = 1024;
/// Steps of the cyclic net's golden run.
const NET_STEPS: u64 = 4096;

/// The work of one catalogue workload's run on `backend`.
fn workload_work(w: &Workload, backend: Backend) -> WorkCounts {
    let d = etpn_synth::compile_source(&w.source).expect("workload compiles");
    let mut sim = Simulator::new(&d.etpn, w.env()).with_backend(backend);
    for (n, v) in &d.reg_inits {
        sim = sim.init_register(n, *v);
    }
    sim.run(w.max_steps).expect("workload simulates").work
}

/// The work of the cyclic net's covered run on `backend`.
fn net_work(g: &Etpn, backend: Backend) -> WorkCounts {
    let trace = Simulator::new(g, ScriptedEnv::new())
        .with_backend(backend)
        .with_coverage()
        .run(NET_STEPS);
    trace.expect("the cyclic net steps cleanly").work
}

fn row(out: &mut String, name: &str, w: WorkCounts) {
    let _ = writeln!(
        out,
        "{name} {} {} {} {} {}",
        w.steps, w.firings, w.evaluations, w.port_evals, w.full_walks
    );
}

/// The `sim.*` counters a run publishes, read from the global registry.
fn published() -> [u64; 4] {
    let reg = etpn_obs::global();
    ["sim.steps", "sim.firings", "sim.evals", "sim.events.fired"].map(|n| reg.counter(n).get())
}

fn as_published(w: WorkCounts) -> [u64; 4] {
    [w.steps, w.firings, w.evaluations, w.port_evals]
}

fn increase(before: [u64; 4], after: [u64; 4]) -> [u64; 4] {
    std::array::from_fn(|i| after[i] - before[i])
}

#[test]
fn work_counts_are_golden_and_published() {
    let net = cyclic_net(1, PLACES);

    // Golden rows.
    let mut rendered = String::from("# design steps firings evaluations port_evals full_walks\n");
    for w in catalog() {
        row(&mut rendered, w.name, workload_work(&w, Backend::Compiled));
    }
    let net_golden = net_work(&net, Backend::Compiled);
    row(&mut rendered, "cyclic_net_1024", net_golden);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/work.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).unwrap();
    } else {
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
                path.display()
            )
        });
        assert!(
            rendered == golden,
            "work counts drifted from {}; run with UPDATE_GOLDEN=1 if the change \
             is intentional and say why in the change log.\nrendered:\n{rendered}",
            path.display()
        );
    }

    // Publication: `run` adds exactly the trace's work to the global
    // counters when it returns...
    let gcd = by_name("gcd").unwrap();
    let before = published();
    let gcd_work = workload_work(&gcd, Backend::Compiled);
    assert_eq!(increase(before, published()), as_published(gcd_work));

    // ...and a simulator driven by `step_once` adds its work when dropped,
    // not before.
    let before = published();
    let mut sim = Simulator::new(&net, ScriptedEnv::new()).with_coverage();
    for _ in 0..1000 {
        assert!(matches!(sim.step_once(), Ok(Some(_))));
    }
    let work = sim.work();
    assert_eq!(work.steps, 1000);
    assert_eq!(published(), before, "counts are published on drop");
    drop(sim);
    assert_eq!(increase(before, published()), as_published(work));

    // Negative control: the interpreter walks every live port on every
    // step, and that must show in both counts.
    let full = "a full walk per step must change the counts";
    let interp = workload_work(&gcd, Backend::Interp);
    assert_ne!(interp.port_evals, gcd_work.port_evals, "gcd: {full}");
    assert_ne!(interp.full_walks, gcd_work.full_walks, "gcd: {full}");
    let interp = net_work(&net, Backend::Interp);
    assert_ne!(interp.port_evals, net_golden.port_evals, "net: {full}");
    assert_ne!(interp.full_walks, net_golden.full_walks, "net: {full}");
}
