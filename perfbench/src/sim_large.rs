//! `sim-large`: one long compiled-backend run with coverage on, over a
//! seeded cyclic 1024-place `random_net` — the `etpnc run` steps/s
//! subject. Engine stepping and coverage do nearly all the work.
//!
//! The operation is a slice of [`SLICE`] consecutive steps of the one
//! long run: what a caller streaming a waveform or co-simulating in lock
//! step waits for between looks.

use crate::stats::{median, micros, quantile, secs, E2e, Metric, Op, Pass, Setups};
use crate::Cfg;
use etpn_core::Etpn;
use etpn_sim::{Backend, CompiledDesign, ScriptedEnv, Simulator, Termination, Trace};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Places in the net.
const PLACES: usize = 1024;
/// Steps per operation.
const SLICE: u64 = 1024;
/// Untimed steps before measuring, so every coverage bit that will ever
/// flip has flipped and the step cost is steady.
const WARMUP: u64 = 16_384;
/// Minimum warm-up time.
const WARMUP_TIME: Duration = Duration::from_millis(500);
/// Steps of the interpreter cross-check (outside the timed region).
const PREFIX: u64 = 4096;
/// Steps of each run in the coverage-share comparison.
const COV_STEPS: u64 = 32_768;

/// The seeded net, made cyclic the E9c way: the terminal transition
/// `t_end` loops back to the initial place, so the run never ends.
pub fn cyclic_net(seed: u64) -> Etpn {
    let mut g = etpn_workloads::random_net(seed, PLACES);
    let t_end = g
        .ctl
        .transitions()
        .iter()
        .find(|(_, tr)| tr.post.is_empty())
        .map(|(t, _)| t)
        .expect("random nets have a terminal transition");
    let first = g.ctl.initial_places()[0];
    g.ctl.flow_ts(t_end, first).expect("fresh flow edge");
    g
}

fn sim(g: &Etpn, backend: Backend, cov: bool) -> Simulator<'_, ScriptedEnv> {
    let s = Simulator::new(g, ScriptedEnv::new()).with_backend(backend);
    if cov {
        s.with_coverage()
    } else {
        s
    }
}

/// Step once; a cyclic net must always fire something.
fn advance(s: &mut Simulator<'_, ScriptedEnv>) -> bool {
    matches!(s.step_once(), Ok(Some(_)))
}

/// Simulated statistics of a finished run, as a report row body.
fn sim_stats(label: &str, t: &Trace) -> String {
    format!(
        "\"row\": \"simulated\", \"run\": \"{label}\", \"steps\": {}, \"firings\": {}, \
         \"events\": {}, \"cov_signature\": \"{:#018x}\"",
        t.steps,
        t.firings,
        t.events.len(),
        t.cov.as_ref().map_or(0, |c| c.signature())
    )
}

/// The correctness gate: the compiled engine's first [`PREFIX`] steps
/// must equal an interpreter run of the same net, coverage included.
fn prefix_matches(g: &Etpn, corrupt: bool, pass: &mut Pass) {
    let run = |b| sim(g, b, true).run(PREFIX);
    let ok = match (run(Backend::Compiled), run(Backend::Interp)) {
        (Ok(c), Ok(mut i)) => {
            if corrupt {
                i.firings += 1;
            }
            pass.notes.push(sim_stats("prefix", &c));
            c.steps == i.steps
                && c.firings == i.firings
                && c.events == i.events
                && c.fire_counts == i.fire_counts
                && c.exit_counts == i.exit_counts
                && c.cov.as_ref().map(|d| d.to_bytes()) == i.cov.as_ref().map(|d| d.to_bytes())
        }
        _ => false,
    };
    pass.check(ok);
}

/// Run the workload for `seconds`.
pub fn pass(cfg: &Cfg, seconds: f64) -> Pass {
    let mut pass = Pass::default();
    let g = cyclic_net(cfg.seed);
    let mut s = sim(&g, Backend::Compiled, true);
    // Warm-up: every coverage bit that will flip has flipped, and the
    // host has left any idle state, before timing starts.
    let mut warm = 0;
    let t_warm = Instant::now();
    let mut alive = true;
    while alive && (warm < WARMUP || t_warm.elapsed() < WARMUP_TIME) {
        alive = advance(&mut s);
        warm += 1;
    }
    // Set-up: build the seeded net and lower it to the compiled tables.
    let mut setups = Setups::new(5, || CompiledDesign::compile(&cyclic_net(cfg.seed)));

    let budget = Duration::from_secs_f64(seconds);
    let mut ops = Vec::new();
    let mut step_ns: Vec<f64> = Vec::new();
    let start = Instant::now();
    while alive && start.elapsed() < budget {
        let t0 = Instant::now();
        if cfg.traced {
            for _ in 0..SLICE {
                let t = Instant::now();
                alive &= advance(&mut s);
                step_ns.push(t.elapsed().as_nanos() as f64);
            }
        } else {
            for _ in 0..SLICE {
                alive &= advance(&mut s);
            }
        }
        ops.push(Op {
            ms: secs(t0.elapsed()) * 1e3,
            steps: SLICE,
        });
        pass.check(alive);
        setups.tick();
    }
    let wall_s = secs(start.elapsed());
    let steps = warm + ops.len() as u64 * SLICE;
    match s.run(steps) {
        Ok(t) if t.steps == steps && t.termination == Termination::StepLimit => {
            pass.notes.push(sim_stats("long", &t));
        }
        _ => pass.check(false),
    }
    prefix_matches(&g, cfg.corrupt, &mut pass);

    pass.per_op = vec![("slice", SLICE as f64)];
    E2e {
        setup_s: setups.seconds(),
        ops,
        callers: 1,
        wall_s,
    }
    .finish(&mut pass);

    if cfg.traced {
        layers(&g, &mut step_ns, &mut pass);
    }
    pass
}

/// Per-layer metrics of the engine on this net.
fn layers(g: &Etpn, step_ns: &mut [f64], pass: &mut Pass) {
    let mut lower: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(CompiledDesign::compile(g));
            micros(t0.elapsed())
        })
        .collect();
    pass.layers
        .push(Metric::new("sim.lower_us", median(&mut lower), "us"));
    if !step_ns.is_empty() {
        pass.layers
            .push(Metric::new("sim.step_ns_p50", quantile(step_ns, 0.5), "ns"));
        pass.layers.push(Metric::new(
            "sim.step_ns_p99",
            quantile(step_ns, 0.99),
            "ns",
        ));
    }

    // Coverage share: the same net and step count with coverage off and
    // on, alternated, medians. The always-on `sim.events.fired` counter
    // gives the exact port evaluations of the covered run.
    let fired = etpn_obs::global().counter("sim.events.fired");
    let mut with = Vec::new();
    let mut without = Vec::new();
    let mut evals = 0;
    for _ in 0..3 {
        for cov in [false, true] {
            let before = fired.get();
            let t0 = Instant::now();
            let ok = sim(g, Backend::Compiled, cov).run(COV_STEPS).is_ok();
            let dt = secs(t0.elapsed());
            pass.check(ok);
            if cov {
                with.push(dt);
                evals = fired.get() - before;
            } else {
                without.push(dt);
            }
        }
    }
    pass.layers.push(Metric::new(
        "sim.cov_share",
        1.0 - median(&mut without) / median(&mut with),
        "ratio",
    ));
    pass.layers.push(Metric::new(
        "sim.port_evals_per_step",
        evals as f64 / COV_STEPS as f64,
        "count/step",
    ));
}
