//! **E13 — coverage saturation and collection overhead.**
//!
//! Two questions about the `etpn-cov` subsystem:
//!
//! 1. *Saturation*: how many policy seeds does each workload need before
//!    consecutive batches stop adding coverage, and what do the saturated
//!    place/transition percentages look like once `etpn-lint`'s
//!    statically-dead fixpoint is folded out of the denominators?
//! 2. *Overhead*: what does `with_coverage` cost per step, measured the
//!    E11 way (repeated runs, instrumented vs. baseline, interleaved) on
//!    long GCD runs under the interpreter and on the 1024-place cyclic
//!    net under the compiled backend? The acceptance bound is ≤ 5%. After
//!    a full evaluation walk (every interpreter step) collection is one
//!    word-parallel arc-set OR plus one value check per not-yet-toggled
//!    output port; on the compiled backend's incremental steps it reads
//!    only the ports whose value changed and the arcs that opened. Either
//!    way guard outcomes cost one mask test per enabled guarded
//!    transition, and the per-place/-transition counters are absorbed
//!    from the engine's existing counts at run end.

use super::e9_throughput::cyclic_net;
use crate::table::Table;
use crate::Scale;
use etpn_cov::{report, StaticDead};
use etpn_sim::{FiringPolicy, Fleet, RunSpec, SaturationConfig, SimJob, Simulator};
use etpn_workloads::by_name;
use std::time::{Duration, Instant};

/// The seed → policy mapping `etpnc cov` uses: seed 0 is the
/// deterministic reference, then the randomized policies alternate.
fn policy_of(seed: u64) -> FiringPolicy {
    match seed {
        0 => FiringPolicy::MaximalStep,
        s if s % 2 == 1 => FiringPolicy::RandomMaximal { seed: s },
        s => FiringPolicy::SingleRandom { seed: s },
    }
}

/// Run E13.
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "E13",
        "coverage saturation per workload + collection overhead (gcd, random1024)",
        &[
            "workload",
            "seeds",
            "saturated",
            "place %",
            "trans %",
            "arc %",
            "guard %",
        ],
    );
    let cfg = SaturationConfig {
        batch_size: scale.n(4, 8) as u64,
        stable_batches: scale.n(2, 3) as u32,
        max_batches: scale.n(16, 64) as u32,
    };
    for name in ["gcd", "diffeq", "ewf"] {
        let w = by_name(name).expect("workload exists");
        let d = etpn_synth::compile_source(&w.source).expect("workload compiles");
        let outcome = Fleet::new(0).run_saturation(
            |seed| {
                let spec = RunSpec {
                    policy: policy_of(seed),
                    max_steps: w.max_steps,
                    registers: d.reg_inits.clone(),
                    ..RunSpec::default()
                };
                SimJob::from_spec(&d.etpn, w.env(), spec)
            },
            cfg,
        );
        let db = outcome.coverage.expect("workloads simulate successfully");
        let (dead_p, dead_t) = etpn_lint::statically_dead(&d.etpn.ctl);
        let rep = report(
            &d.etpn,
            &db,
            &StaticDead::from_ids(&d.etpn, &dead_p, &dead_t),
        );
        table.row([
            name.to_string(),
            outcome.jobs.to_string(),
            if outcome.saturated { "yes" } else { "NO" }.to_string(),
            format!("{:.1}", rep.places.pct()),
            format!("{:.1}", rep.transitions.pct()),
            format!("{:.1}", rep.arcs.pct()),
            format!("{:.1}", rep.guards.pct()),
        ]);
    }

    // Collection overhead, E11-style: repeated GCD runs with and without
    // the collector attached. Two measurement choices matter on a noisy
    // box: the variants are *interleaved* run by run so clock drift hits
    // both timers equally, and the inputs (99991, 7) force tens of
    // thousands of subtraction steps per run so the timed window is
    // steady-state per-step work, not per-run setup inside the noise
    // floor.
    let w = by_name("gcd").expect("gcd workload exists");
    let d = etpn_synth::compile_source(&w.source).expect("gcd compiles");
    let reps = scale.n(3, 25) as u64;
    let gcd_run = |coverage: bool| -> (u64, Duration) {
        let env = etpn_sim::ScriptedEnv::new()
            .with_stream("a", [99_991])
            .with_stream("b", [7]);
        let mut sim = Simulator::new(&d.etpn, env);
        for (n, v) in &d.reg_inits {
            sim = sim.init_register(n, *v);
        }
        if coverage {
            sim = sim.with_coverage();
        }
        let t0 = Instant::now();
        let steps = sim.run(1_000_000).expect("gcd runs").steps;
        (steps, t0.elapsed())
    };
    table.row(overhead_row("gcd overhead", reps, gcd_run));

    // The same on a large net under the compiled backend, where a step
    // touches a handful of ports out of thousands: the E9c 1024-place
    // cyclic net, where event-driven collection matters most.
    let net = cyclic_net(23, 1024);
    let budget = scale.n(8_192, 65_536) as u64;
    let net_run = |coverage: bool| -> (u64, Duration) {
        let mut sim = Simulator::new(&net, etpn_sim::ScriptedEnv::new()).compiled();
        if coverage {
            sim = sim.with_coverage();
        }
        let t0 = Instant::now();
        let steps = sim.run(budget).expect("random1024 runs").steps;
        (steps, t0.elapsed())
    };
    table.row(overhead_row(
        "random1024 overhead (compiled)",
        reps,
        net_run,
    ));
    table.interpret(
        "every workload saturates place/transition/arc/guard coverage from \
         a handful of policy seeds once statically-dead items leave the \
         denominator; run-attached collection stays within the 5% bound",
    );
    table
}

/// Collection overhead of one subject as a table row: `one_run(coverage)`
/// runs the subject once and returns `(steps, wall time)`. Runs with and
/// without coverage alternate after a warm-up of both, and the reported
/// overhead is the median of the per-pair ratios, so a scheduler spike
/// that lands on one run distorts that pair only.
fn overhead_row(label: &str, reps: u64, one_run: impl Fn(bool) -> (u64, Duration)) -> [String; 7] {
    for _ in 0..2 {
        let _ = one_run(false);
        let _ = one_run(true);
    }
    let mut base_rates = Vec::new();
    let mut cov_rates = Vec::new();
    let mut ratios = Vec::new();
    for _ in 0..reps {
        let (s, t) = one_run(false);
        let base = s as f64 / t.as_secs_f64();
        let (s, t) = one_run(true);
        let cov = s as f64 / t.as_secs_f64();
        base_rates.push(base);
        cov_rates.push(cov);
        ratios.push(base / cov);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let base = median(&mut base_rates);
    let with_cov = median(&mut cov_rates);
    let overhead = (median(&mut ratios) - 1.0) * 100.0;
    [
        label.to_string(),
        format!("{reps} pairs"),
        "-".to_string(),
        format!("{base:.0}/s"),
        format!("{with_cov:.0}/s"),
        format!("{overhead:+.1}%"),
        "≤5% bound".to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e13_saturates_every_workload() {
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 5, "{t:?}");
        for row in &t.rows[..3] {
            assert_eq!(row[2], "yes", "{row:?} should saturate");
            let place: f64 = row[3].parse().unwrap();
            let trans: f64 = row[4].parse().unwrap();
            assert!(place >= 90.0, "{row:?}");
            assert!(trans >= 90.0, "{row:?}");
        }
    }
}
