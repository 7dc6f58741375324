//! **E11 — observability overhead.**
//!
//! The `etpn-obs` instrumentation is compiled in unconditionally and
//! gated by the process-wide [`obs::Level`]; this experiment quantifies
//! what each level costs on a control-dominated workload (GCD, run
//! repeatedly on the default compiled engine). `off` is the baseline:
//! spans cost one relaxed atomic load each and no timestamp is taken.
//! `stats` adds the step-duration histogram (two `Instant::now` calls on
//! one step in 16) and one dirty-fraction histogram record per step.
//! `trace` additionally records every span with start/end timestamps into
//! the profile root, the shared buffer `--profile` writes out.
//!
//! Four more rows time the primitives a level turns on or off: a counter
//! add, a histogram record, and a span at `off` and at `trace`. A level
//! row's operation is one gcd step, a primitive row's one call.
//!
//! Acceptance: `stats` stays within 5% of `off`, and `off` is
//! indistinguishable from noise against an uninstrumented build (the
//! always-on counters are four relaxed adds per step).

use crate::measure::measure;
use crate::table::Table;
use crate::Scale;
use etpn_obs as obs;
use etpn_workloads::by_name;
use std::hint::black_box;
use std::time::Instant;

/// Run E11.
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "E11",
        "observability overhead by level (gcd, repeated runs) and primitive cost",
        &["subject", "ops", "ops/s", "ns/op", "overhead %"],
    );
    let w = by_name("gcd").expect("gcd workload exists");
    let d = etpn_synth::compile_source(&w.source).expect("gcd compiles");
    let levels = [
        ("off", obs::Level::Off),
        ("stats", obs::Level::Stats),
        ("trace", obs::Level::Trace),
    ];
    // A sample runs gcd `reps` times at the arm's level.
    let reps = scale.n(20, 500);
    let mut steps = [0u64; 3];
    let m = measure(levels.len(), scale.n(3, 25), |arm| {
        obs::set_level(levels[arm].1);
        let t0 = Instant::now();
        steps[arm] = (0..reps)
            .map(|_| {
                d.simulator(w.env())
                    .run(w.max_steps)
                    .expect("gcd runs")
                    .steps
            })
            .sum();
        let dt = t0.elapsed();
        // Lowering the level drops the profile root and its spans.
        obs::set_level(obs::Level::Off);
        (steps[arm], dt)
    });
    for (arm, (name, _)) in levels.iter().enumerate() {
        table.row([
            name.to_string(),
            steps[arm].to_string(),
            format!("{:.0}", m.rate(arm)),
            format!("{:.0}", 1e9 / m.rate(arm)),
            format!("{:+.1}", (m.ratio(0, arm) - 1.0) * 100.0),
        ]);
    }

    // A sample makes `calls` calls of the arm's primitive at its level.
    let primitives = [
        ("counter add", obs::Level::Off),
        ("histogram record", obs::Level::Off),
        ("span at off", obs::Level::Off),
        ("span at trace", obs::Level::Trace),
    ];
    let calls = scale.n(10_000, 100_000);
    let counter = obs::global().counter("e11.counter");
    let histogram = obs::global().histogram("e11.histogram");
    let m = measure(primitives.len(), scale.n(3, 25), |arm| {
        obs::set_level(primitives[arm].1);
        let t0 = Instant::now();
        match arm {
            0 => (0..calls).for_each(|_| counter.inc()),
            1 => (0..calls).for_each(|_| histogram.record(black_box(12_345))),
            _ => (0..calls).for_each(|_| drop(black_box(obs::span("e11.span")))),
        }
        let dt = t0.elapsed();
        obs::set_level(obs::Level::Off);
        (calls as u64, dt)
    });
    for (arm, (name, _)) in primitives.iter().enumerate() {
        table.row([
            name.to_string(),
            calls.to_string(),
            format!("{:.0}", m.rate(arm)),
            format!("{:.1}", 1e9 / m.rate(arm)),
            "-".to_string(),
        ]);
    }
    table.interpret(
        "level gating keeps a disabled span at one atomic load, a few ns; \
         on the compiled engine's sub-microsecond gcd steps stats-level \
         sampling costs a few percent, while trace-level span recording \
         about doubles the time per step",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_reports_every_level_and_primitive() {
        let t = run(Scale::Quick);
        assert_eq!(
            t.rows.iter().map(|r| r[0].as_str()).collect::<Vec<_>>(),
            vec![
                "off",
                "stats",
                "trace",
                "counter add",
                "histogram record",
                "span at off",
                "span at trace"
            ]
        );
        for row in &t.rows {
            for cell in &row[2..4] {
                let x: f64 = cell.parse().unwrap();
                assert!(x > 0.0, "{row:?}");
            }
        }
        // The same step count at every level: instrumentation must not
        // change what the simulator computes.
        assert!(t.rows[..3].iter().all(|r| r[1] == t.rows[0][1]));
    }
}
