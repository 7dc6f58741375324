//! **E14 — flight-recorder overhead: ring vs full journal.**
//!
//! The recorder is meant to be *always on* in its default ring
//! configuration (8192-step ring, checkpoint every 1024 steps), so its
//! per-step cost is the whole ballgame. Per step the engine fills one
//! reused row (fired set, latches, advanced inputs, events, fault flags)
//! and the recorder appends it to its recording's columns, plus a full
//! state checkpoint every K steps. The ring drops its oldest 8192 rows in
//! one front trim whenever it holds 16384; the full-journal mode differs
//! only in never trimming. The acceptance bound is ≤ 5% steps/s overhead
//! for the default ring settings.
//!
//! Three subjects, each on the default compiled engine (a recorded run
//! takes its design fingerprint from the shared compilation):
//!
//! * the whole benchmark catalogue, aggregated (representative inputs —
//!   short control-dominated runs),
//! * a long GCD run (inputs 99991, 7: tens of thousands of steps of
//!   steady-state loop work), and
//! * `random512`, the E9c 512-place cyclic net (wide concurrent markings,
//!   so the per-step fired/latch deltas are as fat as they get).

use super::compiled_catalog;
use crate::measure::{measure, Measurement};
use crate::table::Table;
use crate::Scale;
use etpn_rec::RecordConfig;
use etpn_sim::{ScriptedEnv, Simulator};
use etpn_workloads::{by_name, cyclic_net};
use std::time::{Duration, Instant};

/// The recorder configuration of each measured arm: arm 0 is the
/// unrecorded baseline, arm 1 the default ring, arm 2 the full journal.
fn mode(arm: usize) -> Option<RecordConfig> {
    match arm {
        0 => None,
        1 => Some(RecordConfig::default()),
        _ => Some(RecordConfig::full(1024)),
    }
}

/// The table row of one subject, measured over the three [`mode`]s.
fn row(subject: String, reps: usize, m: &Measurement) -> [String; 7] {
    [
        subject,
        format!("{reps} pairs"),
        format!("{:.0}", m.rate(0)),
        format!("{:.0}", m.rate(1)),
        format!("{:.0}", m.rate(2)),
        format!("{:+.1}%", (m.ratio(0, 1) - 1.0) * 100.0),
        format!("{:+.1}%", (m.ratio(0, 2) - 1.0) * 100.0),
    ]
}

/// Run E14.
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "E14",
        "flight-recorder overhead: baseline vs ring(8192,1024) vs full(1024)",
        &[
            "subject",
            "reps",
            "baseline /s",
            "ring /s",
            "full /s",
            "ring ovh",
            "full ovh",
        ],
    );
    let reps = scale.n(3, 25);

    // 1. The whole catalogue, aggregated: every workload once per rep, on
    //    its representative inputs.
    let designs = compiled_catalog();
    let m = measure(3, reps, |arm| {
        let mut steps = 0u64;
        let mut total = Duration::ZERO;
        for (w, d) in &designs {
            let mut s = d.simulator(w.env());
            if let Some(cfg) = mode(arm) {
                s = s.with_recorder(cfg);
            }
            let t0 = Instant::now();
            steps += s.run(w.max_steps).expect("workload runs").steps;
            total += t0.elapsed();
        }
        (steps, total)
    });
    table.row(row(format!("catalogue ({})", designs.len()), reps, &m));

    // 2. Long steady-state GCD: per-step cost dominates, setup vanishes.
    let w = by_name("gcd").expect("gcd workload exists");
    let d = etpn_synth::compile_source(&w.source).expect("gcd compiles");
    let m = measure(3, reps, |arm| {
        let env = ScriptedEnv::new()
            .with_stream("a", [99_991])
            .with_stream("b", [7]);
        let mut s = d.simulator(env);
        if let Some(cfg) = mode(arm) {
            s = s.with_recorder(cfg);
        }
        let t0 = Instant::now();
        (s.run(1_000_000).expect("gcd runs").steps, t0.elapsed())
    });
    table.row(row("gcd (long)".to_string(), reps, &m));

    // 3. The E9c 512-place cyclic net: maximally wide per-step deltas.
    let g = cyclic_net(23, 512);
    let budget = scale.n(2_000, 50_000) as u64;
    let m = measure(3, reps, |arm| {
        let mut s = Simulator::new(&g, ScriptedEnv::new());
        if let Some(cfg) = mode(arm) {
            s = s.with_recorder(cfg);
        }
        let t0 = Instant::now();
        (s.run(budget).expect("net runs").steps, t0.elapsed())
    });
    table.row(row("random512".to_string(), reps, &m));

    table.interpret(
        "on the compiled engine appending each step's row is a large share \
         of a sub-microsecond step: the default ring costs more than the 5% \
         always-on budget on every subject, most on the wide random512 net, \
         and the full journal, which never trims, adds allocation growth on \
         the long runs",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e14_measures_all_subjects() {
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 3, "{t:?}");
        for row in &t.rows {
            for cell in &row[2..5] {
                let rate: f64 = cell.parse().unwrap();
                assert!(rate > 0.0, "{row:?}");
            }
            // Overhead cells parse as signed percentages.
            for cell in &row[5..7] {
                let pct: f64 = cell.trim_end_matches('%').parse().unwrap();
                assert!(pct.abs() < 1_000.0, "{row:?}");
            }
        }
    }
}
