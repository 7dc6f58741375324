//! **E13 — coverage saturation and collection overhead.**
//!
//! Two questions about the `etpn-cov` subsystem:
//!
//! 1. *Saturation*: how many policy seeds does each workload need before
//!    consecutive batches stop adding coverage, and what do the saturated
//!    place/transition percentages look like once `etpn-lint`'s
//!    statically-dead fixpoint is folded out of the denominators?
//! 2. *Overhead*: what does `with_coverage` cost per step on long GCD
//!    runs and on the 1024-place cyclic net, both on the compiled engine?
//!    The acceptance bound is ≤ 5%. On an incremental step collection
//!    reads only the ports whose value changed and the arcs that opened;
//!    after a full evaluation walk (the first step, resyncs) it is one
//!    word-parallel arc-set OR plus one value check per not-yet-toggled
//!    output port. Either way guard outcomes cost one mask test per
//!    enabled guarded transition, and the per-place/-transition counters
//!    are absorbed from the engine's existing counts at run end.

use crate::measure::{measure, Measurement};
use crate::table::Table;
use crate::Scale;
use etpn_cov::{report, StaticDead};
use etpn_sim::{Fleet, RunSpec, SaturationConfig, SimJob, Simulator};
use etpn_workloads::{by_name, cyclic_net};
use std::time::Instant;

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
        let spec = RunSpec {
            max_steps: w.max_steps,
            registers: d.reg_inits.clone(),
            ..RunSpec::default()
        };
        let outcome = Fleet::new(0).run_saturation(SimJob::from_spec(&d.etpn, w.env(), spec), cfg);
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

    // Collection overhead: repeated GCD runs without (arm 0) and with
    // (arm 1) the collector attached. The inputs (99991, 7) force tens of
    // thousands of subtraction steps per run, so the timed window is
    // steady-state per-step work, not per-run setup inside the noise
    // floor.
    let w = by_name("gcd").expect("gcd workload exists");
    let d = etpn_synth::compile_source(&w.source).expect("gcd compiles");
    let reps = scale.n(3, 25);
    let gcd = measure(2, reps, |arm| {
        let env = etpn_sim::ScriptedEnv::new()
            .with_stream("a", [99_991])
            .with_stream("b", [7]);
        let mut sim = d.simulator(env);
        if arm == 1 {
            sim = sim.with_coverage();
        }
        let t0 = Instant::now();
        let steps = sim.run(1_000_000).expect("gcd runs").steps;
        (steps, t0.elapsed())
    });
    table.row(overhead_row("gcd overhead", reps, &gcd));

    // The same on a large net, where a step touches a handful of ports
    // out of thousands: the E9c 1024-place cyclic net, where event-driven
    // collection matters most.
    let net = cyclic_net(23, 1024);
    let budget = scale.n(8_192, 65_536) as u64;
    let big = measure(2, reps, |arm| {
        let mut sim = Simulator::new(&net, etpn_sim::ScriptedEnv::new());
        if arm == 1 {
            sim = sim.with_coverage();
        }
        let t0 = Instant::now();
        let steps = sim.run(budget).expect("random1024 runs").steps;
        (steps, t0.elapsed())
    });
    table.row(overhead_row("random1024 overhead", reps, &big));
    table.interpret(
        "every workload saturates place/transition/arc/guard coverage from \
         a handful of policy seeds once statically-dead items leave the \
         denominator; on the compiled engine's fast steps run-attached \
         collection costs several percent, above the 5% bound in most runs",
    );
    table
}

/// The table row of one subject's collection overhead: arm 0 runs
/// without coverage, arm 1 with it.
fn overhead_row(label: &str, reps: usize, m: &Measurement) -> [String; 7] {
    [
        label.to_string(),
        format!("{reps} pairs"),
        "-".to_string(),
        format!("{:.0}/s", m.rate(0)),
        format!("{:.0}/s", m.rate(1)),
        format!("{:+.1}%", (m.ratio(0, 1) - 1.0) * 100.0),
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
