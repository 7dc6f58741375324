//! A compiled step costs O(activity), not O(design size). Two nets share
//! one live region, a ring of 1 024 places that each load their own
//! register from a shared constant; the padded one puts 15 never-marked
//! places after every live one (16 384 places), each controlling its own
//! register load. With O(1) termination, safeness and conflict checks the
//! padded ring steps within a small factor of the plain one; a per-step
//! scan over places or ports makes it about 16× slower. Wall time is
//! noisy on a shared host, so the arms are interleaved over rounds and
//! each keeps its best. The count form needs no timing: over the same
//! steps both rings evaluate exactly the same ports.

use etpn_core::{Etpn, EtpnBuilder};
use etpn_sim::{ScriptedEnv, Simulator};
use std::time::{Duration, Instant};

const LIVE: usize = 1024;

/// The ring of `LIVE` places with `pad` dead places after each live one.
fn ring(pad: usize) -> Etpn {
    let mut b = EtpnBuilder::new();
    let k = b.constant(1, "k1");
    let mut live = Vec::with_capacity(LIVE);
    for i in 0..LIVE * (pad + 1) {
        let r = b.register(format!("r{i}"));
        let a = b.connect(b.out_port(k, 0), b.in_port(r, 0));
        let s = b.place(format!("s{i}"));
        b.control(s, [a]);
        if i % (pad + 1) == 0 {
            live.push(s);
        }
    }
    for i in 0..LIVE {
        b.seq(live[i], live[(i + 1) % LIVE], format!("t{i}"));
    }
    b.mark(live[0]);
    b.finish().expect("the ring is a valid net")
}

/// Step `sim` `n` times and return the mean time per step.
fn time_per_step(sim: &mut Simulator<'_, ScriptedEnv>, n: u32) -> Duration {
    let t0 = Instant::now();
    for _ in 0..n {
        let fired = sim.step_once().expect("the ring steps cleanly");
        assert_eq!(fired, Some(1), "the ring moves its one token every step");
    }
    t0.elapsed() / n
}

#[test]
fn dead_places_do_not_slow_compiled_steps() {
    let (plain, padded) = (ring(0), ring(15));
    assert_eq!(padded.ctl.places().len(), 16 * LIVE);
    let mut sims = [&plain, &padded].map(|g| {
        let mut sim = Simulator::new(g, ScriptedEnv::new()).with_coverage();
        time_per_step(&mut sim, 2_000);
        sim
    });
    let mut best = [Duration::MAX; 2];
    for _ in 0..3 {
        for (arm, sim) in sims.iter_mut().enumerate() {
            best[arm] = best[arm].min(time_per_step(sim, 5_000));
        }
    }
    let ratio = best[1].as_secs_f64() / best[0].as_secs_f64();
    assert!(
        ratio < 4.0,
        "16× padding slowed each step {ratio:.1}× ({:?} vs {:?}); steps must cost O(activity)",
        best[1],
        best[0]
    );
}

#[test]
fn dead_places_add_no_counted_work() {
    let (plain, padded) = (ring(0), ring(15));
    let [plain_work, padded_work] = [&plain, &padded].map(|g| {
        let mut sim = Simulator::new(g, ScriptedEnv::new()).with_coverage();
        time_per_step(&mut sim, 2_000);
        let before = sim.work();
        time_per_step(&mut sim, 5_000);
        let after = sim.work();
        [
            after.evaluations - before.evaluations,
            after.port_evals - before.port_evals,
            after.full_walks - before.full_walks,
        ]
    });
    assert_eq!(
        padded_work, plain_work,
        "[evaluations, port_evals, full_walks] over 5 000 steps: padding added work"
    );
    assert_eq!(
        plain_work[2], 0,
        "steady-state steps never take a full walk"
    );
}
