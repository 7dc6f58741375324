//! Determinism checking: the empirical content of Def. 3.2.
//!
//! For a *properly designed* system, the intrinsic nondeterminism of the
//! Petri-net firing order must not be observable: every firing policy and
//! seed must yield the same external event structure. This module runs a
//! [`battery`] of policies over one design/environment and reports the
//! first divergence, if any — experiment E10's engine.

use crate::battery::{battery, BatteryGroup, Witness};
use crate::env::Environment;
use crate::error::SimError;
use crate::fleet::{Fleet, SimJob};
use crate::spec::RunSpec;
use etpn_core::{ArcId, Etpn, EtpnBuilder};

/// Result of a determinism battery.
#[derive(Clone, Debug)]
pub enum DeterminismReport {
    /// Every compared run produced the reference's external event
    /// structure.
    Deterministic {
        /// Number of runs compared (including the reference run). Runs
        /// that [`comparable`](crate::battery::comparable) refuses to
        /// compare, because a budget cut them or the reference, are not
        /// counted: when a budget cut every run, `runs` is 1.
        runs: usize,
    },
    /// A run diverged from the reference (maximal-step) run.
    Divergent {
        /// The first divergence.
        witness: Witness,
    },
}

impl DeterminismReport {
    /// True when no divergence was found.
    pub fn is_deterministic(&self) -> bool {
        matches!(self, DeterminismReport::Deterministic { .. })
    }
}

/// Run the design under [`FiringPolicy::MaximalStep`](crate::FiringPolicy)
/// plus `seeds` runs each of the two randomized policies, comparing
/// external event structures.
pub fn check_determinism<E>(
    g: &Etpn,
    env: &E,
    seeds: u64,
    max_steps: u64,
) -> Result<DeterminismReport, SimError>
where
    E: Environment + Clone + Send,
{
    check_determinism_with(g, env, seeds, max_steps, &[])
}

/// [`check_determinism`] with named register reset values applied to every
/// run (compiled designs rely on `reg r = k;` initialisation). The first
/// failed run, the reference first, is the error.
pub fn check_determinism_with<E>(
    g: &Etpn,
    env: &E,
    seeds: u64,
    max_steps: u64,
    reg_inits: &[(String, i64)],
) -> Result<DeterminismReport, SimError>
where
    E: Environment + Clone + Send,
{
    let spec = RunSpec {
        max_steps,
        registers: reg_inits.to_vec(),
        ..RunSpec::default()
    };
    let proto = SimJob::from_spec(g, env.clone(), spec);
    let group = BatteryGroup::policies(&proto, seeds);
    let v = battery(&Fleet::new(0), vec![group]).verdicts.remove(0);
    v.reference?;
    if let Some((_, e)) = v.first_error {
        return Err(e);
    }
    Ok(match v.witness {
        Some(witness) => DeterminismReport::Divergent { witness },
        None => DeterminismReport::Deterministic {
            runs: v.compared + 1,
        },
    })
}

/// A negative control for every policy-invariance check: after a fork,
/// `sa` and `sb` write the constants 1 and 2 into register `r`, which is
/// then emitted on `y`. Def. 3.2(1) rejects it statically, and under
/// [`FiringPolicy::MaximalStep`](crate::FiringPolicy) both writes are open
/// at once: an input conflict.
pub fn register_conflict() -> Etpn {
    let mut b = EtpnBuilder::new();
    let (one, two) = (b.constant(1, "one"), b.constant(2, "two"));
    let r = b.register("r");
    let y = b.output("y");
    let sa = b.connect(b.out_port(one, 0), b.in_port(r, 0));
    let sb = b.connect(b.out_port(two, 0), b.in_port(r, 0));
    let emit = b.connect(b.out_port(r, 0), b.in_port(y, 0));
    fork_join(b, sa, sb, emit)
}

/// A negative control that passes the static Def. 3.2 check, which
/// compares only the vertices parallel states write: after a fork, `sa`
/// loads `r := 2` while `sb` copies `r` into `s`, and `s` is then emitted
/// on `y` (arc a2). Under [`FiringPolicy::MaximalStep`](crate::FiringPolicy)
/// both branches finish in the same step and the copy latches `r` before
/// the load has, so `y` sees `⊥`; an interleaving that finishes `sa` while
/// `sb` is still active makes `y` see 2.
pub fn read_write_race() -> Etpn {
    let mut b = EtpnBuilder::new();
    let two = b.constant(2, "two");
    let (r, s) = (b.register("r"), b.register("s"));
    let y = b.output("y");
    let load = b.connect(b.out_port(two, 0), b.in_port(r, 0));
    let copy = b.connect(b.out_port(r, 0), b.in_port(s, 0));
    let emit = b.connect(b.out_port(s, 0), b.in_port(y, 0));
    fork_join(b, load, copy, emit)
}

/// The controls' shared control net: `s0` forks into `sa` and `sb`, which
/// open `in_sa` and `in_sb` and take one more step each before joining
/// into `se`, which opens `emit`.
fn fork_join(mut b: EtpnBuilder, in_sa: ArcId, in_sb: ArcId, emit: ArcId) -> Etpn {
    let [s0, sa, sb, sa2, sb2, se, end] =
        ["s0", "sa", "sb", "sa2", "sb2", "se", "end"].map(|name| b.place(name));
    b.control(sa, [in_sa]);
    b.control(sb, [in_sb]);
    b.control(se, [emit]);
    let fork = b.transition("fork");
    b.flow_st(s0, fork);
    b.flow_ts(fork, sa);
    b.flow_ts(fork, sb);
    b.seq(sa, sa2, "ta");
    b.seq(sb, sb2, "tb");
    let join = b.transition("join");
    b.flow_st(sa2, join);
    b.flow_st(sb2, join);
    b.flow_ts(join, se);
    b.seq(se, end, "te");
    let fin = b.transition("fin");
    b.flow_st(end, fin);
    b.mark(s0);
    b.finish().expect("the control designs are well formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ScriptedEnv;
    use etpn_core::Op;

    /// A properly designed fork/join pipeline: two independent computations.
    fn proper_parallel() -> Etpn {
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let negx = b.operator(Op::Neg, 1, "negx");
        let dbl = b.operator(Op::Add, 2, "dbl");
        let rx = b.register("rx");
        let ry = b.register("ry");
        let ox = b.output("ox");
        let oy = b.output("oy");
        let ax0 = b.connect(b.out_port(x, 0), b.in_port(negx, 0));
        let ax1 = b.connect(b.out_port(negx, 0), b.in_port(rx, 0));
        let ay0 = b.connect(b.out_port(y, 0), b.in_port(dbl, 0));
        let ay1 = b.connect(b.out_port(y, 0), b.in_port(dbl, 1));
        let ay2 = b.connect(b.out_port(dbl, 0), b.in_port(ry, 0));
        let ex = b.connect(b.out_port(rx, 0), b.in_port(ox, 0));
        let ey = b.connect(b.out_port(ry, 0), b.in_port(oy, 0));
        let s0 = b.place("s0");
        let sx = b.place("sx");
        let sy = b.place("sy");
        let sx2 = b.place("sx2");
        let sy2 = b.place("sy2");
        let s_end = b.place("end");
        b.control(sx, [ax0, ax1]);
        b.control(sy, [ay0, ay1, ay2]);
        b.control(sx2, [ex]);
        b.control(sy2, [ey]);
        let tf = b.transition("fork");
        b.flow_st(s0, tf);
        b.flow_ts(tf, sx);
        b.flow_ts(tf, sy);
        b.seq(sx, sx2, "tx");
        b.seq(sy, sy2, "ty");
        let tj = b.transition("join");
        b.flow_st(sx2, tj);
        b.flow_st(sy2, tj);
        b.flow_ts(tj, s_end);
        let tf2 = b.transition("fin");
        b.flow_st(s_end, tf2);
        b.mark(s0);
        b.finish().unwrap()
    }

    #[test]
    fn proper_design_is_deterministic() {
        let g = proper_parallel();
        let env = ScriptedEnv::new()
            .with_stream("x", [3])
            .with_stream("y", [4]);
        let report = check_determinism(&g, &env, 6, 100).unwrap();
        assert!(report.is_deterministic(), "{report:?}");
        if let DeterminismReport::Deterministic { runs } = report {
            assert_eq!(runs, 13);
        }
        let trace = crate::Simulator::new(&g, env).run(100).unwrap();
        let structure = crate::event_structure(&g, &trace);
        assert_eq!(structure.event_count(), 5); // ax0, ay0, ay1, ex, ey
    }

    #[test]
    fn improper_design_diverges_or_conflicts() {
        let g = register_conflict();
        let env = ScriptedEnv::new();
        // Under the maximal-step policy both writes are simultaneously open:
        // an input conflict. Under interleavings the winner flips. Either
        // way the battery must NOT report clean determinism.
        match check_determinism(&g, &env, 8, 100) {
            Err(SimError::InputConflict { .. }) => {}
            Ok(report) => assert!(!report.is_deterministic(), "{report:?}"),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn read_write_race_has_a_typed_witness() {
        let g = read_write_race();
        let report = check_determinism(&g, &ScriptedEnv::new(), 4, 100).unwrap();
        let DeterminismReport::Divergent { witness } = report else {
            panic!("the race must diverge: {report:?}");
        };
        assert_eq!(
            witness,
            Witness {
                job: 6,
                reference: crate::FiringPolicy::MaximalStep,
                compared: crate::FiringPolicy::SingleRandom { seed: 2 },
                diff: etpn_core::StructureDiff::Event {
                    arc: etpn_core::ArcId::new(2),
                    k: 0,
                    lhs: Some(etpn_core::Value::Undef),
                    rhs: Some(etpn_core::Value::Def(2)),
                },
            }
        );
        assert_eq!(
            witness.render(&g),
            "MaximalStep vs SingleRandom { seed: 2 } (job 6): value sequences on arc a2 \
             (p5 of `y`) differ at event 0: ⊥ vs 2"
        );
    }
}
