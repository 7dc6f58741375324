//! Determinism checking: the empirical content of Def. 3.2.
//!
//! For a *properly designed* system, the intrinsic nondeterminism of the
//! Petri-net firing order must not be observable: every firing policy and
//! seed must yield the same external event structure. This module runs a
//! battery of policies over one design/environment and reports the first
//! divergence, if any — experiment E10's engine.
//!
//! The battery executes as one [`Fleet`] batch: the runs spread over the
//! fleet's workers and share the design's one compilation.

use crate::env::Environment;
use crate::equiv::compare_structures;
use crate::error::SimError;
use crate::extract::event_structure_with;
use crate::fleet::{Fleet, SimJob};
use crate::policy::FiringPolicy;
use crate::spec::RunSpec;
use etpn_core::{ControlRelations, Etpn, EventStructure};

/// Result of a determinism battery.
#[derive(Clone, Debug)]
pub enum DeterminismReport {
    /// All runs produced the same external event structure.
    Deterministic {
        /// Number of runs compared (including the reference run).
        runs: usize,
        /// The agreed structure.
        structure: EventStructure,
    },
    /// A run diverged from the reference (maximal-step) run.
    Divergent {
        /// The policy that diverged.
        policy: FiringPolicy,
        /// Description of the first difference.
        difference: String,
    },
}

impl DeterminismReport {
    /// True when no divergence was found.
    pub fn is_deterministic(&self) -> bool {
        matches!(self, DeterminismReport::Deterministic { .. })
    }
}

/// Run the design under [`FiringPolicy::MaximalStep`] plus `seeds` runs each
/// of the two randomized policies, comparing external event structures.
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
/// run (compiled designs rely on `reg r = k;` initialisation).
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
    let rel = ControlRelations::compute(&g.ctl);
    let policies = FiringPolicy::battery(seeds);
    let jobs: Vec<SimJob<E>> = policies
        .iter()
        .map(|&policy| {
            let spec = RunSpec {
                policy,
                max_steps,
                registers: reg_inits.to_vec(),
                ..RunSpec::default()
            };
            SimJob::from_spec(g, env.clone(), spec)
        })
        .collect();
    let batch = Fleet::new(0).run_batch(jobs);

    let mut results = batch.results.into_iter();
    let reference = results
        .next()
        .expect("battery contains the reference run")?;
    let ref_structure = event_structure_with(&rel, &reference);
    let mut runs = 1usize;
    for (&policy, result) in policies[1..].iter().zip(results) {
        let trace = result?;
        let structure = event_structure_with(&rel, &trace);
        runs += 1;
        let verdict = compare_structures(&ref_structure, &structure);
        if let crate::equiv::EquivalenceVerdict::Different(difference) = verdict {
            return Ok(DeterminismReport::Divergent { policy, difference });
        }
    }
    Ok(DeterminismReport::Deterministic {
        runs,
        structure: ref_structure,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ScriptedEnv;
    use etpn_core::{EtpnBuilder, Op};

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
        if let DeterminismReport::Deterministic { runs, structure } = report {
            assert_eq!(runs, 13);
            assert_eq!(structure.event_count(), 5); // ax0, ay0, ay1, ex, ey
        }
    }

    /// An *improperly* designed system: two parallel states write the same
    /// register through the same input port — a structural conflict whose
    /// winner depends on firing order.
    fn improper_shared_register() -> Etpn {
        let mut b = EtpnBuilder::new();
        let c1 = b.constant(1, "one");
        let c2 = b.constant(2, "two");
        let r = b.register("r");
        let mux_like = b.operator(Op::Pass, 1, "pass1");
        let pass2 = b.operator(Op::Pass, 1, "pass2");
        let y = b.output("y");
        let a1 = b.connect(b.out_port(c1, 0), b.in_port(mux_like, 0));
        let a1b = b.connect(b.out_port(mux_like, 0), b.in_port(r, 0));
        let a2 = b.connect(b.out_port(c2, 0), b.in_port(pass2, 0));
        let a2b = b.connect(b.out_port(pass2, 0), b.in_port(r, 0));
        let emit = b.connect(b.out_port(r, 0), b.in_port(y, 0));
        let s0 = b.place("s0");
        let sa = b.place("sa");
        let sb = b.place("sb");
        let sa2 = b.place("sa2");
        let sb2 = b.place("sb2");
        let s_emit = b.place("s_emit");
        let s_end = b.place("end");
        b.control(sa, [a1, a1b]);
        b.control(sb, [a2, a2b]);
        b.control(s_emit, [emit]);
        let tf = b.transition("fork");
        b.flow_st(s0, tf);
        b.flow_ts(tf, sa);
        b.flow_ts(tf, sb);
        b.seq(sa, sa2, "ta");
        b.seq(sb, sb2, "tb");
        let tj = b.transition("join");
        b.flow_st(sa2, tj);
        b.flow_st(sb2, tj);
        b.flow_ts(tj, s_emit);
        b.seq(s_emit, s_end, "te");
        let fin = b.transition("fin");
        b.flow_st(s_end, fin);
        b.mark(s0);
        b.finish().unwrap()
    }

    #[test]
    fn improper_design_diverges_or_conflicts() {
        let g = improper_shared_register();
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
}
