//! Trace- and structure-level comparison helpers.
//!
//! The decidable transformations of `etpn-transform` *guarantee* semantic
//! equivalence (Thms. 4.1/4.2); these helpers provide the empirical side —
//! run two designs against the same environment and compare what the
//! environment saw. Used by the randomized oracle of experiments E1/E2.

use crate::trace::Trace;
use etpn_core::{ArcId, Etpn, EventStructure, Value};
use std::collections::BTreeMap;

/// The per-external-arc value sequences of a trace, keyed for comparison.
///
/// This is the *functional* half of semantic equivalence: "the functional
/// relationship between each output variable and its relevant input
/// variables must be the same" (paper §1).
pub fn arc_value_map(trace: &Trace) -> BTreeMap<ArcId, Vec<Value>> {
    let mut map: BTreeMap<ArcId, Vec<Value>> = BTreeMap::new();
    for e in &trace.events {
        map.entry(e.arc).or_default().push(e.value);
    }
    map
}

/// Outcome of comparing two observations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EquivalenceVerdict {
    /// No difference found.
    Equivalent,
    /// A difference, with a human-readable description.
    Different(String),
}

impl EquivalenceVerdict {
    /// True for [`EquivalenceVerdict::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivalenceVerdict::Equivalent)
    }
}

/// Compare the value sequences two traces produced on corresponding arcs.
///
/// `arc_map` translates an arc id of the first design into the
/// corresponding arc id of the second (identity for data-invariant
/// transformations, which never touch the data path).
pub fn compare_values(
    lhs: &Trace,
    rhs: &Trace,
    mut arc_map: impl FnMut(ArcId) -> ArcId,
) -> EquivalenceVerdict {
    let l = arc_value_map(lhs);
    let r = arc_value_map(rhs);
    let mut r_seen: Vec<ArcId> = Vec::new();
    for (arc, lv) in &l {
        let target = arc_map(*arc);
        r_seen.push(target);
        let rv = r.get(&target).cloned().unwrap_or_default();
        if *lv != rv {
            return EquivalenceVerdict::Different(format!(
                "arc {arc}→{target}: lhs {lv:?} vs rhs {rv:?}"
            ));
        }
    }
    for (arc, rv) in &r {
        if !r_seen.contains(arc) && !rv.is_empty() {
            return EquivalenceVerdict::Different(format!(
                "arc {arc}: rhs has {} events, lhs none",
                rv.len()
            ));
        }
    }
    EquivalenceVerdict::Equivalent
}

/// Compare two full external event structures (Def. 4.1 equivalence on the
/// observed prefix).
pub fn compare_structures(lhs: &EventStructure, rhs: &EventStructure) -> EquivalenceVerdict {
    match lhs.first_difference(rhs) {
        None => EquivalenceVerdict::Equivalent,
        Some(d) => EquivalenceVerdict::Different(d),
    }
}

/// Run both designs against clones of the same environment and compare
/// their external event structures. Both must use the deterministic policy
/// for a meaningful structural comparison.
pub fn observationally_equal<E>(
    g1: &Etpn,
    g2: &Etpn,
    env: &E,
    max_steps: u64,
) -> Result<EquivalenceVerdict, crate::error::SimError>
where
    E: crate::env::Environment + Clone,
{
    let t1 = crate::engine::Simulator::new(g1, env.clone()).run(max_steps)?;
    let t2 = crate::engine::Simulator::new(g2, env.clone()).run(max_steps)?;
    let s1 = crate::extract::event_structure(g1, &t1);
    let s2 = crate::extract::event_structure(g2, &t2);
    Ok(compare_structures(&s1, &s2))
}

/// [`observationally_equal`] over many environments at once, batched
/// through a [`crate::fleet::Fleet`]: one verdict per environment, in
/// order. Both designs run under the deterministic policy on the fleet's
/// default backend.
pub fn observational_sweep<E>(
    fleet: &crate::fleet::Fleet,
    g1: &Etpn,
    g2: &Etpn,
    envs: &[E],
    max_steps: u64,
) -> Result<Vec<EquivalenceVerdict>, crate::error::SimError>
where
    E: crate::env::Environment + Clone + Send,
{
    use crate::{fleet::SimJob, spec::RunSpec};
    let spec = RunSpec {
        max_steps,
        ..RunSpec::default()
    };
    let jobs: Vec<SimJob<E>> = envs
        .iter()
        .flat_map(|env| {
            [
                SimJob::from_spec(g1, env.clone(), spec.clone()),
                SimJob::from_spec(g2, env.clone(), spec.clone()),
            ]
        })
        .collect();
    let batch = fleet.run_batch(jobs);
    let mut verdicts = Vec::with_capacity(envs.len());
    let mut results = batch.results.into_iter();
    while let (Some(r1), Some(r2)) = (results.next(), results.next()) {
        let (t1, t2) = (r1?, r2?);
        let s1 = crate::extract::event_structure(g1, &t1);
        let s2 = crate::extract::event_structure(g2, &t2);
        verdicts.push(compare_structures(&s1, &s2));
    }
    Ok(verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etpn_core::{ExternalEvent, PlaceId};

    fn trace_with(values: &[(u32, i64, u64)]) -> Trace {
        Trace {
            events: values
                .iter()
                .map(|&(arc, v, step)| ExternalEvent {
                    arc: ArcId::new(arc),
                    value: Value::Def(v),
                    place: PlaceId::new(0),
                    step,
                })
                .collect(),
            steps: 10,
            firings: 10,
            termination: crate::trace::Termination::Terminated,
            watch: Vec::new(),
            watched: Vec::new(),
            marking_rows: Vec::new(),
            guard_ports: Vec::new(),
            guard_rows: Vec::new(),
            cov: None,
            fire_counts: Vec::new(),
            exit_counts: Vec::new(),
            recording: None,
            work: Default::default(),
        }
    }

    #[test]
    fn identical_traces_compare_equal() {
        let t = trace_with(&[(0, 1, 0), (1, 2, 1)]);
        assert!(compare_values(&t, &t, |a| a).is_equivalent());
    }

    #[test]
    fn value_difference_detected() {
        let t1 = trace_with(&[(0, 1, 0)]);
        let t2 = trace_with(&[(0, 9, 0)]);
        let v = compare_values(&t1, &t2, |a| a);
        assert!(!v.is_equivalent());
    }

    #[test]
    fn missing_rhs_events_detected() {
        let t1 = trace_with(&[]);
        let t2 = trace_with(&[(3, 1, 0)]);
        let v = compare_values(&t1, &t2, |a| a);
        assert!(!v.is_equivalent(), "{v:?}");
    }

    #[test]
    fn arc_mapping_applied() {
        let t1 = trace_with(&[(0, 7, 0)]);
        let t2 = trace_with(&[(5, 7, 0)]);
        let v = compare_values(&t1, &t2, |_| ArcId::new(5));
        assert!(v.is_equivalent());
    }

    #[test]
    fn sweep_matches_pairwise_comparison() {
        use crate::env::ScriptedEnv;
        use crate::fleet::Fleet;
        use etpn_core::{EtpnBuilder, Op};

        // A design compared against itself is equivalent for any environment.
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let neg = b.operator(Op::Neg, 1, "neg");
        let r = b.register("r");
        let y = b.output("y");
        let a0 = b.connect(b.out_port(x, 0), b.in_port(neg, 0));
        let a1 = b.connect(b.out_port(neg, 0), b.in_port(r, 0));
        let a2 = b.connect(b.out_port(r, 0), b.in_port(y, 0));
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        let s2 = b.place("s2");
        b.control(s0, [a0, a1]);
        b.control(s1, [a2]);
        b.seq(s0, s1, "t0");
        b.seq(s1, s2, "t1");
        let fin = b.transition("fin");
        b.flow_st(s2, fin);
        b.mark(s0);
        let g = b.finish().unwrap();

        let envs: Vec<ScriptedEnv> = (0..5)
            .map(|i| ScriptedEnv::new().with_stream("x", [i, i + 1]))
            .collect();
        let fleet = Fleet::new(2);
        let verdicts = observational_sweep(&fleet, &g, &g, &envs, 50).unwrap();
        assert_eq!(verdicts.len(), 5);
        assert!(verdicts.iter().all(EquivalenceVerdict::is_equivalent));
    }

    #[test]
    fn timing_differences_are_ignored_by_value_comparison() {
        // Same values at different steps: the functional half agrees.
        let t1 = trace_with(&[(0, 1, 0), (0, 2, 1)]);
        let t2 = trace_with(&[(0, 1, 5), (0, 2, 9)]);
        assert!(compare_values(&t1, &t2, |a| a).is_equivalent());
    }
}
