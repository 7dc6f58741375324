//! The policy battery: one verdict for "does every run agree with its
//! reference?" — Def. 3.2 across firing policies, Def. 4.1 across designs.
//!
//! [`battery`] runs groups of one reference job and the jobs compared with
//! it as one [`Fleet`] batch, compares each run's external event structure
//! (Def. 3.5) with its reference's, and returns a [`BatteryVerdict`] per
//! group whose [`Witness`] names the first event that differed and the two
//! policies it differed under. `etpnc run --jobs`, etpnd's `/v1/check`,
//! [`crate::check_determinism`] and the transform crate's semantic oracle
//! each map this verdict to their own output. [`comparable`] is the one
//! rule for which runs a budget cut can be compared; fault campaigns ask
//! it too.

use crate::env::Environment;
use crate::error::SimError;
use crate::extract::event_structure_with;
use crate::fleet::{Fleet, FleetStats, SimJob};
use crate::policy::FiringPolicy;
use crate::trace::{Termination, Trace};
use etpn_core::{ArcId, ControlRelations, Etpn, EventStructure, StructureDiff};
use etpn_cov::CovDb;

/// One reference job and the jobs compared with it.
pub struct BatteryGroup<'g, E: Environment> {
    /// The job every other job of the group is compared with.
    pub reference: SimJob<'g, E>,
    /// The compared jobs, in job order.
    pub compared: Vec<SimJob<'g, E>>,
}

impl<'g, E: Environment + Clone> BatteryGroup<'g, E> {
    /// The Def. 3.2 battery over `proto`'s design and environment: `proto`
    /// under every policy of [`FiringPolicy::battery`]`(seeds)`, the
    /// deterministic one as the reference.
    pub fn policies(proto: &SimJob<'g, E>, seeds: u64) -> Self {
        let mut jobs = FiringPolicy::battery(seeds).into_iter().map(|policy| {
            let mut job = proto.clone();
            job.spec.policy = policy;
            job
        });
        let reference = jobs.next().expect("a battery starts with its reference");
        Self {
            reference,
            compared: jobs.collect(),
        }
    }
}

/// The first divergence a battery found, in the terms of Defs. 3.3–3.6.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Witness {
    /// The diverging job's position in its group: the reference is job 0,
    /// compared jobs count from 1.
    pub job: usize,
    /// The reference job's policy (the difference's left-hand side).
    pub reference: FiringPolicy,
    /// The diverging job's policy (the right-hand side).
    pub compared: FiringPolicy,
    /// What differed.
    pub diff: StructureDiff,
}

impl Witness {
    /// The witness in words, reference first, naming each external arc by
    /// the port of the external vertex it connects.
    pub fn render(&self, g: &Etpn) -> String {
        let [reference, compared] = [self.reference, self.compared].map(|p| format!("{p:?}"));
        let diff = self
            .diff
            .describe(|a| arc_name(g, a), [&reference, &compared]);
        format!("{reference} vs {compared} (job {}): {diff}", self.job)
    }
}

/// ``a2 (p7 of `y`)``: an external arc with its external vertex's port.
fn arc_name(g: &Etpn, arc: ArcId) -> String {
    match g.dp.external_port(arc) {
        Some(p) => format!("{arc} ({p} of `{}`)", g.dp.vertex(g.dp.port(p).vertex).name),
        None => arc.to_string(),
    }
}

/// Whether two runs' external event structures can be compared, given how
/// each run ended and whether the two share design, firing policy and step
/// budget (`same_cut`). Defs. 3.2 and 4.1 compare whole runs; a run a
/// budget cut observed only a prefix, and a prefix compares only with one
/// cut at the same point of the same behaviour:
///
/// * a run that ended on its own (terminated, quiescent or deadlocked) is
///   comparable;
/// * a run its wall budget cut is never comparable, not even with itself,
///   because the step the cut falls on depends on the host;
/// * a run its step budget cut is comparable only when `same_cut` holds,
///   because then that budget cuts both at the same point of one behaviour.
pub fn comparable(a: Termination, b: Termination, same_cut: bool) -> bool {
    match (a, b) {
        (Termination::Budget, _) | (_, Termination::Budget) => false,
        (Termination::StepLimit, _) | (_, Termination::StepLimit) => same_cut,
        _ => true,
    }
}

/// One group's outcome.
#[derive(Clone, Debug)]
pub struct BatteryVerdict {
    /// The reference job's result. When it failed, nothing was compared
    /// and every count is 0.
    pub reference: Result<Trace, SimError>,
    /// Compared runs whose structure was checked against the reference.
    pub compared: usize,
    /// Of those, the runs whose structure differs from the reference's.
    pub divergent: usize,
    /// Compared runs that [`comparable`] refuses to compare with the
    /// reference, because a budget cut one of them: a truncated structure
    /// would report a spurious divergence.
    pub cut: usize,
    /// Compared runs that ended in an error.
    pub failed: usize,
    /// Of `failed`, the runs that panicked on every retry.
    pub panicked: usize,
    /// The first failed compared job: its position (as in
    /// [`Witness::job`]) and its error.
    pub first_error: Option<(usize, SimError)>,
    /// The first divergence in job order.
    pub witness: Option<Witness>,
}

/// A whole battery: one verdict per group, plus what the batch reports.
#[derive(Clone, Debug)]
pub struct BatteryRun {
    /// One verdict per group, in group order.
    pub verdicts: Vec<BatteryVerdict>,
    /// The batch's scheduling statistics.
    pub stats: FleetStats,
    /// Coverage merged over every job (see
    /// [`FleetBatch::coverage`](crate::fleet::FleetBatch::coverage)).
    pub coverage: Option<CovDb>,
}

/// Run every group's jobs as one `fleet` batch and compare each compared
/// run's external event structure with its group's reference's. Control
/// relations are computed once per design.
pub fn battery<'g, E>(fleet: &Fleet, groups: Vec<BatteryGroup<'g, E>>) -> BatteryRun
where
    E: Environment + Clone + Send,
{
    // The batch consumes the jobs: keep each one's design, policy and step
    // budget.
    let mut designs: Vec<(&Etpn, ControlRelations)> = Vec::new();
    let (mut sizes, mut jobs, mut shape) = (Vec::new(), Vec::new(), Vec::new());
    for group in groups {
        sizes.push(group.compared.len());
        for job in std::iter::once(group.reference).chain(group.compared) {
            let g = job.design();
            let d = designs.iter().position(|(d, _)| std::ptr::eq(*d, g));
            let d = d.unwrap_or_else(|| {
                designs.push((g, ControlRelations::compute(&g.ctl)));
                designs.len() - 1
            });
            shape.push((d, job.spec.policy, job.spec.max_steps));
            jobs.push(job);
        }
    }
    let batch = fleet.run_batch(jobs);
    let structure = |d: usize, t: &Trace| event_structure_with(&designs[d].1, t);

    let mut results = batch.results.into_iter().zip(shape);
    let mut verdicts = Vec::with_capacity(sizes.len());
    for n in sizes {
        let (reference, ref_shape) = results.next().expect("one result per job");
        let mut v = BatteryVerdict {
            reference,
            compared: 0,
            divergent: 0,
            cut: 0,
            failed: 0,
            panicked: 0,
            first_error: None,
            witness: None,
        };
        let mut ref_structure = None;
        for (job, (result, shape)) in (1..=n).zip(results.by_ref()) {
            let Ok(r) = &v.reference else {
                continue;
            };
            match result {
                Ok(t) if !comparable(r.termination, t.termination, shape == ref_shape) => {
                    v.cut += 1;
                }
                Ok(t) => {
                    v.compared += 1;
                    let ref_structure =
                        ref_structure.get_or_insert_with(|| structure(ref_shape.0, r));
                    if let Some(diff) = ref_structure.first_difference(&structure(shape.0, &t)) {
                        v.divergent += 1;
                        v.witness.get_or_insert(Witness {
                            job,
                            reference: ref_shape.1,
                            compared: shape.1,
                            diff,
                        });
                    }
                }
                Err(e) => {
                    v.failed += 1;
                    v.panicked += usize::from(matches!(e, SimError::Panicked { .. }));
                    v.first_error.get_or_insert((job, e));
                }
            }
        }
        verdicts.push(v);
    }
    BatteryRun {
        verdicts,
        stats: batch.stats,
        coverage: batch.coverage,
    }
}

// Kept only because `perfbench/src/battery.rs` calls
// `compare_structures(..).is_equivalent()`; delete both with that call.

#[doc(hidden)]
pub struct EquivalenceVerdict(pub Option<StructureDiff>);

impl EquivalenceVerdict {
    #[doc(hidden)]
    pub fn is_equivalent(&self) -> bool {
        self.0.is_none()
    }
}

#[doc(hidden)]
#[deprecated(note = "perfbench only; use EventStructure::first_difference")]
pub fn compare_structures(lhs: &EventStructure, rhs: &EventStructure) -> EquivalenceVerdict {
    EquivalenceVerdict(lhs.first_difference(rhs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ScriptedEnv;
    use etpn_core::{EtpnBuilder, EventKey, Op};

    /// `s0` reads `x` through `op` into `r`, `s1` emits `r` on `y`: external
    /// arcs a0 (from `x`) and a2 (into `y`).
    fn unary(op: Op) -> Etpn {
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let f = b.operator(op, 1, "f");
        let r = b.register("r");
        let y = b.output("y");
        let a0 = b.connect(b.out_port(x, 0), b.in_port(f, 0));
        let a1 = b.connect(b.out_port(f, 0), b.in_port(r, 0));
        let a2 = b.connect(b.out_port(r, 0), b.in_port(y, 0));
        let s = b.serial_chain(3, "s");
        b.control(s[0], [a0, a1]);
        b.control(s[1], [a2]);
        let fin = b.transition("fin");
        b.flow_st(s[2], fin);
        b.finish().unwrap()
    }

    fn env() -> ScriptedEnv {
        ScriptedEnv::new().with_stream("x", [3])
    }

    #[test]
    fn groups_share_one_batch_and_keep_their_own_verdicts() {
        let (neg, pass) = (unary(Op::Neg), unary(Op::Pass));
        let job = |g| SimJob::new(g, env());
        let groups = vec![
            BatteryGroup::policies(&job(&neg), 2),
            BatteryGroup {
                reference: job(&neg),
                compared: vec![job(&neg), job(&pass)],
            },
        ];
        let run = battery(&Fleet::new(2), groups);
        assert_eq!(run.stats.jobs, 5 + 3);
        let [same, other] = &run.verdicts[..] else {
            panic!("one verdict per group: {:?}", run.verdicts);
        };
        assert_eq!((same.compared, same.divergent, same.witness), (4, 0, None));
        assert_eq!((other.compared, other.divergent), (2, 1));
        let w = other.witness.expect("Pass emits 3 where Neg emits -3");
        assert_eq!(
            w.render(&neg),
            "MaximalStep vs MaximalStep (job 2): value sequences on arc a2 (p5 of `y`) \
             differ at event 0: -3 vs 3"
        );
    }

    #[test]
    fn cut_and_failed_runs_are_counted_not_compared() {
        let g = unary(Op::Neg);
        let job = |env| SimJob::new(&g, env);
        let mut cut = job(env());
        cut.spec.wall_budget = Some(std::time::Duration::ZERO);
        let mut strict = job(ScriptedEnv::new());
        strict.spec.strict_inputs = true;
        // One step reads `x` but does not yet emit `y`.
        let mut short = job(env());
        short.spec.max_steps = 1;
        let mut short_random = short.clone();
        short_random.spec.policy = FiringPolicy::SingleRandom { seed: 0 };
        let groups = vec![
            BatteryGroup {
                reference: job(env()),
                compared: vec![cut.clone(), job(env()), strict.clone(), strict],
            },
            // A reference cut by its wall budget compares nothing.
            BatteryGroup {
                reference: cut,
                compared: vec![job(env())],
            },
            // A run under another policy that its step budget cut is not
            // a divergence.
            BatteryGroup {
                reference: job(env()),
                compared: vec![short_random.clone()],
            },
            // Runs of one design, policy and step budget are cut at the
            // same point: they compare, and only with each other.
            BatteryGroup {
                reference: short.clone(),
                compared: vec![short, short_random],
            },
        ];
        let run = battery(&Fleet::new(2), groups);
        let counts = |v: &BatteryVerdict| (v.compared, v.divergent, v.cut, v.failed);
        let v = &run.verdicts[0];
        assert_eq!(counts(v), (1, 0, 1, 2));
        assert_eq!(v.panicked, 0);
        let first = &v.first_error;
        assert!(
            matches!(first, Some((3, SimError::InputExhausted { .. }))),
            "{first:?}"
        );
        let cut_counts: Vec<_> = run.verdicts[1..].iter().map(counts).collect();
        assert_eq!(cut_counts, [(0, 0, 1, 0), (0, 0, 1, 0), (1, 0, 1, 0)]);
        assert_eq!(run.verdicts[3].reference.as_ref().unwrap().steps, 1);
    }

    #[test]
    fn relation_witnesses_name_both_events_and_the_side_that_has_them() {
        let key = |arc, k| EventKey {
            arc: ArcId::new(arc),
            k,
        };
        let w = Witness {
            job: 3,
            reference: FiringPolicy::MaximalStep,
            compared: FiringPolicy::RandomMaximal { seed: 1 },
            diff: StructureDiff::Precedent {
                pair: (key(0, 0), key(2, 0)),
                in_lhs: false,
            },
        };
        assert_eq!(
            w.render(&unary(Op::Neg)),
            "MaximalStep vs RandomMaximal { seed: 1 } (job 3): precedent pair event 0 on a0 \
             (p0 of `x`) ≺ event 0 on a2 (p5 of `y`) present in only RandomMaximal { seed: 1 }"
        );
    }
}
