//! Divergence forensics over two recordings of the same design.
//!
//! Given two recordings — golden vs faulty, interpreted vs compiled —
//! [`first_divergence`] locates the first step at which the journaled
//! decisions differ, by scanning the step records of the common window.
//! Checkpoint digests cover only the configuration (marking, state,
//! cursors) — a divergence can leave the configuration unchanged (a
//! masked transient whose only trace is a fault flag, reordered firings
//! that reconverge), so digest agreement proves nothing about the records
//! in between and cannot narrow the scan. Digests serve instead as a
//! *fallback* witness: the first disagreeing common checkpoint reports a
//! divergence that no retained record shows — one evicted from a ring
//! window, or differing initial state.
//!
//! [`causal_slice`] then computes the *cone* of the divergent decision:
//! starting from the model elements the differing records disagree on
//! (transitions, latched registers, events, or consumed inputs), it walks
//! the data path backwards through combinational vertices — stopping at
//! sequential/constant frontiers — and collects the controlling places of
//! every traversed arc. The result is the set of places and ports whose
//! state could have influenced the divergent firing, rendered as text,
//! JSON, or a DOT heat overlay.

use std::collections::BTreeSet;

use etpn_core::json::Json;
use etpn_core::{Etpn, Op, PlaceId, PortId, TransId, VertexId};

use crate::journal::{RecError, Recording, StepRecord, StepView};

/// Which journaled component first disagreed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DivergenceReason {
    /// The fired-transition sets (or their order) differ.
    FiredDiffer,
    /// The committed register latches differ.
    LatchDiffer,
    /// The emitted external events differ.
    EventDiffer,
    /// The consumed input streams differ.
    InputDiffer,
    /// Only the fault-activity flags differ.
    FlagsDiffer,
    /// All overlapping records agree but one recording ends earlier.
    LengthDiffer,
    /// All retained records agree but a checkpoint digest differs — the
    /// divergence precedes the retained record window (ring eviction) or
    /// lies in initial state no record captures.
    CheckpointDiffer,
}

impl std::fmt::Display for DivergenceReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DivergenceReason::FiredDiffer => "fired transitions differ",
            DivergenceReason::LatchDiffer => "latched register values differ",
            DivergenceReason::EventDiffer => "external events differ",
            DivergenceReason::InputDiffer => "consumed inputs differ",
            DivergenceReason::FlagsDiffer => "fault flags differ",
            DivergenceReason::LengthDiffer => "one run ends earlier",
            DivergenceReason::CheckpointDiffer => "checkpoint digest differs",
        })
    }
}

/// The first divergent step of two recordings.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Divergence {
    /// The first step at which the recordings disagree.
    pub step: u64,
    /// Which component disagreed.
    pub reason: DivergenceReason,
    /// The left recording's record of that step, when retained.
    pub left: Option<StepRecord>,
    /// The right recording's record of that step, when retained.
    pub right: Option<StepRecord>,
}

/// The first component in which two rows of one step differ, in the
/// order fired → latched → events → advanced → flags; `None` when they
/// agree. [`first_divergence`] and the engine's replay verification both
/// judge a step with this one function.
pub fn step_diff(l: StepView<'_>, r: StepView<'_>) -> Option<DivergenceReason> {
    if l.fired != r.fired {
        Some(DivergenceReason::FiredDiffer)
    } else if l.latched != r.latched {
        Some(DivergenceReason::LatchDiffer)
    } else if l.events != r.events {
        Some(DivergenceReason::EventDiffer)
    } else if l.advanced != r.advanced {
        Some(DivergenceReason::InputDiffer)
    } else if l.flags != r.flags {
        Some(DivergenceReason::FlagsDiffer)
    } else {
        None
    }
}

/// Locate the first step at which two recordings of the same design
/// disagree. Returns `Ok(None)` when they agree everywhere both retain
/// records (and on all common checkpoints).
///
/// Step records are authoritative and the whole common window is
/// scanned: record divergence does not imply digest divergence (the
/// digests cover only marking/state/cursors, not fault flags, events or
/// firing order), so checkpoint agreement cannot narrow the scan.
/// Checkpoint digests act only as a fallback: a disagreeing checkpoint
/// at step `s` snapshots the configuration *before* `s`, witnessing a
/// divergence strictly earlier than `s` that no retained record shows
/// (ring eviction, or differing initial state).
pub fn first_divergence(a: &Recording, b: &Recording) -> Result<Option<Divergence>, RecError> {
    if a.meta.design_fp != b.meta.design_fp {
        return Err(RecError::DesignMismatch {
            left: a.meta.design_fp,
            right: b.meta.design_fp,
        });
    }
    let lo = a.first_step.max(b.first_step);
    let hi = a.end_step().min(b.end_step());

    // First disagreeing common checkpoint, found linearly: agreement is
    // not monotone (an agree/disagree/re-agree sequence is possible when
    // trajectories reconverge), so a binary search could land anywhere.
    let ck_bad: Option<u64> = a.checkpoints.iter().find_map(|ca| {
        b.checkpoints
            .iter()
            .find(|cb| cb.step == ca.step)
            .and_then(|cb| (cb.digest != ca.digest).then_some(ca.step))
    });

    // A record divergence at or past `ck_bad` is already later than the
    // divergence that checkpoint witnesses, so the scan can stop there.
    let scan_to = ck_bad.map_or(hi, |s| s.min(hi));
    for step in lo..scan_to {
        let (Some(l), Some(r)) = (a.record(step), b.record(step)) else {
            continue;
        };
        if let Some(reason) = step_diff(l, r) {
            return Ok(Some(Divergence {
                step,
                reason,
                left: Some(l.to_owned()),
                right: Some(r.to_owned()),
            }));
        }
    }

    if let Some(step) = ck_bad {
        // No retained record before `step` disagrees, yet the
        // configurations entering it differ: the divergence was evicted
        // from the window or predates both recordings' records.
        return Ok(Some(Divergence {
            step,
            reason: DivergenceReason::CheckpointDiffer,
            left: a.record(step).map(StepView::to_owned),
            right: b.record(step).map(StepView::to_owned),
        }));
    }

    if a.end_step() != b.end_step() {
        let step = hi;
        return Ok(Some(Divergence {
            step,
            reason: DivergenceReason::LengthDiffer,
            left: a.record(step).map(StepView::to_owned),
            right: b.record(step).map(StepView::to_owned),
        }));
    }
    Ok(None)
}

/// Refuse a journaled row that names an id `g` lacks (dead or out of
/// range): a recording decoded from bytes carries any ids at all.
fn check_ids(g: &Etpn, step: u64, row: &StepRecord) -> Result<(), RecError> {
    let (dp, ctl) = (&g.dp, &g.ctl);
    let unknown = |id: &dyn std::fmt::Display| RecError::UnknownId {
        step,
        id: id.to_string(),
    };
    for &t in &row.fired {
        ctl.transitions().get(t).ok_or_else(|| unknown(&t))?;
    }
    for &(p, _) in &row.latched {
        dp.ports().get(p).ok_or_else(|| unknown(&p))?;
    }
    for &v in &row.advanced {
        dp.vertices().get(v).ok_or_else(|| unknown(&v))?;
    }
    for &(a, _, s) in &row.events {
        dp.arcs().get(a).ok_or_else(|| unknown(&a))?;
        ctl.places().get(s).ok_or_else(|| unknown(&s))?;
    }
    Ok(())
}

/// The cone of model elements that could have influenced a divergent
/// decision. All lists are sorted and deduplicated.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CausalSlice {
    /// Ports in the cone (both directions).
    pub ports: Vec<PortId>,
    /// Vertices owning the cone ports.
    pub vertices: Vec<VertexId>,
    /// Control places: pre-places of divergent transitions plus the
    /// controllers of every traversed data arc.
    pub places: Vec<PlaceId>,
    /// The divergent transitions themselves.
    pub transitions: Vec<TransId>,
}

impl CausalSlice {
    /// True when the slice touches the given port.
    pub fn contains_port(&self, p: PortId) -> bool {
        self.ports.binary_search(&p).is_ok()
    }
}

fn sym_diff<T: Clone + PartialEq>(l: &[T], r: &[T]) -> Vec<T> {
    let mut out: Vec<T> = l.iter().filter(|x| !r.contains(x)).cloned().collect();
    out.extend(r.iter().filter(|x| !l.contains(x)).cloned());
    if out.is_empty() {
        // Same multiset, different order: the order itself diverged, so
        // everything involved is suspect.
        out.extend_from_slice(l);
    }
    out
}

struct ConeWalker<'g> {
    g: &'g Etpn,
    ports: BTreeSet<PortId>,
    vertices: BTreeSet<VertexId>,
    places: BTreeSet<PlaceId>,
    work: Vec<PortId>,
}

impl<'g> ConeWalker<'g> {
    fn new(g: &'g Etpn) -> Self {
        Self {
            g,
            ports: BTreeSet::new(),
            vertices: BTreeSet::new(),
            places: BTreeSet::new(),
            work: Vec::new(),
        }
    }

    fn seed(&mut self, p: PortId) {
        if self.ports.insert(p) {
            self.work.push(p);
        }
    }

    /// Walk the data path backwards from the seeds: through incoming arcs
    /// at input ports (collecting each arc's controlling places), through
    /// the owning vertex at *combinational* output ports, stopping at
    /// sequential and constant frontiers.
    fn run(&mut self) {
        while let Some(p) = self.work.pop() {
            let port = self.g.dp.port(p);
            self.vertices.insert(port.vertex);
            if port.is_input() {
                for &a in self.g.dp.incoming_arcs(p) {
                    for s in self.g.ctl.controllers_of(a) {
                        self.places.insert(s);
                    }
                    self.seed(self.g.dp.arc(a).from);
                }
            } else {
                match port.operation() {
                    Op::Reg | Op::Input | Op::Const(_) => {}
                    _ => {
                        let vx = self.g.dp.vertex(port.vertex);
                        for &ip in &vx.inputs {
                            self.seed(ip);
                        }
                    }
                }
            }
        }
    }
}

/// Compute the causal slice of a divergence (see module docs).
pub fn causal_slice(g: &Etpn, d: &Divergence) -> CausalSlice {
    let mut w = ConeWalker::new(g);
    let mut transitions: BTreeSet<TransId> = BTreeSet::new();
    let empty = StepRecord::default();
    let l = d.left.as_ref().unwrap_or(&empty);
    let r = d.right.as_ref().unwrap_or(&empty);

    let seed_trans = |w: &mut ConeWalker<'_>, ts: &mut BTreeSet<TransId>, list: &[TransId]| {
        for &t in list {
            ts.insert(t);
            let tr = g.ctl.transition(t);
            for &gp in &tr.guards {
                w.seed(gp);
            }
            for &s in &tr.pre {
                w.places.insert(s);
            }
        }
    };

    match d.reason {
        DivergenceReason::FiredDiffer => {
            let diff = sym_diff(&l.fired, &r.fired);
            seed_trans(&mut w, &mut transitions, &diff);
        }
        DivergenceReason::LatchDiffer => {
            for (p, _) in sym_diff(&l.latched, &r.latched) {
                w.seed(p);
                let vx = g.dp.vertex(g.dp.port(p).vertex);
                for &ip in &vx.inputs {
                    w.seed(ip);
                }
            }
        }
        DivergenceReason::EventDiffer => {
            for (a, _, s) in sym_diff(&l.events, &r.events) {
                w.places.insert(s);
                w.seed(g.dp.arc(a).from);
                w.seed(g.dp.arc(a).to);
            }
        }
        DivergenceReason::InputDiffer => {
            for v in sym_diff(&l.advanced, &r.advanced) {
                w.vertices.insert(v);
                for &op in &g.dp.vertex(v).outputs {
                    w.seed(op);
                }
            }
        }
        DivergenceReason::FlagsDiffer
        | DivergenceReason::LengthDiffer
        | DivergenceReason::CheckpointDiffer => {
            // No single decision to blame: widen to everything either
            // side fired at the divergent step.
            let union: Vec<TransId> = l.fired.iter().chain(r.fired.iter()).copied().collect();
            seed_trans(&mut w, &mut transitions, &union);
        }
    }

    w.run();
    CausalSlice {
        ports: w.ports.into_iter().collect(),
        vertices: w.vertices.into_iter().collect(),
        places: w.places.into_iter().collect(),
        transitions: transitions.into_iter().collect(),
    }
}

/// A located divergence together with its causal slice, renderable as
/// text, JSON, or a DOT heat overlay.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DivergenceReport {
    /// The first divergent step.
    pub divergence: Divergence,
    /// The cone of the divergent decision.
    pub slice: CausalSlice,
}

impl DivergenceReport {
    /// Locate the first divergence of `a` vs `b` and slice it; `Ok(None)`
    /// when the recordings agree.
    ///
    /// Both recordings must fit `g` ([`Recording::fits`]), and the
    /// divergent rows may name only ids `g` has ([`RecError::UnknownId`]):
    /// the slice and its renderings index `g` with them.
    pub fn between(
        g: &Etpn,
        a: &Recording,
        b: &Recording,
    ) -> Result<Option<DivergenceReport>, RecError> {
        a.fits(g)?;
        b.fits(g)?;
        let Some(d) = first_divergence(a, b)? else {
            return Ok(None);
        };
        for row in d.left.iter().chain(&d.right) {
            check_ids(g, d.step, row)?;
        }
        let slice = causal_slice(g, &d);
        Ok(Some(DivergenceReport {
            divergence: d,
            slice,
        }))
    }

    fn port_label(g: &Etpn, p: PortId) -> String {
        format!("{}/{}", g.dp.vertex(g.dp.port(p).vertex).name, p)
    }

    /// Human-readable report.
    pub fn text(&self, g: &Etpn) -> String {
        use std::fmt::Write as _;
        let d = &self.divergence;
        let mut out = String::new();
        let _ = writeln!(out, "first divergence at step {}: {}", d.step, d.reason);
        let fired = |r: &Option<StepRecord>| match r {
            Some(rec) => {
                if rec.fired.is_empty() {
                    "(none)".to_string()
                } else {
                    rec.fired
                        .iter()
                        .map(|&t| g.ctl.transition(t).name.clone())
                        .collect::<Vec<_>>()
                        .join(" ")
                }
            }
            None => "(not retained)".to_string(),
        };
        let _ = writeln!(out, "  left fired : {}", fired(&d.left));
        let _ = writeln!(out, "  right fired: {}", fired(&d.right));
        let _ = writeln!(out, "causal slice:");
        let _ = writeln!(
            out,
            "  transitions: {}",
            self.slice
                .transitions
                .iter()
                .map(|&t| g.ctl.transition(t).name.clone())
                .collect::<Vec<_>>()
                .join(" ")
        );
        let _ = writeln!(
            out,
            "  places     : {}",
            self.slice
                .places
                .iter()
                .map(|&s| g.ctl.place(s).name.clone())
                .collect::<Vec<_>>()
                .join(" ")
        );
        let _ = writeln!(
            out,
            "  vertices   : {}",
            self.slice
                .vertices
                .iter()
                .map(|&v| g.dp.vertex(v).name.clone())
                .collect::<Vec<_>>()
                .join(" ")
        );
        let _ = writeln!(
            out,
            "  ports      : {}",
            self.slice
                .ports
                .iter()
                .map(|&p| Self::port_label(g, p))
                .collect::<Vec<_>>()
                .join(" ")
        );
        out
    }

    /// Machine-readable report.
    pub fn json(&self, g: &Etpn) -> String {
        let d = &self.divergence;
        let names = |xs: Vec<String>| Json::Arr(xs.into_iter().map(Json::Str).collect());
        let doc = Json::obj([
            ("step", Json::Num(d.step as i64)),
            ("reason", Json::Str(d.reason.to_string())),
            (
                "slice",
                Json::obj([
                    (
                        "transitions",
                        names(
                            self.slice
                                .transitions
                                .iter()
                                .map(|&t| g.ctl.transition(t).name.to_string())
                                .collect(),
                        ),
                    ),
                    (
                        "places",
                        names(
                            self.slice
                                .places
                                .iter()
                                .map(|&s| g.ctl.place(s).name.to_string())
                                .collect(),
                        ),
                    ),
                    (
                        "vertices",
                        names(
                            self.slice
                                .vertices
                                .iter()
                                .map(|&v| g.dp.vertex(v).name.to_string())
                                .collect(),
                        ),
                    ),
                    (
                        "ports",
                        names(
                            self.slice
                                .ports
                                .iter()
                                .map(|&p| Self::port_label(g, p))
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ]);
        doc.pretty()
    }

    /// DOT heat overlay of the data path: vertices in the slice glow by
    /// how many of their ports the cone touches.
    pub fn dot_heat(&self, g: &Etpn) -> String {
        let mut counts = vec![0u64; g.dp.vertices().capacity_bound()];
        for &v in &self.slice.vertices {
            counts[v.idx()] += 1;
        }
        for &p in &self.slice.ports {
            counts[g.dp.port(p).vertex.idx()] += 1;
        }
        etpn_core::dot::datapath_dot_heat(
            g,
            &etpn_core::dot::DataHeat {
                vertex_counts: &counts,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Checkpoint, RecMeta, Recording};
    use etpn_core::Value;

    fn rec_of(fp: u64, records: &[StepRecord]) -> Recording {
        let mut rec = Recording {
            meta: RecMeta {
                design_fp: fp,
                ..RecMeta::default()
            },
            ..Recording::default()
        };
        for r in records {
            rec.push_record(r);
        }
        rec
    }

    fn fired_rows(fired: Vec<Vec<u32>>) -> Vec<StepRecord> {
        fired
            .into_iter()
            .map(|ts| StepRecord {
                fired: ts.into_iter().map(TransId::new).collect(),
                ..StepRecord::default()
            })
            .collect()
    }

    fn rec_with(fp: u64, fired: Vec<Vec<u32>>) -> Recording {
        rec_of(fp, &fired_rows(fired))
    }

    #[test]
    fn design_mismatch_is_an_error() {
        let a = rec_with(1, vec![]);
        let b = rec_with(2, vec![]);
        assert!(matches!(
            first_divergence(&a, &b),
            Err(RecError::DesignMismatch { left: 1, right: 2 })
        ));
    }

    #[test]
    fn identical_recordings_do_not_diverge() {
        let a = rec_with(1, vec![vec![0], vec![1], vec![]]);
        assert_eq!(first_divergence(&a, &a.clone()).unwrap(), None);
    }

    #[test]
    fn first_differing_fired_step_is_found() {
        let a = rec_with(1, vec![vec![0], vec![1], vec![2]]);
        let b = rec_with(1, vec![vec![0], vec![3], vec![2]]);
        let d = first_divergence(&a, &b).unwrap().unwrap();
        assert_eq!(d.step, 1);
        assert_eq!(d.reason, DivergenceReason::FiredDiffer);
    }

    #[test]
    fn latch_difference_detected_after_equal_firing() {
        let mut rows_a = fired_rows(vec![vec![0], vec![1]]);
        let mut rows_b = rows_a.clone();
        rows_a[1].latched = vec![(PortId::new(4), Value::Def(7))];
        rows_b[1].latched = vec![(PortId::new(4), Value::Def(9))];
        let d = first_divergence(&rec_of(1, &rows_a), &rec_of(1, &rows_b))
            .unwrap()
            .unwrap();
        assert_eq!((d.step, d.reason), (1, DivergenceReason::LatchDiffer));
    }

    #[test]
    fn shorter_recording_reports_length_divergence() {
        let a = rec_with(1, vec![vec![0], vec![1], vec![2]]);
        let b = rec_with(1, vec![vec![0], vec![1]]);
        let d = first_divergence(&a, &b).unwrap().unwrap();
        assert_eq!((d.step, d.reason), (2, DivergenceReason::LengthDiffer));
    }

    #[test]
    fn record_divergence_wins_over_later_checkpoint_divergence() {
        // 100 steps with checkpoints every 10; records diverge at 73 and
        // the configurations (hence digests) diverge from there on. The
        // precise record step must win over the coarser checkpoint one.
        let fired: Vec<Vec<u32>> = (0..100).map(|i| vec![i % 5]).collect();
        let mut a = rec_with(1, fired.clone());
        let mut rows_b = fired_rows(fired);
        rows_b[73].fired = vec![TransId::new(9)];
        let mut b = rec_of(1, &rows_b);
        for step in (0..100).step_by(10) {
            // Digest inputs stand in for real configurations: make them
            // agree before the divergence and disagree after it.
            let ca = Checkpoint::new(step, vec![1], vec![], vec![step]);
            let salt = if step > 73 { 99 } else { step };
            let cb = Checkpoint::new(step, vec![1], vec![], vec![salt]);
            a.checkpoints.push(ca);
            b.checkpoints.push(cb);
        }
        let d = first_divergence(&a, &b).unwrap().unwrap();
        assert_eq!((d.step, d.reason), (73, DivergenceReason::FiredDiffer));
    }

    #[test]
    fn divergence_invisible_to_checkpoint_digests_is_still_found() {
        // A masked transient: only the fault flag at step 73 differs, the
        // configuration — and so every checkpoint digest — stays equal.
        // Checkpoint agreement must not cause the scan to skip it.
        let fired: Vec<Vec<u32>> = (0..100).map(|i| vec![i % 5]).collect();
        let rows_a = fired_rows(fired);
        let mut rows_b = rows_a.clone();
        rows_b[73].flags = crate::journal::FLAG_DATA_FAULT;
        let mut a = rec_of(1, &rows_a);
        let mut b = rec_of(1, &rows_b);
        for step in (0..100).step_by(10) {
            a.checkpoints
                .push(Checkpoint::new(step, vec![1], vec![], vec![]));
            b.checkpoints
                .push(Checkpoint::new(step, vec![1], vec![], vec![]));
        }
        let d = first_divergence(&a, &b).unwrap().unwrap();
        assert_eq!((d.step, d.reason), (73, DivergenceReason::FlagsDiffer));
    }

    #[test]
    fn non_monotone_checkpoint_agreement_reports_first_disagreement() {
        // Configurations diverge before step 30 and reconverge by 40
        // (agree / disagree / re-agree), with every record equal: the
        // first disagreeing checkpoint must be reported, not an arbitrary
        // bisection boundary.
        let fired: Vec<Vec<u32>> = (0..100).map(|_| vec![0]).collect();
        let mut a = rec_with(1, fired.clone());
        let mut b = rec_with(1, fired);
        for step in (0..100).step_by(10) {
            let salt = if step == 30 { 99 } else { step };
            a.checkpoints
                .push(Checkpoint::new(step, vec![1], vec![], vec![step]));
            b.checkpoints
                .push(Checkpoint::new(step, vec![1], vec![], vec![salt]));
        }
        let d = first_divergence(&a, &b).unwrap().unwrap();
        assert_eq!((d.step, d.reason), (30, DivergenceReason::CheckpointDiffer));
    }

    /// `a → r` under place `s0`, `t0: s0 → s1`, with the unconnected
    /// register `dead` removed after building: `r` keeps raw id 2 while
    /// the design has only two live vertices.
    fn design_with_a_removed_vertex() -> (Etpn, VertexId) {
        let mut b = etpn_core::EtpnBuilder::new();
        let a = b.input("a");
        let dead = b.register("dead");
        let r = b.register("r");
        let load = b.connect(b.out_port(a, 0), b.in_port(r, 0));
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        b.control(s0, [load]);
        b.seq(s0, s1, "t0");
        b.mark(s0);
        let mut g = b.finish().unwrap();
        g.dp.remove_vertex(dead).unwrap();
        (g, r)
    }

    #[test]
    fn between_refuses_other_designs_and_ids_the_design_lacks() {
        let (g, _) = design_with_a_removed_vertex();
        let fp = g.fingerprint();
        let other = rec_with(fp ^ 1, vec![vec![0]]);
        assert_eq!(
            DivergenceReport::between(&g, &other, &other),
            Err(RecError::DesignMismatch {
                left: fp,
                right: fp ^ 1
            })
        );
        let golden = rec_with(fp, vec![vec![0]]);
        let foreign = rec_with(fp, vec![vec![9]]);
        assert_eq!(
            DivergenceReport::between(&g, &golden, &foreign),
            Err(RecError::UnknownId {
                step: 0,
                id: "t9".to_string()
            })
        );
        let mut rows = fired_rows(vec![vec![0]]);
        rows[0].advanced = vec![VertexId::new(1)];
        assert_eq!(
            DivergenceReport::between(&g, &golden, &rec_of(fp, &rows)),
            Err(RecError::UnknownId {
                step: 0,
                id: "v1".to_string()
            })
        );
    }

    #[test]
    fn dot_heat_indexes_counts_by_raw_vertex_id() {
        let (g, r) = design_with_a_removed_vertex();
        assert!(r.idx() >= g.dp.vertices().len());
        let rep = DivergenceReport {
            divergence: Divergence {
                step: 0,
                reason: DivergenceReason::LatchDiffer,
                left: None,
                right: None,
            },
            slice: CausalSlice {
                ports: vec![g.dp.vertex(r).outputs[0]],
                vertices: vec![r],
                ..CausalSlice::default()
            },
        };
        let dot = rep.dot_heat(&g);
        assert!(dot.contains("r\\n[reg]\\n2"), "{dot}");
    }

    #[test]
    fn checkpoint_only_divergence_is_reported_when_records_agree() {
        let fired: Vec<Vec<u32>> = (0..10).map(|_| vec![0]).collect();
        let mut a = rec_with(1, fired.clone());
        let mut b = rec_with(1, fired);
        a.checkpoints
            .push(Checkpoint::new(5, vec![1], vec![], vec![0]));
        b.checkpoints
            .push(Checkpoint::new(5, vec![2], vec![], vec![0]));
        let d = first_divergence(&a, &b).unwrap().unwrap();
        assert_eq!((d.step, d.reason), (5, DivergenceReason::CheckpointDiffer));
    }
}
