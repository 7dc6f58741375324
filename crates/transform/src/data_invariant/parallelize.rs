//! Parallelisation: the primary data-invariant transformation (Def. 4.5,
//! Thm. 4.1).
//!
//! Given a serial link `… → Sa → t → Sb → …` where `¬(Sa ◇ Sb)` — the two
//! states are data independent — the link transition is dissolved: the
//! transitions that fed `Sa` now also deposit into `Sb`, and the transitions
//! that drained `Sb` now also consume `Sa`:
//!
//! ```text
//!   t1 → Sa → t → Sb → t3        ⟹        t1 → {Sa ∥ Sb} → t3
//! ```
//!
//! Both states keep their `⇒`-position relative to everything else; only the
//! `Sa ⇒ Sb` pair leaves the order, which Def. 4.5 permits exactly when the
//! pair is not in `◇`. Legality additionally requires disjoint associated
//! sets so Def. 3.2(1) keeps holding, and an unguarded, pure link transition
//! (`pre = {Sa}`, `post = {Sb}`) so no guard or synchronisation is lost.

use crate::error::{TransformError, TransformResult};
use crate::legality::{require_disjoint_resources, require_independent};
use etpn_analysis::DataDependence;
use etpn_core::{Etpn, PlaceId, TransId};

/// Applies parallelisation rewrites to a design.
pub struct Parallelizer<'a> {
    dd: &'a DataDependence,
}

impl<'a> Parallelizer<'a> {
    /// Build against a dependence snapshot of the *current* design. The
    /// snapshot stays valid across parallelisations: they alter only the
    /// transition/flow structure, and `◇` depends on `(C, G, D)` — all
    /// unchanged (guard adjacency is conservative, see `datadep`).
    pub fn new(dd: &'a DataDependence) -> Self {
        Self { dd }
    }

    /// Find the link transition of the pattern `Sa → t → Sb`, if the shape
    /// matches: `t` unguarded, `t.pre == [Sa]`, `t.post == [Sb]`,
    /// `Sa.post == [t]`, `Sb.pre == [t]`.
    pub fn link_transition(g: &Etpn, sa: PlaceId, sb: PlaceId) -> Option<TransId> {
        let pa = g.ctl.place(sa);
        let pb = g.ctl.place(sb);
        if pa.post.len() != 1 || pb.pre.len() != 1 || pa.post[0] != pb.pre[0] {
            return None;
        }
        let t = pa.post[0];
        let tr = g.ctl.transition(t);
        (tr.pre == [sa] && tr.post == [sb] && tr.guards.is_empty()).then_some(t)
    }

    /// Check all preconditions without mutating.
    pub fn check(&self, g: &Etpn, sa: PlaceId, sb: PlaceId) -> TransformResult<TransId> {
        let t = Self::link_transition(g, sa, sb).ok_or_else(|| {
            TransformError::ShapeMismatch(format!("no pure link {sa} → t → {sb}"))
        })?;
        require_independent(self.dd, sa, sb)?;
        require_disjoint_resources(g, sa, sb)?;
        Ok(t)
    }

    /// Apply the rewrite, making `sa ∥ sb`.
    pub fn apply(&self, g: &mut Etpn, sa: PlaceId, sb: PlaceId) -> TransformResult<()> {
        let t = self.check(g, sa, sb)?;
        g.ctl.remove_transition(t)?;
        for feeder in g.ctl.place(sa).pre.clone() {
            g.ctl.flow_ts(feeder, sb)?;
        }
        for drainer in g.ctl.place(sb).post.clone() {
            g.ctl.flow_st(sa, drainer)?;
        }
        // Edge case: Sa was an initial state with no feeder — Sb must then
        // also start marked, since nothing will ever deposit into it.
        if g.ctl.place(sa).pre.is_empty() && g.ctl.place(sa).marked0 {
            g.ctl.set_marked0(sb, true);
        }
        Ok(())
    }

    /// Check the *group widening* pattern around `sb`:
    ///
    /// ```text
    ///   tf → {S1 ∥ … ∥ Sk} → tj → sb → …   ⟹   tf → {S1 ∥ … ∥ Sk ∥ sb} → …
    /// ```
    ///
    /// Pairwise parallelisation alone caps at 2-wide groups (the link
    /// transitions around a fork/join are no longer pure); widening absorbs
    /// the state after the join into the group, so repeated application
    /// flattens whole independent chains to full width. Requirements: `tj`
    /// unguarded with `post = [sb]`, every group member's sole exit is `tj`
    /// and sole entry is one common fork `tf`, and `sb` is independent of
    /// and resource-disjoint with every member.
    ///
    /// Returns `(tj, group, tf)`.
    pub fn check_widen(
        &self,
        g: &Etpn,
        sb: PlaceId,
    ) -> TransformResult<(TransId, Vec<PlaceId>, TransId)> {
        let pb = g.ctl.place(sb);
        if pb.marked0 {
            return Err(TransformError::ShapeMismatch(format!(
                "{sb} is initially marked"
            )));
        }
        if pb.pre.len() != 1 || pb.post.is_empty() {
            return Err(TransformError::ShapeMismatch(format!(
                "{sb} needs one entry and at least one exit"
            )));
        }
        let tj = pb.pre[0];
        let trj = g.ctl.transition(tj);
        if !trj.guards.is_empty() || trj.post != [sb] || trj.pre.len() < 2 {
            return Err(TransformError::ShapeMismatch(format!(
                "{tj} is not an unguarded group join into {sb}"
            )));
        }
        let group = trj.pre.to_vec();
        let mut tf = None;
        for &m in &group {
            let pm = g.ctl.place(m);
            if pm.post != [tj] || pm.pre.len() != 1 {
                return Err(TransformError::ShapeMismatch(format!(
                    "group member {m} has extra entries/exits"
                )));
            }
            match tf {
                None => tf = Some(pm.pre[0]),
                Some(t) if t == pm.pre[0] => {}
                Some(_) => {
                    return Err(TransformError::ShapeMismatch(
                        "group members lack a common fork".into(),
                    ))
                }
            }
        }
        let tf = tf.expect("non-empty group");
        if tf == tj {
            return Err(TransformError::ShapeMismatch(
                "fork and join are the same transition (self-loop group)".into(),
            ));
        }
        for &m in &group {
            require_independent(self.dd, m, sb)?;
            require_disjoint_resources(g, m, sb)?;
        }
        // Splicing must not create duplicate flow edges.
        for &t_next in &pb.post {
            let pre = &g.ctl.transition(t_next).pre;
            if group.iter().any(|m| pre.contains(m)) {
                return Err(TransformError::ShapeMismatch(
                    "an exit already consumes a group member".into(),
                ));
            }
        }
        Ok((tj, group, tf))
    }

    /// Apply group widening (see [`Parallelizer::check_widen`]).
    pub fn widen(&self, g: &mut Etpn, sb: PlaceId) -> TransformResult<()> {
        let (tj, group, tf) = self.check_widen(g, sb)?;
        let exits = g.ctl.place(sb).post.clone();
        g.ctl.remove_transition(tj)?;
        g.ctl.flow_ts(tf, sb)?;
        for t_next in exits {
            for &m in &group {
                g.ctl.flow_st(m, t_next)?;
            }
        }
        Ok(())
    }

    /// Greedy pass: repeatedly parallelise any legal adjacent pair and widen
    /// any legal group until no rewrite applies. Returns the number of
    /// rewrites performed.
    ///
    /// This is the "carry out as much operations in parallel as possible"
    /// move of §4; the optimiser drives a guided version of it.
    pub fn saturate(&self, g: &mut Etpn) -> usize {
        let mut count = 0;
        loop {
            // Exhaust widening first: once a pairwise fork exists, each
            // following independent state can be absorbed one at a time,
            // but only while its entry join still has the simple shape —
            // applying another pair downstream first would break it.
            loop {
                let widen_cands: Vec<PlaceId> = g.ctl.places().ids().collect();
                let mut widened = false;
                for sb in widen_cands {
                    if self.widen(g, sb).is_ok() {
                        count += 1;
                        widened = true;
                    }
                }
                if !widened {
                    break;
                }
            }
            // Then seed one new pair and go round again.
            let pair = g
                .ctl
                .transitions()
                .iter()
                .filter(|(_, tr)| tr.guards.is_empty() && tr.pre.len() == 1 && tr.post.len() == 1)
                .map(|(_, tr)| (tr.pre[0], tr.post[0]))
                .find(|&(sa, sb)| self.check(g, sa, sb).is_ok());
            match pair {
                Some((sa, sb)) => {
                    self.apply(g, sa, sb).expect("checked");
                    count += 1;
                }
                None => return count,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etpn_core::{ControlRelations, EtpnBuilder, Op};

    /// Serial chain s0 → s1 → s2 → s3. s0 loads both inputs; s1 and s2 are
    /// *internal* compute states over disjoint registers (independent —
    /// note that states touching external arcs are never independent by
    /// Def. 4.3(e), so the parallelisable pair must be I/O-free); s3 emits.
    fn chain_independent_middle() -> (Etpn, Vec<PlaceId>) {
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let add = b.operator(Op::Add, 2, "add");
        let mul = b.operator(Op::Mul, 2, "mul");
        let r1 = b.register("r1");
        let r2 = b.register("r2");
        let r3 = b.register("r3");
        let r4 = b.register("r4");
        let o1 = b.output("o1");
        let load1 = b.connect(b.out_port(x, 0), b.in_port(r1, 0));
        let load2 = b.connect(b.out_port(y, 0), b.in_port(r2, 0));
        let c0 = b.connect(b.out_port(r1, 0), b.in_port(add, 0));
        let c1 = b.connect(b.out_port(r1, 0), b.in_port(add, 1));
        let c2 = b.connect(b.out_port(add, 0), b.in_port(r3, 0));
        let m0 = b.connect(b.out_port(r2, 0), b.in_port(mul, 0));
        let m1 = b.connect(b.out_port(r2, 0), b.in_port(mul, 1));
        let m2 = b.connect(b.out_port(mul, 0), b.in_port(r4, 0));
        let emit = b.connect(b.out_port(r3, 0), b.in_port(o1, 0));
        let s = b.serial_chain(4, "s");
        b.control(s[0], [load1, load2]);
        b.control(s[1], [c0, c1, c2]);
        b.control(s[2], [m0, m1, m2]);
        b.control(s[3], [emit]);
        let fin = b.transition("fin");
        b.flow_st(s[3], fin);
        (b.finish().unwrap(), s)
    }

    #[test]
    fn parallelise_independent_pair() {
        let (mut g, s) = chain_independent_middle();
        let dd = etpn_analysis::DataDependence::compute(&g);
        let par = Parallelizer::new(&dd);
        par.apply(&mut g, s[1], s[2]).unwrap();
        let rel = ControlRelations::compute(&g.ctl);
        assert!(rel.parallel(s[1], s[2]), "now parallel");
        assert!(rel.leads_to(s[0], s[1]) && rel.leads_to(s[0], s[2]));
        assert!(rel.leads_to(s[1], s[3]) && rel.leads_to(s[2], s[3]));
        g.validate().unwrap();
    }

    #[test]
    fn dependent_pair_refused() {
        // s0 writes r1, s1 reads r1 (case a): adjacent and dependent.
        let (mut g, s) = chain_independent_middle();
        let dd = etpn_analysis::DataDependence::compute(&g);
        let par = Parallelizer::new(&dd);
        let err = par.apply(&mut g, s[0], s[1]).unwrap_err();
        assert!(matches!(err, TransformError::DataDependent(_, _)), "{err}");
    }

    #[test]
    fn shape_mismatch_refused() {
        let (mut g, s) = chain_independent_middle();
        let dd = etpn_analysis::DataDependence::compute(&g);
        let par = Parallelizer::new(&dd);
        let err = par.apply(&mut g, s[0], s[2]).unwrap_err();
        assert!(matches!(err, TransformError::ShapeMismatch(_)));
    }

    #[test]
    fn guarded_link_refused() {
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let r1 = b.register("r1");
        let r2 = b.register("r2");
        let cmp = b.operator(Op::Ge, 2, "cmp");
        let a0 = b.connect(b.out_port(x, 0), b.in_port(r1, 0));
        let a1 = b.connect(b.out_port(y, 0), b.in_port(r2, 0));
        let c0 = b.connect(b.out_port(r1, 0), b.in_port(cmp, 0));
        let c1 = b.connect(b.out_port(r1, 0), b.in_port(cmp, 1));
        let _ = (c0, c1);
        let sa = b.place("sa");
        let sb = b.place("sb");
        b.control(sa, [a0]);
        b.control(sb, [a1]);
        let t = b.seq(sa, sb, "t");
        b.guard(t, b.out_port(cmp, 0));
        b.mark(sa);
        let g0 = b.finish().unwrap();
        let dd = etpn_analysis::DataDependence::compute(&g0);
        let par = Parallelizer::new(&dd);
        let mut g = g0.clone();
        let err = par.apply(&mut g, sa, sb).unwrap_err();
        // A guarded link fails the shape pattern.
        assert!(matches!(err, TransformError::ShapeMismatch(_)));
        assert_eq!(g, g0, "design untouched on refusal");
    }

    #[test]
    fn shared_resource_refused() {
        // s1 and s2 both route through the same adder: independent by ◇
        // (no sequential result shared) but resource-conflicting.
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let add = b.operator(Op::Add, 2, "add");
        let r1 = b.register("r1");
        let r2 = b.register("r2");
        let x0 = b.connect(b.out_port(x, 0), b.in_port(add, 0));
        let x1 = b.connect(b.out_port(x, 0), b.in_port(add, 1));
        let w1 = b.connect(b.out_port(add, 0), b.in_port(r1, 0));
        let y0 = b.connect(b.out_port(y, 0), b.in_port(add, 0));
        let y1 = b.connect(b.out_port(y, 0), b.in_port(add, 1));
        let w2 = b.connect(b.out_port(add, 0), b.in_port(r2, 0));
        let s = b.serial_chain(2, "s");
        b.control(s[0], [x0, x1, w1]);
        b.control(s[1], [y0, y1, w2]);
        let mut g = b.finish().unwrap();
        let dd = etpn_analysis::DataDependence::compute(&g);
        let par = Parallelizer::new(&dd);
        let err = par.apply(&mut g, s[0], s[1]).unwrap_err();
        // Both states read different inputs (case e: both external ⇒ ◇)…
        // so this is caught as DataDependent first; build a variant without
        // external reads to hit the resource check.
        assert!(matches!(
            err,
            TransformError::DataDependent(_, _) | TransformError::SharedResources(_, _)
        ));
    }

    #[test]
    fn shared_combinational_unit_refused_without_datadep() {
        // Two states share a combinational pass-through but no registers,
        // inputs, or outputs: ◇-independent yet resource-sharing.
        let mut b = EtpnBuilder::new();
        let c1 = b.constant(1, "c1");
        let c2 = b.constant(2, "c2");
        let pass = b.operator(Op::Pass, 1, "shared_pass");
        let r1 = b.register("r1");
        let r2 = b.register("r2");
        let p0 = b.connect(b.out_port(c1, 0), b.in_port(pass, 0));
        let w1 = b.connect(b.out_port(pass, 0), b.in_port(r1, 0));
        let p1 = b.connect(b.out_port(c2, 0), b.in_port(pass, 0));
        let w2 = b.connect(b.out_port(pass, 0), b.in_port(r2, 0));
        let s = b.serial_chain(2, "s");
        b.control(s[0], [p0, w1]);
        b.control(s[1], [p1, w2]);
        let mut g = b.finish().unwrap();
        let dd = etpn_analysis::DataDependence::compute(&g);
        let par = Parallelizer::new(&dd);
        let err = par.apply(&mut g, s[0], s[1]).unwrap_err();
        assert!(
            matches!(err, TransformError::SharedResources(_, _)),
            "{err}"
        );
    }

    #[test]
    fn saturate_flattens_what_it_can() {
        let (mut g, s) = chain_independent_middle();
        let dd = etpn_analysis::DataDependence::compute(&g);
        let par = Parallelizer::new(&dd);
        let n = par.saturate(&mut g);
        assert_eq!(n, 1, "only the (s1, s2) pair is legal");
        let rel = ControlRelations::compute(&g.ctl);
        assert!(rel.parallel(s[1], s[2]));
        g.validate().unwrap();
    }
}
