//! The data-dependence relation over control states (paper Defs. 4.3/4.4).
//!
//! `Si ↔ Sj` (directly data dependent) when any of:
//!
//! * (a) `R(Si) ∩ dom(Sj) ≠ ∅` — `Sj` reads a result `Si` writes;
//! * (b) `R(Sj) ∩ dom(Si) ≠ ∅` — symmetric;
//! * (c) `R(Si) ∩ R(Sj) ≠ ∅` — both write the same state element;
//! * (d) control dependence — the marking of one depends on a guard
//!   computed from results of the other;
//! * (e) both control states touch the environment (external arcs) — the
//!   environment observes their order, so it must be preserved.
//!
//! `◇ = ↔⁺` is the transitive closure. Because `↔` is symmetric, `◇`
//! partitions the states into dependence components. The data-invariant
//! transformations must preserve the `⇒`-order of every `◇`-related pair
//! (Def. 4.5); independent pairs may be freely parallelised — the entire
//! optimisation freedom of the model lives in the complement of `◇`.
//!
//! For case (d) we use a conservative static approximation: the guard ports
//! of every transition adjacent to `Si` are traced backwards through the
//! data path (through combinatorial vertices, over *all* arcs regardless of
//! control) to the sequential vertices that can feed them; if any of those
//! is in `R(Sj)`, the states are dependent.

use etpn_core::bitset::BitMatrix;
use etpn_core::{Etpn, PlaceId, PortId, VertexId};
use std::collections::HashSet;

/// The computed dependence relations for one system.
#[derive(Clone, Debug)]
pub struct DataDependence {
    /// Direct dependence `↔` (symmetric) over raw place ids.
    direct: BitMatrix,
    /// Transitive closure `◇` over raw place ids.
    closure: BitMatrix,
    places: Vec<PlaceId>,
}

impl DataDependence {
    /// Compute `↔` and `◇` for `g`.
    pub fn compute(g: &Etpn) -> Self {
        let places: Vec<PlaceId> = g.ctl.places().ids().collect();
        let n = g.ctl.places().capacity_bound();
        let mut direct = BitMatrix::new(n);

        // Precompute per-state vertex sets.
        let result: Vec<HashSet<VertexId>> = places
            .iter()
            .map(|&s| g.result_set(s).into_iter().collect())
            .collect();
        let dom: Vec<HashSet<VertexId>> = places
            .iter()
            .map(|&s| g.dom(s).into_iter().collect())
            .collect();
        let external: Vec<bool> = places
            .iter()
            .map(|&s| !g.external_arcs_of(s).is_empty())
            .collect();
        // Sequential sources feeding the guards of transitions adjacent to
        // each place (case d).
        let guard_sources: Vec<HashSet<VertexId>> = places
            .iter()
            .map(|&s| {
                let mut set = HashSet::new();
                let place = g.ctl.place(s);
                for &t in place.pre.iter().chain(&place.post) {
                    for &gp in &g.ctl.transition(t).guards {
                        collect_seq_sources(g, gp, &mut set);
                    }
                }
                set
            })
            .collect();

        for (i, &si) in places.iter().enumerate() {
            for (j, &sj) in places.iter().enumerate() {
                if i >= j {
                    continue;
                }
                let dep =
                    // (a) and (b)
                    !result[i].is_disjoint(&dom[j])
                    || !result[j].is_disjoint(&dom[i])
                    // (c)
                    || !result[i].is_disjoint(&result[j])
                    // (d)
                    || !guard_sources[i].is_disjoint(&result[j])
                    || !guard_sources[j].is_disjoint(&result[i])
                    // (e)
                    || (external[i] && external[j]);
                if dep {
                    direct.set(si.idx(), sj.idx());
                    direct.set(sj.idx(), si.idx());
                }
            }
        }

        let mut closure = direct.clone();
        closure.transitive_closure();
        Self {
            direct,
            closure,
            places,
        }
    }

    /// `Si ↔ Sj` — direct data dependence.
    #[inline]
    pub fn direct(&self, si: PlaceId, sj: PlaceId) -> bool {
        self.direct.get(si.idx(), sj.idx())
    }

    /// `Si ◇ Sj` — (transitive) data dependence.
    #[inline]
    pub fn dependent(&self, si: PlaceId, sj: PlaceId) -> bool {
        self.closure.get(si.idx(), sj.idx())
    }

    /// Places covered by this snapshot.
    pub fn places(&self) -> &[PlaceId] {
        &self.places
    }
}

/// Collect the sequential vertices with a combinational path to `port`
/// (walking arcs backwards irrespective of control).
fn collect_seq_sources(g: &Etpn, port: PortId, out: &mut HashSet<VertexId>) {
    let mut stack = vec![port];
    let mut seen: HashSet<PortId> = HashSet::new();
    while let Some(p) = stack.pop() {
        if !seen.insert(p) {
            continue;
        }
        let pr = g.dp.port(p);
        match pr.dir {
            etpn_core::port::Dir::Out => {
                let op = pr.operation();
                if op.is_sequential() {
                    out.insert(pr.vertex);
                } else {
                    let vx = g.dp.vertex(pr.vertex);
                    for &ip in vx.inputs.iter().take(op.arity()) {
                        stack.push(ip);
                    }
                }
            }
            etpn_core::port::Dir::In => {
                for &a in g.dp.incoming_arcs(p) {
                    stack.push(g.dp.arc(a).from);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etpn_core::{EtpnBuilder, Op};

    /// s0 writes r1, s1 reads r1 into r2, s2 writes independent r3.
    fn three_states() -> (Etpn, PlaceId, PlaceId, PlaceId) {
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let r1 = b.register("r1");
        let r2 = b.register("r2");
        let r3 = b.register("r3");
        let c = b.constant(7, "c7");
        let a_load = b.connect(b.out_port(x, 0), b.in_port(r1, 0));
        let a_copy = b.connect(b.out_port(r1, 0), b.in_port(r2, 0));
        let a_c = b.connect(b.out_port(c, 0), b.in_port(r3, 0));
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        let s2 = b.place("s2");
        b.control(s0, [a_load]);
        b.control(s1, [a_copy]);
        b.control(s2, [a_c]);
        b.seq(s0, s1, "t0");
        b.seq(s1, s2, "t1");
        b.mark(s0);
        (b.finish().unwrap(), s0, s1, s2)
    }

    #[test]
    fn read_after_write_is_dependent() {
        let (g, s0, s1, _) = three_states();
        let dd = DataDependence::compute(&g);
        assert!(dd.direct(s0, s1), "s1 reads r1 written by s0 (case a)");
        assert!(dd.dependent(s1, s0), "symmetric");
    }

    #[test]
    fn unrelated_states_are_independent() {
        let (g, s0, s1, s2) = three_states();
        let dd = DataDependence::compute(&g);
        assert!(!dd.direct(s0, s2));
        assert!(!dd.direct(s1, s2));
        assert!(!dd.dependent(s0, s2));
        assert!(!dd.dependent(s1, s2));
        // The one direct pair is s0 ↔ s1.
        assert!(dd.direct(s0, s1) && dd.direct(s1, s0));
    }

    #[test]
    fn write_write_is_dependent() {
        let mut b = EtpnBuilder::new();
        let c1 = b.constant(1, "c1");
        let c2 = b.constant(2, "c2");
        let m1 = b.operator(Op::Pass, 1, "m1");
        let m2 = b.operator(Op::Pass, 1, "m2");
        let r = b.register("r");
        let a1a = b.connect(b.out_port(c1, 0), b.in_port(m1, 0));
        let a1 = b.connect(b.out_port(m1, 0), b.in_port(r, 0));
        let a2a = b.connect(b.out_port(c2, 0), b.in_port(m2, 0));
        let a2 = b.connect(b.out_port(m2, 0), b.in_port(r, 0));
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        b.control(s0, [a1a, a1]);
        b.control(s1, [a2a, a2]);
        b.seq(s0, s1, "t");
        b.mark(s0);
        let g = b.finish().unwrap();
        let dd = DataDependence::compute(&g);
        assert!(dd.direct(s0, s1), "both write r (case c)");
    }

    #[test]
    fn transitive_chaining() {
        // s0 → r1; s1: r1 → r2; s2: r2 → r3. s0 and s2 only transitively dep.
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let r1 = b.register("r1");
        let r2 = b.register("r2");
        let r3 = b.register("r3");
        let a0 = b.connect(b.out_port(x, 0), b.in_port(r1, 0));
        let a1 = b.connect(b.out_port(r1, 0), b.in_port(r2, 0));
        let a2 = b.connect(b.out_port(r2, 0), b.in_port(r3, 0));
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        let s2 = b.place("s2");
        b.control(s0, [a0]);
        b.control(s1, [a1]);
        b.control(s2, [a2]);
        b.seq(s0, s1, "t0");
        b.seq(s1, s2, "t1");
        b.mark(s0);
        let g = b.finish().unwrap();
        let dd = DataDependence::compute(&g);
        assert!(!dd.direct(s0, s2), "no shared vertex directly");
        assert!(dd.dependent(s0, s2), "but transitively via s1");
    }

    #[test]
    fn external_states_are_mutually_dependent() {
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let y = b.output("y");
        let r1 = b.register("r1");
        let r2 = b.register("r2");
        let a0 = b.connect(b.out_port(x, 0), b.in_port(r1, 0));
        let a1 = b.connect(b.out_port(r2, 0), b.in_port(y, 0));
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        b.control(s0, [a0]);
        b.control(s1, [a1]);
        b.seq(s0, s1, "t");
        b.mark(s0);
        let g = b.finish().unwrap();
        let dd = DataDependence::compute(&g);
        assert!(
            dd.direct(s0, s1),
            "case (e): both touch the environment, even with disjoint registers"
        );
    }

    #[test]
    fn guard_source_creates_control_dependence() {
        // s0 writes r; a transition into s1 is guarded by cmp(r) — case (d).
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let r = b.register("r");
        let zero = b.constant(0, "z");
        let cmp = b.operator(Op::Gt, 2, "cmp");
        let r2 = b.register("r2");
        let one = b.constant(1, "one");
        let a0 = b.connect(b.out_port(x, 0), b.in_port(r, 0));
        let c0 = b.connect(b.out_port(r, 0), b.in_port(cmp, 0));
        let c1 = b.connect(b.out_port(zero, 0), b.in_port(cmp, 1));
        let a1 = b.connect(b.out_port(one, 0), b.in_port(r2, 0));
        let s0 = b.place("s0");
        let s_mid = b.place("s_mid");
        let s1 = b.place("s1");
        b.control(s0, [a0]);
        b.control(s_mid, [c0, c1]);
        b.control(s1, [a1]);
        b.seq(s0, s_mid, "t0");
        let t = b.seq(s_mid, s1, "t1");
        b.guard(t, b.out_port(cmp, 0));
        b.mark(s0);
        let g = b.finish().unwrap();
        let dd = DataDependence::compute(&g);
        // s1's marking depends on guard cmp(r); r ∈ R(s0) ⇒ s0 ↔ s1.
        assert!(dd.direct(s0, s1), "control dependence (case d)");
    }
}
