//! Shared legality predicates for the semantics-preserving rewrites.

use crate::error::{TransformError, TransformResult};
use etpn_analysis::proper::shared_by;
use etpn_analysis::DataDependence;
use etpn_core::{ControlRelations, Etpn, PlaceId, VertexId};
use std::collections::HashSet;

/// Check that `sa` and `sb` are not *directly* data dependent
/// (`¬ sa ↔ sb`, Def. 4.3).
///
/// Def. 4.5 as literally written quantifies over the closure `◇`; we follow
/// the proof of Thm. 4.1 instead, which only ever relies on *direct* pairs
/// (writer-before-reader order, and the mutual order of environment-touching
/// states via case (e)). Preserving the `⇒`-order of every direct pair
/// automatically preserves every ordered dependence *chain*, because `⇒` is
/// transitive; the closure would additionally forbid unordering any two
/// states that merely share a transitive producer — e.g. two compute states
/// reading different registers loaded by one earlier state — which
/// contradicts the paper's own "as much operations in parallel as possible"
/// programme. See `etpn_analysis::datadep` for both relations.
pub fn require_independent(dd: &DataDependence, sa: PlaceId, sb: PlaceId) -> TransformResult<()> {
    if dd.direct(sa, sb) {
        Err(TransformError::DataDependent(sa, sb))
    } else {
        Ok(())
    }
}

/// Check that `sa` and `sb` have disjoint associated sets, so making them
/// parallel preserves Def. 3.2(1).
pub fn require_disjoint_resources(g: &Etpn, sa: PlaceId, sb: PlaceId) -> TransformResult<()> {
    shared_by(g, sa, sb).map_or(Ok(()), |_| Err(TransformError::SharedResources(sa, sb)))
}

/// The control states *using* a vertex: those whose control set contains an
/// arc adjacent to any of its ports (both reads of its outputs and writes of
/// its inputs). Slightly stricter than the paper's input-port-only
/// association (Def. 2.4) — see the merger module docs for why.
pub fn use_states(g: &Etpn, v: VertexId) -> Vec<PlaceId> {
    let vx = g.dp.vertex(v);
    let mut adjacent = HashSet::new();
    for &p in vx.inputs.iter().chain(&vx.outputs) {
        for &a in g.dp.incoming_arcs(p) {
            adjacent.insert(a);
        }
        for &a in g.dp.outgoing_arcs(p) {
            adjacent.insert(a);
        }
    }
    g.ctl
        .places()
        .iter()
        .filter(|(_, place)| place.ctrl.iter().any(|a| adjacent.contains(a)))
        .map(|(s, _)| s)
        .collect()
}

/// Check that every cross pair of use states is in *strict* sequential
/// order `α` (Def. 4.6 merger precondition).
///
/// A shared use state is refused too: one physical unit cannot perform two
/// operations within the same control step — merging two vertices active
/// under the same state would contend for the input ports (and, for chained
/// vertices, create a combinational self-loop).
pub fn require_sequential_uses(
    rel: &ControlRelations,
    uses1: &[PlaceId],
    uses2: &[PlaceId],
) -> TransformResult<()> {
    for &s1 in uses1 {
        for &s2 in uses2 {
            if s1 == s2 || !rel.sequential(s1, s2) {
                return Err(TransformError::NotSequential { s1, s2 });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use etpn_core::{EtpnBuilder, Op};

    #[test]
    fn use_states_covers_reads_and_writes() {
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let add = b.operator(Op::Add, 2, "add");
        let r = b.register("r");
        let a0 = b.connect(b.out_port(x, 0), b.in_port(add, 0));
        let a1 = b.connect(b.out_port(x, 0), b.in_port(add, 1));
        let a2 = b.connect(b.out_port(add, 0), b.in_port(r, 0));
        let emit_like = b.connect(b.out_port(r, 0), b.in_port(add, 0));
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        b.control(s0, [a0, a1, a2]);
        b.control(s1, [emit_like]);
        b.seq(s0, s1, "t");
        b.mark(s0);
        let g = b.finish().unwrap();
        let add_v = g.dp.vertex_by_name("add").unwrap();
        let uses = use_states(&g, add_v);
        assert_eq!(uses, vec![s0, s1], "s1 reads r into add: also a use");
    }
}
