//! The *properly designed* check suite (paper Def. 3.2).
//!
//! A data/control flow system is properly designed when:
//!
//! 1. parallel control states have disjoint associated sets
//!    (`ASS(Si) ∩ ASS(Sj) = ∅` if `Si ∥ Sj`);
//! 2. the Petri net is safe;
//! 3. the net is conflict-free (shared-input-place transitions have
//!    mutually exclusive guards);
//! 4. no control state's subgraph contains a combinational loop;
//! 5. every control state's associated set includes a sequential vertex.
//!
//! Rules (1), (2) and (5) are implemented here only — [`shared_resources`]
//! (pair form [`shared_by`]), [`safeness`] and [`working_states`]; (3) and
//! (4) live in [`crate::conflict`] and [`crate::comb_loop`]. The lint
//! passes and the transforms' legality checks call these same functions.
//!
//! For (5) we follow the letter of the definition for states that perform
//! work (non-empty `C(S)`), and report *idle* states (empty `C(S)` — pure
//! synchronisation points such as join landings) as warnings rather than
//! violations: they open no arcs, so they cannot introduce the
//! nondeterminism the rule exists to prevent.

use crate::comb_loop::{find_all_comb_loops, CombLoop};
use crate::conflict::{check_conflicts, ConflictFinding};
use crate::invariants::{cyclic_closure, p_invariants, p_semiflows};
use crate::reach::{ExploreBudget, ReachGraph};
use etpn_core::{ArcId, Control, ControlRelations, Etpn, PlaceId, VertexId};

/// One violation of Def. 3.2(1): parallel states sharing resources.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SharedResource {
    /// First state of the parallel pair.
    pub s1: PlaceId,
    /// Second state of the parallel pair.
    pub s2: PlaceId,
    /// Shared vertices (via input-port association, Def. 2.4), ascending.
    pub vertices: Vec<VertexId>,
    /// Shared arcs, ascending.
    pub arcs: Vec<ArcId>,
}

/// A state's associated vertices (Def. 2.4) and controlled arcs, sorted.
type Resources = (Vec<VertexId>, Vec<ArcId>);

fn resources(g: &Etpn, s: PlaceId) -> Resources {
    let mut arcs = g.ctl.ctrl(s).to_vec();
    arcs.sort_unstable();
    arcs.dedup();
    (g.ass_vertices(s), arcs)
}

/// The rule (1) pair predicate: what `s1` and `s2` have in common.
fn overlap(s1: PlaceId, r1: &Resources, s2: PlaceId, r2: &Resources) -> Option<SharedResource> {
    fn common<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
        a.iter()
            .copied()
            .filter(|x| b.binary_search(x).is_ok())
            .collect()
    }
    let (vertices, arcs) = (common(&r1.0, &r2.0), common(&r1.1, &r2.1));
    (!vertices.is_empty() || !arcs.is_empty()).then_some(SharedResource {
        s1,
        s2,
        vertices,
        arcs,
    })
}

/// Def. 3.2(1) for one pair: the vertices and arcs `s1` and `s2` share,
/// or `None` when their associated sets are disjoint. Whether the pair is
/// parallel is the caller's question.
pub fn shared_by(g: &Etpn, s1: PlaceId, s2: PlaceId) -> Option<SharedResource> {
    overlap(s1, &resources(g, s1), s2, &resources(g, s2))
}

/// Def. 3.2(1) over the whole design: every pair of states parallel under
/// `rel` that shares resources, in place-id order.
pub fn shared_resources(g: &Etpn, rel: &ControlRelations) -> Vec<SharedResource> {
    let places: Vec<PlaceId> = g.ctl.places().ids().collect();
    let res: Vec<Resources> = places.iter().map(|&s| resources(g, s)).collect();
    let mut out = Vec::new();
    for (i, &si) in places.iter().enumerate() {
        for (j, &sj) in places.iter().enumerate().skip(i + 1) {
            if rel.parallel(si, sj) {
                out.extend(overlap(si, &res[i], sj, &res[j]));
            }
        }
    }
    out
}

/// Safeness verdict (Def. 3.2(2)) with its witness.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SafetyVerdict {
    /// Proven safe, by an invariant cover or by a complete exploration.
    Safe,
    /// A reachable marking puts `tokens` (more than one) on `place`.
    Unsafe {
        /// The over-full place.
        place: PlaceId,
        /// Its token count in that marking.
        tokens: u32,
    },
    /// The budget ran out before exploration found an unsafe marking.
    Unknown {
        /// Distinct markings explored.
        markings: usize,
        /// Marking-graph edges recorded.
        edges: usize,
    },
}

/// Def. 3.2(2): is the control net safe?
///
/// 1. **Invariant cover.** A place covered by a non-negative P-invariant
///    of initial token count 1 never holds two tokens, so no enumeration
///    is needed. The cover is sought on the [`cyclic_closure`], whose runs
///    include the net's, so terminating designs qualify too. This settles
///    compiler-emitted fork/join and loop nets however many markings
///    they have.
/// 2. **Budgeted exploration** under [`ExploreBudget::states`]. An unsafe
///    marking anywhere in the (possibly truncated) prefix is `Unsafe`; a
///    complete safe graph is `Safe`; a truncated safe prefix is `Unknown`.
pub fn safeness(ctl: &Control, max_states: usize) -> SafetyVerdict {
    let closed = cyclic_closure(ctl);
    let inv = p_semiflows(&closed).unwrap_or_else(|| p_invariants(&closed));
    if inv.structurally_safe(&closed) {
        return SafetyVerdict::Safe;
    }
    let graph = ReachGraph::explore_budgeted(ctl, ExploreBudget::states(max_states));
    if let Some((m, place)) = graph.first_unsafe() {
        SafetyVerdict::Unsafe {
            place,
            tokens: graph.markings[m].count(place),
        }
    } else if graph.complete {
        SafetyVerdict::Safe
    } else {
        SafetyVerdict::Unknown {
            markings: graph.state_count(),
            edges: graph.edges.len(),
        }
    }
}

/// Def. 3.2(5), in place-id order: the violations — working states
/// (non-empty `C(S)`) that latch nothing and are invisible to the
/// environment — and the idle states (empty `C(S)`: pure synchronisation
/// points, noted but not violations).
pub fn working_states(g: &Etpn) -> (Vec<PlaceId>, Vec<PlaceId>) {
    let (mut no_sequential, mut idle) = (Vec::new(), Vec::new());
    for s in g.ctl.places().ids() {
        if g.ctl.ctrl(s).is_empty() {
            idle.push(s);
        } else if g.result_set(s).is_empty() && g.external_arcs_of(s).is_empty() {
            no_sequential.push(s);
        }
    }
    (no_sequential, idle)
}

/// Aggregate report of all five checks.
#[derive(Clone, Debug)]
pub struct ProperReport {
    /// Def. 3.2(1) violations.
    pub shared_resources: Vec<SharedResource>,
    /// Def. 3.2(2) verdict.
    pub safety: SafetyVerdict,
    /// Def. 3.2(3): pairs that could not be proven exclusive.
    pub conflicts: Vec<ConflictFinding>,
    /// Def. 3.2(4) violations.
    pub comb_loops: Vec<CombLoop>,
    /// Def. 3.2(5) violations: working states without a sequential vertex.
    pub no_sequential: Vec<PlaceId>,
    /// Idle states (empty `C(S)`) — warnings, not violations.
    pub idle_states: Vec<PlaceId>,
}

impl ProperReport {
    /// True when the system passed every check.
    pub fn is_proper(&self) -> bool {
        self.shared_resources.is_empty()
            && self.safety == SafetyVerdict::Safe
            && self.conflicts.iter().all(|c| c.proven_exclusive)
            && self.comb_loops.is_empty()
            && self.no_sequential.is_empty()
    }

    /// Human-readable multi-line summary.
    pub fn summary(&self) -> String {
        let unproven = self.conflicts.iter().filter(|c| !c.proven_exclusive);
        format!(
            "properly designed: {}\n  \
             (1) parallel resource sharing violations: {}\n  \
             (2) safety: {:?}\n  \
             (3) unproven-exclusive pairs: {}\n  \
             (4) combinational loops: {}\n  \
             (5) working states without sequential vertex: {}\n  \
             idle states (warnings): {}\n",
            if self.is_proper() { "YES" } else { "NO" },
            self.shared_resources.len(),
            self.safety,
            unproven.count(),
            self.comb_loops.len(),
            self.no_sequential.len(),
            self.idle_states.len(),
        )
    }
}

/// Run `f` under the `etpn-obs` span `name`.
fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = etpn_obs::span(name);
    f()
}

/// Run all five checks with the given reachability budget.
pub fn check_properly_designed_with(g: &Etpn, max_states: usize) -> ProperReport {
    let _span = etpn_obs::span("analysis.proper");
    // The acyclic skeleton models same-activation concurrency: inside a
    // loop the plain `⇒` would relate every body pair and make this check
    // vacuous (see `ControlRelations::compute_acyclic`).
    let rel = timed("analysis.relations", || {
        ControlRelations::compute_acyclic(&g.ctl)
    });
    let (no_sequential, idle_states) = working_states(g);
    ProperReport {
        shared_resources: timed("analysis.ass_overlap", || shared_resources(g, &rel)),
        safety: timed("analysis.safeness", || safeness(&g.ctl, max_states)),
        conflicts: timed("analysis.conflicts", || check_conflicts(g)),
        comb_loops: timed("analysis.comb_loops", || find_all_comb_loops(g)),
        no_sequential,
        idle_states,
    }
}

/// [`check_properly_designed_with`] with the default budget of 65 536 markings.
pub fn check_properly_designed(g: &Etpn) -> ProperReport {
    check_properly_designed_with(g, 1 << 16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etpn_core::{EtpnBuilder, Op};

    fn proper_design() -> Etpn {
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let r = b.register("r");
        let y = b.output("y");
        let load = b.connect(b.out_port(x, 0), b.in_port(r, 0));
        let emit = b.connect(b.out_port(r, 0), b.in_port(y, 0));
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        let s_end = b.place("end");
        b.control(s0, [load]);
        b.control(s1, [emit]);
        b.seq(s0, s1, "t0");
        b.seq(s1, s_end, "t1");
        let fin = b.transition("fin");
        b.flow_st(s_end, fin);
        b.mark(s0);
        b.finish().unwrap()
    }

    #[test]
    fn clean_design_passes() {
        let g = proper_design();
        let report = check_properly_designed(&g);
        assert!(report.is_proper(), "{}", report.summary());
        assert_eq!(report.idle_states.len(), 1, "`end` is idle");
    }

    #[test]
    fn parallel_sharing_flagged() {
        // Fork into sa ∥ sb, both loading the same register.
        let mut b = EtpnBuilder::new();
        let c1 = b.constant(1, "c1");
        let r = b.register("r");
        let a1 = b.connect(b.out_port(c1, 0), b.in_port(r, 0));
        let s0 = b.place("s0");
        let sa = b.place("sa");
        let sb = b.place("sb");
        b.control(sa, [a1]);
        b.control(sb, [a1]);
        let tf = b.transition("fork");
        b.flow_st(s0, tf);
        b.flow_ts(tf, sa);
        b.flow_ts(tf, sb);
        b.mark(s0);
        let g = b.finish().unwrap();
        let report = check_properly_designed(&g);
        assert!(!report.is_proper());
        assert_eq!(report.shared_resources.len(), 1);
        let sr = &report.shared_resources[0];
        assert_eq!((sr.s1, sr.s2), (sa, sb));
        assert!(!sr.arcs.is_empty());
    }

    #[test]
    fn unsafe_net_flagged() {
        let mut b = EtpnBuilder::new();
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        let s2 = b.place("s2");
        let t0 = b.transition("t0");
        b.flow_st(s0, t0);
        b.flow_ts(t0, s1);
        b.flow_ts(t0, s2);
        let t1 = b.transition("t1");
        b.flow_st(s1, t1);
        b.flow_ts(t1, s0);
        b.mark(s0);
        let g = b.finish().unwrap();
        let report = check_properly_designed_with(&g, 64);
        assert_ne!(report.safety, SafetyVerdict::Safe);
        assert!(!report.is_proper());
    }

    #[test]
    fn unguarded_branch_flagged() {
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let r = b.register("r");
        let a = b.connect(b.out_port(x, 0), b.in_port(r, 0));
        let s0 = b.place("s0");
        b.control(s0, [a]);
        let s1 = b.place("s1");
        let s2 = b.place("s2");
        b.seq(s0, s1, "t1");
        b.seq(s0, s2, "t2");
        b.mark(s0);
        let g = b.finish().unwrap();
        let report = check_properly_designed(&g);
        assert!(!report.is_proper());
        assert!(report.conflicts.iter().any(|c| !c.proven_exclusive));
    }

    #[test]
    fn pure_combinational_state_flagged() {
        let mut b = EtpnBuilder::new();
        let c = b.constant(1, "c");
        let p = b.operator(Op::Pass, 1, "p");
        let a = b.connect(b.out_port(c, 0), b.in_port(p, 0));
        let s0 = b.place("s0");
        b.control(s0, [a]);
        let s1 = b.place("s1");
        b.seq(s0, s1, "t");
        b.mark(s0);
        let g = b.finish().unwrap();
        let report = check_properly_designed(&g);
        assert_eq!(report.no_sequential, vec![s0]);
        assert!(!report.is_proper());
    }
}
