//! Reachability analysis of the control Petri net.
//!
//! Explores the marking graph under the *structural* firing rule — guards
//! are ignored, i.e. treated as free nondeterminism — which over-approximates
//! every guarded behaviour. Properties established here (safeness, place
//! concurrency) therefore hold for all runs. Used by the Def. 3.2(2)
//! safeness check and by experiment E7.

use etpn_core::{Control, Marking, PlaceId, TransId};
use std::collections::HashMap;

/// Node and edge budget for [`ReachGraph::explore_budgeted`]. Both limits
/// cap resource use on nets whose marking graph is too large (or infinite);
/// exploration stops at whichever is hit first and marks the result
/// incomplete rather than running away.
#[derive(Clone, Copy, Debug)]
pub struct ExploreBudget {
    /// Maximum distinct markings to keep.
    pub max_states: usize,
    /// Maximum marking-graph edges to record.
    pub max_edges: usize,
}

impl ExploreBudget {
    /// A state budget with a proportionate edge budget (each marking of a
    /// safe net has at most one outgoing edge per transition, so 8× states
    /// is generous for well-formed nets while still bounding pathological
    /// ones).
    pub fn states(max_states: usize) -> Self {
        ExploreBudget {
            max_states,
            max_edges: max_states.saturating_mul(8),
        }
    }
}

/// The (possibly truncated) reachability graph of a control structure.
#[derive(Clone, Debug)]
pub struct ReachGraph {
    /// Distinct reachable markings; index 0 is the initial marking.
    pub markings: Vec<Marking>,
    /// Edges `(from marking index, fired transition, to marking index)`.
    pub edges: Vec<(usize, TransId, usize)>,
    /// False when exploration stopped early: at the state or edge budget,
    /// or at the caller's stop condition.
    pub complete: bool,
}

impl ReachGraph {
    /// Explore from `M0`, one transition per step (interleaving semantics),
    /// stopping after `max_states` distinct markings.
    pub fn explore(control: &Control, max_states: usize) -> Self {
        Self::explore_budgeted(control, ExploreBudget::states(max_states))
    }

    /// Explore from `M0` under an explicit node *and* edge budget, so even
    /// unbounded nets terminate with a truncated (`complete == false`)
    /// result instead of exhausting memory.
    pub fn explore_budgeted(control: &Control, budget: ExploreBudget) -> Self {
        Self::explore_until(control, budget, |_| false)
    }

    /// [`ReachGraph::explore_budgeted`] that also stops, incomplete, as
    /// soon as `stop` returns true; `stop` sees the transition of every
    /// edge as it is recorded.
    pub fn explore_until(
        control: &Control,
        budget: ExploreBudget,
        mut stop: impl FnMut(TransId) -> bool,
    ) -> Self {
        let m0 = Marking::initial(control);
        let mut index: HashMap<Marking, usize> = HashMap::new();
        let mut markings = vec![m0.clone()];
        index.insert(m0, 0);
        let mut edges = Vec::new();
        let mut frontier = vec![0usize];
        let mut complete = true;

        'explore: while let Some(i) = frontier.pop() {
            let m = markings[i].clone();
            for t in m.enabled_transitions(control) {
                if edges.len() >= budget.max_edges {
                    complete = false;
                    break 'explore;
                }
                let mut next = m.clone();
                next.fire(control, t);
                let j = match index.get(&next) {
                    Some(&j) => j,
                    None => {
                        if markings.len() >= budget.max_states {
                            complete = false;
                            continue;
                        }
                        let j = markings.len();
                        markings.push(next.clone());
                        index.insert(next, j);
                        frontier.push(j);
                        j
                    }
                };
                edges.push((i, t, j));
                if stop(t) {
                    complete = false;
                    break 'explore;
                }
            }
        }
        Self {
            markings,
            edges,
            complete,
        }
    }

    /// Number of distinct markings explored.
    pub fn state_count(&self) -> usize {
        self.markings.len()
    }

    /// The first unsafe marking found, with an over-full place.
    pub fn first_unsafe(&self) -> Option<(usize, PlaceId)> {
        self.markings.iter().enumerate().find_map(|(i, m)| {
            m.marked_places()
                .into_iter()
                .find(|&s| m.count(s) > 1)
                .map(|s| (i, s))
        })
    }

    /// True when some explored marking marks both places at once. On a
    /// complete graph this decides place concurrency exactly — the ground
    /// truth the invariant-based over-approximation is compared against.
    pub fn ever_comarked(&self, a: PlaceId, b: PlaceId) -> bool {
        self.markings
            .iter()
            .any(|m| m.count(a) > 0 && m.count(b) > 0)
    }
}

/// Convenience: is the control net safe, established by exhaustive
/// exploration up to `max_states`? Returns `None` when the budget ran out
/// before the question could be settled.
pub fn is_safe(control: &Control, max_states: usize) -> Option<bool> {
    let g = ReachGraph::explore(control, max_states);
    if g.first_unsafe().is_some() {
        Some(false) // an unsafe marking is a definitive counterexample
    } else if g.complete {
        Some(true)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> Control {
        let mut c = Control::new();
        let places: Vec<PlaceId> = (0..n).map(|i| c.add_place(format!("s{i}"))).collect();
        for i in 0..n - 1 {
            let t = c.add_transition(format!("t{i}"));
            c.flow_st(places[i], t).unwrap();
            c.flow_ts(t, places[i + 1]).unwrap();
        }
        c.set_marked0(places[0], true);
        c
    }

    #[test]
    fn chain_reachability() {
        let c = chain(5);
        let g = ReachGraph::explore(&c, 1000);
        assert!(g.complete);
        assert_eq!(g.state_count(), 5);
        assert!(g.first_unsafe().is_none());
        assert_eq!(is_safe(&c, 1000), Some(true));
    }

    #[test]
    fn unsafe_net_detected() {
        // t0 : s0 → {s1, s2}; t1 : s1 → s0 — refiring t0 piles tokens on s2.
        let mut c = Control::new();
        let s0 = c.add_place("s0");
        let s1 = c.add_place("s1");
        let s2 = c.add_place("s2");
        let t0 = c.add_transition("t0");
        c.flow_st(s0, t0).unwrap();
        c.flow_ts(t0, s1).unwrap();
        c.flow_ts(t0, s2).unwrap();
        let t1 = c.add_transition("t1");
        c.flow_st(s1, t1).unwrap();
        c.flow_ts(t1, s0).unwrap();
        c.set_marked0(s0, true);
        assert_eq!(is_safe(&c, 100), Some(false));
        let g = ReachGraph::explore(&c, 100);
        assert!(g.first_unsafe().is_some());
    }

    #[test]
    fn budget_truncation_reported() {
        // Unbounded net (same as above) with a tiny budget that stops before
        // proving anything.
        let mut c = Control::new();
        let s0 = c.add_place("s0");
        let s1 = c.add_place("s1");
        let t0 = c.add_transition("t0");
        c.flow_st(s0, t0).unwrap();
        c.flow_ts(t0, s0).unwrap();
        c.flow_ts(t0, s1).unwrap();
        c.set_marked0(s0, true);
        let g = ReachGraph::explore(&c, 2);
        assert!(!g.complete);
        assert_eq!(is_safe(&c, 2), None);
    }

    #[test]
    fn edge_budget_bounds_unsafe_generator() {
        // Token generator: t0 : s0 → {s0, s1} never stops minting tokens,
        // so the marking graph is infinite. A huge state budget alone would
        // chase it forever in practice; the edge budget halts exploration.
        let mut c = Control::new();
        let s0 = c.add_place("s0");
        let s1 = c.add_place("s1");
        let t0 = c.add_transition("t0");
        c.flow_st(s0, t0).unwrap();
        c.flow_ts(t0, s0).unwrap();
        c.flow_ts(t0, s1).unwrap();
        c.set_marked0(s0, true);
        let g = ReachGraph::explore_budgeted(
            &c,
            ExploreBudget {
                max_states: usize::MAX / 2,
                max_edges: 64,
            },
        );
        assert!(!g.complete);
        assert!(g.edges.len() <= 64);
        // The truncated prefix already witnesses unsafeness.
        assert!(g.first_unsafe().is_some());
    }

    #[test]
    fn comarked_places_detected() {
        let mut c = Control::new();
        let s0 = c.add_place("s0");
        let sa = c.add_place("sa");
        let sb = c.add_place("sb");
        let t0 = c.add_transition("fork");
        c.flow_st(s0, t0).unwrap();
        c.flow_ts(t0, sa).unwrap();
        c.flow_ts(t0, sb).unwrap();
        c.set_marked0(s0, true);
        let g = ReachGraph::explore(&c, 100);
        assert!(g.complete);
        assert!(g.ever_comarked(sa, sb));
        assert!(!g.ever_comarked(s0, sa));
    }

    #[test]
    fn fork_join_loop_is_safe_and_cyclic() {
        let mut c = Control::new();
        let s0 = c.add_place("s0");
        let sa = c.add_place("sa");
        let sb = c.add_place("sb");
        let t0 = c.add_transition("fork");
        c.flow_st(s0, t0).unwrap();
        c.flow_ts(t0, sa).unwrap();
        c.flow_ts(t0, sb).unwrap();
        let t1 = c.add_transition("join");
        c.flow_st(sa, t1).unwrap();
        c.flow_st(sb, t1).unwrap();
        c.flow_ts(t1, s0).unwrap();
        c.set_marked0(s0, true);
        let g = ReachGraph::explore(&c, 100);
        assert!(g.complete);
        assert_eq!(g.state_count(), 2);
        assert!(g.first_unsafe().is_none());
    }
}
