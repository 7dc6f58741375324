//! The order relations over control structure elements (paper Def. 2.3).
//!
//! From the flow relation `F` we derive its transitive closure `F⁺`, the
//! reachability order `⇒` on control states, the *sequential order*
//! `α = ⇒ ∪ ⇐`, and the *parallel order* `∥ = (S × S) ∖ α`.
//!
//! One clarification we adopt (and document): the paper's `∥` as literally
//! written would relate every acyclic state to itself. Def. 3.2(1) (disjoint
//! associated sets for parallel states) is only satisfiable when `∥` is
//! irreflexive, so we define `Si ∥ Sj ⇔ i ≠ j ∧ ¬(Si α Sj)`.

use crate::bitset::BitMatrix;
use crate::control::Control;
use crate::ids::PlaceId;

/// Precomputed `F⁺`-derived relations for one control structure.
///
/// Matrices are indexed by raw ids over `X = S ∪ T` (places first, then
/// transitions, offset by the place-arena bound). Dead (tombstoned) ids have
/// empty rows/columns.
#[derive(Clone, Debug)]
pub struct ControlRelations {
    place_bound: usize,
    /// `F⁺` over `X = S ∪ T`.
    fplus: BitMatrix,
    live_places: Vec<PlaceId>,
}

impl ControlRelations {
    /// Compute the relations for `control`.
    pub fn compute(control: &Control) -> Self {
        let place_bound = control.places().capacity_bound();
        let trans_bound = control.transitions().capacity_bound();
        let n = place_bound + trans_bound;
        let mut f = BitMatrix::new(n);
        for (t, tr) in control.transitions().iter() {
            let ti = place_bound + t.idx();
            for &s in &tr.pre {
                f.set(s.idx(), ti);
            }
            for &s in &tr.post {
                f.set(ti, s.idx());
            }
        }
        f.transitive_closure();
        Self {
            place_bound,
            fplus: f,
            live_places: control.places().ids().collect(),
        }
    }

    /// Compute the relations over the *acyclified* flow relation: DFS back
    /// edges (from the initially marked places) are dropped before taking
    /// the closure.
    ///
    /// Inside a loop the plain `⇒` makes every body state mutually
    /// reachable, so `α` holds for all body pairs and `∥` is empty — which
    /// renders Def. 3.2(1) and the Def. 4.6 sequential-order condition
    /// vacuous exactly where they matter. On the acyclic skeleton, two
    /// states are parallel iff they can be marked simultaneously *within
    /// one activation* — the notion resource-sharing legality needs. For
    /// the structured (fork/join + structured-loop) nets the compiler emits
    /// this coincides with true marking concurrency; for arbitrary nets it
    /// is a heuristic and the runtime conflict detection remains the
    /// backstop.
    pub fn compute_acyclic(control: &Control) -> Self {
        let place_bound = control.places().capacity_bound();
        let trans_bound = control.transitions().capacity_bound();
        let n = place_bound + trans_bound;

        // Successors over X = S ∪ T (places then transitions).
        let succ = |x: usize| -> Vec<usize> {
            if x < place_bound {
                let s = PlaceId::new(x as u32);
                control
                    .places()
                    .get(s)
                    .map(|p| p.post.iter().map(|t| place_bound + t.idx()).collect())
                    .unwrap_or_default()
            } else {
                let t = crate::ids::TransId::new((x - place_bound) as u32);
                control
                    .transitions()
                    .get(t)
                    .map(|tr| tr.post.iter().map(|s| s.idx()).collect())
                    .unwrap_or_default()
            }
        };

        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour = vec![Colour::White; n];
        let mut f = BitMatrix::new(n);
        let mut roots: Vec<usize> = control.initial_places().iter().map(|s| s.idx()).collect();
        roots.extend(control.places().ids().map(|s| s.idx()));
        roots.extend(control.transitions().ids().map(|t| place_bound + t.idx()));
        for root in roots {
            if colour[root] != Colour::White {
                continue;
            }
            let mut stack: Vec<(usize, Vec<usize>, usize)> = vec![(root, succ(root), 0)];
            colour[root] = Colour::Grey;
            while let Some(&mut (node, ref children, ref mut idx)) = stack.last_mut() {
                if *idx < children.len() {
                    let child = children[*idx];
                    *idx += 1;
                    match colour[child] {
                        Colour::Grey => {} // back edge: dropped
                        Colour::White => {
                            f.set(node, child);
                            colour[child] = Colour::Grey;
                            let ch = succ(child);
                            stack.push((child, ch, 0));
                        }
                        Colour::Black => {
                            f.set(node, child);
                        }
                    }
                } else {
                    colour[node] = Colour::Black;
                    stack.pop();
                }
            }
        }
        f.transitive_closure();
        Self {
            place_bound,
            fplus: f,
            live_places: control.places().ids().collect(),
        }
    }

    /// `Si ⇒ Sj`: a directed `F`-path of length ≥ 1 from `si` to `sj`.
    #[inline]
    pub fn leads_to(&self, si: PlaceId, sj: PlaceId) -> bool {
        self.fplus.get(si.idx(), sj.idx())
    }

    /// `Si α Sj`: the states are in *sequential order* (`⇒ ∪ ⇐`).
    #[inline]
    pub fn sequential(&self, si: PlaceId, sj: PlaceId) -> bool {
        self.leads_to(si, sj) || self.leads_to(sj, si)
    }

    /// `Si ∥ Sj`: the states are in *parallel order* (distinct and not
    /// sequentially ordered).
    #[inline]
    pub fn parallel(&self, si: PlaceId, sj: PlaceId) -> bool {
        si != sj && !self.sequential(si, sj)
    }

    /// Live places covered by this relation snapshot.
    pub fn places(&self) -> &[PlaceId] {
        &self.live_places
    }

    /// The raw index bound separating places from transitions in the
    /// underlying matrix (diagnostic use).
    pub fn place_bound(&self) -> usize {
        self.place_bound
    }

    /// Direct access to the `F⁺` matrix over `X = S ∪ T`.
    pub fn fplus(&self) -> &BitMatrix {
        &self.fplus
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// s0 → t0 → s1 → t1 → s0 (loop), plus s2 unreachable/parallel.
    fn looped() -> (Control, PlaceId, PlaceId, PlaceId) {
        let mut c = Control::new();
        let s0 = c.add_place("s0");
        let s1 = c.add_place("s1");
        let s2 = c.add_place("s2");
        let t0 = c.add_transition("t0");
        let t1 = c.add_transition("t1");
        c.flow_st(s0, t0).unwrap();
        c.flow_ts(t0, s1).unwrap();
        c.flow_st(s1, t1).unwrap();
        c.flow_ts(t1, s0).unwrap();
        (c, s0, s1, s2)
    }

    #[test]
    fn chain_order() {
        let mut c = Control::new();
        let s0 = c.add_place("s0");
        let s1 = c.add_place("s1");
        let s2 = c.add_place("s2");
        let t0 = c.add_transition("t0");
        let t1 = c.add_transition("t1");
        c.flow_st(s0, t0).unwrap();
        c.flow_ts(t0, s1).unwrap();
        c.flow_st(s1, t1).unwrap();
        c.flow_ts(t1, s2).unwrap();
        let r = ControlRelations::compute(&c);
        assert!(r.leads_to(s0, s2));
        assert!(!r.leads_to(s2, s0));
        assert!(r.sequential(s0, s2));
        assert!(!r.parallel(s0, s2));
        assert!(!r.parallel(s0, s0));
    }

    #[test]
    fn loop_states_are_sequential_both_ways() {
        let (c, s0, s1, _) = looped();
        let r = ControlRelations::compute(&c);
        assert!(r.leads_to(s0, s1));
        assert!(r.leads_to(s1, s0));
        assert!(r.leads_to(s0, s0), "loop makes s0 self-reachable");
        assert!(r.sequential(s0, s1));
        assert!(!r.parallel(s0, s0), "parallel is irreflexive");
    }

    #[test]
    fn disconnected_state_is_parallel() {
        let (c, s0, s1, s2) = looped();
        let r = ControlRelations::compute(&c);
        assert!(r.parallel(s0, s2));
        assert!(r.parallel(s2, s1));
        // The loop's own states are the only ordered pair.
        assert!(!r.parallel(s0, s1));
    }

    #[test]
    fn fork_creates_parallel_branches() {
        // s0 → t → {s1, s2}: branches parallel, both sequential to s0.
        let mut c = Control::new();
        let s0 = c.add_place("s0");
        let s1 = c.add_place("s1");
        let s2 = c.add_place("s2");
        let t = c.add_transition("t");
        c.flow_st(s0, t).unwrap();
        c.flow_ts(t, s1).unwrap();
        c.flow_ts(t, s2).unwrap();
        let r = ControlRelations::compute(&c);
        assert!(r.parallel(s1, s2));
        assert!(r.sequential(s0, s1));
        assert!(r.sequential(s0, s2));
    }
}
