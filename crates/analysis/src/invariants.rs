#![allow(clippy::needless_range_loop)] // matrix row/col arithmetic reads clearer indexed
//! Place-invariant analysis of the control net.
//!
//! A P-invariant is a weighting `y : S → ℤ`, `y ≠ 0`, with `yᵀ·N = 0` for
//! the incidence matrix `N[s][t] = post(t,s) − pre(t,s)`; the weighted token
//! count `y·M` is then constant over all reachable markings. Invariants give
//! the classic *structural* (reachability-free) sufficient condition for
//! safeness used by experiment E7's structural-vs-exhaustive comparison:
//! a place covered by a non-negative invariant with `y·M0 = 1` can never
//! hold two tokens.

use etpn_core::{Control, PlaceId};

/// A basis of the left null space of the incidence matrix (one weight per
/// live place, in `places` order).
#[derive(Clone, Debug)]
pub struct PInvariants {
    /// Live places, defining the column order of the weight vectors.
    pub places: Vec<PlaceId>,
    /// Basis vectors (integer weights, not necessarily non-negative).
    pub basis: Vec<Vec<i64>>,
}

/// The *cyclic closure* of a control net: every sink transition (one that
/// consumes tokens but produces none — the completion transition of a
/// terminating design) gets restart arcs back to all initially marked
/// places.
///
/// A terminating net has a trivial left null space — firing the sink
/// strictly decreases every weighted token count, so no non-trivial
/// invariant survives and structural safeness / mutual-exclusion analysis
/// can conclude nothing. The closure restores the invariants **soundly**:
/// it only *adds* a transition effect, so the original net's firing
/// sequences are a subset of the closure's, every invariant of the closure
/// is constant along original runs too, and `y·M0` is unchanged. Any
/// bound or exclusion proved on the closure therefore holds for the
/// original net.
pub fn cyclic_closure(control: &Control) -> Control {
    let mut closed = control.clone();
    let marked: Vec<PlaceId> = closed
        .places()
        .iter()
        .filter(|(_, p)| p.marked0)
        .map(|(s, _)| s)
        .collect();
    let sinks: Vec<_> = closed
        .transitions()
        .iter()
        .filter(|(_, t)| !t.pre.is_empty() && t.post.is_empty())
        .map(|(t, _)| t)
        .collect();
    for t in sinks {
        for &s in &marked {
            // Duplicate flows cannot occur: the post set was empty.
            closed.flow_ts(t, s).expect("post set was empty");
        }
    }
    closed
}

/// Compute a basis of P-invariants by fraction-free Gaussian elimination
/// over the transposed incidence matrix.
pub fn p_invariants(control: &Control) -> PInvariants {
    let places: Vec<PlaceId> = control.places().ids().collect();
    let trans: Vec<_> = control.transitions().ids().collect();
    let np = places.len();
    let nt = trans.len();
    let pidx = |s: PlaceId| places.iter().position(|&p| p == s).expect("live place");

    // Rows: [N | I] with N the (np × nt) incidence; eliminate columns of N,
    // surviving rows' identity parts are the invariant basis.
    let mut rows: Vec<(Vec<i128>, Vec<i128>)> = (0..np)
        .map(|i| {
            let n = vec![0i128; nt];
            let mut id = vec![0i128; np];
            id[i] = 1;
            (n, id)
        })
        .collect();
    for (ti, &t) in trans.iter().enumerate() {
        let tr = control.transition(t);
        for &s in &tr.pre {
            rows[pidx(s)].0[ti] -= 1;
        }
        for &s in &tr.post {
            rows[pidx(s)].0[ti] += 1;
        }
    }

    // Eliminate.
    let mut pivot_rows: Vec<usize> = Vec::new();
    for col in 0..nt {
        let Some(pr) = (0..rows.len()).find(|&r| !pivot_rows.contains(&r) && rows[r].0[col] != 0)
        else {
            continue;
        };
        pivot_rows.push(pr);
        let (pn, pid) = rows[pr].clone();
        let pv = pn[col];
        for r in 0..rows.len() {
            if r == pr || rows[r].0[col] == 0 {
                continue;
            }
            let rv = rows[r].0[col];
            for c in 0..nt {
                rows[r].0[c] = rows[r].0[c] * pv - pn[c] * rv;
            }
            for c in 0..np {
                rows[r].1[c] = rows[r].1[c] * pv - pid[c] * rv;
            }
            normalise(&mut rows[r]);
        }
    }

    let basis = rows
        .iter()
        .enumerate()
        .filter(|(r, (n, _))| !pivot_rows.contains(r) && n.iter().all(|&x| x == 0))
        .map(|(_, (_, id))| id.iter().map(|&x| x as i64).collect())
        .collect();
    PInvariants { places, basis }
}

/// Minimal-support *semiflows* — non-negative P-invariants — by the
/// Farkas algorithm.
///
/// [`p_invariants`] returns an arbitrary integer basis of the left null
/// space; a non-negative sum-1 invariant needed by
/// [`PInvariants::excludes`] may only exist as a *combination* of basis
/// vectors (e.g. a three-branch fork yields `s3 − s5` and `chain + s3`,
/// while the cover of the second branch is `chain + s5`). The Farkas
/// construction instead keeps every intermediate row non-negative: for
/// each transition column, surviving rows are the ones already zero there
/// plus all positive/negative pairings scaled to cancel, minimised by
/// support inclusion. The result generates every semiflow by non-negative
/// combination, so checking the returned vectors alone is complete for
/// single-invariant questions.
///
/// Worst-case output is exponential; `None` is returned when the row set
/// exceeds an internal cap, and callers should fall back to the plain
/// basis.
pub fn p_semiflows(control: &Control) -> Option<PInvariants> {
    const MAX_ROWS: usize = 4096;
    let places: Vec<PlaceId> = control.places().ids().collect();
    let trans: Vec<_> = control.transitions().ids().collect();
    let np = places.len();
    let nt = trans.len();
    let pidx = |s: PlaceId| places.iter().position(|&p| p == s).expect("live place");

    let mut rows: Vec<(Vec<i128>, Vec<i128>)> = (0..np)
        .map(|i| {
            let n = vec![0i128; nt];
            let mut id = vec![0i128; np];
            id[i] = 1;
            (n, id)
        })
        .collect();
    for (ti, &t) in trans.iter().enumerate() {
        let tr = control.transition(t);
        for &s in &tr.pre {
            rows[pidx(s)].0[ti] -= 1;
        }
        for &s in &tr.post {
            rows[pidx(s)].0[ti] += 1;
        }
    }

    for col in 0..nt {
        let mut next: Vec<(Vec<i128>, Vec<i128>)> = Vec::new();
        let (mut pos, mut neg) = (Vec::new(), Vec::new());
        for row in rows {
            match row.0[col].cmp(&0) {
                std::cmp::Ordering::Equal => next.push(row),
                std::cmp::Ordering::Greater => pos.push(row),
                std::cmp::Ordering::Less => neg.push(row),
            }
        }
        if next.len() + pos.len() * neg.len() > MAX_ROWS {
            return None;
        }
        for p in &pos {
            for n in &neg {
                let (a, b) = (p.0[col], -n.0[col]);
                let mut combo = (vec![0i128; nt], vec![0i128; np]);
                for c in 0..nt {
                    combo.0[c] = b * p.0[c] + a * n.0[c];
                }
                for c in 0..np {
                    combo.1[c] = b * p.1[c] + a * n.1[c];
                }
                normalise(&mut combo);
                next.push(combo);
            }
        }
        // Minimise by support inclusion: a semiflow whose support strictly
        // contains another's is redundant (and equal supports are dupes).
        let supports: Vec<Vec<usize>> = next
            .iter()
            .map(|r| (0..np).filter(|&c| r.1[c] != 0).collect())
            .collect();
        let keep: Vec<bool> = (0..next.len())
            .map(|i| {
                !supports.iter().enumerate().any(|(j, sj)| {
                    j != i
                        && (sj.len() < supports[i].len()
                            || (sj.len() == supports[i].len() && j < i))
                        && sj.iter().all(|c| supports[i].contains(c))
                })
            })
            .collect();
        rows = next
            .into_iter()
            .zip(keep)
            .filter_map(|(r, k)| k.then_some(r))
            .collect();
    }

    let basis = rows
        .into_iter()
        .map(|(_, id)| id.iter().map(|&x| x as i64).collect())
        .collect();
    Some(PInvariants { places, basis })
}

/// Divide a row by the gcd of its entries and fix the sign.
fn normalise(row: &mut (Vec<i128>, Vec<i128>)) {
    fn gcd(a: i128, b: i128) -> i128 {
        if b == 0 {
            a.abs()
        } else {
            gcd(b, a % b)
        }
    }
    let g = row
        .0
        .iter()
        .chain(row.1.iter())
        .fold(0i128, |acc, &x| gcd(acc, x));
    if g > 1 {
        for x in row.0.iter_mut().chain(row.1.iter_mut()) {
            *x /= g;
        }
    }
    // Make the first nonzero identity entry positive for determinism.
    if let Some(&first) = row.1.iter().find(|&&x| x != 0) {
        if first < 0 {
            for x in row.0.iter_mut().chain(row.1.iter_mut()) {
                *x = -*x;
            }
        }
    }
}

impl PInvariants {
    /// True when every place is *covered*: some basis combination gives a
    /// non-negative invariant `y ≥ 0` with `y(s) ≥ 1` and `y·M0 = 1`. We
    /// check the (common) simple case of basis vectors that are themselves
    /// non-negative — sufficient for the serial/fork-join nets synthesis
    /// produces.
    pub fn structurally_safe(&self, control: &Control) -> bool {
        let m0: Vec<i64> = self
            .places
            .iter()
            .map(|&s| i64::from(control.place(s).marked0))
            .collect();
        self.places.iter().enumerate().all(|(i, _)| {
            self.basis.iter().any(|y| {
                y.iter().all(|&w| w >= 0)
                    && y[i] >= 1
                    && y.iter().zip(&m0).map(|(a, b)| a * b).sum::<i64>() == 1
            })
        })
    }

    /// The column index of a place in the weight vectors, if it is live.
    pub fn place_index(&self, s: PlaceId) -> Option<usize> {
        self.places.iter().position(|&p| p == s)
    }

    /// Structural mutual exclusion: true when some basis invariant `y ≥ 0`
    /// with `y·M0 = 1` weights both `a` and `b` positively. The invariant
    /// pins the weighted token count at 1 in every reachable marking, so
    /// `a` and `b` can never hold tokens simultaneously.
    ///
    /// This is a *sufficient* condition only — the over-approximation the
    /// write-write race lint builds on: pairs this cannot separate are
    /// treated as possibly concurrent, never the other way round.
    pub fn excludes(&self, control: &Control, a: PlaceId, b: PlaceId) -> bool {
        let (Some(ia), Some(ib)) = (self.place_index(a), self.place_index(b)) else {
            return false;
        };
        let m0: Vec<i64> = self
            .places
            .iter()
            .map(|&s| i64::from(control.place(s).marked0))
            .collect();
        self.basis.iter().any(|y| {
            y.iter().all(|&w| w >= 0)
                && y[ia] >= 1
                && y[ib] >= 1
                && y.iter().zip(&m0).map(|(w, m)| w * m).sum::<i64>() == 1
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etpn_core::Marking;

    /// s0 → t0 → s1 → t1 → s0: invariant y = (1, 1).
    fn two_cycle() -> Control {
        let mut c = Control::new();
        let s0 = c.add_place("s0");
        let s1 = c.add_place("s1");
        let t0 = c.add_transition("t0");
        let t1 = c.add_transition("t1");
        c.flow_st(s0, t0).unwrap();
        c.flow_ts(t0, s1).unwrap();
        c.flow_st(s1, t1).unwrap();
        c.flow_ts(t1, s0).unwrap();
        c.set_marked0(s0, true);
        c
    }

    #[test]
    fn cycle_invariant_found() {
        let c = two_cycle();
        let inv = p_invariants(&c);
        assert_eq!(inv.basis.len(), 1);
        assert_eq!(inv.basis[0], vec![1, 1]);
        assert!(inv.structurally_safe(&c));
    }

    #[test]
    fn invariant_holds_along_firing() {
        let c = two_cycle();
        let inv = p_invariants(&c);
        let y = &inv.basis[0];
        let weight = |m: &Marking| {
            inv.places
                .iter()
                .zip(y)
                .map(|(&s, &w)| w * m.count(s) as i64)
                .sum::<i64>()
        };
        let mut m = Marking::initial(&c);
        let w0 = weight(&m);
        for _ in 0..4 {
            let t = m.enabled_transitions(&c)[0];
            m.fire(&c, t);
            assert_eq!(weight(&m), w0, "invariant preserved by firing");
        }
    }

    #[test]
    fn fork_join_invariant() {
        // s0 → fork → {sa, sb} → join → s0. Invariants: s0+sa, s0+sb.
        let mut c = Control::new();
        let s0 = c.add_place("s0");
        let sa = c.add_place("sa");
        let sb = c.add_place("sb");
        let f = c.add_transition("fork");
        c.flow_st(s0, f).unwrap();
        c.flow_ts(f, sa).unwrap();
        c.flow_ts(f, sb).unwrap();
        let j = c.add_transition("join");
        c.flow_st(sa, j).unwrap();
        c.flow_st(sb, j).unwrap();
        c.flow_ts(j, s0).unwrap();
        c.set_marked0(s0, true);
        let inv = p_invariants(&c);
        assert_eq!(inv.basis.len(), 2);
        assert!(inv.structurally_safe(&c));
    }

    #[test]
    fn exclusion_from_invariants() {
        // Serial cycle: s0 and s1 are mutually exclusive (y = s0+s1).
        let c = two_cycle();
        let inv = p_invariants(&c);
        let s0 = c.place_by_name("s0").unwrap();
        let s1 = c.place_by_name("s1").unwrap();
        assert!(inv.excludes(&c, s0, s1));

        // Fork branches sa ∥ sb: genuinely concurrent, no invariant
        // separates them — excludes must stay false.
        let mut c = Control::new();
        let s0 = c.add_place("s0");
        let sa = c.add_place("sa");
        let sb = c.add_place("sb");
        let f = c.add_transition("fork");
        c.flow_st(s0, f).unwrap();
        c.flow_ts(f, sa).unwrap();
        c.flow_ts(f, sb).unwrap();
        let j = c.add_transition("join");
        c.flow_st(sa, j).unwrap();
        c.flow_st(sb, j).unwrap();
        c.flow_ts(j, s0).unwrap();
        c.set_marked0(s0, true);
        let inv = p_invariants(&c);
        assert!(!inv.excludes(&c, sa, sb));
        // But each branch excludes the pre-fork place.
        assert!(inv.excludes(&c, s0, sa));
        assert!(inv.excludes(&c, s0, sb));
    }

    #[test]
    fn unbounded_net_not_structurally_safe() {
        // s0 → t → {s0, s1}: s1 accumulates tokens; no invariant covers it.
        let mut c = Control::new();
        let s0 = c.add_place("s0");
        let s1 = c.add_place("s1");
        let t = c.add_transition("t");
        c.flow_st(s0, t).unwrap();
        c.flow_ts(t, s0).unwrap();
        c.flow_ts(t, s1).unwrap();
        c.set_marked0(s0, true);
        let inv = p_invariants(&c);
        assert!(!inv.structurally_safe(&c));
    }

    #[test]
    fn semiflows_cover_what_the_plain_basis_splits() {
        // s0 → fork → {sa, sb, sc} → join → tail → s0. Gaussian
        // elimination yields difference vectors like sa − sb plus one
        // covering vector, so basis-only exclusion misses e.g. (sb, tail);
        // the Farkas semiflows expose every branch–chain invariant.
        let mut c = Control::new();
        let s0 = c.add_place("s0");
        let sa = c.add_place("sa");
        let sb = c.add_place("sb");
        let sc = c.add_place("sc");
        let tail = c.add_place("tail");
        let f = c.add_transition("fork");
        c.flow_st(s0, f).unwrap();
        for s in [sa, sb, sc] {
            c.flow_ts(f, s).unwrap();
        }
        let j = c.add_transition("join");
        for s in [sa, sb, sc] {
            c.flow_st(s, j).unwrap();
        }
        c.flow_ts(j, tail).unwrap();
        let back = c.add_transition("back");
        c.flow_st(tail, back).unwrap();
        c.flow_ts(back, s0).unwrap();
        c.set_marked0(s0, true);

        let semi = p_semiflows(&c).expect("small net stays under the cap");
        assert!(semi.basis.iter().all(|y| y.iter().all(|&w| w >= 0)));
        assert!(semi.structurally_safe(&c));
        // Every branch is excluded against the serial tail...
        for s in [sa, sb, sc] {
            assert!(semi.excludes(&c, s, tail));
        }
        // ...but genuinely concurrent branches stay unseparated.
        assert!(!semi.excludes(&c, sa, sb));
        assert!(!semi.excludes(&c, sb, sc));
    }

    #[test]
    fn cyclic_closure_restores_invariants_of_terminating_net() {
        // s0 → t0 → s1 → fin (sink): the raw net has no invariant at all,
        // so neither safeness nor exclusion can be concluded structurally.
        let mut c = Control::new();
        let s0 = c.add_place("s0");
        let s1 = c.add_place("s1");
        let t0 = c.add_transition("t0");
        c.flow_st(s0, t0).unwrap();
        c.flow_ts(t0, s1).unwrap();
        let fin = c.add_transition("fin");
        c.flow_st(s1, fin).unwrap();
        c.set_marked0(s0, true);
        let raw = p_invariants(&c);
        assert!(raw.basis.is_empty(), "{:?}", raw.basis);
        assert!(!raw.structurally_safe(&c));

        // The closure (fin restarts s0) recovers the all-ones invariant,
        // which certifies both safeness and s0/s1 mutual exclusion.
        let closed = cyclic_closure(&c);
        let inv = p_invariants(&closed);
        assert!(inv.structurally_safe(&closed));
        assert!(inv.excludes(&closed, s0, s1));
    }

    #[test]
    fn empty_net() {
        let c = Control::new();
        let inv = p_invariants(&c);
        assert!(inv.basis.is_empty());
        assert!(inv.structurally_safe(&c), "vacuously safe");
    }
}
