#![allow(clippy::needless_range_loop)]
//! Model-based property tests for the core data structures: the bitset and
//! bit-matrix kernels that all relation computations stand on, the arena,
//! the value algebra, and the token game.

use etpn_core::arena::TypedVec;
use etpn_core::bitset::{BitMatrix, BitSet};
use etpn_core::ids::VertexId;
use etpn_core::{Control, Marking, Op, PlaceId, Value};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    /// BitSet agrees with a HashSet model under a random op sequence.
    #[test]
    fn bitset_matches_hashset_model(ops in prop::collection::vec((0usize..200, any::<bool>()), 1..200)) {
        let mut s = BitSet::new(200);
        let mut model: HashSet<usize> = HashSet::new();
        for (i, insert) in ops {
            if insert {
                prop_assert_eq!(s.insert(i), model.insert(i));
            } else {
                prop_assert_eq!(s.remove(i), model.remove(&i));
            }
            prop_assert_eq!(s.count(), model.len());
            prop_assert_eq!(s.contains(i), model.contains(&i));
        }
        let mut collected: Vec<usize> = s.iter().collect();
        let mut expected: Vec<usize> = model.into_iter().collect();
        collected.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(collected, expected);
    }

    /// Union and intersection match the set-theoretic model.
    #[test]
    fn bitset_algebra(a in prop::collection::hash_set(0usize..150, 0..60),
                      b in prop::collection::hash_set(0usize..150, 0..60)) {
        let mk = |m: &HashSet<usize>| {
            let mut s = BitSet::new(150);
            for &i in m {
                s.insert(i);
            }
            s
        };
        let (sa, sb) = (mk(&a), mk(&b));
        let mut u = sa.clone();
        u.union_with(&sb);
        prop_assert_eq!(u.count(), a.union(&b).count());
        let mut i = sa.clone();
        i.intersect_with(&sb);
        prop_assert_eq!(i.count(), a.intersection(&b).count());
        prop_assert_eq!(sa.intersects(&sb), !a.is_disjoint(&b));
    }

    /// The word-parallel Warshall closure matches a naive reference.
    #[test]
    fn transitive_closure_matches_reference(
        n in 1usize..40,
        edges in prop::collection::vec((0usize..40, 0usize..40), 0..120)
    ) {
        let mut m = BitMatrix::new(n);
        let mut reference = vec![vec![false; n]; n];
        for (i, j) in edges {
            if i < n && j < n {
                m.set(i, j);
                reference[i][j] = true;
            }
        }
        m.transitive_closure();
        // Naive Floyd-Warshall.
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    if reference[i][k] && reference[k][j] {
                        reference[i][j] = true;
                    }
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(m.get(i, j), reference[i][j], "({}, {})", i, j);
            }
        }
    }

    /// The arena keeps id↔value associations stable across removals.
    #[test]
    fn arena_model(ops in prop::collection::vec(any::<Option<i32>>(), 1..100)) {
        let mut arena: TypedVec<VertexId, i32> = TypedVec::new();
        let mut model: Vec<(VertexId, i32)> = Vec::new();
        for op in ops {
            match op {
                Some(v) => {
                    let id = arena.push(v);
                    model.push((id, v));
                }
                None => {
                    if let Some((id, v)) = model.pop() {
                        prop_assert_eq!(arena.remove(id), Some(v));
                        prop_assert_eq!(arena.remove(id), None);
                    }
                }
            }
            prop_assert_eq!(arena.len(), model.len());
            for &(id, v) in &model {
                prop_assert_eq!(arena.get(id), Some(&v));
            }
        }
    }

    /// `⊥` is absorbing for every strict operation.
    #[test]
    fn undef_absorbs(x in any::<i64>()) {
        for op in [Op::Add, Op::Sub, Op::Mul, Op::Div, Op::Rem, Op::And, Op::Or,
                   Op::Xor, Op::Shl, Op::Shr, Op::Eq, Op::Ne, Op::Lt, Op::Le,
                   Op::Gt, Op::Ge, Op::Min, Op::Max] {
            prop_assert_eq!(op.eval(&[Value::Undef, Value::Def(x)]), Some(Value::Undef));
            prop_assert_eq!(op.eval(&[Value::Def(x), Value::Undef]), Some(Value::Undef));
        }
    }

    /// Comparisons always produce a boolean bit, and complementary pairs
    /// are exhaustive and exclusive — the property the conflict-freedom
    /// checker's syntactic criterion relies on.
    #[test]
    fn complementary_predicates(a in any::<i64>(), b in any::<i64>()) {
        let args = [Value::Def(a), Value::Def(b)];
        for (op, comp) in [(Op::Eq, Op::Ne), (Op::Lt, Op::Ge), (Op::Le, Op::Gt)] {
            let x = op.eval(&args).unwrap();
            let y = comp.eval(&args).unwrap();
            prop_assert!(x == Value::TRUE || x == Value::FALSE);
            prop_assert!(x.is_true() != y.is_true(), "{:?}/{:?} on ({}, {})", op, comp, a, b);
        }
    }

    /// Firing conserves tokens according to the incidence of the fired
    /// transition: Δtokens = |post| − |pre|.
    #[test]
    fn firing_token_delta(n_places in 2usize..8, pre_k in 1usize..3, post_k in 0usize..3) {
        let mut c = Control::new();
        let places: Vec<_> = (0..n_places).map(|i| c.add_place(format!("s{i}"))).collect();
        let t = c.add_transition("t");
        let pre: Vec<_> = places.iter().take(pre_k.min(n_places)).copied().collect();
        let post: Vec<_> = places.iter().rev().take(post_k.min(n_places)).copied().collect();
        for &s in &pre {
            c.flow_st(s, t).unwrap();
        }
        for &s in &post {
            c.flow_ts(t, s).unwrap();
        }
        let mut m = Marking::empty(&c);
        for &s in &pre {
            m.add(s);
        }
        let before = m.total();
        prop_assert!(m.enabled(&c, t));
        m.fire(&c, t);
        prop_assert_eq!(m.total() as i64, before as i64 - pre.len() as i64 + post.len() as i64);
    }

    /// The marking's O(1) termination and safeness summaries agree with a
    /// scan of the token counts after every `add`, `remove`, `fire` and
    /// `from_counts`, and markings that reach the same counts by different
    /// histories compare equal (so the derived `Hash` agrees too).
    #[test]
    fn marking_summaries_follow_the_counts(
        n in 1usize..6,
        flows in prop::collection::vec((0usize..6, 0usize..3, any::<bool>()), 0..12),
        ops in prop::collection::vec((0u8..4, 0usize..6, prop::collection::vec(0u32..3, 0..6)), 1..40),
    ) {
        let mut c = Control::new();
        let places: Vec<_> = (0..n).map(|i| c.add_place(format!("s{i}"))).collect();
        let trans: Vec<_> = (0..3).map(|i| c.add_transition(format!("t{i}"))).collect();
        for (s, t, pre) in flows {
            let (s, t) = (places[s % n], trans[t]);
            // A repeated flow is refused; the first one stands.
            let _ = if pre { c.flow_st(s, t) } else { c.flow_ts(t, s) };
        }
        let mut m = Marking::empty(&c);
        for (op, k, mut counts) in ops {
            let (s, t) = (places[k % n], trans[k % 3]);
            match op {
                0 => m.add(s),
                1 if m.count(s) > 0 => m.remove(s),
                2 if m.enabled(&c, t) => m.fire(&c, t),
                3 => {
                    counts.resize(n, 0);
                    m = Marking::from_counts(counts);
                }
                _ => {}
            }
            prop_assert_eq!(m.is_terminated(), m.counts().iter().all(|&c| c == 0));
            prop_assert_eq!(m.is_safe(), m.counts().iter().all(|&c| c <= 1));
            let mut rebuilt = Marking::empty(&c);
            for (i, &k) in m.counts().iter().enumerate() {
                (0..k).for_each(|_| rebuilt.add(PlaceId::new(i as u32)));
            }
            prop_assert_eq!(&Marking::from_counts(m.counts().to_vec()), &m);
            prop_assert_eq!(&rebuilt, &m);
        }
    }
}
