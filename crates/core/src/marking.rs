//! Markings and the structural token game (paper Def. 3.1(1)–(6)).
//!
//! A marking `M : S → ℕ` assigns tokens to control states. This module
//! implements the *structural* part of the firing rule — enablement by
//! tokens, token movement — independent of the data path. Guard evaluation
//! (Def. 3.1(4)) needs data-path values and lives in `etpn-sim`; the
//! reachability analyses in `etpn-analysis` deliberately ignore guards to
//! obtain a conservative over-approximation.

use crate::control::Control;
use crate::ids::{PlaceId, TransId};

/// A token assignment `M : S → ℕ`, indexed densely by raw place id.
///
/// `marked` counts the places holding a token and `over` those holding two
/// or more, so termination and safeness are O(1). [`Marking::add`] and
/// [`Marking::remove`], the only mutators, keep them as places cross 0↔1
/// and 1↔2 tokens; being functions of `tokens`, they keep the derived `Eq`
/// and `Hash` equal to comparing token vectors.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Marking {
    tokens: Vec<u32>,
    marked: u32,
    over: u32,
}

impl Marking {
    /// The empty marking sized for `control`.
    pub fn empty(control: &Control) -> Self {
        Self {
            tokens: vec![0; control.places().capacity_bound()],
            marked: 0,
            over: 0,
        }
    }

    /// The initial marking `M0` of `control` (Def. 3.1(2)).
    pub fn initial(control: &Control) -> Self {
        let mut m = Self::empty(control);
        for (s, p) in control.places().iter() {
            if p.marked0 {
                m.add(s);
            }
        }
        m
    }

    /// The raw token-count vector, indexed by raw place id (checkpoint
    /// snapshots serialise this).
    pub fn counts(&self) -> &[u32] {
        &self.tokens
    }

    /// Rebuild a marking from a raw token-count vector (the inverse of
    /// [`Marking::counts`]; checkpoint restore).
    pub fn from_counts(tokens: Vec<u32>) -> Self {
        let count = |min: u32| tokens.iter().filter(|&&c| c >= min).count() as u32;
        let (marked, over) = (count(1), count(2));
        Self {
            tokens,
            marked,
            over,
        }
    }

    /// `M(s)` — the token count of a place.
    #[inline]
    pub fn count(&self, s: PlaceId) -> u32 {
        self.tokens.get(s.idx()).copied().unwrap_or(0)
    }

    /// True iff `M(s) ≥ 1`.
    #[inline]
    pub fn is_marked(&self, s: PlaceId) -> bool {
        self.count(s) >= 1
    }

    /// Add one token to `s`.
    pub fn add(&mut self, s: PlaceId) {
        let c = &mut self.tokens[s.idx()];
        *c += 1;
        self.marked += u32::from(*c == 1);
        self.over += u32::from(*c == 2);
    }

    /// Remove one token from `s`; panics if the place is empty (the caller
    /// must have checked enablement).
    pub fn remove(&mut self, s: PlaceId) {
        let c = &mut self.tokens[s.idx()];
        assert!(*c > 0, "removing token from empty {s}");
        *c -= 1;
        self.marked -= u32::from(*c == 0);
        self.over -= u32::from(*c == 1);
    }

    /// Places currently holding at least one token, in id order.
    pub fn marked_places(&self) -> Vec<PlaceId> {
        self.tokens
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| PlaceId::new(i as u32))
            .collect()
    }

    /// Total number of tokens.
    pub fn total(&self) -> u32 {
        self.tokens.iter().sum()
    }

    /// True iff no control state holds a token — the execution is
    /// terminated (Def. 3.1(6)). O(1): reads the marked-place count.
    #[inline]
    pub fn is_terminated(&self) -> bool {
        self.marked == 0
    }

    /// True iff no place holds more than one token (safeness at this
    /// marking; Def. 3.2(2) requires it at *every reachable* marking).
    /// O(1): reads the over-full-place count.
    #[inline]
    pub fn is_safe(&self) -> bool {
        self.over == 0
    }

    /// Structural enablement (Def. 3.1(3)): every input place of `t` holds
    /// at least one token. Guard truth is checked separately by the
    /// simulator.
    pub fn enabled(&self, control: &Control, t: TransId) -> bool {
        control.transition(t).pre.iter().all(|&s| self.is_marked(s))
    }

    /// Fire `t` (Def. 3.1(5)): remove a token from each input place,
    /// deposit one in each output place. Panics if not enabled.
    pub fn fire(&mut self, control: &Control, t: TransId) {
        let tr = control.transition(t);
        for &s in &tr.pre {
            self.remove(s);
        }
        for &s in &tr.post {
            self.add(s);
        }
    }

    /// All structurally enabled transitions at this marking, in id order.
    pub fn enabled_transitions(&self, control: &Control) -> Vec<TransId> {
        control
            .transitions()
            .ids()
            .filter(|&t| self.enabled(control, t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// s0 →t0→ s1 →t1→ (s2, s3); t2: (s2, s3) → s0
    fn fork_join() -> (Control, Vec<PlaceId>, Vec<TransId>) {
        let mut c = Control::new();
        let s: Vec<PlaceId> = (0..4).map(|i| c.add_place(format!("s{i}"))).collect();
        let t0 = c.add_transition("t0");
        let t1 = c.add_transition("t1");
        let t2 = c.add_transition("t2");
        c.flow_st(s[0], t0).unwrap();
        c.flow_ts(t0, s[1]).unwrap();
        c.flow_st(s[1], t1).unwrap();
        c.flow_ts(t1, s[2]).unwrap();
        c.flow_ts(t1, s[3]).unwrap();
        c.flow_st(s[2], t2).unwrap();
        c.flow_st(s[3], t2).unwrap();
        c.flow_ts(t2, s[0]).unwrap();
        c.set_marked0(s[0], true);
        (c, s, vec![t0, t1, t2])
    }

    #[test]
    fn initial_marking_matches_m0() {
        let (c, s, _) = fork_join();
        let m = Marking::initial(&c);
        assert!(m.is_marked(s[0]));
        assert_eq!(m.total(), 1);
        assert!(m.is_safe());
        assert!(!m.is_terminated());
    }

    #[test]
    fn fork_produces_two_tokens_join_consumes_both() {
        let (c, s, t) = fork_join();
        let mut m = Marking::initial(&c);
        assert_eq!(m.enabled_transitions(&c), vec![t[0]]);
        m.fire(&c, t[0]);
        assert!(m.is_marked(s[1]));
        m.fire(&c, t[1]);
        assert_eq!(m.total(), 2);
        assert!(m.is_marked(s[2]) && m.is_marked(s[3]));
        assert!(m.enabled(&c, t[2]));
        m.fire(&c, t[2]);
        assert_eq!(m.marked_places(), vec![s[0]]);
    }

    #[test]
    fn join_not_enabled_with_one_branch() {
        let (c, s, t) = fork_join();
        let mut m = Marking::empty(&c);
        m.add(s[2]);
        assert!(!m.enabled(&c, t[2]));
        m.add(s[3]);
        assert!(m.enabled(&c, t[2]));
    }

    #[test]
    fn unsafe_marking_detected() {
        let (c, s, _) = fork_join();
        let mut m = Marking::empty(&c);
        m.add(s[1]);
        m.add(s[1]);
        assert!(!m.is_safe());
        assert_eq!(m.count(s[1]), 2);
    }

    #[test]
    #[should_panic(expected = "removing token from empty")]
    fn firing_disabled_transition_panics() {
        let (c, _, t) = fork_join();
        let mut m = Marking::empty(&c);
        m.fire(&c, t[0]);
    }
}
