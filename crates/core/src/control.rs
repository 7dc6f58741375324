//! The control structure: a marked Petri net with guards and a control
//! mapping onto data-path arcs (paper Def. 2.2).
//!
//! `S`-elements (places) are *control states*: while a place holds a token,
//! the data-path arcs in its control set `C(S)` are open. `T`-elements
//! (transitions) move tokens; each may be *guarded* by output ports of the
//! data path (`G : O → 2^T`), with multiple guards OR-combined
//! (Def. 3.1(4)). The flow relation `F ⊆ (S×T) ∪ (T×S)` is stored as
//! pre-/post-set lists kept consistent on both sides.

use crate::arena::TypedVec;
use crate::error::{CoreError, CoreResult};
use crate::idlist::IdList;
use crate::ids::{ArcId, PlaceId, PortId, TransId};

/// An `S`-element: a control state (place).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Place {
    /// Human-readable name.
    pub name: String,
    /// The control set `C(S)`: data-path arcs opened while this place is
    /// marked.
    pub ctrl: IdList<ArcId>,
    /// `M0(S) = 1` — the place holds a token initially.
    pub marked0: bool,
    /// Input transitions: `{T | (T, S) ∈ F}`.
    pub pre: IdList<TransId>,
    /// Output transitions: `{T | (S, T) ∈ F}`.
    pub post: IdList<TransId>,
}

/// A `T`-element: a transition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Transition {
    /// Human-readable name.
    pub name: String,
    /// Input places: `{S | (S, T) ∈ F}`.
    pub pre: IdList<PlaceId>,
    /// Output places: `{S | (T, S) ∈ F}`.
    pub post: IdList<PlaceId>,
    /// Guarding output ports; the transition's guard is the OR of their
    /// truth values (Def. 3.1(4)). Empty means unguarded (always true).
    pub guards: IdList<PortId>,
}

/// The control structure `(S, T, F, C, G, M0)`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Control {
    places: TypedVec<PlaceId, Place>,
    transitions: TypedVec<TransId, Transition>,
}

impl Control {
    /// An empty control structure.
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Add a control state.
    pub fn add_place(&mut self, name: impl Into<String>) -> PlaceId {
        self.places.push(Place {
            name: name.into(),
            ctrl: IdList::new(),
            marked0: false,
            pre: IdList::new(),
            post: IdList::new(),
        })
    }

    /// Add a transition.
    pub fn add_transition(&mut self, name: impl Into<String>) -> TransId {
        self.transitions.push(Transition {
            name: name.into(),
            pre: IdList::new(),
            post: IdList::new(),
            guards: IdList::new(),
        })
    }

    /// Add `(S, T)` to the flow relation.
    pub fn flow_st(&mut self, s: PlaceId, t: TransId) -> CoreResult<()> {
        if self.transitions[t].pre.contains(&s) {
            return Err(CoreError::DuplicateFlow);
        }
        self.places[s].post.push(t);
        self.transitions[t].pre.push(s);
        Ok(())
    }

    /// Add `(T, S)` to the flow relation.
    pub fn flow_ts(&mut self, t: TransId, s: PlaceId) -> CoreResult<()> {
        if self.transitions[t].post.contains(&s) {
            return Err(CoreError::DuplicateFlow);
        }
        self.places[s].pre.push(t);
        self.transitions[t].post.push(s);
        Ok(())
    }

    /// Guard transition `t` with output port `p` (extends `G(p)` by `t`).
    pub fn add_guard(&mut self, t: TransId, p: PortId) {
        self.transitions[t].guards.push(p);
    }

    /// Put arc `a` under control of place `s` (extends `C(s)`).
    pub fn add_ctrl(&mut self, s: PlaceId, a: ArcId) {
        if !self.places[s].ctrl.contains(&a) {
            self.places[s].ctrl.push(a);
        }
    }

    /// Set the initial marking of a place.
    pub fn set_marked0(&mut self, s: PlaceId, marked: bool) {
        self.places[s].marked0 = marked;
    }

    /// Remove and return the control set `C(s)` (used by state chaining,
    /// which folds one state's arcs into another's).
    pub fn take_ctrl(&mut self, s: PlaceId) -> Vec<ArcId> {
        std::mem::take(&mut self.places[s].ctrl).to_vec()
    }

    /// Remove `(S, T)` from the flow relation, if present.
    pub fn unflow_st(&mut self, s: PlaceId, t: TransId) {
        self.places[s].post.retain(|&x| x != t);
        self.transitions[t].pre.retain(|&x| x != s);
    }

    /// Remove `(T, S)` from the flow relation, if present.
    pub fn unflow_ts(&mut self, t: TransId, s: PlaceId) {
        self.places[s].pre.retain(|&x| x != t);
        self.transitions[t].post.retain(|&x| x != s);
    }

    /// Replace every guard reference to output port `old` by `new`
    /// (the `G'` substitution of the vertex merger, Def. 4.6).
    pub fn substitute_guard_port(&mut self, old: PortId, new: PortId) {
        for (_, tr) in self.transitions.iter_mut() {
            for g in tr.guards.iter_mut() {
                if *g == old {
                    *g = new;
                }
            }
        }
    }

    /// Remove a transition, detaching it from all places.
    ///
    /// Used by the data-invariant transformations, which rebuild `(T, F)`
    /// while leaving `(S, C, G, M0)` untouched (Def. 4.5).
    pub fn remove_transition(&mut self, t: TransId) -> CoreResult<()> {
        let trans = self
            .transitions
            .remove(t)
            .ok_or(CoreError::Dangling("transition", t.0))?;
        for s in trans.pre {
            self.places[s].post.retain(|&x| x != t);
        }
        for s in trans.post {
            self.places[s].pre.retain(|&x| x != t);
        }
        Ok(())
    }

    /// Remove a place. Fails while any flow edge still attaches to it; the
    /// caller must detach it first (used by the compiler's idle-place
    /// compaction pass).
    pub fn remove_place(&mut self, s: PlaceId) -> CoreResult<()> {
        let place = self
            .places
            .get(s)
            .ok_or(CoreError::Dangling("place", s.0))?;
        if !place.pre.is_empty() || !place.post.is_empty() {
            return Err(CoreError::Invalid(format!(
                "place {s} still has flow edges"
            )));
        }
        self.places.remove(s);
        Ok(())
    }

    /// Remove every transition (pre/post lists of places are cleared too).
    pub fn clear_transitions(&mut self) {
        let ids: Vec<TransId> = self.transitions.ids().collect();
        for t in ids {
            self.remove_transition(t).expect("live id");
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// The place arena.
    pub fn places(&self) -> &TypedVec<PlaceId, Place> {
        &self.places
    }

    /// The transition arena.
    pub fn transitions(&self) -> &TypedVec<TransId, Transition> {
        &self.transitions
    }

    /// Borrow a place.
    pub fn place(&self, s: PlaceId) -> &Place {
        &self.places[s]
    }

    /// Borrow a transition.
    pub fn transition(&self, t: TransId) -> &Transition {
        &self.transitions[t]
    }

    /// The control set `C(S)`.
    pub fn ctrl(&self, s: PlaceId) -> &[ArcId] {
        &self.places[s].ctrl
    }

    /// Places marked by `M0` in id order.
    pub fn initial_places(&self) -> Vec<PlaceId> {
        self.places
            .iter()
            .filter(|(_, p)| p.marked0)
            .map(|(id, _)| id)
            .collect()
    }

    /// Find a place by name (linear scan; for tests and builders).
    pub fn place_by_name(&self, name: &str) -> Option<PlaceId> {
        self.places
            .iter()
            .find(|(_, p)| p.name == name)
            .map(|(id, _)| id)
    }

    /// The set `G(p)` of transitions guarded by output port `p`.
    pub fn guarded_by(&self, p: PortId) -> Vec<TransId> {
        self.transitions
            .iter()
            .filter(|(_, t)| t.guards.contains(&p))
            .map(|(id, _)| id)
            .collect()
    }

    /// The place (if any) whose control set contains arc `a`.
    ///
    /// Multiple places may control the same arc (the arc is then open under
    /// each); all are returned.
    pub fn controllers_of(&self, a: ArcId) -> Vec<PlaceId> {
        self.places
            .iter()
            .filter(|(_, p)| p.ctrl.contains(&a))
            .map(|(id, _)| id)
            .collect()
    }

    /// Structural sanity: pre/post lists mutually consistent.
    pub fn validate(&self) -> CoreResult<()> {
        for (s, p) in self.places.iter() {
            for &t in &p.post {
                if !self
                    .transitions
                    .get(t)
                    .is_some_and(|tr| tr.pre.contains(&s))
                {
                    return Err(CoreError::Invalid(format!(
                        "flow ({s},{t}) missing reverse link"
                    )));
                }
            }
            for &t in &p.pre {
                if !self
                    .transitions
                    .get(t)
                    .is_some_and(|tr| tr.post.contains(&s))
                {
                    return Err(CoreError::Invalid(format!(
                        "flow ({t},{s}) missing reverse link"
                    )));
                }
            }
        }
        for (t, tr) in self.transitions.iter() {
            for &s in &tr.pre {
                if !self.places.get(s).is_some_and(|p| p.post.contains(&t)) {
                    return Err(CoreError::Invalid(format!(
                        "flow ({s},{t}) missing forward link"
                    )));
                }
            }
            for &s in &tr.post {
                if !self.places.get(s).is_some_and(|p| p.pre.contains(&t)) {
                    return Err(CoreError::Invalid(format!(
                        "flow ({t},{s}) missing forward link"
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state_loop() -> (Control, PlaceId, PlaceId, TransId, TransId) {
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
        (c, s0, s1, t0, t1)
    }

    #[test]
    fn flow_links_both_sides() {
        let (c, s0, s1, t0, _) = two_state_loop();
        assert_eq!(c.place(s0).post, vec![t0]);
        assert_eq!(c.transition(t0).pre, vec![s0]);
        assert_eq!(c.transition(t0).post, vec![s1]);
        assert_eq!(c.place(s1).pre, vec![t0]);
        c.validate().unwrap();
    }

    #[test]
    fn duplicate_flow_rejected() {
        let (mut c, s0, _, t0, _) = two_state_loop();
        assert_eq!(c.flow_st(s0, t0), Err(CoreError::DuplicateFlow));
        assert!(matches!(
            c.flow_ts(t0, PlaceId::new(1)),
            Err(CoreError::DuplicateFlow)
        ));
    }

    #[test]
    fn initial_marking() {
        let (c, s0, _, _, _) = two_state_loop();
        assert_eq!(c.initial_places(), vec![s0]);
    }

    #[test]
    fn guards_and_inverse_mapping() {
        let (mut c, _, _, t0, t1) = two_state_loop();
        let p = PortId::new(9);
        c.add_guard(t0, p);
        c.add_guard(t1, p);
        assert_eq!(c.guarded_by(p), vec![t0, t1]);
        assert!(c.guarded_by(PortId::new(8)).is_empty());
    }

    #[test]
    fn ctrl_mapping_dedups() {
        let (mut c, s0, _, _, _) = two_state_loop();
        let a = ArcId::new(3);
        c.add_ctrl(s0, a);
        c.add_ctrl(s0, a);
        assert_eq!(c.ctrl(s0), &[a]);
        assert_eq!(c.controllers_of(a), vec![s0]);
    }

    #[test]
    fn remove_transition_detaches() {
        let (mut c, s0, s1, t0, t1) = two_state_loop();
        c.remove_transition(t0).unwrap();
        assert!(c.place(s0).post.is_empty());
        assert!(c.place(s1).pre.is_empty());
        assert_eq!(c.place(s1).post, vec![t1]);
        c.validate().unwrap();
        assert!(c.remove_transition(t0).is_err());
    }

    #[test]
    fn clear_transitions_preserves_places() {
        let (mut c, s0, s1, _, _) = two_state_loop();
        c.clear_transitions();
        assert_eq!(c.transitions().len(), 0);
        assert!(c.place(s0).pre.is_empty() && c.place(s0).post.is_empty());
        assert!(c.place(s1).pre.is_empty() && c.place(s1).post.is_empty());
        assert_eq!(c.places().len(), 2);
        assert!(c.place(s0).marked0);
        c.validate().unwrap();
    }

    #[test]
    fn place_lookup_by_name() {
        let (c, s0, _, _, _) = two_state_loop();
        assert_eq!(c.place_by_name("s0"), Some(s0));
        assert_eq!(c.place_by_name("sX"), None);
    }
}
