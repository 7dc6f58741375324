//! External events and external event structures (paper Defs. 3.4–3.6).
//!
//! An *external event* is a pair `(Ai, w)` — an external arc and the value
//! passed over it — labelled with the control state whose marking made it
//! happen. The *external event structure* `S(Γ) = (E, ≺, ≍)` collects all
//! external events with their precedence (`≺`) and concurrency (`≍`)
//! relations; by Def. 3.6 it **is** the semantics of the system, and
//! `Γ ≡ Γ'` iff `S(Γ) = S(Γ')` (Def. 4.1).
//!
//! Events are canonically keyed by `(arc, occurrence index)` so structures
//! obtained from different runs/designs can be compared for equality.

use crate::ids::{ArcId, PlaceId};
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};

/// One observed external event instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExternalEvent {
    /// The external arc on which the event occurred.
    pub arc: ArcId,
    /// The value passed over the arc.
    pub value: Value,
    /// The control state labelling the event (Def. 3.4).
    pub place: PlaceId,
    /// The control step at which the event occurred (model time).
    pub step: u64,
}

/// Canonical identity of an event across runs: the `k`-th event on arc `a`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventKey {
    /// The external arc.
    pub arc: ArcId,
    /// Zero-based occurrence index on that arc.
    pub k: u32,
}

/// The external event structure `S(Γ) = (E, ≺, ≍)` (Def. 3.5).
///
/// Two structures compare equal exactly when the event sets (as per-arc
/// value sequences), the precedent relations, and the concurrent relations
/// all coincide — the semantic equivalence of Def. 4.1.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct EventStructure {
    /// `E`, organised as the value sequence observed on each external arc.
    pub events: BTreeMap<ArcId, Vec<Value>>,
    /// The precedent relation `≺` over canonical event keys.
    pub precedent: BTreeSet<(EventKey, EventKey)>,
    /// The concurrent relation `≍`, stored with `lhs < rhs`.
    pub concurrent: BTreeSet<(EventKey, EventKey)>,
}

impl EventStructure {
    /// An empty structure (no external events).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of events in `E`.
    pub fn event_count(&self) -> usize {
        self.events.values().map(Vec::len).sum()
    }

    /// The value sequence observed on one arc (empty if never active).
    pub fn values_on(&self, arc: ArcId) -> &[Value] {
        self.events.get(&arc).map_or(&[], Vec::as_slice)
    }

    /// Record one event occurrence, returning its canonical key.
    pub fn push_event(&mut self, arc: ArcId, value: Value) -> EventKey {
        let seq = self.events.entry(arc).or_default();
        let key = EventKey {
            arc,
            k: seq.len() as u32,
        };
        seq.push(value);
        key
    }

    /// Record `a ≺ b`.
    pub fn add_precedent(&mut self, a: EventKey, b: EventKey) {
        self.precedent.insert((a, b));
    }

    /// Record `a ≍ b` (symmetric; stored normalised).
    pub fn add_concurrent(&mut self, a: EventKey, b: EventKey) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        if lo != hi {
            self.concurrent.insert((lo, hi));
        }
    }

    /// True when `a ≺ b` holds.
    pub fn precedes(&self, a: EventKey, b: EventKey) -> bool {
        self.precedent.contains(&(a, b))
    }

    /// True when `a ≍ b` holds.
    pub fn concurrent_with(&self, a: EventKey, b: EventKey) -> bool {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        self.concurrent.contains(&(lo, hi))
    }

    /// True when the two events are in neither `≺` nor `≍` — the *casual*
    /// (free) relation of the paper: they may occur in any order.
    pub fn casual(&self, a: EventKey, b: EventKey) -> bool {
        a != b && !self.precedes(a, b) && !self.precedes(b, a) && !self.concurrent_with(a, b)
    }

    /// The first difference from `other`, or `None` when the structures
    /// are equal. Arcs are searched in id order, then `≺`, then `≍`; `self`
    /// is the left-hand side.
    pub fn first_difference(&self, other: &EventStructure) -> Option<StructureDiff> {
        let arcs: BTreeSet<ArcId> = self
            .events
            .keys()
            .chain(other.events.keys())
            .copied()
            .collect();
        for arc in arcs {
            let (a, b) = (self.values_on(arc), other.values_on(arc));
            if a != b {
                let k = a.iter().zip(b).take_while(|(x, y)| x == y).count();
                return Some(StructureDiff::Event {
                    arc,
                    k: k as u32,
                    lhs: a.get(k).copied(),
                    rhs: b.get(k).copied(),
                });
            }
        }
        if let Some(&pair) = self.precedent.symmetric_difference(&other.precedent).next() {
            let in_lhs = self.precedent.contains(&pair);
            return Some(StructureDiff::Precedent { pair, in_lhs });
        }
        if let Some(&pair) = self
            .concurrent
            .symmetric_difference(&other.concurrent)
            .next()
        {
            let in_lhs = self.concurrent.contains(&pair);
            return Some(StructureDiff::Concurrent { pair, in_lhs });
        }
        None
    }
}

/// The first difference between two external event structures, as
/// [`EventStructure::first_difference`] finds it: an event the two sides
/// saw differently, or a `≺`/`≍` pair only one side has.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StructureDiff {
    /// The value sequences on `arc` first differ at occurrence `k`; a side
    /// with no `k`-th event there reads `None`.
    Event {
        /// The external arc.
        arc: ArcId,
        /// Zero-based occurrence index.
        k: u32,
        /// The left-hand side's `k`-th value.
        lhs: Option<Value>,
        /// The right-hand side's `k`-th value.
        rhs: Option<Value>,
    },
    /// A precedent pair `pair.0 ≺ pair.1` only one side has.
    Precedent {
        /// The pair.
        pair: (EventKey, EventKey),
        /// True when the left-hand side has it.
        in_lhs: bool,
    },
    /// A concurrent pair `pair.0 ≍ pair.1` only one side has.
    Concurrent {
        /// The pair (stored with `pair.0 < pair.1`).
        pair: (EventKey, EventKey),
        /// True when the left-hand side has it.
        in_lhs: bool,
    },
}

impl StructureDiff {
    /// The difference in words, with `name` naming each external arc and
    /// `sides` naming the left- and right-hand side.
    pub fn describe(&self, name: impl Fn(ArcId) -> String, sides: [&str; 2]) -> String {
        let (kind, rel, (a, b), in_lhs) = match *self {
            StructureDiff::Event { arc, k, lhs, rhs } => {
                let value = |v: Option<Value>| v.map_or("no event".into(), |v| v.to_string());
                let (arc, lhs, rhs) = (name(arc), value(lhs), value(rhs));
                return format!("value sequences on arc {arc} differ at event {k}: {lhs} vs {rhs}");
            }
            StructureDiff::Precedent { pair, in_lhs } => ("precedent", "≺", pair, in_lhs),
            StructureDiff::Concurrent { pair, in_lhs } => ("concurrent", "≍", pair, in_lhs),
        };
        let key = |e: EventKey| format!("event {} on {}", e.k, name(e.arc));
        let (a, b, only) = (key(a), key(b), sides[usize::from(!in_lhs)]);
        format!("{kind} pair {a} {rel} {b} present in only {only}")
    }
}

impl std::fmt::Display for StructureDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.describe(|a| a.to_string(), ["lhs", "rhs"]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(arc: u32, k: u32) -> EventKey {
        EventKey {
            arc: ArcId::new(arc),
            k,
        }
    }

    #[test]
    fn per_arc_sequences() {
        let mut s = EventStructure::new();
        let a = ArcId::new(0);
        let k0 = s.push_event(a, Value::Def(1));
        let k1 = s.push_event(a, Value::Def(2));
        assert_eq!(k0, key(0, 0));
        assert_eq!(k1, key(0, 1));
        assert_eq!(s.values_on(a), &[Value::Def(1), Value::Def(2)]);
        assert_eq!(s.event_count(), 2);
        assert!(s.values_on(ArcId::new(5)).is_empty());
    }

    #[test]
    fn relations_and_casual() {
        let mut s = EventStructure::new();
        let a = s.push_event(ArcId::new(0), Value::Def(1));
        let b = s.push_event(ArcId::new(1), Value::Def(2));
        let c = s.push_event(ArcId::new(2), Value::Def(3));
        s.add_precedent(a, b);
        s.add_concurrent(c, b);
        assert!(s.precedes(a, b));
        assert!(!s.precedes(b, a));
        assert!(s.concurrent_with(b, c));
        assert!(s.concurrent_with(c, b), "≍ is symmetric");
        assert!(s.casual(a, c));
        assert!(!s.casual(a, b));
    }

    #[test]
    fn concurrent_is_irreflexive_and_normalised() {
        let mut s = EventStructure::new();
        let a = s.push_event(ArcId::new(0), Value::Def(1));
        s.add_concurrent(a, a);
        assert!(s.concurrent.is_empty());
    }

    fn event_diff(arc: u32, k: u32, lhs: Option<Value>, rhs: Option<Value>) -> StructureDiff {
        StructureDiff::Event {
            arc: ArcId::new(arc),
            k,
            lhs,
            rhs,
        }
    }

    #[test]
    fn difference_reports_values_first() {
        let mut s1 = EventStructure::new();
        let mut s2 = EventStructure::new();
        s1.push_event(ArcId::new(0), Value::Def(1));
        s2.push_event(ArcId::new(0), Value::Def(9));
        let d = s1.first_difference(&s2).unwrap();
        assert_eq!(
            d,
            event_diff(0, 0, Some(Value::Def(1)), Some(Value::Def(9)))
        );
        assert_eq!(
            d.to_string(),
            "value sequences on arc a0 differ at event 0: 1 vs 9"
        );
        assert_eq!(s1.first_difference(&s1), None);
    }

    #[test]
    fn difference_names_the_first_differing_occurrence() {
        let mut s1 = EventStructure::new();
        let mut s2 = EventStructure::new();
        for v in [Value::Def(1), Value::Def(2), Value::Def(3)] {
            s1.push_event(ArcId::new(4), v);
        }
        s2.push_event(ArcId::new(4), Value::Def(1));
        s2.push_event(ArcId::new(4), Value::Undef);
        let d = s1.first_difference(&s2);
        assert_eq!(
            d,
            Some(event_diff(4, 1, Some(Value::Def(2)), Some(Value::Undef)))
        );
        // A prefix: the shorter side has no event at the first gap.
        s2.events.get_mut(&ArcId::new(4)).unwrap().truncate(1);
        let d = s2.first_difference(&s1).unwrap();
        assert_eq!(d, event_diff(4, 1, None, Some(Value::Def(2))));
        assert_eq!(
            d.to_string(),
            "value sequences on arc a4 differ at event 1: no event vs 2"
        );
    }

    #[test]
    fn difference_reports_relation_mismatch() {
        let mut s1 = EventStructure::new();
        let mut s2 = EventStructure::new();
        let a1 = s1.push_event(ArcId::new(0), Value::Def(1));
        let b1 = s1.push_event(ArcId::new(1), Value::Def(2));
        let a2 = s2.push_event(ArcId::new(0), Value::Def(1));
        let b2 = s2.push_event(ArcId::new(1), Value::Def(2));
        s1.add_precedent(a1, b1);
        s2.add_concurrent(a2, b2);
        let d = s1.first_difference(&s2).unwrap();
        assert_eq!(
            d.to_string(),
            "precedent pair event 0 on a0 ≺ event 0 on a1 present in only lhs"
        );
        assert_ne!(s1, s2);
        s1.precedent.clear();
        let d = s1.first_difference(&s2);
        let pair = (a2, b2);
        assert_eq!(
            d,
            Some(StructureDiff::Concurrent {
                pair,
                in_lhs: false
            })
        );
    }
}
