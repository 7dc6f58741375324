//! A typed arena: a `Vec<T>` indexable only by its dedicated id newtype.
//!
//! Model objects are allocated once and referred to by id; transformations
//! that delete objects (e.g. vertex merger) tombstone entries instead of
//! shifting indices, so ids embedded in other structures stay valid.

use crate::ids::Id;
use std::marker::PhantomData;

/// A growable arena of `T` indexed by the id type `I`.
#[derive(Clone, PartialEq, Eq)]
pub struct TypedVec<I: Id, T> {
    items: Vec<Slot<T>>,
    live: usize,
    _marker: PhantomData<fn(I)>,
}

#[derive(Clone, PartialEq, Eq, Debug)]
enum Slot<T> {
    Live(T),
    Dead,
}

impl<T> Slot<T> {
    #[inline]
    fn as_ref(&self) -> Option<&T> {
        match self {
            Slot::Live(t) => Some(t),
            Slot::Dead => None,
        }
    }
    #[inline]
    fn as_mut(&mut self) -> Option<&mut T> {
        match self {
            Slot::Live(t) => Some(t),
            Slot::Dead => None,
        }
    }
}

impl<I: Id, T> TypedVec<I, T> {
    /// An empty arena.
    pub fn new() -> Self {
        Self {
            items: Vec::new(),
            live: 0,
            _marker: PhantomData,
        }
    }

    /// An empty arena with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            items: Vec::with_capacity(cap),
            live: 0,
            _marker: PhantomData,
        }
    }

    /// Append a value and return its id.
    pub fn push(&mut self, value: T) -> I {
        let id = I::from_usize(self.items.len());
        self.items.push(Slot::Live(value));
        self.live += 1;
        id
    }

    /// Number of live (non-tombstoned) entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live entries remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total number of slots ever allocated (upper bound over all ids + 1).
    ///
    /// Useful for sizing dense side tables indexed by raw id.
    #[inline]
    pub fn capacity_bound(&self) -> usize {
        self.items.len()
    }

    /// True if `id` refers to a live entry.
    #[inline]
    pub fn contains(&self, id: I) -> bool {
        matches!(self.items.get(id.index()), Some(Slot::Live(_)))
    }

    /// Borrow the entry, if live.
    #[inline]
    pub fn get(&self, id: I) -> Option<&T> {
        self.items.get(id.index()).and_then(Slot::as_ref)
    }

    /// Mutably borrow the entry, if live.
    #[inline]
    pub fn get_mut(&mut self, id: I) -> Option<&mut T> {
        self.items.get_mut(id.index()).and_then(Slot::as_mut)
    }

    /// Tombstone an entry, returning the value if it was live.
    ///
    /// Ids of other entries are unaffected; iteration skips dead slots.
    pub fn remove(&mut self, id: I) -> Option<T> {
        let slot = self.items.get_mut(id.index())?;
        match std::mem::replace(slot, Slot::Dead) {
            Slot::Live(t) => {
                self.live -= 1;
                Some(t)
            }
            Slot::Dead => None,
        }
    }

    /// Iterate over live `(id, &value)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (I, &T)> + '_ {
        self.items
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|t| (I::from_usize(i), t)))
    }

    /// Iterate over live `(id, &mut value)` pairs in id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (I, &mut T)> + '_ {
        self.items
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.as_mut().map(|t| (I::from_usize(i), t)))
    }

    /// Iterate over live ids in id order.
    pub fn ids(&self) -> impl Iterator<Item = I> + '_ {
        self.items
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| I::from_usize(i)))
    }

    /// Iterate over live values in id order.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.items.iter().filter_map(Slot::as_ref)
    }

    /// Iterate over *all* slots in id order, dead ones as `None`.
    ///
    /// [`Etpn::fingerprint`](crate::Etpn::fingerprint) hashes dead slots
    /// too, so that equal fingerprints bind equal ids.
    pub fn slots(&self) -> impl Iterator<Item = Option<&T>> + '_ {
        self.items.iter().map(Slot::as_ref)
    }
}

impl<I: Id, T> Default for TypedVec<I, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<I: Id, T> std::ops::Index<I> for TypedVec<I, T> {
    type Output = T;
    #[inline]
    fn index(&self, id: I) -> &T {
        self.get(id)
            .unwrap_or_else(|| panic!("dangling or dead id {:?}", id))
    }
}

impl<I: Id, T> std::ops::IndexMut<I> for TypedVec<I, T> {
    #[inline]
    fn index_mut(&mut self, id: I) -> &mut T {
        self.get_mut(id)
            .unwrap_or_else(|| panic!("dangling or dead id {:?}", id))
    }
}

impl<I: Id, T: std::fmt::Debug> std::fmt::Debug for TypedVec<I, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VertexId;

    #[test]
    fn push_get_index() {
        let mut v: TypedVec<VertexId, &str> = TypedVec::new();
        let a = v.push("a");
        let b = v.push("b");
        assert_eq!(v[a], "a");
        assert_eq!(v[b], "b");
        assert_eq!(v.len(), 2);
        assert!(v.contains(a));
    }

    #[test]
    fn remove_tombstones_without_shifting() {
        let mut v: TypedVec<VertexId, i32> = TypedVec::new();
        let a = v.push(1);
        let b = v.push(2);
        let c = v.push(3);
        assert_eq!(v.remove(b), Some(2));
        assert_eq!(v.remove(b), None);
        assert_eq!(v.len(), 2);
        assert!(!v.contains(b));
        assert_eq!(v[a], 1);
        assert_eq!(v[c], 3);
        let ids: Vec<_> = v.ids().collect();
        assert_eq!(ids, vec![a, c]);
        assert_eq!(v.capacity_bound(), 3);
    }

    #[test]
    fn iter_mut_updates_in_place() {
        let mut v: TypedVec<VertexId, i32> = TypedVec::new();
        v.push(1);
        v.push(2);
        for (_, x) in v.iter_mut() {
            *x *= 10;
        }
        assert_eq!(v.values().copied().collect::<Vec<_>>(), vec![10, 20]);
    }

    #[test]
    #[should_panic(expected = "dangling or dead id")]
    fn index_dead_panics() {
        let mut v: TypedVec<VertexId, i32> = TypedVec::new();
        let a = v.push(1);
        v.remove(a);
        let _ = v[a];
    }
}
