//! Inline id lists: the storage of the model's per-object relations.
//!
//! Every place, transition and vertex carries a few id lists — the flow
//! relation `F` as pre/post sets, the control set `C(S)`, the guards `G`,
//! the port lists `I(V)`/`O(V)` — and the data path keeps an incoming and
//! an outgoing arc list per port. Nearly all of them hold at most three
//! ids, so [`IdList`] keeps up to three inline and moves longer lists to
//! the heap. It is the size of a `Vec` and dereferences to a slice, so
//! read sites work on `&[I]` either way.

use crate::ids::Id;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Ids an [`IdList`] holds without a heap allocation.
const INLINE: usize = 3;

/// A list of ids that holds up to three inline and moves to the heap past
/// that. Equality, hashing and `Debug` see only the live ids, exactly as
/// for a `Vec`, so an inline and a heap list with the same ids are equal.
pub struct IdList<I: Id>(Repr<I>);

enum Repr<I: Id> {
    /// The first `len` slots are live; the others hold `I::from_usize(0)`.
    Inline(u8, [I; INLINE]),
    Heap(Vec<I>),
}

impl<I: Id> IdList<I> {
    /// An empty list; it does not allocate.
    pub fn new() -> Self {
        Self(Repr::Inline(0, [I::from_usize(0); INLINE]))
    }

    /// A copy of `ids`, inline when it fits.
    fn from_slice(ids: &[I]) -> Self {
        if ids.len() > INLINE {
            return Self(Repr::Heap(ids.to_vec()));
        }
        let mut slots = [I::from_usize(0); INLINE];
        slots[..ids.len()].copy_from_slice(ids);
        Self(Repr::Inline(ids.len() as u8, slots))
    }

    /// The live ids.
    pub fn as_slice(&self) -> &[I] {
        match &self.0 {
            Repr::Inline(len, slots) => &slots[..usize::from(*len)],
            Repr::Heap(ids) => ids,
        }
    }

    /// Append an id, moving the list to the heap when it outgrows the
    /// inline slots.
    pub fn push(&mut self, id: I) {
        match &mut self.0 {
            Repr::Inline(len, slots) if usize::from(*len) < INLINE => {
                slots[usize::from(*len)] = id;
                *len += 1;
            }
            Repr::Inline(_, slots) => {
                let mut ids = Vec::with_capacity(2 * INLINE);
                ids.extend_from_slice(slots);
                ids.push(id);
                self.0 = Repr::Heap(ids);
            }
            Repr::Heap(ids) => ids.push(id),
        }
    }

    /// Remove every id, releasing any heap buffer.
    pub fn clear(&mut self) {
        *self = Self::new();
    }

    /// Keep only the ids for which `keep` is true, in order and in place.
    pub fn retain(&mut self, mut keep: impl FnMut(&I) -> bool) {
        match &mut self.0 {
            Repr::Inline(len, slots) => {
                let mut kept = 0;
                for i in 0..usize::from(*len) {
                    if keep(&slots[i]) {
                        slots[kept] = slots[i];
                        kept += 1;
                    }
                }
                slots[kept..].fill(I::from_usize(0));
                *len = kept as u8;
            }
            Repr::Heap(ids) => ids.retain(keep),
        }
    }
}

impl<I: Id> Default for IdList<I> {
    fn default() -> Self {
        Self::new()
    }
}

/// A clone is inline whenever its ids fit, even if the original has
/// shrunk back under three on the heap.
impl<I: Id> Clone for IdList<I> {
    fn clone(&self) -> Self {
        Self::from_slice(self)
    }
}

impl<I: Id> Deref for IdList<I> {
    type Target = [I];
    fn deref(&self) -> &[I] {
        self.as_slice()
    }
}

impl<I: Id> DerefMut for IdList<I> {
    fn deref_mut(&mut self) -> &mut [I] {
        match &mut self.0 {
            Repr::Inline(len, slots) => &mut slots[..usize::from(*len)],
            Repr::Heap(ids) => ids,
        }
    }
}

impl<I: Id> PartialEq for IdList<I> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<I: Id> Eq for IdList<I> {}

impl<I: Id> PartialEq<Vec<I>> for IdList<I> {
    fn eq(&self, other: &Vec<I>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<I: Id> PartialEq<[I]> for IdList<I> {
    fn eq(&self, other: &[I]) -> bool {
        self.as_slice() == other
    }
}

impl<I: Id, const N: usize> PartialEq<[I; N]> for IdList<I> {
    fn eq(&self, other: &[I; N]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Hashes as the slice does, so as a `Vec` with the same ids would.
impl<I: Id> Hash for IdList<I> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// Prints as the slice does: `[a0, a3]`.
impl<I: Id> fmt::Debug for IdList<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl<I: Id> Extend<I> for IdList<I> {
    fn extend<T: IntoIterator<Item = I>>(&mut self, iter: T) {
        for id in iter {
            self.push(id);
        }
    }
}

impl<I: Id> FromIterator<I> for IdList<I> {
    fn from_iter<T: IntoIterator<Item = I>>(iter: T) -> Self {
        let mut list = Self::new();
        list.extend(iter);
        list
    }
}

/// Keeps the `Vec`'s buffer when the ids do not fit inline.
impl<I: Id> From<Vec<I>> for IdList<I> {
    fn from(ids: Vec<I>) -> Self {
        if ids.len() > INLINE {
            Self(Repr::Heap(ids))
        } else {
            Self::from_slice(&ids)
        }
    }
}

impl<'a, I: Id> IntoIterator for &'a IdList<I> {
    type Item = &'a I;
    type IntoIter = std::slice::Iter<'a, I>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<I: Id> IntoIterator for IdList<I> {
    type Item = I;
    type IntoIter = IntoIter<I>;
    fn into_iter(self) -> IntoIter<I> {
        IntoIter {
            list: self,
            next: 0,
        }
    }
}

/// The by-value iterator of an [`IdList`].
pub struct IntoIter<I: Id> {
    list: IdList<I>,
    next: usize,
}

impl<I: Id> Iterator for IntoIter<I> {
    type Item = I;

    fn next(&mut self) -> Option<I> {
        let id = *self.list.get(self.next)?;
        self.next += 1;
        Some(id)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.list.len() - self.next;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ArcId;
    use std::hash::DefaultHasher;

    fn ids(raw: &[u32]) -> Vec<ArcId> {
        raw.iter().map(|&i| ArcId::new(i)).collect()
    }

    fn hash_of(list: &IdList<ArcId>) -> u64 {
        let mut h = DefaultHasher::new();
        list.hash(&mut h);
        h.finish()
    }

    #[test]
    fn is_the_size_of_a_vec() {
        assert_eq!(
            std::mem::size_of::<IdList<ArcId>>(),
            std::mem::size_of::<Vec<ArcId>>()
        );
    }

    #[test]
    fn push_past_three_then_retain_back_under_three() {
        let mut list = IdList::new();
        list.extend(ids(&[1, 2, 3]));
        assert!(matches!(list.0, Repr::Inline(3, _)));
        list.push(ArcId::new(4));
        list.push(ArcId::new(5));
        assert!(matches!(list.0, Repr::Heap(_)));
        assert_eq!(list, ids(&[1, 2, 3, 4, 5]));
        list.retain(|a| a.0 % 2 == 0);
        assert_eq!(list, ids(&[2, 4]));
        assert_eq!(list.len(), 2);
        list.push(ArcId::new(6));
        assert_eq!(list, [ArcId::new(2), ArcId::new(4), ArcId::new(6)]);
    }

    #[test]
    fn inline_retain_compacts_in_order() {
        let mut list: IdList<ArcId> = ids(&[7, 8, 9]).into();
        list.retain(|a| a.0 != 8);
        assert_eq!(list, ids(&[7, 9]));
        assert!(matches!(list.0, Repr::Inline(2, [_, _, ArcId(0)])));
        list.retain(|_| false);
        assert!(list.is_empty());
    }

    #[test]
    fn inline_and_heap_lists_with_equal_ids_are_equal_and_hash_equal() {
        let inline: IdList<ArcId> = ids(&[4, 2]).into_iter().collect();
        let mut heap: IdList<ArcId> = ids(&[4, 2, 9, 9]).into();
        heap.retain(|a| a.0 != 9);
        assert!(matches!(inline.0, Repr::Inline(..)));
        assert!(matches!(heap.0, Repr::Heap(_)));
        assert_eq!(inline, heap);
        assert_eq!(hash_of(&inline), hash_of(&heap));
        let mut as_vec = DefaultHasher::new();
        ids(&[4, 2]).hash(&mut as_vec);
        assert_eq!(hash_of(&inline), as_vec.finish());
        assert_eq!(format!("{inline:?}"), format!("{heap:?}"));
        assert_eq!(format!("{inline:?}"), "[a4, a2]");
    }

    #[test]
    fn clone_and_conversions_keep_ids_in_order() {
        let long: IdList<ArcId> = ids(&[1, 2, 3, 4]).into();
        assert_eq!(long.clone(), long);
        let mut shrunk = long.clone();
        shrunk.retain(|a| a.0 < 3);
        assert!(matches!(shrunk.clone().0, Repr::Inline(2, _)));
        assert_eq!(
            long.clone().into_iter().collect::<Vec<_>>(),
            ids(&[1, 2, 3, 4])
        );
        assert_eq!(long.into_iter().size_hint(), (4, Some(4)));
        let mut list = IdList::<ArcId>::default();
        list.push(ArcId::new(5));
        list.clear();
        assert_eq!(list, IdList::new());
        assert!(matches!(list.0, Repr::Inline(0, _)));
    }
}
