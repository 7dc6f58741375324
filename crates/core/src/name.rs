//! Inline names: the storage of the model's object names.
//!
//! Every vertex, place and transition carries a name. Nearly all of them
//! are short — `r17`, `s_sec0out_30`, `t_end` — so [`Name`] keeps up to
//! 22 bytes inline and moves longer names to a `Box<str>`. It is the size
//! of a `String` and dereferences to `str`, so read sites work on `&str`
//! either way, and building or cloning a design allocates nothing for a
//! name that fits.
//!
//! The crate forbids `unsafe`, so the inline bytes are checked to be
//! UTF-8 whenever they are read as `&str`; [`Name::as_bytes`] reads them
//! without the check.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// Format a [`Name`] as `format!` formats a `String`, without a `String`
/// in between: `name!("r{i}")`.
#[macro_export]
macro_rules! name {
    ($($arg:tt)*) => {
        $crate::name::Name::from_args(format_args!($($arg)*))
    };
}

/// Bytes a [`Name`] holds without a heap allocation.
const INLINE: usize = 22;

/// A name that holds up to 22 bytes inline and moves to the heap past
/// that. Equality, ordering, hashing, `Display` and `Debug` are the
/// string's, so an inline and a heap name with the same text are equal,
/// and a `HashMap<Name, _>` answers lookups by `&str`.
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` bytes are the name; the others are 0.
    Inline(u8, [u8; INLINE]),
    Heap(Box<str>),
}

impl Name {
    /// The empty name; it does not allocate.
    pub const fn new() -> Self {
        Self(Repr::Inline(0, [0; INLINE]))
    }

    /// A name formatted from `args`, inline when it fits; [`name!`] is the
    /// `format!`-style spelling.
    pub fn from_args(args: fmt::Arguments<'_>) -> Self {
        if let Some(s) = args.as_str() {
            return Self::from(s);
        }
        let mut name = Self::new();
        fmt::Write::write_fmt(&mut name, args).expect("writing to a Name cannot fail");
        name
    }

    /// The name's bytes, read without a UTF-8 check.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline(len, bytes) => &bytes[..usize::from(*len)],
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline(len, bytes) => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("an inline name holds whole UTF-8 strings"),
            Repr::Heap(s) => s,
        }
    }

    /// True while the name sits inline.
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline(..))
    }
}

impl Default for Name {
    fn default() -> Self {
        Self::new()
    }
}

/// Appends whole strings, so the inline bytes stay UTF-8; a name that
/// outgrows the inline bytes moves to the heap.
impl fmt::Write for Name {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        match &mut self.0 {
            Repr::Inline(len, bytes) if usize::from(*len) + s.len() <= INLINE => {
                let at = usize::from(*len);
                bytes[at..at + s.len()].copy_from_slice(s.as_bytes());
                *len += s.len() as u8;
            }
            Repr::Inline(..) => {
                let mut text = String::with_capacity(self.len() + s.len());
                text.push_str(self);
                text.push_str(s);
                self.0 = Repr::Heap(text.into_boxed_str());
            }
            Repr::Heap(heap) => {
                let mut text = String::from(std::mem::take(heap));
                text.push_str(s);
                *heap = text.into_boxed_str();
            }
        }
        Ok(())
    }
}

impl Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        self
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        if s.len() > INLINE {
            return Self(Repr::Heap(s.into()));
        }
        let mut bytes = [0; INLINE];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        Self(Repr::Inline(s.len() as u8, bytes))
    }
}

/// Keeps the `String`'s text on the heap when it does not fit inline.
impl From<String> for Name {
    fn from(s: String) -> Self {
        if s.len() > INLINE {
            Self(Repr::Heap(s.into_boxed_str()))
        } else {
            Self::from(s.as_str())
        }
    }
}

impl From<&String> for Name {
    fn from(s: &String) -> Self {
        Self::from(s.as_str())
    }
}

impl From<Name> for String {
    fn from(name: Name) -> Self {
        match name.0 {
            Repr::Heap(s) => s.into(),
            Repr::Inline(..) => name.as_str().to_owned(),
        }
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Name {}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<Name> for str {
    fn eq(&self, other: &Name) -> bool {
        other == self
    }
}

impl PartialEq<Name> for &str {
    fn eq(&self, other: &Name) -> bool {
        other == self
    }
}

impl PartialEq<Name> for String {
    fn eq(&self, other: &Name) -> bool {
        other == self
    }
}

/// Orders as the string does: `str`'s order is its bytes' order.
impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Hashes as the string does, so `Borrow<str>` lookups find it.
impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

/// Prints as the string does, padding and precision included.
impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

/// Prints as the string does: quoted and escaped.
impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::fmt::Write;
    use std::hash::DefaultHasher;

    fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    /// Everything the contract compares with `String`'s behaviour.
    fn behaves_like_its_string(name: &Name, text: &str) {
        let owned = text.to_string();
        assert_eq!(name.as_str(), text);
        assert_eq!(name.as_bytes(), text.as_bytes());
        assert_eq!(*name, *text);
        assert_eq!(name, &owned);
        assert_eq!(owned, *name);
        assert_eq!(hash_of(name), hash_of(&owned));
        assert_eq!(format!("{name}"), format!("{owned}"));
        assert_eq!(
            format!("{name:>30}|{name:<3.2}"),
            format!("{owned:>30}|{owned:<3.2}")
        );
        assert_eq!(format!("{name:?}"), format!("{owned:?}"));
        assert_eq!(String::from(name.clone()), owned);
        assert_eq!(name.clone(), *name);
    }

    #[test]
    fn is_the_size_of_a_string() {
        assert_eq!(size_of::<Name>(), 24);
        assert_eq!(size_of::<Name>(), size_of::<String>());
    }

    #[test]
    fn twenty_two_bytes_sit_inline_and_twenty_three_spill() {
        let at = "a".repeat(22);
        let past = "b".repeat(23);
        let inline = Name::from(at.as_str());
        let heap = Name::from(past.as_str());
        assert!(inline.is_inline());
        assert!(!heap.is_inline());
        behaves_like_its_string(&inline, &at);
        behaves_like_its_string(&heap, &past);
        assert!(Name::from(at.clone()).is_inline());
        assert!(!Name::from(past.clone()).is_inline());
        assert!(Name::new().is_empty() && Name::default().is_inline());
    }

    #[test]
    fn a_multi_byte_character_across_the_boundary_spills_whole() {
        // 21 ASCII bytes, then a 2-byte `é` whose second byte would be the
        // 23rd: the name moves to the heap with the character intact.
        let mut name = Name::from("x".repeat(21).as_str());
        write!(name, "é").unwrap();
        assert!(!name.is_inline());
        behaves_like_its_string(&name, &format!("{}é", "x".repeat(21)));
        // 20 ASCII bytes and `é` fill the inline bytes exactly.
        let exact = name!("{}é", "y".repeat(20));
        assert!(exact.is_inline());
        assert_eq!(exact.len(), 22);
        behaves_like_its_string(&exact, &format!("{}é", "y".repeat(20)));
        // A 4-byte character straddling the boundary.
        let emoji = name!("{}🦀", "z".repeat(19));
        assert!(!emoji.is_inline());
        assert_eq!(emoji.chars().last(), Some('🦀'));
    }

    #[test]
    fn formatting_builds_inline_then_spills_to_the_heap() {
        let short = name!("s{}_t{}", 12, 7);
        assert!(short.is_inline());
        behaves_like_its_string(&short, "s12_t7");
        let mut grown = name!("r{}", 1);
        for i in 0..10 {
            write!(grown, "_{i}").unwrap();
        }
        assert!(grown.is_inline());
        behaves_like_its_string(&grown, "r1_0_1_2_3_4_5_6_7_8_9");
        write!(grown, "!").unwrap();
        assert!(!grown.is_inline());
        behaves_like_its_string(&grown, "r1_0_1_2_3_4_5_6_7_8_9!");
        write!(grown, "?").unwrap();
        behaves_like_its_string(&grown, "r1_0_1_2_3_4_5_6_7_8_9!?");
        assert_eq!(name!("literal"), "literal");
    }

    #[test]
    fn order_and_lookup_match_strings_on_both_sides() {
        let texts = ["b", "a", "", "a_rather_long_name_on_the_heap", "ab", "é"];
        let mut names: Vec<Name> = texts.iter().map(|&t| Name::from(t)).collect();
        let mut strings: Vec<String> = texts.iter().map(|t| t.to_string()).collect();
        names.sort();
        strings.sort();
        assert!(names.iter().zip(&strings).all(|(n, s)| n == s));
        let map: HashMap<Name, usize> = names.into_iter().zip(0..).collect();
        for (i, s) in strings.iter().enumerate() {
            assert_eq!(map.get(s.as_str()), Some(&i));
        }
        let inline = Name::from("abc");
        let heap = Name(Repr::Heap("abc".into()));
        assert_eq!(inline, heap);
        assert_eq!(hash_of(&inline), hash_of(&heap));
        assert_eq!(inline.cmp(&heap), Ordering::Equal);
    }
}
