//! The value domain of the underlying algebraic structure.
//!
//! The paper leaves the algebraic structure abstract ("we assume that there
//! exists an implicit interpretation … which supports the computation
//! rules"). We fix one concrete interpretation — 64-bit two's-complement
//! integers with an explicit *undefined* element — which is rich enough for
//! every workload while keeping evaluation total: any operation on an
//! undefined input yields undefined (paper Def. 3.1(10)), as does any
//! partial operation outside its domain (division by zero).

/// A data value: a defined 64-bit integer or the undefined element `⊥`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Value {
    /// A defined integer value.
    Def(i64),
    /// The undefined value `⊥` (paper Def. 3.1(10)).
    #[default]
    Undef,
}

impl Value {
    /// The boolean TRUE encoded as an integer.
    pub const TRUE: Value = Value::Def(1);
    /// The boolean FALSE encoded as an integer.
    pub const FALSE: Value = Value::Def(0);

    /// True iff the value is defined.
    #[inline]
    pub fn is_def(self) -> bool {
        matches!(self, Value::Def(_))
    }

    /// The defined integer, if any.
    #[inline]
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Value::Def(x) => Some(x),
            Value::Undef => None,
        }
    }

    /// Guard truth: a guard output port "has a TRUE value" (paper
    /// Def. 3.1(4)) iff it is defined and non-zero.
    #[inline]
    pub fn is_true(self) -> bool {
        matches!(self, Value::Def(x) if x != 0)
    }

    /// Encode a boolean.
    #[inline]
    pub fn from_bool(b: bool) -> Value {
        if b {
            Value::TRUE
        } else {
            Value::FALSE
        }
    }

    /// Apply a total binary function under strict `⊥` propagation.
    #[inline]
    pub fn lift2(self, other: Value, f: impl FnOnce(i64, i64) -> i64) -> Value {
        match (self, other) {
            (Value::Def(a), Value::Def(b)) => Value::Def(f(a, b)),
            _ => Value::Undef,
        }
    }

    /// Apply a total unary function under strict `⊥` propagation.
    #[inline]
    pub fn lift1(self, f: impl FnOnce(i64) -> i64) -> Value {
        match self {
            Value::Def(a) => Value::Def(f(a)),
            Value::Undef => Value::Undef,
        }
    }
}

impl From<i64> for Value {
    fn from(x: i64) -> Self {
        Value::Def(x)
    }
}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Def(x) => write!(f, "{x}"),
            Value::Undef => write!(f, "⊥"),
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undef_propagates() {
        assert_eq!(
            Value::Undef.lift2(Value::Def(1), |a, b| a + b),
            Value::Undef
        );
        assert_eq!(
            Value::Def(1).lift2(Value::Undef, |a, b| a + b),
            Value::Undef
        );
        assert_eq!(Value::Undef.lift1(|a| -a), Value::Undef);
    }

    #[test]
    fn defined_arithmetic() {
        assert_eq!(
            Value::Def(3).lift2(Value::Def(4), |a, b| a.wrapping_add(b)),
            Value::Def(7)
        );
        assert_eq!(Value::Def(-5).lift1(i64::wrapping_neg), Value::Def(5));
    }

    #[test]
    fn guard_truth() {
        assert!(Value::Def(1).is_true());
        assert!(Value::Def(-3).is_true());
        assert!(!Value::Def(0).is_true());
        assert!(!Value::Undef.is_true());
        assert_eq!(Value::from_bool(true), Value::TRUE);
        assert_eq!(Value::from_bool(false), Value::FALSE);
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", Value::Def(42)), "42");
        assert_eq!(format!("{}", Value::Undef), "⊥");
    }
}
