//! The operation set `OP` (paper Def. 2.1).
//!
//! Every *output port* of a data-path vertex carries an operation defining
//! the functional relation between that output and the vertex's input ports
//! (the mapping `B : O → OP`). Operations are partitioned into the
//! combinatorial set `COM` — the output takes the *present* value of the
//! expression — and the sequential set `SEQ` — the output takes the *last
//! defined* value (paper Def. 3.1(9)).

use crate::value::Value;

/// An operation attachable to an output port.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    // --- combinatorial (COM) arithmetic ---
    /// Wrapping addition of the two inputs.
    Add,
    /// Wrapping subtraction `in0 - in1`.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Truncating division; division by zero yields `⊥`.
    Div,
    /// Remainder; remainder by zero yields `⊥`.
    Rem,
    /// Wrapping negation of the single input.
    Neg,
    /// Absolute value (wrapping at `i64::MIN`).
    Abs,
    /// Minimum of the two inputs.
    Min,
    /// Maximum of the two inputs.
    Max,
    // --- combinatorial bitwise / shift ---
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOT of the single input.
    Not,
    /// Left shift by `in1 & 63`.
    Shl,
    /// Arithmetic right shift by `in1 & 63`.
    Shr,
    // --- combinatorial comparison (producing 0/1, usable as guards) ---
    /// `in0 == in1`.
    Eq,
    /// `in0 != in1`.
    Ne,
    /// `in0 < in1`.
    Lt,
    /// `in0 <= in1`.
    Le,
    /// `in0 > in1`.
    Gt,
    /// `in0 >= in1`.
    Ge,
    // --- combinatorial structural ---
    /// 2-way multiplexer: `in0` selects (`0` ⇒ `in1`, otherwise `in2`).
    Mux,
    /// Identity: forwards the single input (models wires, bus drivers).
    Pass,
    /// A constant source with no inputs.
    Const(i64),
    // --- sequential (SEQ) ---
    /// A register/latch: holds the last defined value presented at its
    /// single input while its loading arc was open.
    Reg,
    /// An external input pad: produces values supplied by the environment
    /// (a predefined stream per input vertex, paper §3).
    Input,
}

impl Op {
    /// True for members of the sequential set `SEQ` (state-holding).
    #[inline]
    pub fn is_sequential(self) -> bool {
        matches!(self, Op::Reg | Op::Input)
    }

    /// True for members of the combinatorial set `COM`.
    #[inline]
    pub fn is_combinatorial(self) -> bool {
        !self.is_sequential()
    }

    /// Number of vertex input ports the operation reads.
    pub fn arity(self) -> usize {
        match self {
            Op::Const(_) | Op::Input => 0,
            Op::Neg | Op::Abs | Op::Not | Op::Pass | Op::Reg => 1,
            Op::Mux => 3,
            _ => 2,
        }
    }

    /// True when the output is a 0/1 condition suitable for guarding
    /// transitions (paper Def. 2.2, mapping `G`).
    pub fn is_predicate(self) -> bool {
        matches!(self, Op::Eq | Op::Ne | Op::Lt | Op::Le | Op::Gt | Op::Ge)
    }

    /// The comparison that is true exactly when `self` is false (`<` and
    /// `>=`, `<=` and `>`, `==` and `!=`), or `None` for an operation that
    /// is not a comparison. Two guards on one vertex carrying
    /// complementary comparisons are mutually exclusive and jointly
    /// complete.
    pub fn complement(self) -> Option<Op> {
        Some(match self {
            Op::Lt => Op::Ge,
            Op::Ge => Op::Lt,
            Op::Le => Op::Gt,
            Op::Gt => Op::Le,
            Op::Eq => Op::Ne,
            Op::Ne => Op::Eq,
            _ => return None,
        })
    }

    /// True when two output ports carrying `self` and `other` have "the same
    /// operational definition" for the purpose of vertex merger (Def. 4.6).
    pub fn same_definition(self, other: Op) -> bool {
        self == other
    }

    /// Evaluate a combinatorial operation on the vertex's input values in
    /// port order. Sequential operations return `None` — their value is part
    /// of the machine state, not a function of present inputs.
    ///
    /// `⊥` is strict: any undefined input makes the result undefined
    /// (Def. 3.1(10)), except `Mux` with a defined selector, which only
    /// needs the selected branch.
    pub fn eval(self, args: &[Value]) -> Option<Value> {
        use Value::Def;
        debug_assert!(
            args.len() >= self.arity(),
            "op {self:?} needs {} args, got {}",
            self.arity(),
            args.len()
        );
        let v = match self {
            Op::Reg | Op::Input => return None,
            Op::Const(c) => Def(c),
            Op::Pass => args[0],
            Op::Neg => args[0].lift1(i64::wrapping_neg),
            Op::Abs => args[0].lift1(|a| a.wrapping_abs()),
            Op::Not => args[0].lift1(|a| !a),
            Op::Add => args[0].lift2(args[1], i64::wrapping_add),
            Op::Sub => args[0].lift2(args[1], i64::wrapping_sub),
            Op::Mul => args[0].lift2(args[1], i64::wrapping_mul),
            Op::Div => match (args[0], args[1]) {
                (Def(a), Def(b)) if b != 0 => Def(a.wrapping_div(b)),
                _ => Value::Undef,
            },
            Op::Rem => match (args[0], args[1]) {
                (Def(a), Def(b)) if b != 0 => Def(a.wrapping_rem(b)),
                _ => Value::Undef,
            },
            Op::Min => args[0].lift2(args[1], i64::min),
            Op::Max => args[0].lift2(args[1], i64::max),
            Op::And => args[0].lift2(args[1], |a, b| a & b),
            Op::Or => args[0].lift2(args[1], |a, b| a | b),
            Op::Xor => args[0].lift2(args[1], |a, b| a ^ b),
            Op::Shl => args[0].lift2(args[1], |a, b| a.wrapping_shl(b as u32 & 63)),
            Op::Shr => args[0].lift2(args[1], |a, b| a.wrapping_shr(b as u32 & 63)),
            Op::Eq => cmp(args, |a, b| a == b),
            Op::Ne => cmp(args, |a, b| a != b),
            Op::Lt => cmp(args, |a, b| a < b),
            Op::Le => cmp(args, |a, b| a <= b),
            Op::Gt => cmp(args, |a, b| a > b),
            Op::Ge => cmp(args, |a, b| a >= b),
            Op::Mux => match args[0] {
                Def(0) => args[1],
                Def(_) => args[2],
                Value::Undef => Value::Undef,
            },
        };
        Some(v)
    }

    /// Short mnemonic used in DOT output and reports.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Op::Add => "+",
            Op::Sub => "-",
            Op::Mul => "*",
            Op::Div => "/",
            Op::Rem => "%",
            Op::Neg => "neg",
            Op::Abs => "abs",
            Op::Min => "min",
            Op::Max => "max",
            Op::And => "&",
            Op::Or => "|",
            Op::Xor => "^",
            Op::Not => "~",
            Op::Shl => "<<",
            Op::Shr => ">>",
            Op::Eq => "==",
            Op::Ne => "!=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::Mux => "mux",
            Op::Pass => "pass",
            Op::Const(_) => "const",
            Op::Reg => "reg",
            Op::Input => "in",
        }
    }
}

#[inline]
fn cmp(args: &[Value], f: impl FnOnce(i64, i64) -> bool) -> Value {
    match (args[0], args[1]) {
        (Value::Def(a), Value::Def(b)) => Value::from_bool(f(a, b)),
        _ => Value::Undef,
    }
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::Const(c) => write!(f, "const({c})"),
            other => f.write_str(other.mnemonic()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Value::{Def, Undef};

    #[test]
    fn seq_com_partition() {
        assert!(Op::Reg.is_sequential());
        assert!(Op::Input.is_sequential());
        assert!(Op::Add.is_combinatorial());
        assert!(Op::Const(3).is_combinatorial());
        for op in [Op::Add, Op::Mux, Op::Reg, Op::Input, Op::Const(0)] {
            assert_ne!(op.is_sequential(), op.is_combinatorial());
        }
    }

    #[test]
    fn arities() {
        assert_eq!(Op::Const(1).arity(), 0);
        assert_eq!(Op::Input.arity(), 0);
        assert_eq!(Op::Neg.arity(), 1);
        assert_eq!(Op::Reg.arity(), 1);
        assert_eq!(Op::Add.arity(), 2);
        assert_eq!(Op::Mux.arity(), 3);
    }

    #[test]
    fn arithmetic_eval() {
        assert_eq!(Op::Add.eval(&[Def(2), Def(3)]), Some(Def(5)));
        assert_eq!(Op::Sub.eval(&[Def(2), Def(3)]), Some(Def(-1)));
        assert_eq!(Op::Mul.eval(&[Def(4), Def(5)]), Some(Def(20)));
        assert_eq!(Op::Div.eval(&[Def(7), Def(2)]), Some(Def(3)));
        assert_eq!(Op::Rem.eval(&[Def(7), Def(2)]), Some(Def(1)));
        assert_eq!(Op::Min.eval(&[Def(7), Def(2)]), Some(Def(2)));
        assert_eq!(Op::Max.eval(&[Def(7), Def(2)]), Some(Def(7)));
        assert_eq!(Op::Abs.eval(&[Def(-7)]), Some(Def(7)));
    }

    #[test]
    fn division_by_zero_is_undefined() {
        assert_eq!(Op::Div.eval(&[Def(1), Def(0)]), Some(Undef));
        assert_eq!(Op::Rem.eval(&[Def(1), Def(0)]), Some(Undef));
    }

    #[test]
    fn wrapping_overflow() {
        assert_eq!(Op::Add.eval(&[Def(i64::MAX), Def(1)]), Some(Def(i64::MIN)));
        assert_eq!(Op::Neg.eval(&[Def(i64::MIN)]), Some(Def(i64::MIN)));
        assert_eq!(Op::Div.eval(&[Def(i64::MIN), Def(-1)]), Some(Def(i64::MIN)));
    }

    #[test]
    fn comparisons_produce_bits() {
        assert_eq!(Op::Lt.eval(&[Def(1), Def(2)]), Some(Value::TRUE));
        assert_eq!(Op::Ge.eval(&[Def(1), Def(2)]), Some(Value::FALSE));
        assert!(Op::Lt.is_predicate());
        assert!(!Op::Add.is_predicate());
    }

    #[test]
    fn mux_selects_lazily() {
        assert_eq!(Op::Mux.eval(&[Def(0), Def(10), Undef]), Some(Def(10)));
        assert_eq!(Op::Mux.eval(&[Def(1), Undef, Def(20)]), Some(Def(20)));
        assert_eq!(Op::Mux.eval(&[Undef, Def(10), Def(20)]), Some(Undef));
    }

    #[test]
    fn sequential_ops_do_not_eval() {
        assert_eq!(Op::Reg.eval(&[Def(1)]), None);
        assert_eq!(Op::Input.eval(&[]), None);
    }

    #[test]
    fn undef_strictness() {
        for op in [Op::Add, Op::And, Op::Shl, Op::Eq] {
            assert_eq!(op.eval(&[Undef, Def(1)]), Some(Undef));
            assert_eq!(op.eval(&[Def(1), Undef]), Some(Undef));
        }
        assert_eq!(Op::Pass.eval(&[Undef]), Some(Undef));
    }
}
