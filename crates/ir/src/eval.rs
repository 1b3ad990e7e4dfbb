//! Shared scalar evaluation semantics.
//!
//! Constant folding (in `incline-opt`) and interpretation (in `incline-vm`)
//! must agree bit-for-bit on every scalar operation, or differential tests
//! between interpreted and compiled execution would produce false alarms.
//! Both therefore evaluate through this module.
//!
//! Semantics: 64-bit wrapping integer arithmetic, JVM-style masked shifts,
//! IEEE-754 doubles, saturating float→int conversion (NaN → 0).

use crate::graph::{BinOp, CmpOp};

/// Why a scalar operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrapKind {
    /// Integer division or remainder by zero.
    DivByZero,
    /// Null receiver or array.
    NullDeref,
    /// Array index out of bounds.
    Bounds,
    /// Failed checked cast.
    CastFailed,
    /// Negative array length.
    NegativeLength,
    /// An allocation that would take the run's heap past the executor's
    /// bound (`incline_vm::machine::MAX_HEAP_SLOTS`).
    HeapExhausted,
    /// A `deopt` terminator reached in a tier with nothing to fall back to
    /// (the interpreter executing hand-written IR that contains one).
    Deopt,
    /// A virtual call whose dynamic receiver has no implementation of the
    /// selector: an array, or an object of a class that neither declares
    /// nor inherits it (the verifier accepts a virtual call as soon as
    /// *some* class declares the selector).
    NoSuchMethod,
}

impl std::fmt::Display for TrapKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrapKind::DivByZero => write!(f, "division by zero"),
            TrapKind::NullDeref => write!(f, "null dereference"),
            TrapKind::Bounds => write!(f, "array index out of bounds"),
            TrapKind::CastFailed => write!(f, "checked cast failed"),
            TrapKind::NegativeLength => write!(f, "negative array length"),
            TrapKind::HeapExhausted => write!(f, "guest heap exhausted"),
            TrapKind::Deopt => write!(f, "deopt trap outside compiled code"),
            TrapKind::NoSuchMethod => write!(f, "receiver does not implement the called method"),
        }
    }
}

/// Evaluates an integer binary operation.
///
/// # Errors
///
/// Returns [`TrapKind::DivByZero`] for `IDiv`/`IRem` with a zero divisor.
#[inline]
pub fn eval_int_bin(op: BinOp, a: i64, b: i64) -> Result<i64, TrapKind> {
    if op.can_trap() {
        eval_int_div(op, a, b)
    } else {
        Ok(eval_int_total(op, a, b))
    }
}

/// Evaluates an integer binary operation that cannot trap (everything but
/// `IDiv`/`IRem`), so callers that know the operator pay for no `Result`.
#[inline]
pub fn eval_int_total(op: BinOp, a: i64, b: i64) -> i64 {
    match op {
        BinOp::IAdd => a.wrapping_add(b),
        BinOp::ISub => a.wrapping_sub(b),
        BinOp::IMul => a.wrapping_mul(b),
        BinOp::IAnd => a & b,
        BinOp::IOr => a | b,
        BinOp::IXor => a ^ b,
        BinOp::IShl => a.wrapping_shl((b & 63) as u32),
        BinOp::IShr => a.wrapping_shr((b & 63) as u32),
        _ => unreachable!("trapping or float op passed to eval_int_total"),
    }
}

/// Evaluates `IDiv` or `IRem`, the two integer operations that can trap.
///
/// # Errors
///
/// Returns [`TrapKind::DivByZero`] for a zero divisor.
#[inline]
pub fn eval_int_div(op: BinOp, a: i64, b: i64) -> Result<i64, TrapKind> {
    if b == 0 {
        return Err(TrapKind::DivByZero);
    }
    Ok(match op {
        BinOp::IDiv => a.wrapping_div(b),
        BinOp::IRem => a.wrapping_rem(b),
        _ => unreachable!("non-trapping op passed to eval_int_div"),
    })
}

/// Evaluates a float binary operation.
#[inline]
pub fn eval_float_bin(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::FAdd => a + b,
        BinOp::FSub => a - b,
        BinOp::FMul => a * b,
        BinOp::FDiv => a / b,
        _ => unreachable!("int op passed to eval_float_bin"),
    }
}

/// Evaluates an integer comparison.
#[inline]
pub fn eval_int_cmp(op: CmpOp, a: i64, b: i64) -> bool {
    match op {
        CmpOp::IEq => a == b,
        CmpOp::INe => a != b,
        CmpOp::ILt => a < b,
        CmpOp::ILe => a <= b,
        CmpOp::IGt => a > b,
        CmpOp::IGe => a >= b,
        _ => unreachable!("non-int comparison passed to eval_int_cmp"),
    }
}

/// Evaluates a float comparison (IEEE: any comparison with NaN is false).
#[inline]
pub fn eval_float_cmp(op: CmpOp, a: f64, b: f64) -> bool {
    match op {
        CmpOp::FEq => a == b,
        CmpOp::FLt => a < b,
        CmpOp::FLe => a <= b,
        _ => unreachable!("non-float comparison passed to eval_float_cmp"),
    }
}

/// Float → int conversion: saturating, NaN → 0 (Rust `as` semantics).
#[inline]
pub fn float_to_int(f: f64) -> i64 {
    f as i64
}

/// Int → float conversion (nearest, ties to even — Rust `as` semantics).
#[inline]
pub fn int_to_float(k: i64) -> f64 {
    k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapping_arithmetic() {
        assert_eq!(eval_int_bin(BinOp::IAdd, i64::MAX, 1), Ok(i64::MIN));
        assert_eq!(eval_int_bin(BinOp::IMul, i64::MAX, 2), Ok(-2));
        assert_eq!(eval_int_bin(BinOp::IDiv, i64::MIN, -1), Ok(i64::MIN));
    }

    #[test]
    fn division_traps() {
        assert_eq!(eval_int_bin(BinOp::IDiv, 5, 0), Err(TrapKind::DivByZero));
        assert_eq!(eval_int_bin(BinOp::IRem, 5, 0), Err(TrapKind::DivByZero));
        assert_eq!(eval_int_bin(BinOp::IRem, 7, 3), Ok(1));
        assert_eq!(eval_int_bin(BinOp::IRem, -7, 3), Ok(-1));
    }

    #[test]
    fn masked_shifts() {
        assert_eq!(eval_int_bin(BinOp::IShl, 1, 64), Ok(1)); // 64 & 63 == 0
        assert_eq!(eval_int_bin(BinOp::IShl, 1, 3), Ok(8));
        assert_eq!(eval_int_bin(BinOp::IShr, -8, 1), Ok(-4)); // arithmetic
    }

    #[test]
    fn float_conversions_saturate() {
        assert_eq!(float_to_int(f64::NAN), 0);
        assert_eq!(float_to_int(1e300), i64::MAX);
        assert_eq!(float_to_int(-1e300), i64::MIN);
        assert_eq!(float_to_int(2.9), 2);
        assert_eq!(float_to_int(-2.9), -2);
    }

    #[test]
    fn nan_comparisons_false() {
        assert!(!eval_float_cmp(CmpOp::FEq, f64::NAN, f64::NAN));
        assert!(!eval_float_cmp(CmpOp::FLt, f64::NAN, 1.0));
        assert!(eval_float_cmp(CmpOp::FLe, 1.0, 1.0));
    }
}
