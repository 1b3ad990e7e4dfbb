//! Runtime values, their register encoding, and the observable output
//! stream.

use std::fmt;

use incline_ir::Type;

/// Where a heap cell starts: the index of its two-word header in the
/// guest heap, a word arena (see `Store`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HeapRef(pub u32);

impl HeapRef {
    /// The reference as an untagged register word; see [`Value::to_word`].
    #[inline]
    pub(crate) fn to_word(self) -> u64 {
        u64::from(self.0) + 1
    }
}

/// A runtime value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Null reference.
    Null,
    /// Reference to a heap cell (object or array).
    Ref(HeapRef),
}

impl Value {
    /// The value as an untagged register word: `Int` as its bits, `Float`
    /// as `to_bits`, `Bool` as 0/1, `Null` as 0 and `Ref(r)` as `r + 1`, so
    /// reference equality is bit equality and a null check one compare.
    #[inline]
    pub(crate) fn to_word(self) -> u64 {
        match self {
            Value::Int(k) => k as u64,
            Value::Float(f) => f.to_bits(),
            Value::Bool(b) => u64::from(b),
            Value::Null => 0,
            Value::Ref(r) => r.to_word(),
        }
    }

    /// Which of the four register encodings the value uses.
    pub(crate) fn kind(self) -> Kind {
        match self {
            Value::Int(_) => Kind::Int,
            Value::Float(_) => Kind::Float,
            Value::Bool(_) => Kind::Bool,
            Value::Null | Value::Ref(_) => Kind::Ref,
        }
    }
}

/// How an untagged register word is to be read. Derived from a value's
/// static [`Type`] when a graph is lowered, and carried only by the
/// operations where a word turns back into a tagged [`Value`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    /// `i64` bits.
    Int,
    /// `f64` bits.
    Float,
    /// 0 or 1.
    Bool,
    /// 0 for null, otherwise a cell's header index plus one.
    Ref,
}

impl Kind {
    /// The register encoding of values of static type `ty`.
    pub fn of(ty: Type) -> Kind {
        match ty {
            Type::Int => Kind::Int,
            Type::Float => Kind::Float,
            Type::Bool => Kind::Bool,
            Type::Object(_) | Type::Array(_) => Kind::Ref,
        }
    }

    /// The tagged value a register word of this kind stands for (the
    /// inverse of [`Value::to_word`]).
    #[inline]
    pub fn value(self, word: u64) -> Value {
        match self {
            Kind::Int => Value::Int(word as i64),
            Kind::Float => Value::Float(f64::from_bits(word)),
            Kind::Bool => Value::Bool(word != 0),
            // Reference words are only ever made from a `u32` index plus one.
            Kind::Ref => word
                .checked_sub(1)
                .map_or(Value::Null, |r| Value::Ref(HeapRef(r as u32))),
        }
    }
}

/// The observable output of a program run (`print` intrinsic), used by
/// differential tests: interpreted and compiled executions must produce
/// identical output.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Output {
    lines: Vec<String>,
}

impl Output {
    /// Creates an empty output stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a printed line.
    pub(crate) fn push(&mut self, line: String) {
        self.lines.push(line);
    }

    /// The printed lines.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Number of printed lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether nothing has been printed yet.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Discards every line printed at or after `len`. Used by
    /// deoptimization rollback before the interpreter replays the
    /// activation.
    pub fn truncate(&mut self, len: usize) {
        self.lines.truncate(len);
    }
}

impl fmt::Display for Output {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for line in &self.lines {
            writeln!(f, "{line}")?;
        }
        Ok(())
    }
}
