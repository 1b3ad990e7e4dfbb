//! The operand list of an instruction.

use std::fmt;
use std::ops::{Deref, DerefMut};

use crate::ids::ValueId;

/// How many operands an instruction holds in place. Every operation but a
/// call takes at most three, and most calls fit too.
const INLINE: usize = 4;

/// The operands of an instruction ([`crate::InstData::args`]): up to four
/// values held in place, a longer list — a call with many arguments — on
/// the heap. It reads and rewrites as a `[ValueId]`, and cloning, moving
/// or dropping one that fits in place allocates nothing.
#[derive(Clone)]
pub struct Operands(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` entries of `vals`; the rest are padding.
    Inline { len: u8, vals: [ValueId; INLINE] },
    /// More than [`INLINE`] operands.
    Spilled(Box<[ValueId]>),
}

impl Operands {
    /// No operands.
    pub const fn new() -> Self {
        Operands(Repr::Inline {
            len: 0,
            vals: [ValueId::new(0); INLINE],
        })
    }

    /// Drops every operand.
    pub fn clear(&mut self) {
        *self = Operands::new();
    }
}

impl Default for Operands {
    fn default() -> Self {
        Operands::new()
    }
}

impl Deref for Operands {
    type Target = [ValueId];

    fn deref(&self) -> &[ValueId] {
        match &self.0 {
            Repr::Inline { len, vals } => &vals[..*len as usize],
            Repr::Spilled(vals) => vals,
        }
    }
}

impl DerefMut for Operands {
    fn deref_mut(&mut self) -> &mut [ValueId] {
        match &mut self.0 {
            Repr::Inline { len, vals } => &mut vals[..*len as usize],
            Repr::Spilled(vals) => vals,
        }
    }
}

impl FromIterator<ValueId> for Operands {
    fn from_iter<I: IntoIterator<Item = ValueId>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut vals = [ValueId::new(0); INLINE];
        let mut len = 0;
        while let Some(v) = iter.next() {
            if len == INLINE {
                let spilled = vals.into_iter().chain([v]).chain(iter).collect();
                return Operands(Repr::Spilled(spilled));
            }
            vals[len] = v;
            len += 1;
        }
        Operands(Repr::Inline {
            len: len as u8,
            vals,
        })
    }
}

impl<const N: usize> From<[ValueId; N]> for Operands {
    fn from(vals: [ValueId; N]) -> Self {
        vals.into_iter().collect()
    }
}

impl From<Vec<ValueId>> for Operands {
    fn from(vals: Vec<ValueId>) -> Self {
        if vals.len() > INLINE {
            Operands(Repr::Spilled(vals.into_boxed_slice()))
        } else {
            vals.into_iter().collect()
        }
    }
}

impl<'a> IntoIterator for &'a Operands {
    type Item = &'a ValueId;
    type IntoIter = std::slice::Iter<'a, ValueId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a> IntoIterator for &'a mut Operands {
    type Item = &'a mut ValueId;
    type IntoIter = std::slice::IterMut<'a, ValueId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

impl PartialEq for Operands {
    fn eq(&self, other: &Operands) -> bool {
        **self == **other
    }
}

impl Eq for Operands {}

impl fmt::Debug for Operands {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(n: usize) -> Vec<ValueId> {
        (0..n).map(|i| ValueId::new(10 + i)).collect()
    }

    #[test]
    fn every_length_round_trips_through_every_constructor() {
        for n in 0..=2 * INLINE {
            let want = vals(n);
            let all = [Operands::from(want.clone()), want.iter().copied().collect()];
            for mut ops in all {
                assert_eq!(*ops, want[..], "{n} operands");
                assert_eq!(*ops.clone(), want[..], "a clone of {n} operands");
                assert_eq!(matches!(ops.0, Repr::Spilled(_)), n > INLINE);
                ops.iter_mut().for_each(|v| *v = ValueId::new(1));
                assert!(ops.iter().all(|&v| v == ValueId::new(1)));
                ops.clear();
                assert!(ops.is_empty());
            }
        }
        assert_eq!(*Operands::from([ValueId::new(3); 6]), [ValueId::new(3); 6]);
    }

    #[test]
    fn prints_as_a_list() {
        assert_eq!(format!("{:?}", Operands::from(vals(2))), "[v10, v11]");
    }
}
