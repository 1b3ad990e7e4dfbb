//! Newtype entity identifiers used throughout the IR.
//!
//! Every arena-allocated entity (values, instructions, blocks, methods,
//! classes, fields, selectors) is referred to by a dense `u32` index wrapped
//! in a dedicated newtype, so that indices of different entity kinds cannot
//! be confused ([C-NEWTYPE]).

use std::fmt;

macro_rules! entity_id {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// Creates an id from a dense index.
            ///
            /// # Panics
            ///
            /// Panics if `index` does not fit in `u32`.
            #[inline]
            pub const fn new(index: usize) -> Self {
                assert!(index <= u32::MAX as usize, "entity index overflow");
                Self(index as u32)
            }

            /// Returns the dense index of this id.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

entity_id! {
    /// An SSA value: either a block parameter or the result of an instruction.
    ValueId, "v"
}
entity_id! {
    /// An instruction in a graph's instruction arena.
    InstId, "i"
}
entity_id! {
    /// A basic block in a graph.
    BlockId, "b"
}
entity_id! {
    /// A method of the program (static function or class method).
    MethodId, "m"
}
entity_id! {
    /// A class in the program's class hierarchy.
    ClassId, "c"
}
entity_id! {
    /// A field of a class (globally indexed; carries its layout offset).
    FieldId, "f"
}
entity_id! {
    /// An interned virtual-dispatch selector (method name + arity).
    SelectorId, "s"
}

/// Stable identity of a callsite, assigned when the containing method is
/// built and preserved verbatim when graphs are cloned or inlined.
///
/// Profiles are keyed by `CallSiteId`, so a callsite keeps its profile even
/// after its surrounding code has been transplanted into another method.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CallSiteId {
    /// Method whose source text contains this callsite.
    pub method: MethodId,
    /// Dense per-method callsite index.
    pub index: u32,
}

impl fmt::Debug for CallSiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cs({},{})", self.method, self.index)
    }
}

impl fmt::Display for CallSiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_index() {
        let v = ValueId::new(17);
        assert_eq!(v.index(), 17);
        assert_eq!(format!("{v}"), "v17");
        assert_eq!(format!("{v:?}"), "v17");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(BlockId::new(1) < BlockId::new(2));
        assert_eq!(MethodId::new(3), MethodId::new(3));
    }

    #[test]
    #[should_panic(expected = "entity index overflow")]
    fn overflow_panics() {
        let _ = ValueId::new(u32::MAX as usize + 1);
    }

    #[test]
    fn callsite_id_display() {
        let cs = CallSiteId {
            method: MethodId::new(4),
            index: 2,
        };
        assert_eq!(format!("{cs}"), "cs(m4,2)");
    }
}
