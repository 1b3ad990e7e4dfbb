//! Runtime values, the heap, and the observable output stream.

use std::fmt;

use incline_ir::{ClassId, ElemType, Program, Type};

/// Index of a heap cell.
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
    /// The zero/default value of a type (fields and array elements).
    pub fn default_of(ty: Type) -> Value {
        match ty {
            Type::Int => Value::Int(0),
            Type::Float => Value::Float(0.0),
            Type::Bool => Value::Bool(false),
            Type::Object(_) | Type::Array(_) => Value::Null,
        }
    }

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
    /// 0 for null, otherwise a heap index plus one.
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
            Kind::Ref => word_ref(word).map_or(Value::Null, Value::Ref),
        }
    }
}

/// The heap cell a reference-kind register word points at; `None` for null.
#[inline]
pub(crate) fn word_ref(word: u64) -> Option<HeapRef> {
    // Reference words are only ever made from a `u32` index plus one.
    word.checked_sub(1).map(|r| HeapRef(r as u32))
}

/// A heap cell.
#[derive(Clone, Debug)]
pub enum HeapCell {
    /// An object instance: dynamic class + field slots.
    Object {
        /// Dynamic class of the instance.
        class: ClassId,
        /// Field slots, ordered by layout offset.
        fields: Vec<Value>,
    },
    /// An array.
    Array {
        /// Element type.
        elem: ElemType,
        /// The elements.
        data: Vec<Value>,
    },
}

/// The heap: a bump-allocated arena of cells.
#[derive(Clone, Debug, Default)]
pub struct Heap {
    cells: Vec<HeapCell>,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fills `fields`, the slots of a fresh instance of `class`, with the
    /// zero of each field's type. Walks the layout up the parent chain, so
    /// the machine does it once per class and copies the image per
    /// allocation.
    pub(crate) fn write_default_fields(program: &Program, class: ClassId, fields: &mut [Value]) {
        let mut cur = Some(class);
        while let Some(c) = cur {
            for &f in &program.class(c).declared_fields {
                let fd = program.field(f);
                fields[fd.offset] = Value::default_of(fd.ty);
            }
            cur = program.class(c).parent;
        }
    }

    /// Allocates an object of `class` with zeroed fields.
    pub fn alloc_object(&mut self, program: &Program, class: ClassId) -> HeapRef {
        let mut fields = vec![Value::Int(0); program.class(class).instance_len];
        Heap::write_default_fields(program, class, &mut fields);
        self.alloc_object_with(class, fields)
    }

    /// Allocates an object of `class` holding `fields`.
    pub(crate) fn alloc_object_with(&mut self, class: ClassId, fields: Vec<Value>) -> HeapRef {
        let r = HeapRef(self.cells.len() as u32);
        self.cells.push(HeapCell::Object { class, fields });
        r
    }

    /// Allocates an array of `len` zeroed elements.
    pub fn alloc_array(&mut self, elem: ElemType, len: usize) -> HeapRef {
        let r = HeapRef(self.cells.len() as u32);
        self.cells.push(HeapCell::Array {
            elem,
            data: vec![Value::default_of(elem.to_type()); len],
        });
        r
    }

    /// The cell behind a reference.
    #[inline]
    pub fn cell(&self, r: HeapRef) -> &HeapCell {
        &self.cells[r.0 as usize]
    }

    /// Mutable cell access.
    #[inline]
    pub fn cell_mut(&mut self, r: HeapRef) -> &mut HeapCell {
        &mut self.cells[r.0 as usize]
    }

    /// Dynamic class of an object reference; `None` for an array.
    pub fn class_of(&self, r: HeapRef) -> Option<ClassId> {
        match self.cell(r) {
            HeapCell::Object { class, .. } => Some(*class),
            HeapCell::Array { .. } => None,
        }
    }

    /// Frees every cell, keeping the arena's capacity for the next run.
    pub fn clear(&mut self) {
        self.cells.clear();
    }

    /// Number of live cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Frees every cell allocated at or after `len`, restoring the heap to
    /// an earlier allocation watermark. Used by deoptimization rollback;
    /// only valid when no surviving cell references a discarded one, which
    /// holds for a rolled-back activation because the write journal has
    /// already restored all pre-existing cells.
    pub fn truncate(&mut self, len: usize) {
        self.cells.truncate(len);
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

    /// Appends the printed form of a value.
    ///
    /// References print their *shape* (class name / array length), not
    /// their identity, so output is deterministic across heap layouts.
    pub fn print(&mut self, program: &Program, heap: &Heap, v: Value) {
        let s = match v {
            Value::Int(k) => k.to_string(),
            Value::Float(f) => format!("{f:?}"),
            Value::Bool(b) => b.to_string(),
            Value::Null => "null".to_string(),
            Value::Ref(r) => match heap.cell(r) {
                HeapCell::Object { class, .. } => program.class(*class).name.clone(),
                HeapCell::Array { data, .. } => format!("array[{}]", data.len()),
            },
        };
        self.lines.push(s);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_fields_zeroed_by_type() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        p.add_field(a, "x", Type::Int);
        p.add_field(a, "y", Type::Float);
        let b = p.add_class("B", Some(a));
        p.add_field(b, "z", Type::Object(a));
        let mut heap = Heap::new();
        let r = heap.alloc_object(&p, b);
        let HeapCell::Object { class, fields } = heap.cell(r) else {
            panic!()
        };
        assert_eq!(*class, b);
        assert_eq!(
            fields.as_slice(),
            &[Value::Int(0), Value::Float(0.0), Value::Null]
        );
    }

    #[test]
    fn array_alloc_and_defaults() {
        let mut heap = Heap::new();
        let r = heap.alloc_array(ElemType::Bool, 3);
        let HeapCell::Array { data, .. } = heap.cell(r) else {
            panic!()
        };
        assert_eq!(data.as_slice(), &[Value::Bool(false); 3]);
    }

    #[test]
    fn output_prints_shapes() {
        let mut p = Program::new();
        let a = p.add_class("Thing", None);
        let mut heap = Heap::new();
        let r = heap.alloc_object(&p, a);
        let arr = heap.alloc_array(ElemType::Int, 2);
        let mut out = Output::new();
        out.print(&p, &heap, Value::Int(7));
        out.print(&p, &heap, Value::Float(1.5));
        out.print(&p, &heap, Value::Null);
        out.print(&p, &heap, Value::Ref(r));
        out.print(&p, &heap, Value::Ref(arr));
        assert_eq!(out.lines(), &["7", "1.5", "null", "Thing", "array[2]"]);
    }
}
