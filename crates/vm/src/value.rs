//! Runtime values, the heap, and the observable output stream.

use std::fmt;

use incline_ir::{ClassId, ElemType, Program, Type};

/// Index of a heap cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HeapRef(pub u32);

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
    /// The integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an `Int` (verified graphs cannot trigger
    /// this; it indicates an interpreter bug).
    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(k) => k,
            other => panic!("expected int, got {other:?}"),
        }
    }

    /// The float payload. See [`Value::as_int`] for panics.
    pub fn as_float(self) -> f64 {
        match self {
            Value::Float(k) => k,
            other => panic!("expected float, got {other:?}"),
        }
    }

    /// The bool payload. See [`Value::as_int`] for panics.
    pub fn as_bool(self) -> bool {
        match self {
            Value::Bool(k) => k,
            other => panic!("expected bool, got {other:?}"),
        }
    }

    /// The zero/default value of a type (fields and array elements).
    pub fn default_of(ty: Type) -> Value {
        match ty {
            Type::Int => Value::Int(0),
            Type::Float => Value::Float(0.0),
            Type::Bool => Value::Bool(false),
            Type::Object(_) | Type::Array(_) => Value::Null,
        }
    }

    /// The zero/default value of an array element type.
    pub fn default_of_elem(e: ElemType) -> Value {
        Value::default_of(e.to_type())
    }
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

    /// Allocates an object of `class` with zeroed fields.
    pub fn alloc_object(&mut self, program: &Program, class: ClassId) -> HeapRef {
        let n = program.class(class).instance_len;
        // Zero defaults per slot type: walk the layout.
        let mut fields = vec![Value::Int(0); n];
        let mut cur = Some(class);
        while let Some(c) = cur {
            for &f in &program.class(c).declared_fields {
                let fd = program.field(f);
                fields[fd.offset] = Value::default_of(fd.ty);
            }
            cur = program.class(c).parent;
        }
        let r = HeapRef(self.cells.len() as u32);
        self.cells.push(HeapCell::Object { class, fields });
        r
    }

    /// Allocates an array of `len` zeroed elements.
    pub fn alloc_array(&mut self, elem: ElemType, len: usize) -> HeapRef {
        let r = HeapRef(self.cells.len() as u32);
        self.cells.push(HeapCell::Array {
            elem,
            data: vec![Value::default_of_elem(elem); len],
        });
        r
    }

    /// The cell behind a reference.
    pub fn cell(&self, r: HeapRef) -> &HeapCell {
        &self.cells[r.0 as usize]
    }

    /// Mutable cell access.
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
