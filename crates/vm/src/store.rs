//! The guest-observable state of one run — heap, output stream and the
//! deoptimization write journal — and the semantics of every instruction
//! that is not a call.
//!
//! Kept apart from [`crate::Machine`] so the execution loop can hold a
//! frame of the register stack and this state at the same time: an
//! instruction here touches registers, heap and output and nothing else
//! of the machine.

use incline_ir::eval::{self, TrapKind};
use incline_ir::{BinOp, ClassId, CmpOp, Program};

use crate::machine::MAX_HEAP_SLOTS;
use crate::plan::{FlatOp, Inst};
use crate::value::{Kind, Output, Value};

/// The first header word of an array cell; an object's holds its class
/// index.
const ARRAY: u64 = u64::MAX;

/// Observable-state watermark taken at the entry of a deopt-capable
/// compiled activation; [`Store::rollback`] rewinds to it.
pub(crate) struct Savepoint {
    heap_len: usize,
    output_len: usize,
    journal_len: usize,
}

/// Heap, output and write journal of the run in progress.
#[derive(Default)]
pub(crate) struct Store {
    /// The guest heap, one word arena: each cell is a header of two words
    /// (its class index or [`ARRAY`], then its length) followed by its
    /// fields or elements in register encoding. A reference is its
    /// header's index plus one, and the zero word is every kind's default,
    /// so allocating is zero-extending. The length is what the cells cost
    /// against [`MAX_HEAP_SLOTS`].
    heap: Vec<u64>,
    pub output: Output,
    /// `(index, old word)` of every heap write made while a scope is open.
    journal: Vec<(usize, u64)>,
    /// Live deopt-capable compiled activations. While any is live, every
    /// heap write (in any tier, including interpreted callees) is
    /// journaled so an uncommon trap can rewind all observable effects.
    journal_scopes: u32,
}

impl Store {
    /// Starts a run: fresh heap and output, empty journal.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.output = Output::new();
        self.journal.clear();
        self.journal_scopes = 0;
    }

    /// Opens a transactional scope (a deopt-capable compiled activation)
    /// and returns the watermark to rewind to.
    pub fn begin_scope(&mut self) -> Savepoint {
        self.journal_scopes += 1;
        Savepoint {
            heap_len: self.heap.len(),
            output_len: self.output.len(),
            journal_len: self.journal.len(),
        }
    }

    /// Closes the innermost transactional scope. `keep_effects` is false
    /// when the activation deoptimized: all its observable effects are
    /// rewound to `save`. Otherwise they stand, and once the outermost
    /// scope closes they are final and the undo log is dropped.
    pub fn end_scope(&mut self, save: &Savepoint, keep_effects: bool) {
        self.journal_scopes -= 1;
        if !keep_effects {
            self.rollback(save);
        } else if self.journal_scopes == 0 {
            self.journal.clear();
        }
    }

    /// Rewinds all observable effects to `save`: journaled heap writes are
    /// undone newest-first, then cells allocated by the abandoned
    /// activation are freed and its printed lines dropped.
    fn rollback(&mut self, save: &Savepoint) {
        for (index, old) in self.journal.drain(save.journal_len..).rev() {
            self.heap[index] = old;
        }
        self.heap.truncate(save.heap_len);
        self.output.truncate(save.output_len);
    }

    /// A store at rest (no guest frame live), checked in debug builds: no
    /// open scope and an empty journal.
    pub fn check(&self) {
        if cfg!(debug_assertions) {
            assert_eq!(self.journal_scopes, 0, "journal scopes open at rest");
            assert!(self.journal.is_empty(), "journal entries left at rest");
        }
    }

    /// Allocates a zeroed cell of header `head` and `len` fields or
    /// elements, and returns the reference to it; traps when the heap
    /// would outgrow [`MAX_HEAP_SLOTS`].
    fn alloc(&mut self, head: u64, len: u64) -> Result<u64, TrapKind> {
        let at = self.heap.len();
        let end = (at as u64).saturating_add(len).saturating_add(2);
        if end > MAX_HEAP_SLOTS {
            return Err(TrapKind::HeapExhausted);
        }
        self.heap.extend([head, len]);
        self.heap.resize(end as usize, 0);
        Ok(at as u64 + 1)
    }

    /// Where the cell `r` references starts, if it is an array (`array`)
    /// or an object (`!array`); null and the other kind are a null
    /// dereference.
    fn cell(&self, r: u64, array: bool) -> Result<usize, TrapKind> {
        let at = (r as usize).checked_sub(1).ok_or(TrapKind::NullDeref)?;
        if (self.heap[at] == ARRAY) != array {
            return Err(TrapKind::NullDeref);
        }
        Ok(at)
    }

    /// The class of the object `r` references; `None` for null or an array.
    pub fn class_of(&self, r: u64) -> Option<ClassId> {
        let at = self.cell(r, false).ok()?;
        Some(ClassId::new(self.heap[at] as usize))
    }

    /// Where field `offset` of the object `r` references is.
    fn field(&self, r: u64, offset: u32) -> Result<usize, TrapKind> {
        let at = self.cell(r, false)?;
        debug_assert!(
            u64::from(offset) < self.heap[at + 1],
            "field offset past the object (verifier bug)"
        );
        Ok(at + 2 + offset as usize)
    }

    /// Where element `idx` of the array `r` references is.
    fn element(&self, r: u64, idx: u64) -> Result<usize, TrapKind> {
        let at = self.cell(r, true)?;
        if idx >= self.heap[at + 1] {
            return Err(TrapKind::Bounds);
        }
        Ok(at + 2 + idx as usize)
    }

    /// Writes `word` at `index` of the heap, journaled while a scope is
    /// open.
    fn write(&mut self, index: usize, word: u64) {
        let old = std::mem::replace(&mut self.heap[index], word);
        if self.journal_scopes > 0 {
            self.journal.push((index, old));
        }
    }

    /// The printed form of the register word `word` read as `kind`.
    /// References print their *shape* (class name / array length), not
    /// their identity, so output is deterministic across heap layouts.
    fn render(&self, program: &Program, kind: Kind, word: u64) -> String {
        match kind.value(word) {
            Value::Int(k) => k.to_string(),
            Value::Float(f) => format!("{f:?}"),
            Value::Bool(b) => b.to_string(),
            Value::Null => "null".to_string(),
            Value::Ref(_) => match self.class_of(word) {
                Some(class) => program.class(class).name.clone(),
                None => format!("array[{}]", self.heap[word as usize]),
            },
        }
    }

    /// Executes one instruction of a call-free run against the frame
    /// `regs`, writing its result slot.
    ///
    /// Plainly `#[inline]`, never `always`: forced into `exec_graph` it
    /// inflates that function's debug-build frame until the deepest legal
    /// guest recursion overflows a test thread's 2 MiB host stack.
    ///
    /// # Errors
    ///
    /// The trap the instruction raised; registers, heap and output are as
    /// the instruction found them.
    #[inline]
    pub fn exec(
        &mut self,
        program: &Program,
        regs: &mut [u64],
        inst: &Inst,
    ) -> Result<(), TrapKind> {
        let (a, b) = (inst.a as usize, inst.b as usize);
        macro_rules! int {
            ($op:ident) => {
                eval::eval_int_total(BinOp::$op, regs[a] as i64, regs[b] as i64) as u64
            };
        }
        macro_rules! int_div {
            ($op:ident) => {
                eval::eval_int_div(BinOp::$op, regs[a] as i64, regs[b] as i64)? as u64
            };
        }
        macro_rules! float {
            ($op:ident) => {
                eval::eval_float_bin(BinOp::$op, f64::from_bits(regs[a]), f64::from_bits(regs[b]))
                    .to_bits()
            };
        }
        macro_rules! int_cmp {
            ($op:ident) => {
                u64::from(eval::eval_int_cmp(
                    CmpOp::$op,
                    regs[a] as i64,
                    regs[b] as i64,
                ))
            };
        }
        macro_rules! float_cmp {
            ($op:ident) => {
                u64::from(eval::eval_float_cmp(
                    CmpOp::$op,
                    f64::from_bits(regs[a]),
                    f64::from_bits(regs[b]),
                ))
            };
        }
        let result = match inst.op {
            FlatOp::Nop => return Ok(()),
            FlatOp::Const(word) => word,
            FlatOp::IAdd => int!(IAdd),
            FlatOp::ISub => int!(ISub),
            FlatOp::IMul => int!(IMul),
            FlatOp::IDiv => int_div!(IDiv),
            FlatOp::IRem => int_div!(IRem),
            FlatOp::IAnd => int!(IAnd),
            FlatOp::IOr => int!(IOr),
            FlatOp::IXor => int!(IXor),
            FlatOp::IShl => int!(IShl),
            FlatOp::IShr => int!(IShr),
            FlatOp::FAdd => float!(FAdd),
            FlatOp::FSub => float!(FSub),
            FlatOp::FMul => float!(FMul),
            FlatOp::FDiv => float!(FDiv),
            FlatOp::IEq => int_cmp!(IEq),
            FlatOp::INe => int_cmp!(INe),
            FlatOp::ILt => int_cmp!(ILt),
            FlatOp::ILe => int_cmp!(ILe),
            FlatOp::IGt => int_cmp!(IGt),
            FlatOp::IGe => int_cmp!(IGe),
            FlatOp::FEq => float_cmp!(FEq),
            FlatOp::FLt => float_cmp!(FLt),
            FlatOp::FLe => float_cmp!(FLe),
            // Null is 0 and a reference its index plus one.
            FlatOp::RefEq => u64::from(regs[a] == regs[b]),
            FlatOp::Not => regs[a] ^ 1,
            FlatOp::INeg => (regs[a] as i64).wrapping_neg() as u64,
            FlatOp::FNeg => (-f64::from_bits(regs[a])).to_bits(),
            FlatOp::IntToFloat => eval::int_to_float(regs[a] as i64).to_bits(),
            FlatOp::FloatToInt => eval::float_to_int(f64::from_bits(regs[a])) as u64,
            FlatOp::New(class) => {
                let len = program.class(class).instance_len;
                self.alloc(class.index() as u64, len as u64)?
            }
            FlatOp::GetField(offset) => self.heap[self.field(regs[a], offset)?],
            FlatOp::SetField(offset) => {
                let index = self.field(regs[a], offset)?;
                self.write(index, regs[b]);
                return Ok(());
            }
            FlatOp::NewArray => {
                let len = regs[a] as i64;
                if len < 0 {
                    return Err(TrapKind::NegativeLength);
                }
                self.alloc(ARRAY, len as u64)?
            }
            FlatOp::ArrayGet => self.heap[self.element(regs[a], regs[b])?],
            FlatOp::ArraySet => {
                let index = self.element(regs[a], regs[b])?;
                self.write(index, regs[inst.c as usize]);
                return Ok(());
            }
            FlatOp::ArrayLen => self.heap[self.cell(regs[a], true)? + 1],
            FlatOp::InstanceOf(c) => {
                let class = self.class_of(regs[a]);
                u64::from(class.is_some_and(|class| program.is_subclass(class, c)))
            }
            FlatOp::Cast(c) => {
                // Null passes through.
                let class = self.class_of(regs[a]);
                if regs[a] != 0 && !class.is_some_and(|class| program.is_subclass(class, c)) {
                    return Err(TrapKind::CastFailed);
                }
                regs[a]
            }
            FlatOp::Print(kind) => {
                let line = self.render(program, kind, regs[a]);
                self.output.push(line);
                return Ok(());
            }
        };
        regs[inst.dst as usize] = result;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Slot;
    use incline_ir::Type;

    #[test]
    fn output_prints_shapes() {
        // A fresh `B` (fields int, float and `A` ref, the first two
        // inherited) and a fresh two-element bool array read back as
        // zeros, and print their shapes.
        let mut p = Program::new();
        let a = p.add_class("A", None);
        p.add_field(a, "x", Type::Int);
        p.add_field(a, "y", Type::Float);
        let b = p.add_class("B", Some(a));
        p.add_field(b, "z", Type::Object(a));
        let mut store = Store::default();
        let mut regs = [2, 0, 1, 7, 1.5f64.to_bits(), 0, 0, 0, 0, 0, 0, 0];
        let insts = [
            (FlatOp::New(b), [0, 0], 5),
            (FlatOp::NewArray, [0, 0], 6),
            (FlatOp::GetField(0), [5, 0], 7),
            (FlatOp::GetField(1), [5, 0], 8),
            (FlatOp::GetField(2), [5, 0], 9),
            (FlatOp::ArrayGet, [6, 1], 10),
            (FlatOp::ArrayGet, [6, 2], 11),
        ];
        let mut exec = |op, [a, b]: [Slot; 2], dst| {
            let (c, base_cost, rest_cost) = (0, 0, 0);
            let inst = Inst {
                op,
                a,
                b,
                c,
                dst,
                base_cost,
                rest_cost,
            };
            store.exec(&p, &mut regs, &inst).expect("no trap");
        };
        for (op, operands, dst) in insts {
            exec(op, operands, dst);
        }
        let printed = [
            (Kind::Int, 3),
            (Kind::Float, 4),
            (Kind::Int, 7),
            (Kind::Float, 8),
            (Kind::Ref, 9),
            (Kind::Bool, 10),
            (Kind::Bool, 11),
            (Kind::Ref, 5),
            (Kind::Ref, 6),
        ];
        for (kind, slot) in printed {
            exec(FlatOp::Print(kind), [slot, 0], 0);
        }
        let lines = [
            "7", "1.5", "0", "0.0", "null", "false", "false", "B", "array[2]",
        ];
        assert_eq!(store.output.lines(), lines);
    }

    /// A store holding one object of one field.
    #[cfg(debug_assertions)]
    fn store() -> Store {
        let mut store = Store::default();
        store.alloc(0, 1).expect("room for one cell");
        store.check();
        store
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "journal scopes open at rest")]
    fn the_checker_refuses_an_open_scope() {
        let mut store = store();
        store.begin_scope();
        store.check();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "journal entries left at rest")]
    fn the_checker_refuses_a_journal_entry() {
        let mut store = store();
        store.journal.push((2, 0));
        store.check();
    }
}
