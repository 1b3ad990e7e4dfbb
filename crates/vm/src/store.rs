//! The guest-observable state of one run — heap, output stream and the
//! deoptimization write journal — and the semantics of every instruction
//! that is not a call.
//!
//! Kept apart from [`crate::Machine`] so the execution loop can hold a
//! frame of the register stack and this state at the same time: an
//! instruction here touches registers, heap and output and nothing else
//! of the machine.

use incline_ir::eval::{self, TrapKind};
use incline_ir::{BinOp, CmpOp, Program};

use crate::machine::MAX_HEAP_SLOTS;
use crate::plan::{FlatOp, Inst};
use crate::value::{word_ref, Heap, HeapCell, HeapRef, Kind, Output, Value};

/// One undo entry in the deoptimization write journal.
enum JournalEntry {
    /// `fields[offset]` of object `r` held `old` before the write.
    Field {
        r: HeapRef,
        offset: usize,
        old: Value,
    },
    /// `data[index]` of array `r` held `old` before the write.
    Array {
        r: HeapRef,
        index: usize,
        old: Value,
    },
}

/// Observable-state watermark taken at the entry of a deopt-capable
/// compiled activation; [`Store::rollback`] rewinds to it.
pub(crate) struct Savepoint {
    heap_len: usize,
    output_len: usize,
    journal_len: usize,
}

/// Heap, output and write journal of the run in progress.
pub(crate) struct Store {
    pub heap: Heap,
    /// What the cells of `heap` cost against [`MAX_HEAP_SLOTS`].
    heap_slots: u64,
    pub output: Output,
    /// The zeroed field slots of an instance of every class, one class
    /// after another; `new` copies its class's stretch.
    default_fields: Vec<Value>,
    /// Where each class's stretch of `default_fields` starts; one more
    /// entry closes the last.
    default_fields_at: Vec<usize>,
    journal: Vec<JournalEntry>,
    /// Live deopt-capable compiled activations. While any is live, every
    /// heap write (in any tier, including interpreted callees) is
    /// journaled so an uncommon trap can rewind all observable effects.
    journal_scopes: u32,
}

impl Store {
    /// The state of a machine over `program` before its first run.
    pub fn new(program: &Program) -> Store {
        let mut default_fields = Vec::new();
        let mut default_fields_at = Vec::with_capacity(program.class_count() + 1);
        for class in program.class_ids() {
            let start = default_fields.len();
            default_fields_at.push(start);
            default_fields.resize(start + program.class(class).instance_len, Value::Int(0));
            Heap::write_default_fields(program, class, &mut default_fields[start..]);
        }
        default_fields_at.push(default_fields.len());
        Store {
            heap: Heap::new(),
            heap_slots: 0,
            output: Output::new(),
            default_fields,
            default_fields_at,
            journal: Vec::new(),
            journal_scopes: 0,
        }
    }

    /// Starts a run: fresh heap and output, empty journal.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.heap_slots = 0;
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
        while self.journal.len() > save.journal_len {
            match self.journal.pop().expect("length checked") {
                JournalEntry::Field { r, offset, old } => {
                    let HeapCell::Object { fields, .. } = self.heap.cell_mut(r) else {
                        unreachable!("journaled field write on a non-object cell");
                    };
                    fields[offset] = old;
                }
                JournalEntry::Array { r, index, old } => {
                    let HeapCell::Array { data, .. } = self.heap.cell_mut(r) else {
                        unreachable!("journaled array write on a non-array cell");
                    };
                    data[index] = old;
                }
            }
        }
        // The freed cells give their slots back (summed here rather than
        // remembered in every `Savepoint`, which sits in the host frame of
        // each compiled activation).
        self.heap_slots -= self.slots(save.heap_len..self.heap.len());
        self.heap.truncate(save.heap_len);
        self.output.truncate(save.output_len);
    }

    /// What the cells `cells` of the heap cost against [`MAX_HEAP_SLOTS`].
    fn slots(&self, cells: std::ops::Range<usize>) -> u64 {
        let cost = |r| match self.heap.cell(HeapRef(r as u32)) {
            HeapCell::Object { fields, .. } => fields.len() as u64 + 2,
            HeapCell::Array { data, .. } => data.len() as u64 + 2,
        };
        cells.map(cost).sum()
    }

    /// A store at rest (no guest frame live), checked in debug builds: no
    /// open scope, an empty journal, and `heap_slots` what the cells cost.
    pub fn check(&self) {
        if cfg!(debug_assertions) {
            assert_eq!(self.journal_scopes, 0, "journal scopes open at rest");
            assert!(self.journal.is_empty(), "journal entries left at rest");
            let cost = self.slots(0..self.heap.len());
            assert_eq!(self.heap_slots, cost, "heap_slots drifted from the heap");
        }
    }

    /// Charges a cell of `len` fields or elements, about to be allocated,
    /// against the run's heap bound.
    fn charge_cell(&mut self, len: u64) -> Result<(), TrapKind> {
        let slots = self.heap_slots.saturating_add(len).saturating_add(2);
        if slots > MAX_HEAP_SLOTS {
            return Err(TrapKind::HeapExhausted);
        }
        self.heap_slots = slots;
        Ok(())
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
                let at = &self.default_fields_at[class.index()..];
                let (start, end) = (at[0], at[1]);
                self.charge_cell((end - start) as u64)?;
                let fields = self.default_fields[start..end].to_vec();
                self.heap.alloc_object_with(class, fields).to_word()
            }
            FlatOp::GetField(offset) => {
                let r = word_ref(regs[a]).ok_or(TrapKind::NullDeref)?;
                let HeapCell::Object { fields, .. } = self.heap.cell(r) else {
                    return Err(TrapKind::NullDeref);
                };
                fields[offset as usize].to_word()
            }
            FlatOp::SetField { offset, kind } => {
                let r = word_ref(regs[a]).ok_or(TrapKind::NullDeref)?;
                let v = kind.value(regs[b]);
                let offset = offset as usize;
                let HeapCell::Object { fields, .. } = self.heap.cell_mut(r) else {
                    return Err(TrapKind::NullDeref);
                };
                let old = std::mem::replace(&mut fields[offset], v);
                if self.journal_scopes > 0 {
                    self.journal.push(JournalEntry::Field { r, offset, old });
                }
                return Ok(());
            }
            FlatOp::NewArray(elem) => {
                let len = regs[a] as i64;
                if len < 0 {
                    return Err(TrapKind::NegativeLength);
                }
                self.charge_cell(len as u64)?;
                self.heap.alloc_array(elem, len as usize).to_word()
            }
            FlatOp::ArrayGet => {
                let r = word_ref(regs[a]).ok_or(TrapKind::NullDeref)?;
                let idx = regs[b] as i64;
                let HeapCell::Array { data, .. } = self.heap.cell(r) else {
                    return Err(TrapKind::NullDeref);
                };
                if idx < 0 || idx as usize >= data.len() {
                    return Err(TrapKind::Bounds);
                }
                data[idx as usize].to_word()
            }
            FlatOp::ArraySet => {
                let r = word_ref(regs[a]).ok_or(TrapKind::NullDeref)?;
                let idx = regs[b] as i64;
                let word = regs[inst.c as usize];
                let HeapCell::Array { elem, data } = self.heap.cell_mut(r) else {
                    return Err(TrapKind::NullDeref);
                };
                if idx < 0 || idx as usize >= data.len() {
                    return Err(TrapKind::Bounds);
                }
                let index = idx as usize;
                let v = Kind::of(elem.to_type()).value(word);
                let old = std::mem::replace(&mut data[index], v);
                if self.journal_scopes > 0 {
                    self.journal.push(JournalEntry::Array { r, index, old });
                }
                return Ok(());
            }
            FlatOp::ArrayLen => {
                let r = word_ref(regs[a]).ok_or(TrapKind::NullDeref)?;
                let HeapCell::Array { data, .. } = self.heap.cell(r) else {
                    return Err(TrapKind::NullDeref);
                };
                data.len() as u64
            }
            FlatOp::InstanceOf(c) => {
                let is = word_ref(regs[a]).is_some_and(|r| match self.heap.cell(r) {
                    HeapCell::Object { class, .. } => program.is_subclass(*class, c),
                    HeapCell::Array { .. } => false,
                });
                u64::from(is)
            }
            FlatOp::Cast(c) => {
                // Null passes through.
                if let Some(r) = word_ref(regs[a]) {
                    match self.heap.cell(r) {
                        HeapCell::Object { class, .. } if program.is_subclass(*class, c) => {}
                        _ => return Err(TrapKind::CastFailed),
                    }
                }
                regs[a]
            }
            FlatOp::Print(kind) => {
                self.output.print(program, &self.heap, kind.value(regs[a]));
                return Ok(());
            }
        };
        regs[inst.dst as usize] = result;
        Ok(())
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    /// A store over a program with one class, holding one instance of it.
    fn store() -> Store {
        let mut p = Program::new();
        let class = p.add_class("Box", None);
        p.add_field(class, "v", incline_ir::Type::Int);
        let mut store = Store::new(&p);
        store.charge_cell(1).expect("room for one cell");
        store.heap.alloc_object(&p, class);
        store.check();
        store
    }

    #[test]
    #[should_panic(expected = "journal scopes open at rest")]
    fn the_checker_refuses_an_open_scope() {
        let mut store = store();
        store.begin_scope();
        store.check();
    }

    #[test]
    #[should_panic(expected = "journal entries left at rest")]
    fn the_checker_refuses_a_journal_entry() {
        let mut store = store();
        let (r, offset, old) = (HeapRef(0), 0, Value::Int(0));
        store.journal.push(JournalEntry::Field { r, offset, old });
        store.check();
    }

    #[test]
    #[should_panic(expected = "heap_slots drifted from the heap")]
    fn the_checker_refuses_heap_slots_the_heap_does_not_hold() {
        let mut store = store();
        store.heap_slots += 1;
        store.check();
    }
}
