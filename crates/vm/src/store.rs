//! The guest-observable state of one run — heap, output stream and the
//! deoptimization write journal — and the semantics of every instruction
//! that is not a call.
//!
//! Kept apart from [`crate::Machine`] so the execution loop can hold a
//! frame of the register stack and this state at the same time: an
//! instruction here touches registers, heap and output and nothing else
//! of the machine.

use incline_ir::eval::{self, TrapKind};
use incline_ir::graph::{InstData, Op};
use incline_ir::{CmpOp, Program, ValueId};

use crate::value::{Heap, HeapCell, HeapRef, Output, Value};

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
#[derive(Default)]
pub(crate) struct Store {
    pub heap: Heap,
    pub output: Output,
    journal: Vec<JournalEntry>,
    /// Live deopt-capable compiled activations. While any is live, every
    /// heap write (in any tier, including interpreted callees) is
    /// journaled so an uncommon trap can rewind all observable effects.
    journal_scopes: u32,
}

/// The value of register `v`.
#[inline(always)]
pub(crate) fn reg(regs: &[Option<Value>], v: ValueId) -> Value {
    regs[v.index()].expect("use of undefined register (verifier bug)")
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
        self.heap.truncate(save.heap_len);
        self.output.truncate(save.output_len);
    }

    /// Executes one instruction that is not a call against the frame
    /// `regs`, writing its result register.
    ///
    /// # Errors
    ///
    /// The trap the instruction raised; registers, heap and output are as
    /// the instruction found them.
    #[inline]
    pub fn exec_op(
        &mut self,
        program: &Program,
        regs: &mut [Option<Value>],
        data: &InstData,
    ) -> Result<(), TrapKind> {
        let arg = |i: usize| reg(regs, data.args[i]);
        let result: Option<Value> = match &data.op {
            Op::Nop => None,
            Op::ConstInt(k) => Some(Value::Int(*k)),
            Op::ConstFloat(bits) => Some(Value::Float(f64::from_bits(*bits))),
            Op::ConstBool(b) => Some(Value::Bool(*b)),
            Op::ConstNull(_) => Some(Value::Null),
            Op::Bin(op) if op.is_float() => Some(Value::Float(eval::eval_float_bin(
                *op,
                arg(0).as_float(),
                arg(1).as_float(),
            ))),
            Op::Bin(op) => Some(Value::Int(eval::eval_int_bin(
                *op,
                arg(0).as_int(),
                arg(1).as_int(),
            )?)),
            Op::Cmp(op) => {
                let (a, b) = (arg(0), arg(1));
                let r = match op {
                    CmpOp::RefEq => match (a, b) {
                        (Value::Null, Value::Null) => true,
                        (Value::Ref(x), Value::Ref(y)) => x == y,
                        _ => false,
                    },
                    CmpOp::FEq | CmpOp::FLt | CmpOp::FLe => {
                        eval::eval_float_cmp(*op, a.as_float(), b.as_float())
                    }
                    _ => eval::eval_int_cmp(*op, a.as_int(), b.as_int()),
                };
                Some(Value::Bool(r))
            }
            Op::Not => Some(Value::Bool(!arg(0).as_bool())),
            Op::INeg => Some(Value::Int(arg(0).as_int().wrapping_neg())),
            Op::FNeg => Some(Value::Float(-arg(0).as_float())),
            Op::IntToFloat => Some(Value::Float(eval::int_to_float(arg(0).as_int()))),
            Op::FloatToInt => Some(Value::Int(eval::float_to_int(arg(0).as_float()))),
            Op::New(c) => Some(Value::Ref(self.heap.alloc_object(program, *c))),
            Op::GetField(f) => {
                let Value::Ref(r) = arg(0) else {
                    return Err(TrapKind::NullDeref);
                };
                let HeapCell::Object { fields, .. } = self.heap.cell(r) else {
                    return Err(TrapKind::NullDeref);
                };
                Some(fields[program.field(*f).offset])
            }
            Op::SetField(f) => {
                let Value::Ref(r) = arg(0) else {
                    return Err(TrapKind::NullDeref);
                };
                let v = arg(1);
                let offset = program.field(*f).offset;
                let HeapCell::Object { fields, .. } = self.heap.cell_mut(r) else {
                    return Err(TrapKind::NullDeref);
                };
                let old = std::mem::replace(&mut fields[offset], v);
                if self.journal_scopes > 0 {
                    self.journal.push(JournalEntry::Field { r, offset, old });
                }
                None
            }
            Op::NewArray(e) => {
                let len = arg(0).as_int();
                if len < 0 {
                    return Err(TrapKind::NegativeLength);
                }
                Some(Value::Ref(self.heap.alloc_array(*e, len as usize)))
            }
            Op::ArrayGet => {
                let Value::Ref(r) = arg(0) else {
                    return Err(TrapKind::NullDeref);
                };
                let idx = arg(1).as_int();
                let HeapCell::Array { data: arr, .. } = self.heap.cell(r) else {
                    return Err(TrapKind::NullDeref);
                };
                if idx < 0 || idx as usize >= arr.len() {
                    return Err(TrapKind::Bounds);
                }
                Some(arr[idx as usize])
            }
            Op::ArraySet => {
                let Value::Ref(r) = arg(0) else {
                    return Err(TrapKind::NullDeref);
                };
                let idx = arg(1).as_int();
                let v = arg(2);
                let HeapCell::Array { data: arr, .. } = self.heap.cell_mut(r) else {
                    return Err(TrapKind::NullDeref);
                };
                if idx < 0 || idx as usize >= arr.len() {
                    return Err(TrapKind::Bounds);
                }
                let index = idx as usize;
                let old = std::mem::replace(&mut arr[index], v);
                if self.journal_scopes > 0 {
                    self.journal.push(JournalEntry::Array { r, index, old });
                }
                None
            }
            Op::ArrayLen => {
                let Value::Ref(r) = arg(0) else {
                    return Err(TrapKind::NullDeref);
                };
                let HeapCell::Array { data: arr, .. } = self.heap.cell(r) else {
                    return Err(TrapKind::NullDeref);
                };
                Some(Value::Int(arr.len() as i64))
            }
            Op::InstanceOf(c) => {
                let r = match arg(0) {
                    Value::Ref(r) => match self.heap.cell(r) {
                        HeapCell::Object { class, .. } => program.is_subclass(*class, *c),
                        HeapCell::Array { .. } => false,
                    },
                    _ => false,
                };
                Some(Value::Bool(r))
            }
            Op::Cast(c) => {
                let v = arg(0);
                match v {
                    Value::Null => Some(Value::Null),
                    Value::Ref(r) => match self.heap.cell(r) {
                        HeapCell::Object { class, .. } if program.is_subclass(*class, *c) => {
                            Some(v)
                        }
                        _ => return Err(TrapKind::CastFailed),
                    },
                    _ => return Err(TrapKind::CastFailed),
                }
            }
            Op::Print => {
                self.output.print(program, &self.heap, arg(0));
                None
            }
            Op::Call(_) => unreachable!("calls are executed by the machine, not the store"),
        };
        if let Some(res) = data.result {
            regs[res.index()] = result;
        } else {
            debug_assert!(
                result.is_none(),
                "op without a result register produced one"
            );
        }
        Ok(())
    }
}
