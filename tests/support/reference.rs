//! The reference evaluator: the meaning of a source program, written as
//! plainly as possible and sharing no code with the executor it checks.
//!
//! It walks a method's [`Graph`] recursively over its own tagged values and
//! a `Vec` heap. There is no cost model, no profile, no lowering, no
//! register, no tier: only `incline_ir` — the graph, [`Program::resolve`],
//! [`Program::is_subclass`], the field layouts, and [`eval`] as the
//! specification of every scalar operation. A witness that shared the
//! executor's lowering or instruction semantics would repeat its bugs, so
//! this file may not `use` the VM, the optimizer, the inliners or the
//! baselines; CI greps for it.

use incline_ir::eval::{self, TrapKind};
use incline_ir::graph::{CallTarget, InstData, Op, Terminator};
use incline_ir::{ClassId, CmpOp, FieldId, Graph, MethodId, Program, SelectorId, Type, ValueId};

/// What a run may allocate, in slots: a cell costs its fields or
/// elements plus two. Past it, an allocation traps `HeapExhausted`.
pub const HEAP_SLOTS: u64 = 1 << 24;

/// A heap index, printed as the executor's `Value` prints one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HeapRef(pub u32);

/// A guest value. Its `Debug` is the executor's `Value` `Debug`, which is
/// how a run's return value is rendered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    Int(i64),
    Float(f64),
    Bool(bool),
    Null,
    Ref(HeapRef),
}

enum Cell {
    Object { class: ClassId, fields: Vec<Value> },
    Array { data: Vec<Value> },
}

/// What a run computed, rendered as `BenchResult::{final_value,
/// final_output}` render it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    /// `Some("Int(7)")`, or `None` from a `void` entry.
    pub value: Option<String>,
    /// One line per `print`.
    pub output: Vec<String>,
}

type Step<T> = Result<T, TrapKind>;

/// The values of one activation, by [`ValueId`].
type Env = [Option<Value>];

/// Runs `entry` of `program` on integer arguments, from an empty heap.
///
/// # Panics
///
/// On a `deopt` terminator: the oracle runs source programs only. A
/// conformance program stays well inside the executor's `MAX_DEPTH`; this
/// evaluator has no such bound and is no witness past it.
pub fn run(program: &Program, entry: MethodId, args: &[i64]) -> Step<Answer> {
    let mut eval = Eval {
        program,
        heap: Vec::new(),
        slots: 0,
        output: Vec::new(),
    };
    let value = eval.call(entry, args.iter().map(|&k| Value::Int(k)).collect())?;
    Ok(Answer {
        value: value.map(|v| format!("{v:?}")),
        output: eval.output,
    })
}

struct Eval<'p> {
    program: &'p Program,
    heap: Vec<Cell>,
    /// What `heap` costs against [`HEAP_SLOTS`].
    slots: u64,
    output: Vec<String>,
}

/// The register class a type travels in. A virtual call reaches no
/// implementation whose parameters or result travel in other classes than
/// the call passes and expects.
fn class_of(ty: Type) -> usize {
    match ty {
        Type::Int => 0,
        Type::Float => 1,
        Type::Bool => 2,
        Type::Object(_) | Type::Array(_) => 3,
    }
}

/// What a field or an array element holds before its first store.
fn zero(ty: Type) -> Value {
    let zeros = [Value::Int(0), Value::Float(0.0), Value::Bool(false)];
    zeros.get(class_of(ty)).copied().unwrap_or(Value::Null)
}

impl Eval<'_> {
    /// One activation of `method`: its returned value, `None` if `void`.
    fn call(&mut self, method: MethodId, args: Vec<Value>) -> Step<Option<Value>> {
        let graph = &self.program.method(method).graph;
        let mut env = vec![None; graph.value_count()];
        let (mut block, mut incoming) = (graph.entry(), args);
        loop {
            let data = graph.block(block);
            for (&p, v) in data.params.iter().zip(incoming) {
                env[p.index()] = Some(v);
            }
            for &i in &data.insts {
                let inst = graph.inst(i);
                if let Some(v) = self.exec(graph, &env, inst)? {
                    env[inst.result.expect("a result").index()] = Some(v);
                }
            }
            let get = |v: &ValueId| env[v.index()].expect("use of an unbound value");
            let taken = match &data.term {
                Terminator::Return(v) => return Ok(v.as_ref().map(get)),
                Terminator::Jump(..) => 0,
                Terminator::Branch { cond, .. } => usize::from(get(cond) != Value::Bool(true)),
                _ => panic!("the oracle runs source programs only"),
            };
            let (dest, args) = data.term.edges().nth(taken).expect("the taken edge");
            // Every argument is read before any parameter is bound.
            incoming = args.iter().map(get).collect();
            block = dest;
        }
    }

    /// Allocates a cell of `len` fields or elements within the heap bound.
    fn alloc(&mut self, len: u64, cell: impl FnOnce() -> Cell) -> Step<Value> {
        self.slots = self.slots.saturating_add(len).saturating_add(2);
        if self.slots > HEAP_SLOTS {
            return Err(TrapKind::HeapExhausted);
        }
        self.heap.push(cell());
        Ok(Value::Ref(HeapRef(self.heap.len() as u32 - 1)))
    }

    /// The cell behind a reference; null traps.
    fn cell(&mut self, v: Value) -> Step<&mut Cell> {
        match v {
            Value::Ref(HeapRef(r)) => Ok(&mut self.heap[r as usize]),
            _ => Err(TrapKind::NullDeref),
        }
    }

    /// The elements of an array; null (and an object) traps as null.
    fn array(&mut self, v: Value) -> Step<&mut Vec<Value>> {
        match self.cell(v)? {
            Cell::Array { data } => Ok(data),
            Cell::Object { .. } => Err(TrapKind::NullDeref),
        }
    }

    /// Element `i` of the array `v`.
    fn elem(&mut self, v: Value, i: i64) -> Step<&mut Value> {
        let (data, i) = (self.array(v)?, usize::try_from(i));
        i.ok().and_then(|i| data.get_mut(i)).ok_or(TrapKind::Bounds)
    }

    /// The slot of `field` in the object `v`; null (and an array) traps.
    fn field(&mut self, v: Value, field: FieldId) -> Step<&mut Value> {
        let offset = self.program.field(field).offset;
        match self.cell(v)? {
            Cell::Object { fields, .. } => Ok(&mut fields[offset]),
            Cell::Array { .. } => Err(TrapKind::NullDeref),
        }
    }

    /// The dynamic class of `v`: `None` for null and for an array.
    fn class(&self, v: Value) -> Option<ClassId> {
        match v {
            Value::Ref(HeapRef(r)) => match &self.heap[r as usize] {
                Cell::Object { class, .. } => Some(*class),
                Cell::Array { .. } => None,
            },
            _ => None,
        }
    }

    /// Whether `v` is an instance of `c` or of a subclass of it.
    fn is(&self, v: Value, c: ClassId) -> bool {
        matches!(self.class(v), Some(k) if self.program.is_subclass(k, c))
    }

    /// How a value prints: references as their shape, floats as `{f:?}`.
    fn show(&self, v: Value) -> String {
        match v {
            Value::Int(k) => k.to_string(),
            Value::Float(f) => format!("{f:?}"),
            Value::Bool(b) => b.to_string(),
            Value::Null => "null".to_string(),
            Value::Ref(HeapRef(r)) => match &self.heap[r as usize] {
                Cell::Object { class, .. } => self.program.class(*class).name.clone(),
                Cell::Array { data } => format!("array[{}]", data.len()),
            },
        }
    }

    /// The method a virtual call `i` of `g` reaches on `recv`.
    fn dispatch(&self, g: &Graph, i: &InstData, sel: SelectorId, recv: Value) -> Step<MethodId> {
        let Value::Ref(_) = recv else {
            return Err(TrapKind::NullDeref);
        };
        let found = self.class(recv).and_then(|k| self.program.resolve(k, sel));
        let m = found.ok_or(TrapKind::NoSuchMethod)?;
        let method = self.program.method(m);
        let theirs = method.params.iter().copied().chain(method.ret.value());
        let ours = i.args.iter().chain(&i.result).map(|&v| g.value_type(v));
        let fits = theirs.map(class_of).eq(ours.map(class_of));
        fits.then_some(m).ok_or(TrapKind::NoSuchMethod)
    }

    /// Executes one instruction and returns its result.
    fn exec(&mut self, graph: &Graph, env: &Env, inst: &InstData) -> Step<Option<Value>> {
        let arg = |k: usize| env[inst.args[k].index()].expect("use of an unbound value");
        let int = |k: usize| match arg(k) {
            Value::Int(x) => x,
            other => panic!("expected an int, got {other:?}"),
        };
        let float = |k: usize| match arg(k) {
            Value::Float(x) => x,
            other => panic!("expected a float, got {other:?}"),
        };
        let v = match inst.op {
            Op::Nop => return Ok(None),
            Op::ConstInt(k) => Value::Int(k),
            Op::ConstFloat(bits) => Value::Float(f64::from_bits(bits)),
            Op::ConstBool(b) => Value::Bool(b),
            Op::ConstNull(_) => Value::Null,
            Op::Bin(b) if b.is_float() => Value::Float(eval::eval_float_bin(b, float(0), float(1))),
            Op::Bin(b) => Value::Int(eval::eval_int_bin(b, int(0), int(1))?),
            Op::Cmp(CmpOp::RefEq) => Value::Bool(arg(0) == arg(1)),
            Op::Cmp(c @ (CmpOp::FEq | CmpOp::FLt | CmpOp::FLe)) => {
                Value::Bool(eval::eval_float_cmp(c, float(0), float(1)))
            }
            Op::Cmp(c) => Value::Bool(eval::eval_int_cmp(c, int(0), int(1))),
            Op::Not => Value::Bool(arg(0) != Value::Bool(true)),
            Op::INeg => Value::Int(int(0).wrapping_neg()),
            Op::FNeg => Value::Float(-float(0)),
            Op::IntToFloat => Value::Float(eval::int_to_float(int(0))),
            Op::FloatToInt => Value::Int(eval::float_to_int(float(0))),
            Op::New(class) => {
                let mut fields = vec![Value::Null; self.program.class(class).instance_len];
                let mut cur = Some(class);
                while let Some(c) = cur {
                    for &f in &self.program.class(c).declared_fields {
                        let fd = self.program.field(f);
                        fields[fd.offset] = zero(fd.ty);
                    }
                    cur = self.program.class(c).parent;
                }
                self.alloc(fields.len() as u64, || Cell::Object { class, fields })?
            }
            Op::GetField(f) => *self.field(arg(0), f)?,
            Op::NewArray(elem) => {
                let len = int(0);
                if len < 0 {
                    return Err(TrapKind::NegativeLength);
                }
                let data = || vec![zero(elem.to_type()); len as usize];
                self.alloc(len as u64, || Cell::Array { data: data() })?
            }
            Op::ArrayGet => *self.elem(arg(0), int(1))?,
            Op::ArrayLen => Value::Int(self.array(arg(0))?.len() as i64),
            Op::InstanceOf(c) => Value::Bool(self.is(arg(0), c)),
            Op::Cast(c) => match arg(0) {
                v if v == Value::Null || self.is(v, c) => v,
                _ => return Err(TrapKind::CastFailed),
            },
            Op::SetField(f) => {
                *self.field(arg(0), f)? = arg(1);
                return Ok(None);
            }
            Op::ArraySet => {
                *self.elem(arg(0), int(1))? = arg(2);
                return Ok(None);
            }
            Op::Print => {
                let line = self.show(arg(0));
                self.output.push(line);
                return Ok(None);
            }
            Op::Call(info) => {
                let values: Vec<Value> = (0..inst.args.len()).map(arg).collect();
                let target = match info.target {
                    CallTarget::Static(m) => m,
                    CallTarget::Virtual(sel) => self.dispatch(graph, inst, sel, values[0])?,
                };
                return self.call(target, values);
            }
        };
        Ok(Some(v))
    }
}
