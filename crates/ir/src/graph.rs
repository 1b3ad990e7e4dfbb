//! The IR graph: basic blocks with block parameters (SSA without phis).
//!
//! Every value is either a block parameter or the single result of an
//! instruction. Control-flow edges pass arguments to the target block's
//! parameters, which plays the role of phi nodes (as in Cranelift or MLIR).
//!
//! Graphs are plain data and `Clone`; the inliner clones callee graphs into
//! call-tree nodes, specializes them and finally transplants them into the
//! root method (see [`crate::inline`]).

use std::sync::{Arc, OnceLock};

use crate::dom::DomTree;
use crate::ids::{BlockId, CallSiteId, ClassId, FieldId, InstId, MethodId, SelectorId, ValueId};
use crate::loops::LoopForest;
use crate::operands::Operands;
use crate::program::Program;
use crate::types::{ElemType, Type};

/// Integer and float binary arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer addition (wrapping).
    IAdd,
    /// Integer subtraction (wrapping).
    ISub,
    /// Integer multiplication (wrapping).
    IMul,
    /// Integer division; traps on division by zero.
    IDiv,
    /// Integer remainder; traps on division by zero.
    IRem,
    /// Bitwise and.
    IAnd,
    /// Bitwise or.
    IOr,
    /// Bitwise xor.
    IXor,
    /// Shift left (modulo 64).
    IShl,
    /// Arithmetic shift right (modulo 64).
    IShr,
    /// Float addition.
    FAdd,
    /// Float subtraction.
    FSub,
    /// Float multiplication.
    FMul,
    /// Float division.
    FDiv,
}

impl BinOp {
    /// Whether the operator works on floats (otherwise ints).
    pub fn is_float(self) -> bool {
        matches!(self, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
    }

    /// Whether the operator can trap at runtime.
    pub fn can_trap(self) -> bool {
        matches!(self, BinOp::IDiv | BinOp::IRem)
    }

    /// Whether `a op b == b op a`.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::IAdd
                | BinOp::IMul
                | BinOp::IAnd
                | BinOp::IOr
                | BinOp::IXor
                | BinOp::FAdd
                | BinOp::FMul
        )
    }
}

/// Comparison operators producing a `bool`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Integer equality.
    IEq,
    /// Integer inequality.
    INe,
    /// Integer less-than.
    ILt,
    /// Integer less-or-equal.
    ILe,
    /// Integer greater-than.
    IGt,
    /// Integer greater-or-equal.
    IGe,
    /// Float equality.
    FEq,
    /// Float less-than.
    FLt,
    /// Float less-or-equal.
    FLe,
    /// Reference identity (objects, arrays, null).
    RefEq,
}

impl CmpOp {
    /// Operand type expected on both sides.
    pub fn operand_kind(self) -> Option<Type> {
        match self {
            CmpOp::IEq | CmpOp::INe | CmpOp::ILt | CmpOp::ILe | CmpOp::IGt | CmpOp::IGe => {
                Some(Type::Int)
            }
            CmpOp::FEq | CmpOp::FLt | CmpOp::FLe => Some(Type::Float),
            CmpOp::RefEq => None, // any reference type
        }
    }
}

/// Dispatch target of a call instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CallTarget {
    /// Direct call to a known method.
    Static(MethodId),
    /// Virtual dispatch on the dynamic class of `args[0]`.
    Virtual(SelectorId),
}

/// A call instruction's payload: target plus its stable profile key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CallInfo {
    /// Static or virtual target.
    pub target: CallTarget,
    /// Stable callsite identity (survives cloning and inlining).
    pub site: CallSiteId,
}

/// Instruction operations.
///
/// Operand arity and typing are [`Graph::result_type`]'s, and nobody
/// else's; the text form of each is in one table, `MNEMONICS`.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Placeholder left behind by passes; never executed, never printed.
    Nop,
    /// Integer constant.
    ConstInt(i64),
    /// Float constant (stored as bits so `Op: Eq`-ish comparisons behave).
    ConstFloat(u64),
    /// Boolean constant.
    ConstBool(bool),
    /// Null constant of the given reference type.
    ConstNull(Type),
    /// Binary arithmetic: `args = [lhs, rhs]`.
    Bin(BinOp),
    /// Comparison: `args = [lhs, rhs]`, result `bool`.
    Cmp(CmpOp),
    /// Boolean negation: `args = [x]`.
    Not,
    /// Integer negation: `args = [x]`.
    INeg,
    /// Float negation: `args = [x]`.
    FNeg,
    /// Int → float conversion: `args = [x]`.
    IntToFloat,
    /// Float → int conversion (truncating): `args = [x]`.
    FloatToInt,
    /// Allocate an instance of the class; fields zero-initialized.
    New(ClassId),
    /// Field load: `args = [obj]`; traps on null.
    GetField(FieldId),
    /// Field store: `args = [obj, value]`; traps on null.
    SetField(FieldId),
    /// Allocate an array: `args = [len]`; traps on negative length.
    NewArray(ElemType),
    /// Array load: `args = [arr, index]`; traps on null/bounds.
    ArrayGet,
    /// Array store: `args = [arr, index, value]`; traps on null/bounds.
    ArraySet,
    /// Array length: `args = [arr]`; traps on null.
    ArrayLen,
    /// Call: `args` are the actual arguments (receiver first if virtual).
    Call(CallInfo),
    /// Dynamic type test: `args = [obj]`, result `bool`; null is not an
    /// instance of anything.
    InstanceOf(ClassId),
    /// Checked downcast: `args = [obj]`; traps if the object is not an
    /// instance (null passes through).
    Cast(ClassId),
    /// Output intrinsic: `args = [value]`; appends to the program output
    /// stream (observable side effect used by differential tests).
    Print,
}

/// A placeholder payload, for the [`MNEMONICS`] entries of call ops.
const ANY_SITE: CallSiteId = CallSiteId {
    method: MethodId::new(0),
    index: 0,
};

/// Every operation's name in the text format, with a representative of its
/// kind — the one table the printer ([`Op::mnemonic`]) and the parser read.
/// Payloads (constants, classes, fields, call targets) are placeholders: an
/// op matches the entry of the same variant, operator, and static or
/// virtual call target.
pub(crate) const MNEMONICS: &[(&str, Op)] = &[
    ("nop", Op::Nop),
    ("const.int", Op::ConstInt(0)),
    ("const.float", Op::ConstFloat(0)),
    ("const.bool", Op::ConstBool(false)),
    ("const.null", Op::ConstNull(Type::Int)),
    ("iadd", Op::Bin(BinOp::IAdd)),
    ("isub", Op::Bin(BinOp::ISub)),
    ("imul", Op::Bin(BinOp::IMul)),
    ("idiv", Op::Bin(BinOp::IDiv)),
    ("irem", Op::Bin(BinOp::IRem)),
    ("iand", Op::Bin(BinOp::IAnd)),
    ("ior", Op::Bin(BinOp::IOr)),
    ("ixor", Op::Bin(BinOp::IXor)),
    ("ishl", Op::Bin(BinOp::IShl)),
    ("ishr", Op::Bin(BinOp::IShr)),
    ("fadd", Op::Bin(BinOp::FAdd)),
    ("fsub", Op::Bin(BinOp::FSub)),
    ("fmul", Op::Bin(BinOp::FMul)),
    ("fdiv", Op::Bin(BinOp::FDiv)),
    ("ieq", Op::Cmp(CmpOp::IEq)),
    ("ine", Op::Cmp(CmpOp::INe)),
    ("ilt", Op::Cmp(CmpOp::ILt)),
    ("ile", Op::Cmp(CmpOp::ILe)),
    ("igt", Op::Cmp(CmpOp::IGt)),
    ("ige", Op::Cmp(CmpOp::IGe)),
    ("feq", Op::Cmp(CmpOp::FEq)),
    ("flt", Op::Cmp(CmpOp::FLt)),
    ("fle", Op::Cmp(CmpOp::FLe)),
    ("refeq", Op::Cmp(CmpOp::RefEq)),
    ("not", Op::Not),
    ("ineg", Op::INeg),
    ("fneg", Op::FNeg),
    ("i2f", Op::IntToFloat),
    ("f2i", Op::FloatToInt),
    ("new", Op::New(ClassId::new(0))),
    ("getfield", Op::GetField(FieldId::new(0))),
    ("setfield", Op::SetField(FieldId::new(0))),
    ("newarray", Op::NewArray(ElemType::Int)),
    ("aget", Op::ArrayGet),
    ("aset", Op::ArraySet),
    ("alen", Op::ArrayLen),
    (
        "call",
        Op::Call(CallInfo {
            target: CallTarget::Static(MethodId::new(0)),
            site: ANY_SITE,
        }),
    ),
    (
        "callv",
        Op::Call(CallInfo {
            target: CallTarget::Virtual(SelectorId::new(0)),
            site: ANY_SITE,
        }),
    ),
    ("instanceof", Op::InstanceOf(ClassId::new(0))),
    ("cast", Op::Cast(ClassId::new(0))),
    ("print", Op::Print),
];

impl Op {
    /// The op's name in the text format ([`MNEMONICS`]).
    pub(crate) fn mnemonic(&self) -> &'static str {
        MNEMONICS
            .iter()
            .find(|(_, kind)| kind.same_kind(self))
            .expect("every op has an entry")
            .0
    }

    /// Whether two ops are the same operation, payloads aside.
    fn same_kind(&self, other: &Op) -> bool {
        match (self, other) {
            (Op::Bin(a), Op::Bin(b)) => a == b,
            (Op::Cmp(a), Op::Cmp(b)) => a == b,
            (Op::Call(a), Op::Call(b)) => {
                matches!(a.target, CallTarget::Static(_))
                    == matches!(b.target, CallTarget::Static(_))
            }
            _ => std::mem::discriminant(self) == std::mem::discriminant(other),
        }
    }

    /// Whether the op writes memory or produces output.
    pub fn has_side_effect(&self) -> bool {
        matches!(
            self,
            Op::SetField(_) | Op::ArraySet | Op::Call(_) | Op::Print
        )
    }

    /// Whether the op can trap at runtime (division, null deref, bounds,
    /// failed cast). `Call` is excluded; callee effects are theirs.
    pub fn can_trap(&self) -> bool {
        match self {
            Op::Bin(b) => b.can_trap(),
            Op::GetField(_)
            | Op::SetField(_)
            | Op::ArrayGet
            | Op::ArraySet
            | Op::ArrayLen
            | Op::Cast(_) => true,
            Op::NewArray(_) => true,
            _ => false,
        }
    }

    /// Whether two executions with identical arguments yield identical
    /// results and effects — the candidate set for global value numbering.
    ///
    /// Memory reads are excluded (stores may intervene); allocations are
    /// excluded (distinct identities); side effects are excluded.
    pub fn is_value_numberable(&self) -> bool {
        match self {
            Op::ConstInt(_) | Op::ConstFloat(_) | Op::ConstBool(_) | Op::ConstNull(_) => true,
            Op::Bin(_) | Op::Cmp(_) | Op::Not | Op::INeg | Op::FNeg => true,
            // Array lengths are immutable, so `arraylen` numbers safely; the
            // dominating occurrence traps iff the dominated one would.
            Op::IntToFloat | Op::FloatToInt | Op::InstanceOf(_) | Op::ArrayLen => true,
            _ => false,
        }
    }

    /// Whether an unused result makes the instruction removable.
    pub fn is_removable_if_unused(&self) -> bool {
        !self.has_side_effect() && !self.can_trap() && !matches!(self, Op::Nop)
    }

    /// The callsite id if this is a call.
    pub fn call_site(&self) -> Option<CallSiteId> {
        match self {
            Op::Call(info) => Some(info.site),
            _ => None,
        }
    }

    /// The type of the value a constant op produces; `None` for any other
    /// op.
    pub fn const_type(&self) -> Option<Type> {
        match self {
            Op::ConstInt(_) => Some(Type::Int),
            Op::ConstFloat(_) => Some(Type::Float),
            Op::ConstBool(_) => Some(Type::Bool),
            Op::ConstNull(t) => Some(*t),
            _ => None,
        }
    }
}

/// Where a value comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueDef {
    /// The `index`-th parameter of `block`.
    Param(BlockId, u32),
    /// The result of an instruction.
    Inst(InstId),
}

/// Type and definition of an SSA value.
#[derive(Clone, Debug)]
pub struct ValueData {
    /// Static type of the value.
    pub ty: Type,
    /// Defining entity.
    pub def: ValueDef,
}

/// An instruction: operation, operands and optional result value.
#[derive(Clone, Debug)]
pub struct InstData {
    /// The operation.
    pub op: Op,
    /// Operand values.
    pub args: Operands,
    /// Result value, if the operation produces one.
    pub result: Option<ValueId>,
}

/// Why a [`Terminator::Deopt`] uncommon trap was emitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeoptReason {
    /// A typeswitch guard cascade fell through every speculated case: the
    /// receiver was not covered by the compile-time profile.
    UncoveredReceiver,
    /// Injected by the fault-injection harness.
    Injected,
}

impl DeoptReason {
    /// Stable lowercase label, used by the printer/parser and trace events.
    pub fn label(self) -> &'static str {
        match self {
            DeoptReason::UncoveredReceiver => "uncovered_receiver",
            DeoptReason::Injected => "injected",
        }
    }

    /// Parses the printer's label back into a reason.
    pub fn from_label(s: &str) -> Option<DeoptReason> {
        match s {
            "uncovered_receiver" => Some(DeoptReason::UncoveredReceiver),
            "injected" => Some(DeoptReason::Injected),
            _ => None,
        }
    }
}

impl std::fmt::Display for DeoptReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Block terminators.
#[derive(Clone, Debug, PartialEq)]
pub enum Terminator {
    /// Unconditional jump passing `args` to the target's parameters.
    Jump(BlockId, Vec<ValueId>),
    /// Two-way branch on a boolean condition.
    Branch {
        /// Condition value (`bool`).
        cond: ValueId,
        /// Target and arguments when the condition is true.
        then_dest: (BlockId, Vec<ValueId>),
        /// Target and arguments when the condition is false.
        else_dest: (BlockId, Vec<ValueId>),
    },
    /// Return from the method, with a value unless the method is `void`.
    Return(Option<ValueId>),
    /// Uncommon trap: abandon this compiled activation and transfer it to
    /// the interpreter (paper §IV — a typeswitch fallback may be "a virtual
    /// call or a deoptimization"). Valid under any return type; only the
    /// compiler introduces it, source graphs never contain one.
    Deopt {
        /// Why the trap was emitted.
        reason: DeoptReason,
    },
    /// Marker for not-yet-terminated blocks; invalid in finished graphs.
    Unterminated,
}

impl Terminator {
    /// Successor blocks of this terminator (at most two; a branch whose
    /// arms share a target yields it twice). Never allocates.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> {
        let pair = match self {
            Terminator::Jump(b, _) => [Some(*b), None],
            Terminator::Branch {
                then_dest,
                else_dest,
                ..
            } => [Some(then_dest.0), Some(else_dest.0)],
            Terminator::Return(_) | Terminator::Deopt { .. } | Terminator::Unterminated => {
                [None, None]
            }
        };
        pair.into_iter().flatten()
    }

    /// Outgoing edges: each successor with the arguments it receives, in
    /// then/else order. Never allocates.
    pub fn edges(&self) -> impl Iterator<Item = (BlockId, &[ValueId])> {
        let pair = match self {
            Terminator::Jump(b, args) => [Some((*b, args.as_slice())), None],
            Terminator::Branch {
                then_dest,
                else_dest,
                ..
            } => [
                Some((then_dest.0, then_dest.1.as_slice())),
                Some((else_dest.0, else_dest.1.as_slice())),
            ],
            Terminator::Return(_) | Terminator::Deopt { .. } | Terminator::Unterminated => {
                [None, None]
            }
        };
        pair.into_iter().flatten()
    }

    /// Values used by this terminator: the branch condition or returned
    /// value first, then the edge arguments. Never allocates.
    pub fn uses(&self) -> impl Iterator<Item = ValueId> + '_ {
        let (head, first, second): (Option<ValueId>, &[ValueId], &[ValueId]) = match self {
            Terminator::Jump(_, args) => (None, args, &[]),
            Terminator::Branch {
                cond,
                then_dest,
                else_dest,
            } => (Some(*cond), &then_dest.1, &else_dest.1),
            Terminator::Return(v) => (*v, &[], &[]),
            Terminator::Deopt { .. } | Terminator::Unterminated => (None, &[], &[]),
        };
        head.into_iter()
            .chain(first.iter().copied())
            .chain(second.iter().copied())
    }

    /// Calls `f` on every value slot of this terminator, in [`uses`] order,
    /// so passes can rewrite operands in place.
    ///
    /// [`uses`]: Terminator::uses
    pub fn for_each_use_mut(&mut self, mut f: impl FnMut(&mut ValueId)) {
        match self {
            Terminator::Jump(_, args) => args.iter_mut().for_each(f),
            Terminator::Branch {
                cond,
                then_dest,
                else_dest,
            } => {
                f(cond);
                then_dest.1.iter_mut().for_each(&mut f);
                else_dest.1.iter_mut().for_each(&mut f);
            }
            Terminator::Return(Some(v)) => f(v),
            Terminator::Return(None) | Terminator::Deopt { .. } | Terminator::Unterminated => {}
        }
    }
}

/// A basic block: parameters, instruction list, terminator.
#[derive(Clone, Debug)]
pub struct BlockData {
    /// Parameter values of the block (the SSA phi replacement).
    pub params: Vec<ValueId>,
    /// Instructions in execution order.
    pub insts: Vec<InstId>,
    /// The terminator.
    pub term: Terminator,
}

impl BlockData {
    /// A block without parameters or instructions, not yet terminated.
    fn empty() -> Self {
        BlockData {
            params: Vec::new(),
            insts: Vec::new(),
            term: Terminator::Unterminated,
        }
    }
}

/// An IR graph: the body of one method.
#[derive(Clone, Debug)]
pub struct Graph {
    values: Vec<ValueData>,
    insts: Vec<InstData>,
    blocks: Vec<BlockData>,
    entry: BlockId,
    shape: ShapeAnalyses,
}

/// The analyses that depend on nothing but the CFG's shape — which blocks
/// there are and where their terminators lead — computed when first asked
/// for and kept until an edit that can change a successor.
///
/// Every method of [`Graph`] that hands out a terminator or adds a block
/// empties this first ([`Graph::set_terminator`], [`Graph::fold_branch`],
/// [`Graph::block_mut`], [`Graph::add_block`]); no other method can reach
/// one, so a filled slot is always the analysis of the graph as it is. The
/// slots are handles: a sweep that edits the shape while it walks keeps the
/// order it started with alive by holding its own, and a clone of the graph
/// — same shape — shares them.
#[derive(Clone, Debug, Default)]
struct ShapeAnalyses {
    /// [`Graph::block_order`]: a word per block, wanted by every reader, so
    /// it stays for as long as the shape does.
    order: OnceLock<Arc<[BlockId]>>,
    /// [`Graph::dom_tree`]: ten times that and wanted by optimization
    /// passes only, so the pipeline lets go of it when a run ends
    /// ([`Graph::release_dom_tree`]) and graphs at rest carry none.
    dom: OnceLock<Arc<DomTree>>,
}

impl Default for Graph {
    fn default() -> Self {
        Self::empty()
    }
}

impl Graph {
    /// Creates a graph with a single empty, unterminated entry block.
    pub fn empty() -> Self {
        Graph {
            values: Vec::new(),
            insts: Vec::new(),
            blocks: vec![BlockData::empty()],
            entry: BlockId::new(0),
            shape: ShapeAnalyses::default(),
        }
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Adds a new empty block and returns its id. Drops the cached shape
    /// analyses: their tables are sized by the block count.
    pub fn add_block(&mut self) -> BlockId {
        self.shape = ShapeAnalyses::default();
        let id = BlockId::new(self.blocks.len());
        self.blocks.push(BlockData::empty());
        id
    }

    /// Appends a parameter of type `ty` to `block` and returns its value.
    pub fn add_block_param(&mut self, block: BlockId, ty: Type) -> ValueId {
        let index = self.blocks[block.index()].params.len() as u32;
        let v = ValueId::new(self.values.len());
        self.values.push(ValueData {
            ty,
            def: ValueDef::Param(block, index),
        });
        self.blocks[block.index()].params.push(v);
        v
    }

    /// Creates an instruction (without inserting it into a block).
    ///
    /// If `result_ty` is `Some`, a fresh result value is allocated.
    pub fn create_inst(
        &mut self,
        op: Op,
        args: impl Into<Operands>,
        result_ty: Option<Type>,
    ) -> InstId {
        let id = InstId::new(self.insts.len());
        let result = result_ty.map(|ty| {
            let v = ValueId::new(self.values.len());
            self.values.push(ValueData {
                ty,
                def: ValueDef::Inst(id),
            });
            v
        });
        self.insts.push(InstData {
            op,
            args: args.into(),
            result,
        });
        id
    }

    /// Creates an instruction and appends it to `block`. Returns the
    /// instruction id and its result value (if any).
    pub fn append(
        &mut self,
        block: BlockId,
        op: Op,
        args: impl Into<Operands>,
        result_ty: Option<Type>,
    ) -> (InstId, Option<ValueId>) {
        let id = self.create_inst(op, args, result_ty);
        self.blocks[block.index()].insts.push(id);
        let result = self.insts[id.index()].result;
        (id, result)
    }

    /// The typing rule of every operation, and the only statement of it:
    /// checks that `args` are operands `op` accepts — their number, and
    /// each one's type — and returns the type of the value `op` produces
    /// (`None`: it produces none). The verifier compares the answer with
    /// each instruction's recorded result; the parser and
    /// [`crate::FunctionBuilder`] record it. Every operand must be a value
    /// of this graph.
    ///
    /// A static call passes values assignable to the callee's parameters
    /// and yields its return type. A virtual call yields the return type of
    /// the method its selector resolves to on the receiver's static class —
    /// or, when that class has none, of any method declaring the selector
    /// (dispatch then traps at run time).
    ///
    /// # Errors
    ///
    /// Describes the first operand `op` refuses.
    pub fn result_type(
        &self,
        program: &Program,
        op: &Op,
        args: &[ValueId],
    ) -> Result<Option<Type>, String> {
        let ty = |k: usize| self.value_type(args[k]);
        let arity = |n: usize| {
            let argc = args.len();
            ensure(argc == n, || {
                format!("{} expects {n} operands, got {argc}", op.mnemonic())
            })
        };
        // `n` operands, every one of type `t`.
        let all = |n: usize, t: Type| {
            arity(n)?;
            let plural = if n == 1 { "" } else { " operands" };
            ensure(args.iter().all(|&a| self.value_type(a) == t), || {
                format!("{} expects {t}{plural}", op.mnemonic())
            })
        };
        let reference = |t: Type, what: &str| {
            ensure(t.is_reference(), || {
                format!("{what} must be a reference, got {t}")
            })
        };
        let assignable = |k: usize, to: Type, what: &str| {
            let from = ty(k);
            ensure(program.is_assignable(from, to), || {
                format!("{what} {from} not assignable to {to}")
            })
        };
        let receiver = |holder: ClassId, what: &str| {
            ensure(program.is_assignable(ty(0), Type::Object(holder)), || {
                format!("{what} receiver {} not an instance of holder", ty(0))
            })
        };
        // `[array, index, ..]`; the element type.
        let element = |what: &str| {
            let Type::Array(e) = ty(0) else {
                return Err(format!("{what} on non-array"));
            };
            ensure(ty(1) == Type::Int, || "array index must be int".to_string())?;
            Ok(e.to_type())
        };
        Ok(match op {
            Op::Nop => return Err("nop must not appear in a block".to_string()),
            Op::ConstInt(_) | Op::ConstFloat(_) | Op::ConstBool(_) => {
                arity(0)?;
                op.const_type()
            }
            Op::ConstNull(t) => {
                arity(0)?;
                reference(*t, "null type")?;
                Some(*t)
            }
            Op::Bin(b) => {
                let t = if b.is_float() { Type::Float } else { Type::Int };
                all(2, t)?;
                Some(t)
            }
            Op::Cmp(c) => {
                match c.operand_kind() {
                    Some(t) => all(2, t)?,
                    None => {
                        arity(2)?;
                        reference(ty(0), "refeq lhs")?;
                        reference(ty(1), "refeq rhs")?;
                    }
                }
                Some(Type::Bool)
            }
            Op::Not => all(1, Type::Bool).map(|()| Some(Type::Bool))?,
            Op::INeg => all(1, Type::Int).map(|()| Some(Type::Int))?,
            Op::FNeg => all(1, Type::Float).map(|()| Some(Type::Float))?,
            Op::IntToFloat => all(1, Type::Int).map(|()| Some(Type::Float))?,
            Op::FloatToInt => all(1, Type::Float).map(|()| Some(Type::Int))?,
            Op::New(c) => arity(0).map(|()| Some(Type::Object(*c)))?,
            Op::GetField(f) => {
                arity(1)?;
                let fd = program.field(*f);
                receiver(fd.holder, "getfield")?;
                Some(fd.ty)
            }
            Op::SetField(f) => {
                arity(2)?;
                let fd = program.field(*f);
                receiver(fd.holder, "setfield")?;
                assignable(1, fd.ty, "setfield value")?;
                None
            }
            Op::NewArray(e) => all(1, Type::Int).map(|()| Some(Type::Array(*e)))?,
            Op::ArrayGet => {
                arity(2)?;
                Some(element("arrayget")?)
            }
            Op::ArraySet => {
                arity(3)?;
                let elem = element("arrayset")?;
                assignable(2, elem, "arrayset value")?;
                None
            }
            Op::ArrayLen => {
                arity(1)?;
                ensure(matches!(ty(0), Type::Array(_)), || {
                    "arraylen on non-array".to_string()
                })?;
                Some(Type::Int)
            }
            Op::Call(info) => match info.target {
                CallTarget::Static(m) => {
                    let callee = program.method(m);
                    let (argc, want) = (args.len(), callee.params.len());
                    ensure(argc == want, || {
                        format!("call to {} passes {argc} args, expects {want}", callee.name)
                    })?;
                    for (k, &pt) in callee.params.iter().enumerate() {
                        ensure(program.is_assignable(ty(k), pt), || {
                            format!("call arg {k}: {} not assignable to {pt}", ty(k))
                        })?;
                    }
                    callee.ret.value()
                }
                CallTarget::Virtual(sel) => {
                    let sd = program.selector(sel);
                    let argc = args.len();
                    ensure(sd.arity == argc, || {
                        format!("virtual call arity {argc} != selector {sd}")
                    })?;
                    let Some(Type::Object(class)) = args.first().map(|&a| self.value_type(a))
                    else {
                        return Err("virtual call receiver must be an object".to_string());
                    };
                    let decl = program.resolve(class, sel).or_else(|| {
                        program
                            .method_ids()
                            .find(|&m| program.method(m).selector == Some(sel))
                    });
                    let Some(decl) = decl else {
                        return Err(format!("no declaration of selector {sd}"));
                    };
                    program.method(decl).ret.value()
                }
            },
            Op::InstanceOf(_) => {
                arity(1)?;
                reference(ty(0), "instanceof operand")?;
                Some(Type::Bool)
            }
            Op::Cast(c) => {
                arity(1)?;
                reference(ty(0), "cast operand")?;
                Some(Type::Object(*c))
            }
            Op::Print => arity(1).map(|()| None)?,
        })
    }

    /// Inserts an existing instruction at `pos` within `block`.
    pub fn insert_inst(&mut self, block: BlockId, pos: usize, inst: InstId) {
        self.blocks[block.index()].insts.insert(pos, inst);
    }

    /// Sets the terminator of `block`. Drops the cached shape analyses.
    pub fn set_terminator(&mut self, block: BlockId, term: Terminator) {
        self.shape = ShapeAnalyses::default();
        self.blocks[block.index()].term = term;
    }

    /// Replaces the two-way branch ending `block` by a jump along its then
    /// arm (`take_then`) or its else arm, keeping that arm's arguments.
    /// Drops the cached shape analyses.
    ///
    /// # Panics
    ///
    /// Panics if `block` does not end in a branch.
    pub fn fold_branch(&mut self, block: BlockId, take_then: bool) {
        self.shape = ShapeAnalyses::default();
        let term = &mut self.blocks[block.index()].term;
        let Terminator::Branch {
            then_dest,
            else_dest,
            ..
        } = std::mem::replace(term, Terminator::Unterminated)
        else {
            panic!("fold_branch on a block that does not end in a branch");
        };
        let (dest, args) = if take_then { then_dest } else { else_dest };
        *term = Terminator::Jump(dest, args);
    }

    /// Returns block data.
    pub fn block(&self, id: BlockId) -> &BlockData {
        &self.blocks[id.index()]
    }

    /// Mutable block data, terminator included — so this drops the cached
    /// shape analyses. Edits that cannot retarget an edge go through
    /// [`Graph::insts_mut`] and [`Graph::for_each_term_use_mut`], which
    /// keep them.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BlockData {
        self.shape = ShapeAnalyses::default();
        &mut self.blocks[id.index()]
    }

    /// The instruction list of `block`, for passes that rebuild it in
    /// place. Cannot reach the terminator, so the cached shape analyses
    /// stay.
    pub fn insts_mut(&mut self, block: BlockId) -> &mut Vec<InstId> {
        &mut self.blocks[block.index()].insts
    }

    /// Calls `f` on every value slot of `block`'s terminator (see
    /// [`Terminator::for_each_use_mut`]). Operands only, never a
    /// destination, so the cached shape analyses stay.
    pub fn for_each_term_use_mut(&mut self, block: BlockId, f: impl FnMut(&mut ValueId)) {
        self.blocks[block.index()].term.for_each_use_mut(f);
    }

    /// Returns instruction data.
    pub fn inst(&self, id: InstId) -> &InstData {
        &self.insts[id.index()]
    }

    /// Mutable instruction data.
    pub fn inst_mut(&mut self, id: InstId) -> &mut InstData {
        &mut self.insts[id.index()]
    }

    /// Returns value data.
    pub fn value(&self, id: ValueId) -> &ValueData {
        &self.values[id.index()]
    }

    /// Static type of a value.
    pub fn value_type(&self, id: ValueId) -> Type {
        self.values[id.index()].ty
    }

    /// Narrows the recorded static type of a value (used by specialization).
    pub fn set_value_type(&mut self, id: ValueId, ty: Type) {
        self.values[id.index()].ty = ty;
    }

    /// Number of blocks ever created (including unreachable ones).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of values ever created.
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// Number of instructions ever created (including detached ones).
    pub fn inst_count(&self) -> usize {
        self.insts.len()
    }

    /// Iterates over all block ids (including unreachable ones).
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len()).map(BlockId::new)
    }

    /// Blocks reachable from the entry, in depth-first preorder: the order
    /// every sweep over the graph visits them in. Computed on first use per
    /// CFG shape and then shared; equal to [`Graph::reachable_blocks`].
    ///
    /// A sweep that only reads borrows it; one that edits the graph as it
    /// goes clones the handle (no copy), and thereby keeps walking the
    /// order it started with even when its own edits change the shape.
    pub fn block_order(&self) -> &Arc<[BlockId]> {
        self.shape
            .order
            .get_or_init(|| self.reachable_blocks().into())
    }

    /// The dominator tree, with the predecessor table it was built from
    /// ([`DomTree::preds`]). Computed on first use per CFG shape and then
    /// shared; equal to [`DomTree::compute`].
    pub fn dom_tree(&self) -> &Arc<DomTree> {
        self.shape
            .dom
            .get_or_init(|| Arc::new(DomTree::compute(self)))
    }

    /// Lets go of the cached dominator tree. The pipeline calls this when a
    /// run is over: no later reader exists — the next thing to happen to
    /// the graph is an edit that would drop the tree anyway, or nothing —
    /// while the graph may live long (an expanded call-tree node, a
    /// trial-cache entry, installed code).
    pub fn release_dom_tree(&mut self) {
        self.shape.dom = OnceLock::new();
    }

    /// The natural loops: from the dominator tree when the graph already
    /// has one, otherwise by [`LoopForest::compute`], which finds out that
    /// there is no loop — the common case — without building a tree. Not
    /// kept: whoever finds a loop changes the shape next.
    pub fn loop_forest(&self) -> LoopForest {
        match self.shape.dom.get() {
            Some(dom) => LoopForest::compute_with(self, dom),
            None => LoopForest::compute(self),
        }
    }

    /// Asserts that every cached shape analysis equals its uncached
    /// specification — the audit of `ShapeAnalyses`' invalidation rule.
    ///
    /// # Panics
    ///
    /// Panics on a stale analysis.
    #[cfg(any(test, debug_assertions))]
    pub fn assert_shape_analyses_fresh(&self) {
        if let Some(order) = self.shape.order.get() {
            assert_eq!(order[..], self.reachable_blocks()[..], "stale block order");
        }
        if let Some(dom) = self.shape.dom.get() {
            assert!(**dom == DomTree::compute(self), "stale dominator tree");
        }
    }

    /// Blocks reachable from the entry, in depth-first preorder, by a fresh
    /// walk: the specification of [`Graph::block_order`].
    pub fn reachable_blocks(&self) -> Vec<BlockId> {
        let mut seen = vec![false; self.blocks.len()];
        let mut order = Vec::new();
        let mut stack = vec![self.entry];
        seen[self.entry.index()] = true;
        while let Some(b) = stack.pop() {
            order.push(b);
            for s in self.blocks[b.index()].term.successors() {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        order
    }

    /// Predecessor table over reachable blocks, in depth-first preorder
    /// of the predecessors.
    pub fn predecessors(&self) -> Preds {
        Preds::over(self, self.block_order())
    }

    /// The paper's `|ir(n)|`: number of live IR nodes — block parameters,
    /// instructions and terminators of reachable blocks.
    pub fn size(&self) -> usize {
        self.block_order()
            .iter()
            .map(|&b| {
                let bd = &self.blocks[b.index()];
                bd.params.len() + bd.insts.len() + 1
            })
            .sum()
    }

    /// All call instructions in reachable blocks, in block order.
    pub fn callsites(&self) -> Vec<(BlockId, InstId)> {
        let mut out = Vec::new();
        for &b in self.block_order().iter() {
            for &i in &self.blocks[b.index()].insts {
                if matches!(self.insts[i.index()].op, Op::Call(_)) {
                    out.push((b, i));
                }
            }
        }
        out
    }

    /// Moves `v` to the definition `def` — a block parameter slot or an
    /// instruction's result — in O(1): every use of `v` now reads what
    /// `def` produces, and not one is rewritten. The value that held `def`
    /// takes `v`'s old definition in exchange, so no slot is left empty,
    /// and each of the two takes the type of its new definition.
    ///
    /// # Panics
    ///
    /// Panics if `def` is a parameter slot `def`'s block does not have, or
    /// an instruction without a result.
    pub fn redefine(&mut self, v: ValueId, def: ValueDef) {
        let held = *self.slot(def);
        let old = self.values[v.index()].def;
        *self.slot(def) = v;
        *self.slot(old) = held;
        self.values.swap(v.index(), held.index());
    }

    /// Where `def` records the value it defines.
    fn slot(&mut self, def: ValueDef) -> &mut ValueId {
        match def {
            ValueDef::Param(b, i) => &mut self.blocks[b.index()].params[i as usize],
            ValueDef::Inst(i) => self.insts[i.index()]
                .result
                .as_mut()
                .expect("redefine: the instruction has no result"),
        }
    }

    /// Turns `inst` into an [`Op::Nop`] tombstone without operands. The
    /// caller has already taken it out of its block's instruction list,
    /// and no use of its result is left (an alias table resolved them, or
    /// the result moved to another definition).
    pub fn neutralize_inst(&mut self, inst: InstId) {
        let data = &mut self.insts[inst.index()];
        data.op = Op::Nop;
        data.args.clear();
    }

    /// Detaches `inst` from `block` and neutralizes it to [`Op::Nop`].
    ///
    /// The caller must have already replaced all uses of the result.
    pub fn remove_inst(&mut self, block: BlockId, inst: InstId) {
        self.blocks[block.index()].insts.retain(|&i| i != inst);
        self.neutralize_inst(inst);
    }

    /// If `value` is defined by a constant instruction, returns the op.
    pub fn const_op(&self, value: ValueId) -> Option<&Op> {
        match self.values[value.index()].def {
            ValueDef::Inst(i) => match &self.insts[i.index()].op {
                op
                @ (Op::ConstInt(_) | Op::ConstFloat(_) | Op::ConstBool(_) | Op::ConstNull(_)) => {
                    Some(op)
                }
                _ => None,
            },
            ValueDef::Param(..) => None,
        }
    }

    /// Constant integer value of `value`, if statically known.
    pub fn as_const_int(&self, value: ValueId) -> Option<i64> {
        match self.const_op(value)? {
            Op::ConstInt(k) => Some(*k),
            _ => None,
        }
    }

    /// Constant bool value of `value`, if statically known.
    pub fn as_const_bool(&self, value: ValueId) -> Option<bool> {
        match self.const_op(value)? {
            Op::ConstBool(k) => Some(*k),
            _ => None,
        }
    }

    /// Constant float value of `value`, if statically known.
    pub fn as_const_float(&self, value: ValueId) -> Option<f64> {
        match self.const_op(value)? {
            Op::ConstFloat(bits) => Some(f64::from_bits(*bits)),
            _ => None,
        }
    }

    /// Whether `value` is a null constant.
    pub fn is_const_null(&self, value: ValueId) -> bool {
        matches!(self.const_op(value), Some(Op::ConstNull(_)))
    }

    /// Keeps only reachable blocks and live entities, renumbering every id
    /// densely: the reachable blocks in [`Graph::block_order`], then every
    /// block parameter in that order, then the instructions and their
    /// results in that order. Passes leave tombstones (detached
    /// instructions, unreachable blocks, dangling values) behind; installed
    /// code is compacted because it is what `compiled_graph`, fingerprints
    /// and the identity tables read (the executor's flat code numbers its
    /// slots densely whatever the graph's ids).
    ///
    /// Every live instruction and block moves into its new place, with its
    /// ids rewritten there; nothing is copied, so a caller that keeps the
    /// source compacts a clone.
    ///
    /// Note: instruction/value/block ids change; callers holding ids into
    /// the old graph (e.g. a call tree) must not use them afterwards.
    /// `CallSiteId`s stored inside call instructions are preserved.
    ///
    /// # Panics
    ///
    /// Panics on a live use of a value no reachable block defines.
    pub fn compact(&mut self) {
        const NONE: u32 = u32::MAX;
        let order = Arc::clone(self.block_order());
        let mut block_map = vec![NONE; self.blocks.len()];
        let mut value_map = vec![NONE; self.values.len()];
        let mut values = Vec::with_capacity(self.values.len());
        for (nb, &b) in order.iter().enumerate() {
            block_map[b.index()] = nb as u32;
            for (k, &p) in self.blocks[b.index()].params.iter().enumerate() {
                value_map[p.index()] = values.len() as u32;
                values.push(ValueData {
                    ty: self.values[p.index()].ty,
                    def: ValueDef::Param(BlockId::new(nb), k as u32),
                });
            }
        }
        let mut live = 0;
        for &b in order.iter() {
            for &i in &self.blocks[b.index()].insts {
                if let Some(r) = self.insts[i.index()].result {
                    value_map[r.index()] = values.len() as u32;
                    values.push(ValueData {
                        ty: self.values[r.index()].ty,
                        def: ValueDef::Inst(InstId::new(live)),
                    });
                }
                live += 1;
            }
        }

        let value = |v: &mut ValueId| {
            let n = value_map[v.index()];
            assert!(n != NONE, "compact: {v} is used but not defined");
            *v = ValueId::new(n as usize);
        };
        let block = |b: &mut BlockId| *b = BlockId::new(block_map[b.index()] as usize);
        let mut insts = Vec::with_capacity(live);
        let mut blocks = Vec::with_capacity(order.len());
        for &b in order.iter() {
            let mut bd = std::mem::replace(&mut self.blocks[b.index()], BlockData::empty());
            for i in &mut bd.insts {
                let tomb = InstData {
                    op: Op::Nop,
                    args: Operands::new(),
                    result: None,
                };
                let mut data = std::mem::replace(&mut self.insts[i.index()], tomb);
                data.args.iter_mut().for_each(value);
                data.result.iter_mut().for_each(value);
                *i = InstId::new(insts.len());
                insts.push(data);
            }
            bd.params.iter_mut().for_each(value);
            bd.term.for_each_use_mut(value);
            match &mut bd.term {
                Terminator::Jump(d, _) => block(d),
                Terminator::Branch {
                    then_dest,
                    else_dest,
                    ..
                } => {
                    block(&mut then_dest.0);
                    block(&mut else_dest.0);
                }
                Terminator::Return(_) | Terminator::Deopt { .. } | Terminator::Unterminated => {}
            }
            blocks.push(bd);
        }
        self.values = values;
        self.insts = insts;
        self.blocks = blocks;
        self.entry = BlockId::new(0);
        // The walk of the renumbered blocks is the old one renamed: 0, 1, …
        let renamed: Arc<[BlockId]> = self.block_ids().collect();
        self.shape = ShapeAnalyses {
            order: OnceLock::from(renamed),
            dom: OnceLock::new(),
        };
    }

    /// Clones `blocks` of `src` into this graph, in their order, and
    /// returns `map` completed with the clones: the one copy of blocks —
    /// an inlining step and loop peeling are both this.
    ///
    /// Three sweeps, each over `blocks` in order: block shells with their
    /// parameters, then instructions without operands (fresh results), then
    /// operands and terminators — so a use may precede its definition in
    /// `blocks`. An operand or successor the copy does not clone reads
    /// what `map` already holds for it, and panics where that is nothing.
    /// A `return` becomes `on_return(value)`, its value already mapped.
    ///
    /// # Panics
    ///
    /// Panics on an operand or successor `map` has no entry for.
    pub fn transplant(
        &mut self,
        src: &Graph,
        blocks: &[BlockId],
        mut map: Transplant,
        mut on_return: impl FnMut(Option<ValueId>) -> Terminator,
    ) -> Transplant {
        for &b in blocks {
            let nb = self.add_block();
            map.blocks[b.index()] = Some(nb);
            for &p in &src.block(b).params {
                map.values[p.index()] = Some(self.add_block_param(nb, src.value_type(p)));
            }
        }
        for &b in blocks {
            let nb = map.block(b);
            for &i in &src.block(b).insts {
                let data = src.inst(i);
                let result_ty = data.result.map(|r| src.value_type(r));
                let (ni, nres) = self.append(nb, data.op.clone(), Operands::new(), result_ty);
                map.insts[i.index()] = Some(ni);
                if let (Some(r), Some(nr)) = (data.result, nres) {
                    map.values[r.index()] = Some(nr);
                }
            }
        }
        for &b in blocks {
            for &i in &src.block(b).insts {
                let args = map.args(&src.inst(i).args);
                self.insts[map.inst(i).index()].args = args;
            }
            let term = match &src.block(b).term {
                Terminator::Jump(d, args) => Terminator::Jump(map.block(*d), map.args(args)),
                Terminator::Branch {
                    cond,
                    then_dest,
                    else_dest,
                } => Terminator::Branch {
                    cond: map.value(*cond),
                    then_dest: (map.block(then_dest.0), map.args(&then_dest.1)),
                    else_dest: (map.block(else_dest.0), map.args(&else_dest.1)),
                },
                Terminator::Return(v) => on_return(v.map(|v| map.value(v))),
                Terminator::Deopt { reason } => Terminator::Deopt { reason: *reason },
                Terminator::Unterminated => Terminator::Unterminated,
            };
            self.set_terminator(map.block(b), term);
        }
        map
    }

    /// Splits `block` at the call instruction `call`: the instructions
    /// after it and the terminator move to a new block, the continuation,
    /// and the call leaves the graph as a tombstone. `block` is left
    /// unterminated for the caller to wire. Returns the continuation and
    /// the call's result, which is now the continuation's one parameter
    /// ([`Graph::redefine`]): its uses read the parameter unchanged, so a
    /// split costs the instructions it moves, never a scan of the graph.
    ///
    /// # Panics
    ///
    /// Panics if `call` is not inside `block`.
    pub fn split_at_call(&mut self, block: BlockId, call: InstId) -> (BlockId, Option<ValueId>) {
        // From the back: an inliner working from the last call to the
        // first finds each at once, and moves no tail.
        let pos = self.blocks[block.index()]
            .insts
            .iter()
            .rposition(|&i| i == call)
            .expect("call instruction must be inside the given block");
        let continuation = self.add_block();
        let param = self.insts[call.index()].result.inspect(|&r| {
            self.add_block_param(continuation, self.value_type(r));
            self.redefine(r, ValueDef::Param(continuation, 0));
        });
        let from = &mut self.blocks[block.index()];
        let tail = from.insts.split_off(pos + 1);
        from.insts.truncate(pos);
        let term = std::mem::replace(&mut from.term, Terminator::Unterminated);
        let to = &mut self.blocks[continuation.index()];
        to.insts = tail;
        to.term = term;
        self.neutralize_inst(call);
        (continuation, param)
    }

    /// FNV-1a 64 structural fingerprint of the reachable program text:
    /// block parameters (ids + types), instructions (op, operands, result),
    /// and terminators, walked in depth-first preorder. Two graphs that
    /// print identically fingerprint identically; the hash never allocates
    /// (the block order is shared), unlike hashing the printed text.
    ///
    /// This is the `graph_fp` component of the deep-inlining trial-cache
    /// key (DESIGN.md §15).
    pub fn fingerprint(&self) -> u64 {
        let mut h = StructuralHasher::new();
        let reach = self.block_order();
        h.write_u64(reach.len() as u64);
        for &b in reach.iter() {
            let bd = &self.blocks[b.index()];
            h.write_u64(b.index() as u64);
            h.write_u64(bd.params.len() as u64);
            for &p in &bd.params {
                h.write_u64(p.index() as u64);
                h.write_type(self.values[p.index()].ty);
            }
            h.write_u64(bd.insts.len() as u64);
            for &i in &bd.insts {
                let inst = &self.insts[i.index()];
                h.write_op(&inst.op);
                h.write_u64(inst.args.len() as u64);
                for &a in &inst.args {
                    h.write_u64(a.index() as u64);
                }
                match inst.result {
                    Some(r) => {
                        h.write_u64(1);
                        h.write_u64(r.index() as u64);
                        h.write_type(self.values[r.index()].ty);
                    }
                    None => h.write_u64(0),
                }
            }
            h.write_terminator(&bd.term);
        }
        h.finish()
    }
}

/// Old → new tables of a copy of blocks ([`Graph::transplant`]), dense by
/// the source graph's ids; `None` marks what neither the copy nor its
/// caller mapped.
#[derive(Clone, Debug)]
pub struct Transplant {
    /// Source block → block of the copy.
    pub blocks: Vec<Option<BlockId>>,
    /// Source value → value of the copy.
    pub values: Vec<Option<ValueId>>,
    /// Source instruction → instruction of the copy.
    pub insts: Vec<Option<InstId>>,
}

impl Transplant {
    /// Nothing mapped: everything the copy reads must be something it
    /// clones (a whole graph, or a callee whose entry parameters the
    /// caller seeds).
    pub fn empty(src: &Graph) -> Self {
        Transplant {
            blocks: vec![None; src.block_count()],
            values: vec![None; src.value_count()],
            insts: vec![None; src.inst_count()],
        }
    }

    /// Everything maps to itself: a copy of some blocks of `g` into `g`
    /// keeps reading the values, and leaving for the blocks, it does not
    /// clone.
    pub fn identity(g: &Graph) -> Self {
        Transplant {
            blocks: g.block_ids().map(Some).collect(),
            values: (0..g.value_count())
                .map(|v| Some(ValueId::new(v)))
                .collect(),
            insts: (0..g.inst_count()).map(|i| Some(InstId::new(i))).collect(),
        }
    }

    /// The copy of block `b`.
    pub fn block(&self, b: BlockId) -> BlockId {
        self.blocks[b.index()].unwrap_or_else(|| panic!("unmapped block {b}"))
    }

    /// The copy of value `v`.
    pub fn value(&self, v: ValueId) -> ValueId {
        self.values[v.index()].unwrap_or_else(|| panic!("unmapped value {v}"))
    }

    /// The copy of instruction `i`.
    pub fn inst(&self, i: InstId) -> InstId {
        self.insts[i.index()].unwrap_or_else(|| panic!("unmapped instruction {i}"))
    }

    fn args<T: FromIterator<ValueId>>(&self, args: &[ValueId]) -> T {
        args.iter().map(|&a| self.value(a)).collect()
    }
}

/// `Ok` when `ok`, otherwise the error `why` describes; built only then.
fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

/// Predecessors of every reachable block: a dense table indexed by
/// [`BlockId`] (compressed rows — one offset array, one edge array).
///
/// Edge multiplicity is preserved: a branch whose two arms target the same
/// block lists its source twice there, so `of(b).len()` counts incoming
/// *edges*. Unreachable sources are not listed, and unreachable blocks have
/// no predecessors.
#[derive(Clone, Debug, PartialEq)]
pub struct Preds {
    /// `edges[starts[b] .. starts[b + 1]]` are the predecessors of block `b`.
    starts: Vec<u32>,
    edges: Vec<BlockId>,
}

impl Preds {
    /// Builds the table from `order`, an enumeration of the reachable
    /// blocks; each block's predecessors appear in `order`'s order.
    pub(crate) fn over(graph: &Graph, order: &[BlockId]) -> Preds {
        let mut starts = vec![0u32; graph.block_count() + 1];
        for &b in order {
            for s in graph.block(b).term.successors() {
                starts[s.index() + 1] += 1;
            }
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut edges = vec![BlockId::new(0); starts[graph.block_count()] as usize];
        // `fill[b]` is the next free slot of row `b`.
        let mut fill = starts.clone();
        for &b in order {
            for s in graph.block(b).term.successors() {
                edges[fill[s.index()] as usize] = b;
                fill[s.index()] += 1;
            }
        }
        Preds { starts, edges }
    }

    /// The predecessors of `block`, one entry per incoming edge.
    pub fn of(&self, block: BlockId) -> &[BlockId] {
        let i = block.index();
        &self.edges[self.starts[i] as usize..self.starts[i + 1] as usize]
    }
}

impl std::ops::Index<BlockId> for Preds {
    type Output = [BlockId];

    fn index(&self, block: BlockId) -> &[BlockId] {
        self.of(block)
    }
}

/// FNV-1a 64 accumulator with typed writers for IR entities — the shared
/// substrate of [`Graph::fingerprint`] and the inliner's trial-cache
/// argument hashing (which hashes `Op` constants and `Type` narrowings
/// without a graph in hand) — and a byte writer, which snapshot checksums
/// and the server's answer digests use.
#[derive(Clone, Copy, Debug)]
pub struct StructuralHasher {
    state: u64,
}

impl Default for StructuralHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StructuralHasher {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        StructuralHasher {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Folds bytes into the state, one at a time: plain FNV-1a 64, the
    /// workspace's one byte digest.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds eight little-endian bytes into the state.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The accumulated digest.
    pub fn finish(self) -> u64 {
        self.state
    }

    /// Folds a [`Type`] (tag + payload).
    pub fn write_type(&mut self, ty: Type) {
        match ty {
            Type::Int => self.write_u64(0),
            Type::Float => self.write_u64(1),
            Type::Bool => self.write_u64(2),
            Type::Object(c) => {
                self.write_u64(3);
                self.write_u64(c.index() as u64);
            }
            Type::Array(e) => {
                self.write_u64(4);
                self.write_elem(e);
            }
        }
    }

    fn write_elem(&mut self, e: ElemType) {
        match e {
            ElemType::Int => self.write_u64(0),
            ElemType::Float => self.write_u64(1),
            ElemType::Bool => self.write_u64(2),
            ElemType::Object(c) => {
                self.write_u64(3);
                self.write_u64(c.index() as u64);
            }
        }
    }

    /// Folds an [`Op`] (variant tag + payload; float constants by bits).
    pub fn write_op(&mut self, op: &Op) {
        match op {
            Op::Nop => self.write_u64(0),
            Op::ConstInt(k) => {
                self.write_u64(1);
                self.write_u64(*k as u64);
            }
            Op::ConstFloat(bits) => {
                self.write_u64(2);
                self.write_u64(*bits);
            }
            Op::ConstBool(b) => {
                self.write_u64(3);
                self.write_u64(*b as u64);
            }
            Op::ConstNull(t) => {
                self.write_u64(4);
                self.write_type(*t);
            }
            Op::Bin(b) => {
                self.write_u64(5);
                self.write_u64(*b as u64);
            }
            Op::Cmp(c) => {
                self.write_u64(6);
                self.write_u64(*c as u64);
            }
            Op::Not => self.write_u64(7),
            Op::INeg => self.write_u64(8),
            Op::FNeg => self.write_u64(9),
            Op::IntToFloat => self.write_u64(10),
            Op::FloatToInt => self.write_u64(11),
            Op::New(c) => {
                self.write_u64(12);
                self.write_u64(c.index() as u64);
            }
            Op::GetField(f) => {
                self.write_u64(13);
                self.write_u64(f.index() as u64);
            }
            Op::SetField(f) => {
                self.write_u64(14);
                self.write_u64(f.index() as u64);
            }
            Op::NewArray(e) => {
                self.write_u64(15);
                self.write_elem(*e);
            }
            Op::ArrayGet => self.write_u64(16),
            Op::ArraySet => self.write_u64(17),
            Op::ArrayLen => self.write_u64(18),
            Op::Call(info) => {
                self.write_u64(19);
                match info.target {
                    CallTarget::Static(m) => {
                        self.write_u64(0);
                        self.write_u64(m.index() as u64);
                    }
                    CallTarget::Virtual(s) => {
                        self.write_u64(1);
                        self.write_u64(s.index() as u64);
                    }
                }
                self.write_u64(info.site.method.index() as u64);
                self.write_u64(info.site.index as u64);
            }
            Op::InstanceOf(c) => {
                self.write_u64(20);
                self.write_u64(c.index() as u64);
            }
            Op::Cast(c) => {
                self.write_u64(21);
                self.write_u64(c.index() as u64);
            }
            Op::Print => self.write_u64(22),
        }
    }

    fn write_terminator(&mut self, term: &Terminator) {
        match term {
            Terminator::Jump(b, args) => {
                self.write_u64(0);
                self.write_u64(b.index() as u64);
                self.write_u64(args.len() as u64);
                for a in args {
                    self.write_u64(a.index() as u64);
                }
            }
            Terminator::Branch {
                cond,
                then_dest,
                else_dest,
            } => {
                self.write_u64(1);
                self.write_u64(cond.index() as u64);
                for (b, args) in [then_dest, else_dest] {
                    self.write_u64(b.index() as u64);
                    self.write_u64(args.len() as u64);
                    for a in args {
                        self.write_u64(a.index() as u64);
                    }
                }
            }
            Terminator::Return(v) => {
                self.write_u64(2);
                match v {
                    Some(v) => self.write_u64(1 + v.index() as u64),
                    None => self.write_u64(0),
                }
            }
            Terminator::Deopt { reason } => {
                self.write_u64(3);
                self.write_u64(*reason as u64);
            }
            Terminator::Unterminated => self.write_u64(4),
        }
    }
}

#[cfg(test)]
mod coherence;

#[cfg(test)]
mod tests {
    use super::*;

    fn k(g: &mut Graph, b: BlockId, v: i64) -> ValueId {
        g.append(b, Op::ConstInt(v), vec![], Some(Type::Int))
            .1
            .unwrap()
    }

    #[test]
    fn build_straight_line() {
        let mut g = Graph::empty();
        let e = g.entry();
        let a = k(&mut g, e, 2);
        let b = k(&mut g, e, 3);
        let (_, sum) = g.append(e, Op::Bin(BinOp::IAdd), vec![a, b], Some(Type::Int));
        g.set_terminator(e, Terminator::Return(sum));
        assert_eq!(g.size(), 4); // 3 insts + 1 terminator
        assert_eq!(g.value_type(sum.unwrap()), Type::Int);
    }

    #[test]
    fn block_params_and_branches() {
        let mut g = Graph::empty();
        let e = g.entry();
        let p = g.add_block_param(e, Type::Bool);
        let t = g.add_block();
        let f = g.add_block();
        let j = g.add_block();
        let jp = g.add_block_param(j, Type::Int);
        let one = k(&mut g, t, 1);
        let two = k(&mut g, f, 2);
        g.set_terminator(
            e,
            Terminator::Branch {
                cond: p,
                then_dest: (t, vec![]),
                else_dest: (f, vec![]),
            },
        );
        g.set_terminator(t, Terminator::Jump(j, vec![one]));
        g.set_terminator(f, Terminator::Jump(j, vec![two]));
        g.set_terminator(j, Terminator::Return(Some(jp)));
        let reach = g.reachable_blocks();
        assert_eq!(reach.len(), 4);
        let preds = g.predecessors();
        assert_eq!(preds[j].len(), 2);
        // entry param + 2 consts + 1 join param + 4 terminators
        assert_eq!(g.size(), 8);
    }

    #[test]
    fn predecessors_count_edges_not_blocks() {
        // A branch with both arms on one block is two incoming edges; an
        // unreachable block's edge is none.
        let mut g = Graph::empty();
        let e = g.entry();
        let c = g.add_block_param(e, Type::Bool);
        let join = g.add_block();
        let dead = g.add_block();
        g.set_terminator(
            e,
            Terminator::Branch {
                cond: c,
                then_dest: (join, vec![]),
                else_dest: (join, vec![]),
            },
        );
        g.set_terminator(join, Terminator::Return(None));
        g.set_terminator(dead, Terminator::Jump(join, vec![]));
        let preds = g.predecessors();
        assert_eq!(preds.of(join), [e, e]);
        assert!(preds.of(e).is_empty());
        assert!(preds.of(dead).is_empty());
    }

    #[test]
    fn redefine_moves_a_value_and_keeps_its_uses() {
        let mut g = Graph::empty();
        let e = g.entry();
        let p = g.add_block_param(e, Type::Bool);
        let a = k(&mut g, e, 1);
        let (add, _) = g.append(e, Op::Bin(BinOp::IAdd), vec![a, a], Some(Type::Int));
        g.set_terminator(e, Terminator::Return(Some(a)));
        let ka = g.block(e).insts[0];
        g.dom_tree(); // a filled cache, which the moves must leave valid

        // `a` becomes the entry's parameter; the Bool parameter becomes the
        // constant's result. Uses are untouched, types follow the slots.
        g.redefine(a, ValueDef::Param(e, 0));
        assert_eq!(g.block(e).params, vec![a]);
        assert_eq!(g.inst(ka).result, Some(p));
        assert_eq!(g.value(a).def, ValueDef::Param(e, 0));
        assert_eq!(g.value(p).def, ValueDef::Inst(ka));
        assert_eq!((g.value_type(a), g.value_type(p)), (Type::Bool, Type::Int));
        assert_eq!(*g.inst(add).args, [a, a]);
        assert_eq!(g.block(e).term, Terminator::Return(Some(a)));
        // Onto the slot it already holds: nothing moves.
        g.redefine(a, ValueDef::Param(e, 0));
        assert_eq!(g.block(e).params, vec![a]);
        assert_eq!(g.value(a).def, ValueDef::Param(e, 0));
        g.assert_shape_analyses_fresh();
    }

    #[test]
    fn remove_inst_nops_out() {
        let mut g = Graph::empty();
        let e = g.entry();
        let a = k(&mut g, e, 1);
        g.set_terminator(e, Terminator::Return(None));
        let def = match g.value(a).def {
            ValueDef::Inst(i) => i,
            _ => unreachable!(),
        };
        g.remove_inst(e, def);
        assert_eq!(g.block(e).insts.len(), 0);
        assert_eq!(g.inst(def).op, Op::Nop);
    }

    #[test]
    fn const_queries() {
        let mut g = Graph::empty();
        let e = g.entry();
        let a = k(&mut g, e, 42);
        let (_, fl) = g.append(
            e,
            Op::ConstFloat(2.5f64.to_bits()),
            vec![],
            Some(Type::Float),
        );
        let (_, tr) = g.append(e, Op::ConstBool(true), vec![], Some(Type::Bool));
        assert_eq!(g.as_const_int(a), Some(42));
        assert_eq!(g.as_const_float(fl.unwrap()), Some(2.5));
        assert_eq!(g.as_const_bool(tr.unwrap()), Some(true));
        assert_eq!(g.as_const_int(fl.unwrap()), None);
    }

    #[test]
    fn size_ignores_unreachable() {
        let mut g = Graph::empty();
        let e = g.entry();
        g.set_terminator(e, Terminator::Return(None));
        let dead = g.add_block();
        k(&mut g, dead, 7);
        g.set_terminator(dead, Terminator::Return(None));
        assert_eq!(g.size(), 1);
    }

    #[test]
    fn every_mnemonic_names_its_own_entry() {
        for (name, op) in MNEMONICS {
            assert_eq!(op.mnemonic(), *name);
        }
    }

    #[test]
    fn op_classification() {
        assert!(Op::Print.has_side_effect());
        assert!(Op::Bin(BinOp::IDiv).can_trap());
        assert!(!Op::Bin(BinOp::IAdd).can_trap());
        assert!(Op::ConstInt(1).is_removable_if_unused());
        assert!(!Op::ArrayGet.is_removable_if_unused());
        assert!(Op::Bin(BinOp::IAdd).is_value_numberable());
        assert!(!Op::GetField(FieldId::new(0)).is_value_numberable());
    }

    #[test]
    fn compaction_drops_garbage_and_preserves_shape() {
        let mut g = Graph::empty();
        let e = g.entry();
        let a = k(&mut g, e, 1);
        let b = k(&mut g, e, 2);
        let (_, sum) = g.append(e, Op::Bin(BinOp::IAdd), vec![a, b], Some(Type::Int));
        g.set_terminator(e, Terminator::Return(sum));
        // Garbage: a removed instruction, a dead block, a detached inst.
        let dead_inst = g.append(e, Op::ConstInt(9), vec![], Some(Type::Int)).0;
        g.remove_inst(e, dead_inst);
        let dead_block = g.add_block();
        k(&mut g, dead_block, 7);
        g.set_terminator(dead_block, Terminator::Return(None));
        g.create_inst(Op::ConstInt(11), vec![], Some(Type::Int)); // detached

        let size_before = g.size();
        let mut c = g.clone();
        c.compact();
        assert_eq!(c.size(), size_before, "live size is preserved");
        assert!(c.value_count() < g.value_count(), "dead values dropped");
        assert!(c.inst_count() < g.inst_count(), "dead insts dropped");
        assert_eq!(c.block_count(), 1, "unreachable blocks dropped");
        // The computation is intact.
        let Terminator::Return(Some(v)) = c.block(c.entry()).term.clone() else {
            panic!()
        };
        let ValueDef::Inst(add) = c.value(v).def else {
            panic!()
        };
        assert!(matches!(c.inst(add).op, Op::Bin(BinOp::IAdd)));
    }

    #[test]
    fn compaction_numbers_blocks_in_order_then_params_then_results() {
        let compact = |mut g: Graph| {
            g.compact();
            crate::print::graph_str(&Program::new(), &g)
        };

        // An unreachable block between the entry and its successor.
        let mut g = Graph::empty();
        let e = g.entry();
        let dead = g.add_block();
        let next = g.add_block();
        let a = k(&mut g, e, 1);
        k(&mut g, dead, 2);
        g.set_terminator(dead, Terminator::Return(None));
        g.set_terminator(e, Terminator::Jump(next, vec![]));
        g.set_terminator(next, Terminator::Return(Some(a)));
        assert_eq!(
            compact(g),
            concat!(
                "b0():\n",
                "  v0 = const.int 1\n",
                "  jump b1()\n",
                "b1():\n",
                "  ret v0\n",
            )
        );

        // Tombstones between live instructions, and one never placed.
        let mut g = Graph::empty();
        let e = g.entry();
        let a = k(&mut g, e, 1);
        let gone = g.append(e, Op::ConstInt(2), vec![], Some(Type::Int)).0;
        let b = k(&mut g, e, 3);
        g.create_inst(Op::ConstInt(4), vec![], Some(Type::Int));
        let (gone_too, _) = g.append(e, Op::Bin(BinOp::IMul), vec![a, b], Some(Type::Int));
        let (_, sum) = g.append(e, Op::Bin(BinOp::IAdd), vec![a, b], Some(Type::Int));
        g.remove_inst(e, gone);
        g.remove_inst(e, gone_too);
        g.set_terminator(e, Terminator::Return(sum));
        assert_eq!(
            compact(g),
            concat!(
                "b0():\n",
                "  v0 = const.int 1\n",
                "  v1 = const.int 3\n",
                "  v2 = iadd v0, v1\n",
                "  ret v2\n",
            )
        );

        // Branch arguments into block parameters, the join's parameter
        // made after every result, and a depth-first order that visits
        // the else arm first.
        let mut g = Graph::empty();
        let e = g.entry();
        let n = g.add_block_param(e, Type::Int);
        let one = k(&mut g, e, 1);
        let (_, c) = g.append(e, Op::Cmp(CmpOp::ILt), vec![n, one], Some(Type::Bool));
        let (then_b, else_b, join) = (g.add_block(), g.add_block(), g.add_block());
        g.set_terminator(
            e,
            Terminator::Branch {
                cond: c.unwrap(),
                then_dest: (then_b, vec![]),
                else_dest: (else_b, vec![one]),
            },
        );
        let (_, sum) = g.append(then_b, Op::Bin(BinOp::IAdd), vec![n, one], Some(Type::Int));
        g.set_terminator(then_b, Terminator::Jump(join, vec![sum.unwrap()]));
        let x = g.add_block_param(else_b, Type::Int);
        g.set_terminator(else_b, Terminator::Jump(join, vec![x]));
        let y = g.add_block_param(join, Type::Int);
        g.set_terminator(join, Terminator::Return(Some(y)));
        assert_eq!(
            compact(g),
            concat!(
                "b0(v0: int):\n",
                "  v3 = const.int 1\n",
                "  v4 = ilt v0, v3\n",
                "  br v4, b3(), b1(v3)\n",
                "b3():\n",
                "  v5 = iadd v0, v3\n",
                "  jump b2(v5)\n",
                "b1(v1: int):\n",
                "  jump b2(v1)\n",
                "b2(v2: int):\n",
                "  ret v2\n",
            )
        );
    }

    #[test]
    fn a_six_operand_call_survives_copies_compaction_and_text() {
        let mut p = Program::new();
        let six = p.declare_function("six", vec![Type::Int; 6], Type::Int);
        let main = p.declare_function("main", vec![Type::Int], Type::Int);
        let mut body = Graph::empty();
        let e = body.entry();
        let params: Vec<_> = (0..6).map(|_| body.add_block_param(e, Type::Int)).collect();
        body.set_terminator(e, Terminator::Return(Some(params[5])));
        p.define_method(six, body);

        let mut g = Graph::empty();
        let e = g.entry();
        let x = g.add_block_param(e, Type::Int);
        let dead = g.append(e, Op::ConstInt(0), vec![], Some(Type::Int)).0;
        let args: Vec<_> = std::iter::once(x)
            .chain((1..6).map(|v| k(&mut g, e, v)))
            .collect();
        let site = CallSiteId {
            method: main,
            index: 0,
        };
        let call = Op::Call(CallInfo {
            target: CallTarget::Static(six),
            site,
        });
        let (call, r) = g.append(e, call, args, Some(Type::Int));
        g.remove_inst(e, dead);
        g.set_terminator(e, Terminator::Return(r));
        // The call's operands, each as the constant it is (0 for `x`).
        let operands = |g: &Graph, call: InstId| -> Vec<i64> {
            let args = &g.inst(call).args;
            args.iter()
                .map(|&a| g.as_const_int(a).unwrap_or(0))
                .collect()
        };
        let want: Vec<i64> = (0..6).collect();
        assert_eq!(operands(&g, call), want);

        let copy = g.clone();
        assert_eq!(operands(&copy, call), want, "clone");
        let mut into = Graph::empty();
        let mut map = Transplant::empty(&g);
        map.values[x.index()] = Some(into.add_block_param(into.entry(), Type::Int));
        let map = into.transplant(&g, g.block_order(), map, Terminator::Return);
        assert_eq!(operands(&into, map.inst(call)), want, "transplant");
        let mut compact = g.clone();
        compact.compact();
        let (_, moved) = compact.callsites()[0];
        assert_eq!(operands(&compact, moved), want, "compaction");

        p.define_method(main, g);
        let text = crate::print::program_str(&p);
        let parsed = crate::parse::parse_program(&text).expect("the printed program parses");
        let main = parsed.function_by_name("main").expect("main survives");
        let g = &parsed.method(main).graph;
        let (_, call) = g.callsites()[0];
        assert_eq!(operands(g, call), want, "print and parse");
    }

    #[test]
    fn compaction_keeps_loop_structure_and_params() {
        let mut g = Graph::empty();
        let e = g.entry();
        let n = g.add_block_param(e, Type::Int);
        let zero = k(&mut g, e, 0);
        let h = g.add_block();
        let hi = g.add_block_param(h, Type::Int);
        let body = g.add_block();
        let exit = g.add_block();
        g.set_terminator(e, Terminator::Jump(h, vec![zero]));
        let (_, c) = g.append(h, Op::Cmp(CmpOp::ILt), vec![hi, n], Some(Type::Bool));
        g.set_terminator(
            h,
            Terminator::Branch {
                cond: c.unwrap(),
                then_dest: (body, vec![]),
                else_dest: (exit, vec![]),
            },
        );
        let one = k(&mut g, body, 1);
        let (_, i2) = g.append(body, Op::Bin(BinOp::IAdd), vec![hi, one], Some(Type::Int));
        g.set_terminator(body, Terminator::Jump(h, vec![i2.unwrap()]));
        g.set_terminator(exit, Terminator::Return(Some(hi)));
        let mut c = g.clone();
        c.compact();
        assert_eq!(c.size(), g.size());
        assert_eq!(crate::loops::LoopForest::compute(&c).loops.len(), 1);
        assert_eq!(c.block(c.entry()).params.len(), 1);
    }

    #[test]
    fn fingerprint_is_structural() {
        let build = |k_val: i64| {
            let mut g = Graph::empty();
            let e = g.entry();
            let a = k(&mut g, e, k_val);
            let b = k(&mut g, e, 3);
            let (_, sum) = g.append(e, Op::Bin(BinOp::IAdd), vec![a, b], Some(Type::Int));
            g.set_terminator(e, Terminator::Return(sum));
            g
        };
        assert_eq!(build(2).fingerprint(), build(2).fingerprint());
        assert_ne!(build(2).fingerprint(), build(4).fingerprint());
        // Unreachable garbage does not perturb the fingerprint.
        let mut g = build(2);
        let dead = g.add_block();
        k(&mut g, dead, 99);
        g.set_terminator(dead, Terminator::Return(None));
        assert_eq!(g.fingerprint(), build(2).fingerprint());
    }

    #[test]
    fn callsites_listed_in_order() {
        let mut g = Graph::empty();
        let e = g.entry();
        let m = MethodId::new(0);
        let cs0 = CallSiteId {
            method: m,
            index: 0,
        };
        let cs1 = CallSiteId {
            method: m,
            index: 1,
        };
        g.append(
            e,
            Op::Call(CallInfo {
                target: CallTarget::Static(m),
                site: cs0,
            }),
            vec![],
            None,
        );
        g.append(
            e,
            Op::Call(CallInfo {
                target: CallTarget::Static(m),
                site: cs1,
            }),
            vec![],
            None,
        );
        g.set_terminator(e, Terminator::Return(None));
        let sites: Vec<_> = g
            .callsites()
            .iter()
            .map(|&(_, i)| g.inst(i).op.call_site().unwrap())
            .collect();
        assert_eq!(sites, vec![cs0, cs1]);
    }
}
