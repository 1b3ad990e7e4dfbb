//! Flat code: the executable form of one graph.
//!
//! `Machine::exec_graph` never looks at a [`Graph`]. Each graph is lowered
//! once — a method's source graph on its first interpreted activation,
//! compiled code at install — into an [`ExecPlan`]: pre-decoded
//! instructions over the 64-bit slots of a dense frame (DESIGN.md §16).
//!
//! * **Blocks** are one **call-free run** each (a span of instructions with
//!   its steps and summed cost, so the loop tests the fuel and charges once
//!   per run) and a lowered **terminator**. A graph block with `c` calls
//!   lowers to `c + 1` of them: each call ends one, as a terminator that
//!   continues at the next.
//! * **Instructions** carry their operation with its payload resolved
//!   (constants as register words, fields as layout offsets, every
//!   arithmetic and comparison operator as its own variant), operand and
//!   result slots, and the steps and cost of their run up to and including
//!   themselves, which is what a trap there charges.
//! * **Edges**, inside the terminator, carry their destination, a move list
//!   over frame slots and the pre-summed cost of taking them.
//! * **Slots** number the block parameters and instruction results of
//!   reachable blocks; values inlining left dead get none.
//!
//! A call ends a block because a call is where the rest of the machine
//! looks at the clock and the code cache: the callee may trigger a
//! compilation, which stamps requests with the virtual time and changes
//! `installed_bytes`, and with it the i-cache factor of every compiled
//! instruction after the call. Between two calls neither can move. A source
//! graph's plan is profiled: its costs include the interpreter's dispatch
//! premium, per step and per edge.
//!
//! Registers are untagged, so lowering is also where the executor's type
//! assumptions are checked: every operand's static [`Kind`] is the one its
//! operation reads and every used value has a slot. `incline_ir::verify`
//! proves both; a graph that breaks them panics here, at plan build,
//! instead of on whichever execution reads the bad register first.

use incline_ir::graph::{BinOp, CallTarget, CmpOp, DeoptReason, InstData, Op, Terminator};
use incline_ir::loops::LoopForest;
use incline_ir::{BlockId, CallSiteId, ClassId, Graph, Method, Program, RetType, Type, ValueId};

use crate::cost::CostModel;
use crate::value::Kind;

/// Index of a register in an activation's frame.
pub(crate) type Slot = u32;

/// Marks a value without a slot while slots are being numbered.
const NO_SLOT: Slot = Slot::MAX;

/// A contiguous stretch of one of the plan's tables.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Span {
    start: u32,
    end: u32,
}

impl Span {
    /// The stretch of `table` this span names.
    #[inline]
    pub fn of<T>(self, table: &[T]) -> &[T] {
        &table[self.start as usize..self.end as usize]
    }

    fn len(self) -> u32 {
        self.end - self.start
    }
}

/// A pre-decoded operation that is not a call. Operands are the `a`, `b`
/// and `c` slots of its [`Inst`], the result goes to `dst`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum FlatOp {
    /// Placeholder some pass left in a block: a step, no effect.
    Nop,
    /// `dst = word`: any constant, already in register encoding.
    Const(u64),
    IAdd,
    ISub,
    IMul,
    IDiv,
    IRem,
    IAnd,
    IOr,
    IXor,
    IShl,
    IShr,
    FAdd,
    FSub,
    FMul,
    FDiv,
    IEq,
    INe,
    ILt,
    ILe,
    IGt,
    IGe,
    FEq,
    FLt,
    FLe,
    RefEq,
    Not,
    INeg,
    FNeg,
    IntToFloat,
    FloatToInt,
    New(ClassId),
    /// `dst = a.fields[offset]`.
    GetField(u32),
    /// `a.fields[offset] = b`.
    SetField(u32),
    NewArray,
    ArrayGet,
    /// `a[b] = c`.
    ArraySet,
    ArrayLen,
    InstanceOf(ClassId),
    Cast(ClassId),
    /// Prints `a`, read as `kind`.
    Print(Kind),
}

/// One instruction of a call-free run.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Inst {
    pub op: FlatOp,
    pub a: Slot,
    pub b: Slot,
    pub c: Slot,
    pub dst: Slot,
    /// Its position in its run, counting from 1: the steps a trap here has
    /// taken.
    pub step: u32,
    /// The cost of its run up to and including it: what a trap here
    /// charges.
    pub cost_through: u64,
}

/// A maximal call-free stretch of one block's instruction list.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Run {
    /// The instructions, in [`ExecPlan::insts`] (none when two calls are
    /// adjacent, or a block starts or ends with a call).
    pub insts: Span,
    /// The steps of fuel the run takes: its instructions, the call ending
    /// it, and 1 for a graph block without instructions, so that no cycle
    /// of the CFG runs for free.
    pub steps: u32,
    /// Σ [`CostModel::op_cost`] over the instructions and the call ending
    /// the run; a profiled plan adds the interpreter's dispatch premium per
    /// instruction and call.
    pub cost: u64,
}

/// A call ending a block: the rest of its graph block is the next one.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Call {
    pub target: CallTarget,
    pub site: CallSiteId,
    /// The [`kind_signature`] the callsite assumes of its callee. A static
    /// callee was checked against it at lowering; virtual dispatch checks
    /// the method it resolves to, because the IR types a virtual call by
    /// the receiver's static class ([`incline_ir::Graph::result_type`]) and
    /// an override in a subclass is free to differ from it.
    pub signature: u64,
    /// The argument slots, in [`ExecPlan::slots`].
    pub args: Span,
    /// Where the returned word goes; `None` for a `void` callee.
    pub dst: Option<Slot>,
    /// Index of the block that continues after the call, in
    /// [`ExecPlan::blocks`].
    pub next: u32,
}

/// A lowered terminator, or the call that ends a block.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Term {
    Call(Call),
    Return(Option<Slot>),
    Deopt(DeoptReason),
    Jump(Edge),
    Branch {
        cond: Slot,
        then_edge: Edge,
        else_edge: Edge,
    },
}

/// A CFG edge with the binding of the target's parameters resolved.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Edge {
    /// Index of the target in [`ExecPlan::blocks`].
    pub dest: u32,
    /// Source and destination slot of each move, alternating, in
    /// [`ExecPlan::slots`]: one move per argument that has a parameter to
    /// land in.
    pub moves: Span,
    /// [`CostModel::edge_cost`], charged for every argument passed whether
    /// or not a parameter receives it; a profiled plan adds the
    /// interpreter's dispatch premium.
    pub cost: u64,
    /// A loop back edge of a source graph (compiled graphs count none).
    pub back_edge: bool,
    /// Some move overwrites a slot a later move still reads (`jump
    /// b1(v2, v1)`): the moves must go through a scratch buffer instead of
    /// being applied in place.
    pub hazard: bool,
}

/// A call-free run and the terminator or call that ends it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Block {
    /// The id of its graph block, for block profiles.
    pub id: BlockId,
    /// It is the first block of its graph block, the one that records the
    /// block profile.
    pub head: bool,
    pub run: Run,
    pub term: Term,
}

/// The flat code of one graph.
#[derive(Debug)]
pub(crate) struct ExecPlan {
    /// The blocks of the reachable graph blocks in reverse postorder, each
    /// graph block's in order, the entry's first.
    pub blocks: Vec<Block>,
    pub insts: Vec<Inst>,
    /// Call arguments and edge moves.
    pub slots: Vec<Slot>,
    /// Registers per activation. The entry block's parameters are slots
    /// `0..argc`.
    pub frame: usize,
    /// Whether some block ends in a `deopt` terminator, i.e. whether
    /// compiled activations must run transactionally.
    pub has_deopt: bool,
    /// Whether virtual-dispatch callsites remain (the drift monitor counts
    /// their executions in compiled code).
    pub has_virtual_call: bool,
}

/// Working memory of [`ExecPlan::lower`]. The machine keeps one, so that
/// lowering a graph allocates its plan and nothing else.
#[derive(Default)]
pub(crate) struct LowerScratch {
    /// Reachable blocks in reverse postorder.
    order: Vec<BlockId>,
    /// The depth-first search behind `order`: a block to enter, or (flag
    /// set) one whose successors are done.
    pending: Vec<(BlockId, bool)>,
    /// By block id, the index in [`ExecPlan::blocks`] of the first block
    /// lowered from it, which grows with its position in `order`;
    /// `u32::MAX` for an unreachable one.
    block_index: Vec<u32>,
    /// Frame slot by value id; [`NO_SLOT`] for a value no reachable block
    /// defines.
    slot_of: Vec<Slot>,
    /// Per block and edge position (0: `jump` or the taken side of a
    /// `branch`, 1: the not-taken side), whether the edge is a loop back
    /// edge. Empty unless the graph is profiled and has a loop.
    back_edge: Vec<[bool; 2]>,
    /// Hazard detection: the last edge (by `epoch`) in which a slot was
    /// seen as a move source.
    read_epoch: Vec<u32>,
    epoch: u32,
}

impl ExecPlan {
    /// Lowers `graph`, a body of `method`. `profiled` marks a source graph,
    /// whose activations count taken back edges; compiled graphs never do,
    /// so the loop analysis is skipped for them.
    ///
    /// # Panics
    ///
    /// Panics if the graph breaks an invariant execution relies on without
    /// re-checking: an operand whose static kind is not the one its
    /// operation reads, a use of a value no reachable block defines, an
    /// unterminated reachable block. Verified graphs cannot.
    pub fn lower(
        scratch: &mut LowerScratch,
        program: &Program,
        method: &Method,
        graph: &Graph,
        cost: &CostModel,
        profiled: bool,
    ) -> ExecPlan {
        let sizes = scratch.number(graph);
        scratch.mark_back_edges(graph, profiled);
        let mut lw = Lowering {
            program,
            graph,
            cost,
            dispatch: if profiled { cost.interp_dispatch } else { 0 },
            plan: ExecPlan {
                blocks: Vec::with_capacity(sizes.blocks),
                insts: Vec::with_capacity(sizes.insts),
                slots: Vec::with_capacity(sizes.slots),
                frame: sizes.frame,
                has_deopt: false,
                has_virtual_call: false,
            },
            scratch,
        };
        lw.check_entry(method);
        for i in 0..lw.scratch.order.len() {
            lw.lower_block(lw.scratch.order[i], method.ret);
        }
        lw.plan
    }
}

/// What [`LowerScratch::number`] counted: the frame and the exact length of
/// each table, so that each is allocated once.
struct Sizes {
    frame: usize,
    blocks: usize,
    insts: usize,
    slots: usize,
}

impl LowerScratch {
    /// Numbers the reachable blocks of `graph` in reverse postorder, and
    /// their parameters and instruction results as frame slots.
    fn number(&mut self, graph: &Graph) -> Sizes {
        let LowerScratch {
            order,
            pending,
            block_index,
            slot_of,
            ..
        } = self;
        order.clear();
        block_index.clear();
        block_index.resize(graph.block_count(), u32::MAX);
        pending.push((graph.entry(), false));
        while let Some((b, done)) = pending.pop() {
            if done {
                order.push(b);
            } else if block_index[b.index()] == u32::MAX {
                block_index[b.index()] = 0;
                pending.push((b, true));
                pending.extend(graph.block(b).term.successors().map(|s| (s, false)));
            }
        }
        order.reverse();

        slot_of.clear();
        slot_of.resize(graph.value_count(), NO_SLOT);
        let mut frame = 0;
        let mut place = |v: ValueId| {
            if slot_of[v.index()] == NO_SLOT {
                slot_of[v.index()] = frame as Slot;
                frame += 1;
            }
        };
        let (mut blocks, mut insts, mut slots) = (0, 0, 0);
        for &b in order.iter() {
            block_index[b.index()] = blocks as u32;
            blocks += 1;
            let bd = graph.block(b);
            bd.params.iter().copied().for_each(&mut place);
            for &inst in &bd.insts {
                let data = graph.inst(inst);
                data.result.into_iter().for_each(&mut place);
                if matches!(data.op, Op::Call(_)) {
                    blocks += 1;
                    slots += data.args.len();
                } else {
                    insts += 1;
                }
            }
            for (dest, args) in bd.term.edges() {
                slots += 2 * args.len().min(graph.block(dest).params.len());
            }
        }
        self.read_epoch.clear();
        self.read_epoch.resize(frame, 0);
        self.epoch = 0;
        Sizes {
            frame,
            blocks,
            insts,
            slots,
        }
    }

    /// Fills in `back_edge` for the graph just numbered.
    fn mark_back_edges(&mut self, graph: &Graph, profiled: bool) {
        self.back_edge.clear();
        // A loop needs an edge that goes backwards in reverse postorder; most
        // methods have none, and then the loop analysis is not worth running.
        let position = |b: BlockId| self.block_index[b.index()];
        let retreats = |&b: &BlockId| {
            let mut successors = graph.block(b).term.successors();
            successors.any(|s| position(s) <= position(b))
        };
        if !profiled || !self.order.iter().any(retreats) {
            return;
        }
        self.back_edge.resize(graph.block_count(), [false; 2]);
        for l in &LoopForest::compute(graph).loops {
            for &tail in &l.back_edges {
                let edges = &mut self.back_edge[tail.index()];
                match &graph.block(tail).term {
                    Terminator::Jump(d, _) => edges[0] |= *d == l.header,
                    Terminator::Branch {
                        then_dest,
                        else_dest,
                        ..
                    } => {
                        edges[0] |= then_dest.0 == l.header;
                        edges[1] |= else_dest.0 == l.header;
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Compiled code as installed: the graph (snapshots, fingerprints and
/// [`crate::Machine::compiled_graph`] read it) and its flat code behind one
/// pointer, so an activation pins both with a single reference-count bump.
#[derive(Debug)]
pub(crate) struct PlannedGraph {
    pub graph: Graph,
    pub plan: ExecPlan,
}

impl PlannedGraph {
    /// Lowers a freshly compiled body of `method` for installation.
    pub fn compiled(
        scratch: &mut LowerScratch,
        program: &Program,
        method: &Method,
        graph: Graph,
        cost: &CostModel,
    ) -> PlannedGraph {
        let plan = ExecPlan::lower(scratch, program, method, &graph, cost, false);
        PlannedGraph { graph, plan }
    }
}

/// State of one [`ExecPlan::lower`] once blocks and slots are numbered.
struct Lowering<'a> {
    program: &'a Program,
    graph: &'a Graph,
    cost: &'a CostModel,
    /// What the plan adds to the cost of each step and edge: the
    /// interpreter's dispatch premium if it is profiled, else 0.
    dispatch: u64,
    scratch: &'a mut LowerScratch,
    plan: ExecPlan,
}

impl Lowering<'_> {
    fn kind(&self, v: ValueId) -> Kind {
        Kind::of(self.graph.value_type(v))
    }

    /// The slot of `v`.
    fn slot(&self, v: ValueId) -> Slot {
        let slot = self.scratch.slot_of[v.index()];
        assert!(
            slot != NO_SLOT,
            "use of undefined register {v} (verifier bug)"
        );
        slot
    }

    /// The slot of `v`, which its user reads as a `want`.
    fn read(&self, v: ValueId, want: Kind) -> Slot {
        let got = self.kind(v);
        assert!(
            got == want,
            "expected {want:?}, got {got:?} in {v} (verifier bug)"
        );
        self.slot(v)
    }

    /// Activations find their arguments in slots `0..argc`, encoded by the
    /// declared parameter types.
    fn check_entry(&self, method: &Method) {
        let params = &self.graph.block(self.graph.entry()).params;
        assert!(
            params.len() == method.params.len(),
            "entry has {} params, signature declares {} (verifier bug)",
            params.len(),
            method.params.len()
        );
        for (k, (&p, &ty)) in params.iter().zip(&method.params).enumerate() {
            assert!(
                self.read(p, Kind::of(ty)) as usize == k,
                "entry parameter {p} bound twice (verifier bug)"
            );
        }
    }

    fn lower_block(&mut self, b: BlockId, ret: RetType) {
        let graph = self.graph;
        let bd = graph.block(b);
        let mut run = self.open_run();
        for &inst in &bd.insts {
            let data = graph.inst(inst);
            run.cost += self.cost.op_cost(&data.op) + self.dispatch;
            if let Op::Call(info) = &data.op {
                let call = self.lower_call(data, info.target, info.site);
                self.push_block(b, run, 1, Term::Call(call));
                run = self.open_run();
            } else {
                let mut lowered = self.lower_inst(data);
                lowered.step = run.insts.len() + 1;
                lowered.cost_through = run.cost;
                self.plan.insts.push(lowered);
                run.insts.end += 1;
            }
        }
        let term = match &bd.term {
            Terminator::Return(v) => {
                let want = ret.value().map(Kind::of);
                assert!(
                    v.map(|v| self.kind(v)) == want,
                    "return in {b} does not match the declared {ret} (verifier bug)"
                );
                Term::Return(v.map(|v| self.slot(v)))
            }
            Terminator::Deopt { reason } => {
                self.plan.has_deopt = true;
                Term::Deopt(*reason)
            }
            Terminator::Jump(dest, args) => Term::Jump(self.lower_edge(b, 0, *dest, args)),
            Terminator::Branch {
                cond,
                then_dest,
                else_dest,
            } => Term::Branch {
                cond: self.read(*cond, Kind::Bool),
                then_edge: self.lower_edge(b, 0, then_dest.0, &then_dest.1),
                else_edge: self.lower_edge(b, 1, else_dest.0, &else_dest.1),
            },
            Terminator::Unterminated => {
                panic!("reachable block {b} is unterminated (verifier bug)")
            }
        };
        self.push_block(b, run, u32::from(bd.insts.is_empty()), term);
    }

    /// An empty run starting at the next instruction lowered.
    fn open_run(&self) -> Run {
        let at = self.plan.insts.len() as u32;
        Run {
            insts: Span { start: at, end: at },
            steps: 0,
            cost: 0,
        }
    }

    /// Ends a block of graph block `b` with `run`, `extra` steps beyond its
    /// instructions, and `term`.
    fn push_block(&mut self, b: BlockId, mut run: Run, extra: u32, term: Term) {
        run.steps = run.insts.len() + extra;
        let head = self.scratch.block_index[b.index()] as usize == self.plan.blocks.len();
        self.plan.blocks.push(Block {
            id: b,
            head,
            run,
            term,
        });
    }

    fn lower_inst(&self, data: &InstData) -> Inst {
        use Kind::{Bool, Float, Int, Ref};
        let arg = |i: usize| {
            *data
                .args
                .get(i)
                .expect("instruction is missing an operand (verifier bug)")
        };
        let array_elem = |v: ValueId| match self.graph.value_type(v) {
            Type::Array(e) => Kind::of(e.to_type()),
            other => panic!("expected an array, got {other} in {v} (verifier bug)"),
        };
        let one = |a| [Some(a), None, None];
        let two = |a, b| [Some(a), Some(b), None];
        // The operation, the kind each operand is read as, and the kind of
        // the result it writes.
        let (op, reads, writes) = match &data.op {
            Op::Nop => (FlatOp::Nop, [None; 3], None),
            Op::ConstInt(k) => (FlatOp::Const(*k as u64), [None; 3], Some(Int)),
            Op::ConstFloat(bits) => (FlatOp::Const(*bits), [None; 3], Some(Float)),
            Op::ConstBool(b) => (FlatOp::Const(u64::from(*b)), [None; 3], Some(Bool)),
            Op::ConstNull(_) => (FlatOp::Const(0), [None; 3], Some(Ref)),
            Op::Bin(op) if op.is_float() => (flat_bin(*op), two(Float, Float), Some(Float)),
            Op::Bin(op) => (flat_bin(*op), two(Int, Int), Some(Int)),
            Op::Cmp(op) => match op.operand_kind() {
                Some(Type::Float) => (flat_cmp(*op), two(Float, Float), Some(Bool)),
                Some(_) => (flat_cmp(*op), two(Int, Int), Some(Bool)),
                None => (flat_cmp(*op), two(Ref, Ref), Some(Bool)),
            },
            Op::Not => (FlatOp::Not, one(Bool), Some(Bool)),
            Op::INeg => (FlatOp::INeg, one(Int), Some(Int)),
            Op::FNeg => (FlatOp::FNeg, one(Float), Some(Float)),
            Op::IntToFloat => (FlatOp::IntToFloat, one(Int), Some(Float)),
            Op::FloatToInt => (FlatOp::FloatToInt, one(Float), Some(Int)),
            Op::New(c) => (FlatOp::New(*c), [None; 3], Some(Ref)),
            Op::GetField(f) => {
                let fd = self.program.field(*f);
                let op = FlatOp::GetField(fd.offset as u32);
                (op, one(Ref), Some(Kind::of(fd.ty)))
            }
            Op::SetField(f) => {
                let fd = self.program.field(*f);
                let op = FlatOp::SetField(fd.offset as u32);
                (op, two(Ref, Kind::of(fd.ty)), None)
            }
            Op::NewArray(_) => (FlatOp::NewArray, one(Int), Some(Ref)),
            Op::ArrayGet => (FlatOp::ArrayGet, two(Ref, Int), Some(array_elem(arg(0)))),
            Op::ArraySet => {
                let reads = [Some(Ref), Some(Int), Some(array_elem(arg(0)))];
                (FlatOp::ArraySet, reads, None)
            }
            Op::ArrayLen => (FlatOp::ArrayLen, one(Ref), Some(Int)),
            Op::InstanceOf(c) => (FlatOp::InstanceOf(*c), one(Ref), Some(Bool)),
            Op::Cast(c) => (FlatOp::Cast(*c), one(Ref), Some(Ref)),
            Op::Print => {
                let kind = self.kind(arg(0));
                (FlatOp::Print(kind), one(kind), None)
            }
            Op::Call(_) => unreachable!("calls are lowered by lower_call"),
        };
        let operands = reads.iter().flatten().count();
        assert!(
            data.args.len() == operands,
            "expected {operands} operands, got {} (verifier bug)",
            data.args.len()
        );
        let operand = |i: usize| reads[i].map_or(0, |kind| self.read(arg(i), kind));
        let dst = writes.map_or(0, |kind| {
            let result = data
                .result
                .expect("operation without a result register (verifier bug)");
            self.read(result, kind)
        });
        Inst {
            op,
            a: operand(0),
            b: operand(1),
            c: operand(2),
            dst,
            step: 0,
            cost_through: 0,
        }
    }

    /// The call `data`, which ends the block being lowered.
    fn lower_call(&mut self, data: &InstData, target: CallTarget, site: CallSiteId) -> Call {
        // The callee reads its arguments by its own parameter kinds and the
        // caller reads the result by its static kind, so the two must agree.
        // A static callee is known here; a virtual one only at dispatch.
        let signature = kind_signature(
            data.args.iter().map(|&a| self.kind(a)),
            data.result.map(|r| self.kind(r)),
        );
        match target {
            CallTarget::Static(m) => {
                let callee = self.program.method(m);
                assert!(
                    signature == method_signature(callee),
                    "call to {} does not match its signature (verifier bug)",
                    callee.name
                );
            }
            CallTarget::Virtual(_) => {
                self.plan.has_virtual_call = true;
                let receiver = *data
                    .args
                    .first()
                    .expect("virtual call without a receiver (verifier bug)");
                self.read(receiver, Kind::Ref);
            }
        }
        let start = self.plan.slots.len() as u32;
        for &a in &data.args {
            let slot = self.slot(a);
            self.plan.slots.push(slot);
        }
        Call {
            target,
            site,
            signature,
            args: Span {
                start,
                end: self.plan.slots.len() as u32,
            },
            dst: data.result.map(|r| self.slot(r)),
            next: self.plan.blocks.len() as u32 + 1,
        }
    }

    /// Lowers the edge at position `pos` of `from`'s terminator.
    fn lower_edge(&mut self, from: BlockId, pos: usize, dest: BlockId, args: &[ValueId]) -> Edge {
        let start = self.plan.slots.len();
        let params = &self.graph.block(dest).params;
        for (&a, &p) in args.iter().zip(params) {
            let (src, dst) = (self.read(a, self.kind(p)), self.slot(p));
            self.plan.slots.extend([src, dst]);
        }
        // An argument beyond the parameters is charged for, not moved.
        for &a in args.iter().skip(params.len()) {
            self.slot(a);
        }
        // In-place application is a parallel copy unless a move changes a
        // slot that a later move reads.
        let scratch = &mut *self.scratch;
        scratch.epoch += 1;
        let mut hazard = false;
        for m in self.plan.slots[start..].chunks_exact(2).rev() {
            let (src, dst) = (m[0] as usize, m[1] as usize);
            hazard |= src != dst && scratch.read_epoch[dst] == scratch.epoch;
            scratch.read_epoch[src] = scratch.epoch;
        }
        Edge {
            dest: scratch.block_index[dest.index()],
            moves: Span {
                start: start as u32,
                end: self.plan.slots.len() as u32,
            },
            cost: self.cost.edge_cost(args.len()) + self.dispatch,
            back_edge: scratch.back_edge.get(from.index()).is_some_and(|e| e[pos]),
            hazard,
        }
    }
}

/// The register kinds a call passes and gets back, packed so that two
/// signatures are equal exactly when they have the same arity, the same
/// kind in every position and the same kind of result. Exact for up to 30
/// parameters, which is as many as the verifier lets a method declare
/// ([`incline_ir::verify::MAX_PARAMS`]).
pub(crate) fn kind_signature(params: impl IntoIterator<Item = Kind>, ret: Option<Kind>) -> u64 {
    let ret = ret.map_or(0, |kind| kind as u64 + 1);
    params
        .into_iter()
        .fold(8 | ret, |sig, kind| sig.rotate_left(2) ^ kind as u64)
}

/// The [`kind_signature`] `method` declares.
pub(crate) fn method_signature(method: &Method) -> u64 {
    kind_signature(
        method.params.iter().map(|&ty| Kind::of(ty)),
        method.ret.value().map(Kind::of),
    )
}

fn flat_bin(op: BinOp) -> FlatOp {
    match op {
        BinOp::IAdd => FlatOp::IAdd,
        BinOp::ISub => FlatOp::ISub,
        BinOp::IMul => FlatOp::IMul,
        BinOp::IDiv => FlatOp::IDiv,
        BinOp::IRem => FlatOp::IRem,
        BinOp::IAnd => FlatOp::IAnd,
        BinOp::IOr => FlatOp::IOr,
        BinOp::IXor => FlatOp::IXor,
        BinOp::IShl => FlatOp::IShl,
        BinOp::IShr => FlatOp::IShr,
        BinOp::FAdd => FlatOp::FAdd,
        BinOp::FSub => FlatOp::FSub,
        BinOp::FMul => FlatOp::FMul,
        BinOp::FDiv => FlatOp::FDiv,
    }
}

fn flat_cmp(op: CmpOp) -> FlatOp {
    match op {
        CmpOp::IEq => FlatOp::IEq,
        CmpOp::INe => FlatOp::INe,
        CmpOp::ILt => FlatOp::ILt,
        CmpOp::ILe => FlatOp::ILe,
        CmpOp::IGt => FlatOp::IGt,
        CmpOp::IGe => FlatOp::IGe,
        CmpOp::FEq => FlatOp::FEq,
        CmpOp::FLt => FlatOp::FLt,
        CmpOp::FLe => FlatOp::FLe,
        CmpOp::RefEq => FlatOp::RefEq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::{MethodId, ValueDef};

    fn lower(p: &Program, m: MethodId, profiled: bool) -> ExecPlan {
        let method = p.method(m);
        let cost = CostModel::default();
        let mut scratch = LowerScratch::default();
        ExecPlan::lower(&mut scratch, p, method, &method.graph, &cost, profiled)
    }

    /// `g() = 1`.
    fn one(p: &mut Program) -> MethodId {
        let g = p.declare_function("g", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(p, g);
        let k = fb.const_int(1);
        fb.ret(Some(k));
        let graph = fb.finish();
        p.define_method(g, graph);
        g
    }

    #[test]
    fn a_call_ends_a_block_and_a_run_sums_its_steps_and_costs() {
        let mut p = Program::new();
        let callee = one(&mut p);
        let m = p.declare_function("f", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let a = fb.call_static(callee, vec![]).unwrap(); // leading call
        let b = fb.call_static(callee, vec![]).unwrap(); // adjacent call
        let s = fb.iadd(a, b);
        let _ = fb.binop(BinOp::IDiv, s, x);
        let c = fb.call_static(callee, vec![]).unwrap(); // trailing call
        fb.ret(Some(c));
        let g = fb.finish();
        p.define_method(m, g);
        // Compiled, and profiled with the dispatch premium on every step.
        for (profiled, dispatch) in [(false, 0), (true, CostModel::default().interp_dispatch)] {
            let plan = lower(&p, m, profiled);
            // One graph block, three calls: four blocks, the first the head.
            let heads: Vec<bool> = plan.blocks.iter().map(|b| b.head).collect();
            assert_eq!(heads, [true, false, false, false]);
            assert!(plan
                .blocks
                .iter()
                .all(|b| b.id == p.method(m).graph.entry()));
            let shape: Vec<(usize, u32, u64)> = plan
                .blocks
                .iter()
                .map(|b| (b.run.insts.of(&plan.insts).len(), b.run.steps, b.run.cost))
                .collect();
            let call = 1 + dispatch;
            let (add, div) = (1 + dispatch, 12 + dispatch);
            assert_eq!(
                shape,
                [
                    (0, 1, call),
                    (0, 1, call),
                    (2, 3, add + div + call),
                    (0, 0, 0)
                ]
            );
            // What a trap in the `iadd` or the `idiv` has taken and charges.
            let middle = plan.blocks[2].run.insts.of(&plan.insts);
            assert_eq!((middle[0].op, middle[1].op), (FlatOp::IAdd, FlatOp::IDiv));
            assert_eq!((middle[0].step, middle[0].cost_through), (1, add));
            assert_eq!((middle[1].step, middle[1].cost_through), (2, add + div));
            // Each call continues at the next block; the last block returns.
            for (i, block) in plan.blocks[..3].iter().enumerate() {
                let Term::Call(call) = block.term else {
                    panic!("block {i} ends in a call");
                };
                assert_eq!(call.next as usize, i + 1);
                assert_eq!(call.target, CallTarget::Static(callee));
            }
            let Term::Call(second) = plan.blocks[1].term else {
                panic!("a call");
            };
            assert_eq!(
                (second.args.of(&plan.slots).len(), second.dst),
                (0, Some(2))
            );
            assert!(matches!(plan.blocks[3].term, Term::Return(Some(_))));
            // x, three call results, the sum and the quotient.
            assert_eq!(plan.frame, 6);
        }
    }

    #[test]
    fn a_block_without_instructions_takes_a_step_and_costs_nothing() {
        let (p, m) = shuffle(&[0, 1]);
        for profiled in [false, true] {
            let plan = lower(&p, m, profiled);
            let b1 = &plan.blocks[1];
            assert!(b1.head);
            assert_eq!((b1.run.steps, b1.run.cost), (1, 0));
        }
    }

    #[test]
    fn back_edges_are_marked_per_edge() {
        let mut p = Program::new();
        let m = p.declare_function("loop", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let n = fb.param(0);
        let zero = fb.const_int(0);
        let (head, hp) = fb.add_block_with_params(&[Type::Int]);
        let exit = fb.add_block();
        fb.jump(head, vec![zero]);
        fb.switch_to(head);
        let one = fb.const_int(1);
        let i2 = fb.iadd(hp[0], one);
        let c = fb.cmp(CmpOp::ILt, i2, n);
        // The not-taken side loops back; the taken side leaves.
        fb.branch(c, (exit, vec![]), (head, vec![i2]));
        fb.switch_to(exit);
        fb.ret(Some(zero));
        let g = fb.finish();
        p.define_method(m, g);
        for profiled in [true, false] {
            let plan = lower(&p, m, profiled);
            let head = plan.blocks.iter().find(|b| b.id == head).unwrap();
            let Term::Branch {
                then_edge,
                else_edge,
                ..
            } = head.term
            else {
                panic!("the loop header ends in a branch");
            };
            let Term::Jump(entry_edge) = plan.blocks[0].term else {
                panic!("the entry ends in a jump");
            };
            assert!(!entry_edge.back_edge);
            assert!(!then_edge.back_edge);
            assert_eq!(else_edge.back_edge, profiled);
        }
    }

    /// `f(a, b, c)`: the entry jumps to `b1(a, b, c)`, which jumps on to
    /// `b2` passing its own parameters in `order` (positions, possibly more
    /// or fewer than `b2` has parameters); `b2` has two.
    fn shuffle(order: &[usize]) -> (Program, MethodId) {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int; 3], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let args = vec![fb.param(0), fb.param(1), fb.param(2)];
        let (b1, p1) = fb.add_block_with_params(&[Type::Int; 3]);
        let (b2, p2) = fb.add_block_with_params(&[Type::Int; 2]);
        fb.jump(b1, args);
        fb.switch_to(b1);
        fb.jump(b2, order.iter().map(|&i| p1[i]).collect());
        fb.switch_to(b2);
        fb.ret(Some(p2[0]));
        let g = fb.finish();
        p.define_method(m, g);
        (p, m)
    }

    #[test]
    fn an_edge_charges_every_argument_and_moves_those_with_a_parameter() {
        let cost = CostModel::default();
        for (order, moved) in [(&[0, 1, 2][..], 2), (&[1, 0], 2), (&[2], 1), (&[], 0)] {
            let (p, m) = shuffle(order);
            let plan = lower(&p, m, false);
            let Term::Jump(edge) = plan.blocks[1].term else {
                panic!("b1 ends in a jump");
            };
            assert_eq!(edge.moves.of(&plan.slots).len(), 2 * moved, "{order:?}");
            assert_eq!(edge.cost, cost.edge_cost(order.len()));
        }
    }

    #[test]
    fn only_an_edge_that_overwrites_a_pending_source_is_a_hazard() {
        // A self-loop passing its two parameters swapped, its three rotated,
        // or — no hazard — shifted down so every source is read before the
        // move that overwrites it.
        for (order, hazard) in [
            (&[1, 0, 2][..], true),
            (&[1, 2, 0], true),
            (&[1, 2, 2], false),
            (&[0, 1, 2], false),
            (&[0, 0, 0], false),
        ] {
            let mut p = Program::new();
            let m = p.declare_function("f", vec![Type::Int; 3], Type::Int);
            let mut fb = FunctionBuilder::new(&p, m);
            let args = vec![fb.param(0), fb.param(1), fb.param(2)];
            let (b1, p1) = fb.add_block_with_params(&[Type::Int; 3]);
            fb.jump(b1, args);
            fb.switch_to(b1);
            fb.jump(b1, order.iter().map(|&i| p1[i]).collect());
            let g = fb.finish();
            p.define_method(m, g);
            let plan = lower(&p, m, false);
            let (Term::Jump(entry), Term::Jump(back)) = (plan.blocks[0].term, plan.blocks[1].term)
            else {
                panic!("both blocks end in jumps");
            };
            assert!(!entry.hazard);
            assert_eq!(back.hazard, hazard, "{order:?}");
        }
    }

    #[test]
    fn a_frame_holds_the_placed_values_only() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let dead = fb.iadd(x, x);
        let kept = fb.imul(x, x);
        let orphan = fb.add_block();
        fb.ret(Some(kept));
        fb.switch_to(orphan);
        let unreachable = fb.const_int(3);
        fb.ret(Some(unreachable));
        let mut g = fb.finish();
        // Tombstone `dead` the way the optimizer's passes do.
        let ValueDef::Inst(dead) = g.value(dead).def else {
            panic!("an instruction result");
        };
        g.remove_inst(g.entry(), dead);
        g.neutralize_inst(dead);
        assert_eq!(g.value_count(), 4);
        p.define_method(m, g);
        let plan = lower(&p, m, true);
        assert_eq!(plan.frame, 2, "x and x * x");
        assert_eq!(plan.blocks.len(), 1);
        assert_eq!(plan.insts.len(), 1);
        assert_eq!((plan.insts[0].a, plan.insts[0].dst), (0, 1));
    }

    #[test]
    #[should_panic(expected = "expected Int, got Float")]
    fn a_kind_confused_graph_is_refused_at_plan_build() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Float], Type::Int);
        let fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        // An ill-typed `iadd` through the raw graph API; the verifier
        // rejects it, the tagged registers used to panic when it ran.
        let mut g = fb.finish();
        let e = g.entry();
        let (_, r) = g.append(e, Op::Bin(BinOp::IAdd), vec![x, x], Some(Type::Int));
        g.set_terminator(e, Terminator::Return(r));
        p.define_method(m, g);
        lower(&p, m, true);
    }

    #[test]
    #[should_panic(expected = "use of undefined register")]
    fn a_use_of_a_value_no_reachable_block_defines_is_refused_at_plan_build() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let orphan = fb.add_block();
        fb.switch_to(orphan);
        let k = fb.const_int(3);
        fb.ret(Some(k));
        let mut g = fb.finish();
        g.set_terminator(g.entry(), Terminator::Return(Some(k)));
        p.define_method(m, g);
        lower(&p, m, true);
    }
}
