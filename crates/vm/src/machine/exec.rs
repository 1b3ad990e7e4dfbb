//! Execution: the two host frames per guest call (`exec_method` and
//! `exec_graph`), the compiled tier's deoptimization protocol, and the
//! memoized virtual dispatch.

use std::sync::Arc;

use incline_ir::eval::TrapKind;
use incline_ir::graph::{CallTarget, DeoptReason};
use incline_ir::{ClassId, MethodId, SelectorId};
use incline_trace::CompileEvent;

use super::methods::Tier;
use super::{ExecError, InstallPolicy, Machine, MAX_DEPTH};
use crate::plan::{method_signature, ExecPlan, Inst, Run, Slot, Term};

/// What [`Program::resolve`] answers for a receiver class and a selector:
/// the implementation with its [`method_signature`], or none.
pub(super) type Dispatch = Option<(MethodId, u64)>;

/// How a graph activation left `exec_graph`.
enum Flow {
    /// Normal return: the returned register word, 0 from a `void` method.
    Return(u64),
    /// A compiled activation hit an uncommon trap.
    Deopt(DeoptReason),
}

/// How a compiled activation left `exec_compiled`.
enum CompiledExit {
    /// Normal return: the returned register word, 0 from a `void` method.
    Returned(u64),
    /// The activation deoptimized: its effects are rolled back and its
    /// code invalidated. Its arguments are still on the register stack, so
    /// the caller can replay the activation interpreted.
    Deoptimized,
}

impl Machine<'_> {
    /// [`Program::resolve`](incline_ir::Program::resolve), memoized: the
    /// program's method tables are
    /// hash maps walked up the class chain, too slow for every dispatch.
    #[inline]
    fn resolve(&mut self, class: ClassId, sel: SelectorId) -> Dispatch {
        let known = self.dispatch.get(class.index());
        if let Some(Some(target)) = known.and_then(|row| row.get(sel.index())) {
            return *target;
        }
        self.resolve_uncached(class, sel)
    }

    #[cold]
    fn resolve_uncached(&mut self, class: ClassId, sel: SelectorId) -> Dispatch {
        let target = self.program.resolve(class, sel);
        let target = target.map(|m| (m, method_signature(self.program.method(m))));
        if self.dispatch.len() <= class.index() {
            self.dispatch.resize_with(class.index() + 1, Vec::new);
        }
        let row = &mut self.dispatch[class.index()];
        if row.len() <= sel.index() {
            row.resize(sel.index() + 1, None);
        }
        row[sel.index()] = Some(target);
        target
    }

    /// The flat code of `method`'s source graph, lowered on first use.
    #[inline]
    fn source_plan(&mut self, method: MethodId) -> Arc<ExecPlan> {
        if let Some(plan) = &self.methods.get(method).source_plan {
            return Arc::clone(plan);
        }
        let source = self.program.method(method);
        let plan = Arc::new(ExecPlan::lower(
            &mut self.lower_scratch,
            self.program,
            source,
            &source.graph,
            &self.config.cost,
            true,
        ));
        self.methods.get_mut(method).source_plan = Some(Arc::clone(&plan));
        plan
    }

    /// Runs one activation of `method`, whose `argc` arguments the caller
    /// pushed on top of the register stack; they are still there on return.
    /// Returns the returned register word, 0 from a `void` method.
    pub(super) fn exec_method(
        &mut self,
        method: MethodId,
        argc: usize,
        depth: usize,
    ) -> Result<u64, ExecError> {
        if depth > MAX_DEPTH {
            return Err(ExecError::StackOverflow);
        }
        // Activation entry is a safepoint: a method with a request in
        // flight installs (or blacklists) here, so pipelined compilation
        // tiers up on the next invocation after completion.
        if matches!(self.methods.get(method).tier(), Tier::Queued) {
            self.drain_compile_queue();
        }
        if self.methods.get(method).code().is_some() {
            return match self.exec_compiled(method, argc, depth)? {
                CompiledExit::Returned(v) => Ok(v),
                // The activation deoptimized: effects rolled back, code
                // invalidated. Replay it interpreted — profiling resumes
                // and, once the backed-off bar clears, the broker
                // recompiles from the merged profile.
                CompiledExit::Deoptimized => self.exec_interpreted(method, argc, depth),
            };
        }
        // Interpreted activation: profile and maybe promote. Blacklisted
        // methods are never re-attempted — they stay interpreted for good.
        self.profiles.record_invocation(method);
        if self.config.jit
            && matches!(self.methods.get(method).tier(), Tier::Cold)
            && self.hot(method)
        {
            match self.config.install_policy {
                // Barrier: compile at the trigger and run the compiled
                // code immediately — the classic synchronous behavior.
                InstallPolicy::Barrier => {
                    if self.compile_now(method) {
                        return match self.exec_compiled(method, argc, depth)? {
                            CompiledExit::Returned(v) => Ok(v),
                            CompiledExit::Deoptimized => self.exec_interpreted(method, argc, depth),
                        };
                    }
                }
                // Safepoint: hand the request to the background broker and
                // keep interpreting this activation; the drain above picks
                // the result up at a later safepoint.
                InstallPolicy::Safepoint => {
                    self.enqueue_compile(method);
                }
            }
        }
        self.exec_interpreted(method, argc, depth)
    }

    /// Runs one interpreted (profiling) activation of `method`.
    ///
    /// Inlined into `exec_method` so guest recursion costs two host frames
    /// per guest call, `exec_method` and `exec_graph` (the stack-depth
    /// budget [`MAX_DEPTH`] is calibrated to that).
    #[inline(always)]
    fn exec_interpreted(
        &mut self,
        method: MethodId,
        argc: usize,
        depth: usize,
    ) -> Result<u64, ExecError> {
        let plan = self.source_plan(method);
        match self.exec_graph(method, &plan, true, argc, depth)? {
            Flow::Return(v) => Ok(v),
            Flow::Deopt(_) => unreachable!("the interpreted tier traps on deopt terminators"),
        }
    }

    /// Runs one compiled activation of `method`, handling the whole
    /// deoptimization protocol: the between-activation drift check, the
    /// injected entry trap, and — for graphs containing `deopt`
    /// terminators — transactional execution with rollback.
    ///
    /// Inlined for the same stack-depth reason as `exec_interpreted`.
    #[inline(always)]
    fn exec_compiled(
        &mut self,
        method: MethodId,
        argc: usize,
        depth: usize,
    ) -> Result<CompiledExit, ExecError> {
        // Drift monitor: evaluated between activations, so tiering down
        // needs no state transfer — the next activation simply starts
        // interpreted on a fresh frame.
        if self.drift_tripped(method) {
            return Ok(self.deoptimize(method, "drift"));
        }
        // Every compiled activation is a use tick for the eviction clock:
        // recency feeds LRU and the decay policy, and any activation
        // un-ages the method.
        self.use_seq += 1;
        let now = self.use_seq;
        let cm = self
            .methods
            .get_mut(method)
            .code_mut()
            .expect("caller checked code presence");
        cm.invocations += 1;
        cm.last_used = now;
        cm.aged = false;
        let force_deopt = cm.force_deopt;
        let deoptable = cm.has_deopt;
        let code = Arc::clone(&cm.code);
        if force_deopt {
            // Injected uncommon trap at entry: no effects yet, nothing to
            // roll back. One-shot by construction — the code is gone.
            return Ok(self.deoptimize(method, "injected"));
        }
        // Transactional activation: while any deopt-capable compiled frame
        // is live, every heap write (in any tier, including interpreted
        // callees) is journaled so an uncommon trap can rewind all
        // observable effects to this entry point. Deterministic execution
        // then makes the interpreted replay observably identical up to the
        // trap, so the mid-call tier transfer is exact.
        let save = deoptable.then(|| self.store.begin_scope());
        // The live-activation guard makes the method unevictable while
        // its compiled frame is on the stack (an install in a callee
        // could otherwise tear code out from under us mid-activation).
        self.methods.get_mut(method).live_frames += 1;
        let flow = self.exec_graph(method, &code.plan, false, argc, depth);
        let frames = &mut self.methods.get_mut(method).live_frames;
        debug_assert!(*frames > 0, "compiled-frame exit without a matching entry");
        *frames -= 1;
        if let Some(save) = &save {
            self.store
                .end_scope(save, !matches!(flow, Ok(Flow::Deopt(_))));
        }
        match flow? {
            Flow::Return(v) => Ok(CompiledExit::Returned(v)),
            Flow::Deopt(reason) => {
                debug_assert!(deoptable, "graph without deopt terminators cannot deopt");
                Ok(self.deoptimize(method, reason.label()))
            }
        }
    }

    /// Common deoptimization bookkeeping: counters, events, the code's
    /// exit (speculation failure, or quarantine inside a replayed
    /// decision's probation window), and the profiled-invocation record
    /// for the interpreted replay.
    fn deoptimize(&mut self, method: MethodId, reason: &str) -> CompiledExit {
        self.bailouts.deopts += 1;
        self.emit(|| CompileEvent::Deoptimized {
            method,
            reason: reason.to_string(),
        });
        self.leave(method, self.deopt_exit(method));
        self.profiles.record_invocation(method);
        CompiledExit::Deoptimized
    }

    /// The factor, in 1/256ths, by which a step of `plan`'s code costs its
    /// cycles: 256 in the interpreter, whose costs the plan already holds;
    /// [`CostModel::icache_factor`](crate::cost::CostModel::icache_factor)
    /// of the code installed now in compiled code. Installed bytes only move
    /// inside a call.
    #[inline]
    fn cycle_factor(&self, profiling: bool) -> u64 {
        if profiling {
            return 256;
        }
        self.config
            .cost
            .icache_factor(self.methods.installed_bytes())
    }

    /// Charges `steps` steps that cost `cost` cycles before the factor: the
    /// steps, and in cycles `cost · factor / 256`, with what the product
    /// leaves of a cycle carried into the next charge.
    #[inline]
    fn charge_run(&mut self, steps: u32, cost: u64, factor: u64) {
        self.steps += u64::from(steps);
        let scaled = cost * factor + self.exec_fraction;
        self.exec_cycles += scaled / 256;
        self.exec_fraction = scaled % 256;
    }

    /// Charges what ran of a run up to and including `inst`, which trapped.
    #[cold]
    #[inline(never)]
    fn trapped(&mut self, inst: &Inst, factor: u64, trap: TrapKind) -> ExecError {
        self.charge_run(inst.step, inst.cost_through, factor);
        ExecError::Trap(trap)
    }

    /// Executes the part of `run` the remaining fuel covers, which is not
    /// all of its steps, on the frame at `base`; charges what ran, and
    /// counts the step that found the tank empty.
    #[cold]
    #[inline(never)]
    fn starve(&mut self, plan: &ExecPlan, run: &Run, base: usize, factor: u64) -> ExecError {
        let fuel = self.config.fuel_steps.saturating_sub(self.steps);
        let insts = run.insts.of(&plan.insts);
        let covered = &insts[..insts.len().min(fuel as usize)];
        let regs = &mut self.stack[base..base + plan.frame];
        for inst in covered {
            if let Err(trap) = self.store.exec(self.program, regs, inst) {
                return self.trapped(inst, factor, trap);
            }
        }
        if let Some(last) = covered.last() {
            self.charge_run(last.step, last.cost_through, factor);
        }
        self.steps += 1;
        ExecError::OutOfFuel
    }

    /// Runs one activation of the flat code `plan`, interpreted (and
    /// profiling) or compiled. The `argc` arguments are the top of the
    /// register stack; the activation's frame goes above them and is
    /// popped again unless the activation ends in an error (which ends the
    /// run).
    fn exec_graph(
        &mut self,
        method: MethodId,
        plan: &ExecPlan,
        profiling: bool,
        argc: usize,
        depth: usize,
    ) -> Result<Flow, ExecError> {
        let program = self.program;
        let base = self.stack.len();
        let frame = base..base + plan.frame;
        self.stack.resize(frame.end, 0);
        // The entry parameters are slots `0..argc`. Copied, not aliased: an
        // entry block that is a loop header rebinds them, and a deoptimized
        // activation is re-run from the arguments below its frame.
        self.stack.copy_within(base - argc..base, base);
        let mut factor = self.cycle_factor(profiling);
        let mut block = &plan.blocks[0];

        loop {
            if profiling && block.head {
                self.profiles.record_block(method, block.id);
            }
            let run = &block.run;
            if u64::from(run.steps) > self.config.fuel_steps.saturating_sub(self.steps) {
                return Err(self.starve(plan, run, base, factor));
            }
            let regs = &mut self.stack[frame.clone()];
            for inst in run.insts.of(&plan.insts) {
                if let Err(trap) = self.store.exec_inline(program, regs, inst) {
                    return Err(self.trapped(inst, factor, trap));
                }
            }
            self.charge_run(run.steps, run.cost, factor);

            let regs = &mut self.stack[frame.clone()];
            let edge = match block.term {
                Term::Call(ref call) => {
                    // The arguments go on top of the stack, where the
                    // callee's activation finds them.
                    let callee_args = call.args.of(&plan.slots);
                    for &a in callee_args {
                        let word = self.stack[base + a as usize];
                        self.stack.push(word);
                    }
                    let (target, is_virtual) = match call.target {
                        CallTarget::Static(m) => (m, false),
                        CallTarget::Virtual(sel) => {
                            let receiver = self.stack[frame.end];
                            if receiver == 0 {
                                return Err(ExecError::Trap(TrapKind::NullDeref));
                            }
                            let Some(class) = self.store.class_of(receiver) else {
                                return Err(ExecError::Trap(TrapKind::NoSuchMethod));
                            };
                            if profiling {
                                self.profiles.record_receiver(call.site, class);
                            } else if self.config.deopt {
                                // Drift monitor food: fallback virtual
                                // dispatches surviving in compiled code.
                                // The entry may be gone if a nested
                                // activation already invalidated it.
                                if let Some(cm) = self.methods.get_mut(method).code_mut() {
                                    cm.virtual_dispatches += 1;
                                }
                            }
                            // An implementation that reads its arguments or
                            // returns its result as other register kinds
                            // than this callsite passes and expects (an
                            // override the verifier did not type the call
                            // by) is not an implementation of the called
                            // method.
                            match self.resolve(class, sel) {
                                Some((m, signature)) if signature == call.signature => (m, true),
                                _ => return Err(ExecError::Trap(TrapKind::NoSuchMethod)),
                            }
                        }
                    };
                    if profiling {
                        self.profiles.record_callsite(call.site);
                    }
                    self.exec_cycles += self.config.cost.call_cost(callee_args.len(), is_virtual);
                    let result = self.exec_method(target, callee_args.len(), depth + 1)?;
                    self.stack.truncate(frame.end);
                    if let Some(dst) = call.dst {
                        self.stack[base + dst as usize] = result;
                    }
                    factor = self.cycle_factor(profiling);
                    block = &plan.blocks[call.next as usize];
                    continue;
                }
                Term::Return(slot) => {
                    let word = slot.map_or(0, |s| regs[s as usize]);
                    self.stack.truncate(base);
                    return Ok(Flow::Return(word));
                }
                Term::Deopt(reason) => {
                    if !profiling {
                        // Uncommon trap: hand the activation back to
                        // `exec_compiled` for rollback and replay.
                        self.stack.truncate(base);
                        return Ok(Flow::Deopt(reason));
                    }
                    // Hand-written IR executed interpreted: there is no
                    // lower tier to transfer to.
                    return Err(ExecError::Trap(TrapKind::Deopt));
                }
                Term::Jump(ref edge) => edge,
                Term::Branch {
                    cond,
                    ref then_edge,
                    ref else_edge,
                } => {
                    if regs[cond as usize] != 0 {
                        then_edge
                    } else {
                        else_edge
                    }
                }
            };
            self.exec_cycles += edge.cost;
            if profiling && edge.back_edge {
                self.profiles.record_backedge(method);
            }
            let moves = edge.moves.of(&plan.slots);
            bind_parameters(regs, &mut self.edge_scratch, moves, edge.hazard);
            block = &plan.blocks[edge.dest as usize];
        }
    }
}

/// Applies the moves of an edge — source and destination slot, alternating
/// — to the frame `regs`; with `hazard`, through `scratch`. (A function of
/// its own because in a debug build every temporary of `exec_graph`, these
/// iterators included, is paid once per guest frame.)
#[inline]
fn bind_parameters(regs: &mut [u64], scratch: &mut Vec<u64>, moves: &[Slot], hazard: bool) {
    let moves = moves.chunks_exact(2);
    if hazard {
        // Read every source before writing any destination.
        scratch.clear();
        scratch.extend(moves.clone().map(|m| regs[m[0] as usize]));
        for (m, &word) in moves.zip(scratch.iter()) {
            regs[m[1] as usize] = word;
        }
    } else {
        for m in moves {
            regs[m[1] as usize] = regs[m[0] as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::sum_program;
    use super::*;
    use crate::cost::CostModel;
    use crate::machine::MAX_HEAP_SLOTS;
    use crate::{
        CompileCx, CompileError, CompileOutcome, InlineStats, Inliner, NoInline, Value, VmConfig,
    };
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::graph::{Op, Terminator};
    use incline_ir::types::RetType;
    use incline_ir::{CmpOp, Program, Type};

    #[test]
    fn interprets_loop_correctly() {
        let (p, m) = sum_program();
        let mut vm = Machine::new(
            &p,
            Box::new(NoInline),
            VmConfig {
                jit: false,
                ..VmConfig::default()
            },
        );
        let out = vm.run(m, vec![Value::Int(10)]).unwrap();
        assert_eq!(out.value, Some(Value::Int(45)));
        assert!(out.exec_cycles > 0);
        assert_eq!(out.compile_cycles, 0);
    }

    #[test]
    fn profiles_accumulate_across_runs() {
        let (p, m) = sum_program();
        let mut vm = Machine::new(
            &p,
            Box::new(NoInline),
            VmConfig {
                jit: false,
                ..VmConfig::default()
            },
        );
        for _ in 0..5 {
            vm.run(m, vec![Value::Int(4)]).unwrap();
        }
        assert_eq!(vm.profiles().invocations(m), 5);
        assert_eq!(vm.profiles().backedges(m), 20);
    }

    #[test]
    fn output_matches_between_tiers() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let two = fb.const_int(2);
        let y = fb.imul(x, two);
        fb.print(y);
        fb.print(x);
        fb.ret(None);
        let g = fb.finish();
        p.define_method(m, g);
        let mut interp = Machine::new(
            &p,
            Box::new(NoInline),
            VmConfig {
                jit: false,
                ..VmConfig::default()
            },
        );
        let a = interp.run(m, vec![Value::Int(21)]).unwrap();
        let mut jit = Machine::new(
            &p,
            Box::new(NoInline),
            VmConfig {
                hotness_threshold: 1,
                ..VmConfig::default()
            },
        );
        let b = jit.run(m, vec![Value::Int(21)]).unwrap();
        assert_eq!(a.output, b.output);
        assert_eq!(a.value, b.value);
    }

    #[test]
    fn traps_propagate() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let zero = fb.const_int(0);
        let d = fb.binop(incline_ir::BinOp::IDiv, x, zero);
        fb.ret(Some(d));
        let g = fb.finish();
        p.define_method(m, g);
        let mut vm = Machine::new(
            &p,
            Box::new(NoInline),
            VmConfig {
                jit: false,
                ..VmConfig::default()
            },
        );
        assert_eq!(
            vm.run(m, vec![Value::Int(1)]),
            Err(ExecError::Trap(TrapKind::DivByZero))
        );
    }

    #[test]
    fn stack_overflow_detected() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, m);
        fb.call_static(m, vec![]);
        fb.ret(None);
        let g = fb.finish();
        p.define_method(m, g);
        // Each guest frame costs host frames; run on a thread with an
        // explicit stack so the guest-depth guard (max_depth) fires before
        // the host stack does, independent of debug-build frame sizes.
        let handle = std::thread::Builder::new()
            .stack_size(32 * 1024 * 1024)
            .spawn(move || {
                let mut vm = Machine::new(
                    &p,
                    Box::new(NoInline),
                    VmConfig {
                        jit: false,
                        ..VmConfig::default()
                    },
                );
                vm.run(m, vec![]).map(|o| o.value)
            })
            .unwrap();
        assert_eq!(handle.join().unwrap(), Err(ExecError::StackOverflow));
    }

    /// down(n) = if n == 0 { 0 } else { 1 + down(n - 1) }
    fn countdown_program() -> (Program, MethodId) {
        let mut p = Program::new();
        let m = p.declare_function("down", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let n = fb.param(0);
        let zero = fb.const_int(0);
        let base = fb.add_block();
        let rec = fb.add_block();
        let c = fb.cmp(CmpOp::IEq, n, zero);
        fb.branch(c, (base, vec![]), (rec, vec![]));
        fb.switch_to(base);
        fb.ret(Some(zero));
        fb.switch_to(rec);
        let one = fb.const_int(1);
        let n1 = fb.isub(n, one);
        let r = fb.call_static(m, vec![n1]).unwrap();
        let s = fb.iadd(r, one);
        fb.ret(Some(s));
        let g = fb.finish();
        p.define_method(m, g);
        (p, m)
    }

    #[test]
    fn max_depth_fits_the_host_stack_of_a_test_thread() {
        // `MAX_DEPTH = 400` is calibrated to the host frames one guest
        // call costs: the deepest legal recursion must fit the 2 MiB stack
        // Rust gives test threads, in a debug build, in both tiers.
        for jit in [false, true] {
            let handle = std::thread::Builder::new()
                .stack_size(2 * 1024 * 1024)
                .spawn(move || {
                    let (p, m) = countdown_program();
                    let config = VmConfig {
                        jit,
                        hotness_threshold: 1,
                        ..VmConfig::default()
                    };
                    let depth = MAX_DEPTH as i64;
                    let mut vm = Machine::new(&p, Box::new(NoInline), config);
                    let deepest = vm.run(m, vec![Value::Int(depth)]).map(|o| o.value);
                    let beyond = vm.run(m, vec![Value::Int(depth + 1)]).map(|o| o.value);
                    (deepest, beyond, vm.compilations())
                })
                .unwrap();
            let (deepest, beyond, compilations) = handle.join().unwrap();
            assert_eq!(deepest, Ok(Some(Value::Int(400))), "jit={jit}");
            assert_eq!(beyond, Err(ExecError::StackOverflow), "jit={jit}");
            assert_eq!(compilations, u64::from(jit));
        }
    }

    #[test]
    fn allocation_past_the_heap_bound_traps_in_both_tiers() {
        // `main(n)` allocates up to 16 arrays of `n` ints. A cell costs its
        // length plus two slots, so each `n` below passes the bound — in
        // one allocation no host could serve, in one that misses by a
        // slot, and on the fourth lap of the loop — and must trap where it
        // used to abort the process (`vec![_; n]` in the host allocator).
        let src = "fn main(int) -> int {
b0(v0: int):
  v1 = const.int 0
  jump b1(v1)
b1(v2: int):
  v3 = newarray int, v0
  v4 = const.int 1
  v5 = iadd v2, v4
  v6 = const.int 16
  v7 = ilt v5, v6
  br v7, b1(v5), b2()
b2():
  ret v5
}";
        let p = incline_ir::parse::parse_program(src).unwrap();
        let m = p.function_by_name("main").unwrap();
        let bound = MAX_HEAP_SLOTS as i64;
        for jit in [false, true] {
            let config = VmConfig {
                jit,
                hotness_threshold: 1,
                ..VmConfig::default()
            };
            let mut vm = Machine::new(&p, Box::new(NoInline), config);
            for n in [1 << 62, bound - 1, bound / 4] {
                let out = vm.run(m, vec![Value::Int(n)]).map(|o| o.value);
                let trap = Err(ExecError::Trap(TrapKind::HeapExhausted));
                assert_eq!(out, trap, "jit={jit} n={n}");
            }
            // The count restarts with the heap: the next run has room again.
            let small = vm.run(m, vec![Value::Int(8)]).map(|o| o.value);
            assert_eq!(small, Ok(Some(Value::Int(16))), "jit={jit}");
            assert_eq!(vm.compilations(), u64::from(jit));
        }
    }

    /// An inliner that installs the source graph as it is, so both tiers
    /// execute the same instructions and differ only in what they cost.
    struct VerbatimInliner;
    impl Inliner for VerbatimInliner {
        fn name(&self) -> &str {
            "verbatim"
        }
        fn compile(
            &self,
            method: MethodId,
            cx: &CompileCx<'_>,
        ) -> Result<CompileOutcome, CompileError> {
            let graph = cx.program.method(method).graph.clone();
            let work_nodes = graph.size();
            Ok(CompileOutcome {
                graph,
                work_nodes,
                stats: InlineStats::default(),
            })
        }
    }

    /// One instruction of the straight-line block [`line_program`] builds.
    #[derive(Clone, Copy, PartialEq)]
    enum Line {
        /// `x + 1`.
        Add,
        /// `x / 0`.
        DivByZero,
        /// A call of `g() = 1`, which itself executes one instruction.
        Call,
    }

    /// `f(x)`: one block holding `const 0`, `const 1`, then `lines`.
    fn line_program(lines: &[Line]) -> (Program, MethodId) {
        let mut p = Program::new();
        let g = p.declare_function("g", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, g);
        let k = fb.const_int(1);
        fb.ret(Some(k));
        let graph = fb.finish();
        p.define_method(g, graph);
        let f = p.declare_function("f", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, f);
        let x = fb.param(0);
        let zero = fb.const_int(0);
        let one = fb.const_int(1);
        let mut last = x;
        for line in lines {
            last = match line {
                Line::Add => fb.iadd(x, one),
                Line::DivByZero => fb.binop(incline_ir::BinOp::IDiv, x, zero),
                Line::Call => fb.call_static(g, vec![]).unwrap(),
            };
        }
        fb.ret(Some(last));
        let graph = fb.finish();
        p.define_method(f, graph);
        (p, f)
    }

    /// Runs `f(5)` once under `fuel` steps; `compiled` installs both
    /// methods verbatim first. Returns the outcome with the step and cycle
    /// counters the run stopped at.
    fn run_line(lines: &[Line], compiled: bool, fuel: u64) -> (Result<(), ExecError>, u64, u64) {
        let (p, f) = line_program(lines);
        let config = VmConfig {
            jit: compiled,
            fuel_steps: fuel,
            ..VmConfig::default()
        };
        let mut vm = Machine::new(&p, Box::new(VerbatimInliner), config);
        if compiled {
            for m in p.method_ids() {
                assert!(vm.compile_now(m));
            }
        }
        let outcome = vm.run(f, vec![Value::Int(5)]).map(|_| ());
        (outcome, vm.steps, vm.exec_cycles)
    }

    #[test]
    fn trap_and_fuel_meet_at_the_same_step_as_instruction_by_instruction() {
        use Line::*;
        // The division is step `k` of the run: in the middle of a summed
        // run, directly before a call, directly after one (the callee's
        // one instruction is a step too).
        let cases: [(&[Line], u64); 3] = [
            (&[Add, Add, DivByZero, Add, Add], 5),
            (&[Add, DivByZero, Call, Add], 4),
            (&[Add, Call, DivByZero, Add], 6),
        ];
        for (lines, k) in cases {
            for compiled in [false, true] {
                let what = format!("k={k} compiled={compiled}");
                let (starved, ..) = run_line(lines, compiled, k - 1);
                assert_eq!(starved, Err(ExecError::OutOfFuel), "{what}");
                // With exactly `k` steps the division's run does not fit
                // the remaining fuel and is charged instruction by
                // instruction; with plenty it is charged at once and the
                // trap refunds the rest. Both must stop at the same state.
                let exact = run_line(lines, compiled, k);
                let plenty = run_line(lines, compiled, 1_000_000);
                assert_eq!(exact.0, Err(ExecError::Trap(TrapKind::DivByZero)), "{what}");
                assert_eq!(exact, plenty, "{what}");
                assert_eq!(exact.1, k, "{what}");
            }
        }
    }

    #[test]
    fn fuel_running_out_inside_a_run_stops_at_the_same_step() {
        use Line::*;
        let lines = [Add, Add, Add, Call, Add, Add];
        // 2 constants + 3 additions, the call (step 6), the callee's
        // constant, 2 additions: `(outcome, steps, exec_cycles)` at fuel
        // 0..=9, interpreted and compiled. The tank found empty at the
        // call's step charges neither the call instruction nor a dispatch.
        const OUT: Result<(), ExecError> = Err(ExecError::OutOfFuel);
        let pinned = [
            [
                (OUT, 1, 0),
                (OUT, 2, 10),
                (OUT, 3, 20),
                (OUT, 4, 30),
                (OUT, 5, 40),
                (OUT, 6, 50),
                (OUT, 7, 78),
                (OUT, 8, 88),
                (OUT, 9, 98),
                (Ok(()), 9, 108),
            ],
            [
                (OUT, 1, 0),
                (OUT, 2, 1),
                (OUT, 3, 2),
                (OUT, 4, 3),
                (OUT, 5, 4),
                (OUT, 6, 5),
                (OUT, 7, 24),
                (OUT, 8, 25),
                (OUT, 9, 26),
                (Ok(()), 9, 27),
            ],
        ];
        for (compiled, table) in [false, true].into_iter().zip(pinned) {
            for (fuel, want) in (0..).zip(table) {
                let got = run_line(&lines, compiled, fuel);
                assert_eq!(got, want, "compiled={compiled} fuel={fuel}");
            }
        }
    }

    #[test]
    fn a_block_split_at_its_calls_is_profiled_once_per_activation() {
        use Line::*;
        let (p, f) = line_program(&[Add, Call, Add, Call, Add]);
        let config = VmConfig {
            jit: false,
            ..VmConfig::default()
        };
        let mut vm = Machine::new(&p, Box::new(NoInline), config);
        for _ in 0..3 {
            vm.run(f, vec![Value::Int(5)]).unwrap();
        }
        let entry = p.method(f).graph.entry();
        let profile = vm.profiles().method(f).expect("f ran");
        assert_eq!(profile.block_count(entry), 3);
    }

    /// `main(int) -> int` from `.ir` text, run once with `fuel` steps in both
    /// tiers (the compiled one installed verbatim through `compile_now`).
    /// Returns what each run ended in and the steps it took.
    fn run_text(src: &str, fuel: u64) -> [(Result<Option<Value>, ExecError>, u64); 2] {
        let p = incline_ir::parse::parse_program(src).expect("the test program parses");
        let main = p.function_by_name("main").expect("main");
        [false, true].map(|compiled| {
            let config = VmConfig {
                jit: compiled,
                fuel_steps: fuel,
                ..VmConfig::default()
            };
            let mut vm = Machine::new(&p, Box::new(VerbatimInliner), config);
            if compiled {
                assert!(vm.compile_now(main));
            }
            let outcome = vm.run(main, vec![Value::Int(7)]).map(|o| o.value);
            (outcome, vm.steps)
        })
    }

    #[test]
    fn a_loop_of_blocks_without_instructions_runs_out_of_fuel() {
        // An edge is free and a step used to be an instruction, so these
        // loops consumed nothing and never ended. Every block activation
        // now takes at least one step.
        let self_loop = include_str!("../../../../samples/empty_loop.ir");
        let two_block_cycle = "fn main(int) -> int {
            b0(v0: int):
              jump b1(v0)
            b1(v1: int):
              jump b2(v1)
            b2(v2: int):
              jump b1(v2)
            }";
        for src in [self_loop, two_block_cycle] {
            // Enough fuel to charge runs at once, and too little (the
            // instruction-by-instruction path): both must notice.
            for fuel in [1_000, 1, 0] {
                for (outcome, steps) in run_text(src, fuel) {
                    assert_eq!(outcome, Err(ExecError::OutOfFuel), "fuel={fuel}");
                    assert_eq!(steps, fuel + 1, "the step that found the tank empty");
                }
            }
        }
    }

    #[test]
    fn an_empty_block_on_a_straight_path_takes_a_step_and_no_cycles() {
        let with_empty = "fn main(int) -> int {
            b0(v0: int):
              jump b1(v0)
            b1(v1: int):
              jump b2(v1)
            b2(v2: int):
              v3 = const.int 1
              v4 = iadd v2, v3
              ret v4
            }";
        for (outcome, steps) in run_text(with_empty, 4) {
            assert_eq!(outcome, Ok(Some(Value::Int(8))));
            assert_eq!(steps, 4, "two empty blocks and two instructions");
        }
        for (outcome, _) in run_text(with_empty, 3) {
            assert_eq!(outcome, Err(ExecError::OutOfFuel));
        }
        // Steps are not cycles: the path costs its two instructions and its
        // two jumps, as it always did.
        let p = incline_ir::parse::parse_program(with_empty).expect("parses");
        let main = p.function_by_name("main").expect("main");
        let cost = CostModel::default();
        let base: u64 = [Op::ConstInt(1), Op::Bin(incline_ir::BinOp::IAdd)]
            .iter()
            .map(|op| cost.op_cost(op))
            .sum();
        for (dispatch, mut vm) in [cost.interp_dispatch, 0].into_iter().zip(both_tiers(&p)) {
            let out = vm.run(main, vec![Value::Int(7)]).unwrap();
            let edges = 2 * (cost.edge_cost(1) + dispatch);
            assert_eq!(out.exec_cycles, base + 2 * dispatch + edges);
        }
    }

    #[test]
    fn icache_factor_changing_inside_a_block_is_charged_per_run() {
        // `f` runs compiled; the call in the middle of its block compiles
        // `g` at the hotness trigger, so the installed bytes — and with
        // them the i-cache factor — grow between `f`'s instructions.
        use Line::*;
        let lines = [Add, DivByZero, Add, Call, DivByZero, Add, Add];
        let (mut p, f) = line_program(&lines);
        // Make the divisions legal: divide by the constant 1 instead.
        let mut graph = p.method(f).graph.clone();
        let entry = graph.entry();
        let one = graph.inst(graph.block(entry).insts[1]).result.unwrap();
        for inst in graph.block(entry).insts.clone() {
            if matches!(graph.inst(inst).op, Op::Bin(incline_ir::BinOp::IDiv)) {
                graph.inst_mut(inst).args[1] = one;
            }
        }
        p.define_method(f, graph);
        let g = p.function_by_name("g").unwrap();
        let f_graph = p.method(f).graph.clone();
        let g_graph = p.method(g).graph.clone();
        // Up to the capacity before the call and over it after; over it
        // throughout.
        for (capacity, pinned) in [(f_graph.size() as u64 * 4, 52), (8, 76)] {
            let cost = CostModel::default().with_icache(capacity, 48);
            let config = VmConfig {
                cost,
                hotness_threshold: 1,
                ..VmConfig::default()
            };
            let mut vm = Machine::new(&p, Box::new(VerbatimInliner), config);
            assert!(vm.compile_now(f));
            let before = vm.installed_bytes();
            let out = vm.run(f, vec![Value::Int(5)]).unwrap();
            let after = vm.installed_bytes();
            assert_eq!(vm.compiled_methods(), vec![g, f]);
            assert!(after > before && after > capacity);
            // The reference: the Σ base cost of every run, and of the call
            // instruction, times the factor of the bytes installed when it
            // ran, with what each product leaves of a cycle carried on.
            let (mut expected, mut fraction) = (0, 0);
            let mut charge = |base: u64, bytes: u64| {
                let scaled = base * cost.icache_factor(bytes) + fraction;
                fraction = scaled % 256;
                scaled / 256
            };
            let mut run = 0;
            for &inst in &f_graph.block(f_graph.entry()).insts {
                let op = &f_graph.inst(inst).op;
                if !matches!(op, Op::Call(_)) {
                    run += cost.op_cost(op);
                    continue;
                }
                expected += charge(std::mem::take(&mut run), before);
                expected += charge(cost.op_cost(op), before);
                expected += cost.call_cost(0, false);
                let g_insts = &g_graph.block(g_graph.entry()).insts;
                let callee = g_insts.iter().map(|&i| cost.op_cost(&g_graph.inst(i).op));
                expected += charge(callee.sum(), after);
            }
            expected += charge(run, after);
            assert_eq!(out.exec_cycles, expected, "capacity={capacity}");
            assert_eq!(out.exec_cycles, pinned, "capacity={capacity}");
        }
        // Base-1 additions over the capacity: rounding each one's scaled
        // cost down made them free of the i-cache term. The interpreter pays
        // none, however much code is installed.
        let (p, f) = line_program(&[Add; 8]);
        let g = p.function_by_name("g").unwrap();
        let graph = &p.method(f).graph;
        let insts = &graph.block(graph.entry()).insts;
        let unscaled: u64 = insts
            .iter()
            .map(|&i| CostModel::default().op_cost(&graph.inst(i).op))
            .sum();
        for (capacity, compiled) in [(8, f), (0, g)] {
            let cost = CostModel::default().with_icache(capacity, 48);
            let config = VmConfig {
                cost,
                ..VmConfig::default()
            };
            let mut vm = Machine::new(&p, Box::new(VerbatimInliner), config);
            assert!(vm.compile_now(compiled));
            assert!(vm.installed_bytes() > capacity);
            let cycles = vm.run(f, vec![Value::Int(5)]).unwrap().exec_cycles;
            if compiled == f {
                assert!(cycles > unscaled, "{cycles} vs {unscaled}");
            } else {
                let dispatch = insts.len() as u64 * cost.interp_dispatch;
                assert_eq!(cycles, unscaled + dispatch);
            }
        }
    }

    /// Both tiers over `p`: the interpreter, and every method installed
    /// verbatim before the first run.
    fn both_tiers(p: &Program) -> [Machine<'_>; 2] {
        [false, true].map(|compiled| {
            let config = VmConfig {
                jit: compiled,
                ..VmConfig::default()
            };
            let mut vm = Machine::new(p, Box::new(VerbatimInliner), config);
            if compiled {
                for m in p.method_ids() {
                    assert!(vm.compile_now(m));
                }
            }
            vm
        })
    }

    #[test]
    fn a_loop_passing_its_own_parameters_permuted_binds_them_in_parallel() {
        // head(a, b, c, i): while i < n, jump head(<a, b, c in `order`>, i + 1);
        // then return 100a + 10b + c. A swap and a rotation overwrite slots
        // that later moves of the same edge still read.
        for order in [[1, 0, 2], [1, 2, 0], [2, 2, 0], [0, 1, 2]] {
            let mut p = Program::new();
            let m = p.declare_function("f", vec![Type::Int; 4], Type::Int);
            let mut fb = FunctionBuilder::new(&p, m);
            let n = fb.param(3);
            let zero = fb.const_int(0);
            let (head, hp) = fb.add_block_with_params(&[Type::Int; 4]);
            let body = fb.add_block();
            let done = fb.add_block();
            let entry_args = vec![fb.param(0), fb.param(1), fb.param(2), zero];
            fb.jump(head, entry_args);
            fb.switch_to(head);
            let more = fb.cmp(CmpOp::ILt, hp[3], n);
            fb.branch(more, (body, vec![]), (done, vec![]));
            fb.switch_to(body);
            let one = fb.const_int(1);
            let next = fb.iadd(hp[3], one);
            fb.jump(head, vec![hp[order[0]], hp[order[1]], hp[order[2]], next]);
            fb.switch_to(done);
            let (hundred, ten) = (fb.const_int(100), fb.const_int(10));
            let a = fb.imul(hp[0], hundred);
            let b = fb.imul(hp[1], ten);
            let ab = fb.iadd(a, b);
            let abc = fb.iadd(ab, hp[2]);
            fb.ret(Some(abc));
            let g = fb.finish();
            p.define_method(m, g);
            for mut vm in both_tiers(&p) {
                for n in 0..5 {
                    let mut v = [1, 2, 3];
                    for _ in 0..n {
                        v = [v[order[0]], v[order[1]], v[order[2]]];
                    }
                    let args = [1, 2, 3, n].map(Value::Int).to_vec();
                    assert_eq!(
                        vm.run(m, args).unwrap().value,
                        Some(Value::Int(100 * v[0] + 10 * v[1] + v[2])),
                        "order={order:?} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_parameter_bound_twice_by_one_edge_keeps_the_last_argument() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int, Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let (x, y) = (fb.param(0), fb.param(1));
        let (b1, p1) = fb.add_block_with_params(&[Type::Int]);
        fb.switch_to(b1);
        fb.ret(Some(p1[0]));
        let mut g = fb.finish();
        g.block_mut(b1).params.push(p1[0]);
        g.set_terminator(g.entry(), Terminator::Jump(b1, vec![x, y]));
        p.define_method(m, g);
        for mut vm in both_tiers(&p) {
            let out = vm.run(m, vec![Value::Int(4), Value::Int(9)]).unwrap();
            assert_eq!(out.value, Some(Value::Int(9)));
        }
    }

    /// Installs, for the method named `victim`, code that prints its first
    /// argument and then takes an uncommon trap; everything else verbatim.
    struct TrappingInliner {
        victim: MethodId,
    }
    impl Inliner for TrappingInliner {
        fn name(&self) -> &str {
            "trapping"
        }
        fn compile(
            &self,
            method: MethodId,
            cx: &CompileCx<'_>,
        ) -> Result<CompileOutcome, CompileError> {
            let mut graph = cx.program.method(method).graph.clone();
            if method == self.victim {
                let entry = graph.entry();
                let first = graph.block(entry).params[0];
                for inst in graph.block(entry).insts.clone() {
                    graph.remove_inst(entry, inst);
                }
                graph.append(entry, Op::Print, vec![first], None);
                graph.set_terminator(
                    entry,
                    Terminator::Deopt {
                        reason: DeoptReason::Injected,
                    },
                );
            }
            let work_nodes = graph.size();
            Ok(CompileOutcome {
                graph,
                work_nodes,
                stats: InlineStats::default(),
            })
        }
    }

    #[test]
    fn a_deoptimized_activation_is_replayed_from_the_raw_arguments_below_its_frame() {
        // main() { b = new Box; print f(7, 2.5, true, b, null); print b.v }
        // f(i, x, t, b, z) { print i; print x; print t; print b; print z;
        //                    b.v = i; return i + 1 }
        let mut p = Program::new();
        let class = p.add_class("Box", None);
        let field = p.add_field(class, "v", Type::Int);
        let obj = Type::Object(class);
        let f = p.declare_function(
            "f",
            vec![Type::Int, Type::Float, Type::Bool, obj, obj],
            Type::Int,
        );
        let mut fb = FunctionBuilder::new(&p, f);
        for k in 0..5 {
            let arg = fb.param(k);
            fb.print(arg);
        }
        let (i, b) = (fb.param(0), fb.param(3));
        fb.set_field(field, b, i);
        let one = fb.const_int(1);
        let r = fb.iadd(i, one);
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(f, g);
        let main = p.declare_function("main", vec![], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, main);
        let b = fb.new_object(class);
        let args = vec![
            fb.const_int(7),
            fb.const_float(2.5),
            fb.const_bool(true),
            b,
            fb.const_null(obj),
        ];
        let r = fb.call_static(f, args).unwrap();
        fb.print(r);
        let v = fb.get_field(field, b);
        fb.print(v);
        fb.ret(None);
        let g = fb.finish();
        p.define_method(main, g);

        let interpreted = Machine::new(
            &p,
            Box::new(NoInline),
            VmConfig {
                jit: false,
                ..VmConfig::default()
            },
        )
        .run(main, vec![])
        .unwrap();
        assert_eq!(
            interpreted.output.lines(),
            ["7", "2.5", "true", "Box", "null", "8", "7"]
        );
        // `main` runs compiled and calls the trapping code of `f`: what it
        // printed is rolled back, and the interpreter replays the
        // activation from the five words `main` pushed.
        let mut vm = Machine::new(
            &p,
            Box::new(TrappingInliner { victim: f }),
            VmConfig::default(),
        );
        assert!(vm.compile_now(main) && vm.compile_now(f));
        let out = vm.run(main, vec![]).unwrap();
        assert_eq!(vm.bailouts().deopts, 1);
        assert_eq!(vm.compiled_methods(), vec![main]);
        assert_eq!(out.output, interpreted.output);
        assert_eq!(out.value, None);
    }

    /// Installs, for the method named `victim`, its own code with every
    /// `ret` an uncommon trap, so the activation deoptimizes after all of
    /// its effects; everything else verbatim.
    struct TrapAtReturn {
        victim: MethodId,
    }
    impl Inliner for TrapAtReturn {
        fn name(&self) -> &str {
            "trap-at-return"
        }
        fn compile(
            &self,
            method: MethodId,
            cx: &CompileCx<'_>,
        ) -> Result<CompileOutcome, CompileError> {
            let mut graph = cx.program.method(method).graph.clone();
            if method == self.victim {
                let blocks: Vec<_> = graph.block_ids().collect();
                for b in blocks {
                    if matches!(graph.block(b).term, Terminator::Return(_)) {
                        let reason = DeoptReason::Injected;
                        graph.set_terminator(b, Terminator::Deopt { reason });
                    }
                }
            }
            let work_nodes = graph.size();
            Ok(CompileOutcome {
                graph,
                work_nodes,
                stats: InlineStats::default(),
            })
        }
    }

    #[test]
    fn a_deoptimized_activation_s_heap_writes_are_undone_before_its_replay() {
        // main() { b = new Box; a = new int[1]; f(b, a);
        //          print (new Box).v; print b.v; print a[0] }
        // f(b, a) { print b.v; b.v = b.v + 1; print a[0]; a[0] = a[0] + 1;
        //           print new Box }
        let mut p = Program::new();
        let class = p.add_class("Box", None);
        let field = p.add_field(class, "v", Type::Int);
        let ints = incline_ir::ElemType::Int;
        let f = p.declare_function(
            "f",
            vec![Type::Object(class), Type::Array(ints)],
            RetType::Void,
        );
        let mut fb = FunctionBuilder::new(&p, f);
        let (b, a) = (fb.param(0), fb.param(1));
        let (zero, one) = (fb.const_int(0), fb.const_int(1));
        let v = fb.get_field(field, b);
        fb.print(v);
        let v1 = fb.iadd(v, one);
        fb.set_field(field, b, v1);
        let e = fb.array_get(a, zero);
        fb.print(e);
        let e1 = fb.iadd(e, one);
        fb.array_set(a, zero, e1);
        let fresh = fb.new_object(class);
        fb.print(fresh);
        fb.ret(None);
        let g = fb.finish();
        p.define_method(f, g);
        let main = p.declare_function("main", vec![], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, main);
        let b = fb.new_object(class);
        let one = fb.const_int(1);
        let a = fb.new_array(ints, one);
        fb.call_static(f, vec![b, a]);
        let c = fb.new_object(class);
        let zero = fb.const_int(0);
        for v in [fb.get_field(field, c), fb.get_field(field, b)] {
            fb.print(v);
        }
        let e = fb.array_get(a, zero);
        fb.print(e);
        fb.ret(None);
        let g = fb.finish();
        p.define_method(main, g);

        let interpreted = Machine::new(
            &p,
            Box::new(NoInline),
            VmConfig {
                jit: false,
                ..VmConfig::default()
            },
        )
        .run(main, vec![])
        .unwrap();
        assert_eq!(interpreted.output.lines(), ["0", "0", "Box", "0", "1", "1"]);
        // The compiled `f` writes both cells and allocates before it traps:
        // the replay must read the values the writes overwrote.
        let mut vm = Machine::new(
            &p,
            Box::new(TrapAtReturn { victim: f }),
            VmConfig::default(),
        );
        assert!(vm.compile_now(main) && vm.compile_now(f));
        let out = vm.run(main, vec![]).unwrap();
        assert_eq!(vm.bailouts().deopts, 1);
        assert_eq!(out.output, interpreted.output);
    }

    #[test]
    fn null_and_references_survive_the_heap_and_every_reference_operation() {
        let mut p = Program::new();
        let node = p.add_class("Node", None);
        let next = p.add_field(node, "next", Type::Object(node));
        let leaf = p.add_class("Leaf", Some(node));
        let m = p.declare_function("f", vec![], Type::Bool);
        let mut fb = FunctionBuilder::new(&p, m);
        let a = fb.new_object(node);
        let b = fb.new_object(leaf);
        let null = fb.const_null(Type::Object(node));
        // Through a field: a reference, then null over it.
        fb.set_field(next, a, b);
        let x = fb.get_field(next, a);
        fb.print(x);
        let same = fb.cmp(CmpOp::RefEq, x, b);
        fb.print(same);
        let other = fb.cmp(CmpOp::RefEq, x, a);
        fb.print(other);
        fb.set_field(next, a, null);
        let y = fb.get_field(next, a);
        fb.print(y);
        let both_null = fb.cmp(CmpOp::RefEq, y, null);
        fb.print(both_null);
        let null_is_not_a = fb.cmp(CmpOp::RefEq, a, y);
        fb.print(null_is_not_a);
        // Through an array of references (cells start out null).
        let two = fb.const_int(2);
        let zero = fb.const_int(0);
        let one = fb.const_int(1);
        let arr = fb.new_array(incline_ir::ElemType::Object(node), two);
        fb.print(arr);
        fb.array_set(arr, zero, b);
        let e0 = fb.array_get(arr, zero);
        let e1 = fb.array_get(arr, one);
        fb.print(e0);
        fb.print(e1);
        // Casts and type tests: an instance, a non-instance, null.
        let down = fb.cast(leaf, e0);
        fb.print(down);
        let null_cast = fb.cast(leaf, e1);
        fb.print(null_cast);
        for (class, obj) in [(leaf, e0), (leaf, a), (node, e0), (node, e1)] {
            let is = fb.instance_of(class, obj);
            fb.print(is);
        }
        let r = fb.cmp(CmpOp::RefEq, down, b);
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(m, g);
        incline_ir::verify::verify(&p, p.method(m)).expect("well-typed");
        for mut vm in both_tiers(&p) {
            let out = vm.run(m, vec![]).unwrap();
            assert_eq!(out.value, Some(Value::Bool(true)));
            assert_eq!(
                out.output.lines(),
                [
                    "Leaf", "true", "false", "null", "true", "false", "array[2]", "Leaf", "null",
                    "Leaf", "null", "true", "false", "true", "false"
                ]
            );
        }
    }

    #[test]
    fn virtual_call_without_an_implementation_traps_in_both_tiers() {
        // `foo` is declared on B only; the receiver is an A. The verifier
        // accepts the call (some class declares the selector).
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let b = p.add_class("B", None);
        let foo = p.declare_method(b, "foo", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, foo);
        let k = fb.const_int(7);
        fb.ret(Some(k));
        let g = fb.finish();
        p.define_method(foo, g);
        let sel = p.selector_by_name("foo", 1).unwrap();
        let main = p.declare_function("main", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, main);
        let obj = fb.new_object(a);
        let r = fb.call_virtual(sel, vec![obj]).unwrap();
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(main, g);
        incline_ir::verify::verify(&p, p.method(main)).expect("the verifier tolerates the call");
        // An array receiver (which only unverified IR can produce, so the
        // call goes in through the raw graph API) has no class at all.
        let on_array = p.declare_function("on_array", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, on_array);
        let len = fb.const_int(2);
        let arr = fb.new_array(incline_ir::ElemType::Int, len);
        let mut g = fb.finish();
        let entry = g.entry();
        let info = incline_ir::CallInfo {
            target: incline_ir::CallTarget::Virtual(sel),
            site: incline_ir::CallSiteId {
                method: on_array,
                index: 0,
            },
        };
        let (_, r) = g.append(entry, Op::Call(info), vec![arr], Some(Type::Int));
        g.set_terminator(entry, Terminator::Return(r));
        p.define_method(on_array, g);

        for compiled in [false, true] {
            let config = VmConfig {
                jit: compiled,
                ..VmConfig::default()
            };
            let mut vm = Machine::new(&p, Box::new(VerbatimInliner), config);
            if compiled {
                assert!(vm.compile_now(main));
            }
            let trap = Err(ExecError::Trap(TrapKind::NoSuchMethod));
            assert_eq!(vm.run(main, vec![]), trap, "compiled={compiled}");
            assert_eq!(vm.run(on_array, vec![]), trap, "compiled={compiled}");
            // The machine is still usable after the trap.
            assert_eq!(vm.run(main, vec![]), trap);
        }
    }

    #[test]
    fn an_override_of_other_register_kinds_is_not_an_implementation() {
        // A.get() -> int, B.get() -> float (B extends A). The verifier types
        // `a.get()` by A's declaration, so `go` verifies; dispatching it on
        // a B would hand float bits to an int register (the tagged
        // registers used to panic on the first use).
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let b = p.add_class("B", Some(a));
        let get_a = p.declare_method(a, "get", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, get_a);
        let k = fb.const_int(7);
        fb.ret(Some(k));
        let g = fb.finish();
        p.define_method(get_a, g);
        let get_b = p.declare_method(b, "get", vec![], Type::Float);
        let mut fb = FunctionBuilder::new(&p, get_b);
        let k = fb.const_float(2.5);
        fb.ret(Some(k));
        let g = fb.finish();
        p.define_method(get_b, g);
        let sel = p.selector_by_name("get", 1).unwrap();
        let go = p.declare_function("go", vec![Type::Bool], Type::Int);
        let mut fb = FunctionBuilder::new(&p, go);
        let pick_b = fb.param(0);
        let (on_a, on_b) = (fb.add_block(), fb.add_block());
        let (join, jp) = fb.add_block_with_params(&[Type::Object(a)]);
        fb.branch(pick_b, (on_b, vec![]), (on_a, vec![]));
        fb.switch_to(on_a);
        let obj = fb.new_object(a);
        fb.jump(join, vec![obj]);
        fb.switch_to(on_b);
        let obj = fb.new_object(b);
        fb.jump(join, vec![obj]);
        fb.switch_to(join);
        let r = fb.call_virtual(sel, vec![jp[0]]).unwrap();
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(go, g);
        for m in p.method_ids() {
            incline_ir::verify::verify(&p, p.method(m)).expect("the verifier accepts the program");
        }
        for mut vm in both_tiers(&p) {
            let on_a = vm.run(go, vec![Value::Bool(false)]).unwrap();
            assert_eq!(on_a.value, Some(Value::Int(7)));
            assert_eq!(
                vm.run(go, vec![Value::Bool(true)]),
                Err(ExecError::Trap(TrapKind::NoSuchMethod))
            );
        }
    }

    #[test]
    fn virtual_dispatch_and_receiver_profiles() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let b = p.add_class("B", Some(a));
        let ma = p.declare_method(a, "id", vec![], Type::Int);
        let mb = p.declare_method(b, "id", vec![], Type::Int);
        for (m, k) in [(ma, 1), (mb, 2)] {
            let mut fb = FunctionBuilder::new(&p, m);
            let v = fb.const_int(k);
            fb.ret(Some(v));
            let g = fb.finish();
            p.define_method(m, g);
        }
        let f = p.declare_function("f", vec![Type::Bool], Type::Int);
        let mut fb = FunctionBuilder::new(&p, f);
        let c = fb.param(0);
        let t = fb.add_block();
        let e = fb.add_block();
        let (j, jp) = fb.add_block_with_params(&[Type::Object(a)]);
        fb.branch(c, (t, vec![]), (e, vec![]));
        fb.switch_to(t);
        let oa = fb.new_object(a);
        fb.jump(j, vec![oa]);
        fb.switch_to(e);
        let ob = fb.new_object(b);
        fb.jump(j, vec![ob]);
        fb.switch_to(j);
        let sel = fb.program().selector_by_name("id", 1).unwrap();
        let r = fb.call_virtual(sel, vec![jp[0]]).unwrap();
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(f, g);

        let mut vm = Machine::new(
            &p,
            Box::new(NoInline),
            VmConfig {
                jit: false,
                ..VmConfig::default()
            },
        );
        assert_eq!(
            vm.run(f, vec![Value::Bool(true)]).unwrap().value,
            Some(Value::Int(1))
        );
        assert_eq!(
            vm.run(f, vec![Value::Bool(false)]).unwrap().value,
            Some(Value::Int(2))
        );
        vm.run(f, vec![Value::Bool(false)]).unwrap();
        let site = incline_ir::CallSiteId {
            method: f,
            index: 0,
        };
        let prof = vm.profiles().receiver_profile(site);
        assert_eq!(prof.len(), 2);
        assert_eq!(prof[0].class, b);
        assert_eq!(prof[0].count, 2);
    }

    #[test]
    fn fuel_limit_enforced() {
        let (p, m) = sum_program();
        let mut config = VmConfig {
            jit: false,
            ..VmConfig::default()
        };
        config.fuel_steps = 100;
        let mut vm = Machine::new(&p, Box::new(NoInline), config);
        assert_eq!(
            vm.run(m, vec![Value::Int(1_000_000)]),
            Err(ExecError::OutOfFuel)
        );
    }

    #[test]
    fn null_deref_trap_reported() {
        let mut p = Program::new();
        let c = p.add_class("Box", None);
        let f = p.add_field(c, "v", Type::Int);
        let m = p.declare_function("f", vec![Type::Object(c)], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let obj = fb.param(0);
        let v = fb.get_field(f, obj);
        fb.ret(Some(v));
        let g = fb.finish();
        p.define_method(m, g);
        let mut vm = Machine::new(
            &p,
            Box::new(NoInline),
            VmConfig {
                jit: false,
                ..VmConfig::default()
            },
        );
        assert_eq!(
            vm.run(m, vec![Value::Null]),
            Err(ExecError::Trap(TrapKind::NullDeref))
        );
    }

    #[test]
    fn array_bounds_trap_reported() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let idx = fb.param(0);
        let two = fb.const_int(2);
        let arr = fb.new_array(incline_ir::ElemType::Int, two);
        let v = fb.array_get(arr, idx);
        fb.ret(Some(v));
        let g = fb.finish();
        p.define_method(m, g);
        let mut vm = Machine::new(
            &p,
            Box::new(NoInline),
            VmConfig {
                jit: false,
                ..VmConfig::default()
            },
        );
        assert_eq!(
            vm.run(m, vec![Value::Int(1)]).unwrap().value,
            Some(Value::Int(0))
        );
        assert_eq!(
            vm.run(m, vec![Value::Int(5)]),
            Err(ExecError::Trap(TrapKind::Bounds))
        );
        assert_eq!(
            vm.run(m, vec![Value::Int(-1)]),
            Err(ExecError::Trap(TrapKind::Bounds))
        );
    }
}
