//! The tiered virtual machine: profiling interpreter, compile broker and
//! code cache.
//!
//! Execution starts in the interpreting tier, which records profiles
//! ([`ProfileTable`]) and pays a per-instruction dispatch premium. When a
//! method's hotness counters cross the threshold, the broker invokes the
//! configured [`Inliner`] and installs the returned graph in the code
//! cache; subsequent activations run in the compiled tier. Compilation
//! latency and instruction-cache pressure are charged per the
//! [`CostModel`], so both under- and over-inlining are measurably bad —
//! the terrain the paper's algorithm navigates.
//!
//! # Fault containment
//!
//! Compilation is treated as untrusted: a compiler failure must never take
//! the VM down or corrupt executing code. The broker runs a three-rung
//! **bailout ladder** per compilation request:
//!
//! 1. **Full tier** — the configured inliner, fenced by `catch_unwind`
//!    (panics become [`CompileError::Panicked`]) and metered by the
//!    [`VmConfig::compile_fuel`] budget. Every produced graph — in every
//!    build profile — passes `verify_graph` before installation; a
//!    rejected graph is never installed ([`CompileError::Rejected`]).
//! 2. **Degraded tier** — an inline-free compile of the root graph
//!    through the optimization pipeline, independent of the (possibly
//!    faulty) inliner.
//! 3. **Blacklist** — the method is pinned to the interpreter permanently;
//!    the broker never re-attempts it.
//!
//! Every rung failure is recorded in [`BailoutCounters`] and the
//! per-method [`BailoutRecord`] log, and the deterministic fault-injection
//! harness in [`crate::faults`] exercises all three rungs.
//!
//! # The compile queue
//!
//! The ladder itself lives in [`crate::broker`] as a pure function of one
//! request: the machine *enqueues* requests (snapshotting fuel, fault,
//! speculation and — pipelined — the profile table per request) and
//! *drains* the queue on its own thread, one request at a time: compile,
//! charge, install, next. [`InstallPolicy`] picks the drain points:
//! `Barrier` drains at the hotness trigger, `Safepoint` lets the mutator
//! keep interpreting and drains at activation boundaries. Compilation
//! beside the mutator exists in virtual time only: a stall account places
//! each request on one of [`VmConfig::compile_threads`] modelled workers,
//! and only the part of the compile that outlives the mutator's progress
//! is charged as [`RunOutcome::stall_cycles`].
//!
//! [`CostModel`]: crate::CostModel
//! [`CompileError::Panicked`]: crate::CompileError::Panicked
//! [`CompileError::Rejected`]: crate::CompileError::Rejected

mod config;
mod exec;
mod methods;
mod replay;
mod report;
mod tiering;

use std::sync::Arc;

use incline_ir::{Graph, MethodId, Program, Type};
use incline_profile::ProfileTable;
use incline_trace::{CompileEvent, NullSink, TraceSink};

use crate::broker::{CompileQueue, QueueStats};
use crate::cache::CacheStats;
use crate::faults::FaultPlan;
use crate::plan::LowerScratch;
use crate::snapshot::SnapshotStats;
use crate::store::Store;
use crate::value::{Kind, Value};
use crate::{InlineStats, Inliner, TrialCache};

pub use config::{
    InstallPolicy, VmConfig, DEOPT_CONFIDENCE, DRIFT_MIN_SAMPLES, DRIFT_RATE, MAX_DEPTH,
    MAX_HEAP_SLOTS, MAX_RECOMPILES, POISON_WINDOW,
};
use exec::Dispatch;
use methods::{MethodTable, Tier};
pub use report::{
    BailoutCounters, BailoutRecord, CompilationReport, CompileStage, ExecError, RunOutcome,
};

/// One successful install: the log a snapshot captures, and the
/// machine's only record of its compilations.
struct Decision {
    method: MethodId,
    /// Installed during snapshot replay. Replayed installs of a
    /// later-poisoned method are excluded from [`Machine::snapshot`] output.
    replayed: bool,
    /// The compilation's inliner statistics.
    stats: InlineStats,
}

/// The virtual machine.
pub struct Machine<'p> {
    program: &'p Program,
    inliner: Box<dyn Inliner + 'p>,
    config: VmConfig,
    profiles: ProfileTable,
    /// The life of every method: tier, code, history (see `methods`).
    methods: MethodTable,
    lower_scratch: LowerScratch,
    // Fault containment.
    bailouts: BailoutCounters,
    bailout_log: Vec<BailoutRecord>,
    fault_plan: FaultPlan,
    trace: Arc<dyn TraceSink + 'p>,
    // The compile queue and its virtual-time stall account.
    queue: CompileQueue,
    /// The cycle at which each modelled worker that ever ran finishes its
    /// last request; at most `compile_threads` long, and only as long as
    /// the requests have made it.
    worker_free: Vec<u64>,
    /// Virtual cycles accumulated by completed runs; the live clock is
    /// `vbase + exec_cycles + run_stall_cycles`.
    vbase: u64,
    // Bounded code cache.
    /// Monotone use tick: bumped on every compiled activation entry and
    /// whenever an install makes room. Drives LRU recency. Not observable
    /// at `code_cache_budget == 0`.
    use_seq: u64,
    cache: CacheStats,
    // Per-run state.
    store: Store,
    /// The register stack: every live activation's frame, one untagged
    /// word per slot of its flat code, preceded by the arguments its
    /// caller pushed. Reused across calls and runs.
    stack: Vec<u64>,
    /// Words in flight along a CFG edge whose moves cannot be applied in
    /// place (a block passing its own parameters permuted).
    edge_scratch: Vec<u64>,
    /// Memo of [`Program::resolve`], `[class][selector]`; `None` is "not
    /// looked up yet". Rows exist only for classes that were a receiver.
    dispatch: Vec<Vec<Option<Dispatch>>>,
    exec_cycles: u64,
    /// What the charges so far left of a cycle, in 1/256ths: the
    /// remainder the next charge's i-cache factor carries on from.
    exec_fraction: u64,
    run_compile_cycles: u64,
    run_stall_cycles: u64,
    steps: u64,
    // Lifetime totals.
    total_compile_cycles: u64,
    total_stall_cycles: u64,
    /// Host wall-clock nanoseconds spent in the compile ladder (real time,
    /// telemetry only — never feeds the deterministic cycle model).
    compile_wall_nanos: u64,
    /// Shared trial memo table, or `None` when [`VmConfig::trial_cache`]
    /// is off.
    trials: Option<Arc<TrialCache>>,
    // Warmup snapshots.
    /// Every successful install, in installation order — the decision log
    /// a snapshot captures for eager replay.
    decisions: Vec<Decision>,
    snapshot_stats: SnapshotStats,
    /// Whether the machine is inside `apply_snapshot`'s replay loop: marks
    /// installs as replayed and starts their quarantine probation.
    replay_active: bool,
}

impl<'p> Machine<'p> {
    /// Creates a VM over `program` driven by `inliner`.
    pub fn new(program: &'p Program, inliner: Box<dyn Inliner + 'p>, config: VmConfig) -> Self {
        Machine {
            program,
            inliner,
            config,
            profiles: ProfileTable::new(),
            methods: MethodTable::new(program.method_count()),
            lower_scratch: LowerScratch::default(),
            bailouts: BailoutCounters::default(),
            bailout_log: Vec::new(),
            fault_plan: FaultPlan::new(),
            trace: Arc::new(NullSink),
            queue: CompileQueue::default(),
            worker_free: Vec::new(),
            vbase: 0,
            use_seq: 0,
            cache: CacheStats::default(),
            store: Store::default(),
            stack: Vec::new(),
            edge_scratch: Vec::new(),
            dispatch: Vec::new(),
            exec_cycles: 0,
            exec_fraction: 0,
            run_compile_cycles: 0,
            run_stall_cycles: 0,
            steps: 0,
            total_compile_cycles: 0,
            total_stall_cycles: 0,
            compile_wall_nanos: 0,
            trials: config.trial_cache.then(|| Arc::new(TrialCache::default())),
            decisions: Vec::new(),
            snapshot_stats: SnapshotStats::default(),
            replay_active: false,
        }
    }

    /// Executes `entry(args)` once. Heap and output are fresh per run;
    /// profiles and compiled code persist across runs (warmup).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on traps, stack overflow or fuel exhaustion,
    /// and before executing anything when `args` do not fit `entry`.
    pub fn run(&mut self, entry: MethodId, args: Vec<Value>) -> Result<RunOutcome, ExecError> {
        // Registers are untagged: this is the one place tagged values
        // enter, so it is where they are checked against the signature.
        let method = self.program.method(entry);
        let fits =
            |(v, ty): (&Value, &Type)| v.kind() == Kind::of(*ty) && !matches!(v, Value::Ref(_));
        if args.len() != method.params.len() || !args.iter().zip(&method.params).all(fits) {
            let list = |items: Vec<String>| format!("({})", items.join(", "));
            return Err(ExecError::BadEntryArgs {
                expected: list(method.params.iter().map(Type::to_string).collect()),
                got: list(args.iter().map(|v| format!("{v:?}")).collect()),
            });
        }
        self.store.reset();
        self.exec_cycles = 0;
        self.exec_fraction = 0;
        self.run_compile_cycles = 0;
        self.run_stall_cycles = 0;
        self.steps = 0;
        // Run entry is a safepoint: requests still in flight from the
        // previous run (pipelined mode) install before execution starts.
        self.drain_compile_queue();
        // A run that ended in an error left its frames behind.
        self.stack.clear();
        self.stack.extend(args.iter().map(|v| v.to_word()));
        let word = self.exec_method(entry, args.len(), 0);
        self.check_methods(true, word.is_ok().then_some(&args[..]));
        let word = word?;
        self.stack.clear();
        self.vbase += self.exec_cycles + self.run_stall_cycles;
        Ok(RunOutcome {
            value: method.ret.value().map(|ty| Kind::of(ty).value(word)),
            exec_cycles: self.exec_cycles,
            compile_cycles: self.run_compile_cycles,
            stall_cycles: self.run_stall_cycles,
            output: std::mem::take(&mut self.store.output),
        })
    }

    /// Debug builds audit the machine wherever it comes to rest: the method
    /// table; the store once no guest frame is live (`idle`); and after a
    /// run that `returned`, a register stack of exactly its arguments.
    fn check_methods(&self, idle: bool, returned: Option<&[Value]>) {
        let budget = self.config.code_cache_budget;
        self.methods
            .check(&self.queue, budget, &self.decisions, idle);
        if idle {
            self.store.check();
        }
        if let Some(args) = returned.filter(|_| cfg!(debug_assertions)) {
            let words = args.iter().map(|v| v.to_word());
            assert!(
                self.stack.iter().copied().eq(words),
                "words left above the arguments"
            );
        }
    }

    /// The live virtual clock: cycles accumulated by completed runs plus
    /// this run's execution and stall so far.
    fn vnow(&self) -> u64 {
        self.vbase + self.exec_cycles + self.run_stall_cycles
    }

    /// Emits a broker-level trace event, building it only if the sink is
    /// enabled.
    fn emit(&self, event: impl FnOnce() -> CompileEvent) {
        if self.trace.enabled() {
            self.trace.emit(event());
        }
    }

    /// Total machine-code bytes currently installed.
    pub fn installed_bytes(&self) -> u64 {
        self.methods.installed_bytes()
    }

    /// Number of compilations that installed code.
    pub fn compilations(&self) -> u64 {
        self.decisions.len() as u64
    }

    /// Cycles spent in the compiler over the machine's lifetime.
    pub fn total_compile_cycles(&self) -> u64 {
        self.total_compile_cycles
    }

    /// Mutator-visible compilation stall cycles over the machine's
    /// lifetime. Equals [`Machine::total_compile_cycles`] for the
    /// synchronous broker and in barrier mode; lower in pipelined mode.
    pub fn total_stall_cycles(&self) -> u64 {
        self.total_stall_cycles
    }

    /// Lifetime compile-queue counters (requests enqueued / completed /
    /// installed). `enqueued == completed` whenever the queue is drained —
    /// no request is ever lost.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Number of compile requests currently waiting in the queue.
    pub fn pending_compiles(&self) -> usize {
        self.queue.len()
    }

    /// The profile table (for inspection or seeding).
    pub fn profiles(&self) -> &ProfileTable {
        &self.profiles
    }

    /// Mutable profile access (benchmarks pre-seed profiles).
    pub fn profiles_mut(&mut self) -> &mut ProfileTable {
        &mut self.profiles
    }

    /// Which methods are currently compiled, sorted.
    pub fn compiled_methods(&self) -> Vec<MethodId> {
        self.methods.ids_where(|s| s.code().is_some())
    }

    /// The installed graph of a compiled method, if any.
    pub fn compiled_graph(&self, m: MethodId) -> Option<&Graph> {
        self.methods.get(m).code().map(|cm| &cm.code.graph)
    }

    /// Aggregate bailout counters (deterministic for a given run setup).
    pub fn bailouts(&self) -> BailoutCounters {
        self.bailouts
    }

    /// Consolidated compilation telemetry, in one snapshot: the one
    /// reader of the bailout and compile logs, the cache and snapshot
    /// counters and the blacklisted and pinned sets.
    pub fn report(&self) -> CompilationReport {
        CompilationReport {
            compile_requests: self.queue.stats().enqueued,
            compilations: self.compilations(),
            total_compile_cycles: self.total_compile_cycles,
            total_stall_cycles: self.total_stall_cycles,
            installed_bytes: self.installed_bytes(),
            bailouts: self.bailouts,
            cache: self.cache,
            bailout_log: self.bailout_log.clone(),
            compile_log: self.decisions.iter().map(|d| (d.method, d.stats)).collect(),
            blacklisted: self
                .methods
                .ids_where(|s| matches!(s.tier(), Tier::Blacklisted)),
            pinned: self.methods.ids_where(|s| s.pinned()),
            snapshot: self.snapshot_stats,
            compile_wall_nanos: self.compile_wall_nanos,
            trial_hits: self.trials.as_ref().map_or(0, |t| t.hits()),
            trial_misses: self.trials.as_ref().map_or(0, |t| t.misses()),
        }
    }

    /// Installs a fault-injection plan (see [`crate::faults`]). Faults are
    /// indexed by compilation request: the Nth request enqueued, which is
    /// [`CompilationReport::compile_requests`] before it is counted.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    /// Routes all subsequent compilations' [`CompileEvent`] streams — the
    /// broker's own tier/bailout/installation events and everything the
    /// inliner and opt pipeline emit — into `sink`.
    pub fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink + 'p>) {
        self.trace = sink;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoInline;
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::types::RetType;
    use incline_ir::CmpOp;

    /// sum(n) = 0 + 1 + … + (n-1)
    pub(super) fn sum_program() -> (Program, MethodId) {
        let mut p = Program::new();
        let m = p.declare_function("sum", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let n = fb.param(0);
        let zero = fb.const_int(0);
        let (head, hp) = fb.add_block_with_params(&[Type::Int, Type::Int]);
        let body = fb.add_block();
        let (done, dp) = fb.add_block_with_params(&[Type::Int]);
        fb.jump(head, vec![zero, zero]);
        fb.switch_to(head);
        let c = fb.cmp(CmpOp::ILt, hp[0], n);
        fb.branch(c, (body, vec![]), (done, vec![hp[1]]));
        fb.switch_to(body);
        let one = fb.const_int(1);
        let i2 = fb.iadd(hp[0], one);
        let a2 = fb.iadd(hp[1], hp[0]);
        fb.jump(head, vec![i2, a2]);
        fb.switch_to(done);
        fb.ret(Some(dp[0]));
        let g = fb.finish();
        p.define_method(m, g);
        (p, m)
    }

    #[test]
    fn entry_arguments_are_checked_against_the_signature_before_anything_runs() {
        let mut p = Program::new();
        let class = p.add_class("Box", None);
        let m = p.declare_function("f", vec![Type::Int, Type::Object(class)], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        fb.print(x);
        fb.ret(None);
        let g = fb.finish();
        p.define_method(m, g);
        let mut vm = Machine::new(&p, Box::new(NoInline), VmConfig::default());
        let rejected: [(Vec<Value>, &str); 5] = [
            (vec![], "()"),
            (vec![Value::Int(1)], "(Int(1))"),
            (
                vec![Value::Int(1), Value::Null, Value::Null],
                "(Int(1), Null, Null)",
            ),
            (vec![Value::Float(1.0), Value::Null], "(Float(1.0), Null)"),
            // The heap is fresh per run: no reference can be valid.
            (
                vec![Value::Int(1), Value::Ref(crate::value::HeapRef(0))],
                "(Int(1), Ref(HeapRef(0)))",
            ),
        ];
        for (args, got) in rejected {
            let err = vm.run(m, args).unwrap_err();
            assert_eq!(
                err,
                ExecError::BadEntryArgs {
                    expected: "(int, obj.c0)".to_string(),
                    got: got.to_string(),
                }
            );
            assert_eq!(
                err.to_string(),
                format!("entry method takes (int, obj.c0), got {got}")
            );
            assert_eq!((vm.steps, vm.profiles().invocations(m)), (0, 0));
        }
        let out = vm.run(m, vec![Value::Int(1), Value::Null]).unwrap();
        assert_eq!(out.output.lines(), ["1"]);
    }
}
