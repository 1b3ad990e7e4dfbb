//! Benchmark measurement protocol, and the one session builder.
//!
//! Follows the paper's §V methodology adapted to a deterministic VM: each
//! benchmark is executed for a fixed number of repetitions in one machine
//! instance; *peak performance* is the average of the last 40% of the
//! repetitions (at most 20), by which point warmup (interpretation +
//! compilation) has finished. Per-iteration cycles are retained so warmup
//! curves (Figure 5) can be plotted.
//!
//! [`Session`] sets up that machine — inliner, configuration, fault plan,
//! trace sink, warmup snapshots in, snapshot out — for any work: a
//! [`BenchSpec`] here ([`RunSession`]), or tenants under a
//! [`ServerSpec`](crate::ServerSpec) in [`crate::server`]
//! ([`ServerSession`](crate::ServerSession)). Each kind of work adds only
//! its constructor and what it does with the machine.

use std::sync::Arc;

use incline_ir::{MethodId, Program};
use incline_trace::{NullSink, TraceSink};

use crate::cache::CacheStats;
use crate::faults::FaultPlan;
use crate::machine::{BailoutCounters, ExecError, Machine, RunOutcome, VmConfig};
use crate::snapshot::{self, SnapshotIo, SnapshotStats};
use crate::value::Value;
use crate::Inliner;

/// A runnable benchmark: entry point plus arguments and repetition count.
#[derive(Clone, Debug)]
pub struct BenchSpec {
    /// Entry method.
    pub entry: MethodId,
    /// Arguments passed to every repetition.
    pub args: Vec<Value>,
    /// Number of repetitions.
    pub iterations: usize,
}

/// Measurements from one benchmark run.
///
/// `PartialEq` so the identity tests can assert that two configurations
/// produce *identical* results wholesale.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchResult {
    /// Total cycles (execution + mutator-visible compile stall) of each
    /// repetition.
    pub per_iteration: Vec<u64>,
    /// Mean cycles over the steady-state window.
    pub steady_state: f64,
    /// Standard deviation over the steady-state window.
    pub std_dev: f64,
    /// Machine-code bytes installed by the end of the run.
    pub installed_bytes: u64,
    /// Number of methods compiled.
    pub compilations: u64,
    /// Cycles spent compiling over the whole run.
    pub compile_cycles: u64,
    /// Cycles the mutator observably stalled waiting on compilations —
    /// equals `compile_cycles` under barrier installs, less when pipelined
    /// installs overlap compilation with interpretation in virtual time.
    pub stall_cycles: u64,
    /// Output lines of the final repetition (for cross-config checking).
    pub final_output: Vec<String>,
    /// Return value of the final repetition, printed for digests.
    pub final_value: Option<String>,
    /// Bailout counters accumulated by the machine over the run.
    pub bailouts: BailoutCounters,
    /// Mutator-visible compile stall of each repetition — the per-iteration
    /// decomposition of `stall_cycles`, for latency percentiles under
    /// cache pressure.
    pub stall_per_iteration: Vec<u64>,
    /// Code-cache statistics accumulated by the machine over the run.
    pub cache: CacheStats,
    /// Warmup-snapshot counters accumulated by the machine over the run.
    pub snapshot: SnapshotStats,
}

/// Why a benchmark run could not produce a measurement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BenchError {
    /// The spec asked for zero repetitions — there is nothing to measure.
    ZeroIterations,
    /// A repetition stopped abnormally (benchmarks are expected not to
    /// trap; a trap indicates a miscompilation or a workload bug).
    Exec(ExecError),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::ZeroIterations => {
                write!(f, "benchmark spec requests zero iterations")
            }
            BenchError::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::ZeroIterations => None,
            BenchError::Exec(e) => Some(e),
        }
    }
}

impl From<ExecError> for BenchError {
    fn from(e: ExecError) -> Self {
        BenchError::Exec(e)
    }
}

impl BenchResult {
    /// The steady-state window of a series: the last 40% of repetitions,
    /// capped at 20, at least 1 (the paper's measurement rule).
    pub fn steady_window(n: usize) -> usize {
        ((n as f64 * 0.4) as usize).clamp(1, 20)
    }

    /// Nearest-rank quantile of the per-iteration mutator stall series
    /// (`q` ∈ `[0, 1]`, e.g. `0.99` for the p99 stall) — the tail-latency
    /// view of [`BenchResult::stall_per_iteration`], shared with the
    /// server report via [`crate::stats::percentile`].
    pub fn stall_percentile(&self, q: f64) -> u64 {
        crate::stats::percentile(&self.stall_per_iteration, q)
    }

    /// Warmup length: the first repetition whose time is within 10% of the
    /// steady state (1-based). The paper's parameter tuning constrains the
    /// algorithm "not to increase the warmup time by more than 20%".
    pub fn warmup_iterations(&self) -> usize {
        self.warmup_within(0.10)
    }

    /// Warmup length at an arbitrary tolerance: the first repetition whose
    /// time is within `frac` of the steady state (1-based; `frac = 0.05`
    /// is the "within 5%" criterion of the warmup benchmarks). Falls back
    /// to the repetition count when no repetition gets that close.
    pub fn warmup_within(&self, frac: f64) -> usize {
        let target = self.steady_state * (1.0 + frac);
        self.per_iteration
            .iter()
            .position(|&c| (c as f64) <= target)
            .map(|i| i + 1)
            .unwrap_or(self.per_iteration.len())
    }

    /// Cycles spent warming up at tolerance `frac`: the sum of every
    /// repetition *before* the first one within `frac` of the steady state.
    /// `0` when the very first repetition is already steady — the number
    /// eager snapshot replay drives toward zero.
    pub fn warmup_cycles_within(&self, frac: f64) -> u64 {
        let first_steady = self.warmup_within(frac);
        self.per_iteration[..first_steady - 1].iter().sum()
    }

    /// FNV-1a 64 digest of the run's observable answer: the final
    /// repetition's output lines and return value. Replayed runs must
    /// produce the same digest as cold runs — `incline bench` prints it,
    /// and `tests/cli.rs` compares exactly this.
    pub fn answer_digest(&self) -> u64 {
        let mut text = String::new();
        for line in &self.final_output {
            text.push_str(line);
            text.push('\n');
        }
        if let Some(v) = &self.final_value {
            text.push_str(v);
        }
        snapshot::fnv1a(text.as_bytes())
    }
}

/// A configured session over one program, built fluently and executed
/// once: a benchmark run ([`RunSession`]) or a serving run
/// ([`ServerSession`](crate::ServerSession)). `W` is the work.
///
/// Every optional capability — inliner, VM configuration, fault plan,
/// trace sink, warmup snapshots — is a setter declared once here for both
/// kinds of work, so a new capability extends this builder instead of
/// forking another entry point.
pub struct Session<'p, W> {
    program: &'p Program,
    pub(crate) work: W,
    inliner: Box<dyn Inliner + 'p>,
    config: VmConfig,
    plan: FaultPlan,
    sink: Arc<dyn TraceSink + 'p>,
    snapshot_in: Option<SnapshotIo>,
    snapshot_merge: Vec<SnapshotIo>,
    snapshot_out: Option<SnapshotIo>,
}

/// A configured benchmark run: `spec.iterations` repetitions of one entry
/// on one machine.
///
/// ```
/// use incline_vm::{RunSession, BenchSpec, NoInline, Value, VmConfig};
/// # use incline_ir::{FunctionBuilder, Program, Type};
/// # let mut p = Program::new();
/// # let m = p.declare_function("answer", vec![Type::Int], Type::Int);
/// # let mut fb = FunctionBuilder::new(&p, m);
/// # let k = fb.const_int(42);
/// # fb.ret(Some(k));
/// # let g = fb.finish();
/// # p.define_method(m, g);
/// let spec = BenchSpec { entry: m, args: vec![Value::Int(1)], iterations: 3 };
/// let result = RunSession::new(&p, spec)
///     .inliner(Box::new(NoInline))
///     .config(VmConfig { hotness_threshold: 2, ..VmConfig::default() })
///     .run()?;
/// assert_eq!(result.per_iteration.len(), 3);
/// # Ok::<(), incline_vm::BenchError>(())
/// ```
pub type RunSession<'p> = Session<'p, BenchSpec>;

impl<'p, W> Session<'p, W> {
    /// Starts a session over `program` doing `work`. Defaults: the
    /// [`NoInline`](crate::NoInline) inliner, [`VmConfig::default`], no
    /// faults, no tracing, no snapshots.
    pub(crate) fn with_work(program: &'p Program, work: W) -> Self {
        Session {
            program,
            work,
            inliner: Box::new(crate::NoInline),
            config: VmConfig::default(),
            plan: FaultPlan::new(),
            sink: Arc::new(NullSink),
            snapshot_in: None,
            snapshot_merge: Vec::new(),
            snapshot_out: None,
        }
    }

    /// Drives compilation with `inliner` (default: no inlining).
    pub fn inliner(mut self, inliner: Box<dyn Inliner + 'p>) -> Self {
        self.inliner = inliner;
        self
    }

    /// Runs under `config` (default: [`VmConfig::default`]).
    pub fn config(mut self, config: VmConfig) -> Self {
        self.config = config;
        self
    }

    /// Installs a deterministic [`FaultPlan`] before the work starts — the
    /// entry point of the fault-injection harness.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Routes every compilation's [`incline_trace::CompileEvent`] stream
    /// into `sink`, and a serving run's timeline markers as well
    /// ([`CompileEvent::RequestRetired`](incline_trace::CompileEvent::RequestRetired),
    /// [`CompileEvent::QueueDepth`](incline_trace::CompileEvent::QueueDepth))
    /// — the way to capture a whole session's trace (see
    /// `examples/trace_dump.rs`).
    pub fn trace(mut self, sink: Arc<dyn TraceSink + 'p>) -> Self {
        self.sink = sink;
        self
    }

    /// Loads a warmup snapshot before the work starts. Accepts a
    /// [`SnapshotIo`] or anything it converts from: a path (`&str`,
    /// `&Path`) or raw snapshot bytes (`Vec<u8>`). A stale, corrupt
    /// or unreadable snapshot degrades gracefully to a cold start
    /// ([`SnapshotStats::fallbacks`]), never an error. On a server, one
    /// snapshot warms the shared cache for every tenant.
    pub fn snapshot_in(mut self, io: impl Into<SnapshotIo>) -> Self {
        self.snapshot_in = Some(io.into());
        self
    }

    /// Merges N replica snapshots before the work starts (fleet
    /// distribution): each source is read and parsed, unreadable or
    /// corrupt replicas degrade to fallbacks, and the survivors go through
    /// [`Snapshot`](crate::Snapshot)'s N-way merge (profile union, union of
    /// the decided methods, support check) before being applied like a single
    /// warmup snapshot. Zero usable replicas is a cold start, never an
    /// error. Combined with [`Session::snapshot_in`], that snapshot is
    /// applied first and is not one of the replicas: the merge of the
    /// replicas is applied on top of it ([`Machine::warm_from`]). The CLI
    /// keeps the two flags mutually exclusive.
    pub fn snapshot_merge(mut self, ios: Vec<SnapshotIo>) -> Self {
        self.snapshot_merge = ios;
        self
    }

    /// Writes the machine's end-of-run snapshot (profiles + compile
    /// decision log) to `io` once the work is done. Write failures are
    /// counted in [`SnapshotStats::write_failures`], never an error.
    pub fn snapshot_out(mut self, io: impl Into<SnapshotIo>) -> Self {
        self.snapshot_out = Some(io.into());
        self
    }

    /// Runs `work` on a fresh [`Machine`] set up by this session — fault
    /// plan, trace sink, then warmup snapshots — and, when it succeeds,
    /// writes the end-of-run snapshot. Returns the machine so the caller
    /// reads its counters after that write.
    pub(crate) fn drive<T, E>(
        self,
        work: impl FnOnce(&mut Machine<'p>, &W, &dyn TraceSink) -> Result<T, E>,
    ) -> Result<(Machine<'p>, T), E> {
        let mut vm = Machine::new(self.program, self.inliner, self.config);
        vm.set_fault_plan(self.plan);
        vm.set_trace_sink(Arc::clone(&self.sink));
        vm.warm_from(self.snapshot_in.as_ref(), &self.snapshot_merge);
        let done = work(&mut vm, &self.work, &*self.sink)?;
        if let Some(io) = &self.snapshot_out {
            vm.persist_to(io);
        }
        Ok((vm, done))
    }
}

impl<'p> RunSession<'p> {
    /// Starts a session over `program` running `spec`, with the defaults
    /// of every setter.
    pub fn new(program: &'p Program, spec: BenchSpec) -> Self {
        Session::with_work(program, spec)
    }

    /// Executes the configured run on a fresh [`Machine`].
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::ZeroIterations`] for an empty spec and
    /// [`BenchError::Exec`] when a repetition stops abnormally.
    pub fn run(self) -> Result<BenchResult, BenchError> {
        self.run_with_report().map(|(result, _)| result)
    }

    /// Like [`RunSession::run`], additionally returning the machine's
    /// [`CompilationReport`](crate::CompilationReport) — compile wall
    /// time, trial-cache hits/misses, bailout and cache telemetry — for
    /// the compiler-throughput figures. The `BenchResult` is bit-identical
    /// to what [`RunSession::run`] produces.
    ///
    /// # Errors
    ///
    /// Same contract as [`RunSession::run`].
    pub fn run_with_report(self) -> Result<(BenchResult, crate::CompilationReport), BenchError> {
        let iterations = self.work.iterations;
        if iterations == 0 {
            return Err(BenchError::ZeroIterations);
        }
        let (vm, (per_iteration, stall_per_iteration, last)) = self.drive(|vm, spec, _| {
            let mut per_iteration = Vec::with_capacity(iterations);
            let mut stall_per_iteration = Vec::with_capacity(iterations);
            let mut last: Option<RunOutcome> = None;
            for _ in 0..iterations {
                let out = vm.run(spec.entry, spec.args.clone())?;
                per_iteration.push(out.total_cycles());
                stall_per_iteration.push(out.stall_cycles);
                last = Some(out);
            }
            Ok::<_, ExecError>((per_iteration, stall_per_iteration, last))
        })?;
        let window = BenchResult::steady_window(iterations);
        let steady = &per_iteration[per_iteration.len() - window..];
        let mean = steady.iter().copied().sum::<u64>() as f64 / window as f64;
        let var = steady
            .iter()
            .map(|&c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / window as f64;
        let last = last.expect("at least one iteration");
        let report = vm.report();
        let result = BenchResult {
            per_iteration,
            steady_state: mean,
            std_dev: var.sqrt(),
            installed_bytes: report.installed_bytes,
            compilations: report.compilations,
            compile_cycles: report.total_compile_cycles,
            stall_cycles: report.total_stall_cycles,
            final_output: last.output.lines().to_vec(),
            final_value: last.value.map(|v| format!("{v:?}")),
            bailouts: report.bailouts,
            stall_per_iteration,
            cache: report.cache,
            snapshot: report.snapshot,
        };
        Ok((result, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoInline;
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::{CmpOp, Type};

    fn threshold(hotness_threshold: u64) -> VmConfig {
        VmConfig {
            hotness_threshold,
            ..VmConfig::default()
        }
    }

    fn loopy_program() -> (Program, MethodId) {
        let mut p = Program::new();
        let m = p.declare_function("work", vec![Type::Int], Type::Int);
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
    fn warmup_curve_descends_with_jit() {
        let (p, m) = loopy_program();
        let spec = BenchSpec {
            entry: m,
            args: vec![Value::Int(500)],
            iterations: 12,
        };
        let config = threshold(3);
        let r = RunSession::new(&p, spec)
            .inliner(Box::new(NoInline))
            .config(config)
            .run()
            .unwrap();
        assert_eq!(r.per_iteration.len(), 12);
        let first = r.per_iteration[0];
        let last = *r.per_iteration.last().unwrap();
        assert!(
            last < first,
            "warmup must speed things up: {first} → {last}"
        );
        assert_eq!(r.compilations, 1);
        assert!(r.steady_state > 0.0);
        assert!(r.std_dev >= 0.0);
    }

    #[test]
    fn steady_window_rule() {
        assert_eq!(BenchResult::steady_window(10), 4);
        assert_eq!(BenchResult::steady_window(100), 20); // capped
        assert_eq!(BenchResult::steady_window(1), 1); // floor
        assert_eq!(BenchResult::steady_window(2), 1);
    }

    #[test]
    fn warmup_detection() {
        let r = BenchResult {
            per_iteration: vec![1000, 400, 210, 200, 200, 200],
            steady_state: 200.0,
            std_dev: 0.0,
            installed_bytes: 0,
            compilations: 0,
            compile_cycles: 0,
            stall_cycles: 0,
            final_output: vec![],
            final_value: None,
            bailouts: BailoutCounters::default(),
            stall_per_iteration: vec![800, 0, 10, 0, 0, 0],
            cache: CacheStats::default(),
            snapshot: SnapshotStats::default(),
        };
        assert_eq!(r.warmup_iterations(), 3); // 210 ≤ 220 = 200·1.10
        assert_eq!(r.warmup_within(0.05), 3); // 210 ≤ 210 = 200·1.05
        assert_eq!(r.warmup_cycles_within(0.05), 1000 + 400);
        assert_eq!(r.warmup_within(0.01), 4); // 200 ≤ 202 = 200·1.01
        assert_eq!(r.warmup_cycles_within(0.01), 1000 + 400 + 210);
        assert_eq!(r.stall_percentile(0.5), 0);
        assert_eq!(r.stall_percentile(0.99), 800);
    }

    #[test]
    fn warmup_cycles_zero_when_steady_from_the_start() {
        let r = BenchResult {
            per_iteration: vec![200, 200, 200],
            steady_state: 200.0,
            std_dev: 0.0,
            installed_bytes: 0,
            compilations: 0,
            compile_cycles: 0,
            stall_cycles: 0,
            final_output: vec!["ok".to_string()],
            final_value: Some("Int(7)".to_string()),
            bailouts: BailoutCounters::default(),
            stall_per_iteration: vec![0, 0, 0],
            cache: CacheStats::default(),
            snapshot: SnapshotStats::default(),
        };
        assert_eq!(r.warmup_within(0.05), 1);
        assert_eq!(r.warmup_cycles_within(0.05), 0);
        // The digest covers output lines and the final value.
        let mut other = r.clone();
        other.final_value = Some("Int(8)".to_string());
        assert_ne!(r.answer_digest(), other.answer_digest());
    }

    #[test]
    fn zero_iterations_is_an_error_not_a_panic() {
        let (p, m) = loopy_program();
        let spec = BenchSpec {
            entry: m,
            args: vec![Value::Int(1)],
            iterations: 0,
        };
        let err = RunSession::new(&p, spec)
            .inliner(Box::new(NoInline))
            .run()
            .unwrap_err();
        assert_eq!(err, BenchError::ZeroIterations);
    }

    #[test]
    fn snapshot_round_trip_warms_the_next_session() {
        let (p, m) = loopy_program();
        let spec = BenchSpec {
            entry: m,
            args: vec![Value::Int(500)],
            iterations: 8,
        };
        let config = threshold(3);
        let store = SnapshotIo::memory();
        let cold = RunSession::new(&p, spec.clone())
            .inliner(Box::new(NoInline))
            .config(config)
            .snapshot_out(store.clone())
            .run()
            .unwrap();
        assert_eq!(cold.snapshot.written, 1);
        assert!(store.bytes().is_some(), "snapshot must land in the store");
        let warm = RunSession::new(&p, spec)
            .inliner(Box::new(NoInline))
            .config(config)
            .snapshot_in(store)
            .run()
            .unwrap();
        assert_eq!(warm.snapshot.loaded, 1);
        assert_eq!(warm.snapshot.replayed_compiles, 1);
        assert_eq!(
            warm.answer_digest(),
            cold.answer_digest(),
            "replay must not change the answer"
        );
        assert!(
            warm.warmup_cycles_within(0.05) < cold.warmup_cycles_within(0.05),
            "eager replay must shrink warmup: {} vs {}",
            warm.warmup_cycles_within(0.05),
            cold.warmup_cycles_within(0.05)
        );
    }

    /// `snapshot_in` is not one of the replicas: it is applied first, and
    /// the merge of the two replicas is applied on top of it, so the run
    /// counts two loads and two merged replicas.
    #[test]
    fn snapshot_in_is_applied_before_the_merge_not_inside_it() {
        let (p, m) = loopy_program();
        let config = threshold(3);
        let spec = |n| BenchSpec {
            entry: m,
            args: vec![Value::Int(n)],
            iterations: 4,
        };
        let stores = [100, 200, 300].map(|n| {
            let store = SnapshotIo::memory();
            RunSession::new(&p, spec(n))
                .config(config)
                .snapshot_out(store.clone())
                .run()
                .unwrap();
            store
        });
        let [first, a, b] = stores;
        let warm = RunSession::new(&p, spec(100))
            .config(config)
            .snapshot_in(first)
            .snapshot_merge(vec![a, b])
            .run()
            .unwrap();
        assert_eq!(warm.snapshot.fallbacks, 0);
        assert_eq!((warm.snapshot.loaded, warm.snapshot.merged), (2, 2));
    }

    #[test]
    fn unreadable_snapshot_store_degrades_to_cold_start() {
        let (p, m) = loopy_program();
        let spec = BenchSpec {
            entry: m,
            args: vec![Value::Int(100)],
            iterations: 6,
        };
        let config = threshold(2);
        let cold = RunSession::new(&p, spec.clone())
            .inliner(Box::new(NoInline))
            .config(config)
            .run()
            .unwrap();
        // An empty memory cell fails the read; the run proceeds cold.
        let fallback = RunSession::new(&p, spec)
            .inliner(Box::new(NoInline))
            .config(config)
            .snapshot_in(SnapshotIo::memory())
            .run()
            .unwrap();
        assert_eq!(fallback.snapshot.fallbacks, 1);
        let mut comparable = fallback.clone();
        comparable.snapshot = cold.snapshot;
        assert_eq!(comparable, cold, "fallback must behave exactly like cold");
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let (p, m) = loopy_program();
        let spec = BenchSpec {
            entry: m,
            args: vec![Value::Int(100)],
            iterations: 6,
        };
        let config = threshold(2);
        let a = RunSession::new(&p, spec.clone())
            .inliner(Box::new(NoInline))
            .config(config)
            .run()
            .unwrap();
        let b = RunSession::new(&p, spec)
            .inliner(Box::new(NoInline))
            .config(config)
            .run()
            .unwrap();
        assert_eq!(
            a.per_iteration, b.per_iteration,
            "the VM must be deterministic"
        );
        assert_eq!(a.installed_bytes, b.installed_bytes);
    }
}
