//! What the machine reports: run outcomes, execution errors, and the
//! compile-path telemetry (bailouts, ladder stages, the consolidated
//! [`CompilationReport`]).

use incline_ir::eval::TrapKind;
use incline_ir::MethodId;

use crate::cache::CacheStats;
use crate::snapshot::SnapshotStats;
use crate::value::{Output, Value};
use crate::{CompileError, InlineStats};

/// Which rung of the bailout ladder a compilation attempt ran on — the
/// trace vocabulary's [`BailoutStage`](incline_trace::BailoutStage).
pub use incline_trace::BailoutStage as CompileStage;

/// One recorded bailout: a compilation attempt that failed and fell
/// through to the next rung of the ladder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BailoutRecord {
    /// The method whose compilation failed.
    pub method: MethodId,
    /// The rung that failed.
    pub stage: CompileStage,
    /// Why it failed.
    pub error: CompileError,
}

/// Aggregate bailout counters over the machine's lifetime.
///
/// The same run (same program, config, inliner, fault plan) always
/// produces the same counters — the fault-injection tests assert this.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BailoutCounters {
    /// Failed full-tier compilation attempts.
    pub full_tier: u64,
    /// Failed degraded-tier compilation attempts.
    pub degraded_tier: u64,
    /// Methods permanently pinned to the interpreter.
    pub blacklisted: u64,
    /// Compiler panics contained by the `catch_unwind` fence.
    pub contained_panics: u64,
    /// Graphs rejected by the pre-install verifier.
    pub verifier_rejections: u64,
    /// Attempts that ran out of compile fuel.
    pub fuel_exhaustions: u64,
    /// Compiled activations that deoptimized back to the interpreter
    /// (uncommon trap, drift, or injected).
    pub deopts: u64,
    /// Installed graphs removed from the code cache by deoptimization.
    pub invalidations: u64,
    /// Recompilations performed after an invalidation.
    pub recompiles: u64,
    /// Methods pinned to fallback-only code by the storm throttle.
    pub pinned: u64,
}

impl BailoutCounters {
    /// Total failed compilation attempts across both tiers.
    pub fn total(&self) -> u64 {
        self.full_tier + self.degraded_tier
    }

    pub(super) fn record(&mut self, stage: CompileStage, error: &CompileError) {
        match stage {
            CompileStage::Full => self.full_tier += 1,
            CompileStage::Degraded => self.degraded_tier += 1,
        }
        match error {
            CompileError::Panicked(_) => self.contained_panics += 1,
            CompileError::Rejected(_) => self.verifier_rejections += 1,
            CompileError::OutOfFuel { .. } => self.fuel_exhaustions += 1,
        }
    }
}

/// Consolidated compilation telemetry, read in one snapshot by
/// `Machine::report`.
#[derive(Clone, Debug, Default)]
pub struct CompilationReport {
    /// Compilation requests ever enqueued, those still pending in pipelined
    /// mode included (each runs the full ladder once drained; blacklisted
    /// methods generate none). A [`crate::FaultPlan`] is keyed by this
    /// index: request N is the one enqueued when this read N.
    pub compile_requests: u64,
    /// Compilations that installed code.
    pub compilations: u64,
    /// Cycles spent compiling over the machine's lifetime.
    pub total_compile_cycles: u64,
    /// Mutator-visible compilation stall cycles over the machine's
    /// lifetime (== `total_compile_cycles` unless the broker is pipelined).
    pub total_stall_cycles: u64,
    /// Machine-code bytes currently installed.
    pub installed_bytes: u64,
    /// Aggregate bailout counters.
    pub bailouts: BailoutCounters,
    /// Code-cache statistics (evictions, admissions, re-tiers, aging).
    pub cache: CacheStats,
    /// Every recorded bailout, in occurrence order.
    pub bailout_log: Vec<BailoutRecord>,
    /// Per-compilation inliner statistics, in compilation order.
    pub compile_log: Vec<(MethodId, InlineStats)>,
    /// Methods permanently pinned to the interpreter, sorted.
    pub blacklisted: Vec<MethodId>,
    /// Methods pinned to fallback-only code by the storm throttle, sorted.
    pub pinned: Vec<MethodId>,
    /// Warmup-snapshot counters (loads, graceful fallbacks, replays,
    /// writes).
    pub snapshot: SnapshotStats,
    /// Host wall-clock nanoseconds spent inside the compile ladder over
    /// the machine's lifetime. Real time (not virtual cycles): the
    /// compiler-throughput figures read it; it never feeds a
    /// deterministic observable.
    pub compile_wall_nanos: u64,
    /// Deep-inlining-trial cache hits (0 when the cache is disabled).
    pub trial_hits: u64,
    /// Deep-inlining-trial cache misses (0 when the cache is disabled):
    /// the trials actually run. Exact, like the hits.
    pub trial_misses: u64,
}

/// Why execution stopped abnormally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// A runtime trap (the program's own fault).
    Trap(TrapKind),
    /// Call depth exceeded [`MAX_DEPTH`](super::MAX_DEPTH).
    StackOverflow,
    /// Step budget exceeded [`VmConfig::fuel_steps`](super::VmConfig::fuel_steps).
    OutOfFuel,
    /// The arguments handed to [`Machine::run`] do not fit the entry
    /// method's signature: wrong count, wrong type, or a heap reference
    /// (the heap is fresh per run, so none can be valid). Nothing ran.
    ///
    /// [`Machine::run`]: super::Machine::run
    BadEntryArgs {
        /// The entry method's parameter list, e.g. `(int, float)`.
        expected: String,
        /// What was passed, in the same form.
        got: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Trap(t) => write!(f, "trap: {t}"),
            ExecError::StackOverflow => write!(f, "stack overflow"),
            ExecError::OutOfFuel => write!(f, "out of fuel"),
            ExecError::BadEntryArgs { expected, got } => {
                write!(f, "entry method takes {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// The result of one `run`.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutcome {
    /// Return value of the entry method.
    pub value: Option<Value>,
    /// Cycles spent executing code this run.
    pub exec_cycles: u64,
    /// Cycles of compile work performed for requests applied this run.
    pub compile_cycles: u64,
    /// Cycles the mutator was stalled on compilation this run. With no
    /// modelled worker (`compile_threads == 0`) or in
    /// [`InstallPolicy::Barrier`] mode this equals `compile_cycles`; in
    /// pipelined mode with workers it is only the portion of compile
    /// latency that was not hidden behind mutator progress in virtual time
    /// (see [`VmConfig::compile_threads`](super::VmConfig::compile_threads)).
    ///
    /// [`InstallPolicy::Barrier`]: super::InstallPolicy::Barrier
    pub stall_cycles: u64,
    /// Observable output of the run.
    pub output: Output,
}

impl RunOutcome {
    /// Execution plus mutator-visible compilation stall (what an iteration
    /// "takes" on the simulated timeline).
    pub fn total_cycles(&self) -> u64 {
        self.exec_cycles + self.stall_cycles
    }
}
