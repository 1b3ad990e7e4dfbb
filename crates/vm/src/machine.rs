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
//! # Background compilation
//!
//! The ladder itself lives in [`crate::broker`] as a pure function over a
//! [`CompileRequest`]: the machine *enqueues* requests (snapshotting fuel,
//! fault and speculation per request) and *drains* the queue through a pool
//! of [`VmConfig::compile_threads`] scoped worker threads — or inline when
//! the pool size is 0. [`InstallPolicy`] picks the drain points: `Barrier`
//! drains at the hotness trigger (observably identical to the synchronous
//! broker, cycle for cycle and event for event), `Safepoint` lets the
//! mutator keep interpreting and installs at activation boundaries, with
//! the compile latency hidden by a virtual-time worker model — only the
//! queue wait that outlives the mutator's progress is charged as
//! [`RunOutcome::stall_cycles`].

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use incline_ir::eval::TrapKind;
use incline_ir::graph::{CallTarget, DeoptReason};
use incline_ir::{ClassId, Graph, MethodId, Program, SelectorId, Type};
use incline_profile::{MethodProfile, ProfileTable};
use incline_trace::{BailoutStage, CodeTier, CompileEvent, NullSink, TraceSink};

use crate::broker::{
    self, CompileQueue, CompileRequest, CompileResponse, InstallPackage, QueueStats,
};
use crate::cache::{self, CacheEntry, CacheStats, EvictionPolicy};
use crate::cost::{CostModel, Tier};
use crate::faults::{FaultKind, FaultPlan};
use crate::inliner::{CompileError, InlineStats, Inliner, Speculation};
use crate::method_map::MethodMap;
use crate::plan::{method_signature, ExecPlan, LowerScratch, PlannedGraph, Term};
use crate::snapshot::{
    self, DecisionRecord, MergePolicy, ReplayMode, Snapshot, SnapshotError, SnapshotStats,
};
use crate::store::Store;
use crate::value::{word_ref, Kind, Output, Value};

/// VM configuration.
#[derive(Clone, Copy, Debug)]
pub struct VmConfig {
    /// Cost model constants.
    pub cost: CostModel,
    /// Hotness threshold: a method compiles once
    /// `invocations + backedges/4` reaches this value.
    pub hotness_threshold: u64,
    /// Whether the JIT is enabled (false = pure interpreter).
    pub jit: bool,
    /// Maximum interpreter steps per `run` (runaway protection).
    pub fuel_steps: u64,
    /// Maximum call depth.
    pub max_depth: usize,
    /// Compile-work budget per compilation attempt, in IR-node units
    /// (`u64::MAX` = unmetered). An attempt that exhausts the budget bails
    /// out to the next rung of the ladder instead of running away.
    pub compile_fuel: u64,
    /// Whether deoptimization is enabled: typeswitches with enough profile
    /// coverage compile their fallback to an uncommon trap, and the broker
    /// runs the invalidate → reprofile → recompile machinery (including
    /// the drift monitor). Off by default so speculation stays
    /// always-correct; the CLI enables it unless `--no-deopt`.
    pub deopt: bool,
    /// Minimum typeswitch profile coverage (summed receiver probabilities)
    /// before the fallback becomes a `deopt` instead of a virtual call.
    pub deopt_confidence: f64,
    /// Drift monitor: a compiled method is invalidated once it executes
    /// more than `drift_rate` fallback virtual dispatches per compiled
    /// invocation — the speculated cases no longer cover the hot receivers.
    pub drift_rate: f64,
    /// Drift monitor: minimum compiled invocations before the dispatch
    /// rate is evaluated (avoids invalidating on startup noise).
    pub drift_min_samples: u64,
    /// Storm throttle: recompilations granted after invalidation before
    /// the method is pinned to fallback-only (never `deopt`) code.
    pub max_recompiles: u32,
    /// Size of the background compile-worker pool. `0` compiles inline on
    /// the mutator thread (today's synchronous broker); `N >= 1` runs each
    /// queue drain on up to `N` scoped worker threads. In
    /// [`InstallPolicy::Barrier`] mode any value produces byte-identical
    /// observable behavior — the differential matrix tests assert it.
    /// Defaults to the `INCLINE_COMPILE_THREADS` environment variable
    /// (read once), or `0`.
    pub compile_threads: usize,
    /// Where compile-queue drains happen; see [`InstallPolicy`].
    pub install_policy: InstallPolicy,
    /// Code-cache budget in modeled machine-code bytes. `0` = unbounded —
    /// every pre-existing behavior is preserved bit for bit. A finite
    /// budget is enforced at install time: `installed_bytes` never exceeds
    /// it at any observable point; installs that don't fit evict victims
    /// under [`VmConfig::eviction_policy`], clear admission control, or
    /// are gracefully deferred (never a panic, never an overshoot).
    pub code_cache_budget: u64,
    /// Victim-selection policy under a finite budget; see
    /// [`EvictionPolicy`]. Ignored when the budget is 0.
    pub eviction_policy: EvictionPolicy,
    /// Aging window in compiled-entry ticks: a resident idle this long has
    /// its eviction score floored, making it the preferred victim under
    /// every policy. `0` disables aging. Only evaluated under a finite
    /// budget.
    pub cache_age_window: u64,
    /// How a loaded warmup snapshot is applied before the first run; see
    /// [`ReplayMode`]. Irrelevant unless a snapshot is actually loaded.
    pub replay: ReplayMode,
    /// Quarantine ladder probation window, in compiled activations: a
    /// decision replayed from a snapshot that deoptimizes within its first
    /// `poison_window` activations is attributed as *poisoned* — its code
    /// is dropped evict-style (no recompile-budget burn, no pinning), its
    /// seeded profile contribution is rolled back, and the decision is
    /// excluded from the next snapshot. `0` disables the ladder.
    pub poison_window: u64,
    /// Whether deep-inlining-trial results are memoized across rounds and
    /// compilations (see [`crate::trials::TrialCache`]). Trials are pure
    /// functions of (callee graph, argument specialization), so caching
    /// never changes an observable — the differential tests assert
    /// byte-identical results with the cache on and off. On by default;
    /// the CLI disables it with `--no-trial-cache`.
    pub trial_cache: bool,
}

/// When the compile queue drains and installed code becomes visible.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InstallPolicy {
    /// **Deterministic mode**: the virtual-time barrier sits at the hotness
    /// trigger — the request is enqueued and the queue drained before the
    /// triggering invocation proceeds, so the mutator observes exactly the
    /// synchronous broker's behavior (cycles, trace stream, tier-up point)
    /// regardless of [`VmConfig::compile_threads`].
    #[default]
    Barrier,
    /// **Pipelined mode**: the triggering invocation keeps interpreting;
    /// in-flight compilations install at the next safepoint (an activation
    /// boundary of the method, or the start of the next `run`), and tier-up
    /// happens on the following invocation. Semantics are still exactly
    /// preserved — only the timeline differs: compile latency overlaps
    /// mutator progress, so [`RunOutcome::stall_cycles`] shrinks.
    Safepoint,
}

fn env_compile_threads() -> usize {
    static CACHE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("INCLINE_COMPILE_THREADS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    })
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            cost: CostModel::default(),
            hotness_threshold: 40,
            jit: true,
            fuel_steps: 500_000_000,
            // Each guest frame costs a host frame; stay well inside the
            // 2 MiB default stack of Rust test threads.
            max_depth: 400,
            compile_fuel: u64::MAX,
            deopt: false,
            deopt_confidence: 0.95,
            drift_rate: 2.0,
            drift_min_samples: 8,
            max_recompiles: 3,
            compile_threads: env_compile_threads(),
            install_policy: InstallPolicy::Barrier,
            code_cache_budget: 0,
            eviction_policy: EvictionPolicy::default(),
            cache_age_window: 1024,
            replay: ReplayMode::default(),
            poison_window: 8,
            trial_cache: true,
        }
    }
}

impl VmConfig {
    /// Starts a fluent builder seeded with [`VmConfig::default`] — the
    /// call-site-friendly alternative to enumerating struct fields:
    ///
    /// ```
    /// use incline_vm::VmConfig;
    /// let config = VmConfig::builder()
    ///     .hotness_threshold(5)
    ///     .code_cache_budget(8 * 1024)
    ///     .deopt(true)
    ///     .build();
    /// assert_eq!(config.hotness_threshold, 5);
    /// ```
    pub fn builder() -> VmConfigBuilder {
        VmConfigBuilder {
            config: VmConfig::default(),
        }
    }
}

/// Fluent builder for [`VmConfig`], obtained via [`VmConfig::builder`].
/// One setter per field, plus the [`VmConfigBuilder::pipelined`]
/// convenience for the common Safepoint switch.
#[derive(Clone, Copy, Debug)]
pub struct VmConfigBuilder {
    config: VmConfig,
}

impl VmConfigBuilder {
    /// Sets the cost model constants.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.config.cost = cost;
        self
    }

    /// Sets the hotness threshold (see [`VmConfig::hotness_threshold`]).
    pub fn hotness_threshold(mut self, threshold: u64) -> Self {
        self.config.hotness_threshold = threshold;
        self
    }

    /// Enables or disables the JIT (false = pure interpreter).
    pub fn jit(mut self, jit: bool) -> Self {
        self.config.jit = jit;
        self
    }

    /// Sets the interpreter step budget per `run`.
    pub fn fuel_steps(mut self, fuel_steps: u64) -> Self {
        self.config.fuel_steps = fuel_steps;
        self
    }

    /// Sets the maximum call depth.
    pub fn max_depth(mut self, max_depth: usize) -> Self {
        self.config.max_depth = max_depth;
        self
    }

    /// Sets the compile-work budget per compilation attempt.
    pub fn compile_fuel(mut self, compile_fuel: u64) -> Self {
        self.config.compile_fuel = compile_fuel;
        self
    }

    /// Enables or disables deoptimization (see [`VmConfig::deopt`]).
    pub fn deopt(mut self, deopt: bool) -> Self {
        self.config.deopt = deopt;
        self
    }

    /// Sets the minimum typeswitch coverage before speculation.
    pub fn deopt_confidence(mut self, confidence: f64) -> Self {
        self.config.deopt_confidence = confidence;
        self
    }

    /// Sets the drift monitor's dispatch-rate trip point.
    pub fn drift_rate(mut self, rate: f64) -> Self {
        self.config.drift_rate = rate;
        self
    }

    /// Sets the drift monitor's minimum sample count.
    pub fn drift_min_samples(mut self, samples: u64) -> Self {
        self.config.drift_min_samples = samples;
        self
    }

    /// Sets the recompilation cap before speculation pinning.
    pub fn max_recompiles(mut self, max: u32) -> Self {
        self.config.max_recompiles = max;
        self
    }

    /// Sizes the background compile-worker pool (0 = synchronous).
    pub fn compile_threads(mut self, threads: usize) -> Self {
        self.config.compile_threads = threads;
        self
    }

    /// Sets the install policy (see [`InstallPolicy`]).
    pub fn install_policy(mut self, policy: InstallPolicy) -> Self {
        self.config.install_policy = policy;
        self
    }

    /// Convenience: `true` selects [`InstallPolicy::Safepoint`] (the
    /// `--pipelined` CLI switch), `false` [`InstallPolicy::Barrier`].
    pub fn pipelined(mut self, pipelined: bool) -> Self {
        self.config.install_policy = if pipelined {
            InstallPolicy::Safepoint
        } else {
            InstallPolicy::Barrier
        };
        self
    }

    /// Sets the code-cache budget in modeled bytes (0 = unbounded).
    pub fn code_cache_budget(mut self, budget: u64) -> Self {
        self.config.code_cache_budget = budget;
        self
    }

    /// Sets the eviction policy under a finite budget.
    pub fn eviction_policy(mut self, policy: EvictionPolicy) -> Self {
        self.config.eviction_policy = policy;
        self
    }

    /// Sets the idle-aging window in compiled-entry ticks (0 = off).
    pub fn cache_age_window(mut self, window: u64) -> Self {
        self.config.cache_age_window = window;
        self
    }

    /// Sets how a loaded warmup snapshot is applied (see [`ReplayMode`]).
    pub fn replay(mut self, mode: ReplayMode) -> Self {
        self.config.replay = mode;
        self
    }

    /// Sets the quarantine probation window in compiled activations
    /// (see [`VmConfig::poison_window`]; 0 = off).
    pub fn poison_window(mut self, window: u64) -> Self {
        self.config.poison_window = window;
        self
    }

    /// Enables or disables trial-result memoization
    /// (see [`VmConfig::trial_cache`]).
    pub fn trial_cache(mut self, enabled: bool) -> Self {
        self.config.trial_cache = enabled;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> VmConfig {
        self.config
    }
}

/// Which rung of the bailout ladder a compilation attempt ran on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompileStage {
    /// The configured inliner with the full pipeline.
    Full,
    /// Inline-free root-graph compile through the optimization pipeline.
    Degraded,
}

impl std::fmt::Display for CompileStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileStage::Full => write!(f, "full"),
            CompileStage::Degraded => write!(f, "degraded"),
        }
    }
}

impl CompileStage {
    pub(crate) fn bailout_stage(self) -> BailoutStage {
        match self {
            CompileStage::Full => BailoutStage::Full,
            CompileStage::Degraded => BailoutStage::Degraded,
        }
    }

    fn code_tier(self) -> CodeTier {
        match self {
            CompileStage::Full => CodeTier::Full,
            CompileStage::Degraded => CodeTier::Degraded,
        }
    }
}

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

    fn record(&mut self, stage: CompileStage, error: &CompileError) {
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

/// Consolidated compilation telemetry, the one-stop alternative to the
/// individual `Machine` getters (which remain as thin delegates).
#[derive(Clone, Debug, Default)]
pub struct CompilationReport {
    /// Compilation requests the broker handled (each runs the full ladder).
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
    /// Under worker threads concurrent misses on one key may both count,
    /// so treat these as telemetry, not exact dedup counts.
    pub trial_hits: u64,
    /// Deep-inlining-trial cache misses (0 when the cache is disabled).
    pub trial_misses: u64,
}

/// Why execution stopped abnormally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// A runtime trap (the program's own fault).
    Trap(TrapKind),
    /// Call depth exceeded [`VmConfig::max_depth`].
    StackOverflow,
    /// Step budget exceeded [`VmConfig::fuel_steps`].
    OutOfFuel,
    /// The arguments handed to [`Machine::run`] do not fit the entry
    /// method's signature: wrong count, wrong type, or a heap reference
    /// (the heap is fresh per run, so none can be valid). Nothing ran.
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
    /// Cycles of compile work performed for requests applied this run
    /// (wherever the work ran — mutator or worker pool).
    pub compile_cycles: u64,
    /// Cycles the mutator was stalled on compilation this run. With the
    /// synchronous broker (`compile_threads == 0`) or in
    /// [`InstallPolicy::Barrier`] mode this equals `compile_cycles`; in
    /// pipelined mode it is only the portion of compile latency that was
    /// not hidden behind mutator progress (see the virtual-time model in
    /// the broker docs).
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

struct CompiledMethod {
    /// The installed graph with its execution plan. Shared, so a live
    /// activation keeps executing its code safely after an invalidation.
    code: Arc<PlannedGraph>,
    /// Modeled code size; released back to `installed_bytes` on invalidation.
    bytes: u64,
    /// Whether the graph contains a `deopt` terminator, i.e. whether its
    /// activations must run transactionally (journaled) so the trap can
    /// rewind them.
    has_deopt: bool,
    /// Drift monitor armed: the compile speculated on receiver profiles
    /// and the graph still contains fallback virtual dispatches to count.
    drift_armed: bool,
    /// Fault injection: the next compiled entry takes an uncommon trap.
    force_deopt: bool,
    /// Fault injection: the drift monitor trips deterministically once
    /// `drift_min_samples` compiled invocations accrue.
    force_drift: bool,
    /// Compiled activations entered since install.
    invocations: u64,
    /// Fallback virtual dispatches executed inside this compiled graph.
    virtual_dispatches: u64,
    /// Use tick of the last compiled activation (install counts as a use).
    last_used: u64,
    /// Modeled residency benefit frozen at install: profiled hotness × the
    /// interpreter dispatch premium (the `b` of the paper's `b|c` tuples;
    /// `bytes` above is the `c`). Drives the cost-benefit eviction policy
    /// and the admission rule.
    benefit: u64,
    /// Idle past [`VmConfig::cache_age_window`]; cleared on the next use.
    aged: bool,
}

/// Per-method speculation bookkeeping for the storm throttle.
#[derive(Clone, Copy, Debug, Default)]
struct SpecState {
    /// Recompilations granted so far (each install after an invalidation).
    recompiles: u32,
    /// Pinned: compiled without `deopt` fallbacks, drift monitor off.
    /// Terminal — a pinned method never deoptimizes again.
    pinned: bool,
    /// Profile counters at the last invalidation. The backed-off hotness
    /// bar measures *fresh* profile data beyond this baseline, while the
    /// compile itself still sees the full merged (old + fresh) profile.
    base_invocations: u64,
    /// See `base_invocations`.
    base_backedges: u64,
}

/// Per-method code-cache bookkeeping: eviction history and the
/// admission-deferral backoff. Mirrors [`SpecState`]'s baseline scheme —
/// an evicted or deferred method re-promotes on *fresh* hotness only.
#[derive(Clone, Copy, Debug, Default)]
struct CacheState {
    /// Times this method's code has been evicted.
    evictions: u32,
    /// Consecutive admission deferrals since the last successful install;
    /// each one doubles the re-admission bar. Reset when code installs.
    deferrals: u32,
    /// Profile counters at the last eviction or deferral; the
    /// re-admission bar measures fresh hotness beyond this baseline.
    base_invocations: u64,
    /// See `base_invocations`.
    base_backedges: u64,
}

/// What [`Program::resolve`] answers for a receiver class and a selector:
/// the implementation with its [`method_signature`], or none.
type Dispatch = Option<(MethodId, u64)>;

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

/// The virtual machine.
pub struct Machine<'p> {
    program: &'p Program,
    inliner: Box<dyn Inliner + 'p>,
    config: VmConfig,
    profiles: ProfileTable,
    code: MethodMap<CompiledMethod>,
    /// Flat code of source graphs, lowered on a method's first interpreted
    /// activation.
    source_plans: MethodMap<Arc<ExecPlan>>,
    lower_scratch: LowerScratch,
    installed_bytes: u64,
    compilations: u64,
    // Fault containment.
    blacklist: MethodMap<()>,
    bailouts: BailoutCounters,
    bailout_log: Vec<BailoutRecord>,
    fault_plan: FaultPlan,
    compile_requests: u64,
    trace: Arc<dyn TraceSink + 'p>,
    // Background compilation.
    queue: CompileQueue,
    in_flight: MethodMap<()>,
    /// Virtual-time broker model: the cycle at which each worker in the
    /// pool finishes its last assigned request. Indexed 0..compile_threads
    /// (one slot for the synchronous broker).
    worker_free: Vec<u64>,
    /// Virtual cycles accumulated by completed runs; the live clock is
    /// `vbase + exec_cycles + run_stall_cycles`.
    vbase: u64,
    // Deoptimization.
    spec: MethodMap<SpecState>,
    // Bounded code cache.
    /// Monotone use tick: bumped on every compiled activation entry and at
    /// each admission decision. Drives LRU recency, decay idle times and
    /// the aging window. Not observable at `code_cache_budget == 0`.
    use_seq: u64,
    cache: CacheStats,
    cache_state: MethodMap<CacheState>,
    /// Live compiled activations per method. A method with a live compiled
    /// frame is never an eviction victim — installs at inner safepoints
    /// must not pull code out from under an executing activation.
    live_compiled: MethodMap<u32>,
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
    run_compile_cycles: u64,
    run_stall_cycles: u64,
    steps: u64,
    // Lifetime totals.
    total_compile_cycles: u64,
    total_stall_cycles: u64,
    /// Host wall-clock nanoseconds spent in the compile ladder (real time,
    /// telemetry only — never feeds the deterministic cycle model).
    compile_wall_nanos: u64,
    last_compile_stats: Vec<(MethodId, crate::inliner::InlineStats)>,
    /// Shared trial memo table, or `None` when [`VmConfig::trial_cache`]
    /// is off.
    trials: Option<Arc<crate::trials::TrialCache>>,
    // Warmup snapshots.
    /// Every successful install, in installation order — the decision log
    /// a snapshot captures for eager replay.
    decision_log: Vec<DecisionRecord>,
    /// Parallel to `decision_log`: whether the install happened during
    /// snapshot replay. Replayed installs of a later-poisoned method are
    /// excluded from [`Machine::snapshot`] output.
    decision_replayed: Vec<bool>,
    snapshot_stats: SnapshotStats,
    // Quarantine ladder (see [`VmConfig::poison_window`]).
    /// Whether the machine is inside `apply_snapshot`'s eager replay loop;
    /// marks installs as replayed.
    replay_active: bool,
    /// Methods whose replayed code is still inside its probation window —
    /// a deopt here is attributed to the snapshot, not live drift.
    replay_guard: HashSet<MethodId>,
    /// Each method's profile contribution from applied snapshots, kept so
    /// a poisoned decision can roll its seeded counters back out.
    replay_seed: HashMap<MethodId, MethodProfile>,
    /// Decided methods a [`FaultKind::PoisonSnapshot`] entry targets: their
    /// replayed installs take an uncommon trap on first entry.
    replay_poison: HashSet<MethodId>,
    /// Methods whose replayed decision was quarantined as poisoned.
    poisoned_methods: BTreeSet<MethodId>,
}

impl<'p> Machine<'p> {
    /// Creates a VM over `program` driven by `inliner`.
    pub fn new(program: &'p Program, inliner: Box<dyn Inliner + 'p>, config: VmConfig) -> Self {
        Machine {
            program,
            inliner,
            config,
            profiles: ProfileTable::new(),
            code: MethodMap::default(),
            source_plans: MethodMap::default(),
            lower_scratch: LowerScratch::default(),
            installed_bytes: 0,
            compilations: 0,
            blacklist: MethodMap::default(),
            bailouts: BailoutCounters::default(),
            bailout_log: Vec::new(),
            fault_plan: FaultPlan::new(),
            compile_requests: 0,
            trace: Arc::new(NullSink),
            queue: CompileQueue::default(),
            in_flight: MethodMap::default(),
            worker_free: vec![0; config.compile_threads.max(1)],
            vbase: 0,
            spec: MethodMap::default(),
            use_seq: 0,
            cache: CacheStats::default(),
            cache_state: MethodMap::default(),
            live_compiled: MethodMap::default(),
            store: Store::new(program),
            stack: Vec::new(),
            edge_scratch: Vec::new(),
            dispatch: Vec::new(),
            exec_cycles: 0,
            run_compile_cycles: 0,
            run_stall_cycles: 0,
            steps: 0,
            total_compile_cycles: 0,
            total_stall_cycles: 0,
            compile_wall_nanos: 0,
            last_compile_stats: Vec::new(),
            trials: config
                .trial_cache
                .then(|| Arc::new(crate::trials::TrialCache::default())),
            decision_log: Vec::new(),
            decision_replayed: Vec::new(),
            snapshot_stats: SnapshotStats::default(),
            replay_active: false,
            replay_guard: HashSet::new(),
            replay_seed: HashMap::new(),
            replay_poison: HashSet::new(),
            poisoned_methods: BTreeSet::new(),
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
        self.run_compile_cycles = 0;
        self.run_stall_cycles = 0;
        self.steps = 0;
        // Run entry is a safepoint: requests still in flight from the
        // previous run (pipelined mode) install before execution starts.
        self.drain_compile_queue();
        // A run that ended in an error left its frames behind.
        self.stack.clear();
        self.stack.extend(args.iter().map(|v| v.to_word()));
        let word = self.exec_method(entry, args.len(), 0)?;
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

    /// The live virtual clock: cycles accumulated by completed runs plus
    /// this run's execution and stall so far.
    fn vnow(&self) -> u64 {
        self.vbase + self.exec_cycles + self.run_stall_cycles
    }

    /// Total machine-code bytes currently installed.
    pub fn installed_bytes(&self) -> u64 {
        self.installed_bytes
    }

    /// Number of compilations performed.
    pub fn compilations(&self) -> u64 {
        self.compilations
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

    /// Which methods are currently compiled.
    pub fn compiled_methods(&self) -> Vec<MethodId> {
        self.code.keys().collect()
    }

    /// The installed graph of a compiled method, if any.
    pub fn compiled_graph(&self, m: MethodId) -> Option<&Graph> {
        self.code.get(m).map(|cm| &cm.code.graph)
    }

    /// Per-compilation inliner statistics, in compilation order.
    pub fn compile_log(&self) -> &[(MethodId, crate::inliner::InlineStats)] {
        &self.last_compile_stats
    }

    /// Aggregate bailout counters (deterministic for a given run setup).
    pub fn bailouts(&self) -> BailoutCounters {
        self.bailouts
    }

    /// Lifetime code-cache statistics: evictions, admission rejections,
    /// re-tiers, aging events and the installed-bytes high-water mark.
    /// Deterministic for a given run setup, like [`Machine::bailouts`].
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
    }

    /// Every recorded bailout, in occurrence order.
    pub fn bailout_log(&self) -> &[BailoutRecord] {
        &self.bailout_log
    }

    /// Methods permanently pinned to the interpreter, sorted.
    pub fn blacklisted_methods(&self) -> Vec<MethodId> {
        self.blacklist.keys().collect()
    }

    /// Methods pinned to fallback-only code by the storm throttle, sorted.
    pub fn pinned_methods(&self) -> Vec<MethodId> {
        self.spec
            .iter()
            .filter(|(_, s)| s.pinned)
            .map(|(m, _)| m)
            .collect()
    }

    /// Number of compilation requests the broker has handled (each request
    /// runs the whole ladder; blacklisted methods generate no requests).
    pub fn compile_requests(&self) -> u64 {
        self.compile_requests
    }

    /// Consolidated compilation telemetry: everything the individual
    /// getters expose, in one snapshot.
    pub fn report(&self) -> CompilationReport {
        CompilationReport {
            compile_requests: self.compile_requests,
            compilations: self.compilations,
            total_compile_cycles: self.total_compile_cycles,
            total_stall_cycles: self.total_stall_cycles,
            installed_bytes: self.installed_bytes,
            bailouts: self.bailouts,
            cache: self.cache,
            bailout_log: self.bailout_log.clone(),
            compile_log: self.last_compile_stats.clone(),
            blacklisted: self.blacklisted_methods(),
            pinned: self.pinned_methods(),
            snapshot: self.snapshot_stats,
            compile_wall_nanos: self.compile_wall_nanos,
            trial_hits: self.trials.as_ref().map_or(0, |t| t.hits()),
            trial_misses: self.trials.as_ref().map_or(0, |t| t.misses()),
        }
    }

    /// Installs a fault-injection plan (see [`crate::faults`]). Faults are
    /// indexed by compilation request: the Nth request the broker handles.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    /// Routes all subsequent compilations' [`CompileEvent`] streams — the
    /// broker's own tier/bailout/installation events and everything the
    /// inliner and opt pipeline emit — into `sink`.
    pub fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink + 'p>) {
        self.trace = sink;
    }

    // ---- warmup snapshots --------------------------------------------------

    /// Lifetime snapshot counters (loads, graceful fallbacks, replayed
    /// compiles, writes). Deterministic for a given run setup.
    pub fn snapshot_stats(&self) -> SnapshotStats {
        self.snapshot_stats
    }

    /// Every successful install in installation order — the decision log a
    /// warmup snapshot captures.
    pub fn decision_log(&self) -> &[DecisionRecord] {
        &self.decision_log
    }

    /// Methods whose replayed snapshot decision was quarantined as
    /// poisoned (sorted). See [`VmConfig::poison_window`].
    pub fn poisoned_methods(&self) -> Vec<MethodId> {
        self.poisoned_methods.iter().copied().collect()
    }

    /// Captures the machine's learned state — the full profile table plus
    /// the compile decision log — as a [`Snapshot`] fingerprinted against
    /// the running program. Byte-deterministic: two machines that observed
    /// the same run produce identical [`Snapshot::to_bytes`] output
    /// regardless of [`VmConfig::compile_threads`].
    ///
    /// Decisions that were replayed from a snapshot and later quarantined
    /// as poisoned are excluded — a bad snapshot does not propagate its
    /// poison to the next generation. A decision the method *re-earned*
    /// from live traffic after quarantine is included normally.
    pub fn snapshot(&self) -> Snapshot {
        let decisions: Vec<DecisionRecord> = self
            .decision_log
            .iter()
            .enumerate()
            .filter(|(i, d)| {
                !(self.decision_replayed.get(*i).copied().unwrap_or(false)
                    && self.poisoned_methods.contains(&d.method))
            })
            .map(|(_, d)| d.clone())
            .collect();
        Snapshot::capture(
            snapshot::fingerprint(self.program),
            &self.profiles,
            &decisions,
        )
    }

    /// Strictly loads a serialized snapshot: parse, checksum, fingerprint
    /// check, then [`Machine::apply_snapshot`].
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]; the machine state is untouched on error.
    pub fn load_snapshot(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let snap = Snapshot::from_bytes(bytes)?;
        self.apply_snapshot(&snap)
    }

    /// Gracefully loads a serialized snapshot: on any error the machine
    /// counts a fallback, emits [`CompileEvent::SnapshotFallback`] and
    /// proceeds as a cold start — never a panic. Returns whether the
    /// snapshot was applied.
    pub fn load_snapshot_or_cold(&mut self, bytes: &[u8]) -> bool {
        match self.load_snapshot(bytes) {
            Ok(()) => true,
            Err(e) => {
                self.note_snapshot_fallback(&e.to_string());
                false
            }
        }
    }

    /// Gracefully merges N parsed replica snapshots and applies the result:
    /// replicas with a foreign program fingerprint are dropped (each counts
    /// a fallback), the survivors go through [`Snapshot::merge`] with the
    /// machine's own `hotness_threshold` as the support bar, and the merged
    /// snapshot is applied like any other load. Emits
    /// [`CompileEvent::SnapshotMerged`] plus one
    /// [`CompileEvent::DecisionAgedOut`] per decision the support check
    /// dropped. On any failure (zero usable replicas) the machine counts a
    /// fallback and proceeds cold — never a panic. Returns whether a merged
    /// snapshot was applied.
    pub fn load_merged_or_cold(&mut self, replicas: &[Snapshot]) -> bool {
        let expected = snapshot::fingerprint(self.program);
        let mut usable: Vec<Snapshot> = Vec::new();
        for r in replicas {
            if r.fingerprint != expected {
                self.note_snapshot_fallback(&format!(
                    "stale replica: program fingerprint {:016x} expected {:016x}",
                    r.fingerprint, expected
                ));
            } else if let Err(e) = r.check_indices(self.program) {
                self.note_snapshot_fallback(&e.to_string());
            } else {
                usable.push(r.clone());
            }
        }
        if usable.is_empty() {
            if replicas.is_empty() {
                self.note_snapshot_fallback("merge of zero replicas");
            }
            return false;
        }
        let policy = MergePolicy::with_support(self.config.hotness_threshold.max(1));
        let merged = match Snapshot::merge(&usable, &policy) {
            Ok(m) => m,
            Err(e) => {
                self.note_snapshot_fallback(&e.to_string());
                return false;
            }
        };
        let stats = merged.stats;
        self.emit(|| CompileEvent::SnapshotMerged {
            replicas: stats.replicas,
            methods: stats.methods,
            decisions: stats.decisions,
            conflicts: stats.conflicts,
            aged_out: stats.aged_out,
        });
        let required = merged.min_support;
        for (rec, hotness) in &merged.aged_out {
            let (method, hotness) = (rec.method, *hotness);
            self.emit(|| CompileEvent::DecisionAgedOut {
                method,
                hotness,
                required,
            });
        }
        self.snapshot_stats.merged += stats.replicas;
        self.snapshot_stats.aged_out += stats.aged_out;
        match self.apply_snapshot(&merged.snapshot) {
            Ok(()) => true,
            Err(e) => {
                self.note_snapshot_fallback(&e.to_string());
                false
            }
        }
    }

    /// Applies a parsed snapshot before the first run: verifies the program
    /// fingerprint, merges the snapshot's profiles into the live table, and
    /// — under [`ReplayMode::Eager`] — compiles the decision log's method
    /// set up front through the normal broker/ladder/cache-admission path
    /// (budgets, verification, admission control and fault injection all
    /// still apply). The replay's compile latency is folded into the
    /// virtual clock as pre-run warmup, so measured iterations start
    /// steady.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::StaleProgram`] when the fingerprint does not match
    /// the running program, [`SnapshotError::Corrupt`] when a profile
    /// record names a method, block, callsite or class the program does
    /// not have; profiles are untouched in both cases.
    pub fn apply_snapshot(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        let expected = snapshot::fingerprint(self.program);
        if snap.fingerprint != expected {
            return Err(SnapshotError::StaleProgram {
                expected,
                found: snap.fingerprint,
            });
        }
        snap.check_indices(self.program)?;
        let table = snap.profile_table();
        self.snapshot_stats.seeded_methods += table.len() as u64;
        // Remember each method's seeded contribution so the quarantine
        // ladder can roll it back if the decision turns out poisoned.
        if self.config.poison_window > 0 {
            for (m, mp) in table.iter() {
                self.replay_seed.entry(m).or_default().add(mp);
            }
        }
        self.profiles.merge(&table);
        self.snapshot_stats.loaded += 1;
        let (methods, decisions, mode) = (
            snap.methods.len() as u64,
            snap.decisions.len() as u64,
            self.config.replay,
        );
        self.emit(|| CompileEvent::SnapshotLoaded {
            methods,
            decisions,
            mode: mode.label().to_string(),
        });
        if mode == ReplayMode::Eager {
            // Injected snapshot poison: `decision_idx` indexes the decided-
            // method order about to be replayed; the targeted installs take
            // an uncommon trap on first entry.
            let decided = snap.decided_methods();
            let poisoned_idx = self.fault_plan.poisoned_decisions();
            for &idx in &poisoned_idx {
                if let Some(&m) = decided.get(idx as usize) {
                    self.replay_poison.insert(m);
                }
            }
            // One request per decided method, enqueued and drained
            // sequentially — exactly the Barrier-mode hotness trigger, so
            // stall accounting is identical across worker-pool sizes.
            self.replay_active = true;
            for m in decided {
                if self.code.contains(m) || self.blacklist.contains(m) {
                    continue;
                }
                if self.compile(m) {
                    self.snapshot_stats.replayed_compiles += 1;
                }
            }
            self.replay_active = false;
            // The replay is pre-run warmup: fold its stall into the virtual
            // clock base so the first measured run starts clean (and the
            // worker-pool timeline stays monotone).
            self.vbase += self.exec_cycles + self.run_stall_cycles;
            self.exec_cycles = 0;
            self.run_compile_cycles = 0;
            self.run_stall_cycles = 0;
        }
        Ok(())
    }

    /// Counts a graceful cold-start fallback (snapshot unreadable, stale or
    /// corrupt) and emits [`CompileEvent::SnapshotFallback`]. Called by the
    /// session layers for store-read failures; [`Machine::load_snapshot_or_cold`]
    /// calls it for parse/fingerprint failures.
    pub fn note_snapshot_fallback(&mut self, reason: &str) {
        self.snapshot_stats.fallbacks += 1;
        self.emit(|| CompileEvent::SnapshotFallback {
            reason: reason.to_string(),
        });
    }

    /// Counts a successful snapshot write and emits
    /// [`CompileEvent::SnapshotWritten`].
    pub fn note_snapshot_written(&mut self, methods: u64, decisions: u64, bytes: u64) {
        self.snapshot_stats.written += 1;
        self.emit(|| CompileEvent::SnapshotWritten {
            methods,
            decisions,
            bytes,
        });
    }

    /// Counts a snapshot write the store rejected (graceful, like every
    /// other snapshot failure).
    pub fn note_snapshot_write_failed(&mut self) {
        self.snapshot_stats.write_failures += 1;
    }

    /// Force-compiles a method immediately (used by experiments that want
    /// a deterministic compile point). Returns whether code was installed;
    /// `false` means the ladder exhausted and the method is blacklisted.
    /// Drains the whole queue, so any pipelined in-flight requests install
    /// here too.
    pub fn compile_now(&mut self, method: MethodId) -> bool {
        if self.code.contains(method) {
            return true;
        }
        if self.blacklist.contains(method) {
            return false;
        }
        self.compile(method)
    }

    /// Removes a method's installed code, releasing its bytes and starting
    /// a fresh profiling baseline — the deterministic external invalidation
    /// point for tests and experiments. No-op when the method has no
    /// installed code.
    pub fn invalidate_code(&mut self, method: MethodId) {
        self.invalidate(method);
    }

    /// Enqueues a compilation request for `method` without draining the
    /// queue. Returns `false` (and enqueues nothing) when the method is
    /// already compiled, blacklisted, or has a request in flight — the
    /// guards that make double-installs impossible. The request snapshots
    /// fuel, fault and speculation; in [`InstallPolicy::Safepoint`] mode it
    /// also snapshots the profile table.
    pub fn enqueue_compile(&mut self, method: MethodId) -> bool {
        if self.code.contains(method)
            || self.blacklist.contains(method)
            || self.in_flight.contains(method)
        {
            return false;
        }
        let id = self.compile_requests;
        self.compile_requests += 1;
        let fault = self.fault_plan.fault_at(id);

        // Storm throttle: a method that deoptimized past the recompile cap
        // is pinned — this compile and every later one emit fallback-only
        // (never `deopt`) code and the drift monitor stays off. Decided at
        // enqueue (same point as the synchronous broker: request counted,
        // compilation not yet started).
        if self.config.deopt {
            let pin_now = self
                .spec
                .get(method)
                .is_some_and(|s| !s.pinned && s.recompiles >= self.config.max_recompiles);
            if pin_now {
                self.spec.get_mut(method).expect("just probed").pinned = true;
                self.bailouts.pinned += 1;
                self.emit(|| CompileEvent::SpeculationPinned { method });
            }
        }
        let profiles = match self.config.install_policy {
            // Barrier mode drains before the mutator runs another
            // instruction, so the live table is already the enqueue-time
            // view — no clone needed.
            InstallPolicy::Barrier => None,
            InstallPolicy::Safepoint => Some(self.profiles.clone()),
        };
        self.queue.push(CompileRequest {
            id,
            method,
            fuel_limit: self.config.compile_fuel,
            fault,
            speculation: self.speculation_for(method),
            profiles,
            enqueued_at: self.vnow(),
        });
        self.in_flight.insert(method, ());
        true
    }

    /// Drains the compile queue: runs every pending request through the
    /// worker pool (or inline for a pool size of 0) and applies the
    /// responses in request-id order — counters, wasted-work charges,
    /// trace-buffer replay, then install or blacklist.
    pub fn drain_compile_queue(&mut self) {
        if self.queue.is_empty() {
            return;
        }
        let requests = self.queue.take_all();
        let responses = broker::process(
            self.program,
            &*self.inliner,
            &self.profiles,
            requests,
            self.config.compile_threads,
            self.trace.enabled(),
            self.trials.as_deref(),
        );
        for resp in responses {
            self.compile_wall_nanos += resp.wall_nanos;
            self.charge_response(&resp);
            self.apply_response(resp);
        }
    }

    // ---- internals ---------------------------------------------------------

    fn hot(&self, method: MethodId) -> bool {
        let inv = self.profiles.invocations(method);
        let be = self.profiles.backedges(method);
        let hotness = inv + be / 4;
        let spec_ok = match self.spec.get(method) {
            // A previously invalidated method re-promotes on *fresh* profile
            // data only, against an exponentially backed-off bar — a method
            // that keeps deoptimizing has to prove itself harder each time
            // (storm throttling), while the compile still sees the merged
            // profile.
            Some(s) => {
                let base = s.base_invocations + s.base_backedges / 4;
                hotness.saturating_sub(base) >= self.recompile_bar(s.recompiles)
            }
            None => hotness >= self.config.hotness_threshold,
        };
        if !spec_ok {
            return false;
        }
        // The code-cache gate, populated only by evictions and admission
        // deferrals (so it never fires at budget 0): an evicted method
        // re-tiers through the normal hotness path — fresh hotness above
        // the eviction-time baseline at the plain threshold — while each
        // admission deferral doubles the bar, throttling a method the
        // cache keeps refusing.
        match self.cache_state.get(method) {
            Some(c) => {
                let base = c.base_invocations + c.base_backedges / 4;
                hotness.saturating_sub(base) >= self.readmission_bar(c.deferrals)
            }
            None => true,
        }
    }

    /// The backed-off hotness bar after a method's Nth admission deferral:
    /// `hotness_threshold * 2^n`, saturating — the cache-pressure analogue
    /// of [`Machine::recompile_bar`].
    fn readmission_bar(&self, deferrals: u32) -> u64 {
        self.config
            .hotness_threshold
            .saturating_mul(1u64 << deferrals.min(20))
    }

    /// The backed-off hotness bar for a method's Nth recompilation:
    /// `hotness_threshold * 2^n`, saturating.
    fn recompile_bar(&self, recompiles: u32) -> u64 {
        self.config
            .hotness_threshold
            .saturating_mul(1u64 << recompiles.min(20))
    }

    /// Emits a broker-level trace event, building it only if the sink is
    /// enabled.
    fn emit(&self, event: impl FnOnce() -> CompileEvent) {
        if self.trace.enabled() {
            self.trace.emit(event());
        }
    }

    /// One compilation request, enqueued and drained to completion — the
    /// synchronous entry point the `Barrier` install policy uses at the
    /// hotness trigger. Returns whether code was installed; on `false` the
    /// method is blacklisted and will never be attempted again.
    fn compile(&mut self, method: MethodId) -> bool {
        if !self.enqueue_compile(method) {
            return self.code.contains(method);
        }
        self.drain_compile_queue();
        self.code.contains(method)
    }

    /// The speculation policy handed to a compilation of `method`.
    fn speculation_for(&self, method: MethodId) -> Speculation {
        let pinned = self.spec.get(method).is_some_and(|s| s.pinned);
        Speculation {
            allow_deopt: self.config.deopt && !pinned,
            confidence: self.config.deopt_confidence,
        }
    }

    /// The simulated compile cycles one response cost: wasted work from
    /// failed rungs plus (on success) the installed graph's compile cost.
    /// `compile_cost` is linear in work nodes, so charging the aggregate
    /// here equals the synchronous broker's incremental charges exactly.
    fn response_cycles(&self, resp: &CompileResponse) -> u64 {
        let mut cycles = self.config.cost.compile_cost(resp.wasted_work as usize);
        if let Some(pkg) = &resp.package {
            cycles += self.config.cost.compile_cost(pkg.work_nodes);
        }
        cycles
    }

    /// Charges a response's compile cycles to the accounting counters and
    /// computes the mutator-visible stall it caused. With a worker pool the
    /// compile ran in the background from `enqueued_at` on the earliest-free
    /// worker, so the mutator only stalls for the portion not yet finished
    /// at the install safepoint; with zero threads the mutator did the work
    /// itself and stalls for all of it. In `Barrier` mode every drain holds
    /// exactly one request whose enqueue time is "now", so both formulas
    /// yield `stall == cycles` and the policies stay cycle-identical.
    fn charge_response(&mut self, resp: &CompileResponse) {
        let cycles = self.response_cycles(resp);
        self.run_compile_cycles += cycles;
        self.total_compile_cycles += cycles;
        let stall = if self.config.compile_threads == 0 {
            cycles
        } else {
            let (w, free_at) = self
                .worker_free
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|&(_, free)| free)
                .expect("worker_free is never empty");
            let start = resp.enqueued_at.max(free_at);
            let finish = start + cycles;
            self.worker_free[w] = finish;
            finish.saturating_sub(self.vnow())
        };
        self.run_stall_cycles += stall;
        self.total_stall_cycles += stall;
    }

    /// Applies one compile response on the mutator: replays the worker's
    /// buffered trace events in order, records failed-rung bailouts, then
    /// installs the surviving package or blacklists the method.
    fn apply_response(&mut self, resp: CompileResponse) {
        self.in_flight.remove(resp.method);
        let method = resp.method;
        if self.trace.enabled() {
            for event in resp.events {
                self.trace.emit(event);
            }
        }
        for (stage, error) in resp.failures {
            self.bailouts.record(stage, &error);
            self.bailout_log.push(BailoutRecord {
                method,
                stage,
                error,
            });
        }
        match resp.package {
            Some(pkg) => {
                // Admission control can still refuse the package, so the
                // queue's install counter reflects the actual outcome.
                let installed = self.install_package(method, pkg, resp.fault);
                self.queue.note_completed(installed);
            }
            None => {
                self.queue.note_completed(false);
                self.blacklist.insert(method, ());
                self.bailouts.blacklisted += 1;
                self.emit(|| CompileEvent::TierTransition {
                    method,
                    tier: CodeTier::Interpreter,
                });
            }
        }
    }

    /// Installs a verified package into the code cache: budget admission,
    /// cache accounting, speculation bookkeeping, and the tier-transition /
    /// install events. The graph was already verified on the worker —
    /// verification is part of the ladder, so a rejected graph never
    /// reaches this point. Returns whether code was actually installed;
    /// `false` means admission control deferred the compile (the method is
    /// *not* blacklisted — it can re-heat through the backed-off bar).
    ///
    /// This is also where Safepoint-mode installs re-check admission: the
    /// cache state is read here, at the install point on the mutator in
    /// request-id order, never at enqueue — so in-flight compilations can
    /// never race an eviction, and the decision stream is byte-identical
    /// across worker-pool sizes.
    fn install_package(
        &mut self,
        method: MethodId,
        pkg: InstallPackage,
        fault: Option<FaultKind>,
    ) -> bool {
        debug_assert!(
            !self.code.contains(method),
            "double-install of {method:?}: the in-flight guard should make this impossible"
        );
        // Defensive in release builds: any stale code is funneled through
        // `invalidate` — and thus the audited accounting helpers — so
        // every byte is released exactly once before the new package's
        // bytes are added. Replacing code in place would drift
        // `installed_bytes`.
        self.invalidate(method);
        let mut pkg = pkg;
        if self.config.code_cache_budget > 0 {
            if let Err(reason) = self.make_room(method, &pkg) {
                // A full-tier package that cannot be admitted gets one
                // shot at the inline-free degraded tier — a smaller
                // package that may still clear admission — before the
                // compile is deferred outright. This is the degradation
                // ladder's cache-pressure rung.
                let retry = if pkg.stage == CompileStage::Full {
                    self.degraded_retry(method)
                } else {
                    None
                };
                match retry {
                    Some(smaller) if self.make_room(method, &smaller).is_ok() => {
                        self.cache.degraded_admissions += 1;
                        pkg = smaller;
                    }
                    _ => {
                        let bytes = self.config.cost.code_bytes(pkg.graph.size());
                        return self.defer_install(method, bytes, reason);
                    }
                }
            }
        }
        let InstallPackage {
            stage,
            graph,
            work_nodes,
            stats,
        } = pkg;
        let graph_size = graph.size();
        let bytes = self.config.cost.code_bytes(graph_size);
        self.account_install(bytes);
        self.compilations += 1;
        self.last_compile_stats.push((method, stats));
        // Decision log for warmup snapshots: the plan hash fingerprints the
        // installed graph's printed text, so replayed runs can be checked
        // against the decisions they were seeded from. Hashed here, while
        // the graph is still unwrapped.
        self.decision_log.push(DecisionRecord {
            method,
            tier: stage,
            plan_hash: snapshot::fnv1a(
                incline_ir::print::graph_str(self.program, &graph).as_bytes(),
            ),
            speculative_sites: stats.speculative_sites,
        });
        self.decision_replayed.push(self.replay_active);
        let pinned = self.spec.get(method).is_some_and(|s| s.pinned);
        let code = PlannedGraph::compiled(
            &mut self.lower_scratch,
            self.program,
            self.program.method(method),
            graph,
            &self.config.cost,
        );
        let has_deopt = code.plan.has_deopt;
        let has_virtual = code.plan.has_virtual_call;
        // Snapshot poison (quarantine ladder): a replayed install targeted
        // by a `PoisonSnapshot` fault traps on first entry, like ForceDeopt.
        let poisoned = self.replay_active && self.replay_poison.contains(&method);
        // The injected speculation faults are ignored for pinned methods —
        // pinned code must never deoptimize, even under fault injection.
        let force_deopt =
            self.config.deopt && !pinned && (fault == Some(FaultKind::ForceDeopt) || poisoned);
        let force_drift =
            self.config.deopt && !pinned && fault == Some(FaultKind::ForceGuardFailure);
        let drift_armed = self.config.deopt
            && !pinned
            && (force_drift || (stats.speculative_sites > 0 && has_virtual));
        let hotness = self.profiles.invocations(method) + self.profiles.backedges(method) / 4;
        self.code.insert(
            method,
            CompiledMethod {
                code: Arc::new(code),
                bytes,
                has_deopt,
                drift_armed,
                force_deopt,
                force_drift,
                invocations: 0,
                virtual_dispatches: 0,
                last_used: self.use_seq,
                benefit: self.modeled_benefit(hotness),
                aged: false,
            },
        );
        self.emit(|| CompileEvent::TierTransition {
            method,
            tier: stage.code_tier(),
        });
        self.emit(|| CompileEvent::CodeInstalled {
            method,
            bytes,
            graph_size,
            work_nodes: work_nodes as u64,
        });
        // A successful install clears the admission backoff, and a method
        // with eviction history has observably re-tiered.
        if let Some(c) = self.cache_state.get_mut(method) {
            c.deferrals = 0;
            if c.evictions > 0 {
                let evictions = c.evictions;
                self.cache.re_tiered += 1;
                self.emit(|| CompileEvent::ReTiered { method, evictions });
            }
        }
        // Every install after an invalidation is a recompilation against
        // the merged profile; the bar it cleared is recorded for tooling.
        if self.config.deopt && self.spec.contains(method) {
            let bar = {
                let s = self.spec.get_mut(method).expect("just probed");
                let bar = s.recompiles;
                s.recompiles += 1;
                bar
            };
            let threshold = self.recompile_bar(bar);
            let recompiles = bar + 1;
            self.bailouts.recompiles += 1;
            self.emit(|| CompileEvent::Recompiled {
                method,
                recompiles,
                threshold,
            });
        }
        // A replayed install starts its quarantine probation: a deopt
        // within the first `poison_window` activations is attributed to
        // the snapshot, not live drift.
        if self.replay_active && self.config.poison_window > 0 {
            self.replay_guard.insert(method);
        }
        // Injected cache fault: throw the fresh install straight back out,
        // as if pressure had picked it — exercises the evict → reprofile →
        // re-tier cycle deterministically, with or without a real budget.
        if fault == Some(FaultKind::ForceEvict) {
            self.evict(method, "forced", true);
        }
        true
    }

    /// Removes a method's installed code, releasing its bytes back to the
    /// cache accounting, and starts a fresh profiling baseline for the
    /// backed-off recompilation bar. No-op when the code is already gone
    /// (a nested activation of the same method may have invalidated it
    /// first — outer activations keep executing their `Arc` of the old
    /// graph safely).
    fn invalidate(&mut self, method: MethodId) {
        let Some(cm) = self.code.remove(method) else {
            return;
        };
        // The replayed code is gone; whatever installs next was decided
        // live, so probation ends here.
        self.replay_guard.remove(&method);
        self.account_release(cm.bytes);
        self.bailouts.invalidations += 1;
        let inv = self.profiles.invocations(method);
        let be = self.profiles.backedges(method);
        let s = self.spec.get_or_default(method);
        s.base_invocations = inv;
        s.base_backedges = be;
        let recompiles = s.recompiles;
        let bytes = cm.bytes;
        self.emit(|| CompileEvent::CodeInvalidated {
            method,
            bytes,
            recompiles,
        });
        self.emit(|| CompileEvent::TierTransition {
            method,
            tier: CodeTier::Interpreter,
        });
    }

    // ---- bounded code cache ------------------------------------------------

    /// The audited install side of the cache accounting. Every byte that
    /// enters `installed_bytes` flows through here (and leaves through
    /// [`Machine::account_release`]), so the budget invariant and the
    /// high-water mark are maintained at a single point.
    fn account_install(&mut self, bytes: u64) {
        self.installed_bytes += bytes;
        if self.installed_bytes > self.cache.high_water_bytes {
            self.cache.high_water_bytes = self.installed_bytes;
        }
        debug_assert!(
            self.config.code_cache_budget == 0
                || self.installed_bytes <= self.config.code_cache_budget,
            "code-cache budget exceeded: {} installed > {} budget",
            self.installed_bytes,
            self.config.code_cache_budget
        );
    }

    /// The audited release side of the cache accounting: invalidation and
    /// eviction both return bytes through here, so double-release (the
    /// classic accounting-drift hazard) trips immediately in debug builds
    /// instead of silently skewing the budget.
    fn account_release(&mut self, bytes: u64) {
        debug_assert!(
            self.installed_bytes >= bytes,
            "code-cache accounting drift: releasing {bytes} bytes with only {} installed",
            self.installed_bytes
        );
        self.installed_bytes = self.installed_bytes.saturating_sub(bytes);
    }

    /// Modeled benefit of keeping `method` compiled, given its profiled
    /// hotness: every profiled activation saved the interpreter dispatch
    /// premium. Deliberately *not* scaled by graph size — benefit is the
    /// `b` of the paper's `b|c` tuple and bytes are the `c`, so the
    /// cost-benefit density `b/c` stays meaningful.
    fn modeled_benefit(&self, hotness: u64) -> u64 {
        hotness.saturating_mul(self.config.cost.interp_dispatch)
    }

    /// Makes room in the budgeted cache for `pkg`, evicting victims in
    /// policy order if necessary. `Err` carries the admission-rejection
    /// reason: `no_evictable_victim` (everything resident is pinned,
    /// mid-activation, or simply smaller in total than the shortfall —
    /// which includes any package bigger than the whole budget) or
    /// `benefit_below_bar` (the candidate does not strictly beat the
    /// cheapest victim under the configured policy).
    fn make_room(&mut self, method: MethodId, pkg: &InstallPackage) -> Result<(), &'static str> {
        let budget = self.config.code_cache_budget;
        let bytes = self.config.cost.code_bytes(pkg.graph.size());
        let free = budget.saturating_sub(self.installed_bytes);
        if bytes <= free {
            return Ok(());
        }
        let need = bytes - free;
        self.age_scan();
        let entries: Vec<CacheEntry> = self
            .code
            .iter()
            .filter(|&(m, _)| m != method && self.evictable(m))
            .map(|(m, cm)| CacheEntry {
                method: m,
                last_used: cm.last_used,
                uses: cm.invocations,
                benefit: cm.benefit,
                bytes: cm.bytes,
                aged: cm.aged,
            })
            .collect();
        if entries.iter().map(|e| e.bytes).sum::<u64>() < need {
            return Err("no_evictable_victim");
        }
        // The install point is a use tick of its own, taken *before*
        // scoring, so an admitted candidate is strictly newer than every
        // resident — under LRU a hot re-arrival always beats the stalest
        // victim rather than tying with it.
        self.use_seq += 1;
        let now = self.use_seq;
        let hotness = self.profiles.invocations(method) + self.profiles.backedges(method) / 4;
        let candidate = CacheEntry {
            method,
            last_used: now,
            uses: hotness,
            benefit: self.modeled_benefit(hotness),
            bytes,
            aged: false,
        };
        let policy = self.config.eviction_policy;
        let order = cache::victim_order(policy, &entries, now);
        if !cache::admits(policy, &candidate, &order[0], now) {
            return Err("benefit_below_bar");
        }
        let mut freed = 0u64;
        for e in order {
            if freed >= need {
                break;
            }
            freed += e.bytes;
            self.evict(e.method, policy.label(), false);
        }
        Ok(())
    }

    /// Evicts `method`'s installed code: releases its bytes, records a
    /// fresh profiling baseline so re-admission requires genuinely new
    /// heat, and emits the eviction events. Unlike [`Machine::invalidate`]
    /// this is *not* a speculation event — `spec` state and the
    /// invalidation counters are untouched, so eviction never burns a
    /// recompile attempt.
    fn evict(&mut self, method: MethodId, policy: &'static str, forced: bool) {
        let Some(cm) = self.code.remove(method) else {
            return;
        };
        // Evicted replayed code ends its probation like any other exit.
        self.replay_guard.remove(&method);
        self.account_release(cm.bytes);
        self.cache.evictions += 1;
        if forced {
            self.cache.forced_evictions += 1;
        }
        let inv = self.profiles.invocations(method);
        let be = self.profiles.backedges(method);
        let c = self.cache_state.get_or_default(method);
        c.evictions += 1;
        c.base_invocations = inv;
        c.base_backedges = be;
        let bytes = cm.bytes;
        let resident_uses = cm.invocations;
        self.emit(|| CompileEvent::CodeEvicted {
            method,
            bytes,
            policy: policy.to_string(),
            resident_uses,
        });
        self.emit(|| CompileEvent::TierTransition {
            method,
            tier: CodeTier::Interpreter,
        });
    }

    /// Graceful rejection: the compile is dropped (not blacklisted), the
    /// method goes back to the interpreter, and its re-admission bar backs
    /// off exponentially — the cache-pressure analogue of the recompile
    /// storm throttle. Returns `false` for `install_package`.
    fn defer_install(&mut self, method: MethodId, bytes: u64, reason: &'static str) -> bool {
        self.cache.admission_rejections += 1;
        let inv = self.profiles.invocations(method);
        let be = self.profiles.backedges(method);
        let c = self.cache_state.get_or_default(method);
        c.deferrals = c.deferrals.saturating_add(1);
        c.base_invocations = inv;
        c.base_backedges = be;
        self.emit(|| CompileEvent::AdmissionRejected {
            method,
            bytes,
            reason: reason.to_string(),
        });
        self.emit(|| CompileEvent::TierTransition {
            method,
            tier: CodeTier::Interpreter,
        });
        false
    }

    /// Recompiles `method` on the inline-free degraded tier at the install
    /// safepoint, for the admission retry. This is mutator work (the
    /// worker already finished its full-tier package), so its compile cost
    /// is charged entirely as stall — no worker-pool overlap.
    fn degraded_retry(&mut self, method: MethodId) -> Option<InstallPackage> {
        let trace = Arc::clone(&self.trace);
        let sink: &dyn TraceSink = if trace.enabled() { &*trace } else { &NullSink };
        let pkg = broker::degraded_package(self.program, method, self.config.compile_fuel, sink)?;
        let cycles = self.config.cost.compile_cost(pkg.work_nodes);
        self.run_compile_cycles += cycles;
        self.total_compile_cycles += cycles;
        self.run_stall_cycles += cycles;
        self.total_stall_cycles += cycles;
        Some(pkg)
    }

    /// Marks residents idle past [`VmConfig::cache_age_window`] use ticks
    /// as aged, flooring their eviction score under every policy. Runs on
    /// demand when the cache is under pressure; methods un-age on their
    /// next compiled activation.
    fn age_scan(&mut self) {
        let window = self.config.cache_age_window;
        if window == 0 {
            return;
        }
        let newly_aged: Vec<(MethodId, u64)> = self
            .code
            .iter()
            .filter(|(_, cm)| !cm.aged)
            .filter_map(|(m, cm)| {
                let idle = self.use_seq.saturating_sub(cm.last_used);
                (idle >= window).then_some((m, idle))
            })
            .collect();
        for (m, idle) in newly_aged {
            if let Some(cm) = self.code.get_mut(m) {
                cm.aged = true;
            }
            self.cache.aged += 1;
            self.emit(|| CompileEvent::MethodAged { method: m, idle });
        }
    }

    /// Whether `method`'s code may be evicted right now: storm-pinned
    /// methods keep their fallback-only code (evicting it would re-open
    /// the recompile storm the pin closed), and a method with a live
    /// compiled activation on the stack is untouchable mid-flight.
    fn evictable(&self, method: MethodId) -> bool {
        !self.spec.get(method).is_some_and(|s| s.pinned)
            && self.live_compiled.get(method).copied().unwrap_or(0) == 0
    }

    /// Brackets a compiled activation for the eviction guard.
    fn note_compiled_entry(&mut self, method: MethodId) {
        *self.live_compiled.get_or_default(method) += 1;
    }

    fn note_compiled_exit(&mut self, method: MethodId) {
        let Some(n) = self.live_compiled.get_mut(method) else {
            debug_assert!(false, "compiled-frame exit without a matching entry");
            return;
        };
        *n -= 1;
    }

    /// Whether the drift monitor wants to invalidate `method` before its
    /// next compiled activation: armed speculated code whose fallback
    /// virtual-dispatch rate exceeds the configured bound.
    fn drift_tripped(&self, method: MethodId) -> bool {
        if !self.config.deopt {
            return false;
        }
        let Some(cm) = self.code.get(method) else {
            return false;
        };
        if !cm.drift_armed || cm.invocations < self.config.drift_min_samples {
            return false;
        }
        if cm.force_drift {
            return true;
        }
        cm.virtual_dispatches as f64 > self.config.drift_rate * cm.invocations as f64
    }

    /// [`Program::resolve`], memoized: the program's method tables are
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
        if let Some(plan) = self.source_plans.get(method) {
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
        self.source_plans.insert(method, Arc::clone(&plan));
        plan
    }

    /// Runs one activation of `method`, whose `argc` arguments the caller
    /// pushed on top of the register stack; they are still there on return.
    /// Returns the returned register word, 0 from a `void` method.
    fn exec_method(
        &mut self,
        method: MethodId,
        argc: usize,
        depth: usize,
    ) -> Result<u64, ExecError> {
        if depth > self.config.max_depth {
            return Err(ExecError::StackOverflow);
        }
        // Activation entry is a safepoint: a method with a request in
        // flight installs (or blacklists) here, so pipelined compilation
        // tiers up on the next invocation after completion.
        if !self.in_flight.is_empty() && self.in_flight.contains(method) {
            self.drain_compile_queue();
        }
        if self.code.contains(method) {
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
            && !self.blacklist.contains(method)
            && !self.in_flight.contains(method)
            && self.hot(method)
        {
            match self.config.install_policy {
                // Barrier: compile at the trigger and run the compiled
                // code immediately — the classic synchronous behavior.
                InstallPolicy::Barrier => {
                    if self.compile(method) {
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
    /// budget in `VmConfig::max_depth` is calibrated to that).
    #[inline(always)]
    fn exec_interpreted(
        &mut self,
        method: MethodId,
        argc: usize,
        depth: usize,
    ) -> Result<u64, ExecError> {
        let plan = self.source_plan(method);
        match self.exec_graph(method, &plan, Tier::Interpreted, argc, depth)? {
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
            .code
            .get_mut(method)
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
        self.note_compiled_entry(method);
        let flow = self.exec_graph(method, &code.plan, Tier::Compiled, argc, depth);
        self.note_compiled_exit(method);
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

    /// Common deoptimization bookkeeping: counters, events, invalidation,
    /// and the profiled-invocation record for the interpreted replay. A
    /// deopt inside a replayed decision's probation window takes the
    /// quarantine path instead of the speculation path.
    fn deoptimize(&mut self, method: MethodId, reason: &str) -> CompiledExit {
        self.bailouts.deopts += 1;
        self.emit(|| CompileEvent::Deoptimized {
            method,
            reason: reason.to_string(),
        });
        if !self.try_quarantine(method) {
            self.invalidate(method);
        }
        self.profiles.record_invocation(method);
        CompiledExit::Deoptimized
    }

    /// Quarantine ladder: attributes a deopt to the snapshot it was
    /// replayed from if the method's replayed code is still inside its
    /// probation window. A poisoned decision is handled evict-style — the
    /// code is dropped without creating speculation state, so the recompile
    /// budget is never burned and the method cannot be pinned by a bad
    /// snapshot — its seeded profile contribution is rolled back so the
    /// method re-earns its hotness from live traffic (a fully poisoned
    /// snapshot thereby converges to a cold start), and the decision is
    /// excluded from future [`Machine::snapshot`] output. Returns whether
    /// the quarantine fired; `false` means the ordinary
    /// invalidate → reprofile → recompile path should run.
    fn try_quarantine(&mut self, method: MethodId) -> bool {
        if !self.replay_guard.contains(&method) {
            return false;
        }
        // Any deopt settles the probation one way or the other.
        self.replay_guard.remove(&method);
        let window = self.config.poison_window;
        let Some(cm) = self.code.get(method) else {
            return false;
        };
        if window == 0 || cm.invocations > window {
            // Survived probation: this deopt is live drift, not poison.
            return false;
        }
        let activations = cm.invocations;
        let cm = self.code.remove(method).expect("probed just above");
        self.account_release(cm.bytes);
        if let Some(seed) = self.replay_seed.remove(&method) {
            self.profiles.subtract(method, &seed);
        }
        self.poisoned_methods.insert(method);
        self.snapshot_stats.poisoned += 1;
        self.emit(|| CompileEvent::DecisionPoisoned {
            method,
            activations,
            window,
        });
        self.emit(|| CompileEvent::TierTransition {
            method,
            tier: CodeTier::Interpreter,
        });
        true
    }

    /// Runs one activation of the flat code `plan` in `tier`. The `argc`
    /// arguments are the top of the register stack; the activation's frame
    /// goes above them and is popped again unless the activation ends in
    /// an error (which ends the run).
    fn exec_graph(
        &mut self,
        method: MethodId,
        plan: &ExecPlan,
        tier: Tier,
        argc: usize,
        depth: usize,
    ) -> Result<Flow, ExecError> {
        let profiling = tier == Tier::Interpreted;
        let program = self.program;
        let cost = self.config.cost;
        // What the interpreter pays on top of the compiled tier, per
        // instruction and per edge.
        let dispatch = if profiling { cost.interp_dispatch } else { 0 };
        let base = self.stack.len();
        let frame = base..base + plan.frame;
        self.stack.resize(frame.end, 0);
        // The entry parameters are slots `0..argc`. Copied, not aliased: an
        // entry block that is a loop header rebinds them, and a deoptimized
        // activation is re-run from the arguments below its frame.
        self.stack.copy_within(base - argc..base, base);
        // Charges one instruction the per-operation way: a step of fuel,
        // then its tier cost under the code size installed right now.
        macro_rules! charge_op {
            ($base_cost:expr) => {
                self.steps += 1;
                if self.steps > self.config.fuel_steps {
                    return Err(ExecError::OutOfFuel);
                }
                self.exec_cycles += cost.tier_cost($base_cost, tier, self.installed_bytes);
            };
        }
        let mut block = &plan.blocks[0];

        loop {
            if profiling {
                self.profiles.record_block(method, block.id);
            }
            let mut calls = block.calls.of(&plan.calls).iter();
            loop {
                // Every run but a block's last ends at a call.
                let call = calls.next();
                let run = call.map_or(&block.tail, |call| &call.before);
                // A run's cost is the sum of its instructions' costs when
                // those are linear in the base cost: always interpreted,
                // and compiled while the code cache fits the i-cache (the
                // scaled cost rounds down per instruction). And the run
                // may only be charged at once if it cannot run out of fuel
                // part-way, so a trap inside it still comes before
                // `OutOfFuel` exactly when it does instruction by
                // instruction.
                let linear = profiling || self.installed_bytes <= cost.icache_capacity;
                let len = u64::from(run.insts.len());
                let summed = linear && self.steps + len <= self.config.fuel_steps;
                if summed {
                    self.steps += len;
                    self.exec_cycles += run.base_cost + len * dispatch;
                }
                let regs = &mut self.stack[frame.clone()];
                for inst in run.insts.of(&plan.insts) {
                    if !summed {
                        charge_op!(u64::from(inst.base_cost));
                    }
                    if let Err(trap) = self.store.exec(program, regs, inst) {
                        if summed {
                            // Take back what the run charged for the
                            // instructions after the trap: steps and cycles
                            // end up exactly where charging one instruction
                            // at a time leaves them.
                            let rest = u64::from(inst.rest_len);
                            self.steps -= rest;
                            self.exec_cycles -= inst.rest_cost + rest * dispatch;
                        }
                        return Err(ExecError::Trap(trap));
                    }
                }
                let Some(call) = call else {
                    break;
                };
                charge_op!(call.base_cost);
                // The arguments go on top of the stack, where the callee's
                // activation finds them.
                let callee_args = call.args.of(&plan.slots);
                for &a in callee_args {
                    let word = self.stack[base + a as usize];
                    self.stack.push(word);
                }
                let (target, is_virtual) = match call.target {
                    CallTarget::Static(m) => (m, false),
                    CallTarget::Virtual(sel) => {
                        let Some(r) = word_ref(self.stack[frame.end]) else {
                            return Err(ExecError::Trap(TrapKind::NullDeref));
                        };
                        let Some(class) = self.store.heap.class_of(r) else {
                            return Err(ExecError::Trap(TrapKind::NoSuchMethod));
                        };
                        if profiling {
                            self.profiles.record_receiver(call.site, class);
                        } else if self.config.deopt {
                            // Drift monitor food: fallback virtual
                            // dispatches surviving in compiled code.
                            // The entry may be gone if a nested
                            // activation already invalidated it.
                            if let Some(cm) = self.code.get_mut(method) {
                                cm.virtual_dispatches += 1;
                            }
                        }
                        // An implementation that reads its arguments or
                        // returns its result as other register kinds than
                        // this callsite passes and expects (an override
                        // the verifier did not type the call by) is not an
                        // implementation of the called method.
                        match self.resolve(class, sel) {
                            Some((m, signature)) if signature == call.signature => (m, true),
                            _ => return Err(ExecError::Trap(TrapKind::NoSuchMethod)),
                        }
                    }
                };
                if profiling {
                    self.profiles.record_callsite(call.site);
                }
                self.exec_cycles += cost.call_cost(callee_args.len(), is_virtual);
                let result = self.exec_method(target, callee_args.len(), depth + 1)?;
                self.stack.truncate(frame.end);
                if let Some(dst) = call.dst {
                    self.stack[base + dst as usize] = result;
                }
            }

            let regs = &mut self.stack[frame.clone()];
            let edge = match block.term {
                Term::Return(slot) => {
                    let word = slot.map_or(0, |s| regs[s as usize]);
                    self.stack.truncate(base);
                    return Ok(Flow::Return(word));
                }
                Term::Deopt(reason) => {
                    if tier == Tier::Compiled {
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
            self.exec_cycles += edge.cost + dispatch;
            if profiling && edge.back_edge {
                self.profiles.record_backedge(method);
            }
            let moves = edge.moves.of(&plan.slots).chunks_exact(2);
            if edge.hazard {
                // Read every source before writing any destination.
                self.edge_scratch.clear();
                self.edge_scratch
                    .extend(moves.clone().map(|m| regs[m[0] as usize]));
                for (m, &word) in moves.zip(&self.edge_scratch) {
                    regs[m[1] as usize] = word;
                }
            } else {
                for m in moves {
                    regs[m[1] as usize] = regs[m[0] as usize];
                }
            }
            block = &plan.blocks[edge.dest as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inliner::{CompileCx, CompileOutcome, NoInline};
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::graph::{Op, Terminator};
    use incline_ir::types::RetType;
    use incline_ir::{CmpOp, Type};

    /// sum(n) = 0 + 1 + … + (n-1)
    fn sum_program() -> (Program, MethodId) {
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
    fn jit_promotes_hot_method_and_speeds_it_up() {
        let (p, m) = sum_program();
        let config = VmConfig {
            hotness_threshold: 3,
            ..VmConfig::default()
        };
        let mut vm = Machine::new(&p, Box::new(NoInline), config);
        let interp_cost = vm.run(m, vec![Value::Int(100)]).unwrap().exec_cycles;
        vm.run(m, vec![Value::Int(100)]).unwrap();
        vm.run(m, vec![Value::Int(100)]).unwrap(); // compile triggers here
        assert_eq!(vm.compilations(), 1);
        assert!(vm.installed_bytes() > 0);
        let compiled_cost = vm.run(m, vec![Value::Int(100)]).unwrap().exec_cycles;
        assert!(
            compiled_cost * 2 < interp_cost,
            "compiled ({compiled_cost}) must be much faster than interpreted ({interp_cost})"
        );
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
        // `max_depth = 400` is calibrated to the host frames one guest
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
                    let depth = config.max_depth as i64;
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
        for compiled in [false, true] {
            // 2 constants + 6 lines + the callee's instruction.
            let (done, steps, cycles) = run_line(&lines, compiled, 9);
            assert_eq!((done, steps), (Ok(()), 9));
            for fuel in 0..9 {
                let (outcome, steps, short) = run_line(&lines, compiled, fuel);
                assert_eq!(outcome, Err(ExecError::OutOfFuel), "fuel={fuel}");
                assert_eq!(steps, fuel + 1, "the step that found the tank empty");
                assert!(short < cycles, "fuel={fuel}");
            }
        }
    }

    #[test]
    fn icache_factor_changing_inside_a_block_is_charged_per_instruction() {
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
        // throughout. The cycle counts are pinned from the loop that
        // charged every instruction separately.
        for (capacity, pinned) in [(f_graph.size() as u64 * 4, 51), (8, 69)] {
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
            // The reference: every instruction priced on its own, under
            // the bytes installed when it ran.
            let mut bytes = before;
            let mut expected = 0;
            for &inst in &f_graph.block(f_graph.entry()).insts {
                let op = &f_graph.inst(inst).op;
                expected += cost.exec_cost(op, Tier::Compiled, bytes);
                if matches!(op, Op::Call(_)) {
                    expected += cost.call_cost(0, false);
                    bytes = after;
                    for &callee_inst in &g_graph.block(g_graph.entry()).insts {
                        let op = &g_graph.inst(callee_inst).op;
                        expected += cost.exec_cost(op, Tier::Compiled, bytes);
                    }
                }
            }
            assert_eq!(out.exec_cycles, expected, "capacity={capacity}");
            assert_eq!(out.exec_cycles, pinned, "capacity={capacity}");
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
        // An array receiver (which only unverified IR can produce) has no
        // class at all.
        let on_array = p.declare_function("on_array", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, on_array);
        let len = fb.const_int(2);
        let arr = fb.new_array(incline_ir::ElemType::Int, len);
        let r = fb.call_virtual(sel, vec![arr]).unwrap();
        fb.ret(Some(r));
        let g = fb.finish();
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

    /// An inliner that always unwinds — a stand-in for a compiler bug.
    struct PanickingInliner;
    impl Inliner for PanickingInliner {
        fn name(&self) -> &str {
            "panicking"
        }
        fn compile(
            &self,
            _method: MethodId,
            _cx: &CompileCx<'_>,
        ) -> Result<CompileOutcome, CompileError> {
            panic!("synthetic inliner bug");
        }
    }

    #[test]
    fn inliner_panic_is_contained_and_ladder_degrades() {
        let (p, m) = sum_program();
        let config = VmConfig {
            hotness_threshold: 2,
            ..VmConfig::default()
        };
        let mut vm = Machine::new(&p, Box::new(PanickingInliner), config);
        for _ in 0..4 {
            let out = vm.run(m, vec![Value::Int(10)]).unwrap();
            assert_eq!(
                out.value,
                Some(Value::Int(45)),
                "output correct despite compiler bug"
            );
        }
        let b = vm.bailouts();
        assert_eq!(b.contained_panics, 1);
        assert_eq!(b.full_tier, 1);
        assert_eq!(
            b.degraded_tier, 0,
            "degraded rung bypasses the faulty inliner"
        );
        assert_eq!(b.blacklisted, 0);
        assert_eq!(vm.compilations(), 1, "degraded tier installed code");
        assert_eq!(vm.compiled_methods(), vec![m]);
        assert!(matches!(
            vm.bailout_log(),
            [BailoutRecord {
                stage: CompileStage::Full,
                error: CompileError::Panicked(_),
                ..
            }]
        ));
    }

    /// An inliner that miscompiles: the graph it returns is damaged.
    struct CorruptingInliner;
    impl Inliner for CorruptingInliner {
        fn name(&self) -> &str {
            "corrupting"
        }
        fn compile(
            &self,
            method: MethodId,
            cx: &CompileCx<'_>,
        ) -> Result<CompileOutcome, CompileError> {
            let mut graph = cx.program.method(method).graph.clone();
            crate::faults::corrupt_graph(&mut graph);
            let size = graph.size();
            Ok(CompileOutcome {
                graph,
                work_nodes: size,
                stats: InlineStats::default(),
            })
        }
    }

    #[test]
    fn miscompiled_graph_is_rejected_not_installed() {
        let (p, m) = sum_program();
        let config = VmConfig {
            hotness_threshold: 2,
            ..VmConfig::default()
        };
        let mut vm = Machine::new(&p, Box::new(CorruptingInliner), config);
        for _ in 0..4 {
            let out = vm.run(m, vec![Value::Int(10)]).unwrap();
            assert_eq!(out.value, Some(Value::Int(45)));
        }
        let b = vm.bailouts();
        assert_eq!(b.verifier_rejections, 1);
        assert_eq!(b.full_tier, 1);
        assert_eq!(
            vm.compilations(),
            1,
            "only the degraded graph was installed"
        );
        // The installed graph is the verified degraded one, not the corrupt one.
        let decl = p.method(m);
        incline_ir::verify::verify_graph(&p, vm.compiled_graph(m).unwrap(), &decl.params, decl.ret)
            .unwrap();
    }

    #[test]
    fn exhausted_ladder_blacklists_and_interpreter_carries_on() {
        let (p, m) = sum_program();
        // A zero compile budget fails both rungs: full tier and degraded
        // tier each report OutOfFuel, so the method is blacklisted.
        let config = VmConfig {
            hotness_threshold: 2,
            compile_fuel: 0,
            ..VmConfig::default()
        };
        let mut vm = Machine::new(&p, Box::new(NoInline), config);
        for _ in 0..6 {
            let out = vm.run(m, vec![Value::Int(10)]).unwrap();
            assert_eq!(
                out.value,
                Some(Value::Int(45)),
                "interpreter keeps the program alive"
            );
        }
        let b = vm.bailouts();
        assert_eq!(b.full_tier, 1);
        assert_eq!(b.degraded_tier, 1);
        assert_eq!(b.blacklisted, 1);
        assert_eq!(b.fuel_exhaustions, 2);
        assert_eq!(vm.compilations(), 0, "nothing was ever installed");
        assert_eq!(vm.blacklisted_methods(), vec![m]);
        assert_eq!(
            vm.compile_requests(),
            1,
            "a blacklisted method must never be re-attempted"
        );
    }

    #[test]
    fn invalidation_keeps_installed_bytes_symmetric() {
        // Compile, force-deoptimize (which invalidates), recompile: the
        // code-cache accounting must return to exactly one install's worth
        // of bytes, not accumulate one per (re)install.
        let (p, m) = sum_program();
        let config = VmConfig {
            hotness_threshold: 2,
            deopt: true,
            ..VmConfig::default()
        };

        // Reference: the same program compiled once without faults.
        let mut clean = Machine::new(&p, Box::new(NoInline), config);
        for _ in 0..3 {
            clean.run(m, vec![Value::Int(10)]).unwrap();
        }
        let one_install = clean.installed_bytes();
        assert!(one_install > 0, "reference must compile");

        let mut vm = Machine::new(&p, Box::new(NoInline), config);
        vm.set_fault_plan(FaultPlan::new().inject(0, FaultKind::ForceDeopt));
        // Run 2 reaches the hotness bar, compiles (request 0, marked), and
        // the first compiled activation deopts at entry: the cache must be
        // empty again and the run's output untouched.
        for _ in 0..2 {
            let out = vm.run(m, vec![Value::Int(10)]).unwrap();
            assert_eq!(out.value, Some(Value::Int(45)));
        }
        assert_eq!(vm.bailouts().deopts, 1);
        assert_eq!(vm.bailouts().invalidations, 1);
        assert_eq!(vm.installed_bytes(), 0, "invalidation must release bytes");

        // Fresh profile clears the backed-off bar (2 * 2^0) after two more
        // interpreted runs; the recompile is clean (fault was one-shot).
        for _ in 0..4 {
            let out = vm.run(m, vec![Value::Int(10)]).unwrap();
            assert_eq!(out.value, Some(Value::Int(45)));
        }
        assert_eq!(vm.bailouts().recompiles, 1);
        assert_eq!(
            vm.installed_bytes(),
            one_install,
            "reinstall must not double-count bytes"
        );
        assert!(vm.pinned_methods().is_empty());
    }

    #[test]
    fn deopt_faults_are_inert_when_deopt_disabled() {
        // With `deopt: false` (the default) the speculation faults must
        // change nothing: no deopts, no invalidations, code stays put.
        let (p, m) = sum_program();
        let mut vm = Machine::new(
            &p,
            Box::new(NoInline),
            VmConfig {
                hotness_threshold: 2,
                ..VmConfig::default()
            },
        );
        vm.set_fault_plan(
            FaultPlan::new()
                .inject(0, FaultKind::ForceDeopt)
                .inject(1, FaultKind::ForceGuardFailure),
        );
        for _ in 0..12 {
            let out = vm.run(m, vec![Value::Int(10)]).unwrap();
            assert_eq!(out.value, Some(Value::Int(45)));
        }
        let b = vm.bailouts();
        assert_eq!(b.deopts, 0);
        assert_eq!(b.invalidations, 0);
        assert_eq!(b.recompiles, 0);
        assert_eq!(b.pinned, 0);
        assert!(
            vm.installed_bytes() > 0,
            "the compiled code stays installed"
        );
    }

    fn machine_with_threshold(threshold: u64) -> (MethodId, Machine<'static>) {
        // Leak the program so the machine can borrow it with a 'static
        // lifetime — these tests only probe pure arithmetic helpers.
        let (p, m) = sum_program();
        let p: &'static Program = Box::leak(Box::new(p));
        let vm = Machine::new(
            p,
            Box::new(NoInline),
            VmConfig {
                hotness_threshold: threshold,
                ..VmConfig::default()
            },
        );
        (m, vm)
    }

    #[test]
    fn recompile_bar_is_threshold_times_two_to_the_n() {
        let (_, vm) = machine_with_threshold(3);
        let bars: Vec<u64> = (0..6).map(|n| vm.recompile_bar(n)).collect();
        assert_eq!(bars, vec![3, 6, 12, 24, 48, 96]);
    }

    #[test]
    fn recompile_bar_saturates_instead_of_overflowing() {
        // The exponent clamps at 20 and the multiply saturates, so even
        // absurd recompile counts and thresholds cannot wrap.
        let (_, vm) = machine_with_threshold(5);
        assert_eq!(vm.recompile_bar(20), 5 * (1 << 20));
        assert_eq!(vm.recompile_bar(63), 5 * (1 << 20), "exponent clamps at 20");
        assert_eq!(vm.recompile_bar(u32::MAX), 5 * (1 << 20));
        let (_, vm) = machine_with_threshold(u64::MAX);
        assert_eq!(vm.recompile_bar(0), u64::MAX);
        assert_eq!(vm.recompile_bar(1), u64::MAX, "multiply saturates");
        let (_, vm) = machine_with_threshold(u64::MAX / 2 + 1);
        assert_eq!(vm.recompile_bar(1), u64::MAX);
    }

    #[test]
    fn hotness_backoff_doubles_the_bar_per_recompile() {
        // A method with speculation state re-promotes against
        // `threshold * 2^recompiles` counted from its post-invalidation
        // profile baseline — the storm-throttle backoff sequence.
        let (m, mut vm) = machine_with_threshold(4);
        for (recompiles, bar) in [(0u32, 4u64), (1, 8), (2, 16), (3, 32)] {
            vm.spec.insert(
                m,
                SpecState {
                    recompiles,
                    pinned: false,
                    base_invocations: 100,
                    base_backedges: 0,
                },
            );
            vm.profiles = ProfileTable::default();
            for _ in 0..(100 + bar - 1) {
                vm.profiles.record_invocation(m);
            }
            assert!(
                !vm.hot(m),
                "one below the backed-off bar (recompiles={recompiles}) must stay cold"
            );
            vm.profiles.record_invocation(m);
            assert!(
                vm.hot(m),
                "reaching baseline + {bar} fresh invocations must re-promote"
            );
        }
    }
}
