//! What a [`Machine`](super::Machine) can be told — [`VmConfig`] — and what
//! it cannot: the constants below each had one value in every caller,
//! test and benchmark, so they are not options.

use crate::cache::EvictionPolicy;
use crate::cost::CostModel;

/// Maximum guest call depth. Each guest frame costs two host frames; 400
/// stays inside the 2 MiB default stack of a Rust test thread in a debug
/// build, in both tiers (`max_depth_fits_the_host_stack_of_a_test_thread`).
pub const MAX_DEPTH: usize = 400;

/// Maximum guest heap of one run, in [`Value`](crate::Value)-sized slots:
/// a cell costs two (its header is that large) plus one per field or array
/// element. The allocation that would pass it traps with
/// `TrapKind::HeapExhausted` instead of taking the host down: `fuel_steps`
/// bounds the steps of a run, this bounds what each step may ask for.
/// 16 Mi slots are 256 MiB of values; the ledger's largest workload peaks
/// at 8 MB of resident memory.
pub const MAX_HEAP_SLOTS: u64 = 1 << 24;

pub use incline_core::DEOPT_CONFIDENCE;

/// Drift monitor: a compiled method is invalidated once it executes more
/// than this many fallback virtual dispatches per compiled invocation —
/// the speculated cases no longer cover the hot receivers.
pub const DRIFT_RATE: f64 = 2.0;

/// Drift monitor: minimum compiled invocations before the dispatch rate is
/// evaluated (avoids invalidating on startup noise).
pub const DRIFT_MIN_SAMPLES: u64 = 8;

/// Storm throttle: recompilations granted after invalidation before the
/// method is pinned to fallback-only (never `deopt`) code.
pub const MAX_RECOMPILES: u32 = 3;

/// Quarantine ladder probation window, in compiled activations: a decision
/// replayed from a snapshot that deoptimizes within its first
/// `POISON_WINDOW` activations is attributed as *poisoned* — its code is
/// dropped evict-style (no recompile-budget burn, no pinning), its seeded
/// profile contribution is rolled back, and the decision is excluded from
/// the next snapshot.
pub const POISON_WINDOW: u64 = 8;

/// Code-cache aging window, in compiled-entry ticks: a resident idle this
/// long has its eviction score floored, making it the preferred victim
/// under every policy. Only evaluated under a finite
/// [`VmConfig::code_cache_budget`].
pub const CACHE_AGE_WINDOW: u64 = 1024;

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
    /// How many *modelled* compile workers the virtual-time stall account
    /// has (`Machine::charge_response`); no host thread is ever started —
    /// every compilation runs on the mutator's. `0`, the default: the
    /// mutator pays every compile cycle as stall. `N >= 1`: a request
    /// compiles from its enqueue on the earliest free of N workers and the
    /// mutator stalls only for what is unfinished at the install. Under
    /// [`InstallPolicy::Barrier`] every value gives `stall == cycles`, so
    /// nothing observable depends on it; under
    /// [`InstallPolicy::Safepoint`] it sets how much compile latency
    /// overlaps mutator progress.
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
    /// Whether deep-inlining-trial results are memoized across rounds and
    /// compilations (see [`crate::TrialCache`]). Trials are pure
    /// functions of (callee graph, argument specialization), so caching
    /// never changes an observable — the conformance matrix asserts
    /// byte-identical results with the cache on and off. On by default;
    /// the CLI disables it with `--no-trial-cache`.
    pub trial_cache: bool,
}

/// When the compile queue drains and installed code becomes visible.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InstallPolicy {
    /// **Synchronous mode**: the request is enqueued and the queue drained
    /// at the hotness trigger, before the triggering invocation proceeds —
    /// the method tiers up there and the mutator stalls for the whole
    /// compilation, whatever [`VmConfig::compile_threads`] says.
    #[default]
    Barrier,
    /// **Pipelined mode**: the triggering invocation keeps interpreting; the
    /// request waits in the queue until the next safepoint (an activation
    /// boundary of the method, or the start of the next `run`), compiles and
    /// installs there against the profiles it saw at enqueue, and tier-up
    /// happens on the following invocation. Semantics are still exactly
    /// preserved — only the timeline differs: in virtual time the
    /// compilation ran on a modelled worker while the mutator made
    /// progress, so [`RunOutcome::stall_cycles`] shrinks.
    ///
    /// [`RunOutcome::stall_cycles`]: super::RunOutcome::stall_cycles
    Safepoint,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            cost: CostModel::default(),
            hotness_threshold: 40,
            jit: true,
            fuel_steps: 500_000_000,
            compile_fuel: u64::MAX,
            deopt: false,
            compile_threads: 0,
            install_policy: InstallPolicy::Barrier,
            code_cache_budget: 0,
            eviction_policy: EvictionPolicy::default(),
            trial_cache: true,
        }
    }
}
