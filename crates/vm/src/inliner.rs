//! The contract between the VM's compile broker and inlining algorithms.
//!
//! Every inliner in this project — the paper's incremental algorithm
//! (`incline-core`), the greedy and C2-style baselines
//! (`incline-baselines`), and the trivial ones here — implements
//! [`Inliner`]. The VM hands it a compilation request (the root method,
//! the profiling context and a compile budget) and installs whatever graph
//! comes back — after verifying it.
//!
//! Compilation is **fallible**: an inliner may run out of
//! [`CompileFuel`](incline_opt::CompileFuel), and the broker additionally
//! contains panics and verifier rejections. All three surface as a
//! [`CompileError`], which the broker's bailout ladder turns into a retry
//! on a cheaper tier (see `machine`).

use incline_ir::{Graph, MethodId, Program};
use incline_opt::{CompileFuel, UNLIMITED_FUEL};
use incline_profile::ProfileTable;
use incline_trace::{CompileEvent, TraceSink, NULL_SINK};

/// How aggressively a compilation may speculate on profile data.
///
/// The broker derives this from [`VmConfig`](crate::VmConfig) and the
/// method's pin state; standalone compilations default to the conservative
/// setting (no uncommon traps), so compiled graphs are always safe to run
/// without deoptimization support.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Speculation {
    /// Whether typeswitch emission may use a `deopt` fallback instead of
    /// the always-correct virtual call. `false` for pinned methods and
    /// whenever the VM runs with deoptimization disabled.
    pub allow_deopt: bool,
    /// Minimum profile coverage (sum of speculated receiver probabilities)
    /// a typeswitch must reach before its fallback becomes an uncommon
    /// trap.
    pub confidence: f64,
}

impl Default for Speculation {
    fn default() -> Self {
        Speculation {
            allow_deopt: false,
            confidence: crate::machine::DEOPT_CONFIDENCE,
        }
    }
}

/// Read-only context available to a compilation.
#[derive(Clone, Copy)]
pub struct CompileCx<'a> {
    /// The program being executed.
    pub program: &'a Program,
    /// Profiles gathered by the interpreting tier.
    pub profiles: &'a ProfileTable,
    /// The compile-work budget for this compilation. Inliners charge the
    /// IR they process and wind down (or report [`CompileError::OutOfFuel`])
    /// once it is spent.
    pub fuel: &'a CompileFuel,
    /// Where this compilation's [`CompileEvent`] stream goes. Defaults to
    /// the disabled [`incline_trace::NullSink`]; carried by reference just
    /// like `fuel` so the context stays `Copy`.
    pub trace: &'a dyn TraceSink,
    /// Speculation policy for this compilation.
    pub speculation: Speculation,
    /// Memoized deep-inlining-trial results shared across compilations of
    /// this machine, or `None` when trial caching is disabled. Carried by
    /// reference so the context stays `Copy`.
    pub trials: Option<&'a crate::trials::TrialCache>,
}

impl<'a> CompileCx<'a> {
    /// A context with an unlimited compile budget and tracing disabled.
    pub fn new(program: &'a Program, profiles: &'a ProfileTable) -> Self {
        CompileCx {
            program,
            profiles,
            fuel: &UNLIMITED_FUEL,
            trace: &NULL_SINK,
            speculation: Speculation::default(),
            trials: None,
        }
    }

    /// Replaces the compile budget.
    pub fn with_fuel(self, fuel: &'a CompileFuel) -> Self {
        CompileCx { fuel, ..self }
    }

    /// Replaces the trace sink.
    pub fn with_trace(self, trace: &'a dyn TraceSink) -> Self {
        CompileCx { trace, ..self }
    }

    /// Replaces the speculation policy.
    pub fn with_speculation(self, speculation: Speculation) -> Self {
        CompileCx {
            speculation,
            ..self
        }
    }

    /// Attaches (or detaches) the shared trial cache.
    pub fn with_trials(self, trials: Option<&'a crate::trials::TrialCache>) -> Self {
        CompileCx { trials, ..self }
    }

    /// Whether the trace sink wants events. Producers should gate any
    /// expensive event construction (string rendering, tree snapshots) on
    /// this.
    pub fn tracing(&self) -> bool {
        self.trace.enabled()
    }

    /// Emit an event, building it only if the sink is enabled.
    pub fn emit(&self, event: impl FnOnce() -> CompileEvent) {
        if self.trace.enabled() {
            self.trace.emit(event());
        }
    }

    /// Charge `amount` units of compile fuel, tracing the charge. Returns
    /// `false` once the budget is spent (same contract as
    /// [`CompileFuel::charge`]).
    pub fn charge(&self, amount: u64) -> bool {
        let ok = self.fuel.charge(amount);
        self.emit(|| CompileEvent::FuelCharged {
            amount,
            spent: self.fuel.spent(),
        });
        ok
    }
}

/// Why a compilation failed.
///
/// Failures are *contained*: the method keeps running in the interpreter
/// and the broker may retry it on a degraded tier. A `CompileError` never
/// corrupts VM state and never installs code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The inliner (or a pass it ran) panicked; the payload message.
    Panicked(String),
    /// The produced graph failed verification and was not installed.
    Rejected(String),
    /// The compile budget ran out before a graph was produced.
    OutOfFuel {
        /// The budget the compilation started with.
        limit: u64,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Panicked(m) => write!(f, "compiler panicked: {m}"),
            CompileError::Rejected(m) => write!(f, "graph rejected by verifier: {m}"),
            CompileError::OutOfFuel { limit } => {
                write!(f, "compile budget exhausted (limit {limit})")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Statistics reported by a compilation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct InlineStats {
    /// Callsites replaced by callee bodies (incl. nested ones).
    pub inlined_calls: u64,
    /// Expand/analyze/inline rounds executed (1 for single-pass inliners).
    pub rounds: u64,
    /// Total IR nodes of callee graphs explored (expansion work).
    pub explored_nodes: u64,
    /// IR size of the root graph after compilation.
    pub final_size: u64,
    /// Optimization events triggered during compilation.
    pub opt_events: u64,
    /// Typeswitches emitted: callsites whose dispatch was speculated on
    /// profiled receivers. Drives the broker's drift monitor.
    pub speculative_sites: u64,
}

/// The result of one compilation request.
#[derive(Clone, Debug)]
pub struct CompileOutcome {
    /// The optimized graph to install.
    pub graph: Graph,
    /// IR nodes processed (drives the simulated compilation latency).
    pub work_nodes: usize,
    /// Reporting counters.
    pub stats: InlineStats,
}

/// An inlining algorithm driving a compilation.
///
/// `Send + Sync` is a supertrait requirement, so that a machine and what it
/// compiles with can move to, or be shared with, another thread; every
/// inliner in the workspace is immutable configuration plus pure functions,
/// so the bound is free.
pub trait Inliner: Send + Sync {
    /// Short stable name used in benchmark tables.
    fn name(&self) -> &str;

    /// Compiles `method`: clones its graph, performs inline substitution
    /// according to the algorithm's policy, optimizes, and returns the
    /// graph to install.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::OutOfFuel`] when `cx.fuel` is spent before
    /// the compilation produced an installable graph. Other variants are
    /// produced by the broker, not by inliners.
    fn compile(&self, method: MethodId, cx: &CompileCx<'_>)
        -> Result<CompileOutcome, CompileError>;
}

/// Converts fuel exhaustion into the error the bailout ladder expects.
pub(crate) fn fuel_error(fuel: &CompileFuel) -> CompileError {
    CompileError::OutOfFuel {
        limit: fuel.limit().unwrap_or(u64::MAX),
    }
}

/// Baseline that never inlines; it still runs the optimization pipeline
/// (this isolates inlining effects from scalar optimizations).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoInline;

impl Inliner for NoInline {
    fn name(&self) -> &str {
        "no-inline"
    }

    fn compile(
        &self,
        method: MethodId,
        cx: &CompileCx<'_>,
    ) -> Result<CompileOutcome, CompileError> {
        let mut graph = cx.program.method(method).graph.clone();
        let before = graph.size();
        if !cx.charge(before as u64) {
            return Err(fuel_error(cx.fuel));
        }
        let stats = incline_trace::optimize_with_trace(
            cx.program,
            &mut graph,
            incline_opt::PipelineConfig::default(),
            cx.fuel,
            cx.trace,
            incline_trace::OptPhase::Baseline,
        )
        .stats;
        let final_size = graph.size();
        Ok(CompileOutcome {
            graph,
            work_nodes: before + final_size,
            stats: InlineStats {
                inlined_calls: 0,
                rounds: 1,
                explored_nodes: 0,
                final_size: final_size as u64,
                opt_events: stats.total(),
                speculative_sites: 0,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::Type;

    #[test]
    fn no_inline_optimizes_but_keeps_calls() {
        let mut p = Program::new();
        let callee = p.declare_function("c", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, callee);
        let k = fb.const_int(1);
        fb.ret(Some(k));
        let g = fb.finish();
        p.define_method(callee, g);
        let root = p.declare_function("r", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, root);
        let a = fb.const_int(20);
        let b = fb.const_int(22);
        let s = fb.iadd(a, b);
        let c = fb.call_static(callee, vec![]).unwrap();
        let r = fb.iadd(s, c);
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(root, g);

        let profiles = ProfileTable::new();
        let cx = CompileCx::new(&p, &profiles);
        let out = NoInline.compile(root, &cx).unwrap();
        assert_eq!(out.stats.inlined_calls, 0);
        assert!(out.stats.opt_events >= 1, "constant fold expected");
        assert_eq!(out.graph.callsites().len(), 1, "the call must survive");
    }

    #[test]
    fn no_inline_reports_fuel_exhaustion() {
        let mut p = Program::new();
        let root = p.declare_function("r", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, root);
        let k = fb.const_int(7);
        fb.ret(Some(k));
        let g = fb.finish();
        p.define_method(root, g);

        let profiles = ProfileTable::new();
        let fuel = CompileFuel::limited(0);
        let cx = CompileCx::new(&p, &profiles).with_fuel(&fuel);
        let err = NoInline.compile(root, &cx).unwrap_err();
        assert_eq!(err, CompileError::OutOfFuel { limit: 0 });
    }
}
