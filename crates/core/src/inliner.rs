//! The contract between a compile broker and inlining algorithms.
//!
//! Every inliner in this project — the paper's incremental algorithm
//! ([`crate::IncrementalInliner`]), the greedy and C2-style baselines
//! (`incline-baselines`), and [`NoInline`] here — implements [`Inliner`].
//! The VM (`incline-vm`) drives it the way HotSpot drives Graal: it hands
//! over a compilation request (the root method, the profiling context and
//! a compile budget) and installs whatever graph comes back — after
//! verifying it. Nothing here knows about the VM.
//!
//! Compilation is **fallible**: an inliner may run out of
//! [`CompileFuel`], and the VM's broker additionally contains panics and
//! verifier rejections. All three surface as a [`CompileError`], which the
//! broker's bailout ladder turns into a retry on a cheaper tier.

use incline_ir::{Graph, MethodId, Program};
use incline_opt::{CompileFuel, PipelineConfig, UNLIMITED_FUEL};
use incline_profile::ProfileTable;
use incline_trace::{CompileEvent, OptPhase, TraceSink, NULL_SINK};

use crate::trials::TrialCache;
use crate::typeswitch::FallbackMode;

/// Minimum typeswitch profile coverage (summed receiver probabilities)
/// before the fallback becomes a `deopt` instead of a virtual call.
pub const DEOPT_CONFIDENCE: f64 = 0.95;

/// How aggressively a compilation may speculate on profile data.
///
/// The VM derives this from its configuration and the method's pin state;
/// standalone compilations default to the conservative setting (no
/// uncommon traps), so compiled graphs are always safe to run without
/// deoptimization support.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Speculation {
    /// Whether typeswitch emission may use a `deopt` fallback instead of
    /// the always-correct virtual call. `false` for pinned methods and
    /// whenever the VM runs with deoptimization disabled.
    pub allow_deopt: bool,
}

impl Speculation {
    /// The fallback of a typeswitch whose speculated receivers cover
    /// `coverage` of the profiled traffic (paper §IV): an uncommon trap
    /// when deoptimization is allowed and the coverage reaches
    /// [`DEOPT_CONFIDENCE`], the virtual call otherwise.
    pub fn fallback(&self, coverage: f64) -> FallbackMode {
        if self.allow_deopt && coverage >= DEOPT_CONFIDENCE {
            FallbackMode::Deopt
        } else {
            FallbackMode::Virtual
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
    /// one machine, or `None` when trial caching is disabled. Carried by
    /// reference so the context stays `Copy`.
    pub trials: Option<&'a TrialCache>,
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
    pub fn with_trials(self, trials: Option<&'a TrialCache>) -> Self {
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

    /// The start of every compilation: a private copy of `method`'s graph,
    /// its size charged to the budget.
    ///
    /// # Errors
    ///
    /// [`CompileError::OutOfFuel`] when the charge spends the budget.
    pub fn root_graph(&self, method: MethodId) -> Result<Graph, CompileError> {
        let graph = self.program.method(method).graph.clone();
        if self.charge(graph.size() as u64) {
            Ok(graph)
        } else {
            Err(CompileError::out_of_fuel(self.fuel))
        }
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

impl CompileError {
    /// The error a spent `fuel` budget ends a compilation with.
    pub fn out_of_fuel(fuel: &CompileFuel) -> CompileError {
        CompileError::OutOfFuel {
            limit: fuel.limit().unwrap_or(u64::MAX),
        }
    }
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

/// The end of every inliner that does not alternate with the optimizer:
/// one pipeline run over `graph`, then the outcome. `work` is the IR the
/// compilation processed before that run (the final size is added to it);
/// `stats` supplies the inlining counters, and the run fills in `rounds`,
/// `final_size` and `opt_events`.
pub fn optimize_once(
    cx: &CompileCx<'_>,
    mut graph: Graph,
    work: usize,
    stats: InlineStats,
) -> CompileOutcome {
    let opt = incline_trace::optimize_with_trace(
        cx.program,
        &mut graph,
        PipelineConfig::default(),
        cx.fuel,
        cx.trace,
        OptPhase::Baseline,
    )
    .stats;
    let final_size = graph.size();
    CompileOutcome {
        graph,
        work_nodes: work + final_size,
        stats: InlineStats {
            rounds: 1,
            final_size: final_size as u64,
            opt_events: opt.total(),
            ..stats
        },
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
        let graph = cx.root_graph(method)?;
        let before = graph.size();
        Ok(optimize_once(cx, graph, before, InlineStats::default()))
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

    #[test]
    fn fallback_deopts_from_the_confidence_bar_up() {
        let spec = Speculation { allow_deopt: true };
        assert_eq!(spec.fallback(DEOPT_CONFIDENCE), FallbackMode::Deopt);
        let below = f64::from_bits(DEOPT_CONFIDENCE.to_bits() - 1);
        assert_eq!(spec.fallback(below), FallbackMode::Virtual);
        let no_deopt = Speculation { allow_deopt: false };
        assert_eq!(no_deopt.fallback(1.0), FallbackMode::Virtual);
    }
}
