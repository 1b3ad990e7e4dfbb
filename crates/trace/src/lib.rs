//! Typed compilation-event stream for the incline JIT.
//!
//! This crate defines the structured tracing API that every compiler in the
//! workspace emits into: a [`CompileEvent`] enum covering the per-round
//! lifecycle of the paper's incremental inliner (expansion, cutoff deferral,
//! clustering, inline decisions), the optimization pipeline, the compile-fuel
//! accounting, and the VM broker's tier transitions and bailouts — plus a
//! [`TraceSink`] trait with ready-made sinks:
//!
//! - [`NullSink`]: the zero-cost default (reports `enabled() == false`, so
//!   producers skip event construction entirely),
//! - [`CollectingSink`]: buffers events in memory for programmatic consumers,
//! - [`JsonlSink`]: one JSON object per line, through [`json`] — the
//!   workspace's one JSON writer and strict reader, no external deps.
//!
//! [`CompileEvent::to_json`], generated from the declaration, is the only
//! rendering of an event: the command line's `--trace` and `--trace-json`
//! both stream it.
//!
//! The stream is deterministic: two compilations of the same program with the
//! same configuration produce byte-identical JSONL traces. Sinks are
//! `Send + Sync`, so a handle can be shared across threads; the VM itself
//! compiles, and emits, on one.

#![warn(missing_docs)]

mod event;
pub mod json;
mod sink;

pub use event::{BailoutStage, CodeTier, CompileEvent, OptPhase};
pub use sink::{CollectingSink, JsonlSink, NullSink, TraceSink, NULL_SINK};

use incline_ir::{Graph, Program};
use incline_opt::{optimize_observed, CompileFuel, PipelineConfig, PipelineRun};

/// Run the optimization pipeline, forwarding per-stage `OptStats` deltas to
/// `sink` as [`CompileEvent::OptPassStats`] events tagged with `phase`.
///
/// When the sink is disabled no event is constructed. A stage that found
/// nothing is not an event, so a run on a graph the previous one left
/// [`PipelineRun::converged`] emits none.
pub fn optimize_with_trace(
    program: &Program,
    graph: &mut Graph,
    config: PipelineConfig,
    fuel: &CompileFuel,
    sink: &dyn TraceSink,
    phase: OptPhase,
) -> PipelineRun {
    let enabled = sink.enabled();
    optimize_observed(program, graph, config, fuel, &mut |stage, stats| {
        if enabled && stats.any() {
            sink.emit(CompileEvent::OptPassStats {
                phase,
                stage,
                stats,
            });
        }
    })
}
