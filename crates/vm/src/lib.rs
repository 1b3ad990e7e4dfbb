#![warn(missing_docs)]

//! # incline-vm
//!
//! The JIT host substrate: a deterministic, tiered virtual machine for
//! [`incline_ir`] programs.
//!
//! * [`Machine`]: profiling interpreter + compile broker + code cache.
//!   Methods start interpreted (collecting [`incline_profile`] data) and
//!   are compiled by the configured [`Inliner`] when hot.
//! * [`CostModel`]: simulated cycles with interpreter dispatch premiums,
//!   call overheads, and instruction-cache pressure — the terrain on which
//!   inlining decisions are evaluated (see DESIGN.md §6).
//! * [`runner`]: the paper's measurement protocol (peak performance =
//!   mean of the last 40% of repetitions, at most 20), and [`Session`],
//!   the one builder behind [`RunSession`] and [`ServerSession`].
//!
//! The inliner contract ([`Inliner`], [`CompileCx`], …), [`NoInline`] and
//! the [`TrialCache`] are [`incline_core`]'s, re-exported here.
//!
//! ```
//! use incline_ir::{Program, FunctionBuilder, Type};
//! use incline_vm::{Machine, VmConfig, Value, NoInline};
//!
//! let mut p = Program::new();
//! let m = p.declare_function("answer", vec![], Type::Int);
//! let mut fb = FunctionBuilder::new(&p, m);
//! let k = fb.const_int(42);
//! fb.ret(Some(k));
//! let body = fb.finish();
//! p.define_method(m, body);
//!
//! let mut vm = Machine::new(&p, Box::new(NoInline), VmConfig::default());
//! let out = vm.run(m, vec![])?;
//! assert_eq!(out.value, Some(Value::Int(42)));
//! # Ok::<(), incline_vm::ExecError>(())
//! ```

pub mod broker;
pub mod cache;
pub mod cost;
pub mod faults;
pub mod machine;
mod plan;
pub mod runner;
pub mod server;
pub mod snapshot;
pub mod stats;
mod store;
pub mod value;

pub use broker::QueueStats;
pub use cache::{CacheEntry, CacheStats, EvictionPolicy};
pub use cost::CostModel;
pub use faults::{FaultKind, FaultPlan};
pub use incline_core::{
    CompileCx, CompileError, CompileOutcome, InlineStats, Inliner, NoInline, Speculation,
    TrialCache, TrialKey, TrialOutcome,
};
pub use incline_opt::{CompileFuel, UNLIMITED_FUEL};
/// The structured tracing layer, re-exported for consumers of this crate.
pub use incline_trace as trace;
pub use incline_trace::{CollectingSink, CompileEvent, JsonlSink, NullSink, TraceSink, NULL_SINK};
pub use machine::{
    BailoutCounters, BailoutRecord, CompilationReport, CompileStage, ExecError, InstallPolicy,
    Machine, RunOutcome, VmConfig,
};
pub use runner::{BenchError, BenchResult, BenchSpec, RunSession, Session};
pub use server::{ServerError, ServerReport, ServerSession, ServerSpec, TenantReport, TenantSpec};
pub use snapshot::{
    FileStore, MemoryStore, MergePolicy, MergeStats, Merged, MethodRecord, Snapshot, SnapshotError,
    SnapshotIo, SnapshotStats, SnapshotStore, SNAPSHOT_VERSION,
};
pub use stats::{fairness_index, percentile, LatencyStats};
pub use value::{HeapRef, Output, Value};
