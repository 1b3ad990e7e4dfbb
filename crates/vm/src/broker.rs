//! The compile broker: what one compilation is asked (`CompileRequest`),
//! how it runs (`run_ladder`) and what it hands back
//! (`CompileResponse`), plus the queue requests wait in.
//!
//! Everything here runs on the mutator, one request at a time: the machine
//! pops a request, runs the ladder with its own trace sink, charges the
//! response and applies it before it takes the next (see
//! `Machine::drain_compile_queue`). A request is self-contained — root
//! method, compile-fuel budget, injected fault, speculation policy and, in
//! pipelined mode, the profile table, all as they were at enqueue — so
//! `run_ladder`, the full bailout ladder (full tier → inline-free
//! degraded tier), is a pure function of `(program, profiles, inliner,
//! request)` whose only effect is the events it emits. That purity is what
//! lets pipelined mode compile long after the enqueue and still see the
//! enqueue's state.
//!
//! Both tiers, and the code cache's admission retry of the degraded tier,
//! are one `rung`: it runs the compile behind the panic fence, compacts,
//! verifies and prices a failure. The two tiers differ only in the compile
//! they hand it.
//!
//! Compilation running *beside* the mutator exists in virtual time only:
//! the machine's stall account (`Machine::charge`) places every request on
//! the earliest free of [`VmConfig::compile_threads`] modelled workers and
//! charges the mutator the part of the compile that had not finished when
//! it installs.
//!
//! [`VmConfig::compile_threads`]: crate::VmConfig::compile_threads

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};

use incline_ir::{Graph, MethodId, Program};
use incline_opt::CompileFuel;
use incline_profile::ProfileTable;
use incline_trace::{CompileEvent, OptPhase, TraceSink};

use crate::faults::{self, FaultKind};
use crate::machine::CompileStage;
use crate::{
    CompileCx, CompileError, CompileOutcome, InlineStats, Inliner, Speculation, TrialCache,
};

/// One compilation request, snapshotted at enqueue time so it can run at
/// any later point without observing mutator-side changes.
#[derive(Debug)]
pub(crate) struct CompileRequest {
    /// The root method to compile.
    pub method: MethodId,
    /// Compile-fuel budget for this request (`u64::MAX` = unmetered).
    pub fuel_limit: u64,
    /// Injected fault for this request, resolved from the machine's
    /// [`crate::FaultPlan`] at enqueue time.
    pub fault: Option<FaultKind>,
    /// Speculation policy, resolved from the VM config and the method's
    /// pin state at enqueue time.
    pub speculation: Speculation,
    /// Profile snapshot taken at enqueue. `None` means "use the live
    /// table at drain time" — correct in barrier mode, where nothing runs
    /// between enqueue and drain; pipelined mode snapshots so interleaved
    /// mutator profiling cannot leak into an in-flight compilation.
    pub profiles: Option<ProfileTable>,
    /// Virtual cycle timestamp of the enqueue (mutator clock). Drives the
    /// stall model: a modelled worker cannot start the request before
    /// this point.
    pub enqueued_at: u64,
}

/// A verified graph ready for installation, produced by a ladder rung.
#[derive(Debug)]
pub(crate) struct InstallPackage {
    /// Which rung produced it.
    pub stage: CompileStage,
    /// The rung's outcome, its graph compacted and verified.
    pub outcome: CompileOutcome,
}

/// What a completed compilation hands back to the machine.
#[derive(Debug)]
pub(crate) struct CompileResponse {
    /// Fuel units burned by failed attempts, to be charged as wasted
    /// compile cycles (the cost model is linear, so one aggregate charge
    /// equals a charge per attempt).
    pub wasted_work: u64,
    /// Every rung failure, in ladder order.
    pub failures: Vec<(CompileStage, CompileError)>,
    /// The install package, or `None` if the whole ladder failed (the
    /// machine blacklists the method).
    pub package: Option<InstallPackage>,
}

/// The pending requests, in enqueue order, plus lifetime accounting.
#[derive(Debug, Default)]
pub(crate) struct CompileQueue {
    pending: VecDeque<CompileRequest>,
    stats: QueueStats,
}

/// Lifetime counters of a machine's compile queue. `enqueued == completed`
/// after every drain — the stress tests assert no request is ever lost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Requests ever enqueued.
    pub enqueued: u64,
    /// Responses applied (install *or* blacklist — every request completes).
    pub completed: u64,
    /// Responses that installed code.
    pub installed: u64,
    /// The most requests that ever waited at once, the one just pushed
    /// included.
    pub max_depth: u64,
}

impl CompileQueue {
    /// Appends a request.
    pub(crate) fn push(&mut self, request: CompileRequest) {
        self.stats.enqueued += 1;
        self.pending.push_back(request);
        self.stats.max_depth = self.stats.max_depth.max(self.pending.len() as u64);
    }

    /// Removes and returns the oldest pending request.
    pub(crate) fn pop(&mut self) -> Option<CompileRequest> {
        self.pending.pop_front()
    }

    /// Marks one response as applied.
    pub(crate) fn note_completed(&mut self, installed: bool) {
        self.stats.completed += 1;
        if installed {
            self.stats.installed += 1;
        }
    }

    /// The methods of the pending requests, in enqueue order.
    pub(crate) fn pending_methods(&self) -> impl Iterator<Item = MethodId> + '_ {
        self.pending.iter().map(|r| r.method)
    }

    /// Number of pending requests.
    pub(crate) fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no requests are pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Lifetime counters.
    pub(crate) fn stats(&self) -> QueueStats {
        self.stats
    }
}

/// Extracts a readable message from a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// How one ladder rung ended: a verified package, or an error plus the
/// work units the failed attempt is charged.
type RungResult = Result<InstallPackage, (CompileError, u64)>;

/// Runs the whole bailout ladder for one request. Pure with respect to the
/// VM: reads only the program, the (snapshotted or live) profiles and the
/// inliner; its events — a `Bailout` per failed rung included, in rung
/// order — go into `sink` as they happen, everything else is returned in
/// the [`CompileResponse`].
pub(crate) fn run_ladder(
    program: &Program,
    live_profiles: &ProfileTable,
    inliner: &dyn Inliner,
    req: &CompileRequest,
    sink: &dyn TraceSink,
    trials: Option<&TrialCache>,
) -> CompileResponse {
    let profiles = req.profiles.as_ref().unwrap_or(live_profiles);
    let mut wasted_work = 0u64;
    let mut failures = Vec::new();
    let mut package = None;
    for stage in [CompileStage::Full, CompileStage::Degraded] {
        let attempt = match stage {
            CompileStage::Full => full_tier(program, profiles, inliner, req, sink, trials),
            CompileStage::Degraded => degraded_tier(program, req.method, req.fuel_limit, sink),
        };
        match attempt {
            Ok(pkg) => {
                package = Some(pkg);
                break;
            }
            Err((error, waste)) => {
                wasted_work += waste;
                if sink.enabled() {
                    sink.emit(CompileEvent::Bailout {
                        method: req.method,
                        stage,
                        error: error.to_string(),
                    });
                }
                failures.push((stage, error));
            }
        }
    }
    CompileResponse {
        wasted_work,
        failures,
        package,
    }
}

/// Ladder rung 1: the configured inliner, with the request's injected
/// fault.
fn full_tier(
    program: &Program,
    profiles: &ProfileTable,
    inliner: &dyn Inliner,
    req: &CompileRequest,
    sink: &dyn TraceSink,
    trials: Option<&TrialCache>,
) -> RungResult {
    let (method, fault) = (req.method, req.fault);
    let limit = if fault == Some(FaultKind::ExhaustFuel) {
        0
    } else {
        req.fuel_limit
    };
    let compile = |fuel: &CompileFuel| {
        if fault == Some(FaultKind::PanicInCompile) {
            panic!("{}: compilation request panicked", faults::INJECTED_PANIC);
        }
        let cx = CompileCx::new(program, profiles)
            .with_fuel(fuel)
            .with_trace(sink)
            .with_speculation(req.speculation)
            .with_trials(trials);
        inliner.compile(method, &cx)
    };
    let corrupt = fault == Some(FaultKind::CorruptGraph);
    rung(program, method, CompileStage::Full, limit, corrupt, compile)
}

/// Ladder rung 2, and the bounded code cache's admission retry: an
/// inline-free compile of the method's own graph through the optimization
/// pipeline. Deliberately bypasses the configured inliner — a buggy
/// inliner must not poison this rung — and takes no injected fault, so it
/// always gets a fresh budget.
pub(crate) fn degraded_tier(
    program: &Program,
    method: MethodId,
    fuel_limit: u64,
    sink: &dyn TraceSink,
) -> RungResult {
    let compile = |fuel: &CompileFuel| {
        let mut graph = program.method(method).graph.clone();
        let before = graph.size();
        if !fuel.charge(before as u64) {
            return Err(CompileError::out_of_fuel(fuel));
        }
        let opt = incline_trace::optimize_with_trace(
            program,
            &mut graph,
            incline_opt::PipelineConfig::default(),
            fuel,
            sink,
            OptPhase::Degraded,
        );
        // Compaction keeps every reachable block whole: this is the size
        // the rung installs.
        let final_size = graph.size();
        Ok(CompileOutcome {
            graph,
            work_nodes: before + final_size,
            stats: InlineStats {
                rounds: 1,
                final_size: final_size as u64,
                opt_events: opt.stats.total(),
                ..InlineStats::default()
            },
        })
    };
    rung(
        program,
        method,
        CompileStage::Degraded,
        fuel_limit,
        false,
        compile,
    )
}

/// One attempt on one rung: `compile` runs behind the panic fence with a
/// budget of `fuel_limit` (`u64::MAX` = unmetered); its graph is then
/// compacted, damaged when `corrupt` asks, and verified. A failed attempt
/// is charged what it spent: the fuel it charged, or the work of the graph
/// the verifier rejected (a contained panic spent nothing it can name).
fn rung(
    program: &Program,
    method: MethodId,
    stage: CompileStage,
    fuel_limit: u64,
    corrupt: bool,
    compile: impl FnOnce(&CompileFuel) -> Result<CompileOutcome, CompileError>,
) -> RungResult {
    let fuel = if fuel_limit == u64::MAX {
        CompileFuel::unlimited()
    } else {
        CompileFuel::limited(fuel_limit)
    };
    let guarded =
        faults::with_quiet_panics(|| panic::catch_unwind(AssertUnwindSafe(|| compile(&fuel))));
    let mut outcome = match guarded {
        Ok(Ok(outcome)) => outcome,
        Ok(Err(e)) => return Err((e, fuel.spent())),
        Err(payload) => {
            return Err((CompileError::Panicked(panic_message(payload.as_ref())), 0));
        }
    };
    // Drop the tombstones passes leave behind, in place: installed code is
    // what `compiled_graph`, fingerprints and the identity tables read.
    outcome.graph.compact();
    if corrupt {
        faults::corrupt_graph(&mut outcome.graph);
    }
    match verify(program, method, &outcome.graph) {
        Ok(()) => Ok(InstallPackage { stage, outcome }),
        Err(e) => Err((e, outcome.work_nodes as u64)),
    }
}

/// The always-on installation gate: every graph is verified in every build
/// profile before it reaches the code cache.
fn verify(program: &Program, method: MethodId, graph: &Graph) -> Result<(), CompileError> {
    let decl = program.method(method);
    incline_ir::verify::verify_graph(program, graph, &decl.params, decl.ret)
        .map_err(|e| CompileError::Rejected(format!("{} (method {})", e.message, decl.name)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoInline;
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::Type;
    use incline_trace::NULL_SINK;

    fn straight_line_program() -> (Program, MethodId) {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let k = fb.const_int(1);
        let r = fb.iadd(x, k);
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(m, g);
        (p, m)
    }

    fn request(method: MethodId) -> CompileRequest {
        CompileRequest {
            method,
            fuel_limit: u64::MAX,
            fault: None,
            speculation: Speculation::default(),
            profiles: None,
            enqueued_at: 0,
        }
    }

    #[test]
    fn ladder_produces_full_tier_package() {
        let (p, m) = straight_line_program();
        let profiles = ProfileTable::new();
        let resp = run_ladder(&p, &profiles, &NoInline, &request(m), &NULL_SINK, None);
        assert!(resp.failures.is_empty());
        assert_eq!(resp.wasted_work, 0);
        let pkg = resp.package.expect("straight-line compile succeeds");
        assert_eq!(pkg.stage, CompileStage::Full);
    }

    #[test]
    fn injected_panic_fails_full_tier_only() {
        let (p, m) = straight_line_program();
        let profiles = ProfileTable::new();
        let mut req = request(m);
        req.fault = Some(FaultKind::PanicInCompile);
        let resp = run_ladder(&p, &profiles, &NoInline, &req, &NULL_SINK, None);
        assert_eq!(resp.failures.len(), 1);
        assert!(matches!(
            resp.failures[0],
            (CompileStage::Full, CompileError::Panicked(_))
        ));
        let pkg = resp.package.expect("degraded rung rescues the compile");
        assert_eq!(pkg.stage, CompileStage::Degraded);
    }
}
