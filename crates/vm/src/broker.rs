//! The background compile broker: per-request compilation off the mutator
//! path.
//!
//! The broker decouples *when a compilation is requested* from *where it
//! runs*. A hot-method trigger enqueues a [`CompileRequest`] — a
//! self-contained description of one compilation: the root method, the
//! compile-fuel budget, the injected fault (if any), the speculation policy
//! and (in pipelined mode) a profile snapshot. Requests drain through
//! [`process`]: with `threads == 0` they run inline on the mutator, with
//! `threads == N` a pool of scoped worker threads pulls them from a shared
//! queue. Either way each request runs the same pure function,
//! [`run_ladder`] — the full bailout ladder (panic-fenced full tier →
//! inline-free degraded tier, verify-before-install on both) — and returns a
//! [`CompileResponse`].
//!
//! # Determinism
//!
//! Responses carry everything the mutator needs to *apply* the result
//! (install or blacklist, counters, wasted-work charges) plus the
//! compilation's buffered trace events. Workers never touch shared VM state
//! and never emit into the machine's sink directly: each request's events go
//! into a private [`CollectingSink`] whose buffer index is the request's
//! per-method sequence number, and the mutator replays the buffers in
//! request-id order at the install safepoint. Compilation itself is a pure
//! function of `(program, profiles, inliner, request)`, so the *contents* of
//! every response are independent of thread count and arrival order — only
//! wall-clock timing differs, which the machine models separately with
//! virtual-time stall accounting. This is what makes `compile_threads ∈
//! {0, 1, N}` produce byte-identical observable behavior in deterministic
//! mode.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;

use incline_ir::{Graph, MethodId, Program};
use incline_opt::CompileFuel;
use incline_profile::ProfileTable;
use incline_trace::{CollectingSink, CompileEvent, OptPhase, TraceSink, NULL_SINK};

use crate::faults::{self, FaultKind};
use crate::inliner::{
    fuel_error, CompileCx, CompileError, CompileOutcome, InlineStats, Inliner, Speculation,
};
use crate::machine::CompileStage;

/// One compilation request, snapshotted at enqueue time so it can run on
/// any thread at any later point without observing mutator-side changes.
#[derive(Clone, Debug)]
pub struct CompileRequest {
    /// Request index: the Nth compilation the broker was asked for,
    /// counting from 0. Keys the fault plan and orders response
    /// application.
    pub id: u64,
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
    /// stall model: a worker cannot start the request before this point.
    pub enqueued_at: u64,
}

/// A verified graph ready for installation, produced by a ladder rung.
#[derive(Debug)]
pub struct InstallPackage {
    /// Which rung produced it.
    pub stage: CompileStage,
    /// The verified, compacted graph.
    pub graph: Graph,
    /// IR nodes processed (drives the simulated compilation latency).
    pub work_nodes: usize,
    /// Reporting counters.
    pub stats: InlineStats,
}

/// Everything a completed compilation hands back to the mutator.
#[derive(Debug)]
pub struct CompileResponse {
    /// The request's id (responses apply in id order).
    pub id: u64,
    /// The root method.
    pub method: MethodId,
    /// The request's injected fault (the install path needs the
    /// speculation faults).
    pub fault: Option<FaultKind>,
    /// The request's enqueue timestamp, echoed for the stall model.
    pub enqueued_at: u64,
    /// Fuel units burned by failed attempts, to be charged as wasted
    /// compile cycles (the cost model is linear, so one aggregate charge
    /// equals the synchronous broker's incremental charges).
    pub wasted_work: u64,
    /// Every rung failure, in ladder order.
    pub failures: Vec<(CompileStage, CompileError)>,
    /// The install package, or `None` if the whole ladder failed (the
    /// mutator blacklists the method).
    pub package: Option<InstallPackage>,
    /// The compilation's buffered trace events, in emission order. Empty
    /// when the machine's sink is disabled. The buffer index is this
    /// request's per-method sequence number; the mutator replays buffers
    /// in request-id order, which keeps merged streams byte-identical
    /// across thread counts.
    pub events: Vec<CompileEvent>,
    /// Host wall-clock nanoseconds the ladder spent on this request.
    /// Real time, not virtual time: feeds the compiler-throughput report
    /// only and never any deterministic observable.
    pub wall_nanos: u64,
}

/// The pending-request queue plus lifetime accounting, owned by the
/// mutator (workers see requests only after [`process`] moves them into
/// its own shared pool).
#[derive(Debug, Default)]
pub struct CompileQueue {
    pending: VecDeque<CompileRequest>,
    stats: QueueStats,
}

/// Lifetime counters of a [`CompileQueue`]. `enqueued == completed` after
/// every drain — the stress tests assert no request is ever lost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Requests ever enqueued.
    pub enqueued: u64,
    /// Responses applied (install *or* blacklist — every request completes).
    pub completed: u64,
    /// Responses that installed code.
    pub installed: u64,
}

impl CompileQueue {
    /// Appends a request.
    pub(crate) fn push(&mut self, request: CompileRequest) {
        self.stats.enqueued += 1;
        self.pending.push_back(request);
    }

    /// Removes and returns all pending requests, in enqueue order.
    pub(crate) fn take_all(&mut self) -> Vec<CompileRequest> {
        self.pending.drain(..).collect()
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
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no requests are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

fn make_fuel(limit: u64) -> CompileFuel {
    if limit == u64::MAX {
        CompileFuel::unlimited()
    } else {
        CompileFuel::limited(limit)
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

/// How one ladder rung ended: a verified package plus wasted fuel units,
/// or an error plus wasted fuel units.
type RungResult = Result<InstallPackage, (CompileError, u64)>;

/// Runs the whole bailout ladder for one request. Pure with respect to the
/// VM: reads only the program, the (snapshotted or live) profiles and the
/// inliner; all effects are returned in the [`CompileResponse`]. Safe to
/// call from any thread.
pub(crate) fn run_ladder(
    program: &Program,
    live_profiles: &ProfileTable,
    inliner: &dyn Inliner,
    req: &CompileRequest,
    tracing: bool,
    trials: Option<&crate::trials::TrialCache>,
) -> CompileResponse {
    let started = std::time::Instant::now();
    let profiles = req.profiles.as_ref().unwrap_or(live_profiles);
    let buffer = CollectingSink::new();
    let sink: &dyn TraceSink = if tracing { &buffer } else { &NULL_SINK };
    let mut wasted_work = 0u64;
    let mut failures = Vec::new();
    let mut package = None;
    for stage in [CompileStage::Full, CompileStage::Degraded] {
        let attempt = match stage {
            CompileStage::Full => full_tier(program, profiles, inliner, req, sink, trials),
            CompileStage::Degraded => degraded_tier(program, req, sink),
        };
        match attempt {
            Ok(pkg) => {
                package = Some(pkg);
                break;
            }
            Err((error, waste)) => {
                wasted_work += waste;
                if tracing {
                    buffer.emit(CompileEvent::Bailout {
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
        id: req.id,
        method: req.method,
        fault: req.fault,
        enqueued_at: req.enqueued_at,
        wasted_work,
        failures,
        package,
        events: buffer.take(),
        wall_nanos: started.elapsed().as_nanos() as u64,
    }
}

/// Ladder rung 1: the configured inliner, panic-fenced and metered.
fn full_tier(
    program: &Program,
    profiles: &ProfileTable,
    inliner: &dyn Inliner,
    req: &CompileRequest,
    sink: &dyn TraceSink,
    trials: Option<&crate::trials::TrialCache>,
) -> RungResult {
    let fuel = if req.fault == Some(FaultKind::ExhaustFuel) {
        CompileFuel::limited(0)
    } else {
        make_fuel(req.fuel_limit)
    };
    let cx = CompileCx::new(program, profiles)
        .with_fuel(&fuel)
        .with_trace(sink)
        .with_speculation(req.speculation)
        .with_trials(trials);
    let fault = req.fault;
    let method = req.method;
    let guarded = faults::with_quiet_panics(|| {
        panic::catch_unwind(AssertUnwindSafe(|| {
            if fault == Some(FaultKind::PanicInCompile) {
                panic!("{}: compilation request panicked", faults::INJECTED_PANIC);
            }
            inliner.compile(method, &cx)
        }))
    });
    let outcome = match guarded {
        // A failed attempt still burned the fuel it charged.
        Ok(Err(e)) => return Err((e, fuel.spent())),
        Ok(Ok(outcome)) => outcome,
        Err(payload) => {
            return Err((CompileError::Panicked(panic_message(payload.as_ref())), 0));
        }
    };
    let CompileOutcome {
        graph,
        work_nodes,
        stats,
    } = outcome;
    // Drop the tombstones passes leave behind: the interpreter sizes
    // its register file by value_count, so installing compacted code
    // is part of "code generation".
    let mut graph = graph.compacted();
    if fault == Some(FaultKind::CorruptGraph) {
        faults::corrupt_graph(&mut graph);
    }
    match verify(program, method, &graph) {
        Ok(()) => Ok(InstallPackage {
            stage: CompileStage::Full,
            graph,
            work_nodes,
            stats,
        }),
        // The rejected graph's compile effort is still paid for.
        Err(e) => Err((e, work_nodes as u64)),
    }
}

/// Ladder rung 2: an inline-free compile of the method's own graph through
/// the optimization pipeline. Deliberately bypasses the configured inliner —
/// a buggy inliner must not poison this rung. Injected compile-path faults
/// target the full tier only; the degraded tier always gets a fresh budget.
fn degraded_tier(program: &Program, req: &CompileRequest, sink: &dyn TraceSink) -> RungResult {
    let fuel = make_fuel(req.fuel_limit);
    let method = req.method;
    let guarded = faults::with_quiet_panics(|| {
        panic::catch_unwind(AssertUnwindSafe(|| {
            let mut graph = program.method(method).graph.clone();
            let before = graph.size();
            if !fuel.charge(before as u64) {
                return Err(fuel_error(&fuel));
            }
            let opt = incline_trace::optimize_with_trace(
                program,
                &mut graph,
                incline_opt::PipelineConfig::default(),
                &fuel,
                sink,
                OptPhase::Degraded,
            );
            Ok((graph, before, opt.stats.total()))
        }))
    });
    let (graph, before, opt_events) = match guarded {
        Ok(Err(e)) => return Err((e, fuel.spent())),
        Ok(Ok(parts)) => parts,
        Err(payload) => {
            return Err((CompileError::Panicked(panic_message(payload.as_ref())), 0));
        }
    };
    let graph = graph.compacted();
    let final_size = graph.size();
    let stats = InlineStats {
        inlined_calls: 0,
        rounds: 1,
        explored_nodes: 0,
        final_size: final_size as u64,
        opt_events,
        speculative_sites: 0,
    };
    match verify(program, method, &graph) {
        Ok(()) => Ok(InstallPackage {
            stage: CompileStage::Degraded,
            graph,
            work_nodes: before + final_size,
            stats,
        }),
        Err(e) => Err((e, 0)),
    }
}

/// Runs the degraded (inline-free) rung alone, outside the ladder — the
/// bounded code cache's admission-failure fallback. When a full-tier
/// package is too big to admit under the budget, the mutator retries with
/// this smaller package before deferring the compile entirely. The rung
/// verifies its graph like any other; `None` means it failed and the
/// caller must defer. Runs on the mutator, so its events go straight into
/// the machine's sink in deterministic order.
pub(crate) fn degraded_package(
    program: &Program,
    method: MethodId,
    fuel_limit: u64,
    sink: &dyn TraceSink,
) -> Option<InstallPackage> {
    let req = CompileRequest {
        id: u64::MAX,
        method,
        fuel_limit,
        fault: None,
        speculation: Speculation::default(),
        profiles: None,
        enqueued_at: 0,
    };
    degraded_tier(program, &req, sink).ok()
}

/// The always-on installation gate: every graph is verified in every build
/// profile before it reaches the code cache.
fn verify(program: &Program, method: MethodId, graph: &Graph) -> Result<(), CompileError> {
    let decl = program.method(method);
    incline_ir::verify::verify_graph(program, graph, &decl.params, decl.ret)
        .map_err(|e| CompileError::Rejected(format!("{} (method {})", e.message, decl.name)))
}

/// Runs a batch of requests and returns the responses sorted by request id.
///
/// `threads == 0` compiles inline on the calling thread. `threads >= 1`
/// spawns `min(threads, requests)` scoped workers that pull requests from a
/// shared queue — real concurrency, bounded by the pool size. Both paths
/// produce identical responses ([`run_ladder`] is pure); sorting by id
/// erases completion-order nondeterminism before the mutator applies them.
pub(crate) fn process(
    program: &Program,
    inliner: &dyn Inliner,
    live_profiles: &ProfileTable,
    requests: Vec<CompileRequest>,
    threads: usize,
    tracing: bool,
    trials: Option<&crate::trials::TrialCache>,
) -> Vec<CompileResponse> {
    let mut responses = if threads == 0 || requests.len() <= 1 {
        requests
            .iter()
            .map(|req| run_ladder(program, live_profiles, inliner, req, tracing, trials))
            .collect::<Vec<_>>()
    } else {
        let workers = threads.min(requests.len());
        let queue = Mutex::new(VecDeque::from(requests));
        let done = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    // Take the next request; the lock is released before
                    // compiling so workers overlap.
                    let next = queue.lock().expect("queue lock").pop_front();
                    let Some(req) = next else { break };
                    let resp = run_ladder(program, live_profiles, inliner, &req, tracing, trials);
                    done.lock().expect("done lock").push(resp);
                });
            }
        });
        done.into_inner().expect("done lock")
    };
    responses.sort_by_key(|r| r.id);
    responses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inliner::NoInline;
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::Type;

    fn straight_line_program(functions: usize) -> (Program, Vec<MethodId>) {
        let mut p = Program::new();
        let mut ids = Vec::new();
        for i in 0..functions {
            let m = p.declare_function(format!("f{i}"), vec![Type::Int], Type::Int);
            let mut fb = FunctionBuilder::new(&p, m);
            let x = fb.param(0);
            let k = fb.const_int(i as i64);
            let r = fb.iadd(x, k);
            fb.ret(Some(r));
            let g = fb.finish();
            p.define_method(m, g);
            ids.push(m);
        }
        (p, ids)
    }

    fn request(id: u64, method: MethodId) -> CompileRequest {
        CompileRequest {
            id,
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
        let (p, ids) = straight_line_program(1);
        let profiles = ProfileTable::new();
        let resp = run_ladder(&p, &profiles, &NoInline, &request(0, ids[0]), false, None);
        assert_eq!(resp.id, 0);
        assert!(resp.failures.is_empty());
        assert_eq!(resp.wasted_work, 0);
        let pkg = resp.package.expect("straight-line compile succeeds");
        assert_eq!(pkg.stage, CompileStage::Full);
    }

    #[test]
    fn injected_panic_fails_full_tier_only() {
        let (p, ids) = straight_line_program(1);
        let profiles = ProfileTable::new();
        let mut req = request(0, ids[0]);
        req.fault = Some(FaultKind::PanicInCompile);
        let resp = run_ladder(&p, &profiles, &NoInline, &req, false, None);
        assert_eq!(resp.failures.len(), 1);
        assert!(matches!(
            resp.failures[0],
            (CompileStage::Full, CompileError::Panicked(_))
        ));
        let pkg = resp.package.expect("degraded rung rescues the compile");
        assert_eq!(pkg.stage, CompileStage::Degraded);
    }

    #[test]
    fn worker_pool_matches_inline_processing() {
        let (p, ids) = straight_line_program(12);
        let profiles = ProfileTable::new();
        let requests: Vec<CompileRequest> = ids
            .iter()
            .enumerate()
            .map(|(i, &m)| request(i as u64, m))
            .collect();
        let inline = process(&p, &NoInline, &profiles, requests.clone(), 0, true, None);
        let pooled = process(&p, &NoInline, &profiles, requests, 4, true, None);
        assert_eq!(inline.len(), pooled.len());
        for (a, b) in inline.iter().zip(&pooled) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.method, b.method);
            assert_eq!(a.events, b.events, "trace buffers must match exactly");
            assert_eq!(
                a.package.as_ref().map(|p| (p.stage, p.work_nodes)),
                b.package.as_ref().map(|p| (p.stage, p.work_nodes)),
            );
        }
    }
}
