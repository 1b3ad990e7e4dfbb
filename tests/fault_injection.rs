//! End-to-end fault-containment tests: deterministic compiler faults are
//! injected into real benchmark runs, and every one of them must be
//! contained by the bailout ladder — the program still completes with
//! the answer of the reference evaluator, the always-on verifier keeps
//! corrupt graphs out of the code cache, and the bailout counters (exposed
//! through both [`Machine`] and [`BenchResult`]) are identical across
//! identical runs. That a fault plan lands the same whatever the modelled
//! worker count is checked by the `*_across_worker_pools` tests, which are
//! rows of the conformance matrix (`support/matrix.rs`).

mod support;

use std::sync::Arc;

use incline::ir::MethodId;
use incline::prelude::*;
use incline::vm::BenchResult;
use incline::workloads::Workload;
use support::matrix::{run, with_threads, Faults, Row, Snap};
use support::{answer, reference};

/// `faults` over the named workloads, ten repetitions each, lands the same
/// with four modelled workers as with none.
fn pool_twin(faults: Faults, snapshot: Snap, deopt: bool) {
    let config = config(deopt);
    run([Row {
        config,
        faults,
        snapshot,
        iterations: 10,
        twins: with_threads(config, &[4]),
        ..Row::default()
    }]);
}

#[test]
fn seeded_fault_counters_are_identical_across_worker_pools() {
    pool_twin(Faults::Seeded, Snap::Cold, false);
}

#[test]
fn force_evict_counters_are_identical_across_worker_pools() {
    pool_twin(Faults::EvictStorm, Snap::Cold, false);
}

#[test]
fn poison_counters_are_identical_across_worker_pools() {
    pool_twin(Faults::PoisonEntry, Snap::Replay, true);
}

fn workload() -> Workload {
    incline::workloads::by_name("scalatest").expect("benchmark exists")
}

fn config(deopt: bool) -> VmConfig {
    VmConfig {
        hotness_threshold: 2,
        deopt,
        ..VmConfig::default()
    }
}

/// Runs `entry(input)` of `p` `runs` times, hot under the incremental
/// inliner with `plan` injected, checking every answer against the
/// reference evaluator's. Returns the machine and the events it traced.
fn run_faulted(
    p: &Program,
    entry: MethodId,
    input: i64,
    plan: FaultPlan,
    runs: usize,
    deopt: bool,
) -> (Machine<'_>, Vec<CompileEvent>) {
    let expected = reference::run(p, entry, &[input]).expect("no trap");
    let sink = Arc::new(CollectingSink::new());
    let mut vm = Machine::new(p, Box::new(IncrementalInliner::new()), config(deopt));
    vm.set_fault_plan(plan);
    vm.set_trace_sink(sink.clone());
    for _ in 0..runs {
        let out = vm
            .run(entry, vec![Value::Int(input)])
            .expect("run completes");
        assert_eq!(answer(&out), expected, "the answer must be the oracle's");
    }
    (vm, sink.take())
}

/// [`run_faulted`] on the workload's entry at input 4.
fn run_workload(
    w: &Workload,
    plan: FaultPlan,
    runs: usize,
    deopt: bool,
) -> (Machine<'_>, Vec<CompileEvent>) {
    run_faulted(&w.program, w.entry, 4, plan, runs, deopt)
}

/// The workload at input 4 through the benchmark runner, which exposes
/// the counters in [`BenchResult`].
fn session(w: &Workload, iterations: usize, deopt: bool) -> RunSession<'_> {
    let spec = BenchSpec {
        entry: w.entry,
        args: vec![Value::Int(4)],
        iterations,
    };
    let session = RunSession::new(&w.program, spec).config(config(deopt));
    session.inliner(Box::new(IncrementalInliner::new()))
}

fn bench_faulted(w: &Workload, plan: FaultPlan) -> BenchResult {
    let session = session(w, 10, false).faults(plan);
    session.run().expect("faulted benchmark completes")
}

#[test]
fn injected_panic_is_contained_and_ladder_completes() {
    let w = workload();
    let plan = FaultPlan::new().inject(0, FaultKind::PanicInCompile);
    let (vm, _) = run_workload(&w, plan, 8, false);
    let b = vm.bailouts();
    assert_eq!(
        b.contained_panics, 1,
        "the injected panic must be caught exactly once"
    );
    assert_eq!(b.full_tier, 1, "the panic costs the full tier one bailout");
    assert_eq!(b.degraded_tier, 0, "the degraded tier absorbs the panic");
    assert!(
        b.blacklisted == 0,
        "nothing reaches the interpreter blacklist"
    );
    assert!(
        vm.compilations() >= 1,
        "the bailout ladder still installs code"
    );
    assert!(vm.report().blacklisted.is_empty());
}

#[test]
fn corrupted_graph_is_rejected_never_installed() {
    let w = workload();
    let plan = FaultPlan::new().inject(0, FaultKind::CorruptGraph);
    let (vm, _) = run_workload(&w, plan, 8, false);
    let b = vm.bailouts();
    assert_eq!(
        b.verifier_rejections, 1,
        "the verifier must reject the corrupt graph"
    );
    assert_eq!(b.full_tier, 1);
    assert_eq!(b.degraded_tier, 0, "the inline-free recompile succeeds");
    // Correct outputs across all runs (checked in run_faulted) prove the
    // corrupt graph never executed; the degraded tier's graph did.
    assert!(vm.compilations() >= 1);
}

#[test]
fn exhausted_budget_falls_back_to_cheaper_tier() {
    let w = workload();
    let plan = FaultPlan::new().inject(0, FaultKind::ExhaustFuel);
    let (vm, _) = run_workload(&w, plan, 8, false);
    let b = vm.bailouts();
    assert_eq!(
        b.fuel_exhaustions, 1,
        "the full tier must report the blown budget"
    );
    assert_eq!(b.full_tier, 1);
    assert_eq!(
        b.degraded_tier, 0,
        "the degraded tier runs on the normal budget"
    );
    assert!(
        vm.compilations() >= 1,
        "the cheaper tier still produces code"
    );
}

#[test]
fn every_seeded_fault_is_contained() {
    let w = workload();
    let plan = FaultPlan::seeded(0xFA17, 16, 0.5);
    assert!(
        !plan.is_empty(),
        "the seed must schedule faults for this test to bite"
    );
    let (vm, _) = run_workload(&w, plan.clone(), 10, false);
    // Every fault whose request index was actually reached costs the full
    // tier exactly one bailout — no fault escapes, none double-counts.
    let requests = vm.report().compile_requests;
    let triggered = plan
        .entries()
        .filter(|&(request, _)| request < requests)
        .count() as u64;
    assert!(
        triggered > 0,
        "the run must reach at least one scheduled fault"
    );
    assert_eq!(vm.bailouts().full_tier, triggered);
    assert_eq!(
        vm.bailouts().degraded_tier,
        0,
        "the degraded tier absorbs every fault"
    );
    assert_eq!(vm.report().bailout_log.len() as u64, triggered);
}

#[test]
fn worker_thread_panics_are_contained_by_the_ladder() {
    // Two compilations in a row panic. The ladder's catch_unwind fence sits
    // on the mutator's own stack, around each rung, so a panic must neither
    // abort the process nor leave the machine half-updated: it is counted,
    // the degraded rung installs code, and nothing is blacklisted.
    let w = workload();
    let plan = FaultPlan::new()
        .inject(0, FaultKind::PanicInCompile)
        .inject(1, FaultKind::PanicInCompile);
    let (vm, _) = run_workload(&w, plan, 8, false);
    let b = vm.bailouts();
    assert_eq!(b.contained_panics, 2, "both panics must be caught");
    assert_eq!(b.full_tier, 2, "each panic costs one full-tier bailout");
    assert_eq!(b.degraded_tier, 0, "the degraded tier absorbs the panics");
    assert_eq!(b.blacklisted, 0, "nothing reaches the blacklist");
    assert!(vm.compilations() >= 1, "the ladder still installs code");
    assert!(vm.report().blacklisted.is_empty());
}

#[test]
fn bench_result_surfaces_bailout_counters() {
    let w = workload();
    let clean = bench_faulted(&w, FaultPlan::new());
    assert_eq!(clean.bailouts.total(), 0, "no faults, no bailouts");
    let faulted = bench_faulted(&w, FaultPlan::new().inject(0, FaultKind::PanicInCompile));
    assert_eq!(faulted.bailouts.contained_panics, 1);
    assert_eq!(faulted.bailouts.full_tier, 1);
    assert!(
        faulted.compilations >= 1,
        "the benchmark still reaches compiled code"
    );
}

// ---- speculation faults: deopt, drift, storms ------------------------------

/// A program with a single compilable method, so every compilation request
/// index targets it — the deterministic substrate for storm scenarios.
fn single_method_program() -> (Program, MethodId) {
    let mut p = Program::new();
    let m = p.declare_function("dbl", vec![incline::ir::Type::Int], incline::ir::Type::Int);
    let mut fb = FunctionBuilder::new(&p, m);
    let x = fb.param(0);
    let y = fb.iadd(x, x);
    fb.ret(Some(y));
    let g = fb.finish();
    p.define_method(m, g);
    (p, m)
}

/// `dbl(21)` of [`single_method_program`] run 80 times, `kind` injected
/// into its first five compile requests.
fn storm(
    p: &Program,
    m: MethodId,
    kind: FaultKind,
    deopt: bool,
) -> (Machine<'_>, Vec<CompileEvent>) {
    let plan = (0..=4).fold(FaultPlan::new(), |plan, request| plan.inject(request, kind));
    run_faulted(p, m, 21, plan, 80, deopt)
}

#[test]
fn force_deopt_triggers_one_invalidate_reprofile_recompile_cycle() {
    let w = workload();
    let plan = FaultPlan::new().inject(0, FaultKind::ForceDeopt);
    let (vm, _) = run_workload(&w, plan, 8, true);
    let b = vm.bailouts();
    assert_eq!(b.deopts, 1, "the injected trap fires exactly once");
    assert_eq!(b.invalidations, 1, "the trapped code must be invalidated");
    assert!(
        b.recompiles >= 1,
        "the method must come back through the broker"
    );
    assert_eq!(b.pinned, 0, "one deopt is far from the storm cap");
    assert!(vm.report().pinned.is_empty());
    assert_eq!(b.total(), 0, "deoptimization is not a compile-path bailout");
}

#[test]
fn force_deopt_storm_trips_the_cap_and_pins() {
    let (p, m) = single_method_program();
    let (vm, events) = storm(&p, m, FaultKind::ForceDeopt, true);
    let b = vm.bailouts();
    // Requests 0..=3 install trapped code (4 deopts); at request 4 the
    // recompile count has reached the cap, so the method is pinned first
    // and the scheduled fault is ignored for pinned code.
    assert_eq!(b.deopts, 4);
    assert_eq!(b.invalidations, 4);
    assert_eq!(b.recompiles, 4);
    assert_eq!(b.pinned, 1);
    assert_eq!(vm.report().pinned, vec![m]);
    assert!(
        vm.installed_bytes() > 0,
        "the pinned method still runs compiled"
    );
    let count = |name: &str| events.iter().filter(|e| e.name() == name).count();
    assert_eq!(count("Deoptimized"), 4);
    assert_eq!(count("CodeInvalidated"), 4);
    assert_eq!(count("Recompiled"), 4);
    assert_eq!(count("SpeculationPinned"), 1);
}

#[test]
fn force_guard_failure_trips_the_drift_monitor() {
    let w = workload();
    let plan = FaultPlan::new().inject(0, FaultKind::ForceGuardFailure);
    let (vm, events) = run_workload(&w, plan, 10, true);
    let b = vm.bailouts();
    assert!(
        b.deopts >= 1,
        "the armed drift monitor must eventually trip"
    );
    assert!(b.invalidations >= 1);
    assert!(
        events
            .iter()
            .any(|e| matches!(e, CompileEvent::Deoptimized { reason, .. } if reason == "drift")),
        "the deopt reason must identify the drift monitor"
    );
}

#[test]
fn force_deopt_counters_are_deterministic() {
    let (p, m) = single_method_program();
    let run = || {
        let (vm, _) = storm(&p, m, FaultKind::ForceDeopt, true);
        let report = vm.report();
        (
            report.bailouts,
            report.compile_requests,
            report.installed_bytes,
        )
    };
    assert_eq!(run(), run(), "storm runs must be byte-identical");
}

// ---- code-cache faults: forced eviction ------------------------------------

#[test]
fn force_evict_triggers_evict_reprofile_retier_cycle() {
    // The eviction analogue of the ForceDeopt cycle test: the freshly
    // installed code is immediately evicted (as if cache pressure picked
    // it), the method drops back to the interpreter, re-heats through the
    // normal hotness path, and re-tiers — with correct output throughout
    // and no bailout-ladder involvement at all.
    let w = workload();
    let plan = FaultPlan::new().inject(0, FaultKind::ForceEvict);
    let (vm, events) = run_workload(&w, plan, 8, false);
    let stats = vm.report().cache;
    assert_eq!(
        stats.forced_evictions, 1,
        "the injected eviction fires once"
    );
    assert_eq!(stats.evictions, 1);
    assert!(
        stats.re_tiered >= 1,
        "the evicted method must come back through the hotness path"
    );
    assert_eq!(
        vm.bailouts().total(),
        0,
        "eviction is not a compile-path bailout"
    );
    assert_eq!(
        vm.bailouts().invalidations,
        0,
        "eviction is not a speculation event"
    );
    assert!(vm.report().blacklisted.is_empty());
    let count = |name: &str| events.iter().filter(|e| e.name() == name).count();
    assert_eq!(count("CodeEvicted"), 1);
    assert!(count("ReTiered") >= 1);
    assert!(
        events
            .iter()
            .any(|e| matches!(e, CompileEvent::CodeEvicted { policy, .. } if policy == "forced")),
        "the eviction must be labeled as forced"
    );
}

#[test]
fn force_evict_storm_cycles_without_pinning_or_blacklisting() {
    // Five consecutive compilations of the same method are each evicted the
    // moment they install. Unlike a deopt storm there is no cap to trip:
    // eviction says nothing about the code's correctness, so the method
    // just keeps re-heating and re-tiering until the faults run out, and
    // the sixth install sticks.
    let (p, m) = single_method_program();
    let (vm, events) = storm(&p, m, FaultKind::ForceEvict, false);
    let stats = vm.report().cache;
    assert_eq!(stats.forced_evictions, 5, "every scheduled eviction fires");
    assert_eq!(stats.evictions, 5);
    assert_eq!(
        stats.re_tiered, 5,
        "requests 1..=5 each reinstall a previously evicted method"
    );
    let b = vm.bailouts();
    assert_eq!(b.total(), 0, "the bailout ladder never gets involved");
    assert_eq!(b.pinned, 0, "eviction storms must not pin");
    assert!(vm.report().pinned.is_empty());
    assert!(vm.report().blacklisted.is_empty());
    assert!(
        vm.installed_bytes() > 0,
        "the post-storm install must stick"
    );
    let count = |name: &str| events.iter().filter(|e| e.name() == name).count();
    assert_eq!(count("CodeEvicted"), 5);
    assert_eq!(count("ReTiered"), 5);
    assert_eq!(count("CodeInstalled"), 6);
}

// ---- snapshot faults: poisoned warmup state --------------------------------

/// Cold-runs `w` with deopt enabled and returns the result plus the
/// snapshot it wrote — the warmup state the poison tests then corrupt.
fn snapshot_of(w: &Workload, iterations: usize) -> (BenchResult, Vec<u8>) {
    let store = SnapshotIo::memory();
    let session = session(w, iterations, true).snapshot_out(store.clone());
    let r = session.run().expect("cold run completes");
    (r, store.bytes().expect("snapshot written"))
}

/// The decision-log index of `w.entry` in `bytes` — the one decision
/// guaranteed to activate standalone every iteration (leaf decisions can
/// be inlined into their callers and never run their own code, in which
/// case poisoning them is a no-op).
fn entry_decision_idx(w: &Workload, bytes: &[u8]) -> u64 {
    use incline::snapshot::Snapshot;
    let snap = Snapshot::from_bytes(bytes).expect("snapshot parses");
    snap.decisions
        .iter()
        .position(|&m| m == w.entry)
        .expect("the benchmark entry must be hot enough to be decided") as u64
}

/// A warm session of `w` from `bytes` with `plan` injected.
fn poisoned(w: &Workload, bytes: Vec<u8>, plan: FaultPlan, iterations: usize) -> RunSession<'_> {
    session(w, iterations, true).faults(plan).snapshot_in(bytes)
}

#[test]
fn poison_snapshot_quarantines_without_burning_recompiles() {
    let w = workload();
    let (cold, bytes) = snapshot_of(&w, 10);
    let idx = entry_decision_idx(&w, &bytes);
    let plan = FaultPlan::new().inject(0, FaultKind::PoisonSnapshot { decision_idx: idx });
    let out = poisoned(&w, bytes, plan, 10)
        .run()
        .expect("poisoned run completes");
    assert_eq!(
        out.answer_digest(),
        cold.answer_digest(),
        "a poisoned decision must never change the answer"
    );
    assert_eq!(out.snapshot.poisoned, 1, "the quarantine must be counted");
    assert_eq!(
        out.bailouts.deopts, 1,
        "the poisoned code traps exactly once"
    );
    assert_eq!(
        out.bailouts.recompiles, 0,
        "quarantine bypasses the invalidate -> recompile path entirely"
    );
    assert_eq!(out.bailouts.pinned, 0, "no method reaches the storm cap");
}

#[test]
fn poison_snapshot_emits_the_quarantine_event() {
    let w = workload();
    let (_, bytes) = snapshot_of(&w, 10);
    let idx = entry_decision_idx(&w, &bytes);
    let sink = Arc::new(CollectingSink::new());
    let plan = FaultPlan::new().inject(0, FaultKind::PoisonSnapshot { decision_idx: idx });
    let session = poisoned(&w, bytes, plan, 10).trace(sink.clone());
    session.run().expect("poisoned run completes");
    let events = sink.take();
    let poisoned: Vec<_> = events
        .iter()
        .filter(|e| e.name() == "DecisionPoisoned")
        .collect();
    assert_eq!(poisoned.len(), 1, "exactly one quarantine event");
    assert!(
        matches!(
            poisoned[0],
            CompileEvent::DecisionPoisoned { activations, .. } if *activations >= 1
        ),
        "the event carries the activation count inside the window"
    );
}

#[test]
fn poison_snapshot_excludes_the_decision_from_the_next_snapshot() {
    use incline::snapshot::Snapshot;
    let w = workload();
    let (_, bytes) = snapshot_of(&w, 10);
    let idx = entry_decision_idx(&w, &bytes);
    let original = Snapshot::from_bytes(&bytes).expect("snapshot parses");
    let victim = original.decisions[idx as usize];
    // One iteration: the poisoned method traps on its first activation and
    // its subtracted profile cannot re-cross the tier threshold, so the
    // re-snapshot must not carry any decision for it.
    let store = SnapshotIo::memory();
    let plan = FaultPlan::new().inject(0, FaultKind::PoisonSnapshot { decision_idx: idx });
    let session = poisoned(&w, bytes, plan, 1).snapshot_out(store.clone());
    let out = session.run().expect("poisoned run completes");
    assert_eq!(out.snapshot.poisoned, 1);
    let next = Snapshot::from_bytes(&store.bytes().expect("re-snapshot written"))
        .expect("re-snapshot parses");
    assert!(
        !next.decisions.contains(&victim),
        "the poisoned decision must be excluded from snapshot_out"
    );
    assert!(
        next.decisions.len() < original.decisions.len(),
        "the re-snapshot shrinks by the quarantined decision"
    );
}

#[test]
fn poison_every_decision_degrades_to_cold_start_without_storms() {
    use incline::snapshot::Snapshot;
    let w = workload();
    let (cold, bytes) = snapshot_of(&w, 12);
    let n = Snapshot::from_bytes(&bytes)
        .expect("snapshot parses")
        .decisions
        .len() as u64;
    assert!(n >= 2, "the workload must log several decisions");
    let mut plan = FaultPlan::new();
    for idx in 0..n {
        plan = plan.inject(idx, FaultKind::PoisonSnapshot { decision_idx: idx });
    }
    let out = poisoned(&w, bytes, plan, 12)
        .run()
        .expect("poisoned run completes");
    assert_eq!(
        out.answer_digest(),
        cold.answer_digest(),
        "a fully poisoned snapshot must still compute cold answers"
    );
    assert!(
        out.snapshot.poisoned >= 1,
        "every activated replayed decision is quarantined"
    );
    assert!(out.snapshot.poisoned <= n);
    assert_eq!(
        out.bailouts.recompiles, 0,
        "quarantine must not feed the recompile storm throttle"
    );
    assert_eq!(out.bailouts.pinned, 0, "no method may end up pinned");
    assert!(
        out.compilations >= out.snapshot.poisoned,
        "quarantined methods re-earn their tier through the cold path"
    );
}

#[test]
fn faulted_runs_are_deterministic() {
    let w = workload();
    let plan = FaultPlan::seeded(0xFA17, 16, 0.5);
    let a = bench_faulted(&w, plan.clone());
    let b = bench_faulted(&w, plan);
    assert_eq!(
        a.bailouts, b.bailouts,
        "bailout counters must be reproducible"
    );
    assert_eq!(
        a.per_iteration, b.per_iteration,
        "cycle counts must be reproducible"
    );
    assert_eq!(a.compilations, b.compilations);
    assert_eq!(a.installed_bytes, b.installed_bytes);
    assert!(
        a.bailouts.total() > 0,
        "the plan must actually fault to make this meaningful"
    );
}
