//! End-to-end fault-containment tests: deterministic compiler faults are
//! injected into real benchmark runs, and every one of them must be
//! contained by the bailout ladder — the program still completes with
//! output identical to the interpreted reference, the always-on verifier
//! keeps corrupt graphs out of the code cache, and the bailout counters
//! (exposed through both [`Machine`] and [`BenchResult`]) are identical
//! across identical runs.

use incline::prelude::*;
use incline::vm::BenchResult;
use incline::workloads::Workload;

fn workload() -> Workload {
    incline::workloads::by_name("scalatest").expect("benchmark exists")
}

/// Interpreted reference output for the workload (the ground truth every
/// faulted run must still match).
fn reference(w: &Workload, input: i64) -> (Option<Value>, String) {
    let mut vm = Machine::new(
        &w.program,
        Box::new(NoInline),
        VmConfig {
            jit: false,
            ..VmConfig::default()
        },
    );
    let out = vm
        .run(w.entry, vec![Value::Int(input)])
        .expect("reference runs");
    (out.value, out.output.to_string())
}

/// Runs the workload hot under the incremental inliner with `plan`
/// injected, returning the machine for counter inspection after checking
/// every run's output against the interpreted reference.
fn run_faulted(w: &Workload, plan: FaultPlan, runs: usize) -> Machine<'_> {
    let input = 4;
    let expected = reference(w, input);
    let config = VmConfig {
        hotness_threshold: 2,
        ..VmConfig::default()
    };
    let mut vm = Machine::new(&w.program, Box::new(IncrementalInliner::new()), config);
    vm.set_fault_plan(plan);
    for _ in 0..runs {
        let out = vm
            .run(w.entry, vec![Value::Int(input)])
            .expect("faulted run completes");
        assert_eq!(
            out.value, expected.0,
            "result must match interpreted reference"
        );
        assert_eq!(
            out.output.to_string(),
            expected.1,
            "output must match interpreted reference"
        );
    }
    vm
}

/// Same scenario through the benchmark runner, exposing counters in
/// [`BenchResult`].
fn bench_faulted(w: &Workload, plan: FaultPlan) -> BenchResult {
    let spec = BenchSpec {
        entry: w.entry,
        args: vec![Value::Int(4)],
        iterations: 10,
    };
    let config = VmConfig {
        hotness_threshold: 2,
        ..VmConfig::default()
    };
    RunSession::new(&w.program, spec)
        .inliner(Box::new(IncrementalInliner::new()))
        .config(config)
        .faults(plan)
        .run()
        .expect("faulted benchmark completes")
}

#[test]
fn injected_panic_is_contained_and_ladder_completes() {
    let w = workload();
    let plan = FaultPlan::new().inject(0, FaultKind::PanicInCompile);
    let vm = run_faulted(&w, plan, 8);
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
    assert!(vm.blacklisted_methods().is_empty());
}

#[test]
fn corrupted_graph_is_rejected_never_installed() {
    let w = workload();
    let plan = FaultPlan::new().inject(0, FaultKind::CorruptGraph);
    let vm = run_faulted(&w, plan, 8);
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
    let vm = run_faulted(&w, plan, 8);
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
    let vm = run_faulted(&w, plan.clone(), 10);
    // Every fault whose request index was actually reached costs the full
    // tier exactly one bailout — no fault escapes, none double-counts.
    let triggered = plan
        .entries()
        .filter(|&(request, _)| request < vm.compile_requests())
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
    assert_eq!(vm.bailout_log().len() as u64, triggered);
}

/// Like [`run_faulted`] but with an explicit modelled worker count.
fn run_faulted_threads(w: &Workload, plan: FaultPlan, runs: usize, threads: usize) -> Machine<'_> {
    let input = 4;
    let expected = reference(w, input);
    let config = VmConfig {
        hotness_threshold: 2,
        compile_threads: threads,
        ..VmConfig::default()
    };
    let mut vm = Machine::new(&w.program, Box::new(IncrementalInliner::new()), config);
    vm.set_fault_plan(plan);
    for _ in 0..runs {
        let out = vm
            .run(w.entry, vec![Value::Int(input)])
            .expect("faulted run completes");
        assert_eq!(out.value, expected.0, "result must match reference");
        assert_eq!(out.output.to_string(), expected.1, "output must match");
    }
    vm
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
    let vm = run_faulted_threads(&w, plan, 8, 4);
    let b = vm.bailouts();
    assert_eq!(b.contained_panics, 2, "both panics must be caught");
    assert_eq!(b.full_tier, 2, "each panic costs one full-tier bailout");
    assert_eq!(b.degraded_tier, 0, "the degraded tier absorbs the panics");
    assert_eq!(b.blacklisted, 0, "nothing reaches the blacklist");
    assert!(vm.compilations() >= 1, "the ladder still installs code");
    assert!(vm.blacklisted_methods().is_empty());
}

#[test]
fn seeded_fault_counters_are_identical_across_worker_pools() {
    // Whole-plan equivalence: under barrier installs a seeded storm of
    // mixed faults must land exactly the same counters and bailout log
    // with four modelled workers as with none.
    let w = workload();
    let plan = FaultPlan::seeded(0xFA17, 16, 0.5);
    assert!(!plan.is_empty());
    let reference_vm = run_faulted_threads(&w, plan.clone(), 10, 0);
    let reference_log: Vec<String> = reference_vm
        .bailout_log()
        .iter()
        .map(|r| format!("{:?}/{:?}/{}", r.method, r.stage, r.error))
        .collect();
    assert!(reference_vm.bailouts().total() > 0);
    let vm = run_faulted_threads(&w, plan, 10, 4);
    assert_eq!(
        vm.bailouts(),
        reference_vm.bailouts(),
        "bailout counters must not depend on the modelled workers"
    );
    let log: Vec<String> = vm
        .bailout_log()
        .iter()
        .map(|r| format!("{:?}/{:?}/{}", r.method, r.stage, r.error))
        .collect();
    assert_eq!(log, reference_log, "bailout log must be identical");
    assert_eq!(vm.compilations(), reference_vm.compilations());
    assert_eq!(vm.installed_bytes(), reference_vm.installed_bytes());
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

/// Like [`run_faulted`] but with deoptimization enabled, so `ForceDeopt`
/// and `ForceGuardFailure` bite. Output is still checked against the
/// interpreted reference on every run.
fn run_faulted_deopt(w: &Workload, plan: FaultPlan, runs: usize) -> Machine<'_> {
    let input = 4;
    let expected = reference(w, input);
    let config = VmConfig {
        hotness_threshold: 2,
        deopt: true,
        ..VmConfig::default()
    };
    let mut vm = Machine::new(&w.program, Box::new(IncrementalInliner::new()), config);
    vm.set_fault_plan(plan);
    for _ in 0..runs {
        let out = vm
            .run(w.entry, vec![Value::Int(input)])
            .expect("faulted run completes");
        assert_eq!(out.value, expected.0, "deopt must not change results");
        assert_eq!(
            out.output.to_string(),
            expected.1,
            "deopt must not change output"
        );
    }
    vm
}

/// A program with a single compilable method, so every compilation request
/// index targets it — the deterministic substrate for storm scenarios.
fn single_method_program() -> (Program, incline::ir::MethodId) {
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

#[test]
fn force_deopt_triggers_one_invalidate_reprofile_recompile_cycle() {
    let w = workload();
    let plan = FaultPlan::new().inject(0, FaultKind::ForceDeopt);
    let vm = run_faulted_deopt(&w, plan, 8);
    let b = vm.bailouts();
    assert_eq!(b.deopts, 1, "the injected trap fires exactly once");
    assert_eq!(b.invalidations, 1, "the trapped code must be invalidated");
    assert!(
        b.recompiles >= 1,
        "the method must come back through the broker"
    );
    assert_eq!(b.pinned, 0, "one deopt is far from the storm cap");
    assert!(vm.pinned_methods().is_empty());
    assert_eq!(b.total(), 0, "deoptimization is not a compile-path bailout");
}

#[test]
fn force_deopt_storm_trips_the_cap_and_pins() {
    let (p, m) = single_method_program();
    let config = VmConfig {
        hotness_threshold: 2,
        deopt: true,
        ..VmConfig::default()
    };
    let mut vm = Machine::new(&p, Box::new(IncrementalInliner::new()), config);
    let mut plan = FaultPlan::new();
    for request in 0..=4 {
        plan = plan.inject(request, FaultKind::ForceDeopt);
    }
    vm.set_fault_plan(plan);
    let sink = std::sync::Arc::new(CollectingSink::new());
    vm.set_trace_sink(sink.clone());
    for _ in 0..80 {
        let out = vm.run(m, vec![Value::Int(21)]).expect("run completes");
        assert_eq!(out.value, Some(Value::Int(42)), "results never diverge");
    }
    let b = vm.bailouts();
    // Requests 0..=3 install trapped code (4 deopts); at request 4 the
    // recompile count has reached the cap, so the method is pinned first
    // and the scheduled fault is ignored for pinned code.
    assert_eq!(b.deopts, 4);
    assert_eq!(b.invalidations, 4);
    assert_eq!(b.recompiles, 4);
    assert_eq!(b.pinned, 1);
    assert_eq!(vm.pinned_methods(), vec![m]);
    assert_eq!(vm.report().pinned, vec![m]);
    assert!(
        vm.installed_bytes() > 0,
        "the pinned method still runs compiled"
    );
    let events = sink.take();
    let count = |name: &str| events.iter().filter(|e| e.name() == name).count();
    assert_eq!(count("Deoptimized"), 4);
    assert_eq!(count("CodeInvalidated"), 4);
    assert_eq!(count("Recompiled"), 4);
    assert_eq!(count("SpeculationPinned"), 1);
}

#[test]
fn force_guard_failure_trips_the_drift_monitor() {
    let w = workload();
    let input = 4;
    let expected = reference(&w, input);
    let config = VmConfig {
        hotness_threshold: 2,
        deopt: true,
        ..VmConfig::default()
    };
    let mut vm = Machine::new(&w.program, Box::new(IncrementalInliner::new()), config);
    vm.set_fault_plan(FaultPlan::new().inject(0, FaultKind::ForceGuardFailure));
    let sink = std::sync::Arc::new(CollectingSink::new());
    vm.set_trace_sink(sink.clone());
    for _ in 0..10 {
        let out = vm
            .run(w.entry, vec![Value::Int(input)])
            .expect("run completes");
        assert_eq!(out.value, expected.0);
        assert_eq!(out.output.to_string(), expected.1);
    }
    let b = vm.bailouts();
    assert!(
        b.deopts >= 1,
        "the armed drift monitor must eventually trip"
    );
    assert!(b.invalidations >= 1);
    let events = sink.take();
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
        let config = VmConfig {
            hotness_threshold: 2,
            deopt: true,
            ..VmConfig::default()
        };
        let mut vm = Machine::new(&p, Box::new(IncrementalInliner::new()), config);
        let mut plan = FaultPlan::new();
        for request in 0..=4 {
            plan = plan.inject(request, FaultKind::ForceDeopt);
        }
        vm.set_fault_plan(plan);
        for _ in 0..80 {
            vm.run(m, vec![Value::Int(21)]).expect("run completes");
        }
        (vm.bailouts(), vm.compile_requests(), vm.installed_bytes())
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
    let input = 4;
    let expected = reference(&w, input);
    let config = VmConfig {
        hotness_threshold: 2,
        ..VmConfig::default()
    };
    let mut vm = Machine::new(&w.program, Box::new(IncrementalInliner::new()), config);
    vm.set_fault_plan(FaultPlan::new().inject(0, FaultKind::ForceEvict));
    let sink = std::sync::Arc::new(CollectingSink::new());
    vm.set_trace_sink(sink.clone());
    for _ in 0..8 {
        let out = vm
            .run(w.entry, vec![Value::Int(input)])
            .expect("run completes");
        assert_eq!(out.value, expected.0, "eviction must not change results");
        assert_eq!(out.output.to_string(), expected.1);
    }
    let stats = vm.cache_stats();
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
    assert!(vm.blacklisted_methods().is_empty());
    let events = sink.take();
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
    let config = VmConfig {
        hotness_threshold: 2,
        ..VmConfig::default()
    };
    let mut vm = Machine::new(&p, Box::new(IncrementalInliner::new()), config);
    let mut plan = FaultPlan::new();
    for request in 0..=4 {
        plan = plan.inject(request, FaultKind::ForceEvict);
    }
    vm.set_fault_plan(plan);
    let sink = std::sync::Arc::new(CollectingSink::new());
    vm.set_trace_sink(sink.clone());
    for _ in 0..80 {
        let out = vm.run(m, vec![Value::Int(21)]).expect("run completes");
        assert_eq!(out.value, Some(Value::Int(42)), "results never diverge");
    }
    let stats = vm.cache_stats();
    assert_eq!(stats.forced_evictions, 5, "every scheduled eviction fires");
    assert_eq!(stats.evictions, 5);
    assert_eq!(
        stats.re_tiered, 5,
        "requests 1..=5 each reinstall a previously evicted method"
    );
    let b = vm.bailouts();
    assert_eq!(b.total(), 0, "the bailout ladder never gets involved");
    assert_eq!(b.pinned, 0, "eviction storms must not pin");
    assert!(vm.pinned_methods().is_empty());
    assert!(vm.blacklisted_methods().is_empty());
    assert!(
        vm.installed_bytes() > 0,
        "the post-storm install must stick"
    );
    let events = sink.take();
    let count = |name: &str| events.iter().filter(|e| e.name() == name).count();
    assert_eq!(count("CodeEvicted"), 5);
    assert_eq!(count("ReTiered"), 5);
    assert_eq!(count("CodeInstalled"), 6);
}

#[test]
fn force_evict_counters_are_identical_across_worker_pools() {
    // Forced evictions happen immediately after the install commits, in
    // request order — so under barrier installs an eviction storm must land
    // exactly the same cache statistics with four modelled workers as with
    // none.
    let w = workload();
    let mut plan = FaultPlan::new();
    for request in 0..=2 {
        plan = plan.inject(request, FaultKind::ForceEvict);
    }
    let reference_vm = run_faulted_threads(&w, plan.clone(), 10, 0);
    let reference_stats = reference_vm.cache_stats();
    assert!(reference_stats.forced_evictions > 0, "the storm must bite");
    let vm = run_faulted_threads(&w, plan, 10, 4);
    assert_eq!(
        vm.cache_stats(),
        reference_stats,
        "cache counters must not depend on the modelled workers"
    );
    assert_eq!(vm.compilations(), reference_vm.compilations());
    assert_eq!(vm.installed_bytes(), reference_vm.installed_bytes());
    assert_eq!(vm.bailouts(), reference_vm.bailouts());
}

// ---- snapshot faults: poisoned warmup state --------------------------------

/// Cold-runs `w` with deopt enabled and returns the result plus the
/// snapshot it wrote — the warmup state the poison tests then corrupt.
fn snapshot_of(w: &Workload, iterations: usize) -> (BenchResult, Vec<u8>) {
    use incline::snapshot::MemoryStore;
    let store = std::sync::Arc::new(MemoryStore::new());
    let r = RunSession::new(
        &w.program,
        BenchSpec {
            entry: w.entry,
            args: vec![Value::Int(4)],
            iterations,
        },
    )
    .inliner(Box::new(IncrementalInliner::new()))
    .config(VmConfig {
        hotness_threshold: 2,
        deopt: true,
        ..VmConfig::default()
    })
    .snapshot_out(store.clone())
    .run()
    .expect("cold run completes");
    (r, store.bytes().expect("snapshot written"))
}

/// The decided-method index of `w.entry` in `bytes` — the one decision
/// guaranteed to activate standalone every iteration (leaf decisions can
/// be inlined into their callers and never run their own code, in which
/// case poisoning them is a no-op).
fn entry_decision_idx(w: &Workload, bytes: &[u8]) -> u64 {
    use incline::snapshot::Snapshot;
    let snap = Snapshot::from_bytes(bytes).expect("snapshot parses");
    snap.decided_methods()
        .iter()
        .position(|&m| m == w.entry)
        .expect("the benchmark entry must be hot enough to be decided") as u64
}

/// Warm-runs `w` from `bytes` with `plan` injected.
fn run_poisoned(
    w: &Workload,
    bytes: Vec<u8>,
    plan: FaultPlan,
    iterations: usize,
    threads: usize,
) -> BenchResult {
    RunSession::new(
        &w.program,
        BenchSpec {
            entry: w.entry,
            args: vec![Value::Int(4)],
            iterations,
        },
    )
    .inliner(Box::new(IncrementalInliner::new()))
    .config(VmConfig {
        hotness_threshold: 2,
        deopt: true,
        compile_threads: threads,
        ..VmConfig::default()
    })
    .faults(plan)
    .snapshot_in(bytes)
    .run()
    .expect("poisoned run completes")
}

#[test]
fn poison_snapshot_quarantines_without_burning_recompiles() {
    let w = workload();
    let (cold, bytes) = snapshot_of(&w, 10);
    let idx = entry_decision_idx(&w, &bytes);
    let plan = FaultPlan::new().inject(0, FaultKind::PoisonSnapshot { decision_idx: idx });
    let out = run_poisoned(&w, bytes, plan, 10, 0);
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
    let sink = std::sync::Arc::new(CollectingSink::new());
    let plan = FaultPlan::new().inject(0, FaultKind::PoisonSnapshot { decision_idx: idx });
    RunSession::new(
        &w.program,
        BenchSpec {
            entry: w.entry,
            args: vec![Value::Int(4)],
            iterations: 10,
        },
    )
    .inliner(Box::new(IncrementalInliner::new()))
    .config(VmConfig {
        hotness_threshold: 2,
        deopt: true,
        ..VmConfig::default()
    })
    .faults(plan)
    .snapshot_in(bytes)
    .trace(sink.clone())
    .run()
    .expect("poisoned run completes");
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
    use incline::snapshot::{MemoryStore, Snapshot};
    let w = workload();
    let (_, bytes) = snapshot_of(&w, 10);
    let idx = entry_decision_idx(&w, &bytes);
    let original = Snapshot::from_bytes(&bytes).expect("snapshot parses");
    let victim = original.decided_methods()[idx as usize];
    // One iteration: the poisoned method traps on its first activation and
    // its subtracted profile cannot re-cross the tier threshold, so the
    // re-snapshot must not carry any decision for it.
    let store = std::sync::Arc::new(MemoryStore::new());
    let out = RunSession::new(
        &w.program,
        BenchSpec {
            entry: w.entry,
            args: vec![Value::Int(4)],
            iterations: 1,
        },
    )
    .inliner(Box::new(IncrementalInliner::new()))
    .config(VmConfig {
        hotness_threshold: 2,
        deopt: true,
        ..VmConfig::default()
    })
    .faults(FaultPlan::new().inject(0, FaultKind::PoisonSnapshot { decision_idx: idx }))
    .snapshot_in(bytes)
    .snapshot_out(store.clone())
    .run()
    .expect("poisoned run completes");
    assert_eq!(out.snapshot.poisoned, 1);
    let next = Snapshot::from_bytes(&store.bytes().expect("re-snapshot written"))
        .expect("re-snapshot parses");
    assert!(
        !next.decided_methods().contains(&victim),
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
    let out = run_poisoned(&w, bytes, plan, 12, 0);
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
fn poison_counters_are_identical_across_worker_pools() {
    let w = workload();
    let (_, bytes) = snapshot_of(&w, 10);
    let idx = entry_decision_idx(&w, &bytes);
    let plan = FaultPlan::new().inject(0, FaultKind::PoisonSnapshot { decision_idx: idx });
    let reference = run_poisoned(&w, bytes.clone(), plan.clone(), 10, 0);
    assert_eq!(reference.snapshot.poisoned, 1);
    let out = run_poisoned(&w, bytes, plan, 10, 4);
    assert_eq!(
        reference, out,
        "poisoned-run results must not depend on the modelled workers"
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
