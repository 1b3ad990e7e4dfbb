//! Bounded code cache: budget enforcement, LRU eviction, admission
//! control and graceful degradation, end to end.
//!
//! The contract under test (DESIGN.md §11): with a finite
//! `code_cache_budget` the installed-byte total never exceeds the budget
//! at any observable point, victims are picked deterministically, admission
//! control defers rather than blacklists, evicted methods re-tier through
//! the normal hotness path, and — the degenerate case — `budget = 0` makes
//! no cache decision at all. The tests that a budget never reached is
//! inert, and that a bounded cache depends on no modelled worker count,
//! are rows of the conformance matrix (`support/matrix.rs`), which also
//! check every answer.

mod support;

use std::sync::Arc;

use incline::prelude::*;
use incline::trace::OptPhase;
use incline::vm::BenchResult;
use incline::workloads::Workload;
use support::matrix::{hot, run, Corpus::Pressure, Row};
use support::{answer, expected};

#[test]
fn budget_zero_knobs_are_inert_on_all_workloads() {
    // A budget no install reaches takes the bounded install path and must
    // decide nothing: the run equals the unbounded one byte for byte.
    let never_reached = VmConfig {
        code_cache_budget: u64::MAX,
        ..hot()
    };
    let twins = vec![never_reached];
    run([Row {
        iterations: 6,
        twins,
        ..Row::default()
    }]);
}

#[test]
fn finite_budget_is_byte_identical_across_worker_pools() {
    // Under heavy churn the degraded retry and the deferred admission
    // charge stall that no worker accounts for; four modelled workers must
    // still not show. At 3000 bytes LRU always finds room; at 256 some
    // full-tier packages cannot fit, so that row retries and defers.
    let results = run([3000, 256].map(|budget| Row {
        corpus: Pressure,
        config: budget_config(budget, 0),
        iterations: 8,
        twins: vec![budget_config(budget, 4)],
        ..Row::default()
    }));
    assert!(
        results.iter().any(|r| r.cache.degraded_admissions > 0),
        "no degraded retry ran"
    );
    assert!(
        results.iter().any(|r| r.cache.admission_rejections > 0),
        "no install was deferred"
    );
}

/// A `main` with a constant to fold and a callee to inline.
const FIB_MAIN: &str = "
fn fib(int) -> int {
b0(v0: int):
  v1 = const.int 2
  v2 = ilt v0, v1
  br v2, b1(), b2()
b1():
  ret v0
b2():
  v3 = const.int 1
  v4 = isub v0, v3
  v5 = isub v0, v1
  v6 = call fib(v4)
  v7 = call fib(v5)
  v8 = iadd v6, v7
  ret v8
}

fn main(int) -> int {
b0(v0: int):
  v1 = const.int 1
  v2 = const.int 2
  v3 = iadd v1, v2
  v4 = iadd v0, v3
  v5 = call fib(v4)
  ret v5
}
";

/// [`FIB_MAIN`]'s `main`, its profiles warmed by interpreted runs, compiled
/// once under `budget` (0 = unbounded) and `plan`: the report, the
/// installed graph's fingerprint and the JSONL line of every
/// degraded-phase `OptPassStats` event the compile emitted.
fn compile_fib_main(budget: u64, plan: FaultPlan) -> (CompilationReport, u64, Vec<String>) {
    let p = incline::ir::parse::parse_program(FIB_MAIN).unwrap();
    let main = p.function_by_name("main").unwrap();
    let config = VmConfig {
        hotness_threshold: u64::MAX,
        code_cache_budget: budget,
        ..VmConfig::default()
    };
    let mut vm = Machine::new(&p, Box::new(IncrementalInliner::new()), config);
    for _ in 0..4 {
        vm.run(main, vec![Value::Int(8)]).unwrap();
    }
    let sink = Arc::new(CollectingSink::new());
    vm.set_trace_sink(sink.clone());
    vm.set_fault_plan(plan);
    assert!(vm.compile_now(main), "budget {budget}: nothing installed");
    let degraded = |e: &CompileEvent| {
        matches!(
            e,
            CompileEvent::OptPassStats {
                phase: OptPhase::Degraded,
                ..
            }
        )
    };
    let lines = sink.take().into_iter().filter(degraded);
    let lines = lines.map(|e| e.to_json()).collect();
    let fingerprint = vm.compiled_graph(main).unwrap().fingerprint();
    (vm.report(), fingerprint, lines)
}

#[test]
fn admission_retry_installs_what_the_degraded_rung_installs() {
    // Down the ladder: the full tier runs out of fuel and the degraded
    // rung installs. Then through the cache: a budget of exactly that
    // install refuses the bigger inlined full-tier package, and the
    // admission retry must install the very same degraded code.
    let exhaust = FaultPlan::new().inject(0, FaultKind::ExhaustFuel);
    let (ladder, ladder_graph, ladder_lines) = compile_fib_main(0, exhaust);
    assert_eq!(ladder.bailouts.fuel_exhaustions, 1);
    assert!(
        !ladder_lines.is_empty(),
        "the degraded rung ran its pipeline"
    );
    let (retry, retry_graph, retry_lines) =
        compile_fib_main(ladder.installed_bytes, FaultPlan::new());
    assert_eq!(retry.cache.degraded_admissions, 1);
    assert_eq!(retry.bailouts.total(), 0);
    assert_eq!(retry_graph, ladder_graph, "graph fingerprint");
    assert_eq!(retry.compile_log, ladder.compile_log);
    assert_eq!(retry_lines, ladder_lines);
}

fn pressure_workload() -> Workload {
    incline::workloads::by_name("cache_pressure").expect("extra workload exists")
}

fn budget_config(budget: u64, threads: usize) -> VmConfig {
    VmConfig {
        hotness_threshold: 2,
        compile_threads: threads,
        code_cache_budget: budget,
        ..VmConfig::default()
    }
}

#[test]
fn budget_is_never_exceeded_at_any_observable_point() {
    // The tentpole invariant, checked after every activation cycle:
    // installed bytes stay within the budget, and so does the lifetime
    // high-water mark.
    let w = pressure_workload();
    let input = w.input.min(48);
    let expected = expected(&w, input);
    for budget in [512u64, 3000] {
        let mut vm = Machine::new(
            &w.program,
            Box::new(IncrementalInliner::new()),
            budget_config(budget, 0),
        );
        for cycle in 0..8 {
            let out = vm
                .run(w.entry, vec![Value::Int(input)])
                .unwrap_or_else(|e| panic!("budget {budget}: {e}"));
            assert!(
                vm.installed_bytes() <= budget,
                "cycle {cycle}: {} bytes installed exceeds budget {budget}",
                vm.installed_bytes()
            );
            assert_eq!(answer(&out), expected, "results must not change");
        }
        let stats = vm.report().cache;
        assert!(
            stats.high_water_bytes <= budget,
            "high water {} exceeds budget {budget}",
            stats.high_water_bytes
        );
        assert!(
            stats.evictions > 0,
            "a {budget}-byte budget must force evictions"
        );
        assert_eq!(vm.report().cache, stats, "report must surface the stats");
    }
}

#[test]
fn budget_zero_makes_no_cache_decisions() {
    // The high-water gauge is passive accounting and ticks regardless of
    // budget; every *decision* counter must stay zero, on every workload.
    let mut targets: Vec<Workload> = incline::workloads::all_benchmarks();
    targets.extend(incline::workloads::extra_benchmarks());
    for w in &targets {
        let spec = BenchSpec {
            entry: w.entry,
            args: vec![Value::Int(w.input.min(8))],
            iterations: 6,
        };
        let session = RunSession::new(&w.program, spec).config(budget_config(0, 0));
        let r = session.inliner(Box::new(IncrementalInliner::new())).run();
        let r = r.unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let passive = CacheStats {
            high_water_bytes: r.cache.high_water_bytes,
            ..CacheStats::default()
        };
        assert_eq!(r.cache, passive, "{}: no cache decisions", w.name);
    }
}

/// A traced run: the full `BenchResult` plus the JSONL rendering of every
/// emitted compile event.
fn bench_traced(w: &Workload, config: VmConfig) -> (BenchResult, Vec<String>) {
    let spec = BenchSpec {
        entry: w.entry,
        args: vec![Value::Int(w.input)],
        iterations: 8,
    };
    let sink = Arc::new(CollectingSink::new());
    let handle: Arc<dyn TraceSink> = sink.clone();
    let r = RunSession::new(&w.program, spec)
        .inliner(Box::new(IncrementalInliner::new()))
        .config(config)
        .trace(handle)
        .run()
        .unwrap_or_else(|e| panic!("{}: traced benchmark failed: {e}", w.name));
    let jsonl = sink.take().iter().map(|e| e.to_json()).collect();
    (r, jsonl)
}

#[test]
fn evicted_methods_retier_through_the_normal_hotness_path() {
    let w = pressure_workload();
    let (r, jsonl) = bench_traced(&w, budget_config(3000, 0));
    assert!(
        r.cache.re_tiered > 0,
        "cycling working set must re-heat evicted methods"
    );
    assert!(
        jsonl.iter().any(|l| l.contains("\"ev\":\"CodeEvicted\"")),
        "evictions must be traced"
    );
    assert!(
        jsonl.iter().any(|l| l.contains("\"ev\":\"ReTiered\"")),
        "re-tiering must be traced"
    );
}

#[test]
fn tiny_budgets_degrade_gracefully_without_panics() {
    // Memory exhaustion: budgets below the smallest package must never
    // panic, livelock or change results — the VM simply stays (mostly)
    // interpreted and keeps deferring with backoff.
    let w = pressure_workload();
    let input = w.input.min(48);
    let expected = expected(&w, input);
    for budget in [4u64, 64, 256] {
        let mut vm = Machine::new(
            &w.program,
            Box::new(IncrementalInliner::new()),
            budget_config(budget, 0),
        );
        for _ in 0..8 {
            let out = vm
                .run(w.entry, vec![Value::Int(input)])
                .unwrap_or_else(|e| panic!("budget {budget}: {e}"));
            assert!(vm.installed_bytes() <= budget);
            assert_eq!(answer(&out), expected);
        }
        let report = vm.report();
        assert!(
            report.cache.admission_rejections > 0,
            "a {budget}-byte budget must reject installs"
        );
        assert_eq!(report.blacklisted.len(), 0, "deferral, not blacklist");
    }
}

#[test]
fn admission_rejection_reasons_are_the_documented_vocabulary() {
    // LRU admits whatever fits once victims are gone, so the one reason
    // left is that too little resident code could be evicted.
    let w = pressure_workload();
    let (r, jsonl) = bench_traced(&w, budget_config(64, 0));
    assert!(r.cache.admission_rejections > 0);
    let rejections: Vec<&String> = jsonl
        .iter()
        .filter(|l| l.contains("\"ev\":\"AdmissionRejected\""))
        .collect();
    assert!(
        !rejections.is_empty(),
        "rejections must be traced with reasons"
    );
    for l in rejections {
        assert!(
            l.contains("\"reason\":\"no_evictable_victim\""),
            "undocumented admission-rejection reason in {l}"
        );
    }
}

#[test]
fn teardown_releases_every_byte_under_mixed_deopt_and_eviction() {
    // Regression for the accounting-drift hazard: after a run mixing
    // deoptimization-driven invalidation, pressure-driven eviction and a
    // forced eviction, invalidating everything must return the audited
    // accounting to exactly zero — every byte released exactly once.
    let w = incline::workloads::by_name("phase_change").expect("extra workload exists");
    let config = VmConfig {
        hotness_threshold: 2,
        deopt: true,
        code_cache_budget: 1024,
        ..VmConfig::default()
    };
    let mut vm = Machine::new(&w.program, Box::new(IncrementalInliner::new()), config);
    vm.set_fault_plan(
        FaultPlan::new()
            .inject(0, FaultKind::ForceDeopt)
            .inject(1, FaultKind::ForceEvict),
    );
    for _ in 0..10 {
        vm.run(w.entry, vec![Value::Int(w.input)])
            .expect("run completes");
    }
    assert!(
        vm.bailouts().invalidations > 0 && vm.report().cache.evictions > 0,
        "the scenario must actually mix invalidation and eviction"
    );
    for m in w.program.method_ids() {
        vm.invalidate_code(m);
    }
    assert_eq!(
        vm.installed_bytes(),
        0,
        "teardown must release every installed byte exactly once"
    );
}

#[test]
fn pipelined_installs_recheck_admission_at_the_safepoint() {
    // Safepoint-mode installs go through the same admission path on the
    // mutator; under a finite budget the mode stays deterministic and
    // within budget, and still beats the synchronous broker on stall.
    let w = pressure_workload();
    let pipelined = VmConfig {
        install_policy: InstallPolicy::Safepoint,
        ..budget_config(3000, 4)
    };
    let a = bench_traced(&w, pipelined).0;
    let b = bench_traced(&w, pipelined).0;
    assert_eq!(a, b, "pipelined cache pressure must be reproducible");
    assert!(a.cache.evictions > 0);
    assert!(
        a.cache.high_water_bytes <= 3000,
        "safepoint installs must re-check the budget at install time"
    );
    let sync = bench_traced(&w, budget_config(3000, 0)).0;
    assert!(
        a.stall_cycles < sync.stall_cycles,
        "pipelining must still hide compile latency under cache pressure"
    );
}
