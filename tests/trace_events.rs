//! Structured-trace system tests: the typed `CompileEvent` stream must be
//! deterministic (byte-identical JSONL across identical runs), faithful to
//! the inliner actually used (no `InlineDecision` events from `NoInline`),
//! and consistent with the broker's own telemetry (`Bailout` events agree
//! exactly with `Machine::bailout_log`).

use std::sync::Arc;

use incline::prelude::*;
use incline::workloads::Workload;

fn workload() -> Workload {
    incline::workloads::by_name("scalatest").expect("benchmark exists")
}

/// Runs the workload hot under the incremental inliner with a JSONL sink
/// attached and returns the raw trace bytes.
fn jsonl_trace() -> Vec<u8> {
    jsonl_trace_of(workload(), false)
}

/// [`jsonl_trace`] for an arbitrary workload, with deoptimization toggled.
fn jsonl_trace_of(w: Workload, deopt: bool) -> Vec<u8> {
    let spec = BenchSpec {
        entry: w.entry,
        args: vec![Value::Int(4)],
        iterations: 6,
    };
    let config = VmConfig {
        hotness_threshold: 2,
        deopt,
        ..VmConfig::default()
    };
    let sink = Arc::new(JsonlSink::new(Vec::new()));
    let handle: Arc<dyn TraceSink> = sink.clone();
    RunSession::new(&w.program, spec)
        .inliner(Box::new(IncrementalInliner::new()))
        .config(config)
        .trace(handle)
        .run()
        .expect("benchmark completes");
    Arc::try_unwrap(sink)
        .map_err(|_| "sink still shared")
        .expect("sink uniquely owned after the run")
        .into_inner()
}

#[test]
fn identical_runs_produce_byte_identical_jsonl() {
    let first = jsonl_trace();
    let second = jsonl_trace();
    assert!(!first.is_empty(), "a hot run must emit events");
    assert_eq!(first, second, "trace must be byte-identical across runs");

    // Sanity: well-formed JSONL with the discriminator key first.
    let text = String::from_utf8(first).expect("JSONL is UTF-8");
    assert!(text.lines().count() > 10, "expected a substantial trace");
    for line in text.lines() {
        assert!(line.starts_with("{\"ev\":\""), "bad line start: {line}");
        assert!(line.ends_with('}'), "bad line end: {line}");
    }
    // The lifecycle events of a successful compilation all appear.
    for needle in [
        "\"ev\":\"RoundStart\"",
        "\"ev\":\"RoundEnd\"",
        "\"ev\":\"InlineDecision\"",
        "\"ev\":\"FuelCharged\"",
        "\"ev\":\"TierTransition\"",
        "\"ev\":\"CodeInstalled\"",
    ] {
        assert!(text.contains(needle), "trace must contain {needle}");
    }

    // A sink observes and never steers: collecting every event measures
    // exactly what a run with no sink measures.
    let w = workload();
    let run = |sink: Arc<dyn TraceSink>| {
        let spec = BenchSpec {
            entry: w.entry,
            args: vec![Value::Int(4)],
            iterations: 6,
        };
        RunSession::new(&w.program, spec)
            .inliner(Box::new(IncrementalInliner::new()))
            .config(VmConfig {
                hotness_threshold: 2,
                ..VmConfig::default()
            })
            .trace(sink)
            .run()
            .expect("benchmark completes")
    };
    let collecting = Arc::new(CollectingSink::new());
    assert_eq!(run(collecting.clone()), run(Arc::new(NullSink)));
    assert!(collecting
        .take()
        .iter()
        .any(|e| matches!(e, CompileEvent::CodeInstalled { .. })));
}

#[test]
fn deopt_enabled_runs_produce_byte_identical_jsonl() {
    // Same hygiene bar with the deoptimization lifecycle in the stream:
    // the phase-change workload traps mid-run, so Deoptimized /
    // CodeInvalidated / Recompiled events interleave with the normal
    // compilation events — and the whole trace must still be reproducible
    // byte for byte.
    let w = || incline::workloads::by_name("phase_change").expect("extra benchmark exists");
    let first = jsonl_trace_of(w(), true);
    let second = jsonl_trace_of(w(), true);
    assert!(!first.is_empty(), "a hot run must emit events");
    assert_eq!(first, second, "deopt trace must be byte-identical");

    let text = String::from_utf8(first).expect("JSONL is UTF-8");
    for line in text.lines() {
        assert!(line.starts_with("{\"ev\":\""), "bad line start: {line}");
        assert!(line.ends_with('}'), "bad line end: {line}");
    }
    for needle in [
        "\"ev\":\"Deoptimized\"",
        "\"reason\":\"uncovered_receiver\"",
        "\"ev\":\"CodeInvalidated\"",
        "\"ev\":\"Recompiled\"",
    ] {
        assert!(text.contains(needle), "trace must contain {needle}");
    }
    // With deopt disabled the same workload emits none of the lifecycle.
    let plain = String::from_utf8(jsonl_trace_of(w(), false)).expect("UTF-8");
    for needle in ["Deoptimized", "CodeInvalidated", "Recompiled"] {
        assert!(
            !plain.contains(needle),
            "deopt-disabled trace must not contain {needle}"
        );
    }
}

#[test]
fn per_method_lifecycle_order_survives_the_worker_pool() {
    // Each method's lifecycle must read in program order: its RoundStart
    // strictly before its CodeInstalled, any InlineDecisions in between,
    // and no other compilation's events spliced into the window (a request
    // is compiled and applied before the next one starts).
    let w = incline::workloads::by_name("phase_change").expect("benchmark exists");
    let config = VmConfig {
        hotness_threshold: 2,
        deopt: true,
        compile_threads: 4,
        ..VmConfig::default()
    };
    let mut vm = Machine::new(&w.program, Box::new(IncrementalInliner::new()), config);
    let sink = Arc::new(CollectingSink::new());
    vm.set_trace_sink(sink.clone());
    for _ in 0..6 {
        vm.run(w.entry, vec![Value::Int(w.input)])
            .expect("run completes");
    }
    let events = sink.take();
    let installs: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, CompileEvent::CodeInstalled { .. }))
        .map(|(i, _)| i)
        .collect();
    assert!(
        installs.len() > 1,
        "expected several installs, got {installs:?}"
    );
    let mut windows_with_decisions = 0usize;
    for &end in &installs {
        let CompileEvent::CodeInstalled { method, .. } = events[end] else {
            unreachable!()
        };
        // Walk back to this compilation's first round.
        let start = (0..end)
            .rev()
            .find(|&i| matches!(events[i], CompileEvent::RoundStart { method: m, round: 1, .. } if m == method))
            .unwrap_or_else(|| panic!("install of {method:?} has no preceding RoundStart"));
        for e in &events[start + 1..end] {
            match e {
                CompileEvent::CodeInstalled { .. } => {
                    panic!("foreign CodeInstalled inside {method:?}'s compilation window")
                }
                CompileEvent::RoundStart { method: m, .. } => assert_eq!(
                    *m, method,
                    "foreign RoundStart inside {method:?}'s compilation window"
                ),
                CompileEvent::InlineDecision { .. } => windows_with_decisions += 1,
                _ => {}
            }
        }
    }
    assert!(
        windows_with_decisions > 0,
        "the incremental inliner must log decisions between RoundStart and CodeInstalled"
    );
}

#[test]
fn deopt_events_agree_with_bailout_counters() {
    let w = incline::workloads::by_name("phase_change").expect("extra benchmark exists");
    let config = VmConfig {
        hotness_threshold: 2,
        deopt: true,
        ..VmConfig::default()
    };
    let mut vm = Machine::new(&w.program, Box::new(IncrementalInliner::new()), config);
    let sink = Arc::new(CollectingSink::new());
    vm.set_trace_sink(sink.clone());
    for _ in 0..6 {
        vm.run(w.entry, vec![Value::Int(w.input)])
            .expect("run completes");
    }
    let events = sink.take();
    let count = |name: &str| events.iter().filter(|e| e.name() == name).count() as u64;
    let b = vm.bailouts();
    assert!(b.deopts > 0, "phase_change must trap at least once");
    assert_eq!(count("Deoptimized"), b.deopts);
    assert_eq!(count("CodeInvalidated"), b.invalidations);
    assert_eq!(count("Recompiled"), b.recompiles);
    assert_eq!(count("SpeculationPinned"), b.pinned);
}

#[test]
fn no_inline_compile_emits_no_inline_decisions() {
    let w = workload();
    // Gather profiles by interpreting once.
    let mut vm = Machine::new(
        &w.program,
        Box::new(NoInline),
        VmConfig {
            jit: false,
            ..VmConfig::default()
        },
    );
    vm.run(w.entry, vec![Value::Int(4)]).expect("profiling run");
    let profiles = vm.profiles().clone();

    let sink = CollectingSink::new();
    let cx = CompileCx::new(&w.program, &profiles);
    let traced = cx.with_trace(&sink);
    NoInline.compile(w.entry, &traced).expect("compiles");

    let events = sink.take();
    assert!(!events.is_empty(), "fuel/opt events are still emitted");
    assert!(
        events
            .iter()
            .all(|e| !matches!(e, CompileEvent::InlineDecision { .. })),
        "NoInline must make zero inline decisions: {events:?}"
    );
}

#[test]
fn bailout_events_agree_with_bailout_log() {
    let w = workload();
    let config = VmConfig {
        hotness_threshold: 2,
        ..VmConfig::default()
    };
    let plan = FaultPlan::new()
        .inject(0, FaultKind::PanicInCompile)
        .inject(1, FaultKind::CorruptGraph);
    let mut vm = Machine::new(&w.program, Box::new(IncrementalInliner::new()), config);
    vm.set_fault_plan(plan);
    let sink = Arc::new(CollectingSink::new());
    vm.set_trace_sink(sink.clone());
    for _ in 0..8 {
        vm.run(w.entry, vec![Value::Int(4)]).expect("run completes");
    }

    let from_events: Vec<(String, String, String)> = sink
        .take()
        .iter()
        .filter_map(|e| match e {
            CompileEvent::Bailout {
                method,
                stage,
                error,
            } => Some((method.to_string(), stage.to_string(), error.clone())),
            _ => None,
        })
        .collect();
    let from_log: Vec<(String, String, String)> = vm
        .report()
        .bailout_log
        .iter()
        .map(|r| {
            (
                r.method.to_string(),
                r.stage.to_string(),
                r.error.to_string(),
            )
        })
        .collect();
    assert!(
        !from_events.is_empty(),
        "injected faults must surface as Bailout events"
    );
    assert_eq!(
        from_events, from_log,
        "Bailout events must agree exactly with Machine::bailout_log"
    );
    // And the consolidated report carries the same log.
    assert_eq!(vm.report().bailout_log.len(), from_log.len());
}
