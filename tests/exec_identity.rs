//! Identity oracle for the execution loop: the modelled ledger of every
//! workload, pinned in a checked-in table.
//!
//! For the 28 paper workloads plus `phase_change` and `cache_pressure`,
//! each run interpreter-only (`jit: false`, `NoInline`) and with the JIT
//! on (paper inliner, `default_vm()`, deopt on) at its default input and
//! iteration count, the table holds
//!
//! * every iteration's `exec_cycles`,
//! * the final answer digest ([`BenchResult::answer_digest`]'s bytes),
//! * FNV-1a of `Machine::snapshot().to_bytes()` — the only observable
//!   that sees block, callsite and receiver counters, and
//! * FNV-1a of the JSONL trace.
//!
//! A change to `Machine::exec_graph`, the profile tables or the cost
//! model that moves any of these fails here and names the row. When a
//! change moves the modelled ledger on purpose, copy the file the failure
//! message names over `tests/exec_identity.table`.

use std::fmt::Write as _;
use std::sync::Arc;

use incline::bench::{default_vm, Config};
use incline::prelude::*;
use incline::snapshot::fnv1a;

const TABLE: &str = include_str!("exec_identity.table");

fn row(w: &Workload, jit: bool) -> String {
    let config = VmConfig {
        jit,
        deopt: jit,
        // `compile_threads` follows INCLINE_COMPILE_THREADS: barrier mode
        // is byte-identical under every pool size, and CI runs this test
        // under 0 and 4.
        ..default_vm()
    };
    let inliner: Box<dyn Inliner> = if jit {
        Config::paper().build()
    } else {
        Box::new(NoInline)
    };
    let sink = Arc::new(JsonlSink::new(Vec::new()));
    let handle: Arc<dyn TraceSink> = sink.clone();
    let mut vm = Machine::new(&w.program, inliner, config);
    vm.set_trace_sink(handle);
    let mut cycles = Vec::with_capacity(w.iterations);
    let mut answer = String::new();
    for _ in 0..w.iterations {
        let out = vm
            .run(w.entry, vec![Value::Int(w.input)])
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        cycles.push(out.exec_cycles.to_string());
        answer.clear();
        for line in out.output.lines() {
            answer.push_str(line);
            answer.push('\n');
        }
        if let Some(v) = out.value {
            let _ = write!(answer, "{v:?}");
        }
    }
    let snapshot = fnv1a(&vm.snapshot().to_bytes());
    drop(vm);
    let trace = Arc::try_unwrap(sink)
        .map_err(|_| "sink still shared")
        .expect("sink uniquely owned after the run")
        .into_inner();
    format!(
        "{} {} answer={:016x} snapshot={snapshot:016x} trace={:016x} exec_cycles={}",
        w.name,
        if jit { "jit" } else { "interp" },
        fnv1a(answer.as_bytes()),
        fnv1a(&trace),
        cycles.join(","),
    )
}

#[test]
fn modelled_ledger_matches_the_checked_in_table() {
    let workloads: Vec<Workload> = all_benchmarks()
        .into_iter()
        .chain(extra_benchmarks())
        .collect();
    assert_eq!(workloads.len(), 30, "28 paper workloads plus two extras");
    let mut actual = String::new();
    for w in &workloads {
        for jit in [false, true] {
            actual.push_str(&row(w, jit));
            actual.push('\n');
        }
    }
    if actual == TABLE {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("exec_identity.actual");
    std::fs::write(&path, &actual).expect("write the actual table");
    let expected: Vec<&str> = TABLE.lines().collect();
    let mut moved = String::new();
    for (i, line) in actual.lines().enumerate() {
        if expected.get(i) != Some(&line) {
            let _ = writeln!(
                moved,
                "  expected: {}\n    actual: {line}",
                expected.get(i).unwrap_or(&"<no such row>")
            );
        }
    }
    panic!(
        "the modelled ledger moved:\n{moved}the full actual table is in {}",
        path.display()
    );
}
