//! Identity oracle for the execution loop: the modelled ledger of every
//! workload, pinned in a checked-in table.
//!
//! For the 28 paper workloads plus `phase_change` and `cache_pressure`,
//! each run interpreter-only (`jit: false`, `NoInline`), with the JIT on
//! (paper inliner, `default_vm()`, deopt on) and pipelined (the same with
//! `InstallPolicy::Safepoint` and four modelled compile workers) at its
//! default input and iteration count, the table holds
//!
//! * every iteration's `exec_cycles`,
//! * the final answer digest ([`BenchResult::answer_digest`]'s bytes),
//! * FNV-1a of `Machine::snapshot()`'s profile records and the ids of
//!   the methods eager replay would compile — the only observable that
//!   sees block, callsite and receiver counters,
//! * FNV-1a of the JSONL trace, and
//! * on the pipelined rows, every iteration's `stall_cycles` and the final
//!   [`QueueStats`] — the virtual-time stall account and the queue's
//!   bookkeeping, which the other two kinds cannot move.
//!
//! A change to `Machine::exec_graph`, the profile tables or the cost
//! model that moves any of these fails here and names the row. When a
//! change moves the modelled ledger on purpose, copy the file the failure
//! message names over `tests/exec_identity.table`.

use std::fmt::Write as _;
use std::sync::Arc;

use incline::bench::{default_vm, Config};
use incline::prelude::*;
use incline::snapshot::{fnv1a, Snapshot};

const TABLE: &str = include_str!("exec_identity.table");

/// The three ways a workload is run; one table row each.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Interp,
    Jit,
    Pipelined,
}

fn row(w: &Workload, mode: Mode) -> String {
    let jit = mode != Mode::Interp;
    let mut config = VmConfig {
        jit,
        deopt: jit,
        ..default_vm()
    };
    if mode == Mode::Pipelined {
        config.install_policy = InstallPolicy::Safepoint;
        config.compile_threads = 4;
    }
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
    let mut stalls = Vec::with_capacity(w.iterations);
    let mut answer = String::new();
    for _ in 0..w.iterations {
        let out = vm
            .run(w.entry, vec![Value::Int(w.input)])
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        cycles.push(out.exec_cycles.to_string());
        stalls.push(out.stall_cycles.to_string());
        answer.clear();
        for line in out.output.lines() {
            answer.push_str(line);
            answer.push('\n');
        }
        if let Some(v) = out.value {
            let _ = write!(answer, "{v:?}");
        }
    }
    let snapshot = snapshot_digest(&vm.snapshot());
    let queue = vm.queue_stats();
    drop(vm);
    let trace = Arc::try_unwrap(sink)
        .map_err(|_| "sink still shared")
        .expect("sink uniquely owned after the run")
        .into_inner();
    let mut row = format!(
        "{} {} answer={:016x} snapshot={snapshot:016x} trace={:016x} exec_cycles={}",
        w.name,
        match mode {
            Mode::Interp => "interp",
            Mode::Jit => "jit",
            Mode::Pipelined => "pipelined",
        },
        fnv1a(answer.as_bytes()),
        fnv1a(&trace),
        cycles.join(","),
    );
    if mode == Mode::Pipelined {
        let _ = write!(
            row,
            " stall_cycles={} queue={}/{}/{}",
            stalls.join(","),
            queue.enqueued,
            queue.completed,
            queue.installed,
        );
    }
    row
}

/// FNV-1a of what a warm start reads from `snap`: its `"rec":"profile"`
/// lines as written, then the replay list's method ids.
fn snapshot_digest(snap: &Snapshot) -> u64 {
    let bytes = snap.to_bytes();
    let text = std::str::from_utf8(&bytes).expect("a snapshot is UTF-8");
    let mut kept = String::new();
    let profile = r#"{"rec":"profile""#;
    for line in text.lines().filter(|l| l.starts_with(profile)) {
        kept.push_str(line);
        kept.push('\n');
    }
    for m in &snap.decisions {
        let _ = write!(kept, "{} ", m.index());
    }
    fnv1a(kept.as_bytes())
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
        for mode in [Mode::Interp, Mode::Jit, Mode::Pipelined] {
            actual.push_str(&row(w, mode));
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
