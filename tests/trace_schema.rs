//! The JSONL schema of [`CompileEvent`], pinned in a checked-in table.
//!
//! One instance of each of the 27 events, between them holding the corners
//! of every field encoding — `method: None`, non-finite and extreme floats,
//! integer maxima, a string that needs every escape, an all-zero and a
//! mixed `OptStats` — and, per instance, one line `<name()> <to_json()>` in
//! `tests/trace_schema.table`. The table was written by the hand-kept
//! per-event serializer before the `events!` declaration replaced it, so a
//! row that moves is a change to the trace format consumers parse, not a
//! refactoring detail: copy the file the failure names over the table only
//! when the format is meant to change.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use incline::ir::MethodId;
use incline::opt::OptStats;
use incline::trace::{BailoutStage, CodeTier, CompileEvent, OptPhase};

const TABLE: &str = include_str!("trace_schema.table");

/// Every escape the writer knows, a DEL it leaves alone, and non-ASCII.
const HOSTILE: &str = "q\" b\\ n\n r\r t\t \u{1}\u{1f}\u{7f} é→𝄞 \"method\":\"m9\"";

fn instances() -> Vec<CompileEvent> {
    let m = MethodId::new;
    let mixed = OptStats {
        const_fold: 1,
        typecheck_fold: 4,
        gvn: u64::MAX,
        loops_peeled: 10,
        ..OptStats::new()
    };
    vec![
        CompileEvent::RoundStart {
            method: m(u32::MAX as usize),
            round: u32::MAX,
            root_size: f64::NAN,
            tree_nodes: usize::MAX,
        },
        CompileEvent::RoundEnd {
            method: m(12),
            round: 3,
            expanded: 4,
            inlined: 2,
            root_size: 211.5,
            tree_nodes: 19,
        },
        CompileEvent::NodeExpanded {
            method: m(7),
            kind: 'E',
            freq: 0.1 + 0.2,
            priority: 1e21,
            ns: 2,
            no: 9,
            attached: 3,
        },
        CompileEvent::CutoffDeferred {
            method: m(4),
            local_benefit: 12.25,
            ir_size: 88.0,
            root_ir: 640.0,
            required_density: 0.001953125,
            penalty: f64::NEG_INFINITY,
        },
        CompileEvent::ClusterFormed {
            method: None,
            members: 1,
            benefit: f64::INFINITY,
            cost: 0.0,
        },
        CompileEvent::InlineDecision {
            method: Some(m(3)),
            benefit: 12.5,
            cost: 40.0,
            threshold: 0.001,
            root_size: 250.0,
            accepted: true,
        },
        CompileEvent::OptPassStats {
            phase: OptPhase::Initial,
            stats: OptStats::new(),
        },
        CompileEvent::OptPassStats {
            phase: OptPhase::Round,
            stats: mixed,
        },
        CompileEvent::FuelCharged {
            amount: 17,
            spent: u64::MAX,
        },
        CompileEvent::TreeSnapshot {
            round: 2,
            text: HOSTILE.to_string(),
        },
        CompileEvent::TierTransition {
            method: m(1),
            tier: CodeTier::Interpreter,
        },
        CompileEvent::Bailout {
            method: m(2),
            stage: BailoutStage::Full,
            error: HOSTILE.to_string(),
        },
        CompileEvent::CodeInstalled {
            method: m(5),
            bytes: 448,
            graph_size: 56,
            work_nodes: 1203,
        },
        CompileEvent::Deoptimized {
            method: m(5),
            reason: "uncovered_receiver".to_string(),
        },
        CompileEvent::CodeInvalidated {
            method: m(5),
            bytes: 320,
            recompiles: 1,
        },
        CompileEvent::Recompiled {
            method: m(5),
            recompiles: 2,
            threshold: 160,
        },
        CompileEvent::SpeculationPinned { method: m(5) },
        CompileEvent::CodeEvicted {
            method: m(7),
            bytes: 448,
            policy: "cost-benefit".to_string(),
            resident_uses: 12,
        },
        CompileEvent::AdmissionRejected {
            method: m(7),
            bytes: 640,
            reason: "no_evictable_victim".to_string(),
        },
        CompileEvent::ReTiered {
            method: m(7),
            evictions: 2,
        },
        CompileEvent::RequestRetired {
            tenant: HOSTILE.to_string(),
            request: 42,
            latency: 9001,
            stall: 120,
        },
        CompileEvent::QueueDepth {
            request: 16,
            depth: 3,
        },
        CompileEvent::SnapshotLoaded {
            methods: 4,
            decisions: 3,
        },
        CompileEvent::SnapshotFallback {
            reason: "corrupt snapshot: header: expected `{` at 0, found Some('n')".to_string(),
        },
        CompileEvent::SnapshotWritten {
            methods: 4,
            decisions: 3,
            bytes: 512,
        },
        CompileEvent::SnapshotMerged {
            replicas: 3,
            methods: 9,
            decisions: 5,
            aged_out: 2,
        },
        CompileEvent::DecisionPoisoned {
            method: m(7),
            activations: 2,
            window: 8,
        },
        CompileEvent::DecisionAgedOut {
            method: m(4),
            hotness: 3,
            required: 16,
        },
    ]
}

#[test]
fn every_event_serializes_to_its_blessed_line() {
    let events = instances();
    let names: BTreeSet<&str> = events.iter().map(CompileEvent::name).collect();
    assert_eq!(names.len(), 27, "one instance of every event: {names:?}");
    let with_method = events.iter().filter(|e| e.method().is_some()).count();
    assert_eq!(with_method, 17, "16 lifecycle events and one decision");

    let mut actual = String::new();
    for ev in &events {
        let json = ev.to_json();
        assert!(
            json.starts_with(&format!("{{\"ev\":\"{}\"", ev.name())),
            "`ev` is the first key and equals name(): {json}"
        );
        if let Some(method) = ev.method() {
            let key = format!("\"method\":\"{method}\"");
            assert!(json.contains(&key), "method() is the `method` field");
        }
        let _ = writeln!(actual, "{} {json}", ev.name());
    }
    if actual != TABLE {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace_schema.actual");
        std::fs::write(&path, &actual).expect("write the actual table");
        let moved: Vec<&str> = (actual.lines().zip(TABLE.lines()))
            .filter(|(got, want)| got != want)
            .map(|(got, _)| got)
            .collect();
        panic!(
            "the JSONL schema moved; rows that differ from tests/trace_schema.table:\n{}\n\
             the full actual table is in {}",
            moved.join("\n"),
            path.display()
        );
    }
}
