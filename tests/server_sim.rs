//! Server-simulation invariants (DESIGN.md §12): the multi-tenant serving
//! harness must keep the determinism contract of the rest of the VM —
//! barrier-mode installs hide the worker-pool size down to the trace
//! bytes — while safepoint installs buy a measured win on the mutator
//! stall tail, and injected cache/deopt faults degrade service without
//! changing any tenant's answers.

use std::sync::Arc;

use incline::bench::server::{
    serve_standard, standard_mix, standard_spec, standard_vm, tenant_specs,
};
use incline::bench::Config;
use incline::prelude::*;
use incline::snapshot::fnv1a;
use incline::workloads::tenants::TenantMix;

/// Serves the standard scenario with a JSONL sink attached and returns
/// both the report and the raw trace bytes.
fn traced_serve(
    mix: &TenantMix,
    install: InstallPolicy,
    threads: usize,
) -> (ServerReport, Vec<u8>) {
    let sink = Arc::new(JsonlSink::new(Vec::new()));
    let handle: Arc<dyn TraceSink> = sink.clone();
    let report = ServerSession::new(&mix.program, tenant_specs(mix), standard_spec())
        .inliner(Config::paper().build())
        .config(standard_vm(install, EvictionPolicy::Lru, threads))
        .trace(handle)
        .serve()
        .expect("standard scenario serves");
    let bytes = Arc::try_unwrap(sink)
        .map_err(|_| "sink still shared")
        .expect("sink uniquely owned after the serve")
        .into_inner();
    (report, bytes)
}

#[test]
fn barrier_report_and_trace_are_identical_across_worker_pools() {
    let mix = standard_mix();
    let (synchronous_report, synchronous_trace) = traced_serve(&mix, InstallPolicy::Barrier, 0);
    for threads in [1usize, 4] {
        let (report, trace) = traced_serve(&mix, InstallPolicy::Barrier, threads);
        assert_eq!(
            synchronous_report, report,
            "barrier installs must hide a {threads}-worker pool from the report"
        );
        assert_eq!(
            synchronous_trace, trace,
            "barrier installs must hide a {threads}-worker pool from the JSONL trace"
        );
    }
}

#[test]
fn pipelined_standard_mix_matches_its_pinned_digests() {
    // The one witness of safepoint installs that does not compare the
    // machine with itself: the standard mix at four modelled workers, down
    // to the trace bytes and every field of the report.
    let (report, trace) = traced_serve(&standard_mix(), InstallPolicy::Safepoint, 4);
    // `max_queue_depth` has its own test below.
    let row = format!(
        "{:?}",
        ServerReport {
            max_queue_depth: 0,
            ..report
        }
    );
    assert_eq!(
        (fnv1a(&trace), fnv1a(row.as_bytes())),
        (0x1dea0161b09bc3eb, 0x4e5f446b8e811573),
        "trace or report moved; the report is now\n{row}"
    );
}

#[test]
fn safepoint_beats_barrier_on_the_stall_tail() {
    // The point of pipelined installs: under bursty multi-tenant load the
    // mutator no longer stops for whole compilations, so the p99 of the
    // per-request stall distribution drops — for every eviction policy.
    let mix = standard_mix();
    for policy in EvictionPolicy::all() {
        let barrier = serve_standard(&mix, InstallPolicy::Barrier, policy, 4);
        let safepoint = serve_standard(&mix, InstallPolicy::Safepoint, policy, 4);
        assert!(
            safepoint.stall.p99 <= barrier.stall.p99,
            "{}: safepoint stall p99 {} must not exceed barrier's {}",
            policy.label(),
            safepoint.stall.p99,
            barrier.stall.p99
        );
        assert!(
            safepoint.stall.max <= barrier.stall.max,
            "{}: safepoint worst pause {} must not exceed barrier's {}",
            policy.label(),
            safepoint.stall.max,
            barrier.stall.max
        );
    }
}

#[test]
fn cache_and_deopt_faults_degrade_gracefully_per_tenant() {
    // Forced evictions and forced deopts throw away compiled code at the
    // worst times; tenants must still get every answer (digests match the
    // clean run) and no request may fail, let alone panic across tenants.
    let mix = standard_mix();
    let clean = serve_standard(
        &mix,
        InstallPolicy::Safepoint,
        EvictionPolicy::HotnessDecay,
        1,
    );
    let plan = FaultPlan::new()
        .inject(1, FaultKind::ForceEvict)
        .inject(2, FaultKind::ForceDeopt)
        .inject(4, FaultKind::ForceEvict)
        .inject(6, FaultKind::ForceDeopt);
    let faulted = ServerSession::new(&mix.program, tenant_specs(&mix), standard_spec())
        .inliner(Config::paper().build())
        .config(standard_vm(
            InstallPolicy::Safepoint,
            EvictionPolicy::HotnessDecay,
            1,
        ))
        .faults(plan)
        .serve()
        .expect("faulted scenario still serves");
    assert_eq!(faulted.requests, clean.requests);
    assert_eq!(faulted.tenants.len(), clean.tenants.len());
    for (c, f) in clean.tenants.iter().zip(&faulted.tenants) {
        assert_eq!(c.name, f.name);
        assert_eq!(
            f.requests, c.requests,
            "{}: fault injection must not drop requests",
            f.name
        );
        assert_eq!(f.failed, 0, "{}: faults must not fail requests", f.name);
        assert_eq!(
            f.digest, c.digest,
            "{}: faults must not change the tenant's answers",
            f.name
        );
    }
}
