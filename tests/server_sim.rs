//! Server-simulation invariants (DESIGN.md §12): the multi-tenant serving
//! harness must keep the determinism contract of the rest of the VM — a
//! pipelined run is pinned down to the trace bytes — while safepoint
//! installs buy a measured win on the mutator stall tail, and injected
//! cache/deopt faults degrade service without changing any tenant's
//! answers.

use std::sync::Arc;

use incline::bench::server::{
    serve_standard, standard_mix, standard_spec, standard_vm, tenant_specs,
};
use incline::bench::Config;
use incline::prelude::*;
use incline::snapshot::fnv1a;

#[test]
fn pipelined_standard_mix_matches_its_pinned_digests() {
    // Safepoint installs checked against checked-in digests, not against
    // another run of the same machine: the standard mix at four modelled
    // workers, down to the trace bytes and every field of the report.
    let mix = standard_mix();
    let sink = Arc::new(JsonlSink::new(Vec::new()));
    let handle: Arc<dyn TraceSink> = sink.clone();
    let report = ServerSession::new(&mix.program, tenant_specs(&mix), standard_spec())
        .inliner(Config::paper().build())
        .config(standard_vm(
            InstallPolicy::Safepoint,
            EvictionPolicy::Lru,
            4,
        ))
        .trace(handle)
        .serve()
        .expect("standard scenario serves");
    let trace = Arc::try_unwrap(sink)
        .map_err(|_| "sink still shared")
        .expect("sink uniquely owned after the serve")
        .into_inner();
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
fn max_queue_depth_is_the_high_water_mark_of_the_queue() {
    // Samples are taken after a request retired, mostly after the drain:
    // on this run every one of them reads 0 or 1 while bursts stack several
    // requests up. The maximum is taken at every push.
    let report = serve_standard(
        &standard_mix(),
        InstallPolicy::Safepoint,
        EvictionPolicy::Lru,
        4,
    );
    assert!(report.max_queue_depth >= 2, "{}", report.max_queue_depth);
    assert!(report
        .queue_depth
        .iter()
        .all(|&(_, depth)| depth <= report.max_queue_depth));
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
