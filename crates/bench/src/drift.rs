//! Drift harness: warmup snapshots taken under phase-A traffic, replayed
//! against drifted phase-B traffic.
//!
//! Fleet snapshot distribution only pays off if a snapshot recorded under
//! yesterday's traffic still helps under today's. This module measures the
//! deopt-and-recover cost of serving a *drifted* workload from a stale
//! snapshot: every standard workload is profiled and snapshotted under its
//! default input (phase A), then served under a shifted input (phase B)
//! twice — once cold, once warmed by the phase-A snapshot. The warm run
//! may trap and recompile where speculation no longer holds, but it must
//! compute the byte-identical answer and, in aggregate, still reach steady
//! state cheaper than a cold start. The multi-tenant server scenario gets
//! the same treatment through the per-tenant `flip_after` knob: phase A is
//! a serve with every tenant pre-pivot, phase B flips every tenant
//! post-pivot from request zero.
//!
//! [`figure`] renders the `BENCH_drift.json` report and panics on any
//! warm/cold digest divergence — that assert is the regression gate the
//! `incline-bench drift` (and the CI `snapshot-drift` job) runs.

use std::sync::Arc;

use incline_vm::{BenchResult, MemoryStore, RunSession, ServerReport, ServerSession, VmConfig};
use incline_workloads::tenants::TenantMix;
use incline_workloads::{all_benchmarks, Workload};

use crate::Config;

/// Steady-state convergence fraction used by the recovery metric
/// (recovery = cycles until throughput is within this fraction of
/// steady state, matching the warmup figure).
pub const FRAC: f64 = 0.05;

/// Recovery-cost ceiling: a warm phase-B run must never need more than
/// this many times the cold run's recovery cycles on any workload.
pub const MAX_RATIO: f64 = 1.5;

/// Number of workloads (out of all standard ones) whose warm recovery
/// must beat cold strictly for the figure to meet its criterion.
pub const MIN_IMPROVED: usize = 20;

/// Phase-B input for a workload profiled under phase-A `input`: 50% more
/// work (at least one unit). Enough to shift loop trip counts, block
/// frequencies and receiver mixes — so stale speculation traps — without
/// changing the program, whose fingerprint must keep matching the
/// snapshot's.
pub fn drifted_input(input: i64) -> i64 {
    input + (input / 2).max(1)
}

/// One workload measured under A→B traffic drift.
#[derive(Clone, Debug)]
pub struct DriftRow {
    /// Workload name.
    pub name: String,
    /// Suite label.
    pub suite: String,
    /// Phase-B run from a cold start — the recovery baseline.
    pub cold: BenchResult,
    /// Phase-B run warmed by a snapshot taken under phase A.
    pub warm: BenchResult,
}

impl DriftRow {
    /// Whether the warm run computed the same observable answer as the
    /// cold run. Drift may cost traps and recompiles, never correctness.
    pub fn digest_match(&self) -> bool {
        self.warm.answer_digest() == self.cold.answer_digest()
    }

    /// Cold-start cycles to within [`FRAC`] of steady state.
    pub fn cold_recovery(&self) -> u64 {
        self.cold.warmup_cycles_within(FRAC)
    }

    /// Warm (deopt-and-recover) cycles to within [`FRAC`] of steady state.
    pub fn warm_recovery(&self) -> u64 {
        self.warm.warmup_cycles_within(FRAC)
    }

    /// Warm/cold recovery ratio; the cold denominator is clamped to one
    /// cycle so a workload that starts in steady state divides cleanly.
    pub fn ratio(&self) -> f64 {
        self.warm_recovery() as f64 / self.cold_recovery().max(1) as f64
    }
}

/// Snapshots `w` under its phase-A (default) input, then serves the
/// drifted phase-B input cold and warmed by that snapshot. Runs with
/// deoptimization enabled — stale speculation must trap and recover, not
/// stay conservatively correct.
pub fn measure(w: &Workload) -> DriftRow {
    let config = VmConfig {
        deopt: true,
        ..crate::default_vm()
    };
    let run = |session: RunSession| session.run().unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let paper = Config::paper();
    let store = Arc::new(MemoryStore::new());
    run(crate::session(w, &paper, config).snapshot_out(store.clone()));
    let phase_b = w.clone().with_input(drifted_input(w.input));
    let cold = run(crate::session(&phase_b, &paper, config));
    let warm = run(crate::session(&phase_b, &paper, config).snapshot_in(store));
    DriftRow {
        name: w.name.clone(),
        suite: w.suite.label().to_string(),
        cold,
        warm,
    }
}

/// Drift rows for every standard workload.
pub fn measure_all() -> Vec<DriftRow> {
    all_benchmarks().iter().map(measure).collect()
}

/// Server drift: serves the standard tenant mix entirely pre-pivot
/// (phase A) to record a snapshot, then serves it entirely post-pivot
/// (phase B) cold and warmed by that snapshot. Returns
/// `(cold phase-B, warm phase-B)` reports.
pub fn serve_drift() -> (ServerReport, ServerReport) {
    let mut mix = crate::server::standard_mix();
    let vm = VmConfig {
        hotness_threshold: 4,
        deopt: true,
        ..VmConfig::default()
    };
    let serve = |session: ServerSession| session.serve().expect("drift server scenario must serve");
    let flip =
        |mix: &mut TenantMix, after| mix.tenants.iter_mut().for_each(|t| t.flip_after = after);
    let store = Arc::new(MemoryStore::new());
    flip(&mut mix, 1.0);
    serve(crate::server::session(&mix, vm).snapshot_out(store.clone()));
    flip(&mut mix, 0.0);
    let cold = serve(crate::server::session(&mix, vm));
    let warm = serve(crate::server::session(&mix, vm).snapshot_in(store));
    (cold, warm)
}

/// Renders the drift report (`BENCH_drift.json`). Panics on any warm/cold
/// digest divergence — per workload or per server tenant — so the bench
/// binary doubles as a regression gate.
pub fn figure() -> String {
    use crate::json::Json;

    let benches = measure_all();
    let mut rows = Vec::new();
    let mut improved = 0usize;
    let mut worst_ratio = 0f64;
    for r in &benches {
        assert!(
            r.digest_match(),
            "{}: warm phase-B digest diverged from cold",
            r.name
        );
        let ratio = r.ratio();
        if r.warm_recovery() < r.cold_recovery() {
            improved += 1;
        }
        if ratio > worst_ratio {
            worst_ratio = ratio;
        }
        rows.push(Json::obj(vec![
            ("workload", r.name.as_str().into()),
            ("suite", r.suite.as_str().into()),
            (
                "cold",
                Json::obj(vec![
                    ("recovery_cycles", r.cold_recovery().into()),
                    ("deopts", r.cold.bailouts.deopts.into()),
                    ("recompiles", r.cold.bailouts.recompiles.into()),
                ]),
            ),
            (
                "warm",
                Json::obj(vec![
                    ("recovery_cycles", r.warm_recovery().into()),
                    ("deopts", r.warm.bailouts.deopts.into()),
                    ("recompiles", r.warm.bailouts.recompiles.into()),
                    (
                        "replayed_compiles",
                        r.warm.snapshot.replayed_compiles.into(),
                    ),
                    ("poisoned", r.warm.snapshot.poisoned.into()),
                ]),
            ),
            ("ratio", Json::f3(ratio)),
            ("digest_match", r.digest_match().into()),
            ("improved", (r.warm_recovery() < r.cold_recovery()).into()),
        ]));
    }

    let (cold_srv, warm_srv) = serve_drift();
    for (c, w) in cold_srv.tenants.iter().zip(&warm_srv.tenants) {
        assert!(
            c.digest == w.digest,
            "tenant {}: warm phase-B digest diverged from cold",
            c.name
        );
    }

    Json::obj(vec![
        (
            "metric",
            "cycles to within 5% of steady state under A->B input drift".into(),
        ),
        (
            "criteria",
            Json::obj(vec![
                ("improved_min", MIN_IMPROVED.into()),
                ("max_ratio", Json::f1(MAX_RATIO)),
                (
                    "digests",
                    "warm == cold on every workload and tenant".into(),
                ),
            ]),
        ),
        ("workloads", Json::Arr(rows)),
        (
            "summary",
            Json::obj(vec![
                ("improved", improved.into()),
                ("total", benches.len().into()),
                ("worst_ratio", Json::f3(worst_ratio)),
                ("meets_recovery", (improved >= MIN_IMPROVED).into()),
                ("meets_bound", (worst_ratio <= MAX_RATIO).into()),
            ]),
        ),
        (
            "server",
            Json::obj(vec![
                ("cold_cycles", cold_srv.total_cycles.into()),
                ("warm_cycles", warm_srv.total_cycles.into()),
                ("warm_deopts", warm_srv.bailouts.deopts.into()),
                ("warm_recompiles", warm_srv.bailouts.recompiles.into()),
                (
                    "replayed_compiles",
                    warm_srv.snapshot.replayed_compiles.into(),
                ),
                ("poisoned", warm_srv.snapshot.poisoned.into()),
                ("cold_latency_p99", cold_srv.latency.p99.into()),
                ("warm_latency_p99", warm_srv.latency.p99.into()),
                ("tenant_digests_match", true.into()),
            ]),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drifted_input_always_moves() {
        for i in [-3, 0, 1, 2, 7, 40, 1000] {
            assert!(drifted_input(i) > i, "input {i} must drift forward");
        }
    }

    #[test]
    fn drift_preserves_answers_on_a_sample() {
        for w in all_benchmarks().iter().take(4) {
            let row = measure(w);
            assert!(row.digest_match(), "{}: digest diverged", row.name);
        }
    }
}
