//! Server-simulation scenarios: the glue between the workload-level
//! tenant mixes (`incline_workloads::tenants`) and the VM-level serving
//! harness (`incline_vm::server`), plus the figure that seeds
//! `BENCH_server.json`.
//!
//! The workloads crate depends only on `incline-ir`, so its
//! [`TenantInfo`](incline_workloads::tenants::TenantInfo) is plain data;
//! [`tenant_specs`] lifts it into the VM's [`TenantSpec`] exactly once,
//! here. Everything downstream (CLI `server` subcommand, the server-sim
//! integration tests, `examples/server_sim.rs`) goes through these
//! builders so every consumer serves the *same* deterministic scenario.

use incline_vm::stats::percentile;
use incline_vm::{
    EvictionPolicy, InstallPolicy, ServerReport, ServerSession, ServerSpec, TenantSpec, VmConfig,
};
use incline_workloads::tenants::TenantMix;

use crate::Config;

/// Default tenant-mix seed shared by the figure, the CLI and the tests.
pub const DEFAULT_SEED: u64 = 23;
/// Default tenant count for the standard scenario.
pub const DEFAULT_TENANTS: usize = 6;

/// Converts workload-level tenant metadata into VM-level tenant specs.
pub fn tenant_specs(mix: &TenantMix) -> Vec<TenantSpec> {
    mix.tenants
        .iter()
        .map(|t| TenantSpec {
            name: t.name.clone(),
            entry: t.entry,
            weight: t.weight,
            work: t.work,
            pivot: t.pivot,
            flip_after: t.flip_after,
        })
        .collect()
}

/// The standard multi-tenant mix every consumer serves.
pub fn standard_mix() -> TenantMix {
    incline_workloads::tenants::build(DEFAULT_SEED, DEFAULT_TENANTS)
}

/// The standard bursty arrival spec (tuned so compilations land inside
/// bursts, where a barrier-mode stall queues every request behind it).
pub fn standard_spec() -> ServerSpec {
    ServerSpec {
        requests: 600,
        burst_len: 12,
        ..ServerSpec::default()
    }
}

/// The VM configuration of the standard scenario: bounded LRU code cache
/// (tenant churn forces evictions), `threads` modelled compile workers,
/// installs per `install`. LRU is the only [`EvictionPolicy`]; the
/// parameter stays for the benchmark harness, which passes it.
pub fn standard_vm(install: InstallPolicy, _: EvictionPolicy, threads: usize) -> VmConfig {
    VmConfig {
        hotness_threshold: 4,
        compile_threads: threads,
        install_policy: install,
        code_cache_budget: 1536,
        ..VmConfig::default()
    }
}

/// A session serving `mix` under the standard arrival spec and the paper
/// inliner, in `vm` — how every figure serves a tenant mix.
pub(crate) fn session(mix: &TenantMix, vm: VmConfig) -> ServerSession<'_> {
    ServerSession::new(&mix.program, tenant_specs(mix), standard_spec())
        .inliner(Config::paper().build())
        .config(vm)
}

/// Serves the standard scenario once and returns the report.
pub fn serve_standard(mix: &TenantMix, install: InstallPolicy, threads: usize) -> ServerReport {
    session(mix, standard_vm(install, EvictionPolicy::Lru, threads))
        .serve()
        .expect("standard server scenario must serve")
}

fn install_label(install: InstallPolicy) -> &'static str {
    match install {
        InstallPolicy::Barrier => "barrier",
        InstallPolicy::Safepoint => "safepoint",
    }
}

/// Multi-tenant serving under each install policy (beyond the paper): the
/// standard mix served with barrier and with safepoint installs. Emits
/// machine-readable JSON — the seed of `BENCH_server.json` — with
/// request-latency and mutator-stall tails, fairness, queue depth and
/// cache churn per cell.
pub fn figure() -> String {
    use crate::json::Json;

    let mix = standard_mix();
    let mut cells = Vec::new();
    for install in [InstallPolicy::Barrier, InstallPolicy::Safepoint] {
        let r = serve_standard(&mix, install, 4);
        let depths: Vec<u64> = r.queue_depth.iter().map(|&(_, d)| d).collect();
        cells.push(Json::obj(vec![
            ("install", install_label(install).into()),
            ("eviction", "lru".into()),
            ("latency_p50", r.latency.p50.into()),
            ("latency_p99", r.latency.p99.into()),
            ("latency_p999", r.latency.p999.into()),
            ("latency_max", r.latency.max.into()),
            ("stall_p50", r.stall.p50.into()),
            ("stall_p99", r.stall.p99.into()),
            ("stall_p999", r.stall.p999.into()),
            ("worst_pause", r.stall.max.into()),
            ("fairness", Json::Raw(format!("{:.4}", r.fairness))),
            ("max_queue_depth", r.max_queue_depth.into()),
            ("queue_depth_p99", percentile(&depths, 0.99).into()),
            ("compilations", r.compilations.into()),
            ("evictions", r.cache.evictions.into()),
            ("re_tiered", r.cache.re_tiered.into()),
            ("installed_bytes", r.installed_bytes.into()),
            ("total_cycles", r.total_cycles.into()),
        ]));
    }
    let mix_desc: Vec<Json> = mix
        .tenants
        .iter()
        .map(|t| format!("{}(w{})", t.name, t.weight).into())
        .collect();
    Json::obj(vec![
        (
            "scenario",
            Json::obj(vec![
                ("seed", DEFAULT_SEED.into()),
                ("tenants", Json::Arr(mix_desc)),
                ("requests", standard_spec().requests.into()),
                ("budget", 1536u64.into()),
                ("threads", 4u64.into()),
            ]),
        ),
        ("cells", Json::Arr(cells)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_scenario_is_deterministic() {
        let mix = standard_mix();
        let a = serve_standard(&mix, InstallPolicy::Barrier, 4);
        let b = serve_standard(&mix, InstallPolicy::Barrier, 4);
        assert_eq!(a, b);
        assert_eq!(a.tenants.len(), DEFAULT_TENANTS);
    }

    #[test]
    fn figure_emits_both_install_policies() {
        let json = figure();
        assert!(json.contains("\"install\":\"barrier\""));
        assert!(json.contains("\"install\":\"safepoint\""));
        assert_eq!(json.matches("\"eviction\":\"lru\"").count(), 2);
    }
}
