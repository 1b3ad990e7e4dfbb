//! One function per table/figure of the paper's evaluation, and
//! [`FIGURES`], the table that names them.
//!
//! Every function returns the rendered report, so `incline-bench <figure>`
//! and `incline-bench run_all` (which assembles `EXPERIMENTS.md`) share the
//! same code path. See DESIGN.md §5 for the experiment index.

use incline_core::policy::{ExpansionThreshold, InlineThreshold, PolicyConfig};
use incline_workloads::{all_benchmarks, suite, Suite, Workload};

use crate::{
    compile, drift, fmt_cycles, fmt_kib, measure, measure_all, measure_with_vm, render_table,
    server, Config, Measurement,
};

/// A figure: the name `incline-bench <name>` runs it by, the checked-in
/// file its output seeds, and its generator (`full` asks for the complete
/// threshold grid where there is one).
pub type Figure = (&'static str, &'static str, fn(bool) -> String);

/// Every figure, in the order `run_all` writes its share of them — the
/// ones that seed `EXPERIMENTS.md` — into that file.
pub const FIGURES: &[Figure] = &[
    ("fig05_warmup", "EXPERIMENTS.md", |_| fig05()),
    ("fig06_thresholds_dacapo", "EXPERIMENTS.md", fig06),
    ("fig07_thresholds_scala", "EXPERIMENTS.md", fig07),
    ("fig08_clustering", "EXPERIMENTS.md", |_| fig08()),
    ("fig09_comparison", "EXPERIMENTS.md", |_| fig09()),
    ("fig10_code_size", "EXPERIMENTS.md", |_| fig10_and_table1()),
    ("ablations", "EXPERIMENTS.md", |_| ablations()),
    ("stalls", "EXPERIMENTS.md", |_| stalls()),
    ("cache", "BENCH_cache.json", |_| cache()),
    ("server", "BENCH_server.json", |_| server::figure()),
    ("warmup", "BENCH_warmup.json", |_| warmup()),
    ("drift", "BENCH_drift.json", |_| drift::figure()),
    ("compile", "BENCH_compile.json", |_| compile::figure()),
];

fn fixed_config(te: usize, ti: usize) -> Config {
    // Leak a small label string: configs live for the whole run.
    let label: &'static str = Box::leak(format!("Te{te}/Ti{ti}").into_boxed_str());
    Config::Incremental(label, PolicyConfig::fixed(te, ti))
}

/// The (T_e, T_i) sweep of Figures 6/7. The paper sweeps
/// T_e ∈ {500, 1k, 3k, 5k, 7k} and T_i ∈ {1k, 3k, 6k} on Graal-scale IR;
/// rescaled ÷2 to this substrate (like the adaptive constants, see
/// `PolicyConfig::tuned`) that is T_e ∈ {250, 500, 1.5k, 2.5k, 3.5k} and
/// T_i ∈ {500, 1.5k, 3k}. The default grid pairs them diagonally;
/// `full` runs the complete 5×3 grid.
pub fn threshold_grid(full: bool) -> Vec<Config> {
    let mut v = vec![Config::paper()];
    if full {
        for te in [250, 500, 1500, 2500, 3500] {
            for ti in [500, 1500, 3000] {
                v.push(fixed_config(te, ti));
            }
        }
    } else {
        for (te, ti) in [
            (250, 500),
            (500, 1500),
            (1500, 1500),
            (2500, 3000),
            (3500, 3000),
        ] {
            v.push(fixed_config(te, ti));
        }
    }
    v
}

fn threshold_report(title: &str, benches: &[Workload], full: bool) -> String {
    let configs = threshold_grid(full);
    let mut headers = vec!["benchmark".to_string()];
    headers.extend(configs.iter().map(|c| c.name().to_string()));
    headers.push("code(adpt)".to_string());
    headers.push("code(best-fixed)".to_string());

    let mut rows = Vec::new();
    let mut adaptive_wins = 0usize;
    let mut within_5pct = 0usize;
    for w in benches {
        let ms = measure_all(w, &configs);
        let adaptive = ms[0].cycles();
        let best_fixed = ms[1..]
            .iter()
            .min_by(|a, b| a.cycles().partial_cmp(&b.cycles()).unwrap())
            .expect("fixed configs present");
        if adaptive <= best_fixed.cycles() {
            adaptive_wins += 1;
        }
        if adaptive <= best_fixed.cycles() * 1.05 {
            within_5pct += 1;
        }
        let mut row = vec![w.name.clone()];
        for m in &ms {
            row.push(crate::normalized(m.cycles(), adaptive));
        }
        row.push(fmt_kib(ms[0].code_bytes()));
        row.push(fmt_kib(best_fixed.code_bytes()));
        rows.push(row);
    }
    let mut out = format!("## {title}\n\n");
    out.push_str("Normalized running time (adaptive = 1.00; >1.00 is slower than adaptive).\n\n");
    out.push_str(&render_table(&headers, &rows));
    out.push_str(&format!(
        "\nadaptive beats every fixed setting on {adaptive_wins}/{} benchmarks; \
         within 5% of the best per-benchmark fixed setting on {within_5pct}/{}.\n",
        benches.len(),
        benches.len()
    ));
    out
}

/// Figure 6: DaCapo, adaptive vs. fixed expansion/inlining thresholds.
pub fn fig06(full: bool) -> String {
    threshold_report(
        "Figure 6 — DaCapo: adaptive vs. fixed thresholds",
        &suite(Suite::DaCapo),
        full,
    )
}

/// Figure 7: Scala DaCapo + Spark + others, same sweep.
pub fn fig07(full: bool) -> String {
    let mut benches = suite(Suite::ScalaDaCapo);
    benches.extend(suite(Suite::SparkPerf));
    benches.extend(suite(Suite::Other));
    threshold_report(
        "Figure 7 — Scala DaCapo, Spark-Perf, Neo4j/Dotty/STMBench7: adaptive vs. fixed thresholds",
        &benches,
        full,
    )
}

/// Figure 8: callsite clustering vs. 1-by-1 inlining across (t1, t2).
pub fn fig08() -> String {
    // The paper tests (t1, t2) ∈ {(0.005, 120), (0.0001, 1440), …}; the
    // t2 exponent scale rescales ÷5 with the substrate (DESIGN.md §1).
    let params: [(f64, f64); 3] = [(0.005, 60.0), (0.0001, 720.0), (0.02, 30.0)];
    let mut configs = Vec::new();
    for &(t1, t2) in &params {
        let label: &'static str = Box::leak(format!("cluster({t1},{t2})").into_boxed_str());
        let mut c = PolicyConfig::tuned();
        c.inlining = InlineThreshold::Adaptive { t1, t2 };
        configs.push(Config::Incremental(label, c));
    }
    for &(t1, t2) in &params {
        let label: &'static str = Box::leak(format!("1-by-1({t1},{t2})").into_boxed_str());
        configs.push(Config::Incremental(label, PolicyConfig::one_by_one(t1, t2)));
    }

    let benches = all_benchmarks();
    let mut headers = vec!["benchmark".to_string()];
    headers.extend(configs.iter().map(|c| c.name().to_string()));
    let mut rows = Vec::new();
    let mut cluster_spread = 0.0f64;
    let mut one_spread = 0.0f64;
    let mut cluster_beats = 0usize;
    for w in &benches {
        let ms = measure_all(w, &configs);
        let best = ms
            .iter()
            .map(Measurement::cycles)
            .fold(f64::INFINITY, f64::min);
        let mut row = vec![w.name.clone()];
        for m in &ms {
            row.push(crate::normalized(m.cycles(), best));
        }
        rows.push(row);
        let cmin = ms[..3]
            .iter()
            .map(Measurement::cycles)
            .fold(f64::INFINITY, f64::min);
        let cmax = ms[..3]
            .iter()
            .map(Measurement::cycles)
            .fold(0.0f64, f64::max);
        let omin = ms[3..]
            .iter()
            .map(Measurement::cycles)
            .fold(f64::INFINITY, f64::min);
        let omax = ms[3..]
            .iter()
            .map(Measurement::cycles)
            .fold(0.0f64, f64::max);
        cluster_spread += cmax / cmin.max(1.0);
        one_spread += omax / omin.max(1.0);
        if cmin <= omin * 1.001 {
            cluster_beats += 1;
        }
    }
    let n = benches.len() as f64;
    let mut out = "## Figure 8 — clustering vs. 1-by-1 inlining\n\n".to_string();
    out.push_str("Normalized running time (per-benchmark best = 1.00).\n\n");
    out.push_str(&render_table(&headers, &rows));
    out.push_str(&format!(
        "\nparameter sensitivity (mean worst/best across (t1,t2)): clustering {:.3}, 1-by-1 {:.3} \
         (paper: clustering is \"relatively insensitive to the choice of parameters\");\n\
         clustering's best matches or beats 1-by-1's best on {cluster_beats}/{} benchmarks.\n",
        cluster_spread / n,
        one_spread / n,
        benches.len()
    ));
    out
}

/// Figure 9: the headline comparison — the proposed inliner vs. shallow
/// trials, the greedy open-source-Graal-style inliner, and C2.
pub fn fig09() -> String {
    let configs = vec![
        Config::paper(),
        Config::Incremental("no-deep-trials", PolicyConfig::shallow_trials()),
        Config::Greedy,
        Config::C2,
        Config::NoInline,
    ];
    let benches = all_benchmarks();
    let mut headers = vec!["benchmark".to_string(), "suite".to_string()];
    headers.extend(configs.iter().map(|c| c.name().to_string()));
    let mut rows = Vec::new();
    let mut beats_greedy = 0usize;
    let mut beats_c2 = 0usize;
    let mut deep_helps = 0usize;
    let mut speedup_vs_greedy = Vec::new();
    for w in &benches {
        let ms = measure_all(w, &configs);
        let incr = ms[0].cycles();
        let mut row = vec![w.name.clone(), w.suite.label().to_string()];
        for m in &ms {
            row.push(crate::normalized(m.cycles(), incr));
        }
        rows.push(row);
        if incr <= ms[2].cycles() {
            beats_greedy += 1;
        }
        if incr <= ms[3].cycles() {
            beats_c2 += 1;
        }
        if incr <= ms[1].cycles() {
            deep_helps += 1;
        }
        speedup_vs_greedy.push(ms[2].cycles() / incr.max(1.0));
    }
    let geo: f64 = (speedup_vs_greedy.iter().map(|s| s.ln()).sum::<f64>()
        / speedup_vs_greedy.len() as f64)
        .exp();
    let max = speedup_vs_greedy.iter().cloned().fold(0.0f64, f64::max);
    let mut out = "## Figure 9 — comparison against alternative inliners\n\n".to_string();
    out.push_str(
        "Normalized running time (incremental = 1.00; >1.00 is slower than incremental).\n\n",
    );
    out.push_str(&render_table(&headers, &rows));
    out.push_str(&format!(
        "\nincremental ≥ greedy on {beats_greedy}/{n}, ≥ C2 on {beats_c2}/{n}; \
         deep trials help or are neutral on {deep_helps}/{n}.\n\
         speedup over greedy: geomean {geo:.2}x, max {max:.2}x \
         (paper: improvements \"ranging from 5% up to 3x\").\n",
        n = benches.len()
    ));
    out
}

/// Figure 5: warmup curves for the most prominent examples.
pub fn fig05() -> String {
    let names = ["xalan", "gauss-mix", "scalatest", "jython"];
    let configs = [Config::paper(), Config::Greedy, Config::C2];
    let mut out = "## Figure 5 — warmup curves (cycles per iteration)\n\n".to_string();
    for name in names {
        let w = incline_workloads::by_name(name).expect("benchmark exists");
        out.push_str(&format!("### {name}\n\n"));
        let mut headers = vec!["iter".to_string()];
        headers.extend(configs.iter().map(|c| c.name().to_string()));
        let results: Vec<_> = configs.iter().map(|c| measure(&w, c).result).collect();
        let mut rows = Vec::new();
        for i in 0..w.iterations {
            let mut row = vec![format!("{}", i + 1)];
            for r in &results {
                row.push(fmt_cycles(r.per_iteration[i] as f64));
            }
            rows.push(row);
        }
        out.push_str(&render_table(&headers, &rows));
        let warmups: Vec<String> = configs
            .iter()
            .zip(&results)
            .map(|(c, r)| format!("{}={}", c.name(), r.warmup_iterations()))
            .collect();
        out.push_str(&format!(
            "warmup (iterations to within 10% of steady state): {}\n\n",
            warmups.join(", ")
        ));
    }
    out
}

/// Figure 10 + Table I: installed code size comparison.
pub fn fig10_and_table1() -> String {
    let configs = [Config::paper(), Config::Greedy, Config::C2, Config::C1];
    let benches = all_benchmarks();
    let mut headers = vec!["benchmark".to_string()];
    headers.extend(configs.iter().map(|c| format!("{} code", c.name())));
    headers.push("time(incr/c2)".to_string());
    let mut rows = Vec::new();
    let mut ratio_greedy = Vec::new();
    let mut ratio_c2 = Vec::new();
    for w in &benches {
        // Code size tables tolerate output divergence checking too.
        let ms = measure_all(w, &configs);
        let mut row = vec![w.name.clone()];
        for m in &ms {
            row.push(fmt_kib(m.code_bytes()));
        }
        row.push(crate::normalized(ms[0].cycles(), ms[2].cycles()));
        rows.push(row);
        ratio_greedy.push(ms[0].code_bytes() as f64 / ms[1].code_bytes().max(1) as f64);
        ratio_c2.push(ms[0].code_bytes() as f64 / ms[2].code_bytes().max(1) as f64);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let mut out = "## Figure 10 / Table I — installed code size\n\n".to_string();
    out.push_str(&render_table(&headers, &rows));
    out.push_str(&format!(
        "\naverage code size: incremental/greedy {:.2}x (paper: ≈2.37x), \
         incremental/c2 {:.2}x (paper: ≈1.88x).\n",
        avg(&ratio_greedy),
        avg(&ratio_c2)
    ));
    out
}

/// Ablations beyond the paper: recursion penalty, typeswitch width,
/// and an over-inlining stress (huge fixed budgets vs. the i-cache).
pub fn ablations() -> String {
    let mut no_rec = PolicyConfig::tuned();
    no_rec.recursion_penalty = false;
    let mut mono = PolicyConfig::tuned();
    mono.max_targets = 1;
    let mut no_expand_limit = PolicyConfig::tuned();
    no_expand_limit.expansion = ExpansionThreshold::Fixed { te: 12_000 };
    no_expand_limit.inlining = InlineThreshold::Fixed { ti: 12_000 };
    let configs = vec![
        Config::paper(),
        Config::Incremental("no-rec-penalty", no_rec),
        Config::Incremental("mono-switch", mono),
        Config::Incremental("inline-everything", no_expand_limit),
    ];
    let names = [
        "jython",
        "scalac",
        "factorie",
        "dotty",
        "stmbench7",
        "gauss-mix",
    ];
    let mut headers = vec!["benchmark".to_string()];
    headers.extend(configs.iter().map(|c| c.name().to_string()));
    headers.push("code(paper)".to_string());
    headers.push("code(inline-all)".to_string());
    let mut rows = Vec::new();
    for name in names {
        let w = incline_workloads::by_name(name).expect("benchmark exists");
        let ms = measure_all(&w, &configs);
        let base = ms[0].cycles();
        let mut row = vec![w.name.clone()];
        for m in &ms {
            row.push(crate::normalized(m.cycles(), base));
        }
        row.push(fmt_kib(ms[0].code_bytes()));
        row.push(fmt_kib(ms[3].code_bytes()));
        rows.push(row);
    }
    let mut out = "## Ablations (beyond the paper)\n\n".to_string();
    out.push_str(
        "Normalized running time (paper config = 1.00). `inline-everything` \
         shows the §II.3 non-linearity: unlimited budgets grow code past \
         the i-cache capacity.\n\n",
    );
    out.push_str(&render_table(&headers, &rows));
    out
}

/// Background-compilation stall comparison (beyond the paper): the
/// synchronous broker stalls the mutator for every compile cycle; the
/// pipelined broker (4 workers, install at safepoints) overlaps
/// compilation with interpretation. Reported per benchmark: total
/// compile cycles, mutator-visible stall under each broker, and the
/// reduction.
pub fn stalls() -> String {
    use incline_vm::InstallPolicy;
    let config = Config::paper();
    let benches = all_benchmarks();
    let headers: Vec<String> = [
        "benchmark",
        "compile",
        "stall(sync)",
        "stall(pipelined)",
        "kept",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    let mut improved = 0usize;
    for w in &benches {
        let sync = measure_with_vm(w, &config, crate::default_vm());
        let pipelined = measure_with_vm(
            w,
            &config,
            incline_vm::VmConfig {
                compile_threads: 4,
                install_policy: InstallPolicy::Safepoint,
                ..crate::default_vm()
            },
        );
        if pipelined.stall_cycles() < sync.stall_cycles() {
            improved += 1;
        }
        let kept = if sync.stall_cycles() == 0 {
            "-".to_string()
        } else {
            format!(
                "{:.0}%",
                100.0 * pipelined.stall_cycles() as f64 / sync.stall_cycles() as f64
            )
        };
        rows.push(vec![
            w.name.clone(),
            fmt_cycles(sync.result.compile_cycles as f64),
            fmt_cycles(sync.stall_cycles() as f64),
            fmt_cycles(pipelined.stall_cycles() as f64),
            kept,
        ]);
    }
    let mut out = "## Background compilation — mutator stalls (beyond the paper)\n\n".to_string();
    out.push_str(
        "Synchronous broker (compile_threads=0, barrier install) vs the \
         pipelined broker (compile_threads=4, safepoint install). `kept` \
         is the fraction of the synchronous stall the mutator still pays.\n\n",
    );
    out.push_str(&render_table(&headers, &rows));
    out.push_str(&format!(
        "\npipelined stall strictly lower on {improved}/{} benchmarks.\n",
        benches.len()
    ));
    out
}

/// Bounded code cache under pressure (beyond the paper): the storm-sized
/// cache-pressure workload, run unbounded and then under a tight LRU
/// budget. Emits machine-readable JSON — the seed of `BENCH_cache.json` —
/// with evictions, admission rejections, re-tier counts, stall
/// percentiles and the high-water mark.
pub fn cache() -> String {
    use crate::json::Json;
    let w = incline_workloads::cache_pressure::storm();
    let budget: u64 = 8 * 1024;
    let config = Config::paper();
    let bounded = incline_vm::VmConfig {
        code_cache_budget: budget,
        ..crate::default_vm()
    };
    let r = &measure_with_vm(&w, &config, bounded).result;
    let c = r.cache;
    let lru = Json::obj(vec![
        ("policy", "lru".into()),
        ("evictions", c.evictions.into()),
        ("forced_evictions", c.forced_evictions.into()),
        ("admission_rejections", c.admission_rejections.into()),
        ("degraded_admissions", c.degraded_admissions.into()),
        ("re_tiered", c.re_tiered.into()),
        ("high_water_bytes", c.high_water_bytes.into()),
        ("installed_bytes", r.installed_bytes.into()),
        ("compilations", r.compilations.into()),
        ("steady_state", Json::f1(r.steady_state)),
        ("stall_p50", r.stall_percentile(0.50).into()),
        ("stall_p99", r.stall_percentile(0.99).into()),
        ("stall_total", r.stall_cycles.into()),
    ]);
    let unbounded = measure_with_vm(&w, &config, crate::default_vm());
    let u = &unbounded.result;
    Json::obj(vec![
        ("workload", w.name.as_str().into()),
        ("budget", budget.into()),
        (
            "unbounded",
            Json::obj(vec![
                ("installed_bytes", u.installed_bytes.into()),
                ("compilations", u.compilations.into()),
                ("steady_state", Json::f1(u.steady_state)),
                ("stall_p50", u.stall_percentile(0.50).into()),
                ("stall_p99", u.stall_percentile(0.99).into()),
                ("stall_total", u.stall_cycles.into()),
            ]),
        ),
        ("policies", Json::Arr(vec![lru])),
    ])
    .render()
}

/// Warmup elimination via persistent snapshots (beyond the paper): every
/// standard workload is run cold (writing a snapshot to an in-memory
/// cell), then replayed eagerly (snapshot's compile decisions recompiled
/// up front). Emits machine-readable JSON — the seed of
/// `BENCH_warmup.json` — with "cycles to within 5% of steady state" as the
/// first-class metric, plus the multi-tenant server scenario where one
/// run's snapshot warms the next server's shared cache.
///
/// A workload *passes* when the eager replay reaches within 5% of
/// steady-state throughput in ≤ 25% of the cold run's warmup cycles with a
/// byte-identical answer digest; the acceptance criterion is a pass on at
/// least half of the standard workloads.
pub fn warmup() -> String {
    use crate::json::Json;
    use incline_vm::{RunSession, ServerSession, SnapshotIo, VmConfig};

    const FRAC: f64 = 0.05;
    let config = Config::paper();
    let benches = all_benchmarks();
    let mut rows = Vec::new();
    let mut passes = 0usize;
    for w in &benches {
        let session = || crate::session(w, &config, crate::default_vm());
        let run = |s: RunSession| s.run().unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let store = SnapshotIo::memory();
        let cold = run(session().snapshot_out(store.clone()));
        let eager = run(session().snapshot_in(store));
        let cold_cycles = cold.warmup_cycles_within(FRAC);
        let eager_cycles = eager.warmup_cycles_within(FRAC);
        let digest_ok = eager.answer_digest() == cold.answer_digest();
        let pass = digest_ok && eager_cycles * 4 <= cold_cycles;
        if pass {
            passes += 1;
        }
        rows.push(Json::obj(vec![
            ("workload", w.name.as_str().into()),
            ("suite", w.suite.label().into()),
            (
                "cold",
                Json::obj(vec![
                    ("warmup_iters", cold.warmup_within(FRAC).into()),
                    ("warmup_cycles", cold_cycles.into()),
                    ("steady_state", Json::f1(cold.steady_state)),
                ]),
            ),
            (
                "eager",
                Json::obj(vec![
                    ("warmup_iters", eager.warmup_within(FRAC).into()),
                    ("warmup_cycles", eager_cycles.into()),
                    ("replayed_compiles", eager.snapshot.replayed_compiles.into()),
                    ("digest_match", digest_ok.into()),
                ]),
            ),
            ("pass", pass.into()),
        ]));
    }

    // Fleet warming: one server's snapshot pre-warms the next server's
    // shared code cache before it takes its first request. Unlike the
    // cache-churn grid this serves with an unbounded cache — the point is
    // the warmup, not eviction pressure.
    let mix = crate::server::standard_mix();
    let vm = VmConfig {
        hotness_threshold: 4,
        ..VmConfig::default()
    };
    let serve = |s: ServerSession| s.serve().expect("server scenario must serve");
    let server_store = SnapshotIo::memory();
    let cold_srv = serve(crate::server::session(&mix, vm).snapshot_out(server_store.clone()));
    let warm_srv = serve(crate::server::session(&mix, vm).snapshot_in(server_store));
    let tenants_match = cold_srv
        .tenants
        .iter()
        .zip(&warm_srv.tenants)
        .all(|(c, w)| c.digest == w.digest);

    Json::obj(vec![
        ("metric", "cycles to within 5% of steady state".into()),
        (
            "criterion",
            "eager warmup cycles <= 25% of cold with identical digest".into(),
        ),
        ("workloads", Json::Arr(rows)),
        (
            "summary",
            Json::obj(vec![
                ("passes", passes.into()),
                ("total", benches.len().into()),
                ("meets_criterion", (passes * 2 >= benches.len()).into()),
            ]),
        ),
        (
            "server",
            Json::obj(vec![
                ("cold_cycles", cold_srv.total_cycles.into()),
                ("warm_cycles", warm_srv.total_cycles.into()),
                (
                    "replayed_compiles",
                    warm_srv.snapshot.replayed_compiles.into(),
                ),
                ("cold_latency_p99", cold_srv.latency.p99.into()),
                ("warm_latency_p99", warm_srv.latency.p99.into()),
                ("cold_stall_p99", cold_srv.stall.p99.into()),
                ("warm_stall_p99", warm_srv.stall.p99.into()),
                ("tenant_digests_match", tenants_match.into()),
            ]),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_grids_have_expected_shape() {
        let diag = threshold_grid(false);
        assert_eq!(diag.len(), 6, "adaptive + 5 diagonal fixed settings");
        assert_eq!(diag[0].name(), "incremental");
        let full = threshold_grid(true);
        assert_eq!(full.len(), 16, "adaptive + 5×3 grid");
        // All fixed labels are distinct.
        let mut names: Vec<&str> = full.iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 16);
    }
}
