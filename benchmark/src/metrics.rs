//! The metric tables: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` is rendered from these tables
//! (`wall --manifest`) and a test keeps the file and the tables equal.

use crate::workloads::Kind;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the parent's median by which it may get worse before a change
/// counts as a regression.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound.
    pub bound: f64,
}

/// The end-to-end metrics; every workload reports all of them from the
/// untraced binary.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "pass_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_kb",
        unit: "kB",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "modelled_cycles",
        unit: "vcycles",
        better: Lower,
        bound: 0.001,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: no bound, reported by the traced binary.
pub type PerLayer = (&'static str, &'static str, Better);

/// The per-layer metrics, in the order `layers::probe` reports them.
pub const PER_LAYER: [PerLayer; 76] = [
    ("workloads.build_ms", "ms", Lower),
    ("workloads.generate_ms", "ms", Lower),
    ("ir.text_kb", "kB", Lower),
    ("ir.print_ns_per_kb", "ns/kB", Lower),
    ("ir.parse_ns_per_kb", "ns/kB", Lower),
    ("ir.insts", "count", Lower),
    ("ir.verify_ns_per_inst", "ns/inst", Lower),
    ("opt.nodes_in", "count", Lower),
    ("opt.nodes_out", "count", Lower),
    ("opt.events", "count", Higher),
    ("opt.pipeline_ns_per_node", "ns/node", Lower),
    ("opt.canonicalize_ms", "ms", Lower),
    ("opt.gvn_ms", "ms", Lower),
    ("opt.dce_ms", "ms", Lower),
    ("opt.rwelim_ms", "ms", Lower),
    ("opt.condelim_ms", "ms", Lower),
    ("opt.typeprop_ms", "ms", Lower),
    ("opt.peel_ms", "ms", Lower),
    ("core.compile_ms", "ms", Lower),
    ("core.rounds", "count", Lower),
    ("core.nodes_expanded", "count", Lower),
    ("core.inline_decisions", "count", Lower),
    ("core.round_ms_p50", "ms", Lower),
    ("baselines.greedy_compile_ms", "ms", Lower),
    ("baselines.c2_compile_ms", "ms", Lower),
    ("vm.noinline_compile_ms", "ms", Lower),
    ("vm.broker.compile_now_ms", "ms", Lower),
    ("vm.broker.compile_wall_ms", "ms", Lower),
    ("vm.broker.ladder_overhead_ms", "ms", Lower),
    ("vm.broker.threads1_ratio", "ratio", Lower),
    ("vm.trials.hits", "count", Higher),
    ("vm.trials.misses", "count", Lower),
    ("vm.trials.hit_ratio", "ratio", Higher),
    ("vm.trials.off_ratio", "ratio", Higher),
    ("vm.interp_iter_ms", "ms", Lower),
    ("vm.interp_mvcycles_per_s", "Mvcycles/s", Higher),
    ("vm.compiled_iter_ms", "ms", Lower),
    ("vm.compiled_mvcycles_per_s", "Mvcycles/s", Higher),
    ("vm.warmup_iter_ms", "ms", Lower),
    ("vm.machine_new_us", "us", Lower),
    ("profile.record_ns", "ns", Lower),
    ("profile.clone_us", "us", Lower),
    ("profile.merge_us", "us", Lower),
    ("vm.cache.evictions", "count", Lower),
    ("vm.cache.rejections", "count", Lower),
    ("vm.cache.re_tiered", "count", Lower),
    ("vm.cache.bounded_ratio", "ratio", Lower),
    ("vm.server.latency_p50_vcycles", "vcycles", Lower),
    ("vm.server.latency_p99_vcycles", "vcycles", Lower),
    ("vm.server.stall_p99_vcycles", "vcycles", Lower),
    ("vm.server.compilations", "count", Lower),
    ("vm.snapshot.bytes", "bytes", Lower),
    ("vm.snapshot.encode_us", "us", Lower),
    ("vm.snapshot.decode_us", "us", Lower),
    ("vm.snapshot.merge3_us", "us", Lower),
    ("vm.snapshot.eager_replay_ms", "ms", Lower),
    ("vm.snapshot.warm_start_ms", "ms", Lower),
    ("vm.deopt.deopts", "count", Lower),
    ("vm.deopt.recompiles", "count", Lower),
    ("vm.deopt.pinned", "count", Lower),
    ("vm.bailouts.total", "count", Lower),
    ("trace.events", "count", Lower),
    ("trace.jsonl_bytes", "bytes", Lower),
    ("trace.jsonl_ns_per_event", "ns", Lower),
    ("trace.null_ratio", "ratio", Lower),
    ("trace.collecting_ratio", "ratio", Lower),
    ("trace.jsonl_ratio", "ratio", Lower),
    ("modelled.stall_cycles", "vcycles", Lower),
    ("modelled.code_bytes", "bytes", Lower),
    ("alloc.bytes_per_pass", "bytes", Lower),
    ("alloc.calls_per_pass", "count", Lower),
    ("alloc.peak_bytes", "bytes", Lower),
    ("bench.traced_pass_ms", "ms", Lower),
    ("bench.trace_overhead_ratio", "ratio", Lower),
    ("bench.calib_ms_start", "ms", Lower),
    ("bench.calib_ms_end", "ms", Lower),
];

/// Seconds one driver run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

/// Why each workload is in the benchmark, one line each.
pub fn why(kind: Kind) -> &'static str {
    match kind {
        Kind::SuiteCold => "the mix run_all users feel: cold RunSession per program, a third each interpreter warm-up, compile ladder, compiled tier; any layer's gain shows in proportion to its share",
        Kind::InterpOnly => "jit off: the interpreter and profile counters do all the work and the compile ladder none, so interpreter work shows here and compile work must not",
        Kind::PeakCompiled => "long JIT runs, about 80% of the time in the compiled tier of the same exec_graph: an interpreter trick that taxes compiled code, or work moved into install, shows",
        Kind::CompileOnly => "profiles warmed in set-up, timed compile_now on every hot method: core, opt, ir inline/verify, broker ladder and install do all the work, execution none",
        Kind::ServerMix => "6000 short requests from 6 tenants under a 1536-byte code cache: server, cache and broker bookkeeping dominate; the only workload where eviction and re-tiering matter",
    }
}

/// Renders `BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads: Vec<String> = Kind::ALL
        .iter()
        .map(|&k| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                k.name(),
                why(k)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.word(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.word()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_rendered_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `wall --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(Kind::ALL.iter().map(|k| k.name()));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in END_TO_END {
            assert!(
                unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        for (name, unit, _) in PER_LAYER {
            assert!(unit_ok(unit), "{name}: bad unit {unit}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        for k in Kind::ALL {
            assert!(
                why(k).len() <= 200 && !why(k).contains('\n'),
                "{}",
                k.name()
            );
        }
        assert!(manifest().len() < 64 * 1024);
    }
}
