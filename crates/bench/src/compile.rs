//! Compiler-throughput figure: per-workload compiler cost, baseline vs
//! tuned (`BENCH_compile.json`).
//!
//! For every benchmark of the paper suite this runs the paper inliner
//! twice — once with the deep-inlining-trial cache disabled (the
//! *baseline*) and once with it enabled (the *tuned* configuration) —
//! and records what each compilation campaign cost the host: compile
//! wall time, virtual compile cycles charged, and allocation counts
//! from the in-repo counting allocator ([`crate::alloc`]). Allocation
//! counts are only non-zero when the final binary registers
//! [`CountingAlloc`](crate::alloc::CountingAlloc) with
//! `#[global_allocator]`; the `incline-bench` binary does, the library's
//! test binary does not.
//!
//! Determinism contract: the trial cache must not change any
//! deterministic observable. Every row therefore carries an `identical`
//! flag (digest of final value + output matches across the two runs)
//! and the figure digest covers *only* the deterministic subset —
//! virtual cycles, compilation counts, trial hit/miss counters and the
//! answer digest. Wall time and allocation counts are real host
//! measurements and stay outside the digest so the CI regression gate
//! (`compile-throughput`) can diff digests across machines.
//!
//! Win criterion (per workload): the tuned run must have at least one
//! trial-cache hit, and must allocate strictly fewer total bytes than
//! the baseline (when counting is enabled) or spend less compile wall
//! time (fallback when it is not). The summary reports how many
//! workloads won and whether that is at least half the suite.

use crate::json::Json;
use crate::{alloc, Config};
use incline_vm::snapshot::fnv1a;
use incline_vm::{BenchSpec, RunSession, Value, VmConfig};
use incline_workloads::{all_benchmarks, Workload};

/// Compiler cost of one (workload, configuration) run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CostSample {
    /// Host wall-clock nanoseconds spent inside the compile ladder.
    pub wall_nanos: u64,
    /// Virtual compile cycles charged over the run (deterministic).
    pub compile_cycles: u64,
    /// Methods compiled (deterministic).
    pub compilations: u64,
    /// Deep-inlining-trial cache hits (0 with the cache disabled).
    pub trial_hits: u64,
    /// Deep-inlining-trial cache misses (0 with the cache disabled).
    pub trial_misses: u64,
    /// Bytes requested from the allocator during the run.
    pub alloc_bytes: u64,
    /// Allocation calls during the run.
    pub alloc_calls: u64,
    /// Peak net live-byte growth during the run.
    pub alloc_peak: u64,
    /// FNV-1a digest of the final value and output (deterministic).
    pub answer: u64,
}

/// Baseline-vs-tuned compiler cost of one workload.
#[derive(Clone, Debug)]
pub struct WorkloadCost {
    /// Benchmark name.
    pub name: String,
    /// Trial cache disabled.
    pub baseline: CostSample,
    /// Trial cache enabled.
    pub tuned: CostSample,
}

impl WorkloadCost {
    /// Whether both runs produced the same answer digest — the figure's
    /// embedded determinism check.
    pub fn identical(&self) -> bool {
        self.baseline.answer == self.tuned.answer
    }

    /// Whether the tuned configuration measurably won (see module docs).
    /// A run with zero cache hits never counts as a win, no matter what
    /// the host timers say.
    pub fn win(&self, alloc_counted: bool) -> bool {
        if self.tuned.trial_hits == 0 {
            return false;
        }
        if alloc_counted {
            self.tuned.alloc_bytes < self.baseline.alloc_bytes
        } else {
            self.tuned.wall_nanos < self.baseline.wall_nanos
        }
    }
}

/// Measures one workload under the paper inliner with the trial cache
/// on or off.
pub fn measure_cost(w: &Workload, trial_cache: bool) -> CostSample {
    let vm = VmConfig {
        trial_cache,
        ..crate::default_vm()
    };
    let spec = BenchSpec {
        entry: w.entry,
        args: vec![Value::Int(w.input)],
        iterations: w.iterations,
    };
    let window = alloc::start_window();
    let (result, report) = RunSession::new(&w.program, spec)
        .inliner(Config::paper().build())
        .config(vm)
        .run_with_report()
        .expect("benchmark workloads run to completion");
    let a = window.finish();
    CostSample {
        wall_nanos: report.compile_wall_nanos,
        compile_cycles: result.compile_cycles,
        compilations: result.compilations,
        trial_hits: report.trial_hits,
        trial_misses: report.trial_misses,
        alloc_bytes: a.total_bytes,
        alloc_calls: a.calls,
        alloc_peak: a.peak_bytes,
        answer: result.answer_digest(),
    }
}

/// Measures the full paper suite, baseline then tuned per workload.
pub fn measure_suite() -> Vec<WorkloadCost> {
    all_benchmarks()
        .iter()
        .map(|w| WorkloadCost {
            name: w.name.clone(),
            baseline: measure_cost(w, false),
            tuned: measure_cost(w, true),
        })
        .collect()
}

/// The deterministic subset of one sample (no wall time, no allocation
/// counts) — the digest input.
fn deterministic_json(s: &CostSample) -> Json {
    Json::obj(vec![
        ("cycles", s.compile_cycles.into()),
        ("compilations", s.compilations.into()),
        ("trial_hits", s.trial_hits.into()),
        ("trial_misses", s.trial_misses.into()),
        ("answer", Json::Str(format!("{:016x}", s.answer))),
    ])
}

/// Digest over the deterministic subset of every row. Stable across
/// machines; the CI `compile-throughput`
/// job diffs this against the checked-in figure.
pub fn digest(costs: &[WorkloadCost]) -> String {
    let mut text = String::new();
    for c in costs {
        let row = Json::obj(vec![
            ("name", c.name.as_str().into()),
            ("baseline", deterministic_json(&c.baseline)),
            ("tuned", deterministic_json(&c.tuned)),
            ("identical", c.identical().into()),
        ]);
        text.push_str(&row.compact());
        text.push('\n');
    }
    format!("{:016x}", fnv1a(text.as_bytes()))
}

fn sample_json(s: &CostSample) -> Json {
    Json::obj(vec![
        ("wall_ns", s.wall_nanos.into()),
        ("cycles", s.compile_cycles.into()),
        ("compilations", s.compilations.into()),
        ("trial_hits", s.trial_hits.into()),
        ("trial_misses", s.trial_misses.into()),
        ("alloc_bytes", s.alloc_bytes.into()),
        ("alloc_calls", s.alloc_calls.into()),
        ("alloc_peak", s.alloc_peak.into()),
        ("answer", Json::Str(format!("{:016x}", s.answer))),
    ])
}

/// Renders `BENCH_compile.json`: one row per workload with both cost
/// samples, the deterministic digest, and the win summary.
pub fn figure() -> String {
    let counted = alloc::counting_enabled();
    let costs = measure_suite();
    let rows: Vec<Json> = costs
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("name", c.name.as_str().into()),
                ("baseline", sample_json(&c.baseline)),
                ("tuned", sample_json(&c.tuned)),
                ("identical", c.identical().into()),
                ("win", c.win(counted).into()),
            ])
        })
        .collect();
    let wins = costs.iter().filter(|c| c.win(counted)).count();
    let total = costs.len();
    Json::obj(vec![
        ("figure", "compile-throughput".into()),
        ("alloc_counted", counted.into()),
        ("workloads", Json::Arr(rows)),
        ("digest", digest(&costs).into()),
        (
            "summary",
            Json::obj(vec![
                ("wins", wins.into()),
                ("total", total.into()),
                ("meets_half", (wins * 2 >= total).into()),
            ]),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(name: &str) -> Workload {
        incline_workloads::by_name(name)
            .expect("benchmark exists")
            .with_iterations(4)
    }

    // The cache must not move any deterministic observable: same answer,
    // same virtual compile cycles, same compilation count.
    #[test]
    fn cache_on_and_off_agree_on_deterministic_observables() {
        let w = small("scalatest");
        let baseline = measure_cost(&w, false);
        let tuned = measure_cost(&w, true);
        assert_eq!(baseline.answer, tuned.answer);
        assert_eq!(baseline.compile_cycles, tuned.compile_cycles);
        assert_eq!(baseline.compilations, tuned.compilations);
    }

    // With the cache off the counters stay zero; with it on, trials run
    // and every trial is classified as a hit or a miss.
    #[test]
    fn trial_counters_track_the_cache_switch() {
        let w = small("avrora");
        let baseline = measure_cost(&w, false);
        assert_eq!(baseline.trial_hits, 0);
        assert_eq!(baseline.trial_misses, 0);
        let tuned = measure_cost(&w, true);
        assert!(
            tuned.trial_hits + tuned.trial_misses > 0,
            "the paper inliner runs deep-inlining trials on avrora"
        );
    }

    // The digest must be reproducible and must ignore host-dependent
    // fields (wall time, allocation counts).
    #[test]
    fn digest_is_stable_and_ignores_host_measurements() {
        let w = small("scalatest");
        let mk = || {
            vec![WorkloadCost {
                name: w.name.clone(),
                baseline: measure_cost(&w, false),
                tuned: measure_cost(&w, true),
            }]
        };
        let a = mk();
        let mut b = mk();
        // Perturb the host-dependent fields: the digest must not move.
        b[0].tuned.wall_nanos = b[0].tuned.wall_nanos.wrapping_add(12345);
        b[0].baseline.alloc_bytes += 999;
        assert_eq!(digest(&a), digest(&b));
    }
}
