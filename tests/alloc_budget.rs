//! Allocation-regression gate: compiling and running every paper
//! workload under the tuned configuration (paper inliner, trial cache
//! on, synchronous broker) must stay within a checked-in per-workload
//! allocation budget.
//!
//! This test binary registers the in-repo counting allocator, so
//! [`incline_bench::compile::measure_cost`] observes real allocation
//! totals — the same protocol the `compile` bench bin uses to seed
//! `BENCH_compile.json`. Budgets are the measured totals with a 30%
//! margin: enough headroom for allocator-order jitter and small
//! legitimate growth, tight enough that a clone-heavy regression on the
//! inlining hot path (the thing the arena/trial-cache refactor removed)
//! trips the gate and names the offending workload.
//!
//! When an intentional change moves the totals, regenerate the table
//! from a fresh `BENCH_compile.json` (tuned `alloc_bytes` × 1.3).

use incline_bench::alloc::{counting_enabled, CountingAlloc};
use incline_bench::compile::measure_cost;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Per-workload allocation budgets in bytes (tuned run, 1.3× margin).
const BUDGETS: &[(&str, u64)] = &[
    ("avrora", 276_237),
    ("batik", 2_245_276),
    ("fop", 2_470_348),
    ("h2", 918_552),
    ("jython", 2_966_273),
    ("luindex", 335_800),
    ("lusearch", 384_481),
    ("pmd", 2_614_510),
    ("sunflow", 345_317),
    ("xalan", 2_464_758),
    ("actors", 941_094),
    ("apparat", 587_905),
    ("factorie", 1_983_590),
    ("kiama", 1_083_882),
    ("scalac", 2_890_114),
    ("scaladoc", 4_063_348),
    ("scalap", 993_773),
    ("scalariform", 945_491),
    ("scalatest", 660_695),
    ("scalaxb", 587_346),
    ("specs", 299_627),
    ("tmt", 830_230),
    ("gauss-mix", 1_504_037),
    ("dec-tree", 1_619_798),
    ("naive-bayes", 504_286),
    ("neo4j", 479_384),
    ("dotty", 521_228),
    ("stmbench7", 365_211),
];

#[test]
fn per_workload_allocations_stay_within_budget() {
    assert!(
        counting_enabled(),
        "counting allocator not registered — the budget test binary must \
         declare #[global_allocator] static ALLOC: CountingAlloc"
    );
    let benches = incline_workloads::all_benchmarks();
    assert_eq!(
        benches.len(),
        BUDGETS.len(),
        "budget table out of date: {} workloads, {} budgets — add the \
         missing rows from a fresh BENCH_compile.json",
        benches.len(),
        BUDGETS.len()
    );
    let mut over = Vec::new();
    for w in &benches {
        let budget = BUDGETS
            .iter()
            .find(|(name, _)| *name == w.name)
            .unwrap_or_else(|| panic!("no allocation budget for workload {}", w.name))
            .1;
        let cost = measure_cost(w, true);
        assert!(cost.alloc_bytes > 0, "{}: window observed nothing", w.name);
        if cost.alloc_bytes > budget {
            over.push(format!(
                "{}: allocated {} bytes, budget {} ({} calls, peak {})",
                w.name, cost.alloc_bytes, budget, cost.alloc_calls, cost.alloc_peak
            ));
        }
    }
    assert!(
        over.is_empty(),
        "allocation budget exceeded on {} workload(s):\n  {}",
        over.len(),
        over.join("\n  ")
    );
}
