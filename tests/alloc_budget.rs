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
    ("avrora", 287_964),
    ("batik", 2_303_666),
    ("fop", 2_538_591),
    ("h2", 937_690),
    ("jython", 3_014_341),
    ("luindex", 344_276),
    ("lusearch", 395_205),
    ("pmd", 2_680_523),
    ("sunflow", 354_451),
    ("xalan", 2_532_325),
    ("actors", 980_695),
    ("apparat", 597_582),
    ("factorie", 2_060_591),
    ("kiama", 1_112_517),
    ("scalac", 2_942_235),
    ("scaladoc", 4_132_082),
    ("scalap", 1_020_110),
    ("scalariform", 969_637),
    ("scalatest", 678_407),
    ("scalaxb", 596_919),
    ("specs", 309_247),
    ("tmt", 867_097),
    ("gauss-mix", 1_587_751),
    ("dec-tree", 1_662_390),
    ("naive-bayes", 520_530),
    ("neo4j", 492_072),
    ("dotty", 537_899),
    ("stmbench7", 375_908),
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
