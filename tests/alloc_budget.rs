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
    ("avrora", 612_493),
    ("batik", 7_278_713),
    ("fop", 7_579_755),
    ("h2", 2_248_502),
    ("jython", 12_233_158),
    ("luindex", 728_175),
    ("lusearch", 854_223),
    ("pmd", 7_982_869),
    ("sunflow", 556_920),
    ("xalan", 7_588_708),
    ("actors", 1_395_491),
    ("apparat", 1_060_403),
    ("factorie", 3_651_220),
    ("kiama", 1_776_014),
    ("scalac", 12_723_634),
    ("scaladoc", 21_444_849),
    ("scalap", 1_666_333),
    ("scalariform", 1_557_205),
    ("scalatest", 1_087_535),
    ("scalaxb", 1_059_932),
    ("specs", 693_049),
    ("tmt", 1_196_382),
    ("gauss-mix", 2_144_611),
    ("dec-tree", 4_670_858),
    ("naive-bayes", 1_324_047),
    ("neo4j", 972_832),
    ("dotty", 1_295_105),
    ("stmbench7", 854_872),
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
