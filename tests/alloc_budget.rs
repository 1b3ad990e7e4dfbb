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
    ("avrora", 178_798),
    ("batik", 1_465_625),
    ("fop", 1_563_534),
    ("h2", 600_780),
    ("jython", 2_031_690),
    ("luindex", 219_345),
    ("lusearch", 245_984),
    ("pmd", 1_661_192),
    ("sunflow", 256_935),
    ("xalan", 1_558_087),
    ("actors", 701_633),
    ("apparat", 454_897),
    ("factorie", 1_318_942),
    ("kiama", 757_529),
    ("scalac", 2_243_814),
    ("scaladoc", 2_898_975),
    ("scalap", 688_390),
    ("scalariform", 667_301),
    ("scalatest", 467_846),
    ("scalaxb", 454_437),
    ("specs", 189_079),
    ("tmt", 606_547),
    ("gauss-mix", 1_015_933),
    ("dec-tree", 1_086_961),
    ("naive-bayes", 285_477),
    ("neo4j", 309_257),
    ("dotty", 328_936),
    ("stmbench7", 227_960),
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
