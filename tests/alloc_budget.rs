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
//! trips the gate and names the offending workload. Bytes alone cannot
//! see churn — many small lists allocated and freed per block or per step
//! — so the number of allocation calls has its own budget.
//!
//! When an intentional change moves the totals, regenerate the table
//! from a fresh `BENCH_compile.json` (tuned `alloc_bytes` and
//! `alloc_calls`, each × 1.3).

use incline_bench::alloc::{counting_enabled, CountingAlloc};
use incline_bench::compile::measure_cost;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Per-workload allocation budgets: bytes and allocation calls (tuned
/// run, 1.3× margin).
const BUDGETS: &[(&str, u64, u64)] = &[
    ("avrora", 123_021, 1_048),
    ("batik", 1_017_660, 3_455),
    ("fop", 1_067_284, 3_426),
    ("h2", 379_096, 2_424),
    ("jython", 1_368_479, 5_206),
    ("luindex", 136_854, 1_216),
    ("lusearch", 154_019, 1_397),
    ("pmd", 1_154_364, 3_421),
    ("sunflow", 171_049, 1_113),
    ("xalan", 1_059_441, 3_410),
    ("actors", 424_934, 1_541),
    ("apparat", 248_950, 1_993),
    ("factorie", 735_329, 3_068),
    ("kiama", 452_402, 2_435),
    ("scalac", 1_295_930, 4_532),
    ("scaladoc", 1_704_791, 5_970),
    ("scalap", 414_764, 2_307),
    ("scalariform", 396_127, 2_196),
    ("scalatest", 279_424, 1_711),
    ("scalaxb", 248_489, 1_993),
    ("specs", 133_482, 1_122),
    ("tmt", 375_830, 1_321),
    ("gauss-mix", 518_165, 1_905),
    ("dec-tree", 689_051, 2_650),
    ("naive-bayes", 205_948, 1_280),
    ("neo4j", 182_961, 1_319),
    ("dotty", 233_331, 1_315),
    ("stmbench7", 154_997, 1_415),
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
        let &(_, bytes, calls) = BUDGETS
            .iter()
            .find(|(name, ..)| *name == w.name)
            .unwrap_or_else(|| panic!("no allocation budget for workload {}", w.name));
        let cost = measure_cost(w, true);
        assert!(cost.alloc_bytes > 0, "{}: window observed nothing", w.name);
        if cost.alloc_bytes > bytes || cost.alloc_calls > calls {
            over.push(format!(
                "{}: allocated {} bytes in {} calls, budget {bytes} bytes in {calls} calls (peak {})",
                w.name, cost.alloc_bytes, cost.alloc_calls, cost.alloc_peak
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
