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
    ("avrora", 172_338, 1_760),
    ("batik", 1_348_962, 7_584),
    ("fop", 1_437_354, 7_679),
    ("h2", 570_918, 4_191),
    ("jython", 1_750_496, 9_458),
    ("luindex", 211_990, 1_788),
    ("lusearch", 237_166, 2_037),
    ("pmd", 1_552_671, 7_614),
    ("sunflow", 249_334, 1_992),
    ("xalan", 1_431_569, 7_596),
    ("actors", 689_074, 3_852),
    ("apparat", 427_063, 3_043),
    ("factorie", 1_296_209, 5_860),
    ("kiama", 738_161, 4_657),
    ("scalac", 1_752_594, 9_588),
    ("scaladoc", 2_287_557, 11_092),
    ("scalap", 668_686, 4_290),
    ("scalariform", 650_117, 4_128),
    ("scalatest", 454_566, 3_088),
    ("scalaxb", 426_696, 3_039),
    ("specs", 181_652, 1_684),
    ("tmt", 596_794, 3_224),
    ("gauss-mix", 994_659, 4_095),
    ("dec-tree", 999_400, 5_581),
    ("naive-bayes", 271_985, 2_027),
    ("neo4j", 300_173, 2_148),
    ("dotty", 318_152, 2_343),
    ("stmbench7", 219_166, 2_257),
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
