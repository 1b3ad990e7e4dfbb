//! Warmup elimination via persistent snapshots: cold vs eager-replay runs
//! per workload, plus the fleet-warming server scenario, as
//! machine-readable JSON (seeds `BENCH_warmup.json`).

fn main() {
    println!("{}", incline_bench::figures::warmup());
}
