//! Server simulation: six tenants with different code shapes share one
//! VM, one compile broker and one bounded code cache, under bursty
//! arrivals with mid-run phase changes. Compare how barrier vs safepoint
//! installs shape the request-latency and mutator-stall tails.
//!
//! ```text
//! cargo run --release --example server_sim
//! ```

use incline::bench::server::{serve_standard, standard_mix};
use incline::prelude::*;

fn main() {
    let mix = standard_mix();
    println!("tenants (seed 23):");
    for t in &mix.tenants {
        println!(
            "  {:<12} weight {}  phase flip after {:.0}% of its requests",
            t.name,
            t.weight,
            t.flip_after * 100.0
        );
    }

    for install in [InstallPolicy::Barrier, InstallPolicy::Safepoint] {
        let label = match install {
            InstallPolicy::Barrier => "barrier",
            InstallPolicy::Safepoint => "safepoint",
        };
        let r = serve_standard(&mix, install, 4);
        println!("\n=== {label} installs ===");
        println!(
            "latency  p50 {:>7}  p99 {:>7}  p999 {:>7}  max {:>7}",
            r.latency.p50, r.latency.p99, r.latency.p999, r.latency.max
        );
        println!(
            "stall    p50 {:>7}  p99 {:>7}  p999 {:>7}  worst pause {:>7}",
            r.stall.p50, r.stall.p99, r.stall.p999, r.stall.max
        );
        println!(
            "fairness {:.4}  compilations {}  evictions {}  installed {} bytes",
            r.fairness, r.compilations, r.cache.evictions, r.installed_bytes
        );
        println!("per tenant:");
        for t in &r.tenants {
            println!(
                "  {:<12} {:>3} requests  latency p99 {:>7}  stall p99 {:>6}",
                t.name, t.requests, t.latency.p99, t.stall.p99
            );
        }
    }
}
