//! Drift-harness system tests: a snapshot taken under phase-A traffic and
//! replayed against drifted phase-B traffic must compute cold answers and
//! recover within the documented bound.

use incline_bench::drift;

fn sample() -> Vec<incline::workloads::Workload> {
    ["scalatest", "avrora", "phase_change", "jython", "scaladoc"]
        .iter()
        .map(|n| incline::workloads::by_name(n).expect("benchmark exists"))
        .collect()
}

#[test]
fn drift_recovery_stays_within_the_documented_bound() {
    for w in sample() {
        let row = drift::measure(&w);
        assert!(row.digest_match(), "{}: digest diverged", w.name);
        assert!(
            row.ratio() <= drift::MAX_RATIO,
            "{}: warm recovery {}x cold exceeds the {}x bound",
            w.name,
            row.ratio(),
            drift::MAX_RATIO
        );
    }
}
