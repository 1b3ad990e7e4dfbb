//! Shape tests: the qualitative claims of the paper's evaluation must
//! hold on this reproduction (§V; DESIGN.md §7). Most run on a benchmark
//! subset to stay fast in debug builds; the footers of Figures 6, 7 and 10
//! are pinned over all 28 workloads, as `cargo run --release -p
//! incline-bench -- run_all` prints them into EXPERIMENTS.md.

use incline::baselines::GreedyInliner;
use incline::bench::figures;
use incline::prelude::*;

fn steady(w: &Workload, inliner: Box<dyn Inliner + '_>) -> (f64, u64) {
    let spec = BenchSpec {
        entry: w.entry,
        args: vec![Value::Int(w.input.min(12))],
        iterations: 8,
    };
    let config = VmConfig {
        hotness_threshold: 4,
        ..VmConfig::default()
    };
    let r = RunSession::new(&w.program, spec)
        .inliner(inliner)
        .config(config)
        .run()
        .expect("benchmark runs");
    (r.steady_state, r.installed_bytes)
}

#[test]
fn incremental_beats_or_ties_greedy_on_most() {
    let subset = [
        "avrora",
        "xalan",
        "factorie",
        "actors",
        "scalatest",
        "specs",
        "dotty",
        "stmbench7",
    ];
    let mut wins = 0;
    for name in subset {
        let w = incline::workloads::by_name(name).unwrap();
        let (incr, _) = steady(&w, Box::new(IncrementalInliner::new()));
        let (greedy, _) = steady(&w, Box::new(GreedyInliner::new()));
        if incr <= greedy * 1.02 {
            wins += 1;
        } else {
            eprintln!("greedy wins on {name}: {incr:.0} vs {greedy:.0}");
        }
    }
    assert!(
        wins >= 7,
        "incremental must match or beat greedy on ≥7/8, got {wins}"
    );
}

#[test]
fn inlining_beats_no_inlining_broadly() {
    let subset = [
        "sunflow",
        "scalatest",
        "apparat",
        "factorie",
        "stmbench7",
        "kiama",
    ];
    for name in subset {
        let w = incline::workloads::by_name(name).unwrap();
        let (incr, _) = steady(&w, Box::new(IncrementalInliner::new()));
        let (none, _) = steady(&w, Box::new(NoInline));
        assert!(
            none > incr * 1.15,
            "{name}: inlining must give ≥15% ({incr:.0} vs no-inline {none:.0})"
        );
    }
}

#[test]
fn code_size_grows_but_moderately() {
    // Table I shape over all 28 workloads: the proposed inliner installs
    // more code than the baselines, within the tolerable range the paper
    // argues for (≈2.37× greedy, ≈1.88× C2). Pinned at today's averages:
    // an inliner or optimizer change that makes the installed code grow or
    // shrink moves the second decimal and fails here.
    assert_eq!(
        footer(&figures::fig10_and_table1()),
        "average code size: incremental/greedy 2.02x (paper: ≈2.37x), \
         incremental/c2 1.51x (paper: ≈1.88x)."
    );
}

#[test]
fn deep_trials_help_on_trial_sensitive_benchmarks() {
    // Figure 9's blue-vs-green bars: deep inlining trials help on the
    // Scala-suite benchmarks whose hot kernels are generically written.
    // The effect needs the full workload size (the decision margins are
    // frequency-dependent), so this test uses the benchmark defaults.
    let full = |w: &Workload, inliner: Box<dyn Inliner + '_>| -> f64 {
        let spec = BenchSpec {
            entry: w.entry,
            args: vec![Value::Int(w.input)],
            iterations: w.iterations,
        };
        let config = VmConfig {
            hotness_threshold: 5,
            ..VmConfig::default()
        };
        RunSession::new(&w.program, spec)
            .inliner(inliner)
            .config(config)
            .run()
            .expect("runs")
            .steady_state
    };
    let mut helps = 0;
    for name in ["factorie", "actors"] {
        let w = incline::workloads::by_name(name).unwrap();
        let deep = full(&w, Box::new(IncrementalInliner::new()));
        let shallow = full(
            &w,
            Box::new(IncrementalInliner::with_config(
                PolicyConfig::shallow_trials(),
            )),
        );
        if shallow > deep * 1.05 {
            helps += 1;
        } else {
            eprintln!("{name}: deep {deep:.0} vs shallow {shallow:.0}");
        }
    }
    assert!(
        helps >= 1,
        "deep trials must help on at least one trial-sensitive benchmark"
    );
}

/// The last line of a rendered figure: its footer.
fn footer(report: &str) -> &str {
    report.lines().last().expect("the figure renders")
}

#[test]
fn adaptive_tracks_best_fixed_threshold() {
    // Figures 6/7 over all 28 workloads: the untuned adaptive thresholds
    // against the best fixed (T_e, T_i) per benchmark. Pinned at today's
    // counts: one adaptive-vs-fixed cell that flips — a fixed budget newly
    // faster than adaptive, or adaptive catching up with the fixed budget
    // that beats it on jython, factorie or gauss-mix — changes a count and
    // fails here.
    assert_eq!(
        footer(&figures::fig06(false)),
        "adaptive beats every fixed setting on 9/10 benchmarks; \
         within 5% of the best per-benchmark fixed setting on 9/10."
    );
    assert_eq!(
        footer(&figures::fig07(false)),
        "adaptive beats every fixed setting on 16/18 benchmarks; \
         within 5% of the best per-benchmark fixed setting on 16/18."
    );
}

#[test]
fn clustering_not_worse_than_one_by_one() {
    for name in ["scalatest", "kiama", "stmbench7"] {
        let w = incline::workloads::by_name(name).unwrap();
        let (cluster, _) = steady(&w, Box::new(IncrementalInliner::new()));
        let (one, _) = steady(
            &w,
            Box::new(IncrementalInliner::with_config(PolicyConfig::one_by_one(
                0.005, 60.0,
            ))),
        );
        assert!(
            cluster <= one * 1.05,
            "{name}: clustering must not lose to 1-by-1 ({cluster:.0} vs {one:.0})"
        );
    }
}
