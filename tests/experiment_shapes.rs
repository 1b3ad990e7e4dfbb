//! Shape tests: the qualitative claims of the paper's evaluation must
//! hold on this reproduction (§V; DESIGN.md §7). These run on a benchmark
//! subset to stay fast in debug builds; `cargo run --release -p
//! incline-bench -- run_all` checks the full suite.

use incline::baselines::{C2Inliner, GreedyInliner};
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
    // Table I shape: the proposed inliner generates more code than the
    // baselines, but the growth stays within the tolerable range the
    // paper argues for (the per-benchmark average is ≈1.9–2.4×).
    let subset = ["xalan", "factorie", "scalatest", "jython", "h2"];
    let mut ratios = Vec::new();
    for name in subset {
        let w = incline::workloads::by_name(name).unwrap();
        let (_, incr_code) = steady(&w, Box::new(IncrementalInliner::new()));
        let (_, c2_code) = steady(&w, Box::new(C2Inliner::new()));
        ratios.push(incr_code as f64 / c2_code.max(1) as f64);
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        avg >= 1.0,
        "the proposed inliner should not shrink code on average: {avg:.2}"
    );
    assert!(avg < 8.0, "code growth must stay moderate: {avg:.2}x vs C2");
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

#[test]
fn adaptive_tracks_best_fixed_threshold() {
    // Figures 6/7 shape: adaptive within 10% of the best fixed setting on
    // a majority of the subset, without per-benchmark tuning.
    let subset = ["avrora", "scalatest", "kiama", "stmbench7", "h2"];
    let mut ok = 0;
    for name in subset {
        let w = incline::workloads::by_name(name).unwrap();
        let (adaptive, _) = steady(&w, Box::new(IncrementalInliner::new()));
        let mut best_fixed = f64::INFINITY;
        for (te, ti) in [(250, 500), (1500, 1500), (3500, 3000)] {
            let (t, _) = steady(
                &w,
                Box::new(IncrementalInliner::with_config(PolicyConfig::fixed(te, ti))),
            );
            best_fixed = best_fixed.min(t);
        }
        if adaptive <= best_fixed * 1.10 {
            ok += 1;
        } else {
            eprintln!("{name}: adaptive {adaptive:.0} vs best fixed {best_fixed:.0}");
        }
    }
    assert!(
        ok >= 4,
        "adaptive must track the best fixed setting on ≥4/5, got {ok}"
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
