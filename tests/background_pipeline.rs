//! Pipelined compilation: with `InstallPolicy::Safepoint` the hotness
//! trigger only *enqueues* a request — the triggering activation keeps
//! interpreting while, in virtual time, a modelled worker compiles, and the
//! result installs at the next safepoint (an activation of an in-flight
//! method, or the start of the next run). The mode is deterministic, and it
//! buys the thing it exists for: strictly fewer mutator-visible stall cycles
//! than barrier installs on real workloads. Its answers are rows of the
//! conformance matrix (`support/matrix.rs`).

mod support;

use incline_core::IncrementalInliner;
use incline_vm::{BenchResult, BenchSpec, InstallPolicy, RunSession, Value, VmConfig};
use incline_workloads::Workload;
use support::matrix::{run, Corpus::*, Row};

#[test]
fn pipelined_mode_is_semantics_preserving() {
    for deopt in [false, true] {
        let config = VmConfig {
            hotness_threshold: 2,
            deopt,
            compile_threads: 4,
            install_policy: InstallPolicy::Safepoint,
            ..VmConfig::default()
        };
        let rows = [Named, Generated, Ir].map(|corpus| Row {
            corpus,
            config,
            ..Row::default()
        });
        run(rows);
    }
}

fn bench(w: &Workload, policy: InstallPolicy, threads: usize, deopt: bool) -> BenchResult {
    let config = VmConfig {
        hotness_threshold: 2,
        deopt,
        compile_threads: threads,
        install_policy: policy,
        ..VmConfig::default()
    };
    let spec = BenchSpec {
        entry: w.entry,
        args: vec![Value::Int(w.input.min(8))],
        iterations: 8,
    };
    RunSession::new(&w.program, spec)
        .inliner(Box::new(IncrementalInliner::new()))
        .config(config)
        .run()
        .unwrap_or_else(|e| panic!("{}: benchmark failed: {e}", w.name))
}

#[test]
fn pipelined_mode_is_deterministic() {
    // Same config, same seed-free workload → byte-identical measurements.
    let w = incline_workloads::by_name("scalatest").unwrap();
    let a = bench(&w, InstallPolicy::Safepoint, 4, true);
    let b = bench(&w, InstallPolicy::Safepoint, 4, true);
    assert_eq!(a, b, "pipelined runs must be reproducible");
}

#[test]
fn pipelined_broker_stalls_strictly_less_than_synchronous() {
    // The acceptance bar: on real workloads the pipelined broker's
    // mutator-visible stall is strictly lower than the synchronous
    // broker's (which by construction stalls for every compile cycle).
    let mut wins = 0usize;
    let mut checked = 0usize;
    for name in ["scalatest", "factorie", "tmt", "phase_change"] {
        let Some(w) = incline_workloads::by_name(name) else {
            continue;
        };
        let deopt = name == "phase_change";
        let sync = bench(&w, InstallPolicy::Barrier, 0, deopt);
        let pipelined = bench(&w, InstallPolicy::Safepoint, 4, deopt);
        checked += 1;
        assert!(
            sync.stall_cycles > 0 && sync.compilations > 0,
            "{name}: the synchronous baseline must actually compile and stall"
        );
        assert_eq!(
            sync.stall_cycles, sync.compile_cycles,
            "{name}: the synchronous broker stalls for every compile cycle"
        );
        assert!(
            pipelined.compilations > 0,
            "{name}: pipelined mode must compile"
        );
        assert!(
            pipelined.stall_cycles < sync.stall_cycles,
            "{name}: pipelined stall {} must be strictly below synchronous stall {}",
            pipelined.stall_cycles,
            sync.stall_cycles
        );
        if pipelined.stall_cycles < sync.stall_cycles {
            wins += 1;
        }
    }
    assert!(
        checked >= 2 && wins >= 2,
        "the stall win must hold on at least two workloads (checked {checked}, wins {wins})"
    );
}
