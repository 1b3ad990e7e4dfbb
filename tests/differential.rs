//! Differential execution tests: every workload and a corpus of random
//! programs must produce byte-identical output and return values when run
//! (a) purely interpreted and (b) JIT-compiled under *every* inliner and
//! every policy ablation. This is the master correctness property of the
//! whole system — any miscompilation in the optimizer, the call-tree
//! specialization, typeswitch emission or the inline transplant shows up
//! here.

use incline_baselines::{C2Inliner, GreedyInliner};
use incline_core::{IncrementalInliner, PolicyConfig};
use incline_vm::{
    BenchResult, BenchSpec, Inliner, Machine, NoInline, RunOutcome, RunSession, Value, VmConfig,
};
use incline_workloads::{GenConfig, Workload};

/// Runs a workload to completion on a fresh machine and returns the final
/// iteration's outcome (after warmup, so compiled code actually runs).
fn run_with(w: &Workload, inliner: Box<dyn Inliner + '_>, jit: bool, input: i64) -> RunOutcome {
    run_with_deopt(w, inliner, jit, input, false)
}

/// [`run_with`], with speculation/deoptimization toggled explicitly.
fn run_with_deopt(
    w: &Workload,
    inliner: Box<dyn Inliner + '_>,
    jit: bool,
    input: i64,
    deopt: bool,
) -> RunOutcome {
    let config = VmConfig {
        jit,
        hotness_threshold: 2,
        deopt,
        ..VmConfig::default()
    };
    let mut vm = Machine::new(&w.program, inliner, config);
    let mut last = None;
    for _ in 0..4 {
        let out = vm
            .run(w.entry, vec![Value::Int(input)])
            .unwrap_or_else(|e| panic!("{}: execution failed: {e}", w.name));
        last = Some(out);
    }
    last.expect("at least one run")
}

fn all_inliners() -> Vec<(&'static str, Box<dyn Inliner>)> {
    vec![
        ("no-inline", Box::new(NoInline)),
        ("greedy", Box::new(GreedyInliner::new())),
        ("c2", Box::new(C2Inliner::new())),
        ("incremental", Box::new(IncrementalInliner::new())),
        (
            "fixed",
            Box::new(IncrementalInliner::with_config(PolicyConfig::fixed(
                1000, 3000,
            ))),
        ),
        (
            "one-by-one",
            Box::new(IncrementalInliner::with_config(PolicyConfig::one_by_one(
                0.005, 120.0,
            ))),
        ),
        (
            "shallow",
            Box::new(IncrementalInliner::with_config(
                PolicyConfig::shallow_trials(),
            )),
        ),
    ]
}

fn check_workload(w: &Workload, input: i64) {
    let reference = run_with(w, Box::new(NoInline), false, input);
    for (name, inliner) in all_inliners() {
        let out = run_with(w, inliner, true, input);
        assert_eq!(
            reference.value, out.value,
            "{}: return value differs under inliner `{name}`",
            w.name
        );
        assert_eq!(
            reference.output, out.output,
            "{}: printed output differs under inliner `{name}`",
            w.name
        );
    }
}

#[test]
fn all_paper_benchmarks_are_semantics_preserving() {
    for w in incline_workloads::all_benchmarks() {
        // Small inputs: correctness, not performance.
        let input = w.input.min(8);
        check_workload(&w, input);
    }
}

#[test]
fn random_programs_are_semantics_preserving() {
    for seed in 0..40u64 {
        let w = incline_workloads::generate(seed, GenConfig::default());
        check_workload(&w, 12);
    }
}

#[test]
fn random_programs_with_heavier_bodies() {
    let config = GenConfig {
        functions: 8,
        ops_per_function: 24,
        loop_prob: 0.7,
        branch_prob: 0.8,
        ..GenConfig::default()
    };
    for seed in 100..115u64 {
        let w = incline_workloads::generate(seed, config);
        check_workload(&w, 9);
    }
}

#[test]
fn deopt_enabled_runs_match_fallback_only_runs() {
    // The master property of the deoptimization subsystem: uncommon traps,
    // rollback and interpreted replay must be observably invisible. Every
    // seeded workload (plus phase_change, built to trap) runs deopt-enabled
    // under every inliner and must match the interpreted reference exactly.
    let mut targets: Vec<Workload> = incline_workloads::all_benchmarks();
    targets.extend(incline_workloads::extra_benchmarks());
    for w in targets {
        let input = w.input.min(8);
        let reference = run_with(&w, Box::new(NoInline), false, input);
        for (name, inliner) in all_inliners() {
            let out = run_with_deopt(&w, inliner, true, input, true);
            assert_eq!(
                reference.value, out.value,
                "{}: return value differs with deopt under inliner `{name}`",
                w.name
            );
            assert_eq!(
                reference.output, out.output,
                "{}: printed output differs with deopt under inliner `{name}`",
                w.name
            );
        }
    }
}

#[test]
fn deopt_enabled_random_programs_are_semantics_preserving() {
    for seed in 0..40u64 {
        let w = incline_workloads::generate(seed, GenConfig::default());
        let reference = run_with(&w, Box::new(NoInline), false, 12);
        for (name, inliner) in all_inliners() {
            let out = run_with_deopt(&w, inliner, true, 12, true);
            assert_eq!(
                reference.value, out.value,
                "{}: return value differs with deopt under inliner `{name}`",
                w.name
            );
            assert_eq!(
                reference.output, out.output,
                "{}: printed output differs with deopt under inliner `{name}`",
                w.name
            );
        }
    }
}

#[test]
fn phase_change_flip_is_semantics_preserving_with_full_input() {
    // The adversarial deopt workload at its real input size: the receiver
    // flip at the midpoint must trap, roll back and replay with no
    // observable difference, under both deopt settings.
    let w = incline_workloads::by_name("phase_change").unwrap();
    check_workload(&w, w.input);
    let reference = run_with(&w, Box::new(NoInline), false, w.input);
    for (name, inliner) in all_inliners() {
        let out = run_with_deopt(&w, inliner, true, w.input, true);
        assert_eq!(
            reference.value, out.value,
            "phase_change: return value differs with deopt under `{name}`"
        );
        assert_eq!(
            reference.output, out.output,
            "phase_change: output differs with deopt under `{name}`"
        );
    }
}

/// One full benchmark measurement with an explicit modelled worker count.
/// Everything else matches the differential helpers above.
fn bench_with_threads(
    w: &Workload,
    inliner: Box<dyn Inliner + '_>,
    input: i64,
    deopt: bool,
    threads: usize,
) -> BenchResult {
    let config = VmConfig {
        hotness_threshold: 2,
        deopt,
        compile_threads: threads,
        ..VmConfig::default()
    };
    let spec = BenchSpec {
        entry: w.entry,
        args: vec![Value::Int(input)],
        iterations: 6,
    };
    RunSession::new(&w.program, spec)
        .inliner(inliner)
        .config(config)
        .run()
        .unwrap_or_else(|e| panic!("{}: benchmark failed: {e}", w.name))
}

#[test]
fn compile_thread_matrix_is_observably_identical_on_all_workloads() {
    // Under barrier installs the number of modelled compile workers must
    // be invisible: every request is charged where it is enqueued, so the
    // stall account's two formulas agree. The whole `BenchResult`
    // (per-iteration cycles, installed bytes, compilations, compile and
    // stall cycles, output, bailout counters) is compared wholesale across
    // compile_threads ∈ {0, 1, 4}, for every paper and extra workload, under
    // every inliner, with and without deopt. This includes phase_change,
    // whose mid-run receiver flip exercises deoptimization, invalidation
    // and recompilation through the broker. This is the one place the
    // matrix is kept.
    let mut targets: Vec<Workload> = incline_workloads::all_benchmarks();
    targets.extend(incline_workloads::extra_benchmarks());
    // A representative policy spread keeps the matrix affordable in debug
    // builds: no inlining at all, the C2 baseline, and the paper's
    // incremental algorithm (the corpus test below adds more shapes).
    for w in targets {
        let input = w.input.min(8);
        for deopt in [false, true] {
            for idx in [0usize, 2, 3] {
                let (name, inliner) = all_inliners().swap_remove(idx);
                let reference = bench_with_threads(&w, inliner, input, deopt, 0);
                for threads in [1usize, 4] {
                    let (_, inliner) = all_inliners().swap_remove(idx);
                    let out = bench_with_threads(&w, inliner, input, deopt, threads);
                    assert_eq!(
                        reference, out,
                        "{}: BenchResult differs between compile_threads=0 and {threads} \
                         under inliner `{name}` (deopt={deopt})",
                        w.name
                    );
                }
            }
        }
    }
}

#[test]
fn compile_thread_matrix_on_random_corpus() {
    // Same wholesale identity over generated programs: the corpus hits
    // graph shapes the curated workloads do not.
    for seed in 0..16u64 {
        let w = incline_workloads::generate(seed, GenConfig::default());
        for deopt in [false, true] {
            let reference =
                bench_with_threads(&w, Box::new(IncrementalInliner::new()), 12, deopt, 0);
            for threads in [1usize, 4] {
                let out =
                    bench_with_threads(&w, Box::new(IncrementalInliner::new()), 12, deopt, threads);
                assert_eq!(
                    reference, out,
                    "{}: BenchResult differs between compile_threads=0 and {threads} \
                     (deopt={deopt})",
                    w.name
                );
            }
        }
    }
}

/// One traced benchmark run of the paper's incremental inliner with the
/// deep-inlining-trial cache toggled. Returns the whole `BenchResult`
/// plus the compile-event stream rendered to JSONL lines — the two
/// observables the trial cache must leave byte-identical.
fn bench_traced_with_cache(
    w: &Workload,
    input: i64,
    trial_cache: bool,
) -> (BenchResult, Vec<String>) {
    use std::sync::Arc;

    let config = VmConfig {
        hotness_threshold: 2,
        trial_cache,
        ..VmConfig::default()
    };
    let spec = BenchSpec {
        entry: w.entry,
        args: vec![Value::Int(input)],
        iterations: 6,
    };
    let sink = Arc::new(incline_vm::CollectingSink::new());
    let handle: Arc<dyn incline_vm::TraceSink> = sink.clone();
    let result = RunSession::new(&w.program, spec)
        .inliner(Box::new(IncrementalInliner::new()))
        .config(config)
        .trace(handle)
        .run()
        .unwrap_or_else(|e| panic!("{}: benchmark failed: {e}", w.name));
    let lines = sink.take().iter().map(|e| e.to_json()).collect();
    (result, lines)
}

/// Whether toggling the trial cache moves any observable on `w`:
/// the wholesale `BenchResult` or the JSONL trace.
fn trial_cache_diverges(w: &Workload, input: i64) -> bool {
    let (off, trace_off) = bench_traced_with_cache(w, input, false);
    let (on, trace_on) = bench_traced_with_cache(w, input, true);
    off != on || trace_off != trace_on
}

#[test]
fn trial_cache_identity_on_all_workloads() {
    // The trial-cache correctness property: memoizing deep-inlining
    // trials is an implementation detail — with the cache on or off, the
    // whole BenchResult and the full JSONL compile trace must be
    // byte-identical, for every paper and extra workload.
    let mut targets: Vec<Workload> = incline_workloads::all_benchmarks();
    targets.extend(incline_workloads::extra_benchmarks());
    for w in targets {
        let input = w.input.min(8);
        let (off, trace_off) = bench_traced_with_cache(&w, input, false);
        let (on, trace_on) = bench_traced_with_cache(&w, input, true);
        assert_eq!(
            off, on,
            "{}: BenchResult differs with the trial cache on",
            w.name
        );
        assert_eq!(
            trace_off, trace_on,
            "{}: JSONL trace differs with the trial cache on",
            w.name
        );
    }
}

#[test]
fn trial_cache_identity_on_hardened_random_corpus() {
    // The same identity over 200 hardened generated programs: deep call
    // chains, megamorphic receiver sets and loop-nested polymorphic
    // callsites stress trial keying (graph fingerprint × argument
    // fingerprint) far beyond the curated workloads. On a divergence the
    // seeded shrinker minimizes the reproducer before reporting, so the
    // failure message names the smallest program that still diverges.
    let config = GenConfig::hardened();
    for seed in 0..200u64 {
        let w = incline_workloads::generate(seed, config);
        if trial_cache_diverges(&w, 9) {
            let (min_cfg, min_w) =
                incline_workloads::shrink(seed, config, &mut |w| trial_cache_diverges(w, 9));
            panic!(
                "seed {seed}: trial cache changed observables; minimized reproducer \
                 (config {min_cfg:?}, {} methods): rerun with \
                 incline_workloads::generate({seed}, {min_cfg:?})",
                min_w.program.method_ids().count(),
            );
        }
    }
}

#[test]
fn interpreted_and_compiled_cycles_differ_but_values_match() {
    // Sanity on the cost model: compiled steady state must be faster.
    let w = incline_workloads::by_name("factorie").unwrap();
    let interp = run_with(&w, Box::new(NoInline), false, 8);
    let jit = run_with(&w, Box::new(IncrementalInliner::new()), true, 8);
    assert_eq!(interp.value, jit.value);
    assert!(
        jit.exec_cycles < interp.exec_cycles,
        "compiled ({}) should beat interpreted ({})",
        jit.exec_cycles,
        interp.exec_cycles
    );
}
