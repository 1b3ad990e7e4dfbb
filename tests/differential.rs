//! Differential execution: every workload and a corpus of random programs
//! compute the reference evaluator's answers JIT-compiled under every
//! inliner and policy ablation, with and without speculation; the modelled
//! compile-worker count and the trial cache change no observable. Each
//! test is rows of the conformance matrix (`support/matrix.rs`).

mod support;

use incline::prelude::*;
use support::matrix::Corpus::{self, *};
use support::matrix::{every_inliner, hot, run, with_threads, MakeInliner, Row, INLINERS};

#[test]
fn all_paper_benchmarks_are_semantics_preserving() {
    every_inliner(Named, false);
}

#[test]
fn random_programs_are_semantics_preserving() {
    every_inliner(Generated, false);
}

#[test]
fn random_programs_with_heavier_bodies() {
    every_inliner(Heavier, false);
}

#[test]
fn deopt_enabled_runs_match_fallback_only_runs() {
    every_inliner(Named, true);
}

#[test]
fn deopt_enabled_random_programs_are_semantics_preserving() {
    every_inliner(Generated, true);
}

#[test]
fn phase_change_flip_is_semantics_preserving_with_full_input() {
    // The receiver flip at the midpoint traps, rolls back and replays.
    every_inliner(Flip, false);
    every_inliner(Flip, true);
}

/// Under barrier installs the number of modelled compile workers must not
/// show: `corpus` under each of `inliners`, with and without deopt, 0
/// workers against 1 and 4.
fn thread_twins(corpus: Corpus, inliners: &[MakeInliner]) {
    for deopt in [false, true] {
        let config = VmConfig { deopt, ..hot() };
        run(inliners.iter().map(|&inliner| Row {
            corpus,
            inliner,
            config,
            iterations: 6,
            twins: with_threads(config, &[1, 4]),
            ..Row::default()
        }));
    }
}

#[test]
fn compile_thread_matrix_is_observably_identical_on_all_workloads() {
    // No inlining, the C2 baseline and the paper's inliner.
    thread_twins(Named, &[INLINERS[0], INLINERS[2], INLINERS[3]]);
}

#[test]
fn compile_thread_matrix_on_random_corpus() {
    thread_twins(Generated, &[INLINERS[3]]);
}

/// Memoized deep-inlining trials are an implementation detail: `corpus`
/// with the trial cache on against off.
fn trial_cache_twin(corpus: Corpus) {
    run([Row {
        corpus,
        iterations: 6,
        twins: vec![VmConfig {
            trial_cache: false,
            ..hot()
        }],
        ..Row::default()
    }]);
}

#[test]
fn trial_cache_identity_on_all_workloads() {
    trial_cache_twin(Named);
}

#[test]
fn trial_cache_identity_on_hardened_random_corpus() {
    trial_cache_twin(Hardened);
}
