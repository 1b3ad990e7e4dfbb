//! Property-based tests over the whole system, driven by the seeded
//! random-program generator: every generated program must
//!
//! * verify,
//! * round-trip through the textual printer/parser,
//! * stay verifiable under every optimization pass,
//! * and compute the reference evaluator's answers optimized ahead of
//!   time, and compiled by the incremental inliner.
//!
//! Each property runs over a fixed band of generator seeds (deterministic,
//! no external property-testing crate needed offline). The last two are
//! rows of the conformance matrix (`support/matrix.rs`).

mod support;

use incline::ir::verify::{verify, verify_graph};
use incline::ir::Graph;
use incline::ir::Rng64;
use incline::vm::VmConfig;
use incline::workloads::{generate, GenConfig};
use support::matrix::{hot, run, Corpus, Row};

const CASES: u64 = 24;

fn gen_config() -> GenConfig {
    GenConfig {
        functions: 5,
        ops_per_function: 12,
        loop_prob: 0.5,
        branch_prob: 0.6,
        ..GenConfig::default()
    }
}

/// Derives `CASES` well-spread generator seeds from a property name.
fn seeds(salt: u64) -> impl Iterator<Item = u64> {
    let mut rng = Rng64::new(salt);
    (0..CASES).map(move |_| rng.next_u64())
}

#[test]
fn generated_programs_verify() {
    for seed in seeds(0x9E1) {
        let w = generate(seed, gen_config());
        for m in w.program.method_ids() {
            verify(&w.program, w.program.method(m)).expect("generated method verifies");
        }
    }
}

#[test]
fn printer_parser_fixpoint() {
    for seed in seeds(0xF1C) {
        let w = generate(seed, gen_config());
        let s1 = incline::ir::print::program_str(&w.program);
        let p2 = incline::ir::parse::parse_program(&s1).expect("printed program parses");
        let s2 = incline::ir::print::program_str(&p2);
        // One normalization round may renumber; after that it's stable.
        let p3 = incline::ir::parse::parse_program(&s2).expect("reparse");
        let s3 = incline::ir::print::program_str(&p3);
        assert_eq!(s2, s3);
    }
}

#[test]
fn every_pass_preserves_verifiability() {
    for seed in seeds(0xA55) {
        let w = generate(seed, gen_config());
        for m in w.program.method_ids() {
            let method = w.program.method(m);
            let run = |f: &dyn Fn(&mut Graph)| {
                let mut g = method.graph.clone();
                f(&mut g);
                verify_graph(&w.program, &g, &method.params, method.ret)
                    .unwrap_or_else(|e| panic!("pass broke {}: {e}", method.name));
            };
            run(&|g| {
                incline::opt::canonicalize(&w.program, g);
            });
            run(&|g| {
                incline::opt::gvn(g);
            });
            run(&|g| {
                incline::opt::rw_elim(&w.program, g);
            });
            run(&|g| {
                incline::opt::dce(g);
            });
            run(&|g| {
                incline::opt::peel_loops(&w.program, g);
            });
            run(&|g| {
                incline::opt::optimize(&w.program, g);
            });
        }
    }
}

#[test]
fn optimizer_preserves_behavior() {
    // Every method optimized ahead of time, then interpreted.
    let config = VmConfig {
        jit: false,
        ..hot()
    };
    run([Row {
        corpus: Corpus::Optimized,
        config,
        ..Row::default()
    }]);
}

#[test]
fn incremental_inliner_preserves_behavior() {
    run([Row {
        corpus: Corpus::Sampled,
        ..Row::default()
    }]);
}
