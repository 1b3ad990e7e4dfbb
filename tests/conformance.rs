//! The conformance matrix (`support/matrix.rs`) on what no other file is
//! about: the interpreter alone on every corpus, and every inliner, with
//! and without speculation, on the `tests/conformance/*.ir` corpus. Also
//! here: the oracle reproduces the pinned answers of the execution-identity
//! table.

mod support;

use incline::prelude::*;
use incline::snapshot::fnv1a;
use support::matrix::{every_inliner, hot, run, Corpus::*, Row};

/// Nothing compiled, every instruction profiled.
#[test]
fn interpreter() {
    let config = VmConfig {
        jit: false,
        ..hot()
    };
    let corpora = [Named, Flip, Generated, Heavier, Ir];
    run(corpora.map(|corpus| Row {
        corpus,
        config,
        ..Row::default()
    }));
}

#[test]
fn inliners() {
    every_inliner(Ir, false);
}

#[test]
fn speculation() {
    every_inliner(Ir, true);
}

/// At each workload's full input, the oracle reproduces the `answer=`
/// digest of every interpreter row of the execution-identity table.
#[test]
fn the_oracle_reproduces_the_answers_of_exec_identity() {
    let table = include_str!("exec_identity.table");
    let workloads = Vec::from_iter(all_benchmarks().into_iter().chain(extra_benchmarks()));
    assert_eq!(workloads.len(), 30);
    for w in workloads {
        let head = format!("{} interp ", w.name);
        let line = table.lines().find(|l| l.starts_with(&head));
        let pinned = line.and_then(|l| l.split(' ').find_map(|f| f.strip_prefix("answer=")));
        let answer = support::expected(&w, w.input);
        let mut text = String::from_iter(answer.output.iter().map(|l| format!("{l}\n")));
        text += answer.value.as_deref().unwrap_or("");
        let digest = format!("{:016x}", fnv1a(text.as_bytes()));
        assert_eq!(Some(digest.as_str()), pinned, "{}", w.name);
    }
}
