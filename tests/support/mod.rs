//! What several test binaries share: the reference evaluator, the ground
//! truth it gives for a workload, and the conformance matrix checked
//! against it. Each binary uses part of it.
#![allow(dead_code)]

pub mod matrix;
pub mod reference;

use incline::prelude::*;
use incline::vm::RunOutcome;
use reference::Answer;

/// The oracle's answer for `w` run on `input`; workloads do not trap.
pub fn expected(w: &Workload, input: i64) -> Answer {
    reference::run(&w.program, w.entry, &[input])
        .unwrap_or_else(|trap| panic!("{}: the oracle trapped: {trap}", w.name))
}

/// What a machine run computed, rendered as the oracle renders it.
pub fn answer(out: &RunOutcome) -> Answer {
    Answer {
        value: out.value.map(|v| format!("{v:?}")),
        output: out.output.lines().to_vec(),
    }
}
