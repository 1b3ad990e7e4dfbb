//! One run: set-up, a checked warm-up pass, N timed passes.

use std::time::{Duration, Instant};

use crate::oracle::Oracle;
use crate::spans::Recorder;
use crate::stats::Summary;
use crate::workloads::{Kind, Modelled, Prepared};

/// The untraced binary sets up this often and reports the quickest: one
/// set-up is too short, and too exposed to a cold process and to a burst
/// of noise, to repeat tightly on its own.
pub const SETUP_REPEATS: usize = 3;
/// A time-bounded run (`--seconds`) still measures at least this many
/// passes, so the minimum has something to choose from.
pub const MIN_TIMED_PASSES: usize = 3;

/// How many timed passes to run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Length {
    /// Exactly this many.
    Passes(usize),
    /// Back-to-back passes until this much time has been measured.
    Seconds(f64),
}

/// Everything one run of one workload measured.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The workload.
    pub kind: Kind,
    /// The seed its inputs came from.
    pub seed: u64,
    /// Shortest wall time, in seconds, of one set-up: from nothing to the
    /// first timed pass — build and verify the programs, load the oracle,
    /// interpret the references, warm profiles, then the checked warm-up
    /// pass and the seeded extras.
    pub setup_s: f64,
    /// Wall time of each timed pass, in milliseconds, in run order.
    pub pass_ms: Vec<f64>,
    /// Wall time of each unit (see `PassOutcome::unit_ms`) of each timed
    /// pass, in milliseconds: `unit_ms[pass][unit]`.
    pub unit_ms: Vec<Vec<f64>>,
    /// Ops in one pass.
    pub ops_per_pass: u64,
    /// Ops attempted over all passes, warm-up and extras included.
    pub attempted: u64,
    /// Ops that failed over all passes.
    pub failed: u64,
    /// The modelled ledger of one pass.
    pub modelled: Modelled,
    /// Whether every pass produced the same modelled ledger.
    pub modelled_stable: bool,
}

impl RunResult {
    /// Summary of the pass times.
    pub fn passes(&self) -> Summary {
        Summary::of(&self.pass_ms)
    }

    /// The reported pass time: Σ over the units of a pass of the unit's
    /// minimum time over the timed passes — what one pass takes when every
    /// program gets the quietest slot it was seen in (see `stats`).
    pub fn pass_time_ms(&self) -> f64 {
        let units = self.unit_ms.first().map_or(0, Vec::len);
        (0..units)
            .map(|u| {
                self.unit_ms
                    .iter()
                    .map(|pass| pass[u])
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    }

    /// Ops per second at the reported pass time.
    pub fn ops_per_s(&self) -> f64 {
        self.ops_per_pass as f64 / (self.pass_time_ms() / 1e3)
    }

    /// Failed ops as a share of attempted ops.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }

    /// Every answer right and the modelled ledger identical in every pass.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.modelled_stable
    }
}

/// Sets `kind` up `setup_repeats` times (each with its checked warm-up
/// pass), then runs the timed passes on the last set-up. Spans are
/// recorded from the last set-up on; its warm-up is pass 0.
///
/// # Errors
///
/// Whatever [`Oracle::parse`] or [`Prepared::setup`] reports.
pub fn run(
    kind: Kind,
    seed: u64,
    oracle_text: &str,
    setup_repeats: usize,
    length: Length,
    rec: &mut Recorder,
) -> Result<(Prepared, RunResult), String> {
    let mut setup_s = Vec::with_capacity(setup_repeats);
    let mut last = None;
    for repeat in 0..setup_repeats {
        drop(last.take());
        let mut unrecorded = Recorder::off();
        let rec = if repeat + 1 == setup_repeats {
            &mut *rec
        } else {
            &mut unrecorded
        };
        let t = Instant::now();
        let oracle = Oracle::parse(oracle_text)?;
        let prepared = Prepared::setup(kind, seed, &oracle)?;
        rec.set_programs(prepared.program_names());
        rec.set_pass(0);
        let warm = prepared.pass(rec, true);
        let extras = prepared.check_extras(rec);
        setup_s.push(t.elapsed().as_secs_f64());
        last = Some((prepared, warm, extras));
    }
    let (prepared, warm, extras) = last.ok_or("setup_repeats must be at least 1")?;
    let mut result = RunResult {
        kind,
        seed,
        setup_s: Summary::of(&setup_s).min,
        pass_ms: Vec::new(),
        unit_ms: Vec::new(),
        ops_per_pass: warm.attempted,
        attempted: warm.attempted + extras.attempted,
        failed: warm.failed + extras.failed,
        modelled: warm.modelled,
        modelled_stable: true,
    };
    let started = Instant::now();
    loop {
        let n = result.pass_ms.len();
        let done = match length {
            Length::Passes(p) => n >= p,
            Length::Seconds(s) => {
                n >= MIN_TIMED_PASSES && started.elapsed() >= Duration::from_secs_f64(s)
            }
        };
        if done {
            break;
        }
        rec.set_pass(n as u32 + 1);
        let t = Instant::now();
        let out = std::hint::black_box(prepared.pass(rec, false));
        result.pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
        result.attempted += out.attempted;
        result.failed += out.failed;
        result.modelled_stable &= out.modelled == warm.modelled;
        result.unit_ms.push(out.unit_ms);
    }
    Ok((prepared, result))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_time_sums_each_units_quietest_pass() {
        let r = RunResult {
            kind: Kind::SuiteCold,
            seed: 1,
            setup_s: 1.0,
            // Pass 2 had a burst on unit 0, pass 1 on unit 1: no whole pass
            // was quiet, every unit was once.
            pass_ms: vec![14.0, 15.0],
            unit_ms: vec![vec![4.0, 10.0], vec![9.0, 6.0]],
            ops_per_pass: 20,
            attempted: 66,
            failed: 0,
            modelled: Modelled::default(),
            modelled_stable: true,
        };
        assert_eq!(r.pass_time_ms(), 10.0);
        assert_eq!(r.passes().min, 14.0);
        assert_eq!(r.ops_per_s(), 2000.0);
        assert_eq!(r.failed_share(), 0.0);
    }
}
