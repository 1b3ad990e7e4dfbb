//! What the benchmark reads off the host: peak memory and a calibration
//! loop that tells a noisy machine from a real change.

use std::time::Instant;

/// Bytes the calibration loop hashes: a small buffer many times over, so
/// that calibrating does not become the process's peak memory.
const CALIB_BYTES: usize = 64 << 20;
const CALIB_BUFFER: usize = 64 << 10;
/// Calibration repeats; the minimum is kept, as for passes.
const CALIB_REPEATS: usize = 3;
/// Extra rounds of [`CALIB_REPEATS`] the end calibration may take before
/// the host counts as having slowed down: one unlucky time slice must not
/// discard a run, a machine that stays slow must.
const CALIB_RETRIES: usize = 2;
/// The end calibration may exceed the start by this share.
pub const CALIB_TOLERANCE: f64 = 0.20;

/// `VmHWM` of this process in kB: the peak resident set so far.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn calib_once(buf: &[u8]) -> f64 {
    let t = Instant::now();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..CALIB_BYTES / CALIB_BUFFER {
        for &b in std::hint::black_box(buf) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    std::hint::black_box(h);
    t.elapsed().as_secs_f64() * 1e3
}

/// Milliseconds a fixed 64 MiB FNV-1a loop takes on this host right now
/// (minimum of a few repeats). Nothing in it depends on the repository,
/// so a change between the start and the end of a run is the host's.
pub fn calibrate() -> f64 {
    let buf = vec![0x5au8; CALIB_BUFFER];
    (0..CALIB_REPEATS)
        .map(|_| calib_once(&buf))
        .fold(f64::INFINITY, f64::min)
}

/// End-of-run calibration: like [`calibrate`], retried while it reads more
/// than [`CALIB_TOLERANCE`] above `start`.
pub fn calibrate_end(start: f64) -> f64 {
    let mut end = calibrate();
    for _ in 0..CALIB_RETRIES {
        if !slowed_down(start, end) {
            break;
        }
        end = end.min(calibrate());
    }
    end
}

/// Whether the host got slower during the run by more than the tolerance.
pub fn slowed_down(start: f64, end: f64) -> bool {
    end > start * (1.0 + CALIB_TOLERANCE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_readable_and_positive() {
        assert!(peak_rss_kb().unwrap() > 0);
    }

    #[test]
    fn slowdown_threshold() {
        assert!(!slowed_down(100.0, 119.9));
        assert!(slowed_down(100.0, 120.1));
        assert!(!slowed_down(100.0, 80.0));
    }
}
