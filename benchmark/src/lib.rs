#![warn(missing_docs)]

//! # incline-wall — the host-time ledger
//!
//! incline keeps two ledgers. The *modelled* one (virtual cycles, stalls,
//! installed bytes) is the paper's and must not move. This package is the
//! other one: real time, memory and set-up cost of the same work, measured
//! from outside, end to end and layer by layer. README.md has the metric
//! definitions; `BENCHMARK.json` at the repository root is the contract.
//!
//! Two binaries share this library. `wall` runs on the system allocator
//! with the span recorder off and reports the end-to-end metrics.
//! `wall-traced` registers `incline_bench::alloc::CountingAlloc`, records
//! spans, runs the layer probes and reports the per-layer metrics.

pub mod host;
pub mod layers;
pub mod metrics;
pub mod oracle;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;

use metrics::{END_TO_END, PER_LAYER};
use oracle::Oracle;
use run::{Length, RunResult, SETUP_REPEATS};
use spans::Recorder;
use workloads::{Kind, DEFAULT_SEED};

/// Which binary is running.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `wall`: system allocator, no spans, end-to-end metrics.
    Untraced,
    /// `wall-traced`: counting allocator, spans, per-layer metrics.
    Traced,
}

/// Everything went well.
pub const EXIT_OK: i32 = 0;
/// Bad arguments, an unreadable oracle, a set-up failure.
pub const EXIT_USAGE: i32 = 1;
/// An op failed, or two passes disagreed on the modelled ledger.
pub const EXIT_INCORRECT: i32 = 2;
/// The host slowed down during the run; nothing is reported.
pub const EXIT_NOISY: i32 = 3;

/// Pass-time quartile spread above which a run is flagged as noisy.
pub const NOISY_SPREAD: f64 = 0.15;
/// Passes of a `--quick` run.
const QUICK_PASSES: usize = 2;
/// A traced run spends this share of `--seconds` on traced passes; the
/// layer probes take the rest and more.
const TRACED_SHARE: f64 = 0.3;

const USAGE: &str = "usage: wall --workload NAME [--seed N] [--seconds S | --quick] [--trace 0|1]
            [--expected FILE] [--out DIR] [--untraced-pass-ms X]
       wall --bless [--expected FILE]
       wall --manifest
workloads: suite_cold interp_only peak_compiled compile_only server_mix";

#[derive(Debug)]
struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: Option<f64>,
    quick: bool,
    trace: Option<bool>,
    expected: PathBuf,
    out: PathBuf,
    untraced_pass_ms: Option<f64>,
    bless: bool,
    manifest: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        quick: false,
        trace: None,
        expected: here.join("expected.json"),
        out: here.join("out"),
        untraced_pass_ms: None,
        bless: false,
        manifest: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag}: `{v}` is not a number"))
        }
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(Kind::from_name(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => args.seed = num(flag, value()?)?,
            "--seconds" => {
                let s: f64 = num(flag, value()?)?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds: {s} is outside (0, 60]"));
                }
                args.seconds = Some(s);
            }
            "--quick" => args.quick = true,
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is neither 0 nor 1")),
                })
            }
            "--expected" => args.expected = value()?.into(),
            "--out" => args.out = value()?.into(),
            "--untraced-pass-ms" => args.untraced_pass_ms = Some(num(flag, value()?)?),
            "--bless" => args.bless = true,
            "--manifest" => args.manifest = true,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(args)
}

/// Entry point of both binaries; returns the process exit code.
pub fn main(mode: Mode, argv: &[String]) -> i32 {
    let fail = |e: String| {
        eprintln!("error: {e}\n{USAGE}");
        EXIT_USAGE
    };
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    if args.manifest {
        print!("{}", metrics::manifest());
        return EXIT_OK;
    }
    if args.bless {
        return match workloads::bless().and_then(|o| {
            std::fs::write(&args.expected, o.render()).map_err(|e| e.to_string())?;
            println!(
                "blessed {} answers into {}",
                o.len(),
                args.expected.display()
            );
            Ok(())
        }) {
            Ok(()) => EXIT_OK,
            Err(e) => fail(e),
        };
    }
    let Some(kind) = args.workload else {
        return fail("--workload is required".into());
    };
    if args.trace.is_some_and(|t| t != (mode == Mode::Traced)) {
        return fail("--trace 0 is the `wall` binary, --trace 1 is `wall-traced`".into());
    }
    let oracle_text = match std::fs::read_to_string(&args.expected) {
        Ok(t) => t,
        Err(e) => return fail(format!("{}: {e}", args.expected.display())),
    };
    let outcome = match mode {
        Mode::Untraced => untraced(kind, &args, &oracle_text),
        Mode::Traced => traced(kind, &args, &oracle_text),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => fail(e),
    }
}

impl Args {
    /// Timed passes: `--seconds` of them, two under `--quick`, else the
    /// workload's default count. A traced run measures passes for only
    /// [`TRACED_SHARE`] of `--seconds`.
    fn length(&self, kind: Kind, mode: Mode) -> Length {
        let share = if mode == Mode::Traced {
            TRACED_SHARE
        } else {
            1.0
        };
        match self.seconds {
            Some(s) => Length::Seconds(s * share),
            None if self.quick => Length::Passes(QUICK_PASSES),
            None => Length::Passes(kind.default_passes()),
        }
    }
}

fn untraced(kind: Kind, args: &Args, oracle_text: &str) -> Result<i32, String> {
    let calib_start = host::calibrate();
    // `--quick` is for smoke tests and for the base of the trace overhead
    // ratio: one set-up is enough there.
    let setups = if args.quick { 1 } else { SETUP_REPEATS };
    let length = args.length(kind, Mode::Untraced);
    let (_, r) = run::run(
        kind,
        args.seed,
        oracle_text,
        setups,
        length,
        &mut Recorder::off(),
    )?;
    let calib_end = host::calibrate_end(calib_start);
    let w = kind.name();
    println!("info {w} bench.calib_ms_start {calib_start} ms");
    println!("info {w} bench.calib_ms_end {calib_end} ms");
    if host::slowed_down(calib_start, calib_end) {
        let slower = (calib_end / calib_start - 1.0) * 100.0;
        // An unattended pipeline run (`--seconds`) has to end with a result
        // on a host whose speed changes by the minute; it is flagged, and
        // the pipeline's own statistics over many runs absorb it. A run a
        // person reads, or `agree.sh` compares, is refused.
        if args.seconds.is_none() {
            eprintln!("refusing to report {w}: the host got {slower:.0} % slower during the run");
            return Ok(EXIT_NOISY);
        }
        println!("noisy {w}: the host got {slower:.0} % slower during the run");
    }
    let rss = host::peak_rss_kb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let values = end_to_end_values(&r, rss);
    print!("{}", describe(&r, &values));
    let metrics = END_TO_END
        .iter()
        .zip(&values)
        .map(|(m, &v)| (m.name, v, m.unit));
    println!("{}", result_line(&r, metrics));
    Ok(if r.correct() { EXIT_OK } else { EXIT_INCORRECT })
}

/// The declared end-to-end metrics of one run, in `END_TO_END` order.
fn end_to_end_values(r: &RunResult, peak_rss_kb: u64) -> Vec<f64> {
    END_TO_END
        .iter()
        .map(|m| match m.name {
            "pass_ms" => r.pass_time_ms(),
            "ops_per_s" => r.ops_per_s(),
            "peak_rss_kb" => peak_rss_kb as f64,
            "modelled_cycles" => r.modelled.cycles as f64,
            "setup_s" => r.setup_s,
            other => unreachable!("end-to-end metric {other} has no source"),
        })
        .collect()
}

/// The human-readable part of an untraced report: one `e2e` line per
/// end-to-end metric — the declared ones with their bounds, then the
/// three that must be exactly equal between runs (bound 0) — and `info`
/// lines that are printed but gate nothing.
fn describe(r: &RunResult, values: &[f64]) -> String {
    let w = r.kind.name();
    let mut out = String::new();
    for (m, v) in END_TO_END.iter().zip(values) {
        let _ = writeln!(
            out,
            "e2e {w} {} {v} {} {} {}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound
        );
    }
    let exact = [
        ("failed_share", r.failed_share(), "ratio"),
        (
            "modelled_stall_cycles",
            r.modelled.stall_cycles as f64,
            "vcycles",
        ),
        ("modelled_code_bytes", r.modelled.code_bytes as f64, "bytes"),
    ];
    for (name, v, unit) in exact {
        let _ = writeln!(out, "e2e {w} {name} {v} {unit} lower 0");
    }
    let s = r.passes();
    for (name, v) in [
        ("pass_ms.min", s.min),
        ("pass_ms.q1", s.q1),
        ("pass_ms.median", s.median),
        ("pass_ms.q3", s.q3),
        ("pass_ms.mad", s.mad),
    ] {
        let _ = writeln!(out, "info {w} {name} {v} ms");
    }
    let samples: Vec<String> = r.pass_ms.iter().map(f64::to_string).collect();
    let _ = writeln!(out, "info {w} pass_ms.samples {} ms", samples.join(","));
    let _ = writeln!(out, "info {w} passes {} count", s.n);
    let _ = writeln!(
        out,
        "info {w} ops_per_pass {} {}",
        r.ops_per_pass,
        r.kind.op().replace(' ', "_")
    );
    if s.quartile_spread() > NOISY_SPREAD {
        let _ = writeln!(
            out,
            "noisy {w}: pass-time quartile spread {:.0} % is above {:.0} %; read a small difference as unresolved, not as unchanged",
            s.quartile_spread() * 100.0,
            NOISY_SPREAD * 100.0
        );
    }
    if !r.modelled_stable {
        let _ = writeln!(
            out,
            "incorrect {w}: two passes disagree on the modelled ledger"
        );
    }
    out
}

/// The last line of a run: the object the pipeline reads.
fn result_line<'a>(
    r: &RunResult,
    metrics: impl Iterator<Item = (&'a str, f64, &'a str)>,
) -> String {
    let fields: Vec<String> = metrics
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        fields.join(", ")
    )
}

fn traced(kind: Kind, args: &Args, oracle_text: &str) -> Result<i32, String> {
    if !incline_bench::alloc::counting_enabled() {
        return Err("wall-traced was built without the counting allocator".into());
    }
    let length = args.length(kind, Mode::Traced);
    let calib_start = host::calibrate();
    let mut rec = Recorder::on();
    let (prepared, r) = run::run(kind, args.seed, oracle_text, 1, length, &mut rec)?;
    let window = incline_bench::alloc::start_window();
    std::hint::black_box(prepared.pass(&mut Recorder::off(), false));
    let alloc = window.finish();
    drop(prepared);
    let mut values = layers::probe(&Oracle::parse(oracle_text)?)?;
    let traced_ms = r.pass_time_ms();
    values.extend([
        ("modelled.stall_cycles", r.modelled.stall_cycles as f64),
        ("modelled.code_bytes", r.modelled.code_bytes as f64),
        ("alloc.bytes_per_pass", alloc.total_bytes as f64),
        ("alloc.calls_per_pass", alloc.calls as f64),
        ("alloc.peak_bytes", alloc.peak_bytes as f64),
        ("bench.traced_pass_ms", traced_ms),
        // Without an untraced pass time to compare with, the ratio is 1:
        // `run.sh` always passes one.
        (
            "bench.trace_overhead_ratio",
            traced_ms / args.untraced_pass_ms.unwrap_or(traced_ms),
        ),
        ("bench.calib_ms_start", calib_start),
        ("bench.calib_ms_end", host::calibrate_end(calib_start)),
    ]);
    assert!(
        values.iter().map(|v| v.0).eq(PER_LAYER.iter().map(|m| m.0)),
        "the probes and metrics::PER_LAYER list different metrics"
    );

    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let spans_path = args.out.join("spans.jsonl");
    let mut file = std::io::BufWriter::new(
        std::fs::File::create(&spans_path).map_err(|e| format!("{}: {e}", spans_path.display()))?,
    );
    rec.write_jsonl(&mut file)
        .and_then(|()| std::io::Write::flush(&mut file))
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let w = kind.name();
    for ((name, unit, better), (_, v)) in PER_LAYER.iter().zip(&values) {
        println!("layer {w} {name} {v} {unit} {}", better.word());
    }
    let self_times = rec.self_time_by_name();
    let pass_total: u64 = self_times.iter().map(|(_, ns)| ns).sum();
    for (name, ns) in self_times {
        let share = ns as f64 / pass_total.max(1) as f64;
        println!(
            "info {w} self_time.{name} {} ms ({:.1} % of the timed passes)",
            ns as f64 / 1e6,
            share * 100.0
        );
    }
    println!(
        "info {w} spans {} count -> {}",
        rec.spans().len(),
        spans_path.display()
    );
    let metrics = PER_LAYER.iter().zip(&values).map(|(m, v)| (m.0, v.1, m.1));
    println!("{}", result_line(&r, metrics));
    Ok(if r.correct() { EXIT_OK } else { EXIT_INCORRECT })
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Modelled;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let a = args(&[
            "--workload",
            "server_mix",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Kind::ServerMix));
        assert_eq!(a.seed, 7);
        assert_eq!(
            a.length(Kind::ServerMix, Mode::Untraced),
            Length::Seconds(10.0)
        );
        assert_eq!(
            a.length(Kind::ServerMix, Mode::Traced),
            Length::Seconds(10.0 * TRACED_SHARE)
        );
        assert_eq!(a.trace, Some(false));
        let d = args(&[]).unwrap();
        assert_eq!(d.seed, DEFAULT_SEED);
        assert_eq!(
            d.length(Kind::PeakCompiled, Mode::Untraced),
            Length::Passes(6)
        );
        assert_eq!(
            args(&["--quick"])
                .unwrap()
                .length(Kind::PeakCompiled, Mode::Traced),
            Length::Passes(2)
        );
    }

    #[test]
    fn bad_arguments_are_errors_not_panics() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--trace", "2"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
        let argv = [
            "--workload".to_string(),
            "suite_cold".into(),
            "--trace".into(),
            "1".into(),
        ];
        assert_eq!(main(Mode::Untraced, &argv), EXIT_USAGE);
        assert_eq!(main(Mode::Untraced, &[]), EXIT_USAGE);
    }

    fn result(failed: u64, stable: bool) -> RunResult {
        RunResult {
            kind: Kind::InterpOnly,
            seed: 1,
            setup_s: 0.5,
            pass_ms: vec![10.2, 10.0, 10.1],
            unit_ms: vec![vec![4.0, 6.2], vec![4.5, 6.0], vec![4.1, 6.0]],
            ops_per_pass: 112,
            attempted: 448,
            failed,
            modelled: Modelled {
                cycles: 1000,
                stall_cycles: 0,
                code_bytes: 0,
            },
            modelled_stable: stable,
        }
    }

    #[test]
    fn result_line_has_exactly_the_declared_metrics() {
        let r = result(0, true);
        let values = end_to_end_values(&r, 4096);
        assert_eq!(values, vec![10.0, 11200.0, 4096.0, 1000.0, 0.5]);
        let metrics = END_TO_END
            .iter()
            .zip(&values)
            .map(|(m, &v)| (m.name, v, m.unit));
        let line = result_line(&r, metrics);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 448, \"failed\": 0, \"metrics\": {"));
        for m in END_TO_END {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                "{}",
                m.name
            );
        }
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(!line.contains('\n'));
    }

    #[test]
    fn a_failed_op_or_an_unstable_ledger_is_incorrect() {
        assert!(result(0, true).correct());
        assert!(!result(1, true).correct());
        assert!(!result(0, false).correct());
        let text = describe(&result(1, false), &end_to_end_values(&result(1, false), 1));
        assert!(text.contains("e2e interp_only failed_share 0.002232142857142857 ratio lower 0"));
        assert!(text.contains("incorrect interp_only"));
    }

    #[test]
    fn noisy_runs_are_flagged() {
        let mut r = result(0, true);
        r.pass_ms = vec![10.0, 10.0, 14.0, 14.0];
        r.unit_ms = vec![vec![5.0, 5.0]; 4];
        let text = describe(&r, &end_to_end_values(&r, 1));
        assert!(text.contains("noisy interp_only"), "{text}");
        assert!(!describe(&result(0, true), &[0.0; 5]).contains("noisy"));
    }
}
