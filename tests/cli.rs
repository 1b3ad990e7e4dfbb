//! The `incline` binary, driven as a user drives it.

use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Every way of running `samples/<sample>.ir` must report `trap` and exit
/// non-zero, never panic or abort.
fn assert_run_traps(sample: &str, trap: &str) {
    let sample = format!("{}/samples/{sample}.ir", env!("CARGO_MANIFEST_DIR"));
    for extra in [&[][..], &["--jit"], &["--jit", "--no-deopt"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_incline"))
            .args(["run", &sample, "--input", "1"])
            .args(extra)
            .output()
            .expect("the incline binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!("error: trap: {trap}"),
            "{extra:?}"
        );
    }
}

/// `samples/no_such_method.ir` verifies, but its virtual call finds no
/// implementation on the receiver's class.
#[test]
fn run_reports_an_unimplemented_virtual_call_as_a_trap() {
    assert_run_traps(
        "no_such_method",
        "receiver does not implement the called method",
    );
}

/// `samples/huge_array.ir` asks for an array of 2^62 elements, which used
/// to end in the host allocator: `capacity overflow`, exit 101.
#[test]
fn run_reports_an_allocation_past_the_heap_bound_as_a_trap() {
    assert_run_traps("huge_array", "guest heap exhausted");
}

/// The command line can pass an entry nothing or one int. `run` and
/// `compile` must refuse any other signature with a message: `run` used to
/// panic on `samples/float_main.ir` (exit 101) and, in a release build,
/// answer `samples/two_args.ir` with a sum that read the missing argument
/// out of the activation's own frame.
#[test]
fn entries_the_command_line_cannot_call_are_refused() {
    for (sample, signature) in [("float_main", "(float)"), ("two_args", "(int, int)")] {
        let path = format!("{}/samples/{sample}.ir", env!("CARGO_MANIFEST_DIR"));
        for args in [&["run"][..], &["run", "--jit"], &["compile"]] {
            let out = Command::new(env!("CARGO_BIN_EXE_incline"))
                .args([args[0], &path, "--input", "3"])
                .args(&args[1..])
                .output()
                .expect("the incline binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            let what = format!("{sample} {args:?}: {stdout}{stderr}");
            assert_eq!(out.status.code(), Some(1), "{what}");
            assert!(stderr.contains(&format!("takes {signature}")), "{what}");
            assert!(
                !stderr.contains("panicked") && !stdout.contains("=>"),
                "{what}"
            );
        }
    }
}

/// A flag the subcommand does not list is refused by name before anything
/// runs, and so is a listed flag whose value is missing. Both used to be
/// accepted: `bench avrora --wat` ran and exited 0, so a misspelt
/// `--cache-budget` — or one whose value was forgotten — measured an
/// unbounded cache, and `--trace-json --pipelined` traced into a file
/// named `--pipelined`.
#[test]
fn flags_a_subcommand_does_not_list_are_refused() {
    let fib = concat!(env!("CARGO_MANIFEST_DIR"), "/samples/fib.ir");
    // The arguments, the flag refused, and — when it is listed but lacks
    // its value — the metavariable the message names.
    type Case<'a> = (&'a [&'a str], &'a str, Option<&'a str>);
    let cases: [Case; 10] = [
        (&["bench", "avrora", "--wat"], "--wat", None),
        (&["bench", "avrora", "--replay", "eager"], "--replay", None),
        (
            &["run", fib, "--cache-bugdet", "100"],
            "--cache-bugdet",
            None,
        ),
        // Listed, but for another subcommand.
        (
            &["compile", fib, "--cache-budget", "100"],
            "--cache-budget",
            None,
        ),
        (&["print", fib, "--jit"], "--jit", None),
        (&["dot", fib, "--explain"], "--explain", None),
        (
            &["server", "--requests", "10", "--entry", "main"],
            "--entry",
            None,
        ),
        // Listed, but the value is missing: last, or another flag follows.
        (
            &["bench", "avrora", "--cache-budget"],
            "--cache-budget",
            Some("BYTES"),
        ),
        (
            &["bench", "avrora", "--trace-json", "--pipelined"],
            "--trace-json",
            Some("FILE"),
        ),
        (&["run", fib, "--input"], "--input", Some("N")),
    ];
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (args, flag, metavar) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_incline"))
            .args(args)
            .current_dir(dir)
            .output()
            .expect("the incline binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        let message = match metavar {
            Some(metavar) => format!("error: {flag} needs a value ({metavar})"),
            None => format!("error: unknown flag `{flag}`"),
        };
        assert_eq!(stderr.trim_end(), message, "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
    }
    assert!(!dir.join("--pipelined").exists(), "no trace by that name");
}

/// `compile --trace-json FILE` writes the compilation's JSONL trace to FILE,
/// flushed, and says so.
#[test]
fn compile_writes_its_trace_to_the_named_file() {
    let fib = concat!(env!("CARGO_MANIFEST_DIR"), "/samples/fib.ir");
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("compile_trace.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_incline"))
        .args(["compile", fib, "--trace-json"])
        .arg(&file)
        .output()
        .expect("the incline binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let written = format!("trace written to {}", file.display());
    assert!(stderr.contains(&written), "{stderr}");
    let trace = std::fs::read_to_string(&file).expect("the trace file exists");
    assert!(
        trace.lines().any(|l| l.contains(r#""ev":"RoundStart""#)),
        "{trace}"
    );
}

/// `compile --explain` prints every round's `RoundEnd` line followed by that
/// round's call tree, and its `--trace-json FILE` holds the bytes a compile
/// without `--explain` writes. FILE used to be left empty.
#[test]
fn compile_explain_writes_the_trace_of_a_plain_compile() {
    let fib = concat!(env!("CARGO_MANIFEST_DIR"), "/samples/fib.ir");
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let file = |name: &str| dir.join(name).to_str().expect("a UTF-8 path").to_string();
    let (explained, plain) = (file("explain_trace.jsonl"), file("plain_trace.jsonl"));
    let stdout = incline_stdout(&["compile", fib, "--explain", "--trace-json", &explained]);
    incline_stdout(&["compile", fib, "--trace-json", &plain]);
    let trace = std::fs::read_to_string(&explained).expect("the trace file exists");
    assert_eq!(
        trace,
        std::fs::read_to_string(&plain).expect("the trace file exists")
    );
    let rounds: Vec<&str> = trace
        .lines()
        .filter(|l| l.starts_with(r#"{"ev":"RoundEnd""#))
        .collect();
    assert!(!rounds.is_empty(), "{trace}");
    for round in rounds {
        assert!(stdout.contains(&format!("{round}\n[R] main")), "{stdout}");
    }
}

/// `bench --trace` streams to stderr exactly the JSONL that `--trace-json
/// FILE` writes to FILE, the deoptimization lifecycle included.
#[test]
fn bench_trace_streams_the_jsonl_of_trace_json() {
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("phase_change.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_incline"))
        .args(["bench", "phase_change", "--trace"])
        .output()
        .expect("the incline binary runs");
    assert_eq!(out.status.code(), Some(0));
    incline_stdout(&[
        "bench",
        "phase_change",
        "--trace-json",
        file.to_str().expect("a UTF-8 path"),
    ]);
    let written = std::fs::read_to_string(&file).expect("the trace file exists");
    assert_eq!(String::from_utf8_lossy(&out.stderr), written);
    assert!(written.contains(r#""ev":"Deoptimized""#), "{written}");
}

/// A snapshot whose header claims 2^64-1 profiles, under a valid checksum
/// (FNV-1a is no secret): a counted cold start. The loader used to size a
/// vector from the claim and abort (exit 101; 134 for smaller lies).
#[test]
fn bench_survives_a_forged_snapshot_header() {
    let body = format!(
        "{{\"snapshot\":\"incline\",\"v\":{},\"fingerprint\":\"00\",\"methods\":{},\"decisions\":0}}\n",
        incline::snapshot::SNAPSHOT_VERSION,
        u64::MAX
    );
    let crc = incline::snapshot::fnv1a(body.as_bytes());
    let forged = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("forged.snap");
    let text = format!("{body}{{\"rec\":\"end\",\"crc\":\"{crc:016x}\"}}\n");
    std::fs::write(&forged, text).expect("write the forgery");
    let out = Command::new(env!("CARGO_BIN_EXE_incline"))
        .args(["bench", "scalatest", "--trace", "--snapshot-in"])
        .arg(&forged)
        .output()
        .expect("the incline binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("snapshot: 0 loaded, 1 fallbacks"),
        "{stdout}"
    );
    assert!(
        stderr.contains("corrupt snapshot: header promised 18446744073709551615 profiles"),
        "{stderr}"
    );
}

/// Runs `incline args`, which must exit 0, and returns its stdout.
fn incline_stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_incline"))
        .args(args)
        .output()
        .expect("the incline binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {stdout}{stderr}");
    stdout
}

/// The value of the `bench` report line that starts with `prefix`.
fn bench_line<'a>(stdout: &'a str, prefix: &str) -> &'a str {
    let line = stdout.lines().find(|l| l.starts_with(prefix));
    line.unwrap_or_else(|| panic!("no `{prefix}` line in\n{stdout}"))
}

/// The warmup cycles of a `bench` report: `warmup: N iterations (C cycles) …`.
fn warmup_cycles(stdout: &str) -> u64 {
    let line = bench_line(stdout, "warmup:");
    let cycles = line.split('(').nth(1).and_then(|s| s.split(' ').next());
    cycles.and_then(|c| c.parse().ok()).expect(line)
}

/// The snapshot and trace flags of `run`, `bench` and `server`, end to end:
/// each command cold with `--snapshot-out` and `--trace-json`, then warm
/// from that snapshot; a three-replica `--snapshot-merge`; and a snapshot
/// cut short, which is a counted cold start with the cold answer. Every
/// command's stdout and every file a command writes is pinned by its FNV-1a
/// digest, so a change to how the command line builds a session shows up
/// here byte for byte.
#[test]
fn snapshot_and_trace_flags_of_run_bench_and_server() {
    use incline::snapshot::fnv1a;
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("snapshot_flags");
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    let path = |name: &str| dir.join(name).to_str().expect("a UTF-8 path").to_string();
    let read = |name: &str| std::fs::read(path(name)).expect("the command wrote the file");
    let fib = concat!(env!("CARGO_MANIFEST_DIR"), "/samples/fib.ir");
    let mut pinned = String::new();
    let mut pin = |what: &str, bytes: &[u8]| {
        let _ = writeln!(pinned, "{what} {:016x}", fnv1a(bytes));
    };

    let commands: [(&str, &[&str]); 3] = [
        ("run", &["run", fib, "--jit"]),
        ("bench", &["bench", "scalatest"]),
        ("server", &["server", "--requests", "200"]),
    ];
    let mut bench_cold = String::new();
    for (name, args) in commands {
        let (snap, trace) = (
            path(&format!("{name}.snap")),
            path(&format!("{name}.jsonl")),
        );
        let cold =
            incline_stdout(&[args, &["--snapshot-out", &snap, "--trace-json", &trace]].concat());
        assert!(cold.contains(" 1 written,"), "{name}: {cold}");
        let warm = incline_stdout(&[args, &["--snapshot-in", &snap]].concat());
        assert!(
            warm.contains("snapshot: 1 loaded, 0 fallbacks"),
            "{name}: {warm}"
        );
        pin(&format!("{name} cold"), cold.as_bytes());
        pin(&format!("{name} snapshot"), &read(&format!("{name}.snap")));
        pin(&format!("{name} trace"), &read(&format!("{name}.jsonl")));
        pin(&format!("{name} warm"), warm.as_bytes());
        if name == "bench" {
            let digest = "answer digest";
            assert_eq!(bench_line(&warm, digest), bench_line(&cold, digest));
            assert!(warmup_cycles(&warm) < warmup_cycles(&cold), "{cold}{warm}");
            bench_cold = cold;
        }
    }

    let mut merge = vec!["bench", "scalatest"];
    let replicas: Vec<String> = ["4", "6", "8"]
        .iter()
        .map(|input| {
            let replica = path(&format!("replica-{input}.snap"));
            let out = incline_stdout(&[
                "bench",
                "scalatest",
                "--input",
                input,
                "--snapshot-out",
                &replica,
            ]);
            pin(&format!("replica {input}"), out.as_bytes());
            pin(
                &format!("replica {input} snapshot"),
                &read(&format!("replica-{input}.snap")),
            );
            replica
        })
        .collect();
    for replica in &replicas {
        merge.extend(["--snapshot-merge", replica]);
    }
    let merged = incline_stdout(&merge);
    assert!(merged.contains(" 3 merged,"), "{merged}");
    pin("merged", merged.as_bytes());

    std::fs::write(path("cut.snap"), &read("bench.snap")[..100]).expect("write the cut snapshot");
    let cut = incline_stdout(&["bench", "scalatest", "--snapshot-in", &path("cut.snap")]);
    assert!(cut.contains("snapshot: 0 loaded, 1 fallbacks"), "{cut}");
    let digest = "answer digest";
    assert_eq!(bench_line(&cut, digest), bench_line(&bench_cold, digest));
    pin("cut", cut.as_bytes());

    assert_eq!(
        pinned, PINNED_SNAPSHOT_AND_TRACE_DIGESTS,
        "a command's output moved; the digests are now\n{pinned}"
    );
}

const PINNED_SNAPSHOT_AND_TRACE_DIGESTS: &str = "\
run cold 7081e3380befdc83
run snapshot adc7d53b02b8c6c5
run trace e6dc3e7c0dbc7da4
run warm 4e65a809fed9b0e1
bench cold 0c749f2136a14152
bench snapshot 62031e11a90d6568
bench trace 4635da96fac6374e
bench warm 554e5d9a5f9886b5
server cold f1a92746a8fcf036
server snapshot 1b517e4a2b018822
server trace 40128ec6bb9a4da6
server warm f6fde1603c16f128
replica 4 f48402c6223233c4
replica 4 snapshot d362ba4706e95c2a
replica 6 2ac2061b0c07066b
replica 6 snapshot 2a48a2b1c780031b
replica 8 52031a599b8a6211
replica 8 snapshot 5fcaf07206702dd8
merged 0ba45233c715e37c
cut 605930f9e2be62be
";

/// `--compile-threads` counts modelled workers, and any count is a run with
/// the answers of four. The machine used to allocate a slot per worker up
/// front: `capacity overflow` (exit 101) at `usize::MAX`, a failed 8 TB
/// allocation (exit 134) at 10^12.
#[test]
fn bench_takes_any_modelled_worker_count() {
    for install in [&[][..], &["--pipelined"]] {
        let digest = |workers: &str| {
            let out = Command::new(env!("CARGO_BIN_EXE_incline"))
                .args(["bench", "scalac", "--compile-threads", workers])
                .args(install)
                .output()
                .expect("the incline binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(0), "{workers}: {stderr}");
            let line = stdout.lines().find(|l| l.starts_with("answer digest"));
            line.unwrap_or_else(|| panic!("{workers}: {stdout}"))
                .to_string()
        };
        let four = digest("4");
        for workers in ["1000000000000", &usize::MAX.to_string()] {
            assert_eq!(digest(workers), four, "{workers} {install:?}");
        }
    }
}

/// `server` refuses a spec it cannot serve, with a message. `--tenants 0`
/// used to trip an assertion in the tenant generator, a request count of
/// 2^64-1 aborted reserving its schedule (`capacity overflow`): exit 101
/// both. And 2^32 tenants or more never finished building their program.
#[test]
fn server_refuses_a_spec_it_cannot_serve() {
    let max = usize::MAX.to_string();
    let too_many = format!("error: cannot schedule {max} requests");
    let over = |n: &str| format!("error: --tenants {n} is over the limit of 1024");
    let (two_to_32, more) = (over("4294967296"), over(&max));
    for (args, message) in [
        (["--tenants", "0"], "error: server spec has no tenants"),
        (["--requests", &max], too_many.as_str()),
        (["--tenants", "4294967296"], two_to_32.as_str()),
        (["--tenants", &max], more.as_str()),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_incline"))
            .arg("server")
            .args(args)
            .output()
            .expect("the incline binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.trim_end(), message, "{args:?}");
    }
}

/// A hostile but valid program: `main` is a chain of 20 000 blocks, each
/// jumping to the next with its one parameter. The JIT's block merging
/// splices them all; when it did one merge per rebuild of the CFG this run
/// took 40 s in a release build (minutes in the debug build under test).
/// Finishing is the gate.
#[test]
fn run_compiles_a_20_000_block_jump_chain() {
    const LINKS: usize = 20_000;
    let mut text = String::from("fn main(int) -> int {\nb0(v0: int):\n  jump b1(v0)\n");
    for i in 1..LINKS {
        let _ = writeln!(text, "b{i}(v{i}: int):\n  jump b{}(v{i})", i + 1);
    }
    let _ = writeln!(
        text,
        "b{LINKS}(v{LINKS}: int):\n  print v{LINKS}\n  ret v{LINKS}\n}}"
    );
    let sample = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("jump_chain.ir");
    std::fs::write(&sample, text).expect("write the sample");

    let out = Command::new(env!("CARGO_BIN_EXE_incline"))
        .args(["run", sample.to_str().unwrap(), "--input", "7", "--jit"])
        .output()
        .expect("the incline binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stdout.contains("=> Some(Int(7))"), "{stdout}");
    assert!(stdout.contains("1 methods compiled"), "{stdout}");
}

/// Every numeric flag of every subcommand, at the values that found the
/// last defects by hand — 0, 1, 2^32, 2^63−1, 2^64−1 and −1 — ends in exit
/// 0, or in exit 1 with a message: never in a panic (101), a signal or a
/// hang. `bench --input` at 2^32 and at 2^63−1 is left out: the workload
/// then runs until the fuel limit stops it, which takes 5 s in a release
/// build and far longer in this debug build — slow, but no defect.
#[test]
fn every_numeric_flag_survives_extreme_values() {
    const VALUES: [&str; 6] = [
        "0",
        "1",
        "4294967296",
        "9223372036854775807",
        "18446744073709551615",
        "-1",
    ];
    const COMMON: [&str; 4] = [
        "--compile-threads",
        "--cache-budget",
        "--icache-capacity",
        "--icache-scale",
    ];
    let fib = concat!(env!("CARGO_MANIFEST_DIR"), "/samples/fib.ir");
    let with_common = |own: &[&'static str]| [own, &COMMON[..]].concat();
    // Each subcommand with cheap operands, its numeric flags, and the cheap
    // value a flag keeps while another one is under test.
    type Subcommand<'a> = (&'a [&'a str], Vec<&'a str>, &'a [(&'a str, &'a str)]);
    let subcommands: [Subcommand; 4] = [
        (&["run", fib, "--jit"], with_common(&["--input"]), &[]),
        (&["compile", fib], vec!["--input"], &[]),
        (
            &["bench", "scalatest"],
            with_common(&["--input"]),
            &[("--input", "1")],
        ),
        (
            &["server"],
            with_common(&["--tenants", "--seed", "--requests"]),
            &[("--requests", "50")],
        ),
    ];
    let mut cases: Vec<Vec<&str>> = Vec::new();
    for (operands, flags, cheap) in &subcommands {
        for &flag in flags {
            for value in VALUES {
                let trips = matches!(value, "4294967296" | "9223372036854775807");
                if operands[0] == "bench" && flag == "--input" && trips {
                    continue;
                }
                let mut args = operands.to_vec();
                args.extend([flag, value]);
                for &(other, cheap) in cheap.iter().filter(|(other, _)| *other != flag) {
                    args.extend([other, cheap]);
                }
                cases.push(args);
            }
        }
    }
    assert_eq!(cases.len(), 106);
    let failures: Vec<String> = std::thread::scope(|s| {
        let halves = cases.chunks(cases.len().div_ceil(2));
        let workers: Vec<_> = halves
            .map(|half| {
                s.spawn(move || {
                    half.iter()
                        .filter_map(|a| misbehaves(a))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a worker"))
            .collect()
    });
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// How `incline args` misbehaves, if it does: an exit other than 0 or 1, a
/// signal, or no exit within a minute.
fn misbehaves(args: &[&str]) -> Option<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_incline"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("the incline binary runs");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("the child can be waited for") {
            break status;
        }
        if start.elapsed() > Duration::from_secs(60) {
            let _ = child.kill();
            let _ = child.wait();
            return Some(format!("{args:?}: still running after a minute"));
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let fine = matches!(status.code(), Some(0 | 1));
    (!fine).then(|| format!("{args:?}: {status}"))
}
