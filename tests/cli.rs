//! The `incline` binary, driven as a user drives it.

use std::fmt::Write as _;
use std::process::Command;

/// `samples/no_such_method.ir` verifies, but its virtual call finds no
/// implementation on the receiver's class: every way of running it must
/// report a trap and exit non-zero, never panic.
#[test]
fn run_reports_an_unimplemented_virtual_call_as_a_trap() {
    let sample = concat!(env!("CARGO_MANIFEST_DIR"), "/samples/no_such_method.ir");
    for extra in [&[][..], &["--jit"], &["--jit", "--no-deopt"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_incline"))
            .args(["run", sample, "--input", "1"])
            .args(extra)
            .output()
            .expect("the incline binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        assert!(
            stderr.contains("trap: receiver does not implement the called method"),
            "{extra:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{extra:?}: {stderr}");
    }
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
/// runs. It used to be ignored: `bench avrora --wat` ran and exited 0, so a
/// misspelt `--cache-budget` measured an unbounded cache.
#[test]
fn flags_a_subcommand_does_not_list_are_refused() {
    let fib = concat!(env!("CARGO_MANIFEST_DIR"), "/samples/fib.ir");
    let cases: [(&[&str], &str); 7] = [
        (&["bench", "avrora", "--wat"], "--wat"),
        (&["bench", "avrora", "--replay", "eager"], "--replay"),
        (&["run", fib, "--cache-bugdet", "100"], "--cache-bugdet"),
        // Listed, but for another subcommand.
        (&["compile", fib, "--cache-budget", "100"], "--cache-budget"),
        (&["print", fib, "--jit"], "--jit"),
        (&["dot", fib, "--explain"], "--explain"),
        (
            &["server", "--requests", "10", "--entry", "main"],
            "--entry",
        ),
    ];
    for (args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_incline"))
            .args(args)
            .output()
            .expect("the incline binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!("error: unknown flag `{flag}`"),
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
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
