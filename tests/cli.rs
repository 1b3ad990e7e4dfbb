//! The `incline` binary, driven as a user drives it.

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
