//! The answer oracle: `expected.json`.
//!
//! Every named program's answer digest at both input sizes the workloads
//! use, blessed **only** from `jit: false` + `NoInline` runs
//! (`wall --bless`) — never from the compiler under test. Every timed op
//! is checked against it.
//!
//! The file is one `"name@input": "digest"` pair per line inside `{}`; it
//! is read and written only here, so the reader accepts exactly what the
//! writer produces.

use std::collections::BTreeMap;

use incline_vm::snapshot::fnv1a;
use incline_vm::RunOutcome;

/// `(program name, input) → answer digest`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Oracle {
    digests: BTreeMap<String, u64>,
}

fn key(name: &str, input: i64) -> String {
    format!("{name}@{input}")
}

impl Oracle {
    /// Records the digest of `name` at `input`.
    pub fn insert(&mut self, name: &str, input: i64, digest: u64) {
        self.digests.insert(key(name, input), digest);
    }

    /// The blessed digest of `name` at `input`.
    pub fn get(&self, name: &str, input: i64) -> Option<u64> {
        self.digests.get(&key(name, input)).copied()
    }

    /// Number of blessed answers.
    pub fn len(&self) -> usize {
        self.digests.len()
    }

    /// Whether nothing is blessed.
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }

    /// Renders the file.
    pub fn render(&self) -> String {
        let rows: Vec<String> = self
            .digests
            .iter()
            .map(|(k, d)| format!("  \"{k}\": \"{d:016x}\""))
            .collect();
        format!("{{\n{}\n}}\n", rows.join(",\n"))
    }

    /// Parses the file.
    ///
    /// # Errors
    ///
    /// Names the first line that is not `"name@input": "16 hex digits"`.
    pub fn parse(text: &str) -> Result<Oracle, String> {
        let mut digests = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim().trim_end_matches(',');
            if line.is_empty() || line == "{" || line == "}" {
                continue;
            }
            let bad = || format!("expected.json line {}: `{line}`", n + 1);
            let parts: Vec<&str> = line.split('"').collect();
            let [_, k, colon, hex, _] = parts[..] else {
                return Err(bad());
            };
            if colon.trim() != ":" || hex.len() != 16 || !k.contains('@') {
                return Err(bad());
            }
            let digest = u64::from_str_radix(hex, 16).map_err(|_| bad())?;
            digests.insert(k.to_string(), digest);
        }
        Ok(Oracle { digests })
    }
}

/// Answer digest of one `Machine::run`: FNV-1a over the output lines and
/// the return value — the same bytes `BenchResult::answer_digest` hashes,
/// so a direct run and a `RunSession` are checked against one oracle.
pub fn outcome_digest(out: &RunOutcome) -> u64 {
    let mut text = String::new();
    for line in out.output.lines() {
        text.push_str(line);
        text.push('\n');
    }
    if let Some(v) = &out.value {
        text.push_str(&format!("{v:?}"));
    }
    fnv1a(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use incline_vm::{BenchSpec, Machine, NoInline, RunSession, Value, VmConfig};

    #[test]
    fn render_parse_round_trip() {
        let mut o = Oracle::default();
        o.insert("avrora", 40, 0xdead_beef);
        o.insert("h2", 320, u64::MAX);
        let back = Oracle::parse(&o.render()).unwrap();
        assert_eq!(back, o);
        assert_eq!(back.get("avrora", 40), Some(0xdead_beef));
        assert_eq!(back.get("avrora", 41), None);
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn malformed_lines_are_rejected_with_their_number() {
        let err = Oracle::parse("{\n  \"a@1\": \"12\"\n}\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(Oracle::parse("{\n  \"a\": \"0000000000000000\"\n}").is_err());
        assert!(Oracle::parse("{\n  \"a@1\" \"0000000000000000\"\n}").is_err());
    }

    #[test]
    fn outcome_digest_matches_the_run_session_digest() {
        let w = incline_workloads::by_name("scalatest")
            .unwrap()
            .with_input(4);
        let cfg = VmConfig {
            jit: false,
            ..VmConfig::default()
        };
        let spec = BenchSpec {
            entry: w.entry,
            args: vec![Value::Int(w.input)],
            iterations: 1,
        };
        let session = RunSession::new(&w.program, spec).config(cfg).run().unwrap();
        let mut vm = Machine::new(&w.program, Box::new(NoInline), cfg);
        let out = vm.run(w.entry, vec![Value::Int(w.input)]).unwrap();
        assert_eq!(outcome_digest(&out), session.answer_digest());
    }
}
