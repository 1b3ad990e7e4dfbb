//! Shared command-line option parsing for the `incline` binary.
//!
//! Every subcommand that runs the VM (`run`, `bench`, `server`) accepts the
//! same flag surface: inliner selection, tracing, deoptimization, broker
//! sizing, code-cache knobs, and the warmup-snapshot flags
//! (`--snapshot-in`, `--snapshot-merge`, `--snapshot-out`).
//! [`CommonOpts::parse`] extracts and validates those flags once; each
//! subcommand then layers its own defaults (hotness threshold, deopt
//! default) on top via [`CommonOpts::vm_config`].
//!
//! Parsing is scan-based: `CommonOpts` picks out the flags it owns and
//! leaves everything else to the subcommand (`--entry`, `--input`,
//! positional file names). What neither knows is an error, not a no-op:
//! [`check_flags`] walks the arguments with the one [`Flag`] table before
//! anything runs, so neither a misspelt `--cache-bugdet 100` nor a
//! `--cache-budget` whose value was forgotten can silently measure an
//! unbounded cache.

use std::io::{BufWriter, LineWriter, Write};
use std::sync::Arc;

use incline_baselines::{C2Inliner, GreedyInliner};
use incline_core::IncrementalInliner;
use incline_trace::{JsonlSink, TraceSink};
use incline_vm::{EvictionPolicy, Inliner, InstallPolicy, NoInline, Session, SnapshotIo, VmConfig};

/// Returns true when `name` appears anywhere in `args`.
pub fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Returns the value following `name` in `args`, if present.
pub fn opt_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Returns the value following *every* occurrence of `name` in `args` —
/// the scan for repeatable flags like `--snapshot-merge`.
pub fn opt_values<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .filter_map(|(i, _)| args.get(i + 1))
        .map(String::as_str)
        .collect()
}

/// One row of a flag table: the flag and, when it takes a value, the
/// metavariable the usage text shows for it. The tables — a subcommand's
/// own and [`CommonOpts::FLAGS`] — are what [`check_flags`] accepts and
/// what [`usage_flags`] prints; nothing else lists the flags.
pub type Flag = (&'static str, Option<&'static str>);

/// The COMMON flags `compile` takes too, without the rest of the surface.
pub const INLINER: Flag = ("--inliner", Some("NAME"));
/// See [`INLINER`].
pub const TRACE: Flag = ("--trace", None);
/// See [`INLINER`].
pub const TRACE_JSON: Flag = ("--trace-json", Some("FILE"));

/// Walks `args` with the subcommand's `own` flags and — when it takes the
/// `common` surface — [`CommonOpts::FLAGS`]: a `--flag` in neither table is
/// refused, and so is a value-taking flag that is last or followed by
/// another `--flag`.
pub fn check_flags(args: &[String], own: &[Flag], common: bool) -> Result<(), String> {
    let common = if common { CommonOpts::FLAGS } else { &[] };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            continue;
        }
        let Some((_, metavar)) = own.iter().chain(common).find(|(name, _)| name == arg) else {
            return Err(format!("unknown flag `{arg}`"));
        };
        if let Some(metavar) = metavar {
            if args.next().is_none_or(|value| value.starts_with("--")) {
                return Err(format!("{arg} needs a value ({metavar})"));
            }
        }
    }
    Ok(())
}

/// `flags` as the usage text lists them: `[--name METAVAR]` each, wrapped
/// into lines of at most `width` columns.
pub fn usage_flags(flags: &[Flag], width: usize) -> Vec<String> {
    let mut lines = vec![String::new()];
    for (name, metavar) in flags {
        let item = match metavar {
            Some(metavar) => format!("[{name} {metavar}]"),
            None => format!("[{name}]"),
        };
        let line = lines.last_mut().expect("starts with one line");
        if line.is_empty() {
            *line = item;
        } else if line.len() + 1 + item.len() <= width {
            *line = format!("{line} {item}");
        } else {
            lines.push(item);
        }
    }
    lines
}

/// The flag surface shared by `run`, `bench`, and `server`.
///
/// One parse, one set of semantics: the same `--compile-threads` or
/// `--snapshot-in` means the same thing on every VM-running subcommand.
#[derive(Debug, Clone, Default)]
pub struct CommonOpts {
    /// Inliner name: `incremental` (default), `greedy`, `c2`, or `none`.
    pub inliner: String,
    /// Stream compile events to stderr as JSONL (`--trace`).
    pub trace: bool,
    /// Write compile events as JSONL to this file (`--trace-json FILE`).
    pub trace_json: Option<String>,
    /// Restrict compiled code to the virtual fallback (`--no-deopt`).
    pub no_deopt: bool,
    /// Load a warmup snapshot from this file before the run
    /// (`--snapshot-in FILE`).
    snapshot_in: Option<String>,
    /// Merge N replica snapshots before the run, one path per occurrence
    /// of the repeatable flag (`--snapshot-merge FILE ...`). Mutually
    /// exclusive with `--snapshot-in`.
    snapshot_merge: Vec<String>,
    /// Write a warmup snapshot to this file after the run
    /// (`--snapshot-out FILE`).
    snapshot_out: Option<String>,
    /// Modelled compile workers in the virtual-time stall account
    /// (`--compile-threads N`).
    pub compile_threads: Option<usize>,
    /// Install at safepoints while the mutator keeps interpreting
    /// (`--pipelined`).
    pub pipelined: bool,
    /// Code-cache byte budget, 0 = unbounded (`--cache-budget BYTES`).
    pub cache_budget: Option<u64>,
    /// Cache victim-selection policy (`--eviction POLICY`).
    pub eviction: Option<EvictionPolicy>,
    /// Cost-model instruction-cache capacity override
    /// (`--icache-capacity BYTES`).
    pub icache_capacity: Option<u64>,
    /// Cost-model instruction-cache pressure scale override
    /// (`--icache-scale BYTES`).
    pub icache_scale: Option<u64>,
    /// Disable deep-inlining-trial memoization (`--no-trial-cache`).
    /// Observables are identical either way; the flag exists for compiler-
    /// throughput baselines and for bisecting cache suspicions.
    pub no_trial_cache: bool,
}

impl CommonOpts {
    /// Every flag [`CommonOpts::parse`] understands — the COMMON block of
    /// the usage text.
    pub const FLAGS: &'static [Flag] = &[
        INLINER,
        TRACE,
        TRACE_JSON,
        ("--no-deopt", None),
        ("--compile-threads", Some("N")),
        ("--pipelined", None),
        ("--no-trial-cache", None),
        ("--cache-budget", Some("BYTES")),
        ("--eviction", Some("POLICY")),
        ("--icache-capacity", Some("BYTES")),
        ("--icache-scale", Some("BYTES")),
        ("--snapshot-in", Some("FILE")),
        ("--snapshot-merge", Some("FILE ...")),
        ("--snapshot-out", Some("FILE")),
    ];

    /// Extracts the shared flags from `args`, validating every value.
    ///
    /// Unrecognized arguments are left for the subcommand to interpret.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = CommonOpts {
            inliner: opt_value(args, "--inliner")
                .unwrap_or("incremental")
                .to_string(),
            trace: flag(args, "--trace"),
            trace_json: opt_value(args, "--trace-json").map(String::from),
            no_deopt: flag(args, "--no-deopt"),
            snapshot_in: opt_value(args, "--snapshot-in").map(String::from),
            snapshot_merge: opt_values(args, "--snapshot-merge")
                .into_iter()
                .map(String::from)
                .collect(),
            snapshot_out: opt_value(args, "--snapshot-out").map(String::from),
            pipelined: flag(args, "--pipelined"),
            no_trial_cache: flag(args, "--no-trial-cache"),
            ..CommonOpts::default()
        };
        if opts.snapshot_in.is_some() && !opts.snapshot_merge.is_empty() {
            return Err("--snapshot-in and --snapshot-merge are mutually exclusive".to_string());
        }
        if let Some(n) = opt_value(args, "--compile-threads") {
            opts.compile_threads = Some(n.parse().map_err(|e| format!("--compile-threads: {e}"))?);
        }
        if let Some(n) = opt_value(args, "--cache-budget") {
            opts.cache_budget = Some(n.parse().map_err(|e| format!("--cache-budget: {e}"))?);
        }
        if let Some(p) = opt_value(args, "--eviction") {
            opts.eviction = Some(p.parse().map_err(|e| format!("--eviction: {e}"))?);
        }
        if let Some(n) = opt_value(args, "--icache-capacity") {
            opts.icache_capacity = Some(n.parse().map_err(|e| format!("--icache-capacity: {e}"))?);
        }
        if let Some(n) = opt_value(args, "--icache-scale") {
            opts.icache_scale = Some(n.parse().map_err(|e| format!("--icache-scale: {e}"))?);
        }
        Ok(opts)
    }

    /// Builds the [`VmConfig`] these options describe.
    ///
    /// `hotness_threshold` and `deopt_default` are the subcommand's
    /// defaults; `--no-deopt` forces deoptimization off regardless.
    pub fn vm_config(&self, hotness_threshold: u64, deopt_default: bool) -> VmConfig {
        let defaults = VmConfig::default();
        let capacity = self
            .icache_capacity
            .unwrap_or(defaults.cost.icache_capacity);
        let scale = self.icache_scale.unwrap_or(defaults.cost.icache_scale);
        let install_policy = if self.pipelined {
            InstallPolicy::Safepoint
        } else {
            InstallPolicy::Barrier
        };
        VmConfig {
            cost: defaults.cost.with_icache(capacity, scale),
            hotness_threshold,
            deopt: deopt_default && !self.no_deopt,
            install_policy,
            trial_cache: !self.no_trial_cache,
            compile_threads: self.compile_threads.unwrap_or(defaults.compile_threads),
            code_cache_budget: self.cache_budget.unwrap_or(defaults.code_cache_budget),
            eviction_policy: self.eviction.unwrap_or(defaults.eviction_policy),
            ..defaults
        }
    }

    /// Instantiates the selected inliner.
    pub fn make_inliner(&self) -> Result<Box<dyn Inliner>, String> {
        Ok(match self.inliner.as_str() {
            "incremental" => Box::new(IncrementalInliner::new()),
            "greedy" => Box::new(GreedyInliner::new()),
            "c2" => Box::new(C2Inliner::new()),
            "none" => Box::new(NoInline),
            other => return Err(format!("unknown inliner `{other}`")),
        })
    }

    /// The warmup snapshots these options name: the one to load
    /// (`--snapshot-in`), the replicas to merge (`--snapshot-merge`) and
    /// the one to write (`--snapshot-out`).
    pub fn snapshots(&self) -> (Option<SnapshotIo>, Vec<SnapshotIo>, Option<SnapshotIo>) {
        let io = |path: &String| SnapshotIo::from(path.as_str());
        (
            self.snapshot_in.as_ref().map(io),
            self.snapshot_merge.iter().map(io).collect(),
            self.snapshot_out.as_ref().map(io),
        )
    }

    /// Turns these options into `session`'s set-up: the inliner, the
    /// [`VmConfig`] of [`CommonOpts::vm_config`], the warmup snapshots and
    /// the trace destination. Call [`TraceOut::finish`] once the session
    /// has run.
    pub fn session<'p, W>(
        &self,
        session: Session<'p, W>,
        hotness_threshold: u64,
        deopt_default: bool,
    ) -> Result<(Session<'p, W>, TraceOut), String> {
        let (snapshot_in, replicas, snapshot_out) = self.snapshots();
        let mut session = session
            .inliner(self.make_inliner()?)
            .config(self.vm_config(hotness_threshold, deopt_default))
            .snapshot_merge(replicas);
        if let Some(io) = snapshot_in {
            session = session.snapshot_in(io);
        }
        if let Some(io) = snapshot_out {
            session = session.snapshot_out(io);
        }
        let trace = self.trace_out()?;
        if let Some(sink) = trace.sink() {
            session = session.trace(sink);
        }
        Ok((session, trace))
    }

    /// Opens the trace destination these options describe: JSONL into the
    /// file of `--trace-json FILE`, else into stderr for `--trace`, else
    /// none. Call [`TraceOut::finish`] after the run to flush.
    pub fn trace_out(&self) -> Result<TraceOut, String> {
        let out: Box<dyn Write + Send> = match &self.trace_json {
            Some(path) => {
                let f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
                Box::new(BufWriter::new(f))
            }
            None if self.trace => Box::new(LineWriter::new(std::io::stderr())),
            None => return Ok(TraceOut::default()),
        };
        Ok(TraceOut {
            sink: Some(Arc::new(JsonlSink::new(out))),
            path: self.trace_json.clone(),
        })
    }
}

/// An open trace destination: hand [`TraceOut::sink`] to the session,
/// then [`TraceOut::finish`] to flush once the run completes. `--trace` and
/// `--trace-json` write the same bytes, one [`CompileEvent::to_json`] line
/// per event.
///
/// [`CompileEvent::to_json`]: incline_trace::CompileEvent::to_json
#[derive(Default)]
pub struct TraceOut {
    sink: Option<Arc<JsonlSink<Box<dyn Write + Send>>>>,
    /// The file of `--trace-json`; `None` when the trace goes to stderr.
    path: Option<String>,
}

impl TraceOut {
    /// The sink to install on the session, if any tracing was requested.
    pub fn sink(&self) -> Option<Arc<dyn TraceSink>> {
        self.sink.clone().map(|sink| sink as Arc<dyn TraceSink>)
    }

    /// Flushes the trace. Call after the session has finished (and dropped
    /// its sink handle).
    pub fn finish(self) -> Result<(), String> {
        let Some(sink) = self.sink else {
            return Ok(());
        };
        let owned = Arc::try_unwrap(sink).map_err(|_| "trace sink still shared".to_string())?;
        let dest = self.path.as_deref().unwrap_or("stderr");
        owned
            .into_inner()
            .flush()
            .map_err(|e| format!("{dest}: {e}"))?;
        if let Some(path) = self.path {
            eprintln!("trace written to {path}");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_match_a_bare_invocation() {
        let o = CommonOpts::parse(&args(&["file.ir"])).unwrap();
        assert_eq!(o.inliner, "incremental");
        assert!(!o.trace && !o.no_deopt && !o.pipelined);
        assert!(o.trace_json.is_none() && o.snapshot_in.is_none() && o.snapshot_out.is_none());
        let c = o.vm_config(5, true);
        assert_eq!(c.hotness_threshold, 5);
        assert!(c.deopt);
    }

    #[test]
    fn every_shared_flag_parses() {
        let o = CommonOpts::parse(&args(&[
            "--inliner",
            "greedy",
            "--trace",
            "--no-deopt",
            "--snapshot-in",
            "warm.jsonl",
            "--snapshot-out",
            "next.jsonl",
            "--compile-threads",
            "4",
            "--pipelined",
            "--cache-budget",
            "4096",
            "--eviction",
            "lru",
            "--icache-capacity",
            "1024",
            "--icache-scale",
            "2048",
            "--no-trial-cache",
        ]))
        .unwrap();
        assert_eq!(o.inliner, "greedy");
        assert_eq!(o.snapshot_in.as_deref(), Some("warm.jsonl"));
        assert_eq!(o.snapshot_out.as_deref(), Some("next.jsonl"));
        let c = o.vm_config(4, true);
        assert!(!c.deopt, "--no-deopt wins over the subcommand default");
        assert!(!c.trial_cache, "--no-trial-cache must disable the memo");
        assert_eq!(c.compile_threads, 4);
        assert_eq!(c.install_policy, incline_vm::InstallPolicy::Safepoint);
        assert_eq!(c.code_cache_budget, 4096);
        assert_eq!(c.cost.icache_capacity, 1024);
        assert_eq!(c.cost.icache_scale, 2048);
        assert!(o.make_inliner().is_ok());
    }

    #[test]
    fn snapshot_merge_collects_every_occurrence() {
        let o = CommonOpts::parse(&args(&[
            "--snapshot-merge",
            "a.jsonl",
            "--snapshot-merge",
            "b.jsonl",
            "--snapshot-merge",
            "c.jsonl",
        ]))
        .unwrap();
        assert_eq!(o.snapshot_merge, vec!["a.jsonl", "b.jsonl", "c.jsonl"]);
        assert!(o.snapshot_in.is_none());
    }

    #[test]
    fn snapshot_in_and_merge_are_mutually_exclusive() {
        let err = CommonOpts::parse(&args(&[
            "--snapshot-in",
            "warm.jsonl",
            "--snapshot-merge",
            "a.jsonl",
        ]))
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "got: {err}");
    }

    #[test]
    fn bad_values_are_reported_not_panicked() {
        assert!(CommonOpts::parse(&args(&["--cache-budget", "wat"])).is_err());
        assert!(CommonOpts::parse(&args(&["--compile-threads", "x"])).is_err());
        assert!(CommonOpts::parse(&args(&["--eviction", "nope"])).is_err());
        let o = CommonOpts::parse(&args(&["--inliner", "nope"])).unwrap();
        assert!(o.make_inliner().is_err());
    }
}
