//! The `incline` command-line tool: parse, verify, optimize, compile, run
//! and explain programs written in the textual IR format. `incline help`
//! prints the usage text, rendered from the flag tables below.

use std::process::ExitCode;

use incline::cli::{
    check_flags, flag, opt_value, usage_flags, CommonOpts, Flag, INLINER, TRACE, TRACE_JSON,
};
use incline::ir::MethodId;
use incline::prelude::*;

/// A subcommand: its name, its operand as the usage text shows it, the
/// flags of its own, whether it also takes the COMMON surface, and its
/// entry point.
type Subcommand = (
    &'static str,
    &'static str,
    &'static [Flag],
    bool,
    fn(&[String]) -> Result<(), String>,
);

const ENTRY: Flag = ("--entry", Some("NAME"));
const INPUT: Flag = ("--input", Some("N"));
const OPTIMIZE: Flag = ("--optimize", None);

const SUBCOMMANDS: &[Subcommand] = &[
    ("print", "<file.ir>", &[OPTIMIZE], false, cmd_print),
    (
        "run",
        "<file.ir>",
        &[ENTRY, INPUT, ("--jit", None)],
        true,
        cmd_run,
    ),
    (
        "compile",
        "<file.ir>",
        &[
            ENTRY,
            INPUT,
            INLINER,
            ("--explain", None),
            TRACE,
            TRACE_JSON,
        ],
        false,
        cmd_compile,
    ),
    ("bench", "<benchmark-name>", &[INPUT], true, cmd_bench),
    (
        "server",
        "",
        &[
            ("--tenants", Some("N")),
            ("--seed", Some("N")),
            ("--requests", Some("N")),
        ],
        true,
        cmd_server,
    ),
    ("dot", "<file.ir>", &[ENTRY, OPTIMIZE], false, cmd_dot),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let subcommand = SUBCOMMANDS.iter().find(|(name, ..)| name == cmd);
    let result = match (subcommand, cmd.as_str()) {
        (Some((_, _, own, common, run)), _) => {
            check_flags(rest, own, *common).and_then(|()| run(rest))
        }
        (None, "list-benchmarks") => {
            for w in incline::workloads::all_benchmarks() {
                println!("{:<14} {}", w.name, w.suite.label());
            }
            for w in incline::workloads::extra_benchmarks() {
                println!("{:<14} extra", w.name);
            }
            Ok(())
        }
        (None, "--help" | "-h" | "help") => {
            println!("{}", usage());
            Ok(())
        }
        (None, other) => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The usage text: the synopsis of every subcommand and the COMMON block,
/// rendered from the flag tables, then the notes.
fn usage() -> String {
    let mut text = String::from(
        "incline — optimization-driven incremental inline substitution (CGO'19)\n\nUSAGE:\n",
    );
    for (name, operand, own, common, _) in SUBCOMMANDS {
        let mut head = format!("  incline {name:<7} ");
        if !operand.is_empty() {
            head += &format!("{operand} ");
        }
        let mut flags = usage_flags(own, 78usize.saturating_sub(head.len()));
        if *common {
            flags.last_mut().expect("one line").push_str(" [COMMON]");
        }
        let indent = format!("\n{:1$}", "", head.len());
        text.push_str(&format!("{head}{}\n", flags.join(&indent)));
    }
    text.push_str("  incline list-benchmarks\n\nCOMMON (identical across run, bench, server):\n");
    for line in usage_flags(CommonOpts::FLAGS, 76) {
        text.push_str(&format!("  {line}\n"));
    }
    text + NOTES
}

const NOTES: &str = "
A flag the subcommand does not list above is an error.
Inliners: incremental (default), greedy, c2, none.
Server: a seeded multi-tenant serving simulation (bursty arrivals, per-tenant
phase flips) printing request-latency and mutator-stall tails per tenant, for
at most 1024 tenants.
Tracing: --trace streams compile events to stderr as JSONL, one line per event;
--trace-json FILE writes the same lines to FILE.
Deoptimization is on by default for run/bench: hot typeswitches may speculate
with uncommon traps, deoptimize, and recompile. --no-deopt restricts compiled
code to the always-correct virtual fallback.
Broker: every compilation runs on the one host thread. --pipelined installs
at safepoints while the mutator keeps interpreting; --compile-threads N is
the number of modelled workers compiling beside it in virtual time (0, the
default: the mutator pays every compile cycle as stall).
--no-trial-cache disables deep-inlining-trial memoization (results are
byte-identical either way; the cache only speeds compilation up).
Code cache: --cache-budget BYTES bounds installed code (0 = unbounded,
the default); --eviction picks the victim policy (lru, hotness,
cost-benefit). --icache-capacity / --icache-scale tune the cost model's
instruction-cache pressure curve.
Snapshots: --snapshot-out FILE persists profiles + the compiled methods after
the run; --snapshot-in FILE replays them before the first iteration
(those methods are recompiled up front, in order). --snapshot-merge FILE
(repeatable, exclusive with --snapshot-in) merges N divergent replica snapshots
deterministically: profile histograms union with summed counts, the compiled
methods union, and methods the merged profile no longer supports age out. Corrupt or stale snapshots (and
replicas) fall back to a cold start, counted in the compilation report.";

fn load(path: &str) -> Result<Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let program = incline::ir::parse::parse_program(&src).map_err(|e| format!("{path}: {e}"))?;
    for m in program.method_ids() {
        incline::ir::verify::verify(&program, program.method(m))
            .map_err(|e| format!("{path}: method `{}`: {e}", program.method(m).name))?;
    }
    Ok(program)
}

fn entry_of(program: &Program, args: &[String]) -> Result<MethodId, String> {
    let name = opt_value(args, "--entry").unwrap_or("main");
    program
        .function_by_name(name)
        .ok_or_else(|| format!("no function `{name}`"))
}

/// The argument list `run` and `compile` call the entry with: nothing for
/// `()`, `--input` (default 10) for `(int)`. The command line can spell no
/// other signature.
fn entry_args(program: &Program, entry: MethodId, args: &[String]) -> Result<Vec<Value>, String> {
    let input: i64 = opt_value(args, "--input")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("--input: {e}"))?;
    let method = program.method(entry);
    match method.params.as_slice() {
        [] => Ok(vec![]),
        [Type::Int] => Ok(vec![Value::Int(input)]),
        params => {
            let params: Vec<String> = params.iter().map(Type::to_string).collect();
            Err(format!(
                "entry `{}` takes ({}); only `()` and `(int)` entries can be run from the command line",
                method.name,
                params.join(", ")
            ))
        }
    }
}

fn print_snapshot_stats(stats: &SnapshotStats) {
    if *stats == SnapshotStats::default() {
        return;
    }
    println!(
        "snapshot: {} loaded, {} fallbacks, {} replayed compiles, {} seeded methods, \
         {} written, {} write failures, {} merged, {} aged out, {} poisoned",
        stats.loaded,
        stats.fallbacks,
        stats.replayed_compiles,
        stats.seeded_methods,
        stats.written,
        stats.write_failures,
        stats.merged,
        stats.aged_out,
        stats.poisoned
    );
}

fn cmd_print(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing <file.ir>")?;
    let mut program = load(path)?;
    if flag(args, "--optimize") {
        let snapshot = program.clone();
        for m in snapshot.method_ids() {
            let mut g = snapshot.method(m).graph.clone();
            let stats = incline::opt::optimize(&snapshot, &mut g);
            if stats.any() {
                eprintln!("# {}: {:?}", snapshot.method(m).name, stats);
            }
            program.define_method(m, g);
        }
    }
    print!("{}", incline::ir::print::program_str(&program));
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing <file.ir>")?;
    let opts = CommonOpts::parse(args)?;
    let program = load(path)?;
    let entry = entry_of(&program, args)?;
    let entry_args = entry_args(&program, entry, args)?;
    let jit = flag(args, "--jit");
    let config = VmConfig {
        jit,
        ..opts.vm_config(5, true)
    };
    let mut vm = Machine::new(&program, opts.make_inliner()?, config);
    let trace = opts.trace_out()?;
    if let Some(sink) = trace.sink() {
        vm.set_trace_sink(sink);
    }
    let (snapshot_in, replicas, snapshot_out) = opts.snapshots();
    vm.warm_from(snapshot_in.as_ref(), &replicas);
    let runs = if jit { 8 } else { 1 };
    let mut last = None;
    for _ in 0..runs {
        last = Some(
            vm.run(entry, entry_args.clone())
                .map_err(|e| e.to_string())?,
        );
    }
    if let Some(io) = &snapshot_out {
        vm.persist_to(io);
    }
    let out = last.expect("ran at least once");
    print!("{}", out.output);
    println!("=> {:?}", out.value);
    println!(
        "cycles: {} exec + {} compile; {} methods compiled, {} code bytes",
        out.exec_cycles,
        out.compile_cycles,
        vm.compilations(),
        vm.installed_bytes()
    );
    print_snapshot_stats(&vm.report().snapshot);
    // The machine holds the sink; `finish` needs the only handle.
    drop(vm);
    trace.finish()
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing <file.ir>")?;
    let opts = CommonOpts::parse(args)?;
    let program = load(path)?;
    let entry = entry_of(&program, args)?;
    let entry_args = entry_args(&program, entry, args)?;

    // Gather profiles by interpreting the entry once.
    let mut vm = Machine::new(
        &program,
        Box::new(NoInline),
        VmConfig {
            jit: false,
            ..VmConfig::default()
        },
    );
    vm.run(entry, entry_args)
        .map_err(|e| format!("profiling run: {e}"))?;
    let profiles = vm.profiles().clone();
    let explain = flag(args, "--explain");
    if explain && opts.inliner != "incremental" {
        return Err("--explain requires the incremental inliner".to_string());
    }
    let inliner = opts.make_inliner()?;
    let trace = opts.trace_out()?;
    // Collected, then forwarded: `--explain` prints each round's `RoundEnd`
    // line and call tree from the very events the trace receives.
    let events = CollectingSink::new();
    let out = inliner.compile(
        entry,
        &CompileCx::new(&program, &profiles).with_trace(&events),
    );
    let sink = trace.sink();
    if explain {
        println!("=== call tree per round ===");
    }
    for event in events.take() {
        match &event {
            CompileEvent::RoundEnd { .. } if explain => println!("{}", event.to_json()),
            CompileEvent::TreeSnapshot { text, .. } if explain => print!("{text}"),
            _ => {}
        }
        if let Some(sink) = &sink {
            sink.emit(event);
        }
    }
    drop(sink);
    trace.finish()?;
    let out = out.map_err(|e| e.to_string())?;
    if explain {
        println!(
            "\n=== compiled IR ===\n{}",
            incline::ir::print::graph_str(&program, &out.graph)
        );
        println!("stats: {:?}", out.stats);
    } else {
        println!("{}", incline::ir::print::graph_str(&program, &out.graph));
        eprintln!("stats: {:?}", out.stats);
    }
    Ok(())
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing <file.ir>")?;
    let program = load(path)?;
    let entry = entry_of(&program, args)?;
    let mut g = program.method(entry).graph.clone();
    if flag(args, "--optimize") {
        incline::opt::optimize(&program, &mut g);
    }
    print!(
        "{}",
        incline::ir::dot::graph_to_dot(&program, &g, &program.method(entry).name)
    );
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("missing <benchmark-name>")?;
    let opts = CommonOpts::parse(args)?;
    let w = incline::workloads::by_name(name)
        .ok_or_else(|| format!("unknown benchmark `{name}` (see `incline list-benchmarks`)"))?;
    let input: i64 = match opt_value(args, "--input") {
        Some(v) => v.parse().map_err(|e| format!("--input: {e}"))?,
        None => w.input,
    };
    let spec = BenchSpec {
        entry: w.entry,
        args: vec![Value::Int(input)],
        iterations: w.iterations,
    };
    let (session, trace) = opts.session(RunSession::new(&w.program, spec), 5, true)?;
    let r = session.run().map_err(|e| e.to_string())?;
    trace.finish()?;
    println!("benchmark: {} ({})", w.name, w.suite.label());
    println!("per-iteration cycles: {:?}", r.per_iteration);
    println!(
        "steady state: {:.0} ± {:.0} cycles; code {} bytes; {} compilations",
        r.steady_state, r.std_dev, r.installed_bytes, r.compilations
    );
    println!(
        "compile: {} cycles total, {} stalling the mutator",
        r.compile_cycles, r.stall_cycles
    );
    println!(
        "warmup: {} iterations ({} cycles) to within 5% of steady state",
        r.warmup_within(0.05),
        r.warmup_cycles_within(0.05)
    );
    println!("answer digest: {:#018x}", r.answer_digest());
    if r.bailouts.total() > 0 {
        println!("bailouts: {:?}", r.bailouts);
    }
    if r.bailouts.deopts > 0 {
        println!(
            "deopt: {} deopts, {} invalidations, {} recompiles, {} pinned",
            r.bailouts.deopts, r.bailouts.invalidations, r.bailouts.recompiles, r.bailouts.pinned
        );
    }
    if r.cache.evictions > 0 || r.cache.admission_rejections > 0 {
        println!(
            "cache: {} evictions, {} admission rejections, {} degraded admissions, \
             {} re-tiered, {} aged, high water {} bytes",
            r.cache.evictions,
            r.cache.admission_rejections,
            r.cache.degraded_admissions,
            r.cache.re_tiered,
            r.cache.aged,
            r.cache.high_water_bytes
        );
    }
    print_snapshot_stats(&r.snapshot);
    Ok(())
}

/// The most tenants `server` builds a mix of. Each tenant adds its own
/// classes and methods to the one shared program: 10^5 of them take half a
/// minute to build in a release build, and 2^32 never finish.
const MAX_TENANTS: usize = 1024;

fn cmd_server(args: &[String]) -> Result<(), String> {
    let opts = CommonOpts::parse(args)?;
    let tenants: usize = opt_value(args, "--tenants")
        .unwrap_or("6")
        .parse()
        .map_err(|e| format!("--tenants: {e}"))?;
    if tenants > MAX_TENANTS {
        return Err(format!(
            "--tenants {tenants} is over the limit of {MAX_TENANTS}"
        ));
    }
    let seed: u64 = opt_value(args, "--seed")
        .unwrap_or("23")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let requests: usize = opt_value(args, "--requests")
        .unwrap_or("600")
        .parse()
        .map_err(|e| format!("--requests: {e}"))?;
    let mix = incline::workloads::tenants::build(seed, tenants);
    let spec = ServerSpec {
        requests,
        ..ServerSpec::default()
    };
    let tenants = incline::bench::server::tenant_specs(&mix);
    let (session, trace) =
        opts.session(ServerSession::new(&mix.program, tenants, spec), 4, false)?;
    let report = session.serve().map_err(|e| e.to_string())?;
    trace.finish()?;
    println!(
        "server: {} requests over {} tenants (seed {seed}), {} cycles total",
        report.requests,
        report.tenants.len(),
        report.total_cycles
    );
    println!(
        "latency: p50 {} p99 {} p999 {} max {} (mean {:.0})",
        report.latency.p50,
        report.latency.p99,
        report.latency.p999,
        report.latency.max,
        report.latency.mean
    );
    println!(
        "stall:   p50 {} p99 {} p999 {} worst pause {}",
        report.stall.p50, report.stall.p99, report.stall.p999, report.stall.max
    );
    println!(
        "fairness {:.4}; max queue depth {}; {} compilations, {} code bytes",
        report.fairness, report.max_queue_depth, report.compilations, report.installed_bytes
    );
    if report.cache.evictions > 0 || report.cache.admission_rejections > 0 {
        println!(
            "cache: {} evictions, {} admission rejections, {} re-tiered, high water {} bytes",
            report.cache.evictions,
            report.cache.admission_rejections,
            report.cache.re_tiered,
            report.cache.high_water_bytes
        );
    }
    print_snapshot_stats(&report.snapshot);
    for t in &report.tenants {
        println!(
            "  {:<14} {:>4} requests ({} failed)  latency p50 {:>6} p99 {:>7} | stall p99 {:>6}",
            t.name, t.requests, t.failed, t.latency.p50, t.latency.p99, t.stall.p99
        );
    }
    Ok(())
}
