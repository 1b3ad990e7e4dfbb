//! Per-layer probes: each times calls into one layer's public functions,
//! from outside, on the same programs the workloads run.
//!
//! The probes do not depend on which workload the traced run is for, so
//! every traced run reports every per-layer metric. Each timing is the
//! minimum of [`REPEATS`] repeats of a fixed amount of work; each ratio is
//! between two such minima taken alternately, and its base is reported
//! too. Metric names use the crate and module names; `metrics::PER_LAYER`
//! lists them with units, README.md says which end-to-end metric each
//! should move.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use incline_bench::Config;
use incline_ir::{
    parse, print, verify, BlockId, CallSiteId, ClassId, Graph, MethodId, Program, Rng64,
};
use incline_opt as opt;
use incline_profile::ProfileTable;
use incline_trace::CompileEvent;
use incline_vm::{
    BenchSpec, CollectingSink, CompileCx, JsonlSink, Machine, MergePolicy, NullSink, RunSession,
    Snapshot, TraceSink, TrialCache, Value,
};
use incline_workloads::all_benchmarks;
use incline_workloads::generator::{generate, GenConfig};

use crate::oracle::Oracle;
use crate::spans::Recorder;
use crate::stats::Summary;
use crate::workloads::{Item, Kind, Prepared, DEFAULT_SEED, GENERATED};

/// Repeats behind every reported minimum. Per-layer numbers gate nothing,
/// and every traced run pays for every probe, so two have to do.
const REPEATS: usize = 2;
/// Calls behind `profile.record_ns`.
const RECORD_CALLS: u64 = 1_000_000;
/// Iterations of the warm-start run behind `vm.snapshot.warm_start_ms`.
const WARM_START_ITERATIONS: usize = 4;

/// Per-layer values in report order.
pub type Values = Vec<(&'static str, f64)>;

fn ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// Minimum of [`REPEATS`] measurements.
fn min_of(mut measure: impl FnMut() -> f64) -> f64 {
    (0..REPEATS)
        .map(|_| measure())
        .fold(f64::INFINITY, f64::min)
}

/// Minimum wall time in ms of [`REPEATS`] calls of `f`.
fn min_ms(mut f: impl FnMut()) -> f64 {
    min_of(|| ms(&mut f))
}

/// Minimum pass time of each variant, the variants taken alternately so
/// slow drift of the host hits all of them alike.
fn alternate_min_ms(variants: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; variants.len()];
    for _ in 0..REPEATS {
        for (b, v) in best.iter_mut().zip(variants.iter_mut()) {
            *b = b.min(ms(&mut **v));
        }
    }
    best
}

fn one_pass(p: &Prepared) {
    std::hint::black_box(p.pass(&mut Recorder::off(), false));
}

/// A sink that stamps each event with the time it arrived.
#[derive(Default)]
struct TimestampSink {
    events: Mutex<Vec<(Instant, CompileEvent)>>,
}

impl TraceSink for TimestampSink {
    fn emit(&self, event: CompileEvent) {
        self.events
            .lock()
            .expect("sink lock")
            .push((Instant::now(), event));
    }
}

/// Runs every probe. `compile_only`, `server_mix` and `suite_cold` are the
/// set-up workloads the probes borrow their programs, warmed profiles and
/// scenario from.
///
/// # Errors
///
/// A set-up error of one of the borrowed workloads.
pub fn probe(oracle: &Oracle) -> Result<Values, String> {
    let mut v = Values::new();
    let compile_only = Prepared::setup(Kind::CompileOnly, DEFAULT_SEED, oracle)?;
    let items = &compile_only.items;

    workloads(&mut v);
    ir(items, &mut v);
    let machines = warmed_machines(items);
    let graphs = opt_inputs(items, &machines);
    opt_pipeline(items, &graphs, &mut v);
    let direct_ms = core(items, &mut v);
    baselines(items, &mut v);
    broker_and_trials(&compile_only, direct_ms, &mut v);
    execution_tiers(oracle, &mut v)?;
    machine_new(items, &mut v);
    profile(items, &mut v);
    cache_and_server(oracle, &mut v)?;
    snapshot(items, &machines, &mut v);
    drop(machines);
    deopt(oracle, &mut v)?;
    trace(&compile_only, &mut v);
    Ok(v)
}

fn workloads(v: &mut Values) {
    v.push((
        "workloads.build_ms",
        min_ms(|| drop(std::hint::black_box(all_benchmarks()))),
    ));
    v.push((
        "workloads.generate_ms",
        min_ms(|| {
            for i in 0..GENERATED {
                std::hint::black_box(generate(DEFAULT_SEED + i, GenConfig::hardened()));
            }
        }),
    ));
}

fn ir(items: &[Item], v: &mut Values) {
    let texts: Vec<String> = items
        .iter()
        .map(|i| print::program_str(&i.workload.program))
        .collect();
    let kb = texts.iter().map(String::len).sum::<usize>() as f64 / 1024.0;
    let print_ms = min_ms(|| {
        for i in items {
            std::hint::black_box(print::program_str(&i.workload.program));
        }
    });
    let parse_ms = min_ms(|| {
        for t in &texts {
            std::hint::black_box(parse::parse_program(t).expect("printed programs parse"));
        }
    });
    v.push(("ir.text_kb", kb));
    v.push(("ir.print_ns_per_kb", print_ms * 1e6 / kb));
    v.push(("ir.parse_ns_per_kb", parse_ms * 1e6 / kb));

    let insts: usize = items
        .iter()
        .flat_map(|i| {
            i.workload
                .program
                .method_ids()
                .map(|m| i.workload.program.method(m).graph.size())
        })
        .sum();
    let verify_ms = min_ms(|| {
        for i in items {
            let p = &i.workload.program;
            for m in p.method_ids() {
                verify::verify(p, p.method(m)).expect("workload methods verify");
            }
        }
    });
    v.push(("ir.insts", insts as f64));
    v.push(("ir.verify_ns_per_inst", verify_ms * 1e6 / insts as f64));
}

/// One machine per program after its default-iteration JIT run — what
/// `suite_cold` leaves behind. Source of compiled graphs and snapshots.
fn warmed_machines(items: &[Item]) -> Vec<Machine<'_>> {
    let config = Prepared::jit_config();
    items
        .iter()
        .map(|item| {
            let w = &item.workload;
            let mut vm = Machine::new(&w.program, Config::paper().build(), config);
            for _ in 0..w.iterations {
                vm.run(w.entry, vec![Value::Int(w.input)])
                    .expect("suite programs run");
            }
            vm
        })
        .collect()
}

/// Every method body plus every installed graph, tagged with its program.
fn opt_inputs(items: &[Item], machines: &[Machine<'_>]) -> Vec<(usize, Graph)> {
    let mut graphs = Vec::new();
    for (i, (item, vm)) in items.iter().zip(machines).enumerate() {
        let p = &item.workload.program;
        graphs.extend(p.method_ids().map(|m| (i, p.method(m).graph.clone())));
        let installed = vm.compiled_methods();
        graphs.extend(
            installed
                .iter()
                .filter_map(|&m| vm.compiled_graph(m))
                .map(|g| (i, g.clone())),
        );
    }
    graphs
}

fn opt_pipeline(items: &[Item], graphs: &[(usize, Graph)], v: &mut Values) {
    // Clones are made outside the timed region: a pass is timed on its own.
    let on_clones = |pass: &mut dyn FnMut(&Program, &mut Graph)| {
        let mut best = (f64::INFINITY, 0);
        for _ in 0..REPEATS {
            let mut clones = graphs.to_vec();
            let took = ms(|| {
                for (i, g) in &mut clones {
                    pass(&items[*i].workload.program, g);
                }
            });
            let nodes_out: usize = clones.iter().map(|(_, g)| g.size()).sum();
            best = (best.0.min(took), nodes_out);
        }
        best
    };
    let nodes_in: usize = graphs.iter().map(|(_, g)| g.size()).sum();
    let mut events = 0;
    let (pipeline_ms, nodes_out) = on_clones(&mut |p, g| events += opt::optimize(p, g).total());
    v.push(("opt.nodes_in", nodes_in as f64));
    v.push(("opt.nodes_out", nodes_out as f64));
    v.push(("opt.events", (events / REPEATS as u64) as f64));
    v.push((
        "opt.pipeline_ns_per_node",
        pipeline_ms * 1e6 / nodes_in as f64,
    ));
    type Pass = fn(&Program, &mut Graph) -> bool;
    let alone: [(&str, Pass); 7] = [
        ("opt.canonicalize_ms", |p, g| opt::canonicalize(p, g).any()),
        ("opt.gvn_ms", |_, g| opt::gvn(g).any()),
        ("opt.dce_ms", |_, g| opt::dce(g).any()),
        ("opt.rwelim_ms", |p, g| opt::rw_elim(p, g).any()),
        ("opt.condelim_ms", |_, g| opt::cond_elim(g).any()),
        ("opt.typeprop_ms", |p, g| opt::type_prop(p, g)),
        ("opt.peel_ms", |p, g| opt::peel_loops(p, g).any()),
    ];
    for (name, pass) in alone {
        let mut changed = 0u32;
        v.push((
            name,
            on_clones(&mut |p, g| changed += u32::from(pass(p, g))).0,
        ));
        std::hint::black_box(changed);
    }
}

/// Direct `Inliner::compile` of every hot method under `config`, with the
/// per-program trial cache a machine would give it. Returns total ms.
fn direct_compile(items: &[Item], config: &Config, sink: &dyn TraceSink) -> f64 {
    let inliner = config.build();
    ms(|| {
        for item in items {
            let trials = TrialCache::default();
            let cx = CompileCx::new(&item.workload.program, &item.warmed)
                .with_trace(sink)
                .with_trials(Some(&trials));
            for &m in &item.hot {
                std::hint::black_box(inliner.compile(m, &cx).expect("unmetered compile"));
            }
        }
    })
}

fn core(items: &[Item], v: &mut Values) -> f64 {
    let paper = Config::paper();
    let direct_ms = min_of(|| direct_compile(items, &paper, &NullSink));
    let sink = TimestampSink::default();
    direct_compile(items, &paper, &sink);
    let events = sink.events.into_inner().expect("sink lock");
    let count = |f: fn(&CompileEvent) -> bool| events.iter().filter(|(_, e)| f(e)).count() as f64;
    let mut round_ms = Vec::new();
    let mut started = None;
    for (at, e) in &events {
        match e {
            CompileEvent::RoundStart { .. } => started = Some(*at),
            CompileEvent::RoundEnd { .. } => {
                if let Some(s) = started.take() {
                    round_ms.push(at.duration_since(s).as_secs_f64() * 1e3);
                }
            }
            _ => {}
        }
    }
    v.push(("core.compile_ms", direct_ms));
    v.push((
        "core.rounds",
        count(|e| matches!(e, CompileEvent::RoundStart { .. })),
    ));
    v.push((
        "core.nodes_expanded",
        count(|e| matches!(e, CompileEvent::NodeExpanded { .. })),
    ));
    v.push((
        "core.inline_decisions",
        count(|e| matches!(e, CompileEvent::InlineDecision { .. })),
    ));
    v.push(("core.round_ms_p50", Summary::of(&round_ms).median));
    direct_ms
}

fn baselines(items: &[Item], v: &mut Values) {
    for (name, config) in [
        ("baselines.greedy_compile_ms", Config::Greedy),
        ("baselines.c2_compile_ms", Config::C2),
        ("vm.noinline_compile_ms", Config::NoInline),
    ] {
        v.push((name, min_of(|| direct_compile(items, &config, &NullSink))));
    }
}

fn broker_and_trials(compile_only: &Prepared, direct_ms: f64, v: &mut Values) {
    // One pass by hand, to time only the `compile_now` calls and to read
    // each machine's report before it is dropped.
    let (mut now_ms, mut wall_ns, mut hits, mut misses) = (f64::INFINITY, 0, 0, 0);
    for _ in 0..REPEATS {
        let (mut rep_ms, mut rep_ns) = (0.0, 0);
        (hits, misses) = (0, 0);
        for item in &compile_only.items {
            let w = &item.workload;
            let mut vm = Machine::new(&w.program, Config::paper().build(), compile_only.config);
            *vm.profiles_mut() = item.warmed.clone();
            rep_ms += ms(|| {
                for &m in &item.hot {
                    vm.compile_now(m);
                }
            });
            let report = vm.report();
            rep_ns += report.compile_wall_nanos;
            hits += report.trial_hits;
            misses += report.trial_misses;
        }
        if rep_ms < now_ms {
            (now_ms, wall_ns) = (rep_ms, rep_ns);
        }
    }
    let mut threads1 = compile_only.clone();
    threads1.config.compile_threads = 1;
    let mut trials_off = compile_only.clone();
    trials_off.config.trial_cache = false;
    let t = alternate_min_ms(&mut [
        &mut || one_pass(compile_only),
        &mut || one_pass(&threads1),
        &mut || one_pass(&trials_off),
    ]);
    v.push(("vm.broker.compile_now_ms", now_ms));
    v.push(("vm.broker.compile_wall_ms", wall_ns as f64 / 1e6));
    v.push(("vm.broker.ladder_overhead_ms", now_ms - direct_ms));
    v.push(("vm.broker.threads1_ratio", t[1] / t[0]));
    v.push(("vm.trials.hits", hits as f64));
    v.push(("vm.trials.misses", misses as f64));
    v.push((
        "vm.trials.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    ));
    v.push(("vm.trials.off_ratio", t[2] / t[0]));
}

/// Over the steady iterations: Σ over programs of the median iteration
/// time and of that iteration's exec cycles. Over the warm-up iterations:
/// their total time.
struct TierTimes {
    median_ms: f64,
    cycles: u64,
    other_ms: f64,
}

/// Runs every program of `p` on one machine each, timing every
/// `Machine::run`; an iteration during which the machine compiled or
/// bailed out is a warm-up iteration.
fn run_tier(p: &Prepared) -> TierTimes {
    let mut out = TierTimes {
        median_ms: 0.0,
        cycles: 0,
        other_ms: 0.0,
    };
    for item in &p.items {
        let w = &item.workload;
        let mut vm = Machine::new(&w.program, p.inliner(), p.config);
        let mut steady = Vec::new();
        for _ in 0..w.iterations {
            let before = (vm.compilations(), vm.bailouts());
            let t = Instant::now();
            let run = vm
                .run(w.entry, vec![Value::Int(w.input)])
                .expect("suite programs run");
            let took = t.elapsed().as_secs_f64() * 1e3;
            if (vm.compilations(), vm.bailouts()) == before {
                steady.push((took, run.exec_cycles));
            } else {
                out.other_ms += took;
            }
        }
        if !steady.is_empty() {
            steady.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (t, c) = steady[(steady.len() - 1) / 2];
            out.median_ms += t;
            out.cycles += c;
        }
    }
    out
}

fn execution_tiers(oracle: &Oracle, v: &mut Values) -> Result<(), String> {
    let interp = run_tier(&Prepared::setup(Kind::InterpOnly, DEFAULT_SEED, oracle)?);
    v.push(("vm.interp_iter_ms", interp.median_ms));
    v.push((
        "vm.interp_mvcycles_per_s",
        interp.cycles as f64 / 1e3 / interp.median_ms,
    ));
    let peak = run_tier(&Prepared::setup(Kind::PeakCompiled, DEFAULT_SEED, oracle)?);
    v.push(("vm.compiled_iter_ms", peak.median_ms));
    v.push((
        "vm.compiled_mvcycles_per_s",
        peak.cycles as f64 / 1e3 / peak.median_ms,
    ));
    v.push(("vm.warmup_iter_ms", peak.other_ms));
    Ok(())
}

fn machine_new(items: &[Item], v: &mut Values) {
    let config = Prepared::jit_config();
    let total_ms = min_ms(|| {
        for item in items {
            drop(std::hint::black_box(Machine::new(
                &item.workload.program,
                Config::paper().build(),
                config,
            )));
        }
    });
    v.push(("vm.machine_new_us", total_ms * 1e3 / items.len() as f64));
}

fn profile(items: &[Item], v: &mut Values) {
    let record_ms = min_ms(|| {
        let mut rng = Rng64::new(DEFAULT_SEED);
        let mut table = ProfileTable::new();
        for _ in 0..RECORD_CALLS / 3 {
            let method = MethodId::new(rng.gen_index(64));
            let site = CallSiteId {
                method,
                index: rng.gen_index(8) as u32,
            };
            table.record_block(method, BlockId::new(rng.gen_index(32)));
            table.record_callsite(site);
            table.record_receiver(site, ClassId::new(rng.gen_index(4)));
        }
        std::hint::black_box(table);
    });
    v.push((
        "profile.record_ns",
        record_ms * 1e6 / (RECORD_CALLS / 3 * 3) as f64,
    ));
    let clone_ms = min_ms(|| {
        for item in items {
            std::hint::black_box(item.warmed.clone());
        }
    });
    v.push(("profile.clone_us", clone_ms * 1e3));
    let merge_ms = min_of(|| {
        let mut targets: Vec<ProfileTable> = items.iter().map(|i| i.warmed.clone()).collect();
        ms(|| {
            for (t, item) in targets.iter_mut().zip(items) {
                t.merge(&item.warmed);
            }
        })
    });
    v.push(("profile.merge_us", merge_ms * 1e3));
}

fn cache_and_server(oracle: &Oracle, v: &mut Values) -> Result<(), String> {
    let bounded = Prepared::setup(Kind::ServerMix, DEFAULT_SEED, oracle)?;
    let mut unbounded = bounded.clone();
    unbounded.config.code_cache_budget = 0;
    let t = alternate_min_ms(&mut [&mut || one_pass(&bounded), &mut || one_pass(&unbounded)]);
    let server = bounded.server.as_ref().expect("server_mix has a scenario");
    let r = bounded
        .serve(server)
        .ok_or("standard server scenario did not serve")?;
    v.push(("vm.cache.evictions", r.cache.evictions as f64));
    v.push(("vm.cache.rejections", r.cache.admission_rejections as f64));
    v.push(("vm.cache.re_tiered", r.cache.re_tiered as f64));
    v.push(("vm.cache.bounded_ratio", t[0] / t[1]));
    v.push(("vm.server.latency_p50_vcycles", r.latency.p50 as f64));
    v.push(("vm.server.latency_p99_vcycles", r.latency.p99 as f64));
    v.push(("vm.server.stall_p99_vcycles", r.stall.p99 as f64));
    v.push(("vm.server.compilations", r.compilations as f64));
    Ok(())
}

fn snapshot(items: &[Item], machines: &[Machine<'_>], v: &mut Values) {
    let snaps: Vec<Snapshot> = machines.iter().map(Machine::snapshot).collect();
    let bytes: Vec<Vec<u8>> = snaps.iter().map(Snapshot::to_bytes).collect();
    // Three replicas that really differ: the end-of-run snapshot with its
    // profile merged into itself once and twice (counts ×2, ×3).
    let replicas: Vec<[Snapshot; 3]> = snaps
        .iter()
        .map(|s| {
            let mut table = s.profile_table();
            let grown = |t: &mut ProfileTable| {
                t.merge(&s.profile_table());
                Snapshot::capture(s.fingerprint, t, &s.decisions)
            };
            [s.clone(), grown(&mut table), grown(&mut table)]
        })
        .collect();
    let encode_ms = min_ms(|| {
        for s in &snaps {
            std::hint::black_box(s.to_bytes());
        }
    });
    let decode_ms = min_ms(|| {
        for b in &bytes {
            std::hint::black_box(Snapshot::from_bytes(b).expect("own snapshots decode"));
        }
    });
    let merge_ms = min_ms(|| {
        for r in &replicas {
            std::hint::black_box(
                Snapshot::merge(r, &MergePolicy::default()).expect("replicas merge"),
            );
        }
    });
    let config = Prepared::jit_config();
    let replay_ms = min_ms(|| {
        for (item, s) in items.iter().zip(&snaps) {
            let mut vm = Machine::new(&item.workload.program, Config::paper().build(), config);
            vm.apply_snapshot(s).expect("own snapshot applies");
            std::hint::black_box(vm.installed_bytes());
        }
    });
    let warm_ms = min_ms(|| {
        for (item, b) in items.iter().zip(&bytes) {
            let w = &item.workload;
            let spec = BenchSpec {
                entry: w.entry,
                args: vec![Value::Int(w.input)],
                iterations: WARM_START_ITERATIONS,
            };
            let r = RunSession::new(&w.program, spec)
                .inliner(Config::paper().build())
                .config(config)
                .snapshot_in(b.clone())
                .run();
            std::hint::black_box(r.expect("warm-started programs run"));
        }
    });
    v.push((
        "vm.snapshot.bytes",
        bytes.iter().map(Vec::len).sum::<usize>() as f64,
    ));
    v.push(("vm.snapshot.encode_us", encode_ms * 1e3));
    v.push(("vm.snapshot.decode_us", decode_ms * 1e3));
    v.push(("vm.snapshot.merge3_us", merge_ms * 1e3));
    v.push(("vm.snapshot.eager_replay_ms", replay_ms));
    v.push(("vm.snapshot.warm_start_ms", warm_ms));
}

fn deopt(oracle: &Oracle, v: &mut Values) -> Result<(), String> {
    let mut p = Prepared::setup(Kind::SuiteCold, DEFAULT_SEED, oracle)?;
    p.config.deopt = true;
    let (mut deopts, mut recompiles, mut pinned, mut total) = (0, 0, 0, 0);
    for item in &p.items {
        let b = p
            .run_session(item)
            .map_err(|e| format!("{}: {e}", item.workload.name))?
            .bailouts;
        deopts += b.deopts;
        recompiles += b.recompiles;
        pinned += b.pinned;
        total += b.total();
    }
    v.push(("vm.deopt.deopts", deopts as f64));
    v.push(("vm.deopt.recompiles", recompiles as f64));
    v.push(("vm.deopt.pinned", pinned as f64));
    v.push(("vm.bailouts.total", total as f64));
    Ok(())
}

fn trace(compile_only: &Prepared, v: &mut Values) {
    let with_sink = |make: fn() -> Arc<dyn TraceSink>| {
        let mut p = compile_only.clone();
        move || {
            // A fresh sink per pass: a sink that keeps growing would time
            // its reallocation, not its emit.
            p.sink = Some(make());
            one_pass(&p);
        }
    };
    let t = alternate_min_ms(&mut [
        &mut || one_pass(compile_only),
        &mut with_sink(|| Arc::new(NullSink)),
        &mut with_sink(|| Arc::new(CollectingSink::new())),
        &mut with_sink(|| Arc::new(JsonlSink::new(Vec::<u8>::new()))),
    ]);
    let collecting = Arc::new(CollectingSink::new());
    let mut p = compile_only.clone();
    p.sink = Some(collecting.clone());
    p.pass(&mut Recorder::off(), false);
    let events = collecting.take();
    let count = events.len();
    let jsonl = JsonlSink::new(Vec::<u8>::new());
    let replay_ms = ms(|| {
        for e in events {
            jsonl.emit(e);
        }
    });
    v.push(("trace.events", count as f64));
    v.push(("trace.jsonl_bytes", jsonl.into_inner().len() as f64));
    v.push((
        "trace.jsonl_ns_per_event",
        replay_ms * 1e6 / count.max(1) as f64,
    ));
    v.push(("trace.null_ratio", t[1] / t[0]));
    v.push(("trace.collecting_ratio", t[2] / t[0]));
    v.push(("trace.jsonl_ratio", t[3] / t[0]));
}
