//! Identity oracle for the compile ladder: what every compilation of the
//! hot set produces, pinned in a checked-in table.
//!
//! For the 28 paper workloads plus `generate(23..27, GenConfig::hardened())`,
//! profiles are warmed by three interpreted iterations and every method
//! with hotness ≥ 5 is compiled by
//!
//! * the paper inliner with uncommon traps allowed (`paper+deopt`) and
//!   without (`paper`), the greedy and the C2 baseline — each through
//!   `Inliner::compile` under a private budget and trace sink —, and
//! * the broker's degraded rung (`degraded`: `Machine::compile_now` with a
//!   panic injected into every full-tier attempt),
//!
//! once under the default unlimited budget and once under [`TIGHT_FUEL`],
//! which makes part of the compilations bail. Per method the oracle hashes
//! `Graph::fingerprint()` of the produced graph's compacted form (what is
//! installed, with ids renumbered densely, so a pass whose output depends
//! on raw value numbering moves it), the `InlineStats`, the `OptStats` summed over the compilation's
//! `OptPassStats` events, `CompileFuel::spent()`, `work_nodes` and FNV-1a of
//! the compilation's JSONL trace; a bailed compilation hashes its error,
//! spend and trace.
//!
//! The checked-in table holds one row per (workload, mode, budget) with a
//! 32-bit digest per method. The unhashed lines always land in
//! `target/tmp/compile_identity.detail`, each with the fingerprint of the
//! produced graph over raw ids too (`graph=`: it moves whenever an edit
//! allocates ids in another order, and is not hashed); on a mismatch the actual table
//! lands in `target/tmp/compile_identity.actual` and the failure names the
//! first differing row and its methods. Diff the detail file against one
//! produced at the parent commit to see which observable moved. Copy the
//! actual table over `tests/compile_identity.table` only when the compile
//! ladder's output moved on purpose.
//!
//! A second test holds the premise of the call tree's convergence skip on
//! the same corpus: a pipeline run on a graph the previous run left
//! converged changes nothing, counts nothing, emits nothing, and spends
//! exactly what `optimize_converged` charges in its place.
//!
//! A third holds the premise of the pipeline's fresh-pass rule on the same
//! graphs, and on each body with its static calls inlined once: every
//! optimizer pass reaches its own fixpoint in one run, so a pass run again
//! on the graph it just changed counts nothing and leaves it as it is.
//!
//! A fourth holds that what the broker installs is already compact:
//! compacting it again moves neither its printed text nor its raw ids.

use std::fmt::Write as _;
use std::sync::Arc;

use incline::bench::{default_vm, Config};
use incline::ir::MethodId;
use incline::opt::OptStats;
use incline::prelude::*;
use incline::profile::ProfileTable;
use incline::snapshot::fnv1a;
use incline::workloads::{generate, GenConfig};

const TABLE: &str = include_str!("compile_identity.table");

/// Hotness at which `default_vm()` tiers a method up.
const HOT: u64 = 5;
/// Interpreted iterations that warm the profiles.
const WARM_ITERATIONS: usize = 3;
/// The limited budget: small enough that the larger roots run out during
/// their inlining rounds, large enough that the small ones finish.
const TIGHT_FUEL: u64 = 1_500;

const BUDGETS: [(&str, u64); 2] = [("inf", u64::MAX), ("tight", TIGHT_FUEL)];

fn warm(w: &Workload) -> (ProfileTable, Vec<MethodId>) {
    let config = VmConfig {
        jit: false,
        ..default_vm()
    };
    let mut vm = Machine::new(&w.program, Box::new(NoInline), config);
    for _ in 0..WARM_ITERATIONS {
        vm.run(w.entry, vec![Value::Int(w.input)])
            .unwrap_or_else(|e| panic!("{}: warm-up failed: {e}", w.name));
    }
    let profiles = vm.profiles().clone();
    let hot = w
        .program
        .method_ids()
        .filter(|&m| profiles.hotness(m) >= HOT)
        .collect();
    (profiles, hot)
}

fn opt_list(s: OptStats) -> String {
    format!(
        "{},{},{},{},{},{},{},{},{},{}",
        s.const_fold,
        s.strength_red,
        s.branch_prune,
        s.typecheck_fold,
        s.devirt,
        s.gvn,
        s.rw_elim,
        s.dce,
        s.blocks_merged,
        s.loops_peeled
    )
}

fn stats_list(s: &incline::vm::InlineStats) -> String {
    format!(
        "{},{},{},{},{},{}",
        s.inlined_calls,
        s.rounds,
        s.explored_nodes,
        s.final_size,
        s.opt_events,
        s.speculative_sites
    )
}

/// One direct `Inliner::compile` under a private budget and sink.
fn direct(
    w: &Workload,
    profiles: &ProfileTable,
    inliner: &dyn Inliner,
    speculation: Speculation,
    limit: u64,
    m: MethodId,
) -> (String, Option<u64>) {
    let fuel = if limit == u64::MAX {
        CompileFuel::unlimited()
    } else {
        CompileFuel::limited(limit)
    };
    let sink = CollectingSink::new();
    let cx = CompileCx::new(&w.program, profiles)
        .with_fuel(&fuel)
        .with_trace(&sink)
        .with_speculation(speculation);
    let result = inliner.compile(m, &cx);
    let events = sink.take();
    let mut opt = OptStats::new();
    let mut jsonl = String::new();
    for e in &events {
        if let CompileEvent::OptPassStats { stats, .. } = e {
            opt += *stats;
        }
        jsonl.push_str(&e.to_json());
        jsonl.push('\n');
    }
    let tail = format!(
        "opt={} spent={} trace={:016x}",
        opt_list(opt),
        fuel.spent(),
        fnv1a(jsonl.as_bytes())
    );
    match result {
        Ok(out) => {
            let mut installed = out.graph.clone();
            installed.compact();
            (
                format!(
                    "ok installed={:016x} stats={} work={} {tail}",
                    installed.fingerprint(),
                    stats_list(&out.stats),
                    out.work_nodes,
                ),
                Some(out.graph.fingerprint()),
            )
        }
        Err(e) => (format!("bail error={e:?} {tail}"), None),
    }
}

/// The degraded rung through the broker: a panic injected into every
/// full-tier attempt. Returns one line per hot method plus the machine's
/// totals (compile cycles, whole-run trace) under the pseudo-method `all`.
fn degraded(
    w: &Workload,
    profiles: &ProfileTable,
    hot: &[MethodId],
    limit: u64,
) -> Vec<(String, String, Option<u64>)> {
    let config = VmConfig {
        compile_fuel: limit,
        ..default_vm()
    };
    let sink = Arc::new(JsonlSink::new(Vec::new()));
    let handle: Arc<dyn TraceSink> = sink.clone();
    let mut vm = Machine::new(&w.program, Config::paper().build(), config);
    vm.set_trace_sink(handle);
    *vm.profiles_mut() = profiles.clone();
    let mut plan = FaultPlan::new();
    for id in 0..hot.len() as u64 {
        plan = plan.inject(id, FaultKind::PanicInCompile);
    }
    vm.set_fault_plan(plan);
    let mut lines = Vec::new();
    for &m in hot {
        let installed = vm.compile_now(m);
        let line = match vm.compiled_graph(m) {
            Some(g) if installed => {
                let stats = vm
                    .report()
                    .compile_log
                    .iter()
                    .rev()
                    .find(|(lm, _)| *lm == m)
                    .map(|(_, s)| stats_list(s))
                    .expect("an installed method is in the compile log");
                format!("ok installed={:016x} stats={stats}", g.fingerprint())
            }
            _ => "blacklisted".to_string(),
        };
        lines.push((format!("{m}"), line, None));
    }
    let totals = format!(
        "compile_cycles={} code_bytes={} bailouts={}",
        vm.total_compile_cycles(),
        vm.installed_bytes(),
        vm.bailouts().total()
    );
    drop(vm);
    let trace = Arc::try_unwrap(sink)
        .map_err(|_| "sink still shared")
        .expect("sink uniquely owned after the run")
        .into_inner();
    lines.push((
        "all".to_string(),
        format!("{totals} trace={:016x}", fnv1a(&trace)),
        None,
    ));
    lines
}

/// Rows and detail lines of one workload.
fn workload_rows(w: &Workload) -> (String, String) {
    let (profiles, hot) = warm(w);
    let with_deopt = Speculation { allow_deopt: true };
    let direct_modes: [(&str, Box<dyn Inliner>, Speculation); 4] = [
        ("paper+deopt", Config::paper().build(), with_deopt),
        ("paper", Config::paper().build(), Speculation::default()),
        ("greedy", Config::Greedy.build(), Speculation::default()),
        ("c2", Config::C2.build(), Speculation::default()),
    ];
    let mut table = String::new();
    let mut detail = String::new();
    let mut emit = |mode: &str, budget: &str, lines: Vec<(String, String, Option<u64>)>| {
        let _ = write!(table, "{} {mode} {budget}", w.name);
        for (method, line, raw) in lines {
            let _ = write!(table, " {method}={:08x}", fnv1a(line.as_bytes()) as u32);
            let _ = write!(detail, "{} {mode} {budget} {method}: {line}", w.name);
            let _ = match raw {
                Some(fp) => writeln!(detail, " graph={fp:016x}"),
                None => writeln!(detail),
            };
        }
        table.push('\n');
    };
    for (budget, limit) in BUDGETS {
        for (mode, inliner, speculation) in &direct_modes {
            let lines = hot
                .iter()
                .map(|&m| {
                    let (line, raw) =
                        direct(w, &profiles, inliner.as_ref(), *speculation, limit, m);
                    (format!("{m}"), line, raw)
                })
                .collect();
            emit(mode, budget, lines);
        }
        emit("degraded", budget, degraded(w, &profiles, &hot, limit));
    }
    (table, detail)
}

fn corpus() -> Vec<Workload> {
    let workloads: Vec<Workload> = all_benchmarks()
        .into_iter()
        .chain((23..27).map(|seed| generate(seed, GenConfig::hardened())))
        .collect();
    assert_eq!(workloads.len(), 32, "28 paper workloads plus four draws");
    workloads
}

/// Every method body of `w` and every graph the paper configuration
/// installs for its hot set.
fn bodies_and_installed(w: &Workload) -> Vec<(String, Graph)> {
    let (profiles, hot) = warm(w);
    let mut graphs: Vec<(String, Graph)> = w
        .program
        .method_ids()
        .map(|m| (format!("{m} body"), w.program.method(m).graph.clone()))
        .collect();
    let mut vm = Machine::new(&w.program, Config::paper().build(), default_vm());
    *vm.profiles_mut() = profiles;
    for m in hot {
        if vm.compile_now(m) {
            let installed = vm.compiled_graph(m).expect("compile_now installed it");
            graphs.push((format!("{m} installed"), installed.clone()));
        }
    }
    graphs
}

/// `body` with each of its static calls of a normal method inlined once,
/// unoptimized: what the pipeline sees after an inlining round.
fn inlined_once(program: &Program, body: &Graph) -> Graph {
    use incline::ir::graph::{CallTarget, Op};
    use incline::ir::{inline::inline_call, MethodKind};

    let mut graph = body.clone();
    for (_, call) in body.callsites() {
        let Op::Call(info) = &graph.inst(call).op else {
            unreachable!("a callsite is a call")
        };
        let CallTarget::Static(callee) = info.target else {
            continue;
        };
        let callee = program.method(callee);
        // Behind a callee that never returns, the rest is unreachable.
        let site = graph.callsites().into_iter().find(|&(_, i)| i == call);
        if let (MethodKind::Normal, Some((block, _))) = (callee.kind, site) {
            inline_call(&mut graph, block, call, &callee.graph);
        }
    }
    graph
}

#[test]
fn a_pipeline_run_on_a_converged_graph_is_the_two_charges_of_the_skip() {
    use incline::opt::{optimize_converged, PipelineConfig, UNLIMITED_FUEL};
    use incline::trace::{optimize_with_trace, OptPhase};

    let config = PipelineConfig::default();
    let mut checked = 0;
    for w in &corpus() {
        for (what, mut graph) in bodies_and_installed(w) {
            let what = format!("{} {what}", w.name);
            // Run until a run says it left the graph at its fixpoint.
            let settled = (0..8).any(|_| {
                let (fuel, sink, phase) = (&UNLIMITED_FUEL, &NullSink, OptPhase::Round);
                optimize_with_trace(&w.program, &mut graph, config, fuel, sink, phase).converged
            });
            assert!(settled, "{what}: no run converged");

            // Then once more for real, beside the skip, under a budget that
            // lasts and under every budget that runs out on the way.
            let size = graph.size() as u64;
            for limit in [u64::MAX / 2, 2 * size, 2 * size - 1, size, size - 1, 0] {
                let before = graph.fingerprint();
                let (real_fuel, skip_fuel) =
                    (CompileFuel::limited(limit), CompileFuel::limited(limit));
                let sink = CollectingSink::new();
                let real = optimize_with_trace(
                    &w.program,
                    &mut graph,
                    config,
                    &real_fuel,
                    &sink,
                    OptPhase::Round,
                );
                let skip = optimize_converged(&graph, config, &skip_fuel);
                let what = format!("{what} limit={limit}");
                assert_eq!(graph.fingerprint(), before, "{what}: the graph moved");
                assert!(!real.stats.any(), "{what}: {:?}", real.stats);
                assert!(sink.take().is_empty(), "{what}: the run emitted events");
                assert_eq!(real, skip, "{what}: verdicts differ");
                assert_eq!(real_fuel.spent(), skip_fuel.spent(), "{what}: spend");
                assert_eq!(real.converged, limit >= 2 * size, "{what}");
            }
            checked += 1;
        }
    }
    assert!(checked > 400, "only {checked} graphs");
}

#[test]
fn every_pass_run_again_on_its_own_output_finds_nothing() {
    use incline::opt::{canonicalize, cond_elim, dce, gvn, rw_elim, type_prop};

    // The pipeline's passes in its order, each saying whether it counted
    // an event (type propagation: whether it narrowed a type).
    type Pass = fn(&Program, &mut Graph) -> bool;
    let passes: [(&str, Pass); 6] = [
        ("type_prop", type_prop),
        ("canonicalize", |p, g| canonicalize(p, g).any()),
        ("gvn", |_, g| gvn(g).any()),
        ("cond_elim", |_, g| cond_elim(g).any()),
        ("rw_elim", |p, g| rw_elim(p, g).any()),
        ("dce", |_, g| dce(g).any()),
    ];
    let mut fired = 0;
    for w in &corpus() {
        let graphs = bodies_and_installed(w)
            .into_iter()
            .flat_map(|(what, graph)| {
                let inlined = inlined_once(&w.program, &graph);
                [
                    (what.clone(), graph),
                    (format!("{what} inlined once"), inlined),
                ]
            });
        for (what, mut graph) in graphs {
            // Whole rounds in the pipeline's order until one counts nothing.
            for round in 0..16 {
                let mut counted = false;
                for (name, pass) in passes {
                    if !pass(&w.program, &mut graph) {
                        continue;
                    }
                    counted = true;
                    fired += 1;
                    let before = graph.fingerprint();
                    let what = format!("{} {what} round {round}: {name}", w.name);
                    assert!(
                        !pass(&w.program, &mut graph),
                        "{what} counted on its own output"
                    );
                    assert_eq!(graph.fingerprint(), before, "{what} moved its own output");
                }
                if !counted {
                    break;
                }
            }
        }
    }
    assert!(fired > 600, "only {fired} passes counted an event");
}

#[test]
fn every_installed_graph_is_already_compact() {
    use incline::ir::print::graph_str;

    let mut checked = 0;
    for w in &corpus() {
        for (what, installed) in bodies_and_installed(w) {
            if !what.ends_with("installed") {
                continue;
            }
            let mut again = installed.clone();
            again.compact();
            let what = format!("{} {what}", w.name);
            assert_eq!(
                graph_str(&w.program, &again),
                graph_str(&w.program, &installed),
                "{what}: compaction moved the printed text"
            );
            assert_eq!(
                again.fingerprint(),
                installed.fingerprint(),
                "{what}: compaction moved the raw ids"
            );
            checked += 1;
        }
    }
    assert!(checked > 100, "only {checked} installed graphs");
}

#[test]
fn compile_ladder_output_matches_the_checked_in_table() {
    let workloads = corpus();

    let mut actual = String::new();
    let mut detail = String::new();
    for w in &workloads {
        let (t, d) = workload_rows(w);
        actual.push_str(&t);
        detail.push_str(&d);
    }

    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let detail_path = tmp.join("compile_identity.detail");
    std::fs::write(&detail_path, &detail).expect("write the detail lines");
    if actual == TABLE {
        return;
    }
    let actual_path = tmp.join("compile_identity.actual");
    std::fs::write(&actual_path, &actual).expect("write the actual table");
    let expected: Vec<&str> = TABLE.lines().collect();
    let first = actual
        .lines()
        .enumerate()
        .find(|&(i, line)| expected.get(i) != Some(&line));
    let what = match first {
        Some((i, line)) => {
            let want = expected.get(i).copied().unwrap_or("<no such row>");
            let row: Vec<&str> = line.split(' ').take(3).collect();
            let moved: Vec<&str> = line
                .split(' ')
                .skip(3)
                .filter(|cell| !want.split(' ').any(|w| w == *cell))
                .collect();
            format!(
                "first differing row is #{i} `{}`, methods {moved:?}\n  expected: {want}\n    actual: {line}",
                row.join(" ")
            )
        }
        None => format!(
            "the table has {} rows, this run produced {}",
            expected.len(),
            actual.lines().count()
        ),
    };
    panic!(
        "the compile ladder's output moved: {what}\nactual table: {}\nunhashed lines: {}",
        actual_path.display(),
        detail_path.display()
    );
}
