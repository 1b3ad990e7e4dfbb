//! The conformance matrix: a configuration is a [`Row`] — the programs it
//! runs, an inliner, a `VmConfig`, a fault plan, a snapshot mode and the
//! twin configurations that must reproduce it — written as data in the
//! test it belongs to, and [`run`] checks every program of a row against
//! the reference evaluator (`reference.rs`), which shares no code with the
//! executor. Each program runs as a `RunSession` of `row.iterations`
//! repetitions, and
//!
//! * the last repetition's answer — value and output lines, or the trap —
//!   is the oracle's on the source program;
//! * under each twin configuration the whole `BenchResult`, the JSONL
//!   trace and the written snapshot are byte-identical;
//! * what the row turns on (faults, a cache budget, a snapshot) shows in
//!   some program's result, or the row would test nothing.
//!
//! A failure names the row and the program; a generated program is first
//! shrunk by `incline_workloads::shrink` to the smallest draw that fails.

use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, OnceLock};

use super::reference::{self, Answer};
use incline::ir::eval::TrapKind;
use incline::ir::Rng64;
use incline::prelude::*;
use incline::vm::{BenchError, BenchResult, ExecError};
use incline::workloads::{generate, shrink, GenConfig};
use Corpus::*;
use Faults::*;
use Snap::*;

/// How a row builds its compiler, once per session.
pub type MakeInliner = fn() -> Box<dyn Inliner>;

/// Every inliner and policy ablation: none, greedy, the C2 baseline, the
/// paper's, and its fixed-threshold, one-by-one and shallow-trial
/// ablations.
pub const INLINERS: [MakeInliner; 7] = [
    || Box::new(NoInline),
    || Box::new(GreedyInliner::new()),
    || Box::new(C2Inliner::new()),
    || Box::new(IncrementalInliner::new()),
    || ablation(PolicyConfig::fixed(1000, 3000), "fixed"),
    || ablation(PolicyConfig::one_by_one(0.005, 120.0), "one-by-one"),
    || ablation(PolicyConfig::shallow_trials(), "shallow-trials"),
];

fn ablation(config: PolicyConfig, name: &str) -> Box<dyn Inliner> {
    Box::new(IncrementalInliner::with_config(config).named(name))
}

/// The default configuration at hotness 2, so that methods compile in the
/// first repetitions.
pub fn hot() -> VmConfig {
    VmConfig {
        hotness_threshold: 2,
        ..VmConfig::default()
    }
}

/// `config` under each of `threads` modelled compile workers.
pub fn with_threads(config: VmConfig, threads: &[usize]) -> Vec<VmConfig> {
    let twin = |&compile_threads: &usize| VmConfig {
        compile_threads,
        ..config
    };
    threads.iter().map(twin).collect()
}

/// The programs a row runs; see [`Corpus::build`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Corpus {
    Named,
    Flip,
    Pressure,
    Generated,
    Heavier,
    Sampled,
    Optimized,
    Hardened,
    Ir,
}

/// The faults a row injects: none; `FaultPlan::seeded(0xFA17, 16, 0.5)`
/// (compiler panics, corrupt graphs, exhausted fuel); the first three
/// installs evicted as they land; the replayed decision of the entry
/// method poisoned.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Faults {
    Clean,
    Seeded,
    EvictStorm,
    PoisonEntry,
}

/// Where a row's warmup state comes from: nowhere, the snapshot a cold
/// session wrote, or the merge of cold sessions of 2, 3 and 4 repetitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Snap {
    Cold,
    Replay,
    Merge,
}

/// One program of a corpus, with the oracle's answer on its source.
struct Case {
    workload: Workload,
    /// The entry's argument; `None` when it takes none.
    input: Option<i64>,
    answer: Result<Answer, TrapKind>,
    /// How to draw the program again, if it was generated.
    seed: Option<(u64, GenConfig)>,
}

impl Corpus {
    fn cases(self) -> &'static [Case] {
        static CORPORA: [OnceLock<Vec<Case>>; 9] = [const { OnceLock::new() }; 9];
        CORPORA[self as usize].get_or_init(|| self.build())
    }

    /// The 30 named workloads at `input.min(8)`; `phase_change` at its full
    /// input, where the receiver flip traps mid-run; `cache_pressure` at
    /// `input.min(48)`, where its working set cycles; the generator's draws
    /// of seeds 0..40 at input 12 and of 100..115 with heavier bodies at 9;
    /// 24 draws with small bodies, seeds and inputs from two streams of one
    /// salt (0x1C4, and 0x0B7 for the one with every method optimized);
    /// the hardened preset's 0..200 at 9; and `tests/conformance/*.ir` at
    /// input 5, what no workload or draw has and a program per trap kind.
    fn build(self) -> Vec<Case> {
        let named = |name, most: i64| {
            let w = by_name(name).expect("a named workload");
            let input = w.input.min(most);
            vec![self.case(w, input, None)]
        };
        let drawn = |seeds: Range<u64>, config, input| -> Vec<Case> {
            let draw = |seed| self.case(generate(seed, config), input, Some((seed, config)));
            seeds.map(draw).collect()
        };
        let sampled = |salt, most| -> Vec<Case> {
            let small = GenConfig {
                functions: 5,
                ops_per_function: 12,
                ..GenConfig::default()
            };
            let (mut seeds, mut inputs) = (Rng64::new(salt), Rng64::new(salt));
            let mut draw = || {
                let (seed, input) = (seeds.next_u64(), inputs.gen_range(1, most));
                self.case(generate(seed, small), input, Some((seed, small)))
            };
            (0..24).map(|_| draw()).collect()
        };
        match self {
            Named => {
                let named = all_benchmarks().into_iter().chain(extra_benchmarks());
                let inputs = named.map(|w| (w.input.min(8), w));
                inputs.map(|(input, w)| self.case(w, input, None)).collect()
            }
            Flip => named("phase_change", i64::MAX),
            Pressure => named("cache_pressure", 48),
            Generated => drawn(0..40, GenConfig::default(), 12),
            Heavier => {
                let heavier = GenConfig {
                    functions: 8,
                    ops_per_function: 24,
                    loop_prob: 0.7,
                    branch_prob: 0.8,
                    ..GenConfig::default()
                };
                drawn(100..115, heavier, 9)
            }
            Sampled => sampled(0x1C4, 20),
            Optimized => sampled(0x0B7, 24),
            Hardened => drawn(0..200, GenConfig::hardened(), 9),
            Ir => {
                let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/conformance");
                let files = std::fs::read_dir(dir).expect("the .ir corpus");
                let mut paths: Vec<_> = files.map(|f| f.expect("a file").path()).collect();
                paths.sort();
                paths
                    .iter()
                    .map(|p| self.case(ir_program(p), 5, None))
                    .collect()
            }
        }
    }

    /// `workload` at `input` as a program of this corpus: answered by the
    /// oracle, then optimized if the corpus is.
    fn case(self, mut workload: Workload, input: i64, seed: Option<(u64, GenConfig)>) -> Case {
        let entry = workload.entry;
        let input = (workload.program.method(entry).params.len() == 1).then_some(input);
        let answer = reference::run(&workload.program, entry, &Vec::from_iter(input));
        if self == Optimized {
            let source = workload.program.clone();
            for m in source.method_ids() {
                let mut graph = source.method(m).graph.clone();
                incline::opt::optimize(&source, &mut graph);
                workload.program.define_method(m, graph);
            }
        }
        Case {
            workload,
            input,
            answer,
            seed,
        }
    }
}

/// The `.ir` program at `path`, entered at `main`.
fn ir_program(path: &Path) -> Workload {
    let text = std::fs::read_to_string(path).expect("a readable program");
    let parsed = incline::ir::parse::parse_program(&text);
    let program = parsed.unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let main = program.function_by_name("main").expect("a `main`");
    let name = path.file_stem().expect("a name").to_string_lossy();
    Workload::new(name, Suite::Other, program, main, 5, 4)
}

/// A configuration and the programs it runs. `Row::default()` is the
/// paper's inliner on the named workloads at hotness 2, four repetitions,
/// clean and cold, with no twin.
pub struct Row {
    pub corpus: Corpus,
    pub inliner: MakeInliner,
    pub config: VmConfig,
    pub faults: Faults,
    pub snapshot: Snap,
    /// Repetitions of a session: hot methods compile in the first two, and
    /// the later ones run what they compiled to.
    pub iterations: usize,
    /// Configurations under which the run must be byte-identical.
    pub twins: Vec<VmConfig>,
}

impl Default for Row {
    fn default() -> Row {
        Row {
            corpus: Named,
            inliner: INLINERS[3],
            config: hot(),
            faults: Clean,
            snapshot: Cold,
            iterations: 4,
            twins: Vec::new(),
        }
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inliner = (self.inliner)();
        let (corpus, faults, snapshot) = (self.corpus, self.faults, self.snapshot);
        write!(
            f,
            "row {corpus:?} `{}` {faults:?} {snapshot:?}",
            inliner.name()
        )?;
        write!(f, " ×{} {:?}", self.iterations, self.config)
    }
}

/// A row's fault plan and warmup snapshots for one program: the same for
/// its configuration and its twins.
struct Warm {
    plan: FaultPlan,
    snapshot: Option<Vec<u8>>,
    replicas: Vec<Vec<u8>>,
}

/// Everything a twin must reproduce.
#[derive(PartialEq)]
struct Outcome {
    result: Result<BenchResult, BenchError>,
    trace: Vec<u8>,
    snapshot: Option<Vec<u8>>,
}

impl Row {
    fn session<'p>(&self, case: &'p Case, config: VmConfig, iterations: usize) -> RunSession<'p> {
        let (w, args) = (&case.workload, Vec::from_iter(case.input.map(Value::Int)));
        let spec = BenchSpec {
            entry: w.entry,
            args,
            iterations,
        };
        let session = RunSession::new(&w.program, spec).config(config);
        session.inliner((self.inliner)())
    }

    /// The snapshot a cold session of `iterations` writes; none if it traps.
    fn cold_snapshot(&self, case: &Case, iterations: usize) -> Vec<u8> {
        let store = SnapshotIo::memory();
        let session = self.session(case, self.config, iterations);
        let _ = session.snapshot_out(store.clone()).run();
        store.bytes().unwrap_or_default()
    }

    fn warm(&self, case: &Case) -> Warm {
        let replay = self.snapshot == Replay;
        let snapshot = replay.then(|| self.cold_snapshot(case, self.iterations));
        let replicas = (2..=4).filter(|_| self.snapshot == Merge);
        let evictions = (0..=2).map(|r| (r, FaultKind::ForceEvict));
        let plan = match self.faults {
            Clean => FaultPlan::new(),
            Seeded => FaultPlan::seeded(0xFA17, 16, 0.5),
            EvictStorm => evictions.fold(FaultPlan::new(), |p, (r, k)| p.inject(r, k)),
            PoisonEntry => {
                let snap = Snapshot::from_bytes(snapshot.as_deref().unwrap_or_default());
                let decided = snap.map(|s| s.decisions).unwrap_or_default();
                let entry = decided.iter().position(|&m| m == case.workload.entry);
                let poison = |i| FaultKind::PoisonSnapshot { decision_idx: i };
                let plan = entry.map(|i| FaultPlan::new().inject(0, poison(i as u64)));
                plan.unwrap_or_default()
            }
        };
        Warm {
            plan,
            snapshot,
            replicas: replicas.map(|n| self.cold_snapshot(case, n)).collect(),
        }
    }

    /// Runs `case` under `config`; `observe` records the trace and the
    /// snapshot the session writes.
    fn measure(&self, case: &Case, config: VmConfig, warm: &Warm, observe: bool) -> Outcome {
        let sink = Arc::new(JsonlSink::new(Vec::new()));
        let store = SnapshotIo::memory();
        let session = self.session(case, config, self.iterations);
        let mut session = session.faults(warm.plan.clone());
        if let Some(bytes) = &warm.snapshot {
            session = session.snapshot_in(bytes.clone());
        }
        if !warm.replicas.is_empty() {
            let replicas = warm.replicas.iter().cloned().map(SnapshotIo::from);
            session = session.snapshot_merge(replicas.collect());
        }
        if observe {
            session = session.trace(sink.clone()).snapshot_out(store.clone());
        }
        let result = session.run();
        let trace = Arc::into_inner(sink).expect("a finished session");
        Outcome {
            result,
            trace: trace.into_inner(),
            snapshot: store.bytes(),
        }
    }

    /// Runs `case` under the row and its twins: the row's result, or the
    /// first disagreement, a panic included.
    fn verdict(&self, case: &Case) -> Result<Option<BenchResult>, String> {
        let check = || {
            let warm = self.warm(case);
            let ours = self.measure(case, self.config, &warm, !self.twins.is_empty());
            let answer = match &ours.result {
                Ok(r) => Ok(Answer {
                    value: r.final_value.clone(),
                    output: r.final_output.clone(),
                }),
                Err(BenchError::Exec(ExecError::Trap(trap))) => Err(*trap),
                Err(e) => return Err(format!("the session failed: {e}")),
            };
            if answer != case.answer {
                return Err(disagreement(&answer, &case.answer));
            }
            for twin in &self.twins {
                let theirs = self.measure(case, *twin, &warm, true);
                let same = [ours.result == theirs.result, ours.trace == theirs.trace];
                if theirs != ours {
                    let part = ["the BenchResult", "the JSONL trace", "the snapshot"];
                    let part = part[same.iter().take_while(|&&same| same).count()];
                    return Err(format!("{part} differs under the twin {twin:?}"));
                }
            }
            Ok(ours.result.ok())
        };
        catch_unwind(AssertUnwindSafe(check)).unwrap_or_else(|panic| {
            let text = panic.downcast_ref::<String>().cloned();
            Err(format!("panicked: {}", text.unwrap_or_default()))
        })
    }

    /// Whether `r` shows everything the row turns on at work.
    fn bites(&self, r: &BenchResult) -> bool {
        let faults = match self.faults {
            Clean => true,
            Seeded => r.bailouts.total() > 0,
            EvictStorm => r.cache.forced_evictions > 0,
            PoisonEntry => r.snapshot.poisoned > 0,
        };
        let snapshot = match self.snapshot {
            Cold => true,
            Replay => r.snapshot.loaded > 0,
            Merge => r.snapshot.merged > 0,
        };
        let budget = self.config.code_cache_budget == 0 || r.cache.evictions > 0;
        faults && snapshot && budget
    }

    /// The failure message for `case`: the row, the program and, for a
    /// generated program, the smallest draw that still fails.
    fn report(&self, case: &Case, why: &str) -> String {
        let mut message = format!("{self:?}\nprogram {}: {why}", case.workload.name);
        if let Some((seed, config)) = case.seed {
            let input = case.input.expect("generated programs take an input");
            let mut fails = |w: &Workload| {
                let case = self.corpus.case(w.clone(), input, Some((seed, config)));
                self.verdict(&case).is_err()
            };
            let (smallest, w) = shrink(seed, config, &mut fails);
            let methods = w.program.method_count();
            message += &format!("\nshrunk to generate({seed}, {smallest:?}): {methods} methods");
        }
        message
    }
}

/// Where `got` and the oracle's `want` part ways.
fn disagreement(got: &Result<Answer, TrapKind>, want: &Result<Answer, TrapKind>) -> String {
    if let (Ok(got), Ok(want)) = (got, want) {
        let mut lines = got.output.iter().zip(&want.output).enumerate();
        if let Some((i, (ours, theirs))) = lines.find(|(_, (a, b))| a != b) {
            return format!("output line {i} is {ours:?}, the oracle's {theirs:?}");
        }
    }
    let say = |a: &Result<Answer, TrapKind>| match a {
        Ok(a) => format!("{:?} after {} lines", a.value, a.output.len()),
        Err(trap) => format!("trap {trap:?}"),
    };
    format!("answered {}, the oracle {}", say(got), say(want))
}

/// Checks each row over its corpus, on two workers; returns what the
/// programs that did not trap computed.
pub fn run(rows: impl IntoIterator<Item = Row>) -> Vec<BenchResult> {
    let mut results = Vec::new();
    for row in rows {
        let cases = row.corpus.cases();
        let verdicts: Vec<_> = std::thread::scope(|s| {
            let halves = cases.chunks(cases.len().div_ceil(2));
            let row = &row;
            let work =
                move |half: &'static [Case]| Vec::from_iter(half.iter().map(|c| row.verdict(c)));
            let workers: Vec<_> = halves.map(|half| s.spawn(move || work(half))).collect();
            let joined = workers.into_iter().map(|w| w.join().expect("a worker"));
            joined.flatten().collect()
        });
        let mut bit = false;
        for (case, verdict) in cases.iter().zip(verdicts) {
            match verdict {
                Ok(result) => {
                    bit |= result.as_ref().is_some_and(|r| row.bites(r));
                    results.extend(result);
                }
                Err(why) => panic!("{}", row.report(case, &why)),
            }
        }
        assert!(bit, "{row:?}: what it turns on never showed");
    }
    results
}

/// Every inliner on `corpus`, speculating if `deopt`.
pub fn every_inliner(corpus: Corpus, deopt: bool) {
    let config = VmConfig { deopt, ..hot() };
    run(INLINERS.map(|inliner| Row {
        corpus,
        inliner,
        config,
        ..Row::default()
    }));
}
