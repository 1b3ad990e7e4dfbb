//! The five workloads: set-up, and one fixed-work pass each.
//!
//! Load is a closed loop with one client on one thread
//! (`compile_threads = 0`): the next program starts when the previous one
//! returned. A pass always does the same work, so its wall time is
//! comparable across passes, runs, seeds and commits, and its modelled
//! ledger ([`Modelled`]) must repeat exactly.
//!
//! What `--seed` decides: the order of the programs inside a pass, and the
//! *extras* — four generator draws (`suite_cold`, `compile_only`) or a
//! seeded tenant mix and arrival schedule (`server_mix`) — that the
//! untimed checking pass pushes through the same pipeline and compares
//! with the interpreter. The extras stay out of the timed passes because
//! their work is not comparable between seeds: over ten seeds the
//! generator draws moved `suite_cold`'s pass time by 30 % and a seeded
//! tenant mix moved `server_mix`'s by a factor of three, far beyond any
//! bound a regression gate could use. The timed set is the one seed
//! [`DEFAULT_SEED`] draws, so at the default seed extras and timed set
//! coincide.
//!
//! Why these five (one line each is also in `BENCHMARK.json`):
//!
//! * `suite_cold` — what `run_all`/`incline bench` users pay: a fresh
//!   `RunSession` per program, interpreter warm-up, the compile ladder, then
//!   the compiled tier, roughly a third each. Four generator programs keep
//!   a claim honest on code nobody tuned for.
//! * `interp_only` — `jit: false`: the interpreter and the profile counters
//!   do all the work, the compile ladder none.
//! * `peak_compiled` — long runs, so ≈80 % of the time is the compiled tier
//!   of the same `exec_graph`: an interpreter trick that taxes compiled code
//!   shows here.
//! * `compile_only` — profiles are warmed in set-up; the timed part is
//!   `Machine::compile_now` on every hot method. Execution does nothing.
//! * `server_mix` — 6000 short requests under a bounded code cache: server,
//!   cache and broker bookkeeping dominate.

use std::sync::Arc;
use std::time::Instant;

use incline_bench::server::{standard_vm, tenant_specs};
use incline_bench::{default_vm, Config};
use incline_ir::{MethodId, Rng64};
use incline_profile::ProfileTable;
use incline_vm::{
    BenchError, BenchResult, BenchSpec, EvictionPolicy, Inliner, InstallPolicy, Machine, NoInline,
    RunSession, ServerReport, ServerSession, ServerSpec, TenantSpec, TraceSink, Value, VmConfig,
};
use incline_workloads::generator::{generate, GenConfig};
use incline_workloads::tenants::{self, TenantMix};
use incline_workloads::{all_benchmarks, Workload};

use crate::oracle::{outcome_digest, Oracle};
use crate::spans::Recorder;

/// Default `--seed`, and the seed the timed set is drawn from: the
/// tenant-mix seed the repo's server figures use.
pub const DEFAULT_SEED: u64 = 23;
/// `interp_only` and `peak_compiled` run every named program at its
/// default input times this, so execution dwarfs set-up.
pub const INPUT_SCALE: i64 = 8;
/// Generator draws in `suite_cold` and `compile_only`, timed and extra.
pub const GENERATED: u64 = 4;
/// A method is in `compile_only`'s hot set at this profile hotness — the
/// threshold `default_vm()` tiers up at.
pub const HOT: u64 = 5;
const INTERP_ITERATIONS: usize = 4;
const PEAK_ITERATIONS: usize = 24;
const WARM_ITERATIONS: usize = 3;
const SERVER_TENANTS: usize = 6;
const SERVER_REQUESTS: usize = 6000;
const SERVER_BURST: usize = 12;

/// Which workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The paper protocol, cold, per program.
    SuiteCold,
    /// Interpreter only.
    InterpOnly,
    /// Long JIT runs dominated by the compiled tier.
    PeakCompiled,
    /// The compile ladder alone, on warmed profiles.
    CompileOnly,
    /// The multi-tenant server under a bounded code cache.
    ServerMix,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 5] = [
        Kind::SuiteCold,
        Kind::InterpOnly,
        Kind::PeakCompiled,
        Kind::CompileOnly,
        Kind::ServerMix,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SuiteCold => "suite_cold",
            Kind::InterpOnly => "interp_only",
            Kind::PeakCompiled => "peak_compiled",
            Kind::CompileOnly => "compile_only",
            Kind::ServerMix => "server_mix",
        }
    }

    /// Inverse of [`Kind::name`].
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Timed passes of a full (`run.sh` without `--seconds`) run, sized so
    /// each workload measures for roughly the same few seconds.
    pub fn default_passes(self) -> usize {
        match self {
            Kind::SuiteCold => 20,
            Kind::InterpOnly => 12,
            Kind::PeakCompiled => 6,
            Kind::CompileOnly | Kind::ServerMix => 50,
        }
    }

    /// What one op is.
    pub fn op(self) -> &'static str {
        match self {
            Kind::SuiteCold | Kind::InterpOnly | Kind::PeakCompiled => "program iterations",
            Kind::CompileOnly => "methods compiled",
            Kind::ServerMix => "requests",
        }
    }
}

/// The modelled ledger of one pass — the paper's numbers. Deterministic:
/// identical across passes, runs and machines for one seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Modelled {
    /// Σ per-iteration `total_cycles` (server: final virtual clock;
    /// `compile_only`: Σ compile cycles, the only cycles it spends).
    pub cycles: u64,
    /// Σ mutator-visible stall cycles.
    pub stall_cycles: u64,
    /// Σ `installed_bytes` at the end of each program's run.
    pub code_bytes: u64,
}

impl std::ops::AddAssign for Modelled {
    fn add_assign(&mut self, o: Modelled) {
        self.cycles += o.cycles;
        self.stall_cycles += o.stall_cycles;
        self.code_bytes += o.code_bytes;
    }
}

/// What one pass did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PassOutcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that returned `Err` or a wrong answer.
    pub failed: u64,
    /// The pass's modelled ledger.
    pub modelled: Modelled,
    /// Wall time in ms of each unit of the pass, in pass order. The units
    /// partition the pass at the finest grain the benchmark drives it: a
    /// session (`suite_cold`), an iteration (`interp_only`,
    /// `peak_compiled`; the first includes `Machine::new`), a
    /// `compile_now` call (`compile_only`), the one serve (`server_mix`).
    /// The reported pass time is built from these (see
    /// `RunResult::pass_time_ms`).
    pub unit_ms: Vec<f64>,
}

impl PassOutcome {
    fn absorb(&mut self, attempted: u64, failed: u64, modelled: Modelled) {
        self.attempted += attempted;
        self.failed += failed;
        self.modelled += modelled;
    }

    /// Ends a unit: records the time since `*since` and restarts the clock.
    fn lap(&mut self, since: &mut Instant) {
        let now = Instant::now();
        self.unit_ms
            .push(now.duration_since(*since).as_secs_f64() * 1e3);
        *since = now;
    }
}

/// One program of a program-suite workload, with its expected answer.
#[derive(Clone, Debug)]
pub struct Item {
    /// The program at the input and iteration count this workload uses.
    pub workload: Workload,
    /// Oracle digest of its answer.
    pub expected: u64,
    /// `compile_only`: profiles after the interpreted warm-up.
    pub warmed: ProfileTable,
    /// `compile_only`: methods with hotness ≥ [`HOT`], in `MethodId` order.
    pub hot: Vec<MethodId>,
}

/// The server scenario, with its expected per-tenant answers.
#[derive(Clone, Debug)]
pub struct Server {
    /// Program and tenant metadata.
    pub mix: TenantMix,
    /// Arrival process.
    pub spec: ServerSpec,
    /// Per-tenant digests from an interpreter-only serve.
    pub expected: Vec<u64>,
}

/// A workload after set-up, ready to run passes.
#[derive(Clone)]
pub struct Prepared {
    /// Which workload this is.
    pub kind: Kind,
    /// VM configuration of every pass. The layer probes vary one field at
    /// a time (`compile_threads`, `trial_cache`, `code_cache_budget`,
    /// `deopt`) to measure what that mechanism costs.
    pub config: VmConfig,
    /// Trace sink handed to every machine (`None` = the VM's default).
    pub sink: Option<Arc<dyn TraceSink>>,
    /// The timed programs, in seeded order (empty for `server_mix`).
    pub items: Vec<Item>,
    /// The timed server scenario (`server_mix` only).
    pub server: Option<Server>,
    /// Seeded generator draws, run only by [`Prepared::check_extras`].
    pub extra_items: Vec<Item>,
    /// Seeded server scenario, run only by [`Prepared::check_extras`].
    pub extra_server: Option<Server>,
}

fn interp_config() -> VmConfig {
    VmConfig {
        jit: false,
        ..Prepared::jit_config()
    }
}

fn args(w: &Workload) -> Vec<Value> {
    vec![Value::Int(w.input)]
}

/// Interpreter-only answer of `w` (one iteration): what the oracle file is
/// blessed from and what generated programs are checked against.
pub fn reference_digest(w: &Workload) -> Result<u64, String> {
    let mut vm = Machine::new(&w.program, Box::new(NoInline), interp_config());
    let out = vm
        .run(w.entry, args(w))
        .map_err(|e| format!("{}: reference run failed: {e}", w.name))?;
    Ok(outcome_digest(&out))
}

/// Blesses a fresh oracle from interpreter-only runs of every named
/// program at the two input sizes the workloads use.
pub fn bless() -> Result<Oracle, String> {
    let mut oracle = Oracle::default();
    for scale in [1, INPUT_SCALE] {
        for w in all_benchmarks() {
            let input = w.input * scale;
            let w = w.with_input(input);
            oracle.insert(&w.name, w.input, reference_digest(&w)?);
        }
    }
    Ok(oracle)
}

impl Prepared {
    /// Sets the workload up: builds and verifies its programs, looks up (or,
    /// for generated programs and the server, computes by interpretation)
    /// the expected answers, and warms `compile_only`'s profiles.
    ///
    /// # Errors
    ///
    /// A named program missing from `oracle`, or a reference run that fails.
    pub fn setup(kind: Kind, seed: u64, oracle: &Oracle) -> Result<Prepared, String> {
        let mut prepared = Prepared {
            kind,
            config: Prepared::jit_config(),
            sink: None,
            items: Vec::new(),
            server: None,
            extra_items: Vec::new(),
            extra_server: None,
        };
        match kind {
            Kind::SuiteCold | Kind::CompileOnly => {
                prepared.items = named_items(oracle, 1, None)?;
                prepared.items.extend(generated_items(DEFAULT_SEED)?);
                prepared.extra_items = generated_items(seed)?;
            }
            Kind::InterpOnly => {
                prepared.config = interp_config();
                prepared.items = named_items(oracle, INPUT_SCALE, Some(INTERP_ITERATIONS))?;
            }
            Kind::PeakCompiled => {
                prepared.items = named_items(oracle, INPUT_SCALE, Some(PEAK_ITERATIONS))?;
            }
            Kind::ServerMix => {
                prepared.config = standard_vm(InstallPolicy::Barrier, EvictionPolicy::Lru, 0);
                prepared.server = Some(server_setup(DEFAULT_SEED)?);
                prepared.extra_server = Some(server_setup(seed)?);
            }
        }
        if kind == Kind::CompileOnly {
            prepared.config.hotness_threshold = u64::MAX;
            for item in prepared.items.iter_mut().chain(&mut prepared.extra_items) {
                warm(item, prepared.config)?;
            }
        }
        shuffle(&mut prepared.items, seed);
        Ok(prepared)
    }

    /// Program names, for the span recorder's table: the timed programs,
    /// then the extras.
    pub fn program_names(&self) -> Vec<String> {
        let all = self.items.iter().chain(&self.extra_items);
        all.map(|i| i.workload.name.clone()).collect()
    }

    /// The configuration of the JIT workloads: `default_vm()`, compiling
    /// on the mutator thread.
    pub fn jit_config() -> VmConfig {
        VmConfig {
            compile_threads: 0,
            ..default_vm()
        }
    }

    pub(crate) fn inliner(&self) -> Box<dyn Inliner> {
        match self.kind {
            Kind::InterpOnly => Box::new(NoInline),
            _ => Config::paper().build(),
        }
    }

    fn machine<'p>(&self, w: &'p Workload, rec: &mut Recorder) -> Machine<'p> {
        rec.scope("vm.machine_new", None, |_| {
            let mut vm = Machine::new(&w.program, self.inliner(), self.config);
            if let Some(sink) = &self.sink {
                vm.set_trace_sink(Arc::clone(sink));
            }
            vm
        })
    }

    /// Runs one pass over the timed set. `check_code` makes `compile_only`
    /// also execute one iteration on the code it just installed and check
    /// the answer; the untimed warm-up pass does, timed passes do not
    /// (compilation is deterministic, so every pass installs the same code).
    pub fn pass(&self, rec: &mut Recorder, check_code: bool) -> PassOutcome {
        rec.scope("pass", None, |rec| {
            let mut out = PassOutcome::default();
            for (i, item) in self.items.iter().enumerate() {
                self.program(item, i, rec, check_code, &mut out);
            }
            if let Some(server) = &self.server {
                self.serve_scored(server, rec, &mut out);
            }
            out
        })
    }

    /// Pushes the seeded extras through the same pipeline as a pass, every
    /// answer checked. Untimed; only `attempted` and `failed` are used.
    pub fn check_extras(&self, rec: &mut Recorder) -> PassOutcome {
        rec.scope("extras", None, |rec| {
            let mut out = PassOutcome::default();
            for (i, item) in self.extra_items.iter().enumerate() {
                self.program(item, self.items.len() + i, rec, true, &mut out);
            }
            if let Some(server) = &self.extra_server {
                self.serve_scored(server, rec, &mut out);
            }
            out
        })
    }

    fn program(
        &self,
        item: &Item,
        index: usize,
        rec: &mut Recorder,
        check_code: bool,
        out: &mut PassOutcome,
    ) {
        let mut clock = Instant::now();
        rec.scope("program", Some(index), |rec| match self.kind {
            Kind::SuiteCold => self.session(item, out),
            Kind::InterpOnly | Kind::PeakCompiled => self.iterate(item, rec, &mut clock, out),
            Kind::CompileOnly => self.compile_hot(item, rec, check_code, &mut clock, out),
            Kind::ServerMix => unreachable!("server_mix has no program items"),
        });
        out.lap(&mut clock);
    }

    fn serve_scored(&self, server: &Server, rec: &mut Recorder, out: &mut PassOutcome) {
        let mut clock = Instant::now();
        let report = rec.scope("vm.server.serve", None, |_| self.serve(server));
        score_server(server, report, out);
        out.lap(&mut clock);
    }

    /// A fresh `RunSession` over `item`, exactly as the figure bins run.
    pub(crate) fn run_session(&self, item: &Item) -> Result<BenchResult, BenchError> {
        let w = &item.workload;
        let spec = BenchSpec {
            entry: w.entry,
            args: args(w),
            iterations: w.iterations,
        };
        let mut session = RunSession::new(&w.program, spec)
            .inliner(self.inliner())
            .config(self.config);
        if let Some(sink) = &self.sink {
            session = session.trace(Arc::clone(sink));
        }
        session.run()
    }

    /// `suite_cold`: one session per program.
    fn session(&self, item: &Item, out: &mut PassOutcome) {
        let n = item.workload.iterations as u64;
        match self.run_session(item) {
            // Only the last iteration's answer is visible through a
            // session, so a wrong answer fails the whole program.
            Ok(r) => out.absorb(
                n,
                if r.answer_digest() == item.expected {
                    0
                } else {
                    n
                },
                Modelled {
                    cycles: r.per_iteration.iter().sum(),
                    stall_cycles: r.stall_cycles,
                    code_bytes: r.installed_bytes,
                },
            ),
            Err(_) => out.absorb(n, n, Modelled::default()),
        }
    }

    /// `interp_only` / `peak_compiled`: one machine, every iteration
    /// checked.
    fn iterate(&self, item: &Item, rec: &mut Recorder, clock: &mut Instant, out: &mut PassOutcome) {
        let w = &item.workload;
        let mut vm = self.machine(w, rec);
        let mut modelled = Modelled::default();
        let mut failed = 0;
        for _ in 0..w.iterations {
            match rec.scope("vm.run", None, |_| vm.run(w.entry, args(w))) {
                Ok(o) => {
                    modelled.cycles += o.total_cycles();
                    modelled.stall_cycles += o.stall_cycles;
                    failed += u64::from(outcome_digest(&o) != item.expected);
                }
                Err(_) => failed += 1,
            }
            out.lap(clock);
        }
        modelled.code_bytes = vm.installed_bytes();
        out.absorb(w.iterations as u64, failed, modelled);
    }

    /// `compile_only`: fresh machine, warmed profiles cloned in, then the
    /// broker ladder on every hot method.
    fn compile_hot(
        &self,
        item: &Item,
        rec: &mut Recorder,
        check_code: bool,
        clock: &mut Instant,
        out: &mut PassOutcome,
    ) {
        let w = &item.workload;
        let mut vm = self.machine(w, rec);
        *vm.profiles_mut() = rec.scope("profile.clone", None, |_| item.warmed.clone());
        let mut failed = 0;
        for &m in &item.hot {
            failed += u64::from(!rec.scope("vm.compile_now", None, |_| vm.compile_now(m)));
            out.lap(clock);
        }
        if check_code {
            let ok = vm
                .run(w.entry, args(w))
                .is_ok_and(|o| outcome_digest(&o) == item.expected);
            if !ok {
                failed = item.hot.len() as u64;
            }
        }
        out.absorb(
            item.hot.len() as u64,
            failed,
            Modelled {
                cycles: vm.total_compile_cycles(),
                stall_cycles: vm.total_stall_cycles(),
                code_bytes: vm.installed_bytes(),
            },
        );
    }

    /// One serve of the scenario under this configuration.
    pub fn serve(&self, server: &Server) -> Option<ServerReport> {
        let mut session = ServerSession::new(
            &server.mix.program,
            tenant_specs(&server.mix),
            server.spec.clone(),
        )
        .inliner(self.inliner())
        .config(self.config);
        if let Some(sink) = &self.sink {
            session = session.trace(Arc::clone(sink));
        }
        session.serve().ok()
    }
}

fn score_server(server: &Server, report: Option<ServerReport>, out: &mut PassOutcome) {
    let requests = server.spec.requests as u64;
    let Some(r) = report else {
        out.absorb(requests, requests, Modelled::default());
        return;
    };
    // A tenant whose answer digest is wrong fails all its requests.
    let failed: u64 = r
        .tenants
        .iter()
        .zip(&server.expected)
        .map(|(t, &want)| {
            if t.digest == want {
                t.failed
            } else {
                t.requests
            }
        })
        .sum();
    let served = r.requests - r.tenants.iter().map(|t| t.failed).sum::<u64>();
    out.absorb(
        r.requests,
        failed,
        Modelled {
            cycles: r.total_cycles,
            stall_cycles: (r.stall.mean * served as f64).round() as u64,
            code_bytes: r.installed_bytes,
        },
    );
}

/// The 28 named programs at `scale` times their default input.
fn named_items(
    oracle: &Oracle,
    scale: i64,
    iterations: Option<usize>,
) -> Result<Vec<Item>, String> {
    let mut items = Vec::new();
    for w in all_benchmarks() {
        w.verify_all();
        let input = w.input * scale;
        let iterations = iterations.unwrap_or(w.iterations);
        let w = w.with_input(input).with_iterations(iterations);
        let expected = oracle.get(&w.name, w.input).ok_or_else(|| {
            format!(
                "expected.json has no answer for {}@{}; run --bless",
                w.name, w.input
            )
        })?;
        items.push(item(w, expected));
    }
    Ok(items)
}

/// [`GENERATED`] hardened generator draws from `seed`, each checked
/// against its own interpreter-only run.
fn generated_items(seed: u64) -> Result<Vec<Item>, String> {
    (0..GENERATED)
        .map(|i| {
            let w = generate(seed.wrapping_add(i), GenConfig::hardened());
            w.verify_all();
            let expected = reference_digest(&w)?;
            Ok(item(w, expected))
        })
        .collect()
}

/// Seeded Fisher–Yates: the order of the programs inside a pass is an
/// input that changes no program's work.
fn shuffle(items: &mut [Item], seed: u64) {
    let mut rng = Rng64::new(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_index(i + 1));
    }
}

fn item(workload: Workload, expected: u64) -> Item {
    Item {
        workload,
        expected,
        warmed: ProfileTable::new(),
        hot: Vec::new(),
    }
}

/// Interprets `item` for [`WARM_ITERATIONS`] and keeps the profiles and
/// the hot set.
fn warm(item: &mut Item, config: VmConfig) -> Result<(), String> {
    let w = &item.workload;
    let mut vm = Machine::new(&w.program, Box::new(NoInline), config);
    for _ in 0..WARM_ITERATIONS {
        vm.run(w.entry, args(w))
            .map_err(|e| format!("{}: profile warm-up failed: {e}", w.name))?;
    }
    item.warmed = vm.profiles().clone();
    item.hot = w
        .program
        .method_ids()
        .filter(|&m| item.warmed.hotness(m) >= HOT)
        .collect();
    Ok(())
}

fn server_setup(seed: u64) -> Result<Server, String> {
    let mix = tenants::build(seed, SERVER_TENANTS);
    mix.verify_all();
    let spec = ServerSpec {
        seed,
        requests: SERVER_REQUESTS,
        burst_len: SERVER_BURST,
        ..ServerSpec::default()
    };
    let tenants: Vec<TenantSpec> = tenant_specs(&mix);
    let reference = ServerSession::new(&mix.program, tenants, spec.clone())
        .config(interp_config())
        .serve()
        .map_err(|e| format!("server reference serve failed: {e}"))?;
    if reference.tenants.iter().any(|t| t.failed > 0) {
        return Err("server reference serve had failing requests".into());
    }
    let expected = reference.tenants.iter().map(|t| t.digest).collect();
    Ok(Server {
        mix,
        spec,
        expected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle() -> Oracle {
        Oracle::parse(include_str!("../expected.json")).unwrap()
    }

    /// A set-up cut down to a few named programs, so a pass is cheap in a
    /// debug build.
    fn small(kind: Kind, seed: u64, oracle: &Oracle) -> Prepared {
        let mut p = Prepared::setup(kind, seed, oracle).unwrap();
        p.items
            .retain(|i| ["scalatest", "avrora", "gen-23"].contains(&i.workload.name.as_str()));
        p
    }

    #[test]
    fn every_program_workload_repeats_its_modelled_ledger_and_answers_right() {
        for kind in [
            Kind::SuiteCold,
            Kind::InterpOnly,
            Kind::PeakCompiled,
            Kind::CompileOnly,
        ] {
            let p = small(kind, 7, &oracle());
            let a = p.pass(&mut Recorder::off(), true);
            let b = p.pass(&mut Recorder::off(), false);
            assert_eq!(a.modelled, b.modelled, "{}", kind.name());
            assert_eq!((a.failed, b.failed), (0, 0), "{}", kind.name());
            assert_eq!(
                a.unit_ms.len(),
                b.unit_ms.len(),
                "{}: units line up",
                kind.name()
            );
            assert!(b.unit_ms.len() >= p.items.len(), "{}", kind.name());
            assert!(a.attempted > 0 && a.modelled.cycles > 0, "{}", kind.name());
            assert_eq!(
                p.check_extras(&mut Recorder::off()).failed,
                0,
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn a_wrong_digest_fails_exactly_the_ops_of_that_program() {
        let mut wrong = oracle();
        let w = incline_workloads::by_name("scalatest").unwrap();
        wrong.insert(
            "scalatest",
            w.input,
            wrong.get("scalatest", w.input).unwrap() ^ 1,
        );
        let p = small(Kind::SuiteCold, DEFAULT_SEED, &wrong);
        let out = p.pass(&mut Recorder::off(), false);
        assert_eq!(out.failed, w.iterations as u64);
        assert!(out.attempted > out.failed);

        let mut p = small(Kind::CompileOnly, DEFAULT_SEED, &wrong);
        p.items.retain(|i| i.workload.name == "scalatest");
        let checked = p.pass(&mut Recorder::off(), true);
        assert_eq!(
            checked.failed, checked.attempted,
            "installed code is checked too"
        );
        assert_eq!(
            p.pass(&mut Recorder::off(), false).failed,
            0,
            "timed passes only compile"
        );
    }

    #[test]
    fn a_program_missing_from_the_oracle_is_a_set_up_error() {
        let err = Prepared::setup(Kind::InterpOnly, 1, &Oracle::default())
            .err()
            .unwrap();
        assert!(err.contains("--bless"), "{err}");
    }

    #[test]
    fn the_seed_orders_the_programs_and_draws_the_extras_but_not_the_timed_work() {
        let o = oracle();
        let names = |p: &Prepared| p.program_names()[..p.items.len()].to_vec();
        let a = Prepared::setup(Kind::SuiteCold, 1, &o).unwrap();
        let b = Prepared::setup(Kind::SuiteCold, 2, &o).unwrap();
        assert_ne!(names(&a), names(&b), "order follows the seed");
        let sorted = |p: &Prepared| {
            let mut n = names(p);
            n.sort();
            n
        };
        assert_eq!(sorted(&a), sorted(&b), "the timed set does not");
        assert_eq!(a.items.len(), 28 + GENERATED as usize);
        assert_eq!(a.extra_items[0].workload.name, "gen-1");
        assert_eq!(b.extra_items[0].workload.name, "gen-2");
        let again = Prepared::setup(Kind::SuiteCold, 1, &o).unwrap();
        assert_eq!(names(&a), names(&again), "one seed, one order");
    }

    #[test]
    fn server_mix_times_the_standard_scenario_and_checks_a_seeded_one() {
        let o = Oracle::default();
        let a = Prepared::setup(Kind::ServerMix, 1, &o).unwrap();
        let b = Prepared::setup(Kind::ServerMix, 2, &o).unwrap();
        let (sa, sb) = (a.server.as_ref().unwrap(), b.server.as_ref().unwrap());
        assert_eq!(sa.expected, sb.expected);
        assert_eq!(sa.spec, sb.spec);
        let (xa, xb) = (
            a.extra_server.as_ref().unwrap(),
            b.extra_server.as_ref().unwrap(),
        );
        assert_ne!(
            xa.expected, xb.expected,
            "seeded tenants compute different answers"
        );

        let one = a.pass(&mut Recorder::off(), false);
        let two = b.pass(&mut Recorder::off(), false);
        assert_eq!(
            one.modelled, two.modelled,
            "the timed ledger is the same under every seed"
        );
        assert_eq!(one.unit_ms.len(), 1, "one serve is one unit");
        assert_eq!((one.attempted, one.failed), (SERVER_REQUESTS as u64, 0));
        let extras = a.check_extras(&mut Recorder::off());
        assert_eq!(
            (extras.attempted, extras.failed),
            (SERVER_REQUESTS as u64, 0)
        );

        let mut wrong = a.clone();
        wrong.server.as_mut().unwrap().expected[0] ^= 1;
        assert!(wrong.pass(&mut Recorder::off(), false).failed > 0);
    }

    #[test]
    fn spans_nest_pass_program_machine_and_run() {
        let p = small(Kind::InterpOnly, 3, &oracle());
        let mut rec = Recorder::on();
        rec.set_programs(p.program_names());
        rec.set_pass(1);
        p.pass(&mut rec, false);
        let names: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
        assert_eq!(names[..3], ["pass", "program", "vm.machine_new"]);
        assert_eq!(
            names.iter().filter(|n| **n == "vm.run").count(),
            2 * INTERP_ITERATIONS
        );
        let total: u64 = rec.self_times().iter().sum();
        assert_eq!(
            total,
            rec.spans()[0].duration_ns(),
            "self times sum to the pass"
        );
    }
}
