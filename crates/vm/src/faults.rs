//! Deterministic fault injection for the compile path.
//!
//! A fault-containment story is only credible if it is exercised. This
//! module lets tests (and experiments) inject compiler faults at precise,
//! reproducible points: a [`FaultPlan`] maps *compilation request indices*
//! (the Nth time the broker is asked to compile anything, counting from 0)
//! to a [`FaultKind`]. The plan is either hand-built or derived from a seed,
//! so two runs with the same plan observe byte-identical behavior — which
//! the integration tests assert.
//!
//! The faults model the three ways a production JIT compiler goes wrong:
//!
//! * [`FaultKind::PanicInCompile`] — a compiler bug that unwinds. The
//!   broker's `catch_unwind` fence must convert it into a
//!   [`CompileError::Panicked`](crate::CompileError) bailout.
//! * [`FaultKind::CorruptGraph`] — a miscompile: the graph produced by the
//!   inliner is silently damaged before installation. The always-on
//!   verifier must reject it ([`CompileError::Rejected`](crate::CompileError)).
//! * [`FaultKind::ExhaustFuel`] — a pathological compilation that would
//!   blow the compile budget. The ladder must retry on a cheaper tier.
//!
//! Three further kinds target the speculation and code-cache machinery
//! rather than the compile path itself: [`FaultKind::ForceDeopt`] makes
//! installed code take an uncommon trap on first entry,
//! [`FaultKind::ForceGuardFailure`] makes the drift monitor trip as if
//! every speculated guard were failing, and [`FaultKind::ForceEvict`]
//! throws freshly installed code straight back out of the code cache.
//! All three are only ever injected explicitly — `seeded` plans draw from
//! the three compile-path kinds so existing seeded tests stay
//! byte-identical.

use std::collections::BTreeMap;

use incline_ir::{Graph, Rng64, Terminator};

/// Marker embedded in injected panic payloads so tests can tell an
/// injected panic from a genuine compiler bug.
pub const INJECTED_PANIC: &str = "injected compiler fault";

/// The kind of compiler fault to inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the inliner invocation (contained by `catch_unwind`).
    PanicInCompile,
    /// Structurally corrupt the produced graph before verification.
    CorruptGraph,
    /// Drain the compile budget so the full tier reports `OutOfFuel`.
    ExhaustFuel,
    /// Mark the installed code so its first compiled activation takes an
    /// uncommon trap: exercises the invalidate → reprofile → recompile
    /// cycle (and, repeated past the cap, speculation pinning). Only
    /// effective when deoptimization is enabled and the method is not
    /// pinned; never drawn by [`FaultPlan::seeded`].
    ForceDeopt,
    /// Mark the installed code so the broker's drift monitor deterministically
    /// trips once its minimum sample count accrues, as if every speculated
    /// guard were failing. Never drawn by [`FaultPlan::seeded`].
    ForceGuardFailure,
    /// Evict the method's code from the code cache immediately after it is
    /// installed, as if cache pressure had picked it as a victim. Effective
    /// regardless of `code_cache_budget`; exercises the evict → reprofile →
    /// re-tier cycle and its backoff. Never drawn by [`FaultPlan::seeded`].
    ForceEvict,
    /// Poison one decision of a replayed warmup snapshot: the decision at
    /// index `decision_idx` of the snapshot's decision log is
    /// installed normally during eager replay but takes an uncommon trap
    /// on its first compiled activation, driving the quarantine ladder
    /// (poison attribution, profile rollback, `snapshot_out` exclusion)
    /// deterministically from tests. Inert outside snapshot replay (the
    /// plan key is conventionally `decision_idx` itself, but unlike the
    /// other kinds the key does not select a compile request). Only
    /// effective when deoptimization is enabled and the method is not
    /// pinned; never drawn by [`FaultPlan::seeded`].
    PoisonSnapshot {
        /// Index into the snapshot's decision log, the order eager replay
        /// compiles its methods in ([`Snapshot::decisions`](crate::Snapshot::decisions)).
        decision_idx: u64,
    },
}

/// A deterministic schedule of compiler faults, keyed by compilation
/// request index (0 = the first compilation the broker attempts).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: BTreeMap<u64, FaultKind>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault at compilation request `request` (builder style).
    pub fn inject(mut self, request: u64, kind: FaultKind) -> Self {
        self.faults.insert(request, kind);
        self
    }

    /// Derives a plan from a seed: each of the first `requests`
    /// compilation indices faults with probability `density`, with the
    /// kind drawn uniformly. Same seed, same plan — always.
    pub fn seeded(seed: u64, requests: u64, density: f64) -> Self {
        let mut rng = Rng64::new(seed);
        let mut faults = BTreeMap::new();
        for request in 0..requests {
            if rng.gen_bool(density) {
                let kind = match rng.gen_index(3) {
                    0 => FaultKind::PanicInCompile,
                    1 => FaultKind::CorruptGraph,
                    _ => FaultKind::ExhaustFuel,
                };
                faults.insert(request, kind);
            }
        }
        FaultPlan { faults }
    }

    /// The fault scheduled for compilation request `request`, if any.
    pub fn fault_at(&self, request: u64) -> Option<FaultKind> {
        self.faults.get(&request).copied()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scheduled faults in request order.
    pub fn entries(&self) -> impl Iterator<Item = (u64, FaultKind)> + '_ {
        self.faults.iter().map(|(&r, &k)| (r, k))
    }

    /// The decision-log indices poisoned by [`FaultKind::PoisonSnapshot`]
    /// entries, in sorted order — consumed by snapshot replay.
    pub fn poisoned_decisions(&self) -> std::collections::BTreeSet<u64> {
        self.faults
            .values()
            .filter_map(|k| match k {
                FaultKind::PoisonSnapshot { decision_idx } => Some(*decision_idx),
                _ => None,
            })
            .collect()
    }
}

/// Structurally damages `graph` the way a miscompiling pass would: the
/// first jump edge loses its arguments (an arity violation the verifier
/// must catch); a graph without jump edges gets an unterminated block.
/// Either way the result must fail verification.
pub fn corrupt_graph(graph: &mut Graph) {
    let blocks: Vec<_> = graph.block_ids().collect();
    for &b in &blocks {
        if let Terminator::Jump(dest, args) = &graph.block(b).term {
            if !args.is_empty() {
                let dest = *dest;
                graph.set_terminator(b, Terminator::Jump(dest, Vec::new()));
                return;
            }
        }
    }
    let last = *blocks.last().expect("graphs have at least an entry block");
    graph.set_terminator(last, Terminator::Unterminated);
}

// ---- panic-noise suppression -----------------------------------------------
//
// `catch_unwind` contains a panic, but the default panic hook still prints a
// backtrace to stderr first. Injected (and contained) panics are expected
// events, so the broker silences the hook for the duration of the guarded
// call; genuine panics elsewhere keep the normal hook behavior.

use std::cell::Cell;
use std::sync::Once;

thread_local! {
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

static HOOK_INIT: Once = Once::new();

fn install_delegating_hook() {
    HOOK_INIT.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(|s| s.get()) {
                previous(info);
            }
        }));
    });
}

/// Runs `f` with panic-hook output suppressed on this thread. Used around
/// the broker's `catch_unwind` fence so contained panics don't spam stderr.
pub(crate) fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    install_delegating_hook();
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(true));
    let result = f();
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(false));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::types::RetType;
    use incline_ir::verify::verify_graph;
    use incline_ir::{Program, Type};

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(0xFA17, 64, 0.25);
        let b = FaultPlan::seeded(0xFA17, 64, 0.25);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "density 0.25 over 64 requests should fault");
        let c = FaultPlan::seeded(0xFA18, 64, 0.25);
        assert_ne!(a, c, "different seeds should give different plans");
    }

    #[test]
    fn builder_plan_round_trips() {
        let plan = FaultPlan::new()
            .inject(0, FaultKind::PanicInCompile)
            .inject(3, FaultKind::CorruptGraph);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.fault_at(0), Some(FaultKind::PanicInCompile));
        assert_eq!(plan.fault_at(1), None);
        assert_eq!(plan.fault_at(3), Some(FaultKind::CorruptGraph));
        let entries: Vec<_> = plan.entries().collect();
        assert_eq!(
            entries,
            vec![(0, FaultKind::PanicInCompile), (3, FaultKind::CorruptGraph)]
        );
    }

    #[test]
    fn poison_entries_are_collected_and_inert_elsewhere() {
        let plan = FaultPlan::new()
            .inject(0, FaultKind::PoisonSnapshot { decision_idx: 0 })
            .inject(2, FaultKind::PoisonSnapshot { decision_idx: 2 })
            .inject(5, FaultKind::ForceDeopt);
        let poisoned: Vec<u64> = plan.poisoned_decisions().into_iter().collect();
        assert_eq!(poisoned, vec![0, 2]);
        assert!(FaultPlan::new()
            .inject(1, FaultKind::ForceEvict)
            .poisoned_decisions()
            .is_empty());
    }

    #[test]
    fn corruption_always_breaks_verification() {
        // A graph with a parameterized jump edge: corruption drops the args.
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let (j, jp) = fb.add_block_with_params(&[Type::Int]);
        fb.jump(j, vec![x]);
        fb.switch_to(j);
        fb.ret(Some(jp[0]));
        let mut g = fb.finish();
        verify_graph(&p, &g, &[Type::Int], RetType::Value(Type::Int)).unwrap();
        corrupt_graph(&mut g);
        assert!(verify_graph(&p, &g, &[Type::Int], RetType::Value(Type::Int)).is_err());

        // A straight-line graph: corruption unterminates a block.
        let m2 = p.declare_function("g", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m2);
        let k = fb.const_int(1);
        fb.ret(Some(k));
        let mut g2 = fb.finish();
        verify_graph(&p, &g2, &[], RetType::Value(Type::Int)).unwrap();
        corrupt_graph(&mut g2);
        assert!(verify_graph(&p, &g2, &[], RetType::Value(Type::Int)).is_err());
    }

    #[test]
    fn quiet_panics_still_propagate_payload() {
        let caught =
            with_quiet_panics(|| std::panic::catch_unwind(|| panic!("{INJECTED_PANIC}: boom")));
        let payload = caught.unwrap_err();
        let msg = payload.downcast_ref::<String>().unwrap();
        assert!(msg.contains(INJECTED_PANIC));
    }
}
