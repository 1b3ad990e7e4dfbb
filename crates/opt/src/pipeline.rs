//! The pass pipeline used by compilations and by deep inlining trials.
//!
//! [`optimize`] is the full bundle run on specialized call-tree graphs and
//! on root methods between inlining rounds: canonicalize → GVN →
//! read–write elimination → DCE, iterated to a fixpoint, with optional loop
//! peeling at the end (the paper peels "at the end of every round"). A pass
//! runs only on a graph it has not already seen (`Fresh`).

use incline_ir::{Graph, Program};

use crate::canonicalize::canonicalize;
use crate::condelim::cond_elim;
use crate::dce::dce;
use crate::fuel::{CompileFuel, UNLIMITED_FUEL};
use crate::gvn::gvn;
use crate::peel::peel_loops;
use crate::rwelim::rw_elim;
use crate::stats::OptStats;
use crate::typeprop::type_prop;

/// A stage of one pipeline invocation, for observers of per-stage
/// [`OptStats`] deltas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelineStage {
    /// One fixpoint round of the scalar bundle (type propagation,
    /// canonicalization, GVN, conditional elimination, read–write
    /// elimination, DCE).
    Scalar,
    /// The loop-peeling step plus its cleanup bundle.
    Peel,
}

impl std::fmt::Display for PipelineStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineStage::Scalar => f.write_str("scalar"),
            PipelineStage::Peel => f.write_str("peel"),
        }
    }
}

/// Pipeline configuration.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Apply first-iteration loop peeling after the scalar fixpoint.
    pub peel_loops: bool,
    /// Upper bound on fixpoint rounds (each round is itself a fixpoint of
    /// canonicalization, so 2–3 rounds almost always suffice).
    pub max_rounds: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            peel_loops: true,
            max_rounds: 4,
        }
    }
}

/// What one pipeline run did and where it left the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineRun {
    /// The summed events of every stage.
    pub stats: OptStats,
    /// Whether the run left the graph at the pipeline's fixpoint: every fuel
    /// charge was granted, the last scalar round found nothing, and peeling
    /// was off or peeled nothing. Running the same configuration again on
    /// the graph as it is would change nothing — see
    /// [`optimize_converged`]. Not a function of `stats`: a run that stops
    /// at `max_rounds` while still progressing, runs out of fuel, or peels
    /// (the clean-up after a peel is not the whole bundle) has not
    /// converged, whatever it counted.
    pub converged: bool,
}

type Pass = fn(&Program, &mut Graph) -> OptStats;

/// The scalar bundle after type propagation, in pipeline order. The flag
/// marks the passes that also clean up after a peel (narrowed types enable
/// folding in the peeled copy; there is no new branch to learn from).
const SCALAR_PASSES: [(Pass, bool); 5] = [
    (canonicalize, true),
    (|_, graph| gvn(graph), true),
    (|_, graph| cond_elim(graph), false),
    (rw_elim, true),
    (|_, graph| dce(graph), true),
];

/// Type propagation's bit in a run's [`Fresh`] set.
const TYPE_PROP: usize = SCALAR_PASSES.len();

/// The passes of a fixpoint loop that would find nothing on the graph as it
/// is, one bit each. A pass is fresh when its last run counted nothing and
/// nobody has counted since (no event, no change), or when it counted the
/// last event itself (every pass reaches its own fixpoint in one run).
/// Debug builds still run a skipped pass and assert that it counts nothing
/// and keeps the fingerprint — on the graph itself, since a clone would
/// allocate, and `tests/alloc_budget.rs` holds both profiles to one table.
#[derive(Default)]
pub(crate) struct Fresh(u32);

impl Fresh {
    /// Runs pass number `pass` (`run`, which says whether it counted an
    /// event) unless the graph is fresh for it; returns whether it counted.
    pub(crate) fn run(
        &mut self,
        pass: usize,
        graph: &mut Graph,
        mut run: impl FnMut(&mut Graph) -> bool,
    ) -> bool {
        let bit = 1 << pass;
        if self.0 & bit != 0 {
            #[cfg(debug_assertions)]
            {
                let before = graph.fingerprint();
                assert!(
                    !run(graph) && graph.fingerprint() == before,
                    "pass #{pass} changed a graph that was fresh for it"
                );
            }
            return false;
        }
        let counted = run(graph);
        self.0 = if counted { bit } else { self.0 | bit };
        counted
    }

    /// Whether the graph is fresh for every one of passes `0..passes`.
    pub(crate) fn all(&self, passes: usize) -> bool {
        self.0 == (1 << passes) - 1
    }
}

/// One sweep of the scalar bundle, each pass skipped while the graph is
/// fresh for it; after a peel (`peel`), only the passes that clean up.
fn scalar_bundle(program: &Program, graph: &mut Graph, fresh: &mut Fresh, peel: bool) -> OptStats {
    let mut stats = OptStats::new();
    for (index, (pass, cleans_up)) in SCALAR_PASSES.into_iter().enumerate() {
        if cleans_up || !peel {
            fresh.run(index, graph, |graph| {
                let found = pass(program, graph);
                stats += found;
                found.any()
            });
        }
    }
    stats
}

/// Runs the full pipeline with the default configuration and no budget.
pub fn optimize(program: &Program, graph: &mut Graph) -> OptStats {
    optimize_observed(
        program,
        graph,
        PipelineConfig::default(),
        &UNLIMITED_FUEL,
        &mut |_, _| {},
    )
    .stats
}

/// Runs the pipeline under a compile budget, with a per-stage observer.
///
/// Each fixpoint round charges the graph size to `fuel` and the pipeline
/// winds down once the budget is spent; the graph is always left in a valid
/// (if less optimized) state — exhaustion degrades quality, never
/// correctness. After every fixpoint round of the scalar bundle and after
/// the peeling step, `observer` receives the stage tag and that stage's
/// [`OptStats`] delta. Returns the summed total and whether the graph was
/// left at the pipeline's fixpoint.
pub fn optimize_observed(
    program: &Program,
    graph: &mut Graph,
    config: PipelineConfig,
    fuel: &CompileFuel,
    observer: &mut dyn FnMut(PipelineStage, OptStats),
) -> PipelineRun {
    let run = run_stages(program, graph, config, fuel, observer);
    // The passes of one run share the graph's dominator tree; nobody
    // after them does.
    graph.release_dom_tree();
    run
}

fn run_stages(
    program: &Program,
    graph: &mut Graph,
    config: PipelineConfig,
    fuel: &CompileFuel,
    observer: &mut dyn FnMut(PipelineStage, OptStats),
) -> PipelineRun {
    let mut run = PipelineRun {
        stats: OptStats::new(),
        converged: false,
    };
    let mut fresh = Fresh::default();
    for _ in 0..config.max_rounds {
        if !fuel.charge(graph.size() as u64) {
            return run;
        }
        let narrowed = fresh.run(TYPE_PROP, graph, |graph| type_prop(program, graph));
        let round = scalar_bundle(program, graph, &mut fresh, false);
        run.stats += round;
        observer(PipelineStage::Scalar, round);
        run.converged = !(narrowed || round.any());
        if run.converged {
            break;
        }
    }
    if config.peel_loops {
        if !fuel.charge(graph.size() as u64) {
            run.converged = false;
            return run;
        }
        let peeled = peel_loops(program, graph);
        if peeled.any() {
            // Peeling is no member of the fresh set: after it, none is fresh.
            let stage = peeled + scalar_bundle(program, graph, &mut Fresh::default(), true);
            run.stats += stage;
            observer(PipelineStage::Peel, stage);
            run.converged = false;
        }
    }
    run
}

/// [`optimize_observed`] on a graph that a run under the same `config`
/// left [`PipelineRun::converged`] and nothing has edited since, without
/// the passes: such a run pays for its first scalar round and, if that
/// charge is granted, for its peeling step, and changes, counts and reports
/// nothing. The graph stays converged unless the budget ran out on the way.
pub fn optimize_converged(
    graph: &Graph,
    config: PipelineConfig,
    fuel: &CompileFuel,
) -> PipelineRun {
    let size = graph.size() as u64;
    PipelineRun {
        stats: OptStats::new(),
        converged: fuel.charge(size) && (!config.peel_loops || fuel.charge(size)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::graph::CmpOp;
    use incline_ir::types::{RetType, Type};
    use incline_ir::verify::verify_graph;

    /// Storage round-trip + constant branch + dead code, all at once.
    fn needs_two_rounds() -> (Program, Graph) {
        let mut p = Program::new();
        let c = p.add_class("Box", None);
        let f = p.add_field(c, "v", Type::Int);
        let m = p.declare_function("f", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let obj = fb.new_object(c);
        fb.set_field(f, obj, x);
        let l = fb.get_field(f, obj);
        let t = fb.const_bool(true);
        let b1 = fb.add_block();
        let b2 = fb.add_block();
        fb.branch(t, (b1, vec![]), (b2, vec![]));
        fb.switch_to(b1);
        let two = fb.const_int(2);
        let r = fb.imul(l, two); // becomes l << 1
        fb.ret(Some(r));
        fb.switch_to(b2);
        let dead = fb.iadd(x, x);
        fb.ret(Some(dead));
        let g = fb.finish();
        (p, g)
    }

    /// A loop whose object parameter is a `Sub` on entry and a `Base` from
    /// the second iteration on: the peeling trigger, which type propagation
    /// alone cannot satisfy.
    fn peelable_loop() -> (Program, Graph) {
        let mut p = Program::new();
        let base = p.add_class("Base", None);
        let sub = p.add_class("Sub", Some(base));
        let m = p.declare_function("f", vec![Type::Int], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, m);
        let n = fb.param(0);
        let first = fb.new_object(sub);
        let zero = fb.const_int(0);
        let (head, hp) = fb.add_block_with_params(&[Type::Int, Type::Object(base)]);
        let body = fb.add_block();
        let done = fb.add_block();
        fb.jump(head, vec![zero, first]);
        fb.switch_to(head);
        let more = fb.cmp(CmpOp::ILt, hp[0], n);
        fb.branch(more, (body, vec![]), (done, vec![]));
        fb.switch_to(body);
        let is_sub = fb.instance_of(sub, hp[1]);
        fb.print(is_sub);
        let one = fb.const_int(1);
        let next_i = fb.iadd(hp[0], one);
        let next_o = fb.new_object(base);
        fb.jump(head, vec![next_i, next_o]);
        fb.switch_to(done);
        fb.ret(None);
        let g = fb.finish();
        (p, g)
    }

    fn observed(
        p: &Program,
        g: &mut Graph,
        config: PipelineConfig,
        fuel: &CompileFuel,
    ) -> (PipelineRun, usize) {
        let mut stages = 0;
        let run = optimize_observed(p, g, config, fuel, &mut |_, stats| {
            stages += usize::from(stats.any());
        });
        (run, stages)
    }

    #[test]
    fn pipeline_reaches_fixpoint_and_verifies() {
        let (p, mut g) = needs_two_rounds();
        let config = PipelineConfig::default();
        let (first, _) = observed(&p, &mut g, config, &UNLIMITED_FUEL);
        let stats = first.stats;
        assert!(stats.rw_elim >= 1, "{stats:?}");
        assert!(stats.branch_prune >= 1, "{stats:?}");
        assert!(stats.strength_red >= 1, "{stats:?}");
        assert!(stats.dce >= 1, "{stats:?}");
        assert!(first.converged);
        verify_graph(&p, &g, &[Type::Int], RetType::Value(Type::Int)).unwrap();
        // Re-running the pipeline finds nothing new: the graph stays as it
        // is, no stage has anything to report, and the run spends what
        // `optimize_converged` charges in its place.
        let before = g.fingerprint();
        let (real, skipped) = (CompileFuel::limited(1 << 20), CompileFuel::limited(1 << 20));
        let (again, stages) = observed(&p, &mut g, config, &real);
        assert!(!again.stats.any(), "{:?}", again.stats);
        assert_eq!((again.converged, stages), (true, 0));
        assert_eq!(g.fingerprint(), before);
        assert_eq!(optimize_converged(&g, config, &skipped), again);
        assert_eq!(real.spent(), skipped.spent());
        assert_eq!(real.spent(), 2 * g.size() as u64);
    }

    #[test]
    fn a_run_that_did_not_reach_the_fixpoint_says_so() {
        // Stopped by `max_rounds` while still progressing.
        let (p, mut g) = needs_two_rounds();
        let one_round = PipelineConfig {
            peel_loops: false,
            max_rounds: 1,
        };
        let (run, _) = observed(&p, &mut g, one_round, &UNLIMITED_FUEL);
        assert!(run.stats.any() && !run.converged);
        let (run, _) = observed(&p, &mut g, one_round, &UNLIMITED_FUEL);
        assert!(run.converged, "the second round finds nothing: {run:?}");

        // A budget that runs out mid-run: before the second round, and —
        // on a graph already at its fixpoint — before the peeling step.
        let (p, mut g) = needs_two_rounds();
        let config = PipelineConfig::default();
        let fuel = CompileFuel::limited(g.size() as u64);
        let (run, _) = observed(&p, &mut g, config, &fuel);
        assert!(run.stats.any() && !run.converged && fuel.exhausted());
        assert!(observed(&p, &mut g, config, &UNLIMITED_FUEL).0.converged);
        let fuel = CompileFuel::limited(g.size() as u64);
        let (run, _) = observed(&p, &mut g, config, &fuel);
        assert!(!run.stats.any() && !run.converged && fuel.exhausted());

        // A peel: its clean-up is not the whole bundle, so only the next
        // run can tell.
        let (p, mut g) = peelable_loop();
        let (run, _) = observed(&p, &mut g, config, &UNLIMITED_FUEL);
        assert_eq!(run.stats.loops_peeled, 1, "{:?}", run.stats);
        assert!(!run.converged);
        verify_graph(&p, &g, &[Type::Int], RetType::Void).unwrap();
        let (next, _) = observed(&p, &mut g, config, &UNLIMITED_FUEL);
        assert_eq!(next.stats.loops_peeled, 0);
        assert!(next.converged, "{next:?}");
    }

    #[test]
    fn exhausted_fuel_stops_pipeline_but_leaves_valid_graph() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let a = fb.const_int(40);
        let b = fb.const_int(2);
        let s = fb.iadd(a, b);
        let r = fb.iadd(x, s);
        fb.ret(Some(r));
        let mut g = fb.finish();
        let reference = g.clone();
        // Zero budget: no round runs, the graph is untouched and valid.
        let fuel = crate::fuel::CompileFuel::limited(0);
        let (run, _) = observed(&p, &mut g, PipelineConfig::default(), &fuel);
        assert!(!run.stats.any(), "no work under a zero budget: {run:?}");
        assert!(fuel.exhausted());
        assert_eq!(g.size(), reference.size());
        verify_graph(&p, &g, &[Type::Int], RetType::Value(Type::Int)).unwrap();
        // An ample budget performs the folding and records its spend.
        let fuel = crate::fuel::CompileFuel::limited(10_000);
        let (run, _) = observed(&p, &mut g, PipelineConfig::default(), &fuel);
        assert!(run.stats.const_fold >= 1, "{run:?}");
        assert!(fuel.spent() > 0 && !fuel.exhausted());
        verify_graph(&p, &g, &[Type::Int], RetType::Value(Type::Int)).unwrap();
    }

    #[test]
    fn whole_loop_collapses_for_constant_bounds() {
        // for (i = 0; i < 1; i++) { acc += 3 } — peeling + folding + branch
        // pruning should reduce the loop to a constant.
        let mut p = Program::new();
        let base = p.add_class("Base", None);
        let sub = p.add_class("Sub", Some(base));
        let _ = (base, sub);
        let m = p.declare_function("f", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let zero = fb.const_int(0);
        let one = fb.const_int(1);
        let (head, hp) = fb.add_block_with_params(&[Type::Int, Type::Int]);
        let body = fb.add_block();
        let done = fb.add_block();
        fb.jump(head, vec![zero, zero]);
        fb.switch_to(head);
        let c = fb.cmp(CmpOp::ILt, hp[0], one);
        fb.branch(c, (body, vec![]), (done, vec![]));
        fb.switch_to(body);
        let three = fb.const_int(3);
        let acc2 = fb.iadd(hp[1], three);
        let i2 = fb.iadd(hp[0], one);
        fb.jump(head, vec![i2, acc2]);
        fb.switch_to(done);
        fb.ret(Some(hp[1]));
        let mut g = fb.finish();
        optimize(&p, &mut g);
        verify_graph(&p, &g, &[], RetType::Value(Type::Int)).unwrap();
        // Without loop unrolling we don't require a full collapse, but the
        // graph must not have grown out of control.
        assert!(g.size() < 40, "size = {}", g.size());
    }
}
