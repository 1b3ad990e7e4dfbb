//! The pass pipeline used by compilations and by deep inlining trials.
//!
//! [`optimize`] is the full bundle run on specialized call-tree graphs and
//! on root methods between inlining rounds: type propagation →
//! canonicalize → GVN → conditional elimination → read–write elimination →
//! DCE, iterated to a fixpoint. A pass runs only on a graph it has not
//! already seen (`Fresh`). The paper also clones a loop's first iteration
//! at the end of every round when that narrows the type of a loop φ; no
//! workload here has such a loop, so this pipeline does not (DESIGN §1).

use incline_ir::{Graph, Program};

use crate::canonicalize::canonicalize;
use crate::condelim::cond_elim;
use crate::dce::dce;
use crate::fuel::{CompileFuel, UNLIMITED_FUEL};
use crate::gvn::gvn;
use crate::rwelim::rw_elim;
use crate::stats::OptStats;
use crate::typeprop::type_prop;

/// The fixpoint rounds a compilation's pipeline run may take: on the root,
/// in the degraded tier and in the baselines (deep inlining trials take
/// 3). Each round is itself a fixpoint of canonicalization, so 2–3 rounds
/// almost always suffice.
pub const MAX_ROUNDS: usize = 4;

/// What one pipeline run did and where it left the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineRun {
    /// The summed events of every round.
    pub stats: OptStats,
    /// Whether the run left the graph at the pipeline's fixpoint: every fuel
    /// charge was granted and the last round found nothing. Running the
    /// pipeline again on the graph as it is would change nothing — see
    /// [`optimize_converged`]. Not a function of `stats`: a run that stops
    /// at `max_rounds` while still progressing, or runs out of fuel, has not
    /// converged, whatever it counted.
    pub converged: bool,
}

type Pass = fn(&Program, &mut Graph) -> OptStats;

/// The scalar bundle after type propagation, in pipeline order.
const SCALAR_PASSES: [Pass; 5] = [
    canonicalize,
    |_, graph| gvn(graph),
    |_, graph| cond_elim(graph),
    rw_elim,
    |_, graph| dce(graph),
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
/// fresh for it.
fn scalar_bundle(program: &Program, graph: &mut Graph, fresh: &mut Fresh) -> OptStats {
    let mut stats = OptStats::new();
    for (index, pass) in SCALAR_PASSES.into_iter().enumerate() {
        fresh.run(index, graph, |graph| {
            let found = pass(program, graph);
            stats += found;
            found.any()
        });
    }
    stats
}

/// Runs the full pipeline with [`MAX_ROUNDS`] and no budget.
pub fn optimize(program: &Program, graph: &mut Graph) -> OptStats {
    optimize_observed(program, graph, MAX_ROUNDS, &UNLIMITED_FUEL, &mut |_| {}).stats
}

/// Runs at most `max_rounds` fixpoint rounds under a compile budget, with a
/// per-round observer.
///
/// Each round charges the graph size to `fuel` and the pipeline winds down
/// once the budget is spent; the graph is always left in a valid (if less
/// optimized) state — exhaustion degrades quality, never correctness.
/// After every round, `observer` receives that round's [`OptStats`] delta.
/// Returns the summed total and whether the graph was left at the
/// pipeline's fixpoint.
pub fn optimize_observed(
    program: &Program,
    graph: &mut Graph,
    max_rounds: usize,
    fuel: &CompileFuel,
    observer: &mut dyn FnMut(OptStats),
) -> PipelineRun {
    let mut run = PipelineRun {
        stats: OptStats::new(),
        converged: false,
    };
    let mut fresh = Fresh::default();
    for _ in 0..max_rounds {
        if !fuel.charge(graph.size() as u64) {
            break;
        }
        let narrowed = fresh.run(TYPE_PROP, graph, |graph| type_prop(program, graph));
        let round = scalar_bundle(program, graph, &mut fresh);
        run.stats += round;
        observer(round);
        run.converged = !(narrowed || round.any());
        if run.converged {
            break;
        }
    }
    // The passes of one run share the graph's dominator tree; nobody
    // after them does.
    graph.release_dom_tree();
    run
}

/// [`optimize_observed`] on a graph that a run left
/// [`PipelineRun::converged`] and nothing has edited since, without the
/// passes: such a run pays for its first round, and changes, counts and
/// reports nothing. The graph stays converged unless that charge is
/// refused.
pub fn optimize_converged(graph: &Graph, fuel: &CompileFuel) -> PipelineRun {
    PipelineRun {
        stats: OptStats::new(),
        converged: fuel.charge(graph.size() as u64),
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
    /// the second iteration on: the paper's trigger for cloning the first
    /// iteration, which type propagation alone cannot satisfy.
    fn narrowing_loop() -> (Program, Graph) {
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
        max_rounds: usize,
        fuel: &CompileFuel,
    ) -> (PipelineRun, usize) {
        let mut rounds = 0;
        let run = optimize_observed(p, g, max_rounds, fuel, &mut |stats| {
            rounds += usize::from(stats.any());
        });
        (run, rounds)
    }

    #[test]
    fn pipeline_reaches_fixpoint_and_verifies() {
        let (p, mut g) = needs_two_rounds();
        let (first, _) = observed(&p, &mut g, MAX_ROUNDS, &UNLIMITED_FUEL);
        let stats = first.stats;
        assert!(stats.rw_elim >= 1, "{stats:?}");
        assert!(stats.branch_prune >= 1, "{stats:?}");
        assert!(stats.strength_red >= 1, "{stats:?}");
        assert!(stats.dce >= 1, "{stats:?}");
        assert!(first.converged);
        verify_graph(&p, &g, &[Type::Int], RetType::Value(Type::Int)).unwrap();
        // Re-running the pipeline finds nothing new: the graph stays as it
        // is, no round has anything to report, and the run spends what
        // `optimize_converged` charges in its place.
        let before = g.fingerprint();
        let (real, skipped) = (CompileFuel::limited(1 << 20), CompileFuel::limited(1 << 20));
        let (again, rounds) = observed(&p, &mut g, MAX_ROUNDS, &real);
        assert!(!again.stats.any(), "{:?}", again.stats);
        assert_eq!((again.converged, rounds), (true, 0));
        assert_eq!(g.fingerprint(), before);
        assert_eq!(optimize_converged(&g, &skipped), again);
        assert_eq!(real.spent(), skipped.spent());
        assert_eq!(real.spent(), g.size() as u64);
    }

    #[test]
    fn a_run_that_did_not_reach_the_fixpoint_says_so() {
        // Stopped by `max_rounds` while still progressing.
        let (p, mut g) = needs_two_rounds();
        let (run, _) = observed(&p, &mut g, 1, &UNLIMITED_FUEL);
        assert!(run.stats.any() && !run.converged);
        let (run, _) = observed(&p, &mut g, 1, &UNLIMITED_FUEL);
        assert!(run.converged, "the second round finds nothing: {run:?}");

        // A budget that runs out mid-run: before the second round, and —
        // on a graph already at its fixpoint — before the first.
        let (p, mut g) = needs_two_rounds();
        let fuel = CompileFuel::limited(g.size() as u64);
        let (run, _) = observed(&p, &mut g, MAX_ROUNDS, &fuel);
        assert!(run.stats.any() && !run.converged && fuel.exhausted());
        let (run, _) = observed(&p, &mut g, MAX_ROUNDS, &UNLIMITED_FUEL);
        assert!(run.converged);
        let fuel = CompileFuel::limited(g.size() as u64 - 1);
        let (run, _) = observed(&p, &mut g, MAX_ROUNDS, &fuel);
        assert!(!run.stats.any() && !run.converged && fuel.exhausted());

        // The paper's trigger for cloning a loop's first iteration: the
        // pipeline clones nothing, keeps the loop and reaches its fixpoint
        // in one run.
        let (p, mut g) = narrowing_loop();
        let blocks = g.block_order().len();
        let (run, _) = observed(&p, &mut g, MAX_ROUNDS, &UNLIMITED_FUEL);
        assert!(run.converged, "{run:?}");
        assert!(g.block_order().len() <= blocks);
        assert_eq!(g.loop_forest().loops.len(), 1);
        verify_graph(&p, &g, &[Type::Int], RetType::Void).unwrap();
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
        let (run, _) = observed(&p, &mut g, MAX_ROUNDS, &fuel);
        assert!(!run.stats.any(), "no work under a zero budget: {run:?}");
        assert!(fuel.exhausted());
        assert_eq!(g.size(), reference.size());
        verify_graph(&p, &g, &[Type::Int], RetType::Value(Type::Int)).unwrap();
        // An ample budget performs the folding and records its spend.
        let fuel = crate::fuel::CompileFuel::limited(10_000);
        let (run, _) = observed(&p, &mut g, MAX_ROUNDS, &fuel);
        assert!(run.stats.const_fold >= 1, "{run:?}");
        assert!(fuel.spent() > 0 && !fuel.exhausted());
        verify_graph(&p, &g, &[Type::Int], RetType::Value(Type::Int)).unwrap();
    }

    #[test]
    fn whole_loop_collapses_for_constant_bounds() {
        // for (i = 0; i < 1; i++) { acc += 3 } — folding and branch pruning
        // should shrink the loop.
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
