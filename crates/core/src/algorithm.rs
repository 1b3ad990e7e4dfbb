//! The optimization-driven incremental inlining algorithm (paper §III–IV).
//!
//! [`IncrementalInliner::compile`] is Listing 1: rounds of *expansion*
//! (Listing 3: priority-guided descent with the adaptive threshold of
//! Equation 8), *cost–benefit analysis* (Listing 6: greedy callsite
//! clustering over ⊕/⊙ tuples), and *inlining* (Listing 5: best-cluster
//! selection under the adaptive threshold of Equation 12, with typeswitch
//! emission for polymorphic nodes), alternated with the optimizer until a
//! fixpoint, a size cap, or the round limit.

use incline_ir::inline::inline_call;
use incline_ir::{InstId, MethodId};
use incline_opt::OptStats;
use incline_trace::{CompileEvent, OptPhase};

use crate::calltree::{CallTree, NodeId, NodeKind, RootIndex, SubtreeMetrics};
use crate::inliner::{CompileCx, CompileError, CompileOutcome, InlineStats, Inliner};
use crate::metrics::{
    expansion_bar, exploration_penalty, inline_bar, may_inline, recursion_penalty, should_expand,
    Tuple,
};
use crate::policy::{Clustering, PolicyConfig};
use crate::typeswitch::{emit_typeswitch, TypeswitchCase};

/// The paper's inliner, parameterized by a [`PolicyConfig`] so that every
/// ablation of the evaluation is expressible.
#[derive(Clone, Debug, Default)]
pub struct IncrementalInliner {
    /// Heuristic configuration.
    pub config: PolicyConfig,
    /// Display name override (used by benchmark tables).
    pub label: Option<String>,
}

impl IncrementalInliner {
    /// Creates the inliner with the paper's tuned configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the inliner with an explicit configuration.
    pub fn with_config(config: PolicyConfig) -> Self {
        IncrementalInliner {
            config,
            label: None,
        }
    }

    /// Sets the display name.
    pub fn named(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }
}

impl IncrementalInliner {
    /// Like [`Inliner::compile`], but after every expansion, refusal,
    /// inlining step and specialization refresh asserts that the numbers the
    /// call tree stores or sweeps — `|ir(n)|`, `S_ir`, `S_b`, `N_c`, the
    /// intrinsic priorities and the open-cutoff flags — equal the recursive,
    /// freshly measured reference, bit for bit, and that the shape analyses
    /// cached on the root and on every attached graph equal a fresh walk.
    ///
    /// # Errors
    ///
    /// Same as [`Inliner::compile`].
    ///
    /// # Panics
    ///
    /// Panics on the first number that differs.
    #[cfg(debug_assertions)]
    pub fn compile_audited(
        &self,
        method: MethodId,
        cx: &CompileCx<'_>,
    ) -> Result<CompileOutcome, CompileError> {
        self.compile_impl(method, cx, Some(reference::audit))
    }

    fn compile_impl(
        &self,
        method: MethodId,
        cx: &CompileCx<'_>,
        audit: Audit,
    ) -> Result<CompileOutcome, CompileError> {
        let config = &self.config;
        let mut opt_total = OptStats::new();

        let mut tree = CallTree::with_root(method, cx.root_graph(method)?);
        opt_total += tree.optimize_root(cx, OptPhase::Initial);
        tree.create_children(tree.root(), cx, config);
        let mut rounds = 0u64;
        let mut inlined_calls = 0u64;
        let mut speculative_sites = 0u64;
        let mut starved_rounds = 0u32;

        // Listing 1: while !detectTermination { expand; analyze; inline }.
        loop {
            rounds += 1;
            // Each round costs at least the root it re-processes; a spent
            // budget aborts the compilation so the broker's ladder can
            // fall back to a cheaper tier.
            if !cx.charge(tree.root_size() as u64) {
                return Err(CompileError::out_of_fuel(cx.fuel));
            }
            cx.emit(|| CompileEvent::RoundStart {
                method,
                round: rounds as u32,
                root_size: tree.root_size() as f64,
                tree_nodes: tree.len(),
            });
            let expanded = expand_phase(&mut tree, cx, config, audit);
            analyze_phase(&mut tree, cx, config);
            let inlined = inline_phase(&mut tree, cx, config, &mut speculative_sites, audit);
            inlined_calls += inlined;

            // End of round (§IV, Other optimizations): read–write
            // elimination and loop peeling run on the root — unless the
            // round inlined nothing into a root already at its fixpoint.
            opt_total += tree.optimize_root(cx, OptPhase::Round);
            let live = RootIndex::new(tree.root_graph());
            tree.sync_root_children(cx, &live);
            refresh_specializations(&mut tree, cx, config, &live, audit);
            cx.emit(|| CompileEvent::RoundEnd {
                method,
                round: rounds as u32,
                expanded,
                inlined,
                root_size: tree.root_size() as f64,
                tree_nodes: tree.len(),
            });
            // Rendering the tree is far too expensive for the hot path, so
            // the snapshot is gated on an enabled sink rather than built
            // inside a lazy closure that borrows `tree` anyway.
            if cx.tracing() {
                cx.trace.emit(CompileEvent::TreeSnapshot {
                    round: rounds as u32,
                    text: crate::render::render(&tree, cx),
                });
            }

            // Expansion without inlining decisions means the thresholds
            // reject everything the exploration surfaces; growing the tree
            // further only costs compile time (§II.2). Two starved rounds
            // end the compilation.
            starved_rounds = if inlined == 0 { starved_rounds + 1 } else { 0 };
            let changed = expanded > 0 || inlined > 0;
            if !changed
                || starved_rounds >= 2
                || rounds as usize >= config.max_rounds
                || tree.root_size() > config.root_size_cap
            {
                break;
            }
        }

        opt_total += tree.optimize_root(cx, OptPhase::Final);
        let final_size = tree.root_size();
        let explored = tree.explored_nodes;
        Ok(CompileOutcome {
            graph: tree.into_root_graph(),
            work_nodes: explored + final_size,
            stats: InlineStats {
                inlined_calls,
                rounds,
                explored_nodes: explored as u64,
                final_size: final_size as u64,
                opt_events: opt_total.total(),
                speculative_sites,
            },
        })
    }
}

impl Inliner for IncrementalInliner {
    fn name(&self) -> &str {
        self.label.as_deref().unwrap_or("incremental")
    }

    fn compile(
        &self,
        method: MethodId,
        cx: &CompileCx<'_>,
    ) -> Result<CompileOutcome, CompileError> {
        self.compile_impl(method, cx, None)
    }
}

/// The check [`IncrementalInliner::compile_audited`] runs after every step
/// that changes the call tree (`None` in ordinary compilations). Inside the
/// expansion phase it also gets that phase's table and refusals.
type Audit =
    Option<fn(&CallTree, Option<(&ExpansionView, &[bool])>, &CompileCx<'_>, &PolicyConfig)>;

// ---- priorities (Equations 5–7, 14) ---------------------------------------

/// What the expansion phase knows about every node, by node index: the
/// subtree metrics (Equations 1–3), the intrinsic priority `P_I(n)`
/// (Equations 5–6, with the recursion penalty `ψ_r` of Equation 14 applied
/// to cutoff nodes) and whether the subtree still holds a cutoff that has
/// not been refused.
///
/// Built once per expansion phase in one sweep over the node arena from the
/// back (children are created after their parents, so a child's entry is
/// final when its parent reads it), then kept current along the changed
/// node's ancestor path after every expansion and refusal. `descend` costs
/// a lookup per candidate instead of a walk of the candidate's subtree, and
/// a step costs its depth times the fan-out instead of a sweep of the tree.
#[derive(Debug)]
struct ExpansionView {
    metrics: Vec<SubtreeMetrics>,
    intrinsic: Vec<f64>,
    open: Vec<bool>,
}

impl ExpansionView {
    /// The view of `tree`, in which no cutoff has been refused yet.
    fn new(tree: &CallTree, cx: &CompileCx<'_>, config: &PolicyConfig) -> Self {
        let mut view = ExpansionView {
            metrics: Vec::new(),
            intrinsic: Vec::new(),
            open: Vec::new(),
        };
        view.enter_new_nodes(tree, cx, config);
        view
    }

    /// Sizes the tables for the nodes created since the last call and
    /// settles them from the back.
    fn enter_new_nodes(&mut self, tree: &CallTree, cx: &CompileCx<'_>, config: &PolicyConfig) {
        let first = self.metrics.len();
        self.metrics.resize(tree.len(), SubtreeMetrics::default());
        self.intrinsic.resize(tree.len(), f64::NEG_INFINITY);
        self.open.resize(tree.len(), false);
        for n in (first..tree.len()).rev() {
            self.settle(tree, NodeId(n), cx, config);
        }
    }

    /// Recomputes the entries of `n` from its children's, which must be
    /// final. The sums are integer-valued, so they are exact in any order,
    /// and the priority maximum is folded in child order, as the recursive
    /// definition does, so it is the same float. A cutoff reaching here has
    /// not been refused: a refusal only clears flags.
    fn settle(&mut self, tree: &CallTree, n: NodeId, cx: &CompileCx<'_>, config: &PolicyConfig) {
        self.metrics[n.0] = tree.subtree_metrics_from(n, cx, &self.metrics);
        let node = tree.node(n);
        match node.kind {
            NodeKind::Cutoff => {
                let mut p = tree.local_benefit(n) / tree.ir_size(n, cx).max(1.0);
                if config.recursion_penalty {
                    p -= recursion_penalty(node.freq, node.rec_depth);
                }
                self.intrinsic[n.0] = p;
                self.open[n.0] = true;
            }
            NodeKind::Expanded | NodeKind::Polymorphic | NodeKind::Root => {
                self.intrinsic[n.0] = node
                    .children
                    .iter()
                    .map(|&c| self.intrinsic[c.0])
                    .fold(f64::NEG_INFINITY, f64::max);
                self.open[n.0] = node.children.iter().any(|&c| self.open[c.0]);
            }
            _ => {}
        }
    }

    /// After `expand_node(c)`: enters the nodes it created (all in `c`'s
    /// subtree), then settles `c` and every ancestor, whose sums changed
    /// and whose maximum may have gone down as well as up.
    fn expanded(&mut self, tree: &CallTree, c: NodeId, cx: &CompileCx<'_>, config: &PolicyConfig) {
        self.enter_new_nodes(tree, cx, config);
        let mut up = Some(c);
        while let Some(a) = up {
            self.settle(tree, a, cx, config);
            up = tree.node(a).parent;
        }
    }

    /// After the expansion test turned the cutoff `c` down: closes it for
    /// the rest of the phase, and every ancestor left without an open
    /// cutoff. Nothing above the first ancestor whose flag stays can change.
    fn refused(&mut self, tree: &CallTree, c: NodeId) {
        self.open[c.0] = false;
        let mut up = tree.node(c).parent;
        while let Some(a) = up {
            let open = tree.node(a).children.iter().any(|&k| self.open[k.0]);
            if open == self.open[a.0] {
                break;
            }
            self.open[a.0] = open;
            up = tree.node(a).parent;
        }
    }

    /// Final priority `P(n) = P_I(n) − ψ(n)` (Equation 6 with Equation 7).
    fn priority(&self, n: NodeId, config: &PolicyConfig) -> f64 {
        let m = &self.metrics[n.0];
        self.intrinsic[n.0] - exploration_penalty(&config.penalty, m.s_ir, m.s_b, m.n_c as f64)
    }
}

// ---- expansion phase (Listing 3) -------------------------------------------

/// `descend` (Listing 4): follow the best-priority child until a cutoff.
fn descend(tree: &CallTree, view: &ExpansionView, config: &PolicyConfig) -> Option<NodeId> {
    let mut n = tree.root();
    while tree.node(n).kind != NodeKind::Cutoff {
        // The last of the best children wins a tie, as with
        // `Iterator::max_by`; an incomparable (NaN) priority yields to its
        // successor.
        let mut best: Option<(NodeId, f64)> = None;
        for &c in &tree.node(n).children {
            if !view.open[c.0] {
                continue;
            }
            let p = view.priority(c, config);
            let keep =
                best.is_some_and(|(_, bp)| bp.partial_cmp(&p) == Some(std::cmp::Ordering::Greater));
            if !keep {
                best = Some((c, p));
            }
        }
        n = best?.0;
    }
    view.open[n.0].then_some(n)
}

/// The expansion phase. Returns the number of nodes expanded.
fn expand_phase(
    tree: &mut CallTree,
    cx: &CompileCx<'_>,
    config: &PolicyConfig,
    audit: Audit,
) -> usize {
    let mut refused: Vec<bool> = Vec::new();
    let mut view = ExpansionView::new(tree, cx, config);
    let mut expansions = 0usize;
    loop {
        if expansions >= config.max_expansions_per_round {
            break;
        }
        refused.resize(tree.len(), false);
        if let Some(audit) = audit {
            audit(tree, Some((&view, &refused)), cx, config);
        }
        let root_metrics = view.metrics[tree.root().0];
        let Some(cutoff) = descend(tree, &view, config) else {
            break;
        };
        // `expandCutoff` (Listing 3): the adaptive/fixed threshold of
        // Equation 8 decides whether to attach the IR.
        let b_l = tree.local_benefit(cutoff);
        let ir = tree.ir_size(cutoff, cx);
        if should_expand(&config.expansion, b_l, ir, root_metrics.s_ir) {
            let won_priority = view.intrinsic[cutoff.0];
            let attached = tree.expand_node(cutoff, cx, config);
            view.expanded(tree, cutoff, cx, config);
            expansions += 1;
            cx.emit(|| {
                let node = tree.node(cutoff);
                CompileEvent::NodeExpanded {
                    method: node.method.expect("expanded nodes have a target"),
                    kind: crate::render::kind_tag(node.kind),
                    freq: node.freq,
                    priority: won_priority,
                    ns: node.ns,
                    no: node.no,
                    attached,
                }
            });
        } else {
            cx.emit(|| {
                let m = view.metrics[cutoff.0];
                CompileEvent::CutoffDeferred {
                    method: tree.node(cutoff).method.expect("cutoffs have a target"),
                    local_benefit: b_l,
                    ir_size: ir,
                    root_ir: root_metrics.s_ir,
                    required_density: expansion_bar(&config.expansion, root_metrics.s_ir),
                    penalty: exploration_penalty(&config.penalty, m.s_ir, m.s_b, m.n_c as f64),
                }
            });
            refused[cutoff.0] = true;
            view.refused(tree, cutoff);
        }
    }
    expansions
}

// ---- analysis phase (Listing 6) ---------------------------------------------

fn is_cluster_kind(kind: NodeKind) -> bool {
    matches!(kind, NodeKind::Expanded | NodeKind::Polymorphic)
}

/// Bottom-up cost–benefit analysis with callsite clustering.
fn analyze_phase(tree: &mut CallTree, cx: &CompileCx<'_>, config: &PolicyConfig) {
    let root = tree.root();
    let s_root = tree.subtree_metrics(root, cx).s_ir;
    let children: Vec<NodeId> = tree.node(root).children.clone();
    for c in children {
        analyze_node(tree, c, cx, config, s_root);
    }
}

/// Whether a child's benefit is *realizable* — i.e. the child could itself
/// plausibly be inlined, so that inlining its parent alone genuinely
/// forfeits something. Expanded/polymorphic children are realizable;
/// cutoff children only when their benefit density would still pass the
/// expansion threshold (a huge cold callee that will never be explored is
/// not an opportunity cost).
fn realizable(
    tree: &CallTree,
    c: NodeId,
    cx: &CompileCx<'_>,
    config: &PolicyConfig,
    s_root: f64,
) -> bool {
    match tree.node(c).kind {
        NodeKind::Expanded | NodeKind::Polymorphic => true,
        NodeKind::Cutoff => should_expand(
            &config.expansion,
            tree.local_benefit(c),
            tree.ir_size(c, cx),
            s_root,
        ),
        _ => false,
    }
}

fn analyze_node(
    tree: &mut CallTree,
    n: NodeId,
    cx: &CompileCx<'_>,
    config: &PolicyConfig,
    s_root: f64,
) {
    // Post-order: children first (they form their own clusters).
    let children: Vec<NodeId> = tree.node(n).children.clone();
    for c in &children {
        analyze_node(tree, *c, cx, config, s_root);
    }
    if !is_cluster_kind(tree.node(n).kind) {
        return;
    }

    tree.node_mut(n).inlined_with_parent = false;

    if config.clustering == Clustering::OneByOne {
        // Figure 8 ablation: every method is its own cluster; the benefit
        // is the plain local benefit.
        let tuple = Tuple::new(tree.local_benefit(n), tree.ir_size(n, cx));
        tree.node_mut(n).tuple = tuple;
        return;
    }

    // Listing 6: the initial tuple forfeits the children's benefits. A
    // polymorphic node is different: its Equation-13 benefit is *already*
    // the probability-weighted sum of its targets, so discounting the
    // targets again would make every typeswitch look worthless. Its own
    // contribution is the devirtualization gain (one saved dispatch per
    // execution), and its targets merge in through the front as usual
    // (their tuples are p-scaled via their frequencies).
    let own_benefit = if tree.node(n).kind == NodeKind::Polymorphic {
        tree.node(n).freq
    } else {
        let child_benefit: f64 = children
            .iter()
            .filter(|&&c| realizable(tree, c, cx, config, s_root))
            .map(|&c| tree.local_benefit(c))
            .sum();
        tree.local_benefit(n) - child_benefit
    };
    let mut tuple = Tuple::new(own_benefit, tree.ir_size(n, cx));
    let mut members = 1usize;

    // …and the front contains the adjacent child clusters.
    let mut front: Vec<NodeId> = children
        .iter()
        .copied()
        .filter(|&c| is_cluster_kind(tree.node(c).kind))
        .collect();

    while !front.is_empty() {
        // The adjacent cluster with the highest benefit-to-cost ratio.
        let (idx, &m) = front
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| {
                tree.node(a)
                    .tuple
                    .ratio()
                    .partial_cmp(&tree.node(b).tuple.ratio())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("front nonempty");
        let merged = tuple.merge(tree.node(m).tuple);
        if merged.ratio() > tuple.ratio() {
            tuple = merged;
            members += 1;
            tree.node_mut(m).inlined_with_parent = true;
            front.swap_remove(idx);
            // The merged cluster's own front joins ours.
            let mf: Vec<NodeId> = tree
                .node(m)
                .children
                .iter()
                .copied()
                .filter(|&c| {
                    is_cluster_kind(tree.node(c).kind) && !tree.node(c).inlined_with_parent
                })
                .collect();
            front.extend(mf);
        } else {
            break;
        }
    }
    tree.node_mut(n).tuple = tuple;
    if members > 1 {
        cx.emit(|| CompileEvent::ClusterFormed {
            method: tree.node(n).method,
            members,
            benefit: tuple.benefit,
            cost: tuple.cost,
        });
    }
}

// ---- inlining phase (Listing 5) ----------------------------------------------

/// The inlining phase. Returns the number of callsites inlined.
fn inline_phase(
    tree: &mut CallTree,
    cx: &CompileCx<'_>,
    config: &PolicyConfig,
    spec_sites: &mut u64,
    audit: Audit,
) -> u64 {
    let root = tree.root();
    let mut queue: Vec<NodeId> = tree
        .node(root)
        .children
        .iter()
        .copied()
        .filter(|&c| is_cluster_kind(tree.node(c).kind))
        .collect();
    if queue.is_empty() {
        return 0;
    }
    let mut step = InlineStep {
        index: RootIndex::new(tree.root_graph()),
        inlined: 0,
        spec_sites,
        audit,
    };

    while !queue.is_empty() {
        // bestCluster: highest benefit-to-cost ratio.
        let (idx, &n) = queue
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| {
                tree.node(a)
                    .tuple
                    .ratio()
                    .partial_cmp(&tree.node(b).tuple.ratio())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("queue nonempty");
        queue.swap_remove(idx);

        let root_size = tree.root_size() as f64;
        if root_size > config.root_size_cap as f64 {
            break;
        }
        let tuple = tree.node(n).tuple;
        let node_size = tree.ir_size(n, cx);
        let accepted = may_inline(&config.inlining, tuple, root_size, node_size);
        cx.emit(|| CompileEvent::InlineDecision {
            method: tree.node(n).method,
            benefit: tuple.benefit,
            cost: tuple.cost,
            threshold: inline_bar(&config.inlining, root_size, node_size),
            root_size,
            accepted,
        });
        if !accepted {
            continue; // skip; smaller clusters may still pass
        }
        let fronts = inline_cluster(tree, n, cx, config, &mut step);
        queue.extend(
            fronts
                .into_iter()
                .filter(|&c| is_cluster_kind(tree.node(c).kind)),
        );
    }

    // Drop consumed nodes from the root's child list.
    let keep: Vec<NodeId> = tree
        .node(root)
        .children
        .iter()
        .copied()
        .filter(|&c| tree.node(c).kind != NodeKind::Inlined)
        .collect();
    tree.node_mut(root).children = keep;
    step.inlined
}

/// What the inlining steps of one phase share: where the root's
/// instructions are, and what the steps have done so far.
struct InlineStep<'a> {
    /// Kept current across the steps, so locating a callsite is a lookup
    /// rather than a walk over the root's callsites.
    index: RootIndex,
    inlined: u64,
    spec_sites: &'a mut u64,
    audit: Audit,
}

/// `inlineCluster` (Listing 5): transplants the node's specialized body
/// into the root, re-anchors its children, and recursively inlines cluster
/// members. Returns the cluster's front (new root children).
fn inline_cluster(
    tree: &mut CallTree,
    n: NodeId,
    cx: &CompileCx<'_>,
    config: &PolicyConfig,
    step: &mut InlineStep<'_>,
) -> Vec<NodeId> {
    let root = tree.root();
    let kind = tree.node(n).kind;
    let callsite = tree.node(n).callsite.expect("cluster nodes have callsites");
    let Some(block) = step.index.call_block(tree.root_graph(), callsite) else {
        // The callsite disappeared (an earlier optimization or sibling
        // inline removed it): nothing to do.
        tree.node_mut(n).kind = NodeKind::Deleted;
        return Vec::new();
    };

    // The node is consumed: its children will hang off the root.
    let children = std::mem::take(&mut tree.node_mut(n).children);
    match kind {
        NodeKind::Expanded => {
            let body = tree
                .node_mut(n)
                .graph
                .take()
                .expect("expanded node has a graph");
            let res = tree.inline_step(&mut step.index, block, |root_graph| {
                let res = inline_call(root_graph, block, callsite, &body);
                let (continuation, returns) = (res.continuation, res.return_edges > 0);
                (res, continuation, returns)
            });
            step.inlined += 1;
            tree.node_mut(n).kind = NodeKind::Inlined;
            for &c in &children {
                // Re-anchor the child (and, for polymorphic children, the
                // target grandchildren sharing the same callsite inst).
                remap_callsite(tree, c, &res.inst_map);
                if tree.node(c).kind == NodeKind::Polymorphic {
                    for i in 0..tree.node(c).children.len() {
                        let g = tree.node(c).children[i];
                        remap_callsite(tree, g, &res.inst_map);
                    }
                }
            }
        }
        NodeKind::Polymorphic => {
            let cases: Vec<TypeswitchCase> = children
                .iter()
                .map(|&c| TypeswitchCase {
                    target: tree.node(c).method.expect("target known"),
                    guard: tree.node(c).speculated_class.expect("guard known"),
                })
                .collect();
            // Paper §IV: with deoptimization support, a cascade whose
            // speculated receivers cover (almost) all profiled traffic
            // replaces the virtual fallback with an uncommon trap.
            let coverage: f64 = children.iter().map(|&c| tree.node(c).poly_prob).sum();
            let fallback = cx.speculation.fallback(coverage);
            let res = tree.inline_step(&mut step.index, block, |root_graph| {
                let res =
                    emit_typeswitch(cx.program, root_graph, block, callsite, &cases, fallback);
                // Every case jumps to the continuation, so it stays reachable.
                let continuation = res.continuation;
                (res, continuation, true)
            });
            step.inlined += 1; // the typeswitch itself is an inlining decision
            *step.spec_sites += 1;
            tree.node_mut(n).kind = NodeKind::Inlined;
            for (&c, &case_call) in children.iter().zip(&res.case_calls) {
                tree.node_mut(c).callsite = Some(case_call);
            }
        }
        other => unreachable!("inline_cluster on {other:?}"),
    }
    if let Some(audit) = step.audit {
        audit(tree, None, cx, config);
    }

    // The children now hang off the root; cluster members follow their
    // parent into it, the rest form the cluster's front.
    let mut front = Vec::new();
    for c in children {
        tree.node_mut(c).parent = Some(root);
        tree.node_mut(root).children.push(c);
        if tree.node(c).inlined_with_parent && is_cluster_kind(tree.node(c).kind) {
            let mut sub = inline_cluster(tree, c, cx, config, step);
            front.append(&mut sub);
        } else {
            front.push(c);
        }
    }
    front
}

fn remap_callsite(tree: &mut CallTree, c: NodeId, inst_map: &[Option<InstId>]) {
    if let Some(old) = tree.node(c).callsite {
        if let Some(new) = inst_map[old.index()] {
            tree.node_mut(c).callsite = Some(new);
        }
    }
}

// ---- deep-trials fixpoint (§IV) ------------------------------------------------

/// Re-specializes direct children of the root whose callsite arguments
/// became more precise after the round's optimizations (the paper's
/// "repeat until fixpoint" of deep inlining trials). `live` indexes the
/// root graph as it is now.
fn refresh_specializations(
    tree: &mut CallTree,
    cx: &CompileCx<'_>,
    config: &PolicyConfig,
    live: &RootIndex,
    audit: Audit,
) {
    let root = tree.root();
    for i in 0..tree.node(root).children.len() {
        let c = tree.node(root).children[i];
        let node = tree.node(c);
        if node.kind != NodeKind::Expanded {
            continue;
        }
        let Some(site) = node.callsite else { continue };
        if live.call_block(tree.root_graph(), site).is_none() {
            continue;
        }
        if tree.potential_ns(c, cx) > tree.node(c).ns {
            // Re-run the trial with the improved argument facts.
            let n = tree.node_mut(c);
            n.kind = NodeKind::Cutoff;
            n.children.clear();
            n.ns = 0;
            n.no = 0;
            n.graph = None;
            tree.expand_node(c, cx, config);
            if let Some(audit) = audit {
                audit(tree, None, cx, config);
            }
        }
    }
}

/// The recursive, freshly measured definitions of the numbers the call tree
/// stores or sweeps — what [`IncrementalInliner::compile_audited`] holds
/// the maintained ones to.
#[cfg(debug_assertions)]
mod reference {
    use super::*;

    /// Intrinsic priority `P_I(n)` (Equations 5–6), with the recursion
    /// penalty `ψ_r` (Equation 14) applied to cutoff nodes.
    fn intrinsic_priority(
        tree: &CallTree,
        n: NodeId,
        cx: &CompileCx<'_>,
        config: &PolicyConfig,
    ) -> f64 {
        let node = tree.node(n);
        match node.kind {
            NodeKind::Cutoff => {
                let mut p = tree.local_benefit(n) / tree.reference_ir_size(n, cx).max(1.0);
                if config.recursion_penalty {
                    p -= recursion_penalty(node.freq, node.rec_depth);
                }
                p
            }
            NodeKind::Expanded | NodeKind::Polymorphic | NodeKind::Root => node
                .children
                .iter()
                .map(|&c| intrinsic_priority(tree, c, cx, config))
                .fold(f64::NEG_INFINITY, f64::max),
            _ => f64::NEG_INFINITY,
        }
    }

    /// Whether the subtree under `n` still contains a cutoff not yet refused.
    fn has_open_cutoff(tree: &CallTree, n: NodeId, refused: &[bool]) -> bool {
        let node = tree.node(n);
        match node.kind {
            NodeKind::Cutoff => !refused[n.0],
            NodeKind::Expanded | NodeKind::Polymorphic | NodeKind::Root => node
                .children
                .iter()
                .any(|&c| has_open_cutoff(tree, c, refused)),
            _ => false,
        }
    }

    /// Asserts, for every node ever created, that the maintained numbers
    /// equal the reference ones bit for bit.
    pub(super) fn audit(
        tree: &CallTree,
        phase: Option<(&ExpansionView, &[bool])>,
        cx: &CompileCx<'_>,
        config: &PolicyConfig,
    ) {
        // Inside the expansion phase the table under audit is the phase's
        // own, kept current step by step; elsewhere a fresh sweep.
        let mut fresh = Vec::new();
        let swept = match phase {
            Some((view, _)) => &view.metrics,
            None => {
                tree.subtree_metrics_into(cx, &mut fresh);
                &fresh
            }
        };
        // The analyses cached on the graphs the tree reads must be those of
        // the graphs as they are.
        tree.root_graph().assert_shape_analyses_fresh();
        for n in tree.node_ids() {
            let kind = tree.node(n).kind;
            if let Some(graph) = &tree.node(n).graph {
                graph.assert_shape_analyses_fresh();
            }
            assert_eq!(
                tree.ir_size(n, cx).to_bits(),
                tree.reference_ir_size(n, cx).to_bits(),
                "stored |ir| of {n:?} ({kind:?}) is stale"
            );
            let want = tree.reference_subtree_metrics(n, cx);
            let got = swept[n.0];
            assert_eq!(
                (got.s_ir.to_bits(), got.s_b.to_bits(), got.n_c),
                (want.s_ir.to_bits(), want.s_b.to_bits(), want.n_c),
                "swept subtree metrics of {n:?} ({kind:?}): {got:?}, reference {want:?}"
            );
            let Some((view, refused)) = phase else {
                continue;
            };
            assert_eq!(
                view.intrinsic[n.0].to_bits(),
                intrinsic_priority(tree, n, cx, config).to_bits(),
                "intrinsic priority of {n:?} ({kind:?})"
            );
            assert_eq!(
                view.open[n.0],
                has_open_cutoff(tree, n, refused),
                "open-cutoff flag of {n:?} ({kind:?})"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::verify::verify_graph;
    use incline_ir::{CmpOp, Program, RetType, Type};
    use incline_profile::ProfileTable;

    fn cx<'a>(p: &'a Program, t: &'a ProfileTable) -> CompileCx<'a> {
        CompileCx::new(p, t)
    }

    /// Figure 1 analog: log(xs) → foreach loop → {length, get, apply}.
    /// Built as: root(n) loops calling tiny hot callees.
    fn hot_chain() -> (Program, MethodId) {
        let mut p = Program::new();
        let inc = p.declare_function("inc", vec![Type::Int], Type::Int);
        let dbl = p.declare_function("dbl", vec![Type::Int], Type::Int);
        let root = p.declare_function("root", vec![Type::Int], Type::Int);

        let mut fb = FunctionBuilder::new(&p, inc);
        let x = fb.param(0);
        let one = fb.const_int(1);
        let r = fb.iadd(x, one);
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(inc, g);

        let mut fb = FunctionBuilder::new(&p, dbl);
        let x = fb.param(0);
        let two = fb.const_int(2);
        let r = fb.imul(x, two);
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(dbl, g);

        let mut fb = FunctionBuilder::new(&p, root);
        let n = fb.param(0);
        let zero = fb.const_int(0);
        let (head, hp) = fb.add_block_with_params(&[Type::Int, Type::Int]);
        let body = fb.add_block();
        let (done, dp) = fb.add_block_with_params(&[Type::Int]);
        fb.jump(head, vec![zero, zero]);
        fb.switch_to(head);
        let c = fb.cmp(CmpOp::ILt, hp[0], n);
        fb.branch(c, (body, vec![]), (done, vec![hp[1]]));
        fb.switch_to(body);
        let a = fb.call_static(inc, vec![hp[1]]).unwrap();
        let b = fb.call_static(dbl, vec![a]).unwrap();
        let one = fb.const_int(1);
        let i2 = fb.iadd(hp[0], one);
        fb.jump(head, vec![i2, b]);
        fb.switch_to(done);
        fb.ret(Some(dp[0]));
        let g = fb.finish();
        p.define_method(root, g);
        (p, root)
    }

    /// Seeds profiles as if `root(64)` ran `runs` times.
    fn seed_profiles(p: &Program, root: MethodId, runs: u64, iters: u64) -> ProfileTable {
        let mut t = ProfileTable::new();
        let inc = p.function_by_name("inc").unwrap();
        let dbl = p.function_by_name("dbl").unwrap();
        for _ in 0..runs {
            t.record_invocation(root);
            for _ in 0..iters {
                t.record_backedge(root);
                t.record_callsite(incline_ir::CallSiteId {
                    method: root,
                    index: 0,
                });
                t.record_callsite(incline_ir::CallSiteId {
                    method: root,
                    index: 1,
                });
                t.record_invocation(inc);
                t.record_invocation(dbl);
            }
        }
        t
    }

    #[test]
    fn inlines_hot_loop_callees() {
        let (p, root) = hot_chain();
        let profiles = seed_profiles(&p, root, 10, 64);
        let inliner = IncrementalInliner::new();
        let out = inliner.compile(root, &cx(&p, &profiles)).unwrap();
        assert!(out.stats.inlined_calls >= 2, "{:?}", out.stats);
        assert!(
            out.graph.callsites().is_empty(),
            "hot tiny callees must disappear"
        );
        verify_graph(&p, &out.graph, &[Type::Int], RetType::Value(Type::Int)).unwrap();
    }

    #[test]
    fn respects_root_size_cap() {
        let (p, root) = hot_chain();
        let profiles = seed_profiles(&p, root, 10, 64);
        let config = PolicyConfig {
            root_size_cap: 1, // absurd: nothing may grow
            ..PolicyConfig::default()
        };
        let inliner = IncrementalInliner::with_config(config);
        let out = inliner.compile(root, &cx(&p, &profiles)).unwrap();
        // The first round may still inline (cap checked per selection),
        // but the algorithm must stop immediately after.
        assert!(out.stats.rounds <= 2, "{:?}", out.stats);
    }

    #[test]
    fn fixed_zero_budget_inlines_nothing() {
        let (p, root) = hot_chain();
        let profiles = seed_profiles(&p, root, 10, 64);
        let inliner = IncrementalInliner::with_config(PolicyConfig::fixed(0, 0));
        let out = inliner.compile(root, &cx(&p, &profiles)).unwrap();
        assert_eq!(out.stats.inlined_calls, 0);
        assert_eq!(out.graph.callsites().len(), 2);
    }

    #[test]
    fn polymorphic_callsite_becomes_typeswitch() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let b = p.add_class("B", Some(a));
        let c = p.add_class("C", Some(a));
        let ma = p.declare_method(a, "go", vec![Type::Int], Type::Int);
        let mb = p.declare_method(b, "go", vec![Type::Int], Type::Int);
        let mc = p.declare_method(c, "go", vec![Type::Int], Type::Int);
        for (m, k) in [(ma, 3), (mb, 5), (mc, 7)] {
            let mut fb = FunctionBuilder::new(&p, m);
            let x = fb.param(1);
            let kk = fb.const_int(k);
            let r = fb.imul(x, kk);
            fb.ret(Some(r));
            let g = fb.finish();
            p.define_method(m, g);
        }
        let root = p.declare_function("root", vec![Type::Object(a), Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, root);
        let recv = fb.param(0);
        let x = fb.param(1);
        let sel = fb.program().selector_by_name("go", 2).unwrap();
        let r = fb.call_virtual(sel, vec![recv, x]).unwrap();
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(root, g);

        let mut profiles = ProfileTable::new();
        let site = incline_ir::CallSiteId {
            method: root,
            index: 0,
        };
        profiles.record_invocation(root);
        for _ in 0..60 {
            profiles.record_receiver(site, b);
            profiles.record_callsite(site);
        }
        for _ in 0..40 {
            profiles.record_receiver(site, c);
            profiles.record_callsite(site);
        }
        let inliner = IncrementalInliner::new();
        let out = inliner.compile(root, &cx(&p, &profiles)).unwrap();
        verify_graph(
            &p,
            &out.graph,
            &[Type::Object(a), Type::Int],
            RetType::Value(Type::Int),
        )
        .unwrap();
        // The direct calls to B.go / C.go were inlined; only the virtual
        // fallback remains.
        let remaining = out.graph.callsites();
        assert_eq!(
            remaining.len(),
            1,
            "only the fallback survives: {:?}",
            out.stats
        );
        let incline_ir::Op::Call(info) = &out.graph.inst(remaining[0].1).op else {
            panic!()
        };
        assert!(matches!(info.target, incline_ir::CallTarget::Virtual(_)));
        // Typeswitch guards are present.
        let has_instanceof = out
            .graph
            .reachable_blocks()
            .iter()
            .flat_map(|&bb| out.graph.block(bb).insts.clone())
            .any(|i| matches!(out.graph.inst(i).op, incline_ir::Op::InstanceOf(_)));
        assert!(has_instanceof);
    }

    #[test]
    fn recursion_does_not_explode() {
        let mut p = Program::new();
        let f = p.declare_function("fib", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, f);
        let n = fb.param(0);
        let two = fb.const_int(2);
        let c = fb.cmp(CmpOp::ILt, n, two);
        let base = fb.add_block();
        let rec = fb.add_block();
        fb.branch(c, (base, vec![]), (rec, vec![]));
        fb.switch_to(base);
        fb.ret(Some(n));
        fb.switch_to(rec);
        let one = fb.const_int(1);
        let nm1 = fb.isub(n, one);
        let nm2 = fb.isub(n, two);
        let a = fb.call_static(f, vec![nm1]).unwrap();
        let b = fb.call_static(f, vec![nm2]).unwrap();
        let r = fb.iadd(a, b);
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(f, g);

        let mut profiles = ProfileTable::new();
        for _ in 0..100 {
            profiles.record_invocation(f);
            profiles.record_callsite(incline_ir::CallSiteId {
                method: f,
                index: 0,
            });
            profiles.record_callsite(incline_ir::CallSiteId {
                method: f,
                index: 1,
            });
        }
        let inliner = IncrementalInliner::new();
        let out = inliner.compile(f, &cx(&p, &profiles)).unwrap();
        verify_graph(&p, &out.graph, &[Type::Int], RetType::Value(Type::Int)).unwrap();
        assert!(
            out.stats.final_size < 2_000,
            "recursion penalty must bound growth, got {}",
            out.stats.final_size
        );
    }

    /// A hot callee that never returns: inlining it leaves the continuation,
    /// and the blocks after it, unreachable, so the root's `|ir|` cannot be
    /// updated by the step's delta and must be re-measured. The audit holds
    /// the stored size to a fresh `Graph::size()` after the step.
    #[cfg(debug_assertions)]
    #[test]
    fn inlining_a_callee_that_never_returns_re_measures_the_root() {
        let mut p = Program::new();
        let spin = p.declare_function("spin", vec![Type::Int], Type::Int);
        let root = p.declare_function("root", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, spin);
        let forever = fb.add_block();
        fb.jump(forever, vec![]);
        fb.switch_to(forever);
        fb.jump(forever, vec![]);
        let g = fb.finish();
        p.define_method(spin, g);

        // root(x) = spin(x) < 1 ? 1 : 2
        let mut fb = FunctionBuilder::new(&p, root);
        let x = fb.param(0);
        let r = fb.call_static(spin, vec![x]).unwrap();
        let one = fb.const_int(1);
        let c = fb.cmp(CmpOp::ILt, r, one);
        let (small, large) = (fb.add_block(), fb.add_block());
        fb.branch(c, (small, vec![]), (large, vec![]));
        fb.switch_to(small);
        fb.ret(Some(one));
        fb.switch_to(large);
        let two = fb.const_int(2);
        fb.ret(Some(two));
        let g = fb.finish();
        p.define_method(root, g);

        let mut profiles = ProfileTable::new();
        for _ in 0..100 {
            profiles.record_invocation(root);
            profiles.record_callsite(incline_ir::CallSiteId {
                method: root,
                index: 0,
            });
            profiles.record_invocation(spin);
        }
        let out = IncrementalInliner::new()
            .compile_audited(root, &cx(&p, &profiles))
            .unwrap();
        assert_eq!(out.stats.inlined_calls, 1, "{:?}", out.stats);
        assert!(out.graph.callsites().is_empty());
        assert_eq!(out.stats.final_size, out.graph.size() as u64);
        verify_graph(&p, &out.graph, &[Type::Int], RetType::Value(Type::Int)).unwrap();
    }

    #[test]
    fn one_by_one_differs_from_clustered_on_figure1_shape() {
        // A root calling a mid method whose body is only worthwhile if its
        // own tiny callees are inlined too (the Figure 1 motif).
        let mut p = Program::new();
        let tiny1 = p.declare_function("t1", vec![Type::Int], Type::Int);
        let tiny2 = p.declare_function("t2", vec![Type::Int], Type::Int);
        let mid = p.declare_function("mid", vec![Type::Int], Type::Int);
        let root = p.declare_function("root", vec![Type::Int], Type::Int);
        for (m, k) in [(tiny1, 3), (tiny2, 4)] {
            let mut fb = FunctionBuilder::new(&p, m);
            let x = fb.param(0);
            let kk = fb.const_int(k);
            let r = fb.iadd(x, kk);
            fb.ret(Some(r));
            let g = fb.finish();
            p.define_method(m, g);
        }
        let mut fb = FunctionBuilder::new(&p, mid);
        let x = fb.param(0);
        let a = fb.call_static(tiny1, vec![x]).unwrap();
        let b = fb.call_static(tiny2, vec![a]).unwrap();
        fb.ret(Some(b));
        let g = fb.finish();
        p.define_method(mid, g);
        let mut fb = FunctionBuilder::new(&p, root);
        let x = fb.param(0);
        let r = fb.call_static(mid, vec![x]).unwrap();
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(root, g);

        let mut profiles = ProfileTable::new();
        for _ in 0..50 {
            profiles.record_invocation(root);
            profiles.record_callsite(incline_ir::CallSiteId {
                method: root,
                index: 0,
            });
            profiles.record_invocation(mid);
            profiles.record_callsite(incline_ir::CallSiteId {
                method: mid,
                index: 0,
            });
            profiles.record_callsite(incline_ir::CallSiteId {
                method: mid,
                index: 1,
            });
            profiles.record_invocation(tiny1);
            profiles.record_invocation(tiny2);
        }
        let clustered = IncrementalInliner::new()
            .compile(root, &cx(&p, &profiles))
            .unwrap();
        assert!(
            clustered.graph.callsites().is_empty(),
            "cluster inlines the whole chain"
        );
        let one = IncrementalInliner::with_config(PolicyConfig::one_by_one(0.005, 120.0))
            .compile(root, &cx(&p, &profiles))
            .unwrap();
        // 1-by-1 may or may not get everything, but the algorithm must
        // still produce a correct graph.
        verify_graph(&p, &one.graph, &[Type::Int], RetType::Value(Type::Int)).unwrap();
    }
}
