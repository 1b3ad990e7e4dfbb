//! The partial call tree (paper §III-A, Listing 2).
//!
//! Each node represents a callsite in its parent's *specialized* graph.
//! Node kinds follow the paper: `E` (expanded, has an attached IR), `C`
//! (cutoff, not yet explored), `D` (deleted by an optimization), `G`
//! (generic — cannot be inlined), plus `P` (polymorphic dispatch, §IV)
//! whose children are the speculated targets. Two bookkeeping kinds track
//! progress: `Root` (the compilation root) and `Inlined` (consumed by the
//! inlining phase).
//!
//! Unlike a call *graph*, every node owns a private copy of its callee's
//! IR, specialized with the callsite's argument types and constants — the
//! foundation of deep inlining trials (§IV).

use std::sync::Arc;

use incline_ir::graph::{CallTarget, Op, ValueDef};
use incline_ir::ids::{BlockId, CallSiteId, ClassId, InstId, MethodId};
use incline_ir::{Graph, Type};
use incline_opt::OptStats;

use crate::inliner::CompileCx;
use crate::metrics::Tuple;
use crate::policy::{PolicyConfig, Trials, MIN_TARGET_PROB};
use crate::trials::{TrialKey, TrialOutcome};

/// Index of a node in the call tree arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Node kinds (paper Listing 2 + bookkeeping).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// The compilation root; its graph lives in [`CallTree::root_graph`].
    Root,
    /// Expanded: the callee's specialized IR is attached.
    Expanded,
    /// Cutoff: known target, IR not yet attached.
    Cutoff,
    /// Deleted: the callsite disappeared during optimization.
    Deleted,
    /// Generic: the callsite cannot be inlined (opaque target, megamorphic
    /// dispatch without a usable profile, …).
    Generic,
    /// Polymorphic dispatch point; children are speculated targets.
    Polymorphic,
    /// Consumed by the inlining phase (its body now lives in the root).
    Inlined,
}

/// One call tree node.
#[derive(Clone, Debug)]
pub struct CallNode {
    /// Kind tag.
    pub kind: NodeKind,
    /// Target method (`None` for `Polymorphic` dispatch points).
    pub method: Option<MethodId>,
    /// Parent node (`None` for the root).
    pub parent: Option<NodeId>,
    /// The call instruction in the owner graph (see
    /// [`CallTree::owner_graph`]); `None` for the root.
    pub callsite: Option<InstId>,
    /// Stable profile key of the callsite.
    pub site: Option<CallSiteId>,
    /// Child nodes (one per callsite of the specialized graph, or one per
    /// speculated target for `Polymorphic` nodes).
    pub children: Vec<NodeId>,
    /// The specialized callee IR (only for `Expanded`), read-only once
    /// attached: it may be the trial cache's entry itself.
    pub graph: Option<Arc<Graph>>,
    /// `|ir|` of `graph`, measured when it was attached (see
    /// [`CallTree::ir_size`]).
    pub graph_size: usize,
    /// Call frequency relative to the root (`f(n)`, Equation 4).
    pub freq: f64,
    /// Recursion depth `d(n)`: ancestors targeting the same method.
    pub rec_depth: u32,
    /// `N_s(n)`: arguments more concrete than the formal parameters.
    pub ns: u32,
    /// `N_o(n)`: simple optimizations triggered by the inlining trial.
    pub no: u64,
    /// Whether the node is in the same cluster as its parent (`inlined`
    /// relation of Listing 6).
    pub inlined_with_parent: bool,
    /// Cost–benefit tuple assigned by the analysis.
    pub tuple: Tuple,
    /// Dispatch probability under a `Polymorphic` parent (else 1.0).
    pub poly_prob: f64,
    /// Guard class for children of `Polymorphic` nodes.
    pub speculated_class: Option<ClassId>,
}

impl CallNode {
    fn new(kind: NodeKind) -> Self {
        CallNode {
            kind,
            method: None,
            parent: None,
            callsite: None,
            site: None,
            children: Vec::new(),
            graph: None,
            graph_size: 0,
            freq: 1.0,
            rec_depth: 0,
            ns: 0,
            no: 0,
            inlined_with_parent: false,
            tuple: Tuple::new(0.0, 1.0),
            poly_prob: 1.0,
            speculated_class: None,
        }
    }
}

/// Aggregate subtree metrics (Equations 1–3).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SubtreeMetrics {
    /// `S_ir(n)`: total IR size of the subtree.
    pub s_ir: f64,
    /// `S_b(n)`: total IR size of the subtree's cutoff nodes.
    pub s_b: f64,
    /// `N_c(n)`: number of cutoff nodes in the subtree.
    pub n_c: usize,
}

/// The partial call tree of one compilation.
#[derive(Clone, Debug)]
pub struct CallTree {
    nodes: Vec<CallNode>,
    root: NodeId,
    /// The evolving root graph (the compilation result). Private so every
    /// change goes through [`CallTree::optimize_root`] or
    /// [`CallTree::inline_step`], which keep `root_size` true.
    root_graph: Graph,
    /// `root_graph.size()`.
    root_size: usize,
    /// Whether the last pipeline run on the root left it at its fixpoint
    /// (`PipelineRun::converged`) and nothing has edited it since. Set by
    /// [`CallTree::optimize_root`] only, cleared by every edit.
    root_converged: bool,
    root_method: MethodId,
    /// Total IR nodes attached by expansions (compile-work accounting).
    pub explored_nodes: usize,
}

impl CallTree {
    /// Creates the tree for a compilation of `method`, whose working graph
    /// is `root_graph`, and creates the root's children.
    pub fn new(
        method: MethodId,
        root_graph: Graph,
        cx: &CompileCx<'_>,
        config: &PolicyConfig,
    ) -> Self {
        let mut tree = Self::with_root(method, root_graph);
        tree.create_children(tree.root, cx, config);
        tree
    }

    /// The tree of [`CallTree::new`] before the root has children: a
    /// compilation optimizes the root first ([`CallTree::optimize_root`])
    /// and hangs the callsites that survive under it
    /// ([`CallTree::create_children`]).
    pub fn with_root(method: MethodId, root_graph: Graph) -> Self {
        let mut root = CallNode::new(NodeKind::Root);
        root.method = Some(method);
        CallTree {
            nodes: vec![root],
            root: NodeId(0),
            root_size: root_graph.size(),
            root_converged: false,
            root_graph,
            root_method: method,
            explored_nodes: 0,
        }
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The compilation root method.
    pub fn root_method(&self) -> MethodId {
        self.root_method
    }

    /// Immutable node access.
    pub fn node(&self, n: NodeId) -> &CallNode {
        &self.nodes[n.0]
    }

    /// Mutable node access.
    pub fn node_mut(&mut self, n: NodeId) -> &mut CallNode {
        &mut self.nodes[n.0]
    }

    /// Number of nodes ever created.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has only the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// The evolving root graph (the compilation result).
    pub fn root_graph(&self) -> &Graph {
        &self.root_graph
    }

    /// `|ir|` of the root graph, kept current by every edit.
    pub fn root_size(&self) -> usize {
        self.root_size
    }

    /// Changes the root graph and re-measures it: the way of an edit that
    /// can touch any block (the optimization pipeline). An inlining step
    /// goes through [`CallTree::inline_step`].
    fn edit_root<R>(&mut self, edit: impl FnOnce(&mut Graph) -> R) -> R {
        self.root_converged = false;
        let result = edit(&mut self.root_graph);
        self.root_size = self.root_graph.size();
        result
    }

    /// Runs one inlining step (`inline_call` or typeswitch emission) on the
    /// root: `edit` splits the reachable `block` at a call and returns the
    /// continuation block and whether it is still reachable. Brings `index`
    /// up to date and updates `|ir|` by what the step changed — the split
    /// block's new count and the appended blocks' counts in place of the
    /// split block's old one — instead of re-measuring the root. A step
    /// whose continuation is unreachable (the body never returns) may have
    /// cut off the blocks after the call too; only then is the root
    /// re-measured.
    pub(crate) fn inline_step<R>(
        &mut self,
        index: &mut RootIndex,
        block: BlockId,
        edit: impl FnOnce(&mut Graph) -> (R, BlockId, bool),
    ) -> R {
        self.root_converged = false;
        let before = live_count(&self.root_graph, block);
        let (result, continuation, reachable) = edit(&mut self.root_graph);
        let added = index.absorb_step(&self.root_graph, continuation, reachable);
        self.root_size = if reachable {
            self.root_size + live_count(&self.root_graph, block) + added - before
        } else {
            self.root_graph.size()
        };
        result
    }

    /// Runs the optimization pipeline on the root (§IV: at the start, at
    /// the end of every round, at the end of the compilation) and returns
    /// what it counted.
    ///
    /// Remembers whether the run left the root at the pipeline's fixpoint.
    /// While no inlining step has touched the root since, the next call is
    /// [`incline_opt::optimize_converged`]: the fuel such a run pays, in the
    /// order it pays it, and nothing else — it would change, count and emit
    /// nothing. That is every round that inlined nothing and every final
    /// run: three quarters of all runs.
    pub fn optimize_root(
        &mut self,
        cx: &CompileCx<'_>,
        phase: incline_trace::OptPhase,
    ) -> OptStats {
        let run = if self.root_converged {
            incline_opt::optimize_converged(&self.root_graph, cx.fuel)
        } else {
            self.edit_root(|root| {
                let rounds = incline_opt::MAX_ROUNDS;
                incline_trace::optimize_with_trace(
                    cx.program, root, rounds, cx.fuel, cx.trace, phase,
                )
            })
        };
        self.root_converged = run.converged;
        run.stats
    }

    /// Ends the compilation: the root graph is the result.
    pub fn into_root_graph(self) -> Graph {
        self.root_graph
    }

    /// The graph that contains a node's callsite: the parent's specialized
    /// graph, or the root graph when the (possibly re-parented) parent is
    /// the root. Children of `Polymorphic` nodes live in the polymorphic
    /// node's own owner graph.
    pub fn owner_graph(&self, n: NodeId) -> &Graph {
        let parent = self.nodes[n.0].parent.expect("root has no owner");
        match self.nodes[parent.0].kind {
            NodeKind::Root => &self.root_graph,
            NodeKind::Polymorphic => self.owner_graph(parent),
            _ => self.nodes[parent.0]
                .graph
                .as_ref()
                .expect("non-root owner must be expanded"),
        }
    }

    /// Whether a node's callsite lives in the root graph (see
    /// [`CallTree::owner_graph`]).
    pub fn owner_graph_is_root(&self, n: NodeId) -> bool {
        let parent = self.nodes[n.0].parent.expect("root has no owner");
        match self.nodes[parent.0].kind {
            NodeKind::Root => true,
            NodeKind::Polymorphic => self.owner_graph_is_root(parent),
            _ => false,
        }
    }

    /// The IR size `|ir(n)|` of a node (paper §IV): specialized size for
    /// expanded nodes, original method size for cutoffs, an estimated
    /// typeswitch size for polymorphic nodes, zero otherwise.
    ///
    /// Stored, not measured: graphs are sized when they are attached
    /// (methods at `define_method`, expansions at `expand_node`, the root
    /// after every edit), so asking is free however often the heuristics do.
    pub fn ir_size(&self, n: NodeId, cx: &CompileCx<'_>) -> f64 {
        let node = &self.nodes[n.0];
        match node.kind {
            NodeKind::Expanded => node.graph_size as f64,
            NodeKind::Cutoff => node
                .method
                .map_or(0.0, |m| cx.program.method(m).ir_size() as f64),
            NodeKind::Polymorphic => (2 + 3 * node.children.len()) as f64,
            NodeKind::Root => self.root_size as f64,
            NodeKind::Deleted | NodeKind::Generic | NodeKind::Inlined => 0.0,
        }
    }

    /// Subtree metrics `S_ir`, `S_b`, `N_c` (Equations 1–3) of every node,
    /// written to `out` by node index. The node itself is included, matching
    /// the paper's `m ∈ subtree(n)`.
    ///
    /// One sweep over the arena from the back: a child is always created
    /// after its parent, so every child's sums are final when its parent
    /// adds them up. The sums are integer-valued, so they are exact in any
    /// order.
    pub fn subtree_metrics_into(&self, cx: &CompileCx<'_>, out: &mut Vec<SubtreeMetrics>) {
        out.clear();
        out.resize(self.nodes.len(), SubtreeMetrics::default());
        for n in self.node_ids().rev() {
            out[n.0] = self.subtree_metrics_from(n, cx, out);
        }
    }

    /// Subtree metrics of `n` from its children's entries in `table`, which
    /// must be final.
    pub(crate) fn subtree_metrics_from(
        &self,
        n: NodeId,
        cx: &CompileCx<'_>,
        table: &[SubtreeMetrics],
    ) -> SubtreeMetrics {
        let node = &self.nodes[n.0];
        let size = self.ir_size(n, cx);
        let mut m = SubtreeMetrics {
            s_ir: size,
            ..SubtreeMetrics::default()
        };
        if node.kind == NodeKind::Cutoff {
            m.s_b = size;
            m.n_c = 1;
        }
        for &c in &node.children {
            debug_assert!(c.0 > n.0, "children are created after their parents");
            m.s_ir += table[c.0].s_ir;
            m.s_b += table[c.0].s_b;
            m.n_c += table[c.0].n_c;
        }
        m
    }

    /// Subtree metrics of one node. Sweeps the whole tree; callers that need
    /// more than one node keep the table of
    /// [`CallTree::subtree_metrics_into`].
    pub fn subtree_metrics(&self, n: NodeId, cx: &CompileCx<'_>) -> SubtreeMetrics {
        let mut table = Vec::new();
        self.subtree_metrics_into(cx, &mut table);
        table[n.0]
    }

    /// `|ir(n)|` measured afresh with `Graph::size()` — what
    /// [`CallTree::ir_size`] must equal. The reference the call-tree
    /// invariant tests compare the stored sizes against.
    #[cfg(debug_assertions)]
    pub fn reference_ir_size(&self, n: NodeId, cx: &CompileCx<'_>) -> f64 {
        let node = &self.nodes[n.0];
        match node.kind {
            NodeKind::Expanded => node.graph.as_ref().map_or(0.0, |g| g.size() as f64),
            NodeKind::Cutoff => node
                .method
                .map_or(0.0, |m| cx.program.method(m).graph.size() as f64),
            NodeKind::Polymorphic => (2 + 3 * node.children.len()) as f64,
            NodeKind::Root => self.root_graph.size() as f64,
            NodeKind::Deleted | NodeKind::Generic | NodeKind::Inlined => 0.0,
        }
    }

    /// Subtree metrics by recursion over freshly measured sizes — what the
    /// table of [`CallTree::subtree_metrics_into`] must equal.
    #[cfg(debug_assertions)]
    pub fn reference_subtree_metrics(&self, n: NodeId, cx: &CompileCx<'_>) -> SubtreeMetrics {
        let node = &self.nodes[n.0];
        let mut m = SubtreeMetrics::default();
        let size = self.reference_ir_size(n, cx);
        m.s_ir += size;
        if node.kind == NodeKind::Cutoff {
            m.s_b += size;
            m.n_c += 1;
        }
        for &c in &node.children {
            let cm = self.reference_subtree_metrics(c, cx);
            m.s_ir += cm.s_ir;
            m.s_b += cm.s_b;
            m.n_c += cm.n_c;
        }
        m
    }

    /// The local benefit `B_L(n)` (Equations 4 and 13).
    pub fn local_benefit(&self, n: NodeId) -> f64 {
        let node = &self.nodes[n.0];
        match node.kind {
            NodeKind::Cutoff => node.freq * (1.0 + node.ns as f64),
            NodeKind::Expanded => node.freq * (1.0 + node.ns as f64 + node.no as f64),
            NodeKind::Polymorphic => node
                .children
                .iter()
                .map(|&c| self.nodes[c.0].poly_prob * self.local_benefit(c))
                .sum(),
            _ => 0.0,
        }
    }

    // ---- construction -------------------------------------------------------

    /// Creates child nodes for every callsite in `parent`'s graph.
    pub fn create_children(&mut self, parent: NodeId, cx: &CompileCx<'_>, config: &PolicyConfig) {
        let sites: Vec<(InstId, Op)> = {
            let graph = if self.nodes[parent.0].kind == NodeKind::Root {
                &self.root_graph
            } else {
                self.nodes[parent.0]
                    .graph
                    .as_ref()
                    .expect("expanded parent")
            };
            graph
                .callsites()
                .iter()
                .map(|&(_, i)| (i, graph.inst(i).op.clone()))
                .collect()
        };
        for (inst, op) in sites {
            let Op::Call(info) = op else { unreachable!() };
            self.create_child(parent, inst, info.site, info.target, 1.0, None, cx, config);
        }
    }

    /// Creates one child node at a callsite. `poly_prob`/`speculated` are
    /// set for targets under a polymorphic dispatch point.
    #[allow(clippy::too_many_arguments)]
    pub fn create_child(
        &mut self,
        parent: NodeId,
        callsite: InstId,
        site: CallSiteId,
        target: CallTarget,
        poly_prob: f64,
        speculated: Option<ClassId>,
        cx: &CompileCx<'_>,
        config: &PolicyConfig,
    ) -> NodeId {
        let parent_freq = self.nodes[parent.0].freq;
        let mut local = cx.profiles.local_frequency(site);
        // Down recursive chains the per-level product overestimates
        // exponentially: a callsite's local frequency already aggregates
        // its executions across *all* recursion depths, so when the same
        // callsite already occurs on the ancestor path, this occurrence
        // must not multiply the mass in again.
        let mut anc = Some(parent);
        while let Some(a) = anc {
            if self.nodes[a.0].site == Some(site) {
                local = local.min(1.0);
                break;
            }
            anc = self.nodes[a.0].parent;
        }
        let freq = (parent_freq * local * poly_prob).min(1e9);

        let id = NodeId(self.nodes.len());
        let mut node = CallNode::new(NodeKind::Cutoff);
        node.parent = Some(parent);
        node.callsite = Some(callsite);
        node.site = Some(site);
        node.freq = freq;
        node.poly_prob = poly_prob;
        node.speculated_class = speculated;

        match target {
            CallTarget::Static(m) => {
                node.method = Some(m);
                node.rec_depth = self.recursion_depth(parent, m);
                let callee = cx.program.method(m);
                if !callee.can_inline() || callee.ir_size() == 0 {
                    node.kind = NodeKind::Generic;
                }
                self.nodes.push(node);
                self.nodes[parent.0].children.push(id);
                // Equation 4 defines B_L for cutoff nodes with N_s(n);
                // argument concreteness is visible without expanding.
                let ns = self.potential_ns(id, cx);
                self.nodes[id.0].ns = ns;
            }
            CallTarget::Virtual(sel) => {
                // Speculate targets from the receiver profile (§IV).
                let profile = cx.profiles.receiver_profile(site);
                // Group receiver classes by resolved method (Detlefs–Agesen:
                // same-method classes share a typeswitch case).
                let mut groups: Vec<(MethodId, ClassId, f64)> = Vec::new();
                for e in &profile {
                    if e.probability < MIN_TARGET_PROB {
                        continue;
                    }
                    if let Some(m) = cx.program.resolve(e.class, sel) {
                        match groups.iter_mut().find(|(gm, ..)| *gm == m) {
                            Some((_, _, p)) => *p += e.probability,
                            None => groups.push((m, e.class, e.probability)),
                        }
                    }
                }
                groups.truncate(config.max_targets);
                let inlineable = groups
                    .iter()
                    .any(|&(m, ..)| cx.program.method(m).can_inline());
                if groups.is_empty() || !inlineable {
                    node.kind = NodeKind::Generic;
                    self.nodes.push(node);
                    self.nodes[parent.0].children.push(id);
                } else {
                    node.kind = NodeKind::Polymorphic;
                    self.nodes.push(node);
                    self.nodes[parent.0].children.push(id);
                    for (m, class, p) in groups {
                        // The first observed class of the group guards the
                        // typeswitch case (Detlefs–Agesen grouping).
                        let guard = class;
                        let tid = NodeId(self.nodes.len());
                        let mut t = CallNode::new(NodeKind::Cutoff);
                        t.parent = Some(id);
                        t.callsite = Some(callsite); // rewritten at typeswitch emission
                        t.site = Some(site);
                        t.method = Some(m);
                        t.rec_depth = self.recursion_depth(id, m);
                        t.freq = freq * p;
                        t.poly_prob = p;
                        t.speculated_class = Some(guard);
                        if !cx.program.method(m).can_inline() {
                            t.kind = NodeKind::Generic;
                        }
                        self.nodes.push(t);
                        self.nodes[id.0].children.push(tid);
                        let ns = self.potential_ns(tid, cx);
                        self.nodes[tid.0].ns = ns;
                    }
                }
            }
        }
        id
    }

    fn recursion_depth(&self, mut ancestor: NodeId, method: MethodId) -> u32 {
        let mut d = 0;
        loop {
            if self.nodes[ancestor.0].method == Some(method) {
                d += 1;
            }
            match self.nodes[ancestor.0].parent {
                Some(p) => ancestor = p,
                None => break,
            }
        }
        d
    }

    // ---- expansion -----------------------------------------------------------

    /// Expands a cutoff node: clones the callee graph, specializes it with
    /// the callsite arguments (deep inlining trials, §IV), optimizes it and
    /// creates its children. Returns the number of IR nodes attached.
    pub fn expand_node(&mut self, n: NodeId, cx: &CompileCx<'_>, config: &PolicyConfig) -> usize {
        debug_assert_eq!(self.nodes[n.0].kind, NodeKind::Cutoff);
        let method = self.nodes[n.0].method.expect("cutoff has a target");

        // Depth of the node (for shallow trials: only depth-1 specializes).
        let depth = {
            let mut d = 0;
            let mut cur = n;
            while let Some(p) = self.nodes[cur.0].parent {
                d += 1;
                cur = p;
            }
            d
        };
        let specialize = match config.trials {
            Trials::Deep => true,
            Trials::Shallow => depth <= 1,
        };

        let (graph, ns, no) = if specialize {
            let args = self.callsite_arg_info(n, cx).into_boxed_slice();
            run_trial(TrialKey { method, args }, cx)
        } else {
            (Arc::new(cx.program.method(method).graph.clone()), 0, 0)
        };

        let attached = graph.size();
        self.explored_nodes += attached;
        {
            let node = &mut self.nodes[n.0];
            node.kind = NodeKind::Expanded;
            node.graph = Some(graph);
            node.graph_size = attached;
            node.ns = ns;
            node.no = no;
        }
        self.create_children(n, cx, config);
        attached
    }

    /// Argument specialization facts for a node's callsite: per parameter,
    /// an optional constant op and an optional narrowed type.
    pub fn callsite_arg_info(&self, n: NodeId, cx: &CompileCx<'_>) -> Vec<ArgInfo> {
        let node = &self.nodes[n.0];
        let callsite = node.callsite.expect("non-root node has a callsite");
        let owner = self.owner_graph(n);
        let inst = owner.inst(callsite);
        let method = node.method.expect("target known");
        let declared = &cx.program.method(method).params;
        let mut out = Vec::with_capacity(inst.args.len());
        for (i, &arg) in inst.args.iter().enumerate() {
            let konst = owner.const_op(arg).cloned();
            let mut ty = owner.value_type(arg);
            // Children of polymorphic nodes: the typeswitch guard narrows
            // the receiver beyond its static type.
            if i == 0 {
                if let Some(spec) = node.speculated_class {
                    ty = Type::Object(spec);
                }
            }
            let narrowed = declared
                .get(i)
                .map(|&d| ty != d && cx.program.is_assignable(ty, d))
                .unwrap_or(false);
            out.push(ArgInfo {
                konst,
                ty: narrowed.then_some(ty),
            });
        }
        out
    }

    /// Potential `N_s` of a callsite under the current owner graph — used
    /// to decide whether a re-specialization (trial refresh) is worthwhile.
    pub fn potential_ns(&self, n: NodeId, cx: &CompileCx<'_>) -> u32 {
        self.callsite_arg_info(n, cx)
            .iter()
            .filter(|a| a.konst.is_some() || a.ty.is_some())
            .count() as u32
    }

    // ---- synchronization -------------------------------------------------------

    /// Re-synchronizes the root's direct children with the root graph
    /// after optimization: callsites may have been deleted (branch
    /// pruning) or devirtualized (canonicalization). Newly appearing
    /// callsites cannot occur. `live` indexes the root graph as it is now.
    pub(crate) fn sync_root_children(&mut self, cx: &CompileCx<'_>, live: &RootIndex) {
        for i in 0..self.nodes[self.root.0].children.len() {
            let c = self.nodes[self.root.0].children[i];
            let (kind, callsite) = {
                let n = &self.nodes[c.0];
                (n.kind, n.callsite)
            };
            if matches!(kind, NodeKind::Inlined | NodeKind::Deleted) {
                continue;
            }
            let Some(inst) = callsite else { continue };
            if live.call_block(&self.root_graph, inst).is_none() {
                self.nodes[c.0].kind = NodeKind::Deleted;
                continue;
            }
            // Devirtualized? A polymorphic/generic node whose callsite
            // became a static call turns into a plain cutoff.
            if let Op::Call(info) = &self.root_graph.inst(inst).op {
                if let CallTarget::Static(m) = info.target {
                    if matches!(kind, NodeKind::Polymorphic | NodeKind::Generic)
                        && self.nodes[c.0].method != Some(m)
                    {
                        let node = &mut self.nodes[c.0];
                        node.children.clear();
                        node.method = Some(m);
                        node.kind = if cx.program.method(m).can_inline() {
                            NodeKind::Cutoff
                        } else {
                            NodeKind::Generic
                        };
                    }
                }
            }
        }
    }
}

/// Which reachable block of the root graph holds each instruction — what
/// the inlining phase needs to find a callsite, kept current across its
/// inlining steps instead of re-deriving the root's callsite list per step.
#[derive(Debug)]
pub(crate) struct RootIndex {
    /// By instruction index; `None` for instructions that are detached or
    /// sit in an unreachable block.
    block_of: Vec<Option<BlockId>>,
    /// Blocks of the graph already indexed.
    blocks: usize,
}

impl RootIndex {
    /// Indexes the reachable blocks of `graph`.
    pub(crate) fn new(graph: &Graph) -> Self {
        let mut block_of = vec![None; graph.inst_count()];
        for &b in graph.block_order().iter() {
            for &i in &graph.block(b).insts {
                block_of[i.index()] = Some(b);
            }
        }
        RootIndex {
            block_of,
            blocks: graph.block_count(),
        }
    }

    /// The reachable block holding `inst`, if `inst` is (still) a call.
    pub(crate) fn call_block(&self, graph: &Graph, inst: InstId) -> Option<BlockId> {
        let block = self.block_of.get(inst.index()).copied().flatten()?;
        matches!(graph.inst(inst).op, Op::Call(_)).then_some(block)
    }

    /// Brings the index up to date after an inlining step (`inline_call` or
    /// typeswitch emission) split a reachable block: every block added
    /// since the last call is indexed. The step's blocks are all reachable
    /// except possibly `continuation` — when the inlined body never
    /// returns, the code after the call is dead, and its instructions
    /// leave the index. Returns the live count of the reachable blocks it
    /// indexed.
    fn absorb_step(
        &mut self,
        graph: &Graph,
        continuation: BlockId,
        continuation_reachable: bool,
    ) -> usize {
        self.block_of.resize(graph.inst_count(), None);
        let mut live = 0;
        for b in (self.blocks..graph.block_count()).map(BlockId::new) {
            let reachable = b != continuation || continuation_reachable;
            let holder = reachable.then_some(b);
            for &i in &graph.block(b).insts {
                self.block_of[i.index()] = holder;
            }
            if reachable {
                live += live_count(graph, b);
            }
        }
        self.blocks = graph.block_count();
        live
    }
}

/// A reachable block's share of `Graph::size()`: its parameters, its
/// instructions and its terminator.
fn live_count(graph: &Graph, b: BlockId) -> usize {
    let block = graph.block(b);
    block.params.len() + block.insts.len() + 1
}

/// Per-argument specialization facts.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ArgInfo {
    /// The argument is this constant.
    pub konst: Option<Op>,
    /// The argument's type, when strictly narrower than the parameter.
    pub ty: Option<Type>,
}

/// Runs the deep-inlining trial bundle for `key` — clone the callee,
/// specialize it by the arguments, trial-optimize — or replays the memoized
/// outcome from the [`TrialCache`](crate::TrialCache) when one is attached.
///
/// The trial reads no profile data (profiles enter only through the
/// arguments), so its output is a pure function of the key: a hit returns
/// the same graph bytes, the same `(ns, no)` and re-emits the same trace
/// events a fresh run would produce. The conformance matrix asserts this
/// end to end.
fn run_trial(key: TrialKey, cx: &CompileCx<'_>) -> (Arc<Graph>, u32, u64) {
    if let Some(hit) = cx.trials.and_then(|t| t.lookup(&key)) {
        if cx.tracing() {
            for e in &hit.events {
                cx.trace.emit(e.clone());
            }
        }
        return (Arc::clone(&hit.graph), hit.ns, hit.no);
    }
    let mut graph = cx.program.method(key.method).graph.clone();
    let ns = specialize_params(&mut graph, &key.args);
    // The trial bundle runs at most three rounds, unmetered, and reports
    // per-round deltas to the trace as Trial-phase events. A traced trial
    // captures its events so that a later hit can replay the identical
    // stream, then forwards them unchanged.
    const TRIAL_ROUNDS: usize = 3;
    let local = incline_trace::CollectingSink::new();
    let sink: &dyn incline_trace::TraceSink = if cx.tracing() { &local } else { cx.trace };
    let no = incline_trace::optimize_with_trace(
        cx.program,
        &mut graph,
        TRIAL_ROUNDS,
        &incline_opt::UNLIMITED_FUEL,
        sink,
        incline_trace::OptPhase::Trial,
    )
    .stats
    .simple_count();
    let events = local.take();
    for e in &events {
        cx.trace.emit(e.clone());
    }
    let graph = Arc::new(graph);
    if let Some(trials) = cx.trials {
        trials.insert(
            key,
            Arc::new(TrialOutcome {
                graph: Arc::clone(&graph),
                ns,
                no,
                events,
            }),
        );
    }
    (graph, ns, no)
}

/// Applies argument specialization to a cloned callee graph: a constant
/// argument redefines the parameter's value as the constant's result
/// ([`Graph::redefine`], no use rewritten); a narrower argument type
/// narrows the parameter. Returns `N_s` — the number of specialized
/// parameters.
pub fn specialize_params(graph: &mut Graph, args: &[ArgInfo]) -> u32 {
    let entry = graph.entry();
    let params: Vec<_> = graph.block(entry).params.clone();
    let mut ns = 0;
    for (i, info) in args.iter().enumerate() {
        let Some(&param) = params.get(i) else { break };
        if let Some(op) = &info.konst {
            let ty = op.const_type().expect("const_op returns constants only");
            let k = graph.create_inst(op.clone(), vec![], Some(ty));
            graph.insert_inst(entry, 0, k);
            // The parameter's uses now read the constant; the entry slot
            // keeps a fresh value of the parameter's type.
            graph.redefine(param, ValueDef::Inst(k));
            ns += 1;
        } else if let Some(t) = info.ty {
            graph.set_value_type(param, t);
            ns += 1;
        }
    }
    ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::{Program, RetType};
    use incline_profile::ProfileTable;

    use crate::trials::TrialCache;

    /// leaf(x) = x + 1; mid(x) = leaf(x) * 2; root(x) = mid(x) + mid(x)
    fn chain() -> (Program, MethodId, MethodId, MethodId) {
        let mut p = Program::new();
        let leaf = p.declare_function("leaf", vec![Type::Int], Type::Int);
        let mid = p.declare_function("mid", vec![Type::Int], Type::Int);
        let root = p.declare_function("root", vec![Type::Int], Type::Int);

        let mut fb = FunctionBuilder::new(&p, leaf);
        let x = fb.param(0);
        let one = fb.const_int(1);
        let r = fb.iadd(x, one);
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(leaf, g);

        let mut fb = FunctionBuilder::new(&p, mid);
        let x = fb.param(0);
        let c = fb.call_static(leaf, vec![x]).unwrap();
        let two = fb.const_int(2);
        let r = fb.imul(c, two);
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(mid, g);

        let mut fb = FunctionBuilder::new(&p, root);
        let x = fb.param(0);
        let a = fb.call_static(mid, vec![x]).unwrap();
        let b = fb.call_static(mid, vec![x]).unwrap();
        let r = fb.iadd(a, b);
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(root, g);
        (p, leaf, mid, root)
    }

    #[test]
    fn builds_root_children() {
        let (p, _, mid, root) = chain();
        let profiles = ProfileTable::new();
        let cx = CompileCx::new(&p, &profiles);
        let config = PolicyConfig::default();
        let tree = CallTree::new(root, p.method(root).graph.clone(), &cx, &config);
        let rc = &tree.node(tree.root()).children;
        assert_eq!(rc.len(), 2);
        for &c in rc {
            assert_eq!(tree.node(c).kind, NodeKind::Cutoff);
            assert_eq!(tree.node(c).method, Some(mid));
        }
    }

    #[test]
    fn expansion_attaches_ir_and_children() {
        let (p, leaf, _, root) = chain();
        let profiles = ProfileTable::new();
        let cx = CompileCx::new(&p, &profiles);
        let config = PolicyConfig::default();
        let mut tree = CallTree::new(root, p.method(root).graph.clone(), &cx, &config);
        let c0 = tree.node(tree.root()).children[0];
        let attached = tree.expand_node(c0, &cx, &config);
        assert!(attached > 0);
        assert_eq!(tree.node(c0).kind, NodeKind::Expanded);
        assert_eq!(tree.node(c0).children.len(), 1);
        let leaf_node = tree.node(c0).children[0];
        assert_eq!(tree.node(leaf_node).method, Some(leaf));
    }

    #[test]
    fn subtree_metrics_count_cutoffs() {
        let (p, _, _, root) = chain();
        let profiles = ProfileTable::new();
        let cx = CompileCx::new(&p, &profiles);
        let config = PolicyConfig::default();
        let mut tree = CallTree::new(root, p.method(root).graph.clone(), &cx, &config);
        let before = tree.subtree_metrics(tree.root(), &cx);
        assert_eq!(before.n_c, 2);
        assert!(before.s_b > 0.0);
        let c0 = tree.node(tree.root()).children[0];
        tree.expand_node(c0, &cx, &config);
        let after = tree.subtree_metrics(tree.root(), &cx);
        // One cutoff became expanded but exposed the leaf cutoff below it.
        assert_eq!(after.n_c, 2);
        assert!(after.s_ir > before.s_ir * 0.9);
    }

    #[test]
    fn a_trial_cache_hit_shares_the_cached_graph() {
        let mut p = Program::new();
        let sq = p.declare_function("sq", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, sq);
        let x = fb.param(0);
        let r = fb.imul(x, x);
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(sq, g);
        let root = p.declare_function("root", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, root);
        let seven = fb.const_int(7);
        let a = fb.call_static(sq, vec![seven]).unwrap();
        let b = fb.call_static(sq, vec![seven]).unwrap();
        let sum = fb.iadd(a, b);
        fb.ret(Some(sum));
        let g = fb.finish();
        p.define_method(root, g);
        let profiles = ProfileTable::new();
        let trials = TrialCache::default();
        let cx = CompileCx::new(&p, &profiles).with_trials(Some(&trials));
        let config = PolicyConfig::default();
        let mut tree = CallTree::new(root, p.method(root).graph.clone(), &cx, &config);
        let (miss, hit) = match tree.node(tree.root()).children[..] {
            [miss, hit] => (miss, hit),
            _ => panic!("two callsites, two children"),
        };
        tree.expand_node(miss, &cx, &config);
        tree.expand_node(hit, &cx, &config);
        assert_eq!((trials.misses(), trials.hits(), trials.len()), (1, 1, 1));
        let graph = |n: NodeId| tree.node(n).graph.as_ref().expect("expanded");
        assert!(
            Arc::ptr_eq(graph(miss), graph(hit)),
            "the hit cloned a graph"
        );
        assert_eq!(Arc::strong_count(graph(hit)), 3, "the cache and both nodes");
    }

    #[test]
    fn constant_arg_specialization_folds() {
        let mut p = Program::new();
        let sq = p.declare_function("sq", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, sq);
        let x = fb.param(0);
        let r = fb.imul(x, x);
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(sq, g);
        let root = p.declare_function("root", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, root);
        let seven = fb.const_int(7);
        let c = fb.call_static(sq, vec![seven]).unwrap();
        fb.ret(Some(c));
        let g = fb.finish();
        p.define_method(root, g);

        let profiles = ProfileTable::new();
        let cx = CompileCx::new(&p, &profiles);
        let config = PolicyConfig::default();
        let mut tree = CallTree::new(root, p.method(root).graph.clone(), &cx, &config);
        let c0 = tree.node(tree.root()).children[0];
        tree.expand_node(c0, &cx, &config);
        let node = tree.node(c0);
        assert_eq!(node.ns, 1, "the constant argument must count toward N_s");
        assert!(node.no >= 1, "specialization must trigger a constant fold");
        // The specialized body is now a constant 49.
        let g = node.graph.as_ref().unwrap();
        let incline_ir::Terminator::Return(Some(v)) = g.block(g.entry()).term.clone() else {
            panic!()
        };
        assert_eq!(g.as_const_int(v), Some(49));
    }

    #[test]
    fn polymorphic_children_from_profile() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let b = p.add_class("B", Some(a));
        let c = p.add_class("C", Some(a));
        let ma = p.declare_method(a, "go", vec![], Type::Int);
        let mb = p.declare_method(b, "go", vec![], Type::Int);
        let mc = p.declare_method(c, "go", vec![], Type::Int);
        for (m, k) in [(ma, 0), (mb, 1), (mc, 2)] {
            let mut fb = FunctionBuilder::new(&p, m);
            let v = fb.const_int(k);
            fb.ret(Some(v));
            let g = fb.finish();
            p.define_method(m, g);
        }
        let root = p.declare_function("root", vec![Type::Object(a)], Type::Int);
        let mut fb = FunctionBuilder::new(&p, root);
        let recv = fb.param(0);
        let sel = fb.program().selector_by_name("go", 1).unwrap();
        let r = fb.call_virtual(sel, vec![recv]).unwrap();
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(root, g);

        let mut profiles = ProfileTable::new();
        let site = CallSiteId {
            method: root,
            index: 0,
        };
        profiles.record_invocation(root);
        for _ in 0..70 {
            profiles.record_receiver(site, b);
        }
        for _ in 0..25 {
            profiles.record_receiver(site, c);
        }
        for _ in 0..5 {
            profiles.record_receiver(site, a); // below 10%: dropped
        }
        let cx = CompileCx::new(&p, &profiles);
        let config = PolicyConfig::default();
        let tree = CallTree::new(root, p.method(root).graph.clone(), &cx, &config);
        let pn = tree.node(tree.root()).children[0];
        assert_eq!(tree.node(pn).kind, NodeKind::Polymorphic);
        let targets = &tree.node(pn).children;
        assert_eq!(targets.len(), 2, "the 5% receiver must be dropped");
        assert_eq!(tree.node(targets[0]).method, Some(mb));
        assert_eq!(tree.node(targets[0]).speculated_class, Some(b));
        assert!(tree.node(targets[0]).poly_prob > tree.node(targets[1]).poly_prob);
        assert_eq!(tree.node(targets[1]).method, Some(mc));
    }

    #[test]
    fn megamorphic_without_profile_is_generic() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let ma = p.declare_method(a, "go", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, ma);
        let v = fb.const_int(0);
        fb.ret(Some(v));
        let g = fb.finish();
        p.define_method(ma, g);
        let root = p.declare_function("root", vec![Type::Object(a)], RetType::Value(Type::Int));
        let mut fb = FunctionBuilder::new(&p, root);
        let recv = fb.param(0);
        let sel = fb.program().selector_by_name("go", 1).unwrap();
        let r = fb.call_virtual(sel, vec![recv]).unwrap();
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(root, g);
        // NB: CHA would devirtualize this in canonicalize; the call tree is
        // built on the unoptimized graph here to exercise the no-profile
        // path.
        let profiles = ProfileTable::new();
        let cx = CompileCx::new(&p, &profiles);
        let config = PolicyConfig::default();
        let tree = CallTree::new(root, p.method(root).graph.clone(), &cx, &config);
        let n = tree.node(tree.root()).children[0];
        assert_eq!(tree.node(n).kind, NodeKind::Generic);
    }

    #[test]
    fn recursion_depth_tracked() {
        let mut p = Program::new();
        let f = p.declare_function("f", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, f);
        let x = fb.param(0);
        let c = fb.call_static(f, vec![x]).unwrap();
        fb.ret(Some(c));
        let g = fb.finish();
        p.define_method(f, g);
        let profiles = ProfileTable::new();
        let cx = CompileCx::new(&p, &profiles);
        let config = PolicyConfig::default();
        let mut tree = CallTree::new(f, p.method(f).graph.clone(), &cx, &config);
        let c1 = tree.node(tree.root()).children[0];
        assert_eq!(tree.node(c1).rec_depth, 1);
        tree.expand_node(c1, &cx, &config);
        let c2 = tree.node(c1).children[0];
        assert_eq!(tree.node(c2).rec_depth, 2);
    }

    #[test]
    fn generic_for_opaque_targets() {
        let mut p = Program::new();
        let ext = p.declare_function("ext", vec![], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, ext);
        fb.ret(None);
        let g = fb.finish();
        p.define_method(ext, g);
        p.set_opaque(ext);
        let root = p.declare_function("root", vec![], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, root);
        fb.call_static(ext, vec![]);
        fb.ret(None);
        let g = fb.finish();
        p.define_method(root, g);
        let profiles = ProfileTable::new();
        let cx = CompileCx::new(&p, &profiles);
        let config = PolicyConfig::default();
        let tree = CallTree::new(root, p.method(root).graph.clone(), &cx, &config);
        assert_eq!(
            tree.node(tree.node(tree.root()).children[0]).kind,
            NodeKind::Generic
        );
    }
}
