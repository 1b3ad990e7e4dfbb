//! Structural invariants of the partial call tree across expansion, over
//! the paper benchmarks and seeded random programs; and the agreement of
//! the numbers the tree stores or sweeps with their recursive definitions,
//! at every step of whole compilations.

use incline::core::calltree::{CallTree, NodeKind};
use incline::core::policy::PolicyConfig;
use incline::prelude::*;
use incline::workloads::{generate, GenConfig};

/// Builds the tree for `entry` with profiles from interpretation, then
/// expands greedily until nothing is left under a node-count cap.
fn build_expanded(w: &Workload) -> (CallTree, incline::profile::ProfileTable) {
    let mut vm = Machine::new(
        &w.program,
        Box::new(NoInline),
        VmConfig {
            jit: false,
            ..VmConfig::default()
        },
    );
    vm.run(w.entry, vec![Value::Int(w.input.min(8))])
        .expect("profiling run");
    let profiles = vm.profiles().clone();
    let config = PolicyConfig::tuned();
    let mut tree = {
        let cx = CompileCx::new(&w.program, &profiles);
        let mut graph = w.program.method(w.entry).graph.clone();
        incline::opt::optimize(&w.program, &mut graph);
        CallTree::new(w.entry, graph, &cx, &config)
    };
    // Expand every cutoff breadth-first until the cap.
    let cx = CompileCx::new(&w.program, &profiles);
    let mut budget = 300usize;
    loop {
        let next = tree
            .node_ids()
            .find(|&n| tree.node(n).kind == NodeKind::Cutoff && budget > 0);
        match next {
            Some(n) => {
                tree.expand_node(n, &cx, &config);
                budget -= 1;
            }
            None => break,
        }
        if budget == 0 {
            break;
        }
    }
    (tree, profiles)
}

fn check_invariants(w: &Workload, tree: &CallTree, profiles: &incline::profile::ProfileTable) {
    let cx = CompileCx::new(&w.program, profiles);
    let mut cutoffs = 0usize;
    for n in tree.node_ids() {
        let node = tree.node(n);
        // Parent/child agreement.
        for &c in &node.children {
            assert_eq!(
                tree.node(c).parent,
                Some(n),
                "{}: child {c:?} parent mismatch",
                w.name
            );
        }
        match node.kind {
            NodeKind::Root => assert!(node.parent.is_none()),
            NodeKind::Expanded => {
                assert!(
                    node.graph.is_some(),
                    "{}: expanded node without graph",
                    w.name
                );
                // The specialized graph verifies against the declared
                // signature (possibly narrowed params).
                let m = node.method.expect("expanded node has a target");
                let md = w.program.method(m);
                incline::ir::verify::verify_graph(
                    &w.program,
                    node.graph.as_ref().unwrap(),
                    &md.params,
                    md.ret,
                )
                .unwrap_or_else(|e| panic!("{}: specialized {} invalid: {e}", w.name, md.name));
            }
            NodeKind::Cutoff => {
                cutoffs += 1;
                assert!(node.graph.is_none());
                assert!(node.method.is_some());
            }
            NodeKind::Polymorphic => {
                assert!(node.method.is_none());
                assert!(
                    !node.children.is_empty(),
                    "{}: P node without targets",
                    w.name
                );
                let psum: f64 = node.children.iter().map(|&c| tree.node(c).poly_prob).sum();
                assert!(
                    psum <= 1.0 + 1e-9,
                    "{}: target probabilities exceed 1: {psum}",
                    w.name
                );
                for &c in &node.children {
                    assert!(tree.node(c).speculated_class.is_some());
                }
            }
            _ => {}
        }
        // Frequencies are finite and non-negative.
        assert!(
            node.freq.is_finite() && node.freq >= 0.0,
            "{}: bad freq {}",
            w.name,
            node.freq
        );
    }
    // Aggregate metrics agree with a recount.
    let metrics = tree.subtree_metrics(tree.root(), &cx);
    assert_eq!(metrics.n_c, cutoffs, "{}: N_c mismatch", w.name);
    assert!(
        metrics.s_b <= metrics.s_ir + 1e-9,
        "{}: S_b must not exceed S_ir",
        w.name
    );
    assert!(
        metrics.s_ir >= tree.root_graph().size() as f64,
        "{}: S_ir includes the root",
        w.name
    );
}

#[test]
fn invariants_hold_on_paper_benchmarks() {
    for name in [
        "scalatest",
        "factorie",
        "jython",
        "stmbench7",
        "neo4j",
        "gauss-mix",
    ] {
        let w = incline::workloads::by_name(name).unwrap();
        let (tree, profiles) = build_expanded(&w);
        check_invariants(&w, &tree, &profiles);
    }
}

#[test]
fn invariants_hold_on_random_programs() {
    for seed in 200..215u64 {
        let w = generate(seed, GenConfig::default());
        let (tree, profiles) = build_expanded(&w);
        check_invariants(&w, &tree, &profiles);
    }
}

#[test]
fn recursion_depth_monotone_down_chains() {
    let w = incline::workloads::by_name("batik").unwrap(); // recursive visitor
    let (tree, _) = build_expanded(&w);
    for n in tree.node_ids() {
        let node = tree.node(n);
        if let (Some(parent), Some(m)) = (node.parent, node.method) {
            let parent_depth = tree.node(parent).rec_depth;
            if tree.node(parent).method == Some(m) {
                assert!(
                    node.rec_depth >= parent_depth,
                    "recursion depth must not decrease"
                );
            }
        }
    }
}

/// The call tree stores `|ir(n)|` and sweeps `S_ir`, `S_b`, `N_c`, the
/// intrinsic priorities and the open-cutoff flags instead of re-deriving
/// them per question. `compile_audited` re-derives them — recursively, from
/// freshly measured graphs — after every expansion, refusal, inlining step
/// and specialization refresh, and panics on the first bit that differs.
/// Every hot method of the 28 workloads and of 50 hardened generator draws
/// is compiled that way, with and without uncommon traps.
///
/// The reference is compiled into debug builds only.
#[cfg(debug_assertions)]
#[test]
fn maintained_metrics_equal_the_recursive_reference_at_every_step() {
    use incline::core::IncrementalInliner;

    let workloads: Vec<Workload> = all_benchmarks()
        .into_iter()
        .chain((300..350).map(|seed| generate(seed, GenConfig::hardened())))
        .collect();
    let inliner = IncrementalInliner::with_config(PolicyConfig::tuned());
    let mut audited = 0;
    for w in &workloads {
        let mut vm = Machine::new(
            &w.program,
            Box::new(NoInline),
            VmConfig {
                jit: false,
                ..VmConfig::default()
            },
        );
        for _ in 0..3 {
            vm.run(w.entry, vec![Value::Int(w.input)])
                .expect("profiling run");
        }
        let profiles = vm.profiles().clone();
        for m in w.program.method_ids() {
            if profiles.hotness(m) < 5 {
                continue;
            }
            for allow_deopt in [false, true] {
                let cx = CompileCx::new(&w.program, &profiles).with_speculation(Speculation {
                    allow_deopt,
                    ..Speculation::default()
                });
                let out = inliner
                    .compile_audited(m, &cx)
                    .unwrap_or_else(|e| panic!("{}: {m} failed to compile: {e}", w.name));
                assert!(out.stats.rounds >= 1);
                audited += 1;
            }
        }
    }
    assert!(audited >= 2 * 28, "every workload has a hot method");
}
