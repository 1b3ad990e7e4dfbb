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
                let cx = CompileCx::new(&w.program, &profiles)
                    .with_speculation(Speculation { allow_deopt });
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

/// One hot root over hubs with wide fan-out, a deep chain of tiny
/// forwarders and a self-recursive method, with profiles synthesised rather
/// than recorded. The root's hottest callee, `bait`, is tiny, so its cutoff
/// has the best priority of the tree; it expands into one large, cold
/// callee, which lowers the priority maximum along its whole ancestor path.
/// Every hub calls `bait` and the cold `big` too, so cutoffs the expansion
/// test refuses sit under ancestors with many other children.
#[cfg(debug_assertions)]
fn hostile_shape() -> (
    Program,
    incline::ir::MethodId,
    incline::profile::ProfileTable,
) {
    use incline::ir::{CallSiteId, CmpOp, MethodId};

    const HUBS: usize = 3;
    const LEAVES: usize = 8;
    const CHAIN: usize = 24;
    let mut p = Program::new();
    let mut declare = |name: String| p.declare_function(name, vec![Type::Int], Type::Int);
    let leaves: Vec<MethodId> = (0..LEAVES).map(|k| declare(format!("leaf{k}"))).collect();
    let big = declare("big".into());
    let bait = declare("bait".into());
    let hubs: Vec<MethodId> = (0..HUBS).map(|j| declare(format!("hub{j}"))).collect();
    let chain: Vec<MethodId> = (0..CHAIN).map(|i| declare(format!("fwd{i}"))).collect();
    let rec = declare("rec".into());
    let root = declare("root".into());

    // `m(x) = x + extra + Σ callee(x)`, one callsite per callee in order.
    let define_sum = |p: &mut Program, m: MethodId, callees: &[MethodId], extra: i64| {
        let mut fb = FunctionBuilder::new(p, m);
        let x = fb.param(0);
        let k = fb.const_int(extra);
        let mut acc = fb.iadd(x, k);
        for &c in callees {
            let r = fb.call_static(c, vec![x]).unwrap();
            acc = fb.iadd(acc, r);
        }
        fb.ret(Some(acc));
        let g = fb.finish();
        p.define_method(m, g);
    };
    for (k, &leaf) in leaves.iter().enumerate() {
        define_sum(&mut p, leaf, &[], k as i64);
    }
    let mut fb = FunctionBuilder::new(&p, big);
    let mut acc = fb.param(0);
    for i in 0..40 {
        let three = fb.const_int(3);
        let k = fb.const_int(i);
        let scaled = fb.imul(acc, three);
        acc = fb.iadd(scaled, k);
    }
    fb.ret(Some(acc));
    let g = fb.finish();
    p.define_method(big, g);
    define_sum(&mut p, bait, &[big], 1);
    let hub_callees: Vec<MethodId> = leaves.iter().copied().chain([bait, big]).collect();
    for &hub in &hubs {
        define_sum(&mut p, hub, &hub_callees, 0);
    }
    for (i, &fwd) in chain.iter().enumerate() {
        define_sum(&mut p, fwd, &[*chain.get(i + 1).unwrap_or(&hubs[0])], 0);
    }
    // rec(x) = x < 1 ? 0 : rec(x - 1) + hub1(x)
    let mut fb = FunctionBuilder::new(&p, rec);
    let x = fb.param(0);
    let one = fb.const_int(1);
    let done = fb.cmp(CmpOp::ILt, x, one);
    let (base, step) = (fb.add_block(), fb.add_block());
    fb.branch(done, (base, vec![]), (step, vec![]));
    fb.switch_to(base);
    let zero = fb.const_int(0);
    fb.ret(Some(zero));
    fb.switch_to(step);
    let down = fb.isub(x, one);
    let inner = fb.call_static(rec, vec![down]).unwrap();
    let side = fb.call_static(hubs[1], vec![x]).unwrap();
    let r = fb.iadd(inner, side);
    fb.ret(Some(r));
    let g = fb.finish();
    p.define_method(rec, g);
    let root_callees: Vec<MethodId> = hubs.iter().copied().chain([chain[0], rec, bait]).collect();
    define_sum(&mut p, root, &root_callees, 0);

    // Every method runs 1 000 times; a callsite's count over that is its
    // local frequency.
    let mut profiles = incline::profile::ProfileTable::new();
    let mut site = |method: MethodId, index: u32, count: u64| {
        for _ in 0..count {
            profiles.record_callsite(CallSiteId { method, index });
        }
    };
    for (j, _) in hubs.iter().enumerate() {
        site(root, j as u32, 1_000);
    }
    site(root, HUBS as u32, 2_000); // the chain
    site(root, HUBS as u32 + 1, 1_000); // rec
    site(root, HUBS as u32 + 2, 50_000); // bait: the best cutoff
    site(bait, 0, 1); // …over a cold, large child
    for &hub in &hubs {
        for k in 0..LEAVES {
            site(hub, k as u32, 300 * (k as u64 + 1));
        }
        site(hub, LEAVES as u32, 1_000); // bait
        site(hub, LEAVES as u32 + 1, 1); // big: refused
    }
    for &fwd in &chain {
        site(fwd, 0, 1_000);
    }
    site(rec, 0, 900);
    site(rec, 1, 1_000);
    for m in p.method_ids() {
        for _ in 0..1_000 {
            profiles.record_invocation(m);
        }
    }
    (p, root, profiles)
}

/// The hostile shape under `compile_audited`: the adaptive policy, which
/// refuses the cold callsites and inlines across rounds, and a fixed one
/// that expands some 180 nodes, then refuses every cutoff left and inlines
/// nothing. An ancestor walk that stops too early, a priority maximum that
/// is never lowered, or an open flag left set after a refusal fails the
/// audit at that step.
#[cfg(debug_assertions)]
#[test]
fn maintained_metrics_survive_a_hostile_tree_shape() {
    use incline::core::IncrementalInliner;

    let (p, root, profiles) = hostile_shape();
    for (config, min_expanded) in [
        (PolicyConfig::tuned(), 30),
        (PolicyConfig::fixed(4_000, 0), 150),
    ] {
        let sink = CollectingSink::new();
        let cx = CompileCx::new(&p, &profiles).with_trace(&sink);
        let out = IncrementalInliner::with_config(config)
            .compile_audited(root, &cx)
            .expect("the hostile shape compiles");
        let events = sink.take();
        let count = |f: fn(&CompileEvent) -> bool| events.iter().filter(|e| f(e)).count();
        let expanded = count(|e| matches!(e, CompileEvent::NodeExpanded { .. }));
        let refused = count(|e| matches!(e, CompileEvent::CutoffDeferred { .. }));
        assert!(
            expanded >= min_expanded && refused > 0,
            "{expanded} expansions, {refused} refusals: {:?}",
            out.stats
        );
    }
}
