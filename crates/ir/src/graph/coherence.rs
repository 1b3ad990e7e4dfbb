//! The invalidation rule of the cached shape analyses, held to its
//! specification: after any sequence of the graph's public mutators, every
//! cached analysis equals the uncached computation.

use super::*;
use crate::inline::inline_call;
use crate::rng::Rng64;

/// Everything the graph caches or derives from a cached analysis against a
/// fresh walk.
fn assert_coherent(g: &Graph, what: &str) {
    let fresh = g.reachable_blocks();
    assert_eq!(g.block_order()[..], fresh[..], "{what}: block order");
    assert!(
        g.predecessors() == Preds::over(g, &fresh),
        "{what}: predecessors"
    );
    assert!(
        **g.dom_tree() == DomTree::compute(g),
        "{what}: dominator tree"
    );
    assert!(
        g.loop_forest() == LoopForest::compute(g),
        "{what}: loop forest"
    );
    let size: usize = fresh
        .iter()
        .map(|&b| g.block(b).params.len() + g.block(b).insts.len() + 1)
        .sum();
    assert_eq!(g.size(), size, "{what}: size");
    g.assert_shape_analyses_fresh();
}

/// `fn(bool)`: the entry's parameter is the one value branches, returns and
/// calls use, so every graph the walk below produces can be compacted and
/// inlined whatever its shape.
fn seed_graph() -> (Graph, ValueId) {
    let mut g = Graph::empty();
    let c = g.add_block_param(g.entry(), Type::Bool);
    g.set_terminator(g.entry(), Terminator::Return(None));
    (g, c)
}

fn random_block(rng: &mut Rng64, g: &Graph) -> BlockId {
    BlockId::new(rng.gen_index(g.block_count()))
}

fn random_terminator(rng: &mut Rng64, g: &Graph, c: ValueId) -> Terminator {
    match rng.gen_index(4) {
        0 => Terminator::Return(None),
        1 => Terminator::Jump(random_block(rng, g), vec![]),
        _ => Terminator::Branch {
            cond: c,
            then_dest: (random_block(rng, g), vec![]),
            else_dest: (random_block(rng, g), vec![]),
        },
    }
}

/// Points every use back at `c`, which no later edit can cut off.
fn read_only(g: &mut Graph, c: ValueId) {
    for b in 0..g.block_count() {
        g.for_each_term_use_mut(BlockId::new(b), |v| *v = c);
    }
    for i in 0..g.inst_count() {
        g.inst_mut(InstId::new(i)).args.fill(c);
    }
}

/// One random edit through the public `&mut Graph` surface (or a clone, an
/// inlining step, a compaction). Returns its name.
fn random_edit(rng: &mut Rng64, g: &mut Graph, c: ValueId) -> &'static str {
    let block = random_block(rng, g);
    match rng.gen_index(20) {
        0 => {
            // The tables of the cached analyses are sized by the block
            // count, so even an unreachable newcomer must be seen. It is
            // terminated at once, so that every graph here inlines.
            let b = g.add_block();
            assert_coherent(g, "after add_block");
            g.set_terminator(b, Terminator::Return(None));
            "add_block"
        }
        1 => {
            g.add_block_param(block, Type::Int);
            "add_block_param"
        }
        2 => {
            g.append(block, Op::ConstInt(7), vec![], Some(Type::Int));
            "append"
        }
        3 => {
            let inst = g.create_inst(Op::ConstInt(9), vec![], Some(Type::Int));
            g.insert_inst(block, 0, inst);
            "insert_inst"
        }
        4 => {
            if let Some(&inst) = g.block(block).insts.first() {
                g.remove_inst(block, inst);
            }
            "remove_inst"
        }
        5..=7 => {
            let term = random_terminator(rng, g, c);
            g.set_terminator(block, term);
            "set_terminator"
        }
        8 => {
            if matches!(g.block(block).term, Terminator::Branch { .. }) {
                g.fold_branch(block, rng.gen_bool(0.5));
            }
            "fold_branch"
        }
        9 => {
            // Retarget an edge behind the graph's back.
            let to = random_block(rng, g);
            match &mut g.block_mut(block).term {
                Terminator::Jump(d, _) => *d = to,
                Terminator::Branch { else_dest, .. } => else_dest.0 = to,
                other => *other = Terminator::Jump(to, vec![]),
            }
            "block_mut"
        }
        10 => {
            g.insts_mut(block).reverse();
            "insts_mut"
        }
        11 => {
            g.for_each_term_use_mut(block, |v| *v = c);
            "for_each_term_use_mut"
        }
        12 => {
            if let Some(&inst) = g.block(block).insts.first() {
                if !matches!(g.inst(inst).op, Op::Call(_)) {
                    g.inst_mut(inst).op = Op::ConstInt(11);
                }
            }
            "inst_mut"
        }
        13 => {
            // Every value moves to another definition and back.
            if let Some(&v) = g.block(block).params.first() {
                g.redefine(v, ValueDef::Param(g.entry(), 0));
                g.redefine(v, ValueDef::Param(block, 0));
            }
            g.set_value_type(c, Type::Bool);
            "redefine + set_value_type"
        }
        14 => {
            *g = g.clone();
            "clone"
        }
        15 => {
            // Onto a dirty graph: one of another shape, with whatever
            // analyses it had cached.
            let (mut dirty, _) = seed_graph();
            let extra = dirty.add_block();
            dirty.set_terminator(extra, Terminator::Return(None));
            dirty.set_terminator(dirty.entry(), Terminator::Jump(extra, vec![]));
            assert_coherent(&dirty, "the dirty graph");
            dirty.clone_from(g);
            *g = dirty;
            "clone_from"
        }
        16 => {
            // Inline a copy of the graph into itself at a fresh call.
            let callee = g.clone();
            let reachable = g.block_order()[rng.gen_index(g.block_order().len())];
            let site = CallSiteId {
                method: MethodId::new(0),
                index: g.inst_count() as u32,
            };
            let target = CallTarget::Static(MethodId::new(0));
            let op = Op::Call(CallInfo { target, site });
            let args = vec![c; callee.block(callee.entry()).params.len()];
            let (call, _) = g.append(reachable, op, args, None);
            if g.block_count() + callee.block_count() < 400 {
                inline_call(g, reachable, call, &callee);
                assert_coherent(&callee, "the callee after inlining");
                // The copy reads its own entry parameters.
                read_only(g, c);
            }
            "inline_call"
        }
        17 => {
            // A call split off its block: the continuation is a new block
            // and takes the old terminator.
            let site = CallSiteId {
                method: MethodId::new(0),
                index: g.inst_count() as u32,
            };
            let op = Op::Call(CallInfo {
                target: CallTarget::Static(MethodId::new(0)),
                site,
            });
            let (call, _) = g.append(block, op, vec![], Some(Type::Bool));
            let (continuation, _) = g.split_at_call(block, call);
            assert_coherent(g, "after split_at_call");
            g.set_terminator(block, Terminator::Jump(continuation, vec![c]));
            "split_at_call"
        }
        18 => {
            // A copy of the reachable blocks beside themselves, reading
            // the values it does not clone (as peeling does).
            if 2 * g.block_count() < 400 {
                let src = g.clone();
                let order = src.block_order();
                g.transplant(&src, order, Transplant::identity(&src), Terminator::Return);
                // The copy of the entry has parameters of its own.
                read_only(g, c);
            }
            "transplant"
        }
        _ => {
            g.compact();
            "compact"
        }
    }
}

#[test]
fn cached_shape_analyses_equal_the_uncached_ones_under_every_mutator() {
    for seed in 0..40 {
        let mut rng = Rng64::new(0x5ea1_0000 + seed);
        let (mut g, c) = seed_graph();
        for step in 0..150 {
            // Edits meet a full cache, an order-only cache (what graphs at
            // rest carry) and an empty one.
            match rng.gen_index(3) {
                0 => assert_coherent(&g, "before the edit"),
                1 => {
                    g.release_dom_tree();
                    g.size();
                }
                _ => {}
            }
            let edit = random_edit(&mut rng, &mut g, c);
            assert_coherent(&g, &format!("seed {seed} step {step} after {edit}"));
        }
    }
}

#[test]
fn retargeting_one_edge_between_two_reads_is_seen() {
    // entry → a → exit, with `b` unreachable; then a → b.
    let (mut g, _) = seed_graph();
    let (a, b, exit) = (g.add_block(), g.add_block(), g.add_block());
    g.set_terminator(g.entry(), Terminator::Jump(a, vec![]));
    g.set_terminator(a, Terminator::Jump(exit, vec![]));
    g.set_terminator(b, Terminator::Jump(b, vec![]));
    g.set_terminator(exit, Terminator::Return(None));
    assert_eq!(g.block_order()[..], [g.entry(), a, exit]);
    assert!(g.dom_tree().dominates(a, exit));
    assert!(g.loop_forest().loops.is_empty());
    assert_eq!(g.size(), 4);

    let Terminator::Jump(dest, _) = &mut g.block_mut(a).term else {
        panic!("set above")
    };
    *dest = b;
    assert_eq!(g.block_order()[..], [g.entry(), a, b]);
    assert!(!g.dom_tree().is_reachable(exit));
    assert_eq!(g.loop_forest().loops.len(), 1);
    assert_eq!(g.predecessors().of(b), [a, b]);
    assert_coherent(&g, "after the retarget");
}

#[test]
fn a_sweep_keeps_the_order_it_started_with() {
    // The handle a shape-editing sweep holds is not the cache slot: the
    // edit empties the slot, the handle still reads the old order.
    let (mut g, c) = seed_graph();
    let (t, f) = (g.add_block(), g.add_block());
    g.set_terminator(t, Terminator::Return(None));
    g.set_terminator(f, Terminator::Return(None));
    g.set_terminator(
        g.entry(),
        Terminator::Branch {
            cond: c,
            then_dest: (t, vec![]),
            else_dest: (f, vec![]),
        },
    );
    let held = Arc::clone(g.block_order());
    g.fold_branch(g.entry(), true);
    assert_eq!(held.len(), 3);
    assert_eq!(g.block_order()[..], [g.entry(), t]);
    // A clone shares the slot's handle instead of walking again.
    let copy = g.clone();
    assert!(Arc::ptr_eq(copy.block_order(), g.block_order()));
}
