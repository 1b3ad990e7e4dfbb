//! Conditional elimination: dominance-based folding of repeated branches.
//!
//! When a branch on `c` dominates a block that can only be reached through
//! its then-edge (resp. else-edge), `c` is known `true` (resp. `false`)
//! there; any further branch on the same SSA value folds. GVN runs first
//! in the pipeline, so syntactically equal conditions share one value and
//! this pass sees them. `not`-chains are followed.
//!
//! This is the cross-block complement of the canonicalizer's constant
//! branch pruning, and matters after inlining duplicates guard patterns
//! (e.g. two inlined bodies both checking `mode == FAST`).

use std::sync::Arc;

use incline_ir::dom::DomTree;
use incline_ir::graph::{Op, Terminator};
use incline_ir::ids::{BlockId, ValueId};
use incline_ir::{Graph, ValueDef};

use crate::stats::OptStats;

/// Runs conditional elimination; folded branches count as `branch_prune`.
pub fn cond_elim(graph: &mut Graph) -> OptStats {
    let mut stats = OptStats::new();
    // Without a branch there is nothing to learn and nothing to fold.
    let branches = |g: &Graph| {
        g.block_ids()
            .any(|b| matches!(g.block(b).term, Terminator::Branch { .. }))
    };
    while branches(graph) {
        // The walk keeps the tree it started with while its folds drop the
        // graph's.
        let dom = Arc::clone(graph.dom_tree());
        if !walk(graph, &dom, &mut stats) {
            break;
        }
        // CFG changed: the next turn gets a new tree (rarely loops twice).
    }
    stats
}

/// What is known about boolean values at the current point of the
/// dominator-tree walk: a dense table by [`ValueId`] plus the undo log that
/// scopes it — leaving a subtree restores the entries it overwrote.
struct Facts {
    known: Vec<Option<bool>>,
    undo: Vec<(ValueId, Option<bool>)>,
}

impl Facts {
    fn set(&mut self, value: ValueId, known: bool) {
        let slot = &mut self.known[value.index()];
        self.undo.push((value, *slot));
        *slot = Some(known);
    }

    /// Adds `value = known` plus facts implied through `not` chains.
    fn add(&mut self, graph: &Graph, value: ValueId, known: bool) {
        self.set(value, known);
        // x = not y: y's value is the negation.
        let mut cur = value;
        let mut cur_known = known;
        while let ValueDef::Inst(i) = graph.value(cur).def {
            if let Op::Not = graph.inst(i).op {
                cur = graph.inst(i).args[0];
                cur_known = !cur_known;
                self.set(cur, cur_known);
            } else {
                break;
            }
        }
    }

    /// Looks a condition up, following `not` chains upward (a branch on
    /// `not c` folds when `c` is known).
    fn lookup(&self, graph: &Graph, value: ValueId) -> Option<bool> {
        let mut cur = value;
        let mut flip = false;
        loop {
            if let Some(k) = self.known[cur.index()] {
                return Some(k ^ flip);
            }
            match graph.value(cur).def {
                ValueDef::Inst(i) if matches!(graph.inst(i).op, Op::Not) => {
                    cur = graph.inst(i).args[0];
                    flip = !flip;
                }
                _ => return None,
            }
        }
    }

    /// Forgets everything learnt since the undo log was `height` long.
    fn rewind(&mut self, height: usize) {
        while self.undo.len() > height {
            let (value, prev) = self.undo.pop().expect("height tracked");
            self.known[value.index()] = prev;
        }
    }
}

/// Folds `block`'s branch if its condition is known here.
fn fold_branch(graph: &mut Graph, block: BlockId, facts: &Facts, stats: &mut OptStats) -> bool {
    let Terminator::Branch { cond, .. } = &graph.block(block).term else {
        return false;
    };
    let Some(known) = facts.lookup(graph, *cond) else {
        return false;
    };
    graph.fold_branch(block, known);
    stats.branch_prune += 1;
    true
}

/// One walk over the dominator tree (explicit stack: ladders of thousands
/// of nested branches must not overflow the host's). The predecessor table
/// is the one `dom` was computed from, so an edge folded away earlier in the
/// same walk still counts — the next walk sees the new CFG. Returns whether
/// a branch folded.
fn walk(graph: &mut Graph, dom: &DomTree, stats: &mut OptStats) -> bool {
    let preds = dom.preds();
    let mut facts = Facts {
        known: vec![None; graph.value_count()],
        undo: Vec::new(),
    };
    let entry = graph.entry();
    let mut changed = fold_branch(graph, entry, &facts, stats);
    // (block, index of its next unvisited child, undo height on entry)
    let mut stack: Vec<(BlockId, usize, usize)> = vec![(entry, 0, 0)];
    while let Some(top) = stack.last_mut() {
        let (block, next, height) = *top;
        let Some(&child) = dom.children(block).get(next) else {
            facts.rewind(height);
            stack.pop();
            continue;
        };
        top.1 += 1;
        let child_height = facts.undo.len();
        // A fact holds in `child` when it is the unique CFG successor of
        // one side of `block`'s branch (single predecessor ⇒ only entered
        // through that edge).
        if let Terminator::Branch {
            cond,
            then_dest,
            else_dest,
        } = &graph.block(block).term
        {
            if preds.of(child) == [block] && then_dest.0 != else_dest.0 {
                if then_dest.0 == child {
                    facts.add(graph, *cond, true);
                } else if else_dest.0 == child {
                    facts.add(graph, *cond, false);
                }
            }
        }
        changed |= fold_branch(graph, child, &facts, stats);
        stack.push((child, 0, child_height));
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::types::{RetType, Type};
    use incline_ir::verify::verify_graph;
    use incline_ir::{CmpOp, Program};

    /// if c { if c { A } else { B } } — the inner branch folds to A.
    #[test]
    fn folds_repeated_condition() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Bool], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let c = fb.param(0);
        let outer_t = fb.add_block();
        let outer_e = fb.add_block();
        fb.branch(c, (outer_t, vec![]), (outer_e, vec![]));
        fb.switch_to(outer_t);
        let inner_t = fb.add_block();
        let inner_e = fb.add_block();
        fb.branch(c, (inner_t, vec![]), (inner_e, vec![]));
        fb.switch_to(inner_t);
        let one = fb.const_int(1);
        fb.ret(Some(one));
        fb.switch_to(inner_e);
        let two = fb.const_int(2);
        fb.ret(Some(two));
        fb.switch_to(outer_e);
        let three = fb.const_int(3);
        fb.ret(Some(three));
        let mut g = fb.finish();

        let stats = cond_elim(&mut g);
        assert_eq!(stats.branch_prune, 1);
        verify_graph(&p, &g, &[Type::Bool], RetType::Value(Type::Int)).unwrap();
        // inner_e became unreachable: entry, outer_t, inner_t, outer_e left.
        assert_eq!(g.reachable_blocks().len(), 4);
    }

    /// The else-side knows the condition is false.
    #[test]
    fn folds_on_else_side() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Bool], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let c = fb.param(0);
        let t = fb.add_block();
        let e = fb.add_block();
        fb.branch(c, (t, vec![]), (e, vec![]));
        fb.switch_to(t);
        let one = fb.const_int(1);
        fb.ret(Some(one));
        fb.switch_to(e);
        let t2 = fb.add_block();
        let e2 = fb.add_block();
        fb.branch(c, (t2, vec![]), (e2, vec![]));
        fb.switch_to(t2);
        let two = fb.const_int(2);
        fb.ret(Some(two));
        fb.switch_to(e2);
        let three = fb.const_int(3);
        fb.ret(Some(three));
        let mut g = fb.finish();
        let stats = cond_elim(&mut g);
        assert_eq!(stats.branch_prune, 1);
        // Only entry, e and e2 remain reachable besides t.
        let incline_ir::Terminator::Jump(d, _) = &g.block(incline_ir::BlockId::new(2)).term else {
            panic!("else-side branch must fold to a jump")
        };
        assert_eq!(d.index(), 4); // e2
    }

    /// `not c` facts propagate.
    #[test]
    fn follows_not_chains() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Bool], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let c = fb.param(0);
        let nc = fb.not(c);
        let t = fb.add_block();
        let e = fb.add_block();
        fb.branch(c, (t, vec![]), (e, vec![]));
        fb.switch_to(t);
        // Inside the then-side, `not c` is false.
        let t2 = fb.add_block();
        let e2 = fb.add_block();
        fb.branch(nc, (t2, vec![]), (e2, vec![]));
        fb.switch_to(t2);
        let one = fb.const_int(1);
        fb.ret(Some(one));
        fb.switch_to(e2);
        let two = fb.const_int(2);
        fb.ret(Some(two));
        fb.switch_to(e);
        let three = fb.const_int(3);
        fb.ret(Some(three));
        let mut g = fb.finish();
        let stats = cond_elim(&mut g);
        assert_eq!(
            stats.branch_prune, 1,
            "branch on `not c` must fold inside then-side"
        );
        verify_graph(&p, &g, &[Type::Bool], RetType::Value(Type::Int)).unwrap();
    }

    /// A merge point (two predecessors) must NOT inherit the fact.
    #[test]
    fn no_fact_at_merge_points() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Bool], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let c = fb.param(0);
        let t = fb.add_block();
        let e = fb.add_block();
        let (j, _) = fb.add_block_with_params(&[]);
        fb.branch(c, (t, vec![]), (e, vec![]));
        fb.switch_to(t);
        fb.jump(j, vec![]);
        fb.switch_to(e);
        fb.jump(j, vec![]);
        fb.switch_to(j);
        // At the merge, c is unknown: this branch must survive.
        let t2 = fb.add_block();
        let e2 = fb.add_block();
        fb.branch(c, (t2, vec![]), (e2, vec![]));
        fb.switch_to(t2);
        let one = fb.const_int(1);
        fb.ret(Some(one));
        fb.switch_to(e2);
        let two = fb.const_int(2);
        fb.ret(Some(two));
        let mut g = fb.finish();
        let stats = cond_elim(&mut g);
        assert_eq!(stats.branch_prune, 0, "merge-point branches must not fold");
    }

    /// Loop headers keep their conditions (the fact does not dominate).
    #[test]
    fn loop_conditions_survive() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, m);
        let n = fb.param(0);
        let zero = fb.const_int(0);
        let (head, hp) = fb.add_block_with_params(&[Type::Int]);
        let body = fb.add_block();
        let exit = fb.add_block();
        fb.jump(head, vec![zero]);
        fb.switch_to(head);
        let c = fb.cmp(CmpOp::ILt, hp[0], n);
        fb.branch(c, (body, vec![]), (exit, vec![]));
        fb.switch_to(body);
        let one = fb.const_int(1);
        let i2 = fb.iadd(hp[0], one);
        fb.jump(head, vec![i2]);
        fb.switch_to(exit);
        fb.ret(None);
        let mut g = fb.finish();
        let stats = cond_elim(&mut g);
        assert_eq!(stats.branch_prune, 0);
        verify_graph(&p, &g, &[Type::Int], RetType::Void).unwrap();
    }

    /// Hostile shape: `if c { if c { if c { … } } }`, 2 000 deep. The
    /// dominator tree is a 2 000-long spine, so the walk must not recurse on
    /// the host stack, and every level's fact must still be in scope at the
    /// bottom: all inner branches fold.
    #[test]
    fn folds_a_2_000_deep_guard_nest() {
        const DEPTH: usize = 2_000;
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Bool], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let c = fb.param(0);
        let zero = fb.const_int(0);
        let one = fb.const_int(1);
        for _ in 0..DEPTH {
            let inner = fb.add_block();
            let out = fb.add_block();
            fb.branch(c, (inner, vec![]), (out, vec![]));
            fb.switch_to(out);
            fb.ret(Some(zero));
            fb.switch_to(inner);
        }
        fb.ret(Some(one));
        let mut g = fb.finish();
        let stats = cond_elim(&mut g);
        assert_eq!(stats.branch_prune, DEPTH as u64 - 1);
        verify_graph(&p, &g, &[Type::Bool], RetType::Value(Type::Int)).unwrap();
        // The outermost test, its refusal, and the chain of guarded blocks.
        assert_eq!(g.reachable_blocks().len(), DEPTH + 2);
    }

    /// Hostile shape: a ladder of 2 000 diamonds on one condition. Every
    /// rung's join has two predecessors, so nothing may fold — and the
    /// facts of a rung's arms must be gone again at the next rung.
    #[test]
    fn a_2_000_rung_diamond_ladder_folds_nothing() {
        const RUNGS: usize = 2_000;
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Bool], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, m);
        let c = fb.param(0);
        for _ in 0..RUNGS {
            let (t, e, join) = (fb.add_block(), fb.add_block(), fb.add_block());
            fb.branch(c, (t, vec![]), (e, vec![]));
            fb.switch_to(t);
            fb.jump(join, vec![]);
            fb.switch_to(e);
            fb.jump(join, vec![]);
            fb.switch_to(join);
        }
        fb.ret(None);
        let mut g = fb.finish();
        let stats = cond_elim(&mut g);
        assert_eq!(stats.branch_prune, 0);
        verify_graph(&p, &g, &[Type::Bool], RetType::Void).unwrap();
    }
}
