//! Global value numbering over the dominator tree.
//!
//! Pure, non-memory operations with identical opcodes and operands are
//! deduplicated: an occurrence dominated by an equivalent earlier occurrence
//! is replaced by it. Commutative operators are normalized by sorting their
//! operands first. The walk is a dominator-tree preorder against one table
//! of leaders tagged with their blocks; a leader counts where its block
//! dominates (the dominator tree's O(1) test).

use std::sync::Arc;

use incline_ir::graph::Op;
use incline_ir::ids::{BlockId, InstId, ValueId};
use incline_ir::Graph;

use crate::alias::Aliases;
use crate::hash::FastMap;
use crate::stats::OptStats;

/// Hashable identity of a value-numberable instruction.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Key {
    ConstInt(i64),
    ConstFloat(u64),
    ConstBool(bool),
    ConstNull(incline_ir::Type),
    Bin(incline_ir::BinOp, ValueId, ValueId),
    Cmp(incline_ir::CmpOp, ValueId, ValueId),
    Unary(u8, ValueId),
    InstanceOf(incline_ir::ClassId, ValueId),
    ArrayLen(ValueId),
}

fn key_of(graph: &Graph, inst: InstId) -> Option<Key> {
    let data = graph.inst(inst);
    if !data.op.is_value_numberable() {
        return None;
    }
    let arg = |k: usize| data.args[k];
    Some(match &data.op {
        Op::ConstInt(k) => Key::ConstInt(*k),
        Op::ConstFloat(bits) => Key::ConstFloat(*bits),
        Op::ConstBool(k) => Key::ConstBool(*k),
        Op::ConstNull(t) => Key::ConstNull(*t),
        Op::Bin(op) => {
            let (mut a, mut b) = (arg(0), arg(1));
            if op.is_commutative() && b < a {
                std::mem::swap(&mut a, &mut b);
            }
            Key::Bin(*op, a, b)
        }
        Op::Cmp(op) => Key::Cmp(*op, arg(0), arg(1)),
        Op::Not => Key::Unary(0, arg(0)),
        Op::INeg => Key::Unary(1, arg(0)),
        Op::FNeg => Key::Unary(2, arg(0)),
        Op::IntToFloat => Key::Unary(3, arg(0)),
        Op::FloatToInt => Key::Unary(4, arg(0)),
        Op::InstanceOf(c) => Key::InstanceOf(*c, arg(0)),
        Op::ArrayLen => Key::ArrayLen(arg(0)),
        _ => return None,
    })
}

/// Runs GVN; returns the number of instructions deduplicated.
///
/// While a block that leads an expression is an ancestor in the preorder,
/// every later occurrence in its subtree finds it and goes, so its entry is
/// never overwritten; an entry left by a finished subtree fails the
/// dominance test, and the next occurrence takes its place — the scoped
/// table of a tree walk, without the undo. A duplicate's result is recorded
/// in an alias table; operands are resolved through it as the walk reaches
/// them (every use sits in the dominator subtree of its definition), and
/// the terminators in one closing sweep.
pub fn gvn(graph: &mut Graph) -> OptStats {
    let mut stats = OptStats::new();
    let dom = Arc::clone(graph.dom_tree());
    let mut leaders: FastMap<Key, (BlockId, ValueId)> =
        FastMap::with_capacity_and_hasher(graph.size(), Default::default());
    let mut aliases = Aliases::new();
    // Each block's list is rebuilt in `kept`, and its old list is handed
    // back there for the next block to rebuild into.
    let mut kept: Vec<InstId> = Vec::new();
    for block in dom.preorder() {
        let insts = std::mem::take(graph.insts_mut(block));
        kept.clear();
        kept.reserve(insts.len());
        for &inst in &insts {
            aliases.resolve_all(&mut graph.inst_mut(inst).args);
            let Some(key) = key_of(graph, inst) else {
                kept.push(inst);
                continue;
            };
            let result = graph
                .inst(inst)
                .result
                .expect("numberable inst has a result");
            let leader = leaders.entry(key).or_insert((block, result));
            if leader.1 != result && dom.dominates(leader.0, block) {
                aliases.record(graph, result, leader.1);
                graph.neutralize_inst(inst);
                stats.gvn += 1;
            } else {
                *leader = (block, result);
                kept.push(inst);
            }
        }
        *graph.insts_mut(block) = std::mem::replace(&mut kept, insts);
    }
    aliases.apply_to_terminators(graph, dom.rpo());
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::graph::CmpOp;
    use incline_ir::types::{RetType, Type};
    use incline_ir::verify::verify_graph;
    use incline_ir::Program;

    #[test]
    fn dedups_within_block() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int, Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let (a, b) = (fb.param(0), fb.param(1));
        let s1 = fb.iadd(a, b);
        let s2 = fb.iadd(b, a); // commutative duplicate
        let r = fb.imul(s1, s2);
        fb.ret(Some(r));
        let mut g = fb.finish();
        let stats = gvn(&mut g);
        assert_eq!(stats.gvn, 1);
        verify_graph(&p, &g, &[Type::Int, Type::Int], RetType::Value(Type::Int)).unwrap();
    }

    #[test]
    fn dedups_across_dominating_blocks() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let one = fb.const_int(1);
        let s1 = fb.iadd(x, one);
        let c = fb.cmp(CmpOp::ILt, s1, x);
        let t = fb.add_block();
        let e = fb.add_block();
        fb.branch(c, (t, vec![]), (e, vec![]));
        fb.switch_to(t);
        let one_b = fb.const_int(1); // duplicate const in dominated block
        let s2 = fb.iadd(x, one_b); // duplicate add in dominated block
        fb.ret(Some(s2));
        fb.switch_to(e);
        fb.ret(Some(s1));
        let mut g = fb.finish();
        let stats = gvn(&mut g);
        assert_eq!(stats.gvn, 2);
        verify_graph(&p, &g, &[Type::Int], RetType::Value(Type::Int)).unwrap();
    }

    #[test]
    fn does_not_merge_across_siblings() {
        // Values in sibling branches do not dominate one another.
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int, Type::Bool], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let c = fb.param(1);
        let t = fb.add_block();
        let e = fb.add_block();
        let (j, jp) = fb.add_block_with_params(&[Type::Int]);
        fb.branch(c, (t, vec![]), (e, vec![]));
        fb.switch_to(t);
        let a1 = fb.iadd(x, x);
        fb.jump(j, vec![a1]);
        fb.switch_to(e);
        let a2 = fb.iadd(x, x); // same expression, sibling block
        fb.jump(j, vec![a2]);
        fb.switch_to(j);
        fb.ret(Some(jp[0]));
        let mut g = fb.finish();
        let stats = gvn(&mut g);
        assert_eq!(stats.gvn, 0, "sibling duplicates must survive");
        verify_graph(&p, &g, &[Type::Int, Type::Bool], RetType::Value(Type::Int)).unwrap();
    }

    /// `entry → {a, s}`, `a → {b, s}`, and each of `a`, `b`, `s`
    /// computes `x + 1`. The reverse postorder puts `s` between `a` and
    /// `b`, but only `a` dominates `b`: `b`'s sum is a duplicate of `a`'s,
    /// and `s`'s, which no equal sum dominates, stays.
    #[test]
    fn a_block_between_a_leader_and_its_duplicate_in_reverse_postorder_changes_nothing() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int, Type::Bool], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let (x, c) = (fb.param(0), fb.param(1));
        let one = fb.const_int(1);
        let (a, b, s) = (fb.add_block(), fb.add_block(), fb.add_block());
        fb.branch(c, (s, vec![]), (a, vec![]));
        fb.switch_to(a);
        let in_a = fb.iadd(x, one);
        fb.branch(c, (s, vec![]), (b, vec![]));
        fb.switch_to(b);
        let in_b = fb.iadd(x, one);
        let sum = fb.iadd(in_a, in_b);
        fb.ret(Some(sum));
        fb.switch_to(s);
        let in_s = fb.iadd(x, one);
        fb.ret(Some(in_s));
        let mut g = fb.finish();
        let dom = Arc::clone(g.dom_tree());
        let at = |block| dom.rpo_position(block).expect("reachable");
        assert!(at(a) < at(s) && at(s) < at(b), "{:?}", dom.rpo());
        assert!(dom.dominates(a, b) && !dom.dominates(a, s));

        let stats = gvn(&mut g);
        assert_eq!(stats.gvn, 1);
        assert_eq!(g.block(b).insts.len(), 1, "only the outer sum is left in b");
        assert_eq!(g.block(s).insts.len(), 1, "s keeps its own x + 1");
        verify_graph(&p, &g, &[Type::Int, Type::Bool], RetType::Value(Type::Int)).unwrap();
    }

    #[test]
    fn memory_reads_not_numbered() {
        let mut p = Program::new();
        let c = p.add_class("Box", None);
        let f = p.add_field(c, "v", Type::Int);
        let m = p.declare_function("f", vec![Type::Object(c)], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let obj = fb.param(0);
        let l1 = fb.get_field(f, obj);
        let l2 = fb.get_field(f, obj);
        let r = fb.iadd(l1, l2);
        fb.ret(Some(r));
        let mut g = fb.finish();
        let stats = gvn(&mut g);
        assert_eq!(
            stats.gvn, 0,
            "field loads are handled by read-write elimination, not GVN"
        );
    }
}
