//! Dead code elimination.
//!
//! Removes instructions whose results are unused and whose execution cannot
//! be observed (no side effects, no traps). Chains of dead computations
//! disappear in one call: removing an instruction releases its operands,
//! and an operand whose last use that was joins the worklist — one count of
//! the uses and one sweep of the blocks, however long the chains.

use std::sync::Arc;

use incline_ir::ids::InstId;
use incline_ir::{Graph, ValueDef};

use crate::stats::OptStats;

/// Removes dead instructions; returns counts (`stats.dce`).
pub fn dce(graph: &mut Graph) -> OptStats {
    let mut stats = OptStats::new();
    let reachable = Arc::clone(graph.block_order());

    // Uses of every value by reachable instructions and terminators, and
    // which instructions those are (only they can be removed).
    let mut uses = vec![0u32; graph.value_count()];
    let mut placed = vec![false; graph.inst_count()];
    for &b in reachable.iter() {
        for &i in &graph.block(b).insts {
            placed[i.index()] = true;
            for &a in &graph.inst(i).args {
                uses[a.index()] += 1;
            }
        }
        for a in graph.block(b).term.uses() {
            uses[a.index()] += 1;
        }
    }

    let unused = |graph: &Graph, uses: &[u32], i: InstId| {
        let data = graph.inst(i);
        data.op.is_removable_if_unused() && data.result.is_none_or(|r| uses[r.index()] == 0)
    };
    let mut dead = vec![false; graph.inst_count()];
    let mut work: Vec<InstId> = Vec::new();
    for &b in reachable.iter() {
        for &i in &graph.block(b).insts {
            if unused(graph, &uses, i) {
                dead[i.index()] = true;
                work.push(i);
            }
        }
    }
    while let Some(i) = work.pop() {
        stats.dce += 1;
        for &a in &graph.inst(i).args {
            uses[a.index()] -= 1;
            if let ValueDef::Inst(d) = graph.value(a).def {
                if placed[d.index()] && !dead[d.index()] && unused(graph, &uses, d) {
                    dead[d.index()] = true;
                    work.push(d);
                }
            }
        }
    }

    if stats.dce > 0 {
        for &b in reachable.iter() {
            let mut insts = std::mem::take(graph.insts_mut(b));
            insts.retain(|&i| {
                if dead[i.index()] {
                    graph.neutralize_inst(i);
                }
                !dead[i.index()]
            });
            *graph.insts_mut(b) = insts;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::types::{RetType, Type};
    use incline_ir::verify::verify_graph;
    use incline_ir::Program;

    #[test]
    fn removes_dead_chain() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let a = fb.iadd(x, x); // dead
        let _b = fb.imul(a, a); // dead, keeps `a` alive until removed
        fb.ret(Some(x));
        let mut g = fb.finish();
        let stats = dce(&mut g);
        assert_eq!(stats.dce, 2);
        assert_eq!(g.block(g.entry()).insts.len(), 0);
        verify_graph(&p, &g, &[Type::Int], RetType::Value(Type::Int)).unwrap();
    }

    #[test]
    fn keeps_side_effects_and_traps() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        fb.print(x); // side effect: kept
        let zero = fb.const_int(0);
        let _q = fb.binop(incline_ir::BinOp::IDiv, x, zero); // may trap: kept
        fb.ret(None);
        let mut g = fb.finish();
        let before = g.size();
        let stats = dce(&mut g);
        // Only the unused `zero`… no: zero is used by the division. Nothing
        // is removable here.
        assert_eq!(stats.dce, 0);
        assert_eq!(g.size(), before);
    }

    #[test]
    fn removes_unused_allocation() {
        let mut p = Program::new();
        let c = p.add_class("Box", None);
        let m = p.declare_function("f", vec![], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, m);
        let _obj = fb.new_object(c);
        fb.ret(None);
        let mut g = fb.finish();
        let stats = dce(&mut g);
        assert_eq!(stats.dce, 1, "unused allocations have no observable effect");
    }

    /// A dead chain is released link by link from its unused end; counting
    /// the uses afresh per removed link made this quadratic.
    #[test]
    fn removes_a_50_000_long_dead_chain() {
        const LINKS: usize = 50_000;
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let mut v = x;
        for _ in 0..LINKS {
            v = fb.iadd(v, x);
        }
        fb.ret(Some(x));
        let mut g = fb.finish();
        let stats = dce(&mut g);
        assert_eq!(stats.dce, LINKS as u64);
        assert!(g.block(g.entry()).insts.is_empty());
        verify_graph(&p, &g, &[Type::Int], RetType::Value(Type::Int)).unwrap();
    }
}
