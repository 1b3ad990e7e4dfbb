//! Per-graph execution plans: everything `Machine::exec_graph` would
//! otherwise recompute on every activation, block or instruction.
//!
//! A plan is a pure function of one graph and the [`CostModel`]. It is
//! built once — lazily for a method's source graph on its first
//! interpreted activation, at install for compiled code — and holds
//!
//! * the base [`CostModel::op_cost`] of every instruction,
//! * each block cut into **call-free runs** with the summed base cost of
//!   each run, so the loop charges steps and cycles once per run, and
//! * for source graphs, which CFG edges are loop back edges.
//!
//! Runs split at calls because a call is where the rest of the machine
//! looks at the clock and the code cache: the callee may trigger a
//! compilation, which stamps requests with the virtual time and changes
//! `installed_bytes`, and with it the i-cache factor of every compiled
//! instruction after the call. Between two calls neither can move.

use incline_ir::graph::{Op, Terminator};
use incline_ir::loops::LoopForest;
use incline_ir::{BlockId, Graph, InstId};

use crate::cost::CostModel;

/// A maximal call-free stretch of one block's instruction list.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Run {
    /// Number of instructions (0 when two calls are adjacent, or a block
    /// starts or ends with a call).
    pub len: usize,
    /// Σ base `op_cost` over the run.
    pub base_cost: u64,
}

#[derive(Clone, Copy, Debug)]
struct BlockPlan {
    /// Index of the block's first run in [`ExecPlan::runs`]; its last is
    /// the one before the next block's first.
    first_run: usize,
    /// Whether the terminator's first edge (`jump`, or the taken side of a
    /// `branch`) and second edge (the not-taken side) are loop back edges.
    back_edge: [bool; 2],
}

/// The precomputed execution plan of one graph.
#[derive(Debug)]
pub(crate) struct ExecPlan {
    /// Indexed by block, plus one sentinel closing the last block's runs.
    blocks: Vec<BlockPlan>,
    /// Every block's runs, block after block. A block with `c` calls has
    /// `c + 1` runs: run, call, run, …, call, run.
    runs: Vec<Run>,
    /// Base cost of every instruction, indexed by [`InstId`].
    op_cost: Vec<u64>,
}

impl ExecPlan {
    /// Plans `graph`. `profiled` marks a source graph, whose activations
    /// count taken back edges; compiled graphs never do, so the loop
    /// analysis is skipped for them.
    pub fn build(graph: &Graph, cost: &CostModel, profiled: bool) -> ExecPlan {
        let mut op_cost = vec![0; graph.inst_count()];
        let mut blocks = Vec::with_capacity(graph.block_count() + 1);
        let mut runs = Vec::new();
        for b in graph.block_ids() {
            blocks.push(BlockPlan {
                first_run: runs.len(),
                back_edge: [false; 2],
            });
            let mut run = Run::default();
            for &inst in &graph.block(b).insts {
                let op = &graph.inst(inst).op;
                let base = cost.op_cost(op);
                op_cost[inst.index()] = base;
                if matches!(op, Op::Call(_)) {
                    runs.push(std::mem::take(&mut run));
                } else {
                    run.len += 1;
                    run.base_cost += base;
                }
            }
            runs.push(run);
        }
        blocks.push(BlockPlan {
            first_run: runs.len(),
            back_edge: [false; 2],
        });
        if profiled {
            for l in &LoopForest::compute(graph).loops {
                for &tail in &l.back_edges {
                    let edges = &mut blocks[tail.index()].back_edge;
                    match &graph.block(tail).term {
                        Terminator::Jump(d, _) => edges[0] |= *d == l.header,
                        Terminator::Branch {
                            then_dest,
                            else_dest,
                            ..
                        } => {
                            edges[0] |= then_dest.0 == l.header;
                            edges[1] |= else_dest.0 == l.header;
                        }
                        _ => {}
                    }
                }
            }
        }
        ExecPlan {
            blocks,
            runs,
            op_cost,
        }
    }

    /// The call-free runs of `block`, in order; a call sits between each
    /// two consecutive runs.
    #[inline]
    pub fn runs(&self, block: BlockId) -> &[Run] {
        let b = block.index();
        &self.runs[self.blocks[b].first_run..self.blocks[b + 1].first_run]
    }

    /// Whether edge `edge` (0: `jump` or the taken side of a `branch`,
    /// 1: the not-taken side) out of `block` is a loop back edge.
    #[inline]
    pub fn is_back_edge(&self, block: BlockId, edge: usize) -> bool {
        self.blocks[block.index()].back_edge[edge]
    }

    /// Base cost of `inst`.
    #[inline]
    pub fn op_cost(&self, inst: InstId) -> u64 {
        self.op_cost[inst.index()]
    }
}

/// Compiled code as installed: the graph and its plan behind one pointer,
/// so an activation pins both with a single reference-count bump.
#[derive(Debug)]
pub(crate) struct PlannedGraph {
    pub graph: Graph,
    pub plan: ExecPlan,
}

impl PlannedGraph {
    /// Plans a freshly compiled graph for installation.
    pub fn compiled(graph: Graph, cost: &CostModel) -> PlannedGraph {
        let plan = ExecPlan::build(&graph, cost, false);
        PlannedGraph { graph, plan }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::{CmpOp, Program, Type};

    #[test]
    fn runs_split_at_calls_and_sum_base_costs() {
        let mut p = Program::new();
        let callee = p.declare_function("g", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, callee);
        let k = fb.const_int(1);
        fb.ret(Some(k));
        let g = fb.finish();
        p.define_method(callee, g);
        let m = p.declare_function("f", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let a = fb.call_static(callee, vec![]).unwrap(); // leading call
        let b = fb.call_static(callee, vec![]).unwrap(); // adjacent call
        let s = fb.iadd(a, b);
        let d = fb.binop(incline_ir::BinOp::IDiv, s, x);
        let c = fb.call_static(callee, vec![]).unwrap(); // trailing call
        let _ = d;
        fb.ret(Some(c));
        let g = fb.finish();
        let cost = CostModel::default();
        let plan = ExecPlan::build(&g, &cost, true);
        let runs = plan.runs(g.entry());
        let shape: Vec<(usize, u64)> = runs.iter().map(|r| (r.len, r.base_cost)).collect();
        assert_eq!(shape, vec![(0, 0), (0, 0), (2, 1 + 12), (0, 0)]);
        let calls = g
            .block(g.entry())
            .insts
            .iter()
            .filter(|&&i| matches!(g.inst(i).op, Op::Call(_)))
            .count();
        assert_eq!(runs.len(), calls + 1);
        for &i in &g.block(g.entry()).insts {
            assert_eq!(plan.op_cost(i), cost.op_cost(&g.inst(i).op));
        }
    }

    #[test]
    fn back_edges_are_marked_per_edge_slot() {
        let mut p = Program::new();
        let m = p.declare_function("loop", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let n = fb.param(0);
        let zero = fb.const_int(0);
        let (head, hp) = fb.add_block_with_params(&[Type::Int]);
        let exit = fb.add_block();
        fb.jump(head, vec![zero]);
        fb.switch_to(head);
        let one = fb.const_int(1);
        let i2 = fb.iadd(hp[0], one);
        let c = fb.cmp(CmpOp::ILt, i2, n);
        // The not-taken side loops back; the taken side leaves.
        fb.branch(c, (exit, vec![]), (head, vec![i2]));
        fb.switch_to(exit);
        fb.ret(Some(zero));
        let g = fb.finish();
        let plan = ExecPlan::build(&g, &CostModel::default(), true);
        assert!(!plan.is_back_edge(g.entry(), 0));
        assert!(!plan.is_back_edge(head, 0));
        assert!(plan.is_back_edge(head, 1));
        let unprofiled = ExecPlan::build(&g, &CostModel::default(), false);
        assert!(!unprofiled.is_back_edge(head, 1));
    }
}
