//! Natural-loop detection on top of the dominator tree.
//!
//! A back edge is a CFG edge `tail → header` where `header` dominates
//! `tail`. The natural loop of a back edge is the set of blocks that can
//! reach `tail` without passing through `header`, plus the header itself.
//! Loop peeling (in `incline-opt`) and the cost model (loop-frequency
//! heuristics) consume this.

use crate::dom::{reverse_postorder, DomTree};
use crate::graph::Graph;
use crate::ids::BlockId;

/// One natural loop.
#[derive(Clone, Debug, PartialEq)]
pub struct Loop {
    /// The loop header (dominates all body blocks).
    pub header: BlockId,
    /// All blocks of the loop, header included, in ascending id order.
    pub blocks: Vec<BlockId>,
    /// The tails of the back edges targeting `header`.
    pub back_edges: Vec<BlockId>,
}

impl Loop {
    /// Whether `block` belongs to this loop.
    pub fn contains(&self, block: BlockId) -> bool {
        self.blocks.binary_search(&block).is_ok()
    }
}

/// All natural loops of a graph, with a per-block nesting depth.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoopForest {
    /// Loops, one per distinct header (back edges to a header are merged),
    /// in ascending header order.
    pub loops: Vec<Loop>,
    /// Nesting depth by block index (0 = not in any loop; blocks past the
    /// end are in none).
    depth: Vec<u32>,
}

impl LoopForest {
    /// Computes the loop forest of `graph` from nothing. Optimization
    /// passes ask [`Graph::loop_forest`], which reuses the graph's
    /// dominator tree when it has one.
    pub fn compute(graph: &Graph) -> Self {
        // A loop needs an edge that goes backwards in reverse postorder;
        // most graphs the optimizer sees have none, and then neither the
        // dominator tree nor the predecessor table is worth building.
        let rpo = reverse_postorder(graph);
        let mut position = vec![u32::MAX; graph.block_count()];
        for (i, &b) in rpo.iter().enumerate() {
            position[b.index()] = i as u32;
        }
        let retreats = rpo.iter().any(|&b| {
            graph
                .block(b)
                .term
                .successors()
                .any(|s| position[s.index()] <= position[b.index()])
        });
        if !retreats {
            return LoopForest::default();
        }
        Self::compute_with(graph, &DomTree::with_rpo(graph, rpo))
    }

    /// Computes the loop forest with a precomputed dominator tree. Without
    /// a back edge — most graphs — nothing is allocated.
    pub fn compute_with(graph: &Graph, dom: &DomTree) -> Self {
        let blocks = graph.block_count();
        // Back edges in reverse postorder of their tails, grouped by header:
        // `loop_of[h]` is the index into `loops` of header `h`.
        const NO_LOOP: u32 = u32::MAX;
        let mut loop_of: Vec<u32> = Vec::new();
        let mut loops: Vec<Loop> = Vec::new();
        for &b in dom.rpo() {
            for succ in graph.block(b).term.successors() {
                if dom.dominates(succ, b) {
                    // b -> succ is a back edge; succ is the header.
                    loop_of.resize(blocks, NO_LOOP);
                    if loop_of[succ.index()] == NO_LOOP {
                        loop_of[succ.index()] = loops.len() as u32;
                        loops.push(Loop {
                            header: succ,
                            blocks: Vec::new(),
                            back_edges: Vec::new(),
                        });
                    }
                    loops[loop_of[succ.index()] as usize].back_edges.push(b);
                }
            }
        }
        if loops.is_empty() {
            return LoopForest::default();
        }
        loops.sort_by_key(|l| l.header);

        // Each natural loop body: walk predecessors from the tails until the
        // header. `member[b] == i + 1` marks `b` as collected for loop `i`.
        let preds = dom.preds();
        let mut member = vec![0u32; blocks];
        let mut depth = vec![0u32; blocks];
        let mut stack: Vec<BlockId> = Vec::new();
        for (i, l) in loops.iter_mut().enumerate() {
            let mark = i as u32 + 1;
            member[l.header.index()] = mark;
            l.blocks.push(l.header);
            stack.extend_from_slice(&l.back_edges);
            while let Some(n) = stack.pop() {
                if member[n.index()] != mark {
                    member[n.index()] = mark;
                    l.blocks.push(n);
                    stack.extend_from_slice(preds.of(n));
                }
            }
            l.blocks.sort();
            for &b in &l.blocks {
                depth[b.index()] += 1;
            }
        }
        LoopForest { loops, depth }
    }

    /// Nesting depth of a block (0 if not in a loop).
    pub fn depth_of(&self, block: BlockId) -> u32 {
        self.depth.get(block.index()).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Op, Terminator};
    use crate::types::Type;

    fn cond(g: &mut Graph, b: BlockId) -> crate::ids::ValueId {
        g.append(b, Op::ConstBool(true), vec![], Some(Type::Bool))
            .1
            .unwrap()
    }

    #[test]
    fn single_loop() {
        let mut g = Graph::empty();
        let e = g.entry();
        let h = g.add_block();
        let body = g.add_block();
        let exit = g.add_block();
        g.set_terminator(e, Terminator::Jump(h, vec![]));
        let c = cond(&mut g, h);
        g.set_terminator(
            h,
            Terminator::Branch {
                cond: c,
                then_dest: (body, vec![]),
                else_dest: (exit, vec![]),
            },
        );
        g.set_terminator(body, Terminator::Jump(h, vec![]));
        g.set_terminator(exit, Terminator::Return(None));
        let lf = LoopForest::compute(&g);
        assert_eq!(lf.loops.len(), 1);
        let l = &lf.loops[0];
        assert_eq!(l.header, h);
        assert!(l.contains(body));
        assert!(!l.contains(e));
        assert!(!l.contains(exit));
        assert_eq!(lf.depth_of(body), 1);
        assert_eq!(lf.depth_of(e), 0);
    }

    #[test]
    fn nested_loops_have_depth_two() {
        let mut g = Graph::empty();
        let e = g.entry();
        let h1 = g.add_block();
        let h2 = g.add_block();
        let b2 = g.add_block();
        let exit1 = g.add_block();
        let exit = g.add_block();
        g.set_terminator(e, Terminator::Jump(h1, vec![]));
        let c1 = cond(&mut g, h1);
        g.set_terminator(
            h1,
            Terminator::Branch {
                cond: c1,
                then_dest: (h2, vec![]),
                else_dest: (exit, vec![]),
            },
        );
        let c2 = cond(&mut g, h2);
        g.set_terminator(
            h2,
            Terminator::Branch {
                cond: c2,
                then_dest: (b2, vec![]),
                else_dest: (exit1, vec![]),
            },
        );
        g.set_terminator(b2, Terminator::Jump(h2, vec![]));
        g.set_terminator(exit1, Terminator::Jump(h1, vec![]));
        g.set_terminator(exit, Terminator::Return(None));
        let lf = LoopForest::compute(&g);
        assert_eq!(lf.loops.len(), 2);
        assert_eq!(lf.depth_of(b2), 2);
        assert_eq!(lf.depth_of(h2), 2);
        assert_eq!(lf.depth_of(h1), 1);
        assert_eq!(lf.depth_of(exit), 0);
    }

    #[test]
    fn no_loops_in_dag() {
        let mut g = Graph::empty();
        let e = g.entry();
        g.set_terminator(e, Terminator::Return(None));
        let lf = LoopForest::compute(&g);
        assert!(lf.loops.is_empty());
    }
}
