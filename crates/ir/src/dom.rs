//! Dominator analysis (Cooper–Harvey–Kennedy) over the block CFG.
//!
//! Used by the verifier (defs must dominate uses), by GVN (dominator-tree
//! scoped hash table) and by loop detection (back edges).
//!
//! Everything is a dense table indexed by [`BlockId`]: immediate dominators,
//! the children lists (compressed rows) and the entry/exit numbers of a walk
//! over the tree, which make [`DomTree::dominates`] two comparisons.

use crate::graph::{Graph, Preds};
use crate::ids::BlockId;

/// `rpo_index`/interval entry of a block the entry cannot reach.
const UNREACHABLE: u32 = u32::MAX;

/// Immediate-dominator tree for the reachable blocks of a graph.
#[derive(Clone, Debug, PartialEq)]
pub struct DomTree {
    /// Reverse postorder of reachable blocks.
    rpo: Vec<BlockId>,
    /// Position of each block in `rpo` ([`UNREACHABLE`] for the rest).
    rpo_index: Vec<u32>,
    /// Immediate dominator of each reachable block (the entry maps to
    /// itself; unreachable slots are meaningless).
    idom: Vec<BlockId>,
    /// `children[child_starts[b] .. child_starts[b + 1]]` are the children of
    /// block `b` in the dominator tree, in reverse postorder.
    child_starts: Vec<u32>,
    children: Vec<BlockId>,
    /// Entry and exit numbers of each reachable block in a depth-first walk
    /// of the dominator tree: `a` dominates `b` iff `a`'s interval encloses
    /// `b`'s.
    interval: Vec<(u32, u32)>,
    /// The predecessor table the tree was computed from.
    preds: Preds,
    entry: BlockId,
}

impl DomTree {
    /// Computes the dominator tree of `graph` afresh: the specification of
    /// [`Graph::dom_tree`], which optimization passes share instead.
    pub fn compute(graph: &Graph) -> Self {
        Self::with_rpo(graph, reverse_postorder(graph))
    }

    /// Computes the dominator tree from an already computed
    /// [`reverse_postorder`] of `graph`.
    pub(crate) fn with_rpo(graph: &Graph, rpo: Vec<BlockId>) -> Self {
        let entry = graph.entry();
        let blocks = graph.block_count();
        let mut rpo_index = vec![UNREACHABLE; blocks];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = i as u32;
        }
        let preds = Preds::over(graph, &rpo);

        // idom in rpo-position space; entry's idom is itself.
        const NONE: u32 = u32::MAX;
        let mut idom_pos: Vec<u32> = vec![NONE; rpo.len()];
        idom_pos[0] = 0;
        let mut changed = true;
        while changed {
            changed = false;
            for i in 1..rpo.len() {
                let mut new_idom = NONE;
                for &p in preds.of(rpo[i]) {
                    let pi = rpo_index[p.index()];
                    if idom_pos[pi as usize] == NONE {
                        continue;
                    }
                    new_idom = if new_idom == NONE {
                        pi
                    } else {
                        intersect(&idom_pos, new_idom, pi)
                    };
                }
                if new_idom != NONE && idom_pos[i] != new_idom {
                    idom_pos[i] = new_idom;
                    changed = true;
                }
            }
        }

        let mut idom = vec![entry; blocks];
        let mut child_starts = vec![0u32; blocks + 1];
        for (i, &b) in rpo.iter().enumerate() {
            assert!(idom_pos[i] != NONE, "reachable block must acquire an idom");
            let d = rpo[idom_pos[i] as usize];
            idom[b.index()] = d;
            if i != 0 {
                child_starts[d.index() + 1] += 1;
            }
        }
        for i in 1..child_starts.len() {
            child_starts[i] += child_starts[i - 1];
        }
        let mut children = vec![entry; child_starts[blocks] as usize];
        let mut fill = child_starts.clone();
        for &b in &rpo[1..] {
            let d = idom[b.index()].index();
            children[fill[d] as usize] = b;
            fill[d] += 1;
        }

        let mut tree = DomTree {
            rpo,
            rpo_index,
            idom,
            child_starts,
            children,
            interval: vec![(UNREACHABLE, 0); blocks],
            preds,
            entry,
        };
        tree.number_intervals();
        tree
    }

    /// Numbers every reachable block with its entry and exit time in a
    /// depth-first walk of the tree.
    fn number_intervals(&mut self) {
        let mut clock = 0u32;
        // (block, index of its next unvisited child)
        let mut stack: Vec<(BlockId, u32)> = vec![(self.entry, 0)];
        self.interval[self.entry.index()].0 = clock;
        while let Some(top) = stack.last_mut() {
            let (block, next) = *top;
            let kids = self.children(block);
            if let Some(&child) = kids.get(next as usize) {
                top.1 += 1;
                clock += 1;
                self.interval[child.index()].0 = clock;
                stack.push((child, 0));
            } else {
                clock += 1;
                self.interval[block.index()].1 = clock;
                stack.pop();
            }
        }
    }

    /// Reverse postorder of reachable blocks (entry first).
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Position of `block` in [`DomTree::rpo`], if it is reachable.
    pub fn rpo_position(&self, block: BlockId) -> Option<usize> {
        match self.rpo_index.get(block.index()) {
            Some(&i) if i != UNREACHABLE => Some(i as usize),
            _ => None,
        }
    }

    /// The predecessor table of the graph the tree was computed from (each
    /// block's predecessors in reverse postorder), for analyses that need
    /// both.
    pub fn preds(&self) -> &Preds {
        &self.preds
    }

    /// Whether `block` is reachable from the entry.
    pub fn is_reachable(&self, block: BlockId) -> bool {
        self.rpo_position(block).is_some()
    }

    /// Children of `block` in the dominator tree.
    pub fn children(&self, block: BlockId) -> &[BlockId] {
        let i = block.index();
        &self.children[self.child_starts[i] as usize..self.child_starts[i + 1] as usize]
    }

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        let (a_in, a_out) = self.interval[a.index()];
        let (b_in, b_out) = self.interval[b.index()];
        a_in <= b_in && b_out <= a_out
    }

    /// Preorder walk of the dominator tree.
    pub fn preorder(&self) -> Vec<BlockId> {
        let mut out = Vec::with_capacity(self.rpo.len());
        let mut stack = vec![self.entry];
        while let Some(b) = stack.pop() {
            out.push(b);
            for &c in self.children(b) {
                stack.push(c);
            }
        }
        out
    }
}

fn intersect(idom: &[u32], mut a: u32, mut b: u32) -> u32 {
    while a != b {
        while a > b {
            a = idom[a as usize];
        }
        while b > a {
            b = idom[b as usize];
        }
    }
    a
}

/// Reverse postorder over reachable blocks.
pub fn reverse_postorder(graph: &Graph) -> Vec<BlockId> {
    let mut post = Vec::new();
    let mut seen = vec![false; graph.block_count()];
    // Iterative DFS with an explicit "exit" marker.
    let mut stack = vec![(graph.entry(), false)];
    while let Some((b, processed)) = stack.pop() {
        if processed {
            post.push(b);
            continue;
        }
        if seen[b.index()] {
            continue;
        }
        seen[b.index()] = true;
        stack.push((b, true));
        for s in graph.block(b).term.successors() {
            if !seen[s.index()] {
                stack.push((s, false));
            }
        }
    }
    post.reverse();
    post
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Op, Terminator};
    use crate::types::Type;

    /// Builds the classic diamond: e -> {t, f} -> j.
    fn diamond() -> (Graph, BlockId, BlockId, BlockId, BlockId) {
        let mut g = Graph::empty();
        let e = g.entry();
        let c = g
            .append(e, Op::ConstBool(true), vec![], Some(Type::Bool))
            .1
            .unwrap();
        let t = g.add_block();
        let f = g.add_block();
        let j = g.add_block();
        g.set_terminator(
            e,
            Terminator::Branch {
                cond: c,
                then_dest: (t, vec![]),
                else_dest: (f, vec![]),
            },
        );
        g.set_terminator(t, Terminator::Jump(j, vec![]));
        g.set_terminator(f, Terminator::Jump(j, vec![]));
        g.set_terminator(j, Terminator::Return(None));
        (g, e, t, f, j)
    }

    #[test]
    fn diamond_idoms() {
        let (g, e, t, f, j) = diamond();
        let dom = DomTree::compute(&g);
        assert_eq!(dom.idom[t.index()], e);
        assert_eq!(dom.idom[f.index()], e);
        assert_eq!(dom.idom[j.index()], e);
        assert!(dom.dominates(e, j));
        assert!(!dom.dominates(t, j));
        assert!(dom.dominates(t, t));
    }

    #[test]
    fn loop_idoms() {
        // e -> h; h -> body | exit; body -> h
        let mut g = Graph::empty();
        let e = g.entry();
        let c = g
            .append(e, Op::ConstBool(true), vec![], Some(Type::Bool))
            .1
            .unwrap();
        let h = g.add_block();
        let body = g.add_block();
        let exit = g.add_block();
        g.set_terminator(e, Terminator::Jump(h, vec![]));
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
        let dom = DomTree::compute(&g);
        assert_eq!(dom.idom[h.index()], e);
        assert_eq!(dom.idom[body.index()], h);
        assert_eq!(dom.idom[exit.index()], h);
        assert!(dom.dominates(h, body));
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let (g, e, ..) = diamond();
        let rpo = reverse_postorder(&g);
        assert_eq!(rpo[0], e);
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn unreachable_blocks_excluded() {
        let (mut g, ..) = diamond();
        let dead = g.add_block();
        g.set_terminator(dead, Terminator::Return(None));
        let dom = DomTree::compute(&g);
        assert!(!dom.is_reachable(dead));
        assert_eq!(dom.rpo().len(), 4);
    }

    #[test]
    fn preorder_visits_all_reachable() {
        let (g, ..) = diamond();
        let dom = DomTree::compute(&g);
        let mut pre = dom.preorder();
        pre.sort();
        let mut all = g.reachable_blocks();
        all.sort();
        assert_eq!(pre, all);
    }

    /// A ladder of 2 000 diamonds: the dominator tree is 2 000 joins deep,
    /// each with its two arms hanging off the rung's head.
    #[test]
    fn deep_diamond_ladder() {
        const RUNGS: usize = 2_000;
        let mut g = Graph::empty();
        let c = g.add_block_param(g.entry(), Type::Bool);
        let mut heads = vec![g.entry()];
        let mut arms = Vec::new();
        for _ in 0..RUNGS {
            let head = *heads.last().unwrap();
            let (t, f, join) = (g.add_block(), g.add_block(), g.add_block());
            g.set_terminator(
                head,
                Terminator::Branch {
                    cond: c,
                    then_dest: (t, vec![]),
                    else_dest: (f, vec![]),
                },
            );
            g.set_terminator(t, Terminator::Jump(join, vec![]));
            g.set_terminator(f, Terminator::Jump(join, vec![]));
            arms.push((t, f));
            heads.push(join);
        }
        g.set_terminator(*heads.last().unwrap(), Terminator::Return(None));

        let dom = DomTree::compute(&g);
        assert_eq!(dom.rpo().len(), 3 * RUNGS + 1);
        for (k, &(t, f)) in arms.iter().enumerate() {
            assert_eq!(dom.idom[t.index()], heads[k]);
            assert_eq!(dom.idom[f.index()], heads[k]);
            assert_eq!(dom.idom[heads[k + 1].index()], heads[k]);
            assert_eq!(dom.children(heads[k]).len(), 3);
            assert!(!dom.dominates(t, heads[k + 1]));
        }
        let last = *heads.last().unwrap();
        assert!(dom.dominates(g.entry(), last));
        assert!(dom.dominates(heads[RUNGS / 2], last));
        assert!(!dom.dominates(last, heads[RUNGS / 2]));
        assert!(crate::loops::LoopForest::compute(&g).loops.is_empty());
    }
}
