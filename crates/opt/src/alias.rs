//! Pending value replacements of one pass.
//!
//! A pass that proves `old` equal to `new` used to rewrite every use on the
//! spot — one scan of the whole graph per replaced value, quadratic on the
//! single giant block inlining produces. Passes now record the replacement
//! here and rewrite operands as they reach them (or in one closing sweep);
//! the table is dense by [`ValueId`] and resolves chains, so the outcome is
//! the one the immediate rewrites had: every use reads the final
//! representative.

use incline_ir::ids::{BlockId, ValueId};
use incline_ir::Graph;

/// The replacements one pass has decided on, not yet written everywhere.
#[derive(Debug, Default)]
pub(crate) struct Aliases {
    /// `to[v]` replaces `v`; identity for values nothing replaces. Empty
    /// until the first replacement, and values created afterwards lie past
    /// the end — they stand for themselves.
    to: Vec<ValueId>,
}

impl Aliases {
    pub(crate) fn new() -> Self {
        Aliases::default()
    }

    /// Whether nothing has been recorded (every `resolve` is the identity).
    pub(crate) fn is_empty(&self) -> bool {
        self.to.is_empty()
    }

    /// Records that every use of `old` must read `new` instead.
    pub(crate) fn record(&mut self, graph: &Graph, old: ValueId, new: ValueId) {
        let known = self.to.len();
        self.to
            .extend((known..graph.value_count()).map(ValueId::new));
        let new = self.resolve(new);
        debug_assert_ne!(old, new, "a value cannot replace itself");
        self.to[old.index()] = new;
    }

    /// The value that stands for `v` after all recorded replacements.
    pub(crate) fn resolve(&self, mut v: ValueId) -> ValueId {
        while let Some(&next) = self.to.get(v.index()) {
            if next == v {
                break;
            }
            v = next;
        }
        v
    }

    /// Rewrites the operands of one instruction or terminator.
    pub(crate) fn resolve_all<'a>(&self, operands: impl IntoIterator<Item = &'a mut ValueId>) {
        if self.is_empty() {
            return;
        }
        for v in operands {
            *v = self.resolve(*v);
        }
    }

    /// Rewrites the terminators of `blocks`.
    pub(crate) fn apply_to_terminators(&self, graph: &mut Graph, blocks: &[BlockId]) {
        if self.is_empty() {
            return;
        }
        for &b in blocks {
            graph.for_each_term_use_mut(b, |v| *v = self.resolve(*v));
        }
    }

    /// Rewrites the operands of every instruction of `block`.
    pub(crate) fn apply_to_insts(&self, graph: &mut Graph, block: BlockId) {
        if self.is_empty() {
            return;
        }
        for pos in 0..graph.block(block).insts.len() {
            let inst = graph.block(block).insts[pos];
            self.resolve_all(&mut graph.inst_mut(inst).args);
        }
    }

    /// Rewrites every instruction and terminator of `blocks`.
    pub(crate) fn apply(&self, graph: &mut Graph, blocks: &[BlockId]) {
        for &b in blocks {
            self.apply_to_insts(graph, b);
        }
        self.apply_to_terminators(graph, blocks);
    }
}
