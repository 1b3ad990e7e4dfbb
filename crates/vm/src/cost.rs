//! The simulated-cycle cost model.
//!
//! The paper evaluates on real hardware; we substitute a deterministic
//! cycle model that preserves the phenomena the inlining trade-off lives
//! on (DESIGN.md §6):
//!
//! * interpreted code pays a per-instruction *dispatch premium*,
//! * compiled code pays per-op costs only,
//! * a non-inlined call pays frame setup + argument moves; virtual calls
//!   additionally pay a dispatch-table walk,
//! * **instruction-cache pressure**: once the total installed code exceeds
//!   a capacity, every compiled instruction gets proportionally slower.
//!   This reproduces the paper's §II.3 non-linearity ("excessive inlining
//!   can put more pressure on … the instruction cache, and degrade
//!   performance") and makes over-inlining measurably bad,
//! * compilation itself costs cycles proportional to the work done, which
//!   is what makes exploration budgets meaningful (§II.2).

use incline_ir::graph::Op;

/// Tunable constants of the cost model.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Extra cycles per instruction in the interpreter.
    pub interp_dispatch: u64,
    /// Cycles for a non-inlined call: frame + return.
    pub call_overhead: u64,
    /// Additional cycles per argument of a call.
    pub call_per_arg: u64,
    /// Additional cycles for virtual dispatch (table walk).
    pub virtual_dispatch: u64,
    /// Cycles per control-flow edge argument (register shuffling).
    pub edge_move: u64,
    /// Estimated machine-code bytes per IR node (code-size accounting).
    pub bytes_per_node: u64,
    /// Instruction-cache capacity in bytes; below this, no penalty.
    pub icache_capacity: u64,
    /// Scale of the i-cache penalty: every `icache_scale` bytes beyond
    /// capacity add 100% to compiled per-op cost.
    pub icache_scale: u64,
    /// Compilation cycles charged per processed IR node.
    pub compile_per_node: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            interp_dispatch: 9,
            call_overhead: 18,
            call_per_arg: 2,
            virtual_dispatch: 12,
            edge_move: 1,
            bytes_per_node: 4,
            // The i7-4930MX the paper measures on has a 32 KiB L1i.
            icache_capacity: 32 * 1024,
            icache_scale: 128 * 1024,
            compile_per_node: 40,
        }
    }
}

impl CostModel {
    /// Builder-style override of the instruction-cache parameters — the
    /// knobs the `--icache-capacity` / `--icache-scale` CLI flags expose
    /// for exploring the over-inlining cliff and cache-pressure scenarios.
    pub fn with_icache(mut self, capacity: u64, scale: u64) -> Self {
        self.icache_capacity = capacity;
        self.icache_scale = scale.max(1);
        self
    }

    /// Base cycle cost of one operation (tier-independent part).
    pub fn op_cost(&self, op: &Op) -> u64 {
        match op {
            Op::Nop => 0,
            Op::ConstInt(_) | Op::ConstFloat(_) | Op::ConstBool(_) | Op::ConstNull(_) => 1,
            Op::Bin(b) => {
                if b.can_trap() {
                    12 // division
                } else if b.is_float() {
                    3
                } else {
                    1
                }
            }
            Op::Cmp(_) | Op::Not | Op::INeg | Op::FNeg => 1,
            Op::IntToFloat | Op::FloatToInt => 2,
            Op::New(_) => 14,
            Op::NewArray(_) => 16,
            Op::GetField(_) | Op::SetField(_) => 3,
            Op::ArrayGet | Op::ArraySet => 4,
            Op::ArrayLen => 2,
            Op::InstanceOf(_) => 4,
            Op::Cast(_) => 4,
            Op::Print => 20,
            // The call overheads are charged separately at the callsite;
            // this is just the instruction itself.
            Op::Call(_) => 1,
        }
    }

    /// What compiled code pays per unit of [`CostModel::op_cost`] while
    /// `installed_bytes` are installed, in 1/256ths (integer, to stay
    /// deterministic): 256 up to the i-cache capacity, and 256 more for
    /// every `icache_scale` bytes beyond it.
    #[inline]
    pub fn icache_factor(&self, installed_bytes: u64) -> u64 {
        let over = installed_bytes.saturating_sub(self.icache_capacity);
        if over == 0 {
            256
        } else {
            256 + over * 256 / self.icache_scale.max(1)
        }
    }

    /// Cycles for a non-inlined call with `argc` arguments.
    pub fn call_cost(&self, argc: usize, virtual_dispatch: bool) -> u64 {
        let mut c = self.call_overhead + self.call_per_arg * argc as u64;
        if virtual_dispatch {
            c += self.virtual_dispatch;
        }
        c
    }

    /// Cycles for taking a CFG edge passing `argc` block arguments in
    /// compiled code; the interpreter adds its dispatch premium.
    pub fn edge_cost(&self, argc: usize) -> u64 {
        self.edge_move * argc as u64 + 1
    }

    /// Machine-code bytes a compiled graph of `ir_nodes` occupies.
    pub fn code_bytes(&self, ir_nodes: usize) -> u64 {
        self.bytes_per_node * ir_nodes as u64
    }

    /// Compilation latency (cycles) for processing `work_nodes` IR nodes
    /// (explored + optimized + emitted).
    pub fn compile_cost(&self, work_nodes: usize) -> u64 {
        self.compile_per_node * work_nodes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn icache_pressure_kicks_in_past_capacity() {
        let m = CostModel::default();
        assert_eq!(m.icache_factor(0), 256);
        assert_eq!(m.icache_factor(m.icache_capacity), 256);
        assert_eq!(m.icache_factor(m.icache_capacity + m.icache_scale / 2), 384);
        // 4 scales over → 5× cost.
        assert_eq!(
            m.icache_factor(m.icache_capacity + 4 * m.icache_scale),
            5 * 256
        );
    }

    #[test]
    fn virtual_calls_cost_more() {
        let m = CostModel::default();
        assert!(m.call_cost(2, true) > m.call_cost(2, false));
        assert!(m.call_cost(5, false) > m.call_cost(1, false));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use incline_ir::graph::Op;

    #[test]
    fn edge_cost_scales_with_args() {
        let m = CostModel::default();
        assert!(m.edge_cost(4) > m.edge_cost(0));
    }

    #[test]
    fn compile_cost_proportional_to_work() {
        let m = CostModel::default();
        assert_eq!(m.compile_cost(0), 0);
        assert_eq!(m.compile_cost(100), 100 * m.compile_per_node);
        assert_eq!(m.code_bytes(50), 50 * m.bytes_per_node);
    }

    #[test]
    fn nop_is_free() {
        let m = CostModel::default();
        assert_eq!(m.op_cost(&Op::Nop), 0);
    }

    #[test]
    fn allocation_costs_more_than_arithmetic() {
        let m = CostModel::default();
        let add = m.op_cost(&Op::Bin(incline_ir::BinOp::IAdd));
        let new = m.op_cost(&Op::New(incline_ir::ClassId::new(0)));
        assert!(new > 5 * add);
    }
}
