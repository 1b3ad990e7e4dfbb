//! The inline substitution itself: transplanting a callee graph into a
//! caller at a callsite.
//!
//! [`inline_call`] implements the paper's `inlineIR` primitive (Listing 5):
//! the block containing the call is split ([`Graph::split_at_call`]), the
//! callee's blocks are cloned into the caller with all values remapped
//! ([`Graph::transplant`]), the callee's entry receives the call arguments,
//! and every `return` becomes a jump to the continuation block. Callsite
//! ids inside the callee are preserved, so profiles keep working after
//! arbitrarily deep inlining.

use crate::graph::{Graph, Op, Terminator, Transplant};
use crate::ids::{BlockId, InstId};

/// What an inlining step tells its caller.
#[derive(Clone, Debug)]
pub struct InlineResult {
    /// Callee instruction → caller instruction, dense by the callee's ids
    /// (`None`: not transplanted — in an unreachable callee block, or
    /// detached). Inliners use this to re-anchor call-tree children onto
    /// the transplanted callsites.
    pub inst_map: Vec<Option<InstId>>,
    /// The transplanted call instructions as (callee, caller) pairs, in
    /// caller instruction order — the callsites this inlining step exposed.
    pub calls: Vec<(InstId, InstId)>,
    /// How many `return`s of the callee now jump to the continuation; with
    /// none, the callee never returns and the continuation is unreachable.
    pub return_edges: usize,
    /// The continuation block holding the code that followed the call.
    pub continuation: BlockId,
}

/// Inlines `callee` at the call instruction `call` inside `block` of
/// `caller`.
///
/// The call's result value (if any) becomes the continuation block's
/// parameter ([`Graph::split_at_call`]), fed by every `return` in the
/// callee.
///
/// # Panics
///
/// Panics if `call` is not a call instruction inside `block`, or if the
/// callee entry's parameter count differs from the call's argument count.
pub fn inline_call(
    caller: &mut Graph,
    block: BlockId,
    call: InstId,
    callee: &Graph,
) -> InlineResult {
    assert!(
        matches!(caller.inst(call).op, Op::Call(_)),
        "inline_call target must be a call instruction"
    );
    let call_args = caller.inst(call).args.to_vec();
    assert_eq!(
        callee.block(callee.entry()).params.len(),
        call_args.len(),
        "callee entry params must match call arity"
    );
    let (continuation, result) = caller.split_at_call(block, call);

    let order = callee.block_order();
    let mut return_edges = 0;
    let map = caller.transplant(callee, order, Transplant::empty(callee), |v| {
        return_edges += 1;
        let args = match (v, result) {
            (Some(v), Some(_)) => vec![v],
            (None, None) => vec![],
            (Some(_), None) => vec![], // caller ignores the value (cannot happen for verified graphs)
            (None, Some(_)) => panic!("void return feeding a value continuation"),
        };
        Terminator::Jump(continuation, args)
    });
    let calls = order
        .iter()
        .flat_map(|&b| &callee.block(b).insts)
        .filter(|&&i| matches!(callee.inst(i).op, Op::Call(_)))
        .map(|&i| (i, map.inst(i)))
        .collect();
    caller.set_terminator(
        block,
        Terminator::Jump(map.block(callee.entry()), call_args),
    );

    InlineResult {
        inst_map: map.insts,
        calls,
        return_edges,
        continuation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::graph::{BinOp, CmpOp};
    use crate::program::Program;
    use crate::types::{RetType, Type};
    use crate::verify::verify_graph;

    /// callee: add1(x) = x + 1
    fn add1(p: &mut Program) -> crate::ids::MethodId {
        let m = p.declare_function("add1", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(p, m);
        let x = fb.param(0);
        let one = fb.const_int(1);
        let r = fb.iadd(x, one);
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(m, g);
        m
    }

    #[test]
    fn inlines_straight_line_callee() {
        let mut p = Program::new();
        let callee = add1(&mut p);
        let caller = p.declare_function("caller", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, caller);
        let x = fb.param(0);
        let c = fb.call_static(callee, vec![x]).unwrap();
        let r = fb.iadd(c, c);
        fb.ret(Some(r));
        let mut g = fb.finish();

        let (b, call) = g.callsites()[0];
        let callee_graph = p.method(callee).graph.clone();
        let res = inline_call(&mut g, b, call, &callee_graph);

        // No calls remain; graph still verifies; continuation holds the add.
        assert!(g.callsites().is_empty());
        verify_graph(&p, &g, &[Type::Int], RetType::Value(Type::Int)).unwrap();
        assert!(g.block(res.continuation).params.len() == 1);
        // The original entry now jumps into the inlined body.
        let Terminator::Jump(d, _) = g.block(g.entry()).term else {
            panic!("the split block jumps into the callee")
        };
        assert_eq!(g.block(d).insts.len(), 2, "the callee's constant and add");
    }

    #[test]
    fn inlines_void_callee() {
        let mut p = Program::new();
        let callee = p.declare_function("noise", vec![Type::Int], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, callee);
        let x = fb.param(0);
        fb.print(x);
        fb.ret(None);
        let g = fb.finish();
        p.define_method(callee, g);

        let caller = p.declare_function("caller", vec![Type::Int], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, caller);
        let x = fb.param(0);
        fb.call_static(callee, vec![x]);
        fb.print(x);
        fb.ret(None);
        let mut g = fb.finish();

        let (b, call) = g.callsites()[0];
        let callee_graph = p.method(callee).graph.clone();
        let res = inline_call(&mut g, b, call, &callee_graph);
        assert!(g.block(res.continuation).params.is_empty());
        verify_graph(&p, &g, &[Type::Int], RetType::Void).unwrap();
    }

    #[test]
    fn inlines_branching_callee_with_multiple_returns() {
        let mut p = Program::new();
        let callee = p.declare_function("max0", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, callee);
        let x = fb.param(0);
        let zero = fb.const_int(0);
        let c = fb.cmp(CmpOp::ILt, x, zero);
        let t = fb.add_block();
        let e = fb.add_block();
        fb.branch(c, (t, vec![]), (e, vec![]));
        fb.switch_to(t);
        fb.ret(Some(zero));
        fb.switch_to(e);
        fb.ret(Some(x));
        let g = fb.finish();
        p.define_method(callee, g);

        let caller = p.declare_function("caller", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, caller);
        let x = fb.param(0);
        let r = fb.call_static(callee, vec![x]).unwrap();
        let two = fb.const_int(2);
        let out = fb.imul(r, two);
        fb.ret(Some(out));
        let mut g = fb.finish();

        let (b, call) = g.callsites()[0];
        let callee_graph = p.method(callee).graph.clone();
        let res = inline_call(&mut g, b, call, &callee_graph);
        verify_graph(&p, &g, &[Type::Int], RetType::Value(Type::Int)).unwrap();
        // Both returns feed the continuation parameter.
        let preds = g.predecessors();
        assert_eq!(preds[res.continuation].len(), 2);
    }

    #[test]
    fn inlines_callee_with_loop() {
        let mut p = Program::new();
        let callee = p.declare_function("sum", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, callee);
        let n = fb.param(0);
        let zero = fb.const_int(0);
        let (head, hp) = fb.add_block_with_params(&[Type::Int, Type::Int]);
        let body = fb.add_block();
        let (done, dp) = fb.add_block_with_params(&[Type::Int]);
        fb.jump(head, vec![zero, zero]);
        fb.switch_to(head);
        let c = fb.cmp(CmpOp::ILt, hp[0], n);
        fb.branch(c, (body, vec![]), (done, vec![hp[1]]));
        fb.switch_to(body);
        let one = fb.const_int(1);
        let i2 = fb.iadd(hp[0], one);
        let a2 = fb.iadd(hp[1], hp[0]);
        fb.jump(head, vec![i2, a2]);
        fb.switch_to(done);
        fb.ret(Some(dp[0]));
        let g = fb.finish();
        p.define_method(callee, g);

        let caller = p.declare_function("caller", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, caller);
        let x = fb.param(0);
        let r = fb.call_static(callee, vec![x]).unwrap();
        fb.ret(Some(r));
        let mut g = fb.finish();

        let (b, call) = g.callsites()[0];
        let callee_graph = p.method(callee).graph.clone();
        inline_call(&mut g, b, call, &callee_graph);
        verify_graph(&p, &g, &[Type::Int], RetType::Value(Type::Int)).unwrap();
        // The loop survived the transplant.
        let lf = crate::loops::LoopForest::compute(&g);
        assert_eq!(lf.loops.len(), 1);
    }

    #[test]
    fn nested_inlining_preserves_callsite_ids() {
        let mut p = Program::new();
        let leaf = add1(&mut p);
        let mid = p.declare_function("mid", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, mid);
        let x = fb.param(0);
        let r = fb.call_static(leaf, vec![x]).unwrap();
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(mid, g);

        let root = p.declare_function("root", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, root);
        let x = fb.param(0);
        let r = fb.call_static(mid, vec![x]).unwrap();
        fb.ret(Some(r));
        let mut g = fb.finish();

        // Inline mid into root: the leaf callsite inside mid must keep its
        // original (method=mid) callsite id.
        let (b, call) = g.callsites()[0];
        let mid_graph = p.method(mid).graph.clone();
        inline_call(&mut g, b, call, &mid_graph);
        let sites = g.callsites();
        assert_eq!(sites.len(), 1);
        let site = g.inst(sites[0].1).op.call_site().unwrap();
        assert_eq!(site.method, mid);
    }

    #[test]
    fn the_call_result_becomes_the_continuation_parameter() {
        // caller(x) = let c = add1(x) in (x < 0 ? c : c + c), the call in
        // the entry, its result used in two other blocks.
        let mut p = Program::new();
        let callee = add1(&mut p);
        let caller = p.declare_function("caller", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, caller);
        let x = fb.param(0);
        let c = fb.call_static(callee, vec![x]).unwrap();
        let zero = fb.const_int(0);
        let neg = fb.cmp(CmpOp::ILt, x, zero);
        let (t, e) = (fb.add_block(), fb.add_block());
        fb.branch(neg, (t, vec![]), (e, vec![]));
        fb.switch_to(t);
        fb.ret(Some(c));
        fb.switch_to(e);
        let d = fb.iadd(c, c);
        fb.ret(Some(d));
        let mut g = fb.finish();
        let (b, call) = g.callsites()[0];
        let before = g.clone();

        let callee_graph = p.method(callee).graph.clone();
        let res = inline_call(&mut g, b, call, &callee_graph);
        verify_graph(&p, &g, &[Type::Int], RetType::Value(Type::Int)).unwrap();
        assert_eq!(g.block(res.continuation).params, vec![c]);
        // Not one operand outside the split block was rewritten.
        for other in before.block_ids().filter(|&o| o != b) {
            assert_eq!(g.block(other).term, before.block(other).term);
            for &i in &before.block(other).insts {
                assert_eq!(g.inst(i).args, before.inst(i).args);
            }
        }
    }

    /// Hostile shape: 20 000 calls in a row in one block, inlined last to
    /// first. Each step must cost its callee and the instructions it
    /// moves; one that rewrote the uses of the call's result by scanning
    /// the root made this 20 000 scans of a growing graph.
    #[test]
    fn inlines_20_000_calls_in_one_block_in_one_linear_pass() {
        const CALLS: usize = 20_000;
        let mut p = Program::new();
        let callee = add1(&mut p);
        let root = p.declare_function("root", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, root);
        let mut v = fb.param(0);
        for _ in 0..CALLS {
            v = fb.call_static(callee, vec![v]).unwrap();
        }
        fb.ret(Some(v));
        let mut g = fb.finish();

        let callee_graph = p.method(callee).graph.clone();
        let e = g.entry();
        for (b, call) in g.callsites().into_iter().rev() {
            assert_eq!(b, e, "the split leaves earlier calls where they were");
            inline_call(&mut g, b, call, &callee_graph);
        }
        assert!(g.callsites().is_empty());
        assert_eq!(g.block_order().len(), 2 * CALLS + 1);
        verify_graph(&p, &g, &[Type::Int], RetType::Value(Type::Int)).unwrap();
    }

    #[test]
    #[should_panic(expected = "must be a call instruction")]
    fn rejects_non_call() {
        let mut p = Program::new();
        let callee = add1(&mut p);
        let caller = p.declare_function("caller", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, caller);
        let k = fb.const_int(3);
        fb.ret(Some(k));
        let mut g = fb.finish();
        let e = g.entry();
        let first = g.block(e).insts[0];
        let callee_graph = p.method(callee).graph.clone();
        inline_call(&mut g, e, first, &callee_graph);
    }

    #[test]
    fn self_recursive_inline_once() {
        // fact(n): n <= 1 ? 1 : n * fact(n-1); inline one level.
        let mut p = Program::new();
        let fact = p.declare_function("fact", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, fact);
        let n = fb.param(0);
        let one = fb.const_int(1);
        let c = fb.cmp(CmpOp::ILe, n, one);
        let base = fb.add_block();
        let rec = fb.add_block();
        fb.branch(c, (base, vec![]), (rec, vec![]));
        fb.switch_to(base);
        fb.ret(Some(one));
        fb.switch_to(rec);
        let nm1 = fb.isub(n, one);
        let sub = fb.call_static(fact, vec![nm1]).unwrap();
        let r = fb.binop(BinOp::IMul, n, sub);
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(fact, g);

        let mut g = p.method(fact).graph.clone();
        let (b, call) = g.callsites()[0];
        let callee_graph = p.method(fact).graph.clone();
        inline_call(&mut g, b, call, &callee_graph);
        verify_graph(&p, &g, &[Type::Int], RetType::Value(Type::Int)).unwrap();
        // Exactly one recursive callsite remains (the inner copy).
        assert_eq!(g.callsites().len(), 1);
    }
}
