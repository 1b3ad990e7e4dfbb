//! The inline substitution itself: transplanting a callee graph into a
//! caller at a callsite.
//!
//! [`inline_call`] implements the paper's `inlineIR` primitive (Listing 5):
//! the block containing the call is split, the callee's blocks are cloned
//! into the caller with all values remapped, the callee's entry receives the
//! call arguments, and every `return` becomes a jump to the continuation
//! block. Callsite ids inside the callee are preserved, so profiles keep
//! working after arbitrarily deep inlining.

use crate::graph::{Graph, Op, Terminator};
use crate::ids::{BlockId, InstId, ValueId};

/// Maps from callee entities to their clones in the caller: dense tables
/// indexed by the callee's ids, `None` for what was not transplanted
/// (entities of unreachable callee blocks, detached instructions).
#[derive(Clone, Debug)]
pub struct InlineResult {
    /// Callee block → caller block.
    pub block_map: Vec<Option<BlockId>>,
    /// Callee value → caller value.
    pub value_map: Vec<Option<ValueId>>,
    /// Callee instruction → caller instruction (inliners use this to
    /// re-anchor call-tree children onto the transplanted callsites).
    pub inst_map: Vec<Option<InstId>>,
    /// The transplanted call instructions as (callee, caller) pairs, in
    /// caller instruction order — the callsites this inlining step exposed.
    pub calls: Vec<(InstId, InstId)>,
    /// How many `return`s of the callee now jump to the continuation; with
    /// none, the callee never returns and the continuation is unreachable.
    pub return_edges: usize,
    /// The cloned entry block of the callee.
    pub inlined_entry: BlockId,
    /// The continuation block holding the code that followed the call.
    pub continuation: BlockId,
}

/// Inlines `callee` at the call instruction `call` inside `block` of
/// `caller`.
///
/// The call's result value (if any) is replaced by a parameter of the
/// continuation block, fed by every `return` in the callee.
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
    let pos = caller
        .block(block)
        .insts
        .iter()
        .position(|&i| i == call)
        .expect("call instruction must be inside the given block");
    assert!(
        matches!(caller.inst(call).op, Op::Call(_)),
        "inline_call target must be a call instruction"
    );
    let call_args: Vec<ValueId> = caller.inst(call).args.clone();
    let call_result = caller.inst(call).result;
    assert_eq!(
        callee.block(callee.entry()).params.len(),
        call_args.len(),
        "callee entry params must match call arity"
    );

    // --- split the caller block: [pre | call | post] -----------------------
    let continuation = caller.add_block();
    let cont_param = call_result.map(|r| {
        let ty = caller.value_type(r);
        caller.add_block_param(continuation, ty)
    });

    // Move trailing instructions and the terminator into the continuation.
    let (tail, old_term) = {
        let bd = caller.block_mut(block);
        let tail = bd.insts.split_off(pos + 1);
        bd.insts.truncate(pos); // drops the call as well; neutralized below
        (
            tail,
            std::mem::replace(&mut bd.term, Terminator::Unterminated),
        )
    };
    caller.block_mut(continuation).insts = tail;
    caller.block_mut(continuation).term = old_term;

    // Uses of the call result now read the continuation parameter.
    if let (Some(r), Some(p)) = (call_result, cont_param) {
        caller.replace_all_uses(r, p);
    }
    caller.neutralize_inst(call);

    // --- clone callee blocks ------------------------------------------------
    let callee_blocks = callee.block_order();
    let mut block_map: Vec<Option<BlockId>> = vec![None; callee.block_count()];
    let mut value_map: Vec<Option<ValueId>> = vec![None; callee.value_count()];

    // Pass 1: block shells and parameters.
    for &cb in callee_blocks.iter() {
        let nb = caller.add_block();
        block_map[cb.index()] = Some(nb);
        for &p in &callee.block(cb).params {
            let np = caller.add_block_param(nb, callee.value_type(p));
            value_map[p.index()] = Some(np);
        }
    }
    let map_b = |b: BlockId| block_map[b.index()].expect("successor of a reachable block");

    // Pass 2: instruction shells (ops + fresh results, args filled later so
    // that forward references across blocks resolve).
    let mut inst_map: Vec<Option<InstId>> = vec![None; callee.inst_count()];
    let mut calls: Vec<(InstId, InstId)> = Vec::new();
    for &cb in callee_blocks.iter() {
        let nb = map_b(cb);
        for &ci in &callee.block(cb).insts {
            let cinst = callee.inst(ci);
            let result_ty = cinst.result.map(|r| callee.value_type(r));
            let (ni, nres) = caller.append(nb, cinst.op.clone(), Vec::new(), result_ty);
            inst_map[ci.index()] = Some(ni);
            if matches!(cinst.op, Op::Call(_)) {
                calls.push((ci, ni));
            }
            if let (Some(cr), Some(nr)) = (cinst.result, nres) {
                value_map[cr.index()] = Some(nr);
            }
        }
    }

    // Pass 3: operands and terminators.
    let map_v = |v: ValueId| -> ValueId {
        value_map[v.index()].unwrap_or_else(|| panic!("unmapped callee value {v}"))
    };
    let map_args = |args: &[ValueId]| -> Vec<ValueId> { args.iter().map(|&a| map_v(a)).collect() };
    let mut return_edges = 0;
    for &cb in callee_blocks.iter() {
        for &ci in &callee.block(cb).insts {
            let ni = inst_map[ci.index()].expect("cloned in pass 2");
            caller.inst_mut(ni).args = map_args(&callee.inst(ci).args);
        }
        let nterm = match &callee.block(cb).term {
            Terminator::Jump(d, args) => Terminator::Jump(map_b(*d), map_args(args)),
            Terminator::Branch {
                cond,
                then_dest,
                else_dest,
            } => Terminator::Branch {
                cond: map_v(*cond),
                then_dest: (map_b(then_dest.0), map_args(&then_dest.1)),
                else_dest: (map_b(else_dest.0), map_args(&else_dest.1)),
            },
            Terminator::Return(v) => {
                return_edges += 1;
                let args = match (v, cont_param) {
                    (Some(v), Some(_)) => vec![map_v(*v)],
                    (None, None) => vec![],
                    (Some(_), None) => vec![], // caller ignores the value (cannot happen for verified graphs)
                    (None, Some(_)) => panic!("void return feeding a value continuation"),
                };
                Terminator::Jump(continuation, args)
            }
            // A trap in the callee abandons the whole compiled activation,
            // so it transplants unchanged into the caller.
            Terminator::Deopt { reason } => Terminator::Deopt { reason: *reason },
            Terminator::Unterminated => panic!("cannot inline a graph with unterminated blocks"),
        };
        caller.set_terminator(map_b(cb), nterm);
    }

    // --- wire the split block to the inlined entry --------------------------
    let inlined_entry = map_b(callee.entry());
    caller.set_terminator(block, Terminator::Jump(inlined_entry, call_args));

    InlineResult {
        block_map,
        value_map,
        inst_map,
        calls,
        return_edges,
        inlined_entry,
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
        assert!(
            matches!(g.block(g.entry()).term, Terminator::Jump(d, _) if d == res.inlined_entry)
        );
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
