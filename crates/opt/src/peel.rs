//! First-iteration loop peeling (paper §IV, *Other optimizations*).
//!
//! "At the end of every round, we also apply peeling on a loop's first
//! iteration if we detect that the loop contains a φ-node whose type is
//! more specific in that first iteration." In block-parameter SSA, the
//! φ-node is a loop-header parameter; its first-iteration type is the type
//! flowing in along the loop-entry edges. When that type is strictly
//! narrower than the parameter's declared type, the first iteration is
//! cloned in front of the loop with the narrowed types, which lets the
//! canonicalizer devirtualize and fold inside the peeled copy.

use incline_ir::graph::{Terminator, Transplant};
use incline_ir::ids::{BlockId, ValueId};
use incline_ir::loops::Loop;
use incline_ir::types::Type;
use incline_ir::{Graph, Program};

use crate::stats::OptStats;
use crate::typeprop::{lub, type_prop};

/// Upper bound on the IR size of a loop considered for peeling.
const PEEL_SIZE_CAP: usize = 120;

/// Peels the first iteration of every loop whose header parameters carry
/// strictly narrower types on the loop-entry edges than on the back edges.
/// Returns counts (`stats.loops_peeled`).
///
/// Type propagation runs first: a parameter that is narrow on *every* edge
/// (including back edges) is simply narrowed in place, no peel needed.
/// Peeling fires only when iterations 2+ genuinely widen the type, so that
/// specialization is possible in the first iteration alone.
pub fn peel_loops(program: &Program, graph: &mut Graph) -> OptStats {
    let mut stats = OptStats::new();
    // Recompute after each peel: block sets change. (After the scalar
    // bundle the forest comes from the dominator tree the graph already
    // has; a graph without one and without a retreating edge gets an empty
    // forest without any analysis.)
    loop {
        type_prop(program, graph);
        let forest = graph.loop_forest();
        let candidate = forest.loops.iter().find(|l| should_peel(program, graph, l));
        match candidate {
            Some(l) => {
                peel_one(graph, l);
                stats.loops_peeled += 1;
            }
            None => break,
        }
        if stats.loops_peeled >= 8 {
            break; // safety valve against pathological nests
        }
    }
    stats
}

/// The paper's trigger: some header parameter is strictly narrower on the
/// loop-entry edges than its (post-type-propagation) declared type — for a
/// loop whose values leave it only through block parameters
/// ([`used_after`]).
fn should_peel(program: &Program, graph: &Graph, l: &Loop) -> bool {
    let size: usize = l
        .blocks
        .iter()
        .map(|&b| {
            let bd = graph.block(b);
            bd.params.len() + bd.insts.len() + 1
        })
        .sum();
    if size > PEEL_SIZE_CAP {
        return false;
    }
    let entry_edges = entry_edges(graph, l);
    if entry_edges.is_empty() {
        return false;
    }
    let header_params = &graph.block(l.header).params;
    let narrows = (0..header_params.len()).any(|i| {
        let declared = graph.value_type(header_params[i]);
        if !matches!(declared, Type::Object(_)) {
            return false;
        }
        let tys = entry_edges
            .iter()
            .map(|(_, args)| graph.value_type(args[i]));
        lub(program, tys).is_some_and(|t| t != declared && program.is_assignable(t, declared))
    });
    narrows && !used_after(graph, l)
}

/// Whether a block outside the loop reads a value the loop defines. The
/// peeled copy leaves by exits of its own, around the original loop, so
/// such a read would no longer be dominated by its definition; a value
/// passed along an exit edge is read inside the loop and is copied with it.
fn used_after(graph: &Graph, l: &Loop) -> bool {
    let mut defined = vec![false; graph.value_count()];
    for &b in &l.blocks {
        let bd = graph.block(b);
        let results = bd.insts.iter().filter_map(|&i| graph.inst(i).result);
        for v in bd.params.iter().copied().chain(results) {
            defined[v.index()] = true;
        }
    }
    let read = |v: ValueId| defined[v.index()];
    let outside = graph.block_order().iter().filter(|&&b| !l.contains(b));
    outside.map(|&b| graph.block(b)).any(|bd| {
        let args = bd.insts.iter().flat_map(|&i| &graph.inst(i).args);
        args.copied().chain(bd.term.uses()).any(read)
    })
}

/// (pred, args) pairs for edges into the header from outside the loop.
fn entry_edges<'g>(graph: &'g Graph, l: &Loop) -> Vec<(BlockId, &'g [ValueId])> {
    let mut out = Vec::new();
    for &b in graph.block_order().iter() {
        if l.contains(b) {
            continue;
        }
        for (d, args) in graph.block(b).term.edges() {
            if d == l.header {
                out.push((b, args));
            }
        }
    }
    out
}

/// Clones the loop body in front of the loop as the first iteration.
fn peel_one(graph: &mut Graph, l: &Loop) {
    // The loop-entry edges: their sources, and per header parameter the
    // type every one of them passes (if they agree).
    let (preds, first_iteration_types): (Vec<BlockId>, Vec<Option<Type>>) = {
        let edges = entry_edges(graph, l);
        let types = (0..graph.block(l.header).params.len())
            .map(|i| {
                let mut tys = edges.iter().map(|(_, args)| graph.value_type(args[i]));
                let first = tys.next()?;
                tys.all(|t| t == first).then_some(first)
            })
            .collect();
        (edges.iter().map(|&(b, _)| b).collect(), types)
    };

    // The copy reads the values outside the loop it does not clone, and
    // leaves for the blocks outside the loop, as the loop does.
    let src = graph.clone();
    let map = graph.transplant(
        &src,
        &l.blocks,
        Transplant::identity(&src),
        Terminator::Return,
    );
    let peeled_header = map.block(l.header);

    // Narrow the cloned header's parameter types to the entry-edge types
    // (when every entry edge agrees); this is the entire point of peeling.
    for (i, ty) in first_iteration_types.into_iter().enumerate() {
        if let Some(ty) = ty {
            graph.set_value_type(map.value(src.block(l.header).params[i]), ty);
        }
    }

    // The copy's back edges go to the ORIGINAL header (iterations 2+ run
    // the original loop); the loop-entry edges go to the copy.
    for &b in &l.blocks {
        retarget(graph, map.block(b), peeled_header, l.header);
    }
    for pred in preds {
        retarget(graph, pred, l.header, peeled_header);
    }
}

/// Points the edges of `block` that lead to `from` at `to`.
fn retarget(graph: &mut Graph, block: BlockId, from: BlockId, to: BlockId) {
    let retarget = |d: &mut BlockId| {
        if *d == from {
            *d = to;
        }
    };
    match &mut graph.block_mut(block).term {
        Terminator::Jump(d, _) => retarget(d),
        Terminator::Branch {
            then_dest,
            else_dest,
            ..
        } => {
            retarget(&mut then_dest.0);
            retarget(&mut else_dest.0);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::graph::CmpOp;
    use incline_ir::loops::LoopForest;
    use incline_ir::types::RetType;
    use incline_ir::verify::verify_graph;

    /// Builds: loop over `n` iterations whose header param is declared as
    /// the base class but receives a subclass on entry.
    fn narrowable_loop() -> (Program, Graph) {
        let mut p = Program::new();
        let base = p.add_class("Base", None);
        let sub = p.add_class("Sub", Some(base));
        let m = p.declare_function("f", vec![Type::Int], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, m);
        let n = fb.param(0);
        let obj = fb.new_object(sub);
        let up = fb.cast(base, obj); // widen to Base for the loop param
        let zero = fb.const_int(0);
        let (head, hp) = fb.add_block_with_params(&[Type::Int, Type::Object(base)]);
        let body = fb.add_block();
        let done = fb.add_block();
        fb.jump(head, vec![zero, up]);
        fb.switch_to(head);
        let c = fb.cmp(CmpOp::ILt, hp[0], n);
        fb.branch(c, (body, vec![]), (done, vec![]));
        fb.switch_to(body);
        let one = fb.const_int(1);
        let i2 = fb.iadd(hp[0], one);
        fb.print(hp[0]);
        fb.jump(head, vec![i2, hp[1]]);
        fb.switch_to(done);
        fb.ret(None);
        (p.clone(), fb.finish())
    }

    #[test]
    fn no_peel_when_entry_type_matches_param() {
        // The entry edge passes a value already widened to the declared
        // parameter type (via `cast Base`), so there is nothing to narrow.
        let (p, mut g) = narrowable_loop();
        let stats = peel_loops(&p, &mut g);
        assert_eq!(stats.loops_peeled, 0);
    }

    #[test]
    fn peels_loop_with_narrower_entry_arg() {
        let mut p = Program::new();
        let base = p.add_class("Base", None);
        let sub = p.add_class("Sub", Some(base));
        let m = p.declare_function("f", vec![Type::Int], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, m);
        let n = fb.param(0);
        let obj = fb.new_object(sub); // type Object(Sub), narrower than param
        let zero = fb.const_int(0);
        let head = fb.add_block();
        // The loop param is declared with the WIDER type Object(Base) while
        // the entry edge passes an Object(Sub): the peel trigger.
        let mut graph = fb.finish();
        let head_i = graph.add_block_param(head, Type::Int);
        let head_o = graph.add_block_param(head, Type::Object(base));
        let body = graph.add_block();
        let done = graph.add_block();
        graph.set_terminator(graph.entry(), Terminator::Jump(head, vec![zero, obj]));
        let (_, c) = graph.append(
            head,
            incline_ir::Op::Cmp(CmpOp::ILt),
            vec![head_i, n],
            Some(Type::Bool),
        );
        graph.set_terminator(
            head,
            Terminator::Branch {
                cond: c.unwrap(),
                then_dest: (body, vec![]),
                else_dest: (done, vec![]),
            },
        );
        let (_, one) = graph.append(body, incline_ir::Op::ConstInt(1), vec![], Some(Type::Int));
        let (_, i2) = graph.append(
            body,
            incline_ir::Op::Bin(incline_ir::BinOp::IAdd),
            vec![head_i, one.unwrap()],
            Some(Type::Int),
        );
        graph.append(body, incline_ir::Op::Print, vec![head_i], None);
        // The back edge passes a value WIDENED to Base: only the first
        // iteration sees the precise Sub type, which is the peel trigger.
        let (_, widened) = graph.append(
            body,
            incline_ir::Op::Cast(base),
            vec![head_o],
            Some(Type::Object(base)),
        );
        graph.set_terminator(
            body,
            Terminator::Jump(head, vec![i2.unwrap(), widened.unwrap()]),
        );
        graph.set_terminator(done, Terminator::Return(None));

        verify_graph(&p, &graph, &[Type::Int], RetType::Void).unwrap();
        let before_loops = LoopForest::compute(&graph).loops.len();
        assert_eq!(before_loops, 1);
        let stats = peel_loops(&p, &mut graph);
        assert_eq!(stats.loops_peeled, 1);
        verify_graph(&p, &graph, &[Type::Int], RetType::Void).unwrap();
        // Still exactly one loop; the peeled copy is straight-line.
        assert_eq!(LoopForest::compute(&graph).loops.len(), 1);
        // The peeled header's object param is narrowed to Sub.
        let peeled_params_narrowed = graph.reachable_blocks().iter().any(|&b| {
            graph
                .block(b)
                .params
                .iter()
                .any(|&pv| graph.value_type(pv) == Type::Object(sub))
        });
        assert!(peeled_params_narrowed);
    }

    /// The narrowable loop of `peels_loop_with_narrower_entry_arg`, but its
    /// exit returns the header's counter directly, not through a block
    /// parameter. A peeled copy would reach that return by its own exit,
    /// around the original header that defines the counter.
    #[test]
    fn no_peel_when_a_loop_value_is_used_after_the_loop() {
        let mut p = Program::new();
        let base = p.add_class("Base", None);
        let sub = p.add_class("Sub", Some(base));
        let m = p.declare_function("f", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let n = fb.param(0);
        let obj = fb.new_object(sub);
        let zero = fb.const_int(0);
        let mut graph = fb.finish();
        let head = graph.add_block();
        let head_i = graph.add_block_param(head, Type::Int);
        let head_o = graph.add_block_param(head, Type::Object(base));
        let (body, done) = (graph.add_block(), graph.add_block());
        graph.set_terminator(graph.entry(), Terminator::Jump(head, vec![zero, obj]));
        let cmp = incline_ir::Op::Cmp(CmpOp::ILt);
        let (_, c) = graph.append(head, cmp, vec![head_i, n], Some(Type::Bool));
        graph.set_terminator(
            head,
            Terminator::Branch {
                cond: c.unwrap(),
                then_dest: (body, vec![]),
                else_dest: (done, vec![]),
            },
        );
        let (_, one) = graph.append(body, incline_ir::Op::ConstInt(1), vec![], Some(Type::Int));
        let add = incline_ir::Op::Bin(incline_ir::BinOp::IAdd);
        let (_, i2) = graph.append(body, add, vec![head_i, one.unwrap()], Some(Type::Int));
        let cast = incline_ir::Op::Cast(base);
        let (_, widened) = graph.append(body, cast, vec![head_o], Some(Type::Object(base)));
        graph.set_terminator(
            body,
            Terminator::Jump(head, vec![i2.unwrap(), widened.unwrap()]),
        );
        graph.set_terminator(done, Terminator::Return(Some(head_i)));
        let sig = (&[Type::Int][..], RetType::Value(Type::Int));
        verify_graph(&p, &graph, sig.0, sig.1).unwrap();

        let stats = peel_loops(&p, &mut graph);
        verify_graph(&p, &graph, sig.0, sig.1).unwrap();
        assert_eq!(stats.loops_peeled, 0);
    }

    #[test]
    fn no_peel_without_narrowing() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, m);
        let n = fb.param(0);
        let zero = fb.const_int(0);
        let (head, hp) = fb.add_block_with_params(&[Type::Int]);
        let body = fb.add_block();
        let done = fb.add_block();
        fb.jump(head, vec![zero]);
        fb.switch_to(head);
        let c = fb.cmp(CmpOp::ILt, hp[0], n);
        fb.branch(c, (body, vec![]), (done, vec![]));
        fb.switch_to(body);
        let one = fb.const_int(1);
        let i2 = fb.iadd(hp[0], one);
        fb.jump(head, vec![i2]);
        fb.switch_to(done);
        fb.ret(None);
        let mut g = fb.finish();
        let stats = peel_loops(&p, &mut g);
        assert_eq!(stats.loops_peeled, 0, "int params never narrow");
    }
}
