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

use incline_ir::graph::Terminator;
use incline_ir::ids::{BlockId, InstId, ValueId};
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
/// loop-entry edges than its (post-type-propagation) declared type.
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
    (0..header_params.len()).any(|i| {
        let declared = graph.value_type(header_params[i]);
        if !matches!(declared, Type::Object(_)) {
            return false;
        }
        let tys = entry_edges
            .iter()
            .map(|(_, args)| graph.value_type(args[i]));
        lub(program, tys).is_some_and(|t| t != declared && program.is_assignable(t, declared))
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

    // Original → clone, dense by id. Blocks and instructions outside the
    // loop have no clone; values outside the loop map to themselves.
    let mut block_map: Vec<Option<BlockId>> = vec![None; graph.block_count()];
    let mut inst_map: Vec<Option<InstId>> = vec![None; graph.inst_count()];
    let mut value_map: Vec<ValueId> = (0..graph.value_count()).map(ValueId::new).collect();

    // --- clone shells + params ---------------------------------------------
    for &b in &l.blocks {
        let nb = graph.add_block();
        block_map[b.index()] = Some(nb);
        for i in 0..graph.block(b).params.len() {
            let p = graph.block(b).params[i];
            let np = graph.add_block_param(nb, graph.value_type(p));
            value_map[p.index()] = np;
        }
    }

    // Narrow the cloned header's parameter types to the entry-edge types
    // (when every entry edge agrees); this is the entire point of peeling.
    for (i, ty) in first_iteration_types.into_iter().enumerate() {
        if let Some(ty) = ty {
            let np = value_map[graph.block(l.header).params[i].index()];
            graph.set_value_type(np, ty);
        }
    }

    // --- clone instructions (two-phase for forward refs) --------------------
    for &b in &l.blocks {
        let nb = block_map[b.index()].expect("cloned above");
        for pos in 0..graph.block(b).insts.len() {
            let i = graph.block(b).insts[pos];
            let (op, result) = {
                let d = graph.inst(i);
                (d.op.clone(), d.result)
            };
            let result_ty = result.map(|r| graph.value_type(r));
            let (ni, nres) = graph.append(nb, op, Vec::new(), result_ty);
            inst_map[i.index()] = Some(ni);
            if let (Some(or), Some(nr)) = (result, nres) {
                value_map[or.index()] = nr;
            }
        }
    }
    let map_args =
        |args: &[ValueId]| -> Vec<ValueId> { args.iter().map(|&a| value_map[a.index()]).collect() };
    // Inside-loop edges to the header go back to the ORIGINAL header
    // (iterations 2+ run the original loop); edges to other loop blocks go
    // to clones; exits stay.
    let map_edge = |d: BlockId, args: &[ValueId]| -> (BlockId, Vec<ValueId>) {
        let nd = if d == l.header {
            l.header
        } else {
            block_map[d.index()].unwrap_or(d)
        };
        (nd, map_args(args))
    };
    for &b in &l.blocks {
        for pos in 0..graph.block(b).insts.len() {
            let i = graph.block(b).insts[pos];
            let args = map_args(&graph.inst(i).args);
            graph
                .inst_mut(inst_map[i.index()].expect("cloned above"))
                .args = args;
        }
        let nterm = match &graph.block(b).term {
            Terminator::Jump(d, args) => {
                let (nd, nargs) = map_edge(*d, args);
                Terminator::Jump(nd, nargs)
            }
            Terminator::Branch {
                cond,
                then_dest,
                else_dest,
            } => Terminator::Branch {
                cond: value_map[cond.index()],
                then_dest: map_edge(then_dest.0, &then_dest.1),
                else_dest: map_edge(else_dest.0, &else_dest.1),
            },
            t @ (Terminator::Return(_) | Terminator::Deopt { .. }) => t.clone(),
            Terminator::Unterminated => Terminator::Unterminated,
        };
        graph.set_terminator(block_map[b.index()].expect("cloned above"), nterm);
    }

    // --- retarget the loop-entry edges to the peeled copy -------------------
    let peeled_header = block_map[l.header.index()].expect("the header is in its loop");
    let retarget = |d: &mut BlockId| {
        if *d == l.header {
            *d = peeled_header;
        }
    };
    for pred in preds {
        match &mut graph.block_mut(pred).term {
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
