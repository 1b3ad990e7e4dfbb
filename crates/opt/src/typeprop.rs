//! Flow-sensitive type propagation through block parameters.
//!
//! Narrows each block parameter's recorded type to the least upper bound of
//! the types flowing in along its incoming edges (ignoring edges that pass
//! the parameter back to itself, as loop-invariant parameters do). This is
//! the IR-level mechanism behind the paper's "propagating the improved
//! type information through the IR" during deep inlining trials: narrowed
//! parameters let the canonicalizer devirtualize and fold type checks.
//!
//! The entry block's parameters are never touched — their types are the
//! (possibly specialized) method signature.

use incline_ir::ids::BlockId;
use incline_ir::types::Type;
use incline_ir::{Graph, Program};

/// Least upper bound of a sequence of types: equal types, or the closest
/// common superclass for object types. `None` if the sequence is empty or
/// has no common bound under this lattice.
pub(crate) fn lub(program: &Program, types: impl IntoIterator<Item = Type>) -> Option<Type> {
    let mut join: Option<Type> = None;
    for t in types {
        join = Some(match join {
            None => t,
            Some(prev) if prev == t => prev,
            Some(Type::Object(a)) => {
                let Type::Object(b) = t else { return None };
                let mut cur = a;
                loop {
                    if program.is_subclass(b, cur) {
                        break Type::Object(cur);
                    }
                    cur = program.class(cur).parent?;
                }
            }
            Some(_) => return None,
        });
    }
    join
}

/// Runs type propagation to a fixpoint. Returns whether anything narrowed.
pub fn type_prop(program: &Program, graph: &mut Graph) -> bool {
    // Only blocks with an object-typed parameter can narrow; most graphs
    // have none, and then there is nothing to set up.
    let entry = graph.entry();
    let candidates: Vec<BlockId> = graph
        .block_order()
        .iter()
        .copied()
        .filter(|&b| {
            b != entry
                && graph
                    .block(b)
                    .params
                    .iter()
                    .any(|&p| matches!(graph.value_type(p), Type::Object(_)))
        })
        .collect();
    if candidates.is_empty() {
        return false;
    }
    // The pass changes types, never edges, so one table serves every round.
    let preds = graph.predecessors();

    let mut changed_any = false;
    loop {
        let mut changed = false;
        for &block in &candidates {
            for i in 0..graph.block(block).params.len() {
                let param = graph.block(block).params[i];
                let current = graph.value_type(param);
                if !matches!(current, Type::Object(_)) {
                    continue; // only object types narrow
                }
                // The types flowing in along every incoming edge. A branch
                // with both arms on this block is listed twice in a row;
                // visit its edges once. Self-args are ignored: a parameter
                // passed back to itself adds no new values.
                let sources = preds.of(block);
                let incoming = sources
                    .iter()
                    .enumerate()
                    .filter(|&(k, p)| k == 0 || sources[k - 1] != *p)
                    .flat_map(|(_, &p)| graph.block(p).term.edges())
                    .filter(|&(dest, args)| dest == block && args[i] != param)
                    .map(|(_, args)| graph.value_type(args[i]));
                if let Some(j) = lub(program, incoming) {
                    if j != current && program.is_assignable(j, current) {
                        graph.set_value_type(param, j);
                        changed = true;
                        changed_any = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    changed_any
}

#[cfg(test)]
mod tests {
    use super::*;
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::graph::{CmpOp, Terminator};
    use incline_ir::types::RetType;
    use incline_ir::verify::verify_graph;

    #[test]
    fn narrows_join_param() {
        let mut p = Program::new();
        let base = p.add_class("Base", None);
        let s1 = p.add_class("S1", Some(base));
        let s2 = p.add_class("S2", Some(s1));
        let m = p.declare_function("f", vec![Type::Bool], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, m);
        let c = fb.param(0);
        let t = fb.add_block();
        let e = fb.add_block();
        let j = fb.add_block();
        fb.branch(c, (t, vec![]), (e, vec![]));
        fb.switch_to(t);
        let o1 = fb.new_object(s1);
        fb.switch_to(e);
        let o2 = fb.new_object(s2);
        let mut g = fb.finish();
        // Join param declared as Base, receives S1 and S2 → narrows to S1.
        let jp = g.add_block_param(j, Type::Object(base));
        g.set_terminator(t, Terminator::Jump(j, vec![o1]));
        g.set_terminator(e, Terminator::Jump(j, vec![o2]));
        g.set_terminator(j, Terminator::Return(None));
        assert!(type_prop(&p, &mut g));
        assert_eq!(g.value_type(jp), Type::Object(s1));
        verify_graph(&p, &g, &[Type::Bool], RetType::Void).unwrap();
    }

    #[test]
    fn narrows_loop_invariant_param_ignoring_self_edge() {
        let mut p = Program::new();
        let base = p.add_class("Base", None);
        let sub = p.add_class("Sub", Some(base));
        let m = p.declare_function("f", vec![Type::Int], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, m);
        let n = fb.param(0);
        let obj = fb.new_object(sub);
        let zero = fb.const_int(0);
        let head = fb.add_block();
        let mut g = fb.finish();
        let hi = g.add_block_param(head, Type::Int);
        let ho = g.add_block_param(head, Type::Object(base));
        let body = g.add_block();
        let done = g.add_block();
        g.set_terminator(g.entry(), Terminator::Jump(head, vec![zero, obj]));
        let (_, c) = g.append(
            head,
            incline_ir::Op::Cmp(CmpOp::ILt),
            vec![hi, n],
            Some(Type::Bool),
        );
        g.set_terminator(
            head,
            Terminator::Branch {
                cond: c.unwrap(),
                then_dest: (body, vec![]),
                else_dest: (done, vec![]),
            },
        );
        let (_, one) = g.append(body, incline_ir::Op::ConstInt(1), vec![], Some(Type::Int));
        let (_, i2) = g.append(
            body,
            incline_ir::Op::Bin(incline_ir::BinOp::IAdd),
            vec![hi, one.unwrap()],
            Some(Type::Int),
        );
        g.set_terminator(body, Terminator::Jump(head, vec![i2.unwrap(), ho]));
        g.set_terminator(done, Terminator::Return(None));

        assert!(type_prop(&p, &mut g));
        assert_eq!(
            g.value_type(ho),
            Type::Object(sub),
            "self-edge must be ignored"
        );
        verify_graph(&p, &g, &[Type::Int], RetType::Void).unwrap();
    }

    #[test]
    fn entry_params_untouched() {
        let mut p = Program::new();
        let base = p.add_class("Base", None);
        let _sub = p.add_class("Sub", Some(base));
        let m = p.declare_function("f", vec![Type::Object(base)], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, m);
        fb.ret(None);
        let mut g = fb.finish();
        assert!(!type_prop(&p, &mut g));
        assert_eq!(
            g.value_type(g.block(g.entry()).params[0]),
            Type::Object(base)
        );
    }
}
