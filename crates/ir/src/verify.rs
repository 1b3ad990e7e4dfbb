//! Graph verifier: structural, type and dominance checking.
//!
//! The verifier is the safety net for every transformation in the system —
//! each optimization pass and each inlining step is property-tested to
//! preserve verifiability. Checks performed:
//!
//! * every reachable block is terminated,
//! * branch/jump arguments match target block parameters (count + types),
//! * instruction operands exist, and each instruction's result is what
//!   the operation's typing rule ([`Graph::result_type`]) says,
//! * every value definition dominates each of its uses,
//! * returned values match the method's return type,
//! * entry-block parameters agree with the declared signature (parameter
//!   types may be *narrowed*, which deep inlining trials rely on),
//! * a method declares at most [`MAX_PARAMS`] parameters.

use std::error::Error;
use std::fmt;

use crate::dom::DomTree;
use crate::graph::{Graph, Terminator};
use crate::ids::{BlockId, InstId, ValueId};
use crate::program::{Method, Program};
use crate::types::{RetType, Type};

/// A verification failure.
#[derive(Clone, Debug, PartialEq)]
pub struct VerifyError {
    /// Block where the problem was found, if block-local.
    pub block: Option<BlockId>,
    /// Instruction where the problem was found, if instruction-local.
    pub inst: Option<InstId>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verify failed")?;
        if let Some(b) = self.block {
            write!(f, " in {b}")?;
        }
        if let Some(i) = self.inst {
            write!(f, " at {i}")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl Error for VerifyError {}

fn err<T>(
    block: Option<BlockId>,
    inst: Option<InstId>,
    message: impl Into<String>,
) -> Result<T, VerifyError> {
    Err(VerifyError {
        block,
        inst,
        message: message.into(),
    })
}

/// The most parameters a method may declare. The VM checks a virtual call
/// against the override it dispatches to by one `u64` that packs the
/// kinds of the call's parameters and result, and thirty parameters is
/// the widest signature that word holds exactly.
pub const MAX_PARAMS: usize = 30;

/// Verifies the body of a defined method.
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn verify(program: &Program, method: &Method) -> Result<(), VerifyError> {
    if method.params.len() > MAX_PARAMS {
        return err(
            None,
            None,
            format!(
                "{} parameters, over the limit of {MAX_PARAMS}",
                method.params.len()
            ),
        );
    }
    verify_graph(program, &method.graph, &method.params, method.ret)
}

/// Verifies a standalone graph against an expected signature.
///
/// Entry parameters may have types *narrower* than `declared_params`
/// (callsite specialization), but never wider.
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn verify_graph(
    program: &Program,
    graph: &Graph,
    declared_params: &[Type],
    ret: RetType,
) -> Result<(), VerifyError> {
    let entry = graph.entry();
    let entry_params = &graph.block(entry).params;
    if entry_params.len() != declared_params.len() {
        return err(
            Some(entry),
            None,
            format!(
                "entry has {} params, signature declares {}",
                entry_params.len(),
                declared_params.len()
            ),
        );
    }
    for (i, (&v, &ty)) in entry_params.iter().zip(declared_params).enumerate() {
        let actual = graph.value_type(v);
        if !program.is_assignable(actual, ty) {
            return err(
                Some(entry),
                None,
                format!("entry param {i} has type {actual}, not assignable to declared {ty}"),
            );
        }
    }

    // A tree of its own rather than `graph.dom_tree()`: what gets verified
    // is a method body or code about to be installed, checked once and kept
    // for long, and the shared tree would stay on it.
    let dom = DomTree::compute(graph);
    let reachable = dom.rpo();

    // Map each inst to its (block, position), dense by instruction id;
    // detect duplicates.
    let mut placement: Vec<Option<(BlockId, usize)>> = vec![None; graph.inst_count()];
    for &b in reachable {
        for (pos, &i) in graph.block(b).insts.iter().enumerate() {
            if placement[i.index()].replace((b, pos)).is_some() {
                return err(
                    Some(b),
                    Some(i),
                    "instruction appears in more than one place",
                );
            }
        }
    }

    let value_def_ok = |v: ValueId| v.index() < graph.value_count();

    // Dominance of defs over uses.
    let use_ok = |v: ValueId, ub: BlockId, upos: Option<usize>| -> Result<(), VerifyError> {
        if !value_def_ok(v) {
            return err(Some(ub), None, format!("use of undefined value {v}"));
        }
        match graph.value(v).def {
            crate::graph::ValueDef::Param(pb, _) => {
                if !dom.dominates(pb, ub) {
                    return err(
                        Some(ub),
                        None,
                        format!("param {v} of {pb} does not dominate use in {ub}"),
                    );
                }
            }
            crate::graph::ValueDef::Inst(di) => {
                let Some((db, dpos)) = placement[di.index()] else {
                    return err(
                        Some(ub),
                        None,
                        format!("value {v} defined by detached instruction {di}"),
                    );
                };
                let ok = if db == ub {
                    match upos {
                        Some(p) => dpos < p,
                        None => true, // terminator: any position in same block
                    }
                } else {
                    dom.dominates(db, ub)
                };
                if !ok {
                    return err(
                        Some(ub),
                        Some(di),
                        format!("definition of {v} does not dominate its use"),
                    );
                }
            }
        }
        Ok(())
    };

    for &b in reachable {
        let bd = graph.block(b);
        for (pos, &i) in bd.insts.iter().enumerate() {
            let inst = graph.inst(i);
            for &a in &inst.args {
                use_ok(a, b, Some(pos))?;
            }
            let expected = graph
                .result_type(program, &inst.op, &inst.args)
                .or_else(|message| err(Some(b), Some(i), message))?;
            match (expected, inst.result) {
                (Some(t), Some(r)) if graph.value_type(r) == t => {}
                (Some(t), Some(r)) => {
                    let rt = graph.value_type(r);
                    return err(
                        Some(b),
                        Some(i),
                        format!("result type {rt} != expected {t}"),
                    );
                }
                (Some(t), None) => {
                    return err(Some(b), Some(i), format!("missing result of type {t}"))
                }
                (None, Some(_)) => return err(Some(b), Some(i), "op should not produce a result"),
                (None, None) => {}
            }
        }
        match &bd.term {
            Terminator::Unterminated => {
                return err(Some(b), None, "reachable block is unterminated")
            }
            // An uncommon trap abandons the activation; it has no successors,
            // uses no values and is valid under any return type.
            Terminator::Deopt { .. } => {}
            Terminator::Return(v) => {
                if let Some(v) = v {
                    use_ok(*v, b, None)?;
                }
                match (ret, v) {
                    (RetType::Void, Some(v)) => {
                        return err(Some(b), None, format!("void method returns value {v}"))
                    }
                    (RetType::Value(_), None) => {
                        return err(Some(b), None, "non-void method returns nothing")
                    }
                    (RetType::Value(t), Some(v)) => {
                        let vt = graph.value_type(*v);
                        if !program.is_assignable(vt, t) {
                            return err(Some(b), None, format!("returns {vt}, expected {t}"));
                        }
                    }
                    (RetType::Void, None) => {}
                }
            }
            term @ (Terminator::Jump(..) | Terminator::Branch { .. }) => {
                for v in term.uses() {
                    use_ok(v, b, None)?;
                }
                if let Terminator::Branch { cond, .. } = term {
                    if graph.value_type(*cond) != Type::Bool {
                        return err(Some(b), None, "branch condition is not bool");
                    }
                }
                for (dest, args) in term.edges() {
                    let dparams = &graph.block(dest).params;
                    if dparams.len() != args.len() {
                        return err(
                            Some(b),
                            None,
                            format!(
                                "edge to {dest} passes {} args, block has {} params",
                                args.len(),
                                dparams.len()
                            ),
                        );
                    }
                    for (&arg, &p) in args.iter().zip(dparams) {
                        let at = graph.value_type(arg);
                        let pt = graph.value_type(p);
                        if !program.is_assignable(at, pt) {
                            return err(
                                Some(b),
                                None,
                                format!("edge arg {arg}:{at} not assignable to param {p}:{pt}"),
                            );
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::graph::{BinOp, CallTarget, CmpOp, Op};

    fn check(p: &Program, m: crate::ids::MethodId) -> Result<(), VerifyError> {
        verify(p, p.method(m))
    }

    #[test]
    fn accepts_well_formed_method() {
        let mut p = Program::new();
        let m = p.declare_function("abs", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let zero = fb.const_int(0);
        let neg = fb.cmp(CmpOp::ILt, x, zero);
        let (tb, _) = fb.add_block_with_params(&[]);
        let (eb, _) = fb.add_block_with_params(&[]);
        fb.branch(neg, (tb, vec![]), (eb, vec![]));
        fb.switch_to(tb);
        let nx = fb.ineg(x);
        fb.ret(Some(nx));
        fb.switch_to(eb);
        fb.ret(Some(x));
        p.define_method(m, fb.finish());
        assert_eq!(check(&p, m), Ok(()));
    }

    #[test]
    fn rejects_unterminated_block() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![], RetType::Void);
        p.define_method(m, Graph::empty());
        let e = check(&p, m).unwrap_err();
        assert!(e.message.contains("unterminated"), "{e}");
    }

    #[test]
    fn rejects_type_mismatch_in_binop() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Float], Type::Int);
        let fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        // Force an ill-typed iadd via the raw graph API.
        let mut g = fb.finish();
        let e = g.entry();
        let (_, r) = g.append(e, Op::Bin(BinOp::IAdd), vec![x, x], Some(Type::Int));
        g.set_terminator(e, Terminator::Return(r));
        p.define_method(m, g);
        let e = check(&p, m).unwrap_err();
        assert!(e.message.contains("iadd expects int"), "{e}");
    }

    #[test]
    fn rejects_use_before_def() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![], Type::Int);
        let mut g = Graph::empty();
        let e = g.entry();
        // Create the add first, then the constant it uses — same block, so
        // the def of the constant does not dominate (precede) its use.
        let add = g.create_inst(Op::Bin(BinOp::IAdd), vec![], Some(Type::Int));
        let k = g
            .append(e, Op::ConstInt(1), vec![], Some(Type::Int))
            .1
            .unwrap();
        // Manually attach operands and order: add before const.
        g.inst_mut(add).args = [k, k].into();
        let kinst = g.block(e).insts[0];
        g.block_mut(e).insts = vec![add, kinst];
        let r = g.inst(add).result;
        g.set_terminator(e, Terminator::Return(r));
        p.define_method(m, g);
        let e = check(&p, m).unwrap_err();
        assert!(e.message.contains("does not dominate"), "{e}");
    }

    #[test]
    fn rejects_bad_edge_arity() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![], RetType::Void);
        let mut g = Graph::empty();
        let e = g.entry();
        let t = g.add_block();
        g.add_block_param(t, Type::Int);
        g.set_terminator(e, Terminator::Jump(t, vec![]));
        g.set_terminator(t, Terminator::Return(None));
        p.define_method(m, g);
        let e = check(&p, m).unwrap_err();
        assert!(e.message.contains("passes 0 args"), "{e}");
    }

    #[test]
    fn rejects_wrong_return_type() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Float], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        fb.ret(Some(x));
        p.define_method(m, fb.finish());
        let e = check(&p, m).unwrap_err();
        assert!(e.message.contains("returns float"), "{e}");
    }

    #[test]
    fn rejects_void_returning_value() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        fb.ret(Some(x));
        p.define_method(m, fb.finish());
        let e = check(&p, m).unwrap_err();
        assert!(e.message.contains("void method returns"), "{e}");
    }

    #[test]
    fn accepts_narrowed_entry_params() {
        let mut p = Program::new();
        let sup = p.add_class("Sup", None);
        let sub = p.add_class("Sub", Some(sup));
        let m = p.declare_function("id", vec![Type::Object(sup)], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, m);
        fb.ret(None);
        let mut g = fb.finish();
        // Narrow the param to Sub, as callsite specialization would.
        let pv = g.block(g.entry()).params[0];
        g.set_value_type(pv, Type::Object(sub));
        assert!(verify_graph(&p, &g, &[Type::Object(sup)], RetType::Void).is_ok());
        // Widening (param wider than declared) is rejected.
        let m2 = p.declare_function("id2", vec![Type::Object(sub)], RetType::Void);
        let mut fb2 = FunctionBuilder::new(&p, m2);
        fb2.ret(None);
        let mut g2 = fb2.finish();
        let pv2 = g2.block(g2.entry()).params[0];
        g2.set_value_type(pv2, Type::Object(sup));
        assert!(verify_graph(&p, &g2, &[Type::Object(sub)], RetType::Void).is_err());
    }

    #[test]
    fn rejects_a_signature_past_max_params() {
        let mut p = Program::new();
        for n in [MAX_PARAMS, MAX_PARAMS + 1] {
            let m = p.declare_function(format!("f{n}"), vec![Type::Int; n], RetType::Void);
            let mut fb = FunctionBuilder::new(&p, m);
            fb.ret(None);
            p.define_method(m, fb.finish());
            let verdict = check(&p, m);
            if n == MAX_PARAMS {
                assert!(verdict.is_ok(), "{verdict:?}");
            } else {
                let e = verdict.expect_err("one past the limit");
                assert_eq!(e.message, "31 parameters, over the limit of 30");
            }
        }
    }

    #[test]
    fn rejects_call_arity_mismatch() {
        let mut p = Program::new();
        let callee = p.declare_function("callee", vec![Type::Int], RetType::Void);
        let caller = p.declare_function("caller", vec![], RetType::Void);
        let fb = FunctionBuilder::new(&p, caller);
        // Bypass builder typing by hand-crafting the call with no args.
        let mut g = fb.finish();
        let site = crate::ids::CallSiteId {
            method: caller,
            index: 0,
        };
        let e = g.entry();
        g.append(
            e,
            Op::Call(crate::graph::CallInfo {
                target: CallTarget::Static(callee),
                site,
            }),
            vec![],
            None,
        );
        g.set_terminator(e, Terminator::Return(None));
        p.define_method(caller, g);
        let e = check(&p, caller).unwrap_err();
        assert!(e.message.contains("passes 0 args"), "{e}");
    }
}
