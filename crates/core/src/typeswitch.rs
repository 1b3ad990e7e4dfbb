//! Typeswitch emission for polymorphic callsites (paper §IV, after Hölzle
//! and Ungar).
//!
//! A virtual callsite with a usable receiver profile is rewritten into an
//! if-cascade of `instanceof` guards. Each case casts the receiver to the
//! guarded class (giving the inliner a precise receiver type) and performs
//! a *direct* call to the resolved target; the cascade ends in one of the
//! paper's two fallback shapes ([`FallbackMode`]): the original virtual
//! call (always correct, profiles fallback traffic for the drift monitor)
//! or an uncommon trap (`deopt`) that transfers the activation back to the
//! interpreter when an unspeculated receiver shows up.

use incline_ir::graph::{CallInfo, CallTarget, DeoptReason, Op, Terminator};
use incline_ir::ids::{BlockId, ClassId, InstId, MethodId};
use incline_ir::{Graph, Program, Type};

/// What the cascade does with receivers no case covers (paper §IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallbackMode {
    /// Re-emit the original virtual call: always correct, usable without
    /// deoptimization support.
    Virtual,
    /// Emit an uncommon trap: the compiled activation deoptimizes and the
    /// VM replays it in the interpreter. Chosen by
    /// [`Speculation::fallback`](crate::Speculation::fallback): only when
    /// the broker allows deoptimization and profile coverage clears the
    /// confidence bar.
    Deopt,
}

/// Outcome of a typeswitch rewrite.
#[derive(Clone, Debug)]
pub struct TypeswitchResult {
    /// The direct call instruction of each case, in group order.
    pub case_calls: Vec<InstId>,
    /// The fallback virtual call instruction; `None` when the fallback is
    /// an uncommon trap ([`FallbackMode::Deopt`]).
    pub fallback_call: Option<InstId>,
    /// The continuation block receiving the call result.
    pub continuation: BlockId,
}

/// One typeswitch case: the resolved target and the guarding class.
#[derive(Clone, Copy, Debug)]
pub struct TypeswitchCase {
    /// Direct-call target.
    pub target: MethodId,
    /// `instanceof` guard; receivers of this class (or subclasses)
    /// dispatch to `target`.
    pub guard: ClassId,
}

/// Rewrites the virtual call `call` inside `block` into a typeswitch over
/// `cases`, with `fallback` deciding what uncovered receivers do.
///
/// # Panics
///
/// Panics if `call` is not a virtual call inside `block`, or `cases` is
/// empty.
pub fn emit_typeswitch(
    program: &Program,
    graph: &mut Graph,
    block: BlockId,
    call: InstId,
    cases: &[TypeswitchCase],
    fallback: FallbackMode,
) -> TypeswitchResult {
    assert!(!cases.is_empty(), "typeswitch needs at least one case");
    let Op::Call(info) = graph.inst(call).op.clone() else {
        panic!("typeswitch target must be a call instruction");
    };
    let CallTarget::Virtual(_) = info.target else {
        panic!("typeswitch target must be a virtual call");
    };
    let args = graph.inst(call).args.clone();
    let recv = args[0];
    let (continuation, cont_param) = graph.split_at_call(block, call);

    // Cascade: tests run in `block`, then in fresh chain blocks.
    let mut case_calls = Vec::with_capacity(cases.len());
    let mut test_block = block;
    for case in cases {
        let case_block = graph.add_block();
        let next_block = graph.add_block();
        // Guard in the current test block.
        let (_, guard_ok) = graph.append(
            test_block,
            Op::InstanceOf(case.guard),
            [recv],
            Some(Type::Bool),
        );
        graph.set_terminator(
            test_block,
            Terminator::Branch {
                cond: guard_ok.expect("instanceof produces a result"),
                then_dest: (case_block, vec![]),
                else_dest: (next_block, vec![]),
            },
        );
        // Case: cast the receiver (guarded, cannot fail) and call directly.
        let (_, cast_recv) = graph.append(
            case_block,
            Op::Cast(case.guard),
            [recv],
            Some(Type::Object(case.guard)),
        );
        let mut case_args = args.clone();
        case_args[0] = cast_recv.expect("cast produces a result");
        let ret_ty = program.method(case.target).ret.value();
        let (ci, cres) = graph.append(
            case_block,
            Op::Call(CallInfo {
                target: CallTarget::Static(case.target),
                site: info.site,
            }),
            case_args,
            ret_ty,
        );
        case_calls.push(ci);
        let cont_args = match cres {
            Some(v) => vec![v],
            None => vec![],
        };
        graph.set_terminator(case_block, Terminator::Jump(continuation, cont_args));
        test_block = next_block;
    }

    // Fallback: either the original virtual call (same profile site) or an
    // uncommon trap that hands the activation back to the interpreter.
    let fallback_call = match fallback {
        FallbackMode::Virtual => {
            let ret_ty = cont_param.map(|p| graph.value_type(p));
            let (fi, fres) = graph.append(test_block, Op::Call(info), args, ret_ty);
            let cont_args = match fres {
                Some(v) => vec![v],
                None => vec![],
            };
            graph.set_terminator(test_block, Terminator::Jump(continuation, cont_args));
            Some(fi)
        }
        FallbackMode::Deopt => {
            graph.set_terminator(
                test_block,
                Terminator::Deopt {
                    reason: DeoptReason::UncoveredReceiver,
                },
            );
            None
        }
    };

    TypeswitchResult {
        case_calls,
        fallback_call,
        continuation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::verify::verify_graph;
    use incline_ir::{Program, RetType};

    fn shapes() -> (Program, ClassId, ClassId, MethodId, MethodId, MethodId) {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let b = p.add_class("B", Some(a));
        let c = p.add_class("C", Some(a));
        let ma = p.declare_method(a, "go", vec![], Type::Int);
        let mb = p.declare_method(b, "go", vec![], Type::Int);
        let mc = p.declare_method(c, "go", vec![], Type::Int);
        for (m, k) in [(ma, 0), (mb, 1), (mc, 2)] {
            let mut fb = FunctionBuilder::new(&p, m);
            let v = fb.const_int(k);
            fb.ret(Some(v));
            let g = fb.finish();
            p.define_method(m, g);
        }
        (p, b, c, ma, mb, mc)
    }

    fn virtual_root(p: &mut Program) -> MethodId {
        let a = p.class_by_name("A").unwrap();
        let root = p.declare_function("root", vec![Type::Object(a)], Type::Int);
        let mut fb = FunctionBuilder::new(p, root);
        let recv = fb.param(0);
        let sel = fb.program().selector_by_name("go", 1).unwrap();
        let r = fb.call_virtual(sel, vec![recv]).unwrap();
        let one = fb.const_int(1);
        let out = fb.iadd(r, one);
        fb.ret(Some(out));
        let g = fb.finish();
        p.define_method(root, g);
        root
    }

    #[test]
    fn emits_cascade_with_fallback() {
        let (mut p, b, c, _, mb, mc) = shapes();
        let root = virtual_root(&mut p);
        let mut g = p.method(root).graph.clone();
        let (block, call) = g.callsites()[0];
        let res = emit_typeswitch(
            &p,
            &mut g,
            block,
            call,
            &[
                TypeswitchCase {
                    target: mb,
                    guard: b,
                },
                TypeswitchCase {
                    target: mc,
                    guard: c,
                },
            ],
            FallbackMode::Virtual,
        );
        assert_eq!(res.case_calls.len(), 2);
        assert!(res.fallback_call.is_some());
        let a = p.class_by_name("A").unwrap();
        verify_graph(&p, &g, &[Type::Object(a)], RetType::Value(Type::Int)).unwrap();
        // Three calls remain: two direct, one virtual fallback.
        let sites = g.callsites();
        assert_eq!(sites.len(), 3);
        let statics = sites
            .iter()
            .filter(|&&(_, i)| {
                matches!(
                    g.inst(i).op,
                    Op::Call(CallInfo {
                        target: CallTarget::Static(_),
                        ..
                    })
                )
            })
            .count();
        assert_eq!(statics, 2);
        // All calls keep the original profile site.
        for &(_, i) in &sites {
            let Op::Call(info) = &g.inst(i).op else {
                panic!()
            };
            assert_eq!(info.site.method, root);
            assert_eq!(info.site.index, 0);
        }
    }

    #[test]
    fn case_receivers_are_narrowed() {
        let (mut p, b, _, _, mb, _) = shapes();
        let root = virtual_root(&mut p);
        let mut g = p.method(root).graph.clone();
        let (block, call) = g.callsites()[0];
        let res = emit_typeswitch(
            &p,
            &mut g,
            block,
            call,
            &[TypeswitchCase {
                target: mb,
                guard: b,
            }],
            FallbackMode::Virtual,
        );
        let case = res.case_calls[0];
        let recv = g.inst(case).args[0];
        assert_eq!(
            g.value_type(recv),
            Type::Object(b),
            "case receiver must be cast-narrowed"
        );
    }

    #[test]
    fn void_virtual_calls_supported() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let b = p.add_class("B", Some(a));
        let ma = p.declare_method(a, "fire", vec![], RetType::Void);
        let mb = p.declare_method(b, "fire", vec![], RetType::Void);
        for m in [ma, mb] {
            let mut fb = FunctionBuilder::new(&p, m);
            let k = fb.const_int(0);
            fb.print(k);
            fb.ret(None);
            let g = fb.finish();
            p.define_method(m, g);
        }
        let root = p.declare_function("root", vec![Type::Object(a)], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, root);
        let recv = fb.param(0);
        let sel = fb.program().selector_by_name("fire", 1).unwrap();
        fb.call_virtual(sel, vec![recv]);
        fb.ret(None);
        let g = fb.finish();
        p.define_method(root, g);

        let mut g = p.method(root).graph.clone();
        let (block, call) = g.callsites()[0];
        let res = emit_typeswitch(
            &p,
            &mut g,
            block,
            call,
            &[TypeswitchCase {
                target: mb,
                guard: b,
            }],
            FallbackMode::Virtual,
        );
        assert!(g.block(res.continuation).params.is_empty());
        verify_graph(&p, &g, &[Type::Object(a)], RetType::Void).unwrap();
    }

    #[test]
    fn deopt_fallback_emits_uncommon_trap() {
        let (mut p, b, c, _, mb, mc) = shapes();
        let root = virtual_root(&mut p);
        let mut g = p.method(root).graph.clone();
        let (block, call) = g.callsites()[0];
        let res = emit_typeswitch(
            &p,
            &mut g,
            block,
            call,
            &[
                TypeswitchCase {
                    target: mb,
                    guard: b,
                },
                TypeswitchCase {
                    target: mc,
                    guard: c,
                },
            ],
            FallbackMode::Deopt,
        );
        assert_eq!(res.fallback_call, None);
        let a = p.class_by_name("A").unwrap();
        verify_graph(&p, &g, &[Type::Object(a)], RetType::Value(Type::Int)).unwrap();
        // Only the two direct case calls remain: the virtual call is gone,
        // replaced by a deopt terminator on the final test block.
        let sites = g.callsites();
        assert_eq!(sites.len(), 2);
        assert!(sites.iter().all(|&(_, i)| {
            matches!(
                g.inst(i).op,
                Op::Call(CallInfo {
                    target: CallTarget::Static(_),
                    ..
                })
            )
        }));
        let traps = g
            .block_ids()
            .filter(|&bid| matches!(g.block(bid).term, Terminator::Deopt { .. }))
            .count();
        assert_eq!(traps, 1);
    }
}
