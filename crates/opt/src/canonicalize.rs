//! Canonicalization: the paper's "simple optimizations" bundle.
//!
//! Graal's canonicalizer is the workhorse that deep inlining trials invoke
//! after propagating callsite arguments (§IV, *Deep inlining trials*). Each
//! instruction is inspected in three steps, and the first that proposes a
//! rewrite wins:
//!
//! 1. **constant folding** (`fold`) — arithmetic, comparisons, negations
//!    and conversions over constant operands, through [`incline_ir::eval`],
//!    the interpreter's own semantics; a fold that would trap ends the
//!    inspection and leaves the instruction for runtime;
//! 2. **algebraic identities** (`rules`) — a first-match table of the
//!    two-operand identities of `Bin` and `Cmp` (`x+0`, `x*2ᵏ → x<<k`,
//!    `x-x`, `null == new C`, …), each row with the counter it bumps;
//! 3. **rewrites that read the program or a defining instruction** —
//!    `!!x`, `--x`, comparison inversion under `not`, `instanceof`/`cast`
//!    decided from static types and allocation sites, and devirtualization
//!    of exact-type or class-hierarchy-unique receivers.
//!
//! Around the instruction sweep, **branch pruning** folds conditional
//! branches on known conditions and **block merging** splices straight-line
//! jump chains so the other rewrites can see across them.
//!
//! All rewrites are counted in [`OptStats`]; the *simple* ones feed the
//! inliner's benefit estimate `N_o(n)` (Equation 4 of the paper).

use std::sync::Arc;

use incline_ir::eval::{self, TrapKind};
use incline_ir::graph::{BinOp, CallInfo, CallTarget, CmpOp, Op, Terminator};
use incline_ir::ids::{BlockId, InstId, ValueId};
use incline_ir::{Graph, Program, Type, ValueDef};

use crate::alias::Aliases;
use crate::stats::OptStats;

/// Runs canonicalization to a local fixpoint. Returns the event counts.
pub fn canonicalize(program: &Program, graph: &mut Graph) -> OptStats {
    let mut stats = OptStats::new();
    // Each round is one sweep per sub-pass over the reachable blocks —
    // linear in the graph however many values are replaced or blocks merged
    // (see `fold_insts` and `merge_blocks`). The loop is bounded because
    // every rewrite strictly reduces (insts + branches + blocks) or freezes
    // a call.
    loop {
        let mut changed = false;
        changed |= fold_insts(program, graph, &mut stats);
        changed |= prune_branches(graph, &mut stats);
        changed |= merge_blocks(graph, &mut stats);
        if !changed {
            break;
        }
    }
    stats
}

/// What to do with an instruction after inspection.
enum Rewrite {
    /// Replace the result with an existing value and delete the inst.
    Alias(ValueId),
    /// Replace the inst with a constant op.
    Const(Op),
    /// Swap the operation in place (args unchanged).
    Retarget(Op),
    /// Swap operation and arguments in place.
    Replace(Op, Vec<ValueId>),
    /// `x * 2ᵏ → x << k`: needs a fresh constant for the shift amount.
    MulToShift { x: ValueId, shift: i64 },
}

/// Folds instructions in one sweep. A replaced result is recorded in an
/// alias table instead of being rewritten across the graph on the spot;
/// every instruction's operands are resolved through the table right before
/// `simplify` inspects it, and the terminators once at the end. A use is
/// always visited after the definition it depends on (definitions dominate
/// uses, and the depth-first order visits dominators first), so `simplify`
/// sees exactly the operands eager rewriting would have shown it.
fn fold_insts(program: &Program, graph: &mut Graph, stats: &mut OptStats) -> bool {
    let mut changed = false;
    let mut aliases = Aliases::new();
    let order = Arc::clone(graph.block_order());
    // The block's list is rebuilt as it is swept: rewrites insert and drop
    // instructions without searching or shifting. The old list becomes the
    // next block's new one, so the sweep allocates only to grow a list.
    let mut kept: Vec<InstId> = Vec::new();
    for &block in order.iter() {
        let insts = std::mem::take(graph.insts_mut(block));
        kept.clear();
        kept.reserve(insts.len());
        for &inst in &insts {
            aliases.resolve_all(&mut graph.inst_mut(inst).args);
            let Some((rewrite, bump)) = simplify(program, graph, inst) else {
                kept.push(inst);
                continue;
            };
            apply(graph, &mut aliases, &mut kept, inst, rewrite);
            *bump_field(stats, bump) += 1;
            changed = true;
        }
        *graph.insts_mut(block) = std::mem::replace(&mut kept, insts);
    }
    aliases.apply_to_terminators(graph, &order);
    changed
}

/// Which counter a rewrite increments.
#[derive(Clone, Copy)]
enum Bump {
    ConstFold,
    Strength,
    TypeCheck,
    Devirt,
}

fn bump_field(stats: &mut OptStats, b: Bump) -> &mut u64 {
    match b {
        Bump::ConstFold => &mut stats.const_fold,
        Bump::Strength => &mut stats.strength_red,
        Bump::TypeCheck => &mut stats.typecheck_fold,
        Bump::Devirt => &mut stats.devirt,
    }
}

/// Carries out `rewrite` on `inst`, which the sweep has reached but not
/// yet pushed: `kept` receives what takes its place in the block.
fn apply(
    graph: &mut Graph,
    aliases: &mut Aliases,
    kept: &mut Vec<InstId>,
    inst: InstId,
    rewrite: Rewrite,
) {
    match rewrite {
        Rewrite::Alias(v) => {
            let result = graph.inst(inst).result.expect("aliased inst has a result");
            aliases.record(graph, result, v);
            graph.neutralize_inst(inst);
        }
        Rewrite::Const(op) => {
            let ty = op.const_type().expect("a constant op");
            let k = graph.create_inst(op, vec![], Some(ty));
            kept.push(k);
            let kv = graph.inst(k).result.expect("constant produces a value");
            let result = graph.inst(inst).result.expect("folded inst has a result");
            aliases.record(graph, result, kv);
            graph.neutralize_inst(inst);
        }
        Rewrite::Retarget(op) => {
            graph.inst_mut(inst).op = op;
            kept.push(inst);
        }
        Rewrite::Replace(op, args) => {
            let data = graph.inst_mut(inst);
            data.op = op;
            data.args = args;
            kept.push(inst);
        }
        Rewrite::MulToShift { x, shift } => {
            let k = graph.create_inst(Op::ConstInt(shift), vec![], Some(Type::Int));
            kept.push(k);
            let kv = graph.inst(k).result.expect("constant produces a value");
            let data = graph.inst_mut(inst);
            data.op = Op::Bin(BinOp::IShl);
            data.args = vec![x, kv];
            kept.push(inst);
        }
    }
}

/// Inspects one instruction and proposes a rewrite: [`fold`], then the
/// first row of [`rules`] that holds, then the rewrites that read the
/// program or an operand's defining instruction.
fn simplify(program: &Program, graph: &Graph, inst: InstId) -> Option<(Rewrite, Bump)> {
    let data = graph.inst(inst);
    let arg = |k: usize| data.args[k];
    let folded = |k: Result<Op, TrapKind>| k.ok().map(|k| (Rewrite::Const(k), Bump::ConstFold));
    match &data.op {
        op @ (Op::Bin(_) | Op::Cmp(_)) => {
            let (a, b) = (arg(0), arg(1));
            let pair = Operands {
                a,
                b,
                ka: graph.const_op(a),
                kb: graph.const_op(b),
            };
            if let Some(k) = fold(op, pair.ka, pair.kb) {
                return folded(k);
            }
            let &(_, then, bump) = rules(op).iter().find(|row| pair.holds(row.0, graph))?;
            Some((pair.rewrite(then), bump))
        }
        op @ (Op::Not | Op::INeg | Op::FNeg | Op::IntToFloat | Op::FloatToInt) => {
            let a = arg(0);
            if let Some(k) = fold(op, graph.const_op(a), None) {
                return folded(k);
            }
            let ValueDef::Inst(def) = graph.value(a).def else {
                return None;
            };
            let def = graph.inst(def);
            let rewrite = match (op, &def.op) {
                (Op::Not, Op::Not) | (Op::INeg, Op::INeg) => Rewrite::Alias(def.args[0]),
                (Op::Not, Op::Cmp(c)) => {
                    let inv = match c {
                        CmpOp::IEq => CmpOp::INe,
                        CmpOp::INe => CmpOp::IEq,
                        CmpOp::ILt => CmpOp::IGe,
                        CmpOp::ILe => CmpOp::IGt,
                        CmpOp::IGt => CmpOp::ILe,
                        CmpOp::IGe => CmpOp::ILt,
                        // Float comparisons do not invert under NaN.
                        _ => return None,
                    };
                    Rewrite::Replace(Op::Cmp(inv), def.args.clone())
                }
                _ => return None,
            };
            Some((rewrite, Bump::Strength))
        }
        Op::InstanceOf(class) => {
            let a = arg(0);
            let decided = |k| Some((Rewrite::Const(Op::ConstBool(k)), Bump::TypeCheck));
            if graph.is_const_null(a) {
                return decided(false);
            }
            if let Type::Object(d) = graph.value_type(a) {
                if is_allocation(graph, a) {
                    // Exact dynamic class known.
                    return decided(program.is_subclass(d, *class));
                }
                // If the static class is unrelated to the tested class, no
                // instance can pass (single inheritance).
                if !program.is_subclass(d, *class) && !program.is_subclass(*class, d) {
                    return decided(false);
                }
                // Subtype receivers still might be null; fold only when the
                // value is provably non-null (allocation handled above).
            }
            None
        }
        Op::Cast(class) => {
            let a = arg(0);
            if let Type::Object(d) = graph.value_type(a) {
                if program.is_subclass(d, *class) {
                    // Upcast or identity: statically safe (null passes too).
                    return Some((Rewrite::Alias(a), Bump::TypeCheck));
                }
            }
            let null = Op::ConstNull(Type::Object(*class));
            graph
                .is_const_null(a)
                .then_some((Rewrite::Const(null), Bump::TypeCheck))
        }
        Op::Call(CallInfo {
            target: CallTarget::Virtual(sel),
            site,
        }) => {
            let recv = arg(0);
            let Type::Object(static_class) = graph.value_type(recv) else {
                return None;
            };
            let target = if is_allocation(graph, recv) {
                // Exact receiver class: resolve directly.
                program.resolve(static_class, *sel)
            } else {
                // Class-hierarchy analysis.
                program.resolve_unique(static_class, *sel)
            };
            let target = CallTarget::Static(target?);
            let call = Op::Call(CallInfo {
                target,
                site: *site,
            });
            Some((Rewrite::Retarget(call), Bump::Devirt))
        }
        _ => None,
    }
}

/// Constant-folds `op` through [`eval`] when every operand is a constant:
/// `ka` and `kb` are the constant definitions of its operands, `kb` is
/// `None` for a unary op. `Some(Err(_))`: the fold would trap.
fn fold(op: &Op, ka: Option<&Op>, kb: Option<&Op>) -> Option<Result<Op, TrapKind>> {
    use Op::{ConstBool as Bool, ConstFloat as Float, ConstInt as Int};
    let f = |bits: &u64| f64::from_bits(*bits);
    Some(Ok(match (op, ka?, kb) {
        (Op::Bin(o), Int(x), Some(Int(y))) if !o.is_float() => {
            return Some(eval::eval_int_bin(*o, *x, *y).map(Int));
        }
        (Op::Bin(o), Float(x), Some(Float(y))) if o.is_float() => {
            Float(eval::eval_float_bin(*o, f(x), f(y)).to_bits())
        }
        (Op::Cmp(o), Int(x), Some(Int(y))) if o.operand_kind() == Some(Type::Int) => {
            Bool(eval::eval_int_cmp(*o, *x, *y))
        }
        (Op::Cmp(o), Float(x), Some(Float(y))) if o.operand_kind() == Some(Type::Float) => {
            Bool(eval::eval_float_cmp(*o, f(x), f(y)))
        }
        (Op::Not, Bool(k), None) => Bool(!k),
        (Op::INeg, Int(k), None) => Int(k.wrapping_neg()),
        (Op::FNeg, Float(k), None) => Float((-f(k)).to_bits()),
        (Op::IntToFloat, Int(k), None) => Float(eval::int_to_float(*k).to_bits()),
        (Op::FloatToInt, Float(k), None) => Int(eval::float_to_int(f(k))),
        _ => return None,
    }))
}

/// What a row of [`rules`] asks of the operands `a ⊛ b`.
#[derive(Clone, Copy, Debug)]
enum When {
    /// `a` is the integer constant.
    IntA(i64),
    /// `b` is the integer constant.
    IntB(i64),
    /// `a` is the float constant (compared as a value: `-0.0 == 0.0`).
    FloatA(f64),
    /// `b` is the float constant.
    FloatB(f64),
    /// `a` is an integer constant `2ᵏ`, `k ≥ 1`.
    Pow2A,
    /// `b` is an integer constant `2ᵏ`, `k ≥ 1`.
    Pow2B,
    /// `a` and `b` are one value.
    Same,
    /// Both are null constants.
    BothNull,
    /// One is a null constant, the other a fresh allocation.
    NullAndNew,
}

/// What a row of [`rules`] rewrites `a ⊛ b` to.
#[derive(Clone, Copy, Debug)]
enum Then {
    /// The operand `a`.
    A,
    /// The operand `b`.
    B,
    /// An integer constant.
    Int(i64),
    /// A boolean constant.
    Bool(bool),
    /// `a << k` for `b = 2ᵏ`.
    ShlA,
    /// `b << k` for `a = 2ᵏ`.
    ShlB,
}

/// The two-operand identities of `op` (a `Bin` or `Cmp`), tried in order
/// after [`fold`]; the first row whose [`When`] holds is the rewrite.
fn rules(op: &Op) -> &'static [(When, Then, Bump)] {
    use Bump::{ConstFold as C, Strength as S};
    use Then::{Bool, Int, ShlA, ShlB, A, B};
    use When::*;
    match op {
        Op::Bin(BinOp::IAdd) => &[(IntB(0), A, S), (IntA(0), B, S)],
        Op::Bin(BinOp::ISub) => &[(IntB(0), A, S), (Same, Int(0), S)],
        Op::Bin(BinOp::IMul) => &[
            (IntB(1), A, S),
            (IntA(1), B, S),
            (IntA(0), Int(0), S),
            (IntB(0), Int(0), S),
            (Pow2B, ShlA, S),
            (Pow2A, ShlB, S),
        ],
        Op::Bin(BinOp::IDiv) => &[(IntB(1), A, S)],
        Op::Bin(BinOp::IRem) => &[(IntB(1), Int(0), S)],
        Op::Bin(BinOp::IAnd) => &[(Same, A, S), (IntA(0), Int(0), S), (IntB(0), Int(0), S)],
        Op::Bin(BinOp::IOr) => &[(Same, A, S), (IntB(0), A, S), (IntA(0), B, S)],
        Op::Bin(BinOp::IXor) => &[(Same, Int(0), S), (IntB(0), A, S), (IntA(0), B, S)],
        Op::Bin(BinOp::IShl | BinOp::IShr) => &[(IntB(0), A, S)],
        // x * 1.0 and x / 1.0 are exact in IEEE-754.
        Op::Bin(BinOp::FMul) => &[(FloatB(1.0), A, S), (FloatA(1.0), B, S)],
        Op::Bin(BinOp::FDiv) => &[(FloatB(1.0), A, S)],
        // x ⊛ x is decided for every integer comparison — and for no float
        // one (NaN).
        Op::Cmp(CmpOp::IEq | CmpOp::ILe | CmpOp::IGe) => &[(Same, Bool(true), S)],
        Op::Cmp(CmpOp::INe | CmpOp::ILt | CmpOp::IGt) => &[(Same, Bool(false), S)],
        Op::Cmp(CmpOp::RefEq) => &[
            (Same, Bool(true), S),
            (BothNull, Bool(true), C),
            (NullAndNew, Bool(false), C),
        ],
        _ => &[],
    }
}

/// The operands of a `Bin` or `Cmp` with their constant definitions, looked
/// up once for [`fold`] and every row of [`rules`].
struct Operands<'g> {
    a: ValueId,
    b: ValueId,
    ka: Option<&'g Op>,
    kb: Option<&'g Op>,
}

impl Operands<'_> {
    fn holds(&self, when: When, graph: &Graph) -> bool {
        let int = |k: Option<&Op>| match k {
            Some(&Op::ConstInt(k)) => Some(k),
            _ => None,
        };
        let float = |k: Option<&Op>| match k {
            Some(&Op::ConstFloat(bits)) => Some(f64::from_bits(bits)),
            _ => None,
        };
        let pow2 = |k| int(k).is_some_and(|k| k > 1 && (k as u64).is_power_of_two());
        let null = |k: Option<&Op>| matches!(k, Some(Op::ConstNull(_)));
        let (a, b, ka, kb) = (self.a, self.b, self.ka, self.kb);
        match when {
            When::IntA(k) => int(ka) == Some(k),
            When::IntB(k) => int(kb) == Some(k),
            When::FloatA(k) => float(ka) == Some(k),
            When::FloatB(k) => float(kb) == Some(k),
            When::Pow2A => pow2(ka),
            When::Pow2B => pow2(kb),
            When::Same => a == b,
            When::BothNull => null(ka) && null(kb),
            When::NullAndNew => {
                (null(ka) && is_allocation(graph, b)) || (null(kb) && is_allocation(graph, a))
            }
        }
    }

    fn rewrite(&self, then: Then) -> Rewrite {
        // The `k` of a `Pow2` operand.
        let log2 = |k: Option<&Op>| match k {
            Some(Op::ConstInt(k)) => k.trailing_zeros() as i64,
            _ => unreachable!("a Pow2 row matched a constant"),
        };
        match then {
            Then::A => Rewrite::Alias(self.a),
            Then::B => Rewrite::Alias(self.b),
            Then::Int(k) => Rewrite::Const(Op::ConstInt(k)),
            Then::Bool(k) => Rewrite::Const(Op::ConstBool(k)),
            Then::ShlA => Rewrite::MulToShift {
                x: self.a,
                shift: log2(self.kb),
            },
            Then::ShlB => Rewrite::MulToShift {
                x: self.b,
                shift: log2(self.ka),
            },
        }
    }
}

/// Whether the value is a fresh allocation (its dynamic class equals its
/// static class, and it is non-null).
fn is_allocation(graph: &Graph, v: ValueId) -> bool {
    match graph.value(v).def {
        ValueDef::Inst(i) => matches!(graph.inst(i).op, Op::New(_) | Op::NewArray(_)),
        ValueDef::Param(..) => false,
    }
}

fn prune_branches(graph: &mut Graph, stats: &mut OptStats) -> bool {
    let mut changed = false;
    // The order as it is before the first fold: blocks a fold cuts off are
    // still visited, as they always were.
    let order = Arc::clone(graph.block_order());
    for &block in order.iter() {
        let Terminator::Branch {
            cond,
            then_dest,
            else_dest,
        } = &graph.block(block).term
        else {
            continue;
        };
        // Which arm survives: the taken one under a known condition, either
        // when both arms are the same edge.
        let take_then = match graph.as_const_bool(*cond) {
            Some(k) => k,
            None if then_dest == else_dest => true,
            None => continue,
        };
        graph.fold_branch(block, take_then);
        stats.branch_prune += 1;
        changed = true;
    }
    changed
}

/// Splices every single-predecessor jump chain into its head, in one sweep.
///
/// A block is *absorbable* when it is not the entry, has exactly one
/// incoming edge (a branch with both arms on it counts twice), and that
/// edge is a jump from another block. Merging does not change who is
/// absorbable — the head takes over the absorbed block's outgoing edges one
/// for one — so the predecessor counts are taken once, and the result does
/// not depend on the order of the merges: every maximal chain ends up in
/// its head, instructions in chain order. Each chain is followed from its
/// head, which the depth-first order reaches before its members. The
/// absorbed blocks' parameters are replaced by the jump arguments through
/// one alias table, applied in one closing sweep.
fn merge_blocks(graph: &mut Graph, stats: &mut OptStats) -> bool {
    let order = Arc::clone(graph.block_order());
    let mut incoming = vec![0u32; graph.block_count()];
    for &b in order.iter() {
        for s in graph.block(b).term.successors() {
            incoming[s.index()] += 1;
        }
    }
    let entry = graph.entry();
    let mut aliases = Aliases::new();
    let mut absorbed = vec![false; graph.block_count()];
    let mut merged = false;
    for &head in order.iter() {
        if absorbed[head.index()] {
            continue;
        }
        while let Terminator::Jump(succ, _) = graph.block(head).term {
            if succ == head || succ == entry || incoming[succ.index()] != 1 {
                break;
            }
            // Splice `succ` into `head`.
            let (succ_insts, succ_term) = {
                let sd = graph.block_mut(succ);
                (
                    std::mem::take(&mut sd.insts),
                    std::mem::replace(&mut sd.term, Terminator::Unterminated),
                )
            };
            let Terminator::Jump(_, args) =
                std::mem::replace(&mut graph.block_mut(head).term, succ_term)
            else {
                unreachable!("matched a jump above")
            };
            for (&param, &arg) in graph.block(succ).params.iter().zip(&args) {
                aliases.record(graph, param, arg);
            }
            graph.block_mut(head).insts.extend(succ_insts);
            absorbed[succ.index()] = true;
            stats.blocks_merged += 1;
            merged = true;
        }
    }
    if merged {
        let survivors: Vec<BlockId> = order
            .iter()
            .copied()
            .filter(|b| !absorbed[b.index()])
            .collect();
        aliases.apply(graph, &survivors);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::types::RetType;
    use incline_ir::verify::verify_graph;
    use incline_ir::Rng64;

    fn opt(program: &Program, graph: &mut Graph) -> OptStats {
        let stats = canonicalize(program, graph);
        // Every canonicalization must preserve verifiability; params here
        // are whatever the entry block declares.
        let params: Vec<Type> = graph
            .block(graph.entry())
            .params
            .iter()
            .map(|&p| graph.value_type(p))
            .collect();
        verify_graph(program, graph, &params, infer_ret(graph))
            .expect("canonicalized graph verifies");
        stats
    }

    /// Infers a usable return type from any reachable return terminator.
    fn infer_ret(graph: &Graph) -> RetType {
        for b in graph.reachable_blocks() {
            if let Terminator::Return(v) = &graph.block(b).term {
                return match v {
                    Some(v) => RetType::Value(graph.value_type(*v)),
                    None => RetType::Void,
                };
            }
        }
        RetType::Void
    }

    #[test]
    fn folds_constant_arithmetic() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let a = fb.const_int(6);
        let b = fb.const_int(7);
        let r = fb.imul(a, b);
        fb.ret(Some(r));
        let mut g = fb.finish();
        let stats = opt(&p, &mut g);
        assert_eq!(stats.const_fold, 1);
        // The returned value is now a constant 42.
        let Terminator::Return(Some(v)) = g.block(g.entry()).term.clone() else {
            panic!()
        };
        assert_eq!(g.as_const_int(v), Some(42));
    }

    #[test]
    fn strength_reduces_identities() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let zero = fb.const_int(0);
        let one = fb.const_int(1);
        let a = fb.iadd(x, zero); // → x
        let b = fb.imul(a, one); // → x
        let c = fb.isub(b, b); // → 0
        let r = fb.iadd(x, c); // → x
        fb.ret(Some(r));
        let mut g = fb.finish();
        let stats = opt(&p, &mut g);
        assert!(stats.strength_red >= 3, "{stats:?}");
        let Terminator::Return(Some(v)) = g.block(g.entry()).term.clone() else {
            panic!()
        };
        assert_eq!(v, x);
    }

    #[test]
    fn prunes_constant_branch_and_merges() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let c = fb.const_bool(true);
        let t = fb.add_block();
        let e = fb.add_block();
        fb.branch(c, (t, vec![]), (e, vec![]));
        fb.switch_to(t);
        let one = fb.const_int(1);
        fb.ret(Some(one));
        fb.switch_to(e);
        let two = fb.const_int(2);
        fb.ret(Some(two));
        let mut g = fb.finish();
        let stats = opt(&p, &mut g);
        assert_eq!(stats.branch_prune, 1);
        assert!(stats.blocks_merged >= 1);
        // Everything collapsed into the entry block.
        assert_eq!(g.reachable_blocks().len(), 1);
    }

    #[test]
    fn folds_instanceof_on_allocation() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let b = p.add_class("B", Some(a));
        let m = p.declare_function("f", vec![], Type::Bool);
        let mut fb = FunctionBuilder::new(&p, m);
        let obj = fb.new_object(b);
        let t = fb.instance_of(a, obj); // B <: A → true
        fb.ret(Some(t));
        let mut g = fb.finish();
        let stats = opt(&p, &mut g);
        assert_eq!(stats.typecheck_fold, 1);
        let Terminator::Return(Some(v)) = g.block(g.entry()).term.clone() else {
            panic!()
        };
        assert_eq!(g.as_const_bool(v), Some(true));
    }

    #[test]
    fn folds_unrelated_instanceof_to_false() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let _b = p.add_class("B", Some(a));
        let c = p.add_class("C", Some(a));
        let m = p.declare_function("f", vec![Type::Object(c)], Type::Bool);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let b_class = p.class_by_name("B").unwrap();
        let t = fb.instance_of(b_class, x); // C unrelated to B → false
        fb.ret(Some(t));
        let mut g = fb.finish();
        let stats = opt(&p, &mut g);
        assert_eq!(stats.typecheck_fold, 1);
    }

    #[test]
    fn removes_safe_upcast() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let b = p.add_class("B", Some(a));
        let m = p.declare_function("f", vec![Type::Object(b)], Type::Object(a));
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let c = fb.cast(a, x);
        fb.ret(Some(c));
        let mut g = fb.finish();
        let stats = opt(&p, &mut g);
        assert_eq!(stats.typecheck_fold, 1);
        let Terminator::Return(Some(v)) = g.block(g.entry()).term.clone() else {
            panic!()
        };
        assert_eq!(v, x);
    }

    #[test]
    fn devirtualizes_exact_receiver() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let b = p.add_class("B", Some(a));
        let ma = p.declare_method(a, "run", vec![], Type::Int);
        let mb = p.declare_method(b, "run", vec![], Type::Int);
        for m in [ma, mb] {
            let mut fb = FunctionBuilder::new(&p, m);
            let k = fb.const_int(if m == ma { 1 } else { 2 });
            fb.ret(Some(k));
            let g = fb.finish();
            p.define_method(m, g);
        }
        let f = p.declare_function("f", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, f);
        let obj = fb.new_object(b);
        let sel = fb.program().selector_by_name("run", 1).unwrap();
        let r = fb.call_virtual(sel, vec![obj]).unwrap();
        fb.ret(Some(r));
        let mut g = fb.finish();
        let stats = opt(&p, &mut g);
        assert_eq!(stats.devirt, 1);
        let (_, call) = g.callsites()[0];
        let Op::Call(info) = &g.inst(call).op else {
            panic!()
        };
        assert_eq!(info.target, CallTarget::Static(mb));
    }

    #[test]
    fn devirtualizes_by_cha_when_no_override() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let _b = p.add_class("B", Some(a));
        let ma = p.declare_method(a, "run", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, ma);
        let k = fb.const_int(1);
        fb.ret(Some(k));
        let g = fb.finish();
        p.define_method(ma, g);
        let f = p.declare_function("f", vec![Type::Object(a)], Type::Int);
        let mut fb = FunctionBuilder::new(&p, f);
        let recv = fb.param(0);
        let sel = fb.program().selector_by_name("run", 1).unwrap();
        let r = fb.call_virtual(sel, vec![recv]).unwrap();
        fb.ret(Some(r));
        let mut g = fb.finish();
        let stats = opt(&p, &mut g);
        assert_eq!(
            stats.devirt, 1,
            "CHA should devirtualize: no subclass overrides"
        );
    }

    #[test]
    fn inverts_not_of_comparison() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int, Type::Int], Type::Bool);
        let mut fb = FunctionBuilder::new(&p, m);
        let (a, b) = (fb.param(0), fb.param(1));
        let lt = fb.cmp(CmpOp::ILt, a, b);
        let ge = fb.not(lt);
        fb.ret(Some(ge));
        let mut g = fb.finish();
        let stats = opt(&p, &mut g);
        assert!(stats.strength_red >= 1);
        // The `not` collapsed into an IGe comparison.
        let has_ge = g
            .reachable_blocks()
            .iter()
            .flat_map(|&b| g.block(b).insts.clone())
            .any(|i| matches!(g.inst(i).op, Op::Cmp(CmpOp::IGe)));
        assert!(has_ge);
    }

    #[test]
    fn nan_float_self_compare_not_folded() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Float], Type::Bool);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let eq = fb.cmp(CmpOp::FEq, x, x);
        fb.ret(Some(eq));
        let mut g = fb.finish();
        let stats = opt(&p, &mut g);
        assert_eq!(
            stats.const_fold + stats.strength_red,
            0,
            "x==x must survive for floats"
        );
    }

    /// Every row of `rules` is an identity of `eval` (through `fold`): for
    /// operands that satisfy its `When`, `a ⊛ b` evaluates to what its
    /// `Then` names. Integer rows draw 256 seeded pairs — the constrained
    /// operand is the row's constant, `2ᵏ` for k in 1..=62, or the other
    /// operand; float rows run over a list of awkward values, NaN equal to
    /// NaN. `refeq` has no `eval`: its rows are covered by the graph-level
    /// tests.
    #[test]
    fn every_rule_is_an_identity_of_eval() {
        use BinOp::*;
        use CmpOp::*;
        let (int, float) = (Op::ConstInt, |v: f64| Op::ConstFloat(v.to_bits()));
        let floats = [0.0, -0.0, 1.0, -1.0, 2.5, f64::MAX, f64::MIN_POSITIVE / 8.0]
            .into_iter()
            .chain([f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
        let bins = [IAdd, ISub, IMul, IDiv, IRem, IAnd, IOr, IXor, IShl, IShr];
        let bins = bins
            .into_iter()
            .chain([FAdd, FSub, FMul, FDiv])
            .map(Op::Bin);
        let cmps = [IEq, INe, ILt, ILe, IGt, IGe, FEq, FLt, FLe].map(Op::Cmp);
        let nan = |k: &Option<Result<Op, TrapKind>>| matches!(k, Some(Ok(Op::ConstFloat(bits))) if f64::from_bits(*bits).is_nan());
        let mut rng = Rng64::new(0xca_2019);
        let mut rows = 0;
        for op in bins.chain(cmps) {
            for &(when, then, _) in rules(&op) {
                rows += 1;
                let pairs: Vec<(Op, Op)> = match when {
                    When::FloatA(k) => floats.clone().map(|y| (float(k), float(y))).collect(),
                    When::FloatB(k) => floats.clone().map(|y| (float(y), float(k))).collect(),
                    _ => (0..256)
                        .map(|i| {
                            let x = match i % 4 {
                                0 => rng.gen_range(-4, 5),
                                _ => rng.next_u64() as i64,
                            };
                            let p = 1 << rng.gen_range(1, 63);
                            match when {
                                When::IntA(k) => (int(k), int(x)),
                                When::IntB(k) => (int(x), int(k)),
                                When::Pow2A => (int(p), int(x)),
                                When::Pow2B => (int(x), int(p)),
                                When::Same => (int(x), int(x)),
                                other => unreachable!("{other:?} is a refeq row"),
                            }
                        })
                        .collect(),
                };
                for (a, b) in pairs {
                    let shl = |x: &Op, p: &Op| {
                        let Op::ConstInt(p) = p else { unreachable!() };
                        fold(
                            &Op::Bin(IShl),
                            Some(x),
                            Some(&int(p.trailing_zeros() as i64)),
                        )
                    };
                    let want = match then {
                        Then::A => Some(Ok(a.clone())),
                        Then::B => Some(Ok(b.clone())),
                        Then::Int(k) => Some(Ok(int(k))),
                        Then::Bool(k) => Some(Ok(Op::ConstBool(k))),
                        Then::ShlA => shl(&a, &b),
                        Then::ShlB => shl(&b, &a),
                    };
                    let got = fold(&op, Some(&a), Some(&b));
                    assert!(
                        got == want || (nan(&got) && nan(&want)),
                        "{op:?}: ({when:?}, {then:?}) at ({a:?}, {b:?}) gives {got:?}, not {want:?}"
                    );
                }
            }
        }
        assert_eq!(rows, 32, "every row but refeq's three");
    }

    #[test]
    fn trap_division_not_folded() {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let a = fb.const_int(1);
        let z = fb.const_int(0);
        let d = fb.binop(BinOp::IDiv, a, z);
        fb.ret(Some(d));
        let mut g = fb.finish();
        let stats = opt(&p, &mut g);
        assert_eq!(stats.const_fold, 0, "division by zero must be preserved");
        assert!(g
            .reachable_blocks()
            .iter()
            .flat_map(|&b| g.block(b).insts.clone())
            .any(|i| matches!(g.inst(i).op, Op::Bin(BinOp::IDiv))));
    }

    /// Hostile shape: `links` blocks in a row, each handing its parameter to
    /// the next. Every rewrite that restarts or rescans per merged block is
    /// quadratic here (the one-merge-per-CFG-rebuild `merge_blocks` took
    /// 1 s at 4 000 blocks in release); finishing inside the test run is the
    /// gate.
    #[test]
    fn merges_a_20_000_block_jump_chain_in_one_sweep() {
        const LINKS: usize = 20_000;
        let p = Program::new();
        let mut g = Graph::empty();
        let x = g.add_block_param(g.entry(), Type::Int);
        let (mut block, mut carried) = (g.entry(), x);
        for _ in 0..LINKS {
            let next = g.add_block();
            let param = g.add_block_param(next, Type::Int);
            g.set_terminator(block, Terminator::Jump(next, vec![carried]));
            (block, carried) = (next, param);
        }
        g.set_terminator(block, Terminator::Return(Some(carried)));

        let stats = opt(&p, &mut g);
        assert_eq!(stats.blocks_merged, LINKS as u64);
        assert_eq!(g.reachable_blocks(), vec![g.entry()]);
        // Every parameter along the chain resolved to the one value that
        // entered it.
        assert_eq!(g.block(g.entry()).term, Terminator::Return(Some(x)));
    }

    /// Hostile shape: `v1 = x + 0; v2 = v1 + 0; …` in one block. Each link
    /// is an alias; rewriting all uses per alias (and splicing the dead
    /// instruction out of the block's list) scanned the whole block per
    /// link — 0.5 s at 20 000 links in release.
    #[test]
    fn folds_a_100_000_long_alias_chain_in_one_sweep() {
        const LINKS: usize = 100_000;
        let p = Program::new();
        let mut g = Graph::empty();
        let e = g.entry();
        let x = g.add_block_param(e, Type::Int);
        let zero = g.append(e, Op::ConstInt(0), vec![], Some(Type::Int)).1;
        let zero = zero.expect("a constant has a result");
        let mut v = x;
        for _ in 0..LINKS {
            let (_, r) = g.append(e, Op::Bin(BinOp::IAdd), vec![v, zero], Some(Type::Int));
            v = r.expect("an add has a result");
        }
        g.set_terminator(e, Terminator::Return(Some(v)));

        let stats = opt(&p, &mut g);
        assert_eq!(stats.strength_red, LINKS as u64);
        assert_eq!(g.block(e).term, Terminator::Return(Some(x)));
        assert_eq!(g.block(e).insts.len(), 1, "only the constant is left");
    }

    /// Hostile shape for the cached block order: a ladder of 5 000 diamonds
    /// on a constant condition. One `prune_branches` sweep folds 5 000
    /// branches and the next `merge_blocks` splices the whole chain; every
    /// one of those edits drops the graph's cached analyses. A sweep that
    /// asked for the order again after each of its own edits would walk
    /// 15 000 blocks 15 000 times — the sweep holds the order it started
    /// with, and the edits cost one walk afterwards.
    #[test]
    fn prunes_and_splices_a_5_000_rung_constant_ladder() {
        const RUNGS: usize = 5_000;
        let p = Program::new();
        let mut g = Graph::empty();
        let x = g.add_block_param(g.entry(), Type::Int);
        let c = g.append(g.entry(), Op::ConstBool(true), vec![], Some(Type::Bool));
        let c = c.1.expect("a constant has a result");
        let mut head = g.entry();
        for _ in 0..RUNGS {
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
            head = join;
        }
        g.set_terminator(head, Terminator::Return(Some(x)));
        assert_eq!(g.block_order().len(), 3 * RUNGS + 1);

        let stats = opt(&p, &mut g);
        assert_eq!(stats.branch_prune, RUNGS as u64);
        assert_eq!(stats.blocks_merged, 2 * RUNGS as u64);
        assert_eq!(g.block_order()[..], [g.entry()]);
        assert_eq!(g.block(g.entry()).term, Terminator::Return(Some(x)));
    }

    /// A branch whose arms are the same edge counts twice among the
    /// target's incoming edges, so the target is not absorbed while the
    /// branch stands — and is, in the same call, once the branch is pruned
    /// to a jump.
    #[test]
    fn a_both_arms_branch_is_two_incoming_edges() {
        let p = Program::new();
        let mut g = Graph::empty();
        let e = g.entry();
        let c = g.add_block_param(e, Type::Bool);
        let join = g.add_block();
        g.set_terminator(
            e,
            Terminator::Branch {
                cond: c,
                then_dest: (join, vec![]),
                else_dest: (join, vec![]),
            },
        );
        g.set_terminator(join, Terminator::Return(None));
        let mut stats = OptStats::new();
        assert!(!merge_blocks(&mut g, &mut stats), "two edges, no merge");
        let stats = opt(&p, &mut g);
        assert_eq!((stats.branch_prune, stats.blocks_merged), (1, 1));
    }
}
