//! Read–write elimination (paper §IV, *Other optimizations*).
//!
//! Forwards stored values to subsequent loads of the same location,
//! folds loads from fresh allocations to their zero-initialized defaults,
//! and deletes stores to fresh objects that are overwritten before being
//! read. The paper applies this "at the end of every round" because it
//! restores receiver type information that round-tripped through memory —
//! the forwarded value carries its precise static type, unlike the field.
//!
//! The analysis is per basic block (the canonicalizer's block merging turns
//! straight-line regions into single blocks first) and is trap-aware: a
//! load is only removed when a preceding successful access proves the base
//! non-null and, for arrays, the index in-bounds.

use std::sync::Arc;

use incline_ir::graph::Op;
use incline_ir::ids::{BlockId, FieldId, InstId, ValueId};
use incline_ir::types::Type;
use incline_ir::{Graph, Program};

use crate::alias::Aliases;
use crate::hash::{FastMap, FastSet};
use crate::stats::OptStats;

/// Runs read–write elimination; returns counts (`stats.rw_elim`).
pub fn rw_elim(program: &Program, graph: &mut Graph) -> OptStats {
    let mut stats = OptStats::new();
    let order = Arc::clone(graph.block_order());
    // Forwarded loads are replaced through one alias table: a block's
    // operands are brought up to date before it is planned, everything
    // else in one closing sweep.
    let mut aliases = Aliases::new();
    for &block in order.iter() {
        aliases.apply_to_insts(graph, block);
        let mut edits = plan_block(program, graph, block);
        if edits.is_empty() {
            continue;
        }
        stats.rw_elim += edits.len() as u64;
        // Dead stores are discovered at the store that overwrites them, so
        // the plan is not in block order; the sweep below needs it to be.
        edits.sort_by_key(|&(pos, _)| pos);
        let mut edits = edits.into_iter().peekable();
        let insts = std::mem::take(graph.insts_mut(block));
        let mut kept: Vec<InstId> = Vec::with_capacity(insts.len());
        for (pos, inst) in insts.into_iter().enumerate() {
            let Some((_, edit)) = edits.next_if(|&(at, _)| at == pos) else {
                kept.push(inst);
                continue;
            };
            match edit {
                Edit::Forward(v) => {
                    let r = graph.inst(inst).result.expect("load has a result");
                    aliases.record(graph, r, v);
                }
                Edit::Default(ty) => {
                    let k = graph.create_inst(zero_default(ty), vec![], Some(ty));
                    kept.push(k);
                    let kv = graph.inst(k).result.expect("const has a result");
                    let r = graph.inst(inst).result.expect("load has a result");
                    aliases.record(graph, r, kv);
                }
                Edit::RemoveStore => {}
            }
            graph.neutralize_inst(inst);
        }
        *graph.insts_mut(block) = kept;
    }
    aliases.apply(graph, &order);
    stats
}

/// What to do with the instruction at a position of the planned block.
enum Edit {
    /// Replace the load's result with a value and remove the load.
    Forward(ValueId),
    /// Replace the load with a zero-default constant.
    Default(Type),
    /// Remove a dead store.
    RemoveStore,
}

fn zero_default(ty: Type) -> Op {
    match ty {
        Type::Int => Op::ConstInt(0),
        Type::Float => Op::ConstFloat(0f64.to_bits()),
        Type::Bool => Op::ConstBool(false),
        t @ (Type::Object(_) | Type::Array(_)) => Op::ConstNull(t),
    }
}

/// Plans one block: `(position in the block, edit)` pairs, loads in block
/// order, dead stores where their overwriting store was met.
fn plan_block(program: &Program, graph: &Graph, block: BlockId) -> Vec<(usize, Edit)> {
    // Forward-scan state.
    let mut known_fields: FastMap<(ValueId, FieldId), ValueId> = FastMap::default();
    let mut known_elems: FastMap<(ValueId, ValueId), ValueId> = FastMap::default();
    // Fresh allocations made in this block that have not escaped.
    let mut fresh: FastSet<ValueId> = FastSet::default();
    // Stores into fresh objects not yet observed by any read, by position.
    let mut pending_store: FastMap<(ValueId, FieldId), usize> = FastMap::default();
    // Fields of fresh objects written at least once (zero-default is gone).
    let mut written: FastSet<(ValueId, FieldId)> = FastSet::default();
    let mut edits: Vec<(usize, Edit)> = Vec::new();

    for (pos, &inst) in graph.block(block).insts.iter().enumerate() {
        let data = graph.inst(inst);
        match &data.op {
            Op::New(_) => {
                if let Some(r) = data.result {
                    fresh.insert(r);
                }
            }
            Op::GetField(f) => {
                let base = data.args[0];
                if let Some(&v) = known_fields.get(&(base, *f)) {
                    edits.push((pos, Edit::Forward(v)));
                    continue;
                }
                if fresh.contains(&base) && !written.contains(&(base, *f)) {
                    // Zero-initialized and never written: fold to default.
                    // Fresh bases are non-null, so no trap is lost.
                    edits.push((pos, Edit::Default(program.field(*f).ty)));
                    continue;
                }
                // The load observes memory: stores of this field are live.
                pending_store.retain(|&(_, pf), _| pf != *f);
                if let Some(r) = data.result {
                    // A successful load proves the base non-null; remember
                    // the loaded value for forwarding.
                    known_fields.insert((base, *f), r);
                }
            }
            Op::SetField(f) => {
                let base = data.args[0];
                let value = data.args[1];
                if fresh.contains(&base) {
                    if let Some(prev) = pending_store.remove(&(base, *f)) {
                        // Overwritten before any read; the base is fresh,
                        // so the removed store cannot have trapped.
                        edits.push((prev, Edit::RemoveStore));
                    }
                    pending_store.insert((base, *f), pos);
                } else {
                    // An unknown base may alias any non-fresh object:
                    // forget this field for other non-fresh bases.
                    known_fields.retain(|&(b, kf), _| kf != *f || b == base || fresh.contains(&b));
                }
                written.insert((base, *f));
                known_fields.insert((base, *f), value);
                // The stored value escapes into the heap.
                if fresh.remove(&value) {
                    pending_store.retain(|&(b, _), _| b != value);
                }
            }
            Op::ArrayGet => {
                let (arr, idx) = (data.args[0], data.args[1]);
                if let Some(&v) = known_elems.get(&(arr, idx)) {
                    edits.push((pos, Edit::Forward(v)));
                    continue;
                }
                if let Some(r) = data.result {
                    known_elems.insert((arr, idx), r);
                }
            }
            Op::ArraySet => {
                let (arr, idx, value) = (data.args[0], data.args[1], data.args[2]);
                // A store may alias entries of other arrays (and other
                // indices of this one when index values differ).
                known_elems.retain(|&(a, i), _| a == arr && i == idx);
                known_elems.insert((arr, idx), value);
                if fresh.remove(&value) {
                    pending_store.retain(|&(b, _), _| b != value);
                }
            }
            Op::Call(_) => {
                // The callee may read or write anything; arguments escape.
                known_fields.clear();
                known_elems.clear();
                pending_store.clear();
                fresh.clear();
                written.clear();
            }
            _ => {
                // Other uses (print, cast, instanceof, refeq, …) let fresh
                // objects escape conservatively.
                for a in &data.args {
                    if fresh.remove(a) {
                        pending_store.retain(|&(b, _), _| b != *a);
                    }
                }
            }
        }
    }
    edits
}

#[cfg(test)]
mod tests {
    use super::*;
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::types::RetType;
    use incline_ir::verify::verify_graph;

    fn box_class(p: &mut Program) -> (incline_ir::ClassId, FieldId) {
        let c = p.add_class("Box", None);
        let f = p.add_field(c, "v", Type::Int);
        (c, f)
    }

    #[test]
    fn forwards_store_to_load() {
        let mut p = Program::new();
        let (c, f) = box_class(&mut p);
        let m = p.declare_function("f", vec![Type::Object(c), Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let (obj, x) = (fb.param(0), fb.param(1));
        fb.set_field(f, obj, x);
        let l = fb.get_field(f, obj);
        fb.ret(Some(l));
        let mut g = fb.finish();
        let stats = rw_elim(&p, &mut g);
        assert_eq!(stats.rw_elim, 1);
        // The load is gone; the return reads the stored value directly.
        let incline_ir::Terminator::Return(Some(v)) = g.block(g.entry()).term.clone() else {
            panic!()
        };
        assert_eq!(v, x);
        verify_graph(
            &p,
            &g,
            &[Type::Object(c), Type::Int],
            RetType::Value(Type::Int),
        )
        .unwrap();
    }

    #[test]
    fn forwards_load_to_load() {
        let mut p = Program::new();
        let (c, f) = box_class(&mut p);
        let m = p.declare_function("f", vec![Type::Object(c)], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let obj = fb.param(0);
        let l1 = fb.get_field(f, obj);
        let l2 = fb.get_field(f, obj);
        let r = fb.iadd(l1, l2);
        fb.ret(Some(r));
        let mut g = fb.finish();
        let stats = rw_elim(&p, &mut g);
        assert_eq!(stats.rw_elim, 1);
        verify_graph(&p, &g, &[Type::Object(c)], RetType::Value(Type::Int)).unwrap();
    }

    #[test]
    fn folds_fresh_object_default() {
        let mut p = Program::new();
        let (c, f) = box_class(&mut p);
        let m = p.declare_function("f", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let obj = fb.new_object(c);
        let l = fb.get_field(f, obj); // zero-initialized
        fb.ret(Some(l));
        let mut g = fb.finish();
        let stats = rw_elim(&p, &mut g);
        assert_eq!(stats.rw_elim, 1);
        let incline_ir::Terminator::Return(Some(v)) = g.block(g.entry()).term.clone() else {
            panic!()
        };
        assert_eq!(g.as_const_int(v), Some(0));
    }

    #[test]
    fn removes_dead_store_to_fresh_object() {
        let mut p = Program::new();
        let (c, f) = box_class(&mut p);
        let m = p.declare_function("f", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let obj = fb.new_object(c);
        let one = fb.const_int(1);
        fb.set_field(f, obj, one); // dead: overwritten before any read
        fb.set_field(f, obj, x);
        let l = fb.get_field(f, obj);
        fb.ret(Some(l));
        let mut g = fb.finish();
        let stats = rw_elim(&p, &mut g);
        assert_eq!(stats.rw_elim, 2); // dead store + forwarded load
        verify_graph(&p, &g, &[Type::Int], RetType::Value(Type::Int)).unwrap();
    }

    #[test]
    fn store_through_unknown_base_invalidates() {
        let mut p = Program::new();
        let (c, f) = box_class(&mut p);
        let m = p.declare_function(
            "f",
            vec![Type::Object(c), Type::Object(c), Type::Int],
            Type::Int,
        );
        let mut fb = FunctionBuilder::new(&p, m);
        let (a, b, x) = (fb.param(0), fb.param(1), fb.param(2));
        let l1 = fb.get_field(f, a);
        fb.set_field(f, b, x); // may alias `a`
        let l2 = fb.get_field(f, a); // must NOT be forwarded from l1
        let r = fb.iadd(l1, l2);
        fb.ret(Some(r));
        let mut g = fb.finish();
        let stats = rw_elim(&p, &mut g);
        assert_eq!(stats.rw_elim, 0, "aliasing store must block forwarding");
    }

    #[test]
    fn call_invalidates_everything() {
        let mut p = Program::new();
        let (c, f) = box_class(&mut p);
        let callee = p.declare_function("mutate", vec![Type::Object(c)], RetType::Void);
        let m = p.declare_function("f", vec![Type::Object(c), Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let (obj, x) = (fb.param(0), fb.param(1));
        fb.set_field(f, obj, x);
        fb.call_static(callee, vec![obj]);
        let l = fb.get_field(f, obj); // must reload after the call
        fb.ret(Some(l));
        let mut g = fb.finish();
        let stats = rw_elim(&p, &mut g);
        assert_eq!(stats.rw_elim, 0);
    }

    #[test]
    fn array_store_forwarded_same_index() {
        let mut p = Program::new();
        let m = p.declare_function(
            "f",
            vec![Type::Array(incline_ir::ElemType::Int), Type::Int],
            Type::Int,
        );
        let mut fb = FunctionBuilder::new(&p, m);
        let (arr, x) = (fb.param(0), fb.param(1));
        let zero = fb.const_int(0);
        fb.array_set(arr, zero, x);
        let l = fb.array_get(arr, zero);
        fb.ret(Some(l));
        let mut g = fb.finish();
        let stats = rw_elim(&p, &mut g);
        assert_eq!(stats.rw_elim, 1);
    }

    #[test]
    fn array_store_other_index_blocks() {
        let mut p = Program::new();
        let m = p.declare_function(
            "f",
            vec![Type::Array(incline_ir::ElemType::Int), Type::Int, Type::Int],
            Type::Int,
        );
        let mut fb = FunctionBuilder::new(&p, m);
        let (arr, i, x) = (fb.param(0), fb.param(1), fb.param(2));
        let zero = fb.const_int(0);
        fb.array_set(arr, zero, x);
        fb.array_set(arr, i, x); // i might be 0
        let l = fb.array_get(arr, zero);
        fb.ret(Some(l));
        let mut g = fb.finish();
        let stats = rw_elim(&p, &mut g);
        assert_eq!(stats.rw_elim, 0);
    }

    #[test]
    fn escaped_fresh_object_keeps_stores() {
        let mut p = Program::new();
        let (c, f) = box_class(&mut p);
        let sink = p.declare_function("sink", vec![Type::Object(c)], RetType::Void);
        let m = p.declare_function("f", vec![Type::Int], RetType::Void);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let obj = fb.new_object(c);
        let one = fb.const_int(1);
        fb.set_field(f, obj, one);
        fb.call_static(sink, vec![obj]); // obj escapes; callee may read
        fb.set_field(f, obj, x);
        fb.ret(None);
        let mut g = fb.finish();
        let stats = rw_elim(&p, &mut g);
        assert_eq!(stats.rw_elim, 0, "store before escape is observable");
    }

    /// A load forwarded to an earlier load may itself be what a later store
    /// wrote and a still later load reads back: the second forward must
    /// land on the surviving value, not on the load the first one deleted.
    #[test]
    fn forwards_through_a_forwarded_load() {
        let mut p = Program::new();
        let (c, f) = box_class(&mut p);
        let m = p.declare_function("f", vec![Type::Object(c), Type::Object(c)], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let (a, b) = (fb.param(0), fb.param(1));
        let l1 = fb.get_field(f, a);
        let l2 = fb.get_field(f, a); // forwarded to l1
        fb.set_field(f, b, l2);
        let l3 = fb.get_field(f, b); // forwarded to what the store wrote
        fb.ret(Some(l3));
        let mut g = fb.finish();
        let stats = rw_elim(&p, &mut g);
        assert_eq!(stats.rw_elim, 2);
        let incline_ir::Terminator::Return(Some(v)) = g.block(g.entry()).term.clone() else {
            panic!()
        };
        assert_eq!(v, l1);
        verify_graph(
            &p,
            &g,
            &[Type::Object(c), Type::Object(c)],
            RetType::Value(Type::Int),
        )
        .unwrap();
    }
}
