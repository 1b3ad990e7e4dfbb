//! Multi-tenant program mixes for the server simulation.
//!
//! The server harness (`incline_vm::server`) runs *N* tenants on one
//! shared machine, so all tenant entry points must live in **one**
//! [`Program`]. [`build`] assembles that program from three archetypes,
//! cycling per tenant with seeded variation:
//!
//! * **dispatch** — a `phase_change`-style virtual-dispatch loop whose
//!   receiver class depends on the phase, so a mid-run flip invalidates
//!   monomorphic speculation;
//! * **registry** — a `cache_pressure`-style group registry whose hot
//!   half rotates with the phase, churning the bounded code cache;
//! * **kernel** — a static-call arithmetic kernel that switches helper
//!   chains with the phase, re-steering the inliner's cluster choice.
//!
//! Every entry has signature `fn(Int) -> Int` and encodes its phase in
//! the argument: `x < pivot` is phase A with trip count `x`, `x ≥ pivot`
//! is phase B with trip count `x - pivot`. The server decides *when* to
//! flip (per-tenant `flip_after`); the program decides *what* a flip
//! means. This crate depends only on `incline-ir`, so tenants are plain
//! [`TenantInfo`] data — the bench crate converts them into VM-level
//! tenant specs.

use incline_ir::builder::FunctionBuilder;
use incline_ir::{BinOp, CmpOp, MethodId, Program, Rng64, Type, ValueId};

use crate::util::{counted_loop, if_else};

/// Phase pivot shared by every generated tenant entry: arguments below it
/// are phase A, arguments at or above it are phase B with the pivot
/// subtracted off. Far larger than any realistic trip count.
pub const PHASE_PIVOT: i64 = 1 << 20;

/// One tenant of a generated mix — plain data, convertible into the VM's
/// tenant spec by the bench crate.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantInfo {
    /// Tenant name (`"t0_dispatch"`, `"t1_registry"`, …).
    pub name: String,
    /// Entry method inside the shared program, `fn(Int) -> Int`.
    pub entry: MethodId,
    /// Relative traffic weight.
    pub weight: u32,
    /// Phase-A entry argument (the per-request trip count).
    pub work: i64,
    /// Phase pivot (always [`PHASE_PIVOT`] for generated tenants).
    pub pivot: i64,
    /// Fraction of the tenant's requests served before its phase flip.
    pub flip_after: f64,
}

/// A generated multi-tenant mix: one shared program plus tenant metadata.
#[derive(Clone, Debug)]
pub struct TenantMix {
    /// The shared program holding every tenant's methods.
    pub program: Program,
    /// Per-tenant metadata, in generation order.
    pub tenants: Vec<TenantInfo>,
}

impl TenantMix {
    /// Verifies every method of the shared program, panicking on the
    /// first failure (mirrors `Workload::verify_all`).
    pub fn verify_all(&self) {
        for m in self.program.method_ids() {
            let method = self.program.method(m);
            if let Err(e) = incline_ir::verify::verify(&self.program, method) {
                panic!("tenant mix: method {} fails to verify: {e}", method.name);
            }
        }
    }
}

/// Builds a mix of `count` tenants into one program. Equal `(seed, count)`
/// ⇒ identical programs and metadata. Archetypes cycle
/// dispatch → registry → kernel; weights, trip counts and flip points are
/// seeded per tenant. `count` may come from the command line, so it sizes no
/// allocation up front, and `0` is an empty mix for the server to refuse.
pub fn build(seed: u64, count: usize) -> TenantMix {
    let mut rng = Rng64::new(seed);
    let mut p = Program::new();
    let mut tenants = Vec::new();
    for i in 0..count {
        let (kind, entry) = match i % 3 {
            0 => ("dispatch", dispatch_tenant(&mut p, i, &mut rng)),
            1 => ("registry", registry_tenant(&mut p, i, &mut rng)),
            _ => ("kernel", kernel_tenant(&mut p, i, &mut rng)),
        };
        tenants.push(TenantInfo {
            name: format!("t{i}_{kind}"),
            entry,
            weight: 1 + rng.gen_index(3) as u32,
            work: rng.gen_range(16, 40),
            pivot: PHASE_PIVOT,
            flip_after: [0.4, 0.5, 0.6][rng.gen_index(3)],
        });
    }
    TenantMix {
        program: p,
        tenants,
    }
}

/// Emits the shared entry prologue: phase test and phase-local trip
/// count. Returns `(phase_a, trips)`.
fn phase_prologue(fb: &mut FunctionBuilder<'_>, x: ValueId) -> (ValueId, ValueId) {
    let pivot = fb.const_int(PHASE_PIVOT);
    let phase_a = fb.cmp(CmpOp::ILt, x, pivot);
    let shifted = fb.binop(BinOp::ISub, x, pivot);
    let trips = if_else(fb, phase_a, Type::Int, |_| x, |_| shifted);
    (phase_a, trips)
}

/// Virtual-dispatch tenant: phase A drives `area` on Square receivers
/// only, phase B on Tri — the server-side generalization of the
/// `phase_change` workload.
fn dispatch_tenant(p: &mut Program, idx: usize, rng: &mut Rng64) -> MethodId {
    let shape = p.add_class(format!("Shape_{idx}"), None);
    let scale_f = p.add_field(shape, "scale", Type::Int);
    let square = p.add_class(format!("Square_{idx}"), Some(shape));
    let tri = p.add_class(format!("Tri_{idx}"), Some(shape));
    let sel_name = format!("area_{idx}");
    let m_square = p.declare_method(square, &sel_name, vec![Type::Int], Type::Int);
    let m_tri = p.declare_method(tri, &sel_name, vec![Type::Int], Type::Int);
    let sel = p.selector_by_name(&sel_name, 2).unwrap();

    let mut fb = FunctionBuilder::new(p, m_square);
    let this = fb.param(0);
    let x = fb.param(1);
    let s = fb.get_field(scale_f, this);
    let sq = fb.binop(BinOp::IMul, x, x);
    let out = fb.iadd(sq, s);
    let mask = fb.const_int(0xFFFF);
    let out = fb.binop(BinOp::IAnd, out, mask);
    fb.ret(Some(out));
    let g = fb.finish();
    p.define_method(m_square, g);

    let mut fb = FunctionBuilder::new(p, m_tri);
    let this = fb.param(0);
    let x = fb.param(1);
    let s = fb.get_field(scale_f, this);
    let k = fb.const_int(rng.gen_range(2, 9));
    let t = fb.binop(BinOp::IMul, x, k);
    let out = fb.iadd(t, s);
    let mask = fb.const_int(0xFFFF);
    let out = fb.binop(BinOp::IAnd, out, mask);
    fb.ret(Some(out));
    let g = fb.finish();
    p.define_method(m_tri, g);

    // step: the hot method holding the speculated virtual callsite.
    let step = p.declare_function(
        format!("step_{idx}"),
        vec![Type::Object(shape), Type::Int],
        Type::Int,
    );
    let mut fb = FunctionBuilder::new(p, step);
    let recv = fb.param(0);
    let x = fb.param(1);
    let a = fb.call_virtual(sel, vec![recv, x]).unwrap();
    let out = fb.iadd(a, x);
    fb.ret(Some(out));
    let g = fb.finish();
    p.define_method(step, g);

    let entry = p.declare_function(format!("serve_dispatch_{idx}"), vec![Type::Int], Type::Int);
    let scale = rng.gen_range(2, 12);
    let mut fb = FunctionBuilder::new(p, entry);
    let x = fb.param(0);
    let (phase_a, trips) = phase_prologue(&mut fb, x);
    let sq_obj = fb.new_object(square);
    let k = fb.const_int(scale);
    fb.set_field(scale_f, sq_obj, k);
    let sq_ref = fb.cast(shape, sq_obj);
    let tri_obj = fb.new_object(tri);
    let k = fb.const_int(scale + 1);
    fb.set_field(scale_f, tri_obj, k);
    let tri_ref = fb.cast(shape, tri_obj);
    let zero = fb.const_int(0);
    let out = counted_loop(&mut fb, trips, &[zero], |fb, i, state| {
        let recv = if_else(fb, phase_a, Type::Object(shape), |_| sq_ref, |_| tri_ref);
        let v = fb.call_static(step, vec![recv, i]).unwrap();
        let acc = fb.binop(BinOp::IXor, state[0], v);
        let acc = fb.iadd(acc, v);
        vec![acc]
    });
    let mask = fb.const_int(0x7FFF_FFFF);
    let out = fb.binop(BinOp::IAnd, out[0], mask);
    fb.ret(Some(out));
    let g = fb.finish();
    p.define_method(entry, g);
    entry
}

/// Registry tenant: a small group registry driven round robin; the phase
/// decides which half of the registry is hot, so a flip evicts one hot
/// set and re-heats the other — cache churn under a bounded budget.
fn registry_tenant(p: &mut Program, idx: usize, rng: &mut Rng64) -> MethodId {
    let groups = 4 + rng.gen_index(3);
    let mut drivers: Vec<MethodId> = Vec::with_capacity(groups);
    for g in 0..groups {
        let d = p.declare_function(format!("driver_{idx}_{g}"), vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(p, d);
        let x = fb.param(0);
        let mut v = x;
        for _ in 0..(2 + rng.gen_index(3)) {
            v = match rng.gen_index(3) {
                0 => {
                    let k = fb.const_int(rng.gen_range(1, 100));
                    fb.iadd(v, k)
                }
                1 => {
                    let k = fb.const_int(rng.gen_range(1, 9));
                    let t = fb.imul(v, k);
                    let m = fb.const_int(0xFFFF);
                    fb.binop(BinOp::IAnd, t, m)
                }
                _ => {
                    let k = fb.const_int(rng.gen_range(0, 64));
                    fb.binop(BinOp::IXor, v, k)
                }
            };
        }
        fb.ret(Some(v));
        let body = fb.finish();
        p.define_method(d, body);
        drivers.push(d);
    }

    let entry = p.declare_function(format!("serve_registry_{idx}"), vec![Type::Int], Type::Int);
    let mut fb = FunctionBuilder::new(p, entry);
    let x = fb.param(0);
    let (phase_a, trips) = phase_prologue(&mut fb, x);
    // Phase B shifts the round-robin origin by half the registry, so the
    // hot groups rotate at the flip.
    let zero_k = fb.const_int(0);
    let half_k = fb.const_int((groups / 2) as i64);
    let offset = if_else(&mut fb, phase_a, Type::Int, |_| zero_k, |_| half_k);
    let group_count = fb.const_int(groups as i64);
    let zero = fb.const_int(0);
    let out = counted_loop(&mut fb, trips, &[zero], |fb, i, state| {
        let shifted = fb.iadd(i, offset);
        let g = fb.binop(BinOp::IRem, shifted, group_count);
        let v = emit_dispatch(fb, &drivers, 0, g, state[0]);
        let acc = fb.iadd(state[0], v);
        let mask = fb.const_int(0x7FFF_FFFF);
        let acc = fb.binop(BinOp::IAnd, acc, mask);
        vec![acc]
    });
    fb.ret(Some(out[0]));
    let g = fb.finish();
    p.define_method(entry, g);
    entry
}

/// Kernel tenant: a static-call arithmetic loop that switches between two
/// helper chains at the flip, re-steering the inliner's cluster choice.
fn kernel_tenant(p: &mut Program, idx: usize, rng: &mut Rng64) -> MethodId {
    let mk_helper = |p: &mut Program, name: String, mul: i64, add: i64| {
        let f = p.declare_function(name, vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(p, f);
        let x = fb.param(0);
        let k = fb.const_int(mul);
        let v = fb.imul(x, k);
        let k = fb.const_int(add);
        let v = fb.iadd(v, k);
        let m = fb.const_int(0xF_FFFF);
        let v = fb.binop(BinOp::IAnd, v, m);
        fb.ret(Some(v));
        let g = fb.finish();
        p.define_method(f, g);
        f
    };
    let fa = mk_helper(
        p,
        format!("kernel_a_{idx}"),
        rng.gen_range(3, 17),
        rng.gen_range(1, 64),
    );
    let fz = mk_helper(
        p,
        format!("kernel_b_{idx}"),
        rng.gen_range(3, 17),
        rng.gen_range(1, 64),
    );

    let entry = p.declare_function(format!("serve_kernel_{idx}"), vec![Type::Int], Type::Int);
    let mut fb = FunctionBuilder::new(p, entry);
    let x = fb.param(0);
    let (phase_a, trips) = phase_prologue(&mut fb, x);
    let zero = fb.const_int(0);
    let out = counted_loop(&mut fb, trips, &[zero], |fb, i, state| {
        let seed = fb.iadd(state[0], i);
        let v = if_else(
            fb,
            phase_a,
            Type::Int,
            |fb| fb.call_static(fa, vec![seed]).unwrap(),
            |fb| fb.call_static(fz, vec![seed]).unwrap(),
        );
        let acc = fb.binop(BinOp::IXor, state[0], v);
        let acc = fb.iadd(acc, i);
        vec![acc]
    });
    let mask = fb.const_int(0x7FFF_FFFF);
    let out = fb.binop(BinOp::IAnd, out[0], mask);
    fb.ret(Some(out));
    let g = fb.finish();
    p.define_method(entry, g);
    entry
}

/// Static binary-search dispatch over `drivers[lo..]` keyed on `g` — the
/// same if-else chain idiom as `cache_pressure`, kept monomorphic so the
/// inliner sees plain static calls.
fn emit_dispatch(
    fb: &mut FunctionBuilder<'_>,
    drivers: &[MethodId],
    lo: usize,
    g: ValueId,
    arg: ValueId,
) -> ValueId {
    if drivers.len() == 1 {
        return fb.call_static(drivers[0], vec![arg]).unwrap();
    }
    let mid = drivers.len() / 2;
    let mid_k = fb.const_int((lo + mid) as i64);
    let cond = fb.cmp(CmpOp::ILt, g, mid_k);
    if_else(
        fb,
        cond,
        Type::Int,
        |fb| emit_dispatch(fb, &drivers[..mid], lo, g, arg),
        |fb| emit_dispatch(fb, &drivers[mid..], lo + mid, g, arg),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_verifies_and_is_deterministic() {
        let m1 = build(11, 5);
        m1.verify_all();
        let m2 = build(11, 5);
        assert_eq!(m1.tenants, m2.tenants);
        assert_eq!(m1.tenants.len(), 5);
        // Archetypes cycle.
        assert!(m1.tenants[0].name.ends_with("dispatch"));
        assert!(m1.tenants[1].name.ends_with("registry"));
        assert!(m1.tenants[2].name.ends_with("kernel"));
        assert!(m1.tenants[3].name.ends_with("dispatch"));
        for t in &m1.tenants {
            assert!(t.weight >= 1 && t.work >= 16 && t.pivot == PHASE_PIVOT);
            assert!(t.flip_after > 0.0 && t.flip_after < 1.0);
        }
    }

    #[test]
    fn seeds_vary_the_mix() {
        let m1 = build(1, 3);
        let m2 = build(2, 3);
        assert_ne!(
            m1.tenants.iter().map(|t| t.work).collect::<Vec<_>>(),
            m2.tenants.iter().map(|t| t.work).collect::<Vec<_>>()
        );
    }
}
