//! A cache-pressure workload: a method registry far larger than any
//! reasonable code-cache budget, driven with a cycling working set.
//!
//! The program is a seeded registry of `groups × fns_per_group` small
//! arithmetic functions. Each group has a driver that calls every
//! function in the group, and `main(n)` cycles through the groups round
//! robin (`g = i mod groups`), so every driver re-heats on every cycle.
//! Under a finite [`incline_vm::VmConfig::code_cache_budget`] the
//! working set cannot fit: installs force evictions, evicted drivers
//! re-heat a few iterations later and must clear admission again, and
//! idle groups age out — exactly the churn the bounded-cache subsystem
//! is built to survive. With an unbounded cache it is just a wide,
//! well-typed dispatch workload.

use incline_ir::builder::FunctionBuilder;
use incline_ir::{BinOp, CmpOp, MethodId, Program, Rng64, Type, ValueId};

use crate::util::{counted_loop, if_else};
use crate::workload::{Suite, Workload};

/// Builds the workload. `seed` varies the per-function arithmetic,
/// `groups × fns_per_group` is the registry size, and `input` is the
/// per-run trip count (each iteration exercises one group).
pub fn build(name: &str, seed: u64, groups: usize, fns_per_group: usize, input: i64) -> Workload {
    assert!(
        groups > 0 && fns_per_group > 0,
        "registry must be non-empty"
    );
    let mut rng = Rng64::new(seed);
    let mut p = Program::new();

    // The leaf registry: small, distinct arithmetic functions.
    let mut leaves: Vec<Vec<MethodId>> = Vec::with_capacity(groups);
    for g in 0..groups {
        let mut group = Vec::with_capacity(fns_per_group);
        for j in 0..fns_per_group {
            let f = p.declare_function(format!("leaf_{g}_{j}"), vec![Type::Int], Type::Int);
            let mut fb = FunctionBuilder::new(&p, f);
            let x = fb.param(0);
            let mut v = x;
            // A few seeded ops so leaves differ in shape and size.
            for _ in 0..(2 + rng.gen_index(4)) {
                v = match rng.gen_index(4) {
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
                    2 => {
                        let k = fb.const_int(rng.gen_range(0, 64));
                        fb.binop(BinOp::IXor, v, k)
                    }
                    _ => {
                        let k = fb.const_int(rng.gen_range(1, 4));
                        fb.binop(BinOp::IShr, v, k)
                    }
                };
            }
            fb.ret(Some(v));
            let body = fb.finish();
            p.define_method(f, body);
            group.push(f);
        }
        leaves.push(group);
    }

    // One driver per group: folds its whole group over the argument. Once
    // the inliner expands the leaves, a compiled driver is the unit of
    // code-cache occupancy the eviction policies fight over.
    let mut drivers: Vec<MethodId> = Vec::with_capacity(groups);
    for (g, group) in leaves.iter().enumerate() {
        let d = p.declare_function(format!("driver_{g}"), vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, d);
        let x = fb.param(0);
        let mut acc = x;
        for &f in group {
            let r = fb.call_static(f, vec![acc]).unwrap();
            acc = fb.iadd(acc, r);
            let m = fb.const_int(0xF_FFFF);
            acc = fb.binop(BinOp::IAnd, acc, m);
        }
        fb.ret(Some(acc));
        let body = fb.finish();
        p.define_method(d, body);
        drivers.push(d);
    }

    // main(n): round-robin over the groups, printing a checkpoint every
    // 8 iterations so the conformance matrix compares observable output.
    let main = p.declare_function("main", vec![Type::Int], Type::Int);
    let mut fb = FunctionBuilder::new(&p, main);
    let n = fb.param(0);
    let zero = fb.const_int(0);
    let group_count = fb.const_int(groups as i64);
    let out = counted_loop(&mut fb, n, &[zero], |fb, i, state| {
        let g = fb.binop(BinOp::IRem, i, group_count);
        let v = emit_dispatch(fb, &drivers, 0, g, state[0]);
        let acc = fb.iadd(state[0], v);
        let mask = fb.const_int(0x7FFF_FFFF);
        let acc = fb.binop(BinOp::IAnd, acc, mask);
        let seven = fb.const_int(7);
        let low = fb.binop(BinOp::IAnd, i, seven);
        let zero2 = fb.const_int(0);
        let tick = fb.cmp(CmpOp::IEq, low, zero2);
        let tb = fb.add_block();
        let (join, _) = fb.add_block_with_params(&[]);
        fb.branch(tick, (tb, vec![]), (join, vec![]));
        fb.switch_to(tb);
        fb.print(acc);
        fb.jump(join, vec![]);
        fb.switch_to(join);
        vec![acc]
    });
    fb.ret(Some(out[0]));
    let body = fb.finish();
    p.define_method(main, body);

    Workload::new(name, Suite::Other, p, main, input, 8)
}

/// The default cache-pressure instance used by the extra-benchmark
/// registry: modest enough for the conformance matrix.
pub fn standard() -> Workload {
    build("cache_pressure", 0xCA4E, 24, 12, 48)
}

/// A registry an order of magnitude wider, for the `cache` benchmark and
/// the CI pressure job — far larger than any sane budget.
pub fn storm() -> Workload {
    build("cache_pressure_storm", 0xCA4E, 96, 12, 192)
}

/// Compares `g` against each driver index in turn (a static if-else
/// chain — deliberately *not* a virtual callsite, so cache churn is not
/// confounded with speculation churn).
fn emit_dispatch(
    fb: &mut FunctionBuilder<'_>,
    drivers: &[MethodId],
    idx: usize,
    g: ValueId,
    x: ValueId,
) -> ValueId {
    if idx + 1 == drivers.len() {
        return fb.call_static(drivers[idx], vec![x]).unwrap();
    }
    let k = fb.const_int(idx as i64);
    let c = fb.cmp(CmpOp::IEq, g, k);
    if_else(
        fb,
        c,
        Type::Int,
        |fb| fb.call_static(drivers[idx], vec![x]).unwrap(),
        |fb| emit_dispatch(fb, drivers, idx + 1, g, x),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_pressure_verifies() {
        standard().verify_all();
    }

    #[test]
    fn generation_is_deterministic() {
        let a = build("w", 7, 4, 3, 16);
        let b = build("w", 7, 4, 3, 16);
        assert_eq!(
            incline_ir::print::program_str(&a.program),
            incline_ir::print::program_str(&b.program)
        );
    }

    #[test]
    fn registry_scales_with_parameters() {
        let small = build("s", 1, 2, 2, 8);
        let big = build("b", 1, 8, 4, 8);
        assert!(big.program.method_count() > small.program.method_count());
    }
}
