//! Seeded random program generator for differential testing.
//!
//! Generates well-typed, terminating programs: an acyclic call DAG of
//! integer functions with bounded loops, guarded divisions, conditionals,
//! field traffic through a small class pair, and a virtual callsite whose
//! receiver alternates (exercising typeswitch emission). Differential
//! tests run each program interpreted and compiled under every inliner
//! and require identical outputs.

use incline_ir::builder::FunctionBuilder;
use incline_ir::{BinOp, CmpOp, MethodId, Program, Rng64, Type, ValueId};

use crate::util::{counted_loop, if_else};
use crate::workload::{Suite, Workload};

/// Tunables for generated programs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GenConfig {
    /// Number of generated functions (call-DAG depth).
    pub functions: usize,
    /// Expression operations per function body.
    pub ops_per_function: usize,
    /// Probability of a bounded loop per function (0–1).
    pub loop_prob: f64,
    /// Probability of a conditional per function (0–1).
    pub branch_prob: f64,
    /// Number of `GenBase` subclasses (clamped to ≥ 2). With more than
    /// two, the loop-nested polymorphic callsite becomes megamorphic.
    pub subclasses: usize,
    /// Probability of a loop-nested polymorphic `mix` call per function
    /// (0–1): a bounded loop whose single virtual callsite cycles its
    /// receiver through every subclass.
    pub loop_poly_prob: f64,
    /// Maximum static calls to earlier functions per body (≥ 1). Higher
    /// fanout produces deeper, busier call chains.
    pub call_fanout: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            functions: 6,
            ops_per_function: 14,
            loop_prob: 0.5,
            branch_prob: 0.6,
            subclasses: 2,
            loop_poly_prob: 0.0,
            call_fanout: 2,
        }
    }
}

impl GenConfig {
    /// The hardened corpus preset: deeper call chains, megamorphic
    /// receiver sets and loop-nested polymorphic callsites. This is the
    /// corpus the conformance matrix's trial-cache rows sweep.
    pub fn hardened() -> GenConfig {
        GenConfig {
            functions: 12,
            ops_per_function: 20,
            loop_prob: 0.7,
            branch_prob: 0.8,
            subclasses: 4,
            loop_poly_prob: 0.6,
            call_fanout: 3,
        }
    }
}

/// Generates a random workload from a seed.
pub fn generate(seed: u64, config: GenConfig) -> Workload {
    let mut rng = Rng64::new(seed);
    let mut p = Program::new();

    // A class family with a virtual `mix`: `subclasses` concrete
    // receivers, each with a distinct body so devirtualizing to the
    // wrong class changes the answer.
    let base = p.add_class("GenBase", None);
    let k_f = p.add_field(base, "k", Type::Int);
    let n_sub = config.subclasses.max(2);
    let classes: Vec<_> = (0..n_sub)
        .map(|j| p.add_class(format!("GenSub{j}"), Some(base)))
        .collect();
    let mix_methods: Vec<_> = classes
        .iter()
        .map(|&cls| p.declare_method(cls, "mix", vec![Type::Int], Type::Int))
        .collect();
    let sel_mix = p.selector_by_name("mix", 2).unwrap();

    for (j, &mix) in mix_methods.iter().enumerate() {
        let mut fb = FunctionBuilder::new(&p, mix);
        let this = fb.param(0);
        let x = fb.param(1);
        let k = fb.get_field(k_f, this);
        let r = match j % 4 {
            0 => fb.iadd(x, k),
            1 => fb.binop(BinOp::IXor, x, k),
            2 => {
                let t = fb.imul(x, k);
                let mask = fb.const_int(0xFFFF);
                fb.binop(BinOp::IAnd, t, mask)
            }
            _ => {
                let t = fb.isub(x, k);
                let c = fb.const_int(j as i64 + 1);
                fb.iadd(t, c)
            }
        };
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(mix, g);
    }

    // Declare the function DAG up front (bodies may call earlier ones).
    let mut funcs: Vec<MethodId> = Vec::new();
    for i in 0..config.functions {
        funcs.push(p.declare_function(format!("gen_f{i}"), vec![Type::Int, Type::Int], Type::Int));
    }

    for (i, &f) in funcs.iter().enumerate() {
        let graph = {
            let mut fb = FunctionBuilder::new(&p, f);
            let a = fb.param(0);
            let b = fb.param(1);
            let mut pool: Vec<ValueId> = vec![a, b];

            // Optionally allocate an object for field traffic + virtual mix.
            let obj = if rng.gen_bool(0.5) {
                let cls = classes[rng.gen_index(classes.len())];
                let o = fb.new_object(cls);
                let kv = fb.const_int(rng.gen_range(1, 50));
                fb.set_field(k_f, o, kv);
                Some(fb.cast(base, o))
            } else {
                None
            };

            for _ in 0..config.ops_per_function {
                let v = emit_op(&mut fb, &mut rng, &pool, obj, sel_mix, k_f);
                pool.push(v);
            }

            // Optionally a bounded loop accumulating over the pool.
            if rng.gen_bool(config.loop_prob) {
                let trips = fb.const_int(rng.gen_range(2, 7));
                let seed_v = *last(&pool);
                let picked = pool[rng.gen_index(pool.len())];
                let out = counted_loop(&mut fb, trips, &[seed_v], |fb, iv, s| {
                    let t = fb.iadd(s[0], picked);
                    let t = fb.binop(BinOp::IXor, t, iv);
                    let mask = fb.const_int(0xFFFF);
                    let t = fb.binop(BinOp::IAnd, t, mask);
                    vec![t]
                });
                pool.push(out[0]);
            }

            // Optionally a loop-nested polymorphic call: one receiver per
            // subclass, and a single virtual callsite inside a bounded
            // loop whose receiver cycles through all of them — the
            // megamorphic shape the clustering and typeswitch paths must
            // get right.
            if rng.gen_bool(config.loop_poly_prob) {
                let recvs: Vec<ValueId> = classes
                    .iter()
                    .map(|&cls| {
                        let o = fb.new_object(cls);
                        let kv = fb.const_int(rng.gen_range(1, 50));
                        fb.set_field(k_f, o, kv);
                        fb.cast(base, o)
                    })
                    .collect();
                let trips = fb.const_int(rng.gen_range(3, 9));
                let seed_v = *last(&pool);
                let out = counted_loop(&mut fb, trips, &[seed_v], |fb, iv, s| {
                    // Select the receiver by a masked induction value
                    // folded through an if-else chain, so one callsite
                    // sees every subclass.
                    let mask = fb.const_int(recvs.len().next_power_of_two() as i64 - 1);
                    let idx = fb.binop(BinOp::IAnd, iv, mask);
                    let mut sel = recvs[recvs.len() - 1];
                    for j in (0..recvs.len() - 1).rev() {
                        let jc = fb.const_int(j as i64);
                        let c = fb.cmp(CmpOp::IEq, idx, jc);
                        let prev = sel;
                        sel = if_else(fb, c, Type::Object(base), |_fb| recvs[j], |_fb| prev);
                    }
                    let r = fb.call_virtual(sel_mix, vec![sel, s[0]]).unwrap();
                    let t = fb.iadd(s[0], r);
                    let mask16 = fb.const_int(0xFFFF);
                    let t = fb.binop(BinOp::IAnd, t, mask16);
                    vec![t]
                });
                pool.push(out[0]);
            }

            // Optionally a conditional.
            if rng.gen_bool(config.branch_prob) {
                let l = pool[rng.gen_index(pool.len())];
                let r = pool[rng.gen_index(pool.len())];
                let c = fb.cmp(CmpOp::ILt, l, r);
                let x1 = pool[rng.gen_index(pool.len())];
                let x2 = pool[rng.gen_index(pool.len())];
                let v = if_else(
                    &mut fb,
                    c,
                    Type::Int,
                    |fb| fb.iadd(x1, x1),
                    |fb| {
                        let one = fb.const_int(1);
                        fb.iadd(x2, one)
                    },
                );
                pool.push(v);
            }

            // Call earlier functions (acyclic), up to `call_fanout` times.
            if i > 0 {
                let fanout = config.call_fanout.max(1) as i64;
                for _ in 0..rng.gen_range(1, fanout + 1) {
                    let callee = funcs[rng.gen_index(i)];
                    let x = pool[rng.gen_index(pool.len())];
                    let y = pool[rng.gen_index(pool.len())];
                    let r = fb.call_static(callee, vec![x, y]).unwrap();
                    pool.push(r);
                }
            }

            let result = *last(&pool);
            let mask = fb.const_int(0xFF_FFFF);
            let result = fb.binop(BinOp::IAnd, result, mask);
            fb.ret(Some(result));
            fb.finish()
        };
        p.define_method(f, graph);
    }

    // main(n): drive the top function, print a checkpoint occasionally.
    let main = p.declare_function("main", vec![Type::Int], Type::Int);
    let graph = {
        let mut fb = FunctionBuilder::new(&p, main);
        let n = fb.param(0);
        let zero = fb.const_int(0);
        let top = *funcs.last().expect("at least one function");
        let out = counted_loop(&mut fb, n, &[zero], |fb, i, state| {
            let r = fb.call_static(top, vec![state[0], i]).unwrap();
            let acc = fb.iadd(state[0], r);
            let mask = fb.const_int(0x7FFF_FFFF);
            let acc = fb.binop(BinOp::IAnd, acc, mask);
            // Observable side effect every 8 iterations.
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
        fb.finish()
    };
    p.define_method(main, graph);

    Workload::new(format!("gen-{seed}"), Suite::Other, p, main, 40, 8)
}

fn last(pool: &[ValueId]) -> &ValueId {
    pool.last().expect("pool never empty")
}

/// Candidate one-step reductions of a config, most aggressive first.
fn shrink_candidates(c: GenConfig) -> Vec<GenConfig> {
    let mut out = Vec::new();
    if c.functions > 1 {
        out.push(GenConfig {
            functions: c.functions / 2,
            ..c
        });
        out.push(GenConfig {
            functions: c.functions - 1,
            ..c
        });
    }
    if c.ops_per_function > 1 {
        out.push(GenConfig {
            ops_per_function: c.ops_per_function / 2,
            ..c
        });
        out.push(GenConfig {
            ops_per_function: c.ops_per_function - 1,
            ..c
        });
    }
    if c.loop_poly_prob > 0.0 {
        out.push(GenConfig {
            loop_poly_prob: 0.0,
            ..c
        });
    }
    if c.subclasses > 2 {
        out.push(GenConfig { subclasses: 2, ..c });
    }
    if c.call_fanout > 1 {
        out.push(GenConfig {
            call_fanout: c.call_fanout - 1,
            ..c
        });
    }
    if c.loop_prob > 0.0 {
        out.push(GenConfig {
            loop_prob: 0.0,
            ..c
        });
    }
    if c.branch_prob > 0.0 {
        out.push(GenConfig {
            branch_prob: 0.0,
            ..c
        });
    }
    out
}

/// Shrinks a failing generated program, JOG-style: given a seed and a
/// config whose workload makes `failing` return `true`, greedily applies
/// the first one-step reduction that still fails until no reduction
/// does, and returns the minimized config plus its workload. Fully
/// deterministic for a deterministic predicate: the search order is
/// fixed and regeneration is seeded.
///
/// The conformance matrix calls this before reporting a divergence, so
/// the failure message names the smallest reproducer found rather than
/// the original (much larger) program.
pub fn shrink<F>(seed: u64, config: GenConfig, failing: &mut F) -> (GenConfig, Workload)
where
    F: FnMut(&Workload) -> bool,
{
    let mut best = config;
    loop {
        let step = shrink_candidates(best)
            .into_iter()
            .find(|&cand| failing(&generate(seed, cand)));
        match step {
            Some(cand) => best = cand,
            None => return (best, generate(seed, best)),
        }
    }
}

/// Emits one random integer operation over the pool.
fn emit_op(
    fb: &mut FunctionBuilder<'_>,
    rng: &mut Rng64,
    pool: &[ValueId],
    obj: Option<ValueId>,
    sel_mix: incline_ir::SelectorId,
    k_f: incline_ir::FieldId,
) -> ValueId {
    let pick = |rng: &mut Rng64| pool[rng.gen_index(pool.len())];
    match rng.gen_index(10) {
        0 => {
            let k = fb.const_int(rng.gen_range(-100, 100));
            let x = pick(rng);
            fb.iadd(x, k)
        }
        1 => {
            let x = pick(rng);
            let y = pick(rng);
            fb.isub(x, y)
        }
        2 => {
            let x = pick(rng);
            let y = pick(rng);
            let r = fb.imul(x, y);
            let mask = fb.const_int(0xFFFF);
            fb.binop(BinOp::IAnd, r, mask)
        }
        3 => {
            // Guarded division: divisor = (y & 7) + 1 ≥ 1.
            let x = pick(rng);
            let y = pick(rng);
            let seven = fb.const_int(7);
            let one = fb.const_int(1);
            let d = fb.binop(BinOp::IAnd, y, seven);
            let d = fb.iadd(d, one);
            fb.binop(BinOp::IDiv, x, d)
        }
        4 => {
            let x = pick(rng);
            let y = pick(rng);
            fb.binop(BinOp::IXor, x, y)
        }
        5 => {
            let x = pick(rng);
            let k = fb.const_int(rng.gen_range(0, 5));
            fb.binop(BinOp::IShl, x, k)
        }
        6 => {
            let x = pick(rng);
            fb.ineg(x)
        }
        7 => match obj {
            Some(o) => {
                let x = pick(rng);
                fb.call_virtual(sel_mix, vec![o, x]).unwrap()
            }
            None => {
                let x = pick(rng);
                let k = fb.const_int(3);
                fb.imul(x, k)
            }
        },
        8 => match obj {
            Some(o) => {
                let x = pick(rng);
                let m = fb.const_int(0xFFF);
                let nv = fb.binop(BinOp::IAnd, x, m);
                fb.set_field(k_f, o, nv);
                fb.get_field(k_f, o)
            }
            None => {
                let x = pick(rng);
                let y = pick(rng);
                fb.binop(BinOp::IOr, x, y)
            }
        },
        _ => {
            let x = pick(rng);
            let y = pick(rng);
            let c = fb.cmp(CmpOp::ILe, x, y);
            if_else(fb, c, Type::Int, |fb| fb.const_int(1), |fb| fb.const_int(0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_verify_across_seeds() {
        for seed in 0..30 {
            let w = generate(seed, GenConfig::default());
            w.verify_all();
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(42, GenConfig::default());
        let b = generate(42, GenConfig::default());
        assert_eq!(
            incline_ir::print::program_str(&a.program),
            incline_ir::print::program_str(&b.program)
        );
    }

    #[test]
    fn hardened_programs_verify_across_seeds() {
        for seed in 0..30 {
            let w = generate(seed, GenConfig::hardened());
            w.verify_all();
        }
    }

    #[test]
    fn hardened_corpus_contains_megamorphic_sites() {
        // With loop_poly_prob well above zero, some seed in a small range
        // must emit the loop-nested polymorphic callsite over all four
        // subclasses.
        let found = (0..10).any(|seed| {
            let w = generate(seed, GenConfig::hardened());
            incline_ir::print::program_str(&w.program).contains("GenSub3")
        });
        assert!(found, "hardened preset must allocate megamorphic receivers");
    }

    #[test]
    fn shrinker_minimizes_a_monotone_predicate() {
        // Predicate: "the program still declares gen_f4" — true iff
        // functions > 4, so the shrinker must land exactly on 5.
        let mut failing =
            |w: &Workload| incline_ir::print::program_str(&w.program).contains("gen_f4");
        let start = GenConfig::hardened();
        assert!(failing(&generate(7, start)));
        let (min_cfg, min_w) = shrink(7, start, &mut failing);
        assert_eq!(min_cfg.functions, 5);
        assert!(failing(&min_w));
        // Everything orthogonal to the predicate shrinks to the floor.
        assert_eq!(min_cfg.loop_poly_prob, 0.0);
        assert_eq!(min_cfg.subclasses, 2);
        assert_eq!(min_cfg.call_fanout, 1);
    }

    #[test]
    fn shrinker_is_deterministic() {
        let pred = |w: &Workload| w.program.method_ids().count() > 6;
        let (a, _) = shrink(3, GenConfig::hardened(), &mut { pred });
        let (b, _) = shrink(3, GenConfig::hardened(), &mut { pred });
        assert_eq!(a, b);
    }
}
