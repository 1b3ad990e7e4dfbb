//! Integration tests for the tiered VM: code-cache behavior, profile
//! freezing (§II.2 of the paper), opaque methods, and the typeswitch
//! fallback path under profile-unseen receivers.

use incline::ir::{CallSiteId, CmpOp, FunctionBuilder, Type};
use incline::prelude::*;

/// A program whose virtual callsite sees classes B and C during warmup
/// but class D only afterwards: the typeswitch must fall back correctly.
fn polymorphic_program() -> (Program, incline::ir::MethodId, Vec<incline::ir::ClassId>) {
    let mut p = Program::new();
    let a = p.add_class("A", None);
    let b = p.add_class("B", Some(a));
    let c = p.add_class("C", Some(a));
    let d = p.add_class("D", Some(a));
    let mut impls = Vec::new();
    for (cls, k) in [(b, 10), (c, 20), (d, 40)] {
        let m = p.declare_method(cls, "val", vec![], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let v = fb.const_int(k);
        fb.ret(Some(v));
        let g = fb.finish();
        p.define_method(m, g);
        impls.push(m);
    }
    // main(selector): allocate by selector (0..=2), dispatch in a loop.
    let main = p.declare_function("main", vec![Type::Int], Type::Int);
    let mut fb = FunctionBuilder::new(&p, main);
    let sel_param = fb.param(0);
    let sel = fb.program().selector_by_name("val", 1).unwrap();
    let zero = fb.const_int(0);
    let one = fb.const_int(1);
    let is0 = fb.cmp(CmpOp::IEq, sel_param, zero);
    let (j, jp) = fb.add_block_with_params(&[Type::Object(a)]);
    let t0 = fb.add_block();
    let e0 = fb.add_block();
    fb.branch(is0, (t0, vec![]), (e0, vec![]));
    fb.switch_to(t0);
    let ob = fb.new_object(b);
    let ob = fb.cast(a, ob);
    fb.jump(j, vec![ob]);
    fb.switch_to(e0);
    let is1 = fb.cmp(CmpOp::IEq, sel_param, one);
    let t1 = fb.add_block();
    let e1 = fb.add_block();
    fb.branch(is1, (t1, vec![]), (e1, vec![]));
    fb.switch_to(t1);
    let oc = fb.new_object(c);
    let oc = fb.cast(a, oc);
    fb.jump(j, vec![oc]);
    fb.switch_to(e1);
    let od = fb.new_object(d);
    let od = fb.cast(a, od);
    fb.jump(j, vec![od]);
    fb.switch_to(j);
    // Dispatch 50 times so the callsite is hot.
    let fifty = fb.const_int(50);
    let (head, hp) = fb.add_block_with_params(&[Type::Int, Type::Int]);
    let body = fb.add_block();
    let (done, dp) = fb.add_block_with_params(&[Type::Int]);
    fb.jump(head, vec![zero, zero]);
    fb.switch_to(head);
    let cnd = fb.cmp(CmpOp::ILt, hp[0], fifty);
    fb.branch(cnd, (body, vec![]), (done, vec![hp[1]]));
    fb.switch_to(body);
    let v = fb.call_virtual(sel, vec![jp[0]]).unwrap();
    let acc = fb.iadd(hp[1], v);
    let i2 = fb.iadd(hp[0], one);
    fb.jump(head, vec![i2, acc]);
    fb.switch_to(done);
    fb.ret(Some(dp[0]));
    let g = fb.finish();
    p.define_method(main, g);
    (p, main, vec![a, b, c, d])
}

#[test]
fn typeswitch_fallback_handles_unseen_receiver() {
    let (p, main, _) = polymorphic_program();
    let config = VmConfig {
        hotness_threshold: 3,
        ..VmConfig::default()
    };
    let mut vm = Machine::new(&p, Box::new(IncrementalInliner::new()), config);
    // Warm up with B and C only; main compiles with a B/C typeswitch.
    for _ in 0..6 {
        assert_eq!(
            vm.run(main, vec![Value::Int(0)]).unwrap().value,
            Some(Value::Int(500))
        );
        assert_eq!(
            vm.run(main, vec![Value::Int(1)]).unwrap().value,
            Some(Value::Int(1000))
        );
    }
    assert!(
        vm.compiled_graph(main).is_some(),
        "main must be compiled by now"
    );
    // Now dispatch to D, which the profile never saw: the typeswitch
    // fallback (virtual call) must produce the right answer.
    assert_eq!(
        vm.run(main, vec![Value::Int(2)]).unwrap().value,
        Some(Value::Int(2000))
    );
}

#[test]
fn compiled_methods_stay_cached() {
    let (p, main, _) = polymorphic_program();
    let config = VmConfig {
        hotness_threshold: 2,
        ..VmConfig::default()
    };
    let mut vm = Machine::new(&p, Box::new(IncrementalInliner::new()), config);
    for _ in 0..10 {
        vm.run(main, vec![Value::Int(0)]).unwrap();
    }
    let compiles_after_warmup = vm.compilations();
    for _ in 0..10 {
        vm.run(main, vec![Value::Int(0)]).unwrap();
    }
    assert_eq!(
        vm.compilations(),
        compiles_after_warmup,
        "no recompilation churn"
    );
}

#[test]
fn profiles_freeze_after_compilation() {
    // The paper's §II.2: once compiled, a method stops contributing
    // profile data (our compiled tier does not profile).
    let (p, main, _) = polymorphic_program();
    let config = VmConfig {
        hotness_threshold: 2,
        ..VmConfig::default()
    };
    let mut vm = Machine::new(&p, Box::new(NoInline), config);
    for _ in 0..4 {
        vm.run(main, vec![Value::Int(0)]).unwrap();
    }
    assert!(vm.compiled_graph(main).is_some());
    let frozen = vm.profiles().invocations(main);
    for _ in 0..4 {
        vm.run(main, vec![Value::Int(0)]).unwrap();
    }
    assert_eq!(
        vm.profiles().invocations(main),
        frozen,
        "compiled code must not profile"
    );
}

#[test]
fn opaque_methods_execute_but_never_inline() {
    let mut p = Program::new();
    let ext = p.declare_function("external", vec![Type::Int], Type::Int);
    let mut fb = FunctionBuilder::new(&p, ext);
    let x = fb.param(0);
    let k = fb.const_int(100);
    let r = fb.iadd(x, k);
    fb.ret(Some(r));
    let g = fb.finish();
    p.define_method(ext, g);
    p.set_opaque(ext);

    let main = p.declare_function("main", vec![Type::Int], Type::Int);
    let mut fb = FunctionBuilder::new(&p, main);
    let x = fb.param(0);
    let a = fb.call_static(ext, vec![x]).unwrap();
    let b = fb.call_static(ext, vec![a]).unwrap();
    fb.ret(Some(b));
    let g = fb.finish();
    p.define_method(main, g);

    let config = VmConfig {
        hotness_threshold: 2,
        ..VmConfig::default()
    };
    let mut vm = Machine::new(&p, Box::new(IncrementalInliner::new()), config);
    let mut out = vm.run(main, vec![Value::Int(1)]).unwrap();
    for _ in 0..4 {
        out = vm.run(main, vec![Value::Int(1)]).unwrap();
    }
    assert_eq!(out.value, Some(Value::Int(201)));
    let g = vm.compiled_graph(main).expect("main compiles");
    assert_eq!(g.callsites().len(), 2, "opaque callees must remain calls");
}

#[test]
fn c1_mode_compiles_everything_without_inlining() {
    let (p, main, _) = polymorphic_program();
    let config = VmConfig {
        hotness_threshold: 1,
        ..VmConfig::default()
    };
    let mut vm = Machine::new(&p, Box::new(NoInline), config);
    vm.run(main, vec![Value::Int(0)]).unwrap();
    vm.run(main, vec![Value::Int(1)]).unwrap();
    vm.run(main, vec![Value::Int(2)]).unwrap();
    // main + the three `val` implementations.
    assert!(
        vm.compilations() >= 4,
        "C1 mode compiles every executed method"
    );
}

#[test]
fn callsite_ids_survive_deep_inlining() {
    // After full inlining, every remaining call instruction still carries
    // a callsite id that resolves against the original profile table.
    let w = incline::workloads::by_name("stmbench7").unwrap();
    let config = VmConfig {
        hotness_threshold: 3,
        ..VmConfig::default()
    };
    let mut vm = Machine::new(&w.program, Box::new(IncrementalInliner::new()), config);
    for _ in 0..6 {
        vm.run(w.entry, vec![Value::Int(8)]).unwrap();
    }
    for m in vm.compiled_methods() {
        let g = vm.compiled_graph(m).unwrap();
        for (_, call) in g.callsites() {
            let site: CallSiteId = g.inst(call).op.call_site().expect("calls carry sites");
            assert!(
                site.method.index() < w.program.method_count(),
                "site names a real method"
            );
        }
    }
}

#[test]
fn compiled_steady_state_takes_fewer_cycles_than_interpreting() {
    // Sanity on the cost model: the last of four runs of factorie, all
    // compiled by then, beats a purely interpreted run.
    let w = incline::workloads::by_name("factorie").unwrap();
    let cycles = |jit, inliner: Box<dyn Inliner>| {
        let config = VmConfig {
            jit,
            hotness_threshold: 2,
            ..VmConfig::default()
        };
        let mut vm = Machine::new(&w.program, inliner, config);
        let runs: Vec<u64> = (0..4)
            .map(|_| vm.run(w.entry, vec![Value::Int(8)]).unwrap().exec_cycles)
            .collect();
        runs[3]
    };
    let interpreted = cycles(false, Box::new(NoInline));
    let compiled = cycles(true, Box::new(IncrementalInliner::new()));
    assert!(
        compiled < interpreted,
        "compiled ({compiled}) should beat interpreted ({interpreted})"
    );
}
