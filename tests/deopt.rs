//! End-to-end deoptimization tests: the phase-change workload drives the
//! full invalidate → reprofile → recompile cycle through real compiled
//! code, and everything is observed purely from the [`CompileEvent`]
//! stream, the bailout counters, and the installed graphs — never from
//! internal state.
//!
//! The workload dispatches `area` on `Square` receivers for the first half
//! of each run and on `Tri` receivers for the second half. With
//! deoptimization enabled, the hot `step` method compiles against a
//! monomorphic `Square` profile, speculates with an uncommon trap, traps
//! at the flip, rolls back, replays interpreted, and recompiles against
//! the merged profile — which must cover the new dominant receiver.

mod support;

use std::sync::Arc;

use incline::ir::graph::{Op, Terminator};
use incline::ir::Graph;
use incline::prelude::*;
use support::{answer, expected};

fn phase_change() -> Workload {
    by_name("phase_change").expect("extra benchmark exists")
}

/// The classes guarded by `InstanceOf` tests anywhere in `graph`.
fn guarded_classes(graph: &Graph) -> Vec<incline::ir::ClassId> {
    let mut out = Vec::new();
    for b in graph.block_ids() {
        for &i in &graph.block(b).insts {
            if let Op::InstanceOf(c) = graph.inst(i).op {
                out.push(c);
            }
        }
    }
    out
}

fn has_deopt_terminator(graph: &Graph) -> bool {
    graph
        .block_ids()
        .any(|b| matches!(graph.block(b).term, Terminator::Deopt { .. }))
}

#[test]
fn phase_change_deopts_then_recompiles_for_the_new_receiver() {
    let w = phase_change();

    // Ground truth from the reference evaluator.
    let expected = expected(&w, w.input);

    let config = VmConfig {
        hotness_threshold: 2,
        deopt: true,
        ..VmConfig::default()
    };
    let mut vm = Machine::new(&w.program, Box::new(IncrementalInliner::new()), config);
    let sink = Arc::new(CollectingSink::new());
    vm.set_trace_sink(sink.clone());
    for _ in 0..6 {
        let out = vm
            .run(w.entry, vec![Value::Int(w.input)])
            .expect("run completes");
        assert_eq!(answer(&out), expected, "no divergence from the oracle");
    }

    let b = vm.bailouts();
    assert!(b.deopts >= 1, "the receiver flip must trap");
    assert!(b.invalidations >= 1);
    assert!(b.recompiles >= 1, "the trapped method must come back");
    assert_eq!(b.pinned, 0, "one phase flip is far below the recompile cap");

    let step = w.program.function_by_name("step").expect("step exists");
    let square = w.program.class_by_name("Square").expect("Square exists");
    let tri = w.program.class_by_name("Tri").expect("Tri exists");

    let events = sink.take();
    // The trap is attributed to the speculating method with the paper's
    // uncovered-receiver reason.
    assert!(
        events.iter().any(|e| matches!(
            e,
            CompileEvent::Deoptimized { method, reason }
                if *method == step && reason == "uncovered_receiver"
        )),
        "step must deoptimize on the uncovered receiver"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, CompileEvent::CodeInvalidated { method, .. } if *method == step)),
        "step's code must be invalidated"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, CompileEvent::Recompiled { method, .. } if *method == step)),
        "step must be recompiled after reprofiling"
    );

    // The recompile saw the merged profile: the installed graph now guards
    // the new dominant receiver (and still the old one).
    let graph = vm.compiled_graph(step).expect("step ends compiled");
    let guards = guarded_classes(graph);
    assert!(
        guards.contains(&tri),
        "recompiled step must speculate on the new dominant receiver"
    );
    assert!(
        guards.contains(&square),
        "the merged profile keeps the old receiver covered"
    );
}

#[test]
fn phase_change_without_deopt_never_traps() {
    let w = phase_change();
    let config = VmConfig {
        hotness_threshold: 2,
        ..VmConfig::default()
    };
    let mut vm = Machine::new(&w.program, Box::new(IncrementalInliner::new()), config);
    for _ in 0..6 {
        vm.run(w.entry, vec![Value::Int(w.input)])
            .expect("run completes");
    }
    let b = vm.bailouts();
    assert_eq!(b.deopts, 0);
    assert_eq!(b.invalidations, 0);
    let step = w.program.function_by_name("step").expect("step exists");
    let graph = vm.compiled_graph(step).expect("step is compiled");
    assert!(
        !has_deopt_terminator(graph),
        "without deopt support no compiled graph may contain a trap"
    );
}

/// A monomorphic cousin of `phase_change`: the receiver never flips, so a
/// deopt-enabled compile speculates with an uncommon trap that never fires.
fn monomorphic_workload() -> (incline::ir::Program, incline::ir::MethodId) {
    use incline::ir::builder::FunctionBuilder;
    use incline::ir::{BinOp, Program, Type};
    use incline::workloads::util::counted_loop;

    let mut p = Program::new();
    let shape = p.add_class("Shape", None);
    let square = p.add_class("Square", Some(shape));
    let m_square = p.declare_method(square, "area", vec![Type::Int], Type::Int);
    let sel_area = p.selector_by_name("area", 2).unwrap();

    let mut fb = FunctionBuilder::new(&p, m_square);
    let x = fb.param(1);
    let sq = fb.binop(BinOp::IMul, x, x);
    fb.ret(Some(sq));
    let g = fb.finish();
    p.define_method(m_square, g);

    let step = p.declare_function("step", vec![Type::Object(shape), Type::Int], Type::Int);
    let mut fb = FunctionBuilder::new(&p, step);
    let recv = fb.param(0);
    let x = fb.param(1);
    let a = fb.call_virtual(sel_area, vec![recv, x]).unwrap();
    let out = fb.iadd(a, x);
    fb.ret(Some(out));
    let g = fb.finish();
    p.define_method(step, g);

    let main = p.declare_function("main", vec![Type::Int], Type::Int);
    let mut fb = FunctionBuilder::new(&p, main);
    let n = fb.param(0);
    let obj = fb.new_object(square);
    let recv = fb.cast(shape, obj);
    let zero = fb.const_int(0);
    let out = counted_loop(&mut fb, n, &[zero], |fb, i, state| {
        let v = fb.call_static(step, vec![recv, i]).unwrap();
        vec![fb.iadd(state[0], v)]
    });
    fb.ret(Some(out[0]));
    let g = fb.finish();
    p.define_method(main, g);
    (p, main)
}

#[test]
fn monomorphic_profile_speculates_with_an_uncommon_trap_that_never_fires() {
    // A fully covered (monomorphic) profile must clear the confidence gate:
    // the compiled code carries the uncommon trap instead of a virtual
    // fallback — and since the speculation holds, it never fires.
    let (p, main) = monomorphic_workload();
    let config = VmConfig {
        hotness_threshold: 2,
        deopt: true,
        ..VmConfig::default()
    };
    let mut vm = Machine::new(&p, Box::new(IncrementalInliner::new()), config);
    for _ in 0..3 {
        vm.run(main, vec![Value::Int(20)]).expect("run completes");
    }
    let step = p.function_by_name("step").expect("step exists");
    let graph = vm.compiled_graph(step).expect("step is compiled");
    assert!(
        has_deopt_terminator(graph),
        "a fully covered profile must speculate with an uncommon trap"
    );
    let b = vm.bailouts();
    assert_eq!(b.deopts, 0, "a held speculation never traps");
    assert_eq!(b.invalidations, 0);
    assert_eq!(b.recompiles, 0);
}
