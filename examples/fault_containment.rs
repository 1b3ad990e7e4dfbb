//! Demonstrates the compiler fault-containment story: inject a panic, a
//! graph corruption, and a budget exhaustion into the compile path of a
//! hot benchmark, and watch the bailout ladder keep the run correct.
//!
//! ```text
//! cargo run --release --example fault_containment
//! ```

use incline::prelude::*;

fn main() {
    let w = incline::workloads::by_name("scalatest").expect("benchmark exists");
    let input = 4;

    // Ground truth: the profiling interpreter.
    let mut interp = Machine::new(
        &w.program,
        Box::new(NoInline),
        VmConfig {
            jit: false,
            ..VmConfig::default()
        },
    );
    let reference = interp
        .run(w.entry, vec![Value::Int(input)])
        .expect("reference run");
    println!("interpreted reference: {:?}", reference.value);

    // One fault of each kind, scheduled on the first three compilations.
    let plan = FaultPlan::new()
        .inject(0, FaultKind::PanicInCompile)
        .inject(1, FaultKind::CorruptGraph)
        .inject(2, FaultKind::ExhaustFuel);
    println!("fault plan: {} scheduled faults", plan.len());

    let config = VmConfig {
        hotness_threshold: 2,
        ..VmConfig::default()
    };
    let mut vm = Machine::new(&w.program, Box::new(IncrementalInliner::new()), config);
    vm.set_fault_plan(plan);

    for i in 0..8 {
        let out = vm
            .run(w.entry, vec![Value::Int(input)])
            .expect("faulted run completes");
        assert_eq!(out.value, reference.value, "fault changed the result!");
        println!(
            "run {i}: value {:?}, {} exec + {} compile cycles",
            out.value, out.exec_cycles, out.compile_cycles
        );
    }

    let report = vm.report();
    println!("\ncompile requests: {}", report.compile_requests);
    println!("bailouts: {:#?}", report.bailouts);
    for r in &report.bailout_log {
        println!("  bailout: {} tier, {}", r.stage, r.error);
    }
    println!(
        "methods compiled despite the faults: {}",
        report.compilations
    );
    println!("blacklisted methods: {:?}", report.blacklisted);
    // Each fault costs the full tier one bailout; the degraded tier takes
    // over every time.
    let b = report.bailouts;
    assert_eq!((b.full_tier, b.degraded_tier), (3, 0));
    println!("\nevery fault was contained; every run matched the interpreter.");
}
