//! Compile-broker stress tests: hundreds of methods pushed through the
//! queue in a seeded random interleaving of enqueues, invalidations,
//! synchronous compiles and drains. The invariants under test are the broker's bookkeeping laws — no request is
//! ever lost, no method is ever double-installed, and the code-cache byte
//! accounting is exactly symmetric (installing then invalidating
//! everything returns `installed_bytes` to zero).

use incline_ir::{FunctionBuilder, MethodId, Program, Rng64, Type};
use incline_vm::{
    BailoutCounters, FaultKind, FaultPlan, InstallPolicy, Machine, NoInline, QueueStats, Value,
    VmConfig,
};

/// A program with `n` tiny distinct methods (`f_i(x) = x + i`), plus an
/// entry point so the machine has something executable if needed.
fn many_methods(n: usize) -> (Program, Vec<MethodId>) {
    let mut p = Program::new();
    let mut methods = Vec::with_capacity(n);
    for i in 0..n {
        let m = p.declare_function(format!("f{i}"), vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let k = fb.const_int(i as i64);
        let r = fb.iadd(x, k);
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(m, g);
        methods.push(m);
    }
    (p, methods)
}

/// Drives one machine through `steps` seeded random queue operations,
/// asserts the bookkeeping laws, and returns the queue counters, the
/// compilations and the bailouts of the run.
fn stress(
    program: &Program,
    methods: &[MethodId],
    plan: FaultPlan,
    steps: usize,
) -> (QueueStats, u64, BailoutCounters) {
    let mut vm = Machine::new(program, Box::new(NoInline), VmConfig::default());
    vm.set_fault_plan(plan);
    let mut rng = Rng64::new(0xC0FF_EE00);
    for _ in 0..steps {
        let m = methods[rng.gen_index(methods.len())];
        match rng.gen_index(10) {
            // Mostly enqueues: build up batches so drains actually hold
            // several requests at once.
            0..=4 => {
                vm.enqueue_compile(m);
            }
            // Invalidations race against pending requests for the same
            // method (a no-op while the code is not yet installed).
            5 | 6 => {
                vm.invalidate_code(m);
            }
            // Periodic drains flush whatever batch accumulated.
            7 | 8 => {
                vm.drain_compile_queue();
            }
            // Synchronous compile: enqueue + drain in one call, mixed in
            // with the batched traffic.
            _ => {
                vm.compile_now(m);
            }
        }
    }
    vm.drain_compile_queue();
    let stats = vm.queue_stats();
    assert_eq!(vm.pending_compiles(), 0, "final drain left requests behind");
    // Every request that went in came out: nothing lost, nothing invented.
    assert_eq!(
        stats.enqueued, stats.completed,
        "lost or duplicated compile requests"
    );
    // Every completion either installed code or blacklisted the method.
    assert_eq!(
        stats.installed + vm.bailouts().blacklisted,
        stats.completed,
        "completions must split into installs and blacklists"
    );
    let compilations = vm.compilations();
    let bailouts = vm.bailouts();
    // Symmetry: tearing every install down again returns the byte
    // accounting to exactly zero. A double-install (or a missed
    // invalidation) leaves a residue here.
    for &m in methods {
        vm.invalidate_code(m);
    }
    assert_eq!(
        vm.installed_bytes(),
        0,
        "install/invalidate byte accounting must be symmetric"
    );
    (stats, compilations, bailouts)
}

#[test]
fn queue_stress_invariants_hold() {
    let (p, methods) = many_methods(300);
    let (stats, compilations, _) = stress(&p, &methods, FaultPlan::new(), 3000);
    assert!(
        stats.enqueued > 500,
        "the schedule should generate real traffic, got {stats:?}"
    );
    assert!(
        stats.max_depth > 1,
        "drains should hold several requests, got {stats:?}"
    );
    assert!(compilations > 0, "some methods must have compiled");
}

#[test]
fn queue_stress_with_injected_faults_still_balances() {
    // Sprinkle compile-path faults over the same schedule: panics and
    // fuel exhaustion fail the full tier (the degraded rung still
    // installs), so the ledger must balance with bailouts in the mix.
    let (p, methods) = many_methods(120);
    let mut plan = FaultPlan::new();
    for r in 0..2000u64 {
        match r % 13 {
            0 => plan = plan.inject(r, FaultKind::PanicInCompile),
            5 => plan = plan.inject(r, FaultKind::ExhaustFuel),
            9 => plan = plan.inject(r, FaultKind::CorruptGraph),
            _ => {}
        }
    }
    let (_, _, bailouts) = stress(&p, &methods, plan, 2000);
    assert!(
        bailouts.full_tier > 0,
        "the fault plan must actually trip full-tier bailouts: {bailouts:?}"
    );
}

#[test]
fn recompilation_after_invalidation_goes_through_the_queue() {
    // Deterministic micro-check of the enqueue guards: a second enqueue
    // while a request is in flight is refused, as is one while code is
    // installed; invalidation re-opens the gate.
    let (p, methods) = many_methods(1);
    let m = methods[0];
    let mut vm = Machine::new(&p, Box::new(NoInline), VmConfig::default());
    assert!(vm.enqueue_compile(m), "first enqueue must be accepted");
    assert!(
        !vm.enqueue_compile(m),
        "in-flight guard must refuse a second"
    );
    assert_eq!(vm.pending_compiles(), 1);
    vm.drain_compile_queue();
    assert_eq!(vm.queue_stats().installed, 1);
    assert!(
        !vm.enqueue_compile(m),
        "installed code must refuse re-enqueue"
    );
    vm.invalidate_code(m);
    assert!(vm.enqueue_compile(m), "invalidation re-opens compilation");
    vm.drain_compile_queue();
    let stats = vm.queue_stats();
    assert_eq!(
        (stats.enqueued, stats.completed, stats.installed),
        (2, 2, 2)
    );
    // The recompile kept the byte accounting symmetric.
    let bytes = vm.installed_bytes();
    assert!(bytes > 0);
    vm.invalidate_code(m);
    assert_eq!(vm.installed_bytes(), 0);
    // Executing the freshly compiled method still works.
    let out = vm.run(m, vec![Value::Int(41)]).unwrap();
    assert_eq!(out.value, Some(Value::Int(41)));
}

#[test]
fn compile_now_drains_a_request_already_in_flight() {
    // Pipelined mode leaves a request in the queue until a safepoint. A
    // `compile_now` in between must drain it and report the install; it
    // used to answer `false` (the enqueue guard refused, nothing drained)
    // with the request still pending.
    let (p, methods) = many_methods(2);
    let m = methods[0];
    let config = VmConfig {
        install_policy: InstallPolicy::Safepoint,
        ..VmConfig::default()
    };
    let mut vm = Machine::new(&p, Box::new(NoInline), config);
    assert!(vm.enqueue_compile(m));
    assert!(vm.compile_now(m), "the queued request must install");
    assert_eq!(vm.pending_compiles(), 0);
    assert_eq!(vm.compiled_methods(), vec![m]);

    // Eager replay compiles through the same path: a decided method that
    // is already queued when the snapshot arrives is replayed, not skipped.
    let snap = vm.snapshot();
    let mut warm = Machine::new(&p, Box::new(NoInline), config);
    assert!(warm.enqueue_compile(m));
    warm.apply_snapshot(&snap).expect("own snapshot applies");
    assert_eq!(warm.pending_compiles(), 0);
    assert_eq!(warm.compiled_methods(), vec![m]);
    assert_eq!(warm.report().snapshot.replayed_compiles, 1);
}
