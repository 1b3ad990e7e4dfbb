//! Quickstart: build a tiny program, run it on the tiered VM with the
//! paper's inliner, and watch the JIT make it fast.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use incline::prelude::*;

fn main() -> Result<(), incline::vm::ExecError> {
    // A program with the classic inlining-friendly shape: a hot loop
    // calling a tiny helper through another small method.
    //
    //   fn inc(x)    = x + 1
    //   fn step(x)   = inc(x) * 2            (bounded to 20 bits)
    //   fn main(n)   = fold step over 0..n
    let mut p = Program::new();
    let inc = p.declare_function("inc", vec![Type::Int], Type::Int);
    let step = p.declare_function("step", vec![Type::Int], Type::Int);
    let entry = p.declare_function("main", vec![Type::Int], Type::Int);

    let mut fb = FunctionBuilder::new(&p, inc);
    let x = fb.param(0);
    let one = fb.const_int(1);
    let r = fb.iadd(x, one);
    fb.ret(Some(r));
    let body = fb.finish();
    p.define_method(inc, body);

    let mut fb = FunctionBuilder::new(&p, step);
    let x = fb.param(0);
    let i = fb.call_static(inc, vec![x]).unwrap();
    let two = fb.const_int(2);
    let d = fb.imul(i, two);
    let mask = fb.const_int(0xF_FFFF);
    let r = fb.binop(incline::ir::BinOp::IAnd, d, mask);
    fb.ret(Some(r));
    let body = fb.finish();
    p.define_method(step, body);

    let mut fb = FunctionBuilder::new(&p, entry);
    let n = fb.param(0);
    let zero = fb.const_int(0);
    let (head, hp) = fb.add_block_with_params(&[Type::Int, Type::Int]);
    let body_b = fb.add_block();
    let (done, dp) = fb.add_block_with_params(&[Type::Int]);
    fb.jump(head, vec![zero, zero]);
    fb.switch_to(head);
    let c = fb.cmp(incline::ir::CmpOp::ILt, hp[0], n);
    fb.branch(c, (body_b, vec![]), (done, vec![hp[1]]));
    fb.switch_to(body_b);
    let acc = fb.call_static(step, vec![hp[1]]).unwrap();
    let one = fb.const_int(1);
    let i2 = fb.iadd(hp[0], one);
    fb.jump(head, vec![i2, acc]);
    fb.switch_to(done);
    fb.ret(Some(dp[0]));
    let body = fb.finish();
    p.define_method(entry, body);

    // Print the program in the textual IR format.
    println!("=== program ===\n{}", incline::ir::print::program_str(&p));

    // Run it: the first iterations interpret (collecting profiles), then
    // the broker hands hot methods to the incremental inliner. The
    // measurement protocol is one fluent `RunSession`.
    let config = VmConfig {
        hotness_threshold: 3,
        ..VmConfig::default()
    };
    let spec = BenchSpec {
        entry,
        args: vec![Value::Int(10_000)],
        iterations: 8,
    };
    let result = RunSession::new(&p, spec)
        .inliner(Box::new(IncrementalInliner::new()))
        .config(config)
        .run()
        .expect("quickstart program runs");

    println!("=== warmup ===");
    for (i, cycles) in result.per_iteration.iter().enumerate() {
        println!("iteration {i}: {cycles:>9} cycles");
    }
    println!(
        "steady state: {:.0} cycles, warm after {} iterations, result = {:?}",
        result.steady_state,
        result.warmup_iterations(),
        result.final_value
    );

    // Re-run on a bare Machine to inspect what the JIT actually built.
    let mut vm = Machine::new(&p, Box::new(IncrementalInliner::new()), config);
    for _ in 0..8 {
        vm.run(entry, vec![Value::Int(10_000)])?;
    }

    println!("\n=== what the JIT did ===");
    for (m, stats) in &vm.report().compile_log {
        println!(
            "compiled {:>6}: {} callsites inlined over {} rounds, {} IR explored, final size {}",
            p.method(*m).name,
            stats.inlined_calls,
            stats.rounds,
            stats.explored_nodes,
            stats.final_size
        );
    }
    let main_graph = vm.compiled_graph(entry).expect("main is compiled by now");
    println!(
        "\ncompiled main has {} remaining callsites (the helpers are gone):",
        main_graph.callsites().len()
    );
    println!("{}", incline::ir::print::graph_str(&p, main_graph));
    Ok(())
}
