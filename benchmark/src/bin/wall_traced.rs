//! `wall-traced`: the per-layer numbers. Same passes as `wall`, with the
//! span recorder on and every allocation counted.

use incline_bench::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(incline_wall::main(incline_wall::Mode::Traced, &argv));
}
