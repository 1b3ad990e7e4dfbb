//! `wall`: the end-to-end numbers. System allocator, span recorder off.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(incline_wall::main(incline_wall::Mode::Untraced, &argv));
}
