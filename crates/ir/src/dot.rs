//! Graphviz (DOT) export of control-flow graphs.
//!
//! `dot -Tsvg` renders the output; each basic block becomes a record node
//! listing its parameters, instructions and terminator, with edges labeled
//! by the block arguments they pass. Handy for debugging inlining results:
//!
//! ```
//! use incline_ir::{Program, FunctionBuilder, Type};
//!
//! let mut p = Program::new();
//! let m = p.declare_function("f", vec![Type::Int], Type::Int);
//! let mut fb = FunctionBuilder::new(&p, m);
//! let x = fb.param(0);
//! fb.ret(Some(x));
//! let g = fb.finish();
//! let dot = incline_ir::dot::graph_to_dot(&p, &g, "f");
//! assert!(dot.starts_with("digraph"));
//! ```

use std::fmt::Write as _;

use crate::graph::{Graph, Terminator};
use crate::print::inst_str;
use crate::program::Program;

/// Escapes a label for DOT record syntax.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('{', "\\{")
        .replace('}', "\\}")
        .replace('<', "\\<")
        .replace('>', "\\>")
        .replace('|', "\\|")
}

/// Renders the reachable CFG of `graph` as a DOT digraph named `name`.
pub fn graph_to_dot(program: &Program, graph: &Graph, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", escape(name));
    let _ = writeln!(
        out,
        "  node [shape=record, fontname=\"monospace\", fontsize=10];"
    );
    for &b in graph.block_order().iter() {
        let bd = graph.block(b);
        let params = bd
            .params
            .iter()
            .map(|&p| {
                format!(
                    "{p}: {}",
                    crate::print::type_str(program, graph.value_type(p))
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let mut lines = vec![format!("{b}({params})")];
        for &i in &bd.insts {
            lines.push(inst_str(program, graph, i));
        }
        let term = match &bd.term {
            Terminator::Jump(d, _) => format!("jump {d}"),
            Terminator::Branch {
                cond,
                then_dest,
                else_dest,
            } => {
                format!("br {cond} ? {} : {}", then_dest.0, else_dest.0)
            }
            Terminator::Return(Some(v)) => format!("ret {v}"),
            Terminator::Return(None) => "ret".to_string(),
            Terminator::Deopt { reason } => format!("deopt {reason}"),
            Terminator::Unterminated => "<unterminated>".to_string(),
        };
        lines.push(term);
        let label = lines
            .iter()
            .map(|l| escape(l))
            .collect::<Vec<_>>()
            .join("\\l");
        let _ = writeln!(out, "  {b} [label=\"{label}\\l\"];");
        match &bd.term {
            Terminator::Jump(d, args) => {
                let _ = writeln!(
                    out,
                    "  {b} -> {d} [label=\"{}\"];",
                    escape(&args_label(args))
                );
            }
            Terminator::Branch {
                then_dest,
                else_dest,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "  {b} -> {} [label=\"T {}\", color=darkgreen];",
                    then_dest.0,
                    escape(&args_label(&then_dest.1))
                );
                let _ = writeln!(
                    out,
                    "  {b} -> {} [label=\"F {}\", color=crimson];",
                    else_dest.0,
                    escape(&args_label(&else_dest.1))
                );
            }
            _ => {}
        }
    }
    out.push_str("}\n");
    out
}

fn args_label(args: &[crate::ids::ValueId]) -> String {
    if args.is_empty() {
        String::new()
    } else {
        format!(
            "({})",
            args.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::{CmpOp, Type};

    #[test]
    fn emits_blocks_and_edges() {
        let mut p = Program::new();
        let m = p.declare_function("max0", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let zero = fb.const_int(0);
        let c = fb.cmp(CmpOp::ILt, x, zero);
        let (j, jp) = fb.add_block_with_params(&[Type::Int]);
        fb.branch(c, (j, vec![zero]), (j, vec![x]));
        fb.switch_to(j);
        fb.ret(Some(jp[0]));
        let g = fb.finish();
        let dot = graph_to_dot(&p, &g, "max0");
        assert!(dot.contains("digraph \"max0\""));
        assert!(dot.contains("b0 ["), "{dot}");
        assert!(dot.contains("b0 -> b1 [label=\"T (v1)\""), "{dot}");
        assert!(dot.contains("b0 -> b1 [label=\"F (v0)\""), "{dot}");
        assert!(dot.contains("ilt"), "{dot}");
        // Balanced braces.
        assert_eq!(dot.matches("digraph").count(), 1);
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn escapes_special_characters() {
        assert_eq!(escape("a|b"), "a\\|b");
        assert_eq!(escape("{x}"), "\\{x\\}");
        assert_eq!(escape("\"q\""), "\\\"q\\\"");
    }
}
