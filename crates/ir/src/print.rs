//! Textual rendering of programs and graphs.
//!
//! The format is designed to round-trip through [`crate::parse`]:
//!
//! ```text
//! class Shape
//! class Circle : Shape {
//!   field r: float
//! }
//!
//! fn area2(Circle) -> float {
//! b0(v0: Circle):
//!   v1 = getfield Circle.r v0
//!   v2 = fmul v1, v1
//!   ret v2
//! }
//! ```
//!
//! Blocks are printed in reverse postorder, so every textual use appears
//! after its definition (our CFGs are reducible).

use std::fmt::Write as _;

use crate::dom::reverse_postorder;
use crate::graph::{CallTarget, Graph, Op, Terminator};
use crate::ids::{BlockId, ClassId, ValueId};
use crate::program::{MethodKind, Program};
use crate::types::{RetType, Type};

/// Renders a type using class names from the program.
pub fn type_str(program: &Program, ty: Type) -> String {
    match ty {
        Type::Int => "int".to_string(),
        Type::Float => "float".to_string(),
        Type::Bool => "bool".to_string(),
        Type::Object(c) => program.class(c).name.clone(),
        Type::Array(e) => format!("[{}]", type_str(program, e.to_type())),
    }
}

/// Renders a return type.
pub fn ret_type_str(program: &Program, ret: RetType) -> String {
    match ret {
        RetType::Void => "void".to_string(),
        RetType::Value(t) => type_str(program, t),
    }
}

fn args_str(args: &[ValueId]) -> String {
    args.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn edge_str(dest: BlockId, args: &[ValueId]) -> String {
    format!("{dest}({})", args_str(args))
}

/// Renders one instruction (without trailing newline): its result, its
/// mnemonic, the payload, then the operands.
pub fn inst_str(program: &Program, graph: &Graph, inst: crate::ids::InstId) -> String {
    let data = graph.inst(inst);
    let mut out = String::new();
    if let Some(r) = data.result {
        let _ = write!(out, "{r} = ");
    }
    out.push_str(data.op.mnemonic());
    let args = args_str(&data.args);
    let class = |c: ClassId| &program.class(c).name;
    let _ = match &data.op {
        Op::Nop => Ok(()),
        Op::ConstInt(k) => write!(out, " {k}"),
        Op::ConstFloat(bits) => write!(out, " {:?}", f64::from_bits(*bits)),
        Op::ConstBool(k) => write!(out, " {k}"),
        Op::ConstNull(t) => write!(out, " {}", type_str(program, *t)),
        Op::New(c) => write!(out, " {}", class(*c)),
        Op::GetField(f) | Op::SetField(f) => {
            let fd = program.field(*f);
            write!(out, " {}.{} {args}", class(fd.holder), fd.name)
        }
        Op::NewArray(e) => write!(out, " {}, {args}", type_str(program, e.to_type())),
        Op::Call(info) => match info.target {
            CallTarget::Static(m) => {
                let md = program.method(m);
                match md.holder {
                    // Devirtualized calls target class methods directly.
                    Some(h) => write!(out, " {}::{}({args})", class(h), md.name),
                    None => write!(out, " {}({args})", md.name),
                }
            }
            CallTarget::Virtual(sel) => write!(out, " {}({args})", program.selector(sel).name),
        },
        Op::InstanceOf(c) | Op::Cast(c) => write!(out, " {} {args}", class(*c)),
        _ => write!(out, " {args}"),
    };
    out
}

/// Renders a graph body (blocks in reverse postorder).
pub fn graph_str(program: &Program, graph: &Graph) -> String {
    let mut out = String::new();
    for &b in &reverse_postorder(graph) {
        let bd = graph.block(b);
        let params = bd
            .params
            .iter()
            .map(|&p| format!("{p}: {}", type_str(program, graph.value_type(p))))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(out, "{b}({params}):");
        for &i in &bd.insts {
            let _ = writeln!(out, "  {}", inst_str(program, graph, i));
        }
        let term = match &bd.term {
            Terminator::Jump(d, args) => format!("jump {}", edge_str(*d, args)),
            Terminator::Branch {
                cond,
                then_dest,
                else_dest,
            } => format!(
                "br {cond}, {}, {}",
                edge_str(then_dest.0, &then_dest.1),
                edge_str(else_dest.0, &else_dest.1)
            ),
            Terminator::Return(Some(v)) => format!("ret {v}"),
            Terminator::Return(None) => "ret".to_string(),
            Terminator::Deopt { reason } => format!("deopt {reason}"),
            Terminator::Unterminated => "<unterminated>".to_string(),
        };
        let _ = writeln!(out, "  {term}");
    }
    out
}

/// Renders the whole program: classes, then every defined method.
pub fn program_str(program: &Program) -> String {
    let mut out = String::new();
    for c in program.class_ids() {
        let cd = program.class(c);
        let _ = write!(out, "class {}", cd.name);
        if let Some(p) = cd.parent {
            let _ = write!(out, " : {}", program.class(p).name);
        }
        if cd.declared_fields.is_empty() {
            let _ = writeln!(out);
        } else {
            let _ = writeln!(out, " {{");
            for &f in &cd.declared_fields {
                let fd = program.field(f);
                let _ = writeln!(out, "  field {}: {}", fd.name, type_str(program, fd.ty));
            }
            let _ = writeln!(out, "}}");
        }
    }
    for m in program.method_ids() {
        let md = program.method(m);
        let _ = writeln!(out);
        let kw = match (md.kind, md.holder) {
            (MethodKind::Opaque, None) => "opaque fn".to_string(),
            (MethodKind::Normal, None) => "fn".to_string(),
            (MethodKind::Opaque, Some(h)) => format!("opaque method {}.", program.class(h).name),
            (MethodKind::Normal, Some(h)) => format!("method {}.", program.class(h).name),
        };
        let sep = if md.holder.is_some() { "" } else { " " };
        let params = md
            .params
            .iter()
            .map(|&t| type_str(program, t))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "{kw}{sep}{}({params}) -> {} {{",
            md.name,
            ret_type_str(program, md.ret)
        );
        let _ = write!(out, "{}", graph_str(program, &md.graph));
        let _ = writeln!(out, "}}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::graph::CmpOp;

    #[test]
    fn prints_simple_function() {
        let mut p = Program::new();
        let m = p.declare_function("inc", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let one = fb.const_int(1);
        let r = fb.iadd(x, one);
        fb.ret(Some(r));
        p.define_method(m, fb.finish());
        let s = program_str(&p);
        assert!(s.contains("fn inc(int) -> int {"), "{s}");
        assert!(s.contains("const.int 1"), "{s}");
        assert!(s.contains("iadd"), "{s}");
        assert!(s.contains("ret v2"), "{s}");
    }

    #[test]
    fn prints_classes_and_fields() {
        let mut p = Program::new();
        let a = p.add_class("Shape", None);
        p.add_field(a, "tag", Type::Int);
        let b = p.add_class("Circle", Some(a));
        p.add_field(b, "r", Type::Float);
        let s = program_str(&p);
        assert!(s.contains("class Shape {"), "{s}");
        assert!(s.contains("field tag: int"), "{s}");
        assert!(s.contains("class Circle : Shape {"), "{s}");
    }

    #[test]
    fn prints_branches_with_edge_args() {
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
        p.define_method(m, fb.finish());
        let s = program_str(&p);
        assert!(s.contains("br v2, b1(v1), b1(v0)"), "{s}");
    }

    #[test]
    fn float_constants_round_trip_textually() {
        let mut p = Program::new();
        let m = p.declare_function("k", vec![], Type::Float);
        let mut fb = FunctionBuilder::new(&p, m);
        let v = fb.const_float(0.1 + 0.2);
        fb.ret(Some(v));
        p.define_method(m, fb.finish());
        let s = program_str(&p);
        // Rust's {:?} for f64 prints the shortest lossless representation.
        assert!(s.contains(&format!("const.float {:?}", 0.1 + 0.2)), "{s}");
    }
}
