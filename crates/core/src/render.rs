//! ASCII rendering of partial call trees — the paper's Figures 2–4.
//!
//! Nodes are annotated with their kind tag (`E` expanded, `C` cutoff,
//! `D` deleted, `G` generic, `P` polymorphic, `I` inlined), frequency,
//! IR size, trial counts and cost–benefit tuple, and cluster membership
//! is shown with `*` (in the same cluster as the parent).

use std::fmt::Write as _;

use crate::calltree::{CallTree, NodeId, NodeKind};
use crate::inliner::CompileCx;

/// Single-letter tag for a node kind (paper notation).
pub fn kind_tag(kind: NodeKind) -> char {
    match kind {
        NodeKind::Root => 'R',
        NodeKind::Expanded => 'E',
        NodeKind::Cutoff => 'C',
        NodeKind::Deleted => 'D',
        NodeKind::Generic => 'G',
        NodeKind::Polymorphic => 'P',
        NodeKind::Inlined => 'I',
    }
}

/// Renders the tree rooted at `tree.root()`.
pub fn render(tree: &CallTree, cx: &CompileCx<'_>) -> String {
    let mut out = String::new();
    render_node(tree, tree.root(), cx, "", true, &mut out);
    out
}

fn render_node(
    tree: &CallTree,
    n: NodeId,
    cx: &CompileCx<'_>,
    prefix: &str,
    last: bool,
    out: &mut String,
) {
    let node = tree.node(n);
    let connector = if prefix.is_empty() {
        ""
    } else if last {
        "└─ "
    } else {
        "├─ "
    };
    let name = match node.method {
        Some(m) => {
            let md = cx.program.method(m);
            match md.holder {
                Some(h) => format!("{}::{}", cx.program.class(h).name, md.name),
                None => md.name.clone(),
            }
        }
        None => "<dispatch>".to_string(),
    };
    let cluster = if node.inlined_with_parent { "*" } else { "" };
    let _ = write!(
        out,
        "{prefix}{connector}[{}]{cluster} {name}",
        kind_tag(node.kind)
    );
    let _ = write!(out, "  f={:.2} |ir|={:.0}", node.freq, tree.ir_size(n, cx));
    if node.ns > 0 || node.no > 0 {
        let _ = write!(out, " Ns={} No={}", node.ns, node.no);
    }
    if matches!(node.kind, NodeKind::Expanded | NodeKind::Polymorphic) {
        let _ = write!(out, " b|c={:.1}|{:.0}", node.tuple.benefit, node.tuple.cost);
    }
    if node.poly_prob < 1.0 {
        let _ = write!(out, " p={:.2}", node.poly_prob);
    }
    let _ = writeln!(out);

    let child_prefix = if prefix.is_empty() {
        String::new()
    } else if last {
        format!("{prefix}   ")
    } else {
        format!("{prefix}│  ")
    };
    // The root's first level keeps an empty prefix for alignment.
    let child_prefix = if prefix.is_empty() && n == tree.root() {
        "  ".to_string()
    } else {
        child_prefix
    };
    let count = node.children.len();
    for (i, &c) in node.children.iter().enumerate() {
        render_node(tree, c, cx, &child_prefix, i + 1 == count, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyConfig;
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::{Program, Type};
    use incline_profile::ProfileTable;

    #[test]
    fn renders_expanded_and_cutoff_tags() {
        let mut p = Program::new();
        let leaf = p.declare_function("leaf", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, leaf);
        let x = fb.param(0);
        let one = fb.const_int(1);
        let r = fb.iadd(x, one);
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(leaf, g);
        let root = p.declare_function("root", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, root);
        let x = fb.param(0);
        let a = fb.call_static(leaf, vec![x]).unwrap();
        let b = fb.call_static(leaf, vec![a]).unwrap();
        fb.ret(Some(b));
        let g = fb.finish();
        p.define_method(root, g);

        let profiles = ProfileTable::new();
        let cx = CompileCx::new(&p, &profiles);
        let config = PolicyConfig::default();
        let mut tree = CallTree::new(root, p.method(root).graph.clone(), &cx, &config);
        let first = tree.node(tree.root()).children[0];
        tree.expand_node(first, &cx, &config);

        let s = render(&tree, &cx);
        assert!(s.contains("[R] root"), "{s}");
        assert!(s.contains("[E] leaf"), "{s}");
        assert!(s.contains("[C] leaf"), "{s}");
        assert!(s.contains("f="), "{s}");
        // Tree drawing characters present.
        assert!(s.contains("└─") || s.contains("├─"), "{s}");
    }

    #[test]
    fn kind_tags_match_paper_notation() {
        assert_eq!(kind_tag(NodeKind::Expanded), 'E');
        assert_eq!(kind_tag(NodeKind::Cutoff), 'C');
        assert_eq!(kind_tag(NodeKind::Deleted), 'D');
        assert_eq!(kind_tag(NodeKind::Generic), 'G');
        assert_eq!(kind_tag(NodeKind::Polymorphic), 'P');
    }
}
