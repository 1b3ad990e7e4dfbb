//! A HotSpot-C2-style inliner baseline.
//!
//! Mirrors the paper's description (§V): "the standard HotSpot C2
//! compiler, which inlines a single method at a time (first only trivial
//! methods during bytecode parsing, and larger methods in a separate,
//! later phase), with a greedy heuristic". Our reproduction follows C2's
//! well-known knobs, rescaled to IR nodes:
//!
//! * trivial callees (≤ `TRIVIAL_SIZE`, cf. `MaxTrivialSize`) inline
//!   always during the depth-first "parse" pass,
//! * hot callees inline when ≤ `FREQ_INLINE_SIZE` (cf. `FreqInlineSize`),
//! * nesting is bounded by `MAX_INLINE_LEVEL` (cf. `MaxInlineLevel` = 9),
//! * direct recursion is bounded by `MAX_RECURSIVE_INLINE` (= 1),
//! * bimorphic speculation: up to two receiver types from the profile
//!   (C2's bimorphic inlining), each receiver needing ≥ `MIN_RECEIVER_PROB`,
//! * one optimization pass afterwards — no alternation, no clustering,
//!   no inlining trials.

use incline_core::typeswitch::{emit_typeswitch, TypeswitchCase};
use incline_core::{optimize_once, CompileCx, CompileError, CompileOutcome, InlineStats, Inliner};
use incline_ir::graph::{CallTarget, Op};
use incline_ir::inline::inline_call;
use incline_ir::{Graph, InstId, MethodId};
use incline_trace::CompileEvent;

/// Always-inline size (cf. `MaxTrivialSize`).
const TRIVIAL_SIZE: usize = 10;
/// Hot-callee inline size (cf. `FreqInlineSize`).
const FREQ_INLINE_SIZE: usize = 80;
/// Hotness: minimum relative callsite frequency for non-trivial inlining.
const MIN_FREQUENCY: f64 = 0.25;
/// Maximum inline nesting depth (cf. `MaxInlineLevel`).
const MAX_INLINE_LEVEL: usize = 9;
/// Maximum direct-recursive inlines (cf. `MaxRecursiveInline`).
const MAX_RECURSIVE_INLINE: usize = 1;
/// Root size limit (cf. `DesiredMethodLimit`).
const METHOD_LIMIT: usize = 2_000;
/// Minimum per-receiver probability for bimorphic speculation.
const MIN_RECEIVER_PROB: f64 = 0.20;

/// The C2-style inliner.
#[derive(Clone, Debug, Default)]
pub struct C2Inliner;

impl C2Inliner {
    /// Creates the baseline.
    pub fn new() -> Self {
        C2Inliner
    }
}

impl Inliner for C2Inliner {
    fn name(&self) -> &str {
        "c2"
    }

    fn compile(
        &self,
        method: MethodId,
        cx: &CompileCx<'_>,
    ) -> Result<CompileOutcome, CompileError> {
        let mut graph = cx.root_graph(method)?;
        let mut state = State {
            inlined_calls: 0,
            explored: 0,
            spec_sites: 0,
            root: method,
        };
        // Depth-first parse-time inlining over the root's callsites.
        let sites: Vec<InstId> = graph.callsites().iter().map(|&(_, i)| i).collect();
        for inst in sites {
            self.try_inline(cx, &mut graph, inst, 1.0, 0, 0, &mut state);
        }
        let stats = InlineStats {
            inlined_calls: state.inlined_calls,
            explored_nodes: state.explored as u64,
            speculative_sites: state.spec_sites,
            ..InlineStats::default()
        };
        Ok(optimize_once(cx, graph, state.explored, stats))
    }
}

struct State {
    inlined_calls: u64,
    explored: usize,
    spec_sites: u64,
    root: MethodId,
}

impl C2Inliner {
    /// Attempts to inline one callsite depth-first, C2-style.
    #[allow(clippy::too_many_arguments)]
    fn try_inline(
        &self,
        cx: &CompileCx<'_>,
        graph: &mut Graph,
        inst: InstId,
        freq: f64,
        level: usize,
        rec: usize,
        state: &mut State,
    ) {
        if level >= MAX_INLINE_LEVEL || graph.size() > METHOD_LIMIT {
            return;
        }
        let Some((block, _)) = graph.callsites().into_iter().find(|&(_, i)| i == inst) else {
            return;
        };
        let Op::Call(info) = graph.inst(inst).op.clone() else {
            return;
        };
        let site_freq = freq * cx.profiles.local_frequency(info.site);

        match info.target {
            CallTarget::Static(target) => {
                let callee = cx.program.method(target);
                if !callee.can_inline() || callee.ir_size() == 0 {
                    return;
                }
                let size = callee.ir_size();
                let trivial = size <= TRIVIAL_SIZE;
                let hot = site_freq >= MIN_FREQUENCY && size <= FREQ_INLINE_SIZE;
                if !(trivial || hot) {
                    cx.emit(|| CompileEvent::InlineDecision {
                        method: Some(target),
                        benefit: site_freq,
                        cost: size as f64,
                        threshold: MIN_FREQUENCY,
                        root_size: graph.size() as f64,
                        accepted: false,
                    });
                    return;
                }
                let next_rec = if target == state.root { rec + 1 } else { rec };
                if target == state.root && next_rec > MAX_RECURSIVE_INLINE {
                    return;
                }
                // A spent compile budget winds the parse down gracefully.
                if !cx.charge(size as u64) {
                    return;
                }
                cx.emit(|| CompileEvent::InlineDecision {
                    method: Some(target),
                    benefit: site_freq,
                    cost: size as f64,
                    threshold: MIN_FREQUENCY,
                    root_size: graph.size() as f64,
                    accepted: true,
                });
                state.explored += size;
                let res = inline_call(graph, block, inst, &callee.graph);
                state.inlined_calls += 1;
                // Recurse into the callee's callsites (depth-first parse),
                // in instruction order.
                for &(old, ni) in &res.calls {
                    let site = callee.graph.inst(old).op.call_site().expect("call");
                    let nf = site_freq * cx.profiles.local_frequency(site);
                    self.try_inline(
                        cx,
                        graph,
                        ni,
                        nf / site_freq.max(f64::MIN_POSITIVE),
                        level + 1,
                        next_rec,
                        state,
                    );
                }
            }
            CallTarget::Virtual(sel) => {
                // Bimorphic speculation from the receiver profile.
                let profile = cx.profiles.receiver_profile(info.site);
                let mut cases = Vec::new();
                for e in profile.iter().take(2) {
                    if e.probability < MIN_RECEIVER_PROB {
                        continue;
                    }
                    if let Some(m) = cx.program.resolve(e.class, sel) {
                        if !cases.iter().any(|cs: &TypeswitchCase| cs.target == m) {
                            cases.push(TypeswitchCase {
                                target: m,
                                guard: e.class,
                            });
                        }
                    }
                }
                // C2 only speculates when the profile is essentially
                // covered by the taken cases.
                let coverage: f64 = profile
                    .iter()
                    .filter(|e| cases.iter().any(|cs| cs.guard == e.class))
                    .map(|e| e.probability)
                    .sum();
                if cases.is_empty() || coverage < 0.85 {
                    return;
                }
                cx.emit(|| CompileEvent::InlineDecision {
                    method: None,
                    benefit: coverage,
                    cost: cases.len() as f64,
                    threshold: 0.85,
                    root_size: graph.size() as f64,
                    accepted: true,
                });
                // With deoptimization support and near-total coverage the
                // fallback becomes an uncommon trap instead of the virtual
                // call (the classic C2 uncommon-trap shape).
                let fallback = cx.speculation.fallback(coverage);
                let res = emit_typeswitch(cx.program, graph, block, inst, &cases, fallback);
                state.inlined_calls += 1;
                state.spec_sites += 1;
                // The per-case frequency is already folded into `site_freq`.
                for &case in &res.case_calls {
                    self.try_inline(cx, graph, case, freq, level + 1, rec, state);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::verify::verify_graph;
    use incline_ir::{CallSiteId, Program, RetType, Type};
    use incline_profile::ProfileTable;

    #[test]
    fn parse_time_trivial_inlining_cascades() {
        // t1 → t2 → t3, all trivial: the depth-first pass flattens all.
        let mut p = Program::new();
        let t3 = p.declare_function("t3", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, t3);
        let x = fb.param(0);
        let k = fb.const_int(3);
        let r = fb.iadd(x, k);
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(t3, g);
        let t2 = p.declare_function("t2", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, t2);
        let x = fb.param(0);
        let r = fb.call_static(t3, vec![x]).unwrap();
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(t2, g);
        let root = p.declare_function("root", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, root);
        let x = fb.param(0);
        let r = fb.call_static(t2, vec![x]).unwrap();
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(root, g);

        let profiles = ProfileTable::new();
        let cx = CompileCx::new(&p, &profiles);
        let out = C2Inliner::new().compile(root, &cx).unwrap();
        assert_eq!(out.stats.inlined_calls, 2);
        assert!(out.graph.callsites().is_empty());
        verify_graph(&p, &out.graph, &[Type::Int], RetType::Value(Type::Int)).unwrap();
    }

    #[test]
    fn inline_level_bounded() {
        // A self-calling trivial method: recursion guard stops at 1.
        let mut p = Program::new();
        let f = p.declare_function("f", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, f);
        let x = fb.param(0);
        let r = fb.call_static(f, vec![x]).unwrap();
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(f, g);
        let profiles = ProfileTable::new();
        let cx = CompileCx::new(&p, &profiles);
        let out = C2Inliner::new().compile(f, &cx).unwrap();
        assert!(out.stats.inlined_calls <= 1, "{:?}", out.stats);
        verify_graph(&p, &out.graph, &[Type::Int], RetType::Value(Type::Int)).unwrap();
    }

    #[test]
    fn bimorphic_speculation_with_coverage() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let b = p.add_class("B", Some(a));
        let c = p.add_class("C", Some(a));
        let d = p.add_class("D", Some(a));
        let ma = p.declare_method(a, "go", vec![], Type::Int);
        let mb = p.declare_method(b, "go", vec![], Type::Int);
        let mc = p.declare_method(c, "go", vec![], Type::Int);
        let md = p.declare_method(d, "go", vec![], Type::Int);
        for (m, k) in [(ma, 1), (mb, 2), (mc, 3), (md, 4)] {
            let mut fb = FunctionBuilder::new(&p, m);
            let v = fb.const_int(k);
            fb.ret(Some(v));
            let g = fb.finish();
            p.define_method(m, g);
        }
        let root = p.declare_function("root", vec![Type::Object(a)], Type::Int);
        let mut fb = FunctionBuilder::new(&p, root);
        let recv = fb.param(0);
        let sel = fb.program().selector_by_name("go", 1).unwrap();
        let r = fb.call_virtual(sel, vec![recv]).unwrap();
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(root, g);
        let site = CallSiteId {
            method: root,
            index: 0,
        };

        // 60/40 two receivers: bimorphic, covered → speculate + inline.
        let mut bi = ProfileTable::new();
        bi.record_invocation(root);
        for _ in 0..60 {
            bi.record_receiver(site, b);
        }
        for _ in 0..40 {
            bi.record_receiver(site, c);
        }
        let cx = CompileCx::new(&p, &bi);
        let out = C2Inliner::new().compile(root, &cx).unwrap();
        assert!(out.stats.inlined_calls >= 3, "{:?}", out.stats); // switch + 2 bodies
        verify_graph(
            &p,
            &out.graph,
            &[Type::Object(a)],
            RetType::Value(Type::Int),
        )
        .unwrap();

        // Megamorphic 40/30/30: top-2 coverage only 70% → stay virtual.
        let mut mega = ProfileTable::new();
        mega.record_invocation(root);
        for _ in 0..40 {
            mega.record_receiver(site, b);
        }
        for _ in 0..30 {
            mega.record_receiver(site, c);
        }
        for _ in 0..30 {
            mega.record_receiver(site, d);
        }
        let cx = CompileCx::new(&p, &mega);
        let out = C2Inliner::new().compile(root, &cx).unwrap();
        assert_eq!(
            out.stats.inlined_calls, 0,
            "megamorphic sites stay virtual for C2"
        );
    }
}
