//! The greedy, non-exploring priority inliner — a stand-in for the
//! open-source Graal inliner the paper compares against (§V, "akin to the
//! inlining algorithm for JIT compilers described by Steiner et al., which
//! does not have an exploration phase").
//!
//! Differences from [`incline_core::IncrementalInliner`], mirroring the
//! paper's description of the baseline:
//!
//! * no call-tree exploration: callsites are inlined one-by-one straight
//!   into the root as they are discovered,
//! * no alternation between inlining and optimization — the optimizer runs
//!   once, at the end,
//! * no callsite clustering and no deep inlining trials,
//! * fixed thresholds: trivial callees always inline; larger ones inline
//!   while hot enough, small enough, and the root is under budget,
//! * only *monomorphic* speculation on virtual callsites (single dominant
//!   receiver), versus the paper's 3-way typeswitch.

use std::collections::HashMap;

use incline_core::typeswitch::{emit_typeswitch, TypeswitchCase};
use incline_core::{optimize_once, CompileCx, CompileError, CompileOutcome, InlineStats, Inliner};
use incline_ir::graph::{CallTarget, Op};
use incline_ir::inline::inline_call;
use incline_ir::{CallSiteId, InstId, MethodId};
use incline_trace::CompileEvent;

/// Callees at or below this IR size always inline.
const TRIVIAL_SIZE: usize = 12;
/// Callees above this IR size never inline.
const MAX_CALLEE_SIZE: usize = 150;
/// Minimum relative callsite frequency for non-trivial inlining.
const MIN_FREQUENCY: f64 = 0.5;
/// Stop inlining once the root exceeds this IR size.
const ROOT_BUDGET: usize = 2_500;
/// Minimum receiver probability for monomorphic speculation.
const MONO_SPECULATION: f64 = 0.90;

/// The greedy inliner.
#[derive(Clone, Debug, Default)]
pub struct GreedyInliner;

impl GreedyInliner {
    /// Creates the baseline.
    pub fn new() -> Self {
        GreedyInliner
    }
}

/// A pending callsite in the work queue.
struct WorkItem {
    inst: InstId,
    freq: f64,
    depth: usize,
}

impl Inliner for GreedyInliner {
    fn name(&self) -> &str {
        "greedy"
    }

    fn compile(
        &self,
        method: MethodId,
        cx: &CompileCx<'_>,
    ) -> Result<CompileOutcome, CompileError> {
        let mut graph = cx.root_graph(method)?;
        let mut inlined_calls = 0u64;
        let mut explored = 0usize;
        let mut spec_sites = 0u64;
        // Recursive-inline guard: how many times each method was inlined
        // along the current greedy pass (global cap, cheap and effective).
        let mut inline_counts: HashMap<MethodId, usize> = HashMap::new();

        let mut queue: Vec<WorkItem> = graph
            .callsites()
            .iter()
            .map(|&(_, i)| {
                let site = graph.inst(i).op.call_site().expect("call inst");
                WorkItem {
                    inst: i,
                    freq: cx.profiles.local_frequency(site),
                    depth: 0,
                }
            })
            .collect();

        while !queue.is_empty() {
            // Highest frequency first (the greedy priority).
            let (idx, _) = queue
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| {
                    a.freq
                        .partial_cmp(&b.freq)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("queue nonempty");
            let item = queue.swap_remove(idx);

            if graph.size() > ROOT_BUDGET {
                break;
            }
            // The callsite may have been rewritten by a prior speculation.
            let Some((block, _)) = graph.callsites().into_iter().find(|&(_, i)| i == item.inst)
            else {
                continue;
            };
            let Op::Call(info) = graph.inst(item.inst).op.clone() else {
                continue;
            };

            // Resolve a concrete target, speculating monomorphically on
            // virtual callsites with a dominant receiver.
            let target = match info.target {
                CallTarget::Static(m) => Some(m),
                CallTarget::Virtual(sel) => {
                    // Monomorphic speculation only: rewrite into a guarded
                    // direct call and requeue the new callsite.
                    let profile = cx.profiles.receiver_profile(info.site);
                    let dominant = profile
                        .first()
                        .filter(|e| e.probability >= MONO_SPECULATION)
                        .and_then(|e| {
                            cx.program
                                .resolve(e.class, sel)
                                .map(|m| (m, e.class, e.probability))
                        });
                    if let Some((m, guard, prob)) = dominant {
                        cx.emit(|| CompileEvent::InlineDecision {
                            method: Some(m),
                            benefit: prob,
                            cost: 0.0,
                            threshold: MONO_SPECULATION,
                            root_size: graph.size() as f64,
                            accepted: true,
                        });
                        // Monomorphic uncommon trap when the dominant
                        // receiver alone clears the confidence bar.
                        let res = emit_typeswitch(
                            cx.program,
                            &mut graph,
                            block,
                            item.inst,
                            &[TypeswitchCase { target: m, guard }],
                            cx.speculation.fallback(prob),
                        );
                        inlined_calls += 1; // the speculation itself
                        spec_sites += 1;
                        queue.push(WorkItem {
                            inst: res.case_calls[0],
                            freq: item.freq,
                            depth: item.depth,
                        });
                    }
                    None
                }
            };
            let Some(target) = target else { continue };

            let callee = cx.program.method(target);
            if !callee.can_inline() || callee.ir_size() == 0 {
                continue;
            }
            let callee_size = callee.ir_size();
            let trivial = callee_size <= TRIVIAL_SIZE;
            let worthwhile = item.freq >= MIN_FREQUENCY && callee_size <= MAX_CALLEE_SIZE;
            if !(trivial || worthwhile) {
                cx.emit(|| CompileEvent::InlineDecision {
                    method: Some(target),
                    benefit: item.freq,
                    cost: callee_size as f64,
                    threshold: MIN_FREQUENCY,
                    root_size: graph.size() as f64,
                    accepted: false,
                });
                continue;
            }
            let count = inline_counts.entry(target).or_insert(0);
            if *count >= 24 || (target == method && *count >= 1) {
                continue; // recursion guard
            }
            // A spent compile budget winds the pass down; what has been
            // inlined so far still compiles.
            if !cx.charge(callee_size as u64) {
                break;
            }
            *count += 1;
            cx.emit(|| CompileEvent::InlineDecision {
                method: Some(target),
                benefit: item.freq,
                cost: callee_size as f64,
                threshold: MIN_FREQUENCY,
                root_size: graph.size() as f64,
                accepted: true,
            });

            explored += callee_size;
            let res = inline_call(&mut graph, block, item.inst, &callee.graph);
            inlined_calls += 1;

            // Newly exposed callsites join the queue, in instruction order.
            for &(old, inst) in &res.calls {
                let site: CallSiteId = callee.graph.inst(old).op.call_site().expect("call");
                queue.push(WorkItem {
                    inst,
                    freq: item.freq * cx.profiles.local_frequency(site),
                    depth: item.depth + 1,
                });
            }
        }

        // One optimization pass at the end (no alternation).
        let stats = InlineStats {
            inlined_calls,
            explored_nodes: explored as u64,
            speculative_sites: spec_sites,
            ..InlineStats::default()
        };
        Ok(optimize_once(cx, graph, explored, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::verify::verify_graph;
    use incline_ir::{Program, RetType, Type};
    use incline_profile::ProfileTable;

    #[test]
    fn inlines_trivial_callees_without_profiles() {
        let mut p = Program::new();
        let inc = p.declare_function("inc", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, inc);
        let x = fb.param(0);
        let one = fb.const_int(1);
        let r = fb.iadd(x, one);
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(inc, g);
        let root = p.declare_function("root", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, root);
        let x = fb.param(0);
        let r = fb.call_static(inc, vec![x]).unwrap();
        fb.ret(Some(r));
        let g = fb.finish();
        p.define_method(root, g);

        let profiles = ProfileTable::new();
        let cx = CompileCx::new(&p, &profiles);
        let out = GreedyInliner::new().compile(root, &cx).unwrap();
        assert_eq!(out.stats.inlined_calls, 1);
        assert!(out.graph.callsites().is_empty());
        verify_graph(&p, &out.graph, &[Type::Int], RetType::Value(Type::Int)).unwrap();
    }

    #[test]
    fn respects_budget() {
        // A chain of self-similar medium methods: the greedy budget stops
        // the cascade.
        let mut p = Program::new();
        let mut prev: Option<MethodId> = None;
        let mut ids = Vec::new();
        for i in 0..40 {
            let m = p.declare_function(format!("m{i}"), vec![Type::Int], Type::Int);
            ids.push(m);
            let mut fb = FunctionBuilder::new(&p, m);
            let x = fb.param(0);
            // Pad with arithmetic so the method is non-trivial and the
            // cascade overruns the root budget partway through.
            let mut acc = x;
            for k in 0..60 {
                let c = fb.const_int(k);
                acc = fb.iadd(acc, c);
            }
            let r = match prev {
                Some(t) => fb.call_static(t, vec![acc]).unwrap(),
                None => acc,
            };
            fb.ret(Some(r));
            let g = fb.finish();
            p.define_method(m, g);
            prev = Some(m);
        }
        let root = *ids.last().unwrap();
        let mut profiles = ProfileTable::new();
        for &m in &ids {
            for _ in 0..10 {
                profiles.record_invocation(m);
                profiles.record_callsite(CallSiteId {
                    method: m,
                    index: 0,
                });
            }
        }
        let cx = CompileCx::new(&p, &profiles);
        let out = GreedyInliner::new().compile(root, &cx).unwrap();
        assert!(out.stats.inlined_calls > 0);
        assert!(out.stats.inlined_calls < 39, "budget must stop the cascade");
        assert!(out.graph.size() <= 3_500);
        verify_graph(&p, &out.graph, &[Type::Int], RetType::Value(Type::Int)).unwrap();
    }

    #[test]
    fn monomorphic_speculation_only() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let b = p.add_class("B", Some(a));
        let c = p.add_class("C", Some(a));
        let ma = p.declare_method(a, "go", vec![], Type::Int);
        let mb = p.declare_method(b, "go", vec![], Type::Int);
        let mc = p.declare_method(c, "go", vec![], Type::Int);
        for (m, k) in [(ma, 1), (mb, 2), (mc, 3)] {
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

        // 50/50 profile: no speculation.
        let mut even = ProfileTable::new();
        even.record_invocation(root);
        for _ in 0..50 {
            even.record_receiver(site, b);
            even.record_receiver(site, c);
        }
        let cx = CompileCx::new(&p, &even);
        let out = GreedyInliner::new().compile(root, &cx).unwrap();
        assert_eq!(
            out.stats.inlined_calls, 0,
            "bimorphic sites stay virtual for greedy"
        );

        // 95/5 profile: speculate + inline.
        let mut skewed = ProfileTable::new();
        skewed.record_invocation(root);
        for _ in 0..95 {
            skewed.record_receiver(site, b);
        }
        for _ in 0..5 {
            skewed.record_receiver(site, c);
        }
        let cx = CompileCx::new(&p, &skewed);
        let out = GreedyInliner::new().compile(root, &cx).unwrap();
        assert!(out.stats.inlined_calls >= 1);
        verify_graph(
            &p,
            &out.graph,
            &[Type::Object(a)],
            RetType::Value(Type::Int),
        )
        .unwrap();
    }
}
