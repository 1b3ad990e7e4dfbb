//! The typed compilation event vocabulary.

use std::fmt;

use incline_ir::MethodId;
use incline_opt::{OptStats, PipelineStage};

use crate::json::JsonObj;

/// Which run of the optimization pipeline an [`CompileEvent::OptPassStats`]
/// delta belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptPhase {
    /// The initial cleanup pass over the root graph, before any inlining.
    Initial,
    /// The per-round pipeline run after an expand/analyze/inline round.
    Round,
    /// The final pipeline run once inlining has converged.
    Final,
    /// A trial optimization of a speculatively specialized callee body
    /// during call-tree expansion.
    Trial,
    /// A baseline inliner's single post-inlining pipeline run.
    Baseline,
    /// The degraded (inline-free) tier's pipeline run in the bailout ladder.
    Degraded,
}

impl fmt::Display for OptPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OptPhase::Initial => "initial",
            OptPhase::Round => "round",
            OptPhase::Final => "final",
            OptPhase::Trial => "trial",
            OptPhase::Baseline => "baseline",
            OptPhase::Degraded => "degraded",
        };
        f.write_str(s)
    }
}

/// A rung of the bailout ladder: the one a compilation attempt ran on (the
/// VM's `CompileStage` is this type), a [`CompileEvent::Bailout`] fell from,
/// or a snapshot decision was installed from. Ordered top rung first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum BailoutStage {
    /// The full optimizing tier (the configured inliner).
    Full,
    /// The degraded, inline-free fallback tier.
    Degraded,
}

impl fmt::Display for BailoutStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BailoutStage::Full => f.write_str("full"),
            BailoutStage::Degraded => f.write_str("degraded"),
        }
    }
}

impl BailoutStage {
    /// The tier a method lands in when this rung's code is installed.
    pub fn code_tier(self) -> CodeTier {
        match self {
            BailoutStage::Full => CodeTier::Full,
            BailoutStage::Degraded => CodeTier::Degraded,
        }
    }
}

/// The execution tier a method lands in after a compile attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodeTier {
    /// Fully optimized code from the configured inliner.
    Full,
    /// Inline-free code from the degraded fallback tier.
    Degraded,
    /// The method was blacklisted and stays in the interpreter.
    Interpreter,
}

impl fmt::Display for CodeTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeTier::Full => f.write_str("full"),
            CodeTier::Degraded => f.write_str("degraded"),
            CodeTier::Interpreter => f.write_str("interpreter"),
        }
    }
}

// Declares the event vocabulary once. The `enum` comes out as written —
// derives, variants, fields, order and doc comments — together with what
// used to restate it: `name()` (the variant's identifier), `to_json()`
// (`"ev"` first, then every field under its own name in declaration order,
// encoded by its type's `JsonField` impl) and `method()` (the field named
// `method`). `to_json()` is the only rendering of an event, so adding one is
// a variant here and its row in `tests/trace_schema.table`.
macro_rules! events {
    (
        $(#[$meta:meta])*
        pub enum $Enum:ident {$(
            $(#[$vmeta:meta])*
            $Variant:ident {$(
                $(#[$fmeta:meta])*
                $field:ident: $ty:ty,
            )*},
        )*}
    ) => {
        $(#[$meta])*
        pub enum $Enum {$(
            $(#[$vmeta])*
            $Variant {$(
                $(#[$fmeta])*
                $field: $ty,
            )*},
        )*}

        impl $Enum {
            /// Short name of the event variant, matching the JSONL `"ev"` key.
            pub fn name(&self) -> &'static str {
                match self {
                    $($Enum::$Variant { .. } => stringify!($Variant),)*
                }
            }

            /// Serialize this event as one flat JSON object (no trailing
            /// newline): `"ev"` names the variant, then one key per field,
            /// named and ordered as declared.
            pub fn to_json(&self) -> String {
                let mut buf = String::with_capacity(96);
                let mut obj = JsonObj::begin(&mut buf);
                obj.field("ev", self.name());
                match self {
                    $($Enum::$Variant { $($field,)* } => {
                        $(obj.field(stringify!($field), $field);)*
                    })*
                }
                obj.end();
                buf
            }

            /// The method this event is about, when it carries one.
            ///
            /// For inliner-internal events ([`CompileEvent::NodeExpanded`],
            /// [`CompileEvent::CutoffDeferred`], [`CompileEvent::ClusterFormed`],
            /// [`CompileEvent::InlineDecision`]) this is the *callee* under
            /// consideration, not the compilation root; lifecycle events
            /// (round/tier/bailout/install/deopt) carry the root itself.
            /// Events that declare no `method` field return `None`, as do
            /// synthetic-node decisions.
            #[allow(unused_variables)]
            pub fn method(&self) -> Option<MethodId> {
                match self {
                    $($Enum::$Variant { $($field,)* } => events!(@method $($field $field)*),)*
                }
            }
        }
    };
    // Each field arrives twice: once to be compared with the name `method`,
    // once as the binding the match arm introduced.
    (@method method $bound:ident $($rest:ident)*) => { Option::from(*$bound) };
    (@method $other:ident $bound:ident $($rest:ident)*) => { events!(@method $($rest)*) };
    (@method) => { None };
}

events! {
    /// One structured event in a compilation trace.
    ///
    /// Events are emitted in deterministic program order by the incremental
    /// inliner (per-round lifecycle), the baselines, the optimization pipeline,
    /// and the VM broker (tiers, bailouts, installation). Frequencies, sizes and
    /// benefits mirror the paper's quantities: priorities follow Eq. 5, the
    /// exploration penalty Eq. 7, expansion bars Eq. 8 and inline bars Eq. 12.
    #[derive(Clone, Debug, PartialEq)]
    pub enum CompileEvent {
        /// An expand/analyze/inline round is starting.
        RoundStart {
            /// Root method being compiled.
            method: MethodId,
            /// 1-based round number.
            round: u32,
            /// IR size of the root graph at round start.
            root_size: f64,
            /// Number of nodes currently in the call tree.
            tree_nodes: usize,
        },
        /// An expand/analyze/inline round finished.
        RoundEnd {
            /// Root method being compiled.
            method: MethodId,
            /// 1-based round number.
            round: u32,
            /// Call-tree nodes expanded this round.
            expanded: usize,
            /// Callsites inlined into the root this round.
            inlined: u64,
            /// IR size of the root graph after the round's cleanup pipeline.
            root_size: f64,
            /// Number of nodes in the call tree at round end.
            tree_nodes: usize,
        },
        /// A call-tree node was expanded: its callee body was copied, specialized
        /// and trial-optimized, and its own callsites became child nodes.
        NodeExpanded {
            /// The callee method that was expanded.
            method: MethodId,
            /// Paper state tag after expansion: E/C/D/G/P (see `render::kind_tag`).
            kind: char,
            /// Call frequency of the expanded callsite.
            freq: f64,
            /// Eq. 5 intrinsic priority that won this node its expansion slot.
            priority: f64,
            /// `N_s`: arguments more concrete than the formal parameters.
            ns: u32,
            /// `N_o`: simple optimizations triggered by the inlining trial.
            no: u64,
            /// Child callsite nodes attached by the expansion.
            attached: usize,
        },
        /// An expansion candidate was deferred: its benefit density fell below
        /// the adaptive expansion bar (Eq. 8).
        CutoffDeferred {
            /// The callee method left as a cutoff node.
            method: MethodId,
            /// Local benefit b_l of the deferred subtree.
            local_benefit: f64,
            /// IR size of the deferred subtree.
            ir_size: f64,
            /// Current root IR size driving the adaptive bar.
            root_ir: f64,
            /// Benefit density required by Eq. 8 for expansion.
            required_density: f64,
            /// Eq. 7 exploration penalty of the deferred subtree.
            penalty: f64,
        },
        /// The analyze phase merged a parent with one or more children into an
        /// inline cluster (Listing 6), pooling their benefit/cost tuples.
        ClusterFormed {
            /// Method of the cluster's head node (`None` for the root).
            method: Option<MethodId>,
            /// Nodes folded into the cluster, including the head.
            members: usize,
            /// Pooled benefit of the cluster tuple.
            benefit: f64,
            /// Pooled cost of the cluster tuple.
            cost: f64,
        },
        /// The inline phase decided whether to inline a candidate into the root.
        InlineDecision {
            /// Candidate method (`None` for synthetic nodes).
            method: Option<MethodId>,
            /// Benefit component of the candidate's tuple `b|c`.
            benefit: f64,
            /// Cost component of the candidate's tuple `b|c`.
            cost: f64,
            /// Benefit/cost ratio the candidate had to clear (Eq. 12), or a
            /// speculation confidence bar for baseline speculative decisions.
            threshold: f64,
            /// Root IR size at decision time.
            root_size: f64,
            /// Whether the candidate was inlined.
            accepted: bool,
        },
        /// One optimization-pipeline stage ran; `stats` is its delta.
        OptPassStats {
            /// Which pipeline invocation this delta belongs to.
            phase: OptPhase,
            /// Which stage of that invocation produced it.
            stage: PipelineStage,
            /// Counters for the transformations the stage applied.
            stats: OptStats,
        },
        /// Compile fuel was charged.
        FuelCharged {
            /// Units requested by this charge.
            amount: u64,
            /// Total units spent after the charge (capped at the fuel limit).
            spent: u64,
        },
        /// A human-readable call-tree snapshot (the `render` output) taken at a
        /// round boundary. Only emitted for enabled sinks.
        TreeSnapshot {
            /// Round the snapshot was taken after.
            round: u32,
            /// Rendered ASCII call tree.
            text: String,
        },
        /// A method transitioned to an execution tier.
        TierTransition {
            /// The method changing tiers.
            method: MethodId,
            /// The tier it landed in.
            tier: CodeTier,
        },
        /// A compile attempt bailed out of a tier.
        Bailout {
            /// The method whose compile failed.
            method: MethodId,
            /// The tier that failed.
            stage: BailoutStage,
            /// Human-readable error, as rendered by `CompileError`.
            error: String,
        },
        /// Verified machine code was installed for a method.
        CodeInstalled {
            /// The method that now has compiled code.
            method: MethodId,
            /// Modeled code size in bytes.
            bytes: u64,
            /// Final IR graph size.
            graph_size: usize,
            /// Total work nodes charged to this compilation.
            work_nodes: u64,
        },
        /// A compiled activation abandoned its speculated code and transferred
        /// back to the interpreter.
        Deoptimized {
            /// The method whose compiled activation deoptimized.
            method: MethodId,
            /// Why: `uncovered_receiver`, `drift` or `injected`.
            reason: String,
        },
        /// The broker removed a method's installed code from the code cache.
        CodeInvalidated {
            /// The method whose code was thrown away.
            method: MethodId,
            /// Modeled code bytes released back to the cache budget.
            bytes: u64,
            /// How many recompilations this method has already been granted.
            recompiles: u32,
        },
        /// A previously invalidated method was compiled again from its merged
        /// (old + fresh) profile.
        Recompiled {
            /// The method that was recompiled.
            method: MethodId,
            /// 1-based recompilation count after this install.
            recompiles: u32,
            /// Backed-off hotness threshold that gated this recompilation.
            threshold: u64,
        },
        /// A method deoptimized past the recompile cap and is now pinned to
        /// fallback-only (never `deopt`) code.
        SpeculationPinned {
            /// The pinned method.
            method: MethodId,
        },
        /// The bounded code cache evicted a method's installed code to make
        /// room under the configured budget (or on an injected `ForceEvict`).
        CodeEvicted {
            /// The method whose code was evicted.
            method: MethodId,
            /// Modeled code bytes released back to the cache budget.
            bytes: u64,
            /// Eviction policy that picked this victim (`lru`, `hotness`,
            /// `cost-benefit`, or `forced` for injected evictions).
            policy: String,
            /// Compiled activations the victim served while resident.
            resident_uses: u64,
        },
        /// Admission control refused to install a compiled package: its modeled
        /// benefit could not beat the cheapest victim, or no victim was
        /// evictable. The method stays in (or returns to) the interpreter with a
        /// backed-off re-admission bar.
        AdmissionRejected {
            /// The method whose package was rejected.
            method: MethodId,
            /// Modeled code size of the rejected package.
            bytes: u64,
            /// Why: `no_evictable_victim` or `benefit_below_bar`.
            reason: String,
        },
        /// A resident method went idle past the aging window; its eviction score
        /// floors so any policy will prefer it as a victim.
        MethodAged {
            /// The aged method.
            method: MethodId,
            /// Compiled-entry ticks since the method last ran.
            idle: u64,
        },
        /// An evicted method became hot again through the normal hotness path
        /// and was re-admitted to the code cache.
        ReTiered {
            /// The re-admitted method.
            method: MethodId,
            /// How many times this method has been evicted so far.
            evictions: u32,
        },
        /// The server simulation finished serving one request (emitted by
        /// `incline_vm::server` from the mutator loop, not by the compiler).
        RequestRetired {
            /// Name of the tenant the request belonged to.
            tenant: String,
            /// Global request sequence number (arrival order, 0-based).
            request: u64,
            /// End-to-end latency in virtual cycles (queueing + execution +
            /// mutator-visible compile stall).
            latency: u64,
            /// The mutator-visible compile stall portion of the latency.
            stall: u64,
        },
        /// Compile-queue depth sampled at a request boundary of the server
        /// simulation — the queue-depth-over-time timeline.
        QueueDepth {
            /// Global request sequence number at which the sample was taken.
            request: u64,
            /// Compilations enqueued or in flight at the sample point.
            depth: u64,
        },
        /// A warmup snapshot was parsed, fingerprint-checked and applied before
        /// the run started.
        SnapshotLoaded {
            /// Method profiles seeded from the snapshot.
            methods: u64,
            /// Methods the snapshot's decision log replays.
            decisions: u64,
        },
        /// A snapshot could not be applied (stale, corrupt, version mismatch,
        /// unreadable) and the machine fell back to a cold start.
        SnapshotFallback {
            /// Human-readable reason, as rendered by `SnapshotError`.
            reason: String,
        },
        /// End-of-run profile + decision-log snapshot was serialized and handed
        /// to its store.
        SnapshotWritten {
            /// Method profiles captured.
            methods: u64,
            /// Methods in the captured decision log.
            decisions: u64,
            /// Serialized snapshot size in bytes.
            bytes: u64,
        },
        /// N replica snapshots were merged into one before the run: profile
        /// histograms unioned with weighted counts, the decision logs unioned
        /// and checked against the merged profile.
        SnapshotMerged {
            /// Distinct replica snapshots that contributed.
            replicas: u64,
            /// Method profiles in the merged snapshot.
            methods: u64,
            /// Decided methods that survived the support check.
            decisions: u64,
            /// Decisions dropped because the merged profile no longer
            /// justified them.
            aged_out: u64,
        },
        /// A replayed snapshot decision deoptimized within its first K compiled
        /// activations and was quarantined: code dropped, seeded profile rolled
        /// back, the decision excluded from the next `snapshot_out`.
        DecisionPoisoned {
            /// The quarantined method.
            method: MethodId,
            /// Compiled activations the replayed code served before the deopt.
            activations: u64,
            /// The attribution window K it fell inside.
            window: u64,
        },
        /// A snapshot-merge support check dropped a decision the merged profile
        /// no longer justifies (the method's observed hotness fell below the
        /// support bar).
        DecisionAgedOut {
            /// The method whose decision was dropped.
            method: MethodId,
            /// The method's hotness in the merged profile.
            hotness: u64,
            /// The support bar it failed to meet.
            required: u64,
        },
    }
}
