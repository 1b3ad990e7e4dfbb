#![warn(missing_docs)]

//! # incline-core
//!
//! The paper's contribution: an **optimization-driven incremental inline
//! substitution algorithm** for JIT compilers (Prokopec, Duboscq,
//! Leopoldseder, Würthinger — CGO 2019), reimplemented over the
//! [`incline_ir`]/[`incline_opt`]/[`incline_profile`]/[`incline_trace`]
//! substrate.
//!
//! The algorithm alternates three phases over a *partial call tree*
//! ([`calltree::CallTree`]) until termination:
//!
//! 1. **Expansion** — priority-guided exploration (Equations 5–7) gated by
//!    an *adaptive threshold* that rises with the explored tree size
//!    (Equation 8),
//! 2. **Cost–benefit analysis** — bottom-up greedy *callsite clustering*
//!    over `b|c` tuples (Equations 9–11, Listing 6),
//! 3. **Inlining** — best-cluster-first substitution under an adaptive
//!    root-size-sensitive threshold (Equation 12), with Hölzle–Ungar
//!    typeswitches for polymorphic callsites (Equation 13) and a recursion
//!    penalty (Equation 14).
//!
//! Benefits are estimated by **deep inlining trials**: every explored node
//! holds a private copy of its callee's IR, specialized with the concrete
//! argument types and constants of its callsite and pre-optimized; the
//! count of triggered optimizations feeds Equation 4. A [`TrialCache`]
//! memoizes them across rounds and compilations.
//!
//! The entry point is [`IncrementalInliner`], an [`Inliner`]. Every
//! ablation of the paper's evaluation is a [`PolicyConfig`]. The contract
//! ([`inliner`]) lives here, below the VM that drives and re-exports it.

pub mod algorithm;
pub mod calltree;
pub mod inliner;
pub mod metrics;
pub mod policy;
pub mod render;
pub mod trials;
pub mod typeswitch;

pub use algorithm::IncrementalInliner;
pub use calltree::{CallNode, CallTree, NodeId, NodeKind};
pub use inliner::{
    optimize_once, CompileCx, CompileError, CompileOutcome, InlineStats, Inliner, NoInline,
    Speculation, DEOPT_CONFIDENCE,
};
pub use metrics::Tuple;
pub use policy::{Clustering, ExpansionThreshold, InlineThreshold, PolicyConfig, Trials};
pub use trials::{TrialCache, TrialKey, TrialOutcome};
