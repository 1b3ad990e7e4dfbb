#![warn(missing_docs)]

//! # incline-baselines
//!
//! The inliners the paper's evaluation compares against (§V, Figure 9):
//!
//! * [`GreedyInliner`] — the open-source-Graal-style greedy priority
//!   inliner (Steiner et al.): no exploration phase, no alternation with
//!   the optimizer, fixed thresholds, monomorphic speculation only,
//! * [`C2Inliner`] — HotSpot-C2-style: depth-first parse-time inlining of
//!   trivial methods, fixed size/frequency/level limits, bimorphic
//!   receiver speculation,
//! * [`NoInline`] (re-exported from `incline-core`) — compiles without
//!   inlining, isolating scalar optimization effects.
//!
//! All of them implement [`incline_core::Inliner`], the contract the VM
//! drives the paper's algorithm through, so measured differences come from
//! inlining policy alone. Like `incline-core`, this crate does not depend
//! on the VM.

pub mod c2;
pub mod greedy;

pub use c2::C2Inliner;
pub use greedy::GreedyInliner;
pub use incline_core::NoInline;
