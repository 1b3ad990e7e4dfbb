#![warn(missing_docs)]

//! # incline-opt
//!
//! Optimization passes over the [`incline_ir`] graph IR, reproducing the
//! transformation bundle that the paper's inliner interacts with:
//!
//! * [`canonicalize()`]: constant folding, strength reduction, branch
//!   pruning, type-check folding, devirtualization, block merging — the
//!   "simple optimizations" whose trigger counts feed the inliner's
//!   benefit estimate (Equation 4),
//! * [`gvn()`]: dominator-scoped global value numbering,
//! * [`rw_elim`]: read–write elimination (store→load forwarding),
//! * [`dce()`]: dead code elimination,
//! * [`optimize`]: the full fixpoint pipeline used between inlining rounds
//!   and by deep inlining trials,
//! * [`peel_loops`]: first-iteration loop peeling on type-narrowing
//!   headers — outside the pipeline, since no workload has such a loop
//!   (see [`peel`]).
//!
//! Every pass returns [`OptStats`] so callers can attribute events.
//!
//! ```
//! use incline_ir::{Program, FunctionBuilder, Type};
//!
//! let mut p = Program::new();
//! let m = p.declare_function("f", vec![], Type::Int);
//! let mut fb = FunctionBuilder::new(&p, m);
//! let a = fb.const_int(40);
//! let b = fb.const_int(2);
//! let r = fb.iadd(a, b);
//! fb.ret(Some(r));
//! let mut g = fb.finish();
//! let stats = incline_opt::optimize(&p, &mut g);
//! assert_eq!(stats.const_fold, 1);
//! ```

mod alias;
pub mod canonicalize;
pub mod condelim;
pub mod dce;
pub mod fuel;
pub mod gvn;
mod hash;
pub mod peel;
pub mod pipeline;
pub mod rwelim;
pub mod stats;
pub mod typeprop;

pub use canonicalize::canonicalize;
pub use condelim::cond_elim;
pub use dce::dce;
pub use fuel::{CompileFuel, UNLIMITED_FUEL};
pub use gvn::gvn;
pub use peel::peel_loops;
pub use pipeline::{optimize, optimize_converged, optimize_observed, PipelineRun, MAX_ROUNDS};
pub use rwelim::rw_elim;
pub use stats::OptStats;
pub use typeprop::type_prop;
