//! Policy configuration for the incremental inlining algorithm.
//!
//! Every ablation in the paper's evaluation is a point in this
//! configuration space:
//!
//! * **Figures 6/7** (adaptive vs. fixed thresholds): [`ExpansionThreshold`]
//!   and [`InlineThreshold`] each have an `Adaptive` form (Equations 8
//!   and 12) and a `Fixed` form (`T_e`, `T_i`),
//! * **Figure 8** (clustering vs. 1-by-1): [`Clustering`],
//! * **Figure 9** (deep inlining trials vs. shallow): [`Trials`].
//!
//! Default parameter values are the paper's tuned constants (§IV).

/// When to stop exploring the call tree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ExpansionThreshold {
    /// Equation 8: expand a cutoff `n` while
    /// `B_L(n)/|ir(n)| ≥ exp((S_ir(root) − r1)/r2)` — the required
    /// benefit-density rises smoothly with the size of the explored tree.
    Adaptive {
        /// Tree-size offset (paper: ≈3000).
        r1: f64,
        /// Smoothing scale (paper: ≈500).
        r2: f64,
    },
    /// Expand unconditionally while the explored tree is smaller than
    /// `te` IR nodes (the classic fixed budget the paper compares against,
    /// `T_e ∈ {500, 1k, 3k, 5k, 7k}`).
    Fixed {
        /// Tree-size budget.
        te: usize,
    },
}

/// When a cluster may be inlined.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InlineThreshold {
    /// Equation 12 (reconstructed, see DESIGN.md §1): inline while
    /// `⟨tuple(n)⟩ ≥ t1 · 2^((|ir(root)| + |ir(n)|)/(16·t2))` — the
    /// required benefit/cost ratio grows with the root method, but is
    /// "more forgiving" towards small callees.
    Adaptive {
        /// Base threshold (paper: 0.005).
        t1: f64,
        /// Exponent scale (paper: 120).
        t2: f64,
    },
    /// Inline while the root method is smaller than `ti` IR nodes
    /// (`T_i ∈ {1k, 3k, 6k}` in Figures 6/7).
    Fixed {
        /// Root-size budget.
        ti: usize,
    },
}

/// How the cost–benefit analysis groups callsites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clustering {
    /// The paper's contribution: greedily merge adjacent clusters while
    /// the benefit-to-cost ratio improves (Listing 6).
    Clustered,
    /// The ablation of Figure 8: every method is its own cluster.
    OneByOne,
}

/// How callee benefit is estimated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trials {
    /// Deep inlining trials (§IV): propagate argument constants/types into
    /// every explored node, run canonicalization, count the triggered
    /// optimizations (`N_o`), recursively.
    Deep,
    /// Specialize only the direct children of the compilation root (the
    /// comparison baseline in Figure 9, blue vs. green).
    Shallow,
}

/// Weight of the subtree IR size `S_ir(n)` in the exploration penalty
/// (Equation 7; paper: 1e-3).
pub const P1: f64 = 1e-3;
/// Weight of the cutoff IR size `S_b(n)` in the exploration penalty
/// (Equation 7; paper: 1e-4).
pub const P2: f64 = 1e-4;
/// Weight of the few-cutoffs-left bonus of the exploration penalty
/// (Equation 7; paper: 0.5).
pub const B1: f64 = 0.5;
/// Cutoff-count pivot of that bonus (Equation 7; paper: 10).
pub const B2: f64 = 10.0;
/// Minimum receiver probability of a typeswitch target (§IV, polymorphic
/// inlining; paper: 0.10).
pub const MIN_TARGET_PROB: f64 = 0.10;
/// Hard cap on expansions per round: a compile-time safety valve of this
/// implementation, not a paper constant.
pub const MAX_EXPANSIONS_PER_ROUND: usize = 400;
/// Maximum rounds of expand/analyze/inline: a termination fallback of this
/// implementation, like the root size cap, not a paper constant.
pub const MAX_INLINE_ROUNDS: usize = 16;

/// Full policy configuration of the algorithm.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolicyConfig {
    /// Expansion stop rule.
    pub expansion: ExpansionThreshold,
    /// Inlining stop rule.
    pub inlining: InlineThreshold,
    /// Cluster formation rule.
    pub clustering: Clustering,
    /// Benefit estimation rule.
    pub trials: Trials,
    /// Maximum typeswitch targets of a polymorphic callsite (§IV; paper:
    /// 3). The `mono-switch` ablation sets 1.
    pub max_targets: usize,
    /// Hard cap on the root method size (paper: 50 000).
    pub root_size_cap: usize,
    /// Whether the recursion penalty `ψ_r` (Equation 14) is applied
    /// (an ablation knob beyond the paper).
    pub recursion_penalty: bool,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        Self::tuned()
    }
}

impl PolicyConfig {
    /// The configuration with the paper's literal constants. The paper
    /// tunes against Graal IR, whose node granularity is roughly 5× finer
    /// than ours (a small Java method is hundreds of Graal nodes). Which
    /// set is used still binds on this substrate: under [`Self::tuned`],
    /// Eq. 8 defers gauss-mix's cutoffs at benefit densities of at most
    /// 0.08 of its bar and factorie's at a median of 0.036, at explored
    /// sizes past its r1 = 1 500 and below this set's 3 000.
    pub fn paper() -> Self {
        PolicyConfig {
            expansion: ExpansionThreshold::Adaptive {
                r1: 3000.0,
                r2: 500.0,
            },
            inlining: InlineThreshold::Adaptive {
                t1: 0.005,
                t2: 120.0,
            },
            clustering: Clustering::Clustered,
            trials: Trials::Deep,
            max_targets: 3,
            root_size_cap: 50_000,
            recursion_penalty: true,
        }
    }

    /// The paper's constants rescaled to this substrate's coarser IR
    /// (÷2, following the paper's own remark that "these parameters
    /// depend on the compiler implementation"). This is the default.
    pub fn tuned() -> Self {
        PolicyConfig {
            expansion: ExpansionThreshold::Adaptive {
                r1: 1500.0,
                r2: 250.0,
            },
            inlining: InlineThreshold::Adaptive {
                t1: 0.005,
                t2: 60.0,
            },
            root_size_cap: 25_000,
            ..Self::paper()
        }
    }

    /// Fixed-threshold ablation (Figures 6/7).
    pub fn fixed(te: usize, ti: usize) -> Self {
        PolicyConfig {
            expansion: ExpansionThreshold::Fixed { te },
            inlining: InlineThreshold::Fixed { ti },
            ..Self::default()
        }
    }

    /// 1-by-1 clustering ablation (Figure 8), with explicit `t1`/`t2`.
    pub fn one_by_one(t1: f64, t2: f64) -> Self {
        PolicyConfig {
            clustering: Clustering::OneByOne,
            inlining: InlineThreshold::Adaptive { t1, t2 },
            ..Self::default()
        }
    }

    /// Shallow-trials ablation (Figure 9's "no deep trials" bars).
    pub fn shallow_trials() -> Self {
        PolicyConfig {
            trials: Trials::Shallow,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_preserved() {
        let c = PolicyConfig::paper();
        assert_eq!(
            c.expansion,
            ExpansionThreshold::Adaptive {
                r1: 3000.0,
                r2: 500.0
            }
        );
        assert_eq!(
            c.inlining,
            InlineThreshold::Adaptive {
                t1: 0.005,
                t2: 120.0
            }
        );
        assert_eq!((P1, P2, B1, B2), (1e-3, 1e-4, 0.5, 10.0));
        assert_eq!(MIN_TARGET_PROB, 0.10);
        assert_eq!(c.max_targets, 3);
        assert_eq!(c.root_size_cap, 50_000);
    }

    #[test]
    fn default_is_substrate_tuned() {
        let c = PolicyConfig::default();
        assert_eq!(c, PolicyConfig::tuned());
        assert_eq!(
            c.expansion,
            ExpansionThreshold::Adaptive {
                r1: 1500.0,
                r2: 250.0
            }
        );
        assert_eq!(
            c.inlining,
            InlineThreshold::Adaptive {
                t1: 0.005,
                t2: 60.0
            }
        );
        // Everything not rescaled matches the paper.
        assert_eq!(c.max_targets, PolicyConfig::paper().max_targets);
    }

    #[test]
    fn ablation_constructors() {
        let f = PolicyConfig::fixed(1000, 3000);
        assert_eq!(f.expansion, ExpansionThreshold::Fixed { te: 1000 });
        assert_eq!(f.inlining, InlineThreshold::Fixed { ti: 3000 });
        assert_eq!(f.clustering, Clustering::Clustered);

        let o = PolicyConfig::one_by_one(1e-4, 1440.0);
        assert_eq!(o.clustering, Clustering::OneByOne);
        assert_eq!(
            o.inlining,
            InlineThreshold::Adaptive {
                t1: 1e-4,
                t2: 1440.0
            }
        );

        let s = PolicyConfig::shallow_trials();
        assert_eq!(s.trials, Trials::Shallow);
    }
}
