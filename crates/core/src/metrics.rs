//! The algorithm's numeric machinery: cost–benefit tuples (Equations
//! 9–11), priorities and penalties (Equations 5–7, 14), and the adaptive
//! threshold functions (Equations 8 and 12).

use crate::policy::{ExpansionThreshold, InlineThreshold, B1, B2, P1, P2};

/// A cost–benefit tuple `b|c` (§IV, Analysis).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tuple {
    /// Estimated benefit (execution-time savings, frequency-scaled).
    pub benefit: f64,
    /// Estimated cost (code-size increase in IR nodes).
    pub cost: f64,
}

impl Tuple {
    /// Creates a tuple.
    pub fn new(benefit: f64, cost: f64) -> Self {
        Tuple { benefit, cost }
    }

    /// The merge operation `⊕` (Equation 9): component-wise addition.
    pub fn merge(self, other: Tuple) -> Tuple {
        Tuple {
            benefit: self.benefit + other.benefit,
            cost: self.cost + other.cost,
        }
    }

    /// The benefit-to-cost ratio `⟨b|c⟩` (Equation 11). Costs below one
    /// node are clamped to avoid division blow-ups on degenerate tuples.
    pub fn ratio(self) -> f64 {
        self.benefit / self.cost.max(1.0)
    }

    /// The comparison `⊙` (Equation 10): `self ⊙ other` iff
    /// `b1/c1 ≥ b2/c2`.
    pub fn dominates(self, other: Tuple) -> bool {
        self.ratio() >= other.ratio()
    }
}

/// The exploration penalty `ψ(n)` (Equation 7):
/// `ψ(n) = p1·S_ir(n) + p2·S_b(n) − b1·max(0, b2 − N_c(n)²)`.
///
/// Heavily-explored subtrees (large `S_ir`, much unexplored mass `S_b`)
/// are de-prioritized, but subtrees with only a few cutoffs left get a
/// bonus: finishing them may fuse the whole subtree into one cluster.
pub fn exploration_penalty(s_ir: f64, s_b: f64, n_c: f64) -> f64 {
    P1 * s_ir + P2 * s_b - B1 * (B2 - n_c * n_c).max(0.0)
}

/// The recursion penalty `ψ_r(n)` (Equation 14):
/// `ψ_r(n) = max(1, f(n)) · max(0, 2^d(n) − 2)`,
/// zero until recursion depth 2, exponential afterwards.
pub fn recursion_penalty(freq: f64, depth: u32) -> f64 {
    let d = depth.min(60); // 2^60 is already effectively infinite
    freq.max(1.0) * ((1u64 << d) as f64 - 2.0).max(0.0)
}

/// The benefit *density* a cutoff must reach to be expanded (the
/// right-hand side of Equation 8). For the fixed policy the bar is `−∞`
/// below the size wall and `+∞` past it, so the comparison in
/// [`should_expand`] reproduces the hard cutoff exactly. Exposed so trace
/// events can report the bar a refused expansion failed to clear.
pub fn expansion_bar(threshold: &ExpansionThreshold, s_ir_root: f64) -> f64 {
    match *threshold {
        ExpansionThreshold::Adaptive { r1, r2 } => ((s_ir_root - r1) / r2).exp(),
        ExpansionThreshold::Fixed { te } => {
            if s_ir_root < te as f64 {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            }
        }
    }
}

/// The expansion test (Equation 8 for the adaptive policy): should a
/// cutoff with local benefit `b_l` and IR size `ir_size` be expanded,
/// given the current explored-tree size `s_ir_root`?
pub fn should_expand(
    threshold: &ExpansionThreshold,
    b_l: f64,
    ir_size: f64,
    s_ir_root: f64,
) -> bool {
    b_l / ir_size.max(1.0) >= expansion_bar(threshold, s_ir_root)
}

/// The benefit-to-cost ratio a cluster must reach to be inlined (the
/// right-hand side of Equation 12). Fixed policies encode their size wall
/// as `±∞` the same way [`expansion_bar`] does.
pub fn inline_bar(threshold: &InlineThreshold, root_size: f64, node_size: f64) -> f64 {
    match *threshold {
        InlineThreshold::Adaptive { t1, t2 } => {
            let exponent = (root_size + node_size) / (16.0 * t2);
            t1 * exponent.exp2()
        }
        InlineThreshold::Fixed { ti } => {
            if root_size < ti as f64 {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            }
        }
    }
}

/// The inlining test (Equation 12, reconstructed): may a cluster with the
/// given tuple be inlined into a root of size `root_size`, where the
/// cluster's own IR size is `node_size`?
pub fn may_inline(
    threshold: &InlineThreshold,
    tuple: Tuple,
    root_size: f64,
    node_size: f64,
) -> bool {
    tuple.ratio() >= inline_bar(threshold, root_size, node_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_algebra() {
        let a = Tuple::new(10.0, 5.0);
        let b = Tuple::new(3.0, 30.0);
        let m = a.merge(b);
        assert_eq!(m, Tuple::new(13.0, 35.0));
        assert!(a.dominates(b));
        assert!(!b.dominates(a));
        assert!((a.ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_clamps_tiny_costs() {
        let t = Tuple::new(5.0, 0.0);
        assert_eq!(t.ratio(), 5.0);
    }

    #[test]
    fn penalty_grows_with_subtree_and_shrinks_with_few_cutoffs() {
        let big = exploration_penalty(10_000.0, 5_000.0, 20.0);
        let small = exploration_penalty(100.0, 50.0, 20.0);
        assert!(big > small);
        // With only one cutoff left, the bonus kicks in (b2 − 1 = 9 > 0).
        let nearly_done = exploration_penalty(10_000.0, 5_000.0, 1.0);
        assert!(nearly_done < big);
        assert!((big - nearly_done - 0.5 * 9.0).abs() < 1e-9);
    }

    #[test]
    fn recursion_penalty_shape() {
        // Paper: "Until the recursion depth 2, the value of ψ_r is 0."
        assert_eq!(recursion_penalty(1.0, 0), 0.0);
        assert_eq!(recursion_penalty(1.0, 1), 0.0);
        assert_eq!(recursion_penalty(1.0, 2), 2.0);
        assert_eq!(recursion_penalty(1.0, 3), 6.0);
        // Frequency amplifies (compensating Equation 4's multiplier)…
        assert_eq!(recursion_penalty(10.0, 3), 60.0);
        // …but cold sites still get the full pressure (max(1, f)).
        assert_eq!(recursion_penalty(0.01, 3), 6.0);
        // No overflow at absurd depths.
        assert!(recursion_penalty(1.0, 64).is_finite());
    }

    #[test]
    fn adaptive_expansion_tightens_with_tree_size() {
        let t = ExpansionThreshold::Adaptive {
            r1: 3000.0,
            r2: 500.0,
        };
        // Small tree: even density-1 callees expand (threshold ≈ e^-6).
        assert!(should_expand(&t, 1.0, 100.0, 0.0));
        // At the pivot, density must reach 1.0.
        assert!(should_expand(&t, 120.0, 100.0, 3000.0));
        assert!(!should_expand(&t, 80.0, 100.0, 3000.0));
        // Far past the pivot, almost nothing expands…
        assert!(!should_expand(&t, 1000.0, 100.0, 6000.0));
        // …but an extremely hot tiny callee still can (smoothness).
        assert!(should_expand(&t, 100_000.0, 2.0, 6000.0));
    }

    #[test]
    fn fixed_expansion_is_a_hard_wall() {
        let t = ExpansionThreshold::Fixed { te: 1000 };
        assert!(should_expand(&t, 0.0001, 10_000.0, 999.0));
        assert!(!should_expand(&t, 1e9, 1.0, 1000.0));
    }

    #[test]
    fn adaptive_inlining_is_forgiving_to_small_methods() {
        let t = InlineThreshold::Adaptive {
            t1: 0.005,
            t2: 120.0,
        };
        let tup = Tuple::new(2.0, 40.0); // ratio 0.05
                                         // Small root: passes easily.
        assert!(may_inline(&t, tup, 100.0, 40.0));
        // Root near 6.4k: threshold = 0.005·2^((6400+ir)/1920).
        // For a small callee (ir=40) the threshold ≈ 0.051 — borderline.
        // For a big callee (ir=2000) it is ≈ 0.10 — rejected.
        assert!(!may_inline(&t, tup, 6400.0, 2000.0));
        // The same ratio with a tiny callee gets accepted a while longer.
        assert!(may_inline(&t, Tuple::new(4.0, 40.0), 6400.0, 40.0));
    }

    #[test]
    fn fixed_inlining_ignores_benefit() {
        let t = InlineThreshold::Fixed { ti: 3000 };
        assert!(may_inline(&t, Tuple::new(0.0, 1e9), 2999.0, 50.0));
        assert!(!may_inline(&t, Tuple::new(1e9, 1.0), 3000.0, 1.0));
    }

    #[test]
    fn bars_agree_with_predicates() {
        let e = ExpansionThreshold::Adaptive {
            r1: 3000.0,
            r2: 500.0,
        };
        for (b_l, ir, s_root) in [
            (1.0, 100.0, 0.0),
            (120.0, 100.0, 3000.0),
            (80.0, 100.0, 3000.0),
        ] {
            assert_eq!(
                should_expand(&e, b_l, ir, s_root),
                b_l / ir >= expansion_bar(&e, s_root)
            );
        }
        let i = InlineThreshold::Adaptive {
            t1: 0.005,
            t2: 120.0,
        };
        let tup = Tuple::new(2.0, 40.0);
        for (root, node) in [(100.0, 40.0), (6400.0, 2000.0), (6400.0, 40.0)] {
            assert_eq!(
                may_inline(&i, tup, root, node),
                tup.ratio() >= inline_bar(&i, root, node)
            );
        }
        // Fixed walls encode as ±∞.
        assert_eq!(
            expansion_bar(&ExpansionThreshold::Fixed { te: 10 }, 9.0),
            f64::NEG_INFINITY
        );
        assert_eq!(
            inline_bar(&InlineThreshold::Fixed { ti: 10 }, 10.0, 1.0),
            f64::INFINITY
        );
    }
}

#[cfg(test)]
mod proptests {
    //! Randomized property tests over the tuple algebra and thresholds,
    //! driven by the in-repo seeded [`Rng64`] (deterministic, offline).

    use incline_ir::Rng64;

    use super::*;
    use crate::policy::{ExpansionThreshold, InlineThreshold};

    const CASES: usize = 256;

    /// A uniform float in `[lo, hi)`.
    fn f(rng: &mut Rng64, lo: f64, hi: f64) -> f64 {
        lo + rng.next_f64() * (hi - lo)
    }

    /// A random positive benefit/cost tuple.
    fn tuple(rng: &mut Rng64) -> Tuple {
        Tuple::new(f(rng, 0.0, 1e6), f(rng, 1.0, 1e6))
    }

    /// ⊕ is commutative and associative (Equation 9).
    #[test]
    fn merge_is_commutative_and_associative() {
        let mut rng = Rng64::new(0xEB9);
        for _ in 0..CASES {
            let (ta, tb, tc) = (tuple(&mut rng), tuple(&mut rng), tuple(&mut rng));
            assert_eq!(ta.merge(tb), tb.merge(ta));
            let left = ta.merge(tb).merge(tc);
            let right = ta.merge(tb.merge(tc));
            assert!((left.benefit - right.benefit).abs() < 1e-6);
            assert!((left.cost - right.cost).abs() < 1e-6);
        }
    }

    /// ⊙ is a total preorder on positive tuples (Equation 10).
    #[test]
    fn dominates_is_total_and_transitive() {
        let mut rng = Rng64::new(0xE10);
        for _ in 0..CASES {
            let (ta, tb, tc) = (tuple(&mut rng), tuple(&mut rng), tuple(&mut rng));
            assert!(ta.dominates(tb) || tb.dominates(ta), "totality");
            if ta.dominates(tb) && tb.dominates(tc) {
                assert!(ta.dominates(tc), "transitivity");
            }
        }
    }

    /// Merging a better-ratio tuple never lowers the ratio below the
    /// worse ingredient (the clustering loop's soundness).
    #[test]
    fn merge_ratio_between_ingredients() {
        let mut rng = Rng64::new(0x4A7);
        for _ in 0..CASES {
            let (ta, tb) = (tuple(&mut rng), tuple(&mut rng));
            let m = ta.merge(tb);
            let lo = ta.ratio().min(tb.ratio());
            let hi = ta.ratio().max(tb.ratio());
            assert!(m.ratio() >= lo - 1e-9 && m.ratio() <= hi + 1e-9);
        }
    }

    /// The adaptive expansion threshold is monotone: growing the tree
    /// never turns a rejected expansion into an accepted one.
    #[test]
    fn expansion_threshold_monotone_in_tree_size() {
        let mut rng = Rng64::new(0xE45);
        let t = ExpansionThreshold::Adaptive {
            r1: 1500.0,
            r2: 250.0,
        };
        for _ in 0..CASES {
            let b_l = f(&mut rng, 0.0, 1e5);
            let ir = f(&mut rng, 1.0, 1e4);
            let s1 = f(&mut rng, 0.0, 5e4);
            let delta = f(&mut rng, 0.0, 5e4);
            if should_expand(&t, b_l, ir, s1 + delta) {
                assert!(should_expand(&t, b_l, ir, s1));
            }
        }
    }

    /// The adaptive inline threshold is monotone in root size and
    /// "more forgiving" to smaller callees (paper prose on Eq. 12).
    #[test]
    fn inline_threshold_monotonicity() {
        let mut rng = Rng64::new(0x1217);
        let t = InlineThreshold::Adaptive {
            t1: 0.005,
            t2: 60.0,
        };
        for _ in 0..CASES {
            let ratio = f(&mut rng, 0.0, 1e4);
            let root = f(&mut rng, 0.0, 2e4);
            let node = f(&mut rng, 1.0, 5e3);
            let delta = f(&mut rng, 0.0, 2e4);
            let tup = Tuple::new(ratio, 1.0);
            if may_inline(&t, tup, root + delta, node) {
                assert!(may_inline(&t, tup, root, node), "monotone in root size");
            }
            if may_inline(&t, tup, root, node + delta) {
                assert!(may_inline(&t, tup, root, node), "monotone in callee size");
            }
        }
    }
}
