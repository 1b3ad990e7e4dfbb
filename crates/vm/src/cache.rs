//! Bounded code-cache policy machinery: eviction scoring and admission.
//!
//! The machine enforces [`crate::VmConfig::code_cache_budget`] at install
//! time (DESIGN.md §11). This module holds the *pure* part of that
//! subsystem — policy enumeration, victim scoring and the admission rule —
//! so each policy's ordering is unit-testable in isolation and provably
//! deterministic: every score is integer arithmetic over a
//! [`CacheEntry`] snapshot, and all orderings tie-break on [`MethodId`].
//!
//! Lower score = evicted first. The three policies:
//!
//! * [`EvictionPolicy::Lru`] — score is the tick of the last compiled
//!   activation; the method that ran longest ago goes first.
//! * [`EvictionPolicy::HotnessDecay`] — score is the resident use count
//!   decayed by idle time, `uses * SCALE / (idle + 1)`; a method's past
//!   heat buys it residency that idle ticks steadily erode.
//! * [`EvictionPolicy::CostBenefit`] — score is the Eq. 9–11 flavored
//!   benefit density `benefit * SCALE / bytes`; the method saving the
//!   fewest modeled cycles per occupied byte goes first.
//!
//! **Aging** floors a score: an entry marked `aged` (idle past
//! [`crate::machine::CACHE_AGE_WINDOW`]) sorts before every non-aged
//! entry under *every* policy, so dead code is always the preferred
//! victim.
//!
//! **Admission** compares the candidate package, scored as a hypothetical
//! entry at the install tick, against the cheapest victim: the candidate
//! must *strictly* beat it, or the install is rejected and deferred. This
//! is what keeps a cold giant from churning out a working set of hotter,
//! denser methods.

use std::fmt;

use incline_ir::MethodId;

/// Fixed-point scale for the decay and density scores (integer
/// arithmetic keeps every comparison deterministic across platforms).
const SCORE_SCALE: u128 = 1 << 16;

/// Which eviction policy the bounded code cache uses to pick victims.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Evict the method whose compiled code ran longest ago.
    #[default]
    Lru,
    /// Evict the lowest idle-decayed resident use count.
    HotnessDecay,
    /// Evict the lowest modeled benefit per occupied code byte.
    CostBenefit,
}

impl EvictionPolicy {
    /// Stable lowercase label, used in trace events and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            EvictionPolicy::Lru => "lru",
            EvictionPolicy::HotnessDecay => "hotness",
            EvictionPolicy::CostBenefit => "cost-benefit",
        }
    }

    /// Every policy, in a fixed order (benchmark sweeps iterate this).
    pub fn all() -> [EvictionPolicy; 3] {
        [
            EvictionPolicy::Lru,
            EvictionPolicy::HotnessDecay,
            EvictionPolicy::CostBenefit,
        ]
    }
}

impl fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for EvictionPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "lru" => Ok(EvictionPolicy::Lru),
            "hotness" => Ok(EvictionPolicy::HotnessDecay),
            "cost-benefit" => Ok(EvictionPolicy::CostBenefit),
            other => Err(format!(
                "unknown eviction policy `{other}` (expected lru, hotness or cost-benefit)"
            )),
        }
    }
}

/// A scoring snapshot of one resident compiled method (or, for the
/// admission rule, of the candidate package at the install tick).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheEntry {
    /// The resident method.
    pub method: MethodId,
    /// Tick of its last compiled activation (install counts as a use).
    pub last_used: u64,
    /// Compiled activations served while resident.
    pub uses: u64,
    /// Modeled benefit of residency: profiled hotness at install × the
    /// interpreter dispatch premium (cycles the compiled code saves per
    /// unit of execution — the `b` of the paper's `b|c` tuples).
    pub benefit: u64,
    /// Modeled code bytes (the `c` of the tuple).
    pub bytes: u64,
    /// Idle past the aging window: the score floors to minimum.
    pub aged: bool,
}

/// The total eviction order key: aged entries first, then the policy
/// score, then recency, then `MethodId` — fully deterministic.
fn sort_key(policy: EvictionPolicy, e: &CacheEntry, now: u64) -> (u8, u128, u64) {
    let aged_rank = u8::from(!e.aged);
    let idle = now.saturating_sub(e.last_used) as u128;
    let primary = match policy {
        EvictionPolicy::Lru => e.last_used as u128,
        EvictionPolicy::HotnessDecay => (e.uses as u128 * SCORE_SCALE) / (idle + 1),
        EvictionPolicy::CostBenefit => (e.benefit as u128 * SCORE_SCALE) / e.bytes.max(1) as u128,
    };
    (aged_rank, primary, e.last_used)
}

/// Sorts `entries` into eviction order under `policy`: the first element
/// is the cheapest victim (evicted first). `now` is the current use tick.
pub fn victim_order(policy: EvictionPolicy, entries: &[CacheEntry], now: u64) -> Vec<CacheEntry> {
    let mut order: Vec<CacheEntry> = entries.to_vec();
    order.sort_by_key(|e| (sort_key(policy, e, now), e.method));
    order
}

/// The admission rule: would installing `candidate` be better than keeping
/// `cheapest` (the head of [`victim_order`])? The candidate must score
/// *strictly* higher — ties keep the resident code, so admission can never
/// thrash two equal methods against each other.
pub fn admits(
    policy: EvictionPolicy,
    candidate: &CacheEntry,
    cheapest: &CacheEntry,
    now: u64,
) -> bool {
    // Only the aged floor and the policy score count here: the recency
    // tie-break that makes eviction order total would otherwise let every
    // equal-scored candidate displace the resident simply by being newer.
    let (c_aged, c_score, _) = sort_key(policy, candidate, now);
    let (r_aged, r_score, _) = sort_key(policy, cheapest, now);
    (c_aged, c_score) > (r_aged, r_score)
}

/// Lifetime code-cache statistics, one per [`crate::Machine`].
///
/// `PartialEq` so the determinism tests can compare them wholesale across
/// thread counts, exactly like [`crate::BailoutCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Victims evicted (pressure-driven and injected together).
    pub evictions: u64,
    /// Evictions injected by [`crate::FaultKind::ForceEvict`].
    pub forced_evictions: u64,
    /// Installs rejected by admission control and deferred.
    pub admission_rejections: u64,
    /// Full-tier packages admitted only after the inline-free degraded
    /// retry produced a small-enough package.
    pub degraded_admissions: u64,
    /// Evicted methods that re-heated and were installed again.
    pub re_tiered: u64,
    /// Residents marked aged (idle past the aging window).
    pub aged: u64,
    /// Highest `installed_bytes` ever observed.
    pub high_water_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(idx: u32, last_used: u64, uses: u64, benefit: u64, bytes: u64) -> CacheEntry {
        CacheEntry {
            method: MethodId::new(idx as usize),
            last_used,
            uses,
            benefit,
            bytes,
            aged: false,
        }
    }

    fn methods(order: &[CacheEntry]) -> Vec<usize> {
        order.iter().map(|e| e.method.index()).collect()
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let entries = [
            entry(0, 50, 10, 100, 64),
            entry(1, 3, 900, 9000, 64),
            entry(2, 17, 1, 1, 64),
        ];
        let order = victim_order(EvictionPolicy::Lru, &entries, 60);
        assert_eq!(methods(&order), vec![1, 2, 0]);
    }

    #[test]
    fn lru_ties_break_on_method_id() {
        let entries = [
            entry(2, 5, 0, 0, 1),
            entry(0, 5, 0, 0, 1),
            entry(1, 5, 0, 0, 1),
        ];
        let order = victim_order(EvictionPolicy::Lru, &entries, 10);
        assert_eq!(methods(&order), vec![0, 1, 2]);
    }

    #[test]
    fn hotness_decay_erodes_idle_heat() {
        // Method 0 was very hot but has idled for 99 ticks: 1000/100 = 10.
        // Method 1 is mildly warm and current: 40/1 = 40. The idle one goes.
        let entries = [entry(0, 1, 1000, 0, 64), entry(1, 99, 40, 0, 64)];
        let order = victim_order(EvictionPolicy::HotnessDecay, &entries, 100);
        assert_eq!(methods(&order), vec![0, 1]);
    }

    #[test]
    fn cost_benefit_evicts_lowest_density_first() {
        // Densities: 100/400 = 0.25, 100/50 = 2.0, 1000/400 = 2.5 — the
        // worst cycles-per-byte deal goes first.
        let entries = [
            entry(0, 9, 5, 100, 400),
            entry(1, 9, 5, 100, 50),
            entry(2, 9, 5, 1000, 400),
        ];
        let order = victim_order(EvictionPolicy::CostBenefit, &entries, 10);
        assert_eq!(methods(&order), vec![0, 1, 2]);
    }

    #[test]
    fn aged_entries_float_to_the_front_under_every_policy() {
        let mut hot_but_aged = entry(7, 90, 10_000, 1_000_000, 8);
        hot_but_aged.aged = true;
        let cold_but_live = entry(1, 2, 1, 1, 1024);
        for policy in EvictionPolicy::all() {
            let order = victim_order(policy, &[cold_but_live, hot_but_aged], 100);
            assert_eq!(
                methods(&order),
                vec![7, 1],
                "aged entry must lead under {policy}"
            );
        }
    }

    #[test]
    fn admission_requires_strictly_beating_the_cheapest_victim() {
        let resident = entry(0, 5, 8, 80, 64);
        // LRU: a candidate at the install tick is always newer.
        let candidate = entry(9, 10, 8, 80, 64);
        assert!(admits(EvictionPolicy::Lru, &candidate, &resident, 10));
        // Cost-benefit: identical density ties — the resident stays.
        assert!(!admits(
            EvictionPolicy::CostBenefit,
            &candidate,
            &resident,
            10
        ));
        // A denser candidate wins; a sparser one loses.
        let dense = entry(9, 10, 8, 160, 64);
        let sparse = entry(9, 10, 8, 40, 64);
        assert!(admits(EvictionPolicy::CostBenefit, &dense, &resident, 10));
        assert!(!admits(EvictionPolicy::CostBenefit, &sparse, &resident, 10));
    }

    #[test]
    fn policy_labels_round_trip_through_parse() {
        for policy in EvictionPolicy::all() {
            assert_eq!(policy.label().parse::<EvictionPolicy>(), Ok(policy));
        }
        assert!("mru".parse::<EvictionPolicy>().is_err());
    }
}
