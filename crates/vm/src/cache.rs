//! Bounded code-cache victim order.
//!
//! The machine enforces [`crate::VmConfig::code_cache_budget`] at install
//! time (DESIGN.md §11). This module holds the *pure* part of that
//! subsystem — the victim order — so it is unit-testable in isolation and
//! provably deterministic: the order is least recently used first, over
//! integer use ticks, tie-broken on [`MethodId`].

use incline_ir::MethodId;

/// The bounded code cache's victim order. LRU is the only one, and nothing
/// in the VM reads this type: it is kept because the benchmark harness
/// names it when it builds the server scenario's configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Evict the method whose compiled code ran longest ago.
    #[default]
    Lru,
}

/// An evictable resident compiled method, as the victim order sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheEntry {
    /// The resident method.
    pub method: MethodId,
    /// Tick of its last compiled activation (install counts as a use).
    pub last_used: u64,
    /// Modeled code bytes it occupies.
    pub bytes: u64,
}

/// Sorts `entries` into eviction order: the first element is the least
/// recently used (evicted first); equal ticks break on `MethodId`.
pub fn victim_order(entries: &[CacheEntry]) -> Vec<CacheEntry> {
    let mut order: Vec<CacheEntry> = entries.to_vec();
    order.sort_by_key(|e| (e.last_used, e.method));
    order
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
    /// Highest `installed_bytes` ever observed.
    pub high_water_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(idx: u32, last_used: u64) -> CacheEntry {
        CacheEntry {
            method: MethodId::new(idx as usize),
            last_used,
            bytes: 64,
        }
    }

    fn methods(order: &[CacheEntry]) -> Vec<usize> {
        order.iter().map(|e| e.method.index()).collect()
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let entries = [entry(0, 50), entry(1, 3), entry(2, 17)];
        assert_eq!(methods(&victim_order(&entries)), vec![1, 2, 0]);
    }

    #[test]
    fn lru_ties_break_on_method_id() {
        let entries = [entry(2, 5), entry(0, 5), entry(1, 5)];
        assert_eq!(methods(&victim_order(&entries)), vec![0, 1, 2]);
    }
}
