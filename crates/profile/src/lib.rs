#![warn(missing_docs)]

//! # incline-profile
//!
//! Runtime profiles collected by the interpreting tier and consumed by the
//! inliners, mirroring the HotSpot profiles the paper relies on (§IV):
//!
//! * **invocation counters** per method (hotness),
//! * **back-edge counters** per method (loopy hotness),
//! * **per-callsite execution counts**, from which the relative call
//!   frequency `f(n)` of Equation 4 is derived,
//! * **receiver type histograms** per callsite, driving speculative
//!   polymorphic inlining (the paper's typeswitch with ≤3 targets at ≥10%
//!   probability each).
//!
//! Profiles are keyed by [`CallSiteId`], which survives graph cloning and
//! inlining, so a callsite transplanted deep into another compilation unit
//! still finds its data.

use incline_ir::{BlockId, CallSiteId, ClassId, MethodId};

/// Profile data for one method.
///
/// Counters live in dense vectors indexed by block and by per-method
/// callsite index, grown on first use. A zero counter and an absent one
/// are the same thing: the accessors below, [`ProfileTable::iter`] and the
/// snapshot format only ever show counters that are non-zero.
#[derive(Clone, Debug, Default)]
pub struct MethodProfile {
    /// Number of activations (interpreted executions).
    pub invocations: u64,
    /// Loop back edges taken inside this method.
    pub backedges: u64,
    /// Executions of each basic block of the *original* method graph,
    /// indexed by block.
    block_counts: Vec<u64>,
    /// Executions of each callsite, indexed by per-method site index.
    callsite_counts: Vec<u64>,
    /// Receiver class histogram of each virtual callsite, indexed by
    /// per-method site index. Each histogram is sorted by class and holds
    /// no zero count.
    receivers: Vec<Vec<(ClassId, u64)>>,
}

/// The slot `i` of a dense counter vector, grown with zeros on first use.
#[inline(always)]
fn slot<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if i < v.len() {
        &mut v[i]
    } else {
        grow(v, i)
    }
}

#[cold]
#[inline(never)]
fn grow<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    v.resize_with(i + 1, T::default);
    &mut v[i]
}

/// The non-zero counters of a dense vector, by index.
fn nonzero(v: &[u64]) -> impl Iterator<Item = (usize, u64)> + '_ {
    v.iter().copied().enumerate().filter(|&(_, c)| c > 0)
}

/// Sets `class`'s count in a sorted histogram; a zero count removes it.
fn set_class(hist: &mut Vec<(ClassId, u64)>, class: ClassId, count: u64) {
    match (hist.binary_search_by_key(&class, |e| e.0), count) {
        (Ok(i), 0) => drop(hist.remove(i)),
        (Ok(i), _) => hist[i].1 = count,
        (Err(_), 0) => {}
        (Err(i), _) => hist.insert(i, (class, count)),
    }
}

/// Adds `count` observations of `class` to a sorted histogram.
#[inline]
fn add_class(hist: &mut Vec<(ClassId, u64)>, class: ClassId, count: u64) {
    match hist.binary_search_by_key(&class, |e| e.0) {
        Ok(i) => hist[i].1 += count,
        Err(i) if count > 0 => hist.insert(i, (class, count)),
        Err(_) => {}
    }
}

impl MethodProfile {
    /// A profile with the two per-method counters set and no block,
    /// callsite or receiver data yet.
    pub fn new(invocations: u64, backedges: u64) -> Self {
        MethodProfile {
            invocations,
            backedges,
            ..MethodProfile::default()
        }
    }

    /// The method's observed hotness: invocations plus taken back edges.
    pub fn hotness(&self) -> u64 {
        self.invocations.saturating_add(self.backedges)
    }

    /// Executions of block `b` (0 when never executed).
    pub fn block_count(&self, b: BlockId) -> u64 {
        self.block_counts.get(b.index()).copied().unwrap_or(0)
    }

    /// Executions of the callsite with per-method index `site`.
    pub fn callsite_count(&self, site: u32) -> u64 {
        self.callsite_counts
            .get(site as usize)
            .copied()
            .unwrap_or(0)
    }

    /// The receiver histogram of the callsite with per-method index
    /// `site`, sorted by class; empty when no receiver was observed.
    pub fn receiver_histogram(&self, site: u32) -> &[(ClassId, u64)] {
        self.receivers.get(site as usize).map_or(&[], Vec::as_slice)
    }

    /// Every executed block with its count, in block order.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, u64)> + '_ {
        nonzero(&self.block_counts).map(|(b, c)| (BlockId::new(b), c))
    }

    /// Every executed callsite (per-method index) with its count, in
    /// index order.
    pub fn callsites(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        nonzero(&self.callsite_counts).map(|(s, c)| (s as u32, c))
    }

    /// Every callsite (per-method index) that observed a receiver, with
    /// its histogram sorted by class, in index order.
    pub fn receivers(&self) -> impl Iterator<Item = (u32, &[(ClassId, u64)])> + '_ {
        self.receivers
            .iter()
            .enumerate()
            .filter(|(_, h)| !h.is_empty())
            .map(|(s, h)| (s as u32, h.as_slice()))
    }

    /// Sets the execution count of block `b` (snapshot deserialization).
    pub fn set_block_count(&mut self, b: BlockId, count: u64) {
        *slot(&mut self.block_counts, b.index()) = count;
    }

    /// Sets the execution count of the callsite with index `site`.
    pub fn set_callsite_count(&mut self, site: u32, count: u64) {
        *slot(&mut self.callsite_counts, site as usize) = count;
    }

    /// Sets how often `class` was the receiver at the callsite with index
    /// `site`.
    pub fn set_receiver_count(&mut self, site: u32, class: ClassId, count: u64) {
        set_class(slot(&mut self.receivers, site as usize), class, count);
    }

    /// Accumulates `other` into this profile (weighted histogram union —
    /// every counter adds, so merging N replicas weighs each by its own
    /// observation counts).
    pub fn add(&mut self, other: &MethodProfile) {
        self.invocations += other.invocations;
        self.backedges += other.backedges;
        for (b, c) in nonzero(&other.block_counts) {
            *slot(&mut self.block_counts, b) += c;
        }
        for (s, c) in nonzero(&other.callsite_counts) {
            *slot(&mut self.callsite_counts, s) += c;
        }
        for (s, hist) in other.receivers() {
            let d = slot(&mut self.receivers, s as usize);
            for &(cl, c) in hist {
                add_class(d, cl, c);
            }
        }
    }

    /// Removes `other`'s contribution from this profile, saturating at
    /// zero and pruning emptied entries — the quarantine ladder's profile
    /// rollback, so a poisoned replayed decision must re-earn its heat
    /// from genuinely fresh observations.
    pub fn subtract(&mut self, other: &MethodProfile) {
        self.invocations = self.invocations.saturating_sub(other.invocations);
        self.backedges = self.backedges.saturating_sub(other.backedges);
        for (v, c) in self.block_counts.iter_mut().zip(&other.block_counts) {
            *v = v.saturating_sub(*c);
        }
        for (v, c) in self.callsite_counts.iter_mut().zip(&other.callsite_counts) {
            *v = v.saturating_sub(*c);
        }
        for (d, hist) in self.receivers.iter_mut().zip(&other.receivers) {
            for &(cl, c) in hist {
                if let Ok(i) = d.binary_search_by_key(&cl, |e| e.0) {
                    d[i].1 = d[i].1.saturating_sub(c);
                }
            }
            d.retain(|&(_, c)| c > 0);
        }
    }

    /// Whether the profile carries no observations at all.
    pub fn is_empty(&self) -> bool {
        self.invocations == 0
            && self.backedges == 0
            && self.block_counts.iter().all(|&c| c == 0)
            && self.callsite_counts.iter().all(|&c| c == 0)
            && self.receivers.iter().all(Vec::is_empty)
    }
}

/// One entry of a receiver type profile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReceiverEntry {
    /// Observed dynamic receiver class.
    pub class: ClassId,
    /// Fraction of executions dispatching to this class (0–1).
    pub probability: f64,
    /// Raw observation count.
    pub count: u64,
}

/// All profiles of a program run: one [`MethodProfile`] slot per method,
/// indexed by [`MethodId`] and grown on first use. A method whose slot is
/// empty ([`MethodProfile::is_empty`]) does not exist as far as
/// [`ProfileTable::method`], [`ProfileTable::len`] and
/// [`ProfileTable::iter`] are concerned.
#[derive(Clone, Debug, Default)]
pub struct ProfileTable {
    methods: Vec<MethodProfile>,
}

impl ProfileTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Profile of a method, if it holds any observation.
    pub fn method(&self, m: MethodId) -> Option<&MethodProfile> {
        self.methods.get(m.index()).filter(|p| !p.is_empty())
    }

    /// Mutable profile of a method, created on first use.
    #[inline]
    pub fn method_mut(&mut self, m: MethodId) -> &mut MethodProfile {
        slot(&mut self.methods, m.index())
    }

    // ---- recording (called by the interpreting tier) ----------------------

    /// Records one activation of `m`.
    #[inline]
    pub fn record_invocation(&mut self, m: MethodId) {
        self.method_mut(m).invocations += 1;
    }

    /// Records one execution of block `b` of method `m`.
    #[inline]
    pub fn record_block(&mut self, m: MethodId, b: BlockId) {
        *slot(&mut self.method_mut(m).block_counts, b.index()) += 1;
    }

    /// Records one taken loop back edge in `m`.
    #[inline]
    pub fn record_backedge(&mut self, m: MethodId) {
        self.method_mut(m).backedges += 1;
    }

    /// Records one execution of a callsite.
    #[inline]
    pub fn record_callsite(&mut self, site: CallSiteId) {
        let counts = &mut self.method_mut(site.method).callsite_counts;
        *slot(counts, site.index as usize) += 1;
    }

    /// Records the dynamic receiver class observed at a virtual callsite.
    #[inline]
    pub fn record_receiver(&mut self, site: CallSiteId, class: ClassId) {
        let hists = &mut self.method_mut(site.method).receivers;
        add_class(slot(hists, site.index as usize), class, 1);
    }

    // ---- queries (used by the inliners) ------------------------------------

    /// Invocation count of `m` (0 when never interpreted).
    pub fn invocations(&self, m: MethodId) -> u64 {
        self.methods.get(m.index()).map_or(0, |p| p.invocations)
    }

    /// Back-edge count of `m`.
    pub fn backedges(&self, m: MethodId) -> u64 {
        self.methods.get(m.index()).map_or(0, |p| p.backedges)
    }

    /// Raw execution count of a callsite.
    pub fn callsite_count(&self, site: CallSiteId) -> u64 {
        self.methods
            .get(site.method.index())
            .map_or(0, |p| p.callsite_count(site.index))
    }

    /// The *local* frequency of a callsite: executions per activation of
    /// its enclosing method. Greater than 1 inside loops, smaller than 1 on
    /// cold branches. Falls back to 1.0 when the method was never profiled
    /// (the inliners must behave sensibly on cold code).
    pub fn local_frequency(&self, site: CallSiteId) -> f64 {
        match self.methods.get(site.method.index()) {
            Some(p) if p.invocations > 0 => {
                p.callsite_count(site.index) as f64 / p.invocations as f64
            }
            _ => 1.0,
        }
    }

    /// The receiver histogram of a virtual callsite, most frequent first.
    pub fn receiver_profile(&self, site: CallSiteId) -> Vec<ReceiverEntry> {
        let hist = self
            .methods
            .get(site.method.index())
            .map_or(&[][..], |p| p.receiver_histogram(site.index));
        let total: u64 = hist.iter().map(|&(_, c)| c).sum();
        if total == 0 {
            return Vec::new();
        }
        let mut entries: Vec<ReceiverEntry> = hist
            .iter()
            .map(|&(class, count)| ReceiverEntry {
                class,
                probability: count as f64 / total as f64,
                count,
            })
            .collect();
        // Sort by count descending, class id ascending for determinism.
        entries.sort_by(|a, b| b.count.cmp(&a.count).then(a.class.cmp(&b.class)));
        entries
    }

    /// Merges another table into this one (used when profiles from several
    /// benchmark iterations — or several fleet replicas — are aggregated).
    pub fn merge(&mut self, other: &ProfileTable) {
        for (m, mp) in other.iter() {
            self.method_mut(m).add(mp);
        }
    }

    /// The observed hotness of `m`: invocations + back edges (0 when
    /// never profiled).
    pub fn hotness(&self, m: MethodId) -> u64 {
        self.methods
            .get(m.index())
            .map_or(0, MethodProfile::hotness)
    }

    /// The hotness tiering decides on: `invocations + backedges/4`, so four
    /// taken back edges weigh as much as one invocation. The snapshot
    /// merge's support check reads it too, so a merged decision is kept
    /// exactly as long as its evidence would still tier the method up.
    pub fn tier_hotness(&self, m: MethodId) -> u64 {
        self.invocations(m) + self.backedges(m) / 4
    }

    /// Removes `seed`'s contribution from `m`'s profile (saturating), and
    /// drops the method entirely once nothing remains — the quarantine
    /// rollback of a poisoned snapshot's seeded counters.
    pub fn subtract(&mut self, m: MethodId, seed: &MethodProfile) {
        if let Some(p) = self.methods.get_mut(m.index()) {
            p.subtract(seed);
            if p.is_empty() {
                *p = MethodProfile::default();
            }
        }
    }

    /// Clears all data (profile decay between phases).
    pub fn clear(&mut self) {
        self.methods.clear();
    }

    // ---- bulk access (snapshot serialization) ------------------------------

    /// Number of methods with any recorded profile data.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether the table holds no profile data at all.
    pub fn is_empty(&self) -> bool {
        self.methods.iter().all(MethodProfile::is_empty)
    }

    /// Iterates over every method with profile data, in [`MethodId`]
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (MethodId, &MethodProfile)> {
        self.methods
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(|(m, p)| (MethodId::new(m), p))
    }

    /// Replaces the profile of `m` wholesale (snapshot deserialization).
    pub fn insert(&mut self, m: MethodId, profile: MethodProfile) {
        *self.method_mut(m) = profile;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(m: usize, i: u32) -> CallSiteId {
        CallSiteId {
            method: MethodId::new(m),
            index: i,
        }
    }

    #[test]
    fn local_frequency_counts_per_activation() {
        let mut t = ProfileTable::new();
        let m = MethodId::new(0);
        for _ in 0..4 {
            t.record_invocation(m);
        }
        for _ in 0..12 {
            t.record_callsite(site(0, 0)); // a loop body callsite
        }
        t.record_callsite(site(0, 1)); // a cold callsite
        assert_eq!(t.local_frequency(site(0, 0)), 3.0);
        assert_eq!(t.local_frequency(site(0, 1)), 0.25);
        assert_eq!(t.local_frequency(site(0, 9)), 0.0);
    }

    #[test]
    fn unprofiled_method_defaults_to_one() {
        let t = ProfileTable::new();
        assert_eq!(t.local_frequency(site(5, 0)), 1.0);
    }

    #[test]
    fn receiver_profile_sorted_and_normalized() {
        let mut t = ProfileTable::new();
        let s = site(0, 0);
        for _ in 0..6 {
            t.record_receiver(s, ClassId::new(2));
        }
        for _ in 0..3 {
            t.record_receiver(s, ClassId::new(1));
        }
        t.record_receiver(s, ClassId::new(7));
        let prof = t.receiver_profile(s);
        assert_eq!(prof.len(), 3);
        assert_eq!(prof[0].class, ClassId::new(2));
        assert!((prof[0].probability - 0.6).abs() < 1e-12);
        assert_eq!(prof[1].class, ClassId::new(1));
        assert_eq!(prof[2].class, ClassId::new(7));
        assert!((prof.iter().map(|e| e.probability).sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_receiver_profile() {
        let t = ProfileTable::new();
        assert!(t.receiver_profile(site(0, 0)).is_empty());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ProfileTable::new();
        let mut b = ProfileTable::new();
        let m = MethodId::new(1);
        a.record_invocation(m);
        b.record_invocation(m);
        b.record_invocation(m);
        a.record_callsite(site(1, 0));
        b.record_callsite(site(1, 0));
        b.record_receiver(site(1, 0), ClassId::new(0));
        a.merge(&b);
        assert_eq!(a.invocations(m), 3);
        assert_eq!(a.callsite_count(site(1, 0)), 2);
        assert_eq!(a.receiver_profile(site(1, 0)).len(), 1);
    }

    #[test]
    fn subtract_rolls_back_a_merge_and_prunes() {
        let mut live = ProfileTable::new();
        let m = MethodId::new(2);
        let s = site(2, 0);
        for _ in 0..5 {
            live.record_invocation(m);
        }
        live.record_backedge(m);
        live.record_callsite(s);
        live.record_receiver(s, ClassId::new(1));
        let seed = live.method(m).unwrap().clone();
        // Fresh traffic on top of the seed.
        live.record_invocation(m);
        live.record_receiver(s, ClassId::new(3));
        assert_eq!(live.hotness(m), 7);
        live.subtract(m, &seed);
        assert_eq!(live.invocations(m), 1);
        assert_eq!(live.backedges(m), 0);
        assert_eq!(live.callsite_count(s), 0);
        let prof = live.receiver_profile(s);
        assert_eq!(prof.len(), 1, "seeded receiver class must be pruned");
        assert_eq!(prof[0].class, ClassId::new(3));
        // Subtracting the remainder empties and removes the method.
        let rest = live.method(m).unwrap().clone();
        live.subtract(m, &rest);
        assert!(live.method(m).is_none());
        assert_eq!(live.hotness(m), 0);
    }

    #[test]
    fn subtract_saturates_instead_of_underflowing() {
        let mut t = ProfileTable::new();
        let m = MethodId::new(0);
        t.record_invocation(m);
        let seed = MethodProfile {
            invocations: 100,
            backedges: 100,
            ..MethodProfile::default()
        };
        t.subtract(m, &seed);
        assert!(t.method(m).is_none());
    }

    /// A profile with one far-out block, callsite and receiver: the dense
    /// vectors are mostly zeros.
    fn sparse() -> MethodProfile {
        let mut p = MethodProfile::default();
        p.set_block_count(BlockId::new(40), 7);
        p.set_callsite_count(9, 3);
        p.set_receiver_count(9, ClassId::new(5), 3);
        p
    }

    /// A profile with every low index populated.
    fn dense() -> MethodProfile {
        let mut p = MethodProfile {
            invocations: 4,
            backedges: 2,
            ..MethodProfile::default()
        };
        for i in 0..6 {
            p.set_block_count(BlockId::new(i), 1 + i as u64);
            p.set_callsite_count(i as u32, 2);
            p.set_receiver_count(i as u32, ClassId::new(i % 2), 2);
        }
        p
    }

    /// Everything a profile shows through its accessors.
    fn shape(p: &MethodProfile) -> String {
        format!(
            "{} {} {:?} {:?} {:?}",
            p.invocations,
            p.backedges,
            p.blocks().collect::<Vec<_>>(),
            p.callsites().collect::<Vec<_>>(),
            p.receivers().collect::<Vec<_>>(),
        )
    }

    #[test]
    fn add_then_subtract_round_trips_sparse_and_dense() {
        for (a, b) in [
            (sparse(), dense()),
            (dense(), sparse()),
            (sparse(), sparse()),
            (dense(), dense()),
        ] {
            let mut sum = a.clone();
            sum.add(&b);
            assert_eq!(
                sum.block_count(BlockId::new(40)),
                a.block_count(BlockId::new(40)) + b.block_count(BlockId::new(40))
            );
            sum.subtract(&b);
            assert_eq!(shape(&sum), shape(&a));
            sum.subtract(&a);
            assert!(sum.is_empty(), "everything added was taken out again");
            assert_eq!(sum.blocks().count() + sum.callsites().count(), 0);
            assert_eq!(sum.receivers().count(), 0);
        }
    }

    #[test]
    fn zero_counters_are_invisible() {
        let mut p = MethodProfile::default();
        p.set_block_count(BlockId::new(12), 0);
        p.set_callsite_count(3, 0);
        p.set_receiver_count(3, ClassId::new(1), 0);
        assert!(p.is_empty(), "only zeros were stored");
        assert_eq!(p.blocks().count(), 0);
        assert_eq!(p.callsites().count(), 0);
        assert_eq!(p.receivers().count(), 0);
        let mut t = ProfileTable::new();
        t.insert(MethodId::new(6), p);
        t.method_mut(MethodId::new(9));
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.iter().count(), 0);
        assert!(t.method(MethodId::new(6)).is_none());
        // A merge of invisible methods creates nothing either.
        let mut into = ProfileTable::new();
        into.merge(&t);
        assert!(into.is_empty());
        // Setting a count back to zero removes it again.
        let mut q = sparse();
        q.set_receiver_count(9, ClassId::new(5), 0);
        assert_eq!(q.receivers().count(), 0);
    }

    #[test]
    fn table_iterates_only_methods_with_data_in_id_order() {
        let mut t = ProfileTable::new();
        t.record_invocation(MethodId::new(7));
        t.record_block(MethodId::new(2), BlockId::new(3));
        t.record_receiver(site(4, 1), ClassId::new(0));
        let ids: Vec<usize> = t.iter().map(|(m, _)| m.index()).collect();
        assert_eq!(ids, vec![2, 4, 7]);
        assert_eq!(t.len(), 3);
        // Subtract-to-zero drops the method from every view.
        let seed = t.method(MethodId::new(4)).unwrap().clone();
        t.subtract(MethodId::new(4), &seed);
        assert_eq!(t.len(), 2);
        assert!(t.method(MethodId::new(4)).is_none());
        assert!(t.receiver_profile(site(4, 1)).is_empty());
    }

    #[test]
    fn blocks_and_backedges() {
        let mut t = ProfileTable::new();
        let m = MethodId::new(0);
        t.record_block(m, BlockId::new(0));
        t.record_block(m, BlockId::new(0));
        t.record_backedge(m);
        assert_eq!(t.method(m).unwrap().block_count(BlockId::new(0)), 2);
        assert_eq!(t.backedges(m), 1);
    }
}
