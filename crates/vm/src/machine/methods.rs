//! The life of a method, in one table.
//!
//! One [`MethodState`] slot per method of the program. Its [`Tier`] field
//! is private to this file: the five transitions below are the only
//! writers of it and of `installed_bytes`.
//!
//! ```text
//!            enqueue             install
//!   Cold ───────────▶ Queued ───────────▶ Installed
//!     ▲                │  │                  │
//!     │      defer     │  │ blacklist        │ leave(Exit)
//!     ├────────────────┘  ▼                  │
//!     │               Blacklisted            │
//!     └──────────────────────────────────────┘
//! ```
//!
//! What a method *has been* — invalidated, pinned, evicted, deferred,
//! poisoned — is monotone history beside the tier: a method can have all
//! of it at once, and `hot()` needs both baselines apart.

use std::sync::Arc;

use incline_ir::MethodId;
use incline_profile::{MethodProfile, ProfileTable};
use incline_trace::{CodeTier, CompileEvent};

use super::{Decision, Machine, POISON_WINDOW};
use crate::broker::CompileQueue;
use crate::plan::{ExecPlan, PlannedGraph};

/// The hotness tiering decides on, and every baseline is taken from:
/// `invocations + backedges/4`.
pub(super) fn hotness(profiles: &ProfileTable, m: MethodId) -> u64 {
    profiles.invocations(m) + profiles.backedges(m) / 4
}

/// Installed code and the counters that live and die with it.
pub(super) struct CompiledMethod {
    /// The installed graph with its execution plan. Shared, so a live
    /// activation keeps executing its code safely after an invalidation.
    pub code: Arc<PlannedGraph>,
    /// Modeled code size; released from `installed_bytes` when it leaves.
    pub bytes: u64,
    /// Whether the graph contains a `deopt` terminator, i.e. whether its
    /// activations must run transactionally (journaled) so the trap can
    /// rewind them.
    pub has_deopt: bool,
    /// Drift monitor armed: the compile speculated on receiver profiles
    /// and the graph still contains fallback virtual dispatches to count.
    pub drift_armed: bool,
    /// Fault injection: the next compiled entry takes an uncommon trap.
    pub force_deopt: bool,
    /// Fault injection: the drift monitor trips deterministically once
    /// `DRIFT_MIN_SAMPLES` compiled invocations accrue.
    pub force_drift: bool,
    /// Installed by snapshot replay: a deopt within the first `POISON_WINDOW`
    /// activations is attributed to the snapshot, not live drift.
    pub probation: bool,
    /// Compiled activations entered since install.
    pub invocations: u64,
    /// Fallback virtual dispatches executed inside this compiled graph.
    pub virtual_dispatches: u64,
    /// Use tick of the last compiled activation (install counts as a use).
    pub last_used: u64,
}

/// Per-method speculation bookkeeping for the storm throttle. Present once
/// the method's code was invalidated.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct SpecState {
    /// Recompilations granted so far (each install after an invalidation).
    pub recompiles: u32,
    /// Pinned: compiled without `deopt` fallbacks, drift monitor off.
    /// Terminal — a pinned method never deoptimizes again.
    pub pinned: bool,
    /// Tiering hotness at the last invalidation. The backed-off bar
    /// measures *fresh* profile data beyond this baseline, while the
    /// compile itself still sees the full merged (old + fresh) profile.
    pub base_hotness: u64,
}

/// Per-method code-cache bookkeeping: eviction history and the
/// admission-deferral backoff. Mirrors [`SpecState`]'s baseline scheme —
/// an evicted or deferred method re-promotes on *fresh* hotness only.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct CacheState {
    /// Times this method's code has been evicted.
    pub evictions: u32,
    /// Consecutive admission deferrals since the last successful install;
    /// each one doubles the re-admission bar. Reset when code installs.
    pub deferrals: u32,
    /// Tiering hotness at the last eviction or deferral.
    pub base_hotness: u64,
}

/// Where a method is in its life.
#[derive(Default)]
pub(super) enum Tier {
    /// Interpreted, profiling, eligible for promotion.
    #[default]
    Cold,
    /// A compile request is in the queue; still interpreted.
    Queued,
    /// Runs compiled.
    Installed(CompiledMethod),
    /// The whole ladder failed: interpreted for good, never re-attempted.
    Blacklisted,
}

/// Why installed code leaves the cache. Every exit releases the bytes and
/// puts the method back to [`Tier::Cold`]; they differ in the history
/// they write.
pub(super) enum Exit {
    /// Speculation failed (uncommon trap, drift, external invalidation):
    /// creates the [`SpecState`] and records its baseline, so the next
    /// install is a recompile against the backed-off bar.
    Invalidated,
    /// Cache pressure (LRU) or an injected `ForceEvict` (`forced`) picked
    /// it: counts an eviction and records the cache baseline. Never burns a
    /// recompile attempt.
    Evicted { forced: bool },
    /// A replayed decision deoptimized inside its probation window: the
    /// snapshot's seeded profile contribution is rolled back, so the method
    /// re-earns its hotness from live traffic, and the method is marked
    /// poisoned. No speculation state, no baseline.
    Poisoned,
}

/// Everything the machine knows about one method.
#[derive(Default)]
pub(super) struct MethodState {
    tier: Tier,
    /// Flat code of the source graph, lowered on the first interpreted
    /// activation. Independent of the tier.
    pub source_plan: Option<Arc<ExecPlan>>,
    /// Compiled activations on the stack. A method with a live compiled
    /// frame is never an eviction victim; the count may outlive the code
    /// (a nested activation can invalidate what an outer frame still runs
    /// from its `Arc`).
    pub live_frames: u32,
    /// `Some` once invalidated.
    pub spec: Option<SpecState>,
    /// Eviction and deferral history; the default gates nothing.
    pub cache: CacheState,
    /// The method's profile contribution from applied snapshots, kept so a
    /// poisoned decision can roll its seeded counters back out.
    pub seeded: Option<Box<MethodProfile>>,
    /// A [`PoisonSnapshot`](crate::FaultKind::PoisonSnapshot) fault aims
    /// here: replayed installs take an uncommon trap on first entry.
    pub poison_target: bool,
    /// A replayed decision of this method was quarantined as poisoned.
    pub poisoned: bool,
}

impl MethodState {
    /// The lifecycle state, read-only: transitions go through the table.
    #[inline]
    pub fn tier(&self) -> &Tier {
        &self.tier
    }

    /// The installed code, if any.
    #[inline]
    pub fn code(&self) -> Option<&CompiledMethod> {
        match &self.tier {
            Tier::Installed(cm) => Some(cm),
            _ => None,
        }
    }

    /// The installed code's counters, if any.
    #[inline]
    pub fn code_mut(&mut self) -> Option<&mut CompiledMethod> {
        match &mut self.tier {
            Tier::Installed(cm) => Some(cm),
            _ => None,
        }
    }

    /// Pinned to fallback-only code by the storm throttle.
    pub fn pinned(&self) -> bool {
        self.spec.is_some_and(|s| s.pinned)
    }
}

/// One slot per method of the program, plus the byte total of the
/// [`Tier::Installed`] slots.
pub(super) struct MethodTable {
    slots: Vec<MethodState>,
    installed_bytes: u64,
}

impl MethodTable {
    /// A table of `methods` cold slots without history.
    pub fn new(methods: usize) -> Self {
        MethodTable {
            slots: (0..methods).map(|_| MethodState::default()).collect(),
            installed_bytes: 0,
        }
    }

    /// Modeled bytes of all installed code.
    #[inline]
    pub fn installed_bytes(&self) -> u64 {
        self.installed_bytes
    }

    #[inline]
    pub fn get(&self, m: MethodId) -> &MethodState {
        &self.slots[m.index()]
    }

    #[inline]
    pub fn get_mut(&mut self, m: MethodId) -> &mut MethodState {
        &mut self.slots[m.index()]
    }

    /// Slots in [`MethodId`] order.
    pub fn iter(&self) -> impl Iterator<Item = (MethodId, &MethodState)> {
        let slots = self.slots.iter().enumerate();
        slots.map(|(i, s)| (MethodId::new(i), s))
    }

    /// The methods whose slot satisfies `pred`, sorted.
    pub fn ids_where(&self, pred: impl Fn(&MethodState) -> bool) -> Vec<MethodId> {
        let hits = self.iter().filter(|(_, s)| pred(s));
        hits.map(|(m, _)| m).collect()
    }

    // ---- the five transitions: the only writers of `tier` and `installed_bytes`

    /// Cold → Queued: a compile request for `m` entered the queue.
    pub fn enqueue(&mut self, m: MethodId) {
        let slot = self.get_mut(m);
        debug_assert!(
            matches!(slot.tier, Tier::Cold),
            "enqueue of {m:?}: not cold"
        );
        slot.tier = Tier::Queued;
    }

    /// Queued → Installed: `code.bytes` enter the accounting. `budget` is
    /// the cache bound the caller made room under (0 = unbounded).
    pub fn install(&mut self, m: MethodId, code: CompiledMethod, budget: u64) {
        // Anything else would be a double-install, or bytes for no request.
        debug_assert!(
            matches!(self.get(m).tier, Tier::Queued),
            "install of {m:?}: not queued"
        );
        self.installed_bytes += code.bytes;
        debug_assert!(
            budget == 0 || self.installed_bytes <= budget,
            "code-cache budget exceeded: {} installed > {budget} budget",
            self.installed_bytes
        );
        self.get_mut(m).tier = Tier::Installed(code);
    }

    /// Queued → Cold: admission control refused the package. Not a
    /// blacklist — the method re-heats from its hotness now against a bar
    /// that doubles with every consecutive deferral.
    pub fn defer(&mut self, m: MethodId, profiles: &ProfileTable) {
        let slot = self.get_mut(m);
        debug_assert!(
            matches!(slot.tier, Tier::Queued),
            "deferral of {m:?}: not queued"
        );
        slot.cache.deferrals = slot.cache.deferrals.saturating_add(1);
        slot.cache.base_hotness = hotness(profiles, m);
        slot.tier = Tier::Cold;
    }

    /// Queued → Blacklisted: every rung of the ladder failed.
    pub fn blacklist(&mut self, m: MethodId) {
        let slot = self.get_mut(m);
        debug_assert!(
            matches!(slot.tier, Tier::Queued),
            "blacklist of {m:?}: not queued"
        );
        slot.tier = Tier::Blacklisted;
    }

    /// Installed → Cold: the code's bytes leave the accounting, `exit`
    /// writes its history (see [`Exit`]; baselines are the [`hotness`] now),
    /// and the code is returned so the caller can count and emit what left.
    pub fn leave(
        &mut self,
        m: MethodId,
        exit: &Exit,
        profiles: &mut ProfileTable,
    ) -> CompiledMethod {
        let slot = &mut self.slots[m.index()];
        let Tier::Installed(code) = std::mem::replace(&mut slot.tier, Tier::Cold) else {
            panic!("leave of {m:?}: not installed");
        };
        debug_assert!(
            self.installed_bytes >= code.bytes,
            "code-cache accounting drift: releasing {} bytes with only {} installed",
            code.bytes,
            self.installed_bytes
        );
        self.installed_bytes = self.installed_bytes.saturating_sub(code.bytes);
        match exit {
            Exit::Invalidated => {
                slot.spec.get_or_insert_default().base_hotness = hotness(profiles, m);
            }
            Exit::Evicted { .. } => {
                slot.cache.evictions += 1;
                slot.cache.base_hotness = hotness(profiles, m);
            }
            Exit::Poisoned => {
                if let Some(seed) = slot.seeded.take() {
                    profiles.subtract(m, &seed);
                }
                slot.poisoned = true;
            }
        }
        code
    }

    /// The invariants no single transition can see, checked wherever the
    /// machine comes to rest (end of `run`, of a queue drain, of a snapshot
    /// replay) — in debug builds; release builds compile it to nothing.
    /// `idle` is false while guest frames may be on the stack.
    #[inline]
    pub fn check(&self, queue: &CompileQueue, budget: u64, decisions: &[Decision], idle: bool) {
        if !cfg!(debug_assertions) {
            return;
        }
        let (mut bytes, mut queued) = (0, 0);
        for (m, slot) in self.iter() {
            assert!(
                !idle || slot.live_frames == 0,
                "{m:?}: {} compiled frames outlived the run",
                slot.live_frames
            );
            match &slot.tier {
                Tier::Queued => queued += 1,
                Tier::Installed(code) => {
                    bytes += code.bytes;
                    let last = || decisions.iter().rev().find(|d| d.method == m);
                    assert!(
                        !code.probation || last().is_some_and(|d| d.replayed),
                        "{m:?}: on probation, but its last install was not a replay"
                    );
                    assert!(
                        !slot.pinned()
                            || !(code.drift_armed || code.force_deopt || code.force_drift),
                        "{m:?}: pinned code must never deoptimize"
                    );
                }
                Tier::Cold | Tier::Blacklisted => {}
            }
        }
        assert_eq!(bytes, self.installed_bytes, "installed_bytes drifted");
        assert!(
            budget == 0 || bytes <= budget,
            "{bytes} bytes installed over a budget of {budget}"
        );
        assert_eq!(queued, queue.len(), "queued slots vs. pending requests");
        for m in queue.pending_methods() {
            assert!(
                matches!(self.get(m).tier, Tier::Queued)
                    && queue.pending_methods().filter(|&p| p == m).count() == 1,
                "{m:?}: pending request without exactly one queued slot"
            );
        }
    }
}

impl Machine<'_> {
    /// Takes `method`'s installed code out of the cache through `exit`:
    /// the table releases the bytes and writes the exit's history, then
    /// the exit's counter and event follow, and the tier transition. No-op
    /// when the code is already gone (a nested activation of the same
    /// method may have taken it first — outer activations keep executing
    /// their `Arc` of the old graph safely).
    pub(super) fn leave(&mut self, method: MethodId, exit: Exit) {
        if self.methods.get(method).code().is_none() {
            return;
        }
        let code = self.methods.leave(method, &exit, &mut self.profiles);
        let bytes = code.bytes;
        match exit {
            Exit::Invalidated => {
                self.bailouts.invalidations += 1;
                let recompiles = self.methods.get(method).spec.map_or(0, |s| s.recompiles);
                self.emit(|| CompileEvent::CodeInvalidated {
                    method,
                    bytes,
                    recompiles,
                });
            }
            Exit::Evicted { forced } => {
                self.cache.evictions += 1;
                self.cache.forced_evictions += u64::from(forced);
                self.emit(|| CompileEvent::CodeEvicted {
                    method,
                    bytes,
                    policy: if forced { "forced" } else { "lru" }.to_string(),
                    resident_uses: code.invocations,
                });
            }
            Exit::Poisoned => {
                self.snapshot_stats.poisoned += 1;
                self.emit(|| CompileEvent::DecisionPoisoned {
                    method,
                    activations: code.invocations,
                    window: POISON_WINDOW,
                });
            }
        }
        self.emit(|| CompileEvent::TierTransition {
            method,
            tier: CodeTier::Interpreter,
        });
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::super::tests::sum_program;
    use super::*;
    use crate::{NoInline, VmConfig};

    /// Real installed code, taken back out of a machine, relabelled to
    /// weigh `bytes`.
    fn code(bytes: u64) -> CompiledMethod {
        let (p, m) = sum_program();
        let mut vm = Machine::new(&p, Box::new(NoInline), VmConfig::default());
        assert!(vm.compile_now(m));
        let code = vm.methods.leave(m, &Exit::Invalidated, &mut vm.profiles);
        CompiledMethod { bytes, ..code }
    }

    /// A one-slot table and its method.
    fn table() -> (MethodTable, MethodId) {
        (MethodTable::new(1), MethodId::new(0))
    }

    /// Walks `m` from `Cold` to `Installed` with `bytes` of code.
    fn install(table: &mut MethodTable, m: MethodId, bytes: u64) {
        table.enqueue(m);
        table.install(m, code(bytes), 0);
    }

    #[test]
    fn a_method_walks_every_edge_and_the_bytes_follow() {
        let (mut table, m) = table();
        let mut profiles = ProfileTable::new();
        let queue = CompileQueue::default();
        // The queue stays empty, so the checker passes in every state but
        // `Queued` (which it must refuse: see below).
        let at_rest = |t: &MethodTable, bytes| {
            assert_eq!(t.installed_bytes(), bytes);
            t.check(&queue, 100, &[], true);
        };
        at_rest(&table, 0);
        install(&mut table, m, 40);
        at_rest(&table, 40);

        profiles.method_mut(m).add(&MethodProfile::new(7, 0));
        table.leave(m, &Exit::Invalidated, &mut profiles);
        at_rest(&table, 0);
        let spec = table.get(m).spec.expect("invalidation creates the state");
        assert_eq!(
            (spec.recompiles, spec.pinned, spec.base_hotness),
            (0, false, 7)
        );

        install(&mut table, m, 60);
        at_rest(&table, 60);
        profiles.method_mut(m).add(&MethodProfile::new(1, 4));
        table.leave(m, &Exit::Evicted { forced: false }, &mut profiles);
        at_rest(&table, 0);
        let cache = table.get(m).cache;
        assert_eq!((cache.evictions, cache.base_hotness), (1, 9));
        assert_eq!(table.get(m).spec.unwrap().base_hotness, 7);

        // A poisoned exit rolls the snapshot's contribution back out and
        // writes neither baseline.
        table.get_mut(m).seeded = Some(Box::new(MethodProfile::new(3, 0)));
        install(&mut table, m, 25);
        table.leave(m, &Exit::Poisoned, &mut profiles);
        at_rest(&table, 0);
        assert!(table.get(m).poisoned && table.get(m).seeded.is_none());
        assert_eq!(profiles.invocations(m), 5);
        assert_eq!(table.get(m).cache.evictions, 1);
        assert_eq!(table.ids_where(|s| s.poisoned), vec![m]);

        table.enqueue(m);
        table.defer(m, &profiles);
        at_rest(&table, 0);
        let cache = table.get(m).cache;
        assert_eq!((cache.deferrals, cache.base_hotness), (1, 6));

        table.enqueue(m);
        table.blacklist(m);
        at_rest(&table, 0);
        assert!(matches!(table.get(m).tier(), Tier::Blacklisted));
    }

    #[test]
    #[should_panic(expected = "install of m0: not queued")]
    fn install_from_cold_is_refused() {
        let (mut table, m) = table();
        table.install(m, code(8), 0);
    }

    #[test]
    #[should_panic(expected = "leave of m0: not installed")]
    fn leave_from_queued_is_refused() {
        let (mut table, m) = table();
        table.enqueue(m);
        table.leave(m, &Exit::Invalidated, &mut ProfileTable::new());
    }

    #[test]
    #[should_panic(expected = "enqueue of m0: not cold")]
    fn double_enqueue_is_refused() {
        let (mut table, m) = table();
        table.enqueue(m);
        table.enqueue(m);
    }

    #[test]
    #[should_panic(expected = "blacklist of m0: not queued")]
    fn blacklist_with_code_is_refused() {
        let (mut table, m) = table();
        install(&mut table, m, 8);
        table.blacklist(m);
    }

    #[test]
    #[should_panic(expected = "queued slots vs. pending requests")]
    fn the_checker_refuses_a_queued_slot_the_queue_does_not_hold() {
        let (mut table, m) = table();
        table.enqueue(m);
        table.check(&CompileQueue::default(), 0, &[], true);
    }

    #[test]
    #[should_panic(expected = "compiled frames outlived the run")]
    fn the_checker_refuses_a_frame_left_behind() {
        let (mut table, m) = table();
        table.get_mut(m).live_frames = 1;
        table.check(&CompileQueue::default(), 0, &[], true);
    }

    #[test]
    #[should_panic(expected = "words left above the arguments")]
    fn the_checker_refuses_a_word_left_above_the_arguments() {
        let (p, m) = sum_program();
        let mut vm = Machine::new(&p, Box::new(NoInline), VmConfig::default());
        let args = [crate::Value::Int(3)];
        vm.run(m, args.to_vec()).expect("sum runs");
        vm.stack.extend([args[0].to_word(), 7]);
        vm.check_methods(true, Some(&args));
    }
}
