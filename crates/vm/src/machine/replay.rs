//! Warmup snapshots on the machine: capture, the graceful load paths,
//! eager replay through the normal broker, the one read/write prelude the
//! sessions and the CLI share, and the quarantine ladder's verdict.

use incline_ir::MethodId;
use incline_trace::CompileEvent;

use super::methods::{Exit, Tier};
use super::{Machine, POISON_WINDOW};
use crate::snapshot::{self, MergePolicy, Snapshot, SnapshotError, SnapshotIo};

impl Machine<'_> {
    /// Captures the machine's learned state — the full profile table plus
    /// the compiled methods, in first-install order — as a [`Snapshot`]
    /// fingerprinted against the running program. Byte-deterministic: two
    /// machines that observed the same run produce identical
    /// [`Snapshot::to_bytes`] output.
    ///
    /// A replayed install of a method later quarantined as poisoned is
    /// left out — a bad snapshot does not propagate its poison to the next
    /// generation. An install the method *re-earned* from live traffic
    /// after quarantine is included normally.
    pub fn snapshot(&self) -> Snapshot {
        let mut seen = std::collections::HashSet::new();
        let decisions: Vec<MethodId> = (self.decisions.iter())
            .filter(|d| !(d.replayed && self.methods.get(d.method).poisoned))
            .map(|d| d.method)
            .filter(|&m| seen.insert(m))
            .collect();
        Snapshot::capture(
            snapshot::fingerprint(self.program),
            &self.profiles,
            &decisions,
        )
    }

    /// The snapshot prelude of a session: reads `snapshot` and applies it
    /// ([`Machine::load_snapshot`]), then reads and parses `replicas` and
    /// applies their merge ([`Machine::load_merged_or_cold`], skipped for
    /// an empty set). Every failure — unreadable store, unparsable bytes,
    /// stale program — counts a fallback, emits
    /// [`CompileEvent::SnapshotFallback`] and leaves a cold start: never an
    /// error, never a panic.
    pub fn warm_from(&mut self, snapshot: Option<&SnapshotIo>, replicas: &[SnapshotIo]) {
        let loaded = snapshot.map(|io| io.read().and_then(|b| self.load_snapshot(&b)));
        if let Some(Err(e)) = loaded {
            self.note_snapshot_fallback(&e.to_string());
        }
        if replicas.is_empty() {
            return;
        }
        let mut parsed = Vec::with_capacity(replicas.len());
        for io in replicas {
            match io.read().and_then(|bytes| Snapshot::from_bytes(&bytes)) {
                Ok(snap) => parsed.push(snap),
                Err(e) => self.note_snapshot_fallback(&e.to_string()),
            }
        }
        self.load_merged_or_cold(&parsed);
    }

    /// The snapshot epilogue of a session: writes [`Machine::snapshot`] to
    /// `io`, counting the write and emitting [`CompileEvent::SnapshotWritten`]
    /// — or counting a write failure, graceful like every other snapshot
    /// failure.
    pub fn persist_to(&mut self, io: &SnapshotIo) {
        let snap = self.snapshot();
        let bytes = snap.to_bytes();
        if io.write(&bytes).is_err() {
            self.snapshot_stats.write_failures += 1;
            return;
        }
        self.snapshot_stats.written += 1;
        self.emit(|| CompileEvent::SnapshotWritten {
            methods: snap.methods.len() as u64,
            decisions: snap.decisions.len() as u64,
            bytes: bytes.len() as u64,
        });
    }

    /// Strictly loads a serialized snapshot: parse, checksum, fingerprint
    /// check, then [`Machine::apply_snapshot`].
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]; the machine state is untouched on error.
    pub fn load_snapshot(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let snap = Snapshot::from_bytes(bytes)?;
        self.apply_snapshot(&snap)
    }

    /// Gracefully merges N parsed replica snapshots and applies the result:
    /// replicas with a foreign program fingerprint are dropped (each counts
    /// a fallback), the survivors go through [`Snapshot::merge`] with the
    /// machine's own `hotness_threshold` as the support bar, and the merged
    /// snapshot is applied like any other load. Emits
    /// [`CompileEvent::SnapshotMerged`] plus one
    /// [`CompileEvent::DecisionAgedOut`] per decision the support check
    /// dropped. On any failure (zero usable replicas) the machine counts a
    /// fallback and proceeds cold — never a panic. Returns whether a merged
    /// snapshot was applied.
    pub fn load_merged_or_cold(&mut self, replicas: &[Snapshot]) -> bool {
        let expected = snapshot::fingerprint(self.program);
        let mut usable: Vec<Snapshot> = Vec::new();
        for r in replicas {
            if r.fingerprint != expected {
                self.note_snapshot_fallback(&format!(
                    "stale replica: program fingerprint {:016x} expected {:016x}",
                    r.fingerprint, expected
                ));
            } else if let Err(e) = r.check_indices(self.program) {
                self.note_snapshot_fallback(&e.to_string());
            } else {
                usable.push(r.clone());
            }
        }
        if usable.is_empty() {
            if replicas.is_empty() {
                self.note_snapshot_fallback("merge of zero replicas");
            }
            return false;
        }
        let policy = MergePolicy::with_support(self.config.hotness_threshold.max(1));
        let merged = match Snapshot::merge(&usable, &policy) {
            Ok(m) => m,
            Err(e) => {
                self.note_snapshot_fallback(&e.to_string());
                return false;
            }
        };
        let stats = merged.stats;
        self.emit(|| CompileEvent::SnapshotMerged {
            replicas: stats.replicas,
            methods: stats.methods,
            decisions: stats.decisions,
            aged_out: stats.aged_out,
        });
        let required = merged.min_support;
        for &(method, hotness) in &merged.aged_out {
            self.emit(|| CompileEvent::DecisionAgedOut {
                method,
                hotness,
                required,
            });
        }
        self.snapshot_stats.merged += stats.replicas;
        self.snapshot_stats.aged_out += stats.aged_out;
        match self.apply_snapshot(&merged.snapshot) {
            Ok(()) => true,
            Err(e) => {
                self.note_snapshot_fallback(&e.to_string());
                false
            }
        }
    }

    /// Applies a parsed snapshot before the first run: verifies the program
    /// fingerprint, merges the snapshot's profiles into the live table, and
    /// compiles the decision log's method set up front through the normal
    /// broker/ladder/cache-admission path (budgets, verification, admission
    /// control and fault injection all still apply). The replay's compile
    /// latency is folded into the virtual clock as pre-run warmup, so
    /// measured iterations start steady.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::StaleProgram`] when the fingerprint does not match
    /// the running program, [`SnapshotError::Corrupt`] when a record names
    /// a method, block, callsite or class the program does not have;
    /// profiles are untouched in both cases.
    pub fn apply_snapshot(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        let expected = snapshot::fingerprint(self.program);
        if snap.fingerprint != expected {
            return Err(SnapshotError::StaleProgram {
                expected,
                found: snap.fingerprint,
            });
        }
        snap.check_indices(self.program)?;
        let table = snap.profile_table();
        self.snapshot_stats.seeded_methods += table.len() as u64;
        // Remember each method's seeded contribution so the quarantine
        // ladder can roll it back if the decision turns out poisoned.
        for (m, mp) in table.iter() {
            let seeded = &mut self.methods.get_mut(m).seeded;
            seeded.get_or_insert_default().add(mp);
        }
        self.profiles.merge(&table);
        self.snapshot_stats.loaded += 1;
        let (methods, decisions) = (snap.methods.len() as u64, snap.decisions.len() as u64);
        self.emit(|| CompileEvent::SnapshotLoaded { methods, decisions });
        // Injected snapshot poison: `decision_idx` indexes the decision
        // log about to be replayed; the targeted installs take an uncommon
        // trap on first entry.
        for idx in self.fault_plan.poisoned_decisions() {
            if let Some(&m) = snap.decisions.get(idx as usize) {
                self.methods.get_mut(m).poison_target = true;
            }
        }
        // One request per decided method, enqueued and drained
        // sequentially — exactly the Barrier-mode hotness trigger, so the
        // stall does not depend on the modelled worker count.
        self.replay_active = true;
        for &m in &snap.decisions {
            let tier = self.methods.get(m).tier();
            if matches!(tier, Tier::Cold | Tier::Queued) && self.compile_now(m) {
                self.snapshot_stats.replayed_compiles += 1;
            }
        }
        self.replay_active = false;
        // The replay is pre-run warmup: fold its stall into the virtual
        // clock base so the first measured run starts clean (and the
        // modelled workers' timeline stays monotone).
        self.vbase += self.exec_cycles + self.run_stall_cycles;
        self.exec_cycles = 0;
        self.exec_fraction = 0;
        self.run_compile_cycles = 0;
        self.run_stall_cycles = 0;
        self.check_methods(true, None);
        Ok(())
    }

    /// Counts a graceful cold-start fallback (snapshot unreadable, stale or
    /// corrupt) and emits [`CompileEvent::SnapshotFallback`].
    fn note_snapshot_fallback(&mut self, reason: &str) {
        self.snapshot_stats.fallbacks += 1;
        self.emit(|| CompileEvent::SnapshotFallback {
            reason: reason.to_string(),
        });
    }

    /// Quarantine ladder: how deoptimized code of `method` leaves. A deopt
    /// while replayed code is still inside its probation window is
    /// attributed to the snapshot it was replayed from —
    /// [`Exit::Poisoned`], evict-style: no speculation state is created, so
    /// the recompile budget is never burned and a bad snapshot cannot pin
    /// the method; a fully poisoned snapshot thereby converges to a cold
    /// start. Anything later is live drift and takes the ordinary
    /// invalidate → reprofile → recompile path.
    pub(super) fn deopt_exit(&self, method: MethodId) -> Exit {
        match self.methods.get(method).code() {
            Some(cm) if cm.probation && cm.invocations <= POISON_WINDOW => Exit::Poisoned,
            _ => Exit::Invalidated,
        }
    }
}
