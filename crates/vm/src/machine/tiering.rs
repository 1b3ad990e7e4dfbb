//! When a method changes tier: the hotness trigger, the compile queue and
//! its virtual-time stall model, installation with budget admission, and
//! the drift monitor. The tier changes themselves are the transitions of
//! `methods`.

use std::sync::Arc;

use incline_ir::MethodId;
use incline_trace::{CodeTier, CompileEvent};

use super::methods::{hotness, CompiledMethod, Exit, Tier};
use super::{
    BailoutRecord, CompileStage, Decision, InstallPolicy, Machine, DRIFT_MIN_SAMPLES, DRIFT_RATE,
    MAX_RECOMPILES,
};
use crate::broker::{self, CompileRequest, CompileResponse, InstallPackage};
use crate::cache::{self, CacheEntry};
use crate::faults::FaultKind;
use crate::plan::PlannedGraph;
use crate::Speculation;

impl Machine<'_> {
    /// Compiles a method now, whatever its state: returns `true` when code
    /// is installed on return (already, or by this call), `false` when the
    /// method is blacklisted — the ladder exhausted, now or earlier — or
    /// admission control deferred the install. A cold method is enqueued
    /// first; the whole queue is drained, so a request already in flight
    /// (and any other pipelined one) installs here too.
    pub fn compile_now(&mut self, method: MethodId) -> bool {
        match self.methods.get(method).tier() {
            Tier::Installed(_) => return true,
            Tier::Blacklisted => return false,
            Tier::Queued => {}
            Tier::Cold => {
                self.enqueue_compile(method);
            }
        }
        self.drain_compile_queue();
        self.methods.get(method).code().is_some()
    }

    /// Removes a method's installed code, releasing its bytes and starting
    /// a fresh profiling baseline — the deterministic external invalidation
    /// point for tests and experiments. No-op when the method has no
    /// installed code.
    pub fn invalidate_code(&mut self, method: MethodId) {
        self.leave(method, Exit::Invalidated);
    }

    /// Enqueues a compilation request for `method` without draining the
    /// queue. Returns `false` (and enqueues nothing) when the method is
    /// already compiled, blacklisted, or has a request in flight — the
    /// guards that make double-installs impossible. The request snapshots
    /// fuel, fault and speculation; in [`InstallPolicy::Safepoint`] mode it
    /// also snapshots the profile table.
    pub fn enqueue_compile(&mut self, method: MethodId) -> bool {
        if !matches!(self.methods.get(method).tier(), Tier::Cold) {
            return false;
        }
        let fault = self.fault_plan.fault_at(self.queue.stats().enqueued);

        // Storm throttle: a method that deoptimized past the recompile cap
        // is pinned — this compile and every later one emit fallback-only
        // (never `deopt`) code and the drift monitor stays off. Decided at
        // enqueue: request counted, compilation not yet started.
        if self.config.deopt {
            if let Some(s) = &mut self.methods.get_mut(method).spec {
                if !s.pinned && s.recompiles >= MAX_RECOMPILES {
                    s.pinned = true;
                    self.bailouts.pinned += 1;
                    self.emit(|| CompileEvent::SpeculationPinned { method });
                }
            }
        }
        let profiles = match self.config.install_policy {
            // Barrier mode drains before the mutator runs another
            // instruction, so the live table is already the enqueue-time
            // view — no clone needed.
            InstallPolicy::Barrier => None,
            InstallPolicy::Safepoint => Some(self.profiles.clone()),
        };
        self.queue.push(CompileRequest {
            method,
            fuel_limit: self.config.compile_fuel,
            fault,
            speculation: Speculation {
                allow_deopt: self.config.deopt && !self.methods.get(method).pinned(),
            },
            profiles,
            enqueued_at: self.vnow(),
        });
        self.methods.enqueue(method);
        true
    }

    /// Drains the compile queue, oldest request first: compile (the ladder
    /// emits into the machine's own sink), charge the cycles and the stall,
    /// then install or blacklist — and only then the next request, so the
    /// trace reads compile(k), apply(k), compile(k+1), ….
    ///
    /// Out of line on purpose: this is the one door from `exec_method`, the
    /// frame every guest call recurses through, to the compile path, and
    /// with the ladder, the charge and the install inlined into that frame
    /// the *executor* slows (4 % on `interp_only` and `peak_compiled` in a
    /// draft of this loop, with the JIT off as much as on). Whether the
    /// optimizer would do that to this version is its choice; this is not.
    #[inline(never)]
    pub fn drain_compile_queue(&mut self) {
        if self.queue.is_empty() {
            return;
        }
        while let Some(req) = self.queue.pop() {
            let started = std::time::Instant::now();
            let resp = broker::run_ladder(
                self.program,
                &self.profiles,
                &*self.inliner,
                &req,
                &*self.trace,
                self.trials.as_deref(),
            );
            self.compile_wall_nanos += started.elapsed().as_nanos() as u64;
            // The failed rungs' waste plus the package's work, in one charge:
            // `compile_cost` is linear, so this equals a charge per attempt.
            let work = resp.wasted_work as usize
                + resp.package.as_ref().map_or(0, |p| p.outcome.work_nodes);
            self.charge(self.config.cost.compile_cost(work), Some(req.enqueued_at));
            self.apply_response(&req, resp);
        }
        // A popped request's method stays `Queued` until its response is
        // applied, so the table and the queue agree only out here.
        self.check_methods(false, None);
    }

    pub(super) fn hot(&self, method: MethodId) -> bool {
        let hotness = hotness(&self.profiles, method);
        let slot = self.methods.get(method);
        let spec_ok = match &slot.spec {
            // A previously invalidated method re-promotes on *fresh* profile
            // data only, against an exponentially backed-off bar — a method
            // that keeps deoptimizing has to prove itself harder each time
            // (storm throttling), while the compile still sees the merged
            // profile.
            Some(s) => hotness.saturating_sub(s.base_hotness) >= self.backoff_bar(s.recompiles),
            None => hotness >= self.config.hotness_threshold,
        };
        // The code-cache gate, moved only by evictions and admission
        // deferrals (so it never fires at budget 0, where it repeats the
        // gate above): an evicted method re-tiers through the normal
        // hotness path — fresh hotness above the eviction-time baseline at
        // the plain threshold — while each admission deferral doubles the
        // bar, throttling a method the cache keeps refusing.
        let c = &slot.cache;
        spec_ok && hotness.saturating_sub(c.base_hotness) >= self.backoff_bar(c.deferrals)
    }

    /// The backed-off hotness bar after a method's Nth recompilation or
    /// Nth consecutive admission deferral: `hotness_threshold * 2^n`,
    /// saturating.
    fn backoff_bar(&self, n: u32) -> u64 {
        self.config
            .hotness_threshold
            .saturating_mul(1u64 << n.min(20))
    }

    /// Charges `cycles` of compile work to the accounting counters and
    /// computes the mutator-visible stall it caused — the virtual-time
    /// account of compilation beside the mutator, and the one reader of
    /// [`VmConfig::compile_threads`](super::VmConfig::compile_threads). With
    /// N ≥ 1 modelled workers a request compiled from `enqueued_at` on the
    /// earliest-free one, so the mutator stalls only for the part not yet
    /// finished now, at the install; with none, or for work no worker does
    /// (`enqueued_at` is `None`), the mutator did the work itself and stalls
    /// for all of it. In `Barrier` mode every drain holds one request whose
    /// enqueue time is "now" and no worker is busy past it, so both formulas
    /// yield `stall == cycles`.
    fn charge(&mut self, cycles: u64, enqueued_at: Option<u64>) {
        self.run_compile_cycles += cycles;
        self.total_compile_cycles += cycles;
        let stall = match enqueued_at {
            Some(at) if self.config.compile_threads > 0 => {
                // A worker that never ran is free at 0, like the idlest
                // worker there can be, so one is made only when every
                // existing one has run: the pool is as large as the requests
                // made it, whatever `compile_threads` says.
                let workers = &mut self.worker_free;
                let w = match (0..workers.len()).min_by_key(|&w| workers[w]) {
                    Some(w) if workers[w] == 0 || workers.len() >= self.config.compile_threads => w,
                    _ => {
                        workers.push(0);
                        workers.len() - 1
                    }
                };
                let finish = at.max(workers[w]) + cycles;
                workers[w] = finish;
                finish.saturating_sub(self.vnow())
            }
            _ => cycles,
        };
        self.run_stall_cycles += stall;
        self.total_stall_cycles += stall;
    }

    /// Applies one compile response: records failed-rung bailouts, then
    /// installs the surviving package or blacklists the method.
    fn apply_response(&mut self, req: &CompileRequest, resp: CompileResponse) {
        let method = req.method;
        for (stage, error) in resp.failures {
            self.bailouts.record(stage, &error);
            self.bailout_log.push(BailoutRecord {
                method,
                stage,
                error,
            });
        }
        match resp.package {
            Some(pkg) => {
                // Admission control can still refuse the package, so the
                // queue's install counter reflects the actual outcome.
                let installed = self.install_package(method, pkg, req.fault);
                self.queue.note_completed(installed);
            }
            None => {
                self.queue.note_completed(false);
                self.methods.blacklist(method);
                self.bailouts.blacklisted += 1;
                self.emit(|| CompileEvent::TierTransition {
                    method,
                    tier: CodeTier::Interpreter,
                });
            }
        }
    }

    /// Installs a verified package into the code cache: budget admission,
    /// cache accounting, speculation bookkeeping, and the tier-transition /
    /// install events. The graph is already verified — verification is
    /// part of the ladder, so a rejected graph never reaches this point.
    /// Returns whether code was actually installed; `false` means admission
    /// control deferred the compile (the method is *not* blacklisted — it
    /// can re-heat through the backed-off bar).
    ///
    /// This is also where Safepoint-mode installs re-check admission: the
    /// cache state is read here, at the install point in request order,
    /// never at enqueue — so a compilation in flight never races an
    /// eviction.
    fn install_package(
        &mut self,
        method: MethodId,
        mut pkg: InstallPackage,
        fault: Option<FaultKind>,
    ) -> bool {
        let budget = self.config.code_cache_budget;
        if budget > 0 {
            if let Err(reason) = self.make_room(&pkg) {
                // A full-tier package that cannot be admitted gets one
                // shot at the inline-free degraded tier — a smaller
                // package that may still clear admission — before the
                // compile is deferred outright. This is the degradation
                // ladder's cache-pressure rung.
                let retry = if pkg.stage == CompileStage::Full {
                    self.degraded_retry(method)
                } else {
                    None
                };
                match retry {
                    Some(smaller) if self.make_room(&smaller).is_ok() => {
                        self.cache.degraded_admissions += 1;
                        pkg = smaller;
                    }
                    _ => {
                        let bytes = self.config.cost.code_bytes(pkg.outcome.graph.size());
                        return self.defer_install(method, bytes, reason);
                    }
                }
            }
        }
        let InstallPackage { stage, outcome } = pkg;
        let (graph_size, stats) = (outcome.graph.size(), outcome.stats);
        let bytes = self.config.cost.code_bytes(graph_size);
        self.decisions.push(Decision {
            method,
            replayed: self.replay_active,
            stats,
        });
        let code = PlannedGraph::compiled(
            &mut self.lower_scratch,
            self.program,
            self.program.method(method),
            outcome.graph,
            &self.config.cost,
        );
        let has_deopt = code.plan.has_deopt;
        let has_virtual = code.plan.has_virtual_call;
        let slot = self.methods.get(method);
        // Snapshot poison (quarantine ladder): a replayed install targeted
        // by a `PoisonSnapshot` fault traps on first entry, like ForceDeopt.
        let poisoned = self.replay_active && slot.poison_target;
        // Pinned code must never deoptimize, even under fault injection:
        // the injected speculation faults are ignored for pinned methods.
        let speculating = self.config.deopt && !slot.pinned();
        let force_deopt = speculating && (fault == Some(FaultKind::ForceDeopt) || poisoned);
        let force_drift = speculating && fault == Some(FaultKind::ForceGuardFailure);
        let drift_armed =
            speculating && (force_drift || (stats.speculative_sites > 0 && has_virtual));
        let installed = CompiledMethod {
            code: Arc::new(code),
            bytes,
            has_deopt,
            drift_armed,
            force_deopt,
            force_drift,
            // A replayed install starts its quarantine probation.
            probation: self.replay_active,
            invocations: 0,
            virtual_dispatches: 0,
            last_used: self.use_seq,
        };
        self.methods.install(method, installed, budget);
        let high_water = &mut self.cache.high_water_bytes;
        *high_water = (*high_water).max(self.methods.installed_bytes());
        self.emit(|| CompileEvent::TierTransition {
            method,
            tier: stage.code_tier(),
        });
        self.emit(|| CompileEvent::CodeInstalled {
            method,
            bytes,
            graph_size,
            work_nodes: outcome.work_nodes as u64,
        });
        // A successful install clears the admission backoff, and a method
        // with eviction history has observably re-tiered.
        let c = &mut self.methods.get_mut(method).cache;
        c.deferrals = 0;
        if c.evictions > 0 {
            let evictions = c.evictions;
            self.cache.re_tiered += 1;
            self.emit(|| CompileEvent::ReTiered { method, evictions });
        }
        // Every install after an invalidation is a recompilation against
        // the merged profile; the bar it cleared is recorded for tooling.
        if let (true, Some(s)) = (self.config.deopt, &mut self.methods.get_mut(method).spec) {
            let bar = s.recompiles;
            s.recompiles += 1;
            let threshold = self.backoff_bar(bar);
            let recompiles = bar + 1;
            self.bailouts.recompiles += 1;
            self.emit(|| CompileEvent::Recompiled {
                method,
                recompiles,
                threshold,
            });
        }
        // Injected cache fault: throw the fresh install straight back out,
        // as if pressure had picked it — exercises the evict → reprofile →
        // re-tier cycle deterministically, with or without a real budget.
        if fault == Some(FaultKind::ForceEvict) {
            self.leave(method, Exit::Evicted { forced: true });
        }
        true
    }

    // ---- bounded code cache ------------------------------------------------

    /// Makes room in the budgeted cache for `pkg`, evicting the least
    /// recently used residents if necessary. `Err` carries the
    /// admission-rejection reason, `no_evictable_victim`: everything
    /// resident is pinned, mid-activation, or simply smaller in total than
    /// the shortfall — which includes any package bigger than the whole
    /// budget.
    fn make_room(&mut self, pkg: &InstallPackage) -> Result<(), &'static str> {
        let budget = self.config.code_cache_budget;
        let bytes = self.config.cost.code_bytes(pkg.outcome.graph.size());
        let free = budget.saturating_sub(self.methods.installed_bytes());
        if bytes <= free {
            return Ok(());
        }
        let need = bytes - free;
        // Evictable now: storm-pinned methods keep their fallback-only
        // code (evicting it would re-open the recompile storm the pin
        // closed), and a method with a live compiled activation on the
        // stack is untouchable mid-flight. The installing method has no code.
        let entries: Vec<CacheEntry> = self
            .methods
            .iter()
            .filter(|(_, slot)| !slot.pinned() && slot.live_frames == 0)
            .filter_map(|(m, slot)| {
                let cm = slot.code()?;
                Some(CacheEntry {
                    method: m,
                    last_used: cm.last_used,
                    bytes: cm.bytes,
                })
            })
            .collect();
        if entries.iter().map(|e| e.bytes).sum::<u64>() < need {
            return Err("no_evictable_victim");
        }
        // Making room is a use tick of its own: the install that follows is
        // stamped with it, strictly newer than every resident.
        self.use_seq += 1;
        let mut freed = 0u64;
        for e in cache::victim_order(&entries) {
            if freed >= need {
                break;
            }
            freed += e.bytes;
            self.leave(e.method, Exit::Evicted { forced: false });
        }
        Ok(())
    }

    /// Graceful rejection: the compile is dropped (not blacklisted), the
    /// method goes back to the interpreter, and its re-admission bar backs
    /// off exponentially — the cache-pressure analogue of the recompile
    /// storm throttle. Returns `false` for `install_package`.
    fn defer_install(&mut self, method: MethodId, bytes: u64, reason: &'static str) -> bool {
        self.cache.admission_rejections += 1;
        self.methods.defer(method, &self.profiles);
        self.emit(|| CompileEvent::AdmissionRejected {
            method,
            bytes,
            reason: reason.to_string(),
        });
        self.emit(|| CompileEvent::TierTransition {
            method,
            tier: CodeTier::Interpreter,
        });
        false
    }

    /// Recompiles `method` on the inline-free degraded tier at the install
    /// safepoint, for the admission retry. No modelled worker does this
    /// one (the request's worker finished with its full-tier package), so
    /// its compile cost is charged entirely as stall. `None` when the rung
    /// fails: the caller defers, and the failed attempt is not charged.
    fn degraded_retry(&mut self, method: MethodId) -> Option<InstallPackage> {
        let fuel = self.config.compile_fuel;
        let pkg = broker::degraded_tier(self.program, method, fuel, &*self.trace).ok()?;
        self.charge(self.config.cost.compile_cost(pkg.outcome.work_nodes), None);
        Some(pkg)
    }

    /// Whether the drift monitor wants to invalidate `method` before its
    /// next compiled activation: armed speculated code whose fallback
    /// virtual-dispatch rate exceeds [`DRIFT_RATE`].
    pub(super) fn drift_tripped(&self, method: MethodId) -> bool {
        if !self.config.deopt {
            return false;
        }
        let Some(cm) = self.methods.get(method).code() else {
            return false;
        };
        if !cm.drift_armed || cm.invocations < DRIFT_MIN_SAMPLES {
            return false;
        }
        if cm.force_drift {
            return true;
        }
        cm.virtual_dispatches as f64 > DRIFT_RATE * cm.invocations as f64
    }
}

#[cfg(test)]
mod tests {
    use super::super::methods::SpecState;
    use super::super::tests::sum_program;
    use super::*;
    use crate::faults::FaultPlan;
    use crate::{
        CompileCx, CompileError, CompileOutcome, InlineStats, Inliner, NoInline, Value, VmConfig,
    };
    use incline_ir::Program;

    #[test]
    fn jit_promotes_hot_method_and_speeds_it_up() {
        let (p, m) = sum_program();
        let config = VmConfig {
            hotness_threshold: 3,
            ..VmConfig::default()
        };
        let mut vm = Machine::new(&p, Box::new(NoInline), config);
        let interp_cost = vm.run(m, vec![Value::Int(100)]).unwrap().exec_cycles;
        vm.run(m, vec![Value::Int(100)]).unwrap();
        vm.run(m, vec![Value::Int(100)]).unwrap(); // compile triggers here
        assert_eq!(vm.compilations(), 1);
        assert!(vm.installed_bytes() > 0);
        let compiled_cost = vm.run(m, vec![Value::Int(100)]).unwrap().exec_cycles;
        assert!(
            compiled_cost * 2 < interp_cost,
            "compiled ({compiled_cost}) must be much faster than interpreted ({interp_cost})"
        );
    }

    /// An inliner that always unwinds — a stand-in for a compiler bug.
    struct PanickingInliner;
    impl Inliner for PanickingInliner {
        fn name(&self) -> &str {
            "panicking"
        }
        fn compile(
            &self,
            _method: MethodId,
            _cx: &CompileCx<'_>,
        ) -> Result<CompileOutcome, CompileError> {
            panic!("synthetic inliner bug");
        }
    }

    #[test]
    fn inliner_panic_is_contained_and_ladder_degrades() {
        let (p, m) = sum_program();
        let config = VmConfig {
            hotness_threshold: 2,
            ..VmConfig::default()
        };
        let mut vm = Machine::new(&p, Box::new(PanickingInliner), config);
        for _ in 0..4 {
            let out = vm.run(m, vec![Value::Int(10)]).unwrap();
            assert_eq!(
                out.value,
                Some(Value::Int(45)),
                "output correct despite compiler bug"
            );
        }
        let b = vm.bailouts();
        assert_eq!(b.contained_panics, 1);
        assert_eq!(b.full_tier, 1);
        assert_eq!(
            b.degraded_tier, 0,
            "degraded rung bypasses the faulty inliner"
        );
        assert_eq!(b.blacklisted, 0);
        assert_eq!(vm.compilations(), 1, "degraded tier installed code");
        assert_eq!(vm.compiled_methods(), vec![m]);
        assert!(matches!(
            vm.report().bailout_log[..],
            [BailoutRecord {
                stage: CompileStage::Full,
                error: CompileError::Panicked(_),
                ..
            }]
        ));
    }

    /// An inliner that miscompiles: the graph it returns is damaged.
    struct CorruptingInliner;
    impl Inliner for CorruptingInliner {
        fn name(&self) -> &str {
            "corrupting"
        }
        fn compile(
            &self,
            method: MethodId,
            cx: &CompileCx<'_>,
        ) -> Result<CompileOutcome, CompileError> {
            let mut graph = cx.program.method(method).graph.clone();
            crate::faults::corrupt_graph(&mut graph);
            let size = graph.size();
            Ok(CompileOutcome {
                graph,
                work_nodes: size,
                stats: InlineStats::default(),
            })
        }
    }

    #[test]
    fn miscompiled_graph_is_rejected_not_installed() {
        let (p, m) = sum_program();
        let config = VmConfig {
            hotness_threshold: 2,
            ..VmConfig::default()
        };
        let mut vm = Machine::new(&p, Box::new(CorruptingInliner), config);
        for _ in 0..4 {
            let out = vm.run(m, vec![Value::Int(10)]).unwrap();
            assert_eq!(out.value, Some(Value::Int(45)));
        }
        let b = vm.bailouts();
        assert_eq!(b.verifier_rejections, 1);
        assert_eq!(b.full_tier, 1);
        assert_eq!(
            vm.compilations(),
            1,
            "only the degraded graph was installed"
        );
        // The installed graph is the verified degraded one, not the corrupt one.
        let decl = p.method(m);
        incline_ir::verify::verify_graph(&p, vm.compiled_graph(m).unwrap(), &decl.params, decl.ret)
            .unwrap();
    }

    #[test]
    fn exhausted_ladder_blacklists_and_interpreter_carries_on() {
        let (p, m) = sum_program();
        // A zero compile budget fails both rungs: full tier and degraded
        // tier each report OutOfFuel, so the method is blacklisted.
        let config = VmConfig {
            hotness_threshold: 2,
            compile_fuel: 0,
            ..VmConfig::default()
        };
        let mut vm = Machine::new(&p, Box::new(NoInline), config);
        for _ in 0..6 {
            let out = vm.run(m, vec![Value::Int(10)]).unwrap();
            assert_eq!(
                out.value,
                Some(Value::Int(45)),
                "interpreter keeps the program alive"
            );
        }
        let b = vm.bailouts();
        assert_eq!(b.full_tier, 1);
        assert_eq!(b.degraded_tier, 1);
        assert_eq!(b.blacklisted, 1);
        assert_eq!(b.fuel_exhaustions, 2);
        assert_eq!(vm.compilations(), 0, "nothing was ever installed");
        let report = vm.report();
        assert_eq!(report.blacklisted, vec![m]);
        assert_eq!(
            report.compile_requests, 1,
            "a blacklisted method must never be re-attempted"
        );
    }

    #[test]
    fn invalidation_keeps_installed_bytes_symmetric() {
        // Compile, force-deoptimize (which invalidates), recompile: the
        // code-cache accounting must return to exactly one install's worth
        // of bytes, not accumulate one per (re)install.
        let (p, m) = sum_program();
        let config = VmConfig {
            hotness_threshold: 2,
            deopt: true,
            ..VmConfig::default()
        };

        // Reference: the same program compiled once without faults.
        let mut clean = Machine::new(&p, Box::new(NoInline), config);
        for _ in 0..3 {
            clean.run(m, vec![Value::Int(10)]).unwrap();
        }
        let one_install = clean.installed_bytes();
        assert!(one_install > 0, "reference must compile");

        let mut vm = Machine::new(&p, Box::new(NoInline), config);
        vm.set_fault_plan(FaultPlan::new().inject(0, FaultKind::ForceDeopt));
        // Run 2 reaches the hotness bar, compiles (request 0, marked), and
        // the first compiled activation deopts at entry: the cache must be
        // empty again and the run's output untouched.
        for _ in 0..2 {
            let out = vm.run(m, vec![Value::Int(10)]).unwrap();
            assert_eq!(out.value, Some(Value::Int(45)));
        }
        assert_eq!(vm.bailouts().deopts, 1);
        assert_eq!(vm.bailouts().invalidations, 1);
        assert_eq!(vm.installed_bytes(), 0, "invalidation must release bytes");

        // Fresh profile clears the backed-off bar (2 * 2^0) after two more
        // interpreted runs; the recompile is clean (fault was one-shot).
        for _ in 0..4 {
            let out = vm.run(m, vec![Value::Int(10)]).unwrap();
            assert_eq!(out.value, Some(Value::Int(45)));
        }
        assert_eq!(vm.bailouts().recompiles, 1);
        assert_eq!(
            vm.installed_bytes(),
            one_install,
            "reinstall must not double-count bytes"
        );
        assert!(vm.report().pinned.is_empty());
    }

    #[test]
    fn deopt_faults_are_inert_when_deopt_disabled() {
        // With `deopt: false` (the default) the speculation faults must
        // change nothing: no deopts, no invalidations, code stays put.
        let (p, m) = sum_program();
        let mut vm = Machine::new(
            &p,
            Box::new(NoInline),
            VmConfig {
                hotness_threshold: 2,
                ..VmConfig::default()
            },
        );
        vm.set_fault_plan(
            FaultPlan::new()
                .inject(0, FaultKind::ForceDeopt)
                .inject(1, FaultKind::ForceGuardFailure),
        );
        for _ in 0..12 {
            let out = vm.run(m, vec![Value::Int(10)]).unwrap();
            assert_eq!(out.value, Some(Value::Int(45)));
        }
        let b = vm.bailouts();
        assert_eq!(b.deopts, 0);
        assert_eq!(b.invalidations, 0);
        assert_eq!(b.recompiles, 0);
        assert_eq!(b.pinned, 0);
        assert!(
            vm.installed_bytes() > 0,
            "the compiled code stays installed"
        );
    }

    /// `f_i(x) = x + 1 + … + 1` with `i + 1` additions: nine methods whose
    /// compile costs all differ.
    fn ladder_of_adders() -> (Program, Vec<MethodId>) {
        use incline_ir::builder::FunctionBuilder;
        use incline_ir::Type;
        let mut p = Program::new();
        let mut ids = Vec::new();
        for i in 0..9 {
            let m = p.declare_function(format!("f{i}"), vec![Type::Int], Type::Int);
            let mut fb = FunctionBuilder::new(&p, m);
            let one = fb.const_int(1);
            let mut x = fb.param(0);
            for _ in 0..=i {
                x = fb.iadd(x, one);
            }
            fb.ret(Some(x));
            let g = fb.finish();
            p.define_method(m, g);
            ids.push(m);
        }
        (p, ids)
    }

    #[test]
    fn workers_made_on_demand_stall_like_a_pool_made_up_front() {
        // Three requests enqueued at one instant, installed at the entry of
        // the next run, three times over: with fewer than three workers they
        // wait for one another, and the next batch arrives while the last
        // one's workers are still busy.
        let (p, methods) = ladder_of_adders();
        let stalls = |workers: usize, up_front: bool| {
            let config = VmConfig {
                compile_threads: workers,
                install_policy: InstallPolicy::Safepoint,
                ..VmConfig::default()
            };
            let mut vm = Machine::new(&p, Box::new(NoInline), config);
            if up_front {
                vm.worker_free = vec![0; workers];
            }
            let mut stalls = Vec::new();
            for batch in methods.chunks(3) {
                for &m in batch {
                    assert!(vm.enqueue_compile(m));
                }
                let out = vm.run(batch[0], vec![Value::Int(1)]).unwrap();
                stalls.push(out.stall_cycles);
            }
            assert_eq!(vm.total_stall_cycles(), stalls.iter().sum::<u64>());
            stalls
        };
        for workers in [1, 2, 4] {
            assert_eq!(
                stalls(workers, false),
                stalls(workers, true),
                "{workers} workers"
            );
        }
        let total = |workers| stalls(workers, false).iter().sum::<u64>();
        assert!(total(1) > total(2) && total(2) > total(4));
    }

    fn machine_with_threshold(threshold: u64) -> (MethodId, Machine<'static>) {
        // Leak the program so the machine can borrow it with a 'static
        // lifetime — these tests only probe pure arithmetic helpers.
        let (p, m) = sum_program();
        let p: &'static Program = Box::leak(Box::new(p));
        let vm = Machine::new(
            p,
            Box::new(NoInline),
            VmConfig {
                hotness_threshold: threshold,
                ..VmConfig::default()
            },
        );
        (m, vm)
    }

    #[test]
    fn backoff_bar_is_threshold_times_two_to_the_n() {
        let (_, vm) = machine_with_threshold(3);
        let bars: Vec<u64> = (0..6).map(|n| vm.backoff_bar(n)).collect();
        assert_eq!(bars, vec![3, 6, 12, 24, 48, 96]);
    }

    #[test]
    fn backoff_bar_saturates_instead_of_overflowing() {
        // The exponent clamps at 20 and the multiply saturates, so even
        // absurd recompile counts and thresholds cannot wrap.
        let (_, vm) = machine_with_threshold(5);
        assert_eq!(vm.backoff_bar(20), 5 * (1 << 20));
        assert_eq!(vm.backoff_bar(63), 5 * (1 << 20), "exponent clamps at 20");
        assert_eq!(vm.backoff_bar(u32::MAX), 5 * (1 << 20));
        let (_, vm) = machine_with_threshold(u64::MAX);
        assert_eq!(vm.backoff_bar(0), u64::MAX);
        assert_eq!(vm.backoff_bar(1), u64::MAX, "multiply saturates");
        let (_, vm) = machine_with_threshold(u64::MAX / 2 + 1);
        assert_eq!(vm.backoff_bar(1), u64::MAX);
    }

    #[test]
    fn hotness_backoff_doubles_the_bar_per_recompile() {
        // A method with speculation state re-promotes against
        // `threshold * 2^recompiles` counted from its post-invalidation
        // profile baseline — the storm-throttle backoff sequence.
        let (m, mut vm) = machine_with_threshold(4);
        for (recompiles, bar) in [(0u32, 4u64), (1, 8), (2, 16), (3, 32)] {
            vm.methods.get_mut(m).spec = Some(SpecState {
                recompiles,
                pinned: false,
                base_hotness: 100,
            });
            vm.profiles = Default::default();
            for _ in 0..(100 + bar - 1) {
                vm.profiles.record_invocation(m);
            }
            assert!(
                !vm.hot(m),
                "one below the backed-off bar (recompiles={recompiles}) must stay cold"
            );
            vm.profiles.record_invocation(m);
            assert!(
                vm.hot(m),
                "reaching baseline + {bar} fresh invocations must re-promote"
            );
        }
    }
}
