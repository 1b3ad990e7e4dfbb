//! Multi-tenant request-serving simulation with tail-latency metrics.
//!
//! The benchmark harness ([`crate::RunSession`]) answers "how fast does one
//! workload warm up?". A production JIT answers a different question: *N*
//! tenants with different receiver mixes share one VM, one compile broker
//! and one bounded code cache, and what matters is the **tail** of the
//! request-latency distribution — the p99/p999 requests that stall behind
//! someone else's compilation or re-warm a method the cache evicted.
//!
//! [`ServerSession`] models that as a deterministic virtual-time loop. It
//! is the [`Session`] builder of the benchmark harness with tenants and a
//! [`ServerSpec`] as its work, so the two share every setter and the
//! machine's set-up and snapshot write:
//!
//! * a seeded [`Rng64`] arrival process generates a bursty request schedule
//!   (alternating calm and burst windows, weighted tenant selection);
//! * each tenant flips its input mid-run after a per-tenant fraction of its
//!   requests (`flip_after`), generalizing the `phase_change` workload —
//!   entry methods branch on the argument, so the flip changes the hot
//!   receiver mix and invalidates speculation made during the first phase;
//! * requests retire in arrival order on the shared
//!   [`Machine`](crate::Machine); the serve clock advances as
//!   `max(clock, arrival) + service`, so a request's latency is queueing
//!   delay plus execution plus mutator-visible compile stall;
//! * per-request failures (injected faults, trap storms) are absorbed into
//!   per-tenant failure counts — one tenant degrading never aborts another
//!   tenant's traffic.
//!
//! Everything is virtual-time and seeded, so a [`ServerReport`] repeats
//! exactly. Under [`InstallPolicy::Barrier`](crate::InstallPolicy::Barrier)
//! it does not depend on the modelled worker count, while
//! [`InstallPolicy::Safepoint`](crate::InstallPolicy::Safepoint) overlaps
//! compilation with the request stream in virtual time and shows up as a
//! measured p99 win.

use std::hash::Hasher;

use incline_ir::{MethodId, Program, Rng64, StructuralHasher};
use incline_trace::CompileEvent;

use crate::cache::CacheStats;
use crate::machine::BailoutCounters;
use crate::runner::Session;
use crate::snapshot::SnapshotStats;
use crate::stats::{fairness_index, LatencyStats};
use crate::value::Value;

/// One tenant sharing the simulated server.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantSpec {
    /// Display name (stable across runs; used in reports and trace events).
    pub name: String,
    /// The tenant's entry method inside the shared [`Program`].
    pub entry: MethodId,
    /// Relative traffic weight (share of the arrival process).
    pub weight: u32,
    /// Work parameter passed as the entry argument (phase A input).
    pub work: i64,
    /// Phase pivot: entry methods branch on `arg < pivot`, so phase B
    /// requests pass `pivot + work` and exercise a different receiver mix.
    pub pivot: i64,
    /// Fraction of this tenant's requests served before the phase flip
    /// (`0.0` = all phase B, `1.0` = never flips).
    pub flip_after: f64,
}

impl TenantSpec {
    /// A tenant with unit weight, no work offset and no phase flip.
    pub fn new(name: impl Into<String>, entry: MethodId) -> Self {
        TenantSpec {
            name: name.into(),
            entry,
            weight: 1,
            work: 0,
            pivot: i64::MAX,
            flip_after: 1.0,
        }
    }
}

/// Arrival-process parameters for one simulated serving run.
///
/// The schedule alternates *calm* windows (`calm_len` requests with
/// inter-arrival gaps around `calm_gap` cycles) and *bursts* (`burst_len`
/// requests around `burst_gap`). Bursts are where install policies
/// separate: a barrier-mode compile stalls every queued request behind it,
/// a safepoint-mode compile overlaps with the backlog.
#[derive(Clone, Debug, PartialEq)]
pub struct ServerSpec {
    /// Seed for the arrival process (tenant picks + gap jitter).
    pub seed: u64,
    /// Total requests across all tenants.
    pub requests: usize,
    /// Mean inter-arrival gap inside a calm window, in cycles.
    pub calm_gap: u64,
    /// Mean inter-arrival gap inside a burst, in cycles.
    pub burst_gap: u64,
    /// Requests per calm window.
    pub calm_len: usize,
    /// Requests per burst.
    pub burst_len: usize,
    /// Sample the compile-queue depth every this many requests
    /// (`0` disables sampling).
    pub queue_sample_every: usize,
}

impl Default for ServerSpec {
    fn default() -> Self {
        ServerSpec {
            seed: 0xC60_2019,
            requests: 400,
            calm_gap: 4_000,
            burst_gap: 40,
            calm_len: 24,
            burst_len: 8,
            queue_sample_every: 16,
        }
    }
}

/// Why a serving run could not start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerError {
    /// No tenants were given.
    NoTenants,
    /// The spec asked for zero requests.
    ZeroRequests,
    /// Every tenant has weight zero — the arrival process is undefined.
    ZeroWeights,
    /// The arrival schedule for this many requests cannot be allocated.
    TooManyRequests(usize),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::NoTenants => write!(f, "server spec has no tenants"),
            ServerError::ZeroRequests => write!(f, "server spec requests zero requests"),
            ServerError::ZeroWeights => write!(f, "all tenant weights are zero"),
            ServerError::TooManyRequests(n) => write!(f, "cannot schedule {n} requests"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Per-tenant slice of a [`ServerReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct TenantReport {
    /// Tenant name (from [`TenantSpec::name`]).
    pub name: String,
    /// Requests routed to this tenant.
    pub requests: u64,
    /// Requests that stopped abnormally (faults, trap storms). Failed
    /// requests retire with zero service time and are excluded from the
    /// latency distributions.
    pub failed: u64,
    /// End-to-end latency distribution (queueing + execution + stall).
    pub latency: LatencyStats,
    /// Mutator-visible compile-stall distribution.
    pub stall: LatencyStats,
    /// Order-sensitive digest of the tenant's return values — equal
    /// digests mean the tenant computed the same answers, which is how the
    /// fault-injection tests assert that degradation is graceful.
    pub digest: u64,
}

/// Aggregate result of one serving run.
///
/// `PartialEq` so the determinism tests can assert that two runs produce
/// *identical* reports wholesale.
#[derive(Clone, Debug, PartialEq)]
pub struct ServerReport {
    /// Requests served (all tenants, including failed ones).
    pub requests: u64,
    /// End-to-end request-latency distribution across all tenants.
    pub latency: LatencyStats,
    /// Mutator-stall distribution across all tenants — `stall.max` is the
    /// worst pause any single request observed.
    pub stall: LatencyStats,
    /// `(request index, queue depth)` samples of the compile queue.
    pub queue_depth: Vec<(u64, u64)>,
    /// The most compile requests that ever waited at once
    /// ([`QueueStats::max_depth`](crate::QueueStats::max_depth)) — taken at
    /// every push, so no backlog falls between two samples.
    pub max_queue_depth: u64,
    /// Jain's fairness index over per-tenant mean latencies (1.0 = every
    /// tenant sees the same mean latency).
    pub fairness: f64,
    /// Per-tenant breakdowns, in [`ServerSession`] tenant order.
    pub tenants: Vec<TenantReport>,
    /// Methods compiled by the shared machine over the run.
    pub compilations: u64,
    /// Machine-code bytes resident at the end of the run.
    pub installed_bytes: u64,
    /// Code-cache statistics accumulated over the run.
    pub cache: CacheStats,
    /// Bailout counters accumulated over the run.
    pub bailouts: BailoutCounters,
    /// Final virtual clock — wall time of the whole serving run.
    pub total_cycles: u64,
    /// Warmup-snapshot counters accumulated over the run.
    pub snapshot: SnapshotStats,
}

/// One entry in the precomputed arrival schedule.
#[derive(Clone, Copy, Debug)]
struct Arrival {
    tenant: usize,
    at: u64,
}

/// Generates the arrival schedule: weighted tenant picks with alternating
/// calm/burst inter-arrival gaps, jittered uniformly in `[¾·gap, 1¼·gap)`.
/// Pure function of `(tenants, spec)` — the serve loop never touches the
/// RNG, so schedules are independent of install policy and worker count.
/// Fails when the schedule cannot be allocated.
fn schedule(tenants: &[TenantSpec], spec: &ServerSpec) -> Result<Vec<Arrival>, ServerError> {
    let mut rng = Rng64::new(spec.seed);
    let total_weight: u64 = tenants.iter().map(|t| u64::from(t.weight)).sum();
    let mut out = Vec::new();
    out.try_reserve_exact(spec.requests)
        .map_err(|_| ServerError::TooManyRequests(spec.requests))?;
    let mut at = 0u64;
    let mut in_window = 0usize;
    let mut bursting = false;
    for _ in 0..spec.requests {
        let window_len = if bursting {
            spec.burst_len
        } else {
            spec.calm_len
        };
        if in_window >= window_len.max(1) {
            bursting = !bursting;
            in_window = 0;
        }
        in_window += 1;
        let base = if bursting {
            spec.burst_gap
        } else {
            spec.calm_gap
        }
        .max(1);
        let jitter = rng.next_u64() % (base / 2 + 1);
        at += base - base / 4 + jitter;
        let mut pick = rng.next_u64() % total_weight;
        let mut tenant = 0usize;
        for (i, t) in tenants.iter().enumerate() {
            let w = u64::from(t.weight);
            if pick < w {
                tenant = i;
                break;
            }
            pick -= w;
        }
        out.push(Arrival { tenant, at });
    }
    Ok(out)
}

/// A configured serving run: `tenants` share one machine under the
/// arrival process of a [`ServerSpec`]. Its setters are [`Session`]'s.
///
/// ```
/// use incline_vm::{ServerSession, ServerSpec, TenantSpec, VmConfig};
/// # use incline_ir::{FunctionBuilder, Program, Type};
/// # let mut p = Program::new();
/// # let m = p.declare_function("serve", vec![Type::Int], Type::Int);
/// # let mut fb = FunctionBuilder::new(&p, m);
/// # let x = fb.param(0);
/// # fb.ret(Some(x));
/// # let g = fb.finish();
/// # p.define_method(m, g);
/// let spec = ServerSpec { requests: 10, ..ServerSpec::default() };
/// let report = ServerSession::new(&p, vec![TenantSpec::new("t0", m)], spec)
///     .config(VmConfig { hotness_threshold: 3, ..VmConfig::default() })
///     .serve()?;
/// assert_eq!(report.requests, 10);
/// # Ok::<(), incline_vm::ServerError>(())
/// ```
pub type ServerSession<'p> = Session<'p, (Vec<TenantSpec>, ServerSpec)>;

impl<'p> ServerSession<'p> {
    /// Starts a session over `program` serving `tenants` under `spec`,
    /// with the defaults of every setter.
    pub fn new(program: &'p Program, tenants: Vec<TenantSpec>, spec: ServerSpec) -> Self {
        Session::with_work(program, (tenants, spec))
    }

    /// Executes the configured serving run on a fresh [`Machine`](crate::Machine).
    ///
    /// # Errors
    ///
    /// Returns a [`ServerError`] when the spec is degenerate (no tenants,
    /// zero requests, all-zero weights, more requests than can be
    /// scheduled). Per-request execution failures do **not** abort the run
    /// — they are counted in [`TenantReport::failed`].
    pub fn serve(self) -> Result<ServerReport, ServerError> {
        let (tenants, spec) = &self.work;
        if tenants.is_empty() {
            return Err(ServerError::NoTenants);
        }
        if spec.requests == 0 {
            return Err(ServerError::ZeroRequests);
        }
        if tenants.iter().all(|t| t.weight == 0) {
            return Err(ServerError::ZeroWeights);
        }

        let arrivals = schedule(tenants, spec)?;
        // Per-tenant request totals decide each tenant's flip point:
        // tenant i serves `flip_at[i]` phase-A requests, then flips.
        let n = tenants.len();
        let mut totals = vec![0u64; n];
        for a in &arrivals {
            totals[a.tenant] += 1;
        }
        let flip_at: Vec<u64> = tenants
            .iter()
            .zip(&totals)
            .map(|(t, &total)| (total as f64 * t.flip_after.clamp(0.0, 1.0)).round() as u64)
            .collect();

        let mut clock = 0u64;
        let mut served = vec![0u64; n];
        let mut failed = vec![0u64; n];
        let mut digests = vec![StructuralHasher::new(); n];
        let mut lat_all = Vec::with_capacity(arrivals.len());
        let mut stall_all = Vec::with_capacity(arrivals.len());
        let mut lat_tenant: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut stall_tenant: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut queue_depth = Vec::new();

        let (vm, tenants) = self.drive(|vm, (tenants, spec), sink| {
            for (r, arrival) in arrivals.iter().enumerate() {
                let t = arrival.tenant;
                clock = clock.max(arrival.at);
                let queueing = clock - arrival.at;
                let tenant = &tenants[t];
                let phase_b = served[t] >= flip_at[t];
                let x = if phase_b {
                    tenant.pivot.saturating_add(tenant.work)
                } else {
                    tenant.work
                };
                served[t] += 1;
                match vm.run(tenant.entry, vec![Value::Int(x)]) {
                    Ok(out) => {
                        let service = out.total_cycles();
                        clock += service;
                        let latency = queueing + service;
                        lat_all.push(latency);
                        stall_all.push(out.stall_cycles);
                        lat_tenant[t].push(latency);
                        stall_tenant[t].push(out.stall_cycles);
                        // FNV-1a over the rendered return value: cheap,
                        // order-sensitive, stable across platforms.
                        let rendered = match &out.value {
                            Some(v) => format!("{v:?}"),
                            None => "()".to_string(),
                        };
                        digests[t].write(rendered.as_bytes());
                        if sink.enabled() {
                            sink.emit(CompileEvent::RequestRetired {
                                tenant: tenant.name.clone(),
                                request: r as u64,
                                latency,
                                stall: out.stall_cycles,
                            });
                        }
                    }
                    Err(_) => {
                        // Graceful degradation: the failure is charged to
                        // the tenant, the clock does not advance, and the
                        // next request proceeds on the same machine.
                        failed[t] += 1;
                    }
                }
                if spec.queue_sample_every > 0 && r % spec.queue_sample_every == 0 {
                    let depth = vm.pending_compiles() as u64;
                    queue_depth.push((r as u64, depth));
                    if sink.enabled() {
                        sink.emit(CompileEvent::QueueDepth {
                            request: r as u64,
                            depth,
                        });
                    }
                }
            }
            let tenants = tenants
                .iter()
                .enumerate()
                .map(|(i, t)| TenantReport {
                    name: t.name.clone(),
                    requests: totals[i],
                    failed: failed[i],
                    latency: LatencyStats::of(&lat_tenant[i]),
                    stall: LatencyStats::of(&stall_tenant[i]),
                    digest: digests[i].finish(),
                })
                .collect();
            Ok::<_, ServerError>(tenants)
        })?;

        let tenant_means: Vec<f64> = lat_tenant
            .iter()
            .map(|l| LatencyStats::of(l).mean)
            .collect();
        let report = vm.report();
        Ok(ServerReport {
            requests: arrivals.len() as u64,
            latency: LatencyStats::of(&lat_all),
            stall: LatencyStats::of(&stall_all),
            queue_depth,
            max_queue_depth: vm.queue_stats().max_depth,
            fairness: fairness_index(&tenant_means),
            tenants,
            compilations: report.compilations,
            installed_bytes: report.installed_bytes,
            cache: report.cache,
            bailouts: report.bailouts,
            total_cycles: clock,
            snapshot: report.snapshot,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::VmConfig;
    use incline_ir::builder::FunctionBuilder;
    use incline_ir::Type;

    fn config() -> VmConfig {
        VmConfig {
            hotness_threshold: 4,
            ..VmConfig::default()
        }
    }

    fn two_tenant_program() -> (Program, MethodId, MethodId) {
        let mut p = Program::new();
        let a = p.declare_function("tenant_a", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, a);
        let x = fb.param(0);
        let k = fb.const_int(3);
        let r = fb.imul(x, k);
        fb.ret(Some(r));
        p.define_method(a, fb.finish());
        let b = p.declare_function("tenant_b", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, b);
        let x = fb.param(0);
        let k = fb.const_int(7);
        let r = fb.iadd(x, k);
        fb.ret(Some(r));
        p.define_method(b, fb.finish());
        (p, a, b)
    }

    fn tenants(a: MethodId, b: MethodId) -> Vec<TenantSpec> {
        vec![
            TenantSpec {
                weight: 3,
                work: 5,
                pivot: 100,
                flip_after: 0.5,
                ..TenantSpec::new("alpha", a)
            },
            TenantSpec {
                weight: 1,
                ..TenantSpec::new("beta", b)
            },
        ]
    }

    #[test]
    fn schedule_is_seed_deterministic_and_bursty() {
        let (_p, a, b) = two_tenant_program();
        let ts = tenants(a, b);
        let spec = ServerSpec::default();
        let s1 = schedule(&ts, &spec).unwrap();
        let s2 = schedule(&ts, &spec).unwrap();
        assert_eq!(s1.len(), spec.requests);
        assert!(s1
            .iter()
            .zip(&s2)
            .all(|(x, y)| x.tenant == y.tenant && x.at == y.at));
        // Both short (burst) and long (calm) inter-arrival gaps occur.
        let gaps: Vec<u64> = s1.windows(2).map(|w| w[1].at - w[0].at).collect();
        assert!(gaps
            .iter()
            .any(|&g| g <= spec.burst_gap + spec.burst_gap / 4));
        assert!(gaps.iter().any(|&g| g >= spec.calm_gap / 2));
    }

    #[test]
    fn serve_produces_full_report() {
        let (p, a, b) = two_tenant_program();
        let spec = ServerSpec {
            requests: 60,
            ..ServerSpec::default()
        };
        let report = ServerSession::new(&p, tenants(a, b), spec)
            .config(config())
            .serve()
            .unwrap();
        assert_eq!(report.requests, 60);
        assert_eq!(report.tenants.len(), 2);
        assert_eq!(report.tenants.iter().map(|t| t.requests).sum::<u64>(), 60);
        assert!(report.latency.p50 <= report.latency.p99);
        assert!(report.latency.p99 <= report.latency.max);
        assert!(report.fairness > 0.0 && report.fairness <= 1.0);
        assert!(!report.queue_depth.is_empty());
        assert!(report.total_cycles > 0);
    }

    #[test]
    fn report_identical_across_worker_pools_in_barrier_mode() {
        let (p, a, b) = two_tenant_program();
        let run = |threads: usize| {
            ServerSession::new(
                &p,
                tenants(a, b),
                ServerSpec {
                    requests: 80,
                    ..ServerSpec::default()
                },
            )
            .config(VmConfig {
                compile_threads: threads,
                ..config()
            })
            .serve()
            .unwrap()
        };
        let base = run(0);
        assert_eq!(base, run(1));
        assert_eq!(base, run(4));
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        let (p, a, b) = two_tenant_program();
        let err = ServerSession::new(&p, vec![], ServerSpec::default())
            .serve()
            .unwrap_err();
        assert_eq!(err, ServerError::NoTenants);
        let err = ServerSession::new(
            &p,
            tenants(a, b),
            ServerSpec {
                requests: 0,
                ..ServerSpec::default()
            },
        )
        .serve()
        .unwrap_err();
        assert_eq!(err, ServerError::ZeroRequests);
        let mut zero = tenants(a, b);
        for t in &mut zero {
            t.weight = 0;
        }
        let err = ServerSession::new(&p, zero, ServerSpec::default())
            .serve()
            .unwrap_err();
        assert_eq!(err, ServerError::ZeroWeights);
    }

    /// A request count whose schedule cannot be allocated is an error that
    /// names the count; reserving it used to abort (`capacity overflow`).
    #[test]
    fn an_unschedulable_request_count_is_an_error() {
        let (p, a, b) = two_tenant_program();
        let spec = ServerSpec {
            requests: usize::MAX,
            ..ServerSpec::default()
        };
        let err = ServerSession::new(&p, tenants(a, b), spec)
            .serve()
            .unwrap_err();
        assert_eq!(err, ServerError::TooManyRequests(usize::MAX));
        assert!(err.to_string().contains(&usize::MAX.to_string()), "{err}");
    }

    #[test]
    fn one_servers_snapshot_warms_the_next() {
        let (p, a, b) = two_tenant_program();
        let spec = ServerSpec {
            requests: 80,
            ..ServerSpec::default()
        };
        let config = config();
        let store = Arc::new(crate::snapshot::MemoryStore::new());
        let cold = ServerSession::new(&p, tenants(a, b), spec.clone())
            .config(config)
            .snapshot_out(store.clone())
            .serve()
            .unwrap();
        assert_eq!(cold.snapshot.written, 1);
        let warm = ServerSession::new(&p, tenants(a, b), spec)
            .config(config)
            .snapshot_in(store)
            .serve()
            .unwrap();
        assert_eq!(warm.snapshot.loaded, 1);
        assert!(warm.snapshot.replayed_compiles > 0);
        // Same answers per tenant, faster wall clock: the warmed server
        // never pays mutator-visible warmup compiles.
        for (c, w) in cold.tenants.iter().zip(&warm.tenants) {
            assert_eq!(c.digest, w.digest, "tenant {} answers must match", c.name);
        }
        assert!(
            warm.total_cycles <= cold.total_cycles,
            "fleet warming must not slow the run: {} vs {}",
            warm.total_cycles,
            cold.total_cycles
        );
    }

    #[test]
    fn phase_flip_changes_inputs_mid_run() {
        // One tenant, flip at 50%: the digest must differ from a run that
        // never flips, because phase-B inputs differ.
        let (p, a, _b) = two_tenant_program();
        let spec = ServerSpec {
            requests: 40,
            ..ServerSpec::default()
        };
        let flipped = ServerSession::new(
            &p,
            vec![TenantSpec {
                work: 5,
                pivot: 100,
                flip_after: 0.5,
                ..TenantSpec::new("solo", a)
            }],
            spec.clone(),
        )
        .serve()
        .unwrap();
        let steady = ServerSession::new(
            &p,
            vec![TenantSpec {
                work: 5,
                pivot: 100,
                flip_after: 1.0,
                ..TenantSpec::new("solo", a)
            }],
            spec,
        )
        .serve()
        .unwrap();
        assert_ne!(flipped.tenants[0].digest, steady.tenants[0].digest);
    }
}
