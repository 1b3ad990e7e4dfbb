//! Memoization of deep-inlining-trial results across rounds and requests.
//!
//! The incremental inliner's expansion phase runs a *trial* per cutoff it
//! expands: clone the callee graph, specialize it against the callsite's
//! argument information, and run the scalar optimization pipeline to see
//! what the inlining would actually unlock (paper §IV). That bundle reads
//! no profile data — its output depends only on the callee's graph and the
//! argument-specialization vector (profiles enter solely through the
//! arguments, e.g. a speculated receiver class narrowing a parameter type).
//! The same (callee, arguments) trial therefore recurs across rounds,
//! across root methods sharing callees, and across compile requests, and
//! its result can be memoized without changing a single observable.
//!
//! [`TrialCache`] keys entries on
//! `(method, graph fingerprint, argument hash)`:
//!
//! * `method` + [`Graph::fingerprint`] pin the callee body (the program is
//!   immutable for a VM `Machine`'s lifetime, so per-method fingerprints
//!   are computed once and memoized),
//! * the argument hash folds each parameter's constant value and narrowed
//!   type — the complete profile-derived input of the trial.
//!
//! Entries store the specialized, trial-optimized graph, the `ns`/`no`
//! counts the policy metrics consume, and the trace events the trial
//! emitted, so a hit replays the *identical* event stream a miss would
//! have produced — byte-identical JSONL traces with the cache on or off
//! is the invariant `tests/differential.rs` enforces. Deterministic
//! invalidation is explicit and total: [`TrialCache::clear`] (nothing is
//! evicted by time or chance; capacity overflow drops entries FIFO, which
//! only ever costs a recompute, never changes a result).
//!
//! Compilations run one at a time on the mutator, so the hit/miss counters
//! are exact; they surface only in the VM's `CompilationReport`, never in
//! a `BenchResult`. The table is still `Sync` (a mutex and two atomics):
//! [`crate::CompileCx`] hands it out by shared reference.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use incline_ir::{Graph, MethodId};
use incline_trace::CompileEvent;

/// Key of one memoized deep-inlining trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TrialKey {
    /// The callee the trial expanded.
    pub method: MethodId,
    /// [`Graph::fingerprint`] of the callee's source graph.
    pub graph_fp: u64,
    /// Hash of the callsite's argument-specialization vector (constants
    /// and narrowed parameter types — the trial's only profile input).
    pub args_fp: u64,
}

/// The memoized outcome of one trial: the specialized and trial-optimized
/// callee graph plus the numbers and events the expansion consumes.
#[derive(Debug)]
pub struct TrialOutcome {
    /// Specialized callee graph after the trial optimization pipeline,
    /// shared with every call-tree node a hit attaches it to.
    pub graph: Arc<Graph>,
    /// Parameters specialized (the paper's `ns`).
    pub ns: u32,
    /// Simplifications the trial pipeline performed (the paper's `no`).
    pub no: u64,
    /// Trace events the trial emitted (empty when tracing was off).
    pub events: Vec<CompileEvent>,
}

#[derive(Default)]
struct TrialMap {
    entries: HashMap<TrialKey, Arc<TrialOutcome>>,
    /// Insertion order for FIFO capacity eviction.
    order: VecDeque<TrialKey>,
    /// Per-method source-graph fingerprints (immutable per machine).
    fingerprints: HashMap<MethodId, u64>,
}

/// A capacity-bounded, thread-shared memo table for deep-inlining trials.
pub struct TrialCache {
    map: Mutex<TrialMap>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for TrialCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrialCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl Default for TrialCache {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl TrialCache {
    /// Default entry bound — generous for the workloads in-tree while
    /// keeping the worst case (every trial distinct) bounded.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// An empty cache bounded to `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        TrialCache {
            map: Mutex::new(TrialMap::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The callee's source-graph fingerprint, computed once per method and
    /// memoized (the program backing a machine never changes).
    pub fn method_fingerprint(&self, method: MethodId, graph: &Graph) -> u64 {
        if let Some(&fp) = self
            .map
            .lock()
            .expect("trial cache")
            .fingerprints
            .get(&method)
        {
            return fp;
        }
        let fp = graph.fingerprint();
        self.map
            .lock()
            .expect("trial cache")
            .fingerprints
            .insert(method, fp);
        fp
    }

    /// Looks up a memoized trial, counting a hit or a miss.
    pub fn lookup(&self, key: TrialKey) -> Option<Arc<TrialOutcome>> {
        let found = self
            .map
            .lock()
            .expect("trial cache")
            .entries
            .get(&key)
            .cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Memoizes a trial outcome. At capacity the oldest insertion is
    /// dropped (FIFO); re-inserting an existing key keeps the newest value.
    pub fn insert(&self, key: TrialKey, outcome: Arc<TrialOutcome>) {
        let mut map = self.map.lock().expect("trial cache");
        if map.entries.insert(key, outcome).is_none() {
            map.order.push_back(key);
            while map.entries.len() > self.capacity {
                match map.order.pop_front() {
                    Some(old) => {
                        map.entries.remove(&old);
                    }
                    None => break,
                }
            }
        }
    }

    /// Deterministic total invalidation: drops every entry and memoized
    /// fingerprint. The documented invalidation point for callers whose
    /// program or profile-independence assumptions change.
    pub fn clear(&self) {
        let mut map = self.map.lock().expect("trial cache");
        map.entries.clear();
        map.order.clear();
        map.fingerprints.clear();
    }

    /// Number of memoized trials.
    pub fn len(&self) -> usize {
        self.map.lock().expect("trial cache").entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incline_ir::{FunctionBuilder, Program, Type};

    fn graph_for(k: i64) -> (Program, MethodId, Arc<Graph>) {
        let mut p = Program::new();
        let m = p.declare_function("f", vec![Type::Int], Type::Int);
        let mut fb = FunctionBuilder::new(&p, m);
        let x = fb.param(0);
        let c = fb.const_int(k);
        let r = fb.iadd(x, c);
        fb.ret(Some(r));
        let g = Arc::new(fb.finish());
        (p, m, g)
    }

    fn key(method: MethodId, graph: &Graph, args_fp: u64) -> TrialKey {
        TrialKey {
            method,
            graph_fp: graph.fingerprint(),
            args_fp,
        }
    }

    #[test]
    fn hit_returns_the_inserted_outcome() {
        let (_p, m, g) = graph_for(3);
        let cache = TrialCache::new(8);
        let k = key(m, &g, 7);
        assert!(cache.lookup(k).is_none());
        cache.insert(
            k,
            Arc::new(TrialOutcome {
                graph: g.clone(),
                ns: 1,
                no: 2,
                events: vec![],
            }),
        );
        let out = cache.lookup(k).expect("hit");
        assert_eq!(out.ns, 1);
        assert_eq!(out.no, 2);
        assert_eq!(out.graph.fingerprint(), g.fingerprint());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn distinct_args_are_distinct_entries() {
        let (_p, m, g) = graph_for(3);
        let cache = TrialCache::new(8);
        let a = key(m, &g, 1);
        let b = key(m, &g, 2);
        cache.insert(
            a,
            Arc::new(TrialOutcome {
                graph: g.clone(),
                ns: 1,
                no: 0,
                events: vec![],
            }),
        );
        assert!(cache.lookup(b).is_none());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_evicts_fifo() {
        let (_p, m, g) = graph_for(3);
        let cache = TrialCache::new(2);
        for i in 0..3u64 {
            cache.insert(
                key(m, &g, i),
                Arc::new(TrialOutcome {
                    graph: g.clone(),
                    ns: 0,
                    no: 0,
                    events: vec![],
                }),
            );
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(key(m, &g, 0)).is_none(), "oldest dropped");
        assert!(cache.lookup(key(m, &g, 2)).is_some());
    }

    #[test]
    fn fingerprint_memo_is_stable_and_clear_resets() {
        let (_p, m, g) = graph_for(3);
        let cache = TrialCache::new(8);
        let fp = cache.method_fingerprint(m, &g);
        assert_eq!(cache.method_fingerprint(m, &g), fp);
        cache.insert(
            key(m, &g, 0),
            Arc::new(TrialOutcome {
                graph: g.clone(),
                ns: 0,
                no: 0,
                events: vec![],
            }),
        );
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.lookup(key(m, &g, 0)).is_none());
    }

    #[test]
    fn shared_across_threads() {
        let (_p, m, g) = graph_for(5);
        let cache = Arc::new(TrialCache::new(64));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                let g = &g;
                s.spawn(move || {
                    cache.insert(
                        key(m, g, t),
                        Arc::new(TrialOutcome {
                            graph: g.clone(),
                            ns: 0,
                            no: 0,
                            events: vec![],
                        }),
                    );
                    assert!(cache.lookup(key(m, g, t)).is_some());
                });
            }
        });
        assert_eq!(cache.len(), 4);
    }
}
