//! Persistent profile/compile snapshots with deterministic replay.
//!
//! A [`Snapshot`] serializes everything the VM learned during a run that is
//! worth carrying into the *next* run: the full [`incline_profile`] state
//! (hotness counters, block counts, callsite counts, receiver histograms —
//! including profiles merged back after deoptimizations) plus the
//! **decision log**: the methods the run compiled, in first-install order,
//! each once. Nothing else about a compile is stored, because the inliner
//! derives every decision again from the profile. On the next run the
//! snapshot is applied eagerly: its profiles are merged into the live table
//! and its methods are compiled up front **through the normal
//! broker/ladder/cache-admission path**, so compile budgets, verification,
//! admission control and fault injection all still apply. Warmup moves out
//! of the measured iterations.
//!
//! # Format
//!
//! Snapshots are versioned, dependency-free JSONL, written and read through
//! [`incline_trace::json`] like the trace sinks' lines. One header line, one
//! line per profiled method, one line per decided method, and a trailing
//! checksum line (FNV-1a 64 over every preceding byte):
//!
//! ```text
//! {"snapshot":"incline","v":2,"fingerprint":"4af37...","methods":2,"decisions":1}
//! {"rec":"profile","method":3,"inv":120,"back":960,"blocks":[[0,120],[1,960]],"sites":[[0,960]],"recv":[[0,[[2,900],[5,60]]]]}
//! {"rec":"decision","method":3}
//! {"rec":"end","crc":"77f0a..."}
//! ```
//!
//! Every map is sorted before serialization, so two machines that saw the
//! same run write **byte-identical** snapshots — the round-trip tests
//! assert it. The header's `fingerprint` hashes the
//! printed program text; loading a snapshot against a different program
//! fails with [`SnapshotError::StaleProgram`]. Truncated, bit-flipped,
//! version-bumped or forged snapshots fail parsing or the checksum —
//! **never a panic** — and the machine falls back to a cold start, counting
//! the event in [`SnapshotStats::fallbacks`]. FNV-1a is no secret, so the
//! checksum guards against accidents only: the reader itself is bounded
//! (arrays nest at most [`json::MAX_DEPTH`] deep, no recursion on input),
//! nothing is allocated from a count the header claims, and an id that
//! does not fit 32 bits is corrupt.
//!
//! # I/O
//!
//! Snapshot bytes move through the [`SnapshotStore`] trait so the library
//! stays testable without touching disk: [`MemoryStore`] keeps bytes in a
//! mutex-guarded cell (share it via `Arc` between a writing and a reading
//! session), [`FileStore`] reads/writes one file. [`SnapshotIo`] is the
//! `Into`-friendly handle the session builder accepts, with conversions from
//! paths, raw bytes and `Arc`ed stores.

use std::collections::BTreeSet;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use incline_ir::{BlockId, ClassId, MethodId, Program, StructuralHasher};
use incline_profile::{MethodProfile, ProfileTable};
use incline_trace::json::{self, JsonArray, JsonField, JsonObj};

/// Current snapshot format version. Readers reject any other value.
pub const SNAPSHOT_VERSION: u64 = 2;

/// Lifetime snapshot counters, reported via
/// [`CompilationReport`](crate::CompilationReport). Deterministic for a
/// given run setup, like the bailout and cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Snapshots successfully parsed, fingerprint-checked and applied.
    pub loaded: u64,
    /// Stale/corrupt/version-mismatched (or unreadable) snapshots that
    /// degraded gracefully to a cold start.
    pub fallbacks: u64,
    /// Methods compiled up front by eager replay (through the normal
    /// broker path; admission-deferred or blacklisted methods don't count).
    pub replayed_compiles: u64,
    /// Methods whose profile counters were pre-warmed by a loaded snapshot.
    pub seeded_methods: u64,
    /// Snapshots serialized and handed to a store.
    pub written: u64,
    /// Snapshot writes the store rejected (I/O errors degrade gracefully).
    pub write_failures: u64,
    /// Distinct replica snapshots folded into an applied N-way merge.
    pub merged: u64,
    /// Decisions the merge's support check dropped because the merged
    /// profile no longer justified them.
    pub aged_out: u64,
    /// Replayed decisions quarantined after deoptimizing within their
    /// first [`POISON_WINDOW`](crate::machine::POISON_WINDOW) compiled
    /// activations (excluded from the next `snapshot_out`).
    pub poisoned: u64,
}

/// The serialized profile of one method, maps sorted for determinism.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MethodRecord {
    /// The profiled method.
    pub method: MethodId,
    /// Interpreted activations.
    pub invocations: u64,
    /// Taken loop back edges.
    pub backedges: u64,
    /// Per-block execution counts, sorted by block id.
    pub blocks: Vec<(BlockId, u64)>,
    /// Per-callsite execution counts, sorted by site index.
    pub callsites: Vec<(u32, u64)>,
    /// Receiver histograms per callsite, sorted by site index then class.
    pub receivers: Vec<(u32, Vec<(ClassId, u64)>)>,
}

/// A versioned, self-checksummed capture of profile state plus the compile
/// decision log. See the [module docs](self) for the format.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// FNV-1a 64 hash of the printed program this snapshot was taken from.
    pub fingerprint: u64,
    /// Per-method profiles, sorted by method id.
    pub methods: Vec<MethodRecord>,
    /// The methods eager replay compiles, in first-install order, each
    /// once.
    pub decisions: Vec<MethodId>,
}

/// Why a snapshot could not be loaded (or a store could not move bytes).
/// Every variant degrades to a cold start when hit through the graceful
/// paths — none of them ever panics the VM.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The header's `v` field is not [`SNAPSHOT_VERSION`].
    VersionMismatch {
        /// The version the snapshot claims.
        found: u64,
    },
    /// The bytes do not parse as a well-formed snapshot (truncation,
    /// bit flips, wrong file).
    Corrupt(String),
    /// The trailing FNV-1a checksum does not match the preceding bytes.
    ChecksumMismatch,
    /// The snapshot was taken from a different program.
    StaleProgram {
        /// Fingerprint of the program being run.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// The [`SnapshotStore`] could not read or write.
    Io(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::VersionMismatch { found } => {
                write!(
                    f,
                    "snapshot version {found} != supported {SNAPSHOT_VERSION}"
                )
            }
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::StaleProgram { expected, found } => write!(
                f,
                "stale snapshot: program fingerprint {found:016x} != {expected:016x}"
            ),
            SnapshotError::Io(why) => write!(f, "snapshot i/o: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---- fingerprint & hashing -------------------------------------------------

/// FNV-1a 64 over a byte slice ([`StructuralHasher`]'s [`Hasher::write`]).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = StructuralHasher::new();
    h.write(bytes);
    h.finish()
}

/// Fingerprints a program by hashing its printed text: any change to a
/// method body, signature or class layout changes the fingerprint, so a
/// snapshot can never seed profiles into the wrong program.
pub fn fingerprint(program: &Program) -> u64 {
    fnv1a(incline_ir::print::program_str(program).as_bytes())
}

// ---- the record writer -------------------------------------------------------

/// A `u64` written as the 16 lowercase hex digits the format uses for
/// hashes (fingerprint, crc).
struct Hex(u64);

impl JsonField for Hex {
    fn write_json(&self, buf: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(buf, "\"{:016x}\"", self.0);
    }
}

/// Appends one record — the object `fill` writes, and a newline.
fn record(out: &mut String, fill: impl FnOnce(&mut JsonObj)) {
    let mut obj = JsonObj::begin(out);
    fill(&mut obj);
    obj.end();
    out.push('\n');
}

// ---- capture ---------------------------------------------------------------

impl MethodRecord {
    fn capture(method: MethodId, p: &MethodProfile) -> Self {
        MethodRecord {
            method,
            invocations: p.invocations,
            backedges: p.backedges,
            blocks: p.blocks().collect(),
            callsites: p.callsites().collect(),
            receivers: p.receivers().map(|(site, h)| (site, h.to_vec())).collect(),
        }
    }

    fn to_profile(&self) -> MethodProfile {
        let mut p = MethodProfile::new(self.invocations, self.backedges);
        for &(b, c) in &self.blocks {
            p.set_block_count(b, c);
        }
        for &(s, c) in &self.callsites {
            p.set_callsite_count(s, c);
        }
        for (site, hist) in &self.receivers {
            for &(cl, c) in hist {
                p.set_receiver_count(*site, cl, c);
            }
        }
        p
    }
}

impl Snapshot {
    /// Captures profiles and the decision log under `fingerprint`; the
    /// profile table iterates in id order, so the result is deterministic.
    pub fn capture(fingerprint: u64, profiles: &ProfileTable, decisions: &[MethodId]) -> Snapshot {
        let methods: Vec<MethodRecord> = profiles
            .iter()
            .map(|(m, p)| MethodRecord::capture(m, p))
            .collect();
        Snapshot {
            fingerprint,
            methods,
            decisions: decisions.to_vec(),
        }
    }

    /// Checks every index of the profile records, and the method of every
    /// decision, against `program`: method, block, callsite and class ids
    /// must exist there. Profile tables and the machine's method table
    /// are dense vectors indexed by these ids, so a snapshot read
    /// from outside must pass this before [`Snapshot::profile_table`] or
    /// [`Snapshot::merge`] sizes a table after it; the machine's load
    /// paths do that.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] naming the first id out of range.
    pub fn check_indices(&self, program: &Program) -> Result<(), SnapshotError> {
        let classes = program.class_count();
        for r in &self.methods {
            let bad = |what: &str, index: usize| {
                Err(SnapshotError::Corrupt(format!(
                    "profile of method {}: {what} {index} out of range",
                    r.method.index()
                )))
            };
            if r.method.index() >= program.method_count() {
                return bad("method", r.method.index());
            }
            let graph = &program.method(r.method).graph;
            if let Some(&(b, _)) = r
                .blocks
                .iter()
                .find(|(b, _)| b.index() >= graph.block_count())
            {
                return bad("block", b.index());
            }
            // Every callsite of a source graph is one of its instructions.
            let sites = graph.inst_count();
            let recv_sites = r.receivers.iter().map(|&(s, _)| s);
            let mut site_ids = r.callsites.iter().map(|&(s, _)| s).chain(recv_sites);
            if let Some(s) = site_ids.find(|&s| s as usize >= sites) {
                return bad("callsite", s as usize);
            }
            let mut class_ids = r
                .receivers
                .iter()
                .flat_map(|(_, h)| h.iter().map(|&(c, _)| c));
            if let Some(c) = class_ids.find(|c| c.index() >= classes) {
                return bad("class", c.index());
            }
        }
        // The machine's method table is indexed by what replay compiles.
        match (self.decisions.iter()).find(|m| m.index() >= program.method_count()) {
            Some(m) => Err(SnapshotError::Corrupt(format!(
                "decision for method {}: out of range",
                m.index()
            ))),
            None => Ok(()),
        }
    }

    /// Rebuilds a [`ProfileTable`] from the serialized per-method records.
    pub fn profile_table(&self) -> ProfileTable {
        let mut t = ProfileTable::new();
        for r in &self.methods {
            t.insert(r.method, r.to_profile());
        }
        t
    }

    // ---- serialization -----------------------------------------------------

    /// Serializes to the versioned JSONL format, byte-deterministic for a
    /// given snapshot value.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::with_capacity(256 + self.methods.len() * 128);
        record(&mut out, |o| {
            o.field("snapshot", "incline")
                .field("v", &SNAPSHOT_VERSION)
                .field("fingerprint", &Hex(self.fingerprint))
                .field("methods", &self.methods.len())
                .field("decisions", &self.decisions.len());
        });
        for r in &self.methods {
            let blocks = r.blocks.iter().map(|&(b, c)| (b.index(), c));
            let receivers = r.receivers.iter().map(|(site, hist)| {
                let hist = hist.iter().map(|&(cl, c)| (cl.index(), c));
                (*site, JsonArray(hist))
            });
            record(&mut out, |o| {
                o.field("rec", "profile")
                    .field("method", &r.method.index())
                    .field("inv", &r.invocations)
                    .field("back", &r.backedges)
                    .field("blocks", &JsonArray(blocks))
                    .field("sites", &JsonArray(r.callsites.iter()))
                    .field("recv", &JsonArray(receivers));
            });
        }
        for m in &self.decisions {
            record(&mut out, |o| {
                o.field("rec", "decision").field("method", &m.index());
            });
        }
        let crc = fnv1a(out.as_bytes());
        record(&mut out, |o| {
            o.field("rec", "end").field("crc", &Hex(crc));
        });
        out.into_bytes()
    }

    /// Parses and checksums snapshot bytes.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on any malformed byte,
    /// [`SnapshotError::VersionMismatch`] on an unsupported header version,
    /// [`SnapshotError::ChecksumMismatch`] when the trailing CRC does not
    /// cover the preceding bytes (truncation, bit flips).
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| SnapshotError::Corrupt("not utf-8".to_string()))?;
        // Locate the checksum line and verify it covers everything before it.
        let body_end = text
            .rfind("{\"rec\":\"end\"")
            .ok_or_else(|| SnapshotError::Corrupt("missing end record".to_string()))?;
        let (body, end_line) = text.split_at(body_end);
        let end = json::parse_object(end_line.trim_end())
            .map_err(|e| SnapshotError::Corrupt(format!("end record: {e}")))?;
        let crc = end
            .hex("crc")
            .ok_or_else(|| SnapshotError::Corrupt("end record lacks crc".to_string()))?;
        if crc != fnv1a(body.as_bytes()) {
            return Err(SnapshotError::ChecksumMismatch);
        }

        let mut lines = body.lines();
        let header_line = lines
            .next()
            .ok_or_else(|| SnapshotError::Corrupt("empty snapshot".to_string()))?;
        let header = json::parse_object(header_line)
            .map_err(|e| SnapshotError::Corrupt(format!("header: {e}")))?;
        if header.str("snapshot") != Some("incline") {
            return Err(SnapshotError::Corrupt(
                "not an incline snapshot".to_string(),
            ));
        }
        let version = header
            .num("v")
            .ok_or_else(|| SnapshotError::Corrupt("header lacks version".to_string()))?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch { found: version });
        }
        let fingerprint = header
            .hex("fingerprint")
            .ok_or_else(|| SnapshotError::Corrupt("header lacks fingerprint".to_string()))?;
        // The header's counts are checked against what was read, below;
        // nothing is sized from them.
        let want_methods = header.num("methods").unwrap_or(0);
        let want_decisions = header.num("decisions").unwrap_or(0);

        let mut methods = Vec::new();
        let mut decisions = Vec::new();
        for (i, line) in lines.enumerate() {
            let obj = json::parse_object(line)
                .map_err(|e| SnapshotError::Corrupt(format!("record {i}: {e}")))?;
            match obj.str("rec") {
                Some("profile") => methods.push(parse_method(&obj, i)?),
                Some("decision") => {
                    let method = obj.num("method").and_then(|n| u32::try_from(n).ok());
                    let method = method.ok_or_else(|| corrupt(i, "method"))?;
                    decisions.push(MethodId::new(method as usize));
                }
                other => {
                    return Err(SnapshotError::Corrupt(format!(
                        "record {i}: unknown kind {other:?}"
                    )))
                }
            }
        }
        if methods.len() as u64 != want_methods || decisions.len() as u64 != want_decisions {
            return Err(SnapshotError::Corrupt(format!(
                "header promised {want_methods} profiles + {want_decisions} decisions, \
                 found {} + {}",
                methods.len(),
                decisions.len()
            )));
        }
        Ok(Snapshot {
            fingerprint,
            methods,
            decisions,
        })
    }
}

// ---- N-way replica merge ---------------------------------------------------

/// Tuning knobs of [`Snapshot::merge`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergePolicy {
    /// The support bar of the `DecisionAge` check: a decided method
    /// survives only while its hotness (invocations + back edges)
    /// in the *merged* profile is at least this. The machine's merge path
    /// uses its own `hotness_threshold` here, so a decision is kept exactly
    /// as long as the merged evidence would still tier the method up.
    pub min_support: u64,
}

impl Default for MergePolicy {
    fn default() -> Self {
        MergePolicy { min_support: 1 }
    }
}

impl MergePolicy {
    /// A policy with an explicit support bar.
    pub fn with_support(min_support: u64) -> Self {
        MergePolicy { min_support }
    }
}

/// Counters describing one N-way merge, carried in [`Merged`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Distinct replicas that contributed (after deduplication).
    pub replicas: u64,
    /// Byte-identical replica inputs dropped by deduplication.
    pub duplicates: u64,
    /// Method profiles in the merged snapshot.
    pub methods: u64,
    /// Decisions that survived the support check.
    pub decisions: u64,
    /// Decisions dropped by the support check.
    pub aged_out: u64,
}

/// The result of [`Snapshot::merge`]: the merged snapshot plus everything
/// an observer needs (counters and the aged-out decision list).
#[derive(Clone, Debug, PartialEq)]
pub struct Merged {
    /// The merged, deterministic snapshot (decisions sorted by method).
    pub snapshot: Snapshot,
    /// Merge counters.
    pub stats: MergeStats,
    /// Methods whose decision the support check dropped, with the merged
    /// hotness that failed the bar — in method order.
    pub aged_out: Vec<(MethodId, u64)>,
    /// The support bar the aged-out decisions failed to meet.
    pub min_support: u64,
}

impl Snapshot {
    /// Merges N replica snapshots of the *same program* into one:
    ///
    /// * **profiles** — the union of every replica's histograms with
    ///   weighted (summed) counts, via [`ProfileTable::merge`];
    /// * **decisions** — the union of every replica's decided methods;
    /// * **support check** — a decided method is dropped (aged out) when
    ///   the merged profile's hotness for it falls below
    ///   [`MergePolicy::min_support`].
    ///
    /// Byte-identical replica inputs are deduplicated first, so at-least-
    /// once snapshot delivery cannot double-weigh a replica's traffic —
    /// this is what makes the merge idempotent. The output's methods and
    /// decisions are sorted by method id, so the result is a pure function
    /// of the input *set*: any permutation of the same replicas serializes
    /// to byte-identical output.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on an empty replica list and
    /// [`SnapshotError::StaleProgram`] when the replicas disagree on the
    /// program fingerprint — callers that merge best-effort should filter
    /// foreign replicas out first (the machine's merge path does).
    pub fn merge(replicas: &[Snapshot], policy: &MergePolicy) -> Result<Merged, SnapshotError> {
        let first = replicas
            .first()
            .ok_or_else(|| SnapshotError::Corrupt("merge of zero replicas".to_string()))?;
        let fingerprint = first.fingerprint;
        for r in replicas {
            if r.fingerprint != fingerprint {
                return Err(SnapshotError::StaleProgram {
                    expected: fingerprint,
                    found: r.fingerprint,
                });
            }
        }
        // Deduplicate byte-identical replicas: redelivered snapshots must
        // not double-count their observations.
        let mut seen = BTreeSet::new();
        let mut uniq: Vec<&Snapshot> = Vec::with_capacity(replicas.len());
        for r in replicas {
            if seen.insert(fnv1a(&r.to_bytes())) {
                uniq.push(r);
            }
        }
        let duplicates = (replicas.len() - uniq.len()) as u64;

        // Union of the profile histograms, weighted by raw counts.
        let mut table = ProfileTable::new();
        for r in &uniq {
            table.merge(&r.profile_table());
        }

        // Union of the decided methods, in method order, each kept while
        // the merged profile supports it.
        let decided: BTreeSet<MethodId> = (uniq.iter())
            .flat_map(|r| r.decisions.iter().copied())
            .collect();
        let (mut decisions, mut aged_out) = (Vec::new(), Vec::new());
        for m in decided {
            let hotness = table.hotness(m);
            if hotness < policy.min_support {
                aged_out.push((m, hotness));
            } else {
                decisions.push(m);
            }
        }

        let snapshot = Snapshot::capture(fingerprint, &table, &decisions);
        let stats = MergeStats {
            replicas: uniq.len() as u64,
            duplicates,
            methods: snapshot.methods.len() as u64,
            decisions: snapshot.decisions.len() as u64,
            aged_out: aged_out.len() as u64,
        };
        Ok(Merged {
            snapshot,
            stats,
            aged_out,
            min_support: policy.min_support,
        })
    }
}

fn corrupt(i: usize, why: &str) -> SnapshotError {
    SnapshotError::Corrupt(format!("record {i}: {why}"))
}

fn parse_method(obj: &json::Obj, i: usize) -> Result<MethodRecord, SnapshotError> {
    let num = |key| obj.num(key).ok_or_else(|| corrupt(i, key));
    let pairs = |key| obj.pairs(key).ok_or_else(|| corrupt(i, key));
    // Every id of the format is a 32-bit index (the id constructors
    // assert it); one that does not fit makes the record corrupt.
    let wide = std::cell::Cell::new(false);
    let id = |n: u64| {
        u32::try_from(n).unwrap_or_else(|_| {
            wide.set(true);
            0
        })
    };
    let record = MethodRecord {
        method: MethodId::new(id(num("method")?) as usize),
        invocations: num("inv")?,
        backedges: num("back")?,
        blocks: (pairs("blocks")?.into_iter())
            .map(|(b, c)| (BlockId::new(id(b) as usize), c))
            .collect(),
        callsites: (pairs("sites")?.into_iter())
            .map(|(s, c)| (id(s), c))
            .collect(),
        receivers: (obj.nested_pairs("recv").ok_or_else(|| corrupt(i, "recv"))?)
            .into_iter()
            .map(|(site, hist)| {
                let classes = hist.into_iter();
                let hist = classes.map(|(cl, c)| (ClassId::new(id(cl) as usize), c));
                (id(site), hist.collect())
            })
            .collect(),
    };
    match wide.get() {
        true => Err(corrupt(i, "an id past 32 bits")),
        false => Ok(record),
    }
}

// ---- stores ----------------------------------------------------------------

/// Moves snapshot bytes in and out of some backing medium. The trait is
/// deliberately byte-oriented: parsing, versioning and checksum policy stay
/// in [`Snapshot`], so every store is trivially correct.
pub trait SnapshotStore: Send + Sync {
    /// Reads the stored snapshot bytes.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when nothing is stored or the read fails.
    fn read(&self) -> Result<Vec<u8>, SnapshotError>;

    /// Stores snapshot bytes, replacing any previous content.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the write fails.
    fn write(&self, bytes: &[u8]) -> Result<(), SnapshotError>;
}

/// In-memory [`SnapshotStore`]: a mutex-guarded cell, shared via `Arc`
/// between the session that writes and the session that replays — the
/// no-disk path the library tests use.
#[derive(Debug, Default)]
pub struct MemoryStore {
    cell: Mutex<Option<Vec<u8>>>,
}

impl MemoryStore {
    /// An empty store.
    pub fn new() -> Self {
        MemoryStore::default()
    }

    /// A store pre-loaded with `bytes` (the `snapshot_in(bytes)` path).
    pub fn with_bytes(bytes: Vec<u8>) -> Self {
        MemoryStore {
            cell: Mutex::new(Some(bytes)),
        }
    }

    /// The currently stored bytes, if any.
    pub fn bytes(&self) -> Option<Vec<u8>> {
        self.cell.lock().expect("snapshot store poisoned").clone()
    }
}

impl SnapshotStore for MemoryStore {
    fn read(&self) -> Result<Vec<u8>, SnapshotError> {
        self.bytes()
            .ok_or_else(|| SnapshotError::Io("memory store is empty".to_string()))
    }

    fn write(&self, bytes: &[u8]) -> Result<(), SnapshotError> {
        *self.cell.lock().expect("snapshot store poisoned") = Some(bytes.to_vec());
        Ok(())
    }
}

/// File-backed [`SnapshotStore`]: one snapshot per path.
#[derive(Clone, Debug)]
pub struct FileStore {
    path: PathBuf,
}

impl FileStore {
    /// A store reading/writing `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FileStore { path: path.into() }
    }

    /// The backing path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl FileStore {
    /// The sibling temp path writes land on before the atomic rename.
    fn tmp_path(&self) -> PathBuf {
        let mut os = self.path.as_os_str().to_os_string();
        os.push(".tmp");
        PathBuf::from(os)
    }

    fn io_err(&self, e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(format!("{}: {e}", self.path.display()))
    }
}

impl SnapshotStore for FileStore {
    fn read(&self) -> Result<Vec<u8>, SnapshotError> {
        std::fs::read(&self.path).map_err(|e| self.io_err(e))
    }

    /// Atomic write: the bytes land on `<path>.tmp`, are fsynced, and only
    /// then renamed over `path` — a crash mid-write leaves the previous
    /// snapshot intact instead of a torn tail that would fail its checksum.
    fn write(&self, bytes: &[u8]) -> Result<(), SnapshotError> {
        use std::io::Write as _;
        let tmp = self.tmp_path();
        let result = (|| {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
            drop(f);
            std::fs::rename(&tmp, &self.path)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result.map_err(|e| self.io_err(e))
    }
}

/// The `Into`-friendly store handle the session builder accepts:
/// `session.snapshot_in("warm.snap")`, `.snapshot_in(bytes)`, or
/// `.snapshot_out(Arc::new(MemoryStore::new()))` all convert here.
#[derive(Clone)]
pub struct SnapshotIo {
    store: Arc<dyn SnapshotStore>,
}

impl SnapshotIo {
    /// The wrapped store.
    pub fn store(&self) -> &dyn SnapshotStore {
        &*self.store
    }
}

impl std::fmt::Debug for SnapshotIo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SnapshotIo(..)")
    }
}

impl From<Arc<dyn SnapshotStore>> for SnapshotIo {
    fn from(store: Arc<dyn SnapshotStore>) -> Self {
        SnapshotIo { store }
    }
}

impl From<Arc<MemoryStore>> for SnapshotIo {
    fn from(store: Arc<MemoryStore>) -> Self {
        SnapshotIo { store }
    }
}

impl From<Arc<FileStore>> for SnapshotIo {
    fn from(store: Arc<FileStore>) -> Self {
        SnapshotIo { store }
    }
}

impl From<&str> for SnapshotIo {
    fn from(path: &str) -> Self {
        SnapshotIo {
            store: Arc::new(FileStore::new(path)),
        }
    }
}

impl From<String> for SnapshotIo {
    fn from(path: String) -> Self {
        SnapshotIo {
            store: Arc::new(FileStore::new(path)),
        }
    }
}

impl From<&Path> for SnapshotIo {
    fn from(path: &Path) -> Self {
        SnapshotIo {
            store: Arc::new(FileStore::new(path)),
        }
    }
}

impl From<PathBuf> for SnapshotIo {
    fn from(path: PathBuf) -> Self {
        SnapshotIo {
            store: Arc::new(FileStore::new(path)),
        }
    }
}

impl From<Vec<u8>> for SnapshotIo {
    fn from(bytes: Vec<u8>) -> Self {
        SnapshotIo {
            store: Arc::new(MemoryStore::with_bytes(bytes)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incline_ir::Rng64;

    fn sample() -> Snapshot {
        let mut profiles = ProfileTable::new();
        let m = MethodId::new(3);
        for _ in 0..7 {
            profiles.record_invocation(m);
        }
        profiles.record_backedge(m);
        profiles.record_block(m, BlockId::new(0));
        profiles.record_block(m, BlockId::new(2));
        let site = incline_ir::CallSiteId {
            method: m,
            index: 1,
        };
        profiles.record_callsite(site);
        profiles.record_receiver(site, ClassId::new(4));
        profiles.record_receiver(site, ClassId::new(2));
        Snapshot::capture(0x1234_5678_9abc_def0, &profiles, &[m])
    }

    #[test]
    fn round_trips_byte_identically() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_bytes(), bytes, "serialize∘parse must be identity");
    }

    #[test]
    fn profile_table_round_trips() {
        let snap = sample();
        let table = snap.profile_table();
        let m = MethodId::new(3);
        assert_eq!(table.invocations(m), 7);
        assert_eq!(table.backedges(m), 1);
        let again = Snapshot::capture(snap.fingerprint, &table, &snap.decisions);
        assert_eq!(again, snap);
    }

    #[test]
    fn truncation_and_bitflips_are_corrupt_not_panics() {
        let bytes = sample().to_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 2] {
            assert!(
                Snapshot::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        for flip in [8, bytes.len() / 3, bytes.len() / 2] {
            let mut bad = bytes.clone();
            bad[flip] ^= 0x20;
            assert!(
                Snapshot::from_bytes(&bad).is_err(),
                "bit flip at {flip} must fail"
            );
        }
    }

    /// A snapshot of random records: lists from empty up, 0–40 receivers a
    /// site, counts that are zero, `u64::MAX` or of any magnitude between.
    fn random_snapshot(rng: &mut Rng64, methods: usize) -> Snapshot {
        fn count(rng: &mut Rng64) -> u64 {
            match rng.gen_index(4) {
                0 => 0,
                1 => u64::MAX,
                _ => rng.next_u64() >> rng.gen_index(64),
            }
        }
        let hist = |rng: &mut Rng64| -> Vec<(ClassId, u64)> {
            (0..rng.gen_index(41))
                .map(|c| (ClassId::new(c), count(rng)))
                .collect()
        };
        let methods = (0..methods)
            .map(|m| MethodRecord {
                method: MethodId::new(m),
                invocations: count(rng),
                backedges: count(rng),
                blocks: (0..rng.gen_index(5))
                    .map(|b| (BlockId::new(b), count(rng)))
                    .collect(),
                callsites: (0..rng.gen_index(5) as u32)
                    .map(|s| (s, count(rng)))
                    .collect(),
                receivers: (0..rng.gen_index(4) as u32)
                    .map(|s| (s, hist(rng)))
                    .collect(),
            })
            .collect();
        let decisions = (0..rng.gen_index(4))
            .map(|_| MethodId::new(rng.gen_index(1 << 20)))
            .collect();
        Snapshot {
            fingerprint: rng.next_u64(),
            methods,
            decisions,
        }
    }

    /// `body` under a valid trailer, so the checksum cannot be what
    /// rejects it and the reader sees every byte.
    fn sealed(body: &[u8]) -> Vec<u8> {
        let trailer = format!("{{\"rec\":\"end\",\"crc\":\"{:016x}\"}}\n", fnv1a(body));
        [body, trailer.as_bytes()].concat()
    }

    #[test]
    fn random_snapshots_round_trip() {
        let mut rng = Rng64::new(0x5eed);
        for methods in (0..60).map(|i| i % 7) {
            let snap = random_snapshot(&mut rng, methods);
            let bytes = snap.to_bytes();
            assert_eq!(Snapshot::from_bytes(&bytes).as_ref(), Ok(&snap));
        }
    }

    #[test]
    fn resealed_truncations_and_bitflips_never_panic() {
        // The first small one that has every kind of record and list.
        let snap = (0..)
            .map(|seed| random_snapshot(&mut Rng64::new(seed), 2))
            .find(|s| {
                let nested = s
                    .methods
                    .iter()
                    .any(|m| m.receivers.iter().any(|r| !r.1.is_empty()));
                nested && !s.decisions.is_empty() && s.to_bytes().len() < 1200
            })
            .expect("some seed does");
        let bytes = snap.to_bytes();
        let body = &bytes[..bytes.len() - sealed(b"").len()];
        assert_eq!(sealed(body), bytes);
        // Cut anywhere, with and without a trailer that vouches for the
        // cut: an error, except where nothing but a last newline is lost.
        for cut in 0..bytes.len() {
            let whole =
                |r: Result<Snapshot, _>, len: usize| r == Ok(snap.clone()) && cut + 1 == len;
            let raw = Snapshot::from_bytes(&bytes[..cut]);
            assert!(raw.is_err() || whole(raw, bytes.len()), "cut at {cut}");
            if cut < body.len() {
                let resealed = Snapshot::from_bytes(&sealed(&body[..cut]));
                assert!(
                    resealed.is_err() || whole(resealed, body.len()),
                    "sealed cut at {cut}"
                );
            }
        }
        // Flip any bit under a recomputed trailer: an error, or — a digit
        // became another digit — a snapshot that reads back as itself.
        for bit in 0..body.len() * 8 {
            let mut flipped = body.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(read) = Snapshot::from_bytes(&sealed(&flipped)) {
                assert_eq!(
                    Snapshot::from_bytes(&read.to_bytes()),
                    Ok(read),
                    "bit {bit}"
                );
            }
        }
    }

    #[test]
    fn version_bump_is_rejected_as_version_mismatch() {
        let text = String::from_utf8(sample().to_bytes()).unwrap();
        let (from, to) = (SNAPSHOT_VERSION, SNAPSHOT_VERSION + 1);
        let bumped = text.replacen(&format!("\"v\":{from},"), &format!("\"v\":{to},"), 1);
        // Re-checksum so only the version differs.
        let body_end = bumped.rfind("{\"rec\":\"end\"").unwrap();
        let body = &bumped[..body_end];
        let fixed = format!(
            "{body}{{\"rec\":\"end\",\"crc\":\"{:016x}\"}}\n",
            fnv1a(body.as_bytes())
        );
        assert_eq!(
            Snapshot::from_bytes(fixed.as_bytes()),
            Err(SnapshotError::VersionMismatch { found: to })
        );
    }

    #[test]
    fn memory_store_round_trips_and_reports_empty() {
        let store = MemoryStore::new();
        assert!(matches!(store.read(), Err(SnapshotError::Io(_))));
        store.write(b"abc").unwrap();
        assert_eq!(store.read().unwrap(), b"abc");
    }

    #[test]
    fn file_store_round_trips() {
        let path = std::env::temp_dir().join("incline-snapshot-store-test.snap");
        let store = FileStore::new(&path);
        store.write(b"xyz").unwrap();
        assert_eq!(store.read().unwrap(), b"xyz");
        let _ = std::fs::remove_file(&path);
    }

    /// A replica with one method profile (`inv` invocations) that decided
    /// that method.
    fn replica(m: usize, inv: u64) -> Snapshot {
        let mut profiles = ProfileTable::new();
        let method = MethodId::new(m);
        for _ in 0..inv {
            profiles.record_invocation(method);
        }
        Snapshot::capture(0xfeed, &profiles, &[method])
    }

    #[test]
    fn merge_unions_profiles_and_is_order_independent() {
        let a = replica(1, 10);
        let b = replica(2, 5);
        let c = replica(1, 3);
        let fwd =
            Snapshot::merge(&[a.clone(), b.clone(), c.clone()], &MergePolicy::default()).unwrap();
        let rev = Snapshot::merge(&[c, b, a], &MergePolicy::default()).unwrap();
        assert_eq!(fwd.snapshot.to_bytes(), rev.snapshot.to_bytes());
        assert_eq!(fwd.stats, rev.stats);
        let table = fwd.snapshot.profile_table();
        assert_eq!(table.invocations(MethodId::new(1)), 13, "counts sum");
        assert_eq!(table.invocations(MethodId::new(2)), 5);
        let ids = [MethodId::new(1), MethodId::new(2)];
        assert_eq!(fwd.snapshot.decisions, ids, "the union, in method order");
    }

    #[test]
    fn merge_dedups_identical_replicas() {
        let a = replica(1, 10);
        let once = Snapshot::merge(std::slice::from_ref(&a), &MergePolicy::default()).unwrap();
        let thrice = Snapshot::merge(&[a.clone(), a.clone(), a], &MergePolicy::default()).unwrap();
        assert_eq!(once.snapshot.to_bytes(), thrice.snapshot.to_bytes());
        assert_eq!(thrice.stats.duplicates, 2);
        assert_eq!(thrice.stats.replicas, 1);
        assert_eq!(
            once.snapshot.profile_table().invocations(MethodId::new(1)),
            10,
            "redelivery must not double-count"
        );
    }

    #[test]
    fn merge_support_check_ages_out_cold_decisions() {
        let out = Snapshot::merge(
            &[replica(1, 3), replica(2, 50)],
            &MergePolicy::with_support(10),
        )
        .unwrap();
        assert_eq!(out.snapshot.decisions, [MethodId::new(2)]);
        assert_eq!(out.stats.aged_out, 1);
        assert_eq!(out.aged_out, [(MethodId::new(1), 3)]);
        // The aged-out method's *profile* survives — only the decision is
        // dropped, so the next run re-derives it from fresh evidence.
        assert_eq!(
            out.snapshot.profile_table().invocations(MethodId::new(1)),
            3
        );
    }

    #[test]
    fn merge_rejects_empty_and_mixed_fingerprints() {
        assert!(matches!(
            Snapshot::merge(&[], &MergePolicy::default()),
            Err(SnapshotError::Corrupt(_))
        ));
        let a = replica(1, 5);
        let mut b = replica(1, 5);
        b.fingerprint = 0xbeef;
        assert!(matches!(
            Snapshot::merge(&[a, b], &MergePolicy::default()),
            Err(SnapshotError::StaleProgram { .. })
        ));
    }

    #[test]
    fn file_store_write_is_atomic_and_leaves_no_tmp() {
        let path = std::env::temp_dir().join("incline-snapshot-atomic-test.snap");
        let store = FileStore::new(&path);
        store.write(b"first").unwrap();
        store.write(b"second").unwrap();
        assert_eq!(store.read().unwrap(), b"second");
        assert!(
            !store.tmp_path().exists(),
            "tmp file must be renamed away on success"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_store_write_failure_cleans_tmp_and_keeps_old_snapshot() {
        // A directory at the target path makes the rename fail after the
        // tmp write succeeded — the tmp file must still be cleaned up.
        let dir = std::env::temp_dir().join("incline-snapshot-atomic-dir-test.snap");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = FileStore::new(&dir);
        assert!(matches!(store.write(b"nope"), Err(SnapshotError::Io(_))));
        assert!(!store.tmp_path().exists(), "failed write must clean up tmp");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
