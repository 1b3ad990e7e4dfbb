//! Warmup-snapshot system tests: round-trip byte identity, the warmup that
//! eager replay saves, merge algebra, and graceful cold-start fallback for
//! truncated, bit-flipped, version-bumped, stale or missing snapshots —
//! over the paper workloads and the random-program corpus. That replayed
//! and merged snapshots compute the oracle's answers are rows of the
//! conformance matrix (`support/matrix.rs`); that two runs write the same
//! bytes is checked by every row with a twin.

mod support;

use std::sync::Arc;

use incline_core::IncrementalInliner;
use incline_ir::MethodId;
use incline_vm::snapshot::{fnv1a, Snapshot, SnapshotError, SnapshotIo, SNAPSHOT_VERSION};
use incline_vm::{
    BenchResult, BenchSpec, CollectingSink, CompileEvent, Machine, RunSession, Value, VmConfig,
};
use incline_workloads::{GenConfig, Workload};
use support::matrix::{run, with_threads, Corpus, Row, Snap};

#[test]
fn eager_and_seeded_replay_produce_cold_answers() {
    run([Corpus::Named, Corpus::Generated].map(|corpus| Row {
        corpus,
        config: config(),
        snapshot: Snap::Replay,
        iterations: 6,
        ..Row::default()
    }));
}

#[test]
fn merged_replay_matches_cold_answers_across_compile_threads() {
    run([Row {
        config: config(),
        snapshot: Snap::Merge,
        iterations: 6,
        twins: with_threads(config(), &[4]),
        ..Row::default()
    }]);
}

fn spec(w: &Workload) -> BenchSpec {
    BenchSpec {
        entry: w.entry,
        args: vec![Value::Int(w.input.min(8))],
        iterations: 6,
    }
}

fn config() -> VmConfig {
    VmConfig {
        hotness_threshold: 2,
        deopt: true,
        ..VmConfig::default()
    }
}

/// A session of `w` under the snapshot tests' configuration.
fn session(w: &Workload) -> RunSession<'_> {
    let session = RunSession::new(&w.program, spec(w)).config(config());
    session.inliner(Box::new(IncrementalInliner::new()))
}

/// Runs `w` cold and returns the result plus the snapshot it wrote.
fn cold_run(w: &Workload) -> (BenchResult, Vec<u8>) {
    let store = SnapshotIo::memory();
    let r = session(w)
        .snapshot_out(store.clone())
        .run()
        .unwrap_or_else(|e| panic!("{}: cold run failed: {e}", w.name));
    let bytes = store.bytes().expect("cold run must write a snapshot");
    (r, bytes)
}

/// Runs `w` with `bytes` loaded as the warmup snapshot.
fn warm_run(w: &Workload, bytes: Vec<u8>) -> BenchResult {
    session(w)
        .snapshot_in(bytes)
        .run()
        .unwrap_or_else(|e| panic!("{}: warm run failed: {e}", w.name))
}

fn corpus() -> Vec<Workload> {
    let mut targets = vec![
        incline_workloads::by_name("scalatest").unwrap(),
        incline_workloads::by_name("avrora").unwrap(),
        incline_workloads::by_name("phase_change").unwrap(),
    ];
    for seed in 0..12u64 {
        targets.push(incline_workloads::generate(seed, GenConfig::default()));
    }
    targets
}

#[test]
fn snapshots_reserialize_to_their_own_bytes() {
    // Parse → re-serialize is the identity on valid snapshots.
    for w in corpus() {
        let (_, bytes) = cold_run(&w);
        let snap = Snapshot::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("{}: snapshot must parse: {e}", w.name));
        assert_eq!(
            snap.to_bytes(),
            bytes,
            "{}: re-serialization must be byte-identical",
            w.name
        );
    }
}

#[test]
fn eager_replay_eliminates_warmup_on_paper_workloads() {
    for w in incline_workloads::all_benchmarks() {
        let (cold, bytes) = cold_run(&w);
        let warm = warm_run(&w, bytes);
        assert!(
            warm.warmup_cycles_within(0.05) <= cold.warmup_cycles_within(0.05),
            "{}: eager replay must not warm up slower than cold \
             (warm {} vs cold {} cycles)",
            w.name,
            warm.warmup_cycles_within(0.05),
            cold.warmup_cycles_within(0.05)
        );
    }
}

/// The replay contract: eager replay installs the snapshot's decision log
/// and nothing else, in its order, before the first run. The only methods
/// it may skip are those the ladder blacklisted and those cache admission
/// deferred; a budget too small for the whole log makes the second kind
/// happen.
#[test]
fn eager_replay_installs_the_decision_log_in_order() {
    let budgets = [0, 150];
    let mut skipped = [0usize; 2];
    for w in corpus() {
        let (_, bytes) = cold_run(&w);
        let decisions = Snapshot::from_bytes(&bytes).unwrap().decisions;
        for (budget, skipped) in budgets.iter().zip(&mut skipped) {
            let sink = Arc::new(CollectingSink::new());
            let config = VmConfig {
                code_cache_budget: *budget,
                ..config()
            };
            let mut vm = Machine::new(&w.program, Box::new(IncrementalInliner::new()), config);
            vm.set_trace_sink(sink.clone());
            vm.load_snapshot(&bytes).unwrap();
            let events = sink.take();
            assert_eq!(events[0].name(), "SnapshotLoaded", "{}", w.name);
            let installed: Vec<MethodId> = (events.iter())
                .filter_map(|e| match e {
                    CompileEvent::CodeInstalled { method, .. } => Some(*method),
                    _ => None,
                })
                .collect();
            let blacklisted = vm.report().blacklisted;
            let refused = |m: &MethodId| {
                let deferred = |e: &CompileEvent| matches!(e, CompileEvent::AdmissionRejected { method, .. } if method == m);
                blacklisted.contains(m) || events.iter().any(deferred)
            };
            let (skip, kept): (Vec<MethodId>, _) = decisions.iter().partition(|m| refused(m));
            assert_eq!(installed, kept, "{} under budget {budget}", w.name);
            *skipped += skip.len();
        }
    }
    assert_eq!(skipped[0], 0, "an unbounded cache defers nothing");
    assert!(skipped[1] > 0, "a tight budget defers some of the log");
}

/// Asserts that a session fed `bytes` falls back to a cold start: one
/// fallback counted, zero loads, and a `BenchResult` equal to the cold
/// run's in every field except the snapshot counters.
fn assert_cold_fallback(w: &Workload, cold: &BenchResult, bytes: Vec<u8>, what: &str) {
    let out = warm_run(w, bytes);
    assert_eq!(
        out.snapshot.fallbacks, 1,
        "{}: {what}: fallback must be counted",
        w.name
    );
    assert_eq!(out.snapshot.loaded, 0, "{}: {what}: nothing loaded", w.name);
    let mut masked = out.clone();
    masked.snapshot = cold.snapshot;
    assert_eq!(
        &masked, cold,
        "{}: {what}: fallback run must equal the cold run",
        w.name
    );
}

#[test]
fn corrupt_snapshots_degrade_to_cold_start() {
    let w = incline_workloads::by_name("scalatest").unwrap();
    let (cold, bytes) = cold_run(&w);

    // Truncations at several depths, including into the checksum digits.
    // (Losing only the trailing newline is tolerated: the footer and the
    // checksummed body are still intact.)
    for cut in [0, 1, bytes.len() / 2, bytes.len() - 2] {
        assert_cold_fallback(&w, &cold, bytes[..cut].to_vec(), "truncated");
    }
    // Bit flips sprinkled through the body trip the checksum (or the
    // parser); either way the run degrades, never panics.
    for pos in (0..bytes.len()).step_by(97) {
        let mut flipped = bytes.clone();
        flipped[pos] ^= 0x10;
        assert_cold_fallback(&w, &cold, flipped, "bit-flipped");
    }
    // Forgeries with a *valid* checksum (FNV-1a is no secret), so the
    // trailer cannot be what rejects them. `body` is everything before it.
    let text = String::from_utf8(bytes.clone()).unwrap();
    let (body, _) = text.split_once("{\"rec\":\"end\"").unwrap();
    let sealed = |body: String| {
        format!(
            "{body}{{\"rec\":\"end\",\"crc\":\"{:016x}\"}}\n",
            fnv1a(body.as_bytes())
        )
        .into_bytes()
    };
    let with = |from: &str, to: &str| {
        assert!(body.contains(from), "the snapshot has {from}");
        sealed(body.replacen(from, to, 1))
    };
    // A version bump, and the previous version: only the version check
    // fires.
    let v = |n: u64| format!("\"v\":{n},");
    for other in [SNAPSHOT_VERSION + 1, SNAPSHOT_VERSION - 1] {
        let forged = with(&v(SNAPSHOT_VERSION), &v(other));
        assert_eq!(
            Snapshot::from_bytes(&forged),
            Err(SnapshotError::VersionMismatch { found: other })
        );
        assert_cold_fallback(&w, &cold, forged, "version-bumped");
    }
    // Header counts no file could hold (the reader must not size a vector
    // from them: 2^64-1 overflowed the capacity, 4e12 exhausted memory),
    // two million open brackets (it must not recurse per bracket), and an
    // id past 32 bits (the id constructors assert; the reader must not).
    let good = Snapshot::from_bytes(&bytes).unwrap();
    let methods = format!("\"methods\":{},", good.methods.len());
    let decisions = format!("\"decisions\":{}}}", good.decisions.len());
    let forgeries = [
        (methods.as_str(), format!("\"methods\":{},", u64::MAX)),
        (methods.as_str(), "\"methods\":4000000000000,".to_string()),
        (decisions.as_str(), format!("\"decisions\":{}}}", u64::MAX)),
        (
            "\"blocks\":[",
            format!("\"blocks\":{}", "[".repeat(2_000_000)),
        ),
        ("\"method\":", "\"method\":4294967296".to_string()),
    ];
    for (from, to) in forgeries {
        let forged = with(from, &to);
        assert!(
            matches!(
                Snapshot::from_bytes(&forged),
                Err(SnapshotError::Corrupt(_))
            ),
            "{from} forged: corrupt, though the checksum holds"
        );
        assert_cold_fallback(&w, &cold, forged, from);
    }
    // Garbage that is not even JSONL.
    assert_cold_fallback(&w, &cold, b"not a snapshot at all".to_vec(), "garbage");
    // Well-formed, right program, valid checksum — but a record names an
    // id the program does not have. Profile tables and the machine's
    // method table are indexed by these ids, so the loader must refuse
    // before sizing or indexing one.
    let far = 4_000_000_000usize;
    type Tamper = fn(&mut Snapshot, usize);
    let tampers: [(&str, Tamper); 6] = [
        ("method", |s, far| {
            s.methods[0].method = incline_ir::MethodId::new(far)
        }),
        ("block", |s, far| {
            s.methods[0].blocks.push((incline_ir::BlockId::new(far), 1))
        }),
        ("callsite", |s, far| {
            s.methods[0].callsites.push((far as u32, 1))
        }),
        ("receiver site", |s, far| {
            s.methods[0].receivers.push((far as u32, vec![]))
        }),
        ("class", |s, far| {
            s.methods[0]
                .receivers
                .push((0, vec![(incline_ir::ClassId::new(far), 1)]))
        }),
        ("decided method", |s, far| {
            s.decisions[0] = incline_ir::MethodId::new(far)
        }),
    ];
    for (what, tamper) in tampers {
        let mut bad = good.clone();
        tamper(&mut bad, far);
        assert!(
            bad.check_indices(&w.program).is_err(),
            "{what} {far} must be out of range"
        );
        assert_cold_fallback(&w, &cold, bad.to_bytes(), what);
    }
    good.check_indices(&w.program)
        .expect("a snapshot the program wrote is in range");
}

#[test]
fn stale_snapshot_from_another_program_degrades_to_cold_start() {
    let w = incline_workloads::by_name("scalatest").unwrap();
    let other = incline_workloads::by_name("avrora").unwrap();
    let (cold, _) = cold_run(&w);
    let (_, stale) = cold_run(&other);
    // Valid bytes, valid checksum — but the program fingerprint differs.
    assert_cold_fallback(&w, &cold, stale, "stale-program");
}

#[test]
fn empty_store_degrades_to_cold_start() {
    let w = incline_workloads::by_name("scalatest").unwrap();
    let (cold, _) = cold_run(&w);
    let out = session(&w).snapshot_in(SnapshotIo::memory()).run().unwrap();
    assert_eq!(out.snapshot.fallbacks, 1);
    let mut masked = out.clone();
    masked.snapshot = cold.snapshot;
    assert_eq!(masked, cold);
}

/// Cold-runs `w` with explicit `iterations`/`input` overrides and returns
/// the snapshot it wrote — the way fleet replicas diverge: same program,
/// different traffic.
fn replica_run(w: &Workload, iterations: usize, input: i64) -> Vec<u8> {
    let store = SnapshotIo::memory();
    RunSession::new(
        &w.program,
        BenchSpec {
            entry: w.entry,
            args: vec![Value::Int(input)],
            iterations,
        },
    )
    .inliner(Box::new(IncrementalInliner::new()))
    .config(config())
    .snapshot_out(store.clone())
    .run()
    .unwrap_or_else(|e| panic!("{}: replica run failed: {e}", w.name));
    store.bytes().expect("replica run must write a snapshot")
}

fn parse(bytes: &[u8]) -> Snapshot {
    Snapshot::from_bytes(bytes).expect("replica snapshot must parse")
}

/// Three replicas of `w` under diverged traffic: same program
/// fingerprint, different iteration counts and inputs. Replicas whose
/// profiles froze at the same compile point may still come out
/// byte-identical — the merge dedups those, and the tests must hold
/// either way.
fn divergent_replicas(w: &Workload) -> Vec<Snapshot> {
    let base = w.input.clamp(2, 8);
    vec![
        parse(&replica_run(w, 4, base)),
        parse(&replica_run(w, 6, base + 1)),
        parse(&replica_run(w, 9, base + 2)),
    ]
}

/// A synthetic replica: `snap` with every profile count multiplied by
/// `k` — the shape a longer-lived replica of identical traffic would
/// have. Decisions are untouched.
fn scaled(snap: &Snapshot, k: u64) -> Snapshot {
    let mut out = snap.clone();
    for m in &mut out.methods {
        m.invocations *= k;
        m.backedges *= k;
        for (_, n) in &mut m.blocks {
            *n *= k;
        }
        for (_, n) in &mut m.callsites {
            *n *= k;
        }
        for (_, hist) in &mut m.receivers {
            for (_, n) in hist {
                *n *= k;
            }
        }
    }
    out
}

#[test]
fn merge_is_permutation_invariant_and_idempotent() {
    use incline_vm::snapshot::MergePolicy;
    const PERMS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let policy = MergePolicy::with_support(2);
    for w in corpus() {
        let replicas = divergent_replicas(&w);
        let reference = Snapshot::merge(&replicas, &policy)
            .unwrap_or_else(|e| panic!("{}: merge failed: {e}", w.name))
            .snapshot
            .to_bytes();
        for perm in PERMS {
            let shuffled: Vec<Snapshot> = perm.iter().map(|&i| replicas[i].clone()).collect();
            let merged = Snapshot::merge(&shuffled, &policy).unwrap().snapshot;
            assert_eq!(
                merged.to_bytes(),
                reference,
                "{}: merged snapshot depends on replica order {perm:?}",
                w.name
            );
        }
        // Idempotence: byte-identical replicas are deduplicated, so
        // feeding every replica twice changes nothing but the counters.
        let mut doubled = replicas.clone();
        doubled.extend(replicas.iter().cloned());
        let merged = Snapshot::merge(&doubled, &policy).unwrap();
        assert_eq!(
            merged.snapshot.to_bytes(),
            reference,
            "{}: duplicate replicas must not change the merge",
            w.name
        );
        assert_eq!(
            merged.stats.replicas + merged.stats.duplicates,
            6,
            "{}",
            w.name
        );
        assert!(merged.stats.duplicates >= 3, "{}", w.name);
        // Pure idempotence: merging a replica with itself N times equals
        // merging it once.
        let one = Snapshot::merge(&replicas[..1], &policy).unwrap().snapshot;
        let thrice = Snapshot::merge(
            &[
                replicas[0].clone(),
                replicas[0].clone(),
                replicas[0].clone(),
            ],
            &policy,
        )
        .unwrap()
        .snapshot;
        assert_eq!(
            one.to_bytes(),
            thrice.to_bytes(),
            "{}: merge must be idempotent",
            w.name
        );
    }
}

#[test]
fn merge_is_associative() {
    // Distinct replicas (count-scaled, so deduplication never collapses
    // two of them) that decided different method sets: replicas of the
    // same traffic observed for different lifetimes, one of which had not
    // tiered its first method up yet and one its last. Profile union is
    // count addition and the decision logs are a set union, so grouping
    // must not matter.
    use incline_vm::snapshot::MergePolicy;
    let policy = MergePolicy::with_support(1);
    for w in corpus() {
        let a = parse(&replica_run(&w, 6, w.input.min(8)));
        let mut b = scaled(&a, 2);
        let first = a.decisions.first().copied();
        b.decisions.retain(|&m| Some(m) != first);
        let mut c = scaled(&a, 3);
        c.decisions.pop();
        let all = Snapshot::merge(&[a.clone(), b.clone(), c.clone()], &policy)
            .unwrap()
            .snapshot
            .to_bytes();
        let ab = Snapshot::merge(&[a.clone(), b.clone()], &policy)
            .unwrap()
            .snapshot;
        let bc = Snapshot::merge(&[b, c.clone()], &policy).unwrap().snapshot;
        let left = Snapshot::merge(&[ab, c], &policy).unwrap().snapshot;
        let right = Snapshot::merge(&[a, bc], &policy).unwrap().snapshot;
        assert_eq!(
            left.to_bytes(),
            all,
            "{}: merge((a,b),c) differs from merge(a,b,c)",
            w.name
        );
        assert_eq!(
            right.to_bytes(),
            all,
            "{}: merge(a,(b,c)) differs from merge(a,b,c)",
            w.name
        );
    }
}

#[test]
fn merged_replay_folds_every_distinct_replica() {
    for w in corpus() {
        // Guaranteed-distinct replica set: one real run plus two
        // count-scaled variants of it (so dedup never collapses the set),
        // shipped as raw bytes the way the CLI's --snapshot-merge does.
        let base = parse(&replica_run(&w, 6, w.input.min(8)));
        let replicas: Vec<Vec<u8>> = [base.clone(), scaled(&base, 2), scaled(&base, 3)]
            .iter()
            .map(Snapshot::to_bytes)
            .collect();
        let out = session(&w)
            .snapshot_merge(replicas.into_iter().map(Into::into).collect())
            .run()
            .unwrap();
        assert_eq!(
            out.snapshot.merged, 3,
            "{}: all three replicas must fold into the merge",
            w.name
        );
        let want = support::expected(&w, w.input.min(8));
        let got = (out.final_value, out.final_output);
        assert_eq!(got, (want.value, want.output), "{}: the oracle's", w.name);
    }
}

#[test]
fn atomic_file_store_overwrite_leaves_no_partial_state() {
    let w = incline_workloads::by_name("scalatest").unwrap();
    let path = std::env::temp_dir().join(format!("incline-atomic-{}.jsonl", std::process::id()));
    let first = replica_run(&w, 4, 4);
    let second = replica_run(&w, 9, 8);
    let store = SnapshotIo::from(path.as_path());
    store.write(&first).unwrap();
    store.write(&second).unwrap();
    // The rename is the commit point: the file holds exactly the second
    // snapshot and the staging file is gone.
    assert_eq!(std::fs::read(&path).unwrap(), second);
    let leftovers: Vec<_> = std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("incline-atomic-") && n.ends_with(".tmp"))
        .collect();
    // Nothing reaches the path but through the rename: a write that cannot
    // stage its bytes fails and leaves the committed snapshot whole.
    let staging = path.with_extension("jsonl.tmp");
    std::fs::create_dir(&staging).unwrap();
    let blocked = store.write(&first);
    let kept = std::fs::read(&path);
    std::fs::remove_dir(&staging).ok();
    std::fs::remove_file(&path).ok();
    assert!(
        leftovers.is_empty(),
        "staging files left behind: {leftovers:?}"
    );
    assert!(blocked.is_err(), "a write that cannot stage must fail");
    assert_eq!(kept.unwrap(), second, "a failed write keeps the old bytes");
}

#[test]
fn truncated_tail_on_disk_degrades_to_cold_start() {
    // A torn tail is what a crashed *non-atomic* writer would leave; the
    // reader must treat it exactly like any corrupt snapshot.
    let w = incline_workloads::by_name("scalatest").unwrap();
    let path = std::env::temp_dir().join(format!("incline-torn-{}.jsonl", std::process::id()));
    let (cold, bytes) = cold_run(&w);
    std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
    let out = session(&w).snapshot_in(path.as_path()).run().unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(out.snapshot.fallbacks, 1);
    assert_eq!(out.snapshot.loaded, 0);
    let mut masked = out.clone();
    masked.snapshot = cold.snapshot;
    assert_eq!(masked, cold, "torn-tail run must equal the cold run");
}

#[test]
fn file_store_round_trips_through_disk() {
    let w = incline_workloads::by_name("scalatest").unwrap();
    let path = std::env::temp_dir().join(format!("incline-snap-{}.jsonl", std::process::id()));
    let (cold, bytes) = cold_run(&w);
    SnapshotIo::from(path.as_path()).write(&bytes).unwrap();
    let warm = session(&w).snapshot_in(path.as_path()).run().unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(warm.snapshot.loaded, 1);
    assert_eq!(cold.answer_digest(), warm.answer_digest());
}
