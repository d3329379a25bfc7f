//! Durability: kill-and-recover oracle plus a WAL corruption battery.
//!
//! The oracle simulates a crash by copying the WAL directory at barriers
//! while the live service keeps running with `--wal-sync=always` (so the
//! copy sees exactly the acknowledged mutation prefix, like a machine
//! losing power would). A service recovered from the copy must answer
//! `FRONTIER`, `QUERY` and `STATS` identically to the live one at the
//! barrier — across backends and shard counts, through mid-stream
//! registration, in-place update, unregistration and a manual `SNAPSHOT`.
//!
//! Exactness caveats (documented in the README): the `comparisons` work
//! counter is compared exactly for `baseline` and `baseline-sw:32`, whose
//! frontiers scan in arrival order, but not for the `compact` backends: a
//! compact history replays its value groups in hash-map order, so backfill
//! counts depend on it (and the filter-then-verify backend additionally
//! re-clusters on recovery). The sliding-window filter-then-verify
//! backends cluster incrementally and are not exact across recovery at
//! all, so they are not in the oracle matrix.
//!
//! The corruption battery checks that a torn final record, a bit-flipped
//! CRC, a truncated segment header and a corrupt or missing snapshot all
//! recover cleanly: the valid prefix is restored, the garbage is truncated
//! or skipped, and the server keeps serving.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

use pm_engine::durability::{recover_or_create, DurabilityConfig};
use pm_engine::{BackendSpec, EngineConfig, EngineService};
use pm_model::{AttrId, ValueId};
use pm_porder::Preference;
use pm_wal::SyncPolicy;

const ARITY: usize = 3;
const DOM: usize = 6;
const HISTORY: usize = 64;
const GENESIS_USERS: usize = 12;

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pm-recovery-test-{}-{}-{tag}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Flat copy of a WAL directory (segments + snapshots), standing in for
/// the on-disk state a crash would leave behind.
fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Chain preferences over `ARITY` attributes with a user-specific break,
/// so users disagree and frontiers are non-trivial but stay small.
fn population(n: usize) -> Vec<Preference> {
    (0..n)
        .map(|u| {
            let mut p = Preference::new(ARITY);
            for attr in 0..ARITY {
                let skip = (u + attr) % (DOM - 1);
                for v in 0..DOM - 1 {
                    if v == skip {
                        continue;
                    }
                    p.prefer(
                        AttrId::from(attr),
                        ValueId::new((v + 1) as u32),
                        ValueId::new(v as u32),
                    );
                }
            }
            p
        })
        .collect()
}

/// A deterministic `INGEST` line for objects `start..start + count`.
fn ingest_line(start: usize, count: usize) -> String {
    let groups: Vec<String> = (start..start + count)
        .map(|i| {
            (0..ARITY)
                .map(|a| (((i * 7 + a * 3) ^ (i / 4)) % DOM).to_string())
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    format!("INGEST {}", groups.join(";"))
}

fn durability(dir: &Path, sync: SyncPolicy) -> DurabilityConfig {
    DurabilityConfig {
        dir: dir.to_path_buf(),
        sync,
        snapshot_every: 0,
    }
}

fn recover(dir: &Path, backend: &str, shards: usize, sync: SyncPolicy) -> EngineService {
    let spec = BackendSpec::parse(backend).unwrap();
    let (service, _) = recover_or_create(
        population(GENESIS_USERS),
        &EngineConfig::new(shards),
        &spec,
        ARITY,
        HISTORY,
        &durability(dir, sync),
    )
    .unwrap();
    service
}

/// The `STATS` key=value tokens that must survive recovery bit-identically.
/// Rates, percentiles, skew, queue depths and history gauges are runtime
/// artifacts. `comparisons` is a *work* counter: frontiers scan in arrival
/// order, so an identical stream does identical work and the counter is
/// kept when `exact_work` holds. A compact history replays its value
/// groups in hash-map order, so backfill work on the `compact` backends
/// differs between two engines processing the identical stream (the
/// filter-then-verify backend additionally re-clusters on recovery).
/// Frontiers and notifications are order-independent and compared exactly.
fn normalized_stats(service: &EngineService, exact_work: bool) -> Vec<String> {
    let work = exact_work.then_some("comparisons=");
    let keep: Vec<&str> = [
        "ingested=",
        "users=",
        "shards=",
        "shard_users=",
        "registrations=",
        "unregistrations=",
        "updates=",
        "notifications=",
        "expirations=",
    ]
    .into_iter()
    .chain(work)
    .collect();
    service
        .respond_line("STATS")
        .split_whitespace()
        .filter(|tok| keep.iter().any(|k| tok.starts_with(k)))
        .map(str::to_owned)
        .collect()
}

/// Copies the live WAL dir (the simulated crash), recovers a fresh service
/// from the copy, and demands identical answers at the wire surface.
fn check_barrier(
    live: &EngineService,
    dir: &Path,
    backend: &str,
    shards: usize,
    users: &[u32],
    ingested: usize,
    tag: &str,
) {
    let copy = test_dir(&format!("barrier-{tag}"));
    copy_dir(dir, &copy);
    let recovered = recover(&copy, backend, shards, SyncPolicy::Always);

    for &user in users {
        let q = format!("FRONTIER {user}");
        assert_eq!(
            live.respond_line(&q),
            recovered.respond_line(&q),
            "{backend}/{shards} {tag}: frontier of user {user} diverged"
        );
    }
    // The full QUERY-able window, including ids evicted on both sides.
    for id in ingested.saturating_sub(HISTORY)..ingested {
        let q = format!("QUERY {id}");
        assert_eq!(
            live.respond_line(&q),
            recovered.respond_line(&q),
            "{backend}/{shards} {tag}: QUERY {id} diverged"
        );
    }
    let exact_work = !backend.contains(":compact");
    assert_eq!(
        normalized_stats(live, exact_work),
        normalized_stats(&recovered, exact_work),
        "{backend}/{shards} {tag}: STATS diverged"
    );
    fs::remove_dir_all(&copy).unwrap();
}

/// One full kill-and-recover run: ingest, churn every membership verb,
/// snapshot mid-stream, and validate a recovery at every barrier.
fn kill_and_recover(backend: &str, shards: usize) {
    let dir = test_dir(&format!("oracle-{shards}"));
    let live = recover(&dir, backend, shards, SyncPolicy::Always);
    let mut users: Vec<u32> = (0..GENESIS_USERS as u32).collect();
    let mut ingested = 0usize;

    let ingest = |live: &EngineService, n: usize, ingested: &mut usize| {
        for _ in 0..n / 8 {
            let r = live.respond_line(&ingest_line(*ingested, 8));
            assert!(r.starts_with("OK INGESTED 8"), "{r}");
            *ingested += 8;
        }
    };

    ingest(&live, 40, &mut ingested);
    check_barrier(&live, &dir, backend, shards, &users, ingested, "ingest");

    let r = live.respond_line("REGISTER 100 0>1,1>2;-;2>0");
    assert!(r.starts_with("OK REGISTERED 100"), "{r}");
    users.push(100);
    ingest(&live, 16, &mut ingested);
    check_barrier(&live, &dir, backend, shards, &users, ingested, "register");

    let r = live.respond_line("UPDATE 3 5>4;4>3;-");
    assert!(r.starts_with("OK UPDATED 3"), "{r}");
    ingest(&live, 16, &mut ingested);
    check_barrier(&live, &dir, backend, shards, &users, ingested, "update");

    assert_eq!(live.respond_line("UNREGISTER 5"), "OK UNREGISTERED 5");
    users.retain(|&u| u != 5);
    ingest(&live, 16, &mut ingested);
    check_barrier(&live, &dir, backend, shards, &users, ingested, "unregister");

    // A manual snapshot re-anchors the log; later barriers recover from
    // snapshot + tail instead of genesis + full replay.
    let r = live.respond_line("SNAPSHOT");
    assert!(r.starts_with("OK SNAPSHOT lsn="), "{r}");
    ingest(&live, 16, &mut ingested);
    check_barrier(&live, &dir, backend, shards, &users, ingested, "snapshot");

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn kill_and_recover_baseline() {
    for shards in [1, 2, 4, 8] {
        kill_and_recover("baseline", shards);
    }
}

#[test]
fn kill_and_recover_baseline_compact_history() {
    for shards in [1, 2, 4, 8] {
        kill_and_recover("baseline:compact", shards);
    }
}

#[test]
fn kill_and_recover_filter_then_verify_compact() {
    for shards in [1, 2, 4, 8] {
        kill_and_recover("ftv:0.4:compact", shards);
    }
}

#[test]
fn kill_and_recover_sliding_window() {
    for shards in [1, 2, 4, 8] {
        kill_and_recover("baseline-sw:32", shards);
    }
}

// ---------------------------------------------------------------------------
// Corruption battery
// ---------------------------------------------------------------------------

/// Builds a WAL dir with `objects` ingested (ingest-only, so the expected
/// user count is stable under any replay prefix), then drops the service
/// so the log is closed.
fn seeded_dir(tag: &str, objects: usize) -> PathBuf {
    let dir = test_dir(tag);
    let live = recover(&dir, "baseline", 2, SyncPolicy::Always);
    for start in (0..objects).step_by(8) {
        let r = live.respond_line(&ingest_line(start, 8));
        assert!(r.starts_with("OK INGESTED"), "{r}");
    }
    dir
}

fn last_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "pmwal"))
        .collect();
    segments.sort();
    segments.pop().expect("a WAL segment exists")
}

fn snapshot_files(dir: &Path) -> Vec<PathBuf> {
    let mut snapshots: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "pmsnap"))
        .collect();
    snapshots.sort();
    snapshots
}

/// Asserts the recovered service is fully alive: right user count, and
/// still accepts mutations and queries.
fn assert_serving(service: &EngineService, users: usize) {
    assert_eq!(service.engine().num_users(), users);
    let r = service.respond_line(&ingest_line(10_000, 2));
    assert!(r.starts_with("OK INGESTED 2"), "{r}");
    assert!(service.respond_line("STATS").starts_with("OK STATS"));
    assert!(service
        .respond_line("FRONTIER 0")
        .starts_with("OK FRONTIER 0"));
}

#[test]
fn recovers_from_a_torn_final_record() {
    let dir = seeded_dir("torn", 32);
    // A crash mid-append: garbage trails the last valid frame.
    let segment = last_segment(&dir);
    let mut bytes = fs::read(&segment).unwrap();
    bytes.extend_from_slice(&[0xFF, 0x13, 0x37]);
    fs::write(&segment, &bytes).unwrap();

    let spec = BackendSpec::parse("baseline").unwrap();
    let (service, report) = recover_or_create(
        population(GENESIS_USERS),
        &EngineConfig::new(2),
        &spec,
        ARITY,
        HISTORY,
        &durability(&dir, SyncPolicy::Always),
    )
    .unwrap();
    let report = report.expect("a non-fresh directory yields a report");
    assert_eq!(report.truncated_bytes, 3, "the garbage tail is truncated");
    assert_serving(&service, GENESIS_USERS);
    drop(service);

    // The truncation repaired the log: a second recovery sees no tear.
    let (service, report) = recover_or_create(
        population(GENESIS_USERS),
        &EngineConfig::new(2),
        &spec,
        ARITY,
        HISTORY,
        &durability(&dir, SyncPolicy::Always),
    )
    .unwrap();
    assert_eq!(report.unwrap().truncated_bytes, 0);
    assert_serving(&service, GENESIS_USERS);
    drop(service);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovers_from_a_bit_flipped_record() {
    let dir = seeded_dir("bitflip", 32);
    // Flip one byte mid-log: the CRC of that record fails, the valid
    // prefix before it is kept, everything after is discarded.
    let segment = last_segment(&dir);
    let mut bytes = fs::read(&segment).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&segment, &bytes).unwrap();

    let service = recover(&dir, "baseline", 2, SyncPolicy::Always);
    // Ingest-only log: whatever prefix survived, the users are intact and
    // the service serves.
    assert_serving(&service, GENESIS_USERS);
    drop(service);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovers_from_a_truncated_segment_header() {
    let dir = seeded_dir("header", 16);
    // Truncate the segment below its 16-byte header: every record in it is
    // lost, but recovery falls back to the snapshot state cleanly.
    let segment = last_segment(&dir);
    let bytes = fs::read(&segment).unwrap();
    fs::write(&segment, &bytes[..10]).unwrap();

    let service = recover(&dir, "baseline", 2, SyncPolicy::Always);
    assert_serving(&service, GENESIS_USERS);
    drop(service);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovers_from_corrupt_and_missing_snapshots() {
    let dir = seeded_dir("snapshots", 24);

    // Corrupt (empty) snapshot files are skipped newest-first.
    for snapshot in snapshot_files(&dir) {
        fs::write(&snapshot, b"").unwrap();
    }
    let service = recover(&dir, "baseline", 2, SyncPolicy::Always);
    assert_serving(&service, GENESIS_USERS);
    drop(service);

    // No snapshot at all: genesis rebuild plus a full replay from LSN 0.
    for snapshot in snapshot_files(&dir) {
        fs::remove_file(&snapshot).unwrap();
    }
    let spec = BackendSpec::parse("baseline").unwrap();
    let (service, report) = recover_or_create(
        population(GENESIS_USERS),
        &EngineConfig::new(2),
        &spec,
        ARITY,
        HISTORY,
        &durability(&dir, SyncPolicy::Always),
    )
    .unwrap();
    let report = report.expect("replaying a WAL is not a fresh start");
    assert!(!report.from_snapshot);
    assert!(report.replayed > 0);
    assert_serving(&service, GENESIS_USERS);
    drop(service);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_verb_requires_durability() {
    // Without --wal-dir there is nothing to snapshot: the verb answers ERR
    // and the connection keeps working.
    let spec = BackendSpec::parse("baseline").unwrap();
    let engine =
        pm_engine::ShardedEngine::new(population(GENESIS_USERS), &EngineConfig::new(2), &spec);
    let service = EngineService::new(engine, spec, ARITY, HISTORY);
    assert_eq!(
        service.respond_line("SNAPSHOT"),
        "ERR durability is disabled (no --wal-dir)"
    );
    assert!(service.respond_line("STATS").starts_with("OK STATS"));
}

#[test]
fn recovery_refuses_a_mismatched_configuration() {
    let dir = seeded_dir("mismatch", 16);
    // The snapshot was taken with baseline/2 shards/arity 3; restoring
    // into anything else must fail loudly, not corrupt silently.
    let wrong_backend = recover_or_create(
        population(GENESIS_USERS),
        &EngineConfig::new(2),
        &BackendSpec::parse("baseline-sw:32").unwrap(),
        ARITY,
        HISTORY,
        &durability(&dir, SyncPolicy::Always),
    );
    assert!(wrong_backend.is_err());
    let wrong_shards = recover_or_create(
        population(GENESIS_USERS),
        &EngineConfig::new(3),
        &BackendSpec::parse("baseline").unwrap(),
        ARITY,
        HISTORY,
        &durability(&dir, SyncPolicy::Always),
    );
    assert!(wrong_shards.is_err());
    fs::remove_dir_all(&dir).unwrap();
}
