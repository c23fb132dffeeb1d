//! WAL robustness of the store the server runs (`Store<ShardedEngine>`):
//! recovery from a damaged log must yield a **named** [`StorageError`]
//! or a **consistent earlier state** (the engine after some prefix of
//! the committed updates) — never a panic and never a silently wrong
//! engine. Mirrors `codec_hardening.rs`: every-prefix truncation plus
//! seeded random byte-flip fuzz.
//!
//! The consistency oracle is exact: for a recovery that reports `k`
//! records replayed, the recovered engine's [`capture`]d state must
//! equal the in-memory engine that applied exactly the first `k`
//! updates. A corrupted-but-accepted record would change the captured
//! raw texts or id bookkeeping and fail the oracle — this is what the
//! per-record CRC is load-bearing for.
//!
//! [`capture`]: silkmoth_storage::StoreEngine::capture

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silkmoth_core::wire::encode_update;
use silkmoth_core::{CompactionPolicy, EngineConfig, RelatednessMetric, Update};
use silkmoth_server::{ShardSpec, ShardedEngine};
use silkmoth_storage::{crc32, EngineState, StorageError, Store, StoreConfig, StoreEngine};
use silkmoth_text::SimilarityFunction;

const SHARDS: usize = 3;

fn cfg() -> EngineConfig {
    EngineConfig::full(
        RelatednessMetric::Similarity,
        SimilarityFunction::Jaccard,
        0.5,
        0.0,
    )
}

fn base_sets() -> Vec<Vec<String>> {
    (0..6)
        .map(|i| vec![format!("w{} shared{}", i % 4, i % 2)])
        .collect()
}

fn updates() -> Vec<Update> {
    vec![
        Update::Append(vec![vec!["alpha beta".into()], vec!["gamma".into()]]),
        Update::Remove(vec![1, 4]),
        Update::Compact,
        Update::Append(vec![vec!["delta epsilon".into()]]),
        Update::Remove(vec![0]),
        Update::Append(vec![vec!["zeta".into()]]),
    ]
}

fn spec() -> ShardSpec {
    ShardSpec {
        cfg: cfg(),
        shards: SHARDS,
    }
}

fn fresh_engine(raw: &[Vec<String>]) -> ShardedEngine {
    ShardedEngine::build(raw, cfg(), SHARDS).unwrap()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("silkmoth-wal-robust-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The expected engine state after each update-count prefix:
/// `mirrors[k]` is the state having applied the first `k` updates.
fn prefix_mirrors(raw: &[Vec<String>], updates: &[Update]) -> Vec<EngineState> {
    let mut engine = fresh_engine(raw);
    let mut states = vec![engine.capture()];
    for u in updates {
        engine.apply(u.clone()).unwrap();
        states.push(engine.capture());
    }
    states
}

/// Records the scripted run once and hands back the WAL bytes (the
/// snapshot file is copied alongside for each damaged replica).
fn record_wal(dir: &Path) -> Vec<u8> {
    let mut store = Store::create(dir, fresh_engine(&base_sets()), StoreConfig::default()).unwrap();
    for u in updates() {
        store.apply(u).unwrap();
    }
    drop(store);
    std::fs::read(dir.join("wal-0-0.log")).unwrap()
}

/// Records the same scripted run with a tiny segment threshold, so the
/// records land spread over several sealed segments plus one active
/// tail. Returns every segment as `(file name, bytes)` in order.
fn record_segmented(dir: &Path, threshold: u64, min_segments: usize) -> Vec<(String, Vec<u8>)> {
    let store_cfg = StoreConfig {
        sync: true,
        policy: CompactionPolicy::default().segment_at_wal_bytes(threshold),
    };
    let mut store = Store::create(dir, fresh_engine(&base_sets()), store_cfg).unwrap();
    for u in updates() {
        store.apply(u).unwrap();
    }
    drop(store);
    let segs: Vec<(String, Vec<u8>)> = (0..)
        .map_while(|n| {
            let name = format!("wal-0-{n}.log");
            std::fs::read(dir.join(&name)).ok().map(|b| (name, b))
        })
        .collect();
    assert!(
        segs.len() >= min_segments,
        "the {threshold}-byte threshold should seal into >= {min_segments} segments, got {}",
        segs.len()
    );
    segs
}

/// Replaces the replica's WAL with `wal` and opens the store,
/// asserting the robustness contract. Returns how many records a
/// successful recovery replayed.
fn open_damaged(master: &Path, replica: &Path, wal: &[u8], what: &str) -> Option<u64> {
    let _ = std::fs::remove_dir_all(replica);
    std::fs::create_dir_all(replica).unwrap();
    std::fs::copy(
        master.join("snapshot-0.smc"),
        replica.join("snapshot-0.smc"),
    )
    .unwrap();
    std::fs::write(replica.join("wal-0-0.log"), wal).unwrap();
    match Store::<ShardedEngine>::open(replica, &spec(), StoreConfig::default()) {
        Ok((store, report)) => {
            let mirrors = prefix_mirrors(&base_sets(), &updates());
            let k = report.wal_replayed as usize;
            assert!(k < mirrors.len(), "{what}: replayed more than written");
            assert_eq!(
                store.engine().capture(),
                mirrors[k],
                "{what}: recovered state is not the {k}-update prefix state"
            );
            Some(report.wal_replayed)
        }
        Err(e) => {
            // A named error is acceptable; what matters is that it IS
            // a StorageError (we got here without panicking) with a
            // readable message.
            let _: &StorageError = &e;
            assert!(!e.to_string().is_empty());
            None
        }
    }
}

#[test]
fn every_prefix_truncation_recovers_a_consistent_prefix_state() {
    let master = temp_dir("trunc-master");
    let wal = record_wal(&master);
    let replica = temp_dir("trunc-replica");
    let mut seen_full = false;
    let mut seen_partial = false;
    for cut in 0..=wal.len() {
        let replayed = open_damaged(&master, &replica, &wal[..cut], &format!("cut at {cut}"));
        // Truncation is pure structural damage: recovery must always
        // succeed (discarding the torn tail), never hard-error.
        let replayed = replayed.unwrap_or_else(|| panic!("cut at {cut} must recover"));
        seen_full |= replayed == updates().len() as u64;
        seen_partial |= replayed > 0 && replayed < updates().len() as u64;
    }
    assert!(seen_full, "the untruncated file replays fully");
    assert!(seen_partial, "mid-file cuts replay proper prefixes");
    let _ = std::fs::remove_dir_all(&master);
    let _ = std::fs::remove_dir_all(&replica);
}

#[test]
fn byte_flip_fuzz_never_panics_and_never_serves_a_wrong_state() {
    let master = temp_dir("flip-master");
    let wal = record_wal(&master);
    let replica = temp_dir("flip-replica");
    let rng = &mut StdRng::seed_from_u64(0x5111_6d07);
    let mut outcomes = [0usize; 2]; // [recovered, errored]
    for round in 0..200 {
        let mut damaged = wal.clone();
        let pos = rng.random_range(0..damaged.len());
        let bit = rng.random_range(0..8u32);
        damaged[pos] ^= 1 << bit;
        let what = format!("round {round}: flip bit {bit} of byte {pos}");
        match open_damaged(&master, &replica, &damaged, &what) {
            Some(_) => outcomes[0] += 1,
            None => outcomes[1] += 1,
        }
    }
    // Flips in record frames/payloads truncate to a prefix state;
    // flips in the header discard the whole WAL or (version field)
    // produce a named error. Recovery must happen for at least some
    // flips — every round already passed the no-panic + consistency
    // oracle above.
    assert!(outcomes[0] > 0, "some flips recover a prefix: {outcomes:?}");
    let _ = std::fs::remove_dir_all(&master);
    let _ = std::fs::remove_dir_all(&replica);
}

#[test]
fn a_flip_in_the_last_record_is_caught_by_the_crc() {
    // The sharpest form of the CRC claim: flip EVERY bit of the last
    // record's payload one at a time. Without the per-record CRC many
    // of these would decode as a *different, plausible* update (a
    // changed element string, a different removed id) and recovery
    // would serve a silently wrong engine. With the CRC, every one of
    // them must recover exactly the all-but-last prefix state.
    let master = temp_dir("lastrec-master");
    let wal = record_wal(&master);
    let replica = temp_dir("lastrec-replica");
    let n = updates().len() as u64;

    // Find the last record's frame by walking the records.
    let mut pos = 28; // version-2 segment header
    let mut last_start = pos;
    while pos < wal.len() {
        let len = u32::from_le_bytes(wal[pos..pos + 4].try_into().unwrap()) as usize;
        last_start = pos;
        pos += 8 + len;
    }
    assert_eq!(pos, wal.len(), "walked cleanly to the end");

    for byte in last_start + 8..wal.len() {
        for bit in 0..8 {
            let mut damaged = wal.clone();
            damaged[byte] ^= 1 << bit;
            let what = format!("flip bit {bit} of payload byte {byte}");
            let replayed = open_damaged(&master, &replica, &damaged, &what)
                .unwrap_or_else(|| panic!("{what}: payload flips are structural, must recover"));
            assert_eq!(replayed, n - 1, "{what}: last record must be discarded");
        }
    }
    let _ = std::fs::remove_dir_all(&master);
    let _ = std::fs::remove_dir_all(&replica);
}

#[test]
fn corrupt_header_on_a_wal_with_records_is_a_hard_error_not_a_silent_discard() {
    // The header is written and fsync'd before any record is ever
    // acknowledged, so no crash produces a full WAL with a bad
    // magic/seq — that shape is always corruption. Discarding it as a
    // "torn tail" would silently drop every committed record, so it
    // must be a named error instead.
    let master = temp_dir("hdrcorrupt-master");
    let wal = record_wal(&master);
    let replica = temp_dir("hdrcorrupt-replica");
    for (pos, what, named) in [
        (0usize, "magic", "bad magic"),
        (8, "generation", "does not match snapshot seq"),
    ] {
        let mut damaged = wal.clone();
        damaged[pos] ^= 0x01;
        let _ = std::fs::remove_dir_all(&replica);
        std::fs::create_dir_all(&replica).unwrap();
        std::fs::copy(
            master.join("snapshot-0.smc"),
            replica.join("snapshot-0.smc"),
        )
        .unwrap();
        std::fs::write(replica.join("wal-0-0.log"), &damaged).unwrap();
        let err =
            Store::<ShardedEngine>::open(&replica, &spec(), StoreConfig::default()).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt { detail, .. } if detail.contains(named)),
            "flipped {what}: {err}"
        );

        // The same damage on a header-ONLY file (no records to lose)
        // is the torn-creation crash window: recovery proceeds with an
        // empty log.
        let replayed = open_damaged(&master, &replica, &damaged[..28], &format!("bare {what}"))
            .expect("header-only damage must recover");
        assert_eq!(replayed, 0);
    }
    let _ = std::fs::remove_dir_all(&master);
    let _ = std::fs::remove_dir_all(&replica);
}

/// Installs the given segment files in a fresh replica and opens it,
/// holding recovery to the same contract as [`open_damaged`].
fn open_segmented(
    master: &Path,
    replica: &Path,
    segs: &[(String, Vec<u8>)],
    what: &str,
) -> Option<u64> {
    let _ = std::fs::remove_dir_all(replica);
    std::fs::create_dir_all(replica).unwrap();
    std::fs::copy(
        master.join("snapshot-0.smc"),
        replica.join("snapshot-0.smc"),
    )
    .unwrap();
    for (name, bytes) in segs {
        std::fs::write(replica.join(name), bytes).unwrap();
    }
    match Store::<ShardedEngine>::open(replica, &spec(), StoreConfig::default()) {
        Ok((store, report)) => {
            let mirrors = prefix_mirrors(&base_sets(), &updates());
            let k = report.wal_replayed as usize;
            assert!(k < mirrors.len(), "{what}: replayed more than written");
            assert_eq!(
                store.engine().capture(),
                mirrors[k],
                "{what}: recovered state is not the {k}-update prefix state"
            );
            Some(report.wal_replayed)
        }
        Err(e) => {
            let _: &StorageError = &e;
            assert!(!e.to_string().is_empty(), "{what}");
            None
        }
    }
}

#[test]
fn final_segment_truncation_recovers_but_sealed_truncation_is_corruption() {
    let master = temp_dir("seg-trunc-master");
    let segs = record_segmented(&master, 48, 3);
    let replica = temp_dir("seg-trunc-replica");
    let n = updates().len() as u64;

    assert_eq!(
        open_segmented(&master, &replica, &segs, "intact"),
        Some(n),
        "the undamaged multi-segment log replays fully"
    );

    // The seal creates the successor file only after the crossing
    // append committed, so a crash in that window leaves the full
    // just-sealed segment as the last file — and a crash mid-append
    // additionally tears its tail. Simulate both: drop the trailing
    // empty segment, then cut every prefix of the new final segment.
    // That is pure crash damage and must always recover a consistent
    // prefix.
    assert_eq!(segs.last().unwrap().1.len(), 28, "active segment is empty");
    let trimmed = &segs[..segs.len() - 1];
    let (last_name, last_bytes) = trimmed.last().unwrap().clone();
    let mut seen_partial = false;
    for cut in 0..=last_bytes.len() {
        let mut damaged = trimmed[..trimmed.len() - 1].to_vec();
        damaged.push((last_name.clone(), last_bytes[..cut].to_vec()));
        let what = format!("final-segment cut at {cut}");
        let replayed = open_segmented(&master, &replica, &damaged, &what)
            .unwrap_or_else(|| panic!("{what} must recover"));
        seen_partial |= replayed < n;
    }
    assert!(seen_partial, "mid-segment cuts replay proper prefixes");

    // A torn tail in a SEALED segment can never come from a crash —
    // its successor only exists because the segment was complete when
    // sealed — so it must be a hard error, not a silent prefix.
    for (i, (name, bytes)) in segs.iter().enumerate().take(segs.len() - 1) {
        let mut damaged = segs.to_vec();
        damaged[i] = (name.clone(), bytes[..bytes.len() - 1].to_vec());
        assert_eq!(
            open_segmented(&master, &replica, &damaged, &format!("{name} torn")),
            None,
            "torn tail in sealed segment {name} must be a hard error"
        );
    }
    let _ = std::fs::remove_dir_all(&master);
    let _ = std::fs::remove_dir_all(&replica);
}

#[test]
fn segment_byte_flip_fuzz_respects_the_seal() {
    let master = temp_dir("seg-flip-master");
    let segs = record_segmented(&master, 48, 3);
    let replica = temp_dir("seg-flip-replica");
    let rng = &mut StdRng::seed_from_u64(0x5e6_f1e5);
    let (mut recovered, mut errored) = (0usize, 0usize);
    for round in 0..150 {
        let si = rng.random_range(0..segs.len());
        let mut damaged = segs.to_vec();
        let pos = rng.random_range(0..damaged[si].1.len());
        damaged[si].1[pos] ^= 1 << rng.random_range(0..8u32);
        let what = format!("round {round}: flip byte {pos} of {}", segs[si].0);
        match open_segmented(&master, &replica, &damaged, &what) {
            // The oracle inside open_segmented already proved any Ok is
            // a consistent prefix; flips in a sealed segment must land
            // in the Err arm (the seal makes damage there unambiguous).
            Some(_) => {
                assert_eq!(si, segs.len() - 1, "{what}: sealed-segment flip recovered");
                recovered += 1;
            }
            None => errored += 1,
        }
    }
    assert!(
        recovered > 0 && errored > 0,
        "both outcomes exercised: {recovered} recovered, {errored} errored"
    );
    let _ = std::fs::remove_dir_all(&master);
    let _ = std::fs::remove_dir_all(&replica);
}

/// Recovery and replication shipping read a segment through one parser,
/// so they agree on every damaged final segment: for every truncation
/// and every single-byte flip of the active segment (behind sealed
/// ones), either the store refuses to open by name, or it replays `n`
/// records and, reopened, ships exactly those `n` records — the bytes
/// `encode_update` gives the updates it replayed.
#[test]
fn recovery_and_shipping_agree_on_every_damaged_final_segment() {
    let master = temp_dir("agree-master");
    let segs = record_segmented(&master, 48, 3);
    let replica = temp_dir("agree-replica");
    // Drop the empty successor (a crash right after the seal), so the
    // active segment holds records.
    let trimmed = &segs[..segs.len() - 1];
    let (name, active) = trimmed.last().unwrap().clone();
    assert!(
        trimmed.len() >= 2 && active.len() > 28,
        "records sit in the active segment"
    );
    let encoded: Vec<Vec<u8>> = updates()
        .iter()
        .map(|update| {
            let mut bytes = Vec::new();
            encode_update(update, &mut bytes);
            bytes
        })
        .collect();

    let mut variants: Vec<(String, Vec<u8>)> = (0..=active.len())
        .map(|cut| (format!("cut at {cut}"), active[..cut].to_vec()))
        .collect();
    for pos in 0..active.len() {
        for mask in (0..8).map(|bit| 1u8 << bit).chain([0xff]) {
            let mut bytes = active.clone();
            bytes[pos] ^= mask;
            variants.push((format!("byte {pos} ^ {mask:#04x}"), bytes));
        }
    }
    let (mut recovered, mut refused) = (0usize, 0usize);
    for (what, bytes) in variants {
        let mut damaged = trimmed.to_vec();
        *damaged.last_mut().unwrap() = (name.clone(), bytes);
        // The prefix oracle runs inside `open_segmented`.
        let Some(n) = open_segmented(&master, &replica, &damaged, &what) else {
            let err = Store::<ShardedEngine>::open(&replica, &spec(), StoreConfig::default())
                .unwrap_err();
            assert!(matches!(err, StorageError::Corrupt { .. }), "{what}: {err}");
            refused += 1;
            continue;
        };
        let (store, report) =
            Store::<ShardedEngine>::open(&replica, &spec(), StoreConfig::default()).unwrap();
        assert_eq!(
            (report.wal_replayed, report.wal_discarded),
            (n, None),
            "{what}: the repaired log reopens whole"
        );
        let shipped = store
            .retained_log()
            .unwrap()
            .records_after(0, usize::MAX)
            .unwrap()
            .unwrap();
        assert_eq!(
            shipped,
            encoded[..n as usize],
            "{what}: shipping serves other records than recovery replayed"
        );
        recovered += 1;
    }
    assert!(
        recovered > 0 && refused > 0,
        "both outcomes exercised: {recovered} recovered, {refused} refused"
    );
    let _ = std::fs::remove_dir_all(&master);
    let _ = std::fs::remove_dir_all(&replica);
}

#[test]
fn sealed_segment_header_corruption_is_a_named_error() {
    let master = temp_dir("seg-hdr-master");
    let segs = record_segmented(&master, 48, 3);
    let replica = temp_dir("seg-hdr-replica");
    // One flipped byte in each field of a sealed segment's header:
    // magic, version, generation, segment index, base sequence. Every
    // one breaks an invariant recovery checks by name.
    for (pos, what) in [
        (0usize, "magic"),
        (4, "version"),
        (8, "generation"),
        (16, "segment index"),
        (20, "base sequence"),
    ] {
        let mut damaged = segs.to_vec();
        damaged[1].1[pos] ^= 0x01;
        assert_eq!(
            open_segmented(&master, &replica, &damaged, what),
            None,
            "flipped {what} byte of a sealed segment must be a hard error"
        );
    }
    let _ = std::fs::remove_dir_all(&master);
    let _ = std::fs::remove_dir_all(&replica);
}

#[test]
fn v1_wal_is_rejected_by_name() {
    // No deployed store ever held a version-1 WAL (one `wal-<gen>.log`
    // with a 16-byte header), so this build does not read one — and
    // must say so instead of skipping it: a skipped log is silently
    // dropped committed records. Both shapes a v1 log can take in a
    // store directory are a hard `Corrupt` naming the version.
    let master = temp_dir("v1-master");
    let wal = record_wal(&master);
    let mut v1 = Vec::new();
    v1.extend_from_slice(b"SMWL");
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&0u64.to_le_bytes());
    let header_only = v1.clone();
    v1.extend_from_slice(&wal[28..]);

    for (file, bytes, what) in [
        ("wal-0.log", &v1, "a v1 single-file log"),
        (
            "wal-0-0.log",
            &v1,
            "a v1 header on a segment holding records",
        ),
        ("wal-0-0.log", &header_only, "a header-only v1 segment"),
    ] {
        let replica = temp_dir("v1-replica");
        std::fs::create_dir_all(&replica).unwrap();
        std::fs::copy(
            master.join("snapshot-0.smc"),
            replica.join("snapshot-0.smc"),
        )
        .unwrap();
        std::fs::write(replica.join(file), bytes).unwrap();
        let err =
            Store::<ShardedEngine>::open(&replica, &spec(), StoreConfig::default()).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt { detail, .. }
                if detail.contains("WAL format version 1")),
            "{what}: {err}"
        );
        assert!(
            replica.join(file).exists(),
            "{what}: the rejected log must be left in place"
        );
        let _ = std::fs::remove_dir_all(&replica);
    }
    let _ = std::fs::remove_dir_all(&master);
}

#[test]
fn corrupt_snapshot_is_a_named_error_not_a_panic() {
    let master = temp_dir("snapcorrupt");
    let _ = record_wal(&master);
    let snap_path = master.join("snapshot-0.smc");
    let snap = std::fs::read(&snap_path).unwrap();
    let rng = &mut StdRng::seed_from_u64(7);
    for _ in 0..50 {
        let mut damaged = snap.clone();
        let pos = rng.random_range(0..damaged.len());
        damaged[pos] ^= 1 << rng.random_range(0..8u32);
        std::fs::write(&snap_path, &damaged).unwrap();
        let err =
            Store::<ShardedEngine>::open(&master, &spec(), StoreConfig::default()).unwrap_err();
        assert!(
            matches!(err, StorageError::NoValidSnapshot { .. }),
            "single corrupt generation: {err}"
        );
    }
    std::fs::write(&snap_path, &snap).unwrap();
    assert!(Store::<ShardedEngine>::open(&master, &spec(), StoreConfig::default()).is_ok());
    let _ = std::fs::remove_dir_all(&master);
}

/// The served engine never renumbers, so every Compact record a store
/// has written is the two bytes `[3, 0]` — the evidence that the WAL
/// format owes no version bump. A record in the older `[3, 1, n, …]`
/// layout (a compaction remap), framed with a valid CRC, is not a torn
/// tail but a record this build does not define: recovery must refuse
/// it by name, naming the file.
#[test]
fn a_compact_record_carrying_a_remap_is_corrupt_by_name() {
    let master = temp_dir("remap-master");
    let wal = record_wal(&master);
    let mut rewritten = wal[..28].to_vec();
    let mut compacts = 0;
    let mut pos = 28;
    while pos < wal.len() {
        let len = u32::from_le_bytes(wal[pos..pos + 4].try_into().unwrap()) as usize;
        let mut payload = wal[pos + 8..pos + 8 + len].to_vec();
        if payload == [3, 0] {
            compacts += 1;
            // n = 3, then slot 0 → 0, slot 1 dropped, slot 2 → 1.
            payload = vec![3, 1];
            for entry in [3u32, 0, u32::MAX, 1] {
                payload.extend_from_slice(&entry.to_le_bytes());
            }
        }
        rewritten.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rewritten.extend_from_slice(&crc32(&payload).to_le_bytes());
        rewritten.extend_from_slice(&payload);
        pos += 8 + len;
    }
    assert_eq!(compacts, 1, "the script's one Compact is the bytes [3, 0]");

    let replica = temp_dir("remap-replica");
    std::fs::create_dir_all(&replica).unwrap();
    std::fs::copy(
        master.join("snapshot-0.smc"),
        replica.join("snapshot-0.smc"),
    )
    .unwrap();
    std::fs::write(replica.join("wal-0-0.log"), &rewritten).unwrap();
    let err = Store::<ShardedEngine>::open(&replica, &spec(), StoreConfig::default()).unwrap_err();
    match &err {
        StorageError::Corrupt { file, detail } => {
            assert!(file.ends_with("wal-0-0.log"), "{err}");
            assert!(detail.contains("undefined flag bits"), "{err}");
        }
        other => panic!("expected Corrupt, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&master);
    let _ = std::fs::remove_dir_all(&replica);
}

/// The bytes of one WAL segment are pinned: a 28-byte header (magic,
/// version 2, generation 0, segment 0, base 0) and then one frame per
/// committed update, `len | crc32(payload) | payload`. A change to the
/// framing or to the update coding shows here before it reaches a
/// store on disk.
#[test]
fn one_wal_segment_is_pinned_byte_for_byte() {
    let dir = temp_dir("pinned");
    let mut store =
        Store::create(&dir, fresh_engine(&base_sets()), StoreConfig::default()).unwrap();
    store
        .apply(Update::Append(vec![vec![
            "alpha beta".into(),
            "gamma".into(),
        ]]))
        .unwrap();
    store.apply(Update::Remove(vec![1, 4])).unwrap();
    drop(store);
    let wal = std::fs::read(dir.join("wal-0-0.log")).unwrap();
    let hex: String = wal.iter().map(|b| format!("{b:02x}")).collect();
    let pinned = concat!(
        // "SMWL", version 2, generation 0, segment 0, base 0.
        "534d574c",
        "02000000",
        "0000000000000000",
        "00000000",
        "0000000000000000",
        // Append of one two-element set: 32-byte payload.
        "20000000",
        "dcd76d6f",
        "0101000000020000000a000000616c70686120626574610500000067616d6d61",
        // Remove of ids 1 and 4: 13-byte payload.
        "0d000000",
        "9ffadbc0",
        "02020000000100000004000000",
    );
    assert_eq!(hex, pinned);
    let _ = std::fs::remove_dir_all(&dir);
}
