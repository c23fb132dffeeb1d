//! Snapshot files: one self-validating checkpoint of an engine's
//! [`EngineState`].
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic      "SMSS"                         4 bytes
//! version    u32 (currently 3)              4 bytes
//! seq        u64 — generation number        8 bytes
//! update_seq u64 — committed updates total  8 bytes
//! epoch      u64 — failover epoch           8 bytes
//! next_id  u32                          4 bytes
//! n_live   u32                          4 bytes
//! n_dead   u32                          4 bytes
//! live ids u32 × n_live (ascending)
//! dead ids u32 × n_dead (ascending)
//! payload_len u64
//! payload  silkmoth_collection::codec::encode_interned of the live
//!          sets: each distinct text once, then the sets in live-id
//!          order as u32 text indices (carries the tokenization)
//! crc32    u32 over every preceding byte
//! ```
//!
//! A text is written, checksummed and decoded once however many sets
//! hold it, and [`StoreEngine::restore`](crate::StoreEngine::restore)
//! builds each collection from the indices. The texts are numbered
//! canonically (see [`EngineState`]), so the bytes depend only on the
//! live content, never on the shard count.
//!
//! Version 2 added `update_seq` (the base every WAL record's global
//! sequence number counts from) and `epoch` (bumped on follower
//! promotion so a replication cursor from a diverged history is never
//! silently resumed); version 3 replaced one text per occurrence with
//! the dictionary coding. Older files are rejected by name like any
//! other unknown version — there are no deployed stores to migrate.

use std::path::Path;

use silkmoth_collection::codec;
use silkmoth_collection::SetIdx;

use crate::crc32::crc32;
use crate::{EngineState, StorageError};

const SNAP_MAGIC: &[u8; 4] = b"SMSS";
const SNAP_VERSION: u32 = 3;
/// Fixed-size header: magic, version, seq, update_seq, epoch, next_id,
/// n_live, n_dead.
const SNAP_HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8 + 4 + 4 + 4;

/// The positional metadata a snapshot records alongside the engine
/// state: which generation it is, how many updates the store had
/// committed when it was taken (the base for WAL record sequence
/// numbers), and the failover epoch of the history it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotMeta {
    /// Generation number (matches the file name).
    pub seq: u64,
    /// Total committed updates at checkpoint time.
    pub update_seq: u64,
    /// Failover epoch; bumped by [`Store::bump_epoch`](crate::Store::bump_epoch).
    pub epoch: u64,
}

/// Serializes one snapshot generation to bytes.
pub fn snapshot_bytes(meta: SnapshotMeta, state: &EngineState) -> Vec<u8> {
    let sets: Vec<&[u32]> = state.live.iter().map(|(_, set)| &set[..]).collect();
    let payload = codec::encode_interned(&state.texts, &sets, state.tokenization);
    let mut out = Vec::with_capacity(
        SNAP_HEADER_LEN + 12 + 4 * (state.live.len() + state.dead.len()) + payload.len(),
    );
    out.extend_from_slice(SNAP_MAGIC);
    out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
    out.extend_from_slice(&meta.seq.to_le_bytes());
    out.extend_from_slice(&meta.update_seq.to_le_bytes());
    out.extend_from_slice(&meta.epoch.to_le_bytes());
    out.extend_from_slice(&state.next_id.to_le_bytes());
    out.extend_from_slice(&(state.live.len() as u32).to_le_bytes());
    out.extend_from_slice(&(state.dead.len() as u32).to_le_bytes());
    for &(id, _) in &state.live {
        out.extend_from_slice(&id.to_le_bytes());
    }
    for &id in &state.dead {
        out.extend_from_slice(&id.to_le_bytes());
    }
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Parses and fully validates snapshot bytes: magic, version, CRC,
/// declared lengths, id ordering. Returns the snapshot metadata and the
/// recovered state.
pub fn parse_snapshot(
    bytes: &[u8],
    file: &str,
) -> Result<(SnapshotMeta, EngineState), StorageError> {
    let corrupt = |detail: String| StorageError::Corrupt {
        file: file.to_owned(),
        detail,
    };
    if bytes.len() < 4 || &bytes[..4] != SNAP_MAGIC {
        return Err(corrupt("bad magic".into()));
    }
    if bytes.len() < SNAP_HEADER_LEN + 8 + 4 {
        return Err(corrupt("truncated header".into()));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != SNAP_VERSION {
        return Err(corrupt(format!(
            "unknown snapshot format version {version}"
        )));
    }
    let body = &bytes[..bytes.len() - 4];
    let le32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let le64 = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    if crc32(body) != le32(body.len()) {
        return Err(corrupt("CRC mismatch".into()));
    }
    let meta = SnapshotMeta {
        seq: le64(8),
        update_seq: le64(16),
        epoch: le64(24),
    };
    let (n_live, n_dead) = (le32(36) as usize, le32(40) as usize);
    let ids_end = SNAP_HEADER_LEN
        .checked_add(4 * (n_live + n_dead))
        .ok_or_else(|| corrupt("id counts overflow".into()))?;
    if body.len() < ids_end + 8 {
        return Err(corrupt("declared id lists past end of file".into()));
    }
    let read_ids =
        |from: usize, n: usize| -> Vec<SetIdx> { (0..n).map(|i| le32(from + 4 * i)).collect() };
    let live_ids = read_ids(SNAP_HEADER_LEN, n_live);
    let dead = read_ids(SNAP_HEADER_LEN + 4 * n_live, n_dead);
    let payload_len = le64(ids_end);
    if (body.len() - ids_end - 8) as u64 != payload_len {
        return Err(corrupt(format!(
            "payload length {payload_len} does not match file size"
        )));
    }
    let (texts, sets, tokenization) = codec::decode_interned(&body[ids_end + 8..])
        .map_err(|e| corrupt(format!("payload: {e}")))?;
    if sets.len() != n_live {
        return Err(corrupt(format!(
            "payload holds {} sets but header declares {n_live}",
            sets.len()
        )));
    }
    let state = EngineState {
        texts,
        live: live_ids.into_iter().zip(sets).collect(),
        dead,
        next_id: le32(32),
        tokenization,
    };
    state.validate()?;
    Ok((meta, state))
}

/// Reads and validates one snapshot file.
pub fn load_snapshot(path: &Path) -> Result<(SnapshotMeta, EngineState), StorageError> {
    let bytes =
        std::fs::read(path).map_err(StorageError::io(format!("reading {}", path.display())))?;
    parse_snapshot(&bytes, &path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use silkmoth_collection::Tokenization;

    fn state() -> EngineState {
        EngineState {
            texts: vec!["a b".into(), "c".into(), "d e f".into()],
            live: vec![(0, vec![0, 1, 0]), (2, vec![2, 1]), (5, vec![])],
            dead: vec![1, 3, 4],
            next_id: 6,
            tokenization: Tokenization::Whitespace,
        }
    }

    /// Rewrites the trailing CRC so a deliberate edit reaches the
    /// checks behind it.
    fn reseal(bytes: &mut [u8]) {
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
    }

    fn meta() -> SnapshotMeta {
        SnapshotMeta {
            seq: 7,
            update_seq: 41,
            epoch: 3,
        }
    }

    #[test]
    fn roundtrip() {
        let s = state();
        let bytes = snapshot_bytes(meta(), &s);
        let (back_meta, back) = parse_snapshot(&bytes, "test").unwrap();
        assert_eq!(back_meta, meta());
        assert_eq!(back, s);
    }

    #[test]
    fn every_truncation_is_an_error() {
        let bytes = snapshot_bytes(meta(), &state());
        for cut in 0..bytes.len() {
            assert!(
                parse_snapshot(&bytes[..cut], "test").is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn every_byte_flip_is_an_error() {
        // The trailing CRC covers every byte, so any single-byte
        // corruption must be rejected (a flip inside the CRC field
        // itself included).
        let bytes = snapshot_bytes(meta(), &state());
        let mut copy = bytes.clone();
        for i in 0..copy.len() {
            copy[i] ^= 0x40;
            assert!(parse_snapshot(&copy, "test").is_err(), "flip at {i}");
            copy[i] = bytes[i];
        }
    }

    #[test]
    fn unknown_version_rejected_by_name() {
        let mut bytes = snapshot_bytes(meta(), &state());
        bytes[4] = 9;
        let err = parse_snapshot(&bytes, "test").unwrap_err();
        // Version is checked before the CRC so the message names the
        // real problem, not a checksum mismatch.
        assert!(err.to_string().contains("version 9"), "{err}");
        // The per-occurrence layout this one replaced, likewise.
        bytes[4] = 2;
        let err = parse_snapshot(&bytes, "test").unwrap_err();
        assert!(err.to_string().contains("version 2"), "{err}");
    }

    #[test]
    fn absurd_text_count_is_corrupt_before_any_allocation() {
        let mut bytes = snapshot_bytes(meta(), &state());
        // The payload's n_texts, past its magic, tag and q.
        let at = SNAP_HEADER_LEN + 4 * 6 + 8 + 9;
        assert_eq!(bytes[at..at + 8], 3u64.to_le_bytes());
        for absurd in [1u64 << 32, u64::MAX] {
            bytes[at..at + 8].copy_from_slice(&absurd.to_le_bytes());
            reseal(&mut bytes);
            let err = parse_snapshot(&bytes, "test").unwrap_err();
            assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
        }
    }

    #[test]
    fn non_canonical_text_coding_is_bad_state() {
        let rejects = |s: EngineState, want: &str| match s.validate() {
            Err(StorageError::BadState(detail)) => assert!(detail.contains(want), "{detail}"),
            other => panic!("{want}: {other:?}"),
        };
        let mut s = state();
        s.live[1].1[0] = 3;
        rejects(s, "names text 3 of 3");
        let mut s = state();
        s.texts.push("orphan".into());
        rejects(s, "text 3 is in no live set");
        let mut s = state();
        s.live[0].1 = vec![1, 0, 1];
        rejects(s, "names text 1 before text 0");
    }

    #[test]
    fn inconsistent_id_lists_rejected() {
        let mut s = state();
        s.dead.push(0); // 0 is live
        s.dead.sort_unstable();
        let bytes = snapshot_bytes(meta(), &s);
        assert!(matches!(
            parse_snapshot(&bytes, "test"),
            Err(StorageError::BadState(_))
        ));
    }
}
