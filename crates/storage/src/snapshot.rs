//! Snapshot files: one self-validating checkpoint of an engine's
//! [`EngineState`].
//!
//! Layout: sealed [envelope](crate::envelope) bytes (`SMSS`, version
//! 3) whose fields are (little-endian):
//!
//! ```text
//! seq        u64 — generation number        8 bytes
//! update_seq u64 — committed updates total  8 bytes
//! epoch      u64 — failover epoch           8 bytes
//! next_id    u32                            4 bytes
//! n_live     u32                            4 bytes
//! n_dead     u32                            4 bytes
//! live ids   u32 × n_live (ascending)
//! dead ids   u32 × n_dead (ascending)
//! payload_len u64
//! payload    silkmoth_collection::codec::encode_interned of the live
//!            sets: each distinct text once, then the sets in live-id
//!            order as u32 text indices (carries the tokenization)
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

use crate::envelope::{seal, Header, HEADER_LEN};
use crate::{EngineState, StorageError};

const SNAP_HEADER: Header = Header::new(*b"SMSS", 3);
/// The fixed fields: seq, update_seq, epoch, next_id, n_live, n_dead.
const SNAP_FIXED_LEN: usize = 8 + 8 + 8 + 4 + 4 + 4;

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
    let ids = 4 * (state.live.len() + state.dead.len());
    let mut out = SNAP_HEADER.begin(HEADER_LEN + SNAP_FIXED_LEN + ids + 12 + payload.len());
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
    seal(&mut out);
    out
}

/// Parses and fully validates snapshot bytes: the envelope (magic,
/// version, CRC), declared lengths, id ordering. Returns the snapshot
/// metadata and the recovered state.
pub fn parse_snapshot(
    bytes: &[u8],
    file: &str,
) -> Result<(SnapshotMeta, EngineState), StorageError> {
    let corrupt = |detail: String| StorageError::Corrupt {
        file: file.to_owned(),
        detail,
    };
    let body = SNAP_HEADER
        .open(bytes)
        .map_err(|e| corrupt(e.to_string()))?;
    if body.len() < SNAP_FIXED_LEN + 8 {
        return Err(corrupt("truncated header".into()));
    }
    let le32 = |at: usize| u32::from_le_bytes(body[at..at + 4].try_into().expect("4 bytes"));
    let le64 = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().expect("8 bytes"));
    let meta = SnapshotMeta {
        seq: le64(0),
        update_seq: le64(8),
        epoch: le64(16),
    };
    let (n_live, n_dead) = (le32(28) as usize, le32(32) as usize);
    let ids_end = SNAP_FIXED_LEN
        .checked_add(4 * (n_live + n_dead))
        .ok_or_else(|| corrupt("id counts overflow".into()))?;
    if body.len() < ids_end + 8 {
        return Err(corrupt("declared id lists past end of file".into()));
    }
    let read_ids =
        |from: usize, n: usize| -> Vec<SetIdx> { (0..n).map(|i| le32(from + 4 * i)).collect() };
    let live_ids = read_ids(SNAP_FIXED_LEN, n_live);
    let dead = read_ids(SNAP_FIXED_LEN + 4 * n_live, n_dead);
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
        next_id: le32(24),
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
    fn reseal(bytes: &mut Vec<u8>) {
        bytes.truncate(bytes.len() - 4);
        seal(bytes);
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
    fn absurd_text_count_is_corrupt_before_any_allocation() {
        let mut bytes = snapshot_bytes(meta(), &state());
        // The payload's n_texts, past its magic, tag and q.
        let at = HEADER_LEN + SNAP_FIXED_LEN + 4 * 6 + 8 + 9;
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
