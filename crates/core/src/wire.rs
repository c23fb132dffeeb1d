//! Binary serialization of [`Update`]s — the payload format of
//! `silkmoth-storage`'s write-ahead log.
//!
//! One encoded update is self-delimiting. Layout (all integers
//! little-endian):
//!
//! ```text
//! tag      u8: 1 = Append, 2 = Remove, 3 = Compact
//! Append:  n_sets u32, per set: n_elems u32, per elem: len u32 + UTF-8
//! Remove:  n u32, then n set ids (u32)
//! Compact: flags u8, always 0 (a Compact record is the two bytes [3, 0])
//! ```
//!
//! Framing (length prefix, checksum) is the caller's job; decoding
//! rejects trailing bytes so a mis-framed record can never be silently
//! accepted.

use crate::engine::Update;

/// Decoding errors. Encoding is infallible.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The buffer ended before the declared content.
    Truncated,
    /// Unknown update tag.
    BadTag(u8),
    /// An element's bytes are not valid UTF-8.
    BadUtf8,
    /// Bytes remained after one complete update.
    TrailingBytes(usize),
    /// An encoded [`Update::Compact`] sets flag bits this reader does
    /// not define — corruption, or a payload from a future writer that
    /// failed to bump the WAL version.
    BadFlags(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "encoded payload truncated"),
            Self::BadTag(t) => write!(f, "unknown update tag {t}"),
            Self::BadUtf8 => write!(f, "encoded payload contains invalid UTF-8"),
            Self::TrailingBytes(n) => write!(f, "{n} trailing bytes after encoded payload"),
            Self::BadFlags(b) => write!(f, "undefined flag bits {b:#010b}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Appends the encoding of `update` to `out`.
pub fn encode_update(update: &Update, out: &mut Vec<u8>) {
    match update {
        Update::Append(sets) => {
            out.push(1);
            put_u32(out, sets.len() as u32);
            for set in sets {
                put_u32(out, set.len() as u32);
                for elem in set {
                    put_u32(out, elem.len() as u32);
                    out.extend_from_slice(elem.as_bytes());
                }
            }
        }
        Update::Remove(ids) => {
            out.push(2);
            put_u32(out, ids.len() as u32);
            for &id in ids {
                put_u32(out, id);
            }
        }
        Update::Compact => out.extend_from_slice(&[3, 0]),
    }
}

/// Decodes exactly one update from `buf` (the full slice must be
/// consumed — trailing bytes are an error, see the module docs).
pub fn decode_update(buf: &[u8]) -> Result<Update, WireError> {
    let mut r = Reader { buf, pos: 0 };
    let update = match r.u8()? {
        1 => {
            let n_sets = r.u32()? as usize;
            // Capacity hints are clamped by what the buffer could hold
            // (every set needs ≥ 4 bytes), so a corrupt count cannot
            // force a huge allocation — it runs into `Truncated`.
            let mut sets = Vec::with_capacity(n_sets.min(r.remaining() / 4));
            for _ in 0..n_sets {
                let n_elems = r.u32()? as usize;
                let mut set = Vec::with_capacity(n_elems.min(r.remaining() / 4));
                for _ in 0..n_elems {
                    let len = r.u32()? as usize;
                    let bytes = r.bytes(len)?;
                    set.push(
                        std::str::from_utf8(bytes)
                            .map_err(|_| WireError::BadUtf8)?
                            .to_owned(),
                    );
                }
                sets.push(set);
            }
            Update::Append(sets)
        }
        2 => {
            let n = r.u32()? as usize;
            let mut ids = Vec::with_capacity(n.min(r.remaining() / 4));
            for _ in 0..n {
                ids.push(r.u32()?);
            }
            Update::Remove(ids)
        }
        3 => match r.u8()? {
            0 => Update::Compact,
            flags => return Err(WireError::BadFlags(flags)),
        },
        t => return Err(WireError::BadTag(t)),
    };
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(update)
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let bytes = self.bytes(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    fn bytes(&mut self, n: usize) -> Result<&[u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(update: &Update) -> Update {
        let mut buf = Vec::new();
        encode_update(update, &mut buf);
        decode_update(&buf).expect("round-trip")
    }

    #[test]
    fn append_roundtrips() {
        let u = Update::Append(vec![
            vec!["héllo wörld".into(), "".into()],
            vec!["a b c".into()],
        ]);
        assert_eq!(roundtrip(&u), u);
    }

    #[test]
    fn remove_roundtrips() {
        let u = Update::Remove(vec![0, 7, 7, u32::MAX - 1]);
        assert_eq!(roundtrip(&u), u);
    }

    /// The Compact record is pinned byte for byte: every one a store
    /// has ever written is `[3, 0]`, so the WAL and replication formats
    /// need no version bump. A payload that sets the flag byte — the
    /// old `[3, 1, n, …]` layout that listed a renumbering — is refused
    /// by name.
    #[test]
    fn compact_is_exactly_two_bytes_and_any_flag_is_refused() {
        let mut buf = Vec::new();
        encode_update(&Update::Compact, &mut buf);
        assert_eq!(buf, [3, 0]);
        assert_eq!(decode_update(&buf), Ok(Update::Compact));

        // n = 3, then slot 0 → 0, slot 1 dropped, slot 2 → 1.
        let mut legacy = vec![3, 1];
        for entry in [3u32, 0, u32::MAX, 1] {
            legacy.extend_from_slice(&entry.to_le_bytes());
        }
        assert_eq!(decode_update(&legacy), Err(WireError::BadFlags(1)));
    }

    #[test]
    fn every_truncation_is_an_error_never_a_panic() {
        let u = Update::Append(vec![vec!["some words".into()], vec!["more".into()]]);
        let mut buf = Vec::new();
        encode_update(&u, &mut buf);
        for cut in 0..buf.len() {
            assert!(decode_update(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bad_tag_and_trailing_bytes_rejected() {
        assert_eq!(decode_update(&[9]).unwrap_err(), WireError::BadTag(9));
        let mut buf = Vec::new();
        encode_update(&Update::Compact, &mut buf);
        buf.push(0);
        assert_eq!(
            decode_update(&buf).unwrap_err(),
            WireError::TrailingBytes(1)
        );
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut buf = Vec::new();
        encode_update(&Update::Append(vec![vec!["ab".into()]]), &mut buf);
        let len = buf.len();
        buf[len - 1] = 0xFF; // clobber the second element byte
        assert_eq!(decode_update(&buf).unwrap_err(), WireError::BadUtf8);
    }

    #[test]
    fn corrupt_counts_cannot_demand_huge_allocations() {
        // Tag Append + n_sets = u32::MAX, then nothing: must fail fast
        // with Truncated, not allocate 2³² entries first.
        let mut buf = vec![1u8];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_update(&buf).unwrap_err(), WireError::Truncated);
    }
}
