//! Binary serialization of [`Update`]s — the payload format of
//! `silkmoth-storage`'s write-ahead log — and of [`QuerySpec`]s, the
//! owned query description every execution layer shares.
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
//!
//! ## QuerySpec encoding
//!
//! [`encode_query_spec`] / [`decode_query_spec`] carry a
//! [`QuerySpec`] and, per the storage-layer format rule, lead with a
//! version byte ([`QUERY_SPEC_WIRE_VERSION`], currently 1): any
//! byte-layout change bumps it, and readers reject unknown versions by
//! name instead of misparsing. Layout after the version byte:
//!
//! ```text
//! n_elems  u32, per element: len u32 + UTF-8 bytes
//! flags    u8: bit0 has_top_k, bit1 has_floor, bit2 has_deadline,
//!              bit3 want_stats, bit4 want_explain, bit5 want_timing
//!              (other bits must be 0)
//! top_k    u64            (present when bit0)
//! floor    f64 (LE bits)  (present when bit1; validated on decode
//!                          through the QuerySpec constructor — the one
//!                          floor check in the codebase)
//! deadline u64 µs         (present when bit2)
//! ```

use std::time::Duration;

use crate::config::ConfigError;
use crate::engine::Update;
use crate::spec::QuerySpec;

/// Version byte leading every encoded [`QuerySpec`]; bump on any
/// byte-layout change (readers reject unknown versions by name).
pub const QUERY_SPEC_WIRE_VERSION: u8 = 1;

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
    /// An encoded [`QuerySpec`] declares a format version this reader
    /// does not understand.
    BadVersion(u8),
    /// An encoded [`QuerySpec`] or [`Update::Compact`] sets flag bits
    /// this reader does not define — corruption, or a payload from a
    /// future writer that failed to bump the version.
    BadFlags(u8),
    /// The decoded bytes parse but do not form a valid [`QuerySpec`]
    /// (e.g. an out-of-range floor, rejected by the spec's validated
    /// constructor).
    InvalidSpec(ConfigError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "encoded payload truncated"),
            Self::BadTag(t) => write!(f, "unknown update tag {t}"),
            Self::BadUtf8 => write!(f, "encoded payload contains invalid UTF-8"),
            Self::TrailingBytes(n) => write!(f, "{n} trailing bytes after encoded payload"),
            Self::BadVersion(v) => write!(
                f,
                "unsupported query spec wire version {v} (this reader speaks \
                 {QUERY_SPEC_WIRE_VERSION})"
            ),
            Self::BadFlags(b) => write!(f, "undefined flag bits {b:#010b}"),
            Self::InvalidSpec(e) => write!(f, "decoded query spec is invalid: {e}"),
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

/// Flag bits of the encoded [`QuerySpec`] (see the module docs).
mod spec_flags {
    pub const HAS_TOP_K: u8 = 1 << 0;
    pub const HAS_FLOOR: u8 = 1 << 1;
    pub const HAS_DEADLINE: u8 = 1 << 2;
    pub const WANT_STATS: u8 = 1 << 3;
    pub const WANT_EXPLAIN: u8 = 1 << 4;
    pub const WANT_TIMING: u8 = 1 << 5;
    pub const ALL: u8 =
        HAS_TOP_K | HAS_FLOOR | HAS_DEADLINE | WANT_STATS | WANT_EXPLAIN | WANT_TIMING;
}

/// Appends the versioned encoding of `spec` to `out`; see the module
/// docs for the layout. Deadlines are carried at microsecond
/// granularity (saturating), which is far below the cooperative
/// deadline-check resolution.
pub fn encode_query_spec(spec: &QuerySpec, out: &mut Vec<u8>) {
    out.push(QUERY_SPEC_WIRE_VERSION);
    put_u32(out, spec.reference().len() as u32);
    for elem in spec.reference() {
        put_u32(out, elem.len() as u32);
        out.extend_from_slice(elem.as_bytes());
    }
    let mut flags = 0u8;
    if spec.top_k().is_some() {
        flags |= spec_flags::HAS_TOP_K;
    }
    if spec.floor().is_some() {
        flags |= spec_flags::HAS_FLOOR;
    }
    if spec.deadline().is_some() {
        flags |= spec_flags::HAS_DEADLINE;
    }
    if spec.want_stats() {
        flags |= spec_flags::WANT_STATS;
    }
    if spec.want_explain() {
        flags |= spec_flags::WANT_EXPLAIN;
    }
    if spec.want_timing() {
        flags |= spec_flags::WANT_TIMING;
    }
    out.push(flags);
    if let Some(k) = spec.top_k() {
        out.extend_from_slice(&(k as u64).to_le_bytes());
    }
    if let Some(floor) = spec.floor() {
        out.extend_from_slice(&floor.to_bits().to_le_bytes());
    }
    if let Some(budget) = spec.deadline() {
        let micros = u64::try_from(budget.as_micros()).unwrap_or(u64::MAX);
        out.extend_from_slice(&micros.to_le_bytes());
    }
}

/// Decodes exactly one [`QuerySpec`] from `buf` (trailing bytes are an
/// error). The floor, when present, goes through
/// [`QuerySpec::with_floor`] — the single validation point — so a
/// corrupt or malicious payload cannot smuggle an out-of-range
/// threshold past the range check.
pub fn decode_query_spec(buf: &[u8]) -> Result<QuerySpec, WireError> {
    let mut r = Reader { buf, pos: 0 };
    let version = r.u8()?;
    if version != QUERY_SPEC_WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let n_elems = r.u32()? as usize;
    let mut reference = Vec::with_capacity(n_elems.min(r.remaining() / 4));
    for _ in 0..n_elems {
        let len = r.u32()? as usize;
        let bytes = r.bytes(len)?;
        reference.push(
            std::str::from_utf8(bytes)
                .map_err(|_| WireError::BadUtf8)?
                .to_owned(),
        );
    }
    let flags = r.u8()?;
    if flags & !spec_flags::ALL != 0 {
        return Err(WireError::BadFlags(flags));
    }
    let mut spec = QuerySpec::new(reference)
        .with_stats(flags & spec_flags::WANT_STATS != 0)
        .with_explain(flags & spec_flags::WANT_EXPLAIN != 0)
        .with_timing(flags & spec_flags::WANT_TIMING != 0);
    if flags & spec_flags::HAS_TOP_K != 0 {
        spec = spec.with_top_k(r.u64()? as usize);
    }
    if flags & spec_flags::HAS_FLOOR != 0 {
        let floor = f64::from_bits(r.u64()?);
        spec = spec.with_floor(floor).map_err(WireError::InvalidSpec)?;
    }
    if flags & spec_flags::HAS_DEADLINE != 0 {
        spec = spec.with_deadline(Duration::from_micros(r.u64()?));
    }
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(spec)
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

    fn u64(&mut self) -> Result<u64, WireError> {
        let bytes = self.bytes(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
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

    fn spec_roundtrip(spec: &QuerySpec) {
        let mut buf = Vec::new();
        encode_query_spec(spec, &mut buf);
        assert_eq!(&decode_query_spec(&buf).expect("round-trip"), spec);
    }

    #[test]
    fn query_spec_roundtrips_across_field_combinations() {
        let base = QuerySpec::new(vec!["héllo wörld".into(), String::new(), "a b c".into()]);
        spec_roundtrip(&base);
        spec_roundtrip(&base.clone().with_top_k(0));
        spec_roundtrip(&base.clone().with_top_k(usize::MAX));
        spec_roundtrip(&base.clone().with_floor(0.0).unwrap());
        spec_roundtrip(&base.clone().with_floor(1.0).unwrap());
        spec_roundtrip(&base.clone().with_deadline(Duration::ZERO));
        spec_roundtrip(&base.clone().with_deadline(Duration::from_micros(123_456)));
        spec_roundtrip(&base.clone().with_stats(false).with_explain(true));
        spec_roundtrip(&base.clone().with_timing(true));
        spec_roundtrip(
            &base
                .with_top_k(7)
                .with_floor(0.125)
                .unwrap()
                .with_deadline(Duration::from_millis(50))
                .with_stats(false)
                .with_explain(true)
                .with_timing(true),
        );
        spec_roundtrip(&QuerySpec::new(Vec::new()));
    }

    #[test]
    fn query_spec_every_truncation_is_an_error_never_a_panic() {
        let spec = QuerySpec::new(vec!["some words".into(), "more".into()])
            .with_top_k(3)
            .with_floor(0.5)
            .unwrap()
            .with_deadline(Duration::from_millis(10));
        let mut buf = Vec::new();
        encode_query_spec(&spec, &mut buf);
        for cut in 0..buf.len() {
            assert!(decode_query_spec(&buf[..cut]).is_err(), "cut at {cut}");
        }
        buf.push(0);
        assert_eq!(
            decode_query_spec(&buf).unwrap_err(),
            WireError::TrailingBytes(1)
        );
    }

    #[test]
    fn query_spec_unknown_version_and_flags_rejected_by_name() {
        let mut buf = Vec::new();
        encode_query_spec(&QuerySpec::new(vec!["a".into()]), &mut buf);
        let good = buf.clone();
        buf[0] = 9;
        assert_eq!(
            decode_query_spec(&buf).unwrap_err(),
            WireError::BadVersion(9)
        );
        // The flags byte is the last one for a bare spec; set an
        // undefined bit.
        let mut buf = good;
        *buf.last_mut().unwrap() |= 1 << 7;
        assert!(matches!(
            decode_query_spec(&buf).unwrap_err(),
            WireError::BadFlags(_)
        ));
    }

    #[test]
    fn query_spec_decode_validates_the_floor() {
        // Hand-craft a payload whose floor bits are out of range: the
        // decoder must route it through the validated constructor.
        for bad in [1.5f64, -0.1, f64::NAN, f64::INFINITY] {
            let mut buf = vec![QUERY_SPEC_WIRE_VERSION];
            put_u32(&mut buf, 0); // no reference elements
            buf.push(super::spec_flags::HAS_FLOOR | super::spec_flags::WANT_STATS);
            buf.extend_from_slice(&bad.to_bits().to_le_bytes());
            assert!(
                matches!(
                    decode_query_spec(&buf).unwrap_err(),
                    WireError::InvalidSpec(ConfigError::FloorOutOfRange(_))
                ),
                "{bad}"
            );
        }
    }
}
