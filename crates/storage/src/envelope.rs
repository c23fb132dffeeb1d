//! The one envelope around every byte the system persists or ships:
//! the WAL, the snapshot, the catalog manifest and the replication
//! stream are payload codecs over it, and their docs give only their
//! own fields. All integers are little-endian:
//!
//! ```text
//! header := magic [u8; 4] | version u32          8 bytes, first in a file
//! sealed := header | fields… | crc32 u32         CRC over every byte before it
//! frame  := len u32 | crc32(body) u32 | body     len counts the body
//! ```
//!
//! WAL segments (`SMWL` v2) are a header, fields and frames; snapshots
//! (`SMSS` v3), manifests (`SMCT` v2) and replication handshakes
//! (`SMRS` v2) are sealed; the primary answers a handshake with frames.
//! Readers check the magic, then the version, and only then a CRC or a
//! length, so other versions are refused by name, never as a checksum
//! mismatch; any change to a format's bytes bumps its version.

use std::fmt;
use std::io::{self, Read};

use crate::crc32::crc32;

/// Bytes of a [`Header`].
pub const HEADER_LEN: usize = 8;

/// Why bytes failed the envelope; each format wraps it in its own error.
#[derive(Debug)]
pub enum EnvelopeError {
    /// The bytes end inside the named part.
    Truncated(&'static str),
    /// The first four bytes are not the format's magic.
    BadMagic([u8; 4]),
    /// A version this build does not read: the one found, the one read.
    UnknownVersion(u32, u32),
    /// A seal or a frame whose CRC disagrees with its bytes.
    CrcMismatch,
    /// A frame's length above the reader's cap: the length, the cap.
    TooLong(u32, u32),
    /// The stream failed underneath a frame.
    Io(io::Error),
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated(part) => write!(f, "truncated {part}"),
            Self::BadMagic(found) => write!(f, "bad magic {found:02x?}"),
            Self::UnknownVersion(found, reads) => write!(
                f,
                "unknown format version {found} (this build reads version {reads})"
            ),
            Self::CrcMismatch => write!(f, "CRC mismatch"),
            Self::TooLong(len, cap) => write!(f, "frame of {len} bytes exceeds the {cap}-byte cap"),
            Self::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// A format's magic and the version this build writes and reads.
#[derive(Debug, Clone, Copy)]
pub struct Header {
    magic: [u8; 4],
    pub(crate) version: u32,
}

impl Header {
    /// The header of format `magic` at `version`.
    pub const fn new(magic: [u8; 4], version: u32) -> Self {
        Self { magic, version }
    }

    /// A buffer of `capacity` bytes that begins with the header.
    pub fn begin(&self, capacity: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(capacity);
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&self.version.to_le_bytes());
        out
    }

    /// Checks the magic, then the version, at the start of `bytes`;
    /// returns the bytes after the header.
    pub fn check<'a>(&self, bytes: &'a [u8]) -> Result<&'a [u8], EnvelopeError> {
        let short = || EnvelopeError::Truncated("header");
        let (magic, rest) = bytes.split_first_chunk::<4>().ok_or_else(short)?;
        if *magic != self.magic {
            return Err(EnvelopeError::BadMagic(*magic));
        }
        let (version, rest) = rest.split_first_chunk::<4>().ok_or_else(short)?;
        let found = u32::from_le_bytes(*version);
        if found == self.version {
            return Ok(rest);
        }
        // Versions stay below 256. The manifest and the handshake wrote
        // version 1 as one byte, now the low byte under the next field.
        let legacy = found > 0xFF && found & 0xFF != self.version;
        let named = if legacy { found & 0xFF } else { found };
        Err(EnvelopeError::UnknownVersion(named, self.version))
    }

    /// Checks sealed bytes — the header, then the trailing CRC-32 —
    /// and returns the fields between the two.
    pub fn open<'a>(&self, bytes: &'a [u8]) -> Result<&'a [u8], EnvelopeError> {
        self.check(bytes)?;
        let short = || EnvelopeError::Truncated("seal");
        let (content, crc) = bytes.split_last_chunk::<4>().ok_or_else(short)?;
        check_crc(content, u32::from_le_bytes(*crc))?;
        content.get(HEADER_LEN..).ok_or_else(short)
    }
}

fn check_crc(bytes: &[u8], stored: u32) -> Result<(), EnvelopeError> {
    match crc32(bytes) == stored {
        true => Ok(()),
        false => Err(EnvelopeError::CrcMismatch),
    }
}

/// Appends the CRC-32 of every byte of `out` to it.
pub fn seal(out: &mut Vec<u8>) {
    let crc = crc32(out);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Appends one frame to `out`, its body what `body` appends.
pub fn push_frame(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; 8]);
    body(out);
    let len = u32::try_from(out.len() - at - 8).expect("a frame body stays under 4 GiB");
    let crc = crc32(&out[at + 8..]);
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    out[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
}

/// A frame's head: the body's length and its CRC.
fn frame_head(head: &[u8; 8]) -> (u32, u32) {
    let word = |at: usize| u32::from_le_bytes(head[at..at + 4].try_into().expect("4 bytes"));
    (word(0), word(4))
}

/// Walks the frames of `bytes` up to the first torn one — a short
/// head, a length past the end, a CRC mismatch — as recovery does to
/// find a WAL's torn tail. Returns each frame's CRC-checked body in
/// order, the bytes those frames span (the valid prefix), and the torn
/// frame, if the walk stopped short of the end.
pub fn walk_frames(bytes: &[u8]) -> (Vec<&[u8]>, usize, Option<EnvelopeError>) {
    let (mut bodies, mut pos) = (Vec::new(), 0);
    let torn = loop {
        let Some((head, rest)) = bytes[pos..].split_first_chunk() else {
            let ended = pos == bytes.len();
            break (!ended).then_some(EnvelopeError::Truncated("frame head"));
        };
        let (len, crc) = frame_head(head);
        let Some(body) = rest.get(..len as usize) else {
            break Some(EnvelopeError::Truncated("frame body"));
        };
        if let Err(e) = check_crc(body, crc) {
            break Some(e);
        }
        bodies.push(body);
        pos += 8 + body.len();
    };
    (bodies, pos, torn)
}

/// Reads one frame's body from `io`. `Ok(None)` is the stream's clean
/// end, before any byte of a frame; a length above `cap` is refused
/// before the body is allocated.
pub fn read_frame(io: &mut impl Read, cap: u32) -> Result<Option<Vec<u8>>, EnvelopeError> {
    let mut head = [0u8; 8];
    let mut got = 0;
    while got < head.len() {
        match io.read(&mut head[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(EnvelopeError::Truncated("frame head")),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(EnvelopeError::Io(e)),
        }
    }
    let (len, crc) = frame_head(&head);
    if len > cap {
        return Err(EnvelopeError::TooLong(len, cap));
    }
    let mut body = vec![0u8; len as usize];
    io.read_exact(&mut body).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => EnvelopeError::Truncated("frame body"),
        _ => EnvelopeError::Io(e),
    })?;
    check_crc(&body, crc)?;
    Ok(Some(body))
}
