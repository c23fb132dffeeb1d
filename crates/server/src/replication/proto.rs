//! Replication wire framing: the follower handshake and the
//! primary→follower frame stream. The parent module's docs give the
//! layout.
//!
//! Every frame's CRC covers the tag byte *and* the body, so a flipped
//! tag is caught like a flipped payload byte; the handshake carries its
//! own CRC over everything before it. Readers reject unknown magic,
//! versions, and tags by name, and cap body lengths so a corrupted
//! length prefix fails fast instead of allocating gigabytes.

use super::ReplicaError;
use silkmoth_storage::crc32;
use std::io::{Read, Write};

/// Current replication protocol version. Any change to the handshake
/// or frame layout bumps this; peers reject other versions by name.
pub(crate) const PROTOCOL_VERSION: u8 = 1;

/// Magic prefix of the follower handshake ("SilkMoth Replication
/// Stream").
const MAGIC: [u8; 4] = *b"SMRS";

/// Handshake length: magic 4 + version 1 + epoch 8 + applied 8 + crc 4.
const HANDSHAKE_LEN: usize = 25;

/// Frame header length: tag 1 + body_len 4 + crc 4.
const FRAME_HEADER_LEN: usize = 9;

const TAG_ERROR: u8 = 0;
const TAG_HEARTBEAT: u8 = 1;
const TAG_RECORD: u8 = 2;
const TAG_SNAPSHOT: u8 = 3;

/// What a follower sends on connect: where it stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Handshake {
    /// The failover epoch the follower's state was applied under.
    pub(crate) epoch: u64,
    /// How many updates the follower has applied (its cursor; it wants
    /// record `applied_seq + 1` next).
    pub(crate) applied_seq: u64,
}

/// One primary→follower message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// The primary is refusing or aborting the session; the message
    /// says why. The connection closes after this.
    Error(String),
    /// Liveness + lag signal: the primary's committed update count.
    Heartbeat {
        /// Total updates committed on the primary.
        committed_seq: u64,
    },
    /// One replicated update: the raw WAL payload of commit `seq`.
    Record {
        /// This record's update sequence number (1-based).
        seq: u64,
        /// The WAL payload (a wire-encoded update).
        payload: Vec<u8>,
    },
    /// Full-state bootstrap for a follower whose cursor cannot be
    /// resumed. Installing it positions the follower at (`seq`,
    /// `epoch`).
    Snapshot {
        /// The primary's failover epoch.
        epoch: u64,
        /// The update count the snapshot captures.
        seq: u64,
        /// The snapshot in the storage snapshot-file format
        /// (self-validating: own magic, version, and CRC).
        snapshot: Vec<u8>,
    },
}

impl Frame {
    fn tag(&self) -> u8 {
        match self {
            Self::Error(_) => TAG_ERROR,
            Self::Heartbeat { .. } => TAG_HEARTBEAT,
            Self::Record { .. } => TAG_RECORD,
            Self::Snapshot { .. } => TAG_SNAPSHOT,
        }
    }

    fn body(&self) -> Vec<u8> {
        match self {
            Self::Error(msg) => msg.as_bytes().to_vec(),
            Self::Heartbeat { committed_seq } => committed_seq.to_le_bytes().to_vec(),
            Self::Record { seq, payload } => {
                let mut body = Vec::with_capacity(8 + payload.len());
                body.extend_from_slice(&seq.to_le_bytes());
                body.extend_from_slice(payload);
                body
            }
            Self::Snapshot {
                epoch,
                seq,
                snapshot,
            } => {
                let mut body = Vec::with_capacity(16 + snapshot.len());
                body.extend_from_slice(&epoch.to_le_bytes());
                body.extend_from_slice(&seq.to_le_bytes());
                body.extend_from_slice(snapshot);
                body
            }
        }
    }
}

fn u64_at(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

/// Writes the follower handshake.
pub(crate) fn write_handshake(io: &mut impl Write, hello: &Handshake) -> Result<(), ReplicaError> {
    let mut buf = Vec::with_capacity(HANDSHAKE_LEN);
    buf.extend_from_slice(&MAGIC);
    buf.push(PROTOCOL_VERSION);
    buf.extend_from_slice(&hello.epoch.to_le_bytes());
    buf.extend_from_slice(&hello.applied_seq.to_le_bytes());
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    io.write_all(&buf)
        .map_err(ReplicaError::io("write handshake"))?;
    io.flush().map_err(ReplicaError::io("flush handshake"))
}

/// Reads and validates a follower handshake. Magic, version, and CRC
/// failures are all named `Frame` errors — the primary answers them
/// with an [`Frame::Error`] before closing.
pub(crate) fn read_handshake(io: &mut impl Read) -> Result<Handshake, ReplicaError> {
    let mut buf = [0u8; HANDSHAKE_LEN];
    read_exact(io, &mut buf, "handshake")?;
    if buf[..4] != MAGIC {
        return Err(ReplicaError::Frame(format!(
            "handshake magic {:02x?} is not {:02x?}",
            &buf[..4],
            MAGIC
        )));
    }
    if buf[4] != PROTOCOL_VERSION {
        return Err(ReplicaError::Frame(format!(
            "unknown replication protocol version {} (this build speaks {PROTOCOL_VERSION})",
            buf[4]
        )));
    }
    let stored = u32::from_le_bytes(buf[21..25].try_into().expect("4 bytes"));
    let actual = crc32(&buf[..21]);
    if stored != actual {
        return Err(ReplicaError::Frame(format!(
            "handshake CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )));
    }
    Ok(Handshake {
        epoch: u64_at(&buf, 5),
        applied_seq: u64_at(&buf, 13),
    })
}

/// Writes one frame.
pub fn write_frame(io: &mut impl Write, frame: &Frame) -> Result<(), ReplicaError> {
    let tag = frame.tag();
    let body = frame.body();
    let mut crc_input = Vec::with_capacity(1 + body.len());
    crc_input.push(tag);
    crc_input.extend_from_slice(&body);
    let crc = crc32(&crc_input);
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[0] = tag;
    header[1..5].copy_from_slice(&(body.len() as u32).to_le_bytes());
    header[5..9].copy_from_slice(&crc.to_le_bytes());
    io.write_all(&header)
        .map_err(ReplicaError::io("write frame header"))?;
    io.write_all(&body)
        .map_err(ReplicaError::io("write frame body"))?;
    io.flush().map_err(ReplicaError::io("flush frame"))
}

/// Reads one frame, rejecting bodies longer than `max_body_len` before
/// allocating. All parse failures are named `Frame` errors; an EOF in
/// the middle of a frame is a named `Io` error (torn stream).
pub(crate) fn read_frame(io: &mut impl Read, max_body_len: u32) -> Result<Frame, ReplicaError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    read_exact(io, &mut header, "frame header")?;
    let tag = header[0];
    let body_len = u32::from_le_bytes(header[1..5].try_into().expect("4 bytes"));
    let stored_crc = u32::from_le_bytes(header[5..9].try_into().expect("4 bytes"));
    if tag > TAG_SNAPSHOT {
        return Err(ReplicaError::Frame(format!("unknown frame tag {tag}")));
    }
    if body_len > max_body_len {
        return Err(ReplicaError::Frame(format!(
            "frame body of {body_len} bytes exceeds the {max_body_len}-byte cap"
        )));
    }
    let mut body = vec![0u8; body_len as usize];
    read_exact(io, &mut body, "frame body")?;
    let mut crc_input = Vec::with_capacity(1 + body.len());
    crc_input.push(tag);
    crc_input.extend_from_slice(&body);
    let actual = crc32(&crc_input);
    if stored_crc != actual {
        return Err(ReplicaError::Frame(format!(
            "frame CRC mismatch on tag {tag}: stored {stored_crc:#010x}, computed {actual:#010x}"
        )));
    }
    decode_body(tag, body)
}

fn decode_body(tag: u8, body: Vec<u8>) -> Result<Frame, ReplicaError> {
    let need = |n: usize| {
        if body.len() < n {
            Err(ReplicaError::Frame(format!(
                "frame tag {tag} body of {} bytes is shorter than its {n}-byte header",
                body.len()
            )))
        } else {
            Ok(())
        }
    };
    match tag {
        TAG_ERROR => match String::from_utf8(body) {
            Ok(msg) => Ok(Frame::Error(msg)),
            Err(_) => Err(ReplicaError::Frame(
                "error frame message is not UTF-8".to_string(),
            )),
        },
        TAG_HEARTBEAT => {
            if body.len() != 8 {
                return Err(ReplicaError::Frame(format!(
                    "heartbeat body is {} bytes, not 8",
                    body.len()
                )));
            }
            Ok(Frame::Heartbeat {
                committed_seq: u64_at(&body, 0),
            })
        }
        TAG_RECORD => {
            need(8)?;
            Ok(Frame::Record {
                seq: u64_at(&body, 0),
                payload: body[8..].to_vec(),
            })
        }
        TAG_SNAPSHOT => {
            need(16)?;
            Ok(Frame::Snapshot {
                epoch: u64_at(&body, 0),
                seq: u64_at(&body, 8),
                snapshot: body[16..].to_vec(),
            })
        }
        _ => unreachable!("tag range checked by read_frame"),
    }
}

fn read_exact(io: &mut impl Read, buf: &mut [u8], what: &str) -> Result<(), ReplicaError> {
    io.read_exact(buf)
        .map_err(ReplicaError::io(format!("read {what}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(frame: Frame) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let got = read_frame(&mut Cursor::new(&buf), 1 << 20).unwrap();
        assert_eq!(got, frame);
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(Frame::Error("nope".to_string()));
        roundtrip(Frame::Heartbeat { committed_seq: 42 });
        roundtrip(Frame::Record {
            seq: 7,
            payload: vec![1, 2, 3],
        });
        roundtrip(Frame::Record {
            seq: u64::MAX,
            payload: Vec::new(),
        });
        roundtrip(Frame::Snapshot {
            epoch: 3,
            seq: 99,
            snapshot: vec![0; 1000],
        });
    }

    #[test]
    fn handshake_roundtrips() {
        let hello = Handshake {
            epoch: 5,
            applied_seq: 1234,
        };
        let mut buf = Vec::new();
        write_handshake(&mut buf, &hello).unwrap();
        assert_eq!(buf.len(), HANDSHAKE_LEN);
        assert_eq!(read_handshake(&mut Cursor::new(&buf)).unwrap(), hello);
    }

    #[test]
    fn unknown_version_rejected_by_name() {
        let mut buf = Vec::new();
        write_handshake(
            &mut buf,
            &Handshake {
                epoch: 0,
                applied_seq: 0,
            },
        )
        .unwrap();
        buf[4] = 9;
        let err = read_handshake(&mut Cursor::new(&buf)).unwrap_err();
        assert!(
            err.to_string().contains("version 9"),
            "error should name the version: {err}"
        );
    }

    #[test]
    fn unknown_tag_rejected_by_name() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Heartbeat { committed_seq: 1 }).unwrap();
        buf[0] = 200;
        let err = read_frame(&mut Cursor::new(&buf), 1 << 20).unwrap_err();
        assert!(
            err.to_string().contains("tag 200"),
            "error should name the tag: {err}"
        );
    }

    #[test]
    fn oversized_body_rejected_before_allocation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Heartbeat { committed_seq: 1 }).unwrap();
        buf[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut Cursor::new(&buf), 1 << 20).unwrap_err();
        assert!(
            err.to_string().contains("cap"),
            "error should mention the cap: {err}"
        );
    }

    #[test]
    fn flipped_tag_caught_by_crc() {
        // Flip heartbeat (1) to record (2): still a known tag, but the
        // CRC covers the tag byte, so the frame is rejected.
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Heartbeat { committed_seq: 1 }).unwrap();
        buf[0] = TAG_RECORD;
        let err = read_frame(&mut Cursor::new(&buf), 1 << 20).unwrap_err();
        assert!(
            err.to_string().contains("CRC"),
            "error should be a CRC mismatch: {err}"
        );
    }

    // Exhaustive robustness fuzz of the framing, mirroring
    // `wal_robustness.rs`: every proper prefix (torn stream) and every
    // single-byte flip of a representative handshake and frame stream
    // must produce a *named* error and never a panic — and a flip must
    // never smuggle a divergent frame past the CRC: every frame parsed
    // before the error matches the original.

    const MAX_BODY: u32 = 1 << 20;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Heartbeat { committed_seq: 7 },
            Frame::Record {
                seq: 8,
                payload: vec![0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42],
            },
            Frame::Snapshot {
                epoch: 2,
                seq: 8,
                snapshot: (0..32u8).collect(),
            },
            Frame::Error("halting".to_string()),
        ]
    }

    fn encode_stream(frames: &[Frame]) -> Vec<u8> {
        let mut buf = Vec::new();
        for frame in frames {
            write_frame(&mut buf, frame).unwrap();
        }
        buf
    }

    /// Parses frames until the stream errors or is exhausted; returns the
    /// frames and the error, if any.
    fn parse_all(bytes: &[u8]) -> (Vec<Frame>, Option<String>) {
        let mut cursor = Cursor::new(bytes);
        let mut frames = Vec::new();
        loop {
            if cursor.position() == bytes.len() as u64 {
                return (frames, None);
            }
            match read_frame(&mut cursor, MAX_BODY) {
                Ok(frame) => frames.push(frame),
                Err(e) => return (frames, Some(e.to_string())),
            }
        }
    }

    #[test]
    fn every_prefix_of_a_frame_stream_fails_cleanly() {
        let original = sample_frames();
        let bytes = encode_stream(&original);
        // A cut exactly between frames is a clean close (EOF at a frame
        // boundary); every other cut is a torn frame and must error.
        let boundaries: Vec<usize> = original
            .iter()
            .scan(0usize, |offset, frame| {
                let mut one = Vec::new();
                write_frame(&mut one, frame).unwrap();
                *offset += one.len();
                Some(*offset)
            })
            .collect();
        for cut in 0..bytes.len() {
            let (frames, err) = parse_all(&bytes[..cut]);
            assert!(
                frames.len() <= original.len(),
                "cut {cut}: more frames than written"
            );
            assert_eq!(
                frames,
                original[..frames.len()],
                "cut {cut}: divergent frame parsed from a truncated stream"
            );
            if cut == 0 || boundaries.contains(&cut) {
                assert!(
                    err.is_none(),
                    "cut {cut} at a frame boundary errored: {err:?}"
                );
            } else {
                let err = err.unwrap_or_else(|| panic!("cut {cut}: truncation swallowed silently"));
                assert!(!err.is_empty(), "cut {cut}: unnamed error");
            }
        }
    }

    #[test]
    fn every_byte_flip_of_a_frame_stream_is_caught() {
        let original = sample_frames();
        let bytes = encode_stream(&original);
        for (at, mask) in (0..bytes.len()).flat_map(|i| [(i, 0xFFu8), (i, 0x01)]) {
            let mut mutated = bytes.clone();
            mutated[at] ^= mask;
            let (frames, err) = parse_all(&mutated);
            let err = err.unwrap_or_else(|| {
                panic!("flip {mask:#04x} at byte {at} produced a clean parse of {frames:?}")
            });
            assert!(!err.is_empty(), "flip at {at}: unnamed error");
            // Nothing divergent sneaks through: frames parsed before the
            // error are exactly the originals.
            assert_eq!(
                frames,
                original[..frames.len()],
                "flip {mask:#04x} at byte {at} let a divergent frame through"
            );
        }
    }

    #[test]
    fn every_prefix_and_flip_of_a_handshake_is_caught() {
        let hello = Handshake {
            epoch: 3,
            applied_seq: 77,
        };
        let mut bytes = Vec::new();
        write_handshake(&mut bytes, &hello).unwrap();

        for cut in 0..bytes.len() {
            let err = read_handshake(&mut Cursor::new(&bytes[..cut]))
                .expect_err("truncated handshake accepted");
            assert!(!err.to_string().is_empty(), "cut {cut}: unnamed error");
        }
        for (at, mask) in (0..bytes.len()).flat_map(|i| [(i, 0xFFu8), (i, 0x01)]) {
            let mut mutated = bytes.clone();
            mutated[at] ^= mask;
            let err = read_handshake(&mut Cursor::new(&mutated)).unwrap_err();
            assert!(
                !err.to_string().is_empty(),
                "flip {mask:#04x} at byte {at}: unnamed error"
            );
        }
    }

    /// Oversized length prefixes are rejected by the cap before any
    /// allocation, for every frame position in the stream.
    #[test]
    fn corrupted_length_prefixes_never_allocate_wild() {
        let original = sample_frames();
        let bytes = encode_stream(&original);
        // Frame headers start at the cumulative offsets of the encoding.
        let mut offset = 0usize;
        for frame in &original {
            let mut single = Vec::new();
            write_frame(&mut single, frame).unwrap();
            let mut mutated = bytes.clone();
            mutated[offset + 1..offset + 5].copy_from_slice(&u32::MAX.to_le_bytes());
            let (frames, err) = parse_all(&mutated);
            assert_eq!(frames, original[..frames.len()]);
            assert!(
                err.expect("oversized length accepted").contains("cap"),
                "length corruption at frame offset {offset} not stopped by the cap"
            );
            offset += single.len();
        }
    }
}
