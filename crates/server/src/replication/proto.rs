//! Replication wire framing: the follower handshake and the
//! primary→follower frames, codecs over the storage layer's
//! [envelope](silkmoth_storage::envelope); the parent module's docs
//! give the fields. A frame's tag leads its body, so the frame's CRC
//! covers it.

use super::ReplicaError;
use silkmoth_storage::envelope::{self, push_frame, seal, Header, HEADER_LEN};
use std::io::{Read, Write};

/// "SilkMoth Replication Stream": any change to the handshake or frame
/// layout bumps the version.
const HANDSHAKE_HEADER: Header = Header::new(*b"SMRS", 2);

/// Handshake length: header 8 + epoch 8 + applied 8 + seal 4.
const HANDSHAKE_LEN: usize = HEADER_LEN + 8 + 8 + 4;

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
    /// Appends the frame's body: its tag, its u64 fields, its bytes.
    fn put_body(&self, out: &mut Vec<u8>) {
        let (tag, words, bytes): (u8, &[u64], &[u8]) = match self {
            Self::Error(msg) => (TAG_ERROR, &[], msg.as_bytes()),
            Self::Heartbeat { committed_seq } => (TAG_HEARTBEAT, &[*committed_seq], &[]),
            Self::Record { seq, payload } => (TAG_RECORD, &[*seq], payload),
            Self::Snapshot {
                epoch,
                seq,
                snapshot,
            } => (TAG_SNAPSHOT, &[*epoch, *seq], snapshot),
        };
        out.push(tag);
        for word in words {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.extend_from_slice(bytes);
    }
}

fn u64_at(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

/// Writes the follower handshake.
pub(crate) fn write_handshake(io: &mut impl Write, hello: &Handshake) -> Result<(), ReplicaError> {
    let mut buf = HANDSHAKE_HEADER.begin(HANDSHAKE_LEN);
    buf.extend_from_slice(&hello.epoch.to_le_bytes());
    buf.extend_from_slice(&hello.applied_seq.to_le_bytes());
    seal(&mut buf);
    io.write_all(&buf)
        .map_err(ReplicaError::io("write handshake"))?;
    io.flush().map_err(ReplicaError::io("flush handshake"))
}

/// Reads and validates a follower handshake. Magic, version, and CRC
/// failures are all named `Frame` errors — the primary answers them
/// with an [`Frame::Error`] before closing. The header is checked
/// before the rest is read: a handshake of another version may be
/// shorter.
pub(crate) fn read_handshake(io: &mut impl Read) -> Result<Handshake, ReplicaError> {
    let mut buf = [0u8; HANDSHAKE_LEN];
    let read = || ReplicaError::io("read handshake");
    io.read_exact(&mut buf[..HEADER_LEN]).map_err(read())?;
    HANDSHAKE_HEADER.check(&buf)?;
    io.read_exact(&mut buf[HEADER_LEN..]).map_err(read())?;
    let fields = HANDSHAKE_HEADER.open(&buf)?;
    Ok(Handshake {
        epoch: u64_at(fields, 0),
        applied_seq: u64_at(fields, 8),
    })
}

/// Writes one frame in one write.
pub fn write_frame(io: &mut impl Write, frame: &Frame) -> Result<(), ReplicaError> {
    let mut buf = Vec::new();
    push_frame(&mut buf, |body| frame.put_body(body));
    io.write_all(&buf)
        .map_err(ReplicaError::io("write frame"))?;
    io.flush().map_err(ReplicaError::io("flush frame"))
}

/// Reads one frame, rejecting bodies longer than `max_body_len` before
/// allocating. `Ok(None)` is the stream's clean end, at a frame
/// boundary; parse failures are named `Frame` errors, a torn frame
/// included.
pub(crate) fn read_frame(
    io: &mut impl Read,
    max_body_len: u32,
) -> Result<Option<Frame>, ReplicaError> {
    let body = envelope::read_frame(io, max_body_len)?;
    body.map(decode_body).transpose()
}

fn decode_body(mut body: Vec<u8>) -> Result<Frame, ReplicaError> {
    let bad = |why: String| Err(ReplicaError::Frame(why));
    let (tag, fields) = match body.split_first() {
        Some((&tag, fields)) => (tag, fields.len()),
        None => return bad("frame body holds no tag".to_string()),
    };
    // The bytes of the u64 fields ahead of the tag's trailing bytes.
    let header = match tag {
        TAG_ERROR => 0,
        TAG_HEARTBEAT | TAG_RECORD => 8,
        TAG_SNAPSHOT => 16,
        _ => return bad(format!("unknown frame tag {tag}")),
    };
    if fields < header || (tag == TAG_HEARTBEAT && fields != header) {
        return bad(format!(
            "frame tag {tag} holds {fields} bytes, not its {header}-byte header"
        ));
    }
    let word = |i: usize| u64_at(&body, 1 + 8 * i);
    Ok(match tag {
        TAG_HEARTBEAT => Frame::Heartbeat {
            committed_seq: word(0),
        },
        TAG_RECORD => Frame::Record {
            seq: word(0),
            payload: body.split_off(9),
        },
        TAG_SNAPSHOT => Frame::Snapshot {
            epoch: word(0),
            seq: word(1),
            snapshot: body.split_off(17),
        },
        _ => match String::from_utf8(body.split_off(1)) {
            Ok(message) => Frame::Error(message),
            Err(_) => return bad("error frame message is not UTF-8".to_string()),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(frame: Frame) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let mut io = Cursor::new(&buf);
        assert_eq!(read_frame(&mut io, 1 << 20).unwrap(), Some(frame));
        assert_eq!(read_frame(&mut io, 1 << 20).unwrap(), None);
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

    /// A version-1 follower's 25-byte handshake — a one-byte version,
    /// epoch, applied seq, CRC — is refused by its version number.
    #[test]
    fn a_version_1_handshake_is_refused_by_name() {
        let mut v1 = b"SMRS".to_vec();
        v1.push(1);
        v1.extend_from_slice(&3u64.to_le_bytes());
        v1.extend_from_slice(&77u64.to_le_bytes());
        seal(&mut v1);
        assert_eq!(v1.len(), 25);
        let err = read_handshake(&mut Cursor::new(&v1)).unwrap_err();
        assert!(err.to_string().contains("version 1 "), "{err}");
    }
}
