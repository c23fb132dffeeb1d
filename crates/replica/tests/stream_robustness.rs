//! Exhaustive robustness fuzz of the replication stream framing,
//! mirroring the server crate's `wal_robustness.rs`: every proper
//! prefix (torn stream) and every single-byte flip of a representative
//! handshake and frame stream must produce a *named* error and never a
//! panic — and a flip must never smuggle a divergent frame past the
//! CRC: every frame parsed before the error matches the original.

use silkmoth_replica::{
    read_frame, read_handshake, write_frame, write_handshake, Frame, Handshake,
};
use std::io::Cursor;

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
