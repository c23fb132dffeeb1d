//! Hardening tests for `silkmoth_collection::codec`: the binary corpus
//! format must round-trip exactly (golden-checked on the paper example)
//! and must survive hostile bytes — truncations, corrupted headers,
//! absurd declared lengths — with an `Err`, never a panic or a
//! pathological allocation.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silkmoth_collection::codec::{decode, decode_interned, encode, CodecError};
use silkmoth_collection::{paper_example, Collection, Tokenization};

/// Golden round-trip on the paper's Table 2 example: the header bytes
/// are pinned (format stability), and decoding reproduces the exact
/// collection — sets, dictionary, and tokenization.
#[test]
fn golden_roundtrip_paper_example() {
    let (c, _) = paper_example::table2();
    let bytes = encode(&c);

    // Pinned header: magic, whitespace tag, q = 0, n_texts = 12, then
    // the first text; the sets follow the texts.
    assert_eq!(&bytes[..4], b"SMC2");
    assert_eq!(bytes[4], 0, "whitespace tokenization tag");
    assert_eq!(&bytes[5..9], &[0, 0, 0, 0], "q is zero for whitespace");
    assert_eq!(&bytes[9..17], &12u64.to_le_bytes(), "Table 2 has 12 texts");
    assert_eq!(&bytes[17..21], &14u32.to_le_bytes());
    assert_eq!(&bytes[21..35], b"t2 t3 t5 t6 t7");
    let sets = sets_offset(&bytes);
    assert_eq!(
        &bytes[sets..sets + 8],
        &4u64.to_le_bytes(),
        "Table 2 has 4 sets"
    );
    assert_eq!(
        &bytes[sets + 8..sets + 24],
        &[3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0]
    );

    let back = decode(&bytes).unwrap();
    assert_eq!(back.len(), c.len());
    assert_eq!(back.tokenization(), c.tokenization());
    assert_eq!(back.dict().len(), c.dict().len());
    for (a, b) in c.sets().iter().zip(back.sets()) {
        assert_eq!(a, b);
    }
    // Encoding the decoded collection is a byte-level fixpoint.
    assert_eq!(encode(&back), bytes);
}

/// Where `n_sets` sits: past the header and every text.
fn sets_offset(bytes: &[u8]) -> usize {
    let (texts, _, _) = decode_interned(bytes).unwrap();
    17 + texts.iter().map(|t| 4 + t.len()).sum::<usize>()
}

/// Every truncation of a valid corpus is `Err(Truncated)` or
/// `Err(BadMagic)` — never a panic, never an `Ok`.
#[test]
fn every_truncation_is_an_error() {
    let (c, _) = paper_example::table2();
    let bytes = encode(&c);
    for cut in 0..bytes.len() {
        match decode(&bytes[..cut]) {
            Err(CodecError::Truncated) | Err(CodecError::BadMagic) => {}
            other => panic!("cut at {cut}: expected truncation error, got {other:?}"),
        }
    }
    assert!(decode(&bytes).is_ok(), "the untruncated corpus decodes");
}

/// A corrupted header declaring astronomically many texts or sets (or
/// elements, or absurd string lengths) must fail fast: every declared
/// count is checked against the bytes left before anything is
/// allocated for it, so this cannot trigger a giant allocation before
/// the `Truncated` error.
#[test]
fn absurd_declared_lengths_fail_without_allocating() {
    let (c, _) = paper_example::table2();
    let good = encode(&c);
    let sets = sets_offset(&good);

    // n_texts = 2^32 and u64::MAX.
    for absurd in [1u64 << 32, u64::MAX] {
        let mut b = good.to_vec();
        b[9..17].copy_from_slice(&absurd.to_le_bytes());
        assert_eq!(decode(&b).unwrap_err(), CodecError::Truncated);
    }

    // First text's byte length = u32::MAX.
    let mut b = good.to_vec();
    b[17..21].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(decode(&b).unwrap_err(), CodecError::Truncated);

    // n_sets = u64::MAX.
    let mut b = good.to_vec();
    b[sets..sets + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert_eq!(decode(&b).unwrap_err(), CodecError::Truncated);

    // First set's n_elems = u32::MAX.
    let mut b = good.to_vec();
    b[sets + 8..sets + 12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(decode(&b).unwrap_err(), CodecError::Truncated);

    // A text index past the 12 texts.
    let mut b = good.to_vec();
    b[sets + 12..sets + 16].copy_from_slice(&12u32.to_le_bytes());
    assert_eq!(decode(&b).unwrap_err(), CodecError::BadIndex(12));

    // A minimal hostile document: valid header, huge count, no payload.
    let mut tiny = Vec::new();
    tiny.extend_from_slice(b"SMC2");
    tiny.push(0);
    tiny.extend_from_slice(&0u32.to_le_bytes());
    tiny.extend_from_slice(&u64::MAX.to_le_bytes());
    assert_eq!(decode(&tiny).unwrap_err(), CodecError::Truncated);
}

/// A corrupted q — zero or absurdly large — must be rejected up front:
/// decoding replays the build, whose q-gram padding is `O(q)` per
/// element (a 4-billion q would demand gigabytes, and `q = 0` panics in
/// the tokenizer).
#[test]
fn hostile_q_values_rejected() {
    let c = Collection::build(&[vec!["abcd"]], Tokenization::QGram { q: 2 });
    let good = encode(&c).to_vec();
    for bad_q in [0u32, 65, u32::MAX] {
        let mut b = good.clone();
        b[5..9].copy_from_slice(&bad_q.to_le_bytes());
        assert_eq!(
            decode(&b).unwrap_err(),
            CodecError::BadQ(bad_q as usize),
            "q = {bad_q}"
        );
    }
    // The cap itself is fine.
    let c64 = Collection::build(&[vec!["abcd"]], Tokenization::QGram { q: 64 });
    assert!(decode(&encode(&c64)).is_ok());
}

#[test]
fn non_utf8_element_bytes_rejected() {
    let c = Collection::build(&[vec!["abc"]], Tokenization::Whitespace);
    let mut b = encode(&c).to_vec();
    assert_eq!(&b[21..24], b"abc");
    b[21] = 0xff;
    assert_eq!(decode(&b).unwrap_err(), CodecError::BadUtf8);
}

/// Encoding skips tombstoned sets: the round-trip of a mutated
/// collection is its compacted form.
#[test]
fn encode_skips_tombstones_and_roundtrips_to_the_compacted_form() {
    let raw = vec![
        vec!["a b".to_string()],
        vec!["c d".to_string()],
        vec!["e f".to_string()],
    ];
    let mut c = Collection::build(&raw, Tokenization::Whitespace);
    c.append_sets(&[vec!["g h".to_string()]]);
    c.remove_sets(&[1]).unwrap();
    let bytes = encode(&c);

    let back = decode(&bytes).unwrap();
    assert_eq!(back.len(), 3, "live sets only");

    let mut compacted = c.clone();
    compacted.compact();
    assert_eq!(compacted.len(), back.len());
    for (a, b) in compacted.sets().iter().zip(back.sets()) {
        assert_eq!(a, b);
    }
    assert_eq!(
        encode(&compacted),
        bytes,
        "compacting first changes nothing"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Random single-byte corruptions (and random tail garbage) of a
    // valid corpus never panic: they decode, or they fail with a named
    // error.
    #[test]
    fn random_corruptions_never_panic(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let n = rng.random_range(0..6usize);
        let raw: Vec<Vec<String>> = (0..n)
            .map(|_| {
                let elems = rng.random_range(0..3usize);
                (0..elems)
                    .map(|_| {
                        let len = rng.random_range(0..6usize);
                        (0..len)
                            .map(|_| char::from(b'a' + rng.random_range(0..6u8)))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let tokenization = if rng.random() {
            Tokenization::Whitespace
        } else {
            Tokenization::QGram { q: rng.random_range(1..4usize) }
        };
        let bytes = encode(&Collection::build(&raw, tokenization)).to_vec();

        for _ in 0..16 {
            let mut bad = bytes.clone();
            match rng.random_range(0..3u32) {
                0 if !bad.is_empty() => {
                    let i = rng.random_range(0..bad.len());
                    bad[i] = bad[i].wrapping_add(rng.random_range(1..=255u8));
                }
                1 => bad.truncate(rng.random_range(0..=bad.len())),
                _ => bad.extend((0..rng.random_range(1..8usize)).map(|_| rng.random_range(0..=255u8) as u8)),
            }
            let _ = decode(&bad); // must not panic; Ok or Err both fine
        }
    }

    // Arbitrary garbage buffers never panic either.
    #[test]
    fn garbage_buffers_never_panic(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let n = rng.random_range(0..64usize);
        let mut buf: Vec<u8> = (0..n).map(|_| rng.random_range(0..=255u8) as u8).collect();
        let _ = decode(&buf);
        // Same with a valid magic stapled on, to reach the deeper paths.
        if buf.len() >= 4 {
            buf[..4].copy_from_slice(b"SMC2");
            let _ = decode(&buf);
        }
    }
}
