//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial), sliced by 8: the
//! [envelope](crate::envelope) checksums every frame and sealed file so
//! that torn writes and bit rot surface as named errors. `TABLES[k][b]` is the
//! CRC of byte `b` followed by `k` zero bytes, so one step takes eight
//! independent lookups. The tables are built in a `const` context.

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut i = 256;
    while i < 256 * 8 {
        let (k, b) = (i / 256, i % 256);
        t[k][b] = (t[k - 1][b] >> 8) ^ t[0][(t[k - 1][b] & 0xFF) as usize];
        i += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `data` (initial value all-ones, final xor all-ones — the
/// standard presentation that matches zlib's `crc32(0, data)`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let x = u64::from_le_bytes(w.try_into().expect("8 bytes")) ^ u64::from(crc);
        let b = |k: u32| (x >> (8 * k)) as u8 as usize;
        crc = TABLES[7][b(0)]
            ^ TABLES[6][b(1)]
            ^ TABLES[5][b(2)]
            ^ TABLES[4][b(3)]
            ^ TABLES[3][b(4)]
            ^ TABLES[2][b(5)]
            ^ TABLES[1][b(6)]
            ^ TABLES[0][b(7)];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop over the one-byte table: the reference
    /// the sliced loop must agree with.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_alignment() {
        // A fixed xorshift stream: random bytes, random lengths.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let buf: Vec<u8> = (0..4096 + 8).map(|_| next() as u8).collect();
        for offset in 0..8 {
            for len in (0..64).chain((0..64).map(|_| (next() % 4096) as usize)) {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), bytewise(data), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let want = crc32(data);
        let mut copy = data.to_vec();
        for i in 0..copy.len() {
            for bit in 0..8 {
                copy[i] ^= 1 << bit;
                assert_ne!(crc32(&copy), want, "flip at byte {i} bit {bit}");
                copy[i] ^= 1 << bit;
            }
        }
    }
}
