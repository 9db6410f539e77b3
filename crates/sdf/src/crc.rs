//! CRC-32 (IEEE 802.3 polynomial), implemented from scratch.
//!
//! SDF stores a CRC-32 per dataset and verifies it on every read. Besides
//! integrity, the verification is honest CPU work performed on the reading
//! thread — a small piece of the "interpretation cost" that makes
//! scientific formats slower to ingest than plain binary, and part of what
//! the GODIVA background I/O thread spends CPU on.

/// Reflected CRC-32 polynomial (same as zlib/PNG).
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables, built at compile time. `TABLES[0]` is the classic
/// bytewise table; `TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, which lets [`Crc32::update`] fold eight input bytes with
/// eight independent lookups instead of a serial chain of eight.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// Streaming CRC-32 state.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh checksum state.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold `bytes` into the checksum: eight bytes per step, then a
    /// bytewise tail of at most seven. Chunk boundaries between calls
    /// may fall anywhere.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut c = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bit-at-a-time reference the table-driven code is checked against.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // 79 bytes (values from zlib): nine 8-byte steps and a 7-byte
        // tail; the sub-slices start off any 8-byte boundary.
        let long =
            b"GODIVA manages the field data buffer addresses rather than the buffer contents.";
        assert_eq!(crc32(long), 0x0A4D_0B22);
        assert_eq!(crc32(&long[1..]), 0xB970_F29C);
        assert_eq!(crc32(&long[3..]), 0xA651_C898);
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255).cycle().take(10_000).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(37) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(&data));
    }

    #[test]
    fn different_data_different_crc() {
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
        assert_ne!(crc32(b"abc"), crc32(b"abcc"));
    }

    proptest! {
        #[test]
        fn any_chunking_matches_the_bitwise_reference(
            data in prop::collection::vec(any::<u8>(), 0..=4096),
            cuts in prop::collection::vec(any::<usize>(), 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.push(data.len());
            cuts.sort_unstable();
            let mut c = Crc32::new();
            let mut start = 0;
            for end in cuts {
                c.update(&data[start..end]);
                start = end;
            }
            prop_assert_eq!(c.finish(), bitwise(&data));
            prop_assert_eq!(crc32(&data), bitwise(&data));
        }
    }
}
