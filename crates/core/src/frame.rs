//! The one on-disk codec (DESIGN.md §5g "On-disk formats"): everything
//! the WAL, the spill tier and snapshots share about bytes on disk.
//!
//! - **Sealing.** A sealed byte string is `body ‖ XXH64(body, seed)` —
//!   [`seal`] appends the trailer, [`open`] verifies it and hands back
//!   the body, [`trailer`] reads it without hashing. A spill frame is a
//!   unit body sealed under seed 0; a WAL record is a `u32` length
//!   followed by `lsn ‖ entry` sealed under the log's own seed, so
//!   neither can verify as the other.
//! - **Fields.** Integers are little-endian; a string or byte field is
//!   a `u32` length and the bytes ([`put_bytes`], [`Reader`]). A count
//!   read from disk is bounded by the bytes left ([`Reader::count`])
//!   before anything is allocated for it.
//! - **Publishing.** [`publish`] makes a file appear whole or not at
//!   all: write `<file>.tmp`, flush it, rename it into place, flush the
//!   directory.
//! - **Names.** [`sanitize`] turns a unit name into one path component.

use godiva_platform::Storage;
use std::io;

/// Append the XXH64 (under `seed`) of `out[from..]` to `out`.
pub(crate) fn seal(out: &mut Vec<u8>, from: usize, seed: u64) {
    let sum = xxh64(&out[from..], seed);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// The trailing checksum of a sealed byte string, unverified.
pub(crate) fn trailer(sealed: &[u8]) -> Option<u64> {
    sealed.last_chunk().map(|sum| u64::from_le_bytes(*sum))
}

/// Verify a sealed byte string — the one checksum pass a load makes —
/// and return its body.
pub(crate) fn open(sealed: &[u8], seed: u64) -> Option<&[u8]> {
    let (body, sum) = sealed.split_last_chunk()?;
    (u64::from_le_bytes(*sum) == xxh64(body, seed)).then_some(body)
}

/// Crash-atomic publish of `bytes` as `<dir>/<file>` (`"."` is the
/// storage's root): a crash leaves the old file, no file, or the complete
/// new one, never a truncated one. The `.tmp` is deleted on failure.
pub(crate) fn publish(
    storage: &dyn Storage,
    dir: &str,
    file: &str,
    bytes: &[u8],
) -> io::Result<()> {
    let path = format!("{dir}/{file}");
    let tmp = format!("{path}.tmp");
    let published = storage
        .write(&tmp, bytes)
        .and_then(|()| storage.sync_file(&tmp))
        .and_then(|()| {
            crate::crash::crash_point("spill_publish");
            storage.rename(&tmp, &path)
        })
        .and_then(|()| {
            crate::crash::crash_point("spill_rename");
            storage.sync_dir(dir)
        });
    if published.is_err() {
        let _ = storage.delete(&tmp);
    }
    published
}

/// A file name must be a single path component: percent-encode every
/// byte outside `[A-Za-z0-9._-]` (and `.`/`..` themselves).
pub(crate) fn sanitize(unit: &str) -> String {
    let mut out = String::with_capacity(unit.len());
    for b in unit.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'.' | b'_' | b'-' => out.push(b as char),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    if out == "." || out == ".." {
        out = out.replace('.', "%2E");
    }
    out
}

pub(crate) fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// Bounds-checked cursor over an opened frame or WAL record body.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Whether the cursor consumed the whole buffer.
    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let out = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(out)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    pub(crate) fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    pub(crate) fn string(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?.to_vec()).ok()
    }

    /// A `u32` item count, refused when the bytes left cannot hold that
    /// many items of at least `min_bytes_per_item` each — so a hostile
    /// count never sizes an allocation.
    pub(crate) fn count(&mut self, min_bytes_per_item: usize) -> Option<usize> {
        let n = self.u32()? as usize;
        let left = self.buf.len() - self.pos;
        (n.checked_mul(min_bytes_per_item)? <= left).then_some(n)
    }

    /// The bytes of a counted run of [`Reader::bytes`] fields — a key as
    /// the index stores it.
    pub(crate) fn counted_fields(&mut self) -> Option<&'a [u8]> {
        let start = self.pos;
        for _ in 0..self.count(4)? {
            self.bytes()?;
        }
        Some(&self.buf[start + 4..self.pos])
    }
}

// ---------------------------------------------------------------------------
// XXH64 (from scratch)
// ---------------------------------------------------------------------------

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

fn read_u64(data: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(data[i..i + 8].try_into().expect("8 bytes"))
}

fn read_u32(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(data[i..i + 4].try_into().expect("4 bytes"))
}

fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

/// The reference XXH64 hash of `data` under `seed`.
pub(crate) fn xxh64(data: &[u8], seed: u64) -> u64 {
    let mut i = 0usize;
    let mut h = if data.len() >= 32 {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);
        while i + 32 <= data.len() {
            v1 = round(v1, read_u64(data, i));
            v2 = round(v2, read_u64(data, i + 8));
            v3 = round(v3, read_u64(data, i + 16));
            v4 = round(v4, read_u64(data, i + 24));
            i += 32;
        }
        let mut h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        merge_round(h, v4)
    } else {
        seed.wrapping_add(PRIME64_5)
    };
    h = h.wrapping_add(data.len() as u64);
    while i + 8 <= data.len() {
        h ^= round(0, read_u64(data, i));
        h = h
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        i += 8;
    }
    if i + 4 <= data.len() {
        h ^= u64::from(read_u32(data, i)).wrapping_mul(PRIME64_1);
        h = h
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        i += 4;
    }
    while i < data.len() {
        h ^= u64::from(data[i]).wrapping_mul(PRIME64_5);
        h = h.rotate_left(11).wrapping_mul(PRIME64_1);
        i += 1;
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^= h >> 32;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vectors from the xxHash specification (XXH64, seed 0
    /// and a non-zero seed).
    #[test]
    fn xxh64_reference_vectors() {
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition", 0),
            0xFBCE_A83C_8A37_8BF1
        );
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition", 0xDEAD_BEEF),
            0x1366_D5F6_09C4_4B7D
        );
    }

    #[test]
    fn xxh64_long_input_exercises_stripe_loop() {
        let data: Vec<u8> = (0..1000u32).flat_map(|x| x.to_le_bytes()).collect();
        // Self-consistency: one flipped byte changes the hash.
        let h = xxh64(&data, 0);
        let mut bad = data.clone();
        bad[512] ^= 0xFF;
        assert_ne!(h, xxh64(&bad, 0));
        assert_eq!(h, xxh64(&data, 0));
    }

    #[test]
    fn sanitize_is_single_component() {
        assert_eq!(sanitize("snap_0001"), "snap_0001");
        assert_eq!(sanitize("snap/0001.sdf"), "snap%2F0001.sdf");
        assert_eq!(sanitize(".."), "%2E%2E");
        assert_eq!(sanitize("a b"), "a%20b");
        assert_eq!(sanitize("ünï/x"), "%C3%BCn%C3%AF%2Fx");
    }

    #[test]
    fn seal_open_trailer_agree_and_reject_damage() {
        let mut out = b"skip".to_vec();
        out.extend_from_slice(b"body bytes");
        seal(&mut out, 4, 7);
        let sealed = &out[4..];
        assert_eq!(trailer(sealed), Some(xxh64(b"body bytes", 7)));
        assert_eq!(open(sealed, 7), Some(&b"body bytes"[..]));
        assert_eq!(open(sealed, 8), None, "wrong seed");
        for cut in 0..sealed.len() {
            assert_eq!(open(&sealed[..cut], 7), None, "cut at {cut}");
        }
        assert_eq!(trailer(&sealed[..7]), None);
        // The empty body seals and opens too.
        let mut empty = Vec::new();
        seal(&mut empty, 0, 0);
        assert_eq!(open(&empty, 0), Some(&[][..]));
    }

    #[test]
    fn count_is_bounded_by_the_bytes_left() {
        let mut buf = 3u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 12]);
        assert_eq!(Reader::new(&buf).count(4), Some(3));
        assert_eq!(Reader::new(&buf).count(5), None);
        assert_eq!(Reader::new(&buf).count(0), Some(3));
        let huge = u32::MAX.to_le_bytes();
        assert_eq!(Reader::new(&huge).count(1), None);
        assert_eq!(Reader::new(&huge[..3]).count(1), None);
    }
}
