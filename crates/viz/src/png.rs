//! Minimal PNG output — dependency-free, using *stored* (uncompressed)
//! deflate blocks.
//!
//! PPM keeps the pipeline simple, but a file every image viewer opens is
//! worth having for an adoptable tool. A valid PNG needs only: the
//! 8-byte signature, an IHDR chunk, IDAT chunks containing a zlib stream
//! (we emit stored deflate blocks — legal, just uncompressed), and IEND.
//! Chunk CRCs are the workspace's one CRC-32 ([`godiva_sdf::crc`], the
//! polynomial PNG and SDF share); the zlib Adler-32 is inlined below.

use crate::raster::Framebuffer;
use godiva_platform::Storage;
use godiva_sdf::crc::crc32;
use std::io;

/// Adler-32 checksum (RFC 1950).
fn adler32(data: &[u8]) -> u32 {
    const MOD: u32 = 65_521;
    let mut a: u32 = 1;
    let mut b: u32 = 0;
    for chunk in data.chunks(5552) {
        for &byte in chunk {
            a += byte as u32;
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

fn push_chunk(out: &mut Vec<u8>, kind: &[u8; 4], payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    let start = out.len();
    out.extend_from_slice(kind);
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_be_bytes());
}

/// Zlib-wrap `raw` using stored deflate blocks.
fn zlib_stored(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len() + raw.len() / 65_535 * 5 + 16);
    out.extend_from_slice(&[0x78, 0x01]); // CMF/FLG: 32K window, no dict
    let mut chunks = raw.chunks(65_535).peekable();
    if raw.is_empty() {
        out.extend_from_slice(&[0x01, 0x00, 0x00, 0xFF, 0xFF]); // final empty block
    }
    while let Some(chunk) = chunks.next() {
        let final_block = chunks.peek().is_none();
        out.push(final_block as u8);
        let len = chunk.len() as u16;
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&(!len).to_le_bytes());
        out.extend_from_slice(chunk);
    }
    out.extend_from_slice(&adler32(raw).to_be_bytes());
    out
}

/// Encode `fb` as an 8-bit RGB PNG.
pub fn encode_png(fb: &Framebuffer) -> Vec<u8> {
    let rgb = fb.rgb_bytes();
    // One filter byte (0 = None) per scanline.
    let mut raw = Vec::with_capacity(fb.height * (1 + fb.width * 3));
    for row in rgb.chunks(fb.width * 3) {
        raw.push(0);
        raw.extend_from_slice(row);
    }
    let mut ihdr = Vec::with_capacity(13);
    ihdr.extend_from_slice(&(fb.width as u32).to_be_bytes());
    ihdr.extend_from_slice(&(fb.height as u32).to_be_bytes());
    ihdr.extend_from_slice(&[8, 2, 0, 0, 0]); // 8-bit, truecolour RGB

    let mut out = Vec::new();
    out.extend_from_slice(&[0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A]);
    push_chunk(&mut out, b"IHDR", &ihdr);
    push_chunk(&mut out, b"IDAT", &zlib_stored(&raw));
    push_chunk(&mut out, b"IEND", &[]);
    out
}

/// Write `fb` as a PNG to `path` on `storage`.
pub fn write_png(storage: &dyn Storage, path: &str, fb: &Framebuffer) -> io::Result<()> {
    storage.write(path, &encode_png(fb))
}

#[cfg(test)]
mod tests {
    use super::*;
    use godiva_platform::MemFs;

    #[test]
    fn adler32_vectors() {
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
    }

    /// The chunk CRC covers type + payload and is stored big-endian:
    /// `IEND`'s is the constant every PNG file ends with.
    #[test]
    fn chunk_crc_known_vector() {
        let mut out = Vec::new();
        push_chunk(&mut out, b"IEND", &[]);
        assert_eq!(
            out,
            [0, 0, 0, 0, b'I', b'E', b'N', b'D', 0xAE, 0x42, 0x60, 0x82]
        );
    }

    #[test]
    fn png_structure_is_valid() {
        let fb = Framebuffer::new(19, 7);
        let png = encode_png(&fb);
        assert_eq!(&png[..8], &[0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A]);
        // IHDR directly after the signature, with width/height big-endian.
        assert_eq!(&png[12..16], b"IHDR");
        assert_eq!(u32::from_be_bytes(png[16..20].try_into().unwrap()), 19);
        assert_eq!(u32::from_be_bytes(png[20..24].try_into().unwrap()), 7);
        assert_eq!(&png[png.len() - 8..png.len() - 4], b"IEND");
        // Walk the chunks: lengths + CRCs must be internally consistent.
        let mut pos = 8;
        let mut kinds = Vec::new();
        while pos < png.len() {
            let len = u32::from_be_bytes(png[pos..pos + 4].try_into().unwrap()) as usize;
            let kind = &png[pos + 4..pos + 8];
            kinds.push(kind.to_vec());
            let body = &png[pos + 4..pos + 8 + len];
            let crc = u32::from_be_bytes(png[pos + 8 + len..pos + 12 + len].try_into().unwrap());
            assert_eq!(crc, crc32(body), "bad CRC for {kind:?}");
            pos += 12 + len;
        }
        assert_eq!(pos, png.len());
        assert_eq!(
            kinds,
            vec![b"IHDR".to_vec(), b"IDAT".to_vec(), b"IEND".to_vec()]
        );
    }

    #[test]
    fn zlib_stream_decodes_to_scanlines() {
        // Manually un-store the deflate blocks and verify round trip.
        let fb = Framebuffer::new(300, 2); // > 1 stored block per row set
        let png = encode_png(&fb);
        // Find IDAT payload.
        let idat_pos = png.windows(4).position(|w| w == b"IDAT").unwrap();
        let len = u32::from_be_bytes(png[idat_pos - 4..idat_pos].try_into().unwrap()) as usize;
        let z = &png[idat_pos + 4..idat_pos + 4 + len];
        // Skip the 2-byte zlib header; walk stored blocks.
        let mut pos = 2;
        let mut raw = Vec::new();
        loop {
            let final_block = z[pos] & 1 != 0;
            let blen = u16::from_le_bytes(z[pos + 1..pos + 3].try_into().unwrap()) as usize;
            let nlen = u16::from_le_bytes(z[pos + 3..pos + 5].try_into().unwrap());
            assert_eq!(nlen, !(blen as u16), "NLEN must be ones-complement");
            raw.extend_from_slice(&z[pos + 5..pos + 5 + blen]);
            pos += 5 + blen;
            if final_block {
                break;
            }
        }
        assert_eq!(
            u32::from_be_bytes(z[pos..pos + 4].try_into().unwrap()),
            adler32(&raw)
        );
        assert_eq!(raw.len(), 2 * (1 + 300 * 3));
        // Every scanline starts with filter byte 0.
        assert_eq!(raw[0], 0);
        assert_eq!(raw[1 + 300 * 3], 0);
    }

    #[test]
    fn write_png_stores_file() {
        let fs = MemFs::new();
        write_png(&fs, "img.png", &Framebuffer::new(4, 4)).unwrap();
        let bytes = fs.read("img.png").unwrap();
        assert!(bytes.starts_with(&[0x89, b'P', b'N', b'G']));
    }
}
