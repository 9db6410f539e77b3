//! Field buffers and key values.
//!
//! §3.1: *"The basic data unit is a named developer-defined field,
//! composed of an integer storing the data size and a pointer to a data
//! buffer. … GODIVA manages the field data buffer addresses rather than
//! the buffer contents."*
//!
//! The C++ library hands out raw buffer pointers; the visualization code
//! "accesses the buffer directly as if the buffer is a user-allocated
//! array". The Rust equivalent is an immutable, [`Arc`]-shared
//! [`FieldData`]: [`crate::Records::get_field_buffer`] returns a cheap
//! [`FieldRef`] clone whose typed views (`f64s()`, `bytes()`, …) are plain
//! slices, and eviction merely drops the database's own reference, so an
//! outstanding handle can never dangle. A field changes only when its
//! record slot is given new data (`set_*`, `update_field`). Contents are
//! typed rather than raw bytes, which is both what Rust callers want and
//! faithful to the paper's typed field declarations.

use crate::error::{GodivaError, Result};
use crate::schema::FieldKind;
use std::sync::Arc;

/// Typed contents of a field buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldData {
    /// Text (the paper's STRING).
    Str(String),
    /// 64-bit floats (the paper's DOUBLE).
    F64(Vec<f64>),
    /// 32-bit floats.
    F32(Vec<f32>),
    /// 32-bit integers.
    I32(Vec<i32>),
    /// 64-bit integers.
    I64(Vec<i64>),
    /// Raw bytes.
    Bytes(Vec<u8>),
}

impl FieldData {
    /// The field kind this data belongs to.
    pub fn kind(&self) -> FieldKind {
        match self {
            FieldData::Str(_) => FieldKind::Str,
            FieldData::F64(_) => FieldKind::F64,
            FieldData::F32(_) => FieldKind::F32,
            FieldData::I32(_) => FieldKind::I32,
            FieldData::I64(_) => FieldKind::I64,
            FieldData::Bytes(_) => FieldKind::Bytes,
        }
    }

    /// Buffer size in bytes — the paper's per-field "integer storing the
    /// data size".
    pub fn byte_len(&self) -> u64 {
        match self {
            FieldData::Str(s) => s.len() as u64,
            FieldData::F64(v) => (v.len() * 8) as u64,
            FieldData::F32(v) => (v.len() * 4) as u64,
            FieldData::I32(v) => (v.len() * 4) as u64,
            FieldData::I64(v) => (v.len() * 8) as u64,
            FieldData::Bytes(v) => v.len() as u64,
        }
    }

    /// Zero-filled data of `kind` occupying `bytes` bytes.
    ///
    /// `bytes` must be a multiple of the element size.
    pub fn zeroed(kind: FieldKind, bytes: u64) -> Result<FieldData> {
        let esz = kind.elem_size() as u64;
        if !bytes.is_multiple_of(esz) {
            return Err(GodivaError::TypeMismatch(format!(
                "{bytes} bytes is not a multiple of the {esz}-byte element size of {kind:?}"
            )));
        }
        let n = (bytes / esz) as usize;
        Ok(match kind {
            FieldKind::Str => FieldData::Str("\0".repeat(n)),
            FieldKind::F64 => FieldData::F64(vec![0.0; n]),
            FieldKind::F32 => FieldData::F32(vec![0.0; n]),
            FieldKind::I32 => FieldData::I32(vec![0; n]),
            FieldKind::I64 => FieldData::I64(vec![0; n]),
            FieldKind::Bytes => FieldData::Bytes(vec![0; n]),
        })
    }

    /// Append the contents as bytes, elements little-endian — what a key
    /// field contributes to the index key and what a spill frame stores.
    pub fn extend_le_bytes(&self, out: &mut Vec<u8>) {
        match self {
            FieldData::Str(s) => out.extend_from_slice(s.as_bytes()),
            FieldData::Bytes(v) => out.extend_from_slice(v),
            FieldData::F64(v) => extend_le(out, v, f64::to_le_bytes),
            FieldData::F32(v) => extend_le(out, v, f32::to_le_bytes),
            FieldData::I32(v) => extend_le(out, v, i32::to_le_bytes),
            FieldData::I64(v) => extend_le(out, v, i64::to_le_bytes),
        }
    }

    /// Bytes used as the index key when this buffer fills a key field.
    pub fn key_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len() as usize);
        self.extend_le_bytes(&mut out);
        out
    }

    fn mismatch(&self, asked: FieldKind) -> GodivaError {
        GodivaError::TypeMismatch(format!(
            "buffer holds {:?}, asked for {asked:?}",
            self.kind()
        ))
    }

    /// View as a `&[f64]` slice.
    pub fn f64s(&self) -> Result<&[f64]> {
        match self {
            FieldData::F64(v) => Ok(v),
            other => Err(other.mismatch(FieldKind::F64)),
        }
    }

    /// View as a `&[f32]` slice.
    pub fn f32s(&self) -> Result<&[f32]> {
        match self {
            FieldData::F32(v) => Ok(v),
            other => Err(other.mismatch(FieldKind::F32)),
        }
    }

    /// View as a `&[i32]` slice.
    pub fn i32s(&self) -> Result<&[i32]> {
        match self {
            FieldData::I32(v) => Ok(v),
            other => Err(other.mismatch(FieldKind::I32)),
        }
    }

    /// View as a `&[i64]` slice.
    pub fn i64s(&self) -> Result<&[i64]> {
        match self {
            FieldData::I64(v) => Ok(v),
            other => Err(other.mismatch(FieldKind::I64)),
        }
    }

    /// View as a `&[u8]` slice (Bytes fields).
    pub fn bytes(&self) -> Result<&[u8]> {
        match self {
            FieldData::Bytes(v) => Ok(v),
            other => Err(other.mismatch(FieldKind::Bytes)),
        }
    }

    /// View as a `&str` (Str fields).
    pub fn as_str(&self) -> Result<&str> {
        match self {
            FieldData::Str(s) => Ok(s),
            other => Err(other.mismatch(FieldKind::Str)),
        }
    }
}

/// Append every element of `values` to `out` in one pass: grow once, then
/// fill fixed-width chunks (no per-element capacity check).
fn extend_le<T: Copy, const N: usize>(
    out: &mut Vec<u8>,
    values: &[T],
    to_le: impl Fn(T) -> [u8; N],
) {
    let start = out.len();
    out.resize(start + values.len() * N, 0);
    for (dst, &x) in out[start..].chunks_exact_mut(N).zip(values) {
        dst.copy_from_slice(&to_le(x));
    }
}

/// Shared handle to a field's contents — the Rust stand-in for the buffer
/// pointer `getFieldBuffer` returns in the paper. It reads what the field
/// held when the handle was obtained, whatever the database has done
/// since (DESIGN.md §5 "Buffer hand-out").
pub type FieldRef = Arc<FieldData>;

/// A key value used to look records up — the Rust stand-in for the
/// paper's "array of pointers to buffers holding key field values".
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(pub Vec<u8>);

impl Key {
    /// Key from raw bytes.
    pub fn bytes(b: impl Into<Vec<u8>>) -> Self {
        Key(b.into())
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key(s.as_bytes().to_vec())
    }
}
impl From<String> for Key {
    fn from(s: String) -> Self {
        Key(s.into_bytes())
    }
}
impl From<i64> for Key {
    fn from(v: i64) -> Self {
        Key(v.to_le_bytes().to_vec())
    }
}
impl From<i32> for Key {
    fn from(v: i32) -> Self {
        Key(v.to_le_bytes().to_vec())
    }
}
impl From<f64> for Key {
    fn from(v: f64) -> Self {
        Key(v.to_le_bytes().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_lens() {
        assert_eq!(FieldData::F64(vec![0.0; 3]).byte_len(), 24);
        assert_eq!(FieldData::F32(vec![0.0; 3]).byte_len(), 12);
        assert_eq!(FieldData::I32(vec![0; 5]).byte_len(), 20);
        assert_eq!(FieldData::I64(vec![0; 5]).byte_len(), 40);
        assert_eq!(FieldData::Str("hello".into()).byte_len(), 5);
        assert_eq!(FieldData::Bytes(vec![0; 7]).byte_len(), 7);
    }

    #[test]
    fn zeroed_respects_kind_and_size() {
        let d = FieldData::zeroed(FieldKind::F64, 80).unwrap();
        assert_eq!(d, FieldData::F64(vec![0.0; 10]));
        let d = FieldData::zeroed(FieldKind::Str, 3).unwrap();
        assert_eq!(d.byte_len(), 3);
        assert!(FieldData::zeroed(FieldKind::F64, 7).is_err());
    }

    #[test]
    fn typed_views_and_mismatches() {
        let buf: FieldRef = Arc::new(FieldData::F64(vec![1.0, 2.0]));
        assert_eq!(buf.f64s().unwrap(), &[1.0, 2.0]);
        assert!(buf.i32s().is_err());
        assert!(buf.as_str().is_err());
        assert_eq!(buf.byte_len(), 16);
        assert_eq!(buf.kind(), FieldKind::F64);
    }

    #[test]
    fn shared_handle_survives_database_drop() {
        // Simulates eviction: the DB drops its Arc, the handle lives on.
        let buf: FieldRef = Arc::new(FieldData::I32(vec![42]));
        let handle = Arc::clone(&buf);
        drop(buf);
        assert_eq!(handle.i32s().unwrap(), &[42]);
    }

    #[test]
    fn key_conversions_distinct() {
        assert_eq!(Key::from("abc"), Key::bytes(*b"abc"));
        assert_ne!(Key::from(1i64), Key::from(1i32));
        assert_ne!(Key::from("1"), Key::from(1i64));
        let k: Key = String::from("xy").into();
        assert_eq!(k, Key::from("xy"));
    }

    #[test]
    fn key_bytes_match_key_from_for_strings() {
        let d = FieldData::Str("block_0001$".into());
        assert_eq!(d.key_bytes(), Key::from("block_0001$").0);
        let d = FieldData::I64(vec![7]);
        assert_eq!(d.key_bytes(), Key::from(7i64).0);
        let d = FieldData::F64(vec![0.25]);
        assert_eq!(d.key_bytes(), Key::from(0.25f64).0);
    }
}
