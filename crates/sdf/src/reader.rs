//! SDF file reader.
//!
//! Opening a file costs two small ranged reads (header, then directory at
//! the tail); each dataset read is one ranged read into the body followed
//! by checksum verification and decoding on the calling thread. On a
//! simulated disk this reproduces the seek-heavy access pattern of
//! HDF-style files that §4.2 of the GODIVA paper measures.

use crate::crc::crc32;
use crate::dataset::{decode_entry, Cursor, DatasetInfo};
use crate::dtype::{from_bytes, Element};
use crate::error::{Result, SdfError};
use crate::writer::HEADER_LEN;
use crate::{MAGIC, VERSION};
use godiva_platform::{CpuPool, Storage, Work};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Knobs controlling the cost and strictness of reads.
#[derive(Clone, Default)]
pub struct ReadOptions {
    /// If set, every read charges decode work to this pool — the
    /// stand-in for HDF's CPU-side interpretation cost, and the work the
    /// GODIVA background I/O thread competes with the main thread for on
    /// a single-CPU platform.
    pub cpu: Option<CpuPool>,
    /// Decode work charged per KiB of payload (in [`Work`] units).
    /// Ignored when `cpu` is `None`. A value of 0 still verifies
    /// checksums but charges no synthetic work.
    pub decode_work_per_kib: u64,
    /// Verify CRC-32 checksums on whole-dataset reads (default true via
    /// [`ReadOptions::new`]).
    pub verify_checksums: bool,
    /// Decode work accrued but not yet realized on the CPU pool; charges
    /// below ~1 ms are batched so that hosts with coarse sleep/timer
    /// granularity do not inflate thousands of tiny charges. Shared by
    /// clones, so one reader accumulates across its files.
    pending_work: Arc<AtomicU64>,
}

impl ReadOptions {
    /// Default options: verify checksums, no synthetic CPU cost.
    pub fn new() -> Self {
        ReadOptions {
            cpu: None,
            decode_work_per_kib: 0,
            verify_checksums: true,
            pending_work: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Attach a CPU pool and per-KiB decode cost.
    pub fn with_cpu(mut self, pool: CpuPool, work_per_kib: u64) -> Self {
        self.cpu = Some(pool);
        self.decode_work_per_kib = work_per_kib;
        self
    }

    fn charge(&self, bytes: u64) {
        if let Some(pool) = &self.cpu {
            if self.decode_work_per_kib > 0 {
                let kib = bytes.div_ceil(1024);
                let pending = self
                    .pending_work
                    .fetch_add(kib * self.decode_work_per_kib, Ordering::Relaxed)
                    + kib * self.decode_work_per_kib;
                // Realize the accrued work once it reaches ~1 ms.
                if pending >= 1000
                    && self
                        .pending_work
                        .compare_exchange(pending, 0, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                {
                    pool.compute(Work::from_micros(pending));
                }
            }
        }
    }
}

/// An open SDF file: parsed directory + handle to the storage backend.
pub struct SdfFile {
    storage: Arc<dyn Storage>,
    path: String,
    datasets: Vec<DatasetInfo>,
    options: ReadOptions,
}

impl SdfFile {
    /// Open `path` on `storage`, reading and validating the directory.
    pub fn open(storage: Arc<dyn Storage>, path: impl Into<String>) -> Result<Self> {
        Self::open_with(storage, path, ReadOptions::new())
    }

    /// Open with explicit [`ReadOptions`].
    pub fn open_with(
        storage: Arc<dyn Storage>,
        path: impl Into<String>,
        options: ReadOptions,
    ) -> Result<Self> {
        let path = path.into();
        let header = storage.read_at(&path, 0, HEADER_LEN)?;
        if header[0..4] != MAGIC {
            return Err(SdfError::Corrupt(format!("bad magic in {path}")));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(SdfError::Corrupt(format!(
                "unsupported SDF version {version} in {path}"
            )));
        }
        let dir_offset = u64::from_le_bytes(header[8..16].try_into().unwrap());
        let dir_len = u64::from_le_bytes(header[16..24].try_into().unwrap());
        let file_len = storage.len(&path)?;
        let dir_end = dir_offset.checked_add(dir_len);
        if dir_end.is_none_or(|end| end > file_len) {
            return Err(SdfError::Corrupt(format!(
                "directory [{dir_offset}, +{dir_len}) exceeds file length {file_len} in {path}"
            )));
        }
        let dir_bytes = storage.read_at(&path, dir_offset, dir_len as usize)?;
        let mut cur = Cursor::new(&dir_bytes);
        let count = cur.u32()? as usize;
        // An entry is at least 27 directory bytes; a hostile count must
        // not size the allocation.
        let mut datasets = Vec::with_capacity(count.min(dir_bytes.len() / 27));
        for _ in 0..count {
            let entry = decode_entry(&mut cur)?;
            let payload_end = entry.offset.checked_add(entry.stored_len);
            if payload_end.is_none_or(|end| end > dir_offset) {
                return Err(SdfError::Corrupt(format!(
                    "dataset '{}' payload overlaps the directory",
                    entry.name
                )));
            }
            let elem = entry.dtype.size() as u64;
            let byte_len = entry.dims.iter().try_fold(elem, |n, &d| n.checked_mul(d));
            if byte_len.is_none() {
                return Err(SdfError::Corrupt(format!(
                    "dataset '{}' extents {:?} overflow",
                    entry.name, entry.dims
                )));
            }
            datasets.push(entry);
        }
        if cur.remaining() != 0 {
            return Err(SdfError::Corrupt(format!(
                "{} trailing bytes after directory entries",
                cur.remaining()
            )));
        }
        Ok(SdfFile {
            storage,
            path,
            datasets,
            options,
        })
    }

    /// The file's path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Directory entries in file order.
    pub fn datasets(&self) -> &[DatasetInfo] {
        &self.datasets
    }

    /// Find a dataset by name.
    pub fn dataset(&self, name: &str) -> Result<&DatasetInfo> {
        self.datasets
            .iter()
            .find(|d| d.name == name)
            .ok_or_else(|| SdfError::NoSuchDataset(name.to_string()))
    }

    /// Whether the file contains a dataset with this name.
    pub fn contains(&self, name: &str) -> bool {
        self.datasets.iter().any(|d| d.name == name)
    }

    /// Read and decode a dataset's full payload as raw little-endian
    /// bytes (checksum-verified, CPU cost charged).
    pub fn read_bytes(&self, name: &str) -> Result<Vec<u8>> {
        self.read_payload(self.dataset(name)?)
    }

    /// One ranged read, one checksum pass, and (for `Raw`) no further
    /// copy: the verified bytes are the decoded payload.
    fn read_payload(&self, info: &DatasetInfo) -> Result<Vec<u8>> {
        let stored = self
            .storage
            .read_at(&self.path, info.offset, info.stored_len as usize)?;
        if self.options.verify_checksums {
            let actual = crc32(&stored);
            if actual != info.crc {
                return Err(SdfError::ChecksumMismatch {
                    dataset: info.name.clone(),
                    expected: info.crc,
                    actual,
                });
            }
        }
        self.options.charge(info.stored_len);
        info.encoding.decode(stored, info.dtype.size())
    }

    /// Read a dataset as typed elements.
    pub fn read<T: Element>(&self, name: &str) -> Result<Vec<T>> {
        let info = self.dataset(name)?;
        if info.dtype != T::DTYPE {
            return Err(SdfError::TypeMismatch {
                dataset: name.to_string(),
                stored: info.dtype,
                requested: T::DTYPE,
            });
        }
        from_bytes(&self.read_payload(info)?)
    }

    /// Read a string dataset (U8 payload interpreted as UTF-8).
    pub fn read_str(&self, name: &str) -> Result<String> {
        let info = self.dataset(name)?;
        if info.dtype != crate::DType::U8 {
            return Err(SdfError::TypeMismatch {
                dataset: name.to_string(),
                stored: info.dtype,
                requested: crate::DType::U8,
            });
        }
        String::from_utf8(self.read_payload(info)?)
            .map_err(|_| SdfError::Corrupt(format!("dataset '{name}' is not UTF-8")))
    }

    /// Read `count` elements starting at element `start` of a 1-D view of
    /// the dataset. Only `Raw`-encoded datasets support this; checksums
    /// cannot be verified for partial reads.
    pub fn read_slab<T: Element>(&self, name: &str, start: u64, count: u64) -> Result<Vec<T>> {
        let info = self.dataset(name)?;
        if info.dtype != T::DTYPE {
            return Err(SdfError::TypeMismatch {
                dataset: name.to_string(),
                stored: info.dtype,
                requested: T::DTYPE,
            });
        }
        if !info.encoding.supports_hyperslab() {
            return Err(SdfError::BadSlab(format!(
                "dataset '{name}' is {:?}-encoded; ranged reads need Raw",
                info.encoding
            )));
        }
        let total = info.element_count();
        let esz = info.dtype.size() as u64;
        // `total * esz` was checked at open, so nothing below `total` can
        // overflow; the offset sum is input-controlled and is checked.
        let offset = match start.checked_add(count) {
            Some(end) if end <= total => info.offset.checked_add(start * esz),
            _ => None,
        };
        let Some(offset) = offset else {
            return Err(SdfError::BadSlab(format!(
                "slab [{start}, +{count}) exceeds {total} elements of '{name}'"
            )));
        };
        let bytes = self
            .storage
            .read_at(&self.path, offset, (count * esz) as usize)?;
        self.options.charge(count * esz);
        from_bytes(&bytes)
    }

    /// Sum of decoded payload sizes of all datasets, in bytes.
    pub fn total_data_bytes(&self) -> u64 {
        self.datasets.iter().map(|d| d.byte_len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Encoding;
    use crate::dataset::Attr;
    use crate::writer::SdfWriter;
    use godiva_platform::MemFs;

    fn fixture(encoding: Encoding) -> (Arc<MemFs>, &'static str) {
        let fs = Arc::new(MemFs::new());
        let mut w = SdfWriter::create(fs.as_ref(), "f.sdf").with_encoding(encoding);
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
        w.put("x", &[10, 100], &xs, vec![Attr::new("units", "m")])
            .unwrap();
        w.put_1d("conn", &(0..300).collect::<Vec<i32>>(), vec![])
            .unwrap();
        w.put_str("block id", "block_0001$", vec![Attr::new("n", 1_i64)])
            .unwrap();
        w.finish().unwrap();
        (fs, "f.sdf")
    }

    #[test]
    fn roundtrip_raw() {
        let (fs, path) = fixture(Encoding::Raw);
        let f = SdfFile::open(fs, path).unwrap();
        assert_eq!(f.datasets().len(), 3);
        let xs: Vec<f64> = f.read("x").unwrap();
        assert_eq!(xs.len(), 1000);
        assert_eq!(xs[1], 1.0f64.sin());
        let conn: Vec<i32> = f.read("conn").unwrap();
        assert_eq!(conn, (0..300).collect::<Vec<i32>>());
        assert_eq!(f.read_str("block id").unwrap(), "block_0001$");
    }

    #[test]
    fn roundtrip_shuffle() {
        let (fs, path) = fixture(Encoding::Shuffle);
        let f = SdfFile::open(fs, path).unwrap();
        let xs: Vec<f64> = f.read("x").unwrap();
        assert_eq!(xs[999], 999.0f64.sin());
    }

    #[test]
    fn attrs_preserved() {
        let (fs, path) = fixture(Encoding::Raw);
        let f = SdfFile::open(fs, path).unwrap();
        let info = f.dataset("x").unwrap();
        assert_eq!(
            info.attr("units"),
            Some(&crate::AttrValue::Text("m".into()))
        );
        assert_eq!(info.dims, vec![10, 100]);
    }

    #[test]
    fn missing_dataset_and_type_mismatch() {
        let (fs, path) = fixture(Encoding::Raw);
        let f = SdfFile::open(fs, path).unwrap();
        assert!(matches!(
            f.read::<f64>("ghost"),
            Err(SdfError::NoSuchDataset(_))
        ));
        assert!(matches!(
            f.read::<f64>("conn"),
            Err(SdfError::TypeMismatch { .. })
        ));
        assert!(f.read_str("x").is_err());
        assert!(!f.contains("ghost"));
        assert!(f.contains("x"));
    }

    #[test]
    fn hyperslab_reads_raw_only() {
        let (fs, path) = fixture(Encoding::Raw);
        let f = SdfFile::open(fs, path).unwrap();
        let slab: Vec<f64> = f.read_slab("x", 10, 5).unwrap();
        let expect: Vec<f64> = (10..15).map(|i| (i as f64).sin()).collect();
        assert_eq!(slab, expect);
        assert!(f.read_slab::<f64>("x", 999, 2).is_err());

        let (fs, path) = fixture(Encoding::Shuffle);
        let f = SdfFile::open(fs, path).unwrap();
        assert!(matches!(
            f.read_slab::<f64>("x", 0, 5),
            Err(SdfError::BadSlab(_))
        ));
    }

    #[test]
    fn corrupted_payload_detected() {
        let (fs, path) = fixture(Encoding::Raw);
        let mut bytes = fs.read(path).unwrap();
        // Flip a byte inside the first dataset's payload (offset 24+).
        bytes[30] ^= 0xFF;
        fs.write(path, &bytes).unwrap();
        let f = SdfFile::open(fs, path).unwrap();
        assert!(matches!(
            f.read::<f64>("x"),
            Err(SdfError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn corrupted_magic_rejected() {
        let (fs, path) = fixture(Encoding::Raw);
        let mut bytes = fs.read(path).unwrap();
        bytes[0] = b'X';
        fs.write(path, &bytes).unwrap();
        assert!(matches!(SdfFile::open(fs, path), Err(SdfError::Corrupt(_))));
    }

    #[test]
    fn truncated_file_rejected() {
        let (fs, path) = fixture(Encoding::Raw);
        let bytes = fs.read(path).unwrap();
        fs.write(path, &bytes[..bytes.len() - 10]).unwrap();
        assert!(SdfFile::open(fs, path).is_err());
    }

    /// A file whose header and directory are whatever the caller says.
    fn forged(dir_offset: u64, dir_len: u64, entry: Option<DatasetInfo>) -> Result<SdfFile> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&dir_offset.to_le_bytes());
        bytes.extend_from_slice(&dir_len.to_le_bytes());
        bytes.extend_from_slice(&[0; 8]); // payload area
        if let Some(entry) = entry {
            bytes.extend_from_slice(&1u32.to_le_bytes());
            crate::dataset::encode_entry(&entry, &mut bytes);
        }
        let fs = Arc::new(MemFs::new());
        fs.write("forged.sdf", &bytes).unwrap();
        SdfFile::open(fs, "forged.sdf")
    }

    #[test]
    fn hostile_offsets_are_errors_not_panics() {
        // Directory range wraps around u64.
        assert!(matches!(
            forged(u64::MAX, 2, None),
            Err(SdfError::Corrupt(_))
        ));
        let entry = |offset, stored_len, dims| DatasetInfo {
            name: "x".into(),
            dtype: crate::DType::F64,
            dims,
            encoding: Encoding::Raw,
            attrs: vec![],
            offset,
            stored_len,
            crc: 0,
        };
        // 4 (count) + 2+1 (name) + 3 (tags, ndims) + 8 (one dim) + 2 + 20.
        let dir_len = 40;
        let open = |e| forged(HEADER_LEN as u64 + 8, dir_len, Some(e));
        // Payload range wraps; extents whose byte size wraps.
        for bad in [
            entry(u64::MAX, 2, vec![1]),
            entry(24, 8, vec![u64::MAX / 4]),
        ] {
            assert!(matches!(open(bad), Err(SdfError::Corrupt(_))));
        }
        // A well-formed entry opens; slab requests that wrap are refused.
        let f = open(entry(24, 8, vec![1])).unwrap();
        for (start, count) in [(u64::MAX, 2), (1, u64::MAX), (0, 2)] {
            assert!(matches!(
                f.read_slab::<f64>("x", start, count),
                Err(SdfError::BadSlab(_))
            ));
        }
        assert_eq!(f.read_slab::<f64>("x", 0, 1).unwrap(), vec![0.0]);
    }

    #[test]
    fn verification_can_be_disabled() {
        let (fs, path) = fixture(Encoding::Raw);
        let mut bytes = fs.read(path).unwrap();
        bytes[30] ^= 0xFF;
        fs.write(path, &bytes).unwrap();
        let opts = ReadOptions {
            verify_checksums: false,
            ..ReadOptions::new()
        };
        let f = SdfFile::open_with(fs, path, opts).unwrap();
        assert!(f.read::<f64>("x").is_ok(), "unverified read succeeds");
    }

    #[test]
    fn total_data_bytes_counts_decoded_sizes() {
        let (fs, path) = fixture(Encoding::Raw);
        let f = SdfFile::open(fs, path).unwrap();
        // 1000 f64 + 300 i32 + 11 chars
        assert_eq!(f.total_data_bytes(), 8000 + 1200 + 11);
    }

    #[test]
    fn cpu_charge_hook_runs() {
        let (fs, path) = fixture(Encoding::Raw);
        let pool = CpuPool::new(1, 1.0);
        let opts = ReadOptions::new().with_cpu(pool.clone(), 500);
        let f = SdfFile::open_with(fs, path, opts).unwrap();
        // 1000 f64 = 8 KiB at 500 µs/KiB = 4 ms of decode work — beyond
        // the 1 ms batching threshold, so it must hit the pool.
        let _: Vec<f64> = f.read("x").unwrap();
        assert!(pool.busy_time() >= std::time::Duration::from_millis(3));
    }
}
