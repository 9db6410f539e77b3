//! Storage abstraction.
//!
//! GODIVA itself never reads files — developer-supplied read functions do
//! — but every substrate in this reproduction (the SDF file format, the
//! GENx generator, Voyager) performs its file I/O through the [`Storage`]
//! trait so the same code can run against:
//!
//! - [`MemFs`] — an instant in-memory filesystem for unit tests,
//! - [`SimFs`] — `MemFs` plus a [`SimDisk`] cost model, used by the
//!   benchmark harness to reproduce the paper's platforms,
//! - [`RealFs`] — actual files under a root directory.

use crate::disk::{DiskModel, DiskStats, FileId, SimDisk};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::io;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Aggregate I/O statistics a backend can report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Bytes delivered to readers.
    pub bytes_read: u64,
    /// Bytes accepted from writers.
    pub bytes_written: u64,
    /// Read operations.
    pub reads: u64,
    /// Write operations.
    pub writes: u64,
    /// Seeks charged (simulated backends only).
    pub seeks: u64,
}

impl From<DiskStats> for StorageStats {
    fn from(d: DiskStats) -> Self {
        StorageStats {
            bytes_read: d.bytes_read,
            bytes_written: d.bytes_written,
            reads: d.reads,
            writes: d.writes,
            seeks: d.seeks,
        }
    }
}

/// A minimal filesystem interface: whole-file and ranged reads, whole-file
/// writes, listing, and deletion. Paths are plain `/`-separated strings.
pub trait Storage: Send + Sync {
    /// Create or replace the file at `path` with `data`.
    fn write(&self, path: &str, data: &[u8]) -> io::Result<()>;
    /// Read the entire file at `path`.
    fn read(&self, path: &str) -> io::Result<Vec<u8>>;
    /// Read `len` bytes starting at `offset`. Short files are an error.
    fn read_at(&self, path: &str, offset: u64, len: usize) -> io::Result<Vec<u8>>;
    /// Length of the file in bytes.
    fn len(&self, path: &str) -> io::Result<u64>;
    /// Whether the file exists.
    fn exists(&self, path: &str) -> bool;
    /// All paths beginning with `prefix`, sorted.
    fn list(&self, prefix: &str) -> Vec<String>;
    /// Remove the file. Removing a missing file is an error.
    fn delete(&self, path: &str) -> io::Result<()>;
    /// Statistics accumulated by this backend so far.
    fn stats(&self) -> StorageStats;
    /// Reset accumulated statistics.
    fn reset_stats(&self);

    /// Atomically replace `to` with `from` (moving it). The default is
    /// copy-then-delete, which [`SimFs`] keeps so a rename is charged as
    /// the read and write it models; [`MemFs`] moves the map entry and
    /// [`RealFs`] issues a true `rename(2)`, so crash-safe publish
    /// protocols (tmp + rename) work on disk.
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let data = self.read(from)?;
        self.write(to, &data)?;
        self.delete(from)
    }

    /// Flush the file's data to stable storage. In-memory backends have
    /// nothing to flush (default no-op); [`RealFs`] issues `fdatasync`.
    fn sync_file(&self, _path: &str) -> io::Result<()> {
        Ok(())
    }

    /// Flush the directory entry metadata for `dir` (so a rename into it
    /// survives a crash). Default no-op; [`RealFs`] fsyncs the directory.
    fn sync_dir(&self, _dir: &str) -> io::Result<()> {
        Ok(())
    }
}

fn not_found(path: &str) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("no such file: {path}"))
}

/// The byte range `[offset, offset + len)` of a `file_len`-byte file; an
/// `UnexpectedEof` error when it overflows or runs past the end.
fn checked_range(path: &str, offset: u64, len: usize, file_len: usize) -> io::Result<Range<usize>> {
    let start = usize::try_from(offset).ok();
    let end = start.and_then(|s| s.checked_add(len));
    match (start, end.filter(|&end| end <= file_len)) {
        (Some(start), Some(end)) => Ok(start..end),
        _ => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "read past end of {path}: offset {offset} + len {len} > file length {file_len}"
            ),
        )),
    }
}

#[derive(Clone)]
struct MemFile {
    id: FileId,
    data: Arc<Vec<u8>>,
}

/// In-memory filesystem with zero-cost operations.
#[derive(Default)]
pub struct MemFs {
    files: RwLock<BTreeMap<String, MemFile>>,
    next_id: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

impl MemFs {
    /// Create an empty in-memory filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    fn get(&self, path: &str) -> io::Result<MemFile> {
        self.files
            .read()
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))
    }

    fn file_meta(&self, path: &str) -> io::Result<(FileId, usize)> {
        let f = self.get(path)?;
        Ok((f.id, f.data.len()))
    }
}

impl Storage for MemFs {
    fn write(&self, path: &str, data: &[u8]) -> io::Result<()> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.files.write().insert(
            path.to_string(),
            MemFile {
                id,
                data: Arc::new(data.to_vec()),
            },
        );
        Ok(())
    }

    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        let f = self.get(path)?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read
            .fetch_add(f.data.len() as u64, Ordering::Relaxed);
        Ok(f.data.as_ref().clone())
    }

    fn read_at(&self, path: &str, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let f = self.get(path)?;
        let range = checked_range(path, offset, len, f.data.len())?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(len as u64, Ordering::Relaxed);
        Ok(f.data[range].to_vec())
    }

    fn len(&self, path: &str) -> io::Result<u64> {
        Ok(self.get(path)?.data.len() as u64)
    }

    fn exists(&self, path: &str) -> bool {
        self.files.read().contains_key(path)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .read()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    fn delete(&self, path: &str) -> io::Result<()> {
        match self.files.write().remove(path) {
            Some(_) => Ok(()),
            None => Err(not_found(path)),
        }
    }

    fn stats(&self) -> StorageStats {
        StorageStats {
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            seeks: 0,
        }
    }

    fn reset_stats(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
    }

    /// A metadata operation, as on a real file system: the entry moves,
    /// the bytes do not.
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut files = self.files.write();
        let file = files.remove(from).ok_or_else(|| not_found(from))?;
        files.insert(to.to_string(), file);
        Ok(())
    }
}

/// A simulated filesystem: in-memory contents, disk-model costs.
///
/// Every operation first charges the shared [`SimDisk`] (which sleeps for
/// the modelled duration), then performs the `MemFs` operation. Writes
/// optionally cost nothing when `free_writes` is set — the paper's
/// experiments only measure *input*, and its snapshot files were written
/// ahead of time, so the harness pre-populates storage for free.
pub struct SimFs {
    mem: MemFs,
    disk: Arc<SimDisk>,
    free_writes: bool,
}

impl SimFs {
    /// Create a simulated filesystem over a fresh disk with `model`.
    pub fn new(model: DiskModel) -> Self {
        SimFs {
            mem: MemFs::new(),
            disk: Arc::new(SimDisk::new(model)),
            free_writes: false,
        }
    }

    /// Make writes cost nothing (used to pre-populate experiment inputs).
    pub fn with_free_writes(mut self) -> Self {
        self.free_writes = true;
        self
    }

    /// Access the underlying simulated disk (for seek/busy statistics).
    pub fn disk(&self) -> &Arc<SimDisk> {
        &self.disk
    }

    /// Attach a tracer to the underlying disk so every modelled read and
    /// write shows up as a `disk` span in the trace.
    pub fn set_tracer(&self, tracer: godiva_obs::Tracer) {
        self.disk.set_tracer(tracer);
    }
}

impl Storage for SimFs {
    fn write(&self, path: &str, data: &[u8]) -> io::Result<()> {
        self.mem.write(path, data)?;
        if !self.free_writes {
            let (id, _) = self.mem.file_meta(path)?;
            self.disk.charge_write(id, 0, data.len() as u64);
        }
        Ok(())
    }

    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        let (id, len) = self.mem.file_meta(path)?;
        self.disk.charge_read(id, 0, len as u64);
        self.mem.read(path)
    }

    fn read_at(&self, path: &str, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let (id, flen) = self.mem.file_meta(path)?;
        checked_range(path, offset, len, flen)?;
        self.disk.charge_read(id, offset, len as u64);
        self.mem.read_at(path, offset, len)
    }

    fn len(&self, path: &str) -> io::Result<u64> {
        self.mem.len(path)
    }

    fn exists(&self, path: &str) -> bool {
        self.mem.exists(path)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.mem.list(prefix)
    }

    fn delete(&self, path: &str) -> io::Result<()> {
        self.mem.delete(path)
    }

    fn stats(&self) -> StorageStats {
        self.disk.stats().into()
    }

    fn reset_stats(&self) {
        self.disk.reset_stats();
        self.mem.reset_stats();
    }
}

/// Real files under a root directory.
pub struct RealFs {
    root: PathBuf,
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

impl RealFs {
    /// Use `root` as the base directory (created if missing).
    pub fn new(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(RealFs {
            root,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        })
    }

    fn resolve(&self, path: &str) -> PathBuf {
        self.root.join(path)
    }
}

impl Storage for RealFs {
    fn write(&self, path: &str, data: &[u8]) -> io::Result<()> {
        let p = self.resolve(path);
        if let Some(dir) = p.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&p, data)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        let data = std::fs::read(self.resolve(path))?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(data)
    }

    fn read_at(&self, path: &str, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = std::fs::File::open(self.resolve(path))?;
        f.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        f.read_exact(&mut buf)?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(len as u64, Ordering::Relaxed);
        Ok(buf)
    }

    fn len(&self, path: &str) -> io::Result<u64> {
        Ok(std::fs::metadata(self.resolve(path))?.len())
    }

    fn exists(&self, path: &str) -> bool {
        self.resolve(path).exists()
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        // Walk the tree under root and filter by string prefix, matching
        // the flat-namespace semantics of the other backends.
        fn walk(dir: &std::path::Path, root: &std::path::Path, out: &mut Vec<String>) {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return;
            };
            for entry in entries.flatten() {
                let p = entry.path();
                if p.is_dir() {
                    walk(&p, root, out);
                } else if let Ok(rel) = p.strip_prefix(root) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &self.root, &mut out);
        out.retain(|p| p.starts_with(prefix));
        out.sort();
        out
    }

    fn delete(&self, path: &str) -> io::Result<()> {
        std::fs::remove_file(self.resolve(path))
    }

    fn stats(&self) -> StorageStats {
        StorageStats {
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            seeks: 0,
        }
    }

    fn reset_stats(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let to_p = self.resolve(to);
        if let Some(dir) = to_p.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::rename(self.resolve(from), to_p)
    }

    fn sync_file(&self, path: &str) -> io::Result<()> {
        std::fs::File::open(self.resolve(path))?.sync_data()
    }

    fn sync_dir(&self, dir: &str) -> io::Result<()> {
        // Directory fsync makes the rename's new entry durable. Opening
        // a directory read-only and syncing it is the POSIX idiom; on
        // platforms where that fails (e.g. Windows) the error is
        // surfaced to the caller, which treats it as best-effort.
        std::fs::File::open(self.resolve(dir))?.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(fs: &dyn Storage) {
        fs.write("a/b.dat", b"hello world").unwrap();
        assert!(fs.exists("a/b.dat"));
        assert_eq!(fs.len("a/b.dat").unwrap(), 11);
        assert_eq!(fs.read("a/b.dat").unwrap(), b"hello world");
        assert_eq!(fs.read_at("a/b.dat", 6, 5).unwrap(), b"world");
        fs.delete("a/b.dat").unwrap();
        assert!(!fs.exists("a/b.dat"));
        assert!(fs.read("a/b.dat").is_err());
    }

    #[test]
    fn memfs_roundtrip() {
        roundtrip(&MemFs::new());
    }

    #[test]
    fn simfs_roundtrip() {
        roundtrip(&SimFs::new(DiskModel::instant()));
    }

    #[test]
    fn realfs_roundtrip() {
        let dir = std::env::temp_dir().join(format!("godiva-realfs-{}", std::process::id()));
        let fs = RealFs::new(&dir).unwrap();
        roundtrip(&fs);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memfs_read_past_end_fails() {
        let fs = MemFs::new();
        fs.write("f", b"1234").unwrap();
        assert!(fs.read_at("f", 2, 10).is_err());
        assert!(fs.read_at("f", 0, 4).is_ok());
    }

    #[test]
    fn read_at_range_overflow_is_a_short_read() {
        let sim = SimFs::new(DiskModel::instant());
        for fs in [&MemFs::new() as &dyn Storage, &sim] {
            fs.write("f", b"1234").unwrap();
            for (offset, len) in [(u64::MAX, 2), (2, usize::MAX), (5, 0)] {
                let err = fs.read_at("f", offset, len).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
            }
            assert_eq!(fs.read_at("f", 4, 0).unwrap(), b"");
        }
    }

    #[test]
    fn memfs_rename_moves_the_entry() {
        let fs = MemFs::new();
        let err = fs.rename("ghost", "a").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(!fs.exists("a"), "a failed rename creates nothing");
        fs.write("a.tmp", b"new contents").unwrap();
        fs.write("a", b"old").unwrap();
        fs.reset_stats();
        fs.rename("a.tmp", "a").unwrap();
        assert!(!fs.exists("a.tmp"));
        assert_eq!(fs.len("a").unwrap(), 12);
        assert_eq!(fs.stats(), StorageStats::default(), "no bytes moved");
        assert_eq!(fs.read("a").unwrap(), b"new contents");
        assert_eq!(fs.list(""), vec!["a".to_string()]);
    }

    #[test]
    fn list_filters_by_prefix_and_sorts() {
        let fs = MemFs::new();
        fs.write("snap/0001/f0.sdf", b"x").unwrap();
        fs.write("snap/0001/f1.sdf", b"x").unwrap();
        fs.write("snap/0002/f0.sdf", b"x").unwrap();
        fs.write("other", b"x").unwrap();
        assert_eq!(
            fs.list("snap/0001/"),
            vec!["snap/0001/f0.sdf".to_string(), "snap/0001/f1.sdf".into()]
        );
        assert_eq!(fs.list("snap/").len(), 3);
        assert_eq!(fs.list("").len(), 4);
    }

    #[test]
    fn rename_replaces_target_on_every_backend() {
        let real_dir = std::env::temp_dir().join(format!("godiva-ren-{}", std::process::id()));
        let real = RealFs::new(&real_dir).unwrap();
        let mem = MemFs::new();
        let sim = SimFs::new(DiskModel::instant());
        for fs in [&real as &dyn Storage, &mem, &sim] {
            fs.write("d/a.tmp", b"new").unwrap();
            fs.write("d/a", b"old").unwrap();
            fs.sync_file("d/a.tmp").unwrap();
            fs.rename("d/a.tmp", "d/a").unwrap();
            fs.sync_dir("d").unwrap();
            assert!(!fs.exists("d/a.tmp"));
            assert_eq!(fs.read("d/a").unwrap(), b"new");
            assert!(fs.rename("d/ghost", "d/a").is_err());
        }
        let _ = std::fs::remove_dir_all(&real_dir);
    }

    #[test]
    fn delete_missing_is_error() {
        let fs = MemFs::new();
        assert!(fs.delete("ghost").is_err());
    }

    #[test]
    fn overwrite_replaces_content() {
        let fs = MemFs::new();
        fs.write("f", b"old").unwrap();
        fs.write("f", b"newer").unwrap();
        assert_eq!(fs.read("f").unwrap(), b"newer");
    }

    #[test]
    fn memfs_counts_stats() {
        let fs = MemFs::new();
        fs.write("f", b"12345").unwrap();
        fs.read("f").unwrap();
        fs.read_at("f", 0, 2).unwrap();
        let s = fs.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 2);
        assert_eq!(s.bytes_written, 5);
        assert_eq!(s.bytes_read, 7);
        fs.reset_stats();
        assert_eq!(fs.stats(), StorageStats::default());
    }

    #[test]
    fn simfs_charges_disk() {
        let fs = SimFs::new(DiskModel::instant());
        fs.write("f", &vec![0u8; 1000]).unwrap();
        fs.read("f").unwrap();
        let s = fs.stats();
        assert_eq!(s.bytes_read, 1000);
        assert_eq!(s.bytes_written, 1000);
        assert!(s.reads >= 1 && s.writes >= 1);
    }

    #[test]
    fn simfs_free_writes_skip_disk() {
        let fs = SimFs::new(DiskModel::instant()).with_free_writes();
        fs.write("f", &vec![0u8; 1000]).unwrap();
        assert_eq!(fs.stats().bytes_written, 0, "writes were free");
        fs.read("f").unwrap();
        assert_eq!(fs.stats().bytes_read, 1000);
    }

    #[test]
    fn simfs_ranged_read_past_end_does_not_charge() {
        let fs = SimFs::new(DiskModel::instant());
        fs.write("f", b"abc").unwrap();
        fs.reset_stats();
        assert!(fs.read_at("f", 1, 10).is_err());
        assert_eq!(fs.stats().bytes_read, 0);
    }
}
