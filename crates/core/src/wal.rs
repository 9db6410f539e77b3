//! The write-ahead log and recovery machinery (DESIGN.md §5g).
//!
//! The GBO is an in-memory database plus a best-effort spill cache:
//! until this module, any crash lost the unit table, the key index and
//! every spill frame's ownership metadata, forcing a cold restart that
//! re-runs all developer read callbacks. The WAL journals record
//! commits and every unit lifecycle transition (add → loaded →
//! finished → evicted/spilled → deleted) so [`crate::Gbo::open_recovering`]
//! can rebuild the unit table, re-adopt surviving checksummed `.gsp`
//! spill frames, and serve revisits from disk after a restart — a warm
//! restart in the QuiverDB style (CRC'd records, monotonic LSNs,
//! group-commit fsync coalescing).
//!
//! ## Record format
//!
//! ```text
//! body length        u32  (bytes of lsn + entry)
//! lsn                u64  (monotonic, contiguous, 1-based)
//! entry tag          u8
//! entry payload      tag-specific (strings are u32 len + bytes)
//! checksum           u64  (XXH64 of lsn..payload under WAL_SEED)
//! ```
//!
//! All integers are little-endian. The log is a single append-only
//! file, `<wal_dir>/wal.log`.
//!
//! ## LSN rules
//!
//! LSNs start at 1 and increase by exactly 1 per record; [`scan_log`]
//! stops at the first record whose length prefix, checksum or LSN is
//! wrong and reports everything after it as a torn tail. Recovery
//! *truncates* there — a torn final record (the expected artifact of a
//! crash mid-append) is not an error — and re-opens the log for
//! appending at the next LSN, physically dropping the tail so old torn
//! bytes can never be mistaken for new records.
//!
//! ## Durability modes
//!
//! - [`Durability::None`] — no journal at all (the pre-WAL behaviour).
//! - [`Durability::Wal`] — append without fsync: the OS page cache
//!   makes records survive a *process* crash (the kill-injection
//!   harness's scenario); an OS crash may lose the un-synced tail,
//!   which recovery then truncates.
//! - [`Durability::WalSync`] — group-commit fsync: every append asks
//!   for its LSN to be durable, but concurrent committers coalesce on
//!   one `fdatasync` — whoever holds the sync lock covers everybody
//!   appended before the call, and the rest skip.

use crate::metrics::GboMetrics;
use crate::schema::RecordTypeDef;
use crate::spill::{put_bytes, sanitize, xxh64, Reader};
use godiva_obs::Tracer;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Seed for every XXH64 checksum in the WAL and snapshot manifest
/// (distinct from the spill frames' seed-0 checksums, so a WAL record
/// can never verify as a frame or vice versa).
const WAL_SEED: u64 = 0x474F_4449_5641_4C31; // "GODIVAL1"

/// The log's file name inside `GboConfig::wal_dir`.
pub const WAL_FILE: &str = "wal.log";

/// Snapshot manifest file name inside a snapshot directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Upper bound on one record's body; anything larger is treated as a
/// torn/corrupt length prefix (entries are names + keys — tiny).
const MAX_BODY: u32 = 16 << 20;

/// How hard the database pushes journal records toward the platter.
/// See the module docs for the semantics of each mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// No write-ahead log, even when `wal_dir` is set.
    None,
    /// Journal without fsync (survives process crashes).
    #[default]
    Wal,
    /// Journal with group-commit fsync (survives OS crashes).
    WalSync,
}

/// One journaled event. The WAL records *metadata* — which units exist,
/// which were loaded, which have a live spill frame — not buffer
/// contents; the bytes live in the checksummed `.gsp` spill frames the
/// log points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalEntry {
    /// `add_unit`/`read_unit` registered (or re-armed) the unit.
    UnitAdded {
        /// Unit name.
        unit: String,
    },
    /// The unit's read function (or a spill restore) completed.
    UnitLoaded {
        /// Unit name.
        unit: String,
    },
    /// `finish_unit` dropped the last pin.
    UnitFinished {
        /// Unit name.
        unit: String,
    },
    /// Eviction published the unit's records as a spill frame.
    UnitSpilled {
        /// Unit name.
        unit: String,
        /// Published frame length in bytes.
        frame_len: u64,
        /// The frame's trailing XXH64 checksum.
        frame_xxh: u64,
    },
    /// The unit's in-memory buffers were evicted.
    UnitEvicted {
        /// Unit name.
        unit: String,
    },
    /// `delete_unit` — the developer's statement that the data is gone;
    /// also invalidates any spill frame.
    UnitDeleted {
        /// Unit name.
        unit: String,
    },
    /// The spill tier dropped the unit's frame (budget eviction,
    /// invalidation, or corruption).
    SpillDropped {
        /// Unit name.
        unit: String,
    },
    /// `commit_record` inserted a record into the key index.
    RecordCommitted {
        /// Owning unit, if the record belongs to one.
        unit: Option<String>,
        /// Record type name.
        type_name: String,
        /// The committed key snapshot (raw key bytes, in key-field
        /// order).
        key: Vec<Vec<u8>>,
    },
}

impl WalEntry {
    /// Short machine-readable name of the entry kind (trace argument).
    pub fn kind(&self) -> &'static str {
        match self {
            WalEntry::UnitAdded { .. } => "unit_added",
            WalEntry::UnitLoaded { .. } => "unit_loaded",
            WalEntry::UnitFinished { .. } => "unit_finished",
            WalEntry::UnitSpilled { .. } => "unit_spilled",
            WalEntry::UnitEvicted { .. } => "unit_evicted",
            WalEntry::UnitDeleted { .. } => "unit_deleted",
            WalEntry::SpillDropped { .. } => "spill_dropped",
            WalEntry::RecordCommitted { .. } => "record_committed",
        }
    }

    /// The unit this entry concerns, if any.
    pub fn unit(&self) -> Option<&str> {
        match self {
            WalEntry::UnitAdded { unit }
            | WalEntry::UnitLoaded { unit }
            | WalEntry::UnitFinished { unit }
            | WalEntry::UnitSpilled { unit, .. }
            | WalEntry::UnitEvicted { unit }
            | WalEntry::UnitDeleted { unit }
            | WalEntry::SpillDropped { unit } => Some(unit),
            WalEntry::RecordCommitted { unit, .. } => unit.as_deref(),
        }
    }
}

// ---------------------------------------------------------------------------
// encode / decode
// ---------------------------------------------------------------------------

fn encode_entry(out: &mut Vec<u8>, entry: &WalEntry) {
    match entry {
        WalEntry::UnitAdded { unit } => {
            out.push(1);
            put_bytes(out, unit.as_bytes());
        }
        WalEntry::UnitLoaded { unit } => {
            out.push(2);
            put_bytes(out, unit.as_bytes());
        }
        WalEntry::UnitFinished { unit } => {
            out.push(3);
            put_bytes(out, unit.as_bytes());
        }
        WalEntry::UnitSpilled {
            unit,
            frame_len,
            frame_xxh,
        } => {
            out.push(4);
            put_bytes(out, unit.as_bytes());
            out.extend_from_slice(&frame_len.to_le_bytes());
            out.extend_from_slice(&frame_xxh.to_le_bytes());
        }
        WalEntry::UnitEvicted { unit } => {
            out.push(5);
            put_bytes(out, unit.as_bytes());
        }
        WalEntry::UnitDeleted { unit } => {
            out.push(6);
            put_bytes(out, unit.as_bytes());
        }
        WalEntry::SpillDropped { unit } => {
            out.push(7);
            put_bytes(out, unit.as_bytes());
        }
        WalEntry::RecordCommitted {
            unit,
            type_name,
            key,
        } => {
            let mut parts = Vec::new();
            key.iter().for_each(|k| put_bytes(&mut parts, k));
            encode_commit(out, unit.as_deref(), type_name, key.len(), &parts);
        }
    }
}

/// A `RecordCommitted` entry from borrowed parts — what the commit path
/// journals without building the owned entry. `key` is the `key_count`
/// key fields as the index stores them (`u32` length + bytes each).
fn encode_commit(
    out: &mut Vec<u8>,
    unit: Option<&str>,
    type_name: &str,
    key_count: usize,
    key: &[u8],
) {
    out.push(8);
    match unit {
        Some(u) => {
            out.push(1);
            put_bytes(out, u.as_bytes());
        }
        None => out.push(0),
    }
    put_bytes(out, type_name.as_bytes());
    out.extend_from_slice(&(key_count as u32).to_le_bytes());
    out.extend_from_slice(key);
}

fn decode_entry(r: &mut Reader) -> Option<WalEntry> {
    let tag = r.u8()?;
    Some(match tag {
        1 => WalEntry::UnitAdded { unit: r.string()? },
        2 => WalEntry::UnitLoaded { unit: r.string()? },
        3 => WalEntry::UnitFinished { unit: r.string()? },
        4 => WalEntry::UnitSpilled {
            unit: r.string()?,
            frame_len: r.u64()?,
            frame_xxh: r.u64()?,
        },
        5 => WalEntry::UnitEvicted { unit: r.string()? },
        6 => WalEntry::UnitDeleted { unit: r.string()? },
        7 => WalEntry::SpillDropped { unit: r.string()? },
        8 => {
            let unit = match r.u8()? {
                0 => None,
                _ => Some(r.string()?),
            };
            let type_name = r.string()?;
            let n = r.u32()? as usize;
            let mut key = Vec::with_capacity(n);
            for _ in 0..n {
                key.push(r.bytes()?.to_vec());
            }
            WalEntry::RecordCommitted {
                unit,
                type_name,
                key,
            }
        }
        _ => return None,
    })
}

/// Frame one record into `out` (cleared first): length prefix, LSN, the
/// entry as `encode` writes it, checksum.
fn encode_record(out: &mut Vec<u8>, lsn: u64, encode: impl FnOnce(&mut Vec<u8>)) {
    out.clear();
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&lsn.to_le_bytes());
    encode(out);
    let body_len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&body_len.to_le_bytes());
    let sum = xxh64(&out[4..], WAL_SEED);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// One decoded log record with its position in the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The record's log sequence number.
    pub lsn: u64,
    /// Byte offset of the record's length prefix in `wal.log`.
    pub offset: u64,
    /// The decoded entry.
    pub entry: WalEntry,
}

/// Result of scanning a log file: the valid prefix plus whether a torn
/// or corrupt tail was dropped.
#[derive(Debug, Default)]
pub struct LogScan {
    /// Every record in the valid prefix, in LSN order.
    pub records: Vec<WalRecord>,
    /// Whether bytes after the valid prefix were discarded.
    pub truncated: bool,
    /// Length in bytes of the valid prefix (recovery truncates the file
    /// here before appending).
    pub valid_len: u64,
}

impl LogScan {
    /// The LSN the next appended record must carry.
    pub fn next_lsn(&self) -> u64 {
        self.records.last().map(|r| r.lsn + 1).unwrap_or(1)
    }
}

/// Scan `path`, returning the longest valid record prefix. A missing
/// file is an empty log, not an error; any framing, checksum or LSN
/// violation ends the prefix (everything after it is a torn tail).
pub fn scan_log(path: &Path) -> io::Result<LogScan> {
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(LogScan::default()),
        Err(e) => return Err(e),
    };
    let mut scan = LogScan::default();
    let mut pos = 0usize;
    let mut expected_lsn = 1u64;
    while pos + 4 <= data.len() {
        let body_len = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes"));
        if !(9..=MAX_BODY).contains(&body_len) {
            break; // nonsense length prefix: torn or corrupt
        }
        let body_len = body_len as usize;
        let Some(end) = pos.checked_add(4 + body_len + 8) else {
            break;
        };
        if end > data.len() {
            break; // torn mid-record
        }
        let body = &data[pos + 4..pos + 4 + body_len];
        let stored = u64::from_le_bytes(data[end - 8..end].try_into().expect("8 bytes"));
        if xxh64(body, WAL_SEED) != stored {
            break; // corrupt record
        }
        let lsn = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
        if lsn != expected_lsn {
            break; // LSN discontinuity: treat like corruption
        }
        let mut r = Reader::new(&body[8..]);
        let Some(entry) = decode_entry(&mut r) else {
            break;
        };
        if !r.done() {
            break; // trailing garbage inside the body
        }
        scan.records.push(WalRecord {
            lsn,
            offset: pos as u64,
            entry,
        });
        pos = end;
        expected_lsn = lsn + 1;
    }
    scan.valid_len = pos as u64;
    scan.truncated = pos < data.len();
    Ok(scan)
}

// ---------------------------------------------------------------------------
// replay
// ---------------------------------------------------------------------------

/// What replay knows about one unit at the end of the valid prefix.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ReplayUnit {
    /// The unit completed at least one load (so a post-recovery re-read
    /// counts as a revisit, not a first read).
    pub loaded: bool,
    /// The unit's live spill frame (length, trailing checksum), if the
    /// last spill-affecting entry published one.
    pub spilled: Option<(u64, u64)>,
    /// Record commits journaled for this unit.
    pub commits: u64,
}

/// The state reconstructed from a log scan.
#[derive(Debug, Default)]
pub struct Replay {
    /// Every unit the valid prefix mentions.
    pub units: HashMap<String, ReplayUnit>,
    /// Records replayed (the `gbo.wal_replayed` figure).
    pub entries: u64,
}

/// Fold a scanned log into per-unit recovery state.
pub fn replay(scan: &LogScan) -> Replay {
    let mut out = Replay::default();
    for rec in &scan.records {
        out.entries += 1;
        match &rec.entry {
            WalEntry::UnitAdded { unit }
            | WalEntry::UnitFinished { unit }
            | WalEntry::UnitEvicted { unit } => {
                out.units.entry(unit.clone()).or_default();
            }
            WalEntry::UnitLoaded { unit } => {
                out.units.entry(unit.clone()).or_default().loaded = true;
            }
            WalEntry::UnitSpilled {
                unit,
                frame_len,
                frame_xxh,
            } => {
                out.units.entry(unit.clone()).or_default().spilled = Some((*frame_len, *frame_xxh));
            }
            WalEntry::UnitDeleted { unit } | WalEntry::SpillDropped { unit } => {
                out.units.entry(unit.clone()).or_default().spilled = None;
            }
            WalEntry::RecordCommitted { unit, .. } => {
                if let Some(unit) = unit {
                    out.units.entry(unit.clone()).or_default().commits += 1;
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// the writer
// ---------------------------------------------------------------------------

/// The append side of the log. The write lock is the innermost lock in
/// the database — journal points append while holding the units or
/// store lock, and the writer never takes any other lock.
pub(crate) struct Wal {
    file: File,
    /// The next LSN and the buffer each record is framed in.
    writer: Mutex<(u64, Vec<u8>)>,
    /// Highest LSN whose bytes reached the file (Release-stored under
    /// the write lock, so an fsync that loads it afterwards covers it).
    appended_lsn: AtomicU64,
    /// Highest LSN known durable; the group-commit coalescing point.
    synced_lsn: AtomicU64,
    sync_lock: Mutex<()>,
    sync_each: bool,
    /// Set on the first I/O error: journaling stops (the run degrades
    /// to a cold-restart guarantee) instead of failing lifecycle ops.
    dead: AtomicBool,
}

impl Wal {
    /// Start a fresh log in `dir` (truncating any previous one).
    pub(crate) fn create(dir: &Path, sync_each: bool) -> io::Result<Wal> {
        std::fs::create_dir_all(dir)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(WAL_FILE))?;
        file.set_len(0)?;
        Ok(Self::from_file(file, 1, sync_each))
    }

    /// Re-open an existing log for appending after recovery, truncating
    /// the torn tail at `valid_len` and continuing at `next_lsn`.
    pub(crate) fn open_at(
        dir: &Path,
        sync_each: bool,
        next_lsn: u64,
        valid_len: u64,
    ) -> io::Result<Wal> {
        std::fs::create_dir_all(dir)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(WAL_FILE))?;
        file.set_len(valid_len)?;
        Ok(Self::from_file(file, next_lsn, sync_each))
    }

    fn from_file(file: File, next_lsn: u64, sync_each: bool) -> Wal {
        Wal {
            file,
            writer: Mutex::new((next_lsn, Vec::new())),
            appended_lsn: AtomicU64::new(next_lsn.saturating_sub(1)),
            synced_lsn: AtomicU64::new(0),
            sync_lock: Mutex::new(()),
            sync_each,
            dead: AtomicBool::new(false),
        }
    }

    /// Highest LSN ever appended (0 on a fresh log).
    pub(crate) fn last_lsn(&self) -> u64 {
        self.appended_lsn.load(Ordering::Acquire)
    }

    fn poison(&self, op: &str, err: &io::Error) {
        if !self.dead.swap(true, Ordering::Relaxed) {
            eprintln!(
                "godiva: WAL {op} failed ({err}); journaling disabled for the rest of this run"
            );
        }
    }

    /// Append one entry, assigning the next LSN. In `WalSync` mode the
    /// call also waits for the entry to be durable (coalescing with
    /// concurrent committers). Errors poison the log rather than fail
    /// the caller's lifecycle operation.
    pub(crate) fn append(&self, metrics: &GboMetrics, tracer: &Tracer, entry: &WalEntry) {
        self.append_with(metrics, tracer, entry.kind(), |out| {
            encode_entry(out, entry)
        });
    }

    /// [`Wal::append`] of a `RecordCommitted` entry, from the store's own
    /// data: the owning unit, the record type and the encoded key.
    pub(crate) fn append_commit(
        &self,
        metrics: &GboMetrics,
        tracer: &Tracer,
        unit: Option<&str>,
        rt: &RecordTypeDef,
        key: &[u8],
    ) {
        self.append_with(metrics, tracer, "record_committed", |out| {
            encode_commit(out, unit, &rt.name, rt.declared_keys, key)
        });
    }

    fn append_with(
        &self,
        metrics: &GboMetrics,
        tracer: &Tracer,
        kind: &'static str,
        encode: impl FnOnce(&mut Vec<u8>),
    ) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        let lsn;
        let len;
        {
            let mut writer = self.writer.lock();
            let (next, rec) = &mut *writer;
            lsn = *next;
            encode_record(rec, lsn, encode);
            len = rec.len() as u64;
            if let Err(e) = (&self.file).write_all(rec) {
                self.poison("append", &e);
                return;
            }
            *next = lsn + 1;
            self.appended_lsn.store(lsn, Ordering::Release);
        }
        metrics.wal_appends.inc();
        metrics.wal_bytes.add(len);
        if tracer.enabled() {
            tracer.instant(
                "gbo",
                "wal_append",
                vec![
                    ("lsn", lsn.into()),
                    ("kind", kind.into()),
                    ("bytes", len.into()),
                ],
            );
        }
        crate::crash::crash_point("wal_append");
        if self.sync_each {
            self.sync_to(lsn, metrics, tracer);
        }
    }

    /// Make every record up to `lsn` durable. Committers whose LSN an
    /// earlier fsync already covered return without touching the disk —
    /// the group-commit coalescing.
    pub(crate) fn sync_to(&self, lsn: u64, metrics: &GboMetrics, tracer: &Tracer) {
        if self.dead.load(Ordering::Relaxed) || self.synced_lsn.load(Ordering::Acquire) >= lsn {
            return;
        }
        let _g = self.sync_lock.lock();
        if self.synced_lsn.load(Ordering::Acquire) >= lsn {
            return; // somebody's fsync covered us while we waited
        }
        let cover = self.appended_lsn.load(Ordering::Acquire);
        let t0 = tracer.now_us();
        if let Err(e) = self.file.sync_data() {
            self.poison("fsync", &e);
            return;
        }
        self.synced_lsn.fetch_max(cover, Ordering::AcqRel);
        metrics.wal_fsyncs.inc();
        if tracer.enabled() {
            tracer.complete("gbo", "wal_fsync", t0, vec![("lsn", cover.into())]);
        }
        crate::crash::crash_point("wal_fsync");
    }
}

// ---------------------------------------------------------------------------
// snapshots (manifest + frozen frames)
// ---------------------------------------------------------------------------

/// Result of [`crate::Gbo::snapshot`]: what the point-in-time copy holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// WAL LSN the snapshot is stamped with (0 when no WAL is active).
    pub lsn: u64,
    /// Units listed in the manifest.
    pub units: usize,
    /// Frozen spill frames copied next to it.
    pub frames: usize,
    /// Total frame bytes copied.
    pub bytes: u64,
}

/// Result of [`crate::Gbo::restore_snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreInfo {
    /// Units re-seeded into the new WAL.
    pub units: usize,
    /// Frames copied into the spill directory.
    pub frames: usize,
}

/// One manifest line: a unit and (optionally) its frozen frame.
pub(crate) struct ManifestUnit {
    pub(crate) name: String,
    pub(crate) loaded: bool,
    /// `(file name, length, trailing checksum)` of the frozen frame.
    pub(crate) frame: Option<(String, u64, u64)>,
}

/// Write the snapshot manifest atomically (tmp + rename). The body is
/// itself checksummed, so a torn manifest is detected at restore.
pub(crate) fn write_manifest(dir: &Path, lsn: u64, units: &[ManifestUnit]) -> io::Result<()> {
    let mut body = String::from("GSNAP v1\n");
    body.push_str(&format!("lsn {lsn}\n"));
    for u in units {
        let (file, len, xxh) = match &u.frame {
            Some((f, l, x)) => (f.as_str(), *l, *x),
            None => ("-", 0, 0),
        };
        body.push_str(&format!(
            "unit {} loaded={} frame={} len={} xxh={:016x}\n",
            sanitize(&u.name),
            u.loaded as u8,
            file,
            len,
            xxh
        ));
    }
    let sum = xxh64(body.as_bytes(), WAL_SEED);
    body.push_str(&format!("checksum {sum:016x}\n"));
    let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
    std::fs::write(&tmp, body)?;
    File::open(&tmp)?.sync_data()?;
    std::fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_data();
    }
    Ok(())
}

fn manifest_err(msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("snapshot manifest: {msg}"),
    )
}

/// Parse and verify a snapshot manifest: `(lsn, units)`.
pub(crate) fn read_manifest(dir: &Path) -> io::Result<(u64, Vec<ManifestUnit>)> {
    let text = std::fs::read_to_string(dir.join(MANIFEST_FILE))?;
    let (body, checksum_line) = text
        .strip_suffix('\n')
        .and_then(|t| t.rsplit_once('\n'))
        .map(|(b, c)| (format!("{b}\n"), c))
        .ok_or_else(|| manifest_err("too short"))?;
    let stored = checksum_line
        .strip_prefix("checksum ")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| manifest_err("missing checksum line"))?;
    if xxh64(body.as_bytes(), WAL_SEED) != stored {
        return Err(manifest_err("checksum mismatch"));
    }
    let mut lines = body.lines();
    if lines.next() != Some("GSNAP v1") {
        return Err(manifest_err("bad magic"));
    }
    let lsn: u64 = lines
        .next()
        .and_then(|l| l.strip_prefix("lsn "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| manifest_err("missing lsn"))?;
    let mut units = Vec::new();
    for line in lines {
        let rest = line
            .strip_prefix("unit ")
            .ok_or_else(|| manifest_err("unexpected line"))?;
        let mut parts = rest.split(' ');
        let name = parts
            .next()
            .and_then(crate::spill::desanitize)
            .ok_or_else(|| manifest_err("bad unit name"))?;
        let mut loaded = false;
        let mut frame_file: Option<String> = None;
        let mut len = 0u64;
        let mut xxh = 0u64;
        for p in parts {
            if let Some(v) = p.strip_prefix("loaded=") {
                loaded = v == "1";
            } else if let Some(v) = p.strip_prefix("frame=") {
                if v != "-" {
                    frame_file = Some(v.to_string());
                }
            } else if let Some(v) = p.strip_prefix("len=") {
                len = v.parse().map_err(|_| manifest_err("bad len"))?;
            } else if let Some(v) = p.strip_prefix("xxh=") {
                xxh = u64::from_str_radix(v, 16).map_err(|_| manifest_err("bad xxh"))?;
            }
        }
        units.push(ManifestUnit {
            name,
            loaded,
            frame: frame_file.map(|f| (f, len, xxh)),
        });
    }
    Ok((lsn, units))
}

#[cfg(test)]
mod tests {
    use super::*;
    use godiva_obs::Tracer;

    fn entries() -> Vec<WalEntry> {
        vec![
            WalEntry::UnitAdded { unit: "u1".into() },
            WalEntry::RecordCommitted {
                unit: Some("u1".into()),
                type_name: "t".into(),
                key: vec![b"k1".to_vec(), b"k2".to_vec()],
            },
            WalEntry::UnitLoaded { unit: "u1".into() },
            WalEntry::UnitFinished { unit: "u1".into() },
            WalEntry::UnitSpilled {
                unit: "u1".into(),
                frame_len: 123,
                frame_xxh: 0xDEAD_BEEF,
            },
            WalEntry::UnitEvicted { unit: "u1".into() },
            WalEntry::SpillDropped { unit: "u1".into() },
            WalEntry::UnitDeleted { unit: "u1".into() },
            WalEntry::RecordCommitted {
                unit: None,
                type_name: "meta".into(),
                key: vec![],
            },
        ]
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("godiva-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_scan_roundtrip_every_entry_kind() {
        let dir = temp_dir("roundtrip");
        let wal = Wal::create(&dir, false).unwrap();
        let m = GboMetrics::new(None);
        let t = Tracer::disabled();
        for e in entries() {
            wal.append(&m, &t, &e);
        }
        assert_eq!(wal.last_lsn(), entries().len() as u64);
        let scan = scan_log(&dir.join(WAL_FILE)).unwrap();
        assert!(!scan.truncated);
        assert_eq!(
            scan.records
                .iter()
                .map(|r| r.entry.clone())
                .collect::<Vec<_>>(),
            entries()
        );
        assert_eq!(
            scan.records.iter().map(|r| r.lsn).collect::<Vec<_>>(),
            (1..=entries().len() as u64).collect::<Vec<_>>()
        );
        assert_eq!(m.wal_appends.get(), entries().len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_at_every_byte_offset() {
        let dir = temp_dir("torn");
        let wal = Wal::create(&dir, false).unwrap();
        let m = GboMetrics::new(None);
        let t = Tracer::disabled();
        for e in entries() {
            wal.append(&m, &t, &e);
        }
        drop(wal);
        let path = dir.join(WAL_FILE);
        let full = std::fs::read(&path).unwrap();
        let whole = scan_log(&path).unwrap();
        let boundaries: Vec<u64> = whole
            .records
            .iter()
            .map(|r| r.offset)
            .chain([full.len() as u64])
            .collect();
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = scan_log(&path).unwrap();
            // The valid prefix ends at the last record boundary ≤ cut.
            let expect_len = *boundaries.iter().rfind(|&&b| b <= cut as u64).unwrap_or(&0);
            assert_eq!(scan.valid_len, expect_len, "cut at {cut}");
            assert_eq!(scan.truncated, scan.valid_len < cut as u64, "cut at {cut}");
            // Replay of any prefix never errors and mentions no unit
            // the full log does not.
            let r = replay(&scan);
            assert!(r.units.keys().all(|u| u == "u1"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_middle_record_ends_the_prefix() {
        let dir = temp_dir("corrupt");
        let wal = Wal::create(&dir, false).unwrap();
        let m = GboMetrics::new(None);
        let t = Tracer::disabled();
        for e in entries() {
            wal.append(&m, &t, &e);
        }
        drop(wal);
        let path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let scan = scan_log(&path).unwrap();
        let third = scan.records[2].offset as usize;
        bytes[third + 6] ^= 0xFF; // flip a byte inside record 3's body
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_log(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(scan.truncated);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_continues_lsns_after_truncation() {
        let dir = temp_dir("reopen");
        let wal = Wal::create(&dir, false).unwrap();
        let m = GboMetrics::new(None);
        let t = Tracer::disabled();
        for e in entries() {
            wal.append(&m, &t, &e);
        }
        drop(wal);
        let path = dir.join(WAL_FILE);
        // Tear the last record in half.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let scan = scan_log(&path).unwrap();
        assert!(scan.truncated);
        let next = scan.next_lsn();
        let wal = Wal::open_at(&dir, false, next, scan.valid_len).unwrap();
        wal.append(&m, &t, &WalEntry::UnitAdded { unit: "u2".into() });
        drop(wal);
        let scan = scan_log(&path).unwrap();
        assert!(!scan.truncated);
        assert_eq!(scan.records.last().unwrap().lsn, next);
        assert_eq!(
            scan.records.last().unwrap().entry,
            WalEntry::UnitAdded { unit: "u2".into() }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_folds_lifecycle_into_unit_state() {
        let scan = LogScan {
            records: [
                WalEntry::UnitAdded { unit: "a".into() },
                WalEntry::UnitLoaded { unit: "a".into() },
                WalEntry::UnitSpilled {
                    unit: "a".into(),
                    frame_len: 10,
                    frame_xxh: 7,
                },
                WalEntry::UnitEvicted { unit: "a".into() },
                WalEntry::UnitAdded { unit: "b".into() },
                WalEntry::UnitLoaded { unit: "b".into() },
                WalEntry::UnitSpilled {
                    unit: "b".into(),
                    frame_len: 20,
                    frame_xxh: 9,
                },
                WalEntry::UnitDeleted { unit: "b".into() },
                WalEntry::RecordCommitted {
                    unit: Some("a".into()),
                    type_name: "t".into(),
                    key: vec![],
                },
            ]
            .into_iter()
            .enumerate()
            .map(|(i, entry)| WalRecord {
                lsn: i as u64 + 1,
                offset: 0,
                entry,
            })
            .collect(),
            truncated: false,
            valid_len: 0,
        };
        let r = replay(&scan);
        assert_eq!(r.entries, 9);
        let a = &r.units["a"];
        assert!(a.loaded);
        assert_eq!(a.spilled, Some((10, 7)));
        assert_eq!(a.commits, 1);
        let b = &r.units["b"];
        assert!(b.loaded);
        assert_eq!(b.spilled, None, "delete invalidates the frame");
    }

    #[test]
    fn group_commit_coalesces_fsyncs() {
        let dir = temp_dir("sync");
        let wal = Wal::create(&dir, false).unwrap();
        let m = GboMetrics::new(None);
        let t = Tracer::disabled();
        for e in entries() {
            wal.append(&m, &t, &e);
        }
        let last = wal.last_lsn();
        wal.sync_to(last, &m, &t);
        assert_eq!(m.wal_fsyncs.get(), 1);
        // Everything appended before the fsync is covered: no new fsync.
        wal.sync_to(1, &m, &t);
        wal.sync_to(last, &m, &t);
        assert_eq!(m.wal_fsyncs.get(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_roundtrip_and_corruption() {
        let dir = temp_dir("manifest");
        let units = vec![
            ManifestUnit {
                name: "snap 1/a".into(),
                loaded: true,
                frame: Some(("snap%201%2Fa.gsp".into(), 42, 0xABCD)),
            },
            ManifestUnit {
                name: "b".into(),
                loaded: false,
                frame: None,
            },
        ];
        write_manifest(&dir, 17, &units).unwrap();
        let (lsn, read) = read_manifest(&dir).unwrap();
        assert_eq!(lsn, 17);
        assert_eq!(read.len(), 2);
        assert_eq!(read[0].name, "snap 1/a");
        assert!(read[0].loaded);
        assert_eq!(read[0].frame, Some(("snap%201%2Fa.gsp".into(), 42, 0xABCD)));
        assert_eq!(read[1].name, "b");
        assert!(!read[1].loaded);
        assert!(read[1].frame.is_none());
        // A flipped byte fails the manifest checksum.
        let p = dir.join(MANIFEST_FILE);
        let mut text = std::fs::read(&p).unwrap();
        text[10] ^= 0x01;
        std::fs::write(&p, &text).unwrap();
        assert!(read_manifest(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
