//! The write-ahead log and recovery machinery (DESIGN.md §5g).
//!
//! The GBO is an in-memory database plus a best-effort spill cache.
//! The WAL journals record commits and every unit lifecycle transition
//! (add → loaded → finished → evicted/spilled → deleted) so
//! [`crate::Gbo::open_recovering`] can rebuild the unit table, re-adopt
//! surviving checksummed spill frames, and serve revisits from disk
//! after a restart instead of re-running every read callback — a warm
//! restart in the QuiverDB style (CRC'd records, monotonic LSNs,
//! group-commit fsync coalescing).
//!
//! ## Record format
//!
//! A record is a `u32` body length followed by this body, sealed by
//! `frame.rs` under `WAL_SEED`:
//!
//! ```text
//! lsn                u64  (monotonic, contiguous, 1-based)
//! entry tag          u8
//! entry payload      tag-specific (strings are u32 len + bytes)
//! ```
//!
//! The log is a single append-only file, `<wal_dir>/wal.log`. A
//! **snapshot** ([`crate::Gbo::snapshot`]) is a directory holding a
//! compacted log in this same format beside copies of the frames it
//! names, so recovery reads it like any other log.
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

use crate::db::{Gbo, GboConfig};
use crate::error::{GodivaError, Result};
use crate::frame::{self, put_bytes, Reader};
use crate::schema::RecordTypeDef;
use crate::telemetry::Telemetry;
use crate::unit::UnitState;
use crate::units::UnitEntry;
use godiva_platform::RealFs;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Seed for every XXH64 checksum in the WAL (distinct from the spill
/// frames' seed-0 checksums, so a WAL record can never verify as a
/// frame or vice versa).
const WAL_SEED: u64 = 0x474F_4449_5641_4C31; // "GODIVAL1"

/// The log's file name inside `GboConfig::wal_dir` (and inside a
/// snapshot directory).
pub const WAL_FILE: &str = "wal.log";

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
    /// The entry's on-disk tag byte and its kind name.
    fn tag_and_kind(&self) -> (u8, &'static str) {
        match self {
            WalEntry::UnitAdded { .. } => (1, "unit_added"),
            WalEntry::UnitLoaded { .. } => (2, "unit_loaded"),
            WalEntry::UnitFinished { .. } => (3, "unit_finished"),
            WalEntry::UnitSpilled { .. } => (4, "unit_spilled"),
            WalEntry::UnitEvicted { .. } => (5, "unit_evicted"),
            WalEntry::UnitDeleted { .. } => (6, "unit_deleted"),
            WalEntry::SpillDropped { .. } => (7, "spill_dropped"),
            WalEntry::RecordCommitted { .. } => (8, "record_committed"),
        }
    }

    /// Short machine-readable name of the entry kind (trace argument).
    pub fn kind(&self) -> &'static str {
        self.tag_and_kind().1
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
    if let WalEntry::RecordCommitted {
        unit,
        type_name,
        key,
    } = entry
    {
        let mut parts = Vec::new();
        key.iter().for_each(|k| put_bytes(&mut parts, k));
        return encode_commit(out, unit.as_deref(), type_name, key.len(), &parts);
    }
    // Every other entry is its tag and its unit name…
    out.push(entry.tag_and_kind().0);
    put_bytes(out, entry.unit().expect("lifecycle entry").as_bytes());
    // …and a spill names the frame it published.
    if let WalEntry::UnitSpilled {
        frame_len,
        frame_xxh,
        ..
    } = entry
    {
        out.extend_from_slice(&frame_len.to_le_bytes());
        out.extend_from_slice(&frame_xxh.to_le_bytes());
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
    out.extend_from_slice(&[8, unit.is_some() as u8]);
    if let Some(unit) = unit {
        put_bytes(out, unit.as_bytes());
    }
    put_bytes(out, type_name.as_bytes());
    out.extend_from_slice(&(key_count as u32).to_le_bytes());
    out.extend_from_slice(key);
}

fn decode_entry(r: &mut Reader) -> Option<WalEntry> {
    let tag = r.u8()?;
    if tag == 8 {
        let unit = match r.u8()? {
            0 => None,
            _ => Some(r.string()?),
        };
        let type_name = r.string()?;
        let key = (0..r.count(4)?)
            .map(|_| r.bytes().map(<[u8]>::to_vec))
            .collect::<Option<_>>()?;
        return Some(WalEntry::RecordCommitted {
            unit,
            type_name,
            key,
        });
    }
    let unit = r.string()?;
    Some(match tag {
        1 => WalEntry::UnitAdded { unit },
        2 => WalEntry::UnitLoaded { unit },
        3 => WalEntry::UnitFinished { unit },
        4 => WalEntry::UnitSpilled {
            unit,
            frame_len: r.u64()?,
            frame_xxh: r.u64()?,
        },
        5 => WalEntry::UnitEvicted { unit },
        6 => WalEntry::UnitDeleted { unit },
        7 => WalEntry::SpillDropped { unit },
        _ => return None,
    })
}

/// Append one record to `out`: length prefix, then the LSN and the entry
/// as `encode` writes it, sealed.
fn encode_record(out: &mut Vec<u8>, lsn: u64, encode: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&lsn.to_le_bytes());
    encode(out);
    let body_len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
    frame::seal(out, start + 4, WAL_SEED);
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
    match std::fs::read(path) {
        Ok(data) => Ok(scan_bytes(&data)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(LogScan::default()),
        Err(e) => Err(e),
    }
}

/// [`scan_log`] of a log already in memory.
fn scan_bytes(data: &[u8]) -> LogScan {
    let mut scan = LogScan::default();
    let mut log = Reader::new(data);
    loop {
        let (offset, lsn) = (log.pos() as u64, scan.next_lsn());
        let Some(entry) = next_record(&mut log, lsn) else {
            scan.valid_len = offset;
            scan.truncated = offset < data.len() as u64;
            return scan;
        };
        scan.records.push(WalRecord { lsn, offset, entry });
    }
}

/// The record at the head of `log`, if it is whole, its length prefix
/// sane, its checksum right, its LSN the expected one and its body
/// exactly one entry.
fn next_record(log: &mut Reader, expected_lsn: u64) -> Option<WalEntry> {
    let body_len = log.u32().filter(|n| (9..=MAX_BODY).contains(n))? as usize;
    let mut r = Reader::new(frame::open(log.take(body_len + 8)?, WAL_SEED)?);
    if r.u64()? != expected_lsn {
        return None;
    }
    decode_entry(&mut r).filter(|_| r.done())
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
        let Some(unit) = rec.entry.unit() else {
            continue;
        };
        let state = out.units.entry(unit.to_string()).or_default();
        match rec.entry {
            WalEntry::UnitLoaded { .. } => state.loaded = true,
            WalEntry::UnitSpilled {
                frame_len,
                frame_xxh,
                ..
            } => state.spilled = Some((frame_len, frame_xxh)),
            WalEntry::UnitDeleted { .. } | WalEntry::SpillDropped { .. } => state.spilled = None,
            WalEntry::RecordCommitted { .. } => state.commits += 1,
            _ => {}
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
    tel: Arc<Telemetry>,
}

impl Wal {
    /// Start a fresh log in `dir` (truncating any previous one).
    pub(crate) fn create(dir: &Path, sync_each: bool, tel: Arc<Telemetry>) -> io::Result<Wal> {
        Self::open_after(dir, sync_each, &LogScan::default(), tel)
    }

    /// Re-open the log `scan` was read from for appending: truncate the
    /// torn tail after its valid prefix and continue at its next LSN.
    pub(crate) fn open_after(
        dir: &Path,
        sync_each: bool,
        scan: &LogScan,
        tel: Arc<Telemetry>,
    ) -> io::Result<Wal> {
        let next_lsn = scan.next_lsn();
        std::fs::create_dir_all(dir)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(WAL_FILE))?;
        file.set_len(scan.valid_len)?;
        Ok(Wal {
            file,
            writer: Mutex::new((next_lsn, Vec::new())),
            appended_lsn: AtomicU64::new(next_lsn.saturating_sub(1)),
            synced_lsn: AtomicU64::new(0),
            sync_lock: Mutex::new(()),
            sync_each,
            dead: AtomicBool::new(false),
            tel,
        })
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
    pub(crate) fn append(&self, entry: &WalEntry) {
        self.append_with(false, entry.kind(), |out| encode_entry(out, entry));
    }

    /// [`Wal::append`] of a `RecordCommitted` entry, from the store's own
    /// data: the owning unit, the record type and the encoded key.
    pub(crate) fn append_commit(&self, unit: Option<&str>, rt: &RecordTypeDef, key: &[u8]) {
        self.append_with(true, "record_committed", |out| {
            encode_commit(out, unit, &rt.name, rt.declared_keys, key)
        });
    }

    /// `per_record`: the entry journals a record commit, so its
    /// telemetry is a per-record event.
    fn append_with(&self, per_record: bool, kind: &'static str, encode: impl FnOnce(&mut Vec<u8>)) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        let lsn;
        let len;
        {
            let mut writer = self.writer.lock();
            let (next, rec) = &mut *writer;
            lsn = *next;
            rec.clear();
            encode_record(rec, lsn, encode);
            len = rec.len() as u64;
            if let Err(e) = (&self.file).write_all(rec) {
                self.poison("append", &e);
                return;
            }
            *next = lsn + 1;
            self.appended_lsn.store(lsn, Ordering::Release);
        }
        self.tel.wal_append(per_record, lsn, kind, len);
        crate::crash::crash_point("wal_append");
        if self.sync_each {
            self.sync_to(lsn, per_record);
        }
    }

    /// Make every record up to `lsn` durable. Committers whose LSN an
    /// earlier fsync already covered return without touching the disk —
    /// the group-commit coalescing.
    pub(crate) fn sync_to(&self, lsn: u64, per_record: bool) {
        if self.dead.load(Ordering::Relaxed) || self.synced_lsn.load(Ordering::Acquire) >= lsn {
            return;
        }
        let _g = self.sync_lock.lock();
        if self.synced_lsn.load(Ordering::Acquire) >= lsn {
            return; // somebody's fsync covered us while we waited
        }
        let cover = self.appended_lsn.load(Ordering::Acquire);
        let t0 = self.tel.now_us();
        if let Err(e) = self.file.sync_data() {
            self.poison("fsync", &e);
            return;
        }
        self.synced_lsn.fetch_max(cover, Ordering::AcqRel);
        self.tel.wal_fsync(per_record, cover, t0);
        crate::crash::crash_point("wal_fsync");
    }
}

// ---------------------------------------------------------------------------
// recovery and snapshots
// ---------------------------------------------------------------------------

/// Result of [`crate::Gbo::snapshot`]: what the point-in-time copy holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Live WAL LSN the snapshot was cut at (0 when no WAL is active).
    pub lsn: u64,
    /// Units named in the snapshot's log.
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

/// The frames a scanned log leaves live, each with its `(length,
/// trailing checksum)`, in LSN order of the `UnitSpilled` that published
/// it — so adopting them in turn rebuilds the spill tier's recency.
fn live_frames<'a>(scan: &'a LogScan, rep: &Replay) -> Vec<(&'a str, (u64, u64))> {
    let mut seen = HashSet::new();
    let mut live: Vec<_> = scan
        .records
        .iter()
        .rev()
        .filter_map(|rec| match &rec.entry {
            WalEntry::UnitSpilled { unit, .. } if seen.insert(unit) => {
                Some((unit.as_str(), rep.units.get(unit)?.spilled?))
            }
            _ => None,
        })
        .collect();
    live.reverse();
    live
}

/// The shortest log that replays to `state` ([`replay`]'s inverse, less
/// the commit counts), units in name order, LSNs 1…n.
fn compacted_log(state: &BTreeMap<String, ReplayUnit>) -> Vec<u8> {
    let (mut log, mut lsn) = (Vec::new(), 0);
    let mut put = |entry: WalEntry| {
        lsn += 1;
        encode_record(&mut log, lsn, |out| encode_entry(out, &entry));
    };
    for (unit, state) in state {
        let unit = || unit.clone();
        put(WalEntry::UnitAdded { unit: unit() });
        if state.loaded {
            put(WalEntry::UnitLoaded { unit: unit() });
        }
        if let Some((frame_len, frame_xxh)) = state.spilled {
            put(WalEntry::UnitSpilled {
                unit: unit(),
                frame_len,
                frame_xxh,
            });
            put(WalEntry::UnitEvicted { unit: unit() });
        }
    }
    log
}

impl Gbo {
    /// Open a database with **crash recovery**: scan the WAL in
    /// `config.wal_dir`, truncate any torn tail, rebuild the unit table
    /// from the journaled lifecycle, re-adopt surviving checksummed
    /// spill frames (warm restart — revisits re-materialize from disk
    /// instead of re-running read callbacks), and continue journaling
    /// to the same log. Without a `wal_dir` (or with
    /// [`Durability::None`]) this is plain [`Gbo::with_config`] — a
    /// cold start.
    ///
    /// Recovery invariants (DESIGN.md §5g): replay stops at the first
    /// torn or corrupt record and *truncates* there rather than
    /// erroring; every unit surviving replay re-enters `Registered`, so
    /// schemas and read callbacks must be re-declared by the
    /// application before waits; frames are adopted in journal order,
    /// oldest first, within the tier's budget.
    pub fn open_recovering(config: GboConfig) -> Result<Gbo> {
        let dir = match (&config.wal_dir, config.durability) {
            (Some(dir), Durability::Wal | Durability::WalSync) => dir.clone(),
            _ => return Ok(Self::with_config(config)),
        };
        let path = dir.join(WAL_FILE);
        let file_len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let scan = scan_log(&path)?;
        let rep = replay(&scan);
        let sync = config.durability == Durability::WalSync;
        let tel = Telemetry::new(&config);
        let walh = Wal::open_after(&dir, sync, &scan, Arc::clone(&tel))?;
        let gbo = Self::build(config, tel, Some(Arc::new(walh)));
        let inner = &gbo.inner;
        let span_start = inner.tel.now_us();
        {
            let mut st = inner.units.lock();
            for (name, ru) in &rep.units {
                let entry = st
                    .units
                    .entry(name.clone())
                    .or_insert_with(|| UnitEntry::new(name, None, UnitState::Registered));
                if ru.loaded {
                    // Preserve revisit accounting: a recovered unit that
                    // had loaded counts as previously-loaded, so its next
                    // read is a revisit (spill hit or miss), not a first
                    // load.
                    entry.mark_loaded(&inner.units.clock);
                }
            }
        }
        let mut adopted = 0u64;
        if let Some(spill) = &inner.units.spill {
            spill.sweep_tmp();
            for (name, (len, xxh)) in live_frames(&scan, &rep) {
                adopted += spill.adopt(name, len, xxh) as u64;
            }
        }
        let truncated = file_len.saturating_sub(scan.valid_len);
        inner
            .tel
            .wal_replay(rep.entries, rep.units.len(), adopted, truncated, span_start);
        Ok(gbo)
    }

    /// Write a point-in-time snapshot of the database's durable state
    /// into `dir`: copies of the live spill frames, at the path the
    /// spill tier keeps them, and a compacted `wal.log` naming every
    /// unit and every copied frame. The directory is a recoverable
    /// database: [`Gbo::open_recovering`] with `wal_dir = dir` and a
    /// spill tier over a `RealFs` at `dir` (same `SpillConfig::dir`)
    /// warm-starts from it; [`Gbo::restore_snapshot`] seeds a run
    /// elsewhere and leaves the snapshot untouched.
    ///
    /// Spill frames are immutable once published (eviction *replaces* a
    /// frame by atomic rename, never mutates it in place), so the
    /// copies are taken outside the database locks — an in-progress run
    /// keeps committing while the snapshot is cut — and each is
    /// checksum-verified before it is frozen.
    pub fn snapshot(&self, dir: impl AsRef<Path>) -> Result<SnapshotInfo> {
        let dst = RealFs::new(dir.as_ref())?;
        let units = &self.inner.units;
        let lsn = units.wal.as_ref().map_or(0, |w| w.last_lsn());
        // Frames first, units second: the unit table only grows, so
        // every copied frame's unit is in the listing.
        let copied: HashMap<String, (u64, u64)> = match &units.spill {
            Some(spill) => spill.copy_live(&dst)?.into_iter().collect(),
            None => HashMap::new(),
        };
        let mut state = BTreeMap::new();
        for (name, e) in &units.lock().units {
            let unit = ReplayUnit {
                loaded: e.loaded_seq > 0,
                spilled: copied.get(name).copied(),
                commits: 0, // a snapshot names units and frames, not records
            };
            state.insert(name.clone(), unit);
        }
        frame::publish(&dst, ".", WAL_FILE, &compacted_log(&state))?;
        Ok(SnapshotInfo {
            lsn,
            units: state.len(),
            frames: copied.len(),
            bytes: copied.values().map(|(len, _)| len).sum(),
        })
    }

    /// Seed a **new** run from a snapshot directory, leaving the
    /// snapshot intact: copy the frames its log says are live into
    /// `config`'s spill storage (looked up under `config.spill.dir`, as
    /// the snapshotting tier laid them out) and publish the log itself
    /// into `config.wal_dir`, so a subsequent [`Gbo::open_recovering`]
    /// with the same config starts warm — cheap session forking off a
    /// backup. Requires `config.wal_dir`; frames are only planted when
    /// `config.spill` is set. A snapshot log with a torn or corrupt
    /// record is an `InvalidData` error: a snapshot is published whole.
    pub fn restore_snapshot(
        snapshot_dir: impl AsRef<Path>,
        config: &GboConfig,
    ) -> Result<RestoreInfo> {
        let snapshot_dir = snapshot_dir.as_ref();
        let error = |kind, msg: &str| Err(GodivaError::from(io::Error::new(kind, msg)));
        let Some(wal_dir) = &config.wal_dir else {
            let msg = "restore_snapshot requires GboConfig.wal_dir";
            return error(io::ErrorKind::InvalidInput, msg);
        };
        let log = std::fs::read(snapshot_dir.join(WAL_FILE))?;
        let scan = scan_bytes(&log);
        if scan.truncated {
            let msg = "snapshot log: torn or corrupt record";
            return error(io::ErrorKind::InvalidData, msg);
        }
        let rep = replay(&scan);
        let mut frames = 0;
        if let Some(spill) = &config.spill {
            let src = RealFs::new(snapshot_dir)?;
            let live = live_frames(&scan, &rep);
            let live = live.iter().map(|&(unit, frame)| (unit, Some(frame)));
            frames = crate::spill::copy_frames(&src, &*spill.storage, &spill.dir, live)?.len();
        }
        frame::publish(&RealFs::new(wal_dir)?, ".", WAL_FILE, &log)?;
        Ok(RestoreInfo {
            units: rep.units.len(),
            frames,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh log in `dir` and the telemetry it counts into.
    fn fresh_wal(dir: &Path) -> (Wal, Arc<Telemetry>) {
        let tel = Telemetry::new(&GboConfig::default());
        (Wal::create(dir, false, Arc::clone(&tel)).unwrap(), tel)
    }

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
        let (wal, tel) = fresh_wal(&dir);
        for e in entries() {
            wal.append(&e);
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
        assert_eq!(tel.metrics.wal_appends.get(), entries().len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_at_every_byte_offset() {
        let dir = temp_dir("torn");
        let (wal, _) = fresh_wal(&dir);
        for e in entries() {
            wal.append(&e);
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
        let (wal, _) = fresh_wal(&dir);
        for e in entries() {
            wal.append(&e);
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
        let (wal, tel) = fresh_wal(&dir);
        for e in entries() {
            wal.append(&e);
        }
        drop(wal);
        let path = dir.join(WAL_FILE);
        // Tear the last record in half.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let scan = scan_log(&path).unwrap();
        assert!(scan.truncated);
        let next = scan.next_lsn();
        let wal = Wal::open_after(&dir, false, &scan, tel).unwrap();
        wal.append(&WalEntry::UnitAdded { unit: "u2".into() });
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
        let (wal, tel) = fresh_wal(&dir);
        for e in entries() {
            wal.append(&e);
        }
        let last = wal.last_lsn();
        wal.sync_to(last, false);
        assert_eq!(tel.metrics.wal_fsyncs.get(), 1);
        // Everything appended before the fsync is covered: no new fsync.
        wal.sync_to(1, false);
        wal.sync_to(last, false);
        assert_eq!(tel.metrics.wal_fsyncs.get(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// "Every byte of a `wal.log` record stays identical" is a claim
    /// about the encoder, so it is pinned: the length and whole-file
    /// XXH64 below were printed by the encoder as it stood before the
    /// log was rebuilt on `crate::frame` (the WAL twin of the spill
    /// tier's `frame_bytes_are_pinned_and_roundtrip`).
    #[test]
    fn wal_bytes_are_pinned() {
        let dir = temp_dir("pinned");
        let (wal, _) = fresh_wal(&dir);
        for e in entries() {
            wal.append(&e);
        }
        drop(wal);
        let bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        assert_eq!(bytes.len(), 288);
        assert_eq!(frame::xxh64(&bytes, 0), 0xD1BE_16D5_D018_D201);
        // The compacted-log writer frames records the same way.
        let mut log = Vec::new();
        for (i, e) in entries().iter().enumerate() {
            encode_record(&mut log, i as u64 + 1, |out| encode_entry(out, e));
        }
        assert_eq!(log, bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// XXH64 is no secret, so a checksum-valid record can still lie: a
    /// key count the record cannot hold ends the valid prefix instead of
    /// sizing an allocation (this log used to abort `open_recovering`).
    #[test]
    fn hostile_key_count_truncates_not_allocates() {
        let dir = temp_dir("hostile");
        let mut log = Vec::new();
        encode_record(&mut log, 1, |out| {
            out.extend_from_slice(&[8, 0]); // RecordCommitted, no unit
            put_bytes(out, b"t");
            out.extend_from_slice(&u32::MAX.to_le_bytes());
        });
        let path = dir.join(WAL_FILE);
        std::fs::write(&path, &log).unwrap();
        let scan = scan_log(&path).unwrap();
        assert!(scan.records.is_empty());
        assert!(scan.truncated);
        assert_eq!(scan.valid_len, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
