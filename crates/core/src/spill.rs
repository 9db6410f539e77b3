//! The second-tier spill cache (DESIGN.md §5f).
//!
//! §3.3 eviction discards a finished unit's buffers; every re-visit then
//! re-runs the developer read callback against the (simulated) disk —
//! the "eviction churn + re-read waste" `godiva-report` quantifies. The
//! spill tier keeps those bytes: when `units::evict_one` reclaims a
//! unit, its records are serialized into a single length-prefixed,
//! checksummed frame file under one `spill/` directory, and a later
//! read of the unit first tries that file — one sequential read, no
//! developer callback — falling back to the callback on miss or
//! checksum mismatch.
//!
//! The tier has its own LRU over spill files, capped by
//! [`SpillConfig::budget`] independently of the in-memory budget. A
//! spill file is kept on hit (the unit may be evicted again),
//! overwritten on re-evict, and invalidated by `deleteUnit` — the
//! developer's statement that the data is gone. Re-adding a unit with a
//! new read function does *not* invalidate: the unit name identifies
//! the data (the paper's model), so a revisit through `readUnit` or
//! `addUnit`/`waitUnit` hits the spill. Only *evicted* units are
//! spilled — never a failed or rolled-back attempt's partial records.
//!
//! ## Frame format
//!
//! A frame is this unit body, sealed by `frame.rs` under seed 0:
//!
//! ```text
//! "GSPL" magic, version u8
//! unit name          u32 len + bytes
//! record count       u32
//! per record:
//!   type name        u32 len + bytes
//!   committed        u8
//!   key present      u8   (committed key snapshot, if any)
//!     key count      u32
//!     per key        u32 len + bytes
//!   field slots      u32  (record type's slot count)
//!   per slot:
//!     present        u8
//!     kind tag       u8
//!     byte length    u64
//!     payload        bytes (little-endian element encoding)
//! ```
//!
//! A checksum mismatch (or any decode failure) counts as
//! `spill_corrupt`, deletes the file and falls back to the callback.

use crate::buffer::FieldData;
use crate::db::Inner;
use crate::error::Result;
use crate::frame::{self, put_bytes, sanitize, Reader};
use crate::schema::FieldKind;
use crate::store::{EncodedKey, RecordId, Store};
use crate::telemetry::Telemetry;
use crate::units::{AllocCtx, UnitTag};
use crate::wal::{Wal, WalEntry};
use godiva_platform::Storage;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"GSPL";
const VERSION: u8 = 1;

/// Where and how large the spill tier is. Handed to the database via
/// `GboConfig::spill`.
#[derive(Clone)]
pub struct SpillConfig {
    /// Backing storage the spill files are written to. Use a dedicated
    /// storage (or at least a dedicated directory) — spill traffic is
    /// cache traffic, not dataset traffic.
    pub storage: Arc<dyn Storage>,
    /// Directory prefix for spill files (e.g. `"spill"`). One file per
    /// unit, `<dir>/<sanitized-unit-name>.gsp`.
    pub dir: String,
    /// Byte budget for all spill files together; the tier's own LRU
    /// evicts (deletes) the least-recently-used files to stay under it.
    pub budget: u64,
}

impl std::fmt::Debug for SpillConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillConfig")
            .field("dir", &self.dir)
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

struct SpillEntry {
    len: u64,
    last_use: u64,
}

struct SpillState {
    entries: HashMap<String, SpillEntry>,
    used: u64,
    clock: u64,
}

/// The spill tier: storage handle + its own LRU state behind its own
/// lock (innermost — never held while taking a database lock).
pub(crate) struct SpillTier {
    storage: Arc<dyn Storage>,
    dir: String,
    budget: u64,
    state: Mutex<SpillState>,
    /// Journal for `unit_spilled`/`spill_dropped` entries. The WAL's
    /// write lock is the innermost lock in the database, so appending
    /// while holding the tier's own (formerly innermost) lock is safe.
    wal: Option<Arc<Wal>>,
    tel: Arc<Telemetry>,
}

impl SpillTier {
    pub(crate) fn new(config: SpillConfig, wal: Option<Arc<Wal>>, tel: Arc<Telemetry>) -> Self {
        SpillTier {
            storage: config.storage,
            dir: config.dir,
            budget: config.budget,
            state: Mutex::new(SpillState {
                entries: HashMap::new(),
                used: 0,
                clock: 0,
            }),
            wal,
            tel,
        }
    }

    fn path_of(&self, unit: &str) -> String {
        format!("{}/{}", self.dir, file_of(unit))
    }

    /// Forget `unit`'s own entry (its file is about to be replaced) and
    /// evict LRU frames until `len` more bytes fit the budget.
    fn make_room(&self, st: &mut SpillState, unit: &str, len: u64) {
        if let Some(old) = st.entries.remove(unit) {
            st.used = st.used.saturating_sub(old.len);
        }
        while st.used + len > self.budget {
            let victim = st
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(name, _)| name.clone());
            let Some(victim) = victim else { break };
            self.remove_entry(st, &victim, "budget");
        }
    }

    /// Enter `unit`'s `len`-byte frame as the most recently used.
    fn insert(&self, st: &mut SpillState, unit: &str, len: u64) {
        st.clock += 1;
        let last_use = st.clock;
        st.entries
            .insert(unit.to_string(), SpillEntry { len, last_use });
        st.used += len;
        self.tel.metrics.spill_bytes.set(st.used);
    }

    /// Store `frame` as `unit`'s spill file, evicting LRU files to make
    /// room. Called by `evict_one` with the units lock held (the write
    /// must be atomic with the in-memory drop); the tier's own lock is
    /// only outside the WAL lock, so that nesting is safe.
    ///
    /// The publish is crash-atomic ([`frame::publish`]): a crash mid-evict
    /// leaves either the old frame, no frame, or the complete new frame,
    /// never a truncated one that would later count as `spill_corrupt`.
    pub(crate) fn store_unit(&self, unit: &str, frame: Vec<u8>) {
        let len = frame.len() as u64;
        let Some(frame_xxh) = frame::trailer(&frame).filter(|_| len <= self.budget) else {
            return; // would evict the whole tier for one unit / no frame
        };
        let mut st = self.state.lock();
        self.make_room(&mut st, unit, len);
        if frame::publish(&*self.storage, &self.dir, &file_of(unit), &frame).is_err() {
            self.tel.metrics.spill_bytes.set(st.used);
            return;
        }
        if let Some(wal) = &self.wal {
            wal.append(&WalEntry::UnitSpilled {
                unit: unit.to_string(),
                frame_len: len,
                frame_xxh,
            });
        }
        self.insert(&mut st, unit, len);
        self.tel.spill_write(unit, len, st.used);
    }

    /// Drop `unit`'s spill file (if any) because its data became invalid
    /// — the unit was deleted, or re-armed with a new read function.
    pub(crate) fn invalidate(&self, unit: &str) {
        self.remove_entry(&mut self.state.lock(), unit, "invalidate");
    }

    /// Remove one entry and delete its file.
    fn remove_entry(&self, st: &mut SpillState, unit: &str, cause: &str) {
        let Some(entry) = st.entries.remove(unit) else {
            return;
        };
        st.used = st.used.saturating_sub(entry.len);
        let _ = self.storage.delete(&self.path_of(unit));
        if let Some(wal) = &self.wal {
            wal.append(&WalEntry::SpillDropped {
                unit: unit.to_string(),
            });
        }
        self.tel.spill_evict(unit, entry.len, st.used, cause);
    }

    /// Recovery: re-adopt a frame the WAL says should exist, as the most
    /// recently used one (callers adopt in journal order). The file must
    /// match the journaled length and trailing checksum (the frame body
    /// is still fully verified on each load); older frames make room for
    /// it exactly as for a new spill. Returns whether it was adopted.
    pub(crate) fn adopt(&self, unit: &str, frame_len: u64, frame_xxh: u64) -> bool {
        let path = self.path_of(unit);
        let matches = self.storage.len(&path).ok() == Some(frame_len)
            && (8..=self.budget).contains(&frame_len)
            && self
                .storage
                .read_at(&path, frame_len - 8, 8)
                .ok()
                .and_then(|tail| frame::trailer(&tail))
                == Some(frame_xxh);
        if !matches {
            return false;
        }
        let mut st = self.state.lock();
        self.make_room(&mut st, unit, frame_len);
        self.insert(&mut st, unit, frame_len);
        self.tel.spill_adopt(unit, frame_len);
        true
    }

    /// Snapshot support: [`copy_frames`] of every frame the tier holds
    /// into `dst`. Frames are immutable once published, so no tier lock
    /// is held while they are read.
    pub(crate) fn copy_live(&self, dst: &dyn Storage) -> io::Result<Vec<(String, (u64, u64))>> {
        let units: Vec<String> = self.state.lock().entries.keys().cloned().collect();
        let any = units.iter().map(|u| (u.as_str(), None));
        copy_frames(&*self.storage, dst, &self.dir, any)
    }

    /// Recovery: delete any `*.gsp.tmp` left by a crash mid-publish.
    pub(crate) fn sweep_tmp(&self) {
        for path in self.storage.list(&format!("{}/", self.dir)) {
            if path.ends_with(".gsp.tmp") {
                let _ = self.storage.delete(&path);
            }
        }
    }

    /// Load `unit`'s spill frame: one read, one checksum pass, one
    /// decode. `None` on miss; a frame that fails its checksum or does
    /// not decode is counted, traced and deleted (so the next eviction
    /// rewrites it cleanly) before returning `None`. The file is *kept*
    /// on a successful load (LRU touch only) so the unit can be evicted
    /// straight back to it.
    fn load_unit(&self, unit: &str) -> Option<Vec<RecordFrame>> {
        {
            let mut st = self.state.lock();
            let clock = st.clock + 1;
            st.entries.get_mut(unit)?.last_use = clock;
            st.clock = clock;
        }
        // File I/O outside the tier lock; a concurrent budget eviction
        // deleting the file mid-read just turns this into a miss.
        let frame = self.storage.read(&self.path_of(unit)).ok()?;
        let records = frame::open(&frame, 0).and_then(|body| decode_unit(body, unit));
        if records.is_none() {
            self.tel.spill_corrupt(unit, frame.len() as u64);
            self.remove_entry(&mut self.state.lock(), unit, "corrupt");
        }
        records
    }
}

/// `unit`'s frame file name inside the tier's directory.
fn file_of(unit: &str) -> String {
    format!("{}.gsp", sanitize(unit))
}

/// Copy `units`' frames from `src` to `dst` — both keep them under
/// `dir` — publishing each copy atomically. A frame is copied only if
/// it verifies and, where the caller expects a `(length, trailing
/// checksum)`, has it; the rest are skipped (their units just start
/// cold). Returns each copy's unit and `(length, trailing checksum)`.
pub(crate) fn copy_frames<'a>(
    src: &dyn Storage,
    dst: &dyn Storage,
    dir: &str,
    units: impl IntoIterator<Item = (&'a str, Option<(u64, u64)>)>,
) -> io::Result<Vec<(String, (u64, u64))>> {
    let mut copied = Vec::new();
    for (unit, expected) in units {
        let file = file_of(unit);
        let Ok(bytes) = src.read(&format!("{dir}/{file}")) else {
            continue;
        };
        let Some(xxh) = frame::open(&bytes, 0).and(frame::trailer(&bytes)) else {
            continue;
        };
        let found = (bytes.len() as u64, xxh);
        if expected.is_none_or(|e| e == found) {
            frame::publish(dst, dir, &file, &bytes)?;
            copied.push((unit.to_string(), found));
        }
    }
    Ok(copied)
}

// ---------------------------------------------------------------------------
// frame encode / decode
// ---------------------------------------------------------------------------

fn kind_tag(kind: FieldKind) -> u8 {
    match kind {
        FieldKind::Str => 0,
        FieldKind::F64 => 1,
        FieldKind::F32 => 2,
        FieldKind::I32 => 3,
        FieldKind::I64 => 4,
        FieldKind::Bytes => 5,
    }
}

fn encode_data(out: &mut Vec<u8>, data: &FieldData) {
    out.push(kind_tag(data.kind()));
    out.extend_from_slice(&data.byte_len().to_le_bytes());
    data.extend_le_bytes(out);
}

/// Serialize `unit`'s records into a checksummed frame. Takes the store
/// lock (caller holds the units lock; lock order units → store).
/// `None` when a record has vanished (nothing useful to spill).
pub(crate) fn encode_unit(store: &Store, unit: &str, records: &[RecordId]) -> Option<Vec<u8>> {
    let st = store.lock();
    // Size the frame before writing it: one allocation and no regrowth
    // while the units and store locks are held.
    let mut len = MAGIC.len() + 1 + 4 + unit.len() + 4 + 8;
    for rid in records {
        let rec = st.records.get(rid)?;
        let key = rec.key.as_ref().map_or(0, |k| 4 + k.as_bytes().len());
        len += 4 + rec.rt.name.len() + 2 + key + 4;
        for slot in &rec.fields {
            len += 1 + slot.as_ref().map_or(0, |buf| 9 + buf.byte_len() as usize);
        }
    }
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    put_bytes(&mut out, unit.as_bytes());
    out.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for rid in records {
        let rec = st.records.get(rid)?;
        put_bytes(&mut out, rec.rt.name.as_bytes());
        // "committed" and "key present" are one fact in memory; the
        // frame keeps its two bytes. The stored key is already the
        // frame's `u32 len + bytes` per key field.
        match &rec.key {
            Some(key) => {
                out.extend_from_slice(&[1, 1]);
                out.extend_from_slice(&(rec.rt.declared_keys as u32).to_le_bytes());
                out.extend_from_slice(key.as_bytes());
            }
            None => out.extend_from_slice(&[0, 0]),
        }
        out.extend_from_slice(&(rec.fields.len() as u32).to_le_bytes());
        for slot in &rec.fields {
            match slot {
                Some(buf) => {
                    out.push(1);
                    encode_data(&mut out, buf);
                }
                None => out.push(0),
            }
        }
    }
    frame::seal(&mut out, 0, 0);
    Some(out)
}

/// One decoded record, ready for [`Store::restore_record`].
pub(crate) struct RecordFrame {
    pub(crate) type_name: String,
    pub(crate) committed: bool,
    pub(crate) key: Option<EncodedKey>,
    pub(crate) fields: Vec<Option<FieldData>>,
}

/// Little-endian elements of `payload`, or `None` when its length is
/// not a multiple of the element size.
fn le_vec<T, const N: usize>(payload: &[u8], from_le: impl Fn([u8; N]) -> T) -> Option<Vec<T>> {
    if !payload.len().is_multiple_of(N) {
        return None;
    }
    let elem = |c: &[u8]| from_le(c.try_into().expect("chunks_exact(N)"));
    Some(payload.chunks_exact(N).map(elem).collect())
}

fn decode_data(r: &mut Reader) -> Option<FieldData> {
    let tag = r.u8()?;
    let len = r.u64()? as usize;
    let payload = r.take(len)?;
    Some(match tag {
        0 => FieldData::Str(String::from_utf8(payload.to_vec()).ok()?),
        1 => FieldData::F64(le_vec(payload, f64::from_le_bytes)?),
        2 => FieldData::F32(le_vec(payload, f32::from_le_bytes)?),
        3 => FieldData::I32(le_vec(payload, i32::from_le_bytes)?),
        4 => FieldData::I64(le_vec(payload, i64::from_le_bytes)?),
        5 => FieldData::Bytes(payload.to_vec()),
        _ => return None,
    })
}

/// Decode an opened frame (the body [`frame::open`] returned) into
/// record frames. `None` on any framing error (treated as corruption by
/// the caller) or unit-name mismatch.
pub(crate) fn decode_unit(body: &[u8], unit: &str) -> Option<Vec<RecordFrame>> {
    let mut r = Reader::new(body);
    if r.take(4)? != MAGIC || r.u8()? != VERSION {
        return None;
    }
    if r.string()? != unit {
        return None;
    }
    // A record is at least a type name, two flags and a slot count.
    let count = r.count(4 + 2 + 4)?;
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        let type_name = r.string()?;
        let committed = r.u8()? != 0;
        let key = match r.u8()? {
            0 => None,
            _ => Some(EncodedKey::new(r.counted_fields()?)),
        };
        let slots = r.count(1)?;
        let mut fields = Vec::with_capacity(slots);
        for _ in 0..slots {
            fields.push(match r.u8()? {
                0 => None,
                _ => Some(decode_data(&mut r)?),
            });
        }
        records.push(RecordFrame {
            type_name,
            committed,
            key,
            fields,
        });
    }
    r.done().then_some(records) // else: trailing garbage
}

// ---------------------------------------------------------------------------
// re-materialization
// ---------------------------------------------------------------------------

impl Inner {
    /// Try to re-materialize `name` from the spill tier instead of
    /// running its read function. `Ok(true)` = restored (the caller
    /// finalizes the unit exactly as after a successful read);
    /// `Ok(false)` = miss or corruption, fall through to the callback;
    /// `Err` = a real failure while charging the restored bytes
    /// (shutdown, out of memory). Must be called without the units lock
    /// held, with the unit already marked `Reading`.
    pub(crate) fn try_restore_spill(
        self: &Arc<Self>,
        unit: &Arc<UnitTag>,
        ctx: AllocCtx,
    ) -> Result<bool> {
        let Some(spill) = &self.units.spill else {
            return Ok(false);
        };
        let name = unit.name.as_str();
        let miss = || {
            // Only a *re-read* counts as a miss — a unit that was never
            // loaded before has nothing the tier could have kept
            // (`loaded_seq` survives eviction, so it marks revisits).
            let re_read = self
                .units
                .lock()
                .units
                .get(name)
                .is_some_and(|u| u.loaded_seq > 0);
            if re_read {
                self.tel.spill_miss(name);
            }
        };
        let Some(records) = spill.load_unit(name) else {
            miss();
            return Ok(false);
        };
        let total: u64 = records
            .iter()
            .flat_map(|r| r.fields.iter().flatten())
            .map(|d| d.byte_len())
            .sum();
        let span_start = self.tel.now_us();
        let mut st = self.units.lock();
        self.charge(&mut st, total, ctx, Some(unit))?;
        let mut installed: Vec<RecordId> = Vec::with_capacity(records.len());
        for rec in records {
            match self.store.restore_record(rec, unit) {
                Ok(id) => installed.push(id),
                Err(_) => {
                    // Partial restore (schema drift, duplicate key):
                    // roll everything back and fall back to the reader.
                    self.store.remove_records(&installed);
                    self.units.release(&mut st, total, Some(unit));
                    drop(st);
                    spill.invalidate(name);
                    miss();
                    return Ok(false);
                }
            }
        }
        if let Some(entry) = st.units.get_mut(name) {
            entry.records.extend(installed);
        }
        drop(st);
        self.tel.spill_hit(name, total, span_start);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::xxh64;

    #[test]
    fn frame_roundtrip() {
        let mut key7 = Vec::new();
        put_bytes(&mut key7, &7i64.to_le_bytes());
        let frames = [RecordFrame {
            type_name: "t".into(),
            committed: true,
            key: Some(EncodedKey::new(&key7)),
            fields: vec![
                Some(FieldData::F64(vec![1.5, -2.5])),
                None,
                Some(FieldData::Str("hello".into())),
                Some(FieldData::I32(vec![1, 2, 3])),
            ],
        }];
        // Hand-encode via the same helpers encode_unit uses.
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        put_bytes(&mut out, b"u1");
        out.extend_from_slice(&1u32.to_le_bytes());
        let rec = &frames[0];
        put_bytes(&mut out, rec.type_name.as_bytes());
        out.push(1);
        out.push(1);
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(rec.key.as_ref().unwrap().as_bytes());
        out.extend_from_slice(&(rec.fields.len() as u32).to_le_bytes());
        for f in &rec.fields {
            match f {
                Some(d) => {
                    out.push(1);
                    encode_data(&mut out, d);
                }
                None => out.push(0),
            }
        }

        let decoded = decode_unit(&out, "u1").expect("decodes");
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].type_name, "t");
        assert!(decoded[0].committed);
        assert!(decoded[0].key == frames[0].key);
        assert_eq!(decoded[0].fields[0], Some(FieldData::F64(vec![1.5, -2.5])));
        assert_eq!(decoded[0].fields[1], None);
        assert_eq!(decoded[0].fields[2], Some(FieldData::Str("hello".into())));
        assert_eq!(decoded[0].fields[3], Some(FieldData::I32(vec![1, 2, 3])));
        // Wrong unit name is a decode failure, not a silent hit.
        assert!(decode_unit(&out, "u2").is_none());
        // Truncation is a decode failure.
        assert!(decode_unit(&out[..out.len() - 1], "u1").is_none());
    }

    /// XXH64 is no secret, so a checksum-valid frame can still lie: a
    /// record count the bytes cannot hold is refused before it sizes an
    /// allocation (this input used to abort the process asking for
    /// ~340 GB).
    #[test]
    fn hostile_record_count_is_refused_not_allocated() {
        let mut frame = Vec::new();
        frame.extend_from_slice(MAGIC);
        frame.push(VERSION);
        put_bytes(&mut frame, b"u1");
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame::seal(&mut frame, 0, 0);
        let body = frame::open(&frame, 0).expect("the checksum is valid");
        assert!(decode_unit(body, "u1").is_none());
        // So is a slot count, and a key count, inside a plausible record.
        for tail in [&[0u8, 0][..], &[1, 1][..]] {
            let mut frame = body[..body.len() - 4].to_vec();
            frame.extend_from_slice(&1u32.to_le_bytes());
            put_bytes(&mut frame, b"t");
            frame.extend_from_slice(tail);
            frame.extend_from_slice(&u32::MAX.to_le_bytes());
            assert!(decode_unit(&frame, "u1").is_none());
        }
    }

    /// One unit holding every `FieldKind`, edge values included.
    fn every_kind_unit(db: &crate::Gbo) -> Vec<RecordId> {
        use crate::schema::DeclaredSize;
        db.add_unit("pin/unit 1", |s: &crate::UnitSession| {
            for (name, kind) in [
                ("id", FieldKind::I64),
                ("label", FieldKind::Str),
                ("f64s", FieldKind::F64),
                ("f32s", FieldKind::F32),
                ("i32s", FieldKind::I32),
                ("i64s", FieldKind::I64),
                ("bytes", FieldKind::Bytes),
                ("never_set", FieldKind::F64),
            ] {
                s.define_field(name, kind, DeclaredSize::Unknown)?;
            }
            s.define_record("every", 2)?;
            s.insert_field("every", "id", true)?;
            s.insert_field("every", "label", true)?;
            for name in ["f64s", "f32s", "i32s", "i64s", "bytes", "never_set"] {
                s.insert_field("every", name, false)?;
            }
            s.commit_record_type("every")?;
            let full = s.new_record("every")?;
            full.set_i64("id", vec![i64::MIN])?;
            full.set_str("label", "héllo \0 wörld")?;
            full.set_f64("f64s", vec![f64::NAN, -0.0, 1.5, f64::MIN_POSITIVE])?;
            full.set_f32("f32s", vec![f32::INFINITY, -2.25, 0.0])?;
            full.set_i32("i32s", vec![i32::MIN, -1, 0, i32::MAX])?;
            full.set_i64("i64s", vec![i64::MIN, i64::MAX])?;
            full.set_bytes("bytes", (0..=255).collect())?;
            full.commit()?;
            let empty = s.new_record("every")?;
            empty.set_i64("id", vec![7])?;
            empty.set_str("label", "")?;
            empty.set_f64("f64s", vec![])?;
            empty.set_f32("f32s", vec![])?;
            empty.set_i32("i32s", vec![])?;
            empty.set_i64("i64s", vec![])?;
            empty.set_bytes("bytes", vec![])?;
            empty.commit()?;
            // Never committed: no key in the frame.
            s.new_record("every")?.set_f64("f64s", vec![2.0; 9])
        })
        .unwrap();
        db.wait_unit("pin/unit 1").unwrap();
        let units = db.inner.units.lock();
        units.units["pin/unit 1"].records.clone()
    }

    /// "Byte-identical frames" is a claim about the encoder, so it is
    /// pinned: the length and checksum below were printed by the encoder
    /// as it stood before frames were pre-sized and bulk-encoded.
    #[test]
    fn frame_bytes_are_pinned_and_roundtrip() {
        let db = crate::Gbo::with_config(Default::default());
        let records = every_kind_unit(&db);
        let frame = encode_unit(&db.inner.store, "pin/unit 1", &records).unwrap();
        assert_eq!(frame.capacity(), frame.len(), "sized once, exactly");
        let body = frame::open(&frame, 0).expect("sealed under seed 0");
        let sum = frame::trailer(&frame).unwrap().to_le_bytes();
        assert_eq!(xxh64(body, 0).to_le_bytes(), sum);
        assert_eq!(frame.len(), 725);
        assert_eq!(sum, 0x8BD0_FDB4_3C38_71BC_u64.to_le_bytes());

        let decoded = decode_unit(body, "pin/unit 1").expect("decodes");
        assert_eq!(decoded.len(), 3);
        let bits = |d: &Option<FieldData>| match d {
            Some(FieldData::F64(v)) => v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            other => panic!("expected F64, got {other:?}"),
        };
        let full = &decoded[0];
        assert!(full.committed && full.key.is_some());
        assert_eq!(full.fields[0], Some(FieldData::I64(vec![i64::MIN])));
        assert_eq!(
            full.fields[1],
            Some(FieldData::Str("héllo \0 wörld".into()))
        );
        let expect = [f64::NAN, -0.0, 1.5, f64::MIN_POSITIVE].map(f64::to_bits);
        assert_eq!(bits(&full.fields[2]), expect);
        assert_eq!(
            full.fields[3],
            Some(FieldData::F32(vec![f32::INFINITY, -2.25, 0.0]))
        );
        assert_eq!(
            full.fields[4],
            Some(FieldData::I32(vec![i32::MIN, -1, 0, i32::MAX]))
        );
        assert_eq!(
            full.fields[5],
            Some(FieldData::I64(vec![i64::MIN, i64::MAX]))
        );
        assert_eq!(full.fields[6], Some(FieldData::Bytes((0..=255).collect())));
        assert_eq!(full.fields[7], None);
        let empty = &decoded[1];
        assert_eq!(empty.fields[1], Some(FieldData::Str(String::new())));
        assert_eq!(empty.fields[2], Some(FieldData::F64(vec![])));
        assert_eq!(empty.fields[6], Some(FieldData::Bytes(vec![])));
        let open = &decoded[2];
        assert!(!open.committed && open.key.is_none());
        assert_eq!(open.fields[2], Some(FieldData::F64(vec![2.0; 9])));
    }

    #[test]
    fn decode_data_rejects_ragged_and_unknown_payloads() {
        let field = |tag: u8, payload: &[u8]| {
            let mut out = vec![tag];
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
            decode_data(&mut Reader::new(&out))
        };
        for (tag, size) in [(1u8, 8usize), (2, 4), (3, 4), (4, 8)] {
            assert!(field(tag, &vec![0; 3 * size]).is_some());
            for ragged in [1, size - 1, size + 1, 3 * size - 1] {
                assert!(
                    field(tag, &vec![0; ragged]).is_none(),
                    "tag {tag}, {ragged} B"
                );
            }
        }
        assert_eq!(field(3, &[]), Some(FieldData::I32(vec![])));
        assert!(field(0, &[0xFF, 0xFE]).is_none(), "Str must be UTF-8");
        assert!(field(6, &[0; 8]).is_none(), "unknown kind tag");
        // A length that runs past the buffer is a framing error.
        let mut short = vec![1u8];
        short.extend_from_slice(&16u64.to_le_bytes());
        short.extend_from_slice(&[0; 8]);
        assert!(decode_data(&mut Reader::new(&short)).is_none());
    }
}
