//! The record store — schema registry, record table and key index
//! behind their own lock.
//!
//! This is the bottom layer of the database (see DESIGN.md §5e): it
//! knows nothing about units, memory budgets or I/O workers. Record
//! *bytes* are accounted by the `units` layer; the store only owns the
//! buffers' locations and the ordered key index (§3.3's RB-tree
//! equivalent).
//!
//! ## Lock order
//!
//! The store lock is the **innermost** database lock: code holding the
//! unit-table lock may take the store lock (record creation, `set_*`
//! and eviction do), but never the reverse. A key lookup takes the store
//! lock alone — it stamps the owning unit's LRU cell, an atomic the
//! record shares with the unit-table entry ([`UnitTag`]).

use crate::buffer::{FieldData, FieldRef, Key};
use crate::error::{GodivaError, Result};
use crate::frame::{put_bytes, Reader};
use crate::schema::{DeclaredSize, RecordTypeDef, Schema};
use crate::spill::RecordFrame;
use crate::telemetry::Telemetry;
use crate::units::UnitTag;
use crate::wal::Wal;
use parking_lot::{Mutex, MutexGuard};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Identifier of a record inside one database.
pub type RecordId = u64;

/// A record's key as the index holds it: every key field's bytes behind
/// a little-endian `u32` length, concatenated in key-field order. That
/// is the layout `.gsp` frames and WAL records give a key list after its
/// count, so they copy it verbatim. Each part delimits itself, so two
/// different key lists — of any arity — never encode alike.
///
/// The index orders keys byte-wise over this encoding. That is an order
/// (all §3.3's tree needs for exact-match probes; nothing walks the
/// index in order) but not a meaningful one: lengths and little-endian
/// integers compare low byte first, so it is neither the numeric order
/// of the key values nor the lexicographic order of variable-length
/// ones.
#[derive(Clone)]
pub(crate) enum EncodedKey {
    /// Short keys (the paper's block id + time-step id, two integers)
    /// sit inside the index node: comparing them follows no pointer.
    Inline(u8, [u8; EncodedKey::INLINE]),
    /// One allocation, shared by the index and the record entry.
    Heap(Arc<[u8]>),
}

impl EncodedKey {
    const INLINE: usize = 30;

    pub(crate) fn new(bytes: &[u8]) -> Self {
        if bytes.len() <= Self::INLINE {
            let mut buf = [0; Self::INLINE];
            buf[..bytes.len()].copy_from_slice(bytes);
            EncodedKey::Inline(bytes.len() as u8, buf)
        } else {
            EncodedKey::Heap(bytes.into())
        }
    }

    pub(crate) fn as_bytes(&self) -> &[u8] {
        match self {
            EncodedKey::Inline(len, buf) => &buf[..*len as usize],
            EncodedKey::Heap(bytes) => bytes,
        }
    }

    /// The key parts, for messages (`DuplicateKey` names the key as the
    /// caller would have passed it).
    fn parts(&self) -> Vec<Key> {
        let mut r = Reader::new(self.as_bytes());
        std::iter::from_fn(|| r.bytes().map(|p| Key(p.to_vec()))).collect()
    }
}

impl std::borrow::Borrow<[u8]> for EncodedKey {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl PartialEq for EncodedKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for EncodedKey {}

impl PartialOrd for EncodedKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EncodedKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

/// Hasher for the record table. Record ids are handed out in sequence
/// by the store itself, never chosen by a caller, so one multiply
/// (Fibonacci hashing, to spread them over the high bits the table's
/// control bytes use) replaces SipHash.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("record ids hash through write_u64");
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) struct RecordEntry {
    pub(crate) rt: Arc<RecordTypeDef>,
    /// One slot per field of the record type, in definition order.
    pub(crate) fields: Vec<Option<FieldRef>>,
    /// Key snapshot taken at commit; `Some` is what "committed" means,
    /// and from then on `set_field` refuses the key fields, so the
    /// snapshot and the buffers agree for the record's whole life.
    pub(crate) key: Option<EncodedKey>,
    pub(crate) unit: Option<Arc<UnitTag>>,
}

type Index = BTreeMap<EncodedKey, RecordId>;

pub(crate) struct StoreState {
    pub(crate) schema: Schema,
    pub(crate) records: HashMap<RecordId, RecordEntry, BuildHasherDefault<IdHasher>>,
    /// Encoded key → record, one map per record type, at the type's
    /// [`RecordTypeDef::id`].
    index: Vec<Index>,
    next_record: RecordId,
    /// Where a key is encoded before it is probed or stored.
    scratch: Vec<u8>,
}

/// The store layer: one lock over schema + records + index.
pub(crate) struct Store {
    state: Mutex<StoreState>,
    tel: Arc<Telemetry>,
    /// Journal for record commits (the WAL lock is innermost, so
    /// appending under the store lock is safe); `None` when off.
    wal: Option<Arc<Wal>>,
}

fn no_record(id: RecordId) -> GodivaError {
    GodivaError::NotFound(format!("record #{id}"))
}

fn duplicate(rt: &RecordTypeDef, key: &EncodedKey, existing: RecordId) -> GodivaError {
    GodivaError::DuplicateKey(format!(
        "record type '{}': key {:?} already identifies record #{existing}",
        rt.name,
        key.parts()
    ))
}

impl StoreState {
    fn insert(&mut self, entry: RecordEntry) -> RecordId {
        let id = self.next_record;
        self.next_record += 1;
        self.records.insert(id, entry);
        id
    }
}

/// The index of record type number `type_id`, created on first use.
fn index_of(index: &mut Vec<Index>, type_id: usize) -> &mut Index {
    if index.len() <= type_id {
        index.resize_with(type_id + 1, Index::new);
    }
    &mut index[type_id]
}

impl Store {
    pub(crate) fn new(tel: Arc<Telemetry>, wal: Option<Arc<Wal>>) -> Self {
        Store {
            tel,
            wal,
            state: Mutex::new(StoreState {
                schema: Schema::new(),
                records: HashMap::default(),
                index: Vec::new(),
                next_record: 1,
                scratch: Vec::new(),
            }),
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, StoreState> {
        self.state.lock()
    }

    /// Create a record of the committed type `type_name` with its
    /// known-size buffers zeroed (§3.1: "If a field's size is not
    /// UNKNOWN, its data buffer will be allocated when the new record is
    /// created"). Returns the id, the type and the bytes to charge.
    /// Safe to call with the unit-table lock held (units → store).
    pub(crate) fn install_record(
        &self,
        type_name: &str,
        unit: Option<&Arc<UnitTag>>,
    ) -> Result<(RecordId, Arc<RecordTypeDef>, u64)> {
        let mut st = self.lock();
        let rt = Arc::clone(st.schema.committed_record(type_name)?);
        let mut total = 0u64;
        let mut fields = Vec::with_capacity(rt.fields.len());
        for fs in &rt.fields {
            fields.push(match fs.size {
                DeclaredSize::Known(bytes) => {
                    total += bytes;
                    Some(Arc::new(FieldData::zeroed(fs.kind, bytes)?))
                }
                DeclaredSize::Unknown => None,
            });
        }
        let id = st.insert(RecordEntry {
            rt: Arc::clone(&rt),
            fields,
            key: None,
            unit: unit.cloned(),
        });
        Ok((id, rt, total))
    }

    /// Re-install a record decoded from a spill frame, restoring its
    /// commit-time key snapshot verbatim (the frame carries it, so there
    /// is nothing to recompute). No creation/commit counters are bumped: the
    /// record was already counted when it was first created. Safe to call
    /// with the unit-table lock held (lock order units → store).
    pub(crate) fn restore_record(
        &self,
        frame: RecordFrame,
        unit: &Arc<UnitTag>,
    ) -> Result<RecordId> {
        let mut guard = self.lock();
        let st = &mut *guard;
        let rt = Arc::clone(st.schema.committed_record(&frame.type_name)?);
        if frame.fields.len() != rt.fields.len() {
            return Err(GodivaError::TypeMismatch(format!(
                "spill frame for record type '{}' has {} field slots, schema has {}",
                rt.name,
                frame.fields.len(),
                rt.fields.len()
            )));
        }
        let key = frame.key.filter(|_| frame.committed);
        if let Some(key) = &key {
            let taken = st.index.get(rt.id).and_then(|idx| idx.get(key.as_bytes()));
            if let Some(&existing) = taken {
                return Err(duplicate(&rt, key, existing));
            }
        }
        let fields = frame
            .fields
            .into_iter()
            .map(|slot| slot.map(Arc::new))
            .collect();
        let id = st.insert(RecordEntry {
            rt: Arc::clone(&rt),
            fields,
            key: key.clone(),
            unit: Some(Arc::clone(unit)),
        });
        if let Some(key) = key {
            index_of(&mut st.index, rt.id).insert(key, id);
        }
        Ok(id)
    }

    /// Remove `ids` from the record table and the key index. Called by
    /// the units layer with its lock held (lock order units → store)
    /// when a unit is evicted, deleted or rolled back.
    pub(crate) fn remove_records(&self, ids: &[RecordId]) {
        let mut guard = self.lock();
        let st = &mut *guard;
        for rid in ids {
            if let Some(rec) = st.records.remove(rid) {
                if let (Some(key), Some(idx)) = (rec.key, st.index.get_mut(rec.rt.id)) {
                    idx.remove(key.as_bytes());
                }
            }
        }
    }

    /// Make `data` the contents of field `slot` of record `id`; returns
    /// the new handle and the byte length the slot held before. Handles
    /// given out earlier keep what they had: the allocation is reused
    /// only while the store holds the only handle to it. The caller
    /// (a [`crate::RecordHandle`]) has checked `data` against the slot's
    /// definition and holds the unit-table lock, under which it accounts
    /// the difference.
    pub(crate) fn set_field(
        &self,
        id: RecordId,
        slot: usize,
        data: FieldData,
    ) -> Result<(FieldRef, u64)> {
        let mut st = self.lock();
        let rec = st.records.get_mut(&id).ok_or_else(|| no_record(id))?;
        let def = &rec.rt.fields[slot];
        if rec.key.is_some() && def.is_key {
            return Err(GodivaError::TypeMismatch(format!(
                "field '{}' is a key field of a committed record and cannot be changed",
                def.field
            )));
        }
        Ok(match &mut rec.fields[slot] {
            Some(buf) => {
                let old_len = buf.byte_len();
                match Arc::get_mut(buf) {
                    Some(unshared) => *unshared = data,
                    None => *buf = Arc::new(data),
                }
                (Arc::clone(buf), old_len)
            }
            empty => (Arc::clone(empty.insert(Arc::new(data))), 0),
        })
    }

    /// The buffer of field `slot` of record `id` (must be allocated).
    pub(crate) fn field(&self, id: RecordId, slot: usize) -> Result<FieldRef> {
        let st = self.lock();
        let rec = st.records.get(&id).ok_or_else(|| no_record(id))?;
        rec.fields[slot]
            .clone()
            .ok_or_else(|| GodivaError::Unallocated {
                field: rec.rt.fields[slot].field.clone(),
            })
    }

    /// Snapshot the key fields of `id`, insert it into the index and
    /// journal the commit.
    pub(crate) fn commit_record(&self, id: RecordId) -> Result<()> {
        let mut guard = self.lock();
        let st = &mut *guard;
        let rec = st.records.get_mut(&id).ok_or_else(|| no_record(id))?;
        if rec.key.is_some() {
            return Ok(());
        }
        st.scratch.clear();
        for (fs, buf) in rec.rt.fields.iter().zip(&rec.fields) {
            if !fs.is_key {
                continue;
            }
            let buf = buf.as_ref().ok_or_else(|| GodivaError::Unallocated {
                field: fs.field.clone(),
            })?;
            st.scratch
                .extend_from_slice(&(buf.byte_len() as u32).to_le_bytes());
            buf.extend_le_bytes(&mut st.scratch);
        }
        let idx = index_of(&mut st.index, rec.rt.id);
        if let Some((key, &existing)) = idx.get_key_value(st.scratch.as_slice()) {
            return Err(duplicate(&rec.rt, key, existing));
        }
        let key = EncodedKey::new(&st.scratch);
        idx.insert(key.clone(), id);
        rec.key = Some(key);
        if let Some(wal) = &self.wal {
            let unit = rec.unit.as_ref().map(|u| u.name.as_str());
            wal.append_commit(unit, &rec.rt, &st.scratch);
        }
        self.tel.record_commit(&rec.rt.name, id);
        Ok(())
    }

    /// Key lookup, stamping the owning unit as used at `clock`'s next
    /// tick.
    pub(crate) fn lookup(
        &self,
        clock: &AtomicU64,
        record_type: &str,
        field: &str,
        keys: &[Key],
    ) -> Result<FieldRef> {
        let mut guard = self.lock();
        let st = &mut *guard;
        let rt = st.schema.committed_record(record_type);
        let id = rt.as_ref().ok().and_then(|rt| {
            st.scratch.clear();
            for k in keys {
                put_bytes(&mut st.scratch, &k.0);
            }
            st.index.get(rt.id)?.get(st.scratch.as_slice())
        });
        self.tel.key_lookup(record_type, id.is_some());
        let Some(id) = id else {
            // Distinguish "unknown type" from "no such key" for callers.
            rt?;
            return Err(GodivaError::NotFound(format!(
                "record type '{record_type}' has no record with key {keys:?}"
            )));
        };
        let rec = st.records.get(id).expect("index points at live record");
        let slot = rec
            .rt
            .slot(field)
            .ok_or_else(|| GodivaError::UnknownField {
                record_type: record_type.to_string(),
                field: field.to_string(),
            })?;
        let buf = rec.fields[slot]
            .clone()
            .ok_or_else(|| GodivaError::Unallocated {
                field: field.to_string(),
            })?;
        if let Some(unit) = &rec.unit {
            unit.touch(clock);
        }
        Ok(buf)
    }
}
