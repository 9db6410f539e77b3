//! The unit layer — unit table, reference counts, LRU clock, prefetch
//! queue and the memory budget.
//!
//! Everything here but the LRU clock and the per-unit stamps (relaxed
//! atomics, see [`UnitTag`]) sits behind one lock (`Units::state`),
//! which is also the lock both condition variables are tied to: `unit_cv` wakes
//! waiters on unit state changes, `work_cv` wakes I/O workers when the
//! queue or the budget changes. The record store has its *own* lock;
//! the order is always **units → store** (eviction holds the unit lock
//! and takes the store lock to drop records), never the reverse.
//!
//! Blocked-worker accounting generalizes the paper's single
//! `io_blocked_on_memory` flag: each executor worker that is waiting for
//! memory registers itself in [`UnitsState::blocked_workers`] with the
//! bytes it needs, and the deadlock check (§3.3, in the `exec` layer)
//! inspects that set instead of a unique I/O thread.

use crate::db::Inner;
use crate::error::{GodivaError, Result};
use crate::spill::SpillTier;
use crate::store::RecordId;
use crate::telemetry::Telemetry;
use crate::unit::{EvictionPolicy, ReadFn, UnitState};
use crate::wal::{Wal, WalEntry};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where an allocation request comes from; decides its blocking
/// behaviour when the budget is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AllocCtx {
    /// Application code outside any unit read. Never blocks: the paper
    /// assumes active data fits in memory, so these proceed (counted as
    /// over-budget if they exceed the limit).
    Foreground,
    /// Executor worker `n`. Blocks until eviction or a finish/delete
    /// frees memory, registered in `blocked_workers` meanwhile.
    Worker(usize),
    /// An inline (blocking) read on the calling thread. Cannot block on
    /// other threads, so budget exhaustion is an error.
    Inline,
}

/// What a unit's table entry shares with its records, their handles
/// and its read session: the name — so no record operation copies it —
/// and the LRU stamp, which a key lookup sets under the store lock
/// alone. Stamp and clock are `Relaxed`: they rank eviction candidates
/// and publish nothing.
pub(crate) struct UnitTag {
    pub(crate) name: String,
    /// LRU clock value of the most recent access.
    last_access: AtomicU64,
}

impl UnitTag {
    /// Stamp the unit as used now, advancing `clock`; returns the stamp.
    pub(crate) fn touch(&self, clock: &AtomicU64) -> u64 {
        let now = clock.fetch_add(1, Ordering::Relaxed) + 1;
        self.last_access.store(now, Ordering::Relaxed);
        now
    }
}

pub(crate) struct UnitEntry {
    pub(crate) tag: Arc<UnitTag>,
    pub(crate) reader: Option<ReadFn>,
    pub(crate) state: UnitState,
    pub(crate) records: Vec<RecordId>,
    pub(crate) refcount: usize,
    /// Bytes charged by this unit's records.
    pub(crate) bytes: u64,
    /// Monotonic sequence assigned when the unit finished loading (FIFO
    /// eviction order).
    pub(crate) loaded_seq: u64,
    /// Executor worker currently reading this unit (`None` when idle or
    /// read inline on an application thread). The deadlock check uses
    /// it to see whether the unit a caller waits for is stuck behind a
    /// memory-blocked worker.
    pub(crate) reading_worker: Option<usize>,
    /// Trace tid of the thread whose load most recently made this unit
    /// `Ready` (0 = unknown, e.g. rebuilt by WAL replay or snapshot
    /// restore). `wait_unit` spans carry it as `served_tid` so the
    /// critical-path analyzer can link a wait to the serving thread.
    pub(crate) loaded_by: u64,
}

impl UnitEntry {
    pub(crate) fn new(name: &str, reader: Option<ReadFn>, state: UnitState) -> Self {
        UnitEntry {
            tag: Arc::new(UnitTag {
                name: name.to_string(),
                last_access: AtomicU64::new(0),
            }),
            reader,
            state,
            records: Vec::new(),
            refcount: 0,
            bytes: 0,
            loaded_seq: 0,
            reading_worker: None,
            loaded_by: 0,
        }
    }

    /// Stamp a completed load on the LRU clock (`loaded_seq` also
    /// marks the unit as having been loaded once, across evictions).
    pub(crate) fn mark_loaded(&mut self, clock: &AtomicU64) {
        self.loaded_seq = self.tag.touch(clock);
    }

    pub(crate) fn evictable(&self) -> bool {
        // No `bytes > 0` condition: a zero-byte finished unit frees no
        // memory, but evicting it returns it to `Registered` so it stops
        // pinning a unit-table slot and an LRU entry forever.
        self.state == UnitState::Finished && self.refcount == 0
    }
}

#[derive(Default)]
pub(crate) struct UnitsState {
    pub(crate) units: HashMap<String, UnitEntry>,
    /// The prefetch queue: units wait in arrival order (§3.2) for a
    /// free worker, or for the `wait_unit` that reads them inline.
    pub(crate) queue: VecDeque<String>,
    pub(crate) mem_used: u64,
    pub(crate) mem_limit: u64,
    /// Executor workers currently blocked waiting for memory, keyed by
    /// worker id, with the bytes each needs. The deadlock check
    /// re-verifies the shortage against these needs, so a stale entry
    /// (`set_mem_space` raised the budget but the worker has not yet
    /// woken) is never reported as a deadlock.
    pub(crate) blocked_workers: BTreeMap<usize, u64>,
    pub(crate) shutdown: bool,
}

impl UnitsState {
    pub(crate) fn has_evictable(&self) -> bool {
        self.units.values().any(|u| u.evictable())
    }

    /// The memory-blocked worker with the smallest need that still does
    /// not fit in the budget — i.e. proof that *no* blocked worker can
    /// proceed. `None` when some blocked worker's need now fits (or none
    /// is blocked).
    pub(crate) fn stuck_worker(&self) -> Option<(usize, u64)> {
        let (&worker, &need) = self.blocked_workers.iter().min_by_key(|(_, &need)| need)?;
        (self.mem_used.saturating_add(need) > self.mem_limit).then_some((worker, need))
    }
}

/// The unit layer: unit table + queue + budget behind one lock, with
/// the two condition variables the rest of the database synchronizes
/// through. Operations that also touch the record store (eviction,
/// charging, delete, reset) are the `impl Inner` block below.
pub(crate) struct Units {
    pub(crate) state: Mutex<UnitsState>,
    /// The LRU clock: ticks on every unit access (wait, load, lookup).
    pub(crate) clock: AtomicU64,
    /// Signaled on unit state changes and on blocked-worker
    /// transitions; `wait_unit` waits here.
    pub(crate) unit_cv: Condvar,
    /// Signaled when a worker may have work or memory: queue push,
    /// memory freed, budget raised, shutdown.
    pub(crate) work_cv: Condvar,
    pub(crate) eviction: EvictionPolicy,
    /// Number of executor worker threads (0 = inline mode).
    pub(crate) worker_count: usize,
    /// Second-tier spill cache for evicted units (DESIGN.md §5f), or
    /// `None` when spilling is off (the default — the paper's
    /// discard-on-evict behaviour).
    pub(crate) spill: Option<SpillTier>,
    /// Write-ahead log journaling unit lifecycle transitions (DESIGN.md
    /// §5g), or `None` when durability is off (the default). The WAL's
    /// write lock is the innermost lock in the database, so every
    /// journal point below may append while holding the units lock.
    pub(crate) wal: Option<Arc<Wal>>,
    tel: Arc<Telemetry>,
}

pub(crate) fn unknown_unit(name: &str) -> GodivaError {
    GodivaError::UnitError(format!("unknown unit '{name}'"))
}

impl Units {
    pub(crate) fn new(
        tel: Arc<Telemetry>,
        mem_limit: u64,
        eviction: EvictionPolicy,
        worker_count: usize,
        spill: Option<SpillTier>,
        wal: Option<Arc<Wal>>,
    ) -> Self {
        Units {
            state: Mutex::new(UnitsState {
                mem_limit,
                ..Default::default()
            }),
            clock: AtomicU64::new(0),
            unit_cv: Condvar::new(),
            work_cv: Condvar::new(),
            eviction,
            worker_count,
            spill,
            wal,
            tel,
        }
    }

    /// Append a unit lifecycle entry to the WAL, if one is active.
    pub(crate) fn journal(&self, entry: WalEntry) {
        if let Some(wal) = &self.wal {
            wal.append(&entry);
        }
    }

    /// Re-assert the `gbo.queue_depth` gauge from the queue itself.
    /// Every path that pushes to, pops from or edits the queue calls
    /// this, so the gauge can never go stale or (being recomputed, not
    /// adjusted by deltas) negative.
    pub(crate) fn sync_queue_gauge(&self, st: &UnitsState) {
        self.tel.metrics.queue_depth.set(st.queue.len() as u64);
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, UnitsState> {
        self.state.lock()
    }

    /// Return `bytes` to the budget (and to `unit`'s account).
    pub(crate) fn release(&self, st: &mut UnitsState, bytes: u64, unit: Option<&UnitTag>) {
        if bytes == 0 {
            return;
        }
        st.mem_used = st.mem_used.saturating_sub(bytes);
        self.tel.metrics.mem.set(st.mem_used);
        if let Some(u) = unit.and_then(|u| st.units.get_mut(&u.name)) {
            u.bytes = u.bytes.saturating_sub(bytes);
        }
        self.work_cv.notify_all();
    }

    /// `addUnit`: register (or re-arm) the unit and enqueue it.
    pub(crate) fn add_unit(&self, name: &str, reader: ReadFn) -> Result<()> {
        let mut st = self.lock();
        if st.shutdown {
            return Err(GodivaError::Shutdown);
        }
        match st.units.get_mut(name) {
            None => {
                let entry = UnitEntry::new(name, Some(reader), UnitState::Queued);
                st.units.insert(name.to_string(), entry);
            }
            Some(entry) if entry.state == UnitState::Registered => {
                entry.reader = Some(reader);
                entry.state = UnitState::Queued;
            }
            Some(entry) => {
                return Err(GodivaError::UnitError(format!(
                    "unit '{name}' already added (state {:?})",
                    entry.state
                )))
            }
        }
        st.queue.push_back(name.to_string());
        self.journal(WalEntry::UnitAdded {
            unit: name.to_string(),
        });
        self.sync_queue_gauge(&st);
        self.tel.unit_added(name, true);
        self.work_cv.notify_all();
        Ok(())
    }

    /// First half of `readUnit`: make `name` known (not queued — the
    /// caller's wait reads it inline) or, if it is merely registered,
    /// give it `reader`. A unit already on its way keeps its own.
    pub(crate) fn arm_for_read(&self, name: &str, reader: ReadFn) -> Result<()> {
        let mut st = self.lock();
        if st.shutdown {
            return Err(GodivaError::Shutdown);
        }
        match st.units.get_mut(name) {
            None => {
                let entry = UnitEntry::new(name, Some(reader), UnitState::Registered);
                st.units.insert(name.to_string(), entry);
                self.journal(WalEntry::UnitAdded {
                    unit: name.to_string(),
                });
                self.tel.unit_added(name, false);
            }
            Some(entry) if entry.state == UnitState::Registered => entry.reader = Some(reader),
            Some(_) => {}
        }
        Ok(())
    }

    /// Remove `name` from the prefetch queue if enqueued.
    pub(crate) fn unqueue(&self, st: &mut UnitsState, name: &str) {
        if let Some(pos) = st.queue.iter().position(|n| n == name) {
            st.queue.remove(pos);
        }
        // Unconditional: even a no-op removal re-asserts the gauge.
        self.sync_queue_gauge(st);
    }

    /// `finishUnit`: unpin; at zero pins a `Ready` unit becomes
    /// `Finished` — evictable — and only that transition is journaled
    /// and reported. Finishing an already `Finished` unit is a no-op.
    pub(crate) fn finish_unit(&self, name: &str) -> Result<()> {
        let mut st = self.lock();
        let entry = st.units.get_mut(name).ok_or_else(|| unknown_unit(name))?;
        if !entry.state.is_loaded() {
            return Err(GodivaError::UnitError(format!(
                "unit '{name}' is not loaded (state {:?})",
                entry.state
            )));
        }
        entry.refcount = entry.refcount.saturating_sub(1);
        if entry.refcount == 0 && entry.state == UnitState::Ready {
            entry.state = UnitState::Finished;
            self.journal(WalEntry::UnitFinished {
                unit: name.to_string(),
            });
            self.tel.unit_finished(name);
            // A worker may have been waiting for evictable memory.
            self.work_cv.notify_all();
        }
        Ok(())
    }
}

/// Unit operations that reach into the record store (lock order is
/// always units → store).
impl Inner {
    /// Charge `bytes` to the budget on behalf of `unit` (if any),
    /// blocking or failing according to `ctx`.
    pub(crate) fn charge<'a>(
        &'a self,
        st: &mut MutexGuard<'a, UnitsState>,
        bytes: u64,
        ctx: AllocCtx,
        unit: Option<&UnitTag>,
    ) -> Result<()> {
        let metrics = &self.tel.metrics;
        loop {
            if st.shutdown && matches!(ctx, AllocCtx::Worker(_)) {
                return Err(GodivaError::Shutdown);
            }
            if st.mem_used + bytes <= st.mem_limit {
                break;
            }
            if self.evict_one(st) {
                continue;
            }
            // Nothing evictable. If everything currently charged belongs
            // to the unit being read, the unit is simply larger than the
            // budget; proceed over budget rather than hang (the paper
            // assumes one unit always fits).
            let own = unit
                .and_then(|u| st.units.get(&u.name))
                .map(|u| u.bytes)
                .unwrap_or(0);
            if st.mem_used.saturating_sub(own) == 0 {
                metrics.over_budget_allocs.inc();
                break;
            }
            match ctx {
                AllocCtx::Foreground => {
                    metrics.over_budget_allocs.inc();
                    break;
                }
                AllocCtx::Inline => {
                    return Err(GodivaError::OutOfMemory {
                        requested: bytes,
                        mem_used: st.mem_used,
                        mem_limit: st.mem_limit,
                    });
                }
                AllocCtx::Worker(id) => {
                    st.blocked_workers.insert(id, bytes);
                    // Wake any `wait_unit` callers so they can run the
                    // deadlock check (§3.3).
                    self.units.unit_cv.notify_all();
                    self.units.work_cv.wait(st);
                    st.blocked_workers.remove(&id);
                }
            }
        }
        st.mem_used += bytes;
        metrics.bytes_allocated.add(bytes);
        metrics.mem.set(st.mem_used);
        if let Some(u) = unit.and_then(|u| st.units.get_mut(&u.name)) {
            u.bytes += bytes;
        }
        Ok(())
    }

    /// Evict one finished, unpinned unit according to the policy.
    /// Returns whether anything was evicted.
    pub(crate) fn evict_one(&self, st: &mut UnitsState) -> bool {
        let candidate =
            st.units
                .values()
                .filter(|u| u.evictable())
                .min_by_key(|u| match self.units.eviction {
                    EvictionPolicy::Lru => u.tag.last_access.load(Ordering::Relaxed),
                    EvictionPolicy::Fifo => u.loaded_seq,
                });
        let Some(victim) = candidate else {
            return false;
        };
        let tag = Arc::clone(&victim.tag);
        let name = tag.name.as_str();
        // Spill the unit's buffers before they are dropped, atomically
        // with the eviction (both happen under the units lock, so a
        // concurrent reader can never observe "evicted but not yet
        // spilled"). Empty units have nothing worth a file.
        if let Some(spill) = &self.units.spill {
            if !victim.records.is_empty() {
                if let Some(frame) = crate::spill::encode_unit(&self.store, name, &victim.records) {
                    spill.store_unit(name, frame);
                }
            }
        }
        let freed = self.drop_unit_data(st, name);
        self.units.journal(WalEntry::UnitEvicted {
            unit: name.to_string(),
        });
        self.tel.unit_evicted(name, freed, st.mem_used);
        true
    }

    /// Remove a unit's records from the store and index, free its bytes,
    /// and return the unit to `Registered`. Returns bytes freed.
    /// Takes the store lock.
    pub(crate) fn drop_unit_data(&self, st: &mut UnitsState, name: &str) -> u64 {
        let Some(entry) = st.units.get_mut(name) else {
            return 0;
        };
        let records = std::mem::take(&mut entry.records);
        let freed = entry.bytes;
        entry.bytes = 0;
        entry.state = UnitState::Registered;
        self.store.remove_records(&records);
        st.mem_used = st.mem_used.saturating_sub(freed);
        self.tel.metrics.mem.set(st.mem_used);
        if freed > 0 {
            self.units.work_cv.notify_all();
        }
        freed
    }

    /// `deleteUnit`: drop the unit's records immediately.
    pub(crate) fn delete_unit(&self, name: &str) -> Result<()> {
        let mut st = self.units.lock();
        let entry = st.units.get_mut(name).ok_or_else(|| unknown_unit(name))?;
        match entry.state {
            UnitState::Reading => {
                return Err(GodivaError::UnitError(format!(
                    "unit '{name}' is being read and cannot be deleted"
                )))
            }
            UnitState::Queued => {
                entry.state = UnitState::Registered;
                self.units.unqueue(&mut st, name);
            }
            _ => {}
        }
        if let Some(e) = st.units.get_mut(name) {
            e.refcount = 0;
        }
        let freed = self.drop_unit_data(&mut st, name);
        // `deleteUnit` is the developer saying the data is gone — a
        // spilled copy must not resurrect it on the next read, and a
        // recovered run must not re-adopt one either.
        if let Some(spill) = &self.units.spill {
            spill.invalidate(name);
        }
        self.units.journal(WalEntry::UnitDeleted {
            unit: name.to_string(),
        });
        self.tel.unit_deleted(name, freed);
        Ok(())
    }

    /// Re-queue a `Failed` unit for another load attempt with its
    /// existing read function, dropping any partial records first.
    pub(crate) fn reset_unit(&self, name: &str) -> Result<()> {
        let mut st = self.units.lock();
        if st.shutdown {
            return Err(GodivaError::Shutdown);
        }
        let entry = st.units.get_mut(name).ok_or_else(|| unknown_unit(name))?;
        match entry.state {
            UnitState::Failed(_) => {}
            ref other => {
                return Err(GodivaError::UnitError(format!(
                    "unit '{name}' is not failed (state {other:?}) and cannot be reset"
                )))
            }
        }
        if entry.reader.is_none() {
            return Err(GodivaError::UnitError(format!(
                "unit '{name}' has no reader to retry with"
            )));
        }
        entry.refcount = 0;
        self.drop_unit_data(&mut st, name);
        let entry = st.units.get_mut(name).expect("still present");
        entry.state = UnitState::Queued;
        st.queue.push_back(name.to_string());
        self.units.sync_queue_gauge(&st);
        self.tel.unit_reset(name);
        self.units.work_cv.notify_all();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::db::{Gbo, GboConfig, UnitSession};

    /// A single-thread database (nothing drains the queue) with `names`
    /// added in order.
    fn queued(names: &[&str]) -> Gbo {
        let db = Gbo::with_config(GboConfig {
            background_io: false,
            ..Default::default()
        });
        for name in names {
            db.add_unit(name, |_s: &UnitSession| Ok(())).unwrap();
        }
        db
    }

    #[test]
    fn fifo_preserves_arrival_order() {
        let db = queued(&["a", "b", "c"]);
        let mut st = db.inner.units.lock();
        assert_eq!(st.queue.len(), 3);
        assert_eq!(st.queue.pop_front().as_deref(), Some("a"));
        assert_eq!(st.queue.pop_front().as_deref(), Some("b"));
        assert_eq!(st.queue.pop_front().as_deref(), Some("c"));
        assert_eq!(st.queue.pop_front(), None);
    }

    #[test]
    fn fifo_remove_plucks_from_middle() {
        let db = queued(&["a", "b", "c"]);
        let units = &db.inner.units;
        let mut st = units.lock();
        units.unqueue(&mut st, "b");
        units.unqueue(&mut st, "b");
        assert_eq!(st.queue, ["a", "c"]);
    }
}
