//! The GODIVA database — the paper's GBO (GODIVA Buffer Object).
//!
//! This module is the public facade over three internal layers and the
//! telemetry they share (see DESIGN.md §5e):
//!
//! - [`crate::store`] — schema registry, record table and key index
//!   behind their own lock (§3.1, §3.3's RB-tree equivalent),
//! - [`crate::units`] — unit table, reference counts, LRU clock, the
//!   FIFO prefetch queue and the memory budget (§3.2–3.3),
//! - [`crate::exec`] — the I/O executor: `GboConfig::io_threads` reader
//!   worker threads, panic isolation, retry, wait/deadlock logic,
//! - [`crate::telemetry`] — counters, tracers, flight recorder and the
//!   one definition of every event the layers report.
//!
//! The public API mirrors the paper's interface names in snake case:
//! `define_field`, `define_record`, `insert_field`, `commit_record_type`,
//! `new_record`, `alloc_field` (the paper's `allocFieldBuffer`),
//! `commit_record`, `get_field_buffer`, `get_field_buffer_size`,
//! `add_unit`, `read_unit`, `wait_unit`, `finish_unit`, `delete_unit`,
//! and `set_mem_space`. A field changes only through its record's
//! [`RecordHandle`] (`set_*`, `update_field`); the [`FieldRef`]s that
//! `get_field_buffer` hands out are immutable (see [`crate::buffer`]).

use crate::buffer::{FieldData, FieldRef, Key};
use crate::error::{GodivaError, Result};
use crate::exec::Executor;
use crate::schema::{DeclaredSize, FieldKind, RecordTypeDef};
use crate::stats::GboStats;
use crate::store::Store;
use crate::telemetry::Telemetry;
use crate::unit::{EvictionPolicy, ReadFunction, UnitState};
use crate::units::{AllocCtx, UnitTag, Units};
use crate::wal::{Durability, Wal};
use godiva_obs::{FlightRecorder, MetricsRegistry, Tracer};
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub use crate::store::RecordId;

/// How the database re-runs a read function whose failure is transient
/// (see [`GodivaError::is_transient`]).
///
/// Attempt *n* (1-based) that fails transiently sleeps
/// `min(base_backoff × 2^(n−1), max_backoff)` before attempt *n + 1*.
/// Partial records created by the failed attempt are rolled back first,
/// so a retried read function always starts from a clean unit. The
/// default policy makes a single attempt — no retries — preserving the
/// paper library's behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (including the first). `0` is treated as `1`.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// No retries: one attempt, any failure is final.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// Retry up to `max_attempts` total attempts with exponential
    /// backoff starting at `base_backoff`, capped at `max_backoff`.
    pub fn new(max_attempts: u32, base_backoff: Duration, max_backoff: Duration) -> Self {
        RetryPolicy {
            max_attempts,
            base_backoff,
            max_backoff,
        }
    }

    /// Effective attempt budget (at least one).
    pub fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// Backoff to sleep after failed attempt `attempt` (1-based).
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(31);
        self.base_backoff
            .saturating_mul(1u32 << shift)
            .min(self.max_backoff)
    }

    /// Upper bound on the total time spent sleeping between attempts.
    pub fn max_total_backoff(&self) -> Duration {
        (1..self.attempts()).fold(Duration::ZERO, |acc, a| {
            acc.saturating_add(self.backoff_for(a))
        })
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Construction-time configuration of a [`Gbo`].
#[derive(Debug, Clone)]
pub struct GboConfig {
    /// Memory budget in bytes for all data buffers (the paper's
    /// constructor parameter, there given in MB).
    pub mem_limit: u64,
    /// `true` = multi-thread GODIVA (background I/O workers, the paper's
    /// **TG**); `false` = single-thread GODIVA (reads happen inside
    /// `wait_unit`, the paper's **G**).
    pub background_io: bool,
    /// Number of reader worker threads the I/O executor owns when
    /// `background_io` is true. `1` (the default) reproduces the paper's
    /// single background I/O thread; more workers overlap one unit's
    /// decode CPU with another's disk time; `0` is equivalent to
    /// `background_io: false` (every read happens inline in
    /// `wait_unit`).
    pub io_threads: usize,
    /// Eviction policy for finished units (paper: LRU).
    pub eviction: EvictionPolicy,
    /// Retry policy for transiently failing read functions, applied by
    /// both the I/O workers and inline reads. Default: none.
    pub retry: RetryPolicy,
    /// Tracer receiving the database's lifecycle events (unit added /
    /// read / waited-on / finished / evicted, record commits, key
    /// lookups, deadlocks). Default: disabled — one untaken branch per
    /// would-be event, no allocation. The per-record events
    /// (`record_commit`, `key_lookup`, the `wal_append` of a record
    /// commit) exist only while this tracer is enabled.
    pub tracer: Tracer,
    /// Registry this database registers its metrics in, under `gbo.*`
    /// names. `None` (the default) keeps the metrics private to
    /// [`Gbo::stats`].
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Crash flight recorder: a bounded ring of the most recent `gbo`
    /// events, teed off the tracer (it records even when `tracer` is
    /// disabled — then every event but the per-record ones, so the ring
    /// spans unit lifecycles rather than the last few thousand lookups)
    /// and dumped as a JSONL post-mortem when a read function
    /// panics or a deadlock is detected. Default: on, with
    /// [`godiva_obs::DEFAULT_FLIGHT_RECORDER_CAPACITY`] events. Set to
    /// `None` for zero instrumentation (benchmark baselines).
    pub flight_recorder: Option<Arc<FlightRecorder>>,
    /// Where post-mortem dumps go. `None` (the default) writes to
    /// `godiva-postmortem-<pid>.jsonl` in the system temp directory.
    pub postmortem_path: Option<PathBuf>,
    /// Second-tier spill cache for evicted units (DESIGN.md §5f): when
    /// set, eviction writes a unit's buffers to a checksummed file and a
    /// later read re-materializes them with one sequential read instead
    /// of re-running the developer callback. `None` (the default) is the
    /// paper's discard-on-evict behaviour.
    pub spill: Option<crate::spill::SpillConfig>,
    /// Directory for the write-ahead log (DESIGN.md §5g). When set (and
    /// `durability` is not [`Durability::None`]), every record commit
    /// and unit lifecycle transition is journaled there, and
    /// [`Gbo::open_recovering`] can rebuild state after a crash —
    /// re-adopting spill frames for warm restarts. `None` (the default)
    /// disables journaling entirely.
    pub wal_dir: Option<PathBuf>,
    /// How hard journal records are pushed toward stable storage; only
    /// meaningful when `wal_dir` is set. Default: [`Durability::Wal`]
    /// (append without fsync — survives process crashes).
    pub durability: Durability,
    /// Liveness watchdog interval: when set (and background I/O is on),
    /// a monitor thread checks that outstanding work — queued units or
    /// in-flight reads — keeps producing unit-lifecycle progress. Work
    /// pending with no progress for this long counts one
    /// `gbo.watchdog_stalls`, emits a `watchdog_stall` trace instant
    /// and proactively dumps the flight recorder, *before* anyone hits
    /// a wait timeout. This generalizes the §3.3 deadlock detector
    /// (which needs every worker provably blocked on memory) to stalls
    /// it cannot see: a wedged device, a read function stuck in a
    /// syscall, a livelocked retry loop. `None` (the default) disables
    /// the watchdog.
    pub watchdog: Option<Duration>,
}

impl Default for GboConfig {
    fn default() -> Self {
        GboConfig {
            mem_limit: 256 * 1024 * 1024,
            background_io: true,
            io_threads: 1,
            eviction: EvictionPolicy::Lru,
            retry: RetryPolicy::none(),
            tracer: Tracer::disabled(),
            metrics: None,
            flight_recorder: Some(Arc::new(FlightRecorder::default())),
            postmortem_path: None,
            spill: None,
            wal_dir: None,
            durability: Durability::default(),
            watchdog: None,
        }
    }
}

/// Shared core of one database: the layers, the retry policy and the
/// telemetry every layer also holds. A layer owns the services it uses;
/// an operation that needs a *sibling* layer is an `impl Inner` block in
/// the module it belongs to (`units`: charge, evict, delete, reset;
/// `exec`: read execution and waits; `spill`: re-materialization).
pub(crate) struct Inner {
    pub(crate) store: Store,
    pub(crate) units: Units,
    pub(crate) retry: RetryPolicy,
    pub(crate) tel: Arc<Telemetry>,
}

/// The GODIVA database object. See the [module docs](self).
pub struct Gbo {
    records: Records,
    exec: Executor,
    watchdog: Option<Watchdog>,
    /// Optional window-backed health engine behind [`Gbo::pressure`];
    /// attached by the host (voyager, a future `godiva-serve`) after
    /// construction.
    health: parking_lot::Mutex<Option<godiva_obs::HealthHandle>>,
}

/// The liveness watchdog thread (see [`GboConfig::watchdog`]).
struct Watchdog {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Spawn the monitor: every `interval / 4` it samples the amount of
    /// outstanding work (prefetch-queue depth + in-flight reads) and
    /// the progress signature; outstanding work with an unchanged
    /// signature for `interval` is a stall.
    fn spawn(inner: &Arc<Inner>, interval: Duration) -> Watchdog {
        let interval = interval.max(Duration::from_millis(10));
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let inner = Arc::clone(inner);
        let thread = std::thread::Builder::new()
            .name("godiva-watchdog".into())
            .spawn(move || {
                let nap = (interval / 4).max(Duration::from_millis(5));
                let tel = &inner.tel;
                let mut last_sig = tel.progress_signature();
                let mut quiet_since = std::time::Instant::now();
                while !stop2.load(Ordering::Relaxed) {
                    std::thread::sleep(nap);
                    if stop2.load(Ordering::Relaxed) {
                        return;
                    }
                    let queued = {
                        let st = inner.units.lock();
                        if st.shutdown {
                            return;
                        }
                        st.queue.len() as u64
                    };
                    let in_flight = tel.metrics.io_workers_busy.get();
                    let sig = tel.progress_signature();
                    if sig != last_sig || queued + in_flight == 0 {
                        last_sig = sig;
                        quiet_since = std::time::Instant::now();
                        continue;
                    }
                    let stalled = quiet_since.elapsed();
                    if stalled >= interval {
                        tel.watchdog_stall(queued, in_flight, stalled);
                        // Re-arm: a stall persisting another full
                        // interval counts again, so the health engine's
                        // windowed delta keeps the alert firing for as
                        // long as the stall lasts.
                        quiet_since = std::time::Instant::now();
                    }
                }
            })
            .expect("spawn watchdog thread");
        Watchdog {
            stop,
            thread: Some(thread),
        }
    }

    fn join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Gbo {
    /// Create a database with a memory budget in **megabytes**, matching
    /// the paper's `new GBO(400)` constructor. Background I/O enabled.
    pub fn new(mem_mb: u64) -> Self {
        Self::with_config(GboConfig {
            mem_limit: mem_mb * 1024 * 1024,
            ..GboConfig::default()
        })
    }

    /// Create a database with explicit configuration. When
    /// `config.wal_dir` is set a **fresh** log is started (any previous
    /// one is truncated) — use [`Gbo::open_recovering`] to resume from
    /// an existing log instead.
    pub fn with_config(config: GboConfig) -> Self {
        let tel = Telemetry::new(&config);
        let wal = Self::fresh_wal(&config, &tel);
        Self::build(config, tel, wal)
    }

    /// Start a fresh WAL per the config, or `None` when journaling is
    /// off. Construction is infallible, so a WAL that cannot be opened
    /// degrades to running without one (announced once on stderr) — the
    /// database must not refuse to start over a durability add-on.
    fn fresh_wal(config: &GboConfig, tel: &Arc<Telemetry>) -> Option<Arc<Wal>> {
        let dir = config.wal_dir.as_ref()?;
        if config.durability == Durability::None {
            return None;
        }
        let sync = config.durability == Durability::WalSync;
        match Wal::create(dir, sync, Arc::clone(tel)) {
            Ok(w) => Some(Arc::new(w)),
            Err(e) => {
                eprintln!(
                    "godiva: cannot start WAL in {}: {e}; running without journaling",
                    dir.display()
                );
                None
            }
        }
    }

    /// Assemble a database whose layers all report to `tel` (which the
    /// caller created first, so `wal` already holds it too).
    pub(crate) fn build(config: GboConfig, tel: Arc<Telemetry>, wal: Option<Arc<Wal>>) -> Self {
        let workers = if config.background_io {
            config.io_threads
        } else {
            0
        };
        let spill = config
            .spill
            .map(|s| crate::spill::SpillTier::new(s, wal.clone(), Arc::clone(&tel)));
        let inner = Arc::new(Inner {
            store: Store::new(Arc::clone(&tel), wal.clone()),
            units: Units::new(
                Arc::clone(&tel),
                config.mem_limit,
                config.eviction,
                workers,
                spill,
                wal,
            ),
            retry: config.retry,
            tel,
        });
        let exec = Executor::spawn(&inner, workers);
        // The watchdog only makes sense with background readers: in
        // inline mode a queued unit legitimately sits idle until the
        // application waits on it.
        let watchdog = match config.watchdog {
            Some(interval) if workers > 0 => Some(Watchdog::spawn(&inner, interval)),
            _ => None,
        };
        Gbo {
            records: Records {
                inner,
                unit: None,
                ctx: AllocCtx::Foreground,
            },
            exec,
            watchdog,
            health: parking_lot::Mutex::new(None),
        }
    }

    // --- background I/O interfaces (§3.2) --------------------------------

    /// `addUnit(name, readFunction)`: non-blocking; appends the unit to
    /// the FIFO prefetch queue.
    pub fn add_unit(&self, name: &str, reader: impl ReadFunction + 'static) -> Result<()> {
        self.inner.units.add_unit(name, Arc::new(reader))
    }

    /// `readUnit(name, readFunction)`: blocking explicit read of a unit
    /// on the calling thread (used by interactive tools, §3.2).
    pub fn read_unit(&self, name: &str, reader: impl ReadFunction + 'static) -> Result<()> {
        self.inner.units.arm_for_read(name, Arc::new(reader))?;
        self.inner.wait_loaded(name, true, None)
    }

    /// `waitUnit(name)`: block until the unit is in the database, then
    /// pin it (unit-level reference count, §3.3).
    pub fn wait_unit(&self, name: &str) -> Result<()> {
        self.inner.wait_loaded(name, false, None)
    }

    /// Like [`Gbo::wait_unit`], but give up after `timeout` if the unit
    /// is still loading on a worker, returning
    /// [`GodivaError::WaitTimeout`]. The unit is *not* failed by a
    /// timeout — it keeps loading, and a later wait can still succeed.
    /// A read performed inline on the calling thread (single-thread
    /// mode, or a revisit after eviction) is not interruptible and runs
    /// to completion regardless of `timeout`.
    pub fn wait_unit_timeout(&self, name: &str, timeout: Duration) -> Result<()> {
        self.inner.wait_loaded(name, false, Some(timeout))
    }

    /// Re-queue a `Failed` unit for another load attempt with its
    /// existing read function. Partial records from the failed attempt
    /// are dropped first, so the read function starts clean — no
    /// `delete_unit` + `add_unit` dance required after a fault clears.
    pub fn reset_unit(&self, name: &str) -> Result<()> {
        self.inner.reset_unit(name)
    }

    /// Like [`Gbo::wait_unit`], but returns an RAII guard that calls
    /// `finish_unit` when dropped — the idiomatic-Rust companion to the
    /// paper's explicit `waitUnit`/`finishUnit` pairing, making the
    /// §3.3 "forgot to finish" deadlock unrepresentable in code that
    /// uses guards.
    pub fn wait_unit_guard(&self, name: &str) -> Result<UnitGuard> {
        self.inner.wait_loaded(name, false, None)?;
        Ok(UnitGuard {
            inner: Arc::clone(&self.inner),
            name: name.to_string(),
        })
    }

    /// `finishUnit(name)`: unpin; at zero pins the unit becomes
    /// evictable but stays queryable until memory pressure evicts it.
    pub fn finish_unit(&self, name: &str) -> Result<()> {
        self.inner.units.finish_unit(name)
    }

    /// `deleteUnit(name)`: drop the unit's records immediately. The unit
    /// stays registered and may be re-added or re-read later.
    pub fn delete_unit(&self, name: &str) -> Result<()> {
        self.inner.delete_unit(name)
    }

    /// `setMemSpace(bytes)`: adjust the memory budget at runtime.
    pub fn set_mem_space(&self, bytes: u64) {
        {
            let mut st = self.inner.units.lock();
            st.mem_limit = bytes;
        }
        self.inner.tel.metrics.mem_limit.set(bytes);
        self.inner.units.work_cv.notify_all();
    }

    // --- introspection ----------------------------------------------------

    /// Current state of a unit, if known.
    pub fn unit_state(&self, name: &str) -> Option<UnitState> {
        self.inner
            .units
            .lock()
            .units
            .get(name)
            .map(|u| u.state.clone())
    }

    /// Names of all known units, sorted.
    pub fn unit_names(&self) -> Vec<String> {
        let st = self.inner.units.lock();
        let mut names: Vec<String> = st.units.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of live records in the database.
    pub fn record_count(&self) -> usize {
        self.inner.store.lock().records.len()
    }

    /// Names of all defined record types, sorted.
    pub fn record_type_names(&self) -> Vec<String> {
        self.inner.store.lock().schema.record_type_names()
    }

    /// Number of units waiting in the prefetch queue.
    pub fn queue_len(&self) -> usize {
        self.inner.units.lock().queue.len()
    }

    /// Bytes currently charged against the budget.
    pub fn mem_used(&self) -> u64 {
        self.inner.units.lock().mem_used
    }

    /// The configured memory budget in bytes.
    pub fn mem_limit(&self) -> u64 {
        self.inner.units.lock().mem_limit
    }

    /// Number of reader worker threads the I/O executor owns (0 =
    /// single-thread inline mode).
    pub fn io_workers(&self) -> usize {
        self.inner.units.worker_count
    }

    /// Snapshot of the runtime statistics. Counter reads are lock-free;
    /// only the authoritative `mem_used` figure comes from the unit
    /// lock.
    pub fn stats(&self) -> GboStats {
        let mut s = self.inner.tel.metrics.snapshot();
        s.mem_used = self.inner.units.lock().mem_used;
        s
    }

    /// The tracer this database emits lifecycle events through (disabled
    /// unless one was supplied in [`GboConfig`]). Share it — via
    /// [`Tracer::clone`] — with the other layers of a pipeline so all
    /// events land on one timeline.
    pub fn tracer(&self) -> &Tracer {
        self.inner.tel.tracer()
    }

    /// The crash flight recorder, if one is installed (the default). Its
    /// ring holds the most recent `gbo` events; the database dumps it
    /// automatically on reader panics and detected deadlocks.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.inner.tel.flight_recorder.as_ref()
    }

    /// Dump the flight recorder's ring as a JSONL post-mortem right now
    /// (same path the automatic panic/deadlock dumps use). Returns the
    /// written path, or `None` when no recorder is installed or the
    /// write failed.
    pub fn dump_postmortem(&self, reason: &str) -> Option<PathBuf> {
        self.inner.tel.dump_postmortem(reason)
    }

    /// Attach a health engine handle so [`Gbo::pressure`] answers from
    /// its smoothed sliding-window view instead of the instantaneous
    /// fallback below.
    pub fn attach_health(&self, handle: godiva_obs::HealthHandle) {
        *self.health.lock() = Some(handle);
    }

    /// Backpressure signal in `[0, 1]`: how close the database is to
    /// its memory budget and how backed up the prefetch queue is.
    /// Producers (mesh generators, snapshot loops) can poll this and
    /// throttle submission before the eviction/deadlock machinery has
    /// to intervene. With an attached health engine this is the
    /// windowed [`godiva_obs::HealthHandle::pressure`]; otherwise it is
    /// computed instantaneously under the state lock as
    /// `max(mem_used / mem_limit, queue / (queue + 8))`.
    pub fn pressure(&self) -> f64 {
        if let Some(h) = self.health.lock().as_ref() {
            return h.pressure();
        }
        let (used, limit, queue) = {
            let st = self.inner.units.lock();
            (st.mem_used, st.mem_limit, st.queue.len())
        };
        let mem_frac = if limit > 0 {
            used as f64 / limit as f64
        } else {
            0.0
        };
        let queue_frac = queue as f64 / (queue as f64 + 8.0);
        mem_frac.max(queue_frac).clamp(0.0, 1.0)
    }
}

impl Drop for Gbo {
    fn drop(&mut self) {
        {
            let mut st = self.inner.units.lock();
            st.shutdown = true;
        }
        self.inner.units.work_cv.notify_all();
        self.inner.units.unit_cv.notify_all();
        if let Some(w) = self.watchdog.as_mut() {
            w.join();
        }
        self.exec.join();
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// RAII pin on a loaded unit: created by [`Gbo::wait_unit_guard`],
/// releases its reference count (`finish_unit`) on drop.
pub struct UnitGuard {
    inner: Arc<Inner>,
    name: String,
}

impl UnitGuard {
    /// The pinned unit's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Finish the unit now (same as drop, but explicit).
    pub fn finish(self) {}
}

impl Drop for UnitGuard {
    fn drop(&mut self) {
        let _ = self.inner.units.finish_unit(&self.name);
    }
}

/// The record operation and query interfaces (§3.1), as a [`Gbo`] and
/// a [`UnitSession`] both offer them: each derefs to one of these. A
/// session's tags every record it creates with the unit being read;
/// the database's own creates records outside any unit.
pub struct Records {
    pub(crate) inner: Arc<Inner>,
    /// The unit new records belong to, if any.
    unit: Option<Arc<UnitTag>>,
    /// How an allocation behaves when the budget is exhausted.
    ctx: AllocCtx,
}

impl Records {
    /// `defineField(name, type, size)`.
    pub fn define_field(&self, name: &str, kind: FieldKind, size: DeclaredSize) -> Result<()> {
        let mut store = self.inner.store.lock();
        store.schema.define_field(name, kind, size)
    }

    /// `defineRecord(name, n_key_fields)`.
    pub fn define_record(&self, name: &str, key_fields: usize) -> Result<()> {
        let mut store = self.inner.store.lock();
        store.schema.define_record(name, key_fields)
    }

    /// `insertField(record, field, is_key)`.
    pub fn insert_field(&self, record: &str, field: &str, is_key: bool) -> Result<()> {
        let mut store = self.inner.store.lock();
        store.schema.insert_field(record, field, is_key)
    }

    /// `commitRecordType(record)`.
    pub fn commit_record_type(&self, record: &str) -> Result<()> {
        self.inner.store.lock().schema.commit_record_type(record)
    }

    /// `newRecord(type)`: create a record — owned by the unit being read
    /// when called on a session — and return a handle for filling its
    /// buffers. The unit lock is held across the store's insertion, the
    /// charge and the unit's record list (lock order units → store), so
    /// the three stay consistent with concurrent eviction.
    pub fn new_record(&self, type_name: &str) -> Result<RecordHandle> {
        let (inner, unit) = (&self.inner, self.unit.as_ref());
        let mut st = inner.units.lock();
        let (id, rt, total) = inner.store.install_record(type_name, unit)?;
        if let Err(e) = inner.charge(&mut st, total, self.ctx, self.unit.as_deref()) {
            inner.store.remove_records(&[id]);
            return Err(e);
        }
        if let Some(u) = unit.and_then(|u| st.units.get_mut(&u.name)) {
            u.records.push(id);
        }
        inner.tel.metrics.records_created.inc();
        Ok(RecordHandle {
            inner: Arc::clone(inner),
            id,
            ctx: self.ctx,
            rt,
            unit: self.unit.clone(),
        })
    }

    /// `commitRecord(record)`: snapshot the key fields and insert the
    /// record into the index.
    pub fn commit_record(&self, record: &RecordHandle) -> Result<()> {
        record.commit()
    }

    /// `getFieldBuffer(recordType, field, keyValues)`: locate the buffer
    /// of `field` in the record identified by `keys` (in key-field
    /// insertion order). Takes the store lock only: the LRU touch of
    /// the owning unit is an atomic stamp the record shares with it. In
    /// a read function this is the cross-record metadata sharing of the
    /// paper's footnote 1.
    pub fn get_field_buffer(
        &self,
        record_type: &str,
        field: &str,
        keys: &[Key],
    ) -> Result<FieldRef> {
        let clock = &self.inner.units.clock;
        self.inner.store.lookup(clock, record_type, field, keys)
    }

    /// `getFieldBufferSize(...)`: like [`Records::get_field_buffer`] but
    /// returns the buffer size in bytes.
    pub fn get_field_buffer_size(
        &self,
        record_type: &str,
        field: &str,
        keys: &[Key],
    ) -> Result<u64> {
        Ok(self.get_field_buffer(record_type, field, keys)?.byte_len())
    }
}

impl Deref for Gbo {
    type Target = Records;

    fn deref(&self) -> &Records {
        &self.records
    }
}

/// The view of the database a [`ReadFunction`] works through: all
/// [`Records`] operations are available, and every record created is
/// tagged with the unit being read.
pub struct UnitSession {
    records: Records,
    unit: Arc<UnitTag>,
}

impl UnitSession {
    pub(crate) fn new(inner: &Arc<Inner>, unit: &Arc<UnitTag>, ctx: AllocCtx) -> Self {
        UnitSession {
            records: Records {
                inner: Arc::clone(inner),
                unit: Some(Arc::clone(unit)),
                ctx,
            },
            unit: Arc::clone(unit),
        }
    }

    /// Name of the unit being read (read functions typically dispatch on
    /// this — e.g. it names the file to open).
    pub fn unit(&self) -> &str {
        &self.unit.name
    }
}

impl Deref for UnitSession {
    type Target = Records;

    fn deref(&self) -> &Records {
        &self.records
    }
}

/// Handle to one record: fill buffers, then commit. It carries the
/// record's compiled type and owning unit, so a `set_*` is checked
/// against the field's definition without a lock.
pub struct RecordHandle {
    inner: Arc<Inner>,
    id: RecordId,
    ctx: AllocCtx,
    rt: Arc<RecordTypeDef>,
    unit: Option<Arc<UnitTag>>,
}

impl RecordHandle {
    /// This record's database-unique id.
    pub fn id(&self) -> RecordId {
        self.id
    }

    fn slot(&self, field: &str) -> Result<usize> {
        self.rt
            .slot(field)
            .ok_or_else(|| GodivaError::UnknownField {
                record_type: self.rt.name.clone(),
                field: field.to_string(),
            })
    }

    /// Install `data` as the contents of `field`; returns the buffer
    /// handle. Behind `alloc_field`, `update_field` and every `set_*`.
    ///
    /// Two locks, nested: the unit lock for the accounting, the store
    /// lock inside it for the buffer swap — so neither eviction nor
    /// `delete_unit` can come between the two. The bytes are charged
    /// after the swap (the caller's vector exists either way); a worker
    /// short of memory blocks there until eviction or a finish frees
    /// some.
    fn set_field(&self, field: &str, data: FieldData) -> Result<FieldRef> {
        let slot = self.slot(field)?;
        let def = &self.rt.fields[slot];
        if data.kind() != def.kind {
            return Err(GodivaError::TypeMismatch(format!(
                "field '{field}' is declared {:?}, got {:?}",
                def.kind,
                data.kind()
            )));
        }
        let new_len = data.byte_len();
        // Enforce a declared Known size (the paper pre-allocates exactly
        // that many bytes).
        if let DeclaredSize::Known(declared) = def.size {
            if new_len > declared {
                return Err(GodivaError::TypeMismatch(format!(
                    "field '{field}' declared {declared} bytes, got {new_len}"
                )));
            }
        }
        let inner = &self.inner;
        let mut st = inner.units.lock();
        let (buf, old_len) = inner.store.set_field(self.id, slot, data)?;
        if new_len > old_len {
            inner.charge(&mut st, new_len - old_len, self.ctx, self.unit.as_deref())?;
        } else {
            let unit = self.unit.as_deref();
            inner.units.release(&mut st, old_len - new_len, unit);
        }
        Ok(buf)
    }

    /// `allocFieldBuffer(record, field, size)`: reserve and zero-fill
    /// `bytes` bytes for a field whose declared size was UNKNOWN; fill
    /// them through `update_field` or replace them through a `set_*`.
    pub fn alloc_field(&self, field: &str, bytes: u64) -> Result<FieldRef> {
        let kind = self.rt.fields[self.slot(field)?].kind;
        self.set_field(field, FieldData::zeroed(kind, bytes)?)
    }

    /// Fill a `Str` field.
    pub fn set_str(&self, field: &str, value: impl Into<String>) -> Result<()> {
        self.set_field(field, FieldData::Str(value.into()))
            .map(|_| ())
    }

    /// Fill an `F64` field (moves the vector in — no copy).
    pub fn set_f64(&self, field: &str, values: Vec<f64>) -> Result<()> {
        self.set_field(field, FieldData::F64(values)).map(|_| ())
    }

    /// Fill an `F32` field.
    pub fn set_f32(&self, field: &str, values: Vec<f32>) -> Result<()> {
        self.set_field(field, FieldData::F32(values)).map(|_| ())
    }

    /// Fill an `I32` field.
    pub fn set_i32(&self, field: &str, values: Vec<i32>) -> Result<()> {
        self.set_field(field, FieldData::I32(values)).map(|_| ())
    }

    /// Fill an `I64` field.
    pub fn set_i64(&self, field: &str, values: Vec<i64>) -> Result<()> {
        self.set_field(field, FieldData::I64(values)).map(|_| ())
    }

    /// Fill a `Bytes` field.
    pub fn set_bytes(&self, field: &str, values: Vec<u8>) -> Result<()> {
        self.set_field(field, FieldData::Bytes(values)).map(|_| ())
    }

    /// Get the field's buffer handle (must be allocated).
    pub fn field(&self, field: &str) -> Result<FieldRef> {
        self.inner.store.field(self.id, self.slot(field)?)
    }

    /// Change a field through `f` — the copy path: `f` edits a copy of the
    /// current contents, which then replaces them exactly as a `set_*`
    /// would (which moves a vector in without the copy).
    pub fn update_field<T>(&self, field: &str, f: impl FnOnce(&mut FieldData) -> T) -> Result<T> {
        let mut data = FieldData::clone(&*self.field(field)?);
        let out = f(&mut data);
        self.set_field(field, data)?;
        Ok(out)
    }

    /// Commit this record into the key index.
    pub fn commit(&self) -> Result<()> {
        self.inner.store.commit_record(self.id)
    }
}
