//! What the database reports about itself, and the one place that knows
//! how: the counters behind [`crate::Gbo::stats`], the tracers, the
//! crash flight recorder, and one method per event.
//!
//! Every layer holds the database's one [`Telemetry`] (an `Arc` handed
//! out at construction) and reports a lifecycle transition by calling
//! the method named after it, which bumps the event's counters and —
//! only if a tracer is listening, so an untraced database builds no
//! argument list — emits it. Event names, argument keys and the `"gbo"`
//! category are spelled here and nowhere else in the crate;
//! `tests/event_shapes.rs` pins them.
//!
//! Emitting while holding a state lock is safe: the lock order is
//! always state → sink. WAL journaling is *not* telemetry: it stays
//! explicit at each call site, before the report of the transition it
//! makes durable.

use crate::db::GboConfig;
use crate::error::GodivaError;
use crate::metrics::GboMetrics;
use crate::units::AllocCtx;
use godiva_obs::{ArgValue, Args, FlightRecorder, TraceSink, Tracer};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Category of every event the database emits.
const CAT: &str = "gbo";

pub(crate) struct Telemetry {
    /// Lock-free counters/histograms behind [`crate::Gbo::stats`].
    /// Counts that accompany no event are bumped through this directly,
    /// several of them outside any lock (the mutexes' release-acquire
    /// ordering makes the Relaxed updates visible to any reader that
    /// observed the corresponding state change).
    pub(crate) metrics: GboMetrics,
    /// Lifecycle tracer. When a flight recorder is installed it fans
    /// out to it, so the recorder's ring always holds the most recent
    /// events — even when the user configured no tracer.
    tracer: Tracer,
    /// Where the per-record events go (`record_commit`, `key_lookup`,
    /// a record commit's `wal_append`/`wal_fsync`): `tracer` when the
    /// user attached one, nowhere otherwise. Hundreds of them per unit
    /// would push the unit lifecycles a post-mortem is read for out of
    /// the flight recorder's ring, and building them would be most of
    /// an untraced lookup's cost.
    record_tracer: Tracer,
    pub(crate) flight_recorder: Option<Arc<FlightRecorder>>,
    postmortem_path: Option<PathBuf>,
}

/// An argument list whose keys are spelled once, as the names of the
/// values: `args![unit, bytes]` is `vec![("unit", unit.into()),
/// ("bytes", bytes.into())]`, and `key = expr` names a computed value.
macro_rules! args {
    ($($key:ident $(= $value:expr)?),* $(,)?) => {
        vec![$(args!(@pair $key $(= $value)?)),*]
    };
    (@pair $key:ident) => { (stringify!($key), $key.into()) };
    (@pair $key:ident = $value:expr) => { (stringify!($key), $value.into()) };
}

/// The worker id as a trace argument: the actual id on a worker, `-1`
/// for inline reads on an application thread.
fn worker_arg(ctx: AllocCtx) -> ArgValue {
    match ctx {
        AllocCtx::Worker(id) => (id as u64).into(),
        _ => (-1i64).into(),
    }
}

/// One attempt at a unit's read function, from its `read_start`: it
/// ends `done`, `failed` or `panicked`, each closing the attempt's
/// `read_unit` span.
pub(crate) struct ReadAttempt<'a> {
    tel: &'a Telemetry,
    unit: &'a str,
    attempt: u32,
    ctx: AllocCtx,
    start_us: u64,
}

impl Telemetry {
    pub(crate) fn new(config: &GboConfig) -> Arc<Self> {
        let tracer = match &config.flight_recorder {
            Some(recorder) => config
                .tracer
                .tee(Arc::clone(recorder) as Arc<dyn TraceSink>),
            None => config.tracer.clone(),
        };
        let record_tracer = if config.tracer.enabled() {
            tracer.clone()
        } else {
            Tracer::disabled()
        };
        let metrics = GboMetrics::new(config.metrics.as_deref());
        metrics.mem_limit.set(config.mem_limit);
        Arc::new(Telemetry {
            metrics,
            tracer,
            record_tracer,
            flight_recorder: config.flight_recorder.clone(),
            postmortem_path: config.postmortem_path.clone(),
        })
    }

    /// The lifecycle tracer (behind [`crate::Gbo::tracer`]).
    pub(crate) fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Start of a span one of the methods below will close.
    pub(crate) fn now_us(&self) -> u64 {
        self.tracer.now_us()
    }

    /// Emit `name` — a span from `start_us` if given, else an instant —
    /// as a per-record or a lifecycle event, building its arguments
    /// only if somebody is listening.
    fn emit(
        &self,
        per_record: bool,
        name: &'static str,
        start_us: Option<u64>,
        args: impl FnOnce() -> Args,
    ) {
        let tracer = if per_record {
            &self.record_tracer
        } else {
            &self.tracer
        };
        if !tracer.enabled() {
            return;
        }
        match start_us {
            Some(start_us) => tracer.complete(CAT, name, start_us, args()),
            None => tracer.instant(CAT, name, args()),
        }
    }

    /// A lifecycle instant.
    fn instant(&self, name: &'static str, args: impl FnOnce() -> Args) {
        self.emit(false, name, None, args);
    }

    /// A lifecycle span begun at `start_us`.
    fn span(&self, name: &'static str, start_us: u64, args: impl FnOnce() -> Args) {
        self.emit(false, name, Some(start_us), args);
    }

    /// Write the flight recorder's ring to the post-mortem path (the
    /// configured one, or `godiva-postmortem-<pid>.jsonl` in the temp
    /// dir). Returns the path on success; `None` when no recorder is
    /// installed or the write failed. Must not be called with a state
    /// lock held — this does file I/O.
    ///
    /// The destination is per-process, so repeated failures (common in
    /// fault-injection tests) overwrite rather than accumulate; the
    /// stderr announcement happens once per process for the same reason.
    pub(crate) fn dump_postmortem(&self, reason: &str) -> Option<PathBuf> {
        let recorder = self.flight_recorder.as_ref()?;
        let path = self.postmortem_path.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("godiva-postmortem-{}.jsonl", std::process::id()))
        });
        let events = recorder.dump_to_path(&path, reason).ok()?;
        static ANNOUNCED: AtomicBool = AtomicBool::new(false);
        if !ANNOUNCED.swap(true, Ordering::Relaxed) {
            eprintln!(
                "godiva: post-mortem trace ({reason}, {events} events) written to {}",
                path.display()
            );
        }
        Some(path)
    }

    // --- unit lifecycle ---------------------------------------------------

    pub(crate) fn unit_added(&self, unit: &str, queued: bool) {
        self.metrics.units_added.inc();
        self.instant("unit_added", || args![unit, queued]);
    }

    pub(crate) fn unit_finished(&self, unit: &str) {
        self.instant("unit_finished", || args![unit]);
    }

    /// `mem_used` is the post-eviction occupancy: an occupancy-timeline
    /// sample for trace analytics (godiva-report).
    pub(crate) fn unit_evicted(&self, unit: &str, freed_bytes: u64, mem_used: u64) {
        self.metrics.evictions.inc();
        self.metrics.bytes_evicted.add(freed_bytes);
        self.instant("unit_evicted", || args![unit, freed_bytes, mem_used]);
    }

    pub(crate) fn unit_deleted(&self, unit: &str, freed_bytes: u64) {
        self.instant("unit_deleted", || args![unit, freed_bytes]);
    }

    pub(crate) fn unit_reset(&self, unit: &str) {
        self.metrics.units_reset.inc();
        self.instant("unit_reset", || args![unit]);
    }

    // --- read execution and waits -----------------------------------------

    pub(crate) fn read_start<'a>(
        &'a self,
        unit: &'a str,
        attempt: u32,
        ctx: AllocCtx,
    ) -> ReadAttempt<'a> {
        let start_us = self.now_us();
        let read = ReadAttempt {
            tel: self,
            unit,
            attempt,
            ctx,
            start_us,
        };
        self.instant("read_start", || read.args());
        read
    }

    pub(crate) fn read_retry(&self, unit: &str, next_attempt: u32, backoff: Duration) {
        self.metrics.units_retried.inc();
        self.metrics.retry_backoff.add_duration(backoff);
        self.metrics.backoff_hist.record(backoff);
        self.instant("read_retry", || {
            args![unit, next_attempt, backoff_us = backoff.as_micros() as u64]
        });
    }

    /// Detected under the unit lock, so the post-mortem (file I/O) is
    /// the caller's to dump once the lock is released.
    pub(crate) fn deadlock_detected(
        &self,
        unit: &str,
        worker: usize,
        needed_bytes: u64,
        mem_used: u64,
        mem_limit: u64,
    ) {
        self.metrics.deadlocks_detected.inc();
        self.instant("deadlock_detected", || {
            args![unit, worker, needed_bytes, mem_used, mem_limit]
        });
    }

    pub(crate) fn wait_timeout(&self, unit: &str, waited: Duration) {
        self.metrics.wait_timeouts.inc();
        self.instant("wait_timeout", || {
            args![unit, waited_us = waited.as_micros() as u64]
        });
    }

    /// A wait that blocked for `waited` is over. `served_tid` is the
    /// trace tid of the thread whose load satisfied it (0 = unknown),
    /// so the critical-path analyzer can follow the wait to the serving
    /// thread's read/disk spans.
    pub(crate) fn wait_done(
        &self,
        unit: &str,
        waited: Duration,
        ok: bool,
        served_tid: u64,
        start_us: u64,
    ) {
        self.metrics.wait_time.add_duration(waited);
        self.metrics.wait_hist.record(waited);
        self.span("wait_unit", start_us, || {
            let mut args = args![unit, ok];
            if ok && served_tid != 0 {
                args.extend(args![served_tid]);
            }
            args
        });
    }

    /// Sum of the lifecycle counters whose movement proves the pipeline
    /// is making progress. Deliberately excludes `units_added`:
    /// enqueuing more work while nothing completes is exactly a stall.
    pub(crate) fn progress_signature(&self) -> u64 {
        let m = &self.metrics;
        m.units_read
            .get()
            .wrapping_add(m.units_failed.get())
            .wrapping_add(m.units_retried.get())
            .wrapping_add(m.units_reset.get())
            .wrapping_add(m.cache_hits.get())
            .wrapping_add(m.spill_hits.get())
            .wrapping_add(m.evictions.get())
    }

    /// The watchdog saw `queue_depth` queued units and `in_flight`
    /// reads make no progress for `stalled`; dumps the flight recorder.
    pub(crate) fn watchdog_stall(&self, queue_depth: u64, in_flight: u64, stalled: Duration) {
        self.metrics.watchdog_stalls.inc();
        self.instant("watchdog_stall", || {
            let (queued, stalled_ms) = (queue_depth + in_flight, stalled.as_millis() as u64);
            args![queued, queue_depth, in_flight, stalled_ms]
        });
        self.dump_postmortem("watchdog_stall");
    }

    // --- spill tier ---------------------------------------------------------

    pub(crate) fn spill_write(&self, unit: &str, bytes: u64, spill_bytes: u64) {
        self.metrics.spill_writes.inc();
        self.instant("spill_write", || args![unit, bytes, spill_bytes]);
    }

    pub(crate) fn spill_evict(&self, unit: &str, freed_bytes: u64, spill_bytes: u64, cause: &str) {
        self.metrics.spill_bytes.set(spill_bytes);
        self.instant("spill_evict", || {
            args![unit, freed_bytes, spill_bytes, cause]
        });
    }

    pub(crate) fn spill_adopt(&self, unit: &str, bytes: u64) {
        self.instant("spill_adopt", || args![unit, bytes]);
    }

    pub(crate) fn spill_corrupt(&self, unit: &str, bytes: u64) {
        self.metrics.spill_corrupt.inc();
        self.instant("spill_corrupt", || args![unit, bytes]);
    }

    pub(crate) fn spill_miss(&self, unit: &str) {
        self.metrics.spill_misses.inc();
        self.instant("spill_miss", || args![unit]);
    }

    /// `unit` was re-materialized from its frame, charge included,
    /// since `start_us`.
    pub(crate) fn spill_hit(&self, unit: &str, bytes: u64, start_us: u64) {
        self.metrics.spill_hits.inc();
        self.instant("spill_hit", || args![unit, bytes]);
        self.span("spill_restore", start_us, || args![unit, bytes]);
    }

    // --- records (per-record events) ---------------------------------------

    pub(crate) fn record_commit(&self, type_name: &str, record: u64) {
        self.metrics.records_committed.inc();
        self.emit(
            true,
            "record_commit",
            None,
            || args![type = type_name, record],
        );
    }

    pub(crate) fn key_lookup(&self, type_name: &str, hit: bool) {
        self.metrics.queries.inc();
        if !hit {
            self.metrics.query_misses.inc();
        }
        self.emit(true, "key_lookup", None, || args![type = type_name, hit]);
    }

    // --- write-ahead log -----------------------------------------------------

    /// A `bytes`-long record of `kind` was appended at `lsn`;
    /// `per_record` says it journals a record commit.
    pub(crate) fn wal_append(&self, per_record: bool, lsn: u64, kind: &'static str, bytes: u64) {
        self.metrics.wal_appends.inc();
        self.metrics.wal_bytes.add(bytes);
        self.emit(per_record, "wal_append", None, || args![lsn, kind, bytes]);
    }

    /// An fsync begun at `start_us` made the log durable up to `lsn`.
    pub(crate) fn wal_fsync(&self, per_record: bool, lsn: u64, start_us: u64) {
        self.metrics.wal_fsyncs.inc();
        self.emit(per_record, "wal_fsync", Some(start_us), || args![lsn]);
    }

    /// Recovery replayed `records` journal records naming `units`
    /// units, dropped a `truncated_bytes`-long torn tail and re-adopted
    /// `frames_adopted` spill frames.
    pub(crate) fn wal_replay(
        &self,
        records: u64,
        units: usize,
        frames_adopted: u64,
        truncated_bytes: u64,
        start_us: u64,
    ) {
        self.metrics.wal_replayed.add(records);
        self.metrics.wal_truncated.add(truncated_bytes);
        self.span("wal_replay", start_us, || {
            args![records, units, frames_adopted, truncated_bytes]
        });
    }
}

impl ReadAttempt<'_> {
    /// The arguments `read_start`, `read_done` and `read_failed` share.
    fn args(&self) -> Args {
        let (unit, attempt) = (self.unit, self.attempt);
        args![unit, attempt, worker = worker_arg(self.ctx)]
    }

    /// Close the `read_unit` span.
    fn end(&self, ok: bool) {
        self.tel.span("read_unit", self.start_us, || {
            args![unit = self.unit, ok, worker = worker_arg(self.ctx)]
        });
    }

    /// The read function returned `Ok` after `took`.
    pub(crate) fn done(self, took: Duration) {
        self.tel.metrics.read_hist.record(took);
        self.tel.instant("read_done", || self.args());
        self.end(true);
    }

    /// `read_failed` with its two trailing arguments, then the span.
    fn read_failed(&self, tail: impl FnOnce() -> Args) {
        self.tel.instant("read_failed", || {
            let mut args = self.args();
            args.extend(tail());
            args
        });
        self.end(false);
    }

    /// The read function returned `err`.
    pub(crate) fn failed(self, err: &GodivaError) {
        self.read_failed(|| args![error = err.to_string(), transient = err.is_transient()]);
    }

    /// The read function panicked with `message`. That is the flight
    /// recorder's raison d'être: the ring is dumped now (the caller
    /// holds no lock), while the tail still shows the lead-up.
    pub(crate) fn panicked(self, message: &str) {
        self.tel.metrics.panics_caught.inc();
        self.read_failed(|| args![error = message, panic = true]);
        self.tel.dump_postmortem("reader_panic");
    }
}
