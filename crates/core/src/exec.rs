//! The I/O executor — N reader worker threads draining the prefetch
//! queue, plus the read-execution machinery they share with inline
//! reads (panic isolation, retry with backoff, wait/deadlock logic).
//!
//! The paper's GBO has exactly one background I/O thread (§3.2). The
//! executor generalizes that to `GboConfig::io_threads` workers named
//! `godiva-io-0 … godiva-io-(N-1)`: 1 worker reproduces the paper
//! byte-for-byte (same event order, same deadlock semantics), more
//! workers overlap one unit's decode CPU with another's disk time, and
//! 0 workers is single-thread mode (reads happen inside `wait_unit`).
//!
//! Every worker registers in `UnitsState::blocked_workers` while it
//! waits for memory, so deadlock detection reasons about the whole
//! worker set instead of a unique I/O thread: the database is stuck
//! when the waited-for unit cannot progress — it is being read by a
//! memory-blocked worker, or queued while *every* worker is blocked —
//! and nothing is evictable.

use crate::db::{Inner, UnitSession};
use crate::error::{GodivaError, Result};
use crate::unit::UnitState;
use crate::units::{unknown_unit, AllocCtx};
use crate::wal::WalEntry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Handle to the worker threads; owned by `Gbo`, joined on drop (after
/// the facade sets the shutdown flag and wakes both condvars).
pub(crate) struct Executor {
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// Spawn `n` reader workers (0 = inline mode, nothing spawned).
    pub(crate) fn spawn(inner: &Arc<Inner>, n: usize) -> Executor {
        let workers = (0..n)
            .map(|worker| {
                let inner = Arc::clone(inner);
                std::thread::Builder::new()
                    .name(format!("godiva-io-{worker}"))
                    .spawn(move || inner.worker_loop(worker))
                    .expect("spawn GODIVA I/O worker")
            })
            .collect();
        Executor { workers }
    }

    /// Join every worker. The shutdown flag must already be set and the
    /// condvars notified, or this blocks forever.
    pub(crate) fn join(&mut self) {
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Inner {
    /// Invoke `name`'s read function under `ctx`, with panic isolation
    /// and the configured retry policy. The unit must already be marked
    /// `Reading`; the unit lock must *not* be held.
    ///
    /// A panicking read function is caught (`catch_unwind`) and reported
    /// as a failed read, so it can never kill an I/O worker or unwind
    /// into application code. A *transient* error
    /// ([`GodivaError::is_transient`]) is retried up to the policy's
    /// attempt budget, rolling back the failed attempt's partial records
    /// before each retry so the read function always starts clean.
    pub(crate) fn run_reader(self: &Arc<Self>, name: &str, ctx: AllocCtx) -> Result<()> {
        // Stamp this thread as serving `name` for the whole read, spill
        // restore included. Lower layers — the simulated disk above all —
        // read it back through `godiva_obs::current_unit()` to tag their
        // spans with the unit they feed, which is what lets the
        // critical-path analyzer walk wait → read → disk across threads.
        let _serving = godiva_obs::unit_scope(name);
        // Fast path: the unit may have been evicted with its buffers
        // spilled to the second-tier cache — one sequential file read
        // re-materializes them without invoking the developer callback.
        // A miss or a corrupt frame falls through to the normal path.
        let (tag, reader) = {
            let st = self.units.lock();
            let entry = st.units.get(name).ok_or_else(|| unknown_unit(name))?;
            (Arc::clone(&entry.tag), entry.reader.clone())
        };
        if self.try_restore_spill(&tag, ctx)? {
            return Ok(());
        }
        let reader =
            reader.ok_or_else(|| GodivaError::UnitError(format!("unit '{name}' has no reader")))?;
        let mut attempt = 1u32;
        loop {
            let read = self.tel.read_start(name, attempt, ctx);
            // Liveness-test hook: GODIVA_STALL_AT=read_start:<hit>:<ms>
            // wedges this attempt to provoke the watchdog.
            crate::crash::stall_point("read_start");
            let attempt_t0 = Instant::now();
            let session = UnitSession::new(self, &tag, ctx);
            let err = match catch_unwind(AssertUnwindSafe(|| reader.read(&session))) {
                Ok(Ok(())) => {
                    read.done(attempt_t0.elapsed());
                    return Ok(());
                }
                Ok(Err(e)) => e,
                Err(payload) => {
                    let message = format!("panicked: {}", crate::db::panic_message(&payload));
                    read.panicked(&message);
                    return Err(GodivaError::ReadFailed {
                        unit: name.to_string(),
                        message,
                    });
                }
            };
            read.failed(&err);
            if attempt >= self.retry.attempts() || !err.is_transient() {
                return Err(err);
            }
            let backoff = self.retry.backoff_for(attempt);
            {
                let mut st = self.units.lock();
                if st.shutdown {
                    return Err(err);
                }
                // Roll back the failed attempt's partial records so the
                // retry starts from an empty unit (drop_unit_data parks
                // the unit in Registered; restore Reading).
                self.drop_unit_data(&mut st, name);
                if let Some(u) = st.units.get_mut(name) {
                    u.state = UnitState::Reading;
                }
            }
            self.tel.read_retry(name, attempt + 1, backoff);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            attempt += 1;
        }
    }

    /// Run a unit's reader inline on the calling thread. The unit lock
    /// must *not* be held; the unit must already be marked `Reading`.
    pub(crate) fn run_inline(self: &Arc<Self>, name: &str) -> Result<()> {
        let result = self.run_reader(name, AllocCtx::Inline);
        self.finish_read(name, &result);
        result.map_err(|e| match e {
            already @ GodivaError::ReadFailed { .. } => already,
            other => GodivaError::ReadFailed {
                unit: name.to_string(),
                message: other.to_string(),
            },
        })
    }

    /// Block until `name` is loaded; pin it. Core of `wait_unit` and the
    /// tail of `read_unit`. With a `timeout`, give up waiting on a
    /// worker after that long (inline reads performed on the calling
    /// thread are not interruptible and ignore the timeout).
    pub(crate) fn wait_loaded(
        self: &Arc<Self>,
        name: &str,
        explicit_read: bool,
        timeout: Option<Duration>,
    ) -> Result<()> {
        let started = Instant::now();
        let span_start = self.tel.now_us();
        let deadline = timeout.map(|t| started + t);
        let background = self.units.worker_count > 0;
        let mut blocked = false;
        // Trace tid of the thread whose load satisfied this wait (0 =
        // unknown, e.g. a unit rebuilt by WAL replay). Emitted as
        // `served_tid` so the critical-path analyzer can follow the wait
        // to the serving thread's read/disk spans.
        let mut served_tid = 0u64;
        let result = loop {
            let mut st = self.units.lock();
            let Some(entry) = st.units.get_mut(name) else {
                break Err(unknown_unit(name));
            };
            match entry.state.clone() {
                UnitState::Ready | UnitState::Finished => {
                    entry.state = UnitState::Ready;
                    entry.refcount += 1;
                    served_tid = entry.loaded_by;
                    entry.tag.touch(&self.units.clock);
                    if !blocked {
                        self.tel.metrics.cache_hits.inc();
                    }
                    break Ok(());
                }
                UnitState::Failed(msg) => {
                    break Err(GodivaError::ReadFailed {
                        unit: name.to_string(),
                        message: msg,
                    })
                }
                UnitState::Registered => {
                    // Not queued: do a blocking read on this thread
                    // (interactive mode, or a revisit after eviction).
                    entry.state = UnitState::Reading;
                    self.tel.metrics.blocking_reads.inc();
                    drop(st);
                    blocked = true;
                    if let Err(e) = self.run_inline(name) {
                        break Err(e);
                    }
                    continue;
                }
                UnitState::Queued if !background || explicit_read => {
                    // Single-thread GODIVA performs the read inside
                    // wait_unit (§4.2); read_unit is always explicit.
                    self.units.unqueue(&mut st, name);
                    let entry = st.units.get_mut(name).expect("present");
                    entry.state = UnitState::Reading;
                    self.tel.metrics.blocking_reads.inc();
                    drop(st);
                    blocked = true;
                    if let Err(e) = self.run_inline(name) {
                        break Err(e);
                    }
                    continue;
                }
                state @ (UnitState::Queued | UnitState::Reading) => {
                    // Deadlock detection (§3.3): the unit we wait for
                    // cannot progress — it is being read by a worker
                    // that is itself blocked on memory, or it is queued
                    // while every worker is blocked — and nothing can be
                    // evicted. Needs are re-verified against the budget,
                    // so a stale blocked entry (set_mem_space raised the
                    // budget but the worker has not yet woken) is not
                    // misreported as a deadlock.
                    let reading_worker = entry.reading_worker;
                    let stuck = match state {
                        UnitState::Reading => reading_worker
                            .and_then(|w| st.blocked_workers.get(&w).map(|&need| (w, need)))
                            .filter(|(_, need)| st.mem_used.saturating_add(*need) > st.mem_limit),
                        _ => (st.blocked_workers.len() == self.units.worker_count)
                            .then(|| st.stuck_worker())
                            .flatten(),
                    };
                    if let Some((worker, need)) = stuck {
                        if !st.has_evictable() {
                            let (used, limit) = (st.mem_used, st.mem_limit);
                            self.tel.deadlock_detected(name, worker, need, used, limit);
                            break Err(GodivaError::Deadlock {
                                unit: name.to_string(),
                                worker,
                                needed_bytes: need,
                                mem_used: st.mem_used,
                                mem_limit: st.mem_limit,
                            });
                        }
                    }
                    blocked = true;
                    match deadline {
                        None => self.units.unit_cv.wait(&mut st),
                        Some(d) => {
                            // `timed_out()` alone is not enough: a storm
                            // of unrelated notifications wakes this wait
                            // before the clock runs out every time, and
                            // each re-wait restarts against the same
                            // deadline — so also check the deadline
                            // directly, or the effective timeout would
                            // stretch for as long as the storm lasts.
                            let timed_out = self.units.unit_cv.wait_until(&mut st, d).timed_out()
                                || Instant::now() >= d;
                            if timed_out {
                                // Re-check under the lock: the unit may
                                // have loaded in the race with the clock.
                                let loaded = st
                                    .units
                                    .get(name)
                                    .map(|u| u.state.is_loaded())
                                    .unwrap_or(false);
                                if !loaded {
                                    self.tel.wait_timeout(name, started.elapsed());
                                    break Err(GodivaError::WaitTimeout {
                                        unit: name.to_string(),
                                        waited: started.elapsed(),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        };
        if blocked {
            let waited = started.elapsed();
            self.tel
                .wait_done(name, waited, result.is_ok(), served_tid, span_start);
        }
        // Deadlock is detected under the unit lock, but the post-mortem
        // write is file I/O — do it out here, lock released.
        if matches!(result, Err(GodivaError::Deadlock { .. })) {
            self.tel.dump_postmortem("deadlock");
        }
        result
    }

    // ------------------------------------------------------------------
    // worker threads
    // ------------------------------------------------------------------

    pub(crate) fn worker_loop(self: Arc<Self>, worker: usize) {
        loop {
            // Wait for a queued unit and for memory headroom.
            let name = {
                let mut st = self.units.lock();
                loop {
                    if st.shutdown {
                        return;
                    }
                    if !st.queue.is_empty() {
                        if st.mem_used < st.mem_limit {
                            break;
                        }
                        if self.evict_one(&mut st) {
                            continue;
                        }
                        // Memory full, nothing evictable: block, flagged
                        // for deadlock detection. Needing "1 byte" makes
                        // the shortage test `mem_used >= mem_limit`.
                        st.blocked_workers.insert(worker, 1);
                        self.units.unit_cv.notify_all();
                        self.units.work_cv.wait(&mut st);
                        st.blocked_workers.remove(&worker);
                        continue;
                    }
                    self.units.work_cv.wait(&mut st);
                }
                let name = st.queue.pop_front().expect("non-empty");
                self.units.sync_queue_gauge(&st);
                let entry = st.units.get_mut(&name).expect("queued unit exists");
                entry.state = UnitState::Reading;
                entry.reading_worker = Some(worker);
                self.tel.metrics.background_reads.inc();
                name
            };

            // Panic isolation + retry live inside run_reader: a
            // panicking or transiently failing read function can never
            // kill this worker — the unit just ends up Failed.
            self.tel.metrics.io_workers_busy.inc();
            let result = self.run_reader(&name, AllocCtx::Worker(worker));
            self.tel.metrics.io_workers_busy.dec();

            self.finish_read(&name, &result);
        }
    }

    /// Record the outcome of `name`'s read — `Ready` (journaled, stamped
    /// on the LRU clock) or `Failed` — and wake the waiters.
    fn finish_read(&self, name: &str, result: &Result<()>) {
        let mut st = self.units.lock();
        if let Some(entry) = st.units.get_mut(name) {
            entry.reading_worker = None;
            match result {
                Ok(()) => {
                    entry.state = UnitState::Ready;
                    entry.mark_loaded(&self.units.clock);
                    entry.loaded_by = godiva_obs::current_tid();
                    self.units.journal(WalEntry::UnitLoaded {
                        unit: name.to_string(),
                    });
                    self.tel.metrics.units_read.inc();
                }
                Err(e) => {
                    entry.state = UnitState::Failed(e.to_string());
                    self.tel.metrics.units_failed.inc();
                }
            }
        }
        self.units.unit_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use crate::db::UnitSession;
    use crate::db::{Gbo, GboConfig};
    use crate::error::GodivaError;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Regression: `wait_unit_timeout` must honour its deadline across
    /// spurious condvar wakeups. A thread deliberately notifying
    /// `unit_cv` every millisecond used to restart the full timeout on
    /// every wakeup (each wait returned `timed_out() == false`), so the
    /// effective timeout stretched for as long as the storm lasted.
    #[test]
    fn wait_timeout_survives_notify_storm() {
        let db = Gbo::with_config(GboConfig::default());
        let gate = Arc::new(AtomicBool::new(false));
        let reader_gate = Arc::clone(&gate);
        db.add_unit("slow", move |_s: &UnitSession| {
            while !reader_gate.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(())
        })
        .unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let storm = {
            let inner = Arc::clone(&db.inner);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    inner.units.unit_cv.notify_all();
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        };

        let t0 = Instant::now();
        let err = db
            .wait_unit_timeout("slow", Duration::from_millis(50))
            .unwrap_err();
        let elapsed = t0.elapsed();
        assert!(
            matches!(err, GodivaError::WaitTimeout { .. }),
            "expected WaitTimeout, got: {err}"
        );
        assert!(
            elapsed < Duration::from_secs(2),
            "notify storm stretched a 50ms timeout to {elapsed:?}"
        );

        gate.store(true, Ordering::Relaxed);
        stop.store(true, Ordering::Relaxed);
        storm.join().unwrap();
        db.wait_unit("slow").unwrap();
        db.finish_unit("slow").unwrap();
    }
}
