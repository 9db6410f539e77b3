//! The database's metric set: one lock-free handle per [`GboStats`]
//! counter, plus the latency histograms behind the Display summary.
//!
//! [`crate::telemetry::Telemetry`] holds the set; each update is a
//! single atomic op. [`GboMetrics::snapshot`] assembles a [`GboStats`]
//! from them. When a [`MetricsRegistry`] is supplied via
//! `GboConfig::metrics`, every handle is registered under a `gbo.*`
//! name so `voyager --metrics-summary` (and anything else holding the
//! registry) can render them.

use crate::stats::GboStats;
use godiva_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::Arc;

pub(crate) struct GboMetrics {
    pub units_added: Arc<Counter>,
    pub units_read: Arc<Counter>,
    pub units_failed: Arc<Counter>,
    pub cache_hits: Arc<Counter>,
    pub blocking_reads: Arc<Counter>,
    pub background_reads: Arc<Counter>,
    pub records_created: Arc<Counter>,
    pub records_committed: Arc<Counter>,
    pub queries: Arc<Counter>,
    pub query_misses: Arc<Counter>,
    pub bytes_allocated: Arc<Counter>,
    pub evictions: Arc<Counter>,
    pub bytes_evicted: Arc<Counter>,
    pub deadlocks_detected: Arc<Counter>,
    pub over_budget_allocs: Arc<Counter>,
    pub units_retried: Arc<Counter>,
    pub panics_caught: Arc<Counter>,
    pub wait_timeouts: Arc<Counter>,
    pub units_reset: Arc<Counter>,
    /// Nanoseconds blocked in waits (`GboStats::wait_time`).
    pub wait_time: Arc<Counter>,
    /// Nanoseconds slept in retry backoff (`retry_backoff_total`).
    pub retry_backoff: Arc<Counter>,
    /// Evicted units spilled to the second-tier cache.
    pub spill_writes: Arc<Counter>,
    /// Unit reads satisfied from the spill tier (no callback).
    pub spill_hits: Arc<Counter>,
    /// Reads of evicted units whose spill frame was absent.
    pub spill_misses: Arc<Counter>,
    /// Spill frames rejected by checksum or framing checks.
    pub spill_corrupt: Arc<Counter>,
    /// WAL records appended (journal points passed).
    pub wal_appends: Arc<Counter>,
    /// Bytes appended to the WAL.
    pub wal_bytes: Arc<Counter>,
    /// `fdatasync` calls issued by the WAL (group-commit coalesced).
    pub wal_fsyncs: Arc<Counter>,
    /// WAL records replayed during recovery.
    pub wal_replayed: Arc<Counter>,
    /// Torn/corrupt WAL bytes truncated during recovery.
    pub wal_truncated: Arc<Counter>,
    /// Liveness stalls the watchdog detected (work queued but no
    /// progress for the configured interval).
    pub watchdog_stalls: Arc<Counter>,
    /// Mirror of the unit layer's `mem_used`; its max is `mem_peak`.
    pub mem: Arc<Gauge>,
    /// The configured memory budget — exported so windowed consumers
    /// (the health engine's pressure signal) can compute occupancy
    /// fractions without holding a database handle.
    pub mem_limit: Arc<Gauge>,
    /// Prefetch-queue depth (live only; not part of [`GboStats`]).
    pub queue_depth: Arc<Gauge>,
    /// Bytes currently held by the spill tier's files.
    pub spill_bytes: Arc<Gauge>,
    /// I/O workers currently running a read function (live only; its
    /// max shows how much of the executor a workload ever used).
    pub io_workers_busy: Arc<Gauge>,
    /// Per-call blocked-wait latency (µs).
    pub wait_hist: Arc<Histogram>,
    /// Per-attempt successful read-function latency (µs).
    pub read_hist: Arc<Histogram>,
    /// Per-retry backoff sleep (µs).
    pub backoff_hist: Arc<Histogram>,
}

impl GboMetrics {
    /// Create the handle set, registering each under `gbo.*` when a
    /// registry is provided.
    pub fn new(registry: Option<&MetricsRegistry>) -> Self {
        let c = |name: &str| match registry {
            Some(r) => r.counter(name),
            None => Arc::new(Counter::new()),
        };
        let g = |name: &str| match registry {
            Some(r) => r.gauge(name),
            None => Arc::new(Gauge::new()),
        };
        let h = |name: &str| match registry {
            Some(r) => r.histogram(name),
            None => Arc::new(Histogram::new()),
        };
        GboMetrics {
            units_added: c("gbo.units_added"),
            units_read: c("gbo.units_read"),
            units_failed: c("gbo.units_failed"),
            cache_hits: c("gbo.cache_hits"),
            blocking_reads: c("gbo.blocking_reads"),
            background_reads: c("gbo.background_reads"),
            records_created: c("gbo.records_created"),
            records_committed: c("gbo.records_committed"),
            queries: c("gbo.queries"),
            query_misses: c("gbo.query_misses"),
            bytes_allocated: c("gbo.bytes_allocated"),
            evictions: c("gbo.evictions"),
            bytes_evicted: c("gbo.bytes_evicted"),
            deadlocks_detected: c("gbo.deadlocks_detected"),
            over_budget_allocs: c("gbo.over_budget_allocs"),
            units_retried: c("gbo.units_retried"),
            panics_caught: c("gbo.panics_caught"),
            wait_timeouts: c("gbo.wait_timeouts"),
            units_reset: c("gbo.units_reset"),
            wait_time: c("gbo.wait_time_ns"),
            retry_backoff: c("gbo.retry_backoff_ns"),
            spill_writes: c("gbo.spill_writes"),
            spill_hits: c("gbo.spill_hits"),
            spill_misses: c("gbo.spill_misses"),
            spill_corrupt: c("gbo.spill_corrupt"),
            wal_appends: c("gbo.wal_appends"),
            wal_bytes: c("gbo.wal_bytes"),
            wal_fsyncs: c("gbo.wal_fsyncs"),
            wal_replayed: c("gbo.wal_replayed"),
            wal_truncated: c("gbo.wal_truncated"),
            watchdog_stalls: c("gbo.watchdog_stalls"),
            mem: g("gbo.mem_bytes"),
            mem_limit: g("gbo.mem_limit_bytes"),
            queue_depth: g("gbo.queue_depth"),
            spill_bytes: g("gbo.spill_bytes"),
            io_workers_busy: g("gbo.io_workers_busy"),
            wait_hist: h("gbo.wait_latency_us"),
            read_hist: h("gbo.read_latency_us"),
            backoff_hist: h("gbo.retry_backoff_us"),
        }
    }

    /// Assemble a [`GboStats`] from the current handle values.
    /// `mem_used` is left 0 — the caller fills it from the state lock,
    /// which owns the authoritative figure.
    pub fn snapshot(&self) -> GboStats {
        GboStats {
            units_added: self.units_added.get(),
            units_read: self.units_read.get(),
            units_failed: self.units_failed.get(),
            cache_hits: self.cache_hits.get(),
            blocking_reads: self.blocking_reads.get(),
            background_reads: self.background_reads.get(),
            records_created: self.records_created.get(),
            records_committed: self.records_committed.get(),
            queries: self.queries.get(),
            query_misses: self.query_misses.get(),
            bytes_allocated: self.bytes_allocated.get(),
            mem_used: 0,
            mem_peak: self.mem.max(),
            evictions: self.evictions.get(),
            bytes_evicted: self.bytes_evicted.get(),
            deadlocks_detected: self.deadlocks_detected.get(),
            over_budget_allocs: self.over_budget_allocs.get(),
            wait_time: self.wait_time.as_duration(),
            units_retried: self.units_retried.get(),
            retry_backoff_total: self.retry_backoff.as_duration(),
            panics_caught: self.panics_caught.get(),
            wait_timeouts: self.wait_timeouts.get(),
            units_reset: self.units_reset.get(),
            spill_writes: self.spill_writes.get(),
            spill_hits: self.spill_hits.get(),
            spill_misses: self.spill_misses.get(),
            spill_corrupt: self.spill_corrupt.get(),
            spill_bytes: self.spill_bytes.get(),
            wal_appends: self.wal_appends.get(),
            wal_bytes: self.wal_bytes.get(),
            wal_fsyncs: self.wal_fsyncs.get(),
            wal_replayed: self.wal_replayed.get(),
            wal_truncated: self.wal_truncated.get(),
            watchdog_stalls: self.watchdog_stalls.get(),
            wait_hist: self.wait_hist.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn snapshot_reflects_handles() {
        let m = GboMetrics::new(None);
        m.units_added.add(3);
        m.mem.set(100);
        m.mem.set(40);
        m.wait_time.add_duration(Duration::from_millis(5));
        m.wait_hist.record_us(10);
        let s = m.snapshot();
        assert_eq!(s.units_added, 3);
        assert_eq!(s.mem_peak, 100);
        assert_eq!(s.mem_used, 0); // caller's job
        assert_eq!(s.wait_time, Duration::from_millis(5));
        assert_eq!(s.wait_hist.count, 1);
    }

    #[test]
    fn registry_backed_handles_are_shared() {
        let reg = MetricsRegistry::new();
        let m = GboMetrics::new(Some(&reg));
        m.queries.add(7);
        assert_eq!(reg.counter("gbo.queries").get(), 7);
        assert!(reg.render().contains("gbo.queries\t7"));
    }
}
