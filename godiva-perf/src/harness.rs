//! Pieces every workload shares: the correctness gate, the metric bag,
//! the closed-loop run driver and the scratch directory.

use crate::spans::{SelfTimes, Spans};
use crate::stats::median;
use godiva_core::GboStats;
use godiva_platform::DiskStats;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counts operations attempted and failed. An operation is one snapshot
/// render, one visit, one unit cycle or one lookup; a wrong output or an
/// `Err` fails it.
#[derive(Debug, Default, Clone, Copy)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// `n` operations of one batch, `bad` of them wrong.
    pub fn check_many(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }
}

/// Metric values by declared name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What every workload is handed.
pub struct Ctx {
    pub seed: u64,
    /// Measured time asked for.
    pub seconds: f64,
    pub traced: bool,
    pub spans: Arc<Spans>,
    pub gate: Gate,
    pub metrics: Metrics,
    pub work: WorkDir,
}

impl Ctx {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Run `setup` `times` times, keep the last product, and record the
    /// median duration as `setup_s`.
    pub fn timed_setup<T>(&mut self, times: usize, mut setup: impl FnMut(&mut Ctx) -> T) -> T {
        let mut secs = Vec::with_capacity(times);
        let mut product = None;
        for _ in 0..times {
            drop(product.take());
            let t = Instant::now();
            product = Some(setup(self));
            secs.push(t.elapsed().as_secs_f64());
        }
        self.put("setup_s", median(&secs));
        product.expect("at least one set-up")
    }

    /// Closed loop: call `run` until the time budget is spent and at
    /// least `min_runs` untraced runs are in (enough of them to pool the
    /// 100 latency samples a 90th percentile needs). The
    /// untraced pass spends all of `seconds` here. The traced pass
    /// spends half (the rest goes to probes) and alternates traced and
    /// untraced runs, so the tracing overhead is measured inside one
    /// process, on one dataset. Returns the wall seconds of traced and
    /// untraced runs.
    pub fn closed_loop(&mut self, min_runs: usize, mut run: impl FnMut(&mut Ctx)) -> RunWalls {
        let budget = Duration::from_secs_f64(self.seconds * if self.traced { 0.5 } else { 1.0 });
        let started = Instant::now();
        let mut walls = RunWalls::default();
        let mut n = 0u32;
        // A traced pass reports no latencies; one run of each kind will do.
        let min_runs = if self.traced { 1 } else { min_runs };
        while started.elapsed() < budget || walls.untraced.len() < min_runs {
            // Even runs of a traced pass record spans, odd ones do not.
            let traced = self.traced && n.is_multiple_of(2);
            self.spans.set_enabled(traced);
            self.spans.set_run(n / 2);
            let run_started = Instant::now();
            run(self);
            let wall = run_started.elapsed().as_secs_f64();
            if traced {
                walls.traced.push(wall);
            } else {
                walls.untraced.push(wall);
            }
            n += 1;
        }
        self.spans.set_enabled(self.traced);
        walls
    }

    /// What a traced pass's runs say about every workload: tracing
    /// overhead, span coverage, and the time under the backend's calls.
    /// Returns the self times for the workload's own layer queries.
    pub fn put_span_metrics(&mut self, walls: &RunWalls) -> SelfTimes {
        let times = SelfTimes::of(&self.spans.snapshot());
        let main = godiva_obs::current_tid();
        let traced = median(&walls.traced);
        let covered = median(&times.per_run(|_, thread| thread == main));
        let glue = median(&times.per_run(|name, _| name == "bench.run"));
        self.put("bench.span_coverage_frac", covered / traced);
        self.put("bench.loop_self_frac", glue / traced);
        self.put(
            "obs.bench_trace_overhead_frac",
            traced / median(&walls.untraced) - 1.0,
        );
        for (metric, span) in [
            ("viz.backend.load_pass_s", "viz.backend.load_pass"),
            ("viz.backend.end_snapshot_s", "viz.backend.end_snapshot"),
        ] {
            self.put(metric, median(&times.per_run(|name, _| name == span)));
        }
        times
    }

    /// The simulated disk's counters for one run.
    pub fn put_disk(&mut self, disk: &DiskStats) {
        self.put("platform.disk_busy_s", disk.busy.as_secs_f64());
        self.put("platform.disk_seeks", disk.seeks as f64);
        self.put("platform.disk_bytes_read", disk.bytes_read as f64);
    }

    /// The per-layer numbers that come straight from one run's `GboStats`.
    pub fn put_gbo_counts(&mut self, s: &GboStats) {
        self.put("core.units.wait_blocked_s", s.wait_time.as_secs_f64());
        self.put("core.units.cache_hit_rate", s.hit_rate().unwrap_or(0.0));
        self.put("core.units.evictions", s.evictions as f64);
        self.put("core.units.mem_peak_bytes", s.mem_peak as f64);
        self.put("core.exec.background_reads", s.background_reads as f64);
        self.put("core.exec.blocking_reads", s.blocking_reads as f64);
        self.put("core.spill.writes", s.spill_writes as f64);
        self.put("core.spill.hits", s.spill_hits as f64);
        self.put("core.spill.misses", s.spill_misses as f64);
        self.put("core.wal.appends", s.wal_appends as f64);
        self.put("core.wal.bytes", s.wal_bytes as f64);
        self.put("core.wal.fsyncs", s.wal_fsyncs as f64);
        if s.records_committed > 0 {
            self.put(
                "core.wal.bytes_per_record",
                s.wal_bytes as f64 / s.records_committed as f64,
            );
        }
    }
}

/// Wall seconds of the runs of one pass.
#[derive(Debug, Default)]
pub struct RunWalls {
    pub traced: Vec<f64>,
    pub untraced: Vec<f64>,
}

/// SplitMix64: the seeded choices (browse distances, lookup order)
/// depend on nothing but `--seed`.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Scratch directory under the build's target directory (so inside the
/// checkout and ignored by git); removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create() -> std::io::Result<WorkDir> {
        let dir = target_dir()
            .join("godiva-perf-work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// A fresh, empty sub-directory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch sub-directory");
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `<target>` of `<target>/release/godiva-perf`.
pub fn target_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut dir = exe
        .parent()
        .expect("executable has a directory")
        .to_path_buf();
    // Test binaries live one level deeper, in `deps/`.
    if dir.ends_with("deps") {
        dir.pop();
    }
    dir.pop();
    dir
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restrict this process (and every thread it starts later) to one of
/// the processors it may run on.
///
/// On the sandbox this was built on, two spinning threads do no more
/// work than one (`host.parallel_speedup` reads 1.0 in every pass of
/// `BASELINE.json`), and which of two runnable threads gets the
/// processor is the hypervisor's choice. On one processor the wall time
/// of a run is the total CPU time of its threads, which repeats. The
/// price: reader and main thread never hold or wait on a lock at the
/// same time, so lock contention is not measured.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() {
    /// `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread, which at this point is the
    // only one, so the mask it gets is the one every later thread inherits.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
    let Some(word) = allowed.iter().position(|&w| w != 0).filter(|_| got == 0) else {
        eprintln!("godiva-perf: cannot read the processor mask; running unpinned");
        return;
    };
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << allowed[word].trailing_zeros();
    // SAFETY: `one` is a live buffer of exactly the size passed, read only.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        eprintln!("godiva-perf: cannot set the processor mask; running unpinned");
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() {}
