//! `browse-spill`: an interactive session over the single-thread (G)
//! build with a memory budget of 3.5 units, the spill tier on an
//! in-memory store with an ample budget, and the write-ahead log on.
//!
//! One session walks the time series forward and looks back as it goes:
//! visit `s`; then `s-1` and `s` again (both still in memory); then
//! `s-d`, `d` in 5..=8 drawn from the seed but never the snapshot the
//! previous look-back restored. Three units fit the budget and at that
//! point they are `s-1`, `s` and the previous look-back's target, so
//! the look-back always finds its snapshot evicted and always restores
//! it from the spill tier. The class mix is the same for every seed.

use crate::harness::{Ctx, Gate, Rng};
use crate::render::genx_config;
use crate::spans::Spans;
use crate::stats::{median, percentile};
use godiva_core::{Durability, SpillConfig};
use godiva_genx::GenxConfig;
use godiva_platform::{MemFs, Platform, Storage};
use godiva_sdf::ReadOptions;
use godiva_viz::{DirectBackend, GodivaBackend, GodivaBackendOptions, SnapshotSource, VizResult};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const VARS: [&str; 2] = ["stress_avg", "velocity"];
/// Memory budget in units (one unit = one snapshot of `VARS`).
const MEM_UNITS: f64 = 3.5;
/// Spill budget in units: every snapshot fits, twice over.
const SPILL_UNITS: u64 = 64;

/// Why a snapshot is visited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visit {
    /// Never seen in this session: read from the dataset.
    First,
    /// One of the last two snapshots: still in memory.
    Near,
    /// Five to eight snapshots back: evicted, restored from the spill tier.
    Far,
}

/// The visits of one session, in order.
pub fn visit_trace(seed: u64, snapshots: usize) -> Vec<(usize, Visit)> {
    let mut rng = Rng(seed);
    let mut trace = Vec::new();
    let mut restored = None;
    for s in 0..snapshots {
        trace.push((s, Visit::First));
        if s >= 1 {
            trace.push((s - 1, Visit::Near));
            trace.push((s, Visit::Near));
        }
        if s >= 8 {
            let mut d = rng.below(4) as usize;
            if restored == Some(s - 5 - d) {
                d = (d + 1) % 4;
            }
            restored = Some(s - 5 - d);
            trace.push((s - 5 - d, Visit::Far));
        }
    }
    trace
}

/// What a visit must return: blocks loaded and the sum of their scalars,
/// per variable.
type Expected = Vec<[(usize, f64); VARS.len()]>;

pub struct BrowseEnv {
    platform: Platform,
    genx: GenxConfig,
    expected: Expected,
    unit_bytes: u64,
    trace: Vec<(usize, Visit)>,
}

/// One visit: both variables, then release the snapshot.
fn load(
    source: &mut dyn SnapshotSource,
    s: usize,
    spans: &Spans,
) -> VizResult<[(usize, f64); VARS.len()]> {
    let mut out = [(0, 0.0); VARS.len()];
    for (slot, var) in out.iter_mut().zip(VARS) {
        let data = spans.span("viz.backend.load_pass", || source.load_pass(s, var))?;
        *slot = (
            data.len(),
            data.iter().flat_map(|d| d.scalar.iter()).sum::<f64>(),
        );
    }
    spans.span("viz.backend.end_snapshot", || source.end_snapshot(s))?;
    Ok(out)
}

fn vars() -> Vec<String> {
    VARS.iter().map(|v| v.to_string()).collect()
}

/// Set-up: dataset, the direct (O) build's answer for every snapshot,
/// and the size of one unit (from loading one snapshot without a budget).
pub fn setup(seed: u64) -> BrowseEnv {
    let genx = genx_config(seed);
    let platform = Platform::instant(2);
    godiva_genx::generate(platform.storage().as_ref(), &genx).expect("dataset generation");
    let off = Spans::new(false);
    let mut direct = DirectBackend::new(platform.storage(), genx.clone(), ReadOptions::new());
    let expected = (0..genx.snapshots)
        .map(|s| load(&mut direct, s, &off).expect("reference load"))
        .collect();
    let mut probe = GodivaBackend::new(
        platform.storage(),
        genx.clone(),
        ReadOptions::new(),
        GodivaBackendOptions::interactive(vars(), u64::MAX),
    );
    probe.begin_run(&[0]).expect("announce one unit");
    load(&mut probe, 0, &off).expect("load one unit");
    let unit_bytes = probe.db().stats().bytes_allocated;
    let trace = visit_trace(seed, genx.snapshots);
    BrowseEnv {
        platform,
        genx,
        expected,
        unit_bytes,
        trace,
    }
}

/// Where a session keeps its second tier and its log.
struct Tiers {
    spill: Arc<MemFs>,
    wal_dir: Option<PathBuf>,
}

fn options(env: &BrowseEnv, tiers: &Tiers) -> GodivaBackendOptions {
    let mut o =
        GodivaBackendOptions::interactive(vars(), (env.unit_bytes as f64 * MEM_UNITS) as u64);
    o.spill = Some(SpillConfig {
        storage: tiers.spill.clone() as Arc<dyn Storage>,
        dir: "spill".into(),
        budget: env.unit_bytes * SPILL_UNITS,
    });
    o.wal_dir = tiers.wal_dir.clone();
    // The flush policy: journal every commit, never fsync.
    o.durability = Durability::Wal;
    o
}

#[derive(Default)]
struct Session {
    wall_s: f64,
    visible_io_s: f64,
    first_ms: Vec<f64>,
    revisit_ms: Vec<f64>,
    restore_ms: Vec<f64>,
}

/// One session on a fresh database. Every visit is one operation and
/// must return what the direct build returned for that snapshot.
fn session(
    spans: &Spans,
    gate: &mut Gate,
    env: &BrowseEnv,
    tiers: &Tiers,
) -> (Session, GodivaBackend) {
    let mut backend = GodivaBackend::new(
        env.platform.storage(),
        env.genx.clone(),
        ReadOptions::new(),
        options(env, tiers),
    );
    let mut out = Session::default();
    let started = Instant::now();
    let all: Vec<usize> = (0..env.genx.snapshots).collect();
    let announced = spans.span("viz.backend.begin_run", || backend.begin_run(&all));
    for &(s, kind) in &env.trace {
        // Reading the counters costs a lock; only traced runs pay it.
        let hits_before = spans.enabled().then(|| backend.db().stats().spill_hits);
        let t = Instant::now();
        let got = load(&mut backend, s, spans);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        gate.check(announced.is_ok() && got.is_ok_and(|g| g == env.expected[s]));
        match kind {
            Visit::First => out.first_ms.push(ms),
            Visit::Near | Visit::Far => out.revisit_ms.push(ms),
        }
        if hits_before.is_some_and(|h| backend.db().stats().spill_hits == h + 1) {
            out.restore_ms.push(ms);
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out.visible_io_s = backend.visible_io().as_secs_f64();
    (out, backend)
}

pub fn run(ctx: &mut Ctx) {
    let env = ctx.timed_setup(3, |ctx| setup(ctx.seed));
    let disk = env.platform.sim_storage().disk().clone();
    let mut session_s = Vec::new();
    let mut visible = Vec::new();
    let mut first_ms = Vec::new();
    let mut revisit_ms = Vec::new();
    let mut restore_ms = Vec::new();
    let mut first = None;
    // 86 revisits per session.
    let walls = ctx.closed_loop(2, |ctx| {
        let tiers = Tiers {
            spill: Arc::new(MemFs::new()),
            wal_dir: Some(ctx.work.fresh("wal")),
        };
        disk.reset_stats();
        let (spans, gate) = (&ctx.spans, &mut ctx.gate);
        let (s, backend) = spans.span("bench.run", || session(spans, gate, &env, &tiers));
        if !ctx.spans.enabled() {
            session_s.push(s.wall_s);
            visible.push(s.visible_io_s);
            first_ms.extend_from_slice(&s.first_ms);
            revisit_ms.extend_from_slice(&s.revisit_ms);
        }
        restore_ms.extend_from_slice(&s.restore_ms);
        first.get_or_insert_with(|| {
            (
                disk.stats(),
                backend.db().stats(),
                tiers.spill.list("spill").len(),
            )
        });
    });
    let session_s = median(&session_s);
    ctx.put("throughput_per_s", env.trace.len() as f64 / session_s);
    ctx.put("visible_io_s", median(&visible));
    ctx.put("latency_ms_p50", median(&revisit_ms));
    ctx.put(
        "latency_ms_p90",
        percentile(&revisit_ms, 90.0).unwrap_or(0.0),
    );
    if !ctx.traced {
        return;
    }
    eprintln!(
        "browse-spill: one unit is {} bytes; memory budget {} bytes, spill budget {} bytes",
        env.unit_bytes,
        (env.unit_bytes as f64 * MEM_UNITS) as u64,
        env.unit_bytes * SPILL_UNITS
    );
    ctx.put_span_metrics(&walls);
    ctx.put("viz.backend.first_visit_ms_p50", median(&first_ms));
    ctx.put("core.spill.restore_ms_p50", median(&restore_ms));
    if let Some((disk, gbo, frames)) = first {
        ctx.put_disk(&disk);
        ctx.put(
            "viz.backend.blocks_loaded",
            (env.trace.len() * VARS.len() * env.genx.blocks) as f64,
        );
        // Every unit has the same shape, so every frame the same size;
        // the budget is ample, so every frame written is still held.
        let frame_bytes = gbo.spill_bytes as f64 / frames.max(1) as f64;
        ctx.put(
            "core.spill.bytes_written",
            gbo.spill_writes as f64 * frame_bytes,
        );
        ctx.put(
            "core.spill.bytes_per_unit_byte",
            frame_bytes / env.unit_bytes as f64,
        );
        ctx.put_gbo_counts(&gbo);
    }
    wal_cost(ctx, &env, session_s);
}

/// What the log costs a session (`with_wal_s` is the median of the same
/// timer, `Session::wall_s`, over the untraced sessions), how fast it
/// scans, and how long a warm restart from it takes.
fn wal_cost(ctx: &mut Ctx, env: &BrowseEnv, with_wal_s: f64) {
    let off = Spans::new(false);
    let without: Vec<f64> = (0..3)
        .map(|_| {
            let tiers = Tiers {
                spill: Arc::new(MemFs::new()),
                wal_dir: None,
            };
            session(&off, &mut ctx.gate, env, &tiers).0.wall_s
        })
        .collect();
    ctx.put(
        "core.wal.overhead_frac",
        with_wal_s / median(&without) - 1.0,
    );

    let tiers = Tiers {
        spill: Arc::new(MemFs::new()),
        wal_dir: Some(ctx.work.fresh("wal-recover")),
    };
    drop(session(&off, &mut ctx.gate, env, &tiers));
    let log = tiers
        .wal_dir
        .as_ref()
        .expect("log directory")
        .join(godiva_core::wal::WAL_FILE);
    let bytes = std::fs::metadata(&log).map_or(0, |m| m.len());
    let scans: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            let scan = godiva_core::wal::scan_log(&log);
            let s = t.elapsed().as_secs_f64();
            ctx.gate.check(scan.is_ok_and(|s| !s.truncated));
            s
        })
        .collect();
    ctx.put(
        "core.wal.scan_mb_per_s",
        bytes as f64 / 1e6 / median(&scans),
    );

    let t = Instant::now();
    let resumed = GodivaBackend::open_resuming(
        env.platform.storage(),
        env.genx.clone(),
        ReadOptions::new(),
        options(env, &tiers),
    );
    ctx.put("core.wal.recover_ms", t.elapsed().as_secs_f64() * 1e3);
    // The resumed database must serve an evicted snapshot from the
    // adopted spill frame, with the right answer.
    let ok = resumed.is_ok_and(|mut b| {
        b.begin_run(&[0]).is_ok()
            && load(&mut b, 0, &off).is_ok_and(|g| g == env.expected[0])
            && b.db().stats().spill_hits == 1
    });
    ctx.gate.check(ok);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_mix_does_not_depend_on_the_seed() {
        let count = |seed| {
            let trace = visit_trace(seed, 32);
            let of = |k| trace.iter().filter(|(_, kind)| *kind == k).count();
            (of(Visit::First), of(Visit::Near), of(Visit::Far))
        };
        assert_eq!(count(1), (32, 62, 24));
        assert_eq!(count(2), count(1));
        assert_ne!(visit_trace(1, 32), visit_trace(2, 32));
        assert_eq!(visit_trace(7, 32), visit_trace(7, 32));
    }

    #[test]
    fn near_visits_hit_and_far_visits_miss_an_lru_of_the_budgets_size() {
        for seed in 0..50 {
            let mut resident: Vec<usize> = Vec::new(); // least recent first
            let mut latest = 0;
            for (s, kind) in visit_trace(seed, 32) {
                let hit = resident.contains(&s);
                match kind {
                    Visit::First => {
                        assert!(!hit);
                        latest = s;
                    }
                    Visit::Near => assert!(hit, "seed {seed}: near visit of {s} missed"),
                    Visit::Far => {
                        assert!((5..=8).contains(&(latest - s)));
                        assert!(!hit, "seed {seed}: far visit of {s} was still resident");
                    }
                }
                resident.retain(|&r| r != s);
                resident.push(s);
                if resident.len() > MEM_UNITS as usize {
                    resident.remove(0);
                }
            }
        }
    }
}
