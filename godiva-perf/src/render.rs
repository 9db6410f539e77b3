//! `batch-cpu` and `batch-paper`: the Voyager batch loop, driven from
//! here through `SnapshotSource` so that every call into a layer can
//! carry a span and every snapshot a latency. The loop mirrors
//! `godiva_viz::run_voyager` call for call (same filters, same colour
//! map fit, same synthetic compute, same checksum), so the images are
//! the ones Voyager renders.

use crate::harness::Ctx;
use crate::spans::Spans;
use crate::stats::{median, percentile};
use godiva_genx::GenxConfig;
use godiva_platform::{Platform, Storage, Work};
use godiva_sdf::ReadOptions;
use godiva_viz::color::ColorScheme;
use godiva_viz::{
    clip_surface, isosurface, plane_slice, raster::rasterize, surface, threshold, vector_glyphs,
    BlockData, Camera, ColorMap, DirectBackend, Framebuffer, GodivaBackend, GodivaBackendOptions,
    GraphicsOp, SnapshotSource, TestSpec, TriangleSoup, VizResult,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The paper's memory budget (384 MB): nothing is evicted in batch mode.
const MEM_LIMIT: u64 = 384 << 20;
/// Voyager's default output size.
const IMAGE: (usize, usize) = (192, 144);

/// Which of the two batch workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// `medium` test, single-thread (G) build, zero-cost platform, no
    /// synthetic work: every cycle is spent on the main thread.
    Cpu,
    /// `simple` test, background-reader (TG) build, Turing disk model at
    /// scale 0.5, paper defaults.
    Paper,
}

impl Batch {
    fn spec(self) -> TestSpec {
        match self {
            Batch::Cpu => TestSpec {
                work_per_op: Work::ZERO,
                ..TestSpec::medium()
            },
            Batch::Paper => TestSpec::simple(),
        }
    }

    /// Whether the build has the background reader thread. On a zero-cost
    /// platform that thread hides every read, which leaves a visible I/O
    /// time of a few milliseconds of scheduling noise; read inline, the
    /// same work shows up as a visible I/O time that repeats.
    fn background_io(self) -> bool {
        self == Batch::Paper
    }

    /// Synthetic decode cost per KiB read (25 is Voyager's default).
    fn decode_work_per_kib(self) -> u64 {
        match self {
            Batch::Cpu => 0,
            Batch::Paper => 25,
        }
    }
}

/// A platform holding the generated dataset, and the images the direct
/// (O) build renders from it.
pub struct BatchEnv {
    which: Batch,
    platform: Platform,
    genx: GenxConfig,
    spec: TestSpec,
    reference: Vec<u64>,
}

/// The dataset every dataset-backed workload uses.
pub fn genx_config(seed: u64) -> GenxConfig {
    GenxConfig {
        seed,
        ..GenxConfig::paper_scaled()
    }
}

/// World bounds of the annulus (as `run_voyager` derives them).
fn bounds(genx: &GenxConfig) -> ([f64; 3], [f64; 3]) {
    (
        [-genx.r_outer, -genx.r_outer, 0.0],
        [genx.r_outer, genx.r_outer, genx.height],
    )
}

fn scalar_range(scalar: &[f64]) -> Option<(f64, f64)> {
    let (lo, hi) = scalar
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    (lo.is_finite() && hi > lo).then_some((lo, hi))
}

/// One graphics op on one block, through the public filters.
fn apply_op(
    op: &GraphicsOp,
    d: &BlockData,
    bounds: ([f64; 3], [f64; 3]),
) -> VizResult<TriangleSoup> {
    match op {
        GraphicsOp::Surface { .. } => surface(&d.mesh, &d.scalar),
        GraphicsOp::Isosurface { fraction, .. } => match scalar_range(&d.scalar) {
            Some((lo, hi)) => isosurface(&d.mesh, &d.scalar, lo + fraction * (hi - lo)),
            None => Ok(TriangleSoup::new()),
        },
        GraphicsOp::Slice { axis, fraction, .. } => plane_slice(
            &d.mesh,
            &d.scalar,
            axis.plane_at(bounds.0, bounds.1, *fraction),
        ),
        GraphicsOp::Clip { axis, fraction, .. } => clip_surface(
            &d.mesh,
            &d.scalar,
            axis.plane_at(bounds.0, bounds.1, *fraction),
        ),
        GraphicsOp::Glyphs { scale, stride, .. } => vector_glyphs(&d.mesh, &d.raw, *scale, *stride),
        GraphicsOp::Threshold { lo, hi, .. } => match scalar_range(&d.scalar) {
            Some((min, max)) => threshold(
                &d.mesh,
                &d.scalar,
                min + lo * (max - min),
                min + hi * (max - min),
            ),
            None => Ok(TriangleSoup::new()),
        },
    }
}

/// What one pass over the snapshots produced.
#[derive(Default)]
struct LoopOut {
    checksums: Vec<u64>,
    snapshot_ms: Vec<f64>,
    blocks: u64,
    tris_out: u64,
    tris_drawn: u64,
}

/// Render every snapshot of `genx` once, in order.
fn voyager_loop(
    source: &mut dyn SnapshotSource,
    spec: &TestSpec,
    platform: &Platform,
    genx: &GenxConfig,
    spans: &Spans,
) -> VizResult<LoopOut> {
    let bounds = bounds(genx);
    let camera = Camera::framing(bounds.0, bounds.1);
    let mut fb = Framebuffer::new(IMAGE.0, IMAGE.1);
    let mut out = LoopOut::default();
    let snapshots: Vec<usize> = (0..genx.snapshots).collect();
    spans.span("viz.backend.begin_run", || source.begin_run(&snapshots))?;
    for &s in &snapshots {
        let started = Instant::now();
        fb.clear();
        for op in &spec.ops {
            let data = spans.span("viz.backend.load_pass", || source.load_pass(s, op.var()))?;
            out.blocks += data.len() as u64;
            let cmap = spans.span("viz.color.fit", || {
                let mut all: Vec<f64> = Vec::new();
                for d in &data {
                    all.extend_from_slice(&d.scalar);
                }
                ColorMap::fit(&all, ColorScheme::Rainbow)
            });
            for d in &data {
                let soup = spans.span("viz.filters.apply", || apply_op(op, d, bounds))?;
                out.tris_out += soup.tri_count() as u64;
                out.tris_drawn += spans.span("viz.raster.rasterize", || {
                    rasterize(&mut fb, &camera, &cmap, &soup)
                }) as u64;
            }
            spans.span("platform.cpu.compute", || {
                platform
                    .cpu()
                    .compute_sliced(spec.work_per_op, Duration::from_millis(2))
            });
        }
        out.checksums
            .push(spans.span("viz.raster.checksum", || fb.checksum()));
        spans.span("viz.backend.end_snapshot", || source.end_snapshot(s))?;
        out.snapshot_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    Ok(out)
}

/// Reference images: the direct (O) build on a zero-cost platform. The
/// images do not depend on the platform or on synthetic work.
fn reference_images(platform: &Platform, genx: &GenxConfig, spec: &TestSpec) -> Vec<u64> {
    let spec = TestSpec {
        work_per_op: Work::ZERO,
        ..spec.clone()
    };
    let mut direct = DirectBackend::new(platform.storage(), genx.clone(), ReadOptions::new());
    voyager_loop(&mut direct, &spec, platform, genx, &Spans::new(false))
        .expect("reference render")
        .checksums
}

/// Set-up: generate the dataset, render the reference images, and (for
/// `batch-paper`) place a copy of the files on the modelled disk.
pub fn setup(which: Batch, seed: u64) -> BatchEnv {
    let genx = genx_config(seed);
    let spec = which.spec();
    let instant = Platform::instant(2);
    godiva_genx::generate(instant.storage().as_ref(), &genx).expect("dataset generation");
    let reference = reference_images(&instant, &genx, &spec);
    let platform = match which {
        Batch::Cpu => instant,
        Batch::Paper => {
            let turing = Platform::turing(0.5);
            let (from, to) = (instant.storage(), turing.storage());
            for path in from.list("") {
                let bytes = from.read(&path).expect("generated file");
                to.write(&path, &bytes)
                    .expect("copy onto the modelled disk");
            }
            turing
        }
    };
    BatchEnv {
        which,
        platform,
        genx,
        spec,
        reference,
    }
}

/// The TG (or G) build's data path over `env`'s dataset.
fn godiva_backend(env: &BatchEnv, background_io: bool) -> GodivaBackend {
    let vars = env
        .spec
        .distinct_vars()
        .iter()
        .map(|v| v.to_string())
        .collect();
    let read_options =
        ReadOptions::new().with_cpu(env.platform.cpu().clone(), env.which.decode_work_per_kib());
    GodivaBackend::new(
        env.platform.storage(),
        env.genx.clone(),
        read_options,
        GodivaBackendOptions::batch(vars, background_io, MEM_LIMIT),
    )
}

/// Compare a run's images with the reference, one operation each.
fn check_images(ctx: &mut Ctx, reference: &[u64], got: &VizResult<LoopOut>) -> u64 {
    let mut mismatches = 0;
    for (i, want) in reference.iter().enumerate() {
        let ok = got
            .as_ref()
            .is_ok_and(|out| out.checksums.get(i) == Some(want));
        ctx.gate.check(ok);
        mismatches += u64::from(!ok);
    }
    mismatches
}

/// The workload: fresh backend per run, one lap over the snapshots.
pub fn run(ctx: &mut Ctx, which: Batch) {
    let env = ctx.timed_setup(3, |ctx| setup(which, ctx.seed));
    let disk = env.platform.sim_storage().disk().clone();
    let mut per_s = Vec::new();
    let mut visible = Vec::new();
    let mut latencies = Vec::new();
    let mut cpu_busy = Vec::new();
    let mut first = None;
    let mut mismatches = 0;
    let min_runs = 100usize.div_ceil(env.genx.snapshots);
    let walls = ctx.closed_loop(min_runs, |ctx| {
        let mut backend = godiva_backend(&env, which.background_io());
        disk.reset_stats();
        let cpu_before = env.platform.cpu().busy_time();
        let started = Instant::now();
        let out = ctx.spans.span("bench.run", || {
            voyager_loop(
                &mut backend,
                &env.spec,
                &env.platform,
                &env.genx,
                &ctx.spans,
            )
        });
        let wall = started.elapsed();
        mismatches += check_images(ctx, &env.reference, &out);
        if let Ok(out) = out {
            if !ctx.spans.enabled() {
                per_s.push(env.genx.snapshots as f64 / wall.as_secs_f64());
                visible.push(backend.visible_io().as_secs_f64());
                latencies.extend_from_slice(&out.snapshot_ms);
            }
            cpu_busy.push((env.platform.cpu().busy_time() - cpu_before).as_secs_f64());
            first.get_or_insert_with(|| (out, disk.stats(), backend.db().stats()));
        }
    });
    ctx.put("throughput_per_s", median(&per_s));
    ctx.put("visible_io_s", median(&visible));
    ctx.put("latency_ms_p50", median(&latencies));
    ctx.put(
        "latency_ms_p90",
        percentile(&latencies, 90.0).unwrap_or(0.0),
    );
    if !ctx.traced {
        return;
    }
    let times = ctx.put_span_metrics(&walls);
    let busy = |layer: &str| median(&times.per_run(|name, _| name.starts_with(layer)));
    let (filters, raster) = (busy("viz.filters."), busy("viz.raster."));
    ctx.put("viz.filters.busy_s", filters);
    ctx.put("viz.raster.busy_s", raster);
    ctx.put("viz.checksum_mismatches", mismatches as f64);
    ctx.put("platform.cpu_busy_s", median(&cpu_busy));
    if let Some((out, disk, gbo)) = first {
        ctx.put_disk(&disk);
        ctx.put("viz.backend.blocks_loaded", out.blocks as f64);
        ctx.put("viz.filters.tris_out", out.tris_out as f64);
        ctx.put(
            "viz.filters.mtris_per_s",
            out.tris_out as f64 / filters / 1e6,
        );
        ctx.put(
            "viz.raster.mtris_per_s",
            out.tris_drawn as f64 / raster / 1e6,
        );
        ctx.put_gbo_counts(&gbo);
    }
    if which == Batch::Paper {
        hidden_io(ctx, &env);
    }
}

/// The paper's "hidden I/O" figure, on the first 8 snapshots so the O
/// build's re-reads fit the traced pass: visible I/O of the O, G and TG
/// builds, and the share of G's that TG hides.
fn hidden_io(ctx: &mut Ctx, env: &BatchEnv) {
    let genx = GenxConfig {
        snapshots: 8,
        ..env.genx.clone()
    };
    let off = Spans::new(false);
    let mut visible_io = |source: &mut dyn SnapshotSource| {
        let out = voyager_loop(source, &env.spec, &env.platform, &genx, &off);
        let ok = out.is_ok_and(|o| o.checksums[..] == env.reference[..genx.snapshots]);
        ctx.gate.check(ok);
        source.visible_io().as_secs_f64()
    };
    let read_options =
        ReadOptions::new().with_cpu(env.platform.cpu().clone(), env.which.decode_work_per_kib());
    let storage: Arc<dyn Storage> = env.platform.storage();
    let original = visible_io(&mut DirectBackend::new(storage, genx.clone(), read_options));
    let single = visible_io(&mut godiva_backend(env, false));
    let multi = visible_io(&mut godiva_backend(env, true));
    ctx.put("viz.backend.original_visible_io_s", original);
    ctx.put("viz.backend.io_hidden_frac", 1.0 - multi / single);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Gate, Metrics, WorkDir};

    fn tiny_env() -> BatchEnv {
        let genx = GenxConfig {
            seed: 5,
            ..GenxConfig::tiny()
        };
        let spec = Batch::Cpu.spec();
        let platform = Platform::instant(2);
        godiva_genx::generate(platform.storage().as_ref(), &genx).unwrap();
        let reference = reference_images(&platform, &genx, &spec);
        BatchEnv {
            which: Batch::Cpu,
            platform,
            genx,
            spec,
            reference,
        }
    }

    fn ctx() -> Ctx {
        Ctx {
            seed: 5,
            seconds: 0.0,
            traced: false,
            spans: Arc::new(Spans::new(false)),
            gate: Gate::default(),
            metrics: Metrics::new(),
            work: WorkDir::create().unwrap(),
        }
    }

    #[test]
    fn gate_passes_on_matching_images_and_trips_on_a_corrupted_reference() {
        let mut env = tiny_env();
        let mut ctx = ctx();
        let render = |env: &BatchEnv| {
            let mut backend = godiva_backend(env, true);
            voyager_loop(
                &mut backend,
                &env.spec,
                &env.platform,
                &env.genx,
                &Spans::new(false),
            )
        };
        assert_eq!(check_images(&mut ctx, &env.reference, &render(&env)), 0);
        assert_eq!((ctx.gate.attempted, ctx.gate.failed), (3, 0));
        env.reference[1] ^= 1;
        assert_eq!(check_images(&mut ctx, &env.reference, &render(&env)), 1);
        assert_eq!((ctx.gate.attempted, ctx.gate.failed), (6, 1));
    }

    #[test]
    fn the_loop_renders_what_run_voyager_renders() {
        let env = tiny_env();
        let opts = godiva_viz::VoyagerOptions::new(
            env.platform.storage(),
            env.platform.cpu().clone(),
            env.genx.clone(),
            env.spec.clone(),
            godiva_viz::Mode::GodivaMulti,
        );
        let report = godiva_viz::run_voyager(opts).unwrap();
        assert_eq!(report.image_checksums, env.reference);
    }
}
