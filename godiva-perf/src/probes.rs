//! Layer probes: short, single-purpose measurements of the layers the
//! workload loops do not call directly (or call too briefly to time).
//! Every nanosecond-scale call is timed in batches of at least 1 000,
//! each batch under one span; the figure reported is the median batch.

use crate::alloc::thread_allocs;
use crate::harness::{Ctx, Rng};
use crate::opmix::{self, Keys, FIELDS, RECORD, RECORDS_PER_UNIT};
use crate::render::genx_config;
use crate::spans::Spans;
use crate::stats::median;
use godiva_core::{Gbo, GboConfig, Key, UnitSession};
use godiva_obs::{Counter, Histogram, MemorySink, Tracer};
use godiva_platform::Platform;
use godiva_sdf::SdfFile;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const BATCH: usize = 1_000;
const BATCHES: usize = 21;

/// Median nanoseconds per call of `op`, over `BATCHES` spans of `BATCH`
/// calls each.
fn ns_per_call(spans: &Spans, name: &'static str, mut op: impl FnMut(usize)) -> f64 {
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let t = Instant::now();
            spans.span(name, || {
                for i in 0..BATCH {
                    op(b * BATCH + i);
                }
            });
            t.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    median(&per_batch)
}

/// Everything but [`host`], which must run before the process pins
/// itself to one processor.
pub fn run_all(ctx: &mut Ctx) {
    dataset(ctx);
    store(ctx);
    units(ctx);
    handoff(ctx);
    obs(ctx);
}

fn spin(iterations: u64) -> Duration {
    let t = Instant::now();
    let mut x = 1u64;
    for i in 0..iterations {
        x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
    }
    black_box(x);
    t.elapsed()
}

/// How many processors there are, and whether two threads really run at
/// once: the work rate of two spinning threads over that of one.
pub fn host(ctx: &mut Ctx) {
    const N: u64 = 60_000_000;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let one = spin(N).as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| spin(N));
        spin(N);
    });
    let two = t.elapsed().as_secs_f64();
    ctx.put("host.nproc", nproc as f64);
    ctx.put("host.parallel_speedup", 2.0 * one / two);
}

/// genx, sdf and the platform shim, on a zero-cost platform.
fn dataset(ctx: &mut Ctx) {
    let genx = genx_config(ctx.seed);
    let platform = Platform::instant(2);
    let storage = platform.storage();
    let t = Instant::now();
    let generated = ctx.spans.span("genx.generate", || {
        godiva_genx::generate(storage.as_ref(), &genx)
    });
    ctx.put("genx.generate_s", t.elapsed().as_secs_f64());
    ctx.gate.check(generated.is_ok());
    let written: u64 = storage
        .list("")
        .iter()
        .map(|p| storage.len(p).unwrap_or(0))
        .sum();
    ctx.put("genx.bytes_written", written as f64);

    // sdf: open every file of one snapshot and decode every dataset.
    let mut open_us = Vec::new();
    let mut decoded = 0u64;
    let mut decode_s = 0.0;
    for f in 0..genx.files_per_snapshot {
        let t = Instant::now();
        let file = ctx.spans.span("sdf.open", || {
            SdfFile::open(storage.clone(), genx.file_path(0, f))
        });
        open_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let bytes = ctx.spans.span("sdf.read", || {
            let file = file.ok()?;
            let mut bytes = 0u64;
            for d in file.datasets() {
                bytes += file.read_bytes(&d.name).ok()?.len() as u64;
            }
            Some(bytes)
        });
        decode_s += t.elapsed().as_secs_f64();
        ctx.gate.check(bytes.is_some());
        decoded += bytes.unwrap_or(0);
    }
    ctx.put("sdf.open_us", median(&open_us));
    ctx.put("sdf.bytes_per_snapshot", decoded as f64);
    ctx.put("sdf.decode_mb_per_s", decoded as f64 / 1e6 / decode_s);

    // platform: what one charged read costs when the model charges nothing.
    let disk = platform.sim_storage().disk().clone();
    let ns = ns_per_call(&ctx.spans, "platform.charge_read", |i| {
        disk.charge_read(1, (i * 4096) as u64, 4096)
    });
    ctx.put("platform.charge_read_ns", ns);
}

/// core.store and core.buffer: commit, lookup (hit and miss), read.
fn store(ctx: &mut Ctx) {
    let db = Gbo::with_config(GboConfig {
        mem_limit: 1 << 30,
        background_io: false,
        ..GboConfig::default()
    });
    opmix::define_schema(&db).expect("schema");
    // Commit: one unit of 120 records per sample, read inline.
    let mut commit_ns = Vec::new();
    let mut commit_allocs = 0;
    let units = 200i64;
    for unit in 0..units {
        let name = format!("u{unit}");
        let sample = Arc::new(Mutex::new((0.0, 0)));
        let out = Arc::clone(&sample);
        let spans = Arc::clone(&ctx.spans);
        let added = db.add_unit(&name, move |s: &UnitSession| {
            let allocs = thread_allocs();
            let t = Instant::now();
            let done = spans.span("core.store.commit_records", || {
                opmix::commit_records(s, unit)
            });
            *out.lock().expect("sample") = (
                t.elapsed().as_nanos() as f64 / RECORDS_PER_UNIT as f64,
                thread_allocs() - allocs,
            );
            done
        });
        ctx.gate.check(added.is_ok() && db.wait_unit(&name).is_ok());
        let (ns, allocs) = *sample.lock().expect("sample");
        commit_ns.push(ns);
        commit_allocs = allocs;
    }
    ctx.put("core.store.commit_record_ns", median(&commit_ns));
    ctx.put(
        "core.store.commit_allocs_per_record",
        commit_allocs as f64 / RECORDS_PER_UNIT as f64,
    );

    let mut rng = Rng(ctx.seed);
    let mut keys = Keys::new();
    let mut pick = move || {
        (
            rng.below(units as u64) as i64,
            rng.below(RECORDS_PER_UNIT as u64) as i64,
        )
    };
    let mut found = 0usize;
    let mut lookup = |_| {
        let (unit, rec) = pick();
        found += usize::from(
            db.get_field_buffer(RECORD, FIELDS[0], keys.set(unit, rec))
                .is_ok(),
        );
    };
    // One batch outside any span: the keys are rewritten in place, so
    // every allocation counted here is the library's.
    let allocs = thread_allocs();
    (0..BATCH).for_each(&mut lookup);
    let lookup_allocs = thread_allocs() - allocs;
    let hit_ns = ns_per_call(&ctx.spans, "core.store.lookup", lookup);
    ctx.gate.check(found == BATCH * (BATCHES + 1));
    ctx.put("core.store.lookup_ns", hit_ns);
    ctx.put(
        "core.store.lookup_allocs_per_op",
        lookup_allocs as f64 / BATCH as f64,
    );
    let mut missed = 0usize;
    let miss_ns = ns_per_call(&ctx.spans, "core.store.lookup_miss", |i| {
        let k = keys.set(units + i as i64, 0);
        missed += usize::from(db.get_field_buffer(RECORD, FIELDS[0], k).is_err());
    });
    ctx.gate.check(missed == BATCH * BATCHES);
    ctx.put("core.store.lookup_miss_ns", miss_ns);

    let buffer = db
        .get_field_buffer(RECORD, FIELDS[0], &[Key::from(0i64), Key::from(1i64)])
        .expect("resident record");
    let mut sum = 0.0;
    let read_ns = ns_per_call(&ctx.spans, "core.buffer.read", |_| {
        sum += buffer.f64s().map_or(f64::NAN, |v| v[0]);
    });
    ctx.gate.check(sum == (BATCH * BATCHES) as f64);
    ctx.put("core.buffer.read_ns", read_ns);
}

/// core.units: the unit life cycle on an inline (no reader thread)
/// database, one batch of 1 000 units per call kind.
fn units(ctx: &mut Ctx) {
    let db = Gbo::with_config(GboConfig {
        mem_limit: 1 << 30,
        background_io: false,
        ..GboConfig::default()
    });
    opmix::define_schema(&db).expect("schema");
    let names: Vec<String> = (0..BATCH * BATCHES).map(|i| format!("u{i}")).collect();
    let mut ok = true;
    let add = ns_per_call(&ctx.spans, "core.units.add_unit", |i| {
        ok &= db
            .add_unit(&names[i], move |s: &UnitSession| {
                let r = s.new_record(RECORD)?;
                r.set_i64("unit", vec![i as i64])?;
                r.set_i64("rec", vec![0])?;
                r.commit()
            })
            .is_ok();
    });
    // First wait reads inline (not reported); the second is a pure hit.
    for name in &names {
        ok &= db.wait_unit(name).is_ok();
    }
    let hit = ns_per_call(&ctx.spans, "core.units.wait_unit", |i| {
        ok &= db.wait_unit(&names[i]).is_ok();
    });
    let finish = ns_per_call(&ctx.spans, "core.units.finish_unit", |i| {
        ok &= db.finish_unit(&names[i]).is_ok();
    });
    let delete = ns_per_call(&ctx.spans, "core.units.delete_unit", |i| {
        ok &= db.delete_unit(&names[i]).is_ok();
    });
    ctx.gate.check(ok);
    ctx.put("core.units.add_unit_ns", add);
    ctx.put("core.units.wait_hit_ns", hit);
    ctx.put("core.units.finish_unit_ns", finish);
    ctx.put("core.units.delete_unit_ns", delete);
}

/// core.exec: from `add_unit` on an idle database to the first
/// instruction of the read function on the reader thread.
fn handoff(ctx: &mut Ctx) {
    let db = Gbo::with_config(GboConfig::default());
    let mut us = Vec::new();
    for i in 0..200 {
        let name = format!("u{i}");
        let entered = Arc::new(Mutex::new(None));
        let mark = Arc::clone(&entered);
        let spans = Arc::clone(&ctx.spans);
        let started = Instant::now();
        let added = ctx.spans.span("core.exec.handoff", || {
            let cause = spans.current();
            let spans = Arc::clone(&spans);
            db.add_unit(&name, move |_: &UnitSession| {
                *mark.lock().expect("mark") = Some(Instant::now());
                spans.span_caused_by("core.exec.read_fn", cause, || Ok(()))
            })
        });
        let waited = db.wait_unit(&name);
        ctx.gate.check(added.is_ok() && waited.is_ok());
        if let Some(at) = *entered.lock().expect("mark") {
            us.push((at - started).as_secs_f64() * 1e6);
        }
        let _ = db.delete_unit(&name);
        // Let the worker park again, so every sample starts from idle.
        std::thread::sleep(Duration::from_micros(200));
    }
    ctx.put("core.exec.handoff_us_p50", median(&us));
}

/// obs: the library's own instrumentation primitives.
fn obs(ctx: &mut Ctx) {
    let off = Tracer::disabled();
    let ns = ns_per_call(&ctx.spans, "obs.span_disabled", |_| {
        off.span("bench", "probe", Vec::new()).end(Vec::new());
    });
    ctx.put("obs.span_disabled_ns", ns);
    let on = Tracer::new(Arc::new(MemorySink::new()));
    let ns = ns_per_call(&ctx.spans, "obs.span_enabled", |_| {
        on.span("bench", "probe", Vec::new()).end(Vec::new());
    });
    ctx.put("obs.span_enabled_ns", ns);
    let counter = Counter::new();
    let ns = ns_per_call(&ctx.spans, "obs.counter_inc", |_| counter.inc());
    ctx.gate.check(counter.get() == (BATCH * BATCHES) as u64);
    ctx.put("obs.counter_inc_ns", ns);
    let histogram = Histogram::new();
    let ns = ns_per_call(&ctx.spans, "obs.histogram_record", |i| {
        histogram.record_us(i as u64)
    });
    ctx.gate
        .check(histogram.count() == (BATCH * BATCHES) as u64);
    ctx.put("obs.histogram_record_ns", ns);
}
