//! `gbo-opmix`: the bare database, no viz, sdf or platform.
//!
//! *Pipeline phase* (TG: one background reader): a sliding window of
//! four announced units; the reader commits 120 records per unit, the
//! main thread tops the window up, waits for the unit, looks up and
//! reads both fields of every record, and deletes the unit. Reader and
//! main thread share the store lock but, the process being pinned to one
//! processor, never run at the same time. *Query phase* (single thread):
//! seeded-random lookups against 96 000 resident records, timed in
//! batches of 1 000, on a table built afresh for every run.

use crate::harness::{Ctx, Gate, Rng};
use crate::spans::{SpanId, Spans};
use crate::stats::{median, percentile};
use godiva_core::{DeclaredSize, FieldKind, FieldRef, Gbo, GboConfig, GboStats, Key, UnitSession};
use godiva_obs::{MemorySink, MetricsRegistry, Tracer};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const RECORD: &str = "rec";
pub const FIELDS: [&str; 2] = ["a", "b"];
pub const RECORDS_PER_UNIT: i64 = 120;
/// Elements per field buffer.
pub const FIELD_LEN: usize = 32;
/// Units announced ahead of the one being processed.
const WINDOW: usize = 4;
/// Unit cycles per pipeline phase.
const PIPELINE_UNITS: usize = 1_000;
/// Units kept resident for the query phase (× 120 = 96 000 records).
const RESIDENT_UNITS: i64 = 800;
pub const BATCH: u64 = 1_000;
/// Batches per query phase.
const QUERY_BATCHES: usize = 300;

/// The first element of field `field` of record `(unit, rec)`.
pub fn value(unit: i64, rec: i64, field: usize) -> f64 {
    let v = (unit * 1_000 + rec) as f64;
    if field == 0 {
        v
    } else {
        -v
    }
}

pub fn define_schema(db: &Gbo) -> godiva_core::Result<()> {
    db.define_field("unit", FieldKind::I64, DeclaredSize::Known(8))?;
    db.define_field("rec", FieldKind::I64, DeclaredSize::Known(8))?;
    for f in FIELDS {
        db.define_field(f, FieldKind::F64, DeclaredSize::Unknown)?;
    }
    db.define_record(RECORD, 2)?;
    db.insert_field(RECORD, "unit", true)?;
    db.insert_field(RECORD, "rec", true)?;
    for f in FIELDS {
        db.insert_field(RECORD, f, false)?;
    }
    db.commit_record_type(RECORD)
}

/// The read function of unit `unit`: create and commit its records.
pub fn commit_records(session: &UnitSession, unit: i64) -> godiva_core::Result<()> {
    for rec in 0..RECORDS_PER_UNIT {
        let r = session.new_record(RECORD)?;
        r.set_i64("unit", vec![unit])?;
        r.set_i64("rec", vec![rec])?;
        for (i, f) in FIELDS.iter().enumerate() {
            r.set_f64(f, vec![value(unit, rec, i); FIELD_LEN])?;
        }
        r.commit()?;
    }
    Ok(())
}

/// Lookup keys rewritten in place, so a lookup's allocations are the
/// library's alone.
pub struct Keys([Key; 2]);

impl Keys {
    pub fn new() -> Keys {
        Keys([Key::from(0i64), Key::from(0i64)])
    }

    pub fn set(&mut self, unit: i64, rec: i64) -> &[Key] {
        self.0[0].0.copy_from_slice(&unit.to_le_bytes());
        self.0[1].0.copy_from_slice(&rec.to_le_bytes());
        &self.0
    }
}

fn unit_name(unit: usize) -> String {
    format!("unit_{unit:05}")
}

struct Pipeline {
    wall: Duration,
    stats: GboStats,
    /// Nanoseconds per lookup, one sample per unit (240 lookups).
    lookup_ns: Vec<f64>,
}

/// One pipeline phase on a fresh database. A unit cycle is one
/// operation: every one of its 240 buffers must start with the value
/// its key implies.
fn pipeline(spans: &Arc<Spans>, gate: &mut Gate, config: GboConfig) -> Pipeline {
    let db = Gbo::with_config(config);
    define_schema(&db).expect("schema");
    let names: Vec<String> = (0..PIPELINE_UNITS).map(unit_name).collect();
    let announce = |unit: usize| {
        spans.span("core.units.add_unit", || {
            let cause: Option<SpanId> = spans.current();
            let spans = Arc::clone(spans);
            db.add_unit(&names[unit], move |s: &UnitSession| {
                spans.span_caused_by("core.store.commit_records", cause, || {
                    commit_records(s, unit as i64)
                })
            })
        })
    };
    let mut keys = Keys::new();
    let mut handles: Vec<FieldRef> = Vec::with_capacity(240);
    let mut lookup_ns = Vec::with_capacity(PIPELINE_UNITS);
    let mut announced = 0;
    let started = Instant::now();
    for (unit, name) in names.iter().enumerate() {
        let cycle = (|| -> godiva_core::Result<bool> {
            while announced < PIPELINE_UNITS.min(unit + WINDOW) {
                announce(announced)?;
                announced += 1;
            }
            spans.span("core.units.wait_unit", || db.wait_unit(name))?;
            handles.clear();
            let t = Instant::now();
            spans.span("core.store.lookup", || -> godiva_core::Result<()> {
                for rec in 0..RECORDS_PER_UNIT {
                    for f in FIELDS {
                        let k = keys.set(unit as i64, rec);
                        handles.push(db.get_field_buffer(RECORD, f, k)?);
                    }
                }
                Ok(())
            })?;
            lookup_ns.push(t.elapsed().as_nanos() as f64 / handles.len() as f64);
            let right = spans.span("core.buffer.read", || -> godiva_core::Result<bool> {
                let mut right = true;
                for (i, h) in handles.iter().enumerate() {
                    let want = value(unit as i64, i as i64 / 2, i % 2);
                    right &= h.f64s()?[0] == want;
                }
                Ok(right)
            })?;
            spans.span("core.units.delete_unit", || db.delete_unit(name))?;
            Ok(right)
        })();
        gate.check(cycle.is_ok_and(|right| right));
    }
    Pipeline {
        wall: started.elapsed(),
        stats: db.stats(),
        lookup_ns,
    }
}

/// The resident table of the query phase.
pub struct Resident {
    pub db: Gbo,
}

/// Set-up: 800 units × 120 records, read inline, kept resident.
pub fn setup() -> Resident {
    let db = Gbo::with_config(GboConfig {
        mem_limit: 1 << 30,
        background_io: false,
        ..GboConfig::default()
    });
    define_schema(&db).expect("schema");
    for unit in 0..RESIDENT_UNITS {
        let name = unit_name(unit as usize);
        db.add_unit(&name, move |s: &UnitSession| commit_records(s, unit))
            .expect("announce resident unit");
        db.wait_unit(&name).expect("load resident unit");
    }
    Resident { db }
}

/// One batch of seeded-random lookups; returns how many were wrong.
pub fn query_batch(db: &Gbo, rng: &mut Rng, keys: &mut Keys) -> u64 {
    let mut bad = 0;
    for _ in 0..BATCH {
        let unit = rng.below(RESIDENT_UNITS as u64) as i64;
        let rec = rng.below(RECORDS_PER_UNIT as u64) as i64;
        let field = rng.below(2) as usize;
        let ok = db
            .get_field_buffer(RECORD, FIELDS[field], keys.set(unit, rec))
            .and_then(|h| Ok(h.f64s()?[0] == value(unit, rec, field)))
            .unwrap_or(false);
        bad += u64::from(!ok);
    }
    bad
}

/// One query phase; returns the batch latencies in milliseconds.
fn query(spans: &Spans, gate: &mut Gate, resident: &Resident, rng: &mut Rng) -> Vec<f64> {
    let mut keys = Keys::new();
    (0..QUERY_BATCHES)
        .map(|_| {
            let t = Instant::now();
            let bad = spans.span("core.store.query", || {
                query_batch(&resident.db, rng, &mut keys)
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            gate.check_many(BATCH, bad);
            ms
        })
        .collect()
}

pub fn run(ctx: &mut Ctx) {
    // Only the time is kept: every run builds its own table (below).
    drop(ctx.timed_setup(5, |_| setup()));
    let mut rng = Rng(ctx.seed);
    let mut units_per_s = Vec::new();
    let mut visible = Vec::new();
    let (mut batch_p50, mut batch_p90) = (Vec::new(), Vec::new());
    let mut pipeline_lookup_ns = Vec::new();
    let mut pipeline_s = Vec::new();
    let mut first = None;
    let walls = ctx.closed_loop(1, |ctx| {
        let (spans, gate) = (&ctx.spans, &mut ctx.gate);
        let (p, q) = spans.span("bench.run", || {
            let p = pipeline(spans, gate, GboConfig::default());
            // A fresh table per run, like the fresh database of the
            // pipeline: lookup time depends on where the allocator and
            // the index's per-instance hash seed happen to put 96 000
            // records (7 % between one table and the next), so the
            // latencies reported are medians over a dozen tables of each
            // table's own percentiles (300 batches: 30 beyond its p90).
            let resident = spans.span("bench.resident_table", setup);
            let q = query(spans, gate, &resident, &mut rng);
            (p, q)
        });
        if !spans.enabled() {
            units_per_s.push(PIPELINE_UNITS as f64 / p.wall.as_secs_f64());
            visible.push(p.stats.wait_time.as_secs_f64());
            batch_p50.push(median(&q));
            batch_p90.push(percentile(&q, 90.0).unwrap_or(0.0));
        } else {
            pipeline_s.push(p.wall.as_secs_f64());
        }
        pipeline_lookup_ns.extend_from_slice(&p.lookup_ns);
        first.get_or_insert(p.stats);
    });
    ctx.put("throughput_per_s", median(&units_per_s));
    ctx.put("visible_io_s", median(&visible));
    ctx.put("latency_ms_p50", median(&batch_p50));
    ctx.put("latency_ms_p90", median(&batch_p90));
    if !ctx.traced {
        return;
    }
    let times = ctx.put_span_metrics(&walls);
    ctx.put("core.store.lookup_pipeline_ns", median(&pipeline_lookup_ns));
    ctx.put(
        "core.store.lookups_per_s",
        BATCH as f64 / (median(&batch_p50) * 1e-3),
    );
    if let Some(gbo) = first {
        ctx.put_gbo_counts(&gbo);
    }
    let in_core = median(&times.per_run(|name, _| {
        ["core.units.", "core.store.lookup", "core.buffer."]
            .iter()
            .any(|layer| name.starts_with(layer))
    }));
    eprintln!(
        "gbo-opmix: core.store/units/buffer spans cover {:.1} % of the pipeline phase's wall",
        100.0 * in_core / median(&pipeline_s)
    );
    tracer_overhead(ctx);
}

/// What switching the library's own tracer and metrics registry on costs
/// the pipeline phase.
fn tracer_overhead(ctx: &mut Ctx) {
    let off = Arc::new(Spans::new(false));
    let mut plain = Vec::new();
    let mut instrumented = Vec::new();
    for _ in 0..3 {
        plain.push(
            pipeline(&off, &mut ctx.gate, GboConfig::default())
                .wall
                .as_secs_f64(),
        );
        let config = GboConfig {
            tracer: Tracer::new(Arc::new(MemorySink::new())),
            metrics: Some(Arc::new(MetricsRegistry::new())),
            ..GboConfig::default()
        };
        instrumented.push(pipeline(&off, &mut ctx.gate, config).wall.as_secs_f64());
    }
    ctx.put(
        "obs.tracer_overhead_frac",
        median(&instrumented) / median(&plain) - 1.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_return_the_value_their_key_implies_and_the_gate_sees_a_wrong_one() {
        let db = Gbo::with_config(GboConfig {
            background_io: false,
            ..GboConfig::default()
        });
        define_schema(&db).unwrap();
        db.add_unit("u", |s: &UnitSession| commit_records(s, 3))
            .unwrap();
        db.wait_unit("u").unwrap();
        let mut keys = Keys::new();
        let a = db.get_field_buffer(RECORD, "a", keys.set(3, 7)).unwrap();
        let b = db.get_field_buffer(RECORD, "b", keys.set(3, 7)).unwrap();
        assert_eq!(a.f64s().unwrap()[0], value(3, 7, 0));
        assert_eq!(b.f64s().unwrap()[0], -3007.0);
        assert_eq!(a.f64s().unwrap().len(), FIELD_LEN);
        // Only unit 3 is resident: a batch drawn over 800 units must
        // report the lookups that found nothing.
        let bad = query_batch(&db, &mut Rng(1), &mut keys);
        assert!(bad > BATCH * 9 / 10 && bad < BATCH, "{bad}");
    }

    #[test]
    fn pipeline_phase_completes_every_cycle() {
        let mut gate = Gate::default();
        let p = pipeline(
            &Arc::new(Spans::new(false)),
            &mut gate,
            GboConfig::default(),
        );
        assert_eq!(gate.failed, 0);
        assert_eq!(gate.attempted as usize, PIPELINE_UNITS);
        assert_eq!(p.stats.units_read as usize, PIPELINE_UNITS);
        assert_eq!(p.lookup_ns.len(), PIPELINE_UNITS);
    }
}
