//! The shape of every lifecycle event the database emits, pinned.
//!
//! One traced session on a 2-worker database with a spill tier, a
//! synced WAL and a watchdog drives every lifecycle path; each event
//! must then match a row of [`SHAPES`] — category, phase and the sorted
//! set of argument keys — and every row must have been seen. Consumers
//! (`trace_check`, `godiva-report`, the health engine) match these
//! names and keys as string literals, so this table is what a refactor
//! of the emit sites has to leave untouched.

use godiva_core::{
    DeclaredSize, Durability, FieldKind, Gbo, GboConfig, GodivaError, Key, RetryPolicy,
    SpillConfig, UnitSession,
};
use godiva_obs::{ArgValue, MemorySink, TraceEvent, Tracer};
use godiva_platform::{MemFs, Storage};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `(name, phase, sorted argument keys)`; every event is category
/// `"gbo"`. A name with two rows has an optional or alternative key.
const SHAPES: &[(&str, &str, &[&str])] = &[
    ("unit_added", "i", &["queued", "unit"]),
    ("unit_finished", "i", &["unit"]),
    ("unit_evicted", "i", &["freed_bytes", "mem_used", "unit"]),
    ("unit_deleted", "i", &["freed_bytes", "unit"]),
    ("unit_reset", "i", &["unit"]),
    ("read_start", "i", &["attempt", "unit", "worker"]),
    ("read_done", "i", &["attempt", "unit", "worker"]),
    ("read_unit", "X", &["ok", "unit", "worker"]),
    (
        "read_failed",
        "i",
        &["attempt", "error", "transient", "unit", "worker"],
    ),
    (
        "read_failed",
        "i",
        &["attempt", "error", "panic", "unit", "worker"],
    ),
    ("read_retry", "i", &["backoff_us", "next_attempt", "unit"]),
    ("wait_unit", "X", &["ok", "unit"]),
    ("wait_unit", "X", &["ok", "served_tid", "unit"]),
    ("wait_timeout", "i", &["unit", "waited_us"]),
    (
        "deadlock_detected",
        "i",
        &["mem_limit", "mem_used", "needed_bytes", "unit", "worker"],
    ),
    (
        "watchdog_stall",
        "i",
        &["in_flight", "queue_depth", "queued", "stalled_ms"],
    ),
    ("spill_write", "i", &["bytes", "spill_bytes", "unit"]),
    (
        "spill_evict",
        "i",
        &["cause", "freed_bytes", "spill_bytes", "unit"],
    ),
    ("spill_hit", "i", &["bytes", "unit"]),
    ("spill_restore", "X", &["bytes", "unit"]),
    ("spill_corrupt", "i", &["bytes", "unit"]),
    ("spill_miss", "i", &["unit"]),
    ("spill_adopt", "i", &["bytes", "unit"]),
    ("record_commit", "i", &["record", "type"]),
    ("key_lookup", "i", &["hit", "type"]),
    ("wal_append", "i", &["bytes", "kind", "lsn"]),
    ("wal_fsync", "X", &["lsn"]),
    (
        "wal_replay",
        "X",
        &["frames_adopted", "records", "truncated_bytes", "units"],
    ),
];

/// Doubles in a big unit's payload: the budget below holds two such
/// units and not a third.
const BIG: usize = 1000;
const MEM_LIMIT: u64 = 20_000;

fn define_schema(db: &Gbo) {
    db.define_field("id", FieldKind::Str, DeclaredSize::Known(8))
        .unwrap();
    db.define_field("data", FieldKind::F64, DeclaredSize::Unknown)
        .unwrap();
    db.define_record("rec", 1).unwrap();
    db.insert_field("rec", "id", true).unwrap();
    db.insert_field("rec", "data", false).unwrap();
    db.commit_record_type("rec").unwrap();
}

/// A read function creating one committed record keyed by the unit
/// name, with `doubles` doubles of payload.
fn payload(doubles: usize) -> impl Fn(&UnitSession) -> Result<(), GodivaError> + Send + Sync {
    move |s: &UnitSession| {
        let rec = s.new_record("rec")?;
        rec.set_str("id", s.unit())?;
        rec.set_f64("data", vec![1.0; doubles])?;
        rec.commit()
    }
}

fn open(
    sink: &Arc<MemorySink>,
    fs: &Arc<MemFs>,
    dir: &Path,
    recover: bool,
) -> Result<Gbo, GodivaError> {
    let config = GboConfig {
        mem_limit: MEM_LIMIT,
        background_io: true,
        io_threads: 2,
        retry: RetryPolicy::new(3, Duration::from_millis(1), Duration::from_millis(5)),
        tracer: Tracer::new(sink.clone()),
        postmortem_path: Some(dir.join("postmortem.jsonl")),
        spill: Some(SpillConfig {
            storage: Arc::clone(fs) as Arc<dyn Storage>,
            dir: "spill".to_string(),
            budget: 1 << 20,
        }),
        wal_dir: Some(dir.join("wal")),
        durability: Durability::WalSync,
        watchdog: Some(Duration::from_millis(100)),
        ..Default::default()
    };
    let db = if recover {
        Gbo::open_recovering(config)?
    } else {
        Gbo::with_config(config)
    };
    define_schema(&db);
    Ok(db)
}

fn arg<'a>(e: &'a TraceEvent, key: &str) -> Option<&'a ArgValue> {
    e.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

fn saw(events: &[TraceEvent], name: &str, key: &str, value: ArgValue) -> bool {
    events
        .iter()
        .any(|e| e.name == name && arg(e, key) == Some(&value))
}

#[test]
fn every_lifecycle_event_keeps_its_category_phase_and_keys() {
    let dir = std::env::temp_dir().join(format!("godiva-event-shapes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sink = Arc::new(MemorySink::new());
    let fs = Arc::new(MemFs::new());
    let db = open(&sink, &fs, &dir, false).unwrap();
    let key = |unit: &str| [Key::from(unit)];

    // Add, background read, record commit, lookup hit and miss, finish.
    db.add_unit("unit_a", payload(BIG)).unwrap();
    db.wait_unit("unit_a").unwrap();
    db.get_field_buffer("rec", "data", &key("unit_a")).unwrap();
    db.get_field_buffer("rec", "data", &key("nobody"))
        .unwrap_err();
    db.finish_unit("unit_a").unwrap();

    // Inline read on the calling thread.
    db.read_unit("unit_b", payload(BIG)).unwrap();
    db.finish_unit("unit_b").unwrap();

    // A third big unit does not fit: evicts and spills unit_a.
    db.add_unit("unit_c", payload(BIG)).unwrap();
    db.wait_unit("unit_c").unwrap();
    db.finish_unit("unit_c").unwrap();

    // Spill hit: unit_a comes back from its frame (evicting unit_b).
    db.wait_unit("unit_a").unwrap();
    db.finish_unit("unit_a").unwrap();

    // Spill corrupt: unit_b's frame is damaged, so its revisit drops
    // the frame, counts a miss and re-runs the read function.
    let frame = fs
        .list("spill/")
        .into_iter()
        .find(|p| p.contains("unit_b"))
        .expect("unit_b was spilled");
    let mut bytes = fs.read(&frame).unwrap();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0xFF;
    fs.write(&frame, &bytes).unwrap();
    db.wait_unit("unit_b").unwrap();
    db.finish_unit("unit_b").unwrap();

    // A transient error is retried after a backoff.
    let calls = AtomicU64::new(0);
    db.add_unit("flaky", move |s: &UnitSession| {
        if calls.fetch_add(1, Ordering::SeqCst) == 0 {
            return Err(GodivaError::Io {
                kind: std::io::ErrorKind::TimedOut,
                message: "try again".into(),
            });
        }
        payload(8)(s)
    })
    .unwrap();
    db.wait_unit("flaky").unwrap();
    db.finish_unit("flaky").unwrap();

    // A permanent error fails the unit; reset_unit re-queues it.
    db.add_unit("bad", |_s: &UnitSession| {
        Err(GodivaError::UnitError("no such file".into()))
    })
    .unwrap();
    db.wait_unit("bad").unwrap_err();
    db.reset_unit("bad").unwrap();
    db.wait_unit("bad").unwrap_err();

    // A panicking read function is caught.
    db.add_unit("boom", |_s: &UnitSession| panic!("reader exploded"))
        .unwrap();
    db.wait_unit("boom").unwrap_err();

    // A wait that expires, and a reader wedged long enough for the
    // watchdog to notice.
    let gate = Arc::new(AtomicBool::new(false));
    let reader_gate = Arc::clone(&gate);
    db.add_unit("slow", move |s: &UnitSession| {
        while !reader_gate.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(1));
        }
        payload(8)(s)
    })
    .unwrap();
    let err = db
        .wait_unit_timeout("slow", Duration::from_millis(30))
        .unwrap_err();
    assert!(matches!(err, GodivaError::WaitTimeout { .. }), "{err}");
    let t0 = Instant::now();
    while db.stats().watchdog_stalls == 0 {
        assert!(t0.elapsed() < Duration::from_secs(20), "no watchdog stall");
        std::thread::sleep(Duration::from_millis(10));
    }
    gate.store(true, Ordering::Relaxed);
    db.wait_unit("slow").unwrap();
    db.finish_unit("slow").unwrap();

    // Delete a loaded unit that also has a spill frame.
    db.delete_unit("unit_a").unwrap();

    // Deadlock: two pinned big units fill the budget, so the worker
    // reading a third blocks on memory with nothing evictable.
    db.wait_unit("unit_b").unwrap();
    db.wait_unit("unit_c").unwrap();
    db.add_unit("unit_d", payload(BIG)).unwrap();
    let err = db.wait_unit("unit_d").unwrap_err();
    assert!(matches!(err, GodivaError::Deadlock { .. }), "{err}");
    db.finish_unit("unit_b").unwrap();
    db.wait_unit("unit_d").unwrap();
    db.finish_unit("unit_d").unwrap();
    db.finish_unit("unit_c").unwrap();
    let stats = db.stats();
    assert!(stats.spill_writes >= 3 && stats.spill_hits >= 1, "{stats}");
    drop(db);

    // Recovery replays the log and re-adopts the surviving frames.
    let db = open(&sink, &fs, &dir, true).unwrap();
    let stats = db.stats();
    assert!(stats.wal_replayed > 0, "{stats}");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);

    let events = sink.snapshot();
    let mut seen = BTreeSet::new();
    for e in &events {
        let phase = if e.dur_us.is_some() { "X" } else { "i" };
        let mut keys: Vec<&str> = e.args.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        let row = SHAPES
            .iter()
            .position(|(name, ph, ks)| e.name == *name && phase == *ph && keys == **ks);
        let Some(row) = row else {
            panic!("event not in the table: {} {phase} {keys:?}", e.name);
        };
        assert_eq!(e.cat, "gbo", "category of {}", e.name);
        seen.insert(row);
    }
    for (row, shape) in SHAPES.iter().enumerate() {
        assert!(seen.contains(&row), "never emitted: {shape:?}");
    }
    // Both values of the flags a consumer branches on.
    for queued in [true, false] {
        assert!(saw(&events, "unit_added", "queued", queued.into()));
        assert!(saw(&events, "key_lookup", "hit", queued.into()));
        assert!(saw(&events, "read_unit", "ok", queued.into()));
        assert!(saw(&events, "read_failed", "transient", queued.into()));
    }
    assert!(saw(&events, "read_unit", "worker", (-1i64).into()));
    for cause in ["corrupt", "invalidate"] {
        assert!(saw(&events, "spill_evict", "cause", cause.into()));
    }
    for kind in [
        "unit_added",
        "unit_loaded",
        "unit_finished",
        "unit_spilled",
        "unit_evicted",
        "unit_deleted",
        "spill_dropped",
        "record_committed",
    ] {
        assert!(saw(&events, "wal_append", "kind", kind.into()), "{kind}");
    }
}
