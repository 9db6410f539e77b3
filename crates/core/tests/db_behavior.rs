//! Behavioural tests for the GODIVA database: unit lifecycle,
//! prefetching, caching, eviction, memory accounting and deadlock
//! detection — §3.1–§3.3 of the paper.

use godiva_core::{
    DeclaredSize, EvictionPolicy, FieldData, FieldKind, Gbo, GboConfig, GodivaError, Key,
    UnitSession, UnitState,
};
use godiva_obs::{MemorySink, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Define a minimal record type: one string key "id", one F64 payload
/// "data".
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

/// A read function creating one record keyed by the unit name with
/// `n_doubles` doubles of payload, optionally after a delay.
fn unit_reader(
    n_doubles: usize,
    delay: Duration,
) -> impl Fn(&UnitSession) -> Result<(), GodivaError> + Send + Sync {
    move |s: &UnitSession| {
        if delay > Duration::ZERO {
            std::thread::sleep(delay);
        }
        s.define_field("id", FieldKind::Str, DeclaredSize::Known(8))?;
        s.define_field("data", FieldKind::F64, DeclaredSize::Unknown)?;
        s.define_record("rec", 1)?;
        s.insert_field("rec", "id", true)?;
        s.insert_field("rec", "data", false)?;
        s.commit_record_type("rec")?;
        let rec = s.new_record("rec")?;
        let mut id = s.unit().to_string();
        id.truncate(8);
        rec.set_str("id", id)?;
        rec.set_f64("data", vec![1.0; n_doubles])?;
        rec.commit()
    }
}

fn key_of(unit: &str) -> Vec<Key> {
    let mut id = unit.to_string();
    id.truncate(8);
    vec![Key::from(id)]
}

fn small_db(mem: u64, background: bool) -> Gbo {
    Gbo::with_config(GboConfig {
        mem_limit: mem,
        background_io: background,
        eviction: EvictionPolicy::Lru,
        ..Default::default()
    })
}

#[test]
fn batch_lifecycle_with_prefetch() {
    let db = small_db(1 << 20, true);
    for i in 0..4 {
        db.add_unit(&format!("u{i}"), unit_reader(100, Duration::ZERO))
            .unwrap();
    }
    for i in 0..4 {
        let unit = format!("u{i}");
        db.wait_unit(&unit).unwrap();
        let buf = db.get_field_buffer("rec", "data", &key_of(&unit)).unwrap();
        assert_eq!(buf.f64s().unwrap().len(), 100);
        db.delete_unit(&unit).unwrap();
    }
    let s = db.stats();
    assert_eq!(s.units_read, 4);
    assert_eq!(s.background_reads, 4);
    assert_eq!(s.blocking_reads, 0);
    assert_eq!(db.mem_used(), 0, "all units deleted");
}

#[test]
fn single_thread_mode_reads_inside_wait() {
    let db = small_db(1 << 20, false);
    db.add_unit("u0", unit_reader(10, Duration::ZERO)).unwrap();
    // Nothing is prefetched in single-thread mode.
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(db.unit_state("u0"), Some(UnitState::Queued));
    db.wait_unit("u0").unwrap();
    let s = db.stats();
    assert_eq!(s.blocking_reads, 1);
    assert_eq!(s.background_reads, 0);
    assert_eq!(s.units_read, 1);
}

#[test]
fn prefetch_completes_before_wait() {
    let db = small_db(1 << 20, true);
    db.add_unit("u0", unit_reader(10, Duration::ZERO)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while db.unit_state("u0") != Some(UnitState::Ready) {
        assert!(Instant::now() < deadline, "prefetch never completed");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The wait is then a pure cache hit.
    db.wait_unit("u0").unwrap();
    assert_eq!(db.stats().cache_hits, 1);
}

#[test]
fn prefetch_is_fifo() {
    let order = Arc::new(parking_lot::Mutex::new(Vec::<String>::new()));
    let db = small_db(1 << 20, true);
    for i in 0..5 {
        let order2 = Arc::clone(&order);
        db.add_unit(&format!("u{i}"), move |s: &UnitSession| {
            order2.lock().push(s.unit().to_string());
            unit_reader(1, Duration::ZERO)(s)
        })
        .unwrap();
    }
    for i in 0..5 {
        db.wait_unit(&format!("u{i}")).unwrap();
    }
    assert_eq!(
        *order.lock(),
        vec!["u0", "u1", "u2", "u3", "u4"],
        "units must be prefetched in addUnit order"
    );
}

#[test]
fn wait_blocks_until_slow_read_finishes() {
    let db = small_db(1 << 20, true);
    db.add_unit("slow", unit_reader(10, Duration::from_millis(80)))
        .unwrap();
    let t = Instant::now();
    db.wait_unit("slow").unwrap();
    assert!(t.elapsed() >= Duration::from_millis(60));
    assert!(db.stats().wait_time >= Duration::from_millis(60));
}

#[test]
fn finished_units_stay_queryable_until_pressure() {
    let db = small_db(1 << 20, true);
    db.add_unit("u0", unit_reader(10, Duration::ZERO)).unwrap();
    // Let the prefetch win the race so the first wait is a cache hit.
    let deadline = Instant::now() + Duration::from_secs(5);
    while db.unit_state("u0") != Some(UnitState::Ready) {
        assert!(Instant::now() < deadline, "prefetch never completed");
        std::thread::sleep(Duration::from_millis(1));
    }
    db.wait_unit("u0").unwrap();
    db.finish_unit("u0").unwrap();
    assert_eq!(db.unit_state("u0"), Some(UnitState::Finished));
    // Interactive revisit: still a cache hit.
    db.wait_unit("u0").unwrap();
    assert_eq!(db.stats().cache_hits, 2);
    assert!(db.get_field_buffer("rec", "data", &key_of("u0")).is_ok());
}

#[test]
fn lru_eviction_under_pressure() {
    // Each unit: 8 bytes id + 800 bytes data = 808. Budget fits ~2.
    let db = small_db(2000, true);
    for i in 0..4 {
        db.add_unit(&format!("u{i}"), unit_reader(100, Duration::ZERO))
            .unwrap();
    }
    for i in 0..4 {
        let unit = format!("u{i}");
        db.wait_unit(&unit).unwrap();
        db.finish_unit(&unit).unwrap();
    }
    let s = db.stats();
    assert!(s.evictions >= 2, "evictions: {}", s.evictions);
    assert!(db.mem_used() <= 2000, "budget respected: {}", db.mem_used());
    // The last-finished unit should still be resident; the first should
    // have been evicted (LRU).
    assert_eq!(db.unit_state("u0"), Some(UnitState::Registered));
    assert!(db.get_field_buffer("rec", "data", &key_of("u0")).is_err());
    assert!(db.get_field_buffer("rec", "data", &key_of("u3")).is_ok());
}

#[test]
fn fifo_eviction_policy_differs_from_lru() {
    // Load u0..u2 (finished), then *touch* u0 so LRU would evict u1 but
    // FIFO still evicts u0.
    let run = |policy: EvictionPolicy| -> Vec<bool> {
        let db = Gbo::with_config(GboConfig {
            mem_limit: 2600, // fits three 808-byte units
            background_io: false,
            eviction: policy,
            ..Default::default()
        });
        for i in 0..3 {
            db.add_unit(&format!("u{i}"), unit_reader(100, Duration::ZERO))
                .unwrap();
        }
        for i in 0..3 {
            let u = format!("u{i}");
            db.wait_unit(&u).unwrap();
            db.finish_unit(&u).unwrap();
        }
        // Touch u0 via a query.
        let _ = db.get_field_buffer("rec", "data", &key_of("u0")).unwrap();
        // Load one more unit to force one eviction.
        db.add_unit("u3", unit_reader(100, Duration::ZERO)).unwrap();
        db.wait_unit("u3").unwrap();
        (0..3)
            .map(|i| db.unit_state(&format!("u{i}")) == Some(UnitState::Registered))
            .collect()
    };
    let lru = run(EvictionPolicy::Lru);
    let fifo = run(EvictionPolicy::Fifo);
    assert_eq!(lru, vec![false, true, false], "LRU evicts the untouched u1");
    assert_eq!(fifo, vec![true, false, false], "FIFO evicts the oldest u0");
}

#[test]
fn pinned_units_never_evicted() {
    let db = small_db(2000, false);
    db.add_unit("pinned", unit_reader(100, Duration::ZERO))
        .unwrap();
    db.wait_unit("pinned").unwrap(); // pinned, never finished
    for i in 0..3 {
        let u = format!("u{i}");
        db.add_unit(&u, unit_reader(100, Duration::ZERO)).unwrap();
        db.wait_unit(&u).unwrap();
        db.finish_unit(&u).unwrap();
    }
    assert_eq!(db.unit_state("pinned"), Some(UnitState::Ready));
    assert!(db
        .get_field_buffer("rec", "data", &key_of("pinned"))
        .is_ok());
}

#[test]
fn refcount_two_waits_need_two_finishes() {
    let db = small_db(1 << 20, true);
    db.add_unit("u", unit_reader(10, Duration::ZERO)).unwrap();
    db.wait_unit("u").unwrap();
    db.wait_unit("u").unwrap();
    db.finish_unit("u").unwrap();
    assert_eq!(db.unit_state("u"), Some(UnitState::Ready), "still pinned");
    db.finish_unit("u").unwrap();
    assert_eq!(db.unit_state("u"), Some(UnitState::Finished));
}

/// A stray `finish_unit` on a unit nobody holds must not journal or
/// report a second `Ready → Finished` transition.
#[test]
fn finishing_a_finished_unit_reports_nothing() {
    let dir = std::env::temp_dir().join(format!("godiva-finish-twice-{}", std::process::id()));
    let sink = Arc::new(MemorySink::new());
    let db = Gbo::with_config(GboConfig {
        background_io: false,
        tracer: Tracer::new(sink.clone()),
        wal_dir: Some(dir.clone()),
        ..Default::default()
    });
    define_schema(&db);
    db.add_unit("u0", unit_reader(10, Duration::ZERO)).unwrap();
    db.wait_unit("u0").unwrap();
    db.finish_unit("u0").unwrap();
    let finished = || {
        let events = sink.snapshot();
        events.iter().filter(|e| e.name == "unit_finished").count()
    };
    let appends = db.stats().wal_appends;
    assert_eq!(finished(), 1);
    db.finish_unit("u0").unwrap();
    assert_eq!(db.stats().wal_appends, appends, "journaled twice");
    assert_eq!(finished(), 1, "reported twice");
    assert_eq!(db.unit_state("u0"), Some(UnitState::Finished));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delete_unit_frees_memory_and_index() {
    let db = small_db(1 << 20, true);
    db.add_unit("u", unit_reader(1000, Duration::ZERO)).unwrap();
    db.wait_unit("u").unwrap();
    assert!(db.mem_used() > 8000);
    db.delete_unit("u").unwrap();
    assert_eq!(db.mem_used(), 0);
    assert!(matches!(
        db.get_field_buffer("rec", "data", &key_of("u")),
        Err(GodivaError::NotFound(_))
    ));
    // The unit may be re-added afterwards.
    db.add_unit("u", unit_reader(10, Duration::ZERO)).unwrap();
    db.wait_unit("u").unwrap();
}

#[test]
fn deadlock_detected_when_nothing_evictable() {
    // Budget fits one unit; never finish the first; waiting for the
    // second must report a deadlock instead of hanging (§3.3).
    let db = small_db(1200, true);
    db.add_unit("u0", unit_reader(100, Duration::ZERO)).unwrap();
    db.wait_unit("u0").unwrap(); // pinned forever (the developer "forgot")
    db.add_unit("u1", unit_reader(100, Duration::ZERO)).unwrap();
    let err = db.wait_unit("u1").unwrap_err();
    assert!(
        matches!(err, GodivaError::Deadlock { .. }),
        "expected deadlock, got: {err}"
    );
    assert_eq!(db.stats().deadlocks_detected, 1);
    // Releasing the first unit resolves the situation.
    db.finish_unit("u0").unwrap();
    db.wait_unit("u1").unwrap();
}

#[test]
fn unit_larger_than_budget_proceeds_over_budget() {
    let db = small_db(100, true);
    db.add_unit("big", unit_reader(10_000, Duration::ZERO))
        .unwrap();
    db.wait_unit("big").unwrap();
    assert!(db.mem_used() > 100);
    assert!(db.stats().over_budget_allocs > 0);
}

#[test]
fn inline_out_of_memory_is_an_error() {
    let db = small_db(1200, false);
    db.add_unit("u0", unit_reader(100, Duration::ZERO)).unwrap();
    db.wait_unit("u0").unwrap(); // pinned
    db.add_unit("u1", unit_reader(100, Duration::ZERO)).unwrap();
    let err = db.wait_unit("u1").unwrap_err();
    assert!(
        matches!(err, GodivaError::ReadFailed { .. }),
        "inline read fails with OOM inside: {err}"
    );
}

#[test]
fn set_mem_space_unblocks_prefetching() {
    let db = small_db(900, true);
    db.add_unit("u0", unit_reader(100, Duration::ZERO)).unwrap();
    db.add_unit("u1", unit_reader(100, Duration::ZERO)).unwrap();
    db.wait_unit("u0").unwrap(); // ~808 bytes used, pinned; u1 cannot load
    std::thread::sleep(Duration::from_millis(30));
    assert_ne!(db.unit_state("u1"), Some(UnitState::Ready));
    db.set_mem_space(1 << 20);
    db.wait_unit("u1").unwrap();
}

#[test]
fn failed_reader_reports_and_recovers() {
    let db = small_db(1 << 20, true);
    db.add_unit("bad", |_s: &UnitSession| {
        Err(GodivaError::UnitError("synthetic failure".into()))
    })
    .unwrap();
    let err = db.wait_unit("bad").unwrap_err();
    assert!(matches!(err, GodivaError::ReadFailed { .. }));
    assert!(matches!(db.unit_state("bad"), Some(UnitState::Failed(_))));
    assert_eq!(db.stats().units_failed, 1);
    // delete_unit resets it; a good reader can then be added.
    db.delete_unit("bad").unwrap();
    db.add_unit("bad", unit_reader(1, Duration::ZERO)).unwrap();
    db.wait_unit("bad").unwrap();
}

#[test]
fn read_unit_blocking_and_cache_hit_on_revisit() {
    let db = small_db(1 << 20, true);
    db.read_unit("file1", unit_reader(10, Duration::ZERO))
        .unwrap();
    assert_eq!(db.stats().blocking_reads, 1);
    // Second explicit read: data still resident → cache hit, no re-read.
    db.read_unit("file1", unit_reader(10, Duration::ZERO))
        .unwrap();
    let s = db.stats();
    assert_eq!(s.blocking_reads, 1);
    assert_eq!(s.cache_hits, 1);
}

#[test]
fn revisit_after_eviction_rereads() {
    let db = small_db(1000, false);
    db.read_unit("a", unit_reader(100, Duration::ZERO)).unwrap();
    db.finish_unit("a").unwrap();
    db.read_unit("b", unit_reader(100, Duration::ZERO)).unwrap();
    db.finish_unit("b").unwrap();
    // "a" was evicted to make room for "b".
    assert_eq!(db.unit_state("a"), Some(UnitState::Registered));
    // wait_unit on a Registered unit with a known reader re-reads it.
    db.wait_unit("a").unwrap();
    assert!(db.get_field_buffer("rec", "data", &key_of("a")).is_ok());
    assert_eq!(db.stats().blocking_reads, 3);
}

#[test]
fn duplicate_keys_rejected() {
    let db = small_db(1 << 20, true);
    define_schema(&db);
    let r1 = db.new_record("rec").unwrap();
    r1.set_str("id", "same").unwrap();
    r1.commit().unwrap();
    let r2 = db.new_record("rec").unwrap();
    r2.set_str("id", "same").unwrap();
    assert!(matches!(r2.commit(), Err(GodivaError::DuplicateKey(_))));
}

#[test]
fn commit_is_idempotent_and_key_fields_freeze() {
    let db = small_db(1 << 20, true);
    define_schema(&db);
    let r = db.new_record("rec").unwrap();
    r.set_str("id", "k1").unwrap();
    r.set_f64("data", vec![1.0]).unwrap();
    r.commit().unwrap();
    r.commit().unwrap();
    // Key field now frozen (divergence from C++, documented).
    assert!(r.set_str("id", "k2").is_err());
    // Non-key fields stay writable.
    r.set_f64("data", vec![2.0, 3.0]).unwrap();
    let buf = db
        .get_field_buffer("rec", "data", &[Key::from("k1")])
        .unwrap();
    assert_eq!(buf.f64s().unwrap(), &[2.0, 3.0]);
}

#[test]
fn uncommitted_records_not_queryable() {
    let db = small_db(1 << 20, true);
    define_schema(&db);
    let r = db.new_record("rec").unwrap();
    r.set_str("id", "ghost").unwrap();
    assert!(db
        .get_field_buffer("rec", "id", &[Key::from("ghost")])
        .is_err());
    let s = db.stats();
    assert_eq!(s.query_misses, 1);
}

#[test]
fn get_field_buffer_size_matches() {
    let db = small_db(1 << 20, true);
    define_schema(&db);
    let r = db.new_record("rec").unwrap();
    r.set_str("id", "k").unwrap();
    r.set_f64("data", vec![0.0; 101]).unwrap();
    r.commit().unwrap();
    assert_eq!(
        db.get_field_buffer_size("rec", "data", &[Key::from("k")])
            .unwrap(),
        808
    );
    assert_eq!(
        db.get_field_buffer_size("rec", "id", &[Key::from("k")])
            .unwrap(),
        1
    );
}

#[test]
fn unknown_type_vs_missing_key() {
    let db = small_db(1 << 20, true);
    define_schema(&db);
    assert!(matches!(
        db.get_field_buffer("nope", "data", &[Key::from("k")]),
        Err(GodivaError::UnknownType(_))
    ));
    assert!(matches!(
        db.get_field_buffer("rec", "data", &[Key::from("k")]),
        Err(GodivaError::NotFound(_))
    ));
}

#[test]
fn alloc_field_then_update() {
    let db = small_db(1 << 20, true);
    define_schema(&db);
    let r = db.new_record("rec").unwrap();
    r.set_str("id", "k").unwrap();
    let buf = r.alloc_field("data", 80).unwrap();
    assert_eq!(buf.f64s().unwrap().len(), 10);
    let before = db.mem_used();
    r.update_field("data", |d| {
        if let FieldData::F64(v) = d {
            v.push(99.0); // grow by one element
        }
    })
    .unwrap();
    assert_eq!(db.mem_used(), before + 8, "growth re-accounted");
    r.commit().unwrap();
    let got = db
        .get_field_buffer("rec", "data", &[Key::from("k")])
        .unwrap();
    assert_eq!(got.f64s().unwrap()[10], 99.0);
}

#[test]
fn update_field_goes_through_the_same_checks_and_budget_as_set() {
    let db = small_db(10_000, false);
    db.read_unit("a", unit_reader(750, Duration::ZERO)).unwrap();
    db.finish_unit("a").unwrap();
    let r = db.new_record("rec").unwrap();
    r.set_str("id", "k").unwrap();
    r.set_f64("data", vec![1.0; 250]).unwrap();
    let grow = |d: &mut FieldData| {
        if let FieldData::F64(v) = d {
            v.resize(750, 2.0);
        }
    };

    // Growth is charged like a `set_*`: the finished unit makes room.
    let held = r.field("data").unwrap();
    r.update_field("data", grow).unwrap();
    assert!(db.mem_used() <= db.mem_limit(), "{} bytes", db.mem_used());
    assert_eq!(db.stats().evictions, 1);
    assert_eq!(db.unit_state("a"), Some(UnitState::Registered));

    // An old handle keeps what it had; a new one sees the change.
    assert_eq!(held.f64s().unwrap(), &[1.0; 250]);
    let fresh = r.field("data").unwrap();
    assert_eq!(fresh.f64s().unwrap().len(), 750);
    assert_eq!(fresh.f64s().unwrap()[749], 2.0);

    // The declared size and kind still bind.
    let too_long = r.update_field("id", |d| *d = FieldData::Str("x".repeat(12)));
    assert!(matches!(too_long, Err(GodivaError::TypeMismatch(_))));
    let wrong_kind = r.update_field("data", |d| *d = FieldData::I32(vec![1]));
    assert!(matches!(wrong_kind, Err(GodivaError::TypeMismatch(_))));
    assert_eq!(r.field("id").unwrap().as_str().unwrap(), "k");

    // Key fields of a committed record stay as committed.
    r.commit().unwrap();
    assert!(r
        .update_field("id", |d| *d = FieldData::Str("k2".into()))
        .is_err());
    let found = db.get_field_buffer("rec", "id", &[Key::from("k")]).unwrap();
    assert_eq!(found.as_str().unwrap(), "k");
    assert!(db
        .get_field_buffer("rec", "id", &[Key::from("k2")])
        .is_err());
}

#[test]
fn a_replaced_field_is_never_seen_torn() {
    // A unit-less record whose field one thread keeps replacing, and two
    // neighbour units that take turns in what is left of the budget —
    // one and a half times their size, so loading one evicts the other
    // while the replacing goes on.
    const N: usize = 512;
    const ROUNDS: usize = 2_000;
    let db = small_db(1 << 20, false);
    define_schema(&db);
    let r = db.new_record("rec").unwrap();
    r.set_str("id", "w").unwrap();
    r.set_f64("data", vec![1.0; N]).unwrap();
    r.commit().unwrap();
    let record_bytes = db.mem_used();
    let neighbour_bytes = (N * 8 + 2) as u64;
    db.set_mem_space(record_bytes + neighbour_bytes * 3 / 2);
    let uniform = |v: &[f64]| v.len() == N && v.iter().all(|&x| x == v[0]);

    let written = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let held = db.get_field_buffer("rec", "data", &key_of("w")).unwrap();
            let first = held.f64s().unwrap()[0];
            let mut latest = first;
            for i in 0..ROUNDS {
                let name = format!("n{}", i % 2);
                db.read_unit(&name, unit_reader(N, Duration::ZERO)).unwrap();
                db.finish_unit(&name).unwrap();
                let now = db.get_field_buffer("rec", "data", &key_of("w")).unwrap();
                let seen = now.f64s().unwrap();
                assert!(uniform(seen), "torn read in round {i}");
                assert!(seen[0] >= latest, "a later lookup saw an earlier value");
                latest = seen[0];
                let old = held.f64s().unwrap();
                assert!(uniform(old) && old[0] == first, "a held handle changed");
            }
        });
        // Replace for as long as the reader runs, so the two overlap.
        let mut k = 1.0;
        while !reader.is_finished() {
            k += 1.0;
            r.set_f64("data", vec![k; N]).unwrap();
            assert!(uniform(r.field("data").unwrap().f64s().unwrap()));
        }
        k
    });

    assert!(db.stats().evictions >= ROUNDS as u64 - 1);
    let resident = ["n0", "n1"]
        .iter()
        .filter(|n| db.unit_state(n).is_some_and(|s| s.is_loaded()))
        .count() as u64;
    assert_eq!(db.mem_used(), record_bytes + resident * neighbour_bytes);
    assert!(db.mem_used() <= db.mem_limit());
    assert!(written > 1.0, "the writer never ran beside the reader");
    assert_eq!(r.field("data").unwrap().f64s().unwrap()[0], written);
}

#[test]
fn declared_known_size_prealloc_and_enforcement() {
    let db = small_db(1 << 20, true);
    define_schema(&db);
    let r = db.new_record("rec").unwrap();
    // "id" was declared Known(8): pre-allocated at creation.
    assert_eq!(r.field("id").unwrap().byte_len(), 8);
    // Setting more than the declared size fails.
    assert!(r.set_str("id", "waaaaay too long").is_err());
    // "data" was UNKNOWN: not allocated yet.
    assert!(matches!(
        r.field("data"),
        Err(GodivaError::Unallocated { .. })
    ));
}

#[test]
fn type_mismatch_on_set() {
    let db = small_db(1 << 20, true);
    define_schema(&db);
    let r = db.new_record("rec").unwrap();
    assert!(matches!(
        r.set_i32("data", vec![1, 2]),
        Err(GodivaError::TypeMismatch(_))
    ));
    assert!(matches!(
        r.set_f64("missing", vec![1.0]),
        Err(GodivaError::UnknownField { .. })
    ));
}

#[test]
fn delete_while_reading_rejected() {
    let db = small_db(1 << 20, true);
    db.add_unit("slow", unit_reader(10, Duration::from_millis(200)))
        .unwrap();
    // Give the I/O thread time to start the read.
    let deadline = Instant::now() + Duration::from_secs(5);
    while db.unit_state("slow") != Some(UnitState::Reading) {
        assert!(Instant::now() < deadline);
        std::thread::yield_now();
    }
    assert!(matches!(
        db.delete_unit("slow"),
        Err(GodivaError::UnitError(_))
    ));
    db.wait_unit("slow").unwrap();
    db.delete_unit("slow").unwrap();
}

#[test]
fn double_add_rejected_while_active() {
    let db = small_db(1 << 20, true);
    db.add_unit("u", unit_reader(10, Duration::ZERO)).unwrap();
    assert!(db.add_unit("u", unit_reader(10, Duration::ZERO)).is_err());
    db.wait_unit("u").unwrap();
    assert!(db.add_unit("u", unit_reader(10, Duration::ZERO)).is_err());
    db.delete_unit("u").unwrap();
    // After delete (back to Registered) re-adding is fine.
    db.add_unit("u", unit_reader(10, Duration::ZERO)).unwrap();
    db.wait_unit("u").unwrap();
}

#[test]
fn foreground_records_exempt_from_eviction() {
    let db = small_db(900, false);
    define_schema(&db);
    let r = db.new_record("rec").unwrap();
    r.set_str("id", "meta").unwrap();
    r.set_f64("data", vec![7.0; 50]).unwrap();
    r.commit().unwrap();
    // Load and finish units to create eviction pressure.
    for i in 0..3 {
        let u = format!("u{i}");
        db.add_unit(&u, unit_reader(50, Duration::ZERO)).unwrap();
        db.wait_unit(&u).unwrap();
        db.finish_unit(&u).unwrap();
    }
    // The foreground record is still there.
    let buf = db
        .get_field_buffer("rec", "data", &[Key::from("meta")])
        .unwrap();
    assert_eq!(buf.f64s().unwrap()[0], 7.0);
}

#[test]
fn stats_wait_time_only_counts_blocking() {
    let db = small_db(1 << 20, true);
    db.add_unit("u", unit_reader(10, Duration::ZERO)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while db.unit_state("u") != Some(UnitState::Ready) {
        assert!(Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(1));
    }
    db.wait_unit("u").unwrap();
    assert!(
        db.stats().wait_time < Duration::from_millis(20),
        "cache hit should not accumulate wait time: {:?}",
        db.stats().wait_time
    );
}

#[test]
fn many_units_many_threads_waiting() {
    // Several application threads waiting on different units at once.
    let db = Arc::new(small_db(16 << 20, true));
    let n = 16;
    for i in 0..n {
        db.add_unit(&format!("u{i}"), unit_reader(100, Duration::from_millis(1)))
            .unwrap();
    }
    let counter = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for i in 0..n {
        let db2 = Arc::clone(&db);
        let c2 = Arc::clone(&counter);
        handles.push(std::thread::spawn(move || {
            let unit = format!("u{i}");
            db2.wait_unit(&unit).unwrap();
            let buf = db2.get_field_buffer("rec", "data", &key_of(&unit)).unwrap();
            assert_eq!(buf.f64s().unwrap().len(), 100);
            db2.finish_unit(&unit).unwrap();
            c2.fetch_add(1, Ordering::Relaxed);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(counter.load(Ordering::Relaxed), n);
    assert_eq!(db.stats().units_read, n);
}

#[test]
fn drop_with_pending_queue_shuts_down_cleanly() {
    let db = small_db(1 << 20, true);
    for i in 0..50 {
        db.add_unit(&format!("u{i}"), unit_reader(10, Duration::from_millis(5)))
            .unwrap();
    }
    drop(db); // must not hang or panic
}

#[test]
fn unit_guard_unpins_on_drop() {
    let db = small_db(1 << 20, true);
    db.add_unit("g", unit_reader(10, Duration::ZERO)).unwrap();
    {
        let guard = db.wait_unit_guard("g").unwrap();
        assert_eq!(guard.name(), "g");
        assert_eq!(db.unit_state("g"), Some(UnitState::Ready));
    }
    assert_eq!(
        db.unit_state("g"),
        Some(UnitState::Finished),
        "drop must release the pin"
    );
}

#[test]
fn unit_guard_makes_deadlock_unrepresentable() {
    // The deadlock scenario from §3.3, but with guards: the pin is
    // released before the next wait, so no deadlock can form.
    let db = small_db(1200, true);
    db.add_unit("u0", unit_reader(100, Duration::ZERO)).unwrap();
    db.add_unit("u1", unit_reader(100, Duration::ZERO)).unwrap();
    {
        let _g0 = db.wait_unit_guard("u0").unwrap();
        // process u0 …
    } // released here
    let g1 = db.wait_unit_guard("u1").unwrap();
    g1.finish();
    assert_eq!(db.stats().deadlocks_detected, 0);
}

#[test]
fn nested_guards_stack() {
    let db = small_db(1 << 20, true);
    db.add_unit("n", unit_reader(10, Duration::ZERO)).unwrap();
    let g1 = db.wait_unit_guard("n").unwrap();
    let g2 = db.wait_unit_guard("n").unwrap();
    drop(g1);
    assert_eq!(
        db.unit_state("n"),
        Some(UnitState::Ready),
        "still pinned by g2"
    );
    drop(g2);
    assert_eq!(db.unit_state("n"), Some(UnitState::Finished));
}

#[test]
fn introspection_lists_units_records_types() {
    let db = small_db(1 << 20, false);
    assert!(db.unit_names().is_empty());
    assert_eq!(db.record_count(), 0);
    db.add_unit("b", unit_reader(5, Duration::ZERO)).unwrap();
    db.add_unit("a", unit_reader(5, Duration::ZERO)).unwrap();
    db.wait_unit("a").unwrap();
    db.wait_unit("b").unwrap();
    assert_eq!(db.unit_names(), vec!["a".to_string(), "b".into()]);
    assert_eq!(db.record_count(), 2);
    assert_eq!(db.record_type_names(), vec!["rec".to_string()]);
}
