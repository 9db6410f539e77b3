//! Behavioural tests for the second-tier spill cache (DESIGN.md §5f)
//! and the eviction-lifecycle fixes that ride along with it.

use godiva_core::{
    DeclaredSize, FieldKind, Gbo, GboConfig, GodivaError, Key, SpillConfig, UnitSession, UnitState,
};
use godiva_platform::{MemFs, Storage};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A read function creating one record keyed by the unit name with
/// `n_doubles` doubles, counting its own invocations.
fn counting_reader(
    n_doubles: usize,
    calls: Arc<AtomicU64>,
) -> impl Fn(&UnitSession) -> Result<(), GodivaError> + Send + Sync {
    move |s: &UnitSession| {
        calls.fetch_add(1, Ordering::SeqCst);
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
        let base = s.unit().len() as f64;
        rec.set_f64("data", (0..n_doubles).map(|i| base + i as f64).collect())?;
        rec.commit()
    }
}

fn key_of(unit: &str) -> Vec<Key> {
    let mut id = unit.to_string();
    id.truncate(8);
    vec![Key::from(id)]
}

fn spilling_db(mem: u64, spill_budget: u64, fs: &Arc<MemFs>) -> Gbo {
    Gbo::with_config(GboConfig {
        mem_limit: mem,
        background_io: false,
        spill: Some(SpillConfig {
            storage: Arc::clone(fs) as Arc<dyn Storage>,
            dir: "spill".to_string(),
            budget: spill_budget,
        }),
        ..Default::default()
    })
}

/// Load a unit inline, read it, finish it. Returns the payload.
fn load_and_finish(db: &Gbo, unit: &str) -> Vec<f64> {
    db.wait_unit(unit).unwrap();
    let buf = db.get_field_buffer("rec", "data", &key_of(unit)).unwrap();
    let data = buf.f64s().unwrap().to_vec();
    db.finish_unit(unit).unwrap();
    data
}

#[test]
fn revisit_after_eviction_hits_spill_with_identical_data() {
    let fs = Arc::new(MemFs::new());
    // Budget fits one ~8 KB unit at a time, so loading "b" evicts "a".
    let db = spilling_db(12 << 10, 1 << 20, &fs);
    let calls = Arc::new(AtomicU64::new(0));
    db.add_unit("unit_a", counting_reader(1000, Arc::clone(&calls)))
        .unwrap();
    db.add_unit("unit_b", counting_reader(1000, Arc::clone(&calls)))
        .unwrap();

    let first = load_and_finish(&db, "unit_a");
    load_and_finish(&db, "unit_b");
    assert_eq!(db.unit_state("unit_a"), Some(UnitState::Registered));
    assert!(
        !fs.list("spill/").is_empty(),
        "eviction should have written a spill file"
    );

    // Revisit: re-materialized from the spill, not from the callback.
    let again = load_and_finish(&db, "unit_a");
    assert_eq!(first, again);
    assert_eq!(
        calls.load(Ordering::SeqCst),
        2,
        "revisit must not re-run the developer callback"
    );
    let s = db.stats();
    assert_eq!(s.spill_hits, 1, "stats: {s}");
    assert!(s.spill_writes >= 1);
    assert_eq!(s.spill_corrupt, 0);
    assert!(s.spill_bytes > 0);
}

#[test]
fn spill_miss_falls_back_to_callback() {
    let fs = Arc::new(MemFs::new());
    // Spill budget of 0: nothing is ever kept, every revisit re-reads.
    let db = spilling_db(12 << 10, 0, &fs);
    let calls = Arc::new(AtomicU64::new(0));
    db.add_unit("unit_a", counting_reader(1000, Arc::clone(&calls)))
        .unwrap();
    db.add_unit("unit_b", counting_reader(1000, Arc::clone(&calls)))
        .unwrap();
    load_and_finish(&db, "unit_a");
    load_and_finish(&db, "unit_b");
    load_and_finish(&db, "unit_a");
    assert_eq!(calls.load(Ordering::SeqCst), 3);
    let s = db.stats();
    assert_eq!(s.spill_hits, 0);
    assert_eq!(s.spill_writes, 0);
    assert_eq!(s.spill_misses, 1);
}

#[test]
fn spill_budget_evicts_lru_files() {
    let fs = Arc::new(MemFs::new());
    // Memory holds one unit; the spill tier holds roughly one ~8 KB
    // frame, so spilling a second unit evicts the first's file.
    let db = spilling_db(12 << 10, 9 << 10, &fs);
    let calls = Arc::new(AtomicU64::new(0));
    for unit in ["unit_a", "unit_b", "unit_c"] {
        db.add_unit(unit, counting_reader(1000, Arc::clone(&calls)))
            .unwrap();
    }
    load_and_finish(&db, "unit_a");
    load_and_finish(&db, "unit_b"); // evicts a → spills a
    load_and_finish(&db, "unit_c"); // evicts b → spills b, drops a's file
    assert_eq!(
        fs.list("spill/").len(),
        1,
        "spill budget should keep only the newest frame"
    );
    // Revisiting "a" misses (its file was budget-evicted)…
    load_and_finish(&db, "unit_a");
    // …but revisiting "b" — wait: loading "a" evicted "c" and spilled
    // it, dropping "b"'s file. Assert against the stats instead of
    // guessing which file survived.
    let s = db.stats();
    assert!(s.spill_misses >= 1, "stats: {s}");
    assert!(s.spill_bytes <= 9 << 10);
    assert_eq!(calls.load(Ordering::SeqCst), 4);
}

#[test]
fn delete_unit_invalidates_spill_frame() {
    let fs = Arc::new(MemFs::new());
    let db = spilling_db(12 << 10, 1 << 20, &fs);
    let calls = Arc::new(AtomicU64::new(0));
    db.add_unit("unit_a", counting_reader(1000, Arc::clone(&calls)))
        .unwrap();
    db.add_unit("unit_b", counting_reader(1000, Arc::clone(&calls)))
        .unwrap();
    load_and_finish(&db, "unit_a");
    load_and_finish(&db, "unit_b"); // evicts + spills a
    assert_eq!(fs.list("spill/").len(), 1);
    db.delete_unit("unit_a").unwrap();
    assert!(
        fs.list("spill/").is_empty(),
        "deleteUnit must drop the spilled copy"
    );
    // Re-reading after delete goes back to the callback.
    load_and_finish(&db, "unit_a");
    assert_eq!(calls.load(Ordering::SeqCst), 3);
    assert_eq!(db.stats().spill_hits, 0);
}

/// Regression: a finished unit whose records hold zero bytes used to be
/// un-evictable (`evictable()` required `bytes > 0`), pinning a
/// unit-table slot and an LRU entry forever.
#[test]
fn zero_byte_finished_units_are_reclaimable() {
    let db = Gbo::with_config(GboConfig {
        mem_limit: 12 << 10,
        background_io: false,
        ..Default::default()
    });
    let calls = Arc::new(AtomicU64::new(0));
    // A unit that creates no records at all: zero bytes charged.
    db.add_unit("empty", |_s: &UnitSession| Ok(())).unwrap();
    db.wait_unit("empty").unwrap();
    db.finish_unit("empty").unwrap();
    assert_eq!(db.unit_state("empty"), Some(UnitState::Finished));

    // Memory pressure from real units must be able to reclaim it.
    db.add_unit("unit_a", counting_reader(1000, Arc::clone(&calls)))
        .unwrap();
    db.add_unit("unit_b", counting_reader(1000, Arc::clone(&calls)))
        .unwrap();
    load_and_finish(&db, "unit_a");
    load_and_finish(&db, "unit_b");
    assert_eq!(
        db.unit_state("empty"),
        Some(UnitState::Registered),
        "zero-byte finished unit was never evicted"
    );
}

#[test]
fn spilled_strings_and_keys_roundtrip() {
    // Multiple field kinds, including the key snapshot, survive the
    // spill encode/decode cycle and stay queryable by key.
    let fs = Arc::new(MemFs::new());
    let db = spilling_db(12 << 10, 1 << 20, &fs);
    let calls = Arc::new(AtomicU64::new(0));
    db.add_unit("unit_a", counting_reader(1000, Arc::clone(&calls)))
        .unwrap();
    db.add_unit("unit_b", counting_reader(1000, Arc::clone(&calls)))
        .unwrap();
    load_and_finish(&db, "unit_a");
    load_and_finish(&db, "unit_b"); // evicts + spills a
    db.wait_unit("unit_a").unwrap(); // spill hit
    let id = db.get_field_buffer("rec", "id", &key_of("unit_a")).unwrap();
    assert_eq!(id.as_str().unwrap(), "unit_a");
    db.finish_unit("unit_a").unwrap();
    assert_eq!(db.stats().spill_hits, 1);
}
