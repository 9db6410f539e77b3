//! Allocation budget of the per-record operations (DESIGN.md §5e): a
//! key lookup that hits and a read through the handle it returns
//! allocate nothing, a record costs its own storage and no more, and
//! dropping a unit costs a few allocations whatever the number of
//! records in it.
//!
//! The counts come from a `#[global_allocator]` that counts per thread,
//! so the tests of this binary — which `cargo test` runs on parallel
//! threads — do not see each other. Every database here reads inline
//! (`background_io: false`): all the work is on the test's own thread.

use godiva_core::{DeclaredSize, FieldKind, Gbo, GboConfig, Key, UnitSession};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter bump that neither allocates nor unwinds
// (`try_with` instead of `with`: an allocation made while the thread's
// locals are being torn down is simply not counted).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above, with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const RECORDS: i64 = 120;

/// The `gbo-opmix` schema of `godiva-perf`: two pre-allocated `i64` keys
/// and two `f64` fields of unknown size.
fn opmix_db() -> Gbo {
    let db = Gbo::with_config(GboConfig {
        mem_limit: 1 << 30,
        background_io: false,
        ..GboConfig::default()
    });
    db.define_field("unit", FieldKind::I64, DeclaredSize::Known(8))
        .unwrap();
    db.define_field("rec", FieldKind::I64, DeclaredSize::Known(8))
        .unwrap();
    for f in ["a", "b"] {
        db.define_field(f, FieldKind::F64, DeclaredSize::Unknown)
            .unwrap();
    }
    db.define_record("rec", 2).unwrap();
    db.insert_field("rec", "unit", true).unwrap();
    db.insert_field("rec", "rec", true).unwrap();
    for f in ["a", "b"] {
        db.insert_field("rec", f, false).unwrap();
    }
    db.commit_record_type("rec").unwrap();
    db
}

/// Load unit `unit` with `records` records; returns the allocations each
/// record cost, caller's vectors included.
fn load(db: &Gbo, unit: i64, records: i64) -> Vec<u64> {
    let per_record = Arc::new(Mutex::new(Vec::new()));
    let out = Arc::clone(&per_record);
    let name = format!("unit_{unit}");
    db.add_unit(&name, move |s: &UnitSession| {
        let mut counts = Vec::with_capacity(records as usize);
        for rec in 0..records {
            let before = allocs();
            let r = s.new_record("rec")?;
            r.set_i64("unit", vec![unit])?;
            r.set_i64("rec", vec![rec])?;
            r.set_f64("a", vec![1.0; 32])?;
            r.set_f64("b", vec![-1.0; 32])?;
            r.commit()?;
            counts.push(allocs() - before);
        }
        *out.lock().unwrap() = counts;
        Ok(())
    })
    .unwrap();
    db.wait_unit(&name).unwrap();
    let counts = per_record.lock().unwrap().clone();
    counts
}

#[test]
fn a_lookup_hit_allocates_nothing() {
    let db = opmix_db();
    load(&db, 7, RECORDS);
    let mut keys = [Key::from(7i64), Key::from(0i64)];
    let before = allocs();
    for rec in 0..RECORDS {
        keys[1].0.copy_from_slice(&rec.to_le_bytes());
        for field in ["a", "b"] {
            let buf = db.get_field_buffer("rec", field, &keys).unwrap();
            assert_eq!(buf.byte_len(), 256);
        }
    }
    assert_eq!(allocs() - before, 0, "allocations in 240 lookup hits");
}

#[test]
fn reading_a_handle_allocates_nothing() {
    let db = opmix_db();
    load(&db, 7, 1);
    let keys = [Key::from(7i64), Key::from(0i64)];
    let buf = db.get_field_buffer("rec", "a", &keys).unwrap();
    let before = allocs();
    let mut sum = 0.0;
    for _ in 0..1000 {
        sum += std::hint::black_box(&buf).f64s().unwrap()[0];
    }
    assert_eq!(allocs() - before, 0, "allocations in 1000 reads");
    assert_eq!(sum, 1000.0);
}

#[test]
fn a_record_costs_its_own_storage() {
    // Four caller vectors, two pre-allocated key buffers (§3.1) and
    // their two handles, two handles for the `f64` fields, the record's
    // slot table: eleven. The rest of the sixteen is room for what is
    // amortized over many records (table and index growth, the unit's
    // record list). A first unit takes the once-per-database
    // allocations (the table, the index root, the key scratch).
    let db = opmix_db();
    load(&db, 0, 4);
    let counts = load(&db, 1, RECORDS);
    assert_eq!(counts.len(), RECORDS as usize);
    let worst = counts.iter().max().unwrap();
    assert!(
        *worst <= 16,
        "a record cost {worst} allocations: {counts:?}"
    );
}

#[test]
fn deleting_a_unit_does_not_allocate_per_record() {
    // What it does allocate is the `unit_deleted` event for the flight
    // recorder.
    let db = opmix_db();
    load(&db, 1, RECORDS);
    let before = allocs();
    db.delete_unit("unit_1").unwrap();
    let cost = allocs() - before;
    assert_eq!(db.record_count(), 0);
    assert!(
        cost <= 8,
        "delete_unit of {RECORDS} records allocated {cost} times"
    );
}
