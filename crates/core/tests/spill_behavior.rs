//! Behavioural tests for the second-tier spill cache (DESIGN.md §5f)
//! and the eviction-lifecycle fixes that ride along with it.

use godiva_core::wal::{replay, scan_log, WAL_FILE};
use godiva_core::{
    DeclaredSize, FieldKind, Gbo, GboConfig, GodivaError, Key, RestoreInfo, SpillConfig,
    UnitSession, UnitState,
};
use godiva_platform::{MemFs, RealFs, Storage};
use std::path::{Path, PathBuf};
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

// ---------------------------------------------------------------------------
// recovery order and snapshots (DESIGN.md §5g)
// ---------------------------------------------------------------------------

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("godiva-spill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    root
}

/// A second storage holding what `fs` holds now.
fn clone_of(fs: &MemFs) -> Arc<MemFs> {
    let copy = MemFs::new();
    for path in fs.list("") {
        copy.write(&path, &fs.read(&path).unwrap()).unwrap();
    }
    Arc::new(copy)
}

fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dst = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &dst);
        } else {
            std::fs::copy(entry.path(), dst).unwrap();
        }
    }
}

fn flip_byte(path: &Path, at: impl Fn(usize) -> usize) {
    let mut bytes = std::fs::read(path).unwrap();
    let at = at(bytes.len());
    bytes[at] ^= 0x40;
    std::fs::write(path, bytes).unwrap();
}

/// Regression: `open_recovering` adopted frames in `HashMap` order, so
/// which frame the first budget eviction after a restart deleted was
/// random per process, and it checked each frame — not their sum —
/// against the budget.
#[test]
fn recovery_adopts_in_journal_order_within_the_budget() {
    let root = temp_root("adopt-order");
    let config = |fs: &Arc<MemFs>, wal: &Path, budget: u64| GboConfig {
        mem_limit: 12 << 10, // one ~8 KB unit at a time
        background_io: false,
        spill: Some(SpillConfig {
            storage: Arc::clone(fs) as Arc<dyn Storage>,
            dir: "spill".into(),
            budget,
        }),
        wal_dir: Some(wal.to_path_buf()),
        ..Default::default()
    };
    let calls = Arc::new(AtomicU64::new(0));
    let load = |db: &Gbo, unit: &str| {
        db.add_unit(unit, counting_reader(1000, Arc::clone(&calls)))
            .unwrap();
        load_and_finish(db, unit);
    };

    // The crashed run journals spills of a, b, c — in that order.
    let fs = Arc::new(MemFs::new());
    {
        let db = Gbo::with_config(config(&fs, &root.join("wal"), 1 << 20));
        for unit in ["unit_a", "unit_b", "unit_c", "unit_d"] {
            load(&db, unit);
        }
    }
    let frame = |unit: &str| format!("spill/{unit}.gsp");
    assert_eq!(
        fs.list("spill/"),
        [frame("unit_a"), frame("unit_b"), frame("unit_c")]
    );
    let frame_len = fs.len(&frame("unit_a")).unwrap();
    let restart = |round: &str, budget: u64| {
        let wal = root.join(round);
        copy_tree(&root.join("wal"), &wal);
        let fs = clone_of(&fs);
        let db = Gbo::open_recovering(config(&fs, &wal, budget)).unwrap();
        (db, fs)
    };

    // A tier that holds exactly the three frames: spilling a fourth must
    // drop the oldest — `a`, every time.
    for round in 0..20 {
        let (db, fs) = restart(&format!("wal-{round}"), 3 * frame_len);
        assert_eq!(db.stats().spill_bytes, 3 * frame_len);
        load(&db, "unit_d");
        load(&db, "unit_e"); // evicts and spills d
        assert_eq!(
            fs.list("spill/"),
            [frame("unit_b"), frame("unit_c"), frame("unit_d")],
            "round {round}"
        );
    }

    // The budget shrank to two frames between the runs: the newest two
    // are kept, the oldest is not (nor is its file left behind).
    let (db, fs) = restart("wal-shrunk", 2 * frame_len);
    assert_eq!(db.stats().spill_bytes, 2 * frame_len);
    assert_eq!(fs.list("spill/"), [frame("unit_b"), frame("unit_c")]);
    let before = calls.load(Ordering::SeqCst);
    load(&db, "unit_a"); // defines the schema, too
    load(&db, "unit_c");
    assert_eq!(calls.load(Ordering::SeqCst), before + 1, "only a re-reads");
    assert_eq!(db.stats().spill_hits, 1);

    let _ = std::fs::remove_dir_all(&root);
}

/// The snapshot path end to end: a snapshot directory is a database
/// `open_recovering` opens as it stands, and `restore_snapshot` seeds a
/// run elsewhere from it; both start warm.
#[test]
fn a_snapshot_opens_directly_and_restores_elsewhere() {
    let root = temp_root("snapshot");
    // WAL and spill tier side by side under one directory, as in a
    // snapshot; 2.5 units of memory.
    let config = |dir: &Path| GboConfig {
        mem_limit: 20 << 10,
        background_io: false,
        spill: Some(SpillConfig {
            storage: Arc::new(RealFs::new(dir).unwrap()) as Arc<dyn Storage>,
            dir: "spill".into(),
            budget: 1 << 20,
        }),
        wal_dir: Some(dir.to_path_buf()),
        ..Default::default()
    };
    let units = ["unit_a", "unit_b", "unit_c", "unit_d", "unit_e"];
    let spilled = &units[..3]; // d and e are still in memory at the end
    let snap = root.join("snap");
    let (info, expected) = {
        let db = Gbo::with_config(config(&root.join("live")));
        let calls = Arc::new(AtomicU64::new(0));
        for unit in units {
            db.add_unit(unit, counting_reader(1000, Arc::clone(&calls)))
                .unwrap();
        }
        let expected: Vec<Vec<f64>> = units.iter().map(|u| load_and_finish(&db, u)).collect();
        (db.snapshot(&snap).unwrap(), expected)
    };

    // The info describes what the directory holds.
    let tree = |dir: &Path| {
        let fs = RealFs::new(dir).unwrap();
        let files = fs.list("");
        let bytes: Vec<Vec<u8>> = files.iter().map(|f| fs.read(f).unwrap()).collect();
        (files, bytes)
    };
    let (files, bytes) = tree(&snap);
    let frame = |unit: &str| format!("spill/{unit}.gsp");
    assert_eq!(
        files,
        [
            frame("unit_a"),
            frame("unit_b"),
            frame("unit_c"),
            WAL_FILE.to_string()
        ]
    );
    assert_eq!((info.units, info.frames), (5, 3));
    assert_eq!(
        info.bytes,
        bytes[..3].iter().map(|b| b.len() as u64).sum::<u64>()
    );
    assert!(info.lsn > 0);
    let scan = scan_log(&snap.join(WAL_FILE)).unwrap();
    assert!(!scan.truncated);
    assert_eq!(scan.valid_len, bytes[3].len() as u64);
    let rep = replay(&scan);
    assert_eq!(rep.units.len(), 5);
    assert!(rep.units.values().all(|u| u.loaded));
    for unit in units {
        assert_eq!(rep.units[unit].spilled.is_some(), spilled.contains(&unit));
    }

    // Revisit the spilled units of a recovered database: per-unit callback
    // counts, and the run's stats.
    let revisit = |config: GboConfig| {
        let db = Gbo::open_recovering(config).unwrap();
        // No callback may run, so the schema is declared up front.
        db.define_field("id", FieldKind::Str, DeclaredSize::Known(8))
            .unwrap();
        db.define_field("data", FieldKind::F64, DeclaredSize::Unknown)
            .unwrap();
        db.define_record("rec", 1).unwrap();
        db.insert_field("rec", "id", true).unwrap();
        db.insert_field("rec", "data", false).unwrap();
        db.commit_record_type("rec").unwrap();
        assert_eq!(db.unit_names(), units);
        let mut calls = Vec::new();
        for (unit, expected) in spilled.iter().zip(&expected) {
            let count = Arc::new(AtomicU64::new(0));
            db.add_unit(unit, counting_reader(1000, Arc::clone(&count)))
                .unwrap();
            assert_eq!(&load_and_finish(&db, unit), expected, "{unit}");
            calls.push(count.load(Ordering::SeqCst));
        }
        (calls, db.stats())
    };

    // Way 1: open a copy of the snapshot directory as it stands.
    copy_tree(&snap, &root.join("opened"));
    let (calls, stats) = revisit(config(&root.join("opened")));
    assert_eq!(calls, [0, 0, 0]);
    assert_eq!((stats.spill_hits, stats.spill_corrupt), (3, 0));
    assert!(stats.wal_replayed > 0);

    // Way 2: seed a fresh run from it; the snapshot stays as it was.
    let fresh = config(&root.join("fresh"));
    let restored = Gbo::restore_snapshot(&snap, &fresh).unwrap();
    assert_eq!(
        restored,
        RestoreInfo {
            units: 5,
            frames: 3
        }
    );
    assert_eq!(tree(&snap), (files, bytes));
    assert_eq!(tree(&root.join("fresh")), tree(&snap));
    let (calls, stats) = revisit(fresh);
    assert_eq!(calls, [0, 0, 0]);
    assert_eq!((stats.spill_hits, stats.spill_corrupt), (3, 0));

    // One flipped byte in the snapshot's log: nothing is restored.
    copy_tree(&snap, &root.join("bad-log"));
    flip_byte(&root.join("bad-log").join(WAL_FILE), |len| len / 2);
    let refused = Gbo::restore_snapshot(root.join("bad-log"), &config(&root.join("unused")));
    let err = refused.expect_err("a corrupt snapshot log must not restore");
    assert!(err.to_string().contains("snapshot log"), "{err}");
    assert!(!root.join("unused").join(WAL_FILE).exists());

    // One flipped byte in one frame: that unit, and only it, goes back
    // to its callback — whichever way the snapshot is used.
    copy_tree(&snap, &root.join("bad-frame"));
    flip_byte(&root.join("bad-frame").join(frame("unit_b")), |len| len / 2);
    let refreshed = config(&root.join("fresh-bad-frame"));
    Gbo::restore_snapshot(root.join("bad-frame"), &refreshed).unwrap();
    for config in [config(&root.join("bad-frame")), refreshed] {
        let (calls, stats) = revisit(config);
        assert_eq!(calls, [0, 1, 0]);
        assert_eq!(stats.spill_hits, 2);
    }

    let _ = std::fs::remove_dir_all(&root);
}
