//! Property test for crash recovery (DESIGN.md §5g): replaying **any**
//! byte-prefix of the write-ahead log yields prefix-consistent state.
//!
//! A deterministic inline-mode database runs an arbitrary browsing
//! sequence (visits, finishes, deletes) under a tight memory budget
//! with a spill tier, journaling everything. The log is then cut at an
//! arbitrary byte offset — simulating a torn tail after `kill -9` — and
//! recovery runs against the truncated copy. The invariants:
//!
//! 1. recovery never errors — a torn or corrupt tail truncates, it does
//!    not poison the database;
//! 2. the truncated log scans to an exact record-prefix of the full log
//!    (no phantom records, no lost committed ones before the cut);
//! 3. recovered units are a subset of the units the run ever added —
//!    no phantom units;
//! 4. a unit whose journaled spill frame survives intact on disk
//!    re-materializes **without its read function running** (the warm
//!    restart), and
//! 5. every unit's data reads back byte-identical after recovery, no
//!    matter where the log was cut (readers re-run where frames are
//!    gone — correctness never depends on the cut point).

use godiva::core::wal::{replay, scan_log};
use godiva::core::{DeclaredSize, FieldKind, Gbo, GboConfig, Key, SpillConfig, UnitSession};
use godiva::platform::{RealFs, Storage};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const UNITS: usize = 5;
/// f64 values per unit record — small enough to keep cases fast, large
/// enough that ~2.5 units breach the budget and force spills.
const PAYLOAD: usize = 256;

fn unit_name(i: usize) -> String {
    format!("u{i}")
}

fn payload(i: usize) -> Vec<f64> {
    (0..PAYLOAD).map(|j| (i * 100_000 + j) as f64).collect()
}

fn define_schema(db: &Gbo) {
    db.define_field("idx", FieldKind::I64, DeclaredSize::Known(8))
        .unwrap();
    db.define_field("data", FieldKind::F64, DeclaredSize::Unknown)
        .unwrap();
    db.define_record("blob", 1).unwrap();
    db.insert_field("blob", "idx", true).unwrap();
    db.insert_field("blob", "data", false).unwrap();
    db.commit_record_type("blob").unwrap();
}

/// A read function for unit `i` that counts its invocations.
fn reader(
    i: usize,
    calls: Arc<AtomicUsize>,
) -> impl Fn(&UnitSession) -> godiva::core::Result<()> + Send + Sync + 'static {
    move |s: &UnitSession| {
        calls.fetch_add(1, Ordering::SeqCst);
        let rec = s.new_record("blob")?;
        rec.set_i64("idx", vec![i as i64])?;
        rec.set_f64("data", payload(i))?;
        rec.commit()
    }
}

fn config(root: &Path) -> GboConfig {
    let fs = RealFs::new(root).unwrap();
    GboConfig {
        // ~2.5 units of payload (+ keys): visits evict and spill.
        mem_limit: (PAYLOAD * 8 * 5 / 2) as u64,
        background_io: false,
        spill: Some(SpillConfig {
            storage: Arc::new(fs) as Arc<dyn Storage>,
            dir: "spill".into(),
            budget: 1 << 20,
        }),
        wal_dir: Some(root.join("wal")),
        ..Default::default()
    }
}

fn fresh_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("godiva-prop-wal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    root
}

/// Assert the unit's record reads back with the deterministic payload.
fn assert_data(db: &Gbo, i: usize) {
    let buf = db
        .get_field_buffer("blob", "data", &[Key::from(i as i64)])
        .unwrap();
    assert_eq!(*buf.f64s().unwrap(), payload(i), "unit {i} data differs");
}

/// One browsing op in the generated trace.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `read_unit` + `finish_unit` — makes the unit evictable.
    Visit(usize),
    /// `delete_unit` — drops records and invalidates the frame.
    Delete(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..UNITS).prop_map(Op::Visit),
        1 => (0..UNITS).prop_map(Op::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn any_log_prefix_recovers_consistently(
        ops in prop::collection::vec(op_strategy(), 4..14),
        cut_frac in 0.0f64..1.0,
    ) {
        let case_tag = format!("{:x}", {
            // Deterministic per-input tag so parallel proptest cases
            // never share directories.
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            format!("{ops:?}{cut_frac}").hash(&mut h);
            h.finish()
        });
        let root_a = fresh_root(&format!("a-{case_tag}"));
        let root_b = fresh_root(&format!("b-{case_tag}"));

        // --- the original run -----------------------------------------
        let mut call_counters: Vec<Arc<AtomicUsize>> = Vec::new();
        for _ in 0..UNITS {
            call_counters.push(Arc::new(AtomicUsize::new(0)));
        }
        {
            let db = Gbo::with_config(config(&root_a));
            define_schema(&db);
            for op in &ops {
                match *op {
                    Op::Visit(i) => {
                        db.read_unit(&unit_name(i), reader(i, call_counters[i].clone()))
                            .unwrap();
                        assert_data(&db, i);
                        db.finish_unit(&unit_name(i)).unwrap();
                    }
                    // Deleting a never-visited unit is a NotFound error;
                    // the trace does not care.
                    Op::Delete(i) => {
                        let _ = db.delete_unit(&unit_name(i));
                    }
                }
            }
        }

        // --- cut the log, copy the frames ------------------------------
        let full_log = std::fs::read(root_a.join("wal/wal.log")).unwrap();
        let cut = (full_log.len() as f64 * cut_frac) as usize;
        std::fs::create_dir_all(root_b.join("wal")).unwrap();
        std::fs::write(root_b.join("wal/wal.log"), &full_log[..cut]).unwrap();
        std::fs::create_dir_all(root_b.join("spill")).unwrap();
        if let Ok(entries) = std::fs::read_dir(root_a.join("spill")) {
            for e in entries.flatten() {
                std::fs::copy(e.path(), root_b.join("spill").join(e.file_name())).unwrap();
            }
        }

        // Invariant 2: the truncated log scans to an exact record-prefix
        // of the full log.
        let full_scan = scan_log(&root_a.join("wal/wal.log")).unwrap();
        let cut_scan = scan_log(&root_b.join("wal/wal.log")).unwrap();
        prop_assert!(cut_scan.valid_len <= cut as u64);
        prop_assert!(cut_scan.records.len() <= full_scan.records.len());
        for (a, b) in cut_scan.records.iter().zip(&full_scan.records) {
            prop_assert_eq!(a, b, "truncated log diverges from the full log");
        }

        // Units whose journaled frame survives byte-identical on disk:
        // their read functions must NOT run again after recovery.
        let rep = replay(&cut_scan);
        let mut warm: Vec<usize> = Vec::new();
        for i in 0..UNITS {
            let Some(ru) = rep.units.get(&unit_name(i)) else { continue };
            let Some((len, xxh)) = ru.spilled else { continue };
            let path = root_b.join("spill").join(format!("u{i}.gsp"));
            let Ok(frame) = std::fs::read(&path) else { continue };
            let tail = frame.len() >= 8 && {
                let t = u64::from_le_bytes(frame[frame.len() - 8..].try_into().unwrap());
                frame.len() as u64 == len && t == xxh
            };
            if tail {
                warm.push(i);
            }
        }

        // --- recovery (invariant 1: never errors) ----------------------
        let db = Gbo::open_recovering(config(&root_b)).unwrap();
        define_schema(&db);

        // Invariant 3: no phantom units.
        let known: Vec<String> = (0..UNITS).map(unit_name).collect();
        for name in db.unit_names() {
            prop_assert!(known.contains(&name), "phantom unit '{}' after recovery", name);
        }

        // Invariants 4 + 5: every unit reads back identical data; warm
        // units do it without their read function running.
        for (i, calls) in call_counters.iter().enumerate() {
            let before = calls.load(Ordering::SeqCst);
            db.read_unit(&unit_name(i), reader(i, calls.clone())).unwrap();
            assert_data(&db, i);
            db.finish_unit(&unit_name(i)).unwrap();
            if warm.contains(&i) {
                prop_assert_eq!(
                    calls.load(Ordering::SeqCst), before,
                    "unit {}'s intact frame must restore without re-reading", i
                );
            }
        }
        drop(db);

        let _ = std::fs::remove_dir_all(&root_a);
        let _ = std::fs::remove_dir_all(&root_b);
    }
}
