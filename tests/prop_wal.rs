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
//!
//! A second property damages the log and one spill frame at an
//! **arbitrary offset** — a flipped, inserted or deleted byte, not only
//! a truncation — and requires the same: the scan is an exact prefix of
//! the undamaged one, recovery neither errors nor panics, every unit
//! reads back identical, and the damaged frame is a counted
//! `spill_corrupt` or a plain miss, never wrong data.

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

/// A per-input tag so parallel proptest cases never share directories.
fn case_tag(input: &str) -> String {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    input.hash(&mut h);
    format!("{:x}", h.finish())
}

/// Run `ops` on a fresh journaled database under `root`; returns each
/// unit's read-function call counter.
fn original_run(root: &Path, ops: &[Op]) -> Vec<Arc<AtomicUsize>> {
    let call_counters: Vec<Arc<AtomicUsize>> = (0..UNITS).map(|_| Arc::default()).collect();
    let db = Gbo::with_config(config(root));
    define_schema(&db);
    for op in ops {
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
    call_counters
}

/// Copy every spill frame of the run under `from` to `to`.
fn copy_frames(from: &Path, to: &Path) {
    std::fs::create_dir_all(to.join("spill")).unwrap();
    if let Ok(entries) = std::fs::read_dir(from.join("spill")) {
        for e in entries.flatten() {
            std::fs::copy(e.path(), to.join("spill").join(e.file_name())).unwrap();
        }
    }
}

/// One byte of damage at a position given as a fraction of the file.
#[derive(Debug, Clone, Copy)]
struct Damage {
    kind: DamageKind,
    at: f64,
    /// The mask to flip with, or the byte to insert.
    byte: u8,
}

#[derive(Debug, Clone, Copy)]
enum DamageKind {
    Flip,
    Insert,
    Delete,
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    let kind = prop_oneof![
        Just(DamageKind::Flip),
        Just(DamageKind::Insert),
        Just(DamageKind::Delete),
    ];
    (kind, 0.0f64..1.0, 1u8..=255).prop_map(|(kind, at, byte)| Damage { kind, at, byte })
}

impl Damage {
    /// Apply to `bytes`; the result always differs, unless there was
    /// nothing to damage.
    fn apply(self, bytes: &mut Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        let at = ((bytes.len() as f64 * self.at) as usize).min(bytes.len() - 1);
        match self.kind {
            DamageKind::Flip => bytes[at] ^= self.byte,
            DamageKind::Insert => bytes.insert(at, self.byte),
            DamageKind::Delete => drop(bytes.remove(at)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn any_log_prefix_recovers_consistently(
        ops in prop::collection::vec(op_strategy(), 4..14),
        cut_frac in 0.0f64..1.0,
    ) {
        let case_tag = case_tag(&format!("{ops:?}{cut_frac}"));
        let root_a = fresh_root(&format!("a-{case_tag}"));
        let root_b = fresh_root(&format!("b-{case_tag}"));

        // --- the original run -----------------------------------------
        let call_counters = original_run(&root_a, &ops);

        // --- cut the log, copy the frames ------------------------------
        let full_log = std::fs::read(root_a.join("wal/wal.log")).unwrap();
        let cut = (full_log.len() as f64 * cut_frac) as usize;
        std::fs::create_dir_all(root_b.join("wal")).unwrap();
        std::fs::write(root_b.join("wal/wal.log"), &full_log[..cut]).unwrap();
        copy_frames(&root_a, &root_b);

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

    #[test]
    fn any_byte_damage_recovers_consistently(
        ops in prop::collection::vec(op_strategy(), 4..14),
        log_damage in damage_strategy(),
        frame_damage in damage_strategy(),
        frame_pick in 0usize..UNITS,
    ) {
        let case_tag = case_tag(&format!("{ops:?}{log_damage:?}{frame_damage:?}{frame_pick}"));
        let root_a = fresh_root(&format!("da-{case_tag}"));
        let root_b = fresh_root(&format!("db-{case_tag}"));
        let call_counters = original_run(&root_a, &ops);

        // --- damage the log and one surviving frame --------------------
        let mut log = std::fs::read(root_a.join("wal/wal.log")).unwrap();
        log_damage.apply(&mut log);
        std::fs::create_dir_all(root_b.join("wal")).unwrap();
        std::fs::write(root_b.join("wal/wal.log"), &log).unwrap();
        copy_frames(&root_a, &root_b);
        let survivors: Vec<usize> = (0..UNITS)
            .filter(|i| root_b.join(format!("spill/u{i}.gsp")).exists())
            .collect();
        let damaged = survivors.get(frame_pick % survivors.len().max(1)).copied();
        let mut frame = Vec::new();
        if let Some(i) = damaged {
            let path = root_b.join(format!("spill/u{i}.gsp"));
            frame = std::fs::read(&path).unwrap();
            frame_damage.apply(&mut frame);
            std::fs::write(&path, &frame).unwrap();
        }

        // The damaged log scans to an exact record-prefix of the intact
        // one: never a phantom or an altered record.
        let full_scan = scan_log(&root_a.join("wal/wal.log")).unwrap();
        let scan = scan_log(&root_b.join("wal/wal.log")).unwrap();
        prop_assert!(scan.records.len() <= full_scan.records.len());
        for (a, b) in scan.records.iter().zip(&full_scan.records) {
            prop_assert_eq!(a, b, "damaged log diverges from the intact log");
        }

        // A damaged frame the recovered journal still vouches for (same
        // length, same trailer: the damage is inside the body) is adopted
        // and must then fail its checksum, once.
        let rep = replay(&scan);
        let vouched = damaged.is_some_and(|i| {
            let journaled = rep.units.get(&unit_name(i)).and_then(|u| u.spilled);
            let tail = frame.last_chunk().map(|t| u64::from_le_bytes(*t));
            journaled.is_some() && journaled == tail.map(|t| (frame.len() as u64, t))
        });

        // --- recovery: no error, no panic, no wrong data ---------------
        let db = Gbo::open_recovering(config(&root_b)).unwrap();
        define_schema(&db);
        for (i, calls) in call_counters.iter().enumerate() {
            let before = calls.load(Ordering::SeqCst);
            db.read_unit(&unit_name(i), reader(i, calls.clone())).unwrap();
            assert_data(&db, i);
            db.finish_unit(&unit_name(i)).unwrap();
            if damaged == Some(i) {
                prop_assert_eq!(
                    calls.load(Ordering::SeqCst), before + 1,
                    "unit {}'s damaged frame must not serve the revisit", i
                );
            }
        }
        prop_assert_eq!(db.stats().spill_corrupt, vouched as u64);
        drop(db);

        let _ = std::fs::remove_dir_all(&root_a);
        let _ = std::fs::remove_dir_all(&root_b);
    }
}
