//! Property tests: unit lifecycle, memory accounting and eviction under
//! randomized workloads — the §3.2/§3.3 machinery must keep its
//! invariants for any interleaving of adds, waits, finishes and deletes.

use godiva::core::{
    DeclaredSize, EvictionPolicy, FieldKind, Gbo, GboConfig, Key, UnitSession, UnitState,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// One step of a randomized single-threaded driver program.
#[derive(Debug, Clone)]
enum Op {
    Add(u8),
    Wait(u8),
    Finish(u8),
    Delete(u8),
    Query(u8),
    SetMem(u32),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..8).prop_map(Op::Add),
        (0u8..8).prop_map(Op::Wait),
        (0u8..8).prop_map(Op::Finish),
        (0u8..8).prop_map(Op::Delete),
        (0u8..8).prop_map(Op::Query),
        (2_000u32..200_000).prop_map(Op::SetMem),
    ]
}

fn reader(bytes: usize) -> impl Fn(&UnitSession) -> godiva::core::Result<()> + Send + Sync {
    move |s: &UnitSession| {
        s.define_field("id", FieldKind::Str, DeclaredSize::Unknown)?;
        s.define_field("payload", FieldKind::F64, DeclaredSize::Unknown)?;
        s.define_record("rec", 1)?;
        s.insert_field("rec", "id", true)?;
        s.insert_field("rec", "payload", false)?;
        s.commit_record_type("rec")?;
        let r = s.new_record("rec")?;
        r.set_str("id", s.unit())?;
        r.set_f64("payload", vec![1.0; bytes / 8])?;
        r.commit()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn unit_state_machine_never_wedges(
        ops in prop::collection::vec(op(), 1..60),
        policy in prop_oneof![Just(EvictionPolicy::Lru), Just(EvictionPolicy::Fifo)],
        unit_kb in 1usize..8,
    ) {
        // Single-threaded mode: every transition is deterministic and
        // synchronous, so we can model pins exactly.
        let db = Gbo::with_config(GboConfig {
            mem_limit: 20_000,
            background_io: false,
            eviction: policy,
            ..Default::default()
        });
        let bytes = unit_kb * 1024;
        let mut pins: HashMap<u8, usize> = HashMap::new();
        for op in &ops {
            match op {
                Op::Add(u) => {
                    let r = db.add_unit(&format!("u{u}"), reader(bytes));
                    // Double-add of an active unit is an error; add of a
                    // new/registered unit succeeds.
                    let _ = r;
                }
                Op::Wait(u) => {
                    let name = format!("u{u}");
                    match db.wait_unit(&name) {
                        Ok(()) => {
                            *pins.entry(*u).or_default() += 1;
                            prop_assert_eq!(db.unit_state(&name), Some(UnitState::Ready));
                        }
                        Err(e) => {
                            // Only legitimate failures: unknown unit, or
                            // nothing evictable for an oversized load.
                            let msg = e.to_string();
                            prop_assert!(
                                msg.contains("unknown unit") || msg.contains("out of memory") || msg.contains("read function"),
                                "unexpected wait failure: {msg}"
                            );
                        }
                    }
                }
                Op::Finish(u) => {
                    let name = format!("u{u}");
                    match db.finish_unit(&name) {
                        Ok(()) => {
                            let p = pins.entry(*u).or_default();
                            *p = p.saturating_sub(1);
                            if *p == 0 {
                                prop_assert_eq!(db.unit_state(&name), Some(UnitState::Finished));
                            }
                        }
                        Err(_) => {
                            // not loaded / unknown — fine.
                        }
                    }
                }
                Op::Delete(u) => {
                    if db.delete_unit(&format!("u{u}")).is_ok() {
                        pins.insert(*u, 0);
                    }
                }
                Op::Query(u) => {
                    let name = format!("u{u}");
                    let loaded = db
                        .unit_state(&name)
                        .map(|s| s.is_loaded())
                        .unwrap_or(false);
                    let hit = db
                        .get_field_buffer("rec", "payload", &[Key::from(name.as_str())])
                        .is_ok();
                    // Loaded units are always queryable; unloaded never.
                    if db.unit_state(&name).is_some() {
                        prop_assert_eq!(hit, loaded, "query vs state mismatch for {}", name);
                    }
                }
                Op::SetMem(m) => db.set_mem_space(*m as u64),
            }
            // Global invariant: pinned units are never evicted.
            for (u, &p) in &pins {
                if p > 0 {
                    prop_assert_eq!(
                        db.unit_state(&format!("u{u}")),
                        Some(UnitState::Ready),
                        "pinned unit u{} lost its data", u
                    );
                }
            }
        }
    }

    #[test]
    fn eviction_respects_budget_when_possible(
        n_units in 2usize..10,
        unit_kb in 1usize..6,
        budget_units in 1usize..4,
    ) {
        let bytes = unit_kb * 1024 + 16; // payload + key
        let db = Gbo::with_config(GboConfig {
            mem_limit: (bytes * budget_units) as u64,
            background_io: false,
            eviction: EvictionPolicy::Lru,
            ..Default::default()
        });
        for u in 0..n_units {
            let name = format!("u{u}");
            db.add_unit(&name, reader(unit_kb * 1024)).unwrap();
            db.wait_unit(&name).unwrap();
            db.finish_unit(&name).unwrap();
            prop_assert!(
                db.mem_used() <= db.mem_limit(),
                "{} used of {} after loading {} finished units",
                db.mem_used(), db.mem_limit(), u + 1
            );
        }
        // The most recently finished unit must still be resident.
        let last = format!("u{}", n_units - 1);
        prop_assert_eq!(db.unit_state(&last), Some(UnitState::Finished));
    }

    #[test]
    fn multi_worker_interleavings_keep_invariants(
        workers in 1usize..5,
        n_units in 2usize..10,
        unit_kb in 1usize..5,
        budget_units in 3usize..5,
    ) {
        // N reader workers prefetch concurrently while two application
        // threads wait/finish their halves of the unit list. Whatever
        // the interleaving, worker allocations must respect the budget
        // and no unit may be read twice.
        let bytes = unit_kb * 1024 + 64; // payload + key + slack
        let registry = std::sync::Arc::new(godiva::obs::MetricsRegistry::new());
        let db = Gbo::with_config(GboConfig {
            mem_limit: (bytes * budget_units) as u64,
            background_io: true,
            io_threads: workers,
            eviction: EvictionPolicy::Lru,
            metrics: Some(registry.clone()),
            ..Default::default()
        });
        for u in 0..n_units {
            db.add_unit(&format!("u{u}"), reader(unit_kb * 1024)).unwrap();
        }
        // With several workers, read-ahead units that are Ready but not
        // yet finished can legitimately fill the whole budget while an
        // earlier unit's worker is still blocked — the detector then
        // reports a (real) deadlock to the waiter. The property
        // tolerates that rare schedule; everything else must hold.
        let deadlocked = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for half in 0..2usize {
                let db = &db;
                let deadlocked = &deadlocked;
                s.spawn(move || {
                    for u in (half..n_units).step_by(2) {
                        let name = format!("u{u}");
                        match db.wait_unit(&name) {
                            Ok(()) => db.finish_unit(&name).unwrap(),
                            Err(godiva::core::GodivaError::Deadlock { .. }) => {
                                deadlocked.store(true, std::sync::atomic::Ordering::Relaxed);
                                return;
                            }
                            Err(e) => panic!("unexpected wait failure for {name}: {e}"),
                        }
                    }
                });
            }
        });
        // The exported gauge must agree with the queue, whatever mix of
        // worker pops and failed/deadlocked waits drained it. After a
        // deadlocked wait returned early the workers may still be
        // popping, so the two are compared once nothing moved between
        // two consecutive reads of the pair (the queue only shrinks
        // here, and the gauge is set under the lock `queue_len` takes).
        let read = || (registry.gauge("gbo.queue_depth").get(), db.queue_len() as u64);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut pair = read();
        loop {
            let again = read();
            if again == pair {
                break;
            }
            pair = again;
            prop_assert!(std::time::Instant::now() < deadline, "the queue never settled");
            std::thread::yield_now();
        }
        prop_assert_eq!(pair.0, pair.1, "queue gauge out of sync with the queue");
        let stats = db.stats();
        // Worker allocations block instead of over-running the budget.
        prop_assert!(
            stats.mem_peak <= db.mem_limit(),
            "peak {} exceeded budget {} with {} workers",
            stats.mem_peak, db.mem_limit(), workers
        );
        prop_assert_eq!(stats.over_budget_allocs, 0);
        if !deadlocked.load(std::sync::atomic::Ordering::Relaxed) {
            prop_assert_eq!(
                stats.units_read, n_units as u64,
                "every unit read exactly once (no double reads)"
            );
            prop_assert_eq!(stats.units_failed, 0);
            prop_assert!(db.mem_used() <= db.mem_limit());
            for u in 0..n_units {
                let name = format!("u{u}");
                let st = db.unit_state(&name).unwrap();
                prop_assert!(
                    matches!(st, UnitState::Finished | UnitState::Registered),
                    "unit {} ended in {:?}", name, st
                );
            }
        }
    }

    #[test]
    fn delete_always_returns_memory(
        loads in prop::collection::vec(1usize..8, 1..12),
    ) {
        let db = Gbo::with_config(GboConfig {
            mem_limit: 1 << 30,
            background_io: false,
            ..Default::default()
        });
        for (i, kb) in loads.iter().enumerate() {
            let name = format!("u{i}");
            db.add_unit(&name, reader(kb * 1024)).unwrap();
            db.wait_unit(&name).unwrap();
            db.delete_unit(&name).unwrap();
        }
        prop_assert_eq!(db.mem_used(), 0, "all deleted, nothing may remain charged");
    }
}
