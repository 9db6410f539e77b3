//! Property tests: the GODIVA key index behaves exactly like a model
//! `BTreeMap` over arbitrary schemas, key tuples and field contents.

use godiva::core::{
    DeclaredSize, FieldData, FieldKind, Gbo, GboConfig, GodivaError, Key, RecordHandle,
    SpillConfig, UnitSession,
};
use godiva::platform::{MemFs, Storage};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The kind of one key field: text or one of the binary kinds.
fn key_kind() -> impl Strategy<Value = FieldKind> {
    prop_oneof![
        Just(FieldKind::Str),
        Just(FieldKind::Bytes),
        Just(FieldKind::I64),
        Just(FieldKind::F64),
    ]
}

fn key_string() -> impl Strategy<Value = String> {
    // Includes empty strings, unicode, and embedded separators — the
    // index must not confuse ("ab", "c") with ("a", "bc").
    prop_oneof![
        Just(String::new()),
        "[a-z]{1,8}",
        "[\\PC]{0,4}",
        Just("a|b".to_string()),
    ]
}

fn key_bytes() -> impl Strategy<Value = Vec<u8>> {
    // Bytes that look like the index's own framing: empty parts, a
    // little-endian length followed by that many bytes, runs of 0x00
    // and 0xFF.
    prop_oneof![
        Just(Vec::new()),
        prop::collection::vec(any::<u8>(), 0..12),
        prop::collection::vec(prop_oneof![Just(0u8), Just(1), Just(4), Just(0xFF)], 0..10),
        Just(vec![1, 0, 0, 0, b'a']),
        Just(vec![0, 0, 0, 0]),
        Just(vec![0xFF; 4]),
    ]
}

/// One candidate value per key kind; the schema picks which is used.
#[derive(Debug, Clone)]
struct KeyValue(String, Vec<u8>, i64, u64);

fn key_value() -> impl Strategy<Value = KeyValue> {
    let small = prop_oneof![
        any::<i64>(),
        -2i64..3,
        Just(i64::MIN),
        Just(0x0400_0000_0004)
    ];
    (key_string(), key_bytes(), small, any::<u64>()).prop_map(|(s, b, i, f)| KeyValue(s, b, i, f))
}

/// The lookup keys a caller passes for `values` under key kinds `kinds`.
fn keys_of(kinds: &[FieldKind], values: &[KeyValue]) -> Vec<Key> {
    let key = |(kind, v): (&FieldKind, &KeyValue)| match kind {
        FieldKind::Str => Key::from(v.0.as_str()),
        FieldKind::Bytes => Key::bytes(v.1.clone()),
        FieldKind::I64 => Key::from(v.2),
        _ => Key::bytes(v.3.to_le_bytes()),
    };
    kinds.iter().zip(values).map(key).collect()
}

/// Fill the key fields (`rec.k0..`, of `kinds`) and the payload of a
/// `rec` record.
fn fill(
    rec: &RecordHandle,
    kinds: &[FieldKind],
    values: &[KeyValue],
    payload: Vec<f64>,
) -> godiva::core::Result<()> {
    for (k, (kind, v)) in kinds.iter().zip(values).enumerate() {
        let field = format!("rec.k{k}");
        match kind {
            FieldKind::Str => rec.set_str(&field, v.0.clone()),
            FieldKind::Bytes => rec.set_bytes(&field, v.1.clone()),
            FieldKind::I64 => rec.set_i64(&field, vec![v.2]),
            _ => rec.set_f64(&field, vec![f64::from_bits(v.3)]),
        }?;
    }
    rec.set_f64("payload", payload)
}

/// Inside a unit read: create, fill and commit a `rec` record.
fn commit_keyed(
    s: &UnitSession,
    kinds: &[FieldKind],
    values: &[KeyValue],
    payload: Vec<f64>,
) -> godiva::core::Result<RecordHandle> {
    let rec = s.new_record("rec")?;
    fill(&rec, kinds, values, payload)?;
    rec.commit().map(|()| rec)
}

fn config() -> GboConfig {
    GboConfig {
        mem_limit: 1 << 30,
        background_io: false,
        ..Default::default()
    }
}

/// Declare record type `name`: key fields `<name>.k0..` of `kinds`, then
/// an `F64` payload.
fn define(db: &Gbo, name: &str, kinds: &[FieldKind]) {
    for (k, kind) in kinds.iter().enumerate() {
        db.define_field(&format!("{name}.k{k}"), *kind, DeclaredSize::Unknown)
            .unwrap();
    }
    db.define_field("payload", FieldKind::F64, DeclaredSize::Unknown)
        .unwrap();
    db.define_record(name, kinds.len()).unwrap();
    for k in 0..kinds.len() {
        db.insert_field(name, &format!("{name}.k{k}"), true)
            .unwrap();
    }
    db.insert_field(name, "payload", false).unwrap();
    db.commit_record_type(name).unwrap();
}

/// A database with record type `rec` keyed by `n_keys` `Str` fields
/// `rec.k0..`.
fn fresh_db(n_keys: usize) -> Gbo {
    let db = Gbo::with_config(config());
    define(&db, "rec", &vec![FieldKind::Str; n_keys]);
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn index_matches_model(
        kinds in prop::collection::vec(key_kind(), 1..4),
        records in prop::collection::vec(
            (prop::collection::vec(key_value(), 3), prop::collection::vec(-1e9f64..1e9, 0..8)),
            0..24,
        ),
    ) {
        let db = Gbo::with_config(config());
        define(&db, "rec", &kinds);
        let mut model: BTreeMap<Vec<Key>, Vec<f64>> = BTreeMap::new();
        for (values, payload) in &records {
            let keys = keys_of(&kinds, values);
            let rec = db.new_record("rec").unwrap();
            fill(&rec, &kinds, values, payload.clone()).unwrap();
            match rec.commit() {
                Ok(()) => {
                    // Commit must succeed exactly when the key is fresh.
                    prop_assert!(!model.contains_key(&keys), "duplicate accepted: {keys:?}");
                    model.insert(keys, payload.clone());
                }
                Err(GodivaError::DuplicateKey(_)) => {
                    prop_assert!(model.contains_key(&keys), "fresh key rejected: {keys:?}");
                }
                Err(e) => prop_assert!(false, "unexpected error: {e}"),
            }
        }
        // Every model entry is queryable and returns the right payload.
        for (keys, payload) in &model {
            let buf = db.get_field_buffer("rec", "payload", keys).unwrap();
            prop_assert_eq!(buf.f64s().unwrap(), payload.as_slice());
            let size = db.get_field_buffer_size("rec", "payload", keys).unwrap();
            prop_assert_eq!(size, (payload.len() * 8) as u64);
        }
        let stats = db.stats();
        prop_assert_eq!(stats.records_committed as usize, model.len());
    }

    #[test]
    fn record_types_of_different_arity_never_share_a_key(a in key_bytes(), b in key_bytes()) {
        // "one" is keyed by a single `Bytes` field, "two" by a pair. The
        // pair (a, b) and every way of flattening it into one value —
        // including the index's own length-prefixed form — are different
        // keys of different types.
        let db = Gbo::with_config(config());
        define(&db, "one", &[FieldKind::Bytes]);
        define(&db, "two", &[FieldKind::Bytes, FieldKind::Bytes]);
        let framed = |parts: &[&[u8]]| -> Vec<u8> {
            parts.iter().flat_map(|p| [&(p.len() as u32).to_le_bytes()[..], p].concat()).collect()
        };
        let mut flat = vec![[&a[..], &b[..]].concat(), framed(&[&a, &b]), framed(&[&framed(&[&a, &b])])];
        flat.sort();
        flat.dedup();
        let pair = db.new_record("two").unwrap();
        pair.set_bytes("two.k0", a.clone()).unwrap();
        pair.set_bytes("two.k1", b.clone()).unwrap();
        pair.set_f64("payload", vec![-1.0]).unwrap();
        pair.commit().unwrap();
        for (i, value) in flat.iter().enumerate() {
            let rec = db.new_record("one").unwrap();
            rec.set_bytes("one.k0", value.clone()).unwrap();
            rec.set_f64("payload", vec![i as f64]).unwrap();
            rec.commit().unwrap();
        }
        let first = |record_type: &str, keys: &[Key]| {
            db.get_field_buffer(record_type, "payload", keys).map(|buf| buf.f64s().unwrap()[0])
        };
        let pair_key = [Key::bytes(a.clone()), Key::bytes(b.clone())];
        prop_assert_eq!(first("two", &pair_key).unwrap(), -1.0);
        prop_assert!(matches!(first("one", &pair_key), Err(GodivaError::NotFound(_))));
        for (i, value) in flat.iter().enumerate() {
            let key = [Key::bytes(value.clone())];
            prop_assert_eq!(first("one", &key).unwrap(), i as f64);
            prop_assert!(matches!(first("two", &key), Err(GodivaError::NotFound(_))));
        }
    }

    #[test]
    fn a_deleted_units_keys_can_be_committed_again(
        kinds in prop::collection::vec(key_kind(), 1..3),
        values in prop::collection::vec(key_value(), 2),
    ) {
        let db = Gbo::with_config(config());
        define(&db, "rec", &kinds);
        let keys = keys_of(&kinds, &values);
        let get = || db.get_field_buffer("rec", "payload", &keys).map(|buf| buf.f64s().unwrap()[0]);
        let (k, v) = (kinds.clone(), values.clone());
        db.read_unit("u", move |s: &UnitSession| {
            let first = commit_keyed(s, &k, &v, vec![1.0])?;
            // A second record with the same key is refused, and the
            // error names the record that holds it.
            match commit_keyed(s, &k, &v, vec![2.0]) {
                Err(GodivaError::DuplicateKey(msg)) => {
                    assert!(msg.ends_with(&format!("record #{}", first.id())), "{msg}");
                }
                other => panic!("duplicate accepted: {:?}", other.map(|r| r.id())),
            }
            Ok(())
        }).unwrap();
        prop_assert_eq!(get().unwrap(), 1.0);
        db.delete_unit("u").unwrap();
        prop_assert!(matches!(get(), Err(GodivaError::NotFound(_))));
        let (k, v) = (kinds.clone(), values.clone());
        db.read_unit("u", move |s: &UnitSession| commit_keyed(s, &k, &v, vec![3.0]).map(|_| ()))
            .unwrap();
        prop_assert_eq!(get().unwrap(), 3.0);
    }

    #[test]
    fn keys_survive_a_spill_restore_and_a_wal_replay(
        kinds in prop::collection::vec(key_kind(), 1..3),
        records in prop::collection::vec(
            (prop::collection::vec(key_value(), 2), prop::collection::vec(-1e9f64..1e9, 1..8)),
            1..6,
        ),
    ) {
        // One unit holds `records` (duplicates dropped); a second unit
        // pushes it out to the spill tier; a revisit restores it from
        // its frame; then a new database recovers from the WAL and
        // adopts the frame. The read function runs once in all.
        let mut model: BTreeMap<Vec<Key>, &Vec<f64>> = BTreeMap::new();
        for (values, payload) in &records {
            model.entry(keys_of(&kinds, values)).or_insert(payload);
        }
        let wal_dir = std::env::temp_dir().join(format!(
            "godiva-prop-index-{}-{:x}",
            std::process::id(),
            {
                use std::hash::{Hash, Hasher};
                let mut h = std::collections::hash_map::DefaultHasher::new();
                format!("{kinds:?}{records:?}").hash(&mut h);
                h.finish()
            }
        ));
        let _ = std::fs::remove_dir_all(&wal_dir);
        let storage: Arc<dyn Storage> = Arc::new(MemFs::new());
        let open = |recover: bool| {
            let config = GboConfig {
                mem_limit: 4096,
                spill: Some(SpillConfig { storage: storage.clone(), dir: "spill".into(), budget: 1 << 20 }),
                wal_dir: Some(wal_dir.clone()),
                ..config()
            };
            let db = if recover { Gbo::open_recovering(config).unwrap() } else { Gbo::with_config(config) };
            define(&db, "rec", &kinds);
            define(&db, "filler", &[FieldKind::I64]);
            db
        };
        let reads = Arc::new(AtomicUsize::new(0));
        let reader = {
            let (kinds, records, reads) = (kinds.clone(), records.clone(), reads.clone());
            move |s: &UnitSession| {
                reads.fetch_add(1, Ordering::SeqCst);
                for (values, payload) in &records {
                    match commit_keyed(s, &kinds, values, payload.clone()) {
                        Ok(_) | Err(GodivaError::DuplicateKey(_)) => {}
                        Err(e) => return Err(e),
                    }
                }
                Ok(())
            }
        };
        let filler = |s: &UnitSession| {
            let rec = s.new_record("filler")?;
            rec.set_i64("filler.k0", vec![0])?;
            rec.set_f64("payload", vec![0.0; 511])?;
            rec.commit()
        };
        let check = |db: &Gbo| {
            for (keys, payload) in &model {
                let buf = db.get_field_buffer("rec", "payload", keys).unwrap();
                assert_eq!(buf.f64s().unwrap(), payload.as_slice(), "{keys:?}");
            }
        };
        // Finish "u" and load a unit that fills the whole budget.
        let evict = |db: &Gbo| {
            db.finish_unit("u").unwrap();
            db.read_unit("filler", filler).unwrap();
            db.finish_unit("filler").unwrap();
            assert!(db.get_field_buffer("rec", "payload", model.keys().next().unwrap()).is_err());
        };
        let db = open(false);
        db.read_unit("u", reader.clone()).unwrap();
        check(&db);
        evict(&db);
        db.read_unit("u", reader.clone()).unwrap();
        check(&db);
        evict(&db);
        drop(db);
        let db = open(true);
        db.read_unit("u", reader.clone()).unwrap();
        check(&db);
        prop_assert_eq!(db.stats().spill_hits, 1);
        prop_assert_eq!(reads.load(Ordering::SeqCst), 1, "the frame served both revisits");
        drop(db);
        let _ = std::fs::remove_dir_all(&wal_dir);
    }

    #[test]
    fn lookups_never_cross_keys(
        a in "[a-z]{1,6}",
        b in "[a-z]{1,6}",
    ) {
        prop_assume!(a != b);
        let db = fresh_db(2);
        let mk = |k0: &str, k1: &str, val: f64| {
            let rec = db.new_record("rec").unwrap();
            rec.set_str("rec.k0", k0).unwrap();
            rec.set_str("rec.k1", k1).unwrap();
            rec.set_f64("payload", vec![val]).unwrap();
            rec.commit().unwrap();
        };
        mk(&a, &b, 1.0);
        mk(&b, &a, 2.0);
        let get = |k0: &str, k1: &str| {
            db.get_field_buffer("rec", "payload", &[Key::from(k0), Key::from(k1)])
                .map(|buf| buf.f64s().unwrap()[0])
        };
        prop_assert_eq!(get(&a, &b).unwrap(), 1.0);
        prop_assert_eq!(get(&b, &a).unwrap(), 2.0);
        prop_assert!(get(&a, &a).is_err());
    }

    #[test]
    fn key_snapshot_protects_index(payloads in prop::collection::vec(-1e3f64..1e3, 1..16)) {
        // Non-key updates after commit must not disturb lookups.
        let db = fresh_db(1);
        let rec = db.new_record("rec").unwrap();
        rec.set_str("rec.k0", "stable").unwrap();
        rec.set_f64("payload", vec![0.0]).unwrap();
        rec.commit().unwrap();
        for (i, chunk) in payloads.chunks(3).enumerate() {
            rec.set_f64("payload", chunk.to_vec()).unwrap();
            let buf = db
                .get_field_buffer("rec", "payload", &[Key::from("stable")])
                .unwrap();
            prop_assert_eq!(buf.f64s().unwrap(), chunk, "iteration {}", i);
        }
        // …and key mutation is refused outright.
        prop_assert!(rec.set_str("rec.k0", "corrupted").is_err());
    }

    #[test]
    fn mem_accounting_tracks_every_set(sizes in prop::collection::vec(0usize..512, 1..20)) {
        let db = fresh_db(1);
        let mut expected = 0u64;
        for (i, n) in sizes.iter().enumerate() {
            let rec = db.new_record("rec").unwrap();
            rec.set_str("rec.k0", format!("r{i}")).unwrap();
            expected += format!("r{i}").len() as u64;
            rec.set_f64("payload", vec![1.0; *n]).unwrap();
            expected += (*n as u64) * 8;
            rec.commit().unwrap();
        }
        prop_assert_eq!(db.mem_used(), expected);
    }

    #[test]
    fn field_data_kind_and_len_consistent(n in 0usize..100) {
        for kind in [FieldKind::F64, FieldKind::F32, FieldKind::I32, FieldKind::I64, FieldKind::Bytes, FieldKind::Str] {
            let bytes = (n * kind.elem_size()) as u64;
            let data = FieldData::zeroed(kind, bytes).unwrap();
            prop_assert_eq!(data.kind(), kind);
            prop_assert_eq!(data.byte_len(), bytes);
        }
    }
}
