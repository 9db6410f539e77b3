//! Integration tests for the monitoring stack: the crash flight
//! recorder's post-mortem dump, the live metrics HTTP exporter, and the
//! trace-analytics attribution, all driven through real database runs.

use godiva::core::{DeclaredSize, FieldKind, Gbo, GboConfig, Key, UnitSession};
use godiva::obs::{
    analyze_trace, parse_json, FlightRecorder, JsonValue, JsonlSink, MetricsRegistry,
    MetricsServer, Snapshotter, Tracer,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A database whose schema is ready for `payload_reader` units.
fn payload_db(config: GboConfig) -> Gbo {
    let db = Gbo::with_config(config);
    db.define_field("id", FieldKind::Str, DeclaredSize::Known(16))
        .unwrap();
    db.define_field("payload", FieldKind::F64, DeclaredSize::Unknown)
        .unwrap();
    db.define_record("rec", 1).unwrap();
    db.insert_field("rec", "id", true).unwrap();
    db.insert_field("rec", "payload", false).unwrap();
    db.commit_record_type("rec").unwrap();
    db
}

/// A read function creating one record with `values` f64s.
fn payload_reader(
    id: &str,
    values: usize,
) -> impl Fn(&UnitSession) -> godiva::core::Result<()> + Send + Sync + 'static {
    let id = id.to_string();
    move |s: &UnitSession| {
        let rec = s.new_record("rec")?;
        rec.set_str("id", &id)?;
        rec.set_f64("payload", vec![1.0; values])?;
        rec.commit()
    }
}

/// Events of a JSONL text, parsed; `skip_header` drops the first line.
fn parsed_lines(text: &str, skip_header: bool) -> Vec<JsonValue> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .skip(usize::from(skip_header))
        .map(|l| parse_json(l).expect("valid JSON line"))
        .collect()
}

/// What `trace_check <trace> <dump>` verifies: the dump is a contiguous
/// run of the full trace restricted to the events the recorder saw (the
/// `gbo` category).
fn assert_dump_is_a_run_of_the_trace(trace_text: &str, dump_events: &[JsonValue]) {
    let gbo: Vec<JsonValue> = parsed_lines(trace_text, false)
        .into_iter()
        .filter(|v| v.get("cat").and_then(|c| c.as_str()) == Some("gbo"))
        .collect();
    let window = dump_events.len();
    assert!(window <= gbo.len());
    let position = (0..=gbo.len() - window).find(|&s| gbo[s..s + window] == dump_events[..]);
    assert!(
        position.is_some(),
        "dump must be a contiguous run of the trace's gbo events"
    );
}

#[test]
fn flight_recorder_dumps_postmortem_on_reader_panic() {
    let tag = format!("{}-{:?}", std::process::id(), std::thread::current().id());
    let trace_path = std::env::temp_dir().join(format!("godiva-mon-trace-{tag}.jsonl"));
    let dump_path = std::env::temp_dir().join(format!("godiva-mon-dump-{tag}.jsonl"));
    let recorder = Arc::new(FlightRecorder::with_capacity(512));
    {
        let sink = Arc::new(JsonlSink::create(&trace_path).unwrap());
        let db = payload_db(GboConfig {
            background_io: false,
            tracer: Tracer::new(sink),
            flight_recorder: Some(recorder.clone()),
            postmortem_path: Some(dump_path.clone()),
            ..Default::default()
        });
        for i in 0..3 {
            let name = format!("good{i}");
            db.add_unit(&name, payload_reader(&name, 64)).unwrap();
            db.wait_unit(&name).unwrap();
            db.finish_unit(&name).unwrap();
        }
        db.add_unit("bad", |_s: &UnitSession| -> godiva::core::Result<()> {
            panic!("injected reader panic")
        })
        .unwrap();
        assert!(db.wait_unit("bad").is_err(), "panicking unit must fail");
    } // db + sink dropped: trace file flushed

    let dump_text = std::fs::read_to_string(&dump_path).expect("post-mortem written");
    let trace_text = std::fs::read_to_string(&trace_path).unwrap();
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&dump_path);

    // Header: automatic dump with the panic reason and a correct count.
    let header = parse_json(dump_text.lines().next().unwrap()).unwrap();
    let meta = header.get("postmortem").expect("postmortem header");
    assert_eq!(
        meta.get("reason").and_then(|r| r.as_str()),
        Some("reader_panic")
    );
    let dump_events = parsed_lines(&dump_text, true);
    assert_eq!(
        meta.get("events").and_then(|e| e.as_u64()),
        Some(dump_events.len() as u64)
    );
    assert!(!dump_events.is_empty());

    // The dump is the lead-up to the panic, ending at the read_failed
    // that reported it.
    assert_dump_is_a_run_of_the_trace(&trace_text, &dump_events);
    let window = dump_events.len();
    // The tail shows the failure: the read_failed instant followed by
    // the closing read_unit span (ok=false), after which the dump fired.
    let last = dump_events.last().unwrap();
    assert_eq!(last.get("name").and_then(|n| n.as_str()), Some("read_unit"));
    assert_eq!(
        last.get("args").and_then(|a| a.get("ok")),
        Some(&JsonValue::Bool(false))
    );
    let tail_names: Vec<&str> = dump_events
        .iter()
        .rev()
        .take(3)
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    assert!(tail_names.contains(&"read_failed"), "{tail_names:?}");
    // The recorder itself still holds the events (dumping is not
    // destructive), accessible through the Gbo-facing API too.
    assert!(recorder.len() >= window);
}

#[test]
fn default_config_installs_a_flight_recorder() {
    let db = payload_db(GboConfig::default());
    assert!(db.flight_recorder().is_some());
    db.add_unit("u", payload_reader("u", 8)).unwrap();
    db.wait_unit("u").unwrap();
    db.finish_unit("u").unwrap();
    // Even with no user tracer, the teed recorder sees the lifecycle.
    let recorder = db.flight_recorder().unwrap();
    let names: Vec<String> = recorder
        .snapshot()
        .iter()
        .map(|e| e.name.to_string())
        .collect();
    assert!(names.contains(&"unit_added".to_string()), "{names:?}");
    assert!(names.contains(&"read_done".to_string()), "{names:?}");
    // Manual dumps work and report their reason.
    let path = db.dump_postmortem("operator_request").expect("dump path");
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(text.starts_with("{\"postmortem\":"));
    assert!(text.contains("operator_request"));
}

/// Run `units` units of 120 records through `db` — load, look every
/// record up, delete — then fail one read, and return the parsed events
/// of a post-mortem dump taken at the end.
fn dump_after_record_heavy_run(db: &Gbo, units: usize) -> Vec<JsonValue> {
    for u in 0..units {
        let name = format!("u{u:03}");
        let prefix = name.clone();
        db.add_unit(&name, move |s: &UnitSession| {
            for r in 0..120 {
                let rec = s.new_record("rec")?;
                rec.set_str("id", format!("{prefix}/{r}"))?;
                rec.set_f64("payload", vec![r as f64])?;
                rec.commit()?;
            }
            Ok(())
        })
        .unwrap();
        db.wait_unit(&name).unwrap();
        for r in 0..120 {
            let key = [Key::from(format!("{name}/{r}"))];
            let buf = db.get_field_buffer("rec", "payload", &key).unwrap();
            assert_eq!(buf.f64s().unwrap()[0], r as f64);
        }
        db.delete_unit(&name).unwrap();
    }
    db.add_unit("bad", |_s: &UnitSession| {
        Err(godiva::core::GodivaError::UnitError("injected".into()))
    })
    .unwrap();
    assert!(db.wait_unit("bad").is_err());
    let path = db.dump_postmortem("operator_request").expect("dump path");
    let text = std::fs::read_to_string(&path).unwrap();
    parsed_lines(&text, true)
}

fn names_of(events: &[JsonValue]) -> Vec<&str> {
    events
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect()
}

/// Per-record events (`record_commit`, `key_lookup`) go to an attached
/// tracer only. An untraced run's flight recorder therefore holds unit
/// lifecycles — six events a unit here, so the default 4 096-slot ring
/// covers this whole run, where the 246 events a unit used to cost
/// covered sixteen units — and a traced run's dump is still a run of
/// its trace, per-record events included.
#[test]
fn per_record_events_need_an_attached_tracer() {
    let tag = format!("{}-{:?}", std::process::id(), std::thread::current().id());
    let dump_path = std::env::temp_dir().join(format!("godiva-mon-policy-{tag}.jsonl"));
    let config = || GboConfig {
        background_io: false,
        postmortem_path: Some(dump_path.clone()),
        ..Default::default()
    };

    const UNITS: usize = 120;
    let dump = dump_after_record_heavy_run(&payload_db(config()), UNITS);
    let names = names_of(&dump);
    assert!(!names.contains(&"record_commit") && !names.contains(&"key_lookup"));
    let added: Vec<&str> = dump
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("unit_added"))
        .filter_map(|e| e.get("args")?.get("unit")?.as_str())
        .collect();
    for u in UNITS - 100..UNITS {
        assert!(added.contains(&format!("u{u:03}").as_str()), "unit {u}");
    }
    // What a post-mortem is read for is still there, and still last.
    assert!(names.contains(&"unit_deleted") && names.contains(&"read_done"));
    assert!(
        names[names.len() - 3..].contains(&"read_failed"),
        "{names:?}"
    );

    let trace_path = std::env::temp_dir().join(format!("godiva-mon-policy-trace-{tag}.jsonl"));
    let dump = {
        let db = payload_db(GboConfig {
            tracer: Tracer::new(Arc::new(JsonlSink::create(&trace_path).unwrap())),
            ..config()
        });
        dump_after_record_heavy_run(&db, 3)
    }; // db + sink dropped: trace file flushed
    let names = names_of(&dump);
    assert_eq!(names.iter().filter(|n| **n == "record_commit").count(), 360);
    assert_eq!(names.iter().filter(|n| **n == "key_lookup").count(), 360);
    assert_dump_is_a_run_of_the_trace(&std::fs::read_to_string(&trace_path).unwrap(), &dump);
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&dump_path);
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

#[test]
fn metrics_server_exports_live_database_gauges() {
    let registry = Arc::new(MetricsRegistry::new());
    let server = MetricsServer::bind("127.0.0.1:0", registry.clone()).unwrap();
    let db = payload_db(GboConfig {
        metrics: Some(registry.clone()),
        ..Default::default()
    });
    db.add_unit("u1", payload_reader("u1", 1024)).unwrap();
    db.wait_unit("u1").unwrap();

    // Mid-run scrape: valid Prometheus text exposition with the live
    // occupancy gauge (u1 is pinned, so its bytes are still charged).
    let response = http_get(server.local_addr(), "/metrics");
    assert!(response.starts_with("HTTP/1.1 200 OK"));
    assert!(response.contains("text/plain; version=0.0.4"));
    assert!(response.contains("# TYPE gbo_mem_bytes gauge"));
    assert!(response.contains("# TYPE gbo_queue_depth gauge"));
    assert!(response.contains("# TYPE gbo_units_read counter"));
    let mem_line = response
        .lines()
        .find(|l| l.starts_with("gbo_mem_bytes "))
        .expect("gauge sample line");
    let value: u64 = mem_line.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert!(value >= 8 * 1024, "pinned unit's bytes visible: {value}");

    // JSON endpoint agrees.
    let stats = http_get(server.local_addr(), "/stats");
    let body = stats.split("\r\n\r\n").nth(1).unwrap();
    let v = parse_json(body).expect("stats is valid JSON");
    assert_eq!(
        v.get("gbo.units_read")
            .and_then(|m| m.get("value")?.as_u64()),
        Some(1)
    );

    // The durability families a dashboard alerts on are present from
    // startup (zero-valued), not only after the first WAL/spill event.
    for family in [
        "gbo_wal_appends",
        "gbo_wal_bytes",
        "gbo_wal_fsyncs",
        "gbo_wal_replayed",
        "gbo_wal_truncated",
        "gbo_spill_writes",
        "gbo_spill_hits",
        "gbo_spill_misses",
        "gbo_spill_corrupt",
    ] {
        assert!(
            response.contains(&format!("# TYPE {family} counter")),
            "missing {family} family in /metrics"
        );
    }
    assert!(response.contains("# TYPE gbo_spill_bytes gauge"));

    // Liveness probe answers while the database is mid-run.
    let health = http_get(server.local_addr(), "/healthz");
    assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
    assert!(health.ends_with("ok\n"), "{health}");
    db.finish_unit("u1").unwrap();
}

#[test]
fn snapshotter_feeds_occupancy_timeline_into_analytics() {
    let tag = format!("{}-{:?}", std::process::id(), std::thread::current().id());
    let trace_path = std::env::temp_dir().join(format!("godiva-mon-snap-{tag}.jsonl"));
    let registry = Arc::new(MetricsRegistry::new());
    {
        let sink = Arc::new(JsonlSink::create(&trace_path).unwrap());
        let tracer = Tracer::new(sink);
        let snapshotter =
            Snapshotter::spawn(registry.clone(), tracer.clone(), Duration::from_millis(10));
        let db = payload_db(GboConfig {
            tracer,
            metrics: Some(registry.clone()),
            ..Default::default()
        });
        for i in 0..4 {
            let name = format!("u{i}");
            db.add_unit(&name, payload_reader(&name, 2048)).unwrap();
            db.wait_unit(&name).unwrap();
            db.finish_unit(&name).unwrap();
            std::thread::sleep(Duration::from_millis(12));
        }
        drop(snapshotter);
        drop(db);
    }
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let _ = std::fs::remove_file(&trace_path);

    let report = analyze_trace(&text).expect("trace analyzes");
    // The snapshotter sampled gbo.mem_bytes while units were resident.
    assert!(
        report.occupancy.timeline.len() >= 2,
        "expected several occupancy samples, got {:?}",
        report.occupancy.timeline.len()
    );
    assert!(report.occupancy.peak_bytes >= 16 * 1024);
    // Attribution invariant: compute + wait-blocked == trace extent.
    assert_eq!(report.attribution_sum_us(), report.wall_us);
    report
        .check_attribution(report.wall_us.max(1), 0.05)
        .expect("self-consistent attribution");
    assert_eq!(report.units, 4);
    assert_eq!(report.prefetch.never, 0);
}

/// The exact key set tools downstream of `godiva-report --json` rely
/// on (the diff gate, CI's attribution check, dashboard importers).
/// Renaming or dropping a key is a breaking change — update the
/// baselines in `results/` and this list together.
#[test]
fn trace_report_json_schema_is_golden() {
    let tag = format!("{}-{:?}", std::process::id(), std::thread::current().id());
    let trace_path = std::env::temp_dir().join(format!("godiva-mon-schema-{tag}.jsonl"));
    {
        let sink = Arc::new(JsonlSink::create(&trace_path).unwrap());
        let db = payload_db(GboConfig {
            tracer: Tracer::new(sink),
            ..Default::default()
        });
        for i in 0..2 {
            let name = format!("u{i}");
            db.add_unit(&name, payload_reader(&name, 256)).unwrap();
            db.wait_unit(&name).unwrap();
            db.finish_unit(&name).unwrap();
        }
    }
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let _ = std::fs::remove_file(&trace_path);

    let report = analyze_trace(&text).expect("trace analyzes");
    let v = parse_json(&report.to_json()).expect("report JSON parses");
    let JsonValue::Object(map) = &v else {
        panic!("report must be a JSON object");
    };
    let keys: Vec<&str> = map.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "attribution_sum_us",
            "churn",
            "compute_us",
            "events",
            "main_tid",
            "occupancy",
            "prefetch",
            "readers",
            "render_us",
            "spans",
            "spill",
            "start_us",
            "units",
            "wait_blocked_us",
            "wall_us",
        ],
        "godiva-report --json top-level schema changed"
    );

    let section_keys = |section: &str| -> Vec<String> {
        let JsonValue::Object(m) = v.get(section).unwrap() else {
            panic!("{section} must be an object");
        };
        m.keys().cloned().collect()
    };
    assert_eq!(
        section_keys("prefetch"),
        ["late", "late_wait_us", "never", "ready"]
    );
    assert_eq!(
        section_keys("churn"),
        [
            "evicted_bytes",
            "evictions",
            "re_read_us",
            "re_reads",
            "reads"
        ]
    );
    assert_eq!(
        section_keys("spill"),
        [
            "corrupt",
            "hits",
            "misses",
            "restore_us",
            "restored_bytes",
            "saved_us",
            "writes"
        ]
    );
    assert_eq!(section_keys("occupancy"), ["peak_bytes", "samples"]);
    let readers = v.get("readers").and_then(|r| r.as_array()).unwrap();
    assert!(!readers.is_empty(), "run had at least one reader");
    let JsonValue::Object(r0) = &readers[0] else {
        panic!("readers entries must be objects");
    };
    let reader_keys: Vec<&str> = r0.keys().map(String::as_str).collect();
    assert_eq!(reader_keys, ["busy_us", "reads", "tid"]);

    // A critical-path report spliced in by --critical-path keeps its
    // own contract: the per-resource partition plus the speedup table.
    let cp = godiva::obs::critical_path(&text).expect("critical path");
    let cpv = parse_json(&cp.to_json()).expect("critical-path JSON parses");
    let JsonValue::Object(cpm) = &cpv else {
        panic!("critical_path must be an object");
    };
    let cp_keys: Vec<&str> = cpm.keys().map(String::as_str).collect();
    assert_eq!(
        cp_keys,
        [
            "attribution_sum_us",
            "compute_us",
            "disk_us",
            "main_tid",
            "other_blocked_us",
            "queue_us",
            "reader_cpu_us",
            "speedups",
            "spill_restore_us",
            "waits_linked",
            "waits_total",
            "wal_fsync_us",
            "wall_us",
        ],
        "critical_path JSON schema changed"
    );
}

/// Degenerate traces must either error cleanly or produce a
/// self-consistent report — the analytics never panic on them.
#[test]
fn trace_analytics_edge_cases() {
    // Empty input is an error, not a zeroed report.
    assert!(analyze_trace("").is_err());
    assert!(analyze_trace("\n  \n").is_err());
    assert!(godiva::obs::critical_path("").is_err());

    // A single instant: zero wall, attribution still sums exactly.
    let one = r#"{"ts":10,"ph":"i","s":"t","cat":"gbo","name":"unit_added","pid":1,"tid":7,"args":{"unit":"a"}}"#;
    let r = analyze_trace(one).expect("single-event trace analyzes");
    assert_eq!((r.events, r.wall_us - r.start_us), (1, 0));
    assert_eq!(r.attribution_sum_us(), r.wall_us);

    // Disk-spans-only (O-mode backend: no database events at all):
    // main_tid falls back to the first event's tid and the whole
    // extent counts as blocked — there is no compute to attribute.
    let disk_only = [
        r#"{"ts":0,"dur":40,"ph":"X","cat":"disk","name":"read","pid":1,"tid":9,"args":{"file":"f","offset":0,"len":10}}"#,
        r#"{"ts":50,"dur":50,"ph":"X","cat":"disk","name":"read","pid":1,"tid":9,"args":{"file":"f","offset":10,"len":10}}"#,
    ]
    .join("\n");
    let r = analyze_trace(&disk_only).expect("disk-only trace analyzes");
    assert_eq!(r.main_tid, 9);
    assert_eq!(r.wall_us, 100);
    assert_eq!(r.wait_blocked_us, 90);
    assert_eq!(r.compute_us, 10);
    assert_eq!(r.attribution_sum_us(), r.wall_us);
    let cp = godiva::obs::critical_path(&disk_only).expect("critical path on disk-only");
    assert_eq!(cp.attribution_sum_us(), cp.wall_us);
}

/// End-to-end health engine lifecycle: injected read faults on a real
/// database drive the default `read_failures` SLO from ok → firing and
/// back to ok, observed simultaneously through `/healthz`, `/alerts`,
/// the JSONL alert log, and the alert instants in the trace (the same
/// fired/resolved pairing `trace_check` rule 6 enforces).
#[test]
fn health_engine_fires_and_resolves_alerts_end_to_end() {
    use godiva::obs::{AlertState, HealthConfig, HealthHandle, TraceSink as _};
    let tag = format!("{}-{:?}", std::process::id(), std::thread::current().id());
    let trace_path = std::env::temp_dir().join(format!("godiva-health-trace-{tag}.jsonl"));
    let log_path = std::env::temp_dir().join(format!("godiva-health-alerts-{tag}.jsonl"));
    let _ = std::fs::remove_file(&log_path);

    let registry = Arc::new(MetricsRegistry::new());
    let sink = Arc::new(JsonlSink::create(&trace_path).unwrap());
    let tracer = Tracer::new(sink.clone());
    // Tight budget plus failing readers — the workload of a run that is
    // genuinely unhealthy for a while.
    let db = payload_db(GboConfig {
        mem_limit: 256 << 10,
        metrics: Some(registry.clone()),
        tracer: tracer.clone(),
        ..Default::default()
    });
    // Manually-ticked handle: each tick() is one deterministic window
    // frame + SLO evaluation, so no sleeps are needed.
    let health = HealthHandle::new(
        registry.clone(),
        tracer.clone(),
        HealthConfig {
            alert_log: Some(log_path.clone()),
            ..Default::default()
        },
    );
    let server =
        MetricsServer::bind_with_health("127.0.0.1:0", registry.clone(), Some(health.clone()))
            .unwrap();
    let addr = server.local_addr();
    health.tick(); // baseline frame
    assert!(http_get(addr, "/healthz").starts_with("HTTP/1.1 200 OK"));

    // Inject faults: every read of these units fails (no retry policy).
    for i in 0..3 {
        let name = format!("bad{i}");
        db.add_unit(&name, |_s: &UnitSession| {
            Err(godiva::core::GodivaError::UnitError(
                "injected fault".into(),
            ))
        })
        .unwrap();
        assert!(db.wait_unit(&name).is_err());
    }
    assert!(db.stats().units_failed >= 3);

    // Two breaching ticks cross the default fire_ticks=2 hysteresis.
    health.tick();
    health.tick();
    assert_eq!(health.state("read_failures"), Some(AlertState::Firing));
    let readiness = http_get(addr, "/healthz");
    assert!(readiness.starts_with("HTTP/1.1 503"), "{readiness}");
    assert!(readiness.contains("read_failures"), "{readiness}");
    let alerts = http_get(addr, "/alerts");
    assert!(alerts.contains("\"rule\":\"read_failures\""), "{alerts}");
    assert!(alerts.contains("\"state\":\"firing\""), "{alerts}");
    let slo = http_get(addr, "/slo");
    assert!(slo.contains("\"rule\":\"read_failures\""), "{slo}");
    // The windowed families ride on /metrics while the engine runs.
    let metrics = http_get(addr, "/metrics");
    assert!(metrics.contains("window="), "{metrics}");

    // No further faults: once the failure leaves the 5-tick fast
    // window, clear_ticks=3 clean evaluations resolve the alert.
    for _ in 0..12 {
        health.tick();
    }
    assert_eq!(health.state("read_failures"), Some(AlertState::Ok));
    assert!(http_get(addr, "/healthz").starts_with("HTTP/1.1 200 OK"));
    let alerts = http_get(addr, "/alerts");
    assert!(alerts.contains("\"fired_total\":1"), "{alerts}");
    assert!(alerts.contains("\"resolved_total\":1"), "{alerts}");

    // The JSONL alert log round-trips: one fired line, one resolved
    // line, both for this rule and in that order.
    let log = std::fs::read_to_string(&log_path).unwrap();
    let events: Vec<String> = parsed_lines(&log, false)
        .iter()
        .map(|v| {
            assert_eq!(
                v.get("rule").and_then(|r| r.as_str()),
                Some("read_failures")
            );
            assert!(v.get("ts_us").and_then(|t| t.as_u64()).is_some());
            v.get("event").and_then(|e| e.as_str()).unwrap().to_string()
        })
        .collect();
    assert_eq!(events, vec!["warning", "fired", "resolved"], "{log}");

    // The trace carries the same lifecycle as instants — fired strictly
    // before resolved for the rule (trace_check's pairing rule).
    drop(db);
    sink.finish();
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    let health_events: Vec<(String, String)> = parsed_lines(&trace, false)
        .iter()
        .filter(|v| v.get("cat").and_then(|c| c.as_str()) == Some("health"))
        .map(|v| {
            (
                v.get("name").and_then(|n| n.as_str()).unwrap().to_string(),
                v.get("args")
                    .and_then(|a| a.get("rule")?.as_str())
                    .unwrap()
                    .to_string(),
            )
        })
        .collect();
    let fired = health_events
        .iter()
        .position(|(n, r)| n == "alert_fired" && r == "read_failures")
        .expect("alert_fired instant in trace");
    let resolved = health_events
        .iter()
        .position(|(n, r)| n == "alert_resolved" && r == "read_failures")
        .expect("alert_resolved instant in trace");
    assert!(fired < resolved, "fired must precede resolved");
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&log_path);
}
