//! The declared vocabulary: workloads, end-to-end metrics, per-layer
//! metrics. `BENCHMARK.json` carries the same names (a test below keeps
//! the two in step) and `--list` prints this file.

use godiva_obs::sink::escape_json_into;

/// Seconds one pass measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// How the driver starts the benchmark from the root of a checkout.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "godiva-perf/Cargo.toml",
    "--",
];

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// What `throughput_per_s` counts and what `latency_ms_*` times.
    pub counts: &'static str,
    pub times: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "batch-cpu",
        why: "Voyager medium test, single-thread G build, zero-cost platform: no sleeps, so wall time is the stack's real CPU cost; viz.filters and viz.raster do most of the work, core and platform almost none.",
        counts: "snapshots rendered (snapshots_per_s)",
        times: "one snapshot, first load_pass to end_snapshot",
    },
    Workload {
        name: "batch-paper",
        why: "Paper Fig. 3(b) in its I/O-bound regime (simple test, TG, Turing disk model at scale 0.5): modelled disk dominates, so prefetch and I/O scheduling changes show and CPU micro-optimisations must not.",
        counts: "snapshots rendered (snapshots_per_s)",
        times: "one snapshot, first load_pass to end_snapshot",
    },
    Workload {
        name: "browse-spill",
        why: "Interactive G build under a 3.5-unit memory budget with spill tier and WAL on: eviction, spill encode and WAL append run beside reads, so a read-path gain that costs the write path shows.",
        counts: "snapshot visits, first and repeated (first visits dominate the time)",
        times: "one revisit (revisit_ms_p50 is a memory hit, revisit_ms_p90 a spill restore)",
    },
    Workload {
        name: "gbo-opmix",
        why: "Bare Gbo, no viz, sdf or platform: the only workload where core.store, core.units and core.exec do most of the work (commit, lookup, hand-off). Runs on one CPU: store-lock contention is not measured.",
        counts: "unit cycles of the pipeline phase (pipeline_units_per_s)",
        times: "one batch of 1 000 lookups of the query phase (1 000 / lookups_per_s)",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        what: "closed-loop work completed per second, median over runs; the unit of work is the workload's own (see --list)",
    },
    EndToEnd {
        name: "latency_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
        what: "median latency of the workload's timed operation, samples pooled over runs (gbo-opmix: median over runs of each run's median)",
    },
    EndToEnd {
        name: "latency_ms_p90",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
        what: "90th percentile of the same samples (at least 100 every time, so ten lie beyond it)",
    },
    EndToEnd {
        name: "visible_io_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        what: "time per run the main thread spent blocked waiting for data (the paper's visible I/O), median over runs",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        what: "VmHWM of the benchmark process at exit",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "dataset generation + reference outputs (gbo-opmix: building the resident table), median of repeated set-ups",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that repeats exactly for one seed.
    pub exact: bool,
    /// Regression bound `--compare` applies, for the two metrics the
    /// issue named end to end that only one workload can report.
    pub bound: Option<f64>,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn time(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
        bound: None,
        moves,
    }
}

const fn rate(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
        bound: None,
        moves,
    }
}

const fn count(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
        bound: None,
        moves,
    }
}

impl PerLayer {
    const fn bounded(mut self, bound: f64) -> PerLayer {
        self.bound = Some(bound);
        self
    }
}

const PAPER: &str = "throughput_per_s and visible_io_s on batch-paper";
const CPU: &str = "throughput_per_s on batch-cpu only";
const OPMIX: &str = "throughput_per_s and latency_ms_p50 on gbo-opmix; < 5 % of batch-cpu";
const UNITS: &str = "throughput_per_s on gbo-opmix; latency_ms_p50 on browse-spill";
const SPILL: &str = "latency_ms_p90 on browse-spill";
const WAL: &str = "throughput_per_s on browse-spill (first visits)";
const FIRST: &str =
    "throughput_per_s on browse-spill (first visits); little on batch-cpu; none on gbo-opmix";
const CONTEXT: &str = "context for reading the other numbers";

pub const PER_LAYER: &[PerLayer] = &[
    time("platform.disk_busy_s", "s", PAPER),
    count("platform.disk_seeks", "count", PAPER),
    count("platform.disk_bytes_read", "bytes", "dataset bytes read per run; visible_io_s on batch-paper, spill effectiveness on browse-spill"),
    time("platform.cpu_busy_s", "s", PAPER),
    time("platform.charge_read_ns", "ns", "shim cost left in batch-cpu and browse-spill"),
    time("sdf.open_us", "us", FIRST),
    rate("sdf.decode_mb_per_s", "MB/s", FIRST),
    count("sdf.bytes_per_snapshot", "bytes", FIRST),
    time("viz.backend.load_pass_s", "s", "visible_io_s on batch-paper; throughput_per_s and latencies on browse-spill"),
    time("viz.backend.end_snapshot_s", "s", "throughput_per_s on browse-spill (eviction and spill run in the next allocation, not here)"),
    count("viz.backend.blocks_loaded", "count", CONTEXT),
    time("viz.backend.first_visit_ms_p50", "ms", "throughput_per_s on browse-spill").bounded(0.10),
    time("viz.backend.original_visible_io_s", "s", "the O build's visible I/O on 8 snapshots of batch-paper"),
    rate("viz.backend.io_hidden_frac", "frac", "share of the G build's visible I/O the TG build hides on batch-paper"),
    time("viz.filters.busy_s", "s", CPU),
    count("viz.filters.tris_out", "count", CPU),
    rate("viz.filters.mtris_per_s", "Mtri/s", CPU),
    time("viz.raster.busy_s", "s", CPU),
    rate("viz.raster.mtris_per_s", "Mtri/s", CPU),
    count("viz.checksum_mismatches", "count", "must be 0"),
    time("core.store.commit_record_ns", "ns", OPMIX),
    count("core.store.commit_allocs_per_record", "count", OPMIX),
    time("core.store.lookup_ns", "ns", OPMIX),
    time("core.store.lookup_miss_ns", "ns", OPMIX),
    count("core.store.lookup_allocs_per_op", "count", OPMIX),
    time("core.store.lookup_pipeline_ns", "ns", "throughput_per_s on gbo-opmix (lookups of the pipeline phase, on the unit just committed; the reader never runs at the same time)"),
    rate("core.store.lookups_per_s", "1/s", "latency_ms_p50 on gbo-opmix (its reciprocal)").bounded(0.15),
    time("core.buffer.read_ns", "ns", OPMIX),
    time("core.units.add_unit_ns", "ns", UNITS),
    time("core.units.wait_hit_ns", "ns", UNITS),
    time("core.units.finish_unit_ns", "ns", UNITS),
    time("core.units.delete_unit_ns", "ns", UNITS),
    time("core.units.wait_blocked_s", "s", "visible_io_s on every workload (equal to it on batch-paper)"),
    rate("core.units.cache_hit_rate", "frac", UNITS),
    count("core.units.evictions", "count", SPILL),
    count("core.units.mem_peak_bytes", "bytes", "peak_rss_mb"),
    time("core.exec.handoff_us_p50", "us", "throughput_per_s on gbo-opmix and browse-spill"),
    count("core.exec.background_reads", "count", CONTEXT),
    count("core.exec.blocking_reads", "count", CONTEXT),
    count("core.spill.writes", "count", SPILL),
    count("core.spill.hits", "count", SPILL),
    count("core.spill.misses", "count", "platform.disk_bytes_read on browse-spill"),
    count("core.spill.bytes_written", "bytes", SPILL),
    time("core.spill.bytes_per_unit_byte", "ratio", SPILL),
    time("core.spill.restore_ms_p50", "ms", SPILL),
    count("core.wal.appends", "count", WAL),
    count("core.wal.bytes", "bytes", WAL),
    count("core.wal.fsyncs", "count", WAL),
    time("core.wal.bytes_per_record", "bytes", WAL),
    time("core.wal.overhead_frac", "frac", WAL),
    rate("core.wal.scan_mb_per_s", "MB/s", "core.wal.recover_ms"),
    time("core.wal.recover_ms", "ms", "restart cost after a browse-spill session"),
    time("obs.span_disabled_ns", "ns", "every workload (the library's tracer is off by default)"),
    time("obs.span_enabled_ns", "ns", "obs.tracer_overhead_frac"),
    time("obs.counter_inc_ns", "ns", "throughput_per_s on gbo-opmix"),
    time("obs.histogram_record_ns", "ns", "throughput_per_s on gbo-opmix"),
    time("obs.tracer_overhead_frac", "frac", "cost of switching the library's tracer and metrics registry on, gbo-opmix pipeline"),
    time("obs.bench_trace_overhead_frac", "frac", "traced over untraced run time: what the benchmark's own spans cost"),
    rate("bench.span_coverage_frac", "frac", "main-thread span self times over run wall; 1 means every call is attributed"),
    time("bench.loop_self_frac", "frac", "share of a traced run spent in the benchmark's own loop"),
    time("genx.generate_s", "s", "setup_s"),
    count("genx.bytes_written", "bytes", "setup_s"),
    rate("host.nproc", "count", CONTEXT),
    rate("host.parallel_speedup", "ratio", "work rate of two spinning threads over one; near 1 means real-CPU overlap cannot be measured on this host"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// The text of `BENCHMARK.json`, from the tables above.
pub fn benchmark_json() -> String {
    fn quoted(s: &str) -> String {
        let mut out = String::new();
        escape_json_into(&mut out, s);
        out
    }
    fn block(rows: Vec<String>) -> String {
        format!("[\n    {}\n  ]", rows.join(",\n    "))
    }
    let command: Vec<String> = COMMAND.iter().map(|a| quoted(a)).collect();
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                quoted(w.name),
                quoted(w.why)
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"godiva-perf\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        block(workloads),
        block(end_to_end),
        block(per_layer)
    )
}

/// `--list`: names, units, direction, bound, and the layer → end-to-end map.
pub fn print_list() {
    println!("workloads (what throughput_per_s counts | what latency_ms_* times):");
    for w in WORKLOADS {
        println!("  {:<13} {}", w.name, w.why);
        println!("  {:<13}   counts: {} | times: {}", "", w.counts, w.times);
    }
    println!("\nend-to-end metrics (regression bound as a share of the parent's median):");
    for m in END_TO_END {
        println!(
            "  {:<18} {:<5} {:<6} better, bound {:>4.0} %  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("\nper-layer metrics (= repeats exactly for one seed; 0 = layer not entered by that workload; a bound is applied by --compare):");
    for m in PER_LAYER {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(" [bound {:.0} %]", b * 100.0));
        println!(
            "  {:<36} {:<7} {:<6} {} -> {}{bound}",
            m.name,
            m.unit,
            m.better.as_str(),
            if m.exact { "=" } else { " " },
            m.moves
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use godiva_obs::{parse_json, JsonValue};

    #[test]
    fn benchmark_json_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with --benchmark-json"
        );
        let doc = parse_json(&on_disk).expect("valid JSON");
        let JsonValue::Object(top) = &doc else {
            panic!("not an object")
        };
        assert_eq!(
            top.keys().map(String::as_str).collect::<Vec<_>>(),
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(on_disk.len() <= 64 << 10);
        let count = |key| {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .map_or(0, <[_]>::len)
        };
        assert_eq!(count("workloads"), WORKLOADS.len());
        assert_eq!(count("end_to_end"), END_TO_END.len());
        assert_eq!(count("per_layer"), PER_LAYER.len());
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| ok_name(w.name) && seen.insert(w.name)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
