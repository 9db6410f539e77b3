//! Results as JSON, and the comparison of two result files.

use crate::catalogue::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use godiva_obs::sink::escape_json_into;
use godiva_obs::{parse_json, JsonValue};
use std::collections::BTreeMap;

/// Serialize a JSON value (numbers with all their digits).
pub fn emit(v: &JsonValue) -> String {
    let mut out = String::new();
    emit_into(&mut out, v);
    out
}

fn emit_into(out: &mut String, v: &JsonValue) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Num(n) if n.is_finite() => out.push_str(&format!("{n}")),
        JsonValue::Num(_) => out.push_str("null"),
        JsonValue::Str(s) => escape_json_into(out, s),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_into(out, item);
            }
            out.push(']');
        }
        JsonValue::Object(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_json_into(out, k);
                out.push(':');
                emit_into(out, item);
            }
            out.push('}');
        }
    }
}

pub fn object(members: impl IntoIterator<Item = (impl Into<String>, JsonValue)>) -> JsonValue {
    JsonValue::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// The result line of one pass: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(
    attempted: u64,
    failed: u64,
    metrics: impl IntoIterator<Item = (&'static str, &'static str, f64)>,
) -> String {
    let metrics = metrics.into_iter().map(|(name, unit, value)| {
        (
            name,
            object([
                ("value", JsonValue::Num(value)),
                ("unit", JsonValue::Str(unit.into())),
            ]),
        )
    });
    emit(&object([
        ("correct", JsonValue::Bool(failed == 0)),
        ("attempted", JsonValue::Num(attempted as f64)),
        ("failed", JsonValue::Num(failed as f64)),
        ("metrics", object(metrics)),
    ]))
}

/// Values of one metric over the sets of a result file.
type Series = BTreeMap<String, Vec<f64>>;

/// One workload's part of a result file written by `--all`.
#[derive(Default)]
pub struct WorkloadSets {
    pub attempted: Vec<f64>,
    pub failed: Vec<f64>,
    pub end_to_end: Series,
    pub per_layer: Series,
}

impl WorkloadSets {
    /// Fold one pass's result line in.
    pub fn absorb(&mut self, line: &str, traced: bool) -> Result<(), String> {
        let doc = parse_json(line)?;
        let num = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or(key.to_string())
        };
        self.attempted.push(num("attempted")?);
        self.failed.push(num("failed")?);
        let Some(JsonValue::Object(metrics)) = doc.get("metrics") else {
            return Err("metrics".into());
        };
        let series = if traced {
            &mut self.per_layer
        } else {
            &mut self.end_to_end
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or(name.clone())?;
            series.entry(name.clone()).or_default().push(value);
        }
        Ok(())
    }

    fn to_json(&self) -> JsonValue {
        let nums = |v: &[f64]| JsonValue::Array(v.iter().map(|&x| JsonValue::Num(x)).collect());
        let series = |s: &Series| {
            object(s.iter().map(|(name, values)| {
                let unit = crate::catalogue::unit_of(name).unwrap_or("");
                let mut members = vec![
                    ("unit", JsonValue::Str(unit.into())),
                    ("median", JsonValue::Num(median(values))),
                    ("values", nums(values)),
                ];
                if let Some(q) = quartiles(values) {
                    members.push(("quartiles", nums(&q)));
                }
                (name.clone(), object(members))
            }))
        };
        object([
            ("attempted", nums(&self.attempted)),
            ("failed", nums(&self.failed)),
            ("end_to_end", series(&self.end_to_end)),
            ("per_layer", series(&self.per_layer)),
        ])
    }

    fn from_json(doc: &JsonValue) -> Option<WorkloadSets> {
        let nums = |v: &JsonValue| -> Option<Vec<f64>> {
            v.as_array()?.iter().map(JsonValue::as_f64).collect()
        };
        let series = |v: &JsonValue| -> Option<Series> {
            let JsonValue::Object(members) = v else {
                return None;
            };
            members
                .iter()
                .map(|(name, m)| Some((name.clone(), nums(m.get("values")?)?)))
                .collect()
        };
        Some(WorkloadSets {
            attempted: nums(doc.get("attempted")?)?,
            failed: nums(doc.get("failed")?)?,
            end_to_end: series(doc.get("end_to_end")?)?,
            per_layer: series(doc.get("per_layer")?)?,
        })
    }
}

/// A whole result file: seed of the first set, seconds per pass, and
/// every workload's sets (set `i` ran with seed `seed + i`).
pub struct ResultFile {
    pub seed: u64,
    pub seconds: f64,
    pub host: String,
    pub workloads: BTreeMap<String, WorkloadSets>,
}

impl ResultFile {
    pub fn to_json(&self) -> String {
        emit(&object([
            ("seed", JsonValue::Num(self.seed as f64)),
            ("seconds", JsonValue::Num(self.seconds)),
            ("host", JsonValue::Str(self.host.clone())),
            (
                "workloads",
                object(self.workloads.iter().map(|(k, v)| (k.clone(), v.to_json()))),
            ),
        ]))
    }

    pub fn parse(text: &str) -> Result<ResultFile, String> {
        let doc = parse_json(text)?;
        let Some(JsonValue::Object(workloads)) = doc.get("workloads") else {
            return Err("no workloads".into());
        };
        Ok(ResultFile {
            seed: doc
                .get("seed")
                .and_then(JsonValue::as_u64)
                .ok_or("no seed")?,
            seconds: doc
                .get("seconds")
                .and_then(JsonValue::as_f64)
                .ok_or("no seconds")?,
            host: doc
                .get("host")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string(),
            workloads: workloads
                .iter()
                .map(|(name, w)| Some((name.clone(), WorkloadSets::from_json(w)?)))
                .collect::<Option<_>>()
                .ok_or("malformed workload")?,
        })
    }

    /// Every metric by name, with its unit: median and quartiles.
    pub fn print(&self) {
        for (name, w) in &self.workloads {
            println!(
                "{name}: {} operations attempted, {} failed",
                w.attempted.iter().sum::<f64>(),
                w.failed.iter().sum::<f64>()
            );
            for (metric, values) in w.end_to_end.iter().chain(&w.per_layer) {
                let unit = crate::catalogue::unit_of(metric).unwrap_or("");
                match quartiles(values) {
                    Some([q1, _, q3]) => println!(
                        "  {metric:<36} {:>16.6} {unit:<7} [{q1:.6} .. {q3:.6}] n={}",
                        median(values),
                        values.len()
                    ),
                    None => println!("  {metric:<36} {:>16.6} {unit}", median(values)),
                }
            }
        }
    }
}

/// Whether `vb` is within `bound` of `va`; prints the verdict line.
fn within_bound(
    workload: &str,
    (name, unit, better, bound): (&str, &str, Better, f64),
    va: &[f64],
    vb: &[f64],
) -> bool {
    let (ma, mb) = (median(va), median(vb));
    let worse = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let widest = spread(va).unwrap_or(0.0).max(spread(vb).unwrap_or(0.0));
    let all_better = va.iter().all(|&x| {
        vb.iter().all(|&y| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    let verdict = if worse > bound {
        "REGRESSED"
    } else if widest > bound && !all_better {
        "unresolved (spread exceeds the bound)"
    } else {
        "ok"
    };
    println!(
        "{workload:<13} {name:<36} A {ma:>12.5} B {mb:>12.5} {unit} worse by {:>6.2} % (bound {:.0} %, spread {:.2} %) {verdict}",
        worse * 100.0,
        bound * 100.0,
        widest * 100.0
    );
    worse <= bound
}

/// `--compare A B`: apply every bound (the end-to-end metrics', and the
/// two per-layer metrics' that have one, on the workload that reports
/// them) to B against A; counts that repeat exactly must be equal when
/// the seeds are. Returns whether B is acceptable.
pub fn compare(a: &ResultFile, b: &ResultFile) -> bool {
    let mut acceptable = true;
    for w in WORKLOADS {
        let (Some(wa), Some(wb)) = (a.workloads.get(w.name), b.workloads.get(w.name)) else {
            println!("{:<13} missing from one file", w.name);
            acceptable = false;
            continue;
        };
        if wb.failed.iter().any(|&f| f > 0.0) {
            println!("{:<13} operations failed in B", w.name);
            acceptable = false;
        }
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (wa.end_to_end.get(m.name), wb.end_to_end.get(m.name))
            else {
                println!("{:<13} {:<36} missing", w.name, m.name);
                acceptable = false;
                continue;
            };
            acceptable &= within_bound(w.name, (m.name, m.unit, m.better, m.bound), va, vb);
        }
        for m in PER_LAYER {
            let (Some(bound), Some(va)) = (m.bound, wa.per_layer.get(m.name)) else {
                continue;
            };
            // 0: this workload never enters the layer.
            if median(va) == 0.0 {
                continue;
            }
            let Some(vb) = wb.per_layer.get(m.name) else {
                println!("{:<13} {:<36} missing", w.name, m.name);
                acceptable = false;
                continue;
            };
            acceptable &= within_bound(w.name, (m.name, m.unit, m.better, bound), va, vb);
        }
        if a.seed != b.seed {
            continue;
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (va, vb) = (wa.per_layer.get(m.name), wb.per_layer.get(m.name));
            let n = va.map_or(0, Vec::len).min(vb.map_or(0, Vec::len));
            if va.map(|v| &v[..n]) != vb.map(|v| &v[..n]) {
                println!(
                    "{:<13} {:<36} count differs: {va:?} vs {vb:?}",
                    w.name, m.name
                );
                acceptable = false;
            }
        }
    }
    acceptable
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(seed: u64, throughput: &[f64], seeks: f64) -> ResultFile {
        file_with_lookups(seed, throughput, seeks, 600_000.0)
    }

    fn file_with_lookups(seed: u64, throughput: &[f64], seeks: f64, lookups: f64) -> ResultFile {
        let mut workloads = BTreeMap::new();
        for w in WORKLOADS {
            let mut sets = WorkloadSets::default();
            for &t in throughput {
                let e2e = END_TO_END.iter().map(|m| {
                    let v = if m.name == "throughput_per_s" { t } else { 1.5 };
                    (m.name, m.unit, v)
                });
                sets.absorb(&result_line(10, 0, e2e), false).unwrap();
                let layers = [
                    ("platform.disk_seeks", "count", seeks),
                    ("core.store.lookups_per_s", "1/s", lookups),
                    ("viz.backend.first_visit_ms_p50", "ms", 0.0),
                ];
                sets.absorb(&result_line(10, 0, layers), true).unwrap();
            }
            workloads.insert(w.name.to_string(), sets);
        }
        ResultFile {
            seed,
            seconds: 20.0,
            host: "test \"host\"".into(),
            workloads,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_round_trips() {
        let line = result_line(7, 0, [("latency_ms_p50", "ms", 1.2034567890123)]);
        let doc = parse_json(&line).unwrap();
        let JsonValue::Object(top) = &doc else {
            panic!("not an object")
        };
        assert_eq!(
            top.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
        let m = doc.get("metrics").unwrap().get("latency_ms_p50").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1.2034567890123));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("ms"));
        assert!(!line.contains('\n'));
        let failed = parse_json(&result_line(7, 2, [])).unwrap();
        assert_eq!(failed.get("correct"), Some(&JsonValue::Bool(false)));
    }

    #[test]
    fn result_file_round_trips() {
        let f = file(3, &[100.0, 101.0, 99.0], 768.0);
        let back = ResultFile::parse(&f.to_json()).unwrap();
        assert_eq!(back.seed, 3);
        assert_eq!(back.host, "test \"host\"");
        let w = &back.workloads["batch-paper"];
        assert_eq!(w.end_to_end["throughput_per_s"], [100.0, 101.0, 99.0]);
        assert_eq!(w.per_layer["platform.disk_seeks"], [768.0; 3]);
        assert_eq!(w.attempted, [10.0; 6]);
    }

    #[test]
    fn compare_applies_bounds_counts_and_spread() {
        let base = file(1, &[100.0, 101.0, 99.0], 768.0);
        // Within the 10 % bound.
        assert!(compare(&base, &file(1, &[95.0, 96.0, 94.0], 768.0)));
        // 20 % lower throughput.
        assert!(!compare(&base, &file(1, &[80.0, 81.0, 79.0], 768.0)));
        // Same timings, one more seek at the same seed.
        assert!(!compare(&base, &file(1, &[100.0, 101.0, 99.0], 769.0)));
        // Counts are not compared across seeds.
        assert!(compare(&base, &file(2, &[100.0, 101.0, 99.0], 769.0)));
        // A bounded per-layer metric 20 % worse; one that reads 0 is skipped.
        let steady = [100.0, 101.0, 99.0];
        assert!(compare(
            &base,
            &file_with_lookups(1, &steady, 768.0, 550_000.0)
        ));
        assert!(!compare(
            &base,
            &file_with_lookups(1, &steady, 768.0, 480_000.0)
        ));
        // A wide spread is unresolved, not a regression.
        assert!(compare(&base, &file(1, &[70.0, 100.0, 130.0], 768.0)));
    }
}
