//! `godiva-perf`: end-to-end and per-layer benchmark of the GODIVA
//! reproduction. See README.md in this directory.

mod alloc;
mod browse;
mod catalogue;
mod harness;
mod opmix;
mod probes;
mod render;
mod report;
mod spans;
mod stats;

use catalogue::{END_TO_END, PER_LAYER, WORKLOADS};
use harness::{Ctx, Gate, Metrics, WorkDir};
use report::{ResultFile, WorkloadSets};
use spans::Spans;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage:
  godiva-perf --workload NAME --seed N --seconds S --trace 0|1 [--trace-dir DIR]
  godiva-perf --all [--seed N] [--seconds S] [--sets K] [--json OUT] [--trace-dir DIR]
  godiva-perf --list
  godiva-perf --benchmark-json
  godiva-perf --compare A.json B.json";

/// Command-line options.
struct Args {
    workload: Option<String>,
    all: bool,
    list: bool,
    benchmark_json: bool,
    compare: Option<(PathBuf, PathBuf)>,
    seed: u64,
    seconds: f64,
    traced: bool,
    sets: u64,
    json: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        list: false,
        benchmark_json: false,
        compare: None,
        seed: 1,
        seconds: catalogue::RUN_SECONDS as f64,
        traced: false,
        sets: 1,
        json: None,
        trace_dir: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--sets" => args.sets = value()?.parse().map_err(|e| format!("--sets: {e}"))?,
            "--json" => args.json = Some(value()?.into()),
            "--trace-dir" => args.trace_dir = Some(value()?.into()),
            "--all" => args.all = true,
            "--list" => args.list = true,
            "--benchmark-json" => args.benchmark_json = true,
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if let Some(w) = &args.workload {
        if catalogue::workload(w).is_none() {
            return Err(format!("unknown workload {w} (see --list)"));
        }
    }
    Ok(args)
}

/// One pass of one workload in this process. Prints every metric by
/// name with its unit, then the result line.
fn run_pass(args: &Args, workload: &str) -> Result<bool, String> {
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        spans: Arc::new(Spans::new(args.traced)),
        gate: Gate::default(),
        metrics: Metrics::new(),
        work: WorkDir::create().map_err(|e| format!("scratch directory: {e}"))?,
    };
    if args.traced {
        // While the process still has every processor it was given.
        probes::host(&mut ctx);
    }
    harness::pin_to_one_cpu();
    match workload {
        "batch-cpu" => render::run(&mut ctx, render::Batch::Cpu),
        "batch-paper" => render::run(&mut ctx, render::Batch::Paper),
        "browse-spill" => browse::run(&mut ctx),
        "gbo-opmix" => opmix::run(&mut ctx),
        other => return Err(format!("unknown workload {other}")),
    }
    if args.traced {
        // The probes' spans go under a run number of their own.
        ctx.spans.set_run(ctx.spans.run() + 1);
        probes::run_all(&mut ctx);
        let dir = match &args.trace_dir {
            Some(dir) => dir.clone(),
            None => harness::target_dir().join("godiva-perf-traces"),
        };
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{workload}-seed{}.jsonl", args.seed));
        ctx.spans
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    ctx.put("peak_rss_mb", harness::peak_rss_mb());

    // A per-layer metric a workload does not produce is a layer it never
    // entered: 0. An end-to-end metric must always be there.
    let value = |name: &str| ctx.metrics.get(name).copied();
    let metrics: Vec<(&'static str, &'static str, f64)> = if args.traced {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, value(m.name).unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let v = value(m.name).filter(|v| *v > 0.0 && v.is_finite());
                v.map(|v| (m.name, m.unit, v))
                    .ok_or(format!("{workload}: no value for {}", m.name))
            })
            .collect::<Result<_, _>>()?
    };
    for (name, unit, v) in &metrics {
        println!("{workload} {name} {v} {unit}");
    }
    println!(
        "{workload} operations attempted {} failed {}",
        ctx.gate.attempted, ctx.gate.failed
    );
    println!(
        "{}",
        report::result_line(ctx.gate.attempted, ctx.gate.failed, metrics)
    );
    Ok(ctx.gate.failed == 0)
}

/// `--all`: every workload, untraced then traced, each pass in a child
/// process of its own so peak memory and allocator state do not leak
/// from one workload into the next.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut workloads: BTreeMap<String, WorkloadSets> = BTreeMap::new();
    let mut ok = true;
    for set in 0..args.sets {
        for w in WORKLOADS {
            for traced in [false, true] {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", w.name])
                    .args(["--seed", &(args.seed + set).to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }]);
                if let Some(dir) = &args.trace_dir {
                    cmd.arg("--trace-dir").arg(dir);
                }
                let out = cmd
                    .output()
                    .map_err(|e| format!("{}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&out.stdout);
                let Some(line) = stdout.lines().last() else {
                    return Err(format!(
                        "{} printed no result: {}",
                        w.name,
                        String::from_utf8_lossy(&out.stderr)
                    ));
                };
                workloads
                    .entry(w.name.to_string())
                    .or_default()
                    .absorb(line, traced)
                    .map_err(|e| format!("{}: bad result line ({e})", w.name))?;
                ok &= out.status.success();
                eprintln!(
                    "set {set} {} {} done",
                    w.name,
                    if traced { "traced" } else { "untraced" }
                );
            }
        }
    }
    let file = ResultFile {
        seed: args.seed,
        seconds: args.seconds,
        host: host_line(),
        workloads,
    };
    file.print();
    if let Some(path) = &args.json {
        std::fs::write(path, file.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(ok)
}

/// Where the numbers were taken.
fn host_line() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown cpu", |l| l.trim_start_matches([' ', '\t', ':']));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("{model}, {nproc} processors, {}", std::env::consts::OS)
}

fn read_results(path: &Path) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    ResultFile::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        if args.list {
            catalogue::print_list();
            Ok(true)
        } else if args.benchmark_json {
            print!("{}", catalogue::benchmark_json());
            Ok(true)
        } else if let Some((a, b)) = &args.compare {
            Ok(report::compare(&read_results(a)?, &read_results(b)?))
        } else if args.all {
            run_all(&args)
        } else if let Some(w) = &args.workload {
            run_pass(&args, w)
        } else {
            Err(USAGE.into())
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("godiva-perf: {message}");
            ExitCode::from(2)
        }
    }
}
