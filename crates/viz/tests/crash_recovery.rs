//! Kill-injection harness (DESIGN.md §5g): abort a voyager render at
//! randomized WAL kill points, resume it with `--resume`, and require
//! the resumed run to finish with byte-identical images.
//!
//! Each round runs the real `voyager` binary three times:
//!
//! 1. a **baseline** uninterrupted two-sweep G-mode render under a
//!    1 MB budget with a spill tier and a WAL — every snapshot is
//!    evicted, spilled and revisited;
//! 2. a **crashed** run in fresh directories with
//!    `GODIVA_CRASH_AT=wal_append:<n>` — the process must die
//!    abnormally (`abort()`, not a clean error exit);
//! 3. a **resumed** run (`--resume`) over the crashed run's WAL and
//!    spill directories, which must succeed and must have
//!    `gbo.wal_replayed > 0`.
//!
//! The kill points are drawn pseudo-randomly (seeded from wall-clock
//! nanos, printed for reproduction) from the LSN range *after the first
//! journaled spill frame* — so at least one published `.gsp` frame
//! survives the crash and the resumed run must serve a revisit from a
//! **re-adopted** frame: the trace must show a `spill_hit` for an
//! adopted unit before any `spill_write` for that unit.
//!
//! A second case resumes from a **snapshot** instead of a crash: render
//! with `--snapshot-out SNAP`, then `--resume` with `--wal-dir` and
//! `--spill-dir` both pointed at a copy of `SNAP` — a snapshot
//! directory is a log plus frames, which is all `--resume` asks for.

use godiva_core::wal::scan_log;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const VOYAGER: &str = env!("CARGO_BIN_EXE_voyager");
const KILL_POINTS: usize = 3;

fn run(dir: &Path, args: &[&str], env: &[(&str, String)]) -> Output {
    let mut cmd = Command::new(VOYAGER);
    cmd.current_dir(dir).args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("voyager must spawn")
}

/// `GODIVA_IO_THREADS` > 1 runs the harness on the multi-worker TG
/// executor instead of the paper's single-thread G build (CI exercises
/// both). Background prefetch makes the journal's append *order*
/// nondeterministic, so the adopted-revisit assertion is G-only.
fn io_threads() -> usize {
    std::env::var("GODIVA_IO_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|n| *n > 1)
        .unwrap_or(1)
}

fn render_args<'a>(
    spill: &'a str,
    wal: &'a str,
    out: &'a str,
    threads: &'a str,
    extra: &'a [&'a str],
) -> Vec<&'a str> {
    let mut args = vec![
        "render",
        "--data",
        "data",
        "--ops",
        "specs/simple.ops",
        "--sweeps",
        "2",
        "--spill-dir",
        spill,
        "--wal-dir",
        wal,
        "--out",
        out,
    ];
    if io_threads() > 1 {
        // The background prefetcher holds an in-flight unit of its own,
        // so the TG variant needs headroom the G build does not.
        args.extend_from_slice(&["--mem", "2", "--mode", "TG", "--io-threads", threads]);
    } else {
        args.extend_from_slice(&["--mem", "1", "--mode", "G"]);
    }
    args.extend_from_slice(extra);
    args
}

/// Map of image file name → `(len, fnv64)` under `<out>/frames/` — a
/// digest, so a mismatch assertion prints checksums, not megabytes.
fn frames(dir: &Path, out: &str) -> BTreeMap<String, (usize, u64)> {
    let mut map = BTreeMap::new();
    for e in std::fs::read_dir(dir.join(out).join("frames")).expect("frames dir") {
        let e = e.unwrap();
        let bytes = std::fs::read(e.path()).unwrap();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in &bytes {
            h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        map.insert(
            e.file_name().to_string_lossy().into_owned(),
            (bytes.len(), h),
        );
    }
    map
}

/// Pull `"<name>":{"type":"counter","value":N}` out of a metrics JSON
/// dump without a JSON parser.
fn counter(json: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\":{{\"type\":\"counter\",\"value\":");
    let start = json
        .find(&needle)
        .unwrap_or_else(|| panic!("{name} missing"))
        + needle.len();
    json[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

/// The `"unit"` arg of a trace event line, if present.
fn unit_arg(line: &str) -> Option<&str> {
    let start = line.find("\"unit\":\"")? + 8;
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

/// A fresh work directory holding a tiny dataset + the stock test specs.
fn workdir_with_dataset(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "godiva-crash-recovery-{case}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let gen = run(
        &dir,
        &["generate", "--data", "data", "--snapshots", "4"],
        &[],
    );
    assert!(gen.status.success(), "generate failed: {gen:?}");
    let specs = run(&dir, &["example-specs", "specs"], &[]);
    assert!(specs.status.success(), "example-specs failed: {specs:?}");
    dir
}

/// Spill hits on units this process adopted and has not yet re-spilled:
/// revisits that only a recovered frame can have served.
fn adopted_revisits_in(trace: &Path) -> usize {
    let (mut adopted, mut rewritten) = (BTreeSet::new(), BTreeSet::new());
    let mut revisits = 0;
    for line in std::fs::read_to_string(trace).unwrap().lines() {
        let Some(unit) = unit_arg(line) else { continue };
        if line.contains("\"name\":\"spill_adopt\"") {
            adopted.insert(unit.to_string());
        } else if line.contains("\"name\":\"spill_write\"") {
            rewritten.insert(unit.to_string());
        } else if line.contains("\"name\":\"spill_hit\"")
            && adopted.contains(unit)
            && !rewritten.contains(unit)
        {
            revisits += 1;
        }
    }
    revisits
}

#[test]
fn killed_render_resumes_to_identical_images() {
    let dir = workdir_with_dataset("kill");

    let threads = io_threads().to_string();
    // Baseline, uninterrupted.
    let base = run(
        &dir,
        &render_args("spill0", "wal0", "out0", &threads, &[]),
        &[],
    );
    assert!(base.status.success(), "baseline failed: {base:?}");
    let base_frames = frames(&dir, "out0");
    assert!(!base_frames.is_empty(), "baseline produced no images");

    // The kill-point range: after the first journaled spill frame (so a
    // re-adoptable `.gsp` exists) and before the log's end (so the crash
    // actually interrupts work).
    let scan = scan_log(&dir.join("wal0").join("wal.log")).unwrap();
    let total = scan.records.last().expect("baseline journaled nothing").lsn;
    let first_spill = scan
        .records
        .iter()
        .find(|r| r.entry.kind() == "unit_spilled")
        .expect("this budget over 4 snapshots must spill")
        .lsn;
    assert!(first_spill + 2 < total, "no room for kill points");

    let seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .subsec_nanos() as u64;
    println!(
        "kill-point seed: {seed} (lsn range {}..{total})",
        first_spill + 1
    );
    let mut state = seed | 1;
    let mut adopted_revisits = 0usize;
    for round in 0..KILL_POINTS {
        // xorshift64 — no rand dependency needed for three draws.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let kill = first_spill + 1 + state % (total - first_spill - 1);
        let (spill, wal, out) = (
            format!("spill{}", round + 1),
            format!("wal{}", round + 1),
            format!("out{}", round + 1),
        );
        let metrics = format!("metrics{}.json", round + 1);
        let trace = format!("trace{}.jsonl", round + 1);

        let crashed = run(
            &dir,
            &render_args(&spill, &wal, &out, &threads, &[]),
            &[("GODIVA_CRASH_AT", format!("wal_append:{kill}"))],
        );
        assert!(
            !crashed.status.success(),
            "round {round}: GODIVA_CRASH_AT=wal_append:{kill} did not kill the run"
        );

        let resumed = run(
            &dir,
            &render_args(
                &spill,
                &wal,
                &out,
                &threads,
                &[
                    "--resume",
                    "--metrics-json",
                    &metrics,
                    "--trace-out",
                    &trace,
                ],
            ),
            &[],
        );
        assert!(
            resumed.status.success(),
            "round {round}: resume after wal_append:{kill} failed: {}",
            String::from_utf8_lossy(&resumed.stderr)
        );

        // The journal replayed, and the images came out identical.
        let json = std::fs::read_to_string(dir.join(&metrics)).unwrap();
        let replayed = counter(&json, "gbo.wal_replayed");
        assert!(
            replayed > 0,
            "round {round}: nothing replayed after crash at {kill}"
        );
        assert_eq!(
            frames(&dir, &out),
            base_frames,
            "round {round}: resumed images differ from baseline (kill point {kill})"
        );

        // Revisit-from-adopted-frame: a spill_hit on an adopted unit
        // with no earlier spill_write for that unit in this process.
        adopted_revisits += adopted_revisits_in(&dir.join(&trace));
    }
    // Kill points land strictly after the first journaled frame, so at
    // least one resumed run must have served a revisit from it. On the
    // TG executor the crashed run's own append order can differ from
    // the baseline's, so there the check is informational only.
    if io_threads() > 1 {
        println!("adopted-frame revisits across {KILL_POINTS} rounds: {adopted_revisits}");
    } else {
        assert!(
            adopted_revisits > 0,
            "no resumed run served a revisit from a re-adopted spill frame (seed {seed})"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
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

/// `--snapshot-out SNAP`, then `--resume` on a copy of `SNAP`: identical
/// images, a replayed journal, revisits served from the snapshot's
/// frames, and a trace `trace_check` accepts.
#[test]
fn snapshot_directory_resumes_a_render() {
    let dir = workdir_with_dataset("snapshot");
    let threads = io_threads().to_string();
    let first = run(
        &dir,
        &render_args(
            "spill0",
            "wal0",
            "out0",
            &threads,
            &["--snapshot-out", "snap"],
        ),
        &[],
    );
    assert!(first.status.success(), "first render failed: {first:?}");
    let stdout = String::from_utf8_lossy(&first.stdout);
    assert!(
        stdout.contains("snapshot: lsn "),
        "no snapshot line: {stdout}"
    );
    let scan = scan_log(&dir.join("snap").join("wal.log")).unwrap();
    assert!(!scan.truncated && !scan.records.is_empty());

    // The snapshot stays a backup: the resumed run appends to a copy.
    copy_tree(&dir.join("snap"), &dir.join("resumed"));
    let resumed = run(
        &dir,
        &render_args(
            "resumed",
            "resumed",
            "out1",
            &threads,
            &[
                "--resume",
                "--metrics-json",
                "metrics.json",
                "--trace-out",
                "trace.jsonl",
            ],
        ),
        &[],
    );
    assert!(
        resumed.status.success(),
        "resume from the snapshot failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(frames(&dir, "out1"), frames(&dir, "out0"));
    let json = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
    assert_eq!(
        counter(&json, "gbo.wal_replayed"),
        scan.records.len() as u64
    );
    assert!(
        adopted_revisits_in(&dir.join("trace.jsonl")) > 0,
        "no revisit was served from a frame adopted out of the snapshot"
    );

    // `trace_check` is godiva-obs's binary: it sits beside voyager when
    // the workspace's tests are built together (`cargo test` from the
    // root), not under `-p godiva-viz` alone.
    let trace_check = Path::new(VOYAGER).with_file_name("trace_check");
    assert!(
        trace_check.exists(),
        "{} is missing: cargo build -p godiva-obs --bin trace_check",
        trace_check.display()
    );
    let checked = Command::new(trace_check)
        .arg(dir.join("trace.jsonl"))
        .output()
        .expect("trace_check must spawn");
    assert!(checked.status.success(), "trace_check: {checked:?}");

    let _ = std::fs::remove_dir_all(&dir);
}
