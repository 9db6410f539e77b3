//! The benchmark's own in-memory span log.
//!
//! Spans are recorded here, around the calls the benchmark makes into
//! each layer's public functions, not inside the library: the library's
//! tracer stays off (its default), and the traced pass costs two clock
//! reads and two uncontended lock operations per span. A span's name is
//! `<layer>.<call>`.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in the log.
pub type SpanId = u32;
const NO_SPAN: SpanId = u32::MAX;

thread_local! {
    /// Innermost open span on this thread.
    static CURRENT: Cell<SpanId> = const { Cell::new(NO_SPAN) };
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one: the enclosing span on the same
    /// thread, or the main-thread span that queued a reader's work.
    pub parent: Option<SpanId>,
    /// Which run of the workload the span belongs to.
    pub run: u32,
    pub thread: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder; while switched off it runs the closure and records
/// nothing.
pub struct Spans {
    /// A switch only: it publishes no other data, so `Relaxed` suffices.
    on: AtomicBool,
    epoch: Instant,
    log: Mutex<Vec<Span>>,
    /// A label only: it publishes no other data, so `Relaxed` suffices.
    run: AtomicU32,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on: AtomicBool::new(on),
            epoch: Instant::now(),
            log: Mutex::new(Vec::new()),
            run: AtomicU32::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Switch recording on or off (between runs).
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Label the spans that follow with run number `run`.
    pub fn set_run(&self, run: u32) {
        self.run.store(run, Ordering::Relaxed);
    }

    /// The label spans currently get.
    pub fn run(&self) -> u32 {
        self.run.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Innermost open span on the calling thread, to hand to work that
    /// another thread will do on its behalf.
    pub fn current(&self) -> Option<SpanId> {
        let id = CURRENT.get();
        (self.enabled() && id != NO_SPAN).then_some(id)
    }

    /// Time `f` as a child of the calling thread's innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_caused_by(name, self.current(), f)
    }

    /// Time `f` with an explicit cause (a span of another thread).
    pub fn span_caused_by<T>(
        &self,
        name: &'static str,
        cause: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled() {
            return f();
        }
        let outer = CURRENT.get();
        let id = {
            let mut log = self.log.lock().expect("span log poisoned");
            log.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: cause,
                run: self.run(),
                thread: godiva_obs::current_tid(),
            });
            (log.len() - 1) as SpanId
        };
        CURRENT.set(id);
        let out = f();
        let end = self.now_ns();
        self.log.lock().expect("span log poisoned")[id as usize].end_ns = end;
        CURRENT.set(outer);
        out
    }

    /// Everything recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.log.lock().expect("span log poisoned").clone()
    }

    /// Write the log as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.snapshot().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{},\"thread\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run, s.thread
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that child spans *on the same thread* cover. A reader-thread span
/// caused by a main-thread span runs concurrently with it and is not
/// subtracted. Overlapping children are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            if parent.thread == s.thread {
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p as usize].push((lo, hi));
                }
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Self seconds summed per (run, span name, thread): small enough to
/// query many times, where the log itself can hold a million spans.
pub struct SelfTimes(BTreeMap<(u32, &'static str, u64), f64>);

impl SelfTimes {
    pub fn of(spans: &[Span]) -> SelfTimes {
        let mut sums = BTreeMap::new();
        for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
            *sums.entry((s.run, s.name, s.thread)).or_insert(0.0) += ns as f64 * 1e-9;
        }
        SelfTimes(sums)
    }

    /// One sum per run over the (name, thread) pairs `pick` selects; a
    /// run in which nothing was picked contributes 0.
    pub fn per_run(&self, pick: impl Fn(&str, u64) -> bool) -> Vec<f64> {
        let mut runs: BTreeMap<u32, f64> = BTreeMap::new();
        for (&(run, name, thread), &secs) in &self.0 {
            *runs.entry(run).or_insert(0.0) += if pick(name, thread) { secs } else { 0.0 };
        }
        runs.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, thread: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            run: 0,
            thread,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span("bench.run", 0, 100, None, 1),
            span("a.outer", 10, 60, Some(0), 1),
            span("a.inner", 20, 30, Some(1), 1),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("bench.run", 0, 100, None, 1),
            span("a.x", 10, 50, Some(0), 1),
            span("a.y", 40, 70, Some(0), 1),
            // Sticks out past the parent: clipped to it.
            span("a.z", 90, 120, Some(0), 1),
        ];
        // Covered: [10,70) and [90,100) = 70.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn other_threads_children_are_not_subtracted() {
        let spans = vec![
            span("core.units.add_unit", 0, 10, None, 1),
            span("core.store.commit_records", 5, 500, Some(0), 2),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 495]);
    }

    #[test]
    fn recorder_nests_and_restores_the_current_span() {
        let spans = Spans::new(true);
        spans.set_run(3);
        let inner_parent = spans.span("bench.run", || {
            assert_eq!(spans.current(), Some(0));
            spans.span("viz.raster.rasterize", || spans.current())
        });
        assert_eq!(inner_parent, Some(1));
        assert_eq!(spans.current(), None);
        let log = spans.snapshot();
        assert_eq!(log[1].parent, Some(0));
        assert_eq!(log[1].run, 3);
        assert!(log[0].start_ns <= log[1].start_ns && log[1].end_ns <= log[0].end_ns);
        let times = SelfTimes::of(&log);
        let all = times.per_run(|_, _| true);
        assert_eq!(all.len(), 1);
        assert!((all[0] - log[0].dur_ns() as f64 * 1e-9).abs() < 1e-12);
        let raster = times.per_run(|name, _| name.starts_with("viz.raster."));
        assert!((raster[0] - log[1].dur_ns() as f64 * 1e-9).abs() < 1e-12);
        assert_eq!(times.per_run(|name, _| name == "absent"), [0.0]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let spans = Spans::new(false);
        assert_eq!(spans.span("a.b", || 7), 7);
        assert!(spans.snapshot().is_empty());
        assert_eq!(spans.current(), None);
    }
}
