//! Structured event tracing.
//!
//! The trace model is the Chrome `trace_event` one, reduced to the two
//! shapes the GODIVA pipeline needs:
//!
//! - **instant events** — a point in time on one thread (`unit_added`,
//!   `read_failed`, `fault_injected`, …),
//! - **complete spans** — an interval with a duration (`read_unit`,
//!   `wait_unit`, a per-snapshot render, a simulated disk transfer).
//!
//! Events flow through a pluggable [`TraceSink`](crate::sink::TraceSink);
//! a [`Tracer`] is a cheap, cloneable handle that every instrumented
//! layer carries. A disabled tracer (the default) is a `None` + one
//! branch — instrumented code guards event construction with
//! [`Tracer::enabled`], so the disabled path allocates nothing.

use crate::sink::TraceSink;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A typed event-argument value (what Chrome's `args` object holds).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// Event arguments: a small ordered key/value list.
pub type Args = Vec<(&'static str, ArgValue)>;

/// One trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Microseconds since the tracer's epoch. For a complete span this is
    /// the span's *start*.
    pub ts_us: u64,
    /// `Some(duration)` makes this a complete span (`ph: "X"`); `None`
    /// an instant event (`ph: "i"`).
    pub dur_us: Option<u64>,
    /// Category (one per instrumented layer: `"gbo"`, `"disk"`,
    /// `"fault"`, `"viz"`, …).
    pub cat: &'static str,
    /// Event name (`"read_start"`, `"wait_unit"`, …).
    pub name: Cow<'static, str>,
    /// Logical thread id (small dense integers, stable per OS thread).
    pub tid: u64,
    /// Arguments.
    pub args: Args,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Dense logical id of the calling thread (1-based, assigned on first
/// use; stable for the thread's lifetime).
pub fn current_tid() -> u64 {
    TID.with(|t| *t)
}

thread_local! {
    static CURRENT_UNIT: std::cell::RefCell<Option<String>> = const { std::cell::RefCell::new(None) };
}

/// The unit the calling thread is currently serving, if any (set by the
/// executor around a unit read; consumed by lower layers — notably the
/// simulated disk — to stamp their spans with the requesting unit so the
/// critical-path analyzer can link disk time back to the wait it fed).
pub fn current_unit() -> Option<String> {
    CURRENT_UNIT.with(|u| u.borrow().clone())
}

/// Mark the calling thread as serving `unit` until the returned guard
/// drops (scopes nest: the previous unit, if any, is restored).
pub fn unit_scope(unit: &str) -> UnitScope {
    let prev = CURRENT_UNIT.with(|u| u.borrow_mut().replace(unit.to_string()));
    UnitScope { prev }
}

/// RAII guard restoring the previous per-thread unit context on drop.
/// Obtained from [`unit_scope`].
#[must_use = "dropping the guard immediately ends the unit scope"]
pub struct UnitScope {
    prev: Option<String>,
}

impl Drop for UnitScope {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT_UNIT.with(|u| *u.borrow_mut() = prev);
    }
}

struct TracerInner {
    sink: Arc<dyn TraceSink>,
    epoch: Instant,
}

/// A cheap, cloneable handle to a trace sink.
///
/// Clones share the sink and the time epoch, so events from every layer
/// (database, simulated disk, fault injector, renderer) land on one
/// common timeline.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// A tracer that drops everything at the cost of one branch.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer emitting into `sink`, with the epoch set to *now*.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        let enabled = sink.is_enabled();
        Tracer {
            inner: enabled.then(|| {
                Arc::new(TracerInner {
                    sink,
                    epoch: Instant::now(),
                })
            }),
        }
    }

    /// A tracer that additionally mirrors every event into `extra`.
    ///
    /// When this tracer is enabled the result shares its epoch (events
    /// from both stay on one timeline) and fans out through a
    /// [`crate::sink::FanoutSink`], whose internal lock guarantees both
    /// sinks observe the same event order. When this tracer is disabled
    /// the result emits into `extra` alone, with a fresh epoch — this is
    /// how the database installs its flight recorder even on otherwise
    /// untraced runs.
    pub fn tee(&self, extra: Arc<dyn TraceSink>) -> Tracer {
        match &self.inner {
            None => Tracer::new(extra),
            Some(inner) => Tracer {
                inner: Some(Arc::new(TracerInner {
                    sink: Arc::new(crate::sink::FanoutSink::new(vec![
                        Arc::clone(&inner.sink),
                        extra,
                    ])),
                    epoch: inner.epoch,
                })),
            },
        }
    }

    /// Whether events will actually be recorded. Instrumented hot paths
    /// guard argument construction with this, so a disabled tracer costs
    /// one branch and zero allocations.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since this tracer's epoch.
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    /// Emit an instant event.
    #[inline]
    pub fn instant(&self, cat: &'static str, name: impl Into<Cow<'static, str>>, args: Args) {
        if let Some(inner) = &self.inner {
            inner.sink.emit_owned(TraceEvent {
                ts_us: inner.epoch.elapsed().as_micros() as u64,
                dur_us: None,
                cat,
                name: name.into(),
                tid: current_tid(),
                args,
            });
        }
    }

    /// Emit a complete span that started at `start_us` (from
    /// [`Tracer::now_us`]) and ends now.
    pub fn complete(
        &self,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        start_us: u64,
        args: Args,
    ) {
        if let Some(inner) = &self.inner {
            let now = inner.epoch.elapsed().as_micros() as u64;
            inner.sink.emit_owned(TraceEvent {
                ts_us: start_us,
                dur_us: Some(now.saturating_sub(start_us)),
                cat,
                name: name.into(),
                tid: current_tid(),
                args,
            });
        }
    }

    /// Emit a complete span with an explicitly provided duration (used
    /// by the disk model, whose "duration" is the simulated cost).
    pub fn complete_with_dur(
        &self,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        start_us: u64,
        dur_us: u64,
        args: Args,
    ) {
        if let Some(inner) = &self.inner {
            inner.sink.emit_owned(TraceEvent {
                ts_us: start_us,
                dur_us: Some(dur_us),
                cat,
                name: name.into(),
                tid: current_tid(),
                args,
            });
        }
    }

    /// Start a span guard; the span is emitted when the guard drops (or
    /// at [`Span::end`] with extra arguments).
    pub fn span(&self, cat: &'static str, name: impl Into<Cow<'static, str>>, args: Args) -> Span {
        Span {
            tracer: self.clone(),
            cat,
            name: if self.enabled() {
                Some(name.into())
            } else {
                None
            },
            start_us: self.now_us(),
            args,
        }
    }

    /// Flush the underlying sink, if any.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }
}

/// RAII guard emitting a complete span on drop.
pub struct Span {
    tracer: Tracer,
    cat: &'static str,
    /// `None` when the tracer is disabled (so the guard is free).
    name: Option<Cow<'static, str>>,
    start_us: u64,
    args: Args,
}

impl Span {
    /// End the span now, appending `extra` arguments first.
    pub fn end(mut self, extra: Args) {
        self.args.extend(extra);
        drop(self);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            self.tracer.complete(
                self.cat,
                name,
                self.start_us,
                std::mem::take(&mut self.args),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn disabled_tracer_emits_nothing() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.instant("cat", "ev", vec![]);
        let _span = t.span("cat", "sp", vec![]);
    }

    #[test]
    fn instant_and_span_reach_sink() {
        let sink = Arc::new(MemorySink::new());
        let t = Tracer::new(sink.clone());
        t.instant("gbo", "unit_added", vec![("unit", "a".into())]);
        {
            let s = t.span("gbo", "read_unit", vec![("unit", "a".into())]);
            s.end(vec![("status", "ok".into())]);
        }
        let events = sink.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "unit_added");
        assert!(events[0].dur_us.is_none());
        assert_eq!(events[1].name, "read_unit");
        assert!(events[1].dur_us.is_some());
        assert_eq!(events[1].args.len(), 2);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let sink = Arc::new(MemorySink::new());
        let t = Tracer::new(sink.clone());
        for i in 0..10u64 {
            t.instant("t", "tick", vec![("i", i.into())]);
        }
        let ts: Vec<u64> = sink.snapshot().iter().map(|e| e.ts_us).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn tee_mirrors_events_and_preserves_epoch() {
        let main = Arc::new(MemorySink::new());
        let extra = Arc::new(MemorySink::new());
        let t = Tracer::new(main.clone());
        let teed = t.tee(extra.clone());
        teed.instant("gbo", "ev", vec![]);
        assert_eq!(main.len(), 1);
        assert_eq!(extra.len(), 1);
        assert_eq!(main.snapshot(), extra.snapshot());
        // Shared epoch: the original tracer's clock reads the same time
        // base as the teed one (within scheduling slack).
        assert!(t.now_us().abs_diff(teed.now_us()) < 1_000_000);

        // Disabled original: tee still records into `extra`.
        let teed = Tracer::disabled().tee(extra.clone());
        assert!(teed.enabled());
        teed.instant("gbo", "ev2", vec![]);
        assert_eq!(extra.len(), 2);
    }

    #[test]
    fn unit_scope_nests_and_restores() {
        assert_eq!(current_unit(), None);
        {
            let _a = unit_scope("t0/a");
            assert_eq!(current_unit().as_deref(), Some("t0/a"));
            {
                let _b = unit_scope("t0/b");
                assert_eq!(current_unit().as_deref(), Some("t0/b"));
            }
            assert_eq!(current_unit().as_deref(), Some("t0/a"));
        }
        assert_eq!(current_unit(), None);
        // Scopes are per-thread: a fresh thread starts clean.
        let _a = unit_scope("t0/a");
        let other = std::thread::spawn(current_unit).join().unwrap();
        assert_eq!(other, None);
    }

    #[test]
    fn tids_are_stable_per_thread() {
        let a = current_tid();
        let b = current_tid();
        assert_eq!(a, b);
        let other = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(a, other);
    }
}
