//! Trace sinks: where events go.
//!
//! - [`NullSink`] — reports itself disabled; the tracer drops events
//!   before constructing them (the "compiled-out" configuration without
//!   a rebuild).
//! - [`MemorySink`] — buffers events in memory; what tests assert on.
//! - [`JsonlSink`] — one JSON object per line, the streaming format the
//!   CI checker and the integration tests validate.
//! - [`ChromeTraceSink`] — a Chrome `trace_event` JSON array, loadable
//!   directly in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Both file formats serialize the same [`TraceEvent`] fields:
//! `ts`/`dur` in microseconds, `ph` `"i"` (instant) or `"X"` (complete
//! span), `cat`, `name`, `pid`/`tid`, and an `args` object.

use crate::trace::{ArgValue, TraceEvent};
use parking_lot::Mutex;
use std::io::Write;
use std::sync::Arc;

/// Receives every event a [`crate::Tracer`] emits. Implementations must
/// be thread-safe: the background I/O thread, the render thread and the
/// disk model all emit concurrently.
pub trait TraceSink: Send + Sync {
    /// Record one event.
    fn emit(&self, event: &TraceEvent);
    /// Record one event the caller is done with. The tracer hands every
    /// event in this way; a sink that keeps events overrides it to keep
    /// this one instead of a deep copy (its `Vec` of arguments and their
    /// `String`s). Defaults to [`TraceSink::emit`].
    fn emit_owned(&self, event: TraceEvent) {
        self.emit(&event);
    }
    /// Flush buffered output (no-op by default).
    fn flush(&self) {}
    /// Write any trailing bytes the format needs and flush. Idempotent;
    /// also invoked on drop by sinks that need it (no-op by default).
    fn finish(&self) {}
    /// `false` lets the tracer skip event construction entirely.
    fn is_enabled(&self) -> bool {
        true
    }
}

/// A sink that discards everything and tells the tracer so.
#[derive(Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&self, _event: &TraceEvent) {}
    fn is_enabled(&self) -> bool {
        false
    }
}

/// An in-memory event buffer for tests and programmatic inspection.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy of all events recorded so far, in emission order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl TraceSink for MemorySink {
    fn emit(&self, event: &TraceEvent) {
        self.emit_owned(event.clone());
    }

    fn emit_owned(&self, event: TraceEvent) {
        self.events.lock().push(event);
    }
}

/// A sink that replicates every event into several child sinks.
///
/// Emission into the children is serialized under one internal lock, so
/// all children observe the *same relative order* of events — the
/// guarantee that makes a [`crate::FlightRecorder`] dump a contiguous
/// run of any full trace written through the same fanout.
pub struct FanoutSink {
    sinks: Vec<Arc<dyn TraceSink>>,
    order: Mutex<()>,
}

impl FanoutSink {
    /// Fan out into `sinks` (disabled children are kept but skipped).
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        FanoutSink {
            sinks,
            order: Mutex::new(()),
        }
    }
}

impl TraceSink for FanoutSink {
    fn emit(&self, event: &TraceEvent) {
        let _order = self.order.lock();
        for sink in &self.sinks {
            if sink.is_enabled() {
                sink.emit(event);
            }
        }
    }

    /// The last child gets the event itself, the others a reference.
    fn emit_owned(&self, event: TraceEvent) {
        let Some((last, rest)) = self.sinks.split_last() else {
            return;
        };
        let _order = self.order.lock();
        for sink in rest {
            if sink.is_enabled() {
                sink.emit(&event);
            }
        }
        if last.is_enabled() {
            last.emit_owned(event);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }

    fn finish(&self) {
        for sink in &self.sinks {
            sink.finish();
        }
    }

    fn is_enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.is_enabled())
    }
}

/// Append `s` to `out` as a JSON string literal.
pub fn escape_json_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn arg_value_into(out: &mut String, v: &ArgValue) {
    match v {
        ArgValue::U64(n) => out.push_str(&n.to_string()),
        ArgValue::I64(n) => out.push_str(&n.to_string()),
        ArgValue::F64(x) if x.is_finite() => out.push_str(&format!("{x}")),
        ArgValue::F64(_) => out.push_str("null"),
        ArgValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        ArgValue::Str(s) => escape_json_into(out, s),
    }
}

/// Serialize one event as a Chrome `trace_event` JSON object (no
/// trailing newline).
pub fn event_to_json(event: &TraceEvent) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"ts\":");
    out.push_str(&event.ts_us.to_string());
    match event.dur_us {
        Some(d) => {
            out.push_str(",\"dur\":");
            out.push_str(&d.to_string());
            out.push_str(",\"ph\":\"X\"");
        }
        None => {
            // "s":"t" scopes the instant marker to its thread track.
            out.push_str(",\"ph\":\"i\",\"s\":\"t\"");
        }
    }
    out.push_str(",\"cat\":");
    escape_json_into(&mut out, event.cat);
    out.push_str(",\"name\":");
    escape_json_into(&mut out, &event.name);
    out.push_str(",\"pid\":1,\"tid\":");
    out.push_str(&event.tid.to_string());
    out.push_str(",\"args\":{");
    for (i, (k, v)) in event.args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_json_into(&mut out, k);
        out.push(':');
        arg_value_into(&mut out, v);
    }
    out.push_str("}}");
    out
}

/// A sink writing one JSON object per line (JSONL).
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlSink {
    /// Write events to `out`, one per line.
    pub fn new(out: impl Write + Send + 'static) -> Self {
        JsonlSink {
            out: Mutex::new(Box::new(out)),
        }
    }

    /// Write events to a buffered file at `path`.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(std::io::BufWriter::new(file)))
    }
}

impl TraceSink for JsonlSink {
    fn emit(&self, event: &TraceEvent) {
        let mut line = event_to_json(event);
        line.push('\n');
        let mut out = self.out.lock();
        let _ = out.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let _ = self.out.lock().flush();
    }

    fn finish(&self) {
        self.flush();
    }
}

struct ChromeState {
    out: Box<dyn Write + Send>,
    events_written: u64,
    finished: bool,
}

/// A sink writing the Chrome `trace_event` JSON array format.
///
/// Call [`TraceSink::finish`] (or drop the sink) after the run to write
/// the closing bracket; the file then loads in `chrome://tracing` and
/// Perfetto.
pub struct ChromeTraceSink {
    state: Mutex<ChromeState>,
}

impl ChromeTraceSink {
    /// Write events to `out` as a JSON array.
    pub fn new(out: impl Write + Send + 'static) -> Self {
        ChromeTraceSink {
            state: Mutex::new(ChromeState {
                out: Box::new(out),
                events_written: 0,
                finished: false,
            }),
        }
    }

    /// Write events to a buffered file at `path`.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(std::io::BufWriter::new(file)))
    }
}

impl TraceSink for ChromeTraceSink {
    fn emit(&self, event: &TraceEvent) {
        let json = event_to_json(event);
        let mut st = self.state.lock();
        if st.finished {
            return;
        }
        let lead = if st.events_written == 0 { "[\n" } else { ",\n" };
        let _ = st.out.write_all(lead.as_bytes());
        let _ = st.out.write_all(json.as_bytes());
        st.events_written += 1;
    }

    fn flush(&self) {
        let _ = self.state.lock().out.flush();
    }

    fn finish(&self) {
        let mut st = self.state.lock();
        if st.finished {
            return;
        }
        st.finished = true;
        let trailer: &[u8] = if st.events_written == 0 {
            b"[]\n"
        } else {
            b"\n]\n"
        };
        let _ = st.out.write_all(trailer);
        let _ = st.out.flush();
    }
}

impl Drop for ChromeTraceSink {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;
    use std::sync::Arc;

    fn sample(name: &'static str, dur: Option<u64>) -> TraceEvent {
        TraceEvent {
            ts_us: 42,
            dur_us: dur,
            cat: "gbo",
            name: name.into(),
            tid: 3,
            args: vec![
                ("unit", ArgValue::Str("snap \"0\"\n".into())),
                ("bytes", ArgValue::U64(1024)),
                ("ok", ArgValue::Bool(true)),
            ],
        }
    }

    #[test]
    fn event_json_parses_and_round_trips_fields() {
        let json = event_to_json(&sample("read_unit", Some(7)));
        let v = parse_json(&json).expect("valid json");
        assert_eq!(v.get("ts").and_then(|x| x.as_u64()), Some(42));
        assert_eq!(v.get("dur").and_then(|x| x.as_u64()), Some(7));
        assert_eq!(v.get("ph").and_then(|x| x.as_str()), Some("X"));
        assert_eq!(
            v.get("args")
                .and_then(|a| a.get("unit"))
                .and_then(|x| x.as_str()),
            Some("snap \"0\"\n")
        );
    }

    #[test]
    fn instant_events_have_no_dur() {
        let json = event_to_json(&sample("tick", None));
        let v = parse_json(&json).unwrap();
        assert!(v.get("dur").is_none());
        assert_eq!(v.get("ph").and_then(|x| x.as_str()), Some("i"));
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::new(SharedBuf(buf.clone()));
        sink.emit(&sample("a", None));
        sink.emit(&sample("b", Some(1)));
        sink.finish();
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            parse_json(line).expect("each line parses");
        }
    }

    #[test]
    fn chrome_sink_produces_a_valid_json_array() {
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = ChromeTraceSink::new(SharedBuf(buf.clone()));
        sink.emit(&sample("a", None));
        sink.emit(&sample("b", Some(5)));
        sink.finish();
        sink.finish(); // idempotent
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        let v = parse_json(&text).expect("valid array");
        assert_eq!(v.as_array().map(|a| a.len()), Some(2));
    }

    #[test]
    fn fanout_replicates_in_order_and_skips_disabled() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let fan = FanoutSink::new(vec![
            a.clone() as Arc<dyn TraceSink>,
            Arc::new(NullSink) as Arc<dyn TraceSink>,
            b.clone() as Arc<dyn TraceSink>,
        ]);
        assert!(fan.is_enabled());
        fan.emit(&sample("one", None));
        fan.emit(&sample("two", Some(3)));
        let names = |s: &MemorySink| -> Vec<String> {
            s.snapshot().iter().map(|e| e.name.to_string()).collect()
        };
        assert_eq!(names(&a), vec!["one", "two"]);
        assert_eq!(names(&a), names(&b));
        assert!(!FanoutSink::new(vec![Arc::new(NullSink) as Arc<dyn TraceSink>]).is_enabled());
    }

    #[test]
    fn empty_chrome_trace_is_still_valid() {
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = ChromeTraceSink::new(SharedBuf(buf.clone()));
        sink.finish();
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        assert_eq!(
            parse_json(&text).unwrap().as_array().map(|a| a.len()),
            Some(0)
        );
    }
}
