//! Crash flight recorder: a bounded ring buffer of the most recent
//! trace events, dumped to a JSONL post-mortem file when something goes
//! wrong (a reader panic, a detected deadlock).
//!
//! The recorder is a [`TraceSink`], so it plugs into the same fanout
//! path as the file sinks; the database installs one by default (see
//! `GboConfig::flight_recorder`) so that even an otherwise untraced run
//! leaves a record of its final moments. Recording is O(1) per event —
//! one short mutex hold, one `VecDeque` push (plus a pop once full) of
//! the event itself, handed over by value ([`TraceSink::emit_owned`]) —
//! and the buffer is bounded, so it is always cheap and can stay on in
//! production (the `ablation_monitoring` experiment measures the cost).
//!
//! # What the ring holds
//!
//! On a run with a tracer attached: the tail of the trace's `gbo`
//! events, per-record ones (`record_commit`, `key_lookup`, a record
//! commit's `wal_append`) included. On an untraced run the database
//! emits no per-record events at all, so the ring holds unit
//! lifecycles, spill and WAL lifecycle, faults, deadlocks and watchdog
//! stalls: 5–8 events per unit, i.e. the default 4096 slots span the
//! last 500–800 units. (With per-record events in it, one 120-record
//! unit looked up once per field filled ≥ 360 slots and the ring
//! spanned 11 units.)
//!
//! # Post-mortem dump format
//!
//! Line 1 is a header object:
//!
//! ```json
//! {"postmortem":{"reason":"reader_panic","events":812,"dropped":4188,"capacity":4096}}
//! ```
//!
//! followed by one ordinary trace event per line, exactly as
//! [`event_to_json`] serializes them — i.e. the tail of the JSONL trace
//! the run would have written. `trace_check` validates a dump on its
//! own and, given the full trace too, verifies the dump is a contiguous
//! run (usually a suffix) of it.

use crate::sink::{event_to_json, TraceSink};
use crate::trace::TraceEvent;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default ring capacity the database installs: enough for the last few
/// hundred unit lifecycles (see "What the ring holds" in the module
/// docs) while staying well under a megabyte.
pub const DEFAULT_FLIGHT_RECORDER_CAPACITY: usize = 4096;

/// A bounded ring-buffer [`TraceSink`] holding the most recent events.
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<VecDeque<TraceEvent>>,
    dropped: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_FLIGHT_RECORDER_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether nothing has been recorded (or everything was cleared).
    pub fn is_empty(&self) -> bool {
        self.ring.lock().is_empty()
    }

    /// Events evicted from the ring so far (total seen − held).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy of the held events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Drop all held events (the drop counter keeps its value).
    pub fn clear(&self) {
        self.ring.lock().clear();
    }

    /// Write a post-mortem dump — the header line, then the held events
    /// oldest-first — and return how many events were written.
    pub fn dump_to(&self, out: &mut dyn Write, reason: &str) -> std::io::Result<usize> {
        let events = self.snapshot();
        let mut header = String::from("{\"postmortem\":{\"reason\":");
        crate::sink::escape_json_into(&mut header, reason);
        header.push_str(&format!(
            ",\"events\":{},\"dropped\":{},\"capacity\":{}}}}}\n",
            events.len(),
            self.dropped(),
            self.capacity
        ));
        out.write_all(header.as_bytes())?;
        for event in &events {
            out.write_all(event_to_json(event).as_bytes())?;
            out.write_all(b"\n")?;
        }
        out.flush()?;
        Ok(events.len())
    }

    /// Write a post-mortem dump to a file at `path` (truncating any
    /// previous dump) and return how many events were written.
    pub fn dump_to_path(&self, path: impl AsRef<Path>, reason: &str) -> std::io::Result<usize> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.dump_to(&mut file, reason)
    }
}

impl TraceSink for FlightRecorder {
    fn emit(&self, event: &TraceEvent) {
        self.emit_owned(event.clone());
    }

    fn emit_owned(&self, event: TraceEvent) {
        let mut ring = self.ring.lock();
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;
    use crate::trace::Tracer;
    use std::sync::Arc;

    #[test]
    fn ring_keeps_only_the_most_recent_events() {
        let fr = FlightRecorder::with_capacity(3);
        let tracer = Tracer::new(Arc::new(FlightRecorder::with_capacity(3)));
        assert!(tracer.enabled(), "recorder reports itself enabled");
        for i in 0..5u64 {
            fr.emit(&TraceEvent {
                ts_us: i,
                dur_us: None,
                cat: "t",
                name: format!("ev{i}").into(),
                tid: 1,
                args: vec![],
            });
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.dropped(), 2);
        let names: Vec<String> = fr.snapshot().iter().map(|e| e.name.to_string()).collect();
        assert_eq!(names, vec!["ev2", "ev3", "ev4"]);
    }

    #[test]
    fn dump_has_header_then_valid_events() {
        let fr = Arc::new(FlightRecorder::with_capacity(8));
        let tracer = Tracer::disabled().tee(fr.clone());
        tracer.instant("gbo", "unit_added", vec![("unit", "u0".into())]);
        tracer.instant("gbo", "read_done", vec![("unit", "u0".into())]);
        let mut buf = Vec::new();
        let written = fr.dump_to(&mut buf, "deadlock").unwrap();
        assert_eq!(written, 2);
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        let header = parse_json(lines.next().unwrap()).unwrap();
        let meta = header.get("postmortem").expect("header object");
        assert_eq!(
            meta.get("reason").and_then(|r| r.as_str()),
            Some("deadlock")
        );
        assert_eq!(meta.get("events").and_then(|e| e.as_u64()), Some(2));
        for line in lines {
            let v = parse_json(line).expect("event line parses");
            assert!(v.get("name").is_some());
        }
    }

    #[test]
    fn clear_empties_but_keeps_drop_count() {
        let fr = FlightRecorder::with_capacity(1);
        for i in 0..3u64 {
            fr.emit(&TraceEvent {
                ts_us: i,
                dur_us: None,
                cat: "t",
                name: "e".into(),
                tid: 1,
                args: vec![],
            });
        }
        assert_eq!(fr.dropped(), 2);
        fr.clear();
        assert!(fr.is_empty());
        assert_eq!(fr.dropped(), 2);
    }
}
