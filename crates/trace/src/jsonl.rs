//! JSONL (one JSON object per line) trace writer.
//!
//! [`JsonlWriter`] is the serializer over any `io::Write`. Nothing emits
//! live: traced runs collect into per-cell collecting
//! [`TraceHandle`](crate::sink::TraceHandle)s and serialize them in cell
//! order afterwards (see `write_run`), so the file bytes are independent
//! of `ADCOMP_THREADS`.

use crate::events::{EventCounts, TraceEvent};
use crate::manifest::RunManifest;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Serializes events (and manifests) as JSONL onto any writer.
#[derive(Debug)]
pub struct JsonlWriter<W: Write> {
    inner: W,
    /// Reusable line buffer — one allocation for the whole run.
    line: String,
    counts: EventCounts,
}

impl JsonlWriter<BufWriter<std::fs::File>> {
    /// Creates (truncates) a trace file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(JsonlWriter::new(BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: Write> JsonlWriter<W> {
    pub fn new(inner: W) -> Self {
        JsonlWriter { inner, line: String::with_capacity(256), counts: EventCounts::default() }
    }

    /// Writes one event as one line.
    pub fn write_event(&mut self, ev: &TraceEvent) -> io::Result<()> {
        self.counts.add(ev);
        self.line.clear();
        self.line.push_str(&ev.to_json());
        self.line.push('\n');
        self.inner.write_all(self.line.as_bytes())
    }

    /// Writes a run manifest line (`"ev":"manifest"`).
    pub fn write_manifest(&mut self, m: &RunManifest) -> io::Result<()> {
        self.line.clear();
        self.line.push_str(&m.to_json());
        self.line.push('\n');
        self.inner.write_all(self.line.as_bytes())
    }

    /// Writes a whole run: the manifest (completed with the events'
    /// counts) followed by every event, in order.
    pub fn write_run(&mut self, manifest: &RunManifest, events: &[TraceEvent]) -> io::Result<()> {
        let mut m = manifest.clone();
        m.event_counts = EventCounts::from_events(events);
        self.write_manifest(&m)?;
        for ev in events {
            self.write_event(ev)?;
        }
        Ok(())
    }

    /// Event counts written so far (manifest lines not included).
    pub fn counts(&self) -> EventCounts {
        self.counts
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{CodecEvent, EpochEvent};
    use crate::json::validate_line;

    fn evs() -> Vec<TraceEvent> {
        vec![
            EpochEvent { epoch: 0, t: 2.0, duration: 2.0, bytes: 100, rate: 50.0, level: 1 }
                .into(),
            CodecEvent {
                epoch: 0,
                t: 1.0,
                level: "LIGHT",
                in_bytes: 10,
                out_bytes: 5,
                compress_ns: 7,
                raw_fallback: false,
            }
            .into(),
        ]
    }

    #[test]
    fn writes_one_valid_line_per_event() {
        let mut w = JsonlWriter::new(Vec::new());
        for ev in evs() {
            w.write_event(&ev).unwrap();
        }
        assert_eq!(w.counts().total(), 2);
        let buf = w.finish().unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            validate_line(line).unwrap();
        }
    }

    #[test]
    fn write_run_prepends_manifest_with_counts() {
        let mut w = JsonlWriter::new(Vec::new());
        let m = RunManifest::new("unit", 7);
        w.write_run(&m, &evs()).unwrap();
        let text = String::from_utf8(w.finish().unwrap()).unwrap();
        let first = text.lines().next().unwrap();
        assert!(first.contains("\"ev\":\"manifest\""), "{first}");
        assert!(first.contains("\"total\":2"), "{first}");
        assert_eq!(text.lines().count(), 3);
    }
}
