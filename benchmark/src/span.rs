//! Span recorder of the traced pass. Spans are kept in memory and written
//! as JSONL when the workload ends.
//!
//! The benchmark measures every layer from outside: the root span of an
//! operation is the public call the end-to-end run times, and its children
//! are *replays* of that operation's bytes through the next layer down.
//! The tree is therefore logical — `parent` says whose work a span
//! re-does, not whose interval contains it — and a span's self time is its
//! duration minus its children's durations.

use adcomp::trace::json::ObjWriter;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans of one operation (one `put`, one `get`, one file pass) share it.
    pub op: u64,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as one span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        (self.push(name, parent, op, start_ns, end_ns), out)
    }

    /// Records a span whose duration was accumulated elsewhere (many short
    /// calls summed into one entry, so per-call bookkeeping stays out of
    /// the timed region).
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        secs: f64,
    ) -> SpanId {
        let dur = (secs.max(0.0) * 1e9) as u64;
        // Ends now, unless the recorder is younger than the span is long.
        let end_ns = self.now_ns().max(dur);
        self.push(name, parent, op, end_ns - dur, end_ns)
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in seconds: duration minus the durations
    /// of its direct children. Negative when the replayed children took
    /// longer than the parent (they ran apart from it, or overlapped in
    /// the real operation).
    pub fn self_times(&self) -> Vec<f64> {
        let mut selfs: Vec<f64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                selfs[p] -= (s.end_ns - s.start_ns) as f64 / 1e9;
            }
        }
        selfs
    }

    /// Self time summed per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *by_name.entry(s.name).or_insert(0.0) += t;
        }
        by_name
    }

    /// Total duration of the root spans (the operations as the end-to-end
    /// run times them).
    pub fn root_secs(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let mut o = ObjWriter::new();
            o.u64_field("id", id as u64)
                .str_field("name", s.name)
                .u64_field("start_ns", s.start_ns)
                .u64_field("end_ns", s.end_ns)
                .i64_field("parent", s.parent.map_or(-1, |p| p as i64))
                .u64_field("op", s.op);
            writeln!(out, "{}", o.finish())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_plus_children_equals_parent() {
        let mut r = Recorder::new();
        let root = r.add("root", None, 1, 1.0);
        let a = r.add("a", Some(root), 1, 0.25);
        r.add("a.leaf", Some(a), 1, 0.125);
        r.add("b", Some(root), 1, 0.5);
        let selfs = r.self_times();
        assert!((selfs[root] - 0.25).abs() < 1e-9);
        assert!((selfs[a] - 0.125).abs() < 1e-9);
        // Self times of a whole tree add up to its root's duration.
        assert!((selfs.iter().sum::<f64>() - r.root_secs()).abs() < 1e-9);
        let by_name = r.self_by_name();
        assert!((by_name["b"] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn timed_span_brackets_the_call() {
        let mut r = Recorder::new();
        let (id, v) = r.span("sleep", None, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        let s = &r.spans()[id];
        assert!(s.end_ns - s.start_ns >= 5_000_000);
        assert_eq!((s.op, s.parent), (7, None));
    }
}
