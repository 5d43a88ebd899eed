//! Spans recorded by the traced run, around the benchmark's own calls
//! into each layer. Held in memory, written out when the run ends.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent` names the span this one decomposes; the
/// spans of one slot share `slot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<&'static str>,
    pub slot: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span log with one time origin.
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn with_capacity(n: usize) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::with_capacity(n),
        }
    }

    /// Time `f` as a span; returns its result and its duration (ns).
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        slot: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        let span = Span {
            name,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
            parent,
            slot,
        };
        self.spans.push(span);
        (r, span.dur_ns())
    }

    /// One JSON object per line: `{name, start_ns, end_ns, parent, slot}`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| format!("\"{p}\""));
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"slot\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.slot
            )?;
        }
        w.flush()
    }
}

/// A parent span's self time given its children's durations.
///
/// In the traced run the children execute the same work *immediately
/// before* the parent rather than nested inside it (the benchmark may not
/// edit the program to open spans within `process_capture`), so self time
/// is parent − Σ children, floored at zero when timing noise makes the
/// rerun of the children cost more than the parent did.
pub fn self_time_ns(parent_ns: u64, children_ns: &[u64]) -> u64 {
    parent_ns.saturating_sub(children_ns.iter().sum())
}

/// Whether a slot's decomposition is credible: Σ children ≤ 1.1 × parent.
pub fn decomposition_holds(parent_ns: u64, children_ns: &[u64]) -> bool {
    children_ns.iter().sum::<u64>() as f64 <= 1.1 * parent_ns as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_parent_minus_children_floored() {
        assert_eq!(self_time_ns(1000, &[300, 500]), 200);
        assert_eq!(self_time_ns(1000, &[]), 1000);
        assert_eq!(self_time_ns(1000, &[700, 400]), 0);
    }

    #[test]
    fn decomposition_tolerates_ten_percent() {
        assert!(decomposition_holds(1000, &[600, 500]));
        assert!(!decomposition_holds(1000, &[600, 501]));
        assert!(decomposition_holds(0, &[]));
    }

    #[test]
    fn log_records_ordered_spans_and_writes_jsonl() {
        let mut log = SpanLog::with_capacity(2);
        let (v, child) = log.time("decoder.decode", Some("scope.slot"), 7, || 41 + 1);
        assert_eq!(v, 42);
        let (_, parent) = log.time("scope.slot", None, 7, || std::hint::black_box(0));
        assert_eq!(log.spans.len(), 2);
        assert_eq!(log.spans[0].dur_ns(), child);
        assert_eq!(log.spans[1].dur_ns(), parent);
        assert!(log.spans[0].end_ns <= log.spans[1].start_ns);
        let dir = std::env::temp_dir().join(format!("ledger-span-test-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        log.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"name\":\"decoder.decode\""));
        assert!(lines[0].contains("\"parent\":\"scope.slot\",\"slot\":7"));
        assert!(lines[1].contains("\"parent\":null"));
    }
}
