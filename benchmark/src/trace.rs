//! In-memory spans recorded from the benchmark's side of each public call:
//! name, start, end, the span that caused it, and the request it belongs
//! to. Written out as JSON lines when the run ends. Spans inside the
//! program are a later change; these bracket the calls into each layer.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub req_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. Disabled, `enter`/`exit` cost one branch — the replay
/// runs once each way and the difference is the tracing overhead.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, req_id: u32) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            req_id,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Durations of every span called `name`, in recording order.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Writes one JSON object per span, with its self time.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let own = self_times_ns(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, (s, self_ns)) in spans.iter().zip(&own).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req_id\": {}, \"self_ns\": {self_ns}}}",
            s.name, s.start_ns, s.end_ns, s.req_id
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("request", 0, 100, None),
            span("parse", 5, 15, Some(0)),
            span("model", 20, 90, Some(0)),
            span("forward", 30, 80, Some(2)),
        ];
        // request: 100 − (10 + 70); model: 70 − 50; leaves keep their own.
        assert_eq!(self_times_ns(&spans), vec![20, 10, 20, 50]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_spans_and_tags_requests() {
        let mut t = Tracer::new(true);
        t.enter("request", 7);
        t.enter("parse", 7);
        t.exit();
        t.enter("model", 7);
        t.enter("forward", 7);
        t.exit();
        t.exit();
        t.exit();
        let s = t.spans();
        let parents: Vec<Option<u32>> = s.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(s.iter().all(|s| s.req_id == 7 && s.end_ns >= s.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[3].end_ns <= s[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("request", 0);
        t.exit();
        assert!(t.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let dir = crate::fixture::scratch_dir();
        let path = dir.join("trace-test.jsonl");
        let spans = [span("request", 0, 10, None), span("parse", 1, 4, Some(0))];
        write_jsonl(&path, &spans).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\": null") && lines[0].contains("\"self_ns\": 7"));
        assert!(lines[1].contains("\"parent\": 0") && lines[1].contains("\"name\": \"parse\""));
        std::fs::remove_file(&path).unwrap();
    }
}
