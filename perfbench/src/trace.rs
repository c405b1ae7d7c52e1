//! Spans recorded by the benchmark's own code around each call into a
//! layer. Spans carry a name, start, end and parent; all spans of one run
//! share the run's trace id. They are kept in memory and written out as
//! one JSON document when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span; times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// An in-memory span recorder. Spans nest by call order: a span opened
/// while another is open becomes its child.
pub struct Tracer {
    id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(id: String) -> Self {
        Tracer {
            id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn id(&self) -> &str {
        &self.id
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Seconds covered by every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Self time per span name in seconds — each span's duration minus
    /// the part its children cover — sorted by name.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*child) as f64 / 1e9;
            match out.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => e.1 += own,
                None => out.push((s.name, own)),
            }
        }
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// The spans as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"trace_id\":\"{}\",\"spans\":[", self.id);
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new("test".into());
        t.span("outer", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let selfs = t.self_times();
        let get = |n: &str| selfs.iter().find(|e| e.0 == n).unwrap().1;
        assert!(get("inner") >= 0.005);
        assert!(get("outer") >= 0.002 && get("outer") < t.total_s("outer") - 0.004);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.to_json().contains("\"name\":\"inner\""));
    }
}
