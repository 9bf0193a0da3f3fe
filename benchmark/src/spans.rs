//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into the
//! program's public API (name, start, end, parent, run id), kept in
//! memory while the run executes, and written out once it ends. A
//! disabled recorder only runs the closures, so the untraced runs that
//! yield the end-to-end metrics pay nothing for it.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.campaign.run_to_store`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Spans::spans`], if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder; disabled recorders record nothing.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records (`enabled`) or only runs closures.
    pub fn new(enabled: bool, run_id: String) -> Self {
        Spans {
            enabled,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Closed spans in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of the first span named `name`, in ms.
    pub fn ms(&self, name: &str) -> Option<f64> {
        self.spans.iter().find(|s| s.name == name).map(Span::ms)
    }

    /// Self time of span `index`: its duration minus the part of its
    /// interval that its direct children cover.
    pub fn self_ms(&self, index: usize) -> f64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let own = self.spans[index].end_ns - self.spans[index].start_ns;
        own.saturating_sub(children) as f64 / 1e6
    }

    /// Human-readable table: one line per span, indented by depth, with
    /// total and self time.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut depth = 0;
            let mut p = s.parent;
            while let Some(j) = p {
                depth += 1;
                p = self.spans[j].parent;
            }
            let name = format!("{}{}", "  ".repeat(depth), s.name);
            let _ = writeln!(
                out,
                "  {name:<40} total {:>10.3} ms  self {:>10.3} ms",
                s.ms(),
                self.self_ms(i)
            );
        }
        out
    }

    /// The spans as JSON lines: `{"run", "id", "parent", "name",
    /// "start_ns", "end_ns"}` per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run_id, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new(true, "t".into());
        spans.span("outer", |s| {
            s.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let outer = spans.ms("outer").unwrap();
        let inner = spans.ms("inner").unwrap();
        assert!(inner >= 5.0 && outer >= inner);
        assert!((spans.self_ms(0) - (outer - inner)).abs() < 1e-6);
        assert_eq!(spans.spans()[1].parent, Some(0));
        assert_eq!(spans.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn disabled_recorder_only_runs_the_closure() {
        let mut spans = Spans::new(false, "t".into());
        assert_eq!(spans.span("x", |_| 7), 7);
        assert!(spans.spans().is_empty());
    }
}
