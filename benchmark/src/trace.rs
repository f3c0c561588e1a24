//! The benchmark's own span recorder: one span per layer boundary, kept
//! in memory and written as a Chrome `trace_event` file when the run
//! ends. Spans are recorded from the benchmark's files, around calls into
//! each layer; nothing here reads the program's internal spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Every tracer of the process measures from one instant, so spans of
/// different tracers share a timeline.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation share its id.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded recorder; `off()` makes every call a no-op so one
/// staged pipeline serves the traced and the untraced pass.
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: epoch().elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = epoch().elapsed().as_nanos() as u64;
        out
    }

    /// Appends another tracer's finished spans (another thread's or
    /// phase's), keeping their parent links.
    pub fn append(&mut self, other: &Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s.clone()
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in the given unit per ns.
    pub fn durations(&self, name: &str, per_ns: f64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * per_ns)
            .collect()
    }

    /// Self time per span name: a span's duration minus the part of it
    /// its children cover. Children of one parent never overlap here (one
    /// thread), so coverage is the sum of their durations.
    pub fn self_times_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Total duration of the root spans (those without a parent).
    #[cfg(test)]
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum()
    }

    /// Writes the spans as Chrome `trace_event` JSON (complete events;
    /// `args` carry the operation id and the parent span's index).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op,
                i,
                parent
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let mut t = Tracer::new();
        t.span("bench.op", 7, |t| {
            t.span("bench.a", 7, |_| {
                std::hint::black_box((0..2000u64).sum::<u64>())
            });
            t.span("bench.b", 7, |t| {
                t.span("bench.a", 7, |_| {
                    std::hint::black_box((0..2000u64).sum::<u64>())
                })
            });
        });
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.spans()[3].parent, Some(2));
        assert!(t.spans().iter().all(|s| s.op == 7));
        let selfs: u64 = t.self_times_ns().values().sum();
        assert_eq!(selfs, t.root_ns());
        assert_eq!(t.durations("bench.a", 1.0).len(), 2);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("bench.op", 1, |_| 5), 5);
        assert!(t.spans().is_empty());
    }
}
