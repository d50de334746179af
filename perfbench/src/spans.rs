//! Wall-clock spans recorded around the public calls the benchmark
//! makes. Spans stay in memory and are written as JSONL when the
//! benchmark ends; nothing inside the measured crates is instrumented.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call. `parent` indexes the enclosing span, `op` the traced
/// operation it belongs to (`None` for set-up and ladder rungs).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals: how many spans, their summed duration, and their
/// summed self time (duration minus the time child spans cover).
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Tags the spans opened from now on with traced operation `op`.
    pub fn set_op(&mut self, op: Option<usize>) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Summed duration in nanoseconds of the spans named `name` that
    /// belong to traced operation `op`.
    pub fn total_in_op_ns(&self, name: &str, op: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.op == Some(op))
            .map(|s| s.duration_ns() as f64)
            .sum()
    }

    /// Self time per span name. Spans on one thread nest without
    /// overlapping, so the time children cover is the sum of their
    /// durations.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(s.name).or_default();
            entry.count += 1;
            entry.total_ns += s.duration_ns();
            entry.self_ns += s.duration_ns().saturating_sub(covered);
        }
        out
    }

    /// Appends every span to `path` as one JSON object per line.
    pub fn append_jsonl(&self, path: &str, workload: &str) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut out = std::io::BufWriter::new(file);
        let opt = |v: Option<usize>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"workload\": \"{workload}\", \"id\": {id}, \"name\": \"{}\", \"op\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                s.name,
                opt(s.op),
                s.start_ns,
                s.end_ns,
                opt(s.parent)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new();
        spans.span("outer", |s| {
            s.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let t = spans.self_times();
        let (outer, inner) = (t["outer"], t["inner"]);
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert!(inner.self_ns >= 2_000_000);
    }
}
