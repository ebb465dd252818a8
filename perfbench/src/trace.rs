//! In-memory spans around the benchmark's calls into each layer.
//!
//! A [`Tracer`] records one [`Span`] per call it wraps: name, start, end,
//! parent span and the id of the operation (request, document, edit) it
//! belongs to.  Spans stay in memory until the run ends, when
//! [`Tracer::write_tsv`] writes them out.  A disabled tracer runs the same
//! closures without reading the clock, which is how the untraced twin of a
//! traced pass measures the tracing overhead.
//!
//! A span's *self time* is its duration minus its children's durations;
//! the self times of all spans sum to the root spans' total, and the rest
//! of the traced wall time is reported as unattributed.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `xmltree.parse`.
    pub name: &'static str,
    /// The operation this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// See the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Tracer {
    /// A tracer that records spans (`enabled`) or only runs the closures.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the spans that follow with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.now_ns();
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line:
    /// `op name start_ns end_ns parent` (`-` for a root span).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tname\tstart_ns\tend_ns\tparent")?;
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{parent}",
                span.op, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self times and durations aggregated per span name.
#[derive(Debug, Default)]
pub struct Profile {
    by_name: BTreeMap<&'static str, Vec<(u64, u64, u64)>>,
    covered_ns: u64,
}

impl Profile {
    /// Aggregates `spans`: per name, `(op, duration, self time)` triples.
    pub fn new(spans: &[Span]) -> Self {
        let mut child_ns = vec![0u64; spans.len()];
        let mut covered_ns = 0;
        for span in spans {
            match span.parent {
                Some(p) => child_ns[p as usize] += span.duration_ns(),
                None => covered_ns += span.duration_ns(),
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<(u64, u64, u64)>> = BTreeMap::new();
        for (span, children) in spans.iter().zip(child_ns) {
            by_name.entry(span.name).or_default().push((
                span.op,
                span.duration_ns(),
                span.duration_ns() - children,
            ));
        }
        Profile {
            by_name,
            covered_ns,
        }
    }

    /// Total duration of the root spans, which equals the sum of every
    /// span's self time.
    pub fn covered_ns(&self) -> u64 {
        self.covered_ns
    }

    /// Sum of every span's self time (equal to [`Profile::covered_ns`]
    /// when children nest inside their parents).
    pub fn total_self_ns(&self) -> u64 {
        self.by_name.values().flatten().map(|&(_, _, s)| s).sum()
    }

    /// Number of `name` spans whose op satisfies `keep`.
    pub fn count(&self, name: &str, keep: impl Fn(u64) -> bool) -> usize {
        self.entries(name).filter(|(op, _, _)| keep(*op)).count()
    }

    /// Total self time (ns) of the `name` spans whose op satisfies `keep`.
    pub fn self_ns(&self, name: &str, keep: impl Fn(u64) -> bool) -> u64 {
        self.entries(name)
            .filter(|(op, _, _)| keep(*op))
            .map(|(_, _, s)| s)
            .sum()
    }

    /// The durations (ms) of every `name` span.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.entries(name).map(|(_, d, _)| d as f64 / 1e6).collect()
    }

    fn entries(&self, name: &str) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.by_name.get(name).into_iter().flatten().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root_spans() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        t.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box((0..1000).sum::<u64>()));
            t.span("inner", |_| ());
        });
        t.span("other", |_| ());
        let p = Profile::new(t.spans());
        assert_eq!(p.total_self_ns(), p.covered_ns());
        assert_eq!(p.count("inner", |op| op == 7), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[3].parent, None);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 3), 3);
        assert!(t.spans().is_empty());
    }
}
