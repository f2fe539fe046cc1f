//! Host-time spans the benchmark records around its own calls into the
//! program (build, populate, each simulated window, each harvest, sampled
//! `Workload::next` calls and each replay). Kept in memory and written at
//! the end as Chrome trace-event JSON (load it in Perfetto or
//! `chrome://tracing`).

use std::fmt::Write as _;
use std::time::Instant;

/// One span: name, start and end (ns since the log's origin) and the index
/// of the span that contains it.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran.
    pub name: String,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let span = Span {
            name: name.into(),
            start: self.ns(start),
            end: self.ns(end),
            parent,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent)
    }

    /// Close a span opened with [`SpanLog::open`].
    pub fn close(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        self.spans[id].end = end;
    }

    /// Add sampled `(start, end)` spans named `name`, each parented to the
    /// innermost recorded span named `parent_prefix*` that contains it.
    pub fn adopt(&mut self, name: &str, samples: &[(u64, u64)], parent_prefix: &str) {
        let mut parents: Vec<(u64, u64, usize)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name.starts_with(parent_prefix))
            .map(|(i, s)| (s.start, s.end, i))
            .collect();
        parents.sort_unstable();
        for &(start, end) in samples {
            let at = parents.partition_point(|p| p.0 <= start);
            let parent = at
                .checked_sub(1)
                .map(|i| parents[i])
                .filter(|p| p.1 >= end)
                .map(|p| p.2);
            self.spans.push(Span {
                name: name.to_string(),
                start,
                end,
                parent,
            });
        }
    }

    /// Chrome trace-event JSON: one complete ("X") event per span, with
    /// its index and parent index in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start as f64 / 1e3,
                s.end.saturating_sub(s.start) as f64 / 1e3,
                i,
                parent
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
