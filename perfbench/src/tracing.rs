//! In-memory span recorder for traced runs.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public entry point. Spans live in memory until the run ends, then are
//! written out as JSON lines. With tracing off every call is a no-op, so the
//! untraced runs that produce the end-to-end metrics pay nothing for it.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// One recorded interval.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Batch or request id the span belongs to.
    pub key: u64,
    pub start: Duration,
    pub end: Duration,
    /// Counts recorded at the same boundary.
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn open(&mut self, name: &'static str, parent: SpanId, key: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let now = self.t0.elapsed();
        self.spans.push(Span {
            name,
            parent,
            key,
            start: now,
            end: now,
            attrs: Vec::new(),
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end = self.t0.elapsed();
        }
    }

    /// Record a span whose interval was measured by the caller (used where
    /// the closing event is observed on another path, e.g. a ticket that
    /// resolved at admission).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        key: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            parent,
            key,
            start: start.saturating_duration_since(self.t0),
            end: end.saturating_duration_since(self.t0),
            attrs: Vec::new(),
        });
        Some(self.spans.len() - 1)
    }

    pub fn attr(&mut self, id: SpanId, name: &'static str, value: f64) {
        if let Some(i) = id {
            self.spans[i].attrs.push((name, value));
        }
    }

    pub fn spans(&self, name: &'static str) -> impl Iterator<Item = &Span> + '_ {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Mean duration in seconds of the spans called `name` (0 when none).
    pub fn mean_s(&self, name: &'static str) -> f64 {
        mean(self.spans(name).map(Span::secs))
    }

    /// Sum of attribute `attr` over the spans called `name`.
    pub fn sum_attr(&self, name: &'static str, attr: &'static str) -> f64 {
        self.spans(name)
            .flat_map(|s| s.attrs.iter())
            .filter(|(k, _)| *k == attr)
            .map(|(_, v)| v)
            .sum()
    }

    /// Mean of attribute `attr` over the spans called `name` (0 when none).
    pub fn mean_attr(&self, name: &'static str, attr: &'static str) -> f64 {
        mean(
            self.spans(name)
                .flat_map(|s| s.attrs.iter())
                .filter(|(k, _)| *k == attr)
                .map(|(_, v)| *v),
        )
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let attrs: Vec<String> = s
                .attrs
                .iter()
                .map(|(k, v)| format!("\"{k}\":{}", crate::json_num(*v)))
                .collect();
            writeln!(
                w,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"key\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"attrs\":{{{}}}}}",
                s.name,
                s.key,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                attrs.join(",")
            )?;
        }
        w.flush()
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in it {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}
