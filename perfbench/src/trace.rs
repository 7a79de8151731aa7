//! In-memory spans recorded by the benchmark around its calls into the
//! workspace crates. A span's layer is its name up to the first `.`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when on; when off every call is a pass-through.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.at(Instant::now()),
            end: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.at(Instant::now());
        out
    }

    /// Records a span measured elsewhere (another thread), as a child of
    /// the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            let span = Span {
                name,
                start: self.at(start),
                end: self.at(end),
                parent: self.open.last().copied(),
            };
            self.spans.push(span);
        }
    }

    /// Records one value of a per-layer quantity measured at a span
    /// boundary (a count or a ratio rather than a duration).
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// Every value recorded under `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Index of the next span to be recorded: spans before a mark were
    /// recorded before it.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Durations in nanoseconds of the spans named `name`.
    pub fn nanos(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::nanos)
            .collect()
    }

    /// Self time per layer over the spans recorded in `range`: each span's
    /// duration minus the part its direct children cover.
    pub fn self_nanos_by_layer(
        &self,
        range: std::ops::Range<usize>,
    ) -> BTreeMap<&'static str, u64> {
        let mut child_cover = vec![0u64; self.spans.len()];
        for span in &self.spans[range.clone()] {
            if let Some(p) = span.parent {
                child_cover[p] += span.nanos();
            }
        }
        let mut by_layer = BTreeMap::new();
        for i in range {
            let span = &self.spans[i];
            *by_layer.entry(span.layer()).or_insert(0) +=
                span.nanos().saturating_sub(child_cover[i]);
        }
        by_layer
    }

    /// Every span as tab-separated `id name start_ns end_ns parent`.
    pub fn render(&self) -> String {
        let mut out = String::from("id\tname\tstart_ns\tend_ns\tparent\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(out, "{i}\t{}\t{}\t{}\t{parent}", s.name, s.start, s.end);
        }
        out
    }
}

/// The nearest-rank `q`-quantile (0 < q ≤ 1) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}
