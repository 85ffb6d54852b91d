//! In-memory spans recorded around the benchmark's calls into each layer,
//! plus the small statistics the reports are built from.
//!
//! A span has a name (the layer metric it feeds, or an `e2e.` step of the
//! workload's own request structure), the round it belongs to (the request
//! identifier shared by all spans of one round), its parent span and its
//! start and end in nanoseconds since the tracer was made. Spans are kept
//! in memory and written out once, when the run ends.

use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub round: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Open span handle returned by [`Tracer::open`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// A span recorder. A disabled tracer records nothing and reads no clock,
/// so the untraced rounds run the same code with no span cost.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    round: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            round: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Sets the round (request identifier) of the spans that follow.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            round: self.round,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    pub fn close(&mut self, id: SpanId) {
        if let SpanId(Some(id)) = id {
            self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Total duration (ns) of the spans named `name` in `round`.
    pub fn round_total(&self, name: &str, round: u32) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.round == round)
            .map(Span::ns)
            .sum()
    }

    /// Per-round totals (ns) of the spans named `name`, one entry per round
    /// that has at least one such span.
    pub fn per_round_totals(&self, name: &str) -> Vec<f64> {
        let mut rounds: Vec<u32> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.round)
            .collect();
        rounds.dedup();
        rounds
            .into_iter()
            .map(|r| self.round_total(name, r) as f64)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"round\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.round, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Median of a sample (mean of the middle pair for even sizes); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile (`q` in `0..=1`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spans_nest_and_a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.set_round(7);
        let outer = tr.open("outer");
        tr.time("inner", || ());
        tr.close(outer);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.round == 7 && s.end_ns >= s.start_ns));
        assert_eq!(tr.per_round_totals("inner").len(), 1);

        let mut off = Tracer::new(false);
        off.time("x", || ());
        assert!(off.spans().is_empty());
    }
}
