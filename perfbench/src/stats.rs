//! Sample statistics and the in-memory span recorder.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Nearest-rank quantile of `samples` (`0 < q <= 1`); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The second-best of `samples`: the second-lowest when `lower_is_better`,
/// else the second-highest (the only one when there is one; 0 when empty).
///
/// The shared host runs the benchmark in a fast and a slow state that
/// alternate every few seconds, and interference only ever makes a window
/// worse. Over the windows of a run, the second-best is the run's figure in
/// the fast state, and no single lucky window sets it.
pub fn second_best(samples: &[f64], lower_is_better: bool) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if !lower_is_better {
        sorted.reverse();
    }
    sorted.get(1).or(sorted.first()).copied().unwrap_or(0.0)
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One timed call at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `runtime.submit` or `dnn.fc0`.
    pub name: &'static str,
    /// Request or batch identifier shared by the spans of one unit of work.
    pub id: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// Spans kept in memory while the benchmark runs and written out at the end.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, spans: Vec::with_capacity(1 << 16) }
    }

    /// Records a span and returns its index (for children's `parent`).
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, id, parent, start_ns: ns(start), end_ns: ns(end) });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"index\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn second_best_on_either_side() {
        let v = [9.0, 1.0, 2.0, 4.0, 100.0];
        assert_eq!(second_best(&v, true), 2.0);
        assert_eq!(second_best(&v, false), 9.0);
        assert_eq!(second_best(&[3.0], false), 3.0);
        assert_eq!(second_best(&[], true), 0.0);
    }
}
