//! The benchmark's own statistics: medians, quartiles, tail percentiles
//! with an honesty rule, and in-memory spans with self time.

use std::time::{Duration, Instant};

/// Median of `xs` (mean of the two middle values for an even count);
/// NaN for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method), so the spread printed here matches the one the ledger's
/// consumers compute from the same values.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let s = sorted(xs);
    let ld = s.len();
    match ld {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (s[0], s[0], s[0]),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// Interquartile range as a share of the median: the run-to-run spread
/// a metric's bound is compared against.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(xs);
    (q3 - q1) / q2.abs()
}

/// Samples needed beyond a percentile before it is reported: a p99 of
/// 200 samples is really the second-largest value, not a tail estimate.
pub const TAIL_SAMPLES: usize = 10;

/// Whether percentile `p` (in `0..100`) of `n` samples has at least
/// [`TAIL_SAMPLES`] samples strictly beyond it.
pub fn percentile_supported(p: f64, n: usize) -> bool {
    n > 0 && (n - rank(p, n)) >= TAIL_SAMPLES
}

/// The highest of `candidates` (ascending percentiles) that `n`
/// samples support, if any.
pub fn highest_supported(candidates: &[f64], n: usize) -> Option<f64> {
    candidates
        .iter()
        .rev()
        .copied()
        .find(|&p| percentile_supported(p, n))
}

/// Nearest-rank percentile `p` of `xs`; NaN for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return f64::NAN;
    }
    s[rank(p, s.len()) - 1]
}

/// Samples per window of [`windowed_percentile`]: the fewest for which a
/// p99 has [`TAIL_SAMPLES`] beyond it.
pub const WINDOW: usize = 1000;

/// Percentile `p` of latencies in the order they were recorded: the
/// median of the percentiles of consecutive windows of at least
/// [`WINDOW`] samples each (of all samples when there are fewer). The
/// host's speed swings from second to second, so the pooled tail of a run
/// is set by its worst few moments; the median window's tail is what a
/// typical stretch of the run saw.
pub fn windowed_percentile(xs: &[f64], p: f64) -> f64 {
    let n = xs.len();
    let k = (n / WINDOW).max(1);
    let each: Vec<f64> = (0..k)
        .map(|i| percentile(&xs[i * n / k..(i + 1) * n / k], p))
        .collect();
    median(&each)
}

/// Events per second of a closed loop whose requests each carry
/// `events` and took `xs` milliseconds, in the order recorded: the
/// median of the rates of consecutive [`WINDOW`]-request windows, so
/// that, as with [`windowed_percentile`], a slow stretch of the host
/// moves one window and not the run's figure.
pub fn windowed_rate(xs: &[f64], events: f64) -> f64 {
    let n = xs.len();
    let k = (n / WINDOW).max(1);
    let each: Vec<f64> = (0..k)
        .map(|i| {
            let w = &xs[i * n / k..(i + 1) * n / k];
            events * w.len() as f64 / (w.iter().sum::<f64>() / 1000.0)
        })
        .collect();
    median(&each)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// One closed span: a named interval with an optional parent, in
/// nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `index.count`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch (`>= start`).
    pub end: u64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// In-memory span recorder. Spans nest by an explicit stack: `enter`
/// opens a child of the innermost open span, `exit` closes it. Nothing
/// is written until the caller asks for the list at the end of the run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open one, and
    /// returns its duration.
    pub fn exit(&mut self, id: usize) -> Duration {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.now();
        Duration::from_nanos(self.spans[id].ns())
    }

    /// Runs `f` inside a span and returns its value with the span's
    /// duration. `f` cannot open child spans; use `enter`/`exit` for
    /// nesting.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let id = self.enter(name);
        let out = f();
        (out, self.exit(id))
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Self time of span `id`: its duration minus the time covered by the
/// union of its direct children (clipped to the parent), so children
/// that overlap — e.g. run on parallel threads — are not subtracted
/// twice.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in kids {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    parent.ns() - covered
}

/// Renders spans as one JSON array (`name`, `start_ns`, `end_ns`,
/// `parent`, `root` — the span tree it belongs to — and `self_ns`).
pub fn spans_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut root = i;
            while let Some(p) = spans[root].parent {
                root = p;
            }
            format!(
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \
                 \"root\": {root}, \"self_ns\": {}}}",
                s.name,
                s.start,
                s.end,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                self_ns(spans, i)
            )
        })
        .collect();
    format!("[{}]", rows.join(",\n "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((iqr_share(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert!(!percentile_supported(99.0, 999));
        assert!(percentile_supported(99.0, 1000));
        assert!(percentile_supported(50.0, 20));
        assert!(!percentile_supported(50.0, 19));
        assert_eq!(highest_supported(&[50.0, 90.0, 99.0], 150), Some(90.0));
        assert_eq!(highest_supported(&[50.0, 90.0, 99.0], 5), None);
        // Nearest rank: p99 of 1..=1000 is 990, leaving 10 values beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(percentile(&xs, 50.0), 500.0);
    }

    #[test]
    fn windowed_percentile_is_the_median_window_tail() {
        let calm: Vec<f64> = (1..=1000).map(f64::from).collect();
        let slow: Vec<f64> = calm.iter().map(|x| x * 10.0).collect();
        // Three windows; the slow stretch owns the pooled p99 but is one
        // window of three: the result is a calm window's 990.
        let run = [calm.clone(), slow, calm.clone()].concat();
        assert_eq!(percentile(&run, 99.0), 9700.0);
        assert_eq!(windowed_percentile(&run, 99.0), 990.0);
        // 2,999 samples make two windows of 1,499 and 1,500.
        let short = [calm.clone(), calm.clone(), calm[..999].to_vec()].concat();
        let halves = [
            percentile(&short[..1499], 99.0),
            percentile(&short[1499..], 99.0),
        ];
        assert_eq!(
            windowed_percentile(&short, 99.0),
            (halves[0] + halves[1]) / 2.0
        );
        // Fewer than a window: the plain percentile.
        assert_eq!(windowed_percentile(&calm[..10], 50.0), 5.0);
        assert!(windowed_percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn windowed_rate_is_the_median_window_rate() {
        // 1,000 requests of 2 ms, then 1,000 of 20 ms, then 1,000 of 4 ms:
        // 500, 50 and 250 requests/s; with 10 events each, the middle
        // window's 2,500 events/s.
        let run = [vec![2.0; 1000], vec![20.0; 1000], vec![4.0; 1000]].concat();
        assert_eq!(windowed_rate(&run, 10.0), 2500.0);
        // Fewer than a window: the rate of all of them.
        assert_eq!(windowed_rate(&[1.0, 3.0], 500.0), 250_000.0);
        assert!(windowed_rate(&[], 1.0).is_nan());
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two overlapping children (parallel work) cover 10..50 once.
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            // A disjoint child, partly outside the parent: clipped to 90..100.
            span("c", 90, 120, Some(0)),
            // A grandchild does not count against the root.
            span("g", 12, 20, Some(1)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_ns(&spans, 1), 30 - 8);
        assert_eq!(self_ns(&spans, 4), 8);
    }

    #[test]
    fn tracer_nests_and_closes_in_order() {
        let mut t = Tracer::default();
        let root = t.enter("root");
        let (v, _) = t.time("child", || 7);
        t.exit(root);
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        assert!(spans_json(s).starts_with("[{\"name\": \"root\""));
    }
}
