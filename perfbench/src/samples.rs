//! Raw end-to-end samples. Performance on a shared host differs from
//! process to process (the same fit runs 2.4 s in one process and 3.4 s
//! in the next), so a run measures in several processes and pools their
//! samples before taking medians. Latencies stay in the order they were
//! recorded, for [`windowed_percentile`]. Child processes hand theirs to
//! the parent as text lines.

use crate::serve::SCORE_LINES;
use crate::stats::{median, percentile, windowed_percentile, windowed_rate};
use crate::Report;

/// Pooled samples behind the end-to-end metrics.
#[derive(Default)]
pub struct Samples {
    /// Set-up times, s.
    pub setup: Vec<f64>,
    /// `fit` + `detect` (or synchronous refit) times, s.
    pub fit: Vec<f64>,
    /// CPU microseconds per event of each score phase and each ingest
    /// phase, in the process doing the work.
    pub score_cpu_us: Vec<f64>,
    pub ingest_cpu_us: Vec<f64>,
    /// Per-request score latencies, ms, in the order recorded; every
    /// request carries [`SCORE_LINES`] events.
    pub score_ms: Vec<f64>,
    /// Per-request ingest latencies, ms, in the order recorded.
    pub ingest_ms: Vec<f64>,
    /// Peak RSS of each working process, MiB.
    pub rss: Vec<f64>,
}

impl Samples {
    /// One line per sample kind, values separated by spaces.
    pub fn encode(&self) -> String {
        let line = |tag: &str, v: &[f64]| {
            let vals: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
            format!("{tag} {}\n", vals.join(" "))
        };
        [
            line("setup", &self.setup),
            line("fit", &self.fit),
            line("scorecpu", &self.score_cpu_us),
            line("ingestcpu", &self.ingest_cpu_us),
            line("score", &self.score_ms),
            line("ingest", &self.ingest_ms),
            line("rss", &self.rss),
        ]
        .concat()
    }

    /// Adds the samples of one [`encode`](Self::encode)d line; returns
    /// false for a line that is not a sample line.
    pub fn decode_line(&mut self, line: &str) -> Result<bool, String> {
        let mut words = line.split_whitespace();
        let Some(tag) = words.next() else {
            return Ok(false);
        };
        let vals: Vec<f64> = match tag {
            "setup" | "fit" | "scorecpu" | "ingestcpu" | "score" | "ingest" | "rss" => words
                .map(|w| w.parse::<f64>().map_err(|e| format!("{line:?}: {e}")))
                .collect::<Result<_, _>>()?,
            _ => return Ok(false),
        };
        match tag {
            "setup" => self.setup.extend(vals),
            "fit" => self.fit.extend(vals),
            "scorecpu" => self.score_cpu_us.extend(vals),
            "ingestcpu" => self.ingest_cpu_us.extend(vals),
            "score" => self.score_ms.extend(vals),
            "ingest" => self.ingest_ms.extend(vals),
            _ => self.rss.extend(vals),
        }
        Ok(true)
    }

    /// Reports every end-to-end metric from the pooled samples.
    pub fn report(&self, report: &mut Report) {
        report.tail("score latency", &self.score_ms);
        report.tail("ingest latency", &self.ingest_ms);
        report.spread("setup_s", &self.setup);
        report.spread("fit_s", &self.fit);
        report.spread("score_cpu_us", &self.score_cpu_us);
        report.spread("ingest_cpu_us", &self.ingest_cpu_us);
        report.note(format!(
            "{} set-ups, {} fits, {} score requests, {} ingest requests, {} processes",
            self.setup.len(),
            self.fit.len(),
            self.score_ms.len(),
            self.ingest_ms.len(),
            self.rss.len()
        ));
        // Throughput and latency are printed, not reported as metrics: on
        // a shared two-core host they move with the host's load by more
        // than any bound the benchmark may set (see the module docs of
        // `main.rs`).
        report.note(format!(
            "score throughput {:.0} events/s; p50: score {:.4} ms, ingest {:.4} ms \
             (medians of 1,000-request windows)",
            windowed_rate(&self.score_ms, SCORE_LINES as f64),
            windowed_percentile(&self.score_ms, 50.0),
            windowed_percentile(&self.ingest_ms, 50.0)
        ));
        report.note(format!(
            "p99: score {:.4} ms, ingest {:.4} ms (median of 1,000-request windows); \
             pooled over the run: score {:.4} ms, ingest {:.4} ms",
            windowed_percentile(&self.score_ms, 99.0),
            windowed_percentile(&self.ingest_ms, 99.0),
            percentile(&self.score_ms, 99.0),
            percentile(&self.ingest_ms, 99.0)
        ));
        report.metric("setup_s", median(&self.setup), "s");
        report.metric("fit_s", median(&self.fit), "s");
        report.metric("score_cpu_us", median(&self.score_cpu_us), "us");
        report.metric("ingest_cpu_us", median(&self.ingest_cpu_us), "us");
        report.metric("peak_rss_mb", median(&self.rss), "MiB");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_survive_the_text_round_trip() {
        let s = Samples {
            setup: vec![0.1, 0.25],
            fit: vec![2.5],
            score_cpu_us: vec![4.25, 4.5],
            ingest_cpu_us: vec![],
            score_ms: vec![1.0, 1.5, 0.1 + 0.2],
            ingest_ms: vec![],
            rss: vec![11.5],
        };
        let mut back = Samples::default();
        for line in s.encode().lines() {
            assert!(back.decode_line(line).unwrap());
        }
        assert!(!back.decode_line("attempted 3").unwrap());
        assert_eq!(back.setup, s.setup);
        assert_eq!(back.score_cpu_us, s.score_cpu_us);
        assert!(back.ingest_cpu_us.is_empty());
        assert_eq!(back.score_ms, s.score_ms);
        assert!(back.ingest_ms.is_empty());
        assert_eq!(back.rss, s.rss);
    }
}
