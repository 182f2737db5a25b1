//! The MCCATCH stack benchmark: two workloads timed end to end, and a
//! traced run that splits each one layer by layer, from the distance
//! kernel to HTTP.
//!
//! ```text
//! perfbench --workload fit-http|serve-http --seed N --seconds S
//!           --trace 0|1 --root DIR [--cli PATH] [--child]
//! ```
//!
//! `--root` is the source checkout (provenance and scratch files live
//! there); `--cli` is the release `mccatch` binary that `serve-http`
//! drives over the wire. `perfbench/run.py` builds both and passes them.
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the lines before it are the human report.
//!
//! # Workloads, and why each one
//!
//! * `fit-http` — `McCatch::builder().threads(nproc)` → `fit` → `detect`
//!   on `http(20_000, seed)`: 3-d Euclidean over a kd-tree. Index
//!   traversal dominates (≈55 ns of counting per distance evaluation
//!   against a ≈10 ns kernel call), so kd layout and traversal changes
//!   show here — the low-dimension regime where per-radius counting still
//!   wins. Correct when ≥25 of the 30 planted DoS points share one
//!   microcluster.
//! * `serve-http` — the release `mccatch --serve` binary serving one
//!   tenant with 2 shards and a 2,000-point window per shard, restored
//!   from a snapshot plus replay log (prepared once per run, untimed).
//!   Each serving boot runs a read phase — one connection sending 500-line
//!   `POST /t/t/score` in a closed loop — and then a write phase — one
//!   connection sending 100-line `POST /t/t/ingest` in an open loop at a
//!   fixed 2,000 events/s, with `--refit-every 1000` so each shard refits
//!   about once a second. Because the binary is driven over the wire, the
//!   workload survives internal refactors of the serving path. Correct
//!   when a probe batch scored after each restore is byte-identical to its
//!   response before the `kill -9`, and every response has one finite
//!   score per line.
//!
//! # End-to-end metrics
//!
//! Every workload reports every end-to-end metric. `fit-http` also serves
//! its fitted model in process with the server's batch shapes — 500-query
//! `Fitted::score_points` batches (`score_*`, the call a 500-line `/score`
//! makes) and 100-event `StreamDetector::ingest` batches (`ingest_*`) over
//! held-out data — and `serve-http` reports as `fit_s` the wall time of a
//! synchronous `POST /t/t/admin/refit`.
//!
//! * `setup_s`, `fit_s`: wall time of set-up and of one fit.
//! * `score_cpu_us`, `ingest_cpu_us`: CPU time of the process doing the
//!   work per event scored or ingested (on `serve-http`, the server's,
//!   background refits included). The kernel leaves stolen time out of
//!   it, so hypervisor steal does not inflate it, but it still moves with
//!   the host's speed about as much as `fit_s` does.
//! * `peak_rss_mb`: peak RSS of the process doing the work.
//!
//! Reads and writes run in separate phases, and score throughput and the
//! p50 and p99 latencies are printed but are not metrics, because on a
//! shared two-core host they move with the host's load by more than any
//! bound the benchmark may set. With reads and writes side by side, two
//! 10-seed sets of 45-second runs spread up to 39% (score throughput),
//! 63% (ingest p50) and 189% (ingest p99) between the quartiles; with
//! them in separate phases, the medians of two sets taken one after the
//! other differed by 23% (score p50) and 29% (ingest p50) while `fit_s`
//! moved 12%. A request's latency is mostly the wake-ups of idle virtual
//! CPUs along its path, and a run during which the hypervisor stole a
//! quarter of the CPU time scored at a third of the usual rate.
//!
//! Speed on a shared host differs from process to process, so a timed
//! run pools several processes: `fit-http` runs one child process per
//! fit, and `serve-http` restores the server nine times, every third
//! boot serving a third of the load. A latency percentile is the median
//! of the percentiles of consecutive 1,000-request windows, so that it
//! tells a typical stretch of the run rather than the host's worst
//! moment.
//!
//! # Metric-interaction map (per-layer metric → end-to-end metric it feeds)
//!
//! * `metric.dist_ns` → `fit_s` (a small share on `fit-http`).
//! * `index.build_s` → `fit_s` (small) and `setup_s` on `serve-http`.
//! * `index.count_s`, `index.count_evals`, `index.count_ns_per_eval` →
//!   `fit_s` (≈99% on `fit-http`) and `setup_s` on `serve-http` (a
//!   verified restore refits). `count_evals` is deterministic: it moves
//!   with pruning changes, not kernel changes; `count_ns_per_eval` against
//!   `dist_ns` separates traversal from kernel.
//! * `core.plot_s`, `core.cutoff_s`, `core.detect_s` → `fit_s`; too small
//!   to move it, so they guard against regressions.
//! * `core.count_1t_s`, `core.thread_speedup` → `fit_s`.
//! * `stream.score_us`, `tenant.score_us`, `tenant.fanout_us`,
//!   `server.parse_us`, `server.format_us` → `score_cpu_us`.
//! * `stream.ingest_us` → `ingest_cpu_us`.
//! * `stream.refit_s`, `stream.refits`, `stream.refit_useful_ratio` →
//!   `ingest_cpu_us` on `serve-http` (its write phase pays for the
//!   background refits) and `fit_s` there.
//! * `tenant.restore_s`, `persist.load_s` → `setup_s` on `serve-http`.
//! * `server.http_ms` (median `/score` latency minus the median untraced
//!   in-process parse, score and format of the same batch: the loopback
//!   and framing tax) → the printed score p50 (it costs no CPU time of
//!   the server's own, so `score_cpu_us` does not see it).
//! * `trace.overhead_ratio` and `trace.unattributed_share` describe the
//!   tracing against end-to-end time. On `fit-http`: traced ÷ untraced
//!   fit, and the share of the untraced `McCatch::fit` + `detect` wall
//!   time that the stage spans do not cover. On `serve-http`: traced ÷
//!   untraced in-process request, and the share of the median HTTP
//!   `/score` latency that the parse, score and format spans do not cover.

mod fit;
mod layers;
mod samples;
mod serve;
mod stats;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub root: PathBuf,
    pub cli: Option<PathBuf>,
    /// Run as one measuring process of a timed run and print raw samples.
    pub child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        root: PathBuf::from("."),
        cli: None,
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--root" => args.root = PathBuf::from(value()?),
            "--cli" => args.cli = Some(PathBuf::from(value()?)),
            "--child" => args.child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// One run's result: metrics in declaration order, operation outcomes,
/// and notes for the human report.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Report {
    /// Records one metric value.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Counts one attempted operation; a false `ok` counts as failed and
    /// leaves a note naming `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// Counts `n` operations at once, `bad` of which failed.
    pub fn tally(&mut self, n: u64, bad: u64, what: &str) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 {
            self.notes.push(format!("FAILED: {bad} of {n} {what}"));
        }
    }

    /// Notes the within-run spread of a median-reported metric.
    pub fn spread(&mut self, name: &str, samples: &[f64]) {
        let (q1, q2, q3) = stats::quartiles(samples);
        self.notes.push(format!(
            "{name}: quartiles {q1:.6} / {q2:.6} / {q3:.6} over {} samples, IQR {:.2}% of median",
            samples.len(),
            100.0 * stats::iqr_share(samples)
        ));
    }

    /// Notes when a latency sample is too small for its p99 to be a
    /// tail estimate (fewer than ten samples beyond it).
    pub fn tail(&mut self, name: &str, samples: &[f64]) {
        let best = stats::highest_supported(&[50.0, 90.0, 95.0, 99.0], samples.len());
        if best != Some(99.0) {
            self.notes.push(format!(
                "{name}: p99 rests on {} samples; the highest percentile with ten beyond is {best:?}",
                samples.len()
            ));
        }
    }

    /// The outcome counts and notes as text lines, for a parent process.
    pub fn encode(&self) -> String {
        let mut out = format!("attempted {}\nfailed {}\n", self.attempted, self.failed);
        for note in &self.notes {
            out.push_str(&format!("note {note}\n"));
        }
        out
    }

    /// Adds one [`encode`](Self::encode)d line; returns false for a line
    /// that is not a report line.
    pub fn decode_line(&mut self, line: &str) -> Result<bool, String> {
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        let count = || rest.parse::<u64>().map_err(|e| format!("{line:?}: {e}"));
        match tag {
            "attempted" => self.attempted += count()?,
            "failed" => self.failed += count()?,
            "note" => self.notes.push(rest.to_owned()),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Adds a line to the human report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn print(mut self, args: &Args) {
        let nonfinite: Vec<&str> = self
            .metrics
            .iter()
            .filter(|m| !m.1.is_finite())
            .map(|m| m.0)
            .collect();
        for name in nonfinite {
            self.check(false, || format!("metric {name} is not finite"));
        }
        println!(
            "# provenance {{\"commit\": \"{}\", \"nproc\": {}, \"profile\": \"{}\", \
             \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
            sys::commit(&args.root),
            sys::nproc(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        for note in &self.notes {
            println!("# {note}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<28} {value:>16.6} {unit}");
        }
        // Failures are the JSON's `failed` / `attempted`; a ratio that is
        // normally 0 cannot be a bounded metric, so it is printed only.
        println!(
            "{:<28} {:>16.6} ratio ({} of {} operations failed)",
            "error_rate",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = sys::nproc().min(2);
    let mut report = Report::default();
    let ticks = sys::cpu_ticks();
    let outcome = match args.workload.as_str() {
        "fit-http" => fit::fit_http(&args, threads, &mut report),
        "serve-http" => serve::serve_http(&args, threads, &mut report),
        other => Err(format!("unknown workload {other:?}")),
    };
    match outcome {
        Ok(()) if args.child => ExitCode::SUCCESS,
        Ok(()) => {
            if let (Some((all0, stolen0)), Some((all1, stolen1))) = (ticks, sys::cpu_ticks()) {
                report.note(format!(
                    "host steal: {:.1}% of CPU time during the run",
                    100.0 * (stolen1 - stolen0) as f64 / (all1 - all0).max(1) as f64
                ));
            }
            report.print(&args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
