//! The `fit-http` workload: `McCatch` over `http(20_000, seed)`, 3-d
//! Euclidean over a kd-tree. A timed run starts one child process per
//! fit until `--seconds` have passed and pools their samples. Each child
//! generates the data (untimed), hands it to the program (`setup_s`),
//! runs one `fit` + `detect` (`fit_s`, checked for correctness), and then
//! serves the fitted model in process with the server's own batch shapes:
//! 500-query `Fitted::score_points` batches (`score_*`; what
//! `Model::score_batch` runs for a 500-line `/score` request) and 100-event
//! `StreamDetector::ingest` batches (`ingest_*`; what a 100-line `/ingest`
//! request runs), both over held-out data. The traced run (`--trace 1`)
//! stays in one process.

use crate::layers::{self, body, ms, Map, Point, TENANT};
use crate::samples::Samples;
use crate::serve::{INGEST_LINES, SCORE_LINES};
use crate::stats::Tracer;
use crate::sys::{cpu_secs, peak_rss_mb, WorkDir};
use crate::{Args, Report};
use mccatch_core::{McCatch, McCatchOutput};
use mccatch_data::{http, http_dos_ids};
use mccatch_index::KdTreeBuilder;
use mccatch_metric::Euclidean;
use mccatch_server::{ndjson, serve_tenants, AccessLog, ServerConfig};
use mccatch_stream::{RefitPolicy, StreamCheckpoint, StreamConfig, StreamDetector};
use mccatch_tenant::TenantSpec;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Points fitted, and held-out points served.
const N: usize = 20_000;
/// Hand-overs timed per process.
const SETUP_REPS: usize = 21;
/// Processes per run at least, each making one fit.
const MIN_CHILDREN: usize = 5;
/// Score and ingest batches per process at least, so that each
/// process's p99 alone has ten samples beyond it.
const MIN_BATCHES: usize = 1000;
/// Seconds each process scores and ingests at least: the host's speed
/// drifts over seconds, and short phases would sample too little of it.
const SCORE_SECS: f64 = 1.5;
const INGEST_SECS: f64 = 1.0;
/// Per-shard window of the traced run's serving-layer tenant.
const WINDOW: usize = 2_000;

/// Whether a phase started at `t0` with `done` batches should go on.
fn until(t0: &Instant, done: usize, secs: f64) -> bool {
    done < MIN_BATCHES || t0.elapsed().as_secs_f64() < secs
}

/// The generated inputs: the fitted points and the held-out queries.
fn inputs(seed: u64) -> (Vec<Point>, Vec<Point>) {
    (http(N, seed).points, http(N, seed ^ 0x5EED).points)
}

/// The correctness check: ≥25 of the 30 planted DoS connections must
/// land in one microcluster.
fn check(out: &McCatchOutput) -> Result<(), String> {
    let planted = http_dos_ids(N);
    let best = out
        .microclusters
        .iter()
        .map(|mc| {
            planted
                .iter()
                .filter(|i| mc.members.binary_search(i).is_ok())
                .count()
        })
        .max()
        .unwrap_or(0);
    if best >= 25 {
        Ok(())
    } else {
        Err(format!(
            "only {best} of 30 planted DoS points share a microcluster"
        ))
    }
}

pub fn fit_http(args: &Args, threads: usize, report: &mut Report) -> Result<(), String> {
    if args.child {
        child(args, threads, report)
    } else if args.trace {
        traced(args, threads, report)
    } else {
        parent(args, report)
    }
}

/// A timed run: child processes until `--seconds` have passed (at least
/// [`MIN_CHILDREN`]), their samples pooled.
fn parent(args: &Args, report: &mut Report) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut samples = Samples::default();
    let t0 = Instant::now();
    let mut children = 0;
    while children < MIN_CHILDREN || t0.elapsed().as_secs_f64() < args.seconds {
        let out = Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .arg("--root")
            .arg(&args.root)
            .arg("--child")
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        if !out.status.success() {
            return Err(format!("child process failed: {}", out.status));
        }
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            if !samples.decode_line(line)? && !report.decode_line(line)? {
                return Err(format!("unexpected child output {line:?}"));
            }
        }
        children += 1;
    }
    samples.report(report);
    Ok(())
}

/// One child process: [`SETUP_REPS`] hand-overs, one `fit` + `detect`,
/// then the fitted model serving score batches for [`SCORE_SECS`] and
/// ingest batches for [`INGEST_SECS`]. Prints its samples and outcome
/// counts.
fn child(args: &Args, threads: usize, report: &mut Report) -> Result<(), String> {
    let (data, queries) = inputs(args.seed);
    let mut s = Samples::default();
    let (points, mc) = hand_over(&data, threads, &mut s.setup)?;

    let t = Instant::now();
    let fitted = mc
        .fit(points, Euclidean, KdTreeBuilder::default())
        .map_err(|e| format!("fit: {e}"))?;
    let out = fitted.detect();
    s.fit.push(t.elapsed().as_secs_f64());
    let verdict = check(&out);
    report.check(verdict.is_ok(), || format!("fit-http: {verdict:?}"));

    // Score held-out batches against the fitted model.
    let mut latencies = Vec::new();
    let cpu = cpu_secs(std::process::id())?;
    let t0 = Instant::now();
    let batches = queries.chunks_exact(SCORE_LINES).cycle();
    for (_, batch) in batches
        .enumerate()
        .take_while(|(done, _)| until(&t0, *done, SCORE_SECS))
    {
        let t = Instant::now();
        let scores = fitted.score_points(batch);
        latencies.push(ms(t.elapsed()));
        report.check(
            scores.len() == batch.len() && scores.iter().all(|s| s.is_finite()),
            || "score_points returned a wrong or non-finite score".to_owned(),
        );
    }
    let cpu_us = 1e6 * (cpu_secs(std::process::id())? - cpu);
    s.score_cpu_us
        .push(cpu_us / (latencies.len() * SCORE_LINES) as f64);
    s.score_ms = latencies;

    // Ingest held-out events into a stream over the fitted model (the
    // checkpoint path: no refit, the window is the reference set).
    let n = fitted.num_points();
    let stream = StreamDetector::restore(
        StreamConfig {
            capacity: n,
            policy: RefitPolicy::Manual,
            ..StreamConfig::default()
        },
        mc,
        Euclidean,
        KdTreeBuilder::default(),
        StreamCheckpoint {
            model: fitted.into_model(),
            generation: 0,
            seq: n as u64,
            entries: data.into_iter().map(|p| (0, p)).collect(),
            entries_are_seed: true,
        },
    )
    .map_err(|e| e.to_string())?;
    let mut latencies = Vec::new();
    let cpu = cpu_secs(std::process::id())?;
    let t0 = Instant::now();
    let batches = queries.chunks_exact(INGEST_LINES).cycle();
    for (_, batch) in batches
        .enumerate()
        .take_while(|(done, _)| until(&t0, *done, INGEST_SECS))
    {
        let batch = batch.to_vec();
        let t = Instant::now();
        let bad = batch
            .into_iter()
            .map(|p| stream.ingest(p))
            .filter(|e| !e.score.is_finite())
            .count();
        latencies.push(ms(t.elapsed()));
        report.check(bad == 0, || {
            format!("{bad} ingested events scored non-finite")
        });
    }
    s.ingest_cpu_us.push(
        1e6 * (cpu_secs(std::process::id())? - cpu) / (latencies.len() * INGEST_LINES) as f64,
    );
    s.ingest_ms = latencies;
    s.rss.push(peak_rss_mb("self")?);
    print!("{}{}", s.encode(), report.encode());
    Ok(())
}

/// Set-up: hands the generated points to the program [`SETUP_REPS`]
/// times, recording each hand-over's time.
fn hand_over(
    data: &[Point],
    threads: usize,
    times: &mut Vec<f64>,
) -> Result<(Arc<[Point]>, McCatch), String> {
    let mut handed = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let points: Arc<[Point]> = data.to_vec().into();
        let mc = McCatch::builder()
            .threads(threads)
            .build()
            .map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64());
        handed = Some((points, mc));
    }
    Ok(handed.expect("at least one hand-over"))
}

/// The traced run: the fit pipeline layer by layer on the full data,
/// then the serving layers on a 2-shard tenant seeded with a slice of it
/// and served in process over loopback.
fn traced(args: &Args, threads: usize, report: &mut Report) -> Result<(), String> {
    let (data, queries) = inputs(args.seed);
    let (points, mc) = hand_over(&data, threads, &mut Vec::new())?;
    let mut tr = Tracer::default();
    report.metric("metric.dist_ns", layers::dist_ns(&data, args.seed), "ns");
    let fit = layers::fit_layers(&mut tr, report, &points, threads)?;
    report.metric("trace.overhead_ratio", fit.overhead, "ratio");
    report.metric("trace.unattributed_share", fit.unattributed, "ratio");

    let work = WorkDir::new(&args.root, "fit-http")?;
    let spec = TenantSpec {
        shards: 2,
        stream: StreamConfig {
            capacity: WINDOW,
            policy: RefitPolicy::EveryN(WINDOW as u64 / 2),
            ..StreamConfig::default()
        },
        ..TenantSpec::default()
    };
    let seed_map = Map::new(
        mc.clone(),
        Euclidean,
        KdTreeBuilder::default(),
        spec.clone(),
    )
    .map_err(|e| e.to_string())?;
    let prepared = work.path("prepared");
    std::fs::create_dir_all(&prepared).map_err(|e| e.to_string())?;
    seed_map
        .create_seeded(TENANT, data[..2 * WINDOW].to_vec())
        .map_err(|e| e.to_string())?
        .save_snapshot(&prepared.join("snap"))
        .map_err(|e| e.to_string())?;
    drop(seed_map);
    let map = layers::restore_layers(&mut tr, report, &work.0, &mc, &spec, &prepared)?;
    let tenant = map.get(TENANT).ok_or("restored map has no tenant")?;
    let default = StreamDetector::new(
        spec.stream.clone(),
        mc.clone(),
        Euclidean,
        KdTreeBuilder::default(),
        data[..64].to_vec(),
    )
    .map_err(|e| e.to_string())?;
    let server = serve_tenants(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            access_log: AccessLog::Off,
            ..ServerConfig::default()
        },
        Arc::new(default),
        Arc::new(ndjson::parse_vector_line) as ndjson::LineParser<Point>,
        "fit-http",
        Arc::clone(&map),
    )
    .map_err(|e| e.to_string())?;
    let batch_body = body(&queries[..SCORE_LINES]);
    let served = layers::request_layers(&mut tr, report, &tenant, &batch_body, server.local_addr());
    server.shutdown();
    server.wait();
    served?;
    let stats = layers::stream_layers(&mut tr, report, &tenant, &queries[..WINDOW])?;
    report.metric("stream.refits", stats.refits_completed as f64, "count");
    report.metric(
        "stream.refit_useful_ratio",
        stats.refits_completed as f64 / stats.refits_requested.max(1) as f64,
        "ratio",
    );
    let path = layers::write_spans(&tr, &args.root, "fit-http", args.seed)?;
    report.note(format!("{} spans written to {path}", tr.spans().len()));
    Ok(())
}
