//! Per-layer measurements shared by every workload's traced run. Each one
//! times a layer from outside, through that layer's public functions:
//! the distance kernel (`metric`), the fit pipeline recomposed from its
//! stage functions (`index`, `core`), and a restored 2-shard tenant
//! (`persist`, `tenant`, `stream`, `server`). Every workload runs 3-d
//! Euclidean points over a kd-tree.

use crate::stats::{median, self_ns, Tracer};
use crate::sys::{copy_dir, splitmix};
use crate::Report;
use mccatch_core::counts::count_neighbors;
use mccatch_core::gel::spot_microclusters;
use mccatch_core::score::score_microclusters;
use mccatch_core::{compute_cutoff, McCatch, OraclePlot, Params, RadiusGrid};
use mccatch_index::{IndexBuilder, KdTreeBuilder, RangeIndex};
use mccatch_metric::{Euclidean, Metric};
use mccatch_persist::load_model;
use mccatch_server::client::Connection;
use mccatch_server::ndjson::{self, json_f64};
use mccatch_stream::StreamStats;
use mccatch_tenant::{shard_file_path, Tenant, TenantMap, TenantSpec};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The tenant every workload serves.
pub const TENANT: &str = "t";

/// One data point: every workload serves 3-d Euclidean vectors.
pub type Point = Vec<f64>;
/// The tenant map every workload restores.
pub type Map = TenantMap<Point, Euclidean, KdTreeBuilder>;

/// Renders points as one NDJSON request body.
pub fn body(points: &[Point]) -> String {
    points
        .iter()
        .map(|p| {
            let coords: Vec<String> = p.iter().map(|v| format!("{v}")).collect();
            format!("[{}]\n", coords.join(","))
        })
        .collect()
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one recomposed fit produced and how long each stage took.
pub struct Composed {
    pub outliers: Vec<u32>,
    pub scores: Vec<f64>,
    pub count_evals: u64,
    pub build: Duration,
    pub count: Duration,
    pub plot: Duration,
    pub cutoff: Duration,
    pub detect: Duration,
    /// The root span.
    pub total: Duration,
    /// The part of the root span its stage spans cover.
    pub staged: Duration,
}

/// Runs Alg. 1 from its public stage functions — exactly the calls
/// `McCatch::fit` + `Fitted::detect` make — with one span per stage
/// under a root span named `root`.
pub fn composed_fit(
    tr: &mut Tracer,
    root: &'static str,
    points: &Arc<[Point]>,
    threads: usize,
) -> Composed {
    let metric = Arc::new(Euclidean);
    let builder = KdTreeBuilder::default();
    let r = Params {
        threads,
        ..Params::default()
    }
    .try_resolve(points.len())
    .expect("default parameters resolve for any non-empty dataset");
    let top = tr.enter(root);
    let ((tree, grid), build) = tr.time("index.build", || {
        let tree = builder.build_all(Arc::clone(points), Arc::clone(&metric));
        let grid = RadiusGrid::new(tree.diameter_estimate(), r.a);
        (tree, grid)
    });
    let radii = grid.radii();
    let before = tree.distance_stats().evals;
    let (table, count) = tr.time("index.count", || {
        count_neighbors(&tree, points, radii, r.c, r.threads)
    });
    let count_evals = tree.distance_stats().evals - before;
    let (plot, plot_t) = tr.time("core.plot", || {
        OraclePlot::from_counts(&table, radii, r.b, r.c)
    });
    let (cut, cutoff) = tr.time("core.cutoff", || compute_cutoff(plot.histogram(), radii));
    let ((outliers, scores), detect) = tr.time("core.detect", || {
        let spotted = spot_microclusters(points, &metric, &builder, &plot, &cut, radii);
        let scored = score_microclusters(
            points,
            &metric,
            &builder,
            &spotted.clusters,
            &spotted.outliers,
            &plot,
            radii,
            r.threads,
        );
        (spotted.outliers, scored.point_scores)
    });
    let total = tr.exit(top);
    let staged = total - Duration::from_nanos(self_ns(tr.spans(), top));
    Composed {
        outliers,
        scores,
        count_evals,
        build,
        count,
        plot: plot_t,
        cutoff,
        detect,
        total,
        staged,
    }
}

/// Rounds of [`fit_layers`]: each one untraced fit and one traced
/// recomposition, interleaved so drift in the host's speed hits both.
const FIT_ROUNDS: usize = 3;

/// Tracing figures from [`fit_layers`]: medians over its rounds of ratios
/// taken within each round, against that round's untraced fit.
pub struct FitTrace {
    /// Traced recomposition ÷ untraced `McCatch::fit` + `Fitted::detect`.
    pub overhead: f64,
    /// 1 − stage-span time ÷ untraced fit: the share of the fit's wall
    /// time that no stage span covers. Host noise between the two fits of
    /// a round can push it below 0.
    pub unattributed: f64,
}

/// Reports the fit-pipeline layers: [`FIT_ROUNDS`] rounds of an untraced
/// `McCatch` fit and the traced recomposition at `threads`, then one
/// recomposition at 1 thread, with the determinism checks among them
/// (bit-identical outliers and scores, equal counting evaluations in
/// every fit). Stage times are medians over the rounds.
pub fn fit_layers(
    tr: &mut Tracer,
    report: &mut Report,
    points: &Arc<[Point]>,
    threads: usize,
) -> Result<FitTrace, String> {
    let mc = McCatch::builder()
        .threads(threads)
        .build()
        .map_err(|e| e.to_string())?;
    let mut untraced = Vec::new();
    let mut fits = Vec::new();
    let mut rounds = Vec::new();
    for _ in 0..FIT_ROUNDS {
        let t0 = Instant::now();
        fits.push(
            mc.fit(Arc::clone(points), Euclidean, KdTreeBuilder::default())
                .map_err(|e| e.to_string())?
                .detect(),
        );
        untraced.push(t0.elapsed().as_secs_f64());
        rounds.push(composed_fit(tr, "fit", points, threads));
    }
    let one = composed_fit(tr, "fit_1t", points, 1);
    let reference = &fits[0];
    let same = |outliers: &[u32], scores: &[f64]| {
        outliers == reference.outliers
            && scores.len() == reference.point_scores.len()
            && scores
                .iter()
                .zip(&reference.point_scores)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    };
    for (i, f) in fits.iter().enumerate().skip(1) {
        report.check(same(&f.outliers, &f.point_scores), || {
            format!("McCatch::fit + detect round {i} differs from round 0")
        });
        report.check(f.stats.dist_count == reference.stats.dist_count, || {
            format!(
                "count not repeated: McCatch::fit round {i} made {} distance evaluations, \
                 round 0 made {}",
                f.stats.dist_count, reference.stats.dist_count
            )
        });
    }
    for (what, c) in rounds.iter().map(|c| (threads, c)).chain([(1, &one)]) {
        report.check(same(&c.outliers, &c.scores), || {
            format!("{what}-thread recomposed fit differs from McCatch::fit + detect")
        });
        report.check(c.count_evals == reference.stats.dist_count, || {
            format!(
                "count not repeated: {what}-thread counting made {} distance evaluations, \
                 McCatch::fit made {}",
                c.count_evals, reference.stats.dist_count
            )
        });
    }

    let med = |f: fn(&Composed) -> Duration| {
        median(
            &rounds
                .iter()
                .map(|c| f(c).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let count_s = med(|c| c.count);
    report.metric("index.build_s", med(|c| c.build), "s");
    report.metric("index.count_s", count_s, "s");
    report.metric(
        "index.count_evals",
        reference.stats.dist_count as f64,
        "count",
    );
    report.metric(
        "index.count_ns_per_eval",
        count_s * 1e9 * threads as f64 / reference.stats.dist_count.max(1) as f64,
        "ns",
    );
    report.metric("core.plot_s", med(|c| c.plot), "s");
    report.metric("core.cutoff_s", med(|c| c.cutoff), "s");
    report.metric("core.detect_s", med(|c| c.detect), "s");
    report.metric("core.count_1t_s", one.count.as_secs_f64(), "s");
    report.metric(
        "core.thread_speedup",
        one.count.as_secs_f64() / count_s,
        "ratio",
    );
    report.note(format!(
        "fit at {threads} threads: {:.4} s untraced, {:.4} s traced ({:.4} s in stage spans); \
         at 1 thread: {:.4} s traced",
        median(&untraced),
        med(|c| c.total),
        med(|c| c.staged),
        one.total.as_secs_f64()
    ));
    let per_round = |f: fn(&Composed, f64) -> f64| {
        let each: Vec<f64> = rounds
            .iter()
            .zip(&untraced)
            .map(|(c, &u)| f(c, u))
            .collect();
        median(&each)
    };
    Ok(FitTrace {
        overhead: per_round(|c, u| c.total.as_secs_f64() / u),
        unattributed: per_round(|c, u| 1.0 - c.staged.as_secs_f64() / u),
    })
}

/// Nanoseconds per `Metric::distance` call over a fixed, seed-derived
/// sample of pairs from the workload's own points (median of 5 rounds).
pub fn dist_ns(points: &[Point], seed: u64) -> f64 {
    let mut state = seed;
    let n = points.len() as u64;
    let pairs: Vec<(usize, usize)> = (0..4096)
        .map(|_| {
            (
                (splitmix(&mut state) % n) as usize,
                (splitmix(&mut state) % n) as usize,
            )
        })
        .collect();
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut calls = 0u64;
            let mut acc = 0.0;
            while t0.elapsed() < Duration::from_millis(60) {
                for &(i, j) in &pairs {
                    acc += Euclidean.distance(&points[i], &points[j]);
                }
                calls += pairs.len() as u64;
            }
            black_box(acc);
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&rounds)
}

/// Times the persist and tenant layers on the snapshot set in
/// `prepared` (`snap.t.{shard}` plus, when the spec logs, `log.t.{shard}`):
/// one verified `load_model` per shard file (`persist.load_s`) and three
/// `TenantMap::restore_tenants` from pristine copies (`tenant.restore_s`;
/// a restore rotates the logs it read). Returns the last restored map.
pub fn restore_layers(
    tr: &mut Tracer,
    report: &mut Report,
    scratch: &Path,
    mc: &McCatch,
    spec: &TenantSpec,
    prepared: &Path,
) -> Result<Arc<Map>, String> {
    let snap = prepared.join("snap");
    let mut loads = Vec::new();
    for shard in 0..spec.shards {
        let path = shard_file_path(&snap, TENANT, shard);
        let file = std::fs::File::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let (loaded, t) = tr.time("persist.load", || {
            load_model::<Point, _, _, _>(
                std::io::BufReader::new(file),
                Euclidean,
                KdTreeBuilder::default(),
            )
        });
        report.check(loaded.is_ok(), || format!("load_model {}", path.display()));
        loads.push(t.as_secs_f64());
    }
    report.metric(
        "persist.load_s",
        loads.iter().sum::<f64>() / loads.len() as f64,
        "s",
    );
    let mut restores = Vec::new();
    let mut map = None;
    for rep in 0..3 {
        let dir = scratch.join(format!("restore{rep}"));
        copy_dir(prepared, &dir)?;
        let mut spec = spec.clone();
        if let Some(replay) = spec.replay.as_mut() {
            replay.base = dir.join("log");
        }
        let m = Map::new(mc.clone(), Euclidean, KdTreeBuilder::default(), spec)
            .map_err(|e| e.to_string())?;
        let (restored, t) = tr.time("tenant.restore", || m.restore_tenants(&dir.join("snap")));
        let ok = matches!(&restored, Ok(v) if v.len() == 1);
        report.check(ok, || format!("restore_tenants: {restored:?}"));
        restores.push(t.as_secs_f64());
        map = Some(Arc::new(m));
    }
    report.metric("tenant.restore_s", median(&restores), "s");
    Ok(map.expect("three restores ran"))
}

fn render_scores(scores: &[f64]) -> String {
    let mut out = String::new();
    for s in scores {
        out.push_str(&format!("{{\"score\": {}}}\n", json_f64(*s)));
    }
    out
}

/// Request wall times from [`request_layers`] in ms, medians over rounds.
pub struct RequestTimes {
    /// The batch as one `POST /t/t/score` over loopback HTTP.
    pub http: f64,
    /// Parse, tenant score and format in process, untraced.
    pub untraced: f64,
    /// The same as a traced `request` root span.
    pub traced: f64,
    /// The part of the root span its stage spans cover.
    pub staged: f64,
}

/// Times the request path layer by layer — parse, each shard's stream
/// score, the tenant score, format — then the whole in-process request,
/// untraced and as traced `request` spans, and the same batch over
/// loopback HTTP.
/// The steps are interleaved round by round, so drift in the host's
/// speed hits every step alike; each metric is a median over rounds.
/// Reports `stream.score_us` (shard 0), `tenant.score_us`,
/// `tenant.fanout_us`, `server.parse_us`, `server.format_us` and
/// `server.http_ms`.
pub fn request_layers(
    tr: &mut Tracer,
    report: &mut Report,
    tenant: &Tenant<Point, Euclidean, KdTreeBuilder>,
    batch_body: &str,
    http: SocketAddr,
) -> Result<RequestTimes, String> {
    let lines: Vec<&str> = batch_body.lines().collect();
    let n = lines.len() as f64;
    let parse_all = || {
        lines
            .iter()
            .map(|l| ndjson::parse_vector_line(l))
            .collect::<Result<Vec<Point>, _>>()
    };
    let batch = parse_all()?;
    let shards: Vec<_> = (0..tenant.shards())
        .map(|s| tenant.shard_detector(s).ok_or("missing shard"))
        .collect::<Result<_, _>>()?;
    let mut conn = Connection::open(http)?;
    let path = format!("/t/{TENANT}/score");
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6 / n;
    let (mut parse, mut format, mut tenant_us, mut fanout) = (vec![], vec![], vec![], vec![]);
    let mut shard0 = vec![];
    let (mut traced, mut staged, mut untraced, mut over_http) = (vec![], vec![], vec![], vec![]);
    let t0 = Instant::now();
    while traced.len() < 30 || t0.elapsed() < Duration::from_secs(1) {
        let t = Instant::now();
        black_box(parse_all()?);
        parse.push(us(t));
        let mut sum = 0.0;
        for (i, d) in shards.iter().enumerate() {
            let t = Instant::now();
            black_box(d.score_batch(&batch));
            sum += us(t);
            if i == 0 {
                shard0.push(us(t));
            }
        }
        let t = Instant::now();
        let (scores, _) = tenant.score_batch(&batch);
        tenant_us.push(us(t));
        fanout.push(us(t) - sum);
        let t = Instant::now();
        black_box(render_scores(&scores));
        format.push(us(t));
        report.check(
            scores.len() == batch.len() && scores.iter().all(|s| s.is_finite()),
            || "in-process tenant scores are not all finite".to_owned(),
        );

        let t = Instant::now();
        let points = parse_all()?;
        let (scores, _) = tenant.score_batch(&points);
        black_box(render_scores(&scores));
        untraced.push(ms(t.elapsed()));

        let root = tr.enter("request");
        let (points, _) = tr.time("server.parse", parse_all);
        let points = points?;
        let ((scores, _), _) = tr.time("tenant.score", || tenant.score_batch(&points));
        tr.time("server.format", || black_box(render_scores(&scores)));
        let total = tr.exit(root);
        traced.push(ms(total));
        staged.push(ms(total - Duration::from_nanos(self_ns(tr.spans(), root))));

        let t = Instant::now();
        let resp = conn.request("POST", &path, batch_body.as_bytes())?;
        over_http.push(ms(t.elapsed()));
        report.check(resp.status == 200, || {
            format!("HTTP tax probe got status {}", resp.status)
        });
    }
    let times = RequestTimes {
        http: median(&over_http),
        untraced: median(&untraced),
        traced: median(&traced),
        staged: median(&staged),
    };
    report.metric("stream.score_us", median(&shard0), "us");
    report.metric("tenant.score_us", median(&tenant_us), "us");
    report.metric("tenant.fanout_us", median(&fanout), "us");
    report.metric("server.parse_us", median(&parse), "us");
    report.metric("server.format_us", median(&format), "us");
    report.metric("server.http_ms", times.http - times.untraced, "ms");
    report.note(format!(
        "request of {n} lines: {:.4} ms over HTTP; in process {:.4} ms untraced, {:.4} ms \
         traced ({:.4} ms in stage spans)",
        times.http, times.untraced, times.traced, times.staged
    ));
    Ok(times)
}

/// Times the stream layer on shard 0 of `tenant`: three synchronous
/// refits of its full window (`stream.refit_s`), then per-event
/// `StreamDetector::ingest` of `events` in 100-event batches
/// (`stream.ingest_us`). Returns the shard's stats once the background
/// refits the ingest triggered have settled.
pub fn stream_layers(
    tr: &mut Tracer,
    report: &mut Report,
    tenant: &Tenant<Point, Euclidean, KdTreeBuilder>,
    events: &[Point],
) -> Result<StreamStats, String> {
    let d = tenant.shard_detector(0).ok_or("missing shard")?;
    let refits: Vec<f64> = (0..3)
        .map(|_| {
            let (r, t) = tr.time("stream.refit", || d.refit_now());
            report.check(r.is_ok(), || format!("refit_now: {r:?}"));
            t.as_secs_f64()
        })
        .collect();
    report.metric("stream.refit_s", median(&refits), "s");
    let mut per_event = Vec::new();
    for chunk in events.chunks(100) {
        let owned = chunk.to_vec();
        let m = owned.len();
        let (bad, t) = tr.time("stream.ingest", || {
            owned
                .into_iter()
                .map(|p| d.ingest(p))
                .filter(|e| !e.score.is_finite())
                .count()
        });
        report.check(bad == 0, || {
            format!("{bad} ingested events scored non-finite")
        });
        per_event.push(t.as_secs_f64() * 1e6 / m as f64);
    }
    report.metric("stream.ingest_us", median(&per_event), "us");
    let settle = Instant::now();
    loop {
        let s = d.stats();
        let done = s.refits_completed + s.refits_coalesced + s.refits_skipped + s.refits_failed;
        if s.refit_queue_depth == 0 && s.refits_requested <= done {
            return Ok(s);
        }
        if settle.elapsed() > Duration::from_secs(60) {
            return Err("background refits did not settle".to_owned());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Writes the run's spans to `{root}/.bench_work/spans-{workload}-{seed}.json`.
pub fn write_spans(tr: &Tracer, root: &Path, workload: &str, seed: u64) -> Result<String, String> {
    let dir = root.join(".bench_work");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("spans-{workload}-{seed}.json"));
    std::fs::write(&path, crate::stats::spans_json(tr.spans()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}
