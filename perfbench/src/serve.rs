//! The `serve-http` workload: the release `mccatch --serve` binary,
//! restored from a snapshot plus replay log, driven over loopback by a
//! closed-loop `/score` read phase and then an open-loop `/ingest` write
//! phase.

use crate::layers::{self, body, ms, TENANT};
use crate::samples::Samples;
use crate::stats::{percentile, Tracer};
use crate::sys::{copy_dir, cpu_secs, peak_rss_mb, WorkDir};
use crate::{Args, Report};
use mccatch_core::McCatch;
use mccatch_data::http;
use mccatch_persist::FsyncPolicy;
use mccatch_server::client::{self, Connection};
use mccatch_stream::{RefitPolicy, StreamConfig};
use mccatch_tenant::{ReplaySpec, TenantSpec};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const WINDOW: usize = 2_000;
/// Refit each shard every 1,000 events: with 2,000 events/s split over
/// two shards, about one refit per shard per second.
const REFIT_EVERY: usize = 1_000;
/// Lines per `/score` request, and per `/ingest` request.
pub const SCORE_LINES: usize = 500;
pub const INGEST_LINES: usize = 100;
/// Open-loop ingest rate, events per second.
const INGEST_RATE: f64 = 2_000.0;
/// Server boots per run that serve load. Each serves an equal slice of
/// the run's load, so the run's figures pool several server processes
/// (speed differs from process to process).
const BOOTS: usize = 3;
/// Restores timed per serving boot (`setup_s` samples): the serving
/// boot's own and restores that are killed right after their probe.
const RESTORES_PER_BOOT: usize = 3;
/// Synchronous refits after each boot's load slice (`fit_s` samples).
const REFITS_PER_BOOT: usize = 8;

/// A running `mccatch --serve` process, killed and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawns the binary and waits for its `listening on` line.
    fn boot(cli: &Path, args: &[String], log: &Path) -> Result<Self, String> {
        let stderr = std::fs::File::create(log).map_err(|e| e.to_string())?;
        let mut child = Command::new(cli)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("{}: {e}", cli.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on http://")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Self {
                child,
                addr,
                _stdout: stdout,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                let err = std::fs::read_to_string(log).unwrap_or_default();
                Err(format!("server did not come up: {line:?} {err}"))
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn csv(points: &[Vec<f64>]) -> String {
    points
        .iter()
        .map(|p| {
            let c: Vec<String> = p.iter().map(|v| format!("{v}")).collect();
            c.join(",") + "\n"
        })
        .collect()
}

/// Serve-mode flags shared by every boot.
fn serve_flags(dir: &Path, threads: usize) -> Vec<String> {
    let d = |f: &str| dir.join(f).display().to_string();
    [
        "--serve",
        "127.0.0.1:0",
        "--replay-log",
        &d("log"),
        "--shards",
        &SHARDS.to_string(),
        "--window",
        &WINDOW.to_string(),
        "--refit-every",
        &REFIT_EVERY.to_string(),
        "--threads",
        &threads.to_string(),
        "--access-log",
        "off",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn expect_ok(resp: Result<client::ClientResponse, String>, what: &str) -> Result<Vec<u8>, String> {
    match resp {
        Ok(r) if r.status == 200 => Ok(r.body),
        Ok(r) => Err(format!(
            "{what}: status {} {}",
            r.status,
            String::from_utf8_lossy(&r.body)
        )),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

/// The generated inputs of one run.
struct Inputs {
    probe: String,
    score_bodies: Vec<String>,
    ingest_bodies: Vec<String>,
}

/// Prepares the snapshot set once, untimed: a server seeded with a
/// default window, a tenant seeded over its two shards, both
/// snapshotted, a replay tail ingested after the snapshot, and the
/// probe batch's response recorded before a `kill -9`.
fn prepare(cli: &Path, dir: &Path, seed: u64, threads: usize) -> Result<(Inputs, Vec<u8>), String> {
    let data = http(60_000, seed).points;
    std::fs::write(dir.join("seed.csv"), csv(&data[..500])).map_err(|e| e.to_string())?;
    let mut flags = serve_flags(dir, threads);
    flags.extend([
        "--input".to_owned(),
        dir.join("seed.csv").display().to_string(),
        "--save-model".to_owned(),
        dir.join("snap").display().to_string(),
    ]);
    let server = Server::boot(cli, &flags, &dir.join("prepare.err"))?;
    let a = server.addr;
    let t = format!("/t/{TENANT}");
    expect_ok(
        client::Connection::open(a)?.request(
            "PUT",
            &format!("/admin/tenants/{TENANT}"),
            body(&data[500..4_500]).as_bytes(),
        ),
        "seed tenant",
    )?;
    expect_ok(client::post(a, "/admin/snapshot", b""), "snapshot default")?;
    expect_ok(
        client::post(a, &format!("{t}/admin/snapshot"), b""),
        "snapshot tenant",
    )?;
    expect_ok(
        client::post(
            a,
            &format!("{t}/ingest"),
            body(&data[4_500..4_700]).as_bytes(),
        ),
        "ingest replay tail",
    )?;
    let probe = body(&data[4_700..4_800]);
    let expected = expect_ok(
        client::post(a, &format!("{t}/score"), probe.as_bytes()),
        "probe",
    )?;
    drop(server);
    let chunks = |from: usize, to: usize, lines: usize| -> Vec<String> {
        data[from..to].chunks_exact(lines).map(body).collect()
    };
    Ok((
        Inputs {
            probe,
            score_bodies: chunks(10_000, 30_000, SCORE_LINES),
            ingest_bodies: chunks(30_000, 60_000, INGEST_LINES),
        },
        expected,
    ))
}

/// Boots a restored server from a pristine copy of `prepared`, timing
/// spawn → `listening on`, and checks the probe response is
/// byte-identical to the one recorded before the kill.
fn restore(
    cli: &Path,
    prepared: &Path,
    run: &Path,
    inputs: &Inputs,
    expected: &[u8],
    threads: usize,
    report: &mut Report,
) -> Result<(Server, f64), String> {
    copy_dir(prepared, run)?;
    let mut flags = serve_flags(run, threads);
    flags.extend([
        "--load-model".to_owned(),
        run.join("snap").display().to_string(),
    ]);
    let t0 = Instant::now();
    let server = Server::boot(cli, &flags, &run.join("server.err"))?;
    let setup = t0.elapsed().as_secs_f64();
    let got = client::post(
        server.addr,
        &format!("/t/{TENANT}/score"),
        inputs.probe.as_bytes(),
    );
    let same = matches!(&got, Ok(r) if r.status == 200 && r.body == expected);
    report.check(same, || {
        "probe batch after restore is not byte-identical to before the kill".to_owned()
    });
    Ok((server, setup))
}

/// Checks one response body: exactly `lines` lines, each starting with
/// `prefix` and carrying a finite `"score"`.
fn valid_scores(body: &[u8], lines: usize, prefix: &str) -> bool {
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    let mut n = 0;
    for line in text.lines() {
        n += 1;
        let score = line
            .strip_prefix(prefix)
            .and_then(|_| line.split("\"score\": ").nth(1))
            .and_then(|rest| rest.split([',', '}']).next())
            .and_then(|v| v.parse::<f64>().ok());
        if !score.is_some_and(f64::is_finite) {
            return false;
        }
    }
    n == lines
}

/// Latencies and outcomes of one load phase.
#[derive(Default)]
struct Load {
    /// Per-request latencies, ms, in the order sent.
    ms: Vec<f64>,
    /// How late each open-loop request was sent, ms.
    late_ms: Vec<f64>,
    failed: u64,
}

/// The read phase: one connection sending `/score` requests in a closed
/// loop for `secs`.
fn reads(addr: SocketAddr, inputs: &Inputs, secs: f64) -> Load {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let path = format!("/t/{TENANT}/score");
    let bodies = &inputs.score_bodies;
    let mut out = Load::default();
    let mut conn = Connection::open(addr).ok();
    for b in bodies.iter().cycle() {
        if Instant::now() >= deadline {
            break;
        }
        let t = Instant::now();
        let ok = send(&mut conn, addr, &path, b, SCORE_LINES, "{\"score\": ");
        out.ms.push(ms(t.elapsed()));
        out.failed += u64::from(!ok);
    }
    out
}

/// The write phase: one connection sending `/ingest` requests in an open
/// loop on a fixed schedule for `secs`, each timed from its scheduled
/// send time. The ingested events trigger the background refits.
fn writes(addr: SocketAddr, inputs: &Inputs, secs: f64) -> Load {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let path = format!("/t/{TENANT}/ingest");
    let period = Duration::from_secs_f64(INGEST_LINES as f64 / INGEST_RATE);
    let bodies = &inputs.ingest_bodies;
    let mut out = Load::default();
    let mut conn = Connection::open(addr).ok();
    for (k, b) in (0..).zip(bodies.iter().cycle()) {
        let due = start + period * k;
        if due >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        out.late_ms.push(ms(Instant::now() - due));
        let ok = send(&mut conn, addr, &path, b, INGEST_LINES, "{\"seq\": ");
        out.ms.push(ms(Instant::now() - due));
        out.failed += u64::from(!ok);
    }
    out
}

/// Sends one `POST` on `conn`, reconnecting after a transport error.
/// True when the response is a 200 with `lines` finite scores, each line
/// starting with `prefix`.
fn send(
    conn: &mut Option<Connection>,
    addr: SocketAddr,
    path: &str,
    body: &str,
    lines: usize,
    prefix: &str,
) -> bool {
    match conn
        .as_mut()
        .map(|c| c.request("POST", path, body.as_bytes()))
    {
        Some(Ok(r)) => r.status == 200 && valid_scores(&r.body, lines, prefix),
        _ => {
            *conn = Connection::open(addr).ok();
            false
        }
    }
}

/// Sums every sample of the Prometheus family `name` whose labels
/// contain all of `labels`.
fn scrape(metrics: &str, name: &str, labels: &[&str]) -> f64 {
    metrics
        .lines()
        .filter(|l| l.starts_with(name) && labels.iter().all(|x| l.contains(x)))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

pub fn serve_http(args: &Args, threads: usize, report: &mut Report) -> Result<(), String> {
    let cli = args.cli.clone().ok_or("serve-http needs --cli PATH")?;
    let work = WorkDir::new(&args.root, "serve-http")?;
    let prepared = work.path("prepared");
    std::fs::create_dir_all(&prepared).map_err(|e| e.to_string())?;
    let (inputs, expected) = prepare(&cli, &prepared, args.seed, threads)?;
    if args.trace {
        return traced(
            args, threads, report, &cli, &work, &prepared, &inputs, &expected,
        );
    }

    // Boot after boot: each restore is timed; the last of every
    // RESTORES_PER_BOOT serves one slice of the run — the read phase,
    // then the write phase, then a few synchronous refits — and is
    // killed. The server's CPU time is read around each phase.
    let mut samples = Samples::default();
    let mut late = Vec::new();
    let refit_path = format!("/t/{TENANT}/admin/refit");
    let phase = args.seconds / (2 * BOOTS) as f64;
    for boot in 0..BOOTS {
        let mut restored = None;
        for k in 0..RESTORES_PER_BOOT {
            let run = work.path(&format!("run{boot}-{k}"));
            let (server, setup) =
                restore(&cli, &prepared, &run, &inputs, &expected, threads, report)?;
            samples.setup.push(setup);
            restored = Some(server);
        }
        let server = restored.expect("at least one restore per boot");
        let pid = server.child.id();
        let cpu0 = cpu_secs(pid)?;
        let r = reads(server.addr, &inputs, phase);
        let cpu1 = cpu_secs(pid)?;
        let w = writes(server.addr, &inputs, phase);
        let cpu2 = cpu_secs(pid)?;
        report.tally(r.ms.len() as u64, r.failed, "score requests");
        report.tally(w.ms.len() as u64, w.failed, "ingest requests");
        // CPU microseconds per event of the requests that succeeded.
        let per_event = |cpu: f64, l: &Load, lines: usize| {
            let events = (l.ms.len() - l.failed as usize) * lines;
            1e6 * cpu / events.max(1) as f64
        };
        let (score_cpu, ingest_cpu) = (
            per_event(cpu1 - cpu0, &r, SCORE_LINES),
            per_event(cpu2 - cpu1, &w, INGEST_LINES),
        );
        samples.score_cpu_us.push(score_cpu);
        samples.ingest_cpu_us.push(ingest_cpu);
        samples.score_ms.extend(r.ms);
        samples.ingest_ms.extend(w.ms);
        late.extend(w.late_ms);
        let mut conn = Connection::open(server.addr)?;
        for _ in 0..REFITS_PER_BOOT {
            let t = Instant::now();
            let r = conn.request("POST", &refit_path, b"");
            samples.fit.push(t.elapsed().as_secs_f64());
            report.check(matches!(&r, Ok(r) if r.status == 200), || {
                format!("refit: {r:?}")
            });
        }
        samples.rss.push(peak_rss_mb(&server.pid())?);
    }
    report.note(format!(
        "ingest generator lateness p99 {:.3} ms, max {:.3} ms",
        percentile(&late, 99.0),
        late.iter().copied().fold(0.0, f64::max)
    ));
    samples.report(report);
    Ok(())
}

/// The traced run: the persist, tenant, stream and server layers on an
/// in-process restore of the same snapshot set, the HTTP tax against the
/// restored binary, refit counts scraped from its `/metrics` after a
/// load phase, and the fit-pipeline layers on one shard's window. The
/// tracing figures are the request's: overhead is the traced ÷ untraced
/// in-process request, and the unattributed share is the part of the
/// median HTTP `/score` latency its parse, score and format spans miss.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    threads: usize,
    report: &mut Report,
    cli: &Path,
    work: &WorkDir,
    prepared: &Path,
    inputs: &Inputs,
    expected: &[u8],
) -> Result<(), String> {
    let mut tr = Tracer::default();
    let mc = McCatch::builder()
        .threads(threads)
        .build()
        .map_err(|e| e.to_string())?;
    let spec = TenantSpec {
        shards: SHARDS,
        stream: StreamConfig {
            capacity: WINDOW,
            policy: RefitPolicy::EveryN(REFIT_EVERY as u64),
            ..StreamConfig::default()
        },
        replay: Some(ReplaySpec {
            base: PathBuf::new(),
            fsync: FsyncPolicy::EveryN(64),
        }),
        ..TenantSpec::default()
    };
    let map = layers::restore_layers(&mut tr, report, &work.path("inproc"), &mc, &spec, prepared)?;
    let tenant = map.get(TENANT).ok_or("restored map has no tenant")?;
    let window: Arc<[Vec<f64>]> = tenant
        .shard_detector(0)
        .ok_or("missing shard")?
        .window_points()
        .into();
    let (server, _) = restore(
        cli,
        prepared,
        &work.path("run"),
        inputs,
        expected,
        threads,
        report,
    )?;
    let req = layers::request_layers(
        &mut tr,
        report,
        &tenant,
        &inputs.score_bodies[0],
        server.addr,
    )?;
    report.metric("trace.overhead_ratio", req.traced / req.untraced, "ratio");
    report.metric(
        "trace.unattributed_share",
        1.0 - req.staged / req.http,
        "ratio",
    );
    let w = writes(server.addr, inputs, args.seconds / 2.0);
    report.tally(w.ms.len() as u64, w.failed, "ingest requests");
    let metrics = expect_ok(client::get(server.addr, "/metrics"), "scrape /metrics")?;
    drop(server);
    let metrics = String::from_utf8_lossy(&metrics);
    let tenant_label = format!("tenant=\"{TENANT}\"");
    let refits = |outcome: &str| {
        scrape(
            &metrics,
            "mccatch_stream_refits_total",
            &[&format!("outcome=\"{outcome}\""), &tenant_label],
        )
    };
    let rejected = scrape(
        &metrics,
        "mccatch_tenant_shard_ingest_rejected_total",
        &[&tenant_label],
    );
    report.note(format!(
        "served: {} refits completed of {} requested ({} coalesced), {rejected} ingest \
         rejections",
        refits("completed"),
        refits("requested"),
        refits("coalesced")
    ));
    report.metric("stream.refits", refits("completed"), "count");
    report.metric(
        "stream.refit_useful_ratio",
        refits("completed") / refits("requested").max(1.0),
        "ratio",
    );
    let events: Vec<Vec<f64>> = inputs.ingest_bodies[..WINDOW / INGEST_LINES]
        .iter()
        .flat_map(|b| b.lines().map(mccatch_server::ndjson::parse_vector_line))
        .collect::<Result<_, _>>()?;
    layers::stream_layers(&mut tr, report, &tenant, &events)?;
    report.metric("metric.dist_ns", layers::dist_ns(&window, args.seed), "ns");
    layers::fit_layers(&mut tr, report, &window, threads)?;
    let path = layers::write_spans(&tr, &args.root, "serve-http", args.seed)?;
    report.note(format!("{} spans written to {path}", tr.spans().len()));
    Ok(())
}
