//! One serving path: the bare endpoints serve the default detector as a
//! 1-shard tenant, so over the wire they must be indistinguishable from
//! a 1-shard named tenant seeded with the same points.

use mccatch_core::McCatch;
use mccatch_index::KdTreeBuilder;
use mccatch_metric::Euclidean;
use mccatch_server::client::{ClientResponse, Connection};
use mccatch_server::{ndjson, serve_tenants, ServerConfig};
use mccatch_stream::{RefitPolicy, StreamConfig, StreamDetector};
use mccatch_tenant::{TenantMap, TenantSpec};
use std::sync::Arc;

fn seed() -> Vec<Vec<f64>> {
    let mut pts: Vec<Vec<f64>> = (0..100)
        .map(|i| vec![(i % 10) as f64, (i / 10) as f64])
        .collect();
    pts.push(vec![500.0, 500.0]);
    pts
}

/// Status, generation header and body — everything a client sees of
/// an NDJSON response.
fn seen(resp: ClientResponse) -> (u16, Option<String>, String) {
    let generation = resp.header("x-mccatch-generation").map(str::to_owned);
    (resp.status, generation, resp.text().unwrap().to_owned())
}

#[test]
fn default_and_one_shard_named_tenant_answer_byte_identically() {
    let (detector, metric, index) = (
        McCatch::builder().build().unwrap(),
        Euclidean,
        KdTreeBuilder::default(),
    );
    let stream = StreamConfig {
        capacity: 512,
        policy: RefitPolicy::Manual,
        ..StreamConfig::default()
    };
    let default = StreamDetector::new(stream.clone(), detector.clone(), metric, index, seed());
    let spec = TenantSpec {
        shards: 1,
        stream,
        ..TenantSpec::default()
    };
    let map = TenantMap::new(detector, metric, index, spec).unwrap();
    map.create_seeded("twin", seed()).unwrap();
    let server = serve_tenants(
        "127.0.0.1:0",
        ServerConfig::default(),
        Arc::new(default.unwrap()),
        ndjson::vector_parser(Some(2)),
        "kd",
        Arc::new(map),
    )
    .unwrap();
    let mut conn = Connection::open(server.local_addr()).unwrap();
    let mut both = |path: &str, body: &[u8]| {
        let bare = seen(conn.request("POST", path, body).unwrap());
        let named = seen(
            conn.request("POST", &format!("/t/twin{path}"), body)
                .unwrap(),
        );
        assert_eq!(bare, named, "{path} diverged for body {body:?}");
        bare
    };
    let score = b"[4.5, 4.5]\nnot json\n[900.0, 900.0]\n\xff\n[250.0, -3.0]\n".as_slice();
    let ingest = b"[4.0, 4.0]\nbroken\n[800.0, -3.0]\n[1.5, 9.0]\n".as_slice();
    assert_eq!(both("/score", score).1.as_deref(), Some("0"));
    let (status, generation, body) = both("/ingest", ingest);
    assert_eq!((status, generation.as_deref()), (200, Some("0")));
    assert_eq!(body.lines().count(), 4);
    assert_eq!(both("/admin/refit", b"").1.as_deref(), Some("1"));
    both("/score", score);
    let (_, generation, body) = both("/ingest", ingest);
    assert_eq!(generation.as_deref(), Some("1"));
    assert!(body.contains("\"generation\": 1"), "{body}");
    // An empty batch is tagged with the current generation.
    assert_eq!(both("/ingest", b"").1.as_deref(), Some("1"));
    // Close the keep-alive connection so shutdown need not wait out its
    // read timeout.
    drop(conn);
    server.shutdown();
}
