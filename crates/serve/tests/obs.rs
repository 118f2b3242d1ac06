//! Observability tests: request ids on the wire, the structured
//! access log's golden schema, the `/v1/admin/stats` auth matrix and
//! payload, RED counter families under mixed traffic, and the
//! byte-for-byte `/metrics` ↔ `/v1/metrics` parity.

use farmer_classify::IRG_FINGERPRINT_THETA;
use farmer_core::{canonical_sort, Farmer, MiningParams};
use farmer_dataset::DatasetBuilder;
use farmer_serve::{
    http_get, http_get_auth, http_post, start, ArtifactHandle, ServeConfig, ShardedIndex,
};
use farmer_store::{save_artifact, Artifact, ArtifactMeta};
use farmer_support::json::Json;
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Mines the four-row, two-class artifact the server tests share and
/// writes it to `path`; returns the group count.
fn write_artifact(path: &Path) -> usize {
    let mut b = DatasetBuilder::new(2);
    b.add_row([0, 1, 2], 0);
    b.add_row([0, 1], 0);
    b.add_row([1, 2, 3], 1);
    b.add_row([0, 3], 1);
    let d = b.build();
    let mut groups = Vec::new();
    for class in 0..2 {
        groups.extend(
            Farmer::new(MiningParams::new(class).min_sup(1))
                .mine(&d)
                .groups,
        );
    }
    canonical_sort(&mut groups);
    save_artifact(path, &ArtifactMeta::from_dataset(&d), &groups).unwrap();
    groups.len()
}

fn in_memory_handle() -> Arc<ArtifactHandle> {
    let mut b = DatasetBuilder::new(2);
    b.add_row([0, 1, 2], 0);
    b.add_row([0, 1], 0);
    b.add_row([1, 2, 3], 1);
    b.add_row([0, 3], 1);
    let d = b.build();
    let mut groups = Vec::new();
    for class in 0..2 {
        groups.extend(
            Farmer::new(MiningParams::new(class).min_sup(1))
                .mine(&d)
                .groups,
        );
    }
    canonical_sort(&mut groups);
    let artifact = Artifact {
        meta: ArtifactMeta::from_dataset(&d),
        groups,
    };
    Arc::new(ArtifactHandle::from_index(ShardedIndex::build(
        artifact,
        IRG_FINGERPRINT_THETA,
        2,
    )))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fgi-obs-{}-{name}", std::process::id()))
}

fn error_field(body: &str, field: &str) -> String {
    Json::parse(body)
        .unwrap()
        .get("error")
        .and_then(|e| e.get(field))
        .and_then(Json::as_str)
        .unwrap()
        .to_string()
}

#[test]
fn every_response_carries_a_unique_request_id() {
    let server = start(in_memory_handle(), &ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();

    // Concurrent hammer: every response id is present, hex, distinct.
    let mut ids = HashSet::new();
    let collected: Vec<String> = farmer_support::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    (0..10)
                        .map(|_| {
                            let r = http_get(&addr, "/v1/healthz").unwrap();
                            assert_eq!(r.status, 200);
                            r.header("X-Request-Id").unwrap().to_string()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    for id in collected {
        assert_eq!(id.len(), 16, "{id}");
        assert!(id.bytes().all(|b| b.is_ascii_hexdigit()), "{id}");
        assert!(ids.insert(id.clone()), "duplicate request id {id}");
    }
    assert_eq!(ids.len(), 80);

    // An error envelope stamps the same id the header carries.
    let r = http_get(&addr, "/v1/classify").unwrap();
    assert_eq!(r.status, 400);
    assert_eq!(
        error_field(&r.body, "request_id"),
        r.header("X-Request-Id").unwrap()
    );

    // A sane inbound id is echoed; a junk one is replaced.
    let raw = |path: &str, rid: &str| {
        let mut s = TcpStream::connect(&addr).unwrap();
        write!(
            s,
            "GET {path} HTTP/1.1\r\nX-Request-Id: {rid}\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    };
    assert!(raw("/v1/healthz", "trace-me_42").contains("X-Request-Id: trace-me_42"));
    let replaced = raw("/v1/healthz", "bad id with spaces");
    assert!(!replaced.contains("bad id with spaces"), "{replaced}");
    assert!(replaced.contains("X-Request-Id: "), "{replaced}");

    server.shutdown();
}

/// The access-log line schema, pinned against a checked-in golden.
/// `FARMER_UPDATE_GOLDEN=1` regenerates after an intentional change.
#[test]
fn access_log_lines_match_the_golden_schema() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/access_log_line.json");
    let log_path = tmp("access.jsonl");
    let config = ServeConfig {
        log_out: Some(log_path.to_str().unwrap().to_string()),
        ..ServeConfig::default()
    };
    let server = start(in_memory_handle(), &config).unwrap();
    let addr = server.addr().to_string();

    assert_eq!(http_get(&addr, "/v1/healthz").unwrap().status, 200);
    assert_eq!(
        http_get(&addr, "/v1/classify?items=i0,i1").unwrap().status,
        200
    );
    assert_eq!(http_get(&addr, "/v1/classify").unwrap().status, 400);
    let rid = {
        let r = http_get(&addr, "/v1/query?items=i0").unwrap();
        assert_eq!(r.status, 200);
        r.header("X-Request-Id").unwrap().to_string()
    };
    server.shutdown();

    let text = std::fs::read_to_string(&log_path).unwrap();
    let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(lines.len(), 4, "{text}");

    if std::env::var_os("FARMER_UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, lines[0].pretty()).unwrap();
    }
    let golden = Json::parse(
        &std::fs::read_to_string(golden_path)
            .unwrap_or_else(|e| panic!("{golden_path}: {e} (FARMER_UPDATE_GOLDEN=1 to create)")),
    )
    .unwrap();
    for (i, line) in lines.iter().enumerate() {
        assert_same_shape(line, &golden, &format!("line[{i}]"));
    }

    // Value invariants on top of the shape: statuses in request order,
    // and the id the client saw is the id the log recorded.
    let field = |i: usize, k: &str| lines[i].get(k).cloned().unwrap();
    assert_eq!(field(0, "path").as_str(), Some("/v1/healthz"));
    assert_eq!(field(2, "status").as_u64(), Some(400));
    assert_eq!(field(3, "id").as_str(), Some(rid.as_str()));
    assert_eq!(field(3, "shed"), Json::Bool(false));
    std::fs::remove_file(&log_path).unwrap();
}

/// Recursive structural comparison against the golden document (the
/// CLI's stats-schema idiom): identical keys in identical order,
/// matching scalar types, values free to vary.
fn assert_same_shape(actual: &Json, golden: &Json, path: &str) {
    match (actual, golden) {
        (Json::Null, Json::Null) => {}
        (Json::Bool(_), Json::Bool(_)) => {}
        (Json::Str(_), Json::Str(_)) => {}
        (Json::Int(_) | Json::Float(_), Json::Int(_) | Json::Float(_)) => {}
        (Json::Arr(a), Json::Arr(g)) => {
            if let Some(first) = g.first() {
                assert!(!a.is_empty(), "empty array at {path}, golden is not");
                for (i, el) in a.iter().enumerate() {
                    assert_same_shape(el, first, &format!("{path}[{i}]"));
                }
            }
        }
        (Json::Obj(a), Json::Obj(g)) => {
            let keys = |o: &[(String, Json)]| -> Vec<String> {
                o.iter().map(|(k, _)| k.clone()).collect()
            };
            assert_eq!(keys(a), keys(g), "object keys at {path}");
            for ((k, av), (_, gv)) in a.iter().zip(g.iter()) {
                assert_same_shape(av, gv, &format!("{path}.{k}"));
            }
        }
        _ => panic!("shape mismatch at {path}: got {actual:?}, golden {golden:?}"),
    }
}

#[test]
fn admin_stats_requires_the_bearer_token() {
    // Without a token the endpoint is disabled outright.
    let server = start(in_memory_handle(), &ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let r = http_get(&addr, "/v1/admin/stats").unwrap();
    assert_eq!(
        (r.status, error_field(&r.body, "code").as_str()),
        (403, "admin_disabled")
    );
    server.shutdown();

    // With a token: missing or wrong bearer is 401, the right one 200.
    let config = ServeConfig {
        admin_token: Some("sekrit".to_string()),
        slow_ms: 0, // capture everything so the ring is non-empty
        ..ServeConfig::default()
    };
    let server = start(in_memory_handle(), &config).unwrap();
    let addr = server.addr().to_string();
    let r = http_get(&addr, "/v1/admin/stats").unwrap();
    assert_eq!(
        (r.status, error_field(&r.body, "code").as_str()),
        (401, "unauthorized")
    );
    let r = http_get_auth(&addr, "/v1/admin/stats", Some("wrong")).unwrap();
    assert_eq!(
        (r.status, error_field(&r.body, "code").as_str()),
        (401, "unauthorized")
    );

    assert_eq!(
        http_get(&addr, "/v1/classify?items=i1").unwrap().status,
        200
    );
    let r = http_get_auth(&addr, "/v1/admin/stats", Some("sekrit")).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let doc = Json::parse(&r.body).unwrap();
    assert!(doc.get("uptime_ns").and_then(Json::as_u64).unwrap() > 0);
    assert_eq!(doc.get("epoch").and_then(Json::as_u64), Some(0));
    assert_eq!(doc.get("shards").and_then(Json::as_u64), Some(2));
    assert!(doc.get("postings_entries").and_then(Json::as_u64).unwrap() > 0);
    let counters = doc.get("counters").unwrap();
    assert_eq!(
        counters
            .get("serve_classify_requests")
            .and_then(Json::as_u64),
        Some(1)
    );
    // slow_ms=0 captures every request (including the auth probes
    // above): the classify is in the ring with its phase breakdown.
    let Some(Json::Arr(slow)) = doc.get("slow") else {
        panic!("slow must be an array: {}", r.body);
    };
    assert!(!slow.is_empty());
    let entry = slow
        .iter()
        .find(|e| e.get("path").and_then(Json::as_str) == Some("/v1/classify"))
        .unwrap_or_else(|| panic!("classify not captured: {}", r.body));
    for phase in ["parse_ns", "snapshot_ns", "compute_ns", "write_ns"] {
        assert!(entry.get(phase).and_then(Json::as_u64).is_some(), "{phase}");
    }
    assert_eq!(entry.get("status").and_then(Json::as_u64), Some(200));
    server.shutdown();
}

/// The acceptance scenario: concurrent requests + a reload + a shed,
/// then every RED family on `/v1/metrics` has moved.
#[test]
fn red_counter_families_increment_under_mixed_traffic() {
    let path = tmp("red.fgi");
    write_artifact(&path);
    let handle = Arc::new(ArtifactHandle::load(&path, IRG_FINGERPRINT_THETA, 2).unwrap());
    let config = ServeConfig {
        workers: 2,
        max_inflight: 1,
        admin_token: Some("sekrit".to_string()),
        ..ServeConfig::default()
    };
    let server = start(Arc::clone(&handle), &config).unwrap();
    let addr = server.addr().to_string();

    // A fresh server's first scrape already carries the families.
    let fresh = http_get(&addr, "/v1/metrics").unwrap().body;
    for family in [
        "farmer_serve_requests_total",
        "farmer_serve_shed_total",
        "farmer_serve_inflight",
    ] {
        assert!(fresh.contains(family), "{family} missing:\n{fresh}");
    }

    // Concurrent successful traffic plus one 4xx. With max_inflight=1
    // a knock can be shed; clients retry until they land 5 successes,
    // so exactly 20 classify requests are answered 200.
    farmer_support::thread::scope(|scope| {
        for _ in 0..4 {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut ok = 0;
                while ok < 5 {
                    // A shed can also surface as a reset (the acceptor
                    // closes with the request unread) — retry either way.
                    match http_get(&addr, "/v1/classify?items=i0,i1") {
                        Ok(r) if r.status == 200 => ok += 1,
                        Ok(r) => assert_eq!(r.status, 503),
                        Err(_) => {}
                    }
                }
            });
        }
    });
    assert_eq!(http_get(&addr, "/v1/classify").unwrap().status, 400);

    // One reload through the authenticated endpoint.
    let r = http_post(&addr, "/v1/admin/reload", "", Some("sekrit")).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);

    // Force at least one shed: hold a connection in a worker by
    // withholding its request, then knock with another silent
    // connection (sending nothing keeps the shed 503 readable — the
    // acceptor never reads the socket before closing it).
    let held = TcpStream::connect(server.addr()).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));
    let mut knock = TcpStream::connect(server.addr()).unwrap();
    let mut out = String::new();
    knock.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 503"), "{out}");
    assert!(out.contains("X-Request-Id: "), "{out}");
    drop(held);

    let scrape = || -> String {
        for _ in 0..50 {
            if let Ok(r) = http_get(&addr, "/v1/metrics") {
                if r.status == 200 {
                    return r.body;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        panic!("metrics never answered after the shed window");
    };
    let text = scrape();
    let value = |family: &str| -> i64 {
        text.lines()
            .find(|l| l.starts_with(family) && l.split_whitespace().count() == 2)
            .unwrap_or_else(|| panic!("family {family} missing:\n{text}"))
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert!(value("farmer_serve_requests_total") >= 22);
    assert!(value("farmer_serve_classify_requests_total") >= 21);
    assert!(value("farmer_serve_errors_total") >= 1);
    assert!(value("farmer_serve_classify_errors_total") >= 1);
    assert!(value("farmer_serve_responses_2xx_total") >= 20);
    assert!(value("farmer_serve_responses_4xx_total") >= 1);
    assert!(value("farmer_serve_reloads_total") >= 1);
    assert!(value("farmer_serve_shed_total") >= 1);
    // The scrape itself is in flight while the tracer drains: ≥ 1.
    assert!(value("farmer_serve_inflight") >= 1, "{text}");
    assert!(text.contains("# TYPE farmer_serve_requests_total counter"));
    assert!(text.contains("# TYPE farmer_serve_inflight gauge"));

    server.shutdown();
    assert!(server_requests_shed_is_gone(&path));
}

/// Tiny epilogue helper so the artifact tempfile is removed even if a
/// later assertion grows above; returns true for the final assert.
fn server_requests_shed_is_gone(path: &Path) -> bool {
    let _ = std::fs::remove_file(path);
    true
}

#[test]
fn healthz_reports_build_and_artifact_versions() {
    let path = tmp("healthz.fgi");
    write_artifact(&path);
    let handle = Arc::new(ArtifactHandle::load(&path, IRG_FINGERPRINT_THETA, 2).unwrap());
    let server = start(handle, &ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let doc = Json::parse(&http_get(&addr, "/v1/healthz").unwrap().body).unwrap();
    assert_eq!(
        doc.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    // save_artifact writes the current (v2) format.
    assert_eq!(doc.get("artifact_version").and_then(Json::as_u64), Some(2));
    server.shutdown();
    std::fs::remove_file(&path).unwrap();

    // An in-memory handle has no artifact on disk: version 0.
    let server = start(in_memory_handle(), &ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let doc = Json::parse(&http_get(&addr, "/v1/healthz").unwrap().body).unwrap();
    assert_eq!(doc.get("artifact_version").and_then(Json::as_u64), Some(0));
    server.shutdown();
}
