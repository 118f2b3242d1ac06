//! Integration tests of the HTTP server: the `/v1` endpoint surface,
//! 404s outside `/v1`, batch classification, admission control,
//! answer stability and access logging under concurrent load, and
//! graceful shutdown draining.

use farmer_core::{canonical_sort, Farmer, MiningParams};
use farmer_dataset::DatasetBuilder;
use farmer_serve::{http_get, http_post, start, ArtifactHandle, ServeConfig, ShardedIndex};
use farmer_store::{Artifact, ArtifactMeta};
use farmer_support::json::Json;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn test_artifact() -> Artifact {
    let mut b = DatasetBuilder::new(2);
    b.add_row([0, 1, 2], 0);
    b.add_row([0, 1], 0);
    b.add_row([0, 2, 4], 0);
    b.add_row([1, 2, 3], 1);
    b.add_row([0, 3], 1);
    b.add_row([3, 4], 1);
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
    assert!(!groups.is_empty());
    Artifact {
        meta: ArtifactMeta::from_dataset(&d),
        groups,
    }
}

fn test_handle() -> Arc<ArtifactHandle> {
    Arc::new(ArtifactHandle::from_index(ShardedIndex::build(
        test_artifact(),
        farmer_classify::IRG_FINGERPRINT_THETA,
        2,
    )))
}

fn config(workers: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        ..ServeConfig::default()
    }
}

/// Pulls `error.code` out of the uniform envelope.
fn error_code(body: &str) -> String {
    Json::parse(body)
        .unwrap_or_else(|e| panic!("{e}: {body}"))
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no error.code in {body}"))
        .to_string()
}

#[test]
fn v1_endpoints_answer() {
    let handle = test_handle();
    let index = handle.current();
    let server = start(Arc::clone(&handle), &config(2)).unwrap();
    let addr = server.addr().to_string();

    let h = http_get(&addr, "/v1/healthz").unwrap();
    assert_eq!(h.status, 200);
    let health = Json::parse(&h.body).unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        health.get("groups").and_then(Json::as_u64),
        Some(index.groups().len() as u64)
    );
    assert_eq!(health.get("shards").and_then(Json::as_u64), Some(2));
    assert_eq!(health.get("epoch").and_then(Json::as_u64), Some(0));

    let c = http_get(&addr, "/v1/classify?items=i0,i1,i2").unwrap();
    assert_eq!(c.status, 200, "body: {}", c.body);
    let body = Json::parse(&c.body).unwrap();
    let class = body.get("class").and_then(Json::as_u64).unwrap() as u32;
    let (sample, _) = index.parse_sample(["i0", "i1", "i2"]);
    assert_eq!(class, index.classify(&sample).class);

    let q = http_get(&addr, "/v1/query?items=i0,i1,i2&limit=3").unwrap();
    assert_eq!(q.status, 200);
    let body = Json::parse(&q.body).unwrap();
    let total = body.get("total").and_then(Json::as_u64).unwrap();
    assert_eq!(total, index.matches(&sample).len() as u64);
    assert!(body.get("returned").and_then(Json::as_u64).unwrap() <= 3);

    // Error paths carry the uniform envelope with stable codes.
    let r = http_get(&addr, "/v1/classify").unwrap();
    assert_eq!(
        (r.status, error_code(&r.body).as_str()),
        (400, "bad_request")
    );
    let r = http_get(&addr, "/v1/query?items=i0&class=9").unwrap();
    assert_eq!(
        (r.status, error_code(&r.body).as_str()),
        (400, "bad_request")
    );
    for bad in ["abc", "-1"] {
        let r = http_get(&addr, &format!("/v1/query?items=i0&limit={bad}")).unwrap();
        assert_eq!(
            (r.status, error_code(&r.body).as_str()),
            (400, "bad_request"),
            "limit={bad}"
        );
        assert!(r.body.contains("limit"), "{}", r.body);
    }
    let r = http_get(&addr, "/v1/nope").unwrap();
    assert_eq!((r.status, error_code(&r.body).as_str()), (404, "not_found"));

    let m = http_get(&addr, "/v1/metrics").unwrap();
    assert_eq!(m.status, 200);
    assert!(m.body.contains("farmer_serve_request_ns_count"));
    assert!(m.body.contains("farmer_serve_classify_ns_bucket"));

    server.shutdown();
}

#[test]
fn unversioned_paths_are_not_found() {
    let server = start(test_handle(), &config(2)).unwrap();
    let addr = server.addr().to_string();

    for path in [
        "/healthz",
        "/metrics",
        "/classify?items=i0,i1,i2",
        "/query?items=i0,i1&limit=2",
        "/admin/stats",
    ] {
        let r = http_get(&addr, path).unwrap();
        assert_eq!(
            (r.status, error_code(&r.body).as_str()),
            (404, "not_found"),
            "{path}"
        );
        assert_eq!(r.header("Deprecation"), None, "{path}");
    }

    server.shutdown();
}

#[test]
fn batch_classify_matches_single_requests() {
    let handle = test_handle();
    let server = start(Arc::clone(&handle), &config(2)).unwrap();
    let addr = server.addr().to_string();

    let samples = [vec!["i0", "i1"], vec!["i3"], vec![], vec!["i0", "bogus"]];
    let body = format!(
        "{{\"samples\":[{}]}}",
        samples
            .iter()
            .map(|s| format!(
                "[{}]",
                s.iter()
                    .map(|t| format!("\"{t}\""))
                    .collect::<Vec<_>>()
                    .join(",")
            ))
            .collect::<Vec<_>>()
            .join(",")
    );
    let r = http_post(&addr, "/v1/classify", &body, None).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let doc = Json::parse(&r.body).unwrap();
    assert_eq!(doc.get("count").and_then(Json::as_u64), Some(4));
    let Some(Json::Arr(predictions)) = doc.get("predictions") else {
        panic!("no predictions array: {}", r.body);
    };

    // Order is preserved: prediction i equals the single-sample GET.
    for (s, p) in samples.iter().zip(predictions) {
        let single = http_get(&addr, &format!("/v1/classify?items={}", s.join(","))).unwrap();
        assert_eq!(single.status, 200);
        assert_eq!(
            p.to_string(),
            Json::parse(&single.body).unwrap().to_string()
        );
    }
    // The last sample's unknown token is reported per entry.
    assert_eq!(
        predictions[3].get("unknown_items").map(Json::to_string),
        Some("[\"bogus\"]".to_string())
    );

    server.shutdown();
}

#[test]
fn batch_classify_rejects_malformed_bodies() {
    let server = start(test_handle(), &config(1)).unwrap();
    let addr = server.addr().to_string();
    for bad in [
        "not json",
        "{}",
        "{\"samples\": 5}",
        "{\"samples\": [\"i0\"]}",
        "{\"samples\": [[42]]}",
    ] {
        let r = http_post(&addr, "/v1/classify", bad, None).unwrap();
        assert_eq!(
            (r.status, error_code(&r.body).as_str()),
            (400, "bad_request"),
            "{bad}"
        );
    }
    server.shutdown();
}

#[test]
fn wrong_methods_are_405() {
    let server = start(test_handle(), &config(1)).unwrap();
    let addr = server.addr().to_string();

    // POST where only GET lives.
    let r = http_post(&addr, "/v1/query", "{}", None).unwrap();
    assert_eq!(
        (r.status, error_code(&r.body).as_str()),
        (405, "method_not_allowed")
    );
    // GET where only POST lives.
    let r = http_get(&addr, "/v1/admin/reload").unwrap();
    assert_eq!(
        (r.status, error_code(&r.body).as_str()),
        (405, "method_not_allowed")
    );
    // A method nothing accepts.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write!(stream, "PUT /v1/classify HTTP/1.1\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 405"), "{out}");

    server.shutdown();
}

#[test]
fn admission_control_sheds_beyond_max_inflight() {
    let handle = test_handle();
    let mut cfg = config(1);
    cfg.max_inflight = 1;
    let server = start(handle, &cfg).unwrap();
    let addr = server.addr();

    // Occupy the single in-flight slot: the worker blocks reading this
    // connection's request, which we withhold.
    let mut held = TcpStream::connect(addr).unwrap();
    held.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // The next connection is shed inline with 503 + Retry-After and
    // the uniform envelope — never queued behind the stuck worker.
    let mut over = TcpStream::connect(addr).unwrap();
    over.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut out = String::new();
    over.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 503"), "{out}");
    assert!(out.contains("Retry-After: 1"), "{out}");
    assert!(out.contains("\"overloaded\""), "{out}");
    assert!(server.requests_shed() >= 1);

    // Releasing the held connection frees the slot: it gets a full
    // answer, and traffic flows again.
    write!(held, "GET /v1/healthz HTTP/1.1\r\n\r\n").unwrap();
    held.flush().unwrap();
    let mut out = String::new();
    held.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 200"), "{out}");

    let ok = http_get(&addr.to_string(), "/v1/healthz").unwrap();
    assert_eq!(ok.status, 200);

    // The shed shows up in the metrics the admission controller is
    // instrumented through.
    let m = http_get(&addr.to_string(), "/v1/metrics").unwrap();
    let shed_count = m
        .body
        .lines()
        .find(|l| l.starts_with("farmer_serve_shed_ns_count"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|n| n.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("no serve_shed family:\n{}", m.body));
    assert!(shed_count >= 1);

    server.shutdown();
}

#[test]
fn concurrent_answers_equal_sequential() {
    let handle = test_handle();
    let log_path =
        std::env::temp_dir().join(format!("fgi-server-access-{}.jsonl", std::process::id()));
    let cfg = ServeConfig {
        log_out: Some(log_path.to_str().unwrap().to_string()),
        ..config(4)
    };
    let server = start(Arc::clone(&handle), &cfg).unwrap();
    let addr = server.addr().to_string();

    let paths: Vec<String> = [
        "/v1/classify?items=i0,i1",
        "/v1/classify?items=i3",
        "/v1/classify?items=i0,i2,i4",
        "/v1/classify?items=",
        "/v1/query?items=i0,i1,i2&limit=100",
        "/v1/query?items=i3,i4",
        "/v1/healthz",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let sequential: Vec<String> = paths
        .iter()
        .map(|p| {
            let r = http_get(&addr, p).unwrap();
            assert_eq!(r.status, 200, "{p}: {}", r.body);
            r.body
        })
        .collect();

    const CLIENTS: usize = 8;
    const ROUNDS: usize = 10;
    farmer_support::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                for _ in 0..ROUNDS {
                    for (p, expected) in paths.iter().zip(&sequential) {
                        let r = http_get(&addr, p).unwrap();
                        assert_eq!(r.status, 200);
                        assert_eq!(&r.body, expected, "{p} answered differently under load");
                    }
                }
            });
        }
    });

    // Every one of those requests shows up in the latency histogram.
    let m = http_get(&addr, "/v1/metrics").unwrap();
    let total = (CLIENTS * ROUNDS + 1) * paths.len();
    let count_line = m
        .body
        .lines()
        .find(|l| l.starts_with("farmer_serve_request_ns_count"))
        .expect("request histogram family present");
    let count: u64 = count_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        count >= total as u64,
        "metrics count {count} < requests issued {total}"
    );

    // Shutdown joins the workers, so every log line is written by now:
    // exactly one per request sent, the metrics scrape included.
    server.shutdown();
    let text = std::fs::read_to_string(&log_path).unwrap();
    std::fs::remove_file(&log_path).unwrap();
    let lines: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect();
    assert_eq!(lines.len(), total + 1, "access log line count");
    for line in &lines {
        assert_eq!(line.get("status").and_then(Json::as_u64), Some(200));
    }
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let handle = test_handle();
    let index = handle.current();
    let server = start(Arc::clone(&handle), &config(2)).unwrap();
    let addr = server.addr();

    // Establish connections *before* shutdown, but hold the requests
    // back: the workers are now blocked reading these sockets.
    const IN_FLIGHT: usize = 6;
    let mut conns: Vec<TcpStream> = (0..IN_FLIGHT)
        .map(|_| {
            let s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s
        })
        .collect();
    // Give the acceptor a beat to pull them off the backlog.
    std::thread::sleep(Duration::from_millis(50));

    let shutdown = std::thread::spawn(move || server.shutdown());
    // Shutdown must not complete while requests are still unanswered;
    // send them now and demand full responses.
    std::thread::sleep(Duration::from_millis(50));
    let mut bodies = Vec::new();
    for s in conns.iter_mut() {
        write!(s, "GET /v1/classify?items=i0,i1 HTTP/1.1\r\n\r\n").unwrap();
        s.flush().unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(
            out.starts_with("HTTP/1.1 200"),
            "dropped in-flight request: {out:?}"
        );
        bodies.push(out.split("\r\n\r\n").nth(1).unwrap().to_string());
    }
    shutdown.join().unwrap();

    // Every drained answer matches the live answer.
    let (sample, _) = index.parse_sample(["i0", "i1"]);
    let expected = index.classify(&sample).class as u64;
    for b in bodies {
        let got = Json::parse(&b).unwrap().get("class").and_then(Json::as_u64);
        assert_eq!(got, Some(expected));
    }

    // The listener is closed: new connections are refused or reset.
    assert!(
        TcpStream::connect(addr).is_err() || http_get(&addr.to_string(), "/v1/healthz").is_err(),
        "server still accepting after shutdown"
    );
}
