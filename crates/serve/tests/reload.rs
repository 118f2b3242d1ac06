//! Hot-swap tests: the authenticated `/v1/admin/reload` endpoint, and
//! the zero-dropped-requests guarantee while artifacts swap under
//! sustained traffic.

use farmer_classify::IRG_FINGERPRINT_THETA;
use farmer_core::{canonical_sort, Farmer, MiningParams};
use farmer_dataset::DatasetBuilder;
use farmer_serve::{http_get, http_post, start, ArtifactHandle, ServeConfig};
use farmer_store::{save_artifact, ArtifactMeta};
use farmer_support::json::Json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Mines a small artifact whose group count depends on `variant` and
/// writes it to `path`; returns the group count.
fn write_artifact(path: &Path, variant: usize) -> usize {
    let mut b = DatasetBuilder::new(2);
    b.add_row([0, 1, 2], 0);
    b.add_row([0, 1], 0);
    b.add_row([1, 2, 3], 1);
    b.add_row([0, 3], 1);
    for i in 0..variant {
        b.add_row([i as u32 % 4, 3], 1);
    }
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

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fgi-reload-{}-{name}", std::process::id()))
}

fn config(token: Option<&str>) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        admin_token: token.map(str::to_string),
        ..ServeConfig::default()
    }
}

fn error_code(body: &str) -> String {
    Json::parse(body)
        .unwrap()
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap()
        .to_string()
}

#[test]
fn reload_requires_the_bearer_token() {
    let path = tmp("auth.fgi");
    write_artifact(&path, 0);
    let handle = Arc::new(ArtifactHandle::load(&path, IRG_FINGERPRINT_THETA, 0).unwrap());
    let server = start(Arc::clone(&handle), &config(Some("sekrit"))).unwrap();
    let addr = server.addr().to_string();

    let r = http_post(&addr, "/v1/admin/reload", "", None).unwrap();
    assert_eq!(
        (r.status, error_code(&r.body).as_str()),
        (401, "unauthorized")
    );
    let r = http_post(&addr, "/v1/admin/reload", "", Some("wrong")).unwrap();
    assert_eq!(
        (r.status, error_code(&r.body).as_str()),
        (401, "unauthorized")
    );
    assert_eq!(handle.epoch(), 0, "unauthorized requests must not swap");

    let n_new = write_artifact(&path, 2);
    let r = http_post(&addr, "/v1/admin/reload", "", Some("sekrit")).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let doc = Json::parse(&r.body).unwrap();
    assert_eq!(doc.get("reloaded").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("epoch").and_then(Json::as_u64), Some(1));
    assert_eq!(doc.get("groups").and_then(Json::as_u64), Some(n_new as u64));

    // The swap is visible to subsequent requests.
    let h = http_get(&addr, "/v1/healthz").unwrap();
    let doc = Json::parse(&h.body).unwrap();
    assert_eq!(doc.get("groups").and_then(Json::as_u64), Some(n_new as u64));
    assert_eq!(doc.get("epoch").and_then(Json::as_u64), Some(1));

    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn reload_is_disabled_without_a_token() {
    let path = tmp("disabled.fgi");
    write_artifact(&path, 0);
    let handle = Arc::new(ArtifactHandle::load(&path, IRG_FINGERPRINT_THETA, 0).unwrap());
    let server = start(handle, &config(None)).unwrap();
    let addr = server.addr().to_string();
    let r = http_post(&addr, "/v1/admin/reload", "", Some("anything")).unwrap();
    assert_eq!(
        (r.status, error_code(&r.body).as_str()),
        (403, "admin_disabled")
    );
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// The hot-swap guarantee under fire: hammer the server from several
/// client threads while the artifact is rewritten and reloaded over
/// and over. Every single request — on whichever side of a swap it
/// lands — must complete with 200; nothing is dropped or errored.
#[test]
fn hammer_during_repeated_reloads_drops_nothing() {
    let path = tmp("hammer.fgi");
    let n0 = write_artifact(&path, 0);
    let handle = Arc::new(ArtifactHandle::load(&path, IRG_FINGERPRINT_THETA, 0).unwrap());
    let server = start(Arc::clone(&handle), &config(Some("tok"))).unwrap();
    let addr = server.addr().to_string();

    const CLIENTS: usize = 4;
    const RELOADS: usize = 6;
    let stop = AtomicBool::new(false);
    let mut final_groups = 0;
    farmer_support::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut rounds = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for p in [
                        "/v1/classify?items=i0,i1",
                        "/v1/query?items=i3",
                        "/v1/healthz",
                    ] {
                        let r = http_get(&addr, p).unwrap();
                        assert_eq!(r.status, 200, "{p} failed mid-swap: {}", r.body);
                    }
                    rounds += 1;
                }
                assert!(rounds > 0, "hammer never ran");
            });
        }
        // Swap artifacts while the hammer runs; every reload changes
        // the group count so stale answers would be visible.
        for i in 0..RELOADS {
            final_groups = write_artifact(&path, (i + 1) * 2);
            let r = http_post(&addr, "/v1/admin/reload", "", Some("tok")).unwrap();
            assert_eq!(r.status, 200, "reload {i}: {}", r.body);
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
    });
    let _ = n0;
    assert_eq!(handle.epoch(), RELOADS as u64);
    assert_eq!(handle.current().groups().len(), final_groups);
    // The last swap is observably the last artifact written: its row
    // count reflects the final variant.
    assert_eq!(handle.current().meta().n_rows, 4 + (RELOADS as u64) * 2);

    // Zero sheds, zero drops: every connection the hammer opened was
    // fully served.
    assert_eq!(server.requests_shed(), 0);
    let h = http_get(&addr, "/v1/healthz").unwrap();
    assert_eq!(
        Json::parse(&h.body)
            .unwrap()
            .get("groups")
            .and_then(Json::as_u64),
        Some(final_groups as u64)
    );

    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}
