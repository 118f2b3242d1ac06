//! `fgi-client watch`: a polling terminal dashboard over the serving
//! observability surface.
//!
//! Scrapes `GET /v1/metrics` (and, when a token is supplied,
//! `GET /v1/admin/stats`) every interval and renders one frame per
//! poll: request rate and error rate over the interval, p50/p95/p99
//! request latency from the cumulative histogram buckets, the
//! in-flight gauge, and shed/reload deltas. Rates come from counter
//! *deltas* between consecutive scrapes, so the dashboard shows what
//! the server is doing now, not since boot.
//!
//! The scrape parser ([`parse_metrics`]) and the quantile math
//! ([`quantile_ns`]) are plain functions over the exposition text, so
//! the unit tests drive them without a live server.

use crate::client::{http_get, http_get_auth};
use farmer_support::json::Json;
use std::io::Write;

/// How `watch` polls and for how long.
#[derive(Clone, Debug)]
pub struct WatchOptions {
    /// The server's `host:port`.
    pub addr: String,
    /// Poll interval in milliseconds (clamped to ≥ 50).
    pub interval_ms: u64,
    /// Stop after this many frames; `None` polls until the scrape
    /// fails (e.g. the server went away).
    pub frames: Option<u64>,
    /// Bearer token for `/v1/admin/stats`; without one the stats line
    /// degrades gracefully to the metrics-only view.
    pub token: Option<String>,
}

/// One scrape of `/v1/metrics`, reduced to what the dashboard shows.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// `farmer_serve_requests_total`.
    pub requests: u64,
    /// `farmer_serve_errors_total`.
    pub errors: u64,
    /// `farmer_serve_shed_total`.
    pub shed: u64,
    /// `farmer_serve_reloads_total`.
    pub reloads: u64,
    /// `farmer_serve_inflight`.
    pub inflight: i64,
    /// `farmer_serve_request_ns` cumulative buckets as
    /// `(upper_bound_ns, cumulative_count)`, exposition order.
    pub buckets: Vec<(f64, u64)>,
    /// `farmer_serve_request_ns_count`.
    pub count: u64,
    /// The artifact swap epoch from `GET /v1/healthz` — not part of
    /// the exposition; the poll loop fills it in so frames can flag
    /// the exact scrape where a new artifact went live.
    pub epoch: u64,
}

/// Parses the Prometheus text exposition into a [`MetricsSnapshot`].
/// Unknown families are skipped, so the parser survives the exposition
/// growing new metrics.
pub fn parse_metrics(text: &str) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let Some((name, value)) = line.rsplit_once(' ') else {
            continue;
        };
        if let Some(rest) = name.strip_prefix("farmer_serve_request_ns_bucket{le=\"") {
            let le = rest.trim_end_matches("\"}");
            let upper = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or(f64::INFINITY)
            };
            if let Ok(cum) = value.parse::<u64>() {
                snap.buckets.push((upper, cum));
            }
            continue;
        }
        match name {
            "farmer_serve_requests_total" => snap.requests = value.parse().unwrap_or(0),
            "farmer_serve_errors_total" => snap.errors = value.parse().unwrap_or(0),
            "farmer_serve_shed_total" => snap.shed = value.parse().unwrap_or(0),
            "farmer_serve_reloads_total" => snap.reloads = value.parse().unwrap_or(0),
            "farmer_serve_inflight" => snap.inflight = value.parse().unwrap_or(0),
            "farmer_serve_request_ns_count" => snap.count = value.parse().unwrap_or(0),
            _ => {}
        }
    }
    snap
}

/// The `q`-quantile (0..=1) in nanoseconds from cumulative histogram
/// buckets: the upper bound of the first bucket whose cumulative count
/// reaches `q × total`. 0 when the histogram is empty.
pub fn quantile_ns(buckets: &[(f64, u64)], q: f64) -> f64 {
    let total = buckets.last().map(|&(_, c)| c).unwrap_or(0);
    if total == 0 {
        return 0.0;
    }
    let target = (q * total as f64).ceil().max(1.0) as u64;
    for &(upper, cum) in buckets {
        if cum >= target {
            return upper;
        }
    }
    f64::INFINITY
}

fn fmt_ms(ns: f64) -> String {
    if ns.is_infinite() {
        "inf".to_string()
    } else {
        format!("{:.2}ms", ns / 1e6)
    }
}

/// Renders one dashboard frame from the previous and current scrapes.
/// With no previous scrape the rates show as cumulative totals.
pub fn render_frame(
    prev: Option<&MetricsSnapshot>,
    cur: &MetricsSnapshot,
    elapsed_s: f64,
    stats_line: &str,
) -> String {
    let d = |now: u64, before: u64| now.saturating_sub(before);
    let (dreq, derr, dshed, dreload) = match prev {
        Some(p) => (
            d(cur.requests, p.requests),
            d(cur.errors, p.errors),
            d(cur.shed, p.shed),
            d(cur.reloads, p.reloads),
        ),
        None => (cur.requests, cur.errors, cur.shed, cur.reloads),
    };
    let rps = if elapsed_s > 0.0 {
        dreq as f64 / elapsed_s
    } else {
        0.0
    };
    let err_rate = if dreq > 0 {
        100.0 * derr as f64 / dreq as f64
    } else {
        0.0
    };
    let p50 = quantile_ns(&cur.buckets, 0.50);
    let p95 = quantile_ns(&cur.buckets, 0.95);
    let p99 = quantile_ns(&cur.buckets, 0.99);
    // Flag the frame where a publish landed: the serving epoch moved
    // between this scrape and the previous one.
    let swapped = if prev.is_some_and(|p| p.epoch != cur.epoch) {
        " *artifact updated*"
    } else {
        ""
    };
    format!(
        "req/s {rps:8.1} | err {err_rate:5.1}% | p50 {} p95 {} p99 {} | inflight {} | \
         shed +{dshed} | reload +{dreload} | epoch {}{swapped} | total {}\n{stats_line}",
        fmt_ms(p50),
        fmt_ms(p95),
        fmt_ms(p99),
        cur.inflight,
        cur.epoch,
        cur.requests,
    )
}

/// The serving epoch from `GET /v1/healthz`, or 0 when the probe
/// fails (the dashboard degrades rather than dying mid-loop).
fn poll_epoch(addr: &str) -> u64 {
    match http_get(addr, "/v1/healthz") {
        Ok(resp) if resp.status == 200 => Json::parse(&resp.body)
            .ok()
            .and_then(|doc| doc.get("epoch").and_then(Json::as_u64))
            .unwrap_or(0),
        _ => 0,
    }
}

/// One-line digest of `/v1/admin/stats`, or a graceful note when the
/// endpoint refused or the token is absent.
fn stats_line(addr: &str, token: Option<&str>) -> String {
    let Some(token) = token else {
        return "stats: (no token; pass --token for /v1/admin/stats)".to_string();
    };
    match http_get_auth(addr, "/v1/admin/stats", Some(token)) {
        Ok(resp) if resp.status == 200 => match Json::parse(&resp.body) {
            Ok(doc) => {
                let num = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
                let slow = match doc.get("slow") {
                    Some(Json::Arr(entries)) => entries.len(),
                    _ => 0,
                };
                format!(
                    "stats: uptime {:.1}s | epoch {} | groups {} | postings {} | dropped {} | \
                     slow-ring {}",
                    num("uptime_ns") as f64 / 1e9,
                    num("epoch"),
                    num("groups"),
                    num("postings_entries"),
                    num("dropped_events"),
                    slow,
                )
            }
            Err(e) => format!("stats: unparseable ({e})"),
        },
        Ok(resp) => format!("stats: unavailable (HTTP {})", resp.status),
        Err(e) => format!("stats: unreachable ({e})"),
    }
}

/// Runs the dashboard loop: scrape, render a frame to `out`, sleep,
/// repeat. Returns when the frame budget is exhausted; errors out when
/// a scrape fails.
pub fn run_watch(opts: &WatchOptions, out: &mut impl Write) -> std::io::Result<()> {
    let interval = std::time::Duration::from_millis(opts.interval_ms.max(50));
    let mut prev: Option<MetricsSnapshot> = None;
    let mut last = std::time::Instant::now();
    let mut frame = 0u64;
    loop {
        let resp = http_get(&opts.addr, "/v1/metrics")?;
        if resp.status != 200 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("/v1/metrics answered HTTP {}", resp.status),
            ));
        }
        let mut cur = parse_metrics(&resp.body);
        cur.epoch = poll_epoch(&opts.addr);
        let elapsed = last.elapsed().as_secs_f64();
        last = std::time::Instant::now();
        let stats = stats_line(&opts.addr, opts.token.as_deref());
        writeln!(
            out,
            "[{addr} frame {frame}]\n{}",
            render_frame(prev.as_ref(), &cur, elapsed, &stats),
            addr = opts.addr,
        )?;
        out.flush()?;
        prev = Some(cur);
        frame += 1;
        if let Some(budget) = opts.frames {
            if frame >= budget {
                return Ok(());
            }
        }
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# HELP farmer_serve_requests_total Monotonic count of serve_requests events.
# TYPE farmer_serve_requests_total counter
farmer_serve_requests_total 120
farmer_serve_errors_total 6
farmer_serve_shed_total 2
farmer_serve_reloads_total 1
# TYPE farmer_serve_inflight gauge
farmer_serve_inflight 3
# TYPE farmer_serve_request_ns histogram
farmer_serve_request_ns_bucket{le=\"1000\"} 40
farmer_serve_request_ns_bucket{le=\"2000\"} 100
farmer_serve_request_ns_bucket{le=\"4000\"} 119
farmer_serve_request_ns_bucket{le=\"+Inf\"} 120
farmer_serve_request_ns_sum 999999
farmer_serve_request_ns_count 120
";

    #[test]
    fn parses_the_families_the_dashboard_needs() {
        let snap = parse_metrics(SAMPLE);
        assert_eq!(snap.requests, 120);
        assert_eq!(snap.errors, 6);
        assert_eq!(snap.shed, 2);
        assert_eq!(snap.reloads, 1);
        assert_eq!(snap.inflight, 3);
        assert_eq!(snap.count, 120);
        assert_eq!(snap.buckets.len(), 4);
        assert_eq!(snap.buckets[1], (2000.0, 100));
        assert!(snap.buckets[3].0.is_infinite());
    }

    #[test]
    fn quantiles_walk_the_cumulative_buckets() {
        let snap = parse_metrics(SAMPLE);
        // p50 target = 60 of 120 → first bucket with cum ≥ 60 is le=2000
        assert_eq!(quantile_ns(&snap.buckets, 0.50), 2000.0);
        assert_eq!(quantile_ns(&snap.buckets, 0.95), 4000.0);
        assert!(quantile_ns(&snap.buckets, 0.999).is_infinite());
        assert_eq!(quantile_ns(&[], 0.5), 0.0);
    }

    #[test]
    fn frames_report_deltas_between_scrapes() {
        let mut prev = parse_metrics(SAMPLE);
        prev.requests = 100;
        prev.errors = 5;
        prev.shed = 0;
        let cur = parse_metrics(SAMPLE);
        let frame = render_frame(Some(&prev), &cur, 2.0, "stats: n/a");
        // 20 requests over 2 s
        assert!(frame.contains("req/s     10.0"), "{frame}");
        // 1 error of 20 requests = 5%
        assert!(frame.contains("err   5.0%"), "{frame}");
        assert!(frame.contains("shed +2"), "{frame}");
        assert!(frame.contains("inflight 3"), "{frame}");
        assert!(frame.contains("stats: n/a"), "{frame}");
    }

    #[test]
    fn frames_flag_an_epoch_change_and_stay_quiet_otherwise() {
        let mut prev = parse_metrics(SAMPLE);
        prev.epoch = 3;
        let mut cur = parse_metrics(SAMPLE);
        cur.epoch = 3;
        let same = render_frame(Some(&prev), &cur, 1.0, "");
        assert!(same.contains("epoch 3"), "{same}");
        assert!(!same.contains("artifact updated"), "{same}");

        cur.epoch = 4;
        let moved = render_frame(Some(&prev), &cur, 1.0, "");
        assert!(moved.contains("epoch 4 *artifact updated*"), "{moved}");

        // The very first frame has no baseline: never flagged.
        let first = render_frame(None, &cur, 1.0, "");
        assert!(!first.contains("artifact updated"), "{first}");
    }
}
