//! A hermetic HTTP/1.1 server over an [`ArtifactHandle`].
//!
//! Plain `std::net::TcpListener`, a fixed worker pool fed over a
//! `farmer_support::thread` channel, one request per connection
//! (`Connection: close`), and graceful shutdown on a stop flag: the
//! acceptor stops taking new connections, drains its backlog to the
//! workers, and every connection already established gets a full
//! response before the pool exits.
//!
//! # The `/v1` API
//!
//! Every endpoint lives under `/v1/`; any other path gets the `404`
//! `not_found` envelope:
//!
//! | endpoint                | method | answer |
//! |-------------------------|--------|--------|
//! | `/v1/classify`          | GET    | classify `?items=a,b,c` |
//! | `/v1/classify`          | POST   | batch-classify `{"samples": [[…], …]}` |
//! | `/v1/query`             | GET    | matching groups for `?items=…` |
//! | `/v1/healthz`           | GET    | index shape, epoch, versions |
//! | `/v1/metrics`           | GET    | Prometheus text (histograms, counters, gauges) |
//! | `/v1/admin/reload`      | POST   | hot-swap the artifact (bearer auth) |
//! | `/v1/admin/stats`       | GET    | live server stats + slow ring (bearer auth) |
//!
//! Every error is the uniform envelope
//! `{"error":{"code":"…","message":"…","request_id":"…"}}`.
//!
//! # Observability
//!
//! Every request carries a request id — the inbound `X-Request-Id`
//! when sane, else 16 hex digits from `support::rng` seeded
//! per-connection — echoed as the `X-Request-Id` response header,
//! stamped into error envelopes, and keyed into the structured access
//! log (one JSON line per request when [`ServeConfig::log_out`] is
//! set). Handling is phase-timed (parse/snapshot/compute/write);
//! requests at or above [`ServeConfig::slow_ms`] land in a capture
//! ring served by `GET /v1/admin/stats`. RED metrics — per-endpoint
//! request/error counters, per-status-class counters, the in-flight
//! gauge, shed/reload counters — ride the same tracer as the latency
//! histograms and render at `/v1/metrics`.
//!
//! # Hot swap and admission control
//!
//! Requests snapshot [`ArtifactHandle::current`] once and answer from
//! that snapshot, so an authenticated `POST /v1/admin/reload` (or a
//! SIGHUP routed through the CLI) swaps artifacts with zero dropped
//! requests: in-flight traffic completes on the old index, later
//! traffic sees the new one.
//!
//! The acceptor bounds in-flight work: when `max_inflight` connections
//! are accepted-but-unanswered, further connections get an immediate
//! `503` with `Retry-After` instead of queueing without bound. Sheds
//! are visible in `/v1/metrics` as the `serve_shed` histogram family
//! and the `farmer_serve_shed_total` counter.

use crate::handle::ArtifactHandle;
use crate::index::ShardedIndex;
use crate::ingest::{IngestHook, IngestRow};
use crate::obs::{
    self, endpoint_counters, status_class_counter, AccessEntry, AccessLog, Endpoint, ServerClock,
    SlowEntry, SlowRing,
};
use farmer_support::json::{Json, ObjBuilder};
use farmer_support::thread::{channel, Mutex, Receiver, Sender};
use farmer_support::trace::{prometheus_text, HistId, RingTracer, TraceSink};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Latency histograms exported at `/v1/metrics` (names feed PR 4's
/// Prometheus text exporter, which renders `farmer_<name>_ns`).
const HIST_NAMES: &[&str] = &[
    "serve_request",
    "serve_classify",
    "serve_query",
    "serve_healthz",
    "serve_metrics",
    "serve_reload",
    "serve_shed",
    "serve_admin_stats",
    "serve_ingest",
];
const H_REQUEST: HistId = HistId(0);
const H_CLASSIFY: HistId = HistId(1);
const H_QUERY: HistId = HistId(2);
const H_HEALTHZ: HistId = HistId(3);
const H_METRICS: HistId = HistId(4);
const H_RELOAD: HistId = HistId(5);
const H_SHED: HistId = HistId(6);
const H_STATS: HistId = HistId(7);
const H_INGEST: HistId = HistId(8);

/// The endpoint-specific latency histogram (none for unrouted traffic).
fn endpoint_hist(ep: Endpoint) -> Option<HistId> {
    match ep {
        Endpoint::Classify => Some(H_CLASSIFY),
        Endpoint::Query => Some(H_QUERY),
        Endpoint::Healthz => Some(H_HEALTHZ),
        Endpoint::Metrics => Some(H_METRICS),
        Endpoint::Reload => Some(H_RELOAD),
        Endpoint::AdminStats => Some(H_STATS),
        Endpoint::Ingest => Some(H_INGEST),
        Endpoint::Other => None,
    }
}

/// Largest request body the server will read.
const MAX_BODY: u64 = 1 << 20;

/// How the server binds, scales, protects itself, and reports.
#[derive(Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 asks the OS for an ephemeral port (the
    /// actual port is on [`ServerHandle::addr`]).
    pub addr: String,
    /// Fixed worker-pool size (clamped to ≥ 1).
    pub workers: usize,
    /// Accepted-but-unanswered connection bound (clamped to ≥ 1);
    /// connections beyond it are shed with `503` + `Retry-After`.
    pub max_inflight: usize,
    /// Bearer token required by `POST /v1/admin/reload` and
    /// `GET /v1/admin/stats`. `None` disables both
    /// (`403 admin_disabled`).
    pub admin_token: Option<String>,
    /// Structured access log target: `None` disables (the default —
    /// zero cost on the request path), `Some("-")` writes JSON lines
    /// to stderr, any other value is a file path created/truncated.
    pub log_out: Option<String>,
    /// Requests at or above this end-to-end latency are captured in
    /// the slow ring with their phase breakdown; 0 captures every
    /// request.
    pub slow_ms: u64,
    /// An attached streaming pipeline (`None` for a plain server):
    /// enables `POST /v1/admin/ingest`, pipeline stats/metrics, and
    /// pipeline-aware idle detection. See [`IngestHook`].
    pub ingest: Option<Arc<dyn IngestHook>>,
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("addr", &self.addr)
            .field("workers", &self.workers)
            .field("max_inflight", &self.max_inflight)
            .field("admin_token", &self.admin_token.as_ref().map(|_| "…"))
            .field("log_out", &self.log_out)
            .field("slow_ms", &self.slow_ms)
            .field("ingest", &self.ingest.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_inflight: 256,
            admin_token: None,
            log_out: None,
            slow_ms: 100,
            ingest: None,
        }
    }
}

/// Everything a worker needs to answer one connection; built once by
/// [`start`] and shared by the acceptor and the pool.
struct ServerCtx {
    handle: Arc<ArtifactHandle>,
    admin_token: Option<String>,
    ingest: Option<Arc<dyn IngestHook>>,
    tracer: RingTracer,
    log: AccessLog,
    slow: SlowRing,
    clock: ServerClock,
}

/// A running server: the bound address plus the shutdown control.
/// Dropping the handle shuts the server down gracefully.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
    shed: Arc<AtomicU64>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections fully handled so far (monotonic; useful for idle
    /// detection and smoke assertions). Shed connections don't count.
    pub fn requests_served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Connections answered `503` by the admission controller.
    pub fn requests_shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Stops accepting, drains every connection already established,
    /// and joins the pool. Idempotent via [`Drop`].
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept() so the acceptor observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.shutdown_inner();
        }
    }
}

/// Binds and starts serving `handle`'s current artifact in background
/// threads; reloads of the handle take effect without a restart.
pub fn start(handle: Arc<ArtifactHandle>, config: &ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let workers = config.workers.max(1);
    let max_inflight = config.max_inflight.max(1);
    let stop = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let pending = Arc::new(AtomicUsize::new(0));
    // Lane 0 is the acceptor's (sheds land there); worker w records on
    // lane w+1.
    let ctx = Arc::new(ServerCtx {
        handle,
        admin_token: config.admin_token.clone(),
        ingest: config.ingest.clone(),
        tracer: RingTracer::with_metrics(
            &[],
            HIST_NAMES,
            obs::COUNTER_NAMES,
            obs::GAUGE_NAMES,
            workers + 1,
            1,
        ),
        log: AccessLog::from_target(config.log_out.as_deref())?,
        slow: SlowRing::new(config.slow_ms),
        clock: ServerClock::new(),
    });

    let (tx, rx): (Sender<TcpStream>, Receiver<TcpStream>) = channel();
    let rx = Arc::new(Mutex::new(rx));

    let mut pool = Vec::with_capacity(workers);
    for w in 0..workers {
        let rx = Arc::clone(&rx);
        let ctx = Arc::clone(&ctx);
        let served = Arc::clone(&served);
        let pending = Arc::clone(&pending);
        pool.push(std::thread::spawn(move || loop {
            // Hold the lock only for the receive itself; Err means the
            // acceptor dropped the sender and the queue is empty.
            let conn = { rx.lock().recv() };
            match conn {
                Ok(stream) => {
                    handle_connection(stream, &ctx, w + 1, &pending);
                    ctx.tracer.gauge_add(w + 1, obs::G_INFLIGHT, -1);
                    served.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => break,
            }
        }));
    }

    let acceptor = {
        let stop = Arc::clone(&stop);
        let shed = Arc::clone(&shed);
        let pending = Arc::clone(&pending);
        let ctx = Arc::clone(&ctx);
        std::thread::spawn(move || {
            let admit = |stream: TcpStream| -> bool {
                // Only this thread increments, so check-then-add is
                // exact: at most max_inflight connections are ever
                // queued or in a worker.
                if pending.load(Ordering::SeqCst) >= max_inflight {
                    let t0 = Instant::now();
                    let ts_ns = ctx.clock.now_ns();
                    let rid = obs::next_request_id();
                    // Count before writing: a client that reads the 503
                    // must already observe the shed in the counters.
                    shed.fetch_add(1, Ordering::SeqCst);
                    ctx.tracer.add(0, obs::C_SHED, 1);
                    let bytes = shed_connection(stream, &rid);
                    let ns = t0.elapsed().as_nanos() as u64;
                    ctx.tracer.duration_ns(0, H_SHED, ns);
                    if ctx.log.enabled() {
                        ctx.log.write(&AccessEntry {
                            ts_ns,
                            id: &rid,
                            method: "-",
                            path: "-",
                            status: 503,
                            bytes,
                            latency_ns: ns,
                            shed: true,
                            reload: false,
                        });
                    }
                    return true;
                }
                pending.fetch_add(1, Ordering::SeqCst);
                ctx.tracer.gauge_add(0, obs::G_INFLIGHT, 1);
                tx.send(stream).is_ok()
            };
            for conn in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                match conn {
                    Ok(stream) => {
                        if !admit(stream) {
                            break;
                        }
                    }
                    Err(_) => continue,
                }
            }
            // Graceful drain: connections that reached the listener's
            // backlog before the stop flag still get served.
            let _ = listener.set_nonblocking(true);
            while let Ok((stream, _)) = listener.accept() {
                let _ = stream.set_nonblocking(false);
                if !admit(stream) {
                    break;
                }
            }
            // Dropping the sender lets the workers finish the queue
            // and exit.
        })
    };

    Ok(ServerHandle {
        addr,
        stop,
        served,
        shed,
        acceptor: Some(acceptor),
        workers: pool,
    })
}

/// Answers an over-capacity connection with `503` + `Retry-After`
/// without reading the request (the acceptor must not block on a slow
/// peer's bytes). Returns the body bytes written, for the access log.
fn shed_connection(mut stream: TcpStream, rid: &str) -> usize {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let body = error_body(
        "overloaded",
        "server is at its in-flight request limit",
        rid,
    );
    let _ = write_response(
        &mut stream,
        503,
        "application/json",
        &body,
        &[
            ("Retry-After", "1".to_string()),
            ("X-Request-Id", rid.to_string()),
        ],
    );
    let _ = stream.flush();
    body.len()
}

/// One parsed request: method, decoded path, decoded query pairs, the
/// headers the API needs, and the body (empty unless POSTed).
struct Request {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    bearer: Option<String>,
    /// Inbound `X-Request-Id`, echoed when sane.
    request_id: Option<String>,
    body: String,
    /// The declared `Content-Length` exceeded [`MAX_BODY`]; the body
    /// was not read.
    oversized: bool,
}

impl Request {
    fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A routed response, before the wire framing.
struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
    endpoint: Endpoint,
}

impl Response {
    fn json(status: u16, body: String, endpoint: Endpoint) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
            endpoint,
        }
    }

    fn error(status: u16, code: &str, message: &str, endpoint: Endpoint, rid: &str) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: error_body(code, message, rid),
            endpoint,
        }
    }
}

fn handle_connection(stream: TcpStream, ctx: &ServerCtx, lane: usize, pending: &AtomicUsize) {
    // Timeouts keep a stalled peer from wedging a worker forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let started = Instant::now();
    let ts_ns = ctx.clock.now_ns();
    let mut reader = BufReader::new(stream);
    let Some(req) = parse_request(&mut reader) else {
        pending.fetch_sub(1, Ordering::SeqCst);
        return; // unreadable request line: nothing to answer
    };
    let parse_ns = started.elapsed().as_nanos() as u64;
    let rid = obs::request_id_from(req.request_id.as_deref());
    // Snapshot the served index once; a concurrent hot swap cannot
    // affect this request.
    let t_snapshot = Instant::now();
    let index = ctx.handle.current();
    let snapshot_ns = t_snapshot.elapsed().as_nanos() as u64;
    let t_compute = Instant::now();
    let resp = respond(&req, &rid, &index, ctx, lane);
    let compute_ns = t_compute.elapsed().as_nanos() as u64;
    let extra = [("X-Request-Id", rid.clone())];
    // RED counters go first: a client that reads this response (and
    // immediately scrapes or reconnects) must already see them.
    ctx.tracer.add(lane, obs::C_REQUESTS, 1);
    let (c_req, c_err) = endpoint_counters(resp.endpoint);
    ctx.tracer.add(lane, c_req, 1);
    if resp.status >= 400 {
        ctx.tracer.add(lane, obs::C_ERRORS, 1);
        ctx.tracer.add(lane, c_err, 1);
    }
    if let Some(c) = status_class_counter(resp.status) {
        ctx.tracer.add(lane, c, 1);
    }
    let t_write = Instant::now();
    let stream = reader.get_mut();
    let _ = write_response(stream, resp.status, resp.content_type, &resp.body, &extra);
    let _ = stream.flush();
    // The response is on the wire: free the admission slot before the
    // remaining bookkeeping, so a client that reads it and reconnects
    // immediately is never shed by its own just-answered slot.
    pending.fetch_sub(1, Ordering::SeqCst);
    let write_ns = t_write.elapsed().as_nanos() as u64;
    let ns = started.elapsed().as_nanos() as u64;
    ctx.tracer.duration_ns(lane, H_REQUEST, ns);
    if let Some(h) = endpoint_hist(resp.endpoint) {
        ctx.tracer.duration_ns(lane, h, ns);
    }
    if ctx.log.enabled() {
        ctx.log.write(&AccessEntry {
            ts_ns,
            id: &rid,
            method: &req.method,
            path: &req.path,
            status: resp.status,
            bytes: resp.body.len(),
            latency_ns: ns,
            shed: false,
            reload: resp.endpoint == Endpoint::Reload,
        });
    }
    if ns >= ctx.slow.threshold_ns() {
        ctx.slow.record(SlowEntry {
            ts_ns,
            id: rid,
            method: req.method,
            path: req.path,
            status: resp.status,
            total_ns: ns,
            parse_ns,
            snapshot_ns,
            compute_ns,
            write_ns,
        });
    }
}

/// Reads the request line, the headers the API layer consumes
/// (`Content-Length`, `Authorization`, `X-Request-Id`), and the body
/// when one is declared. `None` when the peer sent nothing parseable.
fn parse_request(reader: &mut BufReader<TcpStream>) -> Option<Request> {
    let mut line = String::new();
    reader.read_line(&mut line).ok()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?;
    let mut content_length: u64 = 0;
    let mut bearer = None;
    let mut request_id = None;
    loop {
        let mut header = String::new();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header == "\r\n" || header == "\n" => break,
            Ok(_) => {
                if let Some((name, value)) = header.split_once(':') {
                    let value = value.trim();
                    if name.eq_ignore_ascii_case("content-length") {
                        content_length = value.parse().unwrap_or(0);
                    } else if name.eq_ignore_ascii_case("authorization") {
                        bearer = value.strip_prefix("Bearer ").map(|t| t.trim().to_string());
                    } else if name.eq_ignore_ascii_case("x-request-id") {
                        request_id = Some(value.to_string());
                    }
                }
            }
            Err(_) => return None,
        }
    }
    let oversized = content_length > MAX_BODY;
    let mut body = String::new();
    if content_length > 0 && !oversized {
        let mut raw = vec![0u8; content_length as usize];
        reader.read_exact(&mut raw).ok()?;
        body = String::from_utf8_lossy(&raw).into_owned();
    }
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect();
    Some(Request {
        method,
        path: percent_decode(path),
        query,
        bearer,
        request_id,
        body,
        oversized,
    })
}

/// Minimal `%XX` + `+` decoding for query components.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Routes one request on the rest of its path after `/v1`; a path
/// outside `/v1` matches no endpoint.
fn respond(
    req: &Request,
    rid: &str,
    index: &ShardedIndex,
    ctx: &ServerCtx,
    lane: usize,
) -> Response {
    if req.oversized {
        return Response::error(
            413,
            "payload_too_large",
            &format!("request body exceeds {MAX_BODY} bytes"),
            Endpoint::Other,
            rid,
        );
    }
    let path = req.path.strip_prefix("/v1").unwrap_or("");
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => {
            let body = ObjBuilder::new()
                .field("status", "ok")
                .field("groups", index.groups().len())
                .field("items", index.meta().n_items())
                .field("classes", index.meta().n_classes())
                .field("epoch", ctx.handle.epoch())
                .field("version", env!("CARGO_PKG_VERSION"))
                .field("artifact_version", ctx.handle.artifact_version() as u64)
                .build()
                .to_string();
            Response::json(200, body, Endpoint::Healthz)
        }
        ("GET", "/metrics") => {
            let mut text = prometheus_text(&ctx.tracer.drain());
            if let Some(hook) = &ctx.ingest {
                text.push_str(&hook.metrics_text());
            }
            Response {
                status: 200,
                content_type: "text/plain; version=0.0.4",
                body: text,
                endpoint: Endpoint::Metrics,
            }
        }
        ("GET", "/classify") => match sample_of(req, index) {
            Ok((sample, unknown)) => {
                let body = prediction_json(index, &sample, &unknown).to_string();
                Response::json(200, body, Endpoint::Classify)
            }
            Err(msg) => Response::error(400, "bad_request", &msg, Endpoint::Classify, rid),
        },
        ("POST", "/classify") => match batch_samples(&req.body) {
            Ok(samples) => {
                let predictions: Vec<Json> = samples
                    .iter()
                    .map(|tokens| {
                        let (sample, unknown) =
                            index.parse_sample(tokens.iter().map(String::as_str));
                        prediction_json(index, &sample, &unknown)
                    })
                    .collect();
                let body = ObjBuilder::new()
                    .field("count", predictions.len())
                    .field("predictions", Json::Arr(predictions))
                    .build()
                    .to_string();
                Response::json(200, body, Endpoint::Classify)
            }
            Err(msg) => Response::error(400, "bad_request", &msg, Endpoint::Classify, rid),
        },
        ("GET", "/query") => match sample_of(req, index) {
            Ok((sample, unknown)) => {
                let class_filter = match req.param("class").map(str::parse::<u32>) {
                    None => None,
                    Some(Ok(c)) if (c as usize) < index.meta().n_classes() => Some(c),
                    Some(_) => {
                        return Response::error(
                            400,
                            "bad_request",
                            "class must be a valid class label",
                            Endpoint::Query,
                            rid,
                        );
                    }
                };
                let limit = match req.param("limit").map(str::parse::<usize>) {
                    None => 20,
                    Some(Ok(l)) => l,
                    Some(Err(_)) => {
                        return Response::error(
                            400,
                            "bad_request",
                            "limit must be a non-negative integer",
                            Endpoint::Query,
                            rid,
                        );
                    }
                };
                let mut matched = index.matches(&sample);
                if let Some(c) = class_filter {
                    matched.retain(|&gi| index.groups()[gi as usize].class == c);
                }
                let total = matched.len();
                matched.truncate(limit);
                let groups: Vec<Json> = matched.iter().map(|&gi| group_json(index, gi)).collect();
                let body = ObjBuilder::new()
                    .field("total", total)
                    .field("returned", groups.len())
                    .field("groups", Json::Arr(groups))
                    .field("unknown_items", str_array(&unknown))
                    .build()
                    .to_string();
                Response::json(200, body, Endpoint::Query)
            }
            Err(msg) => Response::error(400, "bad_request", &msg, Endpoint::Query, rid),
        },
        ("POST", "/admin/reload") => admin_reload(req, rid, ctx, lane),
        ("GET", "/admin/stats") => admin_stats(req, rid, index, ctx),
        ("POST", "/admin/ingest") => admin_ingest(req, rid, ctx),
        (
            _,
            "/healthz" | "/metrics" | "/query" | "/admin/reload" | "/admin/stats" | "/admin/ingest",
        ) => Response::error(
            405,
            "method_not_allowed",
            &format!("{} does not accept {}", req.path, req.method),
            Endpoint::Other,
            rid,
        ),
        (_, "/classify") => Response::error(
            405,
            "method_not_allowed",
            "/v1/classify accepts GET (single sample) and POST (batch)",
            Endpoint::Other,
            rid,
        ),
        _ => Response::error(404, "not_found", "no such endpoint", Endpoint::Other, rid),
    }
}

/// Checks the bearer token shared by the admin endpoints. `Some` is
/// the refusal to send back; `None` means authenticated.
fn admin_auth(req: &Request, rid: &str, ctx: &ServerCtx, endpoint: Endpoint) -> Option<Response> {
    let Some(expected) = ctx.admin_token.as_deref() else {
        return Some(Response::error(
            403,
            "admin_disabled",
            "server started without --admin-token; admin endpoints are disabled",
            endpoint,
            rid,
        ));
    };
    if req.bearer.as_deref() != Some(expected) {
        return Some(Response::error(
            401,
            "unauthorized",
            "missing or wrong bearer token",
            endpoint,
            rid,
        ));
    }
    None
}

/// `POST /v1/admin/reload`: bearer-authenticated artifact hot swap.
fn admin_reload(req: &Request, rid: &str, ctx: &ServerCtx, lane: usize) -> Response {
    if let Some(refusal) = admin_auth(req, rid, ctx, Endpoint::Reload) {
        return refusal;
    }
    match ctx.handle.reload() {
        Ok(fresh) => {
            ctx.tracer.add(lane, obs::C_RELOADS, 1);
            let body = ObjBuilder::new()
                .field("reloaded", true)
                .field("epoch", ctx.handle.epoch())
                .field("groups", fresh.groups().len())
                .build()
                .to_string();
            Response::json(200, body, Endpoint::Reload)
        }
        Err(e) => {
            ctx.tracer.add(lane, obs::C_RELOAD_FAILURES, 1);
            Response::error(500, "reload_failed", &e, Endpoint::Reload, rid)
        }
    }
}

/// `POST /v1/admin/ingest`: bearer-authenticated row submission for
/// an attached streaming pipeline. Body:
/// `{"rows":[{"items":[3,17,42],"label":1}, …]}` with item ids and
/// class labels indexing the *base dataset's* dictionaries. `503`
/// when no pipeline is attached, `400` on malformed or out-of-range
/// rows (all-or-nothing: a rejected batch journals no row).
fn admin_ingest(req: &Request, rid: &str, ctx: &ServerCtx) -> Response {
    if let Some(refusal) = admin_auth(req, rid, ctx, Endpoint::Ingest) {
        return refusal;
    }
    let Some(hook) = &ctx.ingest else {
        return Response::error(
            503,
            "ingest_unavailable",
            "server has no streaming pipeline attached (start with --watch)",
            Endpoint::Ingest,
            rid,
        );
    };
    let rows = match ingest_rows(&req.body) {
        Ok(rows) => rows,
        Err(msg) => return Response::error(400, "bad_request", &msg, Endpoint::Ingest, rid),
    };
    match hook.ingest(&rows) {
        Ok(accepted) => {
            let body = ObjBuilder::new()
                .field("accepted", accepted)
                .build()
                .to_string();
            Response::json(200, body, Endpoint::Ingest)
        }
        Err(msg) => Response::error(400, "bad_request", &msg, Endpoint::Ingest, rid),
    }
}

/// Parses an ingest body: `{"rows":[{"items":[id,…],"label":n}, …]}`.
fn ingest_rows(body: &str) -> Result<Vec<IngestRow>, String> {
    let doc = Json::parse(body).map_err(|e| format!("invalid JSON body: {e}"))?;
    let Some(Json::Arr(rows)) = doc.get("rows") else {
        return Err("body must be an object with a \"rows\" array".to_string());
    };
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            let Some(Json::Arr(items)) = row.get("items") else {
                return Err(format!("rows[{i}] must have an \"items\" array"));
            };
            let ids = items
                .iter()
                .map(|v| {
                    v.as_u64()
                        .filter(|&id| id <= u32::MAX as u64)
                        .map(|id| id as u32)
                        .ok_or_else(|| format!("rows[{i}] items must be item ids (u32)"))
                })
                .collect::<Result<Vec<u32>, String>>()?;
            let label = row
                .get("label")
                .and_then(Json::as_u64)
                .filter(|&l| l <= u32::MAX as u64)
                .ok_or_else(|| format!("rows[{i}] must have a numeric \"label\""))?;
            Ok((ids, label as u32))
        })
        .collect()
}

/// `GET /v1/admin/stats`: bearer-authenticated live server stats —
/// uptime, swap epoch, index shape and postings size, every counter
/// and gauge, drop totals, and the slow-request capture ring.
fn admin_stats(req: &Request, rid: &str, index: &ShardedIndex, ctx: &ServerCtx) -> Response {
    if let Some(refusal) = admin_auth(req, rid, ctx, Endpoint::AdminStats) {
        return refusal;
    }
    let r = ctx.tracer.drain();
    let mut counters = ObjBuilder::new();
    for (name, v) in r.counter_names.iter().zip(r.counters.iter()) {
        counters = counters.field(name.as_str(), *v);
    }
    let mut gauges = ObjBuilder::new();
    for (name, v) in r.gauge_names.iter().zip(r.gauges.iter()) {
        gauges = gauges.field(name.as_str(), *v);
    }
    let postings = index.postings_entries();
    let (failed_generation, last_reload_error) = match ctx.handle.last_reload_failure() {
        Some((attempt, err)) => (Json::Int(attempt as i64), Json::Str(err)),
        None => (Json::Null, Json::Null),
    };
    let mut body = ObjBuilder::new()
        .field("uptime_ns", ctx.clock.now_ns())
        .field("version", env!("CARGO_PKG_VERSION"))
        .field("artifact_version", ctx.handle.artifact_version() as u64)
        .field("epoch", ctx.handle.epoch())
        .field("reload_attempts", ctx.handle.reload_attempts())
        .field("failed_generation", failed_generation)
        .field("last_reload_error", last_reload_error)
        .field("groups", index.groups().len())
        .field("items", index.meta().n_items())
        .field("classes", index.meta().n_classes())
        .field("postings_entries", postings)
        .field("postings_bytes", postings * std::mem::size_of::<u32>())
        .field("dropped_events", r.dropped_total())
        .field("counters", counters.build())
        .field("gauges", gauges.build())
        .field("slow_threshold_ns", ctx.slow.threshold_ns())
        .field("slow", ctx.slow.snapshot_json());
    if let Some(hook) = &ctx.ingest {
        body = body.field("pipeline", hook.stats());
    }
    Response::json(200, body.build().to_string(), Endpoint::AdminStats)
}

/// Parses a batch-classify body: `{"samples": [["tok", …], …]}`.
fn batch_samples(body: &str) -> Result<Vec<Vec<String>>, String> {
    let doc = Json::parse(body).map_err(|e| format!("invalid JSON body: {e}"))?;
    let Some(samples) = doc.get("samples") else {
        return Err("body must be an object with a \"samples\" array".to_string());
    };
    let Json::Arr(samples) = samples else {
        return Err("\"samples\" must be an array of token arrays".to_string());
    };
    samples
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let Json::Arr(tokens) = s else {
                return Err(format!("samples[{i}] must be an array of strings"));
            };
            tokens
                .iter()
                .map(|t| {
                    t.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("samples[{i}] must contain only strings"))
                })
                .collect()
        })
        .collect()
}

/// The classification answer for one sample, shared by the single and
/// batch endpoints.
fn prediction_json(index: &ShardedIndex, sample: &rowset::IdList, unknown: &[String]) -> Json {
    let p = index.classify(sample);
    let mut obj = ObjBuilder::new()
        .field("class", p.class)
        .field(
            "class_name",
            index.meta().class_names[p.class as usize].as_str(),
        )
        .field("default", p.group.is_none());
    obj = match p.group {
        Some(gi) => {
            let g = &index.groups()[gi as usize];
            obj.field("group", gi)
                .field("conf", g.confidence())
                .field("sup", g.sup)
        }
        None => obj.field("group", Json::Null),
    };
    obj.field("unknown_items", str_array(unknown)).build()
}

/// Extracts the `items` parameter as a sample, or a 400 message.
fn sample_of(req: &Request, index: &ShardedIndex) -> Result<(rowset::IdList, Vec<String>), String> {
    let Some(items) = req.param("items") else {
        return Err("missing items parameter (items=a,b,c)".to_string());
    };
    let tokens = items.split(',').map(str::trim).filter(|t| !t.is_empty());
    Ok(index.parse_sample(tokens))
}

fn group_json(index: &ShardedIndex, gi: u32) -> Json {
    let g = &index.groups()[gi as usize];
    let upper: Vec<Json> = g
        .upper
        .iter()
        .map(|i| Json::Str(index.meta().item_names[i as usize].clone()))
        .collect();
    ObjBuilder::new()
        .field("group", gi)
        .field("class", g.class)
        .field(
            "class_name",
            index.meta().class_names[g.class as usize].as_str(),
        )
        .field("upper", Json::Arr(upper))
        .field("n_lower", g.lower.len())
        .field("sup", g.sup)
        .field("conf", g.confidence())
        .field("chi2", g.chi_square())
        .build()
}

fn str_array(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect())
}

/// The uniform error envelope:
/// `{"error":{"code":…,"message":…,"request_id":…}}`.
fn error_body(code: &str, message: &str, rid: &str) -> String {
    ObjBuilder::new()
        .field(
            "error",
            ObjBuilder::new()
                .field("code", code)
                .field("message", message)
                .field("request_id", rid)
                .build(),
        )
        .build()
        .to_string()
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    extra_headers: &[(&'static str, String)],
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    write!(stream, "{head}\r\n{body}")
}
