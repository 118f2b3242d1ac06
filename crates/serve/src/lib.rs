//! Serving mined rule groups: index a stored `.fgi` artifact in
//! memory and answer classification and query traffic over HTTP.
//!
//! This is the online half of the store→index→serve pipeline
//! (`farmer-store` is the offline half). The layers, bottom up:
//!
//! - [`ShardedIndex`] — one inverted item→group posting table and a
//!   precomputed classification ranking. `matches(sample)` touches only
//!   the posting lists of the items the sample carries (no linear scan
//!   over groups); `classify(sample)` reproduces exactly what
//!   `farmer_classify::RuleListClassifier::from_ranked` would predict
//!   from the same artifact, falling back to the majority class. A
//!   property test pins both to those references.
//! - [`ArtifactHandle`] — the hot-swappable pointer the server
//!   actually holds: every request snapshots the current index, and a
//!   reload (SIGHUP via the CLI, or `POST /v1/admin/reload`) swaps
//!   artifacts atomically with zero dropped requests.
//! - [`start`] / [`ServerHandle`] — a hermetic HTTP/1.1 server on
//!   `std::net::TcpListener` with a fixed worker pool and bounded
//!   admission (`503` + `Retry-After` past `max_inflight`). Endpoints
//!   live under `/v1/` (`/v1/classify` GET + batch POST, `/v1/query`,
//!   `/v1/healthz`, `/v1/metrics`, `/v1/admin/reload`,
//!   `/v1/admin/stats`); any other path is a `404`. Shutdown is
//!   graceful: the stop flag halts accepting, the backlog drains, and
//!   in-flight requests complete.
//! - [`http_get`] / [`http_post`] — the tiny blocking client used by
//!   the `fgi-client` binary, the end-to-end smoke in
//!   `scripts/verify.sh`, and the concurrency tests.
//!
//! Every request carries an `X-Request-Id`, feeds the RED counter and
//! gauge families on `/v1/metrics`, and can be logged as structured
//! JSON lines ([`ServeConfig::log_out`]) — see the `http` module docs
//! for the observability surface and [`watch`] for the polling
//! dashboard behind `fgi-client watch`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod handle;
mod http;
mod index;
mod ingest;
mod obs;
pub mod watch;

pub use client::{http_get, http_get_auth, http_post, HttpResponse};
pub use handle::ArtifactHandle;
pub use http::{start, ServeConfig, ServerHandle};
pub use index::{Prediction, ShardedIndex};
pub use ingest::{IngestHook, IngestRow};
