//! Streaming ingest and incremental remining for FARMER artifacts.
//!
//! This crate is the glue between a live dataset and a live server:
//! rows arrive one batch at a time (a new tissue sample with its class
//! label), and the mined `.fgi` artifact a server answers from must
//! follow without re-running the full enumeration or restarting
//! anything. Three pieces:
//!
//! - [`IncrementalMiner`] — the remine engine. Bootstraps a full
//!   harvest of closed groups once, then absorbs row deltas with a
//!   *delta-restricted* frontier search ([`farmer_core::Farmer::
//!   with_frontier`]) that only revisits what a new row can have
//!   changed. Its output is property-tested byte-identical to a cold
//!   mine of the merged dataset.
//! - [`Pipeline`] / [`PipelineHandle`] — the daemon. Rows enter
//!   through the `.fgd` journal (crash-safe, checksummed, append-only
//!   — see `farmer_store::JournalWriter`), either in-process via the
//!   [`farmer_serve::IngestHook`] implementation behind
//!   `POST /v1/admin/ingest`, or from another process running
//!   `farmer ingest`. A background thread, woken by in-process
//!   ingests and polling for other processes' appends, tails the
//!   journal, remines (at once when idle; a burst waits for the window
//!   after the last remine and coalesces), and atomically publishes.
//! - [`Notify`] — what happens after a publish: hand the published
//!   groups to an in-process [`farmer_serve::ArtifactHandle`]
//!   (`serve --watch`), hit a remote server's `/v1/admin/reload`, or
//!   nothing.
//!
//! The flow, end to end:
//!
//! ```text
//! farmer ingest ──▶ rows.fgd ──▶ tail+throttle ──▶ IncrementalMiner
//! POST /v1/admin/ingest ┘ (+ wake)                        │
//!                                                 groups (exact)
//!                                                         │
//!     serve ◀── install ◀── atomic rename ◀── .fgi tmp + fsync
//! ```
//!
//! The throttle remines at once when the pipeline is idle, and at
//! most once per [`PipelineConfig::debounce_ms`] window when it is
//! busy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod daemon;
mod engine;

pub use daemon::{Notify, Pipeline, PipelineConfig, PipelineHandle};
pub use engine::IncrementalMiner;
