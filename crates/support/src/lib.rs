//! Zero-dependency test & bench substrate for the FARMER workspace.
//!
//! The build environment is hermetic: no crates-io access. This crate
//! replaces every external dev/test dependency the workspace used to
//! pull in, with APIs shaped like the originals so call sites port
//! with import edits:
//!
//! * [`rng`] — seedable SplitMix64/xoshiro256++ PRNG with
//!   `gen_range`, `shuffle`, and Bernoulli/choice helpers.
//! * [`check`](mod@check) — property-testing harness with generator combinators
//!   and greedy integrated shrinking (`FARMER_CHECK_SEED` /
//!   `FARMER_CHECK_CASES`).
//! * [`json`] — JSON value type with serializer, pretty-printer, and
//!   parser.
//! * [`thread`] — scoped threads, channels, and a poison-tolerant
//!   mutex over the standard library.
//! * [`bench`](mod@bench) — criterion-lite timer for `harness = false` bench
//!   binaries (`FARMER_BENCH_SAMPLES` / `FARMER_BENCH_JSON`).
//! * [`alloc`] — a counting global allocator for allocation-budget
//!   tests.
//! * [`hash`] — FNV-1a 64-bit hashing (artifact checksums, index
//!   fingerprints), with pinned reference digests.
//! * [`trace`] — statically dispatched phase spans, latency
//!   histograms, per-worker lock-free event rings, and Chrome-trace /
//!   Prometheus-text exporters.
//! * [`varint`] — LEB128 integer codec for the `.fgi` v2 artifact
//!   encoding.
//! * [`swap`] — arc-swap-style epoch pointer for hot-reloadable
//!   shared state, plus the SIGHUP reload flag.

#![warn(missing_docs)]

pub mod alloc;
pub mod bench;
pub mod check;
pub mod hash;
pub mod json;
pub mod rng;
pub mod swap;
pub mod thread;
pub mod trace;
pub mod varint;
