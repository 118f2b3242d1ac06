//! The span & histogram taxonomy of a FARMER mining run.
//!
//! The mechanism (sinks, rings, histograms, exporters) lives in
//! [`farmer_support::trace`] and is re-exported here; this module pins
//! the *identities*: which phases exist, which latencies are
//! histogrammed, and how worker threads map to trace lanes. Keeping the
//! taxonomy next to the instrumented code means `farmer-dataset` stays
//! trace-free (callers wrap its load/discretize/transpose phases in
//! spans) and every crate in the workspace agrees on the name tables.
//!
//! # Lane convention
//!
//! Lane 0 ([`LANE_MAIN`]) is the main/sequential thread; parallel
//! worker `w` records on lane [`worker_lane`]`(w) = w + 1`. The Chrome
//! exporter turns each lane into its own named track.

pub use farmer_support::trace::{
    chrome_trace_json, prometheus_text, span, trace_stats_json, EventKind, HistId, Histogram,
    NoopTracer, RingTracer, Span, SpanId, TraceEvent, TraceReport, TraceSink,
};

/// Name table for the phase spans, indexed by `SpanId`.
pub const SPAN_NAMES: &[&str] = &[
    "session",
    "load",
    "discretize",
    "transpose",
    "enumerate",
    "merge",
    "lower_bounds",
    "steal",
    "nodes",
];

/// A whole mining run (the [`Miner::mine_traced`] default wraps
/// `mine_with` in this span).
///
/// [`Miner::mine_traced`]: crate::session::Miner::mine_traced
pub const SPAN_SESSION: SpanId = SpanId(0);
/// Reading the dataset from disk (emitted by the CLI).
pub const SPAN_LOAD: SpanId = SpanId(1);
/// Discretizing expression values into items (emitted by the CLI).
pub const SPAN_DISCRETIZE: SpanId = SpanId(2);
/// Reordering the rows into `ORD` order ([`Dataset::reordered_for_class`],
/// which rebuilds the item-column row sets the search scans as its
/// transposed table). The name stays `transpose` because the benchmark
/// harness reports this span as `dataset.transpose_ms`.
///
/// [`Dataset::reordered_for_class`]: farmer_dataset::Dataset::reordered_for_class
pub const SPAN_TRANSPOSE: SpanId = SpanId(3);
/// Row enumeration — one span per worker lane.
pub const SPAN_ENUMERATE: SpanId = SpanId(4);
/// Parallel merge: dedup by upper bound + the interestingness pass.
pub const SPAN_MERGE: SpanId = SpanId(5);
/// MineLB lower-bound attachment during result packaging.
pub const SPAN_LOWER_BOUNDS: SpanId = SpanId(6);
/// Instant marking a work-steal (a worker claimed a depth-1 subtree
/// beyond its first).
pub const SPAN_STEAL: SpanId = SpanId(7);
/// Counter track sampling `nodes_visited` per lane.
pub const COUNTER_NODES: SpanId = SpanId(8);

/// Name table for the latency histograms, indexed by `HistId`.
pub const HIST_NAMES: &[&str] = &["node_visit", "fused_scan", "lower_bound"];

/// Inclusive duration of one enumeration-node visit (children
/// included — leaf buckets dominate the low quantiles).
pub const HIST_NODE_VISIT: HistId = HistId(0);
/// One fused conditional-table scan (`BitsetNode::inspect_into`).
pub const HIST_FUSED_SCAN: HistId = HistId(1);
/// One `mine_lower_bounds` call during packaging.
pub const HIST_LOWER_BOUND: HistId = HistId(2);

/// The main/sequential thread's lane.
pub const LANE_MAIN: usize = 0;

/// The lane parallel worker `w` records on.
pub const fn worker_lane(worker: usize) -> usize {
    worker + 1
}

/// Event-ring capacity per lane (slots). Mining emits phase-granular
/// events plus one steal instant per queue claim and one counter sample
/// per 1024 nodes, so 16Ki slots (384 KiB/lane at 24 B/slot) covers
/// hours of tracing; overflow drops newest and is reported.
pub const DEFAULT_RING_CAPACITY: usize = 16 * 1024;

/// A [`RingTracer`] sized for a run with `threads` workers: the main
/// lane plus one lane per worker, default capacity, the workspace name
/// tables.
pub fn mining_tracer(threads: usize) -> RingTracer {
    RingTracer::new(
        SPAN_NAMES,
        HIST_NAMES,
        threads.max(1) + 1,
        DEFAULT_RING_CAPACITY,
    )
}

/// Emits a counter sample every this many nodes on traced runs.
pub(crate) const NODE_COUNTER_MASK: u64 = 1023;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_tables_are_consistent() {
        // every declared id indexes its name table
        for id in [
            SPAN_SESSION,
            SPAN_LOAD,
            SPAN_DISCRETIZE,
            SPAN_TRANSPOSE,
            SPAN_ENUMERATE,
            SPAN_MERGE,
            SPAN_LOWER_BOUNDS,
            SPAN_STEAL,
            COUNTER_NODES,
        ] {
            assert!((id.0 as usize) < SPAN_NAMES.len());
        }
        for id in [HIST_NODE_VISIT, HIST_FUSED_SCAN, HIST_LOWER_BOUND] {
            assert!((id.0 as usize) < HIST_NAMES.len());
        }
        // names are unique (exporter labels collide otherwise)
        for table in [SPAN_NAMES, HIST_NAMES] {
            let mut seen = std::collections::HashSet::new();
            assert!(table.iter().all(|n| seen.insert(*n)), "duplicate name");
        }
    }

    #[test]
    fn mining_tracer_has_one_lane_per_worker_plus_main() {
        assert_eq!(mining_tracer(4).n_lanes(), 5);
        assert_eq!(mining_tracer(0).n_lanes(), 2);
        assert_eq!(worker_lane(3), 4);
        assert_eq!(LANE_MAIN, 0);
    }
}
