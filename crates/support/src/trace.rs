//! Hermetic tracing & metrics: phase spans, latency histograms, a
//! per-lane lock-free event log, and Chrome-trace / Prometheus-text
//! exporters — no external dependencies, consistent with the rest of
//! this crate.
//!
//! # Model
//!
//! * [`TraceSink`] is the instrumentation interface. Like
//!   `MineObserver` in `farmer-core` it is *statically dispatched* with
//!   no-op default bodies, so code instrumented against a generic
//!   `T: TraceSink` and run with [`NoopTracer`] monomorphizes to the
//!   exact uninstrumented machine code — the disabled path compiles to
//!   nothing.
//! * [`RingTracer`] is the live implementation: one fixed-capacity
//!   event lane per worker (single producer, no locks, atomic slots so
//!   the drain may read from another thread after the join), plus one
//!   set of atomic power-of-two-bucket histograms per lane.
//! * Overflow policy is **drop-newest**: once a lane is full, further
//!   events bump a drop counter and are discarded. Dropping the newest
//!   (rather than overwriting the oldest) keeps every retained
//!   begin/end pair intact, so a truncated trace is still loadable.
//! * [`RingTracer::drain`] (after all workers have joined) merges the
//!   lanes by timestamp into a [`TraceReport`], from which
//!   [`chrome_trace_json`] and [`prometheus_text`] render the two
//!   export formats.
//!
//! Span and histogram *identities* are plain `u16` indices into name
//! tables supplied at construction; the taxonomy itself lives with the
//! instrumented code (see `farmer-core::trace`), not here.

use crate::json::{Json, ObjBuilder};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// Identifies a span (phase) in the name table passed to
/// [`RingTracer::new`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(pub u16);

/// Identifies a latency histogram in the name table passed to
/// [`RingTracer::new`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HistId(pub u16);

/// Identifies a named monotonic counter in the table passed to
/// [`RingTracer::with_metrics`]. Counters only ever grow; Prometheus
/// output renders them with the conventional `_total` suffix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CounterId(pub u16);

/// Identifies a named gauge in the table passed to
/// [`RingTracer::with_metrics`]. Gauges move by signed deltas, so the
/// per-lane values merge by summation exactly like histograms: a value
/// raised on one lane and lowered on another nets out in the merged
/// report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GaugeId(pub u16);

/// The instrumentation interface. Every method takes `&self` (sinks are
/// shared across worker threads) and has a no-op default body; a run
/// against [`NoopTracer`] compiles to the uninstrumented code.
///
/// `lane` identifies the emitting track: by convention lane 0 is the
/// main/sequential thread and lane `w + 1` is parallel worker `w`.
pub trait TraceSink: Sync {
    /// `true` iff events are being recorded. Instrumentation sites use
    /// this to skip *preparation* work (clock reads, deltas) — the
    /// recording calls themselves are already free when disabled.
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    /// Nanoseconds since the sink's epoch (session start). The disabled
    /// sink returns 0 without touching the clock.
    #[inline]
    fn now_ns(&self) -> u64 {
        0
    }

    /// A phase opened on `lane`.
    #[inline]
    fn begin(&self, lane: usize, span: SpanId) {
        let _ = (lane, span);
    }

    /// The innermost open phase closed on `lane`.
    #[inline]
    fn end(&self, lane: usize, span: SpanId) {
        let _ = (lane, span);
    }

    /// A point event (e.g. a work-steal) on `lane`.
    #[inline]
    fn instant(&self, lane: usize, span: SpanId) {
        let _ = (lane, span);
    }

    /// A counter sample (e.g. nodes visited so far) on `lane`.
    #[inline]
    fn counter(&self, lane: usize, span: SpanId, value: u64) {
        let _ = (lane, span, value);
    }

    /// Records `ns` into histogram `hist` on `lane`.
    #[inline]
    fn duration_ns(&self, lane: usize, hist: HistId, ns: u64) {
        let _ = (lane, hist, ns);
    }

    /// Adds `delta` to monotonic counter `counter` on `lane`.
    #[inline]
    fn add(&self, lane: usize, counter: CounterId, delta: u64) {
        let _ = (lane, counter, delta);
    }

    /// Moves gauge `gauge` by the signed `delta` on `lane`. The merged
    /// gauge value is the sum of every lane's deltas, so raising on one
    /// lane and lowering on another is well defined.
    #[inline]
    fn gauge_add(&self, lane: usize, gauge: GaugeId, delta: i64) {
        let _ = (lane, gauge, delta);
    }
}

/// The do-nothing sink: monomorphizes instrumented code back into the
/// uninstrumented code. The core alloc-guard pins that it allocates
/// nothing; its time cost is only watched by perfbench's
/// parent-vs-change bound on the untraced `mine_dense` mine time (a
/// 25% median regression).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopTracer;

impl TraceSink for NoopTracer {}

/// RAII guard for a phase span: emits `begin` on construction (via
/// [`span`]) and `end` on drop, so early returns and `?` cannot leave a
/// phase open.
#[derive(Debug)]
pub struct Span<'a, T: TraceSink + ?Sized> {
    sink: &'a T,
    lane: usize,
    id: SpanId,
}

/// Opens a span on `sink`; the phase closes when the guard drops.
#[inline]
pub fn span<T: TraceSink + ?Sized>(sink: &T, lane: usize, id: SpanId) -> Span<'_, T> {
    sink.begin(lane, id);
    Span { sink, lane, id }
}

impl<T: TraceSink + ?Sized> Drop for Span<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.sink.end(self.lane, self.id);
    }
}

/// Number of histogram buckets: bucket 0 holds the value 0 and bucket
/// `k ≥ 1` holds values in `[2^(k-1), 2^k)`, up to `u64::MAX`.
pub const HIST_BUCKETS: usize = 65;

#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Inclusive upper bound of bucket `k` (`0` for bucket 0, else
/// `2^k - 1`). Used as the `le` label in Prometheus output and as the
/// value reported by [`Histogram::quantile`].
#[inline]
pub fn bucket_upper(k: usize) -> u64 {
    if k == 0 {
        0
    } else if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// A fixed-bucket latency histogram with power-of-two buckets,
/// mergeable across workers. Quantiles come back as the upper bound of
/// the bucket containing the requested rank — coarse (factor-of-two)
/// but allocation-free and merge-exact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Adds every observation of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Per-bucket counts (see [`bucket_upper`] for the bucket bounds).
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.counts
    }

    /// The upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`), or 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(k);
            }
        }
        bucket_upper(HIST_BUCKETS - 1)
    }
}

/// Lock-free histogram a lane records into while the drain may later
/// read from another thread.
struct AtomicHistogram {
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> Self {
        AtomicHistogram {
            counts: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record(&self, v: u64) {
        self.counts[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        for (k, c) in self.counts.iter().enumerate() {
            h.counts[k] = c.load(Ordering::Relaxed);
        }
        h.count = self.count.load(Ordering::Relaxed);
        h.sum = self.sum.load(Ordering::Relaxed);
        h
    }
}

/// What an event slot records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A phase opened ([`TraceSink::begin`]).
    Begin,
    /// A phase closed ([`TraceSink::end`]).
    End,
    /// A point event ([`TraceSink::instant`]).
    Instant,
    /// A counter sample ([`TraceSink::counter`]).
    Counter,
}

/// One drained event record.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Nanoseconds since session start.
    pub t_ns: u64,
    /// Emitting lane (0 = main, `w + 1` = worker `w`).
    pub lane: usize,
    /// Event kind.
    pub kind: EventKind,
    /// Index into the span name table.
    pub span: u16,
    /// Counter value (0 for non-counter events).
    pub value: u64,
}

/// One fixed-size event slot: timestamp, packed kind+span tag, value.
/// Slots are written by exactly one producer (the lane's owner) but
/// read by the draining thread, hence atomics; `farmer-support` stays
/// `unsafe`-free like the rest of the workspace.
struct Slot {
    t: AtomicU64,
    tag: AtomicU64,
    value: AtomicU64,
}

struct Lane {
    head: AtomicU64,
    dropped: AtomicU64,
    slots: Vec<Slot>,
}

impl Lane {
    fn new(capacity: usize) -> Self {
        Lane {
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|_| Slot {
                    t: AtomicU64::new(0),
                    tag: AtomicU64::new(0),
                    value: AtomicU64::new(0),
                })
                .collect(),
        }
    }
}

/// The live sink: per-lane event rings + per-lane atomic histograms,
/// drained into a [`TraceReport`] after the run.
pub struct RingTracer {
    start: Instant,
    span_names: &'static [&'static str],
    hist_names: &'static [&'static str],
    counter_names: &'static [&'static str],
    gauge_names: &'static [&'static str],
    lanes: Vec<Lane>,
    hists: Vec<Vec<AtomicHistogram>>,
    counters: Vec<Vec<AtomicU64>>,
    gauges: Vec<Vec<AtomicI64>>,
}

impl RingTracer {
    /// A tracer with `n_lanes` event lanes of `capacity` slots each and
    /// one histogram set per lane. `n_lanes` and `capacity` are clamped
    /// to at least 1.
    pub fn new(
        span_names: &'static [&'static str],
        hist_names: &'static [&'static str],
        n_lanes: usize,
        capacity: usize,
    ) -> Self {
        Self::with_metrics(span_names, hist_names, &[], &[], n_lanes, capacity)
    }

    /// [`RingTracer::new`] plus named monotonic counters and gauges:
    /// one atomic cell per (lane, name), merged by summation at drain
    /// time exactly like the histograms.
    pub fn with_metrics(
        span_names: &'static [&'static str],
        hist_names: &'static [&'static str],
        counter_names: &'static [&'static str],
        gauge_names: &'static [&'static str],
        n_lanes: usize,
        capacity: usize,
    ) -> Self {
        let n_lanes = n_lanes.max(1);
        let capacity = capacity.max(1);
        RingTracer {
            start: Instant::now(),
            span_names,
            hist_names,
            counter_names,
            gauge_names,
            lanes: (0..n_lanes).map(|_| Lane::new(capacity)).collect(),
            hists: (0..n_lanes)
                .map(|_| {
                    (0..hist_names.len())
                        .map(|_| AtomicHistogram::new())
                        .collect()
                })
                .collect(),
            counters: (0..n_lanes)
                .map(|_| {
                    (0..counter_names.len())
                        .map(|_| AtomicU64::new(0))
                        .collect()
                })
                .collect(),
            gauges: (0..n_lanes)
                .map(|_| (0..gauge_names.len()).map(|_| AtomicI64::new(0)).collect())
                .collect(),
        }
    }

    /// Number of event lanes.
    pub fn n_lanes(&self) -> usize {
        self.lanes.len()
    }

    #[inline]
    fn push(&self, lane: usize, kind: EventKind, span: SpanId, value: u64) {
        let t = self.now_ns();
        let lane = &self.lanes[lane.min(self.lanes.len() - 1)];
        let idx = lane.head.fetch_add(1, Ordering::Relaxed) as usize;
        if idx < lane.slots.len() {
            let slot = &lane.slots[idx];
            slot.t.store(t, Ordering::Relaxed);
            slot.tag
                .store(((span.0 as u64) << 8) | kind as u64, Ordering::Relaxed);
            slot.value.store(value, Ordering::Release);
        } else {
            lane.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshots every lane into a timestamp-merged [`TraceReport`].
    /// Call after all recording threads have joined — the drain reads
    /// with relaxed atomics and does not synchronize with producers.
    pub fn drain(&self) -> TraceReport {
        let total_ns = self.now_ns();
        let mut events = Vec::new();
        let mut dropped = Vec::with_capacity(self.lanes.len());
        for (li, lane) in self.lanes.iter().enumerate() {
            let filled = (lane.head.load(Ordering::Relaxed) as usize).min(lane.slots.len());
            for slot in &lane.slots[..filled] {
                let value = slot.value.load(Ordering::Acquire);
                let tag = slot.tag.load(Ordering::Relaxed);
                let kind = match tag & 0xff {
                    0 => EventKind::Begin,
                    1 => EventKind::End,
                    2 => EventKind::Instant,
                    _ => EventKind::Counter,
                };
                events.push(TraceEvent {
                    t_ns: slot.t.load(Ordering::Relaxed),
                    lane: li,
                    kind,
                    span: (tag >> 8) as u16,
                    value,
                });
            }
            dropped.push(lane.dropped.load(Ordering::Relaxed));
        }
        // Lanes are individually time-ordered (single producer, one
        // monotonic clock); a stable sort by timestamp merges them
        // while preserving per-lane order on ties.
        events.sort_by_key(|e| e.t_ns);
        let lane_hists: Vec<Vec<Histogram>> = self
            .hists
            .iter()
            .map(|per_lane| per_lane.iter().map(AtomicHistogram::snapshot).collect())
            .collect();
        let mut hists = vec![Histogram::new(); self.hist_names.len()];
        for per_lane in &lane_hists {
            for (h, lh) in hists.iter_mut().zip(per_lane.iter()) {
                h.merge(lh);
            }
        }
        let lane_counters: Vec<Vec<u64>> = self
            .counters
            .iter()
            .map(|per_lane| per_lane.iter().map(|c| c.load(Ordering::Relaxed)).collect())
            .collect();
        let mut counters = vec![0u64; self.counter_names.len()];
        for per_lane in &lane_counters {
            for (c, lc) in counters.iter_mut().zip(per_lane.iter()) {
                *c += lc;
            }
        }
        let lane_gauges: Vec<Vec<i64>> = self
            .gauges
            .iter()
            .map(|per_lane| per_lane.iter().map(|g| g.load(Ordering::Relaxed)).collect())
            .collect();
        let mut gauges = vec![0i64; self.gauge_names.len()];
        for per_lane in &lane_gauges {
            for (g, lg) in gauges.iter_mut().zip(per_lane.iter()) {
                *g += lg;
            }
        }
        TraceReport {
            span_names: self.span_names.iter().map(|s| s.to_string()).collect(),
            hist_names: self.hist_names.iter().map(|s| s.to_string()).collect(),
            counter_names: self.counter_names.iter().map(|s| s.to_string()).collect(),
            gauge_names: self.gauge_names.iter().map(|s| s.to_string()).collect(),
            events,
            hists,
            lane_hists,
            counters,
            lane_counters,
            gauges,
            lane_gauges,
            dropped,
            total_ns,
        }
    }
}

impl TraceSink for RingTracer {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    #[inline]
    fn begin(&self, lane: usize, span: SpanId) {
        self.push(lane, EventKind::Begin, span, 0);
    }

    #[inline]
    fn end(&self, lane: usize, span: SpanId) {
        self.push(lane, EventKind::End, span, 0);
    }

    #[inline]
    fn instant(&self, lane: usize, span: SpanId) {
        self.push(lane, EventKind::Instant, span, 0);
    }

    #[inline]
    fn counter(&self, lane: usize, span: SpanId, value: u64) {
        self.push(lane, EventKind::Counter, span, value);
    }

    #[inline]
    fn duration_ns(&self, lane: usize, hist: HistId, ns: u64) {
        let lane = lane.min(self.hists.len() - 1);
        if let Some(h) = self.hists[lane].get(hist.0 as usize) {
            h.record(ns);
        }
    }

    #[inline]
    fn add(&self, lane: usize, counter: CounterId, delta: u64) {
        let lane = lane.min(self.counters.len() - 1);
        if let Some(c) = self.counters[lane].get(counter.0 as usize) {
            c.fetch_add(delta, Ordering::Relaxed);
        }
    }

    #[inline]
    fn gauge_add(&self, lane: usize, gauge: GaugeId, delta: i64) {
        let lane = lane.min(self.gauges.len() - 1);
        if let Some(g) = self.gauges[lane].get(gauge.0 as usize) {
            g.fetch_add(delta, Ordering::Relaxed);
        }
    }
}

/// Accumulated wall time and call count of one span across the run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotal {
    /// Total nanoseconds between paired begin/end events (an unmatched
    /// `begin` accumulates until the drain timestamp).
    pub total_ns: u64,
    /// `begin` + `instant` events.
    pub count: u64,
}

/// Everything drained from a [`RingTracer`]: the merged event log,
/// per-lane and merged histograms, and drop counts.
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// Span name table (index = [`TraceEvent::span`]).
    pub span_names: Vec<String>,
    /// Histogram name table.
    pub hist_names: Vec<String>,
    /// Monotonic counter name table.
    pub counter_names: Vec<String>,
    /// Gauge name table.
    pub gauge_names: Vec<String>,
    /// All events, merged across lanes in timestamp order.
    pub events: Vec<TraceEvent>,
    /// Histograms merged across lanes, indexed by [`HistId`].
    pub hists: Vec<Histogram>,
    /// Per-lane histograms: `lane_hists[lane][hist]`.
    pub lane_hists: Vec<Vec<Histogram>>,
    /// Counters summed across lanes, indexed by [`CounterId`].
    pub counters: Vec<u64>,
    /// Per-lane counters: `lane_counters[lane][counter]`.
    pub lane_counters: Vec<Vec<u64>>,
    /// Gauges (net delta sums across lanes), indexed by [`GaugeId`].
    pub gauges: Vec<i64>,
    /// Per-lane gauge deltas: `lane_gauges[lane][gauge]`.
    pub lane_gauges: Vec<Vec<i64>>,
    /// Events dropped per lane (ring overflow, drop-newest policy).
    pub dropped: Vec<u64>,
    /// Drain timestamp, nanoseconds since session start.
    pub total_ns: u64,
}

impl TraceReport {
    /// Number of lanes.
    pub fn n_lanes(&self) -> usize {
        self.dropped.len()
    }

    /// Total events dropped across all lanes.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Per-span accumulated wall time and call counts, indexed like
    /// [`TraceReport::span_names`]. Begin/end events pair up per lane
    /// (spans nest within a lane); an unmatched begin runs to the drain
    /// timestamp.
    pub fn span_totals(&self) -> Vec<SpanTotal> {
        let mut totals = vec![SpanTotal::default(); self.span_names.len()];
        // open[lane] = stack of (span, t_begin)
        let mut open: Vec<Vec<(u16, u64)>> = vec![Vec::new(); self.n_lanes()];
        for e in &self.events {
            let Some(t) = totals.get_mut(e.span as usize) else {
                continue;
            };
            match e.kind {
                EventKind::Begin => {
                    t.count += 1;
                    open[e.lane].push((e.span, e.t_ns));
                }
                EventKind::End => {
                    // Pop to the matching begin; drop-newest overflow can
                    // orphan an end, which we then ignore.
                    if let Some(pos) = open[e.lane].iter().rposition(|&(s, _)| s == e.span) {
                        let (_, t0) = open[e.lane].remove(pos);
                        t.total_ns += e.t_ns.saturating_sub(t0);
                    }
                }
                EventKind::Instant | EventKind::Counter => t.count += 1,
            }
        }
        for stack in open {
            for (s, t0) in stack {
                totals[s as usize].total_ns += self.total_ns.saturating_sub(t0);
            }
        }
        totals
    }
}

fn lane_label(lane: usize) -> String {
    if lane == 0 {
        "main".to_string()
    } else {
        format!("worker-{}", lane - 1)
    }
}

/// Renders a report as Chrome trace-event JSON (the format
/// `chrome://tracing` and Perfetto load): one `pid`, one `tid` per
/// lane, `B`/`E` duration events, `i` instants, `C` counters, plus
/// `thread_name` metadata so each worker gets a labeled track.
pub fn chrome_trace_json(r: &TraceReport) -> Json {
    let unknown = "?".to_string();
    let name_of = |span: u16| r.span_names.get(span as usize).unwrap_or(&unknown).as_str();
    let mut events = Vec::with_capacity(r.events.len() + r.n_lanes());
    for lane in 0..r.n_lanes() {
        events.push(
            ObjBuilder::new()
                .field("name", "thread_name")
                .field("ph", "M")
                .field("pid", 1u64)
                .field("tid", lane as u64)
                .field(
                    "args",
                    ObjBuilder::new().field("name", lane_label(lane)).build(),
                )
                .build(),
        );
    }
    for e in &r.events {
        let base = ObjBuilder::new()
            .field("name", name_of(e.span))
            .field("ts", e.t_ns as f64 / 1000.0)
            .field("pid", 1u64)
            .field("tid", e.lane as u64);
        events.push(match e.kind {
            EventKind::Begin => base.field("ph", "B").build(),
            EventKind::End => base.field("ph", "E").build(),
            EventKind::Instant => base.field("ph", "i").field("s", "t").build(),
            EventKind::Counter => base
                .field("ph", "C")
                .field(
                    "args",
                    ObjBuilder::new().field(name_of(e.span), e.value).build(),
                )
                .build(),
        });
    }
    ObjBuilder::new()
        .field("traceEvents", Json::Arr(events))
        .field("displayTimeUnit", "ms")
        .build()
}

/// The Prometheus family name of a monotonic counter: `farmer_` prefix
/// plus the conventional `_total` suffix (not doubled when the name
/// already carries it).
pub fn counter_family(name: &str) -> String {
    if name.ends_with("_total") {
        format!("farmer_{name}")
    } else {
        format!("farmer_{name}_total")
    }
}

/// Renders a report as Prometheus text exposition: span seconds/calls
/// counters, the named counter (`_total`) and gauge families, one
/// native histogram family per latency histogram (cumulative
/// `_bucket{le=…}` + `_sum` + `_count`), and the dropped-event
/// counter. Every family carries its `# HELP` and `# TYPE` lines once;
/// metric names are prefixed `farmer_`.
pub fn prometheus_text(r: &TraceReport) -> String {
    let mut out = String::new();
    let totals = r.span_totals();

    out.push_str("# HELP farmer_span_seconds_total Wall time accumulated per phase span.\n");
    out.push_str("# TYPE farmer_span_seconds_total counter\n");
    for (name, t) in r.span_names.iter().zip(totals.iter()) {
        out.push_str(&format!(
            "farmer_span_seconds_total{{span=\"{name}\"}} {}\n",
            t.total_ns as f64 / 1e9
        ));
    }
    out.push_str("# HELP farmer_span_calls_total Begin/instant events per phase span.\n");
    out.push_str("# TYPE farmer_span_calls_total counter\n");
    for (name, t) in r.span_names.iter().zip(totals.iter()) {
        out.push_str(&format!(
            "farmer_span_calls_total{{span=\"{name}\"}} {}\n",
            t.count
        ));
    }

    for (name, v) in r.counter_names.iter().zip(r.counters.iter()) {
        let family = counter_family(name);
        out.push_str(&format!(
            "# HELP {family} Monotonic count of {name} events.\n\
             # TYPE {family} counter\n{family} {v}\n"
        ));
    }
    for (name, v) in r.gauge_names.iter().zip(r.gauges.iter()) {
        let family = format!("farmer_{name}");
        out.push_str(&format!(
            "# HELP {family} Current value of the {name} gauge.\n\
             # TYPE {family} gauge\n{family} {v}\n"
        ));
    }

    for (name, h) in r.hist_names.iter().zip(r.hists.iter()) {
        let family = format!("farmer_{name}_ns");
        out.push_str(&format!(
            "# HELP {family} Latency of {name} in nanoseconds.\n# TYPE {family} histogram\n"
        ));
        let mut cumulative = 0u64;
        let last_nonempty = h.buckets().iter().rposition(|&c| c > 0).unwrap_or(0);
        for (k, &c) in h.buckets().iter().enumerate().take(last_nonempty + 1) {
            cumulative += c;
            out.push_str(&format!(
                "{family}_bucket{{le=\"{}\"}} {cumulative}\n",
                bucket_upper(k)
            ));
        }
        out.push_str(&format!("{family}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
        out.push_str(&format!("{family}_sum {}\n", h.sum()));
        out.push_str(&format!("{family}_count {}\n", h.count()));
    }

    out.push_str(
        "# HELP farmer_trace_dropped_events_total Events lost to ring overflow (drop-newest).\n",
    );
    out.push_str("# TYPE farmer_trace_dropped_events_total counter\n");
    out.push_str(&format!(
        "farmer_trace_dropped_events_total {}\n",
        r.dropped_total()
    ));
    out
}

/// Renders the `trace` block folded into the CLI's `--stats-json`
/// report: per-span totals, per-histogram p50/p95/p99, and drop counts.
pub fn trace_stats_json(r: &TraceReport) -> Json {
    let totals = r.span_totals();
    let spans: Vec<Json> = r
        .span_names
        .iter()
        .zip(totals.iter())
        .filter(|(_, t)| t.count > 0 || t.total_ns > 0)
        .map(|(name, t)| {
            ObjBuilder::new()
                .field("name", name.as_str())
                .field("total_ns", t.total_ns)
                .field("count", t.count)
                .build()
        })
        .collect();
    let hists: Vec<Json> = r
        .hist_names
        .iter()
        .zip(r.hists.iter())
        .map(|(name, h)| {
            ObjBuilder::new()
                .field("name", name.as_str())
                .field("count", h.count())
                .field("sum_ns", h.sum())
                .field("p50_ns", h.quantile(0.50))
                .field("p95_ns", h.quantile(0.95))
                .field("p99_ns", h.quantile(0.99))
                .build()
        })
        .collect();
    ObjBuilder::new()
        .field("lanes", r.n_lanes() as u64)
        .field("spans", Json::Arr(spans))
        .field("hists", Json::Arr(hists))
        .field("dropped_events", r.dropped_total())
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPANS: &[&str] = &["alpha", "beta", "gamma"];
    const HISTS: &[&str] = &["visit", "scan"];
    const ALPHA: SpanId = SpanId(0);
    const BETA: SpanId = SpanId(1);
    const GAMMA: SpanId = SpanId(2);
    const VISIT: HistId = HistId(0);

    #[test]
    fn noop_tracer_is_disabled_and_zero_sized() {
        let t = NoopTracer;
        assert!(!t.enabled());
        assert_eq!(t.now_ns(), 0);
        assert_eq!(std::mem::size_of::<NoopTracer>(), 0);
        // all hooks are callable no-ops
        t.begin(0, ALPHA);
        t.end(0, ALPHA);
        t.instant(3, BETA);
        t.counter(1, GAMMA, 7);
        t.duration_ns(0, VISIT, 9);
        let _guard = span(&t, 0, ALPHA);
    }

    #[test]
    fn histogram_buckets_quantiles_and_merge() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1049);
        assert_eq!(h.buckets()[0], 1); // 0
        assert_eq!(h.buckets()[1], 1); // 1
        assert_eq!(h.buckets()[2], 2); // 2,3
        assert_eq!(h.buckets()[3], 2); // 4,7
        assert_eq!(h.buckets()[4], 1); // 8
        assert_eq!(h.buckets()[11], 1); // 1024
                                        // the median of 8 observations lands in bucket 2 (le=3)
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(1.0), bucket_upper(11));
        let mut other = Histogram::new();
        other.record(u64::MAX);
        other.merge(&h);
        assert_eq!(other.count(), 9);
        assert_eq!(other.buckets()[64], 1);
        assert_eq!(other.quantile(1.0), u64::MAX);
    }

    #[test]
    fn ring_records_merges_lanes_and_counts_spans() {
        let t = RingTracer::new(SPANS, HISTS, 3, 128);
        assert!(t.enabled());
        {
            let _outer = span(&t, 0, ALPHA);
            t.instant(1, GAMMA);
            let _inner = span(&t, 0, BETA);
            t.counter(2, GAMMA, 42);
        }
        t.duration_ns(0, VISIT, 100);
        t.duration_ns(1, VISIT, 200);
        let r = t.drain();
        assert_eq!(r.n_lanes(), 3);
        assert_eq!(r.events.len(), 6);
        assert!(r.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert_eq!(r.dropped_total(), 0);
        let totals = r.span_totals();
        assert_eq!(totals[0].count, 1);
        assert_eq!(totals[1].count, 1);
        assert_eq!(totals[2].count, 2); // instant + counter
        assert!(totals[0].total_ns >= totals[1].total_ns); // alpha encloses beta
                                                           // merged histogram equals the sum of the per-lane ones
        assert_eq!(r.hists[0].count(), 2);
        assert_eq!(r.hists[0].sum(), 300);
        let lane_sum: u64 = r.lane_hists.iter().map(|l| l[0].count()).sum();
        assert_eq!(r.hists[0].count(), lane_sum);
        assert_eq!(r.hists[1].count(), 0);
    }

    #[test]
    fn ring_overflow_drops_newest_and_counts() {
        let t = RingTracer::new(SPANS, HISTS, 1, 4);
        for _ in 0..10 {
            t.instant(0, ALPHA);
        }
        let r = t.drain();
        assert_eq!(r.events.len(), 4);
        assert_eq!(r.dropped, vec![6]);
        assert_eq!(r.dropped_total(), 6);
    }

    #[test]
    fn unmatched_begin_runs_to_drain_time() {
        let t = RingTracer::new(SPANS, HISTS, 1, 8);
        t.begin(0, ALPHA);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let r = t.drain();
        let totals = r.span_totals();
        assert!(totals[0].total_ns >= 2_000_000);
    }

    #[test]
    fn chrome_trace_round_trips_through_json() {
        let t = RingTracer::new(SPANS, HISTS, 2, 64);
        {
            let _s = span(&t, 0, ALPHA);
            t.instant(1, BETA);
            t.counter(1, GAMMA, 5);
        }
        let r = t.drain();
        let doc = chrome_trace_json(&r);
        let parsed = Json::parse(&doc.to_string()).expect("exporter emits valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        // 2 thread_name metadata + 4 events
        assert_eq!(events.len(), 6);
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
            .collect();
        assert!(phases.contains(&"B") && phases.contains(&"E"));
        assert!(phases.contains(&"i") && phases.contains(&"C"));
        assert_eq!(phases.iter().filter(|&&p| p == "M").count(), 2);
        for e in events {
            assert!(e.get("pid").is_some() && e.get("tid").is_some());
        }
    }

    #[test]
    fn prometheus_text_exposes_all_families() {
        let t = RingTracer::new(SPANS, HISTS, 2, 64);
        {
            let _s = span(&t, 0, ALPHA);
        }
        t.duration_ns(0, VISIT, 1000);
        t.duration_ns(1, VISIT, 3);
        let r = t.drain();
        let text = prometheus_text(&r);
        assert!(text.contains("# TYPE farmer_span_seconds_total counter"));
        assert!(text.contains("farmer_span_seconds_total{span=\"alpha\"}"));
        assert!(text.contains("farmer_span_calls_total{span=\"alpha\"} 1"));
        assert!(text.contains("# TYPE farmer_visit_ns histogram"));
        assert!(text.contains("farmer_visit_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("farmer_visit_ns_sum 1003"));
        assert!(text.contains("farmer_visit_ns_count 2"));
        assert!(text.contains("# TYPE farmer_scan_ns histogram"));
        assert!(text.contains("farmer_trace_dropped_events_total 0"));
        // cumulative bucket counts are monotone
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("farmer_visit_ns_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn counters_and_gauges_merge_as_per_lane_sums() {
        const COUNTERS: &[&str] = &["reqs", "errs_total"];
        const GAUGES: &[&str] = &["inflight"];
        const REQS: CounterId = CounterId(0);
        const ERRS: CounterId = CounterId(1);
        const INFLIGHT: GaugeId = GaugeId(0);
        let t = RingTracer::with_metrics(SPANS, HISTS, COUNTERS, GAUGES, 3, 8);
        // Concurrent recording on distinct lanes, like the server's
        // acceptor (lane 0) and workers (lanes 1..).
        std::thread::scope(|s| {
            for lane in 0..3usize {
                let t = &t;
                s.spawn(move || {
                    for _ in 0..10 {
                        t.add(lane, REQS, 1);
                        t.gauge_add(lane, INFLIGHT, 1);
                    }
                    t.add(lane, ERRS, lane as u64);
                    // lower the gauge on a *different* lane than it was
                    // raised on: only the cross-lane sum is meaningful
                    t.gauge_add((lane + 1) % 3, INFLIGHT, -9);
                });
            }
        });
        let r = t.drain();
        assert_eq!(r.counter_names, vec!["reqs", "errs_total"]);
        assert_eq!(r.gauge_names, vec!["inflight"]);
        // merged == sum of lanes, for both counters and gauges
        for c in 0..COUNTERS.len() {
            let lane_sum: u64 = r.lane_counters.iter().map(|l| l[c]).sum();
            assert_eq!(r.counters[c], lane_sum);
        }
        let lane_sum: i64 = r.lane_gauges.iter().map(|l| l[0]).sum();
        assert_eq!(r.gauges[0], lane_sum);
        assert_eq!(r.counters, vec![30, 1 + 2]);
        assert_eq!(r.gauges, vec![30 - 27]);
        // out-of-range ids are ignored, not panics
        t.add(0, CounterId(99), 1);
        t.gauge_add(7, GaugeId(99), 1);
    }

    #[test]
    fn prometheus_text_renders_counter_and_gauge_families() {
        const COUNTERS: &[&str] = &["reqs", "sheds_total"];
        const GAUGES: &[&str] = &["inflight"];
        let t = RingTracer::with_metrics(SPANS, HISTS, COUNTERS, GAUGES, 2, 8);
        t.add(0, CounterId(0), 3);
        t.add(1, CounterId(0), 4);
        t.add(0, CounterId(1), 2);
        t.gauge_add(0, GaugeId(0), 5);
        t.gauge_add(1, GaugeId(0), -2);
        let text = prometheus_text(&t.drain());
        // counters get the _total suffix (never doubled) + HELP/TYPE
        assert!(text.contains("# TYPE farmer_reqs_total counter"));
        assert!(text.contains("# HELP farmer_reqs_total "));
        assert!(text.contains("\nfarmer_reqs_total 7\n"));
        assert!(text.contains("# TYPE farmer_sheds_total counter"));
        assert!(text.contains("\nfarmer_sheds_total 2\n"));
        assert!(!text.contains("sheds_total_total"));
        // gauges keep their name and net the per-lane deltas
        assert!(text.contains("# TYPE farmer_inflight gauge"));
        assert!(text.contains("\nfarmer_inflight 3\n"));
        // every family declares HELP and TYPE exactly once
        for family in ["farmer_reqs_total", "farmer_sheds_total", "farmer_inflight"] {
            let helps = text.matches(&format!("# HELP {family} ")).count();
            let types = text.matches(&format!("# TYPE {family} ")).count();
            assert_eq!((helps, types), (1, 1), "{family}");
        }
    }

    #[test]
    fn trace_stats_json_reports_spans_hists_drops() {
        let t = RingTracer::new(SPANS, HISTS, 2, 2);
        {
            let _s = span(&t, 0, ALPHA);
        }
        t.instant(0, BETA); // overflows the 2-slot lane
        t.duration_ns(0, VISIT, 10);
        let r = t.drain();
        let doc = trace_stats_json(&r);
        assert_eq!(doc.get("lanes").and_then(|l| l.as_u64()), Some(2));
        assert_eq!(doc.get("dropped_events").and_then(|d| d.as_u64()), Some(1));
        let spans = doc.get("spans").and_then(|s| s.as_array()).unwrap();
        assert_eq!(spans.len(), 1); // only alpha saw events
        assert_eq!(spans[0].get("name").and_then(|n| n.as_str()), Some("alpha"));
        let hists = doc.get("hists").and_then(|h| h.as_array()).unwrap();
        assert_eq!(hists.len(), 2); // every histogram reported, even empty
        assert_eq!(hists[0].get("count").and_then(|c| c.as_u64()), Some(1));
        assert_eq!(hists[0].get("p50_ns").and_then(|p| p.as_u64()), Some(15));
        assert_eq!(hists[1].get("count").and_then(|c| c.as_u64()), Some(0));
        // valid JSON end to end
        Json::parse(&doc.to_string()).unwrap();
    }
}
