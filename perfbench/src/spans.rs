//! In-memory spans recorded around calls into each layer, their
//! Chrome-trace export, and the per-layer self-time split.
//!
//! A span's name is `<layer>.<what>`; its layer is the part before the
//! first dot. Spans of one operation share an `op` id, and `parent`
//! indexes the span that caused it. Spans live in memory until the run
//! ends.

use crate::stats::Dist;
use farmer_support::json::{Json, ObjBuilder};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub op: u64,
    pub parent: Option<usize>,
    pub lane: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }

    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// A span log sharing one clock origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    /// Records a finished span and returns its index (for children).
    pub fn push(
        &mut self,
        name: impl Into<String>,
        op: u64,
        parent: Option<usize>,
        lane: usize,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            op,
            parent,
            lane,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON: one complete (`X`) event per span, one
    /// track per lane.
    pub fn chrome_json(&self, lane_names: &[(usize, &str)]) -> Json {
        let mut events: Vec<Json> = lane_names
            .iter()
            .map(|&(lane, name)| {
                ObjBuilder::new()
                    .field("name", "thread_name")
                    .field("ph", "M")
                    .field("pid", 1usize)
                    .field("tid", lane)
                    .field("args", ObjBuilder::new().field("name", name).build())
                    .build()
            })
            .collect();
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = ObjBuilder::new().field("op", s.op).field("id", i);
            if let Some(p) = s.parent {
                args = args.field("parent", p);
            }
            events.push(
                ObjBuilder::new()
                    .field("name", s.name.as_str())
                    .field("cat", s.layer())
                    .field("ph", "X")
                    .field("pid", 1usize)
                    .field("tid", s.lane)
                    .field("ts", s.start_ns as f64 / 1e3)
                    .field("dur", (s.end_ns - s.start_ns) as f64 / 1e3)
                    .field("args", args.build())
                    .build(),
            );
        }
        ObjBuilder::new()
            .field("traceEvents", Json::Arr(events))
            .field("displayTimeUnit", "ms")
            .build()
    }

    /// Splits every operation rooted at a span named `root` along its
    /// blocking path: each instant of the root's interval goes to the
    /// deepest span of the operation covering it (the first recorded,
    /// when concurrent spans tie), so per operation the self-times add
    /// up to the root's duration exactly. Self-times are keyed by span
    /// name, whose prefix names the layer.
    pub fn split(&self, root: &str) -> SelfTimes {
        let mut by_op: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            by_op.entry(s.op).or_default().push(i);
        }
        let mut split = SelfTimes::default();
        for (ri, r) in self.spans.iter().enumerate() {
            if r.name != root {
                continue;
            }
            let members: Vec<(usize, usize)> = by_op[&r.op]
                .iter()
                .filter_map(|&i| self.depth_below(i, ri).map(|d| (i, d)))
                .collect();
            let mut cuts: Vec<u64> = members
                .iter()
                .flat_map(|&(i, _)| [self.spans[i].start_ns, self.spans[i].end_ns])
                .map(|t| t.clamp(r.start_ns, r.end_ns))
                .collect();
            cuts.sort_unstable();
            cuts.dedup();
            let mut self_ms: BTreeMap<String, f64> = BTreeMap::new();
            for w in cuts.windows(2) {
                let (a, b) = (w[0], w[1]);
                let owner = members
                    .iter()
                    .filter(|&&(i, _)| self.spans[i].start_ns <= a && self.spans[i].end_ns >= b)
                    .max_by_key(|&&(i, d)| (d, std::cmp::Reverse(i)))
                    .map_or(ri, |&(i, _)| i);
                *self_ms.entry(self.spans[owner].name.clone()).or_default() += (b - a) as f64 / 1e6;
            }
            split.totals_ms.push(r.ms());
            split.per_op.push(self_ms);
        }
        split
    }

    /// How many parent links lead from span `i` up to span `root`, or
    /// `None` when `root` is not an ancestor (or `i` itself).
    fn depth_below(&self, mut i: usize, root: usize) -> Option<usize> {
        let mut depth = 0;
        loop {
            if i == root {
                return Some(depth);
            }
            i = self.spans[i].parent?;
            depth += 1;
        }
    }
}

/// Per-operation self-times along the blocking path of one root kind,
/// keyed by span name.
#[derive(Default)]
pub struct SelfTimes {
    pub totals_ms: Vec<f64>,
    pub per_op: Vec<BTreeMap<String, f64>>,
}

impl SelfTimes {
    /// Every span name that took time in some operation.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.per_op.iter().flat_map(|m| m.keys().cloned()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// Median self-time of span `name` over the operations (0 where an
    /// operation never entered it).
    pub fn median_ms(&self, name: &str) -> f64 {
        Dist::new(
            self.per_op
                .iter()
                .map(|m| m.get(name).copied().unwrap_or(0.0))
                .collect(),
        )
        .median()
    }

    pub fn total_median_ms(&self) -> f64 {
        Dist::new(self.totals_ms.clone()).median()
    }

    /// |Σ per-span median self-times − end-to-end median| as a
    /// percentage of the end-to-end median: how far the table is from
    /// adding up.
    pub fn gap_pct(&self) -> f64 {
        let total = self.total_median_ms();
        if total <= 0.0 {
            return 0.0;
        }
        let sum: f64 = self.names().iter().map(|n| self.median_ms(n)).sum();
        100.0 * (sum - total).abs() / total
    }

    /// The self-time table as JSON: median per span name and its share.
    pub fn table_json(&self) -> Json {
        let total = self.total_median_ms();
        let mut spans = ObjBuilder::new();
        for name in self.names() {
            let ms = self.median_ms(&name);
            spans = spans.field(
                &name,
                ObjBuilder::new()
                    .field("self_ms_p50", ms)
                    .field(
                        "share_pct",
                        if total > 0.0 { 100.0 * ms / total } else { 0.0 },
                    )
                    .build(),
            );
        }
        ObjBuilder::new()
            .field("ops", self.totals_ms.len())
            .field("end_to_end_ms_p50", total)
            .field("spans", spans.build())
            .field("gap_pct", self.gap_pct())
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_gives_each_instant_to_the_deepest_span() {
        let mut r = Recorder::new();
        let root = r.push("miner.mine", 1, None, 0, 0, 10_000_000);
        r.push("dataset.transpose", 1, Some(root), 0, 0, 1_000_000);
        // two concurrent worker spans count once
        r.push("miner.enumerate", 1, Some(root), 1, 2_000_000, 8_000_000);
        r.push("miner.enumerate", 1, Some(root), 2, 2_000_000, 7_000_000);
        r.push(
            "minelb.lower_bounds",
            1,
            Some(root),
            0,
            8_000_000,
            10_000_000,
        );
        let s = r.split("miner.mine");
        assert_eq!(s.totals_ms, vec![10.0]);
        let m = &s.per_op[0];
        assert_eq!(m["dataset.transpose"], 1.0);
        assert_eq!(m["miner.mine"], 1.0);
        assert_eq!(m["miner.enumerate"], 6.0);
        assert_eq!(m["minelb.lower_bounds"], 2.0);
        assert_eq!(s.gap_pct(), 0.0);
    }
}
