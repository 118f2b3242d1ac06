//! FARMER: finding interesting rule groups in microarray datasets.
//!
//! A from-scratch implementation of the SIGMOD 2004 algorithm by Cong,
//! Tung, Xu, Pan and Yang. Given a dataset with *few rows and very many
//! columns* (the microarray shape) and a target class `C`, FARMER
//! enumerates **row combinations** depth-first instead of column
//! combinations, discovering each **rule group** — the equivalence class
//! of association rules `A → C` sharing one antecedent support set — at
//! the unique node whose row set generates it. Each group is reported by
//! its unique *upper bound* (most specific antecedent) and, optionally,
//! its *lower bounds* (most general antecedents, via [`minelb`]).
//!
//! Only **interesting** rule groups (IRGs) are kept: a group is
//! interesting iff every strictly more general rule group has strictly
//! lower confidence. Mining is constrained by minimum support, minimum
//! confidence, and minimum χ² value, all three of which drive search
//! pruning (strategies 1–3 of the paper, see [`PruningConfig`]).
//!
//! # Quick start
//!
//! ```
//! use farmer_core::{Farmer, MiningParams};
//! use farmer_dataset::paper_example;
//!
//! let data = paper_example();
//! let params = MiningParams::new(0 /* target class C */)
//!     .min_sup(1)
//!     .min_conf(0.0);
//! let result = Farmer::new(params).mine(&data);
//! for g in &result.groups {
//!     println!(
//!         "{} -> c0  (sup {}, conf {:.2})",
//!         g.upper.iter().map(|i| data.item_name(i)).collect::<Vec<_>>().join(""),
//!         g.sup,
//!         g.confidence(),
//!     );
//! }
//! ```
//!
//! # Crate layout
//!
//! * [`Farmer`] — the FARMER miner: its bounds, step 7, the parallel
//!   scheduler and MineLB packaging around the row-enumeration search
//!   (crate-private `search`, the one node visit that FARMER, top-k and
//!   CARPENTER share, each supplying its own bounds and emission);
//! * [`cond`] — the conditional transposed table `TT|X`, held as
//!   item-column row bitsets;
//! * [`measures`] — support/confidence/χ² and the convex χ² upper bound
//!   (Lemma 3.9), plus lift/conviction/entropy-gain/gini extensions;
//! * [`minelb`] — the incremental lower-bound algorithm MineLB (§3.4);
//! * [`naive`] — a brute-force oracle used to verify the miner exactly;
//! * [`topk`] — top-k covering rule groups per row (the authors'
//!   follow-up RCBT problem), on the same search;
//! * [`carpenter`] — the predecessor CARPENTER algorithm (closed-pattern
//!   mining by row enumeration, KDD'03), on the same search;
//! * [`cobbler`] — COBBLER, which switches between row and column
//!   enumeration;
//! * [`session`] — budgets, deadlines, cancellation and observers;
//! * [`trace`] — phase spans, counters and latency histograms;
//! * [`Thresholds`], [`generality_order`] and [`keep_interesting`] —
//!   step 7, the definition of an interesting rule group, which FARMER,
//!   the streaming pipeline and the column-enumeration baselines all
//!   apply, with [`GeneralityIndex`] finding the more general groups.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod carpenter;
pub mod cobbler;
pub mod cond;
pub mod measures;
pub mod minelb;
pub mod naive;
pub mod session;
pub mod topk;
pub mod trace;

mod interesting;
mod miner;
mod params;
mod rule;
mod search;

pub use interesting::{generality_order, keep_interesting, GeneralityIndex, Thresholds};
pub use miner::Farmer;
pub use params::{Engine, ExtraConstraint, MiningParams, PruningConfig};
pub use rule::{canonical_sort, dump_groups, MineResult, MineStats, RuleGroup, SchedStats};
pub use session::{
    CountingObserver, Heartbeat, MineControl, MineObserver, Miner, NoOpObserver, PruneReason,
    SharedBudget, StopCause, StopHandle,
};
pub use trace::{NoopTracer, RingTracer, TraceReport, TraceSink};
