//! Ablation A1 of DESIGN.md: the contribution of each pruning strategy.
//! (A2, the paper's §3.3 pointer lists against item-column bitsets, was
//! measured before the pointer-list engine was deleted; EXPERIMENTS.md
//! keeps its numbers.)
//!
//! All configurations return identical IRGs (asserted); only the work
//! differs.

use crate::Opts;
use farmer_bench::report::Table;
use farmer_bench::trajectory::TrajectoryObserver;
use farmer_bench::workloads::WorkloadCache;
use farmer_bench::{fmt_ms, time};
use farmer_core::{Farmer, MineControl, MiningParams, PruningConfig};
use farmer_dataset::synth::PaperDataset;

pub fn run(opts: &Opts, cache: &WorkloadCache) {
    let p = PaperDataset::ColonTumor;
    let d = cache.efficiency(p);
    let params = MiningParams::new(1)
        .min_sup(4)
        .min_conf(0.8)
        .lower_bounds(false);
    println!(
        "== Ablation: pruning strategies on the {} analog (minsup 4, minconf 0.8) ==\n",
        p.code()
    );

    let configs: Vec<(&str, PruningConfig)> = vec![
        ("all strategies", PruningConfig::all()),
        (
            "no strategy 1 (compression)",
            PruningConfig {
                strategy1_compression: false,
                ..PruningConfig::all()
            },
        ),
        (
            "no strategy 2 (duplicate)",
            PruningConfig {
                strategy2_duplicate: false,
                ..PruningConfig::all()
            },
        ),
        (
            "no loose bounds",
            PruningConfig {
                strategy3_loose: false,
                ..PruningConfig::all()
            },
        ),
        (
            "no tight bounds",
            PruningConfig {
                strategy3_tight: false,
                ..PruningConfig::all()
            },
        ),
        (
            "no strategy 3 at all",
            PruningConfig {
                strategy3_loose: false,
                strategy3_tight: false,
                ..PruningConfig::all()
            },
        ),
    ];

    let mut t = Table::new(&["configuration", "runtime", "nodes", "#IRGs"]);
    let mut reference: Option<usize> = None;
    for (name, cfg) in configs {
        let (res, dt) = time(|| Farmer::new(params.clone()).with_pruning(cfg).mine(&d));
        match reference {
            None => reference = Some(res.len()),
            Some(n) => assert_eq!(n, res.len(), "pruning changed the result set!"),
        }
        t.row_owned(vec![
            name.to_string(),
            fmt_ms(dt),
            res.stats.nodes_visited.to_string(),
            res.len().to_string(),
        ]);
    }
    println!("{}", t.render());

    // When in the search does each strategy earn its keep? Sample the
    // running prune counters on a heartbeat cadence and print the curve.
    println!("== Prune-counter trajectory (all strategies, heartbeat every 512 nodes) ==\n");
    let ctl = MineControl::new().with_heartbeat_every(512);
    let mut obs = TrajectoryObserver::default();
    let res = Farmer::new(params).mine_session(&d, &ctl, &mut obs);
    let samples = obs.finish(&res.stats);
    // one column per prune reason, driven by the exhaustive list
    let headers: Vec<&str> = ["nodes", "groups"]
        .into_iter()
        .chain(farmer_core::PruneReason::ALL.iter().map(|r| r.stats_key()))
        .collect();
    let mut t = Table::new(&headers);
    for s in &samples {
        let mut row = vec![s.nodes.to_string(), s.groups.to_string()];
        row.extend(
            farmer_core::PruneReason::ALL
                .iter()
                .map(|&r| s.pruned_count(r).to_string()),
        );
        t.row_owned(row);
    }
    println!("{}", t.render());
    let _ = opts;
}
