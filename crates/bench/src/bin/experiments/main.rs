//! `experiments` — regenerates every table and figure of the FARMER
//! paper's evaluation (§4) on the synthetic dataset analogs.
//!
//! ```text
//! experiments <subcommand> [--col-scale S] [--budget N] [--seed N] [--quick]
//!
//! subcommands:
//!   table1     dataset characteristics (Table 1)
//!   fig10      runtime & #IRGs vs minimum support (Figure 10 a–f)
//!   fig11      runtime & #IRGs vs minimum confidence, minchi ∈ {0, 10}
//!              (Figure 11 a–f)
//!   table2     classification accuracy: IRG vs CBA vs SVM (Table 2)
//!   scale      row-replication scalability (§4.1 note)
//!   ablation   pruning-strategy ablation (DESIGN.md A1)
//!   cobbler    COBBLER row/column switching extension (DESIGN.md A3)
//!   all        everything above, in order
//! ```
//!
//! Output is plain text on stdout, one section per paper artefact, in
//! the same row/series structure as the original so the shapes can be
//! compared directly (absolute numbers differ by hardware and by the
//! documented dataset substitution; see DESIGN.md §3).

mod ablation;
mod cobbler_exp;
mod fig10;
mod fig11;
mod scale;
mod table1;
mod table2;

use farmer_bench::workloads::{WorkloadCache, DEFAULT_COL_SCALE};
use std::process::ExitCode;

/// Parsed command line.
pub struct Opts {
    /// Fraction of the paper's column counts to synthesize.
    pub col_scale: f64,
    /// Node budget for the column-enumeration baselines.
    pub budget: u64,
    /// Seed for split randomization (Table 2).
    pub seed: u64,
    /// Mining consequent for the efficiency experiments (the paper notes
    /// "using the other consequent consistently yields qualitatively
    /// similar results"; default 1 = Table 1's class 1).
    pub target_class: u32,
    /// Shrink grids for a fast smoke run.
    pub quick: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            col_scale: DEFAULT_COL_SCALE,
            budget: 50_000_000,
            seed: 1,
            target_class: 1,
            quick: false,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("usage: experiments <table1|fig10|fig11|table2|scale|ablation|all> [options]");
        return ExitCode::FAILURE;
    };

    let mut opts = Opts::default();
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .clone()
        };
        match a.as_str() {
            "--col-scale" => opts.col_scale = val("--col-scale").parse().expect("numeric scale"),
            "--budget" => opts.budget = val("--budget").parse().expect("numeric budget"),
            "--seed" => opts.seed = val("--seed").parse().expect("numeric seed"),
            "--target-class" => {
                opts.target_class = val("--target-class").parse().expect("numeric class")
            }
            "--quick" => opts.quick = true,
            other => {
                eprintln!("unknown option: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let cache = WorkloadCache::new(opts.col_scale);
    match cmd.as_str() {
        "table1" => table1::run(&opts),
        "fig10" => fig10::run(&opts, &cache),
        "fig11" => fig11::run(&opts, &cache),
        "table2" => table2::run(&opts),
        "scale" => scale::run(&opts, &cache),
        "ablation" => ablation::run(&opts, &cache),
        "cobbler" => cobbler_exp::run(&opts, &cache),
        "all" => {
            table1::run(&opts);
            fig10::run(&opts, &cache);
            fig11::run(&opts, &cache);
            table2::run(&opts);
            scale::run(&opts, &cache);
            ablation::run(&opts, &cache);
            cobbler_exp::run(&opts, &cache);
        }
        other => {
            eprintln!("unknown subcommand: {other}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
