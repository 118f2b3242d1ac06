//! Hand-rolled argument parsing — small enough that a dependency would
//! cost more than it saves.

use crate::{CliError, Result};
use std::collections::HashMap;
use std::path::PathBuf;

/// A parsed command line: the subcommand and its options.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `farmer synth`
    Synth(SynthArgs),
    /// `farmer discretize`
    Discretize(DiscretizeArgs),
    /// `farmer mine`
    Mine(MineArgs),
    /// `farmer topk`
    TopK(TopKArgs),
    /// `farmer closed`
    Closed(ClosedArgs),
    /// `farmer classify`
    Classify(ClassifyArgs),
    /// `farmer serve`
    Serve(ServeArgs),
    /// `farmer query`
    Query(QueryArgs),
    /// `farmer ingest`
    Ingest(IngestArgs),
    /// `farmer help` / `--help`
    Help,
}

/// Options of `farmer synth`.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthArgs {
    /// Preset code (`BC`/`LC`/`CT`/`PC`/`ALL`) or `custom`.
    pub preset: String,
    /// Column scale for presets.
    pub col_scale: f64,
    /// Rows for `custom`.
    pub rows: usize,
    /// Genes for `custom`.
    pub genes: usize,
    /// RNG seed.
    pub seed: u64,
    /// Output CSV path.
    pub out: PathBuf,
}

/// Options of `farmer discretize`.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscretizeArgs {
    /// Input expression CSV.
    pub input: PathBuf,
    /// `equal-depth:<n>`, `equal-width:<n>`, or `entropy`.
    pub method: String,
    /// Output transaction file.
    pub out: PathBuf,
}

/// Options of `farmer mine`.
#[derive(Debug, Clone, PartialEq)]
pub struct MineArgs {
    /// Input transaction file.
    pub input: PathBuf,
    /// Mining engine: `farmer`, `topk`, `naive`, `charm`, `closet`,
    /// `apriori`, or `column-e`. All answer the same question.
    pub algo: String,
    /// Consequent class label.
    pub class: u32,
    /// Minimum rule support.
    pub min_sup: usize,
    /// Minimum confidence in `[0, 1]`.
    pub min_conf: f64,
    /// Minimum χ².
    pub min_chi: f64,
    /// Skip lower bounds.
    pub no_lower_bounds: bool,
    /// Groups per row for `--algo topk`.
    pub k: usize,
    /// Wall-clock limit in milliseconds; a timed-out run returns the
    /// valid partial result found so far.
    pub timeout_ms: Option<u64>,
    /// Cap on enumeration nodes (same partial-result semantics).
    pub node_budget: Option<u64>,
    /// Worker threads for `--algo farmer` (1 = sequential).
    pub threads: usize,
    /// Print heartbeat progress lines to stderr while mining.
    pub progress: bool,
    /// Print a machine-readable run report (JSON) to stdout.
    pub stats_json: bool,
    /// Optional JSON output path.
    pub json: Option<PathBuf>,
    /// Optional HTML report path.
    pub html: Option<PathBuf>,
    /// Optional Chrome trace-event JSON output path; setting it (or
    /// `metrics_out`) turns instrumented mining on for the run.
    pub trace_out: Option<PathBuf>,
    /// Optional Prometheus text-format metrics output path.
    pub metrics_out: Option<PathBuf>,
    /// Print at most this many groups (0 = all).
    pub limit: usize,
    /// Optional `.fgi` artifact output: persist the mined groups (in
    /// canonical order) for `farmer serve` / `farmer query`.
    pub save_irgs: Option<PathBuf>,
    /// Keep running after the initial mine: watch a row journal and
    /// republish the `--save-irgs` artifact on every delta.
    pub watch: bool,
    /// The `.fgd` row journal to watch (default: the artifact path
    /// with a `.fgd` extension).
    pub journal: Option<PathBuf>,
    /// Quiet window after the last journal growth before a remine
    /// starts.
    pub remine_debounce_ms: u64,
    /// `host:port` of a running server to `POST /v1/admin/reload`
    /// after each publish.
    pub notify_url: Option<String>,
    /// Bearer token for `--notify-url`.
    pub notify_token: Option<String>,
    /// Exit the watch loop after this many milliseconds without
    /// pipeline activity (absent = watch until killed).
    pub watch_idle_exit_ms: Option<u64>,
}

/// Options of `farmer serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// The `.fgi` artifact to serve (positional: `farmer serve x.fgi`).
    pub artifact: PathBuf,
    /// Bind address (port 0 = ephemeral, printed on startup).
    pub addr: String,
    /// Worker-pool size.
    pub workers: usize,
    /// Exit cleanly after this many milliseconds without traffic
    /// (absent = serve until killed).
    pub idle_exit_ms: Option<u64>,
    /// Accepted-but-unanswered connection bound; connections beyond it
    /// are shed with `503` + `Retry-After`.
    pub max_inflight: usize,
    /// Bearer token enabling `POST /v1/admin/reload` and
    /// `GET /v1/admin/stats` (absent = endpoints disabled; SIGHUP
    /// reloads still work).
    pub admin_token: Option<String>,
    /// Structured access-log target: absent = disabled, `-` = stderr,
    /// anything else = a file path.
    pub log_out: Option<String>,
    /// Slow-request capture threshold in milliseconds (0 = capture
    /// every request).
    pub slow_ms: u64,
    /// Run the ingest→remine→publish pipeline in-process: enables
    /// `POST /v1/admin/ingest` and hot-swaps the artifact after each
    /// remine. Requires `--base`.
    pub watch: bool,
    /// Base transaction file the artifact was mined from (required
    /// with `--watch`; journaled rows append to it).
    pub base: Option<PathBuf>,
    /// The `.fgd` row journal (default: the artifact path with a
    /// `.fgd` extension).
    pub journal: Option<PathBuf>,
    /// Quiet window after the last journal growth before a remine
    /// starts.
    pub remine_debounce_ms: u64,
    /// Remine thresholds for `--watch` — match the flags the artifact
    /// was mined with.
    pub min_sup: usize,
    /// Minimum confidence for `--watch` remines.
    pub min_conf: f64,
    /// Minimum χ² for `--watch` remines.
    pub min_chi: f64,
    /// Restrict `--watch` remines to one class (absent = every class).
    pub class: Option<u32>,
    /// Skip lower bounds in `--watch` remines.
    pub no_lower_bounds: bool,
}

/// Options of `farmer query`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryArgs {
    /// The `.fgi` artifact to query (positional: `farmer query x.fgi`).
    pub artifact: PathBuf,
    /// Comma-separated sample items (names or numeric ids).
    pub items: String,
    /// Restrict matches to one class label.
    pub class: Option<u32>,
    /// Print at most this many matching groups (0 = all).
    pub limit: usize,
}

/// Options of `farmer ingest`.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestArgs {
    /// The `.fgd` row journal to append to (created if absent).
    pub journal: PathBuf,
    /// Base transaction file — validates row items/labels and pins
    /// the journal's dataset fingerprint.
    pub base: PathBuf,
    /// Comma-separated items of one inline row (names or numeric ids).
    pub items: Option<String>,
    /// Class label of the inline row.
    pub label: Option<u32>,
    /// A file of rows to append, one `<label> <item> <item>…` line
    /// each (same shape as a transaction file).
    pub rows: Option<PathBuf>,
}

/// Options of `farmer topk`.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKArgs {
    /// Input transaction file.
    pub input: PathBuf,
    /// Consequent class label.
    pub class: u32,
    /// Groups per row.
    pub k: usize,
    /// Minimum rule support.
    pub min_sup: usize,
    /// Wall-clock limit in milliseconds.
    pub timeout_ms: Option<u64>,
}

/// Options of `farmer closed`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedArgs {
    /// Input transaction file.
    pub input: PathBuf,
    /// `carpenter`, `charm`, or `closet`.
    pub algo: String,
    /// Minimum pattern support.
    pub min_sup: usize,
    /// Print at most this many patterns (0 = all).
    pub limit: usize,
}

/// Options of `farmer classify`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifyArgs {
    /// Training expression CSV.
    pub train: PathBuf,
    /// Test expression CSV.
    pub test: PathBuf,
    /// `irg`, `cba`, or `svm`.
    pub method: String,
}

/// Parses `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<Command> {
    let Some(cmd) = argv.first() else {
        return Ok(Command::Help);
    };
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Command::Help);
    }
    let Some(known) = known_flags(cmd) else {
        return Err(CliError(format!(
            "unknown command '{cmd}'; try `farmer help`"
        )));
    };
    // serve/query take the artifact as a positional argument
    // (`farmer serve x.fgi`); --artifact also works.
    let mut rest = &argv[1..];
    let mut positional = None;
    if matches!(cmd.as_str(), "serve" | "query") {
        if let Some(first) = rest.first().filter(|a| !a.starts_with("--")) {
            positional = Some(PathBuf::from(first));
            rest = &rest[1..];
        }
    }
    let opts = options(cmd, known, rest)?;
    match cmd.as_str() {
        "help" => Ok(Command::Help),
        "synth" => Ok(Command::Synth(SynthArgs {
            preset: get_or(&opts, "preset", "CT"),
            col_scale: num(&opts, "col-scale", 0.05)?,
            rows: num(&opts, "rows", 60)?,
            genes: num(&opts, "genes", 1000)?,
            seed: num(&opts, "seed", 1)?,
            out: path_required(&opts, "out")?,
        })),
        "discretize" => Ok(Command::Discretize(DiscretizeArgs {
            input: path_required(&opts, "in")?,
            method: get_or(&opts, "method", "equal-depth:10"),
            out: path_required(&opts, "out")?,
        })),
        "mine" => Ok(Command::Mine(MineArgs {
            input: path_required(&opts, "in")?,
            algo: get_or(&opts, "algo", "farmer"),
            class: num(&opts, "class", 1)?,
            min_sup: num(&opts, "min-sup", 1)?,
            min_conf: num(&opts, "min-conf", 0.0)?,
            min_chi: num(&opts, "min-chi", 0.0)?,
            no_lower_bounds: flag(&opts, "no-lower-bounds"),
            k: count(&opts, "k", 3)?,
            timeout_ms: opt_num(&opts, "timeout-ms")?,
            node_budget: opt_num(&opts, "node-budget")?,
            threads: num(&opts, "threads", 1)?,
            progress: flag(&opts, "progress"),
            stats_json: flag(&opts, "stats-json"),
            json: opts.get("json").and_then(|v| v.clone().map(PathBuf::from)),
            html: opts.get("html").and_then(|v| v.clone().map(PathBuf::from)),
            trace_out: opts
                .get("trace-out")
                .and_then(|v| v.clone().map(PathBuf::from)),
            metrics_out: opts
                .get("metrics-out")
                .and_then(|v| v.clone().map(PathBuf::from)),
            limit: num(&opts, "limit", 20)?,
            save_irgs: opts
                .get("save-irgs")
                .and_then(|v| v.clone().map(PathBuf::from)),
            watch: {
                let watch = flag(&opts, "watch");
                if watch && !opts.contains_key("save-irgs") {
                    return Err(CliError(
                        "--watch requires --save-irgs <path> (the artifact to republish)".into(),
                    ));
                }
                watch
            },
            journal: opts
                .get("journal")
                .and_then(|v| v.clone().map(PathBuf::from)),
            remine_debounce_ms: num(&opts, "remine-debounce-ms", 500)?,
            notify_url: opts.get("notify-url").and_then(|v| v.clone()),
            notify_token: opts.get("notify-token").and_then(|v| v.clone()),
            watch_idle_exit_ms: opt_num(&opts, "watch-idle-exit-ms")?,
        })),
        "topk" => Ok(Command::TopK(TopKArgs {
            input: path_required(&opts, "in")?,
            class: num(&opts, "class", 1)?,
            k: count(&opts, "k", 3)?,
            min_sup: num(&opts, "min-sup", 1)?,
            timeout_ms: opt_num(&opts, "timeout-ms")?,
        })),
        "closed" => Ok(Command::Closed(ClosedArgs {
            input: path_required(&opts, "in")?,
            algo: get_or(&opts, "algo", "carpenter"),
            min_sup: num(&opts, "min-sup", 2)?,
            limit: num(&opts, "limit", 20)?,
        })),
        "classify" => Ok(Command::Classify(ClassifyArgs {
            train: path_required(&opts, "train")?,
            test: path_required(&opts, "test")?,
            method: get_or(&opts, "method", "irg"),
        })),
        "serve" => Ok(Command::Serve(ServeArgs {
            artifact: artifact_path(positional, &opts)?,
            addr: get_or(&opts, "addr", "127.0.0.1:0"),
            workers: num(&opts, "workers", 4)?,
            idle_exit_ms: opt_num(&opts, "idle-exit-ms")?,
            max_inflight: num(&opts, "max-inflight", 256)?,
            admin_token: opts.get("admin-token").and_then(|v| v.clone()),
            log_out: opts.get("log-out").and_then(|v| v.clone()),
            slow_ms: num(&opts, "slow-ms", 100)?,
            watch: {
                let watch = flag(&opts, "watch");
                if watch && !opts.contains_key("base") {
                    return Err(CliError(
                        "--watch requires --base <transactions> (the dataset to remine)".into(),
                    ));
                }
                watch
            },
            base: opts.get("base").and_then(|v| v.clone().map(PathBuf::from)),
            journal: opts
                .get("journal")
                .and_then(|v| v.clone().map(PathBuf::from)),
            remine_debounce_ms: num(&opts, "remine-debounce-ms", 500)?,
            min_sup: num(&opts, "min-sup", 1)?,
            min_conf: num(&opts, "min-conf", 0.0)?,
            min_chi: num(&opts, "min-chi", 0.0)?,
            class: opt_num(&opts, "class")?,
            no_lower_bounds: flag(&opts, "no-lower-bounds"),
        })),
        "ingest" => {
            let a = IngestArgs {
                journal: path_required(&opts, "journal")?,
                base: path_required(&opts, "base")?,
                items: opts.get("items").and_then(|v| v.clone()),
                label: opt_num(&opts, "label")?,
                rows: opts.get("rows").and_then(|v| v.clone().map(PathBuf::from)),
            };
            if a.rows.is_none() && a.label.is_none() {
                return Err(CliError(
                    "ingest needs rows: --rows <file>, or --label <class> with --items".into(),
                ));
            }
            if a.items.is_some() && a.label.is_none() {
                return Err(CliError("--items needs --label <class>".into()));
            }
            Ok(Command::Ingest(a))
        }
        "query" => Ok(Command::Query(QueryArgs {
            artifact: artifact_path(positional, &opts)?,
            items: get_or(&opts, "items", ""),
            class: opt_num(&opts, "class")?,
            limit: num(&opts, "limit", 10)?,
        })),
        _ => unreachable!("known_flags lists every command"),
    }
}

/// The flags each subcommand reads, or `None` for an unknown command.
/// [`options`] rejects every other flag, so a typo (`--min-supp`) or a
/// retired flag fails loudly instead of silently keeping a default.
fn known_flags(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "help" => &[],
        "synth" => &["preset", "col-scale", "rows", "genes", "seed", "out"],
        "discretize" => &["in", "method", "out"],
        "mine" => &[
            "in",
            "algo",
            "class",
            "min-sup",
            "min-conf",
            "min-chi",
            "no-lower-bounds",
            "k",
            "timeout-ms",
            "node-budget",
            "threads",
            "progress",
            "stats-json",
            "json",
            "html",
            "trace-out",
            "metrics-out",
            "limit",
            "save-irgs",
            "watch",
            "journal",
            "remine-debounce-ms",
            "notify-url",
            "notify-token",
            "watch-idle-exit-ms",
        ],
        "topk" => &["in", "class", "k", "min-sup", "timeout-ms"],
        "closed" => &["in", "algo", "min-sup", "limit"],
        "classify" => &["train", "test", "method"],
        "serve" => &[
            "artifact",
            "addr",
            "workers",
            "idle-exit-ms",
            "max-inflight",
            "admin-token",
            "log-out",
            "slow-ms",
            "watch",
            "base",
            "journal",
            "remine-debounce-ms",
            "min-sup",
            "min-conf",
            "min-chi",
            "class",
            "no-lower-bounds",
        ],
        "ingest" => &["journal", "base", "items", "label", "rows"],
        "query" => &["artifact", "items", "class", "limit"],
        _ => return None,
    })
}

/// `--key value` and bare `--flag` pairs into a map, rejecting any flag
/// `cmd` does not know (with a did-you-mean hint for near misses).
fn options(cmd: &str, known: &[&str], args: &[String]) -> Result<HashMap<String, Option<String>>> {
    let mut map = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(CliError(format!("unexpected argument '{a}'")));
        };
        if !known.contains(&key) {
            let hint = known
                .iter()
                .map(|k| (edit_distance(key, k), *k))
                .filter(|&(d, _)| d <= 2)
                .min()
                .map(|(_, k)| format!(" (did you mean --{k}?)"))
                .unwrap_or_default();
            return Err(CliError(format!(
                "unknown flag --{key} for `farmer {cmd}`{hint}; try `farmer help`"
            )));
        }
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => Some(it.next().expect("peeked").clone()),
            _ => None,
        };
        map.insert(key.to_string(), value);
    }
    Ok(map)
}

/// Levenshtein distance between two flag names.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    // prev[j] = distance between the prefix of `a` seen so far and b[..j]
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut row = vec![i + 1; b.len() + 1];
        for (j, &cb) in b.iter().enumerate() {
            row[j + 1] = (prev[j] + usize::from(ca != cb))
                .min(prev[j + 1] + 1)
                .min(row[j] + 1);
        }
        prev = row;
    }
    prev[b.len()]
}

fn get_or(opts: &HashMap<String, Option<String>>, key: &str, default: &str) -> String {
    opts.get(key)
        .and_then(|v| v.clone())
        .unwrap_or_else(|| default.to_string())
}

fn flag(opts: &HashMap<String, Option<String>>, key: &str) -> bool {
    opts.contains_key(key)
}

fn num<T: std::str::FromStr>(
    opts: &HashMap<String, Option<String>>,
    key: &str,
    default: T,
) -> Result<T> {
    match opts.get(key) {
        None => Ok(default),
        Some(Some(v)) => v
            .parse()
            .map_err(|_| CliError(format!("--{key}: cannot parse '{v}'"))),
        Some(None) => Err(CliError(format!("--{key} needs a value"))),
    }
}

/// Like [`num`] for a count that must be at least 1.
fn count(opts: &HashMap<String, Option<String>>, key: &str, default: usize) -> Result<usize> {
    match num(opts, key, default)? {
        0 => Err(CliError(format!("--{key} must be at least 1"))),
        v => Ok(v),
    }
}

/// Like [`num`] but with no default: absent means `None`.
fn opt_num<T: std::str::FromStr>(
    opts: &HashMap<String, Option<String>>,
    key: &str,
) -> Result<Option<T>> {
    match opts.get(key) {
        None => Ok(None),
        Some(Some(v)) => v
            .parse()
            .map(Some)
            .map_err(|_| CliError(format!("--{key}: cannot parse '{v}'"))),
        Some(None) => Err(CliError(format!("--{key} needs a value"))),
    }
}

/// The artifact path of `serve`/`query`: the positional argument when
/// given, else `--artifact <path>`.
fn artifact_path(
    positional: Option<PathBuf>,
    opts: &HashMap<String, Option<String>>,
) -> Result<PathBuf> {
    match positional {
        Some(p) => Ok(p),
        None => path_required(opts, "artifact").map_err(|_| {
            CliError("an artifact path is required (e.g. `farmer serve groups.fgi`)".into())
        }),
    }
}

fn path_required(opts: &HashMap<String, Option<String>>, key: &str) -> Result<PathBuf> {
    match opts.get(key) {
        Some(Some(v)) => Ok(PathBuf::from(v)),
        _ => Err(CliError(format!("--{key} <path> is required"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&sv(&["mine", "--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn parses_mine() {
        let c = parse(&sv(&[
            "mine",
            "--in",
            "d.txt",
            "--class",
            "0",
            "--min-sup",
            "4",
            "--min-conf",
            "0.9",
            "--no-lower-bounds",
        ]))
        .unwrap();
        match c {
            Command::Mine(m) => {
                assert_eq!(m.input, PathBuf::from("d.txt"));
                assert_eq!(m.algo, "farmer");
                assert_eq!(m.class, 0);
                assert_eq!(m.min_sup, 4);
                assert!((m.min_conf - 0.9).abs() < 1e-12);
                assert!(m.no_lower_bounds);
                assert_eq!(m.timeout_ms, None);
                assert_eq!(m.node_budget, None);
                assert_eq!(m.threads, 1);
                assert!(!m.progress);
                assert!(!m.stats_json);
                assert_eq!(m.json, None);
                assert_eq!(m.html, None);
                assert_eq!(m.trace_out, None);
                assert_eq!(m.metrics_out, None);
                assert_eq!(m.limit, 20);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_session_options() {
        let c = parse(&sv(&[
            "mine",
            "--in",
            "d.txt",
            "--algo",
            "charm",
            "--timeout-ms",
            "250",
            "--node-budget",
            "10000",
            "--threads",
            "4",
            "--progress",
            "--stats-json",
            "--trace-out",
            "t.json",
            "--metrics-out",
            "m.prom",
        ]))
        .unwrap();
        match c {
            Command::Mine(m) => {
                assert_eq!(m.algo, "charm");
                assert_eq!(m.timeout_ms, Some(250));
                assert_eq!(m.node_budget, Some(10000));
                assert_eq!(m.threads, 4);
                assert!(m.progress);
                assert!(m.stats_json);
                assert_eq!(m.trace_out, Some(PathBuf::from("t.json")));
                assert_eq!(m.metrics_out, Some(PathBuf::from("m.prom")));
            }
            other => panic!("{other:?}"),
        }
        let err = parse(&sv(&["mine", "--in", "d.txt", "--timeout-ms", "soon"])).unwrap_err();
        assert!(err.to_string().contains("timeout-ms"), "{err}");
    }

    #[test]
    fn missing_required_path_errors() {
        let err = parse(&sv(&["mine", "--class", "1"])).unwrap_err();
        assert!(err.to_string().contains("--in"), "{err}");
    }

    #[test]
    fn bad_number_errors() {
        let err = parse(&sv(&["mine", "--in", "x", "--min-sup", "abc"])).unwrap_err();
        assert!(err.to_string().contains("min-sup"), "{err}");
    }

    #[test]
    fn parses_save_irgs() {
        let c = parse(&sv(&["mine", "--in", "d.txt", "--save-irgs", "g.fgi"])).unwrap();
        match c {
            Command::Mine(m) => assert_eq!(m.save_irgs, Some(PathBuf::from("g.fgi"))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_serve_positional_and_flagged() {
        let c = parse(&sv(&["serve", "g.fgi", "--workers", "8"])).unwrap();
        match c {
            Command::Serve(s) => {
                assert_eq!(s.artifact, PathBuf::from("g.fgi"));
                assert_eq!(s.addr, "127.0.0.1:0");
                assert_eq!(s.workers, 8);
                assert_eq!(s.idle_exit_ms, None);
                assert_eq!(s.max_inflight, 256);
                assert_eq!(s.admin_token, None);
                assert_eq!(s.log_out, None);
                assert_eq!(s.slow_ms, 100);
            }
            other => panic!("{other:?}"),
        }
        let c = parse(&sv(&[
            "serve",
            "g.fgi",
            "--max-inflight",
            "32",
            "--admin-token",
            "sekrit",
            "--log-out",
            "-",
            "--slow-ms",
            "5",
        ]))
        .unwrap();
        match c {
            Command::Serve(s) => {
                assert_eq!(s.max_inflight, 32);
                assert_eq!(s.admin_token, Some("sekrit".to_string()));
                assert_eq!(s.log_out, Some("-".to_string()));
                assert_eq!(s.slow_ms, 5);
            }
            other => panic!("{other:?}"),
        }
        let c = parse(&sv(&[
            "serve",
            "--artifact",
            "g.fgi",
            "--addr",
            "0.0.0.0:8080",
            "--idle-exit-ms",
            "500",
        ]))
        .unwrap();
        match c {
            Command::Serve(s) => {
                assert_eq!(s.artifact, PathBuf::from("g.fgi"));
                assert_eq!(s.addr, "0.0.0.0:8080");
                assert_eq!(s.idle_exit_ms, Some(500));
            }
            other => panic!("{other:?}"),
        }
        let err = parse(&sv(&["serve"])).unwrap_err();
        assert!(err.to_string().contains("artifact"), "{err}");
    }

    #[test]
    fn parses_mine_watch() {
        let c = parse(&sv(&[
            "mine",
            "--in",
            "d.txt",
            "--save-irgs",
            "g.fgi",
            "--watch",
            "--journal",
            "rows.fgd",
            "--remine-debounce-ms",
            "50",
            "--notify-url",
            "127.0.0.1:8080",
            "--notify-token",
            "sekrit",
            "--watch-idle-exit-ms",
            "2000",
        ]))
        .unwrap();
        match c {
            Command::Mine(m) => {
                assert!(m.watch);
                assert_eq!(m.journal, Some(PathBuf::from("rows.fgd")));
                assert_eq!(m.remine_debounce_ms, 50);
                assert_eq!(m.notify_url, Some("127.0.0.1:8080".to_string()));
                assert_eq!(m.notify_token, Some("sekrit".to_string()));
                assert_eq!(m.watch_idle_exit_ms, Some(2000));
            }
            other => panic!("{other:?}"),
        }
        // --watch without an artifact to republish is an error.
        let err = parse(&sv(&["mine", "--in", "d.txt", "--watch"])).unwrap_err();
        assert!(err.to_string().contains("--save-irgs"), "{err}");
    }

    #[test]
    fn parses_serve_watch() {
        let c = parse(&sv(&[
            "serve",
            "g.fgi",
            "--watch",
            "--base",
            "d.txt",
            "--journal",
            "rows.fgd",
            "--remine-debounce-ms",
            "75",
            "--min-sup",
            "3",
            "--min-conf",
            "0.8",
            "--class",
            "1",
            "--no-lower-bounds",
        ]))
        .unwrap();
        match c {
            Command::Serve(s) => {
                assert!(s.watch);
                assert_eq!(s.base, Some(PathBuf::from("d.txt")));
                assert_eq!(s.journal, Some(PathBuf::from("rows.fgd")));
                assert_eq!(s.remine_debounce_ms, 75);
                assert_eq!(s.min_sup, 3);
                assert!((s.min_conf - 0.8).abs() < 1e-12);
                assert_eq!(s.class, Some(1));
                assert!(s.no_lower_bounds);
            }
            other => panic!("{other:?}"),
        }
        let plain = parse(&sv(&["serve", "g.fgi"])).unwrap();
        match plain {
            Command::Serve(s) => {
                assert!(!s.watch);
                assert_eq!(s.base, None);
                assert_eq!(s.remine_debounce_ms, 500);
            }
            other => panic!("{other:?}"),
        }
        let err = parse(&sv(&["serve", "g.fgi", "--watch"])).unwrap_err();
        assert!(err.to_string().contains("--base"), "{err}");
    }

    #[test]
    fn parses_ingest() {
        let c = parse(&sv(&[
            "ingest",
            "--journal",
            "rows.fgd",
            "--base",
            "d.txt",
            "--items",
            "g1,g2",
            "--label",
            "1",
        ]))
        .unwrap();
        match c {
            Command::Ingest(a) => {
                assert_eq!(a.journal, PathBuf::from("rows.fgd"));
                assert_eq!(a.base, PathBuf::from("d.txt"));
                assert_eq!(a.items, Some("g1,g2".to_string()));
                assert_eq!(a.label, Some(1));
                assert_eq!(a.rows, None);
            }
            other => panic!("{other:?}"),
        }
        let c = parse(&sv(&[
            "ingest",
            "--journal",
            "rows.fgd",
            "--base",
            "d.txt",
            "--rows",
            "new.txt",
        ]))
        .unwrap();
        match c {
            Command::Ingest(a) => assert_eq!(a.rows, Some(PathBuf::from("new.txt"))),
            other => panic!("{other:?}"),
        }
        // No rows at all, and items without a label, are errors.
        let err = parse(&sv(&["ingest", "--journal", "r.fgd", "--base", "d.txt"])).unwrap_err();
        assert!(err.to_string().contains("--rows"), "{err}");
        let err = parse(&sv(&[
            "ingest",
            "--journal",
            "r.fgd",
            "--base",
            "d.txt",
            "--items",
            "g1",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--label"), "{err}");
    }

    #[test]
    fn parses_query() {
        let c = parse(&sv(&[
            "query", "g.fgi", "--items", "i0,i1", "--class", "1", "--limit", "5",
        ]))
        .unwrap();
        match c {
            Command::Query(q) => {
                assert_eq!(q.artifact, PathBuf::from("g.fgi"));
                assert_eq!(q.items, "i0,i1");
                assert_eq!(q.class, Some(1));
                assert_eq!(q.limit, 5);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_flags_are_rejected_per_subcommand() {
        // a retired flag: named, with no hint (nothing in `mine` is close)
        let err = parse(&sv(&["mine", "--in", "d.txt", "--memo-capacity", "4096"])).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("--memo-capacity"), "{msg}");
        assert!(msg.contains("farmer mine"), "{msg}");
        assert!(!msg.contains("did you mean"), "{msg}");
        // a typo: named, with the closest real flag suggested
        let err = parse(&sv(&["mine", "--in", "d.txt", "--min-supp", "3"])).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("--min-supp"), "{msg}");
        assert!(msg.contains("did you mean --min-sup?"), "{msg}");
        // the unknown flag is reported even when a required one is missing
        let err = parse(&sv(&["mine", "--min-supp", "3"])).unwrap_err();
        assert!(err.to_string().contains("--min-supp"), "{err}");
        // the retired `.fgi` version switch: every artifact is written
        // in the current version
        let err = parse(&sv(&[
            "mine",
            "--in",
            "d.txt",
            "--save-irgs",
            "g.fgi",
            "--fgi-version",
            "1",
        ]))
        .unwrap_err();
        assert!(
            err.to_string().contains("unknown flag --fgi-version"),
            "{err}"
        );
        // known flags are per subcommand: `--threads` is a `mine` flag only
        let err = parse(&sv(&["topk", "--in", "d.txt", "--threads", "2"])).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("--threads") && msg.contains("farmer topk"),
            "{msg}"
        );
        let err = parse(&sv(&["serve", "g.fgi", "--node-budget", "5"])).unwrap_err();
        assert!(err.to_string().contains("farmer serve"), "{err}");
    }

    #[test]
    fn edit_distance_counts_single_char_edits() {
        assert_eq!(edit_distance("min-sup", "min-sup"), 0);
        assert_eq!(edit_distance("min-supp", "min-sup"), 1);
        assert_eq!(edit_distance("mni-sup", "min-sup"), 2);
        assert_eq!(edit_distance("", "k"), 1);
        assert_eq!(edit_distance("threads", ""), 7);
    }

    #[test]
    fn unknown_command_errors() {
        let err = parse(&sv(&["explode"])).unwrap_err();
        assert!(err.to_string().contains("unknown command"), "{err}");
    }

    #[test]
    fn defaults_applied() {
        let c = parse(&sv(&["closed", "--in", "d.txt"])).unwrap();
        match c {
            Command::Closed(a) => {
                assert_eq!(a.algo, "carpenter");
                assert_eq!(a.min_sup, 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zero_k_is_rejected() {
        for cmd in [
            &["topk", "--in", "d.txt", "--k", "0"][..],
            &["mine", "--in", "d.txt", "--algo", "topk", "--k", "0"],
        ] {
            let err = parse(&sv(cmd)).unwrap_err().to_string();
            assert!(err.contains("--k must be at least 1"), "{cmd:?}: {err}");
            let mut ok = cmd.to_vec();
            *ok.last_mut().unwrap() = "2";
            match parse(&sv(&ok)).unwrap() {
                Command::TopK(a) => assert_eq!(a.k, 2),
                Command::Mine(a) => assert_eq!(a.k, 2),
                other => panic!("{other:?}"),
            }
        }
    }
}
