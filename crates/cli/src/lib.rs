//! Library half of the `farmer` command-line tool: argument parsing and
//! command execution, separated from `main` so the test suite can drive
//! every command without spawning processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod output;

use std::fmt;

/// A user-facing CLI failure (bad arguments, unreadable file, …).
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<farmer_dataset::io::IoError> for CliError {
    fn from(e: farmer_dataset::io::IoError) -> Self {
        CliError(e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(e.to_string())
    }
}

/// Convenience alias used across the CLI.
pub type Result<T> = std::result::Result<T, CliError>;

/// Top-level dispatch: parses `argv` (without the program name) and runs
/// the selected command, writing human output to `out`.
pub fn run(argv: &[String], out: &mut dyn std::io::Write) -> Result<()> {
    let parsed = args::parse(argv)?;
    commands::execute(parsed, out)
}

/// The usage banner.
pub const USAGE: &str = "\
farmer — interesting rule group mining for wide, short datasets

USAGE: farmer <COMMAND> [OPTIONS]

COMMANDS:
  synth       generate a synthetic microarray expression matrix (CSV)
  discretize  turn an expression CSV into a transaction file
  mine        mine interesting rule groups from a transaction file
  topk        mine the top-k covering rule groups per sample
  closed      mine closed patterns (carpenter | charm | closet)
  classify    train on one transaction/CSV file, evaluate on another
  serve       serve a saved .fgi artifact over HTTP
  query       classify a sample against a saved .fgi artifact
  ingest      append labelled rows to a .fgd journal for a watch daemon
  help        show this message

MINE OPTIONS:
  --in <path>         transaction file (required)
  --algo <name>       farmer | topk | naive | charm | closet | apriori | column-e
  --class <n>         consequent class label          (default 1)
  --min-sup <n>       minimum rule support            (default 1)
  --min-conf <f>      minimum confidence in [0, 1]    (default 0)
  --min-chi <f>       minimum chi-square              (default 0)
  --k <n>             groups per row for --algo topk  (default 3)
  --no-lower-bounds   report upper bounds only
  --timeout-ms <ms>   stop after this long; prints the valid partial result
  --node-budget <n>   stop after n enumeration nodes (same partial semantics)
  --threads <n>       worker threads for --algo farmer (default 1)
  --progress          heartbeat progress lines on stderr
  --stats-json        machine-readable run report (JSON) instead of text
  --json/--html <p>   write the full result to a file
  --trace-out <p>     record phase spans, write a Chrome trace-event JSON
                      (load chrome://tracing or ui.perfetto.dev)
  --metrics-out <p>   write Prometheus text-format metrics for the run
  --limit <n>         print at most n groups (0 = all, default 20)
  --save-irgs <p>     persist the mined rule groups as a .fgi artifact
  --watch             stay running after the mine: watch a row journal
                      and republish the --save-irgs artifact on deltas
  --journal <p>       the .fgd journal to watch (default: artifact path
                      with a .fgd extension)
  --remine-debounce-ms <n>  least gap from one remine's end to the
                      next one's start; rows reaching an idle
                      pipeline are remined at once (default 500)
  --notify-url <h:p>  POST /v1/admin/reload on this server per publish
  --notify-token <t>  bearer token for --notify-url
  --watch-idle-exit-ms <n>  exit the watch after n ms without activity

SERVE OPTIONS (farmer serve <artifact.fgi>):
  --addr <host:port>  bind address (default 127.0.0.1:0 = ephemeral,
                      resolved port printed on startup)
  --workers <n>       worker-pool size (default 4)
  --idle-exit-ms <n>  exit cleanly after n ms without traffic
  --max-inflight <n>  shed connections beyond n in flight with 503 +
                      Retry-After (default 256)
  --admin-token <t>   enable POST /v1/admin/reload and GET /v1/admin/stats
                      with this bearer token
  --log-out <p>       structured JSON access log: a file path, or - for
                      stderr (default: disabled, zero request-path cost)
  --slow-ms <n>       capture requests >= n ms in the /v1/admin/stats
                      slow ring with phase breakdown (default 100; 0 =
                      capture every request)
  --watch             run the ingest->remine->publish pipeline in-process:
                      enables POST /v1/admin/ingest and hot-swaps the
                      artifact after each remine (requires --base)
  --base <p>          transaction file the artifact was mined from
  --journal <p>       the .fgd row journal (default: artifact path with
                      a .fgd extension)
  --remine-debounce-ms <n>  least gap from one remine's end to the
                      next one's start; rows reaching an idle
                      pipeline are remined at once (default 500)
  --min-sup/--min-conf/--min-chi/--class/--no-lower-bounds
                      remine thresholds; match the original mine flags
  endpoints (all under /v1/; any other path answers 404):
    /v1/classify?items=a,b          GET single sample
    /v1/classify                    POST {\"samples\":[[..],..]} batch
    /v1/query?items=a,b[&class=k][&limit=n]
    /v1/healthz  /v1/metrics (Prometheus text)
    /v1/admin/reload                POST, bearer-authenticated hot swap
    /v1/admin/stats                 GET, bearer-authenticated live stats
    /v1/admin/ingest                POST {\"rows\":[{\"items\":[..],\"label\":k}]}
                                    bearer-authenticated, --watch only
  every response carries X-Request-Id; SIGHUP also hot-reloads the
  artifact from disk.

QUERY OPTIONS (farmer query <artifact.fgi>):
  --items <a,b,c>     sample items, by name or numeric id
  --class <k>         only show matching groups of one class
  --limit <n>         print at most n matching groups (default 10)

INGEST OPTIONS (farmer ingest):
  --journal <p>       the .fgd journal to append to (required; created
                      if absent)
  --base <p>          transaction file that defines items/classes
                      (required; rows are validated against it)
  --items <a,b,c>     items of one inline row (names or numeric ids)
  --label <k>         class label of the inline row
  --rows <p>          append many rows: one `<label>: <item> …` line
                      each (transaction-file shape)

`farmer topk` also honors --timeout-ms.

Run `farmer <COMMAND> --help` for the command's options.";
