//! Command execution.

use crate::args::*;
use crate::output::{render_html, stats_json, GroupJson, MineJson};
use crate::{CliError, Result, USAGE};
use farmer_baselines::{AprioriMiner, CharmMiner, ClosetMiner, ColumnEMiner};
use farmer_classify::eval::accuracy;
use farmer_classify::pipeline::DiscretizedSplit;
use farmer_classify::{CbaClassifier, IrgClassifier, SvmClassifier, SvmConfig};
use farmer_core::naive::NaiveMiner;
use farmer_core::topk::{mine_top_k_session, TopKMiner};
use farmer_core::trace::{self, chrome_trace_json, prometheus_text, RingTracer, TraceReport};
use farmer_core::{
    Farmer, Heartbeat, MineControl, MineObserver, Miner, MiningParams, NoOpObserver,
};
use farmer_dataset::discretize::Discretizer;
use farmer_dataset::synth::{PaperDataset, SynthConfig};
use farmer_dataset::{check_row, io as dio, Dataset};
use farmer_pipeline::{Notify, Pipeline, PipelineConfig};
use farmer_serve::{ArtifactHandle, IngestHook, ServeConfig, ShardedIndex};
use farmer_store::{dataset_fingerprint, save_artifact, Artifact, ArtifactMeta, JournalWriter};
use rowset::IdList;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs one parsed command, writing human-readable output to `out`.
pub fn execute(cmd: Command, out: &mut dyn Write) -> Result<()> {
    match cmd {
        Command::Help => writeln!(out, "{USAGE}").map_err(Into::into),
        Command::Synth(a) => synth(a, out),
        Command::Discretize(a) => discretize(a, out),
        Command::Mine(a) => mine(a, out),
        Command::TopK(a) => topk(a, out),
        Command::Closed(a) => closed(a, out),
        Command::Classify(a) => classify(a, out),
        Command::Serve(a) => serve(a, out),
        Command::Query(a) => query(a, out),
        Command::Ingest(a) => ingest(a, out),
    }
}

fn synth(a: SynthArgs, out: &mut dyn Write) -> Result<()> {
    let matrix = match a.preset.as_str() {
        "custom" => SynthConfig {
            n_rows: a.rows,
            n_genes: a.genes,
            n_class1: a.rows / 2,
            n_signature: (a.genes / 3).max(4),
            clusters_per_class: 3,
            cluster_spread: 1.8,
            cluster_noise: 0.35,
            seed: a.seed,
            ..SynthConfig::default()
        }
        .generate(),
        code => {
            let preset = PaperDataset::all()
                .into_iter()
                .find(|p| p.code() == code)
                .ok_or_else(|| {
                    CliError(format!(
                        "unknown preset '{code}' (BC, LC, CT, PC, ALL, custom)"
                    ))
                })?;
            let mut cfg = preset.synth_config(a.col_scale);
            cfg.seed = a.seed;
            cfg.generate()
        }
    };
    dio::save_matrix_csv(&matrix, &a.out)?;
    writeln!(
        out,
        "wrote {} samples x {} genes to {}",
        matrix.n_rows(),
        matrix.n_genes(),
        a.out.display()
    )?;
    Ok(())
}

fn parse_discretizer(method: &str) -> Result<Discretizer> {
    if method == "entropy" {
        return Ok(Discretizer::EntropyMdl);
    }
    if let Some(n) = method.strip_prefix("equal-depth:") {
        let buckets = n
            .parse()
            .map_err(|_| CliError(format!("bad bucket count '{n}'")))?;
        return Ok(Discretizer::EqualDepth { buckets });
    }
    if let Some(n) = method.strip_prefix("equal-width:") {
        let buckets = n
            .parse()
            .map_err(|_| CliError(format!("bad bucket count '{n}'")))?;
        return Ok(Discretizer::EqualWidth { buckets });
    }
    if method == "chi-merge" {
        return Ok(Discretizer::ChiMerge {
            threshold: 4.61,
            max_intervals: 6,
        });
    }
    if let Some(t) = method.strip_prefix("chi-merge:") {
        let threshold = t
            .parse()
            .map_err(|_| CliError(format!("bad chi threshold '{t}'")))?;
        return Ok(Discretizer::ChiMerge {
            threshold,
            max_intervals: 6,
        });
    }
    Err(CliError(format!(
        "unknown method '{method}' (entropy, equal-depth:<n>, equal-width:<n>, chi-merge[:<chi>])"
    )))
}

/// Loads an expression matrix, picking the parser from the extension
/// (`.arff` -> ARFF, anything else -> the CSV format).
fn load_matrix(path: &std::path::Path) -> Result<farmer_dataset::ExpressionMatrix> {
    let is_arff = path
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("arff"));
    let m = if is_arff {
        farmer_dataset::arff::load_arff(path)?
    } else {
        dio::load_matrix_csv(path)?
    };
    // missing values break the discretizers and the SVM; impute here so
    // every downstream command sees a dense matrix
    Ok(if m.has_missing() {
        m.impute_gene_means()
    } else {
        m
    })
}

fn discretize(a: DiscretizeArgs, out: &mut dyn Write) -> Result<()> {
    let matrix = load_matrix(&a.input)?;
    let data = parse_discretizer(&a.method)?.discretize(&matrix);
    dio::save_transactions(&data, &a.out)?;
    writeln!(
        out,
        "discretized {} rows into {} items ({}), wrote {}",
        data.n_rows(),
        data.n_items(),
        a.method,
        a.out.display()
    )?;
    Ok(())
}

fn load_and_check_class(path: &std::path::Path, class: u32) -> Result<Dataset> {
    let data = dio::load_transactions(path)?;
    if class as usize >= data.n_classes() {
        return Err(CliError(format!(
            "class {class} out of range (dataset has {} classes)",
            data.n_classes()
        )));
    }
    Ok(data)
}

/// Progress reporter for `--progress`: one stderr line per heartbeat,
/// without touching the primary output stream.
struct ProgressObserver {
    started: Instant,
}

impl MineObserver for ProgressObserver {
    fn heartbeat(&mut self, hb: &Heartbeat) {
        eprintln!(
            "[{:7.1}s] {} nodes, {} groups",
            self.started.elapsed().as_secs_f64(),
            hb.nodes_visited,
            hb.groups_found,
        );
        let _ = hb.elapsed;
    }
}

/// Resolves `--algo` to a boxed [`Miner`]; every choice answers the
/// same interesting-rule-group question.
fn miner_for(a: &MineArgs, params: &MiningParams, data: &Dataset) -> Result<Box<dyn Miner>> {
    Ok(match a.algo.as_str() {
        "farmer" => Box::new(Farmer::new(params.clone()).with_parallelism(a.threads)),
        "topk" => Box::new(TopKMiner {
            class: params.target_class,
            k: a.k,
            min_sup: params.min_sup,
        }),
        "naive" => {
            if data.n_rows() > 20 {
                return Err(CliError(format!(
                    "--algo naive enumerates all 2^rows row sets; {} rows is too many (max 20)",
                    data.n_rows()
                )));
            }
            Box::new(NaiveMiner {
                params: params.clone(),
            })
        }
        "charm" => Box::new(CharmMiner {
            params: params.clone(),
        }),
        "closet" => Box::new(ClosetMiner {
            params: params.clone(),
        }),
        "apriori" => Box::new(AprioriMiner {
            params: params.clone(),
        }),
        "column-e" => Box::new(ColumnEMiner {
            params: params.clone(),
        }),
        other => {
            return Err(CliError(format!(
            "unknown algorithm '{other}' (farmer, topk, naive, charm, closet, apriori, column-e)"
        )))
        }
    })
}

/// Builds the run control from the session flags.
fn control_from(timeout_ms: Option<u64>, node_budget: Option<u64>, progress: bool) -> MineControl {
    let mut ctl = MineControl::new().with_node_budget(node_budget);
    if let Some(ms) = timeout_ms {
        ctl = ctl.with_timeout(Duration::from_millis(ms));
    }
    if progress {
        ctl = ctl.with_heartbeat_every(8192);
    }
    ctl
}

/// Writes the two trace export files from a drained [`TraceReport`].
fn write_trace_exports(a: &MineArgs, report: &TraceReport) -> Result<()> {
    if let Some(path) = &a.trace_out {
        std::fs::write(path, chrome_trace_json(report).to_string())
            .map_err(|e| CliError(format!("trace write failed: {e}")))?;
    }
    if let Some(path) = &a.metrics_out {
        std::fs::write(path, prometheus_text(report))
            .map_err(|e| CliError(format!("metrics write failed: {e}")))?;
    }
    Ok(())
}

fn mine(a: MineArgs, out: &mut dyn Write) -> Result<()> {
    // either export flag turns the instrumented mining path on; without
    // them the miners run the statically-dispatched no-op tracer
    let tracer: Option<RingTracer> =
        (a.trace_out.is_some() || a.metrics_out.is_some()).then(|| trace::mining_tracer(a.threads));
    let data = {
        let _load = tracer
            .as_ref()
            .map(|t| trace::span(t, trace::LANE_MAIN, trace::SPAN_LOAD));
        load_and_check_class(&a.input, a.class)?
    };
    let params = MiningParams {
        min_sup: a.min_sup,
        min_conf: a.min_conf,
        min_chi: a.min_chi,
        lower_bounds: !a.no_lower_bounds,
        ..MiningParams::new(a.class)
    };
    params.validate().map_err(CliError)?;
    let miner = miner_for(&a, &params, &data)?;
    let ctl = control_from(a.timeout_ms, a.node_budget, a.progress);
    let started = Instant::now();
    let mut progress = ProgressObserver { started };
    let mut noop = NoOpObserver;
    let obs: &mut dyn MineObserver = if a.progress { &mut progress } else { &mut noop };
    let result = match &tracer {
        Some(t) => miner.mine_traced(&data, &ctl, obs, t),
        None => miner.mine_with(&data, &ctl, obs),
    };
    let elapsed_ms = started.elapsed().as_millis() as u64;
    let report = tracer.as_ref().map(RingTracer::drain);
    if let Some(report) = &report {
        write_trace_exports(&a, report)?;
    }
    if a.stats_json {
        // machine-readable mode: stdout is exactly one JSON document
        writeln!(
            out,
            "{}",
            stats_json(
                miner.name(),
                &result.stats,
                &result.sched,
                result.len(),
                elapsed_ms,
                report.as_ref(),
            )
            .pretty()
        )?;
    } else {
        writeln!(
            out,
            "{} interesting rule groups ({} nodes visited) on {} rows x {} items",
            result.len(),
            result.stats.nodes_visited,
            data.n_rows(),
            data.n_items()
        )?;
        if !result.stats.stop.is_complete() {
            writeln!(
                out,
                "search stopped early ({}); the groups above are a valid partial answer",
                result.stats.stop.as_str()
            )?;
        }
        let limit = if a.limit == 0 { usize::MAX } else { a.limit };
        for g in result.ranked().into_iter().take(limit) {
            writeln!(out, "  {}", g.display(&data))?;
        }
    }
    if a.json.is_some() || a.html.is_some() {
        let payload = MineJson {
            n_rows: data.n_rows(),
            n_items: data.n_items(),
            n_groups: result.len(),
            nodes_visited: result.stats.nodes_visited,
            groups: result
                .ranked()
                .into_iter()
                .map(|g| GroupJson::from_group(g, &data))
                .collect(),
        };
        if let Some(json_path) = &a.json {
            std::fs::write(json_path, payload.to_json().pretty())
                .map_err(|e| CliError(format!("json write failed: {e}")))?;
            writeln!(out, "wrote JSON to {}", json_path.display())?;
        }
        if let Some(html_path) = &a.html {
            let title = format!("FARMER report — {}", a.input.display());
            std::fs::write(html_path, render_html(&title, &payload))?;
            writeln!(out, "wrote HTML report to {}", html_path.display())?;
        }
    }
    if !a.stats_json {
        // (suppressed in --stats-json mode, where stdout is one document)
        if let Some(p) = &a.trace_out {
            writeln!(out, "wrote Chrome trace to {}", p.display())?;
        }
        if let Some(p) = &a.metrics_out {
            writeln!(out, "wrote Prometheus metrics to {}", p.display())?;
        }
    }
    if let Some(path) = &a.save_irgs {
        // canonical order makes the artifact bytes independent of
        // worker scheduling
        let mut groups = result.groups;
        farmer_core::canonical_sort(&mut groups);
        let meta = ArtifactMeta::from_dataset(&data);
        let checksum = save_artifact(path, &meta, &groups)
            .map_err(|e| CliError(format!("saving {}: {e}", path.display())))?;
        if !a.stats_json {
            writeln!(
                out,
                "wrote {} rule groups to {} (format v{}, checksum {checksum:#018x})",
                groups.len(),
                path.display(),
                farmer_store::VERSION
            )?;
        }
    }
    if a.watch {
        mine_watch(&a, &params, data, out)?;
    }
    Ok(())
}

/// The `mine --watch` tail: keep the just-saved artifact fresh by
/// remining journal deltas until the journal goes quiet (or forever).
fn mine_watch(
    a: &MineArgs,
    params: &MiningParams,
    data: Dataset,
    out: &mut dyn Write,
) -> Result<()> {
    let artifact = a
        .save_irgs
        .clone()
        .expect("--watch requires --save-irgs (validated at parse)");
    let journal = a
        .journal
        .clone()
        .unwrap_or_else(|| artifact.with_extension("fgd"));
    let mut cfg = PipelineConfig::new(&journal, &artifact);
    cfg.params = params.clone();
    cfg.classes = Some(vec![a.class]);
    cfg.threads = a.threads;
    cfg.debounce_ms = a.remine_debounce_ms;
    cfg.notify = match &a.notify_url {
        Some(addr) => Notify::Remote {
            addr: addr.clone(),
            token: a.notify_token.clone(),
        },
        None => Notify::None,
    };
    let pipeline = Pipeline::start(data, cfg).map_err(CliError)?;
    let hook = pipeline.handle();
    writeln!(
        out,
        "watching {} for new rows (republishing {})",
        journal.display(),
        artifact.display()
    )?;
    out.flush()?;
    match a.watch_idle_exit_ms {
        Some(ms) => {
            let idle = Duration::from_millis(ms);
            let mut last = hook.activity();
            let mut last_change = Instant::now();
            loop {
                std::thread::sleep(Duration::from_millis(25.min(ms.max(1))));
                let now = hook.activity();
                if now != last {
                    last = now;
                    last_change = Instant::now();
                } else if last_change.elapsed() >= idle {
                    break;
                }
            }
            writeln!(
                out,
                "journal idle for {ms} ms after {} publish(es); exiting watch",
                hook.generation()
            )?;
        }
        None => loop {
            std::thread::sleep(Duration::from_millis(100));
        },
    }
    Ok(())
}

/// Starts the `serve --watch` pipeline: journal-fed remines that
/// republish the served artifact. Runs before the artifact is loaded
/// so the initial publish can create a missing artifact from the base.
fn start_serve_pipeline(a: &ServeArgs) -> Result<Pipeline> {
    let base_path = a
        .base
        .as_ref()
        .expect("--watch requires --base (validated at parse)");
    let base = dio::load_transactions(base_path)?;
    if let Some(c) = a.class {
        if c as usize >= base.n_classes() {
            return Err(CliError(format!(
                "class {c} out of range (dataset has {} classes)",
                base.n_classes()
            )));
        }
    }
    let params = MiningParams {
        min_sup: a.min_sup,
        min_conf: a.min_conf,
        min_chi: a.min_chi,
        lower_bounds: !a.no_lower_bounds,
        ..MiningParams::new(a.class.unwrap_or(0))
    };
    params.validate().map_err(CliError)?;
    let journal = a
        .journal
        .clone()
        .unwrap_or_else(|| a.artifact.with_extension("fgd"));
    let mut cfg = PipelineConfig::new(&journal, &a.artifact);
    cfg.params = params;
    cfg.classes = a.class.map(|c| vec![c]);
    cfg.debounce_ms = a.remine_debounce_ms;
    Pipeline::start(base, cfg).map_err(CliError)
}

fn serve(a: ServeArgs, out: &mut dyn Write) -> Result<()> {
    let mut pipeline = if a.watch {
        Some(start_serve_pipeline(&a)?)
    } else {
        None
    };
    let hook = pipeline.as_ref().map(|p| p.handle());
    let artifact_handle = Arc::new(
        ArtifactHandle::load(&a.artifact, farmer_classify::IRG_FINGERPRINT_THETA, 0)
            .map_err(CliError)?,
    );
    // Future publishes hot-swap the index we are about to serve from.
    if let Some(h) = &hook {
        h.set_notify(Notify::InProcess(Arc::clone(&artifact_handle)));
    }
    let config = ServeConfig {
        addr: a.addr.clone(),
        workers: a.workers,
        max_inflight: a.max_inflight,
        admin_token: a.admin_token.clone(),
        log_out: a.log_out.clone(),
        slow_ms: a.slow_ms,
        ingest: hook.clone().map(|h| h as Arc<dyn IngestHook>),
    };
    let handle = farmer_serve::start(Arc::clone(&artifact_handle), &config)
        .map_err(|e| CliError(format!("cannot bind {}: {e}", a.addr)))?;
    let index = artifact_handle.current();
    // scripts scrape this line for the resolved ephemeral port
    writeln!(
        out,
        "serving {} rule groups ({} items, {} classes) at http://{}",
        index.groups().len(),
        index.meta().n_items(),
        index.meta().n_classes(),
        handle.addr()
    )?;
    out.flush()?;
    drop(index);
    farmer_support::swap::notify_on_sighup();
    // SIGHUP hot-reloads the artifact from disk, exactly like the
    // authenticated POST /v1/admin/reload endpoint.
    let poll_sighup = |out: &mut dyn Write| -> Result<()> {
        if farmer_support::swap::take_sighup() {
            match artifact_handle.reload() {
                Ok(idx) => writeln!(
                    out,
                    "SIGHUP: reloaded {} ({} rule groups)",
                    a.artifact.display(),
                    idx.groups().len()
                )?,
                Err(e) => writeln!(out, "SIGHUP: reload failed, serving old artifact: {e}")?,
            }
            out.flush()?;
        }
        Ok(())
    };
    // Pipeline work (ingested rows, remines, publishes) counts as
    // traffic too — a server that is busy folding in new rows is not
    // idle, even if nobody is querying it yet.
    let pipeline_activity = || hook.as_ref().map_or(0, |h| h.activity());
    match a.idle_exit_ms {
        Some(ms) => {
            // poll the served-request and pipeline-activity counters; a
            // quiet stretch of `ms` milliseconds on both triggers a
            // graceful drain and a clean exit
            let idle = Duration::from_millis(ms);
            let mut last = (handle.requests_served(), pipeline_activity());
            let mut last_activity = Instant::now();
            loop {
                std::thread::sleep(Duration::from_millis(25.min(ms.max(1))));
                poll_sighup(out)?;
                let now = (handle.requests_served(), pipeline_activity());
                if now != last {
                    last = now;
                    last_activity = Instant::now();
                } else if last_activity.elapsed() >= idle {
                    break;
                }
            }
            handle.shutdown();
            if let Some(p) = pipeline.as_mut() {
                p.shutdown();
            }
            writeln!(
                out,
                "idle for {ms} ms after {} requests; shut down cleanly",
                last.0
            )?;
        }
        None => loop {
            std::thread::sleep(Duration::from_millis(100));
            poll_sighup(out)?;
        },
    }
    Ok(())
}

/// Resolves one row's item tokens (dictionary names or numeric ids)
/// against the base dataset into a sorted, deduped id list.
fn resolve_items<'a, I: IntoIterator<Item = &'a str>>(base: &Dataset, tokens: I) -> Result<IdList> {
    let mut ids: Vec<u32> = Vec::new();
    for t in tokens {
        let id = match base.item_by_name(t) {
            Some(id) => id,
            None => {
                let id: u32 = t.parse().map_err(|_| {
                    CliError(format!(
                        "item '{t}' is neither a dataset item name nor a numeric id"
                    ))
                })?;
                if id as usize >= base.n_items() {
                    return Err(CliError(format!(
                        "item id {id} out of range (dataset has {} items)",
                        base.n_items()
                    )));
                }
                id
            }
        };
        ids.push(id);
    }
    ids.sort_unstable();
    ids.dedup();
    Ok(IdList::from_sorted(ids))
}

fn ingest(a: IngestArgs, out: &mut dyn Write) -> Result<()> {
    let base = dio::load_transactions(&a.base)?;
    let mut rows: Vec<(IdList, u32)> = Vec::new();
    if let Some(path) = &a.rows {
        // same line shape as a transaction file: `<label>: <item> …`
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError(format!("{}: {e}", path.display())))?;
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (label_s, items_s) = line.split_once(':').ok_or_else(|| {
                CliError(format!(
                    "{}:{}: missing ':' separator",
                    path.display(),
                    i + 1
                ))
            })?;
            let label: u32 = label_s.trim().parse().map_err(|_| {
                CliError(format!(
                    "{}:{}: bad label '{}'",
                    path.display(),
                    i + 1,
                    label_s.trim()
                ))
            })?;
            rows.push((resolve_items(&base, items_s.split_whitespace())?, label));
        }
    }
    if let Some(label) = a.label {
        let spec = a.items.as_deref().unwrap_or("");
        let tokens = spec.split(',').map(str::trim).filter(|t| !t.is_empty());
        rows.push((resolve_items(&base, tokens)?, label));
    }
    for (k, (items, label)) in rows.iter().enumerate() {
        check_row(items.as_slice(), *label, base.n_items(), base.n_classes())
            .map_err(|e| CliError(format!("row {k}: {e}")))?;
    }
    // Validated: journal the batch. The fingerprint ties the journal to
    // this base dataset, so a daemon watching it can trust the rows.
    let jpath = a.journal.display().to_string();
    let (mut w, _) = JournalWriter::open_append(&a.journal, dataset_fingerprint(&base))
        .map_err(|e| CliError(format!("{jpath}: {e}")))?;
    for (items, label) in &rows {
        w.append(items, *label)
            .map_err(|e| CliError(format!("{jpath}: {e}")))?;
    }
    w.sync().map_err(|e| CliError(format!("{jpath}: {e}")))?;
    writeln!(out, "appended {} row(s) to {jpath}", rows.len())?;
    Ok(())
}

fn query(a: QueryArgs, out: &mut dyn Write) -> Result<()> {
    let path = &a.artifact;
    let artifact =
        Artifact::load(path).map_err(|e| CliError(format!("{}: {e}", path.display())))?;
    // the index `serve` answers from
    let index = ShardedIndex::from_artifact(artifact);
    let meta = index.meta();
    if let Some(c) = a.class {
        if c as usize >= meta.n_classes() {
            return Err(CliError(format!(
                "class {c} out of range (artifact has {} classes)",
                meta.n_classes()
            )));
        }
    }
    let tokens = a.items.split(',').map(str::trim).filter(|t| !t.is_empty());
    let (sample, unknown) = index.parse_sample(tokens);
    for u in &unknown {
        writeln!(out, "note: item '{u}' is not in the artifact's dictionary")?;
    }
    let p = index.classify(&sample);
    match p.group {
        Some(gi) => {
            let g = &index.groups()[gi as usize];
            writeln!(
                out,
                "classified as {} (group {gi}: sup {}, conf {:.2})",
                meta.class_names[p.class as usize],
                g.sup,
                g.confidence()
            )?;
        }
        None => writeln!(
            out,
            "classified as {} (no covering group; majority-class fallback)",
            meta.class_names[p.class as usize]
        )?,
    }
    let mut matched = index.matches(&sample);
    if let Some(c) = a.class {
        matched.retain(|&gi| index.groups()[gi as usize].class == c);
    }
    writeln!(out, "{} matching rule groups", matched.len())?;
    let limit = if a.limit == 0 { usize::MAX } else { a.limit };
    for &gi in matched.iter().take(limit) {
        let g = &index.groups()[gi as usize];
        let names: Vec<&str> = g
            .upper
            .iter()
            .map(|i| meta.item_names[i as usize].as_str())
            .collect();
        writeln!(
            out,
            "  [{}] {{{}}} sup {} conf {:.2} chi2 {:.2}",
            meta.class_names[g.class as usize],
            names.join(","),
            g.sup,
            g.confidence(),
            g.chi_square()
        )?;
    }
    Ok(())
}

fn topk(a: TopKArgs, out: &mut dyn Write) -> Result<()> {
    let data = load_and_check_class(&a.input, a.class)?;
    let ctl = control_from(a.timeout_ms, None, false);
    let result = mine_top_k_session(&data, a.class, a.k, a.min_sup, &ctl, &mut NoOpObserver);
    writeln!(
        out,
        "top-{} covering rule groups per row ({} nodes visited)",
        a.k, result.stats.nodes_visited
    )?;
    if !result.stats.stop.is_complete() {
        writeln!(
            out,
            "search stopped early ({}); coverage below may be incomplete",
            result.stats.stop.as_str()
        )?;
    }
    for (r, groups) in result.per_row.iter().enumerate() {
        write!(out, "row {r} [{}]:", data.class_name(data.label(r as u32)))?;
        if groups.is_empty() {
            writeln!(out, " (no covering group)")?;
            continue;
        }
        for g in groups {
            write!(
                out,
                " ({} items, sup {}, conf {:.2})",
                g.upper.len(),
                g.sup,
                g.confidence()
            )?;
        }
        writeln!(out)?;
    }
    Ok(())
}

fn closed(a: ClosedArgs, out: &mut dyn Write) -> Result<()> {
    let data = dio::load_transactions(&a.input)?;
    let limit = if a.limit == 0 { usize::MAX } else { a.limit };
    let patterns: Vec<(rowset::IdList, usize)> = match a.algo.as_str() {
        "carpenter" => farmer_core::carpenter::carpenter(&data, a.min_sup)
            .patterns
            .into_iter()
            .map(|p| {
                let sup = p.support();
                (p.items, sup)
            })
            .collect(),
        "charm" => farmer_baselines::charm::charm(&data, a.min_sup)
            .closed
            .into_iter()
            .map(|c| {
                let sup = c.support();
                (c.items, sup)
            })
            .collect(),
        "closet" => farmer_baselines::closet::closet(&data, a.min_sup)
            .closed
            .into_iter()
            .map(|c| (c.items, c.support))
            .collect(),
        other => {
            return Err(CliError(format!(
                "unknown algorithm '{other}' (carpenter, charm, closet)"
            )))
        }
    };
    writeln!(
        out,
        "{} closed patterns with support >= {}",
        patterns.len(),
        a.min_sup
    )?;
    let mut sorted = patterns;
    sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (items, sup) in sorted.into_iter().take(limit) {
        let names: Vec<&str> = items.iter().map(|i| data.item_name(i)).collect();
        writeln!(out, "  [{sup}] {{{}}}", names.join(","))?;
    }
    Ok(())
}

fn classify(a: ClassifyArgs, out: &mut dyn Write) -> Result<()> {
    let train_m = load_matrix(&a.train)?;
    let test_m = load_matrix(&a.test)?;
    let acc = match a.method.as_str() {
        "svm" => {
            let svm = SvmClassifier::train(&train_m, &SvmConfig::default());
            svm.score(&test_m)
        }
        "irg" | "cba" => {
            let split = DiscretizedSplit::fit(&train_m, &test_m, &Discretizer::EntropyMdl);
            let clf = if a.method == "irg" {
                IrgClassifier::train(&split.train, 0.7, 0.8)
            } else {
                CbaClassifier::train(&split.train, 0.7, 0.8)
            };
            accuracy(split.test.labels(), &clf.predict_dataset(&split.test))
        }
        other => {
            return Err(CliError(format!(
                "unknown method '{other}' (irg, cba, svm)"
            )));
        }
    };
    writeln!(
        out,
        "{} accuracy on {} test samples: {:.2}%",
        a.method,
        test_m.n_rows(),
        acc * 100.0
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("farmer-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn run_ok(args: &[&str]) -> String {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        crate::run(&argv, &mut out).unwrap_or_else(|e| panic!("{args:?}: {e}"));
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn synth_discretize_mine_pipeline() {
        let csv = tmp("p.csv");
        let txt = tmp("p.txt");
        let json = tmp("p.json");
        let s = run_ok(&[
            "synth",
            "--preset",
            "custom",
            "--rows",
            "24",
            "--genes",
            "60",
            "--out",
            csv.to_str().unwrap(),
        ]);
        assert!(s.contains("24 samples x 60 genes"), "{s}");
        let s = run_ok(&[
            "discretize",
            "--in",
            csv.to_str().unwrap(),
            "--method",
            "equal-depth:4",
            "--out",
            txt.to_str().unwrap(),
        ]);
        assert!(s.contains("24 rows"), "{s}");
        let s = run_ok(&[
            "mine",
            "--in",
            txt.to_str().unwrap(),
            "--class",
            "1",
            "--min-sup",
            "3",
            "--min-conf",
            "0.8",
            "--json",
            json.to_str().unwrap(),
        ]);
        assert!(s.contains("interesting rule groups"), "{s}");
        let payload =
            farmer_support::json::Json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert_eq!(payload["n_rows"].as_u64(), Some(24));
    }

    #[test]
    fn closed_all_algorithms() {
        let csv = tmp("c.csv");
        let txt = tmp("c.txt");
        run_ok(&[
            "synth",
            "--preset",
            "custom",
            "--rows",
            "16",
            "--genes",
            "40",
            "--out",
            csv.to_str().unwrap(),
        ]);
        run_ok(&[
            "discretize",
            "--in",
            csv.to_str().unwrap(),
            "--method",
            "equal-width:3",
            "--out",
            txt.to_str().unwrap(),
        ]);
        let a = run_ok(&[
            "closed",
            "--in",
            txt.to_str().unwrap(),
            "--algo",
            "carpenter",
            "--min-sup",
            "4",
            "--limit",
            "0",
        ]);
        let b = run_ok(&[
            "closed",
            "--in",
            txt.to_str().unwrap(),
            "--algo",
            "charm",
            "--min-sup",
            "4",
            "--limit",
            "0",
        ]);
        let c = run_ok(&[
            "closed",
            "--in",
            txt.to_str().unwrap(),
            "--algo",
            "closet",
            "--min-sup",
            "4",
            "--limit",
            "0",
        ]);
        // same pattern count and, since output is sorted, same first line
        assert_eq!(a.lines().next(), b.lines().next());
        assert_eq!(b, c);
        assert_eq!(a, b);
    }

    #[test]
    fn discretize_methods_parse() {
        use farmer_dataset::discretize::Discretizer;
        assert_eq!(
            super::parse_discretizer("chi-merge").unwrap(),
            Discretizer::ChiMerge {
                threshold: 4.61,
                max_intervals: 6
            }
        );
        assert_eq!(
            super::parse_discretizer("chi-merge:2.7").unwrap(),
            Discretizer::ChiMerge {
                threshold: 2.7,
                max_intervals: 6
            }
        );
        assert_eq!(
            super::parse_discretizer("entropy").unwrap(),
            Discretizer::EntropyMdl
        );
        assert!(super::parse_discretizer("magic").is_err());
        assert!(super::parse_discretizer("equal-depth:x").is_err());
    }

    #[test]
    fn topk_runs() {
        let csv = tmp("t.csv");
        let txt = tmp("t.txt");
        run_ok(&[
            "synth",
            "--preset",
            "custom",
            "--rows",
            "12",
            "--genes",
            "30",
            "--out",
            csv.to_str().unwrap(),
        ]);
        run_ok(&[
            "discretize",
            "--in",
            csv.to_str().unwrap(),
            "--method",
            "equal-depth:3",
            "--out",
            txt.to_str().unwrap(),
        ]);
        let s = run_ok(&[
            "topk",
            "--in",
            txt.to_str().unwrap(),
            "--k",
            "2",
            "--min-sup",
            "2",
        ]);
        assert!(s.contains("top-2"), "{s}");
        assert!(s.contains("row 0"), "{s}");
    }

    #[test]
    fn classify_all_methods() {
        let train = tmp("tr.csv");
        let test = tmp("te.csv");
        run_ok(&[
            "synth",
            "--preset",
            "custom",
            "--rows",
            "30",
            "--genes",
            "50",
            "--seed",
            "3",
            "--out",
            train.to_str().unwrap(),
        ]);
        run_ok(&[
            "synth",
            "--preset",
            "custom",
            "--rows",
            "14",
            "--genes",
            "50",
            "--seed",
            "4",
            "--out",
            test.to_str().unwrap(),
        ]);
        for method in ["irg", "cba", "svm"] {
            let s = run_ok(&[
                "classify",
                "--train",
                train.to_str().unwrap(),
                "--test",
                test.to_str().unwrap(),
                "--method",
                method,
            ]);
            assert!(s.contains("accuracy"), "{s}");
        }
    }

    /// Builds a small transaction file once and returns its path.
    fn mining_input(stem: &str, rows: &str, genes: &str) -> std::path::PathBuf {
        let csv = tmp(&format!("{stem}.csv"));
        let txt = tmp(&format!("{stem}.txt"));
        run_ok(&[
            "synth",
            "--preset",
            "custom",
            "--rows",
            rows,
            "--genes",
            genes,
            "--out",
            csv.to_str().unwrap(),
        ]);
        run_ok(&[
            "discretize",
            "--in",
            csv.to_str().unwrap(),
            "--method",
            "equal-depth:4",
            "--out",
            txt.to_str().unwrap(),
        ]);
        txt
    }

    use farmer_support::json::Json;

    /// Recursive structural comparison against the golden document:
    /// objects must have identical keys in identical order, arrays must
    /// be element-wise shaped like the golden's first element, and
    /// scalars must agree on type (ints and floats both count as
    /// numbers). Values are free to differ — timings and counters vary
    /// run to run; the *schema* must not.
    fn assert_same_shape(actual: &Json, golden: &Json, path: &str) {
        match (actual, golden) {
            (Json::Null, Json::Null) => {}
            (Json::Bool(_), Json::Bool(_)) => {}
            (Json::Str(_), Json::Str(_)) => {}
            (Json::Int(_) | Json::Float(_), Json::Int(_) | Json::Float(_)) => {}
            (Json::Arr(a), Json::Arr(g)) => {
                if let Some(first) = g.first() {
                    assert!(!a.is_empty(), "empty array at {path}, golden is not");
                    for (i, el) in a.iter().enumerate() {
                        assert_same_shape(el, first, &format!("{path}[{i}]"));
                    }
                }
            }
            (Json::Obj(a), Json::Obj(g)) => {
                let keys = |o: &[(String, Json)]| -> Vec<String> {
                    o.iter().map(|(k, _)| k.clone()).collect()
                };
                assert_eq!(keys(a), keys(g), "object keys at {path}");
                for ((k, av), (_, gv)) in a.iter().zip(g.iter()) {
                    assert_same_shape(av, gv, &format!("{path}.{k}"));
                }
            }
            _ => panic!("shape mismatch at {path}: got {actual:?}, golden {golden:?}"),
        }
    }

    /// The full `--stats-json` schema — scheduler and trace blocks
    /// included — pinned against a checked-in golden document. Run with
    /// `FARMER_UPDATE_GOLDEN=1` to regenerate after an intentional
    /// schema change.
    #[test]
    fn stats_json_matches_golden_schema() {
        let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/stats_schema.json");
        let txt = mining_input("sj", "20", "50");
        let trace = tmp("sj-trace.json");
        let s = run_ok(&[
            "mine",
            "--in",
            txt.to_str().unwrap(),
            "--min-sup",
            "3",
            "--stats-json",
            "--trace-out",
            trace.to_str().unwrap(),
        ]);
        let j = Json::parse(&s).unwrap_or_else(|e| panic!("{e}: {s}"));
        if std::env::var_os("FARMER_UPDATE_GOLDEN").is_some() {
            std::fs::write(golden_path, j.pretty()).unwrap();
        }
        let golden =
            Json::parse(&std::fs::read_to_string(golden_path).unwrap_or_else(|e| {
                panic!("{golden_path}: {e} (FARMER_UPDATE_GOLDEN=1 to create)")
            }))
            .unwrap();
        assert_same_shape(&j, &golden, "$");

        // value invariants on top of the shape
        assert_eq!(j["algo"].as_str(), Some("farmer"));
        assert_eq!(j["stop"].as_str(), Some("completed"));
        assert!(j["nodes_visited"].as_u64().unwrap() > 0);
        assert!(j["pruned"]["tight_support"].as_u64().is_some(), "{s}");
        assert!(j["pruned"]["confidence_floor"].as_u64().is_some(), "{s}");
        // scheduler observability: sequential run = one worker, no steals
        assert_eq!(j["scheduler"]["steals"].as_u64(), Some(0), "{s}");
        assert_eq!(
            j["scheduler"]["worker_nodes"][0].as_u64(),
            j["nodes_visited"].as_u64(),
            "{s}"
        );
        assert!(
            j["scheduler"]["peak_arena_depth"].as_u64().unwrap() >= 1,
            "{s}"
        );
        // trace block: sequential tracer = main lane + one worker lane,
        // and the session span subsumes the enumerate span
        assert_eq!(j["trace"]["lanes"].as_u64(), Some(2), "{s}");
        let span_ns = |name: &str| {
            let Json::Arr(spans) = &j["trace"]["spans"] else {
                panic!("trace.spans not an array: {s}")
            };
            spans
                .iter()
                .find(|sp| sp["name"].as_str() == Some(name))
                .unwrap_or_else(|| panic!("span '{name}' missing: {s}"))["total_ns"]
                .as_u64()
                .unwrap()
        };
        assert!(span_ns("session") >= span_ns("enumerate"), "{s}");
        assert!(
            j["trace"]["hists"][0]["count"].as_u64().unwrap() > 0,
            "node_visit histogram empty: {s}"
        );
        assert_eq!(j["trace"]["dropped_events"].as_u64(), Some(0), "{s}");
    }

    /// Without `--trace-out`/`--metrics-out`, the report still carries
    /// the `trace` key — as an explicit null, so consumers can branch on
    /// it without probing for key presence.
    #[test]
    fn stats_json_trace_is_null_when_untraced() {
        let txt = mining_input("sjn", "14", "30");
        let s = run_ok(&[
            "mine",
            "--in",
            txt.to_str().unwrap(),
            "--min-sup",
            "3",
            "--stats-json",
        ]);
        let j = Json::parse(&s).unwrap();
        assert!(matches!(j["trace"], Json::Null), "{s}");
    }

    /// `--trace-out` yields Chrome trace-event JSON (per-lane tracks
    /// with thread names) and `--metrics-out` yields Prometheus text
    /// with the expected metric families.
    #[test]
    fn trace_exports_are_valid() {
        let txt = mining_input("te", "20", "50");
        let trace = tmp("te-trace.json");
        let prom = tmp("te-metrics.prom");
        let s = run_ok(&[
            "mine",
            "--in",
            txt.to_str().unwrap(),
            "--min-sup",
            "3",
            "--threads",
            "2",
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics-out",
            prom.to_str().unwrap(),
        ]);
        assert!(s.contains("wrote Chrome trace"), "{s}");
        assert!(s.contains("wrote Prometheus metrics"), "{s}");

        let doc = Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let Json::Arr(events) = &doc["traceEvents"] else {
            panic!("traceEvents missing: {doc:?}")
        };
        assert!(!events.is_empty());
        // one thread_name metadata record per lane: main + 2 workers
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("M"))
            .map(|e| e["args"]["name"].as_str().unwrap())
            .collect();
        assert_eq!(names, ["main", "worker-0", "worker-1"], "{doc:?}");
        // every event targets pid 1 and a known lane; B/E events balance
        let mut depth: i64 = 0;
        for e in events {
            assert_eq!(e["pid"].as_u64(), Some(1));
            assert!(e["tid"].as_u64().unwrap() < 3);
            match e["ph"].as_str().unwrap() {
                "B" => depth += 1,
                "E" => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced begin/end events");
        // both workers recorded their enumerate span
        for tid in [1, 2] {
            assert!(
                events.iter().any(|e| e["ph"].as_str() == Some("B")
                    && e["tid"].as_u64() == Some(tid)
                    && e["name"].as_str() == Some("enumerate")),
                "no enumerate span on worker lane {tid}"
            );
        }

        let text = std::fs::read_to_string(&prom).unwrap();
        for family in [
            "farmer_span_seconds_total",
            "farmer_span_calls_total",
            "farmer_node_visit_ns_bucket",
            "farmer_node_visit_ns_count",
            "farmer_fused_scan_ns_count",
            "farmer_lower_bound_ns_count",
            "farmer_trace_dropped_events_total",
        ] {
            assert!(text.contains(family), "{family} missing from:\n{text}");
        }
        assert!(text.contains("le=\"+Inf\""), "{text}");
    }

    #[test]
    fn stats_json_reports_parallel_scheduler() {
        let txt = mining_input("sjp", "20", "50");
        let s = run_ok(&[
            "mine",
            "--in",
            txt.to_str().unwrap(),
            "--min-sup",
            "3",
            "--threads",
            "3",
            "--stats-json",
        ]);
        let j = farmer_support::json::Json::parse(&s).unwrap_or_else(|e| panic!("{e}: {s}"));
        let workers = match &j["scheduler"]["worker_nodes"] {
            farmer_support::json::Json::Arr(v) => v.len(),
            other => panic!("worker_nodes not an array: {other:?}"),
        };
        assert_eq!(workers, 3, "{s}");
        assert!(j["scheduler"]["steals"].as_u64().is_some(), "{s}");
    }

    #[test]
    fn node_budget_truncates_with_notice() {
        let txt = mining_input("nb", "24", "60");
        let s = run_ok(&[
            "mine",
            "--in",
            txt.to_str().unwrap(),
            "--min-sup",
            "2",
            "--node-budget",
            "5",
        ]);
        assert!(s.contains("search stopped early (budget)"), "{s}");
        // the same run as JSON reports truncation machine-readably
        let s = run_ok(&[
            "mine",
            "--in",
            txt.to_str().unwrap(),
            "--min-sup",
            "2",
            "--node-budget",
            "5",
            "--stats-json",
        ]);
        let j = farmer_support::json::Json::parse(&s).unwrap();
        assert_eq!(j["stop"].as_str(), Some("budget"));
        assert_eq!(j["truncated"].as_bool(), Some(true));
        assert_eq!(j["nodes_visited"].as_u64(), Some(6));
    }

    #[test]
    fn invalid_thresholds_error_cleanly() {
        let txt = mining_input("nv", "12", "30");
        let mut out = Vec::new();
        for bad in [
            ["--min-conf", "NaN"],
            ["--min-conf", "1.5"],
            ["--min-chi", "-2"],
        ] {
            let argv: Vec<String> = ["mine", "--in", txt.to_str().unwrap(), bad[0], bad[1]]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let err = crate::run(&argv, &mut out).unwrap_err();
            let field = bad[0][2..].replace('-', "_");
            assert!(err.to_string().contains(&field), "{bad:?}: {err}");
        }
    }

    #[test]
    fn all_algos_agree_on_group_count() {
        let txt = mining_input("aa", "14", "30");
        let count = |algo: &str| {
            let s = run_ok(&[
                "mine",
                "--in",
                txt.to_str().unwrap(),
                "--algo",
                algo,
                "--min-sup",
                "2",
                "--stats-json",
            ]);
            let j = farmer_support::json::Json::parse(&s).unwrap();
            j["n_groups"].as_u64().unwrap()
        };
        let reference = count("farmer");
        assert!(reference > 0);
        for algo in ["charm", "closet", "apriori", "column-e"] {
            assert_eq!(count(algo), reference, "{algo}");
        }
    }

    /// The full artifact flow: mine with --save-irgs, query the file
    /// offline, then serve it and hit every endpoint over HTTP.
    #[test]
    fn mine_save_query_serve_pipeline() {
        let txt = mining_input("fgi", "20", "50");
        let fgi = tmp("fgi-groups.fgi");
        let s = run_ok(&[
            "mine",
            "--in",
            txt.to_str().unwrap(),
            "--min-sup",
            "3",
            "--min-conf",
            "0.7",
            "--save-irgs",
            fgi.to_str().unwrap(),
        ]);
        assert!(s.contains("rule groups to"), "{s}");
        assert!(s.contains("checksum 0x"), "{s}");

        // the artifact loads and the offline prediction matches the
        // library's own classification of the same sample
        let art = farmer_store::Artifact::load(&fgi).unwrap();
        assert!(!art.groups.is_empty());
        let first_upper: Vec<String> = art.groups[0]
            .upper
            .iter()
            .map(|i| art.meta.item_names[i as usize].clone())
            .collect();
        let items = first_upper.join(",");

        let samples = [items.as_str(), "no-such-item"];
        let queried: Vec<String> = samples
            .iter()
            .map(|sample| run_ok(&["query", fgi.to_str().unwrap(), "--items", sample]))
            .collect();
        assert!(queried[0].contains("classified as"), "{}", queried[0]);
        assert!(
            queried[0].contains("matching rule groups"),
            "{}",
            queried[0]
        );
        assert!(queried[1].contains("not in the artifact"), "{}", queried[1]);

        // serve on an ephemeral port in a thread; idle-exit gives the
        // command a clean way home once we stop sending traffic
        let fgi2 = fgi.clone();
        let (addr_tx, addr_rx) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            let mut sink = AddrCapture {
                tx: addr_tx,
                buf: Vec::new(),
            };
            let argv: Vec<String> = [
                "serve",
                fgi2.to_str().unwrap(),
                "--workers",
                "2",
                "--idle-exit-ms",
                "1500",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            crate::run(&argv, &mut sink).unwrap();
            String::from_utf8(sink.buf).unwrap()
        });
        let addr = addr_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("serve never printed its address");

        let h = farmer_serve::http_get(&addr, "/v1/healthz").unwrap();
        assert_eq!(h.status, 200, "{}", h.body);
        // `query` and the server answer from the same index: the same
        // class and group, and the same number of matching groups
        for (sample, s) in samples.iter().zip(&queried) {
            let c = farmer_serve::http_get(&addr, &format!("/v1/classify?items={sample}")).unwrap();
            assert_eq!(c.status, 200, "{}", c.body);
            let c = Json::parse(&c.body).unwrap();
            let class = c["class_name"].as_str().unwrap();
            let expected = match c["group"].as_u64() {
                Some(g) => format!("classified as {class} (group {g}:"),
                None => format!("classified as {class} (no covering group"),
            };
            assert!(
                s.lines().any(|l| l.starts_with(&expected)),
                "{sample}: {expected} not in {s}"
            );
            let q = farmer_serve::http_get(&addr, &format!("/v1/query?items={sample}")).unwrap();
            let total = Json::parse(&q.body).unwrap()["total"].as_u64().unwrap();
            assert!(
                s.contains(&format!("\n{total} matching rule groups\n")),
                "{sample}: total {total}, query printed {s}"
            );
        }
        let m = farmer_serve::http_get(&addr, "/v1/metrics").unwrap();
        assert!(
            m.body.contains("farmer_serve_request_ns_count"),
            "{}",
            m.body
        );

        let summary = server.join().unwrap();
        assert!(summary.contains("shut down cleanly"), "{summary}");
    }

    #[test]
    fn ingest_appends_validated_rows_to_the_journal() {
        let txt = mining_input("ing", "12", "30");
        let fgd = tmp("ing.fgd");
        let _ = std::fs::remove_file(&fgd);
        let s = run_ok(&[
            "ingest",
            "--journal",
            fgd.to_str().unwrap(),
            "--base",
            txt.to_str().unwrap(),
            "--items",
            "2,0,2", // unordered + duplicate: normalised before journaling
            "--label",
            "0",
        ]);
        assert!(s.contains("appended 1 row(s)"), "{s}");
        let rows_file = tmp("ing-rows.txt");
        std::fs::write(&rows_file, "1: 3 4\n\n0: 0\n").unwrap();
        let s = run_ok(&[
            "ingest",
            "--journal",
            fgd.to_str().unwrap(),
            "--base",
            txt.to_str().unwrap(),
            "--rows",
            rows_file.to_str().unwrap(),
        ]);
        assert!(s.contains("appended 2 row(s)"), "{s}");
        let j = farmer_store::read_journal(&fgd).unwrap();
        assert_eq!(j.records.len(), 3);
        let ids: Vec<u32> = j.records[0].items.iter().collect();
        assert_eq!(ids, [0, 2]);
        assert_eq!(j.records[1].label, 1);

        // out-of-range labels and unknown items never reach the journal
        let mut out = Vec::new();
        for bad in [
            ["--items", "0", "--label", "9"],
            ["--items", "no-such-gene", "--label", "0"],
        ] {
            let argv: Vec<String> = [
                "ingest",
                "--journal",
                fgd.to_str().unwrap(),
                "--base",
                txt.to_str().unwrap(),
                bad[0],
                bad[1],
                bad[2],
                bad[3],
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            crate::run(&argv, &mut out).unwrap_err();
        }
        assert_eq!(farmer_store::read_journal(&fgd).unwrap().records.len(), 3);
    }

    /// The streaming loop end to end — and the idle-exit regression:
    /// rows journaled by a *separate* `farmer ingest` run must reach
    /// the live server (remine → publish → in-process hot swap), and
    /// that pipeline activity must reset the idle clock even though no
    /// HTTP request is involved.
    #[test]
    fn serve_watch_folds_in_ingested_rows_and_stays_alive() {
        let txt = mining_input("watch", "16", "40");
        let fgi = tmp("watch.fgi");
        let fgd = tmp("watch.fgd");
        let _ = std::fs::remove_file(&fgi);
        let _ = std::fs::remove_file(&fgd);
        run_ok(&[
            "mine",
            "--in",
            txt.to_str().unwrap(),
            "--min-sup",
            "3",
            "--save-irgs",
            fgi.to_str().unwrap(),
            "--class",
            "1",
        ]);
        let base_rows = farmer_store::Artifact::load(&fgi).unwrap().meta.n_rows;

        let (addr_tx, addr_rx) = std::sync::mpsc::channel();
        let fgi2 = fgi.clone();
        let (txt2, fgd2) = (txt.clone(), fgd.clone());
        let server = std::thread::spawn(move || {
            let mut sink = AddrCapture {
                tx: addr_tx,
                buf: Vec::new(),
            };
            let argv: Vec<String> = [
                "serve",
                fgi2.to_str().unwrap(),
                "--watch",
                "--base",
                txt2.to_str().unwrap(),
                "--journal",
                fgd2.to_str().unwrap(),
                "--class",
                "1",
                "--min-sup",
                "3",
                "--remine-debounce-ms",
                "100",
                "--idle-exit-ms",
                "1500",
                "--admin-token",
                "tok",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            crate::run(&argv, &mut sink).unwrap();
            String::from_utf8(sink.buf).unwrap()
        });
        let addr = addr_rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("serve --watch never printed its address");
        let t0 = std::time::Instant::now();
        let h = farmer_serve::http_get(&addr, "/v1/healthz").unwrap();
        assert_eq!(h.status, 200, "{}", h.body);

        // Quiet on the HTTP side from here on. Append a row through the
        // cross-process path; the daemon must pick it up by polling.
        std::thread::sleep(std::time::Duration::from_millis(700));
        run_ok(&[
            "ingest",
            "--journal",
            fgd.to_str().unwrap(),
            "--base",
            txt.to_str().unwrap(),
            "--items",
            "0,1,2",
            "--label",
            "1",
        ]);
        // The publish lands on disk well before the idle deadline.
        let deadline = t0 + std::time::Duration::from_millis(1400);
        loop {
            if let Ok(art) = farmer_store::Artifact::load(&fgi) {
                if art.meta.n_rows == base_rows + 1 {
                    break;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "republished artifact never appeared"
            );
            std::thread::sleep(std::time::Duration::from_millis(25));
        }

        // 1700 ms after the last request: without the pipeline-activity
        // fix the server is already gone (idle-exit at ~1500 ms); with
        // it, the remine+publish reset the clock and it still answers,
        // from the *new* artifact (epoch bumped by the hot swap).
        let elapsed = t0.elapsed();
        std::thread::sleep(std::time::Duration::from_millis(1700).saturating_sub(elapsed));
        let h = farmer_serve::http_get(&addr, "/v1/healthz")
            .expect("server exited despite pipeline activity (idle clock not reset)");
        assert_eq!(h.status, 200, "{}", h.body);
        let doc = Json::parse(&h.body).unwrap();
        assert!(
            doc["epoch"].as_u64().unwrap() >= 1,
            "publish never hot-swapped the served index: {}",
            h.body
        );

        // Pipeline stats ride along on the admin surface.
        let s = farmer_serve::http_get_auth(&addr, "/v1/admin/stats", Some("tok")).unwrap();
        assert_eq!(s.status, 200, "{}", s.body);
        let stats = Json::parse(&s.body).unwrap();
        assert!(
            stats["pipeline"]["generation"].as_u64().unwrap() >= 1,
            "{}",
            s.body
        );

        let summary = server.join().unwrap();
        assert!(summary.contains("shut down cleanly"), "{summary}");
    }

    /// `mine --watch` keeps the artifact fresh without any server: a
    /// journal append triggers a remine+republish, and the watch exits
    /// on its own idle timer.
    #[test]
    fn mine_watch_republishes_on_journal_growth() {
        let txt = mining_input("mwatch", "14", "30");
        let fgi = tmp("mwatch.fgi");
        let fgd = tmp("mwatch.fgd");
        let _ = std::fs::remove_file(&fgi);
        let _ = std::fs::remove_file(&fgd);

        let (txt2, fgi2, fgd2) = (txt.clone(), fgi.clone(), fgd.clone());
        let watcher = std::thread::spawn(move || {
            run_ok(&[
                "mine",
                "--in",
                txt2.to_str().unwrap(),
                "--min-sup",
                "3",
                "--save-irgs",
                fgi2.to_str().unwrap(),
                "--watch",
                "--journal",
                fgd2.to_str().unwrap(),
                "--remine-debounce-ms",
                "100",
                "--watch-idle-exit-ms",
                "1200",
            ])
        });
        // Wait for the initial artifact AND the journal header (proof
        // the pipeline is up), then feed the journal.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        let journal_ready = || std::fs::metadata(&fgd).is_ok_and(|m| m.len() >= 16);
        while !fgi.exists() || !journal_ready() {
            assert!(std::time::Instant::now() < deadline, "no initial artifact");
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        let base_rows = farmer_store::Artifact::load(&fgi).unwrap().meta.n_rows;
        run_ok(&[
            "ingest",
            "--journal",
            fgd.to_str().unwrap(),
            "--base",
            txt.to_str().unwrap(),
            "--items",
            "1,3",
            "--label",
            "0",
        ]);
        let summary = watcher.join().unwrap();
        assert!(summary.contains("exiting watch"), "{summary}");
        let art = farmer_store::Artifact::load(&fgi).unwrap();
        assert_eq!(
            art.meta.n_rows,
            base_rows + 1,
            "watch never folded the journaled row in"
        );
    }

    /// Captures the `serve` startup line and forwards the bound
    /// address to the test thread.
    struct AddrCapture {
        tx: std::sync::mpsc::Sender<String>,
        buf: Vec<u8>,
    }

    impl std::io::Write for AddrCapture {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.buf.extend_from_slice(data);
            // `write!` delivers formatted fragments piecemeal; only a
            // newline guarantees the port is complete
            if let Some(rest) = std::str::from_utf8(&self.buf)
                .ok()
                .and_then(|s| s.split_once("at http://"))
                .map(|(_, rest)| rest)
            {
                if let Some(line_end) = rest.find('\n') {
                    let _ = self.tx.send(rest[..line_end].trim().to_string());
                }
            }
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn query_rejects_bad_artifact_and_class() {
        let bogus = tmp("bogus.fgi");
        std::fs::write(&bogus, b"not an artifact").unwrap();
        let mut out = Vec::new();
        let argv: Vec<String> = ["query", bogus.to_str().unwrap(), "--items", "i0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = crate::run(&argv, &mut out).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");

        let txt = mining_input("qb", "14", "30");
        let fgi = tmp("qb.fgi");
        run_ok(&[
            "mine",
            "--in",
            txt.to_str().unwrap(),
            "--min-sup",
            "2",
            "--save-irgs",
            fgi.to_str().unwrap(),
        ]);
        let argv: Vec<String> = [
            "query",
            fgi.to_str().unwrap(),
            "--items",
            "i0",
            "--class",
            "7",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = crate::run(&argv, &mut out).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn help_and_errors() {
        let s = run_ok(&["help"]);
        assert!(s.contains("USAGE"), "{s}");
        let mut out = Vec::new();
        let err = crate::run(&["mine".to_string()], &mut out).unwrap_err();
        assert!(err.to_string().contains("--in"), "{err}");
        let err = crate::run(
            &[
                "synth".to_string(),
                "--preset".into(),
                "XX".into(),
                "--out".into(),
                "/tmp/x".into(),
            ],
            &mut out,
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown preset"), "{err}");
    }
}

#[cfg(test)]
mod arff_tests {
    #[test]
    fn arff_end_to_end() {
        let dir = std::env::temp_dir().join("farmer-cli-arff");
        std::fs::create_dir_all(&dir).unwrap();
        let arff = dir.join("d.arff");
        std::fs::write(
            &arff,
            "@RELATION t\n@ATTRIBUTE g0 NUMERIC\n@ATTRIBUTE g1 NUMERIC\n\
             @ATTRIBUTE class {neg,pos}\n@DATA\n\
             0.1,5.0,neg\n0.2,?,neg\n4.0,1.0,pos\n4.2,0.9,pos\n",
        )
        .unwrap();
        let txt = dir.join("d.txt");
        let argv: Vec<String> = [
            "discretize",
            "--in",
            arff.to_str().unwrap(),
            "--method",
            "equal-width:2",
            "--out",
            txt.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut out = Vec::new();
        crate::run(&argv, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("4 rows"), "{s}");
    }
}
