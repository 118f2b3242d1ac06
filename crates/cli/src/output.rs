//! Serializable result shapes for `--json` and `--stats-json` output.

use farmer_core::trace::{trace_stats_json, TraceReport};
use farmer_core::{MineStats, PruneReason, RuleGroup, SchedStats};
use farmer_dataset::Dataset;
use farmer_support::json::{Json, ObjBuilder};

/// JSON shape of one mined rule group.
#[derive(Debug)]
pub struct GroupJson {
    /// Upper-bound antecedent, as item display names.
    pub upper: Vec<String>,
    /// Lower bounds, each as item display names.
    pub lower: Vec<Vec<String>>,
    /// Consequent class name.
    pub class: String,
    /// Rule support `|R(A ∪ C)|`.
    pub support: usize,
    /// Confidence in `[0, 1]`.
    pub confidence: f64,
    /// χ² value.
    pub chi_square: f64,
    /// Lift.
    pub lift: f64,
    /// Rows (by index) matching the antecedent.
    pub rows: Vec<usize>,
}

impl GroupJson {
    /// Converts a mined group into its JSON shape using the dataset's
    /// display names.
    pub fn from_group(g: &RuleGroup, data: &Dataset) -> Self {
        let names = |items: &rowset::IdList| -> Vec<String> {
            items
                .iter()
                .map(|i| data.item_name(i).to_string())
                .collect()
        };
        GroupJson {
            upper: names(&g.upper),
            lower: g.lower.iter().map(&names).collect(),
            class: data.class_name(g.class).to_string(),
            support: g.sup,
            confidence: g.confidence(),
            chi_square: g.chi_square(),
            lift: g.lift(),
            rows: g.support_set.to_vec(),
        }
    }

    /// Serializes into a [`Json`] value.
    pub fn to_json(&self) -> Json {
        let strings =
            |xs: &[String]| Json::Arr(xs.iter().map(|s| Json::from(s.as_str())).collect());
        ObjBuilder::new()
            .field("upper", strings(&self.upper))
            .field(
                "lower",
                Json::Arr(self.lower.iter().map(|l| strings(l)).collect()),
            )
            .field("class", self.class.as_str())
            .field("support", self.support)
            .field("confidence", self.confidence)
            .field("chi_square", self.chi_square)
            .field("lift", self.lift)
            .field(
                "rows",
                Json::Arr(self.rows.iter().map(|&r| Json::from(r)).collect()),
            )
            .build()
    }
}

/// JSON shape of a whole mining run.
#[derive(Debug)]
pub struct MineJson {
    /// Dataset dimensions `(rows, items)`.
    pub n_rows: usize,
    /// Item count.
    pub n_items: usize,
    /// Number of interesting rule groups.
    pub n_groups: usize,
    /// Search nodes visited.
    pub nodes_visited: u64,
    /// The groups, ranked.
    pub groups: Vec<GroupJson>,
}

impl MineJson {
    /// Serializes into a [`Json`] value.
    pub fn to_json(&self) -> Json {
        ObjBuilder::new()
            .field("n_rows", self.n_rows)
            .field("n_items", self.n_items)
            .field("n_groups", self.n_groups)
            .field("nodes_visited", self.nodes_visited)
            .field(
                "groups",
                Json::Arr(self.groups.iter().map(GroupJson::to_json).collect()),
            )
            .build()
    }
}

/// The `--stats-json` report: what one mining session did, in a stable
/// machine-readable shape (counters from [`MineStats`], the stop cause,
/// wall time, and a `scheduler` object from [`SchedStats`] — the latter
/// is observability, not a result: under parallel work stealing its
/// numbers vary run to run).
pub fn stats_json(
    algo: &str,
    stats: &MineStats,
    sched: &SchedStats,
    n_groups: usize,
    elapsed_ms: u64,
    trace: Option<&TraceReport>,
) -> Json {
    // one `pruned` key per PruneReason variant, by iterating the
    // exhaustive list — adding a variant extends this report for free
    let mut pruned = ObjBuilder::new();
    for r in PruneReason::ALL {
        pruned = pruned.field(r.stats_key(), stats.pruned_count(r));
    }
    ObjBuilder::new()
        .field("algo", algo)
        .field("stop", stats.stop.as_str())
        .field("truncated", Json::Bool(stats.budget_exhausted))
        .field("n_groups", n_groups)
        .field("nodes_visited", stats.nodes_visited)
        .field("elapsed_ms", elapsed_ms)
        .field("pruned", pruned.build())
        .field("rows_compressed", stats.rows_compressed)
        .field(
            "scheduler",
            ObjBuilder::new()
                .field("steals", sched.steals)
                .field(
                    "worker_nodes",
                    Json::Arr(sched.worker_nodes.iter().map(|&n| Json::from(n)).collect()),
                )
                .field("peak_arena_depth", sched.peak_arena_depth)
                .build(),
        )
        .field(
            "trace",
            match trace {
                Some(report) => trace_stats_json(report),
                None => Json::Null,
            },
        )
        .build()
}

/// Renders a self-contained HTML report of a mining run — the
/// shareable artifact a wet-lab collaborator can open without tooling.
pub fn render_html(title: &str, mine: &MineJson) -> String {
    let mut rows = String::new();
    for (i, g) in mine.groups.iter().enumerate() {
        let lows: Vec<String> = g.lower.iter().take(4).map(|l| l.join(" ")).collect();
        let more = if g.lower.len() > 4 {
            format!(" (+{} more)", g.lower.len() - 4)
        } else {
            String::new()
        };
        rows.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td class=\"num\">{}</td>\
             <td class=\"num\">{:.1}%</td><td class=\"num\">{:.2}</td>\
             <td class=\"num\">{:.2}</td><td class=\"items\">{}</td>\
             <td class=\"items\">{}{}</td></tr>\n",
            i + 1,
            esc(&g.class),
            g.support,
            g.confidence * 100.0,
            g.chi_square,
            g.lift,
            esc(&g.upper.join(" ")),
            esc(&lows.join(" | ")),
            more,
        ));
    }
    format!(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
         <title>{title}</title><style>\
         body{{font-family:system-ui,sans-serif;margin:2rem;color:#222}}\
         table{{border-collapse:collapse;width:100%}}\
         th,td{{border:1px solid #ccc;padding:4px 8px;text-align:left;vertical-align:top}}\
         th{{background:#f0f0f0}}.num{{text-align:right}}\
         .items{{font-family:monospace;font-size:0.85em;max-width:30rem;word-break:break-all}}\
         </style></head><body>\
         <h1>{title}</h1>\
         <p>{n_groups} interesting rule groups over {n_rows} samples × {n_items} items \
         ({nodes} search nodes).</p>\
         <table><thead><tr><th>#</th><th>class</th><th>support</th><th>confidence</th>\
         <th>χ²</th><th>lift</th><th>upper bound</th><th>lower bounds</th></tr></thead>\
         <tbody>\n{rows}</tbody></table></body></html>\n",
        title = esc(title),
        n_groups = mine.n_groups,
        n_rows = mine.n_rows,
        n_items = mine.n_items,
        nodes = mine.nodes_visited,
    )
}

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_core::{Farmer, MiningParams};
    use farmer_dataset::paper_example;

    #[test]
    fn html_report_renders() {
        let d = paper_example();
        let res = Farmer::new(MiningParams::new(0)).mine(&d);
        let mine = MineJson {
            n_rows: d.n_rows(),
            n_items: d.n_items(),
            n_groups: res.len(),
            nodes_visited: res.stats.nodes_visited,
            groups: res
                .groups
                .iter()
                .map(|g| GroupJson::from_group(g, &d))
                .collect(),
        };
        let html = render_html("paper <example>", &mine);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("paper &lt;example&gt;"), "title escaped");
        assert!(html.contains("interesting rule groups"));
        // one table row per group
        assert_eq!(html.matches("<tr><td>").count(), mine.n_groups);
    }

    #[test]
    fn group_json_roundtrips_names() {
        let d = paper_example();
        let res = Farmer::new(MiningParams::new(0)).mine(&d);
        let g = &res.groups[0];
        let j = GroupJson::from_group(g, &d);
        assert_eq!(j.upper.len(), g.upper.len());
        assert_eq!(j.support, g.sup);
        let s = j.to_json().to_string();
        assert!(s.contains("\"confidence\""), "{s}");
        let parsed = Json::parse(&s).unwrap();
        assert_eq!(parsed["support"].as_u64(), Some(g.sup as u64));
    }
}
