//! Sample bookkeeping, summary statistics and the result line.
//!
//! Every timed call lands in a [`Recorder`]; the end-to-end metrics are
//! computed from it the same way for every workload, so one metric name
//! means one computation everywhere. Per-layer metrics are collected into
//! [`Figures`] and printed against the fixed [`per_layer_names`] list.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// What a timed call did. In-process workloads record solver queries;
/// `serve-mix` records HTTP requests of the same kinds plus `Apply`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    SsspExact,
    SsspScaled,
    SsspShortcut,
    Mst,
    Components,
    Partwise,
    MinCut,
    Apply,
}

impl Kind {
    /// The query kinds with per-layer `algo.<kind>.*` metrics.
    pub const QUERIES: [Kind; 7] = [
        Kind::SsspExact,
        Kind::SsspScaled,
        Kind::SsspShortcut,
        Kind::Mst,
        Kind::Components,
        Kind::Partwise,
        Kind::MinCut,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SsspExact => "sssp_exact",
            Kind::SsspScaled => "sssp_scaled",
            Kind::SsspShortcut => "sssp_shortcut",
            Kind::Mst => "mst",
            Kind::Components => "components",
            Kind::Partwise => "partwise",
            Kind::MinCut => "min_cut",
            Kind::Apply => "apply",
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub kind: Kind,
    /// The call's position in the workload's fixed script: every pass
    /// makes exactly one call per slot.
    pub slot: usize,
    /// Which pass of the workload's fixed script the call belongs to
    /// (`(client, cycle)` flattened for `serve-mix`).
    pub pass: usize,
    /// Whether the pass is one of the canonical passes that `sim_rounds`
    /// and the traced replay cover.
    pub canonical: bool,
    pub ms: f64,
    /// Simulated CONGEST rounds the call reported.
    pub rounds: usize,
    /// Nodes of the network the call ran on.
    pub nodes: usize,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Recorder {
    pub calls: Vec<Call>,
    /// Operations attempted / failed (errors and refusals).
    pub attempted: usize,
    pub failed: usize,
    /// Answer-check failures, with a description each.
    pub mismatches: Vec<String>,
    /// Overlay phases each converged shortcut-tier answer ran.
    pub shortcut_phases: Vec<usize>,
    /// Setup durations in seconds, one per repetition.
    pub setups_s: Vec<f64>,
    /// Wall seconds of the client loop (`serve-mix`), for `serve_qps`.
    pub busy_s: f64,
    /// Peak resident memory when the canonical passes have ended: a fixed
    /// amount of work, so the figure does not grow with the passes a
    /// faster run fits in.
    pub peak_rss_mb: f64,
}

impl Recorder {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("answer check failed: {msg}");
            self.mismatches.push(msg);
        }
    }

    pub fn ms_of(&self, kind: Kind) -> Vec<f64> {
        self.calls
            .iter()
            .filter(|c| c.kind == kind)
            .map(|c| c.ms)
            .collect()
    }

    /// The median latency of each slot of the script.
    pub fn slot_medians(&self) -> Vec<f64> {
        let mut by_slot: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for c in &self.calls {
            by_slot.entry(c.slot).or_default().push(c.ms);
        }
        by_slot.values().map(|ms| median(ms)).collect()
    }

    /// Number of passes the calls belong to.
    pub fn passes(&self) -> usize {
        self.calls
            .iter()
            .map(|c| c.pass)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Σ simulated rounds over the canonical passes.
    pub fn sim_rounds(&self) -> usize {
        self.calls
            .iter()
            .filter(|c| c.canonical)
            .map(|c| c.rounds)
            .sum()
    }

    /// Wall nanoseconds per simulated node-round of one kind, over every
    /// call of that kind that ran at least one round.
    pub fn ns_per_node_round(&self, kind: Kind) -> f64 {
        let (ns, node_rounds) = self
            .calls
            .iter()
            .filter(|c| c.kind == kind && c.rounds > 0)
            .fold((0.0, 0.0), |(ns, nr), c| {
                (ns + c.ms * 1e6, nr + (c.nodes * c.rounds) as f64)
            });
        if node_rounds > 0.0 {
            ns / node_rounds
        } else {
            0.0
        }
    }
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile (`0.0` for an empty sample).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Figure {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// An ordered name → figure map.
#[derive(Debug, Default)]
pub struct Figures(pub BTreeMap<String, Figure>);

impl Figures {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(
            name.into(),
            Figure {
                value,
                unit,
                samples,
            },
        );
    }
}

/// The end-to-end metrics, computed identically for every workload.
pub fn end_to_end(rec: &Recorder) -> Figures {
    let mut f = Figures::default();
    let slots = rec.slot_medians();
    f.set("setup_s", median(&rec.setups_s), "s", rec.setups_s.len());
    f.set("pass_ms", slots.iter().sum(), "ms", rec.passes());
    f.set("p50_ms", median(&slots), "ms", rec.calls.len());
    let canonical = rec.calls.iter().filter(|c| c.canonical).count();
    f.set("sim_rounds", rec.sim_rounds() as f64, "rounds", canonical);
    f.set("peak_rss_mb", rec.peak_rss_mb, "MB", 1);
    f
}

/// The per-kind figures of the design's metric table that a workload
/// makes calls for (printed in the report, not in the result line).
pub fn named(rec: &Recorder, workload: &str) -> Figures {
    let mut f = Figures::default();
    let all: Vec<f64> = rec.calls.iter().map(|c| c.ms).collect();
    f.set("p99_ms", percentile(&all, 99.0), "ms", all.len());
    for kind in Kind::QUERIES.iter().copied().chain([Kind::Apply]) {
        let ms = rec.ms_of(kind);
        if !ms.is_empty() {
            f.set(format!("{}_ms", kind.name()), median(&ms), "ms", ms.len());
        }
    }
    if workload == "serve-mix" {
        f.set(
            "serve_qps",
            all.len() as f64 / rec.busy_s.max(1e-9),
            "req/s",
            all.len(),
        );
    }
    if !rec.shortcut_phases.is_empty() {
        let phases: Vec<f64> = rec.shortcut_phases.iter().map(|&p| p as f64).collect();
        f.set(
            "sssp_shortcut_phases",
            median(&phases),
            "count",
            phases.len(),
        );
    }
    f.set(
        "error_rate",
        rec.failed as f64 / rec.attempted.max(1) as f64,
        "ratio",
        rec.attempted,
    );
    f
}

/// Every per-layer metric with its unit, in output order. A workload that
/// makes no call into a layer reports `0` for its metrics.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("graphs.generate_ms", "ms"),
        ("graphs.csr_bytes", "bytes"),
        ("congest.runs", "count"),
        ("congest.rounds", "rounds"),
        ("congest.messages", "count"),
        ("congest.bits", "bits"),
        ("congest.bfs_ns_per_node_round", "ns"),
        ("congest.flood_ns_per_node_round", "ns"),
        ("congest.ns_per_message", "ns"),
        ("congest.t2_speedup", "ratio"),
        ("core.plan_ms", "ms"),
        ("core.quality", "count"),
        ("core.repair_ms", "ms"),
        ("core.parts_rebuilt", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for kind in Kind::QUERIES {
        v.push((format!("algo.{}.runs", kind.name()), "count"));
        v.push((format!("algo.{}.ms_per_run", kind.name()), "ms"));
        v.push((format!("algo.{}.ns_per_node_round", kind.name()), "ns"));
    }
    v.extend(
        [
            ("algo.min_cut.packing_ms", "ms"),
            ("algo.min_cut.two_respecting_ms", "ms"),
            ("algo.memo_hits", "count"),
            ("algo.memo_misses", "count"),
            ("algo.memo_hit_share", "ratio"),
            ("wire.encode_us", "us"),
            ("wire.decode_us", "us"),
            ("wire.response_bytes", "bytes"),
            ("serve.inproc_ms", "ms"),
            ("serve.overhead_ms", "ms"),
            ("serve.create_session_ms", "ms"),
            ("serve.shed", "count"),
            ("trace.overhead_frac", "ratio"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    v
}

/// The `algo.<kind>.*` figures every workload derives from its calls.
pub fn algo_kind_layers(rec: &Recorder, layers: &mut Figures) {
    for kind in Kind::QUERIES {
        let ms = rec.ms_of(kind);
        let k = kind.name();
        layers.set(format!("algo.{k}.runs"), ms.len() as f64, "count", ms.len());
        layers.set(format!("algo.{k}.ms_per_run"), median(&ms), "ms", ms.len());
        layers.set(
            format!("algo.{k}.ns_per_node_round"),
            rec.ns_per_node_round(kind),
            "ns",
            ms.len(),
        );
    }
}

/// Prints the human-readable block and, last, the one-line JSON result.
/// `metrics` must already be restricted to the names the run reports.
pub fn print_result(rec: &Recorder, named: &Figures, metrics: &[(String, Figure)]) {
    for (name, fig) in &named.0 {
        println!(
            "named  {name:<34} {:>16.4} {:<6} n={}",
            fig.value, fig.unit, fig.samples
        );
    }
    for (name, fig) in metrics {
        println!(
            "metric {name:<34} {:>16.4} {:<6} n={}",
            fig.value, fig.unit, fig.samples
        );
    }
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        rec.mismatches.is_empty(),
        rec.attempted.max(1),
        rec.failed
    );
    for (i, (name, fig)) in metrics.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            fig.value, fig.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}
