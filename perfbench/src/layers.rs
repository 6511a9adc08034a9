//! The per-layer vocabulary of traced runs.
//!
//! Every traced run emits every name in [`names`]; a layer a workload
//! does not exercise reads 0. Which end-to-end metric each layer metric
//! is expected to move, and on which workload, is in `perfbench/README.md`.

use std::collections::BTreeMap;

use detour_obs::RunReport;

use crate::paper::all_ids;
use crate::report::{ratio, Metrics};

/// Fixed per-layer metrics, in emission order (the `exp.<id>_s` family
/// follows them).
const FIXED: &[(&str, &str)] = &[
    ("trace2.decode_s", "s"),
    ("trace2.bytes_read", "bytes"),
    ("trace2.encode_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("net.build_s", "s"),
    ("net.routing_s", "s"),
    ("campaign_s", "s"),
    ("campaign.probes", "count"),
    ("campaign.probes_per_s", "1/s"),
    ("dataset.assemble_s", "s"),
    ("context.build_s", "s"),
    ("engine.prebuild_s", "s"),
    ("context.table_builds", "count"),
    ("context.graph_builds", "count"),
    ("context.weights_builds", "count"),
    ("slice.episodes", "count"),
    ("slice.episode_probe_visits", "count"),
    ("slice.episode_s", "s"),
    ("slice.timeofday_s", "s"),
    ("kernel.sweep_pairs", "count"),
    ("kernel.sweep_fixups", "count"),
    ("kernel.sweep_avoided", "count"),
    ("kernel.fixup_ratio", "frac"),
    ("kernel.sweep_s", "s"),
    ("kernel.greedy_s", "s"),
    ("kernel.kbest_s", "s"),
    ("pool.maps", "count"),
    ("pool.items", "count"),
    ("pool.busy_frac", "frac"),
    ("engine.experiments_s", "s"),
    ("exp.max_s", "s"),
    ("trace.overhead_frac", "frac"),
];

/// The per-experiment metric name of one experiment id.
pub fn exp_name(id: &str) -> String {
    format!("exp.{id}_s")
}

/// Every per-layer metric name with its unit, in emission order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        FIXED.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    v.extend(all_ids().iter().map(|id| (exp_name(id), "s")));
    v
}

/// Per-layer values gathered by one traced run.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Sets one value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// Adds to one value.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// Appends every per-layer metric to `metrics` (0 where unset).
    ///
    /// # Panics
    /// On a value set under a name outside the vocabulary.
    pub fn emit(self, metrics: &mut Metrics) {
        let names = names();
        for key in self.0.keys() {
            assert!(
                names.iter().any(|(n, _)| n == key),
                "per-layer metric {key:?} is not in the vocabulary"
            );
        }
        for (name, unit) in names {
            metrics.push(&name, self.0.get(&name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// Fills the metrics the pipeline's own `detour-obs` spans and counters
/// give, from the report of one traced pass that took `wall` seconds on
/// `workers` pool workers. Span seconds are summed over the threads that
/// recorded them.
pub fn from_recorder(l: &mut Layers, r: &RunReport, wall: f64, workers: usize) {
    let c = |name: &str| r.counter(name) as f64;
    l.set("cache.hits", c("cache/hits"));
    l.set("cache.misses", c("cache/misses"));
    l.set("net.build_s", r.span_seconds("net/build"));
    l.set("net.routing_s", r.span_seconds("net/routing"));
    l.set("campaign_s", r.span_seconds("dataset/campaign"));
    l.set("dataset.assemble_s", r.span_seconds("dataset/assemble"));
    l.set("context.table_builds", c("context/table_builds"));
    l.set("context.graph_builds", c("context/graph_builds"));
    l.set(
        "context.weights_builds",
        c("context/weights_rtt_builds")
            + c("context/weights_loss_builds")
            + c("context/weights_prop_builds")
            + c("context/bandwidth_builds"),
    );
    let pairs = c("kernel/sweep_pairs");
    let fixups = c("kernel/sweep_fixups");
    l.set("kernel.sweep_pairs", pairs);
    l.set("kernel.sweep_fixups", fixups);
    l.set("kernel.sweep_avoided", c("kernel/sweep_avoided"));
    l.set("kernel.fixup_ratio", ratio(fixups, pairs));
    l.set("pool.maps", c("pool/maps"));
    l.set("pool.items", c("pool/items"));
    l.set(
        "pool.busy_frac",
        ratio(r.span_seconds("pool/worker"), wall * workers as f64),
    );
}
