//! The build-once artifact store shared by every analysis.
//!
//! The pipeline is strictly layered — dataset → per-pair aggregates
//! ([`PairTable`], which *is* the measurement graph) → per-metric weight
//! matrices — but historically every analysis entry point rebuilt the
//! upstream layers for itself, so a 19-experiment run paid for the same
//! matrices dozens of times. An [`AnalysisContext`] owns one immutable copy
//! of each layer and hands out `&`-borrows:
//!
//! * the dataset and the eagerly built table are `Arc`-shared, so a
//!   context is cheap to construct from an already-loaded dataset and a
//!   fresh context (for reference comparisons) can reuse the same data;
//! * weight matrices are built lazily, at most once per [`MetricKind`],
//!   behind [`OnceLock`]s — concurrent experiments racing for the same
//!   matrix block until the single winner finishes building, then share it;
//! * everything handed out is immutable, so a `&AnalysisContext` is freely
//!   shareable across the thread pool (the type is `Sync` by construction).
//!
//! The context never mutates after creation beyond these idempotent cache
//! fills; analyses therefore compose without ordering constraints, and the
//! per-artifact-kind `context/*_builds` counters on the current
//! `detour-obs` recorder let tests assert that each artifact
//! really was built exactly once.

use std::sync::{Arc, OnceLock};

use detour_measure::{Dataset, PairTable};

use crate::kernel::{BandwidthMatrix, WeightMatrix};
use crate::metric::{Metric, MetricKind};

/// Names one lazily built artifact, so a caller can force it with
/// [`AnalysisContext::ensure`] ahead of the analyses that would build it on
/// first use (a benchmark timing matrix builds on their own, say).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// The additive weight matrix of a metric family.
    Weights(MetricKind),
    /// The one-hop bandwidth matrix (N2 datasets).
    Bandwidth,
}

/// Build-once, borrow-everywhere artifacts of a single dataset.
pub struct AnalysisContext {
    dataset: Arc<Dataset>,
    table: Arc<PairTable>,
    rtt: OnceLock<WeightMatrix>,
    loss: OnceLock<WeightMatrix>,
    prop: OnceLock<WeightMatrix>,
    bandwidth: OnceLock<BandwidthMatrix>,
}

impl std::fmt::Debug for AnalysisContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisContext")
            .field("dataset", &self.dataset.name)
            .field("hosts", &self.table.len())
            .finish()
    }
}

impl AnalysisContext {
    /// Builds the eager pair table for a shared dataset, recording
    /// `context/table_builds`; matrices follow lazily on first use under
    /// their own counters.
    pub fn new(dataset: Arc<Dataset>) -> AnalysisContext {
        let table = Arc::new(PairTable::build(&dataset));
        detour_obs::current().add("context/table_builds", 1);
        AnalysisContext {
            dataset,
            table,
            rtt: OnceLock::new(),
            loss: OnceLock::new(),
            prop: OnceLock::new(),
            bandwidth: OnceLock::new(),
        }
    }

    /// Convenience for tests and examples: clone a borrowed dataset into a
    /// fresh context.
    pub fn from_dataset(ds: &Dataset) -> AnalysisContext {
        Self::new(Arc::new(ds.clone()))
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// A clone of the shared dataset handle (for building sibling contexts
    /// without copying the data).
    pub fn dataset_arc(&self) -> Arc<Dataset> {
        Arc::clone(&self.dataset)
    }

    /// The per-pair aggregate table: the measurement graph.
    pub fn table(&self) -> &PairTable {
        &self.table
    }

    fn slot(&self, kind: MetricKind) -> &OnceLock<WeightMatrix> {
        match kind {
            MetricKind::Rtt => &self.rtt,
            MetricKind::Loss => &self.loss,
            MetricKind::PropDelay => &self.prop,
        }
    }

    /// The weight matrix for `metric`'s family, built on first request and
    /// shared thereafter. Each actual build (cache misses only) records a
    /// `context/weights_{rtt,loss,prop}_builds` counter, which is how the
    /// tests prove build-once behaviour.
    pub fn weights(&self, metric: &impl Metric) -> &WeightMatrix {
        let kind = metric.kind();
        self.slot(kind).get_or_init(|| {
            let counter = match kind {
                MetricKind::Rtt => "context/weights_rtt_builds",
                MetricKind::Loss => "context/weights_loss_builds",
                MetricKind::PropDelay => "context/weights_prop_builds",
            };
            detour_obs::current().add(counter, 1);
            WeightMatrix::build(&self.table, metric)
        })
    }

    /// The bandwidth matrix, built on first request and shared thereafter
    /// (actual builds record `context/bandwidth_builds`).
    pub fn bandwidth_matrix(&self) -> &BandwidthMatrix {
        self.bandwidth.get_or_init(|| {
            detour_obs::current().add("context/bandwidth_builds", 1);
            BandwidthMatrix::build(&self.table)
        })
    }

    /// Forces an artifact into the cache; a no-op once it is built.
    pub fn ensure(&self, kind: ArtifactKind) {
        match kind {
            ArtifactKind::Weights(MetricKind::Rtt) => {
                self.weights(&crate::metric::Rtt);
            }
            ArtifactKind::Weights(MetricKind::Loss) => {
                self.weights(&crate::metric::Loss);
            }
            ArtifactKind::Weights(MetricKind::PropDelay) => {
                self.weights(&crate::metric::PropDelay);
            }
            ArtifactKind::Bandwidth => {
                self.bandwidth_matrix();
            }
        }
    }

    /// Measures how degraded this dataset is — the graceful-degradation
    /// contract every report leans on under fault injection. Derived from
    /// the pair table, so it is free relative to any analysis.
    pub fn degradation(&self) -> Degradation {
        let t = &*self.table;
        let n = t.len();
        let mut isolated_hosts = 0;
        for i in 0..n {
            let connected =
                (0..n).any(|j| i != j && (t.edge(i, j).is_some() || t.edge(j, i).is_some()));
            if !connected {
                isolated_hosts += 1;
            }
        }
        Degradation {
            hosts: n,
            isolated_hosts,
            measured_pairs: t.measured_count(),
            possible_pairs: n * n.saturating_sub(1),
            starved_pairs: self.dataset.starved_pairs,
        }
    }
}

/// How far a dataset falls short of full measurement coverage. Under the
/// paper's benign conditions everything is near-complete; injected faults
/// starve pairs below the ≥30-sample filter, isolate hosts, or empty the
/// dataset outright — all of which must surface as flags in reports, not
/// as crashes or silently skewed aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Degradation {
    /// Hosts present in the assembled dataset.
    pub hosts: usize,
    /// Hosts with no surviving measurement in either direction.
    pub isolated_hosts: usize,
    /// Directed pairs with surviving data.
    pub measured_pairs: usize,
    /// `hosts · (hosts − 1)`.
    pub possible_pairs: usize,
    /// Directed pairs dropped by the min-sample filter at assembly (they
    /// had data, but too little to trust).
    pub starved_pairs: usize,
}

impl Degradation {
    /// True when a report built from this dataset must carry a DEGRADED
    /// flag.
    pub fn is_degraded(&self) -> bool {
        self.starved_pairs > 0 || self.isolated_hosts > 0 || self.measured_pairs == 0
    }

    /// One-line status for report headers: `OK` or
    /// `DEGRADED[starved=…, isolated=…, pairs=…/…]`.
    pub fn summary(&self) -> String {
        if !self.is_degraded() {
            return format!("OK[pairs={}/{}]", self.measured_pairs, self.possible_pairs);
        }
        format!(
            "DEGRADED[starved={}, isolated={}, pairs={}/{}]",
            self.starved_pairs, self.isolated_hosts, self.measured_pairs, self.possible_pairs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{Loss, Rtt};
    use detour_measure::record::HostMeta;
    use detour_measure::{HostId, ProbeSample};

    fn tiny_dataset() -> Dataset {
        let probe = |src: u32, dst: u32, t: f64, rtt: f64| ProbeSample {
            src: HostId(src),
            dst: HostId(dst),
            t_s: t,
            probe_index: 0,
            rtt_ms: Some(rtt),
            loss_eligible: true,
            episode: None,
            path_idx: 0,
        };
        Dataset {
            name: "T".into(),
            hosts: (0..3)
                .map(|id| HostMeta {
                    id: HostId(id),
                    name: format!("h{id}"),
                    asn: id as u16,
                    truly_rate_limited: false,
                })
                .collect(),
            probes: vec![
                probe(0, 1, 0.0, 50.0),
                probe(1, 2, 0.0, 30.0),
                probe(0, 2, 0.0, 120.0),
            ],
            transfers: vec![],
            as_paths: vec![vec![0, 9, 1]],
            duration_s: 10.0,
            detected_rate_limited: vec![],
            starved_pairs: 0,
        }
    }

    #[test]
    fn matrices_build_once_per_kind() {
        let rec = detour_obs::Recorder::new();
        let _obs = detour_obs::install(rec.clone());
        let cx = AnalysisContext::from_dataset(&tiny_dataset());
        assert_eq!(rec.counter("context/table_builds"), 1, "the table is eager");
        let a = cx.weights(&Rtt) as *const WeightMatrix;
        let b = cx.weights(&Rtt) as *const WeightMatrix;
        assert_eq!(a, b, "second request reuses the cached matrix");
        assert_eq!(rec.counter("context/weights_rtt_builds"), 1);
        cx.weights(&Loss);
        cx.bandwidth_matrix();
        cx.bandwidth_matrix();
        assert_eq!(rec.counter("context/weights_loss_builds"), 1);
        assert_eq!(rec.counter("context/bandwidth_builds"), 1);
        assert_eq!(
            rec.counter("context/weights_prop_builds"),
            0,
            "never requested"
        );
    }

    #[test]
    fn ensure_prebuilds_without_duplicate_work() {
        let rec = detour_obs::Recorder::new();
        let _obs = detour_obs::install(rec.clone());
        let cx = AnalysisContext::from_dataset(&tiny_dataset());
        cx.ensure(ArtifactKind::Weights(MetricKind::Rtt));
        cx.ensure(ArtifactKind::Weights(MetricKind::Rtt));
        cx.ensure(ArtifactKind::Bandwidth);
        assert_eq!(rec.counter("context/weights_rtt_builds"), 1);
        assert_eq!(rec.counter("context/bandwidth_builds"), 1);
        cx.weights(&Rtt);
        assert_eq!(
            rec.counter("context/weights_rtt_builds"),
            1,
            "later use hits the cache"
        );
    }

    #[test]
    fn table_matches_direct_construction() {
        let ds = tiny_dataset();
        let cx = AnalysisContext::from_dataset(&ds);
        assert_eq!(cx.table(), &PairTable::build(&ds));
    }

    #[test]
    fn context_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<AnalysisContext>();
    }

    #[test]
    fn healthy_dataset_reports_ok() {
        let cx = AnalysisContext::from_dataset(&tiny_dataset());
        let d = cx.degradation();
        assert!(!d.is_degraded(), "{d:?}");
        assert_eq!(d.hosts, 3);
        assert_eq!(d.measured_pairs, 3);
        assert_eq!(d.possible_pairs, 6);
        assert!(d.summary().starts_with("OK["), "{}", d.summary());
    }

    #[test]
    fn starved_and_isolated_hosts_flag_degradation() {
        let mut ds = tiny_dataset();
        ds.starved_pairs = 4;
        // Add a host with no measurements at all.
        ds.hosts.push(HostMeta {
            id: HostId(9),
            name: "h9".into(),
            asn: 9,
            truly_rate_limited: false,
        });
        let cx = AnalysisContext::from_dataset(&ds);
        let d = cx.degradation();
        assert!(d.is_degraded());
        assert_eq!(d.isolated_hosts, 1);
        assert_eq!(d.starved_pairs, 4);
        let s = d.summary();
        assert!(s.contains("DEGRADED") && s.contains("starved=4"), "{s}");
    }

    #[test]
    fn empty_dataset_degrades_gracefully() {
        let mut ds = tiny_dataset();
        ds.probes.clear();
        // Building every artifact on an empty dataset must not panic.
        let cx = AnalysisContext::from_dataset(&ds);
        cx.ensure(ArtifactKind::Weights(MetricKind::Rtt));
        cx.ensure(ArtifactKind::Bandwidth);
        let d = cx.degradation();
        assert!(d.is_degraded());
        assert_eq!(d.measured_pairs, 0);
        assert_eq!(d.isolated_hosts, d.hosts);
    }
}
