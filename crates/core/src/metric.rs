//! Path-quality metrics and their composition laws.
//!
//! Each figure of the paper selects and judges alternate paths by a
//! different metric:
//!
//! * **round-trip time** (Figures 1, 2, 7, 9, 11, 12, …) — means compose by
//!   addition;
//! * **loss rate** (Figures 3, 8, 10) — "loss rates on synthetic alternate
//!   paths are formed by assuming that losses on the constituent 'hops' are
//!   uncorrelated", i.e. `1 − Π(1 − pᵢ)`; shortest-path search uses the
//!   equivalent additive weight `−ln(1 − p)`;
//! * **propagation delay** (Figures 15, 16) — estimated as the 10th
//!   percentile of a path's RTT samples (§7.2), composed by addition;
//! * **bandwidth** (Figures 4, 5) — not additive at all; handled by the
//!   dedicated one-hop search in [`crate::altpath`] using the Mathis model.

use detour_measure::Edge;
use detour_stats::quantile::percentile;
use detour_stats::Summary;

/// Identifies a metric family for artifact caching: an
/// [`crate::context::AnalysisContext`] keys its lazily built weight
/// matrices by the metric's kind, and the experiment registry declares its
/// needs in these terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Mean round-trip time ([`Rtt`]).
    Rtt,
    /// Mean loss rate ([`Loss`]).
    Loss,
    /// Propagation-delay estimate ([`PropDelay`]).
    PropDelay,
}

/// A metric over measured edges that composes along synthetic paths.
///
/// `Sync` is a supertrait because the per-pair sweeps share one metric
/// across the [`crate::pool`] workers; metrics are stateless unit structs,
/// so this costs implementors nothing.
pub trait Metric: Sync {
    /// Short name for reports ("rtt", "loss", …).
    fn name(&self) -> &'static str;

    /// Which cached-artifact family this metric belongs to. Two metrics of
    /// the same kind must produce identical weight matrices, since the
    /// artifact store shares one matrix per kind.
    fn kind(&self) -> MetricKind;

    /// The figure-facing value of an edge (e.g. mean RTT in ms), or `None`
    /// when the edge lacks the needed measurements.
    fn value(&self, e: &Edge<'_>) -> Option<f64>;

    /// The additive shortest-path weight of an edge. Must be a monotone
    /// transform of `value` so that minimizing summed weights minimizes the
    /// composed value.
    fn weight(&self, e: &Edge<'_>) -> Option<f64> {
        self.value(e)
    }

    /// Composes edge values along a path into the path's value.
    fn compose(&self, values: &[f64]) -> f64;

    /// The full sample summary behind `value`, where the metric has one —
    /// the confidence-interval analyses (Figures 7–8, Tables 2–3) need
    /// variances and sample counts, not just means.
    fn summary(&self, e: &Edge<'_>) -> Option<Summary> {
        let _ = e;
        None
    }
}

/// Mean round-trip time, milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rtt;

impl Metric for Rtt {
    fn name(&self) -> &'static str {
        "rtt"
    }

    fn kind(&self) -> MetricKind {
        MetricKind::Rtt
    }

    fn value(&self, e: &Edge<'_>) -> Option<f64> {
        e.rtt.map(|s| s.mean)
    }

    fn compose(&self, values: &[f64]) -> f64 {
        values.iter().sum()
    }

    fn summary(&self, e: &Edge<'_>) -> Option<Summary> {
        e.rtt
    }
}

/// Mean loss rate, assuming independent losses per hop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Loss;

impl Metric for Loss {
    fn name(&self) -> &'static str {
        "loss"
    }

    fn kind(&self) -> MetricKind {
        MetricKind::Loss
    }

    fn value(&self, e: &Edge<'_>) -> Option<f64> {
        e.loss.map(|s| s.mean)
    }

    fn weight(&self, e: &Edge<'_>) -> Option<f64> {
        // −ln(1−p) is additive where survival probabilities multiply; clamp
        // p away from 1 so a fully black edge stays finite but terrible.
        let p = self.value(e)?.min(0.999_999);
        Some(-(1.0 - p).ln())
    }

    fn compose(&self, values: &[f64]) -> f64 {
        1.0 - values.iter().map(|p| 1.0 - p).product::<f64>()
    }

    fn summary(&self, e: &Edge<'_>) -> Option<Summary> {
        e.loss
    }
}

/// Propagation-delay estimate: the 10th percentile of RTT samples (§7.2) —
/// low enough to shed queuing, robust to route-change minima.
#[derive(Debug, Clone, Copy, Default)]
pub struct PropDelay;

impl Metric for PropDelay {
    fn name(&self) -> &'static str {
        "propagation"
    }

    fn kind(&self) -> MetricKind {
        MetricKind::PropDelay
    }

    fn value(&self, e: &Edge<'_>) -> Option<f64> {
        percentile(e.rtt_samples, 10.0)
    }

    fn compose(&self, values: &[f64]) -> f64 {
        values.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detour_stats::Summary;

    fn edge(rtt_samples: &[f64], loss_rate: Option<(f64, u64)>) -> Edge<'_> {
        Edge {
            rtt: Summary::from_slice(rtt_samples),
            rtt_samples,
            loss: loss_rate.map(|(p, n)| Summary {
                n,
                mean: p,
                variance: 0.0,
                min: 0.0,
                max: 1.0,
            }),
            bandwidth: None,
            transfer_rtt: None,
            transfer_loss: None,
            modal_path: None,
        }
    }

    #[test]
    fn rtt_value_is_mean_and_composes_by_sum() {
        let e = edge(&[10.0, 20.0, 30.0], None);
        assert_eq!(Rtt.value(&e), Some(20.0));
        assert_eq!(Rtt.compose(&[20.0, 35.0]), 55.0);
    }

    #[test]
    fn missing_measurements_yield_none() {
        let e = edge(&[], None);
        assert!(Rtt.value(&e).is_none());
        assert!(Loss.value(&e).is_none());
        assert!(PropDelay.value(&e).is_none());
    }

    #[test]
    fn loss_composes_by_independence() {
        let p = Loss.compose(&[0.1, 0.2]);
        assert!((p - (1.0 - 0.9 * 0.8)).abs() < 1e-12);
        assert_eq!(Loss.compose(&[0.0, 0.0]), 0.0);
        assert_eq!(Loss.compose(&[1.0, 0.0]), 1.0);
    }

    #[test]
    fn loss_weight_is_monotone_transform() {
        let lo = edge(&[], Some((0.01, 10)));
        let hi = edge(&[], Some((0.10, 10)));
        assert!(Loss.weight(&lo).unwrap() < Loss.weight(&hi).unwrap());
        // Zero loss → zero weight (identity of the additive domain).
        let zero = edge(&[], Some((0.0, 10)));
        assert_eq!(Loss.weight(&zero), Some(0.0));
    }

    #[test]
    fn loss_weight_additivity_matches_composition() {
        // w(p1) + w(p2) == w(compose(p1, p2)) — the transform's whole point.
        let (p1, p2) = (0.05, 0.15);
        let e1 = edge(&[], Some((p1, 10)));
        let e2 = edge(&[], Some((p2, 10)));
        let sum = Loss.weight(&e1).unwrap() + Loss.weight(&e2).unwrap();
        let composed = Loss.compose(&[p1, p2]);
        let direct = -(1.0f64 - composed).ln();
        assert!((sum - direct).abs() < 1e-12);
    }

    #[test]
    fn total_loss_stays_finite() {
        let black = edge(&[], Some((1.0, 5)));
        let w = Loss.weight(&black).unwrap();
        assert!(w.is_finite());
        assert!(w > 10.0, "a black hole must be strongly avoided");
    }

    #[test]
    fn prop_delay_is_tenth_percentile() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let e = edge(&samples, None);
        let v = PropDelay.value(&e).unwrap();
        assert!((v - 10.9).abs() < 0.2, "got {v}");
        assert!(v < Rtt.value(&e).unwrap(), "prop delay below the mean");
    }
}
