//! The paper experiments and the engine that runs them.
//!
//! Each paper artifact is one report function over the shared [`Study`];
//! [`run`] dispatches an id to it (falling through to [`crate::extras`]
//! for the beyond-the-paper ids), so one call covers every `figures` id.
//! The engine ([`run_all`]) fans the requested experiments out
//! concurrently — each borrowing the same [`detour_core::AnalysisContext`]s,
//! whose `OnceLock`ed matrices build on first use, exactly once, from
//! whichever experiment touches them first — and merges reports in request
//! order, so the output is byte-identical at every thread count (and to
//! the rebuild-per-experiment reference engine in [`crate::reference`]).
//!
//! Each report places the paper's published expectation beside the
//! measured value. The absolute numbers live on a simulated Internet and
//! will not match the 1995–1999 measurements; the *shapes* — who wins, by
//! what rough factor, where the crossovers sit — are the reproduction
//! targets (see EXPERIMENTS.md).

use detour_core::analysis::{
    aspop, cdf, confidence, contribution, episodes, hostremoval, median, propagation, timeofday,
};
use detour_core::{pool, AnalysisContext, Loss, LossComposition, Metric, Rtt, SearchDepth};
use detour_stats::ttest::VerdictCounts;

use crate::render::{cdf_grid, check, header, pct};
use crate::study::{DataKey, Study};

/// The four datasets of the headline RTT/loss figures, in legend order.
const HEADLINE: [DataKey; 4] = [DataKey::Uw1, DataKey::Uw3, DataKey::D2Na, DataKey::D2];

/// All experiment identifiers, in paper order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table2", "table3",
    "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
];

/// The fault-injection experiments (DESIGN.md §6e). Dispatched like the
/// paper set but listed separately: `figures` runs them, the `baseline`
/// perf gates do not (their cost is dataset generation, which is constant
/// across engine thread counts and would dilute the speedup gates).
pub const FAULT_EXPERIMENTS: &[&str] = &["outage_sweep"];

/// Dispatches one experiment by id: the paper set, the fault sweep, then
/// [`crate::extras::run`] for everything else. `None` for an unknown id.
pub fn run(id: &str, study: &Study) -> Option<String> {
    Some(match id {
        "table1" => table1(study),
        "fig1" => fig1(study),
        "fig2" => fig2(study),
        "fig3" => fig3(study),
        "fig4" => fig4(study),
        "fig5" => fig5(study),
        "fig6" => fig6(study),
        "fig7" => fig7(study),
        "fig8" => fig8(study),
        "table2" => table2(study),
        "table3" => table3(study),
        "fig9" => fig9(study),
        "fig10" => fig10(study),
        "fig11" => fig11(study),
        "fig12" => fig12(study),
        "fig13" => fig13(study),
        "fig14" => fig14(study),
        "fig15" => fig15(study),
        "fig16" => fig16(study),
        "outage_sweep" => outage_sweep(study),
        _ => return crate::extras::run(id, study),
    })
}

/// The parallel experiment engine: runs the named experiments concurrently
/// over the shared study (under an `engine/experiments` span) and returns
/// their reports in request order.
///
/// # Panics
/// On an unknown experiment id (callers validate ids first).
pub fn run_all(study: &Study, ids: &[&str]) -> Vec<String> {
    let _span = detour_obs::current().span("engine/experiments");
    pool::parallel_map(ids, |id| {
        run(id, study).unwrap_or_else(|| panic!("unknown experiment {id:?}"))
    })
}

fn rtt_comparisons(cx: &AnalysisContext) -> Vec<detour_core::PathComparison> {
    cdf::compare_all_pairs(cx, &Rtt, SearchDepth::Unrestricted)
}

// ---------------------------------------------------------------------------
// Table 1 — dataset characteristics
// ---------------------------------------------------------------------------

/// Paper Table-1 reference rows: (name, method, days, hosts, measurements,
/// coverage %).
const TABLE1_PAPER: &[(&str, &str, f64, usize, usize, f64)] = &[
    ("D2-NA", "traceroute", 48.0, 22, 14_896, 95.0),
    ("D2", "traceroute", 48.0, 33, 35_109, 97.0),
    ("N2-NA", "tcpanaly", 44.0, 20, 7_582, 86.0),
    ("N2", "tcpanaly", 44.0, 31, 18_274, 88.0),
    ("UW1", "traceroute", 34.0, 36, 54_034, 88.0),
    ("UW3", "traceroute", 7.0, 39, 94_420, 87.0),
    ("UW4-A", "traceroute", 14.0, 15, 216_928, 100.0),
    ("UW4-B", "traceroute", 14.0, 15, 9_169, 100.0),
];

/// Table 1: characteristics of the regenerated datasets vs. the paper's.
pub fn table1(s: &Study) -> String {
    let mut out = header("Table 1: dataset characteristics");
    out.push_str(&format!(
        "{:<8} {:<11} {:>6} {:>12} {:>10} | {:>6} {:>12} {:>10}\n",
        "dataset", "method", "hosts", "meas.", "coverage", "hosts", "meas.", "coverage"
    ));
    out.push_str(&format!(
        "{:<8} {:<11} {:>30} | {:>30}\n",
        "", "", "——— paper ———", "—— measured ——"
    ));
    for (cx, &(name, method, _days, p_hosts, p_meas, p_cov)) in
        s.in_table_order().iter().zip(TABLE1_PAPER)
    {
        let c = cx.dataset().characteristics();
        out.push_str(&format!(
            "{:<8} {:<11} {:>6} {:>12} {:>9.0}% | {:>6} {:>12} {:>9.1}%\n",
            name, method, p_hosts, p_meas, p_cov, c.hosts, c.measurements, c.coverage_pct
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Figures 1-3 — RTT and loss CDFs
// ---------------------------------------------------------------------------

/// Figure 1: CDF of mean-RTT difference (default − best alternate).
pub fn fig1(s: &Study) -> String {
    let mut out = header("Figure 1: RTT improvement CDF (UW1, UW3, D2-NA, D2)");
    // The four datasets analyze independently; the pool merges in input
    // order so the report is identical at any thread count.
    let comparisons = pool::parallel_map(&HEADLINE, |&key| rtt_comparisons(s.ctx(key)));
    let mut curves = Vec::new();
    for (&key, cs) in HEADLINE.iter().zip(&comparisons) {
        let name = &s.ctx(key).dataset().name;
        let summary = cdf::summarize(cs, 20.0);
        out.push_str(&check(
            &format!("{name}: fraction with a faster alternate"),
            "30-55%",
            pct(summary.frac_better),
        ));
        out.push_str(&check(
            &format!("{name}: fraction improved >= 20 ms"),
            "a smaller fraction",
            pct(summary.frac_significantly_better),
        ));
        curves.push((name.clone(), cdf::improvement_cdf(cs)));
    }
    let refs: Vec<(&str, &detour_stats::Cdf)> =
        curves.iter().map(|(n, c)| (n.as_str(), c)).collect();
    out.push_str(&cdf_grid(&refs, -50.0, 150.0, 20));
    out
}

/// Figure 2: CDF of the RTT ratio (default / best alternate).
pub fn fig2(s: &Study) -> String {
    let mut out = header("Figure 2: relative RTT improvement (UW1, UW3, D2-NA, D2)");
    let comparisons = pool::parallel_map(&HEADLINE, |&key| rtt_comparisons(s.ctx(key)));
    let mut curves = Vec::new();
    for (&key, cs) in HEADLINE.iter().zip(&comparisons) {
        let name = &s.ctx(key).dataset().name;
        let ratios = cdf::ratio_cdf(cs);
        out.push_str(&check(
            &format!("{name}: fraction with >= 50% better latency"),
            "~10%",
            pct(ratios.fraction_above(1.5)),
        ));
        curves.push((name.clone(), ratios));
    }
    // The paper notes the D2 vs D2-NA imbalance "largely disappears" in
    // relative terms — visible in the grid below.
    let refs: Vec<(&str, &detour_stats::Cdf)> =
        curves.iter().map(|(n, c)| (n.as_str(), c)).collect();
    out.push_str(&cdf_grid(&refs, 0.0, 3.0, 20));
    out
}

/// Figure 3: CDF of the mean-loss-rate difference.
pub fn fig3(s: &Study) -> String {
    let mut out = header("Figure 3: loss-rate improvement CDF (UW1, UW3, D2-NA, D2)");
    let comparisons = pool::parallel_map(&HEADLINE, |&key| {
        cdf::compare_all_pairs(s.ctx(key), &Loss, SearchDepth::Unrestricted)
    });
    let mut curves = Vec::new();
    for (&key, cs) in HEADLINE.iter().zip(&comparisons) {
        let name = &s.ctx(key).dataset().name;
        let summary = cdf::summarize(cs, 0.05);
        out.push_str(&check(
            &format!("{name}: fraction with a lower-loss alternate"),
            "75-85%",
            pct(summary.frac_better),
        ));
        out.push_str(&check(
            &format!("{name}: fraction improved >= 5 pct points"),
            "5-50% (D2 highest)",
            pct(summary.frac_significantly_better),
        ));
        curves.push((name.clone(), cdf::improvement_cdf(cs)));
    }
    let refs: Vec<(&str, &detour_stats::Cdf)> =
        curves.iter().map(|(n, c)| (n.as_str(), c)).collect();
    out.push_str(&cdf_grid(&refs, -0.05, 0.15, 20));
    out
}

// ---------------------------------------------------------------------------
// Figures 4-5 — bandwidth
// ---------------------------------------------------------------------------

/// Figure 4: CDF of the bandwidth difference (best one-hop alternate −
/// default), optimistic and pessimistic loss composition.
pub fn fig4(s: &Study) -> String {
    let mut out = header("Figure 4: bandwidth improvement CDF (N2, N2-NA)");
    let mut curves = Vec::new();
    for key in [DataKey::N2, DataKey::N2Na] {
        let cx = s.ctx(key);
        let name = &cx.dataset().name;
        for mode in [LossComposition::Pessimistic, LossComposition::Optimistic] {
            let cs = cdf::compare_all_pairs_bandwidth(cx, mode);
            let c = cdf::improvement_cdf(&cs);
            out.push_str(&check(
                &format!("{name} {}: fraction with more bandwidth", mode.label()),
                "70-80%",
                pct(c.fraction_above(0.0)),
            ));
            curves.push((format!("{name} {}", mode.label()), c));
        }
    }
    let refs: Vec<(&str, &detour_stats::Cdf)> =
        curves.iter().map(|(n, c)| (n.as_str(), c)).collect();
    out.push_str(&cdf_grid(&refs, -100.0, 200.0, 20));
    out
}

/// Figure 5: CDF of the bandwidth ratio (alternate / default).
pub fn fig5(s: &Study) -> String {
    let mut out = header("Figure 5: relative bandwidth improvement (N2, N2-NA)");
    let mut curves = Vec::new();
    for key in [DataKey::N2, DataKey::N2Na] {
        let cx = s.ctx(key);
        let name = &cx.dataset().name;
        for mode in [LossComposition::Pessimistic, LossComposition::Optimistic] {
            let cs = cdf::compare_all_pairs_bandwidth(cx, mode);
            let ratios = cdf::ratio_cdf(&cs);
            out.push_str(&check(
                &format!("{name} {}: fraction with >= 3x bandwidth", mode.label()),
                "10-20%",
                pct(ratios.fraction_above(3.0)),
            ));
            curves.push((format!("{name} {}", mode.label()), ratios));
        }
    }
    let refs: Vec<(&str, &detour_stats::Cdf)> =
        curves.iter().map(|(n, c)| (n.as_str(), c)).collect();
    out.push_str(&cdf_grid(&refs, 0.0, 6.0, 20));
    out
}

// ---------------------------------------------------------------------------
// Figure 6 — mean vs median
// ---------------------------------------------------------------------------

/// Figure 6: mean-based vs convolved-median-based improvement (D2-NA,
/// one-hop alternates).
pub fn fig6(s: &Study) -> String {
    let mut out = header("Figure 6: mean vs median RTT improvement (D2-NA, one-hop)");
    let cmp = median::analyze(s.ctx(DataKey::D2Na));
    let gap = median::max_cdf_gap(&cmp, -50.0, 150.0, 200);
    // The paper's "negligible difference" is a visual judgment on a
    // ~200 ms-wide axis, so report the *horizontal* displacement between
    // the curves (how many ms apart matching quantiles sit), not just the
    // KS-style vertical gap, which exaggerates any shift where the CDF is
    // steep.
    let hshift = |q: f64| {
        cmp.mean_based.inverse(q).unwrap_or(0.0) - cmp.median_based.inverse(q).unwrap_or(0.0)
    };
    out.push_str(&check(
        "horizontal offset between curves at the quartiles",
        "negligible (~a few ms)",
        format!(
            "{:+.1} / {:+.1} / {:+.1} ms",
            hshift(0.25),
            hshift(0.5),
            hshift(0.75)
        ),
    ));
    out.push_str(&check(
        "max vertical gap between mean and median CDFs",
        "small",
        format!("{gap:.3}"),
    ));
    // The conclusion-level robustness check: does either statistic change
    // the headline fraction of improvable pairs?
    out.push_str(&check(
        "fraction improved, mean-based vs median-based",
        "same conclusion",
        format!(
            "{} vs {}",
            pct(cmp.mean_based.fraction_above(0.0)),
            pct(cmp.median_based.fraction_above(0.0)),
        ),
    ));
    out.push_str(&cdf_grid(
        &[("mean", &cmp.mean_based), ("median", &cmp.median_based)],
        -50.0,
        150.0,
        20,
    ));
    out
}

// ---------------------------------------------------------------------------
// Figures 7-8 and Tables 2-3 — confidence intervals
// ---------------------------------------------------------------------------

fn interval_report(cx: &AnalysisContext, metric: &impl Metric, unit: &str) -> String {
    let series = confidence::interval_cdf_series(cx, metric, 0.95);
    let mut out = String::new();
    out.push_str(&format!(
        "{:>12} {:>10} {:>12}   ({} improvement, every 8th path)\n",
        "improvement", "fraction", "95% ±", unit
    ));
    for (i, &(impr, frac, hw)) in series.iter().enumerate() {
        if i % 8 == 0 {
            out.push_str(&format!("{impr:>12.3} {frac:>10.3} {hw:>12.3}\n"));
        }
    }
    out
}

/// Figure 7: the Figure-1 CDF for UW3 with 95 % confidence error bars.
pub fn fig7(s: &Study) -> String {
    let mut out = header("Figure 7: RTT improvement with 95% CIs (UW3)");
    out.push_str(&check(
        "most paths have relatively tight error bounds",
        "yes",
        "see half-widths below".to_string(),
    ));
    out.push_str(&interval_report(s.ctx(DataKey::Uw3), &Rtt, "ms"));
    out
}

/// Figure 8: the loss-rate CDF for UW3 with 95 % confidence error bars.
pub fn fig8(s: &Study) -> String {
    let mut out = header("Figure 8: loss improvement with 95% CIs (UW3)");
    out.push_str(&check(
        "loss error bars are wider than RTT's (binary samples)",
        "yes",
        "see half-widths below".to_string(),
    ));
    out.push_str(&interval_report(s.ctx(DataKey::Uw3), &Loss, "rate"));
    out
}

fn verdict_row(name: &str, counts: &VerdictCounts, with_zero: bool) -> String {
    let (bet, ind, wor, zer) = counts.percentages();
    if with_zero {
        format!("{name:<8} {bet:>8.0}% {ind:>14.0}% {wor:>7.0}% {zer:>6.0}%\n")
    } else {
        format!("{name:<8} {bet:>8.0}% {ind:>14.0}% {wor:>7.0}%\n")
    }
}

/// Table 2: t-test classification for round-trip time.
pub fn table2(s: &Study) -> String {
    let mut out = header("Table 2: RTT t-test at 95% (UW1, UW3, D2-NA, D2)");
    out.push_str(&check(
        "alternate significantly better",
        "20-32%",
        "per-dataset rows below".to_string(),
    ));
    out.push_str(&format!(
        "{:<8} {:>9} {:>15} {:>8}\n",
        "dataset", "better", "indeterminate", "worse"
    ));
    let counts = pool::parallel_map(&HEADLINE, |&key| {
        confidence::verdict_table(s.ctx(key), &Rtt, 0.95)
    });
    for (&key, c) in HEADLINE.iter().zip(&counts) {
        out.push_str(&verdict_row(&s.ctx(key).dataset().name, c, false));
    }
    out
}

/// Table 3: t-test classification for loss rate (with the "zero" bucket).
pub fn table3(s: &Study) -> String {
    let mut out = header("Table 3: loss t-test at 95% (UW1, UW3, D2-NA, D2)");
    out.push_str(&format!(
        "{:<8} {:>9} {:>15} {:>8} {:>7}\n",
        "dataset", "better", "indeterminate", "worse", "zero"
    ));
    let counts = pool::parallel_map(&HEADLINE, |&key| {
        confidence::verdict_table(s.ctx(key), &Loss, 0.95)
    });
    for (&key, c) in HEADLINE.iter().zip(&counts) {
        out.push_str(&verdict_row(&s.ctx(key).dataset().name, c, true));
    }
    out
}

// ---------------------------------------------------------------------------
// Figures 9-10 — time of day
// ---------------------------------------------------------------------------

fn timeofday_report(cx: &AnalysisContext, metric: &impl Metric, lo: f64, hi: f64) -> String {
    let slices = timeofday::improvement_by_slice(cx, metric, SearchDepth::Unrestricted);
    let mut out = String::new();
    for (slice, cdf) in &slices {
        out.push_str(&format!(
            "  {:<12} pairs: {:>5}  better: {:>4}  median impr: {:>8.3}\n",
            slice.label(),
            cdf.len(),
            pct(cdf.fraction_above(0.0)),
            cdf.inverse(0.5).unwrap_or(0.0),
        ));
    }
    let refs: Vec<(&str, &detour_stats::Cdf)> =
        slices.iter().map(|(s, c)| (s.label(), c)).collect();
    out.push_str(&cdf_grid(&refs, lo, hi, 16));
    out
}

/// Figure 9: RTT improvement by time of day (UW3).
pub fn fig9(s: &Study) -> String {
    let mut out = header("Figure 9: RTT improvement by time of day (UW3)");
    out.push_str(&check(
        "effect occurs in every slice; strongest 06-12 PST",
        "yes",
        "see slice medians".to_string(),
    ));
    out.push_str(&timeofday_report(s.ctx(DataKey::Uw3), &Rtt, -50.0, 100.0));
    out
}

/// Figure 10: loss improvement by time of day (UW3).
pub fn fig10(s: &Study) -> String {
    let mut out = header("Figure 10: loss improvement by time of day (UW3)");
    out.push_str(&check(
        "effect occurs in every slice; weekend/night weakest",
        "yes",
        "see slice medians".to_string(),
    ));
    out.push_str(&timeofday_report(s.ctx(DataKey::Uw3), &Loss, -0.05, 0.15));
    out
}

// ---------------------------------------------------------------------------
// Figure 11 — episodes vs long-term average
// ---------------------------------------------------------------------------

/// Figure 11: UW4-B time-averaged vs UW4-A pair-averaged vs unaveraged.
pub fn fig11(s: &Study) -> String {
    let mut out = header("Figure 11: long-term average vs simultaneous (UW4)");
    let a = episodes::analyze(s.ctx(DataKey::Uw4A), s.ctx(DataKey::Uw4B), &Rtt);
    out.push_str(&format!("  episodes analyzed: {}\n", a.episodes));
    out.push_str(&check(
        "simultaneous finds (slightly) more improvement",
        "pair-avg >= time-avg",
        format!(
            "{} vs {}",
            pct(a.pair_averaged.fraction_above(0.0)),
            pct(a.time_averaged.fraction_above(0.0)),
        ),
    ));
    let tail_un =
        a.unaveraged.inverse(0.99).unwrap_or(0.0) - a.unaveraged.inverse(0.01).unwrap_or(0.0);
    let tail_pa =
        a.pair_averaged.inverse(0.99).unwrap_or(0.0) - a.pair_averaged.inverse(0.01).unwrap_or(0.0);
    out.push_str(&check(
        "unaveraged tail much broader than pair-averaged",
        "yes",
        format!("p1-p99 span {tail_un:.0} ms vs {tail_pa:.0} ms"),
    ));
    out.push_str(&cdf_grid(
        &[
            ("UW4-B", &a.time_averaged),
            ("pair-avg A", &a.pair_averaged),
            ("unavg A", &a.unaveraged),
        ],
        -100.0,
        150.0,
        20,
    ));
    out
}

// ---------------------------------------------------------------------------
// Figures 12-14 — hypothesis 1: is it a few hosts/ASes?
// ---------------------------------------------------------------------------

/// Figure 12: greedy removal of the "top ten" hosts (UW3, RTT).
pub fn fig12(s: &Study) -> String {
    let mut out = header("Figure 12: removing the top-ten hosts (UW3)");
    let a = hostremoval::greedy_removal(s.ctx(DataKey::Uw3), &Rtt, 10);
    let (before, after) = hostremoval::improved_fractions(&a);
    out.push_str(&format!("  removed hosts: {:?}\n", a.removed));
    out.push_str(&check(
        "effect survives removing the ten most influential hosts",
        "curve shifts only modestly",
        format!("better {} -> {}", pct(before), pct(after)),
    ));
    out.push_str(&cdf_grid(
        &[("all hosts", &a.full), ("without top ten", &a.reduced)],
        -50.0,
        150.0,
        20,
    ));
    out
}

/// Figure 13: normalized per-host improvement contribution (UW3, RTT).
pub fn fig13(s: &Study) -> String {
    let mut out = header("Figure 13: per-host improvement contribution (UW3)");
    let a = contribution::analyze(s.ctx(DataKey::Uw3), &Rtt);
    out.push_str(&check(
        "no heavy tail (no host with an outsized contribution)",
        "max share far below 1",
        format!("max single-host share {:.2}", contribution::max_share(&a)),
    ));
    out.push_str(&cdf_grid(&[("contribution", &a.cdf)], 0.0, 400.0, 16));
    out
}

/// Figure 14: AS appearances in default vs best alternate paths (UW1, RTT).
pub fn fig14(s: &Study) -> String {
    let mut out = header("Figure 14: AS scatter, default vs alternate (UW1)");
    let pts = aspop::analyze(s.ctx(DataKey::Uw1), &Rtt);
    out.push_str(&check(
        "no AS substantially over-represented on either axis",
        "points hug the diagonal",
        format!(
            "log-correlation {:.2} over {} ASes",
            aspop::log_correlation(&pts).unwrap_or(f64::NAN),
            pts.len()
        ),
    ));
    out.push_str(&format!(
        "{:>8} {:>10} {:>11}\n",
        "AS", "default", "alternate"
    ));
    for p in &pts {
        out.push_str(&format!(
            "{:>8} {:>10} {:>11}\n",
            p.asn, p.default_count, p.alternate_count
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Figures 15-16 — hypothesis 2: congestion vs propagation delay
// ---------------------------------------------------------------------------

/// Figure 15: propagation-delay improvement CDF vs the mean-RTT CDF (UW3).
pub fn fig15(s: &Study) -> String {
    let mut out = header("Figure 15: propagation vs mean-RTT improvement (UW3)");
    let c = propagation::propagation_cdfs(s.ctx(DataKey::Uw3));
    out.push_str(&check(
        "superior alternates exist by propagation delay alone",
        "~50% of paths",
        pct(c.propagation.fraction_above(0.0)),
    ));
    out.push_str(&check(
        "magnitude is cut vs mean RTT (upper tail of improvements)",
        "substantially smaller",
        format!(
            "p90 {:.1} ms vs {:.1} ms",
            c.propagation.inverse(0.9).unwrap_or(0.0),
            c.mean_rtt.inverse(0.9).unwrap_or(0.0),
        ),
    ));
    out.push_str(&cdf_grid(
        &[("propagation", &c.propagation), ("mean rtt", &c.mean_rtt)],
        -100.0,
        150.0,
        20,
    ));
    out
}

/// Figure 16: Δtotal vs Δpropagation decomposition and six-group census
/// (UW3).
pub fn fig16(s: &Study) -> String {
    let mut out = header("Figure 16: propagation/queuing decomposition (UW3)");
    let d = propagation::decompose(s.ctx(DataKey::Uw3));
    out.push_str(&format!(
        "  groups 1..6: {:?}  (n = {})\n",
        d.group_counts,
        d.points.len()
    ));
    out.push_str(&check(
        "group 3 nearly empty (few default wins with worse prop)",
        "very few paths",
        format!("{} paths", d.group_counts[2]),
    ));
    out.push_str(&check(
        "group 6 well populated (alternates dodging congestion)",
        "much more than group 3",
        format!("{} vs {}", d.group_counts[5], d.group_counts[2]),
    ));
    out.push_str(&check(
        "neither congestion nor propagation dominates alone",
        "mixed groups",
        format!(
            "typical(1,4): {}, prop-heavy(2,5): {}, queue-dodging(6): {}",
            d.group_counts[0] + d.group_counts[3],
            d.group_counts[1] + d.group_counts[4],
            d.group_counts[5],
        ),
    ));
    out
}

// ---------------------------------------------------------------------------
// outage_sweep — detour prevalence under injected failures (DESIGN.md §6e)
// ---------------------------------------------------------------------------

/// The fault-intensity grid the sweep walks. `0` is the fault-free
/// control; `1` matches the per-class defaults of
/// [`detour_faults::FaultConfig::with_intensity`]; the geometric tail
/// pushes into the regime where host downtime starves pairs below the
/// paper's minimum-sample filter.
const SWEEP_INTENSITIES: [f64; 4] = [0.0, 1.0, 4.0, 16.0];

/// Seed for the sweep's fault schedules and its simulated Internet.
const SWEEP_SEED: u64 = 0x6f75_7467; // "outg"

/// A small UW3-like collection the sweep regenerates per intensity: one
/// simulated day, a dozen NA traceroute hosts, paired exponential
/// requests. Small enough that four generations stay test-affordable,
/// long enough that ~1/day failure processes actually fire.
fn sweep_spec(faults: detour_faults::FaultConfig) -> detour_datasets::DatasetSpec {
    detour_datasets::DatasetSpec {
        name: "SWEEP",
        era: detour_netsim::Era::Y1999,
        network_seed: SWEEP_SEED,
        campaign_seed: SWEEP_SEED ^ 1,
        duration_days: 1.0,
        n_hosts: 12,
        n_hosts_na: 12,
        schedule: detour_measure::Schedule::PairwiseExponentialPaired { mean_s: 20.0 },
        campaign: detour_measure::CampaignConfig::traceroute(),
        policy: detour_measure::RateLimitPolicy::FilterHosts,
        // The paper's filter. The schedule budgets ~2x this per directed
        // pair, so the fault-free control passes comfortably while heavy
        // host downtime pushes pairs below it — which is the effect the
        // sweep exists to surface.
        min_samples: 30,
        prescreened: false,
        faults,
    }
}

/// Sweep: how the paper's headline result — 30-80 % of pairs have a
/// better alternate — degrades (or does not) as link, router, BGP, host,
/// and storm failures intensify. Each intensity regenerates the same
/// small collection with only the fault knob turned, then reruns the
/// Figure-1 analysis on whatever the degraded campaign still measured.
pub fn outage_sweep(_s: &Study) -> String {
    let mut out = header("Sweep: detour prevalence vs failure intensity");
    // Each intensity is an independent generate→analyze chain; the pool
    // merges in input order so the report is byte-identical at any thread
    // count (and the fault schedules themselves are pure functions of the
    // seed, so the whole table replays exactly).
    let rows = pool::parallel_map(&SWEEP_INTENSITIES, |&intensity| {
        let faults = detour_faults::FaultConfig::with_intensity(SWEEP_SEED ^ 2, intensity);
        let mut ds = detour_datasets::generate(&sweep_spec(faults), detour_datasets::Scale::full());
        ds.name = format!("SWEEP-x{intensity}");
        let cx = AnalysisContext::from_dataset(&ds);
        let deg = cx.degradation();
        let cs = rtt_comparisons(&cx);
        let summary = cdf::summarize(&cs, 20.0);
        (intensity, deg, cs.len(), summary)
    });
    out.push_str(&format!(
        "{:>10} {:>8} {:>9} {:>9} {:>8} {:>10}  {}\n",
        "intensity", "compared", "starved", "isolated", "better", ">=20ms", "health"
    ));
    for (intensity, deg, pairs, summary) in &rows {
        let (better, signif) = if *pairs == 0 {
            ("-".to_string(), "-".to_string())
        } else {
            (
                pct(summary.frac_better),
                pct(summary.frac_significantly_better),
            )
        };
        out.push_str(&format!(
            "{:>10} {:>8} {:>9} {:>9} {:>8} {:>10}  {}\n",
            intensity,
            pairs,
            deg.starved_pairs,
            deg.isolated_hosts,
            better,
            signif,
            deg.summary(),
        ));
    }
    let control = &rows[0];
    let heaviest = rows.last().expect("non-empty grid");
    out.push_str(&check(
        "fault-free control inside the paper's headline band",
        "30-80% better",
        pct(control.3.frac_better),
    ));
    out.push_str(&check(
        "faults starve pairs rather than silently vanishing",
        "starved/isolated grow with intensity",
        format!(
            "starved {} -> {}, isolated {} -> {}",
            control.1.starved_pairs,
            heaviest.1.starved_pairs,
            control.1.isolated_hosts,
            heaviest.1.isolated_hosts,
        ),
    ));
    out.push_str(&check(
        "the detour phenomenon survives on the measured remainder",
        "better-fraction stays in band",
        pct(heaviest.3.frac_better),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bundle;
    use detour_datasets::Scale;

    #[test]
    fn every_experiment_runs_on_a_reduced_study() {
        let s = Study::from_bundle(Bundle::generate(Scale::reduced(8, 24)));
        for id in ALL_EXPERIMENTS {
            let report = run(id, &s).unwrap_or_else(|| panic!("unknown id {id}"));
            assert!(
                report.len() > 50,
                "{id} report suspiciously short:\n{report}"
            );
        }
    }

    #[test]
    fn unknown_ids_return_none() {
        let s = Study::from_bundle(Bundle::generate(Scale::reduced(8, 24)));
        assert!(run("fig99", &s).is_none());
    }

    /// Sum of every `context/*_builds` counter — the old scalar
    /// `artifact_builds` reading, reconstructed from the recorder.
    fn total_builds(rec: &detour_obs::Recorder) -> u64 {
        [
            "context/table_builds",
            "context/weights_rtt_builds",
            "context/weights_loss_builds",
            "context/weights_prop_builds",
            "context/bandwidth_builds",
        ]
        .iter()
        .map(|c| rec.counter(c))
        .sum()
    }

    #[test]
    fn engine_builds_each_touched_artifact_once() {
        let rec = detour_obs::Recorder::new();
        let _obs = detour_obs::install(rec.clone());
        let s = Study::from_bundle(Bundle::generate(Scale::reduced(8, 24)));
        // Eight contexts eagerly build one table each.
        assert_eq!(rec.counter("context/table_builds"), 8);
        assert_eq!(total_builds(&rec), 8);
        let reports = run_all(&s, &["fig1", "fig2"]);
        assert_eq!(reports.len(), 2);
        // fig1 + fig2 share the same four RTT matrices, built on first use by
        // whichever experiment gets there first; nothing builds twice.
        assert_eq!(rec.counter("context/weights_rtt_builds"), 4);
        assert_eq!(total_builds(&rec), 12);
        run_all(&s, &["fig1"]);
        assert_eq!(total_builds(&rec), 12, "warm rerun builds nothing");
    }

    #[test]
    fn engine_report_matches_sequential_runs() {
        let s = Study::from_bundle(Bundle::generate(Scale::reduced(8, 24)));
        let ids = ["table1", "fig1", "fig9"];
        let engine = run_all(&s, &ids);
        for (id, report) in ids.iter().zip(&engine) {
            assert_eq!(run(id, &s).as_deref(), Some(report.as_str()), "{id}");
        }
    }
}
