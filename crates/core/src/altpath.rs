//! Best-alternate-path search.
//!
//! Paper §4.1: "for each pair of hosts, A and B, we remove the edge
//! connecting them and perform a shortest-path computation between A and B
//! using the remaining edges. The result is the best alternate path between
//! A and B using other Internet paths as constituent 'hops'."
//!
//! Three searches:
//! * [`best_alternate`] — unrestricted Dijkstra on a metric's additive
//!   weights (the default for RTT/loss figures);
//! * [`best_alternate_one_hop`] — detours through exactly one intermediate
//!   host (used where the paper limits itself "to keep the computational
//!   costs reasonable": medians, Figure 6);
//! * [`best_alternate_bandwidth`] — the N2 bandwidth search, one-hop only,
//!   composing transfer RTT/loss through the Mathis model.

use crate::compose::LossComposition;
use crate::kernel::{BandwidthMatrix, DijkstraScratch, WeightMatrix};
use crate::metric::Metric;
use crate::Pair;
use detour_measure::{HostId, PairTable};

/// How far alternate paths may detour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchDepth {
    /// Any number of intermediate hosts (Dijkstra).
    Unrestricted,
    /// Exactly one intermediate host.
    OneHop,
}

/// Outcome of comparing one pair's default path to its best alternate.
#[derive(Debug, Clone, PartialEq)]
pub struct PathComparison {
    /// The pair compared.
    pub pair: Pair,
    /// Metric value of the default (direct) path.
    pub default_value: f64,
    /// Metric value of the best alternate path.
    pub alternate_value: f64,
    /// Intermediate hosts of the best alternate, in order.
    pub via: Vec<HostId>,
    /// Whether smaller values are better for this metric.
    pub lower_is_better: bool,
}

impl PathComparison {
    /// Signed improvement, oriented so that **positive means the alternate
    /// is better** — the x-axis of Figures 1, 3, 6–12, 15.
    pub fn improvement(&self) -> f64 {
        if self.lower_is_better {
            self.default_value - self.alternate_value
        } else {
            self.alternate_value - self.default_value
        }
    }

    /// Quality ratio, oriented so that **> 1 means the alternate is
    /// better** — the x-axis of Figures 2 and 5.
    pub fn ratio(&self) -> f64 {
        let (num, den) = if self.lower_is_better {
            (self.default_value, self.alternate_value)
        } else {
            (self.alternate_value, self.default_value)
        };
        if den == 0.0 {
            f64::INFINITY
        } else {
            num / den
        }
    }

    /// True when the best alternate strictly beats the default.
    pub fn alternate_wins(&self) -> bool {
        self.improvement() > 0.0
    }
}

/// Unrestricted best alternate for an additive metric: Dijkstra from
/// `pair.src` to `pair.dst` with the direct edge removed.
///
/// Returns `None` when the pair has no measured direct edge (nothing to
/// compare against) or no alternate route exists.
///
/// Convenience single-pair entry point: builds a one-shot
/// [`WeightMatrix`] and runs the flat kernel search
/// ([`crate::kernel::best_alternate_masked`]). All-pairs loops should
/// build the matrix once and call the kernel directly — the sweeps in
/// [`crate::analysis`] do.
pub fn best_alternate(
    table: &PairTable,
    pair: Pair,
    metric: &impl Metric,
) -> Option<PathComparison> {
    let s = table.host_index(pair.src)?;
    let d = table.host_index(pair.dst)?;
    let m = WeightMatrix::build(table, metric);
    crate::kernel::best_alternate_masked(
        &m,
        &m.no_mask(),
        s,
        d,
        metric,
        &mut DijkstraScratch::new(),
    )
}

/// Best alternate through exactly one intermediate host. Single-pair
/// convenience wrapper over [`crate::kernel::best_alternate_one_hop_masked`].
pub fn best_alternate_one_hop(
    table: &PairTable,
    pair: Pair,
    metric: &impl Metric,
) -> Option<PathComparison> {
    let s = table.host_index(pair.src)?;
    let d = table.host_index(pair.dst)?;
    let m = WeightMatrix::build(table, metric);
    crate::kernel::best_alternate_one_hop_masked(&m, &m.no_mask(), s, d, metric)
}

/// The N2 bandwidth search (paper §5): one-hop alternates whose bandwidth
/// is derived from constituent transfer RTTs and losses via the Mathis
/// model; the default path's value is its *measured* bandwidth.
/// Single-pair convenience wrapper over
/// [`crate::kernel::best_alternate_bandwidth_masked`].
pub fn best_alternate_bandwidth(
    table: &PairTable,
    pair: Pair,
    mode: LossComposition,
) -> Option<PathComparison> {
    let s = table.host_index(pair.src)?;
    let d = table.host_index(pair.dst)?;
    let bm = BandwidthMatrix::build(table);
    crate::kernel::best_alternate_bandwidth_masked(&bm, &bm.no_mask(), s, d, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{Loss, Rtt};
    use detour_measure::record::HostMeta;
    use detour_measure::{Dataset, ProbeSample};

    /// Builds a dataset whose mean RTTs are exactly the provided matrix
    /// (NaN = unmeasured), with `reps` identical probes per edge.
    fn dataset_from_rtt_matrix(matrix: &[&[f64]], reps: usize) -> Dataset {
        let n = matrix.len();
        let hosts = (0..n as u32)
            .map(|id| HostMeta {
                id: HostId(id),
                name: format!("h{id}"),
                asn: id as u16,
                truly_rate_limited: false,
            })
            .collect();
        let mut probes = Vec::new();
        for (i, row) in matrix.iter().enumerate() {
            for (j, &rtt) in row.iter().enumerate() {
                if i == j || rtt.is_nan() {
                    continue;
                }
                for k in 0..reps {
                    probes.push(ProbeSample {
                        src: HostId(i as u32),
                        dst: HostId(j as u32),
                        t_s: k as f64,
                        probe_index: 0,
                        rtt_ms: Some(rtt),
                        loss_eligible: true,
                        episode: None,
                        path_idx: 0,
                    });
                }
            }
        }
        Dataset {
            name: "M".into(),
            hosts,
            probes,
            transfers: vec![],
            as_paths: vec![vec![0]],
            duration_s: 100.0,
            detected_rate_limited: vec![],
            starved_pairs: 0,
        }
    }

    const X: f64 = f64::NAN;

    #[test]
    fn finds_the_obvious_detour() {
        // 0→2 direct costs 100; 0→1→2 costs 30.
        let ds = dataset_from_rtt_matrix(
            &[&[0.0, 10.0, 100.0], &[10.0, 0.0, 20.0], &[100.0, 20.0, 0.0]],
            3,
        );
        let g = PairTable::build(&ds);
        let cmp = best_alternate(
            &g,
            Pair {
                src: HostId(0),
                dst: HostId(2),
            },
            &Rtt,
        )
        .unwrap();
        assert_eq!(cmp.default_value, 100.0);
        assert_eq!(cmp.alternate_value, 30.0);
        assert_eq!(cmp.via, vec![HostId(1)]);
        assert!(cmp.alternate_wins());
        assert!((cmp.improvement() - 70.0).abs() < 1e-12);
        assert!((cmp.ratio() - 100.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn multi_hop_detours_are_found() {
        // Chain 0→1→2→3 each 10; direct 0→3 = 100.
        let ds = dataset_from_rtt_matrix(
            &[
                &[0.0, 10.0, X, 100.0],
                &[X, 0.0, 10.0, X],
                &[X, X, 0.0, 10.0],
                &[X, X, X, 0.0],
            ],
            3,
        );
        let g = PairTable::build(&ds);
        let cmp = best_alternate(
            &g,
            Pair {
                src: HostId(0),
                dst: HostId(3),
            },
            &Rtt,
        )
        .unwrap();
        assert_eq!(cmp.alternate_value, 30.0);
        assert_eq!(cmp.via, vec![HostId(1), HostId(2)]);
    }

    #[test]
    fn direct_edge_is_excluded_from_the_search() {
        // Only the direct edge exists: no alternate.
        let ds = dataset_from_rtt_matrix(&[&[0.0, 10.0], &[10.0, 0.0]], 3);
        let g = PairTable::build(&ds);
        assert!(best_alternate(
            &g,
            Pair {
                src: HostId(0),
                dst: HostId(1)
            },
            &Rtt
        )
        .is_none());
    }

    #[test]
    fn alternates_can_be_worse() {
        // Direct 0→2 = 10; detour costs 40.
        let ds = dataset_from_rtt_matrix(
            &[&[0.0, 20.0, 10.0], &[20.0, 0.0, 20.0], &[10.0, 20.0, 0.0]],
            3,
        );
        let g = PairTable::build(&ds);
        let cmp = best_alternate(
            &g,
            Pair {
                src: HostId(0),
                dst: HostId(2),
            },
            &Rtt,
        )
        .unwrap();
        assert!(!cmp.alternate_wins());
        assert!(cmp.improvement() < 0.0);
        assert!(cmp.ratio() < 1.0);
    }

    #[test]
    fn one_hop_search_agrees_with_dijkstra_on_triangles() {
        let ds = dataset_from_rtt_matrix(
            &[&[0.0, 15.0, 90.0], &[15.0, 0.0, 25.0], &[90.0, 25.0, 0.0]],
            3,
        );
        let g = PairTable::build(&ds);
        let pair = Pair {
            src: HostId(0),
            dst: HostId(2),
        };
        let a = best_alternate(&g, pair, &Rtt).unwrap();
        let b = best_alternate_one_hop(&g, pair, &Rtt).unwrap();
        assert_eq!(a.alternate_value, b.alternate_value);
        assert_eq!(a.via, b.via);
    }

    #[test]
    fn one_hop_search_cannot_chain() {
        // The only improvement needs two intermediate hosts.
        let ds = dataset_from_rtt_matrix(
            &[
                &[0.0, 10.0, X, 100.0],
                &[X, 0.0, 10.0, X],
                &[X, X, 0.0, 10.0],
                &[X, X, X, 0.0],
            ],
            3,
        );
        let g = PairTable::build(&ds);
        let pair = Pair {
            src: HostId(0),
            dst: HostId(3),
        };
        assert!(best_alternate_one_hop(&g, pair, &Rtt).is_none());
        assert!(best_alternate(&g, pair, &Rtt).is_some());
    }

    #[test]
    fn dijkstra_matches_brute_force_on_random_graphs() {
        use detour_prng::Rng;
        use detour_prng::Xoshiro256pp;
        let mut rng = Xoshiro256pp::seed_from_u64(33);
        for _ in 0..20 {
            let n = rng.gen_range(4..7);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    (0..n)
                        .map(|j| {
                            if i == j || rng.gen_bool(0.2) {
                                f64::NAN
                            } else {
                                rng.gen_range(1.0..100.0f64).round()
                            }
                        })
                        .collect()
                })
                .collect();
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            let ds = dataset_from_rtt_matrix(&refs, 2);
            let g = PairTable::build(&ds);
            for pair in g.pairs() {
                let got = best_alternate(&g, pair, &Rtt);
                let expect = brute_force_best(&g, pair);
                match (got, expect) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert!((a.alternate_value - b).abs() < 1e-9, "pair {pair:?}")
                    }
                    (a, b) => panic!("mismatch for {pair:?}: {a:?} vs {b:?}"),
                }
            }
        }
    }

    /// Exhaustive shortest alternate by permutation search (n ≤ 7).
    fn brute_force_best(g: &PairTable, pair: Pair) -> Option<f64> {
        let s = g.host_index(pair.src)?;
        let d = g.host_index(pair.dst)?;
        g.edge(s, d)?;
        let n = g.len();
        let mut best: Option<f64> = None;
        // DFS over simple paths.
        #[allow(clippy::too_many_arguments)]
        fn dfs(
            g: &PairTable,
            cur: usize,
            d: usize,
            s: usize,
            cost: f64,
            visited: &mut Vec<bool>,
            best: &mut Option<f64>,
            first_step: bool,
        ) {
            if cur == d {
                if best.is_none_or(|b| cost < b) {
                    *best = Some(cost);
                }
                return;
            }
            for v in 0..g.len() {
                if visited[v] {
                    continue;
                }
                if first_step && cur == s && v == d {
                    continue; // excluded direct edge
                }
                if let Some(e) = g.edge(cur, v) {
                    if let Some(m) = e.rtt {
                        visited[v] = true;
                        dfs(g, v, d, s, cost + m.mean, visited, best, false);
                        visited[v] = false;
                    }
                }
            }
        }
        let mut visited = vec![false; n];
        visited[s] = true;
        dfs(g, s, d, s, 0.0, &mut visited, &mut best, true);
        best
    }

    #[test]
    fn loss_search_picks_the_cleanest_detour() {
        // Direct 0→2 has 20 % loss; detour via 1 has 1 % per hop.
        let mut ds = dataset_from_rtt_matrix(
            &[&[0.0, 50.0, 50.0], &[50.0, 0.0, 50.0], &[50.0, 50.0, 0.0]],
            100,
        );
        // Overwrite losses: make 0→2 lossy by marking 20 % of its probes lost.
        let mut count = 0;
        for p in ds.probes.iter_mut() {
            if p.src == HostId(0) && p.dst == HostId(2) {
                count += 1;
                if count % 5 == 0 {
                    p.rtt_ms = None;
                }
            }
        }
        let g = PairTable::build(&ds);
        let cmp = best_alternate(
            &g,
            Pair {
                src: HostId(0),
                dst: HostId(2),
            },
            &Loss,
        )
        .unwrap();
        assert!((cmp.default_value - 0.2).abs() < 1e-9);
        assert_eq!(cmp.alternate_value, 0.0);
        assert!(cmp.alternate_wins());
    }
}
