//! Columnar per-pair aggregates: the dataset's measurement graph.
//!
//! Paper §4.1: "We identify alternate paths by constructing a weighted
//! graph in which each host is represented by a vertex and each path is
//! represented by a corresponding edge. … the weight of the edge is set
//! according to the long term time average of the measurements (round-trip
//! time, loss rate, or bandwidth) taken along that path."
//!
//! A [`PairTable`] is that graph, materialized exactly once per
//! [`Dataset`] (or probe subset): for every **directed** host pair —
//! measurements are directional and Internet routing is asymmetric — the
//! finished RTT/loss/bandwidth summaries, the raw RTT samples (the median
//! and 10th-percentile analyses need the distribution, not just moments),
//! and the modal AS-path pool index. Analyses read one pair at a time
//! through the borrowed [`Edge`] view; nothing is copied out.
//!
//! Layout is columnar (one dense row-major `n × n` vector per statistic,
//! plus one shared blob of RTT samples) rather than row-wise structs:
//! consumers scan one statistic across all pairs at a time, and
//! equality/round-trip checks compare column by column.
//!
//! Determinism contract: the table stores the *finished* summaries from
//! incremental [`OnlineStats`] pushes in probe order. Welford means are
//! floating-point push-order-dependent, so that order is part of the
//! output: changing it would move report bytes.

use std::collections::HashMap;

use detour_netsim::HostId;
use detour_stats::{OnlineStats, Summary};

use crate::dataset::Dataset;
use crate::record::ProbeSample;

/// A directed host pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pair {
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
}

/// Statistics of one measured directed pair, borrowed from a
/// [`PairTable`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge<'a> {
    /// Round-trip time summary over returned probes (ms).
    pub rtt: Option<Summary>,
    /// The raw RTT samples behind `rtt`, in probe order.
    pub rtt_samples: &'a [f64],
    /// Loss indicator summary over loss-eligible probes (mean = loss rate).
    pub loss: Option<Summary>,
    /// Bandwidth summary over TCP transfers (kB/s).
    pub bandwidth: Option<Summary>,
    /// Mean RTT within TCP transfers (ms) — the N2 composition inputs.
    pub transfer_rtt: Option<Summary>,
    /// Mean loss rate within TCP transfers.
    pub transfer_loss: Option<Summary>,
    /// Most frequently observed AS path, as an index into
    /// `Dataset::as_paths` (`None` when the pair saw no probes).
    pub modal_path: Option<u32>,
}

impl Edge<'_> {
    /// The modal AS path resolved against the dataset's path pool; empty
    /// when the pair saw no probes.
    pub fn as_path<'p>(&self, as_paths: &'p [Vec<u16>]) -> &'p [u16] {
        self.modal_path
            .and_then(|i| as_paths.get(i as usize))
            .map_or(&[], Vec::as_slice)
    }
}

/// Per-pair aggregate columns over one dataset (or probe subset).
#[derive(Debug, Clone, PartialEq)]
pub struct PairTable {
    hosts: Vec<HostId>,
    /// Dense index of each host, inverted from `hosts` once at build time.
    index: HashMap<HostId, usize>,
    /// RTT summary over returned probes, per `i * n + j` cell.
    rtt: Vec<Option<Summary>>,
    /// Loss-indicator summary over loss-eligible probes.
    loss: Vec<Option<Summary>>,
    /// Bandwidth summary over TCP transfers (kB/s).
    bandwidth: Vec<Option<Summary>>,
    /// Mean RTT within TCP transfers (ms).
    transfer_rtt: Vec<Option<Summary>>,
    /// Mean loss rate within TCP transfers.
    transfer_loss: Vec<Option<Summary>>,
    /// Modal AS path as an index into `Dataset::as_paths`.
    modal_path: Vec<Option<u32>>,
    /// Prefix offsets into `rtt_samples`, length `n * n + 1`.
    rtt_off: Vec<u32>,
    /// Concatenated per-cell RTT samples, in probe order.
    rtt_samples: Vec<f64>,
}

/// Stable counting sort of item indices by table cell: cell `c`'s items
/// are `order[off[c]..off[c + 1]]`, in input order. `cell_of` returns
/// `None` for an item the table skips and is evaluated twice per item (a
/// counting pass sizes `order` exactly), so grouping costs two flat
/// buffers and no per-cell allocation.
fn group_by_cell<T>(
    items: &[T],
    cells: usize,
    cell_of: impl Fn(&T) -> Option<usize>,
) -> (Vec<u32>, Vec<u32>) {
    let mut off: Vec<u32> = vec![0; cells + 1];
    for c in items.iter().filter_map(&cell_of) {
        off[c + 1] += 1;
    }
    for c in 0..cells {
        off[c + 1] += off[c];
    }
    let mut cursor: Vec<u32> = off[..cells].to_vec();
    let mut order: Vec<u32> = vec![0; off[cells] as usize];
    for (k, item) in items.iter().enumerate() {
        if let Some(c) = cell_of(item) {
            order[cursor[c] as usize] = k as u32;
            cursor[c] += 1;
        }
    }
    debug_assert_eq!(&cursor[..], &off[1..], "order regions exactly filled");
    (off, order)
}

/// The most frequent path index in `paths` (ties: the smallest index);
/// sorts `paths` in place.
fn modal(paths: &mut [u32]) -> Option<u32> {
    paths.sort_unstable();
    let mut best: Option<(usize, u32)> = None;
    for run in paths.chunk_by(|a, b| a == b) {
        if best.is_none_or(|(count, _)| run.len() > count) {
            best = Some((run.len(), run[0]));
        }
    }
    best.map(|(_, idx)| idx)
}

impl PairTable {
    /// An empty table over `hosts`: columns sized for `n × n` cells, no
    /// cell pushed yet.
    fn with_hosts(hosts: Vec<HostId>) -> PairTable {
        let index = hosts.iter().enumerate().map(|(i, &h)| (h, i)).collect();
        let cells = hosts.len() * hosts.len();
        PairTable {
            hosts,
            index,
            rtt: Vec::with_capacity(cells),
            loss: Vec::with_capacity(cells),
            bandwidth: Vec::with_capacity(cells),
            transfer_rtt: Vec::with_capacity(cells),
            transfer_loss: Vec::with_capacity(cells),
            modal_path: Vec::with_capacity(cells),
            rtt_off: Vec::new(),
            rtt_samples: Vec::new(),
        }
    }

    /// Builds the table from every sample in `ds`.
    pub fn build(ds: &Dataset) -> PairTable {
        Self::build_filtered(ds, |_| true)
    }

    /// Builds the table from the probes satisfying `keep` (all transfers
    /// are always included — the time-of-day and episode analyses only
    /// slice probe datasets).
    ///
    /// Probes and transfers are first grouped by cell with a stable
    /// counting sort (`group_by_cell`); each cell is then finished in
    /// one go, in cell order, straight into the columns and the shared
    /// RTT-sample blob. No per-cell accumulator or map is allocated: the
    /// build's scratch is the two grouped index lists with their cell
    /// offsets and one reused path buffer, a handful of flat allocations
    /// whose sizes follow the probe and host counts.
    pub fn build_filtered(ds: &Dataset, keep: impl Fn(&ProbeSample) -> bool) -> PairTable {
        let mut t = PairTable::with_hosts(ds.hosts.iter().map(|h| h.id).collect());
        let n = t.hosts.len();
        let cells = n * n;
        let cell_of = |src: &HostId, dst: &HostId| Some(t.index.get(src)? * n + t.index.get(dst)?);
        let (p_off, p_order) = group_by_cell(&ds.probes, cells, |p| {
            keep(p).then(|| cell_of(&p.src, &p.dst)).flatten()
        });
        let (x_off, x_order) = group_by_cell(&ds.transfers, cells, |x| cell_of(&x.src, &x.dst));

        let returned = p_order
            .iter()
            .filter(|&&k| ds.probes[k as usize].rtt_ms.is_some())
            .count();
        let mut rtt_off = Vec::with_capacity(cells + 1);
        let mut rtt_samples = Vec::with_capacity(returned);
        let mut paths: Vec<u32> = Vec::new();
        rtt_off.push(0);
        for c in 0..cells {
            // Pushes follow probe order within the cell: the Welford
            // summaries depend on it.
            let (mut rtt, mut loss) = (OnlineStats::new(), OnlineStats::new());
            paths.clear();
            for &k in &p_order[p_off[c] as usize..p_off[c + 1] as usize] {
                let p = &ds.probes[k as usize];
                if let Some(r) = p.rtt_ms {
                    rtt.push(r);
                    rtt_samples.push(r);
                }
                if p.loss_eligible {
                    loss.push(if p.lost() { 1.0 } else { 0.0 });
                }
                paths.push(p.path_idx);
            }
            let (mut bw, mut x_rtt, mut x_loss) =
                (OnlineStats::new(), OnlineStats::new(), OnlineStats::new());
            for &k in &x_order[x_off[c] as usize..x_off[c + 1] as usize] {
                let x = &ds.transfers[k as usize];
                bw.push(x.bandwidth_kbps);
                x_rtt.push(x.rtt_ms);
                x_loss.push(x.loss_rate);
            }
            rtt_off.push(rtt_samples.len() as u32);
            // A cell counts as measured only when at least one summary
            // materialized. Any RTT sample materializes the RTT summary,
            // so an unmeasured cell never holds samples.
            if rtt.summary().is_some() || loss.summary().is_some() || bw.summary().is_some() {
                t.rtt.push(rtt.summary());
                t.loss.push(loss.summary());
                t.bandwidth.push(bw.summary());
                t.transfer_rtt.push(x_rtt.summary());
                t.transfer_loss.push(x_loss.summary());
                t.modal_path.push(modal(&mut paths));
            } else {
                t.rtt.push(None);
                t.loss.push(None);
                t.bandwidth.push(None);
                t.transfer_rtt.push(None);
                t.transfer_loss.push(None);
                t.modal_path.push(None);
            }
        }
        t.rtt_off = rtt_off;
        t.rtt_samples = rtt_samples;
        t
    }

    /// Hosts covered, in `Dataset::hosts` order (the table's dense axis).
    pub fn hosts(&self) -> &[HostId] {
        &self.hosts
    }

    /// Number of hosts (the table is `n × n`).
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// True when the table covers no hosts.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Dense index of a host.
    pub fn host_index(&self, h: HostId) -> Option<usize> {
        self.index.get(&h).copied()
    }

    /// Host at a dense index.
    pub fn host_at(&self, i: usize) -> HostId {
        self.hosts[i]
    }

    fn cell(&self, i: usize, j: usize) -> usize {
        i * self.hosts.len() + j
    }

    /// True when cell `c` holds any aggregate.
    fn measured(&self, c: usize) -> bool {
        self.rtt[c].is_some() || self.loss[c].is_some() || self.bandwidth[c].is_some()
    }

    /// The directed edge `i → j` by dense indices, or `None` when the pair
    /// has no aggregate at all.
    pub fn edge(&self, i: usize, j: usize) -> Option<Edge<'_>> {
        let c = self.cell(i, j);
        if !self.measured(c) {
            return None;
        }
        Some(Edge {
            rtt: self.rtt[c],
            rtt_samples: &self.rtt_samples[self.rtt_off[c] as usize..self.rtt_off[c + 1] as usize],
            loss: self.loss[c],
            bandwidth: self.bandwidth[c],
            transfer_rtt: self.transfer_rtt[c],
            transfer_loss: self.transfer_loss[c],
            modal_path: self.modal_path[c],
        })
    }

    /// All directed pairs with a measured edge, in deterministic `(i, j)`
    /// order.
    pub fn pairs(&self) -> Vec<Pair> {
        let n = self.hosts.len();
        let mut out = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i != j && self.edge(i, j).is_some() {
                    out.push(Pair {
                        src: self.hosts[i],
                        dst: self.hosts[j],
                    });
                }
            }
        }
        out
    }

    /// Number of measured directed pairs.
    pub fn measured_count(&self) -> usize {
        (0..self.rtt.len()).filter(|&c| self.measured(c)).count()
    }

    /// Removes a host (the Figure-12 greedy experiment), returning a new
    /// table without it.
    ///
    /// This copies every surviving cell; the analysis hot paths use masked
    /// weight-matrix views instead and never pay this cost — `without_host`
    /// remains the reference semantics those views are property-tested
    /// against.
    pub fn without_host(&self, h: HostId) -> PairTable {
        let keep: Vec<usize> = (0..self.len()).filter(|&i| self.hosts[i] != h).collect();
        let mut t = PairTable::with_hosts(keep.iter().map(|&i| self.hosts[i]).collect());
        t.rtt_off.push(0);
        for &i in &keep {
            for &j in &keep {
                let c = self.cell(i, j);
                t.rtt.push(self.rtt[c]);
                t.loss.push(self.loss[c]);
                t.bandwidth.push(self.bandwidth[c]);
                t.transfer_rtt.push(self.transfer_rtt[c]);
                t.transfer_loss.push(self.transfer_loss[c]);
                t.modal_path.push(self.modal_path[c]);
                let samples = self.rtt_off[c] as usize..self.rtt_off[c + 1] as usize;
                t.rtt_samples.extend_from_slice(&self.rtt_samples[samples]);
                t.rtt_off.push(t.rtt_samples.len() as u32);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{HostMeta, TransferSample};

    fn meta(id: u32) -> HostMeta {
        HostMeta {
            id: HostId(id),
            name: format!("h{id}"),
            asn: id as u16,
            truly_rate_limited: false,
        }
    }

    fn probe(src: u32, dst: u32, t: f64, rtt: Option<f64>) -> ProbeSample {
        ProbeSample {
            src: HostId(src),
            dst: HostId(dst),
            t_s: t,
            probe_index: 0,
            rtt_ms: rtt,
            loss_eligible: true,
            episode: None,
            path_idx: 0,
        }
    }

    fn tiny_dataset() -> Dataset {
        Dataset {
            name: "T".into(),
            hosts: (0..3).map(meta).collect(),
            probes: vec![
                probe(0, 1, 0.0, Some(50.0)),
                probe(0, 1, 1.0, Some(70.0)),
                probe(0, 1, 2.0, None),
                probe(1, 2, 0.0, Some(30.0)),
                probe(1, 2, 1.0, Some(40.0)),
            ],
            transfers: vec![TransferSample {
                src: HostId(0),
                dst: HostId(2),
                t_s: 0.0,
                rtt_ms: 90.0,
                loss_rate: 0.01,
                bandwidth_kbps: 200.0,
            }],
            as_paths: vec![vec![0, 9, 1]],
            duration_s: 10.0,
            detected_rate_limited: vec![],
            starved_pairs: 0,
        }
    }

    #[test]
    fn aggregates_match_hand_computation() {
        let t = PairTable::build(&tiny_dataset());
        assert_eq!(t.len(), 3);
        let e = t.edge(0, 1).expect("0→1 measured");
        let rtt = e.rtt.expect("rtt summary");
        // Two returned RTTs: mean 60.
        assert_eq!(rtt.n, 2);
        assert!((rtt.mean - 60.0).abs() < 1e-12);
        // Three loss-eligible probes, one lost: rate 1/3.
        let loss = e.loss.expect("loss summary");
        assert_eq!(loss.n, 3);
        assert!((loss.mean - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(e.rtt_samples, &[50.0, 70.0]);
        assert_eq!(e.modal_path, Some(0));
        assert_eq!(e.as_path(&tiny_dataset().as_paths), &[0, 9, 1]);
    }

    #[test]
    fn transfers_populate_bandwidth_cells() {
        let t = PairTable::build(&tiny_dataset());
        let e = t.edge(0, 2).expect("transfer edge");
        assert!((e.bandwidth.unwrap().mean - 200.0).abs() < 1e-12);
        assert!((e.transfer_rtt.unwrap().mean - 90.0).abs() < 1e-12);
        assert!(e.rtt.is_none(), "no probes on this pair");
        assert_eq!(e.modal_path, None, "transfer-only cell has no path");
        assert!(e.as_path(&tiny_dataset().as_paths).is_empty());
    }

    #[test]
    fn unmeasured_cells_are_empty() {
        let t = PairTable::build(&tiny_dataset());
        assert!(t.edge(2, 0).is_none());
        assert!(t.edge(1, 0).is_none());
        assert_eq!(t.measured_count(), 3);
    }

    #[test]
    fn pairs_enumerates_measured_edges_in_index_order() {
        let t = PairTable::build(&tiny_dataset());
        let pair = |s, d| Pair {
            src: HostId(s),
            dst: HostId(d),
        };
        assert_eq!(t.pairs(), vec![pair(0, 1), pair(0, 2), pair(1, 2)]);
        assert_eq!(t.host_index(HostId(2)), Some(2));
        assert_eq!(t.host_at(1), HostId(1));
    }

    #[test]
    fn filtering_subsets_probes() {
        let ds = tiny_dataset();
        let t = PairTable::build_filtered(&ds, |p| p.t_s < 0.5);
        let e = t.edge(0, 1).unwrap();
        let rtt = e.rtt.unwrap();
        assert_eq!(rtt.n, 1);
        assert!((rtt.mean - 50.0).abs() < 1e-12);
        assert_eq!(e.rtt_samples, &[50.0]);
    }

    #[test]
    fn loss_ineligible_probes_do_not_count_losses() {
        let mut ds = tiny_dataset();
        ds.probes.push(ProbeSample {
            loss_eligible: false,
            ..probe(0, 1, 3.0, Some(55.0))
        });
        let t = PairTable::build(&ds);
        let e = t.edge(0, 1).unwrap();
        assert_eq!(e.loss.unwrap().n, 3, "ineligible probe excluded from loss");
        assert_eq!(e.rtt.unwrap().n, 3, "but included in RTT");
    }

    #[test]
    fn without_host_drops_vertex_and_edges() {
        let t = PairTable::build(&tiny_dataset());
        let t2 = t.without_host(HostId(1));
        assert_eq!(t2.len(), 2);
        assert!(t2.host_index(HostId(1)).is_none());
        assert_eq!(t2.measured_count(), 1);
        let (i, j) = (
            t2.host_index(HostId(0)).unwrap(),
            t2.host_index(HostId(2)).unwrap(),
        );
        assert_eq!(t2.edge(i, j), t.edge(0, 2));
        // Surviving cells keep their sample slices; removing nobody is an
        // exact copy.
        assert_eq!(t.without_host(HostId(2)).edge(0, 1), t.edge(0, 1));
        assert_eq!(t.without_host(HostId(99)), t);
    }

    #[test]
    fn equality_is_columnwise() {
        let ds = tiny_dataset();
        assert_eq!(PairTable::build(&ds), PairTable::build(&ds));
        let mut other = ds.clone();
        other.probes[0].rtt_ms = Some(51.0);
        assert_ne!(PairTable::build(&ds), PairTable::build(&other));
    }

    #[test]
    fn modal_path_prefers_most_voted_then_lowest_index() {
        let mut ds = tiny_dataset();
        ds.as_paths = vec![vec![1], vec![2]];
        // Equal votes for path 0 and 1 on pair 1→2: lowest index wins.
        ds.probes = vec![
            ProbeSample {
                path_idx: 1,
                ..probe(1, 2, 0.0, Some(10.0))
            },
            ProbeSample {
                path_idx: 0,
                ..probe(1, 2, 1.0, Some(10.0))
            },
        ];
        let t = PairTable::build(&ds);
        assert_eq!(t.edge(1, 2).unwrap().modal_path, Some(0));
    }

    #[test]
    fn interleaved_cells_keep_probe_order_and_majority_path() {
        let mut ds = tiny_dataset();
        ds.as_paths = vec![vec![1], vec![2]];
        let on = |src, dst, rtt, path_idx| ProbeSample {
            path_idx,
            ..probe(src, dst, 0.0, rtt)
        };
        ds.probes = vec![
            on(1, 2, Some(30.0), 0),
            on(0, 1, Some(9.0), 1),
            on(1, 2, None, 1),
            on(1, 2, Some(10.0), 1),
            on(0, 1, Some(8.0), 1),
            on(1, 2, Some(20.0), 0),
            on(1, 2, Some(40.0), 1),
        ];
        let t = PairTable::build(&ds);
        let e = t.edge(1, 2).unwrap();
        assert_eq!(e.rtt_samples, &[30.0, 10.0, 20.0, 40.0]);
        assert_eq!(e.modal_path, Some(1), "three votes beat two");
        assert_eq!(e.loss.unwrap().n, 5);
        assert_eq!(t.edge(0, 1).unwrap().rtt_samples, &[9.0, 8.0]);
    }
}
