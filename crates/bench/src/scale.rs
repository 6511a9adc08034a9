//! The `scale_sweep` workload: one large dataset for kernel benchmarks.
//!
//! The paper-scale datasets top out around 40 hosts — big enough to
//! reproduce every figure, too small for parallel speedups (or kernel
//! constant factors) to show above the noise. The multipath-selection
//! literature evaluates at hundreds of nodes, so the baseline needs a
//! workload where the O(n³) sweep does real work: this module defines a
//! 128-host synthetic dataset ("SCALE") generated through the same
//! pipeline as the paper datasets and cached through the same trace cache
//! (`results/cache/SCALE-o0-h128-t120.trace2`), so only the first baseline
//! run pays for the simulation.
//!
//! The stock Y1999 topology tops out at 85 stub hosts, so the workload
//! carries its own topology: more stub ASes, one host each, all North
//! American, and **no ICMP rate limiters** — paired with
//! [`RateLimitPolicy::FirstSampleOnly`] this guarantees the assembled
//! dataset keeps all 128 hosts, which the baseline asserts (the
//! acceptance gate requires ≥ 120).

use std::path::Path;

use detour_datasets::spec::{self, DatasetSpec, Scale};
use detour_datasets::trace2;
use detour_faults::FaultConfig;
use detour_measure::{CampaignConfig, Dataset, RateLimitPolicy, Schedule};
use detour_netsim::topology::generator::TopologyConfig;
use detour_netsim::{Era, Network, NetworkConfig};

use crate::cache::{cache_path, probe_cached, quarantined_path, CacheProbe};

/// Measurement hosts in the SCALE dataset (the gate requires ≥ 120).
pub const SCALE_HOSTS: usize = 128;

/// The SCALE dataset's collection spec: UW4-A-style full-mesh episodes
/// (each episode measures every ordered pair, so request volume scales
/// with n² — the pairwise Poisson schedules would thin out instead), a
/// 14-day nominal trace run through the time divisor below, and a
/// first-sample-only rate-limit policy so no host is ever dropped.
pub fn scale_spec() -> DatasetSpec {
    DatasetSpec {
        name: "SCALE",
        era: Era::Y1999,
        network_seed: 9101,
        campaign_seed: 9102,
        duration_days: 14.0,
        n_hosts: SCALE_HOSTS,
        n_hosts_na: SCALE_HOSTS,
        schedule: Schedule::Episodes { mean_gap_s: 700.0 },
        campaign: CampaignConfig::traceroute(),
        policy: RateLimitPolicy::FirstSampleOnly,
        min_samples: 30,
        prescreened: true,
        faults: FaultConfig::none(),
    }
}

/// The scale knobs: all 128 hosts, duration divided down so the cold
/// generation stays in seconds (≈ 10 000 simulated seconds ≈ 14 full-mesh
/// episodes; `min_samples` scales down to 6 alongside it).
pub fn scale_scale() -> Scale {
    Scale {
        n_hosts: Some(SCALE_HOSTS),
        time_divisor: 120,
        seed_offset: 0,
    }
}

/// The network the SCALE spec measures: era defaults except the topology,
/// which is widened to hold 200 stub hosts (the era default is 85), pinned
/// to North America, and stripped of ICMP rate limiters.
fn scale_network(spec: &DatasetSpec, scale: Scale) -> Network {
    let horizon_days = spec.duration_days / scale.time_divisor as f64;
    let mut cfg =
        NetworkConfig::for_era(spec.era, scale.mixed_seed(spec.network_seed), horizon_days);
    cfg.topology = TopologyConfig {
        n_stub: 200,
        stubs_na_only: true,
        rate_limited_fraction: 0.0,
        ..cfg.topology
    };
    Network::generate(&cfg)
}

/// Loads the SCALE dataset from the trace cache in `dir`, or generates and
/// saves it. Returns the dataset and whether it was a cache hit. Follows
/// the cache's discipline: only the `.trace2` entry is read, and a
/// corrupt or mismatched one is renamed `*.quarantined` and the dataset
/// regenerated. Reports through the same
/// `cache/*` counters (and `cache/load` span) as the bundle cache.
pub fn load_or_generate(dir: &Path) -> std::io::Result<(Dataset, bool)> {
    let rec = detour_obs::current();
    let _load = rec.span("cache/load");
    let spec = scale_spec();
    let scale = scale_scale();
    match probe_cached(dir, spec.name, scale) {
        CacheProbe::Loaded(ds) => {
            rec.add("cache/hits", 1);
            return Ok((ds, true));
        }
        CacheProbe::Missing => {}
        CacheProbe::Corrupt(path) => {
            rec.add("cache/quarantined", 1);
            std::fs::rename(&path, quarantined_path(&path))?;
        }
    }
    rec.add("cache/misses", 1);
    std::fs::create_dir_all(dir)?;
    let net = scale_network(&spec, scale);
    let ds = spec::generate_on(&net, &spec, scale);
    trace2::save(&ds, &cache_path(dir, spec.name, scale))?;
    Ok((ds, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_topology_holds_every_host() {
        // Cheap structural check (no campaign): the widened topology must
        // offer at least SCALE_HOSTS eligible NA hosts, or `select_hosts`
        // would panic in the baseline.
        let spec = scale_spec();
        let net = scale_network(&spec, scale_scale());
        let na = net
            .hosts()
            .iter()
            .filter(|h| {
                !h.icmp_rate_limited && detour_netsim::geo::CITIES[h.city].region.is_north_america()
            })
            .count();
        assert!(na >= SCALE_HOSTS, "only {na} eligible NA hosts");
    }

    #[test]
    fn cache_round_trip_is_lossless() {
        let dir = std::env::temp_dir().join(format!("detour-scale-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Shrink the workload for the test: same spec, tiny scale.
        let spec = scale_spec();
        let scale = Scale {
            n_hosts: Some(8),
            time_divisor: 2000,
            seed_offset: 0,
        };
        let net = scale_network(&spec, scale);
        let ds = spec::generate_on(&net, &spec, scale);
        let path = cache_path(&dir, spec.name, scale);
        std::fs::create_dir_all(&dir).unwrap();
        trace2::save(&ds, &path).unwrap();
        let back = trace2::load(&path).unwrap();
        assert_eq!(ds, back);
        // The text format agrees byte-for-byte with the binary round-trip,
        // which the baseline's binary-vs-text load gate relies on.
        let text_path = path.with_extension("trace");
        detour_measure::tracefile::save(&ds, &text_path).unwrap();
        assert_eq!(detour_measure::tracefile::load(&text_path).unwrap(), back);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
