//! Inputs: dataset scales, the trace caches under `.bench_cache/`, and
//! the child process that fills them.
//!
//! Generating the inputs of a warm workload costs as much as the cold
//! workload itself, so it happens once per seed, in a child process
//! (`perfbench --prepare ...`). The child keeps the generator's memory out
//! of the measuring process's `peak_rss_mb`, and the cache it leaves lets
//! later runs at the same seed skip it. The cache keeps the inputs of the
//! [`KEEP_SEEDS`] most recently prepared seeds.

use std::path::{Path, PathBuf};
use std::process::Command;

use detour_bench::{cache, scale};
use detour_core::pool;
use detour_datasets::spec::{self, DatasetSpec, Scale};
use detour_datasets::trace2;
use detour_datasets::{d2, n2, uw1, uw3, uw4};
use detour_measure::Dataset;
use detour_netsim::topology::generator::TopologyConfig;
use detour_netsim::{HostId, Network, NetworkConfig};
use detour_prng::Xoshiro256pp;

/// Root of every file the benchmark writes, relative to the checkout.
pub const CACHE_ROOT: &str = ".bench_cache";

/// Seeds whose prepared inputs stay cached.
const KEEP_SEEDS: usize = 12;

/// The eight Table-1 dataset names, in the order the cache stores them.
pub const PAPER_NAMES: [&str; 8] = ["D2", "D2-NA", "N2", "N2-NA", "UW1", "UW3", "UW4-A", "UW4-B"];

/// Input size: the real workload, or the reduced one the smoke test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Full paper scale and the 128-host SCALE dataset.
    Full,
    /// A few hosts per dataset: the same code paths in seconds.
    Smoke,
}

impl Size {
    /// The paper datasets' scale at `seed`.
    pub fn paper(self, seed: u64) -> Scale {
        match self {
            Size::Full => Scale::full(),
            Size::Smoke => Scale::reduced(8, 24),
        }
        .with_seed_offset(seed)
    }

    /// The SCALE dataset's scale at `seed`: all 128 hosts, or 16.
    pub fn kernel(self, seed: u64) -> Scale {
        let full = scale::scale_scale();
        let n_hosts = match self {
            Size::Full => full.n_hosts,
            Size::Smoke => Some(16),
        };
        Scale {
            n_hosts,
            seed_offset: seed,
            ..full
        }
    }

    /// Command-line spelling, passed on to the preparing child.
    fn flag(self) -> Option<&'static str> {
        match self {
            Size::Full => None,
            Size::Smoke => Some("--smoke"),
        }
    }
}

/// A directory under [`CACHE_ROOT`].
pub fn dir(name: &str) -> PathBuf {
    Path::new(CACHE_ROOT).join(name)
}

/// The cache file of each paper dataset at `scale`.
pub fn paper_files(scale: Scale) -> Vec<PathBuf> {
    PAPER_NAMES
        .iter()
        .map(|n| cache::cache_path(&dir("paper"), n, scale))
        .collect()
}

/// The cache file of the SCALE dataset at `scale`.
pub fn scale_file(scale: Scale) -> PathBuf {
    cache::cache_path(&dir("scale"), scale::scale_spec().name, scale)
}

/// The trace length, in days, at which the campaign of `spec` at `scale`
/// holds exactly as many episodes as the seed-0 campaign holds in the
/// spec's own duration: midway between that episode's start and the next.
/// The schedule draws only its gaps from the campaign RNG, exactly as
/// [`spec::generate_on`] seeds it, so two stand-in hosts give the real
/// start times.
fn matched_episode_days(spec: &DatasetSpec, scale: Scale) -> f64 {
    let nominal_s = spec.duration_days * 86_400.0 / scale.time_divisor as f64;
    let starts = |seed_offset: u64, horizon_s: f64| -> Vec<f64> {
        let s = Scale {
            seed_offset,
            ..scale
        };
        let mut rng = Xoshiro256pp::seed_from_u64(s.mixed_seed(spec.campaign_seed));
        let mut t: Vec<f64> = spec
            .schedule
            .generate(&[HostId(0), HostId(1)], horizon_s, &mut rng)
            .iter()
            .map(|r| r.t_s)
            .collect();
        t.dedup();
        t
    };
    let n = starts(0, nominal_s).len();
    let t = starts(scale.seed_offset, 4.0 * nominal_s);
    (t[n - 1] + t[n]) / 2.0 * scale.time_divisor as f64 / 86_400.0
}

/// The SCALE dataset at any seed. Seed 0 is the canonical dataset
/// ([`detour_bench::scale::load_or_generate`]). Other seeds keep the same
/// 128-host network (the canonical network seed, widened topology) and
/// give `seed_offset` to [`spec::generate_on`], which draws the measured
/// hosts and the campaign from it. The trace is cut to the canonical
/// number of full-mesh episodes ([`matched_episode_days`]): left alone,
/// the Poisson episode count (7 to 21 at seeds 0 to 11) makes the
/// dataset, and the kernel's work, vary almost threefold.
pub fn build_scale(scale: Scale) -> Dataset {
    let mut spec = scale::scale_spec();
    spec.duration_days = matched_episode_days(&spec, scale);
    let horizon_days = spec.duration_days / scale.time_divisor as f64;
    let mut cfg = NetworkConfig::for_era(spec.era, spec.network_seed, horizon_days);
    cfg.topology = TopologyConfig {
        n_stub: 200,
        stubs_na_only: true,
        rate_limited_fraction: 0.0,
        ..cfg.topology
    };
    let net = Network::generate(&cfg);
    spec::generate_on(&net, &spec, scale)
}

/// The eight Table-1 datasets of the `paper_warm` workload: each family's
/// campaign at `scale`, run on the
/// family's canonical (seed 0) network. The seed thus draws new measured
/// hosts and measurements on the paper's simulated Internet, keeping the
/// work comparable across seeds (as [`build_scale`] does, and UW4-A is
/// cut to the canonical episode count). Perturbing the
/// networks too, as `figures --seed` does, makes some seeds unbuildable:
/// at seed 8 the N2 topology has 9 world hosts for the 11 N2 needs, and
/// host selection panics. At seed 0 this is exactly
/// `detour_bench::Bundle::generate`'s output. The five families build on
/// the pool.
pub fn build_paper(scale: Scale) -> Vec<Dataset> {
    let canonical = Scale {
        seed_offset: 0,
        ..scale
    };
    let one = |s: DatasetSpec| {
        let net = spec::build_network(&s, canonical);
        spec::generate_on(&net, &s, scale)
    };
    let with_na = |s: DatasetSpec, na: &str| {
        let net = spec::build_network(&s, canonical);
        let ds = spec::generate_on(&net, &s, scale);
        let na = spec::restrict_na(&net, &ds, na);
        vec![ds, na]
    };
    let families: [usize; 5] = [0, 1, 2, 3, 4];
    pool::parallel_map(&families, |&family| match family {
        0 => with_na(d2::spec(), "D2-NA"),
        1 => with_na(n2::spec(), "N2-NA"),
        2 => vec![one(uw1::spec())],
        3 => vec![one(uw3::spec())],
        _ => {
            // UW4-A keeps the canonical episode count: Fig 11's work grows
            // with episodes × probes, and the Poisson count alone spread
            // `wall_s` by 20 % over ten seeds. The network's horizon
            // stretches to cover a longer trace.
            let mut a = uw4::spec_a();
            if scale.seed_offset != 0 {
                a.duration_days = matched_episode_days(&a, scale);
            }
            let horizon = DatasetSpec {
                duration_days: a.duration_days.max(uw4::spec_a().duration_days),
                ..a
            };
            let net = spec::build_network(&horizon, canonical);
            vec![
                spec::generate_on(&net, &a, scale),
                spec::generate_on(&net, &uw4::spec_b(), scale),
            ]
        }
    })
    .concat()
}

/// Makes sure the inputs of `what` ("paper" or "scale") at `seed` are
/// cached, running `perfbench --prepare` in a child process when any file
/// is missing.
pub fn ensure(what: &str, size: Size, seed: u64) {
    let missing = match what {
        "paper" => paper_files(size.paper(seed)).iter().any(|p| !p.exists()),
        _ => !scale_file(size.kernel(seed)).exists(),
    };
    if !missing {
        return;
    }
    let exe = std::env::current_exe().expect("locate the benchmark binary");
    let mut cmd = Command::new(exe);
    cmd.args(["--prepare", what, "--seed", &seed.to_string()]);
    cmd.args(size.flag());
    eprintln!("perfbench: preparing {what} inputs for seed {seed}");
    let status = cmd.status().expect("start the preparing child");
    assert!(status.success(), "preparing {what} inputs failed: {status}");
}

/// The child's side of [`ensure`]: generates the inputs and saves them
/// through the trace cache, then trims seeds beyond [`KEEP_SEEDS`].
pub fn prepare(what: &str, size: Size, seed: u64) {
    match what {
        "paper" => {
            let scale = size.paper(seed);
            std::fs::create_dir_all(dir("paper")).expect("create the paper cache");
            for ds in build_paper(scale) {
                let path = cache::cache_path(&dir("paper"), &ds.name, scale);
                let tmp = path.with_extension("tmp");
                trace2::save(&ds, &tmp).expect("save a paper dataset");
                std::fs::rename(&tmp, &path).expect("publish a paper dataset");
            }
            trim(&dir("paper"), seed);
        }
        "scale" => {
            let s = size.kernel(seed);
            if size == Size::Full && seed == 0 {
                // The canonical SCALE dataset, exactly as the baseline
                // binary caches it.
                scale::load_or_generate(&dir("scale")).expect("scale trace cache");
            } else {
                std::fs::create_dir_all(dir("scale")).expect("create the scale cache");
                let path = scale_file(s);
                let tmp = path.with_extension("tmp");
                let ds = build_scale(s);
                eprintln!(
                    "perfbench: SCALE seed {seed}: {} episodes",
                    detour_core::analysis::episodes::episode_ids(&ds).len()
                );
                trace2::save(&ds, &tmp).expect("save SCALE");
                std::fs::rename(&tmp, &path).expect("publish SCALE");
            }
            trim(&dir("scale"), seed);
        }
        other => panic!("unknown input set {other:?}"),
    }
}

/// Deletes cached inputs of all but the [`KEEP_SEEDS`] most recently
/// written seeds (always keeping `current`). Seeds are read from the
/// cache key's `-o{seed}-` field.
pub fn trim(dir: &Path, current: u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut files: Vec<(u64, std::time::SystemTime, PathBuf)> = entries
        .filter_map(|e| {
            let path = e.ok()?.path();
            let name = path.file_name()?.to_str()?.to_string();
            let seed = name.split("-o").nth(1)?.split('-').next()?.parse().ok()?;
            let mtime = std::fs::metadata(&path).ok()?.modified().ok()?;
            Some((seed, mtime, path))
        })
        .collect();
    files.sort_by_key(|f| std::cmp::Reverse(f.1));
    let mut keep = vec![current];
    for (seed, _, _) in &files {
        if keep.len() < KEEP_SEEDS && !keep.contains(seed) {
            keep.push(*seed);
        }
    }
    for (seed, _, path) in files {
        if !keep.contains(&seed) {
            let _ = std::fs::remove_file(path);
        }
    }
}
