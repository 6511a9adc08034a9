//! The on-disk trace cache for generated datasets.
//!
//! Dataset generation dominates a cold `figures`/`baseline` run, yet for a
//! fixed `(spec, seed, scale)` the output is deterministic — so it caches.
//! Each generated dataset is saved once through the `.trace2` binary
//! columnar format ([`detour_datasets::trace2`], whose round-trip is
//! bit-exact) and later runs load it back instead of re-simulating. The
//! cache key is the file name:
//!
//! ```text
//! {name}-o{seed_offset}-h{hosts|full}-t{time_divisor}.trace2
//! ```
//!
//! which covers every generation input: the dataset spec (via its name),
//! the seed perturbation, and both scale knobs. Files live under a caller
//! chosen directory (the binaries use `results/cache/`); a missing,
//! unreadable, or mismatched file is simply a miss, and the family
//! regenerates and re-saves. Loads and misses are decided per *family* —
//! sibling datasets (D2/D2-NA, N2/N2-NA, UW4-A/UW4-B) share a simulated
//! network, so a partial hit would split one simulation across two runs;
//! instead, a family with any missing member regenerates whole.
//!
//! Only `.trace2` files are read: a leftover text `.trace` entry from an
//! older cache is a miss (the family regenerates and writes `.trace2`),
//! and [`purge`] removes it with everything else. Corrupt files are
//! renamed `{file}.quarantined` (evidence preserved) and their family
//! regenerated.
//!
//! Cache accounting goes through the current `detour-obs` recorder: the
//! `cache/hits` / `cache/misses` / `cache/quarantined` counters (per dataset, deterministic in the on-disk state, so
//! thread-count-invariant) and a `cache/load` span around the whole
//! probe-or-regenerate pass.

use std::path::{Path, PathBuf};

use detour_core::pool;
use detour_datasets::{trace2, Scale};
use detour_measure::Dataset;

use crate::bundle::{family_names, generate_family, Bundle, FAMILIES};

/// The cache key stem for one dataset at one scale (no extension).
fn cache_stem(name: &str, scale: Scale) -> String {
    let hosts = scale
        .n_hosts
        .map_or_else(|| "full".to_string(), |n| n.to_string());
    format!(
        "{name}-o{}-h{hosts}-t{}",
        scale.seed_offset, scale.time_divisor
    )
}

/// The binary cache file for one dataset at one scale (the only format
/// the cache reads or writes).
pub fn cache_path(dir: &Path, name: &str, scale: Scale) -> PathBuf {
    dir.join(format!("{}.trace2", cache_stem(name, scale)))
}

/// What probing one cache key found.
pub(crate) enum CacheProbe {
    /// A healthy `.trace2` (binary) entry.
    Loaded(Dataset),
    /// No file (or unreadable): a plain miss.
    Missing,
    /// The file at this path exists but is truncated, unparseable, or
    /// holds the wrong dataset. The caller quarantines it rather than
    /// overwriting the evidence.
    Corrupt(PathBuf),
}

/// Probes the cache for one dataset without touching it.
pub(crate) fn probe_cached(dir: &Path, name: &str, scale: Scale) -> CacheProbe {
    let bin = cache_path(dir, name, scale);
    if !bin.exists() {
        return CacheProbe::Missing;
    }
    match trace2::load(&bin) {
        Ok(ds) if ds.name == name => CacheProbe::Loaded(ds),
        Ok(_) | Err(_) => CacheProbe::Corrupt(bin),
    }
}

/// The quarantine destination for a corrupt cache file: the original path
/// with `.quarantined` appended.
pub fn quarantined_path(original: &Path) -> PathBuf {
    let mut p = original.as_os_str().to_os_string();
    p.push(".quarantined");
    PathBuf::from(p)
}

impl Bundle {
    /// Like [`Bundle::generate`], but backed by the trace cache in `dir`.
    ///
    /// Families whose members are all cached load from disk; the rest
    /// regenerate and save as `.trace2`. Both paths yield byte-identical
    /// datasets (the binary round-trip preserves raw `f64` bits), and the
    /// per-family fan-out merges
    /// index-ordered, so the bundle is the same at any thread count whether
    /// it came from simulation or disk.
    ///
    /// Per-dataset accounting lands on the current `detour-obs` recorder:
    /// `cache/hits`, `cache/misses` and `cache/quarantined` (corrupt files
    /// renamed `.quarantined`; every quarantine is also a miss), all under
    /// a `cache/load` span.
    pub fn generate_cached(scale: Scale, dir: &Path) -> std::io::Result<Bundle> {
        let rec = detour_obs::current();
        let _load = rec.span("cache/load");
        std::fs::create_dir_all(dir)?;
        let families: [usize; FAMILIES] = [0, 1, 2, 3, 4];
        let outcomes = pool::parallel_map(&families, |&family| -> std::io::Result<_> {
            let names = family_names(family);
            let mut loaded = Vec::with_capacity(names.len());
            let mut quarantined = 0;
            for n in names {
                match probe_cached(dir, n, scale) {
                    CacheProbe::Loaded(ds) => loaded.push(ds),
                    CacheProbe::Missing => {}
                    CacheProbe::Corrupt(path) => {
                        std::fs::rename(&path, quarantined_path(&path))?;
                        quarantined += 1;
                    }
                }
            }
            if loaded.len() == names.len() && quarantined == 0 {
                return Ok((loaded, names.len(), 0, 0));
            }
            let dss = generate_family(family, scale);
            for ds in &dss {
                trace2::save(ds, &cache_path(dir, &ds.name, scale))?;
            }
            Ok((dss, 0, names.len(), quarantined))
        });
        let (mut hits, mut misses, mut quarantined) = (0u64, 0u64, 0u64);
        let mut built = Vec::with_capacity(FAMILIES);
        for outcome in outcomes {
            let (dss, h, m, q): (Vec<Dataset>, usize, usize, usize) = outcome?;
            hits += h as u64;
            misses += m as u64;
            quarantined += q as u64;
            built.push(dss);
        }
        rec.add("cache/hits", hits);
        rec.add("cache/misses", misses);
        rec.add("cache/quarantined", quarantined);
        Ok(Bundle::from_families(built))
    }
}

/// Deletes every cache file in `dir` — live `.trace2` entries, leftover
/// `.trace` text entries and `.quarantined` corpses alike (the `--fresh`
/// flag). Missing
/// directories count as already purged.
pub fn purge(dir: &Path) -> std::io::Result<usize> {
    let mut removed = 0;
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        if path
            .extension()
            .is_some_and(|e| e == "trace" || e == "trace2" || e == "quarantined")
        {
            std::fs::remove_file(&path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one cached generation under a fresh scoped recorder and
    /// returns the bundle with the `(hits, misses, quarantined)` counter
    /// readings for that call alone.
    fn run_cached(scale: Scale, dir: &Path) -> (Bundle, (u64, u64, u64)) {
        let rec = detour_obs::Recorder::new();
        let _g = detour_obs::install(rec.clone());
        let bundle = Bundle::generate_cached(scale, dir).unwrap();
        let stats = (
            rec.counter("cache/hits"),
            rec.counter("cache/misses"),
            rec.counter("cache/quarantined"),
        );
        (bundle, stats)
    }

    /// The quarantine destination for the binary cache entry of one
    /// dataset: `{key}.trace2.quarantined`, next to the original.
    fn quarantine_path(dir: &Path, name: &str, scale: Scale) -> PathBuf {
        quarantined_path(&cache_path(dir, name, scale))
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("detour-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cold_then_warm_round_trips_bit_identically() {
        let dir = tmp_dir("roundtrip");
        let scale = Scale::reduced(8, 24);
        let (cold, s0) = run_cached(scale, &dir);
        assert_eq!((s0.0, s0.1), (0, 8), "empty dir: all misses");
        let (warm, s1) = run_cached(scale, &dir);
        assert_eq!((s1.0, s1.1), (8, 0), "second run: all hits");
        for (a, b) in cold.in_table_order().iter().zip(warm.in_table_order()) {
            assert_eq!(*a, b, "{} changed across the cache", a.name);
        }
        // And both match direct generation.
        let direct = Bundle::generate(scale);
        assert_eq!(cold.uw3, direct.uw3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn family_names_match_generated_names() {
        for family in 0..FAMILIES {
            let dss = generate_family(family, Scale::reduced(6, 48));
            let names: Vec<&str> = dss.iter().map(|d| d.name.as_str()).collect();
            assert_eq!(names, family_names(family), "family {family}");
        }
    }

    #[test]
    fn corrupt_cache_entry_is_quarantined_and_regenerated() {
        let dir = tmp_dir("corrupt");
        let scale = Scale::reduced(8, 24);
        let (reference, _) = run_cached(scale, &dir);
        let bad = b"DTRACE2\n but not really".to_vec();
        std::fs::write(cache_path(&dir, "UW3", scale), &bad).unwrap();
        let (again, stats) = run_cached(scale, &dir);
        assert_eq!((stats.0, stats.1), (7, 1), "UW3 family regenerates");
        assert_eq!(stats.2, 1, "the corrupt file is quarantined");
        assert_eq!(
            again.uw3, reference.uw3,
            "regeneration restores the dataset"
        );
        let corpse = quarantine_path(&dir, "UW3", scale);
        assert_eq!(
            std::fs::read(&corpse).unwrap(),
            bad,
            "quarantine preserves the corrupt bytes for post-mortem"
        );
        let (_, warm) = run_cached(scale, &dir);
        assert_eq!(
            (warm.0, warm.1, warm.2),
            (8, 0, 0),
            "the rewritten entry is healthy; the corpse is ignored"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftover_text_entry_is_a_miss() {
        let dir = tmp_dir("text-miss");
        let scale = Scale::reduced(8, 24);
        let (reference, _) = run_cached(scale, &dir);
        let bin = cache_path(&dir, "UW3", scale);
        detour_measure::tracefile::save(&reference.uw3, &bin.with_extension("trace")).unwrap();
        std::fs::remove_file(&bin).unwrap();
        let (again, stats) = run_cached(scale, &dir);
        assert_eq!(stats, (7, 1, 0), "the text entry is ignored, not loaded");
        assert_eq!(again.uw3, reference.uw3);
        assert!(bin.exists(), "regeneration rewrites the .trace2");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_cache_entry_is_quarantined_and_regenerated() {
        let dir = tmp_dir("truncate");
        let scale = Scale::reduced(8, 24);
        let (reference, _) = run_cached(scale, &dir);
        // Chop a valid binary trace mid-section — simulating a crash during
        // save. The section table's extents no longer fit the file, so the
        // detection is deterministic.
        let path = cache_path(&dir, "UW3", scale);
        let whole = std::fs::read(&path).unwrap();
        std::fs::write(&path, &whole[..whole.len() / 2]).unwrap();
        let (again, stats) = run_cached(scale, &dir);
        assert_eq!(stats.2, 1, "the truncated file is quarantined");
        assert_eq!(
            again.uw3, reference.uw3,
            "regeneration restores the dataset"
        );
        assert!(quarantine_path(&dir, "UW3", scale).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn different_scales_use_disjoint_keys() {
        let dir = Path::new("unused");
        let a = cache_path(dir, "UW3", Scale::reduced(8, 24));
        let b = cache_path(dir, "UW3", Scale::reduced(9, 24));
        let c = cache_path(dir, "UW3", Scale::reduced(8, 24).with_seed_offset(1));
        let d = cache_path(dir, "UW3", Scale::full());
        assert!(a != b && a != c && a != d && b != c && b != d && c != d);
    }

    #[test]
    fn purge_empties_the_cache() {
        let dir = tmp_dir("purge");
        let scale = Scale::reduced(8, 24);
        let (bundle, _) = run_cached(scale, &dir);
        // A leftover text entry and a quarantined corpse must go too.
        let text = cache_path(&dir, "UW3", scale).with_extension("trace");
        detour_measure::tracefile::save(&bundle.uw3, &text).unwrap();
        std::fs::write(quarantine_path(&dir, "UW1", scale), b"corpse").unwrap();
        assert_eq!(purge(&dir).unwrap(), 10);
        let (_, stats) = run_cached(scale, &dir);
        assert_eq!(stats.1, 8, "purged cache regenerates everything");
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(purge(&dir).unwrap(), 0, "missing dir is already purged");
    }
}
