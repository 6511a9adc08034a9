//! Golden report snapshots.
//!
//! A small set of tiny-scale reports is committed under `tests/golden/`
//! and byte-compared on every test run: the whole pipeline — simulator,
//! faulted campaigns, assembly, analysis, rendering — must replay exactly,
//! across thread counts, cache states, and refactors. `outage_sweep` is in
//! the set deliberately: it pins the fault-injection replay (schedules,
//! degraded-report flags, starved-pair accounting), not just the benign
//! paper path. The four study-based extras (`asymmetry`, `prevalence`,
//! `independence`, `sensitivity`) are in it too, dispatched as `figures`
//! dispatches them; `ablation` and `overlay` simulate their own networks
//! and are checked against `results/` by the benchmark instead.
//!
//! To regenerate after an intentional output change:
//!
//! ```text
//! DETOUR_BLESS=1 cargo test --test golden_reports
//! ```
//!
//! and commit the diff under `tests/golden/` with the change that caused
//! it.

use std::path::PathBuf;

use detour::datasets::Scale;
use detour_bench::{experiments, extras, Bundle, Study};

/// The snapshotted experiments: one cheap table, one headline figure, the
/// fault sweep, and one report per per-pair field the analyses read —
/// bandwidth/transfer summaries (`fig4`), raw RTT samples (`fig6`),
/// time-of-day slices (`fig9`), episode slices (`fig11`), modal AS paths
/// (`fig14`) and the samples' 10th percentile (`fig15`), plus the
/// study-based extras.
const GOLDEN: &[&str] = &[
    "table1",
    "fig1",
    "outage_sweep",
    "fig4",
    "fig6",
    "fig9",
    "fig11",
    "fig14",
    "fig15",
    "asymmetry",
    "prevalence",
    "independence",
    "sensitivity",
];

fn golden_path(id: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{id}.txt"))
}

#[test]
fn reports_match_committed_golden_snapshots() {
    let bless = std::env::var_os("DETOUR_BLESS").is_some();
    let study = Study::from_bundle(Bundle::generate(Scale::reduced(8, 24)));
    for id in GOLDEN {
        let report = extras::run(id, &study)
            .or_else(|| experiments::run(id, &study))
            .unwrap_or_else(|| panic!("{id} not in the registry"));
        let path = golden_path(id);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &report).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden snapshot {} ({e}); run DETOUR_BLESS=1 cargo test \
                 --test golden_reports to create it",
                path.display()
            )
        });
        assert_eq!(
            report, want,
            "{id} diverged from its golden snapshot; if the change is \
             intentional, re-bless with DETOUR_BLESS=1 and commit the diff"
        );
    }
}
