//! The refactor's safety net: the shared-artifact engine must be a pure
//! performance change. Every registered experiment is run twice on the
//! same study — once through [`detour_bench::experiments::run_all`]
//! (artifacts built once, shared across experiments) and once through
//! [`detour_bench::reference::run_rebuild`] (every experiment rebuilds
//! pair tables and weight matrices from scratch, the
//! pre-refactor engine) — and the reports must match byte for byte at
//! 1, 2, and 8 worker threads.

use detour::core::pool;
use detour::datasets::Scale;
use detour_bench::experiments::{run_all, ALL_EXPERIMENTS};
use detour_bench::{reference, Bundle, Study};

#[test]
fn shared_engine_matches_rebuild_engine_for_every_experiment() {
    let study = Study::from_bundle(Bundle::generate(Scale::reduced(8, 24)));

    pool::set_threads(1);
    let rebuild: Vec<String> = ALL_EXPERIMENTS
        .iter()
        .map(|id| reference::run_rebuild(id, &study).expect("registered id"))
        .collect();

    for threads in [1usize, 2, 8] {
        pool::set_threads(threads);
        let shared = run_all(&study, ALL_EXPERIMENTS);
        assert_eq!(shared.len(), rebuild.len());
        for (id, (s, r)) in ALL_EXPERIMENTS.iter().zip(shared.iter().zip(&rebuild)) {
            assert_eq!(
                s, r,
                "{id}: shared-artifact report at {threads} thread(s) \
                 differs from the rebuild-per-experiment engine"
            );
        }
    }
    pool::set_threads(0);
}

#[test]
fn rebuild_engine_is_itself_deterministic_across_thread_counts() {
    // Gate the reference too: if the old engine ever became
    // thread-sensitive, the equivalence above would be comparing against
    // a moving target.
    let study = Study::from_bundle(Bundle::generate(Scale::reduced(8, 24)));
    let sample = ["fig1", "table1", "fig12"];
    let mut runs = Vec::new();
    for threads in [1usize, 2, 8] {
        pool::set_threads(threads);
        runs.push(
            sample
                .iter()
                .map(|id| reference::run_rebuild(id, &study).expect("registered id"))
                .collect::<Vec<_>>(),
        );
    }
    pool::set_threads(0);
    assert_eq!(runs[0], runs[1], "2 threads diverged from 1");
    assert_eq!(runs[0], runs[2], "8 threads diverged from 1");
}
