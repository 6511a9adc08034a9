//! Produces `BENCH_baseline.json`: wall-clock timings of the shared-artifact
//! experiment engine at several worker counts, plus the byte-identity
//! checks that justify calling the parallelism (and the refactor) safe.
//!
//! ```text
//! cargo run -p detour-bench --release --bin baseline -- [out.json]
//! ```
//!
//! Every number this binary reports is a name in one `detour-obs`
//! [`Recorder`] installed at the top of `main`: the pipeline's own spans
//! and counters (`net/*`, `dataset/*`, `cache/*`, `context/*`,
//! `kernel/*`, `engine/*`, `faults/*`, `pool/*`) accumulate alongside the
//! baseline's own `baseline/*` spans, counters and gauges. The snapshot is
//! the only report: it is written to the output path (schema
//! `detour-obs-v1`, `BENCH_baseline.json` by default) and rendered as a
//! table on stderr at the end of the run. Per-worker-count values carry a
//! fixed label suffix — `w1`, `w2`, `w4`, or `wmax` for the
//! `available_parallelism` row when it is none of those — so the names
//! stay the fixed vocabulary of `scripts/obs_manifest.txt`.
//!
//! The run starts **cold**: the trace cache under `results/cache/` is
//! purged and regenerated once (eight misses, `baseline/cold_generate`),
//! timing how much a cold start costs. Every subsequent "run" is **warm** —
//! it loads the eight datasets from the cache (eight hits; the datasets are
//! byte-identical to generation because the `.trace2` round-trip is
//! lossless), builds the [`Study`] of shared `AnalysisContext`s, and
//! executes every paper experiment through the declarative engine
//! ([`run_all`]), timed whole (`baseline/warm/<w>`) and split per stage
//! (`baseline/warm_{load,context,experiments}/<w>`). The run repeats
//! at 1, 2, 4, and `available_parallelism` workers — except on a
//! single-core host, where only the 1-worker run executes: multi-worker
//! rows there measure pure scheduling overhead (0.85–0.96× "speedups") and
//! would read as regressions, so they are suppressed rather than recorded.
//! Three gates, all fatal:
//!
//! * every report must be byte-identical across worker counts;
//! * every report must be byte-identical to the pre-refactor
//!   rebuild-per-experiment engine ([`reference::run_rebuild`]) at every
//!   worker count;
//! * on a multi-core host, the 2-worker warm run must reach a 1.2×
//!   speedup over 1 worker (`baseline/warm_speedup/w2`; experiments are
//!   the parallelism unit, and the artifact store removes the rebuild
//!   serialization that used to eat the win).
//!
//! Each warm run also records its cache hit/miss counts
//! (`baseline/warm_{hits,misses}/<w>`) and its artifact build count
//! (`baseline/artifact_builds/<w>`) — the sum of the `context/*_builds`
//! counters: eight tables and one weight matrix per (dataset,
//! metric-family) actually used — which proves each artifact was built
//! exactly once no matter how many experiments shared it.
//!
//! The Figure-12 greedy host removal is timed both ways — the pre-change
//! clone-plus-rebuild loop
//! ([`detour_bench::reference::clone_rebuild_greedy`]) against the
//! mask-based flat-kernel loop — on the same table
//! (`baseline/fig12_{clone_rebuild,masked_kernel}`, ratio in
//! `baseline/fig12_speedup`).
//!
//! The `scale_*` names time the source-batched best-alternate kernel on
//! the 128-host SCALE dataset ([`detour_bench::scale`], generated through
//! the same trace cache) at every worker count, byte-compare every run
//! against the first and against the retained per-pair reference
//! ([`reference::per_pair_sweep`]), and record the pair/fix-up/avoided
//! re-search counts (from the `kernel/sweep_*` counters). The dataset's
//! load path is timed three ways — `scale_load_cold` (post-purge, so
//! generation plus the first `.trace2` write), `scale_load_warm` (warm
//! binary decode, best of three via [`Recorder::best_of`]), and
//! `scale_load_text` (the text parser on a `.trace` copy of the same
//! dataset the gate writes and deletes itself, best of three) — all three
//! loads asserted equal. Three gates ride on it: the batched kernel must
//! beat the per-pair reference ≥ 3× at one worker (always), the warm
//! `.trace2` load must beat the text parser ≥ 3× (always), and two workers
//! must beat one by ≥ 1.3× (multi-core hosts only).
//!
//! Two further sections map where dataset generation itself spends its
//! time (it is all cold-start cost now that warm runs load traces):
//!
//! * `baseline/generate*/<w>` — one representative reduced UW3 generation
//!   per worker count, split into network-build / routing-precompute /
//!   campaign / assemble wall-clock, read from the pipeline's own
//!   `net/build`, `net/routing`, `dataset/campaign`, and
//!   `dataset/assemble` spans;
//! * `baseline/campaign/<w>` — the measurement campaign alone (fixed
//!   network, fixed request list) at each worker count, with the output
//!   byte-compared to the 1-worker run. On a multi-core host the 2-worker
//!   campaign must reach a 1.3× speedup.

use std::path::Path;

use detour_bench::experiments::{run_all, ALL_EXPERIMENTS};
use detour_bench::{cache, reference, scale as scale_workload, Bundle, Study};
use detour_core::altpath::SearchDepth;
use detour_core::analysis::hostremoval::greedy_removal;
use detour_core::kernel;
use detour_core::{pool, AnalysisContext, Rtt};
use detour_datasets::Scale;
use detour_measure::{run_campaign, tracefile, CampaignConfig, Request, Schedule};
use detour_netsim::Network;
use detour_obs::{Recorder, RunReport};
use detour_prng::Xoshiro256pp;

/// The benchmark scale: big enough that stage timings dominate the timer
/// granularity, small enough to keep the baseline quick.
const SCALE: (usize, u32) = (10, 16);

/// Where the trace cache lives (matches the `figures` binary).
const CACHE_DIR: &str = "results/cache";

fn scale() -> Scale {
    Scale::reduced(SCALE.0, SCALE.1)
}

/// The fixed label of a worker count in recorder names.
fn label(n: usize) -> &'static str {
    match n {
        1 => "w1",
        2 => "w2",
        4 => "w4",
        _ => "wmax",
    }
}

/// Sum of the `context/*_builds` counters in a report delta — the number
/// of shared artifacts (pair tables, weight matrices, bandwidth
/// matrices) constructed during that window.
fn artifact_builds(d: &RunReport) -> u64 {
    [
        "context/table_builds",
        "context/weights_rtt_builds",
        "context/weights_loss_builds",
        "context/weights_prop_builds",
        "context/bandwidth_builds",
    ]
    .iter()
    .map(|name| d.counter(name))
    .sum()
}

/// One warm engine run at worker label `w`: cache load → context build →
/// experiment sweep, each stage and the whole run a `baseline/warm_*/<w>`
/// span. Records the run's cache hits/misses and artifact build count and
/// returns the concatenated reports.
fn warm_run(rec: &Recorder, dir: &Path, w: &str) -> Vec<String> {
    let before = rec.snapshot();
    let total = rec.span(&format!("baseline/warm/{w}"));
    let (bundle, _) = rec.time(&format!("baseline/warm_load/{w}"), || {
        Bundle::generate_cached(scale(), dir).expect("trace cache")
    });
    let (study, _) = rec.time(&format!("baseline/warm_context/{w}"), || {
        Study::from_bundle(bundle)
    });
    let (reports, _) = rec.time(&format!("baseline/warm_experiments/{w}"), || {
        run_all(&study, ALL_EXPERIMENTS)
    });
    total.finish();
    let d = rec.snapshot().delta_since(&before);
    let (hits, misses) = (d.counter("cache/hits"), d.counter("cache/misses"));
    assert_eq!(
        (hits, misses),
        (8, 0),
        "warm run must load all eight datasets from the cache"
    );
    rec.add(&format!("baseline/warm_hits/{w}"), hits);
    rec.add(&format!("baseline/warm_misses/{w}"), misses);
    rec.add(
        &format!("baseline/artifact_builds/{w}"),
        artifact_builds(&d),
    );
    reports
}

/// The pre-refactor engine's reports for the same study, for byte-identity.
fn rebuild_reports(dir: &Path) -> Vec<String> {
    let bundle = Bundle::generate_cached(scale(), dir).expect("trace cache");
    let study = Study::from_bundle(bundle);
    ALL_EXPERIMENTS
        .iter()
        .map(|id| reference::run_rebuild(id, &study).expect("known id"))
        .collect()
}

/// Host count and removal count for the Figure-12 greedy timing.
const FIG12_HOSTS: usize = 20;
const FIG12_REMOVALS: usize = 5;

/// Times the Figure-12 greedy both ways on one table, checks both agree,
/// and records their ratio as `baseline/fig12_speedup`.
fn time_fig12_greedy(rec: &Recorder) {
    let ds = detour_datasets::DatasetId::Uw3.generate_scaled(FIG12_HOSTS, 16);
    let cx = AnalysisContext::from_dataset(&ds);
    let k = FIG12_REMOVALS;

    let (kern, kernel_secs) = rec.time("baseline/fig12_masked_kernel", || {
        greedy_removal(&cx, &Rtt, k)
    });
    let (refr, reference_secs) = rec.time("baseline/fig12_clone_rebuild", || {
        reference::clone_rebuild_greedy(cx.table(), &Rtt, k)
    });

    // The speedup claim is only meaningful if both loops computed the same
    // experiment.
    assert_eq!(
        kern.removed, refr.removed,
        "kernel and reference greedy diverged"
    );
    rec.set_gauge("baseline/fig12_hosts", FIG12_HOSTS as f64);
    rec.set_gauge("baseline/fig12_removals", FIG12_REMOVALS as f64);
    rec.set_gauge(
        "baseline/fig12_speedup",
        reference_secs / kernel_secs.max(1e-9),
    );
}

/// One representative reduced UW3 generation at worker label `w`, timed
/// whole as `baseline/generate/<w>`. The generation pipeline instruments
/// itself (`net/build`, `net/routing`, `dataset/campaign`,
/// `dataset/assemble`); their deltas become the per-stage
/// `baseline/generate_*/<w>` spans, showing where generation time goes as
/// workers scale.
fn staged_generate(rec: &Recorder, w: &str) {
    let before = rec.snapshot();
    rec.time(&format!("baseline/generate/{w}"), || {
        detour_datasets::generate(&detour_datasets::uw3::spec(), scale())
    });
    let d = rec.snapshot().delta_since(&before);
    for (stage, span) in [
        ("network", "net/build"),
        ("routing", "net/routing"),
        ("campaign", "dataset/campaign"),
        ("assemble", "dataset/assemble"),
    ] {
        rec.record_seconds(
            &format!("baseline/generate_{stage}/{w}"),
            d.span_seconds(span),
        );
    }
}

/// A fixed campaign workload for the thread-scaling entry: one reduced
/// 1999 network and a pairwise-exponential request list, both independent
/// of the worker count.
fn campaign_workload() -> (Network, Vec<Request>) {
    let spec = detour_datasets::uw3::spec();
    let net = detour_datasets::build_network(&spec, scale());
    let hosts: Vec<_> = net.hosts().iter().take(10).map(|h| h.id).collect();
    let requests = Schedule::PairwiseExponential { mean_s: 6.0 }.generate(
        &hosts,
        12.0 * 3600.0,
        &mut Xoshiro256pp::seed_from_u64(17),
    );
    (net, requests)
}

/// Records the gauge `baseline/<what>_speedup/<w>` = (1-worker seconds) /
/// (`w` seconds) for every worker count, read from the spans
/// `baseline/<what>/<w>`. Returns the 2-worker speedup when that row ran.
fn record_speedups(rec: &Recorder, counts: &[usize], what: &str) -> Option<f64> {
    let report = rec.snapshot();
    let t1 = report.span_seconds(&format!("baseline/{what}/w1"));
    let mut two = None;
    for &n in counts {
        let w = label(n);
        let speedup = t1
            / report
                .span_seconds(&format!("baseline/{what}/{w}"))
                .max(1e-9);
        rec.set_gauge(&format!("baseline/{what}_speedup/{w}"), speedup);
        if n == 2 {
            two = Some(speedup);
        }
    }
    two
}

/// Prints a gate failure and exits non-zero.
fn fail(msg: &str) -> ! {
    eprintln!("baseline: FAIL — {msg}");
    std::process::exit(1);
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_baseline.json".to_string());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cache_dir = Path::new(CACHE_DIR);

    // One recorder for the whole run: installed here, inherited by every
    // pool worker, snapshotted at the end into the output file.
    let rec = Recorder::new();
    let _obs = detour_obs::install(rec.clone());
    rec.set_gauge("baseline/cores", cores as f64);
    rec.set_gauge("baseline/experiments", ALL_EXPERIMENTS.len() as f64);

    // On a single-core host, multi-worker rows measure scheduling overhead,
    // not parallelism — suppress them instead of recording 0.9x "speedups".
    let mut counts = if cores > 1 {
        vec![1usize, 2, 4, cores]
    } else {
        vec![1usize]
    };
    counts.sort_unstable();
    counts.dedup();

    pool::set_threads(0);

    // Cold start: purge the trace cache and generate every dataset exactly
    // once (the only simulation work in the whole run).
    cache::purge(cache_dir).expect("purge trace cache");
    let before_cold = rec.snapshot();
    let (_, cold_secs) = rec.time("baseline/cold_generate", || {
        Bundle::generate_cached(scale(), cache_dir).expect("cold generate")
    });
    let cold_delta = rec.snapshot().delta_since(&before_cold);
    let (cold_hits, cold_misses) = (
        cold_delta.counter("cache/hits"),
        cold_delta.counter("cache/misses"),
    );
    assert_eq!(
        (cold_hits, cold_misses),
        (0, 8),
        "cold run must generate all eight datasets"
    );
    rec.add("baseline/cold_hits", cold_hits);
    rec.add("baseline/cold_misses", cold_misses);
    eprintln!("baseline: cold generate {cold_secs:.2} s ({cold_misses} misses -> {CACHE_DIR})");

    // The campaign workload is built once, outside the timed loop, so every
    // worker count measures the same network and request list.
    let (camp_net, camp_reqs) = campaign_workload();
    rec.set_gauge("baseline/campaign_requests", camp_reqs.len() as f64);

    let mut first_reports: Option<Vec<String>> = None;
    let mut first_campaign = None;
    for &n in &counts {
        pool::set_threads(n);
        let w = label(n);
        let reports = warm_run(&rec, cache_dir, w);

        // Gate 1: byte identity across worker counts (vs the first run).
        match &first_reports {
            None => first_reports = Some(reports.clone()),
            Some(r) if *r != reports => fail(&format!(
                "reports at {n} workers differ from {} workers",
                counts[0]
            )),
            Some(_) => {}
        }
        // Gate 2: byte identity vs the rebuild-per-experiment engine at
        // *this* worker count.
        let rebuilt = rebuild_reports(cache_dir);
        if rebuilt != reports {
            for (id, (a, b)) in ALL_EXPERIMENTS.iter().zip(reports.iter().zip(&rebuilt)) {
                if a != b {
                    eprintln!(
                        "baseline: FAIL — {id} differs from the rebuild engine at {n} workers"
                    );
                }
            }
            std::process::exit(1);
        }

        staged_generate(&rec, w);

        let (raw, _) = rec.time(&format!("baseline/campaign/{w}"), || {
            run_campaign(&camp_net, &camp_reqs, &CampaignConfig::traceroute(), 17)
        });
        match &first_campaign {
            None => first_campaign = Some(raw),
            Some(r) if *r != raw => fail(&format!(
                "campaign output at {n} workers differs from 1 worker"
            )),
            Some(_) => {}
        }
        eprintln!("baseline: {n} worker(s) done");
    }

    // Figure-12 greedy: clone-rebuild reference vs. masked kernel, single
    // worker so the ratio measures the algorithm, not the fan-out.
    pool::set_threads(1);
    time_fig12_greedy(&rec);
    pool::set_threads(0);

    // scale_sweep: the 128-host kernel workload. The batched sweep runs at
    // every worker count (byte-compared against the first run), then the
    // retained per-pair reference runs once at one worker for the headline
    // algorithmic speedup.
    // The initial purge wiped the SCALE entry too, so the first load pays
    // for generation — that is the *cold* row. The *warm* row (the number
    // the load-path optimization is gated on) times the `.trace2` decode
    // alone, best of three, against the legacy text parser on the same
    // dataset, also best of three.
    let ((scale_ds, scale_hit), _) = rec.time("baseline/scale_load_cold", || {
        scale_workload::load_or_generate(cache_dir).expect("scale dataset")
    });
    rec.add("baseline/scale_cold_hits", u64::from(scale_hit));
    rec.set_gauge("baseline/scale_hosts", scale_ds.hosts.len() as f64);
    assert!(
        scale_ds.hosts.len() >= 120,
        "scale_sweep needs >= 120 hosts, got {}",
        scale_ds.hosts.len()
    );
    let (_, scale_load_secs) = rec.best_of("baseline/scale_load_warm", 3, || {
        let (warm_ds, warm_hit) =
            scale_workload::load_or_generate(cache_dir).expect("warm scale dataset");
        assert!(warm_hit, "warm scale load must be a cache hit");
        assert_eq!(
            warm_ds, scale_ds,
            "warm .trace2 load must be byte-identical"
        );
    });
    let scale_text_path = cache::cache_path(
        cache_dir,
        scale_workload::scale_spec().name,
        scale_workload::scale_scale(),
    )
    .with_extension("trace");
    tracefile::save(&scale_ds, &scale_text_path).expect("write text trace");
    let (_, text_load_secs) = rec.best_of("baseline/scale_load_text", 3, || {
        let text_ds = tracefile::load(&scale_text_path).expect("text trace load");
        assert_eq!(text_ds, scale_ds, "text load must be byte-identical");
    });
    std::fs::remove_file(&scale_text_path).expect("remove the text trace copy");
    let load_speedup = text_load_secs / scale_load_secs.max(1e-9);
    rec.set_gauge("baseline/binary_load_speedup_vs_text", load_speedup);

    let scale_cx = AnalysisContext::from_dataset(&scale_ds);
    let scale_m = scale_cx.weights(&Rtt);
    let scale_mask = scale_m.no_mask();
    let mut first_sweep = None;
    for &n in &counts {
        pool::set_threads(n);
        let before = rec.snapshot();
        let (out, _) = rec.time(&format!("baseline/scale_sweep/{}", label(n)), || {
            kernel::sweep(scale_m, &scale_mask, &Rtt, SearchDepth::Unrestricted)
        });
        let d = rec.snapshot().delta_since(&before);
        let stats = [
            d.counter("kernel/sweep_pairs"),
            d.counter("kernel/sweep_fixups"),
            d.counter("kernel/sweep_avoided"),
        ];
        match &first_sweep {
            None => {
                rec.add("baseline/scale_pairs", stats[0]);
                rec.add("baseline/scale_fixups", stats[1]);
                rec.add("baseline/scale_avoided", stats[2]);
                first_sweep = Some((out, stats));
            }
            Some((first_out, first_stats)) if *first_out != out || *first_stats != stats => {
                fail(&format!(
                    "scale_sweep output at {n} workers differs from {} workers",
                    counts[0]
                ))
            }
            Some(_) => {}
        }
    }
    // The per-pair reference, single-worker, and the batched kernel's
    // matching single-worker time for the algorithmic (not fan-out) ratio.
    pool::set_threads(1);
    let (per_pair, sweep_ref_secs) = rec.time("baseline/scale_sweep_reference", || {
        reference::per_pair_sweep(scale_m, &scale_mask, &Rtt, SearchDepth::Unrestricted)
    });
    pool::set_threads(0);
    if first_sweep.map(|(out, _)| out) != Some(per_pair) {
        fail("scale_sweep batched kernel differs from per-pair reference");
    }
    let sweep_algo_speedup = sweep_ref_secs
        / rec
            .snapshot()
            .span_seconds("baseline/scale_sweep/w1")
            .max(1e-9);
    rec.set_gauge("baseline/batched_speedup_vs_reference", sweep_algo_speedup);

    let [engine_2, campaign_2, sweep_2] =
        ["warm", "campaign", "scale_sweep"].map(|what| record_speedups(&rec, &counts, what));

    // The one report: the recorder snapshot, to disk as stable
    // `detour-obs-v1` JSON and to stderr as a table.
    let report = rec.snapshot();
    std::fs::write(&out_path, report.to_json()).expect("write baseline report");
    eprintln!("baseline: wrote {out_path}");
    eprint!("{}", report.to_table());

    // Gate 3. Byte identity already enforced above; on a real multi-core
    // machine, two workers must beat one by a real margin end-to-end (the
    // experiments fan out whole, and artifact prebuilding parallelizes),
    // and the campaign alone — embarrassingly parallel over requests —
    // must too, as must the batched sweep on the scale workload.
    if cores > 1 {
        for (what, speedup, min) in [
            ("", engine_2, 1.2),
            (" campaign", campaign_2, 1.3),
            (" scale_sweep", sweep_2, 1.3),
        ] {
            if let Some(s) = speedup.filter(|&s| s < min) {
                fail(&format!(
                    "2-worker{what} speedup {s:.2} < {min} on {cores} cores"
                ));
            }
        }
    }

    // Gate 4, unconditional: the batched kernel must beat the per-pair
    // reference by an algorithmic margin at one worker — one SSSP per
    // source plus a minority of fix-up re-searches vs. one full Dijkstra
    // per pair.
    if sweep_algo_speedup < 3.0 {
        fail(&format!(
            "scale_sweep batched/reference speedup {sweep_algo_speedup:.2} < 3.0"
        ));
    }

    // Gate 5, unconditional: the warm `.trace2` decode must beat the text
    // parser by an algorithmic margin — fixed-stride column reads vs.
    // per-line float parsing, on the identical dataset.
    if load_speedup < 3.0 {
        fail(&format!(
            "scale_sweep binary/text load speedup {load_speedup:.2} < 3.0"
        ));
    }
}
