//! The two full-scale paper workloads.
//!
//! * `paper_warm` — one pass is warm `figures all`: load the eight
//!   datasets from the `.trace2` cache, build the study, and produce all
//!   [`all_ids`] reports. Each report is an operation.
//! * `paper_cold` — one pass is the simulate-and-write half of cold
//!   `figures all`: generate the eight datasets into an empty cache
//!   directory. Each dataset is an operation.
//!
//! `paper_warm`'s set-up is a warm load of the seed's cached datasets,
//! which a child process generates once per seed (see [`crate::data`]);
//! `paper_cold`'s is a warm-up generation at a tiny scale. `BENCHMARK.json`
//! gates only `paper_warm` (see `perfbench/README.md`).

use std::path::Path;

use detour_bench::experiments::{self, run_all, ALL_EXPERIMENTS, FAULT_EXPERIMENTS};
use detour_bench::extras::{self, EXTRA_EXPERIMENTS};
use detour_bench::{cache, Bundle, DataKey, Study};
use detour_core::analysis::{episodes, timeofday};
use detour_core::{pool, Loss, Rtt, SearchDepth};
use detour_datasets::{trace2, Scale};
use detour_obs::{Recorder, Stopwatch};

use crate::data::{self, Size, PAPER_NAMES};
use crate::kernel::{self, KERNEL_CALLS};
use crate::layers::{self, exp_name, Layers};
use crate::report::{self, median, Metrics, Tally};
use crate::Run;

/// Every `figures all` id in the order it runs them: the 19 paper
/// experiments, the 6 extras, then the fault sweep.
pub fn all_ids() -> Vec<&'static str> {
    let mut ids = ALL_EXPERIMENTS.to_vec();
    ids.extend(EXTRA_EXPERIMENTS);
    ids.extend(FAULT_EXPERIMENTS);
    ids
}

/// Runs one experiment by id, as `figures` dispatches it.
fn experiment(id: &str, study: &Study) -> String {
    if ALL_EXPERIMENTS.contains(&id) {
        run_all(study, &[id]).remove(0)
    } else {
        extras::run(id, study)
            .or_else(|| experiments::run(id, study))
            .unwrap_or_else(|| panic!("unknown experiment {id:?}"))
    }
}

/// The committed report of every id, when the run reproduces the
/// committed `results/` (seed 0, full scale).
fn committed(run: &Run) -> Option<Vec<Option<String>>> {
    (run.seed == 0 && run.size == Size::Full).then(|| {
        all_ids()
            .iter()
            .map(|id| {
                let path = format!("results/{id}.txt");
                Some(std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}")))
            })
            .collect()
    })
}

/// Warm-loads the cached bundle, asserting every dataset was a hit.
fn warm_load(scale: Scale) -> Bundle {
    let rec = detour_obs::current();
    let misses = rec.counter("cache/misses");
    let bundle = Bundle::generate_cached(scale, &data::dir("paper")).expect("paper trace cache");
    assert_eq!(
        rec.counter("cache/misses"),
        misses,
        "the warm cache must hold every dataset"
    );
    bundle
}

/// The `paper_warm` set-up: prepare the seed's cache, then time
/// [`crate::SETUP_ROUNDS`] warm loads of it. Set-up runs on 1 worker: no
/// pool thread has allocated yet when the 1-worker pass measures the
/// process's peak memory, so that reading does not depend on how freed
/// memory sits in other threads' allocator arenas.
fn setup(run: &Run) -> Vec<f64> {
    data::ensure("paper", run.size, run.seed);
    pool::set_threads(1);
    (0..crate::SETUP_ROUNDS)
        .map(|_| {
            let t = Stopwatch::start();
            drop(warm_load(run.size.paper(run.seed)));
            t.seconds()
        })
        .collect()
}

/// One warm pass: wall seconds, one report per id, and (for traced
/// passes) the study with the seconds of its build.
struct WarmPass {
    wall: f64,
    reports: Vec<Option<String>>,
    study: Option<(Study, f64, f64)>,
}

fn warm_pass(scale: Scale, tally: &mut Tally, keep_study: bool) -> WarmPass {
    let ids = all_ids();
    let t = Stopwatch::start();
    let loaded = std::panic::catch_unwind(|| warm_load(scale));
    let Ok(bundle) = loaded else {
        for id in &ids {
            tally.op(id, || panic!("the warm load failed"));
        }
        return WarmPass {
            wall: t.seconds(),
            reports: vec![None; ids.len()],
            study: None,
        };
    };
    let c = Stopwatch::start();
    let study = Study::from_bundle(bundle);
    let context_s = c.seconds();
    let e = Stopwatch::start();
    let (paper, rest) = ids.split_at(ALL_EXPERIMENTS.len());
    let mut reports: Vec<Option<String>> =
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_all(&study, paper))) {
            Ok(v) => {
                tally.attempted += v.len() as u64;
                v.into_iter().map(Some).collect()
            }
            // One experiment panicked inside the engine: rerun each alone to
            // find out which.
            Err(_) => paper
                .iter()
                .map(|id| tally.op(id, || experiment(id, &study)))
                .collect(),
        };
    for id in rest {
        reports.push(tally.op(id, || experiment(id, &study)));
    }
    let experiments_s = e.seconds();
    let wall = t.seconds();
    WarmPass {
        wall,
        reports,
        study: keep_study.then_some((study, context_s, experiments_s)),
    }
}

/// Checks every pass's reports against the oracle, element by element.
/// A report whose oracle is missing (its 1-worker run failed) fails.
fn check_reports(tally: &mut Tally, passes: &[Vec<Option<String>>], oracle: &[Option<String>]) {
    for reports in passes {
        for ((id, got), want) in all_ids().iter().zip(reports).zip(oracle) {
            if let Some(got) = got {
                tally.check(want.as_ref() == Some(got), id);
            }
        }
    }
}

/// The `paper_warm` workload.
pub fn run_warm(run: &Run, tally: &mut Tally, metrics: &mut Metrics) {
    let setups = setup(run);
    let scale = run.size.paper(run.seed);
    let committed = committed(run);

    if run.trace {
        pool::set_threads(run.nproc);
        let untraced = warm_pass(scale, tally, false);
        let rec = Recorder::new();
        let guard = detour_obs::install(rec.clone());
        let traced = warm_pass(scale, tally, true);
        drop(guard);
        let rep = rec.snapshot();
        let mut l = Layers::default();
        layers::from_recorder(&mut l, &rep, traced.wall, run.nproc);
        l.set("engine.prebuild_s", rep.span_seconds("engine/prebuild"));
        l.set("trace.overhead_frac", traced.wall / untraced.wall);
        let oracle = committed.unwrap_or_else(|| untraced.reports.clone());
        let mut passes = vec![untraced.reports, traced.reports];
        if let Some((study, context_s, experiments_s)) = traced.study {
            l.set("context.build_s", context_s);
            l.set("engine.experiments_s", experiments_s);
            probe_trace2(&mut l, scale, tally);
            probe_slices(&mut l, &study);
            probe_kernel(&mut l, &study, tally);
            // Each experiment alone, on the warm study.
            let mut alone = Vec::new();
            let mut max_s = 0.0f64;
            for id in all_ids() {
                let t = Stopwatch::start();
                alone.push(tally.op(id, || experiment(id, &study)));
                let s = t.seconds();
                l.set(&exp_name(id), s);
                max_s = max_s.max(s);
            }
            l.set("exp.max_s", max_s);
            passes.push(alone);
        }
        check_reports(tally, &passes, &oracle);
        l.emit(metrics);
        return;
    }

    let start = Stopwatch::start();
    let (mut walls, mut walls_1w, mut passes) = (Vec::new(), Vec::new(), Vec::new());
    let mut peaks = Vec::new();
    let mut reference = None;
    loop {
        pool::set_threads(1);
        report::reset_peak_rss();
        let p = warm_pass(scale, tally, false);
        peaks.push(report::peak_rss_mb());
        walls_1w.push(p.wall);
        if reference.is_none() {
            reference = Some(p.reports);
        } else {
            passes.push(p.reports);
        }
        pool::set_threads(run.nproc);
        let p = warm_pass(scale, tally, false);
        walls.push(p.wall);
        passes.push(p.reports);
        if start.seconds() >= run.seconds {
            break;
        }
    }
    pool::set_threads(run.nproc);
    let reference = reference.expect("at least one 1-worker pass");
    match committed {
        Some(c) => {
            passes.push(reference);
            check_reports(tally, &passes, &c);
        }
        None => check_reports(tally, &passes, &reference),
    }
    metrics.push("wall_s", median(&walls), "s");
    metrics.push("wall_1w_s", median(&walls_1w), "s");
    metrics.push("setup_s", median(&setups), "s");
    metrics.push(
        "peak_rss_mb",
        peaks.iter().copied().fold(0.0, f64::max),
        "MiB",
    );
}

/// Times decoding every cached dataset and re-encoding it; the re-encoded
/// bytes must equal the cached file (the format's fixed point).
fn probe_trace2(l: &mut Layers, scale: Scale, tally: &mut Tally) {
    let probe = data::dir("probe");
    std::fs::create_dir_all(&probe).expect("create the probe directory");
    let (mut decode, mut encode, mut bytes) = (0.0, 0.0, 0.0);
    for (name, path) in PAPER_NAMES.iter().zip(data::paper_files(scale)) {
        bytes += std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64);
        let out = probe.join(format!("{name}.trace2"));
        let timed = tally.op(name, || {
            let t = Stopwatch::start();
            let ds = trace2::load(&path).expect("decode");
            let d = t.seconds();
            let t = Stopwatch::start();
            trace2::save(&ds, &out).expect("encode");
            (d, t.seconds())
        });
        if let Some((d, e)) = timed {
            decode += d;
            encode += e;
            tally.check(same_bytes(&path, &out), name);
        }
    }
    l.set("trace2.decode_s", decode);
    l.set("trace2.encode_s", encode);
    l.set("trace2.bytes_read", bytes);
}

/// Times the episode and time-of-day slice layers on their datasets.
fn probe_slices(l: &mut Layers, study: &Study) {
    let uw4a = study.ctx(DataKey::Uw4A);
    let n_episodes = episodes::episode_ids(uw4a.dataset()).len() as f64;
    let t = Stopwatch::start();
    let _ = episodes::analyze(uw4a, study.ctx(DataKey::Uw4B), &Rtt);
    l.set("slice.episode_s", t.seconds());
    l.set("slice.episodes", n_episodes);
    // Computed, not counted: each episode's filtered rebuild makes two
    // passes over every UW4-A probe.
    l.set(
        "slice.episode_probe_visits",
        2.0 * n_episodes * uw4a.dataset().probes.len() as f64,
    );
    let uw3 = study.ctx(DataKey::Uw3);
    let t = Stopwatch::start();
    let _ = timeofday::improvement_by_slice(uw3, &Rtt, SearchDepth::Unrestricted);
    let _ = timeofday::improvement_by_slice(uw3, &Loss, SearchDepth::Unrestricted);
    l.set("slice.timeofday_s", t.seconds());
}

/// Times the scale_kernel calls on UW3, the paper's kernel dataset.
fn probe_kernel(l: &mut Layers, study: &Study, tally: &mut Tally) {
    for name in KERNEL_CALLS {
        let t = Stopwatch::start();
        tally.op(name, || kernel::call(name, study.ctx(DataKey::Uw3)));
        l.add(kernel::layer_of(name), t.seconds());
    }
}

fn same_bytes(a: &Path, b: &Path) -> bool {
    matches!((std::fs::read(a), std::fs::read(b)), (Ok(x), Ok(y)) if x == y)
}

/// Empties the `cold` cache directory.
fn purge_cold() {
    let dir = data::dir("cold");
    cache::purge(&dir).expect("empty the cold cache directory");
    std::fs::create_dir_all(&dir).expect("create the cold cache directory");
}

/// The `paper_cold` set-up: [`crate::SETUP_ROUNDS`] timed warm-up
/// generations of the eight datasets at a tiny scale (8 hosts, 1/96 of
/// the trace), on 1 worker for the same reason as the `paper_warm`
/// set-up, so code and allocator are warm before the first timed pass.
fn cold_setup(run: &Run) -> Vec<f64> {
    pool::set_threads(1);
    purge_cold();
    (0..crate::SETUP_ROUNDS)
        .map(|_| {
            let t = Stopwatch::start();
            drop(Bundle::generate(
                Scale::reduced(8, 96).with_seed_offset(run.seed),
            ));
            t.seconds()
        })
        .collect()
}

/// One cold pass into the empty `cold` directory: wall seconds and the
/// generated bundle.
fn cold_pass(scale: Scale, tally: &mut Tally) -> (f64, Option<Bundle>) {
    let dir = data::dir("cold");
    let t = Stopwatch::start();
    let bundle = std::panic::catch_unwind(|| Bundle::generate_cached(scale, &dir));
    let wall = t.seconds();
    tally.attempted += PAPER_NAMES.len() as u64;
    match bundle {
        Ok(Ok(b)) => (wall, Some(b)),
        _ => {
            tally.failed += PAPER_NAMES.len() as u64;
            eprintln!("perfbench: FAILED cold generation");
            (wall, None)
        }
    }
}

/// The cold pass's oracle: each written `.trace2` reloads bit-identical
/// to the dataset generated in memory, and its bytes hash to the same
/// checksum as in the run's first pass (`first`, filled on that pass).
fn check_cold(tally: &mut Tally, bundle: &Bundle, scale: Scale, first: &mut Vec<u64>) {
    let cold = data::dir("cold");
    let fill = first.is_empty();
    for (i, ds) in bundle.in_table_order().iter().enumerate() {
        let path = cache::cache_path(&cold, &ds.name, scale);
        let bytes = std::fs::read(&path).unwrap_or_default();
        let reloads = trace2::from_bytes(&bytes).is_ok_and(|back| back == **ds);
        let sum = trace2::checksum(&bytes);
        if fill {
            first.push(sum);
        }
        tally.check(reloads && first[i] == sum, &ds.name);
    }
}

/// At seed 0, the table1 report built from freshly generated datasets
/// must match the committed one. Returns the seconds the study took to
/// build.
fn check_table1(run: &Run, tally: &mut Tally, bundle: Bundle) -> f64 {
    let t = Stopwatch::start();
    let study = Study::from_bundle(bundle);
    let context_s = t.seconds();
    if let Some(committed) = committed(run) {
        if let Some(report) = tally.op("table1", || experiment("table1", &study)) {
            tally.check(Some(&report) == committed[0].as_ref(), "table1");
        }
    }
    context_s
}

/// The `paper_cold` workload.
pub fn run_cold(run: &Run, tally: &mut Tally, metrics: &mut Metrics) {
    let setups = cold_setup(run);
    let scale = run.size.paper(run.seed);
    let mut first = Vec::new();

    if run.trace {
        pool::set_threads(run.nproc);
        let (untraced, b) = cold_pass(scale, tally);
        if let Some(b) = &b {
            check_cold(tally, b, scale, &mut first);
        }
        drop(b);
        purge_cold();
        let rec = Recorder::new();
        let guard = detour_obs::install(rec.clone());
        let (traced, bundle) = cold_pass(scale, tally);
        drop(guard);
        let mut l = Layers::default();
        let rep = rec.snapshot();
        layers::from_recorder(&mut l, &rep, traced, run.nproc);
        l.set("trace.overhead_frac", traced / untraced);
        if let Some(bundle) = bundle {
            check_cold(tally, &bundle, scale, &mut first);
            let probes: usize = bundle
                .in_table_order()
                .iter()
                .map(|d| d.probes.len() + d.transfers.len())
                .sum();
            l.set("campaign.probes", probes as f64);
            l.set(
                "campaign.probes_per_s",
                report::ratio(probes as f64, rep.span_seconds("dataset/campaign")),
            );
            probe_cold_trace2(&mut l, &bundle, scale);
            l.set("context.build_s", check_table1(run, tally, bundle));
        }
        purge_cold();
        l.emit(metrics);
        return;
    }

    let start = Stopwatch::start();
    let (mut walls, mut walls_1w) = (Vec::new(), Vec::new());
    let mut peaks = Vec::new();
    loop {
        for (threads, out) in [(1, &mut walls_1w), (run.nproc, &mut walls)] {
            pool::set_threads(threads);
            report::reset_peak_rss();
            let (wall, bundle) = cold_pass(scale, tally);
            if threads == 1 {
                peaks.push(report::peak_rss_mb());
            }
            out.push(wall);
            if let Some(bundle) = bundle {
                let was_first = first.is_empty();
                check_cold(tally, &bundle, scale, &mut first);
                if was_first {
                    check_table1(run, tally, bundle);
                }
            }
            purge_cold();
        }
        if start.seconds() >= run.seconds {
            break;
        }
    }
    pool::set_threads(run.nproc);
    metrics.push("wall_s", median(&walls), "s");
    metrics.push("wall_1w_s", median(&walls_1w), "s");
    metrics.push("setup_s", median(&setups), "s");
    metrics.push(
        "peak_rss_mb",
        peaks.iter().copied().fold(0.0, f64::max),
        "MiB",
    );
}

/// Times decoding the files the cold pass wrote and re-encoding the
/// generated datasets.
fn probe_cold_trace2(l: &mut Layers, bundle: &Bundle, scale: Scale) {
    let cold = data::dir("cold");
    let probe = data::dir("probe");
    std::fs::create_dir_all(&probe).expect("create the probe directory");
    let (mut decode, mut encode, mut bytes) = (0.0, 0.0, 0.0);
    for ds in bundle.in_table_order() {
        let path = cache::cache_path(&cold, &ds.name, scale);
        bytes += std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64);
        let t = Stopwatch::start();
        let _ = trace2::load(&path);
        decode += t.seconds();
        let t = Stopwatch::start();
        trace2::save(ds, &probe.join(format!("{}.trace2", ds.name))).expect("encode");
        encode += t.seconds();
    }
    l.set("trace2.decode_s", decode);
    l.set("trace2.encode_s", encode);
    l.set("trace2.bytes_read", bytes);
}
