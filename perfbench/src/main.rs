//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <paper_warm|paper_cold|scale_kernel> [--seed N]
//!           [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! One process runs one workload at `nproc` pool workers (and, where the
//! workload asks for it, at 1 worker) and prints, as its last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the run also times each layer and prints the per-layer
//! metrics instead. `--seed` (default 0) perturbs every simulated input
//! through `Scale::seed_offset`; at seed 0 the paper workloads also check
//! their outputs against the committed `results/`. `--smoke` runs the same
//! code on reduced inputs. Progress goes to standard error.
//!
//! The benchmark calls the detour crates through their public API only and
//! writes nothing outside `.bench_cache/` in the working directory, which
//! must be the repository root.

mod data;
mod kernel;
mod layers;
mod paper;
mod report;

use std::process::exit;

use report::{Metrics, Tally};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;

/// The workloads, as named in `BENCHMARK.json`.
const WORKLOADS: [&str; 3] = ["paper_warm", "paper_cold", "scale_kernel"];

/// One run's parameters.
#[derive(Debug)]
pub struct Run {
    /// Which workload.
    pub workload: String,
    /// Input seed (`Scale::seed_offset`).
    pub seed: u64,
    /// Measure until this many seconds have passed (at least one pass).
    pub seconds: f64,
    /// Per-layer run instead of end-to-end.
    pub trace: bool,
    /// Input size.
    pub size: data::Size,
    /// Pool workers of the main passes: every available core.
    pub nproc: usize,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]",
        WORKLOADS.join("|")
    );
    exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut prepare = None;
    let (mut seed, mut seconds, mut trace, mut size) = (0u64, 10.0f64, false, data::Size::Full);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--prepare" => prepare = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a non-negative number"))
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--smoke" => size = data::Size::Smoke,
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if let Some(what) = prepare {
        data::prepare(&what, size, seed);
        return;
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    if !std::path::Path::new("results").is_dir() {
        usage("run from the repository root (no results/ here)");
    }
    let run = Run {
        workload,
        seed,
        seconds,
        trace,
        size,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    eprintln!(
        "perfbench: {} seed {} ({:?}, {} workers, {} s{})",
        run.workload,
        run.seed,
        run.size,
        run.nproc,
        run.seconds,
        if run.trace { ", traced" } else { "" }
    );

    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    match run.workload.as_str() {
        "paper_warm" => paper::run_warm(&run, &mut tally, &mut metrics),
        "paper_cold" => paper::run_cold(&run, &mut tally, &mut metrics),
        _ => kernel::run(&run, &mut tally, &mut metrics),
    }
    if !run.trace {
        metrics.push(
            "ok_frac",
            1.0 - report::ratio(tally.failed as f64, tally.attempted as f64),
            "frac",
        );
    }
    eprintln!(
        "perfbench: {} of {} operations failed",
        tally.failed, tally.attempted
    );
    println!("{}", metrics.to_json(&tally));
}
