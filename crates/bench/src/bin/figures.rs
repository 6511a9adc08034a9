//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p detour-bench --release --bin figures -- all
//! cargo run -p detour-bench --release --bin figures -- fig1 fig3 table2
//! cargo run -p detour-bench --release --bin figures -- --scaled all
//! cargo run -p detour-bench --release --bin figures -- --threads 4 --scaled all
//! cargo run -p detour-bench --release --bin figures -- --seed 7 --scaled fig1
//! cargo run -p detour-bench --release --bin figures -- --fresh --scaled all
//! ```
//!
//! `--threads N` sets the experiment engine's worker count (0 or absent =
//! one worker per core); output is bit-identical at any setting. `--seed S`
//! regenerates the whole study on a different simulated Internet (S = 0 is
//! the canonical run).
//!
//! Datasets come from the trace cache under `results/cache/`: the first
//! run at a given (seed, scale) simulates and saves, later runs load the
//! saved traces and skip the simulator entirely (the round-trip is
//! lossless, so reports are byte-identical either way). `--fresh` purges
//! the cache first.
//!
//! Reports go to stdout and, per experiment, to `results/<id>.txt`.

use std::fs;
use std::path::Path;
use std::process::exit;

use detour_bench::experiments::{run_all, ALL_EXPERIMENTS, FAULT_EXPERIMENTS};
use detour_bench::extras::EXTRA_EXPERIMENTS;
use detour_bench::{cache, Bundle, Study};
use detour_core::pool;
use detour_datasets::Scale;
use detour_obs::Recorder;

fn parse_flag(args: &mut Vec<String>, name: &str) -> Option<u64> {
    let i = args.iter().position(|a| a == name)?;
    if i + 1 >= args.len() {
        eprintln!("{name} needs a value");
        exit(2);
    }
    let v = args[i + 1].parse().unwrap_or_else(|_| {
        eprintln!("{name} needs a non-negative integer, got {:?}", args[i + 1]);
        exit(2);
    });
    args.drain(i..=i + 1);
    Some(v)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads = parse_flag(&mut args, "--threads").unwrap_or(0);
    let seed = parse_flag(&mut args, "--seed").unwrap_or(0);
    let scaled = args.iter().any(|a| a == "--scaled");
    let fresh = args.iter().any(|a| a == "--fresh");
    pool::set_threads(threads as usize);

    // Every known id, in the order `all` runs them; also the validation list.
    let mut all = ALL_EXPERIMENTS.to_vec();
    all.extend(EXTRA_EXPERIMENTS);
    all.extend(FAULT_EXPERIMENTS);
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let ids = if ids.is_empty() || ids.contains(&"all") {
        all.clone()
    } else {
        ids
    };
    if let Some(id) = ids.iter().find(|id| !all.contains(id)) {
        eprintln!("unknown experiment {id:?}; known: {all:?}");
        exit(2);
    }

    let cache_dir = Path::new("results/cache");
    if fresh {
        let removed = cache::purge(cache_dir).expect("purge trace cache");
        eprintln!(
            "purged {removed} cached trace(s) from {}",
            cache_dir.display()
        );
    }

    eprintln!(
        "loading the eight datasets at {} scale (seed offset {seed}, {} worker{})...",
        if scaled { "reduced" } else { "full paper" },
        pool::threads(),
        if pool::threads() == 1 { "" } else { "s" },
    );
    // One recorder for the whole run: pool workers inherit it, and the
    // cache/engine layers report their counters through it.
    let rec = Recorder::new();
    let _obs = detour_obs::install(rec.clone());
    let (bundle, load_secs) = rec.time("figures/load", || {
        let scale = if scaled {
            Scale::reduced(12, 8)
        } else {
            Scale::full()
        };
        Bundle::generate_cached(scale.with_seed_offset(seed), cache_dir).expect("trace cache")
    });
    eprintln!(
        "datasets ready in {load_secs:.1}s ({} cached, {} generated)",
        rec.counter("cache/hits"),
        rec.counter("cache/misses"),
    );
    let study = Study::from_bundle(bundle);

    // Every id runs through the parallel engine: shared artifacts build on
    // first use, and reports come back in request order. An experiment's own
    // fan-outs (ablation's routing, the outage campaigns) run sequentially
    // inside its worker, since the pool does not nest; keeping every worker
    // busy across the whole id list still finishes sooner on a 2-core host
    // than running the extras one by one after the paper batch.
    let (reports, engine_secs) = rec.time("figures/engine", || run_all(&study, &ids));
    eprintln!("[{} experiment(s) done in {engine_secs:.1}s]", ids.len());

    let results = Path::new("results");
    fs::create_dir_all(results).expect("create results/");
    for (id, report) in ids.iter().zip(reports) {
        println!("{report}");
        fs::write(results.join(format!("{id}.txt")), &report).expect("write results file");
    }
}
