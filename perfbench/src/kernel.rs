//! The `scale_kernel` workload: best-alternate kernel calls on the
//! 128-host SCALE dataset.
//!
//! Set-up loads SCALE from its `.trace2` cache and builds the analysis
//! context and the weight matrices the calls read. One pass is the five
//! [`KERNEL_CALLS`]; each is an operation whose output must equal the
//! 1-worker pass's.

use std::sync::Arc;

use detour_core::analysis::{cdf, hostremoval, sensitivity};
use detour_core::{pool, AnalysisContext, ArtifactKind, Loss, MetricKind, Rtt, SearchDepth};
use detour_datasets::trace2;
use detour_obs::{Recorder, Stopwatch};

use crate::data::{self, Size};
use crate::layers::{self, Layers};
use crate::report::{self, median, Metrics, Tally};
use crate::Run;

/// The kernel calls of one pass, in order.
pub const KERNEL_CALLS: [&str; 5] = ["sweep_rtt", "sweep_loss", "sweep_onehop", "greedy", "kbest"];

/// Hosts `greedy_removal` takes out (the paper's "top ten").
const GREEDY_K: usize = 10;

/// Runs one kernel call on `cx` and renders its result, so equality of
/// the rendering is bit-equality of every float it holds.
pub fn call(name: &str, cx: &AnalysisContext) -> String {
    match name {
        "sweep_rtt" => format!(
            "{:?}",
            cdf::compare_all_pairs(cx, &Rtt, SearchDepth::Unrestricted)
        ),
        "sweep_loss" => format!(
            "{:?}",
            cdf::compare_all_pairs(cx, &Loss, SearchDepth::Unrestricted)
        ),
        "sweep_onehop" => format!(
            "{:?}",
            cdf::compare_all_pairs(cx, &Rtt, SearchDepth::OneHop)
        ),
        "greedy" => format!("{:?}", hostremoval::greedy_removal(cx, &Rtt, GREEDY_K)),
        "kbest" => format!("{:?}", sensitivity::analyze(cx, &Rtt)),
        other => panic!("unknown kernel call {other:?}"),
    }
}

/// The layer a kernel call's time belongs to.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "greedy" => "kernel.greedy_s",
        "kbest" => "kernel.kbest_s",
        _ => "kernel.sweep_s",
    }
}

/// One pass: every kernel call under the tally, with per-call seconds.
fn pass(cx: &AnalysisContext, tally: &mut Tally) -> (f64, Vec<Option<String>>, Vec<f64>) {
    let t = Stopwatch::start();
    let mut outs = Vec::with_capacity(KERNEL_CALLS.len());
    let mut secs = Vec::with_capacity(KERNEL_CALLS.len());
    for name in KERNEL_CALLS {
        let c = Stopwatch::start();
        outs.push(tally.op(name, || call(name, cx)));
        secs.push(c.seconds());
    }
    (t.seconds(), outs, secs)
}

/// Loads SCALE and builds what the calls read: the set-up step.
fn load(run: &Run) -> (AnalysisContext, f64, f64) {
    let path = data::scale_file(run.size.kernel(run.seed));
    let t = Stopwatch::start();
    let ds = trace2::load(&path).expect("load SCALE from its cache");
    let decode = t.seconds();
    let cx = AnalysisContext::new(Arc::new(ds));
    let c = Stopwatch::start();
    cx.ensure(ArtifactKind::Weights(MetricKind::Rtt));
    cx.ensure(ArtifactKind::Weights(MetricKind::Loss));
    let weights = c.seconds();
    (cx, decode, weights)
}

/// The `scale_kernel` workload.
pub fn run(run: &Run, tally: &mut Tally, metrics: &mut Metrics) {
    data::ensure("scale", run.size, run.seed);
    // On 1 worker, like the paper set-up, for a stable peak-memory reading.
    pool::set_threads(1);
    let mut setups = Vec::new();
    let mut loaded = None;
    for _ in 0..crate::SETUP_ROUNDS {
        let t = Stopwatch::start();
        let l = load(run);
        setups.push(t.seconds());
        loaded = Some(l);
    }
    let (cx, decode_s, weights_s) = loaded.expect("at least one set-up round");
    let hosts = cx.dataset().hosts.len();
    if run.size == Size::Full {
        assert!(hosts >= 120, "SCALE needs >= 120 hosts, got {hosts}");
    }
    eprintln!("perfbench: SCALE seed {}: {hosts} hosts", run.seed);

    let start = Stopwatch::start();
    let mut walls = Vec::new();
    let mut walls_1w = Vec::new();
    let mut peaks = Vec::new();
    let mut outputs = Vec::new();
    let mut reference = None;
    let mut layer_recs = None;
    loop {
        if run.trace {
            pool::set_threads(run.nproc);
            let (wall, outs, _) = pass(&cx, tally);
            outputs.push(outs);
            let rec = Recorder::new();
            let guard = detour_obs::install(rec.clone());
            let (traced, outs, secs) = pass(&cx, tally);
            drop(guard);
            outputs.push(outs);
            layer_recs = Some((rec, traced, wall, secs));
            break;
        }
        pool::set_threads(1);
        report::reset_peak_rss();
        let (wall, outs, _) = pass(&cx, tally);
        peaks.push(report::peak_rss_mb());
        walls_1w.push(wall);
        if reference.is_none() {
            reference = Some(outs);
        } else {
            outputs.push(outs);
        }
        pool::set_threads(run.nproc);
        let (wall, outs, _) = pass(&cx, tally);
        walls.push(wall);
        outputs.push(outs);
        if start.seconds() >= run.seconds {
            break;
        }
    }
    pool::set_threads(run.nproc);
    // Untraced runs check against the 1-worker pass; traced runs against
    // their own untraced pass.
    let reference = reference.unwrap_or_else(|| outputs.remove(0));
    for outs in &outputs {
        for ((name, out), want) in KERNEL_CALLS.iter().zip(outs).zip(&reference) {
            if let Some(out) = out {
                tally.check(want.as_ref() == Some(out), name);
            }
        }
    }

    if let Some((rec, traced, untraced, secs)) = layer_recs {
        let mut l = Layers::default();
        l.set("trace2.decode_s", decode_s);
        l.set(
            "trace2.bytes_read",
            std::fs::metadata(data::scale_file(run.size.kernel(run.seed)))
                .map_or(0.0, |m| m.len() as f64),
        );
        let probe = data::dir("probe");
        std::fs::create_dir_all(&probe).expect("create the probe directory");
        let t = Stopwatch::start();
        trace2::save(cx.dataset(), &probe.join("SCALE.trace2")).expect("encode SCALE");
        l.set("trace2.encode_s", t.seconds());
        let t = Stopwatch::start();
        let fresh = AnalysisContext::new(cx.dataset_arc());
        l.set("context.build_s", t.seconds());
        drop(fresh);
        l.set("engine.prebuild_s", weights_s);
        for (name, s) in KERNEL_CALLS.iter().zip(&secs) {
            l.add(layer_of(name), *s);
        }
        layers::from_recorder(&mut l, &rec.snapshot(), traced, run.nproc);
        l.set("trace.overhead_frac", traced / untraced);
        l.emit(metrics);
        return;
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
