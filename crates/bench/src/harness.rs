//! A minimal, dependency-free micro-benchmark harness.
//!
//! Each benchmark is a closure timed over `sample_size` samples after a
//! short warm-up. Closures that complete in well under a millisecond are
//! automatically batched so a sample measures many calls, keeping timer
//! granularity out of the numbers. The headline statistic is the **median**
//! sample — robust to the occasional scheduler hiccup that ruins a mean.
//!
//! The harness is silent while it runs: each result lands in the result
//! list (and, as a span named after the benchmark, on the current
//! `detour-obs` recorder); [`Bench::finish`] renders the aligned table for
//! the caller to print.
//!
//! `DETOUR_BENCH_SAMPLES` overrides every `sample_size` (for quick smoke
//! runs: `DETOUR_BENCH_SAMPLES=3 cargo bench`).

use std::fmt::Write as _;
use std::hint::black_box;

use detour_obs::Stopwatch;

/// Timing summary for one benchmark, all durations in nanoseconds per call.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name, `group/specific` by convention.
    pub name: String,
    /// Number of timed samples (after warm-up).
    pub samples: usize,
    /// Calls batched into each sample.
    pub batch: u64,
    /// Median over samples of (sample time / batch).
    pub median_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
}

impl BenchResult {
    /// The aligned human table row for this result.
    pub fn table_line(&self) -> String {
        format!(
            "bench {:<44} {:>12}  (min {:>10}, max {:>10}, n={})",
            self.name,
            fmt_ns(self.median_ns),
            fmt_ns(self.min_ns),
            fmt_ns(self.max_ns),
            self.samples,
        )
    }
}

/// Formats nanoseconds with a human-friendly unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// The harness: collects [`BenchResult`]s and reports them.
pub struct Bench {
    sample_size: usize,
    results: Vec<BenchResult>,
}

impl Default for Bench {
    fn default() -> Self {
        Self::new()
    }
}

impl Bench {
    /// A harness with the default budget (10 samples per benchmark), or the
    /// `DETOUR_BENCH_SAMPLES` override.
    pub fn new() -> Self {
        let sample_size = std::env::var("DETOUR_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(10);
        Bench {
            sample_size,
            results: Vec::new(),
        }
    }

    /// Sets the per-benchmark sample count (ignored when the
    /// `DETOUR_BENCH_SAMPLES` override is active).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        if std::env::var("DETOUR_BENCH_SAMPLES").is_err() {
            self.sample_size = n.max(1);
        }
        self
    }

    /// Times `f`, recording a result under `name`. The closure's return
    /// value is passed through [`black_box`] so the work can't be optimized
    /// away. Silent: the result is retrievable via [`Bench::results`], in
    /// the rendered [`Bench::finish`] table, and as a span of `name` (one
    /// activation, the median per-call time) on the current `detour-obs`
    /// recorder.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        // Warm-up + calibration: one untimed call, then estimate the batch
        // size that makes a sample take ≳5 ms.
        black_box(f());
        let t0 = Stopwatch::start();
        black_box(f());
        let est_ns = t0.nanos().max(1);
        let batch = (5_000_000 / est_ns).clamp(1, 10_000) as u64;

        let mut per_call: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t = Stopwatch::start();
            for _ in 0..batch {
                black_box(f());
            }
            per_call.push(t.nanos() as f64 / batch as f64);
        }
        per_call.sort_by(|a, b| a.total_cmp(b));
        let median_ns = if per_call.len() % 2 == 1 {
            per_call[per_call.len() / 2]
        } else {
            (per_call[per_call.len() / 2 - 1] + per_call[per_call.len() / 2]) / 2.0
        };
        let result = BenchResult {
            name: name.to_string(),
            samples: per_call.len(),
            batch,
            median_ns,
            min_ns: per_call[0],
            max_ns: *per_call.last().unwrap(),
        };
        detour_obs::current().record_seconds(name, median_ns / 1e9);
        self.results.push(result);
    }

    /// All results recorded so far, in execution order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Renders the result table plus a closing summary. Call once at the
    /// end of `main` and print the returned report (the harness itself
    /// never writes to stdout/stderr).
    #[must_use = "the rendered report is the only copy of the results table"]
    pub fn finish(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            out.push_str(&r.table_line());
            out.push('\n');
        }
        let _ = writeln!(out, "bench: {} benchmarks complete", self.results.len());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_a_result_with_sane_bounds() {
        let mut b = Bench::new();
        b.sample_size(5);
        let mut acc = 0u64;
        b.bench("test/spin", || {
            for i in 0..1000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        let r = &b.results()[0];
        assert_eq!(r.name, "test/spin");
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert!(r.median_ns > 0.0);
        assert!(r.batch >= 1);
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert!(fmt_ns(5_000.0).ends_with("µs"));
        assert!(fmt_ns(5_000_000.0).ends_with("ms"));
        assert!(fmt_ns(5e9).ends_with('s'));
    }
}
