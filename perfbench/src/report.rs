//! Result accounting and the one-line JSON result.
//!
//! * [`Tally`] runs each operation (one experiment report, one generated
//!   dataset, one kernel call) under `catch_unwind` and counts attempts and
//!   failures; a wrong output found later by an oracle is a failure too.
//! * [`Metrics`] collects named values with units and renders the result
//!   object the benchmark prints as its last line of standard output.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Attempted and failed operation counts for one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that panicked or produced a wrong output.
    pub failed: u64,
}

impl Tally {
    /// Runs one operation; a panic counts as a failure and yields `None`
    /// instead of unwinding through the run.
    pub fn op<R>(&mut self, what: &str, f: impl FnOnce() -> R) -> Option<R> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => Some(r),
            Err(_) => {
                self.failed += 1;
                eprintln!("perfbench: FAILED {what}: panicked");
                None
            }
        }
    }

    /// Records the oracle's verdict on an output already counted by
    /// [`Tally::op`].
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}: output differs from its oracle");
        }
    }
}

/// Named metric values in emission order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_string(), value, unit));
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self, tally: &Tally) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            tally.failed == 0 && tally.attempted > 0,
            tally.attempted,
            tally.failed
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            // JSON has no NaN/inf; a metric that could not be measured
            // reads 0 (and the run is already marked incorrect).
            let v = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// The median of a non-empty sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Resets this process's peak resident set size to its current one
/// (`5` to `/proc/self/clear_refs`), so the next [`peak_rss_mb`] reads the
/// high-water mark of what ran in between.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`), or 0 where the file is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
