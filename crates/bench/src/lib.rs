//! # detour-bench
//!
//! The benchmark crate: regenerates every table and figure of the paper
//! (the `figures` binary) and gates the analysis engine's parallelism and
//! kernels against retained reference implementations (the `baseline`
//! binary).
//!
//! * [`bundle`] — generates the eight Table-1 datasets, sharing simulations
//!   between siblings (D2/D2-NA, N2/N2-NA, UW4-A/UW4-B);
//! * [`cache`] — the on-disk trace cache: generated datasets round-trip
//!   through the `.trace2` binary format under `results/cache/`, keyed by
//!   (spec, seed, scale), so warm runs skip the simulator entirely;
//! * [`study`] — one shared `AnalysisContext` per dataset: pair tables
//!   and weight matrices build once and every experiment borrows them;
//! * [`render`] — plain-text rendering of CDFs, tables, and scatters;
//! * [`experiments`] — one report function per paper artifact behind a
//!   single dispatcher that also covers the extras; the engine fans
//!   experiments out in parallel (matrices build on first use, once) with
//!   request-ordered (byte-identical) report merging;
//! * [`extras`] — beyond-the-paper experiments: Paxson-phenomenon checks,
//!   the routing-policy ablation, and the overlay evaluation;
//! * [`mod@reference`] — the pre-kernel edge-walk search, the clone-rebuild
//!   greedy loop, the rebuild-per-experiment engine, and the per-pair
//!   Dijkstra sweep, preserved so the `baseline` gates and equivalence
//!   tests can measure the shared-artifact engine and the source-batched
//!   kernel against the exact behaviour they replaced;
//! * [`scale`] — the 128-host `scale_sweep` workload: a dataset big enough
//!   for kernel speedups to show, generated once through the trace cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod bundle;
pub mod cache;
pub mod experiments;
pub mod extras;
pub mod reference;
pub mod render;
pub mod scale;
pub mod study;

pub use bundle::Bundle;
pub use study::{DataKey, Study};
