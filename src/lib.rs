//! # detour
//!
//! A production-quality Rust reproduction of *"The End-to-End Effects of
//! Internet Path Selection"* (Savage, Collins, Hoffman, Snell, Anderson —
//! SIGCOMM 1999).
//!
//! The paper measured path quality (round-trip time, loss rate, bandwidth)
//! between pairs of Internet hosts and showed that for 30–80 % of host
//! pairs a *synthetic alternate path* — detouring through other measured
//! hosts — beats the default path the Internet's routing selected. This
//! workspace rebuilds the whole system:
//!
//! * [`netsim`] — an Internet substrate: hierarchical AS topology,
//!   BGP-style policy routing with hot-potato exits, diurnal load, queuing
//!   delay and loss, simulated `traceroute`/`ping`/TCP probes;
//! * [`measure`] — the measurement machinery: schedulers, control host,
//!   ICMP rate-limit detection, dataset assembly;
//! * [`datasets`] — the five dataset configurations of the paper
//!   (D2, N2, UW1, UW3, UW4-A/B);
//! * [`core`] — the paper's contribution: the per-pair measurement graph
//!   ([`core::PairTable`] plus its borrowed [`core::Edge`] view), metric
//!   composition, best-alternate-path search and every analysis behind
//!   Figures 1–16 and Tables 1–3;
//! * [`stats`] — the supporting statistics (CDFs, convolution, Student-t,
//!   confidence intervals, t-tests).
//!
//! ## Quickstart
//!
//! ```
//! use detour::datasets::DatasetId;
//! use detour::core::{PairTable, metric::Rtt, altpath::best_alternate};
//!
//! // Generate a small deterministic dataset over the simulated Internet.
//! let ds = DatasetId::Uw3.generate_scaled(10, 24);
//! let table = PairTable::build(&ds);
//! let mut improved = 0;
//! let mut total = 0;
//! for pair in table.pairs() {
//!     if let Some(cmp) = best_alternate(&table, pair, &Rtt) {
//!         total += 1;
//!         if cmp.alternate_wins() {
//!             improved += 1;
//!         }
//!     }
//! }
//! assert!(total > 0);
//! println!("{improved}/{total} pairs have a faster alternate path");
//! ```

#![forbid(unsafe_code)]

pub use detour_core as core;
pub use detour_datasets as datasets;
pub use detour_faults as faults;
pub use detour_measure as measure;
pub use detour_netsim as netsim;
pub use detour_obs as obs;
pub use detour_overlay as overlay;
pub use detour_prng as prng;
pub use detour_stats as stats;
