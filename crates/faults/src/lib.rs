//! # detour-faults
//!
//! Deterministic fault injection for the simulate→measure→analyze
//! pipeline.
//!
//! The paper stresses (§4.2, §7) that its datasets *under-represent* bad
//! connectivity: failed measurements drop out of the traces, hosts go
//! down mid-campaign, and routes are withdrawn while BGP converges. To
//! study how the detour result degrades under exactly those conditions,
//! this crate provides a seeded, replayable fault model:
//!
//! * [`FaultConfig`] — the declarative knobs: link/router failure rates,
//!   BGP withdrawal/convergence transients, measurement-host outages,
//!   probe-timeout storms, and campaign truncation.
//! * [`FaultPlan`] — a config bound to a time horizon. Every schedule it
//!   hands out is derived *purely* from `(seed, domain, entity-code)`
//!   via [`detour_prng::Xoshiro256pp::stream`] counter streams, so the
//!   same seed replays the same faults regardless of thread count,
//!   query order, or which subset of entities a consumer asks about.
//! * [`OutageSchedule`] — alternating up/down renewal process for one
//!   entity (a link, a router, a measurement host, or the global storm
//!   process).
//! * [`WithdrawalSchedule`] — per ordered-AS-pair route withdrawals with
//!   a convergence tail: while withdrawn the route is gone entirely;
//!   while converging the source AS uses its second-choice route.
//!
//! Consumers precompute per-entity tables at build time (netsim's
//! `Network`, measure's campaign runner); nothing in this crate draws
//! from a shared RNG, so precomputation parallelizes freely without
//! affecting the schedules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

use detour_prng::{Rng, Xoshiro256pp};

/// Domain-separation constants: each fault class draws from its own
/// counter-stream family so that, e.g., link 3 and router 3 fail
/// independently. (ASCII mnemonics, same convention as the measurement
/// request stream domain.)
mod domain {
    /// Physical link outages ("link").
    pub const LINK: u64 = 0x6661_756c_6c69_6e6b;
    /// Router outages ("rout").
    pub const ROUTER: u64 = 0x6661_756c_726f_7574;
    /// BGP withdrawal transients ("wdrw").
    pub const WITHDRAW: u64 = 0x6661_756c_7764_7277;
    /// Measurement-host outages ("host").
    pub const HOST: u64 = 0x6661_756c_686f_7374;
    /// Probe-timeout storms ("stor").
    pub const STORM: u64 = 0x6661_756c_7374_6f72;
}

/// Declarative fault-injection knobs.
///
/// Every fault class is an alternating renewal process parameterized by a
/// mean time between failures (`*_mtbf_s`) and a mean time to repair
/// (`*_mttr_s`). An infinite MTBF disables the class — the schedules it
/// would generate are empty, and consumers can skip building tables
/// entirely (see [`FaultConfig::network_faults`] /
/// [`FaultConfig::campaign_faults`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for every fault stream (independent of the network and
    /// campaign seeds, so faults replay across both).
    pub seed: u64,
    /// Mean up-time between failures of one physical link, seconds.
    pub link_mtbf_s: f64,
    /// Mean repair time of a failed link, seconds.
    pub link_mttr_s: f64,
    /// Mean up-time between failures of one router, seconds.
    pub router_mtbf_s: f64,
    /// Mean repair time of a failed router, seconds.
    pub router_mttr_s: f64,
    /// Mean time between BGP withdrawals of one ordered AS-pair route,
    /// seconds.
    pub withdraw_mtbf_s: f64,
    /// Mean duration of the withdrawn (blackhole) phase, seconds.
    pub withdraw_mttr_s: f64,
    /// Fixed convergence tail after each withdrawal during which the
    /// source AS uses its second-choice route, seconds.
    pub convergence_s: f64,
    /// Mean up-time of one measurement host, seconds.
    pub host_mtbf_s: f64,
    /// Mean outage duration of a measurement host, seconds.
    pub host_mttr_s: f64,
    /// Mean time between global probe-timeout storms, seconds.
    pub storm_mtbf_s: f64,
    /// Mean storm duration, seconds.
    pub storm_mttr_s: f64,
    /// Multiplier applied to probe elapsed time during a storm (pushes
    /// probes past the campaign timeout). `1.0` = no slowdown.
    pub storm_slowdown: f64,
    /// Fraction of the campaign horizon after which every request is
    /// dropped (truncated/partial campaign). `1.0` = full campaign.
    pub truncate_frac: f64,
}

impl FaultConfig {
    /// No faults at all: every MTBF infinite, no truncation. This is the
    /// default threaded through every existing dataset spec; with it the
    /// pipeline is byte-identical to the pre-fault code paths.
    pub fn none() -> FaultConfig {
        FaultConfig {
            seed: 0,
            link_mtbf_s: f64::INFINITY,
            link_mttr_s: 0.0,
            router_mtbf_s: f64::INFINITY,
            router_mttr_s: 0.0,
            withdraw_mtbf_s: f64::INFINITY,
            withdraw_mttr_s: 0.0,
            convergence_s: 0.0,
            host_mtbf_s: f64::INFINITY,
            host_mttr_s: 0.0,
            storm_mtbf_s: f64::INFINITY,
            storm_mttr_s: 0.0,
            storm_slowdown: 1.0,
            truncate_frac: 1.0,
        }
    }

    /// Link failures only: each link fails about once per simulated day
    /// and stays down for ~20 minutes.
    pub fn link_failures(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            link_mtbf_s: 86_400.0,
            link_mttr_s: 1_200.0,
            ..FaultConfig::none()
        }
    }

    /// Router failures only: rarer than link failures (a router takes all
    /// its links down at once), ~45-minute repairs.
    pub fn router_failures(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            router_mtbf_s: 4.0 * 86_400.0,
            router_mttr_s: 2_700.0,
            ..FaultConfig::none()
        }
    }

    /// BGP withdrawal/convergence transients only: per ordered AS pair,
    /// a withdrawal every ~2 days blackholes the route for ~3 minutes and
    /// then routes via the second choice for a 5-minute convergence tail
    /// (Labovitz et al.'s delayed-convergence regime).
    pub fn withdrawals(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            withdraw_mtbf_s: 2.0 * 86_400.0,
            withdraw_mttr_s: 180.0,
            convergence_s: 300.0,
            ..FaultConfig::none()
        }
    }

    /// Measurement-host outages only: each host drops out about once per
    /// simulated day for ~2 hours (the paper lost whole hosts to exactly
    /// this).
    pub fn host_outages(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            host_mtbf_s: 86_400.0,
            host_mttr_s: 7_200.0,
            ..FaultConfig::none()
        }
    }

    /// Probe-timeout storms only: ~1-hour windows every ~2 days in which
    /// probe latency is inflated 50× — enough to push any probe past the
    /// campaign timeout.
    pub fn timeout_storms(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            storm_mtbf_s: 2.0 * 86_400.0,
            storm_mttr_s: 3_600.0,
            storm_slowdown: 50.0,
            ..FaultConfig::none()
        }
    }

    /// Truncated campaign only: the collection stops at 60% of the
    /// nominal horizon (host decommissioned mid-study).
    pub fn truncation(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            truncate_frac: 0.6,
            ..FaultConfig::none()
        }
    }

    /// Everything at once — the chaos-suite worst case.
    pub fn heavy(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            link_mtbf_s: 86_400.0,
            link_mttr_s: 1_200.0,
            router_mtbf_s: 4.0 * 86_400.0,
            router_mttr_s: 2_700.0,
            withdraw_mtbf_s: 2.0 * 86_400.0,
            withdraw_mttr_s: 180.0,
            convergence_s: 300.0,
            host_mtbf_s: 86_400.0,
            host_mttr_s: 7_200.0,
            storm_mtbf_s: 2.0 * 86_400.0,
            storm_mttr_s: 3_600.0,
            storm_slowdown: 50.0,
            truncate_frac: 0.85,
        }
    }

    /// Scales every failure *rate* by `intensity` (repair times and the
    /// convergence tail stay fixed; truncation is not part of the sweep).
    /// `intensity = 0` is [`FaultConfig::none`]; `intensity = 1` matches
    /// the per-class defaults above; `intensity = 2` fails twice as
    /// often. This is the knob the `outage_sweep` experiment turns.
    pub fn with_intensity(seed: u64, intensity: f64) -> FaultConfig {
        if intensity <= 0.0 {
            return FaultConfig::none();
        }
        FaultConfig {
            seed,
            link_mtbf_s: 86_400.0 / intensity,
            link_mttr_s: 1_200.0,
            router_mtbf_s: 4.0 * 86_400.0 / intensity,
            router_mttr_s: 2_700.0,
            withdraw_mtbf_s: 2.0 * 86_400.0 / intensity,
            withdraw_mttr_s: 180.0,
            convergence_s: 300.0,
            host_mtbf_s: 86_400.0 / intensity,
            host_mttr_s: 7_200.0,
            storm_mtbf_s: 4.0 * 86_400.0 / intensity,
            storm_mttr_s: 1_800.0,
            storm_slowdown: 50.0,
            truncate_frac: 1.0,
        }
    }

    /// True when any fault class is active.
    pub fn enabled(&self) -> bool {
        self.network_faults() || self.campaign_faults()
    }

    /// True when link, router, or withdrawal faults are active — the
    /// classes netsim must build tables for.
    pub fn network_faults(&self) -> bool {
        self.link_mtbf_s.is_finite()
            || self.router_mtbf_s.is_finite()
            || self.withdraw_mtbf_s.is_finite()
    }

    /// True when host outages, storms, or truncation are active — the
    /// classes the measurement campaign must handle.
    pub fn campaign_faults(&self) -> bool {
        self.host_mtbf_s.is_finite() || self.storm_mtbf_s.is_finite() || self.truncate_frac < 1.0
    }
}

/// Folds one materialized schedule's episode count into the calling
/// thread's `detour-obs` recorder. Schedules are pure functions of
/// `(seed, domain, code)`, so these counters are deterministic in the
/// plan — thread-count-invariant even when consumers build their fault
/// tables on the pool.
fn record_episodes(counter: &str, episodes: usize) {
    detour_obs::current().add(counter, episodes as u64);
}

/// A [`FaultConfig`] bound to a time horizon: the factory every consumer
/// uses to materialize per-entity schedules. All methods are pure
/// functions of `(config.seed, domain, entity code)` — calling them in
/// any order, from any thread, for any subset of entities yields the
/// same schedules.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// The fault knobs.
    pub cfg: FaultConfig,
    /// Schedule horizon, seconds (the campaign/trace duration).
    pub horizon_s: f64,
}

impl FaultPlan {
    /// Binds `cfg` to a horizon.
    pub fn new(cfg: FaultConfig, horizon_s: f64) -> FaultPlan {
        FaultPlan { cfg, horizon_s }
    }

    /// Outage schedule for physical link `link_code`.
    pub fn link_schedule(&self, link_code: u64) -> OutageSchedule {
        let sched = OutageSchedule::generate(
            self.cfg.seed,
            domain::LINK,
            link_code,
            self.cfg.link_mtbf_s,
            self.cfg.link_mttr_s,
            self.horizon_s,
        );
        record_episodes("faults/link_episodes", sched.episode_count());
        sched
    }

    /// Outage schedule for router `router_code`.
    pub fn router_schedule(&self, router_code: u64) -> OutageSchedule {
        let sched = OutageSchedule::generate(
            self.cfg.seed,
            domain::ROUTER,
            router_code,
            self.cfg.router_mtbf_s,
            self.cfg.router_mttr_s,
            self.horizon_s,
        );
        record_episodes("faults/router_episodes", sched.episode_count());
        sched
    }

    /// Withdrawal schedule for the ordered AS pair `(src, dst)` (ids
    /// packed by the caller; direction-sensitive like route flaps).
    pub fn withdrawal_schedule(&self, src: u16, dst: u16) -> WithdrawalSchedule {
        let code = ((src as u64) << 16) | dst as u64;
        let episodes = OutageSchedule::generate(
            self.cfg.seed,
            domain::WITHDRAW,
            code,
            self.cfg.withdraw_mtbf_s,
            self.cfg.withdraw_mttr_s,
            self.horizon_s,
        );
        record_episodes("faults/withdrawal_episodes", episodes.episode_count());
        WithdrawalSchedule {
            episodes,
            convergence_s: self.cfg.convergence_s,
        }
    }

    /// Outage schedule for measurement host `host_code`.
    pub fn host_schedule(&self, host_code: u64) -> OutageSchedule {
        let sched = OutageSchedule::generate(
            self.cfg.seed,
            domain::HOST,
            host_code,
            self.cfg.host_mtbf_s,
            self.cfg.host_mttr_s,
            self.horizon_s,
        );
        record_episodes("faults/host_episodes", sched.episode_count());
        sched
    }

    /// The single global probe-timeout storm schedule.
    pub fn storm_schedule(&self) -> OutageSchedule {
        let sched = OutageSchedule::generate(
            self.cfg.seed,
            domain::STORM,
            0,
            self.cfg.storm_mtbf_s,
            self.cfg.storm_mttr_s,
            self.horizon_s,
        );
        record_episodes("faults/storm_episodes", sched.episode_count());
        sched
    }

    /// Time after which the campaign is truncated, or `None` when it
    /// runs to completion.
    pub fn truncation_cutoff_s(&self) -> Option<f64> {
        (self.cfg.truncate_frac < 1.0).then(|| self.cfg.truncate_frac.max(0.0) * self.horizon_s)
    }
}

/// Sorted, non-overlapping `(start, end)` down-time episodes for one
/// entity over `[0, horizon)`, generated by an alternating exponential
/// up/down renewal process.
#[derive(Debug, Clone, PartialEq)]
pub struct OutageSchedule {
    episodes: Vec<(f64, f64)>,
}

impl OutageSchedule {
    /// An always-up schedule.
    pub fn empty() -> OutageSchedule {
        OutageSchedule {
            episodes: Vec::new(),
        }
    }

    /// Generates the schedule for one entity. Deterministic in
    /// `(seed, domain_key, code)` alone: the RNG is a dedicated counter
    /// stream, so no other entity's schedule shifts this one.
    pub fn generate(
        seed: u64,
        domain_key: u64,
        code: u64,
        mtbf_s: f64,
        mttr_s: f64,
        horizon_s: f64,
    ) -> OutageSchedule {
        if !mtbf_s.is_finite() || mtbf_s <= 0.0 || mttr_s <= 0.0 || horizon_s <= 0.0 {
            return OutageSchedule::empty();
        }
        let mut rng = Xoshiro256pp::stream(seed ^ domain_key, code);
        let mut episodes = Vec::new();
        let mut t = exponential(&mut rng, mtbf_s);
        while t < horizon_s {
            let dur = exponential(&mut rng, mttr_s).max(1.0);
            let end = (t + dur).min(horizon_s);
            episodes.push((t, end));
            t = end + exponential(&mut rng, mtbf_s);
        }
        OutageSchedule { episodes }
    }

    /// True when the entity is down at time `t` (seconds).
    pub fn down_at(&self, t: f64) -> bool {
        let i = self.episodes.partition_point(|&(start, _)| start <= t);
        i > 0 && t < self.episodes[i - 1].1
    }

    /// Number of down-time episodes in the horizon.
    pub fn episode_count(&self) -> usize {
        self.episodes.len()
    }

    /// The raw episodes (for serialization/diagnostics).
    pub fn episodes(&self) -> &[(f64, f64)] {
        &self.episodes
    }
}

/// Routing state of one ordered AS-pair route at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePhase {
    /// The best route is installed and stable.
    Stable,
    /// The route is withdrawn and no replacement has propagated: traffic
    /// is blackholed.
    Withdrawn,
    /// The withdrawal has been replaced by the second-choice route while
    /// BGP converges back to the best path.
    Converging,
}

/// Withdrawal episodes for one ordered AS pair, each followed by a fixed
/// convergence tail.
#[derive(Debug, Clone, PartialEq)]
pub struct WithdrawalSchedule {
    episodes: OutageSchedule,
    convergence_s: f64,
}

impl WithdrawalSchedule {
    /// A never-withdrawn schedule.
    pub fn empty() -> WithdrawalSchedule {
        WithdrawalSchedule {
            episodes: OutageSchedule::empty(),
            convergence_s: 0.0,
        }
    }

    /// Routing phase at time `t` (seconds).
    pub fn phase_at(&self, t: f64) -> RoutePhase {
        let eps = &self.episodes.episodes;
        let i = eps.partition_point(|&(start, _)| start <= t);
        if i == 0 {
            return RoutePhase::Stable;
        }
        let (_, end) = eps[i - 1];
        if t < end {
            RoutePhase::Withdrawn
        } else if t < end + self.convergence_s {
            RoutePhase::Converging
        } else {
            RoutePhase::Stable
        }
    }

    /// Number of withdrawal episodes in the horizon.
    pub fn episode_count(&self) -> usize {
        self.episodes.episode_count()
    }
}

/// Exponential deviate with the given mean (same transform as the flap
/// scheduler's).
fn exponential(rng: &mut impl Rng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAY: f64 = 86_400.0;

    #[test]
    fn none_config_generates_no_faults() {
        let plan = FaultPlan::new(FaultConfig::none(), 7.0 * DAY);
        assert!(!plan.cfg.enabled());
        assert_eq!(plan.link_schedule(3).episode_count(), 0);
        assert_eq!(plan.router_schedule(3).episode_count(), 0);
        assert_eq!(plan.host_schedule(3).episode_count(), 0);
        assert_eq!(plan.storm_schedule().episode_count(), 0);
        assert_eq!(plan.withdrawal_schedule(1, 2).episode_count(), 0);
        assert_eq!(plan.truncation_cutoff_s(), None);
    }

    #[test]
    fn schedules_are_replayable() {
        let plan = FaultPlan::new(FaultConfig::heavy(42), 7.0 * DAY);
        for code in 0..50u64 {
            assert_eq!(plan.link_schedule(code), plan.link_schedule(code));
            assert_eq!(plan.host_schedule(code), plan.host_schedule(code));
        }
        assert_eq!(
            plan.withdrawal_schedule(3, 9),
            plan.withdrawal_schedule(3, 9)
        );
    }

    #[test]
    fn fault_classes_are_domain_separated() {
        // Same entity code, different class → independent schedules.
        let plan = FaultPlan::new(FaultConfig::heavy(42), 30.0 * DAY);
        assert_ne!(plan.link_schedule(5), plan.router_schedule(5));
        assert_ne!(plan.link_schedule(5), plan.host_schedule(5));
    }

    #[test]
    fn entities_fail_independently() {
        let plan = FaultPlan::new(FaultConfig::link_failures(7), 30.0 * DAY);
        assert_ne!(plan.link_schedule(0), plan.link_schedule(1));
    }

    #[test]
    fn episodes_sorted_disjoint_and_clamped() {
        let plan = FaultPlan::new(FaultConfig::heavy(9), 7.0 * DAY);
        for code in 0..40u64 {
            let s = plan.link_schedule(code);
            for w in s.episodes().windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap: {:?}", s.episodes());
            }
            for &(start, end) in s.episodes() {
                assert!(start >= 0.0 && end <= 7.0 * DAY && start < end);
            }
        }
    }

    #[test]
    fn down_queries_match_episodes() {
        let plan = FaultPlan::new(FaultConfig::host_outages(11), 14.0 * DAY);
        let s = plan.host_schedule(4);
        assert!(
            s.episode_count() > 0,
            "14 days at 1/day MTBF should fail at least once"
        );
        for &(start, end) in s.episodes() {
            assert!(s.down_at(start));
            assert!(s.down_at((start + end) / 2.0));
            assert!(!s.down_at(end));
        }
        assert!(!s.down_at(-1.0));
    }

    #[test]
    fn withdrawal_phases_cover_blackhole_then_convergence() {
        let plan = FaultPlan::new(FaultConfig::withdrawals(13), 30.0 * DAY);
        // Scan pairs until one has an episode with a clean convergence
        // window (deterministic, so the scan is stable).
        let mut checked = false;
        'outer: for a in 0..20u16 {
            for b in 0..20u16 {
                let w = plan.withdrawal_schedule(a, b);
                let eps = w.episodes.episodes.clone();
                for &(start, end) in &eps {
                    if end + 300.0 < 30.0 * DAY {
                        assert_eq!(w.phase_at((start + end) / 2.0), RoutePhase::Withdrawn);
                        assert_eq!(w.phase_at(end + 1.0), RoutePhase::Converging);
                        assert_eq!(w.phase_at(end + 301.0), RoutePhase::Stable);
                        assert_eq!(w.phase_at(start - 1.0), RoutePhase::Stable);
                        checked = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(
            checked,
            "no withdrawal episode found across 400 pairs in 30 days"
        );
    }

    #[test]
    fn intensity_scales_failure_frequency() {
        let horizon = 30.0 * DAY;
        let count = |x: f64| {
            let plan = FaultPlan::new(FaultConfig::with_intensity(5, x), horizon);
            (0..60u64)
                .map(|c| plan.link_schedule(c).episode_count())
                .sum::<usize>()
        };
        assert_eq!(count(0.0), 0);
        let low = count(0.5);
        let high = count(4.0);
        assert!(low > 0, "intensity 0.5 over 30 days must fail sometimes");
        assert!(
            high > 2 * low,
            "4x intensity should fail much more often ({high} vs {low})"
        );
    }

    #[test]
    fn truncation_cutoff_scales_with_horizon() {
        let plan = FaultPlan::new(FaultConfig::truncation(1), 1000.0);
        assert_eq!(plan.truncation_cutoff_s(), Some(600.0));
        assert!(FaultConfig::truncation(1).campaign_faults());
        assert!(!FaultConfig::truncation(1).network_faults());
    }

    #[test]
    fn scenario_ctors_enable_exactly_their_class() {
        assert!(FaultConfig::link_failures(1).network_faults());
        assert!(!FaultConfig::link_failures(1).campaign_faults());
        assert!(FaultConfig::host_outages(1).campaign_faults());
        assert!(!FaultConfig::host_outages(1).network_faults());
        assert!(FaultConfig::timeout_storms(1).campaign_faults());
        assert!(FaultConfig::heavy(1).network_faults() && FaultConfig::heavy(1).campaign_faults());
        assert!(!FaultConfig::none().enabled());
    }
}
