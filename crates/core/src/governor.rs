//! Overload governor: slot-deadline enforcement with an adaptive
//! degradation ladder (PR 3 tentpole).
//!
//! NR-Scope's headline requirement is decoding every UE's DCI in every TTI
//! in real time — falling behind the slot clock makes telemetry silently
//! wrong. This module measures per-slot pipeline latency against the
//! numerology-derived TTI budget and drives a hysteresis-based ladder:
//!
//! `Full` blind search → [`LoadRung::PrunedSearch`] (drop high-candidate
//! aggregation levels, cap UE-specific attempts) →
//! [`LoadRung::BroadcastOnly`] (common search space only — SI-/RA-/TC-RNTI
//! and CRC-XOR recovery, so cell knowledge and RACH-based C-RNTI discovery
//! survive), the floor.
//!
//! Recovery is staged: a rung is climbed only after a run of consecutive
//! in-budget slots, and the required run length backs off exponentially
//! when a promotion flaps straight back into a demotion. Latency is
//! tracked as an EWMA so a single cheap slot (no UE hypotheses due) cannot
//! reset the ladder's view of sustained load.
//!
//! The accuracy-critical invariant, enforced by [`OverloadGovernor::
//! search_budget`]: whatever the rung, the *common* search space is never
//! pruned — MSG 4 C-RNTI recovery and SIB1 tracking never go dark.

use crate::decoder::DecodeWork;
use nr_phy::numerology::Numerology;
use nr_phy::pdcch::{AggregationLevel, SearchBudget};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Degradation-ladder rung, healthiest first. The numeric value is the
/// `load_rung` gauge reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LoadRung {
    /// Full blind search: every aggregation level, every hypothesis.
    Full = 0,
    /// UE-specific search pruned: low aggregation levels dropped and a cap
    /// on UE candidate attempts per slot.
    PrunedSearch = 1,
    /// Common search space only: SI/RA/TC decoding and MSG 4 C-RNTI
    /// recovery continue; per-UE telemetry pauses. The floor: no load
    /// prunes the common search space (the never-go-dark invariant).
    BroadcastOnly = 2,
}

impl LoadRung {
    /// Stable snake_case name (matches the per-rung stage histograms).
    pub fn name(self) -> &'static str {
        match self {
            LoadRung::Full => "full",
            LoadRung::PrunedSearch => "pruned_search",
            LoadRung::BroadcastOnly => "broadcast_only",
        }
    }

    /// One rung worse (toward `BroadcastOnly`); saturates.
    pub fn demoted(self) -> LoadRung {
        match self {
            LoadRung::Full => LoadRung::PrunedSearch,
            _ => LoadRung::BroadcastOnly,
        }
    }

    /// One rung better (toward `Full`); saturates.
    pub fn promoted(self) -> LoadRung {
        match self {
            LoadRung::BroadcastOnly => LoadRung::PrunedSearch,
            _ => LoadRung::Full,
        }
    }
}

/// Budget and hysteresis knobs for the overload governor.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GovernorConfig {
    /// Master switch. Off by default: offline replay (the test suites, the
    /// benches) has no deadline, and lossless is its default — the way the
    /// worker pool's full queue blocks rather than sheds. Live capture
    /// opts in.
    pub enabled: bool,
    /// Explicit per-slot budget in µs, overriding the numerology-derived
    /// TTI × [`BUDGET_FRACTION`]. Tests and constrained deployments use this.
    pub budget_us_override: Option<f64>,
    /// Consecutive slots with the latency EWMA over budget before the
    /// ladder demotes one rung.
    pub demote_after_slots: u64,
    /// Base number of consecutive in-budget slots (EWMA under
    /// `promote_margin` × budget) before the ladder promotes one rung.
    /// Doubled per accumulated backoff level after flapping.
    pub promote_after_slots: u64,
    /// Promotion requires the EWMA under this fraction of the budget —
    /// strictly less than 1.0 so the ladder does not oscillate on the
    /// budget boundary.
    pub promote_margin: f64,
    /// A demotion within this many slots of the previous promotion counts
    /// as a flap and doubles the promotion run requirement.
    pub flap_window_slots: u64,
    /// Cap on the flap backoff exponent (promotion runs never exceed
    /// `promote_after_slots << max_backoff_exp`).
    pub max_backoff_exp: u32,
    /// `PrunedSearch`: drop UE-specific candidates below this level.
    pub pruned_min_level: AggregationLevel,
    /// `PrunedSearch`: cap on UE-specific candidate attempts per slot.
    pub pruned_max_ue_candidates: usize,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            enabled: false,
            budget_us_override: None,
            demote_after_slots: 8,
            promote_after_slots: 100,
            promote_margin: 0.8,
            flap_window_slots: 300,
            max_backoff_exp: 3,
            pruned_min_level: AggregationLevel::L2,
            pruned_max_ue_candidates: 16,
        }
    }
}

/// What [`OverloadGovernor::on_slot`] concluded about one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotVerdict {
    /// This slot's latency alone exceeded the budget (deadline miss).
    pub missed: bool,
    /// A ladder transition this slot, `(from, to)`.
    pub transition: Option<(LoadRung, LoadRung)>,
}

/// Fraction of the TTI spent on pipeline work before the slot counts as
/// over budget; the rest is headroom for capture and jitter.
pub const BUDGET_FRACTION: f64 = 0.9;

/// EWMA smoothing: new = old + (sample − old)/16. Two slots of history
/// weigh ~88% after 32 slots — fast enough to catch an overload burst,
/// slow enough that one idle slot cannot fake recovery.
const EWMA_SHIFT: f64 = 16.0;

/// The per-slot deadline tracker and degradation-ladder state machine.
/// Serialisable so a crash-recovered session resumes at the rung and EWMA
/// it had earned, rather than restarting at `Full` under the same load
/// that demoted it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverloadGovernor {
    cfg: GovernorConfig,
    rung: LoadRung,
    /// EWMA of slot latency, ns. 0 until the first observation seeds it.
    ewma_ns: f64,
    /// Consecutive slots with the EWMA over budget.
    over_streak: u64,
    /// Consecutive slots with the EWMA under the promotion margin.
    ok_streak: u64,
    /// Flap backoff exponent: promotion run = base << exp.
    backoff_exp: u32,
    last_promotion_slot: Option<u64>,
    last_demotion_slot: Option<u64>,
    /// Pin the ladder to one rung (benches measure per-rung throughput).
    forced: Option<LoadRung>,
}

impl OverloadGovernor {
    /// New governor at `Full`.
    pub fn new(cfg: GovernorConfig) -> OverloadGovernor {
        OverloadGovernor {
            cfg,
            rung: LoadRung::Full,
            ewma_ns: 0.0,
            over_streak: 0,
            ok_streak: 0,
            backoff_exp: 0,
            last_promotion_slot: None,
            last_demotion_slot: None,
            forced: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &GovernorConfig {
        &self.cfg
    }

    /// Replace the configuration, keeping the ladder state. Used on warm
    /// restart: the checkpoint carries the earned rung/EWMA, but the
    /// operator's *current* config (budget, hysteresis) must win over the
    /// one frozen into the snapshot.
    pub fn set_config(&mut self, cfg: GovernorConfig) {
        self.cfg = cfg;
    }

    /// Current rung (the forced rung when pinned).
    pub fn rung(&self) -> LoadRung {
        self.forced.unwrap_or(self.rung)
    }

    /// Current flap-backoff exponent.
    pub fn backoff_exp(&self) -> u32 {
        self.backoff_exp
    }

    /// Smoothed latency estimate, µs.
    pub fn ewma_us(&self) -> f64 {
        self.ewma_ns / 1e3
    }

    /// Pin the ladder to `rung` (or unpin with `None`). While pinned the
    /// state machine still tracks latency but never transitions.
    pub fn force(&mut self, rung: Option<LoadRung>) {
        self.forced = rung;
    }

    /// Per-slot latency budget: the explicit override when set, otherwise
    /// [`BUDGET_FRACTION`] of the numerology's TTI. Before the MIB fixes the
    /// numerology, µ=1 (the paper's mid-band cells, 0.5 ms TTI) is assumed.
    pub fn budget(&self, numerology: Option<Numerology>) -> Duration {
        if let Some(us) = self.cfg.budget_us_override {
            return Duration::from_nanos((us * 1e3) as u64);
        }
        let tti_s = numerology.unwrap_or(Numerology::Mu1).slot_duration_s();
        Duration::from_nanos((tti_s * BUDGET_FRACTION * 1e9) as u64)
    }

    /// Feed one slot's measured pipeline latency. Returns whether the slot
    /// missed its deadline and any ladder transition taken.
    pub fn on_slot(&mut self, slot: u64, latency: Duration, budget: Duration) -> SlotVerdict {
        let lat_ns = latency.as_nanos().min(u64::MAX as u128) as f64;
        let budget_ns = budget.as_nanos().min(u64::MAX as u128) as f64;
        let missed = lat_ns > budget_ns;
        if !self.cfg.enabled {
            return SlotVerdict {
                missed,
                transition: None,
            };
        }
        if self.ewma_ns == 0.0 {
            self.ewma_ns = lat_ns;
        } else {
            self.ewma_ns += (lat_ns - self.ewma_ns) / EWMA_SHIFT;
        }

        if self.ewma_ns > budget_ns {
            self.over_streak += 1;
            self.ok_streak = 0;
        } else {
            self.over_streak = 0;
            if self.ewma_ns < budget_ns * self.cfg.promote_margin {
                self.ok_streak += 1;
            } else {
                // Hysteresis band: in budget, but not comfortably.
                self.ok_streak = 0;
            }
        }

        let mut transition = None;
        if self.over_streak >= self.cfg.demote_after_slots && self.rung != LoadRung::BroadcastOnly {
            let from = self.rung;
            self.rung = self.rung.demoted();
            self.over_streak = 0;
            self.ok_streak = 0;
            // A demotion hot on the heels of a promotion is a flap: the
            // probe failed, so the next probe waits twice as long.
            if let Some(p) = self.last_promotion_slot {
                if slot.saturating_sub(p) <= self.cfg.flap_window_slots {
                    self.backoff_exp = (self.backoff_exp + 1).min(self.cfg.max_backoff_exp);
                }
            }
            self.last_demotion_slot = Some(slot);
            transition = Some((from, self.rung));
        } else if self.ok_streak >= self.promotion_run() && self.rung != LoadRung::Full {
            let from = self.rung;
            self.rung = self.rung.promoted();
            self.ok_streak = 0;
            // A calm stretch since the last demotion lets the backoff
            // decay, so a recovered cell climbs back at full speed.
            if self
                .last_demotion_slot
                .map(|d| slot.saturating_sub(d) > self.cfg.flap_window_slots)
                .unwrap_or(true)
            {
                self.backoff_exp = self.backoff_exp.saturating_sub(1);
            }
            self.last_promotion_slot = Some(slot);
            transition = Some((from, self.rung));
        }
        SlotVerdict { missed, transition }
    }

    /// A slot the front end dropped outright: the pipeline fell a full TTI
    /// behind, so it is accounted as a worst-case latency observation.
    pub fn on_dropped_slot(&mut self, slot: u64, budget: Duration) -> SlotVerdict {
        self.on_slot(slot, budget.saturating_mul(2), budget)
    }

    /// Consecutive in-budget slots currently required to climb one rung.
    pub fn promotion_run(&self) -> u64 {
        self.cfg
            .promote_after_slots
            .saturating_mul(1u64 << self.backoff_exp.min(62))
    }

    /// The PDCCH search budget for the current rung. Every rung keeps the
    /// common search space exhaustive — broadcast decodes are never shed.
    pub fn search_budget(&self) -> SearchBudget {
        match self.rung() {
            LoadRung::Full => SearchBudget::unlimited(),
            LoadRung::PrunedSearch => {
                SearchBudget::pruned(self.cfg.pruned_min_level, self.cfg.pruned_max_ue_candidates)
            }
            LoadRung::BroadcastOnly => SearchBudget::broadcast_only(),
        }
    }
}

/// Deterministic latency model: maps one slot's decode work to a synthetic
/// latency. Tests and the overload soak drive the governor through this
/// instead of the wall clock, the same way message fidelity stands in for
/// IQ — the ladder's dynamics become seed-reproducible and independent of
/// the build profile or host load.
#[derive(Debug, Clone, Copy)]
pub struct LoadModel {
    /// Fixed per-slot cost (capture, classification, housekeeping).
    pub base: Duration,
    /// Cost per PDCCH candidate scanned (extraction + common hypotheses).
    pub per_candidate: Duration,
    /// Cost per UE-specific RNTI hypothesis attempted.
    pub per_ue_hypothesis: Duration,
}

impl LoadModel {
    /// Synthetic latency for one slot's decode work.
    pub fn latency(&self, work: &DecodeWork) -> Duration {
        self.base
            + self.per_candidate.saturating_mul(work.candidates as u32)
            + self
                .per_ue_hypothesis
                .saturating_mul(work.ue_hypotheses as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GovernorConfig {
        GovernorConfig {
            enabled: true,
            budget_us_override: Some(500.0),
            demote_after_slots: 4,
            promote_after_slots: 20,
            flap_window_slots: 100,
            max_backoff_exp: 3,
            ..GovernorConfig::default()
        }
    }

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    /// Feed `lat` against a 500 µs budget until a transition lands on the
    /// rung named `until`.
    fn run(g: &mut OverloadGovernor, slot: &mut u64, lat: Duration, until: &str) {
        for _ in 0..10_000 {
            let v = g.on_slot(*slot, lat, us(500));
            *slot += 1;
            if v.transition.is_some_and(|(_, to)| to.name() == until) {
                return;
            }
        }
        panic!("never reached {until}");
    }

    #[test]
    fn budget_derives_from_numerology() {
        let g = OverloadGovernor::new(GovernorConfig::default());
        // µ=1: 0.5 ms TTI × 0.9 = 450 µs.
        assert_eq!(g.budget(Some(Numerology::Mu1)), us(450));
        // µ=0: 1 ms TTI × 0.9 = 900 µs.
        assert_eq!(g.budget(Some(Numerology::Mu0)), us(900));
        // Pre-MIB default is µ=1.
        assert_eq!(g.budget(None), us(450));
        let g = OverloadGovernor::new(GovernorConfig {
            budget_us_override: Some(123.0),
            ..GovernorConfig::default()
        });
        assert_eq!(g.budget(Some(Numerology::Mu0)), us(123));
    }

    #[test]
    fn disabled_governor_counts_misses_but_never_transitions() {
        let mut g = OverloadGovernor::new(GovernorConfig {
            enabled: false,
            ..cfg()
        });
        let b = us(500);
        for s in 0..200 {
            let v = g.on_slot(s, us(2000), b);
            assert!(v.missed);
            assert_eq!(v.transition, None);
        }
        assert_eq!(g.rung(), LoadRung::Full);
    }

    #[test]
    fn sustained_overload_walks_down_the_ladder() {
        let mut g = OverloadGovernor::new(cfg());
        let b = us(500);
        let mut rungs = vec![];
        for s in 0..64 {
            if let Some((_, to)) = g.on_slot(s, us(2000), b).transition {
                rungs.push(to);
            }
        }
        assert_eq!(
            rungs,
            vec![LoadRung::PrunedSearch, LoadRung::BroadcastOnly],
            "one rung at a time, in order"
        );
        assert_eq!(g.rung(), LoadRung::BroadcastOnly);
        // BroadcastOnly is the floor: no further transition.
        for s in 64..128 {
            assert_eq!(g.on_slot(s, us(2000), b).transition, None);
        }
    }

    #[test]
    fn one_cheap_slot_does_not_reset_the_overload_view() {
        let mut g = OverloadGovernor::new(cfg());
        let b = us(500);
        // Alternate expensive/idle slots: the EWMA stays over budget, so
        // the ladder still demotes even though raw latency dips.
        let mut demoted = false;
        for s in 0..64 {
            let lat = if s % 4 == 3 { us(100) } else { us(2000) };
            if g.on_slot(s, lat, b).transition.is_some() {
                demoted = true;
                break;
            }
        }
        assert!(demoted, "EWMA hysteresis sees through idle slots");
    }

    #[test]
    fn recovery_requires_a_consecutive_in_budget_run() {
        let mut g = OverloadGovernor::new(cfg());
        let b = us(500);
        // Constant overload that no rung alleviates: the ladder bottoms
        // out (the EWMA stays hot through each demotion, so degradation
        // keeps going until the floor).
        let mut slot = 0u64;
        while g.rung() != LoadRung::BroadcastOnly {
            g.on_slot(slot, us(2000), b);
            slot += 1;
            assert!(slot < 100, "ladder reaches the floor under overload");
        }
        // In-budget slots: the EWMA must decay AND the 20-slot run must
        // complete before the first climb.
        let recovery_start = slot;
        let mut promoted_at = None;
        for _ in 0..400 {
            if let Some((from, to)) = g.on_slot(slot, us(100), b).transition {
                assert_eq!(from, LoadRung::BroadcastOnly);
                assert_eq!(to, LoadRung::PrunedSearch);
                promoted_at = Some(slot);
                break;
            }
            slot += 1;
        }
        let promoted_at = promoted_at.expect("promoted");
        assert!(
            promoted_at - recovery_start >= 20,
            "promotion at {} needed the full run",
            promoted_at
        );
    }

    #[test]
    fn flapping_backs_off_exponentially_and_decays() {
        // The climb off the floor is two promotions; a flap window shorter
        // than the backed-off promotion run lets each take a decay step.
        let mut g = OverloadGovernor::new(GovernorConfig {
            flap_window_slots: 60,
            ..cfg()
        });
        let b = us(500);
        let mut slot = 0u64;
        // Demote to PrunedSearch, recover to Full (no flap yet).
        run(&mut g, &mut slot, us(2000), "pruned_search");
        run(&mut g, &mut slot, us(100), "full");
        assert_eq!(g.backoff_exp(), 0);
        // Overload again immediately: the demotion lands inside the flap
        // window, so the backoff exponent climbs.
        run(&mut g, &mut slot, us(2000), "pruned_search");
        assert_eq!(g.backoff_exp(), 1);
        assert_eq!(g.promotion_run(), 40, "run doubled");
        let before = slot;
        run(&mut g, &mut slot, us(100), "full");
        assert!(slot - before >= 40, "promotion respected the backoff");
        // A long calm stretch decays the backoff on the next promotion.
        for _ in 0..200 {
            g.on_slot(slot, us(100), b);
            slot += 1;
        }
        assert_eq!(g.backoff_exp(), 0, "decayed after calm promotion");
    }

    #[test]
    fn repeated_flap_cycles_grow_backoff_to_the_cap() {
        // A wide flap window so every demotion in the cycle counts as a
        // flap and no calm decay fires between cycles: the exponent must
        // climb one step per cycle and saturate at max_backoff_exp.
        let mut g = OverloadGovernor::new(GovernorConfig {
            flap_window_slots: 1_000,
            ..cfg()
        });
        let mut slot = 0u64;
        // Mild overload (600 µs against a 500 µs budget) so the EWMA
        // hangover after a demotion clears within a few calm slots and
        // each cycle takes exactly one demotion.
        // First demotion has no preceding promotion: not a flap.
        run(&mut g, &mut slot, us(600), "pruned_search");
        assert_eq!(g.backoff_exp(), 0);
        run(&mut g, &mut slot, us(100), "full");
        for cycle in 1..=5u32 {
            run(&mut g, &mut slot, us(600), "pruned_search");
            let expected = cycle.min(3);
            assert_eq!(g.backoff_exp(), expected, "cycle {cycle}");
            assert_eq!(
                g.promotion_run(),
                20u64 << expected,
                "promotion run doubles per flap, capped (cycle {cycle})"
            );
            run(&mut g, &mut slot, us(100), "full");
        }
    }

    #[test]
    fn calm_windows_decay_backoff_stepwise_across_promotions() {
        // A tighter flap window than the promotion runs it gates, so the
        // climb off the floor (80 + 40 calm slots at backoff 2) qualifies
        // every promotion for one decay step.
        let mut g = OverloadGovernor::new(GovernorConfig {
            flap_window_slots: 60,
            ..cfg()
        });
        let b = us(500);
        let mut slot = 0u64;
        // Earn a backoff of 2 by flapping twice at the Pruned/Broadcast
        // boundary (each demotion lands right after a promotion).
        run(&mut g, &mut slot, us(600), "broadcast_only");
        run(&mut g, &mut slot, us(100), "pruned_search");
        run(&mut g, &mut slot, us(600), "broadcast_only");
        assert_eq!(g.backoff_exp(), 1);
        run(&mut g, &mut slot, us(100), "pruned_search");
        run(&mut g, &mut slot, us(600), "broadcast_only");
        assert_eq!(g.backoff_exp(), 2);
        // Sustained calm: each promotion that lands more than a flap
        // window after the last demotion sheds one exponent step, so the
        // backoff unwinds stepwise (2 → 1 → 0), not all at once.
        let mut exps = vec![];
        for _ in 0..10_000 {
            let v = g.on_slot(slot, us(100), b);
            slot += 1;
            if v.transition.is_some() {
                exps.push(g.backoff_exp());
            }
            if g.rung() == LoadRung::Full {
                break;
            }
        }
        assert_eq!(
            exps,
            vec![1, 0],
            "one decay step per calm promotion on the climb to Full"
        );
        assert_eq!(g.promotion_run(), 20, "fully recovered probe cadence");
    }

    #[test]
    fn search_budget_follows_the_rung_and_protects_broadcast() {
        let mut g = OverloadGovernor::new(cfg());
        assert!(g.search_budget().is_unlimited());
        g.force(Some(LoadRung::PrunedSearch));
        let budget = g.search_budget();
        assert!(!budget.admits_ue(AggregationLevel::L1, 0));
        assert!(budget.admits_ue(AggregationLevel::L2, 0));
        g.force(Some(LoadRung::BroadcastOnly));
        // Even at the floor the budget only skips UE decodes — the common
        // search space is never pruned by any rung.
        assert!(g.search_budget().skip_ue);
        g.force(None);
        assert_eq!(g.rung(), LoadRung::Full);
    }

    #[test]
    fn dropped_slots_count_as_overload() {
        let mut g = OverloadGovernor::new(cfg());
        let b = us(500);
        let mut demoted = false;
        for s in 0..16 {
            let v = g.on_dropped_slot(s, b);
            assert!(v.missed);
            if v.transition.is_some() {
                demoted = true;
            }
        }
        assert!(demoted, "a run of dropped slots demotes the ladder");
    }

    #[test]
    fn load_model_is_linear_in_work() {
        let m = LoadModel {
            base: us(60),
            per_candidate: us(10),
            per_ue_hypothesis: us(40),
        };
        let w = DecodeWork {
            candidates: 3,
            ue_candidates: 2,
            ue_hypotheses: 5,
            pruned: 0,
            validation_rejects: 0,
        };
        assert_eq!(m.latency(&w), us(60 + 30 + 200));
        assert_eq!(m.latency(&DecodeWork::default()), us(60));
    }
}
