//! Overload response: one rule, driven by the one queue that can back up.
//!
//! NR-Scope's headline requirement is decoding every DCI in every TTI.
//! Its corollary under overload is that a late slot must still yield its
//! SI/RA/TC decodes and MSG 4 C-RNTI discovery. A fleet shard is behind
//! exactly when its input queue holds a backlog, so [`rung_for_backlog`]
//! reads the rung off that backlog after each pop: over 7/8 of the queue
//! depth the shard decodes broadcast-only, and it returns to `Full` once
//! the backlog is under half that. The worker pool (whose full queue
//! blocks) and a sniffer fed one slot at a time keep no backlog, so they
//! always run at `Full`.
//!
//! The rung is the caller's per-slot input, handed to the scope through
//! [`crate::NrScope::force_rung`]; nothing here is checkpointed. What is
//! left of the governor is the deadline check: [`OverloadGovernor::on_slot`]
//! reports a slot whose processing took longer than [`BUDGET_FRACTION`]
//! of the TTI.

use nr_phy::numerology::Numerology;
use nr_phy::pdcch::SearchBudget;
use std::time::Duration;

/// Overload rung, healthiest first. The numeric value is the `load_rung`
/// gauge reading and the `ScopeStats::slots_at_rung` index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadRung {
    /// Full blind search: every aggregation level, every hypothesis.
    Full = 0,
    /// Common search space only: SI/RA/TC decoding and MSG 4 C-RNTI
    /// recovery continue; per-UE telemetry pauses (the never-go-dark
    /// invariant: no load prunes the common search space).
    BroadcastOnly = 1,
}

impl LoadRung {
    /// Stable snake_case name (matches the per-rung stage histograms).
    pub fn name(self) -> &'static str {
        match self {
            LoadRung::Full => "full",
            LoadRung::BroadcastOnly => "broadcast_only",
        }
    }

    /// The PDCCH search budget this rung imposes. Both keep the common
    /// search space exhaustive — broadcast decodes are never shed.
    pub fn search_budget(self) -> SearchBudget {
        match self {
            LoadRung::Full => SearchBudget::unlimited(),
            LoadRung::BroadcastOnly => SearchBudget::broadcast_only(),
        }
    }
}

/// The rung a shard decodes its next slot at, given the rung it is at and
/// the `backlog` left in its queue of `depth` after the pop: enter
/// `BroadcastOnly` while the backlog is over 7/8 of the depth, return to
/// `Full` once it is under 7/16. Both thresholds derive from the depth, so
/// there is no knob.
///
/// Every `Fleet` feeder, with the peak backlog its pacing allows: the perf
/// ledger's fleet replay and the `fleet` bench's sweep wait out a queue
/// over 128 every 64 slots at depth 256 (192 < 224); the bench's fault
/// phase one over 24 every 8 at depth 512 (32 < 448) on every shard but
/// the overloaded one, which is meant to cross; `tests/fleet.rs` one over
/// 256 every 16 at depth 512 or 4096 (272 < 448), its handover test every
/// 32 (288). The `chaos` bench's fleet leg feeds 64-slot chunks into the
/// default depth of 64 without waiting, so the shard its hang stalls drains
/// broadcast-only, as meant; `tests/overload.rs` crosses on purpose, and
/// the unit tests in `fleet.rs` feed empty slots unpaced.
pub fn rung_for_backlog(rung: LoadRung, backlog: usize, depth: usize) -> LoadRung {
    let (backlog, depth) = (backlog as u128, depth as u128);
    match rung {
        LoadRung::Full if 8 * backlog > 7 * depth => LoadRung::BroadcastOnly,
        LoadRung::BroadcastOnly if 16 * backlog < 7 * depth => LoadRung::Full,
        same => same,
    }
}

/// Overload-governor configuration. It has no fields left: it stays, as an
/// empty `Default` struct, only because the perf ledger constructs it as
/// the argument to [`OverloadGovernor::new`].
#[derive(Debug, Clone, Copy, Default)]
pub struct GovernorConfig {}

/// Fraction of the TTI spent on pipeline work before the slot counts as
/// a deadline miss; the rest is headroom for capture and jitter.
pub const BUDGET_FRACTION: f64 = 0.9;

/// The per-slot deadline check.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverloadGovernor;

impl OverloadGovernor {
    /// A deadline checker (the configuration has nothing left to set).
    pub fn new(_cfg: GovernorConfig) -> OverloadGovernor {
        OverloadGovernor
    }

    /// Per-slot latency budget: [`BUDGET_FRACTION`] of the numerology's
    /// TTI. Before the MIB fixes the numerology, µ=1 (the paper's mid-band
    /// cells, 0.5 ms TTI) is assumed.
    pub fn budget(&self, numerology: Option<Numerology>) -> Duration {
        let tti_s = numerology.unwrap_or(Numerology::Mu1).slot_duration_s();
        Duration::from_nanos((tti_s * BUDGET_FRACTION * 1e9) as u64)
    }

    /// Whether one decoded slot of `latency` missed its deadline `budget`.
    /// `slot` is the slot index, which the check does not need.
    pub fn on_slot(&mut self, _slot: u64, latency: Duration, budget: Duration) -> bool {
        latency > budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
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
    }

    #[test]
    fn on_slot_reports_a_miss_only_past_the_budget() {
        let mut g = OverloadGovernor::new(GovernorConfig::default());
        let b = g.budget(None);
        assert!(!g.on_slot(0, us(20), b));
        assert!(!g.on_slot(1, b, b), "on the budget is in time");
        assert!(g.on_slot(2, b + Duration::from_nanos(1), b));
    }

    /// Every depth `1..=512`, every backlog its ring can hold, from both
    /// rungs: the step function is the 7/8 entry, the 7/16 exit and the
    /// hysteresis between them, and nothing else.
    #[test]
    fn rung_for_backlog_enters_over_seven_eighths_and_leaves_under_seven_sixteenths() {
        use LoadRung::{BroadcastOnly, Full};
        for depth in 1..=512usize {
            // The smallest backlog over 7/8 of the depth, and the largest
            // under 7/16 of it.
            let enter = 7 * depth / 8 + 1;
            let leave = (7 * depth).div_ceil(16) - 1;
            assert!(leave < enter, "a hysteresis band at depth {depth}");
            for backlog in 0..=depth {
                let at = (backlog, depth);
                let from_full = rung_for_backlog(Full, backlog, depth);
                let from_blind = rung_for_backlog(BroadcastOnly, backlog, depth);
                assert_eq!(from_full == BroadcastOnly, backlog >= enter, "enter {at:?}");
                assert_eq!(from_blind == Full, backlog <= leave, "leave {at:?}");
                if backlog as f64 <= 0.875 * depth as f64 {
                    assert_eq!(from_full, Full, "entered at or below 7/8: {at:?}");
                }
                if (leave + 1..enter).contains(&backlog) {
                    assert_eq!((from_full, from_blind), (Full, BroadcastOnly), "{at:?}");
                }
            }
        }
        // The paced feeders' peaks stay at `Full` (see `rung_for_backlog`).
        assert_eq!(rung_for_backlog(Full, 192, 256), Full);
        assert_eq!(rung_for_backlog(Full, 32, 512), Full);
        assert_eq!(rung_for_backlog(Full, 288, 512), Full);
        assert_eq!(rung_for_backlog(Full, 272, 4096), Full);
    }

    #[test]
    fn search_budget_follows_the_rung_and_protects_broadcast() {
        assert!(!LoadRung::Full.search_budget().skip_ue);
        // At the floor the budget only skips UE decodes — the common
        // search space is never pruned by any rung.
        assert!(LoadRung::BroadcastOnly.search_budget().skip_ue);
    }
}
