//! Overload-soak: a seeded, oversubscribed UE population drives the
//! governor down the degradation ladder and back. Latency is modelled
//! (not wall clock) via [`LoadModel`], so the whole scenario — descent,
//! blind plateau, staged recovery — is deterministic.
//!
//! The invariant under test at every rung: MSG 4 C-RNTI discovery and
//! SIB1 tracking never go dark. Two UEs arrive *while the sniffer is
//! broadcast-only* and must still be discovered through RACH — and once
//! the load drops they are tracked like everyone else, proving blind
//! discovery produces usable tracking state.

use nr_scope::gnb::{CellConfig, Gnb};
use nr_scope::mac::RoundRobin;
use nr_scope::phy::channel::ChannelProfile;
use nr_scope::phy::pdcch::AggregationLevel;
use nr_scope::phy::types::{Rnti, RntiType};
use nr_scope::scope::observe::Observer;
use nr_scope::scope::{
    GovernorConfig, ImpairmentSchedule, LoadModel, LoadRung, NrScope, ScopeConfig, SyncState,
};
use nr_scope::ue::traffic::{TrafficKind, TrafficSource};
use nr_scope::ue::{MobilityScenario, SimUe};
use std::collections::BTreeSet;
use std::time::Duration;

fn backlogged_ue(id: u64) -> SimUe {
    SimUe::new(
        id,
        ChannelProfile::Awgn,
        MobilityScenario::Static,
        TrafficSource::new(
            TrafficKind::FileDownload {
                total_bytes: usize::MAX / 2,
            },
            id,
        ),
        0.0,
        600.0,
        id,
    )
}

fn governor_cfg() -> GovernorConfig {
    GovernorConfig {
        enabled: true,
        budget_us_override: Some(500.0),
        demote_after_slots: 8,
        promote_after_slots: 40,
        promote_margin: 0.8,
        flap_window_slots: 300,
        max_backoff_exp: 3,
        // Level filtering off for this scenario: the cap alone prunes.
        pruned_min_level: AggregationLevel::L1,
        pruned_max_ue_candidates: 2,
    }
}

/// Load model calibrated against the seeded population (measured via the
/// governor EWMA at forced rungs; each C-RNTI is offered only where its
/// search space admits it, so 16 tracked UEs are ~23.8 hypotheses a slot
/// at Full and ~14.6 under the cap): Full converges to ~667 µs (over the
/// 500 µs budget), PrunedSearch (cap 2) to ~444 µs — inside the
/// 400–500 µs hysteresis band, so the ladder parks there.
fn moderate_load() -> LoadModel {
    LoadModel {
        base: Duration::from_micros(60),
        per_candidate: Duration::from_micros(10),
        per_ue_hypothesis: Duration::from_nanos(24_400),
    }
}

/// Spiked per-hypothesis cost: PrunedSearch converges to ~660 µs — over
/// budget, so only BroadcastOnly (the floor) fits.
fn spiked_load() -> LoadModel {
    LoadModel {
        per_ue_hypothesis: Duration::from_micros(39),
        ..moderate_load()
    }
}

/// Light per-hypothesis cost: every rung fits comfortably under the
/// promotion margin even with 18 tracked UEs, so the ladder climbs home.
fn light_load() -> LoadModel {
    LoadModel {
        per_ue_hypothesis: Duration::from_micros(9),
        ..moderate_load()
    }
}

#[test]
fn oversubscribed_population_degrades_recovers_and_never_loses_rach() {
    let cell = CellConfig::srsran_n41();
    let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), 11);
    for id in 1..=16u64 {
        gnb.ue_arrives(backlogged_ue(id));
    }
    let mut obs = Observer::new(&cell, 35.0, false, 5);
    let mut scope = NrScope::new(
        ScopeConfig {
            // Expiry stays out of this scenario (the composition test
            // exercises it): the hypothesis set must equal the tracked
            // population so the modelled load is constant per phase.
            ue_expiry_slots: 100_000,
            governor: governor_cfg(),
            ..ScopeConfig::default()
        },
        Some(cell.pci),
    );
    scope.set_load_model(Some(moderate_load()));
    let slot_s = cell.slot_s();

    // Phase 1 (slots 0..1200): 16 UEs attach; as the tracked count grows
    // the modelled Full-rung cost crosses the budget and the ladder
    // demotes, parking at PrunedSearch once all 16 are tracked.
    let mut all_attached_at = None;
    let mut first_demotion_at = None;
    for s in 0..1200u64 {
        let out = gnb.step();
        scope.process(&obs.observe(&out, s as f64 * slot_s));
        if all_attached_at.is_none() && scope.total_discovered() == 16 {
            all_attached_at = Some(s);
        }
        if first_demotion_at.is_none() && scope.load_rung() != LoadRung::Full {
            first_demotion_at = Some(s);
        }
    }
    let attached = all_attached_at.expect("all 16 UEs discovered despite overload");
    let demoted = first_demotion_at.expect("overload demoted the ladder");
    assert!(
        demoted <= attached + 200,
        "stable-rung search started within 200 slots of full attach (demoted at {demoted}, attached at {attached})"
    );
    assert_eq!(
        scope.load_rung(),
        LoadRung::PrunedSearch,
        "moderate overload parks at PrunedSearch"
    );
    assert!(scope.stats.deadline_misses > 0, "overload slots missed");
    assert!(scope.stats.rung_demotions >= 1);
    assert!(scope.stats.pruned_candidates > 0, "budget actually pruned");
    assert_eq!(scope.tracked_rntis(), gnb.connected_rntis());

    // Phase 2 (slots 1200..2000): cost spike — only BroadcastOnly fits.
    // Two NEW UEs arrive mid-blindness; RACH discovery must survive.
    scope.set_load_model(Some(spiked_load()));
    let si_before = scope.stats.si_dcis;
    let mut spike_max_ewma_us = 0.0f64;
    for s in 1200..2000u64 {
        if s == 1400 {
            gnb.ue_arrives(backlogged_ue(17));
            gnb.ue_arrives(backlogged_ue(18));
        }
        let out = gnb.step();
        scope.process(&obs.observe(&out, s as f64 * slot_s));
        spike_max_ewma_us = spike_max_ewma_us.max(scope.governor().ewma_us());
    }
    // Bounded latency: an upward probe costs at most a `demote_after_slots`
    // run of overload before the ladder re-demotes, so even mid-spike the
    // smoothed latency stays under twice the 500 µs budget (unmitigated
    // Full search would sit over it, at ~1,015 µs).
    assert!(
        spike_max_ewma_us < 1000.0,
        "spike-phase EWMA peaked at {spike_max_ewma_us:.1} us (2x budget)"
    );
    assert_eq!(
        scope.load_rung(),
        LoadRung::BroadcastOnly,
        "spike parks the ladder at BroadcastOnly"
    );
    assert_eq!(
        scope.sync_state(),
        SyncState::Synced,
        "governor-induced silence must not degrade sync"
    );
    assert!(
        scope.stats.si_dcis > si_before,
        "SIB1 tracking stayed alive while blind"
    );
    assert_eq!(
        scope.total_discovered(),
        18,
        "UEs that RACHed during blindness were discovered via MSG 4"
    );
    assert!(
        scope.governor().backoff_exp() > 0,
        "failed upward probes backed off"
    );

    // Phase 3 (slots 2000..3800): the load drops (per-hypothesis cost
    // falls back under the budget for the whole population). The ladder
    // must climb back to Full monotonically — no demotions — and finish
    // with zero misses over the final 100 slots. The two UEs discovered
    // while blind are tracked like everyone else.
    scope.set_load_model(Some(light_load()));
    let demotions_before = scope.stats.rung_demotions;
    let mut misses_at_3700 = 0;
    for s in 2000..3800u64 {
        let out = gnb.step();
        scope.process(&obs.observe(&out, s as f64 * slot_s));
        if s == 3700 {
            misses_at_3700 = scope.stats.deadline_misses;
        }
    }
    assert_eq!(
        scope.load_rung(),
        LoadRung::Full,
        "ladder returned to Full after the load dropped"
    );
    assert_eq!(
        scope.stats.rung_demotions, demotions_before,
        "recovery was monotone: no demotions after the load dropped"
    );
    assert_eq!(
        scope.stats.deadline_misses, misses_at_3700,
        "zero deadline misses over the final 100 slots"
    );
    let connected = gnb.connected_rntis();
    assert_eq!(connected.len(), 18, "all 18 UEs still connected");
    for r in &connected {
        assert!(
            scope.tracked_rntis().contains(r),
            "UE {r:?} (including the blind-discovered pair) tracked after recovery"
        );
    }

    // Ground truth: every RACH in the truth log (distinct MSG 4 TC-RNTI
    // transmissions) corresponds to a discovery — none went dark at any
    // rung.
    let truth_rach: BTreeSet<Rnti> = gnb
        .truth()
        .records()
        .iter()
        .filter(|r| r.rnti_type == RntiType::Tc)
        .map(|r| r.rnti)
        .collect();
    assert_eq!(
        scope.total_discovered(),
        truth_rach.len() as u64,
        "MSG 4 C-RNTI discovery succeeded for every RACH in the truth log"
    );
}

/// Satellite: the sync-health machine and the load governor compose. An
/// outage (dropped slots) mid-blindness must still degrade sync — drops
/// are front-end reality, not governor-induced silence — and both
/// machines must recover without double-counting UEs or losing SIB1.
#[test]
fn outage_while_blind_degrades_sync_but_recovery_composes() {
    let cell = CellConfig::srsran_n41();
    let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), 11);
    for id in 1..=4u64 {
        gnb.ue_arrives(backlogged_ue(id));
    }
    let mut obs = Observer::new(&cell, 35.0, false, 5);
    // Outage well inside the blind phase.
    obs.set_impairments(ImpairmentSchedule::new(42).with_outage(1500..1660));
    let mut scope = NrScope::new(
        ScopeConfig {
            ue_expiry_slots: 1200,
            governor: governor_cfg(),
            ..ScopeConfig::default()
        },
        Some(cell.pci),
    );
    // Heavy per-hypothesis cost from the start: with 4 tracked UEs even
    // PrunedSearch (~727 µs) is over budget, so the ladder goes blind.
    scope.set_load_model(Some(LoadModel {
        per_ue_hypothesis: Duration::from_micros(146),
        ..moderate_load()
    }));
    let slot_s = cell.slot_s();
    let mut saw_degraded_during_outage = false;
    let mut saw_blind_before_outage = false;
    for s in 0..2400u64 {
        let out = gnb.step();
        let cap = obs.capture(&out, s as f64 * slot_s);
        scope.process_capture(&cap);
        if s == 1490 {
            saw_blind_before_outage = scope.load_rung() == LoadRung::BroadcastOnly;
        }
        if s == 1655 {
            saw_degraded_during_outage = scope.sync_state() != SyncState::Synced;
        }
    }
    assert!(
        saw_blind_before_outage,
        "governor was blind before the outage"
    );
    assert!(
        saw_degraded_during_outage,
        "dropped slots degraded sync even at a blind rung"
    );
    assert_eq!(scope.stats.dropped_slots, 160);
    assert_eq!(scope.sync_state(), SyncState::Synced, "sync recovered");
    assert!(scope.stats.resyncs >= 1, "resync counted once, not looped");
    assert!(
        scope.cell.sib1.is_some(),
        "SIB1 state survived both machines"
    );

    // Load drop: lighten the model and thin the population; both ladders
    // climb home.
    scope.set_load_model(Some(LoadModel {
        per_ue_hypothesis: Duration::from_micros(5),
        ..moderate_load()
    }));
    gnb.ue_departs(1);
    gnb.ue_departs(2);
    for s in 2400..4200u64 {
        let out = gnb.step();
        let cap = obs.capture(&out, s as f64 * slot_s);
        scope.process_capture(&cap);
    }
    assert_eq!(scope.load_rung(), LoadRung::Full, "ladder recovered");
    assert_eq!(scope.sync_state(), SyncState::Synced);
    assert_eq!(
        scope.total_discovered(),
        4,
        "no UE double-counted across sync x governor transitions"
    );
    for r in &gnb.connected_rntis() {
        assert!(scope.tracked_rntis().contains(r), "live UE {r:?} tracked");
    }
}
