//! Clock-domain robustness: a deterministic oscillator model skews the
//! front end (ppm offset, drift, steps) while the closed-loop timing
//! recovery in the scope pulls the residual back in. Under test here:
//!
//! * Lock acquisition and decode parity under a ±20 ppm oscillator.
//! * Composition with the sync-health machine — a clock step's decode
//!   silence must not degrade sync, while a genuine front-end outage
//!   must, clock trouble or not.
//! * Composition with the overload governor — drift and overload
//!   demotions coexist without either ladder confusing the other.
//! * Mod-1024 SFN wrap safety: the derived SFN tracks the gNB's air
//!   truth across multiple wraps of the non-wrapping slot counter.

use nr_scope::gnb::{CellConfig, Gnb};
use nr_scope::mac::RoundRobin;
use nr_scope::phy::channel::ChannelProfile;
use nr_scope::phy::pdcch::AggregationLevel;
use nr_scope::scope::observe::Observer;
use nr_scope::scope::{
    ClockLock, ClockRecoveryConfig, GovernorConfig, ImpairmentSchedule, LoadModel, NrScope,
    ScopeConfig, SyncState,
};
use nr_scope::ue::traffic::{TrafficKind, TrafficSource};
use nr_scope::ue::{MobilityScenario, SimUe};
use std::time::Duration;

fn cbr_ue(id: u64) -> SimUe {
    SimUe::new(
        id,
        ChannelProfile::Awgn,
        MobilityScenario::Static,
        TrafficSource::new(
            TrafficKind::Cbr {
                rate_bps: 2e6,
                packet_bytes: 1200,
            },
            id,
        ),
        0.0,
        60.0,
        id,
    )
}

fn build_gnb(n_ues: u64, seed: u64) -> (CellConfig, Gnb) {
    let cell = CellConfig::srsran_n41();
    let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), seed);
    for id in 1..=n_ues {
        gnb.ue_arrives(cbr_ue(id));
    }
    (cell, gnb)
}

/// Step `slots` slots through an observer/scope pair using the full
/// closed-loop path (capture → observable → process → correction).
fn run(gnb: &mut Gnb, obs: &mut Observer, scope: &mut NrScope, slots: u64, slot_s: f64) {
    for _ in 0..slots {
        let out = gnb.step();
        let t = out.slot as f64 * slot_s;
        scope.process_observer_slot(obs, &out, t);
    }
}

#[test]
fn twenty_ppm_oscillator_locks_and_keeps_decode_parity() {
    // The UEs attach at slot 800, after the drifted run's CFO pull-in —
    // attaches missed during acquisition are a real (and permanent) loss
    // for an RNTI tracker, which is exactly why they'd drown the parity
    // signal this test is after: steady-state decode under drift.
    let drive = |clocked: bool| {
        let (cell, mut gnb) = build_gnb(0, 11);
        let slot_s = cell.slot_s();
        let mut obs = Observer::new(&cell, 35.0, false, 5);
        if clocked {
            obs.set_clock(
                // +20 ppm with a mild temperature walk — about 50 kHz of
                // CFO at the n41 carrier until corrected.
                cell.clock_model(3)
                    .with_static_ppm(20.0)
                    .with_random_walk(0.02),
            );
        }
        let mut scope = NrScope::new(ScopeConfig::default(), Some(cell.pci));
        run(&mut gnb, &mut obs, &mut scope, 800, slot_s);
        gnb.ue_arrives(cbr_ue(1));
        gnb.ue_arrives(cbr_ue(2));
        run(&mut gnb, &mut obs, &mut scope, 5200, slot_s);
        scope
    };
    let base = drive(false);
    let scope = drive(true);

    assert_eq!(scope.clock_lock(), Some(ClockLock::Locked), "lock held");
    assert_eq!(scope.sync_state(), SyncState::Synced);
    let ppb = scope.clock_drift_ppb();
    assert!(
        (ppb - 20_000).abs() < 5_000,
        "drift estimate {ppb} ppb (expected ≈20,000)"
    );
    // Decode parity with the ideal-clock baseline: once locked, the
    // residual costs (nearly) nothing. The observers' RNG streams
    // diverge (measurement-noise draws), so parity is a band, not
    // equality.
    let dcis = |s: &NrScope| {
        s.stats.si_dcis + s.stats.ra_dcis + s.stats.tc_dcis + s.stats.dl_dcis + s.stats.ul_dcis
    };
    let ratio = dcis(&scope) as f64 / dcis(&base) as f64;
    assert!(
        nr_scope::analytics::parity_ok(ratio),
        "decode parity ratio {ratio:.3}"
    );
    assert!(scope.stats.timing_slips > 0, "drift forced sample slips");
}

#[test]
fn clock_step_is_masked_but_real_outage_still_degrades_sync() {
    let (cell, mut gnb) = build_gnb(2, 13);
    let slot_s = cell.slot_s();
    let mut obs = Observer::new(&cell, 35.0, false, 5);
    // A 30 µs step at slot 3013 — a non-SSB slot, so the fine estimator
    // goes blind immediately and the loop stays blind until the next SSB
    // (slot 3040) snaps the whole residual back.
    obs.set_clock(
        cell.clock_model(7)
            .with_static_ppm(5.0)
            .with_step(3013, 30.0),
    );
    // An unrelated, genuine front-end outage later in the run.
    obs.set_impairments(ImpairmentSchedule::new(9).with_outage(5000..5150));
    let mut scope = NrScope::new(
        ScopeConfig {
            // Tight sync thresholds so un-masked step silence *would*
            // degrade; a short pulling horizon so the step excursion
            // formally leaves `Locked` (and so engages the mask).
            degraded_after_slots: 20,
            clock: ClockRecoveryConfig {
                pulling_after_slots: 10,
                ..ClockRecoveryConfig::default()
            },
            ..ScopeConfig::default()
        },
        Some(cell.pci),
    );

    run(&mut gnb, &mut obs, &mut scope, 3000, slot_s);
    assert_eq!(scope.clock_lock(), Some(ClockLock::Locked), "acquired");
    assert_eq!(scope.sync_state(), SyncState::Synced);
    let losses_before = scope.stats.clock_lock_losses;

    // Through the step: the loop loses lock and reacquires via the SSB
    // snap; the decode silence meanwhile is attributed to the clock, not
    // the cell.
    let mut sync_held = true;
    for _ in 3000..3200u64 {
        let out = gnb.step();
        scope.process_observer_slot(&mut obs, &out, out.slot as f64 * slot_s);
        sync_held &= scope.sync_state() == SyncState::Synced;
    }
    assert!(sync_held, "step silence was misread as a cell outage");
    assert!(
        scope.stats.clock_lock_losses > losses_before,
        "the step cost the loop its lock"
    );
    assert_eq!(scope.clock_lock(), Some(ClockLock::Locked), "relocked");

    // Through the outage: front-end drops count against sync health no
    // matter what the clock loop thinks — the mask must not hide it.
    let mut saw_degraded = false;
    for _ in 3200..5400u64 {
        let out = gnb.step();
        scope.process_observer_slot(&mut obs, &out, out.slot as f64 * slot_s);
        saw_degraded |= scope.sync_state() != SyncState::Synced;
    }
    assert!(saw_degraded, "a real outage degraded sync");
    assert_eq!(scope.sync_state(), SyncState::Synced, "and it recovered");
}

#[test]
fn drift_and_overload_ladders_coexist() {
    let (cell, mut gnb) = build_gnb(16, 11);
    let slot_s = cell.slot_s();
    let mut obs = Observer::new(&cell, 35.0, false, 5);
    obs.set_clock(cell.clock_model(5).with_static_ppm(10.0));
    let mut scope = NrScope::new(
        ScopeConfig {
            ue_expiry_slots: 100_000,
            governor: GovernorConfig {
                enabled: true,
                budget_us_override: Some(500.0),
                demote_after_slots: 8,
                promote_after_slots: 40,
                promote_margin: 0.8,
                flap_window_slots: 300,
                max_backoff_exp: 3,
                pruned_min_level: AggregationLevel::L1,
                pruned_max_ue_candidates: 2,
            },
            ..ScopeConfig::default()
        },
        Some(cell.pci),
    );
    // Sixteen backlogged UEs at this model (`tests/overload.rs`'s
    // `moderate_load`: ~667 µs at Full) overflow the 500 µs budget — the
    // ladder must demote — while the oscillator drifts.
    scope.set_load_model(Some(LoadModel {
        base: Duration::from_micros(60),
        per_candidate: Duration::from_micros(10),
        per_ue_hypothesis: Duration::from_nanos(24_400),
    }));
    run(&mut gnb, &mut obs, &mut scope, 4000, slot_s);

    assert!(
        scope.stats.rung_demotions >= 1,
        "overload demoted at least one rung"
    );
    assert_eq!(
        scope.clock_lock(),
        Some(ClockLock::Locked),
        "lock held through the overload episode"
    );
    let ppb = scope.clock_drift_ppb();
    assert!(
        (ppb - 10_000).abs() < 4_000,
        "drift estimate {ppb} ppb under overload"
    );
    assert_eq!(scope.sync_state(), SyncState::Synced);
}

#[test]
fn derived_sfn_tracks_air_truth_across_two_wraps() {
    // SFN wraps every 1024 frames = 20,480 slots at µ=1. The sniffer's
    // u64 slot counter never wraps; its projection must. Skipped
    // stretches between the windows keep the test fast — the scope
    // fast-forwards its counter exactly as a volatile shard adopting a
    // live feed position does.
    let (cell, mut gnb) = build_gnb(1, 11);
    let slot_s = cell.slot_s();
    let mut obs = Observer::new(&cell, 35.0, false, 5);
    let mut scope = NrScope::new(ScopeConfig::default(), Some(cell.pci));
    let mut checked = 0u64;
    let windows = [
        (0u64, 400u64),   // anchor acquisition
        (20_200, 20_900), // first wrap (20,480)
        (40_700, 41_400), // second wrap (40,960)
    ];
    let mut air_slot = 0u64;
    for (start, end) in windows {
        while air_slot < start {
            let _ = gnb.step(); // cell keeps running; sniffer not listening
            air_slot += 1;
        }
        scope.fast_forward(start);
        while air_slot < end {
            let out = gnb.step();
            air_slot += 1;
            if scope.cell.mib.is_some() {
                assert_eq!(
                    scope.derived_sfn(),
                    out.sfn,
                    "derived SFN diverged at air slot {}",
                    out.slot
                );
                checked += 1;
            }
            let cap = obs.capture(&out, out.slot as f64 * slot_s);
            scope.process_capture(&cap);
        }
    }
    assert!(checked > 1200, "wrap windows actually exercised: {checked}");
    assert_eq!(
        scope.derived_sfn(),
        gnb.clock().sfn,
        "still in step at the end"
    );
}
