//! clockdrift — clock-domain robustness gate over the timing-recovery loop.
//!
//! Runs the closed-loop sniffer (observer oscillator model → clock
//! observables → PI recovery loop → correction command) through three
//! phases and freezes the results into `BENCH_clockdrift.json`.
//!
//! The gate exits non-zero unless:
//!   * zero panics escaped any phase;
//!   * under ±20 ppm oscillator error (static offset + temperature walk)
//!     the loop ends `Locked`, the drift estimate lands near truth, and
//!     decoded-DCI parity against an ideal-clock baseline stays within
//!     `nrscope_analytics::PARITY_BAND`;
//!   * a 2 µs timing step is reacquired within a bounded excursion
//!     (SSB-snap + relock streak — hundreds of slots at most, far inside
//!     the loop's `max_reacquire_slots` giving-up horizon);
//!   * a simulated `kill -9` straddling an SFN wrap resumes and replays
//!     exactly: the continued session equals the uninterrupted reference
//!     and the derived SFN matches the air-truth SFN on every slot
//!     through the mod-1024 wrap.
//!
//! `--short` (or `NRSCOPE_SECONDS`) shrinks the drift/step phases for CI
//! smoke tests; the wrap phase always runs the full 20,480-slot frame
//! cycle (the skip windows keep it cheap).

use gnb_sim::{CellConfig, Gnb};
use nr_mac::RoundRobin;
use nr_phy::channel::ChannelProfile;
use nrscope::observe::{Capture, Observer};
use nrscope::{
    ClockLock, ClockObservable, ClockRecoveryConfig, NrScope, PersistConfig, PersistentSession,
    ScopeConfig,
};
use nrscope_analytics::{parity_ok, PARITY_BAND};
use nrscope_bench::gate::{Gate, Mode, Phase};
use nrscope_bench::scratch_dir;
use serde::Serialize;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use ue_sim::traffic::{TrafficKind, TrafficSource};
use ue_sim::{MobilityScenario, SimUe};

/// Reacquisition bound for the 2 µs step: next SSB (≤ 40 slots) plus the
/// coarse pull-in and the relock streak, with margin. Far inside the
/// loop's own `max_reacquire_slots` (1000) giving-up horizon.
const REACQUIRE_BOUND_SLOTS: u64 = 300;

fn cbr_ue(id: u64, seed: u64) -> SimUe {
    SimUe::new(
        id,
        ChannelProfile::Awgn,
        MobilityScenario::Static,
        TrafficSource::new(
            TrafficKind::Cbr {
                rate_bps: 2e6,
                packet_bytes: 1200,
            },
            seed * 1000 + id,
        ),
        0.0,
        600.0,
        seed * 7777 + id,
    )
}

fn decoded_dcis(scope: &NrScope) -> u64 {
    let s = &scope.stats;
    s.si_dcis + s.ra_dcis + s.tc_dcis + s.dl_dcis + s.ul_dcis
}

/// One phase's columns in the artefact.
#[derive(Serialize, Default)]
struct Cols {
    slots: u64,
    slots_per_sec: f64,
    lock: &'static str,
    drift_ppb: i64,
    timing_slips: u64,
}

impl Cols {
    /// `slots` processed in `wall` seconds, clock state read from `scope`.
    fn of(slots: u64, wall: f64, scope: &NrScope) -> Cols {
        Cols {
            slots,
            slots_per_sec: slots as f64 / wall,
            lock: scope.clock_lock().map_or("ideal", ClockLock::name),
            drift_ppb: scope.clock_drift_ppb(),
            timing_slips: scope.stats.timing_slips,
        }
    }
}

/// One closed-loop run: UEs attach at `attach_at` (after the pull-in
/// window, so both the clocked run and the baseline track the same RNTI
/// population), `ppm` = 0 means ideal clock.
fn drive_parity_run(cell: &CellConfig, slots: u64, attach_at: u64, ppm: f64) -> NrScope {
    let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), 11);
    let slot_s = cell.slot_s();
    let mut obs = Observer::new(cell, 35.0, false, 5);
    if ppm != 0.0 {
        obs.set_clock(
            cell.clock_model(3)
                .with_static_ppm(ppm)
                .with_random_walk(0.02),
        );
    }
    let mut scope = NrScope::new(ScopeConfig::default(), Some(cell.pci));
    for s in 0..slots {
        if s == attach_at {
            gnb.ue_arrives(cbr_ue(1, 11));
            gnb.ue_arrives(cbr_ue(2, 11));
        }
        let out = gnb.step();
        scope.process_observer_slot(&mut obs, &out, s as f64 * slot_s);
    }
    scope
}

/// ±20 ppm oscillator: lock held, drift estimate near truth, decoded-DCI
/// parity with the ideal-clock baseline inside the band.
fn drift_phase(cell: &CellConfig, slots: u64) -> Phase<Cols> {
    let attach_at = 800.min(slots / 4);
    let t0 = Instant::now();
    let base = drive_parity_run(cell, slots, attach_at, 0.0);
    let plus = drive_parity_run(cell, slots, attach_at, 20.0);
    let minus = drive_parity_run(cell, slots, attach_at, -20.0);
    let wall = t0.elapsed().as_secs_f64();

    let base_dcis = decoded_dcis(&base).max(1);
    let ratio_plus = decoded_dcis(&plus) as f64 / base_dcis as f64;
    let ratio_minus = decoded_dcis(&minus) as f64 / base_dcis as f64;
    // Byte parity: the per-UE bit estimates of the corrected runs
    // against the ideal-clock baseline, summed over its tracked RNTIs.
    let bits = |s: &NrScope| -> u64 {
        base.tracked_rntis()
            .iter()
            .map(|&r| s.estimated_bits(r, 0..slots))
            .sum::<u64>()
            .max(1)
    };
    let byte_plus = bits(&plus) as f64 / bits(&base) as f64;
    let byte_minus = bits(&minus) as f64 / bits(&base) as f64;
    let ok = plus.clock_lock() == Some(ClockLock::Locked)
        && minus.clock_lock() == Some(ClockLock::Locked)
        && (plus.clock_drift_ppb() - 20_000).abs() < 5_000
        && (minus.clock_drift_ppb() + 20_000).abs() < 5_000
        && [ratio_plus, ratio_minus, byte_plus, byte_minus]
            .into_iter()
            .all(parity_ok)
        && plus.stats.timing_slips > 0;
    let detail = format!(
        "dci_ratio_plus={ratio_plus:.3} dci_ratio_minus={ratio_minus:.3} \
         byte_ratio_plus={byte_plus:.3} byte_ratio_minus={byte_minus:.3} \
         drift_plus={}ppb drift_minus={}ppb band={PARITY_BAND:?}",
        plus.clock_drift_ppb(),
        minus.clock_drift_ppb()
    );
    Phase::new("drift_20ppm", ok, detail, Cols::of(slots * 3, wall, &plus))
}

/// A 2 µs timing step mid-run: the loop formally drops out of `Locked`
/// (short pulling horizon), reacquires through the SSB path, and the
/// excursion stays inside the documented bound.
fn step_phase(cell: &CellConfig, slots: u64) -> Phase<Cols> {
    let step_at = (slots / 2) | 1; // odd ⇒ never an SSB slot (those are % 40 == 0)
    let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), 13);
    gnb.ue_arrives(cbr_ue(1, 13));
    gnb.ue_arrives(cbr_ue(2, 13));
    let slot_s = cell.slot_s();
    let mut obs = Observer::new(cell, 35.0, false, 5);
    obs.set_clock(
        cell.clock_model(7)
            .with_static_ppm(5.0)
            .with_step(step_at, 2.0),
    );
    let mut scope = NrScope::new(
        ScopeConfig {
            clock: ClockRecoveryConfig {
                // Short pulling horizon: the excursion is visible as a
                // formal lock drop instead of hiding in the hysteresis.
                pulling_after_slots: 10,
                ..ClockRecoveryConfig::default()
            },
            ..ScopeConfig::default()
        },
        Some(cell.pci),
    );
    let t0 = Instant::now();
    // The loop rides its hysteresis for a few slots after the step, so
    // the excursion is drop → relock, not step → first-Locked-slot.
    let mut dropped_at = None;
    let mut relocked_at = None;
    for s in 0..slots {
        let out = gnb.step();
        scope.process_observer_slot(&mut obs, &out, s as f64 * slot_s);
        if s >= step_at && relocked_at.is_none() {
            match scope.clock_lock() {
                Some(ClockLock::Locked) if dropped_at.is_some() => relocked_at = Some(s),
                Some(ClockLock::Locked) | None => {}
                _ => dropped_at = dropped_at.or(Some(s)),
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let excursion = relocked_at.map(|s| s - step_at);
    let ok = scope.stats.clock_lock_losses >= 1
        && excursion.is_some_and(|e| e <= REACQUIRE_BOUND_SLOTS)
        && scope.clock_lock() == Some(ClockLock::Locked);
    let detail = format!(
        "step_at={step_at} excursion={excursion:?} bound={REACQUIRE_BOUND_SLOTS} \
         lock_losses={} steps={}",
        scope.stats.clock_lock_losses, scope.stats.clock_steps
    );
    Phase::new(
        "step_2us_reacquire",
        ok,
        detail,
        Cols::of(slots, wall, &scope),
    )
}

/// Kill -9 straddling the SFN wrap: a persistent session is leaked (no
/// drop-time drain) a hundred slots before the mod-1024 wrap, resumed,
/// and must replay + continue exactly — equal to an uninterrupted
/// reference, with the derived SFN matching air truth on every slot.
fn wrap_phase(cell: &CellConfig) -> Phase<Cols> {
    const WRAP: u64 = 20_480; // 1024 frames × 20 slots at µ=1
    const SKIP_TO: u64 = 20_200;
    const KILL_AT: u64 = 20_380;
    const END: u64 = 20_900;
    let slot_s = cell.slot_s();
    let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), 17);
    gnb.ue_arrives(cbr_ue(1, 17));
    let mut obs = Observer::new(cell, 35.0, false, 9);
    obs.set_clock(
        cell.clock_model(19)
            .with_static_ppm(10.0)
            .with_random_walk(0.02),
    );

    // Tape the two processed windows (anchor acquisition, then the wrap
    // straddle) with a reference scope closing the recovery loop; the
    // stretch in between is skipped — the cell keeps running, the
    // sniffer fast-forwards, exactly the volatile-shard adoption story.
    let mut reference = NrScope::new(ScopeConfig::default(), Some(cell.pci));
    let mut tape: Vec<(u64, u32, Capture, Option<ClockObservable>)> = Vec::new();
    let t0 = Instant::now();
    let mut air_slot = 0u64;
    for (start, end) in [(0u64, 400u64), (SKIP_TO, END)] {
        while air_slot < start {
            let _ = gnb.step();
            air_slot += 1;
        }
        if start > 0 {
            reference.fast_forward(start);
        }
        while air_slot < end {
            let out = gnb.step();
            air_slot += 1;
            let cap = obs.capture(&out, out.slot as f64 * slot_s);
            let cobs = obs.take_clock_observable();
            if let Some(o) = &cobs {
                reference.note_clock_observable(o);
                let (timing_us, cfo_hz) = reference.clock_command();
                obs.apply_clock_correction(timing_us, cfo_hz);
            }
            reference.process_capture(&cap);
            tape.push((out.slot, out.sfn, cap, cobs));
        }
    }

    let dir = scratch_dir("clockdrift", "wrap");
    let cfg = || PersistConfig {
        checkpoint_every_slots: 512,
        ..PersistConfig::new(&dir)
    };
    let replay = |session: &mut PersistentSession,
                  tape: &[(u64, u32, Capture, Option<ClockObservable>)]| {
        let mut sfn_mismatches = 0u64;
        for (slot, sfn, cap, cobs) in tape {
            if session.scope().slot_watermark() < *slot && *slot >= SKIP_TO {
                // Crossing into the second window: skip like the taping
                // run did (the fast-forward itself is re-derived from the
                // tape position, not trusted to survive the kill).
                session.scope_mut().fast_forward(SKIP_TO);
            }
            if let Some(o) = cobs {
                session.scope_mut().note_clock_observable(o);
            }
            if session.scope().cell.mib.is_some() && session.scope().derived_sfn() != *sfn {
                sfn_mismatches += 1;
            }
            session.process_capture(cap);
        }
        sfn_mismatches
    };

    let kill_idx = tape.iter().position(|(s, ..)| *s == KILL_AT).unwrap();
    let (mut session, _) = PersistentSession::open(cfg(), ScopeConfig::default(), Some(cell.pci))
        .expect("open wrap session");
    let mut mismatches = replay(&mut session, &tape[..kill_idx]);
    // kill -9: leaked, no finalize, no drop-time drain.
    std::mem::forget(session);
    std::thread::sleep(Duration::from_millis(50));

    let (mut session, report) =
        PersistentSession::open(cfg(), ScopeConfig::default(), Some(cell.pci))
            .expect("reopen wrap session");
    let resumed = report.resumed_slot;
    let resume_idx = tape
        .iter()
        .position(|(s, ..)| *s == resumed)
        .unwrap_or(kill_idx);
    mismatches += replay(&mut session, &tape[resume_idx..]);
    let wall = t0.elapsed().as_secs_f64();

    let continued = session.scope().session_state();
    let uninterrupted = reference.session_state();
    let exact = continued.slot == uninterrupted.slot
        && serde_json::to_string(&continued.ues).unwrap()
            == serde_json::to_string(&uninterrupted.ues).unwrap()
        && continued.micro.tracker_aux == uninterrupted.micro.tracker_aux
        && continued.micro.clock == uninterrupted.micro.clock
        && continued.micro.stats.dl_dcis == uninterrupted.micro.stats.dl_dcis
        && continued.micro.stats.timing_slips == uninterrupted.micro.stats.timing_slips;
    let wrapped = reference.derived_sfn() < 100; // 20,900 slots = SFN 21 after wrap
    let ok = report.resumed && resumed <= KILL_AT && mismatches == 0 && exact && wrapped;
    let detail = format!(
        "resumed={resumed} kill_at={KILL_AT} wrap_slot={WRAP} sfn_mismatches={mismatches} \
         exact_replay={exact} final_sfn={}",
        reference.derived_sfn()
    );
    session.finalize().expect("finalize wrap session");
    let _ = std::fs::remove_dir_all(&dir);
    let cols = Cols::of(tape.len() as u64, wall, &reference);
    Phase::new("sfn_wrap_kill9", ok, detail, cols)
}

/// The artefact's header fields.
#[derive(Serialize)]
struct Header {
    phase_slots: u64,
    parity_band: [f64; 2],
    reacquire_bound_slots: u64,
}

fn main() -> ExitCode {
    let mut gate = Gate::new("clockdrift", "phases", Mode::from_env());
    let cell = CellConfig::srsran_n41();
    // Enough room for CFO pull-in + attach + a meaningful parity window.
    let phase_slots = gate.mode.slots(1.5, 4.0, cell.slot_s(), 3_000);
    gate.run("drift_20ppm", || drift_phase(&cell, phase_slots));
    gate.run("step_2us_reacquire", || step_phase(&cell, phase_slots));
    gate.run("sfn_wrap_kill9", || wrap_phase(&cell));
    gate.finish(&Header {
        phase_slots,
        parity_band: PARITY_BAND,
        reacquire_bound_slots: REACQUIRE_BOUND_SLOTS,
    })
}
