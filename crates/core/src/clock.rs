//! Closed-loop timing/frequency recovery for the sniffer's clock domain.
//!
//! The sniffer's oscillator is not the gNB's (the paper resamples TwinRX
//! streams so "the FFT bins fit onto the subcarriers", §4). This module is
//! the receive-side half of that reality: per-slot residual timing and
//! frequency errors — estimated from SSB/DMRS correlation by the observer
//! — feed a second-order PI loop (a digital PLL) that commands fractional
//! resampler corrections, integer sample slips, and a CFO correction back
//! to the front end.
//!
//! Lock state forms its own ladder, `Locked → Pulling → Unlocked`,
//! composed with (not merged into) the sync-health machine: a slot that
//! decodes nothing because the clock is being pulled in must not be
//! misread as a cell outage, so [`crate::scope::NrScope`] suppresses
//! unhealthy-slot accounting while the loop is out of lock — bounded by
//! [`ClockRecoveryConfig::max_reacquire_slots`] so a clock that never
//! relocks cannot mask a real outage forever.

use serde::{Deserialize, Serialize};

/// Lock ladder of the timing-recovery loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ClockLock {
    /// Tracking: fine measurements land inside the lock window.
    Locked,
    /// Acquiring or re-acquiring: measurements arrive (often coarse/SSB)
    /// but the residual is still being slewed toward the lock window.
    #[default]
    Pulling,
    /// No usable clock measurement for longer than the unlock horizon.
    Unlocked,
}

impl ClockLock {
    /// Rung index for the `clock_lock_state` gauge (0 = Locked).
    pub fn index(self) -> u64 {
        match self {
            ClockLock::Locked => 0,
            ClockLock::Pulling => 1,
            ClockLock::Unlocked => 2,
        }
    }

    /// Stable snake_case name (the fleet rollup's `clock_lock` column,
    /// where a scope with no clock model reads `ideal`).
    pub fn name(self) -> &'static str {
        match self {
            ClockLock::Locked => "locked",
            ClockLock::Pulling => "pulling",
            ClockLock::Unlocked => "unlocked",
        }
    }
}

/// Proportional gain of the PI loop (per measurement).
const KP: f64 = 0.3;
/// Integral gain: how fast the frequency estimate follows the residual.
/// Sets pull-in speed vs. measurement-noise amplification.
const KI: f64 = 0.05;
/// A measurement with |residual| at or below this (µs) counts toward
/// lock; a coarse (SSB) residual beyond 4× it is snapped, not slewed.
const LOCK_WINDOW_US: f64 = 0.5;
/// Consecutive in-window measurements required to (re-)enter `Locked`.
const LOCK_AFTER_MEAS: u32 = 8;
/// Slots without an in-window measurement before the loop declares
/// `Unlocked`: five SSB periods (40 slots each on the paper's cells).
const UNLOCK_AFTER_SLOTS: u64 = 200;

/// Timing-recovery loop knobs (`clock.*` in the config surface). The
/// loop gains and lock thresholds are calibrated constants of this
/// module; the sample rate comes from the cell (see
/// [`ClockRecovery::on_slot`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClockRecoveryConfig {
    /// Slots without an in-window measurement before `Locked` degrades to
    /// `Pulling` (and a lock loss is counted).
    pub pulling_after_slots: u64,
    /// Escape hatch for the sync composition: once out of `Locked` for
    /// this many slots, unhealthy-slot accounting resumes even though the
    /// clock is still reacquiring — a clock that never relocks must not
    /// mask a real outage. This is also the documented bound on
    /// reacquisition after a step: the loop either relocks within this
    /// many slots or the sync machine takes over.
    pub max_reacquire_slots: u64,
}

impl Default for ClockRecoveryConfig {
    fn default() -> Self {
        ClockRecoveryConfig {
            // SSB lands every 40 slots on the paper's cells (20 ms); give
            // two periods before degrading.
            pulling_after_slots: 80,
            // ≈ 0.5 s at µ=1: generous for a 2 µs step (measured
            // reacquisition is tens of slots), tight enough that a dead
            // clock hands control back to the sync machine quickly.
            max_reacquire_slots: 1000,
        }
    }
}

/// One slot's clock evidence from the observer: what the receiver's
/// correlators measured *after* the commanded correction was applied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ClockObservable {
    /// Residual timing error (µs) from DMRS/SSB correlation, if this
    /// slot carried something to correlate against and the residual fell
    /// inside the estimator's range.
    pub timing_us: Option<f64>,
    /// Residual carrier-frequency error (Hz), same availability rules.
    pub cfo_hz: Option<f64>,
    /// The measurement came from an SSB (coarse, wide pull-in range)
    /// rather than per-slot DMRS (fine).
    pub coarse: bool,
    /// The front end reported an overrun gap of this many µs at this
    /// slot (0 = clean). Fed forward: the USRP knows how much it lost.
    pub gap_us: f64,
}

/// Everything the loop must carry across checkpoint/restart (serialised
/// inside the session snapshot and journal micro-state).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct ClockRecoveryState {
    /// Lock rung.
    pub lock: ClockLock,
    /// Estimated clock drift in µs of timing per slot (≡ ppm × slot
    /// seconds): the integral term of the PI loop.
    pub freq_hat_us_per_slot: f64,
    /// Total commanded timing correction (µs).
    pub correction_us: f64,
    /// Total commanded CFO correction (Hz).
    pub correction_cfo_hz: f64,
    /// Consecutive in-window measurements.
    pub good_streak: u32,
    /// Slots since the last in-window measurement.
    pub slots_since_good: u64,
    /// Slots spent outside `Locked` in the current excursion (0 while
    /// locked).
    pub reacquire_slots: u64,
    /// Lifetime integer sample slips commanded.
    pub slips: u64,
    /// Lifetime lock losses (departures from `Locked`).
    pub lock_losses: u64,
    /// Lifetime step events absorbed (feed-forward gaps + coarse snaps
    /// while previously locked).
    pub steps: u64,
    /// Fractional sample remainder not yet big enough to slip (samples).
    pub slip_frac: f64,
}

/// Loop events of one slot, for metrics/notes at the integration layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClockEvents {
    /// The loop left `Locked` this slot.
    pub lost_lock: bool,
    /// The loop (re-)entered `Locked` this slot; the value is the length
    /// of the excursion in slots (0 for the very first acquisition).
    pub locked: Option<u64>,
    /// Integer sample slips commanded this slot (absolute count).
    pub slipped: u64,
    /// A step-like discontinuity was absorbed this slot (gap feed-forward
    /// or an out-of-fine-range coarse snap).
    pub step: bool,
}

/// The closed loop: a second-order digital PLL over observer residuals.
#[derive(Debug, Clone)]
pub struct ClockRecovery {
    cfg: ClockRecoveryConfig,
    st: ClockRecoveryState,
}

impl ClockRecovery {
    /// A fresh loop in `Pulling` (acquisition) with zero estimates.
    pub fn new(cfg: ClockRecoveryConfig) -> ClockRecovery {
        ClockRecovery {
            cfg,
            st: ClockRecoveryState::default(),
        }
    }

    /// Restore a loop from checkpointed state.
    pub fn from_state(cfg: ClockRecoveryConfig, st: ClockRecoveryState) -> ClockRecovery {
        ClockRecovery { cfg, st }
    }

    /// The persistable loop state.
    pub fn state(&self) -> ClockRecoveryState {
        self.st
    }

    /// Current lock rung.
    pub fn lock(&self) -> ClockLock {
        self.st.lock
    }

    /// Signed drift estimate in parts-per-billion, derived from the
    /// loop's integral term (`us_per_slot / slot_s` µs/s ≡ ppm).
    pub fn drift_ppb(&self, slot_s: f64) -> i64 {
        (self.st.freq_hat_us_per_slot / slot_s * 1000.0).round() as i64
    }

    /// Total commanded timing correction (µs) — the front end subtracts
    /// this from the raw air timing.
    pub fn correction_us(&self) -> f64 {
        self.st.correction_us
    }

    /// Total commanded CFO correction (Hz).
    pub fn correction_cfo_hz(&self) -> f64 {
        self.st.correction_cfo_hz
    }

    /// Whether sync-health accounting should treat decode silence as
    /// potentially clock-induced: true while the loop is out of lock but
    /// still inside its bounded reacquisition window.
    pub fn masks_sync(&self) -> bool {
        self.st.lock != ClockLock::Locked && self.st.reacquire_slots < self.cfg.max_reacquire_slots
    }

    /// Advance the loop by one slot of evidence. `sample_rate_hz` is the
    /// cell's own front-end rate (FFT size × SCS), against which commanded
    /// corrections are quantised into integer slips. Returns the slot's
    /// events for the metrics layer.
    pub fn on_slot(&mut self, obs: &ClockObservable, sample_rate_hz: f64) -> ClockEvents {
        let mut ev = ClockEvents::default();
        let was_locked = self.st.lock == ClockLock::Locked;
        let corr_before = self.st.correction_us;

        // Overrun feed-forward: the USRP reports how many samples it
        // dropped, so the whole gap is corrected immediately — a timing
        // step the loop never has to hunt for.
        if obs.gap_us != 0.0 {
            self.st.correction_us += obs.gap_us;
            self.st.steps += 1;
            ev.step = true;
        }

        let mut good = false;
        if let Some(y) = obs.timing_us {
            if obs.coarse && y.abs() > 4.0 * LOCK_WINDOW_US {
                // Coarse SSB snap, far outside the fine window: take the
                // whole residual at once (PSS correlation is unambiguous
                // over its range) instead of slewing through it. While
                // locked this is a step discontinuity worth counting.
                self.st.correction_us += y;
                if was_locked {
                    self.st.steps += 1;
                    ev.step = true;
                }
            } else {
                // PI update (second-order DPLL): the integral term learns
                // the drift rate, the proportional term closes the
                // remaining phase error.
                self.st.freq_hat_us_per_slot += KI * y;
                self.st.correction_us += KP * y;
            }
            good = y.abs() <= LOCK_WINDOW_US;
        }
        if let Some(f) = obs.cfo_hz {
            // First-order on frequency: CFO needs no integrator of its
            // own (the timing integral already models the rate).
            self.st.correction_cfo_hz += 0.5 * f;
        }
        // Between measurements the integral term flywheels the
        // correction forward at the learned drift rate.
        self.st.correction_us += self.st.freq_hat_us_per_slot;

        // Integer-slip accounting: whole-sample moves of the commanded
        // correction are executed as resampler slips, the remainder as
        // fractional phase.
        let sample_us = 1e6 / sample_rate_hz;
        self.st.slip_frac += (self.st.correction_us - corr_before) / sample_us;
        let whole = self.st.slip_frac.trunc();
        if whole != 0.0 {
            self.st.slip_frac -= whole;
            let n = whole.abs() as u64;
            self.st.slips += n;
            ev.slipped = n;
        }

        // Lock ladder. Slots without any measurement age the horizon but
        // do not break the streak — measurement cadence is set by the
        // cell's traffic and SSB period, not by the loop.
        if good {
            self.st.good_streak += 1;
            self.st.slots_since_good = 0;
        } else {
            if obs.timing_us.is_some() {
                self.st.good_streak = 0;
            }
            self.st.slots_since_good += 1;
        }
        // Entering `Locked` takes a streak ending in a *fresh* good
        // measurement; staying `Locked` rides the hysteresis horizon.
        let next = if (good && self.st.good_streak >= LOCK_AFTER_MEAS)
            || (was_locked && self.st.slots_since_good < self.cfg.pulling_after_slots)
        {
            ClockLock::Locked
        } else if self.st.slots_since_good >= UNLOCK_AFTER_SLOTS {
            // A full starvation horizon also voids the accumulated
            // streak: relocking needs fresh consecutive evidence.
            self.st.good_streak = 0;
            ClockLock::Unlocked
        } else {
            ClockLock::Pulling
        };
        if was_locked && next != ClockLock::Locked {
            self.st.lock_losses += 1;
            ev.lost_lock = true;
        }
        if next == ClockLock::Locked {
            if !was_locked {
                ev.locked = Some(self.st.reacquire_slots);
            }
            self.st.reacquire_slots = 0;
        } else {
            self.st.reacquire_slots += 1;
        }
        self.st.lock = next;
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLOT_S: f64 = 5e-4;
    /// The 20 MHz µ=1 cells: FFT 1024 × 30 kHz.
    const RATE_HZ: f64 = 30.72e6;

    /// Simulate a truth clock with constant drift and feed the loop its
    /// own residuals (truth − correction), the way the observer does.
    fn run_loop(
        rec: &mut ClockRecovery,
        drift_us_per_slot: f64,
        start_us: f64,
        slots: u64,
        meas_every: u64,
    ) -> Vec<f64> {
        let mut residuals = Vec::new();
        for s in 0..slots {
            let truth = start_us + drift_us_per_slot * s as f64;
            let resid = truth - rec.correction_us();
            let obs = if s % meas_every == 0 {
                ClockObservable {
                    timing_us: Some(resid),
                    cfo_hz: Some(0.0),
                    coarse: resid.abs() > 1.2,
                    gap_us: 0.0,
                }
            } else {
                ClockObservable::default()
            };
            rec.on_slot(&obs, RATE_HZ);
            residuals.push(resid);
        }
        residuals
    }

    #[test]
    fn acquires_and_tracks_constant_drift() {
        // 20 ppm at µ=1: 10 ns of timing per slot... in µs/slot: 0.01.
        let mut rec = ClockRecovery::new(ClockRecoveryConfig::default());
        let resid = run_loop(&mut rec, 0.01, 0.0, 2000, 1);
        assert_eq!(rec.lock(), ClockLock::Locked);
        // Steady-state residual well inside the lock window.
        let tail: f64 =
            resid[1500..].iter().map(|r| r.abs()).sum::<f64>() / (resid.len() - 1500) as f64;
        assert!(tail < 0.1, "steady-state residual {tail} µs");
        // The integral term learned the drift: 0.01 µs/slot = 20 ppm.
        let ppb = rec.drift_ppb(SLOT_S);
        assert!((ppb - 20_000).abs() < 2_000, "drift estimate {ppb} ppb");
    }

    #[test]
    fn sparse_measurements_still_lock() {
        let mut rec = ClockRecovery::new(ClockRecoveryConfig::default());
        run_loop(&mut rec, 0.005, 0.0, 4000, 10);
        assert_eq!(rec.lock(), ClockLock::Locked);
    }

    #[test]
    fn step_reacquires_within_bound() {
        // Faithful measurement availability: fine DMRS residuals only
        // inside ±CP/2 ≈ ±1.17 µs, coarse SSB snaps only every 40 slots.
        // A 2 µs step therefore blinds the fine estimator until the next
        // SSB pulls the loop back inside the fine range.
        let cfg = ClockRecoveryConfig::default();
        let mut rec = ClockRecovery::new(cfg);
        run_loop(&mut rec, 0.01, 0.0, 2000, 1);
        assert_eq!(rec.lock(), ClockLock::Locked);
        let base = rec.correction_us() + 0.01;
        let mut settled = None;
        for s in 0..cfg.max_reacquire_slots {
            let truth = base + 2.0 + 0.01 * s as f64; // step + drift
            let resid = truth - rec.correction_us();
            let obs = if s % 40 == 0 {
                ClockObservable {
                    timing_us: Some(resid),
                    cfo_hz: Some(0.0),
                    coarse: true,
                    gap_us: 0.0,
                }
            } else if resid.abs() <= 1.17 {
                ClockObservable {
                    timing_us: Some(resid),
                    cfo_hz: Some(0.0),
                    coarse: false,
                    gap_us: 0.0,
                }
            } else {
                ClockObservable::default()
            };
            let ev = rec.on_slot(&obs, RATE_HZ);
            if ev.step {
                assert!(obs.coarse, "the step registers via a coarse snap");
            }
            if settled.is_none() && resid.abs() <= LOCK_WINDOW_US && s > 0 {
                settled = Some(s);
            }
            if settled.is_some() && rec.lock() == ClockLock::Locked {
                break;
            }
        }
        // The documented bound: one SSB period to see the step plus a few
        // slots of PI settling — far inside `max_reacquire_slots`.
        let slots = settled.expect("residual re-entered the lock window");
        assert!(slots <= 60, "settled in {slots} slots");
        assert_eq!(rec.lock(), ClockLock::Locked);
        assert!(rec.state().steps >= 1, "step was counted");
    }

    #[test]
    fn gap_feed_forward_is_transparent() {
        let mut rec = ClockRecovery::new(ClockRecoveryConfig::default());
        run_loop(&mut rec, 0.0, 0.0, 500, 1);
        assert_eq!(rec.lock(), ClockLock::Locked);
        let before = rec.correction_us();
        let ev = rec.on_slot(
            &ClockObservable {
                timing_us: None,
                cfo_hz: None,
                coarse: false,
                gap_us: 30.0,
            },
            RATE_HZ,
        );
        assert!(ev.step);
        assert!((rec.correction_us() - before - 30.0).abs() < 1e-9);
        // Still locked: the gap was corrected, not hunted for.
        assert_eq!(rec.lock(), ClockLock::Locked);
    }

    #[test]
    fn starvation_unlocks_and_masks_sync_boundedly() {
        let cfg = ClockRecoveryConfig::default();
        let mut rec = ClockRecovery::new(cfg);
        run_loop(&mut rec, 0.0, 0.0, 500, 1);
        assert_eq!(rec.lock(), ClockLock::Locked);
        for s in 0..UNLOCK_AFTER_SLOTS + 1 {
            rec.on_slot(&ClockObservable::default(), RATE_HZ);
            if s + 1 == cfg.pulling_after_slots {
                assert_eq!(rec.lock(), ClockLock::Pulling, "degrades first");
            }
        }
        assert_eq!(rec.lock(), ClockLock::Unlocked);
        assert!(rec.masks_sync(), "young excursion masks sync accounting");
        for _ in 0..cfg.max_reacquire_slots {
            rec.on_slot(&ClockObservable::default(), RATE_HZ);
        }
        assert!(!rec.masks_sync(), "the mask is bounded");
    }

    #[test]
    fn slips_accumulate_with_commanded_correction() {
        let mut rec = ClockRecovery::new(ClockRecoveryConfig::default());
        // 1 µs of drift per slot ≈ 30.72 samples per slot.
        run_loop(&mut rec, 1.0, 0.0, 200, 1);
        let st = rec.state();
        assert!(st.slips > 1000, "slips {}", st.slips);
        assert!(st.slip_frac.abs() < 1.0);
    }

    /// Slips are counted in the cell's own samples: a 10 MHz µ=0 cell
    /// (FFT 1024 × 15 kHz = 15.36 MHz) has samples twice as long as a
    /// 20 MHz µ=1 cell, so the same commanded correction is half as many.
    #[test]
    fn slips_are_counted_in_the_cells_own_samples() {
        use nr_phy::numerology::Numerology::{Mu0, Mu1};
        let rate_mu0 = Mu0.sample_rate_hz(Mu0.fft_size(52));
        let rate_mu1 = Mu1.sample_rate_hz(Mu1.fft_size(51));
        assert_eq!((rate_mu0, rate_mu1), (15.36e6, RATE_HZ));
        let slips_at = |rate_hz: f64| {
            let mut rec = ClockRecovery::new(ClockRecoveryConfig::default());
            for _ in 0..100 {
                let gap = ClockObservable {
                    gap_us: 10.0,
                    ..ClockObservable::default()
                };
                rec.on_slot(&gap, rate_hz);
            }
            assert!((rec.correction_us() - 1000.0).abs() < 1e-6);
            rec.state().slips
        };
        // ±1: the last whole sample may still sit in `slip_frac`.
        assert!(slips_at(rate_mu1).abs_diff(30_720) <= 1);
        assert!(slips_at(rate_mu0).abs_diff(15_360) <= 1);
    }

    #[test]
    fn state_roundtrips_through_serde() {
        let mut rec = ClockRecovery::new(ClockRecoveryConfig::default());
        run_loop(&mut rec, 0.01, 0.3, 700, 3);
        let st = rec.state();
        let json = serde_json::to_string(&st).expect("serialises");
        let back: ClockRecoveryState = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, st);
        // A loop rebuilt from state continues identically.
        let mut a = ClockRecovery::from_state(ClockRecoveryConfig::default(), st);
        let mut b = ClockRecovery::from_state(ClockRecoveryConfig::default(), st);
        let obs = ClockObservable {
            timing_us: Some(0.2),
            cfo_hz: Some(40.0),
            coarse: false,
            gap_us: 0.0,
        };
        assert_eq!(a.on_slot(&obs, RATE_HZ), b.on_slot(&obs, RATE_HZ));
        assert_eq!(a.state(), b.state());
    }
}
