//! The virtual USRP: applies the sniffer's receive channel (placement SNR,
//! optional fading) and hardware effects (noise, AGC) to the gNB's
//! transmitted slot waveform, producing what NR-Scope's DSP actually sees.
//!
//! The noise is most of what an IQ slot costs to synthesise. Per slot,
//! `receive` draws every sample's two uniforms from the serial generator
//! into buffers it keeps, then turns them into Gaussian noise in one
//! vectorised pass ([`crate::noise::add_noise`]).
//!
//! The noise power is set from *each slot's own* mean transmit power
//! (`sig_power / 10^(snr/10)`), and a silent slot gets a fixed `1e-6`. So
//! the floor follows cell load: "30 dB" means 30 dB under that slot's
//! average power, and a PDCCH RE's SNR depends on how much PDSCH shares its
//! slot. A real front end's floor does not depend on whether the gNB
//! transmits; changing that moves decisions (ROADMAP items 3 and 5).

use crate::agc::Agc;
use crate::noise::{add_noise, AddNoise};
use nr_phy::channel::JakesFader;
use nr_phy::complex::{mean_power, Cf32};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f32::consts::TAU;

/// One received slot with its receive-quality metadata.
#[derive(Debug, Clone)]
pub struct RxSlot {
    /// Post-AGC IQ samples.
    pub samples: Vec<Cf32>,
    /// True (pre-AGC) receive SNR in dB — ground truth for coverage plots.
    pub true_snr_db: f64,
}

/// Cumulative front-end counters (what a real driver exports alongside
/// overflow flags) — feeds the pipeline metrics layer's radio counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RadioStats {
    /// Slots passed through `receive`.
    pub slots_received: u64,
    /// IQ samples produced across all slots.
    pub samples_processed: u64,
    /// AGC transients injected via `kick_agc_db`.
    pub agc_kicks: u64,
    /// Interference bursts injected via `inject_snr_penalty_db`.
    pub snr_penalties: u64,
}

/// The sniffer's radio front end.
pub struct VirtualUsrp {
    /// Mean receive SNR at the sniffer's position, dB.
    snr_db: f64,
    /// Optional slow fading on the sniffer's own path.
    fader: Option<JakesFader>,
    agc: Agc,
    rng: StdRng,
    /// One-shot SNR penalty (dB) consumed by the next `receive` — how
    /// scheduled interference bursts reach the front end.
    pending_penalty_db: f64,
    stats: RadioStats,
    /// The last slot's noise uniforms, kept for their capacity.
    u1: Vec<f32>,
    u2: Vec<f32>,
}

impl VirtualUsrp {
    /// Front end at a position with mean `snr_db`; `doppler_hz > 0` adds
    /// fading on the sniffer path (e.g. people moving through the office).
    pub fn new(snr_db: f64, doppler_hz: f64, seed: u64) -> VirtualUsrp {
        VirtualUsrp {
            snr_db,
            fader: (doppler_hz > 0.0).then(|| JakesFader::new(1.0, doppler_hz, seed)),
            agc: Agc::new(1.0),
            rng: StdRng::seed_from_u64(seed ^ 0xB5),
            pending_penalty_db: 0.0,
            stats: RadioStats::default(),
            u1: Vec::new(),
            u2: Vec::new(),
        }
    }

    /// Mean configured SNR.
    pub fn snr_db(&self) -> f64 {
        self.snr_db
    }

    /// Cumulative front-end counters since construction.
    pub fn stats(&self) -> RadioStats {
        self.stats
    }

    /// Degrade only the next received slot by `db` (interference burst
    /// injection; see [`crate::ImpairmentSchedule`]).
    pub fn inject_snr_penalty_db(&mut self, db: f64) {
        self.pending_penalty_db += db;
        self.stats.snr_penalties += 1;
    }

    /// Kick the AGC gain by `db` (transient injection); it recovers under
    /// the loop's slew limit over the following slots.
    pub fn kick_agc_db(&mut self, db: f32) {
        self.agc.kick_db(db);
        self.stats.agc_kicks += 1;
    }

    /// Receive one slot transmitted as `tx` at absolute time `t` seconds.
    pub fn receive(&mut self, tx: &[Cf32], t: f64) -> RxSlot {
        self.receive_with(tx, t, add_noise)
    }

    /// [`VirtualUsrp::receive`] with `noise` in place of [`add_noise`] over
    /// the same uniform draws: how `tests/golden.rs` holds the kernel
    /// against libm's formula (`nr_phy::oracle::add_noise_libm`).
    #[doc(hidden)]
    pub fn receive_with(&mut self, tx: &[Cf32], t: f64, noise: AddNoise) -> RxSlot {
        // Instantaneous channel: mean SNR plus fading variation.
        let fade_db = match &self.fader {
            Some(f) => 10.0 * (f.gain_at(t).norm_sqr().max(1e-6) as f64).log10(),
            None => 0.0,
        };
        let inst_snr_db = self.snr_db + fade_db - std::mem::take(&mut self.pending_penalty_db);
        let sig_power = mean_power(tx) as f64;
        // Noise power that yields the instantaneous SNR against the actual
        // transmitted signal power.
        let noise_power = if sig_power > 0.0 {
            sig_power / 10f64.powf(inst_snr_db / 10.0)
        } else {
            1e-6
        };
        let sigma = (noise_power / 2.0).sqrt() as f32;
        // The generator is serial: draw the slot's uniforms first, `u1`
        // then `u2` per sample, so the formula runs as one loop.
        let (u1, u2) = (&mut self.u1, &mut self.u2);
        u1.resize(tx.len(), 0.0);
        u2.resize(tx.len(), 0.0);
        for (u1, u2) in u1.iter_mut().zip(u2.iter_mut()) {
            *u1 = self.rng.gen_range(f32::EPSILON..1.0);
            *u2 = self.rng.gen_range(0.0..TAU);
        }
        let mut samples = vec![Cf32::ZERO; tx.len()];
        noise(tx, u1, u2, sigma, &mut samples);
        self.agc.process(&mut samples);
        self.stats.slots_received += 1;
        self.stats.samples_processed += samples.len() as u64;
        RxSlot {
            samples,
            true_snr_db: inst_snr_db,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx_slot(n: usize) -> Vec<Cf32> {
        (0..n).map(|i| Cf32::from_angle(i as f32 * 0.37)).collect()
    }

    #[test]
    fn high_snr_preserves_signal_shape() {
        let mut u = VirtualUsrp::new(40.0, 0.0, 1);
        let tx = tx_slot(2048);
        let rx = u.receive(&tx, 0.0);
        assert_eq!(rx.samples.len(), tx.len());
        // Correlation with the clean signal is near 1 at 40 dB.
        let dot: f32 = rx
            .samples
            .iter()
            .zip(&tx)
            .map(|(a, b)| (*a * b.conj()).re)
            .sum();
        let e_rx: f32 = rx.samples.iter().map(|v| v.norm_sqr()).sum();
        let e_tx: f32 = tx.iter().map(|v| v.norm_sqr()).sum();
        let rho = dot / (e_rx * e_tx).sqrt();
        assert!(rho > 0.99, "correlation {rho}");
    }

    #[test]
    fn measured_snr_matches_configuration() {
        let mut u = VirtualUsrp::new(10.0, 0.0, 2);
        let tx = tx_slot(60_000);
        // Disable AGC interference with the measurement by comparing the
        // noise directly: rx - gain·tx has the noise power.
        let rx = u.receive(&tx, 0.0);
        // Estimate gain from correlation.
        let dot = rx
            .samples
            .iter()
            .zip(&tx)
            .fold(Cf32::ZERO, |acc, (a, b)| acc + *a * b.conj());
        let e_tx: f32 = tx.iter().map(|v| v.norm_sqr()).sum();
        let g = dot / e_tx;
        let noise: f32 = rx
            .samples
            .iter()
            .zip(&tx)
            .map(|(a, b)| (*a - g * *b).norm_sqr())
            .sum::<f32>()
            / tx.len() as f32;
        let sig: f32 = tx.iter().map(|v| (g * *v).norm_sqr()).sum::<f32>() / tx.len() as f32;
        let snr_db = 10.0 * (sig / noise).log10();
        assert!((snr_db - 10.0).abs() < 1.0, "measured snr {snr_db}");
    }

    #[test]
    fn fading_front_end_varies_instantaneous_snr() {
        let mut u = VirtualUsrp::new(20.0, 8.0, 3);
        let tx = tx_slot(256);
        let snrs: Vec<f64> = (0..200)
            .map(|i| u.receive(&tx, i as f64 * 0.05).true_snr_db)
            .collect();
        let min = snrs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = snrs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 3.0, "fading varies SNR ({} dB)", max - min);
    }

    #[test]
    fn injected_penalty_hits_exactly_one_slot() {
        let mut u = VirtualUsrp::new(20.0, 0.0, 5);
        let tx = tx_slot(512);
        u.inject_snr_penalty_db(12.0);
        let hit = u.receive(&tx, 0.0);
        let clean = u.receive(&tx, 0.0005);
        assert_eq!(hit.true_snr_db, 8.0, "penalty applied");
        assert_eq!(clean.true_snr_db, 20.0, "penalty consumed");
    }

    #[test]
    fn stats_count_slots_samples_and_injections() {
        let mut u = VirtualUsrp::new(20.0, 0.0, 6);
        let tx = tx_slot(256);
        u.kick_agc_db(3.0);
        u.inject_snr_penalty_db(5.0);
        u.receive(&tx, 0.0);
        u.receive(&tx, 0.0005);
        let s = u.stats();
        assert_eq!(s.slots_received, 2);
        assert_eq!(s.samples_processed, 512);
        assert_eq!(s.agc_kicks, 1);
        assert_eq!(s.snr_penalties, 1);
    }

    #[test]
    fn silent_input_produces_noise_only() {
        let mut u = VirtualUsrp::new(20.0, 0.0, 4);
        let rx = u.receive(&vec![Cf32::ZERO; 512], 0.0);
        assert!(mean_power(&rx.samples) > 0.0, "noise floor present");
    }
}
