//! The observation boundary between the cell and the sniffer.
//!
//! At **message fidelity** the observer converts a gNB [`SlotOutput`] into
//! scrambled DCI codewords plus broadcast payload bits, applying a
//! calibrated corruption model driven by the sniffer's receive SNR: the
//! same quantities the IQ path produces, three orders of magnitude faster.
//!
//! At **IQ fidelity** the observer renders the slot to samples, passes them
//! through the virtual USRP (noise + AGC) and hands the sniffer raw IQ.
//!
//! The observer sits on the "air" side: it may read the gNB's ground truth
//! to *construct the waveform/codewords*, but everything it passes on is
//! exactly what a receiver could capture.

use gnb_sim::gnb::{PdschContent, SlotOutput};
use gnb_sim::iq::IqRenderer;
use gnb_sim::CellConfig;
use nr_phy::complex::Cf32;
use nr_phy::crc::dci_attach_crc;
use nr_phy::mcs::McsEntry;
use nr_phy::modulation::Modulation;
use nr_phy::pdcch::AggregationLevel;
use nr_phy::sequence::{pdcch_scrambling_cinit, scramble_in_place};
use nr_phy::types::{Rnti, RntiType};
pub use nr_radio::ImpairmentSchedule;
use nr_radio::{ClockModel, Resampler, VirtualUsrp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::clock::ClockObservable;
use crate::metrics::{Counter, Metrics, Stage};
use std::sync::Arc;

/// One candidate-shaped PDCCH capture at message fidelity: the scrambled
/// codeword bits as they sit on the candidate's REs (hard decisions).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObservedDci {
    /// Scrambled codeword bits (payload ‖ RNTI-scrambled CRC, then Gold
    /// scrambled). Corruption may have flipped bits.
    pub scrambled_bits: Vec<u8>,
    /// First CCE of the candidate.
    pub cce_start: usize,
    /// Aggregation level.
    pub level: AggregationLevel,
}

/// What the sniffer receives for one slot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ObservedSlot {
    /// Message fidelity: MIB bits (if SSB present), candidate codewords,
    /// and broadcast PDSCH payloads (SIB1 / RAR / RRC Setup) keyed by the
    /// scheduling RNTI.
    Message {
        /// PBCH payload bits when an SSB fell in this slot.
        mib_bits: Option<Vec<u8>>,
        /// Captured PDCCH candidates.
        dcis: Vec<ObservedDci>,
        /// Broadcast PDSCH payloads (content the sniffer can decode).
        pdsch: Vec<(Rnti, PdschPayload)>,
    },
    /// IQ fidelity: one slot of post-AGC samples.
    Iq {
        /// Received samples.
        samples: Vec<Cf32>,
        /// Broadcast PDSCH payloads. (PDSCH decoding itself is message-
        /// level even in IQ mode — see DESIGN.md: NR-Scope only ever
        /// decodes PDSCH for SIB1/RRC Setup, and we model that path's
        /// 1–2 ms cost, not its waveform.)
        pdsch: Vec<(Rnti, PdschPayload)>,
    },
}

/// Decodable broadcast payload bits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PdschPayload {
    /// SIB1 message bits.
    Sib1(Vec<u8>),
    /// Random access response carrying the TC-RNTI.
    Rar(Rnti),
    /// RRC Setup message bits.
    RrcSetup(Vec<u8>),
}

/// Why the observer produced no slot (what a real capture loop logs when
/// the ring buffer or the host falls behind).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// USRP overflow: the slot buffer was lost in hardware.
    Overflow,
    /// Host stall: the receive thread missed its deadline.
    Stall,
}

/// One observer tick under fault injection: either a captured slot or an
/// accounted-for loss. [`Observer::capture`] produces these; the plain
/// [`Observer::observe`] path never drops.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Capture {
    /// The slot was captured (possibly degraded or truncated).
    Slot(ObservedSlot),
    /// The slot was lost.
    Dropped(DropReason),
}

/// The observer: owns the sniffer-side channel model.
pub struct Observer {
    /// Sniffer receive SNR (dB) — placement-dependent (paper Fig 13).
    snr_db: f64,
    usrp: VirtualUsrp,
    renderer: Option<IqRenderer>,
    rng: StdRng,
    /// Scripted impairments (chaos testing); `None` = clean capture.
    schedule: Option<ImpairmentSchedule>,
    /// Observer-local slot counter driving the schedule.
    capture_slot: u64,
    /// Remaining slots of an in-progress host stall.
    stall_remaining: u32,
    /// Pipeline metrics (capture-stage latency, radio counters); the
    /// disabled registry until [`Observer::set_metrics`].
    metrics: Arc<Metrics>,
    /// Oscillator truth (drift/CFO injection); `None` = ideal clock.
    clock: Option<ClockModel>,
    /// Receiver-commanded total timing correction (µs). The recovery
    /// loop pushes its running total here; only the *residual* (truth
    /// minus correction) degrades capture.
    corr_timing_us: f64,
    /// Receiver-commanded total CFO correction (Hz).
    corr_cfo_hz: f64,
    /// Clock observable produced by the most recent capture.
    last_clock_obs: Option<ClockObservable>,
    /// IQ-path steering resampler (unity ratio, fractional-phase
    /// commands only) plus the timing already applied through it, in
    /// samples. Created lazily on the first skewed IQ slot.
    steer: Option<Resampler>,
    steer_applied: f64,
    /// Subcarrier spacing (Hz) — CFO residuals degrade in units of it.
    scs_hz: f64,
    /// Normal cyclic prefix (µs) — timing residuals degrade in units
    /// of it.
    cp_us: f64,
    /// Front-end sample period (µs) at this cell's sample rate.
    sample_period_us: f64,
}

impl Observer {
    /// Observer at a position with the given receive SNR.
    pub fn new(cfg: &CellConfig, snr_db: f64, iq: bool, seed: u64) -> Observer {
        let numerology = cfg.numerology;
        let scs_hz = numerology.scs_hz();
        let fft = numerology.fft_size(cfg.carrier_prbs);
        let sample_rate_hz = numerology.sample_rate_hz(fft);
        Observer {
            snr_db,
            usrp: VirtualUsrp::new(snr_db, 0.0, seed),
            renderer: iq.then(|| IqRenderer::new(cfg)),
            rng: StdRng::seed_from_u64(seed ^ 0x0B5E),
            schedule: None,
            capture_slot: 0,
            stall_remaining: 0,
            metrics: Arc::clone(Metrics::disabled()),
            clock: None,
            corr_timing_us: 0.0,
            corr_cfo_hz: 0.0,
            last_clock_obs: None,
            steer: None,
            steer_applied: 0.0,
            scs_hz,
            // Normal CP: 144 reference samples against a 2048-FFT symbol
            // whose useful part spans 1/SCS seconds.
            cp_us: 144.0 / 2048.0 * 1e6 / scs_hz,
            sample_period_us: 1e6 / sample_rate_hz,
        }
    }

    /// Sniffer SNR.
    pub fn snr_db(&self) -> f64 {
        self.snr_db
    }

    /// Record capture-stage latency and radio counters into a shared
    /// pipeline metrics registry.
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        self.metrics = metrics;
    }

    /// Script impairments into subsequent [`Observer::capture`] calls.
    pub fn set_impairments(&mut self, schedule: ImpairmentSchedule) {
        self.schedule = Some(schedule);
    }

    /// Attach a deterministic oscillator model. Every subsequent
    /// [`Observer::capture`] is skewed by the modelled timing offset and
    /// CFO (minus whatever correction the recovery loop has commanded),
    /// and per-slot clock observables become available through
    /// [`Observer::take_clock_observable`].
    pub fn set_clock(&mut self, model: ClockModel) {
        self.clock = Some(model);
    }

    /// Feedback path from the timing-recovery loop: the loop's current
    /// *total* corrections (µs of timing, Hz of CFO) — absolute running
    /// sums, not per-slot deltas.
    pub fn apply_clock_correction(&mut self, timing_us: f64, cfo_hz: f64) {
        self.corr_timing_us = timing_us;
        self.corr_cfo_hz = cfo_hz;
    }

    /// The clock observable generated by the most recent capture, if an
    /// oscillator model is attached. `timing_us`/`cfo_hz` are `None` on
    /// slots where no sync signal was decodable (starvation still ages
    /// the loop's health horizon).
    pub fn take_clock_observable(&mut self) -> Option<ClockObservable> {
        self.last_clock_obs.take()
    }

    /// Observe one slot under the impairment schedule. Equivalent to
    /// [`Observer::observe`] when no schedule is set (every slot clean).
    pub fn capture(&mut self, out: &SlotOutput, t: f64) -> Capture {
        let slot = self.capture_slot;
        self.capture_slot += 1;
        let imp = self
            .schedule
            .as_ref()
            .map(|s| s.verdict(slot))
            .unwrap_or_default();
        // Oscillator truth for this slot (the clock keeps drifting even
        // through stalls and drops — only capture stops, not time).
        let truth = self.clock.as_mut().map(|c| c.state_at(slot));
        self.last_clock_obs = truth.as_ref().map(|tr| ClockObservable {
            gap_us: tr.gap_us,
            ..ClockObservable::default()
        });
        if self.stall_remaining > 0 {
            self.stall_remaining -= 1;
            return Capture::Dropped(DropReason::Stall);
        }
        if imp.stall_slots > 0 {
            // The stall swallows this slot and the next `stall_slots - 1`.
            self.stall_remaining = imp.stall_slots - 1;
            return Capture::Dropped(DropReason::Stall);
        }
        if imp.drop {
            return Capture::Dropped(DropReason::Overflow);
        }
        if let Some(tr) = &truth {
            if tr.is_overrun() {
                // USRP overrun: samples fell on the floor. The driver
                // reports the gap size, so the recovery loop feeds the
                // slip forward without waiting for a measurement — the
                // observable above already carries `gap_us`.
                return Capture::Dropped(DropReason::Overflow);
            }
        }
        if imp.agc_kick_db != 0.0 {
            self.usrp.kick_agc_db(imp.agc_kick_db as f32);
            self.metrics.inc(Counter::AgcKicks);
        }
        if imp.snr_penalty_db != 0.0 {
            self.metrics.inc(Counter::InterferenceBursts);
            // IQ path: extra noise at the front end. Message path: the
            // corruption model runs at the degraded SNR for this slot.
            self.usrp.inject_snr_penalty_db(imp.snr_penalty_db);
        }
        // Residual clock error = oscillator truth minus the recovery
        // loop's commanded correction. Only the residual hurts.
        let (resid_us, resid_hz) = truth
            .as_ref()
            .map(|tr| {
                (
                    tr.timing_offset_us - self.corr_timing_us,
                    tr.cfo_hz - self.corr_cfo_hz,
                )
            })
            .unwrap_or((0.0, 0.0));
        // Message-fidelity stand-in for what residual timing/CFO does to
        // the demodulator: ICI grows with CFO as a fraction of the
        // subcarrier spacing, ISI with timing error as a fraction of the
        // CP. Quadratic in both (small residuals are nearly free).
        let clock_penalty_db = if truth.is_some() {
            let ti = (resid_us.abs() / self.cp_us).min(4.0);
            let fr = (resid_hz.abs() / self.scs_hz).min(4.0);
            12.0 * ti * ti + 18.0 * fr * fr
        } else {
            0.0
        };
        let clean_snr = self.snr_db;
        self.snr_db -= imp.snr_penalty_db + clock_penalty_db;
        let mut observed = self.observe(out, t);
        self.snr_db = clean_snr;
        if truth.is_some() {
            self.measure_clock(out, &imp, clock_penalty_db, resid_us, resid_hz);
            if let ObservedSlot::Iq { samples, .. } = &mut observed {
                self.apply_iq_residual(samples, resid_us, resid_hz, t);
            }
        }
        if let Some(frac) = imp.truncate {
            truncate_slot(&mut observed, frac);
        }
        Capture::Slot(observed)
    }

    /// Generate the per-slot timing/CFO measurement a real receiver pulls
    /// from SSB (coarse) or DMRS (fine) correlation, or nothing when the
    /// residual has already pushed those signals out of acquisition range.
    fn measure_clock(
        &mut self,
        out: &SlotOutput,
        imp: &nr_radio::SlotImpairment,
        clock_penalty_db: f64,
        resid_us: f64,
        resid_hz: f64,
    ) {
        let Some(obs) = self.last_clock_obs.as_mut() else {
            return;
        };
        let fine_snr = self.snr_db - imp.snr_penalty_db - clock_penalty_db;
        let coarse_snr = self.snr_db - imp.snr_penalty_db;
        let has_dcis = !out.dcis.is_empty();
        let has_ssb = out.mib.is_some();
        if has_dcis
            && fine_snr > 3.0
            && resid_us.abs() <= 0.5 * self.cp_us
            && resid_hz.abs() <= 0.25 * self.scs_hz
        {
            // DMRS-based fine estimate: tight pull-in range, low noise.
            obs.timing_us = Some(resid_us + self.rng.gen_range(-0.02..0.02));
            obs.cfo_hz = Some(resid_hz + self.rng.gen_range(-30.0..30.0));
            obs.coarse = false;
        } else if has_ssb
            && coarse_snr > 3.0
            && resid_us.abs() <= 250.0
            && resid_hz.abs() <= 2.0 * self.scs_hz
        {
            // SSB correlation search: hypothesis-swept, so it tolerates
            // residuals that would blind the demodulator — this is the
            // bootstrap (and post-step reacquisition) path.
            obs.timing_us = Some(resid_us + self.rng.gen_range(-0.05..0.05));
            obs.cfo_hz = Some(resid_hz + self.rng.gen_range(-100.0..100.0));
            obs.coarse = true;
        }
    }

    /// Imprint the residual clock error on a rendered IQ slot: a phase
    /// ramp at the residual CFO, and a timing shift steered through the
    /// streaming resampler (integer slips + fractional phase).
    fn apply_iq_residual(&mut self, samples: &mut Vec<Cf32>, resid_us: f64, resid_hz: f64, t: f64) {
        if resid_hz != 0.0 {
            let w = std::f64::consts::TAU * resid_hz * self.sample_period_us * 1e-6;
            let phi0 = std::f64::consts::TAU * resid_hz * t;
            for (n, s) in samples.iter_mut().enumerate() {
                let phi = (phi0 + w * n as f64) as f32;
                *s *= Cf32::new(phi.cos(), phi.sin());
            }
        }
        let target = resid_us / self.sample_period_us;
        let pending = target - self.steer_applied;
        if pending.abs() > 1e-6 {
            let steer = self.steer.get_or_insert_with(|| Resampler::new(1, 1));
            let whole = pending.trunc();
            // Both commands are clamped by the resampler's slip margin;
            // whatever it accepts is recorded as applied, the rest stays
            // pending for the next slot (the window slides, it does not
            // teleport).
            self.steer_applied += steer.slip(whole as i64) as f64;
            let frac = target - self.steer_applied;
            if frac.abs() > 1e-6 {
                self.steer_applied += steer.adjust_phase(frac);
            }
        }
        if let Some(steer) = &mut self.steer {
            *samples = steer.process(samples);
        }
    }

    /// Residual per-candidate miss probability at arbitrarily good SNR:
    /// models the implementation losses a real sniffer never escapes
    /// (AGC transients, timing drift between resyncs, overlapping SSB
    /// bursts). Calibrated so a well-placed sniffer lands in the paper's
    /// Fig 7 regime (≈0.3% total DL misses including discovery latency).
    pub const RESIDUAL_MISS: f64 = 0.002;

    /// Probability that a candidate at `level` fails to decode cleanly at
    /// the sniffer's SNR — the message-fidelity stand-in for the polar
    /// decoder's block error rate: a logistic link abstraction (QPSK at
    /// the candidate's effective code rate) plus the residual floor.
    pub fn candidate_bler(&self, payload_bits: usize, level: AggregationLevel) -> f64 {
        let k = (payload_bits + 24) as f64;
        let e = level.bits() as f64;
        let entry = McsEntry {
            modulation: Modulation::Qpsk,
            rate_x1024: (k / e * 1024.0).min(1023.0),
        };
        // Polar control channels run ~2 dB below LDPC data thresholds at
        // these short lengths; shift accordingly.
        let waterfall = nr_phy::mcs::bler(entry, self.snr_db + 2.0);
        Self::RESIDUAL_MISS + (1.0 - Self::RESIDUAL_MISS) * waterfall
    }

    /// Observe one slot.
    pub fn observe(&mut self, out: &SlotOutput, t: f64) -> ObservedSlot {
        let _t = self.metrics.start(Stage::Capture);
        self.metrics.inc(Counter::RadioSlots);
        let pdsch = out
            .pdsch
            .iter()
            .filter_map(|(rnti, content)| {
                let payload = match content {
                    PdschContent::Sib1(bits) => PdschPayload::Sib1(bits.clone()),
                    PdschContent::Rar { tc_rnti } => PdschPayload::Rar(*tc_rnti),
                    PdschContent::RrcSetup(bits) => PdschPayload::RrcSetup(bits.clone()),
                    PdschContent::UserData { .. } => return None,
                };
                Some((*rnti, payload))
            })
            .collect::<Vec<_>>();
        if let Some(renderer) = &self.renderer {
            let tx = renderer.render_iq(out);
            let rx = self.usrp.receive(&tx, t);
            self.metrics
                .add(Counter::RadioSamples, rx.samples.len() as u64);
            return ObservedSlot::Iq {
                samples: rx.samples,
                pdsch,
            };
        }
        let mut dcis = Vec::with_capacity(out.dcis.len());
        for dci in &out.dcis {
            // Build the on-air codeword: CRC attach + RNTI scramble, then
            // Gold scramble with the search-space-appropriate identity.
            let mut cw = dci_attach_crc(&dci.payload_bits, dci.rnti.0);
            let c_init = scrambling_for(dci.rnti, dci.rnti_type, out.pci.0);
            scramble_in_place(&mut cw, c_init);
            // Corruption: with candidate BLER probability, flip a burst of
            // bits (an undecodable block, not a single flip the CRC would
            // politely flag).
            let p = self.candidate_bler(dci.payload_bits.len(), dci.level);
            if self.rng.gen::<f64>() < p {
                let flips = self.rng.gen_range(3..12);
                for _ in 0..flips {
                    let i = self.rng.gen_range(0..cw.len());
                    cw[i] ^= 1;
                }
            }
            dcis.push(ObservedDci {
                scrambled_bits: cw,
                cce_start: dci.cce_start,
                level: dci.level,
            });
        }
        let mib_bits = out.mib.as_ref().map(|m| m.encode());
        ObservedSlot::Message {
            mib_bits,
            dcis,
            pdsch,
        }
    }
}

/// Cut a captured slot short (USRP overflow mid-slot): IQ keeps only the
/// leading fraction of samples; at message fidelity the tail candidates
/// and the slot's PDSCH payloads (always late in the slot) are lost.
fn truncate_slot(observed: &mut ObservedSlot, frac: f64) {
    match observed {
        ObservedSlot::Iq { samples, pdsch } => {
            let keep = (samples.len() as f64 * frac) as usize;
            samples.truncate(keep);
            pdsch.clear();
        }
        ObservedSlot::Message { dcis, pdsch, .. } => {
            let keep = (dcis.len() as f64 * frac) as usize;
            dcis.truncate(keep);
            pdsch.clear();
        }
    }
}

/// PDCCH scrambling identity by search space (38.211 §7.3.2.3): the common
/// search space (SI/RA/TC DCIs) scrambles with the cell identity only —
/// which is exactly why NR-Scope can recover unknown TC-RNTIs from MSG 4
/// but not from UE-specific DCIs it has no RNTI for.
pub fn scrambling_for(rnti: Rnti, rnti_type: RntiType, pci: u16) -> u32 {
    match rnti_type {
        RntiType::Si | RntiType::Ra | RntiType::Tc | RntiType::P => pdcch_scrambling_cinit(0, pci),
        RntiType::C => pdcch_scrambling_cinit(rnti.0, pci),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gnb_sim::Gnb;
    use nr_mac::RoundRobin;
    use nr_phy::channel::ChannelProfile;
    use ue_sim::traffic::{TrafficKind, TrafficSource};
    use ue_sim::{MobilityScenario, SimUe};

    pub(crate) fn loaded_gnb(seed: u64) -> Gnb {
        let mut g = Gnb::new(CellConfig::srsran_n41(), Box::new(RoundRobin::new()), seed);
        g.ue_arrives(SimUe::new(
            1,
            ChannelProfile::Awgn,
            MobilityScenario::Static,
            TrafficSource::new(
                TrafficKind::Cbr {
                    rate_bps: 4e6,
                    packet_bytes: 1200,
                },
                1,
            ),
            0.0,
            10.0,
            1,
        ));
        g
    }

    #[test]
    fn high_snr_codewords_descramble_and_check() {
        let mut g = loaded_gnb(1);
        let mut obs = Observer::new(&g.cfg.clone(), 35.0, false, 9);
        for _ in 0..400 {
            let out = g.step();
            let t = 0.0;
            if out.dcis.is_empty() {
                continue;
            }
            let truth = out.dcis.clone();
            if let ObservedSlot::Message { dcis, .. } = obs.observe(&out, t) {
                for (tx, rx) in truth.iter().zip(&dcis) {
                    let mut cw = rx.scrambled_bits.clone();
                    let c_init = scrambling_for(tx.rnti, tx.rnti_type, g.cfg.pci.0);
                    scramble_in_place(&mut cw, c_init);
                    let payload =
                        nr_phy::crc::dci_check_crc(&cw, tx.rnti.0).expect("clean codeword checks");
                    assert_eq!(payload, tx.payload_bits);
                }
            }
        }
    }

    #[test]
    fn candidate_bler_falls_with_snr_and_level() {
        let cfg = CellConfig::srsran_n41();
        let low = Observer::new(&cfg, 0.0, false, 1);
        let high = Observer::new(&cfg, 25.0, false, 1);
        let p_low = low.candidate_bler(40, AggregationLevel::L2);
        let p_high = high.candidate_bler(40, AggregationLevel::L2);
        assert!(p_low > p_high);
        // Higher aggregation (lower rate) is more robust.
        let l1 = low.candidate_bler(40, AggregationLevel::L1);
        let l8 = low.candidate_bler(40, AggregationLevel::L8);
        assert!(l8 < l1);
    }

    #[test]
    fn corruption_rate_matches_model_at_low_snr() {
        let mut g = loaded_gnb(2);
        let cfg = g.cfg.clone();
        let mut obs = Observer::new(&cfg, 4.0, false, 33);
        let (mut total, mut bad) = (0usize, 0usize);
        for s in 0..4000 {
            let out = g.step();
            let truth = out.dcis.clone();
            if let ObservedSlot::Message { dcis, .. } = obs.observe(&out, s as f64 * 0.0005) {
                for (tx, rx) in truth.iter().zip(&dcis) {
                    total += 1;
                    let mut cw = rx.scrambled_bits.clone();
                    scramble_in_place(&mut cw, scrambling_for(tx.rnti, tx.rnti_type, cfg.pci.0));
                    if nr_phy::crc::dci_check_crc(&cw, tx.rnti.0).is_none() {
                        bad += 1;
                    }
                }
            }
        }
        assert!(total > 500);
        let rate = bad as f64 / total as f64;
        let model = obs.candidate_bler(45, AggregationLevel::L2);
        assert!(
            (rate - model).abs() < 0.08,
            "observed {rate:.3} vs model {model:.3}"
        );
    }

    #[test]
    fn capture_without_schedule_matches_observe() {
        let mut g1 = loaded_gnb(4);
        let mut g2 = loaded_gnb(4);
        let cfg = g1.cfg.clone();
        let mut plain = Observer::new(&cfg, 20.0, false, 7);
        let mut chaos = Observer::new(&cfg, 20.0, false, 7);
        for s in 0..200 {
            let t = s as f64 * 0.0005;
            let a = plain.observe(&g1.step(), t);
            let b = chaos.capture(&g2.step(), t);
            let Capture::Slot(b) = b else {
                panic!("clean capture dropped a slot")
            };
            match (a, b) {
                (
                    ObservedSlot::Message { dcis: da, .. },
                    ObservedSlot::Message { dcis: db, .. },
                ) => {
                    assert_eq!(da.len(), db.len());
                    for (x, y) in da.iter().zip(&db) {
                        assert_eq!(x.scrambled_bits, y.scrambled_bits);
                    }
                }
                _ => panic!("expected message slots"),
            }
        }
    }

    #[test]
    fn scheduled_outage_and_stall_drop_the_right_slots() {
        let mut g = loaded_gnb(5);
        let cfg = g.cfg.clone();
        let mut obs = Observer::new(&cfg, 30.0, false, 7);
        obs.set_impairments(
            nr_radio::ImpairmentSchedule::new(9)
                .with_outage(10..14)
                .with_stall(20, 3),
        );
        let mut log = Vec::new();
        for s in 0..30 {
            log.push(match obs.capture(&g.step(), s as f64 * 0.0005) {
                Capture::Slot(_) => 'S',
                Capture::Dropped(DropReason::Overflow) => 'O',
                Capture::Dropped(DropReason::Stall) => 'H',
            });
        }
        let s: String = log.iter().collect();
        assert_eq!(&s[10..14], "OOOO", "outage window dropped: {s}");
        assert_eq!(&s[20..23], "HHH", "stall swallowed 3 slots: {s}");
        assert_eq!(s.matches(|c| c != 'S').count(), 7, "nothing else lost: {s}");
    }

    #[test]
    fn truncated_slots_lose_tail_candidates_and_pdsch() {
        let mut g = loaded_gnb(6);
        let cfg = g.cfg.clone();
        let mut obs = Observer::new(&cfg, 30.0, false, 7);
        obs.set_impairments(nr_radio::ImpairmentSchedule::new(3).with_truncate_prob(1.0));
        for s in 0..100 {
            let out = g.step();
            let n_dcis = out.dcis.len();
            if let Capture::Slot(ObservedSlot::Message { dcis, pdsch, .. }) =
                obs.capture(&out, s as f64 * 0.0005)
            {
                assert!(dcis.len() <= n_dcis);
                assert!(pdsch.is_empty(), "PDSCH tail lost on truncation");
            }
        }
    }

    #[test]
    fn iq_mode_produces_slot_sized_sample_buffers() {
        let mut g = loaded_gnb(3);
        let cfg = g.cfg.clone();
        let mut obs = Observer::new(&cfg, 30.0, true, 5);
        let out = g.step();
        match obs.observe(&out, 0.0) {
            ObservedSlot::Iq { samples, .. } => {
                assert_eq!(samples.len(), 15360, "20 MHz µ=1 slot");
            }
            _ => panic!("expected IQ"),
        }
    }
}
