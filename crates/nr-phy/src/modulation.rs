//! Digital modulation per 38.211 §5.1 and max-log-MAP soft demodulation.
//!
//! The PDCCH uses QPSK; the PDSCH uses QPSK through 256QAM selected by the
//! MCS index. The demapper produces log-likelihood ratios with the
//! convention `LLR > 0 ⇔ bit = 0`, which the polar decoder consumes: for
//! QPSK — the PBCH and the PDCCH — in closed form, one multiply a bit
//! ([`qpsk_llr_gain`]); for the other orders by constellation search.

use crate::complex::Cf32;
use serde::{Deserialize, Serialize};

/// Modulation order (bits per symbol `Q_m`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Modulation {
    /// π/2-free plain BPSK (1 bit/symbol).
    Bpsk,
    /// QPSK (2 bits/symbol) — all control channels.
    Qpsk,
    /// 16QAM (4 bits/symbol).
    Qam16,
    /// 64QAM (6 bits/symbol).
    Qam64,
    /// 256QAM (8 bits/symbol).
    Qam256,
}

impl Modulation {
    /// Bits per symbol `Q_m`.
    pub fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
            Modulation::Qam256 => 8,
        }
    }

    /// Short display name matching srsRAN log conventions ("256QAM" etc.).
    pub fn name(self) -> &'static str {
        match self {
            Modulation::Bpsk => "BPSK",
            Modulation::Qpsk => "QPSK",
            Modulation::Qam16 => "16QAM",
            Modulation::Qam64 => "64QAM",
            Modulation::Qam256 => "256QAM",
        }
    }
}

impl std::fmt::Display for Modulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-axis PAM amplitude for one bit pair group, following the 38.211
/// Gray-coded square constellations. Returns the coordinate for the given
/// bits on one axis.
fn pam_level(bits: &[u8]) -> f32 {
    // 38.211 square QAM: first bit selects the sign (0 → +), remaining bits
    // select the magnitude with Gray coding such that 0 maps outward.
    match bits.len() {
        1 => {
            if bits[0] == 0 {
                1.0
            } else {
                -1.0
            }
        }
        2 => {
            let sign = if bits[0] == 0 { 1.0 } else { -1.0 };
            let mag = if bits[1] == 0 { 1.0 } else { 3.0 };
            sign * mag
        }
        3 => {
            let sign = if bits[0] == 0 { 1.0 } else { -1.0 };
            let mag = match (bits[1], bits[2]) {
                (0, 0) => 3.0,
                (0, 1) => 1.0,
                (1, 0) => 5.0,
                (1, 1) => 7.0,
                _ => unreachable!(),
            };
            sign * mag
        }
        4 => {
            let sign = if bits[0] == 0 { 1.0 } else { -1.0 };
            let mag = match (bits[1], bits[2], bits[3]) {
                (0, 0, 0) => 5.0,
                (0, 0, 1) => 7.0,
                (0, 1, 1) => 1.0,
                (0, 1, 0) => 3.0,
                (1, 1, 0) => 11.0,
                (1, 1, 1) => 9.0,
                (1, 0, 1) => 15.0,
                (1, 0, 0) => 13.0,
                _ => unreachable!(),
            };
            sign * mag
        }
        _ => unreachable!(),
    }
}

/// Normalisation factor so the constellation has unit average power.
fn norm(modulation: Modulation) -> f32 {
    match modulation {
        Modulation::Bpsk => std::f32::consts::FRAC_1_SQRT_2,
        Modulation::Qpsk => std::f32::consts::FRAC_1_SQRT_2,
        Modulation::Qam16 => 1.0 / 10.0f32.sqrt(),
        Modulation::Qam64 => 1.0 / 42.0f32.sqrt(),
        Modulation::Qam256 => 1.0 / 170.0f32.sqrt(),
    }
}

/// Map bits to constellation symbols. `bits.len()` must be a multiple of
/// `Q_m`.
pub fn modulate(bits: &[u8], modulation: Modulation) -> Vec<Cf32> {
    let qm = modulation.bits_per_symbol();
    assert_eq!(bits.len() % qm, 0, "bit count must be a multiple of Q_m");
    let k = norm(modulation);
    bits.chunks(qm)
        .map(|chunk| match modulation {
            Modulation::Bpsk => {
                // 38.211 BPSK places the point on the diagonal.
                let s = if chunk[0] == 0 { 1.0 } else { -1.0 };
                Cf32::new(s * k, s * k)
            }
            _ => {
                // Even-indexed bits drive I, odd-indexed bits drive Q.
                let i_bits: Vec<u8> = chunk.iter().step_by(2).copied().collect();
                let q_bits: Vec<u8> = chunk.iter().skip(1).step_by(2).copied().collect();
                Cf32::new(pam_level(&i_bits) * k, pam_level(&q_bits) * k)
            }
        })
        .collect()
}

/// Max-log-MAP soft demodulation to LLRs (`LLR > 0 ⇔ bit = 0`).
///
/// `noise_var` is the complex noise variance per symbol; equalised symbols
/// should be passed with their post-equalisation noise variance.
pub fn demodulate_llr(symbols: &[Cf32], modulation: Modulation, noise_var: f32) -> Vec<f32> {
    let mut llrs = Vec::with_capacity(symbols.len() * modulation.bits_per_symbol());
    demodulate_llr_into(symbols, modulation, noise_var, &mut llrs);
    llrs
}

/// What a QPSK symbol's two components are multiplied by to become its two
/// max-log LLRs at complex noise variance `noise_var` (floored at 1e-9).
/// The constellation is `(±k, ±k)`, `k = 1/√2`, the first bit signing I
/// and the second Q, so per axis the nearest-point search is
/// `((y + k)² − (y − k)²)/σ² = 4k·y/σ²` — a scale, not a search.
#[inline]
pub fn qpsk_llr_gain(noise_var: f32) -> f32 {
    2.0 * std::f32::consts::SQRT_2 / noise_var.max(1e-9)
}

/// [`demodulate_llr`] appending to the caller's buffer. QPSK — every
/// control channel — is the closed form of [`qpsk_llr_gain`]; the other
/// orders search the constellation.
pub fn demodulate_llr_into(
    symbols: &[Cf32],
    modulation: Modulation,
    noise_var: f32,
    llrs: &mut Vec<f32>,
) {
    if modulation != Modulation::Qpsk {
        return demodulate_any(symbols, modulation, noise_var, llrs);
    }
    let gain = qpsk_llr_gain(noise_var);
    llrs.extend(symbols.iter().flat_map(|y| [y.re * gain, y.im * gain]));
}

/// The demapper for any order: search the whole constellation per bit.
pub(crate) fn demodulate_any(
    symbols: &[Cf32],
    modulation: Modulation,
    noise_var: f32,
    llrs: &mut Vec<f32>,
) {
    let qm = modulation.bits_per_symbol();
    let nv = noise_var.max(1e-9);
    // Enumerate the constellation once.
    let points: Vec<(Vec<u8>, Cf32)> = (0..(1usize << qm))
        .map(|v| {
            let bits: Vec<u8> = (0..qm).rev().map(|i| ((v >> i) & 1) as u8).collect();
            let sym = modulate(&bits, modulation)[0];
            (bits, sym)
        })
        .collect();
    for &y in symbols {
        for b in 0..qm {
            let mut min0 = f32::INFINITY;
            let mut min1 = f32::INFINITY;
            for (bits, s) in &points {
                let d = (y - *s).norm_sqr();
                if bits[b] == 0 {
                    min0 = min0.min(d);
                } else {
                    min1 = min1.min(d);
                }
            }
            llrs.push((min1 - min0) / nv);
        }
    }
}

/// Hard-decision demodulation (nearest constellation point).
pub fn demodulate_hard(symbols: &[Cf32], modulation: Modulation) -> Vec<u8> {
    demodulate_llr(symbols, modulation, 1.0)
        .into_iter()
        .map(|l| if l >= 0.0 { 0 } else { 1 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_mods() -> [Modulation; 5] {
        [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
            Modulation::Qam256,
        ]
    }

    #[test]
    fn constellations_have_unit_average_power() {
        for m in all_mods() {
            let qm = m.bits_per_symbol();
            let mut total = 0.0;
            let count = 1usize << qm;
            for v in 0..count {
                let bits: Vec<u8> = (0..qm).rev().map(|i| ((v >> i) & 1) as u8).collect();
                total += modulate(&bits, m)[0].norm_sqr();
            }
            let avg = total / count as f32;
            assert!((avg - 1.0).abs() < 1e-4, "{m}: avg power {avg}");
        }
    }

    #[test]
    fn constellation_points_are_distinct() {
        for m in all_mods() {
            let qm = m.bits_per_symbol();
            let mut pts: Vec<Cf32> = Vec::new();
            for v in 0..(1usize << qm) {
                let bits: Vec<u8> = (0..qm).rev().map(|i| ((v >> i) & 1) as u8).collect();
                let p = modulate(&bits, m)[0];
                assert!(
                    pts.iter().all(|q| (*q - p).abs() > 1e-3),
                    "{m}: duplicate point"
                );
                pts.push(p);
            }
        }
    }

    #[test]
    fn hard_demod_round_trips_noiselessly() {
        for m in all_mods() {
            let qm = m.bits_per_symbol();
            let bits: Vec<u8> = (0..qm * 64).map(|i| ((i * 7 + i / 3) % 2) as u8).collect();
            let syms = modulate(&bits, m);
            assert_eq!(demodulate_hard(&syms, m), bits, "{m}");
        }
    }

    #[test]
    fn llr_sign_convention_holds() {
        // A clean QPSK 0-bit symbol must produce positive LLRs.
        let syms = modulate(&[0, 0], Modulation::Qpsk);
        let llrs = demodulate_llr(&syms, Modulation::Qpsk, 0.1);
        assert!(llrs.iter().all(|&l| l > 0.0));
        let syms = modulate(&[1, 1], Modulation::Qpsk);
        let llrs = demodulate_llr(&syms, Modulation::Qpsk, 0.1);
        assert!(llrs.iter().all(|&l| l < 0.0));
    }

    #[test]
    fn llr_magnitude_scales_with_noise_confidence() {
        let syms = modulate(&[0, 0], Modulation::Qpsk);
        let quiet = demodulate_llr(&syms, Modulation::Qpsk, 0.01)[0];
        let noisy = demodulate_llr(&syms, Modulation::Qpsk, 1.0)[0];
        assert!(quiet > noisy);
    }

    #[test]
    fn qam16_gray_mapping_is_one_bit_per_neighbor() {
        // Adjacent points on the I axis must differ in exactly one I bit —
        // the Gray property that makes soft demodulation behave.
        let m = Modulation::Qam16;
        let qm = 4;
        let pts: Vec<(Vec<u8>, Cf32)> = (0..16)
            .map(|v| {
                let bits: Vec<u8> = (0..qm).rev().map(|i| ((v >> i) & 1) as u8).collect();
                let p = modulate(&bits, m)[0];
                (bits, p)
            })
            .collect();
        for (ba, pa) in &pts {
            for (bb, pb) in &pts {
                let di = (pa.re - pb.re).abs();
                let dq = (pa.im - pb.im).abs();
                let step = 2.0 / 10.0f32.sqrt();
                if (di - step).abs() < 1e-3 && dq < 1e-6 {
                    let diff: usize = ba.iter().zip(bb).filter(|(x, y)| x != y).count();
                    assert_eq!(diff, 1, "neighbors {ba:?} vs {bb:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "multiple of Q_m")]
    fn misaligned_bits_panic() {
        modulate(&[0, 1, 0], Modulation::Qpsk);
    }
}
