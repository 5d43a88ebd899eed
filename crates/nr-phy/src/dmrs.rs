//! Demodulation reference signals (DMRS) for the PDCCH (38.211 §7.4.1.3).
//!
//! Every fourth subcarrier of a PDCCH REG (offsets 1, 5, 9) carries a known
//! QPSK pilot derived from the cell-scoped Gold sequence. NR-Scope's channel
//! estimator (reused conceptually from srsRAN in the paper's implementation,
//! reimplemented here) uses these pilots for least-squares channel estimates
//! before demodulating the DCI QPSK symbols.

use crate::complex::Cf32;
use crate::sequence::{pdcch_dmrs_cinit, GoldSequence};

/// Subcarrier offsets within a PRB that carry PDCCH DMRS.
pub const DMRS_OFFSETS: [usize; 3] = [1, 5, 9];
/// Number of DMRS REs per REG (per PRB per symbol).
pub const DMRS_PER_REG: usize = 3;
/// Number of data REs per REG after DMRS.
pub const DATA_PER_REG: usize = 9;

/// QPSK map of two scrambling bits onto a unit-power pilot:
/// `(1-2c(2i))/√2 + j(1-2c(2i+1))/√2`.
fn pilot(b0: u8, b1: u8) -> Cf32 {
    let k = std::f32::consts::FRAC_1_SQRT_2;
    Cf32::new(k * (1.0 - 2.0 * b0 as f32), k * (1.0 - 2.0 * b1 as f32))
}

/// Generate the PDCCH DMRS pilot for each DMRS RE of a span of PRBs in one
/// symbol.
///
/// `prb_start..prb_start+n_prb` is the span in *absolute* carrier PRBs; the
/// Gold sequence is indexed absolutely too (the spec indexes the sequence by
/// the RB position within the CORESET's reference grid), so a receiver that
/// knows the CORESET position generates identical pilots.
pub fn pdcch_dmrs(
    slot: usize,
    symbol: usize,
    n_id: u16,
    prb_start: usize,
    n_prb: usize,
) -> Vec<Cf32> {
    let mut g = GoldSequence::new(pdcch_dmrs_cinit(slot, symbol, n_id));
    // Each PRB consumes 3 pilots = 6 bits; skip to the span start.
    g.skip(prb_start * DMRS_PER_REG * 2);
    let mut pilots = Vec::with_capacity(n_prb * DMRS_PER_REG);
    // Two bits a pilot, and a word holds an even count of them.
    g.for_each_word(n_prb * DMRS_PER_REG * 2, |w, k| {
        let pair = |i| pilot(((w >> i) & 1) as u8, ((w >> (i + 1)) & 1) as u8);
        pilots.extend((0..k).step_by(2).map(pair));
    });
    pilots
}

/// Least-squares channel estimate from received pilots: averages
/// `rx/pilot` over the span, returning a single complex gain (flat-fading
/// estimate over the CORESET span — adequate at PDCCH bandwidths).
pub fn ls_channel_estimate(rx_pilots: &[Cf32], ref_pilots: &[Cf32]) -> Cf32 {
    assert_eq!(rx_pilots.len(), ref_pilots.len());
    assert!(!rx_pilots.is_empty());
    let sum = rx_pilots
        .iter()
        .zip(ref_pilots)
        .fold(Cf32::ZERO, |acc, (r, p)| acc + *r * p.conj());
    // Pilots are unit power so |p|² = 1 and the LS estimate is the mean.
    sum / rx_pilots.len() as f32
}

/// Estimate the residual noise variance after equalisation: mean
/// `|rx - h·pilot|²`.
pub fn noise_estimate(rx_pilots: &[Cf32], ref_pilots: &[Cf32], h: Cf32) -> f32 {
    assert_eq!(rx_pilots.len(), ref_pilots.len());
    if rx_pilots.is_empty() {
        return 0.0;
    }
    rx_pilots
        .iter()
        .zip(ref_pilots)
        .map(|(r, p)| (*r - h * *p).norm_sqr())
        .sum::<f32>()
        / rx_pilots.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pilots_are_unit_power() {
        let p = pdcch_dmrs(3, 1, 500, 10, 6);
        assert_eq!(p.len(), 18);
        for v in &p {
            assert!((v.norm_sqr() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn pilot_rows_match_the_pin_taken_on_the_bit_serial_generator() {
        // CRC-24C over every pilot's two f32 bit patterns, generated on the
        // tree whose Gold generator stepped one bit at a time.
        let mut bits: Vec<u8> = Vec::new();
        for slot in [0usize, 7, 19] {
            for symbol in 0..3 {
                for n_id in [0u16, 500, 1007] {
                    for (prb_start, n_prb) in [(0usize, 48usize), (6, 24), (3, 51)] {
                        for p in pdcch_dmrs(slot, symbol, n_id, prb_start, n_prb) {
                            for w in [p.re.to_bits(), p.im.to_bits()] {
                                bits.extend((0..32).map(|i| ((w >> i) & 1) as u8));
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(bits.len(), 637_632);
        assert_eq!(crate::crc::CRC24C.compute(&bits), 0x18606e);
    }

    #[test]
    fn pilots_depend_on_all_parameters() {
        let base = pdcch_dmrs(0, 0, 1, 0, 4);
        assert_ne!(pdcch_dmrs(1, 0, 1, 0, 4), base);
        assert_ne!(pdcch_dmrs(0, 1, 1, 0, 4), base);
        assert_ne!(pdcch_dmrs(0, 0, 2, 0, 4), base);
    }

    #[test]
    fn prb_offset_is_a_subsequence() {
        // Pilots for PRBs 4..8 equal the tail of pilots for PRBs 0..8 —
        // required for gNB and sniffer to agree when the CORESET is offset.
        let all = pdcch_dmrs(5, 2, 123, 0, 8);
        let tail = pdcch_dmrs(5, 2, 123, 4, 4);
        assert_eq!(&all[4 * DMRS_PER_REG..], &tail[..]);
    }

    #[test]
    fn ls_estimate_recovers_flat_channel() {
        let refs = pdcch_dmrs(1, 0, 42, 0, 6);
        let h = Cf32::from_polar(0.8, -1.2);
        let rx: Vec<Cf32> = refs.iter().map(|p| *p * h).collect();
        let est = ls_channel_estimate(&rx, &refs);
        assert!((est - h).abs() < 1e-5);
        assert!(noise_estimate(&rx, &refs, est) < 1e-9);
    }

    #[test]
    fn noise_estimate_tracks_injected_noise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let refs = pdcch_dmrs(1, 0, 42, 0, 48);
        let sigma2 = 0.05f32;
        let rx: Vec<Cf32> = refs
            .iter()
            .map(|p| {
                let n = Cf32::new(
                    rng.gen_range(-1.0..1.0) * (1.5 * sigma2).sqrt(),
                    rng.gen_range(-1.0..1.0) * (1.5 * sigma2).sqrt(),
                );
                *p + n
            })
            .collect();
        let h = ls_channel_estimate(&rx, &refs);
        let nv = noise_estimate(&rx, &refs, h);
        // Uniform noise with that scaling has variance ≈ sigma2 per axis ×2.
        assert!(nv > 0.01 && nv < 0.25, "noise estimate {nv}");
    }
}
