//! Demodulation reference signals (DMRS) for the PDCCH (38.211 §7.4.1.3).
//!
//! Every fourth subcarrier of a PDCCH REG (offsets 1, 5, 9) carries a known
//! QPSK pilot derived from the cell-scoped Gold sequence. NR-Scope's channel
//! estimator (reused conceptually from srsRAN in the paper's implementation,
//! reimplemented here) uses these pilots for least-squares channel estimates
//! before demodulating the DCI QPSK symbols: one pass keeps two sums of a
//! span's pilots ([`PilotSums`]), and gain, noise variance and SNR follow
//! from the sums in closed form ([`pilot_estimate`]) — of one span or of
//! several added, which is how every PDCCH level shares one read of a CCE.

use crate::complex::Cf32;
use crate::sequence::{pdcch_dmrs_cinit, GoldSequence};

/// Subcarrier offsets within a PRB that carry PDCCH DMRS.
pub const DMRS_OFFSETS: [usize; 3] = [1, 5, 9];
/// Number of DMRS REs per REG (per PRB per symbol).
pub const DMRS_PER_REG: usize = 3;
/// Number of data REs per REG after DMRS.
pub const DATA_PER_REG: usize = 9;
/// Subcarrier offsets within a PRB that carry PDCCH data: the rest.
pub const DATA_OFFSETS: [usize; DATA_PER_REG] = [0, 2, 3, 4, 6, 7, 8, 10, 11];

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

/// What one pass over a span's pilots keeps of them: the correlation
/// `S = Σ rx·p*` and the received energy `R = Σ|rx|²`. The sums of disjoint
/// spans add, so a PDCCH candidate's are its CCEs' — each pilot is read
/// once a slot, whatever the number of levels it serves.
pub type PilotSums = (Cf32, f32);

/// A flat-fading estimate over one span of pilots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PilotEstimate {
    /// Least-squares channel gain: the mean of `rx/p`.
    pub h: Cf32,
    /// Residual noise variance, mean `|rx − h·p|²`, floored at 1e-6.
    pub noise_var: f32,
    /// `|h|²` (floored at 1e-9) over `noise_var`; 0 where a pilot RE was
    /// not finite, which any positive floor gates.
    pub snr: f32,
}

/// The estimate over `n` pilots from their sums `(S, R)`. Pilots are unit
/// power, so the LS gain is the mean `h = S/n`, and at that `h` the
/// residual `Σ|rx − h·p|²` is `R − |S|²/n`: no second pass over the pilots.
/// (`f32::max` returns its other operand for a NaN: a residual a NaN RE
/// poisons reads as the floor, like one the cancellation leaves negative.)
pub fn pilot_estimate(n: usize, (s, r): PilotSums) -> PilotEstimate {
    let n = n as f32;
    let h = s / n;
    let noise_var = ((r - s.norm_sqr() / n) / n).max(1e-6);
    // (An infinite RE leaves |h|² infinite over a floored residual.)
    let snr = if r.is_finite() {
        h.norm_sqr().max(1e-9) / noise_var
    } else {
        0.0
    };
    PilotEstimate { h, noise_var, snr }
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

    /// A pilot RE that is not finite — an AGC transient, a fuzzed grid —
    /// estimates SNR 0 whatever else the span holds, and the noise floor
    /// holds: the clamp is written `x.max(floor)`, which is the floor for a
    /// NaN `x` (a compare-and-select would hand the NaN on).
    #[test]
    fn non_finite_pilots_estimate_snr_zero() {
        let clean = (Cf32::new(10.8, 5.4), 8.2);
        assert!(pilot_estimate(18, clean).snr > 10.0);
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        for bad in [
            (nan, 0.0),
            (0.0, nan),
            (inf, 0.0),
            (-inf, 1.0),
            (inf, inf),
            (inf, nan),
        ] {
            // What the sums read once one RE is `bad`.
            let (rx, p) = (Cf32::new(bad.0, bad.1), pilot(0, 1));
            let est = pilot_estimate(18, (clean.0 + rx * p.conj(), clean.1 + rx.norm_sqr()));
            assert_eq!((est.noise_var, est.snr), (1e-6, 0.0), "{bad:?}");
        }
    }
}
