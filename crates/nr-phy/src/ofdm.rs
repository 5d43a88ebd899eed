//! CP-OFDM modulation and demodulation of slot resource grids.
//!
//! The gNB side maps a [`ResourceGrid`] to time-domain IQ samples (IFFT +
//! cyclic prefix per symbol; a symbol with nothing on it needs no IFFT);
//! NR-Scope's receive side inverts it (CP strip + FFT). Subcarrier 0 of the
//! grid maps to the lowest used frequency: used subcarriers are centred in
//! the FFT with DC in the middle, the usual SDR arrangement after
//! downconversion to the channel centre frequency.

use crate::complex::Cf32;
use crate::fft::{with_scratch, Fft, FftScratch};
use crate::grid::ResourceGrid;
use crate::numerology::{Numerology, SYMBOLS_PER_SLOT};

/// OFDM modulator/demodulator for a fixed carrier configuration.
#[derive(Debug, Clone)]
pub struct Ofdm {
    numerology: Numerology,
    n_prb: usize,
    fft_size: usize,
    fft: Fft,
}

impl Ofdm {
    /// Configure for a carrier of `n_prb` resource blocks.
    pub fn new(numerology: Numerology, n_prb: usize) -> Ofdm {
        let fft_size = numerology.fft_size(n_prb);
        Ofdm {
            numerology,
            n_prb,
            fft_size,
            fft: Fft::new(fft_size),
        }
    }

    /// FFT size in use.
    pub fn fft_size(&self) -> usize {
        self.fft_size
    }

    /// Sample rate of the produced IQ stream.
    pub fn sample_rate_hz(&self) -> f64 {
        self.numerology.sample_rate_hz(self.fft_size)
    }

    /// Samples per slot at this configuration.
    pub fn samples_per_slot(&self, slot_in_frame: usize) -> usize {
        self.numerology
            .samples_per_slot(self.fft_size, slot_in_frame)
    }

    /// First FFT bin of grid subcarrier 0 (used band centred around DC, then
    /// shifted to non-negative bins for the FFT input layout).
    fn first_bin(&self) -> usize {
        // Used subcarriers occupy bins [-(used/2) .. used/2) around DC; an
        // FFT bin index b < 0 wraps to fft_size + b.
        self.fft_size - self.n_prb * 6
    }

    /// Modulate one slot grid to time-domain samples (with CPs).
    ///
    /// A symbol whose REs are all `+0.0` is written as zeros without a
    /// transform: every butterfly of it computes `+0.0 ± (±0.0) = +0.0`,
    /// and both scalings keep that, so the skip is bit-exact. (A `−0.0` RE
    /// takes the transform, whose output can then hold `−0.0`.)
    pub fn modulate(&self, grid: &ResourceGrid, slot_in_frame: usize) -> Vec<Cf32> {
        assert_eq!(grid.n_prb(), self.n_prb);
        let n = self.fft_size;
        let mut out = Vec::with_capacity(self.samples_per_slot(slot_in_frame));
        let mut freq = vec![Cf32::ZERO; n];
        // Normalised by `1/N` as `Fft::inverse` does, then scaled so RE
        // power is preserved through the transform pair.
        let (inverse, scale) = (1.0 / n as f32, (n as f32).sqrt());
        let (first_bin, half) = (self.first_bin(), self.n_prb * 6);
        for sym in 0..SYMBOLS_PER_SLOT {
            let cp = self.numerology.cp_len(
                n,
                self.numerology.symbol_in_half_subframe(slot_in_frame, sym),
            );
            let res = grid.symbol(sym);
            if res.iter().all(|re| re.re.to_bits() | re.im.to_bits() == 0) {
                out.resize(out.len() + cp + n, Cf32::ZERO);
                continue;
            }
            // Grid subcarriers in order: the negative-frequency bins, then
            // DC upwards; the guard band between them stays zero.
            freq[first_bin..].copy_from_slice(&res[..half]);
            freq[..half].copy_from_slice(&res[half..]);
            with_scratch(|scratch| {
                let (re, im) = self.fft.transform(&freq, true, scratch);
                let sample = |i: usize| Cf32::new(re[i] * inverse * scale, im[i] * inverse * scale);
                out.extend((n - cp..n).chain(0..n).map(sample));
            });
        }
        out
    }

    /// Demodulate one slot of time samples back to a resource grid.
    ///
    /// `samples` must hold exactly one slot at this configuration. Inverse
    /// of [`Ofdm::modulate`] up to numerical noise.
    pub fn demodulate(&self, samples: &[Cf32], slot_in_frame: usize) -> ResourceGrid {
        self.demodulate_symbols(samples, slot_in_frame, &[true; SYMBOLS_PER_SLOT])
    }

    /// [`Ofdm::demodulate`] for the symbols `wanted` marks only: a reader
    /// of the CORESET and the SSB pays for those FFTs, not for the PDSCH
    /// symbols nobody reads. Every other symbol of the grid stays zero.
    pub fn demodulate_symbols(
        &self,
        samples: &[Cf32],
        slot_in_frame: usize,
        wanted: &[bool; SYMBOLS_PER_SLOT],
    ) -> ResourceGrid {
        let (mut grid, mut scratch) = (ResourceGrid::new(self.n_prb), FftScratch::default());
        self.demodulate_symbols_into(samples, slot_in_frame, wanted, &mut grid, &mut scratch);
        grid
    }

    /// [`Ofdm::demodulate_symbols`] into the caller's grid, with `scratch`
    /// as the transform's working planes. Only the symbols `wanted` marks
    /// are written: a caller that reuses a grid zeroes what an earlier slot
    /// left in the others.
    pub fn demodulate_symbols_into(
        &self,
        samples: &[Cf32],
        slot_in_frame: usize,
        wanted: &[bool; SYMBOLS_PER_SLOT],
        grid: &mut ResourceGrid,
        scratch: &mut FftScratch,
    ) {
        assert_eq!(
            samples.len(),
            self.samples_per_slot(slot_in_frame),
            "sample count must be one slot"
        );
        assert_eq!(grid.n_prb(), self.n_prb);
        let mut pos = 0;
        let scale = 1.0 / (self.fft_size as f32).sqrt();
        let (first_bin, half) = (self.first_bin(), self.n_prb * 6);
        for (sym, &wanted) in wanted.iter().enumerate() {
            pos += self.numerology.cp_len(
                self.fft_size,
                self.numerology.symbol_in_half_subframe(slot_in_frame, sym),
            );
            if wanted {
                let symbol = &samples[pos..pos + self.fft_size];
                let (re, im) = self.fft.transform(symbol, false, scratch);
                // Grid subcarriers in order: the negative-frequency bins,
                // then DC upwards.
                let (below_dc, from_dc) = grid.symbol_mut(sym).split_at_mut(half);
                for (res, bins) in [(below_dc, first_bin..), (from_dc, 0..)] {
                    let bins = re[bins.clone()].iter().zip(&im[bins]);
                    for (out, (&r, &i)) in res.iter_mut().zip(bins) {
                        *out = Cf32::new(r * scale, i * scale);
                    }
                }
            }
            pos += self.fft_size;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulation::{modulate as qam, Modulation};

    /// 20 MHz at µ = 1 and at µ = 0, and 100 MHz at µ = 1 (FFT 4096).
    const CARRIERS: [(Numerology, usize); 3] = [
        (Numerology::Mu1, 51),
        (Numerology::Mu0, 52),
        (Numerology::Mu1, 273),
    ];

    fn test_grid(n_prb: usize) -> ResourceGrid {
        let mut g = ResourceGrid::new(n_prb);
        let bits: Vec<u8> = (0..n_prb * 12 * 2)
            .map(|i| ((i * 13 + 5) % 2) as u8)
            .collect();
        let syms = qam(&bits, Modulation::Qpsk);
        for (k, s) in syms.iter().enumerate() {
            g.set(k % SYMBOLS_PER_SLOT, k / SYMBOLS_PER_SLOT, *s);
        }
        g
    }

    #[test]
    fn modulate_demodulate_round_trip() {
        for (numer, n_prb) in CARRIERS {
            let ofdm = Ofdm::new(numer, n_prb);
            let grid = test_grid(n_prb);
            for slot in [0usize, 1] {
                let time = ofdm.modulate(&grid, slot);
                let back = ofdm.demodulate(&time, slot);
                for sym in 0..SYMBOLS_PER_SLOT {
                    for k in 0..grid.n_subcarriers() {
                        let d = (grid.get(sym, k) - back.get(sym, k)).abs();
                        assert!(d < 1e-3, "mismatch at sym {sym} sc {k}: {d}");
                    }
                }
            }
        }
    }

    #[test]
    fn symbol_set_demodulation_equals_full_demodulation_on_its_symbols() {
        for (numer, n_prb) in CARRIERS {
            let ofdm = Ofdm::new(numer, n_prb);
            for slot in [0usize, 1] {
                let time = ofdm.modulate(&test_grid(n_prb), slot);
                let full = ofdm.demodulate(&time, slot);
                let wanted: [bool; SYMBOLS_PER_SLOT] = std::array::from_fn(|s| s % 5 < 2);
                let part = ofdm.demodulate_symbols(&time, slot, &wanted);
                for (sym, wanted) in wanted.into_iter().enumerate() {
                    let bits = |g: &ResourceGrid| -> Vec<(u32, u32)> {
                        let res = g.symbol(sym).iter();
                        res.map(|v| (v.re.to_bits(), v.im.to_bits())).collect()
                    };
                    if wanted {
                        assert_eq!(bits(&part), bits(&full), "{numer:?} slot {slot} sym {sym}");
                    } else {
                        assert!(bits(&part).iter().all(|&re| re == (0, 0)), "sym {sym}");
                    }
                }
            }
        }
    }

    #[test]
    fn sample_count_matches_numerology() {
        let ofdm = Ofdm::new(Numerology::Mu1, 51);
        let grid = ResourceGrid::new(51);
        let time = ofdm.modulate(&grid, 0);
        assert_eq!(time.len(), ofdm.samples_per_slot(0));
        // 20 MHz µ=1 → 1024-point FFT at 30.72 Msps → 15360 samples per
        // half-millisecond slot, the USRP-style rate the paper's tool runs.
        assert_eq!(ofdm.fft_size(), 1024);
        assert_eq!(time.len(), 15360);
        // The 100 MHz carrier: 273 PRBs at µ=1.
        let wide = Ofdm::new(Numerology::Mu1, 273);
        assert_eq!((wide.fft_size(), wide.samples_per_slot(0)), (4096, 61_440));
    }

    #[test]
    fn energy_is_preserved() {
        let ofdm = Ofdm::new(Numerology::Mu1, 24);
        // Fill every RE with pseudo-random QPSK so time-domain energy is
        // spread evenly and the CP share approaches its average (~7%).
        let mut grid = ResourceGrid::new(24);
        let bits: Vec<u8> = (0..24 * 12 * SYMBOLS_PER_SLOT * 2)
            .map(|i| (((i * 1103515245 + 12345) >> 8) % 2) as u8)
            .collect();
        let syms = qam(&bits, Modulation::Qpsk);
        for (i, s) in syms.iter().enumerate() {
            grid.set(i / (24 * 12), i % (24 * 12), *s);
        }
        let time = ofdm.modulate(&grid, 0);
        let grid_e = grid.energy();
        // Time-domain energy = grid energy + whatever the CPs copy. The CP
        // share is signal-dependent (it duplicates each symbol's tail), so
        // bound it loosely: strictly more than the grid, at most ~30% over.
        let time_e: f32 = time.iter().map(|v| v.norm_sqr()).sum();
        assert!(time_e > grid_e, "CP adds energy");
        assert!(
            time_e < grid_e * 1.3,
            "no unexpected gain: ratio {}",
            time_e / grid_e
        );
    }

    #[test]
    fn cfo_free_tone_occupies_one_subcarrier() {
        // A single RE modulated then demodulated must not leak.
        let ofdm = Ofdm::new(Numerology::Mu1, 24);
        let mut grid = ResourceGrid::new(24);
        grid.set(3, 77, Cf32::ONE);
        let time = ofdm.modulate(&grid, 0);
        let back = ofdm.demodulate(&time, 0);
        assert!((back.get(3, 77) - Cf32::ONE).abs() < 1e-3);
        assert!(back.get(3, 78).abs() < 1e-3);
        assert!(back.get(4, 77).abs() < 1e-3);
    }
}
