//! CP-OFDM modulation and demodulation of slot resource grids.
//!
//! The gNB side maps a [`ResourceGrid`] to time-domain IQ samples (IFFT +
//! cyclic prefix per symbol; a symbol with nothing on it needs no IFFT);
//! NR-Scope's receive side inverts it (CP strip + FFT). Subcarrier 0 of the
//! grid maps to the lowest used frequency: used subcarriers are centred in
//! the FFT with DC in the middle, the usual SDR arrangement after
//! downconversion to the channel centre frequency.
//!
//! A reader of the PDCCH can demodulate a symbol in two steps: the FFT
//! bins of its pilots first, the rest only if they are worth reading. The
//! PDCCH DMRS sits at grid subcarrier `12n + 4k′ + 1` (38.211 §7.4.1.3.2),
//! and grid subcarrier `g` is bin `(N − 6·n_prb + g) mod N`, so every pilot
//! is in one residue class of the bins mod 4 — `(1 − 6·n_prb) mod 4`, 3
//! for an odd `n_prb` and 1 for an even one — which the FFT computes as an
//! `N/4`-point transform of its own (the `fft` module's docs).
//! [`Ofdm::demodulate_pilot_class_into`] transforms that class and
//! [`Ofdm::complete_into`] the other three: the symbol is then
//! [`Ofdm::demodulate_symbols`]'s, to the bit.

use crate::complex::Cf32;
use crate::dmrs::DMRS_OFFSETS;
use crate::fft::{with_scratch, Fft, FftScratch};
use crate::grid::ResourceGrid;
use crate::numerology::{Numerology, SYMBOLS_PER_SLOT};

/// The residue mod 4 of the grid subcarriers that bear the PDCCH DMRS.
const PILOT_RESIDUE: usize = DMRS_OFFSETS[0] % 4;
const _: () = assert!(DMRS_OFFSETS[1] % 4 == PILOT_RESIDUE && DMRS_OFFSETS[2] % 4 == PILOT_RESIDUE);

/// OFDM modulator/demodulator for a fixed carrier configuration.
#[derive(Debug, Clone)]
pub struct Ofdm {
    numerology: Numerology,
    n_prb: usize,
    fft_size: usize,
    fft: Fft,
    /// The plans of the transform's four residue classes of bins mod 4
    /// ([`Fft::class_plan`]).
    classes: [Fft; 4],
}

/// The symbols a pilot-class demodulation left for [`Ofdm::complete_into`],
/// and each one's class inputs (`Fft::class_inputs`): working memory that
/// only grows.
#[derive(Debug, Clone, Default)]
pub struct Deferred {
    symbols: [bool; SYMBOLS_PER_SLOT],
    inputs: Vec<Cf32>,
}

impl Deferred {
    /// The symbols awaiting completion.
    pub fn symbols(&self) -> &[bool; SYMBOLS_PER_SLOT] {
        &self.symbols
    }

    /// Whether no symbol awaits completion.
    pub fn is_empty(&self) -> bool {
        !self.symbols.contains(&true)
    }

    /// Forget the symbols: a grid that no longer holds them needs no
    /// completion.
    pub fn clear(&mut self) {
        self.symbols = [false; SYMBOLS_PER_SLOT];
    }
}

impl Ofdm {
    /// Configure for a carrier of `n_prb` resource blocks.
    pub fn new(numerology: Numerology, n_prb: usize) -> Ofdm {
        let fft_size = numerology.fft_size(n_prb);
        let fft = Fft::new(fft_size);
        Ofdm {
            numerology,
            n_prb,
            fft_size,
            classes: std::array::from_fn(|class| fft.class_plan(class)),
            fft,
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

    /// The residue class of the FFT bins (mod 4) that bears the pilots.
    fn pilot_class(&self) -> usize {
        (self.first_bin() + PILOT_RESIDUE) % 4
    }

    /// Each symbol of slot `slot_in_frame`, and where its FFT window starts
    /// in the slot's samples: past its cyclic prefix.
    fn windows(&self, slot_in_frame: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let mut pos = 0;
        (0..SYMBOLS_PER_SLOT).map(move |sym| {
            let numer = self.numerology;
            pos += numer.cp_len(
                self.fft_size,
                numer.symbol_in_half_subframe(slot_in_frame, sym),
            );
            pos += self.fft_size;
            (sym, pos - self.fft_size)
        })
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
        let scale = 1.0 / (self.fft_size as f32).sqrt();
        let (first_bin, half) = (self.first_bin(), self.n_prb * 6);
        for (sym, at) in self.windows(slot_in_frame).filter(|&(sym, _)| wanted[sym]) {
            let symbol = &samples[at..at + self.fft_size];
            let (re, im) = self.fft.transform(symbol, false, scratch);
            // Grid subcarriers in order: the negative-frequency bins, then
            // DC upwards.
            let (below_dc, from_dc) = grid.symbol_mut(sym).split_at_mut(half);
            for (res, bins) in [(below_dc, first_bin..), (from_dc, 0..)] {
                let bins = re[bins.clone()].iter().zip(&im[bins]);
                for (out, (&r, &i)) in res.iter_mut().zip(bins) {
                    *out = Cf32::new(r * scale, i * scale);
                }
            }
        }
    }

    /// [`Ofdm::demodulate_symbols_into`] of the symbols `symbols` marks at
    /// the bins of their pilot class alone: of each, the grid subcarriers
    /// `≡ 1 (mod 4)` — every PDCCH DMRS RE among them — are written, and
    /// every other RE is zeroed. `deferred` keeps what completing them
    /// takes ([`Ofdm::complete_into`]).
    pub fn demodulate_pilot_class_into(
        &self,
        samples: &[Cf32],
        slot_in_frame: usize,
        symbols: &[bool; SYMBOLS_PER_SLOT],
        grid: &mut ResourceGrid,
        scratch: &mut FftScratch,
        deferred: &mut Deferred,
    ) {
        assert_eq!(
            samples.len(),
            self.samples_per_slot(slot_in_frame),
            "sample count must be one slot"
        );
        assert_eq!(grid.n_prb(), self.n_prb);
        let (n, class) = (self.fft_size, self.pilot_class());
        deferred.symbols = *symbols;
        let count = symbols.iter().filter(|&&s| s).count();
        deferred.inputs.resize(count * n, Cf32::ZERO);
        let marked = self.windows(slot_in_frame).filter(|&(sym, _)| symbols[sym]);
        for ((sym, at), inputs) in marked.zip(deferred.inputs.chunks_exact_mut(n)) {
            self.fft.class_inputs(&samples[at..at + n], inputs);
            let res = grid.symbol_mut(sym);
            res.fill(Cf32::ZERO);
            self.demodulate_class(class, inputs, res, scratch);
        }
    }

    /// Complete in `grid` the symbols `deferred` holds: their other three
    /// classes, transformed from the kept inputs. Each symbol then equals
    /// [`Ofdm::demodulate_symbols`]'s bit for bit; `deferred` is left
    /// empty.
    pub fn complete_into(
        &self,
        deferred: &mut Deferred,
        grid: &mut ResourceGrid,
        scratch: &mut FftScratch,
    ) {
        assert_eq!(grid.n_prb(), self.n_prb);
        let pilot = self.pilot_class();
        let marked = (0..SYMBOLS_PER_SLOT).filter(|&sym| deferred.symbols[sym]);
        for (sym, inputs) in marked.zip(deferred.inputs.chunks_exact(self.fft_size)) {
            for class in (0..4).filter(|&class| class != pilot) {
                self.demodulate_class(class, inputs, grid.symbol_mut(sym), scratch);
            }
        }
        deferred.clear();
    }

    /// Write into `res`, one symbol of the grid, its REs whose bins are in
    /// `class`, transformed from that class's block of `inputs` (one
    /// symbol's [`Fft::class_inputs`]).
    fn demodulate_class(
        &self,
        class: usize,
        inputs: &[Cf32],
        res: &mut [Cf32],
        scratch: &mut FftScratch,
    ) {
        let quarter = self.fft_size / 4;
        let plan = &self.classes[class];
        let (re, im) = plan.transform(&inputs[class * quarter..][..quarter], false, scratch);
        let scale = 1.0 / (self.fft_size as f32).sqrt();
        let (first_bin, half) = (self.first_bin(), self.n_prb * 6);
        // As in `demodulate_symbols_into`, every fourth RE of each run: the
        // run's first RE of the class is bin `4q + class`, output `q`.
        let (below_dc, from_dc) = res.split_at_mut(half);
        for (res, first) in [(below_dc, first_bin), (from_dc, 0)] {
            let skip = (class + 4 - first % 4) % 4;
            let q = (first + skip) / 4;
            let bins = re[q..].iter().zip(&im[q..]);
            for (out, (&r, &i)) in res[skip..].chunks_mut(4).zip(bins) {
                out[0] = Cf32::new(r * scale, i * scale);
            }
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
