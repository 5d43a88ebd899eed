//! In-tree radix-2 decimation-in-time FFT.
//!
//! The paper identifies per-slot FFTs as the dominant signal-processing cost
//! (§5.3.2, `O(n log n)`), so the transform is implemented here rather than
//! behind an external crate: iterative Cooley–Tukey with precomputed twiddle
//! tables, power-of-two sizes only (all NR FFT sizes are powers of two).

use crate::complex::Cf32;

/// A planned FFT of a fixed power-of-two size (forward and inverse).
#[derive(Debug, Clone)]
pub struct Fft {
    size: usize,
    /// Forward twiddles stage by stage, each stage's contiguous: the stage
    /// of half-length `h` holds `e^{-2πik/2h}` for `k < h` at `h - 1..`.
    twiddles: Vec<Cf32>,
    /// Bit-reversal permutation table.
    bitrev: Vec<u32>,
}

impl Fft {
    /// Plan an FFT of `size` points. Panics if `size` is not a power of two.
    pub fn new(size: usize) -> Fft {
        assert!(
            size.is_power_of_two() && size >= 2,
            "FFT size must be a power of two ≥ 2"
        );
        let unit =
            |k: usize| Cf32::from_angle(-2.0 * std::f32::consts::PI * k as f32 / size as f32);
        let halves = (0..size.trailing_zeros()).map(|stage| 1usize << stage);
        let twiddles = halves
            .flat_map(|half| (0..half).map(move |k| unit(k * (size / (2 * half)))))
            .collect();
        let bits = size.trailing_zeros();
        let bitrev = (0..size as u32)
            .map(|i| i.reverse_bits() >> (32 - bits))
            .collect();
        Fft {
            size,
            twiddles,
            bitrev,
        }
    }

    /// Transform size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// In-place forward FFT (no normalisation).
    pub fn forward(&self, data: &mut [Cf32]) {
        self.run::<false>(data);
    }

    /// In-place inverse FFT, normalised by `1/N` so that
    /// `inverse(forward(x)) == x`.
    pub fn inverse(&self, data: &mut [Cf32]) {
        self.run::<true>(data);
        let scale = 1.0 / self.size as f32;
        for v in data.iter_mut() {
            *v = v.scale(scale);
        }
    }

    fn run<const INVERSE: bool>(&self, data: &mut [Cf32]) {
        assert_eq!(data.len(), self.size, "buffer length must equal FFT size");
        // Bit-reversal reordering.
        for i in 0..self.size {
            let j = self.bitrev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        // Iterative butterflies.
        let mut half = 1;
        while half < self.size {
            let twiddles = &self.twiddles[half - 1..2 * half - 1];
            for block in data.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), w) in lo.iter_mut().zip(hi).zip(twiddles) {
                    let t = *b * if INVERSE { w.conj() } else { *w };
                    (*a, *b) = (*a + t, *a - t);
                }
            }
            half *= 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Cf32, b: Cf32, tol: f32) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn staged_twiddles_are_bit_identical_to_the_strided_loop() {
        for n in [2usize, 64, 1024, 2048] {
            let fft = Fft::new(n);
            let orig: Vec<Cf32> = (0..n)
                .map(|i| Cf32::new((i as f32 * 0.37).sin() * 3.0, (i as f32 * 1.1).cos()))
                .collect();
            for inverse in [false, true] {
                let (mut fast, mut slow) = (orig.clone(), orig.clone());
                if inverse {
                    fft.run::<true>(&mut fast);
                } else {
                    fft.run::<false>(&mut fast);
                }
                crate::oracle::strided_fft_oracle(n, &mut slow, inverse);
                let bits = |v: &[Cf32]| -> Vec<(u32, u32)> {
                    v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
                };
                assert_eq!(bits(&fast), bits(&slow), "n {n} inverse {inverse}");
            }
        }
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let fft = Fft::new(64);
        let mut x = vec![Cf32::ZERO; 64];
        x[0] = Cf32::ONE;
        fft.forward(&mut x);
        for v in &x {
            assert!(close(*v, Cf32::ONE, 1e-4));
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 256;
        let fft = Fft::new(n);
        let k0 = 37;
        let mut x: Vec<Cf32> = (0..n)
            .map(|t| Cf32::from_angle(2.0 * std::f32::consts::PI * k0 as f32 * t as f32 / n as f32))
            .collect();
        fft.forward(&mut x);
        for (k, v) in x.iter().enumerate() {
            if k == k0 {
                assert!((v.abs() - n as f32).abs() < 1e-2);
            } else {
                assert!(v.abs() < 1e-2, "leakage at bin {k}: {}", v.abs());
            }
        }
    }

    #[test]
    fn forward_inverse_round_trip() {
        let n = 1024;
        let fft = Fft::new(n);
        let orig: Vec<Cf32> = (0..n)
            .map(|i| Cf32::new((i as f32 * 0.37).sin(), (i as f32 * 0.11).cos()))
            .collect();
        let mut x = orig.clone();
        fft.forward(&mut x);
        fft.inverse(&mut x);
        for (a, b) in x.iter().zip(orig.iter()) {
            assert!(close(*a, *b, 1e-3));
        }
    }

    #[test]
    fn parseval_energy_is_conserved() {
        let n = 512;
        let fft = Fft::new(n);
        let orig: Vec<Cf32> = (0..n)
            .map(|i| Cf32::new(((i * 7 + 3) % 13) as f32 - 6.0, ((i * 5) % 11) as f32 - 5.0))
            .collect();
        let time_energy: f32 = orig.iter().map(|v| v.norm_sqr()).sum();
        let mut x = orig;
        fft.forward(&mut x);
        let freq_energy: f32 = x.iter().map(|v| v.norm_sqr()).sum();
        assert!((freq_energy / n as f32 - time_energy).abs() / time_energy < 1e-4);
    }

    #[test]
    fn matches_naive_dft() {
        let n = 32;
        let fft = Fft::new(n);
        let orig: Vec<Cf32> = (0..n)
            .map(|i| Cf32::new((i as f32).sin(), (i as f32 * 2.0).cos()))
            .collect();
        let mut fast = orig.clone();
        fft.forward(&mut fast);
        for (k, f) in fast.iter().enumerate() {
            let mut acc = Cf32::ZERO;
            for (t, v) in orig.iter().enumerate() {
                acc +=
                    *v * Cf32::from_angle(-2.0 * std::f32::consts::PI * (k * t) as f32 / n as f32);
            }
            assert!(close(*f, acc, 1e-3), "bin {k}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        Fft::new(48);
    }
}
