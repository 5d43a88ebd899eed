//! In-tree radix-2 decimation-in-time FFT over split `re`/`im` buffers.
//!
//! The paper identifies per-slot FFTs as the dominant signal-processing cost
//! (§5.3.2, `O(n log n)`), so the transform is implemented here rather than
//! behind an external crate: iterative Cooley–Tukey with precomputed twiddle
//! tables, power-of-two sizes only (all NR FFT sizes are powers of two).
//!
//! One kernel, `Fft::transform`: the bit-reversal is a gather from the
//! caller's samples into separate `re` and `im` planes, the first three or
//! four stages run in registers per 8- or 16-point block, and the later
//! stages run two at a time as plain loops over plane slices that the
//! compiler vectorises. Every butterfly is the one `butterfly`:
//! `t = b·w`, `(a + t, a − t)` with the textbook operation order, and the
//! inverse reads `w.conj()` from a negated-`im` table, so every output bit
//! equals `oracle::strided_fft_oracle`'s.
//!
//! One residue class of the output bins (mod 4) can be computed on its
//! own. A stage of half-length `h ≥ 4` pairs positions `h` apart inside
//! blocks of `2h`, so it never mixes classes: after the first two stages,
//! the positions `4q + c` are an independent `N/4`-point transform whose
//! stage of half-length `h/4` reads twiddles `h − 1 + 4k + c` of the
//! whole plan. Its inputs are stages 1–2 of the four quarter-spaced samples
//! `x[j], x[j + N/2], x[j + N/4], x[j + 3N/4]` (`Fft::class_inputs`),
//! which the bit-reversal puts at positions `4q..4q + 4` for `j` the
//! `N/4`-point reversal of `q`; its plan is `Fft::class_plan`, and it
//! runs through the one kernel. Its output `q` is bin `4q + c`, to the
//! bit.

use crate::complex::Cf32;
use std::cell::RefCell;
use std::sync::OnceLock;

/// A planned FFT of a fixed power-of-two size (forward and inverse).
#[derive(Debug, Clone)]
pub struct Fft {
    size: usize,
    /// Twiddles stage by stage, each stage's contiguous: the stage of
    /// half-length `h` holds `e^{-2πik/2h}` for `k < h` at `h - 1..`. Three
    /// tables of `size - 1` back to back: the real parts, the imaginary
    /// parts, and their negations (`w.conj()`, for the inverse).
    pub(crate) twiddles: Vec<f32>,
    /// Bit-reversal permutation table.
    bitrev: Vec<u32>,
}

/// The `re` and `im` planes a transform writes, one after the other; they
/// only grow. The slot path keeps one per front end; [`Fft::forward`],
/// [`Fft::inverse`] and the modulator use one per thread.
#[derive(Debug, Clone, Default)]
pub struct FftScratch(Vec<f32>);

thread_local! {
    static SCRATCH: RefCell<FftScratch> = RefCell::default();
}

/// `f` on this thread's planes.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut FftScratch) -> R) -> R {
    SCRATCH.with_borrow_mut(f)
}

/// The size whose unit twiddles every plan up to it gathers.
const SHARED_UNITS: usize = 4096;

/// The `size / 2` unit twiddles `e^{-2πij/size}`, `j < size / 2`.
fn unit_twiddles(size: usize) -> Vec<Cf32> {
    let unit = |j: usize| Cf32::from_angle(-2.0 * std::f32::consts::PI * j as f32 / size as f32);
    (0..size / 2).map(unit).collect()
}

/// [`unit_twiddles`] of [`SHARED_UNITS`], computed once a process.
fn shared_unit_twiddles() -> &'static [Cf32] {
    static UNITS: OnceLock<Vec<Cf32>> = OnceLock::new();
    UNITS.get_or_init(|| unit_twiddles(SHARED_UNITS))
}

impl Fft {
    /// Plan an FFT of `size` points. Panics if `size` is not a power of two.
    pub fn new(size: usize) -> Fft {
        assert!(
            size.is_power_of_two() && size >= 2,
            "FFT size must be a power of two ≥ 2"
        );
        // Every stage's twiddle is one of the `size / 2` unit twiddles
        // `e^{-2πij/size}`, gathered from one table. Up to 4096 points it is
        // the process's 4096-point table, read every `4096 / size`-th:
        // `j·(4096/size)` and `/4096` scale the angle by the same power of
        // two, so each entry is `e^{-2πij/size}` to the bit.
        let own;
        let (units, stride) = if size <= SHARED_UNITS {
            (shared_unit_twiddles(), SHARED_UNITS / size)
        } else {
            own = unit_twiddles(size);
            (&own[..], 1)
        };
        let mut twiddles = vec![0.0; 3 * (size - 1)];
        let (re, rest) = twiddles.split_at_mut(size - 1);
        let (im, conj_im) = rest.split_at_mut(size - 1);
        for half in (0..size.trailing_zeros()).map(|stage| 1usize << stage) {
            let step = size / (2 * half) * stride;
            for k in 0..half {
                let w = units[k * step];
                (re[half - 1 + k], im[half - 1 + k]) = (w.re, w.im);
                conj_im[half - 1 + k] = w.conj().im;
            }
        }
        Fft {
            size,
            twiddles,
            bitrev: bit_reversal(size),
        }
    }

    /// The `N/4`-point plan of residue class `class` (mod 4) of this
    /// plan's output bins: the same kernel on this plan's twiddles of that
    /// class, stage by stage. Its input is that class's block of
    /// [`Fft::class_inputs`]; its output `q` is bin `4q + class` of the
    /// forward transform. Panics below 8 points.
    pub(crate) fn class_plan(&self, class: usize) -> Fft {
        let n = self.size;
        assert!(n >= 8 && class < 4, "a class plan needs 8 points or more");
        let size = n / 4;
        let mut twiddles = vec![0.0; 3 * (size - 1)];
        let parts = self.twiddles.chunks_exact(n - 1);
        for (out, table) in twiddles.chunks_exact_mut(size - 1).zip(parts) {
            for half in (0..size.trailing_zeros()).map(|stage| 1usize << stage) {
                for k in 0..half {
                    out[half - 1 + k] = table[4 * half - 1 + 4 * k + class];
                }
            }
        }
        Fft {
            size,
            twiddles,
            bitrev: bit_reversal(size),
        }
    }

    /// Stages 1–2 of the forward transform of `input` (one symbol's
    /// samples, `size` of them), split by output class: `out`'s block `c`
    /// of `size / 4` is the input of class `c`'s plan ([`Fft::class_plan`]).
    pub(crate) fn class_inputs(&self, input: &[Cf32], out: &mut [Cf32]) {
        let n = self.size;
        assert!(n >= 8, "a class plan needs 8 points or more");
        assert_eq!(
            (input.len(), out.len()),
            (n, n),
            "buffer length must equal FFT size"
        );
        let w = |k: usize| (self.twiddles[k], self.twiddles[n - 1 + k]);
        let (w0, w1, w2) = (w(0), w(1), w(2));
        let m = n / 4;
        // Each quarter as a slice of exactly `m`, indexed: the loop
        // vectorises (as a chain of zipped iterators it ran ≈ 3× slower at
        // FFT 1024).
        let x = |q: usize| &input[q * m..][..m];
        let (x0, x1, x2, x3) = (x(0), x(2), x(1), x(3));
        let (lo, hi) = out.split_at_mut(2 * m);
        let ((c0, c1), (c2, c3)) = (lo.split_at_mut(m), hi.split_at_mut(m));
        let (c0, c1, c2, c3) = (&mut c0[..m], &mut c1[..m], &mut c2[..m], &mut c3[..m]);
        let pair = |v: Cf32| (v.re, v.im);
        for j in 0..m {
            let [p0, p1] = butterfly(pair(x0[j]), pair(x1[j]), w0);
            let [p2, p3] = butterfly(pair(x2[j]), pair(x3[j]), w0);
            let ([q0, q2], [q1, q3]) = (butterfly(p0, p2, w1), butterfly(p1, p3, w2));
            (c0[j], c1[j]) = (Cf32::new(q0.0, q0.1), Cf32::new(q1.0, q1.1));
            (c2[j], c3[j]) = (Cf32::new(q2.0, q2.1), Cf32::new(q3.0, q3.1));
        }
    }

    /// Transform size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// In-place forward FFT (no normalisation).
    pub fn forward(&self, data: &mut [Cf32]) {
        self.in_place(data, false, 1.0);
    }

    /// In-place inverse FFT, normalised by `1/N` so that
    /// `inverse(forward(x)) == x`.
    pub fn inverse(&self, data: &mut [Cf32]) {
        self.in_place(data, true, 1.0 / self.size as f32);
    }

    fn in_place(&self, data: &mut [Cf32], inverse: bool, scale: f32) {
        with_scratch(|scratch| {
            let (re, im) = self.transform(data, inverse, scratch);
            for ((v, &re), &im) in data.iter_mut().zip(re).zip(im) {
                *v = Cf32::new(re, im).scale(scale);
            }
        });
    }

    /// The transform of `input` (one symbol's samples, `size` of them; the
    /// inverse unnormalised) as its `re` and `im` planes in natural order,
    /// left in `scratch`.
    pub(crate) fn transform<'s>(
        &self,
        input: &[Cf32],
        inverse: bool,
        scratch: &'s mut FftScratch,
    ) -> (&'s [f32], &'s [f32]) {
        let n = self.size;
        assert_eq!(input.len(), n, "buffer length must equal FFT size");
        // The planes only grow: a class plan's transform takes a prefix, so
        // a whole one after it does not zero them again.
        if scratch.0.len() < 2 * n {
            scratch.0.resize(2 * n, 0.0);
        }
        let (re, im) = scratch.0[..2 * n].split_at_mut(n);
        let (w_re, w_im) = self.twiddles.split_at(n - 1);
        let w_im = &w_im[if inverse { n - 1 } else { 0 }..][..n - 1];
        // Up to 16 points, all stages run in registers; past that, three or
        // four of them, so that the rest pair up.
        let bits = n.trailing_zeros();
        let first = if bits <= 4 { bits } else { 3 + (bits - 3) % 2 };
        let tw = std::array::from_fn(|k| {
            let w = |part: &[f32]| part.get(k).copied().unwrap_or(0.0);
            (w(w_re), w(w_im))
        });
        match first {
            1 => first_stages::<2>(input, &self.bitrev, &tw, re, im),
            2 => first_stages::<4>(input, &self.bitrev, &tw, re, im),
            3 => first_stages::<8>(input, &self.bitrev, &tw, re, im),
            _ => first_stages::<16>(input, &self.bitrev, &tw, re, im),
        }
        let stage = |half: usize| {
            let at = half - 1..2 * half - 1;
            (&w_re[at.clone()], &w_im[at])
        };
        let mut half = 1 << first;
        while half < n {
            let (w1, w2) = (stage(half), stage(2 * half));
            let blocks = re
                .chunks_exact_mut(4 * half)
                .zip(im.chunks_exact_mut(4 * half));
            for (re, im) in blocks {
                let ([r0, r1, r2, r3], [i0, i1, i2, i3]) = (quarters(re), quarters(im));
                two_stages(r0, r1, r2, r3, i0, i1, i2, i3, w1, w2);
            }
            half *= 4;
        }
        (re, im)
    }
}

/// The bit-reversal permutation of `size` points.
fn bit_reversal(size: usize) -> Vec<u32> {
    let bits = size.trailing_zeros();
    (0..size as u32)
        .map(|i| i.reverse_bits() >> (32 - bits))
        .collect()
}

/// The butterfly: `t = b·w`, then `(a + t, a − t)`, each part computed as
/// `Cf32`'s operators compute it.
#[inline(always)]
fn butterfly(a: (f32, f32), b: (f32, f32), w: (f32, f32)) -> [(f32, f32); 2] {
    let t = (b.0 * w.0 - b.1 * w.1, b.0 * w.1 + b.1 * w.0);
    [(a.0 + t.0, a.1 + t.1), (a.0 - t.0, a.1 - t.1)]
}

/// The gather and the first stages, `half = 1 … B/2`, in registers per
/// block of `B` points: `tw` holds the first 15 twiddles (those that exist).
#[inline(always)]
fn first_stages<const B: usize>(
    input: &[Cf32],
    bitrev: &[u32],
    tw: &[(f32, f32); 15],
    re: &mut [f32],
    im: &mut [f32],
) {
    let blocks = re
        .as_chunks_mut::<B>()
        .0
        .iter_mut()
        .zip(im.as_chunks_mut::<B>().0);
    for ((re, im), rev) in blocks.zip(bitrev.as_chunks::<B>().0) {
        let mut x: [(f32, f32); B] = std::array::from_fn(|i| {
            let v = input[rev[i] as usize];
            (v.re, v.im)
        });
        let mut half = 1;
        while half < B {
            for block in (0..B).step_by(2 * half) {
                for k in 0..half {
                    let (a, b) = (block + k, block + k + half);
                    [x[a], x[b]] = butterfly(x[a], x[b], tw[half - 1 + k]);
                }
            }
            half *= 2;
        }
        (*re, *im) = (x.map(|v| v.0), x.map(|v| v.1));
    }
}

/// A block of `4·half` split into its four quarters.
fn quarters(block: &mut [f32]) -> [&mut [f32]; 4] {
    let (lo, hi) = block.split_at_mut(block.len() / 2);
    let ((q0, q1), (q2, q3)) = (lo.split_at_mut(lo.len() / 2), hi.split_at_mut(hi.len() / 2));
    [q0, q1, q2, q3]
}

/// Stages `half` and `2·half` of one block of `4·half`, in one pass:
/// `r*`/`i*` the block's quarters, `w1`/`w2` the two stages' twiddles.
/// Each sample is loaded and stored once for the two stages. A function of
/// its own taking each quarter as a `&mut` slice, which the compiler may
/// assume aliases no other: inlined into the block loop, or handed the
/// block whole, the loop is guarded by runtime alias checks and runs
/// partly scalar.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn two_stages(
    r0: &mut [f32],
    r1: &mut [f32],
    r2: &mut [f32],
    r3: &mut [f32],
    i0: &mut [f32],
    i1: &mut [f32],
    i2: &mut [f32],
    i3: &mut [f32],
    w1: (&[f32], &[f32]),
    w2: (&[f32], &[f32]),
) {
    let h = r0.len();
    let (r1, r2, r3) = (&mut r1[..h], &mut r2[..h], &mut r3[..h]);
    let (i0, i1, i2, i3) = (&mut i0[..h], &mut i1[..h], &mut i2[..h], &mut i3[..h]);
    let (w1_re, w1_im) = (&w1.0[..h], &w1.1[..h]);
    let (w2_re, w2_im) = (&w2.0[..h], &w2.1[..h]);
    let (w3_re, w3_im) = (&w2.0[h..2 * h], &w2.1[h..2 * h]);
    for k in 0..h {
        let (w1, w2, w3) = (
            (w1_re[k], w1_im[k]),
            (w2_re[k], w2_im[k]),
            (w3_re[k], w3_im[k]),
        );
        let [a0, a1] = butterfly((r0[k], i0[k]), (r1[k], i1[k]), w1);
        let [b0, b1] = butterfly((r2[k], i2[k]), (r3[k], i3[k]), w1);
        [(r0[k], i0[k]), (r2[k], i2[k])] = butterfly(a0, b0, w2);
        [(r1[k], i1[k]), (r3[k], i3[k])] = butterfly(a1, b1, w3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Cf32, b: Cf32, tol: f32) -> bool {
        (a - b).abs() < tol
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
