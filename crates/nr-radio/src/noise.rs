//! Receiver noise: complex Gaussian samples by Box–Muller over uniforms
//! drawn beforehand, in one branch-free pass the compiler vectorises.
//!
//! `f32::ln`, `sin` and `cos` are libm calls, and glibc's `sinf`/`cosf`
//! branch on the quadrant, which random angles mispredict. Here [`ln`] on
//! (0, 1] and [`sin_cos`] on [0, 2π] are fdlibm's float polynomials
//! (`e_logf`, `k_sinf`, `k_cosf`) behind a branch-free argument reduction,
//! inlined into [`add_noise`], whose loop then has no call and no branch.
//! They do not round as libm does: each is within 2 ulp (`sin`, `cos`) or
//! 1 ulp (`ln`) of the exact value on every input the draws can produce,
//! which the tests below check exhaustively against `f64`. What that moves
//! downstream is pinned at the decision level against libm's formula
//! (`nr_phy::oracle::add_noise_libm`) in `tests/golden.rs`.

use nr_phy::complex::Cf32;
use std::f32::consts::FRAC_2_PI;

/// A Box–Muller formula over drawn uniforms: `(tx, u1, u2, sigma, rx)`.
pub type AddNoise = fn(&[Cf32], &[f32], &[f32], f32, &mut [Cf32]);

/// `rx = tx + r·(cos u2, sin u2)` with `r = sqrt(−2·ln u1)·sigma`, sample by
/// sample: Box–Muller at per-axis deviation `sigma` from `u1` on (0, 1] and
/// `u2` on [0, 2π]. Every slice is cut to `rx`'s length.
pub fn add_noise(tx: &[Cf32], u1: &[f32], u2: &[f32], sigma: f32, rx: &mut [Cf32]) {
    let n = rx.len();
    let inputs = tx[..n].iter().zip(&u1[..n]).zip(&u2[..n]);
    for (rx, ((tx, &u1), &u2)) in rx.iter_mut().zip(inputs) {
        let r = (-2.0 * ln(u1)).sqrt() * sigma;
        let (sin, cos) = sin_cos(u2);
        *rx = *tx + Cf32::new(r * cos, r * sin);
    }
}

/// `ln x` for a normal `x` in (0, 1]: fdlibm's `e_logf` with the range
/// checks and both branches taken out. `x = 2^k·(1 + f)`, `1 + f` in
/// [√2/2, √2), `s = f/(2 + f)` and `ln(1 + f) = 2s + s·R(s²)`; the two
/// ways fdlibm sums it are both computed and one selected.
#[inline(always)]
pub fn ln(x: f32) -> f32 {
    const LN2: [f32; 2] = floats([0x3f31_7180, 0x3717_f7d1]);
    const LG: [f32; 4] = floats([0x3f2a_aaaa, 0x3ecc_ce13, 0x3e91_e9ee, 0x3e78_9e26]);
    let ix = x.to_bits() as i32;
    let m = ix & 0x007f_ffff;
    // Mantissas past √2 are halved, and the exponent raised to match.
    let i = (m + (0x95f64 << 3)) & 0x0080_0000;
    let k = (ix >> 23) - 127 + (i >> 23);
    let f = f32::from_bits((m | (i ^ 0x3f80_0000)) as u32) - 1.0;
    let s = f / (2.0 + f);
    let (z, dk) = (s * s, k as f32);
    let w = z * z;
    let r = z * (LG[0] + w * LG[2]) + w * (LG[1] + w * LG[3]);
    let hfsq = 0.5 * f * f;
    let far = dk * LN2[0] - ((hfsq - (s * (hfsq + r) + dk * LN2[1])) - f);
    let near = dk * LN2[0] - ((s * (f - r) - dk * LN2[1]) - f);
    if (m - (0x6147a << 3)) | ((0x6b851 << 3) - m) > 0 {
        far
    } else {
        near
    }
}

/// `(sin x, cos x)` for `x` in [0, 2π]: `x = q·π/2 + r`, `|r| ≤ π/4`, with
/// `q` rounded to nearest and `r` taken off in fdlibm's three parts of
/// π/2 (each exact times `q`, so `r` loses nothing to cancellation near a
/// zero crossing), fdlibm's `k_sinf`/`k_cosf` on `r`, then the quadrant's
/// swap and signs as selects and sign-bit flips.
#[inline(always)]
pub fn sin_cos(x: f32) -> (f32, f32) {
    const PIO2: [f32; 3] = floats([0x3fc9_0f80, 0x3735_4400, 0x2e85_a300]);
    const S: [f32; 6] = floats([
        0xbe2a_aaab,
        0x3c08_8889,
        0xb950_0d01,
        0x3638_ef1b,
        0xb2d7_2f34,
        0x2f2e_c9d3,
    ]);
    const C: [f32; 6] = floats([
        0x3d2a_aaab,
        0xbab6_0b61,
        0x37d0_0d01,
        0xb493_f27c,
        0x310f_74f6,
        0xad47_d74e,
    ]);
    // 1.5·2²³: adding it leaves round(x·2/π) in the low mantissa bits.
    const ROUND: f32 = 12_582_912.0;
    let shifted = x * FRAC_2_PI + ROUND;
    let q = shifted.to_bits();
    let qf = shifted - ROUND;
    let r = ((x - qf * PIO2[0]) - qf * PIO2[1]) - qf * PIO2[2];
    let z = r * r;
    let sin = r + z * r * (S[0] + z * (S[1] + z * (S[2] + z * (S[3] + z * (S[4] + z * S[5])))));
    let zz = z * (z * (C[0] + z * (C[1] + z * (C[2] + z * (C[3] + z * (C[4] + z * C[5]))))));
    // `1 − z/2` as `(1 − qx) − (z/2 − qx)` past |r| = 0.3, where `qx`
    // (`|r|/4`, or 0.28125 past 0.78125) is exact and takes the bulk.
    let a = r.abs();
    let qx = if a < 0.3 {
        0.0
    } else if a > 0.781_25 {
        0.281_25
    } else {
        a * 0.25
    };
    let cos = (1.0 - qx) - ((0.5 * z - qx) - zz);
    let (sin, cos) = if q & 1 == 0 { (sin, cos) } else { (cos, sin) };
    let flip = |v: f32, bit: u32| f32::from_bits(v.to_bits() ^ ((bit & 2) << 30));
    (flip(sin, q), flip(cos, q + 1))
}

/// Constants by their bit patterns, as fdlibm lists them.
const fn floats<const N: usize>(bits: [u32; N]) -> [f32; N] {
    let mut out = [0.0; N];
    let mut i = 0;
    while i < N {
        out[i] = f32::from_bits(bits[i]);
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nr_phy::oracle::add_noise_libm;
    use std::f32::consts::TAU;

    /// The `k`-th of the 2²⁴ values `gen_range(lo..hi)` returns for `f32`,
    /// computed as the generator computes it.
    fn draw(k: u32, lo: f32, hi: f32) -> f32 {
        lo + (k as f32 * (1.0 / (1u32 << 24) as f32)) * (hi - lo)
    }

    /// Distance in representable `f32`s.
    fn ulps(a: f32, b: f32) -> u32 {
        let key = |v: f32| {
            let b = v.to_bits() as i32;
            if b < 0 {
                i32::MIN - b
            } else {
                b
            }
        };
        key(a).abs_diff(key(b))
    }

    /// Every draw in release; one in 61 under debug assertions.
    fn every_draw() -> impl Iterator<Item = u32> {
        (0..1u32 << 24).step_by(if cfg!(debug_assertions) { 61 } else { 1 })
    }

    /// Histogram of ulp errors over every angle `gen_range(0.0..TAU)` can
    /// return, against `f64` rounded to `f32`.
    #[test]
    fn sin_cos_is_within_2_ulp_on_every_angle_drawn() {
        let mut hist = [0u64; 3];
        for k in every_draw() {
            let x = draw(k, 0.0, TAU);
            let (sin, cos) = sin_cos(x);
            let want = ((x as f64).sin() as f32, (x as f64).cos() as f32);
            for (got, want) in [(sin, want.0), (cos, want.1)] {
                let d = ulps(got, want);
                assert!(d <= 2, "x = {x:e}: {got:e} vs {want:e}, {d} ulp");
                hist[d as usize] += 1;
            }
        }
        println!("sin/cos: {hist:?} at 0/1/2 ulp");
    }

    /// The same over every `gen_range(f32::EPSILON..1.0)`, and the ends.
    #[test]
    fn ln_is_within_1_ulp_on_every_radius_drawn() {
        let mut hist = [0u64; 2];
        let ends = [
            f32::EPSILON,
            1.0 - f32::EPSILON / 2.0,
            1.0,
            f32::MIN_POSITIVE,
        ];
        for x in every_draw().map(|k| draw(k, f32::EPSILON, 1.0)).chain(ends) {
            let (got, want) = (ln(x), (x as f64).ln() as f32);
            let d = ulps(got, want);
            assert!(d <= 1, "x = {x:e}: {got:e} vs {want:e}, {d} ulp");
            hist[d as usize] += 1;
        }
        assert_eq!(ln(1.0).to_bits(), 0, "ln 1 = +0");
        println!("ln: {hist:?} at 0/1 ulp");
    }

    /// The kernel against libm's Box–Muller on the same uniforms, to first
    /// order in `ε = f32::EPSILON` (an ulp of `v` is at most `ε·|v|`).
    /// `ln` is within 1 ulp of exact here and in libm (glibc documents
    /// under 1), so the two are within `2ε` relative; the square root
    /// halves that and rounds once a side, the product by `sigma` rounds
    /// once a side: the radii are within `3ε·r`. `sin` and `cos` are
    /// within 2 and 1 ulp of exact, so within `3ε` of each other. A noise
    /// component `r·cos` is then within `3ε·r + 3ε·r` plus a rounding a
    /// side, and the sum with `tx` rounds once a side:
    /// **`|rx − rx_libm| ≤ 7ε·r + ε·|rx|`** per axis.
    #[test]
    fn kernel_is_libm_box_muller_within_its_bound() {
        let n = 4096;
        let tx: Vec<Cf32> = (0..n).map(|i| Cf32::from_angle(i as f32 * 0.37)).collect();
        let mut k = 0x9E37_79B9u32;
        let mut uniform = move |lo, hi| {
            k = k.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            draw(k >> 8, lo, hi)
        };
        let u1: Vec<f32> = (0..n).map(|_| uniform(f32::EPSILON, 1.0)).collect();
        let u2: Vec<f32> = (0..n).map(|_| uniform(0.0, TAU)).collect();
        let (eps, mut worst) = (f32::EPSILON, 0.0f32);
        for sigma in [0.0, 1e-3, 0.3, 2.0] {
            let (mut got, mut want) = (vec![Cf32::ZERO; n], vec![Cf32::ZERO; n]);
            add_noise(&tx, &u1, &u2, sigma, &mut got);
            add_noise_libm(&tx, &u1, &u2, sigma, &mut want);
            for i in 0..n {
                let r = (-2.0 * (u1[i] as f64).ln()).sqrt() as f32 * sigma;
                for (g, w) in [(got[i].re, want[i].re), (got[i].im, want[i].im)] {
                    let bound = 7.0 * eps * r + eps * w.abs();
                    assert!(
                        (g - w).abs() <= bound,
                        "sigma {sigma}, sample {i}: {g} / {w}"
                    );
                    worst = worst.max((g - w).abs() / bound);
                }
            }
        }
        println!("within {worst:.3} of the bound");
    }
}
