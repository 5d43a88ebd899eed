//! Reference implementations the optimised kernels are compared with bit
//! for bit — each one the body a kernel replaced, kept as it was written —
//! and the differential tests that do the comparing (those that need a
//! kernel's private parts sit beside it and call in here). Compiled for
//! tests only, and the one file CI's PHY line count leaves out: the count
//! is of the code that ships.

use crate::complex::Cf32;
use crate::crc::{
    bits_to_crc, crc_to_bits, dci_attach_crc, dci_check_crc, dci_recover_rnti,
    scramble_crc_with_rnti, CRC24C,
};
use crate::polar::construction::tests::cell_code_grid;
use crate::polar::construction::{polarization_weight, reliability_order};
use crate::polar::ratematch::{self, RateMatchKind};
use crate::polar::{decode, encode, DecodeScratch, PolarCode};
use crate::sequence::{gold_bits, scramble_in_place, GoldSequence, NC};

/// The textbook check-node update, in floats.
fn f_op(a: f32, b: f32) -> f32 {
    a.signum() * b.signum() * a.abs().min(b.abs())
}

/// The textbook bit-node update, in floats.
fn g_op(a: f32, b: f32, u: u8) -> f32 {
    if u == 0 {
        b + a
    } else {
        b - a
    }
}

/// The textbook SC recursion, allocating its children's LLRs per node and
/// visiting every node: what `polar::decode::sc_decode` replaced.
pub(crate) fn sc_decode_oracle(llrs: &[f32], info_mask: &[bool]) -> Vec<u8> {
    let n = llrs.len();
    assert_eq!(n, info_mask.len());
    assert!(n.is_power_of_two());
    let mut u = vec![0u8; n];
    let mut x = vec![0u8; n];
    sc_recurse(llrs, info_mask, 0, &mut u, &mut x);
    u
}

/// Recursive SC over a subtree. `offset` is the subtree's first input index.
/// Fills `u[offset..offset+len]` with decisions and `x[offset..offset+len]`
/// with the re-encoded codeword of this subtree (needed by the parent's
/// g-stage). Returns nothing; operates through the two output slices.
fn sc_recurse(llrs: &[f32], info_mask: &[bool], offset: usize, u: &mut [u8], x: &mut [u8]) {
    let len = llrs.len();
    if len == 1 {
        let bit = if info_mask[offset] {
            u8::from(llrs[0] < 0.0)
        } else {
            0
        };
        u[offset] = bit;
        x[offset] = bit;
        return;
    }
    let half = len / 2;
    // Left child sees f(a_i, b_i).
    let left_llrs: Vec<f32> = (0..half).map(|i| f_op(llrs[i], llrs[i + half])).collect();
    sc_recurse(&left_llrs, info_mask, offset, u, x);
    // Right child sees g(a_i, b_i, x_left_i).
    let right_llrs: Vec<f32> = (0..half)
        .map(|i| g_op(llrs[i], llrs[i + half], x[offset + i]))
        .collect();
    sc_recurse(&right_llrs, info_mask, offset + half, u, x);
    // Recombine: x_parent = [x_left ⊕ x_right, x_right].
    for i in 0..half {
        x[offset + i] ^= x[offset + half + i];
    }
}

/// The Gold generator `sequence` had before it stepped by words: register
/// bit k holds `x(n+k)`; a step computes the new `x(n+31)` and shifts.
/// The oracle for the warm-up tables and the word steps.
pub(crate) struct SerialGold {
    pub(crate) x1: u32,
    pub(crate) x2: u32,
}

impl SerialGold {
    pub(crate) fn new(c_init: u32) -> SerialGold {
        let mut g = SerialGold {
            x1: 1,
            x2: c_init & 0x7FFF_FFFF,
        };
        (0..NC).for_each(|_| g.step());
        g
    }

    fn step(&mut self) {
        let n1 = ((self.x1 >> 3) ^ self.x1) & 1;
        let n2 = ((self.x2 >> 3) ^ (self.x2 >> 2) ^ (self.x2 >> 1) ^ self.x2) & 1;
        self.x1 = (self.x1 >> 1) | (n1 << 30);
        self.x2 = (self.x2 >> 1) | (n2 << 30);
    }

    pub(crate) fn take_bits(&mut self, n: usize) -> Vec<u8> {
        let bit = |g: &mut SerialGold| {
            let out = ((g.x1 ^ g.x2) & 1) as u8;
            g.step();
            out
        };
        (0..n).map(|_| bit(self)).collect()
    }
}

/// The FFT butterflies as they were first written — one twiddle table
/// strided per stage, the direction tested inside the loop — kept as
/// the bit-exactness oracle for `Fft::run`.
pub(crate) fn strided_fft_oracle(size: usize, data: &mut [Cf32], inverse: bool) {
    let bits = size.trailing_zeros();
    for i in 0..size {
        let j = (i as u32).reverse_bits() as usize >> (32 - bits);
        if i < j {
            data.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= size {
        let (half, stride) = (len / 2, size / len);
        for start in (0..size).step_by(len) {
            for k in 0..half {
                let angle = -2.0 * std::f32::consts::PI * (k * stride) as f32 / size as f32;
                let w = Cf32::from_angle(angle);
                let b = data[start + k + half] * if inverse { w.conj() } else { w };
                let a = data[start + k];
                data[start + k] = a + b;
                data[start + k + half] = a - b;
            }
        }
        len *= 2;
    }
}

/// `dci_check_crc` as it was before the syndrome: descramble the
/// received CRC with the RNTI, recompute over `1^24 ‖ payload`, compare.
pub(crate) fn check_crc_oracle(codeword: &[u8], rnti: u16) -> Option<Vec<u8>> {
    if codeword.len() < 24 {
        return None;
    }
    let (payload, crc_rx) = codeword.split_at(codeword.len() - 24);
    let mut crc_bits = crc_rx.to_vec();
    scramble_crc_with_rnti(&mut crc_bits, rnti); // XOR is its own inverse
    let mut padded = vec![1u8; 24];
    padded.extend_from_slice(payload);
    (CRC24C.compute(&padded) == bits_to_crc(&crc_bits)).then(|| payload.to_vec())
}

/// `dci_recover_rnti` as it was before the syndrome.
pub(crate) fn recover_rnti_oracle(codeword: &[u8]) -> Option<u16> {
    if codeword.len() < 24 {
        return None;
    }
    let (payload, crc_rx) = codeword.split_at(codeword.len() - 24);
    let mut padded = vec![1u8; 24];
    padded.extend_from_slice(payload);
    let crc_local = crc_to_bits(CRC24C.compute(&padded), 24);
    // The unscrambled high 8 bits must agree, otherwise this wasn't a
    // clean decode (or not a DCI at all).
    if crc_local[0..8] != crc_rx[0..8] {
        return None;
    }
    let low = crc_local[8..].iter().zip(&crc_rx[8..]);
    Some(low.fold(0, |rnti, (a, b)| (rnti << 1) | (a ^ b) as u16))
}

/// `decode_sc` as the parent computed it: de-rate-match, then the
/// textbook recursion.
fn decode_oracle(code: &PolarCode, llrs: &[f32]) -> Vec<u8> {
    let mut mother = Vec::new();
    ratematch::deselect_into(llrs.iter().copied(), code.n, code.kind, &mut mother);
    let u = sc_decode_oracle(&mother, &code.info_mask);
    code.info_positions.iter().map(|&p| u[p]).collect()
}

thread_local! {
    /// Decodes the codeword lemma answered without an SC walk.
    pub(crate) static SHORT_CIRCUITS: std::cell::Cell<u64> =
        const { std::cell::Cell::new(0) };
}

#[test]
fn sc_kernel_matches_the_oracle_bit_for_bit() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut grid = cell_code_grid();
    grid.extend([(12, 54), (140, 864), (12, 400)]);
    grid.sort_unstable();
    grid.dedup();
    // One scratch for the whole grid: stale stack, `u` and `x` content
    // from a longer code must never leak into a shorter one's decode.
    let mut scratch = DecodeScratch::default();
    // Per rate matching: sign-clean codewords (the short-circuit must
    // answer every one) and decodes with a ±0 or NaN past the head (it
    // must answer none).
    let mut taken = std::collections::HashMap::new();
    for (k, e) in grid {
        let code = PolarCode::new(k, e);
        let (clean, dirty) = taken.entry(format!("{:?}", code.kind)).or_insert((0, 0));
        let mut rng = StdRng::seed_from_u64((k * 10_000 + e) as u64);
        for trial in 0..2000 {
            let payload: Vec<u8> = (0..k).map(|_| rng.gen_range(0..2u8)).collect();
            // From clean to hopeless: the decision paths differ.
            let sigma = [0.5f32, 2.0, 4.0, 8.0][trial % 4];
            let mut llrs: Vec<f32> = (code.encode(&payload).iter())
                .map(|&b| (1.0 - 2.0 * f32::from(b)) * 4.0 + sigma * rng.gen_range(-1.0..1.0))
                .collect();
            match trial % 10 {
                // Signed zeros, NaNs, saturated values and exact ties:
                // where a reformulated f/g or decision would first
                // diverge, and where the lemmas' side condition fails.
                3 | 7 => {
                    let specials = [0.0f32, -0.0, f32::NAN, 1.0e9, -1.0e9, 4.0, -4.0];
                    for l in llrs.iter_mut() {
                        if rng.gen_range(0..4) == 0 {
                            *l = specials[rng.gen_range(0..specials.len())];
                        }
                    }
                }
                5 => llrs.iter_mut().for_each(|l| *l = -l.abs() - 0.25),
                9 => llrs.fill([0.0, -0.0, -1.0e9, 1.0e9, f32::NAN][trial / 10 % 5]),
                _ => {}
            }
            let before = SHORT_CIRCUITS.get();
            let got = (code.decode_sc_with(llrs.iter().copied(), &mut scratch)).to_vec();
            let short = SHORT_CIRCUITS.get() - before;
            let want = decode_oracle(&code, &llrs);
            assert_eq!(got, want, "k={k} e={e} trial={trial}");
            let alone = code.codeword_with(llrs.iter().copied(), &mut scratch);
            assert_eq!(alone.is_some(), short == 1, "k={k} e={e} trial={trial}");
            assert!(alone.is_none_or(|bits| bits == want));
            // What the receiver decodes, as `deselect_into` hands it over,
            // past the punctured head.
            let mut mother = Vec::new();
            ratematch::deselect_into(llrs.iter().copied(), code.n, code.kind, &mut mother);
            let head =
                [0, code.n - e.min(code.n)][usize::from(code.kind == RateMatchKind::Puncture)];
            let unclean = mother[head..].iter().any(|l| *l == 0.0 || l.is_nan());
            if sigma < 4.0 && trial % 10 < 3 {
                // Noise under the amplitude: the signs are the codeword's.
                assert_eq!(got, payload);
                assert_eq!(
                    short, 1,
                    "k={k} e={e} trial={trial}: a clean codeword walked"
                );
                *clean += 1;
            } else if unclean {
                assert_eq!(
                    short, 0,
                    "k={k} e={e} trial={trial}: ±0/NaN short-circuited"
                );
                *dirty += 1;
            }
        }
    }
    assert_eq!(taken.len(), 3, "Shorten, Puncture and Repeat all covered");
    assert!(taken
        .values()
        .all(|&(clean, dirty)| clean > 500 && dirty > 500));
}

/// The walker with no short-circuit before it: every plan branch
/// (rate-0 skip, resolved and descended rate-1 nodes, the four-leaf
/// unroll) on codewords, noise and the special values, for the cell's
/// masks and for masks no construction would pick.
#[test]
fn sc_walker_matches_the_oracle_on_any_mask() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(22);
    let mut masks: Vec<Vec<bool>> = (cell_code_grid().into_iter())
        .map(|(k, e)| PolarCode::new(k, e).info_mask)
        .collect();
    for n in [4usize, 8, 32, 128, 512] {
        masks.push(vec![true; n]);
        masks.push(vec![false; n]);
        // Runs of information and frozen inputs of every alignment.
        for run in [1usize, 3, 4, 8, 20] {
            masks.push((0..n).map(|i| i / run % 2 == 1).collect());
            masks.push((0..n).map(|_| rng.gen_range(0..run + 1) > 0).collect());
        }
    }
    let mut sc = decode::ScScratch::default();
    for mask in masks {
        let plan = decode::Plan::compile(&mask);
        let decide = |x: &[u32]| {
            encode::polar_transform(&x.iter().map(|x| (x >> 31) as u8).collect::<Vec<_>>())
        };
        for trial in 0..300 {
            let mut llrs: Vec<f32> = (0..mask.len())
                .map(|_| rng.gen_range(-8.0f32..8.0))
                .collect();
            if trial % 3 == 0 {
                let specials = [0.0f32, -0.0, f32::NAN, 1.0e9, -1.0e9, f32::INFINITY];
                for l in llrs.iter_mut() {
                    if rng.gen_range(0..8) == 0 {
                        *l = specials[rng.gen_range(0..specials.len())];
                    }
                }
            }
            let want = sc_decode_oracle(&llrs, &mask);
            assert_eq!(decide(decode::sc_decode(&llrs, &plan, &mut sc)), want);
        }
    }
}

/// The order as the parent computed it on every call: a direct sort
/// with the weights re-derived inside the comparator.
fn direct_sort(n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| {
        polarization_weight(a)
            .total_cmp(&polarization_weight(b))
            .then(a.cmp(&b))
    });
    idx
}

#[test]
fn table_order_equals_the_direct_sort_at_every_length() {
    for n in 1..=1 << ratematch::N_MAX_DCI {
        assert_eq!(reliability_order(n), direct_sort(n), "n={n}");
    }
}

/// The accumulation as it was first written — `out[i % n] += l` — and
/// the pass-at-a-time one, to the bit: signed zeros (`0.0 + -0.0` is
/// `+0.0`), saturated values, every remainder of `e` by `n`.
#[test]
fn repeat_by_passes_equals_the_modulo_loop_bitwise() {
    let mut x = 0x9E37_79B9u32;
    for (e, n) in [(400, 128), (864, 512), (1728, 512), (512, 512), (513, 512)] {
        let llrs: Vec<f32> = (0..e)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let specials = [0.0, -0.0, 1.0e9, -1.0e9];
                match x >> 29 {
                    0 => specials[(x >> 8) as usize % 4],
                    _ => (x >> 8) as f32 / (1 << 20) as f32 - 8.0,
                }
            })
            .collect();
        let mut want = vec![0.0f32; n];
        for (i, l) in llrs.iter().enumerate() {
            want[i % n] += l;
        }
        let bits = |v: &[f32]| v.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        let mut got = vec![7.0; 3]; // stale content must not survive
        ratematch::deselect_into(llrs.iter().copied(), n, RateMatchKind::Repeat, &mut got);
        assert_eq!(bits(&got), bits(&want), "e={e} n={n}");
    }
}

/// Both entry points against the bodies they replaced: clean codewords,
/// 1–3 flipped bits anywhere (so also confined to the high 8 CRC bits),
/// the right RNTI, its neighbours, the recovered one and random ones,
/// every length from nothing to past the longest DCI.
#[test]
fn syndrome_entry_points_equal_the_bodies_they_replaced() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(20);
    for trial in 0..20_000 {
        let payload: Vec<u8> = (0..trial % 90).map(|_| rng.gen_range(0..2u8)).collect();
        let rnti: u16 = [0, 1, 0xFFFF, rng.gen()][trial % 4];
        let mut cw = dci_attach_crc(&payload, rnti);
        for _ in 0..[0, 0, 1, 2, 3][trial % 5] {
            let at = rng.gen_range(0..cw.len());
            cw[at] ^= 1;
        }
        if trial % 7 == 0 {
            cw.truncate(rng.gen_range(0..30));
        }
        let recovered = dci_recover_rnti(&cw);
        assert_eq!(recovered, recover_rnti_oracle(&cw), "{cw:?}");
        let tried = [
            rnti,
            rnti ^ 1,
            rnti ^ 0x8000,
            recovered.unwrap_or(7),
            rng.gen(),
        ];
        for r in tried {
            let got = dci_check_crc(&cw, r).map(<[u8]>::to_vec);
            assert_eq!(got, check_crc_oracle(&cw, r), "{cw:?} rnti {r:#x}");
        }
    }
}

/// The corner initialisers plus a seeded sample of the 31-bit space.
fn c_inits() -> Vec<u32> {
    let mut x = 0x2545_F491u32;
    let sample = (0..200).map(move |_| {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        x
    });
    [0, 1, 0x7FFF_FFFF, 0xFFFF_FFFF]
        .into_iter()
        .chain(sample)
        .collect()
}

/// Lengths straddling the word (28), the register (31), a machine word
/// and the longest PDCCH level.
const LENGTHS: [usize; 14] = [0, 1, 27, 28, 29, 30, 31, 32, 33, 56, 57, 863, 864, 865];

#[test]
fn word_stepping_equals_the_serial_generator() {
    for c_init in c_inits() {
        for len in LENGTHS {
            let serial = SerialGold::new(c_init).take_bits(len);
            assert_eq!(gold_bits(c_init, len), serial, "{c_init:#x} × {len}");
            let mut scrambled = vec![0u8; len];
            scramble_in_place(&mut scrambled, c_init);
            assert_eq!(scrambled, serial, "scramble {c_init:#x} × {len}");
        }
    }
}

#[test]
fn skip_and_interleaved_reads_equal_serial_stepping() {
    for c_init in c_inits() {
        let serial = SerialGold::new(c_init).take_bits(1000);
        for n in LENGTHS {
            let mut g = GoldSequence::new(c_init);
            g.skip(n);
            assert_eq!(g.take_bits(100), serial[n..n + 100], "{c_init:#x} skip {n}");
        }
        // Single bits between word reads of every phase.
        let mut g = GoldSequence::new(c_init);
        let mut got = Vec::new();
        for n in LENGTHS.into_iter().filter(|n| *n < 60) {
            got.push(g.next_bit());
            got.extend(g.take_bits(n));
        }
        assert_eq!(got, serial[..got.len()], "{c_init:#x} interleaved");
    }
}
