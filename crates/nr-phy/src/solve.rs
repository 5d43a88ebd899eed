//! Which C-RNTI makes a codeword valid, as one GF(2) solve: the PDCCH's
//! `c_init = (n_RNTI·2^16 + n_ID) mod 2^31` (38.211 §7.3.2.3) enters the
//! Gold sequence linearly, so a polar hard word's flip and a CRC syndrome
//! are linear in the RNTI's bits (bit 15 flips nothing), whatever the PCI.

use crate::crc::dci_scrambling_syndrome;
use crate::polar::{ratematch::RateMatchKind, DecodeScratch, PolarCode};
use crate::sequence::{gold_bits, pdcch_scrambling_cinit};

/// `Σ x_b·image_b = target` on the checked bits, in the bits `x_b` of an
/// RNTI, whose images are independent there; a vector is `W` words.
#[derive(Debug, Clone)]
pub struct RntiSolve<const W: usize> {
    checked: [u64; W],
    /// The images, fully reduced on the checked bits: each with the word
    /// and shift of its pivot, which no other row sets, and its `x`.
    rows: Vec<([u64; W], usize, u32, u16)>,
}

impl<const W: usize> RntiSolve<W> {
    /// The system whose unknown `b` has image `images[b]`, if independent.
    fn new(images: Vec<[u64; W]>, checked: [u64; W]) -> Option<RntiSolve<W>> {
        let mut rows: Vec<([u64; W], usize, u32, u16)> = Vec::new();
        for (b, image) in images.iter().enumerate() {
            let (mut v, mut x) = (*image, 1 << b);
            for (row, w, s, sum) in &rows {
                if v[*w] >> s & 1 == 1 {
                    (v, x) = (std::array::from_fn(|i| v[i] ^ row[i]), x ^ sum);
                }
            }
            let w = (0..W).position(|w| v[w] & checked[w] != 0)?;
            let s = (v[w] & checked[w]).trailing_zeros();
            for (row, _, _, sum) in rows.iter_mut().filter(|r| r.0[w] >> s & 1 == 1) {
                (*row, *sum) = (std::array::from_fn(|i| row[i] ^ v[i]), *sum ^ x);
            }
            rows.push((v, w, s, x));
        }
        Some(RntiSolve { checked, rows })
    }

    /// The `x` whose image is `target` on the checked bits — the rows at its
    /// pivots sum to it, or nothing does — and `target` XOR that image. A
    /// mask picks the rows: a pivot bit is a coin toss to a branch.
    pub fn solve(&self, target: &[u64; W]) -> Option<(u16, [u64; W])> {
        let (mut v, mut x) = (*target, 0);
        for (row, w, s, sum) in &self.rows {
            let pick = 0u64.wrapping_sub(target[*w] >> s & 1);
            v = std::array::from_fn(|i| v[i] ^ row[i] & pick);
            x ^= sum & pick as u16;
        }
        (0..W)
            .all(|w| v[w] & self.checked[w] == 0)
            .then_some((x, v))
    }
}

/// A polar code's system in the 15 low RNTI bits, on the frozen inputs past
/// the punctured head: RNTI `r`'s scrambling moves a hard word by the image
/// of `r & 0x7FFF`, so the one that makes it a codeword solves it.
pub type FlipSolve = RntiSolve<{ crate::polar::MAX_WORDS }>;

impl FlipSolve {
    /// `code`'s system, bit `b`'s image the hard word of ±1s negative where
    /// `b` alone flips the sequence; `None` under Repeat (a flipped copy need
    /// not flip the sum it joins) and where the images are dependent.
    pub fn polar(code: &PolarCode) -> Option<FlipSolve> {
        (code.kind != RateMatchKind::Repeat).then_some(())?;
        let (common, scratch) = (gold_bits(0, code.e), &mut DecodeScratch::default());
        let mut image = |b: u16| {
            let own = gold_bits(pdcch_scrambling_cinit(1 << b, 0), code.e);
            let sign = |(o, c): (&u8, &u8)| if o == c { 1.0 } else { -1.0 };
            let signs: Vec<f32> = own.iter().zip(&common).map(sign).collect();
            code.hard_word(&signs, scratch)
        };
        let images = (0..15).map(&mut image).collect::<Option<_>>()?;
        RntiSolve::new(images, code.frozen_past_head)
    }
}

/// The CRC keys' system at a codeword length, in the 16 RNTI bits, read a
/// byte of its 24-bit target at a time (three lookups, not sixteen steps):
/// per byte value, the rows whose pivots it sets, summed, `x` from bit 32.
#[derive(Debug, Clone)]
pub struct KeySolve(Box<[[u64; 256]; 3]>);

impl KeySolve {
    /// The system at `n` bits: a codeword of raw syndrome `raw` checks against
    /// RNTI `r` when `r ⊕ L(seq_r) = raw` (`L` is [`dci_scrambling_syndrome`]),
    /// so when `r` solves `raw ⊕ L(seq_0)`, bit `b`'s image `1 << b ⊕ L(seq_b)
    /// ⊕ L(seq_0)`. `None` under 24 bits and from 334, where keys collide.
    pub fn crc_keys(n: usize) -> Option<KeySolve> {
        let l = |b: u16| dci_scrambling_syndrome(&gold_bits(pdcch_scrambling_cinit(b, 0), n));
        let image = |b: usize| Some([u64::from(1 << b ^ l(1 << b)? ^ l(0)?)]);
        let keys = RntiSolve::new((0..16).map(image).collect::<Option<_>>()?, [0xFF_FFFF])?;
        let mut bytes = Box::new([[0; 256]; 3]);
        for ([row], _, s, x) in keys.rows {
            let set = (0..256).filter(|v| v >> (s % 8) & 1 == 1);
            set.for_each(|v| bytes[s as usize / 8][v] ^= row | u64::from(x) << 32);
        }
        Some(KeySolve(bytes))
    }

    /// The RNTI whose key is the 24-bit `target`, if any.
    pub fn solve(&self, target: u32) -> Option<u16> {
        let at = |k: usize| self.0[k][(target >> (8 * k) & 0xFF) as usize];
        let sum = at(0) ^ at(1) ^ at(2);
        (sum as u32 == target).then_some((sum >> 32) as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// RNTI `rnti`'s PDCCH scrambling of `e` bits under `pci`.
    fn rnti_scrambling(rnti: u16, pci: u16, e: usize) -> Vec<u8> {
        gold_bits(pdcch_scrambling_cinit(rnti, pci), e)
    }

    /// Rank 15 on every code the presets' UE DCIs produce (payloads of
    /// 34–50 bits, K 58–74, at aggregation levels 1, 2 and 4); none at
    /// E = 108 and K = 94, the first code whose rank falls, nor under
    /// Repeat.
    #[test]
    fn flip_basis_has_rank_15_on_every_preset_ue_code() {
        for (k, e) in (58..=74).flat_map(|k| [108, 216, 432].map(|e| (k, e))) {
            let code = PolarCode::new(k, e);
            assert_ne!(code.kind, RateMatchKind::Repeat, "k={k} e={e}");
            assert!(FlipSolve::polar(&code).is_some(), "k={k} e={e}");
        }
        assert!(FlipSolve::polar(&PolarCode::new(94, 108)).is_none());
        assert!(FlipSolve::polar(&PolarCode::new(93, 108)).is_some());
        assert!(FlipSolve::polar(&PolarCode::new(64, 864)).is_none());
    }

    /// The key system's kernel is trivial at every length from 25 to 333
    /// bits, and not at 334, the first length at which two C-RNTIs share a
    /// key under any PCI.
    #[test]
    fn crc_keys_have_a_trivial_kernel_up_to_333_bits() {
        for n in 25..=333 {
            assert!(KeySolve::crc_keys(n).is_some(), "{n} bits");
        }
        assert!(KeySolve::crc_keys(334).is_none());
        assert!(KeySolve::crc_keys(23).is_none());
    }

    /// A UE's codeword, received clean and descrambled as the cell's, has a
    /// hard word that solves to its RNTI's low 15 bits under any PCI; with
    /// one of its bits flipped, to nothing or to a scrambling that makes a
    /// codeword of it. Either way the solve's word is the hard word of the
    /// LLRs sign-flipped by that scrambling.
    #[test]
    fn the_solve_finds_the_rnti_a_codeword_was_scrambled_with() {
        let mut rng = StdRng::seed_from_u64(46);
        let mut scratch = DecodeScratch::default();
        for (k, e) in [(58, 108), (74, 216), (64, 432), (93, 108)] {
            let code = PolarCode::new(k, e);
            let solve = FlipSolve::polar(&code).expect("rank 15");
            for _ in 0..50 {
                let (rnti, pci) = (rng.gen_range(1..0xFFF0), rng.gen_range(0..1008));
                let payload: Vec<u8> = (0..k).map(|_| rng.gen_range(0..2)).collect();
                let (cell, own) = (rnti_scrambling(0, pci, e), rnti_scrambling(rnti, pci, e));
                let bits = code.encode(&payload).into_iter().zip(own).zip(&cell);
                let mut llrs: Vec<f32> = bits
                    .map(|((b, s), c)| 1.0 - 2.0 * f32::from(b ^ s ^ c))
                    .collect();
                for flipped_bit in [false, true] {
                    if flipped_bit {
                        let at = rng.gen_range(0..e);
                        llrs[at] = -llrs[at];
                    }
                    let hard = code.hard_word(&llrs, &mut scratch).expect("clean");
                    let Some((x, moved)) = solve.solve(&hard) else {
                        assert!(flipped_bit, "k={k} e={e}: the UE's own codeword");
                        continue;
                    };
                    assert!(flipped_bit || x == rnti & 0x7FFF, "k={k} e={e}");
                    let flips = rnti_scrambling(x, pci, e).into_iter().zip(&cell);
                    let flip = |(l, (s, c)): (&f32, (u8, &u8))| if s == *c { *l } else { -l };
                    let flipped: Vec<f32> = llrs.iter().zip(flips).map(flip).collect();
                    assert_eq!(code.hard_word(&flipped, &mut scratch), Some(moved));
                    assert!(code.codeword_of(&moved, &mut scratch).is_some());
                }
            }
        }
    }

    /// A captured codeword's raw syndrome, offset by the common sequence's,
    /// solves to the RNTI that sent it under any PCI.
    #[test]
    fn a_raw_syndrome_solves_to_the_rnti_that_sent_it() {
        let mut rng = StdRng::seed_from_u64(38);
        for n in [58, 74, 333] {
            let keys = KeySolve::crc_keys(n).expect("rank 16");
            for _ in 0..50 {
                let (rnti, pci) = (rng.gen_range(1..0xFFF0), rng.gen_range(0..1008));
                let payload: Vec<u8> = (0..n - 24).map(|_| rng.gen_range(0..2)).collect();
                let mut bits = crate::crc::dci_attach_crc(&payload, rnti);
                crate::sequence::scramble_in_place(&mut bits, pdcch_scrambling_cinit(rnti, pci));
                let raw = crate::crc::dci_syndrome(&bits).expect("24 bits");
                let common = dci_scrambling_syndrome(&rnti_scrambling(0, pci, n)).expect("24");
                assert_eq!(keys.solve(raw ^ common), Some(rnti), "{n} bits");
            }
        }
    }
}
