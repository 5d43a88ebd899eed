//! Polar coding for the NR control channels (38.212 §5.3.1).
//!
//! The PDCCH (and PBCH) protect their payloads with a CRC-aided polar code.
//! This module provides:
//!
//! * [`construction`] — code construction: reliability ordering via the
//!   β-expansion (polarization-weight) method. 3GPP publishes a fixed
//!   reliability table derived from the same principle; using the
//!   β-expansion directly keeps the implementation self-contained and is
//!   transparent to every consumer because encoder and decoder share it
//!   (documented in `DESIGN.md`). The order is sorted once per process,
//!   for the longest mother code; [`PolarCode::new`] only walks it.
//! * [`encode`] — the Arikan butterfly transform `x = u·F^{⊗n}`.
//! * [`ratematch`] — mother-code length selection and
//!   puncture/shorten/repeat rate matching (spec §5.3.1/§5.4.1 selection
//!   rule; the sub-block interleaver is replaced by natural-order
//!   puncturing/shortening — see `DESIGN.md`).
//! * [`decode`] — successive-cancellation (SC) decoding over LLRs: one
//!   allocation-free kernel over an LLR stack of `N − 1` floats (the child
//!   LLRs of every tree depth, `N/2 + N/4 + … + 1`) and two `N`-byte bit
//!   buffers, skipping all-frozen subtrees. The textbook recursion it
//!   replaced, `decode::sc_decode_oracle`, is compiled for tests only and
//!   is what the kernel is compared with bit for bit.
//!
//! The [`PolarCode`] type ties these together for a (K, E) configuration;
//! a [`DecodeScratch`] carries the decoder's buffers from one decode to
//! the next, across codes.

pub mod construction;
pub mod decode;
pub mod encode;
pub mod ratematch;

use ratematch::RateMatchKind;

/// A configured polar code carrying payloads of `k` bits in `e` channel bits.
#[derive(Debug, Clone)]
pub struct PolarCode {
    /// Information length (payload including any CRC bits).
    pub k: usize,
    /// Rate-matched output length (channel bits).
    pub e: usize,
    /// Mother code length `N = 2^n`.
    pub n: usize,
    /// Rate-matching mode chosen by the spec selection rule.
    pub kind: RateMatchKind,
    /// `true` at input positions carrying information bits (length `n`).
    pub info_mask: Vec<bool>,
    /// Information positions in increasing order (length `k`).
    pub info_positions: Vec<usize>,
}

impl PolarCode {
    /// Configure a code for `k` information bits in `e` transmitted bits.
    ///
    /// Panics if the configuration is infeasible (`k` ≥ `e` or `k` = 0).
    pub fn new(k: usize, e: usize) -> PolarCode {
        assert!(k > 0, "polar code needs at least one information bit");
        assert!(k < e, "polar code requires k < e (k={k}, e={e})");
        let n = ratematch::mother_code_length(k, e);
        let kind = ratematch::rate_match_kind(k, e, n);
        let pre_frozen = ratematch::pre_frozen_positions(n, e, kind);
        let info_positions = construction::info_positions(n, k, &pre_frozen);
        let mut info_mask = vec![false; n];
        for &p in &info_positions {
            info_mask[p] = true;
        }
        PolarCode {
            k,
            e,
            n,
            kind,
            info_mask,
            info_positions,
        }
    }

    /// Encode `payload` (length `k`) to `e` channel bits.
    pub fn encode(&self, payload: &[u8]) -> Vec<u8> {
        assert_eq!(payload.len(), self.k, "payload length must equal k");
        let mut u = vec![0u8; self.n];
        for (bit, &pos) in payload.iter().zip(&self.info_positions) {
            u[pos] = *bit;
        }
        let x = encode::polar_transform(&u);
        ratematch::select(&x, self.e, self.kind)
    }

    /// Decode `e` channel LLRs (convention `LLR > 0 ⇔ bit 0`) with plain
    /// successive cancellation. Returns the `k` payload bits.
    pub fn decode_sc(&self, llrs: &[f32]) -> Vec<u8> {
        let mut scratch = DecodeScratch::default();
        self.decode_sc_with(llrs.iter().copied(), &mut scratch)
            .to_vec()
    }

    /// [`PolarCode::decode_sc`] over an LLR iterator, in `scratch`: nothing
    /// is allocated once the scratch has grown to the longest code it has
    /// served. The `k` payload bits live in `scratch` until its next use.
    pub fn decode_sc_with<'a>(
        &self,
        llrs: impl ExactSizeIterator<Item = f32>,
        scratch: &'a mut DecodeScratch,
    ) -> &'a [u8] {
        assert_eq!(llrs.len(), self.e, "LLR length must equal e");
        let DecodeScratch {
            mother,
            sc,
            payload,
        } = scratch;
        ratematch::deselect_into(llrs, self.n, self.kind, mother);
        let u = decode::sc_decode(mother, &self.info_mask, sc);
        payload.clear();
        payload.extend(self.info_positions.iter().map(|&p| u[p]));
        payload
    }
}

/// Working memory of [`PolarCode::decode_sc_with`], reusable across codes
/// of any (K, E): a blind-decode scan keeps one for all its hypotheses.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    /// De-rate-matched mother-code LLRs (length `n`).
    mother: Vec<f32>,
    /// The SC kernel's LLR stack and bit buffers.
    sc: decode::ScScratch,
    /// The decoded payload bits (length `k`).
    payload: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bpsk_llrs(bits: &[u8], snr_linear: f32) -> Vec<f32> {
        // Noiseless BPSK mapping to LLRs for decoder tests.
        bits.iter()
            .map(|&b| if b == 0 { snr_linear } else { -snr_linear })
            .collect()
    }

    #[test]
    fn encode_decode_round_trip_noiseless() {
        for (k, e) in [
            (12, 54),
            (40, 108),
            (64, 108),
            (64, 216),
            (30, 432),
            (140, 864),
        ] {
            let code = PolarCode::new(k, e);
            let payload: Vec<u8> = (0..k).map(|i| ((i * 5 + 1) % 2) as u8).collect();
            let tx = code.encode(&payload);
            assert_eq!(tx.len(), e);
            let rx = code.decode_sc(&bpsk_llrs(&tx, 10.0));
            assert_eq!(rx, payload, "k={k} e={e} kind={:?}", code.kind);
        }
    }

    /// `decode_sc` as the parent computed it: de-rate-match, then the
    /// textbook recursion.
    fn decode_oracle(code: &PolarCode, llrs: &[f32]) -> Vec<u8> {
        let mut mother = Vec::new();
        ratematch::deselect_into(llrs.iter().copied(), code.n, code.kind, &mut mother);
        let u = decode::sc_decode_oracle(&mother, &code.info_mask);
        code.info_positions.iter().map(|&p| u[p]).collect()
    }

    #[test]
    fn sc_kernel_matches_the_oracle_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut kinds = std::collections::HashSet::new();
        let mut grid = construction::tests::cell_code_grid();
        grid.extend([(12, 54), (140, 864), (12, 400)]);
        grid.sort_unstable();
        grid.dedup();
        // One scratch for the whole grid: stale stack, `u` and `x` content
        // from a longer code must never leak into a shorter one's decode.
        let mut scratch = DecodeScratch::default();
        for (k, e) in grid {
            let code = PolarCode::new(k, e);
            kinds.insert(format!("{:?}", code.kind));
            let mut rng = StdRng::seed_from_u64((k * 10_000 + e) as u64);
            for trial in 0..2000 {
                let payload: Vec<u8> = (0..k).map(|_| rng.gen_range(0..2u8)).collect();
                // From clean to hopeless: the decision paths differ.
                let sigma = [0.5f32, 2.0, 4.0, 8.0][trial % 4];
                let mut llrs: Vec<f32> = (code.encode(&payload).iter())
                    .map(|&b| (1.0 - 2.0 * f32::from(b)) * 4.0 + sigma * rng.gen_range(-1.0..1.0))
                    .collect();
                match trial % 10 {
                    // Signed zeros, saturated values and exact ties: where
                    // a reformulated f/g or decision would first diverge.
                    3 | 7 => {
                        let specials = [0.0f32, -0.0, 1.0e9, -1.0e9, 4.0, -4.0];
                        for l in llrs.iter_mut() {
                            if rng.gen_range(0..4) == 0 {
                                *l = specials[rng.gen_range(0..specials.len())];
                            }
                        }
                    }
                    5 => llrs.iter_mut().for_each(|l| *l = -l.abs() - 0.25),
                    9 => llrs.fill([0.0, -0.0, -1.0e9, 1.0e9][trial / 10 % 4]),
                    _ => {}
                }
                let got = code.decode_sc_with(llrs.iter().copied(), &mut scratch);
                assert_eq!(
                    got,
                    decode_oracle(&code, &llrs),
                    "k={k} e={e} trial={trial}"
                );
            }
        }
        assert_eq!(kinds.len(), 3, "Shorten, Puncture and Repeat all covered");
    }

    #[test]
    fn all_zero_payload_gives_all_zero_codeword() {
        let code = PolarCode::new(32, 108);
        let tx = code.encode(&[0; 32]);
        assert!(tx.iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "k < e")]
    fn rejects_rate_one_or_more() {
        PolarCode::new(108, 108);
    }

    #[test]
    fn repetition_mode_used_when_e_exceeds_mother() {
        // Small K forces a small mother code; large E → repetition.
        let code = PolarCode::new(12, 400);
        assert_eq!(code.kind, RateMatchKind::Repeat);
        let payload = vec![1u8; 12];
        let tx = code.encode(&payload);
        let rx = code.decode_sc(&bpsk_llrs(&tx, 4.0));
        assert_eq!(rx, payload);
    }
}
