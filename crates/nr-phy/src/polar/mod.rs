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
//!   allocation-free walker over an LLR stack of `N − 1` floats (the child
//!   LLRs of every tree depth, `N/2 + N/4 + … + 1`) and the re-encoded
//!   codeword, steered by a [`decode::Plan`] compiled once per code —
//!   every node rate-0 (skipped), rate-1 (resolved by hard decision when
//!   its LLRs allow) or mixed. The textbook recursion it replaced,
//!   `crate::oracle::sc_decode_oracle`, is compiled for tests only and is
//!   what the walker is compared with bit for bit.
//!
//! The [`PolarCode`] type ties these together for a (K, E) configuration;
//! a [`DecodeScratch`] carries the decoder's buffers from one decode to
//! the next, across codes. A decode walks the tree only when it has to:
//! LLRs whose signs already spell a codeword — every cleanly received DCI —
//! are answered by a GF(2) transform of the packed sign bits
//! ([`PolarCode::codeword_with`], with the lemma that makes it exact).

pub mod construction;
pub mod decode;
pub mod encode;
pub mod ratematch;

use ratematch::RateMatchKind;

/// 64-bit words of the longest mother code's hard word.
const MAX_WORDS: usize = (1 << ratematch::N_MAX_DCI) / 64;

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
    /// The SC walk over `info_mask`, compiled.
    plan: decode::Plan,
    /// Code positions `0..head` are punctured: no LLR is received for them.
    head: usize,
    /// Bit `p % 64` of word `p / 64` set where input `p ≥ head` is frozen.
    frozen_past_head: [u64; MAX_WORDS],
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
        let head = match kind {
            RateMatchKind::Puncture => n - e,
            RateMatchKind::Shorten | RateMatchKind::Repeat => 0,
        };
        let mut frozen_past_head = [0; MAX_WORDS];
        for p in (head..n).filter(|&p| !info_mask[p]) {
            frozen_past_head[p / 64] |= 1 << (p % 64);
        }
        PolarCode {
            k,
            e,
            n,
            kind,
            plan: decode::Plan::compile(&info_mask),
            info_mask,
            info_positions,
            head,
            frozen_past_head,
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
    ///
    /// The SC walk is run only when [`PolarCode::codeword_with`] cannot
    /// answer for it.
    pub fn decode_sc_with<'a>(
        &self,
        llrs: impl ExactSizeIterator<Item = f32>,
        scratch: &'a mut DecodeScratch,
    ) -> &'a [u8] {
        self.deselect(llrs, scratch);
        if !self.hard_codeword(scratch) {
            let x = decode::sc_decode(&scratch.mother, &self.plan, &mut scratch.sc);
            let mut u = pack_signs(x, |x| x);
            encode::polar_transform_words(&mut u, self.n);
            self.payload_into(&u, &mut scratch.payload);
        }
        &scratch.payload
    }

    /// What [`PolarCode::decode_sc_with`] returns, when the hard decisions
    /// on `llrs` are a codeword already and say so reliably; `None` when
    /// only the SC walk can tell.
    ///
    /// *Codeword lemma.* De-rate-match `llrs` to the mother code; let none
    /// of its LLRs past the punctured head be ±0 or NaN, `h` be their sign
    /// bits, and `v = h·F^{⊗n}` (computed with zeros for the head, which
    /// `v` past the head does not depend on: `v_i` sums `h_j` over `j ⊇ i`,
    /// so `j ≥ i`). If `v` is zero at every frozen input past the head,
    /// SC decodes `v` there (and zero before). Induction over the tree, on
    /// "a node whose first `q` LLRs are ±0, whose first `q` inputs are
    /// frozen, whose other LLRs are sign-clean and whose `v` respects its
    /// frozen set re-encodes to `h` past `q`": the rate-1 lemma's step
    /// (`decode`'s module docs) with two additions — `f(±0, b) = ±0` hands
    /// the zeros to the left child with the same `q` (or all of them, when
    /// it is then all frozen and decides zero), and `g(±0, b, ·) = b`
    /// exactly, so the right child sees the signs of `b`. A frozen leaf
    /// past the head decides 0, which is `v` there by assumption.
    ///
    /// Each rate matching meets the conditions by construction. *Puncture*:
    /// the head's LLRs are the +0 `deselect_into` fills in and its inputs
    /// are pre-frozen. *Shorten*: the tail's `1e9` is a sign-clean 0 at
    /// positions whose inputs are pre-frozen, and a zero tail of `h` is a
    /// zero tail of `v` (`F^{⊗n}` is lower triangular). *Repeat*: the test
    /// is made on the accumulated LLRs, which are what SC decodes.
    pub fn codeword_with<'a>(
        &self,
        llrs: impl ExactSizeIterator<Item = f32>,
        scratch: &'a mut DecodeScratch,
    ) -> Option<&'a [u8]> {
        self.deselect(llrs, scratch);
        self.hard_codeword(scratch).then_some(&scratch.payload)
    }

    /// De-rate-match `llrs` into `scratch.mother`; the payload is cleared.
    fn deselect(&self, llrs: impl ExactSizeIterator<Item = f32>, scratch: &mut DecodeScratch) {
        assert_eq!(llrs.len(), self.e, "LLR length must equal e");
        ratematch::deselect_into(llrs, self.n, self.kind, &mut scratch.mother);
        scratch.payload.clear();
    }

    /// The codeword lemma on `scratch.mother`: whether it holds, the
    /// payload then filled in.
    fn hard_codeword(&self, scratch: &mut DecodeScratch) -> bool {
        // (Not `all`: this way the scan is branch-free and vectorises.)
        let received = scratch.mother[self.head..].iter();
        if !received.fold(true, |clean, &l| clean & decode::sign_clean(l)) {
            return false;
        }
        // The head's LLRs are +0: sign bit clear, as the lemma wants them.
        let mut v = pack_signs(&scratch.mother, f32::to_bits);
        encode::polar_transform_words(&mut v, self.n);
        let frozen = v.iter().zip(&self.frozen_past_head);
        if frozen.fold(0, |any, (v, f)| any | (v & f)) != 0 {
            return false;
        }
        self.payload_into(&v, &mut scratch.payload);
        #[cfg(test)]
        crate::oracle::SHORT_CIRCUITS.set(crate::oracle::SHORT_CIRCUITS.get() + 1);
        true
    }

    /// The information bits of the packed input vector `u`.
    fn payload_into(&self, u: &[u64; MAX_WORDS], payload: &mut Vec<u8>) {
        let bit = |&p: &usize| (u[p / 64] >> (p % 64)) as u8 & 1;
        payload.extend(self.info_positions.iter().map(bit));
    }
}

/// The sign bits (bit 31 of `bits(v)`) of up to `64 · MAX_WORDS` values,
/// packed: position `i` at bit `i % 64` of word `i / 64`.
fn pack_signs<T: Copy>(vals: &[T], bits: impl Fn(T) -> u32) -> [u64; MAX_WORDS] {
    let mut words = [0u64; MAX_WORDS];
    for (word, chunk) in words.iter_mut().zip(vals.chunks(64)) {
        let signs = chunk.iter().enumerate();
        *word = signs.fold(0, |w, (i, &v)| w | u64::from(bits(v) >> 31) << i);
    }
    words
}

/// Working memory of [`PolarCode::decode_sc_with`], reusable across codes
/// of any (K, E): a blind-decode scan keeps one for all its hypotheses.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    /// De-rate-matched mother-code LLRs (length `n`).
    mother: Vec<f32>,
    /// The SC walker's LLR stack and codeword.
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
