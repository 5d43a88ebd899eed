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
//! ([`PolarCode::codeword_with`], with the lemma that makes it exact). The
//! sign bits are packed straight from the received LLRs, sixteen a step,
//! at their mother-code positions ([`PolarCode::hard_word`]): only
//! repetition, whose copies add, is de-rate-matched first; a punctured head
//! or a shortened tail is a run of zero bits, which is what its LLRs' signs
//! would be. The transform is linear, so a sign flip of the LLRs — another
//! scrambling — moves that word by an XOR ([`PolarCode::flip_word`]).

pub mod construction;
pub mod decode;
pub mod encode;
pub mod ratematch;

use ratematch::RateMatchKind;

/// 64-bit words of the longest mother code's hard word.
const MAX_WORDS: usize = (1 << ratematch::N_MAX_DCI) / 64;

/// A mother code's `n` bits packed, position `i` at bit `i % 64` of word
/// `i / 64`: what [`PolarCode::hard_word`] and [`PolarCode::flip_word`]
/// return.
pub type HardWord = [u64; MAX_WORDS];

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
        self.decode_sc_with(llrs, &mut scratch).to_vec()
    }

    /// [`PolarCode::decode_sc`] in `scratch`: nothing is allocated once the
    /// scratch has grown to the longest code it has served. The `k` payload
    /// bits live in `scratch` until its next use.
    ///
    /// The LLRs are de-rate-matched and the SC walk is run only when
    /// [`PolarCode::codeword_with`] cannot answer for it.
    pub fn decode_sc_with<'a>(&self, llrs: &[f32], scratch: &'a mut DecodeScratch) -> &'a [u8] {
        let v = self.hard_word(llrs, scratch);
        if v.is_none_or(|v| self.codeword_of(&v, scratch).is_none()) {
            let mother = &mut scratch.mother;
            ratematch::deselect_into(llrs, self.n, self.kind, mother);
            let x = decode::sc_decode(mother, &self.plan, &mut scratch.sc);
            let mut u = pack_at(x, 0, |x| x != 0);
            encode::polar_transform_words(&mut u, self.n);
            self.payload_into(&u, &mut scratch.payload);
        }
        &scratch.payload
    }

    /// What [`PolarCode::decode_sc_with`] returns, when the hard decisions
    /// on `llrs` are a codeword already and say so reliably; `None` when
    /// only the SC walk can tell: [`PolarCode::codeword_of`] the
    /// [`PolarCode::hard_word`].
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
    /// Each rate matching meets the conditions by construction, and under
    /// two of them the condition can be checked on the received LLRs.
    /// *Puncture*: the head's LLRs are the +0 that `deselect_into` fills in
    /// (sign bit clear) and its inputs are pre-frozen; past it lie the
    /// received LLRs. *Shorten*: the received LLRs come first, and the
    /// tail's `1e9` is a sign-clean 0 at positions whose inputs are
    /// pre-frozen, and a zero tail of `h` is a zero tail of `v` (`F^{⊗n}` is
    /// lower triangular). *Repeat*: the test is made on the accumulated
    /// LLRs, which are what SC decodes.
    pub fn codeword_with<'a>(
        &self,
        llrs: &[f32],
        scratch: &'a mut DecodeScratch,
    ) -> Option<&'a [u8]> {
        let v = self.hard_word(llrs, scratch)?;
        self.codeword_of(&v, scratch)
    }

    /// The lemma's `v` for `llrs`; `None` when an LLR past the head is ±0
    /// or NaN. The received LLRs are read in place — their signs land at
    /// `head + i` of the mother code — except under Repeat, where `scratch`
    /// accumulates them first. It depends on the code only through its
    /// mother layout (`n`, `kind`) and `e`.
    pub fn hard_word(&self, llrs: &[f32], scratch: &mut DecodeScratch) -> Option<HardWord> {
        assert_eq!(llrs.len(), self.e, "LLR length must equal e");
        let received = match self.kind {
            RateMatchKind::Repeat => {
                let mother = &mut scratch.mother;
                ratematch::deselect_into(llrs, self.n, self.kind, mother);
                &mother[..]
            }
            RateMatchKind::Puncture | RateMatchKind::Shorten => llrs,
        };
        // (Not `all`: this way the scan is branch-free and vectorises.)
        let clean = (received.iter()).fold(true, |c, &l| c & decode::sign_clean(l));
        if !clean {
            return None;
        }
        // On a clean LLR `l < 0.0` is its sign bit.
        let mut v = pack_at(received, self.head, |l| l < 0.0);
        encode::polar_transform_words(&mut v, self.n);
        Some(v)
    }

    /// The payload of the hard word `v`, into `scratch`, when `v` is zero
    /// at every frozen input past the head: the lemma's conclusion.
    pub fn codeword_of<'a>(
        &self,
        v: &HardWord,
        scratch: &'a mut DecodeScratch,
    ) -> Option<&'a [u8]> {
        let frozen = v.iter().zip(&self.frozen_past_head);
        if frozen.fold(0, |any, (v, f)| any | (v & f)) != 0 {
            return None;
        }
        self.payload_into(v, &mut scratch.payload);
        #[cfg(test)]
        crate::oracle::SHORT_CIRCUITS.set(crate::oracle::SHORT_CIRCUITS.get() + 1);
        Some(&scratch.payload)
    }

    /// What negating the LLRs that `flips` marks does to the hard word:
    /// `hard_word(flipped) = hard_word(llrs) ⊕ flip_word(flips)`, with
    /// `None` on both sides together, since negation keeps `|l|`. `F^{⊗n}`
    /// is linear, and a received LLR's sign lands at `head + i` of the
    /// mother code (the head is `0` when shortened). `None` under Repeat,
    /// where a flipped copy need not flip the sign of the sum it joins.
    pub fn flip_word(&self, flips: impl ExactSizeIterator<Item = bool>) -> Option<HardWord> {
        assert_eq!(flips.len(), self.e, "flip length must equal e");
        if self.kind == RateMatchKind::Repeat {
            return None;
        }
        let mut w = [0; MAX_WORDS];
        for (p, flip) in (self.head..).zip(flips) {
            w[p / 64] |= u64::from(flip) << (p % 64);
        }
        encode::polar_transform_words(&mut w, self.n);
        Some(w)
    }

    /// The information bits of the packed input vector `u`, in place of
    /// `payload`'s.
    fn payload_into(&self, u: &HardWord, payload: &mut Vec<u8>) {
        let bit = |&p: &usize| (u[p / 64] >> (p % 64)) as u8 & 1;
        payload.clear();
        payload.extend(self.info_positions.iter().map(bit));
    }
}

/// `one(v)` of up to `64 · MAX_WORDS − head` values, packed from position
/// `head` on: value `i` at bit `p % 64` of word `p / 64`, `p = head + i`.
/// Sixteen values a step, each step's bits shifted into place whole.
fn pack_at<T: Copy>(vals: &[T], head: usize, one: impl Fn(T) -> bool) -> HardWord {
    let bits =
        |vals: &[T]| (vals.iter().enumerate()).fold(0, |b, (i, &v)| b | u32::from(one(v)) << i);
    let (steps, tail) = vals.as_chunks::<16>();
    let tail = (!tail.is_empty()).then(|| bits(tail));
    let steps = steps.iter().map(|step| bits(step)).chain(tail);
    let mut words = [0u64; MAX_WORDS];
    for (p, bits) in (head..).step_by(16).zip(steps) {
        let placed = u128::from(bits) << (p % 64);
        words[p / 64] |= placed as u64;
        if let Some(next) = words.get_mut(p / 64 + 1) {
            *next |= (placed >> 64) as u64;
        }
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
