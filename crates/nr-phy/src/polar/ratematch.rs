//! Mother-code sizing and rate matching for the polar-coded channels.
//!
//! Follows the 38.212 §5.3.1 mode-selection rule (puncture vs shorten vs
//! repeat) and its mother-code length formula, but performs the bit
//! selection in natural code order instead of through the 32-block
//! sub-block interleaver. Both ends of this code base share the scheme, and
//! the natural-order variants keep the soundness arguments local:
//!
//! * **Shorten** (high rate, `K/E > 7/16`): transmit code bits `0..E`. The
//!   encoder freezes input bits `E..N`, which — because `F^{⊗n}` is lower
//!   triangular in natural order — forces code bits `E..N` to zero, so the
//!   receiver reconstructs them with infinite-confidence LLRs.
//! * **Puncture** (low rate): transmit code bits `N-E..N`; the receiver
//!   fills the head with zero LLRs, and the encoder pre-freezes the head
//!   input positions (the quasi-uniform-puncturing rule), which are exactly
//!   the inputs the punctured head observes most.
//! * **Repeat** (`E ≥ N`): transmit the codeword cyclically; the receiver
//!   accumulates LLRs modulo `N`, one pass of the codeword at a time.

/// Maximum mother-code exponent for DCI (N ≤ 512 per 38.212 §7.3.3).
pub const N_MAX_DCI: u32 = 9;

/// How the mother codeword is fitted to `E` channel bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateMatchKind {
    /// Transmit code bits `0..E`; bits `E..N` are known zero at the receiver.
    Shorten,
    /// Transmit code bits `N-E..N`; head LLRs are erased at the receiver.
    Puncture,
    /// Transmit the codeword cyclically until `E` bits are sent.
    Repeat,
}

/// Mother code length `N = 2^n` per the 38.212 §5.3.1 formula.
pub fn mother_code_length(k: usize, e: usize) -> usize {
    let log2e = (e as f64).log2().ceil() as u32;
    // If E is barely above a power of two and the rate is low, step down.
    let n1 = if (e as f64) <= 9.0 / 8.0 * f64::from(1u32 << (log2e - 1))
        && (k as f64) / (e as f64) < 9.0 / 16.0
    {
        log2e - 1
    } else {
        log2e
    };
    // Rate floor of 1/8: N never exceeds 8K (rounded up to a power of two).
    let n2 = (8.0 * k as f64).log2().ceil() as u32;
    let n = n1.min(n2).clamp(5, N_MAX_DCI);
    1usize << n
}

/// Decide the rate-matching mode for `(k, e)` against mother length `n`.
pub fn rate_match_kind(k: usize, e: usize, n: usize) -> RateMatchKind {
    if e >= n {
        RateMatchKind::Repeat
    } else if (k as f64) / (e as f64) <= 7.0 / 16.0 {
        RateMatchKind::Puncture
    } else {
        RateMatchKind::Shorten
    }
}

/// Input positions the encoder must freeze because of rate matching.
pub fn pre_frozen_positions(n: usize, e: usize, kind: RateMatchKind) -> Vec<usize> {
    match kind {
        RateMatchKind::Repeat => Vec::new(),
        // Tail-shortening: freezing u[E..N] zeroes x[E..N] (lower-triangular
        // transform), so the untransmitted bits are reconstructible.
        RateMatchKind::Shorten => (e..n).collect(),
        // Quasi-uniform puncturing: the punctured head x[0..N-E] renders the
        // head inputs unreliable; freeze them outright.
        RateMatchKind::Puncture => (0..n - e).collect(),
    }
}

/// Select the `e` transmitted bits from the mother codeword `x`.
pub fn select(x: &[u8], e: usize, kind: RateMatchKind) -> Vec<u8> {
    let n = x.len();
    match kind {
        RateMatchKind::Repeat => (0..e).map(|i| x[i % n]).collect(),
        RateMatchKind::Shorten => x[..e].to_vec(),
        RateMatchKind::Puncture => x[n - e..].to_vec(),
    }
}

/// Reassemble mother-code LLRs of length `n` from the received LLRs into
/// `out` (cleared first, so a reused buffer allocates nothing). The input
/// is an iterator so a caller can fuse a per-LLR step — the UE descrambling
/// sign flip — into this pass.
pub fn deselect_into(
    llrs: impl ExactSizeIterator<Item = f32>,
    n: usize,
    kind: RateMatchKind,
    out: &mut Vec<f32>,
) {
    let e = llrs.len();
    out.clear();
    match kind {
        RateMatchKind::Repeat => {
            // One pass of the codeword at a time: position `i` still adds
            // LLRs `i`, `i + n`, `i + 2n`, … to zero in that order.
            out.resize(n, 0.0);
            let mut llrs = llrs;
            while llrs.len() > 0 {
                for (acc, l) in out.iter_mut().zip(llrs.by_ref()) {
                    *acc += l;
                }
            }
        }
        RateMatchKind::Shorten => {
            out.extend(llrs);
            // Shortened bits are known zero: near-certain "bit = 0" evidence.
            // A large finite value (not f32::MAX) so that repeated g-function
            // additions in the SC decoder can never overflow to inf/NaN.
            out.resize(n, 1.0e9);
        }
        RateMatchKind::Puncture => {
            out.resize(n - e, 0.0);
            out.extend(llrs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deselect(llrs: &[f32], n: usize, kind: RateMatchKind) -> Vec<f32> {
        let mut out = vec![7.0; 3]; // stale content must not survive
        deselect_into(llrs.iter().copied(), n, kind, &mut out);
        out
    }

    #[test]
    fn dci_typical_sizes() {
        // A 64-bit DCI codeword (40 payload + 24 CRC) at aggregation level 1
        // (E = 108): rate 0.59 > 7/16 → shorten, N = 128.
        let n = mother_code_length(64, 108);
        assert_eq!(n, 128);
        assert_eq!(rate_match_kind(64, 108, n), RateMatchKind::Shorten);
        // Same payload at L = 4 (E = 432): N = 512, low rate → puncture.
        let n = mother_code_length(64, 432);
        assert_eq!(n, 512);
        assert_eq!(rate_match_kind(64, 432, n), RateMatchKind::Puncture);
        // L = 8 (E = 864) exceeds N_max = 512 → repetition.
        let n = mother_code_length(64, 864);
        assert_eq!(n, 512);
        assert_eq!(rate_match_kind(64, 864, n), RateMatchKind::Repeat);
    }

    #[test]
    fn mother_length_respects_rate_floor() {
        // Tiny K: N capped at 8K rounded up (here 2^7 for K=12).
        assert!(mother_code_length(12, 400) <= 128);
    }

    #[test]
    fn select_deselect_shorten_round_trip() {
        let x: Vec<u8> = (0..128).map(|i| ((i * 3) % 2) as u8).collect();
        let tx = select(&x, 108, RateMatchKind::Shorten);
        assert_eq!(tx.len(), 108);
        let llrs: Vec<f32> = tx
            .iter()
            .map(|&b| if b == 0 { 1.0 } else { -1.0 })
            .collect();
        let mother = deselect(&llrs, 128, RateMatchKind::Shorten);
        assert_eq!(mother.len(), 128);
        // Tail filled with strong (but finite, overflow-safe) bit-0 belief.
        assert!(mother[108..].iter().all(|&l| l > 1e6 && l.is_finite()));
    }

    #[test]
    fn select_deselect_puncture_round_trip() {
        let x: Vec<u8> = (0..128).map(|i| ((i / 7) % 2) as u8).collect();
        let tx = select(&x, 100, RateMatchKind::Puncture);
        assert_eq!(tx, x[28..].to_vec());
        let llrs: Vec<f32> = tx
            .iter()
            .map(|&b| if b == 0 { 2.0 } else { -2.0 })
            .collect();
        let mother = deselect(&llrs, 128, RateMatchKind::Puncture);
        assert!(
            mother[..28].iter().all(|&l| l == 0.0),
            "punctured head erased"
        );
        assert_eq!(&mother[28..], &llrs[..]);
    }

    #[test]
    fn repeat_accumulates_llrs() {
        let x = vec![0u8; 32];
        let tx = select(&x, 80, RateMatchKind::Repeat);
        assert_eq!(tx.len(), 80);
        let llrs = vec![1.0f32; 80];
        let mother = deselect(&llrs, 32, RateMatchKind::Repeat);
        // 80 = 2×32 + 16: first 16 positions see 3 copies, the rest 2.
        assert!(mother[..16].iter().all(|&l| (l - 3.0).abs() < 1e-6));
        assert!(mother[16..].iter().all(|&l| (l - 2.0).abs() < 1e-6));
    }
}
