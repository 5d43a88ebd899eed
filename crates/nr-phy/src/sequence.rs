//! Pseudo-random (Gold) sequence generation, 38.211 §5.2.1.
//!
//! Every scrambling operation in NR — PDCCH payload scrambling, DMRS
//! generation, PDSCH scrambling — derives from one length-31 Gold sequence
//! parameterised by a 31-bit `c_init`. The generator is
//!
//! ```text
//! x1(n+31) = (x1(n+3) + x1(n)) mod 2              x1 init: 1,0,0,...,0
//! x2(n+31) = (x2(n+3) + x2(n+2) + x2(n+1) + x2(n)) mod 2   x2 init: c_init
//! c(n)     = (x1(n + Nc) + x2(n + Nc)) mod 2      Nc = 1600
//! ```

/// Offset into the m-sequences where the output sequence starts.
pub const NC: usize = 1600;

/// Bits one word step yields: a register holds `x(n)…x(n+30)` and the
/// recurrences reach back 31 and forward 3, so `x(n+31)…x(n+58)` are all
/// functions of the current register.
const WORD: usize = 28;

/// The `x1` (or `x2`) register `k ≤ 28` bits on: bit i of `f` is the new
/// `x(n+31+i)`, and `k` of them are shifted in. `k = 1` is the bit-serial
/// step of the spec.
#[inline]
const fn shifted(s: u32, x2: bool, k: usize) -> u32 {
    debug_assert!(1 <= k && k <= WORD);
    let f1 = (s >> 3) ^ s;
    let f = if x2 { f1 ^ (s >> 2) ^ (s >> 1) } else { f1 };
    ((s >> k) | (f << (31 - k))) & 0x7FFF_FFFF
}

/// `Nc` bit-serial steps from state `s`: what the tables below are built
/// with.
const fn warm_up(mut s: u32, x2: bool) -> u32 {
    let mut n = 0;
    while n < NC {
        s = shifted(s, x2, 1);
        n += 1;
    }
    s
}

/// `x1` after the warm-up: its initial state is fixed, so a constant.
const X1_WARM: u32 = warm_up(1, false);

/// `x2` after the warm-up from each single-bit initial state. The LFSR is
/// linear over GF(2), so the warmed-up register of any `c_init` is the XOR
/// of the entries its set bits select.
const X2_WARM_BASIS: [u32; 31] = {
    let mut basis = [0; 31];
    let mut i = 0;
    while i < 31 {
        basis[i] = warm_up(1 << i, true);
        i += 1;
    }
    basis
};

/// Iterator-style Gold sequence generator.
///
/// Construction places both LFSRs past the `Nc` warm-up so that `next_bit`
/// yields `c(0), c(1), …` directly.
#[derive(Debug, Clone)]
pub struct GoldSequence {
    x1: u32,
    x2: u32,
}

impl GoldSequence {
    /// Create a generator for the given `c_init` (only the low 31 bits are
    /// used, matching the spec's 31-bit initialiser).
    pub fn new(c_init: u32) -> GoldSequence {
        let mut x2 = 0;
        let mut rest = c_init & 0x7FFF_FFFF;
        while rest != 0 {
            x2 ^= X2_WARM_BASIS[rest.trailing_zeros() as usize];
            rest &= rest - 1;
        }
        GoldSequence { x1: X1_WARM, x2 }
    }

    /// Step past the next `k ≤ 28` bits.
    #[inline]
    fn advance(&mut self, k: usize) {
        (self.x1, self.x2) = (shifted(self.x1, false, k), shifted(self.x2, true, k));
    }

    /// Hand `f` the next `n` bits in order, up to 28 at a time: a word
    /// whose bit `j` is the `j`-th of them, and how many it holds.
    #[inline]
    pub(crate) fn for_each_word(&mut self, n: usize, mut f: impl FnMut(u32, usize)) {
        let mut left = n;
        while left > 0 {
            let k = left.min(WORD);
            f(self.x1 ^ self.x2, k);
            self.advance(k);
            left -= k;
        }
    }

    /// Produce the next scrambling bit `c(n)`.
    #[inline]
    pub fn next_bit(&mut self) -> u8 {
        let out = ((self.x1 ^ self.x2) & 1) as u8;
        self.advance(1);
        out
    }

    /// Produce the next `n` bits as a vector.
    pub fn take_bits(&mut self, n: usize) -> Vec<u8> {
        let mut bits = Vec::with_capacity(n);
        self.for_each_word(n, |w, k| bits.extend((0..k).map(|j| ((w >> j) & 1) as u8)));
        bits
    }

    /// Skip `n` bits: a fast-forward for offset-indexed sequences, 28 bits
    /// per step and nothing generated.
    pub fn skip(&mut self, n: usize) {
        self.for_each_word(n, |_, _| {});
    }
}

/// Generate `len` bits of the Gold sequence for `c_init` in one call.
pub fn gold_bits(c_init: u32, len: usize) -> Vec<u8> {
    GoldSequence::new(c_init).take_bits(len)
}

/// XOR-scramble `bits` in place with the Gold sequence for `c_init`.
pub fn scramble_in_place(bits: &mut [u8], c_init: u32) {
    let (n, mut bits) = (bits.len(), bits.iter_mut());
    GoldSequence::new(c_init).for_each_word(n, |w, k| {
        (bits.by_ref().take(k).enumerate()).for_each(|(j, b)| *b ^= ((w >> j) & 1) as u8);
    });
}

/// `c_init` for PDCCH data scrambling (38.211 §7.3.2.3):
/// `(n_rnti · 2^16 + n_id) mod 2^31`. For a UE-specific search space the
/// gNB may configure `n_id`/`n_rnti`; for the common search space they
/// default to the cell id and 0.
pub fn pdcch_scrambling_cinit(n_rnti: u16, n_id: u16) -> u32 {
    (((n_rnti as u32) << 16) + n_id as u32) & 0x7FFF_FFFF
}

/// `c_init` for the PDCCH DMRS (38.211 §7.4.1.3.1) for a given symbol:
/// `(2^17 (14·ns + l + 1)(2·N_id + 1) + 2·N_id) mod 2^31`.
pub fn pdcch_dmrs_cinit(slot: usize, symbol: usize, n_id: u16) -> u32 {
    let ns = slot as u64;
    let l = symbol as u64;
    let nid = n_id as u64;
    ((((1u64 << 17) * (14 * ns + l + 1) * (2 * nid + 1) + 2 * nid) % (1u64 << 31)) & 0x7FFF_FFFF)
        as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SerialGold;

    #[test]
    fn warm_up_tables_equal_sixteen_hundred_serial_steps() {
        // `x1` starts from 1 whatever `c_init` is; `x2` is `c_init`.
        assert_eq!(X1_WARM, SerialGold::new(0).x1);
        for (i, &basis) in X2_WARM_BASIS.iter().enumerate() {
            assert_eq!(basis, SerialGold::new(1 << i).x2, "basis state {i}");
        }
    }

    #[test]
    fn sequence_is_deterministic() {
        let a = gold_bits(0x12345, 256);
        let b = gold_bits(0x12345, 256);
        assert_eq!(a, b);
    }

    #[test]
    fn different_cinit_gives_different_sequence() {
        assert_ne!(gold_bits(1, 128), gold_bits(2, 128));
    }

    #[test]
    fn scramble_is_involution() {
        let orig: Vec<u8> = (0..200).map(|i| (i % 2) as u8).collect();
        let mut x = orig.clone();
        scramble_in_place(&mut x, 0xABCDE);
        assert_ne!(x, orig);
        scramble_in_place(&mut x, 0xABCDE);
        assert_eq!(x, orig);
    }

    #[test]
    fn skip_matches_take() {
        let mut a = GoldSequence::new(77);
        let mut b = GoldSequence::new(77);
        let bits = a.take_bits(100);
        b.skip(60);
        assert_eq!(b.take_bits(40), bits[60..].to_vec());
    }

    #[test]
    fn sequence_is_balanced() {
        // A Gold sequence is near-balanced; over 10⁴ bits the ones-density
        // must be close to 1/2 for any init.
        for c_init in [1u32, 0x4601_0000, 0x7FFF_FFFF] {
            let bits = gold_bits(c_init, 10_000);
            let ones: usize = bits.iter().map(|&b| b as usize).sum();
            assert!(
                (ones as f64 / 10_000.0 - 0.5).abs() < 0.02,
                "c_init={c_init:#x} ones={ones}"
            );
        }
    }

    #[test]
    fn cinit_formulas_stay_in_31_bits() {
        assert!(pdcch_scrambling_cinit(0xFFFF, 1007) <= 0x7FFF_FFFF);
        assert!(pdcch_dmrs_cinit(159, 13, 1007) <= 0x7FFF_FFFF);
    }

    #[test]
    fn cached_gold_matches_uncached() {
        for c_init in [1u32, 0x4601_007B, 0x7FFF_FFFF] {
            assert_eq!(*gold_bits_cached(c_init, 93), gold_bits(c_init, 93));
            // Second call hits the cache and must agree too.
            assert_eq!(*gold_bits_cached(c_init, 93), gold_bits(c_init, 93));
        }
    }

    #[test]
    fn dmrs_cinit_distinguishes_symbols_and_slots() {
        let a = pdcch_dmrs_cinit(0, 0, 500);
        let b = pdcch_dmrs_cinit(0, 1, 500);
        let c = pdcch_dmrs_cinit(1, 0, 500);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}

/// Key: (c_init, length). Value: the generated sequence, shared.
type GoldCacheMap = std::collections::HashMap<(u32, usize), std::rc::Rc<Vec<u8>>>;

thread_local! {
    /// Per-thread memo of generated sequences. Blind decoding re-derives
    /// the same descrambling sequences for every candidate × RNTI
    /// hypothesis; a hit is a map lookup, a miss generates and unpacks the
    /// whole sequence to one byte per bit again.
    static GOLD_CACHE: std::cell::RefCell<GoldCacheMap> =
        std::cell::RefCell::new(GoldCacheMap::new());
}

/// Upper bound on cached sequences per thread (entries are ~100 B; this
/// bounds the cache to a few MB even with thousands of tracked UEs).
const GOLD_CACHE_CAP: usize = 16_384;

/// Cached variant of [`gold_bits`] for hot decode loops. Returns a shared
/// handle; contents are identical to `gold_bits(c_init, len)`.
pub fn gold_bits_cached(c_init: u32, len: usize) -> std::rc::Rc<Vec<u8>> {
    GOLD_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(seq) = cache.get(&(c_init, len)) {
            return seq.clone();
        }
        if cache.len() >= GOLD_CACHE_CAP {
            cache.clear();
        }
        let seq = std::rc::Rc::new(gold_bits(c_init, len));
        cache.insert((c_init, len), seq.clone());
        seq
    })
}

thread_local! {
    /// Per-thread memo of [`scrambling_syndrome_cached`] by (c_init,
    /// length): what turns a rejected RNTI hypothesis on a captured
    /// codeword into a lookup and an XOR.
    static SCRAMBLING_SYNDROMES: std::cell::RefCell<std::collections::HashMap<(u32, usize), u32>> =
        Default::default();
}

/// [`crate::crc::dci_scrambling_syndrome`] of `gold_bits(c_init, len)`,
/// memoised like [`gold_bits_cached`] (`None` under 24 bits).
pub fn scrambling_syndrome_cached(c_init: u32, len: usize) -> Option<u32> {
    SCRAMBLING_SYNDROMES.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(syndrome) = cache.get(&(c_init, len)) {
            return Some(*syndrome);
        }
        if cache.len() >= GOLD_CACHE_CAP {
            cache.clear();
        }
        let syndrome = crate::crc::dci_scrambling_syndrome(&gold_bits(c_init, len))?;
        cache.insert((c_init, len), syndrome);
        Some(syndrome)
    })
}
