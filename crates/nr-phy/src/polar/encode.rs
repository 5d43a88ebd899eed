//! The Arikan polar transform `x = u · F^{⊗n}` with `F = [[1,0],[1,1]]`.
//!
//! Implemented as the standard in-place butterfly over GF(2), natural bit
//! order (no bit-reversal permutation — encoder and decoder agree on the
//! ordering, which is all that matters for correctness end-to-end).

/// Apply the polar transform in natural order. `u.len()` must be a power of
/// two. Returns the codeword `x`.
pub fn polar_transform(u: &[u8]) -> Vec<u8> {
    let n = u.len();
    assert!(
        n.is_power_of_two(),
        "polar transform length must be a power of two"
    );
    let mut x = u.to_vec();
    let mut half = 1;
    while half < n {
        for start in (0..n).step_by(half * 2) {
            for i in start..start + half {
                x[i] ^= x[i + half];
            }
        }
        half *= 2;
    }
    x
}

/// [`polar_transform`] of the `n` bits packed into `words`, position `i` at
/// bit `i % 64` of word `i / 64`, in place: the stages shorter than a word
/// are a shift and a mask inside every word, the longer ones XORs of whole
/// words. `n` is a power of two; bits past it stay zero.
pub fn polar_transform_words(words: &mut [u64], n: usize) {
    /// The positions whose index has bit `log2 half` clear, per stage.
    const LOW: [u64; 6] = [
        0x5555_5555_5555_5555,
        0x3333_3333_3333_3333,
        0x0F0F_0F0F_0F0F_0F0F,
        0x00FF_00FF_00FF_00FF,
        0x0000_FFFF_0000_FFFF,
        0x0000_0000_FFFF_FFFF,
    ];
    assert!(n.is_power_of_two() && n <= 64 * words.len());
    for (stage, low) in LOW.iter().enumerate().take_while(|(s, _)| 1 << s < n) {
        for w in words[..n.div_ceil(64)].iter_mut() {
            *w ^= (*w >> (1 << stage)) & low;
        }
    }
    for half in [1, 2, 4].into_iter().take_while(|half| 64 * half < n) {
        for i in (0..n / 64).filter(|i| i & half == 0) {
            words[i] ^= words[i + half];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transform_is_involution() {
        // F^{⊗n} is its own inverse over GF(2).
        let u: Vec<u8> = (0..64).map(|i| ((i * 3 + 1) % 2) as u8).collect();
        assert_eq!(polar_transform(&polar_transform(&u)), u);
    }

    #[test]
    fn transform_is_linear() {
        let a: Vec<u8> = (0..32).map(|i| ((i / 2) % 2) as u8).collect();
        let b: Vec<u8> = (0..32).map(|i| ((i / 5) % 2) as u8).collect();
        let sum: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        let ta = polar_transform(&a);
        let tb = polar_transform(&b);
        let tsum: Vec<u8> = ta.iter().zip(&tb).map(|(x, y)| x ^ y).collect();
        assert_eq!(polar_transform(&sum), tsum);
    }

    #[test]
    fn packed_transform_equals_the_byte_transform_at_every_length() {
        let mut x = 0x2545_F491u32;
        for n in (1..=9).map(|log| 1usize << log) {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let bits: Vec<u8> = (0..n)
                .map(|i| (x.rotate_left(i as u32 * 7) & 1) as u8)
                .collect();
            let mut words = [0u64; 8];
            for (i, &b) in bits.iter().enumerate() {
                words[i / 64] |= u64::from(b) << (i % 64);
            }
            polar_transform_words(&mut words, n);
            let unpacked = (0..n).map(|i| (words[i / 64] >> (i % 64)) as u8 & 1);
            assert!(unpacked.eq(polar_transform(&bits)), "n = {n}");
        }
    }

    #[test]
    fn size_two_kernel() {
        // x0 = u0 ^ u1, x1 = u1.
        assert_eq!(polar_transform(&[1, 0]), vec![1, 0]);
        assert_eq!(polar_transform(&[0, 1]), vec![1, 1]);
        assert_eq!(polar_transform(&[1, 1]), vec![0, 1]);
    }

    #[test]
    fn lower_triangular_property() {
        // With natural ordering, x_i depends only on u_j for j ≥ i: setting
        // u_j = 0 for all j ≥ m forces x_i = 0 for all i ≥ m. This property
        // is what makes tail-shortening in the rate matcher sound.
        let n = 64;
        let m = 40;
        let mut u = vec![0u8; n];
        for (i, v) in u.iter_mut().enumerate().take(m) {
            *v = ((i * 7 + 1) % 2) as u8;
        }
        let x = polar_transform(&u);
        assert!(x[m..].iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        polar_transform(&[0, 1, 1]);
    }
}
