//! Successive-cancellation (SC) polar decoding: the `O(N log N)`
//! workhorse NR-Scope runs on every PDCCH candidate. LLR convention:
//! positive ⇔ bit 0.

/// The check-node ("f") update: `f(a,b) = sign(a)·sign(b)·min(|a|,|b|)`
/// (min-sum approximation of the boxplus operator).
#[inline]
fn f_op(a: f32, b: f32) -> f32 {
    a.signum() * b.signum() * a.abs().min(b.abs())
}

/// The bit-node ("g") update: `g(a,b,u) = b + (1-2u)·a`.
#[inline]
fn g_op(a: f32, b: f32, u: u8) -> f32 {
    if u == 0 {
        b + a
    } else {
        b - a
    }
}

/// Plain SC decoding. `llrs.len()` must equal `info_mask.len()` and be a
/// power of two. Returns the decoded input vector `u` (frozen positions are
/// zero).
pub fn sc_decode(llrs: &[f32], info_mask: &[bool]) -> Vec<u8> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polar::encode::polar_transform;

    fn to_llrs(bits: &[u8], amp: f32) -> Vec<f32> {
        bits.iter()
            .map(|&b| if b == 0 { amp } else { -amp })
            .collect()
    }

    fn make_mask(n: usize, info: &[usize]) -> Vec<bool> {
        let mut m = vec![false; n];
        for &i in info {
            m[i] = true;
        }
        m
    }

    #[test]
    fn sc_decodes_noiseless_codeword() {
        let n = 64;
        let info: Vec<usize> = (32..64).collect();
        let mask = make_mask(n, &info);
        let mut u = vec![0u8; n];
        for (j, &i) in info.iter().enumerate() {
            u[i] = ((j * 3 + 1) % 2) as u8;
        }
        let x = polar_transform(&u);
        let decoded = sc_decode(&to_llrs(&x, 5.0), &mask);
        assert_eq!(decoded, u);
    }

    #[test]
    fn frozen_positions_always_decode_zero() {
        let n = 32;
        let mask = make_mask(n, &[31]);
        // Garbage LLRs: frozen bits must still come out zero.
        let llrs: Vec<f32> = (0..n)
            .map(|i| if i % 2 == 0 { -3.0 } else { 2.0 })
            .collect();
        let u = sc_decode(&llrs, &mask);
        for (i, &b) in u.iter().enumerate() {
            if i != 31 {
                assert_eq!(b, 0, "frozen bit {i}");
            }
        }
    }

    #[test]
    fn f_and_g_operators() {
        assert_eq!(f_op(2.0, -3.0), -2.0);
        assert_eq!(f_op(-1.0, -4.0), 1.0);
        assert_eq!(g_op(2.0, 3.0, 0), 5.0);
        assert_eq!(g_op(2.0, 3.0, 1), 1.0);
    }
}
