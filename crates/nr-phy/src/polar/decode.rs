//! Successive-cancellation (SC) polar decoding: the `O(N log N)`
//! workhorse NR-Scope runs on every PDCCH candidate. LLR convention:
//! positive ⇔ bit 0.
//!
//! One kernel, `sc_node`, walks the decoding tree depth first without
//! allocating. Its working memory is an [`ScScratch`]:
//!
//! ```text
//! llr_stack  [ n/2 floats | n/4 | … | 2 | 1 ]      n − 1 in all
//!              depth 1      2         …   log2 n
//! u, x       n bytes each, zeroed per decode
//! ```
//!
//! A node of length `len` reads its own LLRs (the caller's slice at the
//! root, its parent's stack segment below) and owns the `len − 1` floats
//! after them: the first `len/2` hold the f-stage output for the left
//! child and are then overwritten by the g-stage output for the right
//! child — the left child's LLRs are dead once its partial codeword `x` is
//! known. All-frozen (rate-0) subtrees are skipped outright; no other
//! node shortcut is taken, so every decision is the `< 0.0` test on an
//! LLR produced by the same `f_op`/`g_op` chain as the textbook recursion.
//! That recursion (`sc_decode_oracle`, two `Vec`s per node) is compiled
//! under `#[cfg(test)]` only, as the oracle the kernel is compared with
//! bit for bit.

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

/// Working memory of one SC decode, reused from call to call so the
/// kernel allocates nothing once the buffers have grown to the longest
/// mother code seen.
#[derive(Debug, Clone, Default)]
pub struct ScScratch {
    /// The LLR stack: `n − 1` floats, the child LLRs of every tree depth
    /// laid end to end (`n/2` for the root's children, then `n/4`, … 1).
    llr_stack: Vec<f32>,
    /// Decoded input vector `u` (frozen positions zero).
    u: Vec<u8>,
    /// Re-encoded partial codewords, one byte per code position.
    x: Vec<u8>,
}

/// Plain SC decoding. `llrs.len()` must equal `info_mask.len()` and be a
/// power of two. Returns the decoded input vector `u` (frozen positions are
/// zero), which lives in `scratch` until its next use.
pub fn sc_decode<'a>(llrs: &[f32], info_mask: &[bool], scratch: &'a mut ScScratch) -> &'a [u8] {
    let n = llrs.len();
    assert_eq!(n, info_mask.len());
    assert!(n.is_power_of_two());
    scratch.llr_stack.resize(n - 1, 0.0);
    // Zeroed, so an all-frozen subtree has nothing to write.
    scratch.u.clear();
    scratch.u.resize(n, 0);
    scratch.x.clear();
    scratch.x.resize(n, 0);
    let ScScratch { llr_stack, u, x } = scratch;
    sc_node(llrs, llr_stack, info_mask, u, x);
    u
}

/// SC over one subtree: `llrs`, `info_mask`, `u` and `x` are its own `len`
/// entries, `stack` the `len − 1` floats below it (layout in the module
/// docs). Fills `u` with decisions and `x` with the subtree's re-encoded
/// codeword (needed by the parent's g-stage). Both arrive zeroed, which is
/// all an all-frozen (rate-0) child needs: its decisions and codeword are
/// zero whatever its LLRs are, so it is neither visited nor given any.
fn sc_node(llrs: &[f32], stack: &mut [f32], info_mask: &[bool], u: &mut [u8], x: &mut [u8]) {
    let len = llrs.len();
    if len == 1 {
        let bit = u8::from(info_mask[0] && llrs[0] < 0.0);
        u[0] = bit;
        x[0] = bit;
        return;
    }
    let half = len / 2;
    let (a, b) = llrs.split_at(half);
    let (child, below) = stack.split_at_mut(half);
    let (mask_l, mask_r) = info_mask.split_at(half);
    let (u_l, u_r) = u.split_at_mut(half);
    let (x_l, x_r) = x.split_at_mut(half);
    if mask_l.contains(&true) {
        // Left child sees f(a_i, b_i).
        for ((c, &a), &b) in child.iter_mut().zip(a).zip(b) {
            *c = f_op(a, b);
        }
        sc_node(child, below, mask_l, u_l, x_l);
    }
    if mask_r.contains(&true) {
        // Right child sees g(a_i, b_i, x_left_i).
        for (((c, &a), &b), &xl) in child.iter_mut().zip(a).zip(b).zip(x_l.iter()) {
            *c = g_op(a, b, xl);
        }
        sc_node(child, below, mask_r, u_r, x_r);
        // Recombine: x_parent = [x_left ⊕ x_right, x_right].
        for (l, &r) in x_l.iter_mut().zip(x_r.iter()) {
            *l ^= r;
        }
    }
}

/// The textbook SC recursion, allocating its children's LLRs per node and
/// visiting every node: what [`sc_decode`] replaced, kept as its oracle.
#[cfg(test)]
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
#[cfg(test)]
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
        let mut scratch = ScScratch::default();
        let decoded = sc_decode(&to_llrs(&x, 5.0), &mask, &mut scratch);
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
        let mut scratch = ScScratch::default();
        let u = sc_decode(&llrs, &mask, &mut scratch);
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
