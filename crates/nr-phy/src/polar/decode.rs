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
//! x          n sign masks (0 or 1 << 31), zeroed per decode
//! ```
//!
//! A node of length `len` reads its own LLRs (the caller's slice at the
//! root, its parent's stack segment below) and owns the `len − 1` floats
//! after them: the first `len/2` hold the f-stage output for the left
//! child and are then overwritten by the g-stage output for the right
//! child — the left child's LLRs are dead once its partial codeword `x` is
//! known. Only `x` is kept: the decisions `u` are the polar transform of
//! the root's `x`, which the caller takes once, on packed bits.
//!
//! What the walker does at a node it reads from a [`Plan`], compiled once
//! per code from the information mask: every node down to the four-leaf
//! ones is rate-0 (all frozen), rate-1 (all information) or mixed, stored
//! as a binary heap (root 1, children `2i` and `2i + 1`), and every
//! four-leaf node has its leaves' mask in the form the decisions AND with.
//!
//! * A **rate-0** child is never visited: its codeword is zero whatever its
//!   LLRs are (under a rate-0 left child the g-stage adds, `b + a`).
//! * A **rate-1** node none of whose LLRs is ±0 or NaN is resolved without
//!   descending: its codeword is the hard decision on its LLRs (*rate-1
//!   lemma*, below). With such an LLR present the walker descends as at a
//!   mixed node — both children are rate-1 again, so there is no second
//!   kernel.
//! * A **four-leaf** node of any mask is decided in straight-line,
//!   branch-free code: at hopeless SNR a decision is a coin toss, and a
//!   mispredicted branch costs more than the node.
//!
//! *Rate-1 lemma.* Let every input of a node carry information and every
//! LLR `L_i` be neither ±0 nor NaN, and let `h_i = [L_i < 0]`. Then SC's
//! re-encoded codeword of the node is `h`. At a leaf that is the decision
//! rule. Above it, with halves `(a, b)`: `f(a_i, b_i)` has the sign
//! `h_a ⊕ h_b` and the magnitude `min(|a_i|, |b_i|)`, neither zero nor NaN,
//! so by induction the left codeword is `h_a ⊕ h_b`; the g-stage is then
//! `b_i + a_i` exactly where the two agree in sign and `b_i − a_i` where
//! they differ — the sign of `b_i` and a magnitude of at least `|b_i|`
//! either way (±∞ included: equal signs never meet as `∞ − ∞`) — so the
//! right codeword is `h_b`, and the node's `[x_l ⊕ x_r, x_r] = [h_a, h_b]`.
//! A zero breaks the chain (`f(+0, −3) = −0` decides 0 where `h_a ⊕ h_b`
//! is 1), hence the side condition. `PolarCode::codeword_with` is the same
//! induction from the root with the frozen set in it.
//!
//! Every decision is the `< 0.0` test on an LLR that is bit for bit the one
//! the textbook recursion computes (or, at a resolved rate-1 node, proven
//! equal to its decision): `f_op` and `g_op` are sign-bit arithmetic
//! that agrees with the textbook's float expressions on every input but
//! the payload of a NaN, which no decision reads. That recursion
//! (`crate::oracle::sc_decode_oracle`, two `Vec`s per node, every node
//! visited) is compiled for tests only, as the oracle the kernel is
//! compared with bit for bit.

const SIGN: u32 = 1 << 31;

/// Whether `l` is neither ±0 nor NaN: its sign bit then *is* the decision
/// `l < 0.0`, and stays it through f and g (module docs).
#[inline]
pub(super) fn sign_clean(l: f32) -> bool {
    // Magnitude bits 1..=0x7F80_0000 are the subnormals up to ±∞.
    (l.to_bits() & !SIGN).wrapping_sub(1) < 0x7F80_0000
}

/// The check-node ("f") update: `f(a,b) = sign(a)·sign(b)·min(|a|,|b|)`
/// (min-sum approximation of the boxplus operator) — the smaller
/// magnitude under the XOR of the sign bits, NaN when either is.
#[inline]
fn f_op(a: f32, b: f32) -> f32 {
    let (ma, mb) = (a.abs(), b.abs());
    // (Not `f32::min`, which would pick the other operand over a NaN.)
    let m = if ma < mb { ma } else { mb };
    let sign = (a.to_bits() ^ b.to_bits()) & SIGN;
    let nan = 0u32.wrapping_sub(u32::from(a.is_nan() | b.is_nan()));
    f32::from_bits(m.to_bits() | sign | nan)
}

/// The bit-node ("g") update: `g(a,b,u) = b + (1-2u)·a`, `u` a sign mask
/// that flips `a` (IEEE 754 defines `b − a` as `b + (−a)`).
#[inline]
fn g_op(a: f32, b: f32, u: u32) -> f32 {
    b + f32::from_bits(a.to_bits() ^ u)
}

/// How much of a subtree carries information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rate {
    /// All inputs frozen.
    Zero,
    /// All inputs information.
    One,
    Mixed,
}

/// The SC walk of one code, compiled from its information mask.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The [`Rate`] of every tree node of four leaves or more,
    /// heap-indexed: root 1, the children of `i` at `2i` and `2i + 1`
    /// (entry 0 is unused), the four-leaf nodes in the upper half.
    nodes: Vec<Rate>,
    /// Per four-leaf node, left to right: [`SIGN`] at an information leaf,
    /// the mask a decision is ANDed with.
    quads: Vec<[u32; 4]>,
}

impl Plan {
    /// Classify the tree over `info_mask` (a power of two ≥ 4 long).
    pub fn compile(info_mask: &[bool]) -> Plan {
        let n_quads = info_mask.len() / 4;
        assert!(n_quads.is_power_of_two() && n_quads * 4 == info_mask.len());
        let quads: Vec<[u32; 4]> = (info_mask.chunks_exact(4))
            .map(|m| std::array::from_fn(|i| if m[i] { SIGN } else { 0 }))
            .collect();
        let mut nodes = vec![Rate::Mixed; 2 * n_quads];
        for (node, quad) in nodes[n_quads..].iter_mut().zip(&quads) {
            *node = match quad {
                [0, 0, 0, 0] => Rate::Zero,
                [SIGN, SIGN, SIGN, SIGN] => Rate::One,
                _ => Rate::Mixed,
            };
        }
        for i in (1..n_quads).rev() {
            let (left, right) = (nodes[2 * i], nodes[2 * i + 1]);
            nodes[i] = if left == right { left } else { Rate::Mixed };
        }
        Plan { nodes, quads }
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
    /// Re-encoded partial codewords: per code position a sign mask, set
    /// for a 1 (the form the g-stage flips an LLR with).
    x: Vec<u32>,
}

/// Plain SC decoding of `llrs` (`plan`'s length). Returns the codeword SC
/// settles on, a sign mask per position — the decoded input vector `u`
/// (frozen positions zero) is its polar transform. It lives in `scratch`
/// until its next use.
pub fn sc_decode<'a>(llrs: &[f32], plan: &Plan, scratch: &'a mut ScScratch) -> &'a [u32] {
    let n = llrs.len();
    assert_eq!(n, 4 * plan.quads.len(), "the plan of another length");
    scratch.llr_stack.resize(n - 1, 0.0);
    // Zeroed, so an all-frozen subtree has nothing to write.
    scratch.x.clear();
    scratch.x.resize(n, 0);
    let ScScratch { llr_stack, x } = scratch;
    if plan.nodes[1] != Rate::Zero {
        descend(n, (plan, 1), llrs, llr_stack, x);
    }
    x
}

/// [`sc_node`] over a node `len` long, compiled for that length.
fn descend(len: usize, at: (&Plan, usize), llrs: &[f32], stack: &mut [f32], x: &mut [u32]) {
    match len {
        4 => sc_node::<4>(at, llrs, stack, x),
        8 => sc_node::<8>(at, llrs, stack, x),
        16 => sc_node::<16>(at, llrs, stack, x),
        32 => sc_node::<32>(at, llrs, stack, x),
        64 => sc_node::<64>(at, llrs, stack, x),
        128 => sc_node::<128>(at, llrs, stack, x),
        256 => sc_node::<256>(at, llrs, stack, x),
        512 => sc_node::<512>(at, llrs, stack, x),
        _ => unreachable!("no polar code has a node of {len} inputs"),
    }
}

/// SC over the subtree at heap index `node` of `plan`, `LEN` long and not
/// rate-0 (one instance per length, so every loop below has a constant trip
/// count): `llrs` and `x` are its own `LEN` entries, `stack` the `LEN − 1`
/// floats below it (layout in the module docs). Fills `x` with the
/// subtree's re-encoded codeword (what the parent's g-stage needs). It
/// arrives zeroed, which is all a rate-0 child needs, so such a child is
/// neither visited nor given any LLRs.
fn sc_node<const LEN: usize>(
    (plan, node): (&Plan, usize),
    llrs: &[f32],
    stack: &mut [f32],
    x: &mut [u32],
) {
    let (llrs, x) = (&llrs[..LEN], &mut x[..LEN]);
    // (A fold, not `all`: branch-free over `LEN` lanes.)
    if plan.nodes[node] == Rate::One && llrs.iter().fold(true, |c, &l| c & sign_clean(l)) {
        // The rate-1 lemma: the codeword is the hard word.
        for (x, l) in x.iter_mut().zip(llrs) {
            *x = l.to_bits() & SIGN;
        }
        return;
    }
    if let &[l0, l1, l2, l3] = llrs {
        let info = plan.quads[node - plan.quads.len()];
        x.copy_from_slice(&sc_quad([l0, l1, l2, l3], info));
        return;
    }
    let half = LEN / 2;
    let (a, b) = llrs.split_at(half);
    let (child, below) = stack.split_at_mut(half);
    let (x_l, x_r) = x.split_at_mut(half);
    let (left, right) = (plan.nodes[2 * node], plan.nodes[2 * node + 1]);
    if left != Rate::Zero {
        // Left child sees f(a_i, b_i).
        for ((c, &a), &b) in child.iter_mut().zip(a).zip(b) {
            *c = f_op(a, b);
        }
        descend(half, (plan, 2 * node), child, below, x_l);
    }
    if right != Rate::Zero {
        // Right child sees g(a_i, b_i, x_left_i): under a rate-0 left
        // child, `b + a`.
        for (((c, &a), &b), &xl) in child.iter_mut().zip(a).zip(b).zip(x_l.iter()) {
            *c = g_op(a, b, xl);
        }
        descend(half, (plan, 2 * node + 1), child, below, x_r);
        // Recombine: x_parent = [x_left ⊕ x_right, x_right].
        for (l, &r) in x_l.iter_mut().zip(x_r.iter()) {
            *l ^= r;
        }
    }
}

/// SC over four leaves, `info` their [`Plan`] masks: the re-encoded
/// codeword, the three inner nodes unrolled.
#[inline]
fn sc_quad(l: [f32; 4], info: [u32; 4]) -> [u32; 4] {
    let bit = |v: f32, info: u32| 0u32.wrapping_sub(u32::from(v < 0.0)) & info;
    // Two leaves: decisions (u0, u1), codeword [u0 ⊕ u1, u1].
    let pair = |a: f32, b: f32, i0: u32, i1: u32| {
        let u0 = bit(f_op(a, b), i0);
        let u1 = bit(g_op(a, b, u0), i1);
        (u0 ^ u1, u1)
    };
    let (x0, x1) = pair(f_op(l[0], l[2]), f_op(l[1], l[3]), info[0], info[1]);
    let (x2, x3) = pair(g_op(l[0], l[2], x0), g_op(l[1], l[3], x1), info[2], info[3]);
    [x0 ^ x2, x1 ^ x3, x2, x3]
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

    /// The decisions `u` of [`sc_decode`].
    fn decode(llrs: &[f32], mask: &[bool]) -> Vec<u8> {
        let mut scratch = ScScratch::default();
        let x = sc_decode(llrs, &Plan::compile(mask), &mut scratch);
        polar_transform(&x.iter().map(|x| (x >> 31) as u8).collect::<Vec<_>>())
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
        assert_eq!(decode(&to_llrs(&x, 5.0), &mask), u);
    }

    #[test]
    fn frozen_positions_always_decode_zero() {
        let n = 32;
        let mask = make_mask(n, &[31]);
        // Garbage LLRs: frozen bits must still come out zero.
        let llrs: Vec<f32> = (0..n)
            .map(|i| if i % 2 == 0 { -3.0 } else { 2.0 })
            .collect();
        for (i, &b) in decode(&llrs, &mask).iter().enumerate() {
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
        assert_eq!(g_op(2.0, 3.0, SIGN), 1.0);
    }
}
