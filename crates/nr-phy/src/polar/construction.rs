//! Polar code construction: reliability ordering by β-expansion.
//!
//! The polarization weight of input index `i` with binary expansion
//! `b_{n-1}…b_0` is `W(i) = Σ_j b_j · β^j` with `β = 2^{1/4}` — the method
//! the 3GPP universal reliability sequence was derived from (Huawei
//! R1-1708833). Larger weight ⇒ more reliable synthetic channel.
//!
//! A weight depends on the index alone, never on the code length, so the
//! order for a mother code of length `N` is the order for the longest one
//! filtered to indices `< N`. That one order is sorted once per process
//! (`reliability_table`); configuring a code only walks it.

use super::ratematch::N_MAX_DCI;
use std::sync::OnceLock;

/// Longest mother code any (K, E) selects (`mother_code_length` clamps to
/// it): the length the reliability table is sorted for.
const N_MAX: usize = 1 << N_MAX_DCI;

/// Polarization weight of one index.
pub fn polarization_weight(index: usize) -> f64 {
    let beta = 2f64.powf(0.25);
    let mut w = 0.0;
    let mut bit = 0u32;
    let mut v = index;
    while v != 0 {
        if v & 1 == 1 {
            w += beta.powi(bit as i32);
        }
        v >>= 1;
        bit += 1;
    }
    w
}

/// All indices `0..N_MAX` sorted by ascending reliability (least reliable
/// first). Ties (which occur only between identical weights of distinct
/// indices — rare under β-expansion) break by index for determinism.
/// Sorted on first use, immutable afterwards.
fn reliability_table() -> &'static [u16; N_MAX] {
    static TABLE: OnceLock<[u16; N_MAX]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let weights: Vec<f64> = (0..N_MAX).map(polarization_weight).collect();
        let mut idx: [u16; N_MAX] = std::array::from_fn(|i| i as u16);
        idx.sort_by(|&a, &b| {
            weights[a as usize]
                .total_cmp(&weights[b as usize])
                .then(a.cmp(&b))
        });
        idx
    })
}

/// All indices `0..n` sorted by ascending reliability (least reliable
/// first): the `2^N_MAX_DCI`-entry table filtered to `< n`.
///
/// Panics if `n` exceeds `2^N_MAX_DCI`.
pub fn reliability_order(n: usize) -> Vec<usize> {
    assert!(n <= N_MAX, "no reliability order beyond N = {N_MAX}");
    let table = reliability_table().iter().map(|&i| i as usize);
    table.filter(|&i| i < n).collect()
}

/// Choose the `k` information positions for a mother code of length `n`,
/// excluding `pre_frozen` positions (forced frozen by rate matching).
/// Returns the positions sorted ascending.
///
/// Panics if fewer than `k` positions remain after pre-freezing, or if `n`
/// exceeds `2^N_MAX_DCI`.
pub fn info_positions(n: usize, k: usize, pre_frozen: &[usize]) -> Vec<usize> {
    assert!(n <= N_MAX, "no reliability order beyond N = {N_MAX}");
    let mut frozen = vec![false; n];
    for &p in pre_frozen {
        frozen[p] = true;
    }
    // Walk from the most reliable end, taking k non-pre-frozen positions.
    let mut picked = vec![false; n];
    let mut n_picked = 0;
    let table = reliability_table().iter().rev().map(|&p| p as usize);
    for p in table.filter(|&p| p < n && !frozen[p]).take(k) {
        picked[p] = true;
        n_picked += 1;
    }
    assert!(
        n_picked == k,
        "not enough usable positions: n={n}, k={k}, pre_frozen={}",
        pre_frozen.len()
    );
    (0..n).filter(|&p| picked[p]).collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn weight_is_monotone_in_bit_count_at_same_positions() {
        // Adding a set bit strictly increases the weight.
        assert!(polarization_weight(0b1011) > polarization_weight(0b0011));
        assert!(polarization_weight(0b1111) > polarization_weight(0b0111));
    }

    #[test]
    fn index_zero_is_least_reliable_and_max_is_most() {
        let order = reliability_order(64);
        assert_eq!(order[0], 0, "all-frozen index 0 must be least reliable");
        assert_eq!(*order.last().unwrap(), 63, "index N-1 most reliable");
    }

    #[test]
    fn higher_bits_weigh_more() {
        // W(2^j) grows with j, so 32 > 16 > 8 in reliability.
        assert!(polarization_weight(32) > polarization_weight(16));
        assert!(polarization_weight(16) > polarization_weight(8));
    }

    #[test]
    fn order_is_a_permutation() {
        let order = reliability_order(128);
        let mut seen = vec![false; 128];
        for &i in &order {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    fn table_is_a_permutation_strictly_ordered_by_weight_then_index() {
        let table = reliability_table();
        let mut sorted = table.to_vec();
        sorted.sort_unstable();
        assert!(sorted.iter().copied().eq(0..N_MAX as u16), "permutation");
        // Strict: no two entries compare equal, so the order never depends
        // on the sort's stability. In exact arithmetic the 512 weights are
        // distinct (1, β, β², β³ are independent over ℚ), so an equal pair
        // could only be a rounding artefact — and would have to sit in
        // index order, the tie-break `reliability_table` documents.
        for w in table.windows(2) {
            let (a, b) = (w[0] as usize, w[1] as usize);
            let key = |i: usize| (polarization_weight(i), i);
            let (ka, kb) = (key(a), key(b));
            assert!(
                ka.0 < kb.0 || (ka.0 == kb.0 && ka.1 < kb.1),
                "{a} (w={}) must sort strictly before {b} (w={})",
                ka.0,
                kb.0
            );
        }
    }

    /// The (K, E) grid the cell really configures: both DCI payload sizes
    /// of the paper's presets (45/36 bits + CRC24) at the five aggregation
    /// levels, and the PBCH (36-bit MIB + CRC24 in 864 bits).
    pub(crate) fn cell_code_grid() -> Vec<(usize, usize)> {
        let mut grid: Vec<(usize, usize)> = [69usize, 60]
            .into_iter()
            .flat_map(|k| [108usize, 216, 432, 864, 1728].map(|e| (k, e)))
            .collect();
        grid.push((60, 864));
        grid
    }

    #[test]
    fn info_sets_of_the_cell_grid_match_the_parents() {
        // CRC-32 over (N as 16 bits, then the info mask) of every code in
        // the grid, generated on the commit before the table existed.
        let crc32 = crate::crc::Crc {
            poly: 0x04C1_1DB7,
            len: 32,
        };
        let mut bits = Vec::new();
        for (k, e) in cell_code_grid() {
            let code = crate::polar::PolarCode::new(k, e);
            bits.extend(crate::crc::crc_to_bits(code.n as u32, 16));
            let mut mask = vec![0u8; code.n];
            for &p in &code.info_positions {
                mask[p] = 1;
            }
            assert_eq!(mask.iter().map(|&b| b as usize).sum::<usize>(), k);
            bits.extend(mask);
        }
        assert_eq!(crc32.compute(&bits), 0x8005_2CC6);
    }

    #[test]
    fn info_positions_respect_pre_frozen() {
        let pf = [60usize, 61, 62, 63];
        let pos = info_positions(64, 16, &pf);
        assert_eq!(pos.len(), 16);
        for p in &pf {
            assert!(!pos.contains(p));
        }
        // Sorted ascending.
        assert!(pos.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn info_positions_prefer_reliable_indices() {
        let pos = info_positions(32, 4, &[]);
        // The four most reliable β-expansion indices of N=32 include 31 and 30.
        assert!(pos.contains(&31));
        assert!(pos.contains(&30));
    }

    #[test]
    #[should_panic(expected = "not enough usable positions")]
    fn over_freezing_panics() {
        let pf: Vec<usize> = (0..64).collect();
        info_positions(64, 1, &pf);
    }
}
