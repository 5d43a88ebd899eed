//! The slot resource grid: PRBs × OFDM symbols of complex resource elements.
//!
//! One grid holds one slot (14 symbols). Frequency indexing is by absolute
//! subcarrier within the carrier (0 at the lowest PRB), matching Fig 1 and
//! Fig 3 of the paper where DCIs point at PRB spans inside the grid.

use crate::complex::Cf32;
use crate::numerology::{SUBCARRIERS_PER_PRB, SYMBOLS_PER_SLOT};

/// One slot's worth of resource elements.
#[derive(Debug, Clone)]
pub struct ResourceGrid {
    n_prb: usize,
    /// Row-major `[symbol][subcarrier]`.
    data: Vec<Cf32>,
}

impl ResourceGrid {
    /// An all-zero grid spanning `n_prb` resource blocks.
    pub fn new(n_prb: usize) -> ResourceGrid {
        ResourceGrid {
            n_prb,
            data: vec![Cf32::ZERO; n_prb * SUBCARRIERS_PER_PRB * SYMBOLS_PER_SLOT],
        }
    }

    /// Carrier width in PRBs.
    pub fn n_prb(&self) -> usize {
        self.n_prb
    }

    /// Carrier width in subcarriers.
    pub fn n_subcarriers(&self) -> usize {
        self.n_prb * SUBCARRIERS_PER_PRB
    }

    #[inline]
    fn idx(&self, symbol: usize, subcarrier: usize) -> usize {
        debug_assert!(symbol < SYMBOLS_PER_SLOT, "symbol {symbol} out of range");
        debug_assert!(
            subcarrier < self.n_subcarriers(),
            "subcarrier {subcarrier} out of range"
        );
        symbol * self.n_subcarriers() + subcarrier
    }

    /// Read one resource element.
    #[inline]
    pub fn get(&self, symbol: usize, subcarrier: usize) -> Cf32 {
        self.data[self.idx(symbol, subcarrier)]
    }

    /// Write one resource element.
    #[inline]
    pub fn set(&mut self, symbol: usize, subcarrier: usize, value: Cf32) {
        let i = self.idx(symbol, subcarrier);
        self.data[i] = value;
    }

    /// Borrow one whole OFDM symbol (all subcarriers).
    pub fn symbol(&self, symbol: usize) -> &[Cf32] {
        let w = self.n_subcarriers();
        &self.data[symbol * w..(symbol + 1) * w]
    }

    /// Mutably borrow one whole OFDM symbol.
    pub fn symbol_mut(&mut self, symbol: usize) -> &mut [Cf32] {
        let w = self.n_subcarriers();
        &mut self.data[symbol * w..(symbol + 1) * w]
    }

    /// Subcarrier range of one REG (= 1 PRB × 1 symbol = 12 REs).
    pub fn reg_subcarriers(prb: usize) -> std::ops::Range<usize> {
        prb * SUBCARRIERS_PER_PRB..(prb + 1) * SUBCARRIERS_PER_PRB
    }

    /// Total energy in the grid (sum |RE|²), used by AGC and tests.
    pub fn energy(&self) -> f32 {
        self.data.iter().map(|v| v.norm_sqr()).sum()
    }

    /// Count REs with non-zero content in a symbol range — the basis of the
    /// paper's REG-count comparison (Fig 8).
    pub fn occupied_res(&self, symbols: std::ops::Range<usize>) -> usize {
        symbols
            .flat_map(|s| (0..self.n_subcarriers()).map(move |k| (s, k)))
            .filter(|&(s, k)| self.get(s, k).norm_sqr() > 0.0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_grid_is_zero() {
        let g = ResourceGrid::new(51);
        assert_eq!(g.energy(), 0.0);
        assert_eq!(g.n_subcarriers(), 612);
    }

    #[test]
    fn set_get_round_trip() {
        let mut g = ResourceGrid::new(24);
        g.set(3, 100, Cf32::new(1.0, -1.0));
        assert_eq!(g.get(3, 100), Cf32::new(1.0, -1.0));
        assert_eq!(g.get(3, 101), Cf32::ZERO);
        assert_eq!(g.get(4, 100), Cf32::ZERO);
    }

    #[test]
    fn symbol_slices_are_disjoint_views() {
        let mut g = ResourceGrid::new(2);
        g.symbol_mut(0)[5] = Cf32::ONE;
        g.symbol_mut(13)[23] = Cf32::new(0.0, 1.0);
        assert_eq!(g.symbol(0)[5], Cf32::ONE);
        assert_eq!(g.symbol(13)[23], Cf32::new(0.0, 1.0));
        assert_eq!(g.symbol(1)[5], Cf32::ZERO);
    }

    #[test]
    fn reg_covers_twelve_subcarriers() {
        let r = ResourceGrid::reg_subcarriers(3);
        assert_eq!(r.len(), 12);
        assert_eq!(r.start, 36);
    }

    #[test]
    fn occupied_re_count() {
        let mut g = ResourceGrid::new(4);
        for k in ResourceGrid::reg_subcarriers(1) {
            g.set(0, k, Cf32::ONE);
        }
        assert_eq!(g.occupied_res(0..1), 12);
        assert_eq!(g.occupied_res(1..14), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn out_of_range_subcarrier_panics_in_debug() {
        let g = ResourceGrid::new(1);
        g.get(0, 12);
    }
}
