//! PDCCH: CORESETs, search spaces, candidate hashing, and the complete DCI
//! encode/decode chain (38.211 §7.3.2, 38.212 §7.3, 38.213 §10.1).
//!
//! Encode chain (gNB): DCI payload → CRC24C attach + RNTI scramble → polar
//! encode → rate match to the aggregation level's bit budget → Gold
//! scramble → QPSK → map to CORESET REs with DMRS pilots interleaved.
//!
//! Decode chain (NR-Scope): channel-estimate from DMRS → equalise → LLR
//! demap → descramble → polar SC decode → CRC check against each known
//! RNTI (or RNTI recovery for RACH tracking).

use crate::complex::Cf32;
use crate::crc::dci_attach_crc;
use crate::dmrs::{
    ls_channel_estimate, noise_estimate, pdcch_dmrs, DATA_PER_REG, DMRS_OFFSETS, DMRS_PER_REG,
};
use crate::grid::ResourceGrid;
use crate::modulation::{demodulate_llr_into, modulate, Modulation};
use crate::numerology::SUBCARRIERS_PER_PRB;
use crate::polar::PolarCode;
use crate::sequence::{pdcch_scrambling_cinit, scramble_in_place};
use crate::types::Rnti;
use serde::{Deserialize, Serialize};

/// REGs (PRB × symbol) per CCE.
pub const REGS_PER_CCE: usize = 6;
/// Data bits carried per CCE: 6 REGs × 9 data REs × 2 bits (QPSK).
pub const BITS_PER_CCE: usize = REGS_PER_CCE * DATA_PER_REG * 2;

/// PDCCH aggregation level: how many CCEs one DCI candidate spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AggregationLevel {
    /// 1 CCE (108 bits).
    L1,
    /// 2 CCEs.
    L2,
    /// 4 CCEs.
    L4,
    /// 8 CCEs.
    L8,
    /// 16 CCEs.
    L16,
}

impl AggregationLevel {
    /// CCE count.
    pub fn cces(self) -> usize {
        match self {
            AggregationLevel::L1 => 1,
            AggregationLevel::L2 => 2,
            AggregationLevel::L4 => 4,
            AggregationLevel::L8 => 8,
            AggregationLevel::L16 => 16,
        }
    }

    /// Rate-matched bit budget `E` at this level.
    pub fn bits(self) -> usize {
        self.cces() * BITS_PER_CCE
    }

    /// All levels, smallest first.
    pub fn all() -> [AggregationLevel; 5] {
        [
            AggregationLevel::L1,
            AggregationLevel::L2,
            AggregationLevel::L4,
            AggregationLevel::L8,
            AggregationLevel::L16,
        ]
    }
}

/// A blind-search budget: how much of the UE-specific candidate space a
/// decoder is allowed to spend per slot. The overload governor hands one of
/// these to the decode path to shed work under deadline pressure while the
/// *common* search space (SI-/RA-/TC-RNTI plus CRC-XOR RNTI recovery) stays
/// exhaustive at every rung — the invariant that keeps cell knowledge and
/// RACH-based C-RNTI discovery alive no matter how overloaded the scope is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchBudget {
    /// Skip UE-specific candidates below this aggregation level. Low levels
    /// carry the most candidates per CORESET, so pruning them first buys
    /// the largest latency cut per DCI lost.
    pub ue_min_level: Option<AggregationLevel>,
    /// Cap on UE-specific candidate decode attempts per slot.
    pub max_ue_candidates: Option<usize>,
    /// Skip the UE-specific pass entirely (the BroadcastOnly rung).
    pub skip_ue: bool,
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget::unlimited()
    }
}

impl SearchBudget {
    /// No pruning: the full blind search.
    pub fn unlimited() -> SearchBudget {
        SearchBudget {
            ue_min_level: None,
            max_ue_candidates: None,
            skip_ue: false,
        }
    }

    /// Pruned search: drop UE candidates below `min_level` and cap the
    /// UE-specific attempts per slot.
    pub fn pruned(min_level: AggregationLevel, max_ue_candidates: usize) -> SearchBudget {
        SearchBudget {
            ue_min_level: Some(min_level),
            max_ue_candidates: Some(max_ue_candidates),
            skip_ue: false,
        }
    }

    /// Broadcast-only: common search space only, no UE-specific decodes.
    pub fn broadcast_only() -> SearchBudget {
        SearchBudget {
            ue_min_level: None,
            max_ue_candidates: None,
            skip_ue: true,
        }
    }

    /// Whether a UE-specific candidate at `level` is admitted, given that
    /// `spent` UE candidates have already been attempted this slot.
    pub fn admits_ue(&self, level: AggregationLevel, spent: usize) -> bool {
        if self.skip_ue {
            return false;
        }
        if let Some(min) = self.ue_min_level {
            if level.cces() < min.cces() {
                return false;
            }
        }
        if let Some(cap) = self.max_ue_candidates {
            if spent >= cap {
                return false;
            }
        }
        true
    }

    /// Whether this budget prunes anything at all.
    pub fn is_unlimited(&self) -> bool {
        !self.skip_ue && self.ue_min_level.is_none() && self.max_ue_candidates.is_none()
    }
}

/// A control resource set: a block of PRBs × (1–3) symbols at the start of
/// the slot holding PDCCH candidates. CORESET 0 (from the MIB) is the
/// common instance every UE — and NR-Scope — starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Coreset {
    /// First PRB of the CORESET within the carrier.
    pub prb_start: usize,
    /// Width in PRBs (multiple of 6 in the spec; enforced here).
    pub n_prb: usize,
    /// First symbol (0 in all the paper's cells).
    pub symbol_start: usize,
    /// Duration in symbols (1–3).
    pub n_symbols: usize,
}

impl Coreset {
    /// Total REGs in the CORESET.
    pub fn n_regs(&self) -> usize {
        self.n_prb * self.n_symbols
    }

    /// Total CCEs available.
    pub fn n_cces(&self) -> usize {
        self.n_regs() / REGS_PER_CCE
    }

    /// The REG coordinates (symbol, prb) of one CCE under non-interleaved
    /// CCE-to-REG mapping: REG bundles of 6 laid out time-first within the
    /// CORESET, matching srsRAN's default CORESET configuration.
    pub fn cce_regs(&self, cce: usize) -> [(usize, usize); REGS_PER_CCE] {
        assert!(cce < self.n_cces(), "CCE {cce} out of range");
        std::array::from_fn(|i| {
            let reg = cce * REGS_PER_CCE + i;
            // Time-first numbering: REG r → symbol r % n_symbols,
            // PRB offset r / n_symbols.
            let sym = self.symbol_start + reg % self.n_symbols;
            let prb = self.prb_start + reg / self.n_symbols;
            (sym, prb)
        })
    }
}

/// Search-space candidate hashing (38.213 §10.1).
///
/// For the common search space `Y = 0`; for a UE-specific search space `Y`
/// evolves per slot from the C-RNTI. Both the gNB (placing) and NR-Scope
/// (finding) compute the same candidate CCE indices.
pub fn candidate_cce(
    y: u32,
    level: AggregationLevel,
    candidate: usize,
    n_candidates: usize,
    n_cces: usize,
) -> Option<usize> {
    let l = level.cces();
    if n_cces < l {
        return None;
    }
    let per = n_cces / l;
    let m = candidate as u32;
    let idx = ((y as u64 + (m as u64 * n_cces as u64) / (l as u64 * n_candidates as u64))
        % per as u64) as usize;
    Some(idx * l)
}

/// Per-slot `Y` of a UE-specific search space: `Y_{-1} = C-RNTI`,
/// `Y_s = (A_p · Y_{s-1}) mod 65537`, i.e. `A_p^(s+1) · C-RNTI mod 65537`,
/// computed by square-and-multiply.
pub fn ue_search_space_y(rnti: Rnti, coreset_index: usize, slot: usize) -> u32 {
    const D: u64 = 65537;
    let mut a: u64 = match coreset_index % 3 {
        0 => 39827,
        1 => 39829,
        _ => 39839,
    };
    let (mut y, mut exp) = (rnti.0 as u64, slot + 1);
    while exp > 0 {
        if exp & 1 == 1 {
            y = (a * y) % D;
        }
        a = (a * a) % D;
        exp >>= 1;
    }
    y as u32
}

/// One encoded PDCCH transmission: where it sits and its payload metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PdcchAllocation {
    /// First CCE index.
    pub cce_start: usize,
    /// Aggregation level.
    pub level: AggregationLevel,
    /// The RNTI whose CRC scrambling protects this DCI.
    pub rnti: Rnti,
}

/// PDCCH payload-scrambling `c_init` for a search space (38.211 §7.3.2.3):
/// the common search space scrambles with the cell identity alone, while a
/// UE-specific search space mixes in the C-RNTI — the 5G property that
/// forces NR-Scope to learn RNTIs from the RACH rather than recovering
/// them from arbitrary DCIs as 4G sniffers do.
pub fn search_space_cinit(rnti: Rnti, ue_specific: bool, n_id: u16) -> u32 {
    if ue_specific {
        pdcch_scrambling_cinit(rnti.0, n_id)
    } else {
        pdcch_scrambling_cinit(0, n_id)
    }
}

/// Encode a DCI payload and map it onto the grid, including DMRS pilots.
///
/// `n_id` drives the DMRS sequences (the PCI in the common configuration);
/// `c_init` is the payload-scrambling initialiser (see
/// [`search_space_cinit`]); `slot` feeds the DMRS sequence.
#[allow(clippy::too_many_arguments)]
pub fn encode_pdcch(
    grid: &mut ResourceGrid,
    coreset: &Coreset,
    alloc: &PdcchAllocation,
    payload: &[u8],
    n_id: u16,
    c_init: u32,
    slot: usize,
) {
    let e = alloc.level.bits();
    let cw = dci_attach_crc(payload, alloc.rnti.0);
    let code = PolarCode::new(cw.len(), e);
    let mut bits = code.encode(&cw);
    scramble_in_place(&mut bits, c_init);
    let symbols = modulate(&bits, Modulation::Qpsk);
    // Lay QPSK data over the data REs of each REG; pilots on DMRS REs.
    let mut it = symbols.iter();
    for cce in alloc.cce_start..alloc.cce_start + alloc.level.cces() {
        for (sym, prb) in coreset.cce_regs(cce) {
            let pilots = pdcch_dmrs(slot, sym, n_id, prb, 1);
            let base = prb * SUBCARRIERS_PER_PRB;
            let mut p = 0;
            for k in 0..SUBCARRIERS_PER_PRB {
                if DMRS_OFFSETS.contains(&k) {
                    grid.set(sym, base + k, pilots[p]);
                    p += 1;
                } else {
                    // The bit budget equals the RE budget by construction
                    // (debug-asserted below); a zero symbol on mismatch
                    // beats a panic in the tx path.
                    let s = it.next().copied().unwrap_or_default();
                    grid.set(sym, base + k, s);
                }
            }
        }
    }
    debug_assert!(it.next().is_none(), "all symbols mapped");
}

/// Soft data extracted from one PDCCH candidate: equalised LLRs plus the
/// channel-quality estimates the decoder needs.
#[derive(Debug, Clone)]
pub struct CandidateSoftBits {
    /// Descrambled LLRs, length `level.bits()`.
    pub llrs: Vec<f32>,
    /// Mean pilot SNR estimate (linear) over the candidate.
    pub pilot_snr: f32,
}

/// The reference sequences every candidate of one CORESET shares in one
/// slot, generated once: each CORESET symbol's DMRS pilot row (one Gold
/// sequence per symbol; a candidate slices it by PRB) and the
/// payload-descrambling sequence at the longest level's length (a shorter
/// level's sequence is its prefix).
#[derive(Debug, Clone)]
pub struct CoresetSequences {
    /// Pilots of PRBs `prb_start..prb_start + n_prb`, one row per symbol.
    dmrs_rows: Vec<Vec<Cf32>>,
    /// Scrambling bits, `max_level.bits()` of them (cell-constant: memoised).
    scrambling: std::rc::Rc<Vec<u8>>,
}

impl CoresetSequences {
    /// Generate the sequences of `coreset` in `slot` for candidates up to
    /// `max_level`; `n_id` and `c_init` as for [`extract_candidate`].
    pub fn new(
        coreset: &Coreset,
        max_level: AggregationLevel,
        n_id: u16,
        c_init: u32,
        slot: usize,
    ) -> CoresetSequences {
        let symbols = coreset.symbol_start..coreset.symbol_start + coreset.n_symbols;
        CoresetSequences {
            dmrs_rows: symbols
                .map(|sym| pdcch_dmrs(slot, sym, n_id, coreset.prb_start, coreset.n_prb))
                .collect(),
            scrambling: crate::sequence::gold_bits_cached(c_init, max_level.bits()),
        }
    }

    /// The three pilots of REG (`sym`, `prb`), both absolute.
    fn reg_pilots(&self, coreset: &Coreset, sym: usize, prb: usize) -> &[Cf32] {
        let row = &self.dmrs_rows[sym - coreset.symbol_start];
        &row[(prb - coreset.prb_start) * DMRS_PER_REG..][..DMRS_PER_REG]
    }
}

/// Extract and equalise the soft bits of one candidate from a received
/// grid, descrambling with `c_init` (callers try the common and per-RNTI
/// initialisers as appropriate).
pub fn extract_candidate(
    grid: &ResourceGrid,
    coreset: &Coreset,
    cce_start: usize,
    level: AggregationLevel,
    n_id: u16,
    c_init: u32,
    slot: usize,
) -> CandidateSoftBits {
    let seqs = CoresetSequences::new(coreset, level, n_id, c_init, slot);
    extract_candidate_with(grid, coreset, cce_start, level, &seqs)
}

/// [`extract_candidate`] against sequences generated once for the slot.
pub fn extract_candidate_with(
    grid: &ResourceGrid,
    coreset: &Coreset,
    cce_start: usize,
    level: AggregationLevel,
    seqs: &CoresetSequences,
) -> CandidateSoftBits {
    let (floor, scratch) = (f32::NEG_INFINITY, &mut ExtractScratch::default());
    match extract_candidate_above(grid, coreset, cce_start, level, seqs, floor, scratch) {
        Some(soft) => soft,
        None => unreachable!("no pilot SNR compares below -inf"),
    }
}

/// Working memory of [`extract_candidate_above`] — received pilots,
/// reference pilots, equalised data REs: a scan keeps one for all its
/// candidates, so one the pilot gate drops allocates nothing.
pub type ExtractScratch = [Vec<Cf32>; 3];

/// [`extract_candidate_with`] gated on the pilots — what a scan over every
/// candidate of the CORESET calls: the channel and noise estimates come
/// from the DMRS REs alone, and a candidate whose pilot SNR is below
/// `min_pilot_snr` returns `None` before any of its data REs is read.
pub fn extract_candidate_above(
    grid: &ResourceGrid,
    coreset: &Coreset,
    cce_start: usize,
    level: AggregationLevel,
    seqs: &CoresetSequences,
    min_pilot_snr: f32,
    scratch: &mut ExtractScratch,
) -> Option<CandidateSoftBits> {
    let [rx_pilots, ref_pilots, eq] = scratch;
    let regs = || (cce_start..cce_start + level.cces()).flat_map(|cce| coreset.cce_regs(cce));
    rx_pilots.clear();
    ref_pilots.clear();
    for (sym, prb) in regs() {
        let base = prb * SUBCARRIERS_PER_PRB;
        rx_pilots.extend(DMRS_OFFSETS.map(|k| grid.get(sym, base + k)));
        ref_pilots.extend_from_slice(seqs.reg_pilots(coreset, sym, prb));
    }
    let h = ls_channel_estimate(rx_pilots, ref_pilots);
    let nv = noise_estimate(rx_pilots, ref_pilots, h).max(1e-6);
    // Zero-forcing equalisation; noise variance scales by 1/|h|².
    let h_pow = h.norm_sqr().max(1e-9);
    let pilot_snr = h_pow / nv;
    if pilot_snr < min_pilot_snr {
        return None;
    }
    let h_inv = h.inv();
    let data_offsets = (0..SUBCARRIERS_PER_PRB).filter(|k| !DMRS_OFFSETS.contains(k));
    eq.clear();
    for (sym, prb) in regs() {
        let base = prb * SUBCARRIERS_PER_PRB;
        eq.extend((data_offsets.clone()).map(|k| grid.get(sym, base + k) * h_inv));
    }
    let mut llrs = Vec::with_capacity(level.bits());
    demodulate_llr_into(eq, Modulation::Qpsk, nv / h_pow, &mut llrs);
    // Descramble by flipping LLR signs where the scrambling bit is 1.
    for (l, &s) in llrs.iter_mut().zip(&seqs.scrambling[..level.bits()]) {
        if s == 1 {
            *l = -*l;
        }
    }
    Some(CandidateSoftBits { llrs, pilot_snr })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::{dci_check_crc, dci_recover_rnti};

    fn coreset() -> Coreset {
        Coreset {
            prb_start: 0,
            n_prb: 48,
            symbol_start: 0,
            n_symbols: 1,
        }
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 11 + 3) % 2) as u8).collect()
    }

    /// The hard-decision codeword (payload + CRC24) of one candidate.
    fn decode(soft: &CandidateSoftBits, payload_bits: usize, level: AggregationLevel) -> Vec<u8> {
        PolarCode::new(payload_bits + 24, level.bits()).decode_sc(&soft.llrs)
    }

    #[test]
    fn cce_geometry() {
        let c = coreset();
        assert_eq!(c.n_regs(), 48);
        assert_eq!(c.n_cces(), 8);
        let regs = c.cce_regs(2);
        assert_eq!(regs.len(), 6);
        // Non-interleaved, 1 symbol: CCE 2 = PRBs 12..18.
        assert_eq!(regs[0], (0, 12));
        assert_eq!(regs[5], (0, 17));
    }

    #[test]
    fn multi_symbol_coreset_is_time_first() {
        let c = Coreset {
            prb_start: 6,
            n_prb: 12,
            symbol_start: 0,
            n_symbols: 2,
        };
        let regs = c.cce_regs(0);
        // Time-first: (sym0, prb6), (sym1, prb6), (sym0, prb7), ...
        assert_eq!(regs[0], (0, 6));
        assert_eq!(regs[1], (1, 6));
        assert_eq!(regs[2], (0, 7));
    }

    #[test]
    fn dmrs_row_slices_equal_the_per_reg_pilots() {
        // A 2-symbol CORESET off PRB 0: the row is indexed from the
        // CORESET's first PRB, the Gold sequence from the carrier's.
        let c = Coreset {
            prb_start: 6,
            n_prb: 24,
            symbol_start: 1,
            n_symbols: 2,
        };
        let seqs = CoresetSequences::new(&c, AggregationLevel::L8, 321, 0x1234, 7);
        for sym in 1..3 {
            for prb in 6..30 {
                let direct = pdcch_dmrs(7, sym, 321, prb, 1);
                assert_eq!(seqs.reg_pilots(&c, sym, prb), &direct[..], "{sym}/{prb}");
            }
        }
        assert_eq!(*seqs.scrambling, crate::sequence::gold_bits(0x1234, 864));
    }

    #[test]
    fn encode_decode_clean_channel() {
        let c = coreset();
        let mut grid = ResourceGrid::new(51);
        let rnti = Rnti(0x4601);
        let pl = payload(40);
        let alloc = PdcchAllocation {
            cce_start: 2,
            level: AggregationLevel::L2,
            rnti,
        };
        encode_pdcch(
            &mut grid,
            &c,
            &alloc,
            &pl,
            500,
            search_space_cinit(rnti, false, 500),
            3,
        );
        let soft = extract_candidate(
            &grid,
            &c,
            2,
            AggregationLevel::L2,
            500,
            search_space_cinit(rnti, false, 500),
            3,
        );
        let cw = decode(&soft, 40, AggregationLevel::L2);
        assert_eq!(dci_check_crc(&cw, rnti.0).expect("decode"), pl);
    }

    #[test]
    fn wrong_rnti_fails_crc() {
        let c = coreset();
        let mut grid = ResourceGrid::new(51);
        let pl = payload(40);
        let alloc = PdcchAllocation {
            cce_start: 0,
            level: AggregationLevel::L4,
            rnti: Rnti(0x4601),
        };
        encode_pdcch(
            &mut grid,
            &c,
            &alloc,
            &pl,
            500,
            search_space_cinit(Rnti(0x4601), false, 500),
            0,
        );
        let soft = extract_candidate(
            &grid,
            &c,
            0,
            AggregationLevel::L4,
            500,
            search_space_cinit(Rnti(0x4601), false, 500),
            0,
        );
        let cw = decode(&soft, 40, AggregationLevel::L4);
        assert!(dci_check_crc(&cw, 0x4602).is_none());
    }

    #[test]
    fn rnti_recovery_on_clean_candidate() {
        let c = coreset();
        let mut grid = ResourceGrid::new(51);
        let pl = payload(40);
        let rnti = Rnti(0x4296);
        let alloc = PdcchAllocation {
            cce_start: 4,
            level: AggregationLevel::L4,
            rnti,
        };
        encode_pdcch(
            &mut grid,
            &c,
            &alloc,
            &pl,
            123,
            search_space_cinit(rnti, false, 123),
            7,
        );
        let soft = extract_candidate(
            &grid,
            &c,
            4,
            AggregationLevel::L4,
            123,
            search_space_cinit(rnti, false, 123),
            7,
        );
        let cw = decode(&soft, 40, AggregationLevel::L4);
        assert_eq!(dci_recover_rnti(&cw).expect("recovery"), rnti.0);
        assert_eq!(cw[..40], pl);
    }

    #[test]
    fn decode_survives_flat_channel_and_noise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        let c = coreset();
        let mut grid = ResourceGrid::new(51);
        let pl = payload(44);
        let rnti = Rnti(0x17A3);
        let alloc = PdcchAllocation {
            cce_start: 0,
            level: AggregationLevel::L2,
            rnti,
        };
        encode_pdcch(
            &mut grid,
            &c,
            &alloc,
            &pl,
            77,
            search_space_cinit(rnti, true, 77),
            5,
        );
        // Apply a flat channel (gain+rotation) and mild AWGN.
        let h = Cf32::from_polar(0.7, 2.1);
        for sym in 0..1 {
            for k in 0..grid.n_subcarriers() {
                let v = grid.get(sym, k) * h
                    + Cf32::new(rng.gen_range(-0.03..0.03), rng.gen_range(-0.03..0.03));
                grid.set(sym, k, v);
            }
        }
        let soft = extract_candidate(
            &grid,
            &c,
            0,
            AggregationLevel::L2,
            77,
            search_space_cinit(rnti, true, 77),
            5,
        );
        assert!(soft.pilot_snr > 10.0, "pilot snr {}", soft.pilot_snr);
        let cw = decode(&soft, 44, AggregationLevel::L2);
        assert_eq!(dci_check_crc(&cw, rnti.0).expect("decode"), pl);
    }

    #[test]
    fn candidate_hashing_is_deterministic_and_in_range() {
        for level in AggregationLevel::all() {
            for slot in 0..20 {
                let y = ue_search_space_y(Rnti(0x4601), 1, slot);
                if let Some(cce) = candidate_cce(y, level, 0, 2, 8) {
                    assert!(cce + level.cces() <= 8 || level.cces() > 8);
                    assert_eq!(cce % level.cces(), 0, "aligned to level");
                }
            }
        }
    }

    #[test]
    fn y_recursion_varies_by_slot_and_rnti() {
        let a = ue_search_space_y(Rnti(0x4601), 0, 0);
        let b = ue_search_space_y(Rnti(0x4601), 0, 1);
        let c = ue_search_space_y(Rnti(0x4602), 0, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn search_budget_admission_rules() {
        let full = SearchBudget::unlimited();
        assert!(full.is_unlimited());
        for level in AggregationLevel::all() {
            assert!(full.admits_ue(level, 10_000));
        }

        let pruned = SearchBudget::pruned(AggregationLevel::L2, 3);
        assert!(!pruned.is_unlimited());
        assert!(!pruned.admits_ue(AggregationLevel::L1, 0), "L1 pruned");
        assert!(pruned.admits_ue(AggregationLevel::L2, 0));
        assert!(pruned.admits_ue(AggregationLevel::L8, 2));
        assert!(!pruned.admits_ue(AggregationLevel::L8, 3), "cap reached");

        let broadcast = SearchBudget::broadcast_only();
        for level in AggregationLevel::all() {
            assert!(!broadcast.admits_ue(level, 0), "no UE decodes at all");
        }
    }

    #[test]
    fn bits_per_cce_matches_re_budget() {
        // 6 REGs × (12-3) data REs × 2 bits = 108 — the E the paper's DCI
        // encoding implies per CCE.
        assert_eq!(BITS_PER_CCE, 108);
        assert_eq!(AggregationLevel::L8.bits(), 864);
    }
}
