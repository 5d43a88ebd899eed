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
//!
//! Extraction reads every RE once: a CCE's pilots are summed once a slot
//! ([`cce_pilot_sums`]) for every level that shares them, and a candidate
//! over [`PILOT_SNR_FLOOR`] ([`pilot_gate`]) has its data equalised,
//! demapped and descrambled as one multiply and a sign-bit XOR
//! ([`demap_candidate`]) — when the scan first asks for it. The four-pass chain
//! this replaced is `oracle.rs`'s reference, with the bounds between them.

use crate::complex::Cf32;
use crate::crc::dci_attach_crc;
use crate::dmrs::{
    pdcch_dmrs, pilot_estimate, PilotEstimate, PilotSums, DATA_OFFSETS, DATA_PER_REG, DMRS_OFFSETS,
    DMRS_PER_REG,
};
use crate::grid::ResourceGrid;
use crate::modulation::{modulate, qpsk_llr_gain, Modulation};
use crate::numerology::SUBCARRIERS_PER_PRB;
use crate::polar::PolarCode;
use crate::sequence::{pdcch_scrambling_cinit, scramble_in_place};
use crate::types::Rnti;
use serde::{Deserialize, Serialize};

/// REGs (PRB × symbol) per CCE.
pub const REGS_PER_CCE: usize = 6;
/// Data bits carried per CCE: 6 REGs × 9 data REs × 2 bits (QPSK).
pub const BITS_PER_CCE: usize = REGS_PER_CCE * DATA_PER_REG * 2;
/// The pilot SNR (linear) below which a candidate position is silence:
/// pilots exist only where a DCI is mapped, so an empty position estimates
/// an SNR near `1/n` over `n` pilots, a DCI the polar code can decode over 1.
pub const PILOT_SNR_FLOOR: f32 = 1.5;

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

/// A blind-search budget: whether a decoder may spend anything on the
/// UE-specific candidate space this slot. The overload response hands one
/// of these to the decode path to shed work when the sniffer is behind,
/// while the *common* search space (SI-/RA-/TC-RNTI plus CRC-XOR RNTI
/// recovery) stays exhaustive — the invariant that keeps cell knowledge
/// and RACH-based C-RNTI discovery alive no matter how far behind the
/// scope is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SearchBudget {
    /// Skip the UE-specific pass entirely (the BroadcastOnly rung).
    pub skip_ue: bool,
}

impl SearchBudget {
    /// No pruning: the full blind search.
    pub fn unlimited() -> SearchBudget {
        SearchBudget { skip_ue: false }
    }

    /// Broadcast-only: common search space only, no UE-specific decodes.
    pub fn broadcast_only() -> SearchBudget {
        SearchBudget { skip_ue: true }
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
        let mut regs = self.regs_from(cce * REGS_PER_CCE);
        std::array::from_fn(|_| regs.next().unwrap_or_default())
    }

    /// The REGs from REG `first` on, without end. Time-first numbering:
    /// REG r → symbol r % n_symbols, PRB offset r / n_symbols — divided
    /// out for `first`, stepped from there.
    pub fn regs_from(&self, first: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (n, mut s, mut p) = (
            self.n_symbols,
            first % self.n_symbols,
            first / self.n_symbols,
        );
        std::iter::from_fn(move || {
            let reg = (self.symbol_start + s, self.prb_start + p);
            (s, p) = if s + 1 == n { (0, p + 1) } else { (s + 1, p) };
            Some(reg)
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
#[derive(Debug, Clone, PartialEq)]
pub struct CoresetSequences {
    /// Pilots of PRBs `prb_start..prb_start + n_prb`, one row per symbol.
    dmrs_rows: Vec<Vec<Cf32>>,
    /// Scrambling bits, `max_level.bits()` of them (cell-constant: copied
    /// from the thread's memo, so that a front end may keep and move it).
    scrambling: Vec<u8>,
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
            scrambling: crate::sequence::gold_bits_cached(c_init, max_level.bits()).to_vec(),
        }
    }

    /// The three pilots of REG (`sym`, `prb`), both absolute.
    fn reg_pilots(&self, coreset: &Coreset, sym: usize, prb: usize) -> &[Cf32] {
        let row = &self.dmrs_rows[sym - coreset.symbol_start];
        &row[(prb - coreset.prb_start) * DMRS_PER_REG..][..DMRS_PER_REG]
    }
}

/// The twelve REs of REG (`sym`, `prb`).
fn reg_res(grid: &ResourceGrid, sym: usize, prb: usize) -> &[Cf32] {
    &grid.symbol(sym)[prb * SUBCARRIERS_PER_PRB..][..SUBCARRIERS_PER_PRB]
}

/// The [`PilotSums`] of one CCE: its 18 received pilots against `seqs`'.
pub fn cce_pilot_sums(
    grid: &ResourceGrid,
    coreset: &Coreset,
    seqs: &CoresetSequences,
    cce: usize,
) -> PilotSums {
    let (mut s, mut r) = (Cf32::ZERO, 0.0);
    for (sym, prb) in coreset.regs_from(cce * REGS_PER_CCE).take(REGS_PER_CCE) {
        let (res, pilots) = (reg_res(grid, sym, prb), seqs.reg_pilots(coreset, sym, prb));
        for (k, p) in DMRS_OFFSETS.iter().zip(pilots) {
            (s, r) = (s + res[*k] * p.conj(), r + res[*k].norm_sqr());
        }
    }
    (s, r)
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
    let cces = cce_start..cce_start + level.cces();
    let cces: Vec<_> = (cces.map(|cce| cce_pilot_sums(grid, coreset, &seqs, cce))).collect();
    match pilot_gate(&cces, f32::NEG_INFINITY) {
        Some(est) => demap_candidate(grid, coreset, cce_start, level, &seqs, &est),
        None => unreachable!("no pilot SNR compares below -inf"),
    }
}

/// The pilot gate of a scan over every candidate of the CORESET: the
/// [`pilot_estimate`] of a candidate from `cces`, the [`cce_pilot_sums`]
/// of its CCEs, added here in CCE order — `None` when its SNR is below
/// `min_pilot_snr`, a position whose data REs need never be read.
pub fn pilot_gate(cces: &[PilotSums], min_pilot_snr: f32) -> Option<PilotEstimate> {
    let sums = (cces.iter()).fold((Cf32::ZERO, 0.0), |(s, r), cce| (s + cce.0, r + cce.1));
    let est = pilot_estimate(cces.len() * REGS_PER_CCE * DMRS_PER_REG, sums);
    if est.snr < min_pilot_snr {
        return None;
    }
    Some(est)
}

/// The data pass of [`extract_candidate`], against sequences generated once
/// for the slot, of a candidate its [`pilot_gate`] passed with `est`: its
/// data REs are read once. Zero forcing (`y/h`) leaves noise of variance
/// `σ′² = 1/SNR`, the demapper's gain at it is real, and both are the one
/// `w`.
pub fn demap_candidate(
    grid: &ResourceGrid,
    coreset: &Coreset,
    cce_start: usize,
    level: AggregationLevel,
    seqs: &CoresetSequences,
    est: &PilotEstimate,
) -> CandidateSoftBits {
    let w = est.h.inv() * qpsk_llr_gain(1.0 / est.snr);
    let mut llrs = Vec::with_capacity(level.bits());
    // Descrambling flips an LLR where the bit is 1: its sign bit.
    let flip = |llr: f32, s: u8| f32::from_bits(llr.to_bits() ^ (u32::from(s) << 31));
    let scrambling = seqs.scrambling[..level.bits()].chunks_exact(2 * DATA_PER_REG);
    for ((sym, prb), scr) in coreset.regs_from(cce_start * REGS_PER_CCE).zip(scrambling) {
        let res = reg_res(grid, sym, prb);
        for (k, s) in DATA_OFFSETS.iter().zip(scr.chunks_exact(2)) {
            let z = res[*k] * w;
            llrs.extend([flip(z.re, s[0]), flip(z.im, s[1])]);
        }
    }
    let pilot_snr = est.snr;
    CandidateSoftBits { llrs, pilot_snr }
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
        for n_symbols in 1..=3 {
            let c = Coreset {
                prb_start: 6,
                n_prb: 12,
                symbol_start: 1,
                n_symbols,
            };
            // REG r → symbol r % n_symbols, PRB offset r / n_symbols; at 2
            // symbols (sym1, prb6), (sym2, prb6), (sym1, prb7), ...
            let divided = |r| (1 + r % n_symbols, 6 + r / n_symbols);
            for first in 0..c.n_regs() {
                let (regs, want) = (c.regs_from(first), (first..c.n_regs()).map(divided));
                assert!(
                    regs.take(c.n_regs() - first).eq(want),
                    "{n_symbols}/{first}"
                );
            }
            assert!(c.cce_regs(1).into_iter().eq((6..12).map(divided)));
        }
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

    /// One DCI of `bits` payload bits for `rnti`, sent at `at` in slot
    /// `slot` of cell `n_id` and extracted there once `through` the channel:
    /// the payload, the soft bits, the SC-decoded codeword.
    fn sent_and_heard(
        (cce_start, level): (usize, AggregationLevel),
        (rnti, ue_specific): (Rnti, bool),
        (n_id, slot): (u16, usize),
        bits: usize,
        through: impl FnOnce(&mut ResourceGrid),
    ) -> (Vec<u8>, CandidateSoftBits, Vec<u8>) {
        let (c, mut grid, pl) = (coreset(), ResourceGrid::new(51), payload(bits));
        let (alloc, c_init) = (
            PdcchAllocation {
                cce_start,
                level,
                rnti,
            },
            search_space_cinit(rnti, ue_specific, n_id),
        );
        encode_pdcch(&mut grid, &c, &alloc, &pl, n_id, c_init, slot);
        through(&mut grid);
        let soft = extract_candidate(&grid, &c, cce_start, level, n_id, c_init, slot);
        let cw = decode(&soft, bits, level);
        (pl, soft, cw)
    }

    #[test]
    fn encode_decode_clean_channel() {
        let (at, rnti) = ((2, AggregationLevel::L2), Rnti(0x4601));
        let (pl, _, cw) = sent_and_heard(at, (rnti, false), (500, 3), 40, |_| ());
        assert_eq!(dci_check_crc(&cw, rnti.0).expect("decode"), pl);
    }

    #[test]
    fn wrong_rnti_fails_crc() {
        let (at, rnti) = ((0, AggregationLevel::L4), Rnti(0x4601));
        let (_, _, cw) = sent_and_heard(at, (rnti, false), (500, 0), 40, |_| ());
        assert!(dci_check_crc(&cw, 0x4602).is_none());
    }

    #[test]
    fn rnti_recovery_on_clean_candidate() {
        let (at, rnti) = ((4, AggregationLevel::L4), Rnti(0x4296));
        let (pl, _, cw) = sent_and_heard(at, (rnti, false), (123, 7), 40, |_| ());
        assert_eq!(dci_recover_rnti(&cw).expect("recovery"), rnti.0);
        assert_eq!(cw[..40], pl);
    }

    #[test]
    fn decode_survives_flat_channel_and_noise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        // Apply a flat channel (gain+rotation) and mild AWGN.
        let h = Cf32::from_polar(0.7, 2.1);
        let channel = |grid: &mut ResourceGrid| {
            for re in grid.symbol_mut(0) {
                let noise = Cf32::new(rng.gen_range(-0.03..0.03), rng.gen_range(-0.03..0.03));
                *re = *re * h + noise;
            }
        };
        let (at, rnti) = ((0, AggregationLevel::L2), Rnti(0x17A3));
        let (pl, soft, cw) = sent_and_heard(at, (rnti, true), (77, 5), 44, channel);
        assert!(soft.pilot_snr > 10.0, "pilot snr {}", soft.pilot_snr);
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
        assert_eq!(SearchBudget::default(), SearchBudget::unlimited());
        assert!(!SearchBudget::unlimited().skip_ue);
        assert!(
            SearchBudget::broadcast_only().skip_ue,
            "no UE decodes at all"
        );
    }

    #[test]
    fn bits_per_cce_matches_re_budget() {
        // 6 REGs × (12-3) data REs × 2 bits = 108 — the E the paper's DCI
        // encoding implies per CCE.
        assert_eq!(BITS_PER_CCE, 108);
        let mut offsets: Vec<usize> = DMRS_OFFSETS.into_iter().chain(DATA_OFFSETS).collect();
        offsets.sort_unstable();
        assert!(offsets.into_iter().eq(0..12), "pilots + data = the PRB");
        assert_eq!(AggregationLevel::L8.bits(), 864);
    }
}
