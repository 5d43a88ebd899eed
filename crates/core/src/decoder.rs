//! The slot path's decode stages: IQ front end → candidate extraction →
//! scan → RNTI hypothesis test (paper Fig 4; cost model Fig 12).
//!
//! The sniffer never knows which candidates are occupied. It scans every
//! aligned candidate position at every aggregation level (IQ fidelity) or
//! every captured codeword (message fidelity), and for each one tries, in
//! order (paper §3.1.2, §3.2.1):
//!
//! 1. **common-search-space hypotheses** — SI-RNTI, the RA-RNTIs of recent
//!    PRACH occasions, and any TC-RNTIs learned from RARs (all descrambled
//!    with the cell-scoped sequence), falling back to CRC-XOR RNTI
//!    recovery for MSG 4s whose RAR was missed;
//! 2. **known-UE hypotheses** — each tracked C-RNTI with its UE-specific
//!    descrambling.
//!
//! There is one scan and one hypothesis tester. The two fidelities differ
//! only in how a candidate yields hard-decision codewords — the private
//! `Candidate` trait: a descramble for [`ObservedDci`], an LLR sign flip
//! plus polar decode for [`ExtractedCandidate`]. A codeword is tested
//! through its CRC syndrome ([`dci_syndrome`]): one number that every RNTI
//! hypothesis is compared with.
//!
//! A blind slot is scanned in two passes, every cheap question before any
//! expensive one: pass A asks each candidate only what a GF(2) transform
//! answers — are its hard decisions already a codeword
//! ([`PolarCode::codeword_with`]) that a hypothesis matches? — and such a
//! find *claims* its CCEs; pass B spends SC walks only on positions no
//! claim explains (`scan` says what a walk on an explained one would buy).

use crate::metrics::{Counter, Metrics, Stage};
use crate::observe::ObservedDci;
use nr_phy::complex::Cf32;
use nr_phy::crc::dci_syndrome;
use nr_phy::dci::{Dci, DciFormat, DciSizing};
use nr_phy::dmrs::PilotSums;
use nr_phy::grid::ResourceGrid;
use nr_phy::modulation::{demodulate_llr_into, Modulation};
use nr_phy::numerology::SYMBOLS_PER_SLOT;
use nr_phy::ofdm::Ofdm;
use nr_phy::pdcch::{
    candidate_cce, cce_pilot_sums, extract_candidate_above, search_space_cinit, ue_search_space_y,
    AggregationLevel, Coreset, CoresetSequences, SearchBudget, PILOT_SNR_FLOOR,
};
use nr_phy::polar::{DecodeScratch, PolarCode};
use nr_phy::sequence::{gold_bits_cached, scrambling_syndrome_cached};
use nr_phy::types::{Pci, Rnti, RntiType};
use nr_phy::Numerology;
use nr_rrc::{Mib, RrcSetup};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// One successfully decoded DCI.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedDci {
    /// The RNTI whose CRC validated (or was recovered).
    pub rnti: Rnti,
    /// Classification implied by which hypothesis matched.
    pub rnti_type: RntiType,
    /// Unpacked fields.
    pub dci: Dci,
    /// Aggregation level of the winning candidate.
    pub level: AggregationLevel,
    /// First CCE of the winning candidate.
    pub cce_start: usize,
}

/// One C-RNTI hypothesis and where it may sit this slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UeHypothesis {
    /// The C-RNTI.
    pub rnti: Rnti,
    /// The UE's search space in this slot (38.213 §10.1): its aggregation
    /// level and a bit per admitted first CCE. `None` — no RRC Setup known,
    /// or a slot clock not to be trusted — offers the RNTI to every
    /// candidate.
    pub space: Option<(AggregationLevel, u128)>,
}

impl UeHypothesis {
    /// `rnti` offered to every candidate.
    pub fn anywhere(rnti: Rnti) -> UeHypothesis {
        UeHypothesis { rnti, space: None }
    }

    /// `rnti` offered only where the search space its RRC Setup configures
    /// hashes to on `coreset` in `slot_in_frame` — the positions the gNB
    /// may place its DCIs at, and the only ones the UE itself monitors.
    pub fn in_search_space(
        rnti: Rnti,
        rrc: &RrcSetup,
        coreset: &Coreset,
        slot_in_frame: usize,
    ) -> UeHypothesis {
        let (level, n_cces) = (rrc.aggregation_level, coreset.n_cces());
        if n_cces > u128::BITS as usize {
            return UeHypothesis::anywhere(rnti);
        }
        let n_cand = rrc.candidates_per_level as usize;
        let y = ue_search_space_y(rnti, 0, slot_in_frame);
        let starts = (0..n_cand).filter_map(|m| candidate_cce(y, level, m, n_cand, n_cces));
        UeHypothesis {
            rnti,
            space: Some((level, starts.fold(0, |mask, cce| mask | 1 << cce))),
        }
    }

    fn admits(&self, level: AggregationLevel, cce_start: usize) -> bool {
        let bit = 1u128.checked_shl(cce_start as u32).unwrap_or(0);
        (self.space).is_none_or(|(l, starts)| l == level && starts & bit != 0)
    }
}

/// The RNTI hypothesis sets for one slot.
#[derive(Debug, Clone, Default)]
pub struct Hypotheses {
    /// RA-RNTIs of PRACH occasions within the response window.
    pub ra_rntis: Vec<Rnti>,
    /// TC-RNTIs learned from decoded RARs.
    pub tc_rntis: Vec<Rnti>,
    /// Tracked C-RNTIs, each with its search space when known.
    pub c_rntis: Vec<UeHypothesis>,
    /// Accept CRC-XOR-recovered TC-RNTIs not matching any pending RAR
    /// (the missed-RAR fallback).
    pub allow_recovery: bool,
    /// Skip the common-search-space pass entirely (set on worker shards
    /// other than the SIBs/RACH shard so the common hypotheses run once).
    pub skip_common: bool,
}

/// How much decode work one slot *offered* the pipeline, regardless of how
/// far each attempt got. The counts are deterministic for a given capture,
/// hypothesis set, and [`SearchBudget`] — the overload governor's
/// [`crate::governor::LoadModel`] maps them to a synthetic latency so the
/// ladder's dynamics are seed-reproducible in tests.
///
/// Of a blind scan's two passes the walking one (B) does the counting.
/// `candidates` counts every candidate. The codeword-only pass (A) counts
/// nothing for a candidate it does not claim — a CRC match whose payload
/// fails validation is no claim: pass B meets it again — and for one it
/// claims what pass B would have: a UE-pass claim is one of `ue_candidates`
/// with every admitted C-RNTI in `ue_hypotheses`. Pass A asks its UE
/// questions only where the budget admits the candidate given the claims
/// so far — a cap covers claims and walks alike, claims first — and never
/// counts a refusal (`pruned` is pass B's). A candidate sharing a CCE with
/// a claim or an earlier find counts in `candidates` alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeWork {
    /// Candidates (codewords or grid positions) scanned.
    pub candidates: usize,
    /// Candidates admitted into the UE-specific pass.
    pub ue_candidates: usize,
    /// UE-specific RNTI hypotheses offered: over the admitted candidates,
    /// the C-RNTIs whose search space admits each one.
    pub ue_hypotheses: usize,
    /// Candidates the search budget refused a UE-specific pass.
    pub pruned: usize,
    /// CRC-passing payloads rejected by stage-1 plausibility validation
    /// (see [`nr_phy::dci::DciReject`]) before any state was mutated.
    pub validation_rejects: usize,
}

impl DecodeWork {
    /// Accumulate another shard's work counts.
    pub fn absorb(&mut self, other: &DecodeWork) {
        self.candidates += other.candidates;
        self.ue_candidates += other.ue_candidates;
        self.ue_hypotheses += other.ue_hypotheses;
        self.pruned += other.pruned;
        self.validation_rejects += other.validation_rejects;
    }
}

/// Decoder context shared across a telemetry session.
#[derive(Debug, Clone)]
pub struct DecoderContext {
    /// The cell's CORESET (from the MIB).
    pub coreset: Coreset,
    /// Cell identity driving scrambling and DMRS.
    pub pci: u16,
    /// Subcarrier spacing of the carrier (the MIB's `scs_common`): two
    /// carriers can share a slot's sample count and differ only here.
    pub numerology: Numerology,
    /// Common-search-space DCI sizing (initial BWP = CORESET 0).
    pub common_sizing: DciSizing,
    /// UE-specific DCI sizing (carrier BWP, from SIB1); `None` until SIB1
    /// is acquired.
    pub ue_sizing: Option<DciSizing>,
}

/// The payload sizes a search space can carry, one per DCI format.
fn payload_sizes(sizing: &DciSizing) -> [usize; 2] {
    [
        sizing.payload_bits(DciFormat::Dl1_1),
        sizing.payload_bits(DciFormat::Ul0_1),
    ]
}

/// Carrier widths (PRBs) of the paper's preset cells, tried when the
/// decoder context knows no width that fits (a cold bootstrap).
const PRESET_CARRIER_PRBS: [usize; 4] = [51, 52, 79, 24];

/// Every (K, E) polar code a thread has met, each configured once, and
/// the SC decoder's working memory.
#[derive(Debug, Default)]
struct PolarCodes {
    codes: Vec<PolarCode>,
    scratch: DecodeScratch,
}

thread_local! {
    /// This thread's polar codes, and the candidate in hand as one UE
    /// descrambles it — kept like the thread's Gold sequences
    /// ([`gold_bits_cached`]): none of it is telemetry state.
    static POLAR_CODES: std::cell::RefCell<(PolarCodes, Vec<f32>)> = Default::default();
}

impl PolarCodes {
    /// Polar-decode `llrs` to `k` bits, which live here until the next
    /// call: by SC, or — `walk` unset — only if their hard decisions are a
    /// codeword as they stand ([`PolarCode::codeword_with`]), which is what
    /// SC would then return.
    fn decode(&mut self, k: usize, llrs: &[f32], walk: bool) -> Option<&[u8]> {
        let known = (self.codes.iter()).position(|c| (c.k, c.e) == (k, llrs.len()));
        let at = known.unwrap_or_else(|| {
            self.codes.push(PolarCode::new(k, llrs.len()));
            self.codes.len() - 1
        });
        let (code, llrs) = (&self.codes[at], llrs.iter().copied());
        match walk {
            true => Some(code.decode_sc_with(llrs, &mut self.scratch)),
            false => code.codeword_with(llrs, &mut self.scratch),
        }
    }
}

/// What the IQ slot path builds once and keeps between slots, each part
/// keyed by what it was built from: the OFDM plan and the grid it fills
/// (numerology, carrier width), and working memory that only grows. None
/// of it is telemetry state — a fresh one decodes the same, later. The
/// live scope owns one for the session, a pool thread one for its jobs.
#[derive(Debug, Default)]
pub(crate) struct FrontEnd {
    /// The (numerology, carrier width) planned for, the plan, its grid.
    layout: Option<((Numerology, usize), Ofdm, ResourceGrid)>,
    /// The FFT's working buffer.
    time: Vec<Cf32>,
    /// The grid symbols the last slot wrote; every other one is zero.
    filled: [bool; SYMBOLS_PER_SLOT],
    cce_sums: Vec<PilotSums>,
    pbch_llrs: Vec<f32>,
}

impl FrontEnd {
    /// Plan for the layout whose slot is `len` samples long — the plan and
    /// grid kept when they already are that (numerology, width): tried at
    /// the context's numerology from the widths it knows (the SIB1 carrier
    /// BWP, then the CORESET 0 width the MIB guarantees) before the presets
    /// — how srsRAN's cell search sizes its FFT; a cold bootstrap, without
    /// a context, tries both numerologies.
    pub(crate) fn plan_layout(&mut self, ctx: Option<&DecoderContext>, len: usize, sif: usize) {
        let known = ctx.into_iter().flat_map(|c| {
            let sizings = c.ue_sizing.into_iter().chain([c.common_sizing]);
            sizings.map(|s| s.bwp_prbs)
        });
        let widths = known.chain(PRESET_CARRIER_PRBS);
        let pick = [Numerology::Mu1, Numerology::Mu0]
            .into_iter()
            .filter(|numer| ctx.is_none_or(|c| c.numerology == *numer))
            .flat_map(|numer| widths.clone().map(move |prbs| (numer, prbs)))
            .find(|&(numer, prbs)| numer.samples_per_slot(numer.fft_size(prbs), sif) == len);
        if pick != self.layout.as_ref().map(|(key, ..)| *key) {
            self.layout = pick.map(|key| (key, Ofdm::new(key.0, key.1), ResourceGrid::new(key.1)));
            self.filled = [false; SYMBOLS_PER_SLOT];
        }
    }

    /// The IQ front end, shared by the live scope and the pool's workers:
    /// demodulate the symbols `wanted` marks under the `demod` stage; every
    /// other symbol of the returned grid is zero. A layout is planned when
    /// there is none: the scope keeps its first for the session, a pool
    /// thread plans for every job. `None` means no layout fits (a truncated
    /// capture or an unknown carrier) and is counted as a layout mismatch.
    pub(crate) fn demodulate_slot(
        &mut self,
        ctx: Option<&DecoderContext>,
        samples: &[Cf32],
        slot_in_frame: usize,
        wanted: &[bool; SYMBOLS_PER_SLOT],
        metrics: &Arc<Metrics>,
    ) -> Option<&ResourceGrid> {
        if self.layout.is_none() {
            self.plan_layout(ctx, samples.len(), slot_in_frame);
        }
        let Some((_, ofdm, grid)) = (self.layout.as_mut())
            .filter(|(_, o, _)| o.samples_per_slot(slot_in_frame) == samples.len())
        else {
            metrics.inc(Counter::LayoutMismatches);
            return None;
        };
        let _t = metrics.start(Stage::Demod);
        for sym in (0..SYMBOLS_PER_SLOT).filter(|&sym| self.filled[sym] && !wanted[sym]) {
            grid.symbol_mut(sym).fill(Cf32::ZERO);
        }
        self.filled = *wanted;
        ofdm.demodulate_symbols_into(samples, slot_in_frame, wanted, grid, &mut self.time);
        Some(grid)
    }

    /// [`extract_all_candidates`] of the slot last demodulated.
    pub(crate) fn extract_all_candidates(
        &mut self,
        ctx: &DecoderContext,
        sif: usize,
    ) -> Vec<ExtractedCandidate> {
        let grid = self.layout.as_ref().map(|(.., grid)| grid);
        grid.map_or_else(Vec::new, |g| {
            extract_candidates(ctx, g, sif, &mut self.cce_sums)
        })
    }

    /// PBCH (MIB) decode from the slot last demodulated, when it bears an
    /// SSB; mirrors `gnb_sim::iq::map_ssb`.
    pub(crate) fn decode_pbch(&mut self, pci: Pci) -> Option<Mib> {
        let (.., grid) = self.layout.as_ref()?;
        let n_sc = grid.n_subcarriers();
        let ssb_width = 240.min(n_sc);
        let base = (n_sc - ssb_width) / 2;
        // The PBCH's QPSK symbols: SSB symbol 1, then as much of symbol 3
        // as the E bits take.
        let e = crate::pbch_e_bits();
        let first = ssb_width.min(e / 2);
        if e / 2 - first > ssb_width {
            return None;
        }
        let (sym1, sym3) = (&grid.symbol(1)[base..], &grid.symbol(3)[base..]);
        let rx = [&sym1[..first], &sym3[..e / 2 - first]];
        // Energy gate: an SSB-less slot has nothing here.
        let power = rx.iter().copied().flatten().map(|v| v.norm_sqr());
        if power.sum::<f32>() / ((e / 2) as f32) < 0.1 {
            return None;
        }
        let llrs = &mut self.pbch_llrs;
        llrs.clear();
        (rx.iter()).for_each(|part| demodulate_llr_into(part, Modulation::Qpsk, 0.1, llrs));
        let scr = gold_bits_cached(pci.0 as u32, e);
        // Descrambling is a sign flip.
        for (l, &s) in llrs.iter_mut().zip(scr.iter()) {
            *l = if s == 1 { -*l } else { *l };
        }
        POLAR_CODES.with_borrow_mut(|(polar, _)| {
            let cw = polar.decode(Mib::BITS + 24, llrs, true)?;
            let mib = (dci_syndrome(cw)? == 0).then(|| Mib::decode(&cw[..Mib::BITS]));
            mib?.ok()
        })
    }
}

/// The symbols of a slot the CORESET occupies — all a PDCCH decode reads.
pub(crate) fn coreset_symbols(coreset: &Coreset) -> [bool; SYMBOLS_PER_SLOT] {
    let span = coreset.symbol_start..coreset.symbol_start + coreset.n_symbols;
    std::array::from_fn(|sym| span.contains(&sym))
}

/// One equalised candidate extracted from a grid (signal-processing
/// product, shareable across DCI threads).
#[derive(Debug, Clone)]
pub struct ExtractedCandidate {
    /// Common-descrambled LLRs.
    pub llrs: Vec<f32>,
    /// Aggregation level.
    pub level: AggregationLevel,
    /// First CCE.
    pub cce_start: usize,
}

/// Signal-processing stage: extract and equalise every energetic candidate
/// of the CORESET (run once per slot; the Fig 4 "one slot data" product
/// handed to the DCI threads).
pub fn extract_all_candidates(
    ctx: &DecoderContext,
    grid: &ResourceGrid,
    slot_in_frame: usize,
) -> Vec<ExtractedCandidate> {
    extract_candidates(ctx, grid, slot_in_frame, &mut Vec::new())
}

fn extract_candidates(
    ctx: &DecoderContext,
    grid: &ResourceGrid,
    sif: usize,
    sums: &mut Vec<PilotSums>,
) -> Vec<ExtractedCandidate> {
    let mut out = Vec::new();
    let (coreset, n_cces, floor) = (&ctx.coreset, ctx.coreset.n_cces(), PILOT_SNR_FLOOR);
    let fitting = (AggregationLevel::all().into_iter()).take_while(|l| l.cces() <= n_cces);
    // (A CORESET under one CCE has no candidates; any level will do.)
    let longest = fitting.clone().last().unwrap_or(AggregationLevel::L1);
    let seqs = CoresetSequences::new(coreset, longest, ctx.pci, cinit_for(None, ctx.pci), sif);
    // Every pilot is read here, once, for all the levels its CCE is part
    // of; a position under the floor is dropped before its data is read.
    sums.clear();
    sums.extend((0..n_cces).map(|cce| cce_pilot_sums(grid, coreset, &seqs, cce)));
    for level in fitting {
        for (i, cces) in sums.chunks_exact(level.cces()).enumerate() {
            let cce_start = i * level.cces();
            let soft = extract_candidate_above(grid, coreset, cce_start, level, &seqs, cces, floor);
            out.extend(soft.map(|soft| ExtractedCandidate {
                llrs: soft.llrs,
                level,
                cce_start,
            }));
        }
    }
    out
}

/// Makes the payload bits of a codeword whose syndrome a hypothesis matched.
type PayloadOf<'a> = &'a dyn Fn() -> Cow<'a, [u8]>;

/// Where a candidate's hard-decision codewords come from — the one thing
/// the two fidelities do differently. Everything downstream (hypothesis
/// order, budget gate, validation, accounting, timing) is shared.
pub(crate) trait Candidate {
    /// A blind grid position (IQ) rather than a captured codeword
    /// (message). Positions at different aggregation levels alias one
    /// another's CCEs, so [`scan`] takes a slot of them in two passes and
    /// skips one overlapping a decoded DCI; and their search cost —
    /// extraction — is paid before the scan, so the scan itself is not
    /// the `pdcch_search` stage.
    const BLIND: bool;
    /// Aggregation level.
    fn level(&self) -> AggregationLevel;
    /// First CCE.
    fn cce_start(&self) -> usize;
    /// Whether a codeword of one of `sizes` payload bits can come out of
    /// this candidate at all — asked before the search budget is spent.
    /// A blind position rules nothing out.
    fn fits(&self, _sizes: &[usize; 2]) -> bool {
        true
    }
    /// The [`dci_syndrome`] of the candidate as captured, when it is hard
    /// bits already: computed once, it serves every hypothesis.
    fn raw_syndrome(&self) -> Option<u32> {
        None
    }
    /// Hand `test` the [`dci_syndrome`] of the hard-decision codeword for
    /// each scrambling of `scramblings` — the common search space's (`None`)
    /// or one C-RNTI's — and under it each admissible size in `sizes`,
    /// until it reports a hit; the payload bits are made only when `test`
    /// asks — for a hypothesis the syndrome matched. `raw` is this
    /// candidate's [`Self::raw_syndrome`]; a polar decode, with `walk`
    /// unset, yields a codeword only where the hard decisions already are
    /// one ([`PolarCode::codeword_with`]).
    fn codewords<T>(
        &self,
        ctx: &DecoderContext,
        raw: Option<u32>,
        scramblings: impl Iterator<Item = Option<Rnti>>,
        sizes: &[usize; 2],
        walk: bool,
        test: impl FnMut(Option<Rnti>, u32, PayloadOf<'_>) -> Option<T>,
    ) -> Option<T>;
}

/// Scrambling identity of the common search space (`None`) or one UE's.
fn cinit_for(ue: Option<Rnti>, pci: u16) -> u32 {
    search_space_cinit(ue.unwrap_or(Rnti(0)), ue.is_some(), pci)
}

/// Message fidelity: the codeword was captured whole, so its length fixes
/// the payload size, and a descrambling moves its syndrome by the
/// sequence's own (memoised per thread): a rejected hypothesis is a lookup
/// and an XOR, and only one that matches descrambles the payload.
impl Candidate for ObservedDci {
    const BLIND: bool = false;

    fn level(&self) -> AggregationLevel {
        self.level
    }

    fn cce_start(&self) -> usize {
        self.cce_start
    }

    fn fits(&self, sizes: &[usize; 2]) -> bool {
        (self.scrambled_bits.len().checked_sub(24)).is_some_and(|p| sizes.contains(&p))
    }

    fn raw_syndrome(&self) -> Option<u32> {
        dci_syndrome(&self.scrambled_bits)
    }

    fn codewords<T>(
        &self,
        ctx: &DecoderContext,
        raw: Option<u32>,
        mut scramblings: impl Iterator<Item = Option<Rnti>>,
        sizes: &[usize; 2],
        _walk: bool,
        mut test: impl FnMut(Option<Rnti>, u32, PayloadOf<'_>) -> Option<T>,
    ) -> Option<T> {
        if !self.fits(sizes) {
            return None;
        }
        let bits = &self.scrambled_bits;
        scramblings.find_map(|ue| {
            let c_init = cinit_for(ue, ctx.pci);
            let syndrome = raw? ^ scrambling_syndrome_cached(c_init, bits.len())?;
            test(ue, syndrome, &|| {
                let seq = gold_bits_cached(c_init, bits.len());
                let payload = bits[..bits.len() - 24].iter().zip(seq.iter());
                payload.map(|(b, s)| b ^ s).collect()
            })
        })
    }
}

/// IQ fidelity: the LLRs are common-descrambled, which is how the common
/// pass decodes them; a UE hypothesis flips the signs where its sequence
/// differs from the common one, once for all its sizes, and every size
/// shorter than the candidate gets its own polar decode.
impl Candidate for ExtractedCandidate {
    const BLIND: bool = true;

    fn level(&self) -> AggregationLevel {
        self.level
    }

    fn cce_start(&self) -> usize {
        self.cce_start
    }

    fn codewords<T>(
        &self,
        ctx: &DecoderContext,
        _raw: Option<u32>,
        mut scramblings: impl Iterator<Item = Option<Rnti>>,
        sizes: &[usize; 2],
        walk: bool,
        mut test: impl FnMut(Option<Rnti>, u32, PayloadOf<'_>) -> Option<T>,
    ) -> Option<T> {
        let e = self.level.bits();
        let seq = |ue| gold_bits_cached(cinit_for(ue, ctx.pci), e);
        // Looked up for the first UE of the call, not at all for none.
        let mut common = None;
        POLAR_CODES.with_borrow_mut(|(polar, ue_llrs)| {
            scramblings.find_map(|ue| {
                let llrs = ue.map_or(&self.llrs, |_| {
                    let (common, own) = (common.get_or_insert_with(|| seq(None)), seq(ue));
                    let flips = common.iter().zip(own.iter());
                    let llrs = self.llrs.iter().zip(flips);
                    ue_llrs.clear();
                    ue_llrs.extend(llrs.map(|(l, (a, b))| if a == b { *l } else { -*l }));
                    &*ue_llrs
                });
                (sizes.iter().filter(|&&p| p + 24 < e)).find_map(|&p| {
                    let cw = polar.decode(p + 24, llrs, walk)?;
                    test(ue, dci_syndrome(cw)?, &|| Cow::Borrowed(&cw[..p]))
                })
            })
        })
    }
}

/// Hypothesis-testing stage over a message-fidelity capture's codewords
/// under a [`SearchBudget`]: the common pass (SI/RA/TC + MSG 4 recovery)
/// always runs in full; the budget gates only the UE-specific pass. The
/// whole scan is the `pdcch_search` stage — there is no extraction step
/// to time. Returns the decoded DCIs plus the slot's offered-work counts
/// for the overload governor.
pub fn decode_message_slot_budgeted(
    ctx: &DecoderContext,
    observed: &[ObservedDci],
    hyp: &Hypotheses,
    budget: SearchBudget,
    metrics: Option<&Arc<Metrics>>,
) -> (Vec<DecodedDci>, DecodeWork) {
    scan(ctx, observed, hyp, budget, metrics)
}

/// Hypothesis-testing stage over pre-extracted IQ candidates (the
/// `pdcch_search` stage is their extraction, timed by the caller), under
/// the same [`SearchBudget`] rule as [`decode_message_slot_budgeted`].
/// Every polar code the scan meets is configured once per thread.
pub fn decode_candidates_budgeted(
    ctx: &DecoderContext,
    candidates: &[ExtractedCandidate],
    hyp: &Hypotheses,
    budget: SearchBudget,
    metrics: Option<&Arc<Metrics>>,
) -> (Vec<DecodedDci>, DecodeWork) {
    scan(ctx, candidates, hyp, budget, metrics)
}

/// Whether `cand` shares a CCE with any DCI of `found`.
fn overlaps(found: &[DecodedDci], cand: &impl Candidate) -> bool {
    let (b, b_len) = (cand.cce_start(), cand.level().cces());
    (found.iter()).any(|d| d.cce_start < b + b_len && b < d.cce_start + d.level.cces())
}

/// The one scan: every candidate through [`test_hypotheses`], with the work
/// accounting and the stage timing — blind candidates in two passes, every
/// cheap question of the slot before any expensive one.
///
/// **Pass A** asks each candidate in order only the codeword test (`walk`
/// unset): are its hard decisions, under the common scrambling or a
/// budget-admitted C-RNTI's, a codeword whose CRC a hypothesis matches and
/// whose payload validates? Such a hit is a *claim*: SC would return that
/// very codeword, so the DCI is decoded and its CCEs are explained. One
/// overlapping an earlier claim is not asked.
///
/// **Pass B** is the scan proper, SC walks included, over what is left: a
/// claimed candidate is done, and one sharing a CCE with a claim — earlier
/// *or later* in order — or with an earlier find is skipped. Positions at
/// different levels share CCEs, so a DCI lights up the shorter positions
/// ahead of it in order; a walk there turns noise into a random codeword:
/// its cost for nothing and, where recovery is allowed, a 2⁻⁸ attempt at a
/// ghost TC-RNTI that would shadow the real DCI behind it (DESIGN.md,
/// "Untrusted input"). `out` stays in candidate order; a captured codeword
/// (`C::BLIND` unset) has no aliases, and pass B is its whole scan.
pub(crate) fn scan<C: Candidate>(
    ctx: &DecoderContext,
    candidates: &[C],
    hyp: &Hypotheses,
    budget: SearchBudget,
    metrics: Option<&Arc<Metrics>>,
) -> (Vec<DecodedDci>, DecodeWork) {
    let metrics: &Metrics = metrics.unwrap_or(Metrics::disabled());
    // Per-candidate RAII timers cost two clock reads plus an Arc
    // clone/drop each, which dominates the instrumentation overhead at
    // tens of candidates per slot. Chain the readings instead: one
    // `Instant::now()` per candidate ends its `dci_decode` observation
    // and starts the next one's, and the first and last bracket the scan
    // (pass A's time lands on the first candidate's observation).
    let scan_start = metrics.is_enabled().then(Instant::now);
    let mut t_prev = scan_start;
    let mut out: Vec<DecodedDci> = Vec::new();
    let mut work = DecodeWork::default();
    let askable = candidates.iter().filter(|_| C::BLIND);
    #[cfg(test)]
    let askable = askable.filter(|_| !tests::WALK_ONLY.get());
    for cand in askable {
        if overlaps(&out, cand) {
            continue;
        }
        // Counted as pass B would have counted this candidate, if it claims.
        let mut counted = work;
        if let Some(hit) = test_hypotheses(ctx, cand, hyp, budget, false, &mut counted) {
            out.push(hit);
            work = counted;
        }
    }
    // Where in `out` a DCI of the candidate in hand belongs.
    let mut at = 0;
    for cand in candidates {
        work.candidates += 1;
        let position = (cand.level(), cand.cce_start());
        if C::BLIND && (out.get(at)).is_some_and(|d| (d.level, d.cce_start) == position) {
            at += 1;
        } else if !(C::BLIND && overlaps(&out, cand)) {
            if let Some(hit) = test_hypotheses(ctx, cand, hyp, budget, true, &mut work) {
                out.insert(at, hit);
                at += 1;
            }
        }
        if let Some(prev) = t_prev {
            let now = Instant::now();
            metrics.observe(Stage::DciDecode, now - prev);
            t_prev = Some(now);
        }
    }
    if !C::BLIND {
        if let Some((start, end)) = scan_start.zip(t_prev) {
            metrics.observe(Stage::PdcchSearch, end - start);
        }
    }
    metrics.add(Counter::CandidatesScanned, work.candidates as u64);
    metrics.add(Counter::DcisDecoded, out.len() as u64);
    metrics.add(Counter::CandidatesPruned, work.pruned as u64);
    metrics.add(Counter::ValidationRejects, work.validation_rejects as u64);
    (out, work)
}

/// The one hypothesis tester: SI → RA → TC → CRC-XOR recovery in the
/// common search space (never pruned by any budget), then — if the budget
/// admits the candidate — each tracked C-RNTI whose search space admits
/// this position, under its own scrambling. The first hypothesis whose CRC
/// checks *and* whose payload validates wins; a CRC match whose payload
/// does not is counted and passed over.
///
/// With `walk` unset a blind candidate yields a codeword only where its
/// hard decisions already are one (pass A of [`scan`]): the same questions
/// in the same order with the same counting, of what needs no SC walk.
fn test_hypotheses<C: Candidate>(
    ctx: &DecoderContext,
    cand: &C,
    hyp: &Hypotheses,
    budget: SearchBudget,
    walk: bool,
    work: &mut DecodeWork,
) -> Option<DecodedDci> {
    let raw = cand.raw_syndrome();
    if !hyp.skip_common {
        let sizing = ctx.common_sizing;
        let rejects = &mut work.validation_rejects;
        let sizes = payload_sizes(&sizing);
        let common = std::iter::once(None);
        let hit = cand.codewords(ctx, raw, common, &sizes, walk, |_, syndrome, payload| {
            let known = std::iter::once((Rnti::SI, RntiType::Si))
                .chain(hyp.ra_rntis.iter().map(|r| (*r, RntiType::Ra)))
                .chain(hyp.tc_rntis.iter().map(|r| (*r, RntiType::Tc)));
            // The codeword checks against the one RNTI its syndrome equals.
            for (rnti, rnti_type) in known.filter(|(r, _)| syndrome == r.0 as u32) {
                let hit = unpack(cand, &payload(), &sizing, rnti, rnti_type, rejects);
                if hit.is_some() {
                    return hit;
                }
            }
            // Missed-RAR fallback: recover an unknown TC-RNTI from the
            // CRC XOR — the syndrome itself, when its high 8 bits are clean.
            if !hyp.allow_recovery {
                return None;
            }
            let r = Rnti(u16::try_from(syndrome).ok()?);
            if !r.is_c_rnti_range() || hyp.c_rntis.iter().any(|ue| ue.rnti == r) {
                return None;
            }
            unpack(cand, &payload(), &sizing, r, RntiType::Tc, rejects)
        });
        if hit.is_some() {
            return hit;
        }
    }
    let sizing = ctx.ue_sizing?;
    let sizes = payload_sizes(&sizing);
    if hyp.c_rntis.is_empty() || !cand.fits(&sizes) {
        return None;
    }
    if !budget.admits_ue(cand.level(), work.ue_candidates) {
        work.pruned += 1;
        return None;
    }
    work.ue_candidates += 1;
    let (level, cce_start) = (cand.level(), cand.cce_start());
    let offered = (hyp.c_rntis.iter()).filter(|ue| ue.admits(level, cce_start));
    work.ue_hypotheses += offered.clone().count();
    let offered = offered.map(|ue| Some(ue.rnti));
    let rejects = &mut work.validation_rejects;
    cand.codewords(ctx, raw, offered, &sizes, walk, |ue, syndrome, bits| {
        let rnti = ue.filter(|rnti| syndrome == rnti.0 as u32)?;
        unpack(cand, &bits(), &sizing, rnti, RntiType::C, rejects)
    })
}

/// Stage-1 plausibility gate: every CRC-passing payload, whatever its
/// provenance (hypothesis match or CRC-XOR recovery), is unpacked with
/// [`Dci::unpack_validated`] and rejected — counted, never propagated —
/// when any field contradicts the active cell configuration.
fn unpack(
    cand: &impl Candidate,
    payload: &[u8],
    sizing: &DciSizing,
    rnti: Rnti,
    rnti_type: RntiType,
    rejects: &mut usize,
) -> Option<DecodedDci> {
    match Dci::unpack_validated(payload, sizing) {
        Ok(dci) => Some(DecodedDci {
            rnti,
            rnti_type,
            dci,
            level: cand.level(),
            cce_start: cand.cce_start(),
        }),
        Err(_) => {
            *rejects += 1;
            None
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::observe::tests::loaded_gnb;
    use crate::observe::{scrambling_for, Observer};
    use gnb_sim::CellConfig;

    pub(crate) fn ctx(cfg: &CellConfig) -> DecoderContext {
        DecoderContext {
            coreset: cfg.coreset,
            pci: cfg.pci.0,
            numerology: cfg.numerology,
            common_sizing: DciSizing {
                bwp_prbs: cfg.coreset.n_prb,
            },
            ue_sizing: Some(DciSizing {
                bwp_prbs: cfg.carrier_prbs,
            }),
        }
    }

    thread_local! {
        /// Strips [`scan`] of pass A — every position walked in order —
        /// for the differential below to compare with.
        pub(super) static WALK_ONLY: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
    }

    /// Every hypothesis against every codeword: no budget, no metrics.
    fn decode_all(c: &DecoderContext, dcis: &[ObservedDci], hyp: &Hypotheses) -> Vec<DecodedDci> {
        decode_message_slot_budgeted(c, dcis, hyp, SearchBudget::unlimited(), None).0
    }

    /// The cell of `loaded_gnb(seed)` heard at 35 dB, message fidelity: its
    /// decoder context, and of its first 2000 slots those carrying a DCI of
    /// `kind`, each with the codewords captured from it.
    fn captures(
        (seed, obs_seed): (u64, u64),
        kind: RntiType,
    ) -> (
        DecoderContext,
        impl Iterator<Item = (gnb_sim::SlotOutput, Vec<ObservedDci>)>,
    ) {
        let mut g = loaded_gnb(seed);
        let cfg = g.cfg.clone();
        let mut obs = Observer::new(&cfg, 35.0, false, obs_seed);
        let slots = (0..2000).filter_map(move |s| {
            let out = g.step();
            let sent = out.dcis.iter().any(|d| d.rnti_type == kind);
            match sent.then(|| obs.observe(&out, s as f64 * 0.0005))? {
                crate::observe::ObservedSlot::Message { dcis, .. } => Some((out, dcis)),
                _ => None,
            }
        });
        (ctx(&cfg), slots)
    }

    /// `c_rntis` tracked, each offered to every candidate.
    fn knowing(c_rntis: &[Rnti]) -> Hypotheses {
        Hypotheses {
            c_rntis: c_rntis.iter().map(|r| UeHypothesis::anywhere(*r)).collect(),
            ..Hypotheses::default()
        }
    }

    /// How many of `types` are C-RNTI DCIs.
    pub(crate) fn n_c(types: impl Iterator<Item = RntiType>) -> usize {
        types.filter(|t| *t == RntiType::C).count()
    }

    /// A MSG 4 whose RAR was missed yields its TC-RNTI through the CRC XOR
    /// — under the harshest budget too: the never-go-dark invariant at the
    /// decode layer.
    #[test]
    fn msg4_recovery_yields_tc_rnti_under_any_budget() {
        for (seeds, budget) in [
            ((3, 5), SearchBudget::unlimited()),
            ((7, 8), SearchBudget::broadcast_only()),
        ] {
            let (c, slots) = captures(seeds, RntiType::Tc);
            let hyp = Hypotheses {
                allow_recovery: true,
                ..Hypotheses::default()
            };
            // A marginal capture may fail recovery for a slot: the first
            // MSG 4 that is recovered decides.
            let recovered = slots.into_iter().find_map(|(out, dcis)| {
                let (decoded, _) = decode_message_slot_budgeted(&c, &dcis, &hyp, budget, None);
                let rec = decoded.iter().find(|d| d.rnti_type == RntiType::Tc)?;
                let tx = out.dcis.iter().find(|d| d.rnti_type == RntiType::Tc)?;
                Some((rec.rnti, tx.rnti))
            });
            let (rec, tx) = recovered.expect("a MSG 4 recovered");
            assert_eq!(rec, tx, "recovered the TC-RNTI via CRC XOR");
        }
    }

    /// A heard slot's truth, the UE's C-RNTI and the extracted candidates.
    type IqSlot = (gnb_sim::SlotOutput, Rnti, Vec<ExtractedCandidate>);

    /// `loaded_gnb(4)` heard at `snr_db` through receiver noise `seed`, IQ
    /// fidelity: of its first 400 slots those with the UE connected.
    fn iq_slots(snr_db: f64, seed: u64) -> (DecoderContext, Vec<IqSlot>) {
        let mut g = loaded_gnb(4);
        let c = ctx(&g.cfg);
        let renderer = gnb_sim::iq::IqRenderer::new(&g.cfg);
        let mut usrp = nr_radio::VirtualUsrp::new(snr_db, 0.0, seed);
        let heard = (0..400).filter_map(|s| {
            let out = g.step();
            let known = g.connected_rntis().first().copied()?;
            let rx = usrp.receive(&renderer.render_iq(&out), s as f64 * 0.0005);
            let grid = renderer.ofdm().demodulate(&rx.samples, out.slot_in_frame);
            let candidates = extract_all_candidates(&c, &grid, out.slot_in_frame);
            Some((out, known, candidates))
        });
        let heard = heard.collect();
        (c, heard)
    }

    /// Three foreign C-RNTIs ahead of `owner`, each offered everywhere.
    fn tracking(owner: Rnti, allow_recovery: bool) -> Hypotheses {
        Hypotheses {
            allow_recovery,
            ..knowing(&[0x4001, 0x4002, 0x4003, owner.0].map(Rnti))
        }
    }

    /// Whether the gNB sent `d` — that RNTI and type at that position.
    fn was_sent(out: &gnb_sim::SlotOutput, d: &DecodedDci) -> bool {
        let of = |t: &gnb_sim::TxDci| (t.rnti, t.rnti_type, t.level, t.cce_start);
        (out.dcis.iter()).any(|t| of(t) == (d.rnti, d.rnti_type, d.level, d.cce_start))
    }

    /// The two-pass scan against the walk-only one at 30 dB, where pass A
    /// finds every owner, and at 3 dB, where hard decisions are almost never
    /// a codeword and SC still decodes. Slot by slot: what the walks find of
    /// what the gNB sent, the two passes find, the same to the field; they
    /// find nothing unsent, offer no more hypotheses, count no more rejects.
    #[test]
    fn iq_two_pass_scan_finds_what_the_walk_only_scan_finds_and_nothing_unsent() {
        for snr_db in [30.0, 3.0] {
            let (c, heard) = iq_slots(snr_db, 6);
            let (mut sent, mut found) = (0, 0);
            for (out, known, candidates) in &heard {
                let (hyp, unlimited) = (tracking(*known, false), SearchBudget::unlimited());
                let run = || decode_candidates_budgeted(&c, candidates, &hyp, unlimited, None);
                WALK_ONLY.set(true);
                let (walked, walk_work) = run();
                WALK_ONLY.set(false);
                let (got, work) = run();
                let at = format!("{snr_db} dB, slot {}", out.slot);
                let lost = walked.iter().find(|d| was_sent(out, d) && !got.contains(d));
                assert_eq!(lost, None, "{at}");
                assert_eq!(got.iter().find(|d| !was_sent(out, d)), None, "{at}");
                let counts = |w: DecodeWork| [w.ue_hypotheses, w.validation_rejects];
                assert!(counts(work) <= counts(walk_work), "{at}");
                assert_eq!(work.candidates, candidates.len(), "{at}");
                sent += n_c(out.dcis.iter().map(|d| d.rnti_type));
                found += n_c(got.iter().map(|d| d.rnti_type));
            }
            let floor = if snr_db < 30.0 { sent / 2 + 1 } else { sent };
            assert!(sent > 100 && found >= floor, "{snr_db}: {found} of {sent}");
        }
    }

    /// The shorter positions under a DCI mint nothing and shadow nothing:
    /// every DCI found was sent, there, and every C-RNTI DCI sent is found.
    /// With recovery allowed an SC walk over one is a 2⁻⁸ attempt per
    /// codeword at a ghost TC-RNTI, and a ghost found first makes the real
    /// DCI behind it an alias. (On this noise the walk-only scan mints two
    /// ghosts, each shadowing a DCI, and counts two more rejects.)
    #[test]
    fn alias_positions_under_a_dci_mint_no_ghost_and_shadow_nothing() {
        let (c, heard) = iq_slots(30.0, 27);
        let (mut rejects, mut sent, mut found) = (0, 0, 0);
        for (out, known, candidates) in &heard {
            let (hyp, unlimited) = (tracking(*known, true), SearchBudget::unlimited());
            let (got, work) = decode_candidates_budgeted(&c, candidates, &hyp, unlimited, None);
            assert_eq!(got.iter().find(|d| !was_sent(out, d)), None, "{}", out.slot);
            rejects += work.validation_rejects;
            sent += n_c(out.dcis.iter().map(|d| d.rnti_type));
            found += n_c(got.iter().map(|d| d.rnti_type));
        }
        assert!(sent > 100 && found == sent, "{found} of {sent}: shadowed");
        assert_eq!(rejects, 0, "a garbage codeword reached validation");
    }

    /// [`DecodeWork`]'s accounting of claims, on slots carrying one level-2
    /// DCI, the UE's, plus a stray position ahead of it that nothing
    /// explains (an alias's LLRs, moved): the DCI and the two aliases under
    /// it are the claim's, the stray is walked.
    #[test]
    fn a_claim_is_counted_as_its_walk_would_have_been() {
        let (c, heard) = iq_slots(30.0, 6);
        let mut seen = 0;
        for (out, known, mut candidates) in heard {
            let [tx] = &out.dcis[..] else { continue };
            if (tx.rnti, tx.level, candidates.len()) != (known, AggregationLevel::L2, 3) {
                continue;
            }
            seen += 1;
            let mut stray = candidates[0].clone();
            stray.cce_start = (tx.cce_start + 2) % c.coreset.n_cces();
            candidates.insert(0, stray);
            let (hyp, metrics) = (tracking(known, false), Metrics::shared(true));
            let run = |budget| {
                let sink = Some(&metrics);
                let (got, w) = decode_candidates_budgeted(&c, &candidates, &hyp, budget, sink);
                let at: Vec<_> = got.iter().map(|d| (d.rnti, d.cce_start)).collect();
                let ue = (w.ue_candidates, w.ue_hypotheses, w.pruned);
                (at, (w.candidates, w.validation_rejects), ue)
            };
            let (claim, one) = (vec![(tx.rnti, tx.cce_start)], AggregationLevel::L1);
            let cases = [
                // The claim and the one position it leaves unexplained.
                (SearchBudget::unlimited(), claim.clone(), (2, 8, 0)),
                // A cap of one is the claim's, though the stray comes first.
                (SearchBudget::pruned(one, 1), claim, (1, 4, 1)),
                // Pass A asks no UE question and counts nothing: every
                // position is refused where it always was, in pass B.
                (SearchBudget::broadcast_only(), vec![], (0, 0, 4)),
            ];
            for (budget, at, ue) in cases {
                assert_eq!(run(budget), (at, (4, 0), ue), "slot {}", out.slot);
            }
            // One observation per candidate and scan, whichever pass dealt with it.
            let timed = metrics.snapshot().stage("dci_decode").map(|s| s.count);
            assert_eq!(timed, Some(3 * 4));
        }
        assert!(seen > 5, "{seen} lone level-2 DCIs");
    }

    /// The front end's grid is written in place slot after slot: whatever
    /// symbol set came before, a slot reads as it would from a fresh grid —
    /// the symbols asked for and the zeros around them, bit for bit.
    #[test]
    fn reused_grid_equals_a_fresh_one_bitwise() {
        let mut g = loaded_gnb(5);
        let renderer = gnb_sim::iq::IqRenderer::new(&g.cfg);
        let ofdm = renderer.ofdm();
        // Receiver noise: no symbol of any slot is zero on the air.
        let mut usrp = nr_radio::VirtualUsrp::new(20.0, 0.0, 6);
        let mut front = FrontEnd::default();
        let all = [true; SYMBOLS_PER_SLOT];
        let head = std::array::from_fn(|sym| sym < 4);
        let odd = std::array::from_fn(|sym| sym % 2 == 1);
        for wanted in [all, head, odd, head, all, odd] {
            let out = g.step();
            let samples = usrp.receive(&renderer.render_iq(&out), 0.0).samples;
            let sif = out.slot_in_frame;
            let reused = front
                .demodulate_slot(None, &samples, sif, &wanted, Metrics::disabled())
                .expect("a preset layout fits");
            let fresh = ofdm.demodulate_symbols(&samples, sif, &wanted);
            for sym in 0..SYMBOLS_PER_SLOT {
                let bits = |g: &ResourceGrid| -> Vec<(u32, u32)> {
                    let res = g.symbol(sym).iter();
                    res.map(|v| (v.re.to_bits(), v.im.to_bits())).collect()
                };
                assert!(bits(reused) == bits(&fresh), "symbol {sym} of {wanted:?}");
                assert!(wanted[sym] || bits(reused).iter().all(|&re| re == (0, 0)));
            }
        }
    }

    /// At 35 dB a slot's C-RNTI DCIs are all decoded by who knows the RNTI,
    /// none by who does not (the paper's "if we miss a RACH…" property) and
    /// none under the broadcast-only budget, which counts each as pruned.
    #[test]
    fn search_budget_gates_ue_pass_but_never_broadcast() {
        let (c, mut slots) = captures((6, 9), RntiType::C);
        // (A slot of data DCIs alone: any other would count as pruned too.)
        let data_only = |out: &gnb_sim::SlotOutput| n_c(out.dcis.iter().map(|d| d.rnti_type));
        let (out, dcis) = (slots.find(|(out, _)| data_only(out) == out.dcis.len())).expect("one");
        let truth_c = out.dcis.len();
        let run = |hyp: &Hypotheses, budget| {
            let (found, work) = decode_message_slot_budgeted(&c, &dcis, hyp, budget, None);
            (n_c(found.iter().map(|d| d.rnti_type)), work)
        };
        let hyp = knowing(&[out.dcis[0].rnti]);
        let (full_c, work) = run(&hyp, SearchBudget::unlimited());
        assert_eq!(full_c, truth_c, "unlimited budget decodes everything");
        assert_eq!(work.pruned, 0);
        assert!(work.ue_hypotheses >= truth_c);
        assert_eq!(run(&knowing(&[]), SearchBudget::unlimited()).0, 0);
        let (pruned_c, work) = run(&hyp, SearchBudget::broadcast_only());
        assert_eq!(pruned_c, 0, "broadcast-only budget skips UE decodes");
        assert_eq!(work.ue_candidates, 0);
        assert_eq!(work.pruned, truth_c, "every UE candidate counted as pruned");
    }

    /// The prune is real and its fallback is the exhaustive scan: a C-RNTI
    /// DCI moved off its search-space hash is invisible to the RNTI's
    /// known space and still decoded when the space is `None`; left where
    /// the gNB put it, both find it.
    #[test]
    fn off_hash_dci_is_found_only_without_a_search_space() {
        let (c, mut slots) = captures((8, 10), RntiType::C);
        let (out, mut dcis) = slots.next().expect("a data DCI");
        let tx = (out.dcis.iter()).find(|d| d.rnti_type == RntiType::C);
        let (tx, cfg) = (tx.expect("it is there"), CellConfig::srsran_n41());
        let known = Hypotheses {
            c_rntis: vec![UeHypothesis::in_search_space(
                tx.rnti,
                &cfg.rrc_setup(),
                &cfg.coreset,
                out.slot_in_frame,
            )],
            ..Hypotheses::default()
        };
        let unknown = knowing(&[tx.rnti]);
        let finds = |dcis: &[ObservedDci], hyp, cce| {
            let mut found = decode_all(&c, dcis, hyp).into_iter();
            found.any(|d| (d.rnti, d.cce_start) == (tx.rnti, cce))
        };
        assert!(finds(&dcis, &known, tx.cce_start) && finds(&dcis, &unknown, tx.cce_start));
        // One level-2 position over: the other half of the CORESET's
        // positions, which this slot's hash does not admit.
        let moved = (tx.cce_start + tx.level.cces()) % cfg.coreset.n_cces();
        dcis.retain(|d| d.cce_start != moved);
        for d in dcis.iter_mut().filter(|d| d.cce_start == tx.cce_start) {
            d.cce_start = moved;
        }
        assert!(!finds(&dcis, &known, moved), "decoded outside its space");
        assert!(finds(&dcis, &unknown, moved), "exhaustive fallback lost it");
    }

    /// A codeword carrying `payload` under `rnti` as the common search
    /// space scrambles it, captured whole.
    fn common_capture(c: &DecoderContext, payload: &[u8], rnti: Rnti) -> ObservedDci {
        let mut bits = nr_phy::crc::dci_attach_crc(payload, rnti.0);
        nr_phy::sequence::scramble_in_place(&mut bits, cinit_for(None, c.pci));
        ObservedDci {
            scrambled_bits: bits,
            cce_start: 0,
            level: AggregationLevel::L2,
        }
    }

    /// One syndrome answers SI, RA, TC and recovery — in that order, and a
    /// CRC match whose payload fails validation still falls through to the
    /// hypotheses after it, each counting its own reject.
    #[test]
    fn common_pass_keeps_its_order_and_falls_through_a_rejected_match() {
        let cfg = CellConfig::srsran_n41();
        let c = ctx(&cfg);
        let x = Rnti(0x4601);
        let hyp = |ra: &[Rnti], tc: &[Rnti], allow_recovery, tracked: &[Rnti]| Hypotheses {
            ra_rntis: ra.to_vec(),
            tc_rntis: tc.to_vec(),
            allow_recovery,
            ..knowing(tracked)
        };
        let run = |dci: &ObservedDci, hyp: &Hypotheses| {
            let (one, unlimited) = (std::slice::from_ref(dci), SearchBudget::unlimited());
            let (found, work) = decode_message_slot_budgeted(&c, one, hyp, unlimited, None);
            let found = found.first().map(|d| (d.rnti, d.rnti_type));
            (found, work.validation_rejects)
        };
        // All ones: a DL format whose RIV no BWP admits.
        let bad = vec![1u8; payload_sizes(&c.common_sizing)[0]];
        assert!(Dci::unpack_validated(&bad, &c.common_sizing).is_err());
        let bad = common_capture(&c, &bad, x);
        let rejected = [
            (hyp(&[x], &[x], true, &[]), 3),   // RA, TC, recovery
            (hyp(&[x, x], &[], true, &[]), 3), // RA twice
            (hyp(&[x], &[x], false, &[]), 2),
            (hyp(&[x], &[], true, &[x]), 1), // tracked: no recovery
            (hyp(&[Rnti(0x4602)], &[], false, &[]), 0),
        ];
        for (hyp, rejects) in rejected {
            assert_eq!(run(&bad, &hyp), (None, rejects), "{hyp:?}");
        }
        // A payload that validates goes to the first hypothesis in order.
        let mut g = loaded_gnb(9);
        let payload = std::iter::repeat_with(|| g.step())
            .take(400)
            .flat_map(|out| out.dcis)
            .find(|d| d.rnti_type == RntiType::Si)
            .expect("a SIB1 DCI in 400 slots")
            .payload_bits;
        let good = common_capture(&c, &payload, x);
        let (ra, tc) = (Some((x, RntiType::Ra)), Some((x, RntiType::Tc)));
        let first = [
            (hyp(&[x], &[x], true, &[]), ra),
            (hyp(&[], &[x], true, &[]), tc),
            (hyp(&[], &[], true, &[]), tc),
            (hyp(&[], &[], false, &[]), None),
            (hyp(&[], &[], true, &[x]), None), // not re-minted
        ];
        for (hyp, first) in first {
            assert_eq!(run(&good, &hyp).0, first, "{hyp:?}");
        }
        let si = common_capture(&c, &payload, Rnti::SI);
        let found = run(&si, &hyp(&[x], &[x], true, &[])).0;
        assert_eq!(found, Some((Rnti::SI, RntiType::Si)));
    }

    /// A captured C-RNTI DCI with any one bit flipped checks against no
    /// RNTI of any list, and the UE pass still counts every hypothesis it
    /// was offered to.
    #[test]
    fn one_flipped_bit_is_rejected_for_every_rnti_and_still_counted() {
        let (c, mut slots) = captures((6, 9), RntiType::C);
        let (out, dcis) = slots.next().expect("a data DCI");
        let tx = (out.dcis.iter()).find(|d| d.rnti_type == RntiType::C);
        let tx = tx.expect("it is there");
        let dci = dcis.iter().find(|d| d.cce_start == tx.cce_start);
        let (dci, own) = (dci.expect("captured"), tx.rnti.0);
        // (Not `rnti ^ 0x8000`: c_init keeps 31 bits, so the two share
        // a scrambling and differ by exactly one CRC bit.)
        let hyp = Hypotheses {
            ra_rntis: vec![Rnti(0x0001), Rnti(0x0017)],
            tc_rntis: vec![tx.rnti, Rnti(own ^ 2)],
            ..knowing(&[0x4001, 0x4002, own ^ 1, own ^ 0x4000, own].map(Rnti))
        };
        let run = |dci: &ObservedDci| {
            let one = std::slice::from_ref(dci);
            decode_message_slot_budgeted(&c, one, &hyp, SearchBudget::unlimited(), None)
        };
        let counted = |w: DecodeWork| (w.ue_candidates, w.ue_hypotheses, w.validation_rejects);
        let (clean, work) = run(dci);
        assert_eq!(clean.len(), 1);
        assert_eq!((clean[0].rnti, clean[0].rnti_type), (tx.rnti, RntiType::C));
        assert_eq!(counted(work), (1, 5, 0));
        for flip in 0..dci.scrambled_bits.len() {
            let mut bent = dci.clone();
            bent.scrambled_bits[flip] ^= 1;
            let (found, work) = run(&bent);
            assert_eq!(found, Vec::new(), "bit {flip}");
            assert_eq!(counted(work), (1, 5, 0), "bit {flip}");
        }
    }

    #[test]
    fn scrambling_helpers_agree() {
        // The observer and decoder must use the same c_init mapping.
        let pci = 123;
        assert_eq!(
            scrambling_for(Rnti(0x4601), RntiType::C, pci),
            search_space_cinit(Rnti(0x4601), true, pci)
        );
        assert_eq!(
            scrambling_for(Rnti::SI, RntiType::Si, pci),
            search_space_cinit(Rnti(0), false, pci)
        );
    }
}
