//! The slot path's decode stages: IQ front end → pilot gate → scan (each
//! gated position demapped when first asked) → RNTI hypothesis test
//! (paper Fig 4; cost model Fig 12).
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
//! `Candidate` trait: a descramble for [`ObservedDci`], a polar decode of
//! a blind position's LLRs (the private `Blind` trait: an
//! [`ExtractedCandidate`], or a slot's gated position, demapped the first
//! time the scan asks for it — a position an earlier claim explains is
//! never read). A codeword is tested through its CRC syndrome
//! ([`dci_syndrome`]): one number that every RNTI hypothesis is compared
//! with.
//!
//! A blind slot is scanned in two passes, every cheap question before any
//! expensive one: pass A asks each candidate only what a GF(2) transform
//! answers — are its hard decisions already a codeword
//! ([`PolarCode::codeword_with`]) that a hypothesis matches? — and such a
//! find *claims* its CCEs; pass B spends SC walks only on positions no
//! claim explains (`scan` says what a walk on an explained one would buy).
//!
//! Which C-RNTI makes a codeword valid is one GF(2) solve ([`nr_phy::solve`]):
//! per code, of pass A's hard word; of a captured codeword's syndrome, then
//! looked up in the [`UeRow`]. Pass B and Repeat codes try each C-RNTI.

use crate::metrics::{Metrics, Stage};
use crate::observe::ObservedDci;
use nr_phy::complex::Cf32;
use nr_phy::crc::{dci_scrambling_syndrome, dci_syndrome};
use nr_phy::dci::{Dci, DciFormat, DciSizing};
use nr_phy::dmrs::{PilotEstimate, PilotSums};
use nr_phy::grid::ResourceGrid;
use nr_phy::modulation::{demodulate_llr_into, Modulation};
use nr_phy::numerology::SYMBOLS_PER_SLOT;
use nr_phy::ofdm::{Deferred, Ofdm};
use nr_phy::pdcch::{
    candidate_cce, cce_pilot_sums, demap_candidate, pilot_gate, search_space_cinit,
    ue_search_space_y, AggregationLevel, Coreset, CoresetSequences, SearchBudget, PILOT_SNR_FLOOR,
};
use nr_phy::polar::{DecodeScratch, HardWord, PolarCode};
use nr_phy::sequence::{gold_bits, gold_bits_cached};
use nr_phy::solve::{FlipSolve, KeySolve};
use nr_phy::types::{Pci, Rnti, RntiType};
use nr_phy::Numerology;
use nr_rrc::{Mib, RrcSetup};
use std::borrow::Cow;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};
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

/// The C-RNTI hypotheses of one slot, in list order, shared: a clone is a
/// reference count. It dereferences to the list, and no one changes it in
/// place ([`UeRow::respaced`] makes a new row), so what it derives can
/// never go stale: how many UEs each position admits, and where each RNTI
/// is listed, each built the first time a UE pass asks for it.
#[derive(Clone, Default)]
pub struct UeRow(Arc<Row>);

#[derive(Default)]
struct Row {
    ues: Vec<UeHypothesis>,
    admitted: OnceLock<Admitted>,
    /// Every (RNTI, list index) pair, sorted: shared by every row that
    /// lists the same RNTIs in the same order.
    listed: Arc<OnceLock<Vec<(u16, u32)>>>,
}

/// How many UEs of a row each position admits: those searched anywhere,
/// plus, per level and first CCE under 128, those whose mask has it.
#[derive(Debug, PartialEq)]
struct Admitted {
    anywhere: usize,
    at: Box<[[u32; 128]; 5]>,
}

impl UeRow {
    /// The same RNTIs in the same order, each searched where `space` says
    /// (given its index and hypothesis), sharing this row's RNTI index.
    pub fn respaced(
        &self,
        mut space: impl FnMut(usize, &UeHypothesis) -> Option<(AggregationLevel, u128)>,
    ) -> UeRow {
        let respace = |(i, ue): (usize, &UeHypothesis)| UeHypothesis {
            rnti: ue.rnti,
            space: space(i, ue),
        };
        UeRow(Arc::new(Row {
            ues: self.iter().enumerate().map(respace).collect(),
            admitted: OnceLock::new(),
            listed: Arc::clone(&self.0.listed),
        }))
    }

    /// Every `of`-th UE from the `i`-th: one DCI thread's share. The whole
    /// row is this row, index and all.
    pub fn shard(&self, i: usize, of: usize) -> UeRow {
        match (i, of) {
            (0, 1) => self.clone(),
            _ => self.iter().skip(i).step_by(of).copied().collect(),
        }
    }

    fn admitted(&self) -> &Admitted {
        self.0.admitted.get_or_init(|| {
            let mut counts = Admitted {
                anywhere: 0,
                at: Box::new([[0; 128]; 5]),
            };
            for ue in self.iter() {
                let Some((level, mut mask)) = ue.space else {
                    counts.anywhere += 1;
                    continue;
                };
                while mask != 0 {
                    counts.at[level as usize][mask.trailing_zeros() as usize] += 1;
                    mask &= mask - 1;
                }
            }
            counts
        })
    }

    /// How many of the row's UEs the position admits.
    fn admitting(&self, level: AggregationLevel, cce_start: usize) -> usize {
        let counts = self.admitted();
        let at = counts.at[level as usize].get(cce_start);
        counts.anywhere + at.map_or(0, |&n| n as usize)
    }

    /// The UEs listing `rnti`, in list order: one lookup.
    fn listing(&self, rnti: Rnti) -> impl Iterator<Item = &UeHypothesis> {
        let listed = self.0.listed.get_or_init(|| {
            let pairs = self.iter().enumerate().map(|(i, ue)| (ue.rnti.0, i as u32));
            let mut pairs: Vec<_> = pairs.collect();
            pairs.sort_unstable();
            pairs
        });
        let from = listed.partition_point(|&(listed, _)| listed < rnti.0);
        let run = (listed[from..].iter()).take_while(move |&&(listed, _)| listed == rnti.0);
        run.map(|&(_, i)| &self[i as usize])
    }
}

impl std::ops::Deref for UeRow {
    type Target = [UeHypothesis];

    fn deref(&self) -> &[UeHypothesis] {
        &self.0.ues
    }
}

impl FromIterator<UeHypothesis> for UeRow {
    fn from_iter<I: IntoIterator<Item = UeHypothesis>>(ues: I) -> UeRow {
        UeRow(Arc::new(Row {
            ues: ues.into_iter().collect(),
            ..Row::default()
        }))
    }
}

impl PartialEq for UeRow {
    fn eq(&self, other: &UeRow) -> bool {
        self[..] == other[..]
    }
}

impl std::fmt::Debug for UeRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The RNTI hypothesis sets for one slot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hypotheses {
    /// RA-RNTIs of PRACH occasions within the response window.
    pub ra_rntis: Vec<Rnti>,
    /// TC-RNTIs learned from decoded RARs.
    pub tc_rntis: Vec<Rnti>,
    /// Tracked C-RNTIs, each with its search space when known: a shared
    /// row that carries its RNTI index.
    pub c_rntis: UeRow,
    /// Accept CRC-XOR-recovered TC-RNTIs not matching any pending RAR
    /// (the missed-RAR fallback).
    pub allow_recovery: bool,
    /// Skip the common-search-space pass entirely (set on worker shards
    /// other than the SIBs/RACH shard so the common hypotheses run once).
    pub skip_common: bool,
}

/// How much decode work one slot *offered* the pipeline, regardless of how
/// far each attempt got. The counts are deterministic for a given capture,
/// hypothesis set, and [`SearchBudget`].
///
/// Of a blind scan's two passes the walking one (B) does the counting.
/// `candidates` counts every candidate. The codeword-only pass (A) counts
/// nothing for a candidate it does not claim — a CRC match whose payload
/// fails validation is no claim: pass B meets it again — and for one it
/// claims what pass B would have: a UE-pass claim is one of `ue_candidates`
/// with every admitted C-RNTI in `ue_hypotheses`. Pass A asks its UE
/// questions only where the budget admits them, and never counts a
/// refusal (`pruned` is pass B's). A candidate sharing a CCE with a claim
/// or an earlier find counts in `candidates` alone.
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

/// Every (K, E) polar code a thread has met with its [`FlipSolve`]; per
/// captured length and PCI, the common scrambling's syndrome and the
/// length's [`KeySolve`]; the SC scratch; the candidate as one UE descrambles it.
#[derive(Debug, Default)]
struct PolarCodes {
    codes: Vec<(Option<FlipSolve>, PolarCode)>,
    keys: Vec<(usize, u16, Option<u32>, SharedKeys)>,
    scratch: DecodeScratch,
    ue_llrs: Vec<f32>,
}

thread_local! {
    /// This thread's polar codes, kept like its Gold sequences
    /// ([`gold_bits_cached`]): none of it is telemetry state.
    static POLAR_CODES: std::cell::RefCell<PolarCodes> = Default::default();
}

/// A codeword length's CRC-key system, one for every PCI.
type SharedKeys = Option<Rc<KeySolve>>;
/// A size that fits a blind candidate, where its code is in [`PolarCodes`],
/// its hard word if asked, and what the code's solve, if asked, makes of it.
type Fit = (usize, usize, Option<HardWord>, Option<Option<Moved>>);
/// The scrambling a [`FlipSolve`] names, and the hard word it moves to.
type Moved = (u16, HardWord);

impl PolarCodes {
    /// Where the (`k`, `e`) code is in `codes`, configured on first use.
    fn code(&mut self, k: usize, e: usize) -> usize {
        let known = (self.codes.iter()).position(|(_, c)| (c.k, c.e) == (k, e));
        known.unwrap_or_else(|| {
            let code = PolarCode::new(k, e);
            self.codes.push((FlipSolve::polar(&code), code));
            self.codes.len() - 1
        })
    }

    /// At `n` bits under `pci`: the common scrambling's syndrome and the
    /// CRC-key system, each built on first use, the system once per length.
    fn keys(&mut self, n: usize, pci: u16) -> (Option<u32>, Option<&KeySolve>) {
        let known = (self.keys.iter()).position(|k| (k.0, k.1) == (n, pci));
        let at = known.unwrap_or_else(|| {
            let common = dci_scrambling_syndrome(&gold_bits(cinit_for(None, pci), n));
            let shared = self.keys.iter().find(|k| k.0 == n).map(|k| k.3.clone());
            let solve = shared.unwrap_or_else(|| KeySolve::crc_keys(n).map(Rc::new));
            self.keys.push((n, pci, common, solve));
            self.keys.len() - 1
        });
        (self.keys[at].2, self.keys[at].3.as_deref())
    }

    /// SC-decode `llrs` to `k` bits, which live here until the next call.
    fn decode(&mut self, k: usize, llrs: &[f32]) -> &[u8] {
        let at = self.code(k, llrs.len());
        self.codes[at].1.decode_sc_with(llrs, &mut self.scratch)
    }
}

/// Each slot-in-frame's CORESET sequences, built the first time that slot
/// of the frame is extracted.
type SlotSequences = Vec<Option<CoresetSequences>>;

/// What the IQ slot path builds once and keeps between slots, each part
/// keyed by what it was built from: the OFDM plan and the grid it fills
/// (numerology, carrier width), each slot-in-frame's CORESET pilots and
/// common scrambling (CORESET, PCI), and working memory that only grows.
/// None of it is telemetry state — a fresh one decodes the same, later.
/// The live scope owns one for the session, a pool thread one for its jobs.
#[derive(Debug, Default)]
pub(crate) struct FrontEnd {
    /// The (numerology, carrier width) planned for, the plan, its grid.
    layout: Option<((Numerology, usize), Ofdm, ResourceGrid)>,
    /// The (CORESET, PCI) the sequences were built for, and the sequences.
    pilots: Option<((Coreset, u16), SlotSequences)>,
    /// The FFT's working planes.
    fft: nr_phy::fft::FftScratch,
    /// The grid symbols the last slot wrote; every other one is zero.
    filled: [bool; SYMBOLS_PER_SLOT],
    /// Those of them at their pilot class alone, until the gate completes
    /// them.
    deferred: Deferred,
    /// The registry the last slot records into, when it records.
    metrics: Option<Arc<Metrics>>,
    cce_sums: Vec<PilotSums>,
    passed: Vec<Passed>,
    pbch_llrs: Vec<f32>,
    /// Slots read pilots first, and those of them the gate completed.
    #[cfg(test)]
    pub(crate) pilot_reads: [usize; 2],
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
    /// capture or an unknown carrier): the caller's layout mismatch.
    pub(crate) fn demodulate_slot(
        &mut self,
        ctx: Option<&DecoderContext>,
        samples: &[Cf32],
        slot_in_frame: usize,
        wanted: &[bool; SYMBOLS_PER_SLOT],
        metrics: &Arc<Metrics>,
    ) -> Option<&ResourceGrid> {
        let none = [false; SYMBOLS_PER_SLOT];
        self.read(ctx, samples, slot_in_frame, wanted, &none, metrics)
    }

    /// [`FrontEnd::demodulate_slot`] of a slot read for its PDCCH: the
    /// symbols `whole` marks, and the CORESET's others at their pilot class
    /// alone ([`Ofdm::demodulate_pilot_class_into`]) — which
    /// [`FrontEnd::gate_slot`] completes if it passes a position, so a slot
    /// with no PDCCH on the air costs under half a transform a CORESET
    /// symbol.
    pub(crate) fn demodulate_pilots_first(
        &mut self,
        ctx: &DecoderContext,
        samples: &[Cf32],
        slot_in_frame: usize,
        whole: &[bool; SYMBOLS_PER_SLOT],
        metrics: &Arc<Metrics>,
    ) -> Option<&ResourceGrid> {
        let coreset = coreset_symbols(&ctx.coreset);
        #[cfg(test)]
        let whole =
            &std::array::from_fn(|sym| whole[sym] || (tests::WHOLE_CORESET.get() && coreset[sym]));
        let pilots: [bool; SYMBOLS_PER_SLOT] =
            std::array::from_fn(|sym| coreset[sym] && !whole[sym]);
        #[cfg(test)]
        {
            self.pilot_reads[0] += usize::from(pilots.contains(&true));
        }
        self.read(Some(ctx), samples, slot_in_frame, whole, &pilots, metrics)
    }

    /// Demodulate the symbols `whole` marks, and those `pilots` marks at
    /// their pilot class alone, zeroing what an earlier slot left in the
    /// others.
    fn read(
        &mut self,
        ctx: Option<&DecoderContext>,
        samples: &[Cf32],
        slot_in_frame: usize,
        whole: &[bool; SYMBOLS_PER_SLOT],
        pilots: &[bool; SYMBOLS_PER_SLOT],
        metrics: &Arc<Metrics>,
    ) -> Option<&ResourceGrid> {
        if self.layout.is_none() {
            self.plan_layout(ctx, samples.len(), slot_in_frame);
        }
        self.deferred.clear();
        self.metrics = metrics.is_enabled().then(|| Arc::clone(metrics));
        let (_, ofdm, grid) = (self.layout.as_mut())
            .filter(|(_, o, _)| o.samples_per_slot(slot_in_frame) == samples.len())?;
        let _t = metrics.start(Stage::Demod);
        let read = std::array::from_fn(|sym| whole[sym] || pilots[sym]);
        for sym in (0..SYMBOLS_PER_SLOT).filter(|&sym| self.filled[sym] && !read[sym]) {
            grid.symbol_mut(sym).fill(Cf32::ZERO);
        }
        self.filled = read;
        ofdm.demodulate_symbols_into(samples, slot_in_frame, whole, grid, &mut self.fft);
        if pilots.contains(&true) {
            let (fft, deferred) = (&mut self.fft, &mut self.deferred);
            ofdm.demodulate_pilot_class_into(samples, slot_in_frame, pilots, grid, fft, deferred);
        }
        Some(grid)
    }

    /// The positions of the slot last demodulated that pass the pilot
    /// gate, each demapped when the scan first asks for it. The gate is
    /// the `pdcch_search` stage; when it passes a position, the symbols
    /// still at their pilot class are completed first, under `demod`.
    pub(crate) fn gate_slot<'a>(
        &'a mut self,
        ctx: &'a DecoderContext,
        sif: usize,
    ) -> Vec<GatedPosition<'a>> {
        let Some((_, ofdm, grid)) = self.layout.as_mut() else {
            return Vec::new();
        };
        let timer = |stage| self.metrics.as_ref().map(|m| m.start(stage));
        let search = timer(Stage::PdcchSearch);
        let key = (ctx.coreset, ctx.pci);
        if self.pilots.as_ref().is_some_and(|(built, _)| *built != key) {
            self.pilots = None;
        }
        let (_, slots) = self.pilots.get_or_insert_with(|| (key, Vec::new()));
        if slots.len() <= sif {
            slots.resize_with(sif + 1, || None);
        }
        let seqs = slots[sif].get_or_insert_with(|| coreset_sequences(ctx, sif));
        let passed = &mut self.passed;
        gate(&ctx.coreset, grid, seqs, &mut self.cce_sums, passed);
        drop(search);
        if !passed.is_empty() && !self.deferred.is_empty() {
            let _t = timer(Stage::Demod);
            ofdm.complete_into(&mut self.deferred, grid, &mut self.fft);
            #[cfg(test)]
            {
                self.pilot_reads[1] += 1;
            }
        }
        positions((&ctx.coreset, grid, seqs), passed)
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
        POLAR_CODES.with_borrow_mut(|polar| {
            let cw = polar.decode(Mib::BITS + 24, llrs);
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
/// of the CORESET (the Fig 4 "one slot data" product handed to the DCI
/// threads): the slot's pilot gate, then every position it passes
/// demapped.
pub fn extract_all_candidates(
    ctx: &DecoderContext,
    grid: &ResourceGrid,
    slot_in_frame: usize,
) -> Vec<ExtractedCandidate> {
    let seqs = coreset_sequences(ctx, slot_in_frame);
    let mut passed = Vec::new();
    gate(&ctx.coreset, grid, &seqs, &mut Vec::new(), &mut passed);
    let gated = positions((&ctx.coreset, grid, &seqs), &passed);
    let demapped = gated.iter().map(|p| ExtractedCandidate {
        llrs: p.demap(),
        level: p.level,
        cce_start: p.cce_start,
    });
    demapped.collect()
}

/// The aggregation levels whose candidates fit in `coreset`.
fn fitting_levels(coreset: &Coreset) -> impl Iterator<Item = AggregationLevel> + Clone {
    let n_cces = coreset.n_cces();
    (AggregationLevel::all().into_iter()).take_while(move |l| l.cces() <= n_cces)
}

/// The pilots of the context's CORESET in slot `sif`, and its common
/// scrambling at the longest level that fits.
fn coreset_sequences(ctx: &DecoderContext, sif: usize) -> CoresetSequences {
    let (coreset, pci) = (&ctx.coreset, ctx.pci);
    // (A CORESET under one CCE has no candidates; any level will do.)
    let longest = fitting_levels(coreset).last();
    let longest = longest.unwrap_or(AggregationLevel::L1);
    CoresetSequences::new(coreset, longest, pci, cinit_for(None, pci), sif)
}

/// A position the pilot gate passed: its level, its first CCE and what its
/// pilots estimate.
type Passed = (AggregationLevel, usize, PilotEstimate);

/// The pilot gate over every position of the CORESET, into `passed`. Every
/// pilot is read here, once, for all the levels its CCE is part of; a
/// position under the floor is dropped before its data is read. It reads
/// the pilot REs alone.
fn gate(
    coreset: &Coreset,
    grid: &ResourceGrid,
    seqs: &CoresetSequences,
    sums: &mut Vec<PilotSums>,
    passed: &mut Vec<Passed>,
) {
    sums.clear();
    sums.extend((0..coreset.n_cces()).map(|cce| cce_pilot_sums(grid, coreset, seqs, cce)));
    passed.clear();
    for level in fitting_levels(coreset) {
        for (i, cces) in sums.chunks_exact(level.cces()).enumerate() {
            let est = pilot_gate(cces, PILOT_SNR_FLOOR);
            passed.extend(est.map(|est| (level, i * level.cces(), est)));
        }
    }
}

/// The positions `passed` names, in `slot`.
fn positions<'a>(
    slot: (&'a Coreset, &'a ResourceGrid, &'a CoresetSequences),
    passed: &[Passed],
) -> Vec<GatedPosition<'a>> {
    let position = |&(level, cce_start, est): &Passed| GatedPosition {
        slot,
        level,
        cce_start,
        est,
        llrs: OnceLock::new(),
    };
    passed.iter().map(position).collect()
}

/// A blind position the pilot gate passed, its data demapped the first
/// time the scan asks for its LLRs: a position whose CCEs an earlier claim
/// explains is never asked, and never read. The DCI threads of a slot share
/// it, so the first to ask demaps for all.
#[derive(Debug)]
pub(crate) struct GatedPosition<'a> {
    /// The CORESET, the grid and the sequences it is read from.
    slot: (&'a Coreset, &'a ResourceGrid, &'a CoresetSequences),
    level: AggregationLevel,
    cce_start: usize,
    /// What its pilots estimate, which the gate passed.
    est: PilotEstimate,
    llrs: OnceLock<Vec<f32>>,
}

impl GatedPosition<'_> {
    /// The data pass: the position's common-descrambled LLRs.
    fn demap(&self) -> Vec<f32> {
        let (coreset, grid, seqs) = self.slot;
        demap_candidate(grid, coreset, self.cce_start, self.level, seqs, &self.est).llrs
    }
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
    /// skips one overlapping a decoded DCI; and their search cost — the
    /// pilot gate — is paid before the scan, so the scan itself is not the
    /// `pdcch_search` stage (a position's demap is timed with its decode).
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
    /// candidate's [`Self::raw_syndrome`]; with `walk` unset a polar decode
    /// is only [`PolarCode::codeword_of`] the hard word, and nothing is
    /// computed when `scramblings` is empty.
    fn codewords<T>(
        &self,
        ctx: &DecoderContext,
        raw: Option<u32>,
        scramblings: impl Iterator<Item = Option<Rnti>>,
        sizes: &[usize; 2],
        walk: bool,
        test: impl FnMut(Option<Rnti>, u32, PayloadOf<'_>) -> Option<T>,
    ) -> Option<T>;
    /// The UE pass over `ues`: hand `test` each C-RNTI this position
    /// admits whose CRC matches one of the candidate's codewords, in list
    /// order, until it reports a hit. Returns the hit and how many C-RNTIs
    /// the position admits. A blind position walks the list ([`each_ue`]).
    fn ues<T>(
        &self,
        ctx: &DecoderContext,
        raw: Option<u32>,
        ues: &UeRow,
        sizes: &[usize; 2],
        walk: bool,
        test: impl FnMut(Rnti, PayloadOf<'_>) -> Option<T>,
    ) -> (Option<T>, usize) {
        each_ue(self, ctx, raw, ues, sizes, walk, test)
    }
}

/// The per-UE loop: each C-RNTI of `ues` the position admits, counted, its
/// scrambling's codewords tested in turn.
fn each_ue<T, C: Candidate + ?Sized>(
    cand: &C,
    ctx: &DecoderContext,
    raw: Option<u32>,
    ues: &[UeHypothesis],
    sizes: &[usize; 2],
    walk: bool,
    mut test: impl FnMut(Rnti, PayloadOf<'_>) -> Option<T>,
) -> (Option<T>, usize) {
    let (level, cce_start) = (cand.level(), cand.cce_start());
    let admitted = ues.iter().filter(|ue| ue.admits(level, cce_start));
    let (mut admitted, mut asked) = (admitted.map(|ue| Some(ue.rnti)), 0);
    let counted = admitted.by_ref().inspect(|_| asked += 1);
    let hit = cand.codewords(ctx, raw, counted, sizes, walk, |ue, syndrome, bits| {
        test(ue.filter(|rnti| syndrome == rnti.0 as u32)?, bits)
    });
    // Those after a hit are offered too.
    (hit, asked + admitted.count())
}

/// Scrambling identity of the common search space (`None`) or one UE's.
fn cinit_for(ue: Option<Rnti>, pci: u16) -> u32 {
    search_space_cinit(ue.unwrap_or(Rnti(0)), ue.is_some(), pci)
}

/// The payload bits of a captured codeword under the scrambling `c_init`.
fn descrambled<'a>(bits: &[u8], c_init: u32) -> Cow<'a, [u8]> {
    let seq = gold_bits_cached(c_init, bits.len());
    let payload = bits[..bits.len() - 24].iter().zip(seq.iter());
    payload.map(|(b, s)| b ^ s).collect()
}

/// Message fidelity: the codeword was captured whole, so its length fixes
/// the payload size, and a descrambling moves its syndrome by the
/// sequence's own: the common pass's XOR, which the UE pass solves for the
/// C-RNTI ([`KeySolve`]). Only a UE that matches descrambles the payload.
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
        let (bits, n) = (&self.scrambled_bits, self.scrambled_bits.len());
        let common = POLAR_CODES.with_borrow_mut(|polar| polar.keys(n, ctx.pci).0);
        let own = |c_init| dci_scrambling_syndrome(&gold_bits_cached(c_init, n));
        scramblings.find_map(|ue| {
            let c_init = cinit_for(ue, ctx.pci);
            let moved = ue.map_or(common, |_| own(c_init));
            test(ue, raw? ^ moved?, &|| descrambled(bits, c_init))
        })
    }

    fn ues<T>(
        &self,
        ctx: &DecoderContext,
        raw: Option<u32>,
        ues: &UeRow,
        sizes: &[usize; 2],
        walk: bool,
        mut test: impl FnMut(Rnti, PayloadOf<'_>) -> Option<T>,
    ) -> (Option<T>, usize) {
        let (level, cce_start, bits) = (self.level, self.cce_start, &self.scrambled_bits);
        let named = POLAR_CODES.with_borrow_mut(|polar| {
            let (common, keys) = polar.keys(bits.len(), ctx.pci);
            Some(keys?.solve(raw? ^ common?))
        });
        #[cfg(test)]
        let named = named.filter(|_| !tests::PER_UE.get());
        let Some(named) = named else {
            return each_ue(self, ctx, raw, ues, sizes, walk, test);
        };
        let listed = named.into_iter().flat_map(|r| ues.listing(Rnti(r)));
        let mut admitted = listed.filter(|ue| ue.admits(level, cce_start));
        let hit = admitted.find_map(|ue| {
            let c_init = cinit_for(Some(ue.rnti), ctx.pci);
            test(ue.rnti, &|| descrambled(bits, c_init))
        });
        (hit, ues.admitting(level, cce_start))
    }
}

/// A blind grid position, as the IQ [`Candidate`] body reads it: where it
/// is, and its common-descrambled LLRs.
pub(crate) trait Blind {
    /// Aggregation level and first CCE.
    fn position(&self) -> (AggregationLevel, usize);
    /// The LLRs, `level.bits()` of them.
    fn llrs(&self) -> &[f32];
}

impl Blind for ExtractedCandidate {
    fn position(&self) -> (AggregationLevel, usize) {
        (self.level, self.cce_start)
    }

    fn llrs(&self) -> &[f32] {
        &self.llrs
    }
}

impl Blind for GatedPosition<'_> {
    fn position(&self) -> (AggregationLevel, usize) {
        (self.level, self.cce_start)
    }

    fn llrs(&self) -> &[f32] {
        self.llrs.get_or_init(|| self.demap())
    }
}

/// IQ fidelity: the LLRs are common-descrambled, which is how the common
/// pass decodes them, and every size shorter than the candidate gets its
/// own polar code. Pass A's UE pass solves each code's hard word for the
/// one scrambling that makes it a codeword ([`FlipSolve`]): a C-RNTI of it
/// tests the word the solve moved the hard word to, and only under a code
/// without a solve (Repeat), or in a walk, does a C-RNTI flip the LLRs'
/// signs. The LLRs are asked for only once there is a scrambling to try.
impl<B: Blind> Candidate for B {
    const BLIND: bool = true;

    fn level(&self) -> AggregationLevel {
        self.position().0
    }

    fn cce_start(&self) -> usize {
        self.position().1
    }

    fn codewords<T>(
        &self,
        ctx: &DecoderContext,
        _raw: Option<u32>,
        scramblings: impl Iterator<Item = Option<Rnti>>,
        sizes: &[usize; 2],
        walk: bool,
        mut test: impl FnMut(Option<Rnti>, u32, PayloadOf<'_>) -> Option<T>,
    ) -> Option<T> {
        let e = self.level().bits();
        let mut scramblings = scramblings.peekable();
        let solved = scramblings.peek()?.is_some() && !walk;
        #[cfg(test)]
        let solved = solved && !tests::PER_UE.get();
        #[cfg(test)]
        tests::ASKED.with_borrow_mut(|asked| asked.push(self.position()));
        let own = self.llrs();
        POLAR_CODES.with_borrow_mut(|polar| {
            // In pass A the hard word is the LLRs' as extracted, one per
            // mother layout, and its UE pass solves it per code.
            let mut fits: [Option<Fit>; 2] = [None; 2];
            for (i, &p) in sizes.iter().enumerate().filter(|(_, &p)| p + 24 < e) {
                let at = polar.code(p + 24, e);
                let layout = |at: usize| (polar.codes[at].1.n, polar.codes[at].1.kind);
                let shared = fits.iter().flatten().find(|f| layout(f.1) == layout(at));
                let hard = shared.map(|f| f.2).unwrap_or_else(|| match walk {
                    true => None,
                    false => polar.codes[at].1.hard_word(own, &mut polar.scratch),
                });
                let solve = polar.codes[at].0.as_ref().filter(|_| solved);
                fits[i] = Some((p, at, hard, solve.map(|s| hard.and_then(|h| s.solve(&h)))));
            }
            let (codes, work, ue_llrs) = (&polar.codes, &mut polar.scratch, &mut polar.ue_llrs);
            scramblings.find_map(|ue| {
                let x = ue.map(|r| r.0 & 0x7FFF);
                let asks = |f: &&Fit| f.3.is_none_or(|n| n.map(|n| n.0) == x);
                let mut asked = fits.iter().flatten().filter(asks);
                let llrs = match ue.is_some() && asked.clone().any(|f| f.3.is_none()) {
                    false => own,
                    true => {
                        let seq = |ue| gold_bits_cached(cinit_for(ue, ctx.pci), e);
                        let (cell, seq) = (seq(None), seq(ue));
                        let flipped = own.iter().zip(cell.iter().zip(seq.iter()));
                        ue_llrs.clear();
                        ue_llrs.extend(flipped.map(|(l, (c, s))| if c != s { -l } else { *l }));
                        &*ue_llrs
                    }
                };
                asked.find_map(|&(p, at, hard, named)| {
                    let (code, word) = (&codes[at].1, named.map_or(hard, |n| n.map(|n| n.1)));
                    let cw = match (walk, ue.is_some() && named.is_none()) {
                        (true, _) => code.decode_sc_with(llrs, work),
                        (false, true) => code.codeword_of(&code.hard_word(llrs, work)?, work)?,
                        (false, false) => code.codeword_of(&word?, work)?,
                    };
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
/// to time. Returns the decoded DCIs plus the slot's offered-work counts.
pub fn decode_message_slot_budgeted(
    ctx: &DecoderContext,
    observed: &[ObservedDci],
    hyp: &Hypotheses,
    budget: SearchBudget,
    metrics: Option<&Arc<Metrics>>,
) -> (Vec<DecodedDci>, DecodeWork) {
    scan(ctx, observed, hyp, budget, metrics)
}

/// Hypothesis-testing stage over pre-extracted IQ candidates (their
/// extraction is the caller's to time), under
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
/// **Pass A** asks each candidate only the codeword test (`walk` unset):
/// are its hard decisions, under the common scrambling or a budget-admitted
/// C-RNTI's, a codeword whose CRC a hypothesis matches and whose payload
/// validates? Such a hit is a *claim*: SC would return that very codeword,
/// so the DCI is decoded and its CCEs are explained. One overlapping an
/// earlier claim is not asked. It asks first the positions some tracked
/// C-RNTI's search space admits, then the rest, each group in candidate
/// order: a UE's DCI claims before the shorter positions aliasing its CCEs
/// are read. A UE of unknown space admits every position, and the order is
/// candidate order.
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
    let searched = |c: &&C| hyp.c_rntis.admitting(c.level(), c.cce_start()) > 0;
    #[cfg(test)]
    let searched = |c: &&C| tests::CANDIDATE_ORDER.get() || searched(c);
    let rest = askable.clone().filter(|c| !searched(c));
    for cand in askable.filter(searched).chain(rest) {
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
    // Back in candidate order: where in `out` a DCI of the candidate belongs.
    out.sort_unstable_by_key(|d| (d.level.cces(), d.cce_start));
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
    if budget.skip_ue {
        work.pruned += 1;
        return None;
    }
    work.ue_candidates += 1;
    let rejects = &mut work.validation_rejects;
    let (hit, offered) = cand.ues(ctx, raw, &hyp.c_rntis, &sizes, walk, |rnti, bits| {
        unpack(cand, &bits(), &sizing, rnti, RntiType::C, rejects)
    });
    work.ue_hypotheses += offered;
    hit
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
    use std::collections::BTreeSet;

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
        /// Makes [`scan`]'s pass A ask in candidate order, the oracle its
        /// searched-first order is compared with.
        pub(super) static CANDIDATE_ORDER: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
        /// Makes a UE pass the per-UE loop ([`each_ue`]), the oracle its
        /// solve is compared with.
        pub(super) static PER_UE: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
        /// Makes [`FrontEnd::demodulate_pilots_first`] demodulate the
        /// CORESET's symbols whole — the front end as it was before it
        /// read their pilots first, for the differentials to compare with.
        pub(crate) static WHOLE_CORESET: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
        /// Every blind position whose LLRs a `codewords` call on this
        /// thread asked for, in order.
        pub(super) static ASKED: std::cell::RefCell<Vec<(AggregationLevel, usize)>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    /// The grid `front` read the last slot into, and the symbols of it
    /// still at their pilot class alone.
    pub(crate) fn last_read(
        front: &FrontEnd,
    ) -> Option<(&ResourceGrid, &[bool; SYMBOLS_PER_SLOT])> {
        let (.., grid) = front.layout.as_ref()?;
        Some((grid, front.deferred.symbols()))
    }

    /// Every hypothesis against every codeword: no budget, no metrics.
    fn decode_all(c: &DecoderContext, dcis: &[ObservedDci], hyp: &Hypotheses) -> Vec<DecodedDci> {
        decode_message_slot_budgeted(c, dcis, hyp, SearchBudget::unlimited(), None).0
    }

    /// The cell of `loaded_gnb(seed)` heard at `snr_db`, message fidelity:
    /// its decoder context, and of its first 2000 slots those carrying a
    /// DCI of `kind`, each with the codewords captured from it.
    fn captures(
        (seed, obs_seed): (u64, u64),
        snr_db: f64,
        kind: RntiType,
    ) -> (
        DecoderContext,
        impl Iterator<Item = (gnb_sim::SlotOutput, Vec<ObservedDci>)>,
    ) {
        let mut g = loaded_gnb(seed);
        let cfg = g.cfg.clone();
        let mut obs = Observer::new(&cfg, snr_db, false, obs_seed);
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
            let (c, slots) = captures(seeds, 35.0, RntiType::Tc);
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

    /// The UE pass of `cand` under `row` with `walk` unset, solved and per
    /// UE (the [`PER_UE`] switch), against `codeword_with` on LLRs flipped
    /// by each admitted UE's scrambling: the same payloads tested in order,
    /// hit, offered count and rejects; and what a code's solve names makes a
    /// codeword. Returns the payloads tested.
    fn pass_a_vs_flipped(c: &DecoderContext, cand: &ExtractedCandidate, row: &UeRow) -> usize {
        let (e, sizing) = (cand.level.bits(), c.ue_sizing.expect("SIB1"));
        let sizes = payload_sizes(&sizing);
        let at = format!("{:?} at CCE {}", cand.level, cand.cce_start);
        let got = indexed_as_per_ue(&at, || {
            let mut tested = Vec::new();
            let (hit, offered) = cand.ues(c, None, row, &sizes, false, |rnti, bits| {
                tested.push((rnti, bits().into_owned()));
                Dci::unpack_validated(&bits(), &sizing).ok().map(|_| rnti)
            });
            (hit, offered, tested)
        });
        let (mut scratch, mut want) = (DecodeScratch::default(), (None, Vec::new()));
        let seq = |ue| nr_phy::sequence::gold_bits(cinit_for(ue, c.pci), e);
        let flipped = |rnti| -> Vec<f32> {
            let flips = seq(None).into_iter().zip(seq(Some(rnti)));
            let flip = |(l, (a, b)): (&f32, (u8, u8))| if a == b { *l } else { -l };
            cand.llrs.iter().zip(flips).map(flip).collect()
        };
        let codes: Vec<_> = (sizes.iter().filter(|&&p| p + 24 < e))
            .map(|&p| (p, PolarCode::new(p + 24, e)))
            .collect();
        for (_, code) in &codes {
            let solved = FlipSolve::polar(code).zip(code.hard_word(&cand.llrs, &mut scratch));
            if let Some((x, _)) = solved.and_then(|(solve, hard)| solve.solve(&hard)) {
                let llrs = flipped(Rnti(x));
                let made = code.codeword_with(&llrs, &mut scratch).is_some();
                assert!(made, "{at}: the solve named {x:#x}");
            }
        }
        let admitted = (row.iter()).filter(|ue| ue.admits(cand.level, cand.cce_start));
        let admitted: Vec<_> = admitted.collect();
        'ues: for ue in &admitted {
            let llrs = flipped(ue.rnti);
            for (p, code) in &codes {
                let cw = code.codeword_with(&llrs, &mut scratch);
                if let Some(cw) = cw.filter(|cw| dci_syndrome(cw) == Some(ue.rnti.0 as u32)) {
                    want.1.push((ue.rnti, cw[..*p].to_vec()));
                    if Dci::unpack_validated(&cw[..*p], &sizing).is_ok() {
                        want.0 = Some(ue.rnti);
                        break 'ues;
                    }
                }
            }
        }
        assert_eq!(got, (want.0, admitted.len(), want.1), "{at}");
        got.2.len()
    }

    /// Pass A's solve answers what flipped LLRs answer
    /// ([`pass_a_vs_flipped`]), on every candidate of a 30 dB and a 3 dB
    /// tape: under the tracked C-RNTIs, the owner listed last and after one
    /// sharing its scrambling (`owner ^ 0x8000`, whose CRC differs); and, on
    /// the first slot's candidates, under more C-RNTIs than a Gold-sequence
    /// memo holds, the owner last.
    #[test]
    fn pass_a_solve_answers_what_flipped_llrs_answer() {
        let cap = nr_phy::sequence::GOLD_CACHE_CAP as u16;
        for snr_db in [30.0, 3.0] {
            let (c, heard) = iq_slots(snr_db, 6);
            let mut tested = 0;
            for (slot, (_, owner, candidates)) in heard.iter().enumerate() {
                let rntis = [0x4001, 0x4002, owner.0 ^ 0x8000, 0x4003, owner.0].map(Rnti);
                let tracked = knowing(&rntis).c_rntis;
                let many: Vec<_> = (1..=cap + 100).chain([owner.0]).map(Rnti).collect();
                let many = knowing(&many).c_rntis;
                for cand in candidates {
                    tested += pass_a_vs_flipped(&c, cand, &tracked);
                    if slot == 0 {
                        pass_a_vs_flipped(&c, cand, &many);
                    }
                }
            }
            assert!(snr_db < 30.0 || tested >= 100, "{tested} payloads tested");
        }
    }

    /// Where a code's rank falls short of 15 it has no solve, and the UE
    /// pass asks each C-RNTI in turn ([`pass_a_vs_flipped`]): a 300,000-PRB
    /// width makes the DL payload 70 bits, K = 94 at level 1 (no preset
    /// comes near), beside a UL code of rank 15. Only the sender's is tested.
    #[test]
    fn pass_a_asks_each_ue_where_a_code_has_no_solve() {
        let mut c = ctx(&CellConfig::srsran_n41());
        c.ue_sizing = Some(DciSizing { bwp_prbs: 300_000 });
        let code = PolarCode::new(94, 108);
        assert!(FlipSolve::polar(&code).is_none(), "rank 14");
        let (sender, payload) = (Rnti(0x4601), (0..70).map(|i| u8::from(i % 3 == 0)));
        let payload = nr_phy::crc::dci_attach_crc(&payload.collect::<Vec<_>>(), sender.0);
        let mut bits = code.encode(&payload);
        for ue in [Some(sender), None] {
            nr_phy::sequence::scramble_in_place(&mut bits, cinit_for(ue, c.pci));
        }
        let cand = ExtractedCandidate {
            llrs: bits.iter().map(|&b| 1.0 - 2.0 * f32::from(b)).collect(),
            level: AggregationLevel::L1,
            cce_start: 0,
        };
        let row = [Rnti(0x4002), sender, Rnti(0x4003)].map(UeHypothesis::anywhere);
        assert_eq!(pass_a_vs_flipped(&c, &cand, &row.into_iter().collect()), 1);
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
            let claim = vec![(tx.rnti, tx.cce_start)];
            let cases = [
                // The claim and the one position it leaves unexplained.
                (SearchBudget::unlimited(), claim, (2, 8, 0)),
                // Pass A asks no UE question and counts nothing: every
                // position is refused where it always was, in pass B.
                (SearchBudget::broadcast_only(), vec![], (0, 0, 4)),
            ];
            for (budget, at, ue) in cases {
                assert_eq!(run(budget), (at, (4, 0), ue), "slot {}", out.slot);
            }
            // One observation per candidate and scan, whichever pass dealt with it.
            let timed = metrics.snapshot().stage("dci_decode").map(|s| s.count);
            assert_eq!(timed, Some(2 * 4));
        }
        assert!(seen > 5, "{seen} lone level-2 DCIs");
    }

    /// `job`'s slot scanned over positions demapped on its first ask and
    /// over `extract_all_candidates`: the same DCIs and work counts, and
    /// through `process_slot` at 1 and 4 DCI threads too; the positions
    /// demapped are those the eager scan asks for, and none under a claim
    /// pass A makes earlier in order. Returns the positions gated, those
    /// demapped and those under an earlier claim.
    fn lazy_against_eager(
        front: &mut FrontEnd,
        mut job: crate::worker::SlotJob,
        at: &str,
    ) -> [usize; 3] {
        let (ctx, sif, hyp, budget) = (&job.ctx, job.slot_in_frame, &job.hyp, job.budget);
        let crate::ObservedSlot::Iq { samples, .. } = &job.observed else {
            panic!("{at}: an IQ job");
        };
        let wanted = coreset_symbols(&ctx.coreset);
        let grid = front.demodulate_slot(Some(ctx), samples, sif, &wanted, Metrics::disabled());
        let eager = extract_all_candidates(ctx, &grid.expect("the cell's layout").clone(), sif);
        let asked = || ASKED.take().into_iter().collect::<BTreeSet<_>>();
        asked();
        let want = decode_candidates_budgeted(ctx, &eager, hyp, budget, None);
        let eager_asked = asked();
        let positions = front.gate_slot(ctx, sif);
        assert_eq!(scan(ctx, &positions, hyp, budget, None), want, "{at}");
        assert_eq!(asked(), eager_asked, "{at}");
        let demapped = positions.iter().filter(|p| p.llrs.get().is_some());
        let demapped: BTreeSet<_> = demapped.map(Blind::position).collect();
        assert_eq!(demapped, eager_asked, "{at}");
        // Pass A's claims, in order: no position under one is read.
        let (mut claims, mut under) = (Vec::new(), 0);
        for (p, c) in positions.iter().zip(&eager) {
            if overlaps(&claims, p) {
                assert!(p.llrs.get().is_none(), "{at}: {:?} read", p.position());
                under += 1;
            } else if let Some(d) =
                test_hypotheses(ctx, c, hyp, budget, false, &mut DecodeWork::default())
            {
                claims.push(d);
            }
        }
        let counts = [positions.len(), demapped.len(), under];
        for threads in [1, 4] {
            job.dci_threads = threads;
            let mut want = (Vec::new(), DecodeWork::default());
            for hyp in crate::worker::shards(&job.hyp, threads) {
                let (d, w) = decode_candidates_budgeted(&job.ctx, &eager, &hyp, job.budget, None);
                want.0.extend(d);
                want.1.absorb(&w);
            }
            let got = crate::worker::process_slot(&job);
            assert_eq!((got.decoded, got.work), want, "{at}, {threads} threads");
        }
        counts
    }

    /// A slot's positions demapped on the scan's first ask decide what the
    /// eager extraction decides ([`lazy_against_eager`]), every slot of the
    /// 12-UE IQ cell heard at 30 dB and at 3 dB (where pass B walks and
    /// recovery fires), and a position under an earlier claim is never
    /// read: 262 of 1,519 at 30 dB.
    #[test]
    fn lazily_demapped_scan_decides_what_the_eager_extraction_decides() {
        let iq = crate::ScopeConfig {
            fidelity: crate::Fidelity::Iq,
            ..crate::ScopeConfig::default()
        };
        for snr_db in [30.0, 3.0] {
            let (cell, mut gnb) = crate::scope::tests::loaded_cell(12);
            // The scope tracks the cell at 30 dB whatever the tape is heard at.
            let mut feed = Observer::new(&cell, 30.0, true, 5);
            let mut tape = Observer::new(&cell, snr_db, true, 6);
            let (mut scope, mut front) = (crate::NrScope::new(iq, None), FrontEnd::default());
            let mut seen = [0; 3];
            for s in 0..200 {
                let (out, t) = (gnb.step(), s as f64 * cell.slot_s());
                let observed = feed.observe(&out, t);
                if let Some(job) = scope.slot_job(tape.observe(&out, t)) {
                    let counts =
                        lazy_against_eager(&mut front, job, &format!("{snr_db} dB, slot {s}"));
                    seen = std::array::from_fn(|i| seen[i] + counts[i]);
                }
                scope.process(&observed);
            }
            let [gated, demapped, under] = seen;
            println!("{snr_db} dB: {gated} positions gated, {demapped} demapped, {under} under an earlier claim");
            assert!(
                under > 100 && demapped + under <= gated,
                "{snr_db} dB: {seen:?}"
            );
        }
    }

    /// `job`'s slot, extracted, scanned with pass A asking a tracked UE's
    /// search-space positions first and in candidate order (the
    /// [`CANDIDATE_ORDER`] switch): the same DCIs in the same order and the
    /// same work, and no position asked that candidate order does not ask.
    /// Returns the asks of each, searched first and in candidate order.
    fn searched_first_against_candidate_order(
        front: &mut FrontEnd,
        job: &crate::worker::SlotJob,
        at: &str,
    ) -> [Vec<(AggregationLevel, usize)>; 2] {
        let (ctx, sif) = (&job.ctx, job.slot_in_frame);
        let crate::ObservedSlot::Iq { samples, .. } = &job.observed else {
            panic!("{at}: an IQ job");
        };
        let wanted = coreset_symbols(&ctx.coreset);
        let grid = front.demodulate_slot(Some(ctx), samples, sif, &wanted, Metrics::disabled());
        let eager = extract_all_candidates(ctx, grid.expect("the cell's layout"), sif);
        let run = |in_order| {
            CANDIDATE_ORDER.set(in_order);
            ASKED.take();
            let got = decode_candidates_budgeted(ctx, &eager, &job.hyp, job.budget, None);
            CANDIDATE_ORDER.set(false);
            (got, ASKED.take())
        };
        let ((want, in_order), (got, searched)) = (run(true), run(false));
        assert_eq!(got, want, "{at}");
        let never = searched.iter().find(|p| !in_order.contains(p));
        assert_eq!(never, None, "{at}: asked only searched first");
        [searched, in_order]
    }

    /// Pass A asking a tracked UE's search-space positions first decides
    /// what candidate order decides ([`searched_first_against_candidate_order`]),
    /// every slot of the 1-UE and the 12-UE IQ cell heard at 30 dB and at
    /// 3 dB and of a restart under PCI 7; and under a row whose first UE's
    /// space is unknown, which admits every position, it asks in candidate
    /// order, ask for ask.
    #[test]
    fn searched_first_pass_a_decides_what_candidate_order_decides() {
        let iq = crate::ScopeConfig {
            fidelity: crate::Fidelity::Iq,
            ..crate::ScopeConfig::default()
        };
        let restart = crate::ScopeConfig {
            degraded_after_slots: 10,
            lost_after_slots: 30,
            ..iq
        };
        let runs = [(1, 30.0), (1, 3.0), (12, 30.0), (12, 3.0)].map(|(n, snr)| (n, snr, None));
        let mut asks = [0; 2];
        for (n_ues, snr_db, restart_at) in runs.into_iter().chain([(1, 30.0, Some(120))]) {
            let (cell, mut gnb) = crate::scope::tests::loaded_cell(n_ues);
            // The scope tracks the cell at 30 dB whatever the tape is heard at.
            let mut feed = Observer::new(&cell, 30.0, true, 5);
            let mut tape = Observer::new(&cell, snr_db, true, 6);
            let cfg = if restart_at.is_some() { restart } else { iq };
            let (mut scope, mut front) = (crate::NrScope::new(cfg, None), FrontEnd::default());
            let mut seen = [0; 2];
            for s in 0..if n_ues == 1 { 400 } else { 200 } {
                if restart_at == Some(s) {
                    gnb.restart(Pci(7));
                }
                let (out, t) = (gnb.step(), s as f64 * cell.slot_s());
                let observed = feed.observe(&out, t);
                if let Some(mut job) = scope.slot_job(tape.observe(&out, t)) {
                    let at = format!("{n_ues} UEs, {snr_db} dB, slot {s}");
                    let counts = searched_first_against_candidate_order(&mut front, &job, &at);
                    seen = std::array::from_fn(|i| seen[i] + counts[i].len());
                    job.hyp.c_rntis =
                        (job.hyp.c_rntis).respaced(|i, ue| ue.space.filter(|_| i > 0));
                    let [searched, in_order] =
                        searched_first_against_candidate_order(&mut front, &job, &at);
                    assert_eq!(searched, in_order, "{at}: one UE of unknown space");
                }
                scope.process(&observed);
            }
            if restart_at.is_some() {
                assert_eq!(scope.cell.pci, Some(Pci(7)), "the new PCI found");
            }
            let [searched, in_order] = seen;
            println!("{n_ues} UEs, {snr_db} dB, restart {restart_at:?}: {searched} asks searched first, {in_order} in candidate order");
            asks = std::array::from_fn(|i| asks[i] + seen[i]);
        }
        assert!(asks[0] < asks[1], "{asks:?}");
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

    /// The front end keeps each slot-in-frame's CORESET sequences for the
    /// (CORESET, PCI) they were built for: in every slot of two frames, the
    /// kept ones equal freshly built ones, and what the front end extracts
    /// equals the public [`extract_all_candidates`] bit for bit — under the
    /// cell's PCI, after a restart under a new one, and over a second
    /// CORESET symbol.
    #[test]
    fn kept_coreset_sequences_equal_fresh_ones_in_every_slot() {
        let mut g = loaded_gnb(5);
        let renderer = gnb_sim::iq::IqRenderer::new(&g.cfg);
        let mut usrp = nr_radio::VirtualUsrp::new(20.0, 0.0, 6);
        let mut front = FrontEnd::default();
        let bits = |c: ExtractedCandidate| {
            let llrs = c.llrs.iter().map(|l| l.to_bits());
            (c.level, c.cce_start, llrs.collect::<Vec<_>>())
        };
        let (spf, all) = (g.cfg.numerology.slots_per_frame(), [true; SYMBOLS_PER_SLOT]);
        let mut extracted = 0;
        for phase in 0..3 {
            if phase == 1 {
                g.restart(Pci(7));
            }
            let mut c = ctx(&g.cfg);
            if phase == 2 {
                c.coreset.n_symbols = 2;
            }
            for _ in 0..2 * spf {
                let out = g.step();
                let samples = usrp.receive(&renderer.render_iq(&out), 0.0).samples;
                let sif = out.slot_in_frame;
                let grid =
                    front.demodulate_slot(Some(&c), &samples, sif, &all, Metrics::disabled());
                let grid = grid.expect("the cell's layout").clone();
                let gated = front
                    .gate_slot(&c, sif)
                    .into_iter()
                    .map(|p| ExtractedCandidate {
                        llrs: p.llrs().to_vec(),
                        level: p.level,
                        cce_start: p.cce_start,
                    });
                let got: Vec<_> = gated.map(bits).collect();
                let (key, kept) = front.pilots.as_ref().expect("built");
                let fresh = Some(coreset_sequences(&c, sif));
                assert_eq!(*key, (c.coreset, c.pci));
                assert!(kept[sif] == fresh, "slot {sif}, phase {phase}");
                let public = extract_all_candidates(&c, &grid, sif).into_iter();
                assert_eq!(got, public.map(bits).collect::<Vec<_>>());
                extracted += got.len();
            }
        }
        assert!(extracted > 50, "{extracted} candidates");
    }

    /// At 35 dB a slot's C-RNTI DCIs are all decoded by who knows the RNTI,
    /// none by who does not (the paper's "if we miss a RACH…" property) and
    /// none under the broadcast-only budget, which counts each as pruned.
    #[test]
    fn search_budget_gates_ue_pass_but_never_broadcast() {
        let (c, mut slots) = captures((6, 9), 35.0, RntiType::C);
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
        let (c, mut slots) = captures((8, 10), 35.0, RntiType::C);
        let (out, mut dcis) = slots.next().expect("a data DCI");
        let tx = (out.dcis.iter()).find(|d| d.rnti_type == RntiType::C);
        let (tx, cfg) = (tx.expect("it is there"), CellConfig::srsran_n41());
        let known = Hypotheses {
            c_rntis: [UeHypothesis::in_search_space(
                tx.rnti,
                &cfg.rrc_setup(),
                &cfg.coreset,
                out.slot_in_frame,
            )]
            .into_iter()
            .collect(),
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
        captured(c, payload, rnti, None)
    }

    /// A codeword carrying `payload` under `rnti`, scrambled as the common
    /// search space (`ue` unset) or UE `ue` does, captured whole at CCE 0.
    fn captured(c: &DecoderContext, payload: &[u8], rnti: Rnti, ue: Option<Rnti>) -> ObservedDci {
        let mut bits = nr_phy::crc::dci_attach_crc(payload, rnti.0);
        nr_phy::sequence::scramble_in_place(&mut bits, cinit_for(ue, c.pci));
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
        let (c, mut slots) = captures((6, 9), 35.0, RntiType::C);
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

    /// `run` with a captured codeword's UE pass indexed and then per UE
    /// ([`each_ue`]): the two answers, equal field by field.
    fn indexed_as_per_ue<T: PartialEq + std::fmt::Debug>(at: &str, run: impl Fn() -> T) -> T {
        PER_UE.set(true);
        let per_ue = run();
        PER_UE.set(false);
        let indexed = run();
        assert_eq!(indexed, per_ue, "{at}");
        indexed
    }

    /// A slot's scan, indexed and per UE.
    fn scan_both(c: &DecoderContext, dcis: &[ObservedDci], hyp: &Hypotheses, at: &str) -> usize {
        let unlimited = SearchBudget::unlimited();
        let (found, _) = indexed_as_per_ue(at, || {
            decode_message_slot_budgeted(c, dcis, hyp, unlimited, None)
        });
        n_c(found.iter().map(|d| d.rnti_type))
    }

    /// A respaced row shares the RNTI index of the row it came from, and
    /// lists for every RNTI the UEs a row built fresh lists, in list order.
    #[test]
    fn a_respaced_row_lists_what_a_fresh_row_lists() {
        let rntis = [0x4001, 0xC001, 0x4002, 0x4001].map(Rnti);
        let row: UeRow = rntis.into_iter().map(UeHypothesis::anywhere).collect();
        let listed = |row: &UeRow, r| row.listing(r).copied().collect::<Vec<_>>();
        let space = Some((AggregationLevel::L2, 0b110));
        let respaced = row.respaced(|i, _| space.filter(|_| i % 2 == 0));
        assert!(Arc::ptr_eq(&row.0.listed, &respaced.0.listed));
        let fresh: UeRow = respaced.iter().copied().collect();
        assert_eq!(listed(&respaced, Rnti(0x4001)).len(), 2);
        for r in rntis.into_iter().chain([Rnti(0x7777)]) {
            assert_eq!(listed(&respaced, r), listed(&fresh, r), "{r:?}");
        }
    }

    /// Two PCIs at one codeword length share one key solve, each with its
    /// own common syndrome; another length builds its own.
    #[test]
    fn two_pcis_at_one_length_share_one_key_solve() {
        let mut polar = PolarCodes::default();
        let common = [(64, 1), (64, 7), (80, 1)].map(|(n, pci)| polar.keys(n, pci).0);
        let solve = |n, pci| {
            let at = polar.keys.iter().find(|k| (k.0, k.1) == (n, pci));
            let solve = at.and_then(|k| k.3.as_ref());
            Rc::clone(solve.expect("a solve below 334 bits"))
        };
        assert!(Rc::ptr_eq(&solve(64, 1), &solve(64, 7)));
        assert!(!Rc::ptr_eq(&solve(64, 1), &solve(80, 1)));
        assert_eq!(polar.keys.len(), 3);
        assert_ne!(common[0], common[1]);
    }

    /// The first codeword length from `n` up at which two C-RNTIs share a
    /// key under `c`'s PCI, and such a pair. A key is affine in the RNTI
    /// (its sequence starts from `rnti << 16 | pci`, and the CRC is
    /// linear), so two collide exactly when their XOR is in the kernel of
    /// the unit RNTIs' images, which elimination finds or rules out. Under
    /// the test PCI no DCI length has one: 334 bits is the first.
    fn equal_keys(c: &DecoderContext, n: usize) -> (usize, Rnti, Rnti) {
        for n in n..1000 {
            let seq = |r: u16| nr_phy::sequence::gold_bits(cinit_for(Some(Rnti(r)), c.pci), n);
            let syndrome = |r: u16| nr_phy::crc::dci_scrambling_syndrome(&seq(r)).unwrap();
            let image = |r: u16| r as u32 ^ syndrome(r) ^ syndrome(0);
            // Per leading bit: a reduced image and the RNTI bits it sums.
            let mut basis: [Option<(u32, u16)>; 24] = [None; 24];
            let kernel = (0..16).find_map(|b| {
                let (mut v, mut sum) = (image(1 << b), 1u16 << b);
                for bit in (0..24).rev() {
                    match basis[bit].filter(|_| v >> bit & 1 == 1) {
                        Some((w, s)) => (v, sum) = (v ^ w, sum ^ s),
                        None if v >> bit & 1 == 0 => {}
                        None => {
                            basis[bit] = Some((v, sum));
                            return None;
                        }
                    }
                }
                Some(sum)
            });
            let pairs = kernel
                .into_iter()
                .flat_map(|d| (0x4000..0xFFF0).map(move |r| (r, r ^ d)));
            let mut pairs = pairs.filter(|&(_, later)| Rnti(later).is_c_rnti_range());
            if let Some((a, b)) = pairs.next() {
                return (n, Rnti(a), Rnti(b));
            }
        }
        panic!("no length under 1000 with equal keys under PCI {}", c.pci)
    }

    /// The indexed UE pass answers what the per-UE loop answers, to the
    /// decoded DCIs and every work count: on every candidate of a 24 dB and
    /// a 3 dB tape, each also moved past CCE 127, under C-RNTIs in search
    /// spaces and anywhere; on two C-RNTIs with equal keys, the earlier one's
    /// payload rejected (a pair exists first at 334 bits, where no DCI
    /// format has a size, so "valid" there means "as sent"); with the DL
    /// and UL sizes equal; and on one row carried across a PCI change and a
    /// SIB1 width change.
    #[test]
    fn indexed_ue_pass_answers_what_the_per_ue_loop_answers() {
        let cfg = CellConfig::srsran_n41();
        let (rrc, coreset) = (cfg.rrc_setup(), cfg.coreset);
        for snr_db in [24.0, 3.0] {
            let (c, slots) = captures((6, 9), snr_db, RntiType::C);
            let slots: Vec<_> = slots.collect();
            let tx = (slots.iter())
                .find_map(|(out, _)| out.dcis.iter().find(|d| d.rnti_type == RntiType::C));
            let owner = tx.expect("a C-RNTI DCI").rnti;
            let rntis = [Rnti(0x4001), owner, Rnti(0x4002), Rnti(0x4003)];
            // One key map for every slot, as the scope's table shares it.
            let anywhere: UeRow = rntis.into_iter().map(UeHypothesis::anywhere).collect();
            let (mut candidates, mut found) = (0, 0);
            for (out, mut dcis) in slots {
                let sif = out.slot_in_frame;
                let hyp = Hypotheses {
                    c_rntis: anywhere.respaced(|i, ue| {
                        let space = UeHypothesis::in_search_space(ue.rnti, &rrc, &coreset, sif);
                        (i != 0).then_some(space.space?)
                    }),
                    allow_recovery: true,
                    ..Hypotheses::default()
                };
                let at = format!("{snr_db} dB, slot {}", out.slot);
                found += scan_both(&c, &dcis, &hyp, &at);
                for d in dcis.iter_mut() {
                    d.cce_start += 128;
                }
                assert_eq!(
                    scan_both(&c, &dcis, &hyp, &at),
                    0,
                    "{at}: found past CCE 127"
                );
                candidates += 2 * dcis.len();
            }
            assert!(candidates > 1000, "{snr_db} dB: {candidates} candidates");
            assert!(snr_db < 24.0 || found > 300, "{found} C-RNTI DCIs");
        }

        // Two C-RNTIs whose keys collide, offered a codeword the later one
        // sent, whose sizes are the DL and UL ones at once. Its payload is
        // "valid" only as sent: the earlier one's is a counted reject.
        let (c, _) = captures((6, 9), 35.0, RntiType::C);
        let (n, earlier, later) = equal_keys(&c, 24);
        let payload: Vec<u8> = (0..n - 24).map(|i| u8::from(i % 3 == 0)).collect();
        let dci = captured(&c, &payload, later, Some(later));
        let pass = |ues: &[UeHypothesis], sizes: [usize; 2]| {
            indexed_as_per_ue(&format!("{ues:?} under {sizes:?}"), || {
                let (row, raw): (UeRow, _) = (ues.iter().copied().collect(), dci.raw_syndrome());
                let mut rejects = 0;
                let (hit, offered) = dci.ues(&c, raw, &row, &sizes, true, |rnti, bits| {
                    let valid = *bits() == payload[..];
                    rejects += usize::from(!valid);
                    valid.then_some(rnti)
                });
                (hit, offered, rejects)
            })
        };
        let (first, second) = (
            UeHypothesis::anywhere(earlier),
            UeHypothesis::anywhere(later),
        );
        let elsewhere = UeHypothesis {
            space: Some((AggregationLevel::L2, 1 << 2)),
            ..first
        };
        let cases = [
            (vec![first, second], (Some(later), 2, 1)),
            (vec![second, first], (Some(later), 2, 0)),
            (vec![elsewhere, second], (Some(later), 1, 0)),
            (vec![first, second, second], (Some(later), 3, 1)),
            (vec![first], (None, 1, 1)),
        ];
        for (ues, want) in cases {
            let p = n - 24;
            assert_eq!(pass(&ues, [p, p]), want, "{ues:?} at {n} bits");
            assert_eq!(
                pass(&ues, [p, p + 1]),
                want,
                "{ues:?}: the UL size moved it"
            );
        }

        // One row across a PCI change, then a SIB1 width change: the keys
        // built under the first context serve neither of the others.
        let (c, mut slots) = captures((6, 9), 35.0, RntiType::C);
        let sizing = c.ue_sizing.expect("SIB1");
        let grant = slots.find_map(|(out, _)| {
            let dl = out.dcis.into_iter().find(|d| d.rnti_type == RntiType::C);
            dl.filter(|d| d.payload_bits.len() == payload_sizes(&sizing)[0])
        });
        let (owner, payload) = grant.map(|d| (d.rnti, d.payload_bits)).expect("a DL grant");
        let hyp = Hypotheses {
            c_rntis: [Rnti(0x4001), owner]
                .map(UeHypothesis::anywhere)
                .into_iter()
                .collect(),
            ..Hypotheses::default()
        };
        let moved = DecoderContext {
            pci: c.pci + 1,
            ..c.clone()
        };
        let wider = DciSizing {
            bwp_prbs: sizing.bwp_prbs + 55,
        };
        let widened = DecoderContext {
            ue_sizing: Some(wider),
            ..moved.clone()
        };
        let mut grant = Dci::unpack_validated(&payload, &sizing).expect("a grant");
        grant.f_alloc = 0;
        let wide = grant.pack(&wider);
        assert_ne!(wide.len(), payload.len());
        for (ctx, payload) in [(&c, &payload), (&moved, &payload), (&widened, &wide)] {
            let dcis = [captured(ctx, payload, owner, Some(owner))];
            let at = format!("PCI {}, {:?}", ctx.pci, ctx.ue_sizing);
            assert_eq!(scan_both(ctx, &dcis, &hyp, &at), 1, "{at}");
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
