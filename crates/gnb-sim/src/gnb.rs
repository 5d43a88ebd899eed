//! The slot-synchronous gNB simulator.
//!
//! Each call to [`Gnb::step`] advances one TTI and returns the
//! [`SlotOutput`] a passive observer could capture off the air: the MIB (if
//! an SSB burst falls in the slot), every PDCCH DCI with its payload bits
//! and CCE placement, and the PDSCH payloads of the broadcast messages
//! (SIB1, RAR, RRC Setup). Simultaneously it appends the srsRAN-log-style
//! ground truth (`TruthLog`) used by the evaluation.
//!
//! Simplifications relative to a production gNB (documented in DESIGN.md):
//! HARQ feedback is applied in the transmitting slot (no n+k PUCCH delay)
//! and MSG 3 contention resolution always succeeds. Neither affects what
//! the sniffer can observe — DCI placement, scrambling and HARQ/NDI
//! sequences are exactly as a real cell would emit them.

use crate::cell::CellConfig;
use crate::hostile::HostileConfig;
use crate::truth::{TruthLog, TruthRecord};
use nr_mac::{Allocation, GnbHarqEntity, RachEvent, RachProcedure, RntiAllocator, Scheduler};
use nr_phy::dci::{riv_encode, Dci, DciFormat, DciSizing};
use nr_phy::frame::{SlotClock, SlotDirection};
use nr_phy::mcs::{bler, McsEntry};
use nr_phy::pdcch::{candidate_cce, ue_search_space_y, AggregationLevel};
use nr_phy::types::{Pci, Rnti, RntiType};
use nr_rrc::Mib;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use ue_sim::SimUe;

/// One DCI as transmitted on the PDCCH in a slot.
#[derive(Debug, Clone, PartialEq)]
pub struct TxDci {
    /// Addressed RNTI (scrambles the CRC).
    pub rnti: Rnti,
    /// RNTI classification.
    pub rnti_type: RntiType,
    /// Packed DCI payload bits (pre-CRC).
    pub payload_bits: Vec<u8>,
    /// The translated grant.
    pub alloc: Allocation,
    /// First CCE of the candidate carrying this DCI.
    pub cce_start: usize,
    /// Aggregation level.
    pub level: AggregationLevel,
}

/// PDSCH payloads of the broadcast/setup messages (message-level content —
/// user-plane PDSCH carries only its size, which is what telemetry needs).
#[derive(Debug, Clone, PartialEq)]
pub enum PdschContent {
    /// SIB1 bits.
    Sib1(Vec<u8>),
    /// Random access response: carries the TC-RNTI assignment.
    Rar {
        /// Assigned temporary C-RNTI.
        tc_rnti: Rnti,
    },
    /// MSG 4 RRC Setup bits.
    RrcSetup(Vec<u8>),
    /// User data of a given size (content abstracted).
    UserData {
        /// Transport block size in bits.
        tbs: u32,
    },
}

/// Everything observable in one downlink slot.
#[derive(Debug, Clone, Default)]
pub struct SlotOutput {
    /// Absolute TTI index.
    pub slot: u64,
    /// System frame number.
    pub sfn: u32,
    /// Slot within the frame.
    pub slot_in_frame: usize,
    /// Slot direction under the cell's TDD pattern.
    pub direction: Option<SlotDirection>,
    /// The cell identity every transmission in this slot is scrambled
    /// with — what is physically on the air (changes on cell restart).
    pub pci: Pci,
    /// MIB, when an SSB burst falls in this slot.
    pub mib: Option<Mib>,
    /// All PDCCH transmissions.
    pub dcis: Vec<TxDci>,
    /// PDSCH payloads keyed by the RNTI whose DCI schedules them.
    pub pdsch: Vec<(Rnti, PdschContent)>,
}

/// In-flight HARQ payload bookkeeping.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    bytes: usize,
    packets: usize,
    retransmitted: bool,
}

/// The simulated gNodeB.
pub struct Gnb {
    /// Static cell configuration.
    pub cfg: CellConfig,
    clock: SlotClock,
    rnti_alloc: RntiAllocator,
    rach: RachProcedure,
    /// UEs that sent a preamble and await MSG 4, keyed by TC-RNTI.
    rach_pending: HashMap<Rnti, SimUe>,
    /// UEs waiting for the next PRACH occasion.
    arrival_queue: Vec<SimUe>,
    /// RRC-connected UEs keyed by C-RNTI (BTreeMap for deterministic order).
    connected: std::collections::BTreeMap<Rnti, SimUe>,
    harqs: HashMap<Rnti, GnbHarqEntity>,
    in_flight: HashMap<(Rnti, u8), InFlight>,
    scheduler: Box<dyn Scheduler + Send>,
    truth: TruthLog,
    rng: StdRng,
    /// Sizing for UE-specific DCIs (carrier-wide BWP).
    sizing: DciSizing,
    /// Sizing for common-search-space DCIs (initial BWP = CORESET 0 width,
    /// so a sniffer can size them from the MIB alone).
    common_sizing: DciSizing,
    /// Adversarial emission profile; `None` = benign cell. The RNG is
    /// separate from `rng` so arming hostility never perturbs the
    /// legitimate emission stream.
    hostile: Option<(HostileConfig, StdRng)>,
}

impl Gnb {
    /// Build a gNB for a cell with a scheduler.
    pub fn new(cfg: CellConfig, scheduler: Box<dyn Scheduler + Send>, seed: u64) -> Gnb {
        let sizing = DciSizing {
            bwp_prbs: cfg.carrier_prbs,
        };
        let common_sizing = DciSizing {
            bwp_prbs: cfg.coreset.n_prb,
        };
        Gnb {
            clock: SlotClock::new(cfg.numerology),
            rnti_alloc: RntiAllocator::new(),
            rach: RachProcedure::new(),
            rach_pending: HashMap::new(),
            arrival_queue: Vec::new(),
            connected: std::collections::BTreeMap::new(),
            harqs: HashMap::new(),
            in_flight: HashMap::new(),
            scheduler,
            truth: TruthLog::new(),
            rng: StdRng::seed_from_u64(seed),
            sizing,
            common_sizing,
            hostile: None,
            cfg,
        }
    }

    /// Arm the hostile emission profile. Adversarial transmissions start
    /// with the next downlink slot and are never entered in the
    /// ground-truth log.
    pub fn arm_hostile(&mut self, cfg: HostileConfig) {
        self.hostile = Some((cfg, StdRng::seed_from_u64(cfg.seed)));
    }

    /// Disarm the hostile profile.
    pub fn disarm_hostile(&mut self) {
        self.hostile = None;
    }

    /// Queue a UE to start random access at the next PRACH occasion.
    pub fn ue_arrives(&mut self, ue: SimUe) {
        self.arrival_queue.push(ue);
    }

    /// Detach a UE by simulation id (session ended). Returns the UE with
    /// its ground-truth delivery log.
    pub fn ue_departs(&mut self, id: u64) -> Option<SimUe> {
        let rnti = self
            .connected
            .iter()
            .find(|(_, a)| a.id == id)
            .map(|(r, _)| *r)?;
        let att = self.connected.remove(&rnti)?;
        self.rnti_alloc.release(rnti);
        self.harqs.remove(&rnti);
        self.in_flight.retain(|(r, _), _| *r != rnti);
        Some(att)
    }

    /// Apply a live configuration change, e.g. a SIB1 content update.
    /// Broadcasts pick up the new values at their next period; DCI sizings
    /// are recomputed. The scheduler keeps its construction-time config
    /// (operators restart the cell to change scheduling parameters).
    pub fn reconfigure(&mut self, f: impl FnOnce(&mut CellConfig)) {
        f(&mut self.cfg);
        self.sizing = DciSizing {
            bwp_prbs: self.cfg.carrier_prbs,
        };
        self.common_sizing = DciSizing {
            bwp_prbs: self.cfg.coreset.n_prb,
        };
    }

    /// Restart the cell under a new PCI (operator maintenance / PCI
    /// confusion repair). Every attached or mid-RACH UE is detached and
    /// re-queued for random access; RNTI, RACH and HARQ state reset. The
    /// slot clock and ground-truth log keep running — a sniffer sees the
    /// same cell go dark for its DCIs and come back with new scrambling.
    pub fn restart(&mut self, new_pci: Pci) {
        self.cfg.pci = new_pci;
        let connected = std::mem::take(&mut self.connected);
        for (_, a) in connected {
            self.arrival_queue.push(a);
        }
        for (_, ue) in self.rach_pending.drain() {
            self.arrival_queue.push(ue);
        }
        // Deterministic re-attach order regardless of map iteration.
        self.arrival_queue.sort_by_key(|u| u.id);
        self.rnti_alloc = RntiAllocator::new();
        self.rach = RachProcedure::new();
        self.harqs.clear();
        self.in_flight.clear();
    }

    /// Connected C-RNTIs (ground truth for the UE-tracking evaluation).
    pub fn connected_rntis(&self) -> Vec<Rnti> {
        self.connected.keys().copied().collect()
    }

    /// Access a connected UE by RNTI.
    pub fn ue(&self, rnti: Rnti) -> Option<&SimUe> {
        self.connected.get(&rnti)
    }

    /// The ground-truth log.
    pub fn truth(&self) -> &TruthLog {
        &self.truth
    }

    /// Current slot clock.
    pub fn clock(&self) -> SlotClock {
        self.clock
    }

    /// DCI payload sizing for UE-specific DCIs in this cell.
    pub fn sizing(&self) -> DciSizing {
        self.sizing
    }

    /// DCI payload sizing for common-search-space DCIs (initial BWP).
    pub fn common_sizing(&self) -> DciSizing {
        self.common_sizing
    }

    /// Advance one TTI.
    pub fn step(&mut self) -> SlotOutput {
        let slot = self.clock.absolute_slot;
        let sfn = self.clock.sfn;
        let slot_in_frame = self.clock.slot;
        let t = self.clock.elapsed_s();
        let dt = self.cfg.slot_s();
        let pattern = match self.cfg.duplex {
            nr_rrc::sib1::Duplex::Fdd => nr_phy::TddPattern::fdd(),
            nr_rrc::sib1::Duplex::Tdd => self.cfg.tdd.clone(),
        };
        let direction = pattern.direction(slot_in_frame);

        // 1. Application traffic accrues for every attached UE.
        for a in self.connected.values_mut() {
            a.generate_traffic(dt);
        }
        for ue in self.rach_pending.values_mut() {
            ue.generate_traffic(dt);
        }

        // 2. PRACH occasion: waiting UEs transmit preambles (MSG 1).
        if self.cfg.rach.is_prach_occasion(slot) && !self.arrival_queue.is_empty() {
            for ue in self.arrival_queue.drain(..) {
                if let Some(tc_rnti) = self.rnti_alloc.allocate() {
                    self.rach.preamble_received(slot, tc_rnti);
                    self.rach_pending.insert(tc_rnti, ue);
                }
            }
        }

        let mut out = SlotOutput {
            slot,
            sfn,
            slot_in_frame,
            direction: Some(direction),
            pci: self.cfg.pci,
            ..SlotOutput::default()
        };

        if pattern.has_downlink(slot_in_frame) {
            self.downlink_slot(&mut out, slot, sfn, slot_in_frame, t);
        }

        self.clock.tick();
        out
    }

    /// Emit everything belonging to a downlink(-capable) slot.
    fn downlink_slot(
        &mut self,
        out: &mut SlotOutput,
        slot: u64,
        sfn: u32,
        slot_in_frame: usize,
        t: f64,
    ) {
        let n_cces = self.cfg.coreset.n_cces();
        let mut cce_used = vec![false; n_cces];
        let mut dci_budget = self.cfg.max_dcis_per_slot();

        // SSB burst: MIB every `ssb_period_frames`, in slot 0.
        if slot_in_frame == 0 && sfn.is_multiple_of(self.cfg.ssb_period_frames) {
            out.mib = Some(self.cfg.mib((sfn % 1024) as u16));
        }

        // SIB1: SI-RNTI DCI + payload, every `sib1_period_frames`, slot 0.
        if slot_in_frame == 0 && sfn.is_multiple_of(self.cfg.sib1_period_frames) && dci_budget > 0 {
            let sib_bits = self.cfg.sib1().encode();
            let prb_len = 6.min(self.cfg.carrier_prbs);
            if let Some(tx) = self.place_dci(
                Rnti::SI,
                RntiType::Si,
                DciFormat::Dl1_1,
                0,
                prb_len,
                0,
                0,
                slot_in_frame,
                &mut cce_used,
            ) {
                out.pdsch.push((Rnti::SI, PdschContent::Sib1(sib_bits)));
                self.truth.push(TruthRecord {
                    slot,
                    sfn,
                    rnti: Rnti::SI,
                    rnti_type: RntiType::Si,
                    alloc: tx.alloc,
                    acked: true,
                });
                out.dcis.push(tx);
                dci_budget -= 1;
            }
        }

        // RACH progress: MSG 2 and MSG 4 consume PDCCH space too.
        for event in self.rach.tick(slot) {
            match event {
                RachEvent::SendMsg2 { ra_rnti, tc_rnti } => {
                    if dci_budget == 0 {
                        // PDCCH congestion: restart the procedure (the UE
                        // retries its preamble after the response window).
                        self.rach.retry(self.next_prach_occasion(slot), tc_rnti);
                        continue;
                    }
                    if let Some(tx) = self.place_dci(
                        ra_rnti,
                        RntiType::Ra,
                        DciFormat::Dl1_1,
                        0,
                        2.min(self.cfg.carrier_prbs),
                        0,
                        0,
                        slot_in_frame,
                        &mut cce_used,
                    ) {
                        out.pdsch.push((ra_rnti, PdschContent::Rar { tc_rnti }));
                        self.truth.push(TruthRecord {
                            slot,
                            sfn,
                            rnti: ra_rnti,
                            rnti_type: RntiType::Ra,
                            alloc: tx.alloc,
                            acked: true,
                        });
                        out.dcis.push(tx);
                        dci_budget -= 1;
                    } else {
                        // Both common candidates blocked: retry later.
                        self.rach.retry(self.next_prach_occasion(slot), tc_rnti);
                    }
                }
                RachEvent::UeSendsMsg3 { .. } => {
                    // Uplink; invisible to the DL sniffer. Contention
                    // resolution always succeeds in this simulation.
                }
                RachEvent::SendMsg4 { tc_rnti } => {
                    if dci_budget == 0 {
                        // Postpone: restart so MSG 4 retries shortly (rare
                        // under realistic load).
                        self.rach.retry(self.next_prach_occasion(slot), tc_rnti);
                        continue;
                    }
                    let setup_bits = self.cfg.rrc_setup().encode();
                    if let Some(tx) = self.place_dci(
                        tc_rnti,
                        RntiType::Tc,
                        DciFormat::Dl1_1,
                        0,
                        3.min(self.cfg.carrier_prbs),
                        0,
                        0,
                        slot_in_frame,
                        &mut cce_used,
                    ) {
                        out.pdsch
                            .push((tc_rnti, PdschContent::RrcSetup(setup_bits)));
                        self.truth.push(TruthRecord {
                            slot,
                            sfn,
                            rnti: tc_rnti,
                            rnti_type: RntiType::Tc,
                            alloc: tx.alloc,
                            acked: true,
                        });
                        out.dcis.push(tx);
                        dci_budget -= 1;
                        // TC-RNTI promotes to C-RNTI: the UE is connected.
                        if let Some(ue) = self.rach_pending.remove(&tc_rnti) {
                            self.connected.insert(tc_rnti, ue);
                            self.harqs.insert(tc_rnti, GnbHarqEntity::new());
                        }
                    } else {
                        // Candidate collision: retry the whole procedure so
                        // the UE is not stranded.
                        self.rach.retry(self.next_prach_occasion(slot), tc_rnti);
                    }
                }
            }
        }

        // Downlink data scheduling.
        let sched_cfg = {
            let mut c = self.cfg.scheduler_config();
            c.max_dcis_per_slot = dci_budget;
            c
        };
        let sched_ues: Vec<nr_mac::SchedUe> = self
            .connected
            .iter()
            .map(|(r, a)| nr_mac::SchedUe {
                rnti: *r,
                buffer_bytes: a.dl_buffer,
                snr_db: a.snr_db_at(t),
                avg_rate: a.avg_rate,
            })
            .collect();
        let allocations = self
            .scheduler
            .schedule(slot, &sched_ues, &mut self.harqs, &sched_cfg);
        for alloc in allocations {
            let Some(tx) = self.place_ue_dci(&alloc, slot_in_frame, &mut cce_used) else {
                // PDCCH blocking: revert the optimistic HARQ transition so
                // no NDI toggle or phantom retransmission leaks on air.
                let harq = self
                    .harqs
                    .get_mut(&alloc.rnti)
                    .expect("scheduled UE has HARQ");
                if alloc.is_retx {
                    harq.cancel_retx(alloc.harq_id);
                } else {
                    harq.cancel_new(alloc.harq_id);
                }
                continue;
            };
            dci_budget = dci_budget.saturating_sub(1);
            let acked = self.transmit_dl_block(&alloc, slot, t);
            self.truth.push(TruthRecord {
                slot,
                sfn,
                rnti: alloc.rnti,
                rnti_type: RntiType::C,
                alloc,
                acked,
            });
            out.pdsch
                .push((alloc.rnti, PdschContent::UserData { tbs: alloc.tbs }));
            out.dcis.push(tx);
        }

        // Uplink grants for UEs with uplink demand, in leftover budget.
        if dci_budget > 0 {
            let ul_ues: Vec<Rnti> = self
                .connected
                .iter()
                .filter(|(_, a)| a.ul_buffer > 0)
                .map(|(r, _)| *r)
                .take(dci_budget)
                .collect();
            let mut prb_cursor = 0usize;
            for rnti in ul_ues {
                let att = self.connected.get(&rnti).expect("listed above");
                let snr = att.snr_db_at(t);
                let mcs = nr_phy::mcs::select_mcs(self.cfg.mcs_table, snr, 0.1);
                let entry = self.cfg.mcs_table.entry(mcs).expect("valid MCS");
                let demand = att.ul_buffer;
                let prb_len = ul_span_for(demand, entry, &self.cfg).max(1);
                if prb_cursor + prb_len > self.cfg.carrier_prbs {
                    break;
                }
                let tbs = nr_phy::tbs::transport_block_size(&nr_phy::tbs::TbsParams {
                    n_prb: prb_len,
                    n_symbols: self.cfg.data_symbols(),
                    dmrs_per_prb: self.cfg.dmrs_per_prb,
                    overhead_per_prb: self.cfg.x_overhead,
                    mcs: entry,
                    layers: 1,
                });
                let alloc = Allocation {
                    rnti,
                    format: DciFormat::Ul0_1,
                    prb_start: prb_cursor,
                    prb_len,
                    symbol_start: 0,
                    symbol_len: self.cfg.data_symbols(),
                    mcs,
                    layers: 1,
                    harq_id: (slot % 16) as u8,
                    ndi: (slot / 16 % 2) as u8,
                    rv: 0,
                    is_retx: false,
                    tbs,
                };
                let Some(tx) = self.place_ue_dci(&alloc, slot_in_frame, &mut cce_used) else {
                    continue;
                };
                self.connected
                    .get_mut(&rnti)
                    .expect("listed above")
                    .consume_uplink((tbs / 8) as usize);
                self.truth.push(TruthRecord {
                    slot,
                    sfn,
                    rnti,
                    rnti_type: RntiType::C,
                    alloc,
                    acked: true,
                });
                out.dcis.push(tx);
                prb_cursor += prb_len;
            }
        }

        // Adversarial emissions last: they contend for leftover CCE space
        // and never displace legitimate traffic or enter the truth log.
        self.emit_hostile(out, slot, slot_in_frame, &mut cce_used);
    }

    /// Inject this slot's due hostile emissions (see [`crate::hostile`]).
    fn emit_hostile(
        &mut self,
        out: &mut SlotOutput,
        slot: u64,
        slot_in_frame: usize,
        cce_used: &mut [bool],
    ) {
        let Some((cfg, mut rng)) = self.hostile.take() else {
            return;
        };
        let due = |p: u64| HostileConfig::due(p, slot);

        // Ghost MSG 4: well-formed DCI at a random C-range RNTI plus a
        // valid RRC Setup payload — the full phantom-UE lure.
        if due(cfg.ghost_dci_period) {
            let rnti = self.draw_ghost_rnti(&mut rng);
            let bits = self
                .well_formed_hostile_dci(&mut rng)
                .pack(&self.common_sizing);
            if let Some(tx) = self.place_hostile(rnti, RntiType::Tc, bits, slot_in_frame, cce_used)
            {
                out.pdsch
                    .push((rnti, PdschContent::RrcSetup(self.cfg.rrc_setup().encode())));
                out.dcis.push(tx);
            }
        }

        // Persistent ghost: same RNTI every time, so the sniffer's
        // probation window lapses between sightings and the quarantine
        // ledger sees counted reappearances.
        if due(cfg.persistent_ghost_period) {
            let rnti = Rnti(cfg.persistent_ghost_rnti);
            if !self.connected.contains_key(&rnti) && !self.rach_pending.contains_key(&rnti) {
                let bits = self
                    .well_formed_hostile_dci(&mut rng)
                    .pack(&self.common_sizing);
                if let Some(tx) =
                    self.place_hostile(rnti, RntiType::Tc, bits, slot_in_frame, cce_used)
                {
                    out.pdsch
                        .push((rnti, PdschContent::RrcSetup(self.cfg.rrc_setup().encode())));
                    out.dcis.push(tx);
                }
            }
        }

        // Reserved-bit violation: valid DCI with the vrb-to-prb reserved
        // bit forced high (stage-1 `ReservedBitsSet`).
        if due(cfg.reserved_bits_period) {
            let rnti = self.draw_ghost_rnti(&mut rng);
            let mut bits = self
                .well_formed_hostile_dci(&mut rng)
                .pack(&self.common_sizing);
            let reserved_idx = 1 + self.common_sizing.f_alloc_bits() + 4;
            bits[reserved_idx] = 1;
            if let Some(tx) = self.place_hostile(rnti, RntiType::Tc, bits, slot_in_frame, cce_used)
            {
                out.dcis.push(tx);
            }
        }

        // Malformed fields, rotating: RIV outside the BWP, an
        // unconfigured TDRA row, a reserved-MCS initial transmission.
        if due(cfg.malformed_fields_period) {
            let rnti = self.draw_ghost_rnti(&mut rng);
            let mut dci = self.well_formed_hostile_dci(&mut rng);
            match slot / cfg.malformed_fields_period % 3 {
                0 => {
                    let bits = self.common_sizing.f_alloc_bits();
                    dci.f_alloc = (1u32 << bits) - 1;
                }
                1 => dci.t_alloc = 0xF,
                _ => {
                    dci.mcs = 31;
                    dci.rv = 0;
                }
            }
            let bits = dci.pack(&self.common_sizing);
            if let Some(tx) = self.place_hostile(rnti, RntiType::Tc, bits, slot_in_frame, cce_used)
            {
                out.dcis.push(tx);
            }
        }

        // Broken RRC encodings behind well-formed DCIs, rotating:
        // truncated SIB1, oversized SIB1, oversized RRC Setup.
        if due(cfg.bad_rrc_period) {
            let bits = self
                .well_formed_hostile_dci(&mut rng)
                .pack(&self.common_sizing);
            match slot / cfg.bad_rrc_period % 3 {
                0 => {
                    let mut sib = self.cfg.sib1().encode();
                    sib.truncate(sib.len() / 2);
                    if let Some(tx) =
                        self.place_hostile(Rnti::SI, RntiType::Si, bits, slot_in_frame, cce_used)
                    {
                        out.pdsch.push((Rnti::SI, PdschContent::Sib1(sib)));
                        out.dcis.push(tx);
                    }
                }
                1 => {
                    let mut sib = self.cfg.sib1().encode();
                    sib.extend(std::iter::repeat_n(1, 8));
                    if let Some(tx) =
                        self.place_hostile(Rnti::SI, RntiType::Si, bits, slot_in_frame, cce_used)
                    {
                        out.pdsch.push((Rnti::SI, PdschContent::Sib1(sib)));
                        out.dcis.push(tx);
                    }
                }
                _ => {
                    let rnti = self.draw_ghost_rnti(&mut rng);
                    let mut setup = self.cfg.rrc_setup().encode();
                    setup.extend(std::iter::repeat_n(0, 16));
                    if let Some(tx) =
                        self.place_hostile(rnti, RntiType::Tc, bits, slot_in_frame, cce_used)
                    {
                        out.pdsch.push((rnti, PdschContent::RrcSetup(setup)));
                        out.dcis.push(tx);
                    }
                }
            }
        }

        // Contradictory SIB1: valid encoding, different content, varying
        // between emissions — a flapping signal must never displace the
        // real cell state (the reload rule wants consecutive agreement).
        if due(cfg.sib1_spoof_period) {
            let mut spoof = self.cfg.sib1();
            spoof.cell_id ^= 1 + slot / cfg.sib1_spoof_period % 7;
            spoof.carrier_prbs = spoof.carrier_prbs.saturating_sub(1).max(1);
            let bits = self
                .well_formed_hostile_dci(&mut rng)
                .pack(&self.common_sizing);
            if let Some(tx) =
                self.place_hostile(Rnti::SI, RntiType::Si, bits, slot_in_frame, cce_used)
            {
                out.pdsch
                    .push((Rnti::SI, PdschContent::Sib1(spoof.encode())));
                out.dcis.push(tx);
            }
        }

        self.hostile = Some((cfg, rng));
    }

    /// A random C-range RNTI not currently attached or mid-RACH — ghosts
    /// must never alias a real UE, or the adversarial accounting check
    /// would blame the sniffer for the simulator's own collision.
    fn draw_ghost_rnti(&self, rng: &mut StdRng) -> Rnti {
        loop {
            let r = Rnti(rng.gen_range(0x8000u16..Rnti::C_RNTI_LAST + 1));
            if !self.connected.contains_key(&r) && !self.rach_pending.contains_key(&r) {
                return r;
            }
        }
    }

    /// A field-plausible downlink DCI at the common sizing: every stage-1
    /// check passes, so only stage-2 admission can stop it.
    fn well_formed_hostile_dci(&self, rng: &mut StdRng) -> Dci {
        let bwp = self.common_sizing.bwp_prbs;
        let prb_len = 1 + rng.gen_range(0usize..bwp);
        let prb_start = rng.gen_range(0usize..bwp - prb_len + 1);
        Dci {
            format: DciFormat::Dl1_1,
            f_alloc: riv_encode(prb_start, prb_len, bwp),
            t_alloc: rng.gen_range(0u8..12),
            mcs: rng.gen_range(0u8..28),
            ndi: rng.gen_range(0u8..2),
            rv: 0,
            harq_id: rng.gen_range(0u8..16),
            dai: 0,
            tpc: 1,
            harq_feedback: 2,
            ports: 2,
            srs_request: 0,
            dmrs_id: 0,
        }
    }

    /// Place a pre-packed hostile payload on a free common-search-space
    /// candidate. The carried `alloc` is a nominal one-PRB grant — truth
    /// accounting never sees it, and the observer only consumes the
    /// payload bits and CCE placement.
    fn place_hostile(
        &mut self,
        rnti: Rnti,
        rnti_type: RntiType,
        payload_bits: Vec<u8>,
        _slot_in_frame: usize,
        cce_used: &mut [bool],
    ) -> Option<TxDci> {
        let cce_start = self.free_candidate(0, cce_used)?;
        let level = self.cfg.aggregation_level;
        cce_used[cce_start..cce_start + level.cces()].fill(true);
        let alloc = Allocation {
            rnti,
            format: DciFormat::Dl1_1,
            prb_start: 0,
            prb_len: 1,
            symbol_start: 2,
            symbol_len: self.cfg.data_symbols(),
            mcs: 0,
            layers: 1,
            harq_id: 0,
            ndi: 0,
            rv: 0,
            is_retx: false,
            tbs: 0,
        };
        Some(TxDci {
            rnti,
            rnti_type,
            payload_bits,
            alloc,
            cce_start,
            level,
        })
    }

    /// Transmit one downlink data block: dequeue bytes on first TX, draw
    /// the UE's decode outcome from the link-abstraction BLER, apply HARQ
    /// feedback, and record the delivery on ACK. Returns `acked`.
    fn transmit_dl_block(&mut self, alloc: &Allocation, slot: u64, t: f64) -> bool {
        let key = (alloc.rnti, alloc.harq_id);
        let slot_s = self.cfg.slot_s();
        let att = self.connected.get_mut(&alloc.rnti).expect("connected");
        if !alloc.is_retx {
            let (bytes, packets) = att.dequeue_for_tx(alloc.payload_bytes());
            self.in_flight.insert(
                key,
                InFlight {
                    bytes,
                    packets,
                    retransmitted: false,
                },
            );
        } else if let Some(f) = self.in_flight.get_mut(&key) {
            f.retransmitted = true;
        }
        // Decode probability from the UE's instantaneous SNR. Each
        // retransmission adds combining gain (~+3 dB of effective SNR).
        let entry = self.cfg.mcs_table.entry(alloc.mcs).expect("valid MCS");
        let harq = self
            .harqs
            .get_mut(&alloc.rnti)
            .expect("connected UE has HARQ");
        let combining_gain = 3.0 * harq.retx_count(alloc.harq_id) as f64;
        let p_err = bler(entry, att.snr_db_at(t) + combining_gain);
        let ack = self.rng.gen::<f64>() >= p_err;
        let completed = harq.feedback(alloc.harq_id, ack);
        if completed {
            if let Some(f) = self.in_flight.remove(&key) {
                if ack {
                    att.record_delivery(slot, f.bytes, f.packets, f.retransmitted, slot_s);
                }
                // On drop (max retx), bytes are simply lost (RLC would
                // recover them; out of scope).
            }
        }
        ack
    }

    /// Pack a broadcast-ish DCI and place it on a common-search-space
    /// candidate. Returns `None` if every candidate is blocked.
    #[allow(clippy::too_many_arguments)]
    fn place_dci(
        &mut self,
        rnti: Rnti,
        rnti_type: RntiType,
        format: DciFormat,
        prb_start: usize,
        prb_len: usize,
        mcs: u8,
        harq_id: u8,
        slot_in_frame: usize,
        cce_used: &mut [bool],
    ) -> Option<TxDci> {
        let tbs = nr_phy::tbs::transport_block_size(&nr_phy::tbs::TbsParams {
            n_prb: prb_len,
            n_symbols: self.cfg.data_symbols(),
            dmrs_per_prb: self.cfg.dmrs_per_prb,
            overhead_per_prb: self.cfg.x_overhead,
            mcs: self.cfg.mcs_table.entry(mcs)?,
            layers: 1,
        });
        let alloc = Allocation {
            rnti,
            format,
            prb_start,
            prb_len,
            symbol_start: 2,
            symbol_len: self.cfg.data_symbols(),
            mcs,
            layers: 1,
            harq_id,
            ndi: 0,
            rv: 0,
            is_retx: false,
            tbs,
        };
        self.place_with_y(&alloc, rnti_type, 0, slot_in_frame, cce_used)
    }

    /// Pack a scheduled allocation's DCI and place it on the UE's search
    /// space.
    fn place_ue_dci(
        &mut self,
        alloc: &Allocation,
        slot_in_frame: usize,
        cce_used: &mut [bool],
    ) -> Option<TxDci> {
        let y = ue_search_space_y(alloc.rnti, 0, slot_in_frame);
        self.place_with_y(alloc, RntiType::C, y, slot_in_frame, cce_used)
    }

    fn place_with_y(
        &mut self,
        alloc: &Allocation,
        rnti_type: RntiType,
        y: u32,
        _slot_in_frame: usize,
        cce_used: &mut [bool],
    ) -> Option<TxDci> {
        let sizing = if rnti_type == RntiType::C {
            self.sizing
        } else {
            self.common_sizing
        };
        let bwp_prbs = sizing.bwp_prbs;
        let level = self.cfg.aggregation_level;
        let cce_start = self.free_candidate(y, cce_used)?;
        cce_used[cce_start..cce_start + level.cces()].fill(true);
        let t_alloc_row = 0u8; // rows 2..14 per TIME_ALLOC_TABLE[0]
        debug_assert!(alloc.prb_start + alloc.prb_len <= bwp_prbs);
        let dci = Dci {
            format: alloc.format,
            f_alloc: riv_encode(alloc.prb_start, alloc.prb_len, bwp_prbs),
            t_alloc: t_alloc_row,
            mcs: alloc.mcs,
            ndi: alloc.ndi,
            rv: alloc.rv,
            harq_id: alloc.harq_id,
            dai: 0,
            tpc: 1,
            harq_feedback: 2,
            ports: if alloc.layers > 1 { 7 } else { 2 },
            srs_request: 0,
            dmrs_id: 0,
        };
        Some(TxDci {
            rnti: alloc.rnti,
            rnti_type,
            payload_bits: dci.pack(&sizing),
            alloc: *alloc,
            cce_start,
            level,
        })
    }

    /// First unblocked candidate of search space `y` at the cell's
    /// aggregation level, or `None` if every candidate is occupied.
    fn free_candidate(&self, y: u32, cce_used: &[bool]) -> Option<usize> {
        let level = self.cfg.aggregation_level;
        let n_cces = self.cfg.coreset.n_cces();
        let n_cand = self.cfg.candidates_per_level as usize;
        (0..n_cand).find_map(|m| {
            let start = candidate_cce(y, level, m, n_cand, n_cces)?;
            let span = start..start + level.cces();
            if span.end <= n_cces && !cce_used[span.clone()].iter().any(|&u| u) {
                Some(start)
            } else {
                None
            }
        })
    }

    /// The next PRACH occasion strictly after `slot` (retries re-enter the
    /// RACH there, like a real UE backing off to the next occasion).
    fn next_prach_occasion(&self, slot: u64) -> u64 {
        let period = self.cfg.rach.prach_period_slots as u64;
        let offset = self.cfg.rach.prach_slot_offset as u64;
        let base = slot + 1;
        base + (period + offset - base % period) % period
    }
}

/// Smallest UL PRB span whose single-layer TBS covers `bytes`.
fn ul_span_for(bytes: usize, entry: McsEntry, cfg: &CellConfig) -> usize {
    let bits = (bytes * 8) as u32;
    for n_prb in 1..=cfg.carrier_prbs {
        let tbs = nr_phy::tbs::transport_block_size(&nr_phy::tbs::TbsParams {
            n_prb,
            n_symbols: cfg.data_symbols(),
            dmrs_per_prb: cfg.dmrs_per_prb,
            overhead_per_prb: cfg.x_overhead,
            mcs: entry,
            layers: 1,
        });
        if tbs >= bits {
            return n_prb;
        }
    }
    cfg.carrier_prbs
}

#[cfg(test)]
mod tests {
    use super::*;
    use nr_mac::RoundRobin;
    use nr_phy::channel::ChannelProfile;
    use ue_sim::traffic::{TrafficKind, TrafficSource};
    use ue_sim::MobilityScenario;

    fn test_ue(id: u64) -> SimUe {
        SimUe::new(
            id,
            ChannelProfile::Awgn,
            MobilityScenario::Static,
            TrafficSource::new(
                TrafficKind::Cbr {
                    rate_bps: 2e6,
                    packet_bytes: 1200,
                },
                id,
            ),
            0.0,
            30.0,
            id,
        )
    }

    fn gnb() -> Gnb {
        Gnb::new(CellConfig::srsran_n41(), Box::new(RoundRobin::new()), 42)
    }

    #[test]
    fn ssb_and_sib1_appear_periodically() {
        let mut g = gnb();
        let mut mibs = 0;
        let mut sibs = 0;
        for _ in 0..(20 * 40) {
            let out = g.step();
            if out.mib.is_some() {
                mibs += 1;
            }
            if out
                .pdsch
                .iter()
                .any(|(_, c)| matches!(c, PdschContent::Sib1(_)))
            {
                sibs += 1;
            }
        }
        // 40 frames: SSB every 2 frames → 20; SIB1 every 16 frames → 3.
        assert_eq!(mibs, 20);
        assert_eq!(sibs, 3);
    }

    #[test]
    fn restart_requeues_ues_through_rach_under_new_pci() {
        let mut g = gnb();
        g.ue_arrives(test_ue(1));
        g.ue_arrives(test_ue(2));
        for _ in 0..200 {
            g.step();
        }
        assert_eq!(g.connected_rntis().len(), 2, "both attached before restart");
        let old_rntis = g.connected_rntis();
        g.restart(Pci(7));
        assert_eq!(g.cfg.pci, Pci(7));
        assert!(g.connected_rntis().is_empty(), "restart detaches everyone");
        for _ in 0..400 {
            g.step();
        }
        let new_rntis = g.connected_rntis();
        assert_eq!(new_rntis.len(), 2, "UEs re-attach after restart");
        // Fresh allocator: new RNTIs restart from the base, proving the
        // RACH procedure actually re-ran rather than state surviving.
        assert_eq!(new_rntis, old_rntis, "allocator reset reissues from base");
    }

    #[test]
    fn reconfigure_changes_the_broadcast_sib1() {
        let mut g = gnb();
        let before = g.cfg.sib1();
        g.reconfigure(|c| c.sib1_period_frames = 8);
        let after = g.cfg.sib1();
        assert_ne!(before, after, "SIB1 content changed");
        // The next broadcast carries the new content.
        let mut seen = None;
        for _ in 0..(20 * 40) {
            let out = g.step();
            if let Some((_, PdschContent::Sib1(bits))) = out
                .pdsch
                .iter()
                .find(|(_, c)| matches!(c, PdschContent::Sib1(_)))
            {
                seen = Some(nr_rrc::Sib1::decode(bits).unwrap());
                break;
            }
        }
        assert_eq!(seen.expect("SIB1 broadcast"), after);
    }

    #[test]
    fn rach_connects_a_ue_and_promotes_tc_rnti() {
        let mut g = gnb();
        g.ue_arrives(test_ue(1));
        let mut saw_msg2 = false;
        let mut saw_msg4 = false;
        for _ in 0..60 {
            let out = g.step();
            for (_, c) in &out.pdsch {
                match c {
                    PdschContent::Rar { .. } => saw_msg2 = true,
                    PdschContent::RrcSetup(bits) => {
                        saw_msg4 = true;
                        // RRC Setup decodes with the cell's configuration.
                        let setup = nr_rrc::RrcSetup::decode(bits).unwrap();
                        assert_eq!(setup, g.cfg.rrc_setup());
                    }
                    _ => {}
                }
            }
        }
        assert!(saw_msg2 && saw_msg4);
        assert_eq!(g.connected_rntis().len(), 1);
    }

    #[test]
    fn connected_ue_gets_dl_data_dcis() {
        let mut g = gnb();
        g.ue_arrives(test_ue(1));
        let mut data_dcis = 0;
        for _ in 0..2000 {
            let out = g.step();
            data_dcis += out
                .dcis
                .iter()
                .filter(|d| d.rnti_type == RntiType::C && d.alloc.format == DciFormat::Dl1_1)
                .count();
        }
        assert!(data_dcis > 100, "got {data_dcis} data DCIs in 1 s");
    }

    #[test]
    fn ul_grants_issued_for_uplink_demand() {
        let mut g = gnb();
        g.ue_arrives(test_ue(1));
        let mut ul = 0;
        for _ in 0..2000 {
            let out = g.step();
            ul += out
                .dcis
                .iter()
                .filter(|d| d.alloc.format == DciFormat::Ul0_1)
                .count();
        }
        assert!(ul > 10, "got {ul} UL DCIs");
    }

    #[test]
    fn delivered_bytes_track_offered_load() {
        let mut g = gnb();
        g.ue_arrives(test_ue(1));
        for _ in 0..4000 {
            g.step();
        }
        let rnti = g.connected_rntis()[0];
        let ue = g.ue(rnti).unwrap();
        let delivered = ue.delivered_bytes_in(0..4000);
        // 2 s at 2 Mbit/s ≈ 500 kB offered; connection setup eats a little.
        assert!(
            (300_000..=550_000).contains(&delivered),
            "delivered {delivered}"
        );
    }

    #[test]
    fn truth_log_matches_emitted_dcis() {
        let mut g = gnb();
        g.ue_arrives(test_ue(1));
        let mut emitted = 0usize;
        for _ in 0..1000 {
            let out = g.step();
            emitted += out.dcis.len();
        }
        assert_eq!(g.truth().records().len(), emitted);
    }

    #[test]
    fn hostile_emissions_stay_out_of_the_truth_log() {
        let mut g = gnb();
        g.arm_hostile(HostileConfig::default());
        g.ue_arrives(test_ue(1));
        let mut legit = 0usize;
        let mut hostile = 0usize;
        for _ in 0..2000 {
            let out = g.step();
            for tx in &out.dcis {
                let in_truth = g
                    .truth()
                    .records()
                    .iter()
                    .any(|r| r.slot == out.slot && r.rnti == tx.rnti && r.alloc == tx.alloc);
                if in_truth {
                    legit += 1;
                } else {
                    hostile += 1;
                }
            }
        }
        assert_eq!(
            g.truth().records().len(),
            legit,
            "every truth record matches a legitimate on-air DCI"
        );
        assert!(hostile > 100, "hostile profile actually emits");
    }

    #[test]
    fn arming_hostility_does_not_perturb_legitimate_emissions() {
        let run = |hostile: bool| {
            let mut g = gnb();
            if hostile {
                g.arm_hostile(HostileConfig::default());
            }
            g.ue_arrives(test_ue(1));
            g.ue_arrives(test_ue(2));
            for _ in 0..2000 {
                g.step();
            }
            g.truth().records().to_vec()
        };
        assert_eq!(
            run(false),
            run(true),
            "ground-truth stream is bit-identical with the hostile profile armed"
        );
    }

    #[test]
    fn no_dcis_in_pure_uplink_slots() {
        let mut g = gnb();
        g.ue_arrives(test_ue(1));
        for _ in 0..2000 {
            let out = g.step();
            if out.direction == Some(SlotDirection::Uplink) {
                assert!(out.dcis.is_empty());
                assert!(out.mib.is_none());
            }
        }
    }

    #[test]
    fn cce_placements_never_collide() {
        let mut g = gnb();
        for i in 0..8 {
            g.ue_arrives(test_ue(i));
        }
        for _ in 0..2000 {
            let out = g.step();
            let mut used = vec![false; g.cfg.coreset.n_cces()];
            for d in &out.dcis {
                for (c, u) in used
                    .iter_mut()
                    .enumerate()
                    .skip(d.cce_start)
                    .take(d.level.cces())
                {
                    assert!(!*u, "CCE {c} double-booked in slot {}", out.slot);
                    *u = true;
                }
            }
        }
    }

    #[test]
    fn departure_releases_state() {
        let mut g = gnb();
        g.ue_arrives(test_ue(5));
        for _ in 0..100 {
            g.step();
        }
        assert_eq!(g.connected_rntis().len(), 1);
        let ue = g.ue_departs(5).expect("was connected");
        assert!(!ue.deliveries.is_empty() || ue.dl_buffer > 0);
        assert!(g.connected_rntis().is_empty());
    }

    #[test]
    fn retransmissions_happen_on_bad_channels() {
        let mut g = Gnb::new(CellConfig::srsran_n41(), Box::new(RoundRobin::new()), 7);
        let ue = SimUe::new(
            9,
            ChannelProfile::Urban,
            MobilityScenario::Static,
            TrafficSource::new(
                TrafficKind::FileDownload {
                    total_bytes: usize::MAX / 2,
                },
                9,
            ),
            -4.0,
            60.0,
            9,
        );
        g.ue_arrives(ue);
        for _ in 0..4000 {
            g.step();
        }
        let retx = g
            .truth()
            .records()
            .iter()
            .filter(|r| r.alloc.is_retx)
            .count();
        assert!(
            retx > 5,
            "urban channel should cause retransmissions: {retx}"
        );
    }
}
