//! The top-level NR-Scope session: cell search → SIB acquisition →
//! per-TTI telemetry (paper Fig 2 and Fig 3).

use crate::clock::{ClockLock, ClockObservable, ClockRecovery};
use crate::config::ScopeConfig;
use crate::decoder::{
    coreset_symbols, decode_message_slot_budgeted, scan, DecodeWork, DecodedDci, DecoderContext,
    FrontEnd, Hypotheses, UeHypothesis,
};
use crate::governor::{LoadModel, LoadRung, OverloadGovernor, SlotVerdict};
use crate::metrics::{Counter, Gauge, Metrics, MetricsSnapshot, Stage};
use crate::observe::{Capture, ObservedSlot, PdschPayload};
use crate::persist::{JournalEntry, MicroState, SessionState, SlotOp};
use crate::spare::{slot_data_res, spare_capacity_excluding, SpareShare, UeUsage};
use crate::telemetry::TelemetryRecord;
use crate::throughput::ThroughputEstimator;
use crate::tracker::{Admission, UeTracker};
use crate::worker::{JobPriority, SlotJob};
use nr_phy::dci::{riv_decode, time_alloc, DciFormat, DciSizing};
use nr_phy::grid::ResourceGrid;
use nr_phy::mcs::McsTable;
use nr_phy::numerology::SYMBOLS_PER_SLOT;
use nr_phy::pdcch::{Coreset, SearchBudget};
use nr_phy::sync::{detect_pss, detect_sss, SYNC_SEQ_LEN};
use nr_phy::tbs::{transport_block_size, TbsParams};
use nr_phy::types::{Pci, Rnti, RntiType};
use nr_rrc::{Mib, RrcSetup, Sib1};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the sniffer has learned about the cell so far.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CellKnowledge {
    /// Detected physical cell identity (IQ mode: from PSS/SSS).
    pub pci: Option<Pci>,
    /// Decoded MIB.
    pub mib: Option<Mib>,
    /// Decoded SIB1.
    pub sib1: Option<Sib1>,
    /// Slot (sniffer-local counter) at which the last MIB was seen —
    /// anchors the frame timing.
    pub frame_anchor_slot: Option<u64>,
    /// SFN carried by that MIB.
    pub anchor_sfn: u32,
}

/// Synchronisation health of the session (self-healing state machine).
///
/// `Synced` is the normal state. Consecutive unhealthy slots (nothing
/// decoded while UEs are expected, or slots dropped by the front end)
/// degrade it to `Degraded`, then `Lost` — at which point the cell
/// identity is discarded — and `Reacquiring`, where cell search re-runs
/// (PSS/SSS at IQ fidelity, an SI-RNTI PCI scan at message fidelity).
/// Any successful DCI decode snaps the session back to `Synced`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SyncState {
    /// Decoding normally.
    #[default]
    Synced,
    /// Suspiciously quiet: decode failures or drops are accumulating.
    Degraded,
    /// Sync declared lost; the PCI is no longer trusted.
    Lost,
    /// Re-running cell search to find the (possibly new) cell.
    Reacquiring,
}

impl SyncState {
    /// Stable snake_case name (the fleet rollup's `sync` column).
    pub fn name(self) -> &'static str {
        match self {
            SyncState::Synced => "synced",
            SyncState::Degraded => "degraded",
            SyncState::Lost => "lost",
            SyncState::Reacquiring => "reacquiring",
        }
    }
}

/// Counters the micro-benchmarks read.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ScopeStats {
    /// Slots processed.
    pub slots: u64,
    /// DCIs decoded, by class.
    pub si_dcis: u64,
    /// RA-RNTI DCIs decoded.
    pub ra_dcis: u64,
    /// MSG 4 (TC-RNTI) DCIs decoded.
    pub tc_dcis: u64,
    /// Downlink C-RNTI DCIs decoded.
    pub dl_dcis: u64,
    /// Uplink C-RNTI DCIs decoded.
    pub ul_dcis: u64,
    /// Retransmissions flagged.
    pub retransmissions: u64,
    /// RRC Setups fully decoded (vs skipped via cache).
    pub rrc_decoded: u64,
    /// RRC Setup decodes skipped thanks to the cache (§3.1.2).
    pub rrc_skipped: u64,
    /// Slots the front end dropped (overflow or processing stall).
    pub dropped_slots: u64,
    /// Slots whose sample layout matched no known carrier configuration.
    pub layout_mismatch_slots: u64,
    /// Transitions back to [`SyncState::Synced`] after degradation.
    pub resyncs: u64,
    /// SIB1 re-reads that carried changed content (cell reconfiguration).
    pub sib1_reloads: u64,
    /// UEs re-tracked after expiry or sync loss (not new discoveries).
    pub recovered_ues: u64,
    /// Slots whose pipeline latency exceeded the TTI deadline budget.
    pub deadline_misses: u64,
    /// Overload-ladder demotions (one rung down).
    pub rung_demotions: u64,
    /// Overload-ladder promotions (one rung back up).
    pub rung_promotions: u64,
    /// PDCCH candidates the search budget refused a UE-specific pass.
    pub pruned_candidates: u64,
    /// Slots processed at each rung, indexed by [`LoadRung`] (Full,
    /// PrunedSearch, BroadcastOnly).
    pub slots_at_rung: [u64; 3],
    /// Decode attempts abandoned on malformed state or content — counted
    /// here instead of panicking.
    pub decode_failures: u64,
    /// Broadcast payloads (SIB1 / RRC Setup) the bounded parsers rejected.
    pub parse_rejects: u64,
    /// CRC-passing DCIs rejected by stage-1 field-consistency validation.
    pub validation_rejects: u64,
    /// Candidate C-RNTIs moved to the quarantine ledger (stage-2
    /// admission control: never corroborated inside the window).
    pub ghosts_quarantined: u64,
    /// Integer sample slips commanded by the timing-recovery loop.
    pub timing_slips: u64,
    /// Times the timing-recovery loop fell out of `Locked`.
    pub clock_lock_losses: u64,
    /// Clock step discontinuities absorbed (oscillator steps and
    /// USRP-overrun gap feed-forwards).
    pub clock_steps: u64,
}

/// The passive telemetry engine.
pub struct NrScope {
    cfg: ScopeConfig,
    /// Cell knowledge accumulated from broadcasts.
    pub cell: CellKnowledge,
    tracker: UeTracker,
    throughput: ThroughputEstimator,
    /// Sniffer-local slot counter (one per processed observation).
    slot: u64,
    /// All telemetry records (the Fig 4 log file).
    records: Vec<TelemetryRecord>,
    /// Per-slot spare-capacity results (Fig 14).
    spare_log: Vec<(u64, Vec<SpareShare>)>,
    /// Counters.
    pub stats: ScopeStats,
    /// The IQ path's per-session state: OFDM layout (sized from the first
    /// slot's sample count), grid, decoder tables.
    front: FrontEnd,
    /// PCI provided out-of-band for message fidelity (cell-search product).
    assumed_pci: Option<Pci>,
    /// Sync-health state machine.
    sync: SyncState,
    /// Consecutive unhealthy slots feeding the state machine.
    unhealthy_streak: u64,
    /// The PCI believed in before sync was lost — tried first when
    /// re-acquiring, since most losses are outages, not cell restarts.
    last_pci: Option<Pci>,
    /// Pipeline metrics registry, shared with the observer / worker pool.
    metrics: Arc<Metrics>,
    /// Overload governor: slot-deadline tracking and the degradation
    /// ladder (Full → PrunedSearch → BroadcastOnly).
    governor: OverloadGovernor,
    /// Deterministic per-slot cost model. When set, the governor is fed
    /// modelled latency derived from offered decode work instead of wall
    /// clock — seed-reproducible overload dynamics for tests and benches.
    load_model: Option<LoadModel>,
    /// Whether state mutations are being captured for the crash journal.
    journaling: bool,
    /// State-mutating operations of the slot in flight, in order.
    slot_ops: Vec<SlotOp>,
    /// Whether the most recent capture was a front-end drop marker.
    last_dropped: bool,
    /// A changed SIB1 awaiting a second identical sighting before it
    /// replaces cell state (contradictory-reload defense): the candidate
    /// and how many consecutive times it has been seen.
    pending_sib1: Option<(Sib1, u32)>,
    /// UE lifecycle edges since the last [`NrScope::drain_ue_events`],
    /// bounded (oldest dropped) — the fleet layer's continuity feed.
    ue_events: std::collections::VecDeque<UeEvent>,
    /// Closed-loop timing recovery (the clock DPLL). Created lazily on
    /// the first clock observable — a front end with no oscillator model
    /// never instantiates it, and sync health behaves exactly as before.
    clock: Option<ClockRecovery>,
}

/// Sliding window for bit-rate estimation, in slots (the paper keeps a
/// sliding window per UE, §3.2.2; 1 s at µ=1).
const RATE_WINDOW_SLOTS: u64 = 2000;

/// DCI threads a [`SlotJob`] asks its worker for (the paper evaluates with
/// four; Fig 4).
const DCI_THREADS: usize = 4;

/// Upper bound (exclusive) of the PCI range scanned while re-acquiring at
/// message fidelity (IQ fidelity re-detects from PSS/SSS instead).
const PCI_SCAN_MAX: u16 = 128;

/// Cap on buffered [`UeEvent`]s when nobody drains them (a single-cell
/// session has no fleet layer): bounded memory beats a silent leak.
const UE_EVENTS_MAX: usize = 4096;

/// A UE lifecycle edge observed by the tracker, consumed by the fleet
/// layer's cross-cell continuity matcher. Events fire only on *new*
/// admissions (stage-2 probation passed or RACH-corroborated MSG 4) and
/// on genuine idle expiries — recoveries, restores, and journal replay do
/// not emit, so a crash-restarted shard never refabricates discoveries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UeEvent {
    /// A C-RNTI newly admitted to tracking at `slot`.
    Discovered {
        /// The admitted C-RNTI.
        rnti: Rnti,
        /// Slot of admission.
        slot: u64,
    },
    /// A tracked C-RNTI aged out of tracking at `slot`.
    Expired {
        /// The expired C-RNTI.
        rnti: Rnti,
        /// Slot of the expiry sweep.
        slot: u64,
        /// Slot the UE was last seen active — the handover anchor: a UE
        /// leaving for another cell goes quiet here, not at `slot`.
        last_active_slot: u64,
    },
}

impl NrScope {
    /// New session. `assumed_pci` seeds message-fidelity runs (at IQ
    /// fidelity the PCI is detected from the SSB and this can be `None`).
    pub fn new(cfg: ScopeConfig, assumed_pci: Option<Pci>) -> NrScope {
        let metrics = Metrics::shared(cfg.metrics_enabled);
        NrScope::with_metrics(cfg, assumed_pci, metrics)
    }

    /// New session recording into an externally owned metrics registry
    /// (so the observer, radio, and worker pool can share it).
    pub fn with_metrics(
        cfg: ScopeConfig,
        assumed_pci: Option<Pci>,
        metrics: Arc<Metrics>,
    ) -> NrScope {
        NrScope {
            cfg,
            cell: CellKnowledge::default(),
            tracker: UeTracker::new(),
            throughput: ThroughputEstimator::new(),
            slot: 0,
            records: Vec::new(),
            spare_log: Vec::new(),
            stats: ScopeStats::default(),
            front: FrontEnd::default(),
            assumed_pci,
            sync: SyncState::default(),
            unhealthy_streak: 0,
            last_pci: None,
            metrics,
            governor: OverloadGovernor::new(cfg.governor),
            load_model: None,
            journaling: false,
            slot_ops: Vec::new(),
            last_dropped: false,
            pending_sib1: None,
            ue_events: std::collections::VecDeque::new(),
            clock: None,
        }
    }

    /// Record a UE lifecycle edge, dropping the oldest when undrained.
    fn push_ue_event(&mut self, ev: UeEvent) {
        if self.ue_events.len() >= UE_EVENTS_MAX {
            self.ue_events.pop_front();
        }
        self.ue_events.push_back(ev);
    }

    /// Drain the UE lifecycle edges accumulated since the last call.
    pub fn drain_ue_events(&mut self) -> Vec<UeEvent> {
        self.ue_events.drain(..).collect()
    }

    /// Rebuild a session from a frozen [`SessionState`] (crash recovery).
    ///
    /// The operator's *current* config wins over the one active when the
    /// snapshot was taken (budgets and thresholds may have been retuned
    /// across the restart); earned runtime state — rung, EWMA, tracker,
    /// windows, counters — comes from the snapshot. Tracked UEs'
    /// `last_active_slot` is rebased to the restored watermark so downtime
    /// never counts as idle time.
    pub fn from_state(cfg: ScopeConfig, state: &SessionState) -> NrScope {
        let metrics = Metrics::shared(cfg.metrics_enabled);
        metrics.restore_counters(&state.metrics);
        let mut scope = NrScope::with_metrics(cfg, state.assumed_pci, metrics);
        scope.tracker.set_ues(&state.ues, state.slot);
        scope.throughput = ThroughputEstimator::from_state(&state.throughput);
        scope.slot = state.slot;
        scope.restore_micro(&state.micro);
        scope
    }

    /// Freeze everything a warm restart needs into a serialisable image.
    /// `slot` doubles as the replay watermark: journal entries with
    /// `seq < slot` are already folded into this state.
    pub fn session_state(&self) -> SessionState {
        SessionState {
            schema_version: crate::SCHEMA_VERSION,
            slot: self.slot,
            assumed_pci: self.assumed_pci,
            micro: self.micro_state(),
            ues: self.tracker.ues_state(),
            throughput: self.throughput.state(),
            metrics: self.metrics.snapshot(),
        }
    }

    /// Overwrite the continuous state from a frozen image — the one place
    /// a snapshot's and a journal batch's [`MicroState`] land. The
    /// governor keeps the operator's current config over the frozen one.
    fn restore_micro(&mut self, micro: &MicroState) {
        self.cell = micro.cell.clone();
        self.sync = micro.sync;
        self.unhealthy_streak = micro.unhealthy_streak;
        self.last_pci = micro.last_pci;
        self.stats = micro.stats;
        self.governor = micro.governor.clone();
        self.governor.set_config(self.cfg.governor);
        self.tracker.set_aux(&micro.tracker_aux);
        self.clock = micro
            .clock
            .map(|st| ClockRecovery::from_state(self.cfg.clock, st));
    }

    /// Begin (or, after a durability re-promotion, resume) capturing
    /// per-slot mutations for the crash journal. The caller must drain
    /// [`NrScope::take_journal_entry`] after every capture, or consecutive
    /// slots' operations merge into one entry; slots processed while
    /// paused were never journalled, so a resuming caller re-anchors with
    /// a checkpoint.
    pub fn start_journaling(&mut self) {
        self.journaling = true;
    }

    /// Stop collecting per-slot mutations (durability demoted to
    /// `NonDurable`: nothing can be written, so accumulating ops would
    /// only grow memory for records that can never drain). Discards any
    /// undrained ops from the current slot.
    pub fn pause_journaling(&mut self) {
        self.journaling = false;
        self.slot_ops.clear();
    }

    /// The next slot to be processed — journal replay's idempotence
    /// watermark (every entry with `seq` below this is already applied).
    pub fn slot_watermark(&self) -> u64 {
        self.slot
    }

    /// Jump the slot counter forward to `to` (no-op if already past it).
    /// Used by the fleet layer when a *volatile* shard cold-restarts into
    /// a live feed: the fresh session adopts the feed position instead of
    /// grinding through thousands of synthetic gap-fill drops. Durable
    /// shards never need this — their watermark comes from recovery.
    pub fn fast_forward(&mut self, to: u64) {
        self.slot = self.slot.max(to);
    }

    /// Drain the just-processed slot's ordered mutations without building
    /// the (comparatively expensive) [`MicroState`] image — the
    /// group-commit fast path, which attaches one [`NrScope::micro_state`]
    /// per sealed batch instead of one per slot. `None` before the first
    /// slot or when journaling is off.
    pub fn take_slot_ops(&mut self) -> Option<(u64, bool, Vec<SlotOp>)> {
        if !self.journaling || self.slot == 0 {
            return None;
        }
        Some((
            self.slot - 1,
            self.last_dropped,
            std::mem::take(&mut self.slot_ops),
        ))
    }

    /// Snapshot the end-of-slot continuous state (sync, governor, stats,
    /// tracker bookkeeping) — what a journal batch's final record carries.
    pub fn micro_state(&self) -> MicroState {
        MicroState {
            cell: self.cell.clone(),
            sync: self.sync,
            unhealthy_streak: self.unhealthy_streak,
            last_pci: self.last_pci,
            stats: self.stats,
            governor: self.governor.clone(),
            tracker_aux: self.tracker.aux_state(),
            clock: self.clock.as_ref().map(|c| c.state()),
        }
    }

    /// Drain the just-processed slot's journal entry: its ordered
    /// mutations plus the end-of-slot continuous state. `None` before the
    /// first slot or when journaling is off.
    pub fn take_journal_entry(&mut self) -> Option<JournalEntry> {
        let (seq, dropped, ops) = self.take_slot_ops()?;
        Some(JournalEntry {
            seq,
            dropped,
            ops,
            micro: Some(self.micro_state()),
        })
    }

    /// Replay one journal entry on top of a restored snapshot. Entries at
    /// or past the watermark apply exactly once (returns `true`); entries
    /// below it are already part of the snapshot and are skipped — the
    /// idempotence that makes `snapshot + journal tail` safe when the two
    /// overlap.
    pub fn apply_journal_entry(&mut self, e: &JournalEntry) -> bool {
        if e.seq < self.slot {
            return false;
        }
        for op in &e.ops {
            match op {
                SlotOp::Track { rnti, rrc } => self.tracker.replay_track(*rnti, e.seq, *rrc),
                SlotOp::Record(r) => {
                    if let Some(ue) = self.tracker.get_mut(r.rnti) {
                        ue.last_active_slot = e.seq;
                        match r.format {
                            DciFormat::Dl1_1 => {
                                ue.harq_dl.observe(r.harq_id, r.ndi);
                            }
                            DciFormat::Ul0_1 => {
                                ue.harq_ul.observe(r.harq_id, r.ndi);
                            }
                        }
                    }
                    if r.counts_for_dl_throughput() {
                        self.throughput
                            .record(r.rnti, e.seq, r.tbs, RATE_WINDOW_SLOTS);
                    }
                    self.records.push(*r);
                }
                SlotOp::Expire { rnti } => {
                    self.tracker.replay_expire(*rnti);
                    self.throughput.forget(*rnti);
                }
            }
        }
        // End-of-slot continuous state is carried verbatim — replay never
        // re-derives sync/governor/stats decisions, so it cannot drift
        // from what the live run concluded. Interior records of a binary
        // batch are ops-only (`micro: None`); the batch's final record
        // re-anchors everything, and torn batches are discarded whole, so
        // replay always ends on a record that carries a MicroState.
        if let Some(micro) = &e.micro {
            self.restore_micro(micro);
        }
        // Mirror the live housekeeping cadence for departed-UE history.
        if e.seq.is_multiple_of(512) {
            self.throughput.prune(e.seq);
        }
        self.slot = e.seq + 1;
        true
    }

    /// The session's metrics registry.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Freeze the current pipeline metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Current synchronisation health.
    pub fn sync_state(&self) -> SyncState {
        self.sync
    }

    /// The air-interface SFN (mod-1024) the session currently derives
    /// from its MIB anchor — the sniffer-local `u64` slot counter never
    /// wraps, but its projection onto the air interface must.
    pub fn derived_sfn(&self) -> u32 {
        self.sfn()
    }

    /// Current timing-recovery lock rung, or `None` when no clock
    /// observables have ever arrived (ideal-clock front end).
    pub fn clock_lock(&self) -> Option<ClockLock> {
        self.clock.as_ref().map(|c| c.lock())
    }

    /// Signed clock-drift estimate (ppb) from the recovery loop's
    /// integral term; 0 with no loop or before acquisition.
    pub fn clock_drift_ppb(&self) -> i64 {
        self.clock
            .as_ref()
            .map(|c| c.drift_ppb(self.slot_s()))
            .unwrap_or(0)
    }

    /// The recovery loop's current total correction command for the
    /// front end: `(timing_us, cfo_hz)`. Zero before any observable.
    pub fn clock_command(&self) -> (f64, f64) {
        self.clock
            .as_ref()
            .map(|c| (c.correction_us(), c.correction_cfo_hz()))
            .unwrap_or((0.0, 0.0))
    }

    /// Whether decode silence is currently attributed to the clock
    /// domain rather than the cell (out of lock, inside the bounded
    /// reacquisition window).
    fn clock_masks_sync(&self) -> bool {
        self.clock.as_ref().is_some_and(|c| c.masks_sync())
    }

    /// Slot duration (s) from the MIB numerology, µ=1 until known.
    fn slot_s(&self) -> f64 {
        self.cell
            .mib
            .as_ref()
            .map(|m| m.scs_common.slot_duration_s())
            .unwrap_or(5e-4)
    }

    /// Front-end sample rate (Hz) the clock loop counts slips in: FFT size
    /// × SCS of the MIB numerology over the SIB1 carrier (CORESET 0 until
    /// SIB1 is in) — 30.72 MHz on a 20 MHz µ=1 cell, 15.36 MHz on a 10 MHz
    /// µ=0 one. Before the MIB, the µ=1 rate.
    fn sample_rate_hz(&self) -> f64 {
        let Some(mib) = &self.cell.mib else {
            return 30.72e6;
        };
        let numer = mib.scs_common;
        let sib1_prbs = self.cell.sib1.as_ref().map(|s| s.carrier_prbs as usize);
        numer.sample_rate_hz(numer.fft_size(sib1_prbs.unwrap_or(mib.coreset0_n_prb as usize)))
    }

    /// Feed one slot of clock evidence into the timing-recovery loop
    /// (creating it on first use) and record the slot's loop events into
    /// stats, metrics, and operator notes. Call once per captured slot,
    /// *before* [`NrScope::process_capture`], so the lock state composes
    /// with this slot's sync-health accounting.
    pub fn note_clock_observable(&mut self, obs: &ClockObservable) {
        let rung = self.governor.rung();
        let slot_s = self.slot_s();
        let sample_rate_hz = self.sample_rate_hz();
        let clock = self
            .clock
            .get_or_insert_with(|| ClockRecovery::new(self.cfg.clock));
        let ev = clock.on_slot(obs, sample_rate_hz);
        let reacquire_slots = clock.state().reacquire_slots;
        let drift_ppb = clock.drift_ppb(slot_s);
        let lock = clock.lock();
        if ev.slipped > 0 {
            self.stats.timing_slips += ev.slipped;
            self.metrics.add(Counter::TimingSlips, ev.slipped);
        }
        if ev.step {
            self.stats.clock_steps += 1;
            self.metrics.inc(Counter::ClockSteps);
            self.metrics.note(
                "clock_step",
                format!(
                    "step/gap absorbed at slot {} (total {})",
                    self.slot, self.stats.clock_steps
                ),
            );
        }
        if ev.lost_lock {
            self.stats.clock_lock_losses += 1;
            self.metrics.inc(Counter::ClockLockLosses);
            self.metrics.note(
                "clock_unlock",
                format!(
                    "lock lost at slot {} (drift {} ppb, losses {})",
                    self.slot, drift_ppb, self.stats.clock_lock_losses
                ),
            );
        }
        if let Some(excursion) = ev.locked {
            // Reacquisition time, overall and under the rung that was in
            // force — overload and clock trouble compound, and the
            // per-rung histograms show where the time went.
            let dur = Duration::from_secs_f64(excursion.max(reacquire_slots) as f64 * slot_s);
            self.metrics.observe(Stage::ClockReacquire, dur);
            self.metrics.observe(clock_reacquire_stage(rung), dur);
        }
        self.metrics
            .gauge_set(Gauge::ClockDriftPpb, drift_ppb.unsigned_abs());
        self.metrics.gauge_set(Gauge::ClockLockState, lock.index());
    }

    /// Convenience for front ends built on [`crate::Observer`]: capture
    /// one slot, feed the loop any clock observable, process the capture,
    /// and push the loop's updated correction command back to the
    /// observer. Equivalent to the manual capture → note → process →
    /// command sequence.
    pub fn process_observer_slot(
        &mut self,
        observer: &mut crate::observe::Observer,
        out: &gnb_sim::gnb::SlotOutput,
        t: f64,
    ) -> Vec<TelemetryRecord> {
        let cap = observer.capture(out, t);
        if let Some(obs) = observer.take_clock_observable() {
            self.note_clock_observable(&obs);
            let (timing_us, cfo_hz) = self.clock_command();
            observer.apply_clock_correction(timing_us, cfo_hz);
        }
        self.process_capture(&cap)
    }

    /// The degradation-ladder rung currently in force.
    pub fn load_rung(&self) -> LoadRung {
        self.governor.rung()
    }

    /// Read-only view of the overload governor.
    pub fn governor(&self) -> &OverloadGovernor {
        &self.governor
    }

    /// Pin the ladder to a rung (benchmarking per-rung throughput), or
    /// `None` to resume adaptive behaviour.
    pub fn force_rung(&mut self, rung: Option<LoadRung>) {
        self.governor.force(rung);
        self.metrics
            .gauge_set(Gauge::LoadRung, self.governor.rung() as u64);
    }

    /// Install (or clear) a deterministic latency model for the governor.
    pub fn set_load_model(&mut self, model: Option<LoadModel>) {
        self.load_model = model;
    }

    /// The PDCCH search budget the current rung imposes.
    pub fn search_budget(&self) -> SearchBudget {
        self.governor.search_budget()
    }

    /// Package an observed slot as a self-contained [`SlotJob`] snapshot
    /// of the session's current decoder state, ready for a
    /// [`crate::WorkerPool`] (the Fig 4 scheduler's "copy of data and
    /// state"). `None` until the MIB is known.
    pub fn slot_job(&self, observed: ObservedSlot) -> Option<SlotJob> {
        let ctx = self.decoder_context()?;
        // Slots that may carry broadcast-critical content — an SSB/MIB, a
        // RACH response window, or a pending MSG 4 — are queued at
        // broadcast priority so the pool never sheds them before plain
        // C-RNTI telemetry work (the never-go-dark invariant).
        let broadcast_critical = matches!(
            &observed,
            ObservedSlot::Message {
                mib_bits: Some(_),
                ..
            }
        ) || !self.expected_ra_rntis().is_empty()
            || !self.tracker.pending_tc_rntis().is_empty();
        Some(SlotJob {
            slot: self.slot,
            slot_in_frame: self.slot_in_frame(),
            observed,
            hyp: self.hypotheses(&ctx.coreset),
            ctx,
            dci_threads: DCI_THREADS,
            fault: None,
            priority: if broadcast_critical {
                JobPriority::Broadcast
            } else {
                JobPriority::Data
            },
            budget: self.governor.search_budget(),
        })
    }

    /// The telemetry log so far.
    pub fn records(&self) -> &[TelemetryRecord] {
        &self.records
    }

    /// The spare-capacity log (slot, per-UE shares).
    pub fn spare_log(&self) -> &[(u64, Vec<SpareShare>)] {
        &self.spare_log
    }

    /// Tracked C-RNTIs.
    pub fn tracked_rntis(&self) -> Vec<Rnti> {
        self.tracker.rntis()
    }

    /// Total UEs ever discovered.
    pub fn total_discovered(&self) -> u64 {
        self.tracker.total_discovered
    }

    /// Quarantined ghost RNTIs (stage-2 admission ledger), sorted.
    pub fn quarantined_rntis(&self) -> Vec<Rnti> {
        self.tracker.quarantined_rntis()
    }

    /// Candidate RNTIs still in probation (awaiting corroboration), sorted.
    pub fn probationary_rntis(&self) -> Vec<Rnti> {
        self.tracker.probation_rntis()
    }

    /// How often a quarantined ghost has reappeared on the air (zero if
    /// the RNTI is not quarantined).
    pub fn quarantine_reappearances(&self, rnti: Rnti) -> u64 {
        self.tracker.quarantine_reappearances(rnti).unwrap_or(0)
    }

    /// Estimated downlink rate for a UE over the configured window.
    pub fn rate_bps(&self, rnti: Rnti, slot_s: f64) -> f64 {
        self.throughput.rate_bps(rnti, RATE_WINDOW_SLOTS, slot_s)
    }

    /// Estimated bits for a UE in a slot window (offline evaluation).
    pub fn estimated_bits(&self, rnti: Rnti, slots: std::ops::Range<u64>) -> u64 {
        self.throughput.bits_in(rnti, slots)
    }

    /// Slot-in-frame as derived from the MIB anchor (0 until synchronised).
    /// `checked_sub`: a restored anchor can sit past the live counter for
    /// a few slots after a lossy restart — underflow here must not panic.
    fn slot_in_frame(&self) -> usize {
        let (Some(anchor), Some(mib)) = (self.cell.frame_anchor_slot, self.cell.mib.as_ref())
        else {
            return 0;
        };
        let spf = mib.scs_common.slots_per_frame() as u64;
        let since = self.slot.saturating_sub(anchor);
        (since % spf) as usize
    }

    /// Current SFN as derived from the anchor. The sniffer-local slot
    /// counter is a non-wrapping `u64`; only the projection onto the air
    /// interface wraps, via [`nr_phy::frame::sfn_add`]'s mod-1024 rule.
    fn sfn(&self) -> u32 {
        let (Some(anchor), Some(mib)) = (self.cell.frame_anchor_slot, self.cell.mib.as_ref())
        else {
            return 0;
        };
        let spf = mib.scs_common.slots_per_frame() as u64;
        let since = self.slot.saturating_sub(anchor);
        nr_phy::frame::sfn_add(self.cell.anchor_sfn, since / spf)
    }

    /// Whether this slot may bear an SSB (see [`ssb_due`]), so the PBCH
    /// symbols are worth transforming and a MIB decode worth attempting.
    fn ssb_due(&self) -> bool {
        #[cfg(test)]
        if tests::ATTEMPT_PBCH_EVERY_SLOT.get() {
            return true;
        }
        let mib = self.cell.mib.as_ref();
        let frame = mib.map(|m| m.scs_common.slots_per_frame() as u64);
        ssb_due(self.cell.frame_anchor_slot.zip(frame), self.slot)
    }

    /// Expected RA-RNTIs for PRACH occasions inside the response window.
    fn expected_ra_rntis(&self) -> Vec<Rnti> {
        let Some(sib1) = &self.cell.sib1 else {
            return Vec::new();
        };
        let rach = &sib1.rach;
        let window = rach.ra_response_window as u64 + 4;
        let mut out = Vec::new();
        let lo = self.slot.saturating_sub(window);
        for s in lo..=self.slot {
            if rach.is_prach_occasion(s) {
                out.push(Rnti::ra_rnti(0, (s % 80) as u32, 0, 0));
            }
        }
        out
    }

    /// Process a front-end capture: a real slot, or a drop marker from the
    /// impairment path (USRP overflow, processing stall). Dropped slots
    /// still advance the slot clock and feed the sync-health machine.
    pub fn process_capture(&mut self, cap: &Capture) -> Vec<TelemetryRecord> {
        match cap {
            Capture::Slot(observed) => self.process(observed),
            Capture::Dropped(_) => {
                self.last_dropped = true;
                self.stats.dropped_slots += 1;
                self.metrics.inc(Counter::SlotsDropped);
                // A dropped slot is the strongest overload signal the
                // front end can emit: charge the governor double budget.
                let rung = self.governor.rung();
                let tti = self
                    .governor
                    .budget(self.cell.mib.as_ref().map(|m| m.scs_common));
                let verdict = self.governor.on_dropped_slot(self.slot, tti);
                self.note_governor(rung, tti * 2, verdict);
                // Drops are front-end reality, not governor-induced (or
                // clock-induced) silence, so they always count against
                // sync health: the clock mask covers *decode* silence
                // while pulling in — a front end that stops delivering
                // slots is an outage regardless of the oscillator, and
                // clock-overrun gaps are rare one-slot events the
                // feed-forward path absorbs without an excursion.
                self.note_unhealthy_slot();
                self.housekeeping(self.slot);
                self.slot += 1;
                Vec::new()
            }
        }
    }

    /// Process one observed slot, appending decoded telemetry. Returns the
    /// records produced in this slot.
    pub fn process(&mut self, observed: &ObservedSlot) -> Vec<TelemetryRecord> {
        // One wall reading serves both the SlotTotal histogram and the
        // governor's latency feed; with the registry disabled and a
        // LoadModel supplying latency, the slot path reads no clock at all.
        let wall_start =
            (self.metrics.is_enabled() || self.load_model.is_none()).then(Instant::now);
        self.last_dropped = false;
        let slot = self.slot;
        // The rung in force while this slot is decoded; transitions taken
        // at the end of the slot apply from the next one.
        let rung = self.governor.rung();
        let budget = self.governor.search_budget();
        self.stats.slots += 1;
        self.stats.slots_at_rung[rung as usize] += 1;
        self.metrics.inc(Counter::SlotsProcessed);
        let produced_from = self.records.len();
        let dcis_before = self.dci_total();
        let mut work = DecodeWork::default();
        match observed {
            ObservedSlot::Message {
                mib_bits,
                dcis,
                pdsch,
            } => {
                if let Some(bits) = mib_bits {
                    if let Ok(mib) = Mib::decode(bits) {
                        self.on_mib(mib, slot);
                    }
                }
                if self.cell.mib.is_some() {
                    if matches!(self.sync, SyncState::Lost | SyncState::Reacquiring) {
                        self.reacquire_message(dcis, pdsch, slot);
                    } else if let Some(ctx) = self.decoder_context() {
                        let hyp = self.hypotheses(&ctx.coreset);
                        let (decoded, w) = decode_message_slot_budgeted(
                            &ctx,
                            dcis,
                            &hyp,
                            budget,
                            Some(&self.metrics),
                        );
                        work.absorb(&w);
                        self.consume(decoded, pdsch, slot);
                    } else {
                        // MIB known but no PCI from any source: nothing is
                        // descramblable. Count it instead of panicking.
                        self.stats.decode_failures += 1;
                        self.metrics.inc(Counter::DecodeFailures);
                    }
                }
            }
            ObservedSlot::Iq { samples, pdsch } => {
                let w = self.process_iq(samples, pdsch, slot, budget);
                work.absorb(&w);
            }
        }
        self.stats.pruned_candidates += work.pruned as u64;
        self.stats.validation_rejects += work.validation_rejects as u64;
        // Feed the governor: modelled latency when a LoadModel is
        // installed (deterministic tests), wall clock otherwise.
        let tti = self
            .governor
            .budget(self.cell.mib.as_ref().map(|m| m.scs_common));
        let latency = match &self.load_model {
            Some(m) => m.latency(&work),
            None => wall_start.map_or(Duration::ZERO, |t| t.elapsed()),
        };
        let verdict = self.governor.on_slot(slot, latency, tti);
        self.note_governor(rung, latency, verdict);
        // Sync health: a slot that decoded at least one DCI is healthy.
        // The MIB deliberately does not count — its payload carries no
        // cell identity, so it keeps decoding right through a PCI change.
        if self.dci_total() > dcis_before {
            self.unhealthy_streak = 0;
            if self.sync != SyncState::Synced {
                self.sync = SyncState::Synced;
                self.stats.resyncs += 1;
                self.metrics.inc(Counter::Resyncs);
            }
        } else if rung != LoadRung::BroadcastOnly && !self.clock_masks_sync() {
            // At BroadcastOnly, UE-pass silence is
            // self-inflicted by the governor — feeding it to the sync
            // machine would declare a healthy cell lost and discard the
            // PCI. Broadcast decodes (SI/RA/TC) still reset the streak
            // above, so genuine cell loss is detected via SIB silence
            // once the ladder recovers. Likewise while the clock loop is
            // out of lock (bounded by `clock.max_reacquire_slots`):
            // drift-induced silence is the loop's to fix, not a cell
            // outage — but a clock that never relocks hands control back
            // to the sync machine once the bound lapses.
            self.note_unhealthy_slot();
        }
        self.housekeeping(slot);
        self.slot += 1;
        if let Some(start) = wall_start {
            self.metrics.observe(Stage::SlotTotal, start.elapsed());
        }
        self.records[produced_from..].to_vec()
    }

    /// Record a slot's governor verdict into stats and metrics.
    fn note_governor(&mut self, rung: LoadRung, latency: Duration, verdict: SlotVerdict) {
        if verdict.missed {
            self.stats.deadline_misses += 1;
            self.metrics.inc(Counter::DeadlineMisses);
        }
        if let Some((from, to)) = verdict.transition {
            if (to as usize) > (from as usize) {
                self.stats.rung_demotions += 1;
            } else {
                self.stats.rung_promotions += 1;
            }
        }
        self.metrics.observe(rung_stage(rung), latency);
        self.metrics
            .gauge_set(Gauge::LoadRung, self.governor.rung() as u64);
    }

    /// Total DCIs decoded so far, all classes.
    fn dci_total(&self) -> u64 {
        self.stats.si_dcis
            + self.stats.ra_dcis
            + self.stats.tc_dcis
            + self.stats.dl_dcis
            + self.stats.ul_dcis
    }

    /// One stage-2 admission step for an unadmitted candidate C-RNTI:
    /// note the corroborating decode, count any probation candidate the
    /// size bound displaced into quarantine, and return the verdict.
    fn admission_check(&mut self, rnti: Rnti, slot: u64) -> Admission {
        let (admission, displaced) = self.tracker.note_candidate(
            rnti,
            slot,
            self.cfg.admission.k,
            self.cfg.admission.window_slots,
            self.cfg.admission.quarantine_max,
        );
        if displaced.is_some() {
            self.stats.ghosts_quarantined += 1;
            self.metrics.inc(Counter::GhostRntisQuarantined);
        }
        admission
    }

    /// Housekeeping: expire idle UEs, stale RACH state, and (periodically)
    /// aged-out throughput history of departed UEs.
    fn housekeeping(&mut self, slot: u64) {
        let _t = self.metrics.start(Stage::Tracking);
        let ra_window = self
            .cell
            .sib1
            .as_ref()
            .map(|s| s.rach.ra_response_window as u64 + 8)
            .unwrap_or(32);
        // While the governor blinds the UE-specific pass, per-UE idleness
        // is unobservable — freezing expiry keeps C-RNTI knowledge intact
        // through an overload episode instead of discarding it for lack
        // of DCIs the sniffer chose not to decode.
        let ue_blind = self.governor.rung() == LoadRung::BroadcastOnly;
        if !ue_blind {
            for (dead, last_active) in
                self.tracker
                    .expire(slot, self.cfg.ue_expiry_slots, ra_window)
            {
                if self.journaling {
                    self.slot_ops.push(SlotOp::Expire { rnti: dead });
                }
                self.throughput.forget(dead);
                self.push_ue_event(UeEvent::Expired {
                    rnti: dead,
                    slot,
                    last_active_slot: last_active,
                });
            }
            // Probation candidates whose corroboration window lapsed are
            // ghosts: quarantine them. Frozen while the governor blinds
            // the UE pass — a real UE cannot corroborate itself through
            // decodes the sniffer chose not to attempt.
            for _ghost in self.tracker.expire_probation(
                slot,
                self.cfg.admission.window_slots,
                self.cfg.admission.quarantine_max,
            ) {
                self.stats.ghosts_quarantined += 1;
                self.metrics.inc(Counter::GhostRntisQuarantined);
            }
        }
        // Amortised release of departed-UE history (see ThroughputEstimator
        // docs: `record` prunes live UEs; only departures need this).
        if slot.is_multiple_of(512) {
            self.throughput.prune(slot);
        }
        self.metrics
            .gauge_set(Gauge::TrackedUes, self.tracker.rntis().len() as u64);
        self.metrics
            .gauge_set(Gauge::QuarantineSize, self.tracker.quarantine_len() as u64);
    }

    /// Feed one unhealthy slot (nothing decoded, or dropped outright) into
    /// the state machine. Silence is only unhealthy when traffic is
    /// expected: UEs tracked, a RACH in flight, or already degraded.
    fn note_unhealthy_slot(&mut self) {
        let expecting = !self.tracker.is_empty()
            || !self.tracker.pending_tc_rntis().is_empty()
            || self.sync != SyncState::Synced
            || !self
                .tracker
                .recently_expired(self.slot, self.cfg.ue_expiry_slots)
                .is_empty();
        if !expecting {
            return;
        }
        self.unhealthy_streak += 1;
        match self.sync {
            SyncState::Synced if self.unhealthy_streak >= self.cfg.degraded_after_slots => {
                self.sync = SyncState::Degraded;
            }
            SyncState::Degraded if self.unhealthy_streak >= self.cfg.lost_after_slots => {
                // The cell may have restarted under a new identity: stop
                // trusting the PCI and go back to cell search. The MIB and
                // SIB1 are kept — the SIB1 re-read on resync will replace
                // them if the cell actually changed.
                self.sync = SyncState::Lost;
                self.last_pci = self.cell.pci.or(self.assumed_pci);
                self.cell.pci = None;
            }
            SyncState::Lost => {
                self.sync = SyncState::Reacquiring;
            }
            _ => {}
        }
    }

    /// Message-fidelity cell re-acquisition: scan candidate PCIs with an
    /// SI-RNTI-only hypothesis set (the system information is the only
    /// transmission decodable without UE state). The previously known PCI
    /// is tried first. CRC-XOR recovery stays off — under a wrong PCI it
    /// would manufacture false C-RNTIs from scrambling residue.
    fn reacquire_message(
        &mut self,
        dcis: &[crate::observe::ObservedDci],
        pdsch: &[(Rnti, PdschPayload)],
        slot: u64,
    ) {
        let mut candidates: Vec<u16> = Vec::new();
        if let Some(p) = self.last_pci {
            candidates.push(p.0);
        }
        candidates.extend((0..PCI_SCAN_MAX).filter(|c| Some(*c) != self.last_pci.map(|p| p.0)));
        let hyp = Hypotheses {
            allow_recovery: false,
            ..Hypotheses::default()
        };
        for pci in candidates {
            let Some(ctx) = self.decoder_context_with(pci) else {
                // No MIB: nothing is decodable under any PCI hypothesis.
                self.stats.decode_failures += 1;
                self.metrics.inc(Counter::DecodeFailures);
                return;
            };
            let (decoded, _) =
                decode_message_slot_budgeted(&ctx, dcis, &hyp, SearchBudget::unlimited(), None);
            if decoded.iter().any(|d| d.rnti_type == RntiType::Si) {
                self.cell.pci = Some(Pci(pci));
                self.consume(decoded, pdsch, slot);
                return;
            }
        }
    }

    /// Decoder context, or `None` when the MIB or PCI is not yet known —
    /// callers count a decode failure rather than panicking.
    fn decoder_context(&self) -> Option<DecoderContext> {
        self.decoder_context_with(self.pci()?.0)
    }

    fn decoder_context_with(&self, pci: u16) -> Option<DecoderContext> {
        let mib = self.cell.mib.as_ref()?;
        Some(DecoderContext {
            coreset: mib.coreset0(),
            pci,
            numerology: mib.scs_common,
            common_sizing: DciSizing {
                bwp_prbs: mib.coreset0_n_prb as usize,
            },
            ue_sizing: self.cell.sib1.as_ref().map(|s| DciSizing {
                bwp_prbs: s.carrier_prbs as usize,
            }),
        })
    }

    fn pci(&self) -> Option<Pci> {
        self.cell.pci.or(self.assumed_pci)
    }

    fn hypotheses(&self, coreset: &Coreset) -> Hypotheses {
        let mut c_rntis = self.tracker.rntis();
        // Probationary RNTIs ride the UE-specific pass: a real UE on
        // probation decodes under its own scrambling and corroborates
        // itself; a ghost never does. Also keeps the recovery path from
        // re-minting the same candidate for free every slot.
        for r in self.tracker.probation_rntis() {
            if !c_rntis.contains(&r) {
                c_rntis.push(r);
            }
        }
        if self.sync != SyncState::Synced {
            // While unhealthy, also retry RNTIs that expired recently: UEs
            // that stayed connected through a sniffer-side outage re-track
            // from their first DCI instead of waiting for fresh RACH.
            for r in self
                .tracker
                .recently_expired(self.slot, self.cfg.ue_expiry_slots)
            {
                if !c_rntis.contains(&r) {
                    c_rntis.push(r);
                }
            }
        }
        // Each RNTI is searched where its RRC Setup (its own, else the
        // cell's UE-invariant cached one) lets the gNB place it. The hash
        // runs on `slot_in_frame`, so it is trusted only while `Synced`.
        let slot_in_frame = self.slot_in_frame();
        let with_space = |rnti| {
            let own = self.tracker.get(rnti).map(|ue| &ue.rrc);
            match own.or(self.tracker.cached_rrc()) {
                Some(rrc) if self.sync == SyncState::Synced => {
                    UeHypothesis::in_search_space(rnti, rrc, coreset, slot_in_frame)
                }
                _ => UeHypothesis::anywhere(rnti),
            }
        };
        Hypotheses {
            ra_rntis: self.expected_ra_rntis(),
            tc_rntis: self.tracker.pending_tc_rntis(),
            c_rntis: c_rntis.into_iter().map(with_space).collect(),
            // CRC-XOR recovery needs a trusted PCI; with sync lost it would
            // invent C-RNTIs from mis-descrambled residue.
            allow_recovery: !matches!(self.sync, SyncState::Lost | SyncState::Reacquiring),
            skip_common: false,
        }
    }

    /// Accept a decoded SIB1. The first read is taken on faith (nothing
    /// is decodable without it); after that, *changed* content must be
    /// seen twice in a row before it replaces cell state, so a one-off
    /// corrupted or forged broadcast cannot flip the carrier
    /// configuration back and forth (contradictory-reload defense).
    fn on_sib1(&mut self, sib1: Sib1) {
        match self.cell.sib1.as_ref() {
            None => {
                self.cell.sib1 = Some(sib1);
                self.pending_sib1 = None;
            }
            Some(old) if *old == sib1 => {
                // Steady state re-read; drop any half-corroborated change.
                self.pending_sib1 = None;
            }
            Some(_) => match self.pending_sib1.take() {
                Some((cand, n)) if cand == sib1 => {
                    if n + 1 >= 2 {
                        self.stats.sib1_reloads += 1;
                        self.cell.sib1 = Some(sib1);
                    } else {
                        self.pending_sib1 = Some((cand, n + 1));
                    }
                }
                _ => {
                    self.pending_sib1 = Some((sib1, 1));
                }
            },
        }
    }

    fn on_mib(&mut self, mib: Mib, slot: u64) {
        self.cell.frame_anchor_slot = Some(slot);
        self.cell.anchor_sfn = mib.sfn as u32;
        self.cell.mib = Some(mib);
    }

    /// IQ path: synchronise (PSS/SSS), then demodulate and blind-decode.
    /// Returns the decode work offered (for the governor's load model).
    fn process_iq(
        &mut self,
        samples: &[nr_phy::complex::Cf32],
        pdsch: &[(Rnti, PdschPayload)],
        slot: u64,
        budget: SearchBudget,
    ) -> DecodeWork {
        // SIB1-less bootstrapping: the demodulator needs the carrier layout
        // before anything is decoded, so the front end sizes the FFT from
        // the sample count on the first slot; the layout is then kept for
        // the session, and a buffer that stops matching it (an overflow
        // recovered mid-slot) is skipped rather than misparsed.
        let slot_in_frame = self.slot_in_frame();
        let known = self.decoder_context();
        // A tracked cell is read at the CORESET, and at the PBCH symbols
        // in the slots an SSB is due; the rest of the slot is transformed
        // only while the MIB or the on-air PCI is still being searched for.
        let ssb_due = self.ssb_due();
        let wanted = match &known {
            Some(ctx) if self.cell.pci.is_some() => {
                let mut wanted = coreset_symbols(&ctx.coreset);
                if ssb_due {
                    (wanted[1], wanted[3]) = (true, true);
                }
                wanted
            }
            _ => [true; SYMBOLS_PER_SLOT],
        };
        let Some(grid) = self.front.demodulate_slot(
            known.as_ref(),
            samples,
            slot_in_frame,
            &wanted,
            &self.metrics,
        ) else {
            self.stats.layout_mismatch_slots += 1;
            return DecodeWork::default();
        };
        // Cell search: PSS/SSS on the SSB region whenever not yet locked.
        if self.cell.pci.is_none() {
            if let Some(pci) = detect_cell(grid) {
                self.cell.pci = Some(pci);
            }
        }
        let Some(pci) = self.pci() else {
            return DecodeWork::default();
        };
        // MIB (PBCH) decode when an SSB is due and present.
        if let Some(mib) = ssb_due.then(|| self.front.decode_pbch(pci)).flatten() {
            self.on_mib(mib, slot);
        }
        if self.cell.mib.is_none() {
            return DecodeWork::default();
        }
        let Some(ctx) = self.decoder_context() else {
            self.stats.decode_failures += 1;
            self.metrics.inc(Counter::DecodeFailures);
            return DecodeWork::default();
        };
        let hyp = self.hypotheses(&ctx.coreset);
        let candidates = {
            let _t = self.metrics.start(Stage::PdcchSearch);
            self.front
                .extract_all_candidates(&ctx, self.slot_in_frame())
        };
        let (decoded, work) = scan(&ctx, &candidates, &hyp, budget, Some(&self.metrics));
        self.consume(decoded, pdsch, slot);
        work
    }

    /// Shared post-decode path: PDSCH association, RRC handling, HARQ
    /// tracking, TBS computation, logging.
    fn consume(&mut self, decoded: Vec<DecodedDci>, pdsch: &[(Rnti, PdschPayload)], slot: u64) {
        let _t = self.metrics.start(Stage::Classify);
        let sfn = self.sfn();
        let mut usages: Vec<UeUsage> = Vec::new();
        for d in decoded {
            match d.rnti_type {
                RntiType::Si => {
                    self.stats.si_dcis += 1;
                    if let Some(PdschPayload::Sib1(bits)) = payload_for(pdsch, d.rnti) {
                        match Sib1::decode(bits) {
                            Ok(sib1) => self.on_sib1(sib1),
                            Err(_) => {
                                // Broadcast bits are untrusted input: a
                                // malformed SIB1 is counted and dropped,
                                // never allowed to clobber cell state.
                                self.stats.parse_rejects += 1;
                                self.metrics.inc(Counter::ParseRejects);
                            }
                        }
                    }
                }
                RntiType::Ra => {
                    self.stats.ra_dcis += 1;
                    if let Some(PdschPayload::Rar(tc)) = payload_for(pdsch, d.rnti) {
                        self.tracker.rar_seen(*tc, slot);
                    }
                }
                RntiType::Tc => {
                    self.stats.tc_dcis += 1;
                    // MSG 4: decode the RRC Setup from the PDSCH, or skip
                    // using the cache per §3.1.2.
                    let rrc = if let Some(cached) = self.tracker.cached_rrc() {
                        self.stats.rrc_skipped += 1;
                        Some(*cached)
                    } else {
                        self.decode_rrc_payload(pdsch, d.rnti)
                    };
                    if let Some(rrc) = rrc {
                        if !self.tracker.contains(d.rnti) {
                            // Stage-2 admission: a TC-RNTI shadowed by a
                            // decoded RAR (or seen legitimately before)
                            // is corroborated by the RACH procedure
                            // itself. A recovery-minted RNTI — possibly a
                            // chance CRC collision — must earn K
                            // corroborating decodes first.
                            let corroborated = self.tracker.is_pending_tc(d.rnti)
                                || self.tracker.was_ever_seen(d.rnti)
                                || self.admission_check(d.rnti, slot) == Admission::Admit;
                            if corroborated {
                                if self.journaling {
                                    self.slot_ops.push(SlotOp::Track { rnti: d.rnti, rrc });
                                }
                                if self.tracker.promote(d.rnti, slot, rrc) {
                                    self.push_ue_event(UeEvent::Discovered { rnti: d.rnti, slot });
                                } else {
                                    // Same RNTI re-RACHed after we expired
                                    // it: a recovery, not a new UE.
                                    self.stats.recovered_ues += 1;
                                }
                            }
                        }
                    }
                }
                RntiType::C => {
                    if !self.tracker.contains(d.rnti) && self.tracker.restore(d.rnti, slot) {
                        // A recently-expired hypothesis decoded: the UE
                        // was connected all along — re-track it in place.
                        self.stats.recovered_ues += 1;
                        if self.journaling {
                            if let Some(ue) = self.tracker.get(d.rnti) {
                                let rrc = ue.rrc;
                                self.slot_ops.push(SlotOp::Track { rnti: d.rnti, rrc });
                            }
                        }
                    } else if !self.tracker.contains(d.rnti) && self.tracker.is_probationary(d.rnti)
                    {
                        // A probationary RNTI decoded under its own
                        // UE-specific scrambling — exactly the
                        // corroboration stage 2 demands. Ghost RNTIs
                        // never produce these (their scrambling doesn't
                        // exist), so K such decodes admit the UE.
                        if self.admission_check(d.rnti, slot) == Admission::Admit {
                            if let Some(rrc) = self.tracker.cached_rrc().copied() {
                                if self.journaling {
                                    self.slot_ops.push(SlotOp::Track { rnti: d.rnti, rrc });
                                }
                                if self.tracker.promote(d.rnti, slot, rrc) {
                                    self.push_ue_event(UeEvent::Discovered { rnti: d.rnti, slot });
                                } else {
                                    self.stats.recovered_ues += 1;
                                }
                            }
                        }
                    }
                    let record = self.telemetry_for(&d, slot, sfn);
                    if let Some(r) = record {
                        match r.format {
                            DciFormat::Dl1_1 => {
                                self.stats.dl_dcis += 1;
                                if r.is_retx {
                                    self.stats.retransmissions += 1;
                                }
                                if r.counts_for_dl_throughput() {
                                    self.throughput
                                        .record(r.rnti, slot, r.tbs, RATE_WINDOW_SLOTS);
                                }
                                usages.push(UeUsage {
                                    rnti: r.rnti,
                                    used_res: r.reg_count() * 12,
                                    mcs: r.mcs,
                                    layers: r.layers,
                                });
                            }
                            DciFormat::Ul0_1 => {
                                self.stats.ul_dcis += 1;
                            }
                        }
                        if self.journaling {
                            self.slot_ops.push(SlotOp::Record(r));
                        }
                        self.records.push(r);
                    }
                }
                RntiType::P => {}
            }
        }
        // Spare capacity for this TTI (only meaningful once SIB1 is known).
        if let Some(sib1) = &self.cell.sib1 {
            if !usages.is_empty() {
                let total = slot_data_res(sib1.carrier_prbs as usize, 12);
                let table = self
                    .tracker
                    .cached_rrc()
                    .map(|r| r.mcs_table)
                    .unwrap_or(McsTable::Qam256);
                // Defense in depth: quarantined ghosts are never tracked
                // so they cannot normally reach `usages`, but the spare
                // estimate must stay clean even if one slips through.
                let quarantined = self.tracker.quarantined_rntis();
                self.spare_log.push((
                    slot,
                    spare_capacity_excluding(&usages, &quarantined, total, table),
                ));
            }
        }
    }

    fn decode_rrc_payload(
        &mut self,
        pdsch: &[(Rnti, PdschPayload)],
        rnti: Rnti,
    ) -> Option<RrcSetup> {
        let Some(PdschPayload::RrcSetup(bits)) = payload_for(pdsch, rnti) else {
            return None; // PDSCH missed, and the caller found nothing cached
        };
        self.stats.rrc_decoded += 1;
        match RrcSetup::decode(bits) {
            Ok(rrc) => Some(rrc),
            Err(_) => {
                self.stats.parse_rejects += 1;
                self.metrics.inc(Counter::ParseRejects);
                None
            }
        }
    }

    /// Translate a decoded C-RNTI DCI into a telemetry record.
    ///
    /// UE state (activity, HARQ memory) is mutated only after every
    /// content check has passed: a record is returned exactly when its
    /// side effects happened. Journal replay re-derives those side effects
    /// from the record alone, so a half-applied rejected DCI (activity
    /// bumped, HARQ advanced, no record) would silently diverge the
    /// restored session from the live one.
    fn telemetry_for(&mut self, d: &DecodedDci, slot: u64, sfn: u32) -> Option<TelemetryRecord> {
        let sib1 = self.cell.sib1.as_ref()?;
        let carrier = sib1.carrier_prbs as usize;
        let rrc = self.tracker.get(d.rnti)?.rrc;
        let Some((prb_start, prb_len)) = riv_decode(d.dci.f_alloc, carrier) else {
            // CRC passed but the frequency allocation is out of range for
            // the carrier: corrupt content — count it, don't crash.
            self.stats.decode_failures += 1;
            self.metrics.inc(Counter::DecodeFailures);
            return None;
        };
        let Some(entry) = rrc.mcs_table.entry(d.dci.mcs) else {
            // Reserved MCS index in an otherwise valid DCI.
            self.stats.decode_failures += 1;
            self.metrics.inc(Counter::DecodeFailures);
            return None;
        };
        let (symbol_start, symbol_len) = time_alloc(d.dci.t_alloc);
        let layers = match d.dci.format {
            DciFormat::Dl1_1 => rrc.max_mimo_layers as usize,
            DciFormat::Ul0_1 => 1,
        };
        let ue = self.tracker.get_mut(d.rnti)?;
        ue.last_active_slot = slot;
        let is_retx = match d.dci.format {
            DciFormat::Dl1_1 => ue.harq_dl.observe(d.dci.harq_id, d.dci.ndi),
            DciFormat::Ul0_1 => ue.harq_ul.observe(d.dci.harq_id, d.dci.ndi),
        };
        let tbs = transport_block_size(&TbsParams {
            n_prb: prb_len,
            n_symbols: symbol_len,
            dmrs_per_prb: rrc.dmrs_per_prb as usize,
            overhead_per_prb: rrc.x_overhead as usize,
            mcs: entry,
            layers,
        });
        Some(TelemetryRecord::from_dci(
            slot,
            sfn,
            d.rnti,
            RntiType::C,
            &d.dci,
            d.level,
            d.cce_start,
            (prb_start, prb_len),
            (symbol_start, symbol_len),
            layers,
            tbs,
            is_retx,
        ))
    }
}

/// Frames between the SSBs of a cell, as a UE assumes it for cell selection
/// (38.213 §4.1) — what `gnb_sim` transmits, and no SIB1 field here says
/// otherwise.
const SSB_PERIOD_FRAMES: u64 = 2;

/// Whether `slot` may bear an SSB, given the slot of the last MIB decode
/// and the frame length that MIB gives: there is no anchor yet, or the
/// anchor lies ahead (a lossy restore), or a whole period has passed. Every
/// decode re-anchors, so a cell on this period is attempted exactly at its
/// SSBs; a missed occasion — a dropped slot, noise, a stale PCI, a slip of
/// the slot count, any other period — leaves every slot due until the next
/// MIB decodes.
fn ssb_due(anchor_and_frame: Option<(u64, u64)>, slot: u64) -> bool {
    anchor_and_frame.is_none_or(|(anchor, slots_per_frame)| {
        slot < anchor || slot - anchor >= SSB_PERIOD_FRAMES * slots_per_frame
    })
}

fn payload_for(pdsch: &[(Rnti, PdschPayload)], rnti: Rnti) -> Option<&PdschPayload> {
    pdsch.iter().find(|(r, _)| *r == rnti).map(|(_, p)| p)
}

/// Per-rung slot-latency histogram stage.
fn rung_stage(rung: LoadRung) -> Stage {
    match rung {
        LoadRung::Full => Stage::RungFull,
        LoadRung::PrunedSearch => Stage::RungPruned,
        LoadRung::BroadcastOnly => Stage::RungBroadcast,
    }
}

/// Per-rung clock-reacquisition histogram: which degradation rung was in
/// force when the loop finished pulling back in.
fn clock_reacquire_stage(rung: LoadRung) -> Stage {
    match rung {
        LoadRung::Full => Stage::ClockReacquireFull,
        LoadRung::PrunedSearch => Stage::ClockReacquirePruned,
        LoadRung::BroadcastOnly => Stage::ClockReacquireBroadcast,
    }
}

/// PSS/SSS cell detection on a demodulated grid (SSB centred in the
/// carrier, as rendered by `gnb_sim::iq`).
fn detect_cell(grid: &ResourceGrid) -> Option<Pci> {
    let n_sc = grid.n_subcarriers();
    if n_sc < SYNC_SEQ_LEN {
        return None;
    }
    let base = (n_sc - 240.min(n_sc)) / 2 + (240.min(n_sc) - SYNC_SEQ_LEN) / 2;
    let (nid2, corr) = detect_pss(&grid.symbol(0)[base..base + SYNC_SEQ_LEN]);
    if corr < 0.6 {
        return None;
    }
    let (nid1, corr2) = detect_sss(&grid.symbol(2)[base..base + SYNC_SEQ_LEN], nid2);
    if corr2 < 0.6 {
        return None;
    }
    Some(Pci::from_parts(nid1, nid2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Fidelity;
    use crate::observe::Observer;
    use gnb_sim::{CellConfig, Gnb};
    use nr_mac::RoundRobin;
    use nr_phy::channel::ChannelProfile;
    use ue_sim::traffic::{TrafficKind, TrafficSource};
    use ue_sim::{MobilityScenario, SimUe};

    /// The srsRAN cell with `n_ues` 2 Mb/s CBR UEs present from slot 0.
    fn loaded_cell(n_ues: usize) -> (CellConfig, Gnb) {
        let cell = CellConfig::srsran_n41();
        let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), 11);
        for i in 0..n_ues {
            gnb.ue_arrives(SimUe::new(
                i as u64 + 1,
                ChannelProfile::Awgn,
                MobilityScenario::Static,
                TrafficSource::new(
                    TrafficKind::Cbr {
                        rate_bps: 2e6,
                        packet_bytes: 1200,
                    },
                    i as u64 + 1,
                ),
                0.0,
                60.0,
                i as u64 + 1,
            ));
        }
        (cell, gnb)
    }

    fn run_session(n_ues: usize, slots: u64, snr_db: f64, fidelity: Fidelity) -> (Gnb, NrScope) {
        let (cell, mut gnb) = loaded_cell(n_ues);
        let mut obs = Observer::new(&cell, snr_db, fidelity == Fidelity::Iq, 5);
        let mut scope = NrScope::new(
            ScopeConfig {
                fidelity,
                ..ScopeConfig::default()
            },
            Some(cell.pci),
        );
        let slot_s = cell.slot_s();
        for s in 0..slots {
            let out = gnb.step();
            let observed = obs.observe(&out, s as f64 * slot_s);
            scope.process(&observed);
        }
        (gnb, scope)
    }

    #[test]
    fn acquires_cell_and_tracks_ues_message_fidelity() {
        let (gnb, scope) = run_session(2, 3000, 35.0, Fidelity::Message);
        assert!(scope.cell.mib.is_some(), "MIB acquired");
        assert!(scope.cell.sib1.is_some(), "SIB1 acquired");
        assert_eq!(
            scope.tracked_rntis(),
            gnb.connected_rntis(),
            "tracker matches the cell's UE list"
        );
        assert!(scope.stats.dl_dcis > 100);
        assert!(scope.stats.ul_dcis > 0);
    }

    #[test]
    fn throughput_estimate_matches_ground_truth_within_one_percent() {
        // Backlogged download traffic, like the paper's evaluation flows
        // ("watching videos or downloading files"): transport blocks are
        // full, so the TBS-sum matches tcpdump-style byte counts closely.
        let cell = CellConfig::srsran_n41();
        let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), 11);
        gnb.ue_arrives(SimUe::new(
            1,
            ChannelProfile::Awgn,
            MobilityScenario::Static,
            TrafficSource::new(
                TrafficKind::FileDownload {
                    total_bytes: usize::MAX / 2,
                },
                1,
            ),
            0.0,
            60.0,
            1,
        ));
        let mut obs = Observer::new(&cell, 35.0, false, 5);
        let mut scope = NrScope::new(ScopeConfig::default(), Some(cell.pci));
        for s in 0..6000u64 {
            let out = gnb.step();
            let observed = obs.observe(&out, s as f64 * 0.0005);
            scope.process(&observed);
        }
        let rnti = gnb.connected_rntis()[0];
        // Compare over the steady-state portion (skip attach).
        let est = scope.estimated_bits(rnti, 1000..6000) as f64;
        let truth = gnb.ue(rnti).unwrap().delivered_bytes_in(1000..6000) as f64 * 8.0;
        assert!(truth > 0.0);
        let err = (est - truth).abs() / truth;
        assert!(
            err < 0.01,
            "estimate {est} vs truth {truth}: {:.3}%",
            err * 100.0
        );
    }

    #[test]
    fn cbr_traffic_estimate_is_within_padding_tolerance() {
        // Thin CBR flows see MAC padding (TBS ≥ queued bytes), so the
        // TBS-based estimate runs slightly hot — a few percent, like the
        // tail of the paper's Fig 9 error distributions.
        let (gnb, scope) = run_session(1, 6000, 35.0, Fidelity::Message);
        let rnti = gnb.connected_rntis()[0];
        let est = scope.estimated_bits(rnti, 1000..6000) as f64;
        let truth = gnb.ue(rnti).unwrap().delivered_bytes_in(1000..6000) as f64 * 8.0;
        assert!(truth > 0.0);
        let err = (est - truth).abs() / truth;
        assert!(
            err < 0.05,
            "estimate {est} vs truth {truth}: {:.3}%",
            err * 100.0
        );
    }

    #[test]
    fn retransmissions_are_flagged_and_not_double_counted() {
        // Bad channel → retransmissions; throughput counts each block once.
        let cell = CellConfig::srsran_n41();
        let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), 17);
        gnb.ue_arrives(SimUe::new(
            1,
            ChannelProfile::Urban,
            MobilityScenario::Static,
            TrafficSource::new(
                TrafficKind::FileDownload {
                    total_bytes: usize::MAX / 2,
                },
                1,
            ),
            -4.0,
            60.0,
            1,
        ));
        let mut obs = Observer::new(&cell, 35.0, false, 5);
        let mut scope = NrScope::new(ScopeConfig::default(), Some(cell.pci));
        for s in 0..6000u64 {
            let out = gnb.step();
            let observed = obs.observe(&out, s as f64 * 0.0005);
            scope.process(&observed);
        }
        assert!(scope.stats.retransmissions > 5, "retx detected");
        // NR-Scope's retx count tracks the gNB's ground truth closely.
        let truth_retx = gnb
            .truth()
            .records()
            .iter()
            .filter(|r| {
                r.alloc.is_retx && r.alloc.format == DciFormat::Dl1_1 && r.rnti_type == RntiType::C
            })
            .count() as f64;
        let seen = scope.stats.retransmissions as f64;
        assert!(
            (seen - truth_retx).abs() / truth_retx.max(1.0) < 0.25,
            "retx {seen} vs truth {truth_retx}"
        );
    }

    #[test]
    fn rrc_skip_optimisation_decodes_once() {
        let (_, scope) = run_session(3, 4000, 35.0, Fidelity::Message);
        assert_eq!(scope.stats.rrc_decoded, 1, "first UE decodes the PDSCH");
        assert!(scope.stats.rrc_skipped >= 2, "later UEs use the cache");
    }

    #[test]
    fn iq_fidelity_end_to_end() {
        let (gnb, scope) = run_session(1, 400, 30.0, Fidelity::Iq);
        assert!(scope.cell.pci.is_some(), "PCI detected from PSS/SSS");
        assert!(scope.cell.mib.is_some(), "MIB decoded from PBCH");
        assert!(scope.cell.sib1.is_some(), "SIB1 decoded");
        assert_eq!(scope.tracked_rntis(), gnb.connected_rntis());
        assert!(scope.stats.dl_dcis > 10, "DCIs decoded from IQ");
    }

    #[test]
    fn outage_degrades_sync_then_recovers_expired_ues() {
        // 2 UEs attach, then the front end drops 160 consecutive slots
        // (USRP overflow). With a short idle-release timer both UEs expire
        // mid-outage; afterwards the degraded-mode hypothesis retry must
        // re-track them from their first DCI, with no double-counting.
        let (cell, mut gnb) = loaded_cell(2);
        let mut obs = Observer::new(&cell, 35.0, false, 5);
        obs.set_impairments(crate::observe::ImpairmentSchedule::new(42).with_outage(2000..2160));
        let mut scope = NrScope::new(
            ScopeConfig {
                ue_expiry_slots: 100,
                ..ScopeConfig::default()
            },
            Some(cell.pci),
        );
        let slot_s = cell.slot_s();
        let mut saw_degraded = false;
        for s in 0..5000u64 {
            let out = gnb.step();
            let cap = obs.capture(&out, s as f64 * slot_s);
            scope.process_capture(&cap);
            if s == 2150 {
                saw_degraded = scope.sync_state() != SyncState::Synced;
            }
        }
        assert!(saw_degraded, "outage degraded the sync state");
        assert_eq!(scope.sync_state(), SyncState::Synced, "recovered");
        assert_eq!(scope.stats.dropped_slots, 160);
        assert!(scope.stats.resyncs >= 1, "resync counted");
        assert!(scope.stats.recovered_ues >= 2, "expired UEs re-tracked");
        assert_eq!(scope.total_discovered(), 2, "no double-counted discovery");
        assert_eq!(scope.tracked_rntis(), gnb.connected_rntis());
    }

    #[test]
    fn cell_restart_under_new_pci_is_reacquired() {
        // Mid-run the cell restarts with a different PCI: every scrambled
        // transmission goes dark for the sniffer. The health machine must
        // walk Synced → Degraded → Lost, re-run cell search (SI-RNTI PCI
        // scan at message fidelity), re-read the changed SIB1, and end up
        // tracking the re-attached UEs again.
        let (cell, mut gnb) = loaded_cell(2);
        let mut obs = Observer::new(&cell, 35.0, false, 5);
        let mut scope = NrScope::new(ScopeConfig::default(), Some(cell.pci));
        let slot_s = cell.slot_s();
        for s in 0..2000u64 {
            let out = gnb.step();
            scope.process(&obs.observe(&out, s as f64 * slot_s));
        }
        assert_eq!(scope.tracked_rntis(), gnb.connected_rntis());
        gnb.restart(Pci(7));
        for s in 2000..6500u64 {
            let out = gnb.step();
            scope.process(&obs.observe(&out, s as f64 * slot_s));
        }
        assert_eq!(scope.sync_state(), SyncState::Synced, "re-synced");
        assert_eq!(scope.cell.pci, Some(Pci(7)), "new PCI found by the scan");
        assert!(scope.stats.resyncs >= 1);
        assert!(scope.stats.sib1_reloads >= 1, "changed SIB1 re-read");
        assert_eq!(
            scope.tracked_rntis(),
            gnb.connected_rntis(),
            "re-attached UEs tracked under the new cell identity"
        );
        assert_eq!(scope.total_discovered(), 2, "same UEs, not new ones");
    }

    /// The same restart seen through the IQ front end, whose PBCH constants
    /// outlive the slot (the scrambling sequence in `gold_bits_cached`, keyed
    /// by PCI; the polar code in the thread's table): once the PSS/SSS
    /// search finds the new PCI, the restarted cell's MIB decodes only if
    /// the sequence read is the new PCI's.
    #[test]
    fn iq_scope_decodes_the_mib_of_a_cell_restarted_under_a_new_pci() {
        let (cell, mut gnb) = loaded_cell(1);
        let mut obs = Observer::new(&cell, 30.0, true, 5);
        let cfg = ScopeConfig {
            fidelity: Fidelity::Iq,
            degraded_after_slots: 10,
            lost_after_slots: 30,
            ..ScopeConfig::default()
        };
        let mut scope = NrScope::new(cfg, None);
        let mut run = |slots: std::ops::Range<u64>, scope: &mut NrScope, gnb: &mut Gnb| {
            for s in slots {
                let out = gnb.step();
                scope.process(&obs.observe(&out, s as f64 * cell.slot_s()));
            }
        };
        run(0..120, &mut scope, &mut gnb);
        assert_eq!(scope.cell.pci, Some(cell.pci));
        assert_eq!(scope.tracked_rntis(), gnb.connected_rntis());
        // The tracked UE's silence walks the health machine to Lost, and
        // cell search runs again.
        gnb.restart(Pci(7));
        run(120..400, &mut scope, &mut gnb);
        assert_eq!(scope.cell.pci, Some(Pci(7)), "new PCI found by PSS/SSS");
        assert!(
            scope.cell.frame_anchor_slot >= Some(120),
            "no MIB decoded under the new PCI: anchor {:?}",
            scope.cell.frame_anchor_slot
        );
    }

    thread_local! {
        /// Makes [`NrScope::ssb_due`] say yes in every slot — the scope
        /// as it was before the SSB schedule, for the tests below to
        /// compare with.
        pub(super) static ATTEMPT_PBCH_EVERY_SLOT: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
    }

    #[test]
    fn ssb_is_due_without_an_anchor_behind_one_or_a_period_past_it() {
        let period = |spf| SSB_PERIOD_FRAMES * spf;
        assert_eq!((period(10), period(20)), (20, 40), "µ=0, µ=1");
        for spf in [10, 20] {
            assert!(ssb_due(None, 0) && ssb_due(None, 12_345));
            for anchor in [0, 7, 4_000] {
                let due = |slot| ssb_due(Some((anchor, spf)), slot);
                assert!(!due(anchor), "the anchor slot itself was just decoded");
                assert!(!due(anchor + 1) && !due(anchor + period(spf) - 1));
                assert!(due(anchor + period(spf)), "the next SSB");
                assert!(due(anchor + period(spf) + 1), "and on, once missed");
                assert!(due(anchor + 3 * period(spf) + 5));
                assert!(anchor == 0 || (due(anchor - 1) && due(0)), "lossy restore");
            }
        }
    }

    /// One CBR UE on the srsRAN cell, seen through a 30 dB IQ front end,
    /// and two cold IQ scopes to show it to.
    fn iq_air() -> (CellConfig, Gnb, Observer, [NrScope; 2]) {
        let (cell, gnb) = loaded_cell(1);
        let obs = Observer::new(&cell, 30.0, true, 5);
        let cfg = ScopeConfig {
            fidelity: Fidelity::Iq,
            ..ScopeConfig::default()
        };
        let scopes = [NrScope::new(cfg, None), NrScope::new(cfg, None)];
        (cell, gnb, obs, scopes)
    }

    /// `cap` into a scope on the SSB schedule and into one attempting the
    /// PBCH in every slot: same records, same frame anchor, same SFN.
    fn feed_both(scheduled: &mut NrScope, every_slot: &mut NrScope, cap: &Capture) {
        ATTEMPT_PBCH_EVERY_SLOT.set(true);
        let want = every_slot.process_capture(cap);
        ATTEMPT_PBCH_EVERY_SLOT.set(false);
        assert_eq!(
            scheduled.process_capture(cap),
            want,
            "slot {}",
            every_slot.slot
        );
        let timing = |s: &NrScope| (s.cell.frame_anchor_slot, s.derived_sfn(), s.slot_in_frame());
        assert_eq!(
            timing(scheduled),
            timing(every_slot),
            "slot {}",
            every_slot.slot
        );
    }

    #[test]
    fn ssb_schedule_anchors_and_reports_as_attempting_every_slot_does() {
        let (cell, mut gnb, mut obs, [mut scheduled, mut every_slot]) = iq_air();
        let mut anchors = Vec::new();
        for s in 0..400 {
            let out = gnb.step();
            let cap = Capture::Slot(obs.observe(&out, s as f64 * cell.slot_s()));
            feed_both(&mut scheduled, &mut every_slot, &cap);
            anchors.extend(scheduled.cell.frame_anchor_slot.filter(|a| *a == s));
        }
        assert_eq!(anchors, (0..400).step_by(40).collect::<Vec<u64>>());
        assert!(scheduled.stats.dl_dcis > 10 && !scheduled.records().is_empty());
    }

    /// An SSB the front end drops is a missed occasion: every slot after
    /// it is due, and the next SSB re-anchors — as soon as a scope
    /// attempting every slot would.
    #[test]
    fn dropped_ssb_slot_reanchors_on_the_next_ssb() {
        let (cell, mut gnb, mut obs, [mut scheduled, mut every_slot]) = iq_air();
        for s in 0..130 {
            let out = gnb.step();
            let cap = match s {
                80 => Capture::Dropped(crate::observe::DropReason::Overflow),
                _ => Capture::Slot(obs.observe(&out, s as f64 * cell.slot_s())),
            };
            feed_both(&mut scheduled, &mut every_slot, &cap);
            let anchored = [(79, 40), (80, 40), (119, 40), (120, 120), (129, 120)];
            for (_, anchor) in anchored.iter().filter(|(at, _)| *at == s) {
                assert_eq!(scheduled.cell.frame_anchor_slot, Some(*anchor), "slot {s}");
            }
        }
    }

    /// Captures lost without a `Dropped` marker slip the slot count against
    /// the air. The SSB then expected is not there, so every slot after it
    /// is due, and the scope is back on the gNB's frame timing within two
    /// SSB periods of the slip (attempting every slot: within one).
    #[test]
    fn unannounced_slip_of_the_slot_count_is_reanchored_within_two_periods() {
        let (cell, mut gnb, mut obs, [mut scope, _]) = iq_air();
        let period = SSB_PERIOD_FRAMES * cell.numerology.slots_per_frame() as u64;
        let mut agrees = Vec::new();
        for s in 0..100 + 2 * period {
            if s == 100 {
                (0..7).for_each(|_| drop(gnb.step()));
            }
            let out = gnb.step();
            let on_air = (out.slot_in_frame, out.sfn);
            agrees.push((scope.slot_in_frame(), scope.derived_sfn()) == on_air);
            scope.process(&obs.observe(&out, s as f64 * cell.slot_s()));
        }
        assert!(
            agrees[1..100].iter().all(|a| *a),
            "on the air's timing before"
        );
        assert!(!agrees[100], "the slip is real");
        assert!(agrees[agrees.len() - 1], "and is anchored out");
        let back = agrees.iter().rposition(|a| !a).expect("slot 100") as u64 + 1;
        assert!(
            back > 100 + period - 7 && back <= 100 + 2 * period,
            "back at {back}"
        );
    }

    #[test]
    fn spare_log_produced_for_loaded_slots() {
        let (_, scope) = run_session(2, 3000, 35.0, Fidelity::Message);
        assert!(!scope.spare_log().is_empty());
        let (_, shares) = &scope.spare_log()[scope.spare_log().len() / 2];
        assert!(!shares.is_empty());
    }
}
