//! Downlink/uplink PRB schedulers: round-robin and proportional-fair.
//!
//! Each downlink TTI the scheduler picks which UEs get PRBs and how many,
//! bounded by the carrier width and the PDCCH's CCE budget (each scheduled
//! UE costs one DCI, and the CORESET only fits `n_cces / L` of them — with
//! 64 UEs in a cell this is the binding constraint, visible in the paper's
//! Fig 11 as the per-second scheduling cap).

use crate::grant::Allocation;
use crate::harq::GnbHarqEntity;
use nr_phy::dci::DciFormat;
use nr_phy::mcs::{select_mcs, McsTable};
use nr_phy::tbs::{transport_block_size, TbsParams};
use nr_phy::types::Rnti;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Static configuration of the scheduler.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Carrier width in PRBs.
    pub carrier_prbs: usize,
    /// Maximum DCIs per slot (CORESET CCEs / aggregation level).
    pub max_dcis_per_slot: usize,
    /// First data symbol (after the CORESET).
    pub symbol_start: usize,
    /// Data symbols per slot.
    pub symbol_len: usize,
    /// MCS table in use.
    pub mcs_table: McsTable,
    /// Target BLER for link adaptation.
    pub target_bler: f64,
    /// DMRS REs per PRB (TBS input).
    pub dmrs_per_prb: usize,
    /// xOverhead per PRB (TBS input).
    pub overhead_per_prb: usize,
    /// MIMO layers granted to every UE.
    pub layers: usize,
}

impl SchedulerConfig {
    /// A 20 MHz µ=1 cell with a 48-PRB CORESET at aggregation level 2.
    pub fn typical_20mhz() -> SchedulerConfig {
        SchedulerConfig {
            carrier_prbs: 51,
            max_dcis_per_slot: 4,
            symbol_start: 2,
            symbol_len: 12,
            mcs_table: McsTable::Qam256,
            target_bler: 0.1,
            dmrs_per_prb: 12,
            overhead_per_prb: 0,
            layers: 2,
        }
    }

    /// TBS inputs of a grant at `mcs` across the whole carrier.
    fn widest_grant(&self, mcs: u8) -> TbsParams {
        TbsParams {
            n_prb: self.carrier_prbs,
            n_symbols: self.symbol_len,
            dmrs_per_prb: self.dmrs_per_prb,
            overhead_per_prb: self.overhead_per_prb,
            mcs: self.mcs_table.entry(mcs).expect("valid MCS"),
            layers: self.layers,
        }
    }
}

/// Scheduler view of one UE in one TTI.
#[derive(Debug, Clone, Copy)]
pub struct SchedUe {
    /// UE identity.
    pub rnti: Rnti,
    /// Bytes waiting in the downlink (or uplink) buffer.
    pub buffer_bytes: usize,
    /// Wideband SNR estimate from CQI feedback, dB.
    pub snr_db: f64,
    /// Exponentially averaged served rate (bits/s) for PF fairness.
    pub avg_rate: f64,
}

/// A PRB scheduler. Implementations must be deterministic given their
/// construction seed and call order — the evaluation compares NR-Scope's
/// decode against the scheduler's ground truth slot by slot.
pub trait Scheduler {
    /// Produce this TTI's allocations. `harqs` supplies per-UE HARQ
    /// entities (indexed by RNTI) so retransmissions preempt new data;
    /// missing entries are created on first use.
    fn schedule(
        &mut self,
        slot: u64,
        ues: &[SchedUe],
        harqs: &mut HashMap<Rnti, GnbHarqEntity>,
        cfg: &SchedulerConfig,
    ) -> Vec<Allocation>;

    /// Human-readable name for logs and benches.
    fn name(&self) -> &'static str;
}

/// Build one allocation for a UE over a PRB span, handling HARQ.
///
/// Returns `None` when the UE has neither data nor a pending
/// retransmission.
fn build_allocation(
    ue: &SchedUe,
    harq: &mut GnbHarqEntity,
    prb_start: usize,
    prb_budget: usize,
    cfg: &SchedulerConfig,
) -> Option<Allocation> {
    if prb_budget == 0 {
        return None;
    }
    // Retransmissions first: same TBS, same NDI, bumped RV.
    if let Some((harq_id, tbs)) = harq.pending_retx() {
        let ndi = harq.start_retx(harq_id);
        let rv = [0u8, 2, 3, 1][harq.retx_count(harq_id).min(3) as usize];
        // Reuse the same PRB budget the TBS needs (approximate the original
        // span by recomputing the smallest span that fits the TBS).
        let mcs = select_mcs(cfg.mcs_table, ue.snr_db, cfg.target_bler);
        let widest = cfg.widest_grant(mcs);
        let prb_len = smallest_span(u64::from(tbs), &widest)
            .min(prb_budget)
            .max(1);
        return Some(Allocation {
            rnti: ue.rnti,
            format: DciFormat::Dl1_1,
            prb_start,
            prb_len,
            symbol_start: cfg.symbol_start,
            symbol_len: cfg.symbol_len,
            mcs,
            layers: cfg.layers,
            harq_id,
            ndi,
            rv,
            is_retx: true,
            tbs,
        });
    }
    if ue.buffer_bytes == 0 {
        return None;
    }
    let harq_id = harq.free_process()?;
    let mcs = select_mcs(cfg.mcs_table, ue.snr_db, cfg.target_bler);
    let widest = cfg.widest_grant(mcs);
    // Shrink the span to what the buffer needs.
    let needed_bits = (ue.buffer_bytes as u64).saturating_mul(8);
    let prb_len = smallest_span(needed_bits, &widest).min(prb_budget).max(1);
    let tbs = transport_block_size(&TbsParams {
        n_prb: prb_len,
        ..widest
    });
    if tbs == 0 {
        return None;
    }
    let ndi = harq.start_new(harq_id, tbs);
    Some(Allocation {
        rnti: ue.rnti,
        format: DciFormat::Dl1_1,
        prb_start,
        prb_len,
        symbol_start: cfg.symbol_start,
        symbol_len: cfg.symbol_len,
        mcs,
        layers: cfg.layers,
        harq_id,
        ndi,
        rv: 0,
        is_retx: false,
        tbs,
    })
}

/// Smallest PRB count in `1..=widest.n_prb` whose TBS, at `widest`'s other
/// inputs, covers `bits`; `widest.n_prb` when none does. `bits` saturates
/// at `u32::MAX`, so a buffer past 512 MiB asks for more than any span
/// carries and gets the widest one.
///
/// A bisection, which returns the first covering span because TBS never
/// decreases as `n_prb` grows: checked for every input a cell can configure
/// by `nr_phy::oracle`'s `tbs_is_non_decreasing_in_n_prb_on_the_whole_grid`.
pub fn smallest_span(bits: u64, widest: &TbsParams) -> usize {
    let bits = u32::try_from(bits).unwrap_or(u32::MAX);
    let covers = |n_prb| transport_block_size(&TbsParams { n_prb, ..*widest }) >= bits;
    let (mut lo, mut hi) = (1, widest.n_prb);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if covers(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    hi
}

/// Classic round-robin: rotates priority over UEs each slot and splits the
/// carrier evenly among those scheduled.
#[derive(Debug, Default, Clone)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    /// Fresh scheduler.
    pub fn new() -> RoundRobin {
        RoundRobin::default()
    }
}

impl Scheduler for RoundRobin {
    fn schedule(
        &mut self,
        _slot: u64,
        ues: &[SchedUe],
        harqs: &mut HashMap<Rnti, GnbHarqEntity>,
        cfg: &SchedulerConfig,
    ) -> Vec<Allocation> {
        if ues.is_empty() {
            return Vec::new();
        }
        let n = ues.len();
        // Candidates in rotating order, keeping only those with work.
        let order: Vec<usize> = (0..n).map(|i| (self.cursor + i) % n).collect();
        self.cursor = (self.cursor + 1) % n;
        let eligible: Vec<usize> = order
            .into_iter()
            .filter(|&i| {
                let harq = harqs.entry(ues[i].rnti).or_default();
                ues[i].buffer_bytes > 0 || harq.pending_retx().is_some()
            })
            .take(cfg.max_dcis_per_slot)
            .collect();
        if eligible.is_empty() {
            return Vec::new();
        }
        let share = (cfg.carrier_prbs / eligible.len()).max(1);
        let mut allocations = Vec::new();
        let mut prb_cursor = 0usize;
        for &i in &eligible {
            let budget = share.min(cfg.carrier_prbs.saturating_sub(prb_cursor));
            let harq = harqs.entry(ues[i].rnti).or_default();
            if let Some(a) = build_allocation(&ues[i], harq, prb_cursor, budget, cfg) {
                prb_cursor += a.prb_len;
                allocations.push(a);
            }
        }
        allocations
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Proportional-fair: ranks UEs by instantaneous-rate / average-rate and
/// serves the top `max_dcis_per_slot`, splitting PRBs by metric weight.
#[derive(Debug, Default, Clone)]
pub struct ProportionalFair;

impl ProportionalFair {
    /// Fresh scheduler.
    pub fn new() -> ProportionalFair {
        ProportionalFair
    }
}

impl Scheduler for ProportionalFair {
    fn schedule(
        &mut self,
        _slot: u64,
        ues: &[SchedUe],
        harqs: &mut HashMap<Rnti, GnbHarqEntity>,
        cfg: &SchedulerConfig,
    ) -> Vec<Allocation> {
        // Metric: achievable spectral efficiency over historical rate.
        let mut ranked: Vec<(usize, f64)> = ues
            .iter()
            .enumerate()
            .filter(|(_, u)| {
                u.buffer_bytes > 0 || harqs.entry(u.rnti).or_default().pending_retx().is_some()
            })
            .map(|(i, u)| {
                let mcs = select_mcs(cfg.mcs_table, u.snr_db, cfg.target_bler);
                let eff = cfg.mcs_table.entry(mcs).expect("valid").efficiency();
                (i, eff / u.avg_rate.max(1.0))
            })
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        ranked.truncate(cfg.max_dcis_per_slot);
        if ranked.is_empty() {
            return Vec::new();
        }
        let share = (cfg.carrier_prbs / ranked.len()).max(1);
        let mut allocations = Vec::new();
        let mut prb_cursor = 0usize;
        for &(i, _) in &ranked {
            let budget = share.min(cfg.carrier_prbs.saturating_sub(prb_cursor));
            let harq = harqs.entry(ues[i].rnti).or_default();
            if let Some(a) = build_allocation(&ues[i], harq, prb_cursor, budget, cfg) {
                prb_cursor += a.prb_len;
                allocations.push(a);
            }
        }
        allocations
    }

    fn name(&self) -> &'static str {
        "proportional-fair"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn run_sched(
        s: &mut dyn Scheduler,
        ues: &mut [SchedUe],
        harqs: &mut HashMap<Rnti, GnbHarqEntity>,
        cfg: &SchedulerConfig,
        slot: u64,
    ) -> Vec<Allocation> {
        s.schedule(slot, ues, harqs, cfg)
    }

    fn ue(rnti: u16, bytes: usize, snr: f64) -> SchedUe {
        SchedUe {
            rnti: Rnti(rnti),
            buffer_bytes: bytes,
            snr_db: snr,
            avg_rate: 1.0,
        }
    }

    #[test]
    fn empty_cell_schedules_nothing() {
        let cfg = SchedulerConfig::typical_20mhz();
        let mut harqs = HashMap::new();
        let mut ues = Vec::new();
        let a = run_sched(&mut RoundRobin::new(), &mut ues, &mut harqs, &cfg, 0);
        assert!(a.is_empty());
    }

    #[test]
    fn idle_ues_get_no_grants() {
        let cfg = SchedulerConfig::typical_20mhz();
        let mut harqs = HashMap::new();
        let mut ues = vec![ue(1, 0, 20.0), ue(2, 0, 20.0)];
        let a = run_sched(&mut RoundRobin::new(), &mut ues, &mut harqs, &cfg, 0);
        assert!(a.is_empty());
    }

    #[test]
    fn allocations_do_not_overlap_and_fit_carrier() {
        let cfg = SchedulerConfig::typical_20mhz();
        let mut harqs = HashMap::new();
        let mut ues: Vec<SchedUe> = (1..=6).map(|i| ue(i, 100_000, 25.0)).collect();
        for slot in 0..20u64 {
            let allocs = run_sched(&mut RoundRobin::new(), &mut ues, &mut harqs, &cfg, slot);
            let mut used = vec![false; cfg.carrier_prbs];
            for a in &allocs {
                assert!(a.prb_start + a.prb_len <= cfg.carrier_prbs);
                for (p, slot_used) in used
                    .iter_mut()
                    .enumerate()
                    .skip(a.prb_start)
                    .take(a.prb_len)
                {
                    assert!(!*slot_used, "PRB {p} double-booked");
                    *slot_used = true;
                }
            }
            // Feed back ACKs so HARQ frees up.
            for a in &allocs {
                harqs.get_mut(&a.rnti).unwrap().feedback(a.harq_id, true);
            }
        }
    }

    #[test]
    fn dci_budget_caps_scheduled_ues() {
        let cfg = SchedulerConfig::typical_20mhz();
        let mut harqs = HashMap::new();
        let mut rr = RoundRobin::new();
        let mut ues: Vec<SchedUe> = (1..=64).map(|i| ue(i, 1_000_000, 20.0)).collect();
        let a = run_sched(&mut rr, &mut ues, &mut harqs, &cfg, 0);
        assert!(a.len() <= cfg.max_dcis_per_slot);
        assert_eq!(a.len(), cfg.max_dcis_per_slot);
    }

    #[test]
    fn round_robin_rotates_service() {
        let cfg = SchedulerConfig {
            max_dcis_per_slot: 1,
            ..SchedulerConfig::typical_20mhz()
        };
        let mut harqs: HashMap<Rnti, GnbHarqEntity> = HashMap::new();
        let mut rr = RoundRobin::new();
        let mut served = std::collections::HashSet::new();
        let mut ues: Vec<SchedUe> = (1..=4).map(|i| ue(i, 1_000_000, 20.0)).collect();
        for slot in 0..4u64 {
            let a = run_sched(&mut rr, &mut ues, &mut harqs, &cfg, slot);
            assert_eq!(a.len(), 1);
            served.insert(a[0].rnti);
            harqs
                .get_mut(&a[0].rnti)
                .unwrap()
                .feedback(a[0].harq_id, true);
        }
        assert_eq!(served.len(), 4, "each UE served once over 4 slots");
    }

    #[test]
    fn small_buffer_gets_small_allocation() {
        let cfg = SchedulerConfig::typical_20mhz();
        let mut harqs = HashMap::new();
        let mut ues = vec![ue(1, 50, 25.0)]; // 400 bits
        let a = run_sched(&mut RoundRobin::new(), &mut ues, &mut harqs, &cfg, 0);
        assert_eq!(a.len(), 1);
        assert!(a[0].prb_len <= 2, "tiny buffer should not eat the carrier");
        assert!(a[0].tbs >= 400);
    }

    /// A backlog past 512 MiB is more bits than a `u32` counts. 512 MiB + 50 B
    /// wrapped to 400 bits and got the 1-PRB span of a tiny buffer; both it
    /// and 600 MiB must get the whole budget.
    #[test]
    fn backlog_past_512_mib_gets_the_budget_limited_span() {
        let cfg = SchedulerConfig::typical_20mhz();
        for bytes in [600 << 20, (512 << 20) + 50] {
            let mut ues = vec![ue(1, bytes, 25.0)];
            let mut harqs = HashMap::new();
            let a = run_sched(&mut RoundRobin::new(), &mut ues, &mut harqs, &cfg, 0);
            assert_eq!(a[0].prb_len, cfg.carrier_prbs, "{bytes} B");
        }
    }

    #[test]
    fn retransmission_preempts_new_data_and_keeps_tbs() {
        let cfg = SchedulerConfig::typical_20mhz();
        let mut harqs = HashMap::new();
        let mut ues = vec![ue(1, 100_000, 25.0)];
        let a1 = run_sched(&mut RoundRobin::new(), &mut ues, &mut harqs, &cfg, 0);
        let orig = a1[0];
        // NACK it.
        harqs
            .get_mut(&orig.rnti)
            .unwrap()
            .feedback(orig.harq_id, false);
        let mut rr = RoundRobin::new();
        let a2 = run_sched(&mut rr, &mut ues, &mut harqs, &cfg, 1);
        assert_eq!(a2.len(), 1);
        assert!(a2[0].is_retx);
        assert_eq!(a2[0].tbs, orig.tbs, "retx repeats the transport block");
        assert_eq!(a2[0].ndi, orig.ndi, "retx keeps NDI");
        assert_eq!(a2[0].harq_id, orig.harq_id);
    }

    #[test]
    fn pf_prefers_under_served_ues() {
        let cfg = SchedulerConfig {
            max_dcis_per_slot: 1,
            ..SchedulerConfig::typical_20mhz()
        };
        let mut harqs = HashMap::new();
        let mut pf = ProportionalFair::new();
        // Same channel, one UE historically over-served.
        let mut ues = vec![
            SchedUe {
                rnti: Rnti(1),
                buffer_bytes: 1_000_000,
                snr_db: 20.0,
                avg_rate: 1e9,
            },
            SchedUe {
                rnti: Rnti(2),
                buffer_bytes: 1_000_000,
                snr_db: 20.0,
                avg_rate: 1e3,
            },
        ];
        let a = run_sched(&mut pf, &mut ues, &mut harqs, &cfg, 0);
        assert_eq!(a[0].rnti, Rnti(2), "PF serves the starved UE");
    }

    #[test]
    fn better_snr_yields_higher_mcs_and_tbs() {
        let cfg = SchedulerConfig::typical_20mhz();
        let mut harqs = HashMap::new();
        let mut ues_low = vec![ue(1, 10_000_000, 5.0)];
        let low = run_sched(&mut RoundRobin::new(), &mut ues_low, &mut harqs, &cfg, 0);
        let mut harqs2 = HashMap::new();
        let mut ues_high = vec![ue(2, 10_000_000, 30.0)];
        let high = run_sched(&mut RoundRobin::new(), &mut ues_high, &mut harqs2, &cfg, 0);
        assert!(high[0].mcs > low[0].mcs);
        assert!(high[0].tbs > low[0].tbs);
    }
}
