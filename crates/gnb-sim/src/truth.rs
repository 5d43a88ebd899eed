//! The ground-truth log — the role srsRAN's gNB log plays in the paper's
//! evaluation (§5.2.1): per-TTI DCI content and grants that NR-Scope's
//! decodes are matched against by (timestamp, TTI index).

use nr_mac::Allocation;
use nr_phy::types::{Rnti, RntiType};
use serde::{Deserialize, Serialize};

/// One logged DCI transmission with its grant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TruthRecord {
    /// Absolute TTI index.
    pub slot: u64,
    /// System frame number at transmission.
    pub sfn: u32,
    /// RNTI addressed.
    pub rnti: Rnti,
    /// RNTI classification.
    pub rnti_type: RntiType,
    /// The grant (frequency/time allocation, MCS, HARQ, TBS).
    pub alloc: Allocation,
    /// Whether the UE ultimately decoded this block (ACK) — ground truth
    /// for delivered-byte accounting.
    pub acked: bool,
}

/// Append-only ground-truth log.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TruthLog {
    records: Vec<TruthRecord>,
}

impl TruthLog {
    /// Empty log.
    pub fn new() -> TruthLog {
        TruthLog::default()
    }

    /// Append a record.
    pub fn push(&mut self, record: TruthRecord) {
        self.records.push(record)
    }

    /// All records.
    pub fn records(&self) -> &[TruthRecord] {
        &self.records
    }

    /// Records of one slot.
    pub fn in_slot(&self, slot: u64) -> impl Iterator<Item = &TruthRecord> {
        // Records are appended in slot order; binary search the range.
        let start = self.records.partition_point(|r| r.slot < slot);
        self.records[start..]
            .iter()
            .take_while(move |r| r.slot == slot)
    }

    /// Count of downlink data DCIs (C-RNTI 1_1) in the log.
    pub fn dl_dci_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| {
                r.rnti_type == RntiType::C && r.alloc.format == nr_phy::dci::DciFormat::Dl1_1
            })
            .count()
    }

    /// Count of uplink DCIs (C-RNTI 0_1).
    pub fn ul_dci_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| {
                r.rnti_type == RntiType::C && r.alloc.format == nr_phy::dci::DciFormat::Ul0_1
            })
            .count()
    }

    /// Total ACKed bytes for an RNTI within a slot window.
    pub fn acked_bytes(&self, rnti: Rnti, slots: std::ops::Range<u64>) -> usize {
        self.records
            .iter()
            .filter(|r| {
                r.rnti == rnti
                    && r.acked
                    && !r.alloc.is_retx
                    && slots.contains(&r.slot)
                    && r.alloc.format == nr_phy::dci::DciFormat::Dl1_1
            })
            .map(|r| r.alloc.payload_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nr_phy::dci::DciFormat;

    fn rec(slot: u64, rnti: u16, format: DciFormat, acked: bool) -> TruthRecord {
        TruthRecord {
            slot,
            sfn: (slot / 20) as u32,
            rnti: Rnti(rnti),
            rnti_type: RntiType::C,
            alloc: Allocation {
                rnti: Rnti(rnti),
                format,
                prb_start: 0,
                prb_len: 5,
                symbol_start: 2,
                symbol_len: 12,
                mcs: 10,
                layers: 2,
                harq_id: 0,
                ndi: 0,
                rv: 0,
                is_retx: false,
                tbs: 8000,
            },
            acked,
        }
    }

    #[test]
    fn slot_lookup_uses_ordering() {
        let mut log = TruthLog::new();
        log.push(rec(1, 1, DciFormat::Dl1_1, true));
        log.push(rec(2, 1, DciFormat::Dl1_1, true));
        log.push(rec(2, 2, DciFormat::Ul0_1, true));
        log.push(rec(5, 1, DciFormat::Dl1_1, false));
        assert_eq!(log.in_slot(2).count(), 2);
        assert_eq!(log.in_slot(3).count(), 0);
    }

    #[test]
    fn dl_ul_counters() {
        let mut log = TruthLog::new();
        log.push(rec(1, 1, DciFormat::Dl1_1, true));
        log.push(rec(1, 1, DciFormat::Ul0_1, true));
        log.push(rec(2, 2, DciFormat::Dl1_1, true));
        assert_eq!(log.dl_dci_count(), 2);
        assert_eq!(log.ul_dci_count(), 1);
    }

    #[test]
    fn acked_bytes_excludes_nacks_and_retx() {
        let mut log = TruthLog::new();
        log.push(rec(1, 7, DciFormat::Dl1_1, true));
        log.push(rec(2, 7, DciFormat::Dl1_1, false));
        let mut retx = rec(3, 7, DciFormat::Dl1_1, true);
        retx.alloc.is_retx = true;
        log.push(retx);
        assert_eq!(log.acked_bytes(Rnti(7), 0..10), 1000);
    }
}
