//! MCS and CQI tables (38.214 §5.1.3.1 / §5.2.2.1) and the link-abstraction
//! BLER model used at message fidelity.
//!
//! The DCI's 5-bit MCS field indexes one of these tables (which table is an
//! RRC-configured property NR-Scope learns from MSG 4, `mcs-Table`); the
//! entry yields the modulation order `Q_m` and code rate `R` that enter the
//! paper's Appendix A TBS computation.

use crate::modulation::Modulation;
use serde::{Deserialize, Serialize};

/// Which 38.214 MCS table the cell configured for the PDSCH.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum McsTable {
    /// Table 5.1.3.1-1, up to 64QAM.
    Qam64,
    /// Table 5.1.3.1-2, up to 256QAM (the paper's Appendix B example).
    Qam256,
}

/// One MCS table entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct McsEntry {
    /// Modulation order.
    pub modulation: Modulation,
    /// Target code rate × 1024.
    pub rate_x1024: f64,
}

impl McsEntry {
    /// Code rate as a fraction.
    pub fn code_rate(&self) -> f64 {
        self.rate_x1024 / 1024.0
    }

    /// Spectral efficiency in information bits per resource element.
    pub fn efficiency(&self) -> f64 {
        self.code_rate() * self.modulation.bits_per_symbol() as f64
    }
}

const fn e(modulation: Modulation, rate_x1024: f64) -> McsEntry {
    McsEntry {
        modulation,
        rate_x1024,
    }
}

/// 38.214 Table 5.1.3.1-1 (MCS index table 1 for PDSCH), indices 0–28.
pub const MCS_TABLE_64QAM: [McsEntry; 29] = [
    e(Modulation::Qpsk, 120.0),
    e(Modulation::Qpsk, 157.0),
    e(Modulation::Qpsk, 193.0),
    e(Modulation::Qpsk, 251.0),
    e(Modulation::Qpsk, 308.0),
    e(Modulation::Qpsk, 379.0),
    e(Modulation::Qpsk, 449.0),
    e(Modulation::Qpsk, 526.0),
    e(Modulation::Qpsk, 602.0),
    e(Modulation::Qpsk, 679.0),
    e(Modulation::Qam16, 340.0),
    e(Modulation::Qam16, 378.0),
    e(Modulation::Qam16, 434.0),
    e(Modulation::Qam16, 490.0),
    e(Modulation::Qam16, 553.0),
    e(Modulation::Qam16, 616.0),
    e(Modulation::Qam16, 658.0),
    e(Modulation::Qam64, 438.0),
    e(Modulation::Qam64, 466.0),
    e(Modulation::Qam64, 517.0),
    e(Modulation::Qam64, 567.0),
    e(Modulation::Qam64, 616.0),
    e(Modulation::Qam64, 666.0),
    e(Modulation::Qam64, 719.0),
    e(Modulation::Qam64, 772.0),
    e(Modulation::Qam64, 822.0),
    e(Modulation::Qam64, 873.0),
    e(Modulation::Qam64, 910.0),
    e(Modulation::Qam64, 948.0),
];

/// 38.214 Table 5.1.3.1-2 (MCS index table 2, 256QAM), indices 0–27.
pub const MCS_TABLE_256QAM: [McsEntry; 28] = [
    e(Modulation::Qpsk, 120.0),
    e(Modulation::Qpsk, 193.0),
    e(Modulation::Qpsk, 308.0),
    e(Modulation::Qpsk, 449.0),
    e(Modulation::Qpsk, 602.0),
    e(Modulation::Qam16, 378.0),
    e(Modulation::Qam16, 434.0),
    e(Modulation::Qam16, 490.0),
    e(Modulation::Qam16, 553.0),
    e(Modulation::Qam16, 616.0),
    e(Modulation::Qam16, 658.0),
    e(Modulation::Qam64, 466.0),
    e(Modulation::Qam64, 517.0),
    e(Modulation::Qam64, 567.0),
    e(Modulation::Qam64, 616.0),
    e(Modulation::Qam64, 666.0),
    e(Modulation::Qam64, 719.0),
    e(Modulation::Qam64, 772.0),
    e(Modulation::Qam64, 822.0),
    e(Modulation::Qam64, 873.0),
    e(Modulation::Qam256, 682.5),
    e(Modulation::Qam256, 711.0),
    e(Modulation::Qam256, 754.0),
    e(Modulation::Qam256, 797.0),
    e(Modulation::Qam256, 841.0),
    e(Modulation::Qam256, 885.0),
    e(Modulation::Qam256, 916.5),
    e(Modulation::Qam256, 948.0),
];

impl McsTable {
    /// Look up an MCS index. Returns `None` for reserved indices (≥29 or
    /// ≥28 depending on the table — those signal retransmission parameters).
    pub fn entry(self, mcs: u8) -> Option<McsEntry> {
        match self {
            McsTable::Qam64 => MCS_TABLE_64QAM.get(mcs as usize).copied(),
            McsTable::Qam256 => MCS_TABLE_256QAM.get(mcs as usize).copied(),
        }
    }

    /// Highest valid MCS index.
    pub fn max_index(self) -> u8 {
        match self {
            McsTable::Qam64 => 28,
            McsTable::Qam256 => 27,
        }
    }

    /// Name as it appears in srsRAN-style grant logs (`mcs_table=256qam`).
    pub fn name(self) -> &'static str {
        match self {
            McsTable::Qam64 => "64qam",
            McsTable::Qam256 => "256qam",
        }
    }
}

/// SNR (dB) at which an MCS entry operates near BLER 10% — the standard
/// link-adaptation operating point. Derived from the Shannon bound with an
/// implementation-loss margin, the usual link-abstraction approach.
pub fn snr_threshold_db(entry: McsEntry) -> f64 {
    let eff = entry.efficiency();
    // SNR = (2^eff − 1), plus ~1.5 dB implementation margin.
    10.0 * ((2f64.powf(eff) - 1.0).max(1e-9)).log10() + 1.5
}

/// Block error probability of an MCS at a given SNR — a logistic curve in
/// dB around the threshold, with slope matching typical LDPC waterfalls
/// (~1 dB from 90% to 10% BLER). Used by the message-fidelity link
/// abstraction in `gnb-sim` to decide HARQ NACKs.
pub fn bler(entry: McsEntry, snr_db: f64) -> f64 {
    let delta = snr_db - snr_threshold_db(entry);
    // Centred so BLER(threshold) = 0.1.
    let x = (delta + 0.55) / 0.25;
    1.0 / (1.0 + x.exp())
}

/// Pick the highest MCS whose BLER at `snr_db` stays at or below `target` —
/// the link-adaptation rule the simulated gNB scheduler applies to CQI
/// feedback. Falls back to MCS 0 when even that misses the target.
///
/// Scanned from the top, not bisected: thresholds are not monotone in the
/// index (Table 5.1.3.1-1's 16QAM 658 → 64QAM 438 lowers the efficiency).
pub fn select_mcs(table: McsTable, snr_db: f64, target_bler: f64) -> u8 {
    let meets = |entry| bler(entry, snr_db) <= target_bler;
    (0..=table.max_index())
        .rev()
        .find(|&idx| table.entry(idx).is_some_and(meets))
        .unwrap_or(0)
}

/// Map a 4-bit CQI (table 2-ish granularity) to an equivalent SNR in dB.
/// The inverse of the UE's CQI selection; granular to 2 dB steps starting
/// near -6 dB like the 38.214 CQI table spacing.
pub fn cqi_to_snr_db(cqi: u8) -> f64 {
    -8.0 + 2.0 * cqi.min(15) as f64
}

/// Map an SNR to the CQI a UE would report (inverse of [`cqi_to_snr_db`]).
pub fn snr_db_to_cqi(snr_db: f64) -> u8 {
    (((snr_db + 8.0) / 2.0).floor().clamp(0.0, 15.0)) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_appendix_b_example() {
        // Appendix B: mcs=27, mcs_table=256qam → mod=256QAM, R=0.926.
        let entry = McsTable::Qam256.entry(27).unwrap();
        assert_eq!(entry.modulation, Modulation::Qam256);
        assert!((entry.code_rate() - 0.926).abs() < 5e-4);
    }

    #[test]
    fn tables_are_monotone_in_efficiency() {
        // The genuine 3GPP tables dip very slightly at modulation switch
        // points (e.g. table 1 idx 16 → 17: 2.5703 → 2.5664), so assert
        // near-monotonicity with that tolerance and strict growth overall.
        for table in [McsTable::Qam64, McsTable::Qam256] {
            let mut prev = 0.0;
            for idx in 0..=table.max_index() {
                let eff = table.entry(idx).unwrap().efficiency();
                assert!(eff > prev - 0.01, "{table:?} idx {idx}: {eff} ≤ {prev}");
                prev = eff;
            }
            let first = table.entry(0).unwrap().efficiency();
            assert!(prev > 5.0 * first, "table spans a wide efficiency range");
        }
    }

    #[test]
    fn reserved_indices_are_none() {
        assert!(McsTable::Qam64.entry(29).is_none());
        assert!(McsTable::Qam256.entry(28).is_none());
    }

    #[test]
    fn bler_is_monotone_decreasing_in_snr() {
        let entry = McsTable::Qam256.entry(15).unwrap();
        let mut prev = 1.0;
        for snr10 in -100..300 {
            let b = bler(entry, snr10 as f64 / 10.0);
            assert!(b <= prev + 1e-12);
            prev = b;
        }
    }

    #[test]
    fn bler_at_threshold_is_ten_percent() {
        let entry = McsTable::Qam64.entry(10).unwrap();
        let b = bler(entry, snr_threshold_db(entry));
        assert!((b - 0.1).abs() < 0.02, "BLER at threshold: {b}");
    }

    #[test]
    fn mcs_selection_is_monotone_in_snr() {
        let mut prev = 0;
        for snr in [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0] {
            let m = select_mcs(McsTable::Qam256, snr, 0.1);
            assert!(m >= prev, "snr {snr}: {m} < {prev}");
            prev = m;
        }
        // Very high SNR should reach the top of the table.
        assert_eq!(select_mcs(McsTable::Qam256, 40.0, 0.1), 27);
        // Very low SNR bottoms out at 0.
        assert_eq!(select_mcs(McsTable::Qam256, -20.0, 0.1), 0);
    }

    #[test]
    fn cqi_snr_round_trip() {
        for cqi in 0..=15u8 {
            assert_eq!(snr_db_to_cqi(cqi_to_snr_db(cqi) + 0.1), cqi);
        }
    }
}
