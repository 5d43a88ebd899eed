//! Cell configuration presets matching the paper's four evaluation networks
//! (§5.1 Methodology).

use nr_phy::mcs::McsTable;
use nr_phy::pdcch::{AggregationLevel, Coreset};
use nr_phy::types::Pci;
use nr_phy::{Numerology, TddPattern};
use nr_rrc::sib1::Duplex;
use nr_rrc::{RachConfigCommon, RrcSetup, Sib1};
use serde::{Deserialize, Serialize};

/// Complete static configuration of a simulated cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellConfig {
    /// Human-readable name ("srsRAN/Open5GS", …).
    pub name: String,
    /// Physical cell identity.
    pub pci: Pci,
    /// 3GPP band label ("n41", …) for logs.
    pub band: &'static str,
    /// Downlink centre frequency in Hz.
    pub center_freq_hz: f64,
    /// Channel bandwidth in Hz.
    pub bandwidth_hz: f64,
    /// Numerology (sets SCS and TTI).
    pub numerology: Numerology,
    /// Duplex mode.
    pub duplex: Duplex,
    /// TDD pattern (all-DL for FDD).
    pub tdd: TddPattern,
    /// Carrier width in PRBs (from the 38.101 tables).
    pub carrier_prbs: usize,
    /// Common CORESET (CORESET 0).
    pub coreset: Coreset,
    /// Aggregation level used for UE-specific DCIs.
    pub aggregation_level: AggregationLevel,
    /// PDCCH candidates per level.
    pub candidates_per_level: u8,
    /// PDSCH MCS table.
    pub mcs_table: McsTable,
    /// MIMO layers granted.
    pub layers: usize,
    /// DMRS REs per PRB.
    pub dmrs_per_prb: usize,
    /// xOverhead per PRB.
    pub x_overhead: usize,
    /// Initial BWP id (commercial cells use 1, private cells 0 — §5.1).
    pub initial_bwp_id: u8,
    /// SSB (MIB) period in frames (typically 2 = 20 ms).
    pub ssb_period_frames: u32,
    /// SIB1 period in frames (typically 16 = 160 ms).
    pub sib1_period_frames: u32,
    /// RACH configuration.
    pub rach: RachConfigCommon,
    /// Mean SNR at which UEs operate in this cell (placement baseline).
    pub base_ue_snr_db: f64,
}

impl CellConfig {
    /// The open-source srsRAN/Open5GS testbed: band n41 TDD, 2524.95 MHz,
    /// 30 kHz SCS, 20 MHz.
    pub fn srsran_n41() -> CellConfig {
        CellConfig {
            name: "srsRAN/Open5GS".into(),
            pci: Pci(1),
            band: "n41",
            center_freq_hz: 2_524.95e6,
            bandwidth_hz: 20e6,
            numerology: Numerology::Mu1,
            duplex: Duplex::Tdd,
            tdd: TddPattern::dddddddsuu(),
            carrier_prbs: 51,
            coreset: Coreset {
                prb_start: 0,
                n_prb: 48,
                symbol_start: 0,
                n_symbols: 1,
            },
            aggregation_level: AggregationLevel::L2,
            candidates_per_level: 2,
            mcs_table: McsTable::Qam256,
            layers: 2,
            dmrs_per_prb: 12,
            x_overhead: 0,
            initial_bwp_id: 0,
            ssb_period_frames: 2,
            sib1_period_frames: 16,
            rach: RachConfigCommon::typical(),
            base_ue_snr_db: 24.0,
        }
    }

    /// The Mosolabs/Aether private small cell: CBRS band n48 TDD,
    /// 3561.6 MHz, 30 kHz SCS, 20 MHz.
    pub fn mosolab_n48() -> CellConfig {
        CellConfig {
            name: "Mosolabs/Aether".into(),
            pci: Pci(10),
            band: "n48",
            center_freq_hz: 3_561.6e6,
            ..CellConfig::srsran_n41()
        }
    }

    /// The Amarisoft Callbox: band n78 TDD, 3489.42 MHz, 30 kHz SCS,
    /// 20 MHz. Its CORESET is srsRAN's (48 PRBs, 1 symbol: 8 CCEs), so at
    /// most 4 level-2 DCIs a slot, however many UEs are attached.
    pub fn amarisoft_n78() -> CellConfig {
        CellConfig {
            name: "Amari Callbox".into(),
            pci: Pci(20),
            band: "n78",
            center_freq_hz: 3_489.42e6,
            base_ue_snr_db: 26.0,
            ..CellConfig::srsran_n41()
        }
    }

    /// T-Mobile commercial cell 1: band n25 FDD, 15 kHz SCS, 10 MHz,
    /// 1989.85 MHz, BWP 1.
    pub fn tmobile_n25() -> CellConfig {
        CellConfig {
            name: "T-Mobile cell 1 (n25)".into(),
            pci: Pci(101),
            band: "n25",
            center_freq_hz: 1_989.85e6,
            bandwidth_hz: 10e6,
            numerology: Numerology::Mu0,
            duplex: Duplex::Fdd,
            tdd: TddPattern::fdd(),
            carrier_prbs: 52,
            initial_bwp_id: 1,
            base_ue_snr_db: 18.0,
            ..CellConfig::srsran_n41()
        }
    }

    /// T-Mobile commercial cell 2: band n71 FDD, 15 kHz SCS, 15 MHz,
    /// 622.85 MHz, BWP 1.
    pub fn tmobile_n71() -> CellConfig {
        CellConfig {
            name: "T-Mobile cell 2 (n71)".into(),
            pci: Pci(102),
            band: "n71",
            center_freq_hz: 622.85e6,
            bandwidth_hz: 15e6,
            numerology: Numerology::Mu0,
            duplex: Duplex::Fdd,
            tdd: TddPattern::fdd(),
            carrier_prbs: 79,
            initial_bwp_id: 1,
            base_ue_snr_db: 16.0,
            ..CellConfig::srsran_n41()
        }
    }

    /// Slot (TTI) duration in seconds.
    pub fn slot_s(&self) -> f64 {
        self.numerology.slot_duration_s()
    }

    /// Front-end sample rate (Hz) for this cell's carrier: the FFT that
    /// fits the carrier PRBs, scaled by the subcarrier spacing (30.72 MHz
    /// for the 20 MHz µ=1 cells).
    pub fn sample_rate_hz(&self) -> f64 {
        let fft = self.numerology.fft_size(self.carrier_prbs);
        self.numerology.sample_rate_hz(fft)
    }

    /// A seeded oscillator model pre-bound to this cell's carrier
    /// frequency and slot duration — the deterministic drift/CFO source
    /// the observation layer skews captures with. Callers chain the
    /// `with_*` builders for the drift profile under test.
    pub fn clock_model(&self, seed: u64) -> nr_radio::ClockModel {
        nr_radio::ClockModel::new(seed, self.center_freq_hz, self.slot_s())
    }

    /// Number of data symbols per slot (after the CORESET and DMRS layout
    /// used by the schedulers: symbols 2..14).
    pub fn data_symbols(&self) -> usize {
        12
    }

    /// Maximum UE-specific DCIs per slot given the CORESET and level.
    pub fn max_dcis_per_slot(&self) -> usize {
        self.coreset.n_cces() / self.aggregation_level.cces()
    }

    /// Build the SIB1 this cell broadcasts.
    pub fn sib1(&self) -> Sib1 {
        Sib1 {
            cell_id: (self.pci.0 as u64) << 8,
            numerology: self.numerology,
            carrier_prbs: self.carrier_prbs as u16,
            duplex: self.duplex,
            tdd: self.tdd.clone(),
            initial_bwp_id: self.initial_bwp_id,
            rach: self.rach,
            si_period_frames: self.sib1_period_frames as u8,
        }
    }

    /// Build the (UE-invariant, §3.1.2) RRC Setup this cell sends as MSG 4.
    pub fn rrc_setup(&self) -> RrcSetup {
        RrcSetup {
            coreset_prb_start: self.coreset.prb_start as u8,
            coreset_n_prb: self.coreset.n_prb as u8,
            coreset_symbols: self.coreset.n_symbols as u8,
            dl_dci_format: nr_phy::dci::DciFormat::Dl1_1,
            aggregation_level: self.aggregation_level,
            candidates_per_level: self.candidates_per_level,
            max_mimo_layers: self.layers as u8,
            mcs_table: self.mcs_table,
            dmrs_per_prb: self.dmrs_per_prb as u8,
            x_overhead: self.x_overhead as u8,
            bwp_id: self.initial_bwp_id,
        }
    }

    /// Scheduler configuration derived from this cell.
    pub fn scheduler_config(&self) -> nr_mac::SchedulerConfig {
        nr_mac::SchedulerConfig {
            carrier_prbs: self.carrier_prbs,
            max_dcis_per_slot: self.max_dcis_per_slot(),
            symbol_start: 2,
            symbol_len: self.data_symbols(),
            mcs_table: self.mcs_table,
            target_bler: 0.1,
            dmrs_per_prb: self.dmrs_per_prb,
            overhead_per_prb: self.x_overhead,
            layers: self.layers,
        }
    }

    /// The MIB this cell broadcasts at `sfn`.
    pub fn mib(&self, sfn: u16) -> nr_rrc::Mib {
        nr_rrc::Mib {
            sfn,
            scs_common: self.numerology,
            coreset0_prb_start: self.coreset.prb_start as u8,
            coreset0_n_prb: self.coreset.n_prb as u8,
            coreset0_symbols: self.coreset.n_symbols as u8,
            ssb_subcarrier_offset: 0,
            dmrs_type_a_position: 2,
            cell_barred: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_methodology() {
        let srs = CellConfig::srsran_n41();
        assert_eq!(srs.numerology, Numerology::Mu1);
        assert_eq!(srs.carrier_prbs, 51);
        assert_eq!(srs.duplex, Duplex::Tdd);
        assert!((srs.center_freq_hz - 2_524.95e6).abs() < 1.0);

        let tm1 = CellConfig::tmobile_n25();
        assert_eq!(tm1.numerology, Numerology::Mu0);
        assert_eq!(tm1.carrier_prbs, 52);
        assert_eq!(tm1.duplex, Duplex::Fdd);
        assert_eq!(tm1.initial_bwp_id, 1);

        let tm2 = CellConfig::tmobile_n71();
        assert_eq!(tm2.carrier_prbs, 79);
        assert!((tm2.center_freq_hz - 622.85e6).abs() < 1.0);
    }

    #[test]
    fn carrier_prbs_agree_with_phy_tables() {
        for cfg in [
            CellConfig::srsran_n41(),
            CellConfig::mosolab_n48(),
            CellConfig::amarisoft_n78(),
            CellConfig::tmobile_n25(),
            CellConfig::tmobile_n71(),
        ] {
            assert_eq!(
                cfg.carrier_prbs,
                cfg.numerology.max_prb_for_bandwidth(cfg.bandwidth_hz),
                "{}",
                cfg.name
            );
        }
    }

    #[test]
    fn dci_budget_is_positive() {
        for cfg in [CellConfig::srsran_n41(), CellConfig::tmobile_n25()] {
            assert!(cfg.max_dcis_per_slot() >= 2, "{}", cfg.name);
        }
    }

    #[test]
    fn sib1_and_rrc_round_trip_through_codec() {
        for cfg in [
            CellConfig::srsran_n41(),
            CellConfig::mosolab_n48(),
            CellConfig::amarisoft_n78(),
            CellConfig::tmobile_n25(),
            CellConfig::tmobile_n71(),
        ] {
            let sib = cfg.sib1();
            assert_eq!(Sib1::decode(&sib.encode()), Ok(sib));
            let setup = cfg.rrc_setup();
            assert_eq!(RrcSetup::decode(&setup.encode()).unwrap(), setup);
        }
    }

    #[test]
    fn mib_points_at_coreset0() {
        let cfg = CellConfig::srsran_n41();
        let mib = cfg.mib(77);
        assert_eq!(mib.coreset0(), cfg.coreset);
        assert_eq!(mib.sfn, 77);
    }
}
