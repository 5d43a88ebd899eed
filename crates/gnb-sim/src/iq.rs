//! IQ-fidelity rendering: turn a [`SlotOutput`] into a slot resource grid
//! and time-domain samples — the waveform the paper's USRP receives.
//!
//! The PDCCH path is bit-exact: each DCI is CRC+RNTI-scrambled, polar
//! encoded, Gold-scrambled, QPSK modulated and mapped onto its CCEs with
//! DMRS pilots. The SSB carries real PSS/SSS sequences plus the
//! polar-coded MIB. PDSCH regions are filled with unit-power filler QPSK
//! (payload content is abstracted; occupancy is real so REG counting and
//! spare-capacity analysis see the true grid).

use crate::cell::CellConfig;
use crate::gnb::{SlotOutput, TxDci};
use nr_phy::complex::Cf32;
use nr_phy::crc::dci_attach_crc;
use nr_phy::grid::ResourceGrid;
use nr_phy::modulation::{modulate, Modulation};
use nr_phy::ofdm::Ofdm;
use nr_phy::pdcch::{encode_pdcch, PdcchAllocation};
use nr_phy::polar::PolarCode;
use nr_phy::sequence::gold_bits;
use nr_phy::sync::{pss_sequence, sss_sequence, SYNC_SEQ_LEN};
use nr_phy::types::Pci;

/// Number of bits the PBCH carries after polar coding (E for the MIB).
pub const PBCH_E_BITS: usize = 864;

/// Renders slots of one cell to IQ.
pub struct IqRenderer {
    cfg: CellConfig,
    ofdm: Ofdm,
}

impl IqRenderer {
    /// Build a renderer for a cell.
    pub fn new(cfg: &CellConfig) -> IqRenderer {
        IqRenderer {
            ofdm: Ofdm::new(cfg.numerology, cfg.carrier_prbs),
            cfg: cfg.clone(),
        }
    }

    /// The OFDM configuration (FFT size, sample rate) in use.
    pub fn ofdm(&self) -> &Ofdm {
        &self.ofdm
    }

    /// Render a slot to its resource grid.
    pub fn render_grid(&self, out: &SlotOutput) -> ResourceGrid {
        let mut grid = ResourceGrid::new(self.cfg.carrier_prbs);
        if let Some(mib) = &out.mib {
            self.map_ssb(&mut grid, &mib.encode(), out.pci);
        }
        for dci in &out.dcis {
            self.map_dci(&mut grid, dci, out.slot_in_frame, out.pci);
        }
        for dci in &out.dcis {
            // Only downlink data regions occupy the DL grid.
            if dci.alloc.format == nr_phy::dci::DciFormat::Dl1_1 {
                self.fill_pdsch(&mut grid, dci);
            }
        }
        grid
    }

    /// Render a slot to time-domain samples.
    pub fn render_iq(&self, out: &SlotOutput) -> Vec<Cf32> {
        let grid = self.render_grid(out);
        self.ofdm.modulate(&grid, out.slot_in_frame)
    }

    /// Map the SS/PBCH block: PSS on symbol 0, SSS on symbol 2, polar-coded
    /// MIB (PBCH) filling symbols 1–3 around them. The paper's tool uses
    /// this block for cell search and MIB acquisition (§3.1.1).
    fn map_ssb(&self, grid: &mut ResourceGrid, mib_bits: &[u8], pci: Pci) {
        let n_sc = grid.n_subcarriers();
        // SSB occupies 240 subcarriers (20 PRBs) centred in the carrier.
        let ssb_width = 240.min(n_sc);
        let base = (n_sc - ssb_width) / 2;
        // PSS at symbol 0, centred 127 subcarriers.
        let pss = pss_sequence(pci.nid2());
        let sync_base = base + (ssb_width - SYNC_SEQ_LEN) / 2;
        for (i, s) in pss.iter().enumerate() {
            grid.set(0, sync_base + i, *s);
        }
        // SSS at symbol 2.
        let sss = sss_sequence(pci);
        for (i, s) in sss.iter().enumerate() {
            grid.set(2, sync_base + i, *s);
        }
        // PBCH: MIB + CRC24C, polar coded to E bits, QPSK, mapped across
        // symbols 1 and 3 (and the SSS symbol's side PRBs are left empty —
        // a simplification of the 38.211 PBCH RE layout).
        let cw = dci_attach_crc(mib_bits, 0); // PBCH CRC is unscrambled (RNTI 0)
        let code = PolarCode::new(cw.len(), PBCH_E_BITS);
        let mut bits = code.encode(&cw);
        // Cell-scoped scrambling so neighbouring cells don't alias.
        let scr = gold_bits(pci.0 as u32, bits.len());
        for (b, s) in bits.iter_mut().zip(scr) {
            *b ^= s;
        }
        let syms = modulate(&bits, Modulation::Qpsk);
        let per_symbol = ssb_width;
        for (i, s) in syms.iter().enumerate() {
            let (sym, k) = if i < per_symbol {
                (1, i)
            } else {
                (3, i - per_symbol)
            };
            if k < ssb_width {
                grid.set(sym, base + k, *s);
            }
        }
    }

    /// Map one DCI through the full PDCCH encode chain.
    fn map_dci(&self, grid: &mut ResourceGrid, dci: &TxDci, slot_in_frame: usize, pci: Pci) {
        let alloc = PdcchAllocation {
            cce_start: dci.cce_start,
            level: dci.level,
            rnti: dci.rnti,
        };
        let ue_specific = dci.rnti_type == nr_phy::types::RntiType::C;
        let c_init = nr_phy::pdcch::search_space_cinit(dci.rnti, ue_specific, pci.0);
        encode_pdcch(
            grid,
            &self.cfg.coreset,
            &alloc,
            &dci.payload_bits,
            pci.0,
            c_init,
            slot_in_frame,
        );
    }

    /// Fill a grant's PDSCH region with filler QPSK so occupancy (REG
    /// counts, spare-capacity) is physically present on the grid.
    fn fill_pdsch(&self, grid: &mut ResourceGrid, dci: &TxDci) {
        let a = &dci.alloc;
        let seed = (a.rnti.0 as u32) << 8 | a.harq_id as u32;
        let n_res = a.prb_len * 12 * a.symbol_len;
        let bits = gold_bits(seed | 0x4000_0000, n_res * 2);
        let syms = modulate(&bits, Modulation::Qpsk);
        let mut it = syms.iter();
        for sym in a.symbol_start..a.symbol_start + a.symbol_len {
            for prb in a.prb_start..a.prb_start + a.prb_len {
                for k in ResourceGrid::reg_subcarriers(prb) {
                    if let Some(s) = it.next() {
                        grid.set(sym, k, *s);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellConfig;
    use crate::gnb::Gnb;
    use nr_mac::RoundRobin;
    use nr_phy::channel::ChannelProfile;
    use ue_sim::traffic::{TrafficKind, TrafficSource};
    use ue_sim::{MobilityScenario, SimUe};

    fn run_to_slot_with_dci() -> (CellConfig, SlotOutput) {
        let cfg = CellConfig::srsran_n41();
        let mut gnb = Gnb::new(cfg.clone(), Box::new(RoundRobin::new()), 3);
        gnb.ue_arrives(SimUe::new(
            1,
            ChannelProfile::Awgn,
            MobilityScenario::Static,
            TrafficSource::new(
                TrafficKind::Cbr {
                    rate_bps: 5e6,
                    packet_bytes: 1200,
                },
                1,
            ),
            0.0,
            10.0,
            1,
        ));
        for _ in 0..200 {
            let out = gnb.step();
            if out
                .dcis
                .iter()
                .any(|d| d.rnti_type == nr_phy::types::RntiType::C)
            {
                return (cfg, out);
            }
        }
        panic!("no data DCI within 200 slots");
    }

    #[test]
    fn rendered_slot_has_expected_sample_count() {
        let (cfg, out) = run_to_slot_with_dci();
        let r = IqRenderer::new(&cfg);
        let iq = r.render_iq(&out);
        assert_eq!(iq.len(), r.ofdm().samples_per_slot(out.slot_in_frame));
    }

    #[test]
    fn pdcch_res_are_occupied() {
        let (cfg, out) = run_to_slot_with_dci();
        let r = IqRenderer::new(&cfg);
        let grid = r.render_grid(&out);
        // The CORESET symbol must hold energy on the scheduled CCEs.
        let dci = &out.dcis[0];
        let regs = cfg.coreset.cce_regs(dci.cce_start);
        let (sym, prb) = regs[0];
        let energy: f32 = ResourceGrid::reg_subcarriers(prb)
            .map(|k| grid.get(sym, k).norm_sqr())
            .sum();
        assert!(energy > 1.0, "CCE REs empty");
    }

    #[test]
    fn pdsch_region_matches_grant() {
        let (cfg, out) = run_to_slot_with_dci();
        let r = IqRenderer::new(&cfg);
        let grid = r.render_grid(&out);
        let data_dci = out
            .dcis
            .iter()
            .find(|d| d.rnti_type == nr_phy::types::RntiType::C)
            .unwrap();
        let a = &data_dci.alloc;
        let occupied = grid.occupied_res(a.symbol_start..a.symbol_start + a.symbol_len);
        // At least the allocated REs are non-zero in those symbols.
        assert!(occupied >= a.prb_len * 12 * a.symbol_len);
    }

    #[test]
    fn ssb_slot_contains_pss() {
        let cfg = CellConfig::srsran_n41();
        let mut gnb = Gnb::new(cfg.clone(), Box::new(RoundRobin::new()), 4);
        let out = gnb.step(); // slot 0 of SFN 0 carries the SSB
        assert!(out.mib.is_some());
        let r = IqRenderer::new(&cfg);
        let grid = r.render_grid(&out);
        // Correlate symbol 0 against the cell's PSS.
        let n_sc = grid.n_subcarriers();
        let base = (n_sc - 240) / 2 + (240 - SYNC_SEQ_LEN) / 2;
        let rx: Vec<Cf32> = (0..SYNC_SEQ_LEN).map(|i| grid.get(0, base + i)).collect();
        let (nid2, corr) = nr_phy::sync::detect_pss(&rx);
        assert_eq!(nid2, cfg.pci.nid2());
        assert!(corr > 0.99);
    }
}
