//! System Information Block 1 (38.331 `SIB1`): the cell-common
//! configuration NR-Scope acquires in step 1 of Fig 2.
//!
//! SIB1 "carries common information about the cell, including physical
//! channel configuration and all the information a UE may need for the
//! RACH processing" (paper §3.1.1). For the sniffer the key contents are
//! the carrier layout, the TDD pattern, the common PDCCH search-space
//! configuration and the RACH configuration — everything that lets it stop
//! blind-searching.

use crate::rach::RachConfigCommon;
use crate::DecodeError;
use nr_phy::bits::{BitReader, BitWriter};
use nr_phy::frame::TddPattern;
use nr_phy::numerology::SYMBOLS_PER_SLOT;
use nr_phy::Numerology;
use serde::{Deserialize, Serialize};

/// Duplexing arrangement broadcast in SIB1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Duplex {
    /// Frequency-division duplex (the paper's T-Mobile cells).
    Fdd,
    /// Time-division duplex with a `DDDDDDDSUU`-family pattern.
    Tdd,
}

/// SIB1 contents (the subset the telemetry pipeline consumes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sib1 {
    /// NR cell identity (36 bits in the spec; carried whole here).
    pub cell_id: u64,
    /// Carrier numerology.
    pub numerology: Numerology,
    /// Carrier width in PRBs.
    pub carrier_prbs: u16,
    /// Duplex mode.
    pub duplex: Duplex,
    /// TDD pattern (ignored for FDD: decoded as all-downlink).
    pub tdd: TddPattern,
    /// Initial-BWP id used for common signalling (paper: commercial cells
    /// use BWP 1, the private cells BWP 0).
    pub initial_bwp_id: u8,
    /// Common RACH configuration.
    pub rach: RachConfigCommon,
    /// SI scheduling period in frames (SIB1 repeats every N frames).
    pub si_period_frames: u8,
}

impl Sib1 {
    /// Encoded size in bits (the codec is fixed-width).
    pub const BITS: usize = 36 + 2 + 9 + 1 + 5 + 5 + 5 + 4 + 4 + 2 + RachConfigCommon::BITS + 6;

    /// Encode to the byte-carrying PDSCH payload bit string.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.put(self.cell_id, 36);
        w.put(self.numerology.mu() as u64, 2);
        w.put(self.carrier_prbs as u64, 9);
        w.put_bool(matches!(self.duplex, Duplex::Tdd));
        w.put(self.tdd.period_slots as u64, 5);
        w.put(self.tdd.dl_slots as u64, 5);
        w.put(self.tdd.ul_slots as u64, 5);
        w.put(self.tdd.special_dl_symbols as u64, 4);
        w.put(self.tdd.special_ul_symbols as u64, 4);
        w.put(self.initial_bwp_id as u64, 2);
        self.rach.encode_to(&mut w);
        w.put(self.si_period_frames as u64, 6);
        w.into_bits()
    }

    /// Decode from bits, rejecting oversized payloads outright (length
    /// cap — trailing bits would otherwise be silently ignored).
    pub fn decode(bits: &[u8]) -> Result<Sib1, DecodeError> {
        if bits.len() > Self::BITS {
            return Err(DecodeError::Oversized {
                max_bits: Self::BITS,
                got_bits: bits.len(),
            });
        }
        let mut r = BitReader::new(bits);
        let cell_id = r.get(36).ok_or(DecodeError::Truncated)?;
        let mu = r.get(2).ok_or(DecodeError::Truncated)? as u32;
        let numerology = Numerology::from_mu(mu).ok_or(DecodeError::InvalidField("numerology"))?;
        let carrier_prbs = r.get(9).ok_or(DecodeError::Truncated)? as u16;
        if carrier_prbs == 0 || carrier_prbs > 275 {
            return Err(DecodeError::InvalidField("carrier_prbs"));
        }
        let is_tdd = r.get_bool().ok_or(DecodeError::Truncated)?;
        let period_slots = r.get(5).ok_or(DecodeError::Truncated)? as usize;
        let dl_slots = r.get(5).ok_or(DecodeError::Truncated)? as usize;
        let ul_slots = r.get(5).ok_or(DecodeError::Truncated)? as usize;
        let special_dl_symbols = r.get(4).ok_or(DecodeError::Truncated)? as usize;
        let special_ul_symbols = r.get(4).ok_or(DecodeError::Truncated)? as usize;
        // A period that does not tile the frame, or a special slot of more
        // than 14 symbols, is a pattern no slot can be placed in.
        if period_slots == 0
            || dl_slots + ul_slots > period_slots
            || numerology.slots_per_frame() % period_slots != 0
            || special_dl_symbols + special_ul_symbols > SYMBOLS_PER_SLOT
        {
            return Err(DecodeError::InvalidField("tdd"));
        }
        let tdd = TddPattern {
            period_slots,
            dl_slots,
            ul_slots,
            special_dl_symbols,
            special_ul_symbols,
        };
        let initial_bwp_id = r.get(2).ok_or(DecodeError::Truncated)? as u8;
        let rach = RachConfigCommon::decode_from(&mut r)?;
        let si_period_frames = r.get(6).ok_or(DecodeError::Truncated)? as u8;
        Ok(Sib1 {
            cell_id,
            numerology,
            carrier_prbs,
            duplex: if is_tdd { Duplex::Tdd } else { Duplex::Fdd },
            tdd,
            initial_bwp_id,
            rach,
            si_period_frames,
        })
    }

    /// Effective downlink pattern: FDD cells behave as all-downlink on the
    /// DL carrier NR-Scope listens to.
    pub fn effective_pattern(&self) -> TddPattern {
        match self.duplex {
            Duplex::Fdd => TddPattern::fdd(),
            Duplex::Tdd => self.tdd.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Sib1 {
        Sib1 {
            cell_id: 0x1_9284_6ABC,
            numerology: Numerology::Mu1,
            carrier_prbs: 51,
            duplex: Duplex::Tdd,
            tdd: TddPattern::dddddddsuu(),
            initial_bwp_id: 0,
            rach: RachConfigCommon::typical(),
            si_period_frames: 16,
        }
    }

    #[test]
    fn round_trip() {
        let sib = sample();
        assert_eq!(Sib1::decode(&sib.encode()), Ok(sib));
    }

    #[test]
    fn fdd_round_trip_uses_fdd_pattern() {
        let mut sib = sample();
        sib.duplex = Duplex::Fdd;
        sib.numerology = Numerology::Mu0;
        sib.carrier_prbs = 52;
        let back = Sib1::decode(&sib.encode()).unwrap();
        assert_eq!(back.duplex, Duplex::Fdd);
        assert_eq!(back.effective_pattern(), TddPattern::fdd());
    }

    #[test]
    fn invalid_tdd_rejected() {
        let mut sib = sample();
        sib.tdd.dl_slots = 20;
        sib.tdd.period_slots = 10;
        assert_eq!(
            Sib1::decode(&sib.encode()),
            Err(DecodeError::InvalidField("tdd"))
        );
    }

    #[test]
    fn tdd_period_that_does_not_tile_the_frame_rejected() {
        // 20 slots a frame at µ=1: a 10- or 20-slot period tiles it, 8 not.
        let mut sib = sample();
        sib.tdd.period_slots = 8;
        assert_eq!(
            Sib1::decode(&sib.encode()),
            Err(DecodeError::InvalidField("tdd"))
        );
        sib.tdd.period_slots = 20;
        assert!(Sib1::decode(&sib.encode()).is_ok());
    }

    #[test]
    fn special_slot_of_more_than_14_symbols_rejected() {
        let mut sib = sample();
        (sib.tdd.special_dl_symbols, sib.tdd.special_ul_symbols) = (10, 5);
        assert_eq!(
            Sib1::decode(&sib.encode()),
            Err(DecodeError::InvalidField("tdd"))
        );
        (sib.tdd.special_dl_symbols, sib.tdd.special_ul_symbols) = (10, 4);
        assert!(Sib1::decode(&sib.encode()).is_ok());
    }

    #[test]
    fn oversized_carrier_rejected() {
        let mut sib = sample();
        sib.carrier_prbs = 276;
        assert!(Sib1::decode(&sib.encode()).is_err());
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut bits = sample().encode();
        assert_eq!(bits.len(), Sib1::BITS, "encode matches the cap");
        bits.push(0);
        assert!(matches!(
            Sib1::decode(&bits),
            Err(DecodeError::Oversized { .. })
        ));
    }

    #[test]
    fn truncation_detected() {
        let bits = sample().encode();
        for cut in [0usize, 5, 36, 60] {
            assert!(Sib1::decode(&bits[..cut]).is_err());
        }
    }

    #[test]
    fn commercial_bwp1_round_trips() {
        // T-Mobile cells use BWP 1 (paper §5.1).
        let mut sib = sample();
        sib.initial_bwp_id = 1;
        assert_eq!(Sib1::decode(&sib.encode()).unwrap().initial_bwp_id, 1);
    }
}
