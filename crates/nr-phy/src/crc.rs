//! CRC family from 38.212 §5.1 plus the DCI attachment/scrambling procedure.
//!
//! The CRC layer is load-bearing for NR-Scope: MSG 4 DCIs are transmitted in
//! plain text with a CRC whose last 16 bits are XOR-scrambled by the
//! TC-RNTI. NR-Scope recomputes the CRC over the received plain text and
//! XORs it against the received scrambled CRC to *recover the C-RNTI*
//! (paper §3.1.2) — so these polynomials must match the transmitter
//! bit-for-bit.

/// A bit-serial CRC definition (MSB-first over a bit slice).
#[derive(Debug, Clone, Copy)]
pub struct Crc {
    /// Generator polynomial with the implicit leading 1 removed.
    pub poly: u32,
    /// CRC length in bits.
    pub len: u32,
}

/// CRC24A, `g(D) = D^24+D^23+D^18+D^17+D^14+D^11+D^10+D^7+D^6+D^5+D^4+D^3+D+1`.
pub const CRC24A: Crc = Crc {
    poly: 0x864CFB,
    len: 24,
};
/// CRC24B, used on LDPC code-block segments.
pub const CRC24B: Crc = Crc {
    poly: 0x800063,
    len: 24,
};
/// CRC24C, used on the DCI / polar path (38.212 §5.1).
pub const CRC24C: Crc = Crc {
    poly: 0xB2B117,
    len: 24,
};
/// CRC16, `g(D) = D^16+D^12+D^5+1` (CCITT).
pub const CRC16: Crc = Crc {
    poly: 0x1021,
    len: 16,
};
/// CRC11, used on small uplink control payloads.
pub const CRC11: Crc = Crc {
    poly: 0x621,
    len: 11,
};
/// CRC6, used on the smallest UCI payloads.
pub const CRC6: Crc = Crc { poly: 0x21, len: 6 };

impl Crc {
    /// Compute the CRC over `bits` (each element 0/1), MSB-first.
    pub fn compute(&self, bits: &[u8]) -> u32 {
        self.update(0, bits)
    }

    /// Shift `bits` into `reg`, MSB-first; [`Crc::compute`] starts at zero.
    pub const fn update(&self, mut reg: u32, bits: &[u8]) -> u32 {
        let top = 1u32 << (self.len - 1);
        let mask = if self.len == 32 {
            u32::MAX
        } else {
            (1u32 << self.len) - 1
        };
        let mut i = 0;
        while i < bits.len() {
            debug_assert!(bits[i] <= 1);
            let fb = ((reg & top) != 0) as u32 ^ bits[i] as u32;
            reg <<= 1;
            if fb != 0 {
                reg ^= self.poly;
            }
            reg &= mask;
            i += 1;
        }
        reg
    }

    /// Append the CRC of `bits` to `bits` and return the combined vector.
    pub fn attach(&self, bits: &[u8]) -> Vec<u8> {
        let crc = self.compute(bits);
        let mut out = bits.to_vec();
        out.extend(crc_to_bits(crc, self.len));
        out
    }

    /// Check a codeword whose last `self.len` bits are the CRC; returns the
    /// payload on success.
    pub fn check<'a>(&self, codeword: &'a [u8]) -> Option<&'a [u8]> {
        if codeword.len() < self.len as usize {
            return None;
        }
        let (payload, rx_crc) = codeword.split_at(codeword.len() - self.len as usize);
        if self.compute(payload) == bits_to_crc(rx_crc) {
            Some(payload)
        } else {
            None
        }
    }
}

/// Expand a CRC register to MSB-first bits.
pub fn crc_to_bits(crc: u32, len: u32) -> Vec<u8> {
    (0..len).rev().map(|i| ((crc >> i) & 1) as u8).collect()
}

/// Collapse MSB-first bits back to a register value.
pub fn bits_to_crc(bits: &[u8]) -> u32 {
    bits.iter().fold(0u32, |acc, &b| (acc << 1) | b as u32)
}

/// The CRC24C register once the 24 one-bits that precede every DCI payload
/// (38.212 §7.3.2) have gone through it.
const DCI_CRC_INIT: u32 = CRC24C.update(0, &[1; 24]);

/// Attach the DCI CRC per 38.212 §7.3.2: compute CRC24C over the payload
/// preceded by 24 one-bits, then XOR the *last 16* CRC bits with the RNTI.
///
/// Returns `payload ‖ scrambled CRC24` — exactly the bit string that enters
/// the polar encoder on the gNB side.
pub fn dci_attach_crc(payload: &[u8], rnti: u16) -> Vec<u8> {
    let mut crc_bits = crc_to_bits(CRC24C.update(DCI_CRC_INIT, payload), 24);
    scramble_crc_with_rnti(&mut crc_bits, rnti);
    let mut out = payload.to_vec();
    out.append(&mut crc_bits);
    out
}

/// XOR the last 16 bits of a 24-bit CRC with the RNTI (MSB-first).
pub fn scramble_crc_with_rnti(crc_bits: &mut [u8], rnti: u16) {
    debug_assert_eq!(crc_bits.len(), 24);
    for i in 0..16 {
        crc_bits[8 + i] ^= ((rnti >> (15 - i)) & 1) as u8;
    }
}

/// `CRC24C` from `init` over all but the last 24 bits, XOR those 24 bits.
fn crc24c_syndrome(init: u32, bits: &[u8]) -> Option<u32> {
    let (head, tail) = bits.split_at(bits.len().checked_sub(24)?);
    Some(CRC24C.update(init, head) ^ bits_to_crc(tail))
}

/// The syndrome of a received DCI codeword: the CRC recomputed over its
/// payload XOR the CRC it carries (`None` under 24 bits). It answers every
/// RNTI hypothesis at once: the codeword checks against RNTI `r` exactly
/// when the syndrome equals `r`.
pub fn dci_syndrome(codeword: &[u8]) -> Option<u32> {
    crc24c_syndrome(DCI_CRC_INIT, codeword)
}

/// What scrambling with `seq` does to a syndrome. The CRC is GF(2)-linear,
/// so for equal lengths `dci_syndrome(a ⊕ seq) = dci_syndrome(a) ⊕ this`:
/// a codeword's syndrome under any descrambling costs one XOR.
pub fn dci_scrambling_syndrome(seq: &[u8]) -> Option<u32> {
    crc24c_syndrome(0, seq)
}

/// Validate a received DCI codeword against a hypothesised RNTI: the DCI
/// payload bits if the descrambled CRC matches.
pub fn dci_check_crc(codeword: &[u8], rnti: u16) -> Option<&[u8]> {
    (dci_syndrome(codeword)? == rnti as u32).then(|| &codeword[..codeword.len() - 24])
}

/// Recover the RNTI from a correctly received DCI codeword *without knowing
/// the RNTI in advance* — the paper's §3.1.2 C-RNTI discovery trick: the
/// transmitter sent `CRC(payload) ⊕ (0^8 ‖ rnti)`, so the syndrome is the
/// RNTI. Its high 8 bits must be zero, an 8-bit confidence check against
/// false positives (callers typically add further consistency checks).
pub fn dci_recover_rnti(codeword: &[u8]) -> Option<u16> {
    u16::try_from(dci_syndrome(codeword)?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits_of(s: &str) -> Vec<u8> {
        s.bytes().map(|b| b - b'0').collect()
    }

    #[test]
    fn scrambling_moves_the_syndrome_by_the_sequence_s_own() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        for len in (0..200).chain([864]) {
            let mut bits = |n| -> Vec<u8> { (0..n).map(|_| rng.gen_range(0..2u8)).collect() };
            let (a, seq) = (bits(len), bits(len));
            let mixed: Vec<u8> = a.iter().zip(&seq).map(|(x, y)| x ^ y).collect();
            let moved = dci_syndrome(&a).zip(dci_scrambling_syndrome(&seq));
            assert_eq!(dci_syndrome(&mixed), moved.map(|(s, l)| s ^ l), "{len}");
            assert_eq!(dci_syndrome(&a).is_some(), len >= 24);
        }
    }

    #[test]
    fn crc_of_empty_is_zero() {
        assert_eq!(CRC24C.compute(&[]), 0);
        assert_eq!(CRC16.compute(&[]), 0);
    }

    #[test]
    fn crc_detects_single_bit_flip() {
        let data = bits_of("110100111010110010100101010011110000");
        for crc in [CRC24A, CRC24B, CRC24C, CRC16, CRC11, CRC6] {
            let cw = crc.attach(&data);
            assert!(crc.check(&cw).is_some());
            for i in 0..cw.len() {
                let mut bad = cw.clone();
                bad[i] ^= 1;
                assert!(crc.check(&bad).is_none(), "missed flip at {i}");
            }
        }
    }

    #[test]
    fn crc16_known_vector() {
        // CRC-16/CCITT of ASCII "123456789" bit-serial MSB-first with zero
        // init is the classic XMODEM check value 0x31C3.
        let bits: Vec<u8> = b"123456789"
            .iter()
            .flat_map(|&byte| (0..8).rev().map(move |i| (byte >> i) & 1))
            .collect();
        assert_eq!(CRC16.compute(&bits), 0x31C3);
    }

    #[test]
    fn dci_crc_round_trip_with_rnti() {
        let payload = bits_of("1010011101010101010101110010101010101010");
        let rnti = 0x4601;
        let cw = dci_attach_crc(&payload, rnti);
        assert_eq!(cw.len(), payload.len() + 24);
        assert_eq!(dci_check_crc(&cw, rnti), Some(&payload[..]));
        // Wrong RNTI must fail.
        assert!(dci_check_crc(&cw, 0x4602).is_none());
    }

    #[test]
    fn rnti_recovery_matches_paper_trick() {
        // The §3.1.2 mechanism: recover the RNTI by XOR of local CRC with
        // the received scrambled CRC, for arbitrary payloads and RNTIs.
        for rnti in [0x0001u16, 0x4296, 0x4601, 0xFFEF] {
            let payload = bits_of("011011100101110001010010101010101010101");
            let cw = dci_attach_crc(&payload, rnti);
            assert_eq!(dci_recover_rnti(&cw), Some(rnti));
        }
    }

    #[test]
    fn rnti_recovery_rejects_corrupted_codeword() {
        let payload = bits_of("0110111001011100010100101010101010101010");
        let mut cw = dci_attach_crc(&payload, 0x4296);
        // Corrupt an unscrambled CRC bit: detection must fail (high 8 bits
        // are the confidence check).
        let n = cw.len();
        cw[n - 24] ^= 1;
        assert_eq!(dci_recover_rnti(&cw), None);
    }

    #[test]
    fn crc24c_sample_dci_is_stable() {
        // Regression pin so the polynomial can't silently change: value
        // computed by this implementation on first run and cross-checked
        // against an independent straightforward long-division routine.
        let payload = bits_of("1111000011001010");
        let mut padded = vec![1u8; 24];
        padded.extend_from_slice(&payload);
        let reference = long_division_crc(&padded, 0xB2B117, 24);
        assert_eq!(CRC24C.compute(&padded), reference);
    }

    /// Naive polynomial long-division CRC, used only as a test oracle.
    fn long_division_crc(bits: &[u8], poly: u32, len: u32) -> u32 {
        let mut msg: Vec<u8> = bits.to_vec();
        msg.extend(std::iter::repeat_n(0, len as usize));
        let gen_bits: Vec<u8> = std::iter::once(1)
            .chain((0..len).rev().map(|i| ((poly >> i) & 1) as u8))
            .collect();
        for i in 0..bits.len() {
            if msg[i] == 1 {
                for (j, &g) in gen_bits.iter().enumerate() {
                    msg[i + j] ^= g;
                }
            }
        }
        bits_to_crc(&msg[bits.len()..])
    }
}
