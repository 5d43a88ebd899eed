//! Shared identifier types used across the PHY, MAC and telemetry layers.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A Radio Network Temporary Identifier — the 16-bit handle the RAN uses to
/// address one UE (or one broadcast function) on the air interface.
///
/// NR-Scope's central trick (paper §3.1.2) is recovering these from the CRC
/// scrambling of MSG 4 DCIs, after which it can blind-decode every DCI the
/// cell sends to that UE.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct Rnti(pub u16);

impl Rnti {
    /// SI-RNTI: scrambles DCIs scheduling system information (SIB1). Fixed
    /// value 0xFFFF per 38.321 §7.1.
    pub const SI: Rnti = Rnti(0xFFFF);
    /// Paging RNTI (unused by the telemetry pipeline but reserved).
    pub const P: Rnti = Rnti(0xFFFE);

    /// First value of the dynamically assignable C-RNTI range.
    pub const C_RNTI_FIRST: u16 = 0x0001;
    /// Last value of the dynamically assignable C-RNTI range (38.321 §7.1
    /// reserves the top of the space for SI/P/RA-RNTI).
    pub const C_RNTI_LAST: u16 = 0xFFEF;

    /// RA-RNTI for a PRACH occasion (38.321 §5.1.3). Identifies the random
    /// access response (MSG 2) on the PDCCH.
    ///
    /// `ra_rnti = 1 + s_id + 14*t_id + 14*80*f_id + 14*80*8*ul_carrier_id`
    pub fn ra_rnti(s_id: u32, t_id: u32, f_id: u32, ul_carrier_id: u32) -> Rnti {
        debug_assert!(s_id < 14 && t_id < 80 && f_id < 8 && ul_carrier_id < 2);
        Rnti((1 + s_id + 14 * t_id + 14 * 80 * f_id + 14 * 80 * 8 * ul_carrier_id) as u16)
    }

    /// Whether this value lies in the dynamically assigned C-RNTI range.
    pub fn is_c_rnti_range(self) -> bool {
        self.0 >= Self::C_RNTI_FIRST && self.0 <= Self::C_RNTI_LAST
    }
}

impl fmt::Display for Rnti {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:04x}", self.0)
    }
}

/// The hasher of every map the slot path reads, keyed by small integers:
/// RNTIs and `(c_init, length)` pairs. Std's randomly seeded SipHash took
/// about a third of a rejected RNTI hypothesis's time. Each integer is
/// folded in by a rotate-xor-multiply step, and `finish` applies
/// splitmix64's finalizer, so every key bit reaches the low bits a table
/// picks its bucket by. It is unseeded: each such map keyed by RNTIs an
/// attacker can choose is bounded in size (DESIGN.md, "Untrusted input").
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedHasher(u64);

impl FixedHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.fold(u64::from(b)));
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.fold(u64::from(n));
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.fold(u64::from(n));
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A `HashMap` under [`FixedHasher`] (build one with `default()`).
pub type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FixedHasher>>;
/// A `HashSet` under [`FixedHasher`] (build one with `default()`).
pub type HashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FixedHasher>>;

/// What role an RNTI plays when scrambling a given DCI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RntiType {
    /// Cell RNTI: a connected UE's identity.
    C,
    /// Temporary C-RNTI assigned in MSG 2, promoted to C-RNTI after MSG 4.
    Tc,
    /// Random-access RNTI (addresses MSG 2).
    Ra,
    /// System-information RNTI (addresses SIB scheduling).
    Si,
    /// Paging RNTI.
    P,
}

impl fmt::Display for RntiType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RntiType::C => "C-RNTI",
            RntiType::Tc => "TC-RNTI",
            RntiType::Ra => "RA-RNTI",
            RntiType::Si => "SI-RNTI",
            RntiType::P => "P-RNTI",
        };
        f.write_str(s)
    }
}

/// Physical cell identity, 0..=1007 (= 3·NID1 + NID2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Pci(pub u16);

impl Pci {
    /// Construct from the SSS group (NID1, 0..=335) and PSS index (NID2, 0..=2).
    pub fn from_parts(nid1: u16, nid2: u16) -> Pci {
        debug_assert!(nid1 < 336 && nid2 < 3);
        Pci(3 * nid1 + nid2)
    }

    /// NID2 component (selects the PSS sequence).
    pub fn nid2(self) -> u16 {
        self.0 % 3
    }

    /// NID1 component (selects the SSS sequence).
    pub fn nid1(self) -> u16 {
        self.0 / 3
    }
}

impl fmt::Display for Pci {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PCI {}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn ra_rnti_formula_matches_spec_example() {
        // s_id=0, t_id=0, f_id=0, ul_carrier=0 → 1
        assert_eq!(Rnti::ra_rnti(0, 0, 0, 0), Rnti(1));
        // s_id=2, t_id=3, f_id=1 → 1 + 2 + 42 + 1120 = 1165
        assert_eq!(Rnti::ra_rnti(2, 3, 1, 0), Rnti(1165));
    }

    #[test]
    fn c_rnti_range_excludes_reserved() {
        assert!(!Rnti::SI.is_c_rnti_range());
        assert!(!Rnti::P.is_c_rnti_range());
        assert!(!Rnti(0).is_c_rnti_range());
        assert!(Rnti(0x4601).is_c_rnti_range());
    }

    #[test]
    fn fixed_hasher_spreads_the_keys_an_adversary_would_pick() {
        // Distinct values of the low byte hashbrown picks a bucket by. A
        // random function puts n keys in 256·(1 − (255/256)ⁿ) of them: 162
        // for 256 keys, 251 for 1,024. Without the finalizer the fold alone
        // puts RNTIs sharing a low byte in 1, and the memo keys in 32.
        fn low_bytes<K: std::hash::Hash>(keys: impl Iterator<Item = K>) -> usize {
            let build = BuildHasherDefault::<FixedHasher>::default();
            let mut seen: Vec<u64> = keys.map(|k| build.hash_one(k) & 0xff).collect();
            seen.sort_unstable();
            seen.dedup();
            seen.len()
        }
        let cinit = |r: u16| crate::sequence::pdcch_scrambling_cinit(r, 500);
        let low_byte_shared = low_bytes((0..=255u16).map(|k| Rnti(k << 8)));
        let high_byte_shared = low_bytes((0..=255u16).map(|k| Rnti(0x4600 | k)));
        let memo_keys = low_bytes((1..=1024).map(|r| (cinit(r), 140usize)));
        assert!(low_byte_shared >= 128, "{low_byte_shared} of 256 keys");
        assert!(high_byte_shared >= 128, "{high_byte_shared} of 256 keys");
        assert!(memo_keys >= 200, "{memo_keys} of 1,024 keys");
    }

    #[test]
    fn pci_round_trips() {
        for pci in [0u16, 1, 2, 3, 500, 1007] {
            let p = Pci(pci);
            assert_eq!(Pci::from_parts(p.nid1(), p.nid2()), p);
        }
    }
}
