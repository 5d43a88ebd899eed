//! Synchronisation signals: PSS and SSS (38.211 §7.4.2) and SSB detection.
//!
//! Cell search (paper §3.1.1, step 1 of Fig 2) starts by correlating against
//! the three possible PSS sequences to find the cell's NID2 and symbol
//! timing, then matching the SSS to recover NID1 — together the PCI — after
//! which the PBCH (MIB) can be decoded.

use crate::complex::Cf32;
use crate::types::Pci;
use std::sync::OnceLock;

/// Length of PSS and SSS sequences in subcarriers.
pub const SYNC_SEQ_LEN: usize = 127;

/// The three m-sequences of 38.211 §7.4.2 as BPSK symbols `1 − 2·x(i)`,
/// each written twice over so that a cyclic shift by `m < 127` is the
/// slice `[m..m + 127]`. Built once per process: every PSS and SSS, sent or
/// searched for, is read from here.
struct SyncTables {
    /// The PSS's `x(i+7) = x(i+4) + x(i)`, from `x(6..0) = 1110110`.
    pss: [f32; 2 * SYNC_SEQ_LEN],
    /// The SSS's `x0(i+7) = x0(i+4) + x0(i)`, from `x0(6..0) = 0000001`.
    x0: [f32; 2 * SYNC_SEQ_LEN],
    /// The SSS's `x1(i+7) = x1(i+1) + x1(i)`, from `x1(6..0) = 0000001`.
    x1: [f32; 2 * SYNC_SEQ_LEN],
}

fn tables() -> &'static SyncTables {
    static TABLES: OnceLock<SyncTables> = OnceLock::new();
    TABLES.get_or_init(|| SyncTables {
        pss: bpsk_m_sequence([0, 1, 1, 0, 1, 1, 1], 4),
        x0: bpsk_m_sequence([1, 0, 0, 0, 0, 0, 0], 4),
        x1: bpsk_m_sequence([1, 0, 0, 0, 0, 0, 0], 1),
    })
}

/// The m-sequence `x(i+7) = x(i+tap) + x(i)` from `x(0..7) = init`, as
/// BPSK symbols, written twice.
fn bpsk_m_sequence(init: [u8; 7], tap: usize) -> [f32; 2 * SYNC_SEQ_LEN] {
    let mut x = [0u8; SYNC_SEQ_LEN + 7];
    x[..7].copy_from_slice(&init);
    for i in 0..SYNC_SEQ_LEN {
        x[i + 7] = x[i + tap] ^ x[i];
    }
    std::array::from_fn(|i| 1.0 - 2.0 * x[i % SYNC_SEQ_LEN] as f32)
}

/// PSS sequence for `nid2` ∈ {0,1,2} as BPSK symbols `1-2·x(m)`,
/// `m = (n + 43·nid2) mod 127`.
pub fn pss_sequence(nid2: u16) -> Vec<Cf32> {
    assert!(nid2 < 3, "NID2 must be 0..3");
    let x = &tables().pss[43 * nid2 as usize..][..SYNC_SEQ_LEN];
    x.iter().map(|&s| Cf32::new(s, 0.0)).collect()
}

/// SSS sequence for a PCI (38.211 §7.4.2.3):
/// `d(n) = [1-2·x0((n+m0) mod 127)] · [1-2·x1((n+m1) mod 127)]` with
/// `m0 = 15·⌊NID1/112⌋ + 5·NID2`, `m1 = NID1 mod 112`.
pub fn sss_sequence(pci: Pci) -> Vec<Cf32> {
    let (t, nid1, nid2) = (tables(), pci.nid1() as usize, pci.nid2() as usize);
    let (m0, m1) = (15 * (nid1 / 112) + 5 * nid2, nid1 % 112);
    let d = |n: usize| Cf32::new(t.x0[n + m0] * t.x1[n + m1], 0.0);
    (0..SYNC_SEQ_LEN).map(d).collect()
}

/// Normalised correlation magnitude between a received sequence and a
/// reference (coherent dot product over energies).
pub fn correlate(rx: &[Cf32], reference: &[Cf32]) -> f32 {
    assert_eq!(rx.len(), reference.len());
    let dot = rx
        .iter()
        .zip(reference)
        .fold(Cf32::ZERO, |acc, (r, p)| acc + *r * p.conj());
    let e_rx: f32 = rx.iter().map(|v| v.norm_sqr()).sum();
    let e_ref: f32 = reference.iter().map(|v| v.norm_sqr()).sum();
    normalised(dot, e_rx, e_ref)
}

fn normalised(dot: Cf32, e_rx: f32, e_ref: f32) -> f32 {
    if e_rx <= 0.0 || e_ref <= 0.0 {
        return 0.0;
    }
    dot.abs() / (e_rx * e_ref).sqrt()
}

/// [`correlate`] of `rx` against `L` real ±1 references at once, `lane(n)`
/// their `n`th symbols: each lane's dot product is summed in `correlate`'s
/// order and with its operations — `acc + r·(s, −0.0)`, the conjugate of
/// `(s, 0.0)` — so every result is `correlate`'s to the bit, and the lanes
/// are independent sums the compiler can interleave. Every reference's
/// energy is 127 sums of `1.0`: exactly 127.
fn correlate_lanes<const L: usize>(rx: &[Cf32], lane: impl Fn(usize) -> [f32; L]) -> [f32; L] {
    assert_eq!(rx.len(), SYNC_SEQ_LEN);
    let (mut re, mut im) = ([0.0f32; L], [0.0f32; L]);
    for (n, r) in rx.iter().enumerate() {
        let s = lane(n);
        for l in 0..L {
            re[l] += r.re * s[l] - r.im * -0.0;
            im[l] += r.re * -0.0 + r.im * s[l];
        }
    }
    let e_rx: f32 = rx.iter().map(|v| v.norm_sqr()).sum();
    std::array::from_fn(|l| normalised(Cf32::new(re[l], im[l]), e_rx, SYNC_SEQ_LEN as f32))
}

/// The hypothesis of the highest correlation (the last of equals, as
/// `max_by` takes it), in `total_cmp`'s order.
fn best(corrs: impl Iterator<Item = (u16, f32)>) -> (u16, f32) {
    corrs.max_by(|a, b| a.1.total_cmp(&b.1)).unwrap_or((0, 0.0))
}

/// Detect NID2 from a received PSS block. Returns `(nid2, correlation)`.
pub fn detect_pss(rx: &[Cf32]) -> (u16, f32) {
    let x = &tables().pss;
    let corrs = correlate_lanes(rx, |n| [x[n], x[n + 43], x[n + 86]]);
    best((0..3).zip(corrs))
}

/// Detect NID1 from a received SSS block given NID2. Returns
/// `(nid1, correlation)`. Searches all 336 group hypotheses like a UE does
/// during initial cell search, eight at a time: NID1s `8g..8g + 8` share
/// `m0`, and their `x1` shifts are consecutive.
pub fn detect_sss(rx: &[Cf32], nid2: u16) -> (u16, f32) {
    assert!(nid2 < 3, "NID2 must be 0..3");
    let (t, nid2) = (tables(), nid2 as usize);
    let groups = (0..336).step_by(8).flat_map(|first: usize| {
        let (m0, m1) = (15 * (first / 112) + 5 * nid2, first % 112);
        let lanes = correlate_lanes::<8>(rx, |n| {
            let (a, b) = (t.x0[n + m0], &t.x1[n + m1..][..8]);
            std::array::from_fn(|l| a * b[l])
        });
        (first as u16..).zip(lanes)
    });
    best(groups)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pss_sequences_are_near_orthogonal() {
        for a in 0..3u16 {
            for b in 0..3u16 {
                let c = correlate(&pss_sequence(a), &pss_sequence(b));
                if a == b {
                    assert!((c - 1.0).abs() < 1e-5);
                } else {
                    assert!(c < 0.3, "PSS {a} vs {b}: {c}");
                }
            }
        }
    }

    #[test]
    fn sss_distinguishes_cells() {
        let a = sss_sequence(Pci::from_parts(10, 0));
        let b = sss_sequence(Pci::from_parts(11, 0));
        let c = sss_sequence(Pci::from_parts(10, 1));
        assert!(correlate(&a, &a) > 0.999);
        assert!(correlate(&a, &b) < 0.35);
        assert!(correlate(&a, &c) < 0.35);
    }

    #[test]
    fn pss_detection_under_noise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for nid2 in 0..3u16 {
            let clean = pss_sequence(nid2);
            let noisy: Vec<Cf32> = clean
                .iter()
                .map(|s| *s + Cf32::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)))
                .collect();
            let (det, corr) = detect_pss(&noisy);
            assert_eq!(det, nid2);
            assert!(corr > 0.7);
        }
    }

    #[test]
    fn full_pci_detection_round_trip() {
        for pci in [Pci(0), Pci(1), Pci(500), Pci(1007)] {
            let (nid2, _) = detect_pss(&pss_sequence(pci.nid2()));
            assert_eq!(nid2, pci.nid2());
            let (nid1, corr) = detect_sss(&sss_sequence(pci), nid2);
            assert_eq!(nid1, pci.nid1(), "pci {pci}");
            assert!(corr > 0.999);
        }
    }

    #[test]
    fn pss_detection_survives_phase_rotation() {
        // Channel phase must not break magnitude correlation.
        let rot = Cf32::from_angle(1.1);
        let rx: Vec<Cf32> = pss_sequence(2).iter().map(|s| *s * rot).collect();
        let (det, corr) = detect_pss(&rx);
        assert_eq!(det, 2);
        assert!(corr > 0.999);
    }
}
