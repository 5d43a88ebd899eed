//! Reference implementations the optimised kernels are compared with —
//! each one the body a kernel replaced, kept as it was written — and the
//! differential tests that do the comparing (those that need a kernel's
//! private parts sit beside it and call in here), and the check of the one
//! property a search relies on: TBS non-decreasing in `n_prb`, for
//! `nr_mac`'s span bisection. A kernel that computes its reference's
//! formula is compared bit for bit. Extraction changed the
//! formula (one-pass pilot sums, a closed-form demapper), and so did the
//! receiver noise (`nr_radio::noise`'s polynomials for libm), so their
//! references are compared within bounds derived here and in
//! `nr_radio::noise`, and at the decision level by `tests/golden.rs` —
//! which is why those references alone are compiled outside tests (hidden
//! from the docs, called by no binary); everything else here is
//! `#[cfg(test)]`. The one file CI's PHY line count leaves out: the count
//! is of the code the slot path runs.

use crate::complex::Cf32;
use crate::dmrs::{pdcch_dmrs, PilotEstimate, DMRS_OFFSETS};
use crate::grid::ResourceGrid;
use crate::numerology::SUBCARRIERS_PER_PRB;
use crate::pdcch::{AggregationLevel, CandidateSoftBits, Coreset};
use crate::sequence::gold_bits;
#[cfg(test)]
use crate::{
    crc::{
        bits_to_crc, crc_to_bits, dci_attach_crc, dci_check_crc, dci_recover_rnti,
        scramble_crc_with_rnti, CRC24C,
    },
    fft::Fft,
    mcs::{bler, select_mcs, McsTable, MCS_TABLE_256QAM, MCS_TABLE_64QAM},
    numerology::{Numerology, SYMBOLS_PER_SLOT},
    polar::construction::tests::cell_code_grid,
    polar::construction::{polarization_weight, reliability_order},
    polar::ratematch::{self, RateMatchKind},
    polar::{decode, encode, DecodeScratch, HardWord, PolarCode},
    sequence::{scramble_in_place, GoldSequence, NC},
    sync::{correlate, detect_pss, detect_sss, pss_sequence, sss_sequence, SYNC_SEQ_LEN},
    tbs::{transport_block_size, TbsParams},
    types::Pci,
};

/// Least-squares channel estimate from received pilots: averages
/// `rx/pilot` over the span, returning a single complex gain (flat-fading
/// estimate over the CORESET span — adequate at PDCCH bandwidths).
pub fn ls_channel_estimate(rx_pilots: &[Cf32], ref_pilots: &[Cf32]) -> Cf32 {
    assert_eq!(rx_pilots.len(), ref_pilots.len());
    assert!(!rx_pilots.is_empty());
    let sum = rx_pilots
        .iter()
        .zip(ref_pilots)
        .fold(Cf32::ZERO, |acc, (r, p)| acc + *r * p.conj());
    // Pilots are unit power so |p|² = 1 and the LS estimate is the mean.
    sum / rx_pilots.len() as f32
}

/// Estimate the residual noise variance after equalisation: mean
/// `|rx - h·pilot|²`.
pub fn noise_estimate(rx_pilots: &[Cf32], ref_pilots: &[Cf32], h: Cf32) -> f32 {
    assert_eq!(rx_pilots.len(), ref_pilots.len());
    if rx_pilots.is_empty() {
        return 0.0;
    }
    rx_pilots
        .iter()
        .zip(ref_pilots)
        .map(|(r, p)| (*r - h * *p).norm_sqr())
        .sum::<f32>()
        / rx_pilots.len() as f32
}

/// The QPSK demapper `modulation::demodulate_llr_into` had before the
/// closed form: the four distances of a symbol, each computed once, and
/// the generic search's minima taken in its order (to which it is equal
/// bit for bit).
pub fn qpsk_four_distance_llrs(symbols: &[Cf32], noise_var: f32, llrs: &mut Vec<f32>) {
    let k = std::f32::consts::FRAC_1_SQRT_2;
    let nv = noise_var.max(1e-9);
    let min = |a: f32, b: f32| f32::INFINITY.min(a).min(b);
    for &y in symbols {
        // Bits 00, 01, 10, 11: the first bit signs I, the second Q.
        let [d0, d1, d2, d3] =
            [(k, k), (k, -k), (-k, k), (-k, -k)].map(|(i, q)| (y - Cf32::new(i, q)).norm_sqr());
        llrs.push((min(d2, d3) - min(d0, d1)) / nv);
        llrs.push((min(d1, d3) - min(d0, d2)) / nv);
    }
}

/// The REGs of a candidate in mapping order, divided out one by one.
fn candidate_regs(
    coreset: &Coreset,
    cce_start: usize,
    level: AggregationLevel,
) -> impl Iterator<Item = (usize, usize)> + '_ {
    (cce_start..cce_start + level.cces()).flat_map(|cce| coreset.cce_regs(cce))
}

/// The two-pass estimator `pdcch::pilot_gate` replaced: gather the
/// candidate's received and reference pilots, LS gain, then the residual
/// at that gain, with the extraction's clamps.
pub fn candidate_estimate_oracle(
    grid: &ResourceGrid,
    coreset: &Coreset,
    cce_start: usize,
    level: AggregationLevel,
    n_id: u16,
    slot: usize,
) -> PilotEstimate {
    let (mut rx_pilots, mut ref_pilots) = (Vec::new(), Vec::new());
    for (sym, prb) in candidate_regs(coreset, cce_start, level) {
        let base = prb * SUBCARRIERS_PER_PRB;
        rx_pilots.extend(DMRS_OFFSETS.map(|k| grid.get(sym, base + k)));
        ref_pilots.extend(pdcch_dmrs(slot, sym, n_id, prb, 1));
    }
    let h = ls_channel_estimate(&rx_pilots, &ref_pilots);
    let noise_var = noise_estimate(&rx_pilots, &ref_pilots, h).max(1e-6);
    let snr = h.norm_sqr().max(1e-9) / noise_var;
    PilotEstimate { h, noise_var, snr }
}

/// `pdcch::extract_candidate` as it was: estimate, then gather the data
/// REs equalised (zero forcing; noise variance scales by 1/|h|²), demap
/// them, and descramble by flipping LLR signs where the scrambling bit
/// is 1 — three buffers, four passes.
pub fn extract_candidate_oracle(
    grid: &ResourceGrid,
    coreset: &Coreset,
    cce_start: usize,
    level: AggregationLevel,
    n_id: u16,
    c_init: u32,
    slot: usize,
) -> CandidateSoftBits {
    let est = candidate_estimate_oracle(grid, coreset, cce_start, level, n_id, slot);
    let h_inv = est.h.inv();
    let data_offsets = (0..SUBCARRIERS_PER_PRB).filter(|k| !DMRS_OFFSETS.contains(k));
    let mut eq = Vec::new();
    for (sym, prb) in candidate_regs(coreset, cce_start, level) {
        let base = prb * SUBCARRIERS_PER_PRB;
        eq.extend((data_offsets.clone()).map(|k| grid.get(sym, base + k) * h_inv));
    }
    let mut llrs = Vec::with_capacity(level.bits());
    let h_pow = est.h.norm_sqr().max(1e-9);
    qpsk_four_distance_llrs(&eq, est.noise_var / h_pow, &mut llrs);
    for (l, s) in llrs.iter_mut().zip(gold_bits(c_init, level.bits())) {
        if s == 1 {
            *l = -*l;
        }
    }
    CandidateSoftBits {
        llrs,
        pilot_snr: est.snr,
    }
}

/// Box–Muller through libm, sample by sample, as `nr_radio::VirtualUsrp`
/// and `channel::AwgnChannel` computed it before `nr_radio::noise`'s
/// kernel: `rx = tx + r·(cos u2, sin u2)`, `r = sqrt(−2·ln u1)·sigma`.
pub fn add_noise_libm(tx: &[Cf32], u1: &[f32], u2: &[f32], sigma: f32, rx: &mut [Cf32]) {
    for (rx, ((tx, u1), u2)) in rx.iter_mut().zip(tx.iter().zip(u1).zip(u2)) {
        let r = (-2.0 * u1.ln()).sqrt() * sigma;
        *rx = *tx + Cf32::new(r * u2.cos(), r * u2.sin());
    }
}

#[test]
fn ls_estimate_recovers_flat_channel() {
    let refs = pdcch_dmrs(1, 0, 42, 0, 6);
    let h = Cf32::from_polar(0.8, -1.2);
    let rx: Vec<Cf32> = refs.iter().map(|p| *p * h).collect();
    let est = ls_channel_estimate(&rx, &refs);
    assert!((est - h).abs() < 1e-5);
    assert!(noise_estimate(&rx, &refs, est) < 1e-9);
}

#[test]
fn noise_estimate_tracks_injected_noise() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(5);
    let refs = pdcch_dmrs(1, 0, 42, 0, 48);
    let sigma2 = 0.05f32;
    let rx: Vec<Cf32> = refs
        .iter()
        .map(|p| {
            let n = Cf32::new(
                rng.gen_range(-1.0..1.0) * (1.5 * sigma2).sqrt(),
                rng.gen_range(-1.0..1.0) * (1.5 * sigma2).sqrt(),
            );
            *p + n
        })
        .collect();
    let h = ls_channel_estimate(&rx, &refs);
    let nv = noise_estimate(&rx, &refs, h);
    // Uniform noise with that scaling has variance ≈ sigma2 per axis ×2.
    assert!(nv > 0.01 && nv < 0.25, "noise estimate {nv}");
}

/// A 51-PRB grid carrying one DCI at (`cce_start`, `level`) of `coreset`,
/// every CORESET RE through the flat channel `h` and, `snr_db` given,
/// complex Gaussian noise that far under the signal (libm's Box–Muller
/// over uniforms drawn `u1` then `u2` per RE).
#[cfg(test)]
fn heard(
    coreset: &Coreset,
    (cce_start, level): (usize, AggregationLevel),
    h: Cf32,
    snr_db: Option<f32>,
    seed: u64,
) -> ResourceGrid {
    use crate::pdcch::{encode_pdcch, PdcchAllocation};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::f32::consts::TAU;
    let mut grid = ResourceGrid::new(51);
    let alloc = PdcchAllocation {
        cce_start,
        level,
        rnti: crate::types::Rnti(0x4601),
    };
    let payload: Vec<u8> = (0..40).map(|i| ((i * 11 + 3) % 2) as u8).collect();
    encode_pdcch(&mut grid, coreset, &alloc, &payload, 500, 0x5A5A, 3);
    let sigma2 = snr_db.map_or(0.0, |db| h.norm_sqr() * 10f32.powf(-db / 10.0));
    let mut rng = StdRng::seed_from_u64(seed);
    for sym in coreset.symbol_start..coreset.symbol_start + coreset.n_symbols {
        let tx: Vec<Cf32> = grid.symbol(sym).iter().map(|re| *re * h).collect();
        let (u1, u2): (Vec<f32>, Vec<f32>) = (tx.iter())
            .map(|_| (rng.gen_range(f32::EPSILON..1.0), rng.gen_range(0.0..TAU)))
            .unzip();
        add_noise_libm(&tx, &u1, &u2, (sigma2 / 2.0).sqrt(), grid.symbol_mut(sym));
    }
    grid
}

/// One-, two- (off PRB 0, off symbol 0) and three-symbol CORESETs.
#[cfg(test)]
const CORESETS: [Coreset; 3] = [
    Coreset {
        prb_start: 0,
        n_prb: 48,
        symbol_start: 0,
        n_symbols: 1,
    },
    Coreset {
        prb_start: 6,
        n_prb: 24,
        symbol_start: 1,
        n_symbols: 2,
    },
    Coreset {
        prb_start: 0,
        n_prb: 48,
        symbol_start: 0,
        n_symbols: 3,
    },
];

/// The one-pass estimator (per-CCE `S = Σ rx·p*`, `R = Σ|rx|²`, added;
/// `h = S/n`, `σ² = (R − |S|²/n)/n`) against the two-pass one it
/// replaced. Both compute the same two quantities — the identity
/// `Σ|rx − h·p|² = R − |S|²/n` at `h = S/n` is exact for unit pilots — in a
/// different order, so they differ by rounding alone, and the bounds are
/// those of recursive summation over the accumulation length `n = 18·L ≤
/// 288` (first order in `ε = f32::EPSILON`, twice the unit roundoff `u`).
///
/// *Gain.* A term `rx·p*` is off by at most `2√2·u·|rx|`, a sum of `n` of
/// them taken in any order by at most `√2·(n − 1)·u·Σ|rx|`; each side's `S`
/// is so within `√2·(n + 1)·u·Σ|rx|` of the exact one, the two within twice
/// that of each other, and the division by `n` adds `u·|h|` a side. With
/// `Σ|rx|/n ≤ rms(rx)`: **`|h − h_ref| ≤ 1.5·(n + 2)·ε·rms(rx)`**. Under a
/// DCI heard at −3 dB or better `rms(rx)² = |h|²·(1 + 1/SNR) ≤ 3|h|²` in
/// expectation, which makes it `c·ε·|h|` with `c = 3·(n + 2)` (asserted
/// too; an empty position has no `|h|` to be relative to).
///
/// *Noise.* `R` is off by at most `(n + 2)·u·R`; `|S|²/n` by at most
/// `(2√2·(n + 1) + 4)·u·R` (from the bound on `S`, `|S| ≤ Σ|rx|` and
/// `(Σ|rx|)² ≤ n·R`); the subtraction and division add `2u·R`. The
/// reference's terms `|rx − h·p|²` are off by `(4√2 + 5)·u·R` in sum and
/// their summation by `(n − 1)·u·R`, and its pilots have `|p|² = 1 + δ`,
/// `|δ| ≤ ε` (`k` is the rounded `1/√2`), worth `δ·|S|²/n ≤ ε·R`. Together,
/// over `n`: **`|σ² − σ²_ref| ≤ (2.5·n + 12)·ε·mean|rx|²`**, before the
/// clamp at 1e-6, which only brings the two closer. The residual is where
/// the closed form is the weaker one — it cancels two numbers of size `R`
/// to get one of size `R/SNR` — which is why the bound is relative to the
/// received power, not to `σ²`: at 40 dB and 288 pilots it allows 0.9 `σ²`
/// (the largest error met here is printed: a thirtieth of its bound).
/// `σ²` scales every LLR of a candidate alike, which min-sum SC ignores,
/// and feeds the gate, whose floor of 1.5 is four orders from a 40 dB SNR.
#[test]
fn one_pass_estimator_is_within_its_bounds_of_the_two_pass_one() {
    use crate::dmrs::pilot_estimate;
    use crate::pdcch::{cce_pilot_sums, CoresetSequences};
    let eps = f32::EPSILON;
    let (mut worst_h, mut worst_nv, mut cases) = (0.0f32, 0.0f32, 0);
    for (c, coreset) in CORESETS.iter().enumerate() {
        let fitting = AggregationLevel::all().into_iter();
        for level in fitting.filter(|l| l.cces() <= coreset.n_cces()) {
            let snrs = [-3.0, 0.0, 3.0, 10.0, 20.0, 30.0, 40.0].map(Some);
            for (i, snr_db) in snrs.into_iter().chain([None]).enumerate() {
                // The last aligned position; a different channel each time.
                let cce_start = coreset.n_cces() / level.cces() * level.cces() - level.cces();
                let h = Cf32::from_polar(0.4 + 0.07 * i as f32, 0.9 * (c + i) as f32);
                let seed = (c * 100 + level.cces() * 10 + i) as u64;
                let grid = heard(coreset, (cce_start, level), h, snr_db, seed);
                let seqs = CoresetSequences::new(coreset, level, 500, 0x5A5A, 3);
                let cces = (cce_start..cce_start + level.cces())
                    .map(|cce| cce_pilot_sums(&grid, coreset, &seqs, cce));
                let sums = cces.fold((Cf32::ZERO, 0.0), |(s, r), cce| (s + cce.0, r + cce.1));
                let (got, want) = (
                    pilot_estimate(18 * level.cces(), sums),
                    candidate_estimate_oracle(&grid, coreset, cce_start, level, 500, 3),
                );
                let at = format!("coreset {c}, {level:?}, {snr_db:?} dB");
                let n = (18 * level.cces()) as f32;
                let (mean_pow, dh) = (sums.1 / n, (got.h - want.h).abs());
                let h_unit = 1.5 * (n + 2.0) * eps * mean_pow.sqrt();
                assert!(dh <= h_unit, "{at}: h off by {dh}");
                assert!(
                    dh <= 3.0 * (n + 2.0) * eps * want.h.abs(),
                    "{at}: h off by {dh}"
                );
                let dnv = (got.noise_var - want.noise_var).abs();
                let nv_unit = (2.5 * n + 12.0) * eps * mean_pow;
                assert!(dnv <= nv_unit, "{at}: noise off by {dnv}");
                if snr_db.is_none() {
                    let floor = (got.noise_var, want.noise_var) == (1e-6, 1e-6);
                    assert!(floor, "{at}: {} / {}", got.noise_var, want.noise_var);
                }
                // The same side of the floor, and by the same margin.
                assert!((got.snr / want.snr - 1.0).abs() < 0.02, "{at}");
                worst_h = worst_h.max(dh / h_unit);
                worst_nv = worst_nv.max(dnv / nv_unit);
                cases += 1;
            }
        }
    }
    println!("{cases} cases: h within {worst_h:.4} of its bound, noise within {worst_nv:.4}");
    assert_eq!(cases, (4 + 4 + 5) * 8);
}

/// The one-pass extraction against the reference chain on the same
/// candidates: one LLR for one, the same sign wherever the reference is not
/// within rounding of zero, and the same value up to the common scale
/// `σ′²_ref/σ′²` (the two noise estimates) and rounding.
#[test]
fn one_pass_extraction_is_the_reference_chain_up_to_scale_and_rounding() {
    use crate::pdcch::extract_candidate;
    for (c, coreset) in CORESETS.iter().enumerate() {
        let fitting = AggregationLevel::all().into_iter();
        for level in fitting.filter(|l| l.cces() <= coreset.n_cces()) {
            for (i, snr_db) in [-3.0, 3.0, 12.0, 30.0].into_iter().enumerate() {
                let h = Cf32::from_polar(1.1 - 0.2 * i as f32, 0.7 * (c + i) as f32);
                let grid = heard(coreset, (0, level), h, Some(snr_db), (c * 10 + i) as u64);
                let got = extract_candidate(&grid, coreset, 0, level, 500, 0x5A5A, 3);
                let want = extract_candidate_oracle(&grid, coreset, 0, level, 500, 0x5A5A, 3);
                assert_eq!(got.llrs.len(), want.llrs.len());
                let scale = got.pilot_snr / want.pilot_snr;
                let big = want.llrs.iter().fold(0.0f32, |m, l| m.max(l.abs()));
                for (j, (g, w)) in got.llrs.iter().zip(&want.llrs).enumerate() {
                    let at = format!("coreset {c}, {level:?}, {snr_db} dB, LLR {j}: {g} / {w}");
                    assert!((g - w * scale).abs() <= 1e-5 * big, "{at}");
                    assert!(w.abs() <= 1e-5 * big || (*g < 0.0) == (*w < 0.0), "{at}");
                }
            }
        }
    }
}

/// A grid holding NaN or ±∞ REs (an AGC transient, the fuzzer): every
/// position whose pilots read one is gated, every other position is what
/// it was to the bit, a poisoned data RE poisons its own pair of LLRs
/// only, and nothing panics — the ungated entry point included.
#[test]
fn non_finite_res_gate_the_positions_whose_pilots_read_them() {
    use crate::pdcch::{
        cce_pilot_sums, demap_candidate, extract_candidate, pilot_gate, CoresetSequences,
        BITS_PER_CCE, PILOT_SNR_FLOOR,
    };
    let (c, l2) = (&CORESETS[0], AggregationLevel::L2);
    let grid = heard(c, (2, l2), Cf32::new(0.6, -0.5), Some(20.0), 9);
    // Every position of the CORESET: where, and its LLRs' bits if it passes.
    let extract_all = |grid: &ResourceGrid| {
        let seqs = CoresetSequences::new(c, AggregationLevel::L8, 500, 0x5A5A, 3);
        let sums: Vec<_> = (0..8)
            .map(|cce| cce_pilot_sums(grid, c, &seqs, cce))
            .collect();
        let levels = AggregationLevel::all().into_iter().take(4);
        let positions = levels.flat_map(|l| (0..8).step_by(l.cces()).map(move |at| (l, at)));
        let extract = |(level, at): (AggregationLevel, usize)| {
            let floor = PILOT_SNR_FLOOR;
            let cces = &sums[at..at + level.cces()];
            let est = pilot_gate(cces, floor);
            let soft = est.map(|est| demap_candidate(grid, c, at, level, &seqs, &est));
            let bits = soft.map(|s| s.llrs.iter().map(|l| l.to_bits()).collect::<Vec<u32>>());
            (level.cces(), at, bits)
        };
        positions.map(extract).collect::<Vec<_>>()
    };
    let clean = extract_all(&grid);
    let passing = |all: &[(usize, usize, Option<Vec<u32>>)]| -> Vec<(usize, usize)> {
        let passed = all.iter().filter(|p| p.2.is_some());
        passed.map(|p| (p.0, p.1)).collect()
    };
    assert_eq!(clean.len(), 15);
    assert_eq!(
        passing(&clean)[..3],
        [(1, 2), (1, 3), (2, 2)],
        "the DCI, its aliases"
    );
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        // A pilot of CCE 2 (PRB 12, offset 5).
        let mut hit = grid.clone();
        hit.set(0, 12 * SUBCARRIERS_PER_PRB + 5, Cf32::new(bad, 0.25));
        for (got, want) in extract_all(&hit).iter().zip(&clean) {
            let reads_it = (want.1..want.1 + want.0).contains(&2);
            assert!(!reads_it || got.2.is_none(), "{bad}: {got:?} passed");
            assert!(reads_it || got == want, "{bad}: {want:?} moved");
        }
        let soft = extract_candidate(&hit, c, 2, l2, 500, 0x5A5A, 3);
        assert_eq!((soft.pilot_snr, soft.llrs.len()), (0.0, 216));
        // The first data RE of CCE 3 (PRB 18, offset 0).
        let mut hit = grid.clone();
        hit.set(0, 18 * SUBCARRIERS_PER_PRB, Cf32::new(0.5, bad));
        let got = extract_all(&hit);
        assert_eq!(
            passing(&got),
            passing(&clean),
            "{bad}: a data RE moved a gate"
        );
        for (got, want) in got.iter().zip(&clean) {
            let (llrs, was) = (got.2.iter().flatten(), want.2.iter().flatten());
            let moved: Vec<usize> = (llrs.zip(was).enumerate())
                .filter_map(|(i, (a, b))| (a != b).then_some(i))
                .collect();
            // The pair that RE carries, wherever its CCE falls.
            let first = (3 - want.1.min(3)) * BITS_PER_CCE;
            let reads_it = (want.1..want.1 + want.0).contains(&3) && want.2.is_some();
            let pair = [first, first + 1];
            assert_eq!(moved, pair[..2 * usize::from(reads_it)], "{bad}: {want:?}");
        }
    }
}

/// The closed form `4k·y/σ²` against the search it replaced. The search
/// squares and subtracts: each of its distances `d ≤ 2·(|y|² + 1)` is
/// off by at most `2ε·d`, a difference of two minima by twice that plus
/// its own rounding, so the search is within `8ε·(|y|² + 1)/σ²` of the
/// exact value and the closed form (one division, one product) within
/// `ε·4k|y|/σ²` on the other side: `10·ε·(|y|² + 1)/σ²` covers both.
/// A component over `2⁻²⁰·(|y|² + 1)` keeps its sign: it is worth
/// `4k·2⁻²⁰ = 2.7e-6` of that unit against the bound's `10ε = 1.2e-6`.
/// The specials: ±0 gives ±0 where the search gave +0; NaN gives NaN;
/// ±∞ gives ±∞ where the search's `∞ − ∞` gave NaN. And the
/// four-distance arm kept in `oracle.rs` is still that search, bit for
/// bit.
#[test]
fn qpsk_closed_form_is_the_generic_search_within_rounding() {
    use crate::modulation::{demodulate_any, demodulate_llr_into, Modulation};
    let mut x = 0x9E37_79B9u32;
    let mut rand = move || {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        (x >> 8) as f32 / (1 << 23) as f32 - 1.0
    };
    let mut symbols: Vec<Cf32> = (0..432).map(|_| Cf32::new(rand(), rand())).collect();
    // Tiny, either side of 2⁻²⁰, and far outside the constellation.
    symbols.extend((0..64).map(|i| Cf32::new(rand(), rand()).scale(2f32.powi(i / 2 - 24))));
    let n_finite = symbols.len();
    let odd = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1e-30];
    for re in odd {
        symbols.extend(odd.map(|im| Cf32::new(re, im)));
    }
    for nv in [0.0, 1e-9, 1e-3, 0.1, 7.3, 1e9] {
        let (mut arm, mut generic, mut four) = (Vec::new(), Vec::new(), Vec::new());
        demodulate_llr_into(&symbols, Modulation::Qpsk, nv, &mut arm);
        demodulate_any(&symbols, Modulation::Qpsk, nv, &mut generic);
        qpsk_four_distance_llrs(&symbols, nv, &mut four);
        // (Which NaN an operation yields is not specified; that it is
        // one is.)
        let bit = |l: &f32| if l.is_nan() { !0 } else { l.to_bits() };
        let bits = |v: &[f32]| v.iter().map(bit).collect::<Vec<_>>();
        assert_eq!(bits(&four), bits(&generic), "nv = {nv}");
        for (i, y) in symbols.iter().enumerate() {
            for (y, (got, want)) in
                [(y.re, 2 * i), (y.im, 2 * i + 1)].map(|(y, j)| (y, (arm[j], generic[j])))
            {
                let at = format!("nv = {nv}, y = {y}: {got} / {want}");
                if i < n_finite {
                    let unit = symbols[i].norm_sqr() + 1.0;
                    let bound = 10.0 * f32::EPSILON * unit / nv.max(1e-9);
                    assert!((got - want).abs() <= bound, "{at}");
                    let small = y.abs() <= 2f32.powi(-20) * unit;
                    assert!(small || (got < 0.0) == (want < 0.0), "{at}");
                }
                // The closed form is a scale: it keeps ±0, ±∞ and NaN.
                let special = y == 0.0 || !y.is_finite();
                let kept = (got == y && got.is_sign_negative() == y.is_sign_negative())
                    || (got.is_nan() && y.is_nan());
                assert!(!special || kept, "{at}");
            }
        }
        // The search: +0 at a zero component, NaN at an infinite one.
        let at = |re: f32, im: f32| {
            let i = symbols
                .iter()
                .rposition(|y| (y.re.to_bits(), y.im.to_bits()) == (re.to_bits(), im.to_bits()));
            let i = i.expect("one of the specials");
            (generic[2 * i], generic[2 * i + 1])
        };
        let (zero, inf) = (at(-0.0, 0.0), at(f32::NEG_INFINITY, 1e-30));
        assert_eq!((zero.0.to_bits(), zero.1.to_bits()), (0, 0), "nv = {nv}");
        assert!(inf.0.is_nan(), "nv = {nv}");
    }
}

/// The textbook check-node update, in floats.
#[cfg(test)]
fn f_op(a: f32, b: f32) -> f32 {
    a.signum() * b.signum() * a.abs().min(b.abs())
}

/// The textbook bit-node update, in floats.
#[cfg(test)]
fn g_op(a: f32, b: f32, u: u8) -> f32 {
    if u == 0 {
        b + a
    } else {
        b - a
    }
}

/// The textbook SC recursion, allocating its children's LLRs per node and
/// visiting every node: what `polar::decode::sc_decode` replaced.
#[cfg(test)]
pub(crate) fn sc_decode_oracle(llrs: &[f32], info_mask: &[bool]) -> Vec<u8> {
    let n = llrs.len();
    assert_eq!(n, info_mask.len());
    assert!(n.is_power_of_two());
    let mut u = vec![0u8; n];
    let mut x = vec![0u8; n];
    sc_recurse(llrs, info_mask, 0, &mut u, &mut x);
    u
}

/// Recursive SC over a subtree. `offset` is the subtree's first input index.
/// Fills `u[offset..offset+len]` with decisions and `x[offset..offset+len]`
/// with the re-encoded codeword of this subtree (needed by the parent's
/// g-stage). Returns nothing; operates through the two output slices.
#[cfg(test)]
fn sc_recurse(llrs: &[f32], info_mask: &[bool], offset: usize, u: &mut [u8], x: &mut [u8]) {
    let len = llrs.len();
    if len == 1 {
        let bit = if info_mask[offset] {
            u8::from(llrs[0] < 0.0)
        } else {
            0
        };
        u[offset] = bit;
        x[offset] = bit;
        return;
    }
    let half = len / 2;
    // Left child sees f(a_i, b_i).
    let left_llrs: Vec<f32> = (0..half).map(|i| f_op(llrs[i], llrs[i + half])).collect();
    sc_recurse(&left_llrs, info_mask, offset, u, x);
    // Right child sees g(a_i, b_i, x_left_i).
    let right_llrs: Vec<f32> = (0..half)
        .map(|i| g_op(llrs[i], llrs[i + half], x[offset + i]))
        .collect();
    sc_recurse(&right_llrs, info_mask, offset + half, u, x);
    // Recombine: x_parent = [x_left ⊕ x_right, x_right].
    for i in 0..half {
        x[offset + i] ^= x[offset + half + i];
    }
}

/// The Gold generator `sequence` had before it stepped by words: register
/// bit k holds `x(n+k)`; a step computes the new `x(n+31)` and shifts.
/// The oracle for the warm-up tables and the word steps.
#[cfg(test)]
pub(crate) struct SerialGold {
    pub(crate) x1: u32,
    pub(crate) x2: u32,
}

#[cfg(test)]
impl SerialGold {
    pub(crate) fn new(c_init: u32) -> SerialGold {
        let mut g = SerialGold {
            x1: 1,
            x2: c_init & 0x7FFF_FFFF,
        };
        (0..NC).for_each(|_| g.step());
        g
    }

    fn step(&mut self) {
        let n1 = ((self.x1 >> 3) ^ self.x1) & 1;
        let n2 = ((self.x2 >> 3) ^ (self.x2 >> 2) ^ (self.x2 >> 1) ^ self.x2) & 1;
        self.x1 = (self.x1 >> 1) | (n1 << 30);
        self.x2 = (self.x2 >> 1) | (n2 << 30);
    }

    pub(crate) fn take_bits(&mut self, n: usize) -> Vec<u8> {
        let bit = |g: &mut SerialGold| {
            let out = ((g.x1 ^ g.x2) & 1) as u8;
            g.step();
            out
        };
        (0..n).map(|_| bit(self)).collect()
    }
}

/// The FFT butterflies as they were first written — one twiddle table
/// strided per stage, the direction tested inside the loop, interleaved
/// samples swapped in place — kept as the bit-exactness oracle for the
/// split-format kernel, `Fft::transform`.
#[cfg(test)]
pub(crate) fn strided_fft_oracle(size: usize, data: &mut [Cf32], inverse: bool) {
    let bits = size.trailing_zeros();
    for i in 0..size {
        let j = (i as u32).reverse_bits() as usize >> (32 - bits);
        if i < j {
            data.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= size {
        let (half, stride) = (len / 2, size / len);
        for start in (0..size).step_by(len) {
            for k in 0..half {
                let angle = -2.0 * std::f32::consts::PI * (k * stride) as f32 / size as f32;
                let w = Cf32::from_angle(angle);
                let b = data[start + k + half] * if inverse { w.conj() } else { w };
                let a = data[start + k];
                data[start + k] = a + b;
                data[start + k + half] = a - b;
            }
        }
        len *= 2;
    }
}

/// A seeded generator of samples in `[-1, 1)` for the FFT tests.
#[cfg(test)]
fn uniform(seed: u32) -> impl FnMut() -> f32 {
    let mut x = seed;
    move || {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        (x >> 8) as f32 / (1 << 23) as f32 - 1.0
    }
}

/// The FFT tests' input families of `size` samples: random ones, ones
/// spanning ±1e6 down to ±1e-6, and ones of `+0.0` and `−0.0` only, whose
/// outputs are zeros whose signs a reordered sum or a skipped multiply
/// would flip.
#[cfg(test)]
fn fft_inputs(size: usize, rand: &mut impl FnMut() -> f32) -> [(Vec<Cf32>, &'static str); 3] {
    let random: Vec<Cf32> = (0..size).map(|_| Cf32::new(rand(), rand())).collect();
    let wide: Vec<Cf32> = (0..size)
        .map(|i| Cf32::new(rand() * 10f32.powi(i as i32 % 13 - 6), -rand() * 1e6))
        .collect();
    let mut zero = || if rand() < 0.0 { -0.0 } else { 0.0 };
    let zeros: Vec<Cf32> = (0..size).map(|_| Cf32::new(zero(), zero())).collect();
    [(random, "random"), (wide, "wide"), (zeros, "signed zeros")]
}

/// `v`'s bit patterns.
#[cfg(test)]
fn cf32_bits(v: &[Cf32]) -> Vec<(u32, u32)> {
    v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

/// The split-format kernel, to the bit, at every size from 2 to 4096 in
/// both directions, on [`fft_inputs`] and on inputs that catch a skipped
/// multiply by a `(1, −0.0)` twiddle. Both through `Fft::transform`'s
/// planes and through `forward`/`inverse`.
#[test]
fn split_kernel_equals_the_strided_transform_bitwise() {
    let mut rand = uniform(0x2545_F491);
    let mut scratch = crate::fft::FftScratch::default();
    for size in (1..=12).map(|b| 1usize << b) {
        let fft = Fft::new(size);
        // `(−0.0, −1.0)` but for `(−0.0, h)` at the head, in bit-reversed
        // order, of the first upper half of the stage of half-length `h`:
        // every sum on the way keeps a real part of `−0.0`, and the stage's
        // first butterfly multiplies `(−0.0, 1.0)` by `(1, −0.0)` — whose
        // real part is `+0.0`, and `−0.0` if the multiply were skipped.
        let heads = (0..size.trailing_zeros()).map(|stage| {
            let mut x = vec![Cf32::new(-0.0, -1.0); size];
            x[size >> (stage + 1)] = Cf32::new(-0.0, (1 << stage) as f32);
            (x, "a stage's head")
        });
        for (input, name) in fft_inputs(size, &mut rand).into_iter().chain(heads) {
            for inverse in [false, true] {
                let mut want = input.clone();
                strided_fft_oracle(size, &mut want, inverse);
                let (re, im) = fft.transform(&input, inverse, &mut scratch);
                let got: Vec<Cf32> = re.iter().zip(im).map(|(&r, &i)| Cf32::new(r, i)).collect();
                assert_eq!(
                    cf32_bits(&got),
                    cf32_bits(&want),
                    "{size} {name}, inverse {inverse}"
                );
                let mut in_place = input.clone();
                if inverse {
                    fft.inverse(&mut in_place);
                    want.iter_mut()
                        .for_each(|v| *v = v.scale(1.0 / size as f32));
                } else {
                    fft.forward(&mut in_place);
                }
                assert_eq!(
                    cf32_bits(&in_place),
                    cf32_bits(&want),
                    "{size} {name}, in place"
                );
            }
        }
    }
}

/// Random samples with a NaN, a `+∞` or a `−∞` salted in, as a receiver
/// may hand the front end; the transform spreads each over every bin.
#[cfg(test)]
fn salted_inputs(size: usize, rand: &mut impl FnMut() -> f32) -> Vec<(Vec<Cf32>, &'static str)> {
    let salts = [
        (f32::NAN, "NaN"),
        (f32::INFINITY, "+inf"),
        (f32::NEG_INFINITY, "-inf"),
    ];
    let salted = |(v, name)| {
        let mut x: Vec<Cf32> = (0..size).map(|_| Cf32::new(rand(), rand())).collect();
        x[size / 3].im = v;
        (x, name)
    };
    salts.map(salted).into()
}

/// Each residue class of the forward transform's bins (mod 4) on its own,
/// to the bit, at every size from 8 to 4096: [`Fft::class_inputs`], then
/// the class's [`Fft::class_plan`], equals the strided transform's bins
/// `4q + c` — on [`fft_inputs`] and on [`salted_inputs`], so a non-finite
/// sample reaches a pilot as it reaches the whole transform's bin.
#[test]
fn class_transform_equals_the_strided_transform_bitwise() {
    let mut rand = uniform(0x9E37_79B9);
    let mut scratch = crate::fft::FftScratch::default();
    for size in (3..=12).map(|b| 1usize << b) {
        let fft = Fft::new(size);
        let mut inputs = vec![Cf32::ZERO; size];
        let salted = salted_inputs(size, &mut rand);
        for (input, name) in fft_inputs(size, &mut rand).into_iter().chain(salted) {
            let mut want = input.clone();
            strided_fft_oracle(size, &mut want, false);
            fft.class_inputs(&input, &mut inputs);
            for (class, inputs) in inputs.chunks_exact(size / 4).enumerate() {
                let (re, im) = fft.class_plan(class).transform(inputs, false, &mut scratch);
                let got: Vec<Cf32> = re.iter().zip(im).map(|(&r, &i)| Cf32::new(r, i)).collect();
                let want: Vec<Cf32> = want[class..].iter().step_by(4).copied().collect();
                assert_eq!(
                    cf32_bits(&got),
                    cf32_bits(&want),
                    "{size} {name}, class {class}"
                );
            }
        }
    }
}

/// A symbol demodulated at its pilot class, then completed, is
/// `Ofdm::demodulate_symbols`' to the bit, on the carrier layouts a front
/// end plans for (both pilot classes; FFTs of 512 to 4096 points), in both
/// CP patterns, into a grid a whole slot was demodulated into before. At
/// the pilot class alone, the subcarriers `≡ 1 (mod 4)` of each symbol
/// asked for are already those bits and its others `+0.0`; other symbols
/// are left as they were. On random samples with a NaN, or a `+∞` and a
/// `−∞`, salted into symbols asked for.
#[test]
fn completed_symbol_equals_the_whole_symbol_demodulation_bitwise() {
    use crate::ofdm::{Deferred, Ofdm};
    let layouts = [
        (Numerology::Mu1, 51),
        (Numerology::Mu0, 52),
        (Numerology::Mu0, 79),
        (Numerology::Mu1, 24),
        (Numerology::Mu1, 273),
    ];
    let mut rand = uniform(0x0BAD_5EED);
    let (mut scratch, mut deferred) = (crate::fft::FftScratch::default(), Deferred::default());
    let sets: [[bool; SYMBOLS_PER_SLOT]; 2] = [
        std::array::from_fn(|sym| sym < 3),
        std::array::from_fn(|sym| [1, 6, 13].contains(&sym)),
    ];
    for (numerology, n_prb) in layouts {
        let ofdm = Ofdm::new(numerology, n_prb);
        for slot in [0, 1] {
            let len = ofdm.samples_per_slot(slot);
            let mut noise =
                || -> Vec<Cf32> { (0..len).map(|_| Cf32::new(rand(), rand())).collect() };
            let before = ofdm.demodulate(&noise(), slot);
            // Mid-window in symbol 1, and the last sample, symbol 13's.
            let (n, numer) = (ofdm.fft_size(), numerology);
            let cp = |sym| numer.cp_len(n, numer.symbol_in_half_subframe(slot, sym));
            let salted = [cp(0) + n + cp(1) + n / 2, len - 1];
            for (set, salt) in sets.iter().zip([f32::NAN, f32::INFINITY]) {
                let mut samples = noise();
                for (i, v) in salted.into_iter().zip([salt, -salt]) {
                    samples[i].re = v;
                }
                let whole = ofdm.demodulate(&samples, slot);
                let mut grid = before.clone();
                ofdm.demodulate_pilot_class_into(
                    &samples,
                    slot,
                    set,
                    &mut grid,
                    &mut scratch,
                    &mut deferred,
                );
                assert_eq!(deferred.symbols(), set);
                let at = format!("{numerology:?} {n_prb} PRBs, slot {slot}, {set:?}");
                for (sym, &asked) in set.iter().enumerate() {
                    let (got, want) = (cf32_bits(grid.symbol(sym)), cf32_bits(whole.symbol(sym)));
                    if !asked {
                        assert_eq!(
                            got,
                            cf32_bits(before.symbol(sym)),
                            "{at}: symbol {sym} kept"
                        );
                        continue;
                    }
                    for (g, (got, want)) in got.iter().zip(&want).enumerate() {
                        let want = if g % 4 == 1 { *want } else { (0, 0) };
                        assert_eq!(*got, want, "{at}: symbol {sym}, subcarrier {g}");
                    }
                }
                ofdm.complete_into(&mut deferred, &mut grid, &mut scratch);
                assert!(deferred.is_empty());
                for sym in (0..SYMBOLS_PER_SLOT).filter(|&sym| set[sym]) {
                    let (got, want) = (cf32_bits(grid.symbol(sym)), cf32_bits(whole.symbol(sym)));
                    assert!(got == want, "{at}: symbol {sym} completed");
                }
            }
        }
    }
}

/// `Fft::new`'s twiddles as they were first built: each stage's computed
/// from its own angles, `3·(size − 1)` `from_angle`s — the table it now
/// gathers from the `size / 2` unit twiddles.
#[cfg(test)]
fn staged_twiddles_oracle(size: usize) -> Vec<f32> {
    let unit = |k: usize| Cf32::from_angle(-2.0 * std::f32::consts::PI * k as f32 / size as f32);
    let bits = size.trailing_zeros();
    let stages = || {
        let halves = (0..bits).map(|stage| 1usize << stage);
        halves.flat_map(|half| (0..half).map(move |k| unit(k * (size / (2 * half)))))
    };
    let mut twiddles = Vec::with_capacity(3 * (size - 1));
    twiddles.extend(stages().map(|w| w.re));
    twiddles.extend(stages().map(|w| w.im));
    twiddles.extend(stages().map(|w| w.conj().im));
    twiddles
}

/// The gathered twiddle table, to the bit, at every size from 2 to 4096.
#[test]
fn gathered_twiddles_equal_the_staged_construction_bitwise() {
    for size in (1..=12).map(|b| 1usize << b) {
        let bits = |t: &[f32]| t.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        let want = staged_twiddles_oracle(size);
        assert_eq!(bits(&Fft::new(size).twiddles), bits(&want), "size {size}");
    }
}

/// The m-sequence `x(i+7) = x(i+tap) + x(i)` from `x(0..7) = init`, run
/// as the PSS and SSS ran their LFSRs on every call before the tables.
#[cfg(test)]
fn lfsr_oracle(init: [u8; 7], tap: usize) -> [u8; SYNC_SEQ_LEN + 7] {
    let mut x = [0u8; SYNC_SEQ_LEN + 7];
    x[..7].copy_from_slice(&init);
    for i in 0..SYNC_SEQ_LEN {
        x[i + 7] = x[i + tap] ^ x[i];
    }
    x
}

/// `pss_sequence` as it was first written.
#[cfg(test)]
fn pss_sequence_oracle(nid2: u16) -> Vec<Cf32> {
    let x = lfsr_oracle([0, 1, 1, 0, 1, 1, 1], 4);
    (0..SYNC_SEQ_LEN)
        .map(|n| {
            let m = (n + 43 * nid2 as usize) % SYNC_SEQ_LEN;
            Cf32::new(1.0 - 2.0 * x[m] as f32, 0.0)
        })
        .collect()
}

/// `sss_sequence` as it was first written.
#[cfg(test)]
fn sss_sequence_oracle(pci: Pci) -> Vec<Cf32> {
    let (nid1, nid2) = (pci.nid1() as usize, pci.nid2() as usize);
    let x0 = lfsr_oracle([1, 0, 0, 0, 0, 0, 0], 4);
    let x1 = lfsr_oracle([1, 0, 0, 0, 0, 0, 0], 1);
    let (m0, m1) = (15 * (nid1 / 112) + 5 * nid2, nid1 % 112);
    (0..SYNC_SEQ_LEN)
        .map(|n| {
            let a = 1.0 - 2.0 * x0[(n + m0) % SYNC_SEQ_LEN] as f32;
            let b = 1.0 - 2.0 * x1[(n + m1) % SYNC_SEQ_LEN] as f32;
            Cf32::new(a * b, 0.0)
        })
        .collect()
}

/// `detect_pss` as it was: one freshly generated reference and one
/// `correlate` per hypothesis.
#[cfg(test)]
fn detect_pss_oracle(rx: &[Cf32]) -> (u16, f32) {
    (0..3u16)
        .map(|nid2| (nid2, correlate(rx, &pss_sequence_oracle(nid2))))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or((0, 0.0))
}

/// `detect_sss` as it was: the 336 group hypotheses, each a freshly
/// generated reference and one `correlate`.
#[cfg(test)]
fn detect_sss_oracle(rx: &[Cf32], nid2: u16) -> (u16, f32) {
    (0..336u16)
        .map(|nid1| {
            let p = Pci::from_parts(nid1, nid2);
            (nid1, correlate(rx, &sss_sequence_oracle(p)))
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or((0, 0.0))
}

/// The table-read PSS and SSS of every NID2 and PCI, to the bit.
#[test]
fn sync_tables_equal_the_generated_sequences_bitwise() {
    let bits =
        |v: Vec<Cf32>| -> Vec<_> { v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect() };
    for nid2 in 0..3 {
        assert_eq!(bits(pss_sequence(nid2)), bits(pss_sequence_oracle(nid2)));
    }
    for pci in (0..1008).map(Pci) {
        assert_eq!(
            bits(sss_sequence(pci)),
            bits(sss_sequence_oracle(pci)),
            "{pci}"
        );
    }
}

/// Cell search against the tables, to the bit: `(nid, corr.to_bits())` of
/// `detect_pss` and of `detect_sss` under every NID2 equal the
/// per-hypothesis search's on clean, noisy, phase-rotated and scaled
/// blocks of several cells, on random blocks, on all-zero blocks and on
/// blocks of `±0.0`. With a NaN or ±∞ in the block, both correlate to
/// NaN or to the same bits.
#[test]
fn table_cell_search_equals_the_per_hypothesis_search_bitwise() {
    let mut x = 0x9E37_79B9u32;
    let mut rand = move || {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        (x >> 8) as f32 / (1 << 23) as f32 - 1.0
    };
    let mut blocks: Vec<Vec<Cf32>> = Vec::new();
    for pci in [Pci(0), Pci(1), Pci(335), Pci(500), Pci(1007)] {
        for clean in [pss_sequence(pci.nid2()), sss_sequence(pci)] {
            let rot = Cf32::from_angle(rand() * 3.0);
            let noisy: Vec<Cf32> = (clean.iter())
                .map(|s| *s + Cf32::new(rand(), rand()))
                .collect();
            blocks.push(clean.iter().map(|s| *s * rot).collect());
            for scale in [1e-20, 3.7, 1e15] {
                blocks.push(noisy.iter().map(|s| s.scale(scale)).collect());
            }
            blocks.extend([clean, noisy]);
        }
    }
    let mut zero = || if rand() < 0.0 { -0.0 } else { 0.0 };
    blocks.push(vec![Cf32::ZERO; SYNC_SEQ_LEN]);
    blocks.push(
        (0..SYNC_SEQ_LEN)
            .map(|_| Cf32::new(zero(), zero()))
            .collect(),
    );
    blocks.push(
        (0..SYNC_SEQ_LEN)
            .map(|_| Cf32::new(rand(), rand()))
            .collect(),
    );
    let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    for (i, v) in special.into_iter().enumerate() {
        let mut block = blocks[i].clone();
        (block[40 * i].re, block[3].im) = (v, -v);
        blocks.push(block);
    }
    let same = |got: (u16, f32), want: (u16, f32)| {
        (got.1.is_nan() && want.1.is_nan())
            || (got.0, got.1.to_bits()) == (want.0, want.1.to_bits())
    };
    for (i, rx) in blocks.iter().enumerate() {
        let (got, want) = (detect_pss(rx), detect_pss_oracle(rx));
        assert!(same(got, want), "block {i}: PSS {got:?} against {want:?}");
        for nid2 in 0..3 {
            let (got, want) = (detect_sss(rx, nid2), detect_sss_oracle(rx, nid2));
            assert!(
                same(got, want),
                "block {i}, NID2 {nid2}: SSS {got:?} against {want:?}"
            );
        }
    }
}

/// `Ofdm::modulate` as it was first written: every symbol through the
/// transform, its bins mapped one subcarrier at a time and cloned.
#[cfg(test)]
fn modulate_oracle(
    numerology: Numerology,
    n_prb: usize,
    grid: &ResourceGrid,
    slot: usize,
) -> Vec<Cf32> {
    let fft_size = numerology.fft_size(n_prb);
    let fft = Fft::new(fft_size);
    let mut out = Vec::new();
    let mut freq = vec![Cf32::ZERO; fft_size];
    for sym in 0..SYMBOLS_PER_SLOT {
        freq.iter_mut().for_each(|v| *v = Cf32::ZERO);
        for (k, &re) in grid.symbol(sym).iter().enumerate() {
            freq[(fft_size - n_prb * 6 + k) % fft_size] = re;
        }
        let mut time = freq.clone();
        fft.inverse(&mut time);
        let scale = (fft_size as f32).sqrt();
        for v in time.iter_mut() {
            *v = v.scale(scale);
        }
        let cp = numerology.cp_len(fft_size, numerology.symbol_in_half_subframe(slot, sym));
        out.extend_from_slice(&time[fft_size - cp..]);
        out.extend_from_slice(&time);
    }
    out
}

/// The modulator that skips empty symbols and reuses one buffer, to the
/// bit: on a grid of empty symbols, full ones, `−0.0`-only ones (which
/// must take the transform: its output holds `−0.0`) and one with a single
/// RE, at µ = 0, 1 and 2: every slot of µ ≤ 1 holds a long CP, and slot 1
/// of µ = 2 none; and on the 100 MHz µ = 1 carrier (273 PRBs, FFT 4096).
#[test]
fn modulate_equals_the_per_symbol_transform_bitwise() {
    use crate::ofdm::Ofdm;
    let mut x = 0x9E37_79B9u32;
    let mut rand = move || {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        (x >> 8) as f32 / (1 << 23) as f32 - 1.0
    };
    let carriers = [
        (Numerology::Mu1, 51),
        (Numerology::Mu0, 52),
        (Numerology::Mu2, 24),
        (Numerology::Mu1, 273),
    ];
    for (numerology, n_prb) in carriers {
        let mut grid = ResourceGrid::new(n_prb);
        for sym in 0..SYMBOLS_PER_SLOT {
            for re in grid.symbol_mut(sym) {
                *re = match sym % 4 {
                    1 => Cf32::new(rand(), rand()),
                    2 => Cf32::new(-0.0, -0.0),
                    _ => Cf32::ZERO,
                };
            }
        }
        grid.set(12, 7, Cf32::new(0.0, -0.25));
        let ofdm = Ofdm::new(numerology, n_prb);
        for slot in [0, 1] {
            let bits = |v: &[Cf32]| -> Vec<(u32, u32)> {
                v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
            };
            let (got, want) = (
                ofdm.modulate(&grid, slot),
                modulate_oracle(numerology, n_prb, &grid, slot),
            );
            assert_eq!(bits(&got), bits(&want), "{numerology:?}, slot {slot}");
            let negative_zero = want.iter().any(|c| c.re.to_bits() == 1 << 31);
            assert!(negative_zero, "a −0.0 symbol transforms to some −0.0");
        }
    }
}

/// `dci_check_crc` as it was before the syndrome: descramble the
/// received CRC with the RNTI, recompute over `1^24 ‖ payload`, compare.
#[cfg(test)]
pub(crate) fn check_crc_oracle(codeword: &[u8], rnti: u16) -> Option<Vec<u8>> {
    if codeword.len() < 24 {
        return None;
    }
    let (payload, crc_rx) = codeword.split_at(codeword.len() - 24);
    let mut crc_bits = crc_rx.to_vec();
    scramble_crc_with_rnti(&mut crc_bits, rnti); // XOR is its own inverse
    let mut padded = vec![1u8; 24];
    padded.extend_from_slice(payload);
    (CRC24C.compute(&padded) == bits_to_crc(&crc_bits)).then(|| payload.to_vec())
}

/// `dci_recover_rnti` as it was before the syndrome.
#[cfg(test)]
pub(crate) fn recover_rnti_oracle(codeword: &[u8]) -> Option<u16> {
    if codeword.len() < 24 {
        return None;
    }
    let (payload, crc_rx) = codeword.split_at(codeword.len() - 24);
    let mut padded = vec![1u8; 24];
    padded.extend_from_slice(payload);
    let crc_local = crc_to_bits(CRC24C.compute(&padded), 24);
    // The unscrambled high 8 bits must agree, otherwise this wasn't a
    // clean decode (or not a DCI at all).
    if crc_local[0..8] != crc_rx[0..8] {
        return None;
    }
    let low = crc_local[8..].iter().zip(&crc_rx[8..]);
    Some(low.fold(0, |rnti, (a, b)| (rnti << 1) | (a ^ b) as u16))
}

/// `decode_sc` as the parent computed it: de-rate-match, then the
/// textbook recursion.
#[cfg(test)]
fn decode_oracle(code: &PolarCode, llrs: &[f32]) -> Vec<u8> {
    let mut mother = Vec::new();
    ratematch::deselect_into(llrs, code.n, code.kind, &mut mother);
    let u = sc_decode_oracle(&mother, &code.info_mask);
    code.info_positions.iter().map(|&p| u[p]).collect()
}

/// `PolarCode::hard_word` as it was: de-rate-match into a float copy of
/// the mother code, check the LLRs past the punctured head for ±0 and NaN,
/// pack the sign bit of every mother LLR one at a time, transform.
#[cfg(test)]
fn hard_word_oracle(code: &PolarCode, llrs: &[f32]) -> Option<HardWord> {
    let mut mother = Vec::new();
    ratematch::deselect_into(llrs, code.n, code.kind, &mut mother);
    let head = match code.kind {
        RateMatchKind::Puncture => code.n - code.e,
        RateMatchKind::Shorten | RateMatchKind::Repeat => 0,
    };
    if mother[head..].iter().any(|l| *l == 0.0 || l.is_nan()) {
        return None;
    }
    let mut v = [0u64; 8];
    for (i, l) in mother.iter().enumerate() {
        v[i / 64] |= u64::from(l.to_bits() >> 31) << (i % 64);
    }
    encode::polar_transform_words(&mut v, code.n);
    Some(v)
}

/// The hard word packed from the received LLRs in place against the
/// float-copy construction, `==` on the word: every code of the cell's grid
/// and (64, 108/216/432/864), so every rate matching, on random LLRs salted
/// with ±0, NaN, ±∞ and ±subnormals — none, one, one in sixteen, or two in
/// sixteen of the sign-clean ones (±∞, ±subnormals). 20,000 draws per code
/// in an optimised build, 2,000 in a debug one.
#[test]
fn packed_hard_word_equals_the_float_copy_construction_bitwise() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut grid = cell_code_grid();
    grid.extend([108, 216, 432, 864].map(|e| (64, e)));
    let tiny = f32::from_bits(1);
    let specials = [
        0.0f32,
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        tiny,
        -tiny,
        f32::MIN_POSITIVE / 3.0,
        -f32::MIN_POSITIVE / 3.0,
    ];
    let draws = if cfg!(debug_assertions) {
        2_000
    } else {
        20_000
    };
    let mut scratch = DecodeScratch::default();
    let mut kinds = std::collections::HashSet::new();
    for (k, e) in grid {
        let code = PolarCode::new(k, e);
        kinds.insert(format!("{:?}", code.kind));
        let mut rng = StdRng::seed_from_u64((k * 10_000 + e) as u64);
        let mut answered = [0; 2];
        for draw in 0..draws {
            let mut llrs: Vec<f32> = (0..e).map(|_| rng.gen_range(-8.0f32..8.0)).collect();
            // Per draw: how many LLRs in 16 are salted, from which specials.
            let (per_16, from) = [(0, 0), (0, 0), (1, 0), (2, 3)][draw % 4];
            for l in llrs.iter_mut() {
                if rng.gen_range(0..16) < per_16 {
                    *l = specials[rng.gen_range(from..specials.len())];
                }
            }
            if draw % 4 == 1 {
                llrs[rng.gen_range(0..e)] = specials[rng.gen_range(0..specials.len())];
            }
            let got = code.hard_word(&llrs, &mut scratch);
            assert!(
                got == hard_word_oracle(&code, &llrs),
                "k={k} e={e} draw={draw}"
            );
            answered[usize::from(got.is_some())] += 1;
        }
        assert!(
            answered.iter().all(|&n| n > draws / 8),
            "k={k} e={e}: {answered:?}"
        );
    }
    assert_eq!(kinds.len(), 3, "Shorten, Puncture and Repeat all covered");
}

#[cfg(test)]
thread_local! {
    /// Decodes the codeword lemma answered without an SC walk.
    pub(crate) static SHORT_CIRCUITS: std::cell::Cell<u64> =
        const { std::cell::Cell::new(0) };
}

#[test]
fn sc_kernel_matches_the_oracle_bit_for_bit() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut grid = cell_code_grid();
    grid.extend([(12, 54), (140, 864), (12, 400)]);
    grid.sort_unstable();
    grid.dedup();
    // One scratch for the whole grid: stale stack, `u` and `x` content
    // from a longer code must never leak into a shorter one's decode.
    let mut scratch = DecodeScratch::default();
    // Per rate matching: sign-clean codewords (the short-circuit must
    // answer every one) and decodes with a ±0 or NaN past the head (it
    // must answer none).
    let mut taken = std::collections::HashMap::new();
    for (k, e) in grid {
        let code = PolarCode::new(k, e);
        let (clean, dirty) = taken.entry(format!("{:?}", code.kind)).or_insert((0, 0));
        let mut rng = StdRng::seed_from_u64((k * 10_000 + e) as u64);
        for trial in 0..2000 {
            let payload: Vec<u8> = (0..k).map(|_| rng.gen_range(0..2u8)).collect();
            // From clean to hopeless: the decision paths differ.
            let sigma = [0.5f32, 2.0, 4.0, 8.0][trial % 4];
            let mut llrs: Vec<f32> = (code.encode(&payload).iter())
                .map(|&b| (1.0 - 2.0 * f32::from(b)) * 4.0 + sigma * rng.gen_range(-1.0..1.0))
                .collect();
            match trial % 10 {
                // Signed zeros, NaNs, saturated values and exact ties:
                // where a reformulated f/g or decision would first
                // diverge, and where the lemmas' side condition fails.
                3 | 7 => {
                    let specials = [0.0f32, -0.0, f32::NAN, 1.0e9, -1.0e9, 4.0, -4.0];
                    for l in llrs.iter_mut() {
                        if rng.gen_range(0..4) == 0 {
                            *l = specials[rng.gen_range(0..specials.len())];
                        }
                    }
                }
                5 => llrs.iter_mut().for_each(|l| *l = -l.abs() - 0.25),
                9 => llrs.fill([0.0, -0.0, -1.0e9, 1.0e9, f32::NAN][trial / 10 % 5]),
                _ => {}
            }
            let before = SHORT_CIRCUITS.get();
            let got = (code.decode_sc_with(&llrs, &mut scratch)).to_vec();
            let short = SHORT_CIRCUITS.get() - before;
            let want = decode_oracle(&code, &llrs);
            assert_eq!(got, want, "k={k} e={e} trial={trial}");
            let alone = code.codeword_with(&llrs, &mut scratch);
            assert_eq!(alone.is_some(), short == 1, "k={k} e={e} trial={trial}");
            assert!(alone.is_none_or(|bits| bits == want));
            // What the receiver decodes, as `deselect_into` hands it over,
            // past the punctured head.
            let mut mother = Vec::new();
            ratematch::deselect_into(&llrs, code.n, code.kind, &mut mother);
            let head =
                [0, code.n - e.min(code.n)][usize::from(code.kind == RateMatchKind::Puncture)];
            let unclean = mother[head..].iter().any(|l| *l == 0.0 || l.is_nan());
            if sigma < 4.0 && trial % 10 < 3 {
                // Noise under the amplitude: the signs are the codeword's.
                assert_eq!(got, payload);
                assert_eq!(
                    short, 1,
                    "k={k} e={e} trial={trial}: a clean codeword walked"
                );
                *clean += 1;
            } else if unclean {
                assert_eq!(
                    short, 0,
                    "k={k} e={e} trial={trial}: ±0/NaN short-circuited"
                );
                *dirty += 1;
            }
        }
    }
    assert_eq!(taken.len(), 3, "Shorten, Puncture and Repeat all covered");
    assert!(taken
        .values()
        .all(|&(clean, dirty)| clean > 500 && dirty > 500));
}

/// What negating LLRs does to the hard word is an XOR of the hard word of
/// the flip pattern's signs (±1s, negative where flipped):
/// `hard_word(flipped) = hard_word(llrs) ⊕ hard_word(±flips)`, `None` on
/// both sides together, and `codeword_of` that XOR is `codeword_with` on
/// the flipped LLRs, bit for bit — on noisy codewords, with ±0, NaN and
/// ±1e9 sprinkled in, under random flips and under codeword-shaped ones
/// (which keep a codeword one). Not under Repeat, where a flipped copy need
/// not flip the sum it joins: what `solve::FlipSolve` rests on.
#[test]
fn a_sign_flip_moves_the_hard_word_by_the_hard_word_of_its_signs() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut grid = cell_code_grid();
    grid.extend([(12, 54), (140, 864)]);
    let mut scratch = DecodeScratch::default();
    let mut rng = StdRng::seed_from_u64(37);
    // Per rate matching: hard words, sign-unclean LLRs, codewords found.
    let mut seen = std::collections::HashMap::new();
    for (k, e) in grid {
        let code = PolarCode::new(k, e);
        let bits = |rng: &mut StdRng, n| (0..n).map(|_| rng.gen_range(0..2u8)).collect::<Vec<_>>();
        for trial in 0..400 {
            let (payload, other) = (bits(&mut rng, k), bits(&mut rng, k));
            let flips: Vec<bool> = match trial % 2 {
                0 => bits(&mut rng, e).iter().map(|&b| b == 1).collect(),
                _ => code.encode(&other).iter().map(|&b| b == 1).collect(),
            };
            let sigma = [0.5f32, 2.0, 8.0][trial % 3];
            let mut llrs: Vec<f32> = (code.encode(&payload).iter())
                .map(|&b| (1.0 - 2.0 * f32::from(b)) * 4.0 + sigma * rng.gen_range(-1.0..1.0))
                .collect();
            if trial % 5 == 4 {
                let specials = [0.0f32, -0.0, f32::NAN, 1.0e9, -1.0e9];
                for l in llrs.iter_mut() {
                    if rng.gen_range(0..16) == 0 {
                        *l = specials[rng.gen_range(0..specials.len())];
                    }
                }
            }
            let flipped: Vec<f32> = (llrs.iter().zip(&flips))
                .map(|(l, &f)| if f { -l } else { *l })
                .collect();
            if code.kind == RateMatchKind::Repeat {
                continue;
            }
            let signs: Vec<f32> = flips.iter().map(|&f| if f { -1.0 } else { 1.0 }).collect();
            let word = code
                .hard_word(&signs, &mut scratch)
                .expect("±1 is sign-clean");
            let at = format!("k={k} e={e} trial={trial}");
            let hard = code.hard_word(&llrs, &mut scratch);
            let moved = hard.map(|h| -> [u64; 8] { std::array::from_fn(|i| h[i] ^ word[i]) });
            assert_eq!(code.hard_word(&flipped, &mut scratch), moved, "{at}");
            let via = moved.and_then(|v| code.codeword_of(&v, &mut scratch).map(<[u8]>::to_vec));
            let direct = code.codeword_with(&flipped, &mut scratch);
            assert_eq!(via.as_deref(), direct, "{at}");
            let tally = seen.entry(format!("{:?}", code.kind)).or_insert([0; 3]);
            tally[usize::from(hard.is_some()) + usize::from(via.is_some())] += 1;
        }
    }
    assert_eq!(seen.len(), 2, "Shorten and Puncture both covered");
    assert!(
        seen.values().all(|t| t.iter().all(|&n| n > 100)),
        "{seen:?}"
    );
}

/// The walker with no short-circuit before it: every plan branch
/// (rate-0 skip, resolved and descended rate-1 nodes, the four-leaf
/// unroll) on codewords, noise and the special values, for the cell's
/// masks and for masks no construction would pick.
#[test]
fn sc_walker_matches_the_oracle_on_any_mask() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(22);
    let mut masks: Vec<Vec<bool>> = (cell_code_grid().into_iter())
        .map(|(k, e)| PolarCode::new(k, e).info_mask)
        .collect();
    for n in [4usize, 8, 32, 128, 512] {
        masks.push(vec![true; n]);
        masks.push(vec![false; n]);
        // Runs of information and frozen inputs of every alignment.
        for run in [1usize, 3, 4, 8, 20] {
            masks.push((0..n).map(|i| i / run % 2 == 1).collect());
            masks.push((0..n).map(|_| rng.gen_range(0..run + 1) > 0).collect());
        }
    }
    let mut sc = decode::ScScratch::default();
    for mask in masks {
        let plan = decode::Plan::compile(&mask);
        let decide = |x: &[u32]| {
            encode::polar_transform(&x.iter().map(|x| (x >> 31) as u8).collect::<Vec<_>>())
        };
        for trial in 0..300 {
            let mut llrs: Vec<f32> = (0..mask.len())
                .map(|_| rng.gen_range(-8.0f32..8.0))
                .collect();
            if trial % 3 == 0 {
                let specials = [0.0f32, -0.0, f32::NAN, 1.0e9, -1.0e9, f32::INFINITY];
                for l in llrs.iter_mut() {
                    if rng.gen_range(0..8) == 0 {
                        *l = specials[rng.gen_range(0..specials.len())];
                    }
                }
            }
            let want = sc_decode_oracle(&llrs, &mask);
            assert_eq!(decide(decode::sc_decode(&llrs, &plan, &mut sc)), want);
        }
    }
}

/// The order as the parent computed it on every call: a direct sort
/// with the weights re-derived inside the comparator.
#[cfg(test)]
fn direct_sort(n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| {
        polarization_weight(a)
            .total_cmp(&polarization_weight(b))
            .then(a.cmp(&b))
    });
    idx
}

#[test]
fn table_order_equals_the_direct_sort_at_every_length() {
    for n in 1..=1 << ratematch::N_MAX_DCI {
        assert_eq!(reliability_order(n), direct_sort(n), "n={n}");
    }
}

/// The accumulation as it was first written — `out[i % n] += l` — and
/// the pass-at-a-time one, to the bit: signed zeros (`0.0 + -0.0` is
/// `+0.0`), saturated values, every remainder of `e` by `n`.
#[test]
fn repeat_by_passes_equals_the_modulo_loop_bitwise() {
    let mut x = 0x9E37_79B9u32;
    for (e, n) in [(400, 128), (864, 512), (1728, 512), (512, 512), (513, 512)] {
        let llrs: Vec<f32> = (0..e)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let specials = [0.0, -0.0, 1.0e9, -1.0e9];
                match x >> 29 {
                    0 => specials[(x >> 8) as usize % 4],
                    _ => (x >> 8) as f32 / (1 << 20) as f32 - 8.0,
                }
            })
            .collect();
        let mut want = vec![0.0f32; n];
        for (i, l) in llrs.iter().enumerate() {
            want[i % n] += l;
        }
        let bits = |v: &[f32]| v.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        let mut got = vec![7.0; 3]; // stale content must not survive
        ratematch::deselect_into(&llrs, n, RateMatchKind::Repeat, &mut got);
        assert_eq!(bits(&got), bits(&want), "e={e} n={n}");
    }
}

/// Both entry points against the bodies they replaced: clean codewords,
/// 1–3 flipped bits anywhere (so also confined to the high 8 CRC bits),
/// the right RNTI, its neighbours, the recovered one and random ones,
/// every length from nothing to past the longest DCI.
#[test]
fn syndrome_entry_points_equal_the_bodies_they_replaced() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(20);
    for trial in 0..20_000 {
        let payload: Vec<u8> = (0..trial % 90).map(|_| rng.gen_range(0..2u8)).collect();
        let rnti: u16 = [0, 1, 0xFFFF, rng.gen()][trial % 4];
        let mut cw = dci_attach_crc(&payload, rnti);
        for _ in 0..[0, 0, 1, 2, 3][trial % 5] {
            let at = rng.gen_range(0..cw.len());
            cw[at] ^= 1;
        }
        if trial % 7 == 0 {
            cw.truncate(rng.gen_range(0..30));
        }
        let recovered = dci_recover_rnti(&cw);
        assert_eq!(recovered, recover_rnti_oracle(&cw), "{cw:?}");
        let tried = [
            rnti,
            rnti ^ 1,
            rnti ^ 0x8000,
            recovered.unwrap_or(7),
            rng.gen(),
        ];
        for r in tried {
            let got = dci_check_crc(&cw, r).map(<[u8]>::to_vec);
            assert_eq!(got, check_crc_oracle(&cw, r), "{cw:?} rnti {r:#x}");
        }
    }
}

/// The corner initialisers plus a seeded sample of the 31-bit space.
#[cfg(test)]
fn c_inits() -> Vec<u32> {
    let mut x = 0x2545_F491u32;
    let sample = (0..200).map(move |_| {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        x
    });
    [0, 1, 0x7FFF_FFFF, 0xFFFF_FFFF]
        .into_iter()
        .chain(sample)
        .collect()
}

/// Lengths straddling the word (28), the register (31), a machine word
/// and the longest PDCCH level.
#[cfg(test)]
const LENGTHS: [usize; 14] = [0, 1, 27, 28, 29, 30, 31, 32, 33, 56, 57, 863, 864, 865];

#[test]
fn word_stepping_equals_the_serial_generator() {
    for c_init in c_inits() {
        for len in LENGTHS {
            let serial = SerialGold::new(c_init).take_bits(len);
            assert_eq!(gold_bits(c_init, len), serial, "{c_init:#x} × {len}");
            let mut scrambled = vec![0u8; len];
            scramble_in_place(&mut scrambled, c_init);
            assert_eq!(scrambled, serial, "scramble {c_init:#x} × {len}");
        }
    }
}

#[test]
fn skip_and_interleaved_reads_equal_serial_stepping() {
    for c_init in c_inits() {
        let serial = SerialGold::new(c_init).take_bits(1000);
        for n in LENGTHS {
            let mut g = GoldSequence::new(c_init);
            g.skip(n);
            assert_eq!(g.take_bits(100), serial[n..n + 100], "{c_init:#x} skip {n}");
        }
        // Single bits between word reads of every phase.
        let mut g = GoldSequence::new(c_init);
        let mut got = Vec::new();
        for n in LENGTHS.into_iter().filter(|n| *n < 60) {
            got.push(g.next_bit());
            got.extend(g.take_bits(n));
        }
        assert_eq!(got, serial[..got.len()], "{c_init:#x} interleaved");
    }
}

/// `mcs::select_mcs` as it was: every entry's BLER evaluated, the highest
/// index that meets the target kept.
#[cfg(test)]
fn select_mcs_full_scan(table: McsTable, snr_db: f64, target_bler: f64) -> u8 {
    let mut best = 0u8;
    for idx in 0..=table.max_index() {
        let Some(entry) = table.entry(idx) else {
            continue;
        };
        if bler(entry, snr_db) <= target_bler {
            best = idx;
        }
    }
    best
}

/// The top-down scan and the full one on both tables, three targets, every
/// SNR from −30 to 50 dB in 0.001 dB steps, and NaN, ±∞ and ±0.
#[test]
fn select_mcs_equals_the_full_scan_on_the_grid() {
    let grid = (-30_000..=50_000).map(|milli_db| f64::from(milli_db) / 1000.0);
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
    for table in [McsTable::Qam64, McsTable::Qam256] {
        for target in [0.01, 0.1, 0.5] {
            for snr in grid.clone().chain(specials) {
                let want = select_mcs_full_scan(table, snr, target);
                let got = select_mcs(table, snr, target);
                assert_eq!(got, want, "{table:?}, {snr} dB, target {target}");
            }
        }
    }
}

/// TBS never falls as `n_prb` grows, which is what lets
/// `nr_mac::scheduler::smallest_span` bisect. Over every input a cell can
/// configure: both MCS tables at every index, 1–4 layers, 1–14 symbols,
/// DMRS {0, 6, 12, 18, 24, 36} and xOverhead {0, 6, 12, 18} REs per PRB,
/// 1–275 PRBs — 21,067,200 points in release; under debug assertions one
/// parameter set in 13.
#[test]
fn tbs_is_non_decreasing_in_n_prb_on_the_whole_grid() {
    let stride = if cfg!(debug_assertions) { 13 } else { 1 };
    let entries = MCS_TABLE_64QAM.iter().chain(&MCS_TABLE_256QAM);
    let sets = entries.flat_map(|&mcs| {
        (1..=4).flat_map(move |layers| {
            (1..=14).flat_map(move |n_symbols| {
                [0, 6, 12, 18, 24, 36]
                    .into_iter()
                    .flat_map(move |dmrs_per_prb| {
                        [0, 6, 12, 18].map(move |overhead_per_prb| TbsParams {
                            n_prb: 0,
                            n_symbols,
                            dmrs_per_prb,
                            overhead_per_prb,
                            mcs,
                            layers,
                        })
                    })
            })
        })
    });
    let mut points = 0;
    for set in sets.step_by(stride) {
        let mut prev = 0;
        for n_prb in 1..=275 {
            let tbs = transport_block_size(&TbsParams { n_prb, ..set });
            assert!(tbs >= prev, "{set:?}: {prev} → {tbs} bits at {n_prb} PRBs");
            prev = tbs;
            points += 1;
        }
    }
    assert!(stride > 1 || points == 21_067_200, "{points} points");
}
