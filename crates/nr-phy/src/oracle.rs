//! Reference implementations the optimised kernels are compared with —
//! each one the body a kernel replaced, kept as it was written — and the
//! differential tests that do the comparing (those that need a kernel's
//! private parts sit beside it and call in here). A kernel that computes
//! its reference's formula is compared bit for bit. Extraction changed the
//! formula (one-pass pilot sums, a closed-form demapper), so its references
//! are compared within bounds derived here, and at the decision level by
//! `tests/golden.rs` — which is why the extraction references alone are
//! compiled outside tests (hidden from the docs, called by no binary);
//! everything else here is `#[cfg(test)]`. The one file CI's PHY line
//! count leaves out: the count is of the code the slot path runs.

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
    polar::construction::tests::cell_code_grid,
    polar::construction::{polarization_weight, reliability_order},
    polar::ratematch::{self, RateMatchKind},
    polar::{decode, encode, DecodeScratch, PolarCode},
    sequence::{scramble_in_place, GoldSequence, NC},
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

/// The two-pass estimator `pdcch::extract_candidate_above` had: gather the
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
/// complex Gaussian noise that far under the signal.
#[cfg(test)]
fn heard(
    coreset: &Coreset,
    (cce_start, level): (usize, AggregationLevel),
    h: Cf32,
    snr_db: Option<f32>,
    seed: u64,
) -> ResourceGrid {
    use crate::pdcch::{encode_pdcch, PdcchAllocation};
    let mut grid = ResourceGrid::new(51);
    let alloc = PdcchAllocation {
        cce_start,
        level,
        rnti: crate::types::Rnti(0x4601),
    };
    let payload: Vec<u8> = (0..40).map(|i| ((i * 11 + 3) % 2) as u8).collect();
    encode_pdcch(&mut grid, coreset, &alloc, &payload, 500, 0x5A5A, 3);
    let sigma2 = snr_db.map_or(0.0, |db| h.norm_sqr() * 10f32.powf(-db / 10.0));
    let mut noise = crate::channel::AwgnChannel::new(sigma2, seed);
    for sym in coreset.symbol_start..coreset.symbol_start + coreset.n_symbols {
        for re in grid.symbol_mut(sym) {
            *re = *re * h + noise.sample();
        }
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
        cce_pilot_sums, extract_candidate, extract_candidate_above, CoresetSequences, BITS_PER_CCE,
        PILOT_SNR_FLOOR,
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
            let soft = extract_candidate_above(grid, c, at, level, &seqs, cces, floor);
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
/// strided per stage, the direction tested inside the loop — kept as
/// the bit-exactness oracle for `Fft::run`.
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
    ratematch::deselect_into(llrs.iter().copied(), code.n, code.kind, &mut mother);
    let u = sc_decode_oracle(&mother, &code.info_mask);
    code.info_positions.iter().map(|&p| u[p]).collect()
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
            let got = (code.decode_sc_with(llrs.iter().copied(), &mut scratch)).to_vec();
            let short = SHORT_CIRCUITS.get() - before;
            let want = decode_oracle(&code, &llrs);
            assert_eq!(got, want, "k={k} e={e} trial={trial}");
            let alone = code.codeword_with(llrs.iter().copied(), &mut scratch);
            assert_eq!(alone.is_some(), short == 1, "k={k} e={e} trial={trial}");
            assert!(alone.is_none_or(|bits| bits == want));
            // What the receiver decodes, as `deselect_into` hands it over,
            // past the punctured head.
            let mut mother = Vec::new();
            ratematch::deselect_into(llrs.iter().copied(), code.n, code.kind, &mut mother);
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
        ratematch::deselect_into(llrs.iter().copied(), n, RateMatchKind::Repeat, &mut got);
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
