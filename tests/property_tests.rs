//! Property-based tests on cross-crate invariants (proptest).

use nr_scope::gnb::CellConfig;
use nr_scope::mac::scheduler::smallest_span;
use nr_scope::phy::bits::{BitReader, BitWriter};
use nr_scope::phy::crc::{
    bits_to_crc, crc_to_bits, dci_attach_crc, dci_check_crc, dci_recover_rnti,
    dci_scrambling_syndrome, dci_syndrome, scramble_crc_with_rnti, CRC24C,
};
use nr_scope::phy::dci::{riv_decode, riv_encode, Dci, DciFormat, DciSizing};
use nr_scope::phy::mcs::{bler, select_mcs, McsTable};
use nr_scope::phy::pdcch::ue_search_space_y;
use nr_scope::phy::polar::ratematch::deselect_into;
use nr_scope::phy::polar::PolarCode;
use nr_scope::phy::sequence::{gold_bits, scramble_in_place, GoldSequence};
use nr_scope::phy::tbs::{
    near_quantisation_boundary, transport_block_size, transport_block_size_float_reference,
    transport_block_size_u64, TbsParams,
};
use nr_scope::phy::types::Rnti;
use nr_scope::rrc::{Mib, RrcSetup, Sib1};
use nr_scope::scope::throughput::RateWindow;
use proptest::prelude::*;

/// Successive cancellation as the textbooks write it — fresh LLR vectors
/// at every node, every node visited — returning the subtree's decisions
/// `u` and re-encoded codeword `x`. Independent of `nr_phy`'s kernel.
fn textbook_sc(llrs: &[f32], info_mask: &[bool]) -> (Vec<u8>, Vec<u8>) {
    if llrs.len() == 1 {
        let bit = u8::from(info_mask[0] && llrs[0] < 0.0);
        return (vec![bit], vec![bit]);
    }
    let half = llrs.len() / 2;
    let (a, b) = llrs.split_at(half);
    let f: Vec<f32> = (a.iter().zip(b))
        .map(|(a, b)| a.signum() * b.signum() * a.abs().min(b.abs()))
        .collect();
    let (mut u, x_left) = textbook_sc(&f, &info_mask[..half]);
    let g: Vec<f32> = (a.iter().zip(b).zip(&x_left))
        .map(|((a, b), &x)| if x == 0 { b + a } else { b - a })
        .collect();
    let (u_right, x_right) = textbook_sc(&g, &info_mask[half..]);
    u.extend(u_right);
    let mut x: Vec<u8> = x_left.iter().zip(&x_right).map(|(l, r)| l ^ r).collect();
    x.extend(x_right);
    (u, x)
}

/// 38.211 §5.2.1 as written: both m-sequences from their initial states,
/// one bit at a time through the `Nc` warm-up, then `skip + len` bits of
/// `c(n)` of which the last `len` are returned. Independent of `nr_phy`'s
/// generator.
fn spec_gold(c_init: u32, skip: usize, len: usize) -> Vec<u8> {
    let (mut x1, mut x2) = (1u32, c_init & 0x7FFF_FFFF);
    let mut out = Vec::new();
    for n in 0..1600 + skip + len {
        if n >= 1600 + skip {
            out.push(((x1 ^ x2) & 1) as u8);
        }
        let (n1, n2) = ((x1 >> 3) ^ x1, (x2 >> 3) ^ (x2 >> 2) ^ (x2 >> 1) ^ x2);
        x1 = (x1 >> 1) | ((n1 & 1) << 30);
        x2 = (x2 >> 1) | ((n2 & 1) << 30);
    }
    out
}

/// The DCI CRC check as 38.212 §7.3.2 states it, one RNTI at a time:
/// descramble the received CRC's last 16 bits with the RNTI, recompute
/// CRC24C over 24 ones then the payload, compare. What `dci_check_crc` did
/// before it read a syndrome.
fn spec_check(codeword: &[u8], rnti: u16) -> Option<Vec<u8>> {
    let (payload, crc_rx) = codeword.split_at(codeword.len().checked_sub(24)?);
    let mut crc_bits = crc_rx.to_vec();
    scramble_crc_with_rnti(&mut crc_bits, rnti);
    let padded = [&[1u8; 24][..], payload].concat();
    (CRC24C.compute(&padded) == bits_to_crc(&crc_bits)).then(|| payload.to_vec())
}

/// The paper's §3.1.2 recovery bit by bit: the high 8 CRC bits must agree,
/// the low 16 XOR to the RNTI.
fn spec_recover(codeword: &[u8]) -> Option<u16> {
    let (payload, crc_rx) = codeword.split_at(codeword.len().checked_sub(24)?);
    let padded = [&[1u8; 24][..], payload].concat();
    let local = crc_to_bits(CRC24C.compute(&padded), 24);
    let low = local[8..].iter().zip(&crc_rx[8..]);
    (local[..8] == crc_rx[..8]).then(|| low.fold(0, |r, (a, b)| (r << 1) | (a ^ b) as u16))
}

/// An RNTI of class `class`: SI, paging, zero (the PBCH's), an RA-RNTI,
/// the C/TC range, or any `draw`.
fn rnti_of((class, draw): (u8, u16)) -> u16 {
    match class {
        0 => 0xFFFF,
        1 => 0xFFFE,
        2 => 0,
        3 => 1 + draw % 0xFF,
        4 => 0x0100 + draw % 0xFEF0,
        _ => draw,
    }
}

proptest! {
    #[test]
    fn dci_syndrome_answers_every_rnti_as_the_spec_check_does(
        payload in prop::collection::vec(0u8..2, 0..81),
        rnti in (0u8..6, 0u16..0xFFFF),
        other in (0u8..6, 0u16..0xFFFF),
        flips in prop::collection::vec(0usize..1_000, 0..4),
        high_crc_flip in 0usize..16,
        cut in 0usize..240,
    ) {
        let (rnti, other) = (rnti_of(rnti), rnti_of(other));
        let mut cw = dci_attach_crc(&payload, rnti);
        for at in flips {
            let at = at % cw.len();
            cw[at] ^= 1;
        }
        // Half the time, a mismatch confined to the unscrambled high 8 CRC
        // bits.
        if high_crc_flip < 8 {
            let at = cw.len() - 24 + high_crc_flip;
            cw[at] ^= 1;
        }
        // One time in ten, shorter than a CRC: no syndrome, nothing checks,
        // nothing recovers.
        if cut < 24 {
            cw.truncate(cut);
        }
        let syndrome = dci_syndrome(&cw);
        prop_assert_eq!(syndrome.is_some(), cw.len() >= 24);
        let recovered = spec_recover(&cw);
        prop_assert_eq!(dci_recover_rnti(&cw), recovered);
        prop_assert_eq!(syndrome.and_then(|s| u16::try_from(s).ok()), recovered);
        for r in [rnti, other, rnti ^ 1, rnti ^ 0x8000, recovered.unwrap_or(1)] {
            let checks = spec_check(&cw, r);
            prop_assert_eq!(syndrome == Some(r as u32), checks.is_some(), "rnti {:#x}", r);
            prop_assert_eq!(dci_check_crc(&cw, r).map(<[u8]>::to_vec), checks);
        }
    }

    #[test]
    fn scrambling_moves_the_dci_syndrome_by_the_sequence_s_own(
        a in prop::collection::vec(0u8..2, 0..141),
        c_init in 0u32..0x8000_0000,
    ) {
        let len = a.len();
        let seq = gold_bits(c_init, len);
        let mut mixed = a.clone();
        scramble_in_place(&mut mixed, c_init);
        let moved = dci_syndrome(&a).zip(dci_scrambling_syndrome(&seq)).map(|(s, l)| s ^ l);
        prop_assert_eq!(dci_syndrome(&mixed), moved);
        prop_assert_eq!(moved.is_some(), len >= 24);
    }

    #[test]
    fn crc_rnti_recovery_is_exact_for_any_payload(
        payload in prop::collection::vec(0u8..2, 20..60),
        rnti in 1u16..0xFFF0,
    ) {
        let cw = dci_attach_crc(&payload, rnti);
        prop_assert_eq!(dci_recover_rnti(&cw), Some(rnti));
        prop_assert_eq!(dci_check_crc(&cw, rnti), Some(&payload[..]));
    }

    #[test]
    fn corrupted_codewords_never_validate(
        payload in prop::collection::vec(0u8..2, 30..50),
        rnti in 1u16..0xFFF0,
        flip in 0usize..50,
    ) {
        let mut cw = dci_attach_crc(&payload, rnti);
        let idx = flip % cw.len();
        cw[idx] ^= 1;
        prop_assert!(dci_check_crc(&cw, rnti).is_none());
    }

    #[test]
    fn polar_round_trips_any_payload(
        bits in prop::collection::vec(0u8..2, 25..90),
    ) {
        let e = 216; // aggregation level 2
        let code = PolarCode::new(bits.len(), e);
        let tx = code.encode(&bits);
        prop_assert_eq!(tx.len(), e);
        let llrs: Vec<f32> = tx.iter().map(|&b| if b == 0 { 6.0 } else { -6.0 }).collect();
        prop_assert_eq!(code.decode_sc(&llrs), bits);
    }

    #[test]
    fn polar_sc_equals_the_textbook_recursion_on_any_llrs(
        k in 25usize..90,
        level in 0usize..5,
        noise in prop::collection::vec(-8.0f32..8.0, 1728..1729),
        specials in prop::collection::vec(0usize..1728, 0..48),
    ) {
        // All three rate-matching modes (E = 108 shortens, 216/432
        // puncture, 864/1728 repeat), LLRs that are no codeword at all,
        // salted with signed zeros and saturated values.
        let e = 108 << level;
        let code = PolarCode::new(k, e);
        let mut llrs = noise[..e].to_vec();
        for (j, &i) in specials.iter().enumerate() {
            llrs[i % e] = [0.0, -0.0, 1.0e9, -1.0e9][j % 4];
        }
        let mut mother = Vec::new();
        deselect_into(&llrs, code.n, code.kind, &mut mother);
        let (u, _) = textbook_sc(&mother, &code.info_mask);
        let expected: Vec<u8> = code.info_positions.iter().map(|&p| u[p]).collect();
        prop_assert_eq!(code.decode_sc(&llrs), expected);
    }

    #[test]
    fn polar_hard_codeword_decodes_to_its_info_bits_as_the_textbook_recursion_does(
        bits in prop::collection::vec(0u8..2, 90..91),
        k in 25usize..90,
        level in 0usize..5,
        magnitudes in prop::collection::vec(0.01f32..30.0, 1728..1729),
        errors in prop::collection::vec(0usize..1728, 0..3),
    ) {
        // LLRs of any magnitude whose signs spell a codeword — the hard
        // decisions past a punctured head then satisfy the frozen set, and
        // `decode_sc` answers without an SC walk — and the same with up to
        // two sign errors, which it has to walk for.
        let e = 108 << level;
        let (code, payload) = (PolarCode::new(k, e), &bits[..k]);
        let mut llrs: Vec<f32> = (code.encode(payload).iter().zip(&magnitudes))
            .map(|(&b, &m)| if b == 0 { m } else { -m })
            .collect();
        errors.iter().for_each(|&i| llrs[i % e] = -llrs[i % e]);
        let mut mother = Vec::new();
        deselect_into(&llrs, code.n, code.kind, &mut mother);
        let (u, _) = textbook_sc(&mother, &code.info_mask);
        let textbook: Vec<u8> = code.info_positions.iter().map(|&p| u[p]).collect();
        let got = code.decode_sc(&llrs);
        prop_assert_eq!(&got, &textbook);
        prop_assert!(!errors.is_empty() || got == payload);
    }

    #[test]
    fn search_space_y_closed_form_equals_the_slot_recursion(rnti in 1u16..0xFFFF) {
        // 38.213 §10.1 as written: Y_{-1} = RNTI, Y_s = A_p · Y_{s-1} mod D,
        // stepped through every slot of 8 frames at µ=1.
        for (coreset, a) in [39827u64, 39829, 39839].into_iter().enumerate() {
            let mut y = rnti as u64;
            for slot in 0..160 {
                y = a * y % 65537;
                prop_assert_eq!(ue_search_space_y(Rnti(rnti), coreset, slot) as u64, y);
            }
        }
    }

    #[test]
    fn gold_scrambling_is_always_an_involution(
        mut data in prop::collection::vec(0u8..2, 1..300),
        c_init in 0u32..0x7FFF_FFFF,
    ) {
        let orig = data.clone();
        scramble_in_place(&mut data, c_init);
        scramble_in_place(&mut data, c_init);
        prop_assert_eq!(data, orig);
    }

    #[test]
    fn gold_generator_equals_the_spec_recurrence_at_any_offset(
        c_init in 0u32..u32::MAX,
        skip in 0usize..200,
        len in 0usize..900,
        single in 0usize..40,
    ) {
        let spec = spec_gold(c_init, skip, single + len);
        let mut g = GoldSequence::new(c_init);
        g.skip(skip);
        let mut got: Vec<u8> = (0..single).map(|_| g.next_bit()).collect();
        got.extend(g.take_bits(len));
        prop_assert_eq!(&got, &spec);
        prop_assert_eq!(gold_bits(c_init, skip + single + len)[skip..].to_vec(), spec);
    }

    #[test]
    fn gold_sequences_differ_across_inits(a in 0u32..1000, b in 1000u32..2000) {
        prop_assert_ne!(gold_bits(a, 64), gold_bits(b, 64));
    }

    #[test]
    fn riv_round_trips_within_any_bwp(
        bwp in 11usize..275,
        start_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
        let start = ((bwp - 1) as f64 * start_frac) as usize;
        let max_len = bwp - start;
        let len = 1 + ((max_len - 1) as f64 * len_frac) as usize;
        let riv = riv_encode(start, len, bwp);
        prop_assert_eq!(riv_decode(riv, bwp), Some((start, len)));
    }

    #[test]
    fn dci_pack_unpack_is_identity(
        bwp in 24usize..275,
        f_frac in 0.0f64..1.0,
        t_alloc in 0u8..16,
        mcs in 0u8..28,
        ndi in 0u8..2,
        rv in 0u8..4,
        harq_id in 0u8..16,
        dl in proptest::bool::ANY,
    ) {
        let sizing = DciSizing { bwp_prbs: bwp };
        let max_riv = riv_encode(0, bwp, bwp);
        let f_alloc = (max_riv as f64 * f_frac) as u32;
        let dci = Dci {
            format: if dl { DciFormat::Dl1_1 } else { DciFormat::Ul0_1 },
            f_alloc,
            t_alloc,
            mcs,
            ndi,
            rv,
            harq_id,
            dai: if dl { 2 } else { 0 },
            tpc: 1,
            harq_feedback: if dl { 3 } else { 0 },
            ports: 5,
            srs_request: 1,
            dmrs_id: 0,
        };
        let bits = dci.pack(&sizing);
        prop_assert_eq!(Dci::unpack(&bits, &sizing), Some(dci));
    }

    #[test]
    fn tbs_is_monotone_in_resources(
        prbs in 1usize..100,
        extra in 1usize..50,
        mcs in 0u8..28,
    ) {
        let entry = McsTable::Qam256.entry(mcs).unwrap();
        let params = |n| TbsParams {
            n_prb: n,
            n_symbols: 12,
            dmrs_per_prb: 12,
            overhead_per_prb: 0,
            mcs: entry,
            layers: 2,
        };
        prop_assert!(transport_block_size(&params(prbs + extra)) >= transport_block_size(&params(prbs)));
    }

    #[test]
    fn bler_is_between_zero_and_one(mcs in 0u8..28, snr in -30.0f64..50.0) {
        let entry = McsTable::Qam256.entry(mcs).unwrap();
        let p = bler(entry, snr);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn selected_mcs_is_always_valid(snr in -30.0f64..50.0) {
        for table in [McsTable::Qam64, McsTable::Qam256] {
            let m = select_mcs(table, snr, 0.1);
            prop_assert!(table.entry(m).is_some());
        }
    }

    #[test]
    fn mib_decode_never_panics_on_junk(bits in prop::collection::vec(0u8..2, 0..80)) {
        let _ = Mib::decode(&bits);
    }

    #[test]
    fn sib1_decode_never_panics_on_junk(bits in prop::collection::vec(0u8..2, 0..200)) {
        let _ = Sib1::decode(&bits);
    }

    #[test]
    fn rrc_setup_decode_never_panics_on_junk(bits in prop::collection::vec(0u8..2, 0..80)) {
        let _ = RrcSetup::decode(&bits);
    }

    #[test]
    fn bit_writer_reader_round_trip(
        values in prop::collection::vec((0u64..u32::MAX as u64, 1usize..33), 1..20),
    ) {
        let mut w = BitWriter::new();
        for (v, width) in &values {
            let masked = v & ((1u64 << width) - 1);
            w.put(masked, *width);
        }
        let bits = w.into_bits();
        let mut r = BitReader::new(&bits);
        for (v, width) in &values {
            let masked = v & ((1u64 << width) - 1);
            prop_assert_eq!(r.get(*width), Some(masked));
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn rate_window_matches_naive_recompute(
        mut samples in prop::collection::vec((0u64..5_000, 0u64..100_000), 1..150),
        window in 1u64..3_000,
    ) {
        // Random slot/bit sequences with gaps (sparse slots) and
        // duplicates (several grants in one slot), replayed in slot order.
        samples.sort_by_key(|&(s, _)| s);
        let mut w = RateWindow::default();
        for &(s, b) in &samples {
            w.push(s, b, window);
        }
        let last = samples.last().unwrap().0;
        // Naive recompute from scratch: a sample survives iff it is
        // strictly less than `window` slots old.
        let retained: Vec<(u64, u64)> = samples
            .iter()
            .copied()
            .filter(|&(s, _)| s + window > last)
            .collect();
        let naive_sum: u64 = retained.iter().map(|&(_, b)| b).sum();
        let first = retained.first().unwrap().0;
        let naive_span = (retained.last().unwrap().0 - first + 1).clamp(1, window);
        prop_assert_eq!(w.bits(), naive_sum);
        prop_assert_eq!(w.effective_span(window), naive_span);
    }

    #[test]
    fn tbs_integer_matches_float_reference_off_boundary(
        use_256 in 0u8..2,
        mcs in 0u8..28,
        n_prb in 1usize..276,
        n_symbols in 1usize..15,
        dmrs_idx in 0usize..4,
        oh_idx in 0usize..4,
        layers in 1usize..5,
    ) {
        // The f64 seed implementation is exact wherever the product fits
        // the mantissa, except within one quantisation step of a branch or
        // rounding boundary — the corrected cases the integer path pins
        // down in unit tests. Everywhere else the two must agree bit-exactly.
        let table = if use_256 == 1 { McsTable::Qam256 } else { McsTable::Qam64 };
        let entry = table.entry(mcs).unwrap();
        let p = TbsParams {
            n_prb,
            n_symbols,
            dmrs_per_prb: [6usize, 12, 18, 24][dmrs_idx],
            overhead_per_prb: [0usize, 6, 12, 18][oh_idx],
            mcs: entry,
            layers,
        };
        if !near_quantisation_boundary(&p) {
            prop_assert_eq!(
                transport_block_size_u64(&p),
                transport_block_size_float_reference(&p)
            );
        }
    }

    #[test]
    fn harq_tracker_flags_iff_ndi_repeats(
        observations in prop::collection::vec((0u8..16, 0u8..2), 1..100),
    ) {
        use nr_scope::mac::HarqTracker;
        let mut tracker = HarqTracker::new();
        let mut last: [Option<u8>; 16] = [None; 16];
        for (harq_id, ndi) in observations {
            let expect = last[harq_id as usize] == Some(ndi);
            prop_assert_eq!(tracker.observe(harq_id, ndi), expect);
            last[harq_id as usize] = Some(ndi);
        }
    }
}

/// Every grant a preset cell issues, across its whole carrier: downlink at
/// the cell's layers and uplink at one, at every index of its MCS table.
fn preset_grants() -> Vec<TbsParams> {
    let presets = [
        CellConfig::srsran_n41(),
        CellConfig::mosolab_n48(),
        CellConfig::amarisoft_n78(),
        CellConfig::tmobile_n25(),
        CellConfig::tmobile_n71(),
    ];
    let grants = presets.iter().flat_map(|cell| {
        (0..=cell.mcs_table.max_index()).flat_map(move |mcs| {
            [cell.layers, 1].map(|layers| TbsParams {
                n_prb: cell.carrier_prbs,
                n_symbols: cell.data_symbols(),
                dmrs_per_prb: cell.dmrs_per_prb,
                overhead_per_prb: cell.x_overhead,
                mcs: cell.mcs_table.entry(mcs).unwrap(),
                layers,
            })
        })
    });
    grants.collect()
}

/// The span search as the scheduler and the gNB's uplink each wrote it
/// before the bisection: the first covering PRB count, else the widest.
fn linear_span(bits: u32, widest: &TbsParams) -> usize {
    (1..=widest.n_prb)
        .find(|&n_prb| transport_block_size(&TbsParams { n_prb, ..*widest }) >= bits)
        .unwrap_or(widest.n_prb)
}

/// `smallest_span` returns the linear scan's span only where TBS never
/// falls as `n_prb` grows: so on every preset's grants (every configurable
/// input is `nr_phy::oracle`'s release check).
#[test]
fn tbs_is_non_decreasing_in_n_prb_for_every_preset_grant() {
    for widest in preset_grants() {
        let tbs: Vec<u32> = (1..=widest.n_prb)
            .map(|n_prb| transport_block_size(&TbsParams { n_prb, ..widest }))
            .collect();
        assert!(tbs.windows(2).all(|w| w[0] <= w[1]), "{widest:?}: {tbs:?}");
    }
}

/// The bisection against the linear scan at, just under and just over
/// every span's TBS, and at nothing and at the most a `u32` holds.
#[test]
fn span_bisection_equals_the_linear_scan_for_every_preset_grant() {
    for widest in preset_grants() {
        for n_prb in 1..=widest.n_prb {
            let tbs = transport_block_size(&TbsParams { n_prb, ..widest });
            for bits in [tbs - 1, tbs, tbs + 1, 0, u32::MAX] {
                let want = linear_span(bits, &widest);
                let got = smallest_span(u64::from(bits), &widest);
                assert_eq!(got, want, "{widest:?}, {bits} bits");
            }
        }
    }
}
