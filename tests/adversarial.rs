//! Hostile-cell and structured-mutation adversarial suite.
//!
//! Every over-the-air bit is untrusted input. These tests drive the
//! sniffer with the gNB simulator's hostile emission profile (ghost
//! MSG 4s, reserved-bit violations, malformed DCI fields, broken and
//! contradictory RRC encodings — see `gnb_sim::hostile`) and with seeded
//! structured mutations of captured slots, and assert the three hardening
//! invariants:
//!
//! 1. **no panic** — every malformed input surfaces as a typed, counted
//!    reject;
//! 2. **no ghost UE admitted** — the tracked set never contains an RNTI
//!    the cell did not actually serve;
//! 3. **no accounting drift** — legitimate UEs' per-byte accounting stays
//!    inside the parity band of the ground-truth log even while the
//!    hostile vectors fire.

use nr_scope::gnb::{CellConfig, Gnb, HostileConfig};
use nr_scope::mac::RoundRobin;
use nr_scope::phy::channel::ChannelProfile;
use nr_scope::phy::types::{Rnti, RntiType};
use nr_scope::scope::observe::{ObservedSlot, Observer, PdschPayload};
use nr_scope::scope::{NrScope, ScopeConfig, SyncState};
use nr_scope::ue::traffic::{TrafficKind, TrafficSource};
use nr_scope::ue::{MobilityScenario, SimUe};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn build_gnb(n_ues: usize, seed: u64) -> (CellConfig, Gnb) {
    let cell = CellConfig::srsran_n41();
    let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), seed);
    for i in 0..n_ues as u64 {
        gnb.ue_arrives(SimUe::new(
            i + 1,
            ChannelProfile::Awgn,
            MobilityScenario::Static,
            TrafficSource::new(
                TrafficKind::Cbr {
                    rate_bps: 2e6,
                    packet_bytes: 1200,
                },
                i + 1,
            ),
            0.0,
            60.0,
            i + 1,
        ));
    }
    (cell, gnb)
}

/// Every RNTI the cell genuinely addressed (from the ground-truth log) —
/// the only RNTIs the sniffer is ever allowed to track.
fn real_rntis(gnb: &Gnb) -> BTreeSet<Rnti> {
    gnb.truth()
        .records()
        .iter()
        .filter(|r| matches!(r.rnti_type, RntiType::C | RntiType::Tc))
        .map(|r| r.rnti)
        .collect()
}

#[test]
fn hostile_cell_admits_no_ghost_and_keeps_accounting() {
    let (cell, mut gnb) = build_gnb(4, 21);
    gnb.arm_hostile(HostileConfig::default());
    let mut obs = Observer::new(&cell, 35.0, false, 5);
    let mut scope = NrScope::new(ScopeConfig::default(), Some(cell.pci));
    let slot_s = cell.slot_s();
    for s in 0..10_000u64 {
        let out = gnb.step();
        let observed = obs.observe(&out, s as f64 * slot_s);
        scope.process(&observed);
    }

    // Invariant 2: the tracked set is exactly the genuinely served UEs.
    assert_eq!(scope.sync_state(), SyncState::Synced);
    assert_eq!(scope.tracked_rntis(), gnb.connected_rntis());
    assert_eq!(
        scope.total_discovered(),
        4,
        "not one phantom UE was ever promoted"
    );
    let real = real_rntis(&gnb);
    for r in scope.quarantined_rntis() {
        assert!(!real.contains(&r), "quarantine holds only ghosts, got {r}");
    }
    for r in scope.probationary_rntis() {
        assert!(!real.contains(&r), "probation holds only ghosts, got {r}");
    }

    // Invariant 1, observably: the attacks were seen and rejected through
    // typed paths, not ignored or panicked on.
    assert!(
        scope.stats.validation_rejects > 0,
        "stage-1 rejected reserved-bit / malformed-field DCIs"
    );
    assert!(
        scope.stats.parse_rejects > 0,
        "broken RRC encodings rejected with typed errors"
    );
    assert!(
        scope.stats.ghosts_quarantined > 0,
        "lapsed ghost candidates were quarantined"
    );
    assert!(
        !scope.quarantined_rntis().is_empty(),
        "quarantine ledger is populated"
    );
    assert_eq!(
        scope.stats.sib1_reloads, 0,
        "flapping SIB1 spoof never displaced cell state"
    );

    // Invariant 3: legitimate per-UE accounting stays in the parity band
    // of the truth log despite the ongoing hostility.
    for rnti in gnb.connected_rntis() {
        let est = scope.estimated_bits(rnti, 2_000..10_000) as f64;
        let truth = gnb.ue(rnti).unwrap().delivered_bytes_in(2_000..10_000) as f64 * 8.0;
        assert!(truth > 0.0, "UE {rnti} was active");
        let ratio = est / truth;
        assert!(
            nr_scope::analytics::parity_ok(ratio),
            "UE {rnti}: estimate/truth ratio {ratio:.3} outside parity band"
        );
    }
}

#[test]
fn persistent_ghost_is_quarantined_with_counted_reappearances() {
    let (cell, mut gnb) = build_gnb(1, 5);
    let ghost = Rnti(0x7F2A);
    // Only the persistent-ghost vector, on a period longer than the
    // admission window, so every sighting lands in a lapsed window.
    gnb.arm_hostile(HostileConfig {
        persistent_ghost_period: 251,
        persistent_ghost_rnti: ghost.0,
        ..HostileConfig::quiet()
    });
    let mut obs = Observer::new(&cell, 35.0, false, 5);
    let cfg = ScopeConfig::default();
    assert!(
        cfg.admission.window_slots < 251,
        "test premise: re-emission period exceeds the admission window"
    );
    let mut scope = NrScope::new(cfg, Some(cell.pci));
    let slot_s = cell.slot_s();
    for s in 0..6_000u64 {
        let out = gnb.step();
        scope.process(&obs.observe(&out, s as f64 * slot_s));
    }
    assert!(
        scope.quarantined_rntis().contains(&ghost),
        "lapsed persistent ghost is in the quarantine ledger"
    );
    assert!(
        scope.quarantine_reappearances(ghost) >= 2,
        "reappearances counted cheaply, got {}",
        scope.quarantine_reappearances(ghost)
    );
    assert!(!scope.tracked_rntis().contains(&ghost));
    assert_eq!(scope.tracked_rntis(), gnb.connected_rntis());
}

#[test]
fn ghost_flood_is_bounded_and_starves_no_real_ue() {
    let (cell, mut gnb) = build_gnb(2, 9);
    // Ghost MSG 4s every other downlink slot: a probation flood.
    gnb.arm_hostile(HostileConfig {
        ghost_dci_period: 2,
        ..HostileConfig::quiet()
    });
    let mut obs = Observer::new(&cell, 35.0, false, 5);
    let cfg = ScopeConfig::default();
    let mut scope = NrScope::new(cfg, Some(cell.pci));
    let slot_s = cell.slot_s();
    for s in 0..8_000u64 {
        let out = gnb.step();
        scope.process(&obs.observe(&out, s as f64 * slot_s));
    }
    // Bounded state despite thousands of distinct ghost candidates.
    assert!(
        scope.probationary_rntis().len() <= 64,
        "probation set stays bounded, got {}",
        scope.probationary_rntis().len()
    );
    assert!(
        scope.quarantined_rntis().len() <= cfg.admission.quarantine_max,
        "quarantine ledger respects its size bound"
    );
    assert!(scope.stats.ghosts_quarantined > 0);
    // Real UEs still discovered, tracked and accounted through the flood.
    assert_eq!(scope.tracked_rntis(), gnb.connected_rntis());
    for rnti in gnb.connected_rntis() {
        let est = scope.estimated_bits(rnti, 2_000..8_000) as f64;
        let truth = gnb.ue(rnti).unwrap().delivered_bytes_in(2_000..8_000) as f64 * 8.0;
        let ratio = est / truth;
        assert!(
            nr_scope::analytics::parity_ok(ratio),
            "UE {rnti}: ratio {ratio:.3} outside parity band under flood"
        );
    }
    // And the ghosts never pollute fair-share spare capacity: no spare
    // share is ever attributed to a non-real RNTI.
    let real = real_rntis(&gnb);
    for (_, shares) in scope.spare_log() {
        for share in shares {
            assert!(
                real.contains(&share.rnti),
                "spare capacity attributed to ghost {}",
                share.rnti
            );
        }
    }
}

/// Structured mutations over a captured slot: bit flips, truncation,
/// extension, duplication and full-random replacement of codewords and
/// broadcast payloads — the same operators the `fuzz_decode` bench bin
/// applies at soak scale.
fn mutate(observed: &mut ObservedSlot, rng: &mut StdRng) {
    let ObservedSlot::Message { dcis, pdsch, .. } = observed else {
        return;
    };
    for _ in 0..1 + rng.gen_range(0usize..3) {
        match rng.gen_range(0u32..6) {
            0 => {
                // Flip a few codeword bits.
                if let Some(d) = pick_mut(dcis, rng) {
                    for _ in 0..1 + rng.gen_range(0usize..4) {
                        if !d.scrambled_bits.is_empty() {
                            let i = rng.gen_range(0usize..d.scrambled_bits.len());
                            d.scrambled_bits[i] ^= 1;
                        }
                    }
                }
            }
            1 => {
                // Truncate a codeword.
                if let Some(d) = pick_mut(dcis, rng) {
                    let keep = rng.gen_range(0usize..d.scrambled_bits.len().max(1));
                    d.scrambled_bits.truncate(keep);
                }
            }
            2 => {
                // Extend a codeword with random bits.
                if let Some(d) = pick_mut(dcis, rng) {
                    for _ in 0..1 + rng.gen_range(0usize..40) {
                        d.scrambled_bits.push(rng.gen_range(0u8..2));
                    }
                }
            }
            3 => {
                // Replace a codeword with pure noise of the same length.
                if let Some(d) = pick_mut(dcis, rng) {
                    for b in d.scrambled_bits.iter_mut() {
                        *b = rng.gen_range(0u8..2);
                    }
                }
            }
            4 => {
                // Duplicate a captured candidate verbatim.
                if let Some(d) = pick_mut(dcis, rng) {
                    let copy = d.clone();
                    dcis.push(copy);
                }
            }
            _ => {
                // Corrupt a broadcast payload: flip, truncate or extend.
                if let Some((_, p)) = pick_mut(pdsch, rng) {
                    let bits = match p {
                        PdschPayload::Sib1(b) | PdschPayload::RrcSetup(b) => b,
                        PdschPayload::Rar(_) => return,
                    };
                    match rng.gen_range(0u32..3) {
                        0 if !bits.is_empty() => {
                            let i = rng.gen_range(0usize..bits.len());
                            bits[i] ^= 1;
                        }
                        1 => bits.truncate(bits.len() / 2),
                        _ => bits.extend([1u8, 0, 1, 1, 0, 1, 0, 0]),
                    }
                }
            }
        }
    }
}

fn pick_mut<'a, T>(v: &'a mut [T], rng: &mut StdRng) -> Option<&'a mut T> {
    if v.is_empty() {
        None
    } else {
        let i = rng.gen_range(0usize..v.len());
        v.get_mut(i)
    }
}

#[test]
fn structured_mutation_fuzz_never_panics_or_admits_a_ghost() {
    let (cell, mut gnb) = build_gnb(3, 33);
    gnb.arm_hostile(HostileConfig::default());
    let mut obs = Observer::new(&cell, 35.0, false, 5);
    let mut scope = NrScope::new(ScopeConfig::default(), Some(cell.pci));
    let mut rng = StdRng::seed_from_u64(0xF022);
    let slot_s = cell.slot_s();
    for s in 0..12_000u64 {
        let out = gnb.step();
        let mut observed = obs.observe(&out, s as f64 * slot_s);
        // Mutate three slots in four; the clean quarter keeps the session
        // synced so the decode paths stay reachable.
        if s % 4 != 0 {
            mutate(&mut observed, &mut rng);
        }
        scope.process(&observed);
    }
    // No panic: we got here. No ghost: everything tracked was real.
    let real = real_rntis(&gnb);
    for r in scope.tracked_rntis() {
        assert!(real.contains(&r), "fuzz admitted ghost {r}");
    }
    // The mutations actually exercised the reject paths.
    assert!(scope.stats.validation_rejects > 0);
    assert!(scope.stats.parse_rejects > 0);
}
