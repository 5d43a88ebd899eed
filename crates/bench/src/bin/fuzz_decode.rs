//! fuzz_decode — seeded hostile-cell + structured-mutation soak.
//!
//! Drives the sniffer with the gNB simulator's full hostile emission
//! profile (ghost MSG 4s, reserved-bit violations, malformed DCI fields,
//! broken and contradictory RRC encodings) *and* seeded structured
//! mutations of the captured slots (bit flips, truncation, extension,
//! duplication, noise replacement), until at least the target number of
//! mutated decode attempts has been executed — 1M+ in the full run.
//!
//! Hard properties checked, process exit 1 on any breach:
//!   * **no panic** — the soak runs to completion (a panic is caught,
//!     counted in the report, and fails the gate);
//!   * **no ghost UE admitted** — zero false admissions: nothing is ever
//!     tracked or promoted that the cell did not genuinely serve;
//!   * **no accounting drift** — every legitimate UE's estimated bits stay
//!     inside `nrscope_analytics::PARITY_BAND` of the gNB truth log.
//!
//! Results land in `BENCH_adversarial.json` (rejects/sec, attempt counts,
//! false-admission count). `--short` shrinks the run for CI smoke tests;
//! `NRSCOPE_FUZZ_ATTEMPTS` overrides the attempt target outright.

use gnb_sim::{CellConfig, Gnb, HostileConfig};
use nr_mac::RoundRobin;
use nr_phy::channel::ChannelProfile;
use nr_phy::types::{Rnti, RntiType};
use nrscope::observe::{ObservedSlot, Observer, PdschPayload};
use nrscope::{NrScope, ScopeConfig};
use nrscope_analytics::{self as analytics, PARITY_BAND};
use nrscope_bench::gate::{Gate, Mode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::Instant;
use ue_sim::traffic::{TrafficKind, TrafficSource};
use ue_sim::{MobilityScenario, SimUe};

/// One round of structured mutations (mirrors `tests/adversarial.rs`).
fn mutate(observed: &mut ObservedSlot, rng: &mut StdRng) {
    let ObservedSlot::Message { dcis, pdsch, .. } = observed else {
        return;
    };
    for _ in 0..1 + rng.gen_range(0usize..3) {
        match rng.gen_range(0u32..6) {
            0 => {
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
                if let Some(d) = pick_mut(dcis, rng) {
                    let keep = rng.gen_range(0usize..d.scrambled_bits.len().max(1));
                    d.scrambled_bits.truncate(keep);
                }
            }
            2 => {
                if let Some(d) = pick_mut(dcis, rng) {
                    for _ in 0..1 + rng.gen_range(0usize..40) {
                        d.scrambled_bits.push(rng.gen_range(0u8..2));
                    }
                }
            }
            3 => {
                if let Some(d) = pick_mut(dcis, rng) {
                    for b in d.scrambled_bits.iter_mut() {
                        *b = rng.gen_range(0u8..2);
                    }
                }
            }
            4 => {
                if let Some(d) = pick_mut(dcis, rng) {
                    let copy = d.clone();
                    dcis.push(copy);
                }
            }
            _ => {
                if let Some((_, p)) = pick_mut(pdsch, rng) {
                    let bits = match p {
                        PdschPayload::Sib1(b) | PdschPayload::RrcSetup(b) => b,
                        PdschPayload::Rar(_) => continue,
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

/// The artefact's header fields.
#[derive(Serialize)]
struct Header {
    seed: u64,
    slots: u64,
    mutated_slots: u64,
    decode_attempts: u64,
    wall_s: f64,
    validation_rejects: u64,
    parse_rejects: u64,
    rejects_per_sec: f64,
    ghosts_quarantined: u64,
    quarantine_size: usize,
    false_admissions: u64,
    worst_parity_ratio: f64,
    parity_band: [f64; 2],
    pass: bool,
}

fn soak(mode: Mode) -> Header {
    let target_attempts: u64 = std::env::var("NRSCOPE_FUZZ_ATTEMPTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(mode.pick(60_000, 1_000_000));
    let seed: u64 = std::env::var("NRSCOPE_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xF0220);

    let cell = CellConfig::srsran_n41();
    let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), seed);
    gnb.arm_hostile(HostileConfig {
        seed: seed ^ 0xAD,
        ..HostileConfig::default()
    });
    for i in 1..=3u64 {
        gnb.ue_arrives(SimUe::new(
            i,
            ChannelProfile::Awgn,
            MobilityScenario::Static,
            TrafficSource::new(
                TrafficKind::Cbr {
                    rate_bps: 2e6,
                    packet_bytes: 1200,
                },
                i,
            ),
            0.0,
            1e9, // active for the whole soak
            i,
        ));
    }
    let mut obs = Observer::new(&cell, 35.0, false, 5);
    let mut scope = NrScope::new(ScopeConfig::default(), Some(cell.pci));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let slot_s = cell.slot_s();

    // Phase A — hostile soak, capture unmutated: every candidate decode
    // runs against a cell that is actively lying, so each one counts as
    // an adversarial decode attempt. Legitimate codewords survive intact,
    // so the full accounting parity band applies here.
    //
    // Phase B — hostile + structured mutation: 3 slots in 4 are mutated
    // (the clean quarter keeps the session synced). Mutation destroys
    // legitimate codewords too, so the completeness side of parity cannot
    // hold; the properties here are no panic, no ghost, and no *phantom*
    // bytes (a mutated capture can lose real grants but must never invent
    // them — HARQ/NDI dedup has to absorb duplicated candidates).
    let start = Instant::now();
    let mut slots = 0u64;
    let mut mutated_slots = 0u64;
    let mut attempts = 0u64;
    while attempts < target_attempts / 2 {
        let out = gnb.step();
        let observed = obs.observe(&out, slots as f64 * slot_s);
        if let ObservedSlot::Message { dcis, .. } = &observed {
            attempts += dcis.len() as u64;
        }
        scope.process(&observed);
        slots += 1;
    }
    let phase_a_end = slots;
    // Parity is measured per phase, at phase end, over a window inside
    // the throughput-history retention (older history is pruned by
    // design, so a late query over an early window would read zero).
    let window = |end: u64| {
        let w = (end / 2).min(nrscope::throughput::DEFAULT_HISTORY_RETENTION_SLOTS / 2);
        end - w..end
    };
    let parity_a: Vec<(Rnti, f64, f64)> = gnb
        .connected_rntis()
        .into_iter()
        .map(|r| {
            let est = scope.estimated_bits(r, window(phase_a_end)) as f64;
            let truth = gnb
                .ue(r)
                .map(|u| u.delivered_bytes_in(window(phase_a_end)))
                .unwrap_or(0) as f64
                * 8.0;
            (r, est, truth)
        })
        .collect();
    while attempts < target_attempts {
        let out = gnb.step();
        let mut observed = obs.observe(&out, slots as f64 * slot_s);
        if !slots.is_multiple_of(4) {
            mutate(&mut observed, &mut rng);
            mutated_slots += 1;
        }
        if let ObservedSlot::Message { dcis, .. } = &observed {
            attempts += dcis.len() as u64;
        }
        scope.process(&observed);
        slots += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();

    // Ground truth: every RNTI the cell genuinely addressed.
    let real: BTreeSet<Rnti> = gnb
        .truth()
        .records()
        .iter()
        .filter(|r| matches!(r.rnti_type, RntiType::C | RntiType::Tc))
        .map(|r| r.rnti)
        .collect();

    // False admissions: anything tracked or ever promoted beyond the
    // genuinely served UEs.
    let ghost_tracked = scope
        .tracked_rntis()
        .iter()
        .filter(|r| !real.contains(r))
        .count() as u64;
    let excess_promotes = scope
        .total_discovered()
        .saturating_sub(gnb.connected_rntis().len() as u64);
    let false_admissions = ghost_tracked + excess_promotes;

    // Accounting drift of the legitimate UEs. Phase A (intact captures,
    // steady state): full parity band. Phase B (mutated captures): an
    // estimate may fall short of truth — the mutations destroyed real
    // codewords — but must never exceed the band's ceiling: phantom bytes
    // would mean corrupted input was credited to a real UE.
    let mut worst_ratio = 1.0f64;
    let mut parity_ok = true;
    for (rnti, est_a, truth_a) in parity_a {
        let est_b = scope.estimated_bits(rnti, window(slots)) as f64;
        let truth_b = gnb
            .ue(rnti)
            .map(|u| u.delivered_bytes_in(window(slots)))
            .unwrap_or(0) as f64
            * 8.0;
        if truth_a <= 0.0 || truth_b <= 0.0 {
            parity_ok = false;
            continue;
        }
        let ra = est_a / truth_a;
        if (ra - 1.0).abs() > (worst_ratio - 1.0).abs() {
            worst_ratio = ra;
        }
        parity_ok &= analytics::parity_ok(ra);
        parity_ok &= est_b / truth_b <= PARITY_BAND[1];
    }

    let rejects = scope.stats.validation_rejects + scope.stats.parse_rejects;
    println!(
        "fuzz_decode: {attempts} mutated decode attempts over {slots} slots in {wall_s:.1}s \
         ({rejects} typed rejects, {false_admissions} false admissions, parity_ok={parity_ok})"
    );
    Header {
        seed,
        slots,
        mutated_slots,
        decode_attempts: attempts,
        wall_s,
        validation_rejects: scope.stats.validation_rejects,
        parse_rejects: scope.stats.parse_rejects,
        rejects_per_sec: rejects as f64 / wall_s,
        ghosts_quarantined: scope.stats.ghosts_quarantined,
        quarantine_size: scope.quarantined_rntis().len(),
        false_admissions,
        worst_parity_ratio: worst_ratio,
        parity_band: PARITY_BAND,
        pass: false_admissions == 0 && parity_ok,
    }
}

fn main() -> ExitCode {
    let mut gate = Gate::new("adversarial", "phases", Mode::from_env());
    let mode = gate.mode;
    let header = gate.guard(|| soak(mode));
    if let Some(Header { pass: false, .. }) = header {
        gate.breach("invariant breach: a ghost was admitted or legitimate parity drifted".into());
    }
    gate.finish(&header)
}
