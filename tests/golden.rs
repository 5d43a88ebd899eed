//! Golden digests of the slot path, one per fidelity.
//!
//! The constants below were generated on the tree *before* the slot path
//! was folded into one scan loop and one hypothesis tester, and have to
//! hold unchanged on every tree after it: the telemetry a seeded run
//! produces is the contract, not the shape of the code that produces it
//! (ROADMAP 4b: "a small golden-tape corpus pins behaviour through items 2
//! and 3"). A digest that moves is a behaviour change; regenerate a
//! constant only together with the reason the telemetry changed.

use nr_scope::gnb::{CellConfig, Gnb};
use nr_scope::mac::RoundRobin;
use nr_scope::phy::channel::ChannelProfile;
use nr_scope::scope::decoder::DecodedDci;
use nr_scope::scope::observe::Observer;
use nr_scope::scope::persist::crc32;
use nr_scope::scope::worker::{process_slot, SlotJob};
use nr_scope::scope::{Fidelity, NrScope, ScopeConfig};
use nr_scope::ue::traffic::{TrafficKind, TrafficSource};
use nr_scope::ue::{MobilityScenario, SimUe};

/// What one seeded run is pinned on.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    /// CRC-32 of the JSON-serialised `NrScope::records()`.
    records_crc: u32,
    /// Final `ScopeStats` DCI counters: SI, RA, TC, DL, UL.
    dcis: [u64; 5],
    /// CRC-32 over every slot's decoded set out of `process_slot` (the
    /// worker-side path over the same captures).
    worker_crc: u32,
}

/// The decoded set of one slot in a canonical order, one line per DCI.
fn canonical(mut decoded: Vec<DecodedDci>) -> String {
    decoded.sort_by_key(|d| (d.cce_start, d.level, d.rnti));
    decoded
        .iter()
        .map(|d| {
            format!(
                "{}|{:?}|{}|{}|{}\n",
                d.rnti.0,
                d.rnti_type,
                d.level.cces(),
                d.cce_start,
                serde_json::to_string(&d.dci).expect("DCI serialises")
            )
        })
        .collect()
}

/// One seeded session: `n_ues` CBR 3 Mb/s UEs present from slot 0, every
/// capture decoded three times — by the live scope, and (from the scope's
/// own job snapshot) by `process_slot` with 1 and with 4 DCI threads,
/// which must agree with each other slot by slot.
fn run(fidelity: Fidelity, n_ues: u64, slots: u64, seed: u64) -> Digest {
    let cell = CellConfig::srsran_n41();
    let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), seed);
    for i in 1..=n_ues {
        gnb.ue_arrives(SimUe::new(
            i,
            ChannelProfile::Awgn,
            MobilityScenario::Static,
            TrafficSource::new(
                TrafficKind::Cbr {
                    rate_bps: 3e6,
                    packet_bytes: 1200,
                },
                seed ^ i,
            ),
            0.0,
            60.0,
            seed ^ (i << 8),
        ));
    }
    let iq = fidelity == Fidelity::Iq;
    let mut observer = Observer::new(&cell, 30.0, iq, seed);
    // IQ starts cold (PCI from PSS/SSS); message fidelity has no cell
    // search of its own and is handed the PCI.
    let mut scope = NrScope::new(
        ScopeConfig {
            fidelity,
            ..ScopeConfig::default()
        },
        (!iq).then_some(cell.pci),
    );
    let slot_s = cell.slot_s();
    let mut worker_log = String::new();
    for s in 0..slots {
        let out = gnb.step();
        let observed = observer.observe(&out, s as f64 * slot_s);
        if let Some(job) = scope.slot_job(observed.clone()) {
            let one = canonical(
                process_slot(&SlotJob {
                    dci_threads: 1,
                    ..job.clone()
                })
                .decoded,
            );
            let four = canonical(
                process_slot(&SlotJob {
                    dci_threads: 4,
                    ..job
                })
                .decoded,
            );
            assert_eq!(one, four, "slot {s}: 1 and 4 DCI threads disagree");
            worker_log.push_str(&format!("{s}\n{one}"));
        }
        scope.process(&observed);
    }
    let records = serde_json::to_string(&scope.records().to_vec()).expect("records serialise");
    let st = scope.stats;
    Digest {
        records_crc: crc32(records.as_bytes()),
        dcis: [st.si_dcis, st.ra_dcis, st.tc_dcis, st.dl_dcis, st.ul_dcis],
        worker_crc: crc32(worker_log.as_bytes()),
    }
}

#[test]
fn message_fidelity_run_matches_its_golden_digest() {
    assert_eq!(
        run(Fidelity::Message, 8, 4000, 0x601D),
        Digest {
            records_crc: 0xE92412A2,
            dcis: [13, 8, 8, 5145, 4310],
            worker_crc: 0xDD758846,
        }
    );
}

#[test]
fn iq_fidelity_cold_start_run_matches_its_golden_digest() {
    assert_eq!(
        run(Fidelity::Iq, 2, 200, 0x601D),
        Digest {
            records_crc: 0xDD23F338,
            dcis: [1, 2, 2, 58, 57],
            worker_crc: 0x9373E79D,
        }
    );
}
