//! Fig 12 — slot processing time vs number of UEs, one or four DCI
//! threads, on a 20 MHz (Amarisoft) and a 10 MHz (T-Mobile) carrier.
//!
//! The computation is the paper's §5.3.2 `O(n log n + m)`: per-slot
//! FFT/demodulation plus per-known-UE DCI decoding. Run at IQ fidelity so
//! both terms are real work.
//!
//! Two hypothesis lists per carrier: one headed by the cell's own C-RNTIs
//! (every DCI is claimed within the first few tries — the flat series),
//! and a *foreign* one disjoint from them, so every DCI in the slot costs
//! its share of the whole list plus a CRC-XOR recovery — the residual
//! `O(m)` term, a sniffer's worst case.

use gnb_sim::CellConfig;
use nr_phy::dci::DciSizing;
use nr_phy::pdcch::SearchBudget;
use nr_phy::types::Rnti;
use nr_rrc::RrcSetup;
use nrscope::decoder::{DecoderContext, Hypotheses, UeHypothesis};
use nrscope::observe::{ObservedSlot, Observer};
use nrscope::worker::{process_slot, JobPriority, SlotJob};
use nrscope::Fidelity;
use nrscope_analytics::report;
use nrscope_bench::SessionSpec;
use ue_sim::traffic::TrafficKind;

/// First C-RNTI of the list headed by the cell's own UEs.
const CELL_RNTI_BASE: u16 = 0x4601;
/// First C-RNTI of the foreign list (checked disjoint from the cell's).
const FOREIGN_RNTI_BASE: u16 = 0x9001;
/// Hypothesis-list lengths swept; the foreign series runs all of them,
/// the cell's own stops at 128 as the paper's figure does.
const LIST_LENS: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Capture a handful of IQ slots (with live DCIs) from a loaded cell, and
/// the C-RNTIs connected to it.
fn capture(
    cell: &CellConfig,
    n_slots: usize,
    seed: u64,
) -> (Vec<(ObservedSlot, usize)>, Vec<Rnti>) {
    let mut spec = SessionSpec::new(cell.clone());
    spec.n_ues = 4;
    spec.fidelity = Fidelity::Message; // drive the gNB cheaply first
    spec.seconds = 0.5;
    spec.seed = seed;
    spec.traffic = TrafficKind::Cbr {
        rate_bps: 4e6,
        packet_bytes: 1200,
    };
    let mut gnb = spec.run().gnb;
    let mut observer = Observer::new(cell, 28.0, true, seed);
    let mut out = Vec::new();
    let slot_s = cell.slot_s();
    let mut s = 0u64;
    while out.len() < n_slots {
        let slot = gnb.step();
        let sif = slot.slot_in_frame;
        if slot.dcis.is_empty() {
            s += 1;
            continue;
        }
        out.push((observer.observe(&slot, s as f64 * slot_s), sif));
        s += 1;
    }
    (out, gnb.connected_rntis())
}

fn mean_processing_us(
    slots: &[(ObservedSlot, usize)],
    ctx: &DecoderContext,
    rrc: &RrcSetup,
    first_rnti: u16,
    n_ues: usize,
    threads: usize,
) -> f64 {
    let mut total_us = 0.0;
    for (observed, slot_in_frame) in slots {
        // Hypothesis list of n_ues RNTIs from `first_rnti` up, each
        // searched where the cell's RRC Setup puts it — as the scope
        // builds them.
        let c_rntis: Vec<UeHypothesis> = (0..n_ues)
            .map(|i| Rnti(first_rnti + i as u16))
            .map(|r| UeHypothesis::in_search_space(r, rrc, &ctx.coreset, *slot_in_frame))
            .collect();
        let job = SlotJob {
            slot: 0,
            slot_in_frame: *slot_in_frame,
            observed: observed.clone(),
            ctx: ctx.clone(),
            hyp: Hypotheses {
                c_rntis,
                allow_recovery: true,
                ..Hypotheses::default()
            },
            dci_threads: threads,
            fault: None,
            priority: JobPriority::Data,
            budget: SearchBudget::unlimited(),
        };
        let r = process_slot(&job);
        total_us += r.processing.as_secs_f64() * 1e6;
    }
    total_us / slots.len() as f64
}

fn main() {
    println!(
        "{}",
        report::figure_header("fig12", "slot processing time vs UE hypotheses")
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host_cores {cores}  (the paper's 4-thread speedup needs >= 4 cores; on fewer, sharding only adds overhead)");
    let cases = [
        ("Amarisoft 20MHz", CellConfig::amarisoft_n78(), 1u64),
        ("T-Mobile 10MHz", CellConfig::tmobile_n25(), 2u64),
    ];
    for (name, cell, seed) in cases {
        let (slots, cell_rntis) = capture(&cell, 6, seed);
        let foreign = FOREIGN_RNTI_BASE..FOREIGN_RNTI_BASE + LIST_LENS[LIST_LENS.len() - 1] as u16;
        assert!(
            cell_rntis.iter().all(|r| !foreign.contains(&r.0)),
            "the foreign list must hold none of the cell's RNTIs"
        );
        let ctx = DecoderContext {
            coreset: cell.coreset,
            pci: cell.pci.0,
            numerology: cell.numerology,
            common_sizing: DciSizing {
                bwp_prbs: cell.coreset.n_prb,
            },
            ue_sizing: Some(DciSizing {
                bwp_prbs: cell.carrier_prbs,
            }),
        };
        let rrc = cell.rrc_setup();
        for (list, first_rnti, lens) in [
            ("", CELL_RNTI_BASE, &LIST_LENS[..8]),
            (", foreign list", FOREIGN_RNTI_BASE, &LIST_LENS[..]),
        ] {
            for threads in [1usize, 4] {
                let series: Vec<(f64, f64)> = lens
                    .iter()
                    .map(|&m| {
                        let us = mean_processing_us(&slots, &ctx, &rrc, first_rnti, m, threads);
                        (m as f64, us)
                    })
                    .collect();
                let title = format!("{name}{list}, {threads} thread(s) (us)");
                println!("{}", report::series(&title, &series, lens.len()));
            }
        }
    }
    println!();
    println!("paper: linear growth with UE count; four threads keep 20 MHz under one TTI up to ~195-285 UEs");
    println!("foreign list: no hypothesis claims a DCI, so each DCI costs its share of the whole list plus a CRC-XOR recovery");
}
