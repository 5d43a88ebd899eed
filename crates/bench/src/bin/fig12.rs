//! Fig 12 — slot processing time vs number of UEs, one or four DCI
//! threads, on a 20 MHz (Amarisoft) and a 10 MHz (T-Mobile) carrier.
//!
//! The computation is the paper's §5.3.2 `O(n log n + m)`: per-slot
//! FFT/demodulation plus per-known-UE DCI decoding. Run at IQ fidelity so
//! both terms are real work.

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

/// Capture a handful of IQ slots (with live DCIs) from a loaded cell.
fn capture(cell: &CellConfig, n_slots: usize, seed: u64) -> Vec<(ObservedSlot, usize)> {
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
    out
}

fn mean_processing_us(
    slots: &[(ObservedSlot, usize)],
    ctx: &DecoderContext,
    rrc: &RrcSetup,
    n_ues: usize,
    threads: usize,
) -> f64 {
    let mut total_us = 0.0;
    for (observed, slot_in_frame) in slots {
        // Hypothesis list of n_ues RNTIs (real ones may be among them; cost
        // is what matters and it is per-hypothesis), each searched where
        // the cell's RRC Setup puts it — as the scope builds them.
        let c_rntis: Vec<UeHypothesis> = (0..n_ues)
            .map(|i| Rnti(0x4601 + i as u16))
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
        let slots = capture(&cell, 6, seed);
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
        for threads in [1usize, 4] {
            let series: Vec<(f64, f64)> = [1usize, 2, 4, 8, 16, 32, 64, 128]
                .iter()
                .map(|&m| (m as f64, mean_processing_us(&slots, &ctx, &rrc, m, threads)))
                .collect();
            println!(
                "{}",
                report::series(&format!("{name}, {threads} thread(s) (us)"), &series, 8)
            );
        }
    }
    println!();
    println!("paper: linear growth with UE count; four threads keep 20 MHz under one TTI up to ~195-285 UEs");
}
