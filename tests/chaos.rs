//! Seeded chaos run: impairment injection on the radio front end, a worker
//! panic plus backpressure sheds in the decode pool, and a mid-run gNB
//! reconfiguration — the pipeline must self-heal and keep its telemetry
//! accuracy for the slots it was healthy in. Everything is seeded, so the
//! whole scenario is deterministic.

use nr_scope::gnb::{CellConfig, Gnb};
use nr_scope::mac::RoundRobin;
use nr_scope::phy::channel::ChannelProfile;
use nr_scope::phy::dci::DciSizing;
use nr_scope::phy::pdcch::SearchBudget;
use nr_scope::phy::types::{Pci, RntiType};
use nr_scope::scope::decoder::{DecoderContext, Hypotheses, UeHypothesis};
use nr_scope::scope::observe::Observer;
use nr_scope::scope::worker::{InjectedFault, JobPriority, PoolConfig, SlotJob, WorkerPool};
use nr_scope::scope::{BackpressurePolicy, ImpairmentSchedule, NrScope, ScopeConfig, SyncState};
use nr_scope::ue::traffic::{TrafficKind, TrafficSource};
use nr_scope::ue::{MobilityScenario, SimUe};
use std::time::Duration;

fn build_gnb(n_ues: usize) -> (CellConfig, Gnb) {
    let cell = CellConfig::srsran_n41();
    let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), 11);
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

fn decoder_ctx(cell: &CellConfig) -> DecoderContext {
    DecoderContext {
        coreset: cell.coreset,
        pci: cell.pci.0,
        numerology: cell.numerology,
        common_sizing: DciSizing {
            bwp_prbs: cell.coreset.n_prb,
        },
        ue_sizing: Some(DciSizing {
            bwp_prbs: cell.carrier_prbs,
        }),
    }
}

#[test]
fn chaos_run_self_heals_and_keeps_accuracy() {
    let (cell, mut gnb) = build_gnb(4);
    let mut obs = Observer::new(&cell, 35.0, false, 5);
    // 1% random slot drops, a 25-slot processing stall, a 150-slot outage,
    // an interference burst and an AGC transient — all on one seed.
    obs.set_impairments(
        ImpairmentSchedule::new(7)
            .with_drop_prob(0.01)
            .with_stall(1000, 25)
            .with_interference(1500..1520, 15.0)
            .with_agc_transient(1600, 12.0)
            .with_outage(2000..2150),
    );
    let mut scope = NrScope::new(ScopeConfig::default(), Some(cell.pci));
    let slot_s = cell.slot_s();
    for s in 0..8000u64 {
        if s == 3000 {
            // Mid-run reconfiguration: the cell halves its SIB1 period.
            // The sniffer must notice the changed SIB1 on its next read.
            gnb.reconfigure(|c| c.sib1_period_frames = 8);
        }
        let out = gnb.step();
        let cap = obs.capture(&out, s as f64 * slot_s);
        scope.process_capture(&cap);
    }

    // Worker-pool leg: replay one healthy captured slot through a
    // 1-worker shed-oldest pool with a poisoned job in the mix.
    let ctx = decoder_ctx(&cell);
    let hyp = Hypotheses {
        c_rntis: (gnb.connected_rntis().into_iter())
            .map(UeHypothesis::anywhere)
            .collect(),
        allow_recovery: true,
        ..Hypotheses::default()
    };
    let mut clean_out = gnb.step();
    while !clean_out.dcis.iter().any(|d| d.rnti_type == RntiType::C) {
        clean_out = gnb.step();
    }
    let observed = obs.observe(&clean_out, 8000.0 * slot_s);
    let job = |slot: u64, fault: Option<InjectedFault>| SlotJob {
        slot,
        slot_in_frame: clean_out.slot_in_frame,
        observed: observed.clone(),
        ctx: ctx.clone(),
        hyp: hyp.clone(),
        dci_threads: 1,
        fault,
        priority: JobPriority::Data,
        budget: SearchBudget::unlimited(),
    };
    let mut pool = WorkerPool::with_config(PoolConfig {
        workers: 1,
        job_queue_depth: 2,
        policy: BackpressurePolicy::ShedOldest,
        ..PoolConfig::new(1)
    });
    // Jam the single worker, overflow the depth-2 queue (sheds), then
    // poison the queue tail so the panic job is not itself shed.
    pool.submit(job(
        0,
        Some(InjectedFault::Delay(Duration::from_millis(200))),
    ))
    .expect("queue open");
    std::thread::sleep(Duration::from_millis(50));
    for s in 2..8u64 {
        pool.submit(job(s, None)).expect("queue open");
    }
    pool.submit(job(1, Some(InjectedFault::Panic)))
        .expect("queue open");
    pool.submit(job(9, None)).expect("queue open");
    let (results, pool_stats, quarantined) = pool.finish_with_stats();
    assert_eq!(pool_stats.worker_panics, 1, "one injected panic survived");
    assert!(pool_stats.shed_jobs >= 1, "backpressure shed jobs");
    assert_eq!(quarantined.len(), 1, "poisoned job quarantined");
    assert_eq!(quarantined[0].slot, 1);
    assert!(!results.is_empty(), "surviving jobs still decoded");

    // The session self-healed: re-synced, UEs still tracked, and every
    // disruption is visible in the stats.
    assert_eq!(scope.sync_state(), SyncState::Synced, "ends re-synced");
    assert_eq!(scope.tracked_rntis(), gnb.connected_rntis());
    assert_eq!(scope.total_discovered(), 4);
    assert!(scope.stats.dropped_slots >= 175, "outage + stall + drops");
    assert!(scope.stats.resyncs >= 1, "outage recovery counted");
    assert!(scope.stats.sib1_reloads >= 1, "SIB1 change noticed");

    // Telemetry accuracy for healthy windows: UEs were active throughout,
    // so over a window clear of the outage the TBS-sum estimate must stay
    // within 10% of the gNB's ground truth despite the ongoing 1% drops.
    for rnti in gnb.connected_rntis() {
        let est = scope.estimated_bits(rnti, 4000..8000) as f64;
        let truth = gnb.ue(rnti).unwrap().delivered_bytes_in(4000..8000) as f64 * 8.0;
        assert!(truth > 0.0, "UE {rnti} was active");
        let err = (est - truth).abs() / truth;
        assert!(
            err < 0.10,
            "UE {rnti}: estimate {est} vs truth {truth} ({:.1}% off)",
            err * 100.0
        );
    }
}

#[test]
fn cell_restart_chaos_resyncs_within_bound() {
    let (cell, mut gnb) = build_gnb(2);
    let mut obs = Observer::new(&cell, 35.0, false, 5);
    obs.set_impairments(ImpairmentSchedule::new(13).with_drop_prob(0.005));
    let mut scope = NrScope::new(ScopeConfig::default(), Some(cell.pci));
    let slot_s = cell.slot_s();
    for s in 0..2500u64 {
        let out = gnb.step();
        let cap = obs.capture(&out, s as f64 * slot_s);
        scope.process_capture(&cap);
    }
    assert_eq!(scope.tracked_rntis(), gnb.connected_rntis());
    // The cell restarts under a new PCI: every scrambled transmission goes
    // dark until the sniffer re-runs cell search.
    gnb.restart(Pci(7));
    let mut resynced_at = None;
    for s in 2500..6500u64 {
        let out = gnb.step();
        let cap = obs.capture(&out, s as f64 * slot_s);
        scope.process_capture(&cap);
        if resynced_at.is_none()
            && scope.cell.pci == Some(Pci(7))
            && scope.sync_state() == SyncState::Synced
        {
            resynced_at = Some(s);
        }
    }
    let resynced_at = resynced_at.expect("re-synced to the restarted cell");
    // Bound: lost_after_slots (400) to declare the loss, plus at most one
    // SIB1 period (320 slots) for the PCI scan to land on an SI slot,
    // plus slack for drop-delayed decodes.
    assert!(
        resynced_at < 2500 + 1500,
        "re-synced at slot {resynced_at}, bound 4000"
    );
    assert_eq!(scope.sync_state(), SyncState::Synced);
    assert_eq!(scope.cell.pci, Some(Pci(7)));
    assert_eq!(
        scope.tracked_rntis(),
        gnb.connected_rntis(),
        "surviving UEs re-tracked under the new identity"
    );
    assert_eq!(scope.total_discovered(), 2, "same UEs, not re-counted");
    assert!(scope.stats.resyncs >= 1);
}
