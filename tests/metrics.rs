//! Integration: the pipeline metrics layer observes every stage when one
//! registry is shared across the capture path, the scope, and the worker
//! pool — and records nothing (not even clock reads' results) when
//! disabled.

use nr_scope::gnb::{CellConfig, Gnb};
use nr_scope::mac::RoundRobin;
use nr_scope::phy::channel::ChannelProfile;
use nr_scope::scope::metrics::{Metrics, MetricsSnapshot};
use nr_scope::scope::observe::Observer;
use nr_scope::scope::worker::{PoolConfig, WorkerPool};
use nr_scope::scope::{Fidelity, NrScope, ScopeConfig};
use nr_scope::ue::traffic::{TrafficKind, TrafficSource};
use nr_scope::ue::{MobilityScenario, SimUe};
use std::sync::Arc;

fn loaded_gnb(cell: &CellConfig, n_ues: u64, seed: u64) -> Gnb {
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
                i,
            ),
            0.0,
            30.0,
            i,
        ));
    }
    gnb
}

/// Message-fidelity lock-step slots into a shared registry; returns the
/// live session so the caller can extend the run.
fn message_run(cell: &CellConfig, slots: u64, metrics: Arc<Metrics>) -> (Gnb, Observer, NrScope) {
    let slot_s = cell.slot_s();
    let mut gnb = loaded_gnb(cell, 2, 11);
    let mut observer = Observer::new(cell, 30.0, false, 7);
    observer.set_metrics(Arc::clone(&metrics));
    let cfg = ScopeConfig {
        metrics_enabled: metrics.is_enabled(),
        ..ScopeConfig::default()
    };
    let mut scope = NrScope::with_metrics(cfg, Some(cell.pci), metrics);
    for s in 0..slots {
        let out = gnb.step();
        let observed = observer.observe(&out, s as f64 * slot_s);
        scope.process(&observed);
    }
    (gnb, observer, scope)
}

#[test]
fn full_pipeline_populates_at_least_six_stages() {
    let cell = CellConfig::srsran_n41();
    let slot_s = cell.slot_s();
    let metrics = Metrics::shared(true);

    // Message phase: capture, PDCCH search, DCI decode, classify, tracking.
    let (mut gnb, mut observer, scope) = message_run(&cell, 2000, Arc::clone(&metrics));

    // Pool phase: worker-queue wait on the same registry.
    let mut pool = WorkerPool::with_metrics(PoolConfig::new(2), Arc::clone(&metrics));
    for s in 0..200u64 {
        let out = gnb.step();
        let observed = observer.observe(&out, (2000 + s) as f64 * slot_s);
        let job = scope
            .slot_job(observed)
            .expect("MIB known after 2000 slots");
        pool.submit(job).expect("queue open");
    }
    assert_eq!(pool.finish().len(), 200);

    // IQ phase: radio capture and OFDM demod.
    {
        let mut gnb = loaded_gnb(&cell, 1, 13);
        let mut observer = Observer::new(&cell, 30.0, true, 5);
        observer.set_metrics(Arc::clone(&metrics));
        let cfg = ScopeConfig {
            fidelity: Fidelity::Iq,
            ..ScopeConfig::default()
        };
        let mut scope = NrScope::with_metrics(cfg, None, Arc::clone(&metrics));
        for s in 0..120u64 {
            let out = gnb.step();
            let observed = observer.observe(&out, s as f64 * slot_s);
            scope.process(&observed);
        }
    }

    let snap = metrics.snapshot();
    for name in [
        "capture",
        "demod",
        "pdcch_search",
        "dci_decode",
        "tracking",
        "worker_queue",
    ] {
        let s = snap
            .stage(name)
            .unwrap_or_else(|| panic!("stage {name} missing"));
        assert!(s.count > 0, "stage {name} recorded nothing");
        assert!(s.p50_us > 0.0, "stage {name} p50 empty");
        assert!(s.p99_us >= s.p50_us, "stage {name} p99 < p50");
        assert!(s.max_us > 0.0, "stage {name} max empty");
    }
    assert!(snap.counter("radio_slots").unwrap() >= 2120);
    // The scope's counters are the scope's, whoever shares its registry.
    let own = scope.metrics_snapshot();
    let st = &scope.stats;
    let dcis = st.si_dcis + st.ra_dcis + st.tc_dcis + st.dl_dcis + st.ul_dcis;
    assert!(dcis > 0);
    assert_eq!(own.counter("slots_processed"), Some(2000));
    assert_eq!(own.counter("dcis_decoded"), Some(dcis));
    assert_eq!(own.counter("radio_slots"), snap.counter("radio_slots"));

    // The JSON export round-trips losslessly.
    let back = MetricsSnapshot::from_json(&snap.to_json()).expect("parses");
    assert_eq!(back, snap);
}

/// Regression: the pool used to leave `queue_depth` at its last
/// submit-time value after shutdown, so a closing snapshot reported
/// phantom backlog (`queue_depth: 254`) next to `workers_alive: 0`.
/// Drain must zero the gauge.
#[test]
fn pool_shutdown_zeroes_queue_depth_gauge() {
    let cell = CellConfig::srsran_n41();
    let slot_s = cell.slot_s();
    let metrics = Metrics::shared(true);
    let (mut gnb, mut observer, scope) = message_run(&cell, 2000, Arc::clone(&metrics));
    let mut pool = WorkerPool::with_metrics(PoolConfig::new(2), Arc::clone(&metrics));
    for s in 0..200u64 {
        let out = gnb.step();
        let observed = observer.observe(&out, (2000 + s) as f64 * slot_s);
        let job = scope
            .slot_job(observed)
            .expect("MIB known after 2000 slots");
        pool.submit(job).expect("queue open");
    }
    // The submit path set queue_depth to the live backlog.
    let gauge = |snap: &MetricsSnapshot, name: &str| {
        snap.gauges
            .iter()
            .find(|g| g.name == name)
            .unwrap_or_else(|| panic!("gauge {name} missing"))
            .value
    };
    let (results, _stats, quarantined) = pool.finish_with_stats();
    assert_eq!(results.len(), 200);
    assert!(quarantined.is_empty());
    let snap = metrics.snapshot();
    assert_eq!(gauge(&snap, "workers_alive"), 0);
    assert_eq!(
        gauge(&snap, "queue_depth"),
        0,
        "shutdown left a stale queue-depth gauge"
    );
}

#[test]
fn disabled_registry_records_nothing() {
    let cell = CellConfig::srsran_n41();
    let metrics = Metrics::shared(false);
    let (_, _, scope) = message_run(&cell, 500, Arc::clone(&metrics));
    assert!(!scope.tracked_rntis().is_empty(), "pipeline still works");
    let snap = metrics.snapshot();
    assert!(!snap.enabled);
    assert!(snap.counters.iter().all(|c| c.value == 0));
    assert!(snap.stages.iter().all(|s| s.count == 0));
    assert!(snap.gauges.iter().all(|g| g.value == 0));
}
