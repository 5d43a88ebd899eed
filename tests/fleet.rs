//! Fleet bulkhead integration: a faulted shard is quarantined and
//! warm-restarted from its own state while its sibling's decode output
//! stays byte-for-byte identical to a standalone run, and a C-RNTI
//! handed over between cells is accounted as one user.

use nr_scope::gnb::{CellConfig, MultiCellSim};
use nr_scope::phy::channel::ChannelProfile;
use nr_scope::scope::fleet::{FaultPlan, Fleet, ShardHealth, ShardSpec};
use nr_scope::scope::worker::InjectedFault;
use nr_scope::scope::{Capture, FleetConfig, NrScope, PersistConfig, ScopeConfig};
use nr_scope::ue::traffic::{TrafficKind, TrafficSource};
use nr_scope::ue::{MobilityScenario, SimUe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn make_ue(id: u64, horizon_s: f64) -> SimUe {
    SimUe::new(
        id,
        ChannelProfile::Awgn,
        MobilityScenario::Static,
        TrafficSource::new(
            TrafficKind::FileDownload {
                total_bytes: usize::MAX / 2,
            },
            id * 3,
        ),
        0.0,
        horizon_s,
        id * 17,
    )
}

/// Two lanes of pre-rendered captures (identical no matter how they are
/// consumed — the isolation tests feed one copy to the fleet and one to
/// a reference scope).
fn two_lane_captures(slots: u64, seed: u64) -> (Vec<CellConfig>, Vec<Vec<Capture>>) {
    let cells = vec![CellConfig::srsran_n41(), CellConfig::mosolab_n48()];
    let mut sim = MultiCellSim::new(cells.clone(), seed);
    let horizon = slots as f64 * cells[0].slot_s() + 10.0;
    sim.lane_mut(0).ue_arrives(make_ue(1, horizon));
    sim.lane_mut(1).ue_arrives(make_ue(11, horizon));
    sim.lane_mut(1).ue_arrives(make_ue(12, horizon));
    let mut observers: Vec<_> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            nr_scope::scope::observe::Observer::new(c, 30.0, false, seed ^ (0xAB + i as u64))
        })
        .collect();
    let mut lanes: Vec<Vec<Capture>> = vec![Vec::new(), Vec::new()];
    for s in 0..slots {
        let outs = sim.step();
        for (i, out) in outs.iter().enumerate() {
            lanes[i].push(observers[i].capture(out, s as f64 * cells[i].slot_s()));
        }
    }
    (cells, lanes)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("nrscope-fleet-test-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Feed `range` of both lanes with pacing, injecting `fault` on shard 0
/// at `fault_at`, and wait for the queues to drain.
fn feed_slots(
    fleet: &Fleet,
    lanes: &[Vec<Capture>],
    range: std::ops::Range<u64>,
    fault_at: u64,
    fault: FaultPlan,
) {
    for s in range {
        if s == fault_at {
            fleet.inject_fault(0, fault);
        }
        for (i, lane) in lanes.iter().enumerate() {
            fleet.feed(i, s, lane[s as usize].clone());
        }
        if s.is_multiple_of(16) {
            fleet.supervise();
            while (0..lanes.len()).any(|i| fleet.shard_status(i).queue_len > 256) {
                fleet.supervise();
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }
    assert!(fleet.quiesce(Duration::from_secs(30)), "fleet drained");
}

/// Feed both lanes with pacing, injecting `fault` on shard 0 at
/// `fault_at`, then drive supervision until both shards are healthy and
/// drained.
fn run_fleet_with_fault(fleet: &Fleet, lanes: &[Vec<Capture>], fault_at: u64, fault: FaultPlan) {
    feed_slots(fleet, lanes, 0..lanes[0].len() as u64, fault_at, fault);
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        fleet.supervise();
        if (0..lanes.len()).all(|i| fleet.shard_status(i).health == ShardHealth::Healthy) {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(fleet.quiesce(Duration::from_secs(30)), "post-restart drain");
}

/// The sibling's decode must be byte-identical to the same captures run
/// through a standalone scope — the strongest isolation statement.
fn assert_sibling_untouched(fleet: &Fleet, cells: &[CellConfig], lanes: &[Vec<Capture>]) {
    let mut reference = NrScope::new(ScopeConfig::default(), Some(cells[1].pci));
    for cap in &lanes[1] {
        reference.process_capture(cap);
    }
    let status = fleet.shard_status(1);
    assert_eq!(status.panics, 0, "sibling saw no panic");
    assert_eq!(status.sheds, 0, "sibling shed nothing");
    fleet
        .with_scope(1, |scope| {
            assert_eq!(scope.stats.slots, reference.stats.slots);
            assert_eq!(scope.stats.dl_dcis, reference.stats.dl_dcis);
            assert_eq!(scope.stats.ul_dcis, reference.stats.ul_dcis);
            assert_eq!(scope.stats.dropped_slots, reference.stats.dropped_slots);
            assert_eq!(scope.total_discovered(), reference.total_discovered());
            assert_eq!(scope.tracked_rntis(), reference.tracked_rntis());
            for rnti in reference.tracked_rntis() {
                assert_eq!(
                    scope.estimated_bits(rnti, 0..scope.stats.slots),
                    reference.estimated_bits(rnti, 0..reference.stats.slots),
                    "sibling byte estimate diverged for {rnti}"
                );
            }
        })
        .expect("sibling engine live");
}

#[test]
fn killed_shard_warm_restarts_while_sibling_is_bit_identical() {
    let slots = 4000u64;
    let (cells, lanes) = two_lane_captures(slots, 5);
    let dir = temp_dir("kill");
    let specs = cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            ShardSpec::durable(
                format!("cell{i}"),
                Some(c.pci),
                ScopeConfig::default(),
                PersistConfig {
                    checkpoint_every_slots: 256,
                    ..PersistConfig::new(dir.join(format!("shard{i}")))
                },
            )
        })
        .collect();
    let fleet = Fleet::new(
        FleetConfig {
            workers: 2,
            shard_queue_depth: 512,
            ..FleetConfig::default()
        },
        specs,
    )
    .expect("fleet");
    run_fleet_with_fault(
        &fleet,
        &lanes,
        2000,
        FaultPlan::OneShot(InjectedFault::Panic),
    );

    let status = fleet.shard_status(0);
    assert_eq!(status.panics, 1, "panic was caught");
    assert!(status.restarts >= 1, "shard warm-restarted");
    assert_eq!(status.health, ShardHealth::Healthy);
    let recovery = status.last_recovery.expect("durable shard recovered");
    assert!(recovery.resumed, "restart resumed from its own state");
    assert!(recovery.resumed_slot <= 2001, "resumed at the fault point");
    // Exact-slot resume: the watermark reaches the full feed, with only
    // the panicked slot itself gap-filled as an honest drop.
    fleet
        .with_scope(0, |scope| {
            assert_eq!(scope.slot_watermark(), slots);
            assert!(scope.stats.dropped_slots <= 2, "at most the lost slot");
        })
        .expect("restarted engine live");

    assert_sibling_untouched(&fleet, &cells, &lanes);
    fleet.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wedged_shard_is_fenced_and_resumes_at_exact_slot() {
    let slots = 3000u64;
    let (cells, lanes) = two_lane_captures(slots, 6);
    let dir = temp_dir("wedge");
    let specs = cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            ShardSpec::durable(
                format!("cell{i}"),
                Some(c.pci),
                ScopeConfig::default(),
                PersistConfig::new(dir.join(format!("shard{i}"))),
            )
        })
        .collect();
    let fleet = Fleet::new(
        FleetConfig {
            workers: 2,
            shard_queue_depth: 4096,
            // A slot takes microseconds, so any watchdog fences the
            // injected stall; 250 ms keeps a sibling the host merely
            // descheduled for a few tens of ms from being fenced too. The
            // stall stays 5x the watchdog.
            watchdog_ms: 250,
            ..FleetConfig::default()
        },
        specs,
    )
    .expect("fleet");
    run_fleet_with_fault(
        &fleet,
        &lanes,
        1500,
        FaultPlan::OneShot(InjectedFault::Delay(Duration::from_millis(1250))),
    );

    let status = fleet.shard_status(0);
    assert!(status.wedges >= 1, "watchdog fenced the stall");
    assert!(status.restarts >= 1, "fenced shard restarted");
    assert_eq!(status.health, ShardHealth::Healthy);
    assert!(
        status.last_recovery.expect("durable recovery").resumed,
        "resumed from checkpoint + journal"
    );
    fleet
        .with_scope(0, |scope| {
            assert_eq!(scope.slot_watermark(), slots, "no slot skipped or repeated");
            assert_eq!(scope.stats.dropped_slots, 0, "stall lost nothing");
        })
        .expect("restarted engine live");
    assert_eq!(fleet.shard_status(1).wedges, 0, "sibling never fenced");
    fleet.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cross_cell_handover_is_one_user_in_the_rollup() {
    let slots = 3200u64;
    let cells = vec![CellConfig::srsran_n41(), CellConfig::mosolab_n48()];
    let mut sim = MultiCellSim::new(cells.clone(), 9);
    let horizon = slots as f64 * cells[0].slot_s() + 10.0;
    sim.lane_mut(0).ue_arrives(make_ue(1, horizon));
    sim.lane_mut(0).ue_arrives(make_ue(999, horizon));
    sim.lane_mut(1).ue_arrives(make_ue(11, horizon));
    sim.schedule_handover(1200, 999, 0, 1);

    let mut observers: Vec<_> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            nr_scope::scope::observe::Observer::new(c, 30.0, false, 9 ^ (0xF0 + i as u64))
        })
        .collect();
    let scope_cfg = ScopeConfig {
        ue_expiry_slots: 800,
        ..ScopeConfig::default()
    };
    let specs = cells
        .iter()
        .enumerate()
        .map(|(i, c)| ShardSpec::volatile(format!("cell{i}"), Some(c.pci), scope_cfg))
        .collect();
    let fleet = Fleet::new(
        FleetConfig {
            workers: 2,
            shard_queue_depth: 512,
            continuity_window_slots: 1000,
            ..FleetConfig::default()
        },
        specs,
    )
    .expect("fleet");
    for s in 0..slots {
        let outs = sim.step();
        for (i, out) in outs.iter().enumerate() {
            fleet.feed(
                i,
                s,
                observers[i].capture(out, s as f64 * cells[i].slot_s()),
            );
        }
        if s.is_multiple_of(32) {
            fleet.supervise();
            while (0..2).any(|i| fleet.shard_status(i).queue_len > 256) {
                fleet.supervise();
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }
    assert!(fleet.quiesce(Duration::from_secs(30)), "drained");
    assert_eq!(sim.executed_handovers().len(), 1, "handover fired");

    let snap = fleet.finish();
    assert_eq!(snap.continuations, 1, "handover matched cross-cell");
    // Lane 0 admitted 2 UEs, lane 1 admitted its static UE + the roamer:
    // 4 admissions, 3 real users.
    assert_eq!(snap.total_discovered, 4);
    assert_eq!(snap.distinct_users, 3);
    let m = snap.matches[0];
    assert_eq!(m.from_shard, 0);
    assert_eq!(m.to_shard, 1);
    assert!(m.discovered_slot >= 1200 && m.discovered_slot < 2200);
}

/// A shard whose disk dies is durability-degraded, not restart-looped:
/// the failing durable rebuilds drain the restart budget, the breaker
/// opens, and the supervisor parks the shard on a volatile engine at the
/// queue front — decode continues, the shard reports Healthy, and the
/// rollup says `non_durable` with an unbounded loss window instead of
/// lying.
#[test]
fn dead_disk_shard_degrades_to_volatile_instead_of_restart_looping() {
    use nr_scope::scope::persist::{FaultKind, FaultyBackend, StorageFaultSchedule};
    use std::sync::Arc;

    let slots = 3000u64;
    let (cells, lanes) = two_lane_captures(slots, 7);
    let dir = temp_dir("dead-disk");
    let backend = FaultyBackend::new(StorageFaultSchedule::default());
    let specs = cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            // No cadence rotation: the only journal opens happen at
            // (re)start, so the armed open-fault window hits exactly the
            // durable rebuild path.
            let cfg = PersistConfig {
                checkpoint_every_slots: 10_000,
                ..PersistConfig::new(dir.join(format!("shard{i}")))
            };
            let cfg = if i == 0 {
                cfg.with_backend(Arc::new(backend.clone()))
            } else {
                cfg
            };
            ShardSpec::durable(format!("cell{i}"), Some(c.pci), ScopeConfig::default(), cfg)
        })
        .collect();
    let fleet = Fleet::new(
        FleetConfig {
            workers: 2,
            shard_queue_depth: 512,
            ..FleetConfig::default()
        },
        specs,
    )
    .expect("fleet");
    // The disk dies: every file open from now on fails, so the panic's
    // warm restart can never rebuild a durable session.
    backend.arm(FaultKind::OpenFail, backend.opens()..u64::MAX);
    run_fleet_with_fault(
        &fleet,
        &lanes,
        1000,
        FaultPlan::OneShot(InjectedFault::Panic),
    );

    let status = fleet.shard_status(0);
    assert_eq!(status.health, ShardHealth::Healthy, "degraded, not faulted");
    assert!(status.restarts >= 1);
    fleet
        .with_scope(0, |scope| {
            assert_eq!(scope.slot_watermark(), slots, "decode caught up fully");
            // The fallback says *why* it is volatile: the rebuild's I/O
            // error, not just "budget exhausted".
            let m = scope.metrics().snapshot();
            assert_eq!(m.counter("storage_demotions"), Some(1));
            assert!(m.note("storage_demotion").is_some(), "rebuild error kept");
            assert!(m.note("restart_breaker").is_some());
        })
        .expect("volatile fallback engine live");

    let snap = fleet.rollup();
    assert_eq!(snap.durability_degraded_cells, 1);
    assert_eq!(snap.cells[0].durability, "non_durable");
    assert_eq!(
        snap.cells[0].loss_window_slots, None,
        "unbounded loss window reported honestly"
    );
    assert_eq!(snap.cells[1].durability, "durable");
    assert!(
        snap.cells[1].loss_window_slots.is_some(),
        "healthy sibling still promises a bounded window"
    );

    assert_sibling_untouched(&fleet, &cells, &lanes);
    fleet.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The way back from the lame-duck fallback: once the disk works again
/// and the feed passes `breaker_halfopen_after_slots`, the half-open probe
/// rebuilds the *durable* engine at its journalled watermark and the
/// breaker closes — the shard is durable again, not volatile for good.
#[test]
fn dead_disk_shard_is_probed_back_to_durable_once_the_disk_returns() {
    use nr_scope::scope::persist::{FaultKind, FaultyBackend, StorageFaultSchedule};
    use nr_scope::scope::supervise::BreakerState;
    use std::sync::Arc;

    const PANIC_AT: u64 = 600;
    // Late enough that a half-open probe has already met the dead disk.
    const DISK_BACK_AT: u64 = 1800;
    let slots = 3000u64;
    let (cells, lanes) = two_lane_captures(slots, 8);
    let dir = temp_dir("disk-back");
    let backend = FaultyBackend::new(StorageFaultSchedule::default());
    let mut scope_cfg = ScopeConfig::default();
    scope_cfg.supervise.breaker_halfopen_after_slots = 500;
    let specs = cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let cfg = PersistConfig {
                checkpoint_every_slots: 10_000,
                ..PersistConfig::new(dir.join(format!("shard{i}")))
            };
            let cfg = if i == 0 {
                cfg.with_backend(Arc::new(backend.clone()))
            } else {
                cfg
            };
            ShardSpec::durable(format!("cell{i}"), Some(c.pci), scope_cfg, cfg)
        })
        .collect();
    let fleet = Fleet::new(
        FleetConfig {
            workers: 2,
            shard_queue_depth: 512,
            ..FleetConfig::default()
        },
        specs,
    )
    .expect("fleet");
    let panic = FaultPlan::OneShot(InjectedFault::Panic);

    // The disk dies; the panic's durable rebuilds all fail, the budget
    // drains, and the shard is parked on the volatile fallback.
    backend.arm(FaultKind::OpenFail, backend.opens()..u64::MAX);
    feed_slots(&fleet, &lanes, 0..DISK_BACK_AT, PANIC_AT, panic);
    let status = fleet.shard_status(0);
    assert_eq!(status.breaker, BreakerState::Open, "parked lame-duck");
    assert_eq!(status.health, ShardHealth::Healthy, "degraded, not faulted");
    let snap = fleet.rollup();
    assert_eq!(snap.cells[0].durability, "non_durable");
    assert_eq!(snap.cells[0].loss_window_slots, None);
    assert_eq!(snap.breaker_open_cells, 1);
    let probe_note = fleet.with_scope(0, |scope| {
        let m = scope.metrics().snapshot();
        m.note("restart_breaker").map(str::to_owned)
    });
    assert!(
        probe_note
            .flatten()
            .is_some_and(|n| n.starts_with("half-open probe failed")),
        "a failed probe says so on the serving fallback"
    );

    // The disk comes back; the feed carries the breaker's slot clock past
    // the half-open backoff and the probe rebuild succeeds.
    backend.clear_faults();
    feed_slots(&fleet, &lanes, DISK_BACK_AT..slots, PANIC_AT, panic);
    let status = fleet.shard_status(0);
    assert_eq!(status.breaker, BreakerState::Closed, "probe closed it");
    let recovery = status.last_recovery.expect("durable engine recovered");
    assert!(recovery.resumed, "from its own checkpoint + journal");
    assert!(
        recovery.resumed_slot <= PANIC_AT + 1,
        "at the journalled watermark, not the fallback's position"
    );
    fleet
        .with_scope(0, |scope| {
            assert_eq!(scope.slot_watermark(), slots, "gap-filled and caught up");
            assert!(
                scope.stats.dropped_slots >= 500,
                "the lame-duck stretch is accounted as drops, never replayed"
            );
        })
        .expect("durable engine live");
    let snap = fleet.rollup();
    assert_eq!(snap.cells[0].durability, "durable");
    assert!(snap.cells[0].loss_window_slots.is_some());
    assert_eq!(snap.cells[0].breaker, "closed");
    assert_eq!(snap.durability_degraded_cells, 0);
    assert_eq!(snap.breaker_open_cells, 0);

    assert_sibling_untouched(&fleet, &cells, &lanes);
    fleet.finish();
    let _ = std::fs::remove_dir_all(&dir);
}
