//! chaos — the composed-chaos soak: every fault class armed at once.
//!
//! Four legs, frozen into `BENCH_chaos.json`:
//!
//! 1. **baseline** — a clean supervised run (no faults) that yields the
//!    byte-parity yardstick.
//! 2. **chaos** — [`ChaosSchedule::compose`] with [`ChaosArms::all`]:
//!    front-end impairments, child overload dwell, storage-fault windows,
//!    an oscillator model with a scripted timing step, hostile air, two
//!    `kill -9`s, a scripted slot-loop hang, and a journal-writer wedge —
//!    all on one seeded timeline, with the invariant monitors evaluated
//!    on every fed slot.
//! 3. **kill9** — the kill-restart soak: only the two `kill -9`s armed, so
//!    the warm restart itself is what is measured — every UE tracked
//!    before a kill is tracked after the respawn, and the child is
//!    `Synced` again within [`RESYNC_BOUND`] slots ([`warm_restart_monitor`]).
//! 4. **fleet** — a three-shard fleet with a scripted shard hang (a
//!    pathological in-flight delay) that the watchdog must fence without
//!    starving the sibling shards (the bulkhead-isolation monitor).
//!
//! The gate exits non-zero unless: every monitor stays green, zero
//! panics escape any leg, the scripted hang is detected within the hang
//! deadline (plus scheduling slop) and the child is restarted, both
//! kill-9s are survived, the restart breaker never opens under the
//! default budget, legitimate byte parity under full chaos (and under the
//! kills alone) stays within `nrscope_analytics::PARITY_BAND` of the
//! no-fault baseline, and the fleet leg fences its hang with zero
//! breaker-parked cells.
//!
//! `--short` shrinks the horizons for CI smoke tests.

use gnb_sim::{CellConfig, Gnb, HostileConfig};
use nr_mac::RoundRobin;
use nr_phy::channel::ChannelProfile;
use nr_phy::types::{Pci, Rnti};
use nrscope::chaos::{
    bulkhead_isolation, drive_supervised, monitor_statuses, ranges_of, standard_monitors,
    ChaosArms, ChaosSchedule, DriveStats, Monitor, MonitorStatus,
};
use nrscope::observe::Observer;
use nrscope::supervise::{self, RestartCause, SlotOutcome, Supervisor};
use nrscope::{
    ClockRecovery, ClockRecoveryConfig, FaultPlan, Fleet, FleetConfig, HangTarget, InjectedFault,
    Metrics, ScopeConfig, ShardSpec, StoragePolicy, SyncState, CHAOS_PLAN_FILE,
};
use nrscope_analytics::{parity_ok, PARITY_BAND};
use nrscope_bench::gate::{Gate, Mode, Phase};
use nrscope_bench::scratch_dir;
use serde::Serialize;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything scripted derives from this seed (reproducibility rule).
const SEED: u64 = 0xC0_FFEE;
/// Hang-detection latency slop on top of the hang deadline: pipe polls,
/// scheduler jitter, and the force-kill itself.
const HANG_SLOP_MS: u64 = 1_000;
/// A warm restart must be back in `Synced` within this many slots.
const RESYNC_BOUND: u64 = 800;

/// The supervised legs' config: deadlines tightened so hang detection is
/// measured in hundreds of milliseconds, not the production 2 s.
fn tuned_config(short: bool) -> ScopeConfig {
    let mut cfg = ScopeConfig::default();
    cfg.supervise.heartbeat_interval_ms = if short { 50 } else { 100 };
    cfg.supervise.hang_deadline_ms = if short { 400 } else { 800 };
    cfg
}

fn build_gnb(cell: &CellConfig, n_ues: u64, seed: u64) -> Gnb {
    let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), seed);
    for i in 1..=n_ues {
        gnb.ue_arrives(ue_sim::SimUe::new(
            i,
            ChannelProfile::Awgn,
            ue_sim::MobilityScenario::Static,
            // Permanent backlog: every slot carries data, so parity
            // between scope estimate and gNB truth is tight.
            ue_sim::traffic::TrafficSource::new(
                ue_sim::traffic::TrafficKind::FileDownload {
                    total_bytes: 1 << 30,
                },
                seed + i,
            ),
            0.05 * i as f64,
            600.0,
            seed * 31 + i,
        ));
    }
    gnb
}

/// The kill-only leg's own checks, the two no other gate makes: every UE
/// tracked before a kill is tracked on the respawned child's first ack,
/// and the child reports `Synced` within [`RESYNC_BOUND`] slots of it.
fn warm_restart_monitor() -> Monitor {
    // Tracked set of the latest ack.
    let mut tracked: Vec<Rnti> = Vec::new();
    // Spawns as of the latest ack: a higher count on this one makes it a
    // respawned child's first (a killed child is respawned on the slot
    // that finds it dead, so no slot need go unacked in between).
    let mut spawns = 1;
    // First ack after a respawn, until an ack reports `Synced`.
    let mut resync_from: Option<u64> = None;
    Monitor::over_slots("warm_restart", move |obs| {
        let SlotOutcome::Acked(ack) = obs.outcome else {
            return None;
        };
        let mut breach = None;
        if std::mem::replace(&mut spawns, obs.spawns) < obs.spawns {
            resync_from = Some(obs.slot);
            if let Some(gone) = tracked.iter().find(|r| !ack.tracked.contains(r)) {
                breach = Some(format!("UE {gone} tracked before the kill, not after"));
            }
        }
        if ack.sync == SyncState::Synced {
            resync_from = None;
        } else if resync_from.is_some_and(|from| obs.slot - from > RESYNC_BOUND) {
            breach = Some(format!("not Synced {RESYNC_BOUND} slots after the respawn"));
        }
        tracked.clone_from(&ack.tracked);
        breach
    })
}

/// One supervised leg's columns in the artefact (baseline, chaos and
/// kill9 share the shape).
#[derive(Serialize, Default)]
struct Leg {
    slots: u64,
    acked: u64,
    lost: u64,
    hangs_detected: u64,
    hang_detect_ms_max: u64,
    killed_restarts: u64,
    hang_restarts: u64,
    breaker_openings: u64,
    breaker_final: &'static str,
    parity_ratio: f64,
    monitors: Vec<MonitorStatus>,
}

fn failed_leg(name: &'static str, detail: String) -> Phase<Leg> {
    Phase::new(name, false, detail, Leg::default())
}

/// Aggregate parity over the leg's observed ranges: Σ estimated bits /
/// Σ ground-truth bits across every connected UE.
fn parity_ratio(sup: &mut Supervisor, gnb: &Gnb, stats: &DriveStats) -> Option<f64> {
    let ranges = ranges_of(&stats.observed);
    if ranges.is_empty() {
        return None;
    }
    let reply = sup.request_report(ranges.clone())?;
    let mut truth_bits = 0u64;
    let mut est_bits = 0u64;
    for rnti in gnb.connected_rntis() {
        let ue = gnb.ue(rnti).expect("connected UE");
        truth_bits += ranges
            .iter()
            .map(|&(a, b)| ue.delivered_bytes_in(a..b) as u64 * 8)
            .sum::<u64>();
        est_bits += reply
            .per_ue
            .iter()
            .find(|(r, _)| *r == rnti)
            .map(|(_, bits)| bits.iter().sum::<u64>())
            .unwrap_or(0);
    }
    Some(est_bits as f64 / truth_bits.max(1) as f64)
}

/// Run one supervised leg under `schedule`. The baseline passes
/// [`ChaosArms::none`]-composed schedules (nothing fires); the chaos leg
/// passes the full composition.
fn supervised_leg(
    name: &'static str,
    short: bool,
    schedule: &ChaosSchedule,
    mut monitors: Vec<Monitor>,
    ghosts: Vec<Rnti>,
) -> Phase<Leg> {
    let cell = CellConfig::srsran_n41();
    let dir = scratch_dir("chaos", name);
    let scope_cfg = tuned_config(short);
    std::fs::write(dir.join(supervise::CONFIG_FILE), scope_cfg.to_json())
        .expect("write scope config");
    if schedule.has_child_faults() {
        std::fs::write(dir.join(CHAOS_PLAN_FILE), schedule.child_plan().to_json())
            .expect("write chaos plan");
    }

    let mut gnb = build_gnb(&cell, 3, SEED);
    let mut obs = Observer::new(&cell, 35.0, false, SEED ^ 0xD15C);
    if let Some(sched) = schedule.impairment_schedule() {
        obs.set_impairments(sched);
    }
    if schedule.clock_static_ppm != 0.0 {
        let mut model = cell
            .clock_model(SEED ^ 0xC10C)
            .with_static_ppm(schedule.clock_static_ppm)
            .with_drift_ppm_per_s(schedule.clock_drift_ppm_per_s);
        if let Some((slot, us)) = schedule.clock_step {
            model = model.with_step(slot, us);
        }
        obs.set_clock(model);
    }
    let hostile = HostileConfig::seeded(schedule.seed);
    let hostile_windows = schedule.hostile_windows.clone();
    let slot_s = cell.slot_s();
    let sample_rate_hz = cell.sample_rate_hz();
    // The timing-recovery loop is front-end-local: the parent owns the
    // radio, so the parent closes the loop (exactly as a real SDR host
    // would) — the child receives already-corrected captures.
    let mut recovery = ClockRecovery::new(ClockRecoveryConfig::default());

    let exe = std::env::current_exe().expect("current exe path");
    let args = vec![
        "--child".to_string(),
        dir.display().to_string(),
        cell.pci.0.to_string(),
    ];
    let metrics = Arc::new(Metrics::new(true));
    let mut sup = Supervisor::new(&exe, &args, &[], scope_cfg.supervise, metrics);
    let hello = match sup.start() {
        Ok(h) => h,
        Err(e) => return failed_leg(name, format!("child failed to start: {e}")),
    };
    if hello.report.resumed {
        return failed_leg(name, "first start claimed to resume prior state".into());
    }

    // A soak is a real-time replay. Its faults mix wall-clock durations
    // (the hang, the writer wedge, the fsync of a re-probe) with intervals
    // counted in slots (re-probe spacing, monitor windows), and the two
    // keep the relation they were composed with only while a slot takes a
    // slot's time: never feed faster than the air interface.
    let slot_time = Duration::from_secs_f64(slot_s);
    let mut fed_at = Instant::now();
    let stats = drive_supervised(&mut sup, schedule, &ghosts, &mut monitors, |seq| {
        std::thread::sleep(slot_time.saturating_sub(fed_at.elapsed()));
        fed_at = Instant::now();
        for &(a, b) in &hostile_windows {
            if seq == a {
                gnb.arm_hostile(hostile);
            }
            if seq == b {
                gnb.disarm_hostile();
            }
        }
        let out = gnb.step();
        let cap = obs.capture(&out, seq as f64 * slot_s);
        if let Some(cobs) = obs.take_clock_observable() {
            recovery.on_slot(&cobs, sample_rate_hz);
            obs.apply_clock_correction(recovery.correction_us(), recovery.correction_cfo_hz());
        }
        cap
    });

    let parity = parity_ratio(&mut sup, &gnb, &stats);
    let sup_stats = sup.stats();
    let killed_restarts = sup
        .restart_log()
        .iter()
        .filter(|e| e.cause == RestartCause::Killed)
        .count() as u64;
    let hang_restarts = sup
        .restart_log()
        .iter()
        .filter(|e| e.cause == RestartCause::Hang)
        .count() as u64;
    let breaker_final = sup.breaker_state().name();
    let _ = sup.finish();

    let statuses = monitor_statuses(&monitors);
    let monitors_green = statuses.iter().all(|m| m.ok);
    let detect_max = stats
        .hang_observations
        .iter()
        .map(|h| h.detect_ms)
        .max()
        .unwrap_or(0);
    let hang_bound = scope_cfg.supervise.hang_deadline_ms + HANG_SLOP_MS;

    // A faulted leg must have *survived* its script, not dodged it.
    let hang_scripted = schedule
        .hangs
        .hangs
        .iter()
        .any(|p| p.target == HangTarget::SlotLoop);
    let ok = monitors_green
        && parity.is_some()
        && sup_stats.breaker_openings == 0
        && breaker_final == "closed"
        && stats.final_sync_synced
        && killed_restarts >= schedule.kill_slots.len() as u64
        && (!hang_scripted
            || (hang_restarts >= 1
                && !stats.hang_observations.is_empty()
                && detect_max <= hang_bound));
    let detail = format!(
        "acked={} lost={} hangs={} detect_max={}ms (bound {}ms) kills={} \
         breaker={} parity={:?} monitors_green={}",
        stats.acked,
        stats.lost_child_down + stats.lost_lame_duck,
        sup_stats.hangs_detected,
        detect_max,
        hang_bound,
        killed_restarts,
        breaker_final,
        parity,
        monitors_green,
    );
    let _ = std::fs::remove_dir_all(&dir);
    let leg = Leg {
        slots: stats.slots,
        acked: stats.acked,
        lost: stats.lost_child_down + stats.lost_lame_duck,
        hangs_detected: sup_stats.hangs_detected,
        hang_detect_ms_max: detect_max,
        killed_restarts,
        hang_restarts,
        breaker_openings: sup_stats.breaker_openings,
        breaker_final,
        parity_ratio: parity.unwrap_or(0.0),
        monitors: statuses,
    };
    Phase::new(name, ok, detail, leg)
}

/// The fleet leg's columns in the artefact.
#[derive(Serialize, Default)]
struct FleetLeg {
    slots: u64,
    wedges: u64,
    restarts: u64,
    breaker_open_cells: u64,
    unhealthy_cells: u64,
    monitors: Vec<MonitorStatus>,
}

/// Three shards, one scripted shard hang (a pathological in-flight
/// delay), a 50 ms watchdog: the hang must be fenced and warm-restarted
/// while the sibling shards keep advancing (bulkhead isolation), and the
/// default restart budget must absorb it without parking anything.
fn fleet_leg(short: bool) -> Phase<FleetLeg> {
    let slots: u64 = if short { 4_000 } else { 8_000 };
    let schedule = ChaosSchedule::compose(
        SEED ^ 0xF1EE7,
        slots,
        ChaosArms {
            hangs: true,
            ..ChaosArms::none()
        },
    );
    let cell = CellConfig::srsran_n41();
    let cfg = FleetConfig {
        workers: 2,
        watchdog_ms: 50,
        ..FleetConfig::default()
    };
    let specs: Vec<ShardSpec> = (0..3)
        .map(|i| ShardSpec::volatile(format!("cell-{i}"), Some(cell.pci), ScopeConfig::default()))
        .collect();
    let n_shards = specs.len();
    let fleet = match Fleet::new(cfg, specs) {
        Ok(f) => f,
        Err(e) => {
            let leg = FleetLeg {
                slots,
                ..FleetLeg::default()
            };
            return Phase::new("fleet", false, format!("fleet failed to start: {e}"), leg);
        }
    };

    let mut feeds: Vec<(Gnb, Observer)> = (0..n_shards as u64)
        .map(|i| {
            (
                build_gnb(&cell, 2, SEED + 100 * i),
                Observer::new(&cell, 35.0, false, SEED ^ (0xF00 + i)),
            )
        })
        .collect();
    // A shard hang longer than the watchdog deadline, capped so the
    // bench's wall clock stays bounded.
    let shard_hangs: Vec<(usize, u64, u64)> = schedule
        .hangs
        .hangs
        .iter()
        .filter_map(|p| match p.target {
            HangTarget::FleetShard(s) => Some((s % n_shards, p.slot, p.duration_ms.min(1_500))),
            _ => None,
        })
        .collect();

    let mut monitor = bulkhead_isolation(512);
    let slot_s = cell.slot_s();
    for seq in 0..slots {
        for &(shard, at, dur_ms) in &shard_hangs {
            if seq == at {
                fleet.inject_fault(
                    shard,
                    FaultPlan::OneShot(InjectedFault::Delay(Duration::from_millis(dur_ms))),
                );
            }
        }
        for (shard, (gnb, obs)) in feeds.iter_mut().enumerate() {
            let out = gnb.step();
            let cap = obs.capture(&out, seq as f64 * slot_s);
            fleet.feed(shard, seq, cap);
        }
        if seq % 64 == 63 {
            fleet.supervise();
            // Pacing: give the shared workers real time per chunk so a
            // rollup gap of 512 slots spans several watchdog periods.
            std::thread::sleep(Duration::from_millis(1));
        }
        if seq % 512 == 511 {
            monitor.on_fleet(seq, &fleet.rollup());
        }
    }
    fleet.quiesce(Duration::from_secs(10));
    let snap = fleet.rollup();
    let wedges: u64 = snap.cells.iter().map(|c| c.hangs_detected).sum();
    let restarts: u64 = snap.cells.iter().map(|c| c.restarts).sum();
    let unhealthy = snap.cells.iter().filter(|c| c.health != "healthy").count() as u64;
    let breaker_open_cells = snap.breaker_open_cells;
    fleet.finish();

    let statuses = monitor_statuses(&[monitor]);
    let monitors_green = statuses.iter().all(|m| m.ok);
    let ok = monitors_green
        && !shard_hangs.is_empty()
        && wedges >= 1
        && restarts >= 1
        && breaker_open_cells == 0
        && unhealthy == 0;
    let detail = format!(
        "scripted_hangs={} wedges={wedges} restarts={restarts} \
         breaker_open_cells={breaker_open_cells} unhealthy={unhealthy} \
         monitors_green={monitors_green}",
        shard_hangs.len()
    );
    let leg = FleetLeg {
        slots,
        wedges,
        restarts,
        breaker_open_cells,
        unhealthy_cells: unhealthy,
        monitors: statuses,
    };
    Phase::new("fleet", ok, detail, leg)
}

/// The artefact's header fields.
#[derive(Serialize)]
struct Header {
    seed: u64,
    horizon_slots: u64,
    relative_parity: f64,
    parity_bounds: [f64; 2],
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() >= 4 && args[1] == "--child" {
        // Child mode: recover from the session directory, apply any
        // scripted chaos plan found there, and serve slots.
        let pci: u16 = args[3].parse().expect("child PCI argument");
        supervise::run_child(Path::new(&args[2]), Some(Pci(pci))).expect("child pipeline");
        return ExitCode::SUCCESS;
    }
    let mut gate = Gate::new("chaos", "legs", Mode::from_env());
    let short = gate.mode.short;
    let horizon: u64 = gate.mode.pick(6_000, 12_000);

    let baseline_schedule = ChaosSchedule::compose(SEED, horizon, ChaosArms::none());
    let chaos_schedule = ChaosSchedule::compose(SEED, horizon, ChaosArms::all());
    let kill_schedule = ChaosSchedule::compose(
        SEED,
        horizon,
        ChaosArms {
            kill9: true,
            ..ChaosArms::none()
        },
    );
    // The chaos-gate preconditions the composition engine promises.
    assert!(
        chaos_schedule.kill_slots.len() >= 2,
        "compose arms >= 2 kills"
    );
    assert!(
        chaos_schedule
            .hangs
            .hangs
            .iter()
            .any(|p| p.target == HangTarget::SlotLoop),
        "compose arms a scripted slot-loop hang"
    );
    if !short {
        // Every scripted restart meets a re-promoted child: it lands more
        // than one re-probe interval, plus slack for the demotion, the
        // probe's I/O and the climb, past the storage fault before it, so
        // it never resumes from pre-fault state. (`--short` cannot fit two
        // recoveries; it ends before the never-go-dark window does.)
        let recovery = StoragePolicy::default().reprobe_interval_slots + 512;
        let hang_slots = |target| {
            let hangs = chaos_schedule.hangs.hangs.iter();
            hangs.filter(move |p| p.target == target).map(|p| p.slot)
        };
        let faults: Vec<u64> = (chaos_schedule.storage_windows.iter())
            .map(|w| w.from_slot)
            .chain(hang_slots(HangTarget::JournalWriter))
            .collect();
        let kills = chaos_schedule.kill_slots.iter().copied();
        for restart in kills.chain(hang_slots(HangTarget::SlotLoop)) {
            assert!(
                faults
                    .iter()
                    .all(|&f| f > restart || restart - f > recovery),
                "restart at slot {restart} lands inside a storage fault's recovery"
            );
        }
    }
    let ghosts = vec![Rnti(HostileConfig::default().persistent_ghost_rnti)];

    let baseline = gate.run("baseline", || {
        supervised_leg(
            "baseline",
            short,
            &baseline_schedule,
            Vec::new(),
            Vec::new(),
        )
    });
    let chaos = gate.run("chaos", || {
        let monitors = standard_monitors(ghosts.clone());
        supervised_leg("chaos", short, &chaos_schedule, monitors, ghosts.clone())
    });
    let kill9 = gate.run("kill9", || {
        let mut monitors = standard_monitors(Vec::new());
        monitors.push(warm_restart_monitor());
        supervised_leg("kill9", short, &kill_schedule, monitors, Vec::new())
    });
    gate.run("fleet", || fleet_leg(short));

    // Parity under faults, relative to the clean baseline; the ceiling is
    // what catches a journal tail replayed (counted) twice.
    let mut relative = |leg: &Phase<Leg>| {
        let ratio = if baseline.fields.parity_ratio > 0.0 {
            leg.fields.parity_ratio / baseline.fields.parity_ratio
        } else {
            0.0
        };
        if !parity_ok(ratio) {
            gate.breach(format!(
                "{} relative parity {ratio:.4} outside {PARITY_BAND:?}",
                leg.name
            ));
        }
        println!(
            "{} relative parity {ratio:.4} (bounds {PARITY_BAND:?})",
            leg.name
        );
        ratio
    };
    let relative_parity = relative(&chaos);
    relative(&kill9);
    gate.finish(&Header {
        seed: SEED,
        horizon_slots: horizon,
        relative_parity,
        parity_bounds: PARITY_BAND,
    })
}
