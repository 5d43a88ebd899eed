//! chaos — the composed-chaos soak: every fault class armed at once.
//!
//! Four legs, frozen into `BENCH_chaos.json`:
//!
//! 1. **baseline** — a clean supervised run (no faults) that yields the
//!    byte-parity yardstick.
//! 2. **chaos** — [`ChaosSchedule::compose`] with [`ChaosArms::all`]:
//!    front-end impairments, child overload dwell, storage-fault windows,
//!    an oscillator model with a scripted timing step, hostile air, two
//!    `kill -9`s, a scripted slot-loop hang, and a disk stall under the
//!    journal writer — all on one seeded timeline, with the invariant
//!    monitors evaluated on every fed slot.
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
//! deadline (plus scheduling slop) and the child is restarted, the disk
//! stall under the journal writer demotes the child before it ends and
//! the ladder comes back after it, both
//! kill-9s are survived, the restart breaker never opens under the
//! default budget, legitimate byte parity under full chaos (and under the
//! kills alone) stays within `nrscope_analytics::PARITY_BAND` of the
//! no-fault baseline, and the fleet leg fences its hang with zero
//! breaker-parked cells.
//!
//! `--short` shrinks the horizons for CI smoke tests.
//!
//! The three supervised legs drive a whole sniffer process through
//! [`Harness`]: the SIGKILLs, hangs and re-executions are those an
//! external supervisor deals a deployed sniffer. The child is this bin,
//! re-invoked as `--child DIR SEED HORIZON LEG FROM`: it recomputes the
//! leg's schedule and [`Air`] from (seed, horizon, leg), fast-forwards
//! the air to slot `FROM`, and runs its child-side faults through
//! [`ChaosSchedule::child_hook`] on a [`FaultyBackend`]. Parity is read
//! off the finished session directory.

use gnb_sim::{CellConfig, Gnb, HostileConfig};
use nr_phy::types::Rnti;
use nrscope::config::SuperviseConfig;
use nrscope::observe::Observer;
use nrscope::restart::RestartCause;
use nrscope::{
    FaultyBackend, Fleet, FleetConfig, PersistConfig, ScopeConfig, SessionStore, ShardSpec,
    SlotHook, StoragePolicy, SyncState,
};
use nrscope_analytics::{parity_ok, PARITY_BAND};
use nrscope_bench::chaos::{
    backlogged_gnb, bulkhead_isolation, drive_supervised, monitor_statuses, ranges_of,
    standard_monitors, Air, ChaosArms, ChaosSchedule, DriveStats, HangTarget, Monitor,
    MonitorStatus,
};
use nrscope_bench::child::{self, Harness, SlotOutcome};
use nrscope_bench::gate::{Gate, Mode, Phase};
use nrscope_bench::scratch_dir;
use serde::Serialize;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything scripted derives from this seed (reproducibility rule).
const SEED: u64 = 0xC0_FFEE;
/// Hang-detection latency slop on top of the hang deadline: scheduler
/// jitter, and the SIGKILL itself.
const HANG_SLOP_MS: u64 = 1_000;
/// A warm restart must be back in `Synced` within this many slots.
const RESYNC_BOUND: u64 = 800;

/// The fault classes each supervised leg arms. The parent composes its
/// schedule from this, and so does every child it spawns.
fn leg_arms(leg: &str) -> ChaosArms {
    match leg {
        "chaos" => ChaosArms::all(),
        "kill9" => ChaosArms {
            kill9: true,
            ..ChaosArms::none()
        },
        _ => ChaosArms::none(),
    }
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
    /// Acked slots where the child's rung crossed `NonDurable`: `true` a
    /// demotion, `false` the way back.
    non_durable_edges: Vec<(u64, bool)>,
    monitors: Vec<MonitorStatus>,
}

fn failed_leg(name: &'static str, detail: String) -> Phase<Leg> {
    Phase::new(name, false, detail, Leg::default())
}

/// Aggregate parity over the leg's observed ranges: Σ estimated bits /
/// Σ ground-truth bits across every connected UE, the estimate read off
/// the finished session in `dir`.
fn parity_ratio(dir: &std::path::Path, gnb: &Gnb, stats: &DriveStats) -> Option<f64> {
    let ranges = ranges_of(&stats.observed);
    if ranges.is_empty() {
        return None;
    }
    let store = SessionStore::new(dir).ok()?;
    let (scope, _) = store.recover(ScopeConfig::default(), Some(CellConfig::srsran_n41().pci));
    let mut truth_bits = 0u64;
    let mut est_bits = 0u64;
    for rnti in gnb.connected_rntis() {
        let ue = gnb.ue(rnti).expect("connected UE");
        for &(a, b) in &ranges {
            truth_bits += ue.delivered_bytes_in(a..b) as u64 * 8;
            est_bits += scope.estimated_bits(rnti, a..b);
        }
    }
    Some(est_bits as f64 / truth_bits.max(1) as f64)
}

/// Run supervised leg `name` over `horizon` slots, under the schedule
/// [`leg_arms`] composes for it: nothing fires on the baseline, the chaos
/// leg runs the full composition.
fn supervised_leg(
    name: &'static str,
    short: bool,
    horizon: u64,
    mut monitors: Vec<Monitor>,
    ghosts: Vec<Rnti>,
) -> Phase<Leg> {
    let schedule = ChaosSchedule::compose(SEED, horizon, leg_arms(name));
    let dir = scratch_dir("chaos", name);
    let exe = std::env::current_exe().expect("current exe path");
    let child_dir = dir.clone();
    let command = move |from: u64| {
        let mut cmd = Command::new(&exe);
        cmd.arg("--child").arg(&child_dir);
        cmd.args([SEED, horizon].map(|n| n.to_string()));
        cmd.args([name.to_string(), from.to_string()]);
        cmd
    };
    // Silence past the hang deadline is a hang.
    let hang_ms = if short { 400 } else { 800 };
    let hang_deadline = Duration::from_millis(hang_ms);
    let mut harness = Harness::new(command, hang_deadline, &SuperviseConfig::default());
    let hello = match harness.start() {
        Ok(h) => h,
        Err(e) => return failed_leg(name, format!("child failed to start: {e}")),
    };
    if hello.report.resumed {
        return failed_leg(name, "first start claimed to resume prior state".into());
    }

    // A soak is a real-time replay. Its faults mix wall-clock durations
    // (the hang, the disk stall, the fsync of a re-probe) with intervals
    // counted in slots (re-probe spacing, monitor windows), and the two
    // keep the relation they were composed with only while a slot takes a
    // slot's time: never feed faster than the air interface.
    let mut air = Air::new(&schedule);
    let slot_time = Duration::from_secs_f64(CellConfig::srsran_n41().slot_s());
    let mut fed_at = Instant::now();
    let stats = drive_supervised(&mut harness, &schedule, &ghosts, &mut monitors, |seq| {
        std::thread::sleep(slot_time.saturating_sub(fed_at.elapsed()));
        fed_at = Instant::now();
        air.step(seq)
    });

    let restarts = |cause| {
        let log = harness.restart_log().iter();
        log.filter(|e| e.cause == cause).count() as u64
    };
    let (killed_restarts, hang_restarts) =
        (restarts(RestartCause::Killed), restarts(RestartCause::Hang));
    let breaker = harness.breaker().clone();
    let finished = harness.finish();
    let parity = parity_ratio(&dir, air.gnb(), &stats);

    let statuses = monitor_statuses(&monitors);
    let monitors_green = statuses.iter().all(|m| m.ok);
    let detect_max = stats
        .hang_observations
        .iter()
        .map(|h| h.detect_ms)
        .max()
        .unwrap_or(0);
    let hang_bound = hang_ms + HANG_SLOP_MS;

    // A faulted leg must have *survived* its script, not dodged it.
    let hang_scripted = (schedule.hangs.iter()).any(|p| p.target == HangTarget::SlotLoop);
    // A disk stall under the journal writer demotes the child before the
    // stall ends, and the ladder comes back after it (a re-probe, or a
    // respawn that recovers durable).
    let slot_s = slot_time.as_secs_f64();
    let edges = &stats.non_durable_edges;
    let stall_demoted = (schedule.hangs.iter())
        .filter(|p| p.target == HangTarget::JournalWriter)
        .all(|p| {
            let end = p.slot + (p.duration_ms as f64 * 1e-3 / slot_s) as u64;
            let demoted = (edges.iter()).position(|&(s, down)| down && (p.slot..end).contains(&s));
            demoted.is_some_and(|i| i + 1 < edges.len())
        });
    let ok = monitors_green
        && finished
        && parity.is_some()
        && breaker.openings() == 0
        && !breaker.is_open()
        && stats.final_sync_synced
        && killed_restarts >= schedule.kill_slots.len() as u64
        && (!hang_scripted
            || (hang_restarts >= 1
                && !stats.hang_observations.is_empty()
                && detect_max <= hang_bound))
        && stall_demoted;
    let detail = format!(
        "acked={} lost={} hangs={} detect_max={}ms (bound {}ms) kills={} \
         breaker={} parity={:?} non_durable_edges={:?} monitors_green={}",
        stats.acked,
        stats.lost_child_down + stats.lost_lame_duck,
        breaker.hangs(),
        detect_max,
        hang_bound,
        killed_restarts,
        breaker.state().name(),
        parity,
        edges,
        monitors_green,
    );
    let _ = std::fs::remove_dir_all(&dir);
    let leg = Leg {
        slots: stats.slots,
        acked: stats.acked,
        lost: stats.lost_child_down + stats.lost_lame_duck,
        hangs_detected: breaker.hangs(),
        hang_detect_ms_max: detect_max,
        killed_restarts,
        hang_restarts,
        breaker_openings: breaker.openings(),
        breaker_final: breaker.state().name(),
        parity_ratio: parity.unwrap_or(0.0),
        non_durable_edges: stats.non_durable_edges,
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
                backlogged_gnb(&cell, 2, SEED + 100 * i),
                Observer::new(&cell, 35.0, false, SEED ^ (0xF00 + i)),
            )
        })
        .collect();
    // A shard hang longer than the watchdog deadline, capped so the
    // bench's wall clock stays bounded.
    let shard_hangs: Vec<(usize, u64, u64)> = (schedule.hangs.iter())
        .filter_map(|p| match p.target {
            HangTarget::FleetShard(s) => Some((s % n_shards, p.slot, p.duration_ms.min(1_500))),
            _ => None,
        })
        .collect();
    for &(shard, at, dur_ms) in &shard_hangs {
        let stall = move |slot| {
            if slot == at {
                std::thread::sleep(Duration::from_millis(dur_ms));
            }
        };
        fleet.set_slot_hook(shard, Some(SlotHook::new(stall)));
    }

    let mut monitor = bulkhead_isolation(512);
    let slot_s = cell.slot_s();
    for seq in 0..slots {
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
    let wedges: u64 = snap.cells.iter().map(|c| c.wedges).sum();
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
    if args.len() >= 7 && args[1] == "--child" {
        // Child mode: recover from the session directory, catch the air up
        // to the slot this process was spawned at, and serve slots,
        // running the leg's child-side faults recomputed from its seed.
        let number = |i: usize| args[i].parse::<u64>().expect("child numeric argument");
        let schedule = ChaosSchedule::compose(number(3), number(4), leg_arms(&args[5]));
        let backend = FaultyBackend::new(Default::default());
        let persist = PersistConfig::new(&args[2]).with_backend(Arc::new(backend.clone()));
        let hook = schedule.child_hook(backend);
        let mut air = Air::new(&schedule);
        let pci = Some(CellConfig::srsran_n41().pci);
        child::serve(persist, pci, number(6), |seq| air.step(seq), Some(hook))
            .expect("child pipeline");
        return ExitCode::SUCCESS;
    }
    let mut gate = Gate::new("chaos", "legs", Mode::from_env());
    let short = gate.mode.short;
    let horizon: u64 = gate.mode.pick(6_000, 12_000);

    let chaos_schedule = ChaosSchedule::compose(SEED, horizon, leg_arms("chaos"));
    // The chaos-gate preconditions the composition engine promises.
    assert!(
        chaos_schedule.kill_slots.len() >= 2,
        "compose arms >= 2 kills"
    );
    assert!(
        (chaos_schedule.hangs.iter()).any(|p| p.target == HangTarget::SlotLoop),
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
            let hangs = chaos_schedule.hangs.iter();
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
        supervised_leg("baseline", short, horizon, Vec::new(), Vec::new())
    });
    let chaos = gate.run("chaos", || {
        let monitors = standard_monitors(ghosts.clone());
        supervised_leg("chaos", short, horizon, monitors, ghosts.clone())
    });
    let kill9 = gate.run("kill9", || {
        let mut monitors = standard_monitors(Vec::new());
        monitors.push(warm_restart_monitor());
        supervised_leg("kill9", short, horizon, monitors, Vec::new())
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
