//! fleet — multi-cell bulkhead isolation, warm restart, and continuity.
//!
//! Four experiments, frozen into `BENCH_fleet.json`:
//!
//!   1. **Sweep**: cell count vs sustained slots/sec/cell over one shared
//!      worker pool (volatile shards, no faults).
//!   2. **Baseline**: an 8-cell durable fleet with a scripted handover and
//!      no faults — records each shard's p99 enqueue→done slot latency
//!      and byte parity.
//!   3. **Fault matrix**: the identical run with one shard *killed*
//!      (injected panic), one *wedged* (injected stall past the
//!      watchdog), and one *overloaded* (a per-slot delay before decode,
//!      so its queue backs up past 7/8 of its depth — it decodes its
//!      backlog broadcast-only — and then fills, so it sheds its own
//!      queue). Asserts, exiting non-zero on breach:
//!        - every healthy shard's p99 stays within 10% of its own
//!          no-fault baseline (plus a small scheduler-granularity floor);
//!        - every healthy shard's byte parity vs gNB ground truth stays
//!          in `PARITY_BAND` — and so does the killed and the wedged
//!          shard's, which doubles as the exact-slot-resume check (a
//!          journal replayed twice would push parity past its ceiling);
//!        - killed and wedged shards warm-restart from their own
//!          checkpoints (`restarts ≥ 1`, recovery report `resumed`) and
//!          every shard's final watermark equals the slots fed;
//!        - every shard ends Healthy / synced / at the `full` rung;
//!        - the overloaded shard decoded ≥ 1 slot broadcast-only and
//!          discovered as many UEs as in the no-fault baseline, and every
//!          other shard decoded none broadcast-only (a backlog never
//!          crosses a bulkhead);
//!        - the handed-over C-RNTI is matched cross-cell: exactly one
//!          continuation, so the fleet counts one user, not two.
//!   4. **Decode-bound overload** ([`decode_bound`]): one shard fed faster
//!      than it decodes at `Full`, against a ring that decodes every slot
//!      at `Full`. In the best of three trials the backlog rule must shed
//!      fewer slots and discover as many UEs. Both rungs' per-slot costs
//!      are recorded, bare and in the shard, and at IQ fidelity.
//!
//! `--short` shrinks the run for CI; `NRSCOPE_SECONDS` scales the fault
//! phases (script points are fractions of the total).

use gnb_sim::{CellConfig, MultiCellSim};
use nr_phy::channel::ChannelProfile;
use nr_phy::types::Pci;
use nrscope::observe::Observer;
use nrscope::{
    Capture, DropReason, Fidelity, Fleet, FleetConfig, FleetSnapshot, LoadRung, NrScope,
    PersistConfig, ScopeConfig, ShardSpec, SlotHook, Stage,
};
use nrscope_analytics::{parity_ok, PARITY_BAND};
use nrscope_bench::gate::{Gate, Mode};
use nrscope_bench::{cbr_gnb, scratch_dir};
use serde::Serialize;
use std::collections::VecDeque;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use ue_sim::traffic::{TrafficKind, TrafficSource};
use ue_sim::{MobilityScenario, SimUe};

/// Tolerance floor on the healthy-shard p99 comparison: worker-rotation
/// and scheduler jitter on a loaded (possibly single-core) CI host,
/// independent of the baseline. A genuine bulkhead leak is orders of
/// magnitude above it — a leaked wedge parks siblings behind a 300 ms
/// stall, a leaked overload behind a 20 ms/slot server.
const P99_FLOOR_NS: u64 = 8_000_000;

fn p99_us(mut ns: Vec<u64>) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.sort_unstable();
    ns[(ns.len() - 1) * 99 / 100] as f64 / 1e3
}

/// N distinct cells: cycle the presets, giving clones past the first
/// round fresh PCIs so every shard watches a distinct cell identity.
fn fleet_cells(n: usize) -> Vec<CellConfig> {
    let presets = [
        CellConfig::srsran_n41,
        CellConfig::mosolab_n48,
        CellConfig::amarisoft_n78,
        CellConfig::tmobile_n25,
        CellConfig::tmobile_n71,
    ];
    (0..n)
        .map(|i| {
            let mut cell = presets[i % presets.len()]();
            if i >= presets.len() {
                cell.pci = Pci((cell.pci.0 + 37 * (i / presets.len()) as u16) % 1008);
            }
            cell
        })
        .collect()
}

fn backlogged_ue(id: u64, traffic_seed: u64, ue_seed: u64, horizon_s: f64) -> SimUe {
    let traffic = TrafficKind::FileDownload {
        total_bytes: usize::MAX / 2,
    };
    SimUe::new(
        id,
        ChannelProfile::Awgn,
        MobilityScenario::Static,
        TrafficSource::new(traffic, traffic_seed),
        0.0,
        horizon_s,
        ue_seed,
    )
}

fn attach_static_ues(sim: &mut MultiCellSim, horizon_s: f64, seed: u64) {
    for lane in 0..sim.len() {
        for k in 0..2u64 {
            let n = lane as u64 * 10 + k;
            let ue = backlogged_ue(n + 1, seed * 1000 + n, seed * 7777 + n, horizon_s);
            sim.lane_mut(lane).ue_arrives(ue);
        }
    }
}

/// The roaming UE: attaches on lane 0 at start, hands over to lane 1.
const ROAMER_ID: u64 = 999;

fn attach_roamer(sim: &mut MultiCellSim, horizon_s: f64, seed: u64) {
    let (traffic_seed, ue_seed) = (seed * 31 + ROAMER_ID, seed * 131 + ROAMER_ID);
    let ue = backlogged_ue(ROAMER_ID, traffic_seed, ue_seed, horizon_s);
    sim.lane_mut(0).ue_arrives(ue);
}

fn shard_scope_config(ue_expiry_slots: u64) -> ScopeConfig {
    ScopeConfig {
        fidelity: Fidelity::Message,
        ue_expiry_slots,
        ..ScopeConfig::default()
    }
}

/// Throughput sweep: volatile fleet, no faults, paced feeding; returns
/// sustained slots/sec/cell.
fn sweep_point(n_cells: usize, slots: u64, seed: u64) -> f64 {
    let cells = fleet_cells(n_cells);
    let slot_s = cells[0].slot_s();
    let mut sim = MultiCellSim::new(cells.clone(), seed);
    attach_static_ues(&mut sim, slots as f64 * slot_s + 10.0, seed);
    let mut observers: Vec<Observer> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| Observer::new(c, 30.0, false, seed ^ (0xC0FFEE + i as u64)))
        .collect();
    let specs = cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            ShardSpec::volatile(format!("cell{i}"), Some(c.pci), shard_scope_config(20_000))
        })
        .collect();
    let cfg = FleetConfig {
        shard_queue_depth: 256,
        ..FleetConfig::default()
    };
    let fleet = Fleet::new(cfg, specs).expect("volatile fleet");
    let t0 = Instant::now();
    for s in 0..slots {
        let outs = sim.step();
        for (i, out) in outs.iter().enumerate() {
            let cap = observers[i].capture(out, s as f64 * slot_s);
            fleet.feed(i, s, cap);
        }
        if s.is_multiple_of(64) {
            fleet.supervise();
            while (0..n_cells).any(|i| fleet.shard_status(i).queue_len > 128) {
                fleet.supervise();
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }
    fleet.quiesce(Duration::from_secs(60));
    let wall = t0.elapsed().as_secs_f64();
    fleet.finish();
    slots as f64 / wall
}

/// The decode-bound leg: 64 CBR UEs attached during 2,000 paced slots
/// (the perf ledger's `msg-dense` population), 8 more that RACH while the
/// feed is paced, a ring of 256, and a pace of 0.8 × the bare `Full`
/// decode cost, so a slot arrives 25 % faster than a scope decodes one.
const DB_UES: usize = 64;
const DB_LATE_UES: usize = 8;
const DB_ATTACH: usize = 2000;
const DB_DEPTH: usize = 256;
const DB_PACE: f64 = 0.8;

/// An srsRAN n41 cell's tape: `ues` CBR UEs from slot 0, and a backlogged
/// one more at each slot of `late`.
fn tape(ues: usize, late: &[usize], slots: usize, iq: bool) -> (CellConfig, Vec<Capture>) {
    let cell = CellConfig::srsran_n41();
    let mut gnb = cbr_gnb(&cell, ues, 600.0, 23);
    let mut observer = Observer::new(&cell, 30.0, iq, 0xDEC0);
    let tape = (0..slots)
        .map(|s| {
            if let Some(k) = late.iter().position(|&at| at == s) {
                let id = (ues + k + 1) as u64;
                gnb.ue_arrives(backlogged_ue(id, id, id, 600.0));
            }
            observer.capture(&gnb.step(), s as f64 * cell.slot_s())
        })
        .collect();
    (cell, tape)
}

/// A bare scope (no fleet) that has decoded `tape[..attach]` at `Full`.
fn attached_scope(cell: &CellConfig, tape: &[Capture], attach: usize, iq: bool) -> NrScope {
    let fidelity = if iq { Fidelity::Iq } else { Fidelity::Message };
    let cfg = ScopeConfig {
        fidelity,
        ..shard_scope_config(20_000)
    };
    let mut scope = NrScope::new(cfg, Some(cell.pci));
    tape[..attach]
        .iter()
        .for_each(|cap| drop(scope.process_capture(cap)));
    scope
}

/// Per-slot cost, µs, of `tape[attach..]` on a bare scope held at `[Full,
/// BroadcastOnly]`: the fastest of three runs, as a busy host only adds.
fn bare_costs_us((cell, tape): &(CellConfig, Vec<Capture>), attach: usize, iq: bool) -> [f64; 2] {
    let run = |rung| {
        let mut scope = attached_scope(cell, tape, attach, iq);
        scope.force_rung(Some(rung));
        let t0 = Instant::now();
        tape[attach..]
            .iter()
            .for_each(|cap| drop(scope.process_capture(cap)));
        t0.elapsed().as_secs_f64() * 1e6 / (tape.len() - attach) as f64
    };
    let fastest = |rung| (0..3).map(|_| run(rung)).fold(f64::INFINITY, f64::min);
    [LoadRung::Full, LoadRung::BroadcastOnly].map(fastest)
}

/// Slots a scope decoded broadcast-only (its queue backed up).
fn blind_slots(scope: &NrScope) -> u64 {
    scope.stats.slots_at_rung[LoadRung::BroadcastOnly as usize]
}

/// A scope's median per-slot cost at `[Full, BroadcastOnly]`, µs (its
/// `rung_full` and `rung_broadcast_only` histograms).
fn rung_p50_us(scope: &NrScope) -> [f64; 2] {
    let snap = scope.metrics_snapshot();
    [Stage::RungFull, Stage::RungBroadcast]
        .map(|st| snap.stage(st.name()).map_or(0.0, |s| s.p50_us))
}

/// Feed `tape` a slot every `pace` on average. The feeder sleeps until a
/// slot is due, then feeds every slot that is: a sleep's overshoot becomes
/// a short burst, not a slower pace.
fn paced_feed(tape: &[Capture], pace: Duration, mut feed: impl FnMut(usize, Capture)) {
    let t0 = Instant::now();
    for (k, cap) in tape.iter().enumerate() {
        if let Some(early) = (t0 + pace.mul_f64(k as f64)).checked_duration_since(Instant::now()) {
            std::thread::sleep(early);
        }
        feed(k, cap.clone());
    }
}

/// What one side of a decode-bound trial kept of the paced feed: its
/// sheds, its C-RNTI DCIs (the per-UE telemetry), its UEs discovered, its
/// broadcast-only slots and [`rung_p50_us`].
#[derive(Serialize, Default)]
struct Side {
    sheds: u64,
    ue_dcis: u64,
    discovered: u64,
    broadcast_only_slots: u64,
    rung_p50_us: [f64; 2],
}

impl Side {
    fn of(scope: &NrScope, sheds: u64) -> Side {
        Side {
            sheds,
            ue_dcis: scope.stats.dl_dcis + scope.stats.ul_dcis,
            discovered: scope.total_discovered(),
            broadcast_only_slots: blind_slots(scope),
            rung_p50_us: rung_p50_us(scope),
        }
    }
}

/// The fleet shard's side of a decode-bound trial: a one-shard volatile
/// fleet, attached on a paced feed, then fed the rest of `tape` at `pace`.
fn decode_bound_shard(cell: &CellConfig, tape: &[Capture], pace: Duration) -> Side {
    let cfg = FleetConfig {
        workers: 1,
        shard_queue_depth: DB_DEPTH,
        watchdog_ms: 0,
        ..FleetConfig::default()
    };
    let spec = ShardSpec::volatile("decode-bound", Some(cell.pci), shard_scope_config(20_000));
    let fleet = Fleet::new(cfg, vec![spec]).expect("volatile fleet");
    for (s, cap) in tape[..DB_ATTACH].iter().enumerate() {
        fleet.feed(0, s as u64, cap.clone());
        while fleet.shard_status(0).queue_len > 8 {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    fleet.quiesce(Duration::from_secs(60));
    paced_feed(&tape[DB_ATTACH..], pace, |k, cap| {
        fleet.feed(0, (DB_ATTACH + k) as u64, cap);
    });
    fleet.quiesce(Duration::from_secs(60));
    let sheds = fleet.shard_status(0).sheds;
    let side = fleet.with_scope(0, |scope| Side::of(scope, sheds));
    fleet.finish();
    side.unwrap_or_default()
}

/// The control: a ring of [`DB_DEPTH`] fed `tape[attach..]` at `pace`,
/// whose one consumer decodes every slot at `Full` (gap-filling what was
/// shed, as a fleet shard does), and which sheds its oldest entry when
/// full — a shard without the backlog rule. It pays none of a fleet
/// shard's other per-slot costs, so it is if anything the faster of the
/// two.
fn full_only_ring(mut scope: NrScope, tape: &[Capture], attach: usize, pace: Duration) -> Side {
    let ring = Mutex::new(VecDeque::with_capacity(DB_DEPTH));
    let (fed, mut sheds) = (AtomicBool::new(false), 0);
    std::thread::scope(|threads| {
        threads.spawn(|| loop {
            let next = ring.lock().expect("ring").pop_front();
            match next {
                Some((seq, cap)) => {
                    while scope.slot_watermark() < seq {
                        drop(scope.process_capture(&Capture::Dropped(DropReason::Stall)));
                    }
                    drop(scope.process_capture(&cap));
                }
                None if fed.load(Ordering::Acquire) => break,
                None => std::thread::yield_now(),
            }
        });
        paced_feed(&tape[attach..], pace, |k, cap| {
            let mut q = ring.lock().expect("ring");
            if q.len() == DB_DEPTH {
                q.pop_front();
                sheds += 1;
            }
            q.push_back(((attach + k) as u64, cap));
        });
        fed.store(true, Ordering::Release);
    });
    Side::of(&scope, sheds)
}

/// The decode-bound leg's record: per-slot costs at `[Full,
/// BroadcastOnly]`, µs, on a bare scope (at IQ fidelity with 12 UEs too,
/// for the record: there a blind slot is dearer), and three trials of the
/// fleet shard and the control, each in turn.
#[derive(Serialize, Default)]
struct DecodeBound {
    slots: usize,
    bare_us: [f64; 2],
    bare_iq_us: [f64; 2],
    shard: Vec<Side>,
    full_only: Vec<Side>,
}

/// Decode-bound overload: the shard's own decode holds it back, not a
/// stall before decode. One volatile shard at message fidelity is fed
/// [`DB_PACE`] of its bare `Full` cost, measured first on the same host.
/// A shard that decodes every slot at `Full` cannot keep that pace and
/// sheds ([`full_only_ring`]); the fleet shard decodes its backlog
/// broadcast-only, at about 0.6 of the cost.
fn decode_bound(slots: usize) -> DecodeBound {
    let late: Vec<usize> = (0..DB_LATE_UES)
        .map(|k| DB_ATTACH + (2 * k + 1) * slots / (2 * DB_LATE_UES))
        .collect();
    let msg = tape(DB_UES, &late, DB_ATTACH + slots, false);
    let bare_us = bare_costs_us(&msg, DB_ATTACH, false);
    let pace = Duration::from_secs_f64(DB_PACE * bare_us[0] * 1e-6);
    let mut db = DecodeBound {
        slots,
        bare_us,
        bare_iq_us: bare_costs_us(&tape(12, &[], 240, true), 120, true),
        ..DecodeBound::default()
    };
    for _ in 0..3 {
        db.shard.push(decode_bound_shard(&msg.0, &msg.1, pace));
        let control = attached_scope(&msg.0, &msg.1, DB_ATTACH, false);
        db.full_only
            .push(full_only_ring(control, &msg.1, DB_ATTACH, pace));
    }
    db
}

/// The decode-bound leg's breaches. A stall of the host only ever adds
/// sheds and loses RACHs, to whichever side it hits, so each side is
/// judged by its best trial.
fn decode_bound_breaches(db: &DecodeBound) -> Vec<String> {
    let fewest_sheds = |sides: &[Side]| sides.iter().map(|k| k.sheds).min().unwrap_or(0);
    let most_found = |sides: &[Side]| sides.iter().map(|k| k.discovered).max().unwrap_or(0);
    let (rule, control) = (fewest_sheds(&db.shard), fewest_sheds(&db.full_only));
    let blind = db.shard.iter().any(|k| k.broadcast_only_slots > 0);
    let mut breaches = Vec::new();
    if control == 0 || rule >= control || !blind {
        breaches.push(format!(
            "decode-bound: the backlog rule shed {rule}, a Full-only ring {control}"
        ));
    }
    let (rule, control) = (most_found(&db.shard), most_found(&db.full_only));
    if rule < control {
        breaches.push(format!(
            "decode-bound: the backlog rule found {rule} UEs, a Full-only ring {control}"
        ));
    }
    breaches
}

/// The fault script, as slot indices (all fractions of the total so
/// `NRSCOPE_SECONDS` scales the run).
struct Script {
    total: u64,
    handover_at: u64,
    ue_expiry: u64,
    kill_at: u64,
    wedge_at: u64,
    overload_on: u64,
    overload_off: u64,
    parity_range: std::ops::Range<u64>,
}

/// Fault-phase queue depth: the overload window must exceed it so the
/// overloaded shard demonstrably sheds its own queue.
const FAULT_QUEUE_DEPTH: usize = 512;

impl Script {
    fn for_total(total: u64) -> Script {
        let overload_on = total * 52 / 100;
        Script {
            total,
            handover_at: total * 30 / 100,
            ue_expiry: (total * 15 / 100).max(600),
            kill_at: total * 45 / 100,
            wedge_at: total * 47 / 100,
            overload_on,
            overload_off: overload_on + (total * 12 / 100).max(FAULT_QUEUE_DEPTH as u64 + 300),
            parity_range: total / 4..total * 9 / 10,
        }
    }
}

const KILL_SHARD: usize = 2;
const WEDGE_SHARD: usize = 4;
const OVERLOAD_SHARD: usize = 6;

struct PhaseResult {
    p99_us: Vec<f64>,
    parity: Vec<f64>,
    snapshot: FleetSnapshot,
    watermarks: Vec<u64>,
    /// Per shard: slots decoded broadcast-only (a backed-up queue).
    broadcast_only: Vec<u64>,
    /// The overloaded shard's median per-slot cost at each rung, µs.
    overload_rung_p50_us: [f64; 2],
    /// Per shard: did its last recovery resume prior state, and where.
    recovered: Vec<(bool, u64)>,
    wall_s: f64,
}

/// One 8-cell durable run: scripted handover always; fault matrix only
/// when `faults` is set. Returns per-shard p99 latency, parity, the
/// closing rollup, and recovery evidence.
fn fleet_phase(script: &Script, dir: &Path, faults: bool, seed: u64) -> PhaseResult {
    let n = 8usize;
    let cells = fleet_cells(n);
    // Lanes are stepped in lock-step slot indices; each observer gets
    // its own cell's wall time (µ0 and µ1 cells have different TTIs).
    let lane_slot_s: Vec<f64> = cells.iter().map(|c| c.slot_s()).collect();
    let horizon = script.total as f64 * lane_slot_s.iter().cloned().fold(0.0, f64::max) + 10.0;
    let mut sim = MultiCellSim::new(cells.clone(), seed);
    attach_static_ues(&mut sim, horizon, seed);
    attach_roamer(&mut sim, horizon, seed);
    sim.schedule_handover(script.handover_at, ROAMER_ID, 0, 1);

    let mut observers: Vec<Observer> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| Observer::new(c, 30.0, false, seed ^ (0xFEED + i as u64)))
        .collect();
    let specs = cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            ShardSpec::durable(
                format!("cell{i}"),
                Some(c.pci),
                shard_scope_config(script.ue_expiry),
                PersistConfig {
                    checkpoint_every_slots: 256,
                    ..PersistConfig::new(dir.join(format!("shard{i}")))
                },
            )
        })
        .collect();
    let cfg = FleetConfig {
        workers: 4,
        shard_queue_depth: FAULT_QUEUE_DEPTH,
        watchdog_ms: 80,
        ..FleetConfig::default()
    };
    let fleet = Fleet::new(cfg, specs).expect("durable fleet");
    if faults {
        let (kill_at, wedge_at) = (script.kill_at, script.wedge_at);
        let kill = move |slot| {
            if slot == kill_at {
                panic!("injected shard fault");
            }
        };
        let wedge = move |slot| {
            if slot == wedge_at {
                std::thread::sleep(Duration::from_millis(300));
            }
        };
        fleet.set_slot_hook(KILL_SHARD, Some(SlotHook::new(kill)));
        fleet.set_slot_hook(WEDGE_SHARD, Some(SlotHook::new(wedge)));
    }

    let t0 = Instant::now();
    for s in 0..script.total {
        if faults && s == script.overload_on {
            let overload = |_| std::thread::sleep(Duration::from_millis(20));
            fleet.set_slot_hook(OVERLOAD_SHARD, Some(SlotHook::new(overload)));
        }
        if faults && s == script.overload_off {
            fleet.set_slot_hook(OVERLOAD_SHARD, None);
        }
        let outs = sim.step();
        for (i, out) in outs.iter().enumerate() {
            let cap = observers[i].capture(out, s as f64 * lane_slot_s[i]);
            fleet.feed(i, s, cap);
        }
        if s.is_multiple_of(8) {
            fleet.supervise();
            // Pace: keep every non-overloaded queue shallow so enqueue→
            // done latency measures the pipeline, not the driver burst.
            // The overloaded shard is deliberately left to back up and
            // shed — that is the experiment.
            let overloading = faults && s >= script.overload_on && s < script.overload_off;
            loop {
                let deep = (0..n).any(|i| {
                    (!overloading || i != OVERLOAD_SHARD) && fleet.shard_status(i).queue_len > 24
                });
                if !deep {
                    break;
                }
                fleet.supervise();
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }
    // Let faulted shards finish recovering: queues drained, every shard
    // healthy again.
    let deadline = Instant::now() + Duration::from_secs(60);
    fleet.quiesce(Duration::from_secs(60));
    while Instant::now() < deadline {
        fleet.supervise();
        let all_healthy = (0..n).all(|i| {
            fleet.shard_status(i).health == nrscope::ShardHealth::Healthy
                && fleet.shard_status(i).queue_len == 0
        });
        if all_healthy {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    fleet.quiesce(Duration::from_secs(10));
    let wall_s = t0.elapsed().as_secs_f64();

    let p99: Vec<f64> = (0..n).map(|i| p99_us(fleet.take_latencies(i))).collect();
    let mut parity = Vec::with_capacity(n);
    let mut watermarks = Vec::with_capacity(n);
    for i in 0..n {
        let range = script.parity_range.clone();
        let rntis = sim.lane(i).connected_rntis();
        let (est, truth) = fleet
            .with_scope(i, |scope| {
                let mut est = 0u64;
                let mut truth = 0u64;
                for r in &rntis {
                    est += scope.estimated_bits(*r, range.clone());
                    truth += sim
                        .lane(i)
                        .ue(*r)
                        .map_or(0, |u| u.delivered_bytes_in(range.clone()) as u64 * 8);
                }
                (est, truth)
            })
            .unwrap_or((0, 0));
        parity.push(if truth == 0 {
            0.0
        } else {
            est as f64 / truth as f64
        });
        watermarks.push(fleet.with_scope(i, |s| s.slot_watermark()).unwrap_or(0));
    }
    let broadcast_only = (0..n).map(|i| fleet.with_scope(i, blind_slots).unwrap_or(0));
    let broadcast_only: Vec<u64> = broadcast_only.collect();
    let overload_rung_p50_us = fleet
        .with_scope(OVERLOAD_SHARD, rung_p50_us)
        .unwrap_or_default();
    let recovered: Vec<(bool, u64)> = (0..n)
        .map(|i| {
            let last = fleet.shard_status(i).last_recovery;
            last.map_or((false, 0), |r| (r.resumed, r.resumed_slot))
        })
        .collect();
    let snapshot = fleet.finish();
    PhaseResult {
        p99_us: p99,
        parity,
        snapshot,
        watermarks,
        broadcast_only,
        overload_rung_p50_us,
        recovered,
        wall_s,
    }
}

fn role(shard: usize) -> &'static str {
    match shard {
        KILL_SHARD => "killed",
        WEDGE_SHARD => "wedged",
        OVERLOAD_SHARD => "overloaded",
        _ => "healthy",
    }
}

#[derive(Serialize)]
struct SweepPoint {
    cells: usize,
    slots_per_sec_per_cell: f64,
}

#[derive(Serialize)]
struct FaultMatrix {
    killed: usize,
    wedged: usize,
    overloaded: usize,
}

#[derive(Serialize)]
struct ShardRow {
    shard: usize,
    name: String,
    role: &'static str,
    base_p99_us: f64,
    fault_p99_us: f64,
    parity: f64,
    watermark: u64,
    health: String,
    sync: String,
    load_rung: String,
    broadcast_only_slots: u64,
    sheds: u64,
    panics: u64,
    wedges: u64,
    restarts: u64,
    resumed: bool,
    resumed_slot: u64,
}

/// The artefact's header fields.
#[derive(Serialize)]
struct Header {
    cells: usize,
    slots_per_cell: u64,
    baseline_wall_s: f64,
    fault_wall_s: f64,
    sweep: Vec<SweepPoint>,
    fault_matrix: FaultMatrix,
    shards: Vec<ShardRow>,
    /// The overloaded shard's median per-slot cost at `[Full,
    /// BroadcastOnly]`, µs: its stall is its hook's, before decode, so a
    /// blind slot shortens nothing there.
    overloaded_rung_p50_us: [f64; 2],
    decode_bound: DecodeBound,
    continuations: u64,
    total_discovered: u64,
    distinct_users: u64,
}

/// The three experiments and their assertions: the artefact header plus
/// every isolation breach found.
fn run(mode: Mode, script: &Script) -> (Header, Vec<String>) {
    let n = 8usize;
    let dir = scratch_dir("fleet", "shards");

    // 1. Sweep.
    let sweep_counts: &[usize] = mode.pick(&[1, 2, 4, 8], &[1, 2, 4, 8, 12]);
    let sweep_slots: u64 = mode.pick(1500, 4000);
    let sweep: Vec<SweepPoint> = sweep_counts
        .iter()
        .map(|&cells| SweepPoint {
            cells,
            slots_per_sec_per_cell: sweep_point(cells, sweep_slots, 40 + cells as u64),
        })
        .collect();

    // 2. Baseline (no faults) and 3. fault matrix — identical otherwise.
    let base = fleet_phase(script, &dir.join("base"), false, 17);
    let fault = fleet_phase(script, &dir.join("fault"), true, 17);
    let _ = std::fs::remove_dir_all(&dir);

    // 4. Decode-bound overload.
    let decode = decode_bound(mode.pick(10_000, 20_000));

    let mut breaches = decode_bound_breaches(&decode);
    for i in 0..n {
        if role(i) == "healthy" {
            let limit = (base.p99_us[i] * 1.10 * 1e3) as u64 + P99_FLOOR_NS;
            let got = (fault.p99_us[i] * 1e3) as u64;
            if got > limit {
                breaches.push(format!(
                    "shard {i}: healthy p99 {:.0}µs exceeds baseline {:.0}µs +10% (+{}µs floor)",
                    fault.p99_us[i],
                    base.p99_us[i],
                    P99_FLOOR_NS / 1000
                ));
            }
        }
        // Parity holds on healthy shards AND on the killed/wedged ones
        // (exact-slot resume: replaying the journal twice would push the
        // estimate past the ceiling). The overloaded shard shed real slots.
        if i != OVERLOAD_SHARD && !parity_ok(fault.parity[i]) {
            breaches.push(format!(
                "shard {i}: parity {:.4} outside {PARITY_BAND:?}",
                fault.parity[i]
            ));
        }
        if fault.watermarks[i] != script.total {
            breaches.push(format!(
                "shard {i}: watermark {} != slots fed {} (lost or skipped slots)",
                fault.watermarks[i], script.total
            ));
        }
        let cell = &fault.snapshot.cells[i];
        if cell.health != "healthy" || cell.sync != "synced" || cell.load_rung != "full" {
            breaches.push(format!(
                "shard {i}: ended {}/{}/{} (want healthy/synced/full)",
                cell.health, cell.sync, cell.load_rung
            ));
        }
        if i != OVERLOAD_SHARD && cell.sheds > 0 {
            breaches.push(format!(
                "shard {i}: shed {} slots — backpressure leaked across a bulkhead",
                cell.sheds
            ));
        }
        if i != OVERLOAD_SHARD && fault.broadcast_only[i] > 0 {
            breaches.push(format!(
                "shard {i}: decoded {} slots broadcast-only — a backlog crossed a bulkhead",
                fault.broadcast_only[i]
            ));
        }
    }
    let kill_cell = &fault.snapshot.cells[KILL_SHARD];
    if kill_cell.panics < 1 || kill_cell.restarts < 1 || !fault.recovered[KILL_SHARD].0 {
        breaches.push(format!(
            "killed shard: panics={} restarts={} resumed={} (want ≥1/≥1/true)",
            kill_cell.panics, kill_cell.restarts, fault.recovered[KILL_SHARD].0
        ));
    }
    let wedge_cell = &fault.snapshot.cells[WEDGE_SHARD];
    if wedge_cell.wedges < 1 || wedge_cell.restarts < 1 || !fault.recovered[WEDGE_SHARD].0 {
        breaches.push(format!(
            "wedged shard: wedges={} restarts={} resumed={} (want ≥1/≥1/true)",
            wedge_cell.wedges, wedge_cell.restarts, fault.recovered[WEDGE_SHARD].0
        ));
    }
    let overload_cell = &fault.snapshot.cells[OVERLOAD_SHARD];
    if overload_cell.sheds < 1 {
        breaches.push("overloaded shard: shed no slots (overload not exercised)".into());
    }
    if fault.broadcast_only[OVERLOAD_SHARD] < 1 {
        breaches.push("overloaded shard: decoded no slot broadcast-only".into());
    }
    let base_discovered = base.snapshot.cells[OVERLOAD_SHARD].discovered;
    if overload_cell.discovered < base_discovered {
        breaches.push(format!(
            "overloaded shard: discovered {} UEs, {base_discovered} without faults",
            overload_cell.discovered
        ));
    }
    if fault.snapshot.continuations != 1 {
        breaches.push(format!(
            "continuity: {} continuations (want exactly 1 for the scripted handover)",
            fault.snapshot.continuations
        ));
    }
    // 2 static UEs per cell + the roamer admitted on both lane 0 and 1.
    let want_users = 2 * n as u64 + 1;
    if fault.snapshot.distinct_users != want_users {
        breaches.push(format!(
            "continuity: {} distinct users (want {})",
            fault.snapshot.distinct_users, want_users
        ));
    }

    for p in &sweep {
        println!(
            "  sweep {:>2} cells   {:>10.1} slots/sec/cell",
            p.cells, p.slots_per_sec_per_cell
        );
    }
    let [full, blind] = fault.overload_rung_p50_us;
    println!("  overloaded shard: p50 {full:.1} µs a slot at full, {blind:.1} µs broadcast-only");
    let [full, blind] = decode.bare_us;
    println!("  decode-bound: bare {full:.2} µs a slot at full, {blind:.2} µs broadcast-only");
    for (k, c) in decode.shard.iter().zip(&decode.full_only) {
        println!(
            "    shard sheds {:>5} UE DCIs {:>6} found {} ({} broadcast-only) | Full-only ring sheds {:>5} UE DCIs {:>6} found {}",
            k.sheds, k.ue_dcis, k.discovered, k.broadcast_only_slots, c.sheds, c.ue_dcis, c.discovered
        );
    }
    let [full, blind] = decode.bare_iq_us;
    println!("  iq (12 UEs): bare {full:.1} µs a slot at full, {blind:.1} µs broadcast-only");
    let shards: Vec<ShardRow> = (0..n)
        .map(|i| {
            let cell = &fault.snapshot.cells[i];
            println!(
                "  shard {i} ({:>10}) p99 {:>9.1} µs (base {:>9.1}) parity {:.4} broadcast-only {:>4} sheds {:>4} restarts {}",
                role(i), fault.p99_us[i], base.p99_us[i], fault.parity[i], fault.broadcast_only[i], cell.sheds, cell.restarts,
            );
            ShardRow {
                shard: i,
                name: cell.name.clone(),
                role: role(i),
                base_p99_us: base.p99_us[i],
                fault_p99_us: fault.p99_us[i],
                parity: fault.parity[i],
                watermark: fault.watermarks[i],
                health: cell.health.clone(),
                sync: cell.sync.clone(),
                load_rung: cell.load_rung.clone(),
                broadcast_only_slots: fault.broadcast_only[i],
                sheds: cell.sheds,
                panics: cell.panics,
                wedges: cell.wedges,
                restarts: cell.restarts,
                resumed: fault.recovered[i].0,
                resumed_slot: fault.recovered[i].1,
            }
        })
        .collect();
    let header = Header {
        cells: n,
        slots_per_cell: script.total,
        baseline_wall_s: base.wall_s,
        fault_wall_s: fault.wall_s,
        sweep,
        fault_matrix: FaultMatrix {
            killed: KILL_SHARD,
            wedged: WEDGE_SHARD,
            overloaded: OVERLOAD_SHARD,
        },
        shards,
        overloaded_rung_p50_us: fault.overload_rung_p50_us,
        decode_bound: decode,
        continuations: fault.snapshot.continuations,
        total_discovered: fault.snapshot.total_discovered,
        distinct_users: fault.snapshot.distinct_users,
    };
    (header, breaches)
}

fn main() -> ExitCode {
    let mut gate = Gate::new("fleet", "phases", Mode::from_env());
    // µ=1 slots: 0.5 ms each. Script points scale with the total.
    let script = Script::for_total(gate.mode.slots(2.75, 5.0, 0.0005, 0));
    let mode = gate.mode;
    let header = gate.guard(|| run(mode, &script)).map(|(header, breaches)| {
        breaches.into_iter().for_each(|b| gate.breach(b));
        header
    });
    gate.finish(&header)
}
