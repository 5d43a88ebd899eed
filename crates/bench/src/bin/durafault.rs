//! durafault — storage-fault matrix over the durable pipeline.
//!
//! Runs the durable session against a seeded `FaultyBackend` through four
//! fault schedules — transient write-error burst, dead disk (persistent
//! `EIO`), disk full (`ENOSPC`), and recovery with re-promotion + a
//! simulated `kill -9` resume — and freezes the results into
//! `BENCH_durafault.json`.
//!
//! The gate exits non-zero unless, across every schedule:
//!   * zero panics escaped any phase;
//!   * decode throughput stayed within 10% of the clean-disk baseline
//!     while the disk was faulting (plus the shared noise floor);
//!   * the durability ladder moved as designed, observed through the
//!     `durability_rung` gauge — retries without demotion for the
//!     transient burst, demotion to `NonDurable` for the dead disk, an
//!     emergency prune for `ENOSPC`, and full re-promotion to `Durable`
//!     after recovery;
//!   * resume after the simulated kill lost no more slots than the
//!     session's honestly-reported loss window.
//!
//! `--short` (or `NRSCOPE_SECONDS`) shrinks the run for CI smoke tests.

use gnb_sim::{CellConfig, Gnb};
use nr_mac::RoundRobin;
use nr_phy::channel::ChannelProfile;
use nrscope::observe::Observer;
use nrscope::{
    Counter, DurabilityRung, FaultKind, FaultyBackend, Gauge, PersistConfig, PersistentSession,
    ScopeConfig, StorageFaultSchedule, StoragePolicy,
};
use nrscope_bench::capture_seconds;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use ue_sim::traffic::{TrafficKind, TrafficSource};
use ue_sim::{MobilityScenario, SimUe};

/// Wall-clock noise floor for throughput-ratio comparisons, in percent
/// (same figure the `pipeline` bench documents).
const NOISE_FLOOR_PCT: f64 = 3.0;

/// Throughput during faults must stay within 10% of baseline (the
/// tentpole's headline requirement), noise floor on top.
fn ratio_min() -> f64 {
    0.9 * (1.0 - NOISE_FLOOR_PCT / 100.0)
}

fn build_gnb(cell: &CellConfig, n_ues: usize, active_s: f64, seed: u64) -> Gnb {
    let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), seed);
    for i in 0..n_ues {
        gnb.ue_arrives(SimUe::new(
            i as u64 + 1,
            ChannelProfile::Awgn,
            MobilityScenario::Static,
            TrafficSource::new(
                TrafficKind::Cbr {
                    rate_bps: 3e6,
                    packet_bytes: 1200,
                },
                seed * 1000 + i as u64,
            ),
            0.0,
            active_s,
            seed * 7777 + i as u64,
        ));
    }
    gnb
}

/// One phase's cell feed: a gNB + observer pair that survives across
/// `drive` calls so the tracked-UE population persists through faults.
struct Feed {
    gnb: Gnb,
    observer: Observer,
    slot_s: f64,
    next: u64,
}

impl Feed {
    fn new(cell: &CellConfig, horizon_slots: u64, seed: u64) -> Feed {
        let slot_s = cell.slot_s();
        Feed {
            gnb: build_gnb(cell, 4, horizon_slots as f64 * slot_s + 10.0, seed),
            observer: Observer::new(cell, 30.0, false, seed ^ 0xD15C),
            slot_s,
            next: 0,
        }
    }

    /// Feed `slots` captures through the session; returns wall seconds.
    fn drive(&mut self, session: &mut PersistentSession, slots: u64) -> f64 {
        let t0 = Instant::now();
        for _ in 0..slots {
            let out = self.gnb.step();
            let cap = self.observer.capture(&out, self.next as f64 * self.slot_s);
            session.process_capture(&cap);
            self.next += 1;
        }
        t0.elapsed().as_secs_f64()
    }
}

fn phase_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nrscope-bench-durafault-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_session(
    dir: &PathBuf,
    cell: &CellConfig,
    backend: Option<&FaultyBackend>,
    storage: StoragePolicy,
) -> PersistentSession {
    let mut cfg = PersistConfig {
        checkpoint_every_slots: 512,
        storage,
        ..PersistConfig::new(dir)
    };
    if let Some(b) = backend {
        cfg = cfg.with_backend(Arc::new(b.clone()));
    }
    let (session, _) = PersistentSession::open(cfg, ScopeConfig::default(), Some(cell.pci))
        .expect("open durable session");
    session
}

/// One fault schedule's outcome.
struct PhaseResult {
    name: &'static str,
    slots: u64,
    slots_per_sec: f64,
    ratio_vs_baseline: f64,
    retries: u64,
    demotions: u64,
    emergency_prunes: u64,
    journal_write_failures: u64,
    final_rung: &'static str,
    ok: bool,
    detail: String,
}

impl PhaseResult {
    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"name\": \"{name}\", \"slots\": {slots}, ",
                "\"slots_per_sec\": {sps:.1}, \"ratio_vs_baseline\": {ratio:.4}, ",
                "\"storage_retries\": {retries}, \"storage_demotions\": {demotions}, ",
                "\"emergency_prunes\": {prunes}, \"journal_write_failures\": {jwf}, ",
                "\"final_rung\": \"{rung}\", \"ok\": {ok}, \"detail\": \"{detail}\"}}"
            ),
            name = self.name,
            slots = self.slots,
            sps = self.slots_per_sec,
            ratio = self.ratio_vs_baseline,
            retries = self.retries,
            demotions = self.demotions,
            prunes = self.emergency_prunes,
            jwf = self.journal_write_failures,
            rung = self.final_rung,
            ok = self.ok,
            detail = self.detail,
        )
    }
}

fn snapshot_counters(session: &PersistentSession) -> (u64, u64, u64, u64) {
    let m = session.scope().metrics();
    (
        m.counter(Counter::StorageRetries),
        m.counter(Counter::StorageDemotions),
        m.counter(Counter::EmergencyPrunes),
        m.counter(Counter::JournalWriteFailures),
    )
}

/// Clean-disk baseline: the yardstick every faulted run is measured
/// against.
fn baseline_phase(cell: &CellConfig, slots: u64) -> f64 {
    let dir = phase_dir("baseline");
    let mut session = open_session(&dir, cell, None, StoragePolicy::default());
    let mut feed = Feed::new(cell, slots, 11);
    let wall = feed.drive(&mut session, slots);
    session.finalize().expect("finalize baseline");
    let _ = std::fs::remove_dir_all(&dir);
    slots as f64 / wall
}

/// Transient burst: a bounded window of write `EIO`s. The ladder must
/// absorb it with retries — no demotion — and climb back to `Durable`.
fn transient_phase(cell: &CellConfig, slots: u64, base_sps: f64) -> PhaseResult {
    let dir = phase_dir("transient");
    let backend = FaultyBackend::new(StorageFaultSchedule::new(21));
    let mut session = open_session(&dir, cell, Some(&backend), StoragePolicy::default());
    let mut feed = Feed::new(cell, slots * 2, 13);
    // Warm up to just past a checkpoint boundary, so the next few write
    // ops belong to the journal writer, not a racing background
    // checkpoint; the barrier + sleep drain anything already in flight.
    let warm = (slots / 4 / 512) * 512 + 128;
    let mut wall = feed.drive(&mut session, warm);
    session.flush_barrier();
    std::thread::sleep(Duration::from_millis(10));
    // Two consecutive write EIOs from the next journal append on: both
    // are retried (well under the retry budget of 4) and the write lands
    // on the third attempt.
    let w = backend.writes();
    backend.arm(FaultKind::WriteEio, w..w + 2);
    wall += feed.drive(&mut session, slots - warm);
    session.flush_barrier();
    let (retries, demotions, prunes, jwf) = snapshot_counters(&session);
    let rung = session.durability_rung();
    let gauge = session.scope().metrics().gauge(Gauge::DurabilityRung);
    let sps = slots as f64 / wall;
    let ratio = sps / base_sps;
    let ok = retries >= 1
        && demotions == 0
        && rung == DurabilityRung::Durable
        && gauge == DurabilityRung::Durable as u64
        && ratio >= ratio_min();
    let detail = format!(
        "retries={retries} demotions={demotions} rung={} gauge={gauge} ratio={ratio:.3}",
        rung.name()
    );
    session.finalize().expect("finalize transient");
    let _ = std::fs::remove_dir_all(&dir);
    PhaseResult {
        name: "transient_burst",
        slots,
        slots_per_sec: sps,
        ratio_vs_baseline: ratio,
        retries,
        demotions,
        emergency_prunes: prunes,
        journal_write_failures: jwf,
        final_rung: rung.name(),
        ok,
        detail,
    }
}

/// Dead disk: every write fails from mid-phase on. The session must
/// demote to `NonDurable` (observed via the gauge), keep decoding at
/// full speed, and report its loss window as unbounded.
fn dead_disk_phase(cell: &CellConfig, slots: u64, base_sps: f64) -> PhaseResult {
    let dir = phase_dir("dead-disk");
    let backend = FaultyBackend::new(StorageFaultSchedule::new(22));
    let mut session = open_session(&dir, cell, Some(&backend), StoragePolicy::default());
    let mut feed = Feed::new(cell, slots * 8, 14);
    feed.drive(&mut session, slots / 4);
    backend.arm(FaultKind::WriteEio, backend.writes()..u64::MAX);
    // Timed stretch under the dead disk: the hot path must not inherit
    // the writer thread's retry stalls.
    let mut wall = feed.drive(&mut session, slots);
    let mut driven = slots;
    // The first failing batch spends the full retry ladder (~15 ms of
    // writer-thread backoff) before the demotion lands; drive until the
    // session observes it, bounded so a bug cannot hang the bench.
    while session.durability_rung() != DurabilityRung::NonDurable && driven < slots * 6 {
        wall += feed.drive(&mut session, 64);
        driven += 64;
    }
    let (retries, demotions, prunes, jwf) = snapshot_counters(&session);
    let rung = session.durability_rung();
    let gauge = session.scope().metrics().gauge(Gauge::DurabilityRung);
    let loss = session.reported_loss_window();
    let sps = driven as f64 / wall;
    let ratio = sps / base_sps;
    let ok = demotions >= 1
        && rung == DurabilityRung::NonDurable
        && gauge == DurabilityRung::NonDurable as u64
        && loss.is_none()
        && jwf >= 1
        && ratio >= ratio_min();
    let detail = format!(
        "demotions={demotions} rung={} gauge={gauge} loss_window={loss:?} ratio={ratio:.3}",
        rung.name()
    );
    // No finalize: the disk is dead, a final checkpoint would (rightly)
    // fail. Drop drains what it can and moves on — exactly the unattended
    // deployment story.
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
    PhaseResult {
        name: "dead_disk",
        slots: driven,
        slots_per_sec: sps,
        ratio_vs_baseline: ratio,
        retries,
        demotions,
        emergency_prunes: prunes,
        journal_write_failures: jwf,
        final_rung: rung.name(),
        ok,
        detail,
    }
}

/// Disk full: one `ENOSPC` write. The ladder must fire the emergency
/// prune, retry into the reclaimed space, and never demote.
fn disk_full_phase(cell: &CellConfig, slots: u64, base_sps: f64) -> PhaseResult {
    let dir = phase_dir("disk-full");
    let backend = FaultyBackend::new(StorageFaultSchedule::new(23));
    let mut session = open_session(&dir, cell, Some(&backend), StoragePolicy::default());
    let mut feed = Feed::new(cell, slots * 2, 15);
    // Past at least one checkpoint cadence (something to prune), landing
    // just after a boundary so the armed op hits the journal writer, not
    // a racing background checkpoint.
    let warm = (slots / 2 / 512) * 512 + 128;
    let mut wall = feed.drive(&mut session, warm);
    session.flush_barrier();
    std::thread::sleep(Duration::from_millis(10));
    let w = backend.writes();
    backend.arm(FaultKind::WriteEnospc, w..w + 1);
    wall += feed.drive(&mut session, slots - warm);
    session.flush_barrier();
    let (retries, demotions, prunes, jwf) = snapshot_counters(&session);
    let rung = session.durability_rung();
    let sps = slots as f64 / wall;
    let ratio = sps / base_sps;
    let ok = prunes >= 1
        && retries >= 1
        && demotions == 0
        && rung != DurabilityRung::NonDurable
        && ratio >= ratio_min();
    let detail = format!(
        "prunes={prunes} retries={retries} demotions={demotions} rung={} ratio={ratio:.3}",
        rung.name()
    );
    session.finalize().expect("finalize disk-full");
    let _ = std::fs::remove_dir_all(&dir);
    PhaseResult {
        name: "disk_full",
        slots,
        slots_per_sec: sps,
        ratio_vs_baseline: ratio,
        retries,
        demotions,
        emergency_prunes: prunes,
        journal_write_failures: jwf,
        final_rung: rung.name(),
        ok,
        detail,
    }
}

/// Recovery: dead disk → demotion → the disk comes back → the background
/// probe re-promotes → a simulated `kill -9` → resume must lose no more
/// than the loss window the session was reporting at the kill.
fn recovery_phase(cell: &CellConfig, slots: u64, base_sps: f64) -> PhaseResult {
    let dir = phase_dir("recovery");
    let backend = FaultyBackend::new(StorageFaultSchedule::new(24));
    let policy = StoragePolicy {
        reprobe_interval_slots: 256, // probe quickly: bench, not production
    };
    let mut session = open_session(&dir, cell, Some(&backend), policy);
    let mut feed = Feed::new(cell, slots * 16, 16);
    feed.drive(&mut session, slots / 4);
    let mut driven = slots / 4;
    backend.arm(FaultKind::WriteEio, backend.writes()..u64::MAX);
    while session.durability_rung() != DurabilityRung::NonDurable && driven < slots * 4 {
        feed.drive(&mut session, 64);
        driven += 64;
    }
    let demoted = session.durability_rung() == DurabilityRung::NonDurable;
    // The disk comes back; the probe cadence must notice and re-anchor.
    backend.clear_faults();
    while session.durability_rung() != DurabilityRung::Durable && driven < slots * 12 {
        feed.drive(&mut session, 64);
        driven += 64;
    }
    let repromoted = session.durability_rung() == DurabilityRung::Durable;
    let gauge = session.scope().metrics().gauge(Gauge::DurabilityRung);
    // The convergence loops above pay one-off costs by design (the retry
    // ladder's backoff, the re-anchor checkpoint, probe cadence waits), so
    // the throughput gate measures the recovered steady state: a timed
    // durable stretch after re-promotion must be back within 10%.
    let timed = slots;
    let wall = feed.drive(&mut session, timed);
    driven += timed;
    // Post-recovery promise check: barrier, then an un-flushed tail, then
    // a simulated kill -9 (session leaked, no drop-time drain).
    session.flush_barrier();
    let durable_wm = session.durable_watermark();
    let tail = 256u64;
    feed.drive(&mut session, tail);
    driven += tail;
    let wm_at_kill = session.scope().slot_watermark();
    let loss_promised = session.reported_loss_window();
    let (retries, demotions, prunes, jwf) = snapshot_counters(&session);
    std::mem::forget(session);
    // The leaked writer thread drains anything still queued in microseconds;
    // let it settle so reopening reads a quiescent journal.
    std::thread::sleep(Duration::from_millis(50));
    let reopened = open_session(&dir, cell, Some(&backend), policy);
    let resumed_slot = reopened.scope().slot_watermark();
    drop(reopened);
    let lost = wm_at_kill.saturating_sub(resumed_slot);
    let honoured = match loss_promised {
        Some(window) => resumed_slot >= durable_wm && lost <= window,
        None => false, // a re-promoted session must promise a bounded window
    };
    let sps = timed as f64 / wall;
    let ratio = sps / base_sps;
    let ok = demoted
        && repromoted
        && gauge == DurabilityRung::Durable as u64
        && honoured
        && ratio >= ratio_min();
    let detail = format!(
        "demoted={demoted} repromoted={repromoted} resumed={resumed_slot} \
         kill_wm={wm_at_kill} lost={lost} window={loss_promised:?} ratio={ratio:.3}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    PhaseResult {
        name: "recovery",
        slots: driven,
        slots_per_sec: sps,
        ratio_vs_baseline: ratio,
        retries,
        demotions,
        emergency_prunes: prunes,
        journal_write_failures: jwf,
        final_rung: if repromoted { "durable" } else { "non_durable" },
        ok,
        detail,
    }
}

fn main() {
    let short = std::env::args().any(|a| a == "--short");
    let cell = CellConfig::srsran_n41();
    let slot_s = cell.slot_s();
    let seconds = capture_seconds(if short { 0.6 } else { 3.0 });
    let phase_slots = ((seconds / slot_s).round() as u64).max(600);

    // Warmup (page-in, allocator), then best-of-N interleaved rounds: the
    // baseline is re-measured every round so wall-clock noise hits both
    // sides of each ratio, and each phase keeps its best round. The
    // baseline is itself a clean durable run, so every ratio compares
    // durable-vs-durable.
    baseline_phase(&cell, phase_slots / 4);
    const ROUNDS: usize = 3;
    let mut panics = 0u64;
    let mut base_sps = 0.0f64;
    let mut best: [Option<PhaseResult>; 4] = [None, None, None, None];
    for _ in 0..ROUNDS {
        let base = baseline_phase(&cell, phase_slots);
        base_sps = base_sps.max(base);
        let mut run = |f: &dyn Fn() -> PhaseResult, name: &'static str| -> PhaseResult {
            match catch_unwind(AssertUnwindSafe(f)) {
                Ok(r) => r,
                Err(_) => {
                    panics += 1;
                    PhaseResult {
                        name,
                        slots: 0,
                        slots_per_sec: 0.0,
                        ratio_vs_baseline: 0.0,
                        retries: 0,
                        demotions: 0,
                        emergency_prunes: 0,
                        journal_write_failures: 0,
                        final_rung: "panicked",
                        ok: false,
                        detail: "phase panicked".to_string(),
                    }
                }
            }
        };
        let round = [
            run(
                &|| transient_phase(&cell, phase_slots, base),
                "transient_burst",
            ),
            run(&|| dead_disk_phase(&cell, phase_slots, base), "dead_disk"),
            run(&|| disk_full_phase(&cell, phase_slots, base), "disk_full"),
            run(&|| recovery_phase(&cell, phase_slots, base), "recovery"),
        ];
        for (slot, result) in best.iter_mut().zip(round) {
            let better = match slot {
                None => true,
                Some(prev) => {
                    (result.ok, result.ratio_vs_baseline) > (prev.ok, prev.ratio_vs_baseline)
                }
            };
            if better {
                *slot = Some(result);
            }
        }
    }
    let phases: Vec<PhaseResult> = best.into_iter().map(|p| p.expect("round ran")).collect();

    let all_ok = panics == 0 && phases.iter().all(|p| p.ok);
    let phases_json = phases
        .iter()
        .map(|p| format!("    {}", p.to_json()))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"durafault\",\n",
            "  \"short\": {short},\n",
            "  \"phase_slots\": {phase_slots},\n",
            "  \"noise_floor_pct\": {floor:.1},\n",
            "  \"ratio_min\": {ratio_min:.4},\n",
            "  \"baseline_slots_per_sec\": {base_sps:.1},\n",
            "  \"panics\": {panics},\n",
            "  \"phases\": [\n{phases}\n  ],\n",
            "  \"gate_ok\": {ok}\n",
            "}}\n"
        ),
        short = short,
        phase_slots = phase_slots,
        floor = NOISE_FLOOR_PCT,
        ratio_min = ratio_min(),
        base_sps = base_sps,
        panics = panics,
        phases = phases_json,
        ok = all_ok,
    );
    std::fs::write("BENCH_durafault.json", &json).expect("write BENCH_durafault.json");

    println!("durafault bench ({phase_slots} slots/phase, short={short})");
    println!("  baseline           {base_sps:>10.1} slots/s (durable, clean disk)");
    for p in &phases {
        println!(
            "  {:<16} {:>10.1} slots/s  ratio {:.3}  rung {:<16} {}",
            p.name,
            p.slots_per_sec,
            p.ratio_vs_baseline,
            p.final_rung,
            if p.ok { "ok" } else { "FAIL" }
        );
        println!("    {}", p.detail);
    }
    println!("  panics             {panics:>10}");
    println!("wrote BENCH_durafault.json");
    if !all_ok {
        eprintln!("durafault gate breached: see phase details above");
        std::process::exit(1);
    }
}
