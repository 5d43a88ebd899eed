//! Supervised warm restart under `kill -9`: the crash-safety soak.
//!
//! ```text
//! cargo run --release --example supervised_capture
//! ```
//!
//! The parent owns the simulated gNB and radio front end and feeds
//! captures to a child pipeline process over the [`supervise`] pipe
//! protocol; the child journals every slot through a
//! [`PersistentSession`]'s group-commit batches. Twice during the run
//! the parent SIGKILLs the child mid-soak — no flush, no goodbye —
//! keeps the air interface moving for 40 slots of dead time, then
//! respawns it and checks the warm restart: every known UE retained,
//! the watermark resumed inside the configured group-commit loss window
//! (never past the kill, never below the durable watermark the child
//! last acknowledged), re-sync within a bounded number of slots, and
//! per-UE byte estimates that match gNB ground truth over the observed
//! slots without ever double-counting a replayed byte.
//!
//! Results land in `RECOVERY_report.json`; any violated invariant is
//! listed there and fails the run (exit 1), which is how CI consumes it.

use nr_scope::gnb::{CellConfig, Gnb};
use nr_scope::mac::RoundRobin;
use nr_scope::phy::channel::ChannelProfile;
use nr_scope::phy::types::{Pci, Rnti};
use nr_scope::scope::chaos::ranges_of;
use nr_scope::scope::observe::{Capture, Observer};
use nr_scope::scope::persist::PersistConfig;
use nr_scope::scope::supervise::{self, Hello, RestartCause, SlotOutcome, Supervisor};
use nr_scope::scope::{ImpairmentSchedule, Metrics, ScopeConfig, SyncState};
use nr_scope::ue::traffic::{TrafficKind, TrafficSource};
use nr_scope::ue::{MobilityScenario, SimUe};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const TOTAL_SLOTS: u64 = 12_000;
const KILLS: [u64; 2] = [4_700, 9_300];
/// Dead time between SIGKILL and respawn: the air interface keeps moving.
const DEAD_SLOTS: u64 = 40;
/// A warm restart must be back in `Synced` within this many slots.
const RESYNC_BOUND: u64 = 800;

#[derive(Serialize)]
struct KillReport {
    kill_at: u64,
    respawn_at: u64,
    resumed_slot: u64,
    /// Durable watermark from the last ack before the kill: slots below
    /// it were already handed to the OS and must survive.
    durable_at_kill: u64,
    /// Acknowledged-but-not-durable slots the SIGKILL cost (bounded by
    /// the group-commit loss window).
    lost_slots: u64,
    snapshot_slot: Option<u64>,
    replayed_entries: u64,
    corrupt_checkpoints_skipped: u64,
    journal_entries_discarded: u64,
    tracked_before: Vec<Rnti>,
    tracked_after: Vec<Rnti>,
    resynced_after_slots: Option<u64>,
}

#[derive(Serialize)]
struct UeParity {
    rnti: Rnti,
    truth_bits_total: u64,
    truth_bits_observed: u64,
    est_bits_observed: u64,
    ratio_observed: f64,
}

#[derive(Serialize)]
struct SoakReport {
    schema_version: u32,
    slots: u64,
    kills: Vec<KillReport>,
    total_discovered: u64,
    final_sync_synced: bool,
    observed_ranges: Vec<(u64, u64)>,
    per_ue: Vec<UeParity>,
    violations: Vec<String>,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() >= 4 && args[1] == "--child" {
        // Child mode: recover from the session directory and serve slots.
        let pci: u16 = args[3].parse().expect("child PCI argument");
        supervise::run_child(Path::new(&args[2]), Some(Pci(pci))).expect("child pipeline");
        return;
    }
    run_parent();
}

fn session_dir() -> PathBuf {
    std::env::var_os("NRSCOPE_SESSION_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("nrscope-supervised-{}", std::process::id()))
        })
}

fn run_parent() {
    let cell = CellConfig::srsran_n41();
    let dir = session_dir();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create session dir");
    // The child loads its config from the session directory, exercising
    // the versioned ScopeConfig round trip on every (re)start. The restart
    // backoff is the dead time: the supervisor respawns on the first slot
    // fed `DEAD_SLOTS` after a kill.
    let mut scope_cfg = ScopeConfig::default();
    scope_cfg.supervise.restart_backoff_slots = DEAD_SLOTS;
    std::fs::write(dir.join(supervise::CONFIG_FILE), scope_cfg.to_json())
        .expect("write scope config");
    println!(
        "cell {} PCI {} — session dir {}",
        cell.name,
        cell.pci.0,
        dir.display()
    );

    let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), 42);
    for i in 1..=3u64 {
        gnb.ue_arrives(SimUe::new(
            i,
            ChannelProfile::Awgn,
            MobilityScenario::Static,
            // Permanent backlog: every slot carries data, so byte parity
            // between scope estimate and gNB truth is tight.
            TrafficSource::new(
                TrafficKind::FileDownload {
                    total_bytes: 1 << 30,
                },
                i,
            ),
            0.05 * i as f64,
            600.0,
            i,
        ));
    }

    let mut obs = Observer::new(&cell, 35.0, false, 5);
    // Deterministic impairments only — the parent must know exactly which
    // slots went unobserved to account bytes against ground truth.
    obs.set_impairments(
        ImpairmentSchedule::new(7)
            .with_stall(3_000, 30)
            .with_outage(7_000..7_100),
    );
    let slot_s = cell.slot_s();

    let mut violations: Vec<String> = Vec::new();
    let mut kill_reports: Vec<KillReport> = Vec::new();
    // Slots over which byte parity is claimable: fed to a live child,
    // decodable (not front-end-dropped), and processed while synced.
    let mut observed = vec![false; TOTAL_SLOTS as usize];
    let mut synced_at = vec![false; TOTAL_SLOTS as usize];

    // The child opens its session with `PersistConfig::new(dir)`, so the
    // parent can state the exact loss window a SIGKILL is allowed to cost.
    let loss_window = PersistConfig::new(&dir).loss_window_slots();

    let exe = std::env::current_exe().expect("current exe path");
    let args = vec![
        "--child".to_string(),
        dir.display().to_string(),
        cell.pci.0.to_string(),
    ];
    let mut sup = Supervisor::new(
        &exe,
        &args,
        &[],
        scope_cfg.supervise,
        Arc::new(Metrics::new(true)),
    );
    let hello = sup.start().expect("spawn pipeline child");
    if hello.report.resumed {
        violations.push("first start claimed to resume prior state".into());
    }
    let mut restarts_seen = sup.restart_log().len();
    let mut pre_kill_tracked: Vec<Rnti> = Vec::new();
    let mut last_durable = 0u64;
    let mut durable_at_kill = 0u64;
    let mut kill_at = 0u64;

    for seq in 0..TOTAL_SLOTS {
        if KILLS.contains(&seq) {
            println!("slot {seq:5}: >>> SIGKILL child <<<");
            sup.kill_now(seq);
            durable_at_kill = last_durable;
            kill_at = seq;
        }
        let out = gnb.step();
        let cap = obs.capture(&out, seq as f64 * slot_s);
        let outcome = sup.feed_slot(seq, &cap);

        // A respawn happened on this slot: check the warm restart.
        for ev in &sup.restart_log()[restarts_seen..] {
            let resumed = ev.hello.report.resumed_slot;
            println!(
                "slot {seq:5}: child respawned — resumed at {} ({} acked slots lost, window {}, snapshot {:?}, {} replayed), {} UEs",
                resumed,
                kill_at.saturating_sub(resumed),
                loss_window,
                ev.hello.report.snapshot_slot,
                ev.hello.report.replayed_entries,
                ev.hello.tracked.len()
            );
            if ev.cause != RestartCause::Killed || ev.at_seq != kill_at + DEAD_SLOTS {
                violations.push(format!(
                    "slot {seq}: unscripted restart (cause {}, want a respawn {DEAD_SLOTS} slots after the kill at {kill_at})",
                    ev.cause.name()
                ));
            }
            check_recovery(
                &ev.hello,
                kill_at,
                durable_at_kill,
                loss_window,
                &pre_kill_tracked,
                &mut violations,
            );
            // Slots in the lost tail were acknowledged by the dead child
            // but never became durable: the restarted child has no memory
            // of them, so they are not claimable for byte parity.
            for s in resumed..kill_at {
                observed[s as usize] = false;
            }
            kill_reports.push(KillReport {
                kill_at,
                respawn_at: seq,
                resumed_slot: resumed,
                durable_at_kill,
                lost_slots: kill_at.saturating_sub(resumed),
                snapshot_slot: ev.hello.report.snapshot_slot,
                replayed_entries: ev.hello.report.replayed_entries,
                corrupt_checkpoints_skipped: ev.hello.report.corrupt_checkpoints_skipped,
                journal_entries_discarded: ev.hello.report.journal_entries_discarded,
                tracked_before: pre_kill_tracked.clone(),
                tracked_after: ev.hello.tracked.clone(),
                resynced_after_slots: None,
            });
        }
        restarts_seen = sup.restart_log().len();

        let ack = match outcome {
            SlotOutcome::Acked(ack) => ack,
            SlotOutcome::Lost(cause) => {
                // Dead time: the cell kept transmitting, nobody was
                // listening. Anywhere else a lost slot is a crash or hang
                // nobody scripted.
                if !KILLS.iter().any(|&k| (k..k + DEAD_SLOTS).contains(&seq)) {
                    violations.push(format!("slot {seq}: lost outside dead time ({cause:?})"));
                }
                continue;
            }
        };
        if ack.seq != seq {
            violations.push(format!(
                "slot {seq}: acked as {} (lockstep broken)",
                ack.seq
            ));
        }
        // On a healthy disk the child must stay on the top durability
        // rung and keep promising the bounded group-commit loss window —
        // an unbounded (`None`) promise here would mean it silently
        // stopped journalling.
        if ack.durability_rung != 0 {
            violations.push(format!(
                "slot {seq}: child reported durability rung {} on a healthy disk",
                ack.durability_rung
            ));
        }
        if ack.loss_window != Some(loss_window) {
            violations.push(format!(
                "slot {seq}: child promised loss window {:?}, expected Some({loss_window})",
                ack.loss_window
            ));
        }
        last_durable = ack.durable;
        let synced = ack.sync == SyncState::Synced;
        synced_at[seq as usize] = synced;
        observed[seq as usize] = synced && !matches!(cap, Capture::Dropped(_));
        pre_kill_tracked = ack.tracked;
    }
    if kill_reports.len() != KILLS.len() {
        violations.push(format!(
            "{} warm restarts for {} kills",
            kill_reports.len(),
            KILLS.len()
        ));
    }

    // Fill in how long each warm restart took to get back to Synced.
    for kr in &mut kill_reports {
        kr.resynced_after_slots = synced_at[kr.respawn_at as usize..]
            .iter()
            .position(|&s| s)
            .map(|p| p as u64);
        match kr.resynced_after_slots {
            Some(d) if d <= RESYNC_BOUND => {}
            got => violations.push(format!(
                "kill at {}: re-sync took {:?} slots (bound {RESYNC_BOUND})",
                kr.kill_at, got
            )),
        }
    }
    let final_sync_synced = synced_at[TOTAL_SLOTS as usize - 1];
    if !final_sync_synced {
        violations.push("run did not end in Synced".into());
    }

    // Byte parity audit over the observed ranges.
    let observed_ranges = ranges_of(&observed);
    let reply = sup
        .request_report(observed_ranges.clone())
        .expect("child answers the report request");
    if reply.total_discovered != 3 {
        violations.push(format!(
            "total_discovered = {} after 2 kills (want 3: no re-discovery double counts)",
            reply.total_discovered
        ));
    }

    let mut per_ue = Vec::new();
    for rnti in gnb.connected_rntis() {
        let ue = gnb.ue(rnti).expect("connected UE");
        let truth_total = ue.delivered_bytes_in(0..TOTAL_SLOTS) as u64 * 8;
        let truth_observed: u64 = observed_ranges
            .iter()
            .map(|&(a, b)| ue.delivered_bytes_in(a..b) as u64 * 8)
            .sum();
        let est_observed: u64 = reply
            .per_ue
            .iter()
            .find(|(r, _)| *r == rnti)
            .map(|(_, bits)| bits.iter().sum())
            .unwrap_or(0);
        let ratio = est_observed as f64 / truth_observed.max(1) as f64;
        println!(
            "UE {rnti}: truth {:.1} Mbit ({:.1} observed), estimate {:.1} Mbit — ratio {ratio:.4}",
            truth_total as f64 / 1e6,
            truth_observed as f64 / 1e6,
            est_observed as f64 / 1e6,
        );
        if !(0.88..=1.02).contains(&ratio) {
            violations.push(format!(
                "UE {rnti}: estimate/truth ratio {ratio:.4} outside [0.88, 1.02] \
                 (upper bound catches double-counted replay bytes)"
            ));
        }
        if est_observed > truth_total + truth_total / 100 {
            violations.push(format!(
                "UE {rnti}: estimate exceeds total ground truth — bytes double-counted"
            ));
        }
        per_ue.push(UeParity {
            rnti,
            truth_bits_total: truth_total,
            truth_bits_observed: truth_observed,
            est_bits_observed: est_observed,
            ratio_observed: ratio,
        });
    }

    // Deadline-bounded: a child that wedges on its way out is killed
    // rather than deadlocking the soak, and that is not a clean finish.
    match sup.finish() {
        Some(final_slot) => println!("child finished at slot {final_slot}"),
        None => violations.push("clean shutdown failed or needed SIGKILL escalation".into()),
    }

    let report = SoakReport {
        schema_version: 1,
        slots: TOTAL_SLOTS,
        kills: kill_reports,
        total_discovered: reply.total_discovered,
        final_sync_synced,
        observed_ranges,
        per_ue,
        violations: violations.clone(),
    };
    let json = serde_json::to_string(&report).expect("serialise soak report");
    std::fs::write("RECOVERY_report.json", &json).expect("write RECOVERY_report.json");
    let _ = std::fs::remove_dir_all(&dir);

    if violations.is_empty() {
        println!(
            "\nall warm-restart invariants held across {} SIGKILLs",
            KILLS.len()
        );
    } else {
        println!("\nVIOLATIONS:");
        for v in &violations {
            println!("  - {v}");
        }
        std::process::exit(1);
    }
}

fn check_recovery(
    hello: &Hello,
    kill_at: u64,
    durable_at_kill: u64,
    loss_window: u64,
    pre_kill: &[Rnti],
    violations: &mut Vec<String>,
) {
    if !hello.report.resumed {
        violations.push(format!(
            "kill at {kill_at}: restart did not resume prior state"
        ));
    }
    // Group commit trades per-slot flushes for a bounded loss window:
    // SIGKILL may cost the unflushed tail, but never more than the
    // window, never a slot the child reported durable, and never a slot
    // the child had not yet processed.
    let resumed = hello.report.resumed_slot;
    if resumed > kill_at {
        violations.push(format!(
            "kill at {kill_at}: resumed at {resumed} — ahead of the kill (slots invented)"
        ));
    }
    if kill_at.saturating_sub(resumed) > loss_window {
        violations.push(format!(
            "kill at {kill_at}: resumed at {resumed} — lost {} slots, more than the \
             {loss_window}-slot group-commit loss window",
            kill_at - resumed
        ));
    }
    if resumed < durable_at_kill {
        violations.push(format!(
            "kill at {kill_at}: resumed at {resumed} — below the durable watermark \
             {durable_at_kill} the child acknowledged before dying"
        ));
    }
    if hello.report.snapshot_slot.is_none() {
        violations.push(format!("kill at {kill_at}: no checkpoint was restored"));
    }
    let mut before = pre_kill.to_vec();
    let mut after = hello.tracked.clone();
    before.sort_unstable();
    after.sort_unstable();
    if before != after {
        violations.push(format!(
            "kill at {kill_at}: tracked set changed across restart ({before:?} -> {after:?})"
        ));
    }
}
