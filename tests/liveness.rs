//! Liveness-supervision integration tests: hang detection, restart-storm
//! circuit breaking, honest durability demotion under a disk that stalls
//! the journal writer, and the tolerant pipe framing.
//!
//! The supervised-child tests re-invoke this very test binary as the
//! child process: [`child_entry`] is an `#[ignore]`d test selected with
//! `--exact --ignored`, so the child runs the real
//! [`supervise::run_child`] loop over real pipes. The libtest banner the
//! harness prints around it is absorbed by the parent's tolerant framing
//! (which is itself part of what is under test).

use nr_scope::gnb::{CellConfig, Gnb};
use nr_scope::mac::RoundRobin;
use nr_scope::phy::channel::ChannelProfile;
use nr_scope::phy::types::Pci;
use nr_scope::scope::observe::{Capture, Observer};
use nr_scope::scope::persist::{
    DurabilityRung, FaultyBackend, PersistConfig, PersistentSession, StorageFaultSchedule,
};
use nr_scope::scope::supervise::{
    self, BreakerState, ChildMsg, Frame, FrameDecoder, RestartBreaker, RestartCause, SlotOutcome,
    Supervisor,
};
use nr_scope::scope::{Metrics, ScopeConfig, SlotHook, StoragePolicy};
use nr_scope::ue::traffic::{TrafficKind, TrafficSource};
use nr_scope::ue::{MobilityScenario, SimUe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CHILD_DIR_ENV: &str = "NRSCOPE_LIVENESS_CHILD_DIR";
const CHILD_PCI_ENV: &str = "NRSCOPE_LIVENESS_CHILD_PCI";
const CHILD_HANG_SLOT_ENV: &str = "NRSCOPE_LIVENESS_CHILD_HANG_SLOT";

/// Scheduling slop allowed on top of the hang deadline: pipe polls, the
/// force-kill, and CI jitter.
const DETECT_SLOP_MS: u64 = 1_500;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("nrscope-liveness-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create session dir");
    d
}

/// Deterministic capture tape: 2 backlogged UEs on the srsRAN cell.
fn capture_tape(slots: u64) -> (Vec<Capture>, Pci) {
    let cell = CellConfig::srsran_n41();
    let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), 17);
    for i in 1..=2u64 {
        gnb.ue_arrives(SimUe::new(
            i,
            ChannelProfile::Awgn,
            MobilityScenario::Static,
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
    let mut obs = Observer::new(&cell, 35.0, false, 9);
    let slot_s = cell.slot_s();
    let caps = (0..slots)
        .map(|s| {
            let out = gnb.step();
            obs.capture(&out, s as f64 * slot_s)
        })
        .collect();
    (caps, cell.pci)
}

/// Tightened deadlines so the hang tests run in about a second. The
/// hang deadline also sizes the respawn Hello budget (10×): it must
/// cover test-binary startup + recovery on a loaded CI machine, or a
/// slow respawn is misread as a failed one.
fn tuned_config() -> ScopeConfig {
    let mut cfg = ScopeConfig::default();
    cfg.supervise.heartbeat_interval_ms = 50;
    cfg.supervise.hang_deadline_ms = 1_000;
    cfg
}

/// A supervisor whose child is this test binary re-running
/// [`child_entry`], with the session directory, PCI and the fed slot its
/// slot loop hangs at (if any) in the environment (the supervisor
/// re-applies them on every warm restart).
fn spawn_supervisor(dir: &Path, cfg: &ScopeConfig, pci: Pci, hang_slot: Option<u64>) -> Supervisor {
    let exe = std::env::current_exe().expect("test binary path");
    let args: Vec<String> = [
        "child_entry",
        "--exact",
        "--ignored",
        "--nocapture",
        "--test-threads=1",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut envs = vec![
        (CHILD_DIR_ENV.to_string(), dir.display().to_string()),
        (CHILD_PCI_ENV.to_string(), pci.0.to_string()),
    ];
    if let Some(slot) = hang_slot {
        envs.push((CHILD_HANG_SLOT_ENV.to_string(), slot.to_string()));
    }
    Supervisor::new(
        &exe,
        &args,
        &envs,
        cfg.supervise,
        Arc::new(Metrics::new(true)),
    )
}

/// Not a test: the supervised child's entry point, re-invoked by
/// [`spawn_supervisor`] with `--exact --ignored`. A plain `cargo test`
/// (no env, no `--ignored`) never runs the pipeline.
#[test]
#[ignore = "child process entry point; re-invoked by the supervision tests"]
fn child_entry() {
    let Ok(dir) = std::env::var(CHILD_DIR_ENV) else {
        return;
    };
    let pci = std::env::var(CHILD_PCI_ENV)
        .ok()
        .and_then(|s| s.parse::<u16>().ok())
        .map(Pci);
    // The slot loop stops dead at the hang slot, far past the deadline:
    // only a force-kill can end it. Keyed on the fed slot, so it cannot
    // re-fire after the restart.
    let hang_slot = std::env::var(CHILD_HANG_SLOT_ENV).ok();
    let hook = hang_slot.and_then(|s| s.parse::<u64>().ok()).map(|at| {
        SlotHook::new(move |slot| {
            if slot == at {
                std::thread::sleep(Duration::from_secs(30));
            }
        })
    });
    // Start the protocol on a fresh line: libtest's banner shares this
    // stdout, and the parent's tolerant framing skips it as noise.
    println!();
    supervise::run_child(PersistConfig::new(dir), pci, hook).expect("child pipeline");
}

/// Tentpole contract: a child whose slot loop stops dead (no acks, no
/// heartbeats) is classified as hung within the hang deadline,
/// force-killed, and warm-restarted at exactly the slot the journal had
/// made durable — the supervisor never blocks indefinitely and loses
/// only the slot the hang was detected on.
#[test]
fn hung_child_is_detected_within_deadline_and_resumes_at_watermark() {
    const SLOTS: u64 = 120;
    const HANG_SLOT: u64 = 40;

    let dir = tmp_dir("hang");
    let cfg = tuned_config();
    std::fs::write(dir.join(supervise::CONFIG_FILE), cfg.to_json()).expect("write config");

    let (caps, pci) = capture_tape(SLOTS);
    let mut sup = spawn_supervisor(&dir, &cfg, pci, Some(HANG_SLOT));
    let hello = sup.start().expect("child starts");
    assert!(!hello.report.resumed, "first start must be a cold start");

    let mut pre_hang_ack = None;
    let mut detect_ms = None;
    let mut acked = 0u64;
    let mut lost = 0u64;
    for (seq, cap) in caps.iter().enumerate() {
        let seq = seq as u64;
        let hangs_before = sup.stats().hangs_detected;
        let fed_at = Instant::now();
        match sup.feed_slot(seq, cap) {
            SlotOutcome::Acked(ack) => {
                assert_eq!(
                    ack.watermark,
                    seq + 1,
                    "child must track the fed slot exactly"
                );
                if seq < HANG_SLOT {
                    pre_hang_ack = Some(ack);
                }
                acked += 1;
            }
            SlotOutcome::Lost(_) => lost += 1,
        }
        if sup.stats().hangs_detected > hangs_before {
            assert_eq!(seq, HANG_SLOT, "hang classified at the scripted slot");
            detect_ms = Some(fed_at.elapsed().as_millis() as u64);
        }
    }

    let stats = sup.stats();
    assert_eq!(stats.hangs_detected, 1, "exactly the scripted hang");
    let detect_ms = detect_ms.expect("hang was classified during the run");
    assert!(
        detect_ms <= cfg.supervise.hang_deadline_ms + DETECT_SLOP_MS,
        "hang detected in {detect_ms} ms, deadline {} ms",
        cfg.supervise.hang_deadline_ms
    );
    // Lost exactly the slot the hang was detected on: the next fed slot
    // respawned (the breaker had a token).
    assert_eq!(lost, 1);
    assert_eq!(acked + lost, SLOTS);
    assert_eq!(stats.slots_lost, lost);

    // The warm restart resumed from the durable watermark: at least what
    // the last ack promised, at most the hang slot (which was never
    // processed).
    let hang_restarts: Vec<_> = sup
        .restart_log()
        .iter()
        .filter(|e| e.cause == RestartCause::Hang)
        .collect();
    assert_eq!(hang_restarts.len(), 1);
    let ev = hang_restarts[0];
    assert!(ev.hello.report.resumed, "restart must recover prior state");
    let resumed = ev.hello.report.resumed_slot;
    let pre = pre_hang_ack.expect("slots acked before the hang");
    assert!(
        resumed >= pre.durable && resumed <= HANG_SLOT,
        "resumed at {resumed}, promised durable {} (hang at {HANG_SLOT})",
        pre.durable
    );

    // A single scripted hang must not trip the breaker.
    assert_eq!(stats.breaker_openings, 0);
    assert_eq!(sup.breaker_state(), BreakerState::Closed);
    assert!(sup.finish().is_some(), "clean shutdown after the soak");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Breaker state machine at the unit level: exhaustion opens it, it
/// stays parked through the backoff, a half-open probe is granted once,
/// a failed probe re-opens, a successful one closes.
#[test]
fn restart_breaker_opens_and_halfopen_probe_recovers() {
    let mut b = RestartBreaker::new(2, 10_000, 100);
    assert_eq!(b.state(), BreakerState::Closed);
    assert!(b.try_acquire(0));
    assert!(b.try_acquire(0));
    // Bucket empty: the denied acquire is the trip.
    assert!(!b.try_acquire(0));
    assert_eq!(b.state(), BreakerState::Open);
    assert_eq!(b.openings(), 1);
    assert!(b.is_open());

    // Parked until the half-open backoff has elapsed.
    assert!(!b.try_acquire(50));
    assert!(b.try_acquire(150), "half-open probe granted after backoff");
    assert_eq!(b.state(), BreakerState::HalfOpen);
    // One probe outstanding: no second restart until its outcome lands.
    assert!(!b.try_acquire(160));

    // Failed probe: straight back to Open for another full backoff.
    b.probe_result(false, 160);
    assert_eq!(b.state(), BreakerState::Open);
    assert_eq!(b.openings(), 2);

    assert!(b.try_acquire(300), "second probe after another backoff");
    b.probe_result(true, 300);
    assert_eq!(b.state(), BreakerState::Closed);
    assert!(!b.is_open());
    // Closing grants one fresh token; the bucket refills from there.
    assert!(b.try_acquire(300));
}

/// End-to-end storm breaking: repeated kills exhaust the restart budget,
/// the supervisor parks lame-duck (slots honestly reported lost, not
/// blocked on), and the half-open probe brings the pipeline back.
#[test]
fn restart_storm_trips_breaker_and_halfopen_probe_restores_service() {
    const SLOTS: u64 = 110;

    let dir = tmp_dir("storm");
    let mut cfg = tuned_config();
    cfg.supervise.restart_budget = 1;
    cfg.supervise.restart_budget_window_slots = 100_000; // no meaningful refill
    cfg.supervise.breaker_halfopen_after_slots = 40;
    std::fs::write(dir.join(supervise::CONFIG_FILE), cfg.to_json()).expect("write config");

    let (caps, pci) = capture_tape(SLOTS);
    let mut sup = spawn_supervisor(&dir, &cfg, pci, None);
    sup.start().expect("child starts");

    let mut lame_duck_slots = 0u64;
    let mut first_lame_duck = None;
    let mut acked_after_probe = 0u64;
    for (seq, cap) in caps.iter().enumerate() {
        let seq = seq as u64;
        // Two kills: the first consumes the whole budget on its restart,
        // the second finds the bucket empty and must open the breaker.
        if seq == 10 || seq == 20 {
            sup.kill_now(seq);
        }
        match sup.feed_slot(seq, cap) {
            SlotOutcome::Lost(nr_scope::scope::supervise::LostCause::LameDuck) => {
                lame_duck_slots += 1;
                first_lame_duck.get_or_insert(seq);
            }
            SlotOutcome::Acked(_) if first_lame_duck.is_some() => acked_after_probe += 1,
            _ => {}
        }
    }

    let stats = sup.stats();
    assert_eq!(
        stats.breaker_openings, 1,
        "storm must open the breaker once"
    );
    let opened_at = first_lame_duck.expect("breaker parked some slots lame-duck");
    assert!(lame_duck_slots > 0);
    // The half-open probe restored service within its scheduled backoff
    // (lame-duck can start a couple of slots after the deciding kill).
    assert!(
        acked_after_probe > 0,
        "no slot acked after the half-open probe window"
    );
    assert!(
        lame_duck_slots <= cfg.supervise.breaker_halfopen_after_slots + 4,
        "parked {lame_duck_slots} slots, half-open after {} (from slot {opened_at})",
        cfg.supervise.breaker_halfopen_after_slots
    );
    assert_eq!(
        sup.breaker_state(),
        BreakerState::Closed,
        "successful probe closes the breaker"
    );
    assert!(sup.finish().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A disk that stalls under the journal writer must not wedge decode:
/// batches back up behind it, the ladder demotes to `NonDurable`, and —
/// the honesty contract — the reported loss window goes unbounded
/// (`None`) instead of keeping a stale promise. After the stall a probe
/// re-promotes and the loss window is bounded again.
#[test]
fn wedged_journal_writer_demotes_durability_honestly() {
    let dir = tmp_dir("writer-wedge");
    let backend = FaultyBackend::new(StorageFaultSchedule::default());
    let mut pcfg = PersistConfig::new(&dir).with_backend(Arc::new(backend.clone()));
    // Small batches and a fast re-probe so the whole ladder round-trip
    // fits in a test: the wedge backs the queue up within ~100 slots.
    pcfg.flush_max_slots = 8;
    pcfg.storage = StoragePolicy {
        reprobe_interval_slots: 64,
    };

    let (caps, pci) = capture_tape(4_000);
    let (mut session, report) =
        PersistentSession::open(pcfg, ScopeConfig::default(), Some(pci)).expect("open session");
    assert!(!report.resumed);

    // Healthy run-up: the ladder starts (and stays) durable.
    let mut seq = 0usize;
    for _ in 0..64 {
        session.process_capture(&caps[seq]);
        seq += 1;
    }
    assert_eq!(session.durability_rung(), DurabilityRung::Durable);
    assert!(session.reported_loss_window().is_some());

    // Drain the run-up's batches first, so the stall meets an empty
    // writer queue.
    assert!(session.flush_barrier());
    backend.stall_writes(Duration::from_millis(250));
    let mut demoted_at = None;
    for _ in 0..2_000 {
        session.process_capture(&caps[seq]);
        seq += 1;
        // Pace the slot clock against the wall-clock wedge so the probe
        // flap backoff doesn't race through its doublings.
        std::thread::sleep(Duration::from_micros(200));
        if session.durability_rung() == DurabilityRung::NonDurable {
            demoted_at = Some(seq);
            break;
        }
    }
    let demoted_at = demoted_at.expect("wedged writer must demote the ladder");
    assert_eq!(
        session.reported_loss_window(),
        None,
        "NonDurable must report an unbounded loss window, not a stale promise"
    );

    // Decode outlives storage: the watermark keeps advancing while the
    // journal is down.
    let wm = session.scope().slot_watermark();
    session.process_capture(&caps[seq]);
    seq += 1;
    assert_eq!(session.scope().slot_watermark(), wm + 1);

    // Let the stall expire, then keep feeding slots: the flap-backoff
    // probe must re-promote and the loss window become bounded again.
    std::thread::sleep(Duration::from_millis(300));
    let mut repromoted = false;
    for _ in 0..20_000 {
        if seq >= caps.len() {
            break;
        }
        session.process_capture(&caps[seq]);
        seq += 1;
        // Paced as above: the probe's answer is the writer thread's real
        // fsync, and the tape must not run out before it comes back
        // however fast a slot decodes.
        std::thread::sleep(Duration::from_micros(200));
        if session.durability_rung() != DurabilityRung::NonDurable {
            repromoted = true;
            break;
        }
    }
    assert!(
        repromoted,
        "probe must re-promote after the wedge (demoted at slot {demoted_at})"
    );
    assert!(session.reported_loss_window().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tolerant framing regression: garbage bytes, frames split across
/// reads, non-protocol JSON, and oversized lines are each counted as
/// typed wire errors and never poison the stream — the next valid frame
/// still decodes.
#[test]
fn frame_decoder_survives_garbage_bytes() {
    let mut d = FrameDecoder::with_max_frame(96);
    let hb = serde_json::to_string(&ChildMsg::Heartbeat {
        slot: 5,
        durable_watermark: 3,
    })
    .expect("serialize heartbeat");

    // 1) A valid frame split mid-line across two pushes.
    let bytes = hb.as_bytes();
    d.push(&bytes[..4]);
    assert!(d.next_frame().is_none(), "no frame before the newline");
    d.push(&bytes[4..]);
    d.push(b"\n");
    match d.next_frame() {
        Some(Frame::Msg(m)) => {
            assert!(matches!(*m, ChildMsg::Heartbeat { slot: 5, .. }))
        }
        other => panic!("expected the split heartbeat, got {other:?}"),
    }
    assert_eq!(d.errors(), 0);

    // 2) Raw binary garbage, then 3) valid JSON that is not a protocol
    // message (libtest banners, stray prints).
    d.push(b"\x00\xff\x7fnot a frame\n");
    d.push(b"{\"running\": 1}\n");
    assert!(matches!(d.next_frame(), Some(Frame::Err(_))));
    assert!(matches!(d.next_frame(), Some(Frame::Err(_))));
    assert_eq!(d.errors(), 2);

    // 4) An oversized line: discarded (not buffered unboundedly), and the
    // frame after it still decodes.
    let huge = vec![b'a'; 300];
    d.push(&huge);
    d.push(b"\n");
    let done = serde_json::to_string(&ChildMsg::Done { final_slot: 11 }).expect("serialize done");
    d.push(done.as_bytes());
    d.push(b"\n");
    assert!(matches!(d.next_frame(), Some(Frame::Err(_))));
    match d.next_frame() {
        Some(Frame::Msg(m)) => assert!(matches!(*m, ChildMsg::Done { final_slot: 11 })),
        other => panic!("expected Done after the oversized line, got {other:?}"),
    }
    assert_eq!(d.errors(), 3);

    // 5) EOF with a dangling partial line is a final, counted error.
    d.push(b"{\"trunc");
    assert!(d.finish().is_some());
    assert_eq!(d.errors(), 4);
}
