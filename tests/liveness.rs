//! Liveness-supervision integration tests: hang detection, restart-storm
//! circuit breaking, honest durability demotion under a disk that stalls
//! the journal writer, and the child's line protocol.
//!
//! The child-process tests re-invoke this very test binary as the child,
//! through `nrscope_bench::child::Harness`: [`child_entry`] is an
//! `#[ignore]`d test selected with `--exact --ignored`, so the child runs
//! the real [`child::serve`] loop over real pipes. The libtest banner the
//! harness prints around it is skipped by the parent's line reader (which
//! is itself part of what is under test).

use nr_scope::gnb::{CellConfig, Gnb};
use nr_scope::mac::RoundRobin;
use nr_scope::phy::channel::ChannelProfile;
use nr_scope::phy::types::Pci;
use nr_scope::scope::config::SuperviseConfig;
use nr_scope::scope::observe::{Capture, Observer};
use nr_scope::scope::persist::{
    DurabilityRung, FaultyBackend, PersistConfig, PersistentSession, SessionStore,
    StorageFaultSchedule,
};
use nr_scope::scope::restart::{Action, BreakerState, RestartBreaker, RestartCause};
use nr_scope::scope::{ScopeConfig, SlotHook, StoragePolicy, SyncState};
use nr_scope::ue::traffic::{TrafficKind, TrafficSource};
use nr_scope::ue::{MobilityScenario, SimUe};
use nrscope_bench::child::{self, air_digest, Ack, Harness, Hello, Line, SlotOutcome};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CHILD_DIR_ENV: &str = "NRSCOPE_LIVENESS_CHILD_DIR";
const CHILD_HANG_SLOT_ENV: &str = "NRSCOPE_LIVENESS_CHILD_HANG_SLOT";

/// Slots of the child's air: every child-process test feeds a prefix.
const TAPE_SLOTS: u64 = 120;

/// The hang deadline of the child-process tests. Ten of it are the
/// respawn's `Hello` budget: it must cover test-binary startup and
/// recovery on a loaded CI machine, or a slow respawn is misread as a
/// failed one.
const HANG_DEADLINE: Duration = Duration::from_millis(1_000);

/// Scheduling slop allowed on top of the hang deadline: the SIGKILL and
/// CI jitter.
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

/// A harness whose child is this test binary re-running [`child_entry`],
/// with the session directory and the fed slot its slot loop hangs at (if
/// any) in the environment (every respawn gets them again). `-q` keeps
/// libtest from printing the test's name ahead of the child's first line.
fn harness(dir: &Path, breaker: &SuperviseConfig, hang_slot: Option<u64>) -> Harness {
    let exe = std::env::current_exe().expect("test binary path");
    let dir = dir.to_path_buf();
    let command = move |_from| {
        let mut cmd = Command::new(&exe);
        cmd.args(["child_entry", "--exact", "--ignored", "--nocapture", "-q"]);
        cmd.env(CHILD_DIR_ENV, &dir);
        if let Some(slot) = hang_slot {
            cmd.env(CHILD_HANG_SLOT_ENV, slot.to_string());
        }
        cmd
    };
    Harness::new(command, HANG_DEADLINE, breaker)
}

/// Not a test: the child process's entry point, re-invoked by
/// [`harness`] with `--exact --ignored`. A plain `cargo test` (no env, no
/// `--ignored`) never runs the pipeline. Its air is the tape, which it
/// indexes, so it needs no catching up.
#[test]
#[ignore = "child process entry point; re-invoked by the supervision tests"]
fn child_entry() {
    let Ok(dir) = std::env::var(CHILD_DIR_ENV) else {
        return;
    };
    // The slot loop stops dead at the hang slot, far past the deadline:
    // only a SIGKILL can end it. Keyed on the fed slot, so it cannot
    // re-fire after the restart.
    let hang_slot = std::env::var(CHILD_HANG_SLOT_ENV).ok();
    let hook = hang_slot.and_then(|s| s.parse::<u64>().ok()).map(|at| {
        SlotHook::new(move |slot| {
            if slot == at {
                std::thread::sleep(Duration::from_secs(30));
            }
        })
    });
    let (caps, pci) = capture_tape(TAPE_SLOTS);
    let air = |seq: u64| caps[seq as usize].clone();
    child::serve(PersistConfig::new(dir), Some(pci), 0, air, hook).expect("child pipeline");
}

/// Tentpole contract: a child whose slot loop stops dead (no acks) is
/// classified as hung within the hang deadline, SIGKILLed, and
/// warm-restarted at exactly the slot the journal had made durable — the
/// harness never blocks indefinitely and loses only the slot the hang was
/// detected on. Every ack is of the capture the parent has for its slot.
#[test]
fn hung_child_is_detected_within_deadline_and_resumes_at_watermark() {
    const SLOTS: u64 = 120;
    const HANG_SLOT: u64 = 40;

    let dir = tmp_dir("hang");
    let (caps, _) = capture_tape(SLOTS);
    let mut sup = harness(&dir, &SuperviseConfig::default(), Some(HANG_SLOT));
    let hello = sup.start().expect("child starts");
    assert!(!hello.report.resumed, "first start must be a cold start");

    let mut pre_hang_ack = None;
    let mut detect_ms = None;
    let mut acked = 0u64;
    let mut lost = 0u64;
    for (seq, cap) in caps.iter().enumerate() {
        let seq = seq as u64;
        let hangs_before = sup.breaker().hangs();
        let fed_at = Instant::now();
        match sup.feed(seq) {
            SlotOutcome::Acked(ack) => {
                assert_eq!(
                    ack.watermark,
                    seq + 1,
                    "child must track the fed slot exactly"
                );
                assert_eq!(ack.air, air_digest(cap), "slot {seq}: another air");
                if seq < HANG_SLOT {
                    pre_hang_ack = Some(ack);
                }
                acked += 1;
            }
            SlotOutcome::ChildDown | SlotOutcome::LameDuck => lost += 1,
        }
        if sup.breaker().hangs() > hangs_before {
            assert_eq!(seq, HANG_SLOT, "hang classified at the scripted slot");
            detect_ms = Some(fed_at.elapsed().as_millis() as u64);
        }
    }

    assert_eq!(sup.breaker().hangs(), 1, "exactly the scripted hang");
    let detect_ms = detect_ms.expect("hang was classified during the run");
    let deadline_ms = HANG_DEADLINE.as_millis() as u64;
    assert!(
        detect_ms <= deadline_ms + DETECT_SLOP_MS,
        "hang detected in {detect_ms} ms, deadline {deadline_ms} ms"
    );
    // Lost exactly the slot the hang was detected on: the next fed slot
    // respawned (the breaker had a token).
    assert_eq!(lost, 1);
    assert_eq!(acked + lost, SLOTS);
    assert_eq!(sup.slots_lost(), lost);

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
    assert_eq!(sup.breaker().openings(), 0);
    assert_eq!(sup.breaker().state(), BreakerState::Closed);
    assert!(sup.finish(), "clean shutdown after the soak");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stdout line that is no message — a libtest banner, binary garbage, a
/// torn message — is skipped, and the `Hello` and the ack behind it still
/// arrive. The child is a shell that writes them around the noise.
#[test]
fn a_stdout_line_that_is_no_message_is_skipped() {
    let dir = tmp_dir("lines");
    let (_, report) = SessionStore::new(dir.join("session"))
        .expect("store")
        .recover(ScopeConfig::default(), None);
    let hello = Line::Hello(Hello {
        tracked: Vec::new(),
        report,
    });
    let ack = Line::Ack(Ack {
        seq: 0,
        watermark: 1,
        sync: SyncState::Synced,
        produced: 0,
        tracked: Vec::new(),
        durable: 0,
        durability_rung: 0,
        loss_window: Some(1_280),
        si_dcis: 0,
        air: 7,
    });
    let lines = |noise: &[u8], msg: &Line| {
        let mut out = noise.to_vec();
        out.extend(serde_json::to_string(msg).expect("json").into_bytes());
        out.push(b'\n');
        out
    };
    let hello_file = dir.join("hello.txt");
    let noise = b"\nrunning 1 test\n\xff\xfe{not json\n{\"Hello\":{\"tracked\":[]\n";
    std::fs::write(&hello_file, lines(noise, &hello)).expect("write hello");
    let ack_file = dir.join("ack.txt");
    let noise = b"test child_entry ... ok\n\x00\x01\x7f\n{\"Ack\":{}}\n";
    std::fs::write(&ack_file, lines(noise, &ack)).expect("write ack");
    let script = format!(
        "cat '{}'; read slot; cat '{}'; cat > /dev/null",
        hello_file.display(),
        ack_file.display()
    );
    let command = move |_| {
        let mut cmd = Command::new("/bin/sh");
        cmd.args(["-c", &script]);
        cmd
    };
    let mut sup = Harness::new(command, HANG_DEADLINE, &SuperviseConfig::default());
    let hello = sup.start().expect("the Hello behind the noise");
    assert!(hello.tracked.is_empty() && !hello.report.resumed);
    match sup.feed(0) {
        SlotOutcome::Acked(ack) => assert_eq!((ack.seq, ack.air), (0, 7)),
        other => panic!("the ack behind the noise, not {other:?}"),
    }
    assert!(sup.finish(), "the shell exits at EOF");
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

/// One restart-machine event, as the enumeration feeds them.
#[derive(Debug, Clone, Copy)]
enum Event {
    Down(RestartCause),
    Next,
    Rebuilt(bool),
}

const EVENTS: [Event; 5] = [
    Event::Down(RestartCause::Crash),
    Event::Down(RestartCause::Hang),
    Event::Next,
    Event::Rebuilt(true),
    Event::Rebuilt(false),
];

/// The enumerated machine's budget.
const TOKENS: u64 = 2;

/// What the enumeration has fed a machine so far.
#[derive(Debug, Clone, Copy, Default)]
struct Fed {
    crashes: u64,
    hangs: u64,
    grants: u64,
    closings: u64,
    /// A granted rebuild has not reported back.
    outstanding: bool,
    /// Slot of the latest opening.
    opened_at: u64,
}

/// Feed `m` every continuation of up to `depth` more events, 2 slots
/// apart, checking the machine's promises after each.
fn walk(m: &RestartBreaker, fed: Fed, at: u64, depth: u32, seen: &mut u64) {
    if depth == 0 {
        return;
    }
    for ev in EVENTS {
        let (mut m, mut fed) = (m.clone(), fed);
        let now = 2 * at;
        let (pending, openings) = (m.pending(), m.openings());
        let (was_open, probing) = (
            m.state() == BreakerState::Open,
            m.state() == BreakerState::HalfOpen,
        );
        match ev {
            Event::Down(cause) => {
                m.went_down(cause);
                match cause {
                    RestartCause::Hang => fed.hangs += 1,
                    _ => fed.crashes += 1,
                }
            }
            Event::Next => match m.next(now) {
                Action::Rebuild => {
                    assert!(pending && !fed.outstanding, "{fed:?} {m:?}");
                    assert!(!was_open || now >= fed.opened_at + 3, "early probe: {m:?}");
                    fed.grants += 1;
                    fed.outstanding = true;
                }
                Action::Park => assert!(m.is_open(), "parked while closed: {m:?}"),
                Action::Nothing => assert!(fed.outstanding || !pending, "{fed:?} {m:?}"),
            },
            Event::Rebuilt(ok) => {
                m.rebuilt(ok, now);
                fed.outstanding = false;
                fed.closings += u64::from(probing && m.state() == BreakerState::Closed);
            }
        }
        if m.openings() > openings {
            fed.opened_at = now;
        }
        // Each opening buys one probe, and a probe that closes the breaker
        // hands back one fresh token.
        let budget = TOKENS + m.openings() + fed.closings;
        assert!(fed.grants <= budget, "{fed:?} {m:?}");
        assert_eq!((m.crashes(), m.hangs()), (fed.crashes, fed.hangs));
        assert!(m.restarts() <= fed.grants + fed.crashes + fed.hangs);
        *seen += 1;
        walk(&m, fed, at + 1, depth - 1, seen);
    }
}

/// The restart machine, exhaustively: every sequence of up to 7 events on
/// a 2-token machine whose probe comes 3 slots after opening, from a unit
/// that is up (a fleet shard's) and from one not yet started (a
/// supervisor's). A rebuild is granted only while one is owed and none is
/// outstanding, and a probe no sooner than 3 slots after the opening;
/// grants stay within the budget, it parks only behind an open breaker,
/// and its counts are the deaths fed.
#[test]
fn every_sequence_of_seven_restart_events_keeps_the_machines_promises() {
    let started = Instant::now();
    let mut seen = 0;
    let mut unstarted = RestartBreaker::new(TOKENS as u32, u64::MAX, 3);
    unstarted.went_down(RestartCause::Initial);
    for m in [RestartBreaker::new(TOKENS as u32, u64::MAX, 3), unstarted] {
        walk(&m, Fed::default(), 0, 7, &mut seen);
    }
    assert_eq!(seen, 2 * (5 + 25 + 125 + 625 + 3125 + 15625 + 78125));
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "{took:?}");
}

/// The step past the 7-event enumeration: once a half-open probe closes
/// the breaker, exactly one rebuild is granted before deaths open it
/// again — the probe hands back one fresh token, not the whole budget.
#[test]
fn a_closing_probe_refunds_exactly_one_rebuild() {
    let mut m = RestartBreaker::new(2, u64::MAX, 3);
    let mut now = 0;
    // Exhaustion: two rebuilds spend the bucket, the third death opens it.
    for _ in 0..2 {
        m.went_down(RestartCause::Crash);
        assert_eq!(m.next(now), Action::Rebuild);
        m.rebuilt(true, now);
        now += 1;
    }
    m.went_down(RestartCause::Crash);
    assert_eq!(m.next(now), Action::Park);
    assert_eq!((m.state(), m.openings()), (BreakerState::Open, 1));
    // The half-open probe, 3 slots after the opening, succeeds.
    now += 3;
    assert_eq!(m.next(now), Action::Rebuild);
    assert_eq!(m.state(), BreakerState::HalfOpen);
    m.rebuilt(true, now);
    assert_eq!(m.state(), BreakerState::Closed);
    // Deaths until it parks again.
    let mut grants = 0;
    loop {
        now += 1;
        m.went_down(RestartCause::Crash);
        match m.next(now) {
            Action::Rebuild => {
                grants += 1;
                m.rebuilt(true, now);
            }
            Action::Park => break,
            Action::Nothing => panic!("a death with nothing outstanding owes an action"),
        }
        assert!(grants <= 2, "the closed breaker kept granting");
    }
    assert_eq!(
        grants, 1,
        "one rebuild between the close and the re-opening"
    );
    assert_eq!((m.state(), m.openings()), (BreakerState::Open, 2));
}

/// End-to-end storm breaking: repeated kills exhaust the restart budget,
/// the harness parks lame-duck (slots honestly reported lost, not
/// blocked on), and the half-open probe brings the pipeline back.
#[test]
fn restart_storm_trips_breaker_and_halfopen_probe_restores_service() {
    const SLOTS: u64 = 110;

    let dir = tmp_dir("storm");
    let breaker = SuperviseConfig {
        restart_budget: 1,
        restart_budget_window_slots: 100_000, // no meaningful refill
        breaker_halfopen_after_slots: 40,
    };
    let mut sup = harness(&dir, &breaker, None);
    sup.start().expect("child starts");

    let mut lame_duck_slots = 0u64;
    let mut first_lame_duck = None;
    let mut acked_after_probe = 0u64;
    for seq in 0..SLOTS {
        // Two kills: the first consumes the whole budget on its restart,
        // the second finds the bucket empty and must open the breaker.
        if seq == 10 || seq == 20 {
            sup.kill_now();
        }
        match sup.feed(seq) {
            SlotOutcome::LameDuck => {
                lame_duck_slots += 1;
                first_lame_duck.get_or_insert(seq);
            }
            SlotOutcome::Acked(_) if first_lame_duck.is_some() => acked_after_probe += 1,
            _ => {}
        }
    }

    assert_eq!(
        sup.breaker().openings(),
        1,
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
        lame_duck_slots <= breaker.breaker_halfopen_after_slots + 4,
        "parked {lame_duck_slots} slots, half-open after {} (from slot {opened_at})",
        breaker.breaker_halfopen_after_slots
    );
    assert_eq!(
        sup.breaker().state(),
        BreakerState::Closed,
        "successful probe closes the breaker"
    );
    assert!(sup.finish());
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
