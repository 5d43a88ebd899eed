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
use nr_scope::phy::types::{Pci, Rnti};
use nr_scope::scope::binfmt::{self, FrameKind};
use nr_scope::scope::observe::{Capture, ObservedSlot, Observer};
use nr_scope::scope::persist::{
    DurabilityRung, FaultyBackend, PersistConfig, PersistentSession, SessionStore,
    StorageFaultSchedule,
};
use nr_scope::scope::supervise::{
    self, Ack, BreakerState, ChildMsg, FrameDecoder, Hello, ReportReply, RestartBreaker,
    RestartCause, SlotOutcome, Supervisor, WireError, WireMsg, MAX_FRAME_BYTES,
};
use nr_scope::scope::{Metrics, ScopeConfig, SlotHook, StoragePolicy, SyncState};
use nr_scope::ue::traffic::{TrafficKind, TrafficSource};
use nr_scope::ue::{MobilityScenario, SimUe};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Read;
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

/// `msg` sealed as one pipe frame.
fn pipe_frame(msg: &impl serde::Serialize) -> Vec<u8> {
    let mut frame = Vec::new();
    binfmt::seal(FrameKind::Pipe, &mut frame, |b| binfmt::put_value(b, msg));
    frame
}

/// An in-memory pipe end: `.0` served in seeded reads of 1 to `.1` bytes.
struct Pipe<'a>(&'a [u8], usize, StdRng);

impl Read for Pipe<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = self.2.gen_range(1..self.1 + 1).min(out.len());
        self.0.read(&mut out[..n])
    }
}

/// Every message a [`FrameDecoder`] reads out of `pipe`, and every fault
/// it met on the way.
fn decode_pipe<T: serde::Deserialize>(mut pipe: Pipe) -> (Vec<T>, Vec<WireError>) {
    let (mut frames, mut msgs, mut faults) = (FrameDecoder::default(), Vec::new(), Vec::new());
    while let Ok(Some(msg)) = frames.read_from(&mut pipe, |e| faults.push(e)) {
        msgs.push(msg);
    }
    (msgs, faults)
}

/// Tolerant framing regression: a frame split across reads, text noise (a
/// libtest banner) and binary garbage between frames, a frame whose length
/// is over the bound, a CRC-valid frame that is no message, a damaged
/// frame and a torn final frame are each skipped — the text silently, the
/// rest as one typed wire error each, however many frame-start bytes
/// (0xFE) they hold — and every intact frame still decodes, in order.
#[test]
fn frame_decoder_survives_garbage_bytes() {
    let starts = pipe_frame(&[0xFEu64; 8]);
    let mut stream = b"\nrunning 1 test\n".to_vec();
    stream.extend(pipe_frame(&ChildMsg::Heartbeat));
    stream.extend(b"\x00\xff\x7f\xfenot a frame\n");
    stream.extend(pipe_frame(&"running"));
    stream.extend(pipe_frame(&"a".repeat(MAX_FRAME_BYTES)));
    stream.extend(pipe_frame(&ChildMsg::Done { final_slot: 11 }));
    stream.extend(&starts);
    *stream.last_mut().unwrap() ^= 0x10;
    stream.extend(pipe_frame(&ChildMsg::Done { final_slot: 12 }));
    stream.extend(&starts[..starts.len() - 1]);

    let (msgs, faults) = decode_pipe::<ChildMsg>(Pipe(&stream, 7, StdRng::seed_from_u64(1)));
    let done = "Done { final_slot: 11 }, Done { final_slot: 12 }";
    assert_eq!(format!("{msgs:?}"), format!("[Heartbeat, {done}]"));
    use WireError::{Corrupt, Malformed, Truncated};
    assert_eq!(faults, [Corrupt, Malformed, Corrupt, Corrupt, Truncated]);
}

/// Append noise a pipe can carry between frames: a line of text, or
/// random bytes.
fn garbage(out: &mut Vec<u8>, rng: &mut StdRng) {
    if rng.gen_bool(0.5) {
        out.extend_from_slice(b"test child_entry ... ok\nrunning 1 test\n");
    } else {
        let n = rng.gen_range(1..64);
        out.extend((0..n).map(|_| rng.gen::<u8>()));
    }
}

/// Frame `msgs` into one stream, with seeded garbage between frames, 20
/// flipped bytes and a final truncation; decode it in random read sizes
/// and check the decoder yields exactly the frames no flip or cut
/// touched, in order.
fn check_damaged_stream<T: serde::Serialize + serde::Deserialize>(msgs: &[T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut stream, mut spans) = (Vec::new(), Vec::new());
    for (i, msg) in msgs.iter().enumerate() {
        if rng.gen_bool(0.2) {
            garbage(&mut stream, &mut rng);
        }
        let start = stream.len();
        stream.extend(pipe_frame(msg));
        spans.push((start..stream.len(), i));
    }
    let flips: Vec<usize> = (0..20).map(|_| rng.gen_range(0..stream.len())).collect();
    for &at in &flips {
        stream[at] ^= rng.gen_range(1..256u16) as u8;
    }
    let cut = rng.gen_range(stream.len() * 9 / 10..stream.len());
    stream.truncate(cut);

    let untouched: Vec<Vec<u8>> = spans
        .iter()
        .filter(|(span, _)| span.end <= cut && !flips.iter().any(|f| span.contains(f)))
        .map(|(_, i)| binfmt::encode_value(&msgs[*i]))
        .collect();
    let (got, _) = decode_pipe::<T>(Pipe(&stream, 4096, rng));
    let got: Vec<Vec<u8>> = got.iter().map(binfmt::encode_value).collect();
    let (n, sent) = (got.len(), untouched.len());
    assert!(
        got == untouched,
        "seed {seed}: {n} decoded, {sent} sent untouched"
    );
}

/// Seeded property test of the pipe decoder in both directions: 200
/// frames of every message kind, with garbage, flips and a truncation. It
/// never panics, never yields a message that was not sent, and yields
/// every untouched frame, in order.
#[test]
fn pipe_decoder_yields_exactly_the_untouched_frames_in_order() {
    let (caps, _) = capture_tape(200);
    let dir = tmp_dir("pipe-report");
    let (_, report) = SessionStore::new(&dir)
        .expect("store")
        .recover(ScopeConfig::default(), None);
    let _ = std::fs::remove_dir_all(&dir);
    let wire: Vec<WireMsg> = (0..200u64)
        .zip(caps)
        .flat_map(|(seq, capture)| {
            let ranges = vec![(0, seq), (seq, 2 * seq)];
            [
                WireMsg::Slot { seq, capture },
                WireMsg::Report { ranges },
                WireMsg::Finish,
            ]
        })
        .collect();
    let child: Vec<ChildMsg> = (0..200u64)
        .flat_map(|i| {
            [
                ChildMsg::Hello(Hello {
                    tracked: vec![Rnti(i as u16)],
                    report: report.clone(),
                }),
                ChildMsg::Ack(Ack {
                    seq: i,
                    watermark: i + 1,
                    sync: SyncState::Synced,
                    produced: i % 3,
                    tracked: vec![Rnti(0x4601)],
                    durable: i / 2,
                    durability_rung: 0,
                    loss_window: Some(1280),
                    si_dcis: i,
                }),
                ChildMsg::Report(ReportReply {
                    per_ue: vec![(Rnti(0x4601), vec![i, 8 * i])],
                    total_discovered: i,
                }),
                ChildMsg::Heartbeat,
                ChildMsg::Done { final_slot: i },
            ]
        })
        .collect();
    for seed in 0..4 {
        check_damaged_stream(&wire, seed);
        check_damaged_stream(&child, seed);
    }
}

/// An IQ slot crosses the pipe in one frame under `MAX_FRAME_BYTES` and
/// arrives bit for bit: one of `srsran_n41` (FFT 1024, 15,360 samples),
/// and one of a 100 MHz, 273-PRB µ1 cell — FFT 4096, 61,440 samples, the
/// largest slot the numerology admits.
#[test]
fn an_iq_slot_crosses_the_pipe_in_one_frame() {
    let wide = CellConfig {
        bandwidth_hz: 100e6,
        carrier_prbs: 273,
        ..CellConfig::srsran_n41()
    };
    for (cell, n_samples) in [(CellConfig::srsran_n41(), 15_360), (wide, 61_440)] {
        let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), 17);
        let mut obs = Observer::new(&cell, 30.0, true, 9);
        let capture = obs.capture(&gnb.step(), 0.0);
        let Capture::Slot(ObservedSlot::Iq { samples, .. }) = &capture else {
            panic!("an IQ capture");
        };
        assert_eq!(samples.len(), n_samples);
        let msg = WireMsg::Slot { seq: 7, capture };
        let frame = pipe_frame(&msg);
        assert!(frame.len() <= MAX_FRAME_BYTES, "{} B", frame.len());
        let (got, faults) = decode_pipe::<WireMsg>(Pipe(&frame, 8192, StdRng::seed_from_u64(1)));
        assert!(faults.is_empty(), "{faults:?}");
        assert_eq!(got.len(), 1);
        assert_eq!(binfmt::encode_value(&got[0]), binfmt::encode_value(&msg));
    }
}
