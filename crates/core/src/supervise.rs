//! Supervised warm restart: run the scope pipeline in a child process,
//! detect death *and hangs*, and resume from the latest valid checkpoint.
//!
//! The supervisor (parent) owns the radio front end and feeds captures to
//! a child over a pipe; the child wraps the scope in a
//! [`PersistentSession`], whose group-commit journal makes slots durable
//! in batches — each [`Ack`] reports both the processing watermark and
//! the durable watermark, so the parent knows exactly which tail a
//! `kill -9` can cost (bounded by [`PersistConfig::loss_window_slots`]).
//!
//! Wire format: every [`WireMsg`] and [`ChildMsg`] is the `binfmt`
//! encoding of the message in one [`FrameKind::Pipe`] frame — the
//! journal's codec under the header a journal batch and a snapshot carry.
//! Parent and child both read through a [`FrameDecoder`]: a frame that
//! fails its checks is a typed [`WireError`] — counted, one byte skipped,
//! the scan resumed — never an aborted session, and text on the pipe (a
//! libtest banner) never begins a frame.
//!
//! Liveness: the child emits [`ChildMsg::Heartbeat`] whenever it has been
//! busy longer than `supervise.heartbeat_interval_ms` without writing a
//! frame (deep gap-fills), so the parent can tell *busy* from *wedged*.
//! The [`Supervisor`] is one of the two drivers of the restart machine
//! ([`crate::restart`]): it bounds every read, and pipe silence past
//! `supervise.hang_deadline_ms` — awaiting an ack or a report — is a hang,
//! torn down like a crash (force-kill, count, note). Then it carries out
//! what its [`RestartBreaker`] decides: respawn at the next fed slot, or,
//! while a crash loop holds the breaker open, park the child lame-duck
//! (slots dropped honestly) until the half-open probe.

use crate::binfmt::{self, FrameKind, Opened};
use crate::config::{ScopeConfig, SuperviseConfig};
use crate::metrics::{Counter, Gauge, Metrics};
use crate::observe::{Capture, DropReason};
use crate::persist::{PersistConfig, PersistentSession, RecoveryReport};
use crate::restart::{Action, BreakerState, RestartBreaker, RestartCause};
use crate::scope::SyncState;
use crate::telemetry::TelemetryRecord;
use crate::worker::SlotHook;
use nr_phy::types::{Pci, Rnti};
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};
use std::marker::PhantomData;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Name of the scope-config file the parent drops in the session
/// directory; the child loads it through [`ScopeConfig::from_json`] so a
/// restart picks up the operator's current (possibly edited) config.
pub const CONFIG_FILE: &str = "scope_config.json";

/// Hard bound on one pipe frame's payload. A frame declaring more is a
/// [`WireError::Corrupt`] — a runaway or corrupted peer must not balloon
/// the reader's memory — and a message encoding to more is refused by its
/// sender. The largest IQ slot the numerology admits (FFT 4096: 61,440
/// samples, e.g. a 273-PRB µ1 cell) encodes to about 1.6 MB.
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// Bound on waiting for a finishing child to exit before the supervisor
/// escalates to SIGKILL ([`Supervisor::finish`]).
const FINISH_WAIT: Duration = Duration::from_secs(5);

/// Parent → child messages, one pipe frame each on the child's stdin.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WireMsg {
    /// One capture for slot `seq`. The child gap-fills any slots it never
    /// saw (dead time while it was being restarted) as dropped slots so
    /// its watermark tracks the parent's clock.
    Slot {
        /// Parent-side slot sequence number.
        seq: u64,
        /// The capture for that slot.
        capture: Capture,
    },
    /// Ask for per-UE byte accounting over slot ranges (parity audits).
    Report {
        /// Half-open slot ranges `[start, end)`.
        ranges: Vec<(u64, u64)>,
    },
    /// Clean shutdown: final checkpoint, then exit.
    Finish,
}

/// First message the child sends after recovery — what a warm restart
/// found.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Hello {
    /// UEs tracked immediately after recovery.
    pub tracked: Vec<Rnti>,
    /// Full recovery report (snapshot slot, replay counts, watermark).
    pub report: RecoveryReport,
}

/// Per-slot acknowledgement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ack {
    /// The sequence number being acknowledged.
    pub seq: u64,
    /// Child watermark after processing (next slot it expects).
    pub watermark: u64,
    /// Sync-health state after the slot.
    pub sync: SyncState,
    /// Telemetry records the slot produced (0 when the slot was already
    /// journalled before a crash and is merely re-acknowledged).
    pub produced: u64,
    /// UEs currently tracked.
    pub tracked: Vec<Rnti>,
    /// Durable watermark: slots below this are in the OS and survive a
    /// `kill -9`. Trails `watermark` by at most the group-commit loss
    /// window ([`PersistConfig::loss_window_slots`]).
    pub durable: u64,
    /// Current durability-ladder rung, as
    /// [`DurabilityRung`](crate::persist::DurabilityRung) `as u8`
    /// (0 = Durable, 1 = DurableDegraded, 2 = NonDurable).
    pub durability_rung: u8,
    /// The loss window the child honestly promises right now: `Some(n)` =
    /// a `kill -9` loses at most `n` slots; `None` = unbounded (the child
    /// is `NonDurable` — its disk is gone and nothing is being journalled).
    pub loss_window: Option<u64>,
    /// Cumulative SI-RNTI DCIs decoded by the child (crash-stable via the
    /// checkpointed stats). The chaos never-go-dark monitor watches this
    /// advance while broadcast traffic is on the air.
    pub si_dcis: u64,
}

/// Reply to [`WireMsg::Report`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReportReply {
    /// For each tracked UE, estimated delivered bits per requested range.
    pub per_ue: Vec<(Rnti, Vec<u64>)>,
    /// Distinct UEs ever discovered by this session (crash-stable).
    pub total_discovered: u64,
}

/// Child → parent messages, one pipe frame each on the child's stdout.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ChildMsg {
    /// Recovery announcement (always the first message).
    Hello(Hello),
    /// Slot acknowledgement.
    Ack(Ack),
    /// Byte-accounting reply.
    Report(ReportReply),
    /// Liveness beacon: emitted between acks whenever the child has been
    /// busy past its heartbeat interval without writing a frame, so the
    /// parent can tell a deep gap-fill from a wedge.
    Heartbeat,
    /// Clean shutdown complete; the final durable slot.
    Done {
        /// Slot of the final checkpoint.
        final_slot: u64,
    },
}

// ---------------------------------------------------------------------------
// Tolerant framing
// ---------------------------------------------------------------------------

/// A framing fault on the supervise pipe. Never fatal: the decoder hands
/// it to its caller to count and scans on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// A frame start that failed its checks (magic, version, a length over
    /// [`MAX_FRAME_BYTES`], CRC): one byte skipped.
    Corrupt,
    /// A CRC-valid frame whose payload is not a message of the expected
    /// type: the frame skipped whole.
    Malformed,
    /// The stream ended inside a frame.
    Truncated,
}

/// Streaming decoder for one direction of the pipe: raw bytes in, `T`
/// messages out. Bytes that cannot begin a frame are skipped, and a frame
/// that fails its checks costs one byte, so every intact frame behind
/// damage still decodes. A run of failed frame starts with no frame
/// between them — a damaged frame's own bytes, a torn tail at EOF — is
/// one fault. It buffers at most one frame — bounded by
/// [`MAX_FRAME_BYTES`] — plus one read.
pub struct FrameDecoder<T> {
    buf: Vec<u8>,
    eof: bool,
    in_damage: bool,
    msg: PhantomData<fn() -> T>,
}

impl<T: Deserialize> Default for FrameDecoder<T> {
    fn default() -> Self {
        FrameDecoder {
            buf: Vec::new(),
            eof: false,
            in_damage: false,
            msg: PhantomData,
        }
    }
}

impl<T: Deserialize> FrameDecoder<T> {
    /// The next message from `r`, reading as needed: `None` once `r` is
    /// exhausted and every buffered frame is drained. Each fault met on
    /// the way goes to `on_fault`.
    pub fn read_from(
        &mut self,
        r: &mut impl Read,
        mut on_fault: impl FnMut(WireError),
    ) -> io::Result<Option<T>> {
        loop {
            match self.next_frame() {
                Some(Ok(msg)) => return Ok(Some(msg)),
                Some(Err(e)) => on_fault(e),
                None if self.eof => return Ok(None),
                None => {
                    let mut chunk = [0u8; 8192];
                    match r.read(&mut chunk) {
                        Ok(0) => self.eof = true,
                        Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
            }
        }
    }

    /// The next frame in the buffer, or `None` when it needs more bytes.
    fn next_frame(&mut self) -> Option<Result<T, WireError>> {
        loop {
            let start = binfmt::frame_start(&self.buf).unwrap_or(self.buf.len());
            self.buf.drain(..start);
            if self.buf.is_empty() {
                return None;
            }
            let fault = match binfmt::open(FrameKind::Pipe, &self.buf, MAX_FRAME_BYTES) {
                Opened::Frame(payload, len) => {
                    let msg = binfmt::decode_value(payload).ok_or(WireError::Malformed);
                    self.buf.drain(..len);
                    self.in_damage = false;
                    return Some(msg);
                }
                Opened::Short if !self.eof => return None,
                Opened::Short => WireError::Truncated,
                Opened::Bad => WireError::Corrupt,
            };
            self.buf.drain(..1);
            if !std::mem::replace(&mut self.in_damage, true) {
                return Some(Err(fault));
            }
        }
    }
}

/// Write `msg` to `out` as one pipe frame, and flush it. A message over
/// [`MAX_FRAME_BYTES`] is refused before a byte is written: the peer would
/// drop it as corrupt, and its silence would read as a hang.
fn send_frame(out: &mut impl Write, msg: &impl Serialize) -> io::Result<()> {
    let mut frame = Vec::new();
    let len = binfmt::seal(FrameKind::Pipe, &mut frame, |b| binfmt::put_value(b, msg));
    if len > MAX_FRAME_BYTES {
        let why = format!("a {len} B pipe message is over MAX_FRAME_BYTES");
        return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
    }
    out.write_all(&frame)?;
    out.flush()
}

// ---------------------------------------------------------------------------
// Child main loop
// ---------------------------------------------------------------------------

/// Child-side writer: tracks when the last frame went out so heartbeats
/// fire only when the pipe has actually been silent.
struct ChildIo<W: Write> {
    out: W,
    last_write: Instant,
    interval: Duration,
}

impl<W: Write> ChildIo<W> {
    fn send(&mut self, msg: &ChildMsg) -> io::Result<()> {
        send_frame(&mut self.out, msg)?;
        self.last_write = Instant::now();
        Ok(())
    }

    /// Emit a heartbeat iff the pipe has been silent past the interval.
    fn heartbeat_if_due(&mut self) -> io::Result<()> {
        if self.last_write.elapsed() >= self.interval {
            self.send(&ChildMsg::Heartbeat)?;
        }
        Ok(())
    }
}

/// Something the watermark rule can drive (a [`PersistentSession`], a
/// fleet shard's engine): it knows the next slot it expects and processes
/// exactly that slot's capture.
pub trait SlotEngine {
    /// The next slot to be processed.
    fn slot_watermark(&self) -> u64;
    /// Process the capture for slot [`SlotEngine::slot_watermark`],
    /// advancing the watermark by one.
    fn process_capture(&mut self, cap: &Capture) -> Vec<TelemetryRecord>;
}

impl SlotEngine for PersistentSession {
    fn slot_watermark(&self) -> u64 {
        self.scope().slot_watermark()
    }
    fn process_capture(&mut self, cap: &Capture) -> Vec<TelemetryRecord> {
        PersistentSession::process_capture(self, cap)
    }
}

/// The watermark rule — the one place a restarted engine meets a live
/// feed, shared by [`run_child`] and the fleet's shards. A `seq` below
/// the watermark was already processed (and journalled) by a previous
/// incarnation: `None`, nothing reprocessed, so its bytes are never
/// counted twice. A `seq` above it gap-fills the missed slots as
/// [`DropReason::Stall`] drops (the engine was down while the air
/// interface kept moving) — `on_gap_slot(engine, n)` runs after the n-th
/// drop so a deep fill can prove liveness — then processes `capture`.
pub fn feed_at_watermark<E: SlotEngine>(
    engine: &mut E,
    seq: u64,
    capture: &Capture,
    mut on_gap_slot: impl FnMut(&E, u64),
) -> Option<Vec<TelemetryRecord>> {
    let gap = seq.checked_sub(engine.slot_watermark())?;
    for filled in 1..=gap {
        engine.process_capture(&Capture::Dropped(DropReason::Stall));
        on_gap_slot(engine, filled);
    }
    Some(engine.process_capture(capture))
}

/// Child main loop: recover the session in `persist.dir` (configured by
/// its [`CONFIG_FILE`], if present), announce [`Hello`], then process
/// [`WireMsg`] frames from stdin until `Finish` or EOF, each `Slot`
/// through `hook` (if any) and [`feed_at_watermark`] (a replayed slot is
/// acknowledged without reprocessing).
pub fn run_child(
    persist: PersistConfig,
    assumed_pci: Option<Pci>,
    hook: Option<SlotHook>,
) -> io::Result<()> {
    let scope_cfg = match std::fs::read_to_string(persist.dir.join(CONFIG_FILE)) {
        Ok(s) => ScopeConfig::from_json(&s).map_err(io::Error::from)?,
        Err(_) => ScopeConfig::default(),
    };
    let (mut session, report) = PersistentSession::open(persist, scope_cfg, assumed_pci)?;
    let stdout = io::stdout();
    let mut io = ChildIo {
        out: stdout.lock(),
        last_write: Instant::now(),
        interval: Duration::from_millis(scope_cfg.supervise.heartbeat_interval_ms.max(1)),
    };
    io.send(&ChildMsg::Hello(Hello {
        tracked: session.scope().tracked_rntis(),
        report,
    }))?;
    let mut stdin = io::stdin().lock();
    let mut frames = FrameDecoder::default();
    // A damaged frame is skipped; the parent's hang deadline covers the
    // reply it cost.
    while let Some(msg) = frames.read_from(&mut stdin, |_| {})? {
        match msg {
            WireMsg::Slot { seq, capture } => {
                if let Some(hook) = &hook {
                    hook.call(seq);
                }
                // Deep gap-fill after a long outage: prove liveness every
                // 256 drops so the parent doesn't read hard work as a hang.
                let mut beat = Ok(());
                let produced = feed_at_watermark(&mut session, seq, &capture, |_, filled| {
                    if filled.is_multiple_of(256) && beat.is_ok() {
                        beat = io.heartbeat_if_due();
                    }
                });
                beat?;
                let ack = Ack {
                    seq,
                    watermark: session.scope().slot_watermark(),
                    sync: session.scope().sync_state(),
                    produced: produced.map_or(0, |p| p.len() as u64),
                    tracked: session.scope().tracked_rntis(),
                    durable: session.durable_watermark(),
                    durability_rung: session.durability_rung() as u8,
                    loss_window: session.reported_loss_window(),
                    si_dcis: session.scope().stats.si_dcis,
                };
                io.send(&ChildMsg::Ack(ack))?;
            }
            WireMsg::Report { ranges } => {
                let scope = session.scope();
                let per_ue = scope
                    .tracked_rntis()
                    .into_iter()
                    .map(|rnti| {
                        let bits = ranges
                            .iter()
                            .map(|&(a, b)| scope.estimated_bits(rnti, a..b))
                            .collect();
                        (rnti, bits)
                    })
                    .collect();
                let reply = ReportReply {
                    per_ue,
                    total_discovered: scope.total_discovered(),
                };
                io.send(&ChildMsg::Report(reply))?;
            }
            WireMsg::Finish => {
                let final_slot = session.finalize()?;
                io.send(&ChildMsg::Done { final_slot })?;
                return Ok(());
            }
        }
    }
    // EOF without Finish: the parent died or closed the pipe. State up to
    // the last processed slot is already journalled; checkpoint and leave.
    let _ = session.finalize();
    Ok(())
}

// ---------------------------------------------------------------------------
// Parent-side child handle
// ---------------------------------------------------------------------------

/// Parent-side handle on a spawned pipeline child: tolerant framed reads
/// with deadlines, plus hard kill.
///
/// Reads never block the caller directly: a reader thread drains the
/// child's stdout through a [`FrameDecoder`] into an internal message
/// queue, so a read can give up at a deadline even while the pipe itself
/// stays open with a hung child behind it.
struct ChildHandle {
    child: Child,
    stdin: ChildStdin,
    msgs: Receiver<ChildMsg>,
    reader: JoinHandle<()>,
    /// Framing faults ([`WireError`]) tolerated on this connection so far.
    wire_errors: Arc<AtomicU64>,
}

impl ChildHandle {
    /// Spawn `cmd` with piped stdio, and give the child `hello_deadline`
    /// to announce its [`Hello`] (recovery included).
    fn spawn(cmd: &mut Command, hello_deadline: Duration) -> io::Result<(ChildHandle, Hello)> {
        let mut child = cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).spawn()?;
        let stdin = child.stdin.take().expect("piped child stdin");
        let mut stdout = child.stdout.take().expect("piped child stdout");
        let (tx, msgs) = channel::<ChildMsg>();
        let wire_errors = Arc::new(AtomicU64::new(0));
        let errs = Arc::clone(&wire_errors);
        let reader = crate::worker::spawn_background("supervise-reader", move || {
            let mut frames = FrameDecoder::default();
            // Ends at EOF (or a failed read), dropping `tx`: the parent
            // reads the disconnect as EOF.
            while let Ok(Some(msg)) = frames.read_from(&mut stdout, |_| {
                errs.fetch_add(1, Relaxed);
            }) {
                if tx.send(msg).is_err() {
                    return;
                }
            }
        });
        let mut handle = ChildHandle {
            child,
            stdin,
            msgs,
            reader,
            wire_errors,
        };
        match handle.await_reply(hello_deadline, Some) {
            Ok(ChildMsg::Hello(h)) => Ok((handle, h)),
            other => {
                handle.end(Duration::ZERO);
                Err(io::Error::other(format!(
                    "no Hello from the child: {other:?}"
                )))
            }
        }
    }

    /// Await the reply `pick` accepts, skipping whatever else arrives
    /// first (late acks, heartbeats). `Err(Hang)` once the pipe stays
    /// silent for `deadline` (it is open but nothing comes — the hang
    /// signal), `Err(Crash)` once the child closes it (it died).
    fn await_reply<T>(
        &mut self,
        deadline: Duration,
        mut pick: impl FnMut(ChildMsg) -> Option<T>,
    ) -> Result<T, RestartCause> {
        loop {
            match self.msgs.recv_timeout(deadline) {
                Ok(msg) => {
                    if let Some(reply) = pick(msg) {
                        return Ok(reply);
                    }
                }
                Err(RecvTimeoutError::Timeout) => return Err(RestartCause::Hang),
                Err(RecvTimeoutError::Disconnected) => return Err(RestartCause::Crash),
            }
        }
    }

    /// End the child: give it `grace` to exit on its own (after
    /// `Finish`), then SIGKILL and reap it — with no grace, the crash
    /// being simulated: no flush, no destructor, no goodbye. True when it
    /// exited within the grace.
    fn end(mut self, grace: Duration) -> bool {
        drop(self.stdin);
        let deadline = Instant::now() + grace;
        let exited = loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break true,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                _ => break false,
            }
        };
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = self.reader.join();
        exited
    }
}

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

/// One completed (re)spawn, for monitors and reports.
#[derive(Debug, Clone)]
pub struct RestartEvent {
    /// Parent slot at which the child came back.
    pub at_seq: u64,
    /// Why the previous incarnation went down.
    pub cause: RestartCause,
    /// What the new incarnation recovered.
    pub hello: Hello,
}

/// Supervisor counters ([`Supervisor::stats`]), read off its restart
/// machine and its own loss and wire counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct SupervisorStats {
    /// Hangs classified (silence past the deadline → force-kill).
    pub hangs_detected: u64,
    /// Child deaths observed (EOF, failed send) — injected kills included.
    pub crashes_detected: u64,
    /// Respawns completed (the initial spawn not counted).
    pub restarts_total: u64,
    /// Times the restart breaker opened.
    pub breaker_openings: u64,
    /// Slots fed while no child was there to ack them (down, or
    /// lame-duck) — the supervisor's honest loss count.
    pub slots_lost: u64,
    /// Framing faults tolerated across all incarnations.
    pub wire_errors: u64,
}

/// What happened to one fed slot.
#[derive(Debug, Clone)]
pub enum SlotOutcome {
    /// The child processed (or replay-acked) it.
    Acked(Ack),
    /// Dropped: the child is down, restarting, or parked lame-duck. The
    /// child's gap-fill accounts it as a dropped slot after respawn.
    Lost(LostCause),
}

/// Why a fed slot went unacked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LostCause {
    /// Child dead: this slot detected it, or its respawn failed.
    ChildDown,
    /// Restart breaker open: parked, deliberately not respawning.
    LameDuck,
}

/// The child process's driver of the restart machine: feeds slots over
/// the pipe, reads silence past the hang deadline as a hang, and carries
/// out what its [`RestartBreaker`] decides — respawn, or park lame-duck
/// by dropping slots — keeping honest counts of everything it lost.
pub struct Supervisor {
    cmd: Command,
    cfg: SuperviseConfig,
    metrics: Arc<Metrics>,
    child: Option<ChildHandle>,
    restart: RestartBreaker,
    slots_lost: u64,
    /// Wire errors of the incarnations already gone.
    wire_errors: u64,
    restart_log: Vec<RestartEvent>,
}

impl Supervisor {
    /// A supervisor that will spawn `exe args…` (with `envs` added) on
    /// [`Supervisor::start`] and every warm restart. Metrics (hang and
    /// restart counters, breaker gauge, heartbeat lag) land in `metrics`.
    pub fn new(
        exe: &Path,
        args: &[String],
        envs: &[(String, String)],
        cfg: SuperviseConfig,
        metrics: Arc<Metrics>,
    ) -> Supervisor {
        let mut cmd = Command::new(exe);
        cmd.args(args).envs(envs.iter().cloned());
        // Not started: the first spawn is owed, and is no restart.
        let mut restart = RestartBreaker::for_config(&cfg);
        restart.went_down(RestartCause::Initial);
        Supervisor {
            cmd,
            cfg,
            metrics,
            child: None,
            restart,
            slots_lost: 0,
            wire_errors: 0,
            restart_log: Vec::new(),
        }
    }

    fn hang_deadline(&self) -> Duration {
        Duration::from_millis(self.cfg.hang_deadline_ms.max(1))
    }

    /// First spawn. Does not charge the restart budget.
    pub fn start(&mut self) -> io::Result<Hello> {
        self.spawn(0)
    }

    /// Spawn a child at fed slot `seq`, report the outcome to the restart
    /// machine, and log the child with the cause the last one went down
    /// for ([`RestartCause::Initial`] until one has).
    fn spawn(&mut self, seq: u64) -> io::Result<Hello> {
        let cause = self.restart.cause().unwrap_or(RestartCause::Initial);
        // Recovery (checkpoint load + journal replay) runs before the
        // first heartbeat can flow, so give Hello a generous multiple.
        let hello_deadline = self.hang_deadline() * 10;
        let spawned = ChildHandle::spawn(&mut self.cmd, hello_deadline);
        self.restart.rebuilt(spawned.is_ok(), seq);
        let why = spawned.as_ref().err().map(ToString::to_string);
        self.restart
            .publish(&self.metrics, seq, why.as_deref().unwrap_or(""));
        // A failed probe re-opened the breaker and said so.
        if let (Some(why), false) = (why, self.restart.is_open()) {
            let note = format!("respawn at slot {seq} failed: {why}");
            self.metrics.note("child_death", note);
        }
        let (handle, hello) = spawned?;
        if cause != RestartCause::Initial {
            self.metrics.inc(Counter::RestartsTotal);
        }
        self.child = Some(handle);
        self.restart_log.push(RestartEvent {
            at_seq: seq,
            cause,
            hello: hello.clone(),
        });
        Ok(hello)
    }

    /// Every (re)spawn so far, oldest first.
    pub fn restart_log(&self) -> &[RestartEvent] {
        &self.restart_log
    }

    /// Counter snapshot (wire errors folded in from the live handle).
    pub fn stats(&self) -> SupervisorStats {
        let live = self
            .child
            .as_ref()
            .map_or(0, |c| c.wire_errors.load(Relaxed));
        SupervisorStats {
            hangs_detected: self.restart.hangs(),
            crashes_detected: self.restart.crashes(),
            restarts_total: self.restart.restarts(),
            breaker_openings: self.restart.openings(),
            slots_lost: self.slots_lost,
            wire_errors: self.wire_errors + live,
        }
    }

    /// Breaker position.
    pub fn breaker_state(&self) -> BreakerState {
        self.restart.state()
    }

    /// Tear the child down *now* with SIGKILL — the chaos engine's
    /// `kill -9` injection. The next fed slot starts the restart path.
    pub fn kill_now(&mut self, seq: u64) {
        if self.child.is_some() {
            self.child_down(RestartCause::Killed, &format!("slot {seq}"));
        }
    }

    /// Feed one slot. Returns the ack, or an honest account of why the
    /// slot was lost. Never blocks past the hang deadline (plus heartbeat
    /// extensions while the child proves liveness).
    pub fn feed_slot(&mut self, seq: u64, capture: &Capture) -> SlotOutcome {
        let action = self.restart.next(seq);
        if action == Action::Park || (action == Action::Rebuild && self.spawn(seq).is_err()) {
            self.restart.publish(&self.metrics, seq, "");
            return self.lost(if self.restart.is_open() {
                LostCause::LameDuck
            } else {
                LostCause::ChildDown
            });
        }
        let (deadline, metrics) = (self.hang_deadline(), &self.metrics);
        let Some(child) = self.child.as_mut() else {
            return self.lost(LostCause::ChildDown);
        };
        let msg = WireMsg::Slot {
            seq,
            capture: capture.clone(),
        };
        let mut silent_since = Instant::now();
        let reply = send_frame(&mut child.stdin, &msg).map_err(|_| RestartCause::Crash);
        let reply = reply.and_then(|()| {
            child.await_reply(deadline, |m| {
                // Busy but alive: record how close it came, reset the
                // silence clock. Stray frames (a late Report, a duplicate
                // Hello after a race) are skipped, not fatal.
                if matches!(m, ChildMsg::Heartbeat | ChildMsg::Ack(_)) {
                    let lag = silent_since.elapsed().as_micros() as u64;
                    metrics.gauge_set(Gauge::HeartbeatLagUs, lag);
                    silent_since = Instant::now();
                }
                match m {
                    ChildMsg::Ack(ack) => Some(ack),
                    _ => None,
                }
            })
        });
        match reply {
            Ok(ack) => SlotOutcome::Acked(ack),
            Err(cause) => {
                self.child_down(cause, &format!("slot {seq}"));
                self.lost(LostCause::ChildDown)
            }
        }
    }

    /// Ask the child for a byte-accounting report (parity audits). `None`
    /// when the child is down or does not answer within the hang deadline
    /// — which counts as a hang, exactly like a silent slot: the child is
    /// torn down and the next fed slot respawns it.
    pub fn request_report(&mut self, ranges: Vec<(u64, u64)>) -> Option<ReportReply> {
        let deadline = self.hang_deadline();
        let child = self.child.as_mut()?;
        let sent = send_frame(&mut child.stdin, &WireMsg::Report { ranges });
        let reply = sent.map_err(|_| RestartCause::Crash).and_then(|()| {
            child.await_reply(deadline, |m| match m {
                ChildMsg::Report(r) => Some(r),
                _ => None,
            })
        });
        reply
            .map_err(|cause| self.child_down(cause, "report request"))
            .ok()
    }

    /// Clean shutdown: `Finish`, await `Done`, then a deadline-bounded
    /// wait with SIGKILL escalation. Returns the final durable slot when
    /// the child finished cleanly — `Done` received and the process gone
    /// without the escalation firing.
    pub fn finish(&mut self) -> Option<u64> {
        let mut child = self.child.take()?;
        self.wire_errors += child.wire_errors.load(Relaxed);
        let done = send_frame(&mut child.stdin, &WireMsg::Finish).is_ok();
        let final_slot = done.then(|| {
            child.await_reply(self.hang_deadline(), |m| match m {
                ChildMsg::Done { final_slot } => Some(final_slot),
                _ => None,
            })
        });
        let exited = child.end(if done { FINISH_WAIT } else { Duration::ZERO });
        final_slot.and_then(Result::ok).filter(|_| exited)
    }

    /// The one teardown, whatever took the child down while the parent was
    /// `at` something: kill and reap it (a no-op on a process already
    /// gone), fold its wire errors in, note the death, and report it to
    /// the restart machine. A death detected while feeding a slot loses
    /// exactly that slot: the next fed slot respawns if the breaker
    /// grants a token.
    fn child_down(&mut self, cause: RestartCause, at: &str) {
        if let Some(c) = self.child.take() {
            self.wire_errors += c.wire_errors.load(Relaxed);
            c.end(Duration::ZERO);
        }
        let (key, why) = match cause {
            RestartCause::Hang => {
                self.metrics.inc(Counter::HangsDetected);
                let ms = self.cfg.hang_deadline_ms;
                ("hang", format!("silent past {ms} ms; force-killed"))
            }
            RestartCause::Killed => ("child_death", "killed by the supervisor".into()),
            _ => ("child_death", "pipe closed (child died)".into()),
        };
        self.metrics.note(key, format!("{at}: {why}"));
        self.restart.went_down(cause);
    }

    fn lost(&mut self, cause: LostCause) -> SlotOutcome {
        self.slots_lost += 1;
        SlotOutcome::Lost(cause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_oversize_message_is_refused_unsent() {
        let mut out = Vec::new();
        let err = send_frame(&mut out, &"a".repeat(MAX_FRAME_BYTES)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty());
    }
}
