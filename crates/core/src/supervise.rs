//! Supervised warm restart: run the scope pipeline in a child process,
//! detect death *and hangs*, and resume from the latest valid checkpoint.
//!
//! The supervisor (parent) owns the radio front end and feeds captures to
//! a child over a line-oriented JSONL pipe protocol; the child wraps the
//! scope in a [`PersistentSession`], whose group-commit journal makes
//! slots durable in batches — each [`Ack`] reports both the processing
//! watermark and the durable watermark, so the parent knows exactly which
//! tail a `kill -9` can cost (bounded by
//! [`PersistConfig::loss_window_slots`]).
//!
//! Liveness: the child emits [`ChildMsg::Heartbeat`] whenever it has been
//! busy longer than `supervise.heartbeat_interval_ms` without writing a
//! line (deep gap-fills, slow slots), so the parent can tell *busy* from
//! *wedged*. [`ChildHandle::recv_timeout`] bounds every read; the
//! [`Supervisor`] classifies silence past `supervise.hang_deadline_ms` as
//! a hang — force-kill, count it, warm-restart exactly like a crash. A
//! token-bucket [`RestartBreaker`] meters respawns so a crash loop parks
//! the child in lame-duck mode (slots dropped honestly, one half-open
//! probe after backoff) instead of restart-storming.
//!
//! Framing: a truncated, corrupt, or oversized line from the child is a
//! typed [`WireError`] — counted, the stream re-synced at the next
//! newline — never an aborted session.

use crate::chaos::{ChaosChildPlan, HangTarget, CHAOS_PLAN_FILE};
use crate::config::{ScopeConfig, SuperviseConfig};
use crate::metrics::{Counter, Gauge, Metrics};
use crate::observe::{Capture, DropReason};
use crate::persist::{FaultyBackend, PersistConfig, PersistentSession, RecoveryReport};
use crate::scope::SyncState;
use crate::telemetry::TelemetryRecord;
use nr_phy::types::{Pci, Rnti};
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, Read, Write};
use std::path::{Path, PathBuf};
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

/// Hard bound on one JSONL frame from the child. A line longer than this
/// is discarded as [`WireError::Oversized`] and the stream re-syncs at the
/// next newline — a runaway or corrupted child must not balloon the
/// parent's memory.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Bound on waiting for a finishing child to exit before the supervisor
/// escalates to SIGKILL ([`ChildHandle::wait_timeout`]).
const FINISH_WAIT: Duration = Duration::from_secs(5);

/// Parent → child messages, one JSON object per line on the child's stdin.
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

/// First line the child prints after recovery — what a warm restart found.
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

/// Child → parent messages, one JSON object per line on the child's stdout.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ChildMsg {
    /// Recovery announcement (always the first line).
    Hello(Hello),
    /// Slot acknowledgement.
    Ack(Ack),
    /// Byte-accounting reply.
    Report(ReportReply),
    /// Liveness beacon: emitted between acks whenever the child has been
    /// busy past its heartbeat interval without writing a line, so the
    /// parent can tell a deep gap-fill from a wedge.
    Heartbeat {
        /// Child watermark at emission.
        slot: u64,
        /// Durable watermark at emission.
        durable_watermark: u64,
    },
    /// Clean shutdown complete; the final durable slot.
    Done {
        /// Slot of the final checkpoint.
        final_slot: u64,
    },
}

// ---------------------------------------------------------------------------
// Tolerant line framing
// ---------------------------------------------------------------------------

/// A framing fault on the supervise pipe. Never fatal: the decoder counts
/// it and re-syncs at the next newline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended mid-line (EOF without a terminating newline).
    Truncated,
    /// A line exceeded [`MAX_FRAME_BYTES`]; its bytes were discarded up to
    /// the next newline. Carries the number of bytes thrown away so far.
    Oversized(usize),
    /// A complete line that did not parse as a protocol message.
    Malformed,
}

impl WireError {
    /// Stable snake_case name for notes and reports.
    pub fn name(self) -> &'static str {
        match self {
            WireError::Truncated => "truncated",
            WireError::Oversized(_) => "oversized",
            WireError::Malformed => "malformed",
        }
    }
}

/// One decoded frame, or the fault that took its place.
#[derive(Debug)]
pub enum Frame {
    /// A parsed child message.
    Msg(Box<ChildMsg>),
    /// A framing fault (counted; the stream is already re-synced).
    Err(WireError),
}

/// Incremental, tolerant JSONL decoder for the child's stdout: push raw
/// pipe bytes in, pop [`Frame`]s out. Garbage between newlines — a
/// corrupted line, interleaved non-protocol output, a line above
/// [`MAX_FRAME_BYTES`] — becomes a typed [`WireError`] and the decoder
/// re-syncs at the next newline instead of poisoning the session.
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Inside an oversized line: discard until the next newline.
    skipping: usize,
    errors: u64,
    max_frame: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder::new()
    }
}

impl FrameDecoder {
    /// A decoder with the default [`MAX_FRAME_BYTES`] bound.
    pub fn new() -> FrameDecoder {
        FrameDecoder::with_max_frame(MAX_FRAME_BYTES)
    }

    /// A decoder with a custom frame bound (tests shrink it).
    pub fn with_max_frame(max_frame: usize) -> FrameDecoder {
        FrameDecoder {
            buf: Vec::new(),
            skipping: 0,
            errors: 0,
            max_frame: max_frame.max(2),
        }
    }

    /// Framing faults seen so far.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Feed raw bytes; call [`FrameDecoder::next_frame`] until it returns
    /// `None` to drain.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Next complete frame, if one is buffered.
    pub fn next_frame(&mut self) -> Option<Frame> {
        loop {
            let nl = self.buf.iter().position(|&b| b == b'\n');
            if self.skipping > 0 {
                // Mid-oversized-line: throw bytes away until a newline
                // re-syncs the stream.
                match nl {
                    Some(i) => {
                        let thrown = self.skipping + i;
                        self.buf.drain(..=i);
                        self.skipping = 0;
                        self.errors += 1;
                        return Some(Frame::Err(WireError::Oversized(thrown)));
                    }
                    None => {
                        self.skipping += self.buf.len();
                        self.buf.clear();
                        return None;
                    }
                }
            }
            match nl {
                None if self.buf.len() > self.max_frame => {
                    // No newline yet and already over budget: enter skip
                    // mode so the buffer cannot grow unboundedly.
                    self.skipping = self.buf.len();
                    self.buf.clear();
                    return None;
                }
                None => return None,
                Some(i) if i > self.max_frame => {
                    self.buf.drain(..=i);
                    self.errors += 1;
                    return Some(Frame::Err(WireError::Oversized(i)));
                }
                Some(i) => {
                    let line: Vec<u8> = self.buf.drain(..=i).collect();
                    let text = String::from_utf8_lossy(&line[..i]);
                    let trimmed = text.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    match serde_json::from_str::<ChildMsg>(trimmed) {
                        Ok(msg) => return Some(Frame::Msg(Box::new(msg))),
                        Err(_) => {
                            self.errors += 1;
                            return Some(Frame::Err(WireError::Malformed));
                        }
                    }
                }
            }
        }
    }

    /// Signal EOF: leftover bytes that never saw their newline are a
    /// [`WireError::Truncated`] (the child died mid-write).
    pub fn finish(&mut self) -> Option<WireError> {
        if self.skipping > 0 || !self.buf.iter().all(|b| b.is_ascii_whitespace()) {
            self.buf.clear();
            self.skipping = 0;
            self.errors += 1;
            return Some(WireError::Truncated);
        }
        self.buf.clear();
        None
    }
}

// ---------------------------------------------------------------------------
// Child main loop
// ---------------------------------------------------------------------------

/// Child-side writer: tracks when the last line went out so heartbeats
/// fire only when the pipe has actually been silent.
struct ChildIo<W: Write> {
    out: W,
    last_write: Instant,
    interval: Duration,
}

impl<W: Write> ChildIo<W> {
    fn send(&mut self, msg: &ChildMsg) -> io::Result<()> {
        let json = serde_json::to_string(msg).map_err(io::Error::from)?;
        writeln!(self.out, "{json}")?;
        self.out.flush()?;
        self.last_write = Instant::now();
        Ok(())
    }

    /// Emit a heartbeat iff the pipe has been silent past the interval.
    fn heartbeat_if_due(&mut self, slot: u64, durable_watermark: u64) -> io::Result<()> {
        if self.last_write.elapsed() >= self.interval {
            self.send(&ChildMsg::Heartbeat {
                slot,
                durable_watermark,
            })?;
        }
        Ok(())
    }
}

/// Child-side chaos state: scripted hangs, overload dwell, and storage
/// windows from the session directory's plan file (absent in normal runs).
struct ChildChaos {
    plan: ChaosChildPlan,
    backend: Option<FaultyBackend>,
    storage_armed: Vec<bool>,
}

impl ChildChaos {
    fn load(dir: &Path) -> Option<ChildChaos> {
        let text = std::fs::read_to_string(dir.join(CHAOS_PLAN_FILE)).ok()?;
        let plan = ChaosChildPlan::from_json(&text).ok()?;
        let storage_armed = vec![false; plan.storage_windows.len()];
        Some(ChildChaos {
            plan,
            backend: None,
            storage_armed,
        })
    }

    /// Keep the faulty backend's armed windows in step with the slot clock.
    fn service_storage(&mut self, seq: u64) {
        let Some(backend) = &self.backend else { return };
        let mut any_cleared = false;
        for (i, w) in self.plan.storage_windows.iter().enumerate() {
            if self.storage_armed[i] && seq >= w.until_slot {
                self.storage_armed[i] = false;
                any_cleared = true;
            }
        }
        if any_cleared {
            // clear_faults drops every armed window, so re-arm the ones
            // still live (windows are scripted non-overlapping, but stay
            // correct if they aren't).
            backend.clear_faults();
            for (i, w) in self.plan.storage_windows.iter().enumerate() {
                if self.storage_armed[i] {
                    backend.arm(w.kind, 0..u64::MAX);
                }
            }
        }
        for (i, w) in self.plan.storage_windows.iter().enumerate() {
            if !self.storage_armed[i] && seq >= w.from_slot && seq < w.until_slot {
                self.storage_armed[i] = true;
                backend.arm(w.kind, 0..u64::MAX);
            }
        }
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

/// Child main loop: recover the session from `dir`, announce [`Hello`],
/// then process [`WireMsg`] lines from stdin until `Finish` or EOF, each
/// `Slot` through [`feed_at_watermark`] (a replayed slot is acknowledged
/// without reprocessing).
///
/// If the session directory holds a [`ChaosChildPlan`]
/// ([`CHAOS_PLAN_FILE`]), its scripted hangs, overload dwell, and storage
/// windows are applied — the seeded fault hooks the chaos engine drives.
pub fn run_child(dir: &Path, assumed_pci: Option<Pci>) -> io::Result<()> {
    let scope_cfg = match std::fs::read_to_string(dir.join(CONFIG_FILE)) {
        Ok(s) => ScopeConfig::from_json(&s).map_err(io::Error::from)?,
        Err(_) => ScopeConfig::default(),
    };
    let mut chaos = ChildChaos::load(dir);
    let mut persist_cfg = PersistConfig::new(dir);
    if let Some(c) = chaos.as_mut() {
        if !c.plan.storage_windows.is_empty() {
            let backend = FaultyBackend::new(Default::default());
            persist_cfg = persist_cfg.with_backend(Arc::new(backend.clone()));
            c.backend = Some(backend);
        }
    }
    let (mut session, report) = PersistentSession::open(persist_cfg, scope_cfg, assumed_pci)?;
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
    let stdin = io::stdin();
    for line in stdin.lock().lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let msg: WireMsg = match serde_json::from_str(&line) {
            Ok(m) => m,
            // Tolerant framing on the child side too: a corrupt line is
            // skipped and the stream re-syncs at the next newline.
            Err(_) => continue,
        };
        match msg {
            WireMsg::Slot { seq, capture } => {
                if let Some(c) = chaos.as_mut() {
                    apply_child_chaos(c, seq, &mut session, &mut io)?;
                }
                // Deep gap-fill after a long outage: prove liveness every
                // 256 drops so the parent doesn't read hard work as a hang.
                let mut beat = Ok(());
                let produced = feed_at_watermark(&mut session, seq, &capture, |s, filled| {
                    if filled.is_multiple_of(256) && beat.is_ok() {
                        beat = io.heartbeat_if_due(s.slot_watermark(), s.durable_watermark());
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

/// Apply the chaos plan's scripted faults for fed slot `seq`.
fn apply_child_chaos<W: Write>(
    chaos: &mut ChildChaos,
    seq: u64,
    session: &mut PersistentSession,
    io: &mut ChildIo<W>,
) -> io::Result<()> {
    chaos.service_storage(seq);
    for p in &chaos.plan.hangs {
        if p.slot != seq {
            continue;
        }
        let dur = Duration::from_millis(p.duration_ms);
        match p.target {
            // The wedge being simulated: the slot loop stops dead — no
            // heartbeats, no acks. The parent must detect and kill us.
            HangTarget::SlotLoop => std::thread::sleep(dur),
            // The journal writer wedges but the slot loop stays live; the
            // durability ladder must demote honestly while batches back
            // up ([`PersistentSession::inject_writer_wedge`]).
            HangTarget::JournalWriter => session.inject_writer_wedge(dur),
            // Shard wedges are a fleet-side fault; not ours.
            HangTarget::FleetShard(_) => {}
        }
    }
    for w in &chaos.plan.overload_windows {
        if seq >= w.from_slot && seq < w.until_slot {
            // Busy-but-alive dwell: sleep in sub-interval steps, emitting
            // heartbeats, exactly like a slow decode would.
            let mut left = Duration::from_micros(w.dwell_us);
            let step = io.interval / 2;
            while !left.is_zero() {
                let chunk = left.min(step.max(Duration::from_micros(50)));
                std::thread::sleep(chunk);
                left = left.saturating_sub(chunk);
                io.heartbeat_if_due(
                    session.scope().slot_watermark(),
                    session.durable_watermark(),
                )?;
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Parent-side child handle
// ---------------------------------------------------------------------------

fn eof_error() -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "child closed its stdout (died?)",
    )
}

/// Parent-side handle on a spawned pipeline child: tolerant line-framed
/// send/recv with deadlines, plus hard kill (SIGKILL — the crash being
/// simulated, not a clean stop).
///
/// Reads never block the caller directly: a reader thread drains the
/// child's stdout through a [`FrameDecoder`] into an internal frame
/// buffer, so [`ChildHandle::recv_timeout`] can give up at a deadline
/// even while the pipe itself stays open with a hung child behind it.
pub struct ChildHandle {
    child: Child,
    stdin: ChildStdin,
    frames: Receiver<Frame>,
    reader: Option<JoinHandle<()>>,
    wire_errors: Arc<AtomicU64>,
}

impl ChildHandle {
    /// Spawn `exe args…` with piped stdio and extra environment variables,
    /// and give the child `hello_deadline` to announce its [`Hello`]
    /// (recovery included).
    pub fn spawn_with_env(
        exe: &Path,
        args: &[String],
        envs: &[(String, String)],
        hello_deadline: Duration,
    ) -> io::Result<(ChildHandle, Hello)> {
        let mut cmd = Command::new(exe);
        cmd.args(args).stdin(Stdio::piped()).stdout(Stdio::piped());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn()?;
        let stdin = child.stdin.take().expect("piped child stdin");
        let mut stdout = child.stdout.take().expect("piped child stdout");
        let (tx, rx) = channel::<Frame>();
        let wire_errors = Arc::new(AtomicU64::new(0));
        let errs = Arc::clone(&wire_errors);
        let reader = crate::worker::spawn_background("supervise-reader", move || {
            let mut dec = FrameDecoder::new();
            let mut buf = [0u8; 8192];
            loop {
                match stdout.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        dec.push(&buf[..n]);
                        while let Some(frame) = dec.next_frame() {
                            if matches!(frame, Frame::Err(_)) {
                                errs.fetch_add(1, Relaxed);
                            }
                            if tx.send(frame).is_err() {
                                return;
                            }
                        }
                    }
                }
            }
            if let Some(e) = dec.finish() {
                errs.fetch_add(1, Relaxed);
                let _ = tx.send(Frame::Err(e));
            }
            // Dropping `tx` disconnects the channel: the parent reads the
            // disconnect as EOF.
        });
        let mut handle = ChildHandle {
            child,
            stdin,
            frames: rx,
            reader: Some(reader),
            wire_errors,
        };
        let hello = handle
            .recv_timeout(hello_deadline)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "no Hello in time"))?;
        match hello {
            ChildMsg::Hello(h) => Ok((handle, h)),
            other => Err(io::Error::other(format!(
                "child's first message was not Hello: {other:?}"
            ))),
        }
    }

    /// Send one message to the child.
    pub fn send(&mut self, msg: &WireMsg) -> io::Result<()> {
        let json = serde_json::to_string(msg).map_err(io::Error::from)?;
        writeln!(self.stdin, "{json}")?;
        self.stdin.flush()
    }

    /// Receive with a deadline. `Ok(None)` = nothing arrived in time (the
    /// pipe is open but silent — the hang signal); `Err(UnexpectedEof)` =
    /// the child died. Framing faults are counted and skipped, never
    /// surfaced as session errors.
    pub fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<ChildMsg>> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.frames.recv_timeout(left) {
                Ok(Frame::Msg(m)) => return Ok(Some(*m)),
                Ok(Frame::Err(_)) => continue,
                Err(RecvTimeoutError::Timeout) => return Ok(None),
                Err(RecvTimeoutError::Disconnected) => return Err(eof_error()),
            }
        }
    }

    /// Await the reply `pick` accepts, skipping whatever else arrives
    /// first (late acks, heartbeats). `None` once the pipe stays silent
    /// for `deadline` or the child dies.
    fn await_reply<T>(
        &mut self,
        deadline: Duration,
        pick: impl Fn(ChildMsg) -> Option<T>,
    ) -> Option<T> {
        loop {
            if let Some(reply) = pick(self.recv_timeout(deadline).ok()??) {
                return Some(reply);
            }
        }
    }

    /// Framing faults ([`WireError`]) tolerated on this connection so far.
    pub fn wire_errors(&self) -> u64 {
        self.wire_errors.load(Relaxed)
    }

    /// SIGKILL the child and reap it. This is the simulated crash: no
    /// flush, no destructor, no goodbye.
    pub fn kill(&mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        self.join_reader();
        Ok(())
    }

    /// Deadline-bounded wait (after `Finish`/`Done`) with SIGKILL
    /// escalation: give the child `timeout` to exit on its own, then kill
    /// it rather than blocking the supervisor forever. Returns the exit
    /// status and whether the escalation fired.
    pub fn wait_timeout(self, timeout: Duration) -> io::Result<(std::process::ExitStatus, bool)> {
        let ChildHandle {
            mut child,
            stdin,
            reader,
            ..
        } = self;
        drop(stdin);
        let join = |r: Option<std::thread::JoinHandle<()>>| {
            if let Some(h) = r {
                let _ = h.join();
            }
        };
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(status) = child.try_wait()? {
                join(reader);
                return Ok((status, false));
            }
            if Instant::now() >= deadline {
                child.kill()?;
                let status = child.wait()?;
                join(reader);
                return Ok((status, true));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn join_reader(&mut self) {
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Restart-storm circuit breaker
// ---------------------------------------------------------------------------

/// Breaker position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Restarts flow, metered by the token bucket.
    Closed,
    /// Budget exhausted: restarts parked (lame-duck) until the half-open
    /// backoff elapses.
    Open,
    /// One probe restart granted; its outcome decides Closed vs Open.
    HalfOpen,
}

impl BreakerState {
    /// Stable snake_case name for notes and reports.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Token-bucket restart budget shared by [`Supervisor`] and the fleet's
/// per-shard supervision: `capacity` restarts refill per `window_slots`
/// of feed. Exhaustion opens the breaker — the supervised unit is parked
/// in lame-duck mode instead of hot-looping through respawns — and after
/// `halfopen_after` slots a single probe restart decides whether to close
/// it again. Time is whatever monotonic slot count the owner feeds in.
#[derive(Debug)]
pub struct RestartBreaker {
    capacity: u32,
    window_slots: u64,
    halfopen_after: u64,
    tokens: f64,
    last_refill: u64,
    state: BreakerState,
    opened_at: u64,
    openings: u64,
}

impl RestartBreaker {
    /// A closed breaker with a full bucket.
    pub fn new(capacity: u32, window_slots: u64, halfopen_after: u64) -> RestartBreaker {
        RestartBreaker {
            capacity,
            window_slots: window_slots.max(1),
            halfopen_after: halfopen_after.max(1),
            tokens: capacity as f64,
            last_refill: 0,
            state: BreakerState::Closed,
            opened_at: 0,
            openings: 0,
        }
    }

    fn refill(&mut self, now: u64) {
        if now > self.last_refill {
            let dt = (now - self.last_refill) as f64;
            self.tokens = (self.tokens + dt * self.capacity as f64 / self.window_slots as f64)
                .min(self.capacity as f64);
            self.last_refill = now;
        }
    }

    /// Ask permission to restart at slot `now`. A grant while the state
    /// reads [`BreakerState::HalfOpen`] is the probe — report its outcome
    /// through [`RestartBreaker::probe_result`].
    pub fn try_acquire(&mut self, now: u64) -> bool {
        match self.state {
            BreakerState::Closed => {
                self.refill(now);
                if self.tokens >= 1.0 {
                    self.tokens -= 1.0;
                    true
                } else {
                    self.state = BreakerState::Open;
                    self.opened_at = now;
                    self.openings += 1;
                    false
                }
            }
            BreakerState::Open => {
                if now.saturating_sub(self.opened_at) >= self.halfopen_after {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
            // A probe is already outstanding; no second restart until its
            // outcome lands.
            BreakerState::HalfOpen => false,
        }
    }

    /// Outcome of the half-open probe restart: success closes the breaker
    /// (with one fresh token — the bucket refills from here), failure
    /// re-opens it for another full backoff.
    pub fn probe_result(&mut self, ok: bool, now: u64) {
        if self.state != BreakerState::HalfOpen {
            return;
        }
        if ok {
            self.state = BreakerState::Closed;
            self.tokens = 1.0;
            self.last_refill = now;
        } else {
            self.state = BreakerState::Open;
            self.opened_at = now;
            self.openings += 1;
        }
    }

    /// Current position.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// True while restarts are parked (Open, or probing Half-Open).
    pub fn is_open(&self) -> bool {
        self.state != BreakerState::Closed
    }

    /// Times the breaker has transitioned to Open.
    pub fn openings(&self) -> u64 {
        self.openings
    }
}

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

/// Why the child last went down (recorded on the following respawn).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RestartCause {
    /// First spawn of the session.
    Initial,
    /// Silence past the hang deadline; the supervisor force-killed it.
    Hang,
    /// The child died on its own (EOF / failed write).
    Crash,
    /// The supervisor killed it deliberately (chaos kill-9 injection).
    Killed,
}

impl RestartCause {
    /// Stable snake_case name for notes and reports.
    pub fn name(self) -> &'static str {
        match self {
            RestartCause::Initial => "initial",
            RestartCause::Hang => "hang",
            RestartCause::Crash => "crash",
            RestartCause::Killed => "killed",
        }
    }
}

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

/// Supervisor counters ([`Supervisor::stats`]).
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

/// Hang-aware supervision loop over a [`ChildHandle`]: feeds slots,
/// classifies silence past the hang deadline as a hang (force-kill +
/// warm-restart, exactly like a crash), meters respawns through a
/// [`RestartBreaker`], and keeps honest counts of everything it lost.
pub struct Supervisor {
    exe: PathBuf,
    args: Vec<String>,
    envs: Vec<(String, String)>,
    cfg: SuperviseConfig,
    metrics: Arc<Metrics>,
    child: Option<ChildHandle>,
    breaker: RestartBreaker,
    stats: SupervisorStats,
    death_cause: RestartCause,
    last_ack: Option<Ack>,
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
        Supervisor {
            exe: exe.to_path_buf(),
            args: args.to_vec(),
            envs: envs.to_vec(),
            breaker: RestartBreaker::new(
                cfg.restart_budget,
                cfg.restart_budget_window_slots,
                cfg.breaker_halfopen_after_slots,
            ),
            cfg,
            metrics,
            child: None,
            stats: SupervisorStats::default(),
            death_cause: RestartCause::Initial,
            last_ack: None,
            restart_log: Vec::new(),
        }
    }

    fn hang_deadline(&self) -> Duration {
        Duration::from_millis(self.cfg.hang_deadline_ms.max(1))
    }

    fn hello_deadline(&self) -> Duration {
        // Recovery (checkpoint load + journal replay) runs before the
        // first heartbeat can flow, so give Hello a generous multiple.
        self.hang_deadline() * 10
    }

    /// First spawn. Does not charge the restart budget.
    pub fn start(&mut self) -> io::Result<Hello> {
        self.spawn(0)
    }

    /// Spawn a child at fed slot `seq` and log it with the cause the last
    /// one went down for ([`RestartCause::Initial`] until one has).
    fn spawn(&mut self, seq: u64) -> io::Result<Hello> {
        let (handle, hello) =
            ChildHandle::spawn_with_env(&self.exe, &self.args, &self.envs, self.hello_deadline())?;
        self.child = Some(handle);
        self.restart_log.push(RestartEvent {
            at_seq: seq,
            cause: self.death_cause,
            hello: hello.clone(),
        });
        Ok(hello)
    }

    /// Latest ack, if any slot has been acked.
    pub fn last_ack(&self) -> Option<&Ack> {
        self.last_ack.as_ref()
    }

    /// Every (re)spawn so far, oldest first.
    pub fn restart_log(&self) -> &[RestartEvent] {
        &self.restart_log
    }

    /// Counter snapshot (wire errors folded in from the live handle).
    pub fn stats(&self) -> SupervisorStats {
        let mut s = self.stats;
        if let Some(c) = &self.child {
            s.wire_errors += c.wire_errors();
        }
        s
    }

    /// Breaker position.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Tear the child down *now* with SIGKILL — the chaos engine's
    /// `kill -9` injection. The next fed slot starts the restart path.
    pub fn kill_now(&mut self, seq: u64) {
        if self.child.is_some() {
            self.child_down(seq, RestartCause::Killed, "killed by the supervisor");
        }
    }

    /// Feed one slot. Returns the ack, or an honest account of why the
    /// slot was lost. Never blocks past the hang deadline (plus heartbeat
    /// extensions while the child proves liveness).
    pub fn feed_slot(&mut self, seq: u64, capture: &Capture) -> SlotOutcome {
        if self.child.is_none() && !self.try_respawn(seq) {
            return self.lost(if self.breaker.is_open() {
                LostCause::LameDuck
            } else {
                LostCause::ChildDown
            });
        }
        let msg = WireMsg::Slot {
            seq,
            capture: capture.clone(),
        };
        if self.child.as_mut().unwrap().send(&msg).is_err() {
            self.child_down(seq, RestartCause::Crash, "send failed (child died)");
            return self.lost(LostCause::ChildDown);
        }
        let hang_deadline = self.hang_deadline();
        let mut silent_since = Instant::now();
        loop {
            let outcome = self.child.as_mut().unwrap().recv_timeout(hang_deadline);
            match outcome {
                Ok(Some(ChildMsg::Heartbeat { .. })) => {
                    // Busy but alive: record how close it came, reset the
                    // silence clock, keep waiting for the ack.
                    self.metrics.gauge_set(
                        Gauge::HeartbeatLagUs,
                        silent_since.elapsed().as_micros() as u64,
                    );
                    silent_since = Instant::now();
                }
                Ok(Some(ChildMsg::Ack(ack))) => {
                    self.metrics.gauge_set(
                        Gauge::HeartbeatLagUs,
                        silent_since.elapsed().as_micros() as u64,
                    );
                    self.last_ack = Some(ack.clone());
                    return SlotOutcome::Acked(ack);
                }
                // Stray frames (late Report, duplicate Hello after a race)
                // are dropped, not fatal.
                Ok(Some(_)) => {}
                Ok(None) => {
                    // Silence past the hang deadline with the pipe still
                    // open: the child is wedged. Force-kill and treat it
                    // as a crash.
                    let why = format!("silent past {} ms; force-killed", self.cfg.hang_deadline_ms);
                    self.child_down(seq, RestartCause::Hang, &why);
                    return self.lost(LostCause::ChildDown);
                }
                Err(_) => {
                    self.child_down(seq, RestartCause::Crash, "pipe EOF (child died)");
                    return self.lost(LostCause::ChildDown);
                }
            }
        }
    }

    /// Ask the child for a byte-accounting report (parity audits). `None`
    /// when the child is down or does not answer within the hang deadline
    /// (which then counts as a hang, exactly like a silent slot).
    pub fn request_report(&mut self, ranges: Vec<(u64, u64)>) -> Option<ReportReply> {
        let deadline = self.hang_deadline();
        let child = self.child.as_mut()?;
        child.send(&WireMsg::Report { ranges }).ok()?;
        child.await_reply(deadline, |m| match m {
            ChildMsg::Report(r) => Some(r),
            _ => None,
        })
    }

    /// Clean shutdown: `Finish`, await `Done`, then a deadline-bounded
    /// wait with SIGKILL escalation. Returns the final durable slot when
    /// the child finished cleanly — `Done` received and the process gone
    /// without the escalation firing.
    pub fn finish(&mut self) -> Option<u64> {
        let mut child = self.child.take()?;
        self.stats.wire_errors += child.wire_errors();
        if child.send(&WireMsg::Finish).is_err() {
            let _ = child.kill();
            return None;
        }
        let final_slot = child.await_reply(self.hang_deadline(), |m| match m {
            ChildMsg::Done { final_slot } => Some(final_slot),
            _ => None,
        });
        match child.wait_timeout(FINISH_WAIT) {
            Ok((_, false)) => final_slot,
            _ => None,
        }
    }

    /// The one teardown, whatever took the child down at fed slot `seq`:
    /// kill and reap it (a no-op on a process already gone), fold its
    /// wire errors in, count and note the death, and record the cause for
    /// the respawn's [`RestartEvent`]. A death detected while feeding
    /// `seq` loses exactly that slot: the next fed slot respawns if the
    /// breaker grants a token.
    fn child_down(&mut self, seq: u64, cause: RestartCause, why: &str) {
        if let Some(mut c) = self.child.take() {
            self.stats.wire_errors += c.wire_errors();
            let _ = c.kill();
        }
        let key = if cause == RestartCause::Hang {
            self.stats.hangs_detected += 1;
            self.metrics.inc(Counter::HangsDetected);
            "hang"
        } else {
            self.stats.crashes_detected += 1;
            "child_death"
        };
        self.metrics.note(key, format!("slot {seq}: {why}"));
        self.death_cause = cause;
    }

    fn lost(&mut self, cause: LostCause) -> SlotOutcome {
        self.stats.slots_lost += 1;
        SlotOutcome::Lost(cause)
    }

    /// Try to bring a child back at fed slot `seq`. False = still down
    /// (breaker open, or spawn failed — which spent the token).
    fn try_respawn(&mut self, seq: u64) -> bool {
        let was_open = self.breaker.is_open();
        if !self.breaker.try_acquire(seq) {
            if !was_open && self.breaker.is_open() {
                // Freshly opened: gauge + operator note, once per opening.
                self.stats.breaker_openings += 1;
                self.metrics.gauge_set(Gauge::RestartBreakerOpen, 1);
                self.metrics.note(
                    "restart_breaker",
                    format!(
                        "open at slot {seq}: budget {} / {} slots exhausted; parking lame-duck",
                        self.cfg.restart_budget, self.cfg.restart_budget_window_slots
                    ),
                );
            }
            return false;
        }
        let probing = self.breaker.state() == BreakerState::HalfOpen;
        match self.spawn(seq) {
            Ok(_) => {
                self.breaker.probe_result(true, seq);
                if probing {
                    self.metrics.gauge_set(Gauge::RestartBreakerOpen, 0);
                    self.metrics.note(
                        "restart_breaker",
                        format!("half-open probe at slot {seq} succeeded; closed"),
                    );
                }
                self.stats.restarts_total += 1;
                self.metrics.inc(Counter::RestartsTotal);
                true
            }
            Err(e) => {
                if probing {
                    self.breaker.probe_result(false, seq);
                    self.metrics.note(
                        "restart_breaker",
                        format!("half-open probe at slot {seq} failed: {e}"),
                    );
                } else {
                    self.metrics
                        .note("child_death", format!("respawn at slot {seq} failed: {e}"));
                }
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_decoder_parses_clean_lines() {
        let mut d = FrameDecoder::new();
        let msg = ChildMsg::Done { final_slot: 42 };
        let line = format!("{}\n", serde_json::to_string(&msg).unwrap());
        d.push(line.as_bytes());
        match d.next_frame() {
            Some(Frame::Msg(m)) => match *m {
                ChildMsg::Done { final_slot } => assert_eq!(final_slot, 42),
                other => panic!("wrong message: {other:?}"),
            },
            other => panic!("expected Msg, got {other:?}"),
        }
        assert!(d.next_frame().is_none());
        assert_eq!(d.errors(), 0);
        assert!(d.finish().is_none());
    }

    #[test]
    fn frame_decoder_resyncs_after_garbage() {
        let mut d = FrameDecoder::new();
        let good = format!(
            "{}\n",
            serde_json::to_string(&ChildMsg::Done { final_slot: 7 }).unwrap()
        );
        // Garbage, a corrupt JSON line, then a good frame — the good frame
        // must still come through.
        d.push(b"\x00\xffnot json at all\n{\"Ack\":{\"seq\":\n");
        d.push(good.as_bytes());
        let mut errs = 0;
        let mut done = false;
        while let Some(f) = d.next_frame() {
            match f {
                Frame::Err(e) => {
                    assert_eq!(e, WireError::Malformed);
                    errs += 1;
                }
                Frame::Msg(m) => {
                    assert!(matches!(*m, ChildMsg::Done { final_slot: 7 }));
                    done = true;
                }
            }
        }
        assert_eq!(errs, 2, "both garbage lines counted");
        assert!(done, "stream re-synced to the good frame");
        assert_eq!(d.errors(), 2);
    }

    #[test]
    fn frame_decoder_bounds_oversized_lines() {
        let mut d = FrameDecoder::with_max_frame(64);
        // A 10 KiB line with no newline yet must not balloon the buffer.
        d.push(&vec![b'x'; 10 * 1024]);
        assert!(d.next_frame().is_none());
        assert!(d.buf.len() <= 64, "oversized bytes discarded, not buffered");
        d.push(b"tail\n");
        match d.next_frame() {
            Some(Frame::Err(WireError::Oversized(n))) => assert!(n >= 10 * 1024),
            other => panic!("expected Oversized, got {other:?}"),
        }
        // And the stream is usable again.
        let good = format!(
            "{}\n",
            serde_json::to_string(&ChildMsg::Done { final_slot: 1 }).unwrap()
        );
        d.push(good.as_bytes());
        assert!(matches!(d.next_frame(), Some(Frame::Msg(_))));
    }

    #[test]
    fn frame_decoder_truncated_tail_is_typed() {
        let mut d = FrameDecoder::new();
        d.push(b"{\"Done\":{\"final_slot\":9");
        assert!(d.next_frame().is_none());
        assert_eq!(d.finish(), Some(WireError::Truncated));
        assert_eq!(d.errors(), 1);
    }

    #[test]
    fn breaker_opens_on_exhaustion_and_halfopen_recovers() {
        let mut b = RestartBreaker::new(2, 1_000_000, 100);
        assert!(b.try_acquire(0));
        assert!(b.try_acquire(1));
        assert_eq!(b.state(), BreakerState::Closed);
        // Third restart inside the window: bucket empty, breaker opens.
        assert!(!b.try_acquire(2));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.openings(), 1);
        // Parked during backoff.
        assert!(!b.try_acquire(50));
        // Past the half-open backoff: one probe granted.
        assert!(b.try_acquire(103));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // No second restart while the probe is outstanding.
        assert!(!b.try_acquire(104));
        b.probe_result(true, 105);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.try_acquire(106), "closed with a fresh token");
    }

    #[test]
    fn breaker_failed_probe_reopens() {
        let mut b = RestartBreaker::new(1, 1_000_000, 10);
        assert!(b.try_acquire(0));
        assert!(!b.try_acquire(1));
        assert!(b.try_acquire(12));
        b.probe_result(false, 12);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.openings(), 2);
        // Another full backoff before the next probe.
        assert!(!b.try_acquire(13));
        assert!(b.try_acquire(23));
    }

    #[test]
    fn breaker_refills_with_slots() {
        let mut b = RestartBreaker::new(2, 100, 50);
        assert!(b.try_acquire(0));
        assert!(b.try_acquire(0));
        // 100 slots later the full budget is back.
        assert!(b.try_acquire(100));
        assert!(b.try_acquire(100));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    /// The breaker is the only restart meter: a spawn that fails every
    /// time spends one token per fed slot, drains the budget, opens the
    /// breaker, and is not tried again until the half-open probe.
    #[test]
    fn failing_spawn_drains_the_budget_then_waits_for_the_probe() {
        let cfg = SuperviseConfig {
            restart_budget: 2,
            restart_budget_window_slots: 1_000_000,
            breaker_halfopen_after_slots: 10,
            ..SuperviseConfig::default()
        };
        let metrics = Arc::new(Metrics::new(true));
        let exe = Path::new("/nonexistent/nrscope-child");
        let mut sup = Supervisor::new(exe, &[], &[], cfg, metrics.clone());
        let lost = |sup: &mut Supervisor, seqs: std::ops::Range<u64>, cause| {
            for seq in seqs {
                let out = sup.feed_slot(seq, &Capture::Dropped(DropReason::Stall));
                assert!(matches!(out, SlotOutcome::Lost(c) if c == cause), "{seq}");
            }
        };
        let note = |key| metrics.note_detail(key).expect("noted");
        // Two tokens, two failed spawns, one per fed slot.
        lost(&mut sup, 0..2, LostCause::ChildDown);
        let last_try = note("child_death");
        assert!(last_try.contains("slot 1"), "{last_try}");
        // Budget gone: the breaker opens and nothing is spawned.
        lost(&mut sup, 2..12, LostCause::LameDuck);
        assert_eq!(sup.breaker_state(), BreakerState::Open);
        assert_eq!(sup.stats().breaker_openings, 1);
        assert_eq!(note("child_death"), last_try);
        // The half-open probe is the next attempt: it fails, re-opens,
        // and nothing is tried for another full half-open wait.
        for probe_at in [12, 22] {
            lost(&mut sup, probe_at..probe_at + 10, LostCause::LameDuck);
            let probe = format!("probe at slot {probe_at} failed");
            assert!(note("restart_breaker").contains(&probe), "{probe}");
            assert_eq!(sup.breaker_state(), BreakerState::Open);
        }
        let stats = sup.stats();
        assert_eq!((stats.slots_lost, stats.restarts_total), (32, 0));
    }
}
