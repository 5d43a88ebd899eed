//! A sniffer in a child process, restarted the way a deployed one is: an
//! external supervisor SIGKILLs and re-executes the whole process, and the
//! new process warm-starts from its session directory
//! ([`PersistentSession::open`]).
//!
//! The child owns its air. Given the slot it is spawned at, it recovers
//! its session, steps its air through every earlier slot (the captures
//! discarded), and only then announces a [`Hello`] on stdout.
//!
//! The parent, a [`Harness`], is the slot clock. Each slot it writes the
//! slot number to the child's stdin as one line and reads back one JSON
//! [`Ack`] line, which carries [`air_digest`] of the capture the child
//! decoded. Silence past the hang deadline is a hang and EOF a crash:
//! either way the child is SIGKILLed and reaped, and the harness carries
//! out what its [`RestartBreaker`] decides — respawn at the next slot, or
//! park lame-duck (slots dropped, counted) until the half-open probe.
//! There are no heartbeats: a respawned child gap-fills each slot it
//! missed in under a microsecond, and the breaker bounds the gap by
//! `breaker_halfopen_after_slots` (plus the journal's loss window), far
//! inside any hang deadline in use.

use nr_phy::types::{Pci, Rnti};
use nrscope::binfmt;
use nrscope::config::SuperviseConfig;
use nrscope::fleet::feed_at_watermark;
use nrscope::restart::{Action, RestartBreaker, RestartCause};
use nrscope::SyncState;
use nrscope::{Capture, PersistConfig, PersistentSession, RecoveryReport, ScopeConfig, SlotHook};
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a finishing child may take to checkpoint and exit before it
/// is SIGKILLed.
const FINISH_WAIT: Duration = Duration::from_secs(5);

/// What a child announces once it has recovered and caught its air up.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Hello {
    /// UEs tracked right after recovery.
    pub tracked: Vec<Rnti>,
    /// What recovery found (snapshot slot, replay counts, watermark).
    pub report: RecoveryReport,
}

/// A child's answer to one slot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ack {
    /// The slot answered.
    pub seq: u64,
    /// The child's watermark after it (the next slot it expects).
    pub watermark: u64,
    /// Sync-health state after the slot.
    pub sync: SyncState,
    /// Telemetry records the slot produced.
    pub produced: u64,
    /// UEs tracked.
    pub tracked: Vec<Rnti>,
    /// Durable watermark: slots below it survive a `kill -9`.
    pub durable: u64,
    /// Durability rung `as u8` (0 Durable, 1 DurableDegraded, 2 NonDurable).
    pub durability_rung: u8,
    /// The loss window the child promises; `None` is unbounded.
    pub loss_window: Option<u64>,
    /// Cumulative SI-RNTI DCIs decoded.
    pub si_dcis: u64,
    /// [`air_digest`] of the capture the child decoded for `seq`.
    pub air: u32,
}

/// One line a child writes on stdout.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Line {
    /// The first line, once recovered.
    Hello(Hello),
    /// One per slot.
    Ack(Ack),
}

/// CRC-32 of a capture's bytes: parent and child compare their airs by it.
pub fn air_digest(cap: &Capture) -> u32 {
    binfmt::crc32(&binfmt::encode_value(cap))
}

/// The child's side: recover the session in `persist.dir`, step `air`
/// through every slot before `from`, announce [`Hello`], then answer each
/// slot number read from stdin: run `hook`, take the slot's capture from
/// `air` (which is stepped in slot order), feed it at the watermark and
/// print an [`Ack`]. At EOF, checkpoint and return.
pub fn serve(
    persist: PersistConfig,
    pci: Option<Pci>,
    from: u64,
    mut air: impl FnMut(u64) -> Capture,
    hook: Option<SlotHook>,
) -> io::Result<()> {
    let (mut session, report) = PersistentSession::open(persist, ScopeConfig::default(), pci)?;
    (0..from).for_each(|s| drop(air(s)));
    let mut next = from;
    let mut out = io::stdout().lock();
    let mut say = |line: Line| writeln!(out, "{}", serde_json::to_string(&line)?);
    let tracked = session.scope().tracked_rntis();
    say(Line::Hello(Hello { tracked, report }))?;
    for line in io::stdin().lock().lines() {
        let Ok(seq) = line?.trim().parse::<u64>() else {
            continue;
        };
        if let Some(hook) = &hook {
            hook.call(seq);
        }
        let cap = (next..=seq).map(&mut air).last();
        let cap = cap.ok_or_else(|| io::Error::other(format!("slot {seq} is behind the air")))?;
        next = seq + 1;
        let produced = feed_at_watermark(&mut session, seq, &cap, |_, _| {});
        let scope = session.scope();
        say(Line::Ack(Ack {
            seq,
            watermark: scope.slot_watermark(),
            sync: scope.sync_state(),
            produced: produced.map_or(0, |p| p.len() as u64),
            tracked: scope.tracked_rntis(),
            durable: session.durable_watermark(),
            durability_rung: session.durability_rung() as u8,
            loss_window: session.reported_loss_window(),
            si_dcis: scope.stats.si_dcis,
            air: air_digest(&cap),
        }))?;
    }
    session.finalize().map(drop)
}

/// One live child process.
struct Running {
    process: Child,
    stdin: ChildStdin,
    lines: Receiver<Line>,
    reader: JoinHandle<()>,
}

impl Running {
    /// Spawn `cmd` with piped stdio and give it `deadline` to say
    /// [`Hello`].
    fn spawn(mut cmd: Command, deadline: Duration) -> io::Result<(Running, Hello)> {
        let mut process = cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).spawn()?;
        let stdin = process.stdin.take().expect("piped stdin");
        let mut stdout = BufReader::new(process.stdout.take().expect("piped stdout"));
        let (tx, lines) = channel();
        // Ends at EOF, dropping `tx`: the parent reads the disconnect as a
        // crash. A line that is no message (a libtest banner, garbage) is
        // skipped.
        let reader = std::thread::spawn(move || {
            let mut buf = Vec::new();
            while stdout.read_until(b'\n', &mut buf).is_ok_and(|n| n > 0) {
                let text = std::str::from_utf8(&buf).ok();
                let line = text.and_then(|t| serde_json::from_str::<Line>(t).ok());
                buf.clear();
                if line.is_some_and(|l| tx.send(l).is_err()) {
                    return;
                }
            }
        });
        let mut running = Running {
            process,
            stdin,
            lines,
            reader,
        };
        match running.await_line(deadline) {
            Ok(Line::Hello(hello)) => Ok((running, hello)),
            other => {
                running.end(Duration::ZERO);
                Err(io::Error::other(format!("no Hello: {other:?}")))
            }
        }
    }

    /// The next line: `Err(Hang)` after `deadline` of silence, `Err(Crash)`
    /// once the child has closed its stdout.
    fn await_line(&mut self, deadline: Duration) -> Result<Line, RestartCause> {
        self.lines.recv_timeout(deadline).map_err(|e| match e {
            RecvTimeoutError::Timeout => RestartCause::Hang,
            RecvTimeoutError::Disconnected => RestartCause::Crash,
        })
    }

    /// Close its stdin, give it `grace` to exit, then SIGKILL and reap it.
    /// True when it exited within the grace.
    fn end(mut self, grace: Duration) -> bool {
        drop(self.stdin);
        let deadline = Instant::now() + grace;
        let exited = loop {
            match self.process.try_wait() {
                Ok(Some(_)) => break true,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                _ => break false,
            }
        };
        let _ = self.process.kill();
        let _ = self.process.wait();
        let _ = self.reader.join();
        exited
    }
}

/// One completed (re)spawn.
#[derive(Debug, Clone)]
pub struct RestartEvent {
    /// Slot the child was spawned at.
    pub at_seq: u64,
    /// Why the previous child went down ([`RestartCause::Initial`] for the
    /// first).
    pub cause: RestartCause,
    /// What the new child recovered.
    pub hello: Hello,
}

/// What happened to one fed slot.
#[derive(Debug, Clone)]
pub enum SlotOutcome {
    /// The child answered it.
    Acked(Ack),
    /// Lost: the child died on this slot, or its respawn failed.
    ChildDown,
    /// Lost: the restart breaker is open, so no child is respawned.
    LameDuck,
}

/// The parent: the slot clock, and the driver of a child's restart
/// machine.
pub struct Harness {
    command: Box<dyn FnMut(u64) -> Command>,
    hang_deadline: Duration,
    child: Option<Running>,
    restart: RestartBreaker,
    slots_lost: u64,
    restart_log: Vec<RestartEvent>,
}

impl Harness {
    /// A harness that spawns `command(slot)` at the first fed slot and at
    /// every respawn, reads silence past `hang_deadline` as a hang, and
    /// meters respawns by `breaker`'s knobs.
    pub fn new(
        command: impl FnMut(u64) -> Command + 'static,
        hang_deadline: Duration,
        breaker: &SuperviseConfig,
    ) -> Harness {
        let mut restart = RestartBreaker::for_config(breaker);
        restart.went_down(RestartCause::Initial);
        Harness {
            command: Box::new(command),
            hang_deadline,
            child: None,
            restart,
            slots_lost: 0,
            restart_log: Vec::new(),
        }
    }

    /// The restart machine (its crash, hang, restart and opening counts).
    pub fn breaker(&self) -> &RestartBreaker {
        &self.restart
    }

    /// Slots fed while no child was there to answer.
    pub fn slots_lost(&self) -> u64 {
        self.slots_lost
    }

    /// Every spawn so far, oldest first.
    pub fn restart_log(&self) -> &[RestartEvent] {
        &self.restart_log
    }

    /// The first spawn, at slot 0. It spends no restart token.
    pub fn start(&mut self) -> io::Result<Hello> {
        self.spawn(0)
    }

    /// Spawn a child at slot `seq` and report the outcome to the machine.
    /// Recovery and the air's catch-up come before the `Hello`, so it gets
    /// ten hang deadlines.
    fn spawn(&mut self, seq: u64) -> io::Result<Hello> {
        let cause = self.restart.cause().unwrap_or(RestartCause::Initial);
        let spawned = Running::spawn((self.command)(seq), self.hang_deadline * 10);
        self.restart.rebuilt(spawned.is_ok(), seq);
        let (child, hello) = spawned?;
        self.child = Some(child);
        self.restart_log.push(RestartEvent {
            at_seq: seq,
            cause,
            hello: hello.clone(),
        });
        Ok(hello)
    }

    /// SIGKILL the child now; the next fed slot starts the restart path.
    pub fn kill_now(&mut self) {
        if self.child.is_some() {
            self.child_down(RestartCause::Killed);
        }
    }

    /// Feed slot `seq`: its ack, or why it was lost. Never blocks past the
    /// hang deadline (ten for a respawn's `Hello`).
    pub fn feed(&mut self, seq: u64) -> SlotOutcome {
        let action = self.restart.next(seq);
        if action == Action::Park || (action == Action::Rebuild && self.spawn(seq).is_err()) {
            return self.lost(if self.restart.is_open() {
                SlotOutcome::LameDuck
            } else {
                SlotOutcome::ChildDown
            });
        }
        let deadline = self.hang_deadline;
        let Some(child) = self.child.as_mut() else {
            return self.lost(SlotOutcome::ChildDown);
        };
        let sent = writeln!(child.stdin, "{seq}").and_then(|()| child.stdin.flush());
        let reply = sent.map_err(|_| RestartCause::Crash).and_then(|()| loop {
            if let Line::Ack(ack) = child.await_line(deadline)? {
                break Ok(ack);
            }
        });
        match reply {
            Ok(ack) => SlotOutcome::Acked(ack),
            Err(cause) => {
                self.child_down(cause);
                self.lost(SlotOutcome::ChildDown)
            }
        }
    }

    /// Clean shutdown: close the child's stdin and let it checkpoint and
    /// exit, SIGKILLing it past `FINISH_WAIT` (5 s). True when it exited in
    /// time.
    pub fn finish(&mut self) -> bool {
        self.child.take().is_some_and(|c| c.end(FINISH_WAIT))
    }

    fn child_down(&mut self, cause: RestartCause) {
        if let Some(child) = self.child.take() {
            child.end(Duration::ZERO);
        }
        self.restart.went_down(cause);
    }

    fn lost(&mut self, outcome: SlotOutcome) -> SlotOutcome {
        self.slots_lost += 1;
        outcome
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        if let Some(child) = self.child.take() {
            child.end(Duration::ZERO);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrscope::restart::BreakerState;

    /// The breaker is the only respawn meter: a command that never starts
    /// spends one token per fed slot, drains the budget, opens the
    /// breaker, and is not tried again until the half-open probe, which
    /// fails and re-opens it.
    #[test]
    fn failing_spawn_drains_the_budget_then_waits_for_the_probe() {
        let cfg = SuperviseConfig {
            restart_budget: 2,
            restart_budget_window_slots: 1_000_000,
            breaker_halfopen_after_slots: 10,
        };
        let (tx, spawns) = channel();
        let command = move |seq| {
            tx.send(seq).unwrap();
            Command::new("/nonexistent/nrscope-child")
        };
        let mut harness = Harness::new(command, Duration::from_millis(100), &cfg);
        for seq in 0..32 {
            let out = harness.feed(seq);
            assert_eq!(matches!(out, SlotOutcome::ChildDown), seq < 2, "{seq}");
        }
        let spawns: Vec<u64> = spawns.try_iter().collect();
        assert_eq!(spawns, [0, 1, 12, 22], "two tokens, then one probe each");
        assert_eq!(harness.breaker().state(), BreakerState::Open);
        assert_eq!(harness.breaker().openings(), 3);
        assert_eq!(harness.slots_lost(), 32);
    }
}
