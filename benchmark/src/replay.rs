//! Closed-loop replay of a tape into a fresh session: one public call per
//! slot, one client, one thread, governor pinned so wall-clock cannot
//! change the work.

use crate::tape::{Tape, Workload};
use gnb_sim::CellConfig;
use nrscope::{
    Capture, DurabilityRung, Fidelity, LoadRung, Metrics, NrScope, PersistConfig,
    PersistentSession, RealBackend, ScopeConfig, StorageBackend, TelemetryRecord,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Checkpoint cadence of the durable workload (the repo default, pinned
/// here so a changed default shows up as a diff in this file).
pub const CHECKPOINT_EVERY_SLOTS: u64 = 512;

/// Group-commit batch size of the durable workload (the repo default,
/// pinned like the cadence above). Batches seal on this count only: the
/// session's 2 ms latency ceiling is switched off, because a closed loop
/// at 20x air rate would let the wall clock, not the tape, decide where a
/// batch ends (the same reason the governor is pinned).
pub const FLUSH_MAX_SLOTS: u64 = 128;

/// Slots the journal may trail the slot loop before the replay waits for
/// the writer thread ([`Session::await_journal`]): the batch being built
/// plus three sealed ones. The session's writer queue holds eight batches
/// and, once it stays full for 5 ms, the session stops journalling (by
/// design: live capture must outlive a stuck disk). A closed loop has no
/// air interface to keep up with, so it does what a replaying client
/// does, and waits; the host stalling the writer for a while then costs
/// time in that rep, not the durable path itself.
pub const MAX_JOURNAL_LAG_SLOTS: u64 = 4 * FLUSH_MAX_SLOTS;

/// Longest the replay of one tape waits for the writer, all waits
/// together. Past this the replay goes on without flow control and the
/// session's own ladder takes over (the rep is then reported demoted).
pub const JOURNAL_WAIT_CAP: Duration = Duration::from_secs(10);

/// The session under test: the plain scope, or the scope wrapped with the
/// group-commit journal and checkpoints on the real filesystem.
pub enum Session {
    Plain(Box<NrScope>),
    Durable(Box<PersistentSession>),
}

pub fn scope_config(workload: Workload, metrics_enabled: bool) -> ScopeConfig {
    ScopeConfig {
        fidelity: if workload.iq {
            Fidelity::Iq
        } else {
            Fidelity::Message
        },
        metrics_enabled,
        ..ScopeConfig::default()
    }
}

/// IQ sessions start with no PCI (real cell search on the first SSB);
/// message fidelity carries no SSB waveform, so the PCI is given.
pub fn assumed_pci(workload: Workload, cell: &CellConfig) -> Option<nr_phy::types::Pci> {
    (!workload.iq).then_some(cell.pci)
}

impl Session {
    /// Fresh session for `workload`. `dir` is used (and must not exist
    /// yet) only by durable workloads, which journal to the real
    /// filesystem.
    pub fn open(
        workload: Workload,
        cell: &CellConfig,
        metrics_enabled: bool,
        dir: &Path,
    ) -> io::Result<Session> {
        Session::open_on(workload, cell, metrics_enabled, dir, Arc::new(RealBackend))
    }

    /// [`Session::open`] with the durable session's files going through
    /// `disk` (tests put a failing one there).
    pub fn open_on(
        workload: Workload,
        cell: &CellConfig,
        metrics_enabled: bool,
        dir: &Path,
        disk: Arc<dyn StorageBackend>,
    ) -> io::Result<Session> {
        let cfg = scope_config(workload, metrics_enabled);
        let pci = assumed_pci(workload, cell);
        let mut session = if workload.durable {
            let persist = PersistConfig {
                checkpoint_every_slots: CHECKPOINT_EVERY_SLOTS,
                flush_max_slots: FLUSH_MAX_SLOTS,
                flush_max_latency_us: u64::MAX,
                backend: disk,
                ..PersistConfig::new(dir)
            };
            Session::Durable(Box::new(open_durable(persist, cfg, pci)?))
        } else {
            Session::Plain(Box::new(NrScope::with_metrics(
                cfg,
                pci,
                Metrics::shared(metrics_enabled),
            )))
        };
        session.scope_mut().force_rung(Some(LoadRung::Full));
        Ok(session)
    }

    /// The one public call per slot.
    #[inline]
    pub fn process(&mut self, cap: &Capture) -> Vec<TelemetryRecord> {
        match self {
            Session::Plain(scope) => scope.process_capture(cap),
            Session::Durable(session) => session.process_capture(cap),
        }
    }

    /// Flow control of the closed loop: while the journal trails the slot
    /// loop by [`MAX_JOURNAL_LAG_SLOTS`] or more, wait for the writer
    /// thread, for at most `patience`. Returns the nanoseconds waited (0 on
    /// the plain session and whenever the writer keeps up, which costs two
    /// atomic loads).
    #[inline]
    pub fn await_journal(&self, patience: Duration) -> u64 {
        let Session::Durable(session) = self else {
            return 0;
        };
        let behind = |s: &PersistentSession| {
            s.scope()
                .slot_watermark()
                .saturating_sub(s.durable_watermark())
                >= MAX_JOURNAL_LAG_SLOTS
        };
        if !behind(session) {
            return 0;
        }
        // A session that has stopped journalling never catches up.
        let t0 = Instant::now();
        while behind(session)
            && session.durability_rung() != DurabilityRung::NonDurable
            && t0.elapsed() < patience
        {
            std::thread::sleep(Duration::from_micros(50));
        }
        t0.elapsed().as_nanos() as u64
    }

    pub fn scope(&self) -> &NrScope {
        match self {
            Session::Plain(scope) => scope,
            Session::Durable(session) => session.scope(),
        }
    }

    fn scope_mut(&mut self) -> &mut NrScope {
        match self {
            Session::Plain(scope) => scope,
            Session::Durable(session) => session.scope_mut(),
        }
    }
}

/// Attempts at opening a durable session before the error is passed on.
const OPEN_ATTEMPTS: usize = 3;

/// Open a durable session in a fresh directory. Creating the directory and
/// the first journal file are calls into a shared disk, so an error is
/// tried again (after a pause, on a clean directory) before it is believed.
fn open_durable(
    persist: PersistConfig,
    cfg: ScopeConfig,
    pci: Option<nr_phy::types::Pci>,
) -> io::Result<PersistentSession> {
    let mut attempt = 1;
    loop {
        match PersistentSession::open(persist.clone(), cfg, pci) {
            Ok((session, _report)) => return Ok(session),
            Err(e) if attempt < OPEN_ATTEMPTS => {
                eprintln!(
                    "bench: opening {} failed (attempt {attempt}): {e}",
                    persist.dir.display()
                );
                attempt += 1;
                let _ = std::fs::remove_dir_all(&persist.dir);
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Timings of one whole-tape replay.
pub struct Rep {
    /// Wall seconds of the replay loop.
    pub wall_s: f64,
    /// Service time of each slot's call, ns, in tape order. A wait for the
    /// journal writer ([`Session::await_journal`]) counts toward the slot
    /// it follows.
    pub slot_ns: Vec<u64>,
    /// Times the loop waited for the journal writer, and for how long.
    pub journal_waits: u64,
    pub journal_wait_ns: u64,
}

/// Replay `captures` into `session`, timing every call. Clock reads chain
/// (one per slot boundary) so the loop's wall time and the per-slot
/// service times come from the same readings.
pub fn replay(session: &mut Session, captures: &[Capture]) -> Rep {
    let mut slot_ns = Vec::with_capacity(captures.len());
    let t0 = Instant::now();
    let mut prev = t0;
    let (mut journal_waits, mut journal_wait_ns) = (0, 0);
    let mut patience = JOURNAL_WAIT_CAP;
    for cap in captures {
        std::hint::black_box(session.process(std::hint::black_box(cap)));
        let waited = session.await_journal(patience);
        if waited > 0 {
            journal_waits += 1;
            journal_wait_ns += waited;
            patience = patience.saturating_sub(Duration::from_nanos(waited));
        }
        let now = Instant::now();
        slot_ns.push((now - prev).as_nanos() as u64);
        prev = now;
    }
    Rep {
        wall_s: (prev - t0).as_secs_f64(),
        slot_ns,
        journal_waits,
        journal_wait_ns,
    }
}

/// A scratch directory under `out` that is removed on drop, one per
/// durable session so reps never share journals.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(out: &Path, tag: &str) -> ScratchDir {
        let dir = out.join(format!("durable-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Fresh session + whole-tape replay; returns the session for checking.
/// `workload` is normally `tape.workload`; the durable and plain variants
/// of one tape differ only there.
pub fn run_rep(
    tape: &Tape,
    workload: Workload,
    metrics_enabled: bool,
    dir: &Path,
) -> io::Result<(Session, Rep)> {
    run_rep_on(tape, workload, metrics_enabled, dir, Arc::new(RealBackend))
}

/// [`run_rep`] on a durable session whose files go through `disk`.
pub fn run_rep_on(
    tape: &Tape,
    workload: Workload,
    metrics_enabled: bool,
    dir: &Path,
    disk: Arc<dyn StorageBackend>,
) -> io::Result<(Session, Rep)> {
    let mut session = Session::open_on(workload, &tape.cell, metrics_enabled, dir, disk)?;
    let rep = replay(&mut session, &tape.captures);
    Ok((session, rep))
}
