//! The write side: a session's group-commit journal-writer thread, its
//! background checkpoint thread, and the durability ladder both climb.
//!
//! The capture hot path only moves owned records into a [`BatchBuf`];
//! encoding, checksumming and every syscall happen on the two threads
//! here, through the session's [`StorageBackend`](super::StorageBackend).

use super::codec::{self, JournalEntry, MicroState, SessionState, SlotOp};
use super::session::SessionStore;
use super::storage::{is_enospc, StorageFile};
use crate::metrics::{Counter, Gauge, Metrics};
use crate::worker::{lock_clean, spawn_background};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The durability ladder: how much the session currently promises about
/// crash survival. Stored as a `u64` in a shared atomic (and exported as
/// the `durability_rung` gauge), so the writer thread, the hot path, and
/// fleet rollups all see one truth without locking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DurabilityRung {
    /// Journal + checkpoints healthy: `kill -9` loses at most
    /// [`PersistConfig::loss_window_slots`](super::PersistConfig::loss_window_slots).
    Durable = 0,
    /// A recent storage error was retried (or recovery from `NonDurable`
    /// is being confirmed): same bounded loss window, but the disk is
    /// suspect. Promotes back to `Durable` after a clean-write streak.
    DurableDegraded = 1,
    /// Storage failed persistently: decoding continues, nothing is being
    /// journalled, and the loss window is **unbounded** — reported
    /// honestly as such. A background probe re-promotes when the disk
    /// recovers.
    NonDurable = 2,
}

/// What moves the durability ladder ([`DurabilityRung::next`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum LadderEvent {
    /// A batch write failed (it is being retried).
    WriteError,
    /// [`PROMOTE_CLEAN_BATCHES`] first-attempt writes in a row.
    CleanStreak,
    /// Journalling stopped: retries exhausted, the writer full past the
    /// submit grace or gone, or a re-anchor checkpoint failed.
    Lost,
    /// The disk probe passed and the journal reopened.
    ProbeOk,
}

impl DurabilityRung {
    /// Stable snake_case name used in rollups and JSON.
    pub fn name(self) -> &'static str {
        match self {
            DurabilityRung::Durable => "durable",
            DurabilityRung::DurableDegraded => "durable_degraded",
            DurabilityRung::NonDurable => "non_durable",
        }
    }

    /// Decode the gauge/atomic encoding (clamps unknown values to
    /// `NonDurable` — the honest direction to be wrong in).
    pub fn from_u64(v: u64) -> DurabilityRung {
        match v {
            0 => DurabilityRung::Durable,
            1 => DurabilityRung::DurableDegraded,
            _ => DurabilityRung::NonDurable,
        }
    }

    /// The ladder's one step: demote fast (one write error), promote
    /// slow (a clean streak, or a passed probe to the middle rung only),
    /// and `Lost` from anywhere to the bottom, which only a probe leaves.
    pub(super) fn next(self, event: LadderEvent) -> DurabilityRung {
        use DurabilityRung::*;
        match (self, event) {
            (_, LadderEvent::Lost) => NonDurable,
            (Durable, LadderEvent::WriteError) => DurableDegraded,
            (DurableDegraded, LadderEvent::CleanStreak) => Durable,
            (NonDurable, LadderEvent::ProbeOk) => DurableDegraded,
            (rung, _) => rung,
        }
    }
}

/// Apply `event` to a session's shared `rung`: the one writer of the rung
/// atomic and, for the session's metrics, of the `durability_rung` gauge,
/// `storage_demotions` and the `storage_demotion` note (`why`, read only
/// on a demotion). A compare-and-swap, because the writer thread and the
/// session step concurrently: a write error can never lift a demotion
/// that raced it, and one outage is one demotion, whoever sees it first.
pub(super) fn step_ladder(rung: &AtomicU64, metrics: &Metrics, event: LadderEvent, why: &str) {
    let mut cur = rung.load(SeqCst);
    let to = loop {
        let to = DurabilityRung::from_u64(cur).next(event);
        if to as u64 == cur {
            return;
        }
        match rung.compare_exchange_weak(cur, to as u64, SeqCst, SeqCst) {
            Ok(_) => break to,
            Err(now) => cur = now,
        }
    };
    if to == DurabilityRung::NonDurable {
        metrics.inc(Counter::StorageDemotions);
        metrics.note("storage_demotion", why);
    }
    // Publish what the rung is, not what this step made it: a racing
    // step may have moved it since, and its gauge write may land first.
    loop {
        let shown = rung.load(SeqCst);
        metrics.gauge_set(Gauge::DurabilityRung, shown);
        fence(SeqCst);
        if rung.load(SeqCst) == shown {
            return;
        }
    }
}

/// Consecutive first-attempt batch writes before `DurableDegraded`
/// promotes back to `Durable` — promote-slow hysteresis applied to disks
/// (one good write after an error streak proves little).
const PROMOTE_CLEAN_BATCHES: u32 = 4;

/// Write retries (on the writer thread — never the capture hot path)
/// before a failing batch demotes the session to `NonDurable`.
const STORAGE_RETRY_MAX: u32 = 4;

/// Base backoff before a failed batch write is retried, doubling per
/// attempt. Retries run on the writer thread: with
/// [`STORAGE_RETRY_MAX`] of 4 the worst case blocks it ~7.5 ms — bounded,
/// and invisible to the capture hot path unless its queue fills.
const RETRY_BACKOFF_BASE_US: u64 = 500;

/// Checkpoints retained by the emergency prune that `ENOSPC` triggers
/// before the write is retried (journals wholly covered by the kept
/// checkpoints are pruned too): fresh state beats history on a full disk.
const EMERGENCY_PRUNE_KEEP: usize = 1;

/// Cap on the re-probe flap backoff exponent
/// (`reprobe_interval_slots << exp`), a demote-fast / promote-slow
/// hysteresis: 2048-slot probes degrade to ~2
/// minutes between attempts on a disk that stays dead.
pub(super) const MAX_PROBE_FLAP_EXP: u32 = 6;
pub(super) const WRITER_QUEUE_DEPTH: usize = 8;
const BUF_POOL_MAX: usize = 16;

/// How long a batch submit will wait on a full writer queue before giving
/// the batch up and demoting durability. Generous next to the ~2 ms flush
/// latency deadline, tiny next to a real wedge — the slot loop must keep
/// decoding while storage is stuck.
const SUBMIT_GRACE_US: u64 = 5_000;

enum WriterCmd {
    /// Encode and append one sealed batch. The records arrive unencoded:
    /// serialization is the writer thread's job, so the capture hot path
    /// pays only the move.
    Batch(Vec<JournalEntry>),
    /// Ack once every previously queued batch has been handed to the OS
    /// (`true` iff no batch has been lost since the journal was last
    /// opened healthy).
    Barrier(SyncSender<bool>),
    /// While `NonDurable`: test the disk with a probe write, and on
    /// success reopen the journal and climb back to `DurableDegraded`.
    /// Fire-and-forget — the session observes the outcome through the
    /// shared rung atomic.
    Probe,
    /// Sleep in-line on the writer thread, so queued batches back up as
    /// they would behind a blocked disk
    /// ([`PersistentSession::inject_writer_wedge`](super::PersistentSession::inject_writer_wedge)).
    Wedge(Duration),
}

/// The journal file the writer thread appends to, and the ladder it
/// serves.
struct WriterFile {
    /// Path currently open (probe recovery reopens it after a fault).
    path: PathBuf,
    file: Box<dyn StorageFile>,
    /// The store owning this journal — the emergency-prune and re-probe
    /// paths act on it (same backend, same fault schedule).
    store: SessionStore,
    /// The session's durable watermark, advanced per written batch.
    durable: Arc<AtomicU64>,
    /// Newest slot durably checkpointed: by the checkpoint thread, or by
    /// the session's re-anchor after a storage outage.
    checkpointed: Arc<AtomicU64>,
    /// Newest checkpoint the open file already answers for (at first, the
    /// slot it starts at): a newer one rotates the file.
    covered: u64,
    /// The session's durability rung (see [`DurabilityRung`]).
    rung: Arc<AtomicU64>,
    metrics: Arc<Metrics>,
    /// Bytes known good in `file`: a retry truncates back to this before
    /// rewriting, so a short write can never leave a torn batch followed
    /// by a good one.
    committed_len: u64,
    /// First-attempt successes since the last write error; promotes
    /// `DurableDegraded` → `Durable` at [`PROMOTE_CLEAN_BATCHES`].
    clean_streak: u32,
    /// False from a lost batch until a probe reopens the journal.
    healthy: bool,
}

impl WriterFile {
    /// (Re)open `path` for append, committing to whatever it already holds.
    fn reopen(&mut self, path: PathBuf) -> io::Result<()> {
        let file = self.store.backend().open_append(&path)?;
        self.committed_len = file.file_len().unwrap_or(0);
        self.file = file;
        self.path = path;
        Ok(())
    }

    fn rung(&self) -> DurabilityRung {
        DurabilityRung::from_u64(self.rung.load(Relaxed))
    }

    fn step(&self, event: LadderEvent, why: &str) {
        step_ladder(&self.rung, &self.metrics, event, why);
    }

    /// At a batch boundary, once a checkpoint newer than what the open
    /// file answers for is durable, start a file at the batch's first
    /// slot: replay from that checkpoint no longer needs the old file, so
    /// routine pruning can drop it. Not after a lost batch (the old file's
    /// tail would be abandoned) nor while `NonDurable` (nothing would land
    /// in the new one). A file that fails to open is retried at the next
    /// batch; the old one stays open meanwhile.
    fn rotate_if_checkpointed(&mut self, first_seq: u64) {
        let checkpoint = self.checkpointed.load(Relaxed);
        if checkpoint <= self.covered || !self.healthy || self.rung() == DurabilityRung::NonDurable
        {
            return;
        }
        if self.reopen(self.store.journal_path(first_seq)).is_ok() {
            self.covered = checkpoint.max(first_seq);
        }
    }

    /// Append one encoded batch with the ladder's bounded-retry policy.
    /// Transient errors back off and retry (after truncating any torn
    /// tail); `ENOSPC` gets one emergency prune before its first retry;
    /// exhausted retries demote to `NonDurable` and drop the batch.
    fn append_batch(&mut self, bytes: &[u8], n_records: u64, last_seq: u64) {
        if self.rung() == DurabilityRung::NonDurable {
            // Demoted: the batch is lost and counted; the session stops
            // sending once it observes the rung.
            self.metrics.add(Counter::JournalWriteFailures, n_records);
            return;
        }
        let mut pruned = false;
        let mut attempt = 0u32;
        loop {
            match self.file.write_all(bytes) {
                Ok(()) => {
                    // The batch is in the OS: `kill -9` of this process
                    // can no longer lose it. (Machine-crash durability
                    // would need fsync here — same guarantee level the
                    // old flush-per-slot journal offered.)
                    self.committed_len += bytes.len() as u64;
                    self.durable.store(last_seq + 1, Relaxed);
                    self.metrics.inc(Counter::JournalBatches);
                    if attempt == 0 {
                        self.clean_streak = self.clean_streak.saturating_add(1);
                        if self.clean_streak >= PROMOTE_CLEAN_BATCHES {
                            self.step(LadderEvent::CleanStreak, "");
                        }
                    } else {
                        // Succeeded only on retry: stay degraded, restart
                        // the streak the promotion needs.
                        self.clean_streak = 0;
                    }
                    return;
                }
                Err(e) => {
                    self.clean_streak = 0;
                    self.step(LadderEvent::WriteError, "");
                    if is_enospc(&e) && !pruned {
                        // Disk full: free what the ladder can spare —
                        // old checkpoints and the journals they cover —
                        // then retry the write into the reclaimed space.
                        pruned = true;
                        self.store.prune(EMERGENCY_PRUNE_KEEP);
                        self.metrics.inc(Counter::EmergencyPrunes);
                        self.metrics.note("storage_error", e.to_string());
                    }
                    attempt += 1;
                    if attempt > STORAGE_RETRY_MAX {
                        self.step(LadderEvent::Lost, &e.to_string());
                        self.metrics.add(Counter::JournalWriteFailures, n_records);
                        self.healthy = false;
                        return;
                    }
                    self.metrics.inc(Counter::StorageRetries);
                    // Cut any torn tail back to the last committed batch
                    // boundary before rewriting (failure tolerated: the
                    // reader discards a torn batch whole anyway).
                    let _ = self.file.truncate(self.committed_len);
                    std::thread::sleep(Duration::from_micros(
                        RETRY_BACKOFF_BASE_US << (attempt - 1).min(4),
                    ));
                }
            }
        }
    }

    /// While `NonDurable`: probe the disk, and on success reopen the
    /// journal path so appends resume.
    fn try_recover(&mut self) {
        if self.rung() != DurabilityRung::NonDurable || !self.store.probe_write() {
            return;
        }
        match self.reopen(self.path.clone()) {
            Ok(()) => {
                self.healthy = true;
                self.clean_streak = 0;
                self.step(LadderEvent::ProbeOk, "");
            }
            Err(e) => {
                // Probe ok but the journal itself will not reopen: stay
                // demoted and record why.
                self.metrics.note("storage_error", e.to_string());
            }
        }
    }
}

/// One durable session's group-commit journal writer: a background thread
/// holding the session's journal file, so a stalled disk holds only that
/// session's batches. Dropping it drains the queue and joins the thread.
pub(super) struct JournalWriter {
    tx: SyncSender<WriterCmd>,
    handle: Option<JoinHandle<()>>,
    pool: Arc<Mutex<Vec<Vec<JournalEntry>>>>,
}

impl JournalWriter {
    /// Open the journal file starting at `start` for append on the
    /// caller's thread (so a dead disk fails the open, not a later batch),
    /// then start the thread that writes it and rotates it after each
    /// checkpoint published to `checkpointed`.
    pub(super) fn spawn(
        store: SessionStore,
        start: u64,
        durable: Arc<AtomicU64>,
        checkpointed: Arc<AtomicU64>,
        rung: Arc<AtomicU64>,
        metrics: Arc<Metrics>,
    ) -> io::Result<JournalWriter> {
        let path = store.journal_path(start);
        let file = store.backend().open_append(&path)?;
        let mut w = WriterFile {
            committed_len: file.file_len().unwrap_or(0),
            path,
            file,
            store,
            durable,
            checkpointed,
            covered: start,
            rung,
            metrics,
            clean_streak: 0,
            healthy: true,
        };
        let (tx, rx) = sync_channel::<WriterCmd>(WRITER_QUEUE_DEPTH);
        let pool = Arc::new(Mutex::new(Vec::new()));
        let p = Arc::clone(&pool);
        let handle = spawn_background("journal", move || writer_loop(rx, &mut w, &p));
        Ok(JournalWriter {
            tx,
            handle: Some(handle),
            pool,
        })
    }

    /// Queue one sealed batch (fire and forget — failures are counted by
    /// the writer thread) with bounded patience: if the queue stays full
    /// past [`SUBMIT_GRACE_US`] the batch is given up rather than
    /// blocking the slot loop behind a wedged writer — the liveness
    /// contract is that decode outlives storage, whatever storage is
    /// doing. `Err` says why the batch was dropped.
    pub(super) fn submit(&self, entries: Vec<JournalEntry>) -> Result<(), &'static str> {
        let mut cmd = WriterCmd::Batch(entries);
        let deadline = Instant::now() + Duration::from_micros(SUBMIT_GRACE_US);
        loop {
            match self.tx.try_send(cmd) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Disconnected(_)) => return Err("journal writer thread gone"),
                Err(TrySendError::Full(c)) => {
                    if Instant::now() >= deadline {
                        return Err("journal writer unresponsive (queue full past grace)");
                    }
                    cmd = c;
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
    }

    pub(super) fn barrier(&self) -> bool {
        let (ack_tx, ack_rx) = sync_channel(1);
        self.tx.send(WriterCmd::Barrier(ack_tx)).is_ok() && ack_rx.recv() == Ok(true)
    }

    /// Queue a disk re-probe (fire and forget; the outcome lands in the
    /// shared rung atomic). Non-blocking: while the writer is wedged with
    /// a full queue the probe is simply skipped — the flap backoff
    /// schedules another.
    pub(super) fn probe(&self) {
        let _ = self.tx.try_send(WriterCmd::Probe);
    }

    /// Wedge the writer thread for `dur` (skipped if the queue is full).
    pub(super) fn wedge(&self, dur: Duration) {
        let _ = self.tx.try_send(WriterCmd::Wedge(dur));
    }

    /// A recycled record buffer, if one is pooled.
    pub(super) fn pooled_buf(&self) -> Vec<JournalEntry> {
        lock_clean(&self.pool).pop().unwrap_or_default()
    }
}

impl Drop for JournalWriter {
    /// Close the queue (the thread drains what is queued, then exits) and
    /// join the thread.
    fn drop(&mut self) {
        drop(std::mem::replace(&mut self.tx, sync_channel(0).0));
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn writer_loop(rx: Receiver<WriterCmd>, f: &mut WriterFile, pool: &Mutex<Vec<Vec<JournalEntry>>>) {
    // Scratch encode buffer, reused across batches: it grows once to the
    // steady-state batch size and never reallocates after.
    let mut scratch: Vec<u8> = Vec::new();
    while let Ok(cmd) = rx.recv() {
        match cmd {
            WriterCmd::Batch(mut entries) => {
                if let Some(first) = entries.first() {
                    f.rotate_if_checkpointed(first.seq);
                }
                if let Some(last) = entries.last() {
                    codec::encode_batch_into(&mut scratch, &entries);
                    f.append_batch(&scratch, entries.len() as u64, last.seq);
                }
                entries.clear();
                let mut p = lock_clean(pool);
                if p.len() < BUF_POOL_MAX {
                    p.push(entries);
                }
            }
            WriterCmd::Barrier(ack) => {
                let _ = ack.send(f.healthy);
            }
            WriterCmd::Probe => f.try_recover(),
            WriterCmd::Wedge(dur) => std::thread::sleep(dur),
        }
    }
}

/// The hot-path half of group commit: the records of the batch being
/// built. Nothing is serialized here — records are moved in as-is and the
/// writer thread encodes them, so the per-slot cost is a `Vec` push.
#[derive(Default)]
pub(super) struct BatchBuf {
    entries: Vec<JournalEntry>,
    started: Option<Instant>,
}

impl BatchBuf {
    pub(super) fn reset(&mut self, mut entries: Vec<JournalEntry>) {
        entries.clear();
        self.entries = entries;
        self.started = None;
    }

    pub(super) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub(super) fn len(&self) -> u64 {
        self.entries.len() as u64
    }

    pub(super) fn push_record(&mut self, seq: u64, dropped: bool, ops: Vec<SlotOp>) {
        if self.started.is_none() {
            self.started = Some(Instant::now());
        }
        self.entries.push(JournalEntry {
            seq,
            dropped,
            ops,
            micro: None,
        });
    }

    pub(super) fn age_us(&self) -> u64 {
        self.started
            .map(|t| t.elapsed().as_micros() as u64)
            .unwrap_or(0)
    }

    /// Attach `micro` to the final record — the batch's replay re-anchor —
    /// and take the records. The buffer is left empty; call
    /// [`BatchBuf::reset`].
    pub(super) fn seal(&mut self, micro: MicroState) -> Vec<JournalEntry> {
        let last = self.entries.last_mut().expect("seal of a non-empty batch");
        last.micro = Some(micro);
        self.started = None;
        std::mem::take(&mut self.entries)
    }
}

/// Background checkpoint writer: a single worker thread fed through a
/// depth-1 channel. At a cadence point the hot path hands over a frozen
/// [`SessionState`] and returns immediately — but only when the thread has
/// taken the previous one: otherwise nothing is built, and the point is
/// skipped (and counted) rather than queued — a fresher snapshot is always
/// coming. Installing, pruning and accounting are
/// [`SessionStore::checkpoint`]; each installed slot is published to the
/// session's `checkpointed` atomic, which the journal writer rotates on.
pub(super) struct CheckpointWriter {
    tx: Option<SyncSender<SessionState>>,
    handle: Option<JoinHandle<()>>,
    /// Set when a state is handed over, cleared by the thread as it takes
    /// it: while set, the channel is full and a cadence point builds
    /// nothing.
    queued: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
}

impl CheckpointWriter {
    pub(super) fn spawn(
        store: SessionStore,
        checkpointed: Arc<AtomicU64>,
        metrics: Arc<Metrics>,
    ) -> CheckpointWriter {
        let (tx, rx) = sync_channel::<SessionState>(1);
        let queued = Arc::new(AtomicBool::new(false));
        let taken = Arc::clone(&queued);
        let m = Arc::clone(&metrics);
        let handle = spawn_background("checkpoint", move || {
            while let Ok(state) = rx.recv() {
                taken.store(false, Relaxed);
                if let Ok(slot) = store.checkpoint(&state, &m) {
                    checkpointed.fetch_max(slot, Relaxed);
                }
            }
        });
        CheckpointWriter {
            tx: Some(tx),
            handle: Some(handle),
            queued,
            metrics,
        }
    }

    /// Offer the snapshot `state` builds; returns immediately. While the
    /// thread has not yet taken the previous one, `state` is not called
    /// and the cadence point is counted as skipped.
    pub(super) fn offer(&self, state: impl FnOnce() -> SessionState) {
        let Some(tx) = &self.tx else { return };
        if self.queued.swap(true, Relaxed) || tx.try_send(state()).is_err() {
            self.metrics.inc(Counter::CheckpointsSkipped);
        }
    }
}

impl Drop for CheckpointWriter {
    /// Drain and join the writer.
    fn drop(&mut self) {
        self.tx.take();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use DurabilityRung::*;
    use LadderEvent::*;

    const RUNGS: [DurabilityRung; 3] = [Durable, DurableDegraded, NonDurable];
    const EVENTS: [LadderEvent; 4] = [WriteError, CleanStreak, Lost, ProbeOk];

    /// The whole 3×4 table DESIGN.md draws, a row per rung.
    #[test]
    fn next_is_the_documented_table() {
        let (d, dd, nd) = (Durable, DurableDegraded, NonDurable);
        let table = [[dd, d, nd, d], [dd, d, nd, dd], [nd, nd, nd, dd]];
        for (from, row) in RUNGS.into_iter().zip(table) {
            for (event, to) in EVENTS.into_iter().zip(row) {
                assert_eq!(from.next(event), to, "{from:?} on {event:?}");
            }
        }
    }

    /// Every step of every sequence of up to 8 events from each rung.
    fn walk(from: DurabilityRung, depth: u32, steps: &mut u64) {
        if depth == 0 {
            return;
        }
        for event in EVENTS {
            let to = from.next(event);
            *steps += 1;
            if event == Lost {
                assert_eq!(to, NonDurable, "Lost from {from:?}");
            }
            if from == NonDurable && to != NonDurable {
                assert_eq!(event, ProbeOk, "only a probe leaves NonDurable");
            }
            if to == Durable && from != Durable {
                assert_eq!(
                    (from, event),
                    (DurableDegraded, CleanStreak),
                    "only a clean streak from DurableDegraded reaches Durable"
                );
            }
            walk(to, depth - 1, steps);
        }
    }

    #[test]
    fn every_sequence_of_up_to_8_events_keeps_the_ladder_rules() {
        let mut steps = 0;
        for from in RUNGS {
            walk(from, 8, &mut steps);
        }
        // 3 rungs × (4 + 4² + … + 4⁸) steps.
        assert_eq!(steps, 3 * (4u64.pow(9) - 4) / 3);
    }

    /// One `Lost` racing 100k write errors and clean streaks: the
    /// demotion is never lifted, and it is counted and noted once.
    #[test]
    fn a_racing_demotion_sticks_and_counts_once() {
        let rung = Arc::new(AtomicU64::new(Durable as u64));
        let metrics = Arc::new(Metrics::new(true));
        let done = Arc::new(AtomicU64::new(0));
        let flapper = {
            let (rung, metrics, done) =
                (Arc::clone(&rung), Arc::clone(&metrics), Arc::clone(&done));
            std::thread::spawn(move || {
                for i in 0..100_000u64 {
                    let event = if i % 2 == 0 { WriteError } else { CleanStreak };
                    step_ladder(&rung, &metrics, event, "flap");
                    done.store(i, Relaxed);
                }
            })
        };
        while done.load(Relaxed) < 50_000 && !flapper.is_finished() {
            std::hint::spin_loop();
        }
        step_ladder(&rung, &metrics, Lost, "lost");
        flapper.join().unwrap();
        assert_eq!(DurabilityRung::from_u64(rung.load(SeqCst)), NonDurable);
        assert_eq!(metrics.gauge(Gauge::DurabilityRung), NonDurable as u64);
        assert_eq!(metrics.counter(Counter::StorageDemotions), 1);
        assert_eq!(
            metrics.note_detail("storage_demotion").as_deref(),
            Some("lost")
        );
    }
}
