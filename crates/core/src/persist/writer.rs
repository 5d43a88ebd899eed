//! The write side: the group-commit [`JournalWriter`] thread, the
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
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
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
}

/// Drop to `NonDurable`, recording `why`. An atomic swap, because the
/// writer thread (retries exhausted) and the session (queue full past
/// grace, writer gone, re-anchor failed) may demote concurrently: one
/// outage is one demotion, whoever observes it first counts it.
pub(super) fn demote_non_durable(rung: &AtomicU64, metrics: &Metrics, why: impl Into<String>) {
    let prev = rung.swap(DurabilityRung::NonDurable as u64, Relaxed);
    metrics.gauge_set(Gauge::DurabilityRung, DurabilityRung::NonDurable as u64);
    if prev != DurabilityRung::NonDurable as u64 {
        metrics.inc(Counter::StorageDemotions);
        metrics.note("storage_demotion", why);
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

/// What became of a submitted batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SubmitOutcome {
    /// Queued on the writer thread.
    Queued,
    /// Queue full past [`SUBMIT_GRACE_US`]: the writer is wedged or
    /// hopelessly behind. The batch was dropped.
    Full,
    /// The writer thread is gone (died or shut down).
    Gone,
}

/// Everything the writer thread needs to serve one journal file's
/// durability ladder, bundled so [`WriterCmd::Open`] stays readable.
pub(super) struct WriterCtx {
    /// Path currently open (probe recovery reopens it after a fault).
    pub(super) path: PathBuf,
    pub(super) durable: Arc<AtomicU64>,
    pub(super) metrics: Arc<Metrics>,
    /// The store owning this journal — the emergency-prune and re-probe
    /// paths act on it (same backend, same fault schedule).
    pub(super) store: SessionStore,
    /// Shared durability rung (see [`DurabilityRung`]).
    pub(super) rung: Arc<AtomicU64>,
}

enum WriterCmd {
    /// Register a journal file under `id` and open it for append.
    Open {
        id: u64,
        ctx: Box<WriterCtx>,
        ack: SyncSender<bool>,
    },
    /// Encode and append one sealed batch to file `id`. The records
    /// arrive unencoded: serialization is the writer thread's job, so the
    /// capture hot path pays only the move.
    Batch { id: u64, entries: Vec<JournalEntry> },
    /// Switch file `id` to a new path. Refused (ack `false`) while the
    /// old file has an unacknowledged write failure or the new file
    /// cannot be opened — the caller keeps the old file and retries.
    Rotate {
        id: u64,
        path: PathBuf,
        ack: SyncSender<bool>,
    },
    /// Ack once every previously queued batch for `id` has been handed to
    /// the OS (`true` iff all of them succeeded since the last rotation).
    Barrier { id: u64, ack: SyncSender<bool> },
    /// While `NonDurable`: test the disk with a probe write, and on
    /// success reopen the journal and climb back to `DurableDegraded`.
    /// Fire-and-forget — the session observes the outcome through the
    /// shared rung atomic.
    Probe { id: u64 },
    /// Sleep in-line on the writer thread, so queued batches back up as
    /// they would behind a blocked disk
    /// ([`PersistentSession::inject_writer_wedge`](super::PersistentSession::inject_writer_wedge)).
    Wedge { duration_ms: u64 },
    /// Drain and forget file `id`.
    Close { id: u64, ack: SyncSender<bool> },
}

struct WriterFile {
    ctx: WriterCtx,
    file: Box<dyn StorageFile>,
    /// Bytes known good in `file`: a retry truncates back to this before
    /// rewriting, so a short write can never leave a torn batch followed
    /// by a good one.
    committed_len: u64,
    /// First-attempt successes since the last write error; promotes
    /// `DurableDegraded` → `Durable` at [`PROMOTE_CLEAN_BATCHES`].
    clean_streak: u32,
    /// False after a failed batch write; a rotation observed while
    /// unhealthy is refused (the failure is already counted) and the flag
    /// resets so the next attempt can succeed.
    healthy: bool,
}

impl WriterFile {
    fn open(ctx: WriterCtx) -> io::Result<WriterFile> {
        let file = ctx.store.backend().open_append(&ctx.path)?;
        let committed_len = file.file_len().unwrap_or(0);
        Ok(WriterFile {
            ctx,
            file,
            committed_len,
            clean_streak: 0,
            healthy: true,
        })
    }

    /// (Re)open `path` for append, committing to whatever it already holds.
    fn reopen(&mut self, path: PathBuf) -> io::Result<()> {
        let file = self.ctx.store.backend().open_append(&path)?;
        self.committed_len = file.file_len().unwrap_or(0);
        self.file = file;
        self.ctx.path = path;
        Ok(())
    }

    fn rung(&self) -> DurabilityRung {
        DurabilityRung::from_u64(self.ctx.rung.load(Relaxed))
    }

    fn set_rung(&self, rung: DurabilityRung) {
        self.ctx.rung.store(rung as u64, Relaxed);
        self.ctx
            .metrics
            .gauge_set(Gauge::DurabilityRung, rung as u64);
    }

    /// Append one encoded batch with the ladder's bounded-retry policy.
    /// Transient errors back off and retry (after truncating any torn
    /// tail); `ENOSPC` gets one emergency prune before its first retry;
    /// exhausted retries demote to `NonDurable` and drop the batch.
    fn append_batch(&mut self, bytes: &[u8], n_records: u64, last_seq: u64) {
        if self.rung() == DurabilityRung::NonDurable {
            // Demoted (e.g. by writer-death detection racing a recovery):
            // the batch is lost and counted; the session stops sending
            // once it observes the rung.
            self.ctx
                .metrics
                .add(Counter::JournalWriteFailures, n_records);
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
                    self.ctx.durable.store(last_seq + 1, Relaxed);
                    self.ctx.metrics.inc(Counter::JournalBatches);
                    if attempt == 0 {
                        self.clean_streak = self.clean_streak.saturating_add(1);
                        if self.clean_streak >= PROMOTE_CLEAN_BATCHES
                            && self.rung() == DurabilityRung::DurableDegraded
                        {
                            self.set_rung(DurabilityRung::Durable);
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
                    if self.rung() == DurabilityRung::Durable {
                        self.set_rung(DurabilityRung::DurableDegraded);
                    }
                    if is_enospc(&e) && !pruned {
                        // Disk full: free what the ladder can spare —
                        // old checkpoints and the journals they cover —
                        // then retry the write into the reclaimed space.
                        pruned = true;
                        self.ctx.store.prune(EMERGENCY_PRUNE_KEEP);
                        self.ctx.metrics.inc(Counter::EmergencyPrunes);
                        self.ctx.metrics.note("storage_error", e.to_string());
                    }
                    attempt += 1;
                    if attempt > STORAGE_RETRY_MAX {
                        demote_non_durable(&self.ctx.rung, &self.ctx.metrics, e.to_string());
                        self.ctx
                            .metrics
                            .add(Counter::JournalWriteFailures, n_records);
                        self.healthy = false;
                        return;
                    }
                    self.ctx.metrics.inc(Counter::StorageRetries);
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

    /// The `NonDurable` → `DurableDegraded` transition: probe the disk,
    /// and on success reopen the journal path so appends resume.
    fn try_recover(&mut self) {
        if self.rung() != DurabilityRung::NonDurable || !self.ctx.store.probe_write() {
            return;
        }
        match self.reopen(self.ctx.path.clone()) {
            Ok(()) => {
                self.healthy = true;
                self.clean_streak = 0;
                self.set_rung(DurabilityRung::DurableDegraded);
            }
            Err(e) => {
                // Probe ok but the journal itself will not reopen: stay
                // demoted and record why.
                self.ctx.metrics.note("storage_error", e.to_string());
            }
        }
    }
}

struct WriterShared {
    tx: Mutex<Option<SyncSender<WriterCmd>>>,
    handle: Mutex<Option<JoinHandle<()>>>,
    next_id: AtomicU64,
    pool: Arc<Mutex<Vec<Vec<JournalEntry>>>>,
}

impl Drop for WriterShared {
    fn drop(&mut self) {
        lock_clean(&self.tx).take();
        if let Some(h) = lock_clean(&self.handle).take() {
            let _ = h.join();
        }
    }
}

/// Shared group-commit journal writer: one background thread serving any
/// number of journal files (each durable fleet shard registers its own),
/// so N cells cost one writer thread and batched syscalls instead of N
/// flush-per-slot streams. Cloning shares the thread; it exits when the
/// last clone drops.
#[derive(Clone)]
pub struct JournalWriter {
    shared: Arc<WriterShared>,
}

impl JournalWriter {
    /// Start a writer thread with no registered files.
    pub fn spawn() -> JournalWriter {
        let (tx, rx) = sync_channel::<WriterCmd>(WRITER_QUEUE_DEPTH);
        let pool = Arc::new(Mutex::new(Vec::new()));
        let pool_for_thread = Arc::clone(&pool);
        let handle = spawn_background("journal", move || writer_loop(rx, pool_for_thread));
        JournalWriter {
            shared: Arc::new(WriterShared {
                tx: Mutex::new(Some(tx)),
                handle: Mutex::new(Some(handle)),
                next_id: AtomicU64::new(1),
                pool,
            }),
        }
    }

    fn send(&self, cmd: WriterCmd) -> bool {
        match lock_clean(&self.shared.tx).as_ref() {
            Some(tx) => tx.send(cmd).is_ok(),
            None => false,
        }
    }

    /// Non-blocking command enqueue: `Full` when the queue is backed up
    /// (a wedged or hopelessly behind writer), `Gone` when the thread has
    /// exited. Returns the command on `Full` so the caller can retry.
    fn try_send(&self, cmd: WriterCmd) -> Result<(), TrySendError<WriterCmd>> {
        match lock_clean(&self.shared.tx).as_ref() {
            Some(tx) => tx.try_send(cmd),
            None => Err(TrySendError::Disconnected(cmd)),
        }
    }

    fn send_acked(&self, make: impl FnOnce(SyncSender<bool>) -> WriterCmd) -> bool {
        let (ack_tx, ack_rx) = sync_channel(1);
        self.send(make(ack_tx)) && ack_rx.recv() == Ok(true)
    }

    /// Register a journal file for append; returns its id.
    pub(super) fn register(&self, ctx: WriterCtx) -> io::Result<u64> {
        let id = self.shared.next_id.fetch_add(1, Relaxed);
        let path = ctx.path.clone();
        let opened = self.send_acked(|ack| WriterCmd::Open {
            id,
            ctx: Box::new(ctx),
            ack,
        });
        if opened {
            Ok(id)
        } else {
            Err(io::Error::other(format!(
                "journal writer could not open {}",
                path.display()
            )))
        }
    }

    /// Queue one sealed batch (fire and forget — failures are counted by
    /// the writer thread against the file's metrics) with bounded
    /// patience: if the queue stays full past [`SUBMIT_GRACE_US`] the
    /// batch is given up as [`SubmitOutcome::Full`] rather than blocking
    /// the slot loop behind a wedged writer — the liveness contract is
    /// that decode outlives storage, whatever storage is doing.
    pub(super) fn submit(&self, id: u64, entries: Vec<JournalEntry>) -> SubmitOutcome {
        let mut cmd = WriterCmd::Batch { id, entries };
        let deadline = Instant::now() + Duration::from_micros(SUBMIT_GRACE_US);
        loop {
            match self.try_send(cmd) {
                Ok(()) => return SubmitOutcome::Queued,
                Err(TrySendError::Disconnected(_)) => return SubmitOutcome::Gone,
                Err(TrySendError::Full(c)) => {
                    if Instant::now() >= deadline {
                        return SubmitOutcome::Full;
                    }
                    cmd = c;
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
    }

    pub(super) fn rotate(&self, id: u64, path: PathBuf) -> bool {
        self.send_acked(|ack| WriterCmd::Rotate { id, path, ack })
    }

    pub(super) fn barrier(&self, id: u64) -> bool {
        self.send_acked(|ack| WriterCmd::Barrier { id, ack })
    }

    /// Queue a disk re-probe for file `id` (fire and forget; the outcome
    /// lands in the shared rung atomic). Non-blocking: while the writer
    /// is wedged with a full queue the probe is simply skipped — the
    /// flap backoff schedules another.
    pub(super) fn probe(&self, id: u64) -> bool {
        self.try_send(WriterCmd::Probe { id }).is_ok()
    }

    /// Wedge the writer thread for `dur`. Returns `false` if the command
    /// could not be enqueued (thread gone or queue already full).
    pub(super) fn wedge(&self, dur: Duration) -> bool {
        self.try_send(WriterCmd::Wedge {
            duration_ms: dur.as_millis() as u64,
        })
        .is_ok()
    }

    pub(super) fn close(&self, id: u64) -> bool {
        self.send_acked(|ack| WriterCmd::Close { id, ack })
    }

    /// A recycled record buffer, if one is pooled.
    pub(super) fn pooled_buf(&self) -> Vec<JournalEntry> {
        lock_clean(&self.shared.pool).pop().unwrap_or_default()
    }
}

fn writer_loop(rx: Receiver<WriterCmd>, pool: Arc<Mutex<Vec<Vec<JournalEntry>>>>) {
    let mut files: HashMap<u64, WriterFile> = HashMap::new();
    // Scratch encode buffer, reused across batches: it grows once to the
    // steady-state batch size and never reallocates after.
    let mut scratch: Vec<u8> = Vec::new();
    while let Ok(cmd) = rx.recv() {
        match cmd {
            WriterCmd::Open { id, ctx, ack } => {
                let opened = WriterFile::open(*ctx).map(|f| files.insert(id, f));
                let _ = ack.send(opened.is_ok());
            }
            WriterCmd::Batch { id, mut entries } => {
                if let (Some(f), Some(last)) = (files.get_mut(&id), entries.last()) {
                    codec::encode_batch_into(&mut scratch, &entries);
                    f.append_batch(&scratch, entries.len() as u64, last.seq);
                }
                entries.clear();
                let mut p = lock_clean(&pool);
                if p.len() < BUF_POOL_MAX {
                    p.push(entries);
                }
            }
            WriterCmd::Rotate { id, path, ack } => {
                let ok = match files.get_mut(&id) {
                    Some(f) => {
                        // Everything queued before this command has been
                        // written (in-order channel); refuse the switch if
                        // any of it failed so the caller retries instead
                        // of silently abandoning the old file's tail.
                        let was_healthy = f.healthy;
                        f.healthy = true;
                        was_healthy && f.reopen(path).is_ok()
                    }
                    None => false,
                };
                let _ = ack.send(ok);
            }
            WriterCmd::Barrier { id, ack } => {
                let _ = ack.send(files.get(&id).is_some_and(|f| f.healthy));
            }
            WriterCmd::Probe { id } => {
                if let Some(f) = files.get_mut(&id) {
                    f.try_recover();
                }
            }
            WriterCmd::Wedge { duration_ms } => {
                std::thread::sleep(Duration::from_millis(duration_ms));
            }
            WriterCmd::Close { id, ack } => {
                files.remove(&id);
                let _ = ack.send(true);
            }
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
/// depth-1 channel. The hot path hands over a frozen [`SessionState`] and
/// returns immediately; if the previous write is still in flight the
/// request is skipped (and counted) rather than queued — a fresher
/// snapshot is always coming. Installing, pruning and accounting are
/// [`SessionStore::checkpoint`].
pub(super) struct CheckpointWriter {
    tx: Option<SyncSender<SessionState>>,
    handle: Option<JoinHandle<()>>,
    last_written: Arc<AtomicU64>,
    metrics: Arc<Metrics>,
}

impl CheckpointWriter {
    pub(super) fn spawn(store: SessionStore, metrics: Arc<Metrics>) -> CheckpointWriter {
        let (tx, rx) = sync_channel::<SessionState>(1);
        let last_written = Arc::new(AtomicU64::new(0));
        let last = Arc::clone(&last_written);
        let m = Arc::clone(&metrics);
        let handle = spawn_background("checkpoint", move || {
            while let Ok(state) = rx.recv() {
                if let Ok(slot) = store.checkpoint(&state, &m) {
                    last.store(slot, Relaxed);
                }
            }
        });
        CheckpointWriter {
            tx: Some(tx),
            handle: Some(handle),
            last_written,
            metrics,
        }
    }

    /// Offer a snapshot; returns immediately. Skipped (and counted) when
    /// the writer is still busy with the previous one.
    pub(super) fn try_submit(&self, state: SessionState) {
        if let Some(tx) = &self.tx {
            match tx.try_send(state) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                    self.metrics.inc(Counter::CheckpointsSkipped);
                }
            }
        }
    }

    /// Newest slot durably checkpointed by the background thread.
    pub(super) fn last_written(&self) -> u64 {
        self.last_written.load(Relaxed)
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
