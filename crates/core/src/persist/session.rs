//! The session directory and the durable session built on it:
//! [`SessionStore`] (atomic snapshot installs, corruption-tolerant
//! loading, pruning, recovery), [`PersistConfig`], and
//! [`PersistentSession`] — an [`NrScope`] whose every processed capture
//! lands in the journal and whose `open` warm-restarts from whatever
//! survived the last crash.

use super::codec::{self, SessionState};
use super::storage::{RealBackend, StorageBackend};
use super::writer::{
    demote_non_durable, BatchBuf, CheckpointWriter, DurabilityRung, JournalWriter, SubmitOutcome,
    WriterCtx, MAX_PROBE_FLAP_EXP, WRITER_QUEUE_DEPTH,
};
use crate::config::{ScopeConfig, StoragePolicy};
use crate::metrics::{Counter, Metrics};
use crate::scope::NrScope;
use crate::telemetry::TelemetryRecord;
use nr_phy::types::Pci;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

/// What recovery found and did — a restarted child reports it in its
/// [`Hello`](crate::supervise::Hello), a restarted fleet shard in its
/// `ShardStatus`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Serialisation schema version.
    pub schema_version: u32,
    /// Whether any prior state was found (false = cold start).
    pub resumed: bool,
    /// Slot of the snapshot restored, if one was valid.
    pub snapshot_slot: Option<u64>,
    /// Snapshots rejected as torn/corrupt/future-schema before one loaded.
    pub corrupt_checkpoints_skipped: u64,
    /// Journal entries applied on top of the snapshot.
    pub replayed_entries: u64,
    /// Journal files whose tail was discarded as truncated, corrupt or
    /// foreign: each rejected tail counts once, whatever its length.
    pub journal_entries_discarded: u64,
    /// The slot the session resumed at (watermark after replay).
    pub resumed_slot: u64,
    /// UEs tracked at resume.
    pub recovered_ues: u64,
}

/// Snapshots retained by routine pruning (the previous one is the
/// fallback when the newest turns out torn).
const KEEP_CHECKPOINTS: usize = 2;

const SNAP_PREFIX: &str = "ckpt-";
const SNAP_SUFFIX: &str = ".snap";
const JOURNAL_PREFIX: &str = "journal-";
const JOURNAL_SUFFIX: &str = ".jnl";

/// Directory of checkpoints + journals for one session, with atomic
/// snapshot writes and corruption-tolerant loading. All mutating file
/// operations go through the store's [`StorageBackend`].
#[derive(Debug, Clone)]
pub struct SessionStore {
    dir: PathBuf,
    backend: Arc<dyn StorageBackend>,
}

impl SessionStore {
    /// Open (creating if needed) a session directory on the real
    /// filesystem.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<SessionStore> {
        SessionStore::with_backend(dir, Arc::new(RealBackend))
    }

    /// Open (creating if needed) a session directory through `backend`.
    pub fn with_backend(
        dir: impl Into<PathBuf>,
        backend: Arc<dyn StorageBackend>,
    ) -> io::Result<SessionStore> {
        let dir = dir.into();
        backend.create_dir_all(&dir)?;
        Ok(SessionStore { dir, backend })
    }

    /// The storage backend mutating operations go through.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// Small test write + fsync to a probe file, then best-effort
    /// cleanup: the `NonDurable` → recovery check. Returns `true` iff
    /// the disk accepted and synced the bytes.
    pub fn probe_write(&self) -> bool {
        let path = self.dir.join(".probe");
        let result = (|| -> io::Result<()> {
            let mut f = self.backend.create(&path)?;
            f.write_all(b"nrscope-durability-probe")?;
            f.sync_all()
        })();
        let _ = self.backend.remove_file(&path);
        result.is_ok()
    }

    /// The session directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the journal file starting at `start_slot`.
    pub fn journal_path(&self, start_slot: u64) -> PathBuf {
        self.dir
            .join(format!("{JOURNAL_PREFIX}{start_slot:012}{JOURNAL_SUFFIX}"))
    }

    fn snapshot_path(&self, slot: u64) -> PathBuf {
        self.dir
            .join(format!("{SNAP_PREFIX}{slot:012}{SNAP_SUFFIX}"))
    }

    /// Slots of all snapshot files present, ascending.
    pub fn snapshot_slots(&self) -> Vec<u64> {
        self.list_slots(SNAP_PREFIX, SNAP_SUFFIX)
    }

    /// Start slots of all journal files present, ascending.
    pub fn journal_starts(&self) -> Vec<u64> {
        self.list_slots(JOURNAL_PREFIX, JOURNAL_SUFFIX)
    }

    fn list_slots(&self, prefix: &str, suffix: &str) -> Vec<u64> {
        let mut slots: Vec<u64> = fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|e| {
                e.file_name()
                    .to_str()?
                    .strip_prefix(prefix)?
                    .strip_suffix(suffix)?
                    .parse()
                    .ok()
            })
            .collect();
        slots.sort_unstable();
        slots
    }

    /// Write a snapshot atomically: serialise, CRC, write to a temp file,
    /// fsync it, rename into place, fsync the directory. A crash at any
    /// point leaves either the old set of snapshots or the old set plus a
    /// complete new one — never a half-written file under the real name.
    pub fn write_checkpoint(&self, state: &SessionState) -> io::Result<u64> {
        let tmp = self
            .dir
            .join(format!(".tmp-{SNAP_PREFIX}{:012}", state.slot));
        // One contiguous image, one write op: the whole snapshot is the
        // durability unit, so fault injection (and the device) sees it as
        // a single all-or-nothing append to the tmp file.
        {
            let mut f = self.backend.create(&tmp)?;
            f.write_all(&codec::encode_snapshot(state))?;
            f.sync_all()?;
        }
        self.backend
            .rename(&tmp, self.snapshot_path(state.slot).as_path())?;
        // Persist the rename itself (directory metadata).
        let _ = self.backend.sync_dir(&self.dir);
        Ok(state.slot)
    }

    /// The one checkpoint routine, shared by the cadence thread and the
    /// synchronous shutdown / re-anchor path: install the snapshot, then
    /// prune to [`KEEP_CHECKPOINTS`] and count it — or count the failure
    /// and record *why*, so the summary can show the reason, not just a
    /// tally.
    pub(super) fn checkpoint(&self, state: &SessionState, metrics: &Metrics) -> io::Result<u64> {
        let written = self.write_checkpoint(state);
        match &written {
            Ok(_) => {
                metrics.inc(Counter::CheckpointsWritten);
                self.prune(KEEP_CHECKPOINTS);
            }
            Err(e) => {
                metrics.inc(Counter::CheckpointFailures);
                metrics.note("checkpoint_error", e.to_string());
            }
        }
        written
    }

    /// Load the newest valid snapshot, walking backwards past torn,
    /// corrupt, or future-schema files. Returns the state (if any) and
    /// how many snapshots were rejected on the way.
    pub fn load_latest(&self) -> (Option<SessionState>, u64) {
        let mut rejected = 0u64;
        for slot in self.snapshot_slots().into_iter().rev() {
            let loaded = fs::read(self.snapshot_path(slot))
                .ok()
                .and_then(|data| codec::decode_snapshot(&data, slot));
            match loaded {
                Some(state) => return (Some(state), rejected),
                None => rejected += 1,
            }
        }
        (None, rejected)
    }

    /// Delete all but the newest `keep` snapshots, then every journal file
    /// wholly covered by newer ones: a file covers `[its start, next
    /// file's start)`, so it is removable once the next file starts at or
    /// before the oldest retained snapshot.
    pub fn prune(&self, keep: usize) {
        for &slot in self.snapshot_slots().iter().rev().skip(keep.max(1)) {
            let _ = self.backend.remove_file(&self.snapshot_path(slot));
        }
        // Re-listed: a snapshot whose removal failed still needs its journals.
        let Some(&oldest_kept) = self.snapshot_slots().first() else {
            return;
        };
        for pair in self.journal_starts().windows(2) {
            if pair[1] <= oldest_kept {
                let _ = self.backend.remove_file(&self.journal_path(pair[0]));
            }
        }
    }

    /// Rebuild a session: newest valid snapshot (or a fresh scope when
    /// none exists), then replay every journal entry at or past the
    /// watermark, stopping at corruption or a sequence gap. Never panics;
    /// the worst corruption possible degrades to a cold start.
    pub fn recover(&self, cfg: ScopeConfig, assumed_pci: Option<Pci>) -> (NrScope, RecoveryReport) {
        let (snapshot, rejected) = self.load_latest();
        let snapshot_slot = snapshot.as_ref().map(|s| s.slot);
        let journal_starts = self.journal_starts();
        let mut scope = match &snapshot {
            Some(state) => NrScope::from_state(cfg, state),
            None => NrScope::new(cfg, assumed_pci),
        };
        let mut replayed = 0u64;
        let mut discarded = 0u64;
        'files: for &start in &journal_starts {
            let Ok(data) = fs::read(self.journal_path(start)) else {
                continue;
            };
            let (entries, bad) = codec::read_journal_bytes(&data);
            discarded += bad;
            for e in &entries {
                if e.seq > scope.slot_watermark() {
                    // A sequence gap (a journal file lost between this one
                    // and the watermark): applying ops at the wrong slot
                    // would corrupt state — stop replaying.
                    break 'files;
                }
                if scope.apply_journal_entry(e) {
                    replayed += 1;
                }
            }
        }
        let report = RecoveryReport {
            schema_version: crate::SCHEMA_VERSION,
            resumed: snapshot.is_some() || !journal_starts.is_empty(),
            snapshot_slot,
            corrupt_checkpoints_skipped: rejected,
            replayed_entries: replayed,
            journal_entries_discarded: discarded,
            resumed_slot: scope.slot_watermark(),
            recovered_ues: scope.tracked_rntis().len() as u64,
        };
        (scope, report)
    }
}

/// Persistence knobs.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Session directory (checkpoints + journals).
    pub dir: PathBuf,
    /// Snapshot cadence in slots (512 ≈ every 0.25 s at µ=1).
    pub checkpoint_every_slots: u64,
    /// Group-commit batch size: seal and hand the batch to the writer
    /// thread after this many slots. Together with the queued-batch depth
    /// this bounds the `kill -9` loss window (see DESIGN.md).
    pub flush_max_slots: u64,
    /// Seal the batch once its oldest record is this old, even if it is
    /// not full — bounds durability lag on a quiet cell.
    pub flush_max_latency_us: u64,
    /// Storage-fault policy: the re-probe cadence of the durability
    /// degradation ladder.
    pub storage: StoragePolicy,
    /// Backend every mutating file operation goes through. The real
    /// filesystem by default; tests and the `durafault` bench swap in a
    /// [`FaultyBackend`](super::FaultyBackend).
    pub backend: Arc<dyn StorageBackend>,
}

impl PersistConfig {
    /// Defaults: checkpoint every 512 slots, batch 128 slots with a 2 ms
    /// latency ceiling.
    pub fn new(dir: impl Into<PathBuf>) -> PersistConfig {
        PersistConfig {
            dir: dir.into(),
            checkpoint_every_slots: 512,
            flush_max_slots: 128,
            flush_max_latency_us: 2000,
            storage: StoragePolicy::default(),
            backend: Arc::new(RealBackend),
        }
    }

    /// Swap the storage backend (builder style).
    pub fn with_backend(mut self, backend: Arc<dyn StorageBackend>) -> PersistConfig {
        self.backend = backend;
        self
    }

    /// Upper bound on slots a `kill -9` can lose: the batch being built,
    /// every batch that may sit in the writer queue, and the one the
    /// writer may have dequeued but not yet written.
    pub fn loss_window_slots(&self) -> u64 {
        self.flush_max_slots.max(1) * (WRITER_QUEUE_DEPTH as u64 + 2)
    }
}

/// An [`NrScope`] wrapped with durability: every processed capture lands
/// in a group-commit journal batch, snapshots stream from a background
/// writer, and [`PersistentSession::open`] warm-restarts from whatever
/// survived the last crash.
pub struct PersistentSession {
    scope: NrScope,
    store: SessionStore,
    cfg: PersistConfig,
    writer: JournalWriter,
    /// This session's journal file id within the (possibly shared) writer.
    file_id: u64,
    /// Watermark up to which the journal is in the OS (exclusive).
    durable: Arc<AtomicU64>,
    batch: BatchBuf,
    /// Start slot of the journal file currently being appended.
    journal_start: u64,
    /// Watermark at which the checkpoint cadence last fired. Cadence
    /// triggers on `watermark - last >= cadence`, not divisibility, so a
    /// gap-fill resume that jumps the watermark past a multiple cannot
    /// silently skip a checkpoint.
    last_checkpoint_slot: u64,
    ckpt: CheckpointWriter,
    /// Shared durability rung (written by the writer thread's ladder,
    /// observed here once per slot).
    rung: Arc<AtomicU64>,
    /// True while `NonDurable` has been observed: journaling is paused
    /// (slot ops are not even collected) and probes are being scheduled.
    journaling_paused: bool,
    /// Watermark at which the next re-probe fires while paused.
    next_probe_at: u64,
    /// Probe flap-backoff exponent (`reprobe_interval_slots << exp`,
    /// capped at [`MAX_PROBE_FLAP_EXP`]); resets once fully `Durable`.
    probe_flap_exp: u32,
}

impl PersistentSession {
    /// Open (or resume) a durable session in `cfg.dir` with its own
    /// dedicated journal-writer thread. Recovery is part of opening: the
    /// returned report says what was restored.
    pub fn open(
        cfg: PersistConfig,
        scope_cfg: ScopeConfig,
        assumed_pci: Option<Pci>,
    ) -> io::Result<(PersistentSession, RecoveryReport)> {
        Self::open_with_writer(cfg, scope_cfg, assumed_pci, &JournalWriter::spawn())
    }

    /// Open (or resume) a durable session whose journal batches go
    /// through `writer` — the fleet path, where every shard shares one
    /// group-commit thread.
    pub fn open_with_writer(
        cfg: PersistConfig,
        scope_cfg: ScopeConfig,
        assumed_pci: Option<Pci>,
        writer: &JournalWriter,
    ) -> io::Result<(PersistentSession, RecoveryReport)> {
        let store = SessionStore::with_backend(&cfg.dir, Arc::clone(&cfg.backend))?;
        let (mut scope, report) = store.recover(scope_cfg, assumed_pci);
        scope.start_journaling();
        let journal_start = scope.slot_watermark();
        let durable = Arc::new(AtomicU64::new(journal_start));
        let rung = Arc::new(AtomicU64::new(DurabilityRung::Durable as u64));
        // Append mode: re-opening after a crash-before-rotation continues
        // the same file.
        let file_id = writer.register(WriterCtx {
            path: store.journal_path(journal_start),
            durable: Arc::clone(&durable),
            metrics: Arc::clone(scope.metrics()),
            store: store.clone(),
            rung: Arc::clone(&rung),
        })?;
        let ckpt = CheckpointWriter::spawn(store.clone(), Arc::clone(scope.metrics()));
        Ok((
            PersistentSession {
                scope,
                store,
                last_checkpoint_slot: journal_start,
                cfg,
                writer: writer.clone(),
                file_id,
                durable,
                batch: BatchBuf::default(),
                journal_start,
                ckpt,
                rung,
                journaling_paused: false,
                next_probe_at: 0,
                probe_flap_exp: 0,
            },
            report,
        ))
    }

    /// The wrapped scope.
    pub fn scope(&self) -> &NrScope {
        &self.scope
    }

    /// Mutable access to the wrapped scope.
    pub fn scope_mut(&mut self) -> &mut NrScope {
        &mut self.scope
    }

    /// The session store (tests inspect the directory through this).
    pub fn store(&self) -> &SessionStore {
        &self.store
    }

    /// Watermark up to which the journal has been handed to the OS
    /// (exclusive): slots below this survive `kill -9`. The gap up to
    /// [`NrScope::slot_watermark`] is the live loss window, bounded by
    /// [`PersistConfig::loss_window_slots`].
    pub fn durable_watermark(&self) -> u64 {
        self.durable.load(Relaxed)
    }

    /// Current rung of the durability ladder.
    pub fn durability_rung(&self) -> DurabilityRung {
        DurabilityRung::from_u64(self.rung.load(Relaxed))
    }

    /// The loss window this session honestly promises right now:
    /// `Some(bound)` while the journal is healthy (`kill -9` loses at
    /// most that many slots), `None` — **unbounded** — while
    /// `NonDurable` (nothing has been journalled since the demotion, so
    /// a crash loses everything back to the last durable watermark).
    pub fn reported_loss_window(&self) -> Option<u64> {
        match self.durability_rung() {
            DurabilityRung::NonDurable => None,
            _ => Some(self.cfg.loss_window_slots()),
        }
    }

    /// Seal the in-flight batch (attaching the current end-of-slot
    /// continuous state to its final record) and queue it on the writer.
    fn submit_batch(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let records = self.batch.len();
        let entries = self.batch.seal(self.scope.micro_state());
        match self.writer.submit(self.file_id, entries) {
            SubmitOutcome::Queued => {}
            // Writer gone (died or shut down under us) or unresponsive
            // past the submit grace (wedged thread, queue full): the
            // records are lost and nothing is draining — that is a
            // storage demotion, not just a counter bump.
            // `service_durability` observes the rung next slot, pauses
            // journaling, schedules probes, and keeps decoding; when a
            // mere wedge ends, a probe re-promotes and the session
            // re-anchors with a fresh checkpoint.
            outcome => {
                let metrics = self.scope.metrics();
                metrics.add(Counter::JournalWriteFailures, records);
                let why = match outcome {
                    SubmitOutcome::Full => "journal writer unresponsive (queue full past grace)",
                    _ => "journal writer thread gone",
                };
                demote_non_durable(&self.rung, metrics, why);
            }
        }
        let recycled = self.writer.pooled_buf();
        self.batch.reset(recycled);
    }

    /// Chaos hook
    /// ([`HangTarget::JournalWriter`](crate::chaos::HangTarget)): wedge
    /// this session's journal-writer thread for `dur`. Decode continues;
    /// batches back up behind the wedge, and once the submit grace runs
    /// out the ladder demotes honestly ([`DurabilityRung::NonDurable`],
    /// loss window reported unbounded) until a post-wedge probe
    /// re-promotes and the session re-anchors on a fresh checkpoint.
    pub fn inject_writer_wedge(&mut self, dur: Duration) {
        self.scope.metrics().note(
            "chaos",
            format!("journal writer wedged for {} ms", dur.as_millis()),
        );
        self.writer.inject_wedge(dur);
    }

    /// Seal and drain the in-flight batch, returning once the writer has
    /// handed everything queued so far to the OS (`true` iff every batch
    /// since the last rotation succeeded). A durability barrier for
    /// tests, benches, and shutdown paths — the hot path never calls it.
    pub fn flush_barrier(&mut self) -> bool {
        self.submit_batch();
        self.writer.barrier(self.file_id)
    }

    /// Observe the durability ladder once per slot: pause journaling on
    /// demotion to `NonDurable` (decode must outlive the disk), schedule
    /// flap-backoff re-probes while down, and re-anchor + resume once the
    /// writer's probe recovered the disk.
    fn service_durability(&mut self) {
        let watermark = self.scope.slot_watermark();
        let probe_interval = self.cfg.storage.reprobe_interval_slots.max(1);
        match self.durability_rung() {
            DurabilityRung::NonDurable => {
                if !self.journaling_paused {
                    // First observation of the demotion. The in-flight
                    // batch can never drain — count it lost, stop
                    // collecting slot ops, start probing.
                    let lost = self.batch.len();
                    if lost > 0 {
                        self.scope
                            .metrics()
                            .add(Counter::JournalWriteFailures, lost);
                        self.batch.reset(Vec::new());
                    }
                    self.scope.pause_journaling();
                    self.journaling_paused = true;
                    self.next_probe_at = watermark + probe_interval;
                } else if watermark >= self.next_probe_at {
                    self.writer.probe(self.file_id);
                    // Governor-style flap backoff: each unanswered probe
                    // doubles the wait, so a dead disk costs a bounded,
                    // shrinking fraction of writer-thread time.
                    self.probe_flap_exp = (self.probe_flap_exp + 1).min(MAX_PROBE_FLAP_EXP);
                    self.next_probe_at = watermark + (probe_interval << self.probe_flap_exp);
                }
            }
            rung => {
                if self.journaling_paused {
                    // The writer's probe re-promoted us. Everything since
                    // the demotion was never journalled: re-anchor with a
                    // synchronous checkpoint at the current watermark so
                    // the loss window is bounded again *from here*, then
                    // resume collecting slot ops.
                    self.journaling_paused = false;
                    self.scope.start_journaling();
                    match self.checkpoint_now() {
                        Ok(slot) => {
                            // State ≤ `slot` is durable via the snapshot;
                            // align the journal and the durable watermark
                            // with it.
                            if self
                                .writer
                                .rotate(self.file_id, self.store.journal_path(slot))
                            {
                                self.journal_start = slot;
                            }
                            self.durable.fetch_max(slot, Relaxed);
                        }
                        Err(e) => {
                            // Disk flapped straight back down: re-demote
                            // and keep probing (backoff still rising).
                            let why = format!("re-anchor checkpoint failed: {e}");
                            demote_non_durable(&self.rung, self.scope.metrics(), why);
                            self.scope.pause_journaling();
                            self.journaling_paused = true;
                            self.next_probe_at =
                                watermark + (probe_interval << self.probe_flap_exp);
                        }
                    }
                } else if rung == DurabilityRung::Durable {
                    // Fully healthy again: the next outage starts its
                    // probe backoff from scratch.
                    self.probe_flap_exp = 0;
                }
            }
        }
    }

    /// Process one capture durably: decode, append the slot to the
    /// group-commit batch (sealed to the writer thread on buffer-full or
    /// latency deadline), and kick the checkpoint cadence. Journal write
    /// failures are counted in metrics, never raised — losing durability
    /// must not stop capture.
    pub fn process_capture(&mut self, cap: &crate::observe::Capture) -> Vec<TelemetryRecord> {
        let records = self.scope.process_capture(cap);
        self.service_durability();
        if let Some((seq, dropped, ops)) = self.scope.take_slot_ops() {
            self.batch.push_record(seq, dropped, ops);
            let full = self.batch.len() >= self.cfg.flush_max_slots.max(1);
            if full || self.batch.age_us() >= self.cfg.flush_max_latency_us {
                self.submit_batch();
            }
        }
        let watermark = self.scope.slot_watermark();
        if !self.journaling_paused
            && watermark.saturating_sub(self.last_checkpoint_slot)
                >= self.cfg.checkpoint_every_slots
        {
            self.last_checkpoint_slot = watermark;
            self.ckpt.try_submit(self.scope.session_state());
        }
        // Once a checkpoint newer than this journal file's start is
        // durable, rotate: replay will start from that snapshot, so new
        // entries belong in a file aligned with it and older files become
        // prunable. The in-flight batch holds records *below* the rotation
        // point, so it is sealed into the old file first (a barrier); the
        // writer refuses the switch if any of the old file's batches
        // failed, in which case we keep the old file and retry on a later
        // slot — rotation must never abandon an unflushed tail.
        if !self.journaling_paused && self.ckpt.last_written() > self.journal_start {
            self.submit_batch();
            if self
                .writer
                .rotate(self.file_id, self.store.journal_path(watermark))
            {
                self.journal_start = watermark;
            }
        }
        records
    }

    /// Write a checkpoint synchronously (shutdown path — unlike the
    /// cadence writes, the caller wants it durable before returning).
    /// Acts as a group-commit barrier: the in-flight batch is sealed and
    /// drained first.
    pub fn checkpoint_now(&mut self) -> io::Result<u64> {
        self.flush_barrier();
        let state = self.scope.session_state();
        let slot = self.store.checkpoint(&state, self.scope.metrics())?;
        self.last_checkpoint_slot = slot;
        Ok(slot)
    }

    /// Clean shutdown: drain the journal through a barrier, write a final
    /// checkpoint, then drop — which stops the background writers.
    pub fn finalize(mut self) -> io::Result<u64> {
        self.checkpoint_now()
    }
}

impl Drop for PersistentSession {
    fn drop(&mut self) {
        // Orderly teardown without finalize (a dropped session) still
        // drains the tail: seal the in-flight batch and wait for the
        // writer to hand everything to the OS, so an in-process "crash"
        // loses nothing — matching the old flush-per-slot teardown. Only
        // an actual `kill -9` pays the bounded loss window.
        self.submit_batch();
        self.writer.close(self.file_id);
    }
}

#[cfg(test)]
mod tests {
    use super::super::storage::test_dir;
    use super::*;

    #[test]
    fn torn_snapshot_falls_back_to_previous_checkpoint() {
        let dir = test_dir("torn-snap");
        let store = SessionStore::new(&dir).unwrap();
        let scope = NrScope::new(ScopeConfig::default(), Some(Pci(1)));
        let mut state = scope.session_state();
        state.slot = 100;
        store.write_checkpoint(&state).unwrap();
        state.slot = 200;
        store.write_checkpoint(&state).unwrap();
        // Tear the newest snapshot (as an interrupted write would).
        let newest = store.snapshot_slots().last().copied().unwrap();
        assert_eq!(newest, 200);
        let path = dir.join("ckpt-000000000200.snap");
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() / 2]).unwrap();
        let (loaded, rejected) = store.load_latest();
        assert_eq!(loaded.unwrap().slot, 100, "fell back to previous");
        assert_eq!(rejected, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_schema_snapshot_is_rejected() {
        let dir = test_dir("future-snap");
        let store = SessionStore::new(&dir).unwrap();
        let scope = NrScope::new(ScopeConfig::default(), Some(Pci(1)));
        let mut state = scope.session_state();
        state.slot = 100;
        state.schema_version = crate::SCHEMA_VERSION + 1;
        store.write_checkpoint(&state).unwrap();
        let (loaded, rejected) = store.load_latest();
        assert!(loaded.is_none());
        assert_eq!(rejected, 1);
        // Recovery degrades to a cold start instead of loading it.
        let (recovered, report) = store.recover(ScopeConfig::default(), Some(Pci(1)));
        assert_eq!(recovered.slot_watermark(), 0);
        assert_eq!(report.corrupt_checkpoints_skipped, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
