//! Fault-isolated multi-cell fleet: N per-cell pipelines ("shards") share
//! one worker pool while remaining independent failure domains.
//!
//! The paper monitors a single cell, but its evaluation spans four
//! testbeds and the ROADMAP's north star is a carrier-scale deployment
//! watching hundreds of cells at once. The robustness requirement at that
//! scale is *between* cells: a wedged, panicking, or overloaded cell
//! pipeline must never stall or starve its siblings. This module applies
//! the bulkhead pattern:
//!
//! * **Per-shard everything.** Each shard owns a full [`NrScope`] (or a
//!   durable [`PersistentSession`]) — its own governor, sync-health
//!   machine, tracker, and persistence directory. Nothing decode-related
//!   is shared, so no shard can corrupt another's state.
//! * **Per-shard bounded queues.** A slow shard sheds its *own* oldest
//!   slots ([`FeedOutcome::ShedOldest`]); backpressure never crosses a
//!   bulkhead. Shed and gap-filled slots are processed as
//!   [`Capture::Dropped`], so the shard's governor and sync health see
//!   honest accounting.
//! * **One worker at a time per shard.** Workers `try_lock` a shard's
//!   engine before touching its queue, which guarantees per-shard FIFO
//!   order *and* caps the blast radius of a wedge: a stuck shard can
//!   consume at most one worker, and the supervisor spawns a replacement
//!   so fleet capacity is restored while the stuck thread drains.
//! * **Supervised warm restarts.** Panics are caught per slot
//!   (`catch_unwind`, as in [`crate::worker`]); wedges are detected by a
//!   watchdog (busy-timestamp fencing, as in [`crate::worker`]'s pool)
//!   and the engine generation is bumped so the stuck worker discards its
//!   fenced engine on wake. Either way the shard's engine is quarantined
//!   and rebuilt at the next [`Fleet::supervise`] pass — durable shards
//!   resume from their own checkpoint + journal at the exact slot they
//!   had journalled (missed slots are gap-filled as drops by
//!   [`feed_at_watermark`], so nothing is double-counted).
//! * **One storm protection.** Every rebuild spends a token of the
//!   shard's [`RestartBreaker`] (sized by its own `scope.supervise`
//!   block, clocked by its own feed); a failed rebuild stays pending and
//!   spends the next. When the budget runs dry — a crash loop, or a dead
//!   disk under a durable shard — the breaker opens and the shard is
//!   parked lame-duck on a volatile fallback engine (reported
//!   `non_durable` if it was durable) until the half-open probe rebuilds
//!   the real engine.
//! * **Cross-cell UE continuity.** Shards emit [`UeEvent`]s from the
//!   existing probation/admission machinery; the fleet matches a C-RNTI
//!   that went quiet on cell A against a fresh admission on cell B within
//!   [`FleetConfig::continuity_window_slots`] of the activity edge and
//!   counts the pair as one user handed over, not two.

use crate::config::{FleetConfig, ScopeConfig};
use crate::governor::LoadModel;
use crate::metrics::{Counter, Gauge};
use crate::observe::Capture;
use crate::persist::{
    DurabilityRung, JournalWriter, PersistConfig, PersistentSession, RecoveryReport,
};
use crate::scope::{NrScope, UeEvent};
use crate::supervise::{feed_at_watermark, BreakerState, RestartBreaker, SlotEngine};
use crate::telemetry::TelemetryRecord;
use crate::worker::{lock_clean, spawn_background, InjectedFault};
use nr_phy::types::{Pci, Rnti};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Entries a worker processes per engine acquisition before releasing the
/// shard — bounds how long one hot shard can monopolise a worker.
const MAX_BATCH: usize = 16;

/// Bound on buffered per-shard latency samples (enqueue → slot done).
const LATENCY_BUF_MAX: usize = 1 << 17;

/// Bound on unmatched continuity edges kept for cross-cell matching.
const CONTINUITY_PENDING_MAX: usize = 1024;

/// One cell pipeline's static description.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Display name (cell preset name, typically).
    pub name: String,
    /// Assumed PCI (message fidelity) — `None` lets IQ cell search run.
    pub pci: Option<Pci>,
    /// The shard's scope configuration.
    pub scope: ScopeConfig,
    /// When set, the shard is durable: journalled per slot and
    /// warm-restarted from its own checkpoint directory.
    pub persist: Option<PersistConfig>,
    /// Deterministic latency model fed to the shard's governor.
    pub load_model: Option<LoadModel>,
}

impl ShardSpec {
    /// An in-memory (volatile) shard: restarts are cold.
    pub fn volatile(name: impl Into<String>, pci: Option<Pci>, scope: ScopeConfig) -> ShardSpec {
        ShardSpec {
            name: name.into(),
            pci,
            scope,
            persist: None,
            load_model: None,
        }
    }

    /// A durable shard: checkpoint + journal under its own directory.
    pub fn durable(
        name: impl Into<String>,
        pci: Option<Pci>,
        scope: ScopeConfig,
        persist: PersistConfig,
    ) -> ShardSpec {
        ShardSpec {
            persist: Some(persist),
            ..ShardSpec::volatile(name, pci, scope)
        }
    }

    fn volatile_scope(&self) -> NrScope {
        let mut scope = NrScope::new(self.scope, self.pci);
        scope.set_load_model(self.load_model);
        scope
    }
}

/// A shard's decode engine: the bulkheaded unit that is quarantined and
/// rebuilt on fault.
enum ShardEngine {
    /// Durable: journalled, checkpointed, warm-restartable.
    Durable(Box<PersistentSession>),
    /// Volatile: plain scope, cold restart.
    Volatile(Box<NrScope>),
}

impl ShardEngine {
    fn build(
        spec: &ShardSpec,
        writer: Option<&JournalWriter>,
    ) -> io::Result<(ShardEngine, Option<RecoveryReport>)> {
        match &spec.persist {
            Some(p) => {
                // Every shard's journal batches flow through one shared
                // group-commit thread.
                let w = writer.expect("a fleet with a durable shard has a journal writer");
                let (mut session, report) =
                    PersistentSession::open_with_writer(p.clone(), spec.scope, spec.pci, w)?;
                session.scope_mut().set_load_model(spec.load_model);
                Ok((ShardEngine::Durable(Box::new(session)), Some(report)))
            }
            None => Ok((ShardEngine::Volatile(Box::new(spec.volatile_scope())), None)),
        }
    }

    fn scope(&self) -> &NrScope {
        match self {
            ShardEngine::Durable(s) => s.scope(),
            ShardEngine::Volatile(s) => s,
        }
    }

    fn scope_mut(&mut self) -> &mut NrScope {
        match self {
            ShardEngine::Durable(s) => s.scope_mut(),
            ShardEngine::Volatile(s) => s,
        }
    }
}

impl SlotEngine for ShardEngine {
    fn slot_watermark(&self) -> u64 {
        self.scope().slot_watermark()
    }

    fn process_capture(&mut self, cap: &Capture) -> Vec<TelemetryRecord> {
        match self {
            ShardEngine::Durable(s) => s.process_capture(cap),
            ShardEngine::Volatile(s) => s.process_capture(cap),
        }
    }
}

/// Shard health as the supervisor sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardHealth {
    /// Processing normally.
    Healthy,
    /// Engine lost to a panic; restart pending.
    Faulted,
    /// Engine fenced off by the watchdog; restart pending.
    Wedged,
}

impl ShardHealth {
    /// Stable snake_case name for snapshots.
    pub fn name(self) -> &'static str {
        match self {
            ShardHealth::Healthy => "healthy",
            ShardHealth::Faulted => "faulted",
            ShardHealth::Wedged => "wedged",
        }
    }
}

/// Chaos hook: what to do to a shard's next slot(s).
#[derive(Debug, Clone, Copy)]
pub enum FaultPlan {
    /// No injected fault.
    None,
    /// Apply once to the next processed slot, then clear.
    OneShot(InjectedFault),
    /// Delay every processed slot by this much (sustained overload).
    EverySlot(Duration),
}

/// Outcome of [`Fleet::feed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedOutcome {
    /// Enqueued within bounds.
    Queued,
    /// The queue was full: this shard's *own* oldest entry was shed to
    /// make room (the bulkhead never pushes back on siblings).
    ShedOldest,
}

/// A queued observation awaiting a worker.
struct QueueEntry {
    seq: u64,
    cap: Capture,
    enqueued: Instant,
}

/// The engine cell: the generation fences a wedged holder's engine.
struct EngineCell {
    gen: u64,
    engine: Option<ShardEngine>,
    /// Why the last rebuild failed, kept for the fallback's notes.
    rebuild_err: Option<String>,
}

/// Mutable supervisor-side state of one shard.
struct ShardControl {
    /// Anything but `Healthy` is a rebuild pending.
    health: ShardHealth,
    /// Recovery report of the most recent warm restart.
    last_recovery: Option<RecoveryReport>,
}

/// Rollup stats refreshed by whichever worker holds the engine — read by
/// [`Fleet::rollup`] without blocking on a possibly-wedged engine lock.
#[derive(Debug, Clone)]
struct CachedStats {
    slots: u64,
    dcis: u64,
    tracked_ues: u64,
    discovered: u64,
    sync: &'static str,
    load_rung: &'static str,
    durability: &'static str,
    loss_window: Option<u64>,
    clock_lock: &'static str,
    clock_drift_ppb: i64,
    timing_slips: u64,
}

/// One shard's runtime.
struct Shard {
    spec: ShardSpec,
    queue: Mutex<VecDeque<QueueEntry>>,
    engine: Mutex<EngineCell>,
    /// Epoch-relative ns + 1 while a worker is processing; 0 when idle.
    busy_since_ns: AtomicU64,
    /// Fence generation: bumped by the watchdog to invalidate the engine
    /// held by a stuck worker.
    gen: AtomicU64,
    control: Mutex<ShardControl>,
    fault: Mutex<FaultPlan>,
    cache: Mutex<CachedStats>,
    latencies: Mutex<Vec<u64>>,
    highest_fed: AtomicU64,
    sheds: AtomicU64,
    panics: AtomicU64,
    wedges: AtomicU64,
    restarts: AtomicU64,
    /// Token-bucket restart budget, slot clock = `highest_fed`. While it
    /// is open the shard is parked lame-duck on a volatile fallback engine
    /// (which a durable shard reports as `non_durable`) instead of
    /// hot-looping rebuilds; the half-open probe is the way back.
    breaker: Mutex<RestartBreaker>,
}

/// An unmatched continuity edge: a discovery anchored at its admission
/// slot, or an expiry anchored at the slot the UE was last active.
#[derive(Clone, Copy)]
struct PendingEdge {
    shard: usize,
    rnti: Rnti,
    anchor: u64,
}

/// One matched cross-cell handover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContinuityMatch {
    /// Shard the UE expired on.
    pub from_shard: usize,
    /// Shard the UE was admitted on.
    pub to_shard: usize,
    /// C-RNTI on the old cell.
    pub expired_rnti: Rnti,
    /// C-RNTI assigned by the new cell.
    pub new_rnti: Rnti,
    /// Last slot the UE was active on the old cell.
    pub last_active_slot: u64,
    /// Slot the UE was admitted on the new cell.
    pub discovered_slot: u64,
}

#[derive(Default)]
struct ContinuityState {
    pending_discoveries: VecDeque<PendingEdge>,
    pending_expiries: VecDeque<PendingEdge>,
    continuations: u64,
    matches: Vec<ContinuityMatch>,
}

/// Shared fleet state (workers + supervisor).
struct FleetShared {
    cfg: FleetConfig,
    shards: Vec<Shard>,
    continuity: Mutex<ContinuityState>,
    shutdown: AtomicBool,
    epoch: Instant,
    live_workers: AtomicUsize,
    target_workers: usize,
    /// Shared group-commit journal writer for durable shards (absent when
    /// there are none). Restarted shards re-register with the same writer
    /// so a rebuild never spawns a second thread.
    journal_writer: Option<JournalWriter>,
}

/// Point-in-time status of one shard ([`Fleet::shard_status`]).
#[derive(Debug, Clone)]
pub struct ShardStatus {
    /// Supervisor-visible health.
    pub health: ShardHealth,
    /// Completed warm restarts.
    pub restarts: u64,
    /// Panics caught and quarantined.
    pub panics: u64,
    /// Watchdog fences.
    pub wedges: u64,
    /// Own-queue sheds.
    pub sheds: u64,
    /// Entries currently queued.
    pub queue_len: usize,
    /// Recovery report of the latest warm restart, if any.
    pub last_recovery: Option<RecoveryReport>,
    /// Restart-breaker position. Anything but `Closed` means the shard
    /// is parked lame-duck: serving on a volatile fallback engine, rebuilds
    /// withheld until the half-open probe.
    pub breaker: BreakerState,
}

/// One cell's rollup row ([`FleetSnapshot::cells`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellRollup {
    /// Shard name.
    pub name: String,
    /// PCI, when known.
    pub pci: Option<u16>,
    /// Supervisor health (`healthy` / `faulted` / `wedged`).
    pub health: String,
    /// Sync-health state name.
    pub sync: String,
    /// Governor rung name (the per-shard `load_rung` gauge).
    pub load_rung: String,
    /// Slots processed by the shard's scope.
    pub slots: u64,
    /// DCIs decoded, all classes.
    pub dcis: u64,
    /// C-RNTIs currently tracked.
    pub tracked_ues: u64,
    /// Distinct UEs ever admitted on this cell.
    pub discovered: u64,
    /// Own-queue sheds.
    pub sheds: u64,
    /// Panics quarantined.
    pub panics: u64,
    /// Watchdog fences.
    pub wedges: u64,
    /// Completed warm restarts.
    pub restarts: u64,
    /// Hangs detected on this cell (watchdog fences — every wedge is a
    /// detected hang).
    pub hangs_detected: u64,
    /// Restart-breaker position name (`closed` / `open` / `half_open`).
    pub breaker: String,
    /// Times this cell's breaker has opened.
    pub breaker_openings: u64,
    /// Durability rung name: `durable` / `durable_degraded` /
    /// `non_durable` for durable shards, `volatile` for shards configured
    /// without persistence.
    pub durability: String,
    /// Honest loss window in slots (`None` = unbounded: the shard is
    /// `NonDurable` or volatile).
    pub loss_window_slots: Option<u64>,
    /// Timing-recovery lock rung name (`locked` / `pulling` / `unlocked`),
    /// or `ideal` when the shard's front end has no oscillator model.
    pub clock_lock: String,
    /// Signed clock-drift estimate (ppb) from the shard's recovery loop.
    pub clock_drift_ppb: i64,
    /// Integer sample slips commanded by the shard's recovery loop.
    pub timing_slips: u64,
}

/// Fleet-wide rollup: per-cell rows plus the aggregate, including the
/// continuity-corrected distinct-user count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetSnapshot {
    /// Per-cell rows.
    pub cells: Vec<CellRollup>,
    /// Σ slots across cells.
    pub total_slots: u64,
    /// Σ DCIs across cells.
    pub total_dcis: u64,
    /// Σ per-cell admissions (counts a handed-over UE once per cell).
    pub total_discovered: u64,
    /// Cross-cell handovers matched by the continuity window.
    pub continuations: u64,
    /// Distinct users: `total_discovered − continuations`.
    pub distinct_users: u64,
    /// Cells configured durable that are currently *not* fully durable
    /// (rung below `Durable`, or running on a volatile fallback after
    /// their disk died).
    pub durability_degraded_cells: u64,
    /// Cells whose timing-recovery loop is currently out of `Locked`
    /// (`pulling`/`unlocked`; ideal-clock cells don't count).
    pub clock_unlocked_cells: u64,
    /// Σ integer sample slips across cells.
    pub total_timing_slips: u64,
    /// Cells currently parked behind an open restart breaker.
    pub breaker_open_cells: u64,
    /// The matched handover pairs.
    pub matches: Vec<ContinuityMatch>,
}

/// The fleet: N shards over one shared worker pool, with bulkhead
/// supervision. Construct with [`Fleet::new`], drive with
/// [`Fleet::feed`] + periodic [`Fleet::supervise`] calls, and tear down
/// with [`Fleet::finish`].
pub struct Fleet {
    shared: Arc<FleetShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

fn now_ns(epoch: Instant) -> u64 {
    Instant::now().duration_since(epoch).as_nanos() as u64
}

impl Fleet {
    /// Build every shard's engine (durable shards recover from their own
    /// directories) and start the shared worker pool.
    pub fn new(cfg: FleetConfig, specs: Vec<ShardSpec>) -> io::Result<Fleet> {
        let journal_writer = specs
            .iter()
            .any(|s| s.persist.is_some())
            .then(JournalWriter::spawn);
        let mut shards = Vec::with_capacity(specs.len());
        for spec in specs {
            let (engine, recovery) = ShardEngine::build(&spec, journal_writer.as_ref())?;
            let cache = cached_stats(&engine, spec.persist.is_some());
            let supervise = spec.scope.supervise;
            shards.push(Shard {
                spec,
                queue: Mutex::new(VecDeque::new()),
                engine: Mutex::new(EngineCell {
                    gen: 0,
                    engine: Some(engine),
                    rebuild_err: None,
                }),
                busy_since_ns: AtomicU64::new(0),
                gen: AtomicU64::new(0),
                control: Mutex::new(ShardControl {
                    health: ShardHealth::Healthy,
                    last_recovery: recovery,
                }),
                fault: Mutex::new(FaultPlan::None),
                cache: Mutex::new(cache),
                latencies: Mutex::new(Vec::new()),
                highest_fed: AtomicU64::new(0),
                sheds: AtomicU64::new(0),
                panics: AtomicU64::new(0),
                wedges: AtomicU64::new(0),
                restarts: AtomicU64::new(0),
                breaker: Mutex::new(RestartBreaker::new(
                    supervise.restart_budget,
                    supervise.restart_budget_window_slots,
                    supervise.breaker_halfopen_after_slots,
                )),
            });
        }
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        let target_workers = if cfg.workers == 0 {
            cores.min(shards.len()).max(1)
        } else {
            cfg.workers.max(1)
        };
        let shared = Arc::new(FleetShared {
            cfg,
            shards,
            continuity: Mutex::default(),
            shutdown: AtomicBool::new(false),
            epoch: Instant::now(),
            live_workers: AtomicUsize::new(target_workers),
            target_workers,
            journal_writer,
        });
        let mut workers = Vec::with_capacity(target_workers);
        for w in 0..target_workers {
            let s = Arc::clone(&shared);
            workers.push(spawn_background(&format!("fleet-{w}"), move || {
                worker_loop(&s, w)
            }));
        }
        Ok(Fleet {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shared.shards.len()
    }

    /// Whether the fleet has no shards.
    pub fn is_empty(&self) -> bool {
        self.shared.shards.is_empty()
    }

    /// Enqueue one observation for a shard. `seq` is the shard's absolute
    /// slot index (gap-filled as dropped slots if observations are
    /// skipped). A full queue sheds the shard's own oldest entry.
    pub fn feed(&self, shard: usize, seq: u64, cap: Capture) -> FeedOutcome {
        let s = &self.shared.shards[shard];
        s.highest_fed.fetch_max(seq, Relaxed);
        let mut q = lock_clean(&s.queue);
        let mut out = FeedOutcome::Queued;
        if q.len() >= self.shared.cfg.shard_queue_depth.max(1) {
            q.pop_front();
            s.sheds.fetch_add(1, Relaxed);
            out = FeedOutcome::ShedOldest;
        }
        q.push_back(QueueEntry {
            seq,
            cap,
            enqueued: Instant::now(),
        });
        out
    }

    /// One supervision pass: watchdog wedged shards, rebuild quarantined
    /// ones as their breakers allow. The driver calls this periodically
    /// (every few fed slots, or on a timer); it never blocks on a wedged
    /// engine.
    pub fn supervise(&self) {
        let shared = &self.shared;
        let tick_ns = now_ns(shared.epoch);
        for shard in &shared.shards {
            // Watchdog: a slot in flight past the deadline means the
            // worker is stuck (infinite loop, pathological slot, hostile
            // input). Fence the engine so the stuck worker discards it on
            // wake, and spawn a replacement worker so fleet capacity is
            // restored immediately.
            let wd_ms = shared.cfg.watchdog_ms;
            if wd_ms > 0 {
                let busy = shard.busy_since_ns.load(SeqCst);
                if busy != 0 && tick_ns.saturating_sub(busy - 1) > wd_ms.saturating_mul(1_000_000) {
                    shard.gen.fetch_add(1, SeqCst);
                    shard.busy_since_ns.store(0, SeqCst);
                    shard.wedges.fetch_add(1, Relaxed);
                    lock_clean(&shard.control).health = ShardHealth::Wedged;
                    shared.live_workers.fetch_add(1, SeqCst);
                    let s = Arc::clone(shared);
                    let handle = spawn_background("fleet-replacement", move || {
                        worker_loop(&s, 0);
                    });
                    lock_clean(&self.workers).push(handle);
                }
            }
            // A rebuild is pending while the shard is quarantined, or
            // parked waiting for its half-open probe. `try_lock`: a stuck
            // worker still holding the engine postpones it to a later
            // pass, without touching the budget.
            let pending = lock_clean(&shard.control).health != ShardHealth::Healthy
                || lock_clean(&shard.breaker).is_open();
            if !pending {
                continue;
            }
            let Ok(mut cell) = shard.engine.try_lock() else {
                continue;
            };
            let now_slot = shard.highest_fed.load(Relaxed);
            if lock_clean(&shard.breaker).try_acquire(now_slot) {
                // A failed rebuild leaves the shard as it was: the next
                // pass spends the next token.
                let ok = restart_shard(shared, shard, &mut cell);
                lock_clean(&shard.breaker).probe_result(ok, now_slot);
            } else {
                park_lame_duck(shard, &mut cell);
            }
        }
    }

    /// Run `f` against a shard's live scope. `None` while the shard is
    /// between engines (quarantined, restart pending).
    pub fn with_scope<R>(&self, shard: usize, f: impl FnOnce(&NrScope) -> R) -> Option<R> {
        let cell = lock_clean(&self.shared.shards[shard].engine);
        cell.engine.as_ref().map(|e| f(e.scope()))
    }

    /// Inject a fault plan into a shard (chaos testing: kill, wedge, or
    /// overload exactly one bulkhead).
    pub fn inject_fault(&self, shard: usize, plan: FaultPlan) {
        *lock_clean(&self.shared.shards[shard].fault) = plan;
    }

    /// Drain a shard's enqueue→completion latency samples (ns).
    pub fn take_latencies(&self, shard: usize) -> Vec<u64> {
        std::mem::take(&mut *lock_clean(&self.shared.shards[shard].latencies))
    }

    /// Point-in-time status of one shard.
    pub fn shard_status(&self, shard: usize) -> ShardStatus {
        let s = &self.shared.shards[shard];
        let c = lock_clean(&s.control);
        ShardStatus {
            health: c.health,
            restarts: s.restarts.load(Relaxed),
            panics: s.panics.load(Relaxed),
            wedges: s.wedges.load(Relaxed),
            sheds: s.sheds.load(Relaxed),
            queue_len: lock_clean(&s.queue).len(),
            last_recovery: c.last_recovery.clone(),
            breaker: lock_clean(&s.breaker).state(),
        }
    }

    /// Wait until every queue is drained and every worker idle (pumping
    /// supervision while waiting). Returns false on timeout — which a
    /// wedged-and-not-yet-recovered shard will cause by design.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            self.supervise();
            let busy = self
                .shared
                .shards
                .iter()
                .any(|s| !lock_clean(&s.queue).is_empty() || s.busy_since_ns.load(SeqCst) != 0);
            if !busy {
                return true;
            }
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Fleet-wide rollup: per-cell rows + aggregate + continuity-corrected
    /// distinct users. Never blocks on a wedged engine — rows fall back to
    /// the last worker-refreshed cache.
    pub fn rollup(&self) -> FleetSnapshot {
        let mut cells = Vec::with_capacity(self.shared.shards.len());
        for s in &self.shared.shards {
            // Refresh from the live scope when the engine is free.
            if let Ok(cell) = s.engine.try_lock() {
                if let Some(engine) = cell.engine.as_ref() {
                    s.refresh_cache(engine);
                }
            }
            let cache = lock_clean(&s.cache).clone();
            let health = lock_clean(&s.control).health;
            let (breaker, breaker_openings) = {
                let b = lock_clean(&s.breaker);
                (b.state().name().to_string(), b.openings())
            };
            cells.push(CellRollup {
                name: s.spec.name.clone(),
                pci: s.spec.pci.map(|p| p.0),
                health: health.name().to_string(),
                sync: cache.sync.to_string(),
                load_rung: cache.load_rung.to_string(),
                slots: cache.slots,
                dcis: cache.dcis,
                tracked_ues: cache.tracked_ues,
                discovered: cache.discovered,
                sheds: s.sheds.load(Relaxed),
                panics: s.panics.load(Relaxed),
                wedges: s.wedges.load(Relaxed),
                restarts: s.restarts.load(Relaxed),
                hangs_detected: s.wedges.load(Relaxed),
                breaker,
                breaker_openings,
                durability: cache.durability.to_string(),
                loss_window_slots: cache.loss_window,
                clock_lock: cache.clock_lock.to_string(),
                clock_drift_ppb: cache.clock_drift_ppb,
                timing_slips: cache.timing_slips,
            });
        }
        let (continuations, matches) = {
            let c = lock_clean(&self.shared.continuity);
            (c.continuations, c.matches.clone())
        };
        let total_discovered: u64 = cells.iter().map(|c| c.discovered).sum();
        let durability_degraded_cells = self
            .shared
            .shards
            .iter()
            .zip(&cells)
            .filter(|(s, c)| {
                s.spec.persist.is_some()
                    && (c.durability == "durable_degraded" || c.durability == "non_durable")
            })
            .count() as u64;
        let clock_unlocked_cells = cells
            .iter()
            .filter(|c| c.clock_lock == "pulling" || c.clock_lock == "unlocked")
            .count() as u64;
        let breaker_open_cells = cells.iter().filter(|c| c.breaker != "closed").count() as u64;
        FleetSnapshot {
            total_slots: cells.iter().map(|c| c.slots).sum(),
            total_dcis: cells.iter().map(|c| c.dcis).sum(),
            total_discovered,
            continuations,
            distinct_users: total_discovered.saturating_sub(continuations),
            durability_degraded_cells,
            clock_unlocked_cells,
            total_timing_slips: cells.iter().map(|c| c.timing_slips).sum(),
            breaker_open_cells,
            matches,
            cells,
        }
    }

    /// Shut the pool down, finalise durable shards (flush + final
    /// checkpoint), and return the closing rollup.
    pub fn finish(self) -> FleetSnapshot {
        self.shared.shutdown.store(true, SeqCst);
        let deadline = Instant::now() + Duration::from_secs(5);
        let handles = std::mem::take(&mut *lock_clean(&self.workers));
        for h in handles {
            while !h.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            if h.is_finished() {
                let _ = h.join();
            }
            // A still-stuck worker is abandoned, exactly like the slot
            // pool's bounded shutdown join.
        }
        for s in &self.shared.shards {
            if let Ok(mut cell) = s.engine.try_lock() {
                if let Some(engine) = cell.engine.take() {
                    s.refresh_cache(&engine);
                    // The shard's queue is done for — zero its depth gauge
                    // so a post-shutdown snapshot never reports phantom
                    // backlog (the worker-pool shutdown rule).
                    engine.scope().metrics().gauge_set(Gauge::QueueDepth, 0);
                    if let ShardEngine::Durable(session) = engine {
                        let _ = session.finalize();
                    }
                }
            }
        }
        self.rollup()
    }
}

impl Shard {
    /// Update the cached rollup row from the shard's live engine.
    fn refresh_cache(&self, engine: &ShardEngine) {
        *lock_clean(&self.cache) = cached_stats(engine, self.spec.persist.is_some());
    }
}

/// A shard's rollup row, read off its live engine. `spec_durable`: the
/// shard was configured with persistence.
fn cached_stats(engine: &ShardEngine, spec_durable: bool) -> CachedStats {
    let scope = engine.scope();
    let st = &scope.stats;
    let (durability, loss_window) = match engine {
        ShardEngine::Durable(s) => (s.durability_rung().name(), s.reported_loss_window()),
        // A volatile engine under a durable spec is the lame-duck
        // fallback: `non_durable` — spec said durable, the disk (or a
        // crash loop) disagreed; an always-volatile shard never promised
        // durability in the first place.
        ShardEngine::Volatile(_) if spec_durable => ("non_durable", None),
        ShardEngine::Volatile(_) => ("volatile", None),
    };
    CachedStats {
        slots: st.slots,
        dcis: st.si_dcis + st.ra_dcis + st.tc_dcis + st.dl_dcis + st.ul_dcis,
        tracked_ues: scope.tracked_rntis().len() as u64,
        discovered: scope.total_discovered(),
        sync: scope.sync_state().name(),
        load_rung: scope.governor().rung().name(),
        durability,
        loss_window,
        clock_lock: scope.clock_lock().map_or("ideal", crate::ClockLock::name),
        clock_drift_ppb: scope.clock_drift_ppb(),
        timing_slips: st.timing_slips,
    }
}

/// A fresh volatile scope for `shard`, adopting the live feed position:
/// it resumes at the oldest still-queued slot (or just past the newest fed
/// one when the queue is empty) instead of grinding through thousands of
/// synthetic gap-fill drops.
fn volatile_at_feed_position(shard: &Shard) -> NrScope {
    let mut scope = shard.spec.volatile_scope();
    let adopt = lock_clean(&shard.queue)
        .front()
        .map(|e| e.seq)
        .unwrap_or_else(|| shard.highest_fed.load(Relaxed).saturating_add(1));
    scope.fast_forward(adopt);
    scope
}

/// Park a shard in lame-duck mode behind an open restart breaker: the
/// rebuild budget is exhausted (a crash loop, or a disk that fails every
/// durable rebuild), so instead of hot-looping respawns the shard gets one
/// volatile fallback engine (degraded but still decoding) and real
/// rebuilds wait for the breaker's half-open probe.
fn park_lame_duck(shard: &Shard, cell: &mut EngineCell) {
    if cell.engine.is_some() {
        return; // already parked and still serving
    }
    let scope = volatile_at_feed_position(shard);
    let m = scope.metrics();
    let budget = shard.spec.scope.supervise;
    m.gauge_set(Gauge::RestartBreakerOpen, 1);
    m.note(
        "restart_breaker",
        format!(
            "restart budget exhausted ({} per {} slots): shard parked \
             lame-duck on a volatile fallback until the half-open probe",
            budget.restart_budget, budget.restart_budget_window_slots
        ),
    );
    if shard.spec.persist.is_some() {
        m.gauge_set(Gauge::DurabilityRung, DurabilityRung::NonDurable as u64);
    }
    if let Some(e) = cell.rebuild_err.take() {
        m.inc(Counter::StorageDemotions);
        m.note("storage_demotion", e);
    }
    install_engine(shard, cell, ShardEngine::Volatile(Box::new(scope)));
}

/// Put a rebuilt engine into service: the shard is `Healthy` again.
fn install_engine(shard: &Shard, cell: &mut EngineCell, engine: ShardEngine) {
    engine.scope().metrics().inc(Counter::RestartsTotal);
    cell.engine = Some(engine);
    cell.gen = shard.gen.load(SeqCst);
    cell.rebuild_err = None;
    shard.restarts.fetch_add(1, Relaxed);
    lock_clean(&shard.control).health = ShardHealth::Healthy;
}

/// Rebuild a shard's real engine in place (the caller holds the engine
/// lock and a breaker token). False when the rebuild failed (I/O under a
/// durable shard): nothing changes, the rebuild stays pending.
fn restart_shard(shared: &FleetShared, shard: &Shard, cell: &mut EngineCell) -> bool {
    let built = if shard.spec.persist.is_some() {
        ShardEngine::build(&shard.spec, shared.journal_writer.as_ref())
    } else {
        let scope = volatile_at_feed_position(shard);
        Ok((ShardEngine::Volatile(Box::new(scope)), None))
    };
    let (engine, recovery) = match built {
        Ok(built) => built,
        Err(e) => {
            // Said on the fallback a failed half-open probe leaves
            // serving, else kept for the one `park_lame_duck` installs.
            match &cell.engine {
                Some(serving) => {
                    let why = format!("half-open probe failed: {e}");
                    serving.scope().metrics().note("restart_breaker", why);
                }
                None => cell.rebuild_err = Some(e.to_string()),
            }
            return false;
        }
    };
    if lock_clean(&shard.breaker).state() == BreakerState::HalfOpen {
        let m = engine.scope().metrics();
        m.gauge_set(Gauge::RestartBreakerOpen, 0);
        m.note(
            "restart_breaker",
            "closed: half-open probe rebuild succeeded",
        );
    }
    install_engine(shard, cell, engine);
    if recovery.is_some() {
        lock_clean(&shard.control).last_recovery = recovery;
    }
    true
}

/// The continuity rule, for either kind of edge: take out of `opposite`
/// (the other kind's parked edges) the one on another shard anchored
/// within `window` slots of `edge`, preferring an equal RNTI and then the
/// earliest anchor; with none, park `edge` among `own`, evicting the
/// oldest past [`CONTINUITY_PENDING_MAX`].
fn match_or_park(
    opposite: &mut VecDeque<PendingEdge>,
    own: &mut VecDeque<PendingEdge>,
    window: u64,
    edge: PendingEdge,
) -> Option<PendingEdge> {
    let hit = opposite
        .iter()
        .enumerate()
        .filter(|(_, p)| p.shard != edge.shard && p.anchor.abs_diff(edge.anchor) <= window)
        .min_by_key(|(_, p)| (p.rnti != edge.rnti, p.anchor))
        .map(|(i, _)| i);
    if let Some(i) = hit {
        return opposite.remove(i);
    }
    if own.len() >= CONTINUITY_PENDING_MAX {
        own.pop_front();
    }
    own.push_back(edge);
    None
}

/// Absorb one shard's drained UE events into the continuity matcher. The
/// usual order is discovery first (a RACH takes milliseconds; expiry
/// takes seconds), but a discovery can also close an expiry that arrived
/// first (the old cell's pipeline ran ahead of the new one).
fn absorb_events(shared: &FleetShared, shard_idx: usize, events: &[UeEvent]) {
    let window = shared.cfg.continuity_window_slots;
    let mut guard = lock_clean(&shared.continuity);
    let c = &mut *guard;
    let (discs, exps) = (&mut c.pending_discoveries, &mut c.pending_expiries);
    let edge = |rnti, anchor| PendingEdge {
        shard: shard_idx,
        rnti,
        anchor,
    };
    for ev in events {
        let (disc, exp) = match *ev {
            UeEvent::Discovered { rnti, slot } => {
                let disc = edge(rnti, slot);
                (Some(disc), match_or_park(exps, discs, window, disc))
            }
            UeEvent::Expired {
                rnti,
                last_active_slot,
                ..
            } => {
                let exp = edge(rnti, last_active_slot);
                (match_or_park(discs, exps, window, exp), Some(exp))
            }
        };
        if let (Some(disc), Some(exp)) = (disc, exp) {
            c.continuations += 1;
            c.matches.push(ContinuityMatch {
                from_shard: exp.shard,
                to_shard: disc.shard,
                expired_rnti: exp.rnti,
                new_rnti: disc.rnti,
                last_active_slot: exp.anchor,
                discovered_slot: disc.anchor,
            });
        }
    }
}

/// Outcome of one shard-service attempt.
enum Service {
    /// Nothing to do (empty queue, engine busy or absent).
    Idle,
    /// Processed at least one entry.
    Worked,
    /// This worker's engine was fenced mid-slot: the thread should retire
    /// if a replacement was spawned.
    Fenced,
}

/// One worker's attempt to service shard `i`: acquire the engine (one
/// worker per shard at a time), drain up to [`MAX_BATCH`] entries through
/// [`feed_at_watermark`], catch panics, honour injected faults.
fn service_shard(shared: &FleetShared, i: usize) -> Service {
    let shard = &shared.shards[i];
    if lock_clean(&shard.queue).is_empty() {
        return Service::Idle;
    }
    let Ok(mut cell) = shard.engine.try_lock() else {
        return Service::Idle;
    };
    let my_gen = shard.gen.load(SeqCst);
    if cell.gen != my_gen {
        // A previous holder was fenced and discarded the engine; adopt
        // the new generation (the supervisor rebuilds the engine).
        cell.engine = None;
        cell.gen = my_gen;
    }
    if cell.engine.is_none() {
        // Quarantined: leave the queue intact for the restarted engine
        // (bounded — feed sheds this shard's own oldest when full).
        return Service::Idle;
    }
    let mut worked = false;
    for _ in 0..MAX_BATCH {
        let Some(entry) = lock_clean(&shard.queue).pop_front() else {
            break;
        };
        let fault = {
            let mut f = lock_clean(&shard.fault);
            match *f {
                FaultPlan::None => None,
                FaultPlan::OneShot(x) => {
                    *f = FaultPlan::None;
                    Some(x)
                }
                FaultPlan::EverySlot(d) => Some(InjectedFault::Delay(d)),
            }
        };
        shard.busy_since_ns.store(now_ns(shared.epoch) + 1, SeqCst);
        let engine = match cell.engine.as_mut() {
            Some(e) => e,
            None => break,
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            match fault {
                Some(InjectedFault::Panic) => panic!("injected shard fault"),
                Some(InjectedFault::Delay(d)) => std::thread::sleep(d),
                None => {}
            }
            // A deep gap-fill is honest work, not a wedge: keep the busy
            // stamp fresh per filled slot (unless already fenced).
            feed_at_watermark(engine, entry.seq, &entry.cap, |_, _| {
                if shard.gen.load(SeqCst) == my_gen {
                    shard.busy_since_ns.store(now_ns(shared.epoch) + 1, SeqCst);
                }
            })
            .is_some()
        }));
        shard.busy_since_ns.store(0, SeqCst);
        if shard.gen.load(SeqCst) != my_gen {
            // The watchdog fenced this shard while we were inside the
            // slot: our engine is presumed wedged — discard it and let
            // the supervisor's pending restart rebuild from disk.
            cell.engine = None;
            cell.gen = shard.gen.load(SeqCst);
            return Service::Fenced;
        }
        match outcome {
            Ok(processed) => {
                worked = true;
                if processed {
                    if let Some(engine) = cell.engine.as_mut() {
                        let events = engine.scope_mut().drain_ue_events();
                        if !events.is_empty() {
                            absorb_events(shared, i, &events);
                        }
                    }
                    let lat = entry.enqueued.elapsed().as_nanos() as u64;
                    let mut buf = lock_clean(&shard.latencies);
                    if buf.len() < LATENCY_BUF_MAX {
                        buf.push(lat);
                    }
                }
            }
            Err(_) => {
                // The shard panicked mid-slot: quarantine its engine (its
                // state is suspect) and warm-restart from its own
                // checkpoint. Siblings never notice.
                cell.engine = None;
                shard.panics.fetch_add(1, Relaxed);
                lock_clean(&shard.control).health = ShardHealth::Faulted;
                return Service::Worked;
            }
        }
    }
    if let Some(engine) = cell.engine.as_ref() {
        shard.refresh_cache(engine);
    }
    if worked {
        Service::Worked
    } else {
        Service::Idle
    }
}

/// Retire this worker if the pool is over target (a replacement was
/// spawned for a wedge this thread was stuck in).
fn maybe_retire(shared: &FleetShared) -> bool {
    let mut live = shared.live_workers.load(SeqCst);
    while live > shared.target_workers {
        match shared
            .live_workers
            .compare_exchange(live, live - 1, SeqCst, SeqCst)
        {
            Ok(_) => return true,
            Err(l) => live = l,
        }
    }
    false
}

fn worker_loop(shared: &Arc<FleetShared>, start: usize) {
    let n = shared.shards.len().max(1);
    loop {
        if shared.shutdown.load(Relaxed) {
            break;
        }
        let mut did_work = false;
        let mut fenced = false;
        for k in 0..n {
            match service_shard(shared, (start + k) % n) {
                Service::Worked => did_work = true,
                Service::Fenced => {
                    did_work = true;
                    fenced = true;
                }
                Service::Idle => {}
            }
        }
        if fenced && maybe_retire(shared) {
            return;
        }
        if !did_work {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    shared.live_workers.fetch_sub(1, SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScopeConfig;

    fn spec(name: &str) -> ShardSpec {
        ShardSpec::volatile(name, Some(Pci(1)), ScopeConfig::default())
    }

    fn cfg() -> FleetConfig {
        FleetConfig {
            workers: 2,
            shard_queue_depth: 1024,
            watchdog_ms: 50,
            ..FleetConfig::default()
        }
    }

    fn empty_slot() -> Capture {
        Capture::Slot(crate::observe::ObservedSlot::Message {
            mib_bits: None,
            dcis: vec![],
            pdsch: vec![],
        })
    }

    #[test]
    fn watermark_rule_never_reprocesses_and_gap_fills_exactly() {
        let mut engine = ShardEngine::Volatile(Box::new(spec("a").volatile_scope()));
        let counts = |e: &ShardEngine| {
            let st = e.scope().stats;
            (e.slot_watermark(), st.slots, st.dropped_slots)
        };
        let mut calls = Vec::new();
        // Equal to the watermark: processed, no gap.
        assert!(feed_at_watermark(&mut engine, 0, &empty_slot(), |_, n| calls.push(n)).is_some());
        assert_eq!(counts(&engine), (1, 1, 0));
        // Above: exactly `seq - watermark` drops, then the slot itself; the
        // callback once per drop, the engine already advanced past it.
        let fed = feed_at_watermark(&mut engine, 5, &empty_slot(), |e, n| {
            assert_eq!(e.slot_watermark(), 1 + n);
            calls.push(n);
        });
        assert!(fed.is_some());
        assert_eq!(calls, vec![1, 2, 3, 4]);
        assert_eq!(counts(&engine), (6, 2, 4));
        // Below: acknowledged without reprocessing — nothing moves, so
        // nothing is counted twice.
        assert!(feed_at_watermark(&mut engine, 3, &empty_slot(), |_, n| calls.push(n)).is_none());
        assert_eq!(counts(&engine), (6, 2, 4));
        assert_eq!(calls.len(), 4);
    }

    #[test]
    fn feeds_process_and_rollup_counts_slots() {
        let fleet = Fleet::new(cfg(), vec![spec("a"), spec("b")]).unwrap();
        for s in 0..100u64 {
            fleet.feed(0, s, empty_slot());
            fleet.feed(1, s, empty_slot());
        }
        assert!(fleet.quiesce(Duration::from_secs(5)));
        let snap = fleet.finish();
        assert_eq!(snap.cells.len(), 2);
        assert_eq!(snap.cells[0].slots, 100);
        assert_eq!(snap.cells[1].slots, 100);
        assert_eq!(snap.total_slots, 200);
    }

    #[test]
    fn full_queue_sheds_own_oldest_only() {
        let mut c = cfg();
        c.shard_queue_depth = 4;
        let fleet = Fleet::new(c, vec![spec("a"), spec("b")]).unwrap();
        // Wedge shard 0's engine lock indirectly: inject a long delay so
        // its queue backs up while shard 1 drains freely.
        fleet.inject_fault(0, FaultPlan::EverySlot(Duration::from_millis(20)));
        let mut sheds = 0;
        for s in 0..64u64 {
            if fleet.feed(0, s, empty_slot()) == FeedOutcome::ShedOldest {
                sheds += 1;
            }
            assert_eq!(fleet.feed(1, s, empty_slot()), FeedOutcome::Queued);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(sheds > 0, "slow shard shed its own slots");
        let status = fleet.shard_status(1);
        assert_eq!(status.sheds, 0, "sibling never shed");
        fleet.inject_fault(0, FaultPlan::None);
        assert!(fleet.quiesce(Duration::from_secs(10)));
        fleet.finish();
    }

    #[test]
    fn panic_quarantines_one_shard_and_restarts_it() {
        let fleet = Fleet::new(cfg(), vec![spec("a"), spec("b")]).unwrap();
        fleet.inject_fault(0, FaultPlan::OneShot(InjectedFault::Panic));
        for s in 0..200u64 {
            fleet.feed(0, s, empty_slot());
            fleet.feed(1, s, empty_slot());
            if s.is_multiple_of(16) {
                fleet.supervise();
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert!(fleet.quiesce(Duration::from_secs(10)));
        let a = fleet.shard_status(0);
        assert_eq!(a.panics, 1, "panic caught");
        assert!(a.restarts >= 1, "warm-restarted");
        assert_eq!(a.health, ShardHealth::Healthy);
        let snap = fleet.finish();
        assert_eq!(snap.cells[1].slots, 200, "sibling unperturbed");
        assert_eq!(snap.cells[1].panics, 0);
    }

    #[test]
    fn wedge_is_fenced_and_the_shard_recovers() {
        let fleet = Fleet::new(cfg(), vec![spec("a"), spec("b")]).unwrap();
        fleet.inject_fault(
            0,
            FaultPlan::OneShot(InjectedFault::Delay(Duration::from_millis(400))),
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut s = 0u64;
        while Instant::now() < deadline {
            fleet.feed(0, s, empty_slot());
            fleet.feed(1, s, empty_slot());
            s += 1;
            fleet.supervise();
            if fleet.shard_status(0).restarts >= 1 && fleet.shard_status(0).wedges >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let a = fleet.shard_status(0);
        assert!(a.wedges >= 1, "watchdog fenced the wedged shard");
        assert!(a.restarts >= 1, "and it was restarted");
        assert_eq!(fleet.shard_status(1).wedges, 0);
        assert!(fleet.quiesce(Duration::from_secs(10)));
        fleet.finish();
    }

    #[test]
    fn breaker_parks_storming_shard_and_halfopen_probe_recovers() {
        let mut storm = spec("storm");
        storm.scope.supervise.restart_budget = 2;
        storm.scope.supervise.restart_budget_window_slots = 1_000_000; // no meaningful refill
        storm.scope.supervise.breaker_halfopen_after_slots = 50;
        let fleet = Fleet::new(cfg(), vec![storm, spec("calm")]).unwrap();
        // Keep panicking the shard until the restart budget runs dry and
        // the breaker parks it lame-duck.
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut s = 0u64;
        while Instant::now() < deadline {
            fleet.inject_fault(0, FaultPlan::OneShot(InjectedFault::Panic));
            for _ in 0..8 {
                fleet.feed(0, s, empty_slot());
                fleet.feed(1, s, empty_slot());
                s += 1;
            }
            fleet.supervise();
            std::thread::sleep(Duration::from_millis(2));
            if fleet.shard_status(0).breaker != BreakerState::Closed {
                break;
            }
        }
        let st = fleet.shard_status(0);
        assert_ne!(
            st.breaker,
            BreakerState::Closed,
            "breaker parked the storming shard"
        );
        let snap = fleet.rollup();
        assert_eq!(snap.breaker_open_cells, 1);
        assert!(snap.cells[0].breaker_openings >= 1);
        assert_eq!(snap.cells[1].breaker, "closed", "sibling unaffected");
        // Stop injecting and advance the feed past the half-open backoff:
        // the probe rebuild succeeds and the breaker closes.
        fleet.inject_fault(0, FaultPlan::None);
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            for _ in 0..16 {
                fleet.feed(0, s, empty_slot());
                s += 1;
            }
            fleet.supervise();
            std::thread::sleep(Duration::from_millis(2));
            if fleet.shard_status(0).breaker == BreakerState::Closed {
                break;
            }
        }
        let st = fleet.shard_status(0);
        assert_eq!(
            st.breaker,
            BreakerState::Closed,
            "half-open probe closed the breaker"
        );
        assert!(fleet.quiesce(Duration::from_secs(10)));
        fleet.finish();
    }

    /// A fleet with no shards: just the continuity matcher's state.
    fn bare_shared() -> FleetShared {
        FleetShared {
            cfg: FleetConfig::default(),
            shards: Vec::new(),
            continuity: Mutex::default(),
            shutdown: AtomicBool::new(false),
            epoch: Instant::now(),
            live_workers: AtomicUsize::new(0),
            target_workers: 0,
            journal_writer: None,
        }
    }

    #[test]
    fn continuity_ignores_out_of_window_and_same_shard_events() {
        let shared = bare_shared();
        // Same shard: a re-RACH on the same cell is recovery, not handover.
        absorb_events(
            &shared,
            0,
            &[UeEvent::Discovered {
                rnti: Rnti(100),
                slot: 1000,
            }],
        );
        absorb_events(
            &shared,
            0,
            &[UeEvent::Expired {
                rnti: Rnti(100),
                slot: 21_000,
                last_active_slot: 1000,
            }],
        );
        // Different shard but far outside the window.
        absorb_events(
            &shared,
            1,
            &[UeEvent::Discovered {
                rnti: Rnti(200),
                slot: 90_000,
            }],
        );
        absorb_events(
            &shared,
            0,
            &[UeEvent::Expired {
                rnti: Rnti(201),
                slot: 30_000,
                last_active_slot: 10_000,
            }],
        );
        let c = lock_clean(&shared.continuity);
        assert_eq!(c.continuations, 0, "no false continuity matches");
    }

    /// One matcher serves both arrival orders: the same handover yields
    /// the same `ContinuityMatch` whichever cell reports first (the new
    /// cell usually does; the old cell's pipeline can run ahead), by the
    /// same window test and the same tie-break among parked edges.
    #[test]
    fn discovery_first_and_expiry_first_orders_both_match() {
        let discovered = |rnti, slot| UeEvent::Discovered {
            rnti: Rnti(rnti),
            slot,
        };
        let expired = |rnti, last_active_slot| UeEvent::Expired {
            rnti: Rnti(rnti),
            slot: last_active_slot + 20_000,
            last_active_slot,
        };
        // Cell 0's reports then cell 1's, or the reverse: the matches, and
        // how many discoveries and expiries stay parked.
        let run = |cell0: &[UeEvent], cell1: &[UeEvent], cell0_first: bool| {
            let shared = bare_shared();
            if cell0_first {
                absorb_events(&shared, 0, cell0);
            }
            absorb_events(&shared, 1, cell1);
            if !cell0_first {
                absorb_events(&shared, 0, cell0);
            }
            let c = lock_clean(&shared.continuity);
            assert_eq!(c.continuations, c.matches.len() as u64);
            let parked = (c.pending_discoveries.len(), c.pending_expiries.len());
            (c.matches.clone(), parked)
        };
        // Cell 0 loses a UE last active at 14 980; cell 1 admits it (under
        // a new RNTI) at 15 000 — one user. The other two reports sit one
        // slot past the window of everything else: no match.
        let window = FleetConfig::default().continuity_window_slots;
        let handover = |new_rnti| ContinuityMatch {
            from_shard: 0,
            to_shard: 1,
            expired_rnti: Rnti(0x4601),
            new_rnti: Rnti(new_rnti),
            last_active_slot: 14_980,
            discovered_slot: 15_000,
        };
        let expiries = [expired(0x4601, 14_980), expired(0x4602, 15_001 + window)];
        let discoveries = [
            discovered(0x4700, 15_000),
            discovered(0x4701, 14_979 - window),
        ];
        for cell0_first in [true, false] {
            let (matches, parked) = run(&expiries, &discoveries, cell0_first);
            assert_eq!((matches, parked), (vec![handover(0x4700)], (1, 1)));
        }
        // Two parked edges inside the window: the equal RNTI wins over
        // the earlier anchor, whichever kind is parked.
        let (matches, _) = run(
            &[expired(0x4601, 14_980)],
            &[discovered(0x4700, 14_990), discovered(0x4601, 15_000)],
            false,
        );
        assert_eq!(matches, [handover(0x4601)]);
        let (matches, _) = run(
            &[expired(0x4602, 14_970), expired(0x4601, 14_980)],
            &[discovered(0x4601, 15_000)],
            true,
        );
        assert_eq!(matches, [handover(0x4601)]);
    }
}
