//! The Fig 4 processing pipeline: scheduler → worker pool → result queue.
//!
//! "The scheduler copies the data and its state (known UE list, cell's
//! configurations) to an idle worker. For each slot data, the worker
//! spawns SIBs thread, RACH thread and DCI threads for SIBs decoding, UE
//! discovery and DCIs extraction, and then put the slot result into the
//! result queue." — paper §4.
//!
//! The DCI workload shards the known-UE list across `dci_threads`
//! (paper §4: "UE list is sharded among threads, and the final results are
//! gathered from the threads"); the common search space (SIB + RACH
//! hypotheses) runs as its own shard, standing in for the SIBs/RACH
//! threads.

use crate::decoder::{
    coreset_symbols, scan, DecodeWork, DecodedDci, DecoderContext, ExtractedCandidate, FrontEnd,
    Hypotheses,
};
use crate::metrics::{Counter, Gauge, Metrics, Stage};
use crate::observe::ObservedSlot;
use crossbeam::channel::{unbounded, Receiver, Sender};
use nr_phy::pdcch::SearchBudget;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A scripted fault a test can plant inside one job (chaos testing of the
/// pool's supervision and backpressure paths).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectedFault {
    /// `process_slot` panics on this job.
    Panic,
    /// `process_slot` sleeps this long first (a pathologically slow slot,
    /// used to force queue backpressure deterministically).
    Delay(Duration),
}

/// Priority class for queued slot jobs. The pool keeps one bounded queue
/// per class and workers drain broadcast-first, so SIB/RACH-critical slots
/// are never shed behind per-UE telemetry — the queue-level half of the
/// governor's never-go-dark invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobPriority {
    /// Carries broadcast/RACH-critical decoding (SIB1, RAR, MSG 4):
    /// never shed under backpressure.
    Broadcast,
    /// Ordinary per-UE telemetry slot: sheddable under `ShedOldest`.
    #[default]
    Data,
}

/// One slot of work, self-contained (the "copy of data and state").
#[derive(Debug, Clone)]
pub struct SlotJob {
    /// Sniffer slot counter.
    pub slot: u64,
    /// Slot-in-frame for candidate hashing and OFDM timing.
    pub slot_in_frame: usize,
    /// The captured slot.
    pub observed: ObservedSlot,
    /// Decoder configuration snapshot.
    pub ctx: DecoderContext,
    /// RNTI hypothesis sets snapshot.
    pub hyp: Hypotheses,
    /// How many DCI threads to shard across.
    pub dci_threads: usize,
    /// Queue-priority class (broadcast jobs are never shed).
    pub priority: JobPriority,
    /// PDCCH search budget from the overload governor (gates only the
    /// UE-specific pass; unlimited by default).
    pub budget: SearchBudget,
    /// Scripted fault (tests only; `None` in production paths).
    pub fault: Option<InjectedFault>,
}

/// A processed slot.
#[derive(Debug)]
pub struct SlotResult {
    /// Sniffer slot counter.
    pub slot: u64,
    /// All DCIs decoded in the slot.
    pub decoded: Vec<DecodedDci>,
    /// Wall-clock processing time (the Fig 12 metric).
    pub processing: Duration,
    /// Offered-work counts (for the governor's load model).
    pub work: DecodeWork,
    /// The IQ buffer matched no known carrier layout (truncated capture
    /// or a reconfigured cell) — nothing could be demodulated.
    pub layout_mismatch: bool,
}

/// Process one slot, sharding the known-UE list across `dci_threads`
/// OS threads (scoped). Returns the decoded DCIs and the processing time.
pub fn process_slot(job: &SlotJob) -> SlotResult {
    run_job(job, Metrics::disabled())
}

/// Spawn a named auxiliary thread outside the decode pool. Housekeeping
/// work (e.g. the persist checkpoint writer) goes through here rather
/// than [`WorkerPool`]: it must never occupy a decode worker slot, and a
/// panic in it must not trip the pool's quarantine machinery.
pub fn spawn_background<F>(name: &str, f: F) -> JoinHandle<()>
where
    F: FnOnce() + Send + 'static,
{
    std::thread::Builder::new()
        .name(format!("nrscope-{name}"))
        .spawn(f)
        .expect("spawn background thread")
}

/// Lock that never gives up on poisoning: the protected state is either
/// rebuilt wholesale (fleet engines) or stays valid at every step
/// (counters, queues, fault schedules), and a panic inside a fleet worker
/// is already quarantined by `catch_unwind` before any lock unwinds.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    /// The front-end state of the thread's jobs: a pool worker's, or that
    /// of whoever calls [`process_slot`].
    static FRONT_END: RefCell<FrontEnd> = RefCell::default();
}

/// [`process_slot`] recording into `metrics` (the pool's workers call
/// this with the pool's registry): OFDM demod, PDCCH candidate extraction,
/// per-candidate DCI decoding, and the whole-slot envelope (atomic adds
/// commute, so shards can share the registry).
fn run_job(job: &SlotJob, metrics: &Arc<Metrics>) -> SlotResult {
    // (A job that panics unwinds out of the borrow, and the state is valid
    // at every step: the thread's next job finds both as they should be.)
    FRONT_END.with_borrow_mut(|front| run_job_with(front, job, metrics))
}

fn run_job_with(front: &mut FrontEnd, job: &SlotJob, metrics: &Arc<Metrics>) -> SlotResult {
    let start = Instant::now();
    match job.fault {
        Some(InjectedFault::Panic) => panic!("injected fault in slot {}", job.slot),
        Some(InjectedFault::Delay(d)) => std::thread::sleep(d),
        None => {}
    }
    let threads = job.dci_threads.max(1);
    // Shard the C-RNTI list; the common hypotheses ride with shard 0
    // (the SIBs/RACH thread role).
    let shards: Vec<Hypotheses> = (0..threads)
        .map(|i| {
            let c_rntis = (job.hyp.c_rntis.iter().skip(i).step_by(threads))
                .copied()
                .collect();
            if i == 0 {
                Hypotheses {
                    ra_rntis: job.hyp.ra_rntis.clone(),
                    tc_rntis: job.hyp.tc_rntis.clone(),
                    c_rntis,
                    allow_recovery: job.hyp.allow_recovery,
                    skip_common: false,
                }
            } else {
                Hypotheses {
                    c_rntis,
                    skip_common: true,
                    ..Hypotheses::default()
                }
            }
        })
        .collect();
    // Signal processing (the O(n log n) term of §5.3.2 — OFDM demod plus
    // candidate extraction/equalisation) runs once per slot; only the
    // per-UE DCI hypothesis testing (the O(m) term) is sharded across
    // threads — exactly the Fig 4 division of labour.
    let candidates: Vec<ExtractedCandidate> = match &job.observed {
        ObservedSlot::Iq { samples, .. } => {
            let sif = job.slot_in_frame;
            // A worker reads the CORESET only: cell search and the PBCH are
            // the scope's.
            let wanted = coreset_symbols(&job.ctx.coreset);
            // The layout is the job's, whatever the thread planned before.
            let ctx = Some(&job.ctx);
            front.plan_layout(ctx, samples.len(), sif);
            if (front.demodulate_slot(ctx, samples, sif, &wanted, metrics)).is_none() {
                return SlotResult {
                    slot: job.slot,
                    decoded: Vec::new(),
                    processing: start.elapsed(),
                    work: DecodeWork::default(),
                    layout_mismatch: true,
                };
            }
            let _t = metrics.start(Stage::PdcchSearch);
            front.extract_all_candidates(&job.ctx, sif)
        }
        ObservedSlot::Message { .. } => Vec::new(),
    };
    // One hypothesis shard against the pre-processed slot under the job's
    // search budget.
    let (ctx, budget, sink) = (&job.ctx, job.budget, Some(metrics));
    let run_shard = |hyp: &Hypotheses| match &job.observed {
        ObservedSlot::Message { dcis, .. } => scan(ctx, dcis, hyp, budget, sink),
        ObservedSlot::Iq { .. } => scan(ctx, &candidates, hyp, budget, sink),
    };
    let mut decoded: Vec<DecodedDci> = Vec::new();
    let mut work = DecodeWork::default();
    if threads == 1 {
        // Single-thread path avoids spawn overhead entirely, and decodes
        // with the thread's own polar codes.
        (decoded, work) = run_shard(&shards[0]);
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .map(|hyp| scope.spawn(|| run_shard(hyp)))
                .collect();
            for h in handles {
                // Re-raise shard panics so the pool's per-job supervision
                // (catch_unwind in the worker loop) owns the failure.
                match h.join() {
                    Ok((part, w)) => {
                        decoded.extend(part);
                        work.absorb(&w);
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
    }
    let processing = start.elapsed();
    metrics.observe(Stage::SlotTotal, processing);
    metrics.inc(Counter::SlotsProcessed);
    SlotResult {
        slot: job.slot,
        decoded,
        processing,
        work,
        layout_mismatch: false,
    }
}

/// What `submit` does when the bounded job queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Wait for a worker to free a slot (lossless, adds latency) —
    /// offline re-processing of a recording.
    #[default]
    Block,
    /// Drop the oldest queued job to make room (bounded latency, sheds
    /// load) — live capture, where a late slot is a useless slot.
    ShedOldest,
}

/// Worker-pool sizing and backpressure configuration.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Bounded job-queue depth (slots waiting for a worker), per priority
    /// class.
    pub job_queue_depth: usize,
    /// What to do when the job queue is full.
    pub policy: BackpressurePolicy,
    /// Watchdog deadline for a single job: a worker busy on one job for
    /// longer is abandoned (its eventual result is still collected) and a
    /// replacement spawned. `None` disables the watchdog — offline replay
    /// has no deadline.
    pub watchdog: Option<Duration>,
    /// Upper bound on how long shutdown (`finish`/drop) waits for workers
    /// to drain. Workers still running at the deadline are abandoned and
    /// counted in [`PoolStats::stuck_workers`] instead of hanging the
    /// caller forever.
    pub join_timeout: Duration,
}

impl PoolConfig {
    /// Defaults: `workers` threads, 256-deep queues, blocking
    /// backpressure, no watchdog, 10 s bounded shutdown.
    pub fn new(workers: usize) -> PoolConfig {
        PoolConfig {
            workers: workers.max(1),
            job_queue_depth: 256,
            policy: BackpressurePolicy::Block,
            watchdog: None,
            join_timeout: Duration::from_secs(10),
        }
    }
}

/// Pool health counters (fed into `ScopeStats` by the session driver).
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Jobs accepted by `submit`.
    pub submitted: u64,
    /// Jobs shed under `BackpressurePolicy::ShedOldest`.
    pub shed_jobs: u64,
    /// Data jobs shed while broadcast jobs were pending (the priority
    /// queues visibly protected broadcast work).
    pub priority_sheds: u64,
    /// Worker panics caught and supervised.
    pub worker_panics: u64,
    /// Replacement workers spawned after panics or stalls.
    pub respawns: u64,
    /// Workers abandoned by the per-job watchdog.
    pub worker_stalls: u64,
    /// Workers still running when the bounded shutdown gave up on them.
    pub stuck_workers: u64,
}

/// `submit` failed and hands the job back (the queue is closed — only
/// possible once the pool is torn down).
#[derive(Debug)]
pub struct SubmitError(pub Box<SlotJob>);

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job queue disconnected (slot {})", self.0.slot)
    }
}

impl std::error::Error for SubmitError {}

/// A worker died; the supervisor learns which job killed it.
struct WorkerEvent {
    job: Box<SlotJob>,
    panic_msg: String,
}

/// A job plus its enqueue timestamp (taken only when metrics record, so
/// a disabled registry never reads the clock at submit time).
struct QueuedJob {
    job: SlotJob,
    enqueued: Option<Instant>,
}

/// Shared per-worker state the supervisor's watchdog reads.
#[derive(Debug, Default)]
struct WorkerState {
    /// Nanoseconds since the pool epoch when the current job started,
    /// plus 1 (0 = idle).
    busy_since_ns: AtomicU64,
    /// Set by the watchdog or bounded shutdown: the worker must exit as
    /// soon as it regains control instead of taking another job.
    abandoned: AtomicBool,
}

/// The asynchronous worker pool of Fig 4: jobs in, results out, processed
/// by `n_workers` OS threads. "The worker pool design enables
/// asynchronous, on-demand slot data processing" (§4).
///
/// Supervised: each job runs under `catch_unwind`; a panicking worker
/// reports the offending job (quarantined, not retried — a poison slot
/// would kill every worker in turn) and dies, and the supervisor spawns a
/// replacement on the next `submit`/`poll`/`finish` call.
///
/// Priority-aware: jobs queue per [`JobPriority`] class in bounded
/// queues and workers drain broadcast-first; under `ShedOldest`
/// backpressure only data jobs are ever shed. A configurable watchdog
/// abandons workers stuck on one job past a deadline and respawns a
/// replacement, and shutdown joins with a bounded timeout, quarantining
/// (counting) workers that never return.
pub struct WorkerPool {
    /// The job queues, shared with every worker.
    jobs: Arc<JobQueues>,
    result_tx: Sender<SlotResult>,
    result_rx: Receiver<SlotResult>,
    event_tx: Sender<WorkerEvent>,
    event_rx: Receiver<WorkerEvent>,
    handles: Vec<(JoinHandle<()>, Arc<WorkerState>)>,
    /// Workers abandoned by the watchdog, awaiting a (bounded) join.
    stalled: Vec<(JoinHandle<()>, Arc<WorkerState>)>,
    /// Reference instant for the `busy_since_ns` encoding.
    epoch: Instant,
    cfg: PoolConfig,
    stats: PoolStats,
    quarantined: Vec<SlotJob>,
    /// Pipeline metrics (queue wait, stage latencies, shed counts): the
    /// caller's shared registry, or the pool's own disabled one.
    metrics: Arc<Metrics>,
}

/// The two job queues, one per [`JobPriority`] class and each bounded at
/// [`PoolConfig::job_queue_depth`], behind one lock: an idle worker
/// sleeps on one condvar for both (a job is picked up the moment it is
/// queued, not at the next poll), and shed-oldest is a `pop_front` under
/// the same lock as the push that needed the room.
#[derive(Default)]
struct JobQueues {
    queued: Mutex<Queued>,
    /// Signalled on every push, on close, and on a worker's abandonment.
    wake: Condvar,
}

#[derive(Default)]
struct Queued {
    /// Indexed by `JobPriority as usize`, which is also the drain order.
    class: [VecDeque<QueuedJob>; 2],
    /// No more jobs will come: workers drain what is queued and exit.
    closed: bool,
}

impl JobQueues {
    /// The next job, broadcast queue first. Blocks while both queues are
    /// empty; `None` when the worker should exit (abandoned, or both
    /// queues drained and closed).
    fn recv(&self, state: &WorkerState) -> Option<QueuedJob> {
        let mut q = lock_clean(&self.queued);
        loop {
            if state.abandoned.load(Relaxed) {
                return None;
            }
            if let Some(job) = q.class.iter_mut().find_map(VecDeque::pop_front) {
                return Some(job);
            }
            if q.closed {
                return None;
            }
            q = self.wake.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Tell `state`'s worker to exit instead of taking another job. The
    /// flag goes up under the queue lock, so the worker is either yet to
    /// check it or already waiting for the wake-up that follows.
    fn abandon(&self, state: &WorkerState) {
        let q = lock_clean(&self.queued);
        state.abandoned.store(true, Relaxed);
        drop(q);
        self.wake.notify_all();
    }

    /// No more jobs: wake every idle worker so it can drain and exit.
    fn close(&self) {
        lock_clean(&self.queued).closed = true;
        self.wake.notify_all();
    }
}

fn worker_loop(
    jobs: Arc<JobQueues>,
    tx: Sender<SlotResult>,
    events: Sender<WorkerEvent>,
    metrics: Arc<Metrics>,
    state: Arc<WorkerState>,
    epoch: Instant,
) {
    while let Some(q) = jobs.recv(&state) {
        if let Some(t) = q.enqueued {
            metrics.observe(Stage::WorkerQueue, t.elapsed());
        }
        let job = q.job;
        state
            .busy_since_ns
            .store(epoch.elapsed().as_nanos() as u64 + 1, Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| run_job(&job, &metrics)));
        state.busy_since_ns.store(0, Relaxed);
        match outcome {
            Ok(result) => {
                if tx.send(result).is_err() {
                    return;
                }
            }
            Err(payload) => {
                let panic_msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic".to_string());
                let _ = events.send(WorkerEvent {
                    job: Box::new(job),
                    panic_msg,
                });
                // Die; the supervisor respawns a clean replacement.
                return;
            }
        }
    }
}

impl WorkerPool {
    /// Spawn a pool with `n_workers` workers and default queueing.
    pub fn new(n_workers: usize) -> WorkerPool {
        WorkerPool::with_config(PoolConfig::new(n_workers))
    }

    /// Spawn a pool with explicit queue depth and backpressure policy.
    /// Nothing is measured (the pool records into a disabled registry of
    /// its own).
    pub fn with_config(cfg: PoolConfig) -> WorkerPool {
        WorkerPool::with_metrics(cfg, Metrics::shared(false))
    }

    /// Spawn a pool recording into a shared metrics registry: queue wait
    /// (`worker_queue` stage), queue depth, shed/quarantine counts, and
    /// all per-stage decode latencies from inside the workers.
    pub fn with_metrics(cfg: PoolConfig, metrics: Arc<Metrics>) -> WorkerPool {
        let (result_tx, result_rx) = unbounded::<SlotResult>();
        let (event_tx, event_rx) = unbounded::<WorkerEvent>();
        let mut pool = WorkerPool {
            jobs: Arc::default(),
            result_tx,
            result_rx,
            event_tx,
            event_rx,
            handles: Vec::with_capacity(cfg.workers),
            stalled: Vec::new(),
            epoch: Instant::now(),
            cfg,
            stats: PoolStats::default(),
            quarantined: Vec::new(),
            metrics,
        };
        for _ in 0..cfg.workers {
            pool.spawn_worker();
        }
        pool.gauge_workers_alive();
        pool
    }

    fn spawn_worker(&mut self) {
        let jobs = Arc::clone(&self.jobs);
        let tx = self.result_tx.clone();
        let events = self.event_tx.clone();
        let metrics = self.metrics.clone();
        let state = Arc::new(WorkerState::default());
        let worker_state = Arc::clone(&state);
        let epoch = self.epoch;
        self.handles.push((
            std::thread::spawn(move || worker_loop(jobs, tx, events, metrics, worker_state, epoch)),
            state,
        ));
    }

    fn gauge_workers_alive(&self) {
        let alive = self
            .handles
            .iter()
            .filter(|(h, _)| !h.is_finished())
            .count();
        self.metrics.gauge_set(Gauge::WorkersAlive, alive as u64);
    }

    /// Reap death reports (count and quarantine the poison jobs, spawn
    /// replacements) and run the stall watchdog: a worker busy on one job
    /// past the deadline is abandoned — its eventual result is still
    /// collected, but a fresh worker takes its queue slot immediately.
    fn supervise(&mut self) {
        let events: Vec<WorkerEvent> = self.event_rx.try_iter().collect();
        for ev in events {
            self.stats.worker_panics += 1;
            self.metrics.inc(Counter::WorkerPanics);
            self.metrics.inc(Counter::JobsQuarantined);
            self.metrics.inc(Counter::RestartsTotal);
            self.metrics.note(
                "worker_panic",
                format!("slot {}: {}", ev.job.slot, ev.panic_msg),
            );
            self.quarantined.push(*ev.job);
            self.stats.respawns += 1;
            self.spawn_worker();
        }
        if let Some(deadline) = self.cfg.watchdog {
            let now_ns = self.epoch.elapsed().as_nanos() as u64;
            let deadline_ns = deadline.as_nanos().min(u64::MAX as u128) as u64;
            let mut stalled_idx = Vec::new();
            for (i, (_, state)) in self.handles.iter().enumerate() {
                let busy = state.busy_since_ns.load(Relaxed);
                if busy != 0 && now_ns.saturating_sub(busy - 1) > deadline_ns {
                    stalled_idx.push(i);
                }
            }
            // Back-to-front so indices stay valid while we remove.
            for &i in stalled_idx.iter().rev() {
                let (handle, state) = self.handles.swap_remove(i);
                self.jobs.abandon(&state);
                self.stalled.push((handle, state));
                self.stats.worker_stalls += 1;
                self.stats.respawns += 1;
                self.metrics.inc(Counter::WorkerStalls);
                // A stall past the watchdog deadline IS a detected hang —
                // same class the supervise-layer counts.
                self.metrics.inc(Counter::HangsDetected);
                self.metrics.inc(Counter::RestartsTotal);
                self.spawn_worker();
            }
        }
        // Reap stalled workers that eventually came back.
        self.stalled.retain(|(h, _)| !h.is_finished());
        self.gauge_workers_alive();
    }

    /// Submit a slot job to its priority queue. Applies the configured
    /// backpressure policy when that queue is full — broadcast jobs are
    /// never shed (and never shed other broadcast jobs: they block) —
    /// and returns the job once the queue is closed instead of panicking.
    pub fn submit(&mut self, job: SlotJob) -> Result<(), SubmitError> {
        self.supervise();
        let jobs = Arc::clone(&self.jobs);
        let depth = self.cfg.job_queue_depth.max(1);
        let class = job.priority as usize;
        // Broadcast jobs are never shed: a full broadcast queue blocks
        // regardless of policy.
        let may_shed =
            self.cfg.policy == BackpressurePolicy::ShedOldest && job.priority == JobPriority::Data;
        let enqueued = self.metrics.is_enabled().then(Instant::now);
        let mut q = lock_clean(&jobs.queued);
        while !q.closed && q.class[class].len() >= depth {
            if may_shed {
                q.class[class].pop_front();
                self.stats.shed_jobs += 1;
                self.metrics.inc(Counter::JobsShed);
                if !q.class[JobPriority::Broadcast as usize].is_empty() {
                    // The shed demonstrably protected pending broadcast
                    // work.
                    self.stats.priority_sheds += 1;
                    self.metrics.inc(Counter::PrioritySheds);
                }
                continue;
            }
            // Block, but keep supervising (with the queues unlocked) so a
            // worker death while we wait cannot deadlock the queue.
            drop(q);
            self.supervise();
            std::thread::yield_now();
            q = lock_clean(&jobs.queued);
        }
        if q.closed {
            return Err(SubmitError(Box::new(job)));
        }
        q.class[class].push_back(QueuedJob { job, enqueued });
        let queue_depth = q.class.iter().map(VecDeque::len).sum::<usize>();
        drop(q);
        jobs.wake.notify_one();
        self.stats.submitted += 1;
        self.metrics
            .gauge_set(Gauge::QueueDepth, queue_depth as u64);
        Ok(())
    }

    /// Drain any results already finished (non-blocking).
    pub fn poll(&mut self) -> Vec<SlotResult> {
        self.supervise();
        self.result_rx.try_iter().collect()
    }

    /// Pool health counters so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Jobs that killed a worker (quarantined, never retried).
    pub fn quarantined(&self) -> &[SlotJob] {
        &self.quarantined
    }

    /// Close the job queue and wait for all in-flight work; returns the
    /// remaining results. Worker panics during the drain are supervised
    /// like any other: counted, quarantined, and the queue is drained by
    /// replacements.
    pub fn finish(mut self) -> Vec<SlotResult> {
        self.run_down()
    }

    /// Like [`WorkerPool::finish`], but also returns the final health
    /// counters and the quarantined jobs — the numbers `finish` consumes.
    pub fn finish_with_stats(mut self) -> (Vec<SlotResult>, PoolStats, Vec<SlotJob>) {
        let out = self.run_down();
        (out, self.stats, std::mem::take(&mut self.quarantined))
    }

    fn run_down(&mut self) -> Vec<SlotResult> {
        self.jobs.close();
        let deadline = Instant::now() + self.cfg.join_timeout;
        let mut out = Vec::new();
        loop {
            self.supervise();
            out.extend(self.result_rx.try_iter());
            // Wait for live workers AND watchdog-abandoned ones: a stalled
            // worker that wakes inside the join timeout still delivers its
            // result (supervise drops stalled entries once finished).
            if self.handles.iter().all(|(h, _)| h.is_finished()) && self.stalled.is_empty() {
                // Final reap: a worker may have died at the very end.
                self.supervise();
                if self.handles.iter().all(|(h, _)| h.is_finished()) && self.stalled.is_empty() {
                    break;
                }
            }
            if Instant::now() >= deadline {
                break;
            }
            std::thread::yield_now();
        }
        self.reap_with_deadline();
        out.extend(self.result_rx.try_iter());
        out
    }

    /// Join every finished worker; abandon (and count) the rest instead of
    /// hanging shutdown on a stuck thread. Abandoned workers carry the
    /// flag, so they exit on their own if their job ever completes.
    fn reap_with_deadline(&mut self) {
        for (h, state) in self.handles.drain(..).chain(self.stalled.drain(..)) {
            if h.is_finished() {
                let _ = h.join();
            } else {
                self.jobs.abandon(&state);
                self.stats.stuck_workers += 1;
            }
        }
        self.gauge_workers_alive();
        // The queue is drained (or abandoned) once the pool shuts down;
        // leaving the gauge at its last enqueue value would report phantom
        // backlog with zero workers alive in post-shutdown snapshots.
        self.metrics.gauge_set(Gauge::QueueDepth, 0);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.jobs.close();
        let deadline = Instant::now() + self.cfg.join_timeout;
        while !self.handles.iter().all(|(h, _)| h.is_finished()) && Instant::now() < deadline {
            std::thread::yield_now();
        }
        self.reap_with_deadline();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::UeHypothesis;
    use crate::observe::Observer;
    use gnb_sim::{CellConfig, Gnb};
    use nr_mac::RoundRobin;
    use nr_phy::channel::ChannelProfile;
    use ue_sim::traffic::{TrafficKind, TrafficSource};
    use ue_sim::{MobilityScenario, SimUe};

    fn make_job(dci_threads: usize) -> (SlotJob, usize) {
        make_job_on(CellConfig::srsran_n41(), false, dci_threads)
    }

    fn make_job_on(cell: CellConfig, iq: bool, dci_threads: usize) -> (SlotJob, usize) {
        let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), 9);
        for i in 1..=4u64 {
            gnb.ue_arrives(SimUe::new(
                i,
                ChannelProfile::Awgn,
                MobilityScenario::Static,
                TrafficSource::new(
                    TrafficKind::Cbr {
                        rate_bps: 3e6,
                        packet_bytes: 1200,
                    },
                    i,
                ),
                0.0,
                10.0,
                i,
            ));
        }
        let mut obs = Observer::new(&cell, 35.0, iq, 2);
        // Run until a slot with multiple C-RNTI DCIs.
        for s in 0..4000u64 {
            let out = gnb.step();
            let n_c = crate::decoder::tests::n_c(out.dcis.iter().map(|d| d.rnti_type));
            let observed = obs.observe(&out, s as f64 * cell.slot_s());
            if n_c >= 2 {
                let ctx = crate::decoder::tests::ctx(&cell);
                let (rrc, sif) = (cell.rrc_setup(), out.slot_in_frame);
                let in_space = |r| UeHypothesis::in_search_space(r, &rrc, &cell.coreset, sif);
                let hyp = Hypotheses {
                    c_rntis: gnb.connected_rntis().into_iter().map(in_space).collect(),
                    allow_recovery: true,
                    ..Hypotheses::default()
                };
                return (
                    SlotJob {
                        slot: s,
                        slot_in_frame: out.slot_in_frame,
                        observed,
                        ctx,
                        hyp,
                        dci_threads,
                        priority: JobPriority::Data,
                        budget: SearchBudget::unlimited(),
                        fault: None,
                    },
                    n_c,
                );
            }
        }
        panic!("no multi-DCI slot found");
    }

    #[test]
    fn sharded_decode_finds_everything_single_and_multi_thread() {
        let (job1, n_c) = make_job(1);
        let r1 = process_slot(&job1);
        let mut job4 = job1.clone();
        job4.dci_threads = 4;
        let r4 = process_slot(&job4);
        let count = |r: &SlotResult| {
            r.decoded
                .iter()
                .filter(|d| d.rnti_type == nr_phy::types::RntiType::C)
                .count()
        };
        assert_eq!(count(&r1), n_c);
        assert_eq!(count(&r4), n_c, "sharding must not lose DCIs");
    }

    /// A 10 MHz µ=0 slot and a 20 MHz µ=1 slot are both 15,360 samples: a
    /// worker must take the numerology from the job's context, not guess
    /// it from the count — nor from the job before. One thread, so one
    /// front-end state: planned for the first job, kept for the second,
    /// planned again for each of the others, and found in order by the job
    /// after the one that panics.
    #[test]
    fn mu0_iq_job_is_demodulated_at_its_own_numerology() {
        let mu1 = make_job_on(CellConfig::srsran_n41(), true, 1);
        let mu0 = make_job_on(CellConfig::tmobile_n25(), true, 1);
        let decodes = |(job, n_c): &(SlotJob, usize)| {
            let r = process_slot(job);
            assert!(!r.layout_mismatch);
            let c_rnti = |d: &&DecodedDci| d.rnti_type == nr_phy::types::RntiType::C;
            assert_eq!(r.decoded.iter().filter(c_rnti).count(), *n_c);
        };
        for job in [&mu1, &mu1, &mu0, &mu1] {
            decodes(job);
        }
        let poisoned = SlotJob {
            fault: Some(InjectedFault::Panic),
            ..mu0.0.clone()
        };
        assert!(catch_unwind(|| process_slot(&poisoned)).is_err());
        decodes(&mu0);
        // Before SIB1 a job names a numerology and no carrier: its layout
        // is still its own (here the CORESET 0 width, which is this cell's
        // carrier), not the µ=1 one the thread planned last — the same
        // candidates as on a thread that has planned nothing.
        let narrow = CellConfig {
            carrier_prbs: 48,
            ..CellConfig::tmobile_n25()
        };
        let mut pre_sib1 = make_job_on(narrow, true, 1).0;
        pre_sib1.ctx.ue_sizing = None;
        decodes(&mu1);
        let here = process_slot(&pre_sib1);
        let fresh = std::thread::scope(|s| s.spawn(|| process_slot(&pre_sib1)).join().unwrap());
        assert!(!here.layout_mismatch && here.work.candidates > 0);
        assert_eq!(here.work, fresh.work);
    }

    #[test]
    fn pool_processes_jobs_asynchronously() {
        let (job, _) = make_job(2);
        let mut pool = WorkerPool::new(3);
        for i in 0..12 {
            let mut j = job.clone();
            j.slot = i;
            pool.submit(j).expect("queue open");
        }
        let results = pool.finish();
        assert_eq!(results.len(), 12);
        let mut slots: Vec<u64> = results.iter().map(|r| r.slot).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn pool_survives_worker_panic_and_quarantines_the_job() {
        let (job, _) = make_job(1);
        let mut pool = WorkerPool::new(2);
        let metrics = Arc::clone(&pool.metrics);
        for i in 0..9 {
            let mut j = job.clone();
            j.slot = i;
            if i == 4 {
                j.fault = Some(InjectedFault::Panic);
            }
            pool.submit(j).expect("queue open");
        }
        let results = pool.finish();
        // Every healthy job produced a result; the poison one did not.
        let mut slots: Vec<u64> = results.iter().map(|r| r.slot).collect();
        slots.sort_unstable();
        assert_eq!(slots, vec![0, 1, 2, 3, 5, 6, 7, 8]);
        // The panic message is kept where an operator looks, even on the
        // disabled registry a metrics-less pool records into.
        assert_eq!(
            metrics.note_detail("worker_panic").as_deref(),
            Some("slot 4: injected fault in slot 4")
        );
    }

    #[test]
    fn supervisor_respawns_after_panic_and_reports_the_poison_slot() {
        let (job, _) = make_job(1);
        // One worker: the poison job kills it; only a respawned
        // replacement can process the healthy job queued behind it.
        let mut pool = WorkerPool::new(1);
        let mut poison = job.clone();
        poison.slot = 99;
        poison.fault = Some(InjectedFault::Panic);
        pool.submit(poison).expect("queue open");
        pool.submit(job.clone()).expect("queue open");
        let mut results = Vec::new();
        for _ in 0..2000 {
            results.extend(pool.poll());
            if !results.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(results.len(), 1, "respawned worker drained the queue");
        assert_eq!(results[0].slot, job.slot);
        let stats = pool.stats();
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.respawns, 1);
        assert_eq!(pool.quarantined().len(), 1);
        assert_eq!(pool.quarantined()[0].slot, 99);
    }

    #[test]
    fn shed_oldest_policy_drops_queue_head_and_counts() {
        let (job, _) = make_job(1);
        let mut pool = WorkerPool::with_config(PoolConfig {
            job_queue_depth: 2,
            policy: BackpressurePolicy::ShedOldest,
            ..PoolConfig::new(1)
        });
        // Jam the single worker so the queue actually fills.
        let mut slow = job.clone();
        slow.slot = 1000;
        slow.fault = Some(InjectedFault::Delay(Duration::from_millis(300)));
        pool.submit(slow).expect("queue open");
        std::thread::sleep(Duration::from_millis(50)); // worker picks it up
        for i in 0..6 {
            let mut j = job.clone();
            j.slot = i;
            pool.submit(j).expect("queue open");
        }
        let stats = pool.stats();
        assert_eq!(stats.submitted, 7);
        assert_eq!(stats.shed_jobs, 4, "queue of 2 kept the newest 2 of 6");
        let results = pool.finish();
        let mut slots: Vec<u64> = results.iter().map(|r| r.slot).collect();
        slots.sort_unstable();
        assert_eq!(slots, vec![4, 5, 1000], "newest jobs survive the shed");
    }

    #[test]
    fn block_policy_is_lossless_under_backpressure() {
        let (job, _) = make_job(1);
        let mut pool = WorkerPool::with_config(PoolConfig {
            job_queue_depth: 2,
            policy: BackpressurePolicy::Block,
            ..PoolConfig::new(1)
        });
        for i in 0..6 {
            let mut j = job.clone();
            j.slot = i;
            j.fault = Some(InjectedFault::Delay(Duration::from_millis(10)));
            pool.submit(j).expect("queue open");
        }
        let stats = pool.stats();
        let results = pool.finish();
        assert_eq!(results.len(), 6, "blocking backpressure loses nothing");
        assert_eq!(stats.shed_jobs, 0);
    }

    #[test]
    fn broadcast_jobs_survive_shedding_and_drain_first() {
        let (job, _) = make_job(1);
        let mut pool = WorkerPool::with_config(PoolConfig {
            job_queue_depth: 2,
            policy: BackpressurePolicy::ShedOldest,
            ..PoolConfig::new(1)
        });
        // Jam the single worker so both queues actually fill.
        let mut slow = job.clone();
        slow.slot = 1000;
        slow.fault = Some(InjectedFault::Delay(Duration::from_millis(300)));
        pool.submit(slow).expect("queue open");
        std::thread::sleep(Duration::from_millis(50)); // worker picks it up
        for i in 0..2u64 {
            let mut b = job.clone();
            b.slot = 100 + i;
            b.priority = JobPriority::Broadcast;
            pool.submit(b).expect("queue open");
        }
        // Six data jobs through a depth-2 data queue: four shed, and the
        // sheds happened while broadcast jobs sat protected in their queue.
        for i in 0..6u64 {
            let mut j = job.clone();
            j.slot = i;
            pool.submit(j).expect("queue open");
        }
        let stats = pool.stats();
        assert_eq!(stats.shed_jobs, 4, "data sheds unchanged by priority");
        assert_eq!(
            stats.priority_sheds, 4,
            "every shed protected pending broadcast work"
        );
        let results = pool.finish();
        let mut slots: Vec<u64> = results.iter().map(|r| r.slot).collect();
        slots.sort_unstable();
        assert_eq!(
            slots,
            vec![4, 5, 100, 101, 1000],
            "both broadcast jobs survived; only data was shed"
        );
    }

    #[test]
    fn watchdog_abandons_stalled_worker_and_respawns() {
        let (job, _) = make_job(1);
        let mut pool = WorkerPool::with_config(PoolConfig {
            watchdog: Some(Duration::from_millis(40)),
            ..PoolConfig::new(1)
        });
        // Stall the lone worker far past the watchdog deadline, then queue
        // a healthy job behind it: only a respawned replacement can run it
        // before the stalled worker wakes.
        let mut stuck = job.clone();
        stuck.slot = 77;
        stuck.fault = Some(InjectedFault::Delay(Duration::from_millis(400)));
        pool.submit(stuck).expect("queue open");
        std::thread::sleep(Duration::from_millis(20)); // worker picks it up
        pool.submit(job.clone()).expect("queue open");
        let mut results = Vec::new();
        let start = Instant::now();
        while results.is_empty() && start.elapsed() < Duration::from_millis(300) {
            std::thread::sleep(Duration::from_millis(10));
            results.extend(pool.poll());
        }
        assert_eq!(results.len(), 1, "replacement ran the queued job");
        assert_eq!(results[0].slot, job.slot);
        let stats = pool.stats();
        assert_eq!(stats.worker_stalls, 1, "stall detected");
        assert!(stats.respawns >= 1, "replacement spawned");
        // The abandoned worker's slot still completes; nothing is lost.
        let rest = pool.finish();
        assert!(rest.iter().any(|r| r.slot == 77), "stalled result arrives");
    }

    #[test]
    fn shutdown_join_is_bounded_and_counts_stuck_workers() {
        let (job, _) = make_job(1);
        let mut pool = WorkerPool::with_config(PoolConfig {
            join_timeout: Duration::from_millis(50),
            ..PoolConfig::new(1)
        });
        let mut stuck = job.clone();
        stuck.fault = Some(InjectedFault::Delay(Duration::from_secs(30)));
        pool.submit(stuck).expect("queue open");
        std::thread::sleep(Duration::from_millis(20)); // worker picks it up
        let start = Instant::now();
        let (results, stats, _) = pool.finish_with_stats();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "finish returned without waiting the full 30 s stall"
        );
        assert!(results.is_empty());
        assert_eq!(stats.stuck_workers, 1, "the hung worker was abandoned");
    }

    #[test]
    fn budgeted_job_prunes_ue_decodes_in_the_pool() {
        let (job, n_c) = make_job(2);
        let full = process_slot(&job);
        assert_eq!(
            full.decoded
                .iter()
                .filter(|d| d.rnti_type == nr_phy::types::RntiType::C)
                .count(),
            n_c
        );
        assert_eq!(full.work.pruned, 0);
        let mut capped = job.clone();
        capped.budget = SearchBudget::broadcast_only();
        let r = process_slot(&capped);
        assert!(
            r.decoded
                .iter()
                .all(|d| d.rnti_type != nr_phy::types::RntiType::C),
            "broadcast-only budget reaches the shards"
        );
        assert!(r.work.pruned > 0, "pruned work reported to the governor");
    }

    #[test]
    fn truncated_iq_buffer_reports_layout_mismatch() {
        let (job, _) = make_job(1);
        // Synthesize an IQ job with a buffer no layout matches.
        let mut j = job.clone();
        j.observed = crate::observe::ObservedSlot::Iq {
            samples: vec![nr_phy::complex::Cf32::ZERO; 1234],
            pdsch: Vec::new(),
        };
        let r = process_slot(&j);
        assert!(r.layout_mismatch);
        assert!(r.decoded.is_empty());
    }

    #[test]
    fn processing_time_is_measured() {
        let (job, _) = make_job(1);
        let r = process_slot(&job);
        assert!(r.processing > Duration::ZERO);
    }
}
