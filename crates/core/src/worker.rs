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
//!
//! [`WorkerPool`] is that pool and nothing more: N threads read one
//! bounded queue, `submit` blocks while it is full, and a job that panics
//! is quarantined while its worker takes the next one. No production path
//! runs it — `NrScope::process` decodes inline, and the multi-cell
//! [`crate::Fleet`] has its own workers, watchdog and shedding queues.

use crate::decoder::{
    scan, DecodeWork, DecodedDci, DecoderContext, FrontEnd, GatedPosition, Hypotheses,
};
use crate::metrics::{Counter, Gauge, Metrics, Stage};
use crate::observe::ObservedSlot;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use nr_phy::numerology::SYMBOLS_PER_SLOT;
use nr_phy::pdcch::SearchBudget;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The one seam at slot boundaries: every slot path (a pool job, a fleet
/// shard's slot, a test harness's child process) calls it once with the fed
/// slot, before decoding. Fault injection lives in the caller's closure:
/// a hook that panics is a crashing slot, one that sleeps a slow or hung
/// one.
#[derive(Clone)]
pub struct SlotHook(Arc<dyn Fn(u64) + Send + Sync>);

impl SlotHook {
    /// Wrap `f`.
    pub fn new(f: impl Fn(u64) + Send + Sync + 'static) -> SlotHook {
        SlotHook(Arc::new(f))
    }

    /// Run the hook for fed slot `slot`.
    pub fn call(&self, slot: u64) {
        (self.0)(slot)
    }
}

impl std::fmt::Debug for SlotHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SlotHook")
    }
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
    /// PDCCH search budget of the scope's rung (gates only the
    /// UE-specific pass; unlimited by default).
    pub budget: SearchBudget,
    /// Run before the slot is decoded (`None` in production paths).
    pub hook: Option<SlotHook>,
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
    /// Offered-work counts.
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

/// The one bounded shutdown join (the pool's and the fleet's): join each
/// thread that finishes by `deadline`, and abandon — detach — the rest
/// instead of hanging the caller on a stuck one. Returns how many were
/// abandoned.
pub(crate) fn join_by(handles: impl IntoIterator<Item = JoinHandle<()>>, deadline: Instant) -> u64 {
    let mut stuck = 0;
    for h in handles {
        while !h.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        if h.is_finished() {
            let _ = h.join();
        } else {
            stuck += 1;
        }
    }
    stuck
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

/// `hyp` split among `threads` DCI threads: the C-RNTI list sharded, the
/// common hypotheses riding with shard 0 (the SIBs/RACH thread role).
pub(crate) fn shards(hyp: &Hypotheses, threads: usize) -> Vec<Hypotheses> {
    let shard = |i| {
        let c_rntis = hyp.c_rntis.shard(i, threads);
        match i {
            0 => Hypotheses {
                ra_rntis: hyp.ra_rntis.clone(),
                tc_rntis: hyp.tc_rntis.clone(),
                c_rntis,
                allow_recovery: hyp.allow_recovery,
                skip_common: false,
            },
            _ => Hypotheses {
                c_rntis,
                skip_common: true,
                ..Hypotheses::default()
            },
        }
    };
    (0..threads).map(shard).collect()
}

pub(crate) fn run_job_with(
    front: &mut FrontEnd,
    job: &SlotJob,
    metrics: &Arc<Metrics>,
) -> SlotResult {
    let start = Instant::now();
    if let Some(hook) = &job.hook {
        hook.call(job.slot);
    }
    let threads = job.dci_threads.max(1);
    let shards = shards(&job.hyp, threads);
    // Signal processing (the O(n log n) term of §5.3.2 — OFDM demod plus
    // candidate extraction/equalisation) runs once per slot: the pilot gate
    // here, each position's demap by the first shard that asks for it. Only
    // the per-UE DCI hypothesis testing (the O(m) term) is sharded across
    // threads — exactly the Fig 4 division of labour.
    let positions: Vec<GatedPosition> = match &job.observed {
        ObservedSlot::Iq { samples, .. } => {
            let sif = job.slot_in_frame;
            // A worker reads the CORESET only, its pilots first: cell
            // search and the PBCH are the scope's.
            let none = [false; SYMBOLS_PER_SLOT];
            // The layout is the job's, whatever the thread planned before.
            front.plan_layout(Some(&job.ctx), samples.len(), sif);
            let read = front.demodulate_pilots_first(&job.ctx, samples, sif, &none, metrics);
            if read.is_none() {
                return SlotResult {
                    slot: job.slot,
                    decoded: Vec::new(),
                    processing: start.elapsed(),
                    work: DecodeWork::default(),
                    layout_mismatch: true,
                };
            }
            front.gate_slot(&job.ctx, sif)
        }
        ObservedSlot::Message { .. } => Vec::new(),
    };
    // One hypothesis shard against the pre-processed slot under the job's
    // search budget.
    let (ctx, budget, sink) = (&job.ctx, job.budget, Some(metrics));
    let run_shard = |hyp: &Hypotheses| match &job.observed {
        ObservedSlot::Message { dcis, .. } => scan(ctx, dcis, hyp, budget, sink),
        ObservedSlot::Iq { .. } => scan(ctx, &positions, hyp, budget, sink),
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
    SlotResult {
        slot: job.slot,
        decoded,
        processing,
        work,
        layout_mismatch: false,
    }
}

/// How many submitted jobs may wait for a worker before
/// [`WorkerPool::submit`] blocks.
pub const JOB_QUEUE_DEPTH: usize = 256;

/// How long shutdown (`finish`/drop) waits for the workers to drain.
const JOIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Worker-pool sizing.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Number of worker threads.
    pub workers: usize,
}

impl PoolConfig {
    /// `workers` threads (at least one).
    pub fn new(workers: usize) -> PoolConfig {
        PoolConfig {
            workers: workers.max(1),
        }
    }
}

/// Pool health counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Jobs shed under backpressure: always 0 — `submit` blocks instead.
    /// It stays because the perf ledger's `worker.shed_jobs` row reads it;
    /// the row and the field go together.
    pub shed_jobs: u64,
    /// Jobs that panicked (each one quarantined).
    pub worker_panics: u64,
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

/// A job plus its enqueue timestamp (taken only when metrics record, so
/// a disabled registry never reads the clock at submit time).
struct QueuedJob {
    job: SlotJob,
    enqueued: Option<Instant>,
}

/// What a worker hands back for one job.
enum Outcome {
    Done(SlotResult),
    /// The job panicked; it is quarantined, never retried (a poison slot
    /// would panic on every worker in turn).
    Quarantined(Box<SlotJob>),
}

/// The asynchronous worker pool of Fig 4: jobs in, results out, processed
/// by `n_workers` OS threads. "The worker pool design enables
/// asynchronous, on-demand slot data processing" (§4).
///
/// The workers share one queue bounded at [`JOB_QUEUE_DEPTH`]; `submit`
/// blocks while it is full, so nothing is ever shed. Each job runs under
/// `catch_unwind`: a panicking job is quarantined (counted, and its
/// message kept as the registry's `worker_panic` note) and the same
/// worker takes the next job — its thread-local front end is valid after
/// an unwind. Shutdown joins within a bounded time and counts the workers
/// it had to abandon.
pub struct WorkerPool {
    /// The job queue; `None` once shutdown has closed it.
    jobs: Option<Sender<QueuedJob>>,
    done: Receiver<Outcome>,
    handles: Vec<JoinHandle<()>>,
    quarantined: Vec<SlotJob>,
    stuck_workers: u64,
    /// Pipeline metrics (queue wait, stage latencies, panic counts): the
    /// caller's shared registry, or the pool's own disabled one.
    metrics: Arc<Metrics>,
}

fn worker_loop(jobs: Receiver<QueuedJob>, done: Sender<Outcome>, metrics: Arc<Metrics>) {
    for QueuedJob { job, enqueued } in &jobs {
        if let Some(t) = enqueued {
            metrics.observe(Stage::WorkerQueue, t.elapsed());
        }
        let outcome = match catch_unwind(AssertUnwindSafe(|| run_job(&job, &metrics))) {
            Ok(result) => Outcome::Done(result),
            Err(payload) => {
                let panic_msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic".to_string());
                metrics.inc(Counter::WorkerPanics);
                metrics.inc(Counter::JobsQuarantined);
                metrics.note("worker_panic", format!("slot {}: {panic_msg}", job.slot));
                Outcome::Quarantined(Box::new(job))
            }
        };
        if done.send(outcome).is_err() {
            return;
        }
    }
}

impl WorkerPool {
    /// Spawn a pool with `n_workers` workers. Nothing is measured (the
    /// pool records into a disabled registry of its own).
    pub fn new(n_workers: usize) -> WorkerPool {
        WorkerPool::with_metrics(PoolConfig::new(n_workers), Metrics::shared(false))
    }

    /// Spawn a pool recording into a shared metrics registry: queue wait
    /// (`worker_queue` stage), queue depth, panic/quarantine counts, and
    /// all per-stage decode latencies from inside the workers.
    pub fn with_metrics(cfg: PoolConfig, metrics: Arc<Metrics>) -> WorkerPool {
        let (job_tx, job_rx) = bounded::<QueuedJob>(JOB_QUEUE_DEPTH);
        let (done_tx, done) = unbounded::<Outcome>();
        let handles = (0..cfg.workers)
            .map(|_| {
                let (jobs, tx, metrics) = (job_rx.clone(), done_tx.clone(), metrics.clone());
                std::thread::spawn(move || worker_loop(jobs, tx, metrics))
            })
            .collect();
        metrics.gauge_set(Gauge::WorkersAlive, cfg.workers as u64);
        WorkerPool {
            jobs: Some(job_tx),
            done,
            handles,
            quarantined: Vec::new(),
            stuck_workers: 0,
            metrics,
        }
    }

    /// Queue a slot job, blocking while the queue is full. Hands the job
    /// back instead of panicking if the queue is closed.
    pub fn submit(&mut self, job: SlotJob) -> Result<(), SubmitError> {
        let Some(jobs) = &self.jobs else {
            return Err(SubmitError(Box::new(job)));
        };
        let enqueued = self.metrics.is_enabled().then(Instant::now);
        (jobs.send(QueuedJob { job, enqueued })).map_err(|e| SubmitError(Box::new(e.0.job)))?;
        self.metrics.gauge_set(Gauge::QueueDepth, jobs.len() as u64);
        Ok(())
    }

    /// Drain any results already finished (non-blocking), quarantining
    /// the jobs that panicked.
    pub fn poll(&mut self) -> Vec<SlotResult> {
        let mut results = Vec::new();
        for outcome in self.done.try_iter() {
            match outcome {
                Outcome::Done(r) => results.push(r),
                Outcome::Quarantined(job) => self.quarantined.push(*job),
            }
        }
        results
    }

    /// Pool health counters so far.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            shed_jobs: 0,
            worker_panics: self.quarantined.len() as u64,
            stuck_workers: self.stuck_workers,
        }
    }

    /// Jobs that panicked (quarantined, never retried).
    pub fn quarantined(&self) -> &[SlotJob] {
        &self.quarantined
    }

    /// Close the job queue and wait (boundedly) for the workers to drain
    /// it; returns the remaining results.
    pub fn finish(mut self) -> Vec<SlotResult> {
        self.run_down(JOIN_TIMEOUT)
    }

    /// Like [`WorkerPool::finish`], but also returns the final health
    /// counters and the quarantined jobs — the numbers `finish` consumes.
    pub fn finish_with_stats(mut self) -> (Vec<SlotResult>, PoolStats, Vec<SlotJob>) {
        let out = self.run_down(JOIN_TIMEOUT);
        (out, self.stats(), std::mem::take(&mut self.quarantined))
    }

    /// Close the queue, join the workers by `timeout` from now, and
    /// collect what they finished. A no-op once the queue is closed.
    fn run_down(&mut self, timeout: Duration) -> Vec<SlotResult> {
        // Dropping the sender closes the queue: workers drain what is
        // queued, then see it disconnected and exit.
        if self.jobs.take().is_none() {
            return Vec::new();
        }
        self.stuck_workers = join_by(self.handles.drain(..), Instant::now() + timeout);
        self.metrics
            .gauge_set(Gauge::WorkersAlive, self.stuck_workers);
        // Leaving the gauge at its last enqueue value would report phantom
        // backlog in post-shutdown snapshots.
        self.metrics.gauge_set(Gauge::QueueDepth, 0);
        self.poll()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.run_down(JOIN_TIMEOUT);
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

    /// A job hook that panics the way a poison slot does.
    fn poisoned() -> Option<SlotHook> {
        Some(SlotHook::new(|slot| {
            panic!("injected fault in slot {slot}")
        }))
    }

    fn sleeps(d: Duration) -> Option<SlotHook> {
        Some(SlotHook::new(move |_| std::thread::sleep(d)))
    }

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
                        budget: SearchBudget::unlimited(),
                        hook: None,
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
            hook: poisoned(),
            ..mu0.0.clone()
        };
        assert!(catch_unwind(AssertUnwindSafe(|| process_slot(&poisoned))).is_err());
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
                j.hook = poisoned();
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
    fn worker_runs_the_job_queued_behind_a_panic() {
        let (job, _) = make_job(1);
        // One worker and no respawn: only the worker the poison job
        // unwound in can process the healthy job queued behind it.
        let mut pool = WorkerPool::new(1);
        let mut poison = job.clone();
        poison.slot = 99;
        poison.hook = poisoned();
        pool.submit(poison).expect("queue open");
        pool.submit(job.clone()).expect("queue open");
        let (results, stats, quarantined) = pool.finish_with_stats();
        assert_eq!(results.len(), 1, "the worker outlived the panic");
        assert_eq!(results[0].slot, job.slot);
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].slot, 99);
    }

    #[test]
    fn full_queue_blocks_and_loses_nothing() {
        let (job, _) = make_job(1);
        let mut pool = WorkerPool::new(1);
        // Jam the single worker: the last jobs fit only once it is free.
        let start = Instant::now();
        let mut slow = job.clone();
        slow.hook = sleeps(Duration::from_millis(200));
        pool.submit(slow).expect("queue open");
        let n = JOB_QUEUE_DEPTH + 8;
        for i in 0..n {
            let mut j = job.clone();
            j.slot = i as u64;
            pool.submit(j).expect("queue open");
        }
        assert!(
            start.elapsed() >= Duration::from_millis(200),
            "submit waited for the jammed worker"
        );
        let (results, stats, _) = pool.finish_with_stats();
        assert_eq!(results.len(), n + 1, "blocking backpressure loses nothing");
        assert_eq!(stats.shed_jobs, 0);
    }

    #[test]
    fn shutdown_join_is_bounded_and_counts_stuck_workers() {
        let (job, _) = make_job(1);
        let mut pool = WorkerPool::new(1);
        let mut stuck = job.clone();
        stuck.hook = sleeps(Duration::from_secs(30));
        pool.submit(stuck).expect("queue open");
        let start = Instant::now();
        let results = pool.run_down(Duration::from_millis(50));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown returned without waiting the full 30 s stall"
        );
        assert!(results.is_empty());
        assert_eq!(
            pool.stats().stuck_workers,
            1,
            "the hung worker was abandoned"
        );
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
        assert!(r.work.pruned > 0, "pruned work reported");
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
