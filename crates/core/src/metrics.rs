//! Pipeline observability: counters, gauges, and fixed-bucket latency
//! histograms for every stage of the decode pipeline (PR 2 tentpole).
//!
//! The ROADMAP's "as fast as the hardware allows" goal needs the pipeline
//! to be *measurable* before it is optimisable — the way platform studies
//! instrument srsRAN/OAI. This registry is designed for the hot path:
//!
//! * every instrument is a plain `AtomicU64` updated with `Relaxed`
//!   ordering — no locks, no allocation, shardable across the worker pool
//!   by construction (atomic adds commute);
//! * a registry built disabled is the one way to say "no metrics": its
//!   instruments are inert and its timers skip even the `Instant::now()`
//!   call, so the cost is one branch on a plain `bool` per stage entry —
//!   the enabled overhead is the perf ledger's `metrics.overhead_pct`
//!   (`benchmark/`);
//! * histograms use fixed log-linear buckets (8 linear sub-buckets per
//!   power-of-two octave from 64 ns to ~17 s, plus an explicit overflow
//!   bucket), so recording is a bit-length computation plus one atomic
//!   increment, and p50/p99 are reconstructed from the cumulative bucket
//!   counts with linear interpolation inside the landing bucket.
//!
//! [`MetricsSnapshot`] freezes the registry into plain serde-serialisable
//! structs with JSON export ([`MetricsSnapshot::to_json`]) and a
//! human-readable table ([`MetricsSnapshot::summary`]).
//!
//! Each number has one owner. The registry keeps what only it knows: the
//! stage histograms, the notes, and the [`Counter`]s and [`Gauge`]s of
//! producers that keep no count of their own. What a scope decides it
//! counts once, in its `ScopeStats`, and
//! [`crate::scope::NrScope::metrics_snapshot`] adds those counters and the
//! scope's gauges to the registry's snapshot when it is taken.

use crate::worker::lock_clean;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Bound on the keyed diagnostic-note ledger ([`Metrics::note`]): one slot
/// per distinct key, oldest key evicted beyond this.
const NOTES_MAX: usize = 16;

/// Pipeline stages with latency histograms. The order is the pipeline
/// order (Fig 4): radio capture → OFDM demod → PDCCH search → DCI decode →
/// RNTI classification → UE tracking, plus the worker-queue wait and the
/// whole-slot envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Radio front end: rendering/receiving one slot (nr-radio + observer).
    Capture,
    /// OFDM demodulation (FFT + CP removal) of an IQ slot, and the
    /// completion of CORESET symbols read at their pilot class first.
    Demod,
    /// PDCCH blind search: the pilot gate over every candidate position
    /// (a position's demap is timed with its first decode), or the
    /// whole-slot codeword scan at message fidelity.
    PdcchSearch,
    /// One candidate's DCI hypothesis testing (descramble + polar + CRC).
    DciDecode,
    /// RNTI classification and telemetry production for a decoded slot.
    Classify,
    /// UE tracking housekeeping: expiry, RACH state, throughput pruning.
    Tracking,
    /// Time a job spent queued before a worker picked it up.
    WorkerQueue,
    /// Whole-slot processing envelope (everything except capture).
    SlotTotal,
    /// Slot latency at the `Full` rung.
    RungFull,
    /// Slot latency at the `BroadcastOnly` rung.
    RungBroadcast,
    /// Clock-lock reacquisition time (air time from leaving `Locked` to
    /// re-entering it).
    ClockReacquire,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 11] = [
        Stage::Capture,
        Stage::Demod,
        Stage::PdcchSearch,
        Stage::DciDecode,
        Stage::Classify,
        Stage::Tracking,
        Stage::WorkerQueue,
        Stage::SlotTotal,
        Stage::RungFull,
        Stage::RungBroadcast,
        Stage::ClockReacquire,
    ];

    /// Stable snake_case name used in snapshots and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Capture => "capture",
            Stage::Demod => "demod",
            Stage::PdcchSearch => "pdcch_search",
            Stage::DciDecode => "dci_decode",
            Stage::Classify => "classify",
            Stage::Tracking => "tracking",
            Stage::WorkerQueue => "worker_queue",
            Stage::SlotTotal => "slot_total",
            Stage::RungFull => "rung_full",
            Stage::RungBroadcast => "rung_broadcast_only",
            Stage::ClockReacquire => "clock_reacquire",
        }
    }
}

/// Monotonic event counters of the producers that keep no count of their
/// own: the radio, the worker pool, the telemetry log, the journal and
/// checkpoint writers, the storage ladder and the fleet's supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Slots received by the radio front end.
    RadioSlots,
    /// IQ samples through the virtual USRP.
    RadioSamples,
    /// AGC transients injected/observed at the front end.
    AgcKicks,
    /// Interference bursts (SNR penalties) at the front end.
    InterferenceBursts,
    /// Jobs the worker pool quarantined after they panicked.
    JobsQuarantined,
    /// Job panics caught by the worker pool.
    WorkerPanics,
    /// Telemetry log writes that failed (sink error) without aborting
    /// capture.
    LogWriteFailures,
    /// Journal appends that failed (sink error) without aborting capture.
    JournalWriteFailures,
    /// Group-commit journal batches handed to the OS by the writer thread.
    JournalBatches,
    /// Checkpoints written durably (cadence thread, shutdown, re-anchor).
    CheckpointsWritten,
    /// Checkpoint writes that failed (I/O error).
    CheckpointFailures,
    /// Checkpoint cadence points the checkpoint thread could not take (it
    /// had not yet taken the previous state): no state is built for them,
    /// and the hot path never blocks on the thread.
    CheckpointsSkipped,
    /// Journal writes retried after a transient storage error (the retry
    /// runs on the writer thread with exponential backoff — never the
    /// capture hot path).
    StorageRetries,
    /// Demotions to `NonDurable` after retries were exhausted, `ENOSPC`
    /// survived the emergency prune, or the journal writer died.
    StorageDemotions,
    /// Emergency checkpoint/journal prunes triggered by `ENOSPC`.
    EmergencyPrunes,
    /// Warm restarts completed by a fleet shard's supervisor (engine
    /// rebuilds and volatile fallbacks).
    RestartsTotal,
}

impl Counter {
    /// All counters.
    pub const ALL: [Counter; 16] = [
        Counter::RadioSlots,
        Counter::RadioSamples,
        Counter::AgcKicks,
        Counter::InterferenceBursts,
        Counter::JobsQuarantined,
        Counter::WorkerPanics,
        Counter::LogWriteFailures,
        Counter::JournalWriteFailures,
        Counter::JournalBatches,
        Counter::CheckpointsWritten,
        Counter::CheckpointFailures,
        Counter::CheckpointsSkipped,
        Counter::StorageRetries,
        Counter::StorageDemotions,
        Counter::EmergencyPrunes,
        Counter::RestartsTotal,
    ];

    /// Stable snake_case name used in snapshots and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Counter::RadioSlots => "radio_slots",
            Counter::RadioSamples => "radio_samples",
            Counter::AgcKicks => "agc_kicks",
            Counter::InterferenceBursts => "interference_bursts",
            Counter::JobsQuarantined => "jobs_quarantined",
            Counter::WorkerPanics => "worker_panics",
            Counter::LogWriteFailures => "log_write_failures",
            Counter::JournalWriteFailures => "journal_write_failures",
            Counter::JournalBatches => "journal_batches",
            Counter::CheckpointsWritten => "checkpoints_written",
            Counter::CheckpointFailures => "checkpoint_failures",
            Counter::CheckpointsSkipped => "checkpoints_skipped",
            Counter::StorageRetries => "storage_retries",
            Counter::StorageDemotions => "storage_demotions",
            Counter::EmergencyPrunes => "emergency_prunes",
            Counter::RestartsTotal => "restarts_total",
        }
    }
}

/// Last-value gauges of the same producers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Jobs waiting in the worker pool's bounded queue.
    QueueDepth,
    /// Live worker threads.
    WorkersAlive,
    /// Current durability-ladder rung (0 = Durable, 1 = DurableDegraded,
    /// 2 = NonDurable).
    DurabilityRung,
    /// 1 while a fleet shard's restart-storm circuit breaker is open (the
    /// shard is parked in lame-duck mode), 0 otherwise.
    RestartBreakerOpen,
}

impl Gauge {
    /// All gauges.
    pub const ALL: [Gauge; 4] = [
        Gauge::QueueDepth,
        Gauge::WorkersAlive,
        Gauge::DurabilityRung,
        Gauge::RestartBreakerOpen,
    ];

    /// Stable snake_case name used in snapshots and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::QueueDepth => "queue_depth",
            Gauge::WorkersAlive => "workers_alive",
            Gauge::DurabilityRung => "durability_rung",
            Gauge::RestartBreakerOpen => "restart_breaker_open",
        }
    }
}

/// Octaves (power-of-two ranges) covered by the histogram: 64 ns up to
/// `64·2^28` ≈ 17 s, which brackets everything from a single atomic to a
/// watchdog-length stall without saturating.
pub const HISTO_OCTAVES: usize = 28;

/// Linear sub-buckets per octave. Eight sub-buckets bound the quantile
/// quantisation error at 12.5% of the value (vs. the ×2 of pure log2
/// buckets, which collapsed p50 and p99 whenever a stage's samples
/// concentrated in one octave).
pub const HISTO_SUB_BUCKETS: usize = 8;

/// Number of histogram buckets: log-linear buckets plus one explicit
/// overflow bucket for samples at or beyond the top edge.
pub const HISTO_BUCKETS: usize = HISTO_OCTAVES * HISTO_SUB_BUCKETS + 1;

/// Smallest histogram bucket lower bound, ns (`64·2^0`).
pub const HISTO_BASE_NS: u64 = 64;

/// Lower edge of the overflow bucket, ns (`64·2^28`).
pub const HISTO_OVERFLOW_NS: u64 = HISTO_BASE_NS << HISTO_OCTAVES;

fn bucket_for(ns: u64) -> usize {
    if ns < HISTO_BASE_NS {
        return 0;
    }
    if ns >= HISTO_OVERFLOW_NS {
        return HISTO_BUCKETS - 1;
    }
    // ⌊log2⌋ via bit length gives the octave; the sub-bucket is the linear
    // position within it (octave width == octave lower bound, so the
    // division is by `lo`).
    let octave = (ns.ilog2() as usize) - 6;
    let lo = HISTO_BASE_NS << octave;
    let sub = (((ns - lo) as u128 * HISTO_SUB_BUCKETS as u128) / lo as u128) as usize;
    octave * HISTO_SUB_BUCKETS + sub.min(HISTO_SUB_BUCKETS - 1)
}

/// `[lo, hi)` bounds of bucket `i` in ns (`hi == u64::MAX` for overflow).
fn bucket_bounds_ns(i: usize) -> (u64, u64) {
    if i >= HISTO_OCTAVES * HISTO_SUB_BUCKETS {
        return (HISTO_OVERFLOW_NS, u64::MAX);
    }
    let octave = i / HISTO_SUB_BUCKETS;
    let sub = (i % HISTO_SUB_BUCKETS) as u64;
    let lo = HISTO_BASE_NS << octave;
    let step = lo / HISTO_SUB_BUCKETS as u64;
    (lo + sub * step, lo + (sub + 1) * step)
}

/// One stage's latency accumulator: lock-free fixed-bucket histogram.
#[derive(Debug)]
struct StageHisto {
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; HISTO_BUCKETS],
}

impl Default for StageHisto {
    fn default() -> Self {
        StageHisto {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl StageHisto {
    fn observe_ns(&self, ns: u64) {
        self.count.fetch_add(1, Relaxed);
        self.sum_ns.fetch_add(ns, Relaxed);
        self.max_ns.fetch_max(ns, Relaxed);
        self.buckets[bucket_for(ns)].fetch_add(1, Relaxed);
    }

    /// Reconstruct the q-quantile (0..=1) from the bucket counts, in µs,
    /// interpolating linearly inside the landing bucket. Ranks landing in
    /// the overflow bucket interpolate toward the recorded maximum instead
    /// of a fabricated midpoint, so an out-of-range tail still reports a
    /// truthful magnitude.
    fn quantile_us(&self, counts: &[u64; HISTO_BUCKETS], max_ns: u64, q: f64) -> f64 {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, hi) = bucket_bounds_ns(i);
                let hi = if hi == u64::MAX { max_ns.max(lo) } else { hi };
                let frac = (rank - seen) as f64 / c as f64;
                return (lo as f64 + frac * (hi - lo) as f64) / 1_000.0;
            }
            seen += c;
        }
        max_ns as f64 / 1_000.0
    }
}

/// The metrics registry: one per telemetry session, shared by `Arc` across
/// the scope, the observer, the radio front end, and the worker pool.
#[derive(Debug)]
pub struct Metrics {
    enabled: bool,
    stages: [StageHisto; Stage::ALL.len()],
    counters: [AtomicU64; Counter::ALL.len()],
    gauges: [AtomicU64; Gauge::ALL.len()],
    /// Keyed free-text diagnostics (last checkpoint error, last storage
    /// error, demotion reason): a counter says *how often*, a note says
    /// *why*. Off the hot path — written only on error/transition edges.
    notes: Mutex<Vec<(String, String)>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new(true)
    }
}

impl Metrics {
    /// New registry; `enabled` controls whether instruments record.
    pub fn new(enabled: bool) -> Metrics {
        Metrics {
            enabled,
            stages: Default::default(),
            counters: Default::default(),
            gauges: Default::default(),
            notes: Mutex::new(Vec::new()),
        }
    }

    /// New shared registry (the usual way to construct one).
    pub fn shared(enabled: bool) -> Arc<Metrics> {
        Arc::new(Metrics::new(enabled))
    }

    /// The process-wide disabled registry: what a function entered without
    /// a registry records into (nothing). Holders that can *write* — notes
    /// record even when disabled — build their own with
    /// [`Metrics::shared`] instead, so one pool's diagnostics never land
    /// in another's.
    pub(crate) fn disabled() -> &'static Arc<Metrics> {
        static DISABLED: OnceLock<Arc<Metrics>> = OnceLock::new();
        DISABLED.get_or_init(|| Metrics::shared(false))
    }

    /// Whether instruments record (fixed at construction).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Increment a counter by 1.
    pub fn inc(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Increment a counter by `n`.
    pub fn add(&self, c: Counter, n: u64) {
        if self.is_enabled() {
            self.counters[c as usize].fetch_add(n, Relaxed);
        }
    }

    /// Current value of a counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Relaxed)
    }

    /// Set a gauge to `v`.
    pub fn gauge_set(&self, g: Gauge, v: u64) {
        if self.is_enabled() {
            self.gauges[g as usize].store(v, Relaxed);
        }
    }

    /// Current value of a gauge.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize].load(Relaxed)
    }

    /// Record a keyed diagnostic note (latest detail wins per key).
    /// Recorded even when the registry is disabled: an operator who turned
    /// instrumentation off still wants to know *why* durability degraded.
    pub fn note(&self, key: &str, detail: impl Into<String>) {
        let mut notes = lock_clean(&self.notes);
        if let Some(slot) = notes.iter_mut().find(|(k, _)| k == key) {
            slot.1 = detail.into();
            return;
        }
        if notes.len() >= NOTES_MAX {
            notes.remove(0);
        }
        notes.push((key.to_string(), detail.into()));
    }

    /// Latest detail recorded for a note key, if any.
    pub fn note_detail(&self, key: &str) -> Option<String> {
        let notes = lock_clean(&self.notes);
        notes.iter().find(|(k, _)| k == key).map(|(_, d)| d.clone())
    }

    /// Record a duration observation for a stage.
    pub fn observe(&self, stage: Stage, d: std::time::Duration) {
        if self.is_enabled() {
            self.observe_ns(stage, d.as_nanos().min(u64::MAX as u128) as u64);
        }
    }

    fn observe_ns(&self, stage: Stage, ns: u64) {
        self.stages[stage as usize].observe_ns(ns);
    }

    /// Start timing a stage. Recording happens when the returned guard
    /// drops; when the registry is disabled, no clock is read at all.
    pub fn start(self: &Arc<Metrics>, stage: Stage) -> StageTimer {
        StageTimer {
            inner: self
                .is_enabled()
                .then(|| (Arc::clone(self), stage, Instant::now())),
        }
    }

    /// Freeze every instrument into a serialisable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let stages = Stage::ALL
            .iter()
            .map(|&s| {
                let h = &self.stages[s as usize];
                let counts: [u64; HISTO_BUCKETS] =
                    std::array::from_fn(|i| h.buckets[i].load(Relaxed));
                let count = h.count.load(Relaxed);
                let sum_ns = h.sum_ns.load(Relaxed);
                let max_ns = h.max_ns.load(Relaxed);
                StageSnapshot {
                    stage: s.name().to_string(),
                    count,
                    total_ms: sum_ns as f64 / 1e6,
                    mean_us: if count == 0 {
                        0.0
                    } else {
                        sum_ns as f64 / count as f64 / 1e3
                    },
                    p50_us: h.quantile_us(&counts, max_ns, 0.50),
                    p99_us: h.quantile_us(&counts, max_ns, 0.99),
                    max_us: max_ns as f64 / 1e3,
                }
            })
            .collect();
        let counters = Counter::ALL
            .iter()
            .map(|&c| CounterSnapshot {
                name: c.name().to_string(),
                value: self.counter(c),
            })
            .collect();
        let gauges = Gauge::ALL
            .iter()
            .map(|&g| GaugeSnapshot {
                name: g.name().to_string(),
                value: self.gauge(g),
            })
            .collect();
        let notes = lock_clean(&self.notes).clone();
        MetricsSnapshot {
            schema_version: crate::SCHEMA_VERSION,
            enabled: self.is_enabled(),
            counters,
            gauges,
            stages,
            notes,
        }
    }

    /// Restore counter values from a frozen snapshot (crash-safe session
    /// recovery). Counters whose names the snapshot does not carry are left
    /// untouched; unknown snapshot names are ignored. Histograms and gauges
    /// are not restorable — snapshots keep only their aggregates — so the
    /// restarted registry's latency view starts fresh.
    pub fn restore_counters(&self, snap: &MetricsSnapshot) {
        for c in Counter::ALL {
            if let Some(v) = snap.counter(c.name()) {
                self.counters[c as usize].store(v, Relaxed);
            }
        }
    }
}

/// RAII stage timer from [`Metrics::start`]; records on drop.
#[derive(Debug)]
pub struct StageTimer {
    inner: Option<(Arc<Metrics>, Stage, Instant)>,
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        if let Some((m, stage, start)) = self.inner.take() {
            m.observe(stage, start.elapsed());
        }
    }
}

/// One stage's frozen latency statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// Stage name ([`Stage::name`]).
    pub stage: String,
    /// Observations recorded.
    pub count: u64,
    /// Total time in the stage, ms.
    pub total_ms: f64,
    /// Mean observation, µs.
    pub mean_us: f64,
    /// Median (p50) from the histogram buckets, µs.
    pub p50_us: f64,
    /// 99th percentile from the histogram buckets, µs.
    pub p99_us: f64,
    /// Largest single observation, µs.
    pub max_us: f64,
}

/// One counter's frozen value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Counter name ([`Counter::name`]).
    pub name: String,
    /// Value.
    pub value: u64,
}

/// One gauge's frozen value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Gauge name ([`Gauge::name`]).
    pub name: String,
    /// Value.
    pub value: u64,
}

/// A frozen view of the whole registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Serialisation schema version ([`crate::SCHEMA_VERSION`]); snapshots
    /// from a future schema are rejected by [`MetricsSnapshot::from_json`].
    pub schema_version: u32,
    /// Whether the registry was recording when frozen.
    pub enabled: bool,
    /// All counters, in [`Counter::ALL`] order; a scope's snapshot appends
    /// its own.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, in [`Gauge::ALL`] order; a scope's snapshot appends its
    /// own.
    pub gauges: Vec<GaugeSnapshot>,
    /// All stages, in [`Stage::ALL`] (pipeline) order.
    pub stages: Vec<StageSnapshot>,
    /// Keyed diagnostic notes ([`Metrics::note`]), insertion order.
    pub notes: Vec<(String, String)>,
}

impl MetricsSnapshot {
    /// Serialise to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialises")
    }

    /// Parse a snapshot back from [`MetricsSnapshot::to_json`] output.
    /// Rejects snapshots written by a future schema version — their field
    /// semantics are unknowable, so loading them would silently misread.
    pub fn from_json(s: &str) -> Result<MetricsSnapshot, serde_json::Error> {
        let snap: MetricsSnapshot = serde_json::from_str(s)?;
        if snap.schema_version > crate::SCHEMA_VERSION {
            return Err(serde_json::Error::from(serde::DeError(format!(
                "metrics snapshot schema v{} is newer than supported v{}",
                snap.schema_version,
                crate::SCHEMA_VERSION
            ))));
        }
        Ok(snap)
    }

    /// Look up a stage by name.
    pub fn stage(&self, name: &str) -> Option<&StageSnapshot> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// Look up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Look up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Look up a diagnostic note by key.
    pub fn note(&self, key: &str) -> Option<&str> {
        self.notes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, d)| d.as_str())
    }

    /// Human-readable summary table (the examples print this).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "pipeline metrics ({})\n",
            if self.enabled { "enabled" } else { "disabled" }
        ));
        out.push_str(&format!(
            "  {:<14} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            "stage", "count", "mean_us", "p50_us", "p99_us", "max_us"
        ));
        for s in &self.stages {
            if s.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:<14} {:>10} {:>10.1} {:>10.1} {:>10.1} {:>10.1}\n",
                s.stage, s.count, s.mean_us, s.p50_us, s.p99_us, s.max_us
            ));
        }
        for c in &self.counters {
            if c.value != 0 {
                out.push_str(&format!("  {:<30} {}\n", c.name, c.value));
            }
        }
        for g in &self.gauges {
            if g.value != 0 {
                out.push_str(&format!("  {:<30} {}\n", g.name, g.value));
            }
        }
        for (key, detail) in &self.notes {
            out.push_str(&format!("  note {key}: {detail}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn buckets_are_log_linear_from_64ns() {
        // Below base: bucket 0. First octave [64, 128) splits into 8
        // linear sub-buckets of 8 ns each.
        assert_eq!(bucket_for(0), 0);
        assert_eq!(bucket_for(63), 0);
        assert_eq!(bucket_for(64), 0);
        assert_eq!(bucket_for(71), 0);
        assert_eq!(bucket_for(72), 1);
        assert_eq!(bucket_for(127), 7);
        // Octave 1 starts at bucket 8.
        assert_eq!(bucket_for(128), 8);
        assert_eq!(bucket_for((64 << 10) as u64), 10 * HISTO_SUB_BUCKETS);
        // Top edge and beyond land in the explicit overflow bucket.
        assert_eq!(bucket_for(HISTO_OVERFLOW_NS - 1), HISTO_BUCKETS - 2);
        assert_eq!(bucket_for(HISTO_OVERFLOW_NS), HISTO_BUCKETS - 1);
        assert_eq!(bucket_for(u64::MAX), HISTO_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_are_contiguous_and_monotonic() {
        let mut prev_hi = HISTO_BASE_NS;
        for i in 0..HISTO_BUCKETS - 1 {
            let (lo, hi) = bucket_bounds_ns(i);
            if i > 0 {
                assert_eq!(lo, prev_hi, "bucket {i} not contiguous");
            }
            assert!(hi > lo, "bucket {i} empty");
            // Every representative value maps back to its own bucket.
            assert_eq!(bucket_for(lo), i, "lower edge of bucket {i}");
            assert_eq!(bucket_for(hi - 1), i, "upper edge of bucket {i}");
            prev_hi = hi;
        }
        assert_eq!(prev_hi, HISTO_OVERFLOW_NS);
    }

    #[test]
    fn quantiles_resolve_within_one_octave() {
        // Regression for the p50 == p99 saturation bug: spread samples
        // across one octave (all in old-style bucket 19, [33.5 ms, 67 ms))
        // and the percentiles must still separate.
        let m = Metrics::new(true);
        for i in 0..100u64 {
            m.observe(Stage::WorkerQueue, Duration::from_micros(34_000 + 300 * i));
        }
        let snap = m.snapshot();
        let s = snap.stage("worker_queue").unwrap();
        assert!(
            s.p99_us > s.p50_us * 1.2,
            "p50 {} and p99 {} collapsed",
            s.p50_us,
            s.p99_us
        );
        // Interpolated quantiles stay within ~13% of the true values.
        assert!((s.p50_us - 49_000.0).abs() < 6_500.0, "p50 {}", s.p50_us);
        assert!((s.p99_us - 63_700.0).abs() < 8_300.0, "p99 {}", s.p99_us);
    }

    #[test]
    fn overflow_bucket_reports_true_magnitude() {
        // Samples beyond the top edge must not collapse to a fabricated
        // bucket midpoint: the overflow bucket interpolates toward the
        // recorded maximum.
        let m = Metrics::new(true);
        for _ in 0..10 {
            m.observe(Stage::WorkerQueue, Duration::from_secs(30));
        }
        let snap = m.snapshot();
        let s = snap.stage("worker_queue").unwrap();
        let overflow_lo_us = HISTO_OVERFLOW_NS as f64 / 1e3;
        assert!(s.p50_us >= overflow_lo_us, "p50 {}", s.p50_us);
        assert!(
            s.p99_us <= s.max_us + 1.0,
            "p99 {} max {}",
            s.p99_us,
            s.max_us
        );
        assert!(s.max_us >= 29.9e6, "max {}", s.max_us);
    }

    #[test]
    fn counters_and_gauges_record_when_enabled() {
        let m = Metrics::shared(true);
        m.inc(Counter::RadioSlots);
        m.add(Counter::RadioSlots, 4);
        m.gauge_set(Gauge::QueueDepth, 17);
        assert_eq!(m.counter(Counter::RadioSlots), 5);
        assert_eq!(m.gauge(Gauge::QueueDepth), 17);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let m = Metrics::shared(false);
        m.inc(Counter::RadioSlots);
        m.gauge_set(Gauge::QueueDepth, 9);
        m.observe(Stage::DciDecode, Duration::from_micros(10));
        {
            let _t = m.start(Stage::Capture);
        }
        let snap = m.snapshot();
        assert!(!snap.enabled);
        assert!(snap.counters.iter().all(|c| c.value == 0));
        assert!(snap.gauges.iter().all(|g| g.value == 0));
        assert!(snap.stages.iter().all(|s| s.count == 0));
    }

    #[test]
    fn timer_guard_populates_stage_histogram() {
        let m = Metrics::shared(true);
        for _ in 0..50 {
            let _t = m.start(Stage::PdcchSearch);
            std::hint::black_box(0u64);
        }
        let snap = m.snapshot();
        let s = snap.stage("pdcch_search").unwrap();
        assert_eq!(s.count, 50);
        assert!(s.p99_us >= s.p50_us);
        assert!(s.max_us > 0.0);
    }

    #[test]
    fn percentiles_come_from_the_right_buckets() {
        let m = Metrics::new(true);
        // 99 fast observations (~1 µs), 1 slow (~1 ms).
        for _ in 0..99 {
            m.observe(Stage::Demod, Duration::from_micros(1));
        }
        m.observe(Stage::Demod, Duration::from_millis(1));
        let snap = m.snapshot();
        let s = snap.stage("demod").unwrap();
        assert_eq!(s.count, 100);
        assert!(s.p50_us < 3.0, "p50 {}", s.p50_us);
        assert!(s.p99_us < 3.0, "p99 is still in the fast bucket");
        assert!(s.max_us > 900.0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let m = Metrics::new(true);
        m.add(Counter::RadioSlots, 123);
        m.observe(Stage::SlotTotal, Duration::from_micros(250));
        let snap = m.snapshot();
        let json = snap.to_json();
        let back = MetricsSnapshot::from_json(&json).expect("parses");
        assert_eq!(snap, back);
        assert_eq!(back.counter("radio_slots"), Some(123));
    }

    #[test]
    fn summary_lists_active_stages_only() {
        let m = Metrics::new(true);
        m.observe(Stage::Capture, Duration::from_micros(5));
        let text = m.snapshot().summary();
        assert!(text.contains("capture"));
        assert!(
            !text.contains("worker_queue"),
            "idle stages omitted:\n{text}"
        );
    }

    #[test]
    fn notes_replace_by_key_and_survive_snapshots() {
        let m = Metrics::new(false); // recorded even while disabled
        m.note("checkpoint_error", "disk on fire");
        m.note("checkpoint_error", "disk merely smouldering");
        m.note("storage_demotion", "retries exhausted");
        assert_eq!(
            m.note_detail("checkpoint_error").as_deref(),
            Some("disk merely smouldering")
        );
        let snap = m.snapshot();
        assert_eq!(
            snap.note("checkpoint_error"),
            Some("disk merely smouldering")
        );
        assert_eq!(snap.note("storage_demotion"), Some("retries exhausted"));
        assert!(snap.summary().contains("note checkpoint_error"));
        // Round-trips.
        let back = MetricsSnapshot::from_json(&snap.to_json()).expect("parses");
        assert_eq!(snap, back);
        // The ledger is bounded: flooding distinct keys evicts the oldest.
        for i in 0..(NOTES_MAX * 2) {
            m.note(&format!("k{i}"), "x");
        }
        assert!(m.snapshot().notes.len() <= NOTES_MAX);
    }

    #[test]
    fn the_shared_disabled_registry_is_inert() {
        let m = Metrics::disabled();
        m.inc(Counter::RadioSlots);
        drop(m.start(Stage::DciDecode));
        assert!(!m.is_enabled());
        assert_eq!(m.counter(Counter::RadioSlots), 0);
        assert_eq!(m.snapshot().stage("dci_decode").map(|s| s.count), Some(0));
    }
}
