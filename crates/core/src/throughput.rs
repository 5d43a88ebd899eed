//! Sliding-window per-UE bit-rate estimation (paper §3.2.2: "We record the
//! TBS for every UE in each TTI, maintaining a sliding window to calculate
//! the bit rate for each UE").
//!
//! Two accuracy properties the paper's headline claims (<0.1% throughput
//! error, Fig 10–11) depend on, both regression-tested here:
//!
//! * the window spans exactly `window_slots` slots — a sample that is
//!   `window_slots` old has left the window (off-by-one spans bias every
//!   steady-state rate low by `1/window_slots`);
//! * during cold start the rate divides by the *observed* span, not the
//!   full window, so a newly-arrived UE's rate is unbiased from its first
//!   few slots (the Fig 14a ramp) instead of climbing toward truth over a
//!   full window length.

use nr_phy::types::{HashMap, Rnti};
use serde::{Content, DeError, Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// Sliding-window rate estimator for one UE.
#[derive(Debug, Clone, Default)]
pub struct RateWindow {
    /// (slot, bits) samples inside the window.
    samples: VecDeque<(u64, u64)>,
    /// Running sum of bits in the window.
    sum_bits: u64,
}

impl RateWindow {
    /// Record `bits` delivered in `slot`, evicting samples that have left
    /// the `window_slots`-wide window. After a push at slot `s` the window
    /// covers `(s - window_slots, s]` — exactly `window_slots` slots.
    pub fn push(&mut self, slot: u64, bits: u64, window_slots: u64) {
        self.samples.push_back((slot, bits));
        self.sum_bits += bits;
        while let Some(&(s, b)) = self.samples.front() {
            // A sample exactly `window_slots` old sits on the boundary and
            // is evicted: keeping it makes the retained span
            // `window_slots + 1` wide while the rate divides by (at most)
            // `window_slots`, biasing every steady-state rate low.
            if slot >= window_slots && s <= slot - window_slots {
                self.samples.pop_front();
                self.sum_bits -= b;
            } else {
                break;
            }
        }
    }

    /// Bits currently inside the window (caller converts to a rate with
    /// the slot duration).
    pub fn bits(&self) -> u64 {
        self.sum_bits
    }

    /// Slots actually covered by the retained samples, clamped to
    /// `[1, window_slots]`. Before the window has filled (cold start) this
    /// is the observed span, so the rate is unbiased from the first slots.
    pub fn effective_span(&self, window_slots: u64) -> u64 {
        match (self.samples.front(), self.samples.back()) {
            (Some(&(first, _)), Some(&(last, _))) => {
                (last - first + 1).clamp(1, window_slots.max(1))
            }
            _ => 1,
        }
    }

    /// Rate in bits/s over the effective observed span (≤ `window_slots`)
    /// given the slot duration.
    pub fn rate_bps(&self, window_slots: u64, slot_s: f64) -> f64 {
        self.sum_bits as f64 / (self.effective_span(window_slots) as f64 * slot_s)
    }
}

/// Samples per sealed [`History`] chunk.
const CHUNK: usize = 64;

/// A sealed run of [`CHUNK`] samples, shared by reference count.
type Chunk = Arc<[(u64, u64)]>;

/// One UE's delivered-bits history, `(slot, bits)` in recording order:
/// sealed chunks of `CHUNK` (64) samples, then an open tail.
///
/// A clone — a snapshot's copy — shares the sealed chunks by reference
/// count (one count for the whole list) and copies only the tail, so
/// freezing the history costs the same whatever its length. The copy of
/// the tail is sized for the chunk it becomes, so what a clone allocates
/// does not depend on where a chunk boundary fell. The live history
/// copies a held chunk list (one count per chunk) when it next seals or
/// drops a chunk. A sealed chunk is never written again: pruning inside
/// one moves `skip` instead. Serialises as the flat `(slot, bits)`
/// sequence it holds, so the bytes of a snapshot do not depend on where
/// the chunk boundaries fall.
#[derive(Debug, Default)]
pub struct History {
    sealed: Arc<VecDeque<Chunk>>,
    /// Samples of the front chunk already pruned (always below its length).
    skip: usize,
    /// Never shared, so a push costs a `Vec` push; sealing clears it and
    /// keeps its buffer.
    tail: Vec<(u64, u64)>,
    /// No sample held is older than this slot, so pruning to a horizon at
    /// or below it reads nothing behind the reference counts.
    floor: u64,
}

impl Clone for History {
    fn clone(&self) -> History {
        let mut tail = Vec::with_capacity(CHUNK);
        tail.extend_from_slice(&self.tail);
        History {
            sealed: Arc::clone(&self.sealed),
            skip: self.skip,
            tail,
            floor: self.floor,
        }
    }
}

impl History {
    fn push(&mut self, sample: (u64, u64)) {
        self.tail.push(sample);
        if self.tail.len() == CHUNK {
            Arc::make_mut(&mut self.sealed).push_back(Arc::from(&self.tail[..]));
            self.tail.clear();
        }
    }

    /// Drop samples from the front while they are older than `horizon`.
    fn prune(&mut self, horizon: u64) {
        if horizon <= self.floor {
            return;
        }
        let live = |samples: &[(u64, u64)]| samples.iter().position(|&(s, _)| s >= horizon);
        while let Some(front) = self.sealed.front() {
            if let Some(i) = live(&front[self.skip..]) {
                self.skip += i;
                self.floor = front[self.skip].0;
                return;
            }
            Arc::make_mut(&mut self.sealed).pop_front();
            self.skip = 0;
        }
        let dead = live(&self.tail).unwrap_or(self.tail.len());
        self.tail.drain(..dead);
        self.floor = self.tail.first().map_or(0, |s| s.0);
    }

    /// The samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &(u64, u64)> {
        (self.sealed.iter().flat_map(|c| c.iter()))
            .skip(self.skip)
            .chain(&self.tail)
    }

    /// Number of samples held.
    pub fn len(&self) -> usize {
        self.sealed.len() * CHUNK - self.skip + self.tail.len()
    }

    /// Whether no sample is held.
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.tail.is_empty()
    }
}

impl Serialize for History {
    fn serialize_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::serialize_content).collect())
    }
}

impl Deserialize for History {
    fn deserialize_content(c: &Content) -> Result<History, DeError> {
        let mut h = History::default();
        (Vec::<(u64, u64)>::deserialize_content(c)?)
            .into_iter()
            .for_each(|s| h.push(s));
        Ok(h)
    }
}

/// Default history retention: 60 s of µ=1 slots. Bounds per-UE memory for
/// the ROADMAP's long-running/many-UE scenarios while keeping enough of a
/// tail for offline evaluation windows.
pub const DEFAULT_HISTORY_RETENTION_SLOTS: u64 = 120_000;

/// Per-UE rate bookkeeping plus cell-total accounting.
///
/// The per-UE [`History`] is bounded by a retention horizon (default
/// [`DEFAULT_HISTORY_RETENTION_SLOTS`]): samples older than
/// `newest_slot - retention` are pruned, and a departed UE's history is
/// released entirely once it ages out — the estimator's memory is
/// O(active UEs × retention), not O(process lifetime).
#[derive(Debug)]
pub struct ThroughputEstimator {
    windows: HashMap<Rnti, RateWindow>,
    /// Per-(UE, slot) delivered bits, for time-series export (Fig 14a).
    /// Front-pruned to the retention horizon; shared with snapshots.
    history: HashMap<Rnti, History>,
    /// History retention horizon in slots.
    retention_slots: u64,
    /// Newest slot seen by any `record` (drives pruning of idle UEs).
    newest_slot: u64,
}

impl Default for ThroughputEstimator {
    fn default() -> Self {
        ThroughputEstimator::new()
    }
}

impl ThroughputEstimator {
    /// Fresh estimator with the default history retention.
    pub fn new() -> ThroughputEstimator {
        ThroughputEstimator::with_retention(DEFAULT_HISTORY_RETENTION_SLOTS)
    }

    /// Fresh estimator retaining `retention_slots` of per-UE history.
    pub fn with_retention(retention_slots: u64) -> ThroughputEstimator {
        ThroughputEstimator {
            windows: HashMap::default(),
            history: HashMap::default(),
            retention_slots: retention_slots.max(1),
            newest_slot: 0,
        }
    }

    /// Record a decoded grant's TBS.
    pub fn record(&mut self, rnti: Rnti, slot: u64, tbs_bits: u32, window_slots: u64) {
        self.newest_slot = self.newest_slot.max(slot);
        self.windows
            .entry(rnti)
            .or_default()
            .push(slot, tbs_bits as u64, window_slots);
        let h = self.history.entry(rnti).or_default();
        h.push((slot, tbs_bits as u64));
        h.prune(slot.saturating_sub(self.retention_slots));
    }

    /// Prune every UE's history to the retention horizon at `current_slot`
    /// and release departed UEs whose history has fully aged out. Called
    /// periodically by the session driver; `record` already prunes the
    /// recording UE, so this exists to stop *departed* UEs (which never
    /// record again) from holding history forever.
    pub fn prune(&mut self, current_slot: u64) {
        self.newest_slot = self.newest_slot.max(current_slot);
        let horizon = current_slot.saturating_sub(self.retention_slots);
        self.history.retain(|rnti, h| {
            h.prune(horizon);
            // Keep live UEs (they may simply be idle); drop departed ones
            // once nothing of their history remains.
            !h.is_empty() || self.windows.contains_key(rnti)
        });
    }

    /// Current estimated rate for a UE.
    pub fn rate_bps(&self, rnti: Rnti, window_slots: u64, slot_s: f64) -> f64 {
        self.windows
            .get(&rnti)
            .map(|w| w.rate_bps(window_slots, slot_s))
            .unwrap_or(0.0)
    }

    /// Total bits recorded for a UE in a slot range (for offline
    /// comparison against ground truth). Correct for the retained range;
    /// slots older than the retention horizon have been pruned and count
    /// as zero.
    pub fn bits_in(&self, rnti: Rnti, slots: std::ops::Range<u64>) -> u64 {
        self.history
            .get(&rnti)
            .map(|h| {
                h.iter()
                    .filter(|(s, _)| slots.contains(s))
                    .map(|(_, b)| *b)
                    .sum()
            })
            .unwrap_or(0)
    }

    /// UEs with any retained traffic.
    pub fn rntis(&self) -> Vec<Rnti> {
        let mut v: Vec<Rnti> = self.history.keys().copied().collect();
        v.sort();
        v
    }

    /// Retained history samples for a UE (memory accounting / tests).
    pub fn history_len(&self, rnti: Rnti) -> usize {
        self.history.get(&rnti).map(|h| h.len()).unwrap_or(0)
    }

    /// Drop a departed UE's live window. Recent history is kept for
    /// evaluation but stops being retained once it ages past the horizon
    /// (see [`ThroughputEstimator::prune`]).
    pub fn forget(&mut self, rnti: Rnti) {
        self.windows.remove(&rnti);
    }

    /// Freeze the estimator into a serialisable, deterministically-ordered
    /// image (maps become RNTI-sorted vectors). The history is shared, not
    /// copied: a reference count and a tail of under `CHUNK` samples per
    /// UE.
    pub fn state(&self) -> ThroughputState {
        let mut windows: Vec<(Rnti, Vec<(u64, u64)>)> = self
            .windows
            .iter()
            .map(|(r, w)| (*r, w.samples.iter().copied().collect()))
            .collect();
        windows.sort_by_key(|(r, _)| *r);
        let mut history: Vec<(Rnti, History)> =
            self.history.iter().map(|(r, h)| (*r, h.clone())).collect();
        history.sort_by_key(|(r, _)| *r);
        ThroughputState {
            windows,
            history,
            retention_slots: self.retention_slots,
            newest_slot: self.newest_slot,
        }
    }

    /// Rebuild an estimator from a frozen image. Window sums are recomputed
    /// from the retained samples (the live eviction already bounded them to
    /// the window span, so replaying with an unbounded window is exact).
    pub fn from_state(state: &ThroughputState) -> ThroughputEstimator {
        let mut e = ThroughputEstimator::with_retention(state.retention_slots);
        e.newest_slot = state.newest_slot;
        for (rnti, samples) in &state.windows {
            let w = e.windows.entry(*rnti).or_default();
            for &(slot, bits) in samples {
                w.push(slot, bits, u64::MAX);
            }
        }
        for (rnti, h) in &state.history {
            e.history.insert(*rnti, h.clone());
        }
        e
    }
}

/// Serialisable image of a [`ThroughputEstimator`] for checkpointing.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ThroughputState {
    /// Live rate windows: `(rnti, (slot, bits) samples)`, RNTI-sorted.
    pub windows: Vec<(Rnti, Vec<(u64, u64)>)>,
    /// Per-UE delivered-bits history, RNTI-sorted; on disk, each UE's
    /// flat `(slot, bits)` sequence.
    pub history: Vec<(Rnti, History)>,
    /// History retention horizon, slots.
    pub retention_slots: u64,
    /// Newest slot seen by any `record`.
    pub newest_slot: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_evicts_old_samples() {
        let mut w = RateWindow::default();
        w.push(0, 100, 10);
        w.push(5, 100, 10);
        assert_eq!(w.bits(), 200);
        w.push(16, 100, 10);
        // Window now covers (6, 16]: slots 0 and 5 are both out.
        assert_eq!(w.bits(), 100);
    }

    #[test]
    fn boundary_sample_is_evicted_not_kept() {
        // Regression (PR 2): a sample exactly `window_slots` old must be
        // out of the window, else the retained span is window+1 slots wide
        // and every steady-state rate reads low.
        let mut w = RateWindow::default();
        w.push(0, 100, 10);
        w.push(10, 100, 10);
        assert_eq!(w.bits(), 100, "slot 0 is exactly 10 slots old: evicted");
        assert_eq!(w.effective_span(10), 1);
    }

    #[test]
    fn rate_matches_constant_stream() {
        let mut w = RateWindow::default();
        // 1000 bits every slot for 2000 slots at 0.5 ms → 2 Mbit/s.
        for s in 0..2000u64 {
            w.push(s, 1000, 2000);
        }
        let rate = w.rate_bps(2000, 0.0005);
        assert!((rate - 2.0e6).abs() / 2.0e6 < 1e-9, "rate {rate}");
    }

    #[test]
    fn steady_state_rate_is_exact_not_biased_low() {
        // Regression (PR 2): with the off-by-one span the window held 2001
        // slots of bits divided by 2000 — or, after partial fill, 2000
        // slots of bits divided by a hardcoded 2000 regardless of span.
        let mut w = RateWindow::default();
        for s in 0..5000u64 {
            w.push(s, 1000, 2000);
        }
        let rate = w.rate_bps(2000, 0.0005);
        assert!(
            (rate - 2.0e6).abs() < 1.0,
            "steady-state rate must be exactly 2 Mbit/s, got {rate}"
        );
    }

    #[test]
    fn cold_start_rate_is_unbiased() {
        // Regression (PR 2): a UE that has only been transmitting for 100
        // slots of a 2000-slot window used to see its rate divided by the
        // full window (20× under-read during ramp, Fig 14a).
        let mut w = RateWindow::default();
        for s in 0..100u64 {
            w.push(s, 1000, 2000);
        }
        let rate = w.rate_bps(2000, 0.0005);
        assert!(
            (rate - 2.0e6).abs() / 2.0e6 < 1e-9,
            "cold-start rate {rate} should be 2 Mbit/s, not 0.1 Mbit/s"
        );
    }

    #[test]
    fn single_sample_spans_one_slot() {
        let mut w = RateWindow::default();
        w.push(7, 500, 100);
        assert_eq!(w.effective_span(100), 1);
        let rate = w.rate_bps(100, 0.0005);
        assert!((rate - 1.0e6).abs() < 1.0, "{rate}");
    }

    #[test]
    fn estimator_separates_ues() {
        let mut e = ThroughputEstimator::new();
        e.record(Rnti(1), 10, 5000, 100);
        e.record(Rnti(2), 10, 9000, 100);
        assert_eq!(e.bits_in(Rnti(1), 0..20), 5000);
        assert_eq!(e.bits_in(Rnti(2), 0..20), 9000);
        assert_eq!(e.rntis(), vec![Rnti(1), Rnti(2)]);
    }

    #[test]
    fn forget_clears_live_window_but_keeps_recent_history() {
        let mut e = ThroughputEstimator::new();
        e.record(Rnti(1), 10, 5000, 100);
        e.forget(Rnti(1));
        assert_eq!(e.rate_bps(Rnti(1), 100, 0.0005), 0.0);
        assert_eq!(e.bits_in(Rnti(1), 0..20), 5000);
    }

    #[test]
    fn history_is_bounded_by_retention() {
        // Regression (PR 2): history grew one entry per recorded slot for
        // the life of the process.
        let mut e = ThroughputEstimator::with_retention(100);
        for s in 0..10_000u64 {
            e.record(Rnti(1), s, 1000, 50);
        }
        assert!(
            e.history_len(Rnti(1)) <= 101,
            "retention 100 must bound history, got {}",
            e.history_len(Rnti(1))
        );
        // bits_in stays correct over the retained range.
        assert_eq!(e.bits_in(Rnti(1), 9_950..10_000), 50 * 1000);
        // ... and reads zero for pruned slots.
        assert_eq!(e.bits_in(Rnti(1), 0..100), 0);
    }

    #[test]
    fn departed_ue_history_is_released_after_retention() {
        // Regression (PR 2): a departed UE's history lived forever — a
        // per-UE leak under long-running many-UE workloads.
        let mut e = ThroughputEstimator::with_retention(100);
        e.record(Rnti(1), 10, 5000, 50);
        e.forget(Rnti(1));
        // Still retained right after departure (evaluation window).
        e.prune(50);
        assert_eq!(e.bits_in(Rnti(1), 0..20), 5000);
        // Fully aged out → released.
        e.prune(500);
        assert_eq!(e.history_len(Rnti(1)), 0);
        assert!(e.rntis().is_empty());
        assert_eq!(e.bits_in(Rnti(1), 0..1000), 0);
    }

    #[test]
    fn prune_keeps_live_but_idle_ues_listed() {
        let mut e = ThroughputEstimator::with_retention(100);
        e.record(Rnti(1), 10, 5000, 50);
        e.prune(10_000);
        // History content aged out, but the UE is still live (not
        // forgotten) so it stays listed with an empty ring.
        assert_eq!(e.history_len(Rnti(1)), 0);
        assert_eq!(e.rntis(), vec![Rnti(1)]);
    }

    #[test]
    fn state_round_trip_preserves_rates_and_history() {
        let mut e = ThroughputEstimator::with_retention(5000);
        for s in 0..2500u64 {
            e.record(Rnti(1), s, 1000, 2000);
            if s % 2 == 0 {
                e.record(Rnti(2), s, 400, 2000);
            }
        }
        let back = ThroughputEstimator::from_state(&e.state());
        for r in [Rnti(1), Rnti(2)] {
            assert_eq!(
                back.rate_bps(r, 2000, 0.0005),
                e.rate_bps(r, 2000, 0.0005),
                "window rate must survive the round trip for {r}"
            );
            assert_eq!(back.bits_in(r, 0..3000), e.bits_in(r, 0..3000));
        }
        assert_eq!(back.rntis(), e.rntis());
        // Continued recording behaves identically post-restore.
        let mut live = e;
        let mut restored = back;
        live.record(Rnti(1), 2600, 800, 2000);
        restored.record(Rnti(1), 2600, 800, 2000);
        assert_eq!(
            restored.rate_bps(Rnti(1), 2000, 0.0005),
            live.rate_bps(Rnti(1), 2000, 0.0005)
        );
    }

    /// The flat estimator the shared history replaced: one `VecDeque` per
    /// UE, pruned from the front.
    #[derive(Clone, Default)]
    struct Flat {
        windows: std::collections::BTreeMap<Rnti, RateWindow>,
        history: std::collections::BTreeMap<Rnti, VecDeque<(u64, u64)>>,
    }

    impl Flat {
        fn record(&mut self, rnti: Rnti, slot: u64, bits: u64, retention: u64) {
            self.windows.entry(rnti).or_default().push(slot, bits, 50);
            let h = self.history.entry(rnti).or_default();
            h.push_back((slot, bits));
            let horizon = slot.saturating_sub(retention);
            while h.front().is_some_and(|&(s, _)| s < horizon) {
                h.pop_front();
            }
        }

        fn prune(&mut self, slot: u64, retention: u64) {
            let horizon = slot.saturating_sub(retention);
            self.history.retain(|rnti, h| {
                while h.front().is_some_and(|&(s, _)| s < horizon) {
                    h.pop_front();
                }
                !h.is_empty() || self.windows.contains_key(rnti)
            });
        }
    }

    /// `e` answers every query as the flat model does.
    fn agrees(e: &ThroughputEstimator, flat: &Flat, now: u64, why: &str) {
        let rntis: Vec<Rnti> = flat.history.keys().copied().collect();
        assert_eq!(e.rntis(), rntis, "{why}");
        for r in (0..8).map(Rnti) {
            let h = flat.history.get(&r);
            assert_eq!(e.history_len(r), h.map_or(0, |h| h.len()), "{why} {r}");
            for lo in [0, now.saturating_sub(90), now.saturating_sub(7)] {
                let want: u64 = h.map_or(0, |h| {
                    h.iter()
                        .filter(|(s, _)| (lo..now).contains(s))
                        .map(|p| p.1)
                        .sum()
                });
                assert_eq!(e.bits_in(r, lo..now), want, "{why} {r} {lo}..{now}");
            }
            let rate = flat.windows.get(&r).map_or(0.0, |w| w.rate_bps(50, 0.0005));
            assert_eq!(e.rate_bps(r, 50, 0.0005), rate, "{why} {r}");
        }
        for (r, h) in &e.history {
            assert_eq!(h.iter().count(), h.len(), "{why} {r}");
            assert!(h.sealed.iter().all(|c| c.len() == CHUNK), "{why} {r}");
            assert!(h.sealed.front().is_none_or(|c| h.skip < c.len()), "{why}");
        }
    }

    /// Seeded random runs of `record`, `prune`, `forget`, `state` and
    /// `from_state` against the flat model, compared at every step; every
    /// snapshot taken is held while recording goes on, and must still read
    /// as the model did when it was taken. Small retentions put pruning
    /// inside a chunk and across several; long gaps age departed UEs out.
    #[test]
    fn shared_history_answers_as_the_flat_history_did() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut seen = [false; 4]; // split chunk, dropped chunk, copied list, aged-out UE
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let retention = [60, 200, 600][seed as usize % 3];
            let mut e = ThroughputEstimator::with_retention(retention);
            let mut flat = Flat::default();
            let mut held: Vec<(ThroughputState, Flat, u64)> = Vec::new();
            let mut now = 0u64;
            for step in 0..3000 {
                let why = format!("seed {seed} step {step}");
                let rnti = Rnti(rng.gen_range(0..4u16));
                match rng.gen_range(0..1000u32) {
                    0..=799 => {
                        now += rng.gen_range(0..2u64);
                        let bits = rng.gen_range(1..100_000u32);
                        let chunks = e.history.get(&rnti).map_or(0, |h| h.sealed.len());
                        let shared = e
                            .history
                            .get(&rnti)
                            .is_some_and(|h| Arc::strong_count(&h.sealed) > 1);
                        e.record(rnti, now, bits, 50);
                        flat.record(rnti, now, bits as u64, retention);
                        let h = &e.history[&rnti];
                        seen[0] |= h.skip > 0;
                        seen[1] |= h.sealed.len() < chunks;
                        seen[2] |= shared && Arc::strong_count(&h.sealed) == 1;
                    }
                    800..=849 => {
                        if rng.gen_bool(0.06) {
                            now += rng.gen_range(retention..3 * retention);
                        }
                        let before = flat.history.len();
                        e.prune(now);
                        flat.prune(now, retention);
                        seen[3] |= flat.history.len() < before;
                    }
                    850..=899 => {
                        e.forget(rnti);
                        flat.windows.remove(&rnti);
                    }
                    900..=959 => held.push((e.state(), flat.clone(), now)),
                    _ => e = ThroughputEstimator::from_state(&e.state()),
                }
                agrees(&e, &flat, now + 1, &why);
            }
            for (i, (state, then, at)) in held.iter().enumerate() {
                let restored = ThroughputEstimator::from_state(state);
                agrees(
                    &restored,
                    then,
                    at + 1,
                    &format!("seed {seed} snapshot {i}"),
                );
                for ((r, h), (fr, fh)) in state.history.iter().zip(&then.history) {
                    assert_eq!(r, fr);
                    assert!(h.iter().eq(fh.iter()), "seed {seed} snapshot {i} {r}");
                }
            }
        }
        assert_eq!(seen, [true; 4], "split, dropped, copied, aged out");
    }

    #[test]
    fn unknown_ue_rates_are_zero() {
        let e = ThroughputEstimator::new();
        assert_eq!(e.rate_bps(Rnti(42), 100, 0.0005), 0.0);
        assert_eq!(e.bits_in(Rnti(42), 0..100), 0);
    }
}
