//! UE association tracking (paper §3.1.2): the known-UE list, the RACH
//! watcher that feeds it, and per-UE HARQ/NDI state.

use nr_mac::HarqTracker;
use nr_phy::types::{HashMap, HashSet, Rnti};
use nr_rrc::RrcSetup;
use serde::{Deserialize, Serialize};

/// Telemetry-side state for one tracked UE.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrackedUe {
    /// The UE's C-RNTI.
    pub rnti: Rnti,
    /// Slot the UE was discovered (MSG 4 seen).
    pub discovered_slot: u64,
    /// Last slot with any decoded DCI for this UE.
    pub last_active_slot: u64,
    /// Downlink HARQ/NDI memory (retransmission detection).
    pub harq_dl: HarqTracker,
    /// Uplink HARQ/NDI memory.
    pub harq_ul: HarqTracker,
    /// The UE-specific parameters from its RRC Setup.
    pub rrc: RrcSetup,
}

/// Bound on concurrent probationary RNTIs. A hostile cell can mint a new
/// candidate every slot; capping the set bounds both memory and the extra
/// UE-pass hypothesis work a flood can induce. When full, the stalest
/// candidate is displaced straight into quarantine.
const PROBATION_MAX: usize = 32;

/// Stage-2 admission verdict for one corroborating decode of an
/// unadmitted C-RNTI (see [`UeTracker::note_candidate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// K corroborating decodes reached inside the window — promote now.
    Admit,
    /// Still gathering corroboration; the RNTI is not tracked yet.
    Pending,
    /// The RNTI sits in the quarantine ledger; its reappearance was
    /// counted and nothing else happened.
    Quarantined,
}

/// One quarantine-ledger entry: a candidate C-RNTI that failed probation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct QuarantineEntry {
    /// Slot the RNTI entered the ledger.
    pub quarantined_at: u64,
    /// Decodes observed for this RNTI *after* it was quarantined — a
    /// persistent forger keeps scoring here instead of minting UEs.
    pub reappearances: u64,
}

/// The known-UE list plus RACH-procedure shadowing state.
#[derive(Debug, Default)]
pub struct UeTracker {
    ues: HashMap<Rnti, TrackedUe>,
    /// TC-RNTIs learned from RAR (MSG 2) payloads, awaiting their MSG 4,
    /// with the slot the RAR was seen.
    pending_tc: HashMap<Rnti, u64>,
    /// Cached RRC Setup (identical across UEs, §3.1.2) enabling the
    /// skip-PDSCH optimisation.
    cached_rrc: Option<RrcSetup>,
    /// Every RNTI ever promoted — so expiry followed by rediscovery
    /// (e.g. after an outage) does not double-count `total_discovered`.
    ever_seen: HashSet<Rnti>,
    /// RNTIs expired recently, with the expiry slot: extra hypotheses the
    /// recovery path retries while the session is degraded.
    recently_expired: HashMap<Rnti, u64>,
    /// Stage-2 admission control: recovery-minted C-RNTIs on probation,
    /// each with its corroborating decode slots (sliding window).
    probation: HashMap<Rnti, Vec<u64>>,
    /// Quarantine ledger: candidates that failed probation, kept so a
    /// recurring ghost is rejected in O(1) instead of re-probated.
    quarantine: HashMap<Rnti, QuarantineEntry>,
    /// Ledger entries displaced by the size bound (counted eviction).
    pub quarantine_evictions: u64,
    /// Total distinct UEs ever discovered (Fig 10-style accounting).
    pub total_discovered: u64,
    /// Bumped by every change to what a C-RNTI hypothesis is built from:
    /// the tracked and probationary RNTIs, a tracked UE's RRC Setup, the
    /// cached one.
    generation: u64,
}

/// Serialisable image of the tracker's bookkeeping (everything except the
/// UE table itself). Maps become sorted vectors so snapshots are
/// byte-deterministic across runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrackerAux {
    /// `pending_tc` as sorted `(rnti, rar_slot)` pairs.
    pub pending_tc: Vec<(Rnti, u64)>,
    /// `recently_expired` as sorted `(rnti, expired_at_slot)` pairs.
    pub recently_expired: Vec<(Rnti, u64)>,
    /// The cached RRC Setup (§3.1.2 skip-PDSCH optimisation).
    pub cached_rrc: Option<RrcSetup>,
    /// Every RNTI ever promoted, sorted.
    pub ever_seen: Vec<Rnti>,
    /// Distinct-UE discovery count.
    pub total_discovered: u64,
    /// `probation` as sorted `(rnti, sighting_slots)` pairs.
    pub probation: Vec<(Rnti, Vec<u64>)>,
    /// `quarantine` as sorted `(rnti, entry)` pairs.
    pub quarantine: Vec<(Rnti, QuarantineEntry)>,
    /// Lifetime count of counted evictions from the bounded ledger.
    pub quarantine_evictions: u64,
}

impl UeTracker {
    /// Fresh tracker.
    pub fn new() -> UeTracker {
        UeTracker::default()
    }

    /// Note a TC-RNTI announced in a decoded RAR (MSG 2).
    pub fn rar_seen(&mut self, tc_rnti: Rnti, slot: u64) {
        self.pending_tc.insert(tc_rnti, slot);
    }

    /// TC-RNTIs currently awaiting MSG 4 (tried as CRC hypotheses on
    /// common-search-space candidates).
    pub fn pending_tc_rntis(&self) -> Vec<Rnti> {
        sorted(self.pending_tc.keys().copied())
    }

    /// Changes when the hypothesis inputs may have: compare two readings
    /// to know whether a list built from them still holds.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// MSG 4 for `tc_rnti` decoded: the bookkeeping of its promotion to a
    /// tracked C-RNTI, which the caller then [`UeTracker::track`]s. `rrc`
    /// is the decoded (or cached) RRC Setup. Returns `true` when this is a
    /// first discovery, `false` for a rediscovery (the RNTI was tracked
    /// before and expired — recovery, not a new UE).
    pub fn promote(&mut self, tc_rnti: Rnti, rrc: RrcSetup) -> bool {
        self.pending_tc.remove(&tc_rnti);
        self.recently_expired.remove(&tc_rnti);
        self.probation.remove(&tc_rnti);
        self.quarantine.remove(&tc_rnti);
        self.cached_rrc = Some(rrc);
        self.generation += 1;
        let newly_discovered = self.ever_seen.insert(tc_rnti);
        if newly_discovered {
            self.total_discovered += 1;
        }
        newly_discovered
    }

    /// RNTIs that expired within the last `window` slots before `now` —
    /// retried as decode hypotheses while re-synchronising, so UEs that
    /// stayed connected through a sniffer outage are re-tracked without
    /// waiting for fresh RACH traffic.
    pub fn recently_expired(&self, now: u64, window: u64) -> Vec<Rnti> {
        let in_window = |(r, at): (&Rnti, &u64)| (now.saturating_sub(*at) <= window).then_some(*r);
        sorted(self.recently_expired.iter().filter_map(in_window))
    }

    /// The bookkeeping of re-tracking an RNTI directly (recovery path: a
    /// UE-specific DCI just decoded for a recently-expired RNTI proves the
    /// UE never left). Returns the cached RRC Setup the caller
    /// [`UeTracker::track`]s it under; `None`, and nothing done, for an
    /// RNTI never promoted or without a cached Setup. Does not touch
    /// `total_discovered` — the UE was already counted.
    pub fn restore(&mut self, rnti: Rnti) -> Option<RrcSetup> {
        if !self.ever_seen.contains(&rnti) {
            return None;
        }
        let rrc = self.cached_rrc?;
        self.recently_expired.remove(&rnti);
        self.probation.remove(&rnti);
        self.generation += 1;
        Some(rrc)
    }

    /// The cached RRC Setup, if any UE has been decoded yet.
    pub fn cached_rrc(&self) -> Option<&RrcSetup> {
        self.cached_rrc.as_ref()
    }

    /// Whether `rnti` is a RAR-shadowed TC-RNTI awaiting its MSG 4.
    /// Such RNTIs are corroborated by the RACH procedure itself and skip
    /// stage-2 probation.
    pub fn is_pending_tc(&self, rnti: Rnti) -> bool {
        self.pending_tc.contains_key(&rnti)
    }

    /// Whether `rnti` was ever legitimately promoted (rediscovery after an
    /// outage is not a never-before-seen candidate).
    pub fn was_ever_seen(&self, rnti: Rnti) -> bool {
        self.ever_seen.contains(&rnti)
    }

    /// Stage-2 admission control: record one corroborating decode for an
    /// unadmitted, recovery-minted C-RNTI. The candidate is admitted once
    /// `k` decodes land within a sliding `window` of slots; until then it
    /// sits in a bounded probation set whose RNTIs ride the UE-pass
    /// hypothesis list — a real UE corroborates itself through its own
    /// UE-scrambled DCIs, a CRC-collision ghost never does. Returns the
    /// verdict plus any probation candidate displaced into quarantine by
    /// the size bound (for metrics).
    pub fn note_candidate(
        &mut self,
        rnti: Rnti,
        slot: u64,
        k: usize,
        window: u64,
        quarantine_max: usize,
    ) -> (Admission, Option<Rnti>) {
        if self.ues.contains_key(&rnti) {
            return (Admission::Admit, None);
        }
        if let Some(q) = self.quarantine.get_mut(&rnti) {
            q.reappearances += 1;
            return (Admission::Quarantined, None);
        }
        self.generation += 1;
        let sightings = self.probation.entry(rnti).or_default();
        sightings.retain(|&s| slot.saturating_sub(s) <= window);
        // One sighting per slot: corroboration requires K *distinct*
        // slots, or a single slot carrying K copies of one ghost codeword
        // (the hypothesis list is only refreshed between slots) would
        // self-corroborate.
        if sightings.last() != Some(&slot) {
            sightings.push(slot);
        }
        if sightings.len() >= k.max(1) {
            self.probation.remove(&rnti);
            return (Admission::Admit, None);
        }
        // Bound the probation set under a candidate flood: displace the
        // candidate with the stalest latest sighting into quarantine
        // (deterministic tie-break on the RNTI value).
        let mut displaced = None;
        if self.probation.len() > PROBATION_MAX {
            let victim = self
                .probation
                .iter()
                .filter(|(r, _)| **r != rnti)
                .min_by_key(|(r, s)| (s.last().copied().unwrap_or(0), r.0))
                .map(|(r, _)| *r);
            if let Some(v) = victim {
                self.probation.remove(&v);
                self.quarantine_insert(v, slot, quarantine_max);
                displaced = Some(v);
            }
        }
        (Admission::Pending, displaced)
    }

    /// Move probation candidates whose corroboration window lapsed into
    /// the quarantine ledger. Returns the newly quarantined RNTIs, sorted.
    pub fn expire_probation(&mut self, now: u64, window: u64, quarantine_max: usize) -> Vec<Rnti> {
        let lapsed = sorted(self.probation.iter().filter_map(|(r, s)| {
            s.last()
                .is_none_or(|&last| now.saturating_sub(last) > window)
                .then_some(*r)
        }));
        for r in &lapsed {
            self.generation += 1;
            self.probation.remove(r);
            self.quarantine_insert(*r, now, quarantine_max);
        }
        lapsed
    }

    /// Insert into the bounded quarantine ledger, evicting the oldest
    /// entry (counted) when full.
    fn quarantine_insert(&mut self, rnti: Rnti, slot: u64, quarantine_max: usize) {
        while self.quarantine.len() >= quarantine_max.max(1) {
            let oldest = self
                .quarantine
                .iter()
                .min_by_key(|(r, e)| (e.quarantined_at, r.0))
                .map(|(r, _)| *r);
            match oldest {
                Some(r) => {
                    self.quarantine.remove(&r);
                    self.quarantine_evictions += 1;
                }
                None => break,
            }
        }
        self.quarantine.insert(
            rnti,
            QuarantineEntry {
                quarantined_at: slot,
                reappearances: 0,
            },
        );
    }

    /// Whether `rnti` sits in the quarantine ledger.
    pub fn is_quarantined(&self, rnti: Rnti) -> bool {
        self.quarantine.contains_key(&rnti)
    }

    /// Whether `rnti` is on stage-2 probation.
    pub fn is_probationary(&self, rnti: Rnti) -> bool {
        self.probation.contains_key(&rnti)
    }

    /// Probationary RNTIs (sorted) — extra UE-pass hypotheses so a real
    /// UE on probation can corroborate itself.
    pub fn probation_rntis(&self) -> Vec<Rnti> {
        sorted(self.probation.keys().copied())
    }

    /// Quarantined RNTIs (sorted).
    pub fn quarantined_rntis(&self) -> Vec<Rnti> {
        sorted(self.quarantine.keys().copied())
    }

    /// Quarantine-ledger size (exported as a gauge).
    pub fn quarantine_len(&self) -> usize {
        self.quarantine.len()
    }

    /// Reappearance count for a quarantined RNTI, if present.
    pub fn quarantine_reappearances(&self, rnti: Rnti) -> Option<u64> {
        self.quarantine.get(&rnti).map(|e| e.reappearances)
    }

    /// Whether an RNTI is currently tracked.
    pub fn contains(&self, rnti: Rnti) -> bool {
        self.ues.contains_key(&rnti)
    }

    /// All currently tracked RNTIs (sorted, deterministic).
    pub fn rntis(&self) -> Vec<Rnti> {
        sorted(self.ues.keys().copied())
    }

    /// Number of tracked UEs.
    pub fn len(&self) -> usize {
        self.ues.len()
    }

    /// Whether no UEs are tracked.
    pub fn is_empty(&self) -> bool {
        self.ues.is_empty()
    }

    /// Mutable access for HARQ observation and activity updates. Not for
    /// the RRC Setup: a change there would not move [`UeTracker::generation`].
    pub fn get_mut(&mut self, rnti: Rnti) -> Option<&mut TrackedUe> {
        self.ues.get_mut(&rnti)
    }

    /// Shared access.
    pub fn get(&self, rnti: Rnti) -> Option<&TrackedUe> {
        self.ues.get(&rnti)
    }

    /// Find UEs idle longer than `expiry_slots` and note them recently
    /// expired, and drop stale pending TC-RNTIs whose MSG 4 never appeared
    /// within `ra_window_slots`. Returns the idle RNTIs with the slot each
    /// was last seen active (the cross-cell continuity matcher anchors on
    /// the activity edge, not the much-later expiry sweep); the caller
    /// [`UeTracker::untrack`]s each.
    pub fn expire(
        &mut self,
        now: u64,
        expiry_slots: u64,
        ra_window_slots: u64,
    ) -> Vec<(Rnti, u64)> {
        let last_active = |u: &TrackedUe| (u.rnti, u.last_active_slot);
        let idle = |&(_, at): &(Rnti, u64)| now.saturating_sub(at) > expiry_slots;
        let dead = sorted(self.ues.values().map(last_active).filter(idle));
        for (r, _) in &dead {
            self.recently_expired.insert(*r, now);
        }
        // Past the window no reader retries an RNTI: drop it, or the map
        // grows with every expiry of a long capture.
        self.recently_expired
            .retain(|_, at| now.saturating_sub(*at) <= expiry_slots);
        self.pending_tc
            .retain(|_, seen| now.saturating_sub(*seen) <= ra_window_slots);
        dead
    }

    /// Freeze the bookkeeping (everything but the UE table) into a
    /// serialisable, deterministically-ordered image.
    pub fn aux_state(&self) -> TrackerAux {
        TrackerAux {
            pending_tc: sorted(self.pending_tc.iter().map(|(r, s)| (*r, *s))),
            recently_expired: sorted(self.recently_expired.iter().map(|(r, s)| (*r, *s))),
            cached_rrc: self.cached_rrc,
            ever_seen: sorted(self.ever_seen.iter().copied()),
            total_discovered: self.total_discovered,
            probation: sorted(self.probation.iter().map(|(r, s)| (*r, s.clone()))),
            quarantine: sorted(self.quarantine.iter().map(|(r, e)| (*r, *e))),
            quarantine_evictions: self.quarantine_evictions,
        }
    }

    /// Overwrite the bookkeeping from a frozen image (journal replay
    /// carries the end-of-slot aux verbatim, so promote/restore
    /// bookkeeping differences never accumulate drift).
    pub fn set_aux(&mut self, aux: &TrackerAux) {
        self.generation += 1;
        self.pending_tc = aux.pending_tc.iter().copied().collect();
        self.recently_expired = aux.recently_expired.iter().copied().collect();
        self.cached_rrc = aux.cached_rrc;
        self.ever_seen = aux.ever_seen.iter().copied().collect();
        self.total_discovered = aux.total_discovered;
        self.probation = aux.probation.iter().cloned().collect();
        self.quarantine = aux.quarantine.iter().copied().collect();
        self.quarantine_evictions = aux.quarantine_evictions;
    }

    /// Freeze the UE table, sorted by RNTI (with [`UeTracker::aux_state`],
    /// the whole tracker).
    pub fn ues_state(&self) -> Vec<TrackedUe> {
        let mut ues: Vec<TrackedUe> = self.ues.values().cloned().collect();
        ues.sort_by_key(|u| u.rnti);
        ues
    }

    /// Replace the UE table with a frozen image. `watermark` is the
    /// restored slot counter: each UE's `last_active_slot` is rebased up
    /// to it so a UE that was healthy at checkpoint time cannot be
    /// instantly expired by the first post-restart housekeeping pass (the
    /// snapshot may be old relative to the journal tail, and wall-clock
    /// downtime must not count as UE idle time).
    pub fn set_ues(&mut self, ues: &[TrackedUe], watermark: u64) {
        self.generation += 1;
        self.ues.clear();
        for ue in ues {
            let mut ue = ue.clone();
            ue.last_active_slot = ue.last_active_slot.max(watermark);
            self.ues.insert(ue.rnti, ue);
        }
    }

    /// Enter `rnti` into the UE table as a fresh UE: discovered and active
    /// at `slot`, empty HARQ memory, searched under `rrc`.
    pub fn track(&mut self, rnti: Rnti, slot: u64, rrc: RrcSetup) {
        self.generation += 1;
        let (harq_dl, harq_ul) = (HarqTracker::new(), HarqTracker::new());
        let ue = TrackedUe {
            rnti,
            discovered_slot: slot,
            last_active_slot: slot,
            harq_dl,
            harq_ul,
            rrc,
        };
        self.ues.insert(rnti, ue);
    }

    /// Remove `rnti` from the UE table.
    pub fn untrack(&mut self, rnti: Rnti) {
        self.generation += 1;
        self.ues.remove(&rnti);
    }
}

/// `items` collected in ascending order: every list the tracker hands out
/// is sorted, so it reads the same in every process, whatever order its
/// map iterates in.
fn sorted<T: Ord>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut v: Vec<T> = items.collect();
    v.sort();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rrc() -> RrcSetup {
        gnb_sim::CellConfig::srsran_n41().rrc_setup()
    }

    /// Promote and track `rnti`, as the scope admits a UE.
    fn admit(t: &mut UeTracker, rnti: Rnti, slot: u64) -> bool {
        let newly_discovered = t.promote(rnti, rrc());
        t.track(rnti, slot, rrc());
        newly_discovered
    }

    /// Expire idle UEs and untrack each, as the scope's housekeeping does.
    fn expire(t: &mut UeTracker, now: u64, expiry: u64, ra_window: u64) -> Vec<(Rnti, u64)> {
        let dead = t.expire(now, expiry, ra_window);
        dead.iter().for_each(|(r, _)| t.untrack(*r));
        dead
    }

    #[test]
    fn rar_then_promote_flow() {
        let mut t = UeTracker::new();
        let tc = Rnti(0x4601);
        t.rar_seen(tc, 10);
        assert_eq!(t.pending_tc_rntis(), vec![tc]);
        assert!(!t.contains(tc));
        admit(&mut t, tc, 17);
        assert!(t.contains(tc));
        assert!(t.pending_tc_rntis().is_empty());
        assert_eq!(t.total_discovered, 1);
        assert!(t.cached_rrc().is_some());
    }

    #[test]
    fn expiry_removes_idle_ues() {
        let mut t = UeTracker::new();
        admit(&mut t, Rnti(1), 0);
        admit(&mut t, Rnti(2), 0);
        t.get_mut(Rnti(2)).unwrap().last_active_slot = 900;
        let dead = expire(&mut t, 1000, 500, 100);
        assert_eq!(dead, vec![(Rnti(1), 0)]);
        assert!(t.contains(Rnti(2)));
    }

    #[test]
    fn stale_pending_tc_rntis_are_dropped() {
        let mut t = UeTracker::new();
        t.rar_seen(Rnti(5), 0);
        t.rar_seen(Rnti(6), 95);
        expire(&mut t, 100, 1000, 20);
        assert_eq!(t.pending_tc_rntis(), vec![Rnti(6)]);
    }

    #[test]
    fn rediscovery_after_expiry_is_not_double_counted() {
        let mut t = UeTracker::new();
        assert!(admit(&mut t, Rnti(0x4601), 100), "first discovery");
        assert_eq!(t.total_discovered, 1);
        let dead = expire(&mut t, 30_000, 20_000, 100);
        assert_eq!(dead, vec![(Rnti(0x4601), 100)]);
        assert!(!t.contains(Rnti(0x4601)));
        // The UE RACHes again after the outage: same RNTI, same UE.
        assert!(!admit(&mut t, Rnti(0x4601), 30_500), "rediscovery");
        assert!(t.contains(Rnti(0x4601)));
        assert_eq!(t.total_discovered, 1, "no double count");
        // A genuinely new UE still counts.
        assert!(admit(&mut t, Rnti(0x4602), 30_600));
        assert_eq!(t.total_discovered, 2);
    }

    #[test]
    fn recently_expired_window_and_restore() {
        let mut t = UeTracker::new();
        admit(&mut t, Rnti(10), 0);
        admit(&mut t, Rnti(11), 0);
        t.get_mut(Rnti(11)).unwrap().last_active_slot = 7_000;
        expire(&mut t, 10_000, 4_000, 100); // expires Rnti(10) only
        assert_eq!(t.recently_expired(10_000, 2_000), vec![Rnti(10)]);
        // Outside the retry window the hypothesis is dropped.
        assert!(t.recently_expired(13_000, 2_000).is_empty());
        // Restore re-tracks from the cached RRC without re-counting.
        let cached = t.restore(Rnti(10)).expect("cached RRC Setup");
        t.track(Rnti(10), 10_050, cached);
        assert!(t.contains(Rnti(10)));
        assert_eq!(t.total_discovered, 2);
        assert!(t.recently_expired(10_100, 2_000).is_empty());
    }

    #[test]
    fn recently_expired_keeps_only_the_window() {
        let (mut t, window) = (UeTracker::new(), 100);
        for i in 0..1_000u16 {
            admit(&mut t, Rnti(i), u64::from(i));
            expire(&mut t, u64::from(i) + window + 1, window, 10);
        }
        // Each UE expired `window + 1` slots after its promotion, the last
        // at slot 1,100: the map keeps the 101 of the last window.
        let rntis = |r: std::ops::Range<u16>| r.map(Rnti).collect::<Vec<_>>();
        let kept: Vec<Rnti> = t.aux_state().recently_expired.iter().map(|e| e.0).collect();
        assert_eq!(kept, rntis(899..1_000));
        assert_eq!(t.recently_expired(1_100, window), kept);
        assert_eq!(t.recently_expired(1_150, window), rntis(949..1_000));
    }

    #[test]
    fn restore_without_cached_rrc_is_a_noop() {
        let mut t = UeTracker::new();
        assert!(t.restore(Rnti(3)).is_none());
        assert!(!t.contains(Rnti(3)));
        assert_eq!(t.total_discovered, 0);
    }

    #[test]
    fn state_round_trip_preserves_everything() {
        let mut t = UeTracker::new();
        t.rar_seen(Rnti(0x5000), 40);
        admit(&mut t, Rnti(0x4601), 100);
        admit(&mut t, Rnti(0x4602), 200);
        t.get_mut(Rnti(0x4601)).unwrap().harq_dl.observe(3, 1);
        expire(&mut t, 25_000, 20_000, 100); // both idle UEs expire
        admit(&mut t, Rnti(0x4603), 25_100);

        let mut back = UeTracker::new();
        back.set_ues(&t.ues_state(), 0);
        back.set_aux(&t.aux_state());
        assert_eq!(back.rntis(), t.rntis());
        assert_eq!(back.total_discovered, 3);
        assert_eq!(back.aux_state(), t.aux_state());
        assert_eq!(
            back.get(Rnti(0x4603)).unwrap().discovered_slot,
            t.get(Rnti(0x4603)).unwrap().discovered_slot
        );
    }

    #[test]
    fn restore_rebases_last_active_against_watermark() {
        let mut t = UeTracker::new();
        admit(&mut t, Rnti(0x4601), 100);
        // Checkpoint taken at slot ~100; journal tail replayed to 50_000.
        // Without rebasing, the first expiry pass (> 20_000 idle) would
        // silently drop the UE the moment the session resumes.
        let mut back = UeTracker::new();
        back.set_ues(&t.ues_state(), 50_000);
        assert_eq!(back.get(Rnti(0x4601)).unwrap().last_active_slot, 50_000);
        assert!(expire(&mut back, 50_010, 20_000, 100).is_empty());
        assert!(back.contains(Rnti(0x4601)));
    }

    #[test]
    fn candidate_admitted_after_k_corroborations_in_window() {
        let mut t = UeTracker::new();
        let r = Rnti(0x4700);
        assert_eq!(t.note_candidate(r, 10, 3, 100, 64).0, Admission::Pending);
        assert!(t.is_probationary(r));
        assert_eq!(t.note_candidate(r, 20, 3, 100, 64).0, Admission::Pending);
        assert_eq!(t.note_candidate(r, 30, 3, 100, 64).0, Admission::Admit);
        assert!(!t.is_probationary(r), "admitted candidates leave probation");
    }

    #[test]
    fn same_slot_duplicates_count_as_one_sighting() {
        // K copies of one ghost codeword in a single slot (duplicated
        // candidates, stale hypothesis list) must not self-corroborate.
        let mut t = UeTracker::new();
        let r = Rnti(0x4700);
        for _ in 0..10 {
            assert_eq!(t.note_candidate(r, 10, 3, 100, 64).0, Admission::Pending);
        }
        assert!(t.is_probationary(r));
        assert_eq!(t.note_candidate(r, 11, 3, 100, 64).0, Admission::Pending);
        assert_eq!(t.note_candidate(r, 12, 3, 100, 64).0, Admission::Admit);
    }

    #[test]
    fn stale_sightings_fall_out_of_the_window() {
        let mut t = UeTracker::new();
        let r = Rnti(0x4700);
        t.note_candidate(r, 10, 3, 100, 64);
        t.note_candidate(r, 20, 3, 100, 64);
        // Third sighting arrives after the first two lapsed: still pending,
        // and only three fresh sightings inside one window admit.
        assert_eq!(t.note_candidate(r, 150, 3, 100, 64).0, Admission::Pending);
        assert_eq!(t.note_candidate(r, 160, 3, 100, 64).0, Admission::Pending);
        assert_eq!(t.note_candidate(r, 170, 3, 100, 64).0, Admission::Admit);
    }

    #[test]
    fn lapsed_probation_is_quarantined_and_reappearance_counted() {
        let mut t = UeTracker::new();
        let ghost = Rnti(0x4800);
        t.note_candidate(ghost, 10, 3, 100, 64);
        assert!(
            t.expire_probation(50, 100, 64).is_empty(),
            "still in window"
        );
        assert_eq!(t.expire_probation(200, 100, 64), vec![ghost]);
        assert!(t.is_quarantined(ghost));
        assert_eq!(t.quarantine_len(), 1);
        assert_eq!(t.quarantine_reappearances(ghost), Some(0));
        // The ghost keeps reappearing: cheap counter bump, never probation.
        assert_eq!(
            t.note_candidate(ghost, 300, 3, 100, 64).0,
            Admission::Quarantined
        );
        assert_eq!(
            t.note_candidate(ghost, 301, 3, 100, 64).0,
            Admission::Quarantined
        );
        assert_eq!(t.quarantine_reappearances(ghost), Some(2));
        assert!(!t.is_probationary(ghost));
    }

    #[test]
    fn probation_flood_is_bounded_with_counted_displacement() {
        let mut t = UeTracker::new();
        let mut displaced = 0usize;
        for i in 0..200u16 {
            let (_, d) = t.note_candidate(Rnti(0x4000 + i), u64::from(i), 3, 1_000, 64);
            displaced += usize::from(d.is_some());
        }
        assert!(t.probation_rntis().len() <= PROBATION_MAX + 1);
        assert_eq!(displaced + t.probation_rntis().len(), 200);
        assert_eq!(t.quarantine_len(), 64, "ledger bounded");
        assert!(t.quarantine_evictions > 0, "evictions are counted");
    }

    #[test]
    fn promote_clears_probation_and_quarantine() {
        let mut t = UeTracker::new();
        let r = Rnti(0x4900);
        t.note_candidate(r, 10, 5, 100, 64);
        t.expire_probation(500, 100, 64);
        assert!(t.is_quarantined(r));
        // A full RACH procedure (RAR + MSG 4) later proves the UE real.
        admit(&mut t, r, 600);
        assert!(!t.is_quarantined(r));
        assert!(t.contains(r));
    }

    #[test]
    fn admission_state_survives_aux_round_trip() {
        let mut t = UeTracker::new();
        t.note_candidate(Rnti(0x4A00), 10, 3, 100, 64);
        t.note_candidate(Rnti(0x4A01), 12, 3, 100, 64);
        t.expire_probation(500, 100, 64); // both quarantined
        t.note_candidate(Rnti(0x4A00), 600, 3, 100, 64); // reappearance
        t.note_candidate(Rnti(0x4B00), 610, 3, 100, 64); // fresh probation
        let aux = t.aux_state();
        let mut back = UeTracker::new();
        back.set_aux(&aux);
        assert_eq!(back.aux_state(), aux);
        assert!(back.is_quarantined(Rnti(0x4A00)));
        assert_eq!(back.quarantine_reappearances(Rnti(0x4A00)), Some(1));
        assert!(back.is_probationary(Rnti(0x4B00)));
    }

    #[test]
    fn rntis_and_ues_expiring_in_one_slot_are_sorted() {
        let want = [0x0102, 0x4601, 0x4603].map(Rnti);
        for order in [[0x4603, 0x4601, 0x0102], [0x0102, 0x4603, 0x4601]] {
            let mut t = UeTracker::new();
            for r in order {
                admit(&mut t, Rnti(r), 0);
            }
            assert_eq!(t.rntis(), want);
            assert_eq!(expire(&mut t, 1000, 500, 100), want.map(|r| (r, 0)));
        }
    }
}
