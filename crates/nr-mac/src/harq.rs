//! Hybrid-ARQ: the gNB-side entity and the passive tracker.
//!
//! Paper §3.2.2: "The gNB allocates up to 16 HARQ processes for each UE...
//! If the UE correctly decodes the data in one TTI and sends back an ACK,
//! the gNB toggles the new_data_indicator of the DCI with the same harq_id
//! to indicate new data. If the UE NACKs, the gNB uses the same ndi for the
//! re-transmission. NR-Scope maintains an array for each UE to record the
//! ndi from previous DCIs for each harq_id to detect re-transmissions."

use serde::{Deserialize, Serialize};

/// HARQ processes per UE per direction (38.321).
pub const NUM_HARQ_PROCESSES: usize = 16;

/// State of one gNB-side HARQ process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum ProcessState {
    /// Free for new data.
    Idle,
    /// Transmitted, waiting for ACK/NACK.
    InFlight,
    /// NACKed: must retransmit with the same NDI.
    NeedsRetx,
}

/// One HARQ process's bookkeeping.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Process {
    state: ProcessState,
    ndi: u8,
    /// TBS of the in-flight transport block (retransmitted verbatim).
    tbs: u32,
    /// Retransmission count of the current block.
    retx_count: u8,
}

impl Default for Process {
    fn default() -> Self {
        Process {
            state: ProcessState::Idle,
            ndi: 0,
            tbs: 0,
            retx_count: 0,
        }
    }
}

/// Maximum retransmissions before the block is dropped (typical RLC/MAC
/// configuration).
pub const MAX_RETX: u8 = 4;

/// gNB-side HARQ entity for one UE, one direction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GnbHarqEntity {
    processes: [Process; NUM_HARQ_PROCESSES],
}

impl Default for GnbHarqEntity {
    fn default() -> Self {
        Self::new()
    }
}

impl GnbHarqEntity {
    /// Fresh entity, all processes idle with NDI 0.
    pub fn new() -> GnbHarqEntity {
        GnbHarqEntity {
            processes: [Process::default(); NUM_HARQ_PROCESSES],
        }
    }

    /// A process needing retransmission, if any (retransmissions take
    /// scheduling priority).
    pub fn pending_retx(&self) -> Option<(u8, u32)> {
        self.processes
            .iter()
            .enumerate()
            .find(|(_, p)| p.state == ProcessState::NeedsRetx)
            .map(|(i, p)| (i as u8, p.tbs))
    }

    /// A free process for new data, if any.
    pub fn free_process(&self) -> Option<u8> {
        self.processes
            .iter()
            .position(|p| p.state == ProcessState::Idle)
            .map(|i| i as u8)
    }

    /// Start a new transmission on `harq_id`: toggles NDI and records the
    /// TBS. Returns the NDI to put in the DCI.
    pub fn start_new(&mut self, harq_id: u8, tbs: u32) -> u8 {
        let p = &mut self.processes[harq_id as usize];
        debug_assert_eq!(p.state, ProcessState::Idle, "process must be idle");
        p.ndi ^= 1;
        p.tbs = tbs;
        p.retx_count = 0;
        p.state = ProcessState::InFlight;
        p.ndi
    }

    /// Start a retransmission on `harq_id`. Returns the (unchanged) NDI.
    pub fn start_retx(&mut self, harq_id: u8) -> u8 {
        let p = &mut self.processes[harq_id as usize];
        debug_assert_eq!(p.state, ProcessState::NeedsRetx);
        p.retx_count += 1;
        p.state = ProcessState::InFlight;
        p.ndi
    }

    /// Cancel a just-started new transmission whose DCI could not be
    /// placed on the PDCCH: reverts the NDI toggle and frees the process,
    /// as if the scheduler had never picked it (a real gNB allocates CCEs
    /// before committing HARQ state; our scheduler is optimistic and
    /// compensates here).
    pub fn cancel_new(&mut self, harq_id: u8) {
        let p = &mut self.processes[harq_id as usize];
        debug_assert_eq!(p.state, ProcessState::InFlight);
        p.ndi ^= 1;
        p.state = ProcessState::Idle;
    }

    /// Cancel a just-started retransmission whose DCI could not be placed:
    /// the process returns to the needs-retransmission state unchanged.
    pub fn cancel_retx(&mut self, harq_id: u8) {
        let p = &mut self.processes[harq_id as usize];
        debug_assert_eq!(p.state, ProcessState::InFlight);
        p.retx_count -= 1;
        p.state = ProcessState::NeedsRetx;
    }

    /// Deliver HARQ feedback for `harq_id`. On NACK the process moves to
    /// retransmission unless `MAX_RETX` was reached (then the block drops
    /// and the process frees). Returns `true` if the block completed
    /// (ACK or dropped).
    pub fn feedback(&mut self, harq_id: u8, ack: bool) -> bool {
        let p = &mut self.processes[harq_id as usize];
        debug_assert_eq!(
            p.state,
            ProcessState::InFlight,
            "feedback without transmission"
        );
        // ACK and retransmission-budget exhaustion both complete the block
        // (the latter drops it); only an in-budget NACK keeps it alive.
        if ack || p.retx_count >= MAX_RETX {
            p.state = ProcessState::Idle;
            true
        } else {
            p.state = ProcessState::NeedsRetx;
            false
        }
    }

    /// Current NDI of a process (what the DCI would carry).
    pub fn ndi(&self, harq_id: u8) -> u8 {
        self.processes[harq_id as usize].ndi
    }

    /// Retransmission count of the block on `harq_id`.
    pub fn retx_count(&self, harq_id: u8) -> u8 {
        self.processes[harq_id as usize].retx_count
    }
}

/// NR-Scope's passive retransmission detector: one NDI memory per
/// (harq_id) per UE per direction — exactly the paper's "array for each UE
/// to record the ndi from previous DCIs".
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct HarqTracker {
    /// Last seen NDI per process; `None` until first observation.
    last_ndi: [Option<u8>; NUM_HARQ_PROCESSES],
}

impl HarqTracker {
    /// Fresh tracker.
    pub fn new() -> HarqTracker {
        HarqTracker::default()
    }

    /// Observe a DCI's (harq_id, ndi). Returns `true` if this DCI is a
    /// retransmission (same NDI as the previous DCI on that process).
    ///
    /// The first observation on a process can't be classified and counts as
    /// a new transmission, matching the paper's warm-up behaviour.
    pub fn observe(&mut self, harq_id: u8, ndi: u8) -> bool {
        let retx = self.is_retx(harq_id, ndi);
        self.last_ndi[harq_id as usize] = Some(ndi);
        retx
    }

    /// What [`HarqTracker::observe`] would answer, without storing the NDI.
    pub fn is_retx(&self, harq_id: u8, ndi: u8) -> bool {
        self.last_ndi[harq_id as usize] == Some(ndi)
    }

    /// Forget all state (UE left the RAN).
    pub fn reset(&mut self) {
        self.last_ndi = [None; NUM_HARQ_PROCESSES];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ndi_toggles_on_new_data() {
        let mut h = GnbHarqEntity::new();
        let id = h.free_process().unwrap();
        let n1 = h.start_new(id, 1000);
        assert!(h.feedback(id, true));
        let n2 = h.start_new(id, 2000);
        assert_ne!(n1, n2, "NDI must toggle for new data");
    }

    #[test]
    fn nack_keeps_ndi_and_requests_retx() {
        let mut h = GnbHarqEntity::new();
        let id = h.free_process().unwrap();
        let ndi = h.start_new(id, 5000);
        assert!(!h.feedback(id, false));
        let (rid, tbs) = h.pending_retx().unwrap();
        assert_eq!(rid, id);
        assert_eq!(tbs, 5000);
        assert_eq!(h.start_retx(id), ndi, "retransmission keeps NDI");
    }

    #[test]
    fn block_drops_after_max_retx() {
        let mut h = GnbHarqEntity::new();
        let id = h.free_process().unwrap();
        h.start_new(id, 100);
        for i in 0..MAX_RETX {
            assert!(!h.feedback(id, false), "retx {i} continues");
            h.start_retx(id);
        }
        // One more NACK exhausts the budget: block completes (dropped).
        assert!(h.feedback(id, false));
        assert!(h.pending_retx().is_none());
        assert_eq!(h.free_process(), Some(id));
    }

    #[test]
    fn sixteen_processes_available() {
        let mut h = GnbHarqEntity::new();
        for i in 0..NUM_HARQ_PROCESSES {
            let id = h.free_process().expect("process available");
            assert_eq!(id as usize, i);
            h.start_new(id, 10);
        }
        assert!(h.free_process().is_none(), "all in flight");
    }

    #[test]
    fn cancel_new_reverts_ndi_and_frees() {
        let mut h = GnbHarqEntity::new();
        let id = h.free_process().unwrap();
        let before = h.ndi(id);
        h.start_new(id, 100);
        h.cancel_new(id);
        assert_eq!(h.ndi(id), before, "NDI untoggled");
        assert_eq!(h.free_process(), Some(id), "process free again");
        // The next real transmission toggles as if nothing happened.
        let n = h.start_new(id, 100);
        assert_ne!(n, before);
    }

    #[test]
    fn cancel_retx_restores_pending_state() {
        let mut h = GnbHarqEntity::new();
        let id = h.free_process().unwrap();
        h.start_new(id, 100);
        h.feedback(id, false);
        h.start_retx(id);
        h.cancel_retx(id);
        assert_eq!(h.pending_retx(), Some((id, 100)));
        assert_eq!(h.retx_count(id), 0);
    }

    #[test]
    fn tracker_detects_retransmissions() {
        let mut gnb = GnbHarqEntity::new();
        let mut scope = HarqTracker::new();
        let id = gnb.free_process().unwrap();
        // New TX.
        let ndi = gnb.start_new(id, 999);
        assert!(!scope.observe(id, ndi), "first sight is not a retx");
        // NACK → retx with same ndi → tracker flags it.
        gnb.feedback(id, false);
        let ndi2 = gnb.start_retx(id);
        assert!(scope.observe(id, ndi2), "same NDI = retransmission");
        // ACK → new data with toggled ndi → not a retx.
        gnb.feedback(id, true);
        let ndi3 = gnb.start_new(id, 500);
        assert!(!scope.observe(id, ndi3));
    }

    #[test]
    fn tracker_reset_forgets_history() {
        let mut t = HarqTracker::new();
        t.observe(3, 1);
        assert!(t.observe(3, 1));
        t.reset();
        assert!(!t.observe(3, 1), "after reset, first sight again");
    }

    #[test]
    fn tracker_processes_are_independent() {
        let mut t = HarqTracker::new();
        assert!(!t.observe(0, 1));
        assert!(!t.observe(1, 1), "different process, no retx flag");
        assert!(t.observe(0, 1));
    }

    #[test]
    fn is_retx_answers_as_observe_without_storing() {
        let mut t = HarqTracker::new();
        assert!(!t.is_retx(2, 0));
        assert!(!t.is_retx(2, 0), "a query stores nothing");
        assert!(!t.observe(2, 0));
        assert!(t.is_retx(2, 0) && !t.is_retx(2, 1));
    }
}
