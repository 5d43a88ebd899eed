//! Heap allocations of the slot path and of a checkpoint's state, pinned.
//!
//! Its own test binary because it replaces the global allocator with a
//! counting one. The counts are per thread, so the harness's other test
//! threads do not disturb them, and exact: a seeded session allocates the
//! same on every run. The ceilings are the counts measured when an RNTI
//! hypothesis became an integer compare on the codeword's CRC syndrome,
//! plus 10 % — room for a log line, not for a per-hypothesis `Vec` to come
//! back. Measured again when extraction became one pass over the pilots
//! and one over a survivor's data: the same counts to the allocation. The
//! tracked IQ slot's ceilings were set again to its counts plus 10 % when a
//! gated position came to be demapped only when the scan asks for it. A
//! quiet slot is pinned at its count: one allocation more fails.

use nr_scope::gnb::{CellConfig, Gnb};
use nr_scope::mac::RoundRobin;
use nr_scope::phy::channel::ChannelProfile;
use nr_scope::phy::SlotDirection;
use nr_scope::scope::observe::Observer;
use nr_scope::scope::{Fidelity, NrScope, ScopeConfig};
use nr_scope::ue::traffic::{TrafficKind, TrafficSource};
use nr_scope::ue::{MobilityScenario, SimUe};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls (growing reallocations included) of this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for (a reallocation's whole new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation call of `bytes` on this thread.
fn count(bytes: usize) {
    ALLOCS.set(ALLOCS.get() + 1);
    BYTES.set(BYTES.get() + bytes as u64);
}

/// `System`, counting each thread's allocation calls and bytes.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. The counters are `const`-initialised
// `Cell`s of plain integers: reading them allocates nothing and registers
// no destructor, so they are usable from inside the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator, same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` via this allocator, same layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What one slot cost and found.
struct SlotCost {
    allocs: u64,
    /// DCIs the gNB sent in the slot, any RNTI type.
    sent: usize,
    ssb: bool,
    /// An uplink slot of the cell's TDD pattern.
    uplink: bool,
    records: usize,
}

/// An IQ-fidelity session on the paper's srsRAN cell with `n_ues` CBR
/// 3 Mb/s UEs present from slot 0 (the benchmark's `iq-dense` at 12, its
/// `iq-sparse` at 1): the allocations of every `NrScope::process` call.
fn session(n_ues: u64, slots: u64) -> (Vec<SlotCost>, usize) {
    session_at(Fidelity::Iq, n_ues, slots)
}

fn session_at(fidelity: Fidelity, n_ues: u64, slots: u64) -> (Vec<SlotCost>, usize) {
    session_with(fidelity, n_ues, slots, |_, _| {})
}

/// [`session_at`], calling `after(scope, slots processed)` after each slot,
/// outside the slot's count.
fn session_with(
    fidelity: Fidelity,
    n_ues: u64,
    slots: u64,
    mut after: impl FnMut(&NrScope, u64),
) -> (Vec<SlotCost>, usize) {
    let iq = fidelity == Fidelity::Iq;
    let cell = CellConfig::srsran_n41();
    let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), 1);
    for i in 1..=n_ues {
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
            60.0,
            i << 8,
        ));
    }
    let mut observer = Observer::new(&cell, 30.0, iq, 1);
    let cfg = ScopeConfig {
        fidelity,
        ..ScopeConfig::default()
    };
    let mut scope = NrScope::new(cfg, (!iq).then_some(cell.pci));
    let mut costs = Vec::new();
    for s in 0..slots {
        let out = gnb.step();
        let observed = observer.observe(&out, s as f64 * cell.slot_s());
        let before = ALLOCS.get();
        let records = scope.process(&observed);
        costs.push(SlotCost {
            allocs: ALLOCS.get() - before,
            sent: out.dcis.len(),
            ssb: out.mib.is_some(),
            uplink: out.direction == Some(SlotDirection::Uplink),
            records: records.len(),
        });
        after(&scope, s + 1);
    }
    (costs, scope.tracked_rntis().len())
}

/// The benchmark's `iq-dense` population, all twelve attached: 7.5
/// allocations a slot in the mean and 15 on the busiest slot when pinned
/// (239 and 405 while `dci_check_crc` and `dci_recover_rnti` built three
/// `Vec`s per hypothesis tested, 21.2 and 33 while `housekeeping` listed
/// the tracked RNTIs every slot to count them), 18.2 and 30 since
/// `hypotheses` shares the C-RNTI row instead of cloning it, 16.0 and 28
/// since the front end keeps each slot-in-frame's CORESET sequences,
/// 14.3 and 25 since a gated position is demapped only when the scan asks
/// for it, 7.5 and 15 (from 12.9 and 23) since pass A asks a tracked UE's
/// search-space positions first. What is left, by call site: one LLR `Vec`
/// per position the scan asks for, written once by `demap_candidate` (a
/// position sharing a CCE with a claim pass A made before it is never
/// asked, and allocates nothing), and the
/// `Vec` of the positions the pilot gate passes (`gate`; the per-CCE
/// pilot sums every gate reads and the CORESET's DMRS rows and common
/// scrambling live in the session's `FrontEnd`, and extraction has no
/// other buffer), the RNTI lists of `hypotheses` (the RA-RNTI list, and
/// the TC-RNTI list while a RAR is pending), and per decoded DCI `scan`'s
/// result, the records `process` returns and the bookkeeping of `consume`.
/// Nothing per hypothesis, and nothing for `scan`'s claims: they live in
/// its result.
#[test]
fn tracked_iq_slot_allocates_per_surviving_candidate_not_per_hypothesis() {
    let (costs, tracked) = session(12, 260);
    assert_eq!(tracked, 12, "every UE attached before the window");
    let steady = &costs[200..];
    let total: u64 = steady.iter().map(|c| c.allocs).sum();
    assert!(
        steady.iter().any(|c| c.records >= 4),
        "the window is loaded"
    );
    assert!(
        total * 10 <= 83 * steady.len() as u64,
        "{total} allocations"
    );
    let worst = steady.iter().map(|c| c.allocs).max();
    assert!(worst <= Some(17), "busiest slot: {worst:?} allocations");
}

/// A tracked cell's slot with no DCI on the air, 1 when pinned: the
/// RA-RNTI list of `hypotheses` (5 when first pinned, 4 while `hypotheses`
/// cloned the C-RNTI row, 3 while each slot built its DMRS row,
/// `CoresetSequences::new`). Nothing per candidate, for the slot's pilots
/// (the front end keeps them per slot of the frame) or for the
/// pilot sums its fifteen gates read, nothing for the grid, the FFT or a
/// polar code, nothing for a PBCH attempt (none is due between SSBs, and
/// its CRC check builds nothing when one is), nothing in `housekeeping`;
/// `process` returns an empty `Vec`, which allocates nothing. An uplink
/// slot of the cell's TDD pattern is not read at all: it allocates nothing.
#[test]
fn empty_tracked_iq_slot_allocates_only_its_sequences_and_lists() {
    let (costs, tracked) = session(1, 200);
    assert_eq!(tracked, 1);
    let quiet = |c: &&SlotCost| c.sent == 0 && !c.ssb && !c.uplink;
    let quiet: Vec<u64> = (costs[100..].iter().filter(quiet))
        .map(|c| c.allocs)
        .collect();
    assert!(quiet.len() > 50, "{} quiet slots", quiet.len());
    assert!(quiet.iter().all(|&n| n <= 1), "{quiet:?}");
    let uplink: Vec<u64> = (costs[100..].iter().filter(|c| c.uplink))
        .map(|c| c.allocs)
        .collect();
    assert!(uplink.len() >= 20, "{} uplink slots", uplink.len());
    assert!(uplink.iter().all(|&n| n == 0), "{uplink:?}");
}

/// A tracked message-fidelity cell allocates per slot what it decodes, not
/// what it tracks: the same at 8 and at 64 UEs, all attached (the
/// benchmark's `msg-dense` population is 64). A downlink slot with no DCI on
/// the air allocates 1, the slot's RA-RNTI list, and an uplink slot of the
/// cell's TDD pattern, which is not decoded, 0; a slot that decodes
/// allocates, in the most common case, 5 plus one per record. Nothing per
/// UE, and nothing for the C-RNTI row: `hypotheses` hands out the table's
/// row, shared (every count was one higher while it cloned the row each
/// slot), and the row's key index is built once per table, not per slot.
#[test]
fn steady_message_slot_allocates_the_same_at_8_and_64_tracked_ues() {
    for n_ues in [8, 64] {
        let (costs, tracked) = session_at(Fidelity::Message, n_ues, 1200);
        assert_eq!(tracked, n_ues as usize, "every UE attached");
        let steady = &costs[800..];
        let quiet: Vec<u64> = (steady.iter().filter(|c| c.sent == 0 && !c.uplink))
            .map(|c| c.allocs)
            .collect();
        let uplink: Vec<u64> = (steady.iter().filter(|c| c.uplink))
            .map(|c| c.allocs)
            .collect();
        // At 64 UEs every downlink slot of the window carries a DCI.
        let (n_quiet, n_uplink) = (quiet.len(), uplink.len());
        assert!(n_quiet > 10 || n_ues == 64, "{n_ues} UEs: {n_quiet} quiet");
        assert!(n_uplink >= 80, "{n_ues} UEs: {n_uplink} uplink");
        assert!(quiet.iter().all(|&n| n == 1), "{n_ues} UEs: {quiet:?}");
        assert!(uplink.iter().all(|&n| n == 0), "{n_ues} UEs: {uplink:?}");
        let mut past_records = std::collections::BTreeMap::new();
        for c in steady.iter().filter(|c| c.records > 0) {
            *past_records.entry(c.allocs - c.records as u64).or_insert(0) += 1;
        }
        let mode = past_records.iter().max_by_key(|(_, seen)| **seen);
        assert_eq!(
            mode.map(|(n, _)| *n),
            Some(5),
            "{n_ues} UEs: {past_records:?}"
        );
    }
}

/// A checkpoint's `session_state()` shares the throughput history instead
/// of copying it: on a 64-UE message-fidelity session it allocates the same
/// bytes, within 10 %, at slot 4,096 and at slot 36,864, while the history
/// it freezes grows from 9,984 samples to 91,692. 165,715 and 165,107 B
/// when pinned, all of it per UE (the tracker's entries, the copied rate
/// windows, a history tail copied into a chunk-sized buffer) or the
/// registry's snapshot. While each state copied the history as a flat
/// `Vec`, the two read 258,387 and 1,565,107 B: 16 B more per retained
/// sample.
#[test]
fn a_snapshot_allocates_the_same_bytes_whatever_the_history_holds() {
    let mut bytes = Vec::new();
    let (_, tracked) = session_with(Fidelity::Message, 64, 36_864, |scope, slot| {
        if slot == 4_096 || slot == 36_864 {
            let before = BYTES.get();
            let _state = scope.session_state();
            bytes.push(BYTES.get() - before);
        }
    });
    assert_eq!(tracked, 64, "every UE attached");
    let (small, large) = (bytes[0] as f64, bytes[1] as f64);
    assert!(
        (large / small - 1.0).abs() <= 0.10,
        "session_state() allocated {small} B at slot 4,096 and {large} B at slot 36,864"
    );
}
