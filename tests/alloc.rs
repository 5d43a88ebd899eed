//! Heap allocations of the IQ slot path, pinned.
//!
//! Its own test binary because it replaces the global allocator with a
//! counting one. The counts are per thread, so the harness's other test
//! threads do not disturb them, and exact: a seeded session allocates the
//! same on every run. The ceilings are the counts measured when an RNTI
//! hypothesis became an integer compare on the codeword's CRC syndrome,
//! plus 10 % — room for a log line, not for a per-hypothesis `Vec` to come
//! back. Measured again when extraction became one pass over the pilots
//! and one over a survivor's data: the same counts to the allocation.

use nr_scope::gnb::{CellConfig, Gnb};
use nr_scope::mac::RoundRobin;
use nr_scope::phy::channel::ChannelProfile;
use nr_scope::scope::observe::Observer;
use nr_scope::scope::{Fidelity, NrScope, ScopeConfig};
use nr_scope::ue::traffic::{TrafficKind, TrafficSource};
use nr_scope::ue::{MobilityScenario, SimUe};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls (growing reallocations included) of this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting each thread's allocation calls.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. The counter is a `const`-initialised
// `Cell` of a plain integer: reading it allocates nothing and registers no
// destructor, so it is usable from inside the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator, same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
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
    records: usize,
}

/// An IQ-fidelity session on the paper's srsRAN cell with `n_ues` CBR
/// 3 Mb/s UEs present from slot 0 (the benchmark's `iq-dense` at 12, its
/// `iq-sparse` at 1): the allocations of every `NrScope::process` call.
fn session(n_ues: u64, slots: u64) -> (Vec<SlotCost>, usize) {
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
    let mut observer = Observer::new(&cell, 30.0, true, 1);
    let cfg = ScopeConfig {
        fidelity: Fidelity::Iq,
        ..ScopeConfig::default()
    };
    let mut scope = NrScope::new(cfg, None);
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
            records: records.len(),
        });
    }
    (costs, scope.tracked_rntis().len())
}

/// The benchmark's `iq-dense` population, all twelve attached: 21.2
/// allocations a slot in the mean and 33 on the busiest slot when pinned
/// (239 and 405 while `dci_check_crc` and `dci_recover_rnti` built three
/// `Vec`s per hypothesis tested). What is left, by call site: one LLR
/// `Vec` per candidate that passes the pilot gate, written once by
/// `extract_candidate_above`, and the `Vec` of them (`extract_candidates`,
/// ≈ 12 — the per-CCE pilot sums every gate reads live in the session's
/// `FrontEnd`, and extraction has no other buffer), the slot's DMRS row
/// and the `Vec` holding it (`CoresetSequences::new`, 2 — the common
/// scrambling sequence is the thread's memoised one), the RNTI lists of
/// `hypotheses` (5) and `housekeeping` (1), and per decoded DCI `scan`'s
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
    assert!(total <= 24 * steady.len() as u64, "{total} allocations");
    let worst = steady.iter().map(|c| c.allocs).max();
    assert!(worst <= Some(37), "busiest slot: {worst:?} allocations");
}

/// A tracked cell's slot with no DCI on the air, 6 when pinned: the slot's
/// DMRS row (`CoresetSequences::new`, 2) and the RNTI lists of
/// `hypotheses` and `housekeeping` (4). Nothing per candidate or for the
/// pilot sums its fifteen gates read, nothing for the grid, the FFT or a
/// polar code, nothing for a PBCH attempt (none is due between SSBs, and
/// its CRC check builds nothing when one is); `process` returns an empty
/// `Vec`, which allocates nothing.
#[test]
fn empty_tracked_iq_slot_allocates_only_its_sequences_and_lists() {
    let (costs, tracked) = session(1, 200);
    assert_eq!(tracked, 1);
    let quiet = |c: &&SlotCost| c.sent == 0 && !c.ssb;
    let quiet: Vec<u64> = (costs[100..].iter().filter(quiet))
        .map(|c| c.allocs)
        .collect();
    assert!(quiet.len() > 50, "{} quiet slots", quiet.len());
    assert!(quiet.iter().all(|&n| n <= 7), "{quiet:?}");
}
