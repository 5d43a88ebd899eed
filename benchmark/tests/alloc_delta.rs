//! The counting allocator's delta, in a test binary that installs it (the
//! library's own unit tests run on the stock allocator).

use nrscope_perf_ledger::alloc::{snapshot, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn delta_counts_calls_and_bytes_of_the_region() {
    // One test in this binary, so no sibling test thread allocates inside
    // the measured regions.
    let before = snapshot();
    let v: Vec<u8> = Vec::with_capacity(4096);
    let after = snapshot();
    let d = after.since(before);
    assert_eq!(d.allocs, 1);
    assert_eq!(d.bytes, 4096);
    drop(v);
    assert_eq!(snapshot().since(after).allocs, 0, "frees are not counted");

    let before = snapshot();
    let mut grown: Vec<u64> = Vec::with_capacity(4);
    grown.extend(0..4);
    grown.reserve_exact(12);
    let d = snapshot().since(before);
    assert_eq!(d.allocs, 2, "one alloc + one growing realloc");
    assert_eq!(d.bytes, 16 * 8);

    let before = snapshot();
    let n = std::hint::black_box(3u64) + 4;
    assert_eq!(n, 7);
    assert_eq!(snapshot().since(before).allocs, 0);
}
