//! The end-to-end run: set-up, timed whole-tape reps, output checks.

use crate::check::{accuracy, check_accuracy, check_durable, Class, Failure};
use crate::replay::{run_rep_on, Rep, ScratchDir, Session};
use crate::report::{HostFacts, Metric, RunRecord};
use crate::stats::{median, percentile_sorted, summarize, supported_tail, Summary};
use crate::tape::{Tape, Workload};
use nrscope::{RealBackend, StorageBackend, TelemetryRecord};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// End-to-end metric names and units, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("slots_per_s", "1/s"),
    ("slot_p50_us", "us"),
    ("slot_p99_us", "us"),
    ("dci_hit_pct", "%"),
    ("byte_acc_pct", "%"),
    ("setup_s", "s"),
];

/// Set-ups per run. The first comes before any timing (it makes the tape
/// the reps replay); the others are spread evenly through the rep loop, so
/// a slow spell of the host lands on some of them, not on all. `setup_s`
/// is their minimum, the same noise-floor reading as the slot timings
/// (their median and quartiles stay in the record); the rebuilt tapes
/// double as the determinism self-check.
pub const SETUPS: usize = 5;

/// Every timing is estimated over at least this many whole-tape reps.
pub const MIN_REPS: usize = 3;

/// Wall-clock cap on the rep loop, as a multiple of `--seconds`. Reps
/// carry untimed checks, and a durable rep whose storage side was not
/// clean (see [`crate::check::DurableOutcome::storage`]) is replayed
/// again; on a host that does this often the loop stops here with the
/// clean reps it has, so the run ends well inside the driver's per-run
/// limit.
pub const WALL_BUDGET_FACTOR: f64 = 4.0;

/// Durable reps replaced in a row, before a single clean one, at which the
/// run stops trying: a fault of the program's own shows on every rep.
pub const MAX_REPLACED_FIRST: usize = 8;

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("metric is listed in END_TO_END")
}

/// One set-up: generate the tape and construct the session it will be
/// replayed into. Returns the tape and the wall seconds of both steps.
pub fn set_up(workload: Workload, seed: u64, out: &Path, tag: &str) -> io::Result<(Tape, f64)> {
    let t0 = Instant::now();
    let tape = Tape::build(workload, seed);
    let scratch = ScratchDir::new(out, tag);
    let session = Session::open(workload, &tape.cell, false, &scratch.0)?;
    let setup_s = t0.elapsed().as_secs_f64();
    drop(session);
    Ok((tape, setup_s))
}

/// The set-ups of one run: seconds of each, and whether every rebuilt
/// tape hashed like the first.
struct SetUps {
    hash: u64,
    seconds: Vec<f64>,
}

impl SetUps {
    /// Set up once more and check the tape against the first build.
    fn again(
        &mut self,
        workload: Workload,
        seed: u64,
        out: &Path,
        failures: &mut Vec<Failure>,
    ) -> io::Result<()> {
        let i = self.seconds.len();
        let (tape, s) = set_up(workload, seed, out, &format!("setup{i}"))?;
        self.seconds.push(s);
        let h = tape.hash();
        if h != self.hash {
            failures.push(Failure::new(
                Class::Tape,
                format!(
                    "tape is not deterministic: build 0 hashed {:016x}, build {i} hashed {h:016x}",
                    self.hash
                ),
            ));
        }
        Ok(())
    }
}

/// Run one workload end to end for about `seconds` of timed replay.
pub fn run_bench(
    workload: Workload,
    seed: u64,
    seconds: f64,
    out: &Path,
    host: &HostFacts,
) -> Result<RunRecord, Failure> {
    run_bench_on(workload, seed, seconds, out, host, |_| {
        Arc::new(RealBackend)
    })
}

/// [`run_bench`] with the files of the `n`-th durable rep started going
/// through `disk(n)`: tests put a failing disk under some reps.
pub fn run_bench_on(
    workload: Workload,
    seed: u64,
    seconds: f64,
    out: &Path,
    host: &HostFacts,
    mut disk: impl FnMut(usize) -> Arc<dyn StorageBackend>,
) -> Result<RunRecord, Failure> {
    let (tape, first_s) = set_up(workload, seed, out, "setup0")?;
    let tape_hash = tape.hash();
    let mut set_ups = SetUps {
        hash: tape_hash,
        seconds: vec![first_s],
    };
    let mut failures = Vec::new();
    let slots = tape.captures.len();

    // The durable workload is checked against the in-memory session on the
    // same tape; that untimed replay also warms the code under test.
    let mut reference: Option<Vec<TelemetryRecord>> = None;
    if workload.durable {
        let plain = Workload {
            durable: false,
            ..workload
        };
        let mut session = Session::open(plain, &tape.cell, false, out)?;
        for cap in &tape.captures {
            session.process(cap);
        }
        reference = Some(session.scope().records().to_vec());
    }

    let mut reps: Vec<Rep> = Vec::new();
    let mut acc = None;
    let mut timed_s = 0.0;
    let mut failed_slots = 0u64;
    // Durable reps whose storage side was not clean, with the reason.
    let mut replaced: Vec<String> = Vec::new();
    let loop_start = Instant::now();
    let budget_s = WALL_BUDGET_FACTOR * seconds;
    loop {
        let over_budget = loop_start.elapsed().as_secs_f64() >= budget_s;
        let enough = reps.len() >= MIN_REPS && (timed_s >= seconds || over_budget);
        // Storage keeps misbehaving: settle for the clean reps there are,
        // and do not spend the budget on a disk that never once worked.
        let never_worked = reps.is_empty() && replaced.len() >= MAX_REPLACED_FIRST;
        if enough || (over_budget && !replaced.is_empty()) || never_worked {
            break;
        }
        let scratch = ScratchDir::new(out, &format!("rep{}", reps.len()));
        let disk = disk(reps.len() + replaced.len());
        let (session, rep) = match run_rep_on(&tape, workload, false, &scratch.0, disk) {
            Ok(run) => run,
            // Only a durable session touches files: this rep never started.
            Err(e) => {
                eprintln!("bench: durable rep could not start, replaying it: {e}");
                replaced.push(format!("session did not open: {e}"));
                continue;
            }
        };

        // Output checks, outside the timed loop. Accuracy is taken on the
        // first rep; every later rep must reproduce its records exactly.
        let before = failures.len();
        if acc.is_none() {
            let a = accuracy(&tape, session.scope());
            failures.extend(check_accuracy(&tape, &a));
            acc = Some(a);
        }
        let records = session.scope().records();
        match &reference {
            None => reference = Some(records.to_vec()),
            Some(r) if !workload.durable && r.as_slice() != records => failures.push(Failure::new(
                Class::Output,
                format!("rep {} produced different telemetry than rep 0", reps.len()),
            )),
            Some(_) => {}
        }
        let mut storage = Vec::new();
        if let Session::Durable(durable) = session {
            let r = reference.as_deref().expect("reference replay ran first");
            let outcome = check_durable(&tape, durable, r);
            failures.extend(outcome.output);
            storage = outcome.storage;
        }
        if failures.len() > before {
            failed_slots += slots as u64;
        }
        // Such a rep did not measure the durable path (or cannot show that
        // it did): it is replayed again and counted, not timed.
        if !storage.is_empty() {
            let why = storage.join("; ");
            eprintln!("bench: durable rep not timed, replaying it: {why}");
            replaced.push(why);
            continue;
        }
        timed_s += rep.wall_s;
        reps.push(rep);
        let due = |done: usize| timed_s >= seconds * done as f64 / SETUPS as f64;
        while set_ups.seconds.len() < SETUPS && due(set_ups.seconds.len()) {
            set_ups.again(workload, seed, out, &mut failures)?;
        }
    }
    if reps.is_empty() {
        // The program's own fault or a disk that does not work: either
        // way the durable path was never measured.
        return Err(Failure::new(
            Class::Storage,
            format!(
                "not one clean durable rep ({} tried, budget {budget_s:.0} s); the last: {}",
                replaced.len(),
                replaced.last().map_or("none", String::as_str)
            ),
        ));
    }
    while set_ups.seconds.len() < SETUPS {
        set_ups.again(workload, seed, out, &mut failures)?;
    }
    let setup_s = set_ups.seconds;

    let acc = acc.expect("at least one rep ran");
    let est = estimate(&reps, workload.chunk_slots);
    let rep_rate: Vec<f64> = reps.iter().map(|r| slots as f64 / r.wall_s).collect();
    let (rep_p50, rep_p99): (Vec<f64>, Vec<f64>) = reps
        .iter()
        .map(|r| {
            let mut sorted = r.slot_ns.clone();
            sorted.sort_unstable();
            let us = |p| percentile_sorted(&sorted, p) as f64 / 1e3;
            (us(50.0), us(99.0))
        })
        .unzip();
    let waits: Vec<f64> = reps.iter().map(|r| r.journal_waits as f64).collect();
    let wait_ms: Vec<f64> = reps
        .iter()
        .map(|r| r.journal_wait_ns as f64 / 1e6)
        .collect();
    let mut pooled: Vec<u64> = reps
        .iter()
        .flat_map(|r| r.slot_ns.iter().copied())
        .collect();
    pooled.sort_unstable();
    let mut info = vec![
        ("realtime_factor", est.slots_per_s * tape.cell.slot_s()),
        // What a single uncorrected replay reads on this host: the median
        // across reps, beside the reported noise-floor estimate.
        ("slots_per_s_median_of_reps", median(&rep_rate)),
        ("slot_p50_us_median_of_reps", median(&rep_p50)),
        ("slot_p99_us_median_of_reps", median(&rep_p99)),
        ("dci_miss_pct", acc.dci_miss_pct()),
        ("byte_err_pct", acc.byte_err_pct()),
        ("byte_err_pct_acked", acc.byte_err_pct_acked()),
        ("dci_ops_attempted", acc.dci_attempted as f64),
        ("dci_ops_failed", (acc.dci_missed + acc.dci_spurious) as f64),
        ("ues_tracked", acc.ues_tracked as f64),
        (
            "telemetry_records",
            reference.as_ref().map_or(0, Vec::len) as f64,
        ),
        ("slot_samples_pooled", pooled.len() as f64),
        ("durable_reps_replaced", replaced.len() as f64),
        // Closed-loop flow control (`Session::await_journal`), per rep.
        ("journal_waits_median_of_reps", median(&waits)),
        ("journal_wait_ms_median_of_reps", median(&wait_ms)),
        (
            "journal_wait_ms_max_of_reps",
            wait_ms.iter().copied().fold(0.0, f64::max),
        ),
        ("tape_rerolls", tape.rerolls as f64),
        ("setup_s_median_of_set_ups", median(&setup_s)),
    ];
    // The highest tail the pooled per-slot sample supports (≥10 beyond).
    if let Some(p) = supported_tail(pooled.len()) {
        info.push(("slot_tail_percentile", p));
        info.push(("slot_tail_us", percentile_sorted(&pooled, p) as f64 / 1e3));
    }
    // Value: the estimate over all reps. Quartiles and n: the per-rep
    // readings, so the record shows how far single replays scatter.
    let timing = |name: &'static str, value: f64, per_rep: &[f64]| {
        Metric::new(
            name,
            unit_of(name),
            Summary {
                median: value,
                ..summarize(per_rep)
            },
        )
    };
    let once = |name: &'static str, value: f64| Metric::once(name, unit_of(name), value);
    Ok(RunRecord {
        kind: "bench",
        workload: workload.name,
        seed,
        seconds,
        tape_hash,
        tape_slots: slots as u64,
        reps: reps.len(),
        failures,
        attempted: (reps.len() * slots) as u64,
        failed: failed_slots,
        metrics: vec![
            timing("slots_per_s", est.slots_per_s, &rep_rate),
            timing("slot_p50_us", est.slot_p50_us, &rep_p50),
            timing("slot_p99_us", est.slot_p99_us, &rep_p99),
            once("dci_hit_pct", 100.0 - acc.dci_miss_pct()),
            once("byte_acc_pct", 100.0 - acc.byte_err_pct()),
            timing(
                "setup_s",
                setup_s.iter().copied().fold(f64::INFINITY, f64::min),
                &setup_s,
            ),
        ],
        info,
        host: host.clone(),
    })
}

/// Timing estimates over all reps of one tape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    pub slots_per_s: f64,
    pub slot_p50_us: f64,
    pub slot_p99_us: f64,
}

/// Noise-floor estimate of a tape's service times from `reps` replays of
/// the identical input.
///
/// On a shared host interference only ever adds time, and it comes in
/// bursts longer than a slot, so the median across reps still moves by
/// 10–25 % between runs (README "Estimator"). Every rep does the same work
/// at slot `i`, so the minimum over reps of slot `i`'s time is the most
/// reproducible reading of that work; `slot_p50_us`/`slot_p99_us` are
/// percentiles of that per-slot minimum. Work another thread's progress
/// schedules (the journal rotation that follows each finished background
/// checkpoint, a wait for the writer) lands on different slots in
/// different reps and would vanish from a per-slot minimum, so throughput
/// sums each `chunk_slots`-slot chunk first and takes the minimum per
/// chunk: `slots_per_s` = slots ÷ Σ min chunk time.
pub fn estimate(reps: &[Rep], chunk_slots: usize) -> Estimate {
    assert!(!reps.is_empty() && chunk_slots > 0);
    let slots = reps[0].slot_ns.len();
    let mut floor: Vec<u64> = (0..slots)
        .map(|i| reps.iter().map(|r| r.slot_ns[i]).min().expect("reps"))
        .collect();
    let total_ns: u64 = (0..slots)
        .step_by(chunk_slots)
        .map(|start| {
            let end = (start + chunk_slots).min(slots);
            reps.iter()
                .map(|r| r.slot_ns[start..end].iter().sum::<u64>())
                .min()
                .expect("reps")
        })
        .sum();
    floor.sort_unstable();
    Estimate {
        slots_per_s: slots as f64 / (total_ns as f64 / 1e9),
        slot_p50_us: percentile_sorted(&floor, 50.0) as f64 / 1e3,
        slot_p99_us: percentile_sorted(&floor, 99.0) as f64 / 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(slot_ns: &[u64]) -> Rep {
        Rep {
            wall_s: slot_ns.iter().sum::<u64>() as f64 / 1e9,
            slot_ns: slot_ns.to_vec(),
            journal_waits: 0,
            journal_wait_ns: 0,
        }
    }

    #[test]
    fn per_slot_floor_ignores_a_burst_in_one_rep() {
        let clean = rep(&[1000, 2000, 1000, 4000]);
        let burst = rep(&[1000, 9000, 9000, 4000]);
        let e = estimate(&[clean, burst], 1);
        assert_eq!(e.slots_per_s, 4.0 / 8000e-9);
        assert_eq!(e.slot_p50_us, 1.0);
        assert_eq!(e.slot_p99_us, 2.0);
    }

    #[test]
    fn chunking_keeps_work_that_moves_between_slots() {
        // A 5 µs batch seal lands on slot 1 in one rep and slot 2 in the
        // other: the per-slot floor loses it, the 4-slot chunk keeps it.
        let a = rep(&[1000, 6000, 1000, 1000]);
        let b = rep(&[1000, 1000, 6000, 1000]);
        let per_slot = estimate(&[a, b], 1);
        assert_eq!(per_slot.slots_per_s, 4.0 / 4000e-9);
        let a = rep(&[1000, 6000, 1000, 1000]);
        let b = rep(&[1000, 1000, 6000, 1000]);
        let chunked = estimate(&[a, b], 4);
        assert_eq!(chunked.slots_per_s, 4.0 / 9000e-9);
        // A ragged last chunk is summed as it is.
        let c = rep(&[1000, 1000, 1000]);
        assert_eq!(estimate(&[c], 2).slots_per_s, 3.0 / 3000e-9);
    }
}
