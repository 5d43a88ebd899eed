//! The host stalling the journal writer, or its disk failing a call now and
//! then, must not fail a run.
//!
//! The replay waits for a writer that falls behind (closed-loop flow
//! control), so a stall costs time and the session stays durable. If a
//! session is demoted all the same (driven here without the flow control,
//! and without checkpoints, whose journal rotations wait for the writer
//! too), the rep is reported as not clean on the storage side (the caller
//! replays it; its timings are void), not as a failed output check: the
//! records and the recovered directory are still right.
//! The stall is produced with the session's own chaos hook.

use nrscope::{
    FaultyBackend, LoadRung, PersistConfig, PersistentSession, RealBackend, StorageBackend,
    StorageFaultSchedule,
};
use nrscope_perf_ledger::check::{check_durable, Class};
use nrscope_perf_ledger::ledger::{run_bench_on, MIN_REPS};
use nrscope_perf_ledger::replay::{assumed_pci, replay, scope_config, ScratchDir, Session};
use nrscope_perf_ledger::report::HostFacts;
use nrscope_perf_ledger::tape::{Tape, Workload};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn a_wedged_writer_is_waited_for_or_demotes_the_rep_and_fails_no_check() {
    let durable = Workload::by_name("msg-durable")
        .expect("msg-durable is a workload")
        .prefix(4000);
    let plain = Workload {
        durable: false,
        ..durable
    };
    let tape = Tape::build(durable, 1);
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"));

    let mut session = Session::open(plain, &tape.cell, false, out).unwrap();
    replay(&mut session, &tape.captures);
    let reference = session.scope().records().to_vec();
    assert!(!reference.is_empty());

    // (wedge, replay with flow control)
    let cases = [
        (None, true),
        (Some(Duration::from_millis(300)), true),
        (Some(Duration::from_secs(2)), false),
    ];
    for (wedge, flow_control) in cases {
        let scratch = ScratchDir::new(out, "demotion");
        let mut session = if flow_control {
            Session::open(durable, &tape.cell, false, &scratch.0).unwrap()
        } else {
            let persist = PersistConfig {
                checkpoint_every_slots: u64::MAX,
                ..PersistConfig::new(&scratch.0)
            };
            let (mut session, _) = PersistentSession::open(
                persist,
                scope_config(durable, false),
                assumed_pci(durable, &tape.cell),
            )
            .unwrap();
            session.scope_mut().force_rung(Some(LoadRung::Full));
            Session::Durable(Box::new(session))
        };
        let Session::Durable(d) = &mut session else {
            panic!("durable workload opens a durable session");
        };
        if let Some(dur) = wedge {
            d.inject_writer_wedge(dur);
        }
        let mut waited_ns = 0;
        if flow_control {
            waited_ns = replay(&mut session, &tape.captures).journal_wait_ns;
        } else {
            for cap in &tape.captures {
                session.process(cap);
            }
        }
        let Session::Durable(d) = session else {
            unreachable!();
        };
        let outcome = check_durable(&tape, d, &reference);
        assert_eq!(outcome.output, Vec::new(), "wedge {wedge:?}");
        match (wedge, flow_control) {
            (Some(dur), true) => {
                assert!(outcome.clean(), "the replay waits the wedge out");
                assert!(
                    waited_ns as u128 >= dur.as_nanos() / 2,
                    "waited {waited_ns} ns"
                );
            }
            (Some(_), false) => {
                assert!(outcome.demoted.is_some(), "the wedge outlasts the queue");
                // The demotion is all that is wrong: the session still
                // shut down and recovered at the tape's last slot.
                assert_eq!(outcome.storage.len(), 1, "{:?}", outcome.storage);
            }
            (None, _) => assert!(outcome.clean(), "{:?}", outcome.storage),
        }
    }
}

#[test]
fn a_disk_that_fails_is_a_storage_finding_and_leaves_the_output_checks_alone() {
    let durable = Workload::by_name("msg-durable")
        .expect("msg-durable is a workload")
        .prefix(2000);
    let plain = Workload {
        durable: false,
        ..durable
    };
    let tape = Tape::build(durable, 1);
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"));

    let mut session = Session::open(plain, &tape.cell, false, out).unwrap();
    replay(&mut session, &tape.captures);
    let reference = session.scope().records().to_vec();

    // Every rename fails, so no checkpoint lands: not the cadence ones, not
    // the final one `finalize` writes.
    let scratch = ScratchDir::new(out, "diskfault");
    let faulty = FaultyBackend::new(StorageFaultSchedule::new(1).with_rename_failures(0..u64::MAX));
    let persist = PersistConfig::new(&scratch.0).with_backend(Arc::new(faulty));
    let (mut session, _) = PersistentSession::open(
        persist,
        scope_config(durable, false),
        assumed_pci(durable, &tape.cell),
    )
    .unwrap();
    session.scope_mut().force_rung(Some(LoadRung::Full));
    let mut session = Session::Durable(Box::new(session));
    replay(&mut session, &tape.captures);
    let Session::Durable(d) = session else {
        unreachable!();
    };
    let outcome = check_durable(&tape, d, &reference);
    assert_eq!(outcome.output, Vec::new());
    assert!(!outcome.clean());
    assert!(
        outcome
            .storage
            .iter()
            .any(|s| s.starts_with("finalize failed")),
        "{:?}",
        outcome.storage
    );
}

#[test]
fn reps_on_a_failing_disk_are_replaced_and_a_disk_that_never_works_fails_the_run() {
    let durable = Workload::by_name("msg-durable")
        .expect("msg-durable is a workload")
        .prefix(2000);
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let host = HostFacts::gather(out);
    let real = || Arc::new(RealBackend) as Arc<dyn StorageBackend>;
    let failing = || {
        let renames_fail = StorageFaultSchedule::new(1).with_rename_failures(0..u64::MAX);
        Arc::new(FaultyBackend::new(renames_fail)) as Arc<dyn StorageBackend>
    };

    // The first and the third rep started run on a failing disk.
    let record = run_bench_on(durable, 1, 0.5, out, &host, |n| {
        if n == 0 || n == 2 {
            failing()
        } else {
            real()
        }
    })
    .expect("clean reps are left");
    assert_eq!(record.failures, Vec::new());
    assert!(record.reps >= MIN_REPS);
    let replaced = record
        .info
        .iter()
        .find(|(name, _)| *name == "durable_reps_replaced")
        .expect("listed in the record");
    assert_eq!(replaced.1, 2.0);

    // Every rep on a failing disk: the durable path was never measured.
    let failure = run_bench_on(durable, 1, 0.5, out, &host, |_| failing())
        .err()
        .expect("no clean rep");
    assert_eq!(failure.class, Class::Storage);
    assert_eq!(failure.class.exit_code(), 13);
}
