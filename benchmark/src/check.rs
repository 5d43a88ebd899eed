//! Output checks against gNB ground truth. A failed check makes the run
//! print `"correct": false` and exit with the code of the check's
//! [`Class`], so a caller that keeps only the exit status can still tell
//! what failed.

use crate::replay::{assumed_pci, scope_config};
use crate::tape::Tape;
use nrscope::{DurabilityRung, NrScope, PersistentSession, SessionStore, TelemetryRecord};
use nrscope_analytics::matching::match_dcis;
use std::fmt;
use std::io;
use std::time::Instant;

/// What a failed check is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// The run could not be carried out: a file or directory error outside
    /// the durable session (those are [`Class::Storage`]).
    Io,
    /// The generated input: not deterministic, a UE never attached or
    /// tracked, no traffic.
    Tape,
    /// Decoded output: against gNB truth, between replays of one tape, and
    /// between the journalled and the in-memory session.
    Output,
    /// The storage side of the durable session: not one replay stayed
    /// durable, shut down and recovered at the tape's last slot.
    Storage,
    /// A per-layer measurement of the traced run.
    Layer,
}

impl Class {
    /// Exit code of a run whose first failed check is of this class
    /// (1 and 2 are left to the shell and to bad arguments).
    pub fn exit_code(self) -> u8 {
        match self {
            Class::Io => 10,
            Class::Tape => 11,
            Class::Output => 12,
            Class::Storage => 13,
            Class::Layer => 14,
        }
    }
}

/// One failed check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    pub class: Class,
    pub what: String,
}

impl Failure {
    pub fn new(class: Class, what: impl Into<String>) -> Failure {
        Failure {
            class,
            what: what.into(),
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:?}, exit {}] {}",
            self.class,
            self.class.exit_code(),
            self.what
        )
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Failure {
        Failure::new(Class::Io, e.to_string())
    }
}

/// Decode accuracy of one finished replay, measured against the truth log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Truth C-RNTI DL+UL DCIs on the tape.
    pub dci_attempted: u64,
    /// Truth DCIs the scope did not report.
    pub dci_missed: u64,
    /// Reported C-RNTI DCIs the gNB never sent.
    pub dci_spurious: u64,
    /// Σ estimated bits over connected RNTIs.
    pub est_bits: u64,
    /// 8 × Σ bytes the connected UEs received (their own delivery logs:
    /// what a tcpdump-based bitrate would show, the truth the repo's
    /// end-to-end tests use).
    pub delivered_bits: u64,
    /// 8 × Σ `TruthLog::acked_bytes`: ACKed first transmissions only, so
    /// bytes that arrived through a HARQ retransmission are missing and
    /// it under-reads by about the first-transmission BLER.
    pub acked_bits: u64,
    pub ues_attached: usize,
    pub ues_tracked: usize,
}

impl Accuracy {
    /// 100 × (missed + spurious) ÷ truth DCIs.
    pub fn dci_miss_pct(&self) -> f64 {
        100.0 * (self.dci_missed + self.dci_spurious) as f64 / self.dci_attempted.max(1) as f64
    }

    /// 100 × |estimate − delivered| ÷ delivered, in bits.
    pub fn byte_err_pct(&self) -> f64 {
        err_pct(self.est_bits, self.delivered_bits)
    }

    /// The same against `TruthLog::acked_bytes`.
    pub fn byte_err_pct_acked(&self) -> f64 {
        err_pct(self.est_bits, self.acked_bits)
    }
}

fn err_pct(estimate: u64, truth: u64) -> f64 {
    100.0 * estimate.abs_diff(truth) as f64 / truth.max(1) as f64
}

pub fn accuracy(tape: &Tape, scope: &NrScope) -> Accuracy {
    let slots = 0..tape.workload.slots;
    let truth = tape.gnb.truth();
    let m = match_dcis(truth, scope.records(), slots.clone(), 0);
    let attempted = (m.dl_truth + m.ul_truth) as u64;
    let matched = (m.dl_matched + m.ul_matched) as u64;
    let connected = tape.gnb.connected_rntis();
    let tracked = scope.tracked_rntis();
    Accuracy {
        dci_attempted: attempted,
        dci_missed: attempted - matched,
        dci_spurious: m.spurious as u64,
        est_bits: connected
            .iter()
            .map(|r| scope.estimated_bits(*r, slots.clone()))
            .sum(),
        delivered_bits: connected
            .iter()
            .filter_map(|r| tape.gnb.ue(*r))
            .map(|ue| 8 * ue.delivered_bytes_in(slots.clone()) as u64)
            .sum(),
        acked_bits: connected
            .iter()
            .map(|r| 8 * truth.acked_bytes(*r, slots.clone()) as u64)
            .sum(),
        ues_attached: connected.len(),
        ues_tracked: connected.iter().filter(|r| tracked.contains(r)).count(),
    }
}

/// Checks every workload must pass; returns one line per failure.
pub fn check_accuracy(tape: &Tape, acc: &Accuracy) -> Vec<Failure> {
    let mut failures = Vec::new();
    if acc.dci_spurious != 0 {
        failures.push(Failure::new(
            Class::Output,
            format!("{} spurious C-RNTI DCIs", acc.dci_spurious),
        ));
    }
    if acc.ues_attached != tape.workload.n_ues {
        failures.push(Failure::new(
            Class::Tape,
            format!(
                "gNB attached {} of {} UEs: the tape is too short for its population",
                acc.ues_attached, tape.workload.n_ues
            ),
        ));
    }
    if acc.ues_tracked != acc.ues_attached {
        failures.push(Failure::new(
            Class::Tape,
            format!(
                "scope tracks {} of {} attached UEs",
                acc.ues_tracked, acc.ues_attached
            ),
        ));
    }
    if acc.dci_attempted == 0 || acc.delivered_bits == 0 {
        failures.push(Failure::new(Class::Tape, "tape carries no C-RNTI traffic"));
    }
    failures
}

/// What a finished durable session showed.
pub struct DurableOutcome {
    /// Decoded output that differs from the in-memory session's. The
    /// decode path is deterministic, so this always fails the run.
    pub output: Vec<Failure>,
    /// What went wrong on the storage side of this replay, one line each;
    /// empty for a clean replay. Storage is the one part of the run the
    /// host takes part in: the journal writer and the checkpoint writer
    /// are threads that call `write`, `fsync` and `rename` on a shared
    /// disk. A replay listed here did not measure the durable path (or
    /// cannot show that it did), so the caller replays the tape again and
    /// does not time this one; a fault that is the program's own shows on
    /// every replay and fails the run as [`Class::Storage`].
    pub storage: Vec<String>,
    /// Why the session left the `Durable` rung during the replay, if it
    /// did (also listed in `storage`): the journal writer thread went
    /// unscheduled (or blocked in `write`) until the bounded queue stayed
    /// full past the session's 5 ms submit grace, or its writes failed,
    /// and the session, by design, stopped journalling rather than stall
    /// the slot loop.
    pub demoted: Option<String>,
    /// `PersistentSession::checkpoint_now` wall time (ms), taken once
    /// after the last slot and before `finalize`.
    pub checkpoint_ms: f64,
    /// `SessionStore::recover` wall time on the finished directory (ms).
    pub recover_ms: f64,
}

impl DurableOutcome {
    /// The replay journalled the whole tape, shut down and recovered.
    pub fn clean(&self) -> bool {
        self.storage.is_empty()
    }
}

/// Durable differential: the journalled session must have produced the
/// in-memory session's records exactly (`output`), and it must have stayed
/// on the `Durable` rung, shut down cleanly and left a directory that
/// recovers to the tape's last slot (`storage`).
pub fn check_durable(
    tape: &Tape,
    mut session: Box<PersistentSession>,
    reference: &[TelemetryRecord],
) -> DurableOutcome {
    let mut output = Vec::new();
    let mut storage = Vec::new();
    let slots = tape.workload.slots;
    if session.scope().records() != reference {
        output.push(Failure::new(
            Class::Output,
            format!(
                "durable session's {} records differ from the in-memory session's {}",
                session.scope().records().len(),
                reference.len()
            ),
        ));
    }
    // The demotion note is kept even with the metrics registry disabled,
    // and stays after a probe has re-promoted the session mid-tape.
    let demoted = session.scope().metrics().note_detail("storage_demotion");
    if let Some(why) = &demoted {
        storage.push(format!("session left the Durable rung: {why}"));
    }
    let rung = session.durability_rung();
    if rung != DurabilityRung::Durable && demoted.is_none() {
        storage.push(format!("durability rung ended at {}", rung.name()));
    }
    let tracked = session.scope().tracked_rntis();
    let dir = session.store().dir().to_path_buf();
    let t0 = Instant::now();
    let checkpoint = session.checkpoint_now();
    let checkpoint_ms = t0.elapsed().as_secs_f64() * 1e3;
    match checkpoint.and_then(|_| session.finalize()) {
        Ok(slot) if slot == slots => {}
        Ok(slot) => storage.push(format!(
            "final checkpoint at slot {slot}, tape ends at {slots}"
        )),
        Err(e) => storage.push(format!("finalize failed: {e}")),
    }
    let mut recover_ms = 0.0;
    match SessionStore::new(&dir) {
        Err(e) => storage.push(format!("cannot reopen {}: {e}", dir.display())),
        Ok(store) => {
            let t0 = Instant::now();
            let (scope, report) = store.recover(
                scope_config(tape.workload, false),
                assumed_pci(tape.workload, &tape.cell),
            );
            recover_ms = t0.elapsed().as_secs_f64() * 1e3;
            if !report.resumed || report.resumed_slot != slots || scope.slot_watermark() != slots {
                storage.push(format!(
                    "recover resumed={} at slot {} (watermark {}), tape ends at {slots}",
                    report.resumed,
                    report.resumed_slot,
                    scope.slot_watermark()
                ));
            }
            if scope.tracked_rntis() != tracked {
                storage.push("recovered session tracks a different UE set".to_string());
            }
        }
    }
    DurableOutcome {
        output,
        storage,
        demoted,
        checkpoint_ms,
        recover_ms,
    }
}
