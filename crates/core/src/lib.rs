//! # nrscope — the NR-Scope 5G Standalone telemetry tool
//!
//! The paper's primary contribution: a passive sniffer that, given the
//! downlink of a 5G SA cell (either IQ samples from the virtual USRP or
//! message-level slot captures), performs
//!
//! 1. **Cell search and common parameter acquisition** (§3.1.1): SSB
//!    detection, MIB decode, SIB1 acquisition — no operator cooperation.
//! 2. **UE association tracking** (§3.1.2): watching the RACH — RA-RNTI
//!    DCIs, RAR TC-RNTI extraction, MSG 4 CRC verification, TC→C-RNTI
//!    promotion — plus the CRC-XOR RNTI recovery trick as fallback.
//! 3. **Per-TTI telemetry** (§3.2): blind PDCCH decoding for every known
//!    UE, DCI→grant translation, Appendix-A TBS computation, HARQ/NDI
//!    retransmission detection, sliding-window throughput, and fair-share
//!    spare-capacity estimation.
//!
//! The [`worker`] module implements the Fig 4 processing pipeline
//! (scheduler + worker pool + result queue) with real threads.

pub mod binfmt;
pub mod chaos;
pub mod clock;
pub mod config;
pub mod decoder;
pub mod fleet;
pub mod governor;
pub mod log;
pub mod metrics;
pub mod observe;
pub mod persist;
pub mod scope;
pub mod spare;
pub mod supervise;
pub mod telemetry;
pub mod throughput;
pub mod tracker;
pub mod worker;

/// Version stamped into every serialised artefact (telemetry records,
/// metrics snapshots, scope configs, checkpoints, journal entries).
/// Readers reject artefacts stamped with a *newer* version — their field
/// semantics are unknowable — and accept older ones, relying on serde's
/// missing-field and shape errors to catch true incompatibilities: such
/// an artefact is refused whole (a checkpoint from before the three-rung
/// ladder has four `slots_at_rung` cells, so that session cold-starts).
pub const SCHEMA_VERSION: u32 = 1;

pub use chaos::{
    ChaosArms, ChaosChildPlan, ChaosObs, ChaosSchedule, HangPoint, HangSchedule, HangTarget,
    Monitor, MonitorStatus, OverloadWindow, StorageWindow, Violation, CHAOS_PLAN_FILE,
};
pub use clock::{
    ClockEvents, ClockLock, ClockObservable, ClockRecovery, ClockRecoveryConfig, ClockRecoveryState,
};
pub use config::{AdmissionConfig, Fidelity, FleetConfig, ScopeConfig, StoragePolicy};
pub use fleet::{
    CellRollup, ContinuityMatch, FaultPlan, FeedOutcome, Fleet, FleetSnapshot, ShardHealth,
    ShardSpec, ShardStatus,
};
pub use governor::{GovernorConfig, LoadModel, LoadRung, OverloadGovernor};
pub use metrics::{Counter, Gauge, Metrics, MetricsSnapshot, Stage, StageSnapshot};
pub use observe::{Capture, DropReason, ImpairmentSchedule, ObservedDci, ObservedSlot, Observer};
pub use persist::{
    DurabilityRung, FaultKind, FaultyBackend, JournalWriter, PersistConfig, PersistentSession,
    RealBackend, RecoveryReport, SessionStore, StorageBackend, StorageFaultSchedule, StorageFile,
};
pub use scope::{NrScope, ScopeStats, SyncState, UeEvent};
pub use telemetry::TelemetryRecord;
pub use worker::{
    BackpressurePolicy, InjectedFault, JobPriority, PoolConfig, PoolStats, WorkerPool,
};

/// Rate-matched PBCH bit budget. Must equal the renderer's
/// (`gnb_sim::iq::PBCH_E_BITS`); asserted in integration tests.
pub fn pbch_e_bits() -> usize {
    gnb_sim::iq::PBCH_E_BITS
}
