//! NR-Scope runtime configuration.

use crate::clock::ClockRecoveryConfig;
use serde::{Deserialize, Serialize};

/// At what fidelity the sniffer consumes the cell's emissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fidelity {
    /// Typed per-slot messages with a calibrated corruption model —
    /// fast enough for 10-minute × 64-UE runs (Figs 9–11, 14–16).
    Message,
    /// Full IQ: OFDM demodulation, channel estimation, polar decoding —
    /// used where misses must emerge physically (Figs 7, 8, 13).
    Iq,
}

/// Sniffer configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ScopeConfig {
    /// Serialisation schema version ([`crate::SCHEMA_VERSION`]); configs
    /// from a future schema are rejected by [`ScopeConfig::from_json`].
    pub schema_version: u32,
    /// Observation fidelity.
    pub fidelity: Fidelity,
    /// Drop a UE from the tracked list after this many slots without any
    /// DCI (idle-release shadowing; cells release after inactivity).
    pub ue_expiry_slots: u64,
    /// Consecutive unhealthy slots (no DCI decoded while UEs are expected,
    /// or slots dropped outright) before sync is considered degraded.
    pub degraded_after_slots: u64,
    /// Consecutive unhealthy slots before sync is declared lost and the
    /// cell identity is discarded for re-acquisition.
    pub lost_after_slots: u64,
    /// Whether the pipeline metrics registry records (counters, gauges,
    /// per-stage latency histograms). Near-zero cost either way; disabling
    /// also skips the per-stage clock reads.
    pub metrics_enabled: bool,
    /// Stage-2 RNTI admission control (untrusted-air hardening).
    pub admission: AdmissionConfig,
    /// Timing-recovery loop knobs (`clock.*`). The loop itself activates
    /// lazily, on the first clock observable from the front end — a
    /// session that never receives one behaves exactly as before.
    pub clock: ClockRecoveryConfig,
    /// Restart-storm circuit breaker knobs (`supervise.*`).
    pub supervise: SuperviseConfig,
}

/// How the restart-storm circuit breaker meters restarts. They size each
/// fleet shard's breaker (a shard reads them from its own
/// `ShardSpec::scope`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuperviseConfig {
    /// Token-bucket restart budget: restarts the breaker grants before it
    /// opens. Tokens refill at `restart_budget` per
    /// `restart_budget_window_slots`.
    pub restart_budget: u32,
    /// Slot window over which the full restart budget refills.
    pub restart_budget_window_slots: u64,
    /// Slots an open breaker parks the unit in lame-duck mode before
    /// granting a single half-open probe restart.
    pub breaker_halfopen_after_slots: u64,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            restart_budget: 6,
            restart_budget_window_slots: 20_000, // 10 s at µ=1
            breaker_halfopen_after_slots: 4_000, // 2 s at µ=1
        }
    }
}

/// Stage-2 admission-control knobs: what a recovery-minted (never
/// RAR-shadowed) C-RNTI must do before it is tracked. RAR + MSG 4
/// discovery is unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Corroborating decodes required before admission.
    pub k: usize,
    /// Sliding window (slots) in which the `k` corroborating decodes must
    /// land; a probation candidate whose window lapses is quarantined as
    /// a ghost.
    pub window_slots: u64,
    /// Quarantine-ledger size bound; the oldest entry is evicted
    /// (counted) when a newly failed candidate would exceed it.
    pub quarantine_max: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            k: 3,
            window_slots: 200,
            quarantine_max: 256,
        }
    }
}

/// Storage-fault policy: how the durability ladder responds when the
/// disk under a session starts failing. A transient error is retried off
/// the hot path; a persistent one (or `ENOSPC` that pruning cannot cure)
/// demotes the session to `NonDurable` — the pipeline keeps decoding, the
/// loss window becomes unbounded and is reported honestly — and a
/// background probe re-promotes once the disk recovers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoragePolicy {
    /// Slots between disk re-probe attempts while `NonDurable` (a small
    /// test write + fsync to a probe file). Doubles after each failed
    /// probe (a flap backoff) and resets once the
    /// session has climbed back to `Durable`.
    pub reprobe_interval_slots: u64,
}

impl Default for StoragePolicy {
    fn default() -> Self {
        StoragePolicy {
            reprobe_interval_slots: 2048, // ~1 s at µ=1
        }
    }
}

/// Fleet-level knobs: how N per-cell shard pipelines share one worker
/// pool while staying isolated failure domains (bulkheads). A shard's
/// restart budget is its own [`SuperviseConfig`], not a fleet knob.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Worker threads shared across all shards. 0 = one per available
    /// core, capped at the shard count (more workers than shards would
    /// only contend, since a shard admits one worker at a time).
    pub workers: usize,
    /// Per-shard bounded queue depth. A shard whose backlog is over 7/8
    /// of it decodes broadcast-only until the backlog is under 7/16
    /// ([`crate::governor::rung_for_backlog`]); only when its queue is
    /// full even so is its *own* oldest slot shed — backpressure never
    /// crosses a bulkhead.
    pub shard_queue_depth: usize,
    /// A shard whose slot has been in flight longer than this is declared
    /// wedged: its engine is fenced off and warm-restarted. 0 disables
    /// the watchdog.
    pub watchdog_ms: u64,
    /// Cross-cell continuity window, in slots: a C-RNTI last active on
    /// cell A within this many slots of a discovery on cell B is matched
    /// as one user handed over, not two.
    pub continuity_window_slots: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 0,
            shard_queue_depth: 64,
            watchdog_ms: 1_000,
            continuity_window_slots: 2_000, // 1 s at µ=1
        }
    }
}

impl ScopeConfig {
    /// Serialise to JSON (an operator's config file).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("ScopeConfig is always serialisable")
    }

    /// Parse a config written by [`ScopeConfig::to_json`], rejecting
    /// configs stamped with a future schema version.
    pub fn from_json(s: &str) -> Result<ScopeConfig, serde_json::Error> {
        let cfg: ScopeConfig = serde_json::from_str(s)?;
        if cfg.schema_version > crate::SCHEMA_VERSION {
            return Err(serde_json::Error::from(serde::DeError(format!(
                "scope config schema v{} is newer than supported v{}",
                cfg.schema_version,
                crate::SCHEMA_VERSION
            ))));
        }
        Ok(cfg)
    }
}

impl Default for ScopeConfig {
    fn default() -> Self {
        ScopeConfig {
            schema_version: crate::SCHEMA_VERSION,
            fidelity: Fidelity::Message,
            ue_expiry_slots: 20_000, // 10 s at µ=1
            degraded_after_slots: 120,
            lost_after_slots: 400,
            metrics_enabled: true,
            admission: AdmissionConfig::default(),
            clock: ClockRecoveryConfig::default(),
            supervise: SuperviseConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = ScopeConfig::default();
        assert_eq!(c.fidelity, Fidelity::Message);
        assert!(
            c.metrics_enabled,
            "the pipeline is measured unless asked not to"
        );
        assert!(
            c.degraded_after_slots < c.lost_after_slots,
            "sync degrades before it is declared lost"
        );
        assert!(c.admission.k >= 2, "one chance CRC pass must not admit");
        assert!(c.admission.window_slots > 0);
        assert!(c.admission.quarantine_max > 0);
    }
}
