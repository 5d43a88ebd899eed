//! Shared code of the bench crate's two families of binaries.
//!
//! * **Figure bins** (`fig07`–`fig16`): each builds one or more telemetry
//!   sessions with [`SessionSpec`] / [`run_population`], then prints the
//!   series and scalars the corresponding figure in the paper plots.
//!   Durations are scaled down from the paper's 10-minute captures by
//!   default; set `NRSCOPE_SECONDS` to lengthen runs (the statistics
//!   converge quickly because the simulation is deterministic per seed).
//! * **Gate bins** (`chaos`, `clockdrift`, `durafault`, `fleet`,
//!   `fuzz_decode`): seeded fault soaks on the [`gate`] harness that
//!   write a `BENCH_<name>.json` and exit non-zero on a breach.
//!
//! Neither family is where speed is measured: every performance number
//! comes from the perf ledger in `benchmark/`.

pub mod gate;

use gnb_sim::{CellConfig, Gnb, Population};
use nr_mac::{ProportionalFair, RoundRobin, Scheduler};
use nr_phy::channel::ChannelProfile;
use nr_phy::types::Rnti;
use nrscope::observe::Observer;
use nrscope::{Fidelity, NrScope, ScopeConfig};
use std::path::PathBuf;
use ue_sim::arrival::ArrivalConfig;
use ue_sim::traffic::{TrafficKind, TrafficSource};
use ue_sim::{MobilityScenario, SimUe};

/// The `NRSCOPE_SECONDS` environment variable, when set to a number.
pub fn seconds_override() -> Option<f64> {
    std::env::var("NRSCOPE_SECONDS").ok()?.parse().ok()
}

/// Simulated capture duration in seconds (paper: 600 s), overridable via
/// the `NRSCOPE_SECONDS` environment variable.
pub fn capture_seconds(default_s: f64) -> f64 {
    seconds_override().unwrap_or(default_s)
}

/// A fresh, empty scratch directory for one phase of one bin (whatever an
/// earlier run left there is removed first).
pub fn scratch_dir(bin: &str, tag: &str) -> PathBuf {
    let name = format!("nrscope-bench-{bin}-{}-{tag}", std::process::id());
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Scheduler choice by name.
pub fn scheduler(name: &str) -> Box<dyn Scheduler + Send> {
    match name {
        "pf" => Box::new(ProportionalFair::new()),
        _ => Box::new(RoundRobin::new()),
    }
}

/// A round-robin cell with `n_ues` static AWGN UEs (ids from 1), each a
/// 3 Mb/s CBR source active for `active_s` seconds; everything seeded
/// from `seed`.
pub fn cbr_gnb(cell: &CellConfig, n_ues: usize, active_s: f64, seed: u64) -> Gnb {
    let mut gnb = Gnb::new(cell.clone(), scheduler("rr"), seed);
    for i in 0..n_ues as u64 {
        gnb.ue_arrives(SimUe::new(
            i + 1,
            ChannelProfile::Awgn,
            MobilityScenario::Static,
            TrafficSource::new(
                TrafficKind::Cbr {
                    rate_bps: 3e6,
                    packet_bytes: 1200,
                },
                seed * 1000 + i,
            ),
            0.0,
            active_s,
            seed * 7777 + i,
        ));
    }
    gnb
}

/// A complete telemetry session: cell + sniffer run in lock-step.
pub struct Session {
    /// The cell (with its ground truth).
    pub gnb: Gnb,
    /// The sniffer.
    pub scope: NrScope,
    /// Slots simulated.
    pub slots: u64,
}

/// Configuration of one session run.
pub struct SessionSpec {
    /// Cell preset.
    pub cell: CellConfig,
    /// Number of long-lived UEs attached at start.
    pub n_ues: usize,
    /// Channel profile for those UEs.
    pub profile: ChannelProfile,
    /// Mobility scenario for those UEs.
    pub scenario: MobilityScenario,
    /// Traffic model for those UEs.
    pub traffic: TrafficKind,
    /// Sniffer receive SNR in dB.
    pub sniffer_snr_db: f64,
    /// Capture length in seconds.
    pub seconds: f64,
    /// Observation fidelity.
    pub fidelity: Fidelity,
    /// RNG seed (repetition index).
    pub seed: u64,
}

impl SessionSpec {
    /// A sensible default spec on the given cell.
    pub fn new(cell: CellConfig) -> SessionSpec {
        SessionSpec {
            cell,
            n_ues: 1,
            profile: ChannelProfile::Awgn,
            scenario: MobilityScenario::Static,
            traffic: TrafficKind::FileDownload {
                total_bytes: usize::MAX / 2,
            },
            sniffer_snr_db: 30.0,
            seconds: 30.0,
            fidelity: Fidelity::Message,
            seed: 1,
        }
    }

    /// Run the session to completion.
    pub fn run(self) -> Session {
        let slot_s = self.cell.slot_s();
        let slots = (self.seconds / slot_s).round() as u64;
        let mut gnb = Gnb::new(self.cell.clone(), scheduler("rr"), self.seed);
        for i in 0..self.n_ues {
            // Spread placements a little, deterministic per seed.
            let offset = -(i as f64 % 5.0);
            gnb.ue_arrives(SimUe::new(
                i as u64 + 1,
                self.profile,
                self.scenario,
                TrafficSource::new(self.traffic, self.seed * 1000 + i as u64),
                offset,
                self.seconds,
                self.seed * 7777 + i as u64,
            ));
        }
        let mut observer = Observer::new(
            &self.cell,
            self.sniffer_snr_db,
            self.fidelity == Fidelity::Iq,
            self.seed ^ 0xC0FFEE,
        );
        let mut scope = NrScope::new(
            ScopeConfig {
                fidelity: self.fidelity,
                ..ScopeConfig::default()
            },
            Some(self.cell.pci),
        );
        for s in 0..slots {
            let out = gnb.step();
            let observed = observer.observe(&out, s as f64 * slot_s);
            scope.process(&observed);
        }
        Session { gnb, scope, slots }
    }
}

/// A session driven by a come-and-go population instead of fixed UEs.
pub struct PopulationSession {
    /// The cell.
    pub gnb: Gnb,
    /// The sniffer.
    pub scope: NrScope,
    /// The population driver (holds departed UEs and session stats).
    pub population: Population,
    /// Slots simulated.
    pub slots: u64,
}

/// Run a come-and-go population session (Figs 10/11 machinery).
pub fn run_population(
    cell: CellConfig,
    arrivals: ArrivalConfig,
    seconds: f64,
    seed: u64,
) -> PopulationSession {
    let slot_s = cell.slot_s();
    let slots = (seconds / slot_s).round() as u64;
    let mut gnb = Gnb::new(cell.clone(), scheduler("rr"), seed);
    let mut population = Population::new(arrivals, ChannelProfile::Awgn, seconds, seed);
    let mut observer = Observer::new(&cell, 30.0, false, seed ^ 0xFACE);
    let mut scope = NrScope::new(ScopeConfig::default(), Some(cell.pci));
    for s in 0..slots {
        population.step(&mut gnb, s as f64 * slot_s);
        let out = gnb.step();
        let observed = observer.observe(&out, s as f64 * slot_s);
        scope.process(&observed);
    }
    PopulationSession {
        gnb,
        scope,
        population,
        slots,
    }
}

/// First connected RNTI of a session (convenience for single-UE figures).
pub fn first_rnti(session: &Session) -> Option<Rnti> {
    session.gnb.connected_rntis().first().copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_session_runs_and_tracks() {
        let mut spec = SessionSpec::new(CellConfig::srsran_n41());
        spec.seconds = 2.0;
        let session = spec.run();
        assert_eq!(session.slots, 4000);
        assert!(!session.scope.tracked_rntis().is_empty());
    }

    #[test]
    fn population_session_runs() {
        let cfg = ArrivalConfig {
            arrivals_per_s: 1.0,
            median_active_s: 3.0,
            sigma: 0.8,
        };
        let p = run_population(CellConfig::tmobile_n25(), cfg, 10.0, 2);
        assert!(p.population.total_sessions() > 3);
        assert!(p.scope.stats.slots > 0);
    }
}
