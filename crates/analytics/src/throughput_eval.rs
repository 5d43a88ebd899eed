//! Throughput-estimation accuracy (paper §5.2.2, Figs 9 and 16a–c):
//! windowed bit-rate comparison between NR-Scope's TBS-based estimate and
//! the UE-side ground truth (tcpdump equivalent / gNB log).

use nr_phy::types::Rnti;
use nrscope::NrScope;
use ue_sim::SimUe;

/// The byte-parity band every gate and test accepts for an
/// estimate / truth (or faulted / clean) ratio. The floor leaves room for
/// missed DCIs and dropped slots; the ceiling is what catches a byte
/// counted twice (a replayed journal, a double-counted retransmission).
pub const PARITY_BAND: [f64; 2] = [0.88, 1.02];

/// Is `ratio` inside [`PARITY_BAND`]? NaN is not.
pub fn parity_ok(ratio: f64) -> bool {
    (PARITY_BAND[0]..=PARITY_BAND[1]).contains(&ratio)
}

/// Per-window throughput error samples for one UE.
#[derive(Debug, Clone)]
pub struct ThroughputErrors {
    /// The UE.
    pub rnti: Rnti,
    /// |estimate − truth| in kbit/s, one sample per window.
    pub errors_kbps: Vec<f64>,
    /// Ground-truth mean rate over the run, Mbit/s (for relative errors).
    pub truth_mbps: f64,
}

impl ThroughputErrors {
    /// Error at a percentile, kbit/s.
    pub fn percentile_kbps(&self, p: f64) -> f64 {
        crate::stats::percentile(&self.errors_kbps, p)
    }

    /// Median error relative to the mean rate, in percent.
    pub fn median_relative_pct(&self) -> f64 {
        if self.truth_mbps <= 0.0 {
            return 0.0;
        }
        100.0 * self.percentile_kbps(50.0) / (self.truth_mbps * 1000.0)
    }
}

/// Compare a scope session against one UE's delivery log over windows of
/// `window_slots` (1 s in the paper), within `slots`.
///
/// The estimate counts new-data TBS bits; the truth counts delivered
/// payload bytes — the same pairing the paper's tcpdump methodology uses.
pub fn throughput_errors(
    scope: &NrScope,
    ue: &SimUe,
    rnti: Rnti,
    slots: std::ops::Range<u64>,
    window_slots: u64,
    slot_s: f64,
) -> ThroughputErrors {
    let mut errors = Vec::new();
    let mut truth_bits_total = 0.0;
    let mut n_windows = 0.0;
    let mut w = slots.start;
    while w + window_slots <= slots.end {
        let win = w..w + window_slots;
        let est_bits = scope.estimated_bits(rnti, win.clone()) as f64;
        let truth_bits = ue.delivered_bytes_in(win) as f64 * 8.0;
        let window_s = window_slots as f64 * slot_s;
        let err_kbps = (est_bits - truth_bits).abs() / window_s / 1000.0;
        errors.push(err_kbps);
        truth_bits_total += truth_bits;
        n_windows += 1.0;
        w += window_slots;
    }
    let truth_mbps = if n_windows > 0.0 {
        truth_bits_total / (n_windows * window_slots as f64 * slot_s) / 1e6
    } else {
        0.0
    };
    ThroughputErrors {
        rnti,
        errors_kbps: errors,
        truth_mbps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnb_sim::{CellConfig, Gnb};
    use nr_mac::RoundRobin;
    use nr_phy::channel::ChannelProfile;
    use nrscope::observe::Observer;
    use nrscope::ScopeConfig;
    use ue_sim::traffic::{TrafficKind, TrafficSource};
    use ue_sim::MobilityScenario;

    #[test]
    fn backlogged_flow_has_sub_percent_median_error() {
        let cell = CellConfig::mosolab_n48();
        let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), 31);
        gnb.ue_arrives(SimUe::new(
            1,
            ChannelProfile::Awgn,
            MobilityScenario::Static,
            TrafficSource::new(
                TrafficKind::FileDownload {
                    total_bytes: usize::MAX / 2,
                },
                1,
            ),
            0.0,
            60.0,
            1,
        ));
        let mut obs = Observer::new(&cell, 35.0, false, 3);
        let mut scope = NrScope::new(ScopeConfig::default(), Some(cell.pci));
        let slots = 10_000u64;
        for s in 0..slots {
            let out = gnb.step();
            scope.process(&obs.observe(&out, s as f64 * 0.0005));
        }
        let rnti = gnb.connected_rntis()[0];
        let ue = gnb.ue(rnti).unwrap();
        let e = throughput_errors(&scope, ue, rnti, 2000..slots, 2000, cell.slot_s());
        assert!(
            e.truth_mbps > 5.0,
            "flow runs fast: {} Mbit/s",
            e.truth_mbps
        );
        assert!(
            e.median_relative_pct() < 1.0,
            "median rel err {}%",
            e.median_relative_pct()
        );
    }

    #[test]
    fn empty_window_range_is_empty() {
        let scope = NrScope::new(ScopeConfig::default(), None);
        let ue = SimUe::new(
            1,
            ChannelProfile::Awgn,
            MobilityScenario::Static,
            TrafficSource::new(TrafficKind::FileDownload { total_bytes: 1 }, 1),
            0.0,
            1.0,
            1,
        );
        let e = throughput_errors(&scope, &ue, Rnti(1), 0..10, 100, 0.0005);
        assert!(e.errors_kbps.is_empty());
        assert_eq!(e.truth_mbps, 0.0);
    }
}
