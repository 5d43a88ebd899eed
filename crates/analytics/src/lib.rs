//! # nrscope-analytics — evaluation machinery for the paper's figures
//!
//! Implements the paper's §5 methodology: matching NR-Scope's telemetry
//! records against the gNB ground-truth log "based on the timestamp and
//! the TTI indexes", and computing the statistics each figure plots —
//! DCI miss rates (Fig 7/13), REG-count errors (Fig 8), throughput-
//! estimation errors (Fig 9/16), UE active times (Fig 10), active-UE
//! counts (Fig 11), MCS/retransmission distributions (Fig 15), and packet
//! aggregation (Fig 16d).

pub mod aggregation;
pub mod matching;
pub mod report;
pub mod stats;
pub mod throughput_eval;

pub use matching::{match_dcis, MatchReport};
pub use stats::{ccdf_points, cdf_points, mean, percentile, r_squared};
pub use throughput_eval::{parity_ok, PARITY_BAND};
