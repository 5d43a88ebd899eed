//! # nr-phy — 5G NR physical-layer substrate
//!
//! A from-scratch implementation of the pieces of the 3GPP New Radio
//! physical layer that the NR-Scope telemetry tool (CoNEXT '24) exercises:
//!
//! * numerology and frame structure (15/30/60 kHz SCS, TDD patterns),
//! * resource grids (PRB × OFDM symbol), REG/CCE bookkeeping,
//! * CRC family (CRC24A/B/C, CRC16, CRC11, CRC6) with DCI RNTI scrambling,
//! * Gold / pseudo-random sequences, PSS/SSS synchronisation signals,
//! * polar coding (encoder, β-expansion construction, rate matching,
//!   successive-cancellation decoding over a compiled node plan),
//! * digital modulation BPSK…256QAM with max-log-MAP soft demodulation,
//! * an in-tree radix-2 FFT — one kernel over split `re`/`im` planes that
//!   the compiler vectorises, bit-exact against the textbook loop — and a
//!   CP-OFDM modulator/demodulator,
//! * PDCCH: CORESETs, search spaces, candidate hashing, the full DCI
//!   encode chain and blind decoding,
//! * MCS / CQI / TBS tables and the exact 38.214 §5.1.3.2 transport block
//!   size computation reproduced in the paper's Appendix A,
//! * statistical channel models (Jakes-fading TDL profiles standing in
//!   for the 3GPP Pedestrian / Vehicle / Urban channels, and flat AWGN).
//!
//! Everything here is deterministic given a seed and runs on a laptop; see
//! `DESIGN.md` at the workspace root for the substitution rationale.
//!
//! This crate sits on the untrusted side of the air interface, so its
//! production code is panic-audited: `unwrap`/`expect` are denied outside
//! tests and every decode failure surfaces as a typed result.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bits;
pub mod channel;
pub mod complex;
pub mod crc;
pub mod dci;
pub mod dmrs;
pub mod fft;
pub mod frame;
pub mod grid;
pub mod mcs;
pub mod modulation;
pub mod numerology;
pub mod ofdm;
#[doc(hidden)]
pub mod oracle;
pub mod pdcch;
pub mod polar;
pub mod sequence;
pub mod sync;
pub mod tbs;
pub mod types;

pub use complex::Cf32;
pub use frame::{SlotClock, SlotDirection, TddPattern};
pub use numerology::Numerology;
pub use types::{Rnti, RntiType};
