//! Statistical radio channel models.
//!
//! The paper's Fig 15 experiment drives 64 emulated UEs through the
//! Amarisoft channel simulator's AWGN / Pedestrian / Vehicle / Urban
//! profiles. These modules reproduce that machinery: Jakes-style
//! time-correlated Rayleigh fading with 3GPP-flavoured delay profiles, and
//! a composite per-UE channel that produces both an SNR trace (message
//! fidelity) and complex gains (IQ fidelity). The receiver's white noise is
//! `nr_radio::noise`'s.

mod fading;
mod profile;

pub use fading::JakesFader;
pub use profile::{ChannelProfile, UeChannel};
