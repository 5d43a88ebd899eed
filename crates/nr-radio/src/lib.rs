//! # nr-radio — the virtual RF front end
//!
//! Substitute for the paper's USRP (X310 / CBX-120 / TwinRX): models the
//! receive path between the gNB's transmit waveform and NR-Scope's signal
//! processing — path loss from sniffer placement, additive noise, automatic
//! gain control, and the fractional resampler the paper needs for TwinRX
//! daughterboards (§4 footnote 5).

pub mod agc;
pub mod clock;
pub mod impairment;
pub mod noise;
pub mod resampler;
pub mod usrp;

pub use agc::Agc;
pub use clock::{ClockModel, ClockSlotState};
pub use impairment::{Burst, ImpairmentSchedule, SlotImpairment};
pub use resampler::Resampler;
pub use usrp::{RadioStats, RxSlot, VirtualUsrp};
