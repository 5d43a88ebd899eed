//! Frame structure: system frame / slot indexing and TDD UL-DL patterns.
//!
//! The paper's TDD cells (srsRAN n41, Mosolab n48, Amarisoft n78) alternate
//! downlink and uplink slots following a `tdd-UL-DL-ConfigCommon` pattern
//! broadcast in SIB1; NR-Scope must know the pattern to attribute PDCCH
//! monitoring occasions correctly.

use crate::numerology::{Numerology, SFN_PERIOD};
use serde::{Deserialize, Serialize};

/// Transmission direction of one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SlotDirection {
    /// All 14 symbols downlink.
    Downlink,
    /// All 14 symbols uplink.
    Uplink,
    /// Special/flexible slot: leading DL symbols, gap, trailing UL symbols.
    Special,
}

/// A `tdd-UL-DL-ConfigCommon`-style repeating pattern.
///
/// The canonical mid-band configuration (and the srsRAN default the paper's
/// open-source cell uses) is `DDDDDDDSUU`: 7 downlink slots, one special
/// slot, two uplink slots over a 5 ms period at 30 kHz SCS.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TddPattern {
    /// Period of the pattern in slots.
    pub period_slots: usize,
    /// Number of leading full-downlink slots.
    pub dl_slots: usize,
    /// Number of trailing full-uplink slots.
    pub ul_slots: usize,
    /// Downlink symbols at the head of the special slot.
    pub special_dl_symbols: usize,
    /// Uplink symbols at the tail of the special slot.
    pub special_ul_symbols: usize,
}

impl TddPattern {
    /// The common `DDDDDDDSUU` pattern (5 ms period at µ=1).
    pub fn dddddddsuu() -> TddPattern {
        TddPattern {
            period_slots: 10,
            dl_slots: 7,
            ul_slots: 2,
            special_dl_symbols: 6,
            special_ul_symbols: 4,
        }
    }

    /// An FDD carrier modelled as all-downlink on the DL centre frequency
    /// (NR-Scope listens to the downlink carrier only; paper §3).
    pub fn fdd() -> TddPattern {
        TddPattern {
            period_slots: 1,
            dl_slots: 1,
            ul_slots: 0,
            special_dl_symbols: 0,
            special_ul_symbols: 0,
        }
    }

    /// Direction of `slot_in_frame` under this pattern.
    pub fn direction(&self, slot_idx: usize) -> SlotDirection {
        let pos = slot_idx % self.period_slots;
        if pos < self.dl_slots {
            SlotDirection::Downlink
        } else if pos >= self.period_slots - self.ul_slots {
            SlotDirection::Uplink
        } else {
            SlotDirection::Special
        }
    }

    /// Whether the PDCCH can be monitored in this slot (any DL symbols).
    pub fn has_downlink(&self, slot_idx: usize) -> bool {
        match self.direction(slot_idx) {
            SlotDirection::Downlink => true,
            SlotDirection::Special => self.special_dl_symbols > 0,
            SlotDirection::Uplink => false,
        }
    }

    /// Fraction of slots carrying downlink symbols, used by capacity math.
    pub fn downlink_fraction(&self) -> f64 {
        let special = self.period_slots - self.dl_slots - self.ul_slots;
        (self.dl_slots as f64
            + special as f64 * self.special_dl_symbols as f64
                / crate::numerology::SYMBOLS_PER_SLOT as f64)
            / self.period_slots as f64
    }
}

/// Advance an SFN by `frames`, wrapping at the mod-1024 air-interface
/// period. The canonical way to derive a future (or far-future) frame
/// number — `sfn + n` overflows the air meaning as soon as it crosses
/// 1024, even though the `u32` arithmetic happily continues.
pub fn sfn_add(sfn: u32, frames: u64) -> u32 {
    debug_assert!(sfn < SFN_PERIOD);
    ((sfn as u64 + frames) % SFN_PERIOD as u64) as u32
}

/// Forward distance in frames from SFN `from` to SFN `to` on the mod-1024
/// circle: how many frames elapse before the counter next reads `to`.
/// Always in `[0, 1024)`.
pub fn sfn_forward(from: u32, to: u32) -> u32 {
    debug_assert!(from < SFN_PERIOD && to < SFN_PERIOD);
    (to + SFN_PERIOD - from) % SFN_PERIOD
}

/// Signed shortest distance in frames from SFN `a` to SFN `b` on the
/// mod-1024 circle, in `(-512, 512]`. The safe way to compare two air
/// frame numbers for "before/after": plain subtraction underflows (or
/// inverts its meaning) at every wrap.
pub fn sfn_delta(a: u32, b: u32) -> i32 {
    let fwd = sfn_forward(a, b);
    if fwd <= SFN_PERIOD / 2 {
        fwd as i32
    } else {
        fwd as i32 - SFN_PERIOD as i32
    }
}

/// A monotonically advancing (SFN, slot) clock.
///
/// Wraps at SFN 1024 exactly like the over-the-air system frame number, but
/// also exposes a non-wrapping absolute TTI counter that the telemetry log
/// uses as its timestamp (the paper matches records on "timestamp and TTI
/// index").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotClock {
    /// Numerology fixing slots-per-frame.
    pub numerology: Numerology,
    /// System frame number, 0..1024.
    pub sfn: u32,
    /// Slot within the frame.
    pub slot: usize,
    /// Absolute slot count since the clock started (never wraps).
    pub absolute_slot: u64,
}

impl SlotClock {
    /// A clock starting at SFN 0, slot 0.
    pub fn new(numerology: Numerology) -> SlotClock {
        SlotClock {
            numerology,
            sfn: 0,
            slot: 0,
            absolute_slot: 0,
        }
    }

    /// Advance one slot.
    pub fn tick(&mut self) {
        self.absolute_slot += 1;
        self.slot += 1;
        if self.slot == self.numerology.slots_per_frame() {
            self.slot = 0;
            self.sfn = (self.sfn + 1) % SFN_PERIOD;
        }
    }

    /// Elapsed time since the clock epoch, in seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.absolute_slot as f64 * self.numerology.slot_duration_s()
    }

    /// Subframe (millisecond within the frame) of the current slot.
    pub fn subframe(&self) -> usize {
        self.slot / self.numerology.slots_per_subframe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dddddddsuu_layout() {
        let p = TddPattern::dddddddsuu();
        let dirs: Vec<SlotDirection> = (0..10).map(|s| p.direction(s)).collect();
        assert_eq!(&dirs[0..7], &[SlotDirection::Downlink; 7]);
        assert_eq!(dirs[7], SlotDirection::Special);
        assert_eq!(&dirs[8..10], &[SlotDirection::Uplink; 2]);
        // Repeats with its period.
        assert_eq!(p.direction(10), SlotDirection::Downlink);
        assert_eq!(p.direction(17), SlotDirection::Special);
    }

    #[test]
    fn fdd_is_always_downlink() {
        let p = TddPattern::fdd();
        for s in 0..37 {
            assert_eq!(p.direction(s), SlotDirection::Downlink);
            assert!(p.has_downlink(s));
        }
        assert_eq!(p.downlink_fraction(), 1.0);
    }

    #[test]
    fn downlink_fraction_counts_special_symbols() {
        let p = TddPattern::dddddddsuu();
        let expect = (7.0 + 6.0 / 14.0) / 10.0;
        assert!((p.downlink_fraction() - expect).abs() < 1e-12);
    }

    #[test]
    fn sfn_helpers_respect_the_wrap() {
        assert_eq!(sfn_add(1020, 10), 6);
        assert_eq!(sfn_add(0, 1024 * 7 + 5), 5);
        assert_eq!(sfn_forward(1020, 6), 10);
        assert_eq!(sfn_forward(6, 1020), 1014);
        assert_eq!(sfn_forward(512, 512), 0);
        // Signed distance: short hops keep their sign across the wrap.
        assert_eq!(sfn_delta(1020, 6), 10);
        assert_eq!(sfn_delta(6, 1020), -10);
        assert_eq!(sfn_delta(0, 512), 512, "antipode resolves forward");
        assert_eq!(sfn_delta(100, 100), 0);
    }

    #[test]
    fn clock_wraps_sfn_at_1024() {
        let mut c = SlotClock::new(Numerology::Mu1);
        let slots = 1024 * 20 + 3;
        for _ in 0..slots {
            c.tick();
        }
        assert_eq!(c.sfn, 0);
        assert_eq!(c.slot, 3);
        assert_eq!(c.absolute_slot, slots as u64);
    }

    #[test]
    fn clock_elapsed_time() {
        let mut c = SlotClock::new(Numerology::Mu1);
        for _ in 0..2000 {
            c.tick();
        }
        // 2000 half-millisecond TTIs = 1 s.
        assert!((c.elapsed_s() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn subframe_tracks_milliseconds() {
        let mut c = SlotClock::new(Numerology::Mu1);
        assert_eq!(c.subframe(), 0);
        c.tick();
        assert_eq!(c.subframe(), 0);
        c.tick();
        assert_eq!(c.subframe(), 1);
    }
}
