//! Bit-level writer/reader used by DCI packing and the RRC codec.
//!
//! All NR control payloads are MSB-first bit strings whose field boundaries
//! are not byte aligned; these two types keep the packing code declarative.

/// MSB-first bit writer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bits: Vec<u8>,
}

impl BitWriter {
    /// Empty writer.
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Append the low `width` bits of `value`, MSB first.
    pub fn put(&mut self, value: u64, width: usize) {
        assert!(width <= 64);
        debug_assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        for i in (0..width).rev() {
            self.bits.push(((value >> i) & 1) as u8);
        }
    }

    /// Append a single boolean bit.
    pub fn put_bool(&mut self, v: bool) {
        self.bits.push(u8::from(v));
    }

    /// Number of bits written so far.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Pad with zeros up to `target` bits (no-op if already there).
    pub fn pad_to(&mut self, target: usize) {
        while self.bits.len() < target {
            self.bits.push(0);
        }
    }

    /// Finish and return the bit vector.
    pub fn into_bits(self) -> Vec<u8> {
        self.bits
    }
}

/// MSB-first bit reader over a borrowed bit slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bits: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Read from the start of `bits`.
    pub fn new(bits: &'a [u8]) -> BitReader<'a> {
        BitReader { bits, pos: 0 }
    }

    /// Read `width` bits as an unsigned value. Returns `None` on underrun.
    pub fn get(&mut self, width: usize) -> Option<u64> {
        if self.pos + width > self.bits.len() {
            return None;
        }
        let mut v = 0u64;
        for _ in 0..width {
            v = (v << 1) | self.bits[self.pos] as u64;
            self.pos += 1;
        }
        Some(v)
    }

    /// Read one boolean bit.
    pub fn get_bool(&mut self) -> Option<bool> {
        self.get(1).map(|v| v == 1)
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.bits.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_widths() {
        let mut w = BitWriter::new();
        w.put(0b101, 3);
        w.put(0xABCD, 16);
        w.put_bool(true);
        w.put(7, 5);
        let bits = w.into_bits();
        assert_eq!(bits.len(), 25);
        let mut r = BitReader::new(&bits);
        assert_eq!(r.get(3), Some(0b101));
        assert_eq!(r.get(16), Some(0xABCD));
        assert_eq!(r.get_bool(), Some(true));
        assert_eq!(r.get(5), Some(7));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn underrun_returns_none() {
        let bits = [1u8, 0, 1];
        let mut r = BitReader::new(&bits);
        assert_eq!(r.get(4), None);
        // A failed read consumes nothing.
        assert_eq!(r.get(3), Some(0b101));
    }

    #[test]
    fn pad_to_extends_with_zeros() {
        let mut w = BitWriter::new();
        w.put(1, 1);
        w.pad_to(8);
        assert_eq!(w.into_bits(), vec![1, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn zero_width_is_noop() {
        let mut w = BitWriter::new();
        w.put(0, 0);
        assert!(w.is_empty());
        let bits: [u8; 0] = [];
        let mut r = BitReader::new(&bits);
        assert_eq!(r.get(0), Some(0));
    }
}
