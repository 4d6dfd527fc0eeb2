//! Binary range coder with adaptive 11-bit probabilities, following the
//! classic LZMA construction. This is the entropy-coding backend of the
//! HEAVY compression level.

/// Number of probability bits (probabilities live in `0..2048`).
pub const PROB_BITS: u32 = 11;
/// Initial probability = 0.5.
pub const PROB_INIT: u16 = (1 << PROB_BITS) / 2;
/// Adaptation shift: higher = slower adaptation.
const MOVE_BITS: u32 = 5;
const TOP: u32 = 1 << 24;

/// Encoder half of the range coder. Produces a byte stream whose first byte
/// is always zero (an artifact of the carry-cache construction).
///
/// Appends directly into a borrowed output buffer so callers (the HEAVY
/// codec hot path) pay no intermediate allocation or copy.
pub struct RangeEncoder<'a> {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: &'a mut Vec<u8>,
}

impl<'a> RangeEncoder<'a> {
    /// Creates an encoder appending to `out` (existing contents are kept).
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        RangeEncoder { low: 0, range: u32::MAX, cache: 0, cache_size: 1, out }
    }

    /// Encodes one bit under the adaptive probability `prob`.
    #[inline]
    pub fn encode_bit(&mut self, prob: &mut u16, bit: u32) {
        let bound = (self.range >> PROB_BITS) * (*prob as u32);
        if bit == 0 {
            self.range = bound;
            *prob += ((1 << PROB_BITS) - *prob) >> MOVE_BITS;
        } else {
            self.low += bound as u64;
            self.range -= bound;
            *prob -= *prob >> MOVE_BITS;
        }
        while self.range < TOP {
            self.shift_low();
            self.range <<= 8;
        }
    }

    /// Encodes `nbits` of `value` (MSB first) at fixed probability 0.5.
    pub fn encode_direct(&mut self, value: u32, nbits: u32) {
        for i in (0..nbits).rev() {
            self.range >>= 1;
            if (value >> i) & 1 != 0 {
                self.low += self.range as u64;
            }
            while self.range < TOP {
                self.shift_low();
                self.range <<= 8;
            }
        }
    }

    /// Encodes a symbol through a bit tree of `nbits` levels.
    pub fn encode_tree(&mut self, probs: &mut [u16], nbits: u32, symbol: u32) {
        debug_assert!(probs.len() >= 1 << nbits);
        let mut m = 1usize;
        for i in (0..nbits).rev() {
            let bit = (symbol >> i) & 1;
            self.encode_bit(&mut probs[m], bit);
            m = (m << 1) | bit as usize;
        }
    }

    fn shift_low(&mut self) {
        if self.low < 0xFF00_0000 || self.low > 0xFFFF_FFFF {
            let carry = (self.low >> 32) as u8;
            self.out.push(self.cache.wrapping_add(carry));
            for _ in 1..self.cache_size {
                self.out.push(0xFFu8.wrapping_add(carry));
            }
            self.cache = (self.low >> 24) as u8;
            self.cache_size = 0;
        }
        self.cache_size += 1;
        self.low = (self.low << 8) & 0xFFFF_FFFF;
    }

    /// Flushes remaining state into the output buffer.
    pub fn finish(mut self) {
        for _ in 0..5 {
            self.shift_low();
        }
    }
}

/// Decoder half. Reads the stream produced by [`RangeEncoder`]; reads past
/// the end of the input yield zero bytes, and `RangeDecoder::unread`
/// tells the caller how far it is from taking the input byte for byte.
pub struct RangeDecoder<'a> {
    input: &'a [u8],
    pos: usize,
    range: u32,
    code: u32,
}

impl<'a> RangeDecoder<'a> {
    pub fn new(input: &'a [u8]) -> Self {
        let mut d = RangeDecoder { input, pos: 0, range: u32::MAX, code: 0 };
        // First byte is the encoder's zero pad; the next four seed the code.
        d.pos = 1;
        for _ in 0..4 {
            d.code = (d.code << 8) | d.next_byte() as u32;
        }
        d
    }

    /// Input bytes not read yet, `None` once decoding has read past the
    /// end. Decoding the symbols an encoder wrote reads its output to the
    /// last byte and no further, so bytes left over (fewer symbols) or a
    /// read past the end (more symbols, fed zeros) mean the decoder was
    /// asked for a different message than the one encoded.
    pub(crate) fn unread(&self) -> Option<usize> {
        self.input.len().checked_sub(self.pos)
    }

    #[inline]
    fn next_byte(&mut self) -> u8 {
        let b = self.input.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    #[inline]
    pub fn decode_bit(&mut self, prob: &mut u16) -> u32 {
        let bound = (self.range >> PROB_BITS) * (*prob as u32);
        let bit;
        if self.code < bound {
            self.range = bound;
            *prob += ((1 << PROB_BITS) - *prob) >> MOVE_BITS;
            bit = 0;
        } else {
            self.code -= bound;
            self.range -= bound;
            *prob -= *prob >> MOVE_BITS;
            bit = 1;
        }
        while self.range < TOP {
            self.range <<= 8;
            self.code = (self.code << 8) | self.next_byte() as u32;
        }
        bit
    }

    pub fn decode_direct(&mut self, nbits: u32) -> u32 {
        let mut result = 0u32;
        for _ in 0..nbits {
            self.range >>= 1;
            self.code = self.code.wrapping_sub(self.range);
            let t = 0u32.wrapping_sub(self.code >> 31);
            self.code = self.code.wrapping_add(self.range & t);
            result = (result << 1).wrapping_add(t.wrapping_add(1));
            while self.range < TOP {
                self.range <<= 8;
                self.code = (self.code << 8) | self.next_byte() as u32;
            }
        }
        result
    }

    pub fn decode_tree(&mut self, probs: &mut [u16], nbits: u32) -> u32 {
        debug_assert!(probs.len() >= 1 << nbits);
        let mut m = 1usize;
        for _ in 0..nbits {
            let bit = self.decode_bit(&mut probs[m]);
            m = (m << 1) | bit as usize;
        }
        m as u32 - (1 << nbits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_roundtrip_adaptive() {
        let bits: Vec<u32> = (0..4000).map(|i| ((i * 7) % 13 < 4) as u32).collect();
        let mut data = Vec::new();
        let mut enc = RangeEncoder::new(&mut data);
        let mut p = PROB_INIT;
        for &b in &bits {
            enc.encode_bit(&mut p, b);
        }
        enc.finish();
        let mut dec = RangeDecoder::new(&data);
        let mut p = PROB_INIT;
        for &b in &bits {
            assert_eq!(dec.decode_bit(&mut p), b);
        }
    }

    #[test]
    fn skewed_bits_compress_well() {
        // 4000 zeros with adaptive probability should shrink far below
        // 4000/8 = 500 bytes.
        let mut data = Vec::new();
        let mut enc = RangeEncoder::new(&mut data);
        let mut p = PROB_INIT;
        for _ in 0..4000 {
            enc.encode_bit(&mut p, 0);
        }
        enc.finish();
        assert!(data.len() < 60, "got {}", data.len());
    }

    #[test]
    fn direct_bits_roundtrip() {
        let values = [(0u32, 1u32), (1, 1), (5, 3), (0xFFFF, 16), (0x12345, 20), (0, 24)];
        let mut data = Vec::new();
        let mut enc = RangeEncoder::new(&mut data);
        for &(v, n) in &values {
            enc.encode_direct(v, n);
        }
        enc.finish();
        let mut dec = RangeDecoder::new(&data);
        for &(v, n) in &values {
            assert_eq!(dec.decode_direct(n), v);
        }
    }

    #[test]
    fn tree_roundtrip() {
        let symbols: Vec<u32> = (0..500).map(|i| (i * 37) % 256).collect();
        let mut data = Vec::new();
        let mut enc = RangeEncoder::new(&mut data);
        let mut probs = vec![PROB_INIT; 256];
        for &s in &symbols {
            enc.encode_tree(&mut probs, 8, s);
        }
        enc.finish();
        let mut dec = RangeDecoder::new(&data);
        let mut probs = vec![PROB_INIT; 256];
        for &s in &symbols {
            assert_eq!(dec.decode_tree(&mut probs, 8), s);
        }
    }

    #[test]
    fn mixed_stream_roundtrip() {
        let mut data = Vec::new();
        let mut enc = RangeEncoder::new(&mut data);
        let mut p1 = PROB_INIT;
        let mut tree = vec![PROB_INIT; 32];
        for i in 0..300u32 {
            enc.encode_bit(&mut p1, i & 1);
            enc.encode_direct(i % 64, 6);
            enc.encode_tree(&mut tree, 5, i % 32);
        }
        enc.finish();
        let mut dec = RangeDecoder::new(&data);
        let mut p1 = PROB_INIT;
        let mut tree = vec![PROB_INIT; 32];
        for i in 0..300u32 {
            assert_eq!(dec.decode_bit(&mut p1), i & 1);
            assert_eq!(dec.decode_direct(6), i % 64);
            assert_eq!(dec.decode_tree(&mut tree, 5), i % 32);
        }
    }
}
