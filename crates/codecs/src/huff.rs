//! HUFF — a deflate-style fixed-Huffman bitstream codec.
//!
//! Greedy LZ77 parse (single-probe hash table, 32 KiB window, matches of
//! 4..=258 bytes) entropy-coded with the *fixed* Huffman trees from
//! RFC 1951 §3.2.6: literal/length symbols in 7–9 bits, distance symbols
//! in 5 bits, both with the standard extra-bit ranges. There is no
//! dynamic-tree mode and no block structure beyond a single end-of-block
//! symbol — every frame is one fixed-tree block, which keeps the encoder a
//! streaming `BitWriter` that word-flushes into a pre-sized span
//! (`Scratch::tokens`; zero heap allocations in the scratch path) and the
//! decoder a flat-table loop over a word-refilled accumulator, writing into
//! a pre-sized window (`crate::window`).
//!
//! Wire format: the LSB-first bitstream of `(litlen, extra, dist, extra)*`
//! tokens terminated by symbol 256, padded with zero bits to a byte
//! boundary. The frame layer supplies lengths and CRC; like every codec in
//! this crate the decoder is bounds-hardened and returns typed
//! [`CodecError`]s on damage, never panics.
//!
//! `tests/reference/mod.rs::huff_reference` is an independent bit-at-a-time
//! canonical decoder, compiled only under test, that the differential
//! oracle suite holds this one to: identical output bytes *and* identical
//! errors on every input, valid or corrupt.

use crate::qlz::match_len;
use crate::scratch::{reset_table, token_span};
use crate::{window, CodecError, Result, Scratch};

/// Window the matcher may reference (deflate's 32 KiB).
const WINDOW: usize = 32 * 1024;
/// Longest match a single token can encode.
const MAX_MATCH: usize = 258;
/// Shortest match worth a token under the fixed trees.
const MIN_MATCH: usize = 4;
/// Match-finder hash table: 2^15 single-probe slots.
const HASH_BITS: u32 = 15;
const TABLE_LEN: usize = 1 << HASH_BITS;

// --- fixed trees (RFC 1951 §3.2.6) -------------------------------------

/// Code length of literal/length symbol `sym` in the fixed tree.
const fn litlen_len(sym: usize) -> u8 {
    if sym <= 143 {
        8
    } else if sym <= 255 {
        9
    } else if sym <= 279 {
        7
    } else {
        8
    }
}

/// Reverses the low `len` bits of `code` (deflate packs Huffman codes
/// MSB-first into an LSB-first bitstream).
const fn rev(code: u16, len: u8) -> u16 {
    let mut r = 0u16;
    let mut i = 0;
    while i < len {
        r = (r << 1) | ((code >> i) & 1);
        i += 1;
    }
    r
}

/// Canonical codes for all 288 literal/length symbols, already
/// bit-reversed for the LSB-first writer, paired with their lengths.
const fn build_litlen() -> ([u16; 288], [u8; 288]) {
    let mut lens = [0u8; 288];
    let mut bl_count = [0u16; 10];
    let mut s = 0;
    while s < 288 {
        let l = litlen_len(s);
        lens[s] = l;
        bl_count[l as usize] += 1;
        s += 1;
    }
    let mut next_code = [0u16; 10];
    let mut code = 0u16;
    let mut bits = 1;
    while bits <= 9 {
        code = (code + bl_count[bits - 1]) << 1;
        next_code[bits] = code;
        bits += 1;
    }
    let mut codes = [0u16; 288];
    let mut s = 0;
    while s < 288 {
        let l = lens[s] as usize;
        codes[s] = rev(next_code[l], lens[s]);
        next_code[l] += 1;
        s += 1;
    }
    (codes, lens)
}

const LITLEN: ([u16; 288], [u8; 288]) = build_litlen();
const LITLEN_CODE: [u16; 288] = LITLEN.0;
const LITLEN_LEN: [u8; 288] = LITLEN.1;

/// Flat decode table: 9 peeked LSB-first bits → `(symbol << 4) | code
/// length`, one load per symbol. The fixed litlen tree is complete, so
/// every 9-bit pattern maps to exactly one symbol.
const fn build_litlen_lut() -> [u16; 512] {
    let mut lut = [0u16; 512];
    let mut s = 0;
    while s < 288 {
        let l = LITLEN_LEN[s];
        let step = 1usize << l;
        let mut idx = LITLEN_CODE[s] as usize; // already reversed
        while idx < 512 {
            lut[idx] = (s as u16) << 4 | l as u16;
            idx += step;
        }
        s += 1;
    }
    lut
}

const LITLEN_LUT: [u16; 512] = build_litlen_lut();

/// 5 peeked LSB-first bits → distance symbol (0..=31; 30/31 are invalid).
const fn build_dist_lut() -> [u8; 32] {
    let mut lut = [0u8; 32];
    let mut s = 0u16;
    while s < 32 {
        lut[rev(s, 5) as usize] = s as u8;
        s += 1;
    }
    lut
}

const DIST_LUT: [u8; 32] = build_dist_lut();

/// Distance symbol (0..=29) → its 5-bit code, already bit-reversed for the
/// LSB-first writer.
const fn build_dist_code() -> [u8; 30] {
    let mut codes = [0u8; 30];
    let mut s = 0u16;
    while s < 30 {
        codes[s as usize] = rev(s, 5) as u8;
        s += 1;
    }
    codes
}

const DIST_CODE: [u8; 30] = build_dist_code();

/// Length-code bases and extra-bit counts for symbols 257 + i.
const LEN_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115,
    131, 163, 195, 227, 258,
];
const LEN_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];

/// Match length 3..=258 → length-code index (0..=28).
const fn build_len_to_code() -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut idx = 0;
    while idx < 28 {
        let lo = LEN_BASE[idx];
        let hi = LEN_BASE[idx] + (1 << LEN_EXTRA[idx]) - 1;
        let mut l = lo;
        while l <= hi && l <= 258 {
            t[(l - 3) as usize] = idx as u8;
            l += 1;
        }
        idx += 1;
    }
    t[258 - 3] = 28; // 258 has its own zero-extra code (285)
    t
}

const LEN_TO_CODE: [u8; 256] = build_len_to_code();

/// Distance-code bases and extra-bit counts for symbols 0..=29.
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12,
    13, 13,
];

/// zlib-style distance→code table: `dist_to_code` consults index `d-1`
/// directly below 256 and `256 + ((d-1) >> 7)` above.
const fn build_dist_to_code() -> [u8; 512] {
    let mut t = [0u8; 512];
    let mut code = 0;
    while code < 30 {
        let lo = (DIST_BASE[code] - 1) as usize;
        let hi = lo + (1usize << DIST_EXTRA[code]) - 1;
        let mut d0 = lo;
        while d0 <= hi && d0 < 32768 {
            if d0 < 256 {
                t[d0] = code as u8;
            } else {
                t[256 + (d0 >> 7)] = code as u8;
            }
            d0 += 1;
        }
        code += 1;
    }
    t
}

const DIST_TO_CODE: [u8; 512] = build_dist_to_code();

#[inline]
fn dist_to_code(dist: usize) -> usize {
    let d0 = dist - 1;
    if d0 < 256 {
        DIST_TO_CODE[d0] as usize
    } else {
        DIST_TO_CODE[256 + (d0 >> 7)] as usize
    }
}

// --- encoder ------------------------------------------------------------

/// LSB-first bit writer over a pre-sized span (`Scratch::tokens`, see
/// `crate::scratch`): a 64-bit accumulator flushed as one 8-byte store once
/// 32 or more bits are pending, the cursor moving by the whole bytes among
/// them; the partial byte stays in the accumulator, and the next store
/// writes it again, completed.
struct BitWriter<'a> {
    span: &'a mut [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitWriter<'a> {
    /// Span for `n` input bytes: the longest stream they encode to — every
    /// byte a 9-bit literal (a match spends at most 31 bits on 4 or more
    /// bytes), then the 7-bit end-of-block symbol — plus 16 bytes of slack
    /// for the 8-byte store, which needs 7 (see [`BitWriter::store`]).
    fn span_len(n: usize) -> usize {
        (9 * n + 7).div_ceil(8) + 16
    }

    /// `span` holds at least [`BitWriter::span_len`] bytes for the input.
    fn new(span: &'a mut [u8]) -> Self {
        BitWriter { span, pos: 0, acc: 0, nbits: 0 }
    }

    /// Appends the low `n` bits of `bits` (high bits clear). Callers
    /// [`BitWriter::flush`] after every token, so at most 31 bits are
    /// pending before one and the longest token (31 bits) fits.
    #[inline]
    fn push(&mut self, bits: u32, n: u32) {
        debug_assert!(self.nbits + n <= 64);
        self.acc |= (bits as u64) << self.nbits;
        self.nbits += n;
    }

    /// Stores the accumulator once 32 or more bits are pending.
    #[inline]
    fn flush(&mut self) {
        if self.nbits >= 32 {
            self.store();
        }
    }

    /// Writes the accumulator's 8 bytes at the cursor and moves past the
    /// whole ones. At least one pending bit still goes out after the
    /// cursor, so it is short of the stream's final length, at most
    /// `span_len - 16`: the store ends at most 7 bytes past the stream.
    #[inline]
    fn store(&mut self) {
        self.span[self.pos..self.pos + 8].copy_from_slice(&self.acc.to_le_bytes());
        let whole = self.nbits / 8;
        self.pos += whole as usize;
        self.acc >>= whole * 8;
        self.nbits -= whole * 8;
    }

    /// Writes the pending bits, the last byte zero-padded, and appends the
    /// stream to `out`.
    fn finish(mut self, out: &mut Vec<u8>) {
        self.store();
        let end = self.pos + usize::from(self.nbits > 0);
        out.extend_from_slice(&self.span[..end]);
    }
}

#[inline]
fn read_u32(bytes: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap())
}

#[inline]
fn hash4(bytes: &[u8], i: usize) -> usize {
    (read_u32(bytes, i).wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Compresses `input`, appending the HUFF bitstream to `out`, allocating
/// fresh working memory. Thin wrapper over [`compress_with`].
pub fn compress(input: &[u8], out: &mut Vec<u8>) {
    compress_with(&mut Scratch::new(), input, out);
}

/// Compresses `input` using reusable working memory, appending the HUFF
/// bitstream to `out`: the hash table is reset to the fresh state before
/// the parse, and the stream is written into the scratch's token span and
/// copied out once. In steady state this performs no heap allocation.
pub fn compress_with(scratch: &mut Scratch, input: &[u8], out: &mut Vec<u8>) {
    reset_table(&mut scratch.huff_table, TABLE_LEN);
    let table = &mut scratch.huff_table[..];
    let n = input.len();
    let mut bw = BitWriter::new(token_span(&mut scratch.tokens, BitWriter::span_len(n)));
    let mut i = 0usize;
    while i < n {
        let mut matched = 0usize;
        let mut dist = 0usize;
        if i + MIN_MATCH <= n {
            let h = hash4(input, i);
            let cand = table[h];
            table[h] = i as u32;
            if cand != u32::MAX {
                let cand = cand as usize;
                let d = i - cand;
                // A candidate that differs in its first four bytes cannot
                // reach `MIN_MATCH`; one that agrees is extended past them.
                if d <= WINDOW && read_u32(input, cand) == read_u32(input, i) {
                    let max_len = MAX_MATCH.min(n - i);
                    matched = MIN_MATCH
                        + match_len(input, cand + MIN_MATCH, i + MIN_MATCH, max_len - MIN_MATCH);
                    dist = d;
                }
            }
        }
        if matched == 0 {
            let sym = input[i] as usize;
            bw.push(LITLEN_CODE[sym] as u32, LITLEN_LEN[sym] as u32);
            bw.flush();
            i += 1;
            continue;
        }
        let lc = LEN_TO_CODE[matched - 3] as usize;
        let sym = 257 + lc;
        bw.push(LITLEN_CODE[sym] as u32, LITLEN_LEN[sym] as u32);
        bw.push((matched as u32) - LEN_BASE[lc] as u32, LEN_EXTRA[lc] as u32);
        let dc = dist_to_code(dist);
        bw.push(DIST_CODE[dc] as u32, 5);
        bw.push((dist as u32) - DIST_BASE[dc] as u32, DIST_EXTRA[dc] as u32);
        bw.flush();
        // Seed the table part-way into the match so the next block of
        // similar content still finds it; skipping every interior position
        // keeps the encoder O(n).
        if i + matched + MIN_MATCH <= n {
            let mid = i + matched / 2;
            table[hash4(input, mid)] = mid as u32;
        }
        i += matched;
    }
    let eob = 256usize;
    bw.push(LITLEN_CODE[eob] as u32, LITLEN_LEN[eob] as u32);
    bw.finish(out);
}

// --- decoder ------------------------------------------------------------

/// LSB-first bit reader over the input slice with a 64-bit accumulator.
/// `nbits` counts exactly the stream bits taken into `acc` and not yet
/// consumed; `acc` may hold further stream bits above them (the word refill
/// loads more than it counts), never anything else.
struct BitReader<'a> {
    input: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(input: &'a [u8]) -> Self {
        BitReader { input, pos: 0, acc: 0, nbits: 0 }
    }

    /// Tops the accumulator up to at least 56 bits, or to every bit the
    /// input has left. While 8 input bytes remain that is one `u64` load:
    /// the word is ORed in above the `nbits` valid bits and `pos` moves by
    /// the whole bytes that fit, `(63 - nbits) >> 3`; the bits of the
    /// partly-fitting byte stay in `acc` uncounted and the next refill ORs
    /// the same bits over them. The last 7 bytes go in one at a time.
    /// Either way `nbits` is the exact count, so a reader that asks for
    /// more than `nbits` right after a refill has run out of *stream*.
    #[inline(always)]
    fn refill(&mut self) {
        if let Some(word) = self.input.get(self.pos..self.pos + 8) {
            self.acc |= u64::from_le_bytes(word.try_into().unwrap()) << self.nbits;
            let adv = (63 - self.nbits) >> 3;
            self.pos += adv as usize;
            self.nbits += adv * 8;
        } else {
            while self.nbits <= 56 && self.pos < self.input.len() {
                self.acc |= (self.input[self.pos] as u64) << self.nbits;
                self.pos += 1;
                self.nbits += 8;
            }
        }
    }

    /// Takes exactly `n` bits of what the last refill left;
    /// [`CodecError::Truncated`] when fewer remain.
    #[inline(always)]
    fn take(&mut self, n: u32) -> Result<u32> {
        if self.nbits < n {
            return Err(CodecError::Truncated);
        }
        let v = (self.acc & ((1u64 << n) - 1)) as u32;
        self.acc >>= n;
        self.nbits -= n;
        Ok(v)
    }
}

/// Longest token: a 9-bit length symbol, 5 extra bits, a 5-bit distance
/// symbol and 13 extra bits. A reader holding this many bits decodes any
/// one symbol or whole match without a refill in between.
const MAX_TOKEN_BITS: u32 = 9 + 5 + 5 + 13;

/// Most output a bitstream of `n` bytes can decode to, per input byte: the
/// densest token is length symbol 285 (8 bits, no extra bits, 258 bytes)
/// with a distance of 1..=4 (5 bits, no extra bits) — 258 bytes from 13
/// bits, 158.8 per byte; every other token yields less per bit (a literal
/// 1 byte from 8 bits; the next-best match 257 bytes from 18). Bounds the
/// decode window (see `crate::window`).
const MAX_EXPANSION: usize = (8 * MAX_MATCH).div_ceil(8 + 5);

/// Decompresses a HUFF bitstream (exactly `expected_len` output bytes),
/// appending to `out`. Bounds-hardened: damage yields a typed error with
/// whatever prefix was decoded left in `out`, byte for byte what the
/// bit-at-a-time oracle (`tests/reference/mod.rs::huff_reference`) leaves
/// and reports. [`decompress_within`] with no bound.
///
/// Same shape as `qlz::decompress`: one pre-sized window
/// (`crate::window`) written through an output cursor, matches through
/// `window::copy_match`. The bit reader refills a word at a time, and only
/// when fewer than 32 bits — the longest token — are left, every fourth
/// literal or so: a whole match token decodes from the accumulator.
pub fn decompress(input: &[u8], expected_len: usize, out: &mut Vec<u8>) -> Result<()> {
    decompress_within(input, expected_len, expected_len, out)
}

/// [`decompress`] of the block's first `min(want, expected_len)` bytes: the
/// same loop, which returns once it has produced them, before reading the
/// next token. A match that crosses the bound is checked as the whole
/// decode checks it and copied only up to the bound; the end-of-block
/// symbol is read only on a whole decode. So the bytes appended are the
/// whole decode's output cut at the bound whenever that decode gets that
/// far, and its error otherwise.
pub fn decompress_within(
    input: &[u8],
    expected_len: usize,
    want: usize,
    out: &mut Vec<u8>,
) -> Result<()> {
    let bound = want.min(expected_len);
    let limit = bound.min(input.len().saturating_mul(MAX_EXPANSION));
    window::with(out, limit, |win, d| decompress_into(input, expected_len, bound, win, d))
}

/// The token loop of [`decompress_within`] over its window; `d` is the
/// output cursor, left at the bytes produced however the stream ends. `win`
/// holds at least `min(bound, MAX_EXPANSION * input.len())` bytes, which no
/// token sequence that passes the checks below can exceed.
#[inline]
fn decompress_into(
    input: &[u8],
    expected_len: usize,
    bound: usize,
    win: &mut [u8],
    d: &mut usize,
) -> Result<()> {
    // A whole decode runs on to the end-of-block symbol; a bounded one
    // stops at its bound.
    let stop = if bound < expected_len { bound } else { usize::MAX };
    let mut br = BitReader::new(input);
    while *d < stop {
        // After this either a whole token is in the accumulator or the
        // input is spent and `nbits` is all there is: the `Truncated`
        // checks below fire on the bit the oracle runs out at.
        if br.nbits < MAX_TOKEN_BITS {
            br.refill();
        }
        let entry = LITLEN_LUT[(br.acc & 0x1FF) as usize] as u32;
        let sym = (entry >> 4) as usize;
        br.take(entry & 0xF)?;
        if sym < 256 {
            if *d >= expected_len {
                return Err(CodecError::Corrupt("output overruns expected length"));
            }
            win[*d] = sym as u8;
            *d += 1;
            continue;
        }
        if sym == 256 {
            if *d != expected_len {
                return Err(CodecError::Corrupt("block ended before expected length"));
            }
            return Ok(());
        }
        if sym > 285 {
            return Err(CodecError::Corrupt("invalid length symbol"));
        }
        let lc = sym - 257;
        let len = LEN_BASE[lc] as usize + br.take(LEN_EXTRA[lc] as u32)? as usize;
        let dsym = DIST_LUT[br.take(5)? as usize] as usize;
        if dsym > 29 {
            return Err(CodecError::Corrupt("invalid distance symbol"));
        }
        let dist = DIST_BASE[dsym] as usize + br.take(DIST_EXTRA[dsym] as u32)? as usize;
        if dist > *d {
            return Err(CodecError::Corrupt("match offset out of range"));
        }
        if *d + len > expected_len {
            return Err(CodecError::Corrupt("match overruns expected length"));
        }
        // The whole match on a whole decode; up to the bound on a bounded
        // one (an overlapping copy's prefix is the prefix of the copy).
        let len = len.min(bound - *d);
        window::copy_match(win, *d, dist, len);
        *d += len;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{huff_reference, repeat_free};

    fn roundtrip(data: &[u8]) {
        let mut wire = Vec::new();
        compress(data, &mut wire);
        let mut out = Vec::new();
        decompress(&wire, data.len(), &mut out).unwrap();
        assert_eq!(out, data);
        let mut slow = Vec::new();
        huff_reference(&wire, data.len(), &mut slow).unwrap();
        assert_eq!(slow, data);
    }

    #[test]
    fn fixed_tree_matches_rfc1951() {
        // Spot-check the canonical assignment against the RFC table
        // (codes below are MSB-first; ours are stored reversed).
        assert_eq!(LITLEN_LEN[0], 8);
        assert_eq!(rev(LITLEN_CODE[0], 8), 0b0011_0000);
        assert_eq!(LITLEN_LEN[144], 9);
        assert_eq!(rev(LITLEN_CODE[144], 9), 0b1_1001_0000);
        assert_eq!(LITLEN_LEN[256], 7);
        assert_eq!(rev(LITLEN_CODE[256], 7), 0);
        assert_eq!(LITLEN_LEN[280], 8);
        assert_eq!(rev(LITLEN_CODE[280], 8), 0b1100_0000);
        // Distance codes are 5 bits wide; the encoder's table and the
        // decoder's inverse table agree on every valid symbol.
        for (sym, &code) in DIST_CODE.iter().enumerate() {
            assert_eq!(DIST_LUT[code as usize] as usize, sym);
        }
        assert_eq!(DIST_CODE[1], 0b10000);
    }

    #[test]
    fn roundtrips_shapes() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"hello hello hello hello hello hello");
        roundtrip(&vec![0u8; 5000]);
        roundtrip(&(0..=255u8).cycle().take(10_000).collect::<Vec<_>>());
        let text = b"the quick brown fox jumps over the lazy dog. ".repeat(200);
        roundtrip(&text);
    }

    #[test]
    fn compresses_text() {
        let text = b"adaptive compression mitigates shared I/O interference. ".repeat(500);
        let mut wire = Vec::new();
        compress(&text, &mut wire);
        assert!(wire.len() < text.len() / 2, "{} of {}", wire.len(), text.len());
    }

    #[test]
    fn scratch_output_is_bit_identical() {
        let data = b"scratch reuse determinism check, repeated a bit. ".repeat(300);
        let mut fresh = Vec::new();
        compress(&data, &mut fresh);
        let mut scratch = Scratch::new();
        for _ in 0..3 {
            let mut reused = Vec::new();
            compress_with(&mut scratch, &data, &mut reused);
            assert_eq!(reused, fresh);
        }
    }

    /// The longest stream — bytes ≥ 144, every one a 9-bit literal, then
    /// the 7-bit end-of-block symbol — is exactly `ceil((9n + 7) / 8)`
    /// bytes, and it is written into a span of exactly
    /// `BitWriter::span_len(n)`: an 8-byte store past its end would be an
    /// index panic here. Run in both profiles (debug adds the overflow
    /// checks).
    #[test]
    fn span_bound_all_literals() {
        for n in (0..=64).chain([4096, 131_072, 131_073]) {
            // No 4-byte repeat within 49 284 bytes: farther than `WINDOW`.
            let data = repeat_free(n, 144);
            let mut scratch = Scratch::new();
            let mut wire = vec![0xA5; 3];
            compress_with(&mut scratch, &data, &mut wire);
            assert_eq!(scratch.tokens.len(), BitWriter::span_len(n), "n={n}");
            assert_eq!(wire.len() - 3, (9 * n + 7).div_ceil(8), "n={n}");
            let mut out = Vec::new();
            decompress(&wire[3..], n, &mut out).unwrap();
            assert_eq!(out, data, "n={n}");
        }
    }

    #[test]
    fn truncation_and_damage_yield_typed_errors() {
        let data = b"truncate me truncate me truncate me".repeat(30);
        let mut wire = Vec::new();
        compress(&data, &mut wire);
        for keep in 0..wire.len() {
            let mut out = Vec::new();
            assert!(decompress(&wire[..keep], data.len(), &mut out).is_err(), "cut {keep}");
        }
        let mut out = Vec::new();
        assert_eq!(decompress(&[], 4, &mut out), Err(CodecError::Truncated));
        // Lone EOB with a nonzero expected length: typed corrupt.
        let mut out = Vec::new();
        assert_eq!(
            decompress(&[0x00], 4, &mut out),
            Err(CodecError::Corrupt("block ended before expected length"))
        );
    }

    #[test]
    fn match_distance_cannot_escape_output() {
        // Hand-build: EOB-only stream declaring length 0 decodes cleanly.
        let mut out = Vec::new();
        decompress(&[0x00], 0, &mut out).unwrap();
        assert!(out.is_empty());
    }
}
