//! HEAVY compression level: LZ77 with an adaptive binary range coder —
//! a compact reimplementation of the LZMA design the paper uses at its
//! highest level. Much slower than the [`crate::qlz`] settings but with a
//! markedly better compression ratio, which is exactly the trade-off the
//! adaptive scheme must navigate.
//!
//! ## Stream model
//!
//! A sequence of symbols, entropy-coded by [`crate::rangecoder`]:
//!
//! * `is_match` bit (context: whether the previous symbol was a match);
//! * literal: 8-bit tree, context = top 3 bits of the previous byte;
//! * match: length 2..=273 (LZMA-style low/mid/high trees), then the
//!   distance as a 5-bit bit-length slot plus direct bits.
//!
//! The decoder stops after `expected_len` output bytes (recorded in the
//! frame header); frame CRC covers residual corruption.

use crate::rangecoder::{RangeDecoder, RangeEncoder, PROB_INIT};
use crate::scratch::{ensure_len_uninit, reset_table};
use crate::{CodecError, Result, Scratch};

const MIN_MATCH: usize = 2;
const MAX_MATCH: usize = MIN_MATCH + 7 + 8 + 256; // 273
const LIT_CTX: usize = 8;
const MAX_DIST_BITS: u32 = 27;

pub(crate) struct Model {
    is_match: [u16; 2],
    literal: Vec<[u16; 256]>,
    len_choice: u16,
    len_choice2: u16,
    len_low: [u16; 8],
    len_mid: [u16; 8],
    len_high: [u16; 256],
    dist_slot: [[u16; 32]; 2],
}

impl Model {
    pub(crate) fn new() -> Self {
        Model {
            is_match: [PROB_INIT; 2],
            literal: vec![[PROB_INIT; 256]; LIT_CTX],
            len_choice: PROB_INIT,
            len_choice2: PROB_INIT,
            len_low: [PROB_INIT; 8],
            len_mid: [PROB_INIT; 8],
            len_high: [PROB_INIT; 256],
            dist_slot: [[PROB_INIT; 32]; 2],
        }
    }

    /// Resets every probability to 0.5 without touching the heap, so the
    /// model can be reused across independently-decodable blocks.
    pub(crate) fn reset(&mut self) {
        self.is_match.fill(PROB_INIT);
        for ctx in self.literal.iter_mut() {
            ctx.fill(PROB_INIT);
        }
        self.len_choice = PROB_INIT;
        self.len_choice2 = PROB_INIT;
        self.len_low.fill(PROB_INIT);
        self.len_mid.fill(PROB_INIT);
        self.len_high.fill(PROB_INIT);
        for slot in self.dist_slot.iter_mut() {
            slot.fill(PROB_INIT);
        }
    }
}

#[inline]
fn lit_context(prev: u8) -> usize {
    (prev >> 5) as usize
}

#[inline]
fn dist_context(len: usize) -> usize {
    usize::from(len >= 6)
}

fn encode_len(rc: &mut RangeEncoder, m: &mut Model, len: usize) {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
    let l = len - MIN_MATCH;
    if l < 8 {
        rc.encode_bit(&mut m.len_choice, 0);
        rc.encode_tree(&mut m.len_low, 3, l as u32);
    } else if l < 16 {
        rc.encode_bit(&mut m.len_choice, 1);
        rc.encode_bit(&mut m.len_choice2, 0);
        rc.encode_tree(&mut m.len_mid, 3, (l - 8) as u32);
    } else {
        rc.encode_bit(&mut m.len_choice, 1);
        rc.encode_bit(&mut m.len_choice2, 1);
        rc.encode_tree(&mut m.len_high, 8, (l - 16) as u32);
    }
}

fn decode_len(rc: &mut RangeDecoder, m: &mut Model) -> usize {
    let l = if rc.decode_bit(&mut m.len_choice) == 0 {
        rc.decode_tree(&mut m.len_low, 3) as usize
    } else if rc.decode_bit(&mut m.len_choice2) == 0 {
        8 + rc.decode_tree(&mut m.len_mid, 3) as usize
    } else {
        16 + rc.decode_tree(&mut m.len_high, 8) as usize
    };
    l + MIN_MATCH
}

fn encode_dist(rc: &mut RangeEncoder, m: &mut Model, len: usize, dist: usize) {
    debug_assert!(dist >= 1);
    let nbits = 32 - (dist as u32).leading_zeros(); // bit length, >= 1
    debug_assert!(nbits <= MAX_DIST_BITS);
    rc.encode_tree(&mut m.dist_slot[dist_context(len)], 5, nbits - 1);
    if nbits > 1 {
        // The leading 1 bit is implied by the slot.
        rc.encode_direct(dist as u32 & ((1 << (nbits - 1)) - 1), nbits - 1);
    }
}

fn decode_dist(rc: &mut RangeDecoder, m: &mut Model, len: usize) -> Result<usize> {
    let nbits = rc.decode_tree(&mut m.dist_slot[dist_context(len)], 5) + 1;
    if nbits > MAX_DIST_BITS {
        return Err(CodecError::Corrupt("distance bit-length out of range"));
    }
    let dist = if nbits > 1 {
        (1u32 << (nbits - 1)) | rc.decode_direct(nbits - 1)
    } else {
        1
    };
    Ok(dist as usize)
}

/// Cost heuristic: is a match of `len` at `dist` worth taking over
/// literals? Short matches only pay off when the distance is cheap.
#[inline]
fn worth_taking(len: usize, dist: usize) -> bool {
    match len {
        0 | 1 => false,
        2 => dist < 512,
        3 => dist < 16 * 1024,
        _ => true,
    }
}

const HASH_BITS: u32 = 16;
const MAX_DEPTH: u32 = 128;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let x = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (x.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Reusable HEAVY working memory: probability model plus match-finder
/// tables. Owned by [`crate::Scratch`]; reset (not reallocated) per block.
pub(crate) struct HeavyScratch {
    model: Model,
    head: Vec<u32>,
    /// Hash-chain links; grown to the largest block seen, never cleared
    /// (stale entries are unreachable: chains start at `head` entries reset
    /// for every block, and `prev[pos]` is written before `head` points at
    /// `pos`).
    prev: Vec<u32>,
    pair: Vec<u32>,
}

impl HeavyScratch {
    pub(crate) fn new() -> Self {
        HeavyScratch { model: Model::new(), head: Vec::new(), prev: Vec::new(), pair: Vec::new() }
    }

    /// Prepares tables and model for a block of `n` input bytes.
    fn prepare(&mut self, n: usize) {
        self.model.reset();
        reset_table(&mut self.head, 1 << HASH_BITS);
        reset_table(&mut self.pair, 1 << 16);
        ensure_len_uninit(&mut self.prev, n);
    }

    pub(crate) fn table_bytes(&self) -> usize {
        (self.head.capacity() + self.prev.capacity() + self.pair.capacity()) * 4
            + LIT_CTX * 256 * 2
    }
}

struct MatchFinder<'s> {
    head: &'s mut [u32],
    prev: &'s mut [u32],
    /// Last position of each 2-byte pair, for short matches.
    pair: &'s mut [u32],
}

impl MatchFinder<'_> {
    #[inline]
    fn insert(&mut self, data: &[u8], pos: usize) {
        let n = data.len();
        if pos + 4 <= n {
            let h = hash4(data, pos);
            self.prev[pos] = self.head[h];
            self.head[h] = pos as u32;
        }
        if pos + 2 <= n {
            let p = ((data[pos] as usize) << 8) | data[pos + 1] as usize;
            self.pair[p] = pos as u32;
        }
    }

    /// Finds the best (length, distance) at `pos`, or (0, 0).
    fn find(&self, data: &[u8], pos: usize) -> (usize, usize) {
        let n = data.len();
        let limit = (n - pos).min(MAX_MATCH);
        let mut best = (0usize, 0usize);
        if limit >= 4 {
            let mut cand = self.head[hash4(data, pos)];
            let mut depth = 0;
            while cand != u32::MAX && depth < MAX_DEPTH {
                let c = cand as usize;
                if pos - c >= 1 << MAX_DIST_BITS {
                    break;
                }
                if best.0 == 0
                    || (pos + best.0 < n && data[c + best.0] == data[pos + best.0])
                {
                    let l = crate::qlz::match_len(data, c, pos, limit);
                    if l > best.0 {
                        best = (l, pos - c);
                        if l == limit {
                            break;
                        }
                    }
                }
                cand = self.prev[c];
                depth += 1;
            }
        }
        if best.0 < 4 && limit >= MIN_MATCH {
            // Short-match fallback via the pair table.
            let p = ((data[pos] as usize) << 8) | data[pos + 1] as usize;
            let c = self.pair[p];
            if c != u32::MAX {
                let c = c as usize;
                if c < pos && pos - c < 1 << MAX_DIST_BITS {
                    let dist = pos - c;
                    let l = crate::qlz::match_len(data, c, pos, limit);
                    if l >= MIN_MATCH && l > best.0 && worth_taking(l, dist) {
                        best = (l, dist);
                    }
                }
            }
        }
        if worth_taking(best.0, best.1) {
            best
        } else {
            (0, 0)
        }
    }
}

/// Compresses `input` into `out` (appending), allocating fresh working
/// memory. Thin wrapper over [`compress_with`]; hot paths should hold a
/// [`Scratch`] and call that instead.
pub fn compress(input: &[u8], out: &mut Vec<u8>) {
    compress_with(&mut Scratch::new(), input, out);
}

/// Compresses `input` into `out` (appending) using reusable working memory.
/// In steady state (same-size blocks) this performs no heap allocation: the
/// probability model is reset in place and the range coder writes directly
/// into `out`.
pub fn compress_with(scratch: &mut Scratch, input: &[u8], out: &mut Vec<u8>) {
    let n = input.len();
    out.reserve(scratch.out_hint(n));
    let out_start = out.len();
    let hs = scratch.heavy.get_or_insert_with(|| Box::new(HeavyScratch::new()));
    hs.prepare(n);
    let HeavyScratch { model: m, head, prev, pair } = &mut **hs;
    let mut rc = RangeEncoder::new(out);
    if n > 0 {
        let mut mf = MatchFinder { head, prev, pair };
        let mut i = 0usize;
        let mut prev_byte = 0u8;
        let mut state = 0usize; // 0 = after literal, 1 = after match
        while i < n {
            let (len, dist) = mf.find(input, i);
            let take_match = len >= MIN_MATCH && {
                // One-step lazy matching.
                if len < MAX_MATCH && i + 1 < n {
                    // Peek without inserting i first (finder state at i).
                    let (len2, dist2) = {
                        let mut tmp_best = (0usize, 0usize);
                        // Cheap peek: reuse finder on i+1; positions <= i are
                        // inserted, which is what a real lazy matcher sees
                        // minus position i itself — close enough for a
                        // heuristic.
                        let f = mf.find(input, i + 1);
                        if f.0 > tmp_best.0 {
                            tmp_best = f;
                        }
                        tmp_best
                    };
                    !(len2 > len + 1 && worth_taking(len2, dist2))
                } else {
                    true
                }
            };
            if take_match {
                rc.encode_bit(&mut m.is_match[state], 1);
                encode_len(&mut rc, m, len);
                encode_dist(&mut rc, m, len, dist);
                let end = i + len;
                let step = if len > 96 { 11 } else { 1 };
                while i < end {
                    mf.insert(input, i);
                    i += step;
                }
                i = end;
                prev_byte = input[end - 1];
                state = 1;
            } else {
                rc.encode_bit(&mut m.is_match[state], 0);
                let b = input[i];
                rc.encode_tree(&mut m.literal[lit_context(prev_byte)], 8, b as u32);
                mf.insert(input, i);
                prev_byte = b;
                i += 1;
                state = 0;
            }
        }
    }
    rc.finish();
    let produced = out.len() - out_start;
    scratch.note_out(produced);
}

/// Decompresses exactly `expected_len` bytes from `input` into `out`
/// (appending), allocating a fresh probability model. Thin wrapper over
/// [`decompress_with`]; hot paths should hold a
/// [`crate::scratch::DecodeScratch`] and call that instead.
pub fn decompress(input: &[u8], expected_len: usize, out: &mut Vec<u8>) -> Result<()> {
    decompress_with(&mut crate::scratch::DecodeScratch::new(), input, expected_len, out)
}

/// [`decompress`] with a reusable probability model: in steady state the
/// HEAVY decode path performs no heap allocation per block (the model is
/// reset in place — a freshly-reset model is state-identical to a new one,
/// so output bytes cannot differ). Match copies go through `copy_match`
/// (memcpy/memset/doubling chunks) instead of per-byte pushes.
///
/// Unlike the token decoders HEAVY grows `out` on demand and keeps no
/// pre-sized window: a range-coded payload has no useful bound on what it
/// expands to (a handful of bytes can encode megabytes of one match), so
/// the only bound would be the untrusted header's, and the range decoder —
/// not the copies — is what the time goes to.
pub fn decompress_with(
    scratch: &mut crate::scratch::DecodeScratch,
    input: &[u8],
    expected_len: usize,
    out: &mut Vec<u8>,
) -> Result<()> {
    let start = out.len();
    // Untrusted length: clamp the eager reservation; `out` grows on demand
    // to the bytes actually decoded, which corrupt input cannot push past
    // `expected_len` (the overrun check below).
    out.reserve(expected_len.min(crate::frame::DEFAULT_BLOCK_LEN * 2));
    let target = start + expected_len;
    if expected_len == 0 && input.is_empty() {
        return Ok(());
    }
    if input.len() < 5 {
        return Err(CodecError::Truncated);
    }
    let mut rc = RangeDecoder::new(input);
    let m = scratch.heavy_model.get_or_insert_with(|| Box::new(Model::new()));
    m.reset();
    let mut prev_byte = 0u8;
    let mut state = 0usize;
    while out.len() < target {
        if rc.decode_bit(&mut m.is_match[state]) == 0 {
            let b = rc.decode_tree(&mut m.literal[lit_context(prev_byte)], 8) as u8;
            out.push(b);
            prev_byte = b;
            state = 0;
        } else {
            let len = decode_len(&mut rc, m);
            let dist = decode_dist(&mut rc, m, len)?;
            let produced = out.len() - start;
            if dist == 0 || dist > produced {
                return Err(CodecError::Corrupt("match distance exceeds output"));
            }
            if out.len() + len > target {
                return Err(CodecError::Corrupt("match overruns expected length"));
            }
            copy_match(out, dist, len);
            prev_byte = out[out.len() - 1];
            state = 1;
        }
        // The frame header's length is not CRC-covered: a larger one asks
        // for symbols past the encoded ones, read from beyond the payload.
        if rc.unread().is_none() {
            return Err(CodecError::Truncated);
        }
    }
    // ... and a smaller one leaves encoded bytes unread.
    if rc.unread() != Some(0) {
        return Err(CodecError::Corrupt("trailing bytes after the last symbol"));
    }
    Ok(())
}

/// Appends `len` bytes from `off` bytes back in `out` — the LZ match copy.
/// Three shapes, each a bulk copy rather than a byte loop:
///
/// * `off >= len` — non-overlapping: one `extend_from_within` (a single
///   memcpy).
/// * `off == 1` — run-length: `resize` with the repeated byte (a memset).
/// * otherwise — overlapping with period `off`: doubling chunks; each
///   `extend_from_within` sources only already-written bytes, so the
///   periodic extension is byte-identical to the naive loop while doing
///   O(log(len/off)) copies instead of `len` pushes.
///
/// Caller guarantees `0 < off <= out.len()` (validated against the
/// produced length before the call).
#[inline]
fn copy_match(out: &mut Vec<u8>, off: usize, len: usize) {
    debug_assert!(off >= 1 && off <= out.len());
    let src = out.len() - off;
    if off >= len {
        out.extend_from_within(src..src + len);
    } else if off == 1 {
        let b = out[src];
        out.resize(out.len() + len, b);
    } else {
        let mut remaining = len;
        while remaining > 0 {
            let chunk = (out.len() - src).min(remaining);
            out.extend_from_within(src..src + chunk);
            remaining -= chunk;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let mut c = Vec::new();
        compress(data, &mut c);
        let mut d = Vec::new();
        decompress(&c, data.len(), &mut d).unwrap();
        assert_eq!(d, data, "roundtrip mismatch for len {}", data.len());
        c.len()
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        for data in [&b""[..], b"x", b"xy", b"xyz", b"aaaa", b"abcdefgh"] {
            roundtrip(data);
        }
    }

    #[test]
    fn roundtrip_repetitive_beats_nothing() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(200);
        let c = roundtrip(&data);
        assert!(c < data.len() / 5, "heavy should crush repeated text: {c}");
    }

    #[test]
    fn roundtrip_long_zero_runs() {
        let mut data = vec![0u8; 200_000];
        for i in (0..data.len()).step_by(4999) {
            data[i] = (i % 251) as u8;
        }
        let c = roundtrip(&data);
        assert!(c < 6000, "got {c}");
    }

    #[test]
    fn roundtrip_incompressible_overhead_bounded() {
        let mut x = 0xDEADBEEFu64;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let c = roundtrip(&data);
        // Adaptive literal coding on random data costs a tiny bit over 8
        // bits/byte.
        assert!(c < data.len() + data.len() / 16 + 64, "got {c}");
    }

    #[test]
    fn roundtrip_all_byte_values() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_overlap_matches() {
        let data = vec![b'z'; 5_000];
        let c = roundtrip(&data);
        assert!(c < 200, "RLE-style data should collapse, got {c}");
    }

    #[test]
    fn decompress_detects_bad_distance() {
        // Craft a stream decoding to a match with distance > produced:
        // fuzz a few corrupted real streams instead of hand-crafting.
        let data = b"abcdabcdabcdabcdabcdabcd".repeat(40);
        let mut c = Vec::new();
        compress(&data, &mut c);
        let mut bad = 0;
        for i in 5..c.len().min(60) {
            let mut cc = c.clone();
            cc[i] ^= 0xFF;
            let mut out = Vec::new();
            if decompress(&cc, data.len(), &mut out).is_err() || out != data {
                bad += 1;
            }
        }
        // Most single-byte corruptions must be detected or alter output
        // (frame CRC catches the rest).
        assert!(bad > 0);
    }

    #[test]
    fn expected_len_zero_reads_nothing() {
        let mut out = vec![1, 2, 3];
        decompress(&[], 0, &mut out).unwrap();
        assert_eq!(out, vec![1, 2, 3]);
    }
}
