//! COLUMNAR — a BtrBlocks-style cascade of lightweight byte encodings.
//!
//! Per block the compressor computes *exact* encoded sizes for four
//! schemes from one stats pass and emits the smallest (ties break toward
//! the lower scheme id, so selection is a pure deterministic function of
//! the input bytes):
//!
//! | scheme | layout after the scheme byte |
//! |---|---|
//! | 0 verbatim | the input bytes |
//! | 1 RLE | `(value u8, LEB128 run length)*` |
//! | 2 dict | `d u8, d sorted dict bytes, n × w-bit indices` |
//! | 3 cascade | `d u8, dict, LEB128 run count, runs × w-bit indices, runs × LEB128 lengths` |
//!
//! `w = ceil(log2(d))` (0 when the dictionary has one entry — indices
//! vanish entirely); index bits are packed LSB-first. The cascade is
//! RLE-over-dictionary: run *values* are dictionary indices, so a column
//! of long runs over a tiny alphabet pays ~`(w bits + varint)` per run.
//!
//! The encoder finds a block's runs once, a word at a time, into a run list
//! held by [`Scratch`] (at most `ceil(n/2)` ends: past `n/2` runs only
//! verbatim and the dictionary can win, and the byte set settles those),
//! and writes the winner from that list through the token span; steady
//! state is allocation-free. The byte-at-a-time encoder it replaced is the
//! test-only oracle `tests/reference/mod.rs::columnar_compress_reference`,
//! held byte-identical by the differential suite. Decoders are
//! bounds-hardened: typed [`CodecError`]s on damage, never panics, and the
//! independent per-bit oracle (`columnar_reference`, also test-only) is
//! pinned to identical output and identical errors.

use crate::scratch::{ensure_len_uninit, token_span};
use crate::{CodecError, Result, Scratch};

const SCHEME_VERBATIM: u8 = 0;
const SCHEME_RLE: u8 = 1;
const SCHEME_DICT: u8 = 2;
const SCHEME_CASCADE: u8 = 3;

/// Encoded size of `v` as a LEB128 varint.
#[inline]
fn varint_len(v: u32) -> usize {
    match v {
        0..=0x7F => 1,
        0x80..=0x3FFF => 2,
        0x4000..=0x1F_FFFF => 3,
        0x20_0000..=0xFFF_FFFF => 4,
        _ => 5,
    }
}

/// `v` as a LEB128 varint in the low bytes of a word, and its byte count.
#[inline]
fn varint_word(mut v: u32) -> (u64, usize) {
    let mut word = 0u64;
    let mut len = 0;
    while v >= 0x80 {
        word |= (u64::from(v as u8) | 0x80) << (8 * len);
        v >>= 7;
        len += 1;
    }
    (word | u64::from(v) << (8 * len), len + 1)
}

/// Reads a LEB128 varint at `pos`; advances `pos`.
#[inline]
fn read_varint(input: &[u8], pos: &mut usize) -> Result<u32> {
    let mut v = 0u32;
    let mut shift = 0u32;
    loop {
        let b = *input.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if shift == 28 && b > 0x0F {
            return Err(CodecError::Corrupt("varint overflow"));
        }
        if shift > 28 {
            return Err(CodecError::Corrupt("varint too long"));
        }
        v |= ((b & 0x7F) as u32) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Index width in bits for a `d`-entry dictionary.
#[inline]
fn index_width(d: usize) -> u32 {
    if d <= 1 {
        0
    } else {
        usize::BITS - (d - 1).leading_zeros()
    }
}

/// The run ends in `input[i + 1..i + 9]` as a mask of byte top bits:
/// bytes `i..i + 8` XORed with bytes `i + 1..i + 9` are nonzero at byte `j`
/// exactly when a run ends at `i + j + 1`, and the low 7 bits of a byte
/// carry into its top bit (never past it) unless they are zero.
#[inline(always)]
fn end_mask(input: &[u8], i: usize) -> u64 {
    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    let a = u64::from_le_bytes(input[i..i + 8].try_into().unwrap());
    let b = u64::from_le_bytes(input[i + 1..i + 9].try_into().unwrap());
    let x = a ^ b;
    ((x & LOW7).wrapping_add(LOW7) | x) & !LOW7
}

/// Finds the maximal runs of `input` (non-empty) a word at a time and
/// writes the end (exclusive) of each into `ends` in order; returns how
/// many, or `None` once `n / 2` runs have ended before the last one.
///
/// A word inside a run costs two loads and a compare; a word with run
/// ends has its [`end_mask`] walked with `trailing_zeros`.
///
/// The stop: `b` known run ends mean at least `b + 1` runs, and from `n / 2`
/// runs on neither RLE (`1 + runs + Σ varints ≥ 1 + 2·runs ≥ 1 + n`, the
/// verbatim size, which wins ties) nor the cascade (longer than the
/// dictionary: its indices alone need `ceil(runs·w/8)` bytes and its
/// lengths at least `runs`, together more than `ceil(n·w/8)`) can be the
/// smallest. So `ends` needs `ceil(n/2)` entries and no more.
fn find_runs(input: &[u8], ends: &mut [u32]) -> Option<usize> {
    let n = input.len();
    let stop = n / 2;
    let mut k = 0usize;
    let mut i = 0usize;
    while i + 9 <= n {
        let mut mask = end_mask(input, i);
        while mask != 0 {
            ends[k] = (i + (mask.trailing_zeros() / 8) as usize + 1) as u32;
            k += 1;
            if k == stop {
                return None;
            }
            mask &= mask - 1;
        }
        i += 8;
    }
    while i + 1 < n {
        if input[i] != input[i + 1] {
            ends[k] = (i + 1) as u32;
            k += 1;
            if k == stop {
                return None;
            }
        }
        i += 1;
    }
    ends[k] = n as u32;
    Some(k + 1)
}

/// Compresses `input` using reusable working memory, appending the scheme
/// byte + payload to `out`. Pure: the chosen scheme and every output byte
/// are a deterministic function of `input` alone.
///
/// One pass finds the runs (`find_runs`, into `Scratch::run_ends`); the
/// stats (runs, their varint bytes, the byte set) come from that list, and
/// the winner is written from it into the token span (`Scratch::tokens`)
/// through a cursor and appended to `out` once.
pub fn compress(scratch: &mut Scratch, input: &[u8], out: &mut Vec<u8>) {
    let n = input.len();
    if n == 0 {
        out.push(SCHEME_VERBATIM);
        return;
    }
    debug_assert!(n <= u32::MAX as usize, "run ends are u32");
    ensure_len_uninit(&mut scratch.run_ends, n.div_ceil(2));
    let runs = find_runs(input, &mut scratch.run_ends[..n.div_ceil(2)]);
    let ends = &scratch.run_ends[..runs.unwrap_or(0)];

    let mut present = [false; 256];
    let mut run_varint_bytes = 0usize;
    if runs.is_some() {
        let mut start = 0;
        for &end in ends {
            present[input[start] as usize] = true;
            run_varint_bytes += varint_len(end - start as u32);
            start = end as usize;
        }
    } else {
        input.iter().for_each(|&b| present[b as usize] = true);
    }
    let distinct = present.iter().filter(|&&p| p).count();
    let w = index_width(distinct);

    // Exact sizes; a scheme that cannot win (RLE and the cascade past the
    // stop, dict and the cascade over 256 values) is `usize::MAX`.
    let verbatim = 1 + n;
    let rle = runs.map_or(usize::MAX, |r| 1 + r + run_varint_bytes);
    let (dict, cascade) = if distinct <= 255 {
        let dict = 2 + distinct + (n * w as usize).div_ceil(8);
        let cascade = runs.map_or(usize::MAX, |r| {
            2 + distinct + varint_len(r as u32) + (r * w as usize).div_ceil(8) + run_varint_bytes
        });
        (dict, cascade)
    } else {
        (usize::MAX, usize::MAX)
    };

    let best = verbatim.min(rle).min(dict).min(cascade);
    if best == verbatim {
        out.push(SCHEME_VERBATIM);
        out.extend_from_slice(input);
        return;
    }
    let mut s = Span {
        span: token_span(&mut scratch.tokens, best + Span::SLACK),
        pos: 0,
    };
    if best == rle {
        s.byte(SCHEME_RLE);
        let mut start = 0;
        for &end in ends {
            let (len, len_bytes) = varint_word(end - start);
            s.store(u64::from(input[start as usize]) | len << 8, 1 + len_bytes);
            start = end;
        }
    } else if best == dict {
        s.byte(SCHEME_DICT);
        let rank = s.dict(&present, distinct);
        s.indices(n, |i| input[i], &rank, w);
    } else {
        s.byte(SCHEME_CASCADE);
        let rank = s.dict(&present, distinct);
        s.varint(ends.len() as u32);
        // Each run's value is the byte that opens it.
        let value = |run: usize| input[if run == 0 { 0 } else { ends[run - 1] as usize }];
        s.indices(ends.len(), value, &rank, w);
        let mut start = 0;
        for &end in ends {
            s.varint(end - start);
            start = end;
        }
    }
    debug_assert_eq!(s.pos, best, "exact size");
    out.extend_from_slice(&s.span[..s.pos]);
}

/// Writer over the token span (see `crate::scratch`): a cursor, and
/// stores of a whole word of which only the first bytes count — the rest
/// lands past the cursor, where the next item overwrites it.
struct Span<'a> {
    span: &'a mut [u8],
    pos: usize,
}

impl Span<'_> {
    /// Room past the stream's exact size: each 8-byte store carries at
    /// least one byte of the stream, so it ends at most 7 bytes past it.
    const SLACK: usize = 7;

    #[inline]
    fn byte(&mut self, b: u8) {
        self.span[self.pos] = b;
        self.pos += 1;
    }

    /// Stores `word` and keeps its low `len` bytes (`1..=8`).
    #[inline]
    fn store(&mut self, word: u64, len: usize) {
        self.span[self.pos..self.pos + 8].copy_from_slice(&word.to_le_bytes());
        self.pos += len;
    }

    #[inline]
    fn varint(&mut self, v: u32) {
        let (word, len) = varint_word(v);
        self.store(word, len);
    }

    /// Writes `d` + the sorted dictionary, returning the value→rank table.
    fn dict(&mut self, present: &[bool; 256], distinct: usize) -> [u8; 256] {
        self.byte(distinct as u8); // 1..=255 by construction
        let mut rank = [0u8; 256];
        let mut next = 0u8;
        for (v, slot) in rank.iter_mut().enumerate() {
            if present[v] {
                self.byte(v as u8);
                *slot = next;
                next = next.wrapping_add(1);
            }
        }
        rank
    }

    /// Packs the `w`-bit ranks of `value(0..count)` LSB-first. Eight
    /// indices fill exactly `w` bytes, so each group of eight is one store;
    /// a last, partial group keeps the bytes its bits reach.
    #[inline]
    fn indices(&mut self, count: usize, value: impl Fn(usize) -> u8, rank: &[u8; 256], w: u32) {
        if w == 0 {
            return;
        }
        let group = |from: usize, len: usize| {
            (0..len).fold(0u64, |acc, j| {
                acc | u64::from(rank[value(from + j) as usize]) << (j as u32 * w)
            })
        };
        let whole = count / 8 * 8;
        for from in (0..whole).step_by(8) {
            self.store(group(from, 8), w as usize);
        }
        if count > whole {
            self.store(group(whole, count - whole), ((count - whole) * w as usize).div_ceil(8));
        }
    }
}

// --- decoding -----------------------------------------------------------

/// Reads the `d` byte + dictionary at `pos`, enforcing the canonical
/// (strictly ascending) form both encoders emit.
fn read_dict<'a>(input: &'a [u8], pos: &mut usize) -> Result<&'a [u8]> {
    let d = *input.get(*pos).ok_or(CodecError::Truncated)? as usize;
    *pos += 1;
    if d == 0 {
        return Err(CodecError::Corrupt("empty dictionary"));
    }
    let dict = input.get(*pos..*pos + d).ok_or(CodecError::Truncated)?;
    *pos += d;
    for win in dict.windows(2) {
        if win[0] >= win[1] {
            return Err(CodecError::Corrupt("dictionary not sorted"));
        }
    }
    Ok(dict)
}

/// LSB-first extractor over a fixed byte range of the input.
struct BitUnpacker<'a> {
    bytes: &'a [u8],
    acc: u64,
    nbits: u32,
    pos: usize,
}

impl<'a> BitUnpacker<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitUnpacker { bytes, acc: 0, nbits: 0, pos: 0 }
    }

    /// Takes `n` bits (n <= 8); the section length was validated up front,
    /// so exhaustion cannot occur mid-stream.
    #[inline]
    fn take(&mut self, n: u32) -> u32 {
        while self.nbits < n {
            self.acc |= (self.bytes[self.pos] as u64) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
        let v = (self.acc & ((1u64 << n) - 1)) as u32;
        self.acc >>= n;
        self.nbits -= n;
        v
    }
}

/// Decompresses a COLUMNAR payload (exactly `expected_len` output bytes),
/// appending to `out`. Identical output and identical errors to the per-bit
/// oracle on every input — the differential contract.
pub fn decompress(input: &[u8], expected_len: usize, out: &mut Vec<u8>) -> Result<()> {
    let scheme = *input.first().ok_or(CodecError::Truncated)?;
    let body = &input[1..];
    match scheme {
        SCHEME_VERBATIM => {
            if body.len() != expected_len {
                return Err(CodecError::Corrupt("verbatim length mismatch"));
            }
            out.extend_from_slice(body);
            Ok(())
        }
        SCHEME_RLE => {
            let start = out.len();
            let mut pos = 0usize;
            while out.len() - start < expected_len {
                let v = *body.get(pos).ok_or(CodecError::Truncated)?;
                pos += 1;
                let run = read_varint(body, &mut pos)? as usize;
                if run == 0 {
                    return Err(CodecError::Corrupt("zero-length run"));
                }
                if out.len() - start + run > expected_len {
                    return Err(CodecError::Corrupt("run overruns expected length"));
                }
                out.resize(out.len() + run, v);
            }
            if pos != body.len() {
                return Err(CodecError::Corrupt("trailing bytes after runs"));
            }
            Ok(())
        }
        SCHEME_DICT => {
            let mut pos = 0usize;
            let dict = read_dict(body, &mut pos)?;
            let w = index_width(dict.len());
            if w == 0 {
                if pos != body.len() {
                    return Err(CodecError::Corrupt("trailing bytes after dictionary"));
                }
                out.resize(out.len() + expected_len, dict[0]);
                return Ok(());
            }
            let need = (expected_len * w as usize).div_ceil(8);
            let section = body.get(pos..).filter(|s| s.len() >= need).ok_or(CodecError::Truncated)?;
            if section.len() > need {
                return Err(CodecError::Corrupt("trailing bytes after indices"));
            }
            let mut bits = BitUnpacker::new(section);
            let d = dict.len() as u32;
            for _ in 0..expected_len {
                let idx = bits.take(w);
                if idx >= d {
                    return Err(CodecError::Corrupt("dictionary index out of range"));
                }
                out.push(dict[idx as usize]);
            }
            Ok(())
        }
        SCHEME_CASCADE => {
            let start = out.len();
            let mut pos = 0usize;
            let dict = read_dict(body, &mut pos)?;
            let w = index_width(dict.len());
            let runs = read_varint(body, &mut pos)? as usize;
            let index_bytes = (runs * w as usize).div_ceil(8);
            let index_section =
                body.get(pos..pos + index_bytes).ok_or(CodecError::Truncated)?;
            pos += index_bytes;
            let mut bits = BitUnpacker::new(index_section);
            let d = dict.len() as u32;
            for _ in 0..runs {
                let idx = bits.take(w);
                if idx >= d {
                    return Err(CodecError::Corrupt("dictionary index out of range"));
                }
                let run = read_varint(body, &mut pos)? as usize;
                if run == 0 {
                    return Err(CodecError::Corrupt("zero-length run"));
                }
                if out.len() - start + run > expected_len {
                    return Err(CodecError::Corrupt("run overruns expected length"));
                }
                out.resize(out.len() + run, dict[idx as usize]);
            }
            if out.len() - start != expected_len {
                return Err(CodecError::Corrupt("cascade ended before expected length"));
            }
            if pos != body.len() {
                return Err(CodecError::Corrupt("trailing bytes after runs"));
            }
            Ok(())
        }
        _ => Err(CodecError::Corrupt("unknown columnar scheme")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{columnar_compress_reference, columnar_reference};

    fn roundtrip(data: &[u8]) -> u8 {
        let mut wire = Vec::new();
        compress(&mut Scratch::new(), data, &mut wire);
        let mut oracle = Vec::new();
        columnar_compress_reference(data, &mut oracle);
        assert_eq!(wire, oracle, "encoder and oracle differ");
        let mut out = Vec::new();
        decompress(&wire, data.len(), &mut out).unwrap();
        assert_eq!(out, data);
        let mut slow = Vec::new();
        columnar_reference(&wire, data.len(), &mut slow).unwrap();
        assert_eq!(slow, data);
        wire[0]
    }

    #[test]
    fn scheme_selection_is_content_aware() {
        // Long runs over a tiny alphabet → cascade beats plain RLE.
        let runs: Vec<u8> = (0..64).flat_map(|i| vec![(i % 3) as u8 * 7; 500]).collect();
        assert_eq!(roundtrip(&runs), SCHEME_CASCADE);
        // Small alphabet, no runs → dictionary bit-packing.
        let dict: Vec<u8> = (0..4096).map(|i| [3u8, 9, 14, 200][i % 4]).collect();
        assert_eq!(roundtrip(&dict), SCHEME_DICT);
        // Constant block → one-entry dictionary, zero index bits.
        assert_eq!(roundtrip(&vec![42u8; 10_000]), SCHEME_DICT);
        // Incompressible bytes → verbatim.
        let noise: Vec<u8> = (0..1000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        assert_eq!(roundtrip(&noise), SCHEME_VERBATIM);
        // 256 distinct values with heavy runs → RLE (dict ineligible).
        let mut wide_runs = Vec::new();
        for v in 0..=255u8 {
            wide_runs.extend(std::iter::repeat_n(v, 40));
        }
        assert_eq!(roundtrip(&wide_runs), SCHEME_RLE);
    }

    #[test]
    fn empty_and_tiny_blocks() {
        roundtrip(b"");
        roundtrip(b"x");
        roundtrip(b"ab");
        roundtrip(&[0, 0, 0]);
    }

    #[test]
    fn ratio_on_run_heavy_blocks() {
        let runs: Vec<u8> = (0..128).flat_map(|i| vec![(i % 5) as u8; 1000]).collect();
        let mut wire = Vec::new();
        compress(&mut Scratch::new(), &runs, &mut wire);
        assert!(wire.len() < runs.len() / 50, "{} of {}", wire.len(), runs.len());
    }

    #[test]
    fn damage_yields_typed_errors() {
        let data: Vec<u8> = (0..2000).map(|i| [5u8, 6, 7][i % 3]).collect();
        let mut wire = Vec::new();
        compress(&mut Scratch::new(), &data, &mut wire);
        for keep in 0..wire.len() {
            let mut out = Vec::new();
            assert!(
                decompress(&wire[..keep], data.len(), &mut out).is_err(),
                "cut {keep} of {}",
                wire.len()
            );
        }
        let mut out = Vec::new();
        assert_eq!(decompress(&[], 4, &mut out), Err(CodecError::Truncated));
        let mut out = Vec::new();
        assert_eq!(
            decompress(&[9, 1, 2], 4, &mut out),
            Err(CodecError::Corrupt("unknown columnar scheme"))
        );
        // Unsorted dictionary is rejected.
        let mut out = Vec::new();
        assert_eq!(
            decompress(&[SCHEME_DICT, 2, 7, 7, 0], 4, &mut out),
            Err(CodecError::Corrupt("dictionary not sorted"))
        );
    }

    /// The word-at-a-time finder against the byte loop, at every length
    /// 0..=40 (every position of a boundary in and after the last word) and
    /// every run shape a 3-letter alphabet gives, with the run list cut to
    /// `ceil(n/2)` entries as `compress` cuts it.
    #[test]
    fn find_runs_matches_the_byte_loop() {
        for n in 1..=40usize {
            for seed in 0..64u32 {
                let data: Vec<u8> = (0..n as u32)
                    .map(|i| ((i ^ seed).wrapping_mul(2_654_435_761) >> (seed % 29)) as u8 % 3)
                    .collect();
                let mut naive: Vec<u32> =
                    (1..n).filter(|&i| data[i] != data[i - 1]).map(|i| i as u32).collect();
                naive.push(n as u32);
                let mut ends = vec![0u32; n.div_ceil(2)];
                match find_runs(&data, &mut ends) {
                    Some(k) => assert_eq!(&ends[..k], &naive[..], "n={n} seed={seed}"),
                    None => assert!(2 * naive.len() > n, "stopped at {} runs, n={n}", naive.len()),
                }
                if 2 * naive.len() > n + 1 {
                    assert_eq!(find_runs(&data, &mut ends), None, "n={n} seed={seed}");
                }
            }
        }
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u32, 1, 127, 128, 16383, 16384, 1 << 21, u32::MAX] {
            let (word, len) = varint_word(v);
            let buf = &word.to_le_bytes()[..len];
            assert_eq!(len, varint_len(v));
            let mut pos = 0;
            assert_eq!(read_varint(buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        // 5-byte varint with illegal high bits → corrupt, not wraparound.
        let mut pos = 0;
        assert_eq!(
            read_varint(&[0xFF, 0xFF, 0xFF, 0xFF, 0x1F], &mut pos),
            Err(CodecError::Corrupt("varint overflow"))
        );
    }
}
