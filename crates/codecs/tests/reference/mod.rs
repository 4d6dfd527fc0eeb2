//! The oracles: naive implementations the optimized hot loops are held to.
//!
//! Each is the obvious loop — a byte, a bit, a table-free step at a time —
//! and shares no helper, table or constant with the code it checks (the
//! format constants are restated here from the format descriptions). They
//! exist only for tests and are not part of the library: the crate's unit
//! tests `#[path]`-include this file under `cfg(test)`, and
//! `tests/{differential,hot_loops,scratch_and_matchlen}.rs` include it as a
//! module of their own.
//!
//! The contract, per decoder: **identical output bytes, identical
//! [`CodecError`] and identical partial output before the error** on every
//! input — valid, flipped, truncated, wrong declared length. Per encoder
//! (`columnar_compress_reference`): identical output bytes on every input.

use adcomp_codecs::{CodecError, Result};

/// A block decoder: `(input, expected_len, out)`.
pub type Decoder = fn(&[u8], usize, &mut Vec<u8>) -> Result<()>;

/// Runs an optimized decoder and its oracle on the same input and asserts
/// identical results and identical (partial) output. The optimized decoder
/// runs three times: into an empty `out` (a token decoder's window gets
/// its full slack), behind a prefix, which must survive, and into a buffer
/// of exactly `expected_len` bytes of capacity (no slack: the window's
/// last bytes take the exact-length copies).
pub fn assert_agree(fast_fn: Decoder, slow_fn: Decoder, input: &[u8], expected_len: usize) {
    const PREFIX: &[u8] = b"already here";
    let mut slow = Vec::new();
    let slow_res = slow_fn(input, expected_len, &mut slow);
    let outs = [Vec::new(), PREFIX.to_vec(), Vec::with_capacity(expected_len.min(1 << 20))];
    for (shape, mut fast) in outs.into_iter().enumerate() {
        let start = fast.len();
        let fast_res = fast_fn(input, expected_len, &mut fast);
        assert_eq!(fast_res, slow_res, "result mismatch (expected_len={expected_len}, out {shape})");
        assert_eq!(&fast[..start], &PREFIX[..start], "prefix damaged (out {shape})");
        assert_eq!(&fast[start..], &slow[..], "output mismatch (expected_len={expected_len}, out {shape})");
    }
}

/// [`assert_agree`] at the stream's own length and at `delta` bytes off it:
/// a declared length up to 32 bytes wrong moves the end of the window
/// across the fixed-width copies' overshoot.
pub fn assert_agree_near(fast_fn: Decoder, slow_fn: Decoder, input: &[u8], len: usize, delta: i64) {
    assert_agree(fast_fn, slow_fn, input, len);
    assert_agree(fast_fn, slow_fn, input, (len as i64 + delta).max(0) as usize);
}

/// `n` bytes, each `>= lo` (`lo < 255`), with no 4-byte string repeated
/// less than `4 * b²` bytes apart, `b = 255 - lo` — so an LZ parse over a
/// shorter window finds no match and writes every byte as a literal: the
/// longest stream an encoder can write. The input is the 4-byte words
/// `[255, d2, d1, d0]` of a counter `k` in base `b` with digits `lo..=254`.
/// The marker fixes where in a word any 4 bytes start, and each start
/// names its word: the whole of `k` at offsets 0 and 1, `k mod b²` at 2,
/// and at 3 `d0(k)` with `k + 1`'s top two digits (`d0(k + 1)` is
/// `d0(k) + 1 mod b`).
pub fn repeat_free(n: usize, lo: u8) -> Vec<u8> {
    let b = 255 - lo as usize;
    let digit = |v: usize| lo + (v % b) as u8;
    (0..n.div_ceil(4))
        .flat_map(|k| [255, digit(k / b / b), digit(k / b), digit(k)])
        .take(n)
        .collect()
}

// --- qlz ------------------------------------------------------------------

/// Byte-at-a-time `qlz::match_len`.
pub fn match_len_naive(data: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let mut n = 0;
    while n < limit && data[a + n] == data[b + n] {
        n += 1;
    }
    n
}

/// Byte-at-a-time `qlz::decompress`: one control bit, one literal push or
/// one byte-wise match copy per step.
pub fn decompress_reference(input: &[u8], expected_len: usize, out: &mut Vec<u8>) -> Result<()> {
    const MIN_MATCH: usize = 4;
    let start = out.len();
    let target = start + expected_len;
    let mut p = 0usize;
    'outer: while out.len() < target {
        if p >= input.len() {
            return Err(CodecError::Truncated);
        }
        let ctrl = input[p];
        p += 1;
        for bit in 0..8 {
            if out.len() == target {
                break 'outer;
            }
            if ctrl >> bit & 1 == 0 {
                let &b = input.get(p).ok_or(CodecError::Truncated)?;
                out.push(b);
                p += 1;
            } else {
                if p + 3 > input.len() {
                    return Err(CodecError::Truncated);
                }
                let len = input[p] as usize + MIN_MATCH;
                let off = u16::from_le_bytes([input[p + 1], input[p + 2]]) as usize;
                p += 3;
                let produced = out.len() - start;
                if off == 0 || off > produced {
                    return Err(CodecError::Corrupt("match offset out of range"));
                }
                if out.len() + len > target {
                    return Err(CodecError::Corrupt("match overruns expected length"));
                }
                // Overlapping copies must run byte-by-byte.
                for _ in 0..len {
                    let b = out[out.len() - off];
                    out.push(b);
                }
            }
        }
    }
    if p != input.len() {
        return Err(CodecError::Corrupt("trailing bytes after stream end"));
    }
    Ok(())
}

// --- huff -----------------------------------------------------------------

/// RFC 1951 §3.2.5: length-code bases and extra-bit counts for symbols
/// 257 + i, distance-code bases and extra-bit counts for symbols 0..=29.
/// (`pub` for the suites that hand-build streams.)
pub const LEN_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115,
    131, 163, 195, 227, 258,
];
pub const LEN_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
pub const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
pub const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12,
    13, 13,
];

/// Bit-at-a-time `huff::decompress`: walks the fixed tree by code ranges,
/// copies matches byte by byte.
pub fn huff_reference(input: &[u8], expected_len: usize, out: &mut Vec<u8>) -> Result<()> {
    let start = out.len();
    let mut bitpos = 0usize; // absolute bit index into input
    let total_bits = input.len() * 8;
    let mut read_bit = |bitpos: &mut usize| -> Result<u32> {
        if *bitpos >= total_bits {
            return Err(CodecError::Truncated);
        }
        let b = (input[*bitpos / 8] >> (*bitpos % 8)) & 1;
        *bitpos += 1;
        Ok(b as u32)
    };
    let read_extra =
        |bitpos: &mut usize, n: u32, rb: &mut dyn FnMut(&mut usize) -> Result<u32>| -> Result<u32> {
            let mut v = 0u32;
            for i in 0..n {
                v |= rb(bitpos)? << i;
            }
            Ok(v)
        };
    loop {
        // Canonical walk: accumulate MSB-first code bits until a range of
        // the fixed tree matches.
        let mut code = 0u32;
        let mut len = 0u8;
        let sym: usize = loop {
            code = (code << 1) | read_bit(&mut bitpos)?;
            len += 1;
            match (len, code) {
                (7, c) if c < 24 => break 256 + c as usize,
                (8, c) if (0x30..=0xBF).contains(&c) => break c as usize - 0x30,
                (8, c) if (0xC0..=0xC7).contains(&c) => break 280 + (c as usize - 0xC0),
                (9, c) if (0x190..=0x1FF).contains(&c) => break 144 + (c as usize - 0x190),
                (9, _) => unreachable!("the fixed litlen tree is complete"),
                _ => {}
            }
        };
        if sym < 256 {
            if out.len() - start >= expected_len {
                return Err(CodecError::Corrupt("output overruns expected length"));
            }
            out.push(sym as u8);
            continue;
        }
        if sym == 256 {
            if out.len() - start != expected_len {
                return Err(CodecError::Corrupt("block ended before expected length"));
            }
            return Ok(());
        }
        if sym > 285 {
            return Err(CodecError::Corrupt("invalid length symbol"));
        }
        let lc = sym - 257;
        let len = LEN_BASE[lc] as usize
            + read_extra(&mut bitpos, LEN_EXTRA[lc] as u32, &mut read_bit)? as usize;
        let mut dcode = 0u32;
        for _ in 0..5 {
            dcode = (dcode << 1) | read_bit(&mut bitpos)?;
        }
        let dsym = dcode as usize;
        if dsym > 29 {
            return Err(CodecError::Corrupt("invalid distance symbol"));
        }
        let dist = DIST_BASE[dsym] as usize
            + read_extra(&mut bitpos, DIST_EXTRA[dsym] as u32, &mut read_bit)? as usize;
        let produced = out.len() - start;
        if dist > produced {
            return Err(CodecError::Corrupt("match offset out of range"));
        }
        if produced + len > expected_len {
            return Err(CodecError::Corrupt("match overruns expected length"));
        }
        for _ in 0..len {
            let b = out[out.len() - dist];
            out.push(b);
        }
    }
}

// --- columnar -------------------------------------------------------------

/// Byte-at-a-time `columnar::compress`, the encoder it replaced: one pass
/// that walks every run byte by byte for the stats, exact sizes of the four
/// schemes (ties to the lower id), then the winner written with `push`es —
/// the runs walked again for RLE, twice more for the cascade.
pub fn columnar_compress_reference(input: &[u8], out: &mut Vec<u8>) {
    const SCHEME_VERBATIM: u8 = 0;
    const SCHEME_RLE: u8 = 1;
    const SCHEME_DICT: u8 = 2;
    const SCHEME_CASCADE: u8 = 3;

    fn varint_len(v: u32) -> usize {
        match v {
            0..=0x7F => 1,
            0x80..=0x3FFF => 2,
            0x4000..=0x1F_FFFF => 3,
            0x20_0000..=0xFFF_FFFF => 4,
            _ => 5,
        }
    }
    fn push_varint(out: &mut Vec<u8>, mut v: u32) {
        loop {
            let b = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                out.push(b);
                break;
            }
            out.push(b | 0x80);
        }
    }
    fn index_width(d: usize) -> u32 {
        let mut w = 0;
        while (1usize << w) < d {
            w += 1;
        }
        w
    }
    /// Calls `f(value, run_len)` for each maximal run.
    fn each_run(input: &[u8], mut f: impl FnMut(u8, u32)) {
        let mut i = 0usize;
        while i < input.len() {
            let v = input[i];
            let mut j = i + 1;
            while j < input.len() && input[j] == v {
                j += 1;
            }
            f(v, (j - i) as u32);
            i = j;
        }
    }
    /// LSB-first bit packer appending whole bytes.
    struct BitPacker {
        acc: u64,
        nbits: u32,
    }
    impl BitPacker {
        fn push(&mut self, out: &mut Vec<u8>, bits: u32, n: u32) {
            self.acc |= (bits as u64) << self.nbits;
            self.nbits += n;
            while self.nbits >= 8 {
                out.push(self.acc as u8);
                self.acc >>= 8;
                self.nbits -= 8;
            }
        }
        fn finish(self, out: &mut Vec<u8>) {
            if self.nbits > 0 {
                out.push(self.acc as u8);
            }
        }
    }

    let n = input.len();
    if n == 0 {
        out.push(SCHEME_VERBATIM);
        return;
    }
    let mut present = [false; 256];
    let (mut runs, mut run_varint_bytes) = (0usize, 0usize);
    each_run(input, |v, len| {
        present[v as usize] = true;
        runs += 1;
        run_varint_bytes += varint_len(len);
    });
    let distinct = present.iter().filter(|&&p| p).count();
    let w = index_width(distinct);

    let verbatim = 1 + n;
    let rle = 1 + runs + run_varint_bytes;
    let (dict, cascade) = if distinct <= 255 {
        let dict = 2 + distinct + (n * w as usize).div_ceil(8);
        let cascade = 2
            + distinct
            + varint_len(runs as u32)
            + (runs * w as usize).div_ceil(8)
            + run_varint_bytes;
        (dict, cascade)
    } else {
        (usize::MAX, usize::MAX)
    };
    // `d` + the sorted dictionary; the value -> rank table.
    let emit_dict = |out: &mut Vec<u8>| {
        out.push(distinct as u8);
        let mut rank = [0u8; 256];
        let mut next = 0u8;
        for v in 0..256 {
            if present[v] {
                out.push(v as u8);
                rank[v] = next;
                next = next.wrapping_add(1);
            }
        }
        rank
    };

    let best = verbatim.min(rle).min(dict).min(cascade);
    if best == verbatim {
        out.push(SCHEME_VERBATIM);
        out.extend_from_slice(input);
    } else if best == rle {
        out.push(SCHEME_RLE);
        each_run(input, |v, len| {
            out.push(v);
            push_varint(out, len);
        });
    } else if best == dict {
        out.push(SCHEME_DICT);
        let rank = emit_dict(out);
        let mut packer = BitPacker { acc: 0, nbits: 0 };
        for &b in input {
            packer.push(out, rank[b as usize] as u32, w);
        }
        packer.finish(out);
    } else {
        out.push(SCHEME_CASCADE);
        let rank = emit_dict(out);
        push_varint(out, runs as u32);
        let mut packer = BitPacker { acc: 0, nbits: 0 };
        each_run(input, |v, _| packer.push(out, rank[v as usize] as u32, w));
        packer.finish(out);
        each_run(input, |_, len| push_varint(out, len));
    }
}

/// Per-bit `columnar::decompress`: one index bit, one output byte at a
/// time, with its own varint and dictionary readers.
pub fn columnar_reference(input: &[u8], expected_len: usize, out: &mut Vec<u8>) -> Result<()> {
    const SCHEME_VERBATIM: u8 = 0;
    const SCHEME_RLE: u8 = 1;
    const SCHEME_DICT: u8 = 2;
    const SCHEME_CASCADE: u8 = 3;

    /// Index width in bits for a `d`-entry dictionary: ceil(log2(d)).
    fn index_width(d: usize) -> u32 {
        let mut w = 0;
        while (1usize << w) < d {
            w += 1;
        }
        w
    }
    /// Slot `slot` of a section of `w`-bit indices packed LSB-first.
    fn index_at(bytes: &[u8], slot: usize, w: u32) -> u32 {
        let mut v = 0u32;
        for b in 0..w as usize {
            let i = slot * w as usize + b;
            v |= (((bytes[i / 8] >> (i % 8)) & 1) as u32) << b;
        }
        v
    }
    fn varint(body: &[u8], pos: &mut usize) -> Result<u32> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            if *pos >= body.len() {
                return Err(CodecError::Truncated);
            }
            let b = body[*pos];
            *pos += 1;
            if shift == 28 && b > 0x0F {
                return Err(CodecError::Corrupt("varint overflow"));
            }
            if shift > 28 {
                return Err(CodecError::Corrupt("varint too long"));
            }
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v as u32);
            }
            shift += 7;
        }
    }
    fn dict_at<'a>(body: &'a [u8], pos: &mut usize) -> Result<&'a [u8]> {
        if *pos >= body.len() {
            return Err(CodecError::Truncated);
        }
        let d = body[*pos] as usize;
        *pos += 1;
        if d == 0 {
            return Err(CodecError::Corrupt("empty dictionary"));
        }
        if body.len() - *pos < d {
            return Err(CodecError::Truncated);
        }
        let dict = &body[*pos..*pos + d];
        *pos += d;
        let mut k = 1;
        while k < dict.len() {
            if dict[k - 1] >= dict[k] {
                return Err(CodecError::Corrupt("dictionary not sorted"));
            }
            k += 1;
        }
        Ok(dict)
    }

    if input.is_empty() {
        return Err(CodecError::Truncated);
    }
    let scheme = input[0];
    let body = &input[1..];
    match scheme {
        SCHEME_VERBATIM => {
            if body.len() != expected_len {
                return Err(CodecError::Corrupt("verbatim length mismatch"));
            }
            for &b in body {
                out.push(b);
            }
            Ok(())
        }
        SCHEME_RLE => {
            let start = out.len();
            let mut pos = 0usize;
            while out.len() - start < expected_len {
                if pos >= body.len() {
                    return Err(CodecError::Truncated);
                }
                let v = body[pos];
                pos += 1;
                let run = varint(body, &mut pos)? as usize;
                if run == 0 {
                    return Err(CodecError::Corrupt("zero-length run"));
                }
                if out.len() - start + run > expected_len {
                    return Err(CodecError::Corrupt("run overruns expected length"));
                }
                for _ in 0..run {
                    out.push(v);
                }
            }
            if pos != body.len() {
                return Err(CodecError::Corrupt("trailing bytes after runs"));
            }
            Ok(())
        }
        SCHEME_DICT => {
            let mut pos = 0usize;
            let dict = dict_at(body, &mut pos)?;
            let w = index_width(dict.len());
            if w == 0 {
                if pos != body.len() {
                    return Err(CodecError::Corrupt("trailing bytes after dictionary"));
                }
                for _ in 0..expected_len {
                    out.push(dict[0]);
                }
                return Ok(());
            }
            let need = (expected_len * w as usize).div_ceil(8);
            if body.len() - pos < need {
                return Err(CodecError::Truncated);
            }
            if body.len() - pos > need {
                return Err(CodecError::Corrupt("trailing bytes after indices"));
            }
            let section = &body[pos..];
            for slot in 0..expected_len {
                let idx = index_at(section, slot, w);
                if idx as usize >= dict.len() {
                    return Err(CodecError::Corrupt("dictionary index out of range"));
                }
                out.push(dict[idx as usize]);
            }
            Ok(())
        }
        SCHEME_CASCADE => {
            let start = out.len();
            let mut pos = 0usize;
            let dict = dict_at(body, &mut pos)?;
            let w = index_width(dict.len());
            let runs = varint(body, &mut pos)? as usize;
            let index_bytes = (runs * w as usize).div_ceil(8);
            if body.len() < pos || body.len() - pos < index_bytes {
                return Err(CodecError::Truncated);
            }
            let section = &body[pos..pos + index_bytes];
            pos += index_bytes;
            for slot in 0..runs {
                let idx = index_at(section, slot, w);
                if idx as usize >= dict.len() {
                    return Err(CodecError::Corrupt("dictionary index out of range"));
                }
                let run = varint(body, &mut pos)? as usize;
                if run == 0 {
                    return Err(CodecError::Corrupt("zero-length run"));
                }
                if out.len() - start + run > expected_len {
                    return Err(CodecError::Corrupt("run overruns expected length"));
                }
                for _ in 0..run {
                    out.push(dict[idx as usize]);
                }
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

// --- crc32 ----------------------------------------------------------------

/// Bit-at-a-time CRC-32 (IEEE 802.3, reflected): no tables, no intrinsics.
pub fn crc32_bitwise(data: &[u8]) -> u32 {
    const POLY: u32 = 0xEDB8_8320;
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
        }
    }
    c ^ 0xFFFF_FFFF
}
