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
//! All compressor state lives in stack arrays — the scratch path is
//! allocation-free by construction. Decoders are bounds-hardened: typed
//! [`CodecError`]s on damage, never panics, and the independent per-bit
//! oracle (`tests/reference/mod.rs::columnar_reference`, compiled only under
//! test) is pinned to identical output and identical errors by the
//! differential oracle suite.

use crate::{CodecError, Result};

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

#[inline]
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

/// One-pass block statistics driving scheme selection.
struct Stats {
    /// Number of maximal runs.
    runs: usize,
    /// Σ varint_len(run length) over all runs.
    run_varint_bytes: usize,
    /// Distinct byte values.
    distinct: usize,
    /// Presence per byte value (for the sorted dictionary).
    present: [bool; 256],
}

fn scan(input: &[u8]) -> Stats {
    let mut present = [false; 256];
    let mut runs = 0usize;
    let mut run_varint_bytes = 0usize;
    let mut i = 0usize;
    while i < input.len() {
        let v = input[i];
        present[v as usize] = true;
        let mut j = i + 1;
        while j < input.len() && input[j] == v {
            j += 1;
        }
        runs += 1;
        run_varint_bytes += varint_len((j - i) as u32);
        i = j;
    }
    let distinct = present.iter().filter(|&&p| p).count();
    Stats { runs, run_varint_bytes, distinct, present }
}

/// Compresses `input`, appending the scheme byte + payload to `out`.
/// Pure: the chosen scheme and every output byte are a deterministic
/// function of `input` alone.
pub fn compress(input: &[u8], out: &mut Vec<u8>) {
    let n = input.len();
    if n == 0 {
        out.push(SCHEME_VERBATIM);
        return;
    }
    let st = scan(input);
    let w = index_width(st.distinct);

    let verbatim = 1 + n;
    let rle = 1 + st.runs + st.run_varint_bytes;
    let (dict, cascade) = if st.distinct <= 255 {
        let d = st.distinct;
        let dict = 2 + d + (n * w as usize).div_ceil(8);
        let cascade = 2
            + d
            + varint_len(st.runs as u32)
            + (st.runs * w as usize).div_ceil(8)
            + st.run_varint_bytes;
        (dict, cascade)
    } else {
        (usize::MAX, usize::MAX)
    };

    let best = verbatim.min(rle).min(dict).min(cascade);
    if best == verbatim {
        out.push(SCHEME_VERBATIM);
        out.extend_from_slice(input);
    } else if best == rle {
        out.push(SCHEME_RLE);
        emit_runs(input, out, |out, v, len| {
            out.push(v);
            push_varint(out, len);
        });
    } else if best == dict {
        out.push(SCHEME_DICT);
        let rank = emit_dict(&st, out);
        let mut packer = BitPacker::new();
        for &b in input {
            packer.push(out, rank[b as usize] as u32, w);
        }
        packer.finish(out);
    } else {
        out.push(SCHEME_CASCADE);
        let rank = emit_dict(&st, out);
        push_varint(out, st.runs as u32);
        let mut packer = BitPacker::new();
        emit_runs(input, out, |out, v, _len| {
            packer.push(out, rank[v as usize] as u32, w);
        });
        packer.finish(out);
        emit_runs(input, out, |out, _v, len| push_varint(out, len));
    }
}

/// Walks maximal runs of `input`, invoking `f(out, value, run_len)`.
#[inline]
fn emit_runs(input: &[u8], out: &mut Vec<u8>, mut f: impl FnMut(&mut Vec<u8>, u8, u32)) {
    let mut i = 0usize;
    while i < input.len() {
        let v = input[i];
        let mut j = i + 1;
        while j < input.len() && input[j] == v {
            j += 1;
        }
        f(out, v, (j - i) as u32);
        i = j;
    }
}

/// Writes `d` + the sorted dictionary, returning the value→rank table.
fn emit_dict(st: &Stats, out: &mut Vec<u8>) -> [u8; 256] {
    out.push(st.distinct as u8); // 1..=255 by construction
    let mut rank = [0u8; 256];
    let mut next = 0u8;
    for (v, slot) in rank.iter_mut().enumerate() {
        if st.present[v] {
            out.push(v as u8);
            *slot = next;
            next = next.wrapping_add(1);
        }
    }
    rank
}

/// LSB-first bit packer appending whole bytes to the output.
struct BitPacker {
    acc: u64,
    nbits: u32,
}

impl BitPacker {
    fn new() -> Self {
        BitPacker { acc: 0, nbits: 0 }
    }

    #[inline]
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
    use crate::reference::columnar_reference;

    fn roundtrip(data: &[u8]) -> u8 {
        let mut wire = Vec::new();
        compress(data, &mut wire);
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
        compress(&runs, &mut wire);
        assert!(wire.len() < runs.len() / 50, "{} of {}", wire.len(), runs.len());
    }

    #[test]
    fn damage_yields_typed_errors() {
        let data: Vec<u8> = (0..2000).map(|i| [5u8, 6, 7][i % 3]).collect();
        let mut wire = Vec::new();
        compress(&data, &mut wire);
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

    #[test]
    fn varint_boundaries() {
        for v in [0u32, 1, 127, 128, 16383, 16384, 1 << 21, u32::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v));
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
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
