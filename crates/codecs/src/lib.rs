//! # adcomp-codecs — compression codecs and block framing
//!
//! The paper's prototype offers four compression levels, "ordered by their
//! respective time/compression ratio":
//!
//! | Level | Paper | Here |
//! |---|---|---|
//! | 0 `NO` | no compression | [`CodecId::Raw`] |
//! | 1 `LIGHT` | QuickLZ, fastest setting | [`qlz::compress_light_with`] |
//! | 2 `MEDIUM` | QuickLZ, better-ratio setting | [`qlz::compress_medium_with`] |
//! | 3 `HEAVY` | LZMA | [`heavy`] (LZ77 + adaptive range coder) |
//!
//! All codecs are implemented from scratch in this crate. Blocks (the paper
//! buffers at most 128 KiB before compressing) are wrapped in a
//! self-describing [`frame`] carrying codec id, lengths and a CRC-32, so
//! "each block contains all the information to be decompressed by the
//! receiver" — including automatic raw fallback when compression would
//! expand the data.
//!
//! Beyond the paper's ladder, the *portfolio* extension adds two more
//! families selectable per block by content probes (see
//! `adcomp-core::portfolio`):
//!
//! | Id | Name | Family |
//! |---|---|---|
//! | 4 `HUFF` | [`huff`] | LZ + fixed-Huffman bitstream (deflate-style) |
//! | 5 `COLUMNAR` | [`columnar`] | RLE / dictionary / bit-packing cascade |
//!
//! Portfolio ids live outside [`CodecId::ALL`] (the paper's ladder) but
//! inside [`CodecId::REGISTRY`] (every id this build decodes). The wire
//! format is unchanged — readers dispatch on the frame's codec byte, and
//! builds that predate an id fail with a typed
//! [`CodecError::UnknownCodec`], never a panic.

// Safe Rust everywhere except the private `crc32::clmul` kernel, which
// carries the crate's single `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]

pub mod calibrate;
pub mod columnar;
pub mod crc32;
pub mod frame;
pub mod heavy;
pub mod huff;
pub mod qlz;
pub mod rangecoder;
pub mod scratch;
pub mod seek;
mod window;

pub use scratch::{DecodeScratch, Scratch};

use std::fmt;

/// Errors surfaced while decoding compressed data or frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the stream was complete.
    Truncated,
    /// Structurally invalid data.
    Corrupt(&'static str),
    /// Frame CRC mismatch.
    ChecksumMismatch { expected: u32, actual: u32 },
    /// Frame names a codec this build does not know.
    UnknownCodec(u8),
    /// Frame magic bytes missing.
    BadMagic,
    /// A frame header declares a length beyond the configured cap — the
    /// decompression-bomb guard. Raised *before* any allocation.
    FrameTooLarge {
        /// Which header field tripped the guard (`"uncompressed_len"` or
        /// `"payload_len"`).
        field: &'static str,
        /// Declared length.
        len: u32,
        /// Configured cap.
        max: u32,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "compressed stream truncated"),
            CodecError::Corrupt(why) => write!(f, "corrupt compressed stream: {why}"),
            CodecError::ChecksumMismatch { expected, actual } => {
                write!(f, "checksum mismatch: expected {expected:#010x}, got {actual:#010x}")
            }
            CodecError::UnknownCodec(id) => write!(f, "unknown codec id {id}"),
            CodecError::BadMagic => write!(f, "bad frame magic"),
            CodecError::FrameTooLarge { field, len, max } => {
                write!(f, "frame {field} {len} exceeds cap {max} (decompression-bomb guard)")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Convenience alias used throughout the codec layer.
pub type Result<T> = std::result::Result<T, CodecError>;

/// Identifies the codec used for a block. Stable on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum CodecId {
    /// Stored, no compression.
    Raw = 0,
    /// Fast LZ (QuickLZ level-1 analogue).
    QlzLight = 1,
    /// Ratio-leaning LZ (QuickLZ level-2 analogue).
    QlzMedium = 2,
    /// Range-coded LZ (LZMA analogue).
    Heavy = 3,
    /// LZ + fixed-Huffman bitstream (deflate-style). Portfolio member.
    Huffman = 4,
    /// Columnar cascade: RLE / dictionary / bit-packing. Portfolio member.
    Columnar = 5,
}

impl CodecId {
    /// The paper's four-level ladder, in compression-level order. This is
    /// what [`LevelSet::paper_default`] walks; portfolio members are *not*
    /// included (they are nominated per block, not per level).
    pub const ALL: [CodecId; 4] =
        [CodecId::Raw, CodecId::QlzLight, CodecId::QlzMedium, CodecId::Heavy];

    /// Every codec id this build can decode — ladder plus portfolio.
    pub const REGISTRY: [CodecId; 6] = [
        CodecId::Raw,
        CodecId::QlzLight,
        CodecId::QlzMedium,
        CodecId::Heavy,
        CodecId::Huffman,
        CodecId::Columnar,
    ];

    pub fn from_u8(v: u8) -> Result<CodecId> {
        match v {
            0 => Ok(CodecId::Raw),
            1 => Ok(CodecId::QlzLight),
            2 => Ok(CodecId::QlzMedium),
            3 => Ok(CodecId::Heavy),
            4 => Ok(CodecId::Huffman),
            5 => Ok(CodecId::Columnar),
            other => Err(CodecError::UnknownCodec(other)),
        }
    }

    /// The paper's level name (NO / LIGHT / MEDIUM / HEAVY) or the
    /// portfolio family name.
    pub fn level_name(self) -> &'static str {
        match self {
            CodecId::Raw => "NO",
            CodecId::QlzLight => "LIGHT",
            CodecId::QlzMedium => "MEDIUM",
            CodecId::Heavy => "HEAVY",
            CodecId::Huffman => "HUFF",
            CodecId::Columnar => "COLUMNAR",
        }
    }
}

impl fmt::Display for CodecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.level_name())
    }
}

/// A block compressor/decompressor.
///
/// Implementations are stateless across blocks: every block is independently
/// decodable (the paper requires each 128 KiB block to carry everything the
/// receiver needs). The scratch arguments carry working memory only, never
/// data: a fresh scratch and a reused one produce **bit-identical** output
/// and the same result on every input, valid or corrupt (see [`Scratch`]).
pub trait Codec: Send + Sync {
    fn id(&self) -> CodecId;

    /// Compresses `input`, appending the stream to `out` only if it comes
    /// out shorter than `limit` bytes, and returns whether it did. On
    /// `false`, `out` is exactly as it was. Working memory is reused from
    /// `scratch`, so steady-state block encoding is allocation-free; codecs
    /// without working memory ignore it. The stream, when written, is the
    /// one [`Codec::compress_with`] writes: the limit only decides whether
    /// it is written, and lets LIGHT and MEDIUM skip their final literal
    /// run when the length it would bring is already out of bounds.
    fn compress_within(
        &self,
        scratch: &mut Scratch,
        input: &[u8],
        out: &mut Vec<u8>,
        limit: usize,
    ) -> bool;

    /// Compresses `input`, appending the whole stream to `out` whatever its
    /// length: [`Codec::compress_within`] with no limit.
    fn compress_with(&self, scratch: &mut Scratch, input: &[u8], out: &mut Vec<u8>) {
        self.compress_within(scratch, input, out, usize::MAX);
    }

    /// Decodes the first `min(want, expected_len)` bytes of the block
    /// `input` encodes (`expected_len` bytes in all), appending exactly
    /// those to `out`, reusing the working memory in `scratch` so
    /// steady-state block decoding is allocation-free. Codecs without
    /// decode working memory ignore `scratch`.
    ///
    /// A bound below `expected_len` stops LIGHT, MEDIUM and HUFF at it: the
    /// stream past the last token it needs is not read, so the checks that
    /// tail would have failed (a truncation, a bad token, trailing bytes)
    /// are skipped, and a stream whose whole decode fails after producing
    /// at least `want` bytes yields those bytes. RAW, HEAVY and COLUMNAR
    /// check or decode the whole block and cut it. At `want >=
    /// expected_len` this is the whole decode, every check included. On an
    /// error `out` keeps what the decoder produced before it, as the whole
    /// decode leaves it.
    fn decompress_within(
        &self,
        scratch: &mut DecodeScratch,
        input: &[u8],
        expected_len: usize,
        want: usize,
        out: &mut Vec<u8>,
    ) -> Result<()>;

    /// Decompresses `input` (exactly `expected_len` output bytes), appending
    /// to `out`: [`Codec::decompress_within`] with no bound.
    fn decompress_with(
        &self,
        scratch: &mut DecodeScratch,
        input: &[u8],
        expected_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        self.decompress_within(scratch, input, expected_len, expected_len, out)
    }
}

/// [`Codec::compress_with`] on a fresh [`Scratch`]: for one-off blocks
/// (probes, tests) where building the tables per call does not matter.
pub fn compress_fresh(codec: &dyn Codec, input: &[u8], out: &mut Vec<u8>) {
    codec.compress_with(&mut Scratch::new(), input, out);
}

/// The end-of-stream comparison of the codecs that cannot stop early: keeps
/// the stream written to `out[start..]` if it is shorter than `limit`, else
/// truncates `out` back to `start`.
fn keep_within(out: &mut Vec<u8>, start: usize, limit: usize) -> bool {
    let kept = out.len() - start < limit;
    if !kept {
        out.truncate(start);
    }
    kept
}

/// The bounded decode of the codecs that cannot stop early: `decode`
/// appends the whole block to `out`, which is then cut to its first
/// `want` bytes. An error is the whole decode's, its output left as is.
fn cut_after(
    out: &mut Vec<u8>,
    want: usize,
    decode: impl FnOnce(&mut Vec<u8>) -> Result<()>,
) -> Result<()> {
    let start = out.len();
    decode(out)?;
    out.truncate(start.saturating_add(want));
    Ok(())
}

/// Level 0: stored.
#[derive(Debug, Default, Clone, Copy)]
pub struct RawCodec;

impl Codec for RawCodec {
    fn id(&self) -> CodecId {
        CodecId::Raw
    }
    fn compress_within(
        &self,
        _: &mut Scratch,
        input: &[u8],
        out: &mut Vec<u8>,
        limit: usize,
    ) -> bool {
        let kept = input.len() < limit;
        if kept {
            out.extend_from_slice(input);
        }
        kept
    }
    fn decompress_within(
        &self,
        _: &mut DecodeScratch,
        input: &[u8],
        expected_len: usize,
        want: usize,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        if input.len() != expected_len {
            return Err(CodecError::Corrupt("raw block length mismatch"));
        }
        out.extend_from_slice(&input[..want.min(expected_len)]);
        Ok(())
    }
}

/// Level 1: fast LZ.
#[derive(Debug, Default, Clone, Copy)]
pub struct QlzLightCodec;

impl Codec for QlzLightCodec {
    fn id(&self) -> CodecId {
        CodecId::QlzLight
    }
    fn compress_within(
        &self,
        scratch: &mut Scratch,
        input: &[u8],
        out: &mut Vec<u8>,
        limit: usize,
    ) -> bool {
        qlz::compress_light_within(scratch, input, out, limit)
    }
    /// Through the module's full-stream entry point, the one the encoder
    /// pins hold: the same body as `compress_within`, with no limit.
    fn compress_with(&self, scratch: &mut Scratch, input: &[u8], out: &mut Vec<u8>) {
        qlz::compress_light_with(scratch, input, out);
    }
    fn decompress_within(
        &self,
        _: &mut DecodeScratch,
        input: &[u8],
        expected_len: usize,
        want: usize,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        qlz::decompress_within(input, expected_len, want, out)
    }
}

/// Level 2: ratio-leaning LZ.
#[derive(Debug, Default, Clone, Copy)]
pub struct QlzMediumCodec;

impl Codec for QlzMediumCodec {
    fn id(&self) -> CodecId {
        CodecId::QlzMedium
    }
    fn compress_within(
        &self,
        scratch: &mut Scratch,
        input: &[u8],
        out: &mut Vec<u8>,
        limit: usize,
    ) -> bool {
        qlz::compress_medium_within(scratch, input, out, limit)
    }
    /// Through the module's full-stream entry point, the one the encoder
    /// pins hold: the same body as `compress_within`, with no limit.
    fn compress_with(&self, scratch: &mut Scratch, input: &[u8], out: &mut Vec<u8>) {
        qlz::compress_medium_with(scratch, input, out);
    }
    fn decompress_within(
        &self,
        _: &mut DecodeScratch,
        input: &[u8],
        expected_len: usize,
        want: usize,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        qlz::decompress_within(input, expected_len, want, out)
    }
}

/// Level 3: range-coded LZ.
#[derive(Debug, Default, Clone, Copy)]
pub struct HeavyCodec;

impl Codec for HeavyCodec {
    fn id(&self) -> CodecId {
        CodecId::Heavy
    }
    fn compress_within(
        &self,
        scratch: &mut Scratch,
        input: &[u8],
        out: &mut Vec<u8>,
        limit: usize,
    ) -> bool {
        let start = out.len();
        heavy::compress_with(scratch, input, out);
        keep_within(out, start, limit)
    }
    fn decompress_within(
        &self,
        scratch: &mut DecodeScratch,
        input: &[u8],
        expected_len: usize,
        want: usize,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        cut_after(out, want, |out| heavy::decompress_with(scratch, input, expected_len, out))
    }
}

/// Portfolio member 4: LZ + fixed-Huffman bitstream.
#[derive(Debug, Default, Clone, Copy)]
pub struct HuffCodec;

impl Codec for HuffCodec {
    fn id(&self) -> CodecId {
        CodecId::Huffman
    }
    fn compress_within(
        &self,
        scratch: &mut Scratch,
        input: &[u8],
        out: &mut Vec<u8>,
        limit: usize,
    ) -> bool {
        let start = out.len();
        huff::compress_with(scratch, input, out);
        keep_within(out, start, limit)
    }
    fn decompress_within(
        &self,
        _: &mut DecodeScratch,
        input: &[u8],
        expected_len: usize,
        want: usize,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        huff::decompress_within(input, expected_len, want, out)
    }
}

/// Portfolio member 5: columnar RLE / dictionary / bit-packing cascade.
#[derive(Debug, Default, Clone, Copy)]
pub struct ColumnarCodec;

impl Codec for ColumnarCodec {
    fn id(&self) -> CodecId {
        CodecId::Columnar
    }
    fn compress_within(
        &self,
        scratch: &mut Scratch,
        input: &[u8],
        out: &mut Vec<u8>,
        limit: usize,
    ) -> bool {
        let start = out.len();
        columnar::compress(scratch, input, out);
        keep_within(out, start, limit)
    }
    fn decompress_within(
        &self,
        _: &mut DecodeScratch,
        input: &[u8],
        expected_len: usize,
        want: usize,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        cut_after(out, want, |out| columnar::decompress(input, expected_len, out))
    }
}

/// Looks up the codec implementation for an id.
pub fn codec_for(id: CodecId) -> &'static dyn Codec {
    static RAW: RawCodec = RawCodec;
    static LIGHT: QlzLightCodec = QlzLightCodec;
    static MEDIUM: QlzMediumCodec = QlzMediumCodec;
    static HEAVY: HeavyCodec = HeavyCodec;
    static HUFF: HuffCodec = HuffCodec;
    static COLUMNAR: ColumnarCodec = ColumnarCodec;
    match id {
        CodecId::Raw => &RAW,
        CodecId::QlzLight => &LIGHT,
        CodecId::QlzMedium => &MEDIUM,
        CodecId::Heavy => &HEAVY,
        CodecId::Huffman => &HUFF,
        CodecId::Columnar => &COLUMNAR,
    }
}

/// The paper's ordered set of compression levels: level index → codec.
///
/// "The individual compression levels must be ordered by their respective
/// time/compression ratio. Compression level 0 stands for no compression."
#[derive(Clone)]
pub struct LevelSet {
    levels: Vec<CodecId>,
}

impl LevelSet {
    /// The four levels of the paper's prototype.
    pub fn paper_default() -> Self {
        LevelSet { levels: CodecId::ALL.to_vec() }
    }

    pub fn len(&self) -> usize {
        self.levels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Codec for a level index.
    pub fn codec(&self, level: usize) -> &'static dyn Codec {
        codec_for(self.levels[level])
    }

    pub fn id(&self, level: usize) -> CodecId {
        self.levels[level]
    }

    pub fn name(&self, level: usize) -> &'static str {
        self.levels[level].level_name()
    }
}

impl Default for LevelSet {
    fn default() -> Self {
        LevelSet::paper_default()
    }
}

// The oracles the hot loops are tested against live with the tests; they
// name this crate the way the integration tests that share them do.
#[cfg(test)]
extern crate self as adcomp_codecs;
#[cfg(test)]
#[path = "../tests/reference/mod.rs"]
#[allow(dead_code)] // the unit tests use the oracles, not the suites' helpers
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_id_roundtrip() {
        for id in CodecId::REGISTRY {
            assert_eq!(CodecId::from_u8(id as u8).unwrap(), id);
        }
        assert!(matches!(CodecId::from_u8(9), Err(CodecError::UnknownCodec(9))));
    }

    #[test]
    fn registry_extends_ladder() {
        assert_eq!(&CodecId::REGISTRY[..4], &CodecId::ALL[..]);
        assert_eq!(CodecId::Huffman.level_name(), "HUFF");
        assert_eq!(CodecId::Columnar.level_name(), "COLUMNAR");
    }

    #[test]
    fn level_names_match_paper() {
        let ls = LevelSet::paper_default();
        assert_eq!(
            (0..ls.len()).map(|i| ls.name(i)).collect::<Vec<_>>(),
            vec!["NO", "LIGHT", "MEDIUM", "HEAVY"]
        );
    }

    #[test]
    fn raw_codec_is_identity() {
        let data = b"identity".to_vec();
        let mut c = Vec::new();
        compress_fresh(&RawCodec, &data, &mut c);
        assert_eq!(c, data);
        let mut d = Vec::new();
        RawCodec.decompress_with(&mut DecodeScratch::new(), &c, data.len(), &mut d).unwrap();
        assert_eq!(d, data);
        let mut d2 = Vec::new();
        assert!(RawCodec.decompress_with(&mut DecodeScratch::new(), &c, data.len() + 1, &mut d2).is_err());
    }

    /// Every codec round-trips through the trait object, and the fresh-state
    /// pair gives the same bytes as one scratch reused across blocks and
    /// codecs, on compress and on decompress.
    #[test]
    fn all_codecs_roundtrip_via_trait() {
        let blocks = [
            b"roundtrip through the trait object interface. ".repeat(300),
            (0..40_000u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect(),
            vec![7u8; 10_000],
            Vec::new(),
        ];
        let mut scratch = Scratch::new();
        let mut dscratch = DecodeScratch::new();
        for id in CodecId::REGISTRY {
            let codec = codec_for(id);
            assert_eq!(codec.id(), id);
            for data in &blocks {
                let (mut fresh, mut reused) = (Vec::new(), Vec::new());
                compress_fresh(codec, data, &mut fresh);
                codec.compress_with(&mut scratch, data, &mut reused);
                assert_eq!(fresh, reused, "compress {id} len {}", data.len());
                let (mut d, mut d_reused) = (Vec::new(), Vec::new());
                codec.decompress_with(&mut DecodeScratch::new(), &fresh, data.len(), &mut d).unwrap();
                codec.decompress_with(&mut dscratch, &fresh, data.len(), &mut d_reused).unwrap();
                assert_eq!(&d, data, "codec {id} len {}", data.len());
                assert_eq!(d, d_reused, "decompress {id} len {}", data.len());
            }
        }
    }

    #[test]
    fn errors_render() {
        let e = CodecError::ChecksumMismatch { expected: 1, actual: 2 };
        assert!(e.to_string().contains("checksum"));
        assert!(CodecError::BadMagic.to_string().contains("magic"));
    }
}
