//! The encoders' output, pinned byte for byte.
//!
//! The goldens under `tests/golden/` are 4 KiB-block streams and pin no
//! LIGHT frame at all, so they cannot hold the encoders still at the
//! paper's 128 KiB blocks. This table can: `(len, crc32)` of the raw
//! stream (the codec's payload, before framing and RAW fallback) of LIGHT,
//! MEDIUM, HUFF, COLUMNAR and HEAVY over
//!
//! * 1 MiB of each corpus class (seed 42) in 128 KiB blocks through one
//!   reused `Scratch`, the streams of the eight blocks concatenated;
//! * one fixed text, as one block;
//! * every prefix of that text of 0..=24 bytes, each one block, the 25
//!   streams concatenated — the `MIN_MATCH` and short-input edges;
//!
//! and, for COLUMNAR alone, one 128 KiB block of runs per scheme it can
//! choose (verbatim, RLE, dictionary, cascade) and two blocks of short runs
//! over 255 and 256 distinct values, the edge where the dictionary and the
//! cascade drop out.
//!
//! The LIGHT, MEDIUM and HUFF values were taken from the encoders that
//! wrote one byte at a time (commit a63761f), before the span writers
//! replaced them; the COLUMNAR values from the three-pass encoder that
//! walked each run byte by byte (commit 979298e), before the run list
//! replaced it; the HEAVY values from its encoder as of commit 3ce32e4. A
//! change to the encoders that moves any wire byte fails here.

use adcomp_codecs::crc32::crc32;
use adcomp_codecs::{columnar, heavy, huff, qlz, Scratch};
use adcomp_corpus::{generate, Class};
use std::ops::RangeInclusive;

type Encoder = fn(&mut Scratch, &[u8], &mut Vec<u8>);

const ENCODERS: [(&str, Encoder); 5] = [
    ("LIGHT", qlz::compress_light_with),
    ("MEDIUM", qlz::compress_medium_with),
    ("HUFF", huff::compress_with),
    ("COLUMNAR", columnar::compress),
    ("HEAVY", heavy::compress_with),
];

/// Opens on a repeat, so the short prefixes hold matches as well as
/// literals.
const TEXT: &str = "\
Rate, rate, rate. Each block pays its compress time before the link can \
carry it, so the rate an application sees is set by whichever of the two \
is slower. On a shared link the slower one changes from minute to minute: a neighbour \
starts a transfer, the share drops, and a heavier level that was a loss a \
moment ago now pays for itself. The controller never asks the guest how \
busy the link is; it watches the rate at which the application hands data \
to the channel and probes the neighbouring level when that rate stalls. \
Each block pays its compress time before the link can carry it, so a \
codec that spends one cycle too many per byte is read by the controller \
as pressure on the link. Blocks of 128 KiB, fixed trees, one control bit \
per item: the format is frozen, and only the loops that write it change.";

/// `(input, codec) -> (len, crc32)` of the concatenated streams.
const PINS: [(&str, &str, usize, u32); 31] = [
    ("HIGH", "LIGHT", 87293, 0x7F97DFB6),
    ("HIGH", "MEDIUM", 36144, 0x1D9F8D35),
    ("HIGH", "HUFF", 62427, 0x2B3684D9),
    ("HIGH", "COLUMNAR", 84167, 0x6F75BCD7),
    ("HIGH", "HEAVY", 25509, 0x2C4D95E5),
    ("MODERATE", "LIGHT", 580928, 0xF8F2D95C),
    ("MODERATE", "MEDIUM", 426727, 0x05F27BEB),
    ("MODERATE", "HUFF", 493885, 0xC61AFC6E),
    ("MODERATE", "COLUMNAR", 786872, 0xFA66E23C),
    ("MODERATE", "HEAVY", 315784, 0x67BAD79C),
    ("LOW", "LIGHT", 1175106, 0x0A3B1F17),
    ("LOW", "MEDIUM", 1175106, 0x5E86718C),
    ("LOW", "HUFF", 1101455, 0xF3B3C26F),
    ("LOW", "COLUMNAR", 1048584, 0x95669601),
    ("LOW", "HEAVY", 1059285, 0x0F49DA78),
    ("text", "LIGHT", 678, 0x812C478D),
    ("text", "MEDIUM", 658, 0xDF1CECA8),
    ("text", "HUFF", 564, 0xBF2C6E7E),
    ("text", "COLUMNAR", 647, 0x48EA6BD7),
    ("text", "HEAVY", 443, 0xDBBF8FE5),
    ("prefixes 0..=24", "LIGHT", 265, 0x9F21CC4E),
    ("prefixes 0..=24", "MEDIUM", 285, 0xFB49A6BC),
    ("prefixes 0..=24", "HUFF", 242, 0x252B7906),
    ("prefixes 0..=24", "COLUMNAR", 319, 0xF055791B),
    ("prefixes 0..=24", "HEAVY", 341, 0xE8181A16),
    ("runs: verbatim", "COLUMNAR", 131073, 0x4FF2EB29),
    ("runs: RLE", "COLUMNAR", 3363, 0x5027F559),
    ("runs: dict", "COLUMNAR", 65550, 0xF2A3B498),
    ("runs: cascade", "COLUMNAR", 1420, 0xAB172B99),
    ("255 distinct", "COLUMNAR", 130521, 0x3C135480),
    ("256 distinct", "COLUMNAR", 130511, 0x2A1ADD92),
];

/// A COLUMNAR-only row: `(name, alphabet, run lengths, seed, distinct
/// values, scheme byte)` — 128 KiB of runs whose values are drawn from
/// `0..alphabet` and whose lengths from the range, the distinct count it
/// has and the scheme COLUMNAR picks for it.
type RunRow = (&'static str, usize, RangeInclusive<usize>, u64, usize, u8);

const RUN_ROWS: [RunRow; 6] = [
    ("runs: verbatim", 256, 1..=1, 1, 256, 0),
    ("runs: RLE", 256, 20..=150, 2, 256, 1),
    ("runs: dict", 12, 1..=2, 3, 12, 2),
    ("runs: cascade", 6, 20..=300, 4, 6, 3),
    ("255 distinct", 255, 1..=3, 5, 255, 1),
    ("256 distinct", 256, 1..=3, 6, 256, 1),
];

/// `n` bytes of runs over `0..alphabet`, lengths drawn from `run_len`
/// (xorshift64, so the block is the same on every platform).
fn run_block(n: usize, alphabet: usize, run_len: &RangeInclusive<usize>, seed: u64) -> Vec<u8> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let span = (run_len.end() - run_len.start() + 1) as u64;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let v = (next() % alphabet as u64) as u8;
        let len = run_len.start() + (next() % span) as usize;
        out.extend(std::iter::repeat_n(v, len.min(n - out.len())));
    }
    out
}

/// An input: its name, the blocks encoded one after another through one
/// scratch, and the codecs that run it.
type Input = (&'static str, Vec<Vec<u8>>, &'static [&'static str]);

fn inputs() -> Vec<Input> {
    const ALL: &[&str] = &["LIGHT", "MEDIUM", "HUFF", "COLUMNAR", "HEAVY"];
    let mut rows = Vec::new();
    for (name, class) in [
        ("HIGH", Class::High),
        ("MODERATE", Class::Moderate),
        ("LOW", Class::Low),
    ] {
        let data = generate(class, 1 << 20, 42);
        rows.push((name, data.chunks(128 * 1024).map(<[u8]>::to_vec).collect(), ALL));
    }
    let text = TEXT.as_bytes();
    rows.push(("text", vec![text.to_vec()], ALL));
    rows.push((
        "prefixes 0..=24",
        (0..=24).map(|n| text[..n].to_vec()).collect(),
        ALL,
    ));
    for (name, alphabet, run_len, seed, ..) in RUN_ROWS {
        rows.push((name, vec![run_block(128 * 1024, alphabet, &run_len, seed)], &["COLUMNAR"]));
    }
    rows
}

#[test]
fn token_streams_match_the_pinned_table() {
    let mut got = Vec::new();
    for (input, blocks, codecs) in inputs() {
        for (codec, encode) in ENCODERS {
            if !codecs.contains(&codec) {
                continue;
            }
            let mut scratch = Scratch::new();
            let mut stream = Vec::new();
            for block in &blocks {
                encode(&mut scratch, block, &mut stream);
            }
            got.push((input, codec, stream.len(), crc32(&stream)));
        }
    }
    let table: String = got
        .iter()
        .map(|(i, c, len, crc)| format!("    (\"{i}\", \"{c}\", {len}, 0x{crc:08X}),\n"))
        .collect();
    assert_eq!(got, PINS, "streams moved; this run's table:\n{table}");
}

/// The run-shaped rows reach what they are named for: the distinct count
/// and the scheme COLUMNAR picks.
#[test]
fn run_rows_cover_every_scheme_and_the_distinct_edge() {
    for (name, alphabet, run_len, seed, distinct, scheme) in RUN_ROWS {
        let block = run_block(128 * 1024, alphabet, &run_len, seed);
        let mut seen = [false; 256];
        block.iter().for_each(|&b| seen[b as usize] = true);
        assert_eq!(seen.iter().filter(|&&s| s).count(), distinct, "{name}");
        let mut stream = Vec::new();
        columnar::compress(&mut Scratch::new(), &block, &mut stream);
        assert_eq!(stream[0], scheme, "{name}");
    }
}
