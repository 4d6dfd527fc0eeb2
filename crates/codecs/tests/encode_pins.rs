//! The token encoders' output, pinned byte for byte.
//!
//! The goldens under `tests/golden/` are 4 KiB-block streams and pin no
//! LIGHT frame at all, so they cannot hold the encoders still at the
//! paper's 128 KiB blocks. This table can: `(len, crc32)` of the raw token
//! stream (the codec's payload, before framing and RAW fallback) of LIGHT,
//! MEDIUM and HUFF over
//!
//! * 1 MiB of each corpus class (seed 42) in 128 KiB blocks through one
//!   reused `Scratch`, the streams of the eight blocks concatenated;
//! * one fixed text, as one block;
//! * every prefix of that text of 0..=24 bytes, each one block, the 25
//!   streams concatenated — the `MIN_MATCH` and short-input edges.
//!
//! The values were taken from the encoders that wrote one byte at a time
//! (commit a63761f), before the span writers replaced them; a change to
//! the encoders that moves any wire byte fails here.

use adcomp_codecs::crc32::crc32;
use adcomp_codecs::{huff, qlz, Scratch};
use adcomp_corpus::{generate, Class};

type Encoder = fn(&mut Scratch, &[u8], &mut Vec<u8>);

const ENCODERS: [(&str, Encoder); 3] = [
    ("LIGHT", qlz::compress_light_with),
    ("MEDIUM", qlz::compress_medium_with),
    ("HUFF", huff::compress_with),
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

/// `(input, codec) -> (len, crc32)` of the concatenated token streams.
const PINS: [(&str, &str, usize, u32); 15] = [
    ("HIGH", "LIGHT", 87293, 0x7F97DFB6),
    ("HIGH", "MEDIUM", 36144, 0x1D9F8D35),
    ("HIGH", "HUFF", 62427, 0x2B3684D9),
    ("MODERATE", "LIGHT", 580928, 0xF8F2D95C),
    ("MODERATE", "MEDIUM", 426727, 0x05F27BEB),
    ("MODERATE", "HUFF", 493885, 0xC61AFC6E),
    ("LOW", "LIGHT", 1175106, 0x0A3B1F17),
    ("LOW", "MEDIUM", 1175106, 0x5E86718C),
    ("LOW", "HUFF", 1101455, 0xF3B3C26F),
    ("text", "LIGHT", 678, 0x812C478D),
    ("text", "MEDIUM", 658, 0xDF1CECA8),
    ("text", "HUFF", 564, 0xBF2C6E7E),
    ("prefixes 0..=24", "LIGHT", 265, 0x9F21CC4E),
    ("prefixes 0..=24", "MEDIUM", 285, 0xFB49A6BC),
    ("prefixes 0..=24", "HUFF", 242, 0x252B7906),
];

/// The inputs of one row: blocks encoded one after another through one
/// scratch.
fn inputs() -> Vec<(&'static str, Vec<Vec<u8>>)> {
    let mut rows = Vec::new();
    for (name, class) in [
        ("HIGH", Class::High),
        ("MODERATE", Class::Moderate),
        ("LOW", Class::Low),
    ] {
        let data = generate(class, 1 << 20, 42);
        rows.push((name, data.chunks(128 * 1024).map(<[u8]>::to_vec).collect()));
    }
    let text = TEXT.as_bytes();
    rows.push(("text", vec![text.to_vec()]));
    rows.push((
        "prefixes 0..=24",
        (0..=24).map(|n| text[..n].to_vec()).collect(),
    ));
    rows
}

#[test]
fn token_streams_match_the_pinned_table() {
    let mut got = Vec::new();
    for (input, blocks) in inputs() {
        for (codec, encode) in ENCODERS {
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
    assert_eq!(got, PINS, "token streams moved; this run's table:\n{table}");
}
