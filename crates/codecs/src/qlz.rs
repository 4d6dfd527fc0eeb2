//! Fast byte-oriented LZ77 codec standing in for QuickLZ.
//!
//! The paper uses QuickLZ at two settings: compression level 1 (LIGHT,
//! fastest) and level 2 (MEDIUM, "a setting which favors a better compressed
//! size over compression speed"). This module provides the same two points
//! on the speed/ratio curve:
//!
//! * **LIGHT** — greedy parse, single-probe hash table, literal-run skip
//!   acceleration on incompressible data.
//! * **MEDIUM** — two hash chains of bounded depth over each block (one
//!   keyed on 8 bytes, one on 4; `u16` distance links) plus one-step lazy
//!   matching whose probe at `i + 1` only looks for matches that would win
//!   and hands a winner to the next step, and LIGHT's literal-run skip.
//!
//! ## Token format (shared by both settings)
//!
//! The stream is a sequence of groups. Each group starts with one control
//! byte whose bits (LSB first) select the item kind:
//!
//! * bit = 0 → literal: one raw byte follows.
//! * bit = 1 → match: three bytes follow — `len - MIN_MATCH` (1 byte) and a
//!   little-endian `u16` backward distance (1..=65535).
//!
//! Matches are `MIN_MATCH..=MAX_MATCH` bytes (4..=259). The decompressor
//! stops when the expected uncompressed length has been produced, so no
//! end-of-stream marker is needed (the frame header carries the length).
//!
//! Both settings share one decoder, a token loop over a pre-sized window
//! (`crate::window`): the format spends one control bit per item, so the
//! loop's cost is a branch per item, and everything else about an item — a
//! literal run, a short match — is a fixed-width move.
//!
//! Both settings share one encoder-side writer with the same shape: it
//! writes into a pre-sized span (`Scratch::tokens`) through a cursor, the
//! parse hands it whole literal runs — written a group's rest at a time as
//! one 8-byte store — and a match is one 3-byte store. The block's last
//! literal run is the one item whose cost is known before it is written,
//! so the writer checks the stream's final length against the caller's
//! limit there and stops without writing it when the stream cannot come
//! out shorter (`compress_{light,medium}_within`; the frame layer's limit
//! is the block's length, past which the block goes out raw).

use crate::scratch::{ensure_len_uninit, reset_table, token_span};
use crate::{window, CodecError, Result, Scratch};

/// Shortest encodable match.
pub const MIN_MATCH: usize = 4;
/// Longest encodable match.
pub const MAX_MATCH: usize = MIN_MATCH + 255;
/// Largest encodable backward distance.
pub const MAX_OFFSET: usize = u16::MAX as usize;

#[inline]
fn read_u32(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(data[i..i + 4].try_into().unwrap())
}

#[inline]
fn hash_u32(x: u32, bits: u32) -> usize {
    (x.wrapping_mul(2654435761) >> (32 - bits)) as usize
}

#[inline]
fn hash4(data: &[u8], i: usize, bits: u32) -> usize {
    hash_u32(read_u32(data, i), bits)
}

/// Counts equal bytes starting at `(a, b)` (with `a < b`), capped at
/// `limit`. Wide block compares: 16 bytes per step via `u128` XOR (the
/// compiler lowers this to two overlapped 8-byte loads, or one SSE2 compare
/// where profitable), extending into the first differing block with
/// `trailing_zeros`; the tail is a branch-light 8/4/2/1 ladder of the same
/// shape, so no byte-at-a-time loop survives on any input. All loads go
/// through `from_le_bytes` on checked subslices — safe Rust, no alignment
/// assumptions.
///
/// Requires `a < b` and `b + limit <= data.len()` (so both windows are in
/// bounds); this is what the compressors guarantee via
/// `limit = min(n - b, MAX_MATCH)`. Returns exactly what the byte-wise
/// oracle (`tests/reference/mod.rs::match_len_naive`) returns — the wire
/// parse must not change by a byte.
#[inline]
pub fn match_len(data: &[u8], a: usize, b: usize, limit: usize) -> usize {
    debug_assert!(a < b);
    debug_assert!(b + limit <= data.len());
    let mut n = 0;
    // Narrow first compare: most candidate probes mismatch inside the
    // first word, so the fail path stays one u64 load pair wide; the
    // 16-byte blocks below only run once a real match is confirmed.
    if limit >= 8 {
        let x = u64::from_le_bytes(data[a..a + 8].try_into().unwrap());
        let y = u64::from_le_bytes(data[b..b + 8].try_into().unwrap());
        let diff = x ^ y;
        if diff != 0 {
            return (diff.trailing_zeros() >> 3) as usize;
        }
        n = 8;
    }
    while n + 16 <= limit {
        let x = u128::from_le_bytes(data[a + n..a + n + 16].try_into().unwrap());
        let y = u128::from_le_bytes(data[b + n..b + n + 16].try_into().unwrap());
        let diff = x ^ y;
        if diff != 0 {
            return n + (diff.trailing_zeros() >> 3) as usize;
        }
        n += 16;
    }
    if n + 8 <= limit {
        let x = u64::from_le_bytes(data[a + n..a + n + 8].try_into().unwrap());
        let y = u64::from_le_bytes(data[b + n..b + n + 8].try_into().unwrap());
        let diff = x ^ y;
        if diff != 0 {
            return n + (diff.trailing_zeros() >> 3) as usize;
        }
        n += 8;
    }
    if n + 4 <= limit {
        let x = u32::from_le_bytes(data[a + n..a + n + 4].try_into().unwrap());
        let y = u32::from_le_bytes(data[b + n..b + n + 4].try_into().unwrap());
        let diff = x ^ y;
        if diff != 0 {
            return n + (diff.trailing_zeros() >> 3) as usize;
        }
        n += 4;
    }
    if n + 2 <= limit {
        let x = u16::from_le_bytes(data[a + n..a + n + 2].try_into().unwrap());
        let y = u16::from_le_bytes(data[b + n..b + n + 2].try_into().unwrap());
        let diff = x ^ y;
        if diff != 0 {
            return n + (diff.trailing_zeros() >> 3) as usize;
        }
        n += 2;
    }
    if n < limit && data[a + n] == data[b + n] {
        n += 1;
    }
    n
}

/// Token-stream writer over a pre-sized span (`Scratch::tokens`, see
/// `crate::scratch`): a cursor, the open group's control byte and how many
/// of its eight items are used. Literals are not written one by one: the
/// parse hands over a whole run, which goes out a group's rest at a time
/// as one fixed 8-byte load and store.
struct TokenWriter<'a> {
    span: &'a mut [u8],
    pos: usize,
    ctrl_pos: usize,
    ctrl: u8,
    nbits: usize,
}

impl<'a> TokenWriter<'a> {
    /// Span for `n` input bytes: the longest stream they encode to — every
    /// byte a literal, a control byte per eight (a match is 3 bytes and a
    /// bit for 4 or more) — plus 8 bytes of margin, which also gives an
    /// empty input the byte `finish` writes its (unused) control byte to.
    fn span_len(n: usize) -> usize {
        n + n.div_ceil(8) + 8
    }

    /// `span` holds at least [`TokenWriter::span_len`] bytes for the input.
    fn new(span: &'a mut [u8]) -> Self {
        // A full group at the start: the first item opens one at 0.
        TokenWriter { span, pos: 0, ctrl_pos: 0, ctrl: 0, nbits: 8 }
    }

    /// Closes the full group and opens the next one at the cursor.
    #[inline]
    fn open_group(&mut self) {
        self.span[self.ctrl_pos] = self.ctrl;
        self.ctrl_pos = self.pos;
        self.pos += 1;
        self.ctrl = 0;
        self.nbits = 0;
    }

    /// The literal items `input[from..to]`. Each step moves the group's
    /// rest, at most 8 bytes, as one 8-byte store while 8 input bytes
    /// remain; what lands past the run is overwritten by the next item. The
    /// store ends inside the longest stream even without the span's margin:
    /// the cursor is at most the all-literal length of the input before
    /// `from`, and 8 more input bytes follow it. Inlined into the parse
    /// (called once per match, the run mostly empty or short), so the
    /// writer's state stays in registers.
    #[inline(always)]
    fn literals(&mut self, input: &[u8], mut from: usize, to: usize) {
        while from < to {
            if self.nbits == 8 {
                self.open_group();
            }
            let k = (to - from).min(8 - self.nbits);
            if let Some(src) = input.get(from..from + 8) {
                self.span[self.pos..self.pos + 8].copy_from_slice(src);
            } else {
                self.span[self.pos..self.pos + k].copy_from_slice(&input[from..from + k]);
            }
            self.pos += k;
            self.nbits += k;
            from += k;
        }
    }

    #[inline]
    fn match_token(&mut self, len: usize, offset: usize) {
        debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
        debug_assert!((1..=MAX_OFFSET).contains(&offset));
        if self.nbits == 8 {
            self.open_group();
        }
        self.ctrl |= 1 << self.nbits;
        self.nbits += 1;
        let [lo, hi] = (offset as u16).to_le_bytes();
        self.span[self.pos..self.pos + 3].copy_from_slice(&[(len - MIN_MATCH) as u8, lo, hi]);
        self.pos += 3;
    }

    /// Writes the final literal run `input[lit..]`, closes the last group
    /// and appends the stream to `out`, if the stream comes out shorter
    /// than `limit`; returns whether it did. Its length is known before the
    /// run is written — the cursor, a byte per literal, and a control byte
    /// per group the literals past the open group's rest open — so a stream
    /// that cannot fit skips the run's writes and the copy-out, and `out`
    /// is left as it was.
    fn finish(mut self, input: &[u8], lit: usize, limit: usize, out: &mut Vec<u8>) -> bool {
        let run = input.len() - lit;
        let len = self.pos + run + run.saturating_sub(8 - self.nbits).div_ceil(8);
        if len >= limit {
            return false;
        }
        self.literals(input, lit, input.len());
        debug_assert_eq!(self.pos, len);
        self.span[self.ctrl_pos] = self.ctrl;
        out.extend_from_slice(&self.span[..len]);
        true
    }
}

/// [`compress_light_within`] with no limit: the whole LIGHT stream.
pub fn compress_light_with(scratch: &mut Scratch, input: &[u8], out: &mut Vec<u8>) {
    compress_light_within(scratch, input, out, usize::MAX);
}

/// Greedy single-probe compression using reusable working memory, appending
/// the stream to `out` only if it is shorter than `limit` bytes (see
/// `Codec::compress_within`); returns whether it did. In steady state
/// (same-size blocks) this performs no heap allocation. A miss only moves
/// `i`: the literal run since the last match, `input[lit..i]`, is written
/// when the next match is taken and at the end of the block, where a stream
/// that cannot beat `limit` stops before writing it.
pub fn compress_light_within(
    scratch: &mut Scratch,
    input: &[u8],
    out: &mut Vec<u8>,
    limit: usize,
) -> bool {
    const HASH_BITS: u32 = 14;
    let n = input.len();
    let mut w = TokenWriter::new(token_span(&mut scratch.tokens, TokenWriter::span_len(n)));
    if n < MIN_MATCH {
        return w.finish(input, 0, limit, out);
    }
    reset_table(&mut scratch.light_table, 1 << HASH_BITS);
    let table = &mut scratch.light_table[..];
    let mut i = 0usize;
    let mut lit = 0usize;
    let mut misses = 0u32;
    while i + MIN_MATCH <= n {
        let v = read_u32(input, i);
        let h = hash_u32(v, HASH_BITS);
        let cand = table[h] as usize;
        table[h] = i as u32;
        let found = cand != u32::MAX as usize
            && i - cand <= MAX_OFFSET
            && read_u32(input, cand) == v;
        if found {
            // The four bytes at `cand` were just compared whole (and the
            // loop bound leaves at least four to match): extend past them.
            let max_len = (n - i).min(MAX_MATCH);
            let len =
                MIN_MATCH + match_len(input, cand + MIN_MATCH, i + MIN_MATCH, max_len - MIN_MATCH);
            w.literals(input, lit, i);
            w.match_token(len, i - cand);
            // Seed one hash inside the match so runs keep chaining.
            if i + len + MIN_MATCH <= n {
                let j = i + len - 1;
                table[hash4(input, j, HASH_BITS)] = j as u32;
            }
            i += len;
            lit = i;
            misses = 0;
        } else {
            // Skip acceleration: after a long literal run, pass over
            // several literals per probe so incompressible data stays fast.
            i += (1 + (misses >> 5) as usize).min(n - i);
            misses += 1;
        }
    }
    w.finish(input, lit, limit, out)
}

/// [`compress_medium_within`] with no limit: the whole MEDIUM stream.
pub fn compress_medium_with(scratch: &mut Scratch, input: &[u8], out: &mut Vec<u8>) {
    compress_medium_within(scratch, input, out, usize::MAX);
}

/// Two-chain lazy compression using reusable working memory, appending the
/// stream to `out` only if it is shorter than `limit` bytes; returns
/// whether it did. In steady state (same-size blocks) this performs no heap
/// allocation: the link arrays are only grown, never cleared — stale
/// entries are unreachable because chains start at heads reset for every
/// block and each `link[pos]` is written before a head can point at `pos`.
/// Literal runs are deferred, and the final one capped by `limit`, as in
/// [`compress_light_within`]: a miss and a lost lazy step only move `i`.
pub fn compress_medium_within(
    scratch: &mut Scratch,
    input: &[u8],
    out: &mut Vec<u8>,
    limit: usize,
) -> bool {
    /// Inputs shorter than this go out as literals (the finder reads 8-byte
    /// keys; nothing that small is worth a table reset).
    const SHORT_INPUT: usize = 16;
    let n = input.len();
    let mut w = TokenWriter::new(token_span(&mut scratch.tokens, TokenWriter::span_len(n)));
    if n < SHORT_INPUT {
        return w.finish(input, 0, limit, out);
    }
    reset_table(&mut scratch.med_long_head, 1 << MediumFinder::HASH_BITS);
    reset_table(&mut scratch.med_short_head, 1 << MediumFinder::HASH_BITS);
    ensure_len_uninit(&mut scratch.med_long_link, n);
    ensure_len_uninit(&mut scratch.med_short_link, n);
    let mut f = MediumFinder {
        input,
        long_head: &mut scratch.med_long_head,
        long_link: &mut scratch.med_long_link,
        short_head: &mut scratch.med_short_head,
        short_link: &mut scratch.med_short_link,
    };

    // Positions up to `last` have a whole 8-byte key; the few after it are
    // reachable as match tails only.
    let last = n - MediumFinder::KEY_LEN;
    let mut i = 0usize;
    let mut lit = 0usize;
    let mut misses = 0u32;
    // A lazy probe that won: the match at `i`, already searched and
    // inserted by the previous iteration.
    let mut carried = None;
    while i <= last {
        let Some((len, off)) = carried.take().or_else(|| f.probe(i, MIN_MATCH - 1)) else {
            // LIGHT's skip acceleration: after a long literal run, pass
            // over several literals per probe so incompressible data stays
            // fast.
            i += (1 + (misses >> 5) as usize).min(n - i);
            misses += 1;
            continue;
        };
        misses = 0;
        // One-step lazy match: prefer a match at i + 1 that is longer by
        // two or more, and keep it for the next iteration (`input[i]`
        // joins the literal run).
        let mut next = i + 1;
        if next <= last {
            carried = f.probe(next, len + 1);
            if carried.is_some() {
                i = next;
                continue;
            }
            next += 1;
        }
        w.literals(input, lit, i);
        w.match_token(len, off);
        i += len;
        lit = i;
        for pos in next..i.min(last + 1) {
            f.insert(pos);
        }
    }
    w.finish(input, lit, limit, out)
}

#[cfg(test)]
thread_local! {
    /// Chain hops and probed positions of this thread's MEDIUM calls.
    static EFFORT: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

#[inline(always)]
fn count_effort(_hops: u64, _probes: u64) {
    #[cfg(test)]
    EFFORT.with(|e| e.set((e.get().0 + _hops, e.get().1 + _probes)));
}

/// MEDIUM's match finder: two hash chains over one block. The long chain is
/// keyed on 8 bytes and gets the depth, because an 8-byte key has few
/// occurrences and each of them is a match worth a token; the short chain
/// (the 4-byte key LIGHT uses) is walked only when the long walk came back
/// with nothing, for the 4..=7-byte matches the long key cannot see. Heads
/// hold absolute positions (`u32::MAX` = empty); links are `u16` backward
/// distances with `0` = end of chain (no earlier occurrence, or one farther
/// than [`MAX_OFFSET`]).
struct MediumFinder<'a> {
    input: &'a [u8],
    long_head: &'a mut [u32],
    long_link: &'a mut [u16],
    short_head: &'a mut [u32],
    short_link: &'a mut [u16],
}

impl MediumFinder<'_> {
    const HASH_BITS: u32 = 15;
    /// Bytes hashed by the long chain; a position needs this many bytes
    /// after it to be probed or inserted.
    const KEY_LEN: usize = 8;
    /// Hops per probe on the long and on the short chain.
    const LONG_DEPTH: u32 = 16;
    const SHORT_DEPTH: u32 = 8;

    /// Links `pos` into both chains and returns the distance to the previous
    /// position of each (long, short).
    #[inline]
    fn insert(&mut self, pos: usize) -> (u16, u16) {
        let v = u64::from_le_bytes(self.input[pos..pos + Self::KEY_LEN].try_into().unwrap());
        let hl = (v.wrapping_mul(0x9E37_79B1_85EB_CA87) >> (64 - Self::HASH_BITS)) as usize;
        let hs = hash_u32(v as u32, Self::HASH_BITS);
        // An empty head (`u32::MAX`) wraps to a distance past `MAX_OFFSET`.
        let link = |head: u32| u16::try_from((pos as u64).wrapping_sub(head as u64)).unwrap_or(0);
        let dl = link(std::mem::replace(&mut self.long_head[hl], pos as u32));
        let ds = link(std::mem::replace(&mut self.short_head[hs], pos as u32));
        self.long_link[pos] = dl;
        self.short_link[pos] = ds;
        (dl, ds)
    }

    /// Inserts `pos` and returns the longest match there that is strictly
    /// longer than `floor` (at least `MIN_MATCH - 1`), as `(len, offset)`.
    #[inline]
    fn probe(&mut self, pos: usize, floor: usize) -> Option<(usize, usize)> {
        let (dl, ds) = self.insert(pos);
        let limit = (self.input.len() - pos).min(MAX_MATCH);
        if floor >= limit {
            return None;
        }
        let mut best = (floor, 0);
        let mut hops = self.walk(self.long_link, Self::LONG_DEPTH, pos, dl, limit, &mut best);
        // The long walk has seen every match of 8 bytes and more within its
        // depth; the short chain adds the 4..=7-byte ones.
        if best.0 + 1 < Self::KEY_LEN {
            hops += self.walk(
                self.short_link,
                Self::SHORT_DEPTH,
                pos,
                ds,
                limit,
                &mut best,
            );
        }
        count_effort(hops, 1);
        (best.0 > floor).then_some(best)
    }

    /// Walks one chain back from `pos` (`d` = its first link) for at most
    /// `depth` hops, raising `best` = `(len, offset)` to the longest match
    /// found; `best.0 < limit` on entry. Returns the hops taken.
    #[inline]
    fn walk(
        &self,
        link: &[u16],
        mut depth: u32,
        pos: usize,
        mut d: u16,
        limit: usize,
        best: &mut (usize, usize),
    ) -> u64 {
        let input = self.input;
        let mut hops = 0;
        let mut c = pos;
        while d != 0 && depth > 0 {
            c -= d as usize;
            if pos - c > MAX_OFFSET {
                break;
            }
            hops += 1;
            // Load the next link before the unpredictable look at this
            // candidate, so the two overlap.
            d = link[c];
            depth -= 1;
            // A longer match must agree on the four bytes that end just
            // past the best.
            let at = best.0 - (MIN_MATCH - 1);
            if read_u32(input, c + at) == read_u32(input, pos + at) {
                let len = match_len(input, c, pos, limit);
                if len > best.0 {
                    *best = (len, pos - c);
                    if len == limit {
                        break;
                    }
                }
            }
        }
        hops
    }
}

/// Most output a token stream of `n` bytes can decode to, per input byte:
/// the densest group is a control byte and eight 3-byte match tokens of
/// [`MAX_MATCH`] bytes each — 25 wire bytes for 8 × 259 — and every other
/// mix of items yields less per byte. Bounds the decode window (see
/// `crate::window`).
const MAX_EXPANSION: usize = (8 * MAX_MATCH).div_ceil(1 + 8 * 3);

/// Decompresses a token stream produced by either setting, appending to
/// `out`. `expected_len` is the uncompressed size recorded in the frame
/// header; on an error `out` keeps the bytes decoded before it.
/// [`decompress_within`] with no bound.
///
/// The loop writes into a pre-sized window (`crate::window`) with an
/// output cursor instead of growing `out` per token. Consecutive literal
/// bits of a control byte are counted with `trailing_zeros`, and the run —
/// at most 8 bytes — is moved as one fixed 8-byte load and store while 8
/// input bytes and 8 window bytes are there to be touched; the stream's last
/// bytes take the exact-length copy, which also carries the truncation rule
/// (the literals that are present are produced, then `Truncated`). Matches
/// go through `window::copy_match`. Output bytes, consumed bytes and every
/// error are those of the byte-at-a-time oracle
/// (`tests/reference/mod.rs::decompress_reference`); `tests/hot_loops.rs`
/// holds the two together.
pub fn decompress(input: &[u8], expected_len: usize, out: &mut Vec<u8>) -> Result<()> {
    decompress_within(input, expected_len, expected_len, out)
}

/// [`decompress`] of the block's first `min(want, expected_len)` bytes: the
/// same loop, which stops once it has produced them. A match that crosses
/// the bound is checked as the whole decode checks it and copied only up
/// to the bound, and the trailing-bytes check runs only on a whole decode.
/// So the bytes appended are the whole decode's output cut at the bound
/// whenever that decode gets that far, and its error otherwise.
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
    let mut p = 0usize;
    while *d < bound {
        let &ctrl = input.get(p).ok_or(CodecError::Truncated)?;
        p += 1;
        // Items left in this group, LSB first, under a sentinel bit that
        // ends it: the group is spent when only the sentinel is left.
        let mut ctrl = ctrl as u32 | 0x100;
        while ctrl != 1 && *d < bound {
            if ctrl & 1 == 0 {
                // Literal run: every consecutive zero bit is one literal
                // byte; the sentinel caps the count at the group's rest.
                let want = (ctrl.trailing_zeros() as usize).min(bound - *d);
                if let (Some(src), Some(dst)) = (input.get(p..p + 8), win.get_mut(*d..*d + 8)) {
                    dst.copy_from_slice(src);
                } else {
                    let have = want.min(input.len() - p);
                    win[*d..*d + have].copy_from_slice(&input[p..p + have]);
                    if have < want {
                        // The literals that are there are produced before
                        // the truncation is reported.
                        *d += have;
                        return Err(CodecError::Truncated);
                    }
                }
                p += want;
                *d += want;
                ctrl >>= want;
            } else {
                let token = input.get(p..p + 3).ok_or(CodecError::Truncated)?;
                let len = token[0] as usize + MIN_MATCH;
                let off = u16::from_le_bytes([token[1], token[2]]) as usize;
                p += 3;
                if off == 0 || off > *d {
                    return Err(CodecError::Corrupt("match offset out of range"));
                }
                if *d + len > expected_len {
                    return Err(CodecError::Corrupt("match overruns expected length"));
                }
                // The whole match on a whole decode; up to the bound on a
                // bounded one (an overlapping copy's prefix is the prefix
                // of the copy).
                let len = len.min(bound - *d);
                window::copy_match(win, *d, off, len);
                *d += len;
                ctrl >>= 1;
            }
        }
    }
    if bound == expected_len && p != input.len() {
        // Only control-byte padding bits may remain; extra payload means
        // a corrupt frame.
        return Err(CodecError::Corrupt("trailing bytes after stream end"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{decompress_reference, match_len_naive, repeat_free};

    fn roundtrip(compress: fn(&mut Scratch, &[u8], &mut Vec<u8>), data: &[u8]) -> usize {
        let mut c = Vec::new();
        compress(&mut Scratch::new(), data, &mut c);
        let mut d = Vec::new();
        decompress(&c, data.len(), &mut d).unwrap();
        assert_eq!(d, data);
        let mut slow = Vec::new();
        decompress_reference(&c, data.len(), &mut slow).unwrap();
        assert_eq!(slow, data);
        c.len()
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        for data in [&b""[..], b"a", b"ab", b"abc", b"abcd"] {
            roundtrip(compress_light_with, data);
            roundtrip(compress_medium_with, data);
        }
    }

    #[test]
    fn roundtrip_repetitive() {
        let data = b"abcabcabcabcabcabcabcabcabcabc".repeat(100);
        let cl = roundtrip(compress_light_with, &data);
        let cm = roundtrip(compress_medium_with, &data);
        assert!(cl < data.len() / 4, "light: {cl} vs {}", data.len());
        assert!(cm <= cl + 8, "medium ({cm}) should not be much worse than light ({cl})");
    }

    #[test]
    fn roundtrip_long_runs() {
        let mut data = vec![0u8; 100_000];
        data[50_000..50_100].fill(0xFF);
        let c = roundtrip(compress_light_with, &data);
        assert!(c < 3000, "long zero runs should collapse, got {c}");
        roundtrip(compress_medium_with, &data);
    }

    #[test]
    fn roundtrip_incompressible() {
        let data = noise(65536, 0x12345678);
        let cl = roundtrip(compress_light_with, &data);
        // Worst case ~ 9/8 expansion.
        assert!(cl <= data.len() + data.len() / 8 + 16);
        roundtrip(compress_medium_with, &data);
    }

    #[test]
    fn medium_not_worse_than_light_on_text() {
        let data = adcomp_corpus_text();
        let mut cl = Vec::new();
        compress_light_with(&mut Scratch::new(), &data, &mut cl);
        let mut cm = Vec::new();
        compress_medium_with(&mut Scratch::new(), &data, &mut cm);
        assert!(cm.len() <= cl.len(), "medium {} vs light {}", cm.len(), cl.len());
    }

    // Small hand-rolled "English-ish" text so this crate's unit tests do not
    // depend on adcomp-corpus (which is a dev-dependency for integration
    // tests only).
    fn adcomp_corpus_text() -> Vec<u8> {
        let words = ["the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog"];
        let mut s = String::new();
        let mut x = 7u64;
        while s.len() < 60_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            s.push_str(words[(x >> 33) as usize % words.len()]);
            s.push(' ');
        }
        s.into_bytes()
    }

    #[test]
    fn decompress_rejects_bad_offset() {
        // Control byte with bit0 = 1 (match), offset 100 with nothing produced.
        let stream = [0b0000_0001u8, 0, 100, 0];
        let mut out = Vec::new();
        assert!(matches!(
            decompress(&stream, 50, &mut out),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn decompress_rejects_truncation() {
        let data = b"hello world hello world hello world".repeat(10);
        let mut c = Vec::new();
        compress_light_with(&mut Scratch::new(), &data, &mut c);
        let mut out = Vec::new();
        assert!(decompress(&c[..c.len() - 2], data.len(), &mut out).is_err());
    }

    #[test]
    fn decompress_rejects_trailing_garbage() {
        let data = b"aaaa bbbb cccc".repeat(20);
        let mut c = Vec::new();
        compress_light_with(&mut Scratch::new(), &data, &mut c);
        c.extend_from_slice(&[1, 2, 3, 4]);
        let mut out = Vec::new();
        assert!(decompress(&c, data.len(), &mut out).is_err());
    }

    #[test]
    fn overlapping_match_copy() {
        // "aaaaaaaa..." forces offset-1 matches (RLE-style overlap).
        let data = vec![b'a'; 1000];
        roundtrip(compress_light_with, &data);
        roundtrip(compress_medium_with, &data);
    }

    /// The word-oriented fast path must agree with the byte-wise reference
    /// at every word boundary and for every tail length, including matches
    /// that run exactly to the end of the buffer.
    #[test]
    fn match_len_word_boundaries_and_tails() {
        for n in [8usize, 9, 15, 16, 17, 23, 24, 31, 64, 100] {
            // Two copies of an `n`-byte pattern; then break it at every
            // position to exercise every trailing_zeros outcome.
            for break_at in 0..n {
                let mut data = vec![0xABu8; 2 * n];
                for (i, b) in data.iter_mut().enumerate() {
                    *b = (i % n) as u8; // same pattern in both halves
                }
                data[n + break_at] ^= 0x80;
                for limit in 0..=n {
                    assert_eq!(
                        match_len(&data, 0, n, limit),
                        match_len_naive(&data, 0, n, limit),
                        "n={n} break_at={break_at} limit={limit}"
                    );
                }
            }
        }
    }

    #[test]
    fn match_len_full_limit_at_buffer_end() {
        // A match running exactly to the end of the buffer: limit = n - b.
        let data = b"abcdefgh".repeat(8); // 64 bytes, period 8
        let limit = data.len() - 8;
        assert_eq!(match_len(&data, 0, 8, limit), limit);
        assert_eq!(match_len_naive(&data, 0, 8, limit), limit);
    }

    /// `len` bytes of a fixed pseudo-random stream (xorshift64 from `x`):
    /// incompressible filler with no repeats worth a token.
    fn noise(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// The longest stream either setting writes — incompressible bytes,
    /// every one a literal — is exactly `n + ceil(n / 8)` bytes, and it is
    /// written into a span of exactly `TokenWriter::span_len(n)`: a fixed
    /// 8-byte store past its end would be an index panic here. Run in both
    /// profiles (debug adds the overflow checks).
    #[test]
    fn span_bound_all_literals() {
        type WithFn = fn(&mut Scratch, &[u8], &mut Vec<u8>);
        let settings: [(&str, WithFn); 2] =
            [("LIGHT", compress_light_with), ("MEDIUM", compress_medium_with)];
        for n in (0..=64).chain([4096, 131_072, 131_073]) {
            // No 4-byte repeat within 260 100 bytes: farther than
            // `MAX_OFFSET`.
            let data = repeat_free(n, 0);
            for (name, with) in settings {
                let mut scratch = Scratch::new();
                let mut out = vec![0xA5; 3];
                with(&mut scratch, &data, &mut out);
                assert_eq!(scratch.tokens.len(), TokenWriter::span_len(n), "{name} n={n}");
                assert_eq!(out.len() - 3, n + n.div_ceil(8), "{name} n={n}");
                let mut d = Vec::new();
                decompress(&out[3..], n, &mut d).unwrap();
                assert_eq!(d, data, "{name} n={n}");
            }
        }
    }

    /// `(position, len, offset)` of every match token in a valid stream.
    fn matches_of(stream: &[u8], expected_len: usize) -> Vec<(usize, usize, usize)> {
        let (mut p, mut produced, mut found) = (0, 0, Vec::new());
        while produced < expected_len {
            let ctrl = stream[p];
            p += 1;
            for bit in 0..8 {
                if produced == expected_len {
                    break;
                }
                if ctrl >> bit & 1 == 0 {
                    p += 1;
                    produced += 1;
                } else {
                    let len = stream[p] as usize + MIN_MATCH;
                    let off = u16::from_le_bytes([stream[p + 1], stream[p + 2]]) as usize;
                    found.push((produced, len, off));
                    p += 3;
                    produced += len;
                }
            }
        }
        found
    }

    /// 200 KiB of noise whose only repeats are three 4 KiB stretches copied
    /// 65 535, 65 536 and 70 000 bytes ahead: the farthest distance a `u16`
    /// link and the token format reach, and two just past it. (Stretches
    /// this long, because the literal-run skip probes noise sparsely: only
    /// some of their positions are in the chains.)
    const FAR_REPEATS: [(usize, usize); 3] = [(1_000, 65_535), (6_000, 65_536), (11_000, 70_000)];
    const FAR_LEN: usize = 4096;

    fn far_repeat_block() -> Vec<u8> {
        let mut block = noise(200 * 1024, 0x9E37_79B9_7F4A_7C15);
        for (src, dist) in FAR_REPEATS {
            block.copy_within(src..src + FAR_LEN, src + dist);
        }
        block
    }

    /// MEDIUM finds a repeat exactly `MAX_OFFSET` back and nothing farther:
    /// a link that would be longer is stored as end-of-chain.
    #[test]
    fn medium_reaches_max_offset_and_no_farther() {
        let block = far_repeat_block();
        let mut c = Vec::new();
        compress_medium_with(&mut Scratch::new(), &block, &mut c);
        let found = matches_of(&c, block.len());
        let found_back = |dist: usize| -> usize {
            found
                .iter()
                .filter(|&&(_, _, off)| off == dist)
                .map(|&(_, len, _)| len)
                .sum()
        };
        assert!(
            found_back(MAX_OFFSET) >= FAR_LEN / 2,
            "the repeat 65 535 back went unfound: {found:?}"
        );
        // The other two copies lie past every link and token: whatever is
        // matched inside them is a chance 4-byte hit, not the copy.
        for (src, dist) in &FAR_REPEATS[1..] {
            let copy = src + dist..src + dist + FAR_LEN;
            for &(pos, len, off) in found.iter().filter(|m| copy.contains(&m.0)) {
                assert!(
                    len < 16,
                    "match at {pos} (len {len}, offset {off}) inside a copy {dist} back"
                );
            }
        }
    }

    /// A reused scratch must produce bit-identical output to a fresh one;
    /// stale hash-table/chain contents must never leak into the parse.
    #[test]
    fn scratch_reuse_is_bit_identical() {
        // Adversarial sequence: sizes shrink and grow, so MEDIUM's link
        // arrays keep stale distances from larger earlier blocks (a stale
        // `u16` link followed by mistake would point at a position that
        // never held this block's bytes), and sizes 0..=24 straddle its
        // short-input arm.
        let mut blocks: Vec<Vec<u8>> = vec![
            far_repeat_block(),        // 200 KB, links near the u16 limit
            b"abcabcabc".repeat(4000), // 36 KB repetitive
            vec![b'x'; 100],           // tiny
            (0..50_000u32).flat_map(|i| i.to_le_bytes()).collect(), // structured
            Vec::new(),                // empty
            b"the quick brown fox ".repeat(5000), // 100 KB text
        ];
        blocks.extend((0..=24).map(|n| b"abcdabcd".repeat(4)[..n].to_vec()));
        blocks.extend(
            [300usize, 70_000, 2_000, 150_000]
                .map(|n| b"0123456789abcdefghijklm".repeat(n / 23 + 1)[..n].to_vec()),
        );
        blocks.push(far_repeat_block());
        type WithFn = fn(&mut Scratch, &[u8], &mut Vec<u8>);
        let variants: [(usize, WithFn); 2] = [(0, compress_light_with), (1, compress_medium_with)];
        let mut scratch = Scratch::new();
        for (i, block) in blocks.iter().enumerate() {
            for (which, with) in variants {
                let mut a = Vec::new();
                with(&mut Scratch::new(), block, &mut a);
                let mut b = Vec::new();
                with(&mut scratch, block, &mut b);
                assert_eq!(a, b, "block {i} codec {which}: reused scratch diverged");
                let mut d = Vec::new();
                decompress(&b, block.len(), &mut d).unwrap();
                assert_eq!(&d, block, "block {i} codec {which}: roundtrip failed");
            }
        }
    }

    /// Hops and probed positions MEDIUM spends on `data` (one block).
    fn effort_of(data: &[u8]) -> (u64, u64) {
        EFFORT.with(|e| e.set((0, 0)));
        roundtrip(compress_medium_with, data);
        EFFORT.with(|e| e.get())
    }

    /// The finder's work is bounded per probed position whatever the input,
    /// and stays at a fraction of the single 48-deep chain it replaced on
    /// the corpus text. Fails loudly if a tune-up goes quadratic.
    #[test]
    fn medium_effort_is_bounded() {
        const LEN: usize = 128 * 1024;
        // Every 8-byte key equal, the byte after it different: the long
        // chain is as long as the block and none of its entries extends.
        let mut every_key_equal = noise(LEN, 7);
        for chunk in every_key_equal.chunks_mut(9) {
            let keyed = chunk.len().min(8);
            chunk[..keyed].copy_from_slice(&b"8-gram!!"[..keyed]);
        }
        let text = adcomp_corpus::generate(adcomp_corpus::Class::Moderate, LEN, 4);
        let inputs: [(&str, &[u8]); 6] = [
            ("zeros", &[0; LEN]),
            ("period 3", &b"abc".repeat(LEN / 3 + 1)[..LEN]),
            (
                "fax rows",
                &adcomp_corpus::generate(adcomp_corpus::Class::High, LEN, 4),
            ),
            (
                "jpeg-like",
                &adcomp_corpus::generate(adcomp_corpus::Class::Low, LEN, 4),
            ),
            ("Zipf text", &text),
            ("every 8-gram equal", &every_key_equal),
        ];
        let per_probe = (MediumFinder::LONG_DEPTH + MediumFinder::SHORT_DEPTH) as u64;
        for (name, data) in inputs {
            let (hops, probes) = effort_of(data);
            assert!(
                probes <= LEN as u64,
                "{name}: {probes} probes for {LEN} positions"
            );
            assert!(
                hops <= per_probe * probes,
                "{name}: {hops} hops over {probes} probes"
            );
        }
        // The chain walked to depth 48 twice per match spent 7 400 hops per
        // KiB on this text (commit 57db0f0).
        let per_kib = effort_of(&text).0 / (LEN as u64 / 1024);
        assert!(per_kib <= 7_400 / 2, "text: {per_kib} hops per KiB");
    }
}
