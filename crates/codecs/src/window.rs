//! The decode window the LZ token decoders (`qlz`, `huff`) write into.
//!
//! A token decoder appends a few bytes per token. Doing that through
//! `Vec::push` / `extend_from_slice` / `extend_from_within` costs a capacity
//! check and a variable-length `memcpy` call per token — more than the token
//! itself. So the decoder sizes the output once, writes through a plain
//! `&mut [u8]` with an output cursor, and the vector gets its real length
//! back at the end ([`with`] does both ends). Copies are fixed-width: a 5-byte
//! match is moved as two 16-byte loads and stores and a 3-literal run as one
//! 8-byte one, the extra bytes landing past the cursor where the next token
//! overwrites them.
//!
//! **Slack.** The window is up to [`SLACK`] bytes longer than the decoder
//! may produce, so a fixed-width copy that starts inside the output can
//! finish past its end. The widest overshoot is 31 bytes (32 moved for a
//! one-byte tail); with 32 bytes of slack a copy that starts at any cursor
//! the length checks allow has room, so the test `d + 32 <= win.len()` that
//! guards it is there for the compiler and for callers without slack, not
//! for the common case. The slack is taken from spare capacity when the
//! output already fits: a caller that allocated exactly the declared length
//! keeps its allocation (the daemon's cached blocks are sized that way),
//! and the last bytes of its block take the exact-length copies instead.
//!
//! **Untrusted lengths.** The declared length comes from a frame header,
//! which no CRC covers. The window is therefore bounded by what the
//! *payload* — bytes actually in memory — can expand to under the token
//! format (each decoder passes its own constant), never by the header
//! alone: a 64-byte payload under a header that claims 64 MiB gets a window
//! of a few KiB, runs dry there and fails with the error it always failed
//! with.
//!
//! **Errors.** What a decoder leaves in `out` before an error is part of its
//! contract (the oracles in `tests/reference/` pin it). Overshoot never
//! shows: it lies past the cursor, and [`with`] cuts `out` back to the
//! cursor on every path.

/// Bytes of window past the decoder's output limit (see the module docs).
pub(crate) const SLACK: usize = 32;

/// Runs `decode` over a window of `limit` bytes plus up to [`SLACK`],
/// opened at the end of `out`. `decode` gets the window and the output
/// cursor (0 on entry) and leaves the cursor at the bytes it produced;
/// `out` keeps exactly those, whatever `decode` returns.
#[inline]
pub(crate) fn with<R>(
    out: &mut Vec<u8>,
    limit: usize,
    decode: impl FnOnce(&mut [u8], &mut usize) -> R,
) -> R {
    let start = out.len();
    let roomy = limit.saturating_add(SLACK);
    if out.capacity() - start < limit {
        out.reserve(roomy);
    }
    let end = out.capacity().min(start.saturating_add(roomy));
    out.resize(end, 0);
    let mut produced = 0;
    let result = decode(&mut out[start..], &mut produced);
    out.truncate(start + produced);
    result
}

/// Copies `len` bytes from `off` bytes back to `win[d..]` — the LZ match
/// copy, with the byte-at-a-time semantics of an overlapping copy (period
/// `off` when `off < len`). The caller has checked `1 <= off <= d` and that
/// `d + len` is within the decoder's limit.
///
/// The common token — a short match from well back — is two 16-byte moves
/// whatever its length: a chunk read `off >= 16` back is all written bytes,
/// the second chunk of a shorter period repeats the first correctly, and
/// what lands past `d + len` is slack or about to be overwritten. Long
/// matches, short periods and the window's last bytes go to [`copy_exact`].
#[inline(always)]
pub(crate) fn copy_match(win: &mut [u8], d: usize, off: usize, len: usize) {
    debug_assert!(off >= 1 && off <= d && d + len <= win.len());
    if off >= 16 && len <= 32 && d + 32 <= win.len() {
        let src = d - off;
        win.copy_within(src..src + 16, d);
        win.copy_within(src + 16..src + 32, d + 16);
    } else {
        copy_exact(win, d, off, len);
    }
}

/// [`copy_match`] writing exactly `len` bytes, each shape a bulk copy:
/// `memset` for a run (`off == 1`), one `memmove` when the match does not
/// overlap its source, doubling chunks for a short period — every
/// `copy_within` sources only bytes already written, so the periodic
/// extension is the byte loop's, in O(log(len / off)) copies.
#[inline(never)]
fn copy_exact(win: &mut [u8], d: usize, off: usize, len: usize) {
    let src = d - off;
    if off == 1 {
        let b = win[src];
        win[d..d + len].fill(b);
        return;
    }
    let mut done = 0;
    while done < len {
        let chunk = (off + done).min(len - done);
        win.copy_within(src..src + chunk, d + done);
        done += chunk;
    }
}
