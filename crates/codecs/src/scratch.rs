//! Reusable per-encoder working memory for the compression hot path.
//!
//! Every compressing channel pays `compress + transmit` per 128 KiB block on
//! one vCPU, so per-block heap allocation is pure overhead on the reproduced
//! result. A [`Scratch`] owns every table the codecs need (hash tables,
//! hash-chain arrays, the HEAVY probability model) and is reused across
//! blocks: in steady state the adaptive write path performs **zero heap
//! allocations per block**.
//!
//! Determinism contract: compressing a block through a reused `Scratch`
//! produces *bit-identical* output to compressing it through a fresh one.
//! Hash tables are reset between blocks; hash-chain arrays are only
//! reachable through the (reset) table heads, so their stale contents can
//! never influence the parse. A regression test in `qlz` asserts the
//! bit-identity.
//!
//! **The token span** (`tokens`). The encoders of LIGHT, MEDIUM, HUFF and
//! COLUMNAR do not grow `out` per item: each writes its stream into this span
//! through a cursor and appends `span[..cursor]` to `out` once at the end —
//! the encode-side mirror of the decoders' window (`crate::window`). The
//! span is grown to the encoder's worst case for the block (every byte a
//! literal, plus slack for fixed 8-byte stores) and never cleared or
//! zero-filled. Contract: its contents are never read before they are
//! written in the same call — a store past the cursor lands in slack that
//! the next item overwrites, and only bytes before the final cursor leave
//! the span — so what an earlier block left there cannot reach `out`.

/// Reusable codec working memory. Create once per writer/encoder and pass to
/// `compress_with`-style entry points. All tables grow lazily on first use,
/// so an unused `Scratch` costs nothing.
pub struct Scratch {
    /// LIGHT: single-probe hash table (`1 << 14` entries once used).
    pub(crate) light_table: Vec<u32>,
    /// MEDIUM: heads of the 8-byte-key and 4-byte-key chains (`1 << 15`
    /// entries each once used).
    pub(crate) med_long_head: Vec<u32>,
    pub(crate) med_short_head: Vec<u32>,
    /// MEDIUM: chain links as backward distances, one per input byte and
    /// chain (grown to the largest block seen; stale contents are
    /// unreachable by construction).
    pub(crate) med_long_link: Vec<u16>,
    pub(crate) med_short_link: Vec<u16>,
    /// HEAVY: match-finder tables + probability model (boxed so the common
    /// LIGHT/MEDIUM path does not pay for them).
    pub(crate) heavy: Option<Box<crate::heavy::HeavyScratch>>,
    /// HUFF: single-probe hash table (`1 << 15` entries once used).
    pub(crate) huff_table: Vec<u32>,
    /// LIGHT, MEDIUM, HUFF and COLUMNAR: the token span (see the module
    /// docs).
    pub(crate) tokens: Vec<u8>,
    /// COLUMNAR: the block's run ends, at most `ceil(n/2)` of them (grown
    /// to the largest block seen; only the entries written for the current
    /// block are read).
    pub(crate) run_ends: Vec<u32>,
    /// HEAVY: the last compressed payload size — a capacity hint for the
    /// next block's output (the range coder appends to `out` directly).
    pub(crate) last_out: usize,
}

impl Scratch {
    pub fn new() -> Self {
        Scratch {
            light_table: Vec::new(),
            med_long_head: Vec::new(),
            med_short_head: Vec::new(),
            med_long_link: Vec::new(),
            med_short_link: Vec::new(),
            heavy: None,
            huff_table: Vec::new(),
            tokens: Vec::new(),
            run_ends: Vec::new(),
            last_out: 0,
        }
    }

    /// HEAVY's capacity hint for the output of the next block: the previous
    /// block's compressed size plus slack, bounded by the worst-case
    /// expansion.
    #[inline]
    pub(crate) fn out_hint(&self, input_len: usize) -> usize {
        let worst = input_len + input_len / 8 + 16;
        let last = self.last_out;
        if last == 0 {
            // First block: assume mild compression.
            (input_len / 2).max(64).min(worst)
        } else {
            (last + last / 8 + 64).min(worst)
        }
    }

    /// Records the compressed payload size of HEAVY's block just produced.
    #[inline]
    pub(crate) fn note_out(&mut self, len: usize) {
        self.last_out = len;
    }

    /// Bytes of table memory currently held, token span included
    /// (diagnostics / tests).
    pub fn table_bytes(&self) -> usize {
        let heavy = self.heavy.as_ref().map_or(0, |h| h.table_bytes());
        (self.light_table.capacity()
            + self.med_long_head.capacity()
            + self.med_short_head.capacity()
            + self.huff_table.capacity()
            + self.run_ends.capacity())
            * 4
            + (self.med_long_link.capacity() + self.med_short_link.capacity()) * 2
            + self.tokens.capacity()
            + heavy
    }
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch::new()
    }
}

/// Reusable per-decoder working memory — the decode-side mirror of
/// [`Scratch`]. Today this is the HEAVY probability model (the only decode
/// state that costs heap); LIGHT/MEDIUM decode is table-free. Held by
/// `FrameReader` and each `DecodePool` worker so steady-state decode
/// performs **zero heap allocations per block**, matching the compress
/// side's contract.
///
/// Determinism contract: decoding through a reused `DecodeScratch` produces
/// byte-identical output to a fresh one — the model is reset in place to
/// the exact state `Model::new()` builds.
pub struct DecodeScratch {
    /// HEAVY: probability model (boxed so qlz-only readers never pay).
    pub(crate) heavy_model: Option<Box<crate::heavy::Model>>,
}

impl DecodeScratch {
    pub fn new() -> Self {
        DecodeScratch { heavy_model: None }
    }
}

impl Default for DecodeScratch {
    fn default() -> Self {
        DecodeScratch::new()
    }
}

/// Resets `v` to `len` entries of `u32::MAX` without shrinking capacity;
/// allocates only when `len` grows beyond the current capacity.
#[inline]
pub(crate) fn reset_table(v: &mut Vec<u32>, len: usize) {
    if v.len() == len {
        v.fill(u32::MAX);
    } else {
        v.clear();
        v.resize(len, u32::MAX);
    }
}

/// Ensures `v.len() >= len` without initializing newly *or* previously held
/// contents — for chain arrays whose entries are provably written before
/// read (each `prev[pos]` is stored before the table head can point at
/// `pos`, and chains only start at heads set in the current block).
#[inline]
pub(crate) fn ensure_len_uninit<T: Copy + Default>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        v.resize(len, T::default());
    }
}

/// The first `len` bytes of the token span `tokens`, grown if shorter and
/// otherwise untouched. Cut to exactly `len`, so a store past an encoder's
/// worst case is an index panic, not a write into room a larger earlier
/// block left behind.
#[inline]
pub(crate) fn token_span(tokens: &mut Vec<u8>, len: usize) -> &mut [u8] {
    ensure_len_uninit(tokens, len);
    &mut tokens[..len]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_starts_empty() {
        let s = Scratch::new();
        assert_eq!(s.table_bytes(), 0);
    }

    #[test]
    fn reset_table_reuses_capacity() {
        let mut v = Vec::new();
        reset_table(&mut v, 16);
        v[3] = 7;
        let ptr = v.as_ptr();
        reset_table(&mut v, 16);
        assert_eq!(v[3], u32::MAX);
        assert_eq!(v.as_ptr(), ptr, "reset must not reallocate at same size");
    }

    #[test]
    fn ensure_len_uninit_grows_only() {
        let mut v = vec![1, 2, 3];
        ensure_len_uninit(&mut v, 2);
        assert_eq!(v.len(), 3, "never shrinks");
        ensure_len_uninit(&mut v, 5);
        assert_eq!(v.len(), 5);
        assert_eq!(&v[..3], &[1, 2, 3], "existing contents untouched");
    }

    #[test]
    fn out_hint_tracks_previous_block() {
        let mut s = Scratch::new();
        let first = s.out_hint(128 * 1024);
        assert!(first >= 64);
        s.note_out(40_000);
        let next = s.out_hint(128 * 1024);
        assert!((40_000..=128 * 1024 + 128 * 1024 / 8 + 16).contains(&next));
    }
}
