//! CRC-32 (IEEE 802.3 polynomial), implemented here so block frames can be
//! integrity-checked without external dependencies.
//!
//! **One entry point, three kernels.** Frames ([`crate::frame`]), the seek
//! index, the serve protocol and every other caller go through [`crc32`] /
//! [`Hasher`], so an optimization (or a bug) here is visible everywhere —
//! which is exactly why the module carries published test vectors. Behind
//! that entry point [`Hasher::update`] picks a kernel from what it can
//! observe — the CPU and the input length — and nothing else; all three
//! kernels compute the same function, so no wire byte depends on the choice:
//!
//! * **512-bit folding** (`clmul`, x86_64 with VPCLMULQDQ + AVX-512F
//!   detected at run time, inputs of at least 256 bytes): four 512-bit
//!   accumulators folded across 256-byte strides, collapsed into one, whose
//!   four 128-bit lanes carry on through the 128-bit kernel's lane fold and
//!   reduction below. About 3x the 128-bit kernel on 64 KiB.
//! * **128-bit folding** (`clmul`, x86_64 with PCLMULQDQ + SSE4.1, inputs
//!   of at least 128 bytes that the 512-bit kernel does not take): the
//!   Intel "Fast CRC Computation Using PCLMULQDQ" scheme — four 128-bit
//!   accumulators folded across 64-byte strides, fold-by-1 over the
//!   remaining 16-byte lanes, Barrett reduction to 32 bits. Roughly 10x
//!   slicing-by-8 on block-sized payloads, which matters because every
//!   application byte crosses a CRC two to four times on the `put`/`get`
//!   paths. The two folding kernels are the crate's only `unsafe` code.
//! * **Slicing-by-8** (everything else — other architectures, older CPUs,
//!   control frames, and the < 16-byte tail the folding kernels leave):
//!   eight const-built 256-entry tables let the state advance eight input
//!   bytes per step with one unaligned 8-byte load and eight independent
//!   table lookups, instead of the classic one-lookup-per-byte Sarwate
//!   loop (3–5x over it). It stays because it is the only kernel on those
//!   platforms and inputs.
//!
//! The oracle (`tests/reference/mod.rs::crc32_bitwise`, compiled only
//! under test) is neither: a table-free bit-at-a-time loop that shares
//! nothing with the kernels and anchors their differential tests.

const POLY: u32 = 0xEDB8_8320;

/// Eight slicing tables. `TABLES[0]` is the classic Sarwate table
/// (`TABLES[0][i]` = CRC of the single byte `i`); `TABLES[k][i]` advances
/// that value through `k` additional zero bytes, so one 8-byte step can
/// combine eight independent lookups.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        j += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Computes the CRC-32 of `data` in one shot.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Hasher::new();
    h.update(data);
    h.finish()
}

/// Slicing-by-8 kernel: advances the raw (un-inverted) `state` over `data`.
pub(crate) fn update_slicing(state: u32, data: &[u8]) -> u32 {
    let mut c = state;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        // One 8-byte little-endian load; low word folds the current
        // state, high word is pure data. Eight independent lookups —
        // no loop-carried dependency between them, so the CPU
        // overlaps the loads.
        let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Carry-less-multiply folding kernels: advance the raw `state` over all of
/// `data` (the whole 16-byte lanes by folding, the < 16-byte tail through
/// [`update_slicing`]), 512 bits at a time where the CPU and length allow.
/// `None` when neither applies — the CPU lacks PCLMULQDQ/SSE4.1 or `data`
/// is shorter than 128 bytes.
#[cfg(target_arch = "x86_64")]
pub(crate) fn update_folding(state: u32, data: &[u8]) -> Option<u32> {
    clmul::update(state, data)
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn update_folding(_state: u32, _data: &[u8]) -> Option<u32> {
    None
}

/// Incremental CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Hasher {
    state: u32,
}

impl Hasher {
    pub fn new() -> Self {
        Hasher { state: 0xFFFF_FFFF }
    }

    pub fn update(&mut self, data: &[u8]) {
        self.state =
            update_folding(self.state, data).unwrap_or_else(|| update_slicing(self.state, data));
    }

    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher::new()
    }
}

/// The carry-less-multiply folding kernels — the one place in this crate
/// that needs `unsafe` (to call `#[target_feature]` functions and to issue
/// unaligned 16- and 64-byte loads). Not compiled on other architectures.
///
/// Bit-reflected arithmetic throughout: a 128-bit register holds a
/// polynomial over GF(2) with bit 0 as its *highest* power, which is how
/// little-endian loads of CRC-32's LSB-first byte stream land. A carry-less
/// multiply of two reflected operands comes out one bit low, so every
/// constant below is `reflect32(x^n mod P) << 1`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    #![deny(unsafe_op_in_unsafe_fn)]

    use std::arch::x86_64::*;

    /// Shorter inputs stay on slicing-by-8: the kernel needs 64 bytes just
    /// to fill its accumulators and ends in a fixed five-multiply reduction.
    const MIN_LEN: usize = 128;
    /// Shorter inputs stay on the 128-bit kernel: the wide one needs 256
    /// bytes to fill its four 512-bit accumulators.
    const WIDE_MIN_LEN: usize = 256;

    /// x^(4·128+32) and x^(4·128−32) mod P: carry an accumulator's low and
    /// high halves 512 bits (one 64-byte stride) forward.
    pub(super) const K1: u64 = 0x1_5444_2BD4;
    pub(super) const K2: u64 = 0x1_C6E4_1596;
    /// x^(128+32) and x^(128−32) mod P: the same, one 16-byte lane forward.
    pub(super) const K3: u64 = 0x1_7519_97D0;
    pub(super) const K4: u64 = 0x0_CCAA_009E;
    /// x^64 mod P.
    pub(super) const K5: u64 = 0x1_63CD_6124;
    /// P itself (33 bits) and μ = ⌊x^64 / P⌋, for the Barrett step.
    pub(super) const P_X: u64 = 0x1_DB71_0641;
    pub(super) const MU: u64 = 0x1_F701_1641;
    /// x^(16·128+32) and x^(16·128−32) mod P: the same, 2048 bits (one
    /// 256-byte stride of the wide kernel) forward.
    pub(super) const K2048_LO: u64 = x_pow_mod_p(16 * 128 + 32);
    pub(super) const K2048_HI: u64 = x_pow_mod_p(16 * 128 - 32);

    /// `reflect32(x^n mod P) << 1`: in reflected form x^0 is the top bit
    /// and multiplying by x is one CRC shift step.
    const fn x_pow_mod_p(n: u32) -> u64 {
        let mut c = 0x8000_0000u32;
        let mut i = 0;
        while i < n {
            c = if c & 1 != 0 { super::POLY ^ (c >> 1) } else { c >> 1 };
            i += 1;
        }
        (c as u64) << 1
    }

    /// The wide kernel where it applies, else the 128-bit one.
    pub(super) fn update(state: u32, data: &[u8]) -> Option<u32> {
        update_wide(state, data).or_else(|| update_narrow(state, data))
    }

    /// The 128-bit kernel: `None` below [`MIN_LEN`] bytes or without
    /// PCLMULQDQ + SSE4.1.
    pub(super) fn update_narrow(state: u32, data: &[u8]) -> Option<u32> {
        if data.len() < MIN_LEN
            || !is_x86_feature_detected!("pclmulqdq")
            || !is_x86_feature_detected!("sse4.1")
        {
            return None;
        }
        let (lanes, tail) = data.as_chunks::<16>();
        // SAFETY: `fold_lanes` is compiled for exactly the two features
        // detected on this CPU just above.
        let state = unsafe { fold_lanes(state, lanes) };
        Some(super::update_slicing(state, tail))
    }

    /// The 512-bit kernel: `None` below [`WIDE_MIN_LEN`] bytes or without
    /// VPCLMULQDQ + AVX-512F (and the two features its 128-bit tail uses).
    pub(super) fn update_wide(state: u32, data: &[u8]) -> Option<u32> {
        if data.len() < WIDE_MIN_LEN
            || !is_x86_feature_detected!("vpclmulqdq")
            || !is_x86_feature_detected!("avx512f")
            || !is_x86_feature_detected!("pclmulqdq")
            || !is_x86_feature_detected!("sse4.1")
        {
            return None;
        }
        let (lanes, tail) = data.as_chunks::<16>();
        // SAFETY: `fold_wide` is compiled for exactly the four features
        // detected on this CPU just above.
        let state = unsafe { fold_wide(state, lanes) };
        Some(super::update_slicing(state, tail))
    }

    #[inline]
    fn load(lane: &[u8; 16]) -> __m128i {
        // SAFETY: `lane` is a live reference to exactly 16 bytes — every
        // caller takes it from a slice already split into `[u8; 16]`
        // chunks — and `_mm_loadu_si128` has no alignment requirement.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load_wide(lanes: &[[u8; 16]; 4]) -> __m512i {
        // SAFETY: `lanes` is a live reference to exactly 64 contiguous
        // bytes, `_mm512_loadu_si512` has no alignment requirement, and
        // this function only runs where AVX-512F is enabled.
        unsafe { _mm512_loadu_si512(lanes.as_ptr().cast()) }
    }

    /// `acc · x^distance + next`, where `keys` holds the two constants for
    /// that distance (low half of `acc` × low key, high half × high key).
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// [`fold`] on each of the four 128-bit lanes of a 512-bit register.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn fold_wide_acc(acc: __m512i, next: __m512i, keys: __m512i) -> __m512i {
        let lo = _mm512_clmulepi64_epi128::<0x00>(acc, keys);
        let hi = _mm512_clmulepi64_epi128::<0x11>(acc, keys);
        // 0x96: the truth table of a three-way xor.
        _mm512_ternarylogic_epi64::<0x96>(lo, hi, next)
    }

    /// Advances the raw CRC `state` over `lanes` (at least four: callers
    /// guarantee [`MIN_LEN`] bytes).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_lanes(state: u32, lanes: &[[u8; 16]]) -> u32 {
        let (head, rest) = lanes.split_first_chunk::<4>().expect("at least four lanes");
        let mut acc: [__m128i; 4] = std::array::from_fn(|i| load(&head[i]));
        // The running CRC is a polynomial in front of the message: xor it
        // into the first four message bytes.
        acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(state as i32));
        fold_rest(acc, rest)
    }

    /// Advances the raw CRC `state` over `lanes` (at least sixteen: callers
    /// guarantee [`WIDE_MIN_LEN`] bytes). Four 512-bit accumulators fold
    /// across 256-byte strides, collapse into one, and its four 128-bit
    /// lanes go on as the 128-bit kernel's accumulators — one reduction.
    #[target_feature(enable = "avx512f,vpclmulqdq,pclmulqdq,sse4.1")]
    fn fold_wide(state: u32, lanes: &[[u8; 16]]) -> u32 {
        let (head, mut rest) = lanes.split_first_chunk::<16>().expect("at least sixteen lanes");
        let (head, _) = head.as_chunks::<4>();
        let mut acc: [__m512i; 4] = std::array::from_fn(|i| load_wide(&head[i]));
        acc[0] = _mm512_xor_si512(acc[0], _mm512_zextsi128_si512(_mm_cvtsi32_si128(state as i32)));

        let stride_keys = _mm512_broadcast_i32x4(_mm_set_epi64x(K2048_HI as i64, K2048_LO as i64));
        while let Some((stride, after)) = rest.split_first_chunk::<16>() {
            for (a, block) in acc.iter_mut().zip(stride.as_chunks::<4>().0) {
                *a = fold_wide_acc(*a, load_wide(block), stride_keys);
            }
            rest = after;
        }

        // Four 512-bit accumulators → one, 64 bytes apart.
        let block_keys = _mm512_broadcast_i32x4(_mm_set_epi64x(K2 as i64, K1 as i64));
        let mut x = acc[0];
        for &next in &acc[1..] {
            x = fold_wide_acc(x, next, block_keys);
        }
        let acc = [
            _mm512_extracti32x4_epi32::<0>(x),
            _mm512_extracti32x4_epi32::<1>(x),
            _mm512_extracti32x4_epi32::<2>(x),
            _mm512_extracti32x4_epi32::<3>(x),
        ];
        fold_rest(acc, rest)
    }

    /// Folds four 128-bit accumulators (64 consecutive message bytes, the
    /// running CRC already in) across `rest` and reduces the result to the
    /// raw CRC state.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_rest(mut acc: [__m128i; 4], mut rest: &[[u8; 16]]) -> u32 {
        // Four independent accumulators hide the multiplier's latency.
        let stride_keys = _mm_set_epi64x(K2 as i64, K1 as i64);
        while let Some((stride, after)) = rest.split_first_chunk::<4>() {
            for (a, lane) in acc.iter_mut().zip(stride) {
                *a = fold(*a, load(lane), stride_keys);
            }
            rest = after;
        }

        // Four accumulators → one, then the lanes a whole stride left over.
        let lane_keys = _mm_set_epi64x(K4 as i64, K3 as i64);
        let mut x = acc[0];
        for &next in &acc[1..] {
            x = fold(x, next, lane_keys);
        }
        for lane in rest {
            x = fold(x, load(lane), lane_keys);
        }

        // `x` now stands for a 128-bit message R whose CRC state is the
        // answer: R·x^32 mod P. Shrink it with two more multiplies —
        // low half × x^96 onto the high half gives 96 bits ≡ R·x^64 …
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, lane_keys), _mm_srli_si128::<8>(x));
        // … and its low word × x^64 onto the rest gives 64 bits that are
        // ≡ R·x^96 sitting 64 bits up, i.e. T ≡ R·x^32 in the low qword.
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5 as i64)),
            _mm_srli_si128::<4>(x),
        );

        // Barrett reduction of the 64-bit T (reflected form):
        // T1 = ⌊T / x^32⌋ · μ, T2 = ⌊T1 / x^32⌋ · P, T mod P = low 32
        // coefficients of T + T2 — bits 32..64 of the register.
        let barrett_keys = _mm_set_epi64x(MU as i64, P_X as i64);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), barrett_keys);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), barrett_keys);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::crc32_bitwise;
    use std::io::Write;

    /// One-shot CRC through the slicing-by-8 kernel alone.
    fn slicing(data: &[u8]) -> u32 {
        update_slicing(!0, data) ^ !0
    }

    /// One-shot CRC through the folding dispatch (either folding kernel);
    /// `None` where neither applies (short input, or no PCLMULQDQ).
    fn folding(data: &[u8]) -> Option<u32> {
        update_folding(!0, data).map(|state| state ^ !0)
    }

    /// One-shot CRC through the 128-bit folding kernel alone.
    fn narrow(data: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        let state = clmul::update_narrow(!0, data);
        #[cfg(not(target_arch = "x86_64"))]
        let state = None::<u32>;
        state.map(|state| state ^ !0)
    }

    /// One-shot CRC through the 512-bit folding kernel alone.
    fn wide(data: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        let state = clmul::update_wide(!0, data);
        #[cfg(not(target_arch = "x86_64"))]
        let state = None::<u32>;
        state.map(|state| state ^ !0)
    }

    /// Which folding kernels run on this CPU: `(128-bit, 512-bit)`. Says
    /// so on the real stderr (not the captured one), once, so a test log
    /// always shows which kernels were exercised.
    fn tiers() -> (bool, bool) {
        static NOTE: std::sync::Once = std::sync::Once::new();
        let have_narrow = narrow(&[0; 128]).is_some();
        let have_wide = wide(&[0; 256]).is_some();
        NOTE.call_once(|| {
            let narrow = if have_narrow { "run" } else { "SKIPPED (no pclmulqdq+sse4.1)" };
            let wide = if have_wide { "run" } else { "SKIPPED (no vpclmulqdq+avx512f)" };
            let _ = writeln!(
                std::io::stderr(),
                "crc32 unit tests: slicing-by-8 run; 128-bit folding {narrow}; \
                 512-bit folding {wide}"
            );
        });
        (have_narrow, have_wide)
    }

    fn xorshift_bytes(len: usize) -> Vec<u8> {
        let mut x = 0x0123_4567_89AB_CDEFu64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// Published CRC-32/ISO-HDLC known-answer vectors, plus longer ones
    /// (taken from zlib, an implementation that shares nothing with this
    /// one) that reach the folding kernels.
    const KNOWN: &[(&[u8], u32)] = &[
        (b"", 0x0000_0000),
        (b"a", 0xE8B7_BE43),
        (b"abc", 0x3524_41C2),
        (b"123456789", 0xCBF4_3926),
        (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
        // All-zeros vectors (regression net for table-indexing mistakes
        // that cancel out on text).
        (&[0; 4], 0x2144_DF1C),
        (&[0; 32], 0x190A_55AD),
        (&[0; 128], 0xC2A8_FA9D),
        (&[0; 1024], 0xEFB5_AF2E),
        (&[0xFF; 1024], 0xB83A_FFF4),
    ];

    #[test]
    fn known_vectors() {
        for &(data, expect) in KNOWN {
            assert_eq!(crc32(data), expect, "dispatch, len={}", data.len());
            assert_eq!(slicing(data), expect, "slicing, len={}", data.len());
            // The bitwise reference anchors every differential test below.
            assert_eq!(crc32_bitwise(data), expect, "bitwise, len={}", data.len());
        }
        let repeated = b"123456789".repeat(15);
        assert_eq!(crc32(&repeated), 0x708C_7CFC);
        assert_eq!(slicing(&repeated), 0x708C_7CFC);
    }

    #[test]
    fn folding_known_vectors() {
        // Below its threshold each kernel declines on every CPU.
        assert_eq!(folding(b"123456789"), None);
        assert_eq!(folding(&[0; 127]), None);
        assert_eq!(narrow(&[0; 127]), None);
        assert_eq!(wide(&[0; 255]), None);
        let (have_narrow, have_wide) = tiers();
        for &(data, expect) in KNOWN {
            if have_narrow && data.len() >= 128 {
                assert_eq!(narrow(data), Some(expect), "128-bit, len={}", data.len());
                assert_eq!(folding(data), Some(expect), "dispatch, len={}", data.len());
            }
            if have_wide && data.len() >= 256 {
                assert_eq!(wide(data), Some(expect), "512-bit, len={}", data.len());
            }
        }
        if have_narrow {
            assert_eq!(narrow(&b"123456789".repeat(15)), Some(0x708C_7CFC));
        }
    }

    /// Each kernel against the bitwise reference for every length 0..=1100
    /// at every start offset 0..16 (so every lane/stride/tail split and
    /// every load alignment), at lengths either side of a 4 KiB page, and
    /// up to 1 MiB — the long-payload regime the fast paths exist for.
    #[test]
    fn each_kernel_equals_bitwise_reference() {
        let data = xorshift_bytes(1 << 20);
        let (have_narrow, have_wide) = tiers();
        let check = |input: &[u8], what: &str| {
            let len = input.len();
            let expect = crc32_bitwise(input);
            assert_eq!(slicing(input), expect, "slicing {what}");
            assert_eq!(crc32(input), expect, "dispatch {what}");
            match narrow(input) {
                Some(got) => assert_eq!(got, expect, "128-bit {what}"),
                None => assert!(len < 128 || !have_narrow, "128-bit declined {what}"),
            }
            match wide(input) {
                Some(got) => assert_eq!(got, expect, "512-bit {what}"),
                None => assert!(len < 256 || !have_wide, "512-bit declined {what}"),
            }
        };
        for offset in 0..16 {
            for len in 0..=1100 {
                check(&data[offset..offset + len], &format!("offset={offset} len={len}"));
            }
        }
        for len in [4095, 4096, 4097, 65_549, 131_072] {
            check(&data[..len], &format!("len={len}"));
            check(&data[7..7 + len], &format!("offset=7 len={len}"));
        }
        for input in [&data[..], &data[3..], &data[..data.len() - 5]] {
            check(input, &format!("len={}", input.len()));
        }
    }

    /// Incremental updates split at non-multiple-of-8 offsets must equal
    /// the one-shot result (the tail loop feeds back into the 8-wide loop).
    #[test]
    fn incremental_equals_oneshot() {
        let data = b"hello crc world, split me at odd places and odd sizes!!";
        let mut h = Hasher::new();
        h.update(&data[..7]);
        h.update(&data[7..20]);
        h.update(&data[20..21]);
        h.update(&data[21..]);
        assert_eq!(h.finish(), crc32(data));
    }

    /// The running state crosses between all three kernels in every
    /// direction: a head, a middle and a tail, each of a length that
    /// sends it through slicing-by-8 (< 128 bytes), the 128-bit kernel
    /// (128–255) or the 512-bit kernel (≥ 256), seeded with a
    /// non-initial state whenever it is not the head.
    #[test]
    fn state_hands_over_between_kernels() {
        let data = xorshift_bytes(4096);
        let n = data.len();
        let expect = crc32_bitwise(&data);
        let (have_narrow, have_wide) = tiers();
        let tier = |len: usize| match len {
            256.. if have_wide => 2,
            128.. if have_narrow => 1,
            _ => 0,
        };
        let mut cuts = vec![0, 1, 15, 16, 255, 256, 257];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..6 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            cuts.push((x % n as u64) as usize);
        }
        let mut handovers = [[false; 3]; 3];
        for &a in &cuts {
            let ends = cuts.iter().flat_map(|&c| [c, a + c, n.saturating_sub(c)]);
            for b in ends.filter(|&b| a <= b && b <= n) {
                let mut h = Hasher::new();
                h.update(&data[..a]);
                h.update(&data[a..b]);
                h.update(&data[b..]);
                assert_eq!(h.finish(), expect, "split at {a},{b}");
                // The kernels that ran, in order; an empty piece runs none.
                let ran: Vec<usize> =
                    [a, b - a, n - b].into_iter().filter(|&len| len > 0).map(tier).collect();
                for pair in ran.windows(2) {
                    handovers[pair[0]][pair[1]] = true;
                }
            }
        }
        let tiers = 1 + usize::from(have_narrow) + usize::from(have_wide);
        for (from, to) in handovers.iter().enumerate().take(tiers) {
            assert!(to[..tiers].iter().all(|&seen| seen), "handovers from tier {from}: {to:?}");
        }
    }

    /// The 128-bit constants are the published ones (Intel, "Fast CRC
    /// Computation Using PCLMULQDQ"); re-derive each, and the 512-bit
    /// kernel's, from `POLY` so a typo cannot hide behind vectors that
    /// happen not to exercise it.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_constants_derive_from_the_polynomial() {
        /// `reflect32(x^n mod P) << 1`: in reflected form x^0 is the top
        /// bit and multiplying by x is the CRC shift step.
        fn x_pow_mod_p(n: u32) -> u64 {
            let mut c = 0x8000_0000u32;
            for _ in 0..n {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            u64::from(c) << 1
        }
        assert_eq!(clmul::K1, x_pow_mod_p(4 * 128 + 32));
        assert_eq!(clmul::K2, x_pow_mod_p(4 * 128 - 32));
        assert_eq!(clmul::K3, x_pow_mod_p(128 + 32));
        assert_eq!(clmul::K4, x_pow_mod_p(128 - 32));
        assert_eq!(clmul::K5, x_pow_mod_p(64));
        assert_eq!(clmul::K2048_LO, x_pow_mod_p(16 * 128 + 32));
        assert_eq!(clmul::K2048_HI, x_pow_mod_p(16 * 128 - 32));
        assert_eq!(clmul::P_X, u64::from(POLY) << 1 | 1);

        // μ = ⌊x^64 / P⌋ by long division in normal bit order, then
        // reflected over its 33 bits.
        let p = (u64::from(POLY.reverse_bits())) | 1 << 32;
        let (mut rem, mut quotient) = (1u64 << 32, 0u64);
        for bit in (0..=32).rev() {
            if rem & (1 << 32) != 0 {
                quotient |= 1 << bit;
                rem ^= p;
            }
            rem <<= 1;
        }
        assert_eq!(clmul::MU, quotient.reverse_bits() >> 31);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 1000];
        data[123] = 0x55;
        let base = crc32(&data);
        data[500] ^= 0x01;
        assert_ne!(crc32(&data), base);
    }
}
