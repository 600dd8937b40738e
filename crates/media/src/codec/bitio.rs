//! Bit-level I/O and exponential-Golomb entropy codes.
//!
//! The codec's entropy layer: a big-endian bit writer/reader plus the
//! unsigned (`ue`) and signed (`se`) exp-Golomb codes familiar from
//! H.264-era bitstreams. Golomb codes give short words to the small
//! residuals the predictor leaves behind, with no code tables to ship.

use crate::error::MediaError;
use crate::Result;

/// Accumulates bits MSB-first into a byte vector.
///
/// Bits collect in a 64-bit accumulator that goes to the vector eight
/// bytes at a time, so a write costs a shift and an or whatever the
/// stream's bit alignment.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits not yet in `bytes`: the low `pending` bits, oldest first.
    /// Bits above them are stale and never read.
    acc: u64,
    /// Number of bits in `acc` (0–63).
    pending: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Appends a single bit.
    #[inline]
    pub fn put_bit(&mut self, bit: bool) {
        self.put_bits(u64::from(bit), 1);
    }

    /// Appends the low `n` bits of `value`, most significant first.
    #[inline]
    pub fn put_bits(&mut self, value: u64, n: u8) {
        debug_assert!(n <= 64);
        let n = u32::from(n);
        if n == 0 {
            return;
        }
        let value = if n == 64 { value } else { value & ((1 << n) - 1) };
        let free = 64 - self.pending;
        if n < free {
            self.acc = (self.acc << n) | value;
            self.pending += n;
        } else {
            // Fill the accumulator, emit it, and keep the bits that
            // did not fit.
            let rest = n - free;
            let word = if free == 64 { value } else { (self.acc << free) | (value >> rest) };
            self.bytes.extend_from_slice(&word.to_be_bytes());
            self.acc = value;
            self.pending = rest;
        }
    }

    /// Unsigned exp-Golomb: `v` → `leading_zeros(len(v+1)-1) ++ bin(v+1)`.
    #[inline]
    pub fn put_ue(&mut self, v: u64) {
        let (x, bits) = ue_code(v);
        if bits <= 32 {
            // `x` written in `2·bits − 1` bits carries its own zero prefix.
            self.put_bits(x, (2 * bits - 1) as u8);
        } else {
            self.put_bits(0, (bits - 1) as u8);
            self.put_bits(x, bits as u8);
        }
    }

    /// Signed exp-Golomb via the standard zig-zag mapping
    /// (0, 1, −1, 2, −2, …).
    #[inline]
    pub fn put_se(&mut self, v: i64) {
        self.put_ue(zigzag(v));
    }

    /// Appends `ue(u)` then `se(s)`, in one write when the two codes
    /// fit in 64 bits.
    #[inline]
    pub(crate) fn put_ue_se(&mut self, u: u64, s: i64) {
        let (xu, bu) = ue_code(u);
        let (xs, bs) = ue_code(zigzag(s));
        let (lu, ls) = (2 * bu - 1, 2 * bs - 1);
        if lu + ls <= 64 {
            self.put_bits((xu << ls) | xs, (lu + ls) as u8);
        } else {
            self.put_ue(u);
            self.put_se(s);
        }
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.pending as usize
    }

    /// Finishes the stream (zero-padding the final byte) and returns it.
    pub fn finish(mut self) -> Vec<u8> {
        if self.pending > 0 {
            let tail = (self.acc << (64 - self.pending)).to_be_bytes();
            self.bytes.extend_from_slice(&tail[..self.pending.div_ceil(8) as usize]);
        }
        self.bytes
    }
}

/// `v + 1` and its length in bits: `ue(v)` is that many bits minus one
/// of zeros, then `v + 1`.
#[inline]
fn ue_code(v: u64) -> (u64, u32) {
    let x = v + 1;
    (x, 64 - x.leading_zeros())
}

/// The `se` → `ue` zig-zag mapping: 0, 1, −1, 2, −2, … → 0, 1, 2, 3, 4, …
#[inline]
fn zigzag(v: i64) -> u64 {
    if v <= 0 {
        (-v as u64) * 2
    } else {
        (v as u64) * 2 - 1
    }
}

/// Bits a residual token lookup reads at once: 99.9 % of the residual
/// tokens on noisy footage fit in them.
const TOKEN_BITS: u32 = 12;

/// The most samples one [`PAIRS`] lookup covers: a run of 62 and its
/// level, `ue(62)` (11 bits) then `se(0)` (1 bit). Two tokens in 12 bits
/// cover at most 18.
const MAX_LOOKUP_SAMPLES: usize = 63;

/// Lookups [`BitReader::get_token_pairs`] makes per refill. One 8-byte
/// refill leaves at least 56 bits cached, and four lookups use at most
/// 48 of them.
const LOOKUPS_PER_REFILL: usize = 4;

/// The residual tokens, `ue(run)` then `se(level)`, that start one
/// [`TOKEN_BITS`]-bit pattern: the first whole token and, when the bits
/// after it hold a second whole token, that one too. Packed in a `u32`:
///
/// | bits | field |
/// |---|---|
/// | 0–3 | total length in bits |
/// | 4–7 | first token's length |
/// | 8–13 | first token's `run + 1` |
/// | 14–19 | first token's level, two's complement |
/// | 20–25 | second token's `run + 1`, 0 when there is none |
/// | 26–31 | second token's level |
///
/// `run + 1` is the samples a token covers, and needs 6 bits: runs reach
/// 62 inside 12 bits. Levels stay within ±31, whose `se` code is 11
/// bits. A pattern with no whole token is all zeros.
#[derive(Debug, Clone, Copy)]
struct Pair(u32);

impl Pair {
    /// Bits both tokens take.
    #[inline]
    fn len(self) -> u32 {
        self.0 & 0xF
    }

    /// Bits the first token takes; 0 when the pattern holds none.
    #[inline]
    fn first_len(self) -> u32 {
        (self.0 >> 4) & 0xF
    }

    /// The first token's `run + 1` (0 when there is none) and level.
    #[inline]
    fn first(self) -> (usize, i64) {
        (((self.0 >> 8) & 0x3F) as usize, i64::from(((self.0 << 12) as i32) >> 26))
    }

    /// The second token's `run + 1` (0 when there is none) and level.
    #[inline]
    fn second(self) -> (usize, i64) {
        (((self.0 >> 20) & 0x3F) as usize, i64::from((self.0 as i32) >> 26))
    }
}

/// The [`Pair`] each [`TOKEN_BITS`]-bit pattern starts: 4 096 entries,
/// 16 KB.
static PAIRS: [Pair; 1 << TOKEN_BITS] = pair_table();

/// The token at the top of `word`, of which only the top `avail` bits
/// are stream bits (the rest are zero): `(run, level, len)`, or `None`
/// when those bits hold no whole token.
const fn token_at(word: u32, avail: u32) -> Option<(u32, i32, u32)> {
    // A code is its zero prefix, a one and as many bits again (`v + 1`
    // in binary), so `leading_zeros` gives its length.
    let ue_len = 2 * word.leading_zeros() + 1;
    if ue_len >= avail {
        return None;
    }
    let rest = word << ue_len;
    let se_len = 2 * rest.leading_zeros() + 1;
    if ue_len + se_len > avail {
        return None;
    }
    let run = (word >> (32 - ue_len)) - 1;
    let mapped = (rest >> (32 - se_len)) - 1;
    // The inverse of `zigzag`: 0, 1, 2, 3, 4, … → 0, 1, −1, 2, −2, …
    let level = if mapped & 1 == 0 { -((mapped >> 1) as i32) } else { ((mapped >> 1) + 1) as i32 };
    Some((run, level, ue_len + se_len))
}

const fn pair_table() -> [Pair; 1 << TOKEN_BITS] {
    let mut table = [Pair(0); 1 << TOKEN_BITS];
    let mut bits = 0;
    while bits < table.len() {
        // The pattern left-aligned in a word.
        let word = (bits as u32) << (32 - TOKEN_BITS);
        if let Some((run, level, len)) = token_at(word, TOKEN_BITS) {
            let mut entry = len << 4 | (run + 1) << 8 | (level as u32 & 0x3F) << 14;
            let mut total = len;
            if let Some((run2, level2, len2)) = token_at(word << len, TOKEN_BITS - len) {
                entry |= (run2 + 1) << 20 | (level2 as u32 & 0x3F) << 26;
                total += len2;
            }
            table[bits] = Pair(entry | total);
        }
        bits += 1;
    }
    table
}

/// Reads bits MSB-first from a byte slice.
///
/// Internally keeps a left-aligned 64-bit cache of upcoming bits
/// (refilled bytewise), so the per-code cost of the exp-Golomb hot
/// path is a `leading_zeros` and two shifts rather than per-bit byte
/// indexing. Invariants: `cache` holds the next `cached` stream bits
/// in its high end with zeros below, and `pos + cached` is always a
/// whole number of consumed-or-cached bytes.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Bits consumed so far (the public cursor).
    pos: usize,
    /// Upcoming bits, left-aligned (MSB is the next bit).
    cache: u64,
    /// Number of valid bits in `cache`.
    cached: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> BitReader<'a> {
        BitReader { bytes, pos: 0, cache: 0, cached: 0 }
    }

    /// Tops up the cache from the byte stream (whole bytes only, so the
    /// byte-alignment invariant holds). Away from the end of the slice
    /// this is one unaligned 8-byte load; the final few bytes trickle
    /// in one at a time.
    #[inline]
    fn refill(&mut self) {
        if self.refill_word() {
            return;
        }
        let mut next = (self.pos + self.cached as usize) / 8;
        while self.cached <= 56 && next < self.bytes.len() {
            self.cache |= u64::from(self.bytes[next]) << (56 - self.cached);
            self.cached += 8;
            next += 1;
        }
    }

    /// Tops up the cache with one unaligned 8-byte load, when eight
    /// bytes lie ahead of it, and returns whether they did. A `true`
    /// leaves at least 56 bits cached.
    #[inline]
    fn refill_word(&mut self) -> bool {
        let next = (self.pos + self.cached as usize) / 8;
        let Some(window) = self.bytes.get(next..next + 8) else {
            return false;
        };
        let w = u64::from_be_bytes(window.try_into().expect("8-byte window"));
        if self.cached == 0 {
            self.cache = w;
            self.cached = 64;
        } else if self.cached < 56 {
            // `cached | 56` adds the most whole bytes that fit (1–7 of
            // the 8 loaded); the mask clears the partial byte the shift
            // smeared below them.
            let new = self.cached | 56;
            self.cache = (self.cache | (w >> self.cached)) & !(u64::MAX >> new);
            self.cached = new;
        }
        true
    }

    /// Drops the top `n` bits of the cache (`n` ≤ `cached`).
    #[inline]
    fn consume(&mut self, n: u32) {
        debug_assert!(n <= self.cached);
        self.cache = if n == 64 { 0 } else { self.cache << n };
        self.cached -= n;
        self.pos += n as usize;
    }

    /// Reads one bit.
    #[inline]
    pub fn get_bit(&mut self) -> Result<bool> {
        if self.cached == 0 {
            self.refill();
            if self.cached == 0 {
                return Err(MediaError::CorruptBitstream("bit read past end".into()));
            }
        }
        let bit = self.cache >> 63 == 1;
        self.consume(1);
        Ok(bit)
    }

    /// Reads `n` bits, MSB first.
    pub fn get_bits(&mut self, n: u8) -> Result<u64> {
        debug_assert!(n <= 64);
        if n == 0 {
            return Ok(0);
        }
        if self.pos + n as usize > self.bytes.len() * 8 {
            return Err(MediaError::CorruptBitstream("bit read past end".into()));
        }
        let mut v = 0u64;
        let mut need = u32::from(n);
        while need > 0 {
            if self.cached == 0 {
                self.refill();
            }
            let take = need.min(self.cached);
            let chunk = if take == 64 { self.cache } else { self.cache >> (64 - take) };
            v = if take == 64 { chunk } else { (v << take) | chunk };
            self.consume(take);
            need -= take;
        }
        Ok(v)
    }

    /// Reads an unsigned exp-Golomb code.
    pub fn get_ue(&mut self) -> Result<u64> {
        // 32 cached bits cover every code up to `ue(65534)` — far past
        // the residual runs the codec writes — so most calls skip the
        // refill entirely.
        if self.cached < 32 {
            self.refill();
        }
        let lz = if self.cache == 0 { 64 } else { self.cache.leading_zeros() };
        if lz >= self.cached {
            // Every cached bit is zero: the prefix outruns the window
            // (over-long prefix or truncated stream) — take the bitwise
            // path, which owns those corruption checks.
            return self.get_ue_bitwise();
        }
        let zeros = lz;
        let code_len = 2 * zeros + 1;
        if code_len <= self.cached {
            let x = self.cache >> (64 - code_len);
            self.consume(code_len);
            return Ok(x - 1);
        }
        // Prefix fits in the cache but the tail crosses the window edge.
        self.consume(zeros + 1);
        let tail = self.get_bits(zeros as u8)?;
        Ok(((1u64 << zeros) | tail) - 1)
    }

    /// Bit-at-a-time `ue` decode: the fallback for codes whose zero
    /// prefix outruns the 64-bit peek window, and the sole place the
    /// over-long-prefix corruption check lives.
    fn get_ue_bitwise(&mut self) -> Result<u64> {
        let mut zeros = 0u8;
        while !self.get_bit()? {
            zeros += 1;
            if zeros > 63 {
                return Err(MediaError::CorruptBitstream("ue prefix too long".into()));
            }
        }
        let tail = self.get_bits(zeros)?;
        let x = (1u64 << zeros) | tail;
        Ok(x - 1)
    }

    /// Reads one residual token, `ue(run)` then `se(level)`, with one
    /// table lookup, when the next [`TOKEN_BITS`] bits hold all of it
    /// and its run leaves the level a sample of the `left` still to
    /// code. Otherwise it reads nothing and returns `None`; the caller
    /// then reads the token with [`get_ue`](Self::get_ue) and
    /// [`get_se`](Self::get_se), which own the corruption checks. That
    /// covers longer tokens, the lone zero run that ends a plane, and
    /// corrupt or truncated input.
    #[inline]
    pub(crate) fn get_token(&mut self, left: usize) -> Option<(usize, i64)> {
        if self.cached < TOKEN_BITS {
            self.refill();
        }
        let pair = PAIRS[(self.cache >> (64 - TOKEN_BITS)) as usize];
        let (covers, level) = pair.first();
        if covers == 0 || covers > left || pair.first_len() > self.cached {
            return None;
        }
        self.consume(pair.first_len());
        Some((covers - 1, level))
    }

    /// Reads the residual tokens of a plane with `left` samples still to
    /// code, [`LOOKUPS_PER_REFILL`] lookups per refill, while more than
    /// `LOOKUPS_PER_REFILL × MAX_LOOKUP_SAMPLES` samples and eight bytes
    /// lie ahead, and hands each `(run, level)` to `token`. Returns the
    /// samples still to code. It stops early at a pattern that holds no
    /// whole token, for [`get_token`](Self::get_token) and the codes.
    ///
    /// The guard is what makes it need no other check. A refill leaves
    /// at least 56 bits, and four lookups take at most 48. A lookup
    /// covers at most [`MAX_LOOKUP_SAMPLES`], so every run it reads
    /// leaves its level a sample of the plane, and it never reads the
    /// plane's trailing run: that run is over 63, and its code is longer
    /// than [`TOKEN_BITS`]. Every level in the table is within ±31. So
    /// the tokens read here are the ones `get_ue`/`get_se` would read,
    /// and none of them is an error.
    #[inline]
    pub(crate) fn get_token_pairs(
        &mut self,
        mut left: usize,
        mut token: impl FnMut(usize, i64),
    ) -> usize {
        while left > LOOKUPS_PER_REFILL * MAX_LOOKUP_SAMPLES && self.refill_word() {
            for _ in 0..LOOKUPS_PER_REFILL {
                let pair = PAIRS[(self.cache >> (64 - TOKEN_BITS)) as usize];
                let (covers, level) = pair.first();
                if covers == 0 {
                    return left;
                }
                token(covers - 1, level);
                let (covers2, level2) = pair.second();
                if covers2 != 0 {
                    token(covers2 - 1, level2);
                }
                self.consume(pair.len());
                left -= covers + covers2;
            }
        }
        left
    }

    /// Bits left between the cursor and the end of the byte slice.
    pub fn remaining_bits(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }

    /// Reads a signed exp-Golomb code.
    pub fn get_se(&mut self) -> Result<i64> {
        let mapped = self.get_ue()?;
        if mapped & 1 == 0 {
            Ok(-((mapped >> 1) as i64))
        } else {
            Ok(((mapped >> 1) + 1) as i64)
        }
    }

    /// Current bit position (for diagnostics).
    pub fn bit_pos(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.put_bit(b);
        }
        assert_eq!(w.bit_len(), 9);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.get_bit().unwrap(), b);
        }
    }

    #[test]
    fn bits_roundtrip() {
        let mut w = BitWriter::new();
        w.put_bits(0b101_1001_0110, 11);
        w.put_bits(0x3FF, 10);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(11).unwrap(), 0b101_1001_0110);
        assert_eq!(r.get_bits(10).unwrap(), 0x3FF);
    }

    #[test]
    fn ue_known_codewords() {
        // Classic table: 0→1, 1→010, 2→011, 3→00100 …
        let mut w = BitWriter::new();
        w.put_ue(0);
        assert_eq!(w.bit_len(), 1);
        let mut w = BitWriter::new();
        w.put_ue(1);
        assert_eq!(w.bit_len(), 3);
        let mut w = BitWriter::new();
        w.put_ue(3);
        assert_eq!(w.bit_len(), 5);
    }

    #[test]
    fn ue_roundtrip_many() {
        let values = [0u64, 1, 2, 3, 7, 8, 100, 255, 65535, 1 << 40];
        let mut w = BitWriter::new();
        for &v in &values {
            w.put_ue(v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.get_ue().unwrap(), v);
        }
    }

    #[test]
    fn se_roundtrip_many() {
        let values = [0i64, 1, -1, 2, -2, 127, -128, 255, -255, 10_000, -10_000];
        let mut w = BitWriter::new();
        for &v in &values {
            w.put_se(v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.get_se().unwrap(), v);
        }
    }

    #[test]
    fn se_zigzag_order() {
        // se(0) must be the shortest code.
        let len = |v: i64| {
            let mut w = BitWriter::new();
            w.put_se(v);
            w.bit_len()
        };
        assert_eq!(len(0), 1);
        assert!(len(1) <= len(-1));
        assert!(len(-1) < len(2));
    }

    #[test]
    fn ue_se_token_matches_separate_codes() {
        // Short pairs take the one-write path, pairs past 64 bits the
        // two-call fallback; both must write `ue` then `se`.
        let pairs =
            [(0, 0), (0, 1), (5, -3), (3071, 255), (1 << 20, -255), (1 << 40, 7), (7, 1 << 40)];
        for (u, s) in pairs {
            let mut token = BitWriter::new();
            token.put_bit(true);
            token.put_ue_se(u, s);
            let mut separate = BitWriter::new();
            separate.put_bit(true);
            separate.put_ue(u);
            separate.put_se(s);
            assert_eq!(token.finish(), separate.finish(), "u={u} s={s}");
        }
    }

    /// The whole tokens the codes read inside the first [`TOKEN_BITS`]
    /// bits of `bytes`, at most two, as `(run + 1, level)`; and the bits
    /// those tokens take.
    fn tokens_in_window(bytes: &[u8]) -> (Vec<(usize, i64)>, u32) {
        let mut r = BitReader::new(bytes);
        let (mut tokens, mut end) = (Vec::new(), 0);
        while tokens.len() < 2 {
            let (Ok(run), Ok(level)) = (r.get_ue(), r.get_se()) else { break };
            if r.bit_pos() > TOKEN_BITS as usize {
                break;
            }
            tokens.push((run as usize + 1, level));
            end = r.bit_pos() as u32;
        }
        (tokens, end)
    }

    #[test]
    fn token_table_matches_ue_se() {
        // Every 12-bit pattern, followed by bits that end, extend or
        // alternate the codes it starts.
        for pattern in 0u64..1 << TOKEN_BITS {
            let pair = PAIRS[pattern as usize];
            let table: Vec<(usize, i64)> =
                [pair.first(), pair.second()].into_iter().take_while(|t| t.0 != 0).collect();
            for tail in [0x0000, 0xFFFF, 0x5A5A] {
                let mut w = BitWriter::new();
                w.put_bits(pattern, TOKEN_BITS as u8);
                w.put_bits(tail, 16);
                let bytes = w.finish();
                let (codes, end) = tokens_in_window(&bytes);
                assert_eq!(table, codes, "{pattern:012b}");
                assert_eq!(pair.len(), end, "{pattern:012b}");
                // The tail path reads the first token alone.
                let mut r = BitReader::new(&bytes);
                let first = r.get_token(usize::MAX);
                assert_eq!(first, codes.first().map(|&(covers, level)| (covers - 1, level)));
                assert_eq!(r.bit_pos() as u32, pair.first_len(), "{pattern:012b}");
            }
        }
        // A lookup covers up to `MAX_LOOKUP_SAMPLES` (a run of 62 fills
        // the 6-bit field), and levels reach ±31.
        let covers = PAIRS.iter().map(|p| p.first().0 + p.second().0).max();
        assert_eq!(covers, Some(MAX_LOOKUP_SAMPLES));
        assert_eq!(PAIRS.iter().map(|p| p.first().1.abs()).max(), Some(31));
    }

    #[test]
    fn token_leaves_plane_end_and_stream_end_to_codes() {
        let mut w = BitWriter::new();
        w.put_ue_se(3, -2);
        let bytes = w.finish();
        // A run of 3 with 3 samples left is the plane's trailing run.
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_token(3), None);
        assert_eq!(r.bit_pos(), 0);
        assert_eq!(r.get_token(4), Some((3, -2)));
        // `ue(0)` and the first 7 bits of a 9-bit `se`: the table holds
        // the token, but its last 2 bits are past the end of the stream.
        let mut r = BitReader::new(&[0b1000_0100]);
        assert_eq!(r.get_token(usize::MAX), None);
        assert_eq!(r.get_ue().unwrap(), 0);
        assert!(r.get_se().is_err());
    }

    #[test]
    fn reader_errors_past_end() {
        let mut r = BitReader::new(&[0b1000_0000]);
        for _ in 0..8 {
            r.get_bit().unwrap();
        }
        assert!(r.get_bit().is_err());
        let mut r = BitReader::new(&[]);
        assert!(r.get_ue().is_err());
    }

    #[test]
    fn corrupt_ue_prefix_detected() {
        // 16 bytes of zeros: prefix exceeds any sane length.
        let zeros = [0u8; 16];
        let mut r = BitReader::new(&zeros);
        assert!(r.get_ue().is_err());
    }
}
