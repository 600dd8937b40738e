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

/// Bits [`BitReader::get_token`] looks up at once: 99.9 % of the
/// residual tokens on noisy footage fit in them.
const TOKEN_BITS: u32 = 12;

/// `len` of a [`TOKENS`] entry that holds no whole token. It exceeds any
/// number of cached bits, so the one length check rejects it.
const NO_TOKEN: u8 = u8::MAX;

/// One residual token, `ue(run)` then `se(level)`, decoded from the
/// [`TOKEN_BITS`] bits that start it; `len` is its length in bits.
#[derive(Debug, Clone, Copy)]
struct Token {
    run: u8,
    level: i8,
    len: u8,
}

/// The token that starts each [`TOKEN_BITS`]-bit pattern, or a
/// [`NO_TOKEN`] entry when the pattern holds no whole token.
static TOKENS: [Token; 1 << TOKEN_BITS] = token_table();

const fn token_table() -> [Token; 1 << TOKEN_BITS] {
    let mut table = [Token { run: 0, level: 0, len: NO_TOKEN }; 1 << TOKEN_BITS];
    let mut bits = 0;
    while bits < table.len() {
        // The pattern left-aligned in a word, so `leading_zeros` counts
        // a code's zero prefix; a code is that prefix, a one and as many
        // bits again (`v + 1` in binary).
        let word = (bits as u32) << (32 - TOKEN_BITS);
        let ue_len = 2 * word.leading_zeros() + 1;
        if ue_len < TOKEN_BITS {
            let rest = word << ue_len;
            let se_len = 2 * rest.leading_zeros() + 1;
            if ue_len + se_len <= TOKEN_BITS {
                let run = (word >> (32 - ue_len)) - 1;
                let mapped = (rest >> (32 - se_len)) - 1;
                // The inverse of `zigzag`: 0, 1, 2, 3, 4, … → 0, 1, −1, 2, −2, …
                let level = if mapped & 1 == 0 {
                    -((mapped >> 1) as i32)
                } else {
                    ((mapped >> 1) + 1) as i32
                };
                let len = (ue_len + se_len) as u8;
                table[bits] = Token { run: run as u8, level: level as i8, len };
            }
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
        let mut next = (self.pos + self.cached as usize) / 8;
        if next + 8 <= self.bytes.len() {
            let w =
                u64::from_be_bytes(self.bytes[next..next + 8].try_into().expect("8-byte window"));
            if self.cached == 0 {
                self.cache = w;
                self.cached = 64;
            } else {
                // `cached | 56` adds the most whole bytes that fit
                // (0–7 of the 8 loaded); the mask clears the partial
                // byte the shift smeared below them.
                let new = self.cached | 56;
                self.cache = (self.cache | (w >> self.cached)) & !(u64::MAX >> new);
                self.cached = new;
            }
            return;
        }
        while self.cached <= 56 && next < self.bytes.len() {
            self.cache |= u64::from(self.bytes[next]) << (56 - self.cached);
            self.cached += 8;
            next += 1;
        }
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
        let token = TOKENS[(self.cache >> (64 - TOKEN_BITS)) as usize];
        if u32::from(token.len) > self.cached || usize::from(token.run) >= left {
            return None;
        }
        self.consume(u32::from(token.len));
        Some((usize::from(token.run), i64::from(token.level)))
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

    #[test]
    fn token_table_matches_ue_se() {
        // Every 12-bit pattern, followed by bits that end, extend or
        // alternate the codes it starts.
        for pattern in 0u64..1 << TOKEN_BITS {
            for tail in [0x0000, 0xFFFF, 0x5A5A] {
                let mut w = BitWriter::new();
                w.put_bits(pattern, TOKEN_BITS as u8);
                w.put_bits(tail, 16);
                let bytes = w.finish();
                let mut codes = BitReader::new(&bytes);
                let pair = codes.get_ue().and_then(|run| Ok((run, codes.get_se()?)));
                let mut table = BitReader::new(&bytes);
                match table.get_token(usize::MAX) {
                    Some((run, level)) => {
                        assert_eq!(pair.unwrap(), (run as u64, level), "{pattern:012b}");
                        assert_eq!(table.bit_pos(), codes.bit_pos(), "{pattern:012b}");
                    }
                    None => assert!(
                        pair.is_err() || codes.bit_pos() > TOKEN_BITS as usize,
                        "{pattern:012b} holds a token the table missed"
                    ),
                }
            }
        }
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
