//! The workspace's seeded hashing: FNV-1a 64 and the splitmix64 mixer.
//!
//! Every checksum, digest, fingerprint and seeded draw in the stack is
//! one of these functions, so they live here, in the crate below every
//! other one. Their outputs are persisted (container trailers, save
//! digests, WAL checksums, trace ids) and pinned by golden tests: the
//! functions must never change.

/// FNV-1a 64 offset basis: the hash of the empty input.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The splitmix64 increment: 2^64 divided by the golden ratio.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Continues an FNV-1a 64 hash `h` over `bytes`. Start from
/// [`FNV_OFFSET`]; chaining calls equals one call over the
/// concatenation.
#[inline]
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a 64 of `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// splitmix64's output scramble (Stafford's mix13): a bijection on
/// `u64` with full avalanche.
#[inline]
pub fn scramble(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// splitmix64 as a stateless hash: the output a generator in state `z`
/// would produce next. Seeded draws are `mix(seed ^ SALT ^ mix(key))`.
#[inline]
pub fn mix(z: u64) -> u64 {
    scramble(z.wrapping_add(GOLDEN_GAMMA))
}

/// One splitmix64 step: advances `state` and returns the next output.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    scramble(*state)
}

/// Maps a hash to a uniform `f64` in `[0, 1)` from its top 53 bits.
#[inline]
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        let mut state = 0u64;
        let got: Vec<u64> = (0..3).map(|_| splitmix64(&mut state)).collect();
        assert_eq!(got, [0xe220_a839_7b1d_cdaf, 0x6e78_9e6a_a1b9_65f4, 0x06c4_5d18_8009_454f]);
        assert_eq!(mix(0), 0xe220_a839_7b1d_cdaf, "mix(z) is the output for state z");
    }

    #[test]
    fn unit_stays_in_the_half_open_interval() {
        assert_eq!(unit(0), 0.0);
        assert!(unit(u64::MAX) < 1.0);
    }
}
