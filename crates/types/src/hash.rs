//! The workspace's content hash: a fast, non-cryptographic 64-bit digest of
//! byte strings, used to key caches by content.
//!
//! The input is read a word (8 bytes, little-endian) at a time into four
//! independent lanes, so four multiply chains run in parallel. Each word is
//! mixed into its lane with a *folded multiply*: the 128-bit product of the
//! lane and a per-lane odd constant, with its high and low halves XORed.
//! The trailing partial word and the input length are folded in when the
//! lanes are combined, so inputs that differ only by trailing zero bytes
//! still hash apart.
//!
//! The hash is not collision-resistant against a chosen input, and nothing
//! relies on it being so: every cache keyed by it stores the hashed bytes
//! and compares them on a hit, so a collision costs a miss, never a wrong
//! answer.

/// Per-lane multipliers: the first hex digits of pi's fraction, with the
/// low bit set so that each is odd.
const LANE: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7345,
    0xa409_3822_299f_31d1,
    0x082e_fa98_ec4e_6c89,
];

/// Finalization constants (the digits of pi that follow [`LANE`]).
const FINAL: [u64; 3] = [
    0x4528_21e6_38d0_1377,
    0xbe54_66cf_34e9_0c6c,
    0xc0ac_29b7_c97c_50dd,
];

/// The 64×64→128 multiply of `a` and `b`, folded to 64 bits.
#[inline(always)]
fn fold(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

/// Hashes `bytes`.
///
/// # Examples
///
/// ```
/// use sbomdiff_types::content_hash;
///
/// assert_eq!(content_hash(b"numpy==1.19.2\n"), content_hash(b"numpy==1.19.2\n"));
/// assert_ne!(content_hash(b"numpy==1.19.2\n"), content_hash(b"numpy==1.19.3\n"));
/// ```
pub fn content_hash(bytes: &[u8]) -> u64 {
    content_hash_with_seed(0, bytes)
}

/// Hashes `bytes` from a starting state derived from `seed`. Hashing a
/// prefix first and passing its hash as the seed keys a pair of byte
/// strings without concatenating them (the response cache keys
/// `(path, body)` this way).
pub fn content_hash_with_seed(seed: u64, bytes: &[u8]) -> u64 {
    let mut lanes = LANE.map(|k| seed ^ k);
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for ((lane, w), k) in lanes.iter_mut().zip(stripe.chunks_exact(8)).zip(LANE) {
            *lane = fold(*lane ^ word(w), k);
        }
    }
    let mut words = stripes.remainder().chunks_exact(8);
    for ((lane, w), k) in lanes.iter_mut().zip(&mut words).zip(LANE) {
        *lane = fold(*lane ^ word(w), k);
    }
    let tail = words.remainder();
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    let a = fold(lanes[0] ^ u64::from_le_bytes(last), lanes[1] ^ FINAL[0]);
    let b = fold(lanes[2] ^ bytes.len() as u64, lanes[3] ^ FINAL[1]);
    fold(a, b ^ FINAL[2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let bytes = b"{\"files\":{\"requirements.txt\":\"numpy==1.19.2\\n\"}}";
        assert_eq!(content_hash(bytes), content_hash(bytes));
        assert_ne!(
            content_hash_with_seed(1, bytes),
            content_hash_with_seed(2, bytes)
        );
    }

    #[test]
    fn every_bit_of_every_length_matters() {
        // Lengths 0..=100 cover empty input, a bare tail, whole words,
        // whole stripes, and stripes followed by words and a tail.
        let mut seen = HashSet::new();
        for len in 0..=100usize {
            let base: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let h = content_hash(&base);
            assert!(seen.insert(h), "length {len} collides with a shorter input");
            for pos in 0..len {
                for bit in 0..8 {
                    let mut flipped = base.clone();
                    flipped[pos] ^= 1 << bit;
                    assert_ne!(content_hash(&flipped), h, "len {len} byte {pos} bit {bit}");
                }
            }
        }
    }

    #[test]
    fn trailing_zero_bytes_change_the_hash() {
        let mut prev = content_hash(b"");
        let mut bytes = Vec::new();
        for _ in 0..40 {
            bytes.push(0);
            let h = content_hash(&bytes);
            assert_ne!(h, prev, "{} zero bytes", bytes.len());
            prev = h;
        }
    }

    #[test]
    fn no_collisions_over_many_small_inputs() {
        let mut seen = HashSet::new();
        for i in 0u32..200_000 {
            let text = format!("pkg{i}==1.0.{}\n", i % 97);
            assert!(seen.insert(content_hash(text.as_bytes())), "{text:?}");
        }
    }
}
