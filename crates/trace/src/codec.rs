//! Byte-level primitives for the trace format: LEB128 varints, zigzag
//! signed mapping, and the two FNV-1a 64-bit checksums.
//!
//! The checksum choice matters for the integrity guarantee. Bytewise
//! FNV-1a ([`fnv1a64`]) folds each byte in with `h = (h ^ b) * PRIME`;
//! the container checksum ([`container_checksum`]) folds the buffer in as
//! little-endian `u64` words, `h = (h ^ w) * PRIME`, and its final 0–7
//! bytes one at a time. Each step is a bijection of `h` for a fixed
//! word or byte (xor is an involution; the prime is odd, hence invertible
//! modulo 2^64), and injective in the word or byte for a fixed `h`. Two
//! equal-length buffers differing in exactly one byte differ in exactly
//! one word or one tail byte: the states agree before that step, differ
//! after it, and every later step maps them bijectively, so they can
//! never collide — any single-byte corruption is detected with
//! certainty, not just with high probability.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes`, one byte per step.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fold_bytes(FNV_OFFSET, bytes)
}

/// The `.arltrace` container checksum: FNV-1a 64 over `bytes` read as
/// little-endian `u64` words, the final 0–7 bytes folded in one at a
/// time. One multiply per word instead of per byte makes it several times
/// faster than [`fnv1a64`] with the same single-byte certainty (see the
/// module docs).
pub fn container_checksum(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut h = FNV_OFFSET;
    for w in &mut words {
        let w = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        h = (h ^ w).wrapping_mul(FNV_PRIME);
    }
    fold_bytes(h, words.remainder())
}

fn fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Appends `v` as an LEB128 varint (1–10 bytes).
pub(crate) fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from `bytes` starting at `*pos`, advancing it.
///
/// Returns `None` on a truncated or overlong (more than 64 payload bits)
/// encoding.
#[inline]
pub(crate) fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    // Most deltas fit in one byte: take them without entering the loop.
    let &byte = bytes.get(*pos)?;
    if byte & 0x80 == 0 {
        *pos += 1;
        return Some(byte as u64);
    }
    read_varint_multi(bytes, pos)
}

/// The general case of [`read_varint`], for encodings of two or more
/// bytes.
fn read_varint_multi(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = bytes.get(*pos)?;
        *pos += 1;
        let payload = (byte & 0x7f) as u64;
        if shift >= 64 || (shift == 63 && payload > 1) {
            return None;
        }
        v |= payload << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Zigzag-maps a signed delta onto an unsigned varint-friendly value
/// (small magnitudes of either sign encode in few bytes).
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [
            0u64,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncated_varint_is_rejected() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        buf.pop();
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), None);
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // Eleven continuation bytes: more than 64 payload bits.
        let buf = [0x80u8; 10];
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), None);
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -54321] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn container_checksum_folds_words_then_tail_bytes() {
        // Under one word it is bytewise FNV-1a; past that, each whole word
        // is one step.
        assert_eq!(container_checksum(&[]), FNV_OFFSET);
        assert_eq!(container_checksum(b"1234567"), fnv1a64(b"1234567"));
        let word = u64::from_le_bytes(*b"12345678");
        let h = (FNV_OFFSET ^ word).wrapping_mul(FNV_PRIME);
        assert_eq!(container_checksum(b"12345678"), h);
        assert_eq!(
            container_checksum(b"123456789"),
            (h ^ b'9' as u64).wrapping_mul(FNV_PRIME)
        );
    }

    #[test]
    fn container_checksum_detects_every_single_byte_flip() {
        // Lengths 0–24 put the flipped byte in a word, in the tail, or
        // both, for every tail length 0–7.
        for len in 0..=24usize {
            let base: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let h = container_checksum(&base);
            for i in 0..len {
                for flip in 1..=255u8 {
                    let mut corrupt = base.clone();
                    corrupt[i] ^= flip;
                    assert_ne!(
                        container_checksum(&corrupt),
                        h,
                        "collision at byte {i} of {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn fnv_distinguishes_single_byte_flips() {
        let base = b"hello, trace".to_vec();
        let h = fnv1a64(&base);
        for i in 0..base.len() {
            for flip in 1..=255u8 {
                let mut corrupt = base.clone();
                corrupt[i] ^= flip;
                assert_ne!(fnv1a64(&corrupt), h, "collision at byte {i}");
            }
        }
    }
}
