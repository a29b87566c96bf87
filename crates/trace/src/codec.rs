//! Low-level encoding primitives: LEB128 varints, zigzag signed
//! mapping, and a word-at-a-time FNV-style hash (used for both payload
//! checksums and content keys — no external hash dependency).

use crate::trace::TraceError;

/// Append `v` to `buf` as an LEB128 varint (7 bits per byte, little
/// endian groups, high bit = continuation).
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
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

/// Decode an LEB128 varint from `buf` at `*pos`, advancing `*pos`.
///
/// About four in five of the varints a replay reads (ops, slot indices,
/// small deltas) fit in one byte, so that case is decided inline; longer
/// ones take the out-of-line loop.
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    match buf.get(*pos) {
        Some(&byte) if byte < 0x80 => {
            *pos += 1;
            Ok(u64::from(byte))
        }
        _ => read_varint_long(buf, pos),
    }
}

#[inline(never)]
fn read_varint_long(buf: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(TraceError::Truncated {
            expected: *pos + 1,
            got: buf.len(),
        })?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(TraceError::Malformed("varint overflows u64"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(TraceError::Malformed("varint longer than 10 bytes"));
        }
    }
}

/// Skip one LEB128 varint without decoding its value — the validation
/// walk uses this for delta payloads whose values it does not need,
/// which is most of the event stream. Those deltas mostly take two
/// bytes or more, so unlike `read_varint` this has no one-byte fast path.
pub fn skip_varint(buf: &[u8], pos: &mut usize) -> Result<(), TraceError> {
    let start = *pos;
    loop {
        let byte = *buf.get(*pos).ok_or(TraceError::Truncated {
            expected: *pos + 1,
            got: buf.len(),
        })?;
        *pos += 1;
        // Accept and reject exactly the inputs `read_varint` does: the
        // tenth byte may only contribute the u64's top bit.
        if *pos - start == 10 && byte > 1 {
            return Err(TraceError::Malformed("varint overflows u64"));
        }
        if byte & 0x80 == 0 {
            return Ok(());
        }
        if *pos - start >= 10 {
            return Err(TraceError::Malformed("varint longer than 10 bytes"));
        }
    }
}

/// Map a signed delta onto the unsigned varint space so that small
/// magnitudes — positive *or negative* — encode in few bytes.
pub fn zigzag(v: i64) -> u64 {
    (v.wrapping_shl(1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Convenience: append a zigzag-varint signed value.
pub fn write_signed(buf: &mut Vec<u8>, v: i64) {
    write_varint(buf, zigzag(v));
}

/// Convenience: decode a zigzag-varint signed value.
pub fn read_signed(buf: &[u8], pos: &mut usize) -> Result<i64, TraceError> {
    Ok(unzigzag(read_varint(buf, pos)?))
}

/// Incremental 64-bit FNV-style hasher that absorbs a word at a time.
///
/// Each 8-byte little-endian word is xored in, multiplied by the FNV
/// prime and rotated; a tail of fewer than 8 bytes is absorbed byte by
/// byte as in FNV-1a. Every step is a bijection of the state for a
/// fixed input, so two inputs that differ in one word (or one tail
/// byte) always hash apart. The rotation keeps a multiply's top-bit
/// difference from being cancelled by the next word's top bit.
///
/// The hash is not streaming-invariant: `write(a); write(b)` differs
/// from `write(a ++ b)` unless `a.len()` is a multiple of 8.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

/// The standard FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;
/// Rotation after each word's multiply: moves the well-mixed high bits
/// down where the next multiply spreads them again.
const WORD_ROTATE: u32 = 29;

impl Fnv {
    /// Start a hash from an explicit offset basis (vary it to derive
    /// independent hash functions from the same byte stream).
    pub fn with_basis(basis: u64) -> Self {
        Fnv(basis)
    }

    /// Start a hash from the standard offset basis.
    pub fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    /// Absorb raw bytes: whole words first, then the tail bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let mut h = self.0;
        for &b in words.remainder() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Absorb one word (the same step `write` takes per 8 bytes).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(FNV_PRIME)
            .rotate_left(WORD_ROTATE);
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot [`Fnv`] hash of a byte slice: the trace payload checksum.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip_edges() {
        let cases = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &cases {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &cases {
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn zigzag_round_trip_edges() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 0x7fff_ffff] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes stay small on the wire.
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn truncated_varint_is_an_error() {
        let buf = [0x80u8, 0x80];
        let mut pos = 0;
        assert!(matches!(
            read_varint(&buf, &mut pos),
            Err(TraceError::Truncated { .. })
        ));
    }

    #[test]
    fn overlong_varint_is_an_error() {
        let buf = [0xffu8; 11];
        let mut pos = 0;
        assert!(matches!(
            read_varint(&buf, &mut pos),
            Err(TraceError::Malformed(_))
        ));
    }

    #[test]
    fn fnv_known_vector() {
        // A tail shorter than a word is plain FNV-1a: FNV-1a("a") =
        // 0xaf63dc4c8601ec8c.
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    fn payload() -> Vec<u8> {
        (0..64u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect()
    }

    #[test]
    fn fnv_catches_every_single_bit_flip() {
        let base = payload();
        let sum = fnv64(&base);
        for bit in 0..base.len() * 8 {
            let mut flipped = base.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(fnv64(&flipped), sum, "flip of bit {bit} went unseen");
        }
    }

    #[test]
    fn fnv_catches_top_bit_flips_in_adjacent_words() {
        // Without the rotation, flipping bit 63 of word i flips exactly
        // bit 63 of the state, and the same flip in word i + 1 cancels it.
        let base = payload();
        let sum = fnv64(&base);
        for word in 0..base.len() / 8 - 1 {
            let mut flipped = base.clone();
            flipped[word * 8 + 7] ^= 0x80;
            flipped[word * 8 + 15] ^= 0x80;
            assert_ne!(
                fnv64(&flipped),
                sum,
                "top bits of words {word}, {}",
                word + 1
            );
        }
    }

    #[test]
    fn one_byte_fast_path_matches_the_loop() {
        // Every one-byte input and its two-byte continuation decode
        // alike through the fast path and the loop, and skip alike.
        for b in 0..=u8::MAX {
            for buf in [vec![b], vec![b, 0x01]] {
                let (mut p1, mut p2, mut p3) = (0, 0, 0);
                let fast = read_varint(&buf, &mut p1);
                let slow = read_varint_long(&buf, &mut p2);
                let skip = skip_varint(&buf, &mut p3);
                assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "{buf:?}");
                assert_eq!(fast.is_ok(), skip.is_ok(), "{buf:?}");
                assert_eq!((p1, p1), (p2, p3), "{buf:?}");
            }
        }
    }
}
