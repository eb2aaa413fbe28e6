//! Binary encoding primitives shared by the WAL and checkpoint formats.
//!
//! Everything on disk is little-endian and length-prefixed. Floating-point
//! values travel as raw IEEE-754 bits (`f64::to_bits`), never as text: the
//! durability contract is *bitwise* state reconstruction, including NaN
//! payloads and signed zeros that a textual round-trip would lose.

/// Errors raised while decoding binary records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value it promised.
    UnexpectedEof {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// A tag byte had no defined meaning.
    BadTag {
        /// The offending byte.
        tag: u8,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(f, "unexpected end of buffer: needed {needed} bytes, had {remaining}")
            }
            CodecError::BadTag { tag } => write!(f, "unknown tag byte {tag:#04x}"),
        }
    }
}

impl std::error::Error for CodecError {}

// --------------------------------------------------------------- writing

/// Append a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its raw IEEE-754 bits.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Append a `u64`-length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Append a `u64`-length-prefixed vector of raw `f64` bits.
pub fn put_f64_slice(buf: &mut Vec<u8>, values: &[f64]) {
    put_u64(buf, values.len() as u64);
    for &v in values {
        put_f64(buf, v);
    }
}

// --------------------------------------------------------------- reading

/// A cursor over an encoded buffer.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether the reader consumed everything.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof { needed: n, remaining: self.remaining() });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read an `f64` from its raw bits.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u64()? as usize;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string (lossy on invalid UTF-8 — the
    /// CRC already vouched for the bytes, so mojibake means an encoder
    /// bug, not corruption worth failing recovery over).
    pub fn str(&mut self) -> Result<String, CodecError> {
        Ok(String::from_utf8_lossy(self.bytes()?).into_owned())
    }

    /// Read a length-prefixed vector of `f64` bit patterns.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, CodecError> {
        let len = self.u64()? as usize;
        // Guard against a corrupt length claiming more than the buffer
        // holds before allocating.
        let needed = len.saturating_mul(8);
        if self.remaining() < needed {
            return Err(CodecError::UnexpectedEof { needed, remaining: self.remaining() });
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.f64()?);
        }
        Ok(out)
    }
}

// ----------------------------------------------------------------- crc32

/// CRC-32 (IEEE 802.3 polynomial, the zlib/`crc32` convention) over a byte
/// slice. Table-free bitwise form: the record sizes here are small enough
/// that a 1 KiB lookup table buys nothing worth its cache footprint.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard test vectors for CRC-32/IEEE.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn round_trip_all_primitives() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 3);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::NAN);
        put_str(&mut buf, "λ-weights");
        put_f64_slice(&mut buf, &[1.5, f64::INFINITY, -2.25]);

        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        // Bitwise: signed zero and NaN survive exactly.
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.str().unwrap(), "λ-weights");
        let v = r.f64_vec().unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v[0], 1.5);
        assert_eq!(v[1], f64::INFINITY);
        assert_eq!(v[2], -2.25);
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_buffer_is_a_typed_error() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 42);
        let mut r = ByteReader::new(&buf[..5]);
        assert!(matches!(r.u64(), Err(CodecError::UnexpectedEof { .. })));
    }

    #[test]
    fn corrupt_length_prefix_does_not_overallocate() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX); // absurd element count
        let mut r = ByteReader::new(&buf);
        assert!(matches!(r.f64_vec(), Err(CodecError::UnexpectedEof { .. })));
    }
}
