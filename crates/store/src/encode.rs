//! Canonical little-endian byte encodings.
//!
//! JSON would not give byte-stable payloads (float formatting, key
//! order), so store keys, store payloads, wire frames, and the model
//! and plan files the CLI writes all use a tiny hand-rolled binary
//! format: fixed-width little-endian integers, IEEE-754 bit patterns
//! for floats, `u64` length prefixes for variable-size data, and
//! one-byte tags for options/enums. Writers and readers in the owning
//! crates compose these primitives; the reader is bounds-checked and
//! returns structured [`DecodeError`]s so a truncated or bit-flipped
//! object never panics.

/// Structured decode failure for canonical byte payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before a fixed-width field or counted run.
    UnexpectedEof {
        /// What the reader was trying to decode.
        what: &'static str,
        /// Bytes the field needed.
        wanted: usize,
        /// Bytes left in the buffer.
        have: usize,
    },
    /// Bytes remained after the top-level value was fully decoded.
    TrailingBytes(usize),
    /// A tag byte (enum discriminant, option marker) had no meaning.
    BadTag {
        /// What the tag was selecting.
        what: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// A format-version byte this decoder does not understand.
    UnsupportedVersion {
        /// What kind of payload carried the version.
        what: &'static str,
        /// The offending version.
        version: u64,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// A field decoded cleanly but holds a value its type cannot take
    /// (a zero mesh degree, a width above the decoder's cap, ...).
    OutOfRange {
        /// The field and the range it must lie in.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEof { what, wanted, have } => {
                write!(
                    f,
                    "short read decoding {what}: wanted {wanted} bytes, have {have}"
                )
            }
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
            DecodeError::BadTag { what, tag } => write!(f, "bad tag {tag} for {what}"),
            DecodeError::UnsupportedVersion { what, version } => {
                write!(f, "unsupported {what} version {version}")
            }
            DecodeError::BadUtf8 => write!(f, "length-prefixed string is not UTF-8"),
            DecodeError::OutOfRange { what, value } => {
                write!(f, "{what} out of range: {value}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only canonical byte writer.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` widened to a little-endian `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// `f64` as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// `f32` as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn f32_bits(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// `bool` as a 0/1 byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Raw bytes, no length prefix (caller fixes the length by format).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// `u64` length prefix followed by the bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.usize(bytes.len());
        self.raw(bytes);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// `Option<u64>` as a 0/1 tag byte plus the value when present.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }

    /// `Option<f64>` as a 0/1 tag byte plus the bit pattern when present.
    pub fn opt_f64_bits(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.f64_bits(x);
            }
        }
    }
}

/// Bounds-checked reader over a canonical byte buffer.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, what: &'static str, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof {
                what,
                wanted: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One raw byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(what, 1)?[0])
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        let s = self.take(what, 4)?;
        Ok(u32::from_le_bytes(s.try_into().unwrap()))
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        let s = self.take(what, 8)?;
        Ok(u64::from_le_bytes(s.try_into().unwrap()))
    }

    /// Little-endian `u128`.
    pub fn u128(&mut self, what: &'static str) -> Result<u128, DecodeError> {
        let s = self.take(what, 16)?;
        Ok(u128::from_le_bytes(s.try_into().unwrap()))
    }

    /// A `u64` narrowed back to `usize`.
    pub fn usize(&mut self, what: &'static str) -> Result<usize, DecodeError> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| DecodeError::BadTag { what, tag: v })
    }

    /// `f64` from its stored bit pattern.
    pub fn f64_bits(&mut self, what: &'static str) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// `f32` from its stored bit pattern.
    pub fn f32_bits(&mut self, what: &'static str) -> Result<f32, DecodeError> {
        Ok(f32::from_bits(self.u32(what)?))
    }

    /// A 0/1 byte as `bool`; anything else is a [`DecodeError::BadTag`].
    pub fn bool(&mut self, what: &'static str) -> Result<bool, DecodeError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag {
                what,
                tag: tag as u64,
            }),
        }
    }

    /// A length-prefixed byte run.
    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], DecodeError> {
        let n = self.usize(what)?;
        self.take(what, n)
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.bytes(what)?).map_err(|_| DecodeError::BadUtf8)
    }

    /// `Option<u64>` written by [`ByteWriter::opt_u64`].
    pub fn opt_u64(&mut self, what: &'static str) -> Result<Option<u64>, DecodeError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.u64(what)?)),
            tag => Err(DecodeError::BadTag {
                what,
                tag: tag as u64,
            }),
        }
    }

    /// `Option<f64>` written by [`ByteWriter::opt_f64_bits`].
    pub fn opt_f64_bits(&mut self, what: &'static str) -> Result<Option<f64>, DecodeError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.f64_bits(what)?)),
            tag => Err(DecodeError::BadTag {
                what,
                tag: tag as u64,
            }),
        }
    }

    /// Assert the whole buffer was consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes(self.remaining()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.u128(1 << 100);
        w.f64_bits(-0.0);
        w.f32_bits(f32::NAN);
        w.bool(true);
        w.str("predtop");
        w.opt_u64(None);
        w.opt_u64(Some(42));
        w.opt_f64_bits(Some(1.5));
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.u128("d").unwrap(), 1 << 100);
        assert_eq!(r.f64_bits("e").unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f32_bits("f").unwrap().is_nan());
        assert!(r.bool("g").unwrap());
        assert_eq!(r.str("h").unwrap(), "predtop");
        assert_eq!(r.opt_u64("i").unwrap(), None);
        assert_eq!(r.opt_u64("j").unwrap(), Some(42));
        assert_eq!(r.opt_f64_bits("k").unwrap(), Some(1.5));
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_a_structured_error() {
        let mut w = ByteWriter::new();
        w.str("hello world");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..bytes.len() - 3]);
        match r.str("s") {
            Err(DecodeError::UnexpectedEof { what: "s", .. }) => {}
            other => panic!("expected short read, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = ByteWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.u8("x").unwrap();
        assert_eq!(r.finish(), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn bad_bool_tag_is_rejected() {
        let mut r = ByteReader::new(&[9]);
        assert!(matches!(r.bool("flag"), Err(DecodeError::BadTag { .. })));
    }
}
