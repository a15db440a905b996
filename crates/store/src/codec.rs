//! Byte-level (de)serialisation for WAL record bodies.
//!
//! Everything on disk is little-endian. The reader is bounds-checked end
//! to end: corrupt input yields [`CodecError`], never a panic. (Graph
//! payloads carry their own bounds-checked codec, `chatgraph_graph::delta`.)

/// Why a record body failed to decode. The recovery scanner treats any
/// decode failure as the start of the torn/corrupt tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The body ended before a declared field.
    Truncated,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// An unknown enum tag.
    BadTag(u8),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "record body is truncated"),
            CodecError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            CodecError::BadTag(t) => write!(f, "unknown tag {t}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Bounds-checked cursor over a record body.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `data`, positioned at the start.
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether every byte was consumed (trailing garbage is corruption).
    pub fn done(&self) -> bool {
        self.pos == self.data.len()
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX - 7);
        buf.push(42);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.u8().unwrap(), 42);
        assert!(r.done());
    }

    #[test]
    fn truncated_reads_error_cleanly() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 7);
        let mut r = Reader::new(&buf[..5]);
        assert_eq!(r.u64(), Err(CodecError::Truncated));
        assert_eq!(r.take(6), Err(CodecError::Truncated));
    }
}
