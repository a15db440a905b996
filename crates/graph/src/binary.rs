//! Byte-level primitives shared by the slot-exact codec in [`crate::delta`].
//!
//! Everything is little-endian and length-prefixed:
//!
//! ```text
//! string := len u32 | utf8 bytes
//! attrs  := n_attrs u16 | (key string, value)…
//! value  := tag u8 (0 bool, 1 int, 2 float, 3 text) | payload
//! ```
//!
//! Readers are bounds-checked: a count is validated against the bytes
//! actually remaining before anything is sized by it, so corrupt input
//! yields a [`BinaryError`], never a panic or an over-allocation.

use crate::attr::{AttrValue, Attrs};
use std::fmt;

/// Smallest possible encoded attribute: empty key (4) + tag (1) + bool (1).
const MIN_ATTR_BYTES: usize = 6;

/// Binary decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinaryError {
    /// Missing or wrong magic/version header.
    BadHeader,
    /// The buffer ended before the structure was complete.
    Truncated,
    /// A string was not valid UTF-8.
    BadUtf8,
    /// A value or op had an unknown tag.
    BadTag(u8),
    /// An edge referenced an out-of-range node.
    BadEdge,
}

impl fmt::Display for BinaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinaryError::BadHeader => write!(f, "missing header or wrong version"),
            BinaryError::Truncated => write!(f, "buffer truncated"),
            BinaryError::BadUtf8 => write!(f, "invalid utf-8 string"),
            BinaryError::BadTag(t) => write!(f, "unknown tag {t}"),
            BinaryError::BadEdge => write!(f, "edge references unknown node"),
        }
    }
}

impl std::error::Error for BinaryError {}

pub(crate) fn put_string(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_attrs(buf: &mut Vec<u8>, attrs: &Attrs) {
    buf.extend_from_slice(&(attrs.len() as u16).to_le_bytes());
    for (k, v) in attrs {
        put_string(buf, k);
        match v {
            AttrValue::Bool(b) => {
                buf.push(0);
                buf.push(*b as u8);
            }
            AttrValue::Int(i) => {
                buf.push(1);
                buf.extend_from_slice(&i.to_le_bytes());
            }
            AttrValue::Float(x) => {
                buf.push(2);
                buf.extend_from_slice(&x.to_le_bytes());
            }
            AttrValue::Text(t) => {
                buf.push(3);
                put_string(buf, t);
            }
        }
    }
}

/// Splits `n` bytes off the front of the cursor, or reports truncation.
pub(crate) fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], BinaryError> {
    if buf.len() < n {
        return Err(BinaryError::Truncated);
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

pub(crate) fn get_u8(buf: &mut &[u8]) -> Result<u8, BinaryError> {
    Ok(take(buf, 1)?[0])
}

pub(crate) fn get_u16_le(buf: &mut &[u8]) -> Result<u16, BinaryError> {
    match take(buf, 2)?.try_into() {
        Ok(bytes) => Ok(u16::from_le_bytes(bytes)),
        Err(_) => Err(BinaryError::Truncated),
    }
}

pub(crate) fn get_u32_le(buf: &mut &[u8]) -> Result<u32, BinaryError> {
    match take(buf, 4)?.try_into() {
        Ok(bytes) => Ok(u32::from_le_bytes(bytes)),
        Err(_) => Err(BinaryError::Truncated),
    }
}

pub(crate) fn get_i64_le(buf: &mut &[u8]) -> Result<i64, BinaryError> {
    match take(buf, 8)?.try_into() {
        Ok(bytes) => Ok(i64::from_le_bytes(bytes)),
        Err(_) => Err(BinaryError::Truncated),
    }
}

pub(crate) fn get_f64_le(buf: &mut &[u8]) -> Result<f64, BinaryError> {
    match take(buf, 8)?.try_into() {
        Ok(bytes) => Ok(f64::from_le_bytes(bytes)),
        Err(_) => Err(BinaryError::Truncated),
    }
}

pub(crate) fn get_string(buf: &mut &[u8]) -> Result<String, BinaryError> {
    let len = get_u32_le(buf)? as usize;
    let raw = take(buf, len)?.to_vec();
    String::from_utf8(raw).map_err(|_| BinaryError::BadUtf8)
}

pub(crate) fn get_attrs(buf: &mut &[u8]) -> Result<Attrs, BinaryError> {
    let n = get_u16_le(buf)? as usize;
    if n > buf.len() / MIN_ATTR_BYTES {
        return Err(BinaryError::Truncated);
    }
    let mut attrs = Attrs::new();
    for _ in 0..n {
        let key = get_string(buf)?;
        let tag = get_u8(buf)?;
        let value = match tag {
            0 => AttrValue::Bool(get_u8(buf)? != 0),
            1 => AttrValue::Int(get_i64_le(buf)?),
            2 => AttrValue::Float(get_f64_le(buf)?),
            3 => AttrValue::Text(get_string(buf)?),
            other => return Err(BinaryError::BadTag(other)),
        };
        attrs.insert(key, value);
    }
    Ok(attrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::attrs;

    #[test]
    fn attrs_roundtrip_every_value_type() {
        let original = attrs([
            ("flag", AttrValue::Bool(true)),
            ("charge", AttrValue::Int(-1)),
            ("mass", AttrValue::Float(12.011)),
            ("note", "aromatic".into()),
        ]);
        let mut buf = Vec::new();
        put_attrs(&mut buf, &original);
        let mut cursor = buf.as_slice();
        assert_eq!(get_attrs(&mut cursor).unwrap(), original);
        assert!(cursor.is_empty());
        // Every strict prefix is rejected, never mis-parsed or panicking.
        for cut in 0..buf.len() {
            assert!(get_attrs(&mut &buf[..cut]).is_err(), "accepted truncation at {cut}");
        }
    }

    #[test]
    fn oversized_counts_cannot_over_allocate() {
        // An attribute count far beyond the remaining bytes is refused by
        // the bound check before anything is allocated.
        let buf = u16::MAX.to_le_bytes();
        assert_eq!(get_attrs(&mut &buf[..]), Err(BinaryError::Truncated));
        let mut s = Vec::new();
        s.extend_from_slice(&u32::MAX.to_le_bytes());
        s.extend_from_slice(b"abc");
        assert_eq!(get_string(&mut s.as_slice()), Err(BinaryError::Truncated));
    }

    #[test]
    fn bad_utf8_and_tags_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0xC3, 0x28]);
        assert_eq!(get_string(&mut buf.as_slice()), Err(BinaryError::BadUtf8));
        let mut buf = 1u16.to_le_bytes().to_vec();
        put_string(&mut buf, "k");
        buf.extend_from_slice(&[9, 0]);
        assert_eq!(get_attrs(&mut buf.as_slice()), Err(BinaryError::BadTag(9)));
    }
}
