//! The workspace's one little-endian byte cursor: a bounds-checked
//! [`Reader`] over an encoded buffer and the `put_*` writers that mirror
//! it. The op record ([`crate::oprecord`]) the WAL, checkpoints and the
//! rpc frames share, the rest of the rpc record layer
//! (`platod2gl-server::wire`, which re-exports this module) and the fleet's
//! partition-map codec all read and write their formats through it.
//!
//! The primitives that call something are `#[inline]`: the record decoders
//! using them live in other crates, where a non-generic, non-leaf function
//! is otherwise a real call per field.

use std::fmt;

/// A record failed to decode. Every caller checks a CRC before it parses,
/// so a `WireError` means a writer with a different (or
/// corrupted-at-source) record layout, not line noise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the record did.
    Truncated,
    /// An enum tag byte held an unknown value.
    BadTag { what: &'static str, tag: u8 },
    /// The record ended before the buffer did: `extra` bytes follow it.
    Trailing { extra: usize },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "record truncated"),
            WireError::BadTag { what, tag } => write!(f, "bad {what} tag {tag:#04x}"),
            WireError::Trailing { extra } => write!(f, "{extra} bytes after the record"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bounds-checked little-endian cursor over an encoded buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the whole buffer has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// A 0/1 presence or boolean byte; any other value is a bad `what` tag.
    #[inline]
    pub fn flag(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what, tag }),
        }
    }

    #[inline]
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    #[inline]
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `count` read from the wire, validated against the bytes actually
    /// present: `count * min_record_bytes` must fit in the remainder.
    /// Guards every collection allocation, so a forged count in an
    /// otherwise CRC-valid frame cannot drive an oversized `Vec` reserve.
    #[inline]
    pub fn count(&mut self, min_record_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_record_bytes) > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }
}

#[inline]
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Encode an optional u64 (present flag + value, 9 bytes; zeros when
/// absent): request trace ids, span parents.
pub fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    buf.push(u8::from(v.is_some()));
    put_u64(buf, v.unwrap_or(0));
}

/// Decode an optional u64; a flag other than 0 or 1 is a bad record.
pub fn get_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, WireError> {
    let present = r.flag("option")?;
    let v = r.u64()?;
    Ok(present.then_some(v))
}

/// Encode a length-prefixed UTF-8 string (u32 len + bytes). Used by the
/// introspection payloads (span/metric export), whose records — unlike the
/// data-plane ones — carry names and details.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Decode a length-prefixed UTF-8 string; invalid UTF-8 is a bad record.
pub fn get_str(r: &mut Reader<'_>) -> Result<String, WireError> {
    let n = r.u32()? as usize;
    let bytes = r.take(n)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadTag {
        what: "utf8 string",
        tag: 0,
    })
}
