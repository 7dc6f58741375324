//! Byte encodings shared by the binary formats, and one bounded reader
//! that decodes them from untrusted bytes.
//!
//! Three formats are built on these primitives: flight recordings
//! (`etpn-rec`), coverage images (`etpn-cov`) and etpnd's journal frames
//! (`etpn-serve`). Writers append little-endian integers, LEB128 varints
//! and zigzag-mapped signed values with the `put_*` functions. Decoders
//! read through one [`Reader`], whose every method yields a value or a
//! [`DecodeError`] carrying the byte offset of the failure:
//!
//! * no read runs past the end of the input;
//! * an element count is accepted only when the bytes left could hold
//!   that many elements of the format's minimum width, so a short input
//!   claiming 2^40 elements fails before anything is allocated for them;
//! * a varint whose value does not fit `u64` is rejected, not truncated.

use crate::Value;

/// Why untrusted bytes did not decode, and where.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DecodeError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "at byte {}: {}", self.offset, self.detail)
    }
}

impl std::error::Error for DecodeError {}

/// Append `v` as 4 little-endian bytes.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` as 8 little-endian bytes.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` as 16 little-endian bytes.
pub fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` as an LEB128 varint: 7 payload bits per byte, low group
/// first, the high bit set on every byte but the last.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Map a signed value onto `u64` so that small magnitudes of either sign
/// stay short as varints: 0, -1, 1, -2, … become 0, 1, 2, 3, ….
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// The inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a [`Value`]: tag byte `0` for `⊥`, or `1` followed by the
/// zigzag varint of the defined value.
pub fn put_value(out: &mut Vec<u8>, v: Value) {
    match v {
        Value::Undef => out.push(0),
        Value::Def(x) => {
            out.push(1);
            put_varint(out, zigzag(x));
        }
    }
}

/// A bounds-checked cursor over untrusted bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Offset of the next byte to read.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet read.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// A [`DecodeError`] at the current offset.
    pub fn error(&self, detail: impl Into<String>) -> DecodeError {
        DecodeError {
            offset: self.pos,
            detail: detail.into(),
        }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(self.error(format!("truncated: wanted {n} bytes")));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// A 4-byte little-endian integer.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// An 8-byte little-endian integer.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A 16-byte little-endian integer.
    pub fn u128(&mut self) -> Result<u128, DecodeError> {
        Ok(u128::from_le_bytes(self.array()?))
    }

    /// An LEB128 varint of at most 10 bytes.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            // The 10th byte (shift 63) can only contribute its low bit:
            // higher payload bits would overflow u64, so they mark
            // corrupt or non-canonical input, not a value to truncate.
            if shift == 63 && byte & 0x7E != 0 {
                return Err(self.error(format!("varint overflows u64 (final byte {byte:#04x})")));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.error("varint longer than 10 bytes"))
    }

    /// A varint that must fit an id or bit index (`u32`); `what` names it
    /// in the error.
    pub fn varint_u32(&mut self, what: &str) -> Result<u32, DecodeError> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| self.error(format!("{what} {v} exceeds u32")))
    }

    /// Accept a count of `n` elements, each at least `min_width` (≥ 1)
    /// bytes wide, only when the bytes left could hold them: whatever is
    /// then preallocated for the elements stays proportional to the input.
    pub fn check_count(&self, n: u64, min_width: usize) -> Result<usize, DecodeError> {
        let left = self.remaining();
        match usize::try_from(n) {
            Ok(k) if k <= left / min_width => Ok(k),
            _ => Err(self.error(format!("claims {n} elements, only {left} bytes left"))),
        }
    }

    /// A varint element count whose elements take at least one byte each.
    pub fn count(&mut self) -> Result<usize, DecodeError> {
        let n = self.varint()?;
        self.check_count(n, 1)
    }

    /// A [`Value`] written by [`put_value`].
    pub fn value(&mut self) -> Result<Value, DecodeError> {
        match self.u8()? {
            0 => Ok(Value::Undef),
            1 => Ok(Value::Def(unzigzag(self.varint()?))),
            other => Err(self.error(format!("bad value tag {other}"))),
        }
    }

    /// Fail unless every byte was read; `what` names the whole input.
    pub fn finish(&self, what: &str) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.error(format!("trailing bytes after {what}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, -123456] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_roundtrips_extremes_and_rejects_overflow() {
        for v in [0u64, 1, 127, 128, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(Reader::new(&buf).varint(), Ok(v));
        }
        // Ten continuation bytes followed by anything is too long.
        let long = [0x80u8; 10];
        assert!(matches!(
            Reader::new(&long).varint(),
            Err(DecodeError { .. })
        ));
        // A 10th byte with payload beyond u64's last bit must be rejected
        // as corrupt, not silently truncated: 0x02 << 63 has no room.
        let mut overflow = vec![0xFFu8; 9];
        overflow.push(0x02);
        assert!(matches!(
            Reader::new(&overflow).varint(),
            Err(DecodeError { .. })
        ));
        // The canonical u64::MAX encoding (10th byte 0x01) still decodes.
        let mut max = vec![0xFFu8; 9];
        max.push(0x01);
        assert_eq!(Reader::new(&max).varint(), Ok(u64::MAX));
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left_times_the_width() {
        let r = Reader::new(&[0; 16]);
        assert_eq!(r.check_count(16, 1), Ok(16));
        assert_eq!(r.check_count(2, 8), Ok(2));
        let err = r.check_count(3, 8).unwrap_err();
        assert_eq!(err.offset, 0);
        assert_eq!(err.detail, "claims 3 elements, only 16 bytes left");
        assert!(r.check_count(u64::MAX, 1).is_err());
    }

    #[test]
    fn fixed_width_reads_are_little_endian_and_bounded() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0x0102_0304);
        put_u64(&mut buf, u64::MAX - 1);
        put_u128(&mut buf, 7 << 100);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32(), Ok(0x0102_0304));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.u128(), Ok(7 << 100));
        assert_eq!(r.finish("buffer"), Ok(()));
        let err = r.u8().unwrap_err();
        assert_eq!(
            (err.offset, err.detail.as_str()),
            (28, "truncated: wanted 1 bytes")
        );
        let mut r = Reader::new(&buf[..3]);
        assert_eq!(r.u32().unwrap_err().offset, 0);
        assert_eq!(r.take(2), Ok(&buf[..2]));
        assert_eq!(
            r.finish("buffer").unwrap_err().detail,
            "trailing bytes after buffer"
        );
    }

    #[test]
    fn values_round_trip_and_bad_tags_fail() {
        let mut buf = Vec::new();
        for v in [
            Value::Undef,
            Value::Def(0),
            Value::Def(-1),
            Value::Def(i64::MIN),
        ] {
            put_value(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for v in [
            Value::Undef,
            Value::Def(0),
            Value::Def(-1),
            Value::Def(i64::MIN),
        ] {
            assert_eq!(r.value(), Ok(v));
        }
        let err = Reader::new(&[2]).value().unwrap_err();
        assert_eq!((err.offset, err.detail.as_str()), (1, "bad value tag 2"));
    }
}
