//! LEB128 varints, zigzag signed mapping, and raw f64 bit I/O.
//!
//! Small unsigned values (record counts, run lengths, PoP indices)
//! dominate the store's integer columns, so LEB128 keeps them to one or
//! two bytes; deltas of near-monotone id sequences go through zigzag so
//! the occasional backward step stays cheap. Floats are stored as raw
//! little-endian IEEE-754 bits — bit-exact round-trips are what make
//! `--from-store` reproduce the direct pipeline's output byte for byte.
//!
//! The encoders write one value at a time; decoding goes through
//! [`Cursor`], which bounds-checks every read.

use crate::{Result, StoreError};

/// Append `v` as a LEB128 varint, one push per byte.
pub fn put_u64(out: &mut Vec<u8>, mut v: u64) {
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

/// Append `v` zigzag-mapped then LEB128-encoded.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_u64(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Append the raw little-endian bits of `v`.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// A bounds-checked forward cursor over encoded bytes.
///
/// Every read error names the offset it failed at, so a truncated or
/// corrupt chunk produces an actionable message rather than a panic.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Context string prefixed to every error (e.g. `"chunk 12"`).
    context: &'a str,
}

impl<'a> Cursor<'a> {
    /// Wrap `bytes`, labelling errors with `context`.
    pub fn new(bytes: &'a [u8], context: &'a str) -> Self {
        Cursor {
            bytes,
            pos: 0,
            context,
        }
    }

    /// Current offset from the start of the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn corrupt(&self, what: &str) -> StoreError {
        StoreError::Corrupt(format!(
            "{}: {} at offset {} (buffer is {} bytes)",
            self.context,
            what,
            self.pos,
            self.bytes.len()
        ))
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.corrupt("unexpected end of input reading byte"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a LEB128 varint. Single-byte values — the overwhelmingly
    /// common case in count and run-length columns — take the early
    /// return; the loop handles the multi-byte tail.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        if let Some(&b) = self.bytes.get(self.pos) {
            if b < 0x80 {
                self.pos += 1;
                return Ok(u64::from(b));
            }
        }
        self.u64_multi()
    }

    fn u64_multi(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(self.corrupt("varint overflows u64"));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read a zigzag varint.
    pub fn i64(&mut self) -> Result<i64> {
        let z = self.u64()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Read a varint and narrow it to `usize`, failing if it exceeds `cap`.
    pub fn len(&mut self, cap: usize, what: &str) -> Result<usize> {
        let v = self.u64()?;
        if v > cap as u64 {
            return Err(self.corrupt(&format!("{what} length {v} exceeds cap {cap}")));
        }
        Ok(v as usize)
    }

    /// Read raw little-endian f64 bits.
    pub fn f64(&mut self) -> Result<f64> {
        let bytes = self.take(8, "f64")?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Ok(f64::from_bits(u64::from_le_bytes(arr)))
    }

    /// Read a whole column of `n` raw-bit f64s into `out` — one bounds
    /// check for the entire block, then a fixed-width copy loop the
    /// compiler unrolls into wide loads.
    pub fn f64_block(&mut self, n: usize, out: &mut Vec<f64>) -> Result<()> {
        let total = n
            .checked_mul(8)
            .ok_or_else(|| self.corrupt("f64 column length overflows"))?;
        let bytes = self.take(total, "f64 column")?;
        out.reserve(n);
        for chunk in bytes.chunks_exact(8) {
            let arr: [u8; 8] = chunk.try_into().expect("8-byte chunk");
            out.push(f64::from_bits(u64::from_le_bytes(arr)));
        }
        Ok(())
    }

    /// Consume exactly `n` bytes.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| {
                self.corrupt(&format!("unexpected end of input reading {n}-byte {what}"))
            })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Fail unless the cursor consumed every byte.
    pub fn expect_empty(&self) -> Result<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(StoreError::Corrupt(format!(
                "{}: {} trailing bytes after decoding",
                self.context,
                self.bytes.len() - self.pos
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trips_across_magnitudes() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX / 2, u64::MAX];
        for &v in &values {
            put_u64(&mut buf, v);
        }
        let mut c = Cursor::new(&buf, "test");
        for &v in &values {
            assert_eq!(c.u64().unwrap(), v);
        }
        c.expect_empty().unwrap();
    }

    #[test]
    fn i64_round_trips_signed() {
        let mut buf = Vec::new();
        let values = [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX];
        for &v in &values {
            put_i64(&mut buf, v);
        }
        let mut c = Cursor::new(&buf, "test");
        for &v in &values {
            assert_eq!(c.i64().unwrap(), v);
        }
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        let mut buf = Vec::new();
        let values = [0.0f64, -0.0, 1.5, -1e300, f64::MIN_POSITIVE, 234.567];
        for &v in &values {
            put_f64(&mut buf, v);
        }
        let mut c = Cursor::new(&buf, "test");
        for &v in &values {
            assert_eq!(c.f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn f64_block_decode_matches_scalar_decode() {
        let values = [0.0f64, -0.0, 1.5, -1e300, f64::MIN_POSITIVE, 234.567];
        let mut buf = Vec::new();
        for &v in &values {
            put_f64(&mut buf, v);
        }
        let mut c = Cursor::new(&buf, "test");
        let mut col = Vec::new();
        c.f64_block(values.len(), &mut col).unwrap();
        c.expect_empty().unwrap();
        for (a, b) in col.iter().zip(&values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Truncated block fails with context.
        let mut c = Cursor::new(&buf[..buf.len() - 1], "chunk 9");
        let err = c.f64_block(values.len(), &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("chunk 9"), "{err}");
    }

    #[test]
    fn truncated_input_errors_with_context() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 1 << 30);
        buf.truncate(buf.len() - 1);
        let mut c = Cursor::new(&buf, "chunk 3");
        let err = c.u64().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("chunk 3"), "{msg}");
        assert!(msg.contains("unexpected end"), "{msg}");
    }

    #[test]
    fn overlong_varint_rejected() {
        let buf = [0xFFu8; 11];
        let mut c = Cursor::new(&buf, "test");
        assert!(c.u64().unwrap_err().to_string().contains("overflows"));
    }
}
