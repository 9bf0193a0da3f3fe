//! The store manifest: dataset-level metadata alongside the chunks.
//!
//! Everything in the campaign's `Dataset` that is not a per-client
//! record lives here — the country table (defining `country_index`),
//! the RIPE Atlas remedy samples, the mismatch-discard count, the
//! observed-infrastructure totals, and the chunk-stream totals used to
//! cross-check `records.chunks` on open. Same framing as a chunk:
//! magic, version, length prefix, CRC-32.

use crate::checksum::crc32;
use crate::varint::{put_f64, put_u64, Cursor};
use crate::{Result, StoreError};

/// Manifest magic: `DPSM` ("DoH-Perf Store Manifest").
pub const MANIFEST_MAGIC: u32 = u32::from_le_bytes(*b"DPSM");

/// Defensive cap on manifest payloads (16 MiB).
const MAX_PAYLOAD_LEN: usize = 16 << 20;

/// Dataset-level metadata for one store directory.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Manifest {
    /// Country ISO codes, indexed by the records' `country_index`.
    pub countries: Vec<[u8; 2]>,
    /// Per-country Atlas Do53 samples (ms) for the remedy countries.
    pub atlas_do53_ms: Vec<(u32, Vec<f64>)>,
    /// Records discarded by the Maxmind mismatch filter.
    pub discarded_mismatches: u64,
    /// Unique ASes observed.
    pub observed_ases: u64,
    /// Unique recursive resolvers observed.
    pub observed_resolvers: u64,
    /// Total records in `records.chunks`.
    pub total_records: u64,
    /// Total chunks in `records.chunks`.
    pub total_chunks: u64,
    /// Total bytes of `records.chunks`.
    pub total_bytes: u64,
}

impl Manifest {
    /// Serialise to the framed binary form.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        put_u64(&mut payload, self.countries.len() as u64);
        for iso in &self.countries {
            payload.extend_from_slice(iso);
        }
        put_u64(&mut payload, self.atlas_do53_ms.len() as u64);
        for (country_index, samples) in &self.atlas_do53_ms {
            put_u64(&mut payload, u64::from(*country_index));
            put_u64(&mut payload, samples.len() as u64);
            for &s in samples {
                put_f64(&mut payload, s);
            }
        }
        put_u64(&mut payload, self.discarded_mismatches);
        put_u64(&mut payload, self.observed_ases);
        put_u64(&mut payload, self.observed_resolvers);
        put_u64(&mut payload, self.total_records);
        put_u64(&mut payload, self.total_chunks);
        put_u64(&mut payload, self.total_bytes);

        frame(&payload)
    }

    /// Parse a manifest previously written by [`Manifest::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Manifest> {
        if bytes.len() < 16 {
            return Err(StoreError::Corrupt(format!(
                "manifest: {} bytes is shorter than the 16-byte header",
                bytes.len()
            )));
        }
        let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
        if magic != MANIFEST_MAGIC {
            return Err(StoreError::Corrupt(format!(
                "manifest: bad magic {magic:#010x}, expected {MANIFEST_MAGIC:#010x} (\"DPSM\")"
            )));
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
        if version > crate::FORMAT_VERSION {
            return Err(StoreError::Corrupt(format!(
                "manifest: format version {version} is newer than supported {}",
                crate::FORMAT_VERSION
            )));
        }
        let payload_len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
        if payload_len > MAX_PAYLOAD_LEN || 16 + payload_len != bytes.len() {
            return Err(StoreError::Corrupt(format!(
                "manifest: payload length {payload_len} disagrees with file size {}",
                bytes.len()
            )));
        }
        let expected_crc = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
        let payload = &bytes[16..];
        let found_crc = crc32(payload);
        if found_crc != expected_crc {
            return Err(StoreError::Corrupt(format!(
                "manifest: checksum mismatch — header says {expected_crc:#010x}, \
                 payload hashes to {found_crc:#010x}"
            )));
        }

        // Every count is capped by what the remaining bytes could hold at
        // the item's minimum encoded width, so a tiny manifest cannot make
        // the decoder reserve memory for items it does not contain.
        let mut c = Cursor::new(payload, "manifest");
        let n_countries = c.len((1 << 16).min(c.remaining() / 2), "country table")?;
        let mut countries = Vec::with_capacity(n_countries);
        for _ in 0..n_countries {
            let b = c.take(2, "country ISO")?;
            countries.push([b[0], b[1]]);
        }
        // An atlas entry is at least a one-byte index and a one-byte count.
        let n_atlas = c.len(n_countries.max(1).min(c.remaining() / 2), "atlas table")?;
        let mut atlas_do53_ms = Vec::with_capacity(n_atlas);
        for _ in 0..n_atlas {
            let idx = c.u64()?;
            let idx = u32::try_from(idx).map_err(|_| {
                StoreError::Corrupt(format!("manifest: atlas country index {idx} overflows u32"))
            })?;
            let n_samples = c.len((1 << 24).min(c.remaining() / 8), "atlas samples")?;
            let mut samples = Vec::with_capacity(n_samples);
            for _ in 0..n_samples {
                samples.push(c.f64()?);
            }
            atlas_do53_ms.push((idx, samples));
        }
        let manifest = Manifest {
            countries,
            atlas_do53_ms,
            discarded_mismatches: c.u64()?,
            observed_ases: c.u64()?,
            observed_resolvers: c.u64()?,
            total_records: c.u64()?,
            total_chunks: c.u64()?,
            total_bytes: c.u64()?,
        };
        c.expect_empty()?;
        Ok(manifest)
    }
}

/// Wrap a manifest payload in its header: magic, version, reserved,
/// payload length and CRC-32.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + payload.len());
    out.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
    out.extend_from_slice(&crate::FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            countries: vec![*b"BR", *b"US", *b"SN"],
            atlas_do53_ms: vec![(1, vec![10.5, 20.25, 30.0])],
            discarded_mismatches: 17,
            observed_ases: 2190,
            observed_resolvers: 1896,
            total_records: 22_052,
            total_chunks: 44,
            total_bytes: 1_234_567,
        }
    }

    #[test]
    fn round_trips() {
        let m = sample();
        let bytes = m.encode();
        assert_eq!(Manifest::decode(&bytes).unwrap(), m);
    }

    #[test]
    fn empty_manifest_round_trips() {
        let m = Manifest::default();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn flipped_byte_is_caught() {
        let mut bytes = sample().encode();
        let mid = bytes.len() - 4;
        bytes[mid] ^= 0x40;
        let err = Manifest::decode(&bytes).unwrap_err().to_string();
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn truncation_is_caught() {
        let mut bytes = sample().encode();
        bytes.truncate(bytes.len() - 1);
        let err = Manifest::decode(&bytes).unwrap_err().to_string();
        assert!(err.contains("disagrees with file size"), "{err}");
    }

    /// A checksummed manifest of a few bytes that claims the maximum
    /// sample count is rejected by the count cap, before any reservation.
    #[test]
    fn oversized_sample_count_is_rejected_before_reserving() {
        let mut payload = Vec::new();
        put_u64(&mut payload, 1);
        payload.extend_from_slice(b"BR");
        put_u64(&mut payload, 1);
        put_u64(&mut payload, 0);
        put_u64(&mut payload, 1 << 24);
        let bytes = frame(&payload);
        assert!(bytes.len() < 32, "{} bytes", bytes.len());
        let err = Manifest::decode(&bytes).unwrap_err().to_string();
        assert!(
            err.contains("atlas samples length 16777216 exceeds cap"),
            "{err}"
        );
    }

    #[test]
    fn oversized_country_count_is_rejected_before_reserving() {
        let mut payload = Vec::new();
        put_u64(&mut payload, 1 << 16);
        payload.extend_from_slice(b"BR");
        let err = Manifest::decode(&frame(&payload)).unwrap_err().to_string();
        assert!(
            err.contains("country table length 65536 exceeds cap"),
            "{err}"
        );
    }
}
