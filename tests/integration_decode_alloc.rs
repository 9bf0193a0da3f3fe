//! Crafted chunk streams and DNS headers fail cheaply (DESIGN.md §10).
//!
//! Four inputs used to buy a large allocation with a few bytes:
//!
//! 1. **forged record count** — a 24-byte chunk: a valid 20-byte header
//!    claiming the format's maximum record count, and a 4-byte payload of
//!    four empty column groups. The decoder sized its id column (32 MiB)
//!    from the count before reading a byte of it.
//! 2. **missing payload** — a lone 20-byte header claiming a 64 MiB
//!    payload. The reader zero-filled the claimed length before reading.
//! 3. **forged question count** — a bare 12-byte DNS header claiming
//!    65,535 questions. `Message::decode` reserved all of them (2 MB)
//!    before reading the first.
//! 4. **forged answer count** — the same with 65,535 answers (7 MB).
//!
//! The chunk inputs must fail with the same error from `ChunkReader` and
//! from `fold_chunks` at 1 and 2 threads; the DNS headers with
//! `DnsError::Truncated`. Built with `--features alloc-count` (as
//! `make alloc-smoke` does) the counting allocator is installed and
//! every call must also allocate at most 64 bytes per input byte.
//! Without the feature the totals stay zero and only the errors are
//! checked.
//!
//! Everything lives in ONE `#[test]`: the allocation totals are
//! process-global, and a concurrent test's allocations would bleed into
//! the measured calls.

use dohperf::dns::error::DnsError;
use dohperf::dns::message::Message;
use dohperf::store::checksum::crc32;
use dohperf::store::{fold_chunks, ChunkReader, CHUNK_MAGIC, FORMAT_VERSION};
use dohperf::telemetry::alloc;

#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: alloc::CountingAllocator = alloc::CountingAllocator;

/// Allocation budget per input byte.
const BYTES_PER_INPUT_BYTE: u64 = 64;

/// A chunk header for `payload`, claiming `record_count` records and a
/// `payload_len`-byte payload (which need not match `payload`).
fn header(record_count: u32, payload_len: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&CHUNK_MAGIC.to_le_bytes());
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&record_count.to_le_bytes());
    out.extend_from_slice(&payload_len.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Run `read` on `input` and return its error message, checking the
/// bytes allocated during the call against the budget.
fn failure<E: std::fmt::Display>(
    name: &str,
    input: &[u8],
    read: impl FnOnce(&[u8]) -> Option<E>,
) -> String {
    alloc::reset();
    let err = read(input);
    let bytes = alloc::totals().bytes;
    let budget = BYTES_PER_INPUT_BYTE * input.len() as u64;
    assert!(
        bytes <= budget,
        "{name}: allocated {bytes} bytes reading a {}-byte input (budget {budget})",
        input.len()
    );
    err.unwrap_or_else(|| panic!("{name}: crafted input was accepted"))
        .to_string()
}

#[test]
fn crafted_chunks_fail_without_large_allocations() {
    let empty_groups = [0u8; 4];
    let mut forged_count = header(1 << 22, empty_groups.len() as u32, &empty_groups);
    forged_count.extend_from_slice(&empty_groups);
    assert_eq!(forged_count.len(), 24);
    let missing_payload = header(1, 64 << 20, &[]);
    assert_eq!(missing_payload.len(), 20);

    for (case, input) in [
        ("forged record count", &forged_count),
        ("missing payload", &missing_payload),
    ] {
        let serial = failure(&format!("{case}, ChunkReader"), input, |bytes| {
            ChunkReader::new(bytes).find_map(Result::err)
        });
        assert!(serial.contains("chunk 0"), "{case}: {serial}");
        for threads in [1, 2] {
            let folded = failure(
                &format!("{case}, fold_chunks at {threads} threads"),
                input,
                |bytes| {
                    fold_chunks(bytes, threads, |_, records| Ok(records.len()), |_| Ok(())).err()
                },
            );
            assert_eq!(folded, serial, "{case}: fold_chunks at {threads} threads");
        }
    }

    // Register the decoder's failure counter outside the measured calls:
    // its one-time registry entry is not a per-input cost.
    assert!(Message::decode(&[]).is_err());
    for (case, counts) in [
        ("forged question count", [u16::MAX, 0, 0, 0]),
        ("forged answer count", [0, u16::MAX, 0, 0]),
    ] {
        let mut input = vec![0x12, 0x34, 0x01, 0x00];
        for c in counts {
            input.extend_from_slice(&c.to_be_bytes());
        }
        assert_eq!(input.len(), 12);
        let err = failure(case, &input, |bytes| Message::decode(bytes).err());
        assert_eq!(err, DnsError::Truncated.to_string(), "{case}");
    }
}
