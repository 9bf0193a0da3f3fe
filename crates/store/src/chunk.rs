//! The chunk codec: columnar encode/decode of a record batch.
//!
//! ## Byte layout
//!
//! ```text
//! chunk   := magic(u32 LE = "DPSC") version(u16 LE) flags(u16 LE)
//!            record_count(u32 LE) payload_len(u32 LE)
//!            crc32(u32 LE, over payload) payload
//! payload := group+              (4 groups, plus flag-gated extensions)
//! group   := varint(byte len) bytes
//! ```
//!
//! `flags` gates optional trailing groups: bit 0
//! ([`FLAG_TRANSPORTS`]) marks a fifth **transports** column group,
//! bit 1 ([`FLAG_PAGELOAD`]) a sixth **pageload** group, and bit 2
//! ([`FLAG_TIMESERIES`]) a seventh **timeseries** group. A chunk whose
//! records all have empty transport, page and window vectors writes
//! `flags = 0` and no trailing groups, so legacy chunks are
//! byte-identical to format version 1 output. Unknown flag bits are
//! rejected.
//!
//! The four always-present column groups mirror the record's field
//! families:
//!
//! 1. **identity** — `client_id` (first absolute, then zigzag varint
//!    deltas: ids are near-monotone so deltas are tiny), `country_index`
//!    (run-length encoded: a shard holds one country), `prefix` (zigzag
//!    varint deltas).
//! 2. **geoloc** — `country_iso` / `maxmind_country` (RLE over the
//!    two-byte codes), then raw-bit f64 columns for lat, lon and the
//!    nameserver distance.
//! 3. **doh** — per-record sample counts, then the flattened samples in
//!    structure-of-arrays form: provider ordinals (RLE — the provider
//!    cycle repeats every record), `t_doh` / `t_dohr` f64 columns,
//!    `pop_index` varints, PoP-distance f64 columns.
//! 4. **do53** — a presence bitmap, the present values as f64, and the
//!    source ordinals (RLE).
//!
//! The flag-gated trailing groups:
//!
//! 5. **transports** — per-record sample counts, then the flattened
//!    lifecycle samples in structure-of-arrays form: transport ordinals
//!    (RLE), provider ordinals (RLE), cold/warm/resumed/handshake f64
//!    columns.
//! 6. **pageload** — per-record sample counts, then the flattened page
//!    samples in structure-of-arrays form: transport ordinals (RLE),
//!    provider ordinals (RLE), DAG-shape varint columns (domains,
//!    unique names, depth, cold/warm cache hits), cold/warm PLT f64
//!    columns.
//! 7. **timeseries** — per-record sample counts, then the flattened
//!    windowed summaries in structure-of-arrays form: window indices
//!    (RLE — every sample of a client lands in the client's window),
//!    provider ordinals (RLE), transport ordinals (RLE), varint count
//!    columns (queries, successes, cache lookups/hits), latency f64
//!    column.
//!
//! Floats are raw little-endian IEEE-754 bits: encode∘decode is the
//! identity on every finite value, which is what lets `--from-store`
//! reproduce the direct pipeline byte for byte.

use crate::checksum::crc32;
use crate::record::{
    StoreDohSample, StorePageSample, StoreRecord, StoreTransportSample, StoreWindowSample,
};
use crate::varint::{put_f64, put_i64, put_u64, Cursor};
use crate::{Result, StoreError};

/// Chunk magic: `DPSC` ("DoH-Perf Store Chunk").
pub const CHUNK_MAGIC: u32 = u32::from_le_bytes(*b"DPSC");

/// Current format version; readers reject anything newer.
pub const FORMAT_VERSION: u16 = 1;

/// Header flag bit: the payload carries a fifth (transports) group.
pub const FLAG_TRANSPORTS: u16 = 0x1;

/// Header flag bit: the payload carries a sixth (pageload) group.
pub const FLAG_PAGELOAD: u16 = 0x2;

/// Header flag bit: the payload carries a seventh (timeseries) group.
pub const FLAG_TIMESERIES: u16 = 0x4;

/// All flag bits this reader understands; anything else is rejected.
const KNOWN_FLAGS: u16 = FLAG_TRANSPORTS | FLAG_PAGELOAD | FLAG_TIMESERIES;

/// Fixed header length in bytes (magic, version, flags, count, len, crc).
pub const CHUNK_HEADER_LEN: usize = 4 + 2 + 2 + 4 + 4 + 4;

/// Hard cap on one chunk's payload (64 MiB) — a corrupt length prefix
/// fails fast instead of attempting a huge allocation.
const MAX_PAYLOAD_LEN: usize = 64 << 20;

/// Hard cap on records per chunk, for the same reason.
const MAX_RECORDS_PER_CHUNK: usize = 1 << 22;

/// Per-record cap on DoH samples (defensive; campaigns use 4).
const MAX_SAMPLES_PER_RECORD: usize = 256;

/// Payload bytes every record needs at minimum: its three raw f64
/// geoloc columns (lat, lon, nameserver distance).
const MIN_RECORD_BYTES: usize = 3 * 8;

/// Encode `records` as one self-contained chunk.
pub fn encode_chunk(records: &[StoreRecord]) -> Vec<u8> {
    assert!(!records.is_empty(), "a chunk holds at least one record");
    assert!(records.len() <= MAX_RECORDS_PER_CHUNK);

    let mut payload = Vec::with_capacity(records.len() * 96);
    put_group(&mut payload, encode_identity(records));
    put_group(&mut payload, encode_geoloc(records));
    put_group(&mut payload, encode_doh(records));
    put_group(&mut payload, encode_do53(records));
    let mut flags = 0u16;
    if records.iter().any(|r| !r.transports.is_empty()) {
        flags |= FLAG_TRANSPORTS;
        put_group(&mut payload, encode_transports(records));
    }
    if records.iter().any(|r| !r.pages.is_empty()) {
        flags |= FLAG_PAGELOAD;
        put_group(&mut payload, encode_pageload(records));
    }
    if records.iter().any(|r| !r.windows.is_empty()) {
        flags |= FLAG_TIMESERIES;
        put_group(&mut payload, encode_timeseries(records));
    }

    let mut out = Vec::with_capacity(CHUNK_HEADER_LEN + payload.len());
    out.extend_from_slice(&CHUNK_MAGIC.to_le_bytes());
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&(records.len() as u32).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn put_group(out: &mut Vec<u8>, group: Vec<u8>) {
    put_u64(out, group.len() as u64);
    out.extend_from_slice(&group);
}

fn encode_identity(records: &[StoreRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, records[0].client_id);
    for w in records.windows(2) {
        put_i64(&mut out, w[1].client_id.wrapping_sub(w[0].client_id) as i64);
    }
    encode_rle_u32(&mut out, records.iter().map(|r| r.country_index));
    put_u64(&mut out, records[0].prefix as u64);
    for w in records.windows(2) {
        put_i64(&mut out, i64::from(w[1].prefix) - i64::from(w[0].prefix));
    }
    out
}

fn encode_geoloc(records: &[StoreRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_rle_pair(&mut out, records.iter().map(|r| r.country_iso));
    encode_rle_pair(&mut out, records.iter().map(|r| r.maxmind_country));
    for r in records {
        put_f64(&mut out, r.lat);
    }
    for r in records {
        put_f64(&mut out, r.lon);
    }
    for r in records {
        put_f64(&mut out, r.nameserver_distance_miles);
    }
    out
}

fn encode_doh(records: &[StoreRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        put_u64(&mut out, r.doh.len() as u64);
    }
    let flat = || records.iter().flat_map(|r| r.doh.iter());
    encode_rle_u32(&mut out, flat().map(|s| u32::from(s.provider)));
    for s in flat() {
        put_f64(&mut out, s.t_doh_ms);
    }
    for s in flat() {
        put_f64(&mut out, s.t_dohr_ms);
    }
    for s in flat() {
        put_u64(&mut out, u64::from(s.pop_index));
    }
    for s in flat() {
        put_f64(&mut out, s.pop_distance_miles);
    }
    for s in flat() {
        put_f64(&mut out, s.nearest_pop_distance_miles);
    }
    out
}

fn encode_do53(records: &[StoreRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut bitmap = vec![0u8; records.len().div_ceil(8)];
    for (i, r) in records.iter().enumerate() {
        if r.do53_ms.is_some() {
            bitmap[i / 8] |= 1 << (i % 8);
        }
    }
    out.extend_from_slice(&bitmap);
    for r in records {
        if let Some(v) = r.do53_ms {
            put_f64(&mut out, v);
        }
    }
    encode_rle_u32(&mut out, records.iter().map(|r| u32::from(r.do53_source)));
    out
}

fn encode_transports(records: &[StoreRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        put_u64(&mut out, r.transports.len() as u64);
    }
    let flat = || records.iter().flat_map(|r| r.transports.iter());
    encode_rle_u32(&mut out, flat().map(|s| u32::from(s.transport)));
    encode_rle_u32(&mut out, flat().map(|s| u32::from(s.provider)));
    for s in flat() {
        put_f64(&mut out, s.cold_ms);
    }
    for s in flat() {
        put_f64(&mut out, s.warm_ms);
    }
    for s in flat() {
        put_f64(&mut out, s.resumed_ms);
    }
    for s in flat() {
        put_f64(&mut out, s.handshake_ms);
    }
    out
}

fn encode_pageload(records: &[StoreRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        put_u64(&mut out, r.pages.len() as u64);
    }
    let flat = || records.iter().flat_map(|r| r.pages.iter());
    encode_rle_u32(&mut out, flat().map(|s| u32::from(s.transport)));
    encode_rle_u32(&mut out, flat().map(|s| u32::from(s.provider)));
    for s in flat() {
        put_u64(&mut out, u64::from(s.domains));
    }
    for s in flat() {
        put_u64(&mut out, u64::from(s.unique_names));
    }
    for s in flat() {
        put_u64(&mut out, u64::from(s.depth));
    }
    for s in flat() {
        put_u64(&mut out, u64::from(s.cold_cache_hits));
    }
    for s in flat() {
        put_u64(&mut out, u64::from(s.warm_cache_hits));
    }
    for s in flat() {
        put_f64(&mut out, s.plt_cold_ms);
    }
    for s in flat() {
        put_f64(&mut out, s.plt_warm_ms);
    }
    out
}

fn encode_timeseries(records: &[StoreRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        put_u64(&mut out, r.windows.len() as u64);
    }
    let flat = || records.iter().flat_map(|r| r.windows.iter());
    encode_rle_u32(&mut out, flat().map(|s| s.window));
    encode_rle_u32(&mut out, flat().map(|s| u32::from(s.provider)));
    encode_rle_u32(&mut out, flat().map(|s| u32::from(s.transport)));
    for s in flat() {
        put_u64(&mut out, u64::from(s.queries));
    }
    for s in flat() {
        put_u64(&mut out, u64::from(s.successes));
    }
    for s in flat() {
        put_u64(&mut out, u64::from(s.cache_lookups));
    }
    for s in flat() {
        put_u64(&mut out, u64::from(s.cache_hits));
    }
    for s in flat() {
        put_f64(&mut out, s.latency_ms);
    }
    out
}

/// Decode one chunk from `header` + `payload` bytes (already split by the
/// reader). `flags` comes from [`parse_header`] and gates the optional
/// trailing groups. `index` labels errors with the chunk's ordinal in the
/// stream.
pub fn decode_chunk(
    record_count: u32,
    flags: u16,
    payload: &[u8],
    index: u64,
) -> Result<Vec<StoreRecord>> {
    let context = format!("chunk {index}");
    let n = record_count as usize;
    if n == 0 || n > MAX_RECORDS_PER_CHUNK {
        return Err(StoreError::Corrupt(format!(
            "{context}: implausible record count {n}"
        )));
    }
    // Check the count against the payload before any column is sized
    // from it: a forged count must not buy a large allocation.
    if n * MIN_RECORD_BYTES > payload.len() {
        return Err(StoreError::Corrupt(format!(
            "{context}: record count {n} needs at least {} payload bytes, found {}",
            n * MIN_RECORD_BYTES,
            payload.len()
        )));
    }
    let mut cursor = Cursor::new(payload, &context);

    let identity = take_group(&mut cursor, "identity")?;
    let geoloc = take_group(&mut cursor, "geoloc")?;
    let doh = take_group(&mut cursor, "doh")?;
    let do53 = take_group(&mut cursor, "do53")?;
    let transports = if flags & FLAG_TRANSPORTS != 0 {
        Some(take_group(&mut cursor, "transports")?)
    } else {
        None
    };
    let pageload = if flags & FLAG_PAGELOAD != 0 {
        Some(take_group(&mut cursor, "pageload")?)
    } else {
        None
    };
    let timeseries = if flags & FLAG_TIMESERIES != 0 {
        Some(take_group(&mut cursor, "timeseries")?)
    } else {
        None
    };
    cursor.expect_empty()?;

    let ids = decode_identity(identity, n, &context)?;
    let geo = decode_geoloc(geoloc, n, &context)?;
    let samples = decode_doh(doh, n, &context)?;
    let baselines = decode_do53(do53, n, &context)?;
    let mut lifecycle = match transports {
        Some(bytes) => decode_transports(bytes, n, &context)?,
        None => vec![Vec::new(); n],
    };
    let mut pages = match pageload {
        Some(bytes) => decode_pageload(bytes, n, &context)?,
        None => vec![Vec::new(); n],
    };
    let mut windows = match timeseries {
        Some(bytes) => decode_timeseries(bytes, n, &context)?,
        None => vec![Vec::new(); n],
    };

    let mut records = Vec::with_capacity(n);
    for (i, doh) in samples.into_iter().enumerate() {
        records.push(StoreRecord {
            client_id: ids.client_id[i],
            country_iso: geo.country_iso[i],
            country_index: ids.country_index[i],
            prefix: ids.prefix[i],
            maxmind_country: geo.maxmind[i],
            lat: geo.lat[i],
            lon: geo.lon[i],
            nameserver_distance_miles: geo.ns_distance[i],
            doh,
            do53_ms: baselines.values[i],
            do53_source: baselines.source[i],
            transports: std::mem::take(&mut lifecycle[i]),
            pages: std::mem::take(&mut pages[i]),
            windows: std::mem::take(&mut windows[i]),
        });
    }
    Ok(records)
}

/// Validate and split a chunk header, returning (record_count, payload_len,
/// crc, flags). `index` labels errors.
pub fn parse_header(header: &[u8; CHUNK_HEADER_LEN], index: u64) -> Result<(u32, usize, u32, u16)> {
    let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    if magic != CHUNK_MAGIC {
        return Err(StoreError::Corrupt(format!(
            "chunk {index}: bad magic {magic:#010x}, expected {CHUNK_MAGIC:#010x} (\"DPSC\")"
        )));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("2 bytes"));
    if version > FORMAT_VERSION {
        return Err(StoreError::Corrupt(format!(
            "chunk {index}: format version {version} is newer than supported {FORMAT_VERSION}"
        )));
    }
    let flags = u16::from_le_bytes(header[6..8].try_into().expect("2 bytes"));
    if flags & !KNOWN_FLAGS != 0 {
        return Err(StoreError::Corrupt(format!(
            "chunk {index}: unknown flag bits {:#06x} (understood: {KNOWN_FLAGS:#06x})",
            flags & !KNOWN_FLAGS
        )));
    }
    let record_count = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    let payload_len = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes")) as usize;
    if payload_len > MAX_PAYLOAD_LEN {
        return Err(StoreError::Corrupt(format!(
            "chunk {index}: payload length {payload_len} exceeds the {MAX_PAYLOAD_LEN}-byte cap"
        )));
    }
    let crc = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes"));
    Ok((record_count, payload_len, crc, flags))
}

/// Verify a payload against its header checksum.
pub fn verify_checksum(payload: &[u8], expected: u32, index: u64) -> Result<()> {
    let found = crc32(payload);
    if found != expected {
        return Err(StoreError::Corrupt(format!(
            "chunk {index}: checksum mismatch — header says {expected:#010x}, \
             payload hashes to {found:#010x}; the chunk bytes were altered after writing"
        )));
    }
    Ok(())
}

fn take_group<'a>(cursor: &mut Cursor<'a>, what: &str) -> Result<&'a [u8]> {
    let len = cursor.len(MAX_PAYLOAD_LEN, what)?;
    cursor.take(len, what)
}

// ---------------------------------------------------------------- identity

struct IdentityColumns {
    client_id: Vec<u64>,
    country_index: Vec<u32>,
    prefix: Vec<u32>,
}

fn decode_identity(bytes: &[u8], n: usize, context: &str) -> Result<IdentityColumns> {
    let mut c = Cursor::new(bytes, context);
    let mut client_id = Vec::with_capacity(n);
    client_id.push(c.u64()?);
    for _ in 1..n {
        let prev = *client_id.last().expect("non-empty");
        client_id.push(prev.wrapping_add(c.i64()? as u64));
    }
    let country_index = decode_rle_u32(&mut c, n, "country_index")?;
    let mut prefix = Vec::with_capacity(n);
    let first = c.u64()?;
    prefix
        .push(u32::try_from(first).map_err(|_| {
            StoreError::Corrupt(format!("{context}: prefix {first} overflows u32"))
        })?);
    for _ in 1..n {
        let prev = i64::from(*prefix.last().expect("non-empty"));
        let next = prev + c.i64()?;
        prefix.push(u32::try_from(next).map_err(|_| {
            StoreError::Corrupt(format!("{context}: prefix delta leaves u32 range ({next})"))
        })?);
    }
    c.expect_empty()?;
    Ok(IdentityColumns {
        client_id,
        country_index,
        prefix,
    })
}

// ----------------------------------------------------------------- geoloc

struct GeolocColumns {
    country_iso: Vec<[u8; 2]>,
    maxmind: Vec<[u8; 2]>,
    lat: Vec<f64>,
    lon: Vec<f64>,
    ns_distance: Vec<f64>,
}

fn decode_geoloc(bytes: &[u8], n: usize, context: &str) -> Result<GeolocColumns> {
    let mut c = Cursor::new(bytes, context);
    let country_iso = decode_rle_pair(&mut c, n, "country_iso")?;
    let maxmind = decode_rle_pair(&mut c, n, "maxmind_country")?;
    let mut lat = Vec::new();
    c.f64_block(n, &mut lat)?;
    let mut lon = Vec::new();
    c.f64_block(n, &mut lon)?;
    let mut ns_distance = Vec::new();
    c.f64_block(n, &mut ns_distance)?;
    c.expect_empty()?;
    Ok(GeolocColumns {
        country_iso,
        maxmind,
        lat,
        lon,
        ns_distance,
    })
}

// -------------------------------------------------------------------- doh

fn decode_doh(bytes: &[u8], n: usize, context: &str) -> Result<Vec<Vec<StoreDohSample>>> {
    let mut c = Cursor::new(bytes, context);
    let mut counts = Vec::with_capacity(n);
    let mut total = 0usize;
    for _ in 0..n {
        let k = c.len(MAX_SAMPLES_PER_RECORD, "doh sample count")?;
        counts.push(k);
        total += k;
    }
    let providers = decode_rle_u32(&mut c, total, "provider")?;
    let mut t_doh = Vec::new();
    c.f64_block(total, &mut t_doh)?;
    let mut t_dohr = Vec::new();
    c.f64_block(total, &mut t_dohr)?;
    let mut pop_index = Vec::with_capacity(total);
    for _ in 0..total {
        let v = c.u64()?;
        pop_index.push(
            u32::try_from(v).map_err(|_| {
                StoreError::Corrupt(format!("{context}: pop_index {v} overflows u32"))
            })?,
        );
    }
    let mut pop_distance = Vec::new();
    c.f64_block(total, &mut pop_distance)?;
    let mut nearest = Vec::new();
    c.f64_block(total, &mut nearest)?;
    c.expect_empty()?;

    let mut samples = Vec::with_capacity(n);
    let mut offset = 0usize;
    for &k in &counts {
        let mut per_record = Vec::with_capacity(k);
        for j in offset..offset + k {
            let provider = u8::try_from(providers[j]).map_err(|_| {
                StoreError::Corrupt(format!(
                    "{context}: provider ordinal {} overflows u8",
                    providers[j]
                ))
            })?;
            per_record.push(StoreDohSample {
                provider,
                t_doh_ms: t_doh[j],
                t_dohr_ms: t_dohr[j],
                pop_index: pop_index[j],
                pop_distance_miles: pop_distance[j],
                nearest_pop_distance_miles: nearest[j],
            });
        }
        samples.push(per_record);
        offset += k;
    }
    Ok(samples)
}

// ------------------------------------------------------------------- do53

struct Do53Columns {
    values: Vec<Option<f64>>,
    source: Vec<u8>,
}

fn decode_do53(bytes: &[u8], n: usize, context: &str) -> Result<Do53Columns> {
    let mut c = Cursor::new(bytes, context);
    let bitmap = c.take(n.div_ceil(8), "do53 presence bitmap")?.to_vec();
    let mut values = Vec::with_capacity(n);
    for i in 0..n {
        let present = bitmap[i / 8] & (1 << (i % 8)) != 0;
        values.push(if present { Some(c.f64()?) } else { None });
    }
    let source_u32 = decode_rle_u32(&mut c, n, "do53_source")?;
    let mut source = Vec::with_capacity(n);
    for v in source_u32 {
        source.push(u8::try_from(v).map_err(|_| {
            StoreError::Corrupt(format!("{context}: do53 source ordinal {v} overflows u8"))
        })?);
    }
    c.expect_empty()?;
    Ok(Do53Columns { values, source })
}

// ------------------------------------------------------------- transports

fn decode_transports(
    bytes: &[u8],
    n: usize,
    context: &str,
) -> Result<Vec<Vec<StoreTransportSample>>> {
    let mut c = Cursor::new(bytes, context);
    let mut counts = Vec::with_capacity(n);
    let mut total = 0usize;
    for _ in 0..n {
        let k = c.len(MAX_SAMPLES_PER_RECORD, "transport sample count")?;
        counts.push(k);
        total += k;
    }
    let ordinal_u8 = |v: u32, what: &str| {
        u8::try_from(v)
            .map_err(|_| StoreError::Corrupt(format!("{context}: {what} ordinal {v} overflows u8")))
    };
    let transports = decode_rle_u32(&mut c, total, "transport")?;
    let providers = decode_rle_u32(&mut c, total, "transport provider")?;
    let mut cold = Vec::new();
    c.f64_block(total, &mut cold)?;
    let mut warm = Vec::new();
    c.f64_block(total, &mut warm)?;
    let mut resumed = Vec::new();
    c.f64_block(total, &mut resumed)?;
    let mut handshake = Vec::new();
    c.f64_block(total, &mut handshake)?;
    c.expect_empty()?;

    let mut samples = Vec::with_capacity(n);
    let mut offset = 0usize;
    for &k in &counts {
        let mut per_record = Vec::with_capacity(k);
        for j in offset..offset + k {
            per_record.push(StoreTransportSample {
                transport: ordinal_u8(transports[j], "transport")?,
                provider: ordinal_u8(providers[j], "transport provider")?,
                cold_ms: cold[j],
                warm_ms: warm[j],
                resumed_ms: resumed[j],
                handshake_ms: handshake[j],
            });
        }
        samples.push(per_record);
        offset += k;
    }
    Ok(samples)
}

// --------------------------------------------------------------- pageload

fn decode_pageload(bytes: &[u8], n: usize, context: &str) -> Result<Vec<Vec<StorePageSample>>> {
    let mut c = Cursor::new(bytes, context);
    let mut counts = Vec::with_capacity(n);
    let mut total = 0usize;
    for _ in 0..n {
        let k = c.len(MAX_SAMPLES_PER_RECORD, "page sample count")?;
        counts.push(k);
        total += k;
    }
    let ordinal_u8 = |v: u32, what: &str| {
        u8::try_from(v)
            .map_err(|_| StoreError::Corrupt(format!("{context}: {what} ordinal {v} overflows u8")))
    };
    let transports = decode_rle_u32(&mut c, total, "page transport")?;
    let providers = decode_rle_u32(&mut c, total, "page provider")?;
    let mut small_u32 = |what: &str| -> Result<Vec<u32>> {
        let mut col = Vec::with_capacity(total);
        for _ in 0..total {
            let v = c.u64()?;
            col.push(u32::try_from(v).map_err(|_| {
                StoreError::Corrupt(format!("{context}: {what} value {v} overflows u32"))
            })?);
        }
        Ok(col)
    };
    let domains = small_u32("page domains")?;
    let unique_names = small_u32("page unique_names")?;
    let depth = small_u32("page depth")?;
    let cold_hits = small_u32("page cold_cache_hits")?;
    let warm_hits = small_u32("page warm_cache_hits")?;
    let mut plt_cold = Vec::new();
    c.f64_block(total, &mut plt_cold)?;
    let mut plt_warm = Vec::new();
    c.f64_block(total, &mut plt_warm)?;
    c.expect_empty()?;

    let mut samples = Vec::with_capacity(n);
    let mut offset = 0usize;
    for &k in &counts {
        let mut per_record = Vec::with_capacity(k);
        for j in offset..offset + k {
            per_record.push(StorePageSample {
                transport: ordinal_u8(transports[j], "page transport")?,
                provider: ordinal_u8(providers[j], "page provider")?,
                domains: domains[j],
                unique_names: unique_names[j],
                depth: depth[j],
                plt_cold_ms: plt_cold[j],
                plt_warm_ms: plt_warm[j],
                cold_cache_hits: cold_hits[j],
                warm_cache_hits: warm_hits[j],
            });
        }
        samples.push(per_record);
        offset += k;
    }
    Ok(samples)
}

// ------------------------------------------------------------- timeseries

fn decode_timeseries(bytes: &[u8], n: usize, context: &str) -> Result<Vec<Vec<StoreWindowSample>>> {
    let mut c = Cursor::new(bytes, context);
    let mut counts = Vec::with_capacity(n);
    let mut total = 0usize;
    for _ in 0..n {
        let k = c.len(MAX_SAMPLES_PER_RECORD, "window sample count")?;
        counts.push(k);
        total += k;
    }
    let ordinal_u8 = |v: u32, what: &str| {
        u8::try_from(v)
            .map_err(|_| StoreError::Corrupt(format!("{context}: {what} ordinal {v} overflows u8")))
    };
    let windows = decode_rle_u32(&mut c, total, "window index")?;
    let providers = decode_rle_u32(&mut c, total, "window provider")?;
    let transports = decode_rle_u32(&mut c, total, "window transport")?;
    let mut small_u32 = |what: &str| -> Result<Vec<u32>> {
        let mut col = Vec::with_capacity(total);
        for _ in 0..total {
            let v = c.u64()?;
            col.push(u32::try_from(v).map_err(|_| {
                StoreError::Corrupt(format!("{context}: {what} value {v} overflows u32"))
            })?);
        }
        Ok(col)
    };
    let queries = small_u32("window queries")?;
    let successes = small_u32("window successes")?;
    let cache_lookups = small_u32("window cache_lookups")?;
    let cache_hits = small_u32("window cache_hits")?;
    let mut latency = Vec::new();
    c.f64_block(total, &mut latency)?;
    c.expect_empty()?;

    let mut samples = Vec::with_capacity(n);
    let mut offset = 0usize;
    for &k in &counts {
        let mut per_record = Vec::with_capacity(k);
        for j in offset..offset + k {
            per_record.push(StoreWindowSample {
                window: windows[j],
                provider: ordinal_u8(providers[j], "window provider")?,
                transport: ordinal_u8(transports[j], "window transport")?,
                queries: queries[j],
                successes: successes[j],
                latency_ms: latency[j],
                cache_lookups: cache_lookups[j],
                cache_hits: cache_hits[j],
            });
        }
        samples.push(per_record);
        offset += k;
    }
    Ok(samples)
}

// ------------------------------------------------------------ RLE helpers

/// Run-length encode a u32 column as (varint value, varint run) pairs,
/// prefixed by the pair count.
fn encode_rle_u32(out: &mut Vec<u8>, values: impl Iterator<Item = u32>) {
    let mut runs: Vec<(u32, u64)> = Vec::new();
    for v in values {
        match runs.last_mut() {
            Some((last, run)) if *last == v => *run += 1,
            _ => runs.push((v, 1)),
        }
    }
    put_u64(out, runs.len() as u64);
    for (v, run) in runs {
        put_u64(out, u64::from(v));
        put_u64(out, run);
    }
}

#[doc(hidden)]
pub fn decode_rle_u32(c: &mut Cursor<'_>, expected: usize, what: &str) -> Result<Vec<u32>> {
    let pairs = c.len(expected.max(1), what)?;
    let mut values = Vec::with_capacity(expected);
    for _ in 0..pairs {
        let v = c.u64()?;
        let v = u32::try_from(v)
            .map_err(|_| StoreError::Corrupt(format!("{what}: RLE value {v} overflows u32")))?;
        let run = c.len(expected - values.len(), what)?;
        values.extend(std::iter::repeat_n(v, run));
    }
    if values.len() != expected {
        return Err(StoreError::Corrupt(format!(
            "{what}: RLE runs sum to {} values, expected {expected}",
            values.len()
        )));
    }
    Ok(values)
}

/// Run-length encode a `[u8; 2]` column (ISO country codes).
fn encode_rle_pair(out: &mut Vec<u8>, values: impl Iterator<Item = [u8; 2]>) {
    let mut runs: Vec<([u8; 2], u64)> = Vec::new();
    for v in values {
        match runs.last_mut() {
            Some((last, run)) if *last == v => *run += 1,
            _ => runs.push((v, 1)),
        }
    }
    put_u64(out, runs.len() as u64);
    for (v, run) in runs {
        out.extend_from_slice(&v);
        put_u64(out, run);
    }
}

fn decode_rle_pair(c: &mut Cursor<'_>, expected: usize, what: &str) -> Result<Vec<[u8; 2]>> {
    let pairs = c.len(expected.max(1), what)?;
    let mut values = Vec::with_capacity(expected);
    for _ in 0..pairs {
        let bytes = c.take(2, what)?;
        let v = [bytes[0], bytes[1]];
        let run = c.len(expected - values.len(), what)?;
        values.extend(std::iter::repeat_n(v, run));
    }
    if values.len() != expected {
        return Err(StoreError::Corrupt(format!(
            "{what}: RLE runs sum to {} values, expected {expected}",
            values.len()
        )));
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(n: u64) -> Vec<StoreRecord> {
        (1..=n).map(StoreRecord::test_record).collect()
    }

    #[test]
    fn encode_decode_round_trips() {
        let records = batch(17);
        let bytes = encode_chunk(&records);
        let header: [u8; CHUNK_HEADER_LEN] = bytes[..CHUNK_HEADER_LEN].try_into().unwrap();
        let (count, len, crc, flags) = parse_header(&header, 0).unwrap();
        assert_eq!(count as usize, records.len());
        assert_eq!(flags, 0, "transport-free chunks set no flags");
        let payload = &bytes[CHUNK_HEADER_LEN..];
        assert_eq!(payload.len(), len);
        verify_checksum(payload, crc, 0).unwrap();
        let back = decode_chunk(count, flags, payload, 0).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn none_do53_and_empty_doh_round_trip() {
        let mut records = batch(3);
        records[1].do53_ms = None;
        records[1].do53_source = 1;
        records[2].doh.clear();
        let bytes = encode_chunk(&records);
        let header: [u8; CHUNK_HEADER_LEN] = bytes[..CHUNK_HEADER_LEN].try_into().unwrap();
        let (count, _, _, flags) = parse_header(&header, 0).unwrap();
        let back = decode_chunk(count, flags, &bytes[CHUNK_HEADER_LEN..], 0).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn transports_round_trip_behind_the_flag() {
        // A mixed batch: some records carry lifecycle samples, some do
        // not. One non-empty vector is enough to set the flag.
        let mut records = batch(5);
        records[1] = StoreRecord::test_record_with_transports(2);
        records[3] = StoreRecord::test_record_with_transports(4);
        let bytes = encode_chunk(&records);
        let header: [u8; CHUNK_HEADER_LEN] = bytes[..CHUNK_HEADER_LEN].try_into().unwrap();
        let (count, _, _, flags) = parse_header(&header, 0).unwrap();
        assert_eq!(flags, FLAG_TRANSPORTS);
        let back = decode_chunk(count, flags, &bytes[CHUNK_HEADER_LEN..], 0).unwrap();
        assert_eq!(back, records);
        assert_eq!(back[1].transports.len(), 2);
        assert!(back[0].transports.is_empty());
    }

    #[test]
    fn transport_free_chunks_are_byte_identical_to_version_1() {
        // The legacy byte-identity contract: a chunk whose records all
        // have empty transport vectors must encode exactly as the
        // pre-extension format did — flags 0 and four groups only.
        let records = batch(6);
        let with_empty_vecs = encode_chunk(&records);
        assert_eq!(with_empty_vecs[6], 0, "flags low byte");
        assert_eq!(with_empty_vecs[7], 0, "flags high byte");
        // Dropping the transports field entirely (simulated by the same
        // records) yields the same payload length as four groups.
        let header: [u8; CHUNK_HEADER_LEN] =
            with_empty_vecs[..CHUNK_HEADER_LEN].try_into().unwrap();
        let (count, _, _, flags) = parse_header(&header, 0).unwrap();
        let back = decode_chunk(count, flags, &with_empty_vecs[CHUNK_HEADER_LEN..], 0).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn pageload_round_trips_behind_the_flag() {
        // A mixed batch: some records carry page samples, some do not.
        // One non-empty vector is enough to set the flag.
        let mut records = batch(5);
        records[0] = StoreRecord::test_record_with_pages(1);
        records[4] = StoreRecord::test_record_with_pages(5);
        let bytes = encode_chunk(&records);
        let header: [u8; CHUNK_HEADER_LEN] = bytes[..CHUNK_HEADER_LEN].try_into().unwrap();
        let (count, _, _, flags) = parse_header(&header, 0).unwrap();
        assert_eq!(flags, FLAG_PAGELOAD);
        let back = decode_chunk(count, flags, &bytes[CHUNK_HEADER_LEN..], 0).unwrap();
        assert_eq!(back, records);
        assert_eq!(back[0].pages.len(), 2);
        assert!(back[1].pages.is_empty());
    }

    #[test]
    fn transports_and_pageload_coexist() {
        // Both flag-gated groups present at once: the transports group
        // precedes the pageload group and both round-trip.
        let mut records = batch(3);
        records[1] = StoreRecord::test_record_with_transports(2);
        records[1].pages = StoreRecord::test_record_with_pages(2).pages;
        let bytes = encode_chunk(&records);
        let header: [u8; CHUNK_HEADER_LEN] = bytes[..CHUNK_HEADER_LEN].try_into().unwrap();
        let (count, _, _, flags) = parse_header(&header, 0).unwrap();
        assert_eq!(flags, FLAG_TRANSPORTS | FLAG_PAGELOAD);
        let back = decode_chunk(count, flags, &bytes[CHUNK_HEADER_LEN..], 0).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn timeseries_round_trips_behind_the_flag() {
        // A mixed batch: some records carry windowed summaries, some do
        // not. One non-empty vector is enough to set the flag.
        let mut records = batch(5);
        records[0] = StoreRecord::test_record_with_windows(1);
        records[2] = StoreRecord::test_record_with_windows(3);
        let bytes = encode_chunk(&records);
        let header: [u8; CHUNK_HEADER_LEN] = bytes[..CHUNK_HEADER_LEN].try_into().unwrap();
        let (count, _, _, flags) = parse_header(&header, 0).unwrap();
        assert_eq!(flags, FLAG_TIMESERIES);
        let back = decode_chunk(count, flags, &bytes[CHUNK_HEADER_LEN..], 0).unwrap();
        assert_eq!(back, records);
        assert_eq!(back[0].windows.len(), 2);
        assert!(back[1].windows.is_empty());
    }

    #[test]
    fn all_three_flag_gated_groups_coexist() {
        // transports < pageload < timeseries in group order, all three
        // flag bits set, and every vector round-trips.
        let mut records = batch(3);
        records[1] = StoreRecord::test_record_with_transports(2);
        records[1].pages = StoreRecord::test_record_with_pages(2).pages;
        records[1].windows = StoreRecord::test_record_with_windows(2).windows;
        let bytes = encode_chunk(&records);
        let header: [u8; CHUNK_HEADER_LEN] = bytes[..CHUNK_HEADER_LEN].try_into().unwrap();
        let (count, _, _, flags) = parse_header(&header, 0).unwrap();
        assert_eq!(flags, FLAG_TRANSPORTS | FLAG_PAGELOAD | FLAG_TIMESERIES);
        let back = decode_chunk(count, flags, &bytes[CHUNK_HEADER_LEN..], 0).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn window_free_chunks_set_no_timeseries_flag() {
        // Enabling the timeseries code path must not disturb legacy,
        // transports-only or pageload-only chunk bytes: a window-free
        // chunk never sets the FLAG_TIMESERIES bit.
        let mut records = batch(4);
        records[1] = StoreRecord::test_record_with_transports(2);
        records[3] = StoreRecord::test_record_with_pages(4);
        let bytes = encode_chunk(&records);
        let flags = u16::from_le_bytes([bytes[6], bytes[7]]);
        assert_eq!(flags & FLAG_TIMESERIES, 0);
    }

    #[test]
    fn page_free_chunks_set_no_pageload_flag() {
        // Enabling the pageload code path must not disturb legacy or
        // transports-only chunk bytes: a page-free chunk never sets the
        // FLAG_PAGELOAD bit.
        let mut records = batch(4);
        records[2] = StoreRecord::test_record_with_transports(3);
        let bytes = encode_chunk(&records);
        let flags = u16::from_le_bytes([bytes[6], bytes[7]]);
        assert_eq!(flags & FLAG_PAGELOAD, 0);
    }

    #[test]
    fn record_count_beyond_the_payload_is_rejected() {
        // Four empty groups cannot hold even one record's geoloc columns.
        let err = decode_chunk(1 << 22, 0, &[0, 0, 0, 0], 2).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("chunk 2"), "{msg}");
        assert!(msg.contains("record count 4194304"), "{msg}");
    }

    #[test]
    fn unknown_flag_bits_are_rejected() {
        let records = batch(2);
        let mut bytes = encode_chunk(&records);
        bytes[6] |= 0x80;
        let header: [u8; CHUNK_HEADER_LEN] = bytes[..CHUNK_HEADER_LEN].try_into().unwrap();
        let err = parse_header(&header, 5).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("chunk 5"), "{msg}");
        assert!(msg.contains("unknown flag bits"), "{msg}");
    }

    #[test]
    fn rle_compresses_constant_columns() {
        // 200 records from one country (a shard's natural shape) encode
        // the country/provider/source columns as single runs; the same
        // records with alternating countries force a run per record.
        let constant = encode_chunk(&batch(200));
        let mut varied = batch(200);
        for (i, r) in varied.iter_mut().enumerate() {
            if i % 2 == 1 {
                r.country_iso = *b"US";
                r.maxmind_country = *b"US";
                r.country_index = 31;
            }
        }
        let varied = encode_chunk(&varied);
        assert!(
            constant.len() + 200 * 2 < varied.len(),
            "constant-country chunk {} bytes vs alternating {} bytes",
            constant.len(),
            varied.len()
        );
    }

    #[test]
    fn bad_magic_is_descriptive() {
        let records = batch(2);
        let mut bytes = encode_chunk(&records);
        bytes[0] ^= 0xFF;
        let header: [u8; CHUNK_HEADER_LEN] = bytes[..CHUNK_HEADER_LEN].try_into().unwrap();
        let err = parse_header(&header, 7).unwrap_err();
        assert!(err.to_string().contains("chunk 7"), "{err}");
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn future_version_rejected() {
        let records = batch(1);
        let mut bytes = encode_chunk(&records);
        bytes[4] = 0xFF;
        let header: [u8; CHUNK_HEADER_LEN] = bytes[..CHUNK_HEADER_LEN].try_into().unwrap();
        let err = parse_header(&header, 0).unwrap_err();
        assert!(err.to_string().contains("newer than supported"), "{err}");
    }

    #[test]
    fn checksum_mismatch_is_descriptive() {
        let records = batch(4);
        let bytes = encode_chunk(&records);
        let header: [u8; CHUNK_HEADER_LEN] = bytes[..CHUNK_HEADER_LEN].try_into().unwrap();
        let (_, _, crc, _) = parse_header(&header, 0).unwrap();
        let mut payload = bytes[CHUNK_HEADER_LEN..].to_vec();
        payload[5] ^= 0x01;
        let err = verify_checksum(&payload, crc, 3).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("chunk 3"), "{msg}");
        assert!(msg.contains("checksum mismatch"), "{msg}");
    }
}
