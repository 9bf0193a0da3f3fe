//! Chunk readers: the sequential [`ChunkReader`] and the parallel
//! [`fold_chunks`].
//!
//! [`ChunkReader`] iterates records straight off any [`Read`] without
//! ever materialising more than one decoded chunk — the reading-side
//! memory bound matching the writer's chunk budget.
//!
//! [`fold_chunks`] is its parallel counterpart: the calling thread reads
//! chunk frames sequentially (cheap — two reads per chunk), fans the
//! payloads out to decode workers that verify the CRC, decode the
//! columns and apply a caller-supplied `map`, and then folds the mapped
//! results **on the calling thread in canonical chunk order**. The
//! serial fold is what keeps derived analyses (GK sketches, streaming
//! moments) bit-identical to a serial scan at any thread count: merge
//! order never varies, only the decode work is concurrent.
//!
//! Both readers take each frame from one `read_frame`, so a corrupt or
//! truncated stream fails with the same ordinal and message in either;
//! when several chunks fail, the earliest ordinal wins.

use crate::chunk::{decode_chunk, parse_header, verify_checksum, CHUNK_HEADER_LEN};
use crate::record::StoreRecord;
use crate::{Result, StoreError};
use std::collections::{BTreeMap, VecDeque};
use std::io::Read;
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Condvar, Mutex};

/// Streams [`StoreRecord`]s from a chunk sequence.
///
/// The iterator yields `Result<StoreRecord>`; the first corrupt or
/// truncated chunk surfaces as an `Err` and ends the stream.
pub struct ChunkReader<R: Read> {
    source: R,
    pending: VecDeque<StoreRecord>,
    /// Payload scratch, reused across refills so a long scan stops
    /// allocating once it fits the largest payload.
    payload: Vec<u8>,
    /// Ordinal of the next chunk, for error context.
    next_chunk: u64,
    /// Set after an error or clean EOF; the iterator is fused.
    done: bool,
}

impl<R: Read> ChunkReader<R> {
    /// Wrap a byte source positioned at the first chunk.
    pub fn new(source: R) -> Self {
        ChunkReader {
            source,
            pending: VecDeque::new(),
            payload: Vec::new(),
            next_chunk: 0,
            done: false,
        }
    }

    /// Number of chunks fully decoded so far.
    pub fn chunks_read(&self) -> u64 {
        self.next_chunk
    }

    /// Read, verify and decode the next chunk into `pending`.
    /// Returns false on clean EOF.
    fn refill(&mut self) -> Result<bool> {
        let Some(frame) = read_frame(&mut self.source, &mut self.payload, self.next_chunk)? else {
            return Ok(false);
        };
        verify_checksum(&self.payload, frame.crc, self.next_chunk)?;
        let records = decode_chunk(
            frame.record_count,
            frame.flags,
            &self.payload,
            self.next_chunk,
        )?;
        self.pending.extend(records);
        self.next_chunk += 1;
        Ok(true)
    }
}

impl<R: Read> Iterator for ChunkReader<R> {
    type Item = Result<StoreRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        while self.pending.is_empty() {
            match self.refill() {
                Ok(true) => {}
                Ok(false) => {
                    self.done = true;
                    return None;
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        self.pending.pop_front().map(Ok)
    }
}

/// The header fields of one chunk whose payload [`read_frame`] read.
struct Frame {
    record_count: u32,
    flags: u16,
    crc: u32,
}

/// Read chunk `index`'s header and payload from `source`, replacing the
/// contents of `payload`. Returns `None` on a clean EOF before the
/// header. The payload is read through `take`, so `payload` grows only
/// with bytes actually present: a header that claims more than the
/// stream holds fails without allocating the claimed length.
fn read_frame<R: Read>(source: &mut R, payload: &mut Vec<u8>, index: u64) -> Result<Option<Frame>> {
    let mut header = [0u8; CHUNK_HEADER_LEN];
    match read_exact_or_eof(source, &mut header) {
        Ok(false) => return Ok(None),
        Ok(true) => {}
        Err(e) => {
            return Err(StoreError::Corrupt(format!(
                "chunk {index}: truncated header ({e})"
            )))
        }
    }
    let (record_count, payload_len, crc, flags) = parse_header(&header, index)?;
    payload.clear();
    let got = source
        .take(payload_len as u64)
        .read_to_end(payload)
        .map_err(|e| {
            StoreError::Corrupt(format!(
                "chunk {index}: truncated payload, wanted {payload_len} bytes ({e})"
            ))
        })?;
    if got < payload_len {
        return Err(StoreError::Corrupt(format!(
            "chunk {index}: truncated payload, wanted {payload_len} bytes (got {got})"
        )));
    }
    Ok(Some(Frame {
        record_count,
        flags,
        crc,
    }))
}

/// `read_exact`, but a clean EOF before the first byte returns Ok(false).
fn read_exact_or_eof<R: Read>(source: &mut R, buf: &mut [u8]) -> std::io::Result<bool> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let n = source.read(&mut buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(false);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("got {filled} of {} header bytes", buf.len()),
            ));
        }
        filled += n;
    }
    Ok(true)
}

/// Totals from one [`fold_chunks`] scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Chunks decoded and folded.
    pub chunks: u64,
}

/// Scan a chunk stream, decoding chunks on `threads` worker threads and
/// folding the mapped results in canonical chunk order.
///
/// `map` runs on the decode workers (it gets the chunk ordinal and the
/// decoded records — convert, pre-aggregate, or just pass through);
/// `fold` runs on the calling thread, invoked exactly once per chunk in
/// ascending ordinal order. `threads == 0` means one per core;
/// `threads == 1` decodes inline with zero thread overhead, and so does
/// any stream of a single chunk. Every thread count produces results —
/// and errors, down to the failing chunk's ordinal — identical to a
/// serial `ChunkReader` scan.
pub fn fold_chunks<R, T, M, F>(
    mut source: R,
    threads: usize,
    map: M,
    mut fold: F,
) -> Result<ReadStats>
where
    R: Read,
    T: Send,
    M: Fn(u64, Vec<StoreRecord>) -> Result<T> + Sync,
    F: FnMut(T) -> Result<()>,
{
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    let mut payload = Vec::new();
    let mut seq = 0u64;
    // The first chunk decodes inline; workers start at the second, the
    // first point where there is decode work to overlap. A one-chunk
    // stream, or one that fails in its first chunk, never starts them.
    while let Some(frame) = read_frame(&mut source, &mut payload, seq)? {
        if threads > 1 && seq > 0 {
            let first = DecodeJob {
                seq,
                frame,
                payload,
            };
            let chunks = fold_parallel(source, threads, first, &map, &mut fold)?;
            return Ok(ReadStats { chunks });
        }
        verify_checksum(&payload, frame.crc, seq)?;
        let records = decode_chunk(frame.record_count, frame.flags, &payload, seq)?;
        fold(map(seq, records)?)?;
        seq += 1;
    }
    Ok(ReadStats { chunks: seq })
}

/// The parallel tail of [`fold_chunks`], from `first` (already read) to
/// the end of `source`. Returns the total chunk count.
fn fold_parallel<R, T, M, F>(
    mut source: R,
    threads: usize,
    first: DecodeJob,
    map: &M,
    fold: &mut F,
) -> Result<u64>
where
    R: Read,
    T: Send,
    M: Fn(u64, Vec<StoreRecord>) -> Result<T> + Sync,
    F: FnMut(T) -> Result<()>,
{
    let (tx, rx) = sync_channel::<DecodeJob>(threads * 2);
    let rx = Mutex::new(rx);
    let slots: ResultChannel<T> = ResultChannel::new();
    let payload_pool: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| -> Result<u64> {
        for _ in 0..threads {
            scope.spawn(|| decode_loop(&rx, map, &slots, &payload_pool));
        }
        let mut submitted = first.seq;
        let mut next_fold = first.seq;
        // A scan error (truncated or malformed header/payload) must not
        // preempt a decode error in an *earlier* chunk, so it is staged
        // here and re-raised only after the outstanding folds drain.
        let mut scan_err: Option<StoreError> = None;
        let mut job = Some(first);
        while let Some(next) = job.take() {
            tx.send(next).expect("decode workers are running");
            submitted += 1;
            // Opportunistically fold whatever is ready, in order.
            while let Some(result) = slots.try_take(next_fold) {
                fold(result?)?;
                next_fold += 1;
            }
            let mut payload = payload_pool
                .lock()
                .expect("a decode worker panicked")
                .pop()
                .unwrap_or_default();
            match read_frame(&mut source, &mut payload, submitted) {
                Ok(None) => {}
                Ok(Some(frame)) => {
                    job = Some(DecodeJob {
                        seq: submitted,
                        frame,
                        payload,
                    })
                }
                Err(e) => scan_err = Some(e),
            }
        }
        drop(tx); // lets the workers drain and exit
        while next_fold < submitted {
            fold(slots.wait_take(next_fold)?)?;
            next_fold += 1;
        }
        scan_err.map_or(Ok(submitted), Err)
    })
}

/// One raw chunk on its way to a decode worker.
struct DecodeJob {
    seq: u64,
    frame: Frame,
    payload: Vec<u8>,
}

/// Decode results keyed by chunk ordinal, drained in order by the fold.
struct ResultChannel<T> {
    slots: Mutex<BTreeMap<u64, Result<T>>>,
    cv: Condvar,
}

impl<T> ResultChannel<T> {
    fn new() -> Self {
        ResultChannel {
            slots: Mutex::new(BTreeMap::new()),
            cv: Condvar::new(),
        }
    }

    fn put(&self, seq: u64, result: Result<T>) {
        self.slots
            .lock()
            .expect("a decode worker panicked")
            .insert(seq, result);
        self.cv.notify_all();
    }

    fn try_take(&self, seq: u64) -> Option<Result<T>> {
        self.slots
            .lock()
            .expect("a decode worker panicked")
            .remove(&seq)
    }

    fn wait_take(&self, seq: u64) -> Result<T> {
        let mut slots = self.slots.lock().expect("a decode worker panicked");
        loop {
            if let Some(result) = slots.remove(&seq) {
                return result;
            }
            slots = self.cv.wait(slots).expect("a decode worker panicked");
        }
    }
}

fn decode_loop<T, M>(
    rx: &Mutex<Receiver<DecodeJob>>,
    map: &M,
    slots: &ResultChannel<T>,
    payload_pool: &Mutex<Vec<Vec<u8>>>,
) where
    M: Fn(u64, Vec<StoreRecord>) -> Result<T>,
{
    loop {
        let job = match rx.lock().expect("a decode worker panicked").recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        let DecodeJob {
            seq,
            frame,
            payload,
        } = job;
        let result = verify_checksum(&payload, frame.crc, seq)
            .and_then(|()| decode_chunk(frame.record_count, frame.flags, &payload, seq))
            .and_then(|records| map(seq, records));
        payload_pool
            .lock()
            .expect("a decode worker panicked")
            .push(payload);
        slots.put(seq, result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::ChunkWriter;

    fn encoded(n: u64, budget: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = ChunkWriter::new(&mut out, budget);
        for id in 1..=n {
            w.push(StoreRecord::test_record(id)).unwrap();
        }
        w.finish().unwrap();
        out
    }

    #[test]
    fn reads_across_chunk_boundaries_in_order() {
        let bytes = encoded(23, 5);
        let mut reader = ChunkReader::new(&bytes[..]);
        let ids: Vec<u64> = reader.by_ref().map(|r| r.unwrap().client_id).collect();
        assert_eq!(ids, (1..=23).collect::<Vec<_>>());
        assert_eq!(reader.chunks_read(), 5);
    }

    #[test]
    fn empty_stream_yields_nothing() {
        let mut reader = ChunkReader::new(&[][..]);
        assert!(reader.next().is_none());
        assert!(reader.next().is_none(), "iterator is fused");
    }

    #[test]
    fn truncated_stream_errors_once_then_fuses() {
        let mut bytes = encoded(8, 4);
        bytes.truncate(bytes.len() - 3);
        let results: Vec<_> = ChunkReader::new(&bytes[..]).collect();
        // First chunk decodes; the second fails exactly once.
        assert_eq!(results.len(), 5);
        assert!(results[..4].iter().all(|r| r.is_ok()));
        let err = results[4].as_ref().unwrap_err().to_string();
        assert!(err.contains("chunk 1"), "{err}");
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn flipped_payload_byte_is_caught_by_checksum() {
        let mut bytes = encoded(6, 6);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        let results: Vec<_> = ChunkReader::new(&bytes[..]).collect();
        assert_eq!(results.len(), 1);
        let err = results[0].as_ref().unwrap_err().to_string();
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn fold_chunks_matches_serial_order_at_any_thread_count() {
        let bytes = encoded(83, 6);
        for threads in [1, 2, 8] {
            let mut ids = Vec::new();
            let stats = fold_chunks(
                &bytes[..],
                threads,
                |_, records| Ok(records),
                |records: Vec<StoreRecord>| {
                    ids.extend(records.iter().map(|r| r.client_id));
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(stats.chunks, 14); // 13×6 + 5
            assert_eq!(ids, (1..=83).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn fold_chunks_reports_the_corrupt_chunk_ordinal() {
        // Flip a byte in the middle of the stream: the error must name
        // the same chunk a serial scan blames, at every thread count.
        let mut bytes = encoded(40, 5);
        let offset = bytes.len() * 5 / 8; // lands inside a middle chunk
        bytes[offset] ^= 0x20;
        let serial_err = fold_chunks(&bytes[..], 1, |_, r| Ok(r), |_| Ok(()))
            .unwrap_err()
            .to_string();
        for threads in [2, 8] {
            let err = fold_chunks(&bytes[..], threads, |_, r| Ok(r), |_| Ok(()))
                .unwrap_err()
                .to_string();
            assert_eq!(err, serial_err, "threads={threads}");
        }
    }

    #[test]
    fn fold_chunks_truncated_stream_errors_like_the_serial_reader() {
        let mut bytes = encoded(20, 4);
        bytes.truncate(bytes.len() - 3);
        for threads in [1, 4] {
            let mut folded = 0usize;
            let err = fold_chunks(
                &bytes[..],
                threads,
                |_, r| Ok(r.len()),
                |n| {
                    folded += n;
                    Ok(())
                },
            )
            .unwrap_err()
            .to_string();
            assert!(err.contains("chunk 4"), "threads={threads}: {err}");
            assert!(err.contains("truncated"), "threads={threads}: {err}");
            assert_eq!(folded, 16, "complete chunks still fold before the error");
        }
    }

    #[test]
    fn fold_errors_stop_the_scan() {
        let bytes = encoded(50, 5);
        let mut seen = 0u64;
        let err = fold_chunks(
            &bytes[..],
            4,
            |seq, _| Ok(seq),
            |seq| {
                seen += 1;
                if seq >= 3 {
                    Err(StoreError::Corrupt("fold says stop".into()))
                } else {
                    Ok(())
                }
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("fold says stop"), "{err}");
        assert_eq!(seen, 4, "folds run in order up to the failure");
    }
}
