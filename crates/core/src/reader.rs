//! Bounded-memory streaming from any [`std::io::Read`] source.
//!
//! The paper notes that the streaming engines' "memory consumption is
//! actually configurable by adjusting the input buffer size". This module
//! delivers that: [`ChunkedRecords`] pulls bytes from a reader into a
//! recycled buffer, locates record boundaries incrementally (with the same
//! bit-parallel counting pairing the engine uses), and hands out one
//! complete record at a time. Peak memory is `max(buffer_size, largest
//! record)` — independent of the stream length.
//!
//! # Degraded input
//!
//! Real sources fail in ways a well-formed-NDJSON benchmark never does, and
//! the reader confronts each deliberately:
//!
//! * **Transient I/O errors** — [`ErrorKind::Interrupted`] is always
//!   retried (per POSIX it means "nothing happened"); `WouldBlock` and
//!   `TimedOut` are retried up to a configurable [`RetryPolicy`] budget
//!   with linear backoff before propagating.
//! * **Resource limits** — a [`ResourceLimits`] attached with
//!   [`ChunkedRecords::limits`] caps the size of one record and of the
//!   reader's buffer, turning a never-closing record into a typed
//!   [`ReadRecordError::Limit`] instead of unbounded memory growth.
//! * **Resynchronization** — after any record-level error the caller may
//!   invoke [`ChunkedRecords::resync`] to skip forward to the next
//!   newline-delimited record boundary and keep consuming the stream,
//!   receiving the global byte span that was given up on.
//!
//! [`ErrorKind::Interrupted`]: std::io::ErrorKind::Interrupted

use std::io::{ErrorKind, Read};
use std::sync::Arc;
use std::time::Duration;

use simdbits::{BlockBitmaps, Classifier, BLOCK};

use crate::cancel::CancellationToken;
use crate::cursor::find_depth_zero;
use crate::error::StreamError;
use crate::limits::{LimitExceeded, ResourceLimits};
use crate::metrics::Metrics;
use crate::records::{find_newline, RecordSplitter};

/// Default initial buffer capacity (64 KiB).
pub const DEFAULT_BUFFER: usize = 64 * 1024;

/// Retry budget for transient I/O errors (`WouldBlock`, `TimedOut`).
///
/// [`ErrorKind::Interrupted`] is *always* retried regardless of this policy
/// — POSIX semantics guarantee no bytes were transferred — and does not
/// consume the budget. The default policy retries nothing else.
///
/// [`ErrorKind::Interrupted`]: std::io::ErrorKind::Interrupted
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How many times a transient error may be retried before propagating.
    pub max_retries: u32,
    /// Base sleep between retries; attempt `n` sleeps `n × backoff`
    /// (linear backoff). `Duration::ZERO` (the default) never sleeps.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// No transient-error retries (`Interrupted` is still always retried).
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff: Duration::ZERO,
        }
    }

    /// Retries transient errors up to `max_retries` times, no backoff.
    pub fn new(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            backoff: Duration::ZERO,
        }
    }

    /// Sets the base backoff between retries (builder-style).
    pub fn backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }
}

/// Error from chunked streaming: I/O, JSON structure, or a resource limit.
#[derive(Debug)]
pub enum ReadRecordError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// A record is structurally malformed (e.g. never closes by stream end).
    Stream(StreamError),
    /// A record tripped a [`ResourceLimits`] guard.
    Limit(LimitExceeded),
}

impl std::fmt::Display for ReadRecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadRecordError::Io(e) => write!(f, "i/o error: {e}"),
            ReadRecordError::Stream(e) => write!(f, "stream error: {e}"),
            ReadRecordError::Limit(e) => write!(f, "resource limit exceeded: {e}"),
        }
    }
}

impl std::error::Error for ReadRecordError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadRecordError::Io(e) => Some(e),
            ReadRecordError::Stream(e) => Some(e),
            ReadRecordError::Limit(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ReadRecordError {
    fn from(e: std::io::Error) -> Self {
        ReadRecordError::Io(e)
    }
}

impl From<StreamError> for ReadRecordError {
    fn from(e: StreamError) -> Self {
        ReadRecordError::Stream(e)
    }
}

impl From<LimitExceeded> for ReadRecordError {
    fn from(e: LimitExceeded) -> Self {
        ReadRecordError::Limit(e)
    }
}

/// Boundary scan of a container or string record that was still open at
/// the end of the buffered data, carried across refills so each byte of a
/// long record is classified once, not once per refill.
#[derive(Debug)]
struct OpenScan {
    /// Global offset of the record's first byte.
    start: u64,
    /// Record bytes classified so far (whole blocks).
    scanned: usize,
    /// Unclosed containers (or the open string) after `scanned` bytes.
    depth: u32,
    /// String and escape state after `scanned` bytes.
    cls: Classifier,
}

impl OpenScan {
    /// The openers and closers that pair up for a record starting with
    /// `kind`: its own bracket type (as the splitter counts them), or, for
    /// a string, only the closing quote.
    fn pairs(kind: u8, bm: &BlockBitmaps) -> (u64, u64) {
        match kind {
            b'{' => (bm.lbrace, bm.rbrace),
            b'[' => (bm.lbracket, bm.rbracket),
            _ => (0, bm.quote),
        }
    }
}

/// Pulls complete JSON records out of a reader with bounded memory.
///
/// # Example
///
/// ```
/// use jsonski::{ChunkedRecords, JsonSki};
///
/// let source: &[u8] = b"{\"a\": 1}\n{\"a\": 2}\n{\"b\": 3}\n";
/// let query = JsonSki::compile("$.a")?;
/// let mut hits = 0;
/// let mut records = ChunkedRecords::with_buffer_size(source, 16); // tiny buffer
/// while let Some(record) = records.next_record()? {
///     hits += query.count(record)?;
/// }
/// assert_eq!(hits, 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ChunkedRecords<R> {
    source: R,
    buf: Vec<u8>,
    /// Bytes `0..filled` of `buf` are valid stream data.
    filled: usize,
    /// Bytes `0..consumed` have already been handed out as records.
    consumed: usize,
    chunk: usize,
    eof: bool,
    /// Global stream offset of `buf[0]` (bytes discarded before the
    /// buffer's current contents), for resync span reporting.
    base: u64,
    limits: ResourceLimits,
    retry: RetryPolicy,
    metrics: Option<Arc<Metrics>>,
    cancel: Option<CancellationToken>,
    /// Buffer-coordinate span of a complete record that was rejected by a
    /// limit; [`resync`](Self::resync) skips exactly these bytes.
    pending_skip: Option<(usize, usize)>,
    /// The carried scan of the current record, once a split attempt found
    /// it still open; cleared whenever `consumed` moves.
    open: Option<OpenScan>,
    /// Bytes examined by record-boundary scans so far.
    scanned_bytes: u64,
}

impl<R: Read> ChunkedRecords<R> {
    /// Streams records from `source` with the default buffer size.
    pub fn new(source: R) -> Self {
        Self::with_buffer_size(source, DEFAULT_BUFFER)
    }

    /// Streams records with a caller-chosen refill granularity. The buffer
    /// still grows transiently when a single record exceeds it (up to
    /// [`ResourceLimits::max_buffer_bytes`]).
    pub fn with_buffer_size(source: R, chunk: usize) -> Self {
        ChunkedRecords {
            source,
            buf: Vec::new(),
            filled: 0,
            consumed: 0,
            chunk: chunk.max(16),
            eof: false,
            base: 0,
            limits: ResourceLimits::default(),
            retry: RetryPolicy::default(),
            metrics: None,
            cancel: None,
            pending_skip: None,
            open: None,
            scanned_bytes: 0,
        }
    }

    /// Declares that the stream does not start at byte 0: `base` is the
    /// global offset of the reader's first byte (builder-style). Used when
    /// resuming from a checkpoint, so resync spans and
    /// [`consumed_offset`](Self::consumed_offset) keep reporting
    /// whole-stream coordinates.
    pub fn start_offset(mut self, base: u64) -> Self {
        self.base = base;
        self
    }

    /// Attaches a cooperative cancellation token (builder-style): when it
    /// trips, [`next_record`](Self::next_record) reports a clean end of
    /// stream at the next record boundary instead of reading further.
    pub fn cancel_token(mut self, token: CancellationToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The global stream offset just past the last byte handed out (as a
    /// record or a resynchronized span): the offset a checkpoint can
    /// safely restart from.
    pub fn consumed_offset(&self) -> u64 {
        self.base + self.consumed as u64
    }

    /// Sets the resource limits enforced while reading (builder-style).
    pub fn limits(mut self, limits: ResourceLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Sets the transient-I/O retry policy (builder-style).
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attaches a metrics registry; the reader records I/O retries and
    /// truncated final records. (Resynchronization is recorded by whoever
    /// drives [`resync`](Self::resync) — e.g. [`Pipeline`](crate::Pipeline)
    /// — so the counts are not doubled.)
    pub fn metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Returns the next complete record, or `None` at end of stream.
    ///
    /// The returned slice borrows the internal buffer and is valid until the
    /// next call (a lending iterator, hence no `Iterator` impl).
    ///
    /// # Errors
    ///
    /// [`ReadRecordError`] on I/O failure, an unterminated final record, or
    /// a record that trips a [`ResourceLimits`] guard. Record-level errors
    /// are sticky until [`resync`](Self::resync) is called; I/O errors are
    /// not recoverable.
    pub fn next_record(&mut self) -> Result<Option<&[u8]>, ReadRecordError> {
        if self
            .cancel
            .as_ref()
            .is_some_and(CancellationToken::is_cancelled)
        {
            // A cancelled reader looks like a cleanly ended stream: the
            // bytes up to `consumed_offset` were fully handed out, nothing
            // after them was touched.
            return Ok(None);
        }
        loop {
            // Try to find one complete record in the unconsumed region.
            if let Some(span) = self.try_parse_one()? {
                let (s, e) = span;
                if e - s > self.limits.max_record_bytes {
                    // The record is complete, so resync can skip it
                    // precisely rather than hunting for a newline.
                    self.pending_skip = Some((s, e));
                    return Err(LimitExceeded::RecordBytes {
                        len: e - s,
                        limit: self.limits.max_record_bytes,
                    }
                    .into());
                }
                self.consumed = e;
                self.open = None;
                return Ok(Some(&self.buf[s..e]));
            }
            if self.eof {
                // No record found and nothing more to read: either clean end
                // (only whitespace left) or an unterminated record, which
                // try_parse_one already diagnosed.
                return Ok(None);
            }
            // A record still open after this many buffered bytes can never
            // be accepted; reject it before buffering more of it.
            let pending = self.filled - self.consumed;
            if pending > self.limits.max_record_bytes {
                return Err(LimitExceeded::RecordBytes {
                    len: pending,
                    limit: self.limits.max_record_bytes,
                }
                .into());
            }
            self.refill()?;
        }
    }

    /// Skips forward to the next record boundary after an error, returning
    /// the global byte span `(start, end)` that was abandoned, or `None`
    /// when the stream is exhausted with nothing to skip.
    ///
    /// A limit-rejected *complete* record is skipped precisely. Otherwise
    /// the reader discards buffered data while scanning for the next raw
    /// `\n` (a sound boundary for newline-delimited streams, since an
    /// unescaped newline cannot occur inside a valid JSON string), so
    /// memory stays bounded even while skipping an arbitrarily long broken
    /// record.
    ///
    /// # Errors
    ///
    /// Only I/O errors: resynchronization itself cannot hit record-level
    /// errors.
    pub fn resync(&mut self) -> Result<Option<(u64, u64)>, ReadRecordError> {
        self.open = None;
        if let Some((s, e)) = self.pending_skip.take() {
            let span = (self.base + s as u64, self.base + e as u64);
            self.consumed = e;
            return Ok(Some(span));
        }
        // Step over separator whitespace first, so the scan anchors at the
        // broken record itself — otherwise the newline that *ended the
        // previous record* would satisfy the search and no progress would
        // be made.
        loop {
            while self.consumed < self.filled
                && matches!(self.buf[self.consumed], b' ' | b'\t' | b'\n' | b'\r')
            {
                self.consumed += 1;
            }
            if self.consumed < self.filled || self.eof {
                break;
            }
            self.refill()?;
        }
        let start = self.base + self.consumed as u64;
        loop {
            let tail = &self.buf[self.consumed..self.filled];
            if let Some(i) = find_newline(tail) {
                self.consumed += i + 1;
                let end = self.base + self.consumed as u64;
                return Ok((end > start).then_some((start, end)));
            }
            // No newline buffered: everything here belongs to the broken
            // region. Drop it outright so skipping stays bounded-memory.
            self.base += self.filled as u64;
            self.filled = 0;
            self.consumed = 0;
            if self.eof {
                let end = self.base;
                return Ok((end > start).then_some((start, end)));
            }
            self.refill()?;
        }
    }

    /// Attempts to split one record out of `buf[consumed..filled]`.
    /// `Ok(None)` means "need more data" (or clean end at EOF).
    fn try_parse_one(&mut self) -> Result<Option<(usize, usize)>, ReadRecordError> {
        // A record found open by an earlier attempt continues its carried
        // scan over the new bytes only. At EOF the splitter below gives the
        // exact diagnosis of the unterminated record instead.
        if let Some(open) = &self.open {
            if !self.eof {
                let s = (open.start - self.base) as usize;
                return Ok(self.scan_open(s).map(|e| (s, e)));
            }
        }
        // The splitter runs on the unconsumed tail; spans are offset back
        // into buffer coordinates.
        let tail = &self.buf[self.consumed..self.filled];
        let mut tail_splitter = RecordSplitter::new(tail);
        let attempt = tail_splitter.next();
        let examined = match &attempt {
            Some(Ok((_, e))) => *e,
            _ => tail.len(),
        };
        self.scanned_bytes += examined as u64;
        match attempt {
            None => Ok(None), // only whitespace (or empty)
            Some(Ok((s, e))) => {
                // A record that touches the end of the buffered data might
                // continue in the unread part of the stream (e.g. the number
                // `12` could be a prefix of `123`). Only containers and
                // strings are self-delimiting; refill and retry otherwise.
                if e == tail.len() && !self.eof && !matches!(tail[s], b'{' | b'[' | b'"') {
                    return Ok(None);
                }
                Ok(Some((self.consumed + s, self.consumed + e)))
            }
            Some(Err(err)) => {
                if self.eof {
                    // Truly unterminated: the stream ended mid-record.
                    if let Some(m) = &self.metrics {
                        m.record_truncated_record();
                    }
                    Err(err.into())
                } else {
                    // The record continues past the buffered bytes: carry
                    // its scan from here on. (Only containers and strings
                    // can be open; a scalar ends at whitespace or EOF.)
                    let s = tail
                        .iter()
                        .position(|b| !matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
                        .expect("an open record has a first byte");
                    self.open = Some(OpenScan {
                        start: self.base + (self.consumed + s) as u64,
                        scanned: 0,
                        depth: 1,
                        cls: Classifier::new(),
                    });
                    Ok(None)
                }
            }
        }
    }

    /// Advances the carried scan of the open record starting at buffer
    /// offset `s` over the bytes buffered since the last attempt; returns
    /// the record's end once it is buffered. The pairing is the splitter's
    /// own (`find_depth_zero` over in-string-masked bitmaps), so the end
    /// found is the one a fresh split of the tail would find.
    fn scan_open(&mut self, s: usize) -> Option<usize> {
        let scan = self.open.as_mut().expect("an open record is being scanned");
        let data = &self.buf[s..self.filled];
        let kind = data[0];
        // The first byte opens the record (depth 1); only what follows
        // can close it.
        let first = |scanned: usize| if scanned == 0 { !1u64 } else { u64::MAX };
        while scan.scanned + BLOCK <= data.len() {
            let block = data[scan.scanned..scan.scanned + BLOCK]
                .try_into()
                .expect("a whole block");
            let (opens, closes) = OpenScan::pairs(kind, &scan.cls.classify(block));
            let keep = first(scan.scanned);
            let (opens, closes) = (opens & keep, closes & keep);
            self.scanned_bytes += BLOCK as u64;
            if let Some(bit) = find_depth_zero(opens, closes, scan.depth) {
                return Some(s + scan.scanned + bit as usize + 1);
            }
            scan.depth = scan.depth + opens.count_ones() - closes.count_ones();
            scan.scanned += BLOCK;
        }
        // The partial last block is classified on a copy of the carried
        // state: it is classified for real once it is whole.
        let rest = &data[scan.scanned..];
        if rest.is_empty() {
            return None;
        }
        self.scanned_bytes += rest.len() as u64;
        let (opens, closes) = OpenScan::pairs(kind, &scan.cls.clone().classify_tail(rest));
        let keep = first(scan.scanned);
        find_depth_zero(opens & keep, closes & keep, scan.depth)
            .map(|bit| s + scan.scanned + bit as usize + 1)
    }

    /// Reads more bytes, first compacting consumed data to the front.
    fn refill(&mut self) -> Result<(), ReadRecordError> {
        if self.consumed > 0 {
            self.buf.copy_within(self.consumed..self.filled, 0);
            self.filled -= self.consumed;
            self.base += self.consumed as u64;
            self.consumed = 0;
        }
        if self.buf.len() < self.filled + self.chunk {
            let needed = self.filled + self.chunk;
            if needed > self.limits.max_buffer_bytes {
                return Err(LimitExceeded::BufferBytes {
                    needed,
                    limit: self.limits.max_buffer_bytes,
                }
                .into());
            }
            self.buf.resize(needed, 0);
        }
        let n = self.read_with_retry()?;
        if n == 0 {
            self.eof = true;
        }
        self.filled += n;
        Ok(())
    }

    /// One `read` into the free tail of the buffer, absorbing transient
    /// errors: `Interrupted` unconditionally, `WouldBlock`/`TimedOut` up to
    /// the [`RetryPolicy`] budget with linear backoff.
    fn read_with_retry(&mut self) -> Result<usize, std::io::Error> {
        let mut attempts = 0u32;
        loop {
            match self.source.read(&mut self.buf[self.filled..]) {
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == ErrorKind::Interrupted => {
                    if let Some(m) = &self.metrics {
                        m.record_io_retry();
                    }
                }
                Err(e)
                    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
                        && attempts < self.retry.max_retries =>
                {
                    attempts += 1;
                    if let Some(m) = &self.metrics {
                        m.record_io_retry();
                    }
                    if !self.retry.backoff.is_zero() {
                        std::thread::sleep(self.retry.backoff * attempts);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Current buffer capacity (for memory accounting in tests/benches).
    pub fn buffer_capacity(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, FaultyReader};

    fn collect_records(input: &[u8], chunk: usize) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut r = ChunkedRecords::with_buffer_size(input, chunk);
        while let Some(rec) = r.next_record().unwrap() {
            out.push(rec.to_vec());
        }
        out
    }

    #[test]
    fn small_buffer_still_finds_all_records() {
        let mut input = Vec::new();
        let mut expected = Vec::new();
        for i in 0..40 {
            let rec = format!("{{\"i\": {i}, \"pad\": [\"{}\", {i}]}}", "x".repeat(i));
            expected.push(rec.clone().into_bytes());
            input.extend_from_slice(rec.as_bytes());
            input.push(b'\n');
        }
        for chunk in [16, 17, 64, 1 << 20] {
            assert_eq!(collect_records(&input, chunk), expected, "chunk {chunk}");
        }
    }

    #[test]
    fn record_larger_than_buffer_grows_transiently() {
        let big = format!("{{\"k\": \"{}\"}}", "y".repeat(5000));
        let input = format!("{big}\n{{\"a\": 1}}\n");
        let got = collect_records(input.as_bytes(), 32);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], big.as_bytes());
        assert_eq!(got[1], br#"{"a": 1}"#);
    }

    #[test]
    fn trailing_number_is_not_truncated() {
        // `123` must not be emitted as `12` when the buffer boundary falls
        // mid-number.
        let input = b"1 22 333 4444";
        let got = collect_records(input, 2);
        assert_eq!(
            got,
            vec![
                b"1".to_vec(),
                b"22".to_vec(),
                b"333".to_vec(),
                b"4444".to_vec()
            ]
        );
    }

    #[test]
    fn strings_spanning_refills() {
        let s = format!("\"{}\" \"b\"", "a".repeat(100));
        let got = collect_records(s.as_bytes(), 8);
        assert_eq!(got.len(), 2);
        assert_eq!(got[1], b"\"b\"");
    }

    #[test]
    fn unterminated_final_record_errors() {
        let mut r = ChunkedRecords::with_buffer_size(&br#"{"a": 1} {"b": "#[..], 8);
        assert!(r.next_record().unwrap().is_some());
        assert!(matches!(r.next_record(), Err(ReadRecordError::Stream(_))));
    }

    #[test]
    fn empty_and_blank_streams() {
        assert!(collect_records(b"", 16).is_empty());
        assert!(collect_records(b"  \n \t ", 16).is_empty());
    }

    #[test]
    fn agrees_with_in_memory_splitter_on_generated_data() {
        // Differential check against the all-in-memory splitter.
        let mut input = Vec::new();
        for i in 0..200 {
            input.extend_from_slice(
                format!("{{\"id\": {i}, \"vals\": [{i}, {{\"s\": \"x{{y\"}}]}}\n").as_bytes(),
            );
        }
        let spans = crate::split_records(&input).unwrap();
        let expected: Vec<Vec<u8>> = spans.iter().map(|&(s, e)| input[s..e].to_vec()).collect();
        assert_eq!(collect_records(&input, 37), expected);
    }

    #[test]
    fn error_types_are_displayable() {
        let e = ReadRecordError::Io(std::io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
        let e = ReadRecordError::Stream(StreamError::Unbalanced { pos: 3 });
        assert!(e.to_string().contains("3"));
        assert!(std::error::Error::source(&e).is_some());
        let e = ReadRecordError::Limit(LimitExceeded::RecordBytes { len: 9, limit: 4 });
        assert!(e.to_string().contains("max_record_bytes"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn oversized_complete_record_is_rejected_then_skipped_precisely() {
        let input = b"{\"a\": 1}\n{\"pad\": \"xxxxxxxxxxxxxxxxxxxxxxxx\"}\n{\"a\": 2}\n";
        let mut r = ChunkedRecords::with_buffer_size(&input[..], 1 << 12)
            .limits(ResourceLimits::default().max_record_bytes(16));
        assert_eq!(r.next_record().unwrap().unwrap(), b"{\"a\": 1}");
        let err = r.next_record().unwrap_err();
        assert!(
            matches!(
                err,
                ReadRecordError::Limit(LimitExceeded::RecordBytes { len: 35, limit: 16 })
            ),
            "{err}"
        );
        let span = r.resync().unwrap().unwrap();
        assert_eq!(&input[span.0 as usize..span.1 as usize], &input[9..44]);
        assert_eq!(r.next_record().unwrap().unwrap(), b"{\"a\": 2}");
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn never_closing_record_hits_cap_with_bounded_memory() {
        // A record that never closes, followed by a good one: the reader
        // must reject it once the cap is hit, then resync past it without
        // its buffer ever holding the whole broken record.
        let mut input = b"{\"open\": [".to_vec();
        for i in 0..3000 {
            input.extend_from_slice(format!("{i}, ").as_bytes());
        }
        input.extend_from_slice(b"\n{\"a\": 7}\n");
        let mut r = ChunkedRecords::with_buffer_size(&input[..], 64)
            .limits(ResourceLimits::default().max_record_bytes(512));
        let err = r.next_record().unwrap_err();
        assert!(matches!(
            err,
            ReadRecordError::Limit(LimitExceeded::RecordBytes { .. })
        ));
        let span = r.resync().unwrap().unwrap();
        assert_eq!(span.0, 0);
        assert!(r.buffer_capacity() < 2048, "buffer must stay bounded");
        assert_eq!(r.next_record().unwrap().unwrap(), b"{\"a\": 7}");
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn buffer_cap_rejects_instead_of_growing() {
        let big = format!("{{\"k\": \"{}\"}}", "y".repeat(500));
        let mut r = ChunkedRecords::with_buffer_size(big.as_bytes(), 64)
            .limits(ResourceLimits::default().max_buffer_bytes(128));
        let err = r.next_record().unwrap_err();
        assert!(matches!(
            err,
            ReadRecordError::Limit(LimitExceeded::BufferBytes { .. })
        ));
        assert!(r.buffer_capacity() <= 128);
    }

    #[test]
    fn resync_spans_use_global_offsets() {
        // Two broken records far enough apart that the buffer is compacted
        // between them: spans must still be stream-global.
        let mut input = Vec::new();
        for i in 0..50 {
            input.extend_from_slice(format!("{{\"i\": {i}}}\n").as_bytes());
        }
        let bad_at = input.len();
        input.extend_from_slice(b"{\"bad\": \n");
        input.extend_from_slice(b"{\"a\": 1}\n");
        let mut r = ChunkedRecords::with_buffer_size(&input[..], 16)
            .limits(ResourceLimits::default().max_record_bytes(64));
        let mut good = 0;
        let mut spans = Vec::new();
        loop {
            match r.next_record() {
                Ok(Some(_)) => good += 1,
                Ok(None) => break,
                Err(_) => spans.push(r.resync().unwrap().unwrap()),
            }
        }
        assert_eq!(good, 51);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0], (bad_at as u64, bad_at as u64 + 9));
    }

    #[test]
    fn interrupted_reads_are_always_retried() {
        let mut input = Vec::new();
        for i in 0..20 {
            input.extend_from_slice(format!("{{\"a\": {i}}}\n").as_bytes());
        }
        let plan = FaultPlan::new(7).interrupt_every(3).short_reads(5);
        let metrics = Arc::new(Metrics::new());
        let mut r = ChunkedRecords::with_buffer_size(FaultyReader::new(&input[..], plan), 32)
            .metrics(Arc::clone(&metrics));
        let mut n = 0;
        while r.next_record().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 20);
        assert!(metrics.snapshot().io_retries > 0);
    }

    #[test]
    fn transient_errors_respect_the_retry_budget() {
        let input = b"{\"a\": 1}\n{\"a\": 2}\n";
        // Infinitely many WouldBlocks, no budget: propagate.
        let plan = FaultPlan::new(1).would_block_every(1);
        let mut r = ChunkedRecords::with_buffer_size(FaultyReader::new(&input[..], plan), 32);
        assert!(matches!(r.next_record(), Err(ReadRecordError::Io(_))));
        // Every other attempt blocks, budget of 1 retry per read: succeeds.
        let plan = FaultPlan::new(1).would_block_every(2);
        let mut r = ChunkedRecords::with_buffer_size(FaultyReader::new(&input[..], plan), 32)
            .retry(RetryPolicy::new(1));
        let mut n = 0;
        while r.next_record().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 2);
    }

    #[test]
    fn multi_mib_record_is_scanned_in_linear_time() {
        // Re-splitting the whole open tail after every 64 KiB refill made a
        // 4 MiB record cost ~64 scans of itself; the carried scan visits
        // each byte a bounded number of times.
        let mut big = b"{\"k\": [".to_vec();
        let mut i = 0u64;
        while big.len() < 4 << 20 {
            big.extend_from_slice(format!("{{\"s\": \"x}}]\\\"{i}\", \"n\": [{i}]}}, ").as_bytes());
            i += 1;
        }
        big.extend_from_slice(b"0]}");
        let input = [&big[..], b"\n{\"a\": 1}\n"].concat();
        let mut r = ChunkedRecords::with_buffer_size(&input[..], DEFAULT_BUFFER);
        assert_eq!(r.next_record().unwrap().unwrap(), &big[..]);
        assert!(
            r.scanned_bytes <= 3 * big.len() as u64,
            "scanned {} bytes for a {}-byte record",
            r.scanned_bytes,
            big.len()
        );
        assert_eq!(r.next_record().unwrap().unwrap(), b"{\"a\": 1}");
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn carried_scan_agrees_with_the_splitter_on_long_records() {
        // Long container and string records whose strings hide brackets,
        // escaped quotes and backslash runs at every block and refill
        // offset: the carried scan must end each record exactly where a
        // fresh split does.
        let mut input = Vec::new();
        for i in 0..24 {
            let body: String = (0..i * 7)
                .map(|j| format!("\"{}\\\\\\\"{{[\", ", "}]".repeat(j % 5)))
                .collect();
            input.extend_from_slice(format!("{{\"o\": [{body}{i}]}}\n").as_bytes());
            input.extend_from_slice(format!("[{body}[{{}}]]\n").as_bytes());
            input.extend_from_slice(format!("\"{}\\\"{i}\" ", "{".repeat(i * 11)).as_bytes());
        }
        let spans = crate::split_records(&input).unwrap();
        let expected: Vec<Vec<u8>> = spans.iter().map(|&(s, e)| input[s..e].to_vec()).collect();
        for chunk in [16, 63, 64, 65, 200, 4096] {
            assert_eq!(collect_records(&input, chunk), expected, "chunk {chunk}");
        }
    }

    #[test]
    fn open_record_at_eof_is_still_diagnosed_exactly() {
        // An open record spanning many refills, then EOF: the same typed
        // error, truncated-record count and resync span as before.
        let mut input = b"{\"a\": 1}\n{\"open\": [\"".to_vec();
        input.extend_from_slice(&b"x".repeat(1000));
        let metrics = Arc::new(Metrics::new());
        let mut r = ChunkedRecords::with_buffer_size(&input[..], 16).metrics(Arc::clone(&metrics));
        assert!(r.next_record().unwrap().is_some());
        assert!(matches!(r.next_record(), Err(ReadRecordError::Stream(_))));
        assert_eq!(metrics.snapshot().truncated_records, 1);
        assert_eq!(r.resync().unwrap().unwrap(), (9, input.len() as u64));
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn truncated_final_record_is_counted_and_resyncable() {
        let input = b"{\"a\": 1}\n{\"b\": ";
        let metrics = Arc::new(Metrics::new());
        let mut r = ChunkedRecords::with_buffer_size(&input[..], 8).metrics(Arc::clone(&metrics));
        assert!(r.next_record().unwrap().is_some());
        assert!(matches!(r.next_record(), Err(ReadRecordError::Stream(_))));
        assert_eq!(metrics.snapshot().truncated_records, 1);
        let span = r.resync().unwrap().unwrap();
        assert_eq!(span, (9, input.len() as u64));
        assert!(r.next_record().unwrap().is_none());
        // Nothing left: a further resync has nothing to skip.
        assert!(r.resync().unwrap().is_none());
    }
}
