//! Parallel record-batch pipeline with backpressure.
//!
//! The paper's small-records scenario assigns "each thread ... to process
//! one small record each time" (Figure 12). [`Pipeline`] generalizes that
//! runner into a subsystem usable with *any* engine ([`Evaluate`]) and *any*
//! record source ([`RecordSource`] — in-memory slices via [`SliceRecords`]
//! or bounded-memory readers via [`ChunkedRecords`]):
//!
//! * the caller thread reads records and appends consecutive ones into a
//!   **record batch**: one contiguous buffer plus each record's span. A
//!   batch is handed to the worker pool when it reaches a fixed cap (64 KiB
//!   or 256 records) or just before anything that is not a dispatchable
//!   record (a limit rejection, a source error or resync, end of stream), so
//!   batch boundaries depend only on the input, never on timing. Handing
//!   over whole batches amortizes the per-handoff lock and wakeup over
//!   hundreds of small records, the way a bulk parser amortizes its fixed
//!   costs over a buffer of documents;
//! * handoffs go through a **bounded queue** — when workers fall behind,
//!   the reader blocks instead of buffering the stream, so peak memory is
//!   `O(workers × queue_depth × batch size)` regardless of stream length;
//! * each worker takes a whole batch under one lock, evaluates its records,
//!   collecting match spans into the batch, and deposits every result under
//!   one lock;
//! * the caller merges results back **in record order**, so the sink
//!   observes exactly the sequence a serial loop would deliver, for any
//!   worker count. Matches are replayed as borrowed handles into the batch
//!   buffer; no record is copied after it is read.
//!
//! Early exit ([`ControlFlow::Break`] from the sink) and the
//! [`ErrorPolicy`] are honoured at the merge point: a break stops the
//! stream (records already dispatched may be evaluated speculatively, but
//! their matches are never delivered), and a failed record either aborts
//! the run ([`ErrorPolicy::FailFast`], in record order) or is reported to
//! [`MatchSink::on_record_error`] and skipped
//! ([`ErrorPolicy::SkipMalformed`]).
//!
//! # Fault tolerance
//!
//! Under [`ErrorPolicy::SkipMalformed`] the pipeline also survives *source*
//! errors, provided the source can resynchronize
//! ([`RecordSource::resync`]): the broken span is skipped, reported to
//! [`MatchSink::on_resync`] in the same merge-ordered position a serial run
//! would report it, counted in [`PipelineSummary::resyncs`], and the stream
//! continues. I/O errors are never recoverable; like every other event,
//! an unrecoverable source error takes effect at the merge point, after
//! every earlier record was delivered. A [`ResourceLimits`] attached with
//! [`Pipeline::limits`] rejects oversized records before they reach a
//! worker, as ordinary per-record failures.
//!
//! With `workers <= 1` the pipeline degenerates to a serial loop. Match
//! spans are still staged per record and replayed to the sink only after
//! the record evaluates cleanly, so a malformed record delivers *nothing* —
//! byte-identical to the parallel merge for every worker count and both
//! error policies. The replay borrows the record straight from the source,
//! so the serial path copies no record either. (Callers that want true
//! mid-record early exit on a single record should use [`JsonSki::stream`]
//! directly.)
//!
//! # Observability
//!
//! Attach a shared [`Metrics`] registry with [`Pipeline::metrics`] and the
//! run records queue occupancy (one sample per batch handoff), producer
//! backpressure stalls, worker idle waits, per-worker records/bytes,
//! skipped-record counts, and — through [`Evaluate::evaluate_metered`] —
//! the engine's own byte-level and fast-forward counters.
//!
//! No thread writes the shared registry per record. The serial loop, each
//! worker, and the parallel merge record into a tally of their own and
//! fold it into the registry once per batch (the same 64 KiB / 256-record
//! cadence as the handoff) and when the run ends, whichever way it ends.
//! While a run is in flight the registry lags by at most one batch per
//! thread; once [`Pipeline::run`] returns it is exact.
//!
//! # Crash safety
//!
//! Three mechanisms make a run survivable end-to-end:
//!
//! * **Panic isolation** — each record's evaluation runs inside
//!   [`std::panic::catch_unwind`], on both the worker and the serial
//!   path. A panic becomes an ordinary [`EngineError::Panic`] carrying
//!   the record's ordinal, flowing through the [`ErrorPolicy`] like any
//!   other per-record failure: [`ErrorPolicy::SkipMalformed`] skips it,
//!   [`ErrorPolicy::FailFast`] drains earlier results in order and
//!   aborts. One poisoned record never deadlocks the bounded queues or
//!   kills a worker thread.
//! * **Cooperative cancellation** — attach a
//!   [`CancellationToken`](crate::CancellationToken) with
//!   [`Pipeline::cancel_token`] and the run stops at the merge point: the
//!   record being delivered when the token trips is finished, nothing after
//!   it is delivered (records read or evaluated past it are discarded), and
//!   the summary reports [`cancelled`](PipelineSummary::cancelled) with a
//!   committed byte offset that covers exactly the delivered records.
//! * **Checkpoints** — attach a
//!   [`CheckpointCadence`](crate::CheckpointCadence) with
//!   [`Pipeline::checkpoints`] and the in-order merge periodically calls
//!   [`MatchSink::on_checkpoint`] with the summary-so-far. Because the
//!   call sits *behind* the merge point, a checkpoint never claims work
//!   that was not already delivered to the sink.
//!
//! [`ChunkedRecords`]: crate::ChunkedRecords
//! [`JsonSki::stream`]: crate::JsonSki::stream

use std::collections::{BTreeMap, VecDeque};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::cancel::CancellationToken;
use crate::checkpoint::CheckpointCadence;
use crate::evaluate::{
    panic_payload, EngineError, ErrorPolicy, Evaluate, Match, MatchSink, RecordOutcome,
};
use crate::limits::{LimitExceeded, ResourceLimits};
use crate::metrics::{Metrics, Tally};
use crate::records::RecordSplitter;

/// A batch is handed to the workers once its records hold this many bytes...
const BATCH_BYTES: usize = 64 * 1024;
/// ...or once it holds this many records, whichever comes first.
const BATCH_RECORDS: usize = 256;

/// Whether `records` records of `bytes` bytes in total fill a batch: the
/// handoff cadence, which is also the cadence at which the serial loop
/// folds its metrics tally.
fn fills_batch(records: usize, bytes: usize) -> bool {
    bytes >= BATCH_BYTES || records >= BATCH_RECORDS
}

/// Nothing panics while holding the pipeline lock: sink callbacks and
/// evaluation run outside it.
const POISON: &str = "pipeline lock poisoned";

/// A pull-based source of complete JSON records.
///
/// The returned slice borrows the source and is valid until the next call
/// (a lending iterator). Sources are consumed by [`Pipeline::run`] on the
/// caller thread, so they need not be `Send`.
pub trait RecordSource {
    /// Returns the next record's bytes, or `None` at end of stream.
    ///
    /// # Errors
    ///
    /// [`EngineError`] when the source cannot produce the next record
    /// (I/O failure, a record boundary that cannot be located, or a
    /// resource-limit rejection). Under [`ErrorPolicy::SkipMalformed`] the
    /// pipeline answers a recoverable source error
    /// ([`EngineError::is_resyncable`]) with [`resync`](Self::resync) and
    /// keeps going; I/O errors, and any error on a source that cannot
    /// resynchronize, abort the run.
    fn next_record(&mut self) -> Result<Option<&[u8]>, EngineError>;

    /// After [`next_record`](Self::next_record) returned an error, skips
    /// forward to the next record boundary so the stream can continue,
    /// returning the global byte span `(start, end)` that was abandoned.
    /// `Ok(None)` means the source cannot resynchronize (the default) and
    /// the pipeline propagates the original error.
    ///
    /// # Errors
    ///
    /// [`EngineError`] when the skip-ahead itself fails (e.g. I/O).
    fn resync(&mut self) -> Result<Option<(u64, u64)>, EngineError> {
        Ok(None)
    }

    /// The global byte offset just past the most recently returned record
    /// (or resynchronized span) — how far into the stream the source has
    /// consumed. `None` (the default) means the source cannot report
    /// offsets, which leaves [`PipelineSummary::committed_offset`] at 0
    /// and makes checkpoints carry counters only.
    fn consumed_offset(&self) -> Option<u64> {
        None
    }
}

/// [`RecordSource`] over an in-memory stream, using the bit-parallel
/// [`RecordSplitter`] to discover record boundaries.
#[derive(Debug)]
pub struct SliceRecords<'a> {
    splitter: RecordSplitter<'a>,
}

impl<'a> SliceRecords<'a> {
    /// Wraps `stream` (whitespace/newline-separated JSON values).
    pub fn new(stream: &'a [u8]) -> Self {
        SliceRecords {
            splitter: RecordSplitter::new(stream),
        }
    }
}

impl RecordSource for SliceRecords<'_> {
    fn next_record(&mut self) -> Result<Option<&[u8]>, EngineError> {
        match self.splitter.next() {
            None => Ok(None),
            Some(Ok((s, e))) => Ok(Some(&self.splitter.stream()[s..e])),
            Some(Err(e)) => Err(EngineError::Stream(e)),
        }
    }

    fn resync(&mut self) -> Result<Option<(u64, u64)>, EngineError> {
        Ok(self.splitter.resync().map(|(s, e)| (s as u64, e as u64)))
    }

    fn consumed_offset(&self) -> Option<u64> {
        Some(self.splitter.pos() as u64)
    }
}

impl<R: std::io::Read> RecordSource for crate::ChunkedRecords<R> {
    fn next_record(&mut self) -> Result<Option<&[u8]>, EngineError> {
        crate::ChunkedRecords::next_record(self).map_err(EngineError::from)
    }

    fn resync(&mut self) -> Result<Option<(u64, u64)>, EngineError> {
        crate::ChunkedRecords::resync(self).map_err(EngineError::from)
    }

    fn consumed_offset(&self) -> Option<u64> {
        Some(crate::ChunkedRecords::consumed_offset(self))
    }
}

/// Aggregate result of a [`Pipeline::run`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineSummary {
    /// Records whose outcome was merged (evaluated or skipped-as-failed).
    pub records: u64,
    /// Matches delivered to the sink, across all records (including the
    /// match the sink broke on, if any).
    pub matches: usize,
    /// Records skipped under [`ErrorPolicy::SkipMalformed`].
    pub failed: u64,
    /// Whether the sink stopped the stream early.
    pub stopped: bool,
    /// Mid-stream resynchronizations: broken spans the source skipped over
    /// under [`ErrorPolicy::SkipMalformed`].
    pub resyncs: u64,
    /// Total bytes abandoned by those resynchronizations.
    pub resync_bytes: u64,
    /// Whether the run was ended early by cooperative cancellation (see
    /// [`Pipeline::cancel_token`]). Everything counted above was still
    /// fully delivered before the run returned.
    pub cancelled: bool,
    /// High-water committed input offset: the global byte offset just past
    /// the last record (or resynchronized span) whose outcome was merged.
    /// Stays 0 when the source does not report offsets
    /// ([`RecordSource::consumed_offset`]).
    pub committed_offset: u64,
}

/// Parallel record-batch runner; see the module docs (source of `pipeline.rs`).
///
/// # Example
///
/// ```
/// use jsonski::{CountSink, JsonSki, Pipeline, SliceRecords};
///
/// let stream = b"{\"a\": 1}\n{\"b\": 2}\n{\"a\": 3}\n";
/// let engine = JsonSki::compile("$.a")?;
/// let mut sink = CountSink::default();
/// let summary = Pipeline::new()
///     .workers(4)
///     .run(&engine, &mut SliceRecords::new(stream), &mut sink)?;
/// assert_eq!(summary.records, 3);
/// assert_eq!(sink.matches, 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Pipeline {
    workers: usize,
    queue_depth: usize,
    policy: ErrorPolicy,
    limits: ResourceLimits,
    metrics: Option<Arc<Metrics>>,
    cancel: Option<CancellationToken>,
    checkpoints: Option<CheckpointCadence>,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::new()
    }
}

impl Pipeline {
    /// A pipeline with one worker per available core, queue depth 4,
    /// [`ErrorPolicy::FailFast`], and no metrics registry.
    pub fn new() -> Self {
        Pipeline {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            queue_depth: 4,
            policy: ErrorPolicy::default(),
            limits: ResourceLimits::default(),
            metrics: None,
            cancel: None,
            checkpoints: None,
        }
    }

    /// Sets the worker count. `0` or `1` selects the serial path.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the per-worker bound on in-flight record batches (min 1). The
    /// reader stops while `workers × queue_depth` handoffs are in flight
    /// (batches, plus the resync and rejection events between them), so
    /// buffered input stays within that many batches plus the one being
    /// filled.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Sets the policy for records that fail to evaluate.
    pub fn error_policy(mut self, policy: ErrorPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the resource limits the pipeline enforces *before* dispatching
    /// a record to a worker (currently
    /// [`max_record_bytes`](ResourceLimits::max_record_bytes); depth and
    /// deadline guards run inside the engine via
    /// [`EngineConfig::limits`](crate::EngineConfig)). An over-limit record
    /// is a per-record failure and respects the [`ErrorPolicy`].
    pub fn limits(mut self, limits: ResourceLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Attaches a shared observability registry; see the
    /// module docs (§Observability) for what gets recorded.
    pub fn metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches a cooperative cancellation token. It is honoured at the
    /// merge point, record by record: the record being delivered when the
    /// token trips is finished, nothing after it is delivered (records
    /// already read or evaluated past it are discarded), and the run
    /// returns `Ok` with [`PipelineSummary::cancelled`] set and a
    /// [`committed_offset`](PipelineSummary::committed_offset) covering
    /// exactly the delivered records — never an error, never a
    /// half-delivered record.
    pub fn cancel_token(mut self, token: CancellationToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Enables checkpointing at the given cadence:
    /// [`MatchSink::on_checkpoint`] is called from the in-order merge with
    /// the summary of everything delivered so far, plus once more when the
    /// run ends cleanly (complete, stopped, or cancelled). An error from
    /// the callback aborts the run — a checkpoint that cannot be persisted
    /// is an operational failure, not a per-record one.
    pub fn checkpoints(mut self, cadence: CheckpointCadence) -> Self {
        self.checkpoints = Some(cadence);
        self
    }

    /// The attached registry, only when it actually records.
    fn live_metrics(&self) -> Option<&Metrics> {
        self.metrics.as_deref().filter(|m| m.is_enabled())
    }

    /// Whether the attached token (if any) has requested cancellation.
    fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(CancellationToken::is_cancelled)
    }

    /// Runs `engine` over every record of `source`, delivering matches to
    /// `sink` in record order.
    ///
    /// # Errors
    ///
    /// Source errors always; evaluation errors under
    /// [`ErrorPolicy::FailFast`] (the first in record order).
    pub fn run(
        &self,
        engine: &dyn Evaluate,
        source: &mut dyn RecordSource,
        sink: &mut dyn MatchSink,
    ) -> Result<PipelineSummary, EngineError> {
        if self.workers <= 1 {
            self.run_serial(engine, source, sink)
        } else {
            self.run_parallel(engine, source, sink)
        }
    }

    fn run_serial(
        &self,
        engine: &dyn Evaluate,
        source: &mut dyn RecordSource,
        sink: &mut dyn MatchSink,
    ) -> Result<PipelineSummary, EngineError> {
        // One thread owns the whole serial run, so it records into one
        // tally, folded at the parallel path's batch cadence (and on drop).
        let tally = self.live_metrics().map(Tally::new);
        let metrics = tally.as_ref().map(Tally::recorder);
        let (mut unflushed_records, mut unflushed_bytes) = (0, 0);
        let mut summary = PipelineSummary::default();
        let mut tracker = self.checkpoints.map(CheckpointTracker::new);
        let mut idx = 0u64;
        let mut spans = Vec::new();
        loop {
            if self.is_cancelled() {
                summary.cancelled = true;
                break;
            }
            // The record borrow must die inside the match so the paths
            // below can use the source again (resync, consumed_offset), so
            // a clean record's staged spans are replayed in here, while the
            // matches can still borrow the source's buffer.
            let step = match source.next_record() {
                Ok(None) => Step::Done,
                Err(e) => Step::SourceErr(e),
                Ok(Some(record)) => {
                    let len = record.len() as u64;
                    let outcome = if record.len() > self.limits.max_record_bytes {
                        // Rejected before dispatch: no evaluation work.
                        if let Some(m) = metrics {
                            m.record_limit_rejection();
                        }
                        RecordOutcome::Failed(EngineError::Limit(LimitExceeded::RecordBytes {
                            len: record.len(),
                            limit: self.limits.max_record_bytes,
                        }))
                    } else {
                        spans.clear();
                        let mut stage = SpanSink(&mut spans);
                        // Unwind safety: see `evaluate_batch` — engines hold no
                        // cross-record state, and `spans` is cleared before
                        // the next use so a torn stage is never replayed.
                        catch_unwind(AssertUnwindSafe(|| match metrics {
                            Some(m) => {
                                m.record_worker(0, len);
                                engine.evaluate_metered(record, idx, &mut stage, m)
                            }
                            None => engine.evaluate(record, idx, &mut stage),
                        }))
                        .unwrap_or_else(|p| {
                            if let Some(m) = metrics {
                                m.record_worker_panic();
                            }
                            RecordOutcome::Failed(EngineError::Panic {
                                record_idx: idx,
                                payload: panic_payload(p.as_ref()),
                            })
                        })
                    };
                    let delivered = match outcome {
                        RecordOutcome::Failed(e) => Err(e),
                        _ => Ok(replay(record, &spans, idx, sink)),
                    };
                    Step::Evaluated { len, delivered }
                }
            };
            match step {
                Step::Done => {
                    // A cancellable source (`ChunkedRecords`) also reports
                    // its end once the token trips: that end is not clean.
                    summary.cancelled = self.is_cancelled();
                    break;
                }
                Step::SourceErr(e) => {
                    match self.try_resync(source, sink, &e, &mut summary, metrics)? {
                        Resynced::Continue => {}
                        Resynced::Stopped => {
                            self.final_checkpoint(&tracker, sink, &summary)?;
                            return Ok(summary);
                        }
                        Resynced::Unrecoverable => return Err(e),
                    }
                }
                Step::Evaluated { len, delivered } => {
                    summary.records += 1;
                    if let Some(end) = source.consumed_offset() {
                        summary.committed_offset = summary.committed_offset.max(end);
                    }
                    match delivered {
                        Ok((delivered, broke)) => {
                            summary.matches += delivered;
                            if let Some(m) = metrics {
                                m.record_delivered(delivered as u64, len);
                            }
                            if broke {
                                summary.stopped = true;
                                self.final_checkpoint(&tracker, sink, &summary)?;
                                return Ok(summary);
                            }
                        }
                        Err(e) => match self.policy {
                            ErrorPolicy::FailFast => return Err(e),
                            ErrorPolicy::SkipMalformed => {
                                summary.failed += 1;
                                if let Some(m) = metrics {
                                    m.record_skipped_record();
                                }
                                if sink.on_record_error(idx, &e).is_break() {
                                    summary.stopped = true;
                                    self.final_checkpoint(&tracker, sink, &summary)?;
                                    return Ok(summary);
                                }
                            }
                        },
                    }
                    idx += 1;
                    if let Some(t) = tracker.as_mut() {
                        if t.due(len) {
                            self.emit_checkpoint(sink, &summary)?;
                        }
                    }
                    if let Some(t) = &tally {
                        unflushed_records += 1;
                        unflushed_bytes += len as usize;
                        if fills_batch(unflushed_records, unflushed_bytes) {
                            t.flush();
                            (unflushed_records, unflushed_bytes) = (0, 0);
                        }
                    }
                }
            }
        }
        self.final_checkpoint(&tracker, sink, &summary)?;
        Ok(summary)
    }

    /// Delivers one checkpoint callback, recording it in metrics.
    fn emit_checkpoint(
        &self,
        sink: &mut dyn MatchSink,
        summary: &PipelineSummary,
    ) -> Result<(), EngineError> {
        if let Some(m) = self.live_metrics() {
            m.record_checkpoint();
        }
        sink.on_checkpoint(summary)
    }

    /// The closing checkpoint of a cleanly ending run (complete, stopped,
    /// or cancelled), so the caller's last durable state matches the
    /// returned summary. No-op when checkpointing is off.
    fn final_checkpoint(
        &self,
        tracker: &Option<CheckpointTracker>,
        sink: &mut dyn MatchSink,
        summary: &PipelineSummary,
    ) -> Result<(), EngineError> {
        if tracker.is_some() {
            self.emit_checkpoint(sink, summary)?;
        }
        Ok(())
    }

    /// Serial-path source-error recovery: resynchronizes (see
    /// [`resync_source`](Self::resync_source)) and reports the skipped span
    /// to the sink.
    fn try_resync(
        &self,
        source: &mut dyn RecordSource,
        sink: &mut dyn MatchSink,
        error: &EngineError,
        summary: &mut PipelineSummary,
        metrics: Option<&Metrics>,
    ) -> Result<Resynced, EngineError> {
        match self.resync_source(source, error)? {
            None => Ok(Resynced::Unrecoverable),
            Some(span) => match deliver_resync(metrics, summary, sink, span, error) {
                ControlFlow::Break(()) => Ok(Resynced::Stopped),
                ControlFlow::Continue(()) => Ok(Resynced::Continue),
            },
        }
    }

    /// Shared source-error recovery: under [`ErrorPolicy::SkipMalformed`],
    /// asks a resyncable source to skip past the broken span. `Ok(None)`
    /// means the error is unrecoverable (policy, error kind, or source).
    fn resync_source(
        &self,
        source: &mut dyn RecordSource,
        error: &EngineError,
    ) -> Result<Option<(u64, u64)>, EngineError> {
        if !matches!(self.policy, ErrorPolicy::SkipMalformed) || !error.is_resyncable() {
            return Ok(None);
        }
        source.resync()
    }

    fn run_parallel(
        &self,
        engine: &dyn Evaluate,
        source: &mut dyn RecordSource,
        sink: &mut dyn MatchSink,
    ) -> Result<PipelineSummary, EngineError> {
        let shared = Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                results: BTreeMap::new(),
            }),
            halt: AtomicBool::new(false),
            work_ready: Condvar::new(),
            result_ready: Condvar::new(),
        };
        let metrics = self.live_metrics();
        std::thread::scope(|scope| {
            for worker in 0..self.workers {
                let shared = &shared;
                let policy = self.policy;
                scope.spawn(move || worker_loop(engine, shared, worker, policy, metrics));
            }
            // Guard, not epilogue: it runs on every return path — including
            // a panicking sink, which would otherwise leave the scope join
            // deadlocked on workers waiting for work. By drop time every
            // result the run will ever deliver has been merged, so halting
            // abandons nothing.
            let _release = ReleaseWorkers(&shared);
            self.produce_and_merge(source, sink, &shared)
        })
    }

    /// The caller thread's half of the parallel pipeline: fills record
    /// batches while the in-flight bound allows (backpressure), merges
    /// worker results in record order, and applies early exit, the error
    /// policy and cancellation at the merge point. Resynchronizations,
    /// pre-dispatch limit rejections and unrecoverable source errors enter
    /// the merge sequence as events between batches, so the sink observes
    /// the exact callback order of a serial run for any worker count.
    fn produce_and_merge(
        &self,
        source: &mut dyn RecordSource,
        sink: &mut dyn MatchSink,
        shared: &Shared,
    ) -> Result<PipelineSummary, EngineError> {
        let metrics = self.live_metrics();
        let capacity = (self.workers * self.queue_depth) as u64;
        let mut merge = Merge::new(self);
        let mut handoff = Handoff {
            shared,
            metrics,
            next_seq: 0,
            filling: Batch::default(),
            spare: Vec::new(),
        };
        let mut next_merge = 0u64; // merge ordinal to deliver next
        let mut read_idx = 0u64; // record ordinal of the next record read
        let mut source_done = false;
        let mut ready = Vec::new();
        loop {
            // Take the whole run of consecutive ready results under one
            // lock, then deliver it without holding the lock across sink
            // callbacks.
            {
                let mut state = shared.state.lock().expect(POISON);
                while let Some(item) = state.results.remove(&next_merge) {
                    ready.push(item);
                    next_merge += 1;
                }
            }
            for item in ready.drain(..) {
                let flow = match item {
                    MergeItem::Batch(mut batch) => {
                        let flow = merge.batch(sink, &mut batch);
                        batch.clear();
                        handoff.spare.push(batch);
                        flow?
                    }
                    _ if merge.cancelled() => ControlFlow::Break(()),
                    MergeItem::Rejected { len, end, error } => {
                        merge.record(sink, len, end, Err(error))?
                    }
                    MergeItem::Resync(span, e) => {
                        let metrics = merge.tally.as_ref().map(Tally::recorder);
                        deliver_resync(metrics, &mut merge.summary, sink, span, &e)
                    }
                    MergeItem::Fatal(e) => return Err(e),
                };
                if flow.is_break() {
                    return merge.finish(sink);
                }
            }
            // Fill batches up to the in-flight bound (backpressure). A
            // partly filled batch waits here for the next round: it is only
            // handed off when full or before an event, never for timing.
            while !source_done {
                if merge.cancelled() {
                    // Nothing after this point would be delivered anyway.
                    return merge.finish(sink);
                }
                if handoff.next_seq - next_merge >= capacity {
                    if let Some(m) = metrics {
                        m.record_producer_stall();
                    }
                    break;
                }
                // The record borrow must die before `consumed_offset`, so
                // classify the read first and account for it after.
                let got = match source.next_record() {
                    Ok(None) => Fetched::End,
                    Err(e) => Fetched::Fail(e),
                    Ok(Some(record)) if record.len() > self.limits.max_record_bytes => {
                        Fetched::Oversized(record.len())
                    }
                    Ok(Some(record)) => {
                        handoff.filling.bytes.extend_from_slice(record);
                        Fetched::Appended
                    }
                };
                let end = source.consumed_offset();
                match got {
                    Fetched::Appended => {
                        handoff.filling.push(read_idx, end);
                        read_idx += 1;
                        if handoff.filling.is_full() {
                            handoff.flush(next_merge);
                        }
                    }
                    Fetched::End => {
                        // A cancellable source (`ChunkedRecords`) also
                        // reports its end once the token trips: that end is
                        // not clean.
                        if merge.cancelled() {
                            return merge.finish(sink);
                        }
                        handoff.flush(next_merge);
                        source_done = true;
                    }
                    Fetched::Oversized(len) => {
                        // Rejected before dispatch: a pre-failed entry in
                        // the merge sequence, skipping the workers entirely.
                        if let Some(t) = &merge.tally {
                            t.recorder().record_limit_rejection();
                        }
                        let error = EngineError::Limit(LimitExceeded::RecordBytes {
                            len,
                            limit: self.limits.max_record_bytes,
                        });
                        handoff.flush(next_merge);
                        handoff.event(MergeItem::Rejected { len, end, error });
                        read_idx += 1;
                    }
                    Fetched::Fail(e) => {
                        handoff.flush(next_merge);
                        match self.resync_source(source, &e) {
                            Ok(Some(span)) => handoff.event(MergeItem::Resync(span, e)),
                            Ok(None) => {
                                handoff.event(MergeItem::Fatal(e));
                                source_done = true;
                            }
                            Err(resync_err) => {
                                handoff.event(MergeItem::Fatal(resync_err));
                                source_done = true;
                            }
                        }
                    }
                }
            }
            // Done when everything handed off has been merged.
            if source_done && next_merge == handoff.next_seq {
                return merge.finish(sink);
            }
            // Otherwise wait until the next in-order result lands.
            let mut state = shared.state.lock().expect(POISON);
            while !state.results.contains_key(&next_merge) {
                state = shared.result_ready.wait(state).expect(POISON);
            }
        }
    }
}

/// Accounts one source resynchronization and reports it to the sink;
/// `Break` when the sink stopped the run.
fn deliver_resync(
    metrics: Option<&Metrics>,
    summary: &mut PipelineSummary,
    sink: &mut dyn MatchSink,
    span: (u64, u64),
    error: &EngineError,
) -> ControlFlow<()> {
    summary.resyncs += 1;
    summary.resync_bytes += span.1 - span.0;
    summary.committed_offset = summary.committed_offset.max(span.1);
    if let Some(m) = metrics {
        m.record_resync(span.1 - span.0);
    }
    if sink.on_resync(span, error).is_break() {
        summary.stopped = true;
        return ControlFlow::Break(());
    }
    ControlFlow::Continue(())
}

/// Replays staged match spans to the real sink as borrowed [`Match`]
/// handles over the record; returns how many were delivered (including the
/// one the sink broke on) and whether the sink broke.
fn replay(
    record: &[u8],
    spans: &[(usize, usize)],
    record_idx: u64,
    sink: &mut dyn MatchSink,
) -> (usize, bool) {
    for (i, &span) in spans.iter().enumerate() {
        if sink
            .on_match(Match::new(record_idx, record, span))
            .is_break()
        {
            return (i + 1, true);
        }
    }
    (spans.len(), false)
}

/// A record's bytes and its (record-relative) match spans, ready to replay.
type Staged<'a> = (&'a [u8], &'a [(usize, usize)]);

/// The parallel path's in-order merge point: applies each record's outcome
/// to the summary, the sink, the metrics and the checkpoint cadence, in
/// record order — the same accounting the serial loop does inline. (Kept
/// out of the serial loop: routing `workers(1)` through it measured a few
/// percent slower per record.)
struct Merge<'p> {
    pipeline: &'p Pipeline,
    summary: PipelineSummary,
    tracker: Option<CheckpointTracker>,
    /// Ordinal of the next record to deliver (resyncs are not records).
    record_idx: u64,
    /// The caller thread's delivered-side accounting, folded once per
    /// merged batch (and on drop).
    tally: Option<Tally<'p>>,
}

impl<'p> Merge<'p> {
    fn new(pipeline: &'p Pipeline) -> Self {
        Merge {
            pipeline,
            summary: PipelineSummary::default(),
            tracker: pipeline.checkpoints.map(CheckpointTracker::new),
            record_idx: 0,
            tally: pipeline.live_metrics().map(Tally::new),
        }
    }

    /// Whether the run must stop for cancellation (flagging the summary).
    fn cancelled(&mut self) -> bool {
        if self.pipeline.is_cancelled() {
            self.summary.cancelled = true;
        }
        self.summary.cancelled
    }

    /// Delivers one record: its bytes and match spans, or its failure.
    /// `Break` when the sink stopped the run.
    fn record(
        &mut self,
        sink: &mut dyn MatchSink,
        len: usize,
        end: Option<u64>,
        result: Result<Staged<'_>, EngineError>,
    ) -> Result<ControlFlow<()>, EngineError> {
        let metrics = self.tally.as_ref().map(Tally::recorder);
        let summary = &mut self.summary;
        summary.records += 1;
        if let Some(end) = end {
            summary.committed_offset = summary.committed_offset.max(end);
        }
        match result {
            Ok((record, spans)) => {
                let (delivered, broke) = replay(record, spans, self.record_idx, sink);
                summary.matches += delivered;
                if let Some(m) = metrics {
                    m.record_delivered(delivered as u64, len as u64);
                }
                if broke {
                    summary.stopped = true;
                    return Ok(ControlFlow::Break(()));
                }
            }
            Err(e) => match self.pipeline.policy {
                ErrorPolicy::FailFast => return Err(e),
                ErrorPolicy::SkipMalformed => {
                    summary.failed += 1;
                    if let Some(m) = metrics {
                        m.record_skipped_record();
                    }
                    if sink.on_record_error(self.record_idx, &e).is_break() {
                        summary.stopped = true;
                        return Ok(ControlFlow::Break(()));
                    }
                }
            },
        }
        self.record_idx += 1;
        if let Some(t) = self.tracker.as_mut() {
            if t.due(len as u64) {
                self.pipeline.emit_checkpoint(sink, &self.summary)?;
            }
        }
        Ok(ControlFlow::Continue(()))
    }

    /// Delivers every record of an evaluated batch in order, checking for
    /// cancellation before each one.
    fn batch(
        &mut self,
        sink: &mut dyn MatchSink,
        batch: &mut Batch,
    ) -> Result<ControlFlow<()>, EngineError> {
        let (mut start, mut spans_from) = (0, 0);
        // A FailFast worker stops at its batch's first failure, which
        // aborts the run here before the missing outcomes are reached.
        for (rec, outcome) in batch.records.iter().zip(batch.outcomes.drain(..)) {
            if self.cancelled() {
                return Ok(ControlFlow::Break(()));
            }
            let record = &batch.bytes[start..rec.end];
            start = rec.end;
            let result = outcome.map(|spans_to| {
                let spans = &batch.spans[spans_from..spans_to];
                spans_from = spans_to;
                (record, spans)
            });
            if self
                .record(sink, record.len(), rec.offset, result)?
                .is_break()
            {
                return Ok(ControlFlow::Break(()));
            }
        }
        if let Some(t) = &self.tally {
            t.flush();
        }
        Ok(ControlFlow::Continue(()))
    }

    /// Ends a clean run (complete, stopped, or cancelled) with its closing
    /// checkpoint.
    fn finish(self, sink: &mut dyn MatchSink) -> Result<PipelineSummary, EngineError> {
        self.pipeline
            .final_checkpoint(&self.tracker, sink, &self.summary)?;
        Ok(self.summary)
    }
}

/// Outcome of a serial-path [`Pipeline::try_resync`] attempt.
enum Resynced {
    /// The broken span was skipped; keep consuming the source.
    Continue,
    /// The sink broke on the resync report; end the run cleanly.
    Stopped,
    /// Policy or source cannot recover; propagate the original error.
    Unrecoverable,
}

/// One step of the serial loop, computed while the record borrow is live
/// so the source can be used again (offset, resync) once it is dropped. A
/// clean record has already been replayed: `delivered` holds what
/// [`replay`] returned, or the record's failure.
enum Step {
    Done,
    SourceErr(EngineError),
    Evaluated {
        len: u64,
        delivered: Result<(usize, bool), EngineError>,
    },
}

/// One read of the parallel producer, classified while the record borrow
/// is live (a dispatchable record is already appended to the batch being
/// filled); the rest happens after, so the producer can also ask the source
/// for its consumed offset.
enum Fetched {
    End,
    Fail(EngineError),
    Oversized(usize),
    Appended,
}

/// Counts merged records/bytes against a [`CheckpointCadence`].
struct CheckpointTracker {
    cadence: CheckpointCadence,
    records: u64,
    bytes: u64,
}

impl CheckpointTracker {
    fn new(cadence: CheckpointCadence) -> Self {
        CheckpointTracker {
            cadence,
            records: 0,
            bytes: 0,
        }
    }

    /// Accounts one merged record; `true` when a checkpoint is due (and
    /// the counters reset).
    fn due(&mut self, record_bytes: u64) -> bool {
        self.records += 1;
        self.bytes = self.bytes.saturating_add(record_bytes);
        if self.records >= self.cadence.every_records || self.bytes >= self.cadence.every_bytes {
            self.records = 0;
            self.bytes = 0;
            true
        } else {
            false
        }
    }
}

/// Consecutive dispatchable records, handed to one worker in one handoff
/// and merged back as one unit.
#[derive(Default)]
struct Batch {
    /// Position of the batch in the merge sequence.
    seq: u64,
    /// Record ordinal of the first record.
    first_idx: u64,
    /// Every record's bytes, back to back.
    bytes: Vec<u8>,
    /// One entry per record, in order.
    records: Vec<BatchRecord>,
    /// Match spans (record-relative) of every cleanly evaluated record,
    /// back to back; filled by the worker.
    spans: Vec<(usize, usize)>,
    /// One outcome per evaluated record, filled by the worker: the failure,
    /// or where the record's spans end in `spans` (they start where the
    /// previous clean record's end).
    outcomes: Vec<Result<usize, EngineError>>,
}

struct BatchRecord {
    /// End of the record's bytes in [`Batch::bytes`]; it starts where the
    /// previous record ends.
    end: usize,
    /// Global offset just past the record in the input stream, when the
    /// source reports offsets.
    offset: Option<u64>,
}

impl Batch {
    /// Accounts the record just appended to `bytes`.
    fn push(&mut self, record_idx: u64, offset: Option<u64>) {
        if self.records.is_empty() {
            self.first_idx = record_idx;
        }
        self.records.push(BatchRecord {
            end: self.bytes.len(),
            offset,
        });
    }

    fn is_full(&self) -> bool {
        fills_batch(self.records.len(), self.bytes.len())
    }

    /// Empties the batch for reuse, keeping its allocations.
    fn clear(&mut self) {
        self.bytes.clear();
        self.records.clear();
        self.spans.clear();
        self.outcomes.clear();
    }
}

/// The producer's side of the handoff: the batch being filled, recycled
/// batch allocations, and the merge ordinal of the next handoff.
struct Handoff<'s> {
    shared: &'s Shared,
    metrics: Option<&'s Metrics>,
    next_seq: u64,
    filling: Batch,
    spare: Vec<Batch>,
}

impl Handoff<'_> {
    /// Hands the batch being filled (if it holds any record) to the
    /// workers: one lock, one wakeup.
    fn flush(&mut self, next_merge: u64) {
        if self.filling.records.is_empty() {
            return;
        }
        let fresh = self.spare.pop().unwrap_or_default();
        let mut batch = std::mem::replace(&mut self.filling, fresh);
        batch.seq = self.next_seq;
        self.next_seq += 1;
        self.shared
            .state
            .lock()
            .expect(POISON)
            .queue
            .push_back(batch);
        self.shared.work_ready.notify_one();
        if let Some(m) = self.metrics {
            m.record_queue_occupancy(self.next_seq - next_merge);
        }
    }

    /// Enters a non-record event directly into the merge sequence.
    fn event(&mut self, item: MergeItem) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.shared
            .state
            .lock()
            .expect(POISON)
            .results
            .insert(seq, item);
    }
}

/// One entry in the in-order merge sequence.
enum MergeItem {
    /// An evaluated batch of records.
    Batch(Batch),
    /// A record rejected before dispatch by a resource limit.
    Rejected {
        len: usize,
        end: Option<u64>,
        error: EngineError,
    },
    /// A source resynchronization: the skipped global span and the error
    /// that caused it.
    Resync((u64, u64), EngineError),
    /// A source error that ends the run once everything before it has been
    /// delivered.
    Fatal(EngineError),
}

struct State {
    /// FIFO of batches awaiting a worker.
    queue: VecDeque<Batch>,
    /// Evaluated batches and events awaiting in-order merging, by merge
    /// ordinal.
    results: BTreeMap<u64, MergeItem>,
}

/// Drop guard that releases all workers: raise `halt` and wake everyone,
/// tolerating a poisoned lock (the flag is sound to set whatever state the
/// panic interrupted).
struct ReleaseWorkers<'a>(&'a Shared);

impl Drop for ReleaseWorkers<'_> {
    fn drop(&mut self) {
        // Raised under the lock, so a worker about to wait cannot miss it.
        let state = match self.0.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        self.0.halt.store(true, Ordering::Relaxed);
        drop(state);
        self.0.work_ready.notify_all();
    }
}

struct Shared {
    state: Mutex<State>,
    /// Set once the merge is over: workers stop, even mid-batch.
    halt: AtomicBool,
    /// Signalled when a batch arrives or the run ends.
    work_ready: Condvar,
    /// Signalled when a worker deposits an evaluated batch.
    result_ready: Condvar,
}

/// Evaluation-side stage: match spans only, appended to a span list (the
/// record bytes stay where they are: in the worker's batch, or in the
/// source on the serial path). Never stops the engine; early exit is
/// decided when the spans are replayed.
struct SpanSink<'a>(&'a mut Vec<(usize, usize)>);

impl MatchSink for SpanSink<'_> {
    fn on_match(&mut self, m: Match<'_>) -> ControlFlow<()> {
        self.0.push(m.span());
        ControlFlow::Continue(())
    }
}

fn worker_loop(
    engine: &dyn Evaluate,
    shared: &Shared,
    worker: usize,
    policy: ErrorPolicy,
    metrics: Option<&Metrics>,
) {
    // The worker's own accounting, folded once per batch (and on drop,
    // when the run halts it).
    let tally = metrics.map(Tally::new);
    loop {
        let mut batch = {
            let mut state = shared.state.lock().expect(POISON);
            loop {
                if shared.halt.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(batch) = state.queue.pop_front() {
                    break batch;
                }
                if let Some(m) = metrics {
                    m.record_worker_wait();
                }
                state = shared.work_ready.wait(state).expect(POISON);
            }
        };
        let recorder = tally.as_ref().map(Tally::recorder);
        if !evaluate_batch(engine, &mut batch, worker, policy, recorder, &shared.halt) {
            return;
        }
        // Folded before the batch can be merged, so delivered work is
        // never ahead of evaluated work in the registry.
        if let Some(t) = &tally {
            t.flush();
        }
        let seq = batch.seq;
        shared
            .state
            .lock()
            .unwrap()
            .results
            .insert(seq, MergeItem::Batch(batch));
        shared.result_ready.notify_one();
    }
}

/// Evaluates every record of `batch`, each inside its own `catch_unwind`,
/// filling its spans and outcomes. Under [`ErrorPolicy::FailFast`] it stops
/// at the first failure (the merge aborts there). `false` when the run
/// halted mid-batch and the batch must be dropped.
fn evaluate_batch(
    engine: &dyn Evaluate,
    batch: &mut Batch,
    worker: usize,
    policy: ErrorPolicy,
    metrics: Option<&Metrics>,
    halt: &AtomicBool,
) -> bool {
    let Batch {
        first_idx,
        bytes,
        records,
        spans,
        outcomes,
        ..
    } = batch;
    let mut start = 0;
    for (i, rec) in records.iter().enumerate() {
        if halt.load(Ordering::Relaxed) {
            return false;
        }
        let record = &bytes[start..rec.end];
        start = rec.end;
        let idx = *first_idx + i as u64;
        let mark = spans.len();
        // Unwind safety: the engine is `&dyn Evaluate` with no
        // cross-record mutable state (evaluation state is rebuilt per
        // record), spans pushed by a torn evaluation are truncated away
        // below, and metrics counters are monotone saturating adds — a torn
        // update is at worst an off-by-one count, never a broken invariant.
        let mut stage = SpanSink(spans);
        let unwind = catch_unwind(AssertUnwindSafe(|| match metrics {
            Some(m) => {
                m.record_worker(worker, record.len() as u64);
                engine.evaluate_metered(record, idx, &mut stage, m)
            }
            None => engine.evaluate(record, idx, &mut stage),
        }));
        let error = match unwind {
            Ok(RecordOutcome::Failed(e)) => e,
            Ok(_) => {
                outcomes.push(Ok(spans.len()));
                continue;
            }
            Err(p) => {
                if let Some(m) = metrics {
                    m.record_worker_panic();
                }
                EngineError::Panic {
                    record_idx: idx,
                    payload: panic_payload(p.as_ref()),
                }
            }
        };
        spans.truncate(mark);
        outcomes.push(Err(error));
        if matches!(policy, ErrorPolicy::FailFast) {
            break;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::{CountSink, FnSink};
    use crate::JsonSki;

    fn stream_of(n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..n {
            out.extend_from_slice(format!("{{\"a\": {i}, \"pad\": [{i}, {i}]}}\n").as_bytes());
        }
        out
    }

    /// A record source over a fixed list of slices; unlike
    /// [`SliceRecords`] it can feed records an unbalanced stream could
    /// never be split into.
    struct Fixed<'a>(std::vec::IntoIter<&'a [u8]>);

    impl RecordSource for Fixed<'_> {
        fn next_record(&mut self) -> Result<Option<&[u8]>, EngineError> {
            Ok(self.0.next())
        }
    }

    #[test]
    fn parallel_matches_serial_counts() {
        let stream = stream_of(100);
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 2, 4, 16] {
            let mut sink = CountSink::default();
            let summary = Pipeline::new()
                .workers(workers)
                .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap();
            assert_eq!(summary.records, 100, "workers={workers}");
            assert_eq!(sink.matches, 100, "workers={workers}");
            assert_eq!(summary.matches, 100, "workers={workers}");
        }
    }

    #[test]
    fn merge_order_is_record_order_for_any_worker_count() {
        let stream = stream_of(60);
        let engine = JsonSki::compile("$.a").unwrap();
        let mut reference: Vec<(u64, Vec<u8>)> = Vec::new();
        {
            let mut sink = FnSink::new(|m: Match<'_>| {
                reference.push((m.record_idx(), m.bytes().to_vec()));
                ControlFlow::Continue(())
            });
            Pipeline::new()
                .workers(1)
                .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap();
        }
        for workers in [4, 16] {
            let mut got: Vec<(u64, Vec<u8>)> = Vec::new();
            let mut sink = FnSink::new(|m: Match<'_>| {
                got.push((m.record_idx(), m.bytes().to_vec()));
                ControlFlow::Continue(())
            });
            Pipeline::new()
                .workers(workers)
                .queue_depth(2)
                .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap();
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn early_exit_stops_the_stream() {
        let stream = stream_of(50);
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 4] {
            let mut seen = 0usize;
            let mut sink = FnSink::new(|_m: Match<'_>| {
                seen += 1;
                if seen == 3 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            let summary = Pipeline::new()
                .workers(workers)
                .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap();
            assert!(summary.stopped, "workers={workers}");
            assert_eq!(seen, 3, "workers={workers}");
            assert_eq!(summary.matches, 3, "workers={workers}");
        }
    }

    #[test]
    fn fail_fast_aborts_in_record_order() {
        let mut stream = stream_of(10);
        stream.extend_from_slice(b"{\"a\" 1}\n"); // record 10: missing colon
        stream.extend_from_slice(&stream_of(5));
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 4] {
            let mut sink = CountSink::default();
            let err = Pipeline::new()
                .workers(workers)
                .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap_err();
            assert!(matches!(err, EngineError::Stream(_)), "workers={workers}");
            assert_eq!(sink.matches, 10, "workers={workers}");
        }
    }

    #[test]
    fn skip_malformed_reports_and_continues() {
        let mut stream = stream_of(10);
        stream.extend_from_slice(b"{\"a\" 1}\n");
        stream.extend_from_slice(&stream_of(5));
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 4] {
            struct Recorder {
                matches: usize,
                errors: Vec<u64>,
            }
            impl MatchSink for Recorder {
                fn on_match(&mut self, _m: Match<'_>) -> ControlFlow<()> {
                    self.matches += 1;
                    ControlFlow::Continue(())
                }
                fn on_record_error(&mut self, idx: u64, _e: &EngineError) -> ControlFlow<()> {
                    self.errors.push(idx);
                    ControlFlow::Continue(())
                }
            }
            let mut sink = Recorder {
                matches: 0,
                errors: Vec::new(),
            };
            let summary = Pipeline::new()
                .workers(workers)
                .error_policy(ErrorPolicy::SkipMalformed)
                .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap();
            assert_eq!(sink.matches, 15, "workers={workers}");
            assert_eq!(sink.errors, vec![10], "workers={workers}");
            assert_eq!(summary.failed, 1, "workers={workers}");
            assert_eq!(summary.records, 16, "workers={workers}");
        }
    }

    #[test]
    fn serial_stages_partial_matches_of_failed_records() {
        // `$[*]` delivers `3` from the malformed record before the missing
        // `]` is discovered; staging must withhold it under SkipMalformed,
        // exactly as the parallel merge does.
        let engine = JsonSki::compile("$[*]").unwrap();
        let mut delivered: Vec<Vec<u8>> = Vec::new();
        let mut sink = FnSink::new(|m: Match<'_>| {
            delivered.push(m.bytes().to_vec());
            ControlFlow::Continue(())
        });
        let records: Vec<&[u8]> = vec![b"[1, 2]", b"[3, 4", b"[5]"];
        let summary = Pipeline::new()
            .workers(1)
            .error_policy(ErrorPolicy::SkipMalformed)
            .run(&engine, &mut Fixed(records.into_iter()), &mut sink)
            .unwrap();
        assert_eq!(summary.failed, 1);
        assert_eq!(summary.matches, 3);
        assert_eq!(
            delivered,
            vec![b"1".to_vec(), b"2".to_vec(), b"5".to_vec()],
            "partial matches of the failed record must not be delivered"
        );
    }

    #[test]
    fn serial_replay_borrows_the_source_record() {
        // The serial path replays matches over the source's own bytes: every
        // delivered record must lie inside the input, not in a copy of it.
        let stream = stream_of(50);
        let range = stream.as_ptr_range();
        let engine = JsonSki::compile("$.pad[*]").unwrap();
        let mut sink = FnSink::new(|m: Match<'_>| {
            let record = m.record().as_ptr_range();
            assert!(
                range.start <= record.start && record.end <= range.end,
                "record {} was copied out of the input",
                m.record_idx()
            );
            ControlFlow::Continue(())
        });
        let summary = Pipeline::new()
            .workers(1)
            .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
            .unwrap();
        assert_eq!(summary.matches, 100);
    }

    #[test]
    fn chunked_reader_source_works_in_parallel() {
        let stream = stream_of(40);
        let engine = JsonSki::compile("$.a").unwrap();
        let mut source = crate::ChunkedRecords::with_buffer_size(&stream[..], 32);
        let mut sink = CountSink::default();
        let summary = Pipeline::new()
            .workers(4)
            .run(&engine, &mut source, &mut sink)
            .unwrap();
        assert_eq!(summary.records, 40);
        assert_eq!(sink.matches, 40);
    }

    #[test]
    fn source_errors_abort_under_fail_fast() {
        let stream = b"{\"a\": 1}\n{\"a\": ";
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 4] {
            let err = Pipeline::new()
                .workers(workers)
                .run(
                    &engine,
                    &mut SliceRecords::new(stream),
                    &mut CountSink::default(),
                )
                .unwrap_err();
            assert!(matches!(err, EngineError::Stream(_)), "workers={workers}");
        }
    }

    #[test]
    fn source_errors_resync_when_skipping() {
        // A truncated trailing record breaks the *splitter*; SkipMalformed
        // resynchronizes past it and finishes the run cleanly.
        let stream = b"{\"a\": 1}\n{\"a\": ";
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 4] {
            let mut spans = Vec::new();
            struct Recorder<'a> {
                matches: usize,
                spans: &'a mut Vec<(u64, u64)>,
            }
            impl MatchSink for Recorder<'_> {
                fn on_match(&mut self, _m: Match<'_>) -> ControlFlow<()> {
                    self.matches += 1;
                    ControlFlow::Continue(())
                }
                fn on_resync(&mut self, span: (u64, u64), _e: &EngineError) -> ControlFlow<()> {
                    self.spans.push(span);
                    ControlFlow::Continue(())
                }
            }
            let mut sink = Recorder {
                matches: 0,
                spans: &mut spans,
            };
            let summary = Pipeline::new()
                .workers(workers)
                .error_policy(ErrorPolicy::SkipMalformed)
                .run(&engine, &mut SliceRecords::new(stream), &mut sink)
                .unwrap();
            assert_eq!(sink.matches, 1, "workers={workers}");
            assert_eq!(summary.records, 1, "workers={workers}");
            assert_eq!(summary.resyncs, 1, "workers={workers}");
            assert_eq!(summary.resync_bytes, 6, "workers={workers}");
            assert_eq!(spans, vec![(9, 15)], "workers={workers}");
        }
    }

    #[test]
    fn io_errors_never_resync() {
        // Fixed sources can't resync (default), and I/O errors must abort
        // even on sources that can.
        struct Broken(bool);
        impl RecordSource for Broken {
            fn next_record(&mut self) -> Result<Option<&[u8]>, EngineError> {
                if self.0 {
                    self.0 = false;
                    Ok(Some(b"{\"a\": 1}"))
                } else {
                    Err(EngineError::Io(std::io::Error::other("gone")))
                }
            }
            fn resync(&mut self) -> Result<Option<(u64, u64)>, EngineError> {
                panic!("resync must not be attempted for I/O errors");
            }
        }
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 4] {
            let err = Pipeline::new()
                .workers(workers)
                .error_policy(ErrorPolicy::SkipMalformed)
                .run(&engine, &mut Broken(true), &mut CountSink::default())
                .unwrap_err();
            assert!(matches!(err, EngineError::Io(_)), "workers={workers}");
        }
    }

    #[test]
    fn oversized_records_are_rejected_before_dispatch() {
        let engine = JsonSki::compile("$.a").unwrap();
        let records: Vec<&[u8]> = vec![
            b"{\"a\": 1}",
            b"{\"a\": 2, \"pad\": \"xxxxxxxxxxxxxxxx\"}",
            b"{\"a\": 3}",
        ];
        for workers in [1, 4] {
            let mut errors = Vec::new();
            struct Recorder<'a>(usize, &'a mut Vec<u64>);
            impl MatchSink for Recorder<'_> {
                fn on_match(&mut self, _m: Match<'_>) -> ControlFlow<()> {
                    self.0 += 1;
                    ControlFlow::Continue(())
                }
                fn on_record_error(&mut self, idx: u64, e: &EngineError) -> ControlFlow<()> {
                    assert!(matches!(e, EngineError::Limit(_)));
                    self.1.push(idx);
                    ControlFlow::Continue(())
                }
            }
            let mut sink = Recorder(0, &mut errors);
            let metrics = Arc::new(Metrics::new());
            let summary = Pipeline::new()
                .workers(workers)
                .error_policy(ErrorPolicy::SkipMalformed)
                .limits(crate::ResourceLimits::default().max_record_bytes(16))
                .metrics(Arc::clone(&metrics))
                .run(&engine, &mut Fixed(records.clone().into_iter()), &mut sink)
                .unwrap();
            assert_eq!(sink.0, 2, "workers={workers}");
            assert_eq!(*sink.1, vec![1], "workers={workers}");
            assert_eq!(summary.failed, 1, "workers={workers}");
            assert_eq!(summary.records, 3, "workers={workers}");
            let s = metrics.snapshot();
            assert_eq!(s.limit_rejections, 1, "workers={workers}");
            // Rejected before dispatch: the engine never evaluated it.
            assert_eq!(s.records_evaluated, 2, "workers={workers}");
        }
    }

    #[test]
    fn empty_stream_is_a_clean_run() {
        let engine = JsonSki::compile("$.a").unwrap();
        let mut sink = CountSink::default();
        let summary = Pipeline::new()
            .workers(4)
            .run(&engine, &mut SliceRecords::new(b"  \n "), &mut sink)
            .unwrap();
        assert_eq!(summary, PipelineSummary::default());
    }

    #[test]
    fn metrics_track_delivery_and_workers() {
        let stream = stream_of(50);
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 4] {
            let metrics = Arc::new(Metrics::new());
            let mut sink = CountSink::default();
            let summary = Pipeline::new()
                .workers(workers)
                .metrics(Arc::clone(&metrics))
                .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap();
            let s = metrics.snapshot();
            assert_eq!(s.records_delivered, 50, "workers={workers}");
            assert_eq!(s.matches_delivered, 50, "workers={workers}");
            assert_eq!(s.records_evaluated, 50, "workers={workers}");
            assert_eq!(s.matches_emitted, 50, "workers={workers}");
            assert_eq!(
                s.bytes_delivered,
                stream.len() as u64 - 50, // newline separators are not record bytes
                "workers={workers}"
            );
            assert_eq!(s.worker_records.iter().sum::<u64>(), 50);
            assert!(s.overall_ff_ratio() > 0.0, "workers={workers}");
            assert_eq!(summary.matches, 50);
        }
    }

    #[test]
    fn skipped_record_contributes_zero_to_match_and_ff_counters() {
        // The same stream with and without a malformed record injected
        // must yield identical delivered-match and fast-forward byte
        // counters: a skipped record contributes exactly zero.
        let engine = JsonSki::compile("$[*]").unwrap();
        let clean: Vec<&[u8]> = vec![b"[1, 2]", b"[5, 6, 7]"];
        let bad: Vec<&[u8]> = vec![b"[1, 2]", b"[3, 4", b"[5, 6, 7]"];
        for workers in [1, 4] {
            let run = |records: Vec<&[u8]>| {
                let metrics = Arc::new(Metrics::new());
                let mut sink = CountSink::default();
                Pipeline::new()
                    .workers(workers)
                    .error_policy(ErrorPolicy::SkipMalformed)
                    .metrics(Arc::clone(&metrics))
                    .run(&engine, &mut Fixed(records.into_iter()), &mut sink)
                    .unwrap();
                (metrics.snapshot(), sink.matches)
            };
            let (s_clean, m_clean) = run(clean.clone());
            let (s_bad, m_bad) = run(bad.clone());
            assert_eq!(m_bad, m_clean, "workers={workers}");
            assert_eq!(
                s_bad.matches_delivered, s_clean.matches_delivered,
                "workers={workers}"
            );
            assert_eq!(s_bad.ff_skipped, s_clean.ff_skipped, "workers={workers}");
            assert_eq!(
                s_bad.bytes_evaluated, s_clean.bytes_evaluated,
                "workers={workers}"
            );
            assert_eq!(s_bad.records_skipped, 1, "workers={workers}");
            assert_eq!(s_bad.records_failed, 1, "workers={workers}");
            assert_eq!(s_bad.bytes_failed, 5, "workers={workers}");
        }
    }

    #[test]
    fn worker_panics_become_typed_errors_at_the_right_index() {
        let stream = stream_of(12);
        let engine = JsonSki::compile("$.a").unwrap();
        let plan = crate::faults::FaultPlan::new(0).panic_every(5); // records 4 and 9
        let injector = crate::faults::PanicInjector::new(&engine, &plan);
        for workers in [1, 2, 8] {
            let mut panics = Vec::new();
            struct Recorder<'a> {
                matches: usize,
                panics: &'a mut Vec<(u64, u64)>,
            }
            impl MatchSink for Recorder<'_> {
                fn on_match(&mut self, _m: Match<'_>) -> ControlFlow<()> {
                    self.matches += 1;
                    ControlFlow::Continue(())
                }
                fn on_record_error(&mut self, idx: u64, e: &EngineError) -> ControlFlow<()> {
                    match e {
                        EngineError::Panic { record_idx, .. } => {
                            self.panics.push((idx, *record_idx));
                        }
                        other => panic!("expected Panic, got {other}"),
                    }
                    ControlFlow::Continue(())
                }
            }
            let mut sink = Recorder {
                matches: 0,
                panics: &mut panics,
            };
            let metrics = Arc::new(Metrics::new());
            let summary = Pipeline::new()
                .workers(workers)
                .error_policy(ErrorPolicy::SkipMalformed)
                .metrics(Arc::clone(&metrics))
                .run(&injector, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap();
            assert_eq!(summary.records, 12, "workers={workers}");
            assert_eq!(summary.failed, 2, "workers={workers}");
            assert_eq!(sink.matches, 10, "workers={workers}");
            // The error's own record_idx must agree with the callback's.
            assert_eq!(*sink.panics, vec![(4, 4), (9, 9)], "workers={workers}");
            assert_eq!(metrics.snapshot().worker_panics, 2, "workers={workers}");
        }
    }

    #[test]
    fn fail_fast_panic_drains_in_order_then_aborts() {
        let stream = stream_of(10);
        let engine = JsonSki::compile("$.a").unwrap();
        let plan = crate::faults::FaultPlan::new(0).panic_every(6); // record 5
        let injector = crate::faults::PanicInjector::new(&engine, &plan);
        for workers in [1, 4] {
            let mut sink = CountSink::default();
            let err = Pipeline::new()
                .workers(workers)
                .run(&injector, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap_err();
            match err {
                EngineError::Panic { record_idx, .. } => {
                    assert_eq!(record_idx, 5, "workers={workers}")
                }
                other => panic!("expected Panic, got {other} (workers={workers})"),
            }
            // Everything before the panicked record was still delivered.
            assert_eq!(sink.matches, 5, "workers={workers}");
        }
    }

    #[test]
    fn sink_panic_joins_workers_instead_of_deadlocking() {
        // Without the ReleaseWorkers drop guard this test never returns:
        // the scope join waits on workers parked on the work condvar.
        let stream = stream_of(64);
        let engine = JsonSki::compile("$.a").unwrap();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut sink = FnSink::new(|m: Match<'_>| {
                let idx = m.record_idx();
                if idx == 3 {
                    panic!("sink exploded");
                }
                ControlFlow::Continue(())
            });
            Pipeline::new().workers(4).queue_depth(2).run(
                &engine,
                &mut SliceRecords::new(&stream),
                &mut sink,
            )
        }));
        assert!(result.is_err(), "the sink panic must propagate");
    }

    #[test]
    fn early_break_joins_workers_before_returning() {
        // `run` returns through `thread::scope`, which joins every worker;
        // observing an in-flight evaluation after `run` returned would mean
        // a leaked thread. The gauge engine counts entries and exits.
        use std::sync::atomic::{AtomicI64, Ordering};
        struct Gauge<'a> {
            inner: &'a JsonSki,
            active: &'a AtomicI64,
        }
        impl Evaluate for Gauge<'_> {
            fn name(&self) -> &'static str {
                "gauge"
            }
            fn evaluate(
                &self,
                record: &[u8],
                record_idx: u64,
                sink: &mut dyn MatchSink,
            ) -> RecordOutcome {
                self.active.fetch_add(1, Ordering::SeqCst);
                let out = self.inner.evaluate(record, record_idx, sink);
                self.active.fetch_sub(1, Ordering::SeqCst);
                out
            }
        }
        let stream = stream_of(200);
        let engine = JsonSki::compile("$.a").unwrap();
        let active = AtomicI64::new(0);
        let gauge = Gauge {
            inner: &engine,
            active: &active,
        };
        let mut sink = FnSink::new(|_m: Match<'_>| ControlFlow::Break(()));
        let summary = Pipeline::new()
            .workers(8)
            .run(&gauge, &mut SliceRecords::new(&stream), &mut sink)
            .unwrap();
        assert!(summary.stopped);
        assert_eq!(
            active.load(Ordering::SeqCst),
            0,
            "no worker may outlive the run"
        );
    }

    #[test]
    fn cancellation_drains_and_reports_committed_offset() {
        let stream = stream_of(30);
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 4] {
            let token = crate::CancellationToken::new();
            let trip = token.clone();
            let mut sink = FnSink::new(move |m: Match<'_>| {
                let idx = m.record_idx();
                if idx == 2 {
                    trip.cancel();
                }
                ControlFlow::Continue(())
            });
            let summary = Pipeline::new()
                .workers(workers)
                .cancel_token(token)
                .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap();
            assert!(summary.cancelled, "workers={workers}");
            assert!(!summary.stopped, "workers={workers}");
            assert!(
                summary.records >= 3 && summary.records < 30,
                "workers={workers}, records={}",
                summary.records
            );
            // Everything dispatched was still delivered in order...
            assert_eq!(summary.matches as u64, summary.records, "workers={workers}");
            // ...and a second run from the committed offset covers the rest
            // of the stream exactly once.
            let rest = &stream[summary.committed_offset as usize..];
            let mut tail_sink = CountSink::default();
            let tail = Pipeline::new()
                .workers(workers)
                .run(&engine, &mut SliceRecords::new(rest), &mut tail_sink)
                .unwrap();
            assert_eq!(summary.records + tail.records, 30, "workers={workers}");
            assert_eq!(summary.matches + tail_sink.matches, 30, "workers={workers}");
        }
    }

    #[test]
    fn pre_cancelled_run_delivers_nothing() {
        let stream = stream_of(10);
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 4] {
            let token = crate::CancellationToken::new();
            token.cancel();
            let mut sink = CountSink::default();
            let summary = Pipeline::new()
                .workers(workers)
                .cancel_token(token)
                .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap();
            assert!(summary.cancelled, "workers={workers}");
            assert_eq!(summary.records, 0, "workers={workers}");
            assert_eq!(sink.matches, 0, "workers={workers}");
        }
    }

    #[test]
    fn checkpoints_report_only_delivered_work() {
        let stream = stream_of(10);
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 4] {
            struct Recorder {
                matches: usize,
                checkpoints: Vec<PipelineSummary>,
            }
            impl MatchSink for Recorder {
                fn on_match(&mut self, _m: Match<'_>) -> ControlFlow<()> {
                    self.matches += 1;
                    ControlFlow::Continue(())
                }
                fn on_checkpoint(&mut self, summary: &PipelineSummary) -> Result<(), EngineError> {
                    // Invariant: a checkpoint never claims undelivered work.
                    assert_eq!(summary.matches, self.matches);
                    self.checkpoints.push(*summary);
                    Ok(())
                }
            }
            let mut sink = Recorder {
                matches: 0,
                checkpoints: Vec::new(),
            };
            let metrics = Arc::new(Metrics::new());
            let summary = Pipeline::new()
                .workers(workers)
                .metrics(Arc::clone(&metrics))
                .checkpoints(CheckpointCadence::default().every_records(3))
                .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap();
            // Cadence checkpoints at records 3, 6, 9 plus the final one.
            assert_eq!(sink.checkpoints.len(), 4, "workers={workers}");
            let records: Vec<u64> = sink.checkpoints.iter().map(|s| s.records).collect();
            assert_eq!(records, vec![3, 6, 9, 10], "workers={workers}");
            assert!(
                sink.checkpoints
                    .windows(2)
                    .all(|w| w[0].committed_offset <= w[1].committed_offset),
                "workers={workers}"
            );
            assert_eq!(*sink.checkpoints.last().unwrap(), summary);
            assert_eq!(metrics.snapshot().checkpoints, 4, "workers={workers}");
        }
    }

    #[test]
    fn checkpoint_failure_aborts_the_run() {
        let stream = stream_of(20);
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 4] {
            struct Failing(usize);
            impl MatchSink for Failing {
                fn on_match(&mut self, _m: Match<'_>) -> ControlFlow<()> {
                    ControlFlow::Continue(())
                }
                fn on_checkpoint(&mut self, _s: &PipelineSummary) -> Result<(), EngineError> {
                    self.0 += 1;
                    Err(EngineError::Io(std::io::Error::other("disk full")))
                }
            }
            let mut sink = Failing(0);
            let err = Pipeline::new()
                .workers(workers)
                .checkpoints(CheckpointCadence::default().every_records(5))
                .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap_err();
            assert!(matches!(err, EngineError::Io(_)), "workers={workers}");
            assert_eq!(sink.0, 1, "workers={workers}");
        }
    }

    #[test]
    fn committed_offset_spans_resyncs_and_records() {
        let stream = b"{\"a\": 1}\n{\"a\": \n{\"a\": 2}\n";
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 4] {
            let mut sink = CountSink::default();
            let summary = Pipeline::new()
                .workers(workers)
                .error_policy(ErrorPolicy::SkipMalformed)
                .run(&engine, &mut SliceRecords::new(stream), &mut sink)
                .unwrap();
            assert_eq!(summary.records, 2, "workers={workers}");
            assert_eq!(summary.resyncs, 1, "workers={workers}");
            // The high-water mark covers the final record.
            assert_eq!(
                summary.committed_offset,
                stream.len() as u64 - 1, // the trailing newline is never consumed
                "workers={workers}"
            );
        }
    }

    #[test]
    fn handoffs_are_per_batch_not_per_record() {
        // `queue_occupancy` takes one sample per handoff. Batch boundaries
        // depend only on the input, so the count is exact: tiny records
        // fill batches by record count, large ones by bytes.
        fn handoffs(stream: &[u8], records: usize) -> u64 {
            let engine = JsonSki::compile("$.a").unwrap();
            let collect = |workers: usize, metrics: Arc<Metrics>| {
                let mut got: Vec<(u64, Vec<u8>)> = Vec::new();
                let mut sink = FnSink::new(|m: Match<'_>| {
                    got.push((m.record_idx(), m.bytes().to_vec()));
                    ControlFlow::Continue(())
                });
                let summary = Pipeline::new()
                    .workers(workers)
                    .metrics(metrics)
                    .run(&engine, &mut SliceRecords::new(stream), &mut sink)
                    .unwrap();
                assert_eq!(summary.records, records as u64);
                got
            };
            let metrics = Arc::new(Metrics::new());
            let parallel = collect(2, Arc::clone(&metrics));
            assert_eq!(parallel, collect(1, Arc::new(Metrics::new())));
            assert_eq!(parallel.len(), records);
            metrics.snapshot().queue_occupancy.count()
        }
        let tiny = handoffs(&stream_of(10_000), 10_000);
        assert_eq!(tiny, 10_000u64.div_ceil(BATCH_RECORDS as u64));
        assert!(tiny <= 10_000 / 32, "{tiny} handoffs");
        // 40 KiB records: the second one crosses BATCH_BYTES, so batches
        // hold two records each.
        let big = format!("{{\"pad\": \"{}\", \"a\": 1}}\n", "x".repeat(40 * 1024));
        assert_eq!(handoffs(big.repeat(5).as_bytes(), 5), 3);
    }

    #[test]
    fn fail_fast_source_error_delivers_every_earlier_record_first() {
        // An unrecoverable source error is an event in the merge sequence:
        // every record before it is delivered, exactly as a serial run does.
        let mut stream = stream_of(700);
        stream.extend_from_slice(b"{\"a\": [1, 2\n");
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 2, 8] {
            let mut sink = CountSink::default();
            let err = Pipeline::new()
                .workers(workers)
                .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap_err();
            assert!(matches!(err, EngineError::Stream(_)), "workers={workers}");
            assert_eq!(sink.matches, 700, "workers={workers}");
        }
    }

    #[test]
    fn source_end_after_the_token_trips_reports_cancelled() {
        // `ChunkedRecords` answers a tripped token with a clean-looking end
        // of stream. A token that trips after the pipeline's own check (here,
        // inside the read itself) must still end the run as cancelled.
        struct TripThenRead<'a> {
            token: crate::CancellationToken,
            reads_before_trip: usize,
            inner: crate::ChunkedRecords<&'a [u8]>,
        }
        impl RecordSource for TripThenRead<'_> {
            fn next_record(&mut self) -> Result<Option<&[u8]>, EngineError> {
                if self.reads_before_trip == 0 {
                    self.token.cancel();
                } else {
                    self.reads_before_trip -= 1;
                }
                RecordSource::next_record(&mut self.inner)
            }
        }
        let stream = stream_of(20);
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 2] {
            for reads_before_trip in [0, 3] {
                let token = crate::CancellationToken::new();
                let mut source = TripThenRead {
                    token: token.clone(),
                    reads_before_trip,
                    inner: crate::ChunkedRecords::new(&stream[..]).cancel_token(token.clone()),
                };
                let mut sink = CountSink::default();
                let summary = Pipeline::new()
                    .workers(workers)
                    .cancel_token(token)
                    .run(&engine, &mut source, &mut sink)
                    .unwrap();
                let at = format!("workers={workers} trip after {reads_before_trip} reads");
                assert!(summary.cancelled, "{at}");
                assert!(summary.records <= reads_before_trip as u64, "{at}");
            }
        }
    }

    /// `$[*].a` over one array record of about 640 KiB whose evaluation
    /// sleeps past the deadline at its first match; records where the
    /// deadline fired.
    struct SleepAtFirstMatch<'a> {
        engine: &'a JsonSki,
        nap: std::time::Duration,
        expired_at: Mutex<Option<usize>>,
    }

    impl Evaluate for SleepAtFirstMatch<'_> {
        fn name(&self) -> &'static str {
            "sleep-at-first-match"
        }

        fn evaluate(
            &self,
            record: &[u8],
            record_idx: u64,
            sink: &mut dyn MatchSink,
        ) -> RecordOutcome {
            let mut seen = 0;
            let result = self.engine.stream(record, |m| {
                seen += 1;
                if seen == 1 {
                    std::thread::sleep(self.nap);
                }
                sink.on_match(m.with_record_idx(record_idx))
            });
            match result {
                Ok(outcome) => RecordOutcome::Complete {
                    matches: outcome.matches,
                },
                Err(e) => {
                    if let crate::StreamError::DeadlineExpired { pos } = e {
                        *self.expired_at.lock().unwrap() = Some(pos);
                    }
                    RecordOutcome::Failed(crate::evaluate::classify_stream_error(
                        e,
                        &self.engine.config().limits,
                    ))
                }
            }
        }
    }

    #[test]
    fn deadline_fires_inside_one_large_record_past_the_first_check_window() {
        // The clock is read at the root container and then only every
        // 64 KiB of input: the expiry during the first match is noticed at
        // the first container entry 64 KiB on, well before the record ends.
        let mut record = String::from("[");
        for i in 0..16_000 {
            record.push_str(&format!("{{\"a\": {i}, \"pad\": \"xxxxxxxxxxxxxx\"}}, "));
        }
        record.push_str("{\"a\": -1}]");
        assert!(record.len() >= 512 * 1024);
        let limits = ResourceLimits::default().deadline(std::time::Duration::from_millis(100));
        let engine = JsonSki::compile("$[*].a").unwrap().with_limits(limits);
        for workers in [1, 2] {
            let slow = SleepAtFirstMatch {
                engine: &engine,
                nap: std::time::Duration::from_millis(150),
                expired_at: Mutex::new(None),
            };
            let err = Pipeline::new()
                .workers(workers)
                .limits(limits)
                .run(
                    &slow,
                    &mut SliceRecords::new(record.as_bytes()),
                    &mut CountSink::default(),
                )
                .unwrap_err();
            assert!(
                matches!(err, EngineError::Limit(LimitExceeded::Deadline { .. })),
                "workers={workers}: {err}"
            );
            let pos = slow.expired_at.lock().unwrap().expect("deadline position");
            assert!(
                (64 * 1024..128 * 1024).contains(&pos),
                "workers={workers}: expired at byte {pos}"
            );
        }
    }

    #[test]
    fn counters_are_exact_on_every_exit_path() {
        // Each thread's tally is folded when the run ends, whichever way:
        // after an error, an early stop and a cancellation the registry
        // already holds every record the run accounted for.
        let mut bad = stream_of(10);
        bad.extend_from_slice(b"{\"a\" 1}\n");
        bad.extend_from_slice(&stream_of(5));
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 2] {
            let metrics = Arc::new(Metrics::new());
            let mut sink = CountSink::default();
            Pipeline::new()
                .workers(workers)
                .metrics(Arc::clone(&metrics))
                .run(&engine, &mut SliceRecords::new(&bad), &mut sink)
                .unwrap_err();
            let s = metrics.snapshot();
            assert_eq!(s.records_delivered, 10, "workers={workers}");
            assert_eq!(s.matches_delivered, 10, "workers={workers}");
            assert!(s.records_failed >= 1, "workers={workers}");
            assert_eq!(
                s.worker_records.iter().sum::<u64>(),
                s.records_evaluated + s.records_failed,
                "workers={workers}"
            );

            let metrics = Arc::new(Metrics::new());
            let mut sink = FnSink::new(|_m: Match<'_>| ControlFlow::Break(()));
            let summary = Pipeline::new()
                .workers(workers)
                .metrics(Arc::clone(&metrics))
                .run(&engine, &mut SliceRecords::new(&bad), &mut sink)
                .unwrap();
            assert!(summary.stopped);
            let s = metrics.snapshot();
            assert_eq!(s.records_delivered, 1, "workers={workers}");
            assert_eq!(s.matches_delivered, 1, "workers={workers}");
            assert!(s.records_evaluated >= 1, "workers={workers}");

            let token = crate::CancellationToken::new();
            let trip = token.clone();
            let metrics = Arc::new(Metrics::new());
            let mut sink = FnSink::new(move |m: Match<'_>| {
                if m.record_idx() == 4 {
                    trip.cancel();
                }
                ControlFlow::Continue(())
            });
            let clean = stream_of(600);
            let summary = Pipeline::new()
                .workers(workers)
                .metrics(Arc::clone(&metrics))
                .cancel_token(token)
                .run(&engine, &mut SliceRecords::new(&clean), &mut sink)
                .unwrap();
            assert!(summary.cancelled);
            let s = metrics.snapshot();
            assert_eq!(s.records_delivered, summary.records, "workers={workers}");
            assert_eq!(
                s.matches_delivered, summary.matches as u64,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn counters_advance_per_batch_while_a_run_is_in_flight() {
        // Mid-run, the shared registry lags the work done by less than a
        // batch per thread; it is never left untouched until the end.
        let stream = stream_of(1_000);
        let engine = JsonSki::compile("$.a").unwrap();
        for workers in [1, 2] {
            let metrics = Arc::new(Metrics::new());
            let observer = Arc::clone(&metrics);
            let mut seen_at_600 = None;
            let mut sink = FnSink::new(|m: Match<'_>| {
                if m.record_idx() == 600 {
                    seen_at_600 = Some(observer.snapshot().records_delivered);
                }
                ControlFlow::Continue(())
            });
            Pipeline::new()
                .workers(workers)
                .metrics(Arc::clone(&metrics))
                .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
                .unwrap();
            let mid = seen_at_600.unwrap();
            assert!(
                (600 - BATCH_RECORDS as u64..=600).contains(&mid),
                "workers={workers}: {mid} records delivered in the registry at record 600"
            );
            assert_eq!(metrics.snapshot().records_delivered, 1_000);
        }
    }

    #[test]
    fn disabled_metrics_leave_no_trace() {
        let stream = stream_of(20);
        let engine = JsonSki::compile("$.a").unwrap();
        let metrics = Arc::new(Metrics::disabled());
        let mut sink = CountSink::default();
        Pipeline::new()
            .workers(4)
            .metrics(Arc::clone(&metrics))
            .run(&engine, &mut SliceRecords::new(&stream), &mut sink)
            .unwrap();
        assert_eq!(metrics.snapshot(), crate::MetricsSnapshot::default());
        assert_eq!(sink.matches, 20);
    }
}
