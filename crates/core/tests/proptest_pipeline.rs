//! Property-based serial/parallel pipeline equivalence: on random record
//! batches — including injected malformed records — a [`Pipeline`] must
//! deliver a byte-identical match stream, the same summary, and the same
//! deterministic metrics totals for every worker count and both error
//! policies. Evaluated-side counters are additionally compared under
//! [`ErrorPolicy::SkipMalformed`], where every record is evaluated exactly
//! once regardless of parallelism (under `FailFast` workers may speculate
//! past the failing record, so only delivered-side counters are portable).
//!
//! The long-stream properties at the end cross the parallel pipeline's
//! record-batch boundaries: hundreds of records, some larger than a whole
//! batch, with rejections, malformed records and resyncs landing mid-batch.

use std::ops::ControlFlow;
use std::sync::Arc;

use proptest::prelude::*;

use jsonski::{
    CancellationToken, EngineError, ErrorPolicy, JsonSki, Match, MatchSink, Metrics,
    MetricsSnapshot, Pipeline, PipelineSummary, RecordSource, ResourceLimits, SliceRecords,
};

/// Owned in-memory record batch (malformed records included verbatim —
/// unlike `SliceRecords`, boundaries are given, not discovered).
struct OwnedRecords {
    records: Vec<Vec<u8>>,
    next: usize,
}

impl RecordSource for OwnedRecords {
    fn next_record(&mut self) -> Result<Option<&[u8]>, EngineError> {
        if self.next >= self.records.len() {
            return Ok(None);
        }
        let r = &self.records[self.next];
        self.next += 1;
        Ok(Some(r))
    }
}

/// Sink recording the full delivered stream: matches and skip reports.
#[derive(Default, PartialEq, Eq, Debug)]
struct Recorder {
    matches: Vec<(u64, Vec<u8>)>,
    errors: Vec<u64>,
}

impl MatchSink for Recorder {
    fn on_match(&mut self, m: Match<'_>) -> ControlFlow<()> {
        self.matches.push((m.record_idx(), m.bytes().to_vec()));
        ControlFlow::Continue(())
    }

    fn on_record_error(&mut self, record_idx: u64, _error: &EngineError) -> ControlFlow<()> {
        self.errors.push(record_idx);
        ControlFlow::Continue(())
    }
}

/// A well-formed record drawing from the key/shape universe the queries
/// below can address.
fn valid_record() -> BoxedStrategy<Vec<u8>> {
    let scalar = prop_oneof![
        Just("null".to_string()),
        (-999i64..999).prop_map(|n| n.to_string()),
        Just("\"x{y}\\\"z\"".to_string()),
    ];
    scalar
        .prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..4)
                    .prop_map(|vs| format!("[{}]", vs.join(", "))),
                prop::collection::btree_map(
                    prop_oneof![
                        Just("a".to_string()),
                        Just("b".to_string()),
                        Just("c".to_string())
                    ],
                    inner,
                    0..4
                )
                .prop_map(|m| {
                    let fields: Vec<String> = m
                        .into_iter()
                        .map(|(k, v)| format!("\"{k}\": {v}"))
                        .collect();
                    format!("{{{}}}", fields.join(", "))
                }),
            ]
        })
        .prop_map(String::into_bytes)
        .boxed()
}

/// A structurally malformed record (missing colon, unclosed or mismatched
/// containers) — the kinds of damage every engine must diagnose.
fn malformed_record() -> BoxedStrategy<Vec<u8>> {
    prop_oneof![
        Just(b"{\"a\" 1}".to_vec()),
        Just(b"{\"a\": [1, 2".to_vec()),
        Just(b"{\"a\": [3, 30}".to_vec()),
        Just(b"[1, {\"b\": 2]".to_vec()),
    ]
    .boxed()
}

/// A batch of up to a dozen records, roughly one in five malformed.
fn batch() -> BoxedStrategy<Vec<Vec<u8>>> {
    prop::collection::vec(
        prop_oneof![4 => valid_record(), 1 => malformed_record()],
        0..12,
    )
    .boxed()
}

/// A record that breaks the *splitter* (not just evaluation): excess
/// closers error mid-stream and resynchronize past the line; unbalanced
/// opens swallow following lines until balance or end of stream. Both
/// exercise [`MatchSink::on_resync`] under [`ErrorPolicy::SkipMalformed`].
fn splitter_breaking_record() -> BoxedStrategy<Vec<u8>> {
    prop_oneof![
        Just(b"]".to_vec()),
        Just(b"}".to_vec()),
        Just(b"[1, 2]]".to_vec()),
        Just(b"{\"a\": 1}}".to_vec()),
        Just(b"{\"a\": [1, 2".to_vec()),
    ]
    .boxed()
}

/// A batch dense in splitter-breaking damage, so most runs resynchronize
/// at least once.
fn resync_batch() -> BoxedStrategy<Vec<Vec<u8>>> {
    prop::collection::vec(
        prop_oneof![2 => valid_record(), 1 => splitter_breaking_record()],
        1..12,
    )
    .boxed()
}

/// Largest record the long streams below accept; longer ones are rejected
/// before dispatch. The pipeline hands records over in batches of at most
/// 64 KiB, so records between the two fill a batch on their own.
const LONG_LIMIT: usize = 80 * 1024;

/// A record of `lo..hi` bytes, give or take 16: a long string to skip, or
/// a long array of matches for the `a` queries.
fn sized_record(lo: usize, hi: usize) -> BoxedStrategy<Vec<u8>> {
    (lo..hi, 0usize..2)
        .prop_map(|(len, dense)| {
            let mut r = if dense == 1 {
                let mut r = b"{\"a\": [0".to_vec();
                let mut i = 1;
                while r.len() + 16 < len {
                    r.extend_from_slice(format!(", {i}").as_bytes());
                    i += 1;
                }
                r.extend_from_slice(b"]");
                r
            } else {
                let mut r = b"{\"b\": {\"c\": 1}, \"pad\": \"".to_vec();
                r.resize(len.saturating_sub(12), b'x');
                r.extend_from_slice(b"\", \"a\": 7");
                r
            };
            r.extend_from_slice(b"}");
            r
        })
        .boxed()
}

/// Hundreds of records: mostly small valid ones, with malformed,
/// splitter-breaking, larger-than-a-batch and over-the-limit records mixed
/// in, so flushes, pre-dispatch rejections and resyncs land mid-batch.
fn long_stream() -> BoxedStrategy<Vec<u8>> {
    prop::collection::vec(
        prop_oneof![
            120 => valid_record(),
            3 => malformed_record(),
            2 => splitter_breaking_record(),
            1 => sized_record(64 * 1024 + 64, LONG_LIMIT),
            1 => sized_record(LONG_LIMIT + 64, LONG_LIMIT + 4096),
        ],
        200..600,
    )
    .prop_map(|records| {
        let mut stream = Vec::new();
        for r in records {
            stream.extend_from_slice(&r);
            stream.push(b'\n');
        }
        stream
    })
    .boxed()
}

/// One sink callback, as observed.
#[derive(Debug, PartialEq, Eq)]
enum Event {
    Match(u64, Vec<u8>),
    Error(u64, String),
    Resync((u64, u64)),
}

/// Sink recording every callback in order; optionally trips a token on the
/// `n`-th callback.
#[derive(Default)]
struct Tape {
    events: Vec<Event>,
    cancel_at: Option<(usize, CancellationToken)>,
}

impl Tape {
    fn log(&mut self, event: Event) -> ControlFlow<()> {
        self.events.push(event);
        if let Some((at, token)) = &self.cancel_at {
            if self.events.len() == *at {
                token.cancel();
            }
        }
        ControlFlow::Continue(())
    }

    fn match_bytes(&self) -> impl Iterator<Item = &[u8]> {
        self.events.iter().filter_map(|e| match e {
            Event::Match(_, bytes) => Some(bytes.as_slice()),
            _ => None,
        })
    }
}

impl MatchSink for Tape {
    fn on_match(&mut self, m: Match<'_>) -> ControlFlow<()> {
        self.log(Event::Match(m.record_idx(), m.bytes().to_vec()))
    }

    fn on_record_error(&mut self, record_idx: u64, error: &EngineError) -> ControlFlow<()> {
        self.log(Event::Error(record_idx, error.to_string()))
    }

    fn on_resync(&mut self, span: (u64, u64), _error: &EngineError) -> ControlFlow<()> {
        self.log(Event::Resync(span))
    }
}

/// Runs a long stream through `SliceRecords` with [`LONG_LIMIT`] enforced,
/// cancelling on the `n`-th sink callback when `cancel_at` is set.
fn run_long(
    engine: &JsonSki,
    stream: &[u8],
    jobs: usize,
    policy: ErrorPolicy,
    cancel_at: Option<usize>,
) -> (Tape, Result<PipelineSummary, String>) {
    let mut pipeline = Pipeline::new()
        .workers(jobs)
        .error_policy(policy)
        .limits(ResourceLimits::default().max_record_bytes(LONG_LIMIT));
    let mut tape = Tape::default();
    if let Some(at) = cancel_at {
        let token = CancellationToken::new();
        pipeline = pipeline.cancel_token(token.clone());
        tape.cancel_at = Some((at, token));
    }
    let result = pipeline
        .run(engine, &mut SliceRecords::new(stream), &mut tape)
        .map_err(|e| e.to_string());
    (tape, result)
}

fn query() -> BoxedStrategy<String> {
    prop_oneof![
        Just("$.a".to_string()),
        Just("$.a[*]".to_string()),
        Just("$[*]".to_string()),
        Just("$.*".to_string()),
        Just("$.a.b".to_string()),
    ]
    .boxed()
}

/// The metrics totals that must be identical for every worker count.
fn delivered_totals(s: &MetricsSnapshot) -> (u64, u64, u64, u64) {
    (
        s.records_delivered,
        s.matches_delivered,
        s.bytes_delivered,
        s.records_skipped,
    )
}

/// The evaluated-side totals, portable only when every record is evaluated
/// exactly once (SkipMalformed, or failure-free FailFast runs).
fn evaluated_totals(s: &MetricsSnapshot) -> (u64, u64, u64, u64, [u64; 5]) {
    (
        s.records_evaluated,
        s.records_failed,
        s.matches_emitted,
        s.bytes_evaluated,
        s.ff_skipped,
    )
}

#[allow(clippy::type_complexity)]
fn run(
    engine: &JsonSki,
    records: &[Vec<u8>],
    jobs: usize,
    policy: ErrorPolicy,
) -> (Recorder, Result<PipelineSummary, String>, MetricsSnapshot) {
    let metrics = Arc::new(Metrics::new());
    let mut source = OwnedRecords {
        records: records.to_vec(),
        next: 0,
    };
    let mut sink = Recorder::default();
    let result = Pipeline::new()
        .workers(jobs)
        .error_policy(policy)
        .metrics(Arc::clone(&metrics))
        .run(engine, &mut source, &mut sink)
        .map_err(|e| e.to_string());
    (sink, result, metrics.snapshot())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_pipeline_equals_serial(records in batch(), q in query()) {
        let engine = JsonSki::compile(&q).unwrap();
        let has_malformed = records.iter().any(|r| engine.count(r).is_err());
        for policy in [ErrorPolicy::FailFast, ErrorPolicy::SkipMalformed] {
            let (ref_sink, ref_result, ref_snap) = run(&engine, &records, 1, policy);
            for jobs in [2usize, 8] {
                let (sink, result, snap) = run(&engine, &records, jobs, policy);
                prop_assert_eq!(
                    &sink, &ref_sink,
                    "delivered stream diverges: q={} jobs={} policy={:?}", q, jobs, policy
                );
                match (&result, &ref_result) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "summary: q={} jobs={}", q, jobs),
                    (Err(_), Err(_)) => {}
                    (a, b) => {
                        prop_assert!(false, "result kind diverges: jobs={} {:?} vs {:?}", jobs, a, b);
                    }
                }
                prop_assert_eq!(
                    delivered_totals(&snap),
                    delivered_totals(&ref_snap),
                    "delivered metrics: q={} jobs={} policy={:?}", q, jobs, policy
                );
                // SkipMalformed evaluates every record exactly once whatever
                // the worker count; so does FailFast when nothing fails.
                if policy == ErrorPolicy::SkipMalformed || !has_malformed {
                    prop_assert_eq!(
                        evaluated_totals(&snap),
                        evaluated_totals(&ref_snap),
                        "evaluated metrics: q={} jobs={} policy={:?}", q, jobs, policy
                    );
                }
            }
            // The pipeline's own summary must agree with the sink's view and
            // the metrics registry's delivered counters.
            if let Ok(summary) = &ref_result {
                prop_assert_eq!(summary.matches, ref_sink.matches.len());
                prop_assert_eq!(summary.failed, ref_sink.errors.len() as u64);
                prop_assert_eq!(ref_snap.matches_delivered, ref_sink.matches.len() as u64);
                prop_assert_eq!(ref_snap.records_skipped, ref_sink.errors.len() as u64);
            }
        }
    }

    // Summary accounting must not drift across checkpoints: splitting a
    // batch at an arbitrary point and summing the two segments' summaries
    // must equal the uninterrupted run, counter for counter, with the
    // delivered match stream concatenating byte-identically.
    #[test]
    fn split_run_summaries_sum_to_the_whole(
        records in batch(),
        q in query(),
        split in 0usize..12,
        jobs in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let engine = JsonSki::compile(&q).unwrap();
        let k = split.min(records.len());
        let (full_sink, full, _) = run(&engine, &records, jobs, ErrorPolicy::SkipMalformed);
        let full = full.unwrap();
        let (head_sink, head, _) = run(&engine, &records[..k], jobs, ErrorPolicy::SkipMalformed);
        let (tail_sink, tail, _) = run(&engine, &records[k..], jobs, ErrorPolicy::SkipMalformed);
        let (head, tail) = (head.unwrap(), tail.unwrap());

        prop_assert_eq!(head.records + tail.records, full.records);
        prop_assert_eq!(head.matches + tail.matches, full.matches);
        prop_assert_eq!(head.failed + tail.failed, full.failed);
        prop_assert_eq!(head.resyncs + tail.resyncs, full.resyncs);
        prop_assert_eq!(head.resync_bytes + tail.resync_bytes, full.resync_bytes);

        let whole: Vec<&[u8]> = full_sink.matches.iter().map(|(_, b)| b.as_slice()).collect();
        let glued: Vec<&[u8]> = head_sink
            .matches
            .iter()
            .chain(tail_sink.matches.iter())
            .map(|(_, b)| b.as_slice())
            .collect();
        prop_assert_eq!(glued, whole, "q={} jobs={} k={}", q, jobs, k);
    }

    // Cancelling mid-run and resuming from the committed offset must cover
    // the byte stream exactly once: segment summaries sum to the
    // uninterrupted run's, and the match bytes concatenate identically —
    // even when resynchronizations occupy part of the stream.
    #[test]
    fn cancel_then_resume_covers_the_stream_once(
        records in batch(),
        q in query(),
        cancel_at in 1usize..8,
        jobs in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let engine = JsonSki::compile(&q).unwrap();
        let mut stream = Vec::new();
        for r in &records {
            stream.extend_from_slice(r);
            stream.push(b'\n');
        }

        let run_slice = |bytes: &[u8], token: Option<CancellationToken>| {
            let mut source = SliceRecords::new(bytes);
            let mut sink = Recorder::default();
            let mut pipeline = Pipeline::new()
                .workers(jobs)
                .error_policy(ErrorPolicy::SkipMalformed);
            if let Some(t) = &token {
                pipeline = pipeline.cancel_token(t.clone());
            }
            let summary = pipeline.run(&engine, &mut source, &mut sink).unwrap();
            (sink, summary)
        };

        let (full_sink, full) = run_slice(&stream, None);

        let token = CancellationToken::new();
        let trip = token.clone();
        let mut seen = 0usize;
        let mut first_sink = Recorder::default();
        let first = {
            struct CancelAfter<'a> {
                inner: &'a mut Recorder,
                seen: &'a mut usize,
                at: usize,
                token: &'a CancellationToken,
            }
            impl MatchSink for CancelAfter<'_> {
                fn on_match(&mut self, m: Match<'_>) -> ControlFlow<()> {
                    *self.seen += 1;
                    if *self.seen == self.at {
                        self.token.cancel();
                    }
                    self.inner.on_match(m)
                }
                fn on_record_error(
                    &mut self,
                    record_idx: u64,
                    error: &EngineError,
                ) -> ControlFlow<()> {
                    self.inner.on_record_error(record_idx, error)
                }
            }
            let mut source = SliceRecords::new(&stream);
            let mut sink = CancelAfter {
                inner: &mut first_sink,
                seen: &mut seen,
                at: cancel_at,
                token: &trip,
            };
            Pipeline::new()
                .workers(jobs)
                .error_policy(ErrorPolicy::SkipMalformed)
                .cancel_token(token)
                .run(&engine, &mut source, &mut sink)
                .unwrap()
        };

        let (second_sink, second) = run_slice(&stream[first.committed_offset as usize..], None);

        prop_assert_eq!(first.records + second.records, full.records);
        prop_assert_eq!(first.matches + second.matches, full.matches);
        prop_assert_eq!(first.failed + second.failed, full.failed);
        prop_assert_eq!(first.resyncs + second.resyncs, full.resyncs);
        prop_assert_eq!(first.resync_bytes + second.resync_bytes, full.resync_bytes);

        let whole: Vec<&[u8]> = full_sink.matches.iter().map(|(_, b)| b.as_slice()).collect();
        let glued: Vec<&[u8]> = first_sink
            .matches
            .iter()
            .chain(second_sink.matches.iter())
            .map(|(_, b)| b.as_slice())
            .collect();
        prop_assert_eq!(glued, whole, "q={} jobs={} cancel_at={}", q, jobs, cancel_at);
    }

    // A cancellation that lands *during* a SkipMalformed resynchronization
    // must still leave a consistent committed offset: the abandoned span is
    // either fully inside the first leg (counted once, offset past it) or
    // fully in the resumed leg — never split, never double-counted. The two
    // legs' summaries must sum to the uninterrupted run's, counter for
    // counter, resync bytes included.
    #[test]
    fn cancel_during_resync_still_commits_consistently(
        records in resync_batch(),
        q in query(),
        cancel_at in 1usize..4,
        jobs in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let engine = JsonSki::compile(&q).unwrap();
        let mut stream = Vec::new();
        for r in &records {
            stream.extend_from_slice(r);
            stream.push(b'\n');
        }

        let run_slice = |bytes: &[u8]| {
            let mut source = SliceRecords::new(bytes);
            let mut sink = Recorder::default();
            let summary = Pipeline::new()
                .workers(jobs)
                .error_policy(ErrorPolicy::SkipMalformed)
                .run(&engine, &mut source, &mut sink)
                .unwrap();
            (sink, summary)
        };

        let (full_sink, full) = run_slice(&stream);

        // First leg: trip the token inside the `cancel_at`-th resync report,
        // mid-resynchronization from the pipeline's point of view.
        struct CancelOnResync<'a> {
            inner: &'a mut Recorder,
            resyncs_seen: &'a mut usize,
            at: usize,
            token: &'a CancellationToken,
        }
        impl MatchSink for CancelOnResync<'_> {
            fn on_match(&mut self, m: Match<'_>) -> ControlFlow<()> {
                self.inner.on_match(m)
            }
            fn on_record_error(&mut self, record_idx: u64, error: &EngineError) -> ControlFlow<()> {
                self.inner.on_record_error(record_idx, error)
            }
            fn on_resync(&mut self, _span: (u64, u64), _error: &EngineError) -> ControlFlow<()> {
                *self.resyncs_seen += 1;
                if *self.resyncs_seen == self.at {
                    self.token.cancel();
                }
                ControlFlow::Continue(())
            }
        }
        let token = CancellationToken::new();
        let mut first_sink = Recorder::default();
        let mut resyncs_seen = 0usize;
        let first = {
            let mut source = SliceRecords::new(&stream);
            let mut sink = CancelOnResync {
                inner: &mut first_sink,
                resyncs_seen: &mut resyncs_seen,
                at: cancel_at,
                token: &token,
            };
            Pipeline::new()
                .workers(jobs)
                .error_policy(ErrorPolicy::SkipMalformed)
                .cancel_token(token.clone())
                .run(&engine, &mut source, &mut sink)
                .unwrap()
        };

        // The first leg's own accounting must agree with what the sink saw,
        // and its committed offset must stay inside the stream.
        prop_assert_eq!(first.resyncs, resyncs_seen as u64);
        prop_assert!(first.committed_offset as usize <= stream.len());

        let (second_sink, second) = run_slice(&stream[first.committed_offset as usize..]);

        prop_assert_eq!(first.records + second.records, full.records,
            "records: q={} jobs={} cancel_at={}", q, jobs, cancel_at);
        prop_assert_eq!(first.matches + second.matches, full.matches);
        prop_assert_eq!(first.failed + second.failed, full.failed);
        prop_assert_eq!(first.resyncs + second.resyncs, full.resyncs,
            "resyncs: q={} jobs={} cancel_at={}", q, jobs, cancel_at);
        prop_assert_eq!(first.resync_bytes + second.resync_bytes, full.resync_bytes,
            "resync bytes: q={} jobs={} cancel_at={}", q, jobs, cancel_at);

        let whole: Vec<&[u8]> = full_sink.matches.iter().map(|(_, b)| b.as_slice()).collect();
        let glued: Vec<&[u8]> = first_sink
            .matches
            .iter()
            .chain(second_sink.matches.iter())
            .map(|(_, b)| b.as_slice())
            .collect();
        prop_assert_eq!(glued, whole, "q={} jobs={} cancel_at={}", q, jobs, cancel_at);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Across batch boundaries the parallel pipeline must reproduce the
    // serial run exactly: every callback, its order and arguments, and the
    // result (summary or error message).
    #[test]
    fn long_streams_equal_serial_across_batch_boundaries(stream in long_stream(), q in query()) {
        let engine = JsonSki::compile(&q).unwrap();
        for policy in [ErrorPolicy::FailFast, ErrorPolicy::SkipMalformed] {
            let (ref_tape, ref_result) = run_long(&engine, &stream, 1, policy, None);
            for jobs in [2usize, 8] {
                let (tape, result) = run_long(&engine, &stream, jobs, policy, None);
                prop_assert!(
                    tape.events == ref_tape.events,
                    "callbacks diverge: q={} jobs={} policy={:?}", q, jobs, policy
                );
                prop_assert_eq!(&result, &ref_result, "result: q={} jobs={} policy={:?}", q, jobs, policy);
            }
        }
    }

    // Cancelling on an arbitrary callback (usually mid-batch) and resuming
    // from the committed offset must cover the stream exactly once, for
    // every worker count and both policies.
    #[test]
    fn long_streams_cancel_mid_batch_and_resume_once(
        stream in long_stream(),
        q in query(),
        at in 1usize..400,
    ) {
        let engine = JsonSki::compile(&q).unwrap();
        for policy in [ErrorPolicy::FailFast, ErrorPolicy::SkipMalformed] {
            for jobs in [1usize, 2, 8] {
                let (full_tape, full) = run_long(&engine, &stream, jobs, policy, None);
                let (first_tape, first) = run_long(&engine, &stream, jobs, policy, Some(at));
                let first = match first {
                    // The failure came before the cancellation took effect:
                    // identical to the uncancelled run.
                    Err(e) => {
                        prop_assert_eq!(Err(e), full.clone());
                        prop_assert!(first_tape.events == full_tape.events);
                        continue;
                    }
                    Ok(first) => first,
                };
                if !first.cancelled {
                    prop_assert_eq!(Ok(first), full.clone());
                    continue;
                }
                let off = first.committed_offset as usize;
                prop_assert!(off <= stream.len());
                let (second_tape, second) = run_long(&engine, &stream[off..], jobs, policy, None);
                let whole: Vec<&[u8]> = full_tape.match_bytes().collect();
                let glued: Vec<&[u8]> = first_tape.match_bytes().chain(second_tape.match_bytes()).collect();
                prop_assert!(
                    glued == whole,
                    "match bytes: q={} jobs={} policy={:?} at={}", q, jobs, policy, at
                );
                match (&full, &second) {
                    (Ok(full), Ok(second)) => {
                        prop_assert_eq!(first.records + second.records, full.records);
                        prop_assert_eq!(first.matches + second.matches, full.matches);
                        prop_assert_eq!(first.failed + second.failed, full.failed);
                        prop_assert_eq!(first.resyncs + second.resyncs, full.resyncs);
                        prop_assert_eq!(first.resync_bytes + second.resync_bytes, full.resync_bytes);
                    }
                    (Err(_), Err(_)) => {}
                    (a, b) => {
                        prop_assert!(false, "result kind diverges after resume: {:?} vs {:?}", a, b);
                    }
                }
            }
        }
    }
}
