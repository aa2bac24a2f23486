//! Multi-query streaming: evaluate several JSONPath queries in **one**
//! pass with shared fast-forwarding.
//!
//! JPStream compiles query *sets* into one automaton; JSONSki's paper
//! evaluates single queries but nothing in its design precludes sharing the
//! stream. [`MultiQuery`] runs one automaton instance per query over a
//! single cursor: a value is skipped (bit-parallel, G2) only when *every*
//! query is unmatched on it, the G4 object-end skip fires only when *every*
//! query has exhausted its possibilities at the current level, and accepted
//! values are emitted per query. The per-value work is O(#queries) state
//! updates; the stream is still classified exactly once.

use std::ops::ControlFlow;

use jsonpath::{ContainerKind, ParsePathError, Path, Runtime, State, Status};

use crate::cursor::Cursor;
use crate::error::StreamError;
use crate::evaluate::Match;
use crate::fastforward::{
    go_over_ary, go_over_obj, go_over_primitive, go_to_ary_end, go_to_obj_end, Span,
};
use crate::limits::{RecordDeadline, ResourceLimits};
use crate::stats::{FastForwardStats, Group};
use crate::validate::ValidationMode;
use simdbits::Kernel;

/// A set of compiled queries evaluated together in one streaming pass.
///
/// # Example
///
/// ```
/// use jsonski::MultiQuery;
///
/// let json = br#"{"user": {"id": 7}, "place": {"name": "Manhattan"}}"#;
/// let mq = MultiQuery::compile(&["$.place.name", "$.user.id"])?;
/// let counts = mq.counts(json)?;
/// assert_eq!(counts, vec![1, 1]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct MultiQuery {
    paths: Vec<Path>,
    limits: ResourceLimits,
    validation: ValidationMode,
    kernel: Option<Kernel>,
}

impl MultiQuery {
    /// Wraps already-parsed paths.
    pub fn new(paths: Vec<Path>) -> Self {
        MultiQuery {
            paths,
            limits: ResourceLimits::default(),
            validation: ValidationMode::Permissive,
            kernel: None,
        }
    }

    /// Replaces the resource guards (builder-style). Depth and deadline
    /// are enforced during the shared scan exactly as for
    /// [`JsonSki`](crate::JsonSki).
    pub fn with_limits(mut self, limits: ResourceLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Sets the input trust level (builder-style); Strict validates every
    /// byte of each record exactly as for [`JsonSki`](crate::JsonSki).
    pub fn with_validation(mut self, mode: ValidationMode) -> Self {
        self.validation = mode;
        self
    }

    /// Forces a specific bitmap kernel (builder-style); `None` restores
    /// auto-detection.
    pub fn with_kernel(mut self, kernel: Option<Kernel>) -> Self {
        self.kernel = kernel;
        self
    }

    /// The active resource guards.
    pub fn limits(&self) -> ResourceLimits {
        self.limits
    }

    /// The active input trust level.
    pub fn validation(&self) -> ValidationMode {
        self.validation
    }

    /// Compiles a set of JSONPath expressions.
    ///
    /// # Errors
    ///
    /// The first expression that fails to parse.
    pub fn compile(queries: &[&str]) -> Result<Self, ParsePathError> {
        Ok(MultiQuery::new(
            queries
                .iter()
                .map(|q| q.parse())
                .collect::<Result<_, _>>()?,
        ))
    }

    /// The compiled paths.
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// Streams one record with early-exit support; `sink(query_index, match)`
    /// fires per match and may return [`ControlFlow::Break`] to stop scanning.
    ///
    /// The [`StreamOutcome`] reports combined match counts across all queries,
    /// whether the sink stopped the scan, and how many input bytes were
    /// consumed (strictly fewer than `input.len()` when a break saved work).
    ///
    /// # Errors
    ///
    /// [`StreamError`] on malformed input discovered on any examined path.
    ///
    /// [`StreamOutcome`]: crate::StreamOutcome
    pub fn stream<'a, F>(
        &self,
        input: &'a [u8],
        sink: F,
    ) -> Result<crate::StreamOutcome, StreamError>
    where
        F: FnMut(usize, Match<'a>) -> ControlFlow<()>,
    {
        let mut ev = MultiEval {
            cur: Cursor::with_options(input, self.kernel, self.validation),
            rts: self.paths.iter().map(Runtime::new).collect(),
            stats: FastForwardStats::new(),
            sink,
            matches: 0,
            depth: 0,
            pending: Vec::new(),
            flush_from: 0,
            max_depth: self.limits.max_depth,
            deadline: RecordDeadline::start(&self.limits),
        };
        let stopped = match ev.record() {
            Ok(()) => {
                // Strict mode validates the whole record (see the
                // single-query engine for the rationale and error
                // precedence). No-op in Permissive mode.
                ev.cur.finish_strict()?;
                false
            }
            Err(Abort::Stop) => true,
            Err(Abort::Err(e)) => {
                if let Err(invalid @ StreamError::Invalid { .. }) = ev.cur.finish_strict() {
                    return Err(invalid);
                }
                return Err(e);
            }
        };
        Ok(crate::StreamOutcome {
            matches: ev.matches,
            stopped,
            consumed: ev.cur.pos(),
            words_classified: ev.cur.words_classified(),
            word_cache_hits: ev.cur.word_cache_hits(),
            classify_ns: ev.cur.classify_ns(),
            stats: ev.stats,
        })
    }

    /// Streams one record; `sink(query_index, match)` fires per match.
    ///
    /// # Errors
    ///
    /// [`StreamError`] on malformed input discovered on any examined path.
    pub fn run<'a, F>(&self, input: &'a [u8], mut sink: F) -> Result<FastForwardStats, StreamError>
    where
        F: FnMut(usize, Match<'a>),
    {
        let outcome = self.stream(input, |i, m| {
            sink(i, m);
            ControlFlow::Continue(())
        })?;
        Ok(outcome.stats)
    }

    /// Per-query match counts for one record.
    ///
    /// # Errors
    ///
    /// Propagates [`StreamError`] from [`MultiQuery::run`].
    pub fn counts(&self, input: &[u8]) -> Result<Vec<usize>, StreamError> {
        let mut counts = vec![0usize; self.paths.len()];
        self.run(input, |i, _| counts[i] += 1)?;
        Ok(counts)
    }
}

/// Internal control-flow channel: a real stream error, or an early stop
/// requested by the sink via [`ControlFlow::Break`].
enum Abort {
    Err(StreamError),
    Stop,
}

impl From<StreamError> for Abort {
    fn from(e: StreamError) -> Self {
        Abort::Err(e)
    }
}

/// A deferred match (see the single-query engine's `PendingMatch`): under
/// descendant queries an accepted container must reach the sink before the
/// matches found inside it, but its span completes only after traversal.
/// Entries carry the owning query index; same-span entries emit in query
/// order.
struct PendingMatch {
    idx: usize,
    start: usize,
    end: Option<usize>,
}

struct MultiEval<'a, 'p, F> {
    cur: Cursor<'a>,
    rts: Vec<Runtime<'p>>,
    stats: FastForwardStats,
    sink: F,
    matches: usize,
    depth: usize,
    /// Deferred matches; `flush_from` indexes the first entry not yet
    /// delivered. Empty whenever no descendant container is mid-traversal,
    /// so descendant-free query sets always emit immediately.
    pending: Vec<PendingMatch>,
    flush_from: usize,
    max_depth: usize,
    deadline: Option<RecordDeadline>,
}

impl<'a, F: FnMut(usize, Match<'a>) -> ControlFlow<()>> MultiEval<'a, '_, F> {
    /// Depth/deadline guard, mirroring the single-query engine's.
    fn check_guards(&mut self) -> Result<(), Abort> {
        if self.depth > self.max_depth {
            return Err(Abort::Err(StreamError::TooDeep {
                pos: self.cur.pos(),
            }));
        }
        if let Some(dl) = &mut self.deadline {
            let pos = self.cur.pos();
            if dl.expired_at(pos) {
                return Err(Abort::Err(StreamError::DeadlineExpired { pos }));
            }
        }
        Ok(())
    }

    /// Emits a completed span, or queues it while an enclosing accepted
    /// container's entry is still open (pre-order: the container first).
    fn emit(&mut self, idx: usize, span: Span) -> Result<(), Abort> {
        if self.flush_from == self.pending.len() {
            self.emit_now(idx, span)
        } else {
            self.pending.push(PendingMatch {
                idx,
                start: span.0,
                end: Some(span.1),
            });
            Ok(())
        }
    }

    fn emit_now(&mut self, idx: usize, span: Span) -> Result<(), Abort> {
        self.matches += 1;
        match (self.sink)(idx, Match::new(0, self.cur.input(), span)) {
            ControlFlow::Continue(()) => Ok(()),
            ControlFlow::Break(()) => Err(Abort::Stop),
        }
    }

    /// Opens a pending entry for query `idx` accepting the container that
    /// starts at `start` and is about to be descended.
    fn open_pending(&mut self, idx: usize, start: usize) {
        self.pending.push(PendingMatch {
            idx,
            start,
            end: None,
        });
    }

    /// Completes the last `opened` open entries with `end` and flushes
    /// every queued match whose span is now known.
    fn close_pending(&mut self, opened: usize, end: usize) -> Result<(), Abort> {
        if opened > 0 {
            let mut left = opened;
            for p in self.pending.iter_mut().rev() {
                if p.end.is_none() {
                    p.end = Some(end);
                    left -= 1;
                    if left == 0 {
                        break;
                    }
                }
            }
            assert_eq!(left, 0, "unbalanced pending-match close");
        }
        while let Some(p) = self.pending.get(self.flush_from) {
            let Some(end) = p.end else { break };
            let (idx, span) = (p.idx, (p.start, end));
            self.flush_from += 1;
            self.emit_now(idx, span)?;
        }
        if self.flush_from == self.pending.len() {
            self.pending.clear();
            self.flush_from = 0;
        }
        Ok(())
    }

    fn record(&mut self) -> Result<(), Abort> {
        self.stats.add_total(self.cur.input().len() as u64);
        self.cur.skip_ws();
        let Some(t) = self.cur.peek() else {
            return Ok(());
        };
        let kind = match t {
            b'{' => ContainerKind::Object,
            b'[' => ContainerKind::Array,
            _ => {
                // Primitive root: only `$` queries match.
                let accepts: Vec<usize> = (0..self.rts.len())
                    .filter(|&i| self.rts[i].path().is_empty())
                    .collect();
                let group = if accepts.is_empty() {
                    Group::G2
                } else {
                    Group::G3
                };
                let span = go_over_primitive(&mut self.cur, &mut self.stats, group)?;
                for i in accepts {
                    self.emit(i, span)?;
                }
                return Ok(());
            }
        };
        let statuses: Vec<Status> = self.rts.iter_mut().map(|rt| rt.enter_root(kind)).collect();
        let any_matched = statuses.contains(&Status::Matched);
        let start = self.cur.pos();
        if any_matched {
            // Pre-order: `$` queries see the whole record before any inner
            // match another query finds during the descent.
            let mut opened = 0usize;
            for (i, &s) in statuses.iter().enumerate() {
                if s == Status::Accept {
                    self.open_pending(i, start);
                    opened += 1;
                }
            }
            self.cur.bump(); // consume the opener
            match kind {
                ContainerKind::Object => self.object()?,
                ContainerKind::Array => self.array()?,
            }
            self.close_pending(opened, self.cur.pos())?;
        } else {
            let any_accept = statuses.contains(&Status::Accept);
            let group = if any_accept { Group::G3 } else { Group::G2 };
            match kind {
                ContainerKind::Object => go_over_obj(&mut self.cur, &mut self.stats, group)?,
                ContainerKind::Array => go_over_ary(&mut self.cur, &mut self.stats, group)?,
            };
            let end = self.cur.pos();
            for (i, &s) in statuses.iter().enumerate() {
                if s == Status::Accept {
                    self.emit(i, (start, end))?;
                }
            }
        }
        for rt in &mut self.rts {
            rt.exit();
        }
        Ok(())
    }

    fn object(&mut self) -> Result<(), Abort> {
        self.depth += 1;
        self.check_guards()?;
        let r = self.object_body();
        self.depth -= 1;
        r
    }

    fn object_body(&mut self) -> Result<(), Abort> {
        // `done[i]`: query `i` cannot match any further attribute of this
        // object. Frames are pruned on entry, so a live state here holds
        // only object-capable positions — dead (UNMATCHED) is exactly
        // "nothing in this object can match". A uniquely-named child match
        // flips the flag below.
        let mut done: Vec<bool> = self.rts.iter().map(Runtime::is_unmatched).collect();
        loop {
            if done.iter().all(|&d| d) {
                // Multi-query G4: nobody can match below this point.
                go_to_obj_end(&mut self.cur, &mut self.stats, Group::G4)?;
                self.cur.expect(b'}', "`}`")?;
                return Ok(());
            }
            let t = self.cur.peek_token("attribute or `}`")?;
            match t {
                b'}' => {
                    self.cur.bump();
                    return Ok(());
                }
                b',' => {
                    self.cur.bump();
                }
                b'"' => {
                    let (ns, ne) = self.cur.read_string()?;
                    self.cur.expect(b':', "`:`")?;
                    let raw = &self.cur.input()[ns..ne];
                    let decisions: Vec<(State, Status)> = self
                        .rts
                        .iter()
                        .map(|rt| rt.value_state_for_key_raw(raw))
                        .collect();
                    self.cur.skip_ws();
                    let vb = self.cur.peek_token("attribute value")?;
                    self.handle_value(vb, &decisions)?;
                    for (i, (_, status)) in decisions.iter().enumerate() {
                        // Per-state G4 legality: every live position must be
                        // a uniquely-named child step for a match here to
                        // preclude later sibling matches.
                        if *status != Status::Unmatched && self.rts[i].legality().g4 {
                            done[i] = true;
                        }
                    }
                }
                other => {
                    return Err(Abort::Err(StreamError::Unexpected {
                        expected: "`\"` (attribute name)",
                        found: other,
                        pos: self.cur.pos(),
                    }))
                }
            }
        }
    }

    fn array(&mut self) -> Result<(), Abort> {
        self.depth += 1;
        self.check_guards()?;
        let r = self.array_body();
        self.depth -= 1;
        r
    }

    fn array_body(&mut self) -> Result<(), Abort> {
        // Highest index any query can still select, for the multi-query
        // variant of G5 (skip the array tail once every range is exhausted).
        // `array_upper_bound` conjoins over each query's live position set:
        // `Some(0)` for dead frames, `None` (no skip) under wildcards,
        // filters, or descendants.
        let upper_bounds: Vec<Option<usize>> =
            self.rts.iter().map(Runtime::array_upper_bound).collect();
        let hard_limit: Option<usize> = upper_bounds
            .iter()
            .copied()
            .try_fold(0usize, |acc, ub| ub.map(|h| acc.max(h)));
        loop {
            let t = self.cur.peek_token("element or `]`")?;
            if t == b']' {
                self.cur.bump();
                return Ok(());
            }
            let counter = self.rts[0].counter();
            if let Some(limit) = hard_limit {
                if counter >= limit {
                    go_to_ary_end(&mut self.cur, &mut self.stats, Group::G5)?;
                    self.cur.expect(b']', "`]`")?;
                    return Ok(());
                }
            }
            // Filter predicates are probed against the candidate element's
            // bytes (`peek_token` already skipped to its first byte).
            let input = self.cur.input();
            let pos = self.cur.pos();
            let decisions: Vec<(State, Status)> = self
                .rts
                .iter()
                .map(|rt| {
                    rt.element_state_with(&mut |expr| jsonpath::filter::eval(expr, &input[pos..]))
                })
                .collect();
            self.handle_value(t, &decisions)?;
            let d = self.cur.peek_token("`,` or `]`")?;
            match d {
                b',' => {
                    self.cur.bump();
                    for rt in &mut self.rts {
                        rt.increment();
                    }
                }
                b']' => {
                    self.cur.bump();
                    return Ok(());
                }
                other => {
                    return Err(Abort::Err(StreamError::Unexpected {
                        expected: "`,` or `]`",
                        found: other,
                        pos: self.cur.pos(),
                    }))
                }
            }
        }
    }

    /// Processes one value given every query's decision for it: skips it
    /// bit-parallel when unanimous, descends when any query progresses, and
    /// emits it to every accepting query (in pre-order: a container result
    /// reaches the sink before anything found inside it).
    fn handle_value(&mut self, vb: u8, decisions: &[(State, Status)]) -> Result<(), Abort> {
        let is_container = vb == b'{' || vb == b'[';
        let any_descend = decisions
            .iter()
            .any(|d| matches!(d.1, Status::Matched | Status::AcceptAndDescend));
        let start = self.cur.pos();
        if any_descend && is_container {
            // Accepting queries' spans complete only after the traversal:
            // defer them through the pending queue so they still precede
            // the matches the descent produces.
            let mut opened = 0usize;
            for (i, d) in decisions.iter().enumerate() {
                if matches!(d.1, Status::Accept | Status::AcceptAndDescend) {
                    self.open_pending(i, start);
                    opened += 1;
                }
            }
            self.cur.bump();
            let kind = if vb == b'{' {
                ContainerKind::Object
            } else {
                ContainerKind::Array
            };
            for (i, rt) in self.rts.iter_mut().enumerate() {
                rt.enter(kind, decisions[i].0);
            }
            let r = if vb == b'{' {
                self.object()
            } else {
                self.array()
            };
            for rt in &mut self.rts {
                rt.exit();
            }
            r?;
            self.close_pending(opened, self.cur.pos())
        } else {
            // No query needs the interior (an `AcceptAndDescend` primitive
            // has none): one shared skip, G3 when anyone takes the value.
            let any_accept = decisions
                .iter()
                .any(|d| matches!(d.1, Status::Accept | Status::AcceptAndDescend));
            let group = if any_accept { Group::G3 } else { Group::G2 };
            let span = match vb {
                b'{' => go_over_obj(&mut self.cur, &mut self.stats, group)?,
                b'[' => go_over_ary(&mut self.cur, &mut self.stats, group)?,
                _ => go_over_primitive(&mut self.cur, &mut self.stats, group)?,
            };
            for (i, d) in decisions.iter().enumerate() {
                if matches!(d.1, Status::Accept | Status::AcceptAndDescend) {
                    self.emit(i, span)?;
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn individual_counts(queries: &[&str], json: &[u8]) -> Vec<usize> {
        queries
            .iter()
            .map(|q| crate::JsonSki::compile(q).unwrap().count(json).unwrap())
            .collect()
    }

    #[test]
    fn deadline_fires_inside_one_large_record() {
        // The clock is read at the root container, then only every 64 KiB
        // of input: an expiry during the first match surfaces at the first
        // container entry 64 KiB on, not at the end of the record.
        let mut record = String::from("[");
        for i in 0..16_000 {
            record.push_str(&format!("{{\"a\": {i}, \"pad\": \"xxxxxxxxxxxxxx\"}}, "));
        }
        record.push_str("{\"a\": -1}]");
        let limits = ResourceLimits::default().deadline(std::time::Duration::from_millis(100));
        let engine = MultiQuery::compile(&["$[*].a", "$[0]"])
            .unwrap()
            .with_limits(limits);
        let mut seen = 0;
        let err = engine
            .stream(record.as_bytes(), |_, _| {
                seen += 1;
                if seen == 1 {
                    std::thread::sleep(std::time::Duration::from_millis(150));
                }
                ControlFlow::Continue(())
            })
            .unwrap_err();
        match err {
            StreamError::DeadlineExpired { pos } => {
                assert!((64 * 1024..128 * 1024).contains(&pos), "expired at {pos}")
            }
            other => panic!("expected a deadline, got {other}"),
        }
    }

    #[test]
    fn agrees_with_individual_runs() {
        let json = br#"{
            "user": {"id": 7, "name": "ann"},
            "place": {"name": "NYC", "tags": [1, 2, 3]},
            "items": [{"x": 1}, {"x": 2}, {"y": 3}]
        }"#;
        let queries = [
            "$.place.name",
            "$.user.id",
            "$.items[*].x",
            "$.items[1:3]",
            "$.missing.path",
            "$",
        ];
        let mq = MultiQuery::compile(&queries).unwrap();
        assert_eq!(mq.counts(json).unwrap(), individual_counts(&queries, json));
    }

    #[test]
    fn emits_to_the_right_query() {
        let json = br#"{"a": 1, "b": "two"}"#;
        let mq = MultiQuery::compile(&["$.b", "$.a"]).unwrap();
        let mut hits: Vec<(usize, Vec<u8>)> = Vec::new();
        mq.run(json, |i, m| hits.push((i, m.bytes().to_vec())))
            .unwrap();
        hits.sort();
        assert_eq!(hits, vec![(0, b"\"two\"".to_vec()), (1, b"1".to_vec())]);
    }

    #[test]
    fn shared_prefix_descends_once() {
        // Both queries descend through `a`; the pass is still single.
        let json = br#"{"a": {"b": 1, "c": 2}, "z": {"b": 9}}"#;
        let mq = MultiQuery::compile(&["$.a.b", "$.a.c"]).unwrap();
        assert_eq!(mq.counts(json).unwrap(), vec![1, 1]);
    }

    #[test]
    fn overlapping_accept_and_descend() {
        // One query accepts `a` itself while the other needs its interior.
        let json = br#"{"a": {"b": 5}}"#;
        let mq = MultiQuery::compile(&["$.a", "$.a.b"]).unwrap();
        let mut got = [Vec::new(), Vec::new()];
        mq.run(json, |i, m| got[i].push(m.bytes().to_vec()))
            .unwrap();
        assert_eq!(got[0], vec![br#"{"b": 5}"#.to_vec()]);
        assert_eq!(got[1], vec![b"5".to_vec()]);
    }

    #[test]
    fn multi_g5_tail_skip_respects_widest_range() {
        let json = br#"{"a": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]}"#;
        let mq = MultiQuery::compile(&["$.a[1]", "$.a[3:5]"]).unwrap();
        let stats = {
            let mut c = vec![0usize; 2];
            let s = mq.run(json, |i, _| c[i] += 1).unwrap();
            assert_eq!(c, vec![1, 2]);
            s
        };
        // Elements 5..9 are beyond every range: skipped as G5.
        assert!(stats.skipped(Group::G5) > 0, "{stats}");
    }

    #[test]
    fn wildcard_query_disables_g5() {
        let json = br#"[1, 2, 3, 4]"#;
        let mq = MultiQuery::compile(&["$[0]", "$[*]"]).unwrap();
        assert_eq!(mq.counts(json).unwrap(), vec![1, 4]);
    }

    #[test]
    fn all_unmatched_object_is_drained_bit_parallel() {
        let json = br#"{"huge": {"x": [1, 2, {"y": 3}]}, "a": 1}"#;
        let mq = MultiQuery::compile(&["$.a", "$.nope"]).unwrap();
        let stats = mq.run(json, |_, _| {}).unwrap();
        assert!(stats.skipped(Group::G2) > 0, "{stats}");
    }

    #[test]
    fn empty_query_set_is_fine() {
        let mq = MultiQuery::new(vec![]);
        assert!(mq.counts(br#"{"a": 1}"#).unwrap().is_empty());
    }

    #[test]
    fn compile_error_propagates() {
        assert!(MultiQuery::compile(&["$.ok", "$.bad["]).is_err());
    }

    #[test]
    fn descendant_and_filter_queries_share_the_pass() {
        let json = br#"{
            "a": {"name": "x", "b": {"name": "y"}},
            "items": [{"v": 1, "q": 5}, {"v": 2, "q": 9}, {"v": 3}]
        }"#;
        let queries = ["$..name", "$.items[?(@.q > 4)].v", "$.a.name"];
        let mq = MultiQuery::compile(&queries).unwrap();
        assert_eq!(mq.counts(json).unwrap(), individual_counts(&queries, json));
        let mut got: Vec<Vec<Vec<u8>>> = vec![Vec::new(); queries.len()];
        mq.run(json, |i, m| got[i].push(m.bytes().to_vec()))
            .unwrap();
        assert_eq!(got[0], vec![b"\"x\"".to_vec(), b"\"y\"".to_vec()]);
        assert_eq!(got[1], vec![b"1".to_vec(), b"2".to_vec()]);
        assert_eq!(got[2], vec![b"\"x\"".to_vec()]);
    }

    #[test]
    fn overlapping_descendant_emits_pre_order() {
        // `$..a` takes both the outer container and the inner value; the
        // outer (enclosing) match must reach the sink first.
        let json = br#"{"a": {"a": 1}}"#;
        let mq = MultiQuery::compile(&["$..a"]).unwrap();
        let mut got = Vec::new();
        mq.run(json, |_, m| got.push(m.bytes().to_vec())).unwrap();
        assert_eq!(got, vec![br#"{"a": 1}"#.to_vec(), b"1".to_vec()]);
    }

    #[test]
    fn strict_multi_query_rejects_skipped_fault() {
        use crate::{InvalidReason, ValidationMode};
        // Neither query touches "junk"; only strict validation sees it.
        let json = b"{\"junk\": \"\xFF\", \"a\": 1, \"b\": 2}";
        let mq = MultiQuery::compile(&["$.a", "$.b"]).unwrap();
        assert_eq!(mq.counts(json).unwrap(), vec![1, 1]);
        let strict = mq.with_validation(ValidationMode::Strict);
        match strict.counts(json) {
            Err(StreamError::Invalid {
                pos: 10,
                reason: InvalidReason::Utf8,
            }) => {}
            other => panic!("expected Invalid at 10, got {other:?}"),
        }
    }

    #[test]
    fn paper_query_pairs_in_one_pass() {
        // The two TT queries of Table 5 evaluated together.
        let json = br#"[
            {"text": "t1", "en": {"urls": [{"url": "u1"}]}},
            {"text": "t2", "en": {"urls": []}},
            {"text": "t3", "en": {"urls": [{"url": "u2"}, {"url": "u3"}]}}
        ]"#;
        let queries = ["$[*].en.urls[*].url", "$[*].text"];
        let mq = MultiQuery::compile(&queries).unwrap();
        assert_eq!(mq.counts(json).unwrap(), vec![3, 3]);
        assert_eq!(mq.counts(json).unwrap(), individual_counts(&queries, json));
    }
}
