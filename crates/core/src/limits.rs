//! Resource guards for hostile or degraded input.
//!
//! The paper's streaming scenario assumes well-formed NDJSON from a
//! cooperative source; a production ingestion service cannot. A single
//! never-closing record would otherwise grow the reader buffer without
//! bound, a deeply-nested record would exhaust the recursive-descent call
//! stack, and a pathological record could pin a worker indefinitely.
//! [`ResourceLimits`] turns each of those failure modes into a typed,
//! policy-respecting rejection ([`crate::EngineError::Limit`]): under
//! [`ErrorPolicy::SkipMalformed`] an over-limit record is skipped like any
//! other malformed record, and the stream keeps going.
//!
//! [`ErrorPolicy::SkipMalformed`]: crate::ErrorPolicy::SkipMalformed

use std::fmt;
use std::time::{Duration, Instant};

use crate::engine::MAX_DEPTH;

/// Default cap on the streaming reader's buffer (256 MiB).
pub const DEFAULT_MAX_BUFFER_BYTES: usize = 256 * 1024 * 1024;

/// Caps on the resources one record may consume, threaded through
/// [`EngineConfig`], [`ChunkedRecords`], and [`Pipeline`].
///
/// The defaults match the engine's historical behaviour (depth 1024,
/// 256 MiB records) so existing callers see no change; tighten them for
/// ingestion from untrusted sources:
///
/// ```
/// use jsonski::ResourceLimits;
///
/// let limits = ResourceLimits::default()
///     .max_record_bytes(1 << 20) // 1 MiB records
///     .max_depth(64);
/// assert_eq!(limits.max_depth, 64);
/// ```
///
/// [`EngineConfig`]: crate::EngineConfig
/// [`ChunkedRecords`]: crate::ChunkedRecords
/// [`Pipeline`]: crate::Pipeline
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Largest record (in bytes) accepted for evaluation or buffering.
    pub max_record_bytes: usize,
    /// Maximum container nesting before a record is rejected
    /// (bounds the recursive-descent call stack).
    pub max_depth: usize,
    /// Cap on the streaming reader's internal buffer. A record that never
    /// closes hits this cap instead of growing the buffer to OOM.
    pub max_buffer_bytes: usize,
    /// Optional wall-clock budget for evaluating one record. The clock is
    /// read when the record starts and at its root container, then only at
    /// a container entry at least 64 KiB past the previous read, so a
    /// small record costs two clock reads and an expired deadline is
    /// noticed within 64 KiB of scanning (plus the container being
    /// entered) inside a large one. A record with no container is never
    /// checked after it starts. `None` (the default) compiles to a
    /// never-taken branch — no clock calls on the hot path.
    pub deadline: Option<Duration>,
}

impl Default for ResourceLimits {
    fn default() -> Self {
        ResourceLimits {
            max_record_bytes: DEFAULT_MAX_BUFFER_BYTES,
            max_depth: MAX_DEPTH,
            max_buffer_bytes: DEFAULT_MAX_BUFFER_BYTES,
            deadline: None,
        }
    }
}

impl ResourceLimits {
    /// Limits that never trigger (useful for trusted in-memory input).
    pub fn unbounded() -> Self {
        ResourceLimits {
            max_record_bytes: usize::MAX,
            max_depth: usize::MAX,
            max_buffer_bytes: usize::MAX,
            deadline: None,
        }
    }

    /// Sets the record-size cap (builder-style).
    pub fn max_record_bytes(mut self, bytes: usize) -> Self {
        self.max_record_bytes = bytes;
        self
    }

    /// Sets the nesting-depth cap (builder-style).
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth;
        self
    }

    /// Sets the reader-buffer cap (builder-style).
    pub fn max_buffer_bytes(mut self, bytes: usize) -> Self {
        self.max_buffer_bytes = bytes;
        self
    }

    /// Sets the per-record evaluation deadline (builder-style).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Input bytes scanned between two deadline clock reads inside a record.
const DEADLINE_CHECK_BYTES: usize = 64 * 1024;

/// A record's [`ResourceLimits::deadline`] as the engines check it at
/// container entries: the clock is read at the first entry (the root
/// container), then only at entries [`DEADLINE_CHECK_BYTES`] or more past
/// the previous read.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RecordDeadline {
    at: Instant,
    next_check: usize,
}

impl RecordDeadline {
    /// Starts the record's clock (`None` when no deadline is configured).
    pub(crate) fn start(limits: &ResourceLimits) -> Option<Self> {
        limits.deadline.map(|d| RecordDeadline {
            at: Instant::now() + d,
            next_check: 0,
        })
    }

    /// Whether the deadline has passed, judged at a container entry at
    /// byte `pos`; between reads it answers `false` without the clock.
    #[inline]
    pub(crate) fn expired_at(&mut self, pos: usize) -> bool {
        if pos < self.next_check {
            return false;
        }
        self.next_check = pos.saturating_add(DEADLINE_CHECK_BYTES);
        Instant::now() >= self.at
    }
}

/// A typed resource-limit violation; carried by
/// [`EngineError::Limit`](crate::EngineError::Limit).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LimitExceeded {
    /// A record is larger than [`ResourceLimits::max_record_bytes`].
    RecordBytes {
        /// The record's size in bytes (for a still-open record, the bytes
        /// buffered so far).
        len: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The streaming reader would have to grow its buffer past
    /// [`ResourceLimits::max_buffer_bytes`] to make progress.
    BufferBytes {
        /// Bytes the buffer would need to hold.
        needed: usize,
        /// The configured cap.
        limit: usize,
    },
    /// Nesting exceeded [`ResourceLimits::max_depth`].
    Depth {
        /// Byte offset of the opener that exceeded the limit.
        pos: usize,
        /// The configured cap.
        limit: usize,
    },
    /// Evaluation ran past [`ResourceLimits::deadline`].
    Deadline {
        /// The configured budget.
        limit: Duration,
    },
}

impl fmt::Display for LimitExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LimitExceeded::RecordBytes { len, limit } => {
                write!(f, "record of {len} bytes exceeds max_record_bytes={limit}")
            }
            LimitExceeded::BufferBytes { needed, limit } => write!(
                f,
                "record needs {needed} buffered bytes, exceeding max_buffer_bytes={limit}"
            ),
            LimitExceeded::Depth { pos, limit } => {
                write!(f, "nesting at byte {pos} exceeds max_depth={limit}")
            }
            LimitExceeded::Deadline { limit } => {
                write!(
                    f,
                    "evaluation exceeded the per-record deadline of {limit:?}"
                )
            }
        }
    }
}

impl std::error::Error for LimitExceeded {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_historical_behaviour() {
        let l = ResourceLimits::default();
        assert_eq!(l.max_depth, MAX_DEPTH);
        assert_eq!(l.max_record_bytes, DEFAULT_MAX_BUFFER_BYTES);
        assert_eq!(l.max_buffer_bytes, DEFAULT_MAX_BUFFER_BYTES);
        assert!(l.deadline.is_none());
    }

    #[test]
    fn builder_setters_compose() {
        let l = ResourceLimits::default()
            .max_record_bytes(10)
            .max_depth(2)
            .max_buffer_bytes(20)
            .deadline(Duration::from_millis(5));
        assert_eq!(l.max_record_bytes, 10);
        assert_eq!(l.max_depth, 2);
        assert_eq!(l.max_buffer_bytes, 20);
        assert_eq!(l.deadline, Some(Duration::from_millis(5)));
        let u = ResourceLimits::unbounded();
        assert_eq!(u.max_depth, usize::MAX);
    }

    #[test]
    fn limit_errors_display_the_numbers() {
        let e = LimitExceeded::RecordBytes { len: 9, limit: 4 };
        assert!(e.to_string().contains('9') && e.to_string().contains('4'));
        let e = LimitExceeded::BufferBytes {
            needed: 33,
            limit: 32,
        };
        assert!(e.to_string().contains("33"));
        let e = LimitExceeded::Depth { pos: 7, limit: 2 };
        assert!(e.to_string().contains("max_depth=2"));
        let e = LimitExceeded::Deadline {
            limit: Duration::from_millis(1),
        };
        assert!(e.to_string().contains("deadline"));
    }
}
