//! simdjson-class baseline: two-stage bit-parallel parsing into a *tape*,
//! then on-tape query evaluation.
//!
//! Like simdjson (Langdale & Lemire, VLDB J. 2019), this engine uses bitwise
//! parallelism — the same [`simdbits`] kernels JSONSki uses — but only to
//! *find* the structural characters (stage 1). It then materializes the
//! whole record as a tape (stage 2) before any query runs, i.e. it is a
//! *preprocessing* engine: the paper's Table 3 classifies simdjson as
//! bit-parallel but without fast-forwarding, and Figures 10/11 show JSONSki
//! outperforming it by never constructing any in-memory structure.
//!
//! # Example
//!
//! ```
//! use tapeparser::Tape;
//!
//! let json = br#"{"it": [{"nm": "a"}, {"nm": "b"}]}"#;
//! let tape = Tape::build(json)?;
//! let path = "$.it[*].nm".parse()?;
//! assert_eq!(tape.query(&path), vec![&b"\"a\""[..], &b"\"b\""[..]]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod evaluate;
mod query;
mod stage1;
mod stage2;
mod view;

pub use evaluate::TapeQuery;
pub use stage1::{structural_index, StructuralIndex};
pub use stage2::{Entry, EntryKind, Tape, TapeError};
pub use view::View;
