//! Pison-class baseline: leveled colon/comma bitmap structural index
//! construction, then index-guided query evaluation.
//!
//! Following Mison (Li et al., VLDB 2017) and Pison (Jiang, Qiu & Zhao,
//! VLDB 2020), this engine *preprocesses* the record into **leveled
//! bitmaps**: for every nesting level up to the query's depth, a bitmap of
//! the structural colons (locating object attributes) and commas (locating
//! array elements) at that level — the structure the paper's Figure 3-(b)
//! illustrates. Query evaluation then jumps from colon to colon / comma to
//! comma without re-parsing, but only after paying to index the entire
//! record, and while holding index memory proportional to
//! `input_len / 8 * 2 * levels` bytes (the paper's Figure 13 shows this
//! costing gigabytes at stream scale).
//!
//! [`build_parallel`] reproduces Pison's contribution proper: *speculative*
//! chunk-parallel index construction — each chunk assumes it starts outside
//! any string with no pending escape, chunks are validated left to right,
//! mis-speculated chunks re-execute, and per-chunk relative nesting depths
//! are rebased by a prefix sum of depth deltas.
//!
//! # Example
//!
//! ```
//! use pison::LeveledIndex;
//!
//! let json = br#"{"pd": [{"id": 1}, {"id": 2}]}"#;
//! let path: jsonpath::Path = "$.pd[*].id".parse()?;
//! let index = LeveledIndex::build(json, path.len());
//! assert_eq!(index.query(&path), vec![&b"1"[..], &b"2"[..]]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod build;
mod evaluate;
mod parallel;
mod query;
pub mod validate;

pub use build::LeveledIndex;
pub use evaluate::PisonQuery;
pub use parallel::build_parallel;
