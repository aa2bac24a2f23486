//! RapidJSON-class baseline: the conventional *preprocessing scheme*.
//!
//! This engine first parses the whole record into an in-memory tree
//! ([`Value`]), character by character, then evaluates JSONPath queries by
//! walking the tree top-down — exactly the scheme the paper's Figure 3-(a)
//! illustrates and evaluates as "RapidJSON". It deliberately has no bitwise
//! parallelism and no fast-forwarding; its costs (upfront parse delay and
//! tree memory) are the foil for the streaming engines.
//!
//! Every node records its byte span in the source so query results are
//! directly comparable with the spans the streaming engines emit.
//!
//! # Example
//!
//! ```
//! use domparser::Dom;
//!
//! let json = br#"{"place": {"name": "Manhattan"}}"#;
//! let dom = Dom::parse(json)?;
//! let hits = dom.query(&"$.place.name".parse()?);
//! assert_eq!(hits.len(), 1);
//! assert_eq!(dom.text(hits[0]), "\"Manhattan\"");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod evaluate;
mod parser;
mod query;
mod value;

pub use evaluate::DomQuery;
pub use parser::DomError;
pub use value::{decode_raw_string, Dom, Value, ValueKind};
