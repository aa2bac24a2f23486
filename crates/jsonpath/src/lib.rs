//! JSONPath parser, pushdown query automaton, and fast-forward legality
//! analysis.
//!
//! This crate implements the query side of the JSONSki reproduction, shared
//! by *all* engines (JSONSki core and every baseline): a parser for the full
//! supported JSONPath grammar — root `$`, child `.name` / `['name']`, array
//! index `[n]`, index range `[m:n]`, wildcards `[*]` / `.*`, unions
//! `['a','b']` / `[1,3]`, descendant `..name` / `..*` / `..[...]`, and
//! comparison filters `[?(@.x op v)]` over scalars — plus the pushdown query
//! automaton of the paper's Figure 5 (rules `[Key]`, `[Val]`, `[Ary-S]`,
//! `[Ary-E]`, `[Com]`), generalized to an NFA over path positions, and the
//! attribute/element *type inference* of Section 3.2 that drives
//! fast-forwarding.
//!
//! The paper restricts queries to child steps and index ranges (its Section
//! 5.1 names descendant elements as "one missing operator in the current
//! version"); this reproduction lifts that restriction. Because descendant
//! and filter steps break the soundness assumptions behind the paper's
//! fast-forward groups (Table 1), the [`Legality`] analysis computes — from
//! the query alone — which groups G1–G5 remain sound in each automaton
//! state, so engines degrade from "skip siblings" to "descend everywhere"
//! only where the query demands it. Descendant-free queries keep singleton
//! (DFA) state sets and exactly their old fast-forward behavior.
//!
//! Remaining documented deviations from RFC 9535: filters apply to array
//! elements only, unions evaluate in document order with duplicates removed,
//! and negative indices / slice steps are unsupported.
//!
//! # Example
//!
//! ```
//! use jsonski_path::{Path, Step, ExpectedType};
//!
//! let path: Path = "$.place.name".parse()?;
//! assert_eq!(path.steps().len(), 2);
//! assert_eq!(path.steps()[0], Step::child("place"));
//! // `place` must be an object because it has an attribute `name`:
//! assert_eq!(path.expected_type(0), ExpectedType::Object);
//! // the final step's value could be anything:
//! assert_eq!(path.expected_type(1), ExpectedType::Unknown);
//!
//! // Descendant steps parse too, but disable every fast-forward group:
//! let deep: Path = "$..name".parse()?;
//! assert!(deep.has_descendant());
//! assert_eq!(deep.legality(0), jsonski_path::Legality::NONE);
//! # Ok::<(), jsonski_path::ParsePathError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod ast;
mod automaton;
pub mod filter;
mod legality;
pub mod names;
mod parse;

pub use ast::{CmpOp, ExpectedType, FilterExpr, Literal, Path, Step};
pub use automaton::{ContainerKind, Runtime, State, Status};
pub use legality::Legality;
pub use parse::ParsePathError;
