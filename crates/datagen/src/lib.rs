//! Synthetic dataset generators for the JSONSki reproduction.
//!
//! The paper evaluates on six ~1 GB real-world datasets (Twitter, Best Buy,
//! Google Maps Directions, UK NSPL, Walmart, Wikidata) that are not
//! redistributable. This crate synthesizes structurally equivalent data:
//! each generator is shaped to the paper's Table 4 statistics (relative
//! counts of objects/arrays/attributes/primitives, record counts, nesting
//! depth) and to the Table 5 query paths, so the *selectivity regime* of
//! every query — how often it matches, how much of each record is irrelevant
//! to it — is preserved. Fast-forward opportunity is a function of this
//! structure, not of the concrete byte contents.
//!
//! Two forms per dataset, matching the paper's two processing scenarios:
//!
//! * [`Dataset::generate_large`] — one single large record;
//! * [`Dataset::generate_small`] — a sequence of small records with an
//!   offset table (the paper: "Each input with small records is stored in
//!   an array, along with an offset array for starting positions").
//!
//! Generated strings occasionally contain escaped quotes, backslashes, and
//! JSON metacharacters, exercising the engines' string-masking paths.
//!
//! # Example
//!
//! ```
//! use datagen::{Dataset, GenConfig};
//!
//! let cfg = GenConfig { target_bytes: 64 * 1024, seed: 42 };
//! let data = Dataset::Tt.generate_small(&cfg);
//! assert!(data.bytes().len() >= 64 * 1024);
//! assert!(data.records().len() > 1);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod families;
mod stats;
mod text;
mod writer;

pub use stats::{structural_stats, StructuralStats};
pub use writer::JsonWriter;

/// Generation parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenConfig {
    /// Approximate size of the generated stream in bytes (generation stops
    /// at the first record boundary past this size).
    pub target_bytes: usize,
    /// RNG seed; equal seeds give identical data.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            target_bytes: 16 * 1024 * 1024,
            seed: 0x5eed_0001,
        }
    }
}

/// A generated data stream plus its record offset table.
#[derive(Clone, Debug)]
pub struct GeneratedData {
    bytes: Vec<u8>,
    records: Vec<(usize, usize)>,
}

impl GeneratedData {
    pub(crate) fn new(bytes: Vec<u8>, records: Vec<(usize, usize)>) -> Self {
        GeneratedData { bytes, records }
    }

    /// The raw JSON stream.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Record spans within [`GeneratedData::bytes`]; a single span for the
    /// large-record form.
    pub fn records(&self) -> &[(usize, usize)] {
        &self.records
    }

    /// Iterates the record slices.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.records.iter().map(|&(s, e)| &self.bytes[s..e])
    }
}

/// The six dataset families of the paper's Table 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Geo-referenced tweets (Twitter developer API).
    Tt,
    /// Best Buy product catalog.
    Bb,
    /// Google Maps Directions results.
    Gmd,
    /// UK National Statistics Postcode Lookup.
    Nspl,
    /// Walmart product catalog.
    Wm,
    /// Wikidata entities.
    Wp,
}

impl Dataset {
    /// All six datasets in the paper's order.
    pub fn all() -> [Dataset; 6] {
        [
            Dataset::Tt,
            Dataset::Bb,
            Dataset::Gmd,
            Dataset::Nspl,
            Dataset::Wm,
            Dataset::Wp,
        ]
    }

    /// The paper's dataset abbreviation.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Tt => "TT",
            Dataset::Bb => "BB",
            Dataset::Gmd => "GMD",
            Dataset::Nspl => "NSPL",
            Dataset::Wm => "WM",
            Dataset::Wp => "WP",
        }
    }

    /// The two Table 5 queries for this dataset: `(id, JSONPath)`.
    pub fn queries(self) -> [(&'static str, &'static str); 2] {
        match self {
            Dataset::Tt => [("TT1", "$[*].en.urls[*].url"), ("TT2", "$[*].text")],
            Dataset::Bb => [("BB1", "$.pd[*].cp[1:3].id"), ("BB2", "$.pd[*].vc[*].cha")],
            Dataset::Gmd => [
                ("GMD1", "$[*].rt[*].lg[*].st[*].dt.tx"),
                ("GMD2", "$[*].atm"),
            ],
            Dataset::Nspl => [("NSPL1", "$.mt.vw.co[*].nm"), ("NSPL2", "$.dt[*][*][2:4]")],
            Dataset::Wm => [("WM1", "$.it[*].bmrpr.pr"), ("WM2", "$.it[*].nm")],
            Dataset::Wp => [
                ("WP1", "$[*].cl.P150[*].ms.pty"),
                ("WP2", "$[10:21].cl.P150[*].ms.pty"),
            ],
        }
    }

    /// Query ids (from [`Dataset::queries`]) that are only meaningful on the
    /// single-large-record form (the paper excludes NSPL1 and WP2 from the
    /// small-record scenario).
    pub fn large_only_queries(self) -> &'static [&'static str] {
        match self {
            Dataset::Nspl => &["NSPL1"],
            Dataset::Wp => &["WP2"],
            _ => &[],
        }
    }

    /// Generates the single-large-record form.
    pub fn generate_large(self, cfg: &GenConfig) -> GeneratedData {
        families::generate(self, cfg, true)
    }

    /// Generates the small-records form (records separated by newlines),
    /// with per-record offsets.
    pub fn generate_small(self, cfg: &GenConfig) -> GeneratedData {
        families::generate(self, cfg, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let cfg = GenConfig {
            target_bytes: 32 * 1024,
            seed: 7,
        };
        for ds in Dataset::all() {
            let a = ds.generate_large(&cfg);
            let b = ds.generate_large(&cfg);
            assert_eq!(a.bytes(), b.bytes(), "{}", ds.name());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Dataset::Tt.generate_small(&GenConfig {
            target_bytes: 32 * 1024,
            seed: 1,
        });
        let b = Dataset::Tt.generate_small(&GenConfig {
            target_bytes: 32 * 1024,
            seed: 2,
        });
        assert_ne!(a.bytes(), b.bytes());
    }

    #[test]
    fn record_spans_tile_the_stream() {
        let cfg = GenConfig {
            target_bytes: 64 * 1024,
            seed: 3,
        };
        for ds in Dataset::all() {
            let data = ds.generate_small(&cfg);
            let mut prev_end = 0;
            for &(s, e) in data.records() {
                assert!(s >= prev_end && e > s, "{}", ds.name());
                prev_end = e;
            }
            assert!(prev_end <= data.bytes().len());
        }
    }

    #[test]
    fn names_and_queries_are_stable() {
        assert_eq!(Dataset::Tt.name(), "TT");
        assert_eq!(Dataset::all().len(), 6);
        for ds in Dataset::all() {
            assert_eq!(ds.queries().len(), 2);
        }
        assert_eq!(Dataset::Nspl.large_only_queries(), &["NSPL1"]);
        assert_eq!(Dataset::Wp.large_only_queries(), &["WP2"]);
        assert!(Dataset::Tt.large_only_queries().is_empty());
    }
}
