//! Seeded inputs, their on-disk cache, and the expected outputs.
//!
//! Inputs are a pure function of (workload, seed, scale) and are cached on
//! disk under that key, so generation and the oracle pass never land in a
//! timed region. The expected match count and FNV-1a digest of every query
//! come from JPStream — a different engine, held equal to JSONSki by the
//! repository's cross-engine suite — evaluated record by record.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::SystemTime;

use datagen::{Dataset, GenConfig};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// FNV-1a 64, the digest the serve stream trailer also uses.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.update(bytes);
    h.finish()
}

/// SplitMix64: a small seeded generator for the benchmark's own inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LargeSparse,
    NdjsonDense,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::LargeSparse,
        Workload::NdjsonDense,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LargeSparse => "large-sparse",
            Workload::NdjsonDense => "ndjson-dense",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes. `FULL` is what the benchmark measures; `TINY` is the
/// self-test's.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub tag: &'static str,
    /// Bytes per datagen family in large-record form.
    pub large_bytes: usize,
    /// Records in the dense NDJSON input.
    pub dense_records: usize,
    /// Bytes of the two serve corpora. The first is the larger, so a
    /// request for the second reuses heap the first one freed.
    pub corpus_bytes: [usize; 2],
    /// Bytes of the serve inline body.
    pub body_bytes: usize,
}

pub const FULL: Scale = Scale {
    tag: "full",
    large_bytes: 4 << 20,
    dense_records: 32_000,
    corpus_bytes: [5 << 20, 4 << 20],
    body_bytes: 1 << 20,
};

pub const TINY: Scale = Scale {
    tag: "tiny",
    large_bytes: 64 << 10,
    dense_records: 500,
    corpus_bytes: [48 << 10, 32 << 10],
    body_bytes: 16 << 10,
};

/// How an input is cut into records for the per-record passes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// One JSON record (the large-record form).
    Single,
    /// One record per line.
    Lines,
}

pub struct InputFile {
    /// File name; stored corpora live in the entry's `corpus/` directory.
    pub name: String,
    pub path: PathBuf,
    pub len: u64,
    pub layout: Layout,
}

impl InputFile {
    /// The input's bytes. Read only where a pass needs them in memory:
    /// a child's `ru_maxrss` is never below the RSS of the process that
    /// spawns it (Linux carries the parent's high-water mark across
    /// `exec`), so the benchmark stays small while children run.
    pub fn read(&self) -> io::Result<Vec<u8>> {
        fs::read(&self.path)
    }
}

/// The records of an input, as the oracle and the serial engine loop see
/// them.
pub fn records(bytes: &[u8], layout: Layout) -> Vec<&[u8]> {
    match layout {
        Layout::Single => vec![bytes.trim_ascii()],
        Layout::Lines => bytes
            .split(|&b| b == b'\n')
            .filter(|l| !l.trim_ascii().is_empty())
            .collect(),
    }
}

/// Which user path a query is sent down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// CLI: `jsonski QUERY FILE` and `jsonski -j N QUERY < FILE`.
    Cli,
    /// serve: a query over a stored corpus (warm structural index).
    Corpus,
    /// serve: a query over the request's own body.
    Inline,
    /// serve: a corpus query with a large `"stream": true` response.
    Stream,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Cli => "cli",
            Kind::Corpus => "corpus",
            Kind::Inline => "inline",
            Kind::Stream => "stream",
        }
    }

    fn from_name(s: &str) -> Option<Kind> {
        [Kind::Cli, Kind::Corpus, Kind::Inline, Kind::Stream]
            .into_iter()
            .find(|k| k.name() == s)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expect {
    pub matches: u64,
    pub digest: u64,
}

pub struct Query {
    pub id: String,
    pub query: String,
    pub input: usize,
    pub kind: Kind,
    pub expect: Expect,
}

pub struct Data {
    pub workload: Workload,
    pub seed: u64,
    pub dir: PathBuf,
    pub inputs: Vec<InputFile>,
    pub queries: Vec<Query>,
}

impl Data {
    pub fn input(&self, q: &Query) -> &InputFile {
        &self.inputs[q.input]
    }

    pub fn generated_bytes(&self) -> u64 {
        self.inputs.iter().map(|i| i.len).sum()
    }

    /// Every input's bytes, indexed like `inputs`.
    pub fn read_all(&self) -> io::Result<Vec<Vec<u8>>> {
        self.inputs.iter().map(InputFile::read).collect()
    }
}

const ORACLE: &str = "oracle.tsv";
/// Cache entries kept per workload (the newest by use).
const KEEP: usize = 3;

/// The cache entry of (workload, seed, size).
fn entry(work: &Path, w: Workload, seed: u64, scale: &Scale) -> PathBuf {
    let size = match w {
        Workload::LargeSparse => scale.large_bytes.to_string(),
        Workload::NdjsonDense => scale.dense_records.to_string(),
        Workload::ServeMixed => {
            let [c0, c1] = scale.corpus_bytes;
            format!("{c0}-{c1}-{}", scale.body_bytes)
        }
    };
    work.join("inputs")
        .join(format!("{}-s{seed}-n{size}", w.name()))
}

/// Whether (workload, seed, scale) is already generated.
pub fn is_prepared(work: &Path, w: Workload, seed: u64, scale: &Scale) -> bool {
    entry(work, w, seed, scale).join(ORACLE).is_file()
}

/// Generates the inputs of (workload, seed, scale) and their oracle.
pub fn prepare(work: &Path, w: Workload, seed: u64, scale: &Scale) -> io::Result<()> {
    generate(&entry(work, w, seed, scale), w, seed, scale)
}

/// Loads a prepared cache entry's description (not its bytes), marks it
/// used, and evicts the least recently used entries beyond [`KEEP`].
pub fn load(work: &Path, w: Workload, seed: u64, scale: &Scale) -> io::Result<Data> {
    let dir = entry(work, w, seed, scale);
    let data = read_cached(&dir, w, seed)?;
    fs::File::options()
        .append(true)
        .open(dir.join(ORACLE))?
        .set_modified(SystemTime::now())?;
    evict(&work.join("inputs"), w, &dir)?;
    Ok(data)
}

/// Drops the least recently used cache entries of `w` beyond [`KEEP`].
fn evict(root: &Path, w: Workload, keep: &Path) -> io::Result<()> {
    let prefix = format!("{}-s", w.name());
    let mut entries = Vec::new();
    for e in fs::read_dir(root)? {
        let path = e?.path();
        let named = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with(&prefix));
        if named && path != keep {
            let used = fs::metadata(path.join(ORACLE))
                .and_then(|m| m.modified())
                .unwrap_or(SystemTime::UNIX_EPOCH);
            entries.push((used, path));
        }
    }
    entries.sort();
    let excess = (entries.len() + 1).saturating_sub(KEEP);
    for (_, path) in entries.into_iter().take(excess) {
        fs::remove_dir_all(path)?;
    }
    Ok(())
}

/// One dense NDJSON record: ~117 bytes, two to eight numbers, the shape
/// of a catalogue or event feed.
fn push_record(rng: &mut Rng, id: usize, out: &mut Vec<u8>) {
    let sku: String = (0..6)
        .map(|_| char::from(b'a' + rng.below(26) as u8))
        .collect();
    write!(out, "{{\"id\": {id}, \"sku\": \"{sku}\", \"items\": [").expect("vec write");
    for i in 0..=rng.below(3) {
        if i > 0 {
            out.extend_from_slice(b", ");
        }
        write!(
            out,
            "{{\"price\": {}.{:02}, \"qty\": {}}}",
            rng.below(1000),
            rng.below(100),
            rng.below(9) + 1
        )
        .expect("vec write");
    }
    out.extend_from_slice(b"], \"tags\": [");
    for i in 0..rng.below(3) {
        if i > 0 {
            out.extend_from_slice(b", ");
        }
        write!(out, "\"t{}\"", rng.below(50)).expect("vec write");
    }
    out.extend_from_slice(b"]}\n");
}

/// `n` dense records.
pub fn dense_records(seed: u64, n: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(n * 120);
    for id in 0..n {
        push_record(&mut rng, id, &mut out);
    }
    out
}

/// Dense records filling exactly `len` bytes, the last one padded with a
/// `"pad"` string no query reads. Sizes that do not move with the seed
/// keep the daemon's allocation pattern, and so its peak RSS, comparable
/// across seeds.
pub fn dense_exact(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(len);
    let mut id = 0;
    while out.len() + 512 < len {
        push_record(&mut rng, id, &mut out);
        id += 1;
    }
    let head = format!("{{\"id\": {id}, \"pad\": \"");
    let pad = len - out.len() - head.len() - "\"}\n".len();
    out.extend_from_slice(head.as_bytes());
    out.resize(out.len() + pad, b'x');
    out.extend_from_slice(b"\"}\n");
    out
}

/// What one workload is made of, before the oracle runs.
struct Plan {
    inputs: Vec<(String, Vec<u8>, Layout)>,
    queries: Vec<(String, String, usize, Kind)>,
}

fn plan(w: Workload, seed: u64, scale: &Scale) -> Plan {
    match w {
        Workload::LargeSparse => {
            let families = Dataset::all();
            // Families are independent: generate them in parallel.
            let bytes: Vec<Vec<u8>> = std::thread::scope(|s| {
                let handles: Vec<_> = families
                    .iter()
                    .enumerate()
                    .map(|(i, ds)| {
                        let cfg = GenConfig {
                            target_bytes: scale.large_bytes,
                            seed: seed.wrapping_mul(31).wrapping_add(i as u64),
                        };
                        s.spawn(move || ds.generate_large(&cfg).bytes().to_vec())
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("datagen does not panic"))
                    .collect()
            });
            let mut p = Plan {
                inputs: Vec::new(),
                queries: Vec::new(),
            };
            for (i, (ds, b)) in families.iter().zip(bytes).enumerate() {
                p.inputs
                    .push((format!("corpus/{}.json", ds.name()), b, Layout::Single));
                for (id, q) in ds.queries() {
                    p.queries.push((id.into(), q.into(), i, Kind::Cli));
                }
            }
            p
        }
        Workload::NdjsonDense => Plan {
            inputs: vec![(
                "corpus/dense.ndjson".into(),
                dense_records(seed, scale.dense_records),
                Layout::Lines,
            )],
            queries: vec![
                ("PRICE".into(), "$.items[*].price".into(), 0, Kind::Cli),
                ("NOTHING".into(), "$.nothing".into(), 0, Kind::Cli),
            ],
        },
        Workload::ServeMixed => {
            let mut seeds = Rng::new(seed);
            Plan {
                inputs: vec![
                    (
                        "corpus/c0.ndjson".into(),
                        dense_exact(seeds.next_u64(), scale.corpus_bytes[0]),
                        Layout::Lines,
                    ),
                    (
                        "corpus/c1.ndjson".into(),
                        dense_exact(seeds.next_u64(), scale.corpus_bytes[1]),
                        Layout::Lines,
                    ),
                    (
                        "body.ndjson".into(),
                        dense_exact(seeds.next_u64(), scale.body_bytes),
                        Layout::Lines,
                    ),
                ],
                queries: vec![
                    ("CORPUS-SKU".into(), "$.sku".into(), 0, Kind::Corpus),
                    (
                        "CORPUS-QTY".into(),
                        "$.items[0].qty".into(),
                        1,
                        Kind::Corpus,
                    ),
                    (
                        "INLINE-PRICE".into(),
                        "$.items[*].price".into(),
                        2,
                        Kind::Inline,
                    ),
                    ("STREAM-ITEMS".into(), "$.items[*]".into(), 1, Kind::Stream),
                ],
            }
        }
    }
}

/// Expected output of `query` over `records`: match count and the FNV-1a
/// digest of the match lines (`match\n` each), as the CLI prints them.
pub fn oracle(query: &str, records: &[&[u8]]) -> io::Result<Expect> {
    let jp = jpstream::JpStream::compile(query).map_err(io::Error::other)?;
    let mut h = Fnv::new();
    let mut matches = 0u64;
    for r in records {
        jp.run(r, |m| {
            matches += 1;
            h.update(m);
            h.update(b"\n");
        })
        .map_err(io::Error::other)?;
    }
    Ok(Expect {
        matches,
        digest: h.finish(),
    })
}

fn generate(dir: &Path, w: Workload, seed: u64, scale: &Scale) -> io::Result<()> {
    if dir.exists() {
        fs::remove_dir_all(dir)?;
    }
    fs::create_dir_all(dir.join("corpus"))?;
    let p = plan(w, seed, scale);
    let mut tsv = String::new();
    for (rel, bytes, layout) in &p.inputs {
        write_synced(&dir.join(rel), bytes)?;
        let tag = if *layout == Layout::Single {
            "single"
        } else {
            "lines"
        };
        tsv.push_str(&format!("input\t{rel}\t{tag}\n"));
    }
    for (id, query, input, kind) in &p.queries {
        let (_, bytes, layout) = &p.inputs[*input];
        let e = oracle(query, &records(bytes, *layout))?;
        tsv.push_str(&format!(
            "query\t{id}\t{input}\t{}\t{}\t{}\t{query}\n",
            kind.name(),
            e.matches,
            e.digest
        ));
    }
    // Written last and renamed into place: its presence marks a complete
    // entry.
    let tmp = dir.join("oracle.tmp");
    write_synced(&tmp, tsv.as_bytes())?;
    fs::rename(tmp, dir.join(ORACLE))
}

/// Writes and flushes to disk now, so no writeback of generated inputs
/// lands in a later timed region.
fn write_synced(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = fs::File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

fn bad(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("bad oracle cache: {what}"),
    )
}

fn read_cached(dir: &Path, w: Workload, seed: u64) -> io::Result<Data> {
    let tsv = fs::read_to_string(dir.join(ORACLE))?;
    let mut data = Data {
        workload: w,
        seed,
        dir: dir.to_path_buf(),
        inputs: Vec::new(),
        queries: Vec::new(),
    };
    for line in tsv.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        match f.as_slice() {
            ["input", rel, layout] => {
                let path = dir.join(rel);
                data.inputs.push(InputFile {
                    name: path
                        .file_name()
                        .and_then(|n| n.to_str())
                        .ok_or_else(|| bad("input name"))?
                        .to_string(),
                    len: fs::metadata(&path)?.len(),
                    path,
                    layout: if *layout == "single" {
                        Layout::Single
                    } else {
                        Layout::Lines
                    },
                });
            }
            ["query", id, input, kind, matches, digest, query] => data.queries.push(Query {
                id: id.to_string(),
                query: query.to_string(),
                input: input.parse().map_err(|_| bad("input"))?,
                kind: Kind::from_name(kind).ok_or_else(|| bad("kind"))?,
                expect: Expect {
                    matches: matches.parse().map_err(|_| bad("matches"))?,
                    digest: digest.parse().map_err(|_| bad("digest"))?,
                },
            }),
            _ => return Err(bad(line)),
        }
    }
    if data.queries.iter().any(|q| q.input >= data.inputs.len()) {
        return Err(bad("query names a missing input"));
    }
    Ok(data)
}
