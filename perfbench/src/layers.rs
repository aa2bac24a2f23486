//! Ablation passes: the same bytes timed at each layer's public entry
//! point, in-process, one layer after the next. Adjacent passes differ by
//! one layer, so their difference is that layer's cost.
//!
//! Every pass covers the whole query set (or every distinct input) and is
//! reported as the median of [`REPS`] repetitions.

use std::hint::black_box;
use std::time::Instant;

use jsonski::index::config_digest;
use jsonski::{
    best_kernel, split_records, ChunkedRecords, CountSink, FastForwardStats, Group, IndexedJsonSki,
    IndexedRecords, JsonSki, Pipeline, SliceRecords, StructuralIndex,
};
use simdbits::{classify_stream, Classifier};

use crate::data::{fnv, records, Data};
use crate::report::{Metrics, Ops};
use crate::trace::{median, median_ms, Tracer};

const REPS: usize = 5;

/// Runs every engine-side pass over the workload's queries and inputs.
pub fn engine_passes(
    data: &Data,
    bytes: &[Vec<u8>],
    nproc: usize,
    t: &mut Tracer,
    ops: &mut Ops,
    m: &mut Metrics,
) {
    let queries = &data.queries;
    let engines: Vec<JsonSki> = queries
        .iter()
        .map(|q| JsonSki::compile(&q.query).expect("workload queries compile"))
        .collect();
    let records: Vec<Vec<&[u8]>> = queries
        .iter()
        .map(|q| records(&bytes[q.input], data.input(q).layout))
        .collect();
    let mut inputs: Vec<usize> = queries.iter().map(|q| q.input).collect();
    inputs.sort_unstable();
    inputs.dedup();
    let inputs: Vec<&[u8]> = inputs.iter().map(|&i| &bytes[i][..]).collect();

    m.put(
        "records.split_ms",
        t.span("records.split", |_| {
            median_ms(REPS, || {
                for b in &inputs {
                    black_box(split_records(b).expect("generated input splits"));
                }
            })
        }),
    );

    let kernel = best_kernel();
    m.put(
        "simdbits.classify_ms",
        t.span("simdbits.classify", |_| {
            median_ms(REPS, || {
                for b in &inputs {
                    let mut cls = Classifier::with_kernel(kernel);
                    classify_stream(&mut cls, b, |_, bm| {
                        black_box(bm);
                    });
                }
            })
        }),
    );

    m.put(
        "jsonpath.compile_us",
        t.span("jsonpath.compile", |_| {
            let mut per_query: Vec<f64> = (0..200)
                .map(|_| {
                    let t0 = Instant::now();
                    for q in queries {
                        black_box(JsonSki::compile(black_box(&q.query)).expect("compiles"));
                    }
                    t0.elapsed().as_secs_f64() * 1e6 / queries.len() as f64
                })
                .collect();
            median(&mut per_query)
        }),
    );

    let evaluations: usize = records.iter().map(Vec::len).sum();
    let count_ms = t.span("engine.count", |_| {
        median_ms(REPS, || {
            for (e, recs) in engines.iter().zip(&records) {
                for r in recs {
                    black_box(e.count(r).expect("generated input evaluates"));
                }
            }
        })
    });
    m.put("engine.count_ms", count_ms);
    m.put("engine.per_record_ns", count_ms * 1e6 / evaluations as f64);

    // A collecting sink, as the CLI's output loop is: the difference from
    // `engine.count_ms` is match emission. The pass also re-checks the
    // in-process output against the oracle and sums the fast-forward
    // counts, which repeat exactly for a seed.
    let mut ff = FastForwardStats::new();
    let mut out = Vec::new();
    let run_ms = t.span("engine.run", |_| {
        let mut first = true;
        median_ms(REPS, || {
            for ((e, recs), q) in engines.iter().zip(&records).zip(queries) {
                out.clear();
                for r in recs {
                    let stats = e
                        .run(r, |m| {
                            out.extend_from_slice(m.bytes());
                            out.push(b'\n');
                        })
                        .expect("generated input evaluates");
                    if first {
                        ff += stats;
                    }
                }
                if first {
                    ops.check(fnv(&out) == q.expect.digest, || {
                        format!("{}: in-process engine output differs from the oracle", q.id)
                    });
                }
            }
            first = false;
        })
    });
    m.put("engine.run_ms", run_ms);
    m.put("engine.ff_ratio", ff.overall_ratio());
    for (g, name) in Group::ALL.into_iter().zip([
        "engine.ff_g1",
        "engine.ff_g2",
        "engine.ff_g3",
        "engine.ff_g4",
        "engine.ff_g5",
    ]) {
        m.put(name, ff.skipped(g) as f64);
    }

    m.put(
        "reader.chunked_ms",
        t.span("reader.chunked", |_| {
            median_ms(REPS, || {
                for b in &inputs {
                    let mut src = ChunkedRecords::new(*b);
                    while let Some(r) = src.next_record().expect("generated input reads") {
                        black_box(r);
                    }
                }
            })
        }),
    );

    let mut pipeline = |t: &mut Tracer, name: &'static str, workers: usize| {
        t.span(name, |_| {
            median_ms(REPS, || {
                for (e, q) in engines.iter().zip(queries) {
                    let mut sink = CountSink::default();
                    let summary = Pipeline::new()
                        .workers(workers)
                        .run(e, &mut ChunkedRecords::new(&bytes[q.input][..]), &mut sink)
                        .expect("generated input evaluates");
                    ops.check(summary.matches as u64 == q.expect.matches, || {
                        format!("{}: pipeline({workers}) match count differs", q.id)
                    });
                }
            })
        })
    };
    let w1 = pipeline(t, "pipeline.w1", 1);
    let wmax = pipeline(t, "pipeline.wmax", nproc);
    m.put("pipeline.w1_ms", w1);
    m.put("pipeline.wmax_ms", wmax);
    m.put("pipeline.scaling", w1 / wmax);

    index_passes(data, bytes, &engines, t, ops, m);

    let jps: Vec<jpstream::JpStream> = queries
        .iter()
        .map(|q| jpstream::JpStream::compile(&q.query).expect("workload queries compile"))
        .collect();
    m.put(
        "jpstream.run_ms",
        t.span("jpstream.run", |_| {
            median_ms(REPS, || {
                for (jp, recs) in jps.iter().zip(&records) {
                    for r in recs {
                        jp.run(r, |m| {
                            black_box(m);
                        })
                        .expect("generated input evaluates");
                    }
                }
            })
        }),
    );
}

/// The structural index over each query's input: build, verify, answer
/// from it, and the same answer by a plain scan.
fn index_passes(
    data: &Data,
    bytes: &[Vec<u8>],
    engines: &[JsonSki],
    t: &mut Tracer,
    ops: &mut Ops,
    m: &mut Metrics,
) {
    let (mut build, mut verify, mut query, mut scan) = (0.0, 0.0, 0.0, 0.0);
    for (e, q) in engines.iter().zip(&data.queries) {
        let bytes = &bytes[q.input][..];
        let digest = config_digest(&e.config());
        build += t.span("index.build", |_| {
            median_ms(REPS, || {
                black_box(StructuralIndex::build(bytes, digest).expect("generated input indexes"));
            })
        });
        let idx = StructuralIndex::build(bytes, digest).expect("generated input indexes");
        verify += t.span("index.verify", |_| {
            median_ms(REPS, || {
                idx.verify(bytes, digest).expect("fresh index verifies")
            })
        });
        let count = |indexed: bool| {
            let mut sink = CountSink::default();
            let summary = if indexed {
                Pipeline::new().workers(1).run(
                    &IndexedJsonSki::new(e, &idx, None),
                    &mut IndexedRecords::new(bytes, &idx),
                    &mut sink,
                )
            } else {
                Pipeline::new()
                    .workers(1)
                    .run(e, &mut SliceRecords::new(bytes), &mut sink)
            };
            summary.expect("generated input evaluates").matches as u64
        };
        ops.check(count(true) == q.expect.matches, || {
            format!("{}: indexed match count differs", q.id)
        });
        query += t.span("index.query", |_| {
            median_ms(REPS, || {
                black_box(count(true));
            })
        });
        scan += t.span("engine.corpus_scan", |_| {
            median_ms(REPS, || {
                black_box(count(false));
            })
        });
    }
    m.put("index.build_ms", build);
    m.put("index.verify_ms", verify);
    m.put("index.query_ms", query);
    m.put("engine.corpus_scan_ms", scan);
}
