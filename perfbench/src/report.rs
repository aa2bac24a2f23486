//! The metric tables, the operation ledger, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics (tracing off), reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("file_mb_s", "MB/s"),
    ("stdin_mb_s", "MB/s"),
    ("capacity_qps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run). A metric a workload does not exercise
/// reads 0 there: see `SERVE_ONLY` and `CLI_ONLY`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("simdbits.classify_ms", "ms"),
    ("jsonpath.compile_us", "us"),
    ("engine.count_ms", "ms"),
    ("engine.run_ms", "ms"),
    ("engine.per_record_ns", "ns"),
    ("engine.ff_ratio", "ratio"),
    ("engine.ff_g1", "bytes"),
    ("engine.ff_g2", "bytes"),
    ("engine.ff_g3", "bytes"),
    ("engine.ff_g4", "bytes"),
    ("engine.ff_g5", "bytes"),
    ("engine.corpus_scan_ms", "ms"),
    ("records.split_ms", "ms"),
    ("reader.chunked_ms", "ms"),
    ("pipeline.w1_ms", "ms"),
    ("pipeline.wmax_ms", "ms"),
    ("pipeline.scaling", "ratio"),
    ("index.build_ms", "ms"),
    ("index.verify_ms", "ms"),
    ("index.query_ms", "ms"),
    ("jpstream.run_ms", "ms"),
    ("cli.file_ms", "ms"),
    ("cli.stdin_ms", "ms"),
    ("cli.file_overhead_ms", "ms"),
    ("cli.stdin_overhead_ms", "ms"),
    ("cli.file_peak_rss_mb", "MB"),
    ("cli.stdin_peak_rss_mb", "MB"),
    ("protocol.parse_request_us", "us"),
    ("protocol.encode_response_us", "us"),
    ("server.ping_p50_us", "us"),
    ("server.corpus_p50_ms", "ms"),
    ("server.inline_p50_ms", "ms"),
    ("server.stream_p50_ms", "ms"),
    ("server.p50_ms", "ms"),
    ("server.p99_ms", "ms"),
    ("server.index_hit_ratio", "ratio"),
    ("server.mem_peak_bytes", "bytes"),
    ("server.shed", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// Layer-metric prefixes only the serve workload fills.
pub const SERVE_ONLY: &[&str] = &["protocol.", "server.", "loadgen."];
/// Layer-metric prefixes only the CLI workloads fill.
pub const CLI_ONLY: &[&str] = &["cli."];

/// Metric values by name; the unit comes from the tables above.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Every operation the benchmark checks: a child run, a response, or an
/// in-process pass. A failure is counted, never dropped.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Ops {
    /// Counts one operation; `what` names it when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
        ok
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The metric table a run reports.
pub fn table(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` for every metric of the table.
pub fn metrics_json(m: &Metrics, traced: bool) -> String {
    let body: Vec<String> = table(traced)
        .iter()
        .map(|(name, unit)| {
            let v = m.get(name).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: the last line of standard output.
pub fn result_line(m: &Metrics, ops: &Ops, traced: bool) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ops.failed == 0,
        ops.attempted,
        ops.failed,
        metrics_json(m, traced)
    )
}
