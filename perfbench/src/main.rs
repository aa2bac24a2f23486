//! perfbench: end-to-end and per-layer benchmark of the `jsonski` binary.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <large-sparse|ndjson-dense|serve-mixed> --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Run from the repository root. The benchmark builds `jsonski` from the
//! sources beside it, generates its inputs from the seed (cached under
//! `perfbench/work/`), drives the binary as a child process, checks every
//! output against an oracle from another engine, and prints a metric
//! table, a provenance line, and — last — one JSON result line. See
//! `perfbench/README.md` for what each metric means.

mod cli;
mod data;
mod layers;
mod report;
mod serve;
mod sys;
mod trace;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use data::{Data, Scale, Workload};
use report::{Metrics, Ops};
use trace::Tracer;

/// Working directory for inputs and results, relative to the repository root.
const WORK_DIR: &str = "perfbench/work";

/// What every workload runs against.
pub struct Env {
    /// The `jsonski` binary under test.
    pub bin: PathBuf,
    /// Working directory: input cache, traces, results.
    pub work: PathBuf,
    pub nproc: usize,
    /// Length of the measured phases of one run.
    pub seconds: Duration,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Bench(Args),
    SelfTest,
    /// Internal: generate one cache entry in a process of its own.
    Prepare(Workload, u64, &'static Scale),
}

fn parse_args() -> Result<Mode, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            return Ok(Mode::SelfTest);
        }
        if flag == "--prepare" {
            let mut next = || it.next().unwrap_or_default();
            let (w, seed, tag) = (next(), next(), next());
            return match (Workload::from_name(&w), seed.parse(), scale_named(&tag)) {
                (Some(w), Ok(seed), Some(scale)) => Ok(Mode::Prepare(w, seed, scale)),
                _ => Err(format!("--prepare: bad arguments {w:?} {seed:?} {tag:?}")),
            };
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("duration"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Mode::Bench(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    }))
}

fn scale_named(tag: &str) -> Option<&'static Scale> {
    [&data::FULL, &data::TINY]
        .into_iter()
        .find(|s| s.tag == tag)
}

/// Loads (workload, seed, scale), generating it first in a child process:
/// generation touches every input byte, and a high-water mark left in
/// this process would be inherited by the `ru_maxrss` of every child it
/// spawns later.
fn load_data(env: &Env, w: Workload, seed: u64, scale: &Scale) -> io::Result<Data> {
    if !data::is_prepared(&env.work, w, seed, scale) {
        let status = Command::new(std::env::current_exe()?)
            .args(["--prepare", w.name(), &seed.to_string(), scale.tag])
            .stdout(Stdio::null())
            .status()?;
        if !status.success() {
            return Err(io::Error::other(format!(
                "generating inputs failed: {status}"
            )));
        }
    }
    data::load(&env.work, w, seed, scale)
}

/// Builds `jsonski` from the checkout (a no-op when up to date) and
/// returns its path.
fn build_jsonski() -> io::Result<PathBuf> {
    for need in ["Cargo.toml", "crates/cli/Cargo.toml"] {
        if !Path::new(need).is_file() {
            return Err(io::Error::other(format!(
                "{need} not found: run from the repository root"
            )));
        }
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "jsonski-cli", "--bin", "jsonski"])
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "building jsonski failed: {status}"
        )));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    Ok(target.join("release").join("jsonski"))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// A digest of the sources the binary is built from, for checkouts that
/// carry no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = data::Fnv::new();
    for f in files {
        h.update(f.to_string_lossy().as_bytes());
        h.update(&fs::read(&f).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}

fn cpu_flags() -> String {
    const WANT: &[&str] = &[
        "sse2",
        "sse4_2",
        "popcnt",
        "pclmulqdq",
        "bmi2",
        "avx2",
        "avx512f",
        "avx512bw",
        "avx512vl",
        "avx512_vbmi",
    ];
    let info = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> = info
        .lines()
        .find_map(|l| l.strip_prefix("flags"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).split(' ').collect())
        .unwrap_or_default();
    let have: Vec<&str> = WANT.iter().copied().filter(|w| flags.contains(w)).collect();
    have.join(" ")
}

/// Provenance: everything needed to compare two results like with like.
fn provenance(args: &Args, env: &Env, data: &Data, bench_rss_mb: f64) -> String {
    let queries: Vec<String> = data
        .queries
        .iter()
        .map(|q| format!("\"{}\": {}", q.id, q.expect.matches))
        .collect();
    let inputs: Vec<String> = data
        .inputs
        .iter()
        .map(|i| format!("\"{}\": {}", i.name, i.len))
        .collect();
    format!(
        concat!(
            "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, ",
            "\"git_commit\": \"{}\", \"source_digest\": \"{}\", \"nproc\": {}, \"cpu_flags\": \"{}\", ",
            "\"kernel\": \"{}\", \"rustc\": \"{}\", \"bench_rss_mb\": {}, \"generated_bytes\": {}, ",
            "\"input_bytes\": {{{}}}, \"query_matches\": {{{}}}}}}}"
        ),
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        command_line("git", &["rev-parse", "HEAD"]),
        source_digest(),
        env.nproc,
        cpu_flags(),
        jsonski::best_kernel().name(),
        command_line("rustc", &["--version"]),
        bench_rss_mb,
        data.generated_bytes(),
        inputs.join(", "),
        queries.join(", "),
    )
}

/// Measures one workload; the tracer collects spans when enabled.
fn measure(env: &Env, data: &Data, t: &mut Tracer, ops: &mut Ops) -> io::Result<Metrics> {
    let mut m = Metrics::default();
    let t0 = Instant::now();
    match data.workload {
        Workload::LargeSparse | Workload::NdjsonDense => cli::run(env, data, t, ops, &mut m)?,
        Workload::ServeMixed => serve::run(env, data, t, ops, &mut m)?,
    }
    if t.enabled() {
        let spans = t.len();
        let cost = Tracer::span_cost();
        m.put("trace.spans", spans as f64);
        m.put(
            "trace.overhead_pct",
            100.0 * (cost * spans as u32).as_secs_f64() / t0.elapsed().as_secs_f64(),
        );
    }
    Ok(m)
}

fn print_table(m: &Metrics, ops: &Ops, traced: bool) {
    for (name, unit) in report::table(traced) {
        match m.get(name) {
            Some(v) => println!("{name:<28} {v:>16.4} {unit}"),
            None => println!("{name:<28} {:>16} {unit}", "n/a"),
        }
    }
    println!(
        "{:<28} {:>16.4} share ({} of {} operations)",
        "failed_share",
        ops.failed_share(),
        ops.failed,
        ops.attempted
    );
    for n in ops.notes() {
        eprintln!("perfbench: failed: {n}");
    }
}

fn setup_env(seconds: f64) -> io::Result<Env> {
    let work = PathBuf::from(WORK_DIR);
    fs::create_dir_all(&work)?;
    Ok(Env {
        bin: build_jsonski()?,
        work,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        seconds: Duration::from_secs_f64(seconds),
    })
}

fn bench(args: &Args) -> io::Result<()> {
    let env = setup_env(args.seconds)?;
    let data = load_data(&env, args.workload, args.seed, &data::FULL)?;
    let bench_rss_mb = sys::vm_hwm_mb(std::process::id())?;
    let mut tracer = Tracer::new(args.trace);
    let mut ops = Ops::default();
    let m = measure(&env, &data, &mut tracer, &mut ops)?;
    let prov = provenance(args, &env, &data, bench_rss_mb);
    let result = report::result_line(&m, &ops, args.trace);
    let results = env.work.join("results");
    fs::create_dir_all(&results)?;
    let stem = format!(
        "{}-s{}-t{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    fs::write(
        results.join(format!("{stem}.json")),
        format!("{prov}\n{result}\n"),
    )?;
    if args.trace {
        fs::write(results.join(format!("{stem}.spans.json")), tracer.to_json())?;
    }
    print_table(&m, &ops, args.trace);
    println!("{prov}");
    println!("{result}");
    Ok(())
}

/// Names and units listed under `key` in BENCHMARK.json.
fn declared(manifest: &[u8], key: &str) -> Vec<(String, String)> {
    let text = |ptr: String| {
        jsonski::get(manifest, &ptr)
            .ok()
            .flatten()
            .and_then(|v| v.as_str().ok().map(|s| s.into_owned()))
    };
    (0..)
        .map_while(|i| {
            Some((
                text(format!("/{key}/{i}/name"))?,
                text(format!("/{key}/{i}/unit"))?,
            ))
        })
        .collect()
}

/// Tiny inputs through every workload: every metric is printed with its
/// unit, BENCHMARK.json declares exactly these, and a wrong oracle digest
/// is counted as a failure.
fn self_test() -> io::Result<()> {
    let env = setup_env(1.0)?;
    let mut problems = Vec::new();
    let manifest = fs::read("BENCHMARK.json")?;
    for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
        let ours: Vec<(String, String)> = report::table(traced)
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        if declared(&manifest, key) != ours {
            problems.push(format!(
                "BENCHMARK.json {key} differs from the metric table"
            ));
        }
    }
    for w in Workload::ALL {
        let tiny: &Scale = &data::TINY;
        for traced in [false, true] {
            let data = load_data(&env, w, 1, tiny)?;
            let mut ops = Ops::default();
            let m = measure(&env, &data, &mut Tracer::new(traced), &mut ops)?;
            let line = report::result_line(&m, &ops, traced);
            for (name, unit) in report::table(traced) {
                let skip = if w == Workload::ServeMixed {
                    report::CLI_ONLY
                } else {
                    report::SERVE_ONLY
                };
                let applies = !skip.iter().any(|p| name.starts_with(p));
                let ok = match m.get(name) {
                    Some(v) if traced => v.is_finite(),
                    Some(v) => v.is_finite() && v > 0.0,
                    None => !applies,
                };
                if !ok {
                    problems.push(format!(
                        "{} trace={traced}: {name} missing or out of range",
                        w.name()
                    ));
                }
                let entry = format!("\"{name}\": {{\"value\": ");
                let printed = line.split_once(&entry).is_some_and(|(_, rest)| {
                    rest.split('}')
                        .next()
                        .is_some_and(|e| e.ends_with(&format!("\"unit\": \"{unit}\"")))
                });
                if !printed {
                    problems.push(format!(
                        "{} trace={traced}: {name} not printed with {unit}",
                        w.name()
                    ));
                }
            }
            if ops.failed != 0 {
                problems.push(format!(
                    "{} trace={traced}: {} failures: {:?}",
                    w.name(),
                    ops.failed,
                    ops.notes()
                ));
            }
        }
        // The gate must be able to fail: corrupt one expected digest.
        let mut data = load_data(&env, w, 1, tiny)?;
        data.queries[0].expect.digest ^= 1;
        let mut ops = Ops::default();
        measure(&env, &data, &mut Tracer::new(false), &mut ops)?;
        if ops.failed == 0 || ops.failed_share() <= 0.0 {
            problems.push(format!(
                "{}: a wrong oracle digest was not counted",
                w.name()
            ));
        }
    }
    if problems.is_empty() {
        println!("perfbench self-test: ok");
        Ok(())
    } else {
        Err(io::Error::other(problems.join("\n")))
    }
}

fn main() -> ExitCode {
    let outcome = match parse_args() {
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
        Ok(Mode::SelfTest) => self_test(),
        Ok(Mode::Bench(args)) => bench(&args),
        Ok(Mode::Prepare(w, seed, scale)) => data::prepare(Path::new(WORK_DIR), w, seed, scale),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
