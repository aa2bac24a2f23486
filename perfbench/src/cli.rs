//! The CLI workloads: `jsonski QUERY FILE` and `jsonski -j N QUERY < FILE`
//! as separate processes, checked against the oracle.
//!
//! The end-to-end metrics are timed in the children's CPU time (user plus
//! system, from `wait4`), not in wall time. On a few vCPUs of a shared
//! host the hypervisor gives the vCPUs to other tenants for part of the
//! time (on a 2-vCPU Xeon guest: 20–75% steal, in stretches of minutes),
//! so wall time measures the neighbours: runs of the same code minutes
//! apart differed by up to 2.7×. The kernel leaves stolen time out of a
//! task's CPU time. On a dedicated core a single-threaded child's CPU
//! time is its wall time; for `-j N` it is the work summed over the
//! pipeline's threads, so its parallel overhead counts and its overlap
//! does not. Wall times stay in the layer table (`cli.*_ms`), next to the
//! in-process passes they are compared with.

use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

use crate::data::{fnv, Data, Query};
use crate::report::{Metrics, Ops};
use crate::sys::{self, Capture, Exit, Input, Timed};
use crate::trace::{median, Tracer};
use crate::Env;

/// Empty-stdin invocations behind `setup_s`, per round.
const SETUP_PER_ROUND: usize = 8;
/// Bounds on the rounds.
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 200;
/// FILE repetitions per round: they cost a fraction of a stdin one, and
/// more samples steady their medians.
const FILE_REPS_PER_ROUND: usize = 3;
/// An answer slower than this does not count towards `capacity_qps`.
const LATENCY_LIMIT: Duration = Duration::from_secs(2);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Route {
    File,
    Stdin,
}

struct Cli<'a> {
    env: &'a Env,
    data: &'a Data,
    jobs: String,
    /// One stdout capture per concurrent child.
    outs: Vec<Capture>,
}

impl Cli<'_> {
    /// The child's arguments and stdin for `q` down `route`.
    fn args<'q>(
        data: &'q Data,
        jobs: &'q str,
        q: &'q Query,
        route: Route,
    ) -> (Vec<&'q str>, Input<'q>) {
        let file = data.input(q).path.as_path();
        match route {
            Route::File => (
                vec![q.query.as_str(), file.to_str().expect("utf-8 path")],
                Input::Empty,
            ),
            Route::Stdin => (vec!["-j", jobs, q.query.as_str()], Input::File(file)),
        }
    }

    /// Checks one finished child: exit code 0 and stdout matching the
    /// oracle's digest.
    fn check(&mut self, ops: &mut Ops, q: &Query, route: Route, exit: &Exit, slot: usize) -> bool {
        let digest = self.outs[slot].contents().map(|b| fnv(&b)).ok();
        let ok = exit.success() && digest == Some(q.expect.digest);
        ops.check(ok, || {
            let p = if route == Route::File {
                "file"
            } else {
                "stdin"
            };
            format!("{} ({p}): status {}, digest {digest:?}", q.id, exit.status)
        })
    }

    fn invoke(&mut self, ops: &mut Ops, q: &Query, route: Route) -> io::Result<Timed> {
        let (args, input) = Cli::args(self.data, &self.jobs, q, route);
        let timed = sys::run_timed(&self.env.bin, &args, input, &mut self.outs[0])?;
        self.check(ops, q, route, &timed.exit, 0);
        Ok(timed)
    }
}

/// One repetition of the query set down one path: each query's wall and
/// CPU time, and the largest child peak RSS.
struct Rep {
    walls: Vec<f64>,
    cpus: Vec<f64>,
    peak_rss_mb: f64,
}

fn rep(cli: &mut Cli, ops: &mut Ops, t: &mut Tracer, route: Route) -> io::Result<Rep> {
    let name = if route == Route::File {
        "cli.file"
    } else {
        "cli.stdin"
    };
    let mut r = Rep {
        walls: Vec::new(),
        cpus: Vec::new(),
        peak_rss_mb: 0.0,
    };
    t.span(name, |t| {
        let data = cli.data;
        for q in &data.queries {
            let timed = t.span("jsonski", |_| cli.invoke(ops, q, route))?;
            r.walls.push(timed.wall.as_secs_f64());
            r.cpus.push(timed.exit.cpu_s());
            r.peak_rss_mb = r.peak_rss_mb.max(timed.exit.peak_rss_mb());
        }
        Ok(r)
    })
}

fn wall(r: &Rep) -> &[f64] {
    &r.walls
}

fn cpu(r: &Rep) -> &[f64] {
    &r.cpus
}

/// Seconds to answer the query set once: the sum of each query's median
/// time (`time` picks wall or CPU) over the repetitions.
fn query_set_s(reps: &[Rep], time: fn(&Rep) -> &[f64]) -> f64 {
    let n = reps.first().map_or(0, |r| r.walls.len());
    (0..n)
        .map(|q| median(&mut reps.iter().map(|r| time(r)[q]).collect::<Vec<_>>()))
        .sum()
}

/// One closed-loop burst: `nproc` concurrent `jsonski QUERY FILE`
/// children, each slot answering the query set (at least 8 answers) from
/// its own offset. Pushes the CPU time of each answer that ran while every
/// slot was busy onto `cpu[query]` (in the burst's tail some slots idle,
/// and an answer running alone meets less contention), and returns the
/// answers that were correct and inside [`LATENCY_LIMIT`], and all answers.
fn capacity_burst(cli: &mut Cli, ops: &mut Ops, cpu: &mut [Vec<f64>]) -> io::Result<(u64, u64)> {
    let queries = &cli.data.queries;
    let n = queries.len();
    let per_slot = n * 8usize.div_ceil(n);
    let slots = cli.outs.len();
    let mut next: Vec<usize> = (0..slots).map(|s| s * n / slots).collect();
    let mut left = vec![per_slot; slots];
    let mut running: HashMap<i32, (usize, usize, Instant)> = HashMap::new();
    let start =
        |cli: &mut Cli, slot: usize, qi: usize, running: &mut HashMap<_, _>| -> io::Result<()> {
            let (args, input) = Cli::args(cli.data, &cli.jobs, &queries[qi], Route::File);
            let child = sys::spawn(&cli.env.bin, &args, input, &mut cli.outs[slot])?;
            let pid = i32::try_from(child.id()).map_err(io::Error::other)?;
            running.insert(pid, (slot, qi, Instant::now()));
            Ok(())
        };
    let (mut good, mut answers) = (0u64, 0u64);
    let mut full = true;
    for (slot, &qi) in next.iter().enumerate() {
        start(cli, slot, qi % n, &mut running)?;
    }
    while !running.is_empty() {
        let exit = sys::reap(-1)?;
        let Some((slot, qi, began)) = running.remove(&exit.pid) else {
            continue;
        };
        let latency = began.elapsed();
        answers += 1;
        if full {
            cpu[qi].push(exit.cpu_s());
        }
        if cli.check(ops, &queries[qi], Route::File, &exit, slot) && latency <= LATENCY_LIMIT {
            good += 1;
        }
        left[slot] -= 1;
        next[slot] += 1;
        if left[slot] > 0 {
            start(cli, slot, next[slot] % n, &mut running)?;
        } else {
            full = false;
        }
    }
    Ok((good, answers))
}

pub fn run(
    env: &Env,
    data: &Data,
    t: &mut Tracer,
    ops: &mut Ops,
    m: &mut Metrics,
) -> io::Result<()> {
    let mut cli = Cli {
        env,
        data,
        jobs: env.nproc.to_string(),
        outs: (0..env.nproc)
            .map(|_| Capture::new())
            .collect::<io::Result<_>>()?,
    };
    let until = Instant::now() + env.seconds;

    // One untimed pass per path warms the page cache and the binary.
    rep(&mut cli, ops, &mut Tracer::new(false), Route::File)?;
    rep(&mut cli, ops, &mut Tracer::new(false), Route::Stdin)?;

    // Rounds until the time is up, each with setup probes, FILE and stdin
    // repetitions and (untraced) a capacity burst: every metric samples the
    // whole run, so drift on the host hits them all alike.
    let probe = &data.queries[0].query;
    let mut setup = Vec::new();
    let (mut file, mut stdin) = (Vec::new(), Vec::new());
    let (mut good, mut answers) = (0u64, 0u64);
    let mut answer_cpu = vec![Vec::new(); data.queries.len()];
    while stdin.len() < MIN_ROUNDS || (Instant::now() < until && stdin.len() < MAX_ROUNDS) {
        t.next_run();
        // Fixed cost: exec, argument parsing, query compilation, exit.
        t.span("cli.setup", |t| -> io::Result<()> {
            for _ in 0..SETUP_PER_ROUND {
                let out = &mut cli.outs[0];
                let timed = t.span("jsonski", |_| {
                    sys::run_timed(&env.bin, &[probe], Input::Empty, out)
                })?;
                let empty = out.contents().is_ok_and(|b| b.is_empty());
                ops.check(timed.exit.success() && empty, || {
                    format!("empty stdin: status {}", timed.exit.status)
                });
                setup.push(timed.exit.cpu_s());
            }
            Ok(())
        })?;
        for _ in 0..FILE_REPS_PER_ROUND {
            file.push(rep(&mut cli, ops, t, Route::File)?);
        }
        stdin.push(rep(&mut cli, ops, t, Route::Stdin)?);
        if !t.enabled() {
            let (g, a) = capacity_burst(&mut cli, ops, &mut answer_cpu)?;
            good += g;
            answers += a;
        }
    }
    m.put("setup_s", median(&mut setup));
    if !t.enabled() {
        // Little's law for the closed loop: `nproc` slots, each spending
        // the mix's mean CPU time per answer (each query's median), scaled
        // by the share of answers that were correct and inside the limit.
        let per_query: Vec<f64> = answer_cpu
            .iter_mut()
            .filter(|v| !v.is_empty())
            .map(|v| median(v))
            .collect();
        let mean_s = per_query.iter().sum::<f64>() / per_query.len().max(1) as f64;
        let good_share = good as f64 / answers.max(1) as f64;
        m.put("capacity_qps", good_share * env.nproc as f64 / mean_s);
    }
    let mb = data.queries.iter().map(|q| data.input(q).len).sum::<u64>() as f64 / 1e6;
    m.put("file_mb_s", mb / query_set_s(&file, cpu));
    m.put("stdin_mb_s", mb / query_set_s(&stdin, cpu));
    m.put("cli.file_ms", query_set_s(&file, wall) * 1e3);
    m.put("cli.stdin_ms", query_set_s(&stdin, wall) * 1e3);
    let peak_of =
        |reps: &[Rep]| median(&mut reps.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>());
    let (file_peak, stdin_peak) = (peak_of(&file), peak_of(&stdin));
    m.put("cli.file_peak_rss_mb", file_peak);
    m.put("cli.stdin_peak_rss_mb", stdin_peak);
    m.put("peak_rss_mb", file_peak.max(stdin_peak));

    if t.enabled() {
        let bytes = data.read_all()?;
        crate::layers::engine_passes(data, &bytes, env.nproc, t, ops, m);
        // What the process adds over the in-process pass on the same bytes.
        let get = |m: &Metrics, name| m.get(name).unwrap_or(0.0);
        let file = get(m, "cli.file_ms") - get(m, "engine.run_ms");
        let stdin = get(m, "cli.stdin_ms") - get(m, "pipeline.wmax_ms");
        m.put("cli.file_overhead_ms", file);
        m.put("cli.stdin_overhead_ms", stdin);
    }
    Ok(())
}
