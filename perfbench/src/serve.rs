//! The serve workload: `jsonski serve` over loopback with a warmed index
//! cache, driven by an open loop at a fixed offered rate and by closed
//! loops, every response checked against the oracle.
//!
//! As in the CLI workloads (see `cli.rs`), the end-to-end metrics are
//! timed in the daemon's CPU time, which leaves out the time the shared
//! host's hypervisor gives to other tenants; the open-loop latencies in
//! the layer table stay in wall time.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::data::{fnv, records, Data, Fnv, Kind, Rng};
use crate::report::{Metrics, Ops};
use crate::sys;
use crate::trace::{median, ms, quantile, Tracer};
use crate::Env;

/// Measured daemon lifetimes per run; `peak_rss_mb` is a median over them.
const DAEMONS: u32 = 3;
/// Timed starts per lifetime, each stopped as soon as it answers; one
/// more start serves the traffic.
const SETUP_PER_DAEMON: usize = 3;
/// Open-loop offered rate. A constant, about half the closed-loop
/// capacity this benchmark measured when it was introduced (2-vCPU x86_64
/// host); never derived at run time.
const OFFERED_QPS: f64 = 24.0;
/// A response slower than this does not count towards `capacity_qps`.
const LATENCY_LIMIT: Duration = Duration::from_millis(500);
/// Client read timeout: a response this late is a failure.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Streamed responses are cut into chunks of this many bytes.
const CHUNK_BYTES: &str = "65536";
/// Request shares per ten requests: corpus queries (warm index), inline
/// bodies of about 1 MB, and one streamed wildcard query.
const MIX: [(Kind, usize); 3] = [(Kind::Corpus, 6), (Kind::Inline, 3), (Kind::Stream, 1)];
/// Longest open- or closed-loop slice.
const SLICE: Duration = Duration::from_secs(3);
/// Rounds of the peak-memory probe per request kind, and their spacing.
const PROBE_ROUNDS: usize = 2;
const PROBE_GAP: Duration = Duration::from_millis(80);
/// Sequential pings behind `server.ping_p50_us`.
const PINGS: usize = 200;

fn frame(header: &str, body: &[u8]) -> Vec<u8> {
    let len = header.len() + 1 + body.len();
    let mut out = Vec::with_capacity(4 + len);
    out.extend_from_slice(&u32::try_from(len).expect("frame fits u32").to_be_bytes());
    out.extend_from_slice(header.as_bytes());
    out.push(b'\n');
    out.extend_from_slice(body);
    out
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// The numeric value of `"key": N` in a header line.
fn field(header: &[u8], key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = find(header, pat.as_bytes())? + pat.len();
    let digits: String = header[at..]
        .iter()
        .map(|&b| b as char)
        .skip_while(|c| *c == ' ')
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

struct Reply {
    code: u16,
    digest: u64,
    body: Vec<u8>,
}

/// A blocking connection speaking the frame protocol: 4-byte big-endian
/// length, a JSON header line, then the body; a streamed 200 continues as
/// `C` chunk frames and a `T` trailer carrying an FNV-1a checksum.
struct Conn(TcpStream);

impl Conn {
    fn connect(addr: &str) -> io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn(s))
    }

    fn read_frame(&mut self) -> io::Result<Vec<u8>> {
        let mut len = [0u8; 4];
        self.0.read_exact(&mut len)?;
        let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
        self.0.read_exact(&mut payload)?;
        Ok(payload)
    }

    fn call(&mut self, frame: &[u8]) -> io::Result<Reply> {
        self.0.write_all(frame)?;
        let mut payload = self.read_frame()?;
        let nl = payload
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| io::Error::other("response without a header line"))?;
        let header = &payload[..nl];
        let code = field(header, "code").unwrap_or(0) as u16;
        let streamed = find(header, b"\"stream\": true").is_some();
        if !streamed {
            let body = payload.split_off(nl + 1);
            return Ok(Reply {
                code,
                digest: fnv(&body),
                body,
            });
        }
        let mut h = Fnv::new();
        loop {
            let f = self.read_frame()?;
            match f.first() {
                Some(b'C') => h.update(&f[1..]),
                Some(b'T') => {
                    let code = field(&f[1..], "code").unwrap_or(0) as u16;
                    // A trailer whose checksum disagrees with the chunks
                    // is a failed response.
                    let sound = field(&f[1..], "checksum") == Some(h.finish());
                    return Ok(Reply {
                        code: if sound { code } else { 0 },
                        digest: h.finish(),
                        body: Vec::new(),
                    });
                }
                _ => return Err(io::Error::other("bad stream frame")),
            }
        }
    }
}

/// A running daemon; killed on drop unless stopped cleanly.
struct Daemon {
    child: Child,
    addr: String,
    reaped: bool,
}

impl Daemon {
    fn spawn(env: &Env, data: &Data, log: &Path) -> io::Result<Daemon> {
        let t0 = Instant::now();
        let child = Command::new(&env.bin)
            .arg("serve")
            .args([
                "--listen",
                "127.0.0.1:0",
                "--workers",
                &env.nproc.to_string(),
            ])
            .arg("--corpus-dir")
            .arg(data.dir.join("corpus"))
            .arg("--index-cache")
            .arg(data.dir.join("index"))
            .args([
                "--index-warm",
                "--metrics-endpoint",
                "--chunk-bytes",
                CHUNK_BYTES,
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(File::create(log)?)
            .spawn()?;
        let mut d = Daemon {
            child,
            addr: String::new(),
            reaped: false,
        };
        // The listener binds before the index warms; a ping is answered
        // only once every corpus index is warm.
        while d.addr.is_empty() {
            let text = std::fs::read_to_string(log)?;
            match text
                .lines()
                .find_map(|l| l.strip_prefix("jsonski: listening on "))
            {
                Some(addr) => d.addr = addr.trim().to_string(),
                None if d.child.try_wait()?.is_some() => {
                    d.reaped = true;
                    return Err(io::Error::other(format!(
                        "serve exited during start: {text}"
                    )));
                }
                None if t0.elapsed() > READ_TIMEOUT => {
                    return Err(io::Error::other("serve did not start listening"))
                }
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        let reply = Conn::connect(&d.addr)?.call(&frame(
            r#"{"op": "ping", "id": "ping", "tenant": "bench"}"#,
            b"",
        ))?;
        if reply.code != 200 {
            return Err(io::Error::other(format!("ping answered {}", reply.code)));
        }
        Ok(d)
    }

    /// SIGTERM, then reap: the daemon drains and exits with 130. Returns
    /// whether it did, and the CPU time of its whole life.
    fn stop(mut self) -> io::Result<(bool, Duration)> {
        sys::terminate(&self.child)?;
        let pid = i32::try_from(self.child.id()).map_err(io::Error::other)?;
        let exit = sys::reap(pid)?;
        self.reaped = true;
        Ok((exit.status == 130 << 8 || exit.success(), exit.cpu))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One prebuilt request of the mix.
struct Req {
    kind: Kind,
    query: usize,
    input_bytes: u64,
    frame: Vec<u8>,
}

fn requests(data: &Data, bytes: &[Vec<u8>]) -> Vec<Req> {
    data.queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            assert!(!q.query.contains(['"', '\\']), "queries embed unescaped");
            let input = data.input(q);
            let mut header = format!(
                r#"{{"op": "query", "id": "{}", "tenant": "bench", "query": "{}""#,
                q.id, q.query
            );
            let body: &[u8] = if q.kind == Kind::Inline {
                &bytes[q.input]
            } else {
                header.push_str(&format!(r#", "corpus": "{}""#, input.name));
                b""
            };
            if q.kind == Kind::Stream {
                header.push_str(r#", "stream": true"#);
            }
            header.push('}');
            Req {
                kind: q.kind,
                query: i,
                input_bytes: input.len,
                frame: frame(&header, body),
            }
        })
        .collect()
}

/// Ten request slots with the [`MIX`] shares, shuffled by the seed; the
/// corpus slots alternate between the corpus queries.
fn pattern(reqs: &[Req], seed: u64) -> Vec<usize> {
    let mut slots = Vec::new();
    for (kind, share) in MIX {
        let of_kind: Vec<usize> = (0..reqs.len()).filter(|&i| reqs[i].kind == kind).collect();
        slots.extend((0..share).map(|j| of_kind[j % of_kind.len()]));
    }
    let mut rng = Rng::new(seed);
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.below(i as u64 + 1) as usize);
    }
    slots
}

struct Sample {
    req: usize,
    sent: Instant,
    done: Instant,
    /// From the due time (open loop) or the send (closed loop).
    latency: Duration,
    late: Duration,
    ok: bool,
}

/// Sends request `req`, reconnecting after a transport failure.
fn send(conn: &mut Conn, addr: &str, data: &Data, req: &Req) -> io::Result<bool> {
    match conn.call(&req.frame) {
        Ok(r) => Ok(r.code == 200 && r.digest == data.queries[req.query].expect.digest),
        Err(_) => {
            *conn = Conn::connect(addr)?;
            Ok(false)
        }
    }
}

/// Runs `worker(c)` for c in 0..nproc: c = 0 on this thread, the rest on
/// scoped threads, so the load uses at most `nproc` threads.
fn fan_out<F>(nproc: usize, worker: F) -> io::Result<Vec<Sample>>
where
    F: Fn(usize) -> io::Result<Vec<Sample>> + Sync,
{
    std::thread::scope(|s| {
        let worker = &worker;
        let handles: Vec<_> = (1..nproc).map(|c| s.spawn(move || worker(c))).collect();
        let mut all = worker(0)?;
        for h in handles {
            all.extend(h.join().expect("load thread does not panic")?);
        }
        Ok(all)
    })
}

/// Open loop: request i is due at `start + i / rate` and goes to
/// connection `i % nproc`; latency counts from the due time, so a stalled
/// generator counts against the system.
fn open_loop(
    env: &Env,
    addr: &str,
    data: &Data,
    reqs: &[Req],
    slots: &[usize],
    dur: Duration,
) -> io::Result<Vec<Sample>> {
    let n = (OFFERED_QPS * dur.as_secs_f64()).ceil() as usize;
    let start = Instant::now() + Duration::from_millis(20);
    fan_out(env.nproc, |c| {
        let mut conn = Conn::connect(addr)?;
        let mut out = Vec::new();
        for i in (c..n).step_by(env.nproc) {
            let due = start + Duration::from_secs_f64(i as f64 / OFFERED_QPS);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let req = slots[i % slots.len()];
            let sent = Instant::now();
            let ok = send(&mut conn, addr, data, &reqs[req])?;
            let done = Instant::now();
            out.push(Sample {
                req,
                sent,
                done,
                latency: done - due,
                late: sent.saturating_duration_since(due),
                ok,
            });
        }
        Ok(out)
    })
}

/// Closed loop: `nproc` connections each send the requests of `slots`
/// back to back. Returns the samples and the daemon's CPU time over the
/// loop.
fn closed_loop(
    env: &Env,
    d: &Daemon,
    data: &Data,
    reqs: &[Req],
    slots: &[usize],
    dur: Duration,
) -> io::Result<(Vec<Sample>, Duration)> {
    let addr = d.addr.as_str();
    let cpu_at_start = sys::cpu_of(d.child.id())?;
    let until = Instant::now() + dur;
    let samples = fan_out(env.nproc, |c| {
        let mut conn = Conn::connect(addr)?;
        let mut out = Vec::new();
        let mut i = c * slots.len() / env.nproc;
        while Instant::now() < until {
            let req = slots[i % slots.len()];
            let sent = Instant::now();
            let ok = send(&mut conn, addr, data, &reqs[req])?;
            let done = Instant::now();
            out.push(Sample {
                req,
                sent,
                done,
                latency: done - sent,
                late: Duration::ZERO,
                ok,
            });
            i += 1;
        }
        Ok(out)
    })?;
    Ok((samples, sys::cpu_of(d.child.id())? - cpu_at_start))
}

/// The daemon's text metrics scrape, as `name value` pairs.
fn scrape(conn: &mut Conn, ops: &mut Ops) -> io::Result<HashMap<String, f64>> {
    let reply = conn.call(&frame(
        r#"{"op": "metrics", "id": "m", "tenant": "bench"}"#,
        b"",
    ))?;
    ops.check(reply.code == 200, || "metrics scrape failed".into());
    Ok(String::from_utf8_lossy(&reply.body)
        .lines()
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(k, v)| Some((k.to_string(), v.trim().parse().ok()?)))
        .collect())
}

/// Every connection sends the same request at the same instant,
/// `PROBE_ROUNDS` times per request kind, one round every `PROBE_GAP`.
fn peak_probe(env: &Env, addr: &str, data: &Data, reqs: &[Req]) -> io::Result<Vec<Sample>> {
    let start = Instant::now() + PROBE_GAP;
    fan_out(env.nproc, |_| {
        let mut conn = Conn::connect(addr)?;
        let mut out = Vec::new();
        let rounds = (0..reqs.len()).flat_map(|r| [r; PROBE_ROUNDS]);
        for (k, req) in rounds.enumerate() {
            let due = start + PROBE_GAP * k as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            let ok = send(&mut conn, addr, data, &reqs[req])?;
            let done = Instant::now();
            out.push(Sample {
                req,
                sent,
                done,
                latency: done - sent,
                late: Duration::ZERO,
                ok,
            });
        }
        Ok(out)
    })
}

fn check_all(ops: &mut Ops, data: &Data, reqs: &[Req], samples: &[Sample]) {
    for s in samples {
        ops.check(s.ok, || {
            format!(
                "serve {}: non-200 or wrong body",
                data.queries[reqs[s.req].query].id
            )
        });
    }
}

fn p50_ms_of(samples: &[Sample], reqs: &[Req], kind: Kind) -> f64 {
    let mut v: Vec<f64> = samples
        .iter()
        .filter(|s| reqs[s.req].kind == kind)
        .map(|s| ms(s.latency))
        .collect();
    median(&mut v)
}

/// The request classes that have a closed loop of their own, and the
/// metric each one gives.
const CLASS_LOOPS: [(Kind, &str); 2] = [(Kind::Corpus, "file_mb_s"), (Kind::Inline, "stdin_mb_s")];

/// What the measured daemon lifetimes add up to.
#[derive(Default)]
struct Tally {
    setup: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    open: Vec<Sample>,
    /// The mixed closed loop, and the daemon's CPU time over it.
    closed: Vec<Sample>,
    closed_cpu: Duration,
    /// The single-class closed loops: samples, and per class of
    /// [`CLASS_LOOPS`] the input bytes answered and the daemon's CPU time.
    class_samples: Vec<Sample>,
    class_bytes: [u64; 2],
    class_cpu: [Duration; 2],
    index_hits: f64,
    corpus_requests: usize,
    mem_peak_bytes: f64,
    shed: f64,
    pings: Vec<f64>,
}

/// One daemon lifetime: `SETUP_PER_DAEMON` timed starts, then one more
/// start that gets an untimed warm-up, alternating open- and closed-loop
/// slices for `dur`, a scrape, and a SIGTERM drain.
#[allow(clippy::too_many_arguments)]
fn lifetime(
    env: &Env,
    data: &Data,
    reqs: &[Req],
    slots: &[usize],
    dur: Duration,
    t: &mut Tracer,
    ops: &mut Ops,
    tally: &mut Tally,
) -> io::Result<()> {
    let log = env.work.join("serve.log");
    // Set-up cost: the CPU time of a daemon's whole life when it is
    // stopped as soon as it answers a ping with every index warm.
    for _ in 0..SETUP_PER_DAEMON {
        t.next_run();
        let started = t.span("serve.start", |_| Daemon::spawn(env, data, &log))?;
        ops.check(true, String::new);
        let (drained, cpu) = started.stop()?;
        ops.check(drained, || "serve did not drain on SIGTERM".into());
        tally.setup.push(cpu.as_secs_f64());
    }
    let d = Daemon::spawn(env, data, &log)?;

    // Warm the query cache and the connection path, untimed but checked.
    let mut conn = Conn::connect(&d.addr)?;
    let hits_at_start = scrape(&mut conn, ops)?
        .get("index_hit")
        .copied()
        .unwrap_or(0.0);
    for _ in 0..2 {
        for (i, r) in reqs.iter().enumerate() {
            let ok = send(&mut conn, &d.addr, data, r)?;
            ops.check(ok, || {
                format!("serve warm-up {}: wrong response", data.queries[i].id)
            });
            tally.corpus_requests += usize::from(r.kind != Kind::Inline);
        }
    }
    // The load below uses `nproc` connections of its own.
    drop(conn);

    let slices = (dur.as_secs_f64() / SLICE.as_secs_f64() / 2.0)
        .ceil()
        .max(1.0) as u32;
    let slice = dur / (2 * slices);
    let (mut open, mut closed) = (Vec::new(), Vec::new());
    for _ in 0..slices {
        t.next_run();
        t.span("serve.open_loop", |t| -> io::Result<()> {
            let samples = open_loop(env, &d.addr, data, reqs, slots, slice)?;
            for (i, s) in samples.iter().enumerate() {
                let name = match reqs[s.req].kind {
                    Kind::Corpus => "request.corpus",
                    Kind::Inline => "request.inline",
                    _ => "request.stream",
                };
                t.record(name, s.sent, s.done, i as u64);
            }
            open.extend(samples);
            Ok(())
        })?;
        if !t.enabled() {
            // Half the slice runs the mix; the rest is split between
            // closed loops of one class each, whose CPU time is that
            // class's own.
            let (samples, cpu) = closed_loop(env, &d, data, reqs, slots, slice / 2)?;
            closed.extend(samples);
            tally.closed_cpu += cpu;
            for (c, (kind, _)) in CLASS_LOOPS.iter().enumerate() {
                let only: Vec<usize> = slots
                    .iter()
                    .copied()
                    .filter(|&r| reqs[r].kind == *kind)
                    .collect();
                let (samples, cpu) = closed_loop(env, &d, data, reqs, &only, slice / 4)?;
                tally.class_bytes[c] +=
                    samples.iter().map(|s| reqs[s.req].input_bytes).sum::<u64>();
                tally.class_cpu[c] += cpu;
                tally.class_samples.extend(samples);
            }
        }
    }
    tally.corpus_requests += open
        .iter()
        .chain(&closed)
        .chain(&tally.class_samples)
        .filter(|s| reqs[s.req].kind != Kind::Inline)
        .count();
    tally.open.extend(open);
    tally.closed.extend(closed);

    // The peak depends on which heavy requests happen to overlap; a
    // probe that overlaps every request kind on all connections makes the
    // worst case part of every lifetime.
    let probe = peak_probe(env, &d.addr, data, reqs)?;
    tally.corpus_requests += probe
        .iter()
        .filter(|s| reqs[s.req].kind != Kind::Inline)
        .count();
    check_all(ops, data, reqs, &probe);

    let mut conn = Conn::connect(&d.addr)?;
    if t.enabled() {
        let ping = frame(r#"{"op": "ping", "id": "p", "tenant": "bench"}"#, b"");
        t.span("serve.ping", |_| {
            for _ in 0..PINGS {
                let t0 = Instant::now();
                let ok = conn.call(&ping).is_ok_and(|r| r.code == 200);
                ops.check(ok, || "ping failed".into());
                tally.pings.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        });
    }

    let counters = scrape(&mut conn, ops)?;
    let counter = |k: &str| counters.get(k).copied().unwrap_or(0.0);
    tally.index_hits += counter("index_hit") - hits_at_start;
    tally.mem_peak_bytes = tally.mem_peak_bytes.max(counter("mem_peak_bytes"));
    tally.shed +=
        counter("serve_shed_queue") + counter("serve_shed_tenant") + counter("serve_shed_memory");
    tally.peak_rss_mb.push(sys::vm_hwm_mb(d.child.id())?);
    drop(conn);
    ops.check(d.stop()?.0, || "serve did not drain on SIGTERM".into());
    Ok(())
}

pub fn run(
    env: &Env,
    data: &Data,
    t: &mut Tracer,
    ops: &mut Ops,
    m: &mut Metrics,
) -> io::Result<()> {
    let bytes = data.read_all()?;
    let reqs = requests(data, &bytes);
    let slots = pattern(&reqs, data.seed);

    // One untimed start fills the index cache; every timed start loads it.
    let d = Daemon::spawn(env, data, &env.work.join("serve.log"))?;
    ops.check(d.stop()?.0, || "serve did not drain on SIGTERM".into());

    // Several daemon lifetimes, so start-up is a median and every metric
    // samples the whole run.
    let mut tally = Tally::default();
    t.span("serve.run", |t| {
        (0..DAEMONS).try_for_each(|_| {
            lifetime(
                env,
                data,
                &reqs,
                &slots,
                env.seconds / DAEMONS,
                t,
                ops,
                &mut tally,
            )
        })
    })?;
    let Tally {
        mut setup,
        mut peak_rss_mb,
        open,
        closed,
        closed_cpu,
        class_samples,
        class_bytes,
        class_cpu,
        index_hits,
        corpus_requests,
        mem_peak_bytes,
        shed,
        mut pings,
    } = tally;
    check_all(ops, data, &reqs, &open);
    check_all(ops, data, &reqs, &closed);
    check_all(ops, data, &reqs, &class_samples);
    m.put("setup_s", median(&mut setup));
    m.put("peak_rss_mb", median(&mut peak_rss_mb));
    if !t.enabled() {
        // Input MB a class's requests answer per second of daemon CPU.
        for (c, (_, metric)) in CLASS_LOOPS.iter().enumerate() {
            m.put(
                metric,
                class_bytes[c] as f64 / 1e6 / class_cpu[c].as_secs_f64(),
            );
        }
        // Good answers to the mix per second of `nproc` cores' daemon CPU.
        let good = closed
            .iter()
            .filter(|s| s.ok && s.latency <= LATENCY_LIMIT)
            .count();
        m.put(
            "capacity_qps",
            good as f64 * env.nproc as f64 / closed_cpu.as_secs_f64(),
        );
    }
    let mut all: Vec<f64> = open.iter().map(|s| ms(s.latency)).collect();
    m.put("server.p50_ms", quantile(&mut all, 0.5));
    m.put("server.p99_ms", quantile(&mut all, 0.99));
    m.put(
        "server.corpus_p50_ms",
        p50_ms_of(&open, &reqs, Kind::Corpus),
    );
    m.put(
        "server.inline_p50_ms",
        p50_ms_of(&open, &reqs, Kind::Inline),
    );
    m.put(
        "server.stream_p50_ms",
        p50_ms_of(&open, &reqs, Kind::Stream),
    );
    let mut late: Vec<f64> = open.iter().map(|s| ms(s.late)).collect();
    m.put("loadgen.late_p99_ms", quantile(&mut late, 0.99));
    m.put("server.ping_p50_us", median(&mut pings));
    m.put(
        "server.index_hit_ratio",
        index_hits / corpus_requests as f64,
    );
    m.put("server.mem_peak_bytes", mem_peak_bytes);
    m.put("server.shed", shed);

    if t.enabled() {
        protocol_passes(data, &bytes, &reqs, t, m);
        crate::layers::engine_passes(data, &bytes, env.nproc, t, ops, m);
    }
    Ok(())
}

/// Frame decode and response encode on the inline request, in-process.
fn protocol_passes(data: &Data, bytes: &[Vec<u8>], reqs: &[Req], t: &mut Tracer, m: &mut Metrics) {
    use jsonski_serve::protocol::{encode_response, parse_request, Status};
    let inline = reqs
        .iter()
        .find(|r| r.kind == Kind::Inline)
        .expect("the mix has an inline request");
    let payload = &inline.frame[4..];
    let q = &data.queries[inline.query];
    let mut body = Vec::new();
    let jp = jpstream::JpStream::compile(&q.query).expect("workload queries compile");
    for r in records(&bytes[q.input], data.input(q).layout) {
        jp.run(r, |m| {
            body.extend_from_slice(m);
            body.push(b'\n');
        })
        .expect("generated input evaluates");
    }
    let us = |f: &mut dyn FnMut()| {
        let mut v: Vec<f64> = (0..50)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&mut v)
    };
    m.put(
        "protocol.parse_request_us",
        t.span("protocol.parse_request", |_| {
            us(&mut || {
                std::hint::black_box(parse_request(payload).expect("own frame parses"));
            })
        }),
    );
    m.put(
        "protocol.encode_response_us",
        t.span("protocol.encode_response", |_| {
            us(&mut || {
                std::hint::black_box(encode_response(
                    Status::Ok,
                    b"\"INLINE\"",
                    q.expect.matches,
                    0,
                    0,
                    None,
                    &body,
                ));
            })
        }),
    );
}
