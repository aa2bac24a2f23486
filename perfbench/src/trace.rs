//! In-memory spans around the benchmark's calls into each layer, plus the
//! order statistics every metric is reported with.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call: `parent` indexes the enclosing span, `run` groups the
/// spans of one repetition or request.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    run: u64,
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only calls
/// its closure, so untraced runs pay nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new run id for the spans that follow.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records a span timed elsewhere (by a load thread), as a child of
    /// the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, run: u64) {
        if !self.enabled {
            return;
        }
        let ns = |i: Instant| i.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
            run,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Cost of one recorded span, measured on a throwaway tracer.
    pub fn span_cost() -> Duration {
        const N: u32 = 20_000;
        let mut t = Tracer::new(true);
        let t0 = Instant::now();
        for _ in 0..N {
            t.span("probe", |_| std::hint::black_box(()));
        }
        t0.elapsed() / N
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run\": {}}}",
                s.name, s.start_ns, s.end_ns, s.run
            );
        }
        out.push(']');
        out
    }
}

/// Linear-interpolated quantile `q` of `v` (sorted in place); 0 when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Runs `f` `reps` times and returns the median duration in milliseconds.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            ms(t0.elapsed())
        })
        .collect();
    median(&mut v)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
