//! One run of one workload: set-up, warm-up, timed windows, and (when
//! traced) the per-layer replays.
//!
//! The load is one connection driven as a closed loop from this thread:
//! it sends its next line only after the previous reply arrived. Probes
//! of the machine's speed ([`Gauge`]) bracket every set-up and follow
//! every [`SLICE`] of load, and each end-to-end timing is scaled by the
//! slowdown they measured around it.

use std::cell::Cell;
use std::time::{Duration, Instant};

use samm_serve::Client;

use crate::machine::Gauge;
use crate::oracle::Oracle;
use crate::server::{server_binary, CacheCounters, Server};
use crate::stats::{highest_percentile, median, nearest_rank, rank, spread};
use crate::trace;
use crate::workload::Workload;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Timed windows per run; every end-to-end timing is the median over
/// them.
pub const WINDOWS: usize = 20;
/// The longest warm-up; the set-ups already sent every distinct request.
const WARM_UP: Duration = Duration::from_secs(1);
/// Load sent between two probes of the machine's speed.
const SLICE: Duration = Duration::from_millis(50);
/// Failure messages printed per run before the rest are only counted.
const REPORTED_FAILURES: u64 = 10;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Interquartile range over the run's windows (or set-ups) as a
    /// share of the median; `0` where the value is a single reading.
    pub spread: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            spread: 0.0,
        }
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    /// Present when the run was traced.
    pub per_layer: Option<Vec<Metric>>,
}

/// Verifies responses against the oracle and counts what was attempted
/// and what failed: transport errors, `ok:false`, and wrong answers.
#[derive(Debug)]
pub struct Checker<'a> {
    pub w: &'a Workload,
    pub oracle: &'a Oracle,
    attempted: Cell<u64>,
    failed: Cell<u64>,
}

impl<'a> Checker<'a> {
    pub fn new(w: &'a Workload, oracle: &'a Oracle) -> Self {
        let failed = oracle.inconsistencies.len() as u64;
        for message in &oracle.inconsistencies {
            eprintln!("samm-benchmark: oracle: {message}");
        }
        Checker {
            w,
            oracle,
            attempted: Cell::new(0),
            failed: Cell::new(failed),
        }
    }

    /// Checks the reply to `line` — fully when `full`, else by substring
    /// scan — and returns the number of slots answered correctly.
    pub fn verify(&self, line: usize, reply: Result<&str, String>, full: bool) -> u64 {
        let lines = &self.w.lines;
        let result = reply.and_then(|response| {
            if full {
                self.oracle.full_check(lines, line, response)
            } else if self.oracle.fast_check(lines, line, response) {
                Ok(())
            } else {
                // Name the mismatch; a reply only the scan rejects still
                // counts as failed.
                self.oracle
                    .full_check(lines, line, response)
                    .and(Err(format!("substring check failed: {response}")))
            }
        });
        self.count(line, result)
    }

    /// Counts one checked reply to `line`; returns its correct slots.
    pub fn count(&self, line: usize, result: Result<(), String>) -> u64 {
        let slots = self.w.lines[line].slots.len() as u64;
        self.attempted.set(self.attempted.get() + slots);
        match result {
            Ok(()) => slots,
            Err(message) => {
                let failed = self.failed.replace(self.failed.get() + slots);
                if failed < REPORTED_FAILURES {
                    eprintln!(
                        "samm-benchmark: {}: wrong answer to {}: {message}",
                        self.w.name, self.w.lines[line].text
                    );
                }
                0
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.get()
    }

    pub fn failed(&self) -> u64 {
        self.failed.get()
    }
}

/// Starts a server for `w` and sends every distinct request once, in
/// request order, checking each answer in full.
///
/// # Errors
///
/// Start-up and connection failures.
pub fn set_up(ck: &Checker<'_>) -> Result<Server, String> {
    let server = Server::spawn(&server_binary()?, ck.w.server_flags)?;
    let mut client = server.connect()?;
    for (line, req) in ck.w.reqs.iter().enumerate() {
        let reply = client.request_line(&req.text).map_err(|e| e.to_string());
        ck.verify(line, reply.as_deref().map_err(Clone::clone), true);
    }
    Ok(server)
}

/// What one timed window measured.
#[derive(Default)]
struct Window {
    /// Round-trip nanoseconds as measured, ascending.
    samples: Vec<u64>,
    /// The same round trips, each divided by the slowdown of its slice,
    /// ascending.
    scaled: Vec<u64>,
    /// Correctly answered slots.
    ok: u64,
    /// Seconds spent sending load, probes excluded.
    secs: f64,
    /// The same seconds, each slice's divided by its slowdown.
    scaled_secs: f64,
    /// Server CPU microseconds spent in the window.
    cpu_us: f64,
}

impl Window {
    /// The window's slowdown, weighted by the time each slice took.
    fn slowdown(&self) -> f64 {
        self.secs / self.scaled_secs
    }
}

/// Sends stream lines from `*pos` on over `client` until `until`,
/// checking every reply by substring scan and the first reply to each
/// line not yet in `seen` in full. Appends the round trips in
/// nanoseconds to `samples` and returns the correctly answered slots.
fn load(
    ck: &Checker<'_>,
    client: &mut Client,
    pos: &mut usize,
    seen: &mut [bool],
    until: Instant,
    samples: &mut Vec<u64>,
) -> u64 {
    let mut ok = 0;
    loop {
        let line = ck.w.line_at(*pos);
        *pos += 1;
        let full = !std::mem::replace(&mut seen[line], true);
        let started = Instant::now();
        let reply = client.request_line(&ck.w.lines[line].text);
        let done = Instant::now();
        samples.push((done - started).as_nanos() as u64);
        let reply = reply.map_err(|e| e.to_string());
        ok += ck.verify(line, reply.as_deref().map_err(Clone::clone), full);
        if done >= until {
            return ok;
        }
    }
}

/// Drives `server` over one connection walking the workload stream: a
/// warm-up of `seconds / 10`, at most [`WARM_UP`], then [`WINDOWS`]
/// windows of `seconds / WINDOWS` each. A probe of `gauge` precedes the
/// first window and follows every [`SLICE`] of load; a slice's slowdown
/// is the mean of the probes on either side of it.
fn drive(
    ck: &Checker<'_>,
    server: &Server,
    gauge: &mut Gauge,
    seconds: u64,
) -> Result<Vec<Window>, String> {
    let warm_up = Duration::from_secs_f64(seconds as f64 / 10.0).min(WARM_UP);
    let length = Duration::from_secs_f64(seconds as f64 / WINDOWS as f64);
    let mut client = server.connect()?;
    let mut pos = 0;
    let mut seen = vec![false; ck.w.lines.len()];
    let until = Instant::now() + warm_up;
    load(ck, &mut client, &mut pos, &mut seen, until, &mut Vec::new());
    let mut last_probe = gauge.probe()?;
    let mut windows = Vec::with_capacity(WINDOWS);
    for _ in 0..WINDOWS {
        seen.fill(false);
        let mut w = Window::default();
        let cpu_before = server.cpu_us()?;
        let end = Instant::now() + length;
        loop {
            let started = Instant::now();
            if started >= end {
                break;
            }
            let until = (started + SLICE).min(end);
            let first = w.samples.len();
            w.ok += load(ck, &mut client, &mut pos, &mut seen, until, &mut w.samples);
            let secs = started.elapsed().as_secs_f64();
            let probe = gauge.probe()?;
            let slowdown = (last_probe + probe) / 2.0;
            last_probe = probe;
            w.secs += secs;
            w.scaled_secs += secs / slowdown;
            w.scaled.extend(
                w.samples[first..]
                    .iter()
                    .map(|&ns| (ns as f64 / slowdown) as u64),
            );
        }
        w.cpu_us = server.cpu_us()? - cpu_before;
        w.samples.sort_unstable();
        w.scaled.sort_unstable();
        windows.push(w);
    }
    Ok(windows)
}

/// Runs workload `w` once.
///
/// # Errors
///
/// Failures to build the oracle, to probe the machine, or to start,
/// reach or stop a server.
pub fn run(w: &Workload, seconds: u64, traced: bool) -> Result<Run, String> {
    let oracle = Oracle::build(w)?;
    let ck = Checker::new(w, &oracle);
    let mut gauge = Gauge::start()?;

    // Each set-up is scaled by the mean slowdown of the probes just
    // before and just after it.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(previous) = server.take() {
            Server::shutdown(previous)?;
        }
        let before = gauge.probe()?;
        let started = Instant::now();
        server = Some(set_up(&ck)?);
        let secs = started.elapsed().as_secs_f64();
        setups.push(secs / ((before + gauge.probe()?) / 2.0));
    }
    let server = server.expect("SETUPS > 0");
    let before = server.cache_counters()?;
    let windows = drive(&ck, &server, &mut gauge, seconds)?;
    let cache = server.cache_counters()? - before;
    let rss_mb = server.peak_rss_mb()?;
    server.shutdown()?;

    let end_to_end = end_to_end(w, &windows, &setups, rss_mb, cache);
    let per_layer = if traced {
        let p50 = end_to_end
            .iter()
            .find(|m| m.name == "latency_p50_us")
            .map_or(0.0, |m| m.value);
        Some(trace::per_layer(&ck, &mut gauge, p50)?)
    } else {
        None
    };
    Ok(Run {
        attempted: ck.attempted(),
        failed: ck.failed(),
        end_to_end,
        per_layer,
    })
}

fn end_to_end(
    w: &Workload,
    windows: &[Window],
    setups: &[f64],
    rss_mb: f64,
    cache: CacheCounters,
) -> Vec<Metric> {
    let us = |nanos: u64| nanos as f64 / 1e3;
    let mut all: Vec<u64> = windows
        .iter()
        .flat_map(|k| k.samples.iter().copied())
        .collect();
    all.sort_unstable();
    let ok: u64 = windows.iter().map(|k| k.ok).sum();
    let per_window = |f: &dyn Fn(&Window) -> f64| -> Vec<f64> { windows.iter().map(f).collect() };
    let rps = per_window(&|k| k.ok as f64 / k.scaled_secs);
    let p50s = per_window(&|k| us(nearest_rank(&k.scaled, 50.0)));
    let p99s = per_window(&|k| us(nearest_rank(&k.scaled, 99.0)));
    let cpus = per_window(&|k| k.cpu_us / k.ok.max(1) as f64 / k.slowdown());
    let slowdowns = per_window(&|k| k.slowdown());

    let secs: f64 = windows.iter().map(|k| k.secs).sum();
    let cpu_us: f64 = windows.iter().map(|k| k.cpu_us).sum();
    println!(
        "{}: {} round trips in {WINDOWS} windows, {ok} ok slots; p99 has {} samples beyond it",
        w.name,
        all.len(),
        all.len() - rank(99.0, all.len()).min(all.len()),
    );
    println!(
        "{}: machine slowdown {:.3} (median of the windows, spread {:.2}%); \
         scaled p99 {:.1} us (median of the windows, spread {:.2}%)",
        w.name,
        median(&slowdowns),
        spread(&slowdowns) * 100.0,
        median(&p99s),
        spread(&p99s) * 100.0,
    );
    println!(
        "{}: unscaled: {:.1} req/s, p50 {:.1} us, p99 {:.1} us, server CPU {:.2} us/req",
        w.name,
        ok as f64 / secs,
        us(nearest_rank(&all, 50.0)),
        us(nearest_rank(&all, 99.0)),
        cpu_us / ok.max(1) as f64,
    );
    if let Some(p) = highest_percentile(all.len(), 10) {
        println!(
            "{}: unscaled: highest percentile with >= 10 samples beyond: p{p} = {:.1} us",
            w.name,
            us(nearest_rank(&all, p))
        );
    }
    let lookups = (cache.hits + cache.misses).max(1) as f64;
    println!(
        "{}: server cache over the windows: hit ratio {:.4}, {} insertions, {} evictions",
        w.name,
        cache.hits as f64 / lookups,
        cache.insertions,
        cache.evictions
    );

    let scaled = |name, unit, values: &[f64]| Metric {
        spread: spread(values),
        ..Metric::new(name, unit, median(values))
    };
    vec![
        scaled("setup_s", "s", setups),
        scaled("throughput_rps", "1/s", &rps),
        scaled("latency_p50_us", "us", &p50s),
        scaled("server_cpu_us_per_req", "us", &cpus),
        Metric::new("server_rss_mb", "MB", rss_mb),
    ]
}
