//! `samm-load` — load generator for the `samm-serve` litmus-query
//! service.
//!
//! Replays enumerate queries for a catalog subset against one or more
//! running servers at a configurable concurrency, one pass after
//! another, and reports per-pass throughput, latency percentiles, and
//! cache hit rate. With the default two passes the first is the cold
//! (cache-filling) pass and the second demonstrates the warm hit rate.
//!
//! Latencies are recorded into the lock-free
//! [`samm_core::telemetry::Histogram`] — the same log-linear structure
//! the server uses — so workers never serialise on a mutex and the
//! reported quantiles carry the histogram's documented ≤ 1/16 relative
//! error instead of the exact-but-contended sorted-vector approach.
//! Success responses are tallied by scanning the raw line rather than
//! parsing it (see [`PassCounters::tally_line`]), so the generator
//! keeps up with a warm batch-mode server on a single core.
//!
//! ```text
//! samm-load [--addr HOST:PORT] [--endpoints A:P,B:P,...]
//!           [--concurrency N] [--passes N] [--batch N]
//!           [--subset catalog-small|catalog|figures]
//!           [--prom HOST:PORT] [--trace PATH] [--shutdown]
//! ```
//!
//! Fresh (cache-miss) requests run on the server's one engine, the
//! pruned enumerator. The checked, per-layer performance report is
//! `samm-benchmark --out` (see `BENCHMARK.json`); this tool generates
//! load for smoke tests and prints one summary line per pass.
//!
//! `--trace PATH` makes the generator originate distributed traces:
//! every wire request carries a fresh `trace` context plus a derived
//! request id, and the matching client-side root span is appended to
//! PATH as JSONL — concatenate it with the servers' `--trace-log`
//! files and the client/server/forward spans of one request share a
//! trace id.
//!
//! `--endpoints` takes a comma-separated list of servers (e.g. the
//! members of a cluster); workers are spread across them round-robin
//! and `--shutdown` drains them all. `--batch N` wraps every N
//! requests in one `{"kind":"batch"}` envelope, so a pass costs
//! `ceil(requests/N)` round trips instead of `requests`; the reported
//! latency quantiles are then per *batch*, while throughput and hit
//! rate still count sub-responses. Responses carrying
//! `"forwarded":true` (answered by a peer on the owner's behalf) are
//! tallied and printed as `forwarded responses: N`.
//!
//! Exits non-zero when any request failed at the protocol or transport
//! level, so CI can assert a clean run. `--prom` scrapes the server's
//! plain-HTTP Prometheus listener after the passes and validates the
//! exposition with [`samm_core::telemetry::prom::check`] — a scrape
//! failure or malformed exposition is also a non-zero exit.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use samm_core::telemetry::trace::{ActiveSpan, SpanKind};
use samm_core::telemetry::{prom, Histogram, HistogramSnapshot, JsonlLog};
use samm_litmus::catalog::{self, CatalogEntry};
use samm_serve::client::Client;
use samm_serve::json::Json;

const TIMEOUT: Duration = Duration::from_secs(30);

struct Options {
    endpoints: Vec<String>,
    concurrency: usize,
    passes: usize,
    batch: usize,
    subset: String,
    prom: Option<String>,
    trace: Option<PathBuf>,
    shutdown: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            endpoints: vec!["127.0.0.1:7477".to_owned()],
            concurrency: 8,
            passes: 2,
            batch: 1,
            subset: "catalog-small".to_owned(),
            prom: None,
            trace: None,
            shutdown: false,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: samm-load [--addr HOST:PORT] [--endpoints A:P,B:P,...]\n\
         \x20                [--concurrency N] [--passes N] [--batch N]\n\
         \x20                [--subset catalog-small|catalog|figures]\n\
         \x20                [--prom HOST:PORT] [--trace PATH] [--shutdown]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("samm-load: {flag} needs an argument");
                usage();
            })
        };
        match arg.as_str() {
            "--addr" => opts.endpoints = vec![take("--addr")],
            "--endpoints" => {
                opts.endpoints = take("--endpoints")
                    .split(',')
                    .map(|e| e.trim().to_owned())
                    .filter(|e| !e.is_empty())
                    .collect();
                if opts.endpoints.is_empty() {
                    eprintln!("samm-load: --endpoints needs at least one HOST:PORT");
                    usage();
                }
            }
            "--concurrency" => {
                opts.concurrency = take("--concurrency").parse().unwrap_or_else(|_| usage())
            }
            "--passes" => opts.passes = take("--passes").parse().unwrap_or_else(|_| usage()),
            "--batch" => {
                opts.batch = take("--batch").parse().unwrap_or_else(|_| usage());
                if opts.batch == 0 {
                    eprintln!("samm-load: --batch must be at least 1");
                    usage();
                }
            }
            "--subset" => opts.subset = take("--subset"),
            "--prom" => opts.prom = Some(take("--prom")),
            "--trace" => opts.trace = Some(PathBuf::from(take("--trace"))),
            "--shutdown" => opts.shutdown = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("samm-load: unknown argument '{other}'");
                usage();
            }
        }
    }
    opts
}

/// The fast classic tests: every model answers well under a second, so
/// the subset exercises concurrency rather than enumeration depth.
const SMALL: [&str; 10] = [
    "SB",
    "SB+fences",
    "MP",
    "MP+fences",
    "LB",
    "LB+data",
    "CoRR",
    "SB+swap",
    "fig3",
    "fig4",
];

fn subset_entries(subset: &str) -> Vec<CatalogEntry> {
    match subset {
        "catalog" => catalog::all(),
        "figures" => catalog::paper_figures(),
        "catalog-small" => catalog::all()
            .into_iter()
            .filter(|e| SMALL.contains(&e.test.name.as_str()))
            .collect(),
        other => {
            eprintln!("samm-load: unknown subset '{other}'");
            usage();
        }
    }
}

/// The request lines of one pass: every (test, model) pair of the
/// subset.
fn workload(entries: &[CatalogEntry]) -> Vec<String> {
    let mut lines = Vec::new();
    for entry in entries {
        for model in entry.models() {
            lines.push(format!(
                "{{\"kind\":\"enumerate\",\"test\":\"{}\",\"model\":\"{}\"}}",
                entry.test.name,
                model.name()
            ));
        }
    }
    lines
}

struct PassTally {
    latencies: HistogramSnapshot,
    served: u64,
    hits: u64,
    forwarded: u64,
    errors: u64,
}

/// A histogram quantile in milliseconds.
fn quantile_ms(snap: &HistogramSnapshot, q: f64) -> f64 {
    snap.quantile(q) as f64 / 1e6
}

/// Shared per-pass counters the worker threads update.
struct PassCounters {
    next: AtomicUsize,
    served: AtomicU64,
    hits: AtomicU64,
    forwarded: AtomicU64,
    errors: AtomicU64,
    latencies: Histogram,
}

impl PassCounters {
    fn new() -> Self {
        PassCounters {
            next: AtomicUsize::new(0),
            served: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            forwarded: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latencies: Histogram::new(),
        }
    }

    /// Tallies one raw response line without building its value tree.
    ///
    /// On the happy path — every slot a success — the tallied fields
    /// (`ok`, `cache_hit`, `forwarded`) are flat `"name":true` members
    /// that never occur inside the string payloads of a success
    /// response, so substring counting is exact and skips the JSON
    /// parse that would otherwise dominate a warm-cache load run.
    /// Anything that does not look like a clean success (an `ok:false`
    /// anywhere, or a surprising success count) takes the slow path:
    /// a full parse with precise per-slot error reporting.
    ///
    /// `slots` is the batch size, or 0 for a bare (unbatched) request.
    fn tally_line(&self, line: &str, slots: usize) {
        let expected_ok = if slots == 0 { 1 } else { slots + 1 };
        if !line.contains("\"ok\":false") && line.matches("\"ok\":true").count() == expected_ok {
            self.served
                .fetch_add(slots.max(1) as u64, Ordering::Relaxed);
            let hits = line.matches("\"cache_hit\":true").count() as u64;
            self.hits.fetch_add(hits, Ordering::Relaxed);
            let forwarded = line.matches("\"forwarded\":true").count() as u64;
            self.forwarded.fetch_add(forwarded, Ordering::Relaxed);
            return;
        }
        let response = match samm_serve::json::parse(line) {
            Ok(response) => response,
            Err(e) => {
                eprintln!("samm-load: unparseable response: {e}");
                self.errors
                    .fetch_add(slots.max(1) as u64, Ordering::Relaxed);
                return;
            }
        };
        if slots == 0 {
            self.tally_response(&response);
        } else if response.get("ok").and_then(Json::as_bool) == Some(true) {
            let empty = Vec::new();
            let subs = response
                .get("responses")
                .and_then(Json::as_arr)
                .unwrap_or(&empty);
            for slot in subs {
                self.tally_response(slot);
            }
        } else {
            eprintln!("samm-load: batch rejected: {response}");
            self.errors.fetch_add(slots as u64, Ordering::Relaxed);
        }
    }

    /// Tallies one parsed server answer (a top-level response or a
    /// batch slot) — the slow path of [`PassCounters::tally_line`].
    fn tally_response(&self, response: &Json) {
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            eprintln!("samm-load: error response: {response}");
            self.errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.served.fetch_add(1, Ordering::Relaxed);
        if response.get("cache_hit").and_then(Json::as_bool) == Some(true) {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        if response.get("forwarded").and_then(Json::as_bool) == Some(true) {
            self.forwarded.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Replays `lines` with `concurrency` connections spread round-robin
/// over `addrs`; every worker owns one connection, pulls the next
/// request index (or batch of indices) atomically, and records its
/// latencies straight into the shared lock-free histogram.
///
/// With `tracer` set, every wire line carries a fresh trace context
/// and a derived request id (`load-<pass>-<index>`), and the matching
/// client root span lands in the tracer's JSONL file — server-side
/// spans for the same request continue that trace.
fn run_pass(
    addrs: &[SocketAddr],
    lines: &[String],
    concurrency: usize,
    batch: usize,
    pass: usize,
    tracer: Option<&JsonlLog>,
) -> PassTally {
    let counters = PassCounters::new();
    std::thread::scope(|scope| {
        for worker in 0..concurrency.max(1) {
            let counters = &counters;
            let addr = addrs[worker % addrs.len()];
            scope.spawn(move || {
                let mut client = match Client::connect(addr, TIMEOUT) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("samm-load: connect {addr}: {e}");
                        counters.errors.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                };
                loop {
                    let start = counters.next.fetch_add(batch, Ordering::Relaxed);
                    if start >= lines.len() {
                        break;
                    }
                    let chunk = &lines[start..(start + batch).min(lines.len())];
                    let mut line = if batch == 1 {
                        chunk[0].clone()
                    } else {
                        format!("{{\"kind\":\"batch\",\"requests\":[{}]}}", chunk.join(","))
                    };
                    let mut span = tracer.map(|_| {
                        let mut span = ActiveSpan::root("client", SpanKind::Client);
                        span.attr("req", if batch == 1 { "enumerate" } else { "batch" });
                        span.attr("pass", pass as u64);
                        span.attr("slots", chunk.len() as u64);
                        // Every workload line ends in '}', so the id and
                        // trace context splice in without a JSON parse.
                        line = format!(
                            "{},\"id\":\"load-{pass}-{start}\",\"trace\":\"{}\"}}",
                            &line[..line.len() - 1],
                            span.context().encode()
                        );
                        span
                    });
                    let started = Instant::now();
                    match client.request_line(&line) {
                        Ok(response) => {
                            counters.latencies.record_duration(started.elapsed());
                            if let (Some(mut span), Some(sink)) = (span.take(), tracer) {
                                span.attr("ok", !response.contains("\"ok\":false"));
                                span.finish(sink);
                            }
                            let slots = if batch == 1 { 0 } else { chunk.len() };
                            counters.tally_line(&response, slots);
                        }
                        Err(e) => {
                            eprintln!("samm-load: transport error: {e}");
                            if let (Some(mut span), Some(sink)) = (span.take(), tracer) {
                                span.attr("ok", false);
                                span.finish(sink);
                            }
                            counters
                                .errors
                                .fetch_add(chunk.len() as u64, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    PassTally {
        latencies: counters.latencies.snapshot(),
        served: counters.served.into_inner(),
        hits: counters.hits.into_inner(),
        forwarded: counters.forwarded.into_inner(),
        errors: counters.errors.into_inner(),
    }
}

/// Every family a healthy server's exposition must carry after a load
/// run — the counters/histograms `--prom` asserts on.
const REQUIRED_FAMILIES: [&str; 4] = [
    "samm_requests_total",
    "samm_request_latency_seconds",
    "samm_cache_hits_total",
    "samm_closure_rule_applications_total",
];

/// Scrapes `GET /metrics` from the server's plain-HTTP Prometheus
/// listener and validates the body with the text-format checker.
fn scrape_prom(addr: &str) -> Result<(), String> {
    let resolved: SocketAddr = addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
        .ok_or_else(|| format!("cannot resolve '{addr}'"))?;
    let mut stream = TcpStream::connect_timeout(&resolved, TIMEOUT)
        .map_err(|e| format!("connect {resolved}: {e}"))?;
    stream
        .set_read_timeout(Some(TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: samm\r\n\r\n")
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| "no header/body separator in HTTP response".to_owned())?;
    let status = head.lines().next().unwrap_or_default();
    if !status.contains(" 200 ") {
        return Err(format!("non-200 response: {status}"));
    }
    let summary = prom::check(body).map_err(|e| format!("invalid exposition: {e}"))?;
    for family in REQUIRED_FAMILIES {
        if !summary.has_family(family) {
            return Err(format!("exposition is missing family {family}"));
        }
    }
    println!(
        "prom scrape ok: {} families, {} samples",
        summary.families.len(),
        summary.samples
    );
    Ok(())
}

fn main() -> ExitCode {
    let opts = parse_args();
    let mut addrs = Vec::new();
    for endpoint in &opts.endpoints {
        match endpoint.to_socket_addrs().ok().and_then(|mut a| a.next()) {
            Some(addr) => addrs.push(addr),
            None => {
                eprintln!("samm-load: cannot resolve '{endpoint}'");
                return ExitCode::FAILURE;
            }
        }
    }
    let entries = subset_entries(&opts.subset);
    let lines = workload(&entries);
    println!(
        "samm-load: {} requests/pass ({} tests, subset {}), {} pass(es), \
         concurrency {}, batch {}, {} endpoint(s)",
        lines.len(),
        entries.len(),
        opts.subset,
        opts.passes,
        opts.concurrency,
        opts.batch,
        addrs.len(),
    );

    let tracer = match &opts.trace {
        Some(path) => match JsonlLog::open(path, 64 * 1024 * 1024) {
            Ok(log) => Some(log),
            Err(e) => {
                eprintln!("samm-load: cannot open trace file {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let mut total_errors = 0u64;
    let mut total_hits = 0u64;
    let mut total_forwarded = 0u64;
    for pass in 1..=opts.passes.max(1) {
        let started = Instant::now();
        let tally = run_pass(
            &addrs,
            &lines,
            opts.concurrency,
            opts.batch,
            pass,
            tracer.as_ref(),
        );
        let wall = started.elapsed();
        let hit_rate = if tally.served == 0 {
            0.0
        } else {
            100.0 * tally.hits as f64 / tally.served as f64
        };
        let unit = if opts.batch == 1 { "req" } else { "batch" };
        println!(
            "pass {pass}: {} ok in {:.3}s ({:.1} req/s) hit-rate {hit_rate:.1}% \
             p50 {:.2}ms p90 {:.2}ms p99 {:.2}ms max {:.2}ms per {unit}, errors {}",
            tally.served,
            wall.as_secs_f64(),
            tally.served as f64 / wall.as_secs_f64().max(1e-9),
            quantile_ms(&tally.latencies, 0.50),
            quantile_ms(&tally.latencies, 0.90),
            quantile_ms(&tally.latencies, 0.99),
            tally.latencies.max as f64 / 1e6,
            tally.errors,
        );
        total_errors += tally.errors;
        total_hits += tally.hits;
        total_forwarded += tally.forwarded;
    }
    println!("total cache hits: {total_hits}");
    println!("forwarded responses: {total_forwarded}");
    println!("total protocol errors: {total_errors}");

    if let Some(prom_addr) = &opts.prom {
        if let Err(e) = scrape_prom(prom_addr) {
            eprintln!("samm-load: prom scrape failed: {e}");
            total_errors += 1;
        }
    }

    if opts.shutdown {
        for addr in &addrs {
            match Client::connect(*addr, TIMEOUT)
                .and_then(|mut c| c.request_raw("{\"kind\":\"shutdown\"}"))
            {
                Ok(response) if response.get("ok").and_then(Json::as_bool) == Some(true) => {
                    println!("{addr} draining");
                }
                Ok(response) => {
                    eprintln!("samm-load: shutdown refused by {addr}: {response}");
                    total_errors += 1;
                }
                Err(e) => {
                    eprintln!("samm-load: shutdown of {addr} failed: {e}");
                    total_errors += 1;
                }
            }
        }
    }

    if total_errors == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
