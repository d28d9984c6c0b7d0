//! The traced run: the first [`TRACE_LINES`] lines of the stream,
//! replayed over the wire and then in-process, with each layer's public
//! entry point timed from here. Spans inside the program are not used.
//!
//! Layer means add up: `io.residual_us.mean` is the client round trip
//! minus parse, handler and render, and `handler.self_us.mean` is the
//! handler minus the layers it calls. Both are per line and reported as
//! measured, not forced to fit. The wire replay runs the same
//! one-connection closed loop as the timed windows, on the same pinned
//! core, so its round trips also hold the context switches between
//! client, event loop and worker; they land in the I/O residual.

use std::hint::black_box;
use std::time::Instant;

use samm_core::cache::EnumCache;
use samm_core::explain::{find_witness, refute, Goal};
use samm_core::fingerprint::query_fingerprint;
use samm_core::{enumerate::enumerate, pruned::enumerate_pruned};
use samm_litmus::expect::run_entry;
use samm_serve::json::{self, Json};
use samm_serve::{handler, parse_envelope, ServerState};

use crate::machine::Gauge;
use crate::oracle::service_config;
use crate::run::{set_up, Checker, Metric};
use crate::server::CacheCounters;
use crate::stats::nearest_rank;
use crate::workload::{Kind, Workload};

/// Stream lines each traced replay sends.
const TRACE_LINES: usize = 4000;
/// Why a repeated layer call cannot fail: the handler just answered the
/// same query without a budget.
const ANSWERED: &str = "the handler answered the same query";

/// What the wire replay saw.
#[derive(Debug, Default)]
struct Wire {
    rtt_ns: Vec<u64>,
    /// Slots answered correctly.
    slots: u64,
    cache: CacheCounters,
}

/// Engine counters of the fresh enumerations, read from the stats JSON
/// the service puts on the wire. The service caches stats with their
/// `obs.*_nanos` timings zeroed, so they are read from the in-process
/// engine run that matches the handler's.
#[derive(Debug, Default)]
struct EngineCounters {
    misses: u64,
    forks: u64,
    deduped: u64,
    closure_ns: u64,
    settle_ns: u64,
    resolve_ns: u64,
}

impl EngineCounters {
    fn add(&mut self, stats_json: &str) {
        let stats = json::parse(stats_json).ok();
        let num = |v: Option<&Json>, key: &str| {
            v.and_then(|v| v.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        let obs = stats.as_ref().and_then(|s| s.get("obs"));
        self.misses += 1;
        self.forks += num(stats.as_ref(), "forks");
        self.deduped += num(stats.as_ref(), "deduped");
        self.closure_ns += num(obs, "closure_nanos");
        self.settle_ns += num(obs, "settle_nanos");
        self.resolve_ns += num(obs, "resolve_nanos");
    }
}

/// The answers of a response, one per slot.
fn slot_answers(response: &Json, batch: bool) -> Vec<&Json> {
    if batch {
        response
            .get("responses")
            .and_then(Json::as_arr)
            .map(|a| a.iter().collect())
            .unwrap_or_default()
    } else {
        vec![response]
    }
}

fn is_miss(slot: &Json) -> bool {
    slot.get("kind").and_then(Json::as_str) == Some("enumerate")
        && slot.get("cache_hit").and_then(Json::as_bool) == Some(false)
}

/// Replay 1: a new server, set up as in the timed run, driven by the
/// same one-connection closed loop; every response is parsed in full
/// and checked.
fn wire(ck: &Checker<'_>) -> Result<Wire, String> {
    let server = set_up(ck)?;
    let before = server.cache_counters()?;
    let mut client = server.connect()?;
    let mut total = Wire::default();
    for pos in 0..TRACE_LINES {
        let line = ck.w.line_at(pos);
        let started = Instant::now();
        let reply = client.request_line(&ck.w.lines[line].text);
        total.rtt_ns.push(started.elapsed().as_nanos() as u64);
        let checked = reply
            .map_err(|e| e.to_string())
            .and_then(|r| json::parse(&r).map_err(|e| e.to_string()))
            .and_then(|r| ck.oracle.check_parsed(&ck.w.lines, line, &r));
        total.slots += ck.count(line, checked);
    }
    total.cache = server.cache_counters()? - before;
    server.shutdown()?;
    Ok(total)
}

/// Summed nanoseconds and call counts of the in-process layer timers.
#[derive(Debug, Default)]
struct Timer {
    nanos: u64,
    calls: u64,
}

impl Timer {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = black_box(f());
        self.nanos += started.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }

    /// Mean per call, in microseconds.
    fn mean_us(&self) -> f64 {
        self.nanos as f64 / 1e3 / self.calls.max(1) as f64
    }
}

#[derive(Debug, Default)]
struct InProcess {
    parse: Timer,
    handler: Timer,
    render: Timer,
    bytes: u64,
    fingerprint: Timer,
    probe: Timer,
    serial: Timer,
    pruned: Timer,
    harness: Timer,
    witness: Timer,
    refute: Timer,
    analyze: Timer,
    /// Nanoseconds of the engine each miss's handler reported using.
    engine_used_ns: u64,
    /// Counters of those same engine runs.
    engine: EngineCounters,
}

/// Replay 2: one thread against `ServerState` with the server's cache
/// geometry, set up the same way. Requests that touch the cache get
/// their fingerprint and probe timed before the handler runs (so the
/// probe sees the state the handler sees); work the handler reports as
/// fresh is repeated and timed per layer afterwards.
fn in_process(ck: &Checker<'_>) -> InProcess {
    let w: &Workload = ck.w;
    let state = ServerState::new(EnumCache::with_shards(w.geometry.0, w.geometry.1), None);
    for req in &w.reqs {
        let envelope = parse_envelope(&req.text).expect("workload lines parse");
        black_box(handler::handle_envelope(&state, &envelope));
    }
    let config = service_config();
    let policies: Vec<_> = w.reqs.iter().map(|r| r.model.map(|m| m.policy())).collect();
    let mut t = InProcess::default();
    for pos in 0..TRACE_LINES {
        let line = w.line_at(pos);
        let spec = &w.lines[line];
        for &r in &spec.slots {
            if let (Kind::Enumerate, Some(policy)) = (w.reqs[r].kind, &policies[r]) {
                let program = &w.catalog[w.reqs[r].entry].test.program;
                let fp = t
                    .fingerprint
                    .time(|| query_fingerprint(program, policy, &config));
                t.probe.time(|| state.cache.get(fp));
            }
        }
        let envelope = t
            .parse
            .time(|| parse_envelope(&spec.text).expect("workload lines parse"));
        let response = t
            .handler
            .time(|| handler::handle_envelope(&state, &envelope));
        let text = t.render.time(|| response.to_string());
        t.bytes += text.len() as u64;
        ck.count(
            line,
            if ck.oracle.fast_check(&w.lines, line, &text) {
                Ok(())
            } else {
                Err(format!("in-process answer failed the check: {text}"))
            },
        );
        for (&r, slot) in spec.slots.iter().zip(slot_answers(&response, spec.batch)) {
            let req = &w.reqs[r];
            let entry = &w.catalog[req.entry];
            let program = &entry.test.program;
            let goal = || Goal::new(entry.test.conditions[0].clauses.clone());
            match (req.kind, &policies[r]) {
                (Kind::Enumerate, Some(policy)) if is_miss(slot) => {
                    let serial_ns = t.serial.nanos;
                    let serial = t
                        .serial
                        .time(|| enumerate(program, policy, &config))
                        .expect(ANSWERED);
                    let pruned_ns = t.pruned.nanos;
                    let pruned = t
                        .pruned
                        .time(|| enumerate_pruned(program, policy, &config))
                        .expect(ANSWERED);
                    let (used, nanos) = match slot.get("engine").and_then(Json::as_str) {
                        Some("pruned") => (pruned, t.pruned.nanos - pruned_ns),
                        _ => (serial, t.serial.nanos - serial_ns),
                    };
                    t.engine_used_ns += nanos;
                    t.engine.add(&used.stats.to_json());
                }
                (Kind::Verdict, _) => {
                    t.harness
                        .time(|| run_entry(entry, &config))
                        .expect(ANSWERED);
                }
                (Kind::Witness, Some(policy)) => {
                    let goal = goal();
                    t.witness
                        .time(|| find_witness(program, policy, &config, &goal))
                        .expect(ANSWERED);
                }
                (Kind::Refutation, Some(policy)) => {
                    let goal = goal();
                    t.refute
                        .time(|| refute(program, policy, &config, &goal))
                        .expect(ANSWERED);
                }
                (Kind::Certify, Some(policy)) => {
                    t.analyze.time(|| {
                        (
                            samm_analyze::certify(program, policy),
                            samm_analyze::analyze_static(program, policy),
                        )
                    });
                }
                _ => {}
            }
        }
    }
    t
}

/// Runs both replays, with probes of `gauge` before, between and after
/// them, and derives the per-layer metrics; `e2e_p50_us` is the
/// untraced `latency_p50_us` of the same run. The layer timings are as
/// measured; `machine.slowdown` says how slow the machine ran meanwhile.
///
/// # Errors
///
/// Failures to start, reach or stop the replay server.
pub fn per_layer(
    ck: &Checker<'_>,
    gauge: &mut Gauge,
    e2e_p50_us: f64,
) -> Result<Vec<Metric>, String> {
    let before = gauge.probe()?;
    let mut wire = wire(ck)?;
    let between = gauge.probe()?;
    let t = in_process(ck);
    let wire_slowdown = (before + between) / 2.0;
    let slowdown = (before + between + gauge.probe()?) / 3.0;
    wire.rtt_ns.sort_unstable();
    let lines = TRACE_LINES as f64;
    let us_per_line = |nanos: u64| nanos as f64 / 1e3 / lines;
    let per = |n: u64, d: u64| n as f64 / d.max(1) as f64;

    let rtt_mean = us_per_line(wire.rtt_ns.iter().sum());
    let rtt_p50 = nearest_rank(&wire.rtt_ns, 50.0) as f64 / 1e3;
    let rtt_p99 = nearest_rank(&wire.rtt_ns, 99.0) as f64 / 1e3;
    let served = us_per_line(t.parse.nanos + t.handler.nanos + t.render.nanos);
    let residual = rtt_mean - served;
    let called = t.fingerprint.nanos
        + t.probe.nanos
        + t.engine_used_ns
        + t.harness.nanos
        + t.witness.nanos
        + t.refute.nanos
        + t.analyze.nanos;
    let (c, e) = (wire.cache, &t.engine);
    println!(
        "{}: traced {TRACE_LINES} lines, {} slots ok over the wire, {} in-process misses",
        ck.w.name, wire.slots, e.misses
    );
    Ok(vec![
        Metric::new("client.rtt_us.mean", "us", rtt_mean),
        Metric::new("client.rtt_us.p50", "us", rtt_p50),
        Metric::new("client.rtt_us.p99", "us", rtt_p99),
        Metric::new("io.residual_us.mean", "us", residual),
        Metric::new("io.share", "ratio", residual / rtt_mean),
        Metric::new("protocol.parse_us.mean", "us", t.parse.mean_us()),
        Metric::new("protocol.render_us.mean", "us", t.render.mean_us()),
        Metric::new("protocol.resp_bytes.mean", "bytes", t.bytes as f64 / lines),
        Metric::new("handler.us.mean", "us", t.handler.mean_us()),
        Metric::new(
            "handler.self_us.mean",
            "us",
            us_per_line(t.handler.nanos) - us_per_line(called),
        ),
        Metric::new("fingerprint.us.mean", "us", t.fingerprint.mean_us()),
        Metric::new("cache.probe_us.mean", "us", t.probe.mean_us()),
        Metric::new("cache.hit_ratio", "ratio", per(c.hits, c.hits + c.misses)),
        Metric::new(
            "cache.insertions_per_req",
            "ratio",
            per(c.insertions, wire.slots),
        ),
        Metric::new(
            "cache.evictions_per_req",
            "ratio",
            per(c.evictions, wire.slots),
        ),
        Metric::new("engine.serial_us.mean", "us", t.serial.mean_us()),
        Metric::new("engine.pruned_us.mean", "us", t.pruned.mean_us()),
        Metric::new("engine.misses", "count", e.misses as f64),
        Metric::new("engine.forks_per_miss", "count", per(e.forks, e.misses)),
        Metric::new("engine.dedup_ratio", "ratio", per(e.deduped, e.forks)),
        Metric::new(
            "engine.closure_us_per_miss",
            "us",
            per(e.closure_ns, e.misses) / 1e3,
        ),
        Metric::new(
            "engine.settle_us_per_miss",
            "us",
            per(e.settle_ns, e.misses) / 1e3,
        ),
        Metric::new(
            "engine.resolve_us_per_miss",
            "us",
            per(e.resolve_ns, e.misses) / 1e3,
        ),
        Metric::new("harness.verdict_us.mean", "us", t.harness.mean_us()),
        Metric::new("explain.witness_us.mean", "us", t.witness.mean_us()),
        Metric::new("explain.refute_us.mean", "us", t.refute.mean_us()),
        Metric::new("analyze.certify_us.mean", "us", t.analyze.mean_us()),
        Metric::new(
            "trace.overhead_ratio",
            "ratio",
            if e2e_p50_us > 0.0 {
                rtt_p50 / wire_slowdown / e2e_p50_us - 1.0
            } else {
                0.0
            },
        ),
        Metric::new("machine.slowdown", "ratio", slowdown),
    ])
}
