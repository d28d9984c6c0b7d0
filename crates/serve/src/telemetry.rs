//! Server-side telemetry: the server's one counter block (request,
//! monitoring, error and overload counts), per-request-kind latency
//! histograms (split by cache hit / miss / overbudget), a queue-depth
//! gauge, aggregated enumeration counters, the span log with its
//! slow-request filter, and the Prometheus text exposition. The
//! `metrics` JSON response and the exposition both read these same
//! counters.
//!
//! Built from the [`samm_core::telemetry`] primitives; everything here
//! is lock-free on the request path (one histogram `record` plus a few
//! relaxed counter increments per request). The exposition is rendered
//! on demand by [`Telemetry::render_prom`] and validated end to end by
//! [`samm_core::telemetry::prom::check`] in CI.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use samm_core::cache::{CacheStats, ShardStats};
use samm_core::enumerate::EnumStats;
use samm_core::obs::Obs;
use samm_core::telemetry::trace::{Attr, SpanKind, SpanRecord, SpanSink};
use samm_core::telemetry::{
    Histogram, HistogramSnapshot, RateCounter, RequestIdGen, LATENCY_LE_NANOS,
};

use crate::cluster::ClusterSnapshot;
use crate::json::Json;
use crate::protocol::Request;

/// The latency-tracked request kinds, in wire-name order. `metrics`,
/// `metrics_cluster`, `metrics_prom`, and `shutdown` are
/// monitoring/control traffic and
/// are accounted separately (see the `monitoring` counter), so
/// self-observation never skews the service rates.
pub const KIND_NAMES: [&str; 6] = [
    "enumerate",
    "verdict",
    "witness",
    "refutation",
    "certify",
    "batch",
];

/// Label values of the delay-set robustness verdict counters, in
/// [`Telemetry::robust_verdicts`] index order.
pub const ROBUST_VERDICT_NAMES: [&str; 3] = ["robust", "cycle", "unknown"];

/// Label values of the persisted-cache line counters, in
/// [`Telemetry::persist_lines`] index order.
pub const PERSIST_RESULT_NAMES: [&str; 2] = ["loaded", "refused"];

/// `le` bounds of the `samm_batch_size` histogram (plain values, not
/// nanoseconds): powers of two up to [`crate::protocol::MAX_BATCH`].
pub const BATCH_SIZE_LE: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// `le` bounds of the `samm_forward_hops` histogram: the `fwd` marker
/// caps forwarding at one hop, so 0/1 covers every possible value.
pub const FORWARD_HOPS_LE: [u64; 2] = [0, 1];

/// Index into [`KIND_NAMES`] for a request, or `None` for
/// monitoring/control kinds.
pub fn kind_index(request: &Request) -> Option<usize> {
    match request {
        Request::Enumerate { .. } => Some(0),
        Request::Verdict { .. } => Some(1),
        Request::Witness { .. } => Some(2),
        Request::Refutation { .. } => Some(3),
        Request::Certify { .. } => Some(4),
        Request::Batch(_) => Some(5),
        Request::Metrics | Request::MetricsCluster | Request::MetricsProm | Request::Shutdown => {
            None
        }
    }
}

/// Renders a [`HistogramSnapshot`] as its wire object —
/// `{"count":..,"sum":..,"max":..,"buckets":[..]}` — the shape
/// `metrics_cluster` ships between nodes so the aggregator can rebuild
/// and merge exact snapshots.
pub fn snapshot_to_json(snap: &HistogramSnapshot) -> Json {
    Json::obj([
        ("count", Json::num(snap.count as f64)),
        ("sum", Json::num(snap.sum as f64)),
        ("max", Json::num(snap.max as f64)),
        (
            "buckets",
            Json::Arr(
                snap.buckets
                    .iter()
                    .map(|b| Json::num(*b as f64))
                    .collect::<Vec<_>>(),
            ),
        ),
    ])
}

/// Parses the wire object written by [`snapshot_to_json`]. Returns
/// `None` for anything malformed — a peer running a different build
/// degrades to "not merged", never a crash.
pub fn snapshot_from_json(value: &Json) -> Option<HistogramSnapshot> {
    let count = value.get("count")?.as_u64()?;
    let sum = value.get("sum")?.as_u64()?;
    let max = value.get("max")?.as_u64()?;
    let buckets = value
        .get("buckets")?
        .as_arr()?
        .iter()
        .map(|b| b.as_u64())
        .collect::<Option<Vec<u64>>>()?;
    Some(HistogramSnapshot {
        count,
        sum,
        max,
        buckets,
    })
}

/// How a request was answered, for counter/histogram labeling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqOutcome {
    /// Answered from the enumeration cache.
    Hit,
    /// Answered by fresh work (or a kind with no cache).
    Miss,
    /// Failed with the structured `overbudget` error.
    Overbudget,
    /// Failed with any other structured error.
    Error,
}

impl ReqOutcome {
    /// The Prometheus label value.
    pub fn label(self) -> &'static str {
        match self {
            ReqOutcome::Hit => "hit",
            ReqOutcome::Miss => "miss",
            ReqOutcome::Overbudget => "overbudget",
            ReqOutcome::Error => "error",
        }
    }

    /// Classifies a rendered response: structured errors by kind, then
    /// the `cache_hit` field when present.
    pub fn classify(response: &Json) -> ReqOutcome {
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            let kind = response
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str);
            return if kind == Some("overbudget") {
                ReqOutcome::Overbudget
            } else {
                ReqOutcome::Error
            };
        }
        match response.get("cache_hit").and_then(Json::as_bool) {
            Some(true) => ReqOutcome::Hit,
            _ => ReqOutcome::Miss,
        }
    }
}

/// Latency histograms and outcome counters for one request kind.
#[derive(Debug, Default)]
pub struct KindTelemetry {
    /// Latency of cache-hit answers.
    pub hit: Histogram,
    /// Latency of fresh (miss) answers.
    pub miss: Histogram,
    /// Latency of overbudget failures.
    pub overbudget: Histogram,
    /// Structured errors other than overbudget (no latency tracked —
    /// they are parse/lookup failures, not work).
    pub errors: AtomicU64,
}

impl KindTelemetry {
    /// Requests of this kind seen (all outcomes).
    pub fn total(&self) -> u64 {
        self.hit.count()
            + self.miss.count()
            + self.overbudget.count()
            + self.errors.load(Ordering::Relaxed)
    }

    /// The merged latency snapshot across hit/miss/overbudget.
    pub fn merged(&self) -> HistogramSnapshot {
        let mut snap = self.hit.snapshot();
        snap.merge(&self.miss.snapshot());
        snap.merge(&self.overbudget.snapshot());
        snap
    }
}

/// The server's aggregate telemetry. One instance lives in
/// `ServerState` and is shared by every worker.
#[derive(Debug)]
pub struct Telemetry {
    /// Server start, for uptime and event timestamps.
    pub started: Instant,
    /// Generator for server-assigned request ids.
    pub ids: RequestIdGen,
    /// Per-kind latency histograms and counters ([`KIND_NAMES`] order).
    pub kinds: [KindTelemetry; 6],
    /// Service request lines parsed and executed (including ones that
    /// failed, and unparseable lines) — *excluding* monitoring requests,
    /// which are tallied in [`Telemetry::monitoring`]. A batch line
    /// counts once, however many slots it carries.
    pub requests: AtomicU64,
    /// Request lines and batch slots that did not parse into a request
    /// (a line is counted in `requests` too, a slot is not), exposed as
    /// `samm_requests_total`'s `kind="malformed",outcome="error"`
    /// series.
    pub malformed: AtomicU64,
    /// Monitoring requests (`metrics` / `metrics_cluster` /
    /// `metrics_prom`) — reported separately so self-observation does
    /// not skew `requests`.
    pub monitoring: AtomicU64,
    /// Requests (and batch slots) answered with a structured error.
    pub errors: AtomicU64,
    /// Connections rejected because the server was at its connection
    /// limit (`--max-connections`).
    pub overloaded: AtomicU64,
    /// Completed-request rate window (non-monitoring).
    pub rate: RateCounter,
    /// Parsed requests currently queued waiting for a handler thread.
    pub queue_depth: AtomicU64,
    /// Aggregated closure-rule / candidate counters folded from every
    /// fresh enumeration's [`samm_core::obs::ObsStats`].
    pub obs_agg: Obs,
    /// Behaviours explored by fresh enumerations.
    pub enum_explored: AtomicU64,
    /// Forks attempted by fresh enumerations.
    pub enum_forks: AtomicU64,
    /// Forks discarded as duplicates (dedup hits) by fresh enumerations.
    pub enum_deduped: AtomicU64,
    /// Delay-set robustness verdicts answered by `certify` requests
    /// carrying `robust:true`, in [`ROBUST_VERDICT_NAMES`] order.
    pub robust_verdicts: [AtomicU64; 3],
    /// Server-kind spans (requests and batch slots) written to the span
    /// log, i.e. at or over the slow threshold.
    pub slow_total: AtomicU64,
    /// Request id of the most recent such span (exposed as an info
    /// metric so dashboards can link the exposition to the span log).
    pub last_slow_id: Mutex<Option<String>>,
    /// Sub-requests per `batch` envelope (plain values, not nanos).
    pub batch_sizes: Histogram,
    /// Cluster hops taken to answer an enumerate (0 = owned locally).
    pub forward_hops: Histogram,
    /// Requests forwarded to the owning peer and answered by it.
    pub forwards_ok: AtomicU64,
    /// Forwarded slots answered locally instead (peer unreachable or its reply refused).
    pub forward_fallbacks: AtomicU64,
    /// `enumerate` requests that waited for another request's fill of
    /// the same cache entry instead of running their own
    /// ([`samm_core::cache::EnumCache::get_or_fill`]).
    pub singleflight_waits: AtomicU64,
    /// Lines of the persisted cache file read at start, in
    /// [`PERSIST_RESULT_NAMES`] order: loaded into the cache, and
    /// refused (unparseable, or written by another format version).
    pub persist_lines: [AtomicU64; 2],
    /// Forwarded-request tallies per peer node id.
    pub peer_forwards: Mutex<BTreeMap<String, u64>>,
    /// Per-event-loop gauges, registered by the event-loop core.
    pub loops: Mutex<Vec<Arc<LoopGauges>>>,
    /// The span log (`--trace-log`), when configured. `None` keeps the
    /// request path span-free unless a client sends a `trace` context
    /// (ids still propagate then, unrecorded).
    pub(crate) spans: Option<Arc<dyn SpanSink>>,
    /// Spans shorter than this many nanoseconds are not written
    /// (`--slow-ms`; zero writes every span).
    slow_ns: u64,
    /// Fleet view cached from the most recent `metrics_cluster`
    /// fan-out, keyed by node id. Backs the `node`-labelled Prometheus
    /// families; empty (families omitted) until the first fan-out.
    pub fleet: Mutex<BTreeMap<String, FleetSample>>,
}

/// One node's contribution to the cached fleet view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSample {
    /// Whether the node answered the most recent fan-out.
    pub up: bool,
    /// Latency-tracked requests the node reported.
    pub requests: u64,
}

/// Live gauges for one event loop, updated by the loop thread and read
/// by the exposition.
#[derive(Debug, Default)]
pub struct LoopGauges {
    /// Open connections owned by this loop.
    pub connections: AtomicU64,
    /// Requests dispatched to workers and not yet answered.
    pub inflight: AtomicU64,
    /// Requests this loop answered itself, never dispatched: cache hits,
    /// and the unpipelined lines of a loop's only connection outside a
    /// cluster.
    pub answered: AtomicU64,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(None, Duration::ZERO)
    }
}

impl Telemetry {
    /// Telemetry with an optional span log that keeps only spans at or
    /// over `slow`.
    pub fn new(spans: Option<Arc<dyn SpanSink>>, slow: Duration) -> Self {
        Telemetry {
            started: Instant::now(),
            ids: RequestIdGen::new("r"),
            kinds: Default::default(),
            requests: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            monitoring: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            rate: RateCounter::new(),
            queue_depth: AtomicU64::new(0),
            obs_agg: Obs::new(),
            enum_explored: AtomicU64::new(0),
            enum_forks: AtomicU64::new(0),
            enum_deduped: AtomicU64::new(0),
            robust_verdicts: Default::default(),
            slow_total: AtomicU64::new(0),
            last_slow_id: Mutex::new(None),
            batch_sizes: Histogram::default(),
            forward_hops: Histogram::default(),
            forwards_ok: AtomicU64::new(0),
            forward_fallbacks: AtomicU64::new(0),
            singleflight_waits: AtomicU64::new(0),
            persist_lines: Default::default(),
            peer_forwards: Mutex::new(BTreeMap::new()),
            loops: Mutex::new(Vec::new()),
            spans,
            slow_ns: u64::try_from(slow.as_nanos()).unwrap_or(u64::MAX),
            fleet: Mutex::new(BTreeMap::new()),
        }
    }

    /// Replaces the cached fleet view with `samples` (one
    /// `metrics_cluster` fan-out's worth).
    pub fn update_fleet(&self, samples: impl IntoIterator<Item = (String, FleetSample)>) {
        let mut fleet = self.fleet.lock().expect("fleet poisoned");
        fleet.clear();
        fleet.extend(samples);
    }

    /// Registers one event loop's gauges; the returned handle is shared
    /// with the exposition.
    pub fn register_loop(&self) -> Arc<LoopGauges> {
        let gauges = Arc::new(LoopGauges::default());
        self.loops
            .lock()
            .expect("loop gauges poisoned")
            .push(Arc::clone(&gauges));
        gauges
    }

    /// Counts one `enumerate` forwarded to (and answered by) `peer`: one
    /// hop.
    pub fn note_forward(&self, peer: &str) {
        self.forwards_ok.fetch_add(1, Ordering::Relaxed);
        self.forward_hops.record(1);
        *self
            .peer_forwards
            .lock()
            .expect("peer forwards poisoned")
            .entry(peer.to_owned())
            .or_insert(0) += 1;
    }

    /// Counts one `enumerate` whose forward failed over to local
    /// execution: zero hops.
    pub fn note_fallback(&self) {
        self.forward_fallbacks.fetch_add(1, Ordering::Relaxed);
        self.forward_hops.record(0);
    }

    /// Records one completed latency-tracked request.
    pub fn record(&self, kind: usize, outcome: ReqOutcome, elapsed: Duration) {
        let k = &self.kinds[kind];
        match outcome {
            ReqOutcome::Hit => k.hit.record_duration(elapsed),
            ReqOutcome::Miss => k.miss.record_duration(elapsed),
            ReqOutcome::Overbudget => k.overbudget.record_duration(elapsed),
            ReqOutcome::Error => {
                k.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.rate.record();
    }

    /// Tallies one delay-set robustness verdict (by its
    /// [`ROBUST_VERDICT_NAMES`] name) from a `certify` request.
    pub fn record_robust_verdict(&self, name: &str) {
        if let Some(i) = ROBUST_VERDICT_NAMES.iter().position(|n| *n == name) {
            self.robust_verdicts[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Folds a fresh enumeration's statistics into the aggregate
    /// counters (callers skip cache hits — hits did no new work).
    pub fn fold_stats(&self, stats: &EnumStats) {
        self.enum_explored
            .fetch_add(stats.explored as u64, Ordering::Relaxed);
        self.enum_forks
            .fetch_add(stats.forks as u64, Ordering::Relaxed);
        self.enum_deduped
            .fetch_add(stats.deduped as u64, Ordering::Relaxed);
        if let Some(obs) = &stats.obs {
            self.obs_agg.add_counters(obs);
        }
    }

    /// Latency-tracked requests completed so far (all kinds/outcomes).
    pub fn requests_total(&self) -> u64 {
        self.kinds.iter().map(KindTelemetry::total).sum()
    }

    /// The `telemetry` section of the JSON `metrics` response: uptime,
    /// rates, queue depth, per-kind quantiles, and aggregate counters —
    /// everything `samm-top` renders.
    pub fn to_json(&self) -> Json {
        let ms = 1e-6; // ns -> ms
        let kinds = KIND_NAMES
            .iter()
            .zip(&self.kinds)
            .map(|(name, k)| {
                let merged = k.merged();
                (
                    *name,
                    Json::obj([
                        ("hit", Json::num(k.hit.count() as f64)),
                        ("miss", Json::num(k.miss.count() as f64)),
                        ("overbudget", Json::num(k.overbudget.count() as f64)),
                        ("errors", Json::num(k.errors.load(Ordering::Relaxed) as f64)),
                        ("p50_ms", Json::num(merged.quantile(0.50) as f64 * ms)),
                        ("p90_ms", Json::num(merged.quantile(0.90) as f64 * ms)),
                        ("p99_ms", Json::num(merged.quantile(0.99) as f64 * ms)),
                        ("max_ms", Json::num(merged.max as f64 * ms)),
                        ("mean_ms", Json::num(merged.mean() * ms)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        let obs = self.obs_agg.snapshot();
        Json::obj([
            (
                "uptime_secs",
                Json::num(self.started.elapsed().as_secs_f64()),
            ),
            (
                "queue_depth",
                Json::num(self.queue_depth.load(Ordering::Relaxed) as f64),
            ),
            (
                "monitoring",
                Json::num(self.monitoring.load(Ordering::Relaxed) as f64),
            ),
            (
                "slow_queries",
                Json::num(self.slow_total.load(Ordering::Relaxed) as f64),
            ),
            ("rate_5s", Json::num(self.rate.rate_per_sec(5))),
            (
                "loop_answered",
                Json::Arr(
                    self.loops
                        .lock()
                        .expect("loop gauges poisoned")
                        .iter()
                        .map(|g| Json::num(g.answered.load(Ordering::Relaxed) as f64))
                        .collect(),
                ),
            ),
            ("kinds", Json::obj(kinds)),
            (
                "rules",
                Json::obj([
                    ("rule_a", Json::num(obs.rule_a as f64)),
                    ("rule_b", Json::num(obs.rule_b as f64)),
                    ("rule_c", Json::num(obs.rule_c as f64)),
                    ("closure_rounds", Json::num(obs.closure_rounds as f64)),
                    ("candidate_calls", Json::num(obs.candidate_calls as f64)),
                    ("candidate_stores", Json::num(obs.candidate_stores as f64)),
                ]),
            ),
            (
                "robust_verdicts",
                Json::obj(
                    ROBUST_VERDICT_NAMES
                        .iter()
                        .zip(&self.robust_verdicts)
                        .map(|(name, v)| (*name, Json::num(v.load(Ordering::Relaxed) as f64)))
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "persist_lines",
                Json::obj(
                    PERSIST_RESULT_NAMES
                        .iter()
                        .zip(&self.persist_lines)
                        .map(|(name, v)| (*name, Json::num(v.load(Ordering::Relaxed) as f64)))
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "enumeration",
                Json::obj([
                    (
                        "explored",
                        Json::num(self.enum_explored.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "forks",
                        Json::num(self.enum_forks.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "deduped",
                        Json::num(self.enum_deduped.load(Ordering::Relaxed) as f64),
                    ),
                ]),
            ),
        ])
    }

    /// Renders the full Prometheus text exposition. `cache` is the
    /// enumeration cache's global stats and `shards` its per-shard
    /// breakdown; `cluster` the membership view when serving in cluster
    /// mode (cluster-labelled families are omitted otherwise, as are
    /// per-loop gauges before the first loop registers and per-peer
    /// counters before the first forward).
    pub fn render_prom(
        &self,
        cache: &CacheStats,
        shards: &[ShardStats],
        cluster: Option<&ClusterSnapshot>,
    ) -> String {
        use samm_core::telemetry::prom::PromText;
        let mut prom = PromText::new();

        let kinds = || KIND_NAMES.iter().copied().zip(&self.kinds);
        let malformed = self.malformed.load(Ordering::Relaxed);
        prom.counter(
            "samm_requests_total",
            "Requests served, by kind and outcome (hit/miss/overbudget/error), counting each batch line and each of its slots; unparseable lines and slots are kind malformed.",
            kinds()
                .flat_map(|(name, k)| {
                    [
                        ("hit", k.hit.count()),
                        ("miss", k.miss.count()),
                        ("overbudget", k.overbudget.count()),
                        ("error", k.errors.load(Ordering::Relaxed)),
                    ]
                    .map(|(outcome, count)| ([("kind", name), ("outcome", outcome)], count as f64))
                })
                .chain([(
                    [("kind", "malformed"), ("outcome", "error")],
                    malformed as f64,
                )]),
        );
        prom.counter(
            "samm_monitoring_requests_total",
            "metrics / metrics_cluster / metrics_prom requests (excluded from samm_requests_total).",
            [([], self.monitoring.load(Ordering::Relaxed) as f64)],
        );
        prom.counter(
            "samm_overloaded_total",
            "Connections rejected because the server was at its connection limit.",
            [([], self.overloaded.load(Ordering::Relaxed) as f64)],
        );
        prom.gauge(
            "samm_queue_depth",
            "Parsed requests waiting for a handler thread.",
            [([], self.queue_depth.load(Ordering::Relaxed) as f64)],
        );
        prom.gauge(
            "samm_uptime_seconds",
            "Seconds since the server started.",
            [([], self.started.elapsed().as_secs_f64())],
        );

        // Latency histograms, one series per (kind, outcome) with work.
        prom.histogram_nanos(
            "samm_request_latency_seconds",
            "Request latency by kind and outcome.",
            &LATENCY_LE_NANOS,
            kinds().flat_map(|(name, k)| {
                [
                    ("hit", k.hit.snapshot()),
                    ("miss", k.miss.snapshot()),
                    ("overbudget", k.overbudget.snapshot()),
                ]
                .into_iter()
                .filter(|(_, snap)| snap.count > 0)
                .map(move |(outcome, snap)| ([("kind", name), ("outcome", outcome)], snap))
            }),
        );

        prom.counter(
            "samm_cache_hits_total",
            "Enumeration-cache lookups answered from the cache.",
            [([], cache.hits as f64)],
        );
        prom.counter(
            "samm_cache_misses_total",
            "Enumeration-cache lookups that ran fresh.",
            [([], cache.misses as f64)],
        );
        prom.counter(
            "samm_cache_evictions_total",
            "Enumeration-cache entries evicted.",
            [([], cache.evictions as f64)],
        );
        prom.counter(
            "samm_cache_insertions_total",
            "Enumeration-cache entries inserted.",
            [([], cache.insertions as f64)],
        );
        prom.gauge(
            "samm_cache_entries",
            "Enumeration-cache entries resident.",
            [([], cache.entries as f64)],
        );

        // Per-shard cache breakdown: hot shards show up as skew here.
        let shard_labels: Vec<String> = (0..shards.len()).map(|i| i.to_string()).collect();
        let by_shard = |pick: fn(&ShardStats) -> u64| {
            shard_labels
                .iter()
                .zip(shards)
                .map(move |(label, stats)| ([("shard", label.as_str())], pick(stats) as f64))
        };
        prom.gauge(
            "samm_cache_shard_entries",
            "Enumeration-cache entries resident, by shard.",
            by_shard(|s| s.entries as u64),
        );
        prom.counter(
            "samm_cache_shard_hits_total",
            "Enumeration-cache hits, by shard.",
            by_shard(|s| s.hits),
        );
        prom.counter(
            "samm_cache_shard_misses_total",
            "Enumeration-cache misses, by shard.",
            by_shard(|s| s.misses),
        );

        // Batch envelopes and cluster forwarding.
        prom.histogram_values(
            "samm_batch_size",
            "Sub-requests per batch envelope.",
            &BATCH_SIZE_LE,
            [([], self.batch_sizes.snapshot())],
        );
        prom.histogram_values(
            "samm_forward_hops",
            "Cluster hops taken to answer an enumerate (0 = owned locally).",
            &FORWARD_HOPS_LE,
            [([], self.forward_hops.snapshot())],
        );
        prom.counter(
            "samm_forwards_total",
            "Requests forwarded to the owning peer and answered by it.",
            [([], self.forwards_ok.load(Ordering::Relaxed) as f64)],
        );
        prom.counter(
            "samm_forward_fallbacks_total",
            "Forwarded slots answered locally instead (peer unreachable or its reply refused).",
            [([], self.forward_fallbacks.load(Ordering::Relaxed) as f64)],
        );
        prom.counter(
            "samm_singleflight_waits_total",
            "Enumerations that waited on an identical in-flight query.",
            [([], self.singleflight_waits.load(Ordering::Relaxed) as f64)],
        );
        prom.counter(
            "samm_persist_lines_total",
            "Persisted cache lines read at start, by result (loaded/refused).",
            PERSIST_RESULT_NAMES
                .iter()
                .zip(&self.persist_lines)
                .map(|(name, v)| ([("result", *name)], v.load(Ordering::Relaxed) as f64)),
        );
        let peer_forwards = self
            .peer_forwards
            .lock()
            .expect("peer forwards poisoned")
            .clone();
        if !peer_forwards.is_empty() {
            prom.counter(
                "samm_peer_forwards_total",
                "Requests forwarded, by destination peer.",
                peer_forwards
                    .iter()
                    .map(|(peer, count)| ([("peer", peer.as_str())], *count as f64)),
            );
        }

        // Per-event-loop series (absent until a loop registers).
        let loops = self.loops.lock().expect("loop gauges poisoned").clone();
        if !loops.is_empty() {
            let loop_labels: Vec<String> = (0..loops.len()).map(|i| i.to_string()).collect();
            let by_loop = |pick: fn(&LoopGauges) -> &AtomicU64| {
                loop_labels.iter().zip(&loops).map(move |(label, gauges)| {
                    (
                        [("loop", label.as_str())],
                        pick(gauges).load(Ordering::Relaxed) as f64,
                    )
                })
            };
            prom.gauge(
                "samm_loop_connections",
                "Open connections, by event loop.",
                by_loop(|g| &g.connections),
            );
            prom.gauge(
                "samm_loop_inflight",
                "Requests dispatched and not yet answered, by event loop.",
                by_loop(|g| &g.inflight),
            );
            prom.counter(
                "samm_loop_answered_total",
                "Requests the event loop answered itself, without a worker, by event loop.",
                by_loop(|g| &g.answered),
            );
        }

        // Fleet view (absent until the first metrics_cluster fan-out).
        let fleet = self.fleet.lock().expect("fleet poisoned").clone();
        if !fleet.is_empty() {
            prom.gauge(
                "samm_fleet_node_up",
                "Whether the node answered the last metrics_cluster fan-out.",
                fleet
                    .iter()
                    .map(|(node, s)| ([("node", node.as_str())], if s.up { 1.0 } else { 0.0 })),
            );
            prom.gauge(
                "samm_fleet_node_requests",
                "Requests each node reported in the last metrics_cluster fan-out.",
                fleet
                    .iter()
                    .map(|(node, s)| ([("node", node.as_str())], s.requests as f64)),
            );
        }

        // Cluster membership (absent outside cluster mode).
        if let Some(snapshot) = cluster {
            prom.gauge(
                "samm_cluster_self_info",
                "This node's id (always 1; the id is the label).",
                [([("node", snapshot.self_id.as_str())], 1.0)],
            );
            prom.gauge(
                "samm_cluster_node_up",
                "Cluster member liveness under this node's view (1 = alive).",
                snapshot
                    .nodes
                    .iter()
                    .map(|(id, alive)| ([("node", id.as_str())], if *alive { 1.0 } else { 0.0 })),
            );
        }

        let obs = self.obs_agg.snapshot();
        prom.counter(
            "samm_closure_rule_applications_total",
            "Store Atomicity closure-rule edge insertions (paper Figure 6), by rule.",
            [
                ([("rule", "a")], obs.rule_a as f64),
                ([("rule", "b")], obs.rule_b as f64),
                ([("rule", "c")], obs.rule_c as f64),
            ],
        );
        prom.counter(
            "samm_closure_rounds_total",
            "Store Atomicity fixpoint rounds across fresh enumerations.",
            [([], obs.closure_rounds as f64)],
        );
        prom.counter(
            "samm_candidate_calls_total",
            "candidates(L) queries across fresh enumerations.",
            [([], obs.candidate_calls as f64)],
        );
        prom.counter(
            "samm_candidate_stores_total",
            "Candidate stores returned across fresh enumerations.",
            [([], obs.candidate_stores as f64)],
        );
        prom.counter(
            "samm_enum_explored_total",
            "Behaviours explored by fresh enumerations.",
            [([], self.enum_explored.load(Ordering::Relaxed) as f64)],
        );
        prom.counter(
            "samm_enum_forks_total",
            "Forks attempted by fresh enumerations.",
            [([], self.enum_forks.load(Ordering::Relaxed) as f64)],
        );
        prom.counter(
            "samm_enum_deduped_total",
            "Forks discarded as duplicates by fresh enumerations.",
            [([], self.enum_deduped.load(Ordering::Relaxed) as f64)],
        );

        prom.counter(
            "samm_robust_verdicts_total",
            "Delay-set robustness verdicts answered by certify requests, by verdict.",
            ROBUST_VERDICT_NAMES
                .iter()
                .zip(&self.robust_verdicts)
                .map(|(verdict, n)| ([("verdict", *verdict)], n.load(Ordering::Relaxed) as f64)),
        );
        prom.counter(
            "samm_slow_queries_total",
            "Requests at or over the slow-query threshold.",
            [([], self.slow_total.load(Ordering::Relaxed) as f64)],
        );
        let last = self
            .last_slow_id
            .lock()
            .expect("slow id poisoned")
            .clone()
            .unwrap_or_default();
        prom.gauge(
            "samm_slow_last_request_info",
            "Id of the most recent slow query (always 1; the id is the label).",
            [([("id", last.as_str())], 1.0)],
        );
        prom.render()
    }
}

/// The one place the server finishes a span. Without a span log the
/// span is dropped. Otherwise spans shorter than the slow threshold are
/// dropped and the rest are written. A child never outlasts its parent,
/// so the written set is upward-closed: a written span's in-process
/// parent is written too. Written server-kind spans (requests and batch
/// slots) also count as slow queries.
impl SpanSink for Telemetry {
    fn record_span(&self, span: SpanRecord) {
        let Some(log) = &self.spans else { return };
        if span.dur_ns < self.slow_ns {
            return;
        }
        if span.kind == SpanKind::Server {
            self.slow_total.fetch_add(1, Ordering::Relaxed);
            if let Some(Attr::Str(id)) = span.attr("id") {
                *self.last_slow_id.lock().expect("slow id poisoned") = Some(id.clone());
            }
        }
        log.record_span(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samm_core::telemetry::prom;
    use samm_core::telemetry::trace::TraceRing;

    #[test]
    fn classify_reads_responses() {
        let hit = Json::obj([("ok", Json::Bool(true)), ("cache_hit", Json::Bool(true))]);
        let miss = Json::obj([("ok", Json::Bool(true)), ("cache_hit", Json::Bool(false))]);
        let fresh = Json::obj([("ok", Json::Bool(true))]);
        let over = Json::obj([
            ("ok", Json::Bool(false)),
            ("error", Json::obj([("kind", Json::str("overbudget"))])),
        ]);
        let other = Json::obj([
            ("ok", Json::Bool(false)),
            ("error", Json::obj([("kind", Json::str("unknown-test"))])),
        ]);
        assert_eq!(ReqOutcome::classify(&hit), ReqOutcome::Hit);
        assert_eq!(ReqOutcome::classify(&miss), ReqOutcome::Miss);
        assert_eq!(ReqOutcome::classify(&fresh), ReqOutcome::Miss);
        assert_eq!(ReqOutcome::classify(&over), ReqOutcome::Overbudget);
        assert_eq!(ReqOutcome::classify(&other), ReqOutcome::Error);
    }

    #[test]
    fn exposition_passes_the_checker() {
        let telemetry = Telemetry::default();
        telemetry.record(0, ReqOutcome::Miss, Duration::from_millis(3));
        telemetry.record(0, ReqOutcome::Hit, Duration::from_micros(5));
        telemetry.record(1, ReqOutcome::Overbudget, Duration::from_millis(40));
        telemetry.record(2, ReqOutcome::Error, Duration::from_micros(1));
        telemetry.record_robust_verdict("robust");
        telemetry.record_robust_verdict("cycle");
        telemetry.record_robust_verdict("robust");
        telemetry.batch_sizes.record(3);
        telemetry.forward_hops.record(0);
        telemetry.forward_hops.record(1);
        telemetry.note_forward("node-b");
        telemetry.singleflight_waits.fetch_add(2, Ordering::Relaxed);
        telemetry.update_fleet([
            (
                "node-a".to_owned(),
                FleetSample {
                    up: true,
                    requests: 12,
                },
            ),
            (
                "node-b".to_owned(),
                FleetSample {
                    up: false,
                    requests: 0,
                },
            ),
        ]);
        let gauges = telemetry.register_loop();
        gauges.connections.fetch_add(4, Ordering::Relaxed);
        gauges.answered.fetch_add(3, Ordering::Relaxed);
        telemetry.overloaded.fetch_add(7, Ordering::Relaxed);
        let shards = vec![
            ShardStats {
                entries: 2,
                hits: 5,
                misses: 1,
            },
            ShardStats {
                entries: 0,
                hits: 0,
                misses: 3,
            },
        ];
        let snapshot = ClusterSnapshot {
            self_id: "node-a".to_owned(),
            nodes: vec![("node-a".to_owned(), true), ("node-b".to_owned(), false)],
        };
        let text = telemetry.render_prom(&CacheStats::default(), &shards, Some(&snapshot));
        let summary = prom::check(&text).expect("valid exposition");
        for family in [
            "samm_requests_total",
            "samm_monitoring_requests_total",
            "samm_overloaded_total",
            "samm_queue_depth",
            "samm_request_latency_seconds",
            "samm_cache_hits_total",
            "samm_cache_shard_entries",
            "samm_cache_shard_hits_total",
            "samm_cache_shard_misses_total",
            "samm_batch_size",
            "samm_forward_hops",
            "samm_forwards_total",
            "samm_forward_fallbacks_total",
            "samm_singleflight_waits_total",
            "samm_peer_forwards_total",
            "samm_fleet_node_up",
            "samm_fleet_node_requests",
            "samm_loop_connections",
            "samm_loop_inflight",
            "samm_loop_answered_total",
            "samm_cluster_self_info",
            "samm_cluster_node_up",
            "samm_closure_rule_applications_total",
            "samm_robust_verdicts_total",
            "samm_slow_queries_total",
            "samm_slow_last_request_info",
        ] {
            assert!(summary.has_family(family), "missing {family}:\n{text}");
        }
        assert!(text.contains("samm_overloaded_total 7"));
        assert!(text.contains("samm_cache_shard_hits_total{shard=\"0\"} 5"));
        assert!(text.contains("samm_peer_forwards_total{peer=\"node-b\"} 1"));
        assert!(text.contains("samm_cluster_node_up{node=\"node-b\"} 0"));
        assert!(text.contains("samm_loop_connections{loop=\"0\"} 4"));
        assert!(text.contains("samm_loop_answered_total{loop=\"0\"} 3"));
        assert!(text.contains("samm_batch_size_count 1"));
        assert!(text.contains("samm_robust_verdicts_total{verdict=\"robust\"} 2"));
        assert!(text.contains("samm_robust_verdicts_total{verdict=\"cycle\"} 1"));
        assert!(text.contains("samm_fleet_node_requests{node=\"node-a\"} 12"));
        assert!(text.contains("samm_fleet_node_up{node=\"node-b\"} 0"));
    }

    #[test]
    fn histogram_snapshots_round_trip_through_json() {
        let histogram = Histogram::default();
        for v in [1u64, 700, 700, 9_000, 1_000_000] {
            histogram.record(v);
        }
        let snap = histogram.snapshot();
        let rendered = snapshot_to_json(&snap).to_string();
        let parsed =
            snapshot_from_json(&crate::json::parse(&rendered).unwrap()).expect("round trip");
        assert_eq!(parsed, snap);
        // Merging two round-tripped snapshots matches merging the originals.
        let mut merged = parsed.clone();
        merged.merge(&snap);
        assert_eq!(merged.count, 2 * snap.count);
        assert_eq!(merged.sum, 2 * snap.sum);
        // Malformed shapes degrade to None.
        for bad in [
            r#"{"count":1,"sum":2}"#,
            r#"{"count":1,"sum":2,"max":3,"buckets":"x"}"#,
            r#"{"count":1,"sum":2,"max":3,"buckets":[1,"x"]}"#,
            r#"[]"#,
        ] {
            assert!(
                snapshot_from_json(&crate::json::parse(bad).unwrap()).is_none(),
                "{bad}"
            );
        }
    }

    fn span(span: u64, parent: u64, name: &'static str, kind: SpanKind, dur_ms: u64) -> SpanRecord {
        SpanRecord {
            trace: 7,
            span,
            parent,
            name,
            kind,
            start_unix_ns: 0,
            dur_ns: dur_ms * 1_000_000,
            attrs: vec![("id", Attr::Str(format!("s{span}")))],
        }
    }

    /// Telemetry whose span log is a ring the test can read back.
    fn ring_telemetry(slow: Duration) -> (Telemetry, Arc<TraceRing>) {
        let ring = Arc::new(TraceRing::new(64));
        let telemetry = Telemetry::new(Some(Arc::clone(&ring) as Arc<dyn SpanSink>), slow);
        (telemetry, ring)
    }

    fn last_slow_id(telemetry: &Telemetry) -> Option<String> {
        telemetry.last_slow_id.lock().unwrap().clone()
    }

    #[test]
    fn slow_threshold_filters_spans_and_counts_server_spans() {
        let (telemetry, ring) = ring_telemetry(Duration::from_millis(5));
        // A batch (span 1) with a slow slot (2) over a slow engine phase
        // (4), a fast slot (3), and a forward (5) of exactly the
        // threshold. Children finish first, as on the request path.
        telemetry.record_span(span(4, 2, "enumerate", SpanKind::Internal, 6));
        telemetry.record_span(span(2, 1, "sub", SpanKind::Server, 7));
        telemetry.record_span(span(3, 1, "sub", SpanKind::Server, 4));
        telemetry.record_span(span(5, 1, "forward", SpanKind::Client, 5));
        telemetry.record_span(span(1, 0, "server", SpanKind::Server, 9));

        let written: Vec<u64> = ring.snapshot().iter().map(|s| s.span).collect();
        assert_eq!(
            written,
            vec![4, 2, 5, 1],
            "only spans under 5 ms are dropped"
        );
        // The slow slot's batch span is written and carries the batch id.
        let spans = ring.snapshot();
        let slot = spans.iter().find(|s| s.span == 2).unwrap();
        let batch = spans.iter().find(|s| s.span == slot.parent).unwrap();
        assert_eq!(batch.attr("id"), Some(&Attr::Str("s1".to_owned())));
        // Only the two written server-kind spans are slow queries; the
        // written forward and engine spans are not.
        assert_eq!(telemetry.slow_total.load(Ordering::Relaxed), 2);
        assert_eq!(last_slow_id(&telemetry).as_deref(), Some("s1"));

        // A written internal span moves neither counter.
        telemetry.record_span(span(6, 1, "enumerate", SpanKind::Internal, 8));
        assert_eq!(ring.recorded(), 5);
        assert_eq!(telemetry.slow_total.load(Ordering::Relaxed), 2);
        assert_eq!(last_slow_id(&telemetry).as_deref(), Some("s1"));
    }

    #[test]
    fn without_a_span_log_nothing_counts_as_slow() {
        let telemetry = Telemetry::new(None, Duration::ZERO);
        telemetry.record_span(span(1, 0, "server", SpanKind::Server, 9));
        assert_eq!(telemetry.slow_total.load(Ordering::Relaxed), 0);
        assert_eq!(last_slow_id(&telemetry), None);
    }

    #[test]
    fn span_log_reaches_the_batch_id_through_the_parent_span() {
        use crate::handler::{handle_envelope, ServerState};
        use samm_core::cache::EnumCache;

        let (telemetry, ring) = ring_telemetry(Duration::ZERO);
        let state = ServerState::with_telemetry(EnumCache::new(64), None, telemetry);
        let envelope = crate::protocol::parse_envelope(
            r#"{"kind":"batch","id":"b1","requests":[
                {"kind":"enumerate","test":"SB","model":"TSO"},
                {"kind":"verdict","test":"MP","id":"mine"}]}"#,
        )
        .unwrap();
        let response = handle_envelope(&state, &envelope);
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));

        let spans = ring.snapshot();
        let id = |s: &SpanRecord| match s.attr("id") {
            Some(Attr::Str(id)) => id.clone(),
            other => panic!("server spans carry an id, got {other:?}"),
        };
        let batch = spans.iter().find(|s| s.name == "server").unwrap();
        assert_eq!(id(batch), "b1");
        let mut slots: Vec<String> = spans
            .iter()
            .filter(|s| s.name == "sub")
            .map(|s| {
                assert_eq!(s.parent, batch.span, "a slot's parent is its batch");
                id(s)
            })
            .collect();
        slots.sort();
        assert_eq!(slots, vec!["b1.0", "mine"]);
        // Threshold zero: the batch and both slots are slow queries.
        assert_eq!(state.telemetry.slow_total.load(Ordering::Relaxed), 3);
        assert_eq!(last_slow_id(&state.telemetry).as_deref(), Some("b1"));
    }

    #[test]
    fn unknown_robust_verdict_names_are_ignored() {
        let telemetry = Telemetry::default();
        telemetry.record_robust_verdict("nonsense");
        assert!(telemetry
            .robust_verdicts
            .iter()
            .all(|v| v.load(Ordering::Relaxed) == 0));
    }

    #[test]
    fn fold_stats_aggregates_obs() {
        use samm_core::obs::ObsStats;
        let telemetry = Telemetry::default();
        let stats = EnumStats {
            explored: 5,
            forks: 9,
            deduped: 2,
            obs: Some(ObsStats {
                rule_a: 3,
                rule_b: 1,
                rule_c: 4,
                ..ObsStats::default()
            }),
            ..EnumStats::default()
        };
        telemetry.fold_stats(&stats);
        telemetry.fold_stats(&stats);
        let snap = telemetry.obs_agg.snapshot();
        assert_eq!(snap.rule_a, 6);
        assert_eq!(snap.rule_b, 2);
        assert_eq!(snap.rule_c, 8);
        assert_eq!(telemetry.enum_forks.load(Ordering::Relaxed), 18);
        assert_eq!(telemetry.enum_deduped.load(Ordering::Relaxed), 4);
    }
}
