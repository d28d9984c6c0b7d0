//! Request execution: turns a parsed [`Request`] into a response
//! [`Json`] against shared server state.
//!
//! Every enumeration-backed request is answered through the
//! content-addressed [`EnumCache`], so repeated queries for the same
//! (program, policy, config) fingerprint cost a hash lookup instead of a
//! fresh enumeration. Witness/refutation requests run fresh — their
//! artifacts are path-dependent and are not cached.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use samm_analyze::robust::StaticVerdict;
use samm_core::cache::{cached_enumerate, EnumCache};
use samm_core::enumerate::EnumConfig;
use samm_core::error::EnumError;
use samm_core::explain::{find_witness, refute, Goal, Refutation, RefuteOutcome};
use samm_core::outcome::{Outcome, OutcomeSet};
use samm_core::pruned::enumerate_pruned;
use samm_core::telemetry::trace::{ActiveSpan, SpanKind, SpanSink, TraceContext};
use samm_core::telemetry::HistogramSnapshot;
use samm_litmus::catalog::{self, CatalogEntry, ModelSel};
use samm_litmus::expect::{run_entry_cached, EntryReport};

use crate::cluster::Cluster;
use crate::json::Json;
use crate::protocol::{Envelope, ErrorKind, Request, ServiceError, ENGINE};
use crate::telemetry::{
    kind_index, snapshot_from_json, snapshot_to_json, FleetSample, ReqOutcome, Telemetry,
    KIND_NAMES,
};

/// State shared by every worker: the enumeration cache, the default
/// fork budget, and the telemetry block.
#[derive(Debug)]
pub struct ServerState {
    /// The content-addressed enumeration cache.
    pub cache: EnumCache,
    /// Fork budget applied to requests that do not carry their own.
    pub default_budget: Option<u64>,
    /// Request/error/overload counters, latency histograms, rates, obs
    /// aggregation, span log.
    pub telemetry: Telemetry,
    /// Whether enumerations run instrumented
    /// ([`EnumConfig::observe`]), feeding the aggregated closure-rule
    /// counters. One server-wide setting so cache keys stay uniform.
    pub observe: bool,
    /// Cluster membership and peer pools when serving in cluster mode.
    pub cluster: Option<Arc<Cluster>>,
    /// Single-flight table: fingerprints with an enumeration currently
    /// running, so identical concurrent queries wait for the leader's
    /// cache insert instead of duplicating the work.
    flights: Mutex<HashMap<u128, Arc<Flight>>>,
    /// Pre-rendered `outcomes`/`stats` response fragments keyed by
    /// fingerprint: the expensive parts of a warm enumerate response
    /// are identical on every hit, so they are rendered once and
    /// spliced as [`Json::Raw`] afterwards.
    rendered: Mutex<HashMap<u128, RenderedResult>>,
}

/// The fingerprint-invariant parts of an enumerate response, rendered.
#[derive(Debug, Clone)]
struct RenderedResult {
    outcomes: String,
    stats: String,
    outcome_count: usize,
    executions: usize,
}

/// Bound on [`ServerState::rendered`]: above this the memo is cleared
/// wholesale (entries re-render on their next hit). The enumerate
/// cache evicts on its own schedule, so precise mirroring is not worth
/// the bookkeeping — the memo just has to stay bounded.
const RENDERED_CAP: usize = 8192;

/// One in-flight enumeration other requests can wait on.
#[derive(Debug, Default)]
struct Flight {
    done: Mutex<bool>,
    finished: Condvar,
}

impl Flight {
    fn finish(&self) {
        *self.done.lock().expect("flight poisoned") = true;
        self.finished.notify_all();
    }

    fn wait(&self) {
        let mut done = self.done.lock().expect("flight poisoned");
        while !*done {
            done = self.finished.wait(done).expect("flight poisoned");
        }
    }
}

impl ServerState {
    /// Builds state with a cache of the given geometry, default
    /// telemetry (no span log), and instrumentation on.
    pub fn new(cache: EnumCache, default_budget: Option<u64>) -> Self {
        ServerState::with_telemetry(cache, default_budget, Telemetry::default(), true)
    }

    /// Builds state with explicit telemetry and instrumentation
    /// settings.
    pub fn with_telemetry(
        cache: EnumCache,
        default_budget: Option<u64>,
        telemetry: Telemetry,
        observe: bool,
    ) -> Self {
        ServerState {
            cache,
            default_budget,
            telemetry,
            observe,
            cluster: None,
            flights: Mutex::new(HashMap::new()),
            rendered: Mutex::new(HashMap::new()),
        }
    }

    /// Attaches cluster membership; enumerate-backed requests are then
    /// routed through the consistent-hash ring.
    pub fn set_cluster(&mut self, cluster: Arc<Cluster>) {
        self.cluster = Some(cluster);
    }

    /// The enumeration configuration for one request: server defaults,
    /// request budget override, executions never kept (only outcome
    /// sets travel over the wire).
    pub(crate) fn config(&self, budget: Option<u64>) -> EnumConfig {
        EnumConfig::builder()
            .keep_executions(false)
            .observe(self.observe)
            .budget(budget.or(self.default_budget))
            .build()
    }

    /// Renders the Prometheus exposition for the current state.
    pub fn render_prom(&self) -> String {
        let snapshot = self.cluster.as_ref().map(|c| c.snapshot());
        self.telemetry.render_prom(
            &self.cache.stats(),
            &self.cache.shard_stats(),
            snapshot.as_ref(),
        )
    }
}

/// Executes one request with a server-assigned request id. Never panics
/// on bad input: failures come back as `{"ok":false,"error":{...}}`
/// objects. `Shutdown` is answered with a plain ok — the connection
/// loop, not this function, performs the drain.
pub fn handle(state: &ServerState, request: &Request) -> Json {
    handle_traced(state, request, None)
}

/// As [`handle`], echoing `id` (or a server-assigned one) in the
/// response and recording latency telemetry: per-kind histograms split
/// by hit/miss/overbudget, the request-rate window, and the span log.
pub fn handle_traced(state: &ServerState, request: &Request, id: Option<&str>) -> Json {
    handle_inner(state, request, id, false, true, None)
}

/// Executes a parsed envelope: as [`handle_traced`], honouring the
/// envelope's `fwd` marker (a forwarded request is answered locally,
/// never re-forwarded) and its propagated `trace` context. The entry
/// point cluster-aware servers use.
pub fn handle_envelope(state: &ServerState, envelope: &Envelope) -> Json {
    handle_inner(
        state,
        &envelope.request,
        envelope.id.as_deref(),
        envelope.fwd,
        true,
        envelope.trace,
    )
}

/// Executes one sub-request of a batch: per-kind latency telemetry and
/// the span log still apply, but the top-level `requests` counter does
/// not — the batch line was already counted once. `id` is the slot's
/// effective id (the client's, or a `{parent}.{slot}` child id derived
/// by the batch layer) and `ctx` the batch span's context, so the
/// slot's `sub` span is a child of the batch's `server` span, which
/// carries the batch id. A sub-envelope's own `trace` field, when
/// present, wins over `ctx`.
pub(crate) fn handle_sub(
    state: &ServerState,
    envelope: &Envelope,
    fwd: bool,
    id: &str,
    ctx: Option<TraceContext>,
) -> Json {
    handle_inner(
        state,
        &envelope.request,
        Some(id),
        fwd,
        false,
        envelope.trace.or(ctx),
    )
}

fn handle_inner(
    state: &ServerState,
    request: &Request,
    id: Option<&str>,
    fwd: bool,
    top_level: bool,
    ctx: Option<TraceContext>,
) -> Json {
    let id = id.map_or_else(|| state.telemetry.ids.next_id(), str::to_owned);
    let kind = kind_index(request);
    match (kind, request) {
        (Some(_), _) | (None, Request::Shutdown) => {
            // Batch sub-requests are not re-counted: the batch line
            // itself was counted once at the top level.
            if top_level {
                state.telemetry.requests.fetch_add(1, Ordering::Relaxed);
            }
        }
        (None, _) => {
            // Monitoring traffic is tallied even inside batches — the
            // split exists so self-observation never skews `requests`.
            state.telemetry.monitoring.fetch_add(1, Ordering::Relaxed);
        }
    };
    // A server span per latency-tracked request — skipped entirely when
    // tracing is off (no sink configured AND no propagated context), so
    // the untraced path pays nothing. With a context but no sink, span
    // ids still flow downstream so remote parentage stays intact.
    // Monitoring/control kinds are never spanned: a polling samm-top
    // must not flood the trace log.
    let mut span = if kind.is_some() && (state.telemetry.spans.is_some() || ctx.is_some()) {
        let mut span = match ctx {
            Some(ctx) => ActiveSpan::continue_trace(
                ctx,
                if top_level { "server" } else { "sub" },
                SpanKind::Server,
            ),
            None => ActiveSpan::root("server", SpanKind::Server),
        };
        if let Some(k) = kind {
            span.attr("req", KIND_NAMES[k]);
        }
        if fwd {
            span.attr("fwd", true);
        }
        if let Some(cluster) = &state.cluster {
            span.attr("node", cluster.self_id().to_owned());
        }
        Some(span)
    } else {
        None
    };
    let started = Instant::now();
    let result = match request {
        Request::Enumerate {
            test,
            model,
            budget,
        } => enumerate_response(state, test, model, *budget, fwd, span.as_ref()),
        Request::Batch(subs) => Ok(crate::batch::execute(state, subs, fwd, &id, span.as_ref())),
        Request::Verdict { test, budget } => verdict_response(state, test, *budget),
        Request::Witness {
            test,
            model,
            condition,
            budget,
        } => witness_response(state, test, model, *condition, *budget),
        Request::Refutation {
            test,
            model,
            condition,
            budget,
        } => refutation_response(state, test, model, *condition, *budget),
        Request::Certify {
            test,
            model,
            robust,
        } => certify_response(state, test, model, *robust),
        Request::Metrics => Ok(metrics_response(state)),
        Request::MetricsCluster => Ok(metrics_cluster_response(state, fwd)),
        Request::MetricsProm => Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("kind", Json::str("metrics_prom")),
            ("text", Json::str(state.render_prom())),
        ])),
        Request::Shutdown => Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("kind", Json::str("shutdown")),
        ])),
    };
    let mut response = match result {
        Ok(response) => response,
        Err(err) => error_response(state, &err),
    };
    let elapsed = started.elapsed();
    if let Some(kind) = kind {
        let outcome = ReqOutcome::classify(&response);
        state.telemetry.record(kind, outcome, elapsed);
        if let Some(span) = &mut span {
            span.attr("outcome", outcome.label());
            span.attr("id", id.clone());
        }
    }
    if let Some(span) = span {
        span.finish(&state.telemetry);
    }
    if let Json::Obj(map) = &mut response {
        map.insert("id".to_owned(), Json::str(id));
    }
    response
}

/// Renders `err` as a response, counting it.
pub fn error_response(state: &ServerState, err: &ServiceError) -> Json {
    state.telemetry.errors.fetch_add(1, Ordering::Relaxed);
    err.to_response()
}

/// The catalog is immutable for the life of the process; building it
/// runs every litmus builder (~100µs), so memoize it once instead of
/// reconstructing it on every request.
fn cached_catalog() -> &'static [CatalogEntry] {
    static CATALOG: OnceLock<Vec<CatalogEntry>> = OnceLock::new();
    CATALOG.get_or_init(catalog::all)
}

pub(crate) fn find_entry(name: &str) -> Result<&'static CatalogEntry, ServiceError> {
    cached_catalog()
        .iter()
        .find(|e| e.test.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            ServiceError::new(
                ErrorKind::UnknownTest,
                format!("no catalog entry named '{name}'"),
            )
        })
}

pub(crate) fn find_model(name: &str) -> Result<ModelSel, ServiceError> {
    ModelSel::ALL
        .into_iter()
        .find(|m| m.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let known: Vec<&str> = ModelSel::ALL.iter().map(|m| m.name()).collect();
            ServiceError::new(
                ErrorKind::UnknownModel,
                format!("no model named '{name}' (known: {})", known.join(", ")),
            )
        })
}

fn enum_error(err: EnumError) -> ServiceError {
    match err {
        EnumError::Overbudget { budget, forks } => ServiceError::new(
            ErrorKind::Overbudget,
            format!("fork budget {budget} exhausted after {forks} forks"),
        ),
        other => ServiceError::new(ErrorKind::EnumFailed, other.to_string()),
    }
}

fn condition_goal(entry: &CatalogEntry, condition: usize) -> Result<(Goal, String), ServiceError> {
    let cond = entry.test.conditions.get(condition).ok_or_else(|| {
        ServiceError::new(
            ErrorKind::Malformed,
            format!(
                "test '{}' has {} condition(s); index {condition} is out of range",
                entry.test.name,
                entry.test.conditions.len()
            ),
        )
    })?;
    Ok((Goal::new(cond.clauses.clone()), cond.text.clone()))
}

fn outcomes_json(outcomes: &OutcomeSet) -> Json {
    let render = |o: &Outcome| {
        Json::Arr(
            (0..o.thread_count())
                .map(|t| {
                    Json::Arr(
                        o.thread_regs(t)
                            .iter()
                            .map(|v| Json::num(v.raw() as f64))
                            .collect(),
                    )
                })
                .collect(),
        )
    };
    Json::Arr(outcomes.iter().map(render).collect())
}

fn enumerate_response(
    state: &ServerState,
    test: &str,
    model: &str,
    budget: Option<u64>,
    fwd: bool,
    span: Option<&ActiveSpan>,
) -> Result<Json, ServiceError> {
    let entry = find_entry(test)?;
    let sel = find_model(model)?;
    let policy = sel.policy();
    let config = state.config(budget);
    let fp = samm_core::fingerprint::query_fingerprint(&entry.test.program, &policy, &config);

    // Cluster routing: keys owned elsewhere are forwarded — unless this
    // request was itself forwarded here (`fwd`), the key is already in
    // the local cache, or the owner is unreachable (fallback below).
    if let Some(cluster) = state.cluster.as_ref().filter(|_| !fwd) {
        let owner = cluster.owner_of(fp);
        if cluster.node_id(owner) != cluster.self_id() && !state.cache.contains(fp) {
            // The forward span is the parent the owning peer continues
            // under: its context travels in the envelope's trace field.
            let fwd_span = span.map(|s| s.child("forward", SpanKind::Client));
            let env = Envelope {
                id: None,
                request: Request::Enumerate {
                    test: test.to_owned(),
                    model: model.to_owned(),
                    budget,
                },
                fwd: true,
                trace: fwd_span.as_ref().map(ActiveSpan::context),
            };
            match cluster.forward(owner, &env) {
                Some(mut response) => {
                    state.telemetry.note_forward(cluster.node_id(owner));
                    state.telemetry.forward_hops.record(1);
                    if let Json::Obj(map) = &mut response {
                        map.insert("forwarded".to_owned(), Json::Bool(true));
                    }
                    if let Some(mut fs) = fwd_span {
                        fs.attr("peer", cluster.node_id(owner).to_owned());
                        fs.attr("ok", true);
                        fs.finish(&state.telemetry);
                    }
                    return Ok(response);
                }
                None => {
                    state
                        .telemetry
                        .forward_fallbacks
                        .fetch_add(1, Ordering::Relaxed);
                    if let Some(mut fs) = fwd_span {
                        fs.attr("peer", cluster.node_id(owner).to_owned());
                        fs.attr("ok", false);
                        fs.finish(&state.telemetry);
                    }
                }
            }
        }
    }
    if state.cluster.is_some() && !fwd {
        state.telemetry.forward_hops.record(0);
    }

    let work_span = span.map(|s| s.child("enumerate", SpanKind::Internal));
    // The cache keeps only the deterministic counters; the phase spans
    // need this run's own timers.
    let mut run_obs = None;
    // Single-flight: one leader per fingerprint enumerates; identical
    // concurrent queries wait for its cache insert and then hit.
    let (value, hit) = loop {
        let flight = {
            let mut flights = state.flights.lock().expect("flights poisoned");
            match flights.get(&fp.raw()) {
                Some(flight) => Some(Arc::clone(flight)),
                None => {
                    flights.insert(fp.raw(), Arc::new(Flight::default()));
                    None
                }
            }
        };
        if let Some(flight) = flight {
            state
                .telemetry
                .singleflight_waits
                .fetch_add(1, Ordering::Relaxed);
            flight.wait();
            // Leader finished: retry. A successful leader filled the
            // cache (hit); a failed one left it empty and this waiter
            // becomes the next leader.
            continue;
        }
        let outcome = cached_enumerate(
            &state.cache,
            &entry.test.program,
            &policy,
            &config,
            |program, policy, config| {
                let result = enumerate_pruned(program, policy, config);
                run_obs = result.as_ref().ok().and_then(|r| r.stats.obs);
                result
            },
        );
        let flight = state
            .flights
            .lock()
            .expect("flights poisoned")
            .remove(&fp.raw());
        if let Some(flight) = flight {
            flight.finish();
        }
        break outcome.map_err(enum_error)?;
    };
    if !hit {
        state.telemetry.fold_stats(&value.stats);
    }
    // A cache hit never records its work span: it would time nothing
    // but the cache probe, and the server span's `outcome` attribute
    // already says "hit". Dropping it keeps warm traced traffic cheap
    // and keeps trace logs proportional to work done, not requests
    // served. A fresh run decomposes into the engine's measured phases:
    // the disjoint obs timers become synthetic child spans, so a
    // flamegraph attributes the miss cost to closure/settle/resolve
    // work.
    if !hit {
        if let Some(mut ws) = work_span {
            ws.attr("engine", ENGINE);
            ws.attr("explored", value.stats.explored as u64);
            ws.attr("forks", value.stats.forks as u64);
            ws.attr("deduped", value.stats.deduped as u64);
            if let Some(obs) = &run_obs {
                for (name, nanos, count_key, count) in [
                    (
                        "phase:closure",
                        obs.closure_nanos,
                        "rounds",
                        obs.closure_rounds,
                    ),
                    (
                        "phase:settle",
                        obs.settle_nanos,
                        "calls",
                        obs.candidate_calls,
                    ),
                    (
                        "phase:resolve",
                        obs.resolve_nanos,
                        "stores",
                        obs.candidate_stores,
                    ),
                ] {
                    if nanos > 0 || count > 0 {
                        state.telemetry.record_span(ws.synthetic_child(
                            name,
                            nanos,
                            vec![(count_key, count.into())],
                        ));
                    }
                }
            }
            ws.finish(&state.telemetry);
        }
    }
    // The outcomes/stats fragments are fingerprint-invariant and
    // dominate the response; render them once per key and splice the
    // memoized strings on subsequent hits.
    let fragments = {
        let mut rendered = state.rendered.lock().expect("rendered poisoned");
        match rendered.get(&fp.raw()) {
            Some(found) => found.clone(),
            None => {
                if rendered.len() >= RENDERED_CAP {
                    rendered.clear();
                }
                let fresh = RenderedResult {
                    outcomes: outcomes_json(&value.outcomes).to_string(),
                    stats: value.stats.to_json(),
                    outcome_count: value.outcomes.len(),
                    executions: value.distinct_executions(),
                };
                rendered.insert(fp.raw(), fresh.clone());
                fresh
            }
        }
    };
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("kind", Json::str("enumerate")),
        ("test", Json::str(entry.test.name.clone())),
        ("model", Json::str(sel.name())),
        ("engine", Json::str(ENGINE)),
        ("cache_hit", Json::Bool(hit)),
        ("outcome_count", Json::num(fragments.outcome_count as f64)),
        ("executions", Json::num(fragments.executions as f64)),
        ("outcomes", Json::Raw(fragments.outcomes)),
        ("stats", Json::Raw(fragments.stats)),
    ];
    if let Some(cluster) = &state.cluster {
        fields.push(("node", Json::str(cluster.self_id())));
    }
    Ok(Json::obj(fields))
}

fn report_json(report: &EntryReport) -> Json {
    let rows = report
        .rows
        .iter()
        .map(|row| {
            Json::obj([
                ("model", Json::str(row.model.name())),
                ("condition", Json::str(row.condition.clone())),
                ("expected_allowed", Json::Bool(row.expected_allowed)),
                ("observed_allowed", Json::Bool(row.observed_allowed)),
                ("pass", Json::Bool(row.pass())),
                ("outcomes", Json::num(row.outcomes as f64)),
                ("executions", Json::num(row.executions as f64)),
                ("certified", Json::Bool(row.certified)),
                ("cache_hit", Json::Bool(row.cache_hit)),
            ])
        })
        .collect();
    Json::obj([
        ("name", Json::str(report.name.clone())),
        ("all_pass", Json::Bool(report.all_pass())),
        ("rows", Json::Arr(rows)),
    ])
}

fn verdict_response(
    state: &ServerState,
    test: &str,
    budget: Option<u64>,
) -> Result<Json, ServiceError> {
    let entry = find_entry(test)?;
    let config = state.config(budget);
    let report = run_entry_cached(entry, &config, &state.cache).map_err(enum_error)?;
    for row in report.rows.iter().filter(|row| !row.cache_hit) {
        state.telemetry.fold_stats(&row.stats);
    }
    Ok(Json::obj([
        ("ok", Json::Bool(true)),
        ("kind", Json::str("verdict")),
        ("report", report_json(&report)),
    ]))
}

fn witness_response(
    state: &ServerState,
    test: &str,
    model: &str,
    condition: usize,
    budget: Option<u64>,
) -> Result<Json, ServiceError> {
    let entry = find_entry(test)?;
    let policy = find_model(model)?.policy();
    let (goal, text) = condition_goal(entry, condition)?;
    let config = state.config(budget);
    let witness = find_witness(&entry.test.program, &policy, &config, &goal).map_err(enum_error)?;
    Ok(Json::obj([
        ("ok", Json::Bool(true)),
        ("kind", Json::str("witness")),
        ("condition", Json::str(text)),
        ("found", Json::Bool(witness.is_some())),
        (
            "witness",
            witness.map_or(Json::Null, |w| Json::Raw(w.to_json())),
        ),
    ]))
}

fn refutation_response(
    state: &ServerState,
    test: &str,
    model: &str,
    condition: usize,
    budget: Option<u64>,
) -> Result<Json, ServiceError> {
    let entry = find_entry(test)?;
    let policy = find_model(model)?.policy();
    let (goal, text) = condition_goal(entry, condition)?;
    let config = state.config(budget);
    let outcome = refute(&entry.test.program, &policy, &config, &goal).map_err(enum_error)?;
    let (refuted, proof, witness) = match outcome {
        RefuteOutcome::Observable(w) => (false, Json::Null, Json::Raw(w.to_json())),
        RefuteOutcome::Refuted(Refutation::Blocked(b)) => (
            true,
            Json::obj([
                ("kind", Json::str("blocked")),
                ("blocked", Json::Raw(b.to_json())),
            ]),
            Json::Null,
        ),
        RefuteOutcome::Refuted(Refutation::Exhaustive { explored, distinct }) => (
            true,
            Json::obj([
                ("kind", Json::str("exhaustive")),
                ("explored", Json::num(explored as f64)),
                ("distinct", Json::num(distinct as f64)),
            ]),
            Json::Null,
        ),
    };
    Ok(Json::obj([
        ("ok", Json::Bool(true)),
        ("kind", Json::str("refutation")),
        ("condition", Json::str(text)),
        ("refuted", Json::Bool(refuted)),
        ("proof", proof),
        ("witness", witness),
    ]))
}

fn certify_response(
    state: &ServerState,
    test: &str,
    model: &str,
    robust: bool,
) -> Result<Json, ServiceError> {
    let entry = find_entry(test)?;
    let policy = find_model(model)?.policy();
    let certificate = samm_analyze::certify(&entry.test.program, &policy);
    let checked = certificate
        .as_ref()
        .is_some_and(|c| c.check(&entry.test.program, &policy));
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("kind", Json::str("certify")),
        ("certified", Json::Bool(certificate.is_some())),
        ("checked", Json::Bool(checked)),
    ];
    if robust {
        let verdict = samm_analyze::analyze_static(&entry.test.program, &policy);
        state.telemetry.record_robust_verdict(verdict.name());
        // Evidence self-checks: a robustness certificate or critical
        // cycle must revalidate before the client is told about it.
        let robust_checked = match &verdict {
            StaticVerdict::Robust(cert) => cert.check(&entry.test.program, &policy),
            StaticVerdict::CycleFound(cycle) => cycle.check(&entry.test.program, &policy),
            StaticVerdict::Unknown(_) => true,
        };
        fields.push(("robust", Json::str(verdict.name())));
        fields.push(("robust_checked", Json::Bool(robust_checked)));
        match &verdict {
            StaticVerdict::CycleFound(cycle) => {
                fields.push(("cycle", Json::str(cycle.to_string())));
            }
            StaticVerdict::Unknown(reason) => {
                fields.push(("reason", Json::str(reason.to_string())));
            }
            StaticVerdict::Robust(_) => {}
        }
    }
    Ok(Json::obj(fields))
}

fn metrics_response(state: &ServerState) -> Json {
    let telemetry = &state.telemetry;
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("kind", Json::str("metrics")),
        (
            "requests",
            Json::num(telemetry.requests.load(Ordering::Relaxed) as f64),
        ),
        (
            "monitoring",
            Json::num(telemetry.monitoring.load(Ordering::Relaxed) as f64),
        ),
        (
            "errors",
            Json::num(telemetry.errors.load(Ordering::Relaxed) as f64),
        ),
        (
            "overloaded",
            Json::num(telemetry.overloaded.load(Ordering::Relaxed) as f64),
        ),
        ("cache", Json::Raw(state.cache.stats().to_json())),
        ("telemetry", state.telemetry.to_json()),
    ];
    if let Some(cluster) = &state.cluster {
        let snapshot = cluster.snapshot();
        let nodes = snapshot
            .nodes
            .iter()
            .map(|(id, alive)| {
                Json::obj([("id", Json::str(id.clone())), ("alive", Json::Bool(*alive))])
            })
            .collect();
        fields.push((
            "cluster",
            Json::obj([
                ("self", Json::str(snapshot.self_id)),
                ("nodes", Json::Arr(nodes)),
                (
                    "forwards",
                    Json::num(state.telemetry.forwards_ok.load(Ordering::Relaxed) as f64),
                ),
                (
                    "fallbacks",
                    Json::num(state.telemetry.forward_fallbacks.load(Ordering::Relaxed) as f64),
                ),
                (
                    "singleflight_waits",
                    Json::num(state.telemetry.singleflight_waits.load(Ordering::Relaxed) as f64),
                ),
            ]),
        ));
    }
    Json::obj(fields)
}

/// This node's per-kind merged latency snapshots, in wire form.
fn local_kind_snapshots(telemetry: &Telemetry) -> Json {
    Json::obj(
        KIND_NAMES
            .iter()
            .zip(&telemetry.kinds)
            .map(|(name, k)| (*name, snapshot_to_json(&k.merged())))
            .collect::<Vec<_>>(),
    )
}

/// This node's sample of the fleet view.
fn local_node_sample(state: &ServerState) -> Json {
    let node = state.cluster.as_ref().map_or("local", |c| c.self_id());
    Json::obj([
        ("node", Json::str(node)),
        ("up", Json::Bool(true)),
        (
            "requests",
            Json::num(state.telemetry.requests_total() as f64),
        ),
        ("kinds", local_kind_snapshots(&state.telemetry)),
    ])
}

/// A snapshot plus derived quantiles, for the `fleet` section.
fn fleet_kind_json(snap: &HistogramSnapshot) -> Json {
    let ms = 1e-6; // ns -> ms
    let mut rendered = snapshot_to_json(snap);
    if let Json::Obj(map) = &mut rendered {
        map.insert(
            "p50_ms".to_owned(),
            Json::num(snap.quantile(0.50) as f64 * ms),
        );
        map.insert(
            "p99_ms".to_owned(),
            Json::num(snap.quantile(0.99) as f64 * ms),
        );
    }
    rendered
}

/// Answers `metrics_cluster`: this node's per-kind histogram snapshots
/// plus — on the aggregator (`fwd` false) — the same snapshots fanned
/// out from every ring peer, merged into one `fleet` section. The
/// histogram merge is exact and commutative, so the fleet histogram
/// equals the sum of the per-node snapshots it includes; a peer that
/// does not answer appears with `up:false` and contributes nothing.
/// The fan-out also refreshes the cached fleet view behind the
/// `node`-labelled Prometheus families.
fn metrics_cluster_response(state: &ServerState, fwd: bool) -> Json {
    let mut nodes: Vec<Json> = vec![local_node_sample(state)];
    if !fwd {
        if let Some(cluster) = &state.cluster {
            for i in 0..cluster.len() {
                let peer = cluster.node_id(i);
                if peer == cluster.self_id() {
                    continue;
                }
                let env = Envelope {
                    id: None,
                    request: Request::MetricsCluster,
                    fwd: true,
                    trace: None,
                };
                let answered = cluster.forward(i, &env).and_then(|resp| {
                    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
                        return None;
                    }
                    resp.get("nodes")
                        .and_then(Json::as_arr)
                        .and_then(|a| a.first().cloned())
                });
                nodes.push(answered.unwrap_or_else(|| {
                    Json::obj([
                        ("node", Json::str(peer)),
                        ("up", Json::Bool(false)),
                        ("requests", Json::num(0.0)),
                    ])
                }));
            }
        }
    }
    // Fleet merge: bucket-wise addition per kind over answering nodes.
    let mut fleet_requests = 0u64;
    let mut merged: Vec<HistogramSnapshot> = (0..KIND_NAMES.len())
        .map(|_| HistogramSnapshot::default())
        .collect();
    for node in &nodes {
        fleet_requests += node.get("requests").and_then(Json::as_u64).unwrap_or(0);
        if let Some(kinds) = node.get("kinds") {
            for (i, name) in KIND_NAMES.iter().enumerate() {
                if let Some(snap) = kinds.get(name).and_then(snapshot_from_json) {
                    merged[i].merge(&snap);
                }
            }
        }
    }
    if !fwd {
        state
            .telemetry
            .update_fleet(nodes.iter().filter_map(|node| {
                Some((
                    node.get("node")?.as_str()?.to_owned(),
                    FleetSample {
                        up: node.get("up").and_then(Json::as_bool).unwrap_or(false),
                        requests: node.get("requests").and_then(Json::as_u64).unwrap_or(0),
                    },
                ))
            }));
    }
    let fleet_kinds = Json::obj(
        KIND_NAMES
            .iter()
            .zip(&merged)
            .map(|(name, snap)| (*name, fleet_kind_json(snap)))
            .collect::<Vec<_>>(),
    );
    Json::obj([
        ("ok", Json::Bool(true)),
        ("kind", Json::str("metrics_cluster")),
        (
            "node",
            Json::str(state.cluster.as_ref().map_or("local", |c| c.self_id())),
        ),
        ("nodes", Json::Arr(nodes)),
        (
            "fleet",
            Json::obj([
                ("requests", Json::num(fleet_requests as f64)),
                ("kinds", fleet_kinds),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ServerState {
        ServerState::new(EnumCache::new(64), None)
    }

    #[test]
    fn enumerate_hits_cache_on_replay() {
        let state = state();
        let req = Request::Enumerate {
            test: "SB".into(),
            model: "TSO".into(),
            budget: None,
        };
        let cold = handle(&state, &req);
        assert_eq!(cold.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(cold.get("cache_hit").and_then(Json::as_bool), Some(false));
        // The replay is a cache hit with the identical outcome set.
        let warm = handle(
            &state,
            &Request::Enumerate {
                test: "sb".into(),
                model: "tso".into(),
                budget: None,
            },
        );
        assert_eq!(warm.get("cache_hit").and_then(Json::as_bool), Some(true));
        assert_eq!(cold.get("outcomes"), warm.get("outcomes"));
        assert_eq!(cold.get("outcome_count"), warm.get("outcome_count"));
    }

    #[test]
    fn unknown_names_are_classified() {
        let state = state();
        let err = handle(
            &state,
            &Request::Enumerate {
                test: "NoSuchTest".into(),
                model: "TSO".into(),
                budget: None,
            },
        );
        assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            err.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("unknown-test")
        );
        let err = handle(
            &state,
            &Request::Certify {
                test: "SB".into(),
                model: "NoSuchModel".into(),
                robust: false,
            },
        );
        assert_eq!(
            err.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("unknown-model")
        );
        assert_eq!(state.telemetry.errors.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn overbudget_is_a_structured_error() {
        let state = state();
        let err = handle(
            &state,
            &Request::Enumerate {
                test: "IRIW".into(),
                model: "Weak".into(),
                budget: Some(3),
            },
        );
        assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            err.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("overbudget")
        );
        // Errors are never cached: a retry with enough budget succeeds.
        let ok = handle(
            &state,
            &Request::Enumerate {
                test: "IRIW".into(),
                model: "Weak".into(),
                budget: None,
            },
        );
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn verdict_report_passes() {
        let state = state();
        let resp = handle(
            &state,
            &Request::Verdict {
                test: "SB".into(),
                budget: None,
            },
        );
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        let report = resp.get("report").unwrap();
        assert_eq!(report.get("all_pass").and_then(Json::as_bool), Some(true));
        assert_eq!(
            report.get("rows").and_then(Json::as_arr).map(<[Json]>::len),
            Some(6)
        );
    }

    #[test]
    fn witness_and_refutation_agree_with_verdicts() {
        let state = state();
        // SB 0/0 is observable under TSO…
        let w = handle(
            &state,
            &Request::Witness {
                test: "SB".into(),
                model: "TSO".into(),
                condition: 0,
                budget: None,
            },
        );
        assert_eq!(w.get("found").and_then(Json::as_bool), Some(true));
        assert!(w.get("witness").is_some_and(|j| *j != Json::Null));
        // …and refuted under SC.
        let r = handle(
            &state,
            &Request::Refutation {
                test: "SB".into(),
                model: "SC".into(),
                condition: 0,
                budget: None,
            },
        );
        assert_eq!(r.get("refuted").and_then(Json::as_bool), Some(true));
        assert!(r.get("proof").is_some_and(|j| *j != Json::Null));
        // Both responses are valid JSON end to end (the Raw splices
        // parse back).
        crate::json::parse(&w.to_string()).unwrap();
        crate::json::parse(&r.to_string()).unwrap();
    }

    #[test]
    fn certify_finds_drf_programs() {
        let state = state();
        let resp = handle(
            &state,
            &Request::Certify {
                test: "MP+fences".into(),
                model: "TSO".into(),
                robust: false,
            },
        );
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        if resp.get("certified") == Some(&Json::Bool(true)) {
            assert_eq!(resp.get("checked").and_then(Json::as_bool), Some(true));
        }
        // Without robust:true the response carries no robustness fields
        // and the verdict counters stay untouched.
        assert!(resp.get("robust").is_none());
        assert!(state
            .telemetry
            .robust_verdicts
            .iter()
            .all(|v| v.load(Ordering::Relaxed) == 0));
    }

    #[test]
    fn certify_reports_robustness_verdicts_and_counts_them() {
        let state = state();
        // The racy-but-fenced scratch entry: uncertified by DRF/TLO,
        // robust by delay-set analysis.
        let resp = handle(
            &state,
            &Request::Certify {
                test: "MP+fences+scratch".into(),
                model: "Weak".into(),
                robust: true,
            },
        );
        assert_eq!(resp.get("certified").and_then(Json::as_bool), Some(false));
        assert_eq!(resp.get("robust").and_then(Json::as_str), Some("robust"));
        assert_eq!(
            resp.get("robust_checked").and_then(Json::as_bool),
            Some(true)
        );
        // Unfenced SB under the weak model: a critical cycle, rendered.
        let resp = handle(
            &state,
            &Request::Certify {
                test: "SB".into(),
                model: "Weak".into(),
                robust: true,
            },
        );
        assert_eq!(resp.get("robust").and_then(Json::as_str), Some("cycle"));
        assert_eq!(
            resp.get("robust_checked").and_then(Json::as_bool),
            Some(true)
        );
        assert!(resp
            .get("cycle")
            .and_then(Json::as_str)
            .is_some_and(|c| c.contains("delayable")));
        // fig8 loads through published pointers: the analysis declines
        // soundly with a reason.
        let resp = handle(
            &state,
            &Request::Certify {
                test: "fig8".into(),
                model: "Weak".into(),
                robust: true,
            },
        );
        assert_eq!(resp.get("robust").and_then(Json::as_str), Some("unknown"));
        assert!(resp.get("reason").and_then(Json::as_str).is_some());
        // One verdict of each class reached the telemetry counters.
        let counts: Vec<u64> = state
            .telemetry
            .robust_verdicts
            .iter()
            .map(|v| v.load(Ordering::Relaxed))
            .collect();
        assert_eq!(counts, vec![1, 1, 1]);
        // The whole response set stays well-formed JSON.
        crate::json::parse(&resp.to_string()).unwrap();
    }

    #[test]
    fn metrics_reports_counters_and_cache() {
        let state = state();
        handle(
            &state,
            &Request::Enumerate {
                test: "SB".into(),
                model: "SC".into(),
                budget: None,
            },
        );
        let m = handle(&state, &Request::Metrics);
        assert_eq!(m.get("requests").and_then(Json::as_u64), Some(1));
        assert_eq!(m.get("errors").and_then(Json::as_u64), Some(0));
        let parsed = crate::json::parse(&m.to_string()).unwrap();
        assert!(parsed.get("cache").is_some());
        assert!(parsed.get("telemetry").is_some());
    }

    /// Self-monitoring must not skew the service counters: `metrics`
    /// and `metrics_prom` requests are tallied in `monitoring`, never
    /// in `requests`.
    #[test]
    fn monitoring_requests_are_reported_separately() {
        let state = state();
        handle(
            &state,
            &Request::Enumerate {
                test: "SB".into(),
                model: "SC".into(),
                budget: None,
            },
        );
        // A burst of self-monitoring...
        for _ in 0..5 {
            handle(&state, &Request::Metrics);
        }
        handle(&state, &Request::MetricsProm);
        let m = handle(&state, &Request::Metrics);
        // ...leaves `requests` at the one real query.
        assert_eq!(m.get("requests").and_then(Json::as_u64), Some(1));
        // The metrics above plus this one, and the prom scrape.
        assert_eq!(m.get("monitoring").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn requests_get_ids_and_latency_telemetry() {
        let state = state();
        let req = Request::Enumerate {
            test: "SB".into(),
            model: "TSO".into(),
            budget: None,
        };
        // Server-assigned ids are unique; client ids are echoed.
        let first = handle(&state, &req);
        let second = handle(&state, &req);
        let a = first.get("id").and_then(Json::as_str).unwrap();
        let b = second.get("id").and_then(Json::as_str).unwrap();
        assert_ne!(a, b);
        let echoed = handle_traced(&state, &req, Some("client-77"));
        assert_eq!(echoed.get("id").and_then(Json::as_str), Some("client-77"));
        // One miss then two hits, all in the enumerate histograms.
        let k = &state.telemetry.kinds[0];
        assert_eq!(k.miss.count(), 1);
        assert_eq!(k.hit.count(), 2);
        // The fresh run's stats (observe on by default) reached the
        // aggregated obs counters.
        assert!(state.telemetry.obs_agg.snapshot().rule_edges() > 0);
        assert!(state.telemetry.enum_forks.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn overbudget_latency_is_tracked_separately() {
        let state = state();
        handle(
            &state,
            &Request::Enumerate {
                test: "IRIW".into(),
                model: "Weak".into(),
                budget: Some(3),
            },
        );
        let k = &state.telemetry.kinds[0];
        assert_eq!(k.overbudget.count(), 1);
        assert_eq!(k.miss.count(), 0);
        assert_eq!(k.errors.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn metrics_prom_response_is_a_valid_exposition() {
        let state = state();
        handle(
            &state,
            &Request::Enumerate {
                test: "SB".into(),
                model: "TSO".into(),
                budget: None,
            },
        );
        let resp = handle(&state, &Request::MetricsProm);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        let text = resp.get("text").and_then(Json::as_str).unwrap();
        let summary = samm_core::telemetry::prom::check(text).expect("valid exposition");
        assert!(summary.has_family("samm_requests_total"));
        assert!(summary.has_family("samm_request_latency_seconds"));
        assert!(summary.has_family("samm_closure_rule_applications_total"));
        // The response as a whole is still one well-formed JSON line.
        crate::json::parse(&resp.to_string()).unwrap();
    }
}
