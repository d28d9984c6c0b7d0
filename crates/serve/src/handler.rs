//! Request execution: turns a parsed [`Request`] into an answer
//! against shared server state and writes it onto the wire
//! ([`serve_envelope`]); see [`crate::answer`].
//!
//! Every enumeration-backed request is answered through the
//! content-addressed [`EnumCache`], so repeated queries for the same
//! (program, table view, config) fingerprint cost a hash lookup instead
//! of a fresh enumeration, and identical concurrent queries share one.
//! An `enumerate` key is read from the resolution table the state
//! builds at start ([`EnumQuery::resolve`]), never computed per request,
//! and a verdict runs its entry's [`VerdictPlan`], built on the entry's
//! first verdict. Witness/refutation requests run fresh — their
//! artifacts are path-dependent and are not cached.
//!
//! Fresh runs keep the engine's counters, which feed the aggregated
//! closure-rule families, and read the clock only for an `enumerate`
//! miss that records its phase spans ([`Observe`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use samm_analyze::harness::drf_certifier;
use samm_analyze::robust::StaticVerdict;
use samm_core::cache::{CachedResult, EnumCache};
use samm_core::enumerate::EnumConfig;
use samm_core::error::EnumError;
use samm_core::explain::{find_witness, refute, Goal, Refutation, RefuteOutcome};
use samm_core::obs::Observe;
use samm_core::pruned::enumerate_pruned;
use samm_core::telemetry::trace::{ActiveSpan, SpanKind, SpanSink, TraceContext};
use samm_core::telemetry::HistogramSnapshot;
use samm_litmus::catalog::{self, CatalogEntry, ModelSel};
use samm_litmus::expect::{answer_plan, VerdictPlan};

use crate::answer::{resolution_table, Answer, Body, EnumQuery, Resolved, ServedPlan};
use crate::cluster::Cluster;
use crate::json::Json;
use crate::protocol::{Envelope, ErrorKind, Request, ServiceError, ENGINE};
use crate::telemetry::{
    kind_index, snapshot_from_json, snapshot_to_json, FleetSample, Telemetry, KIND_NAMES,
};

/// State shared by every worker: the enumeration cache, the default
/// fork budget, the telemetry block, the resolution table every
/// `enumerate` key is read from, and each entry's verdict plan.
#[derive(Debug)]
pub struct ServerState {
    /// The content-addressed enumeration cache.
    pub cache: EnumCache,
    /// Fork budget applied to requests that do not carry their own.
    pub default_budget: Option<u64>,
    /// Request/error/overload counters, latency histograms, rates, obs
    /// aggregation, span log.
    pub telemetry: Telemetry,
    /// Cluster membership and peer pools when serving in cluster mode.
    pub cluster: Option<Arc<Cluster>>,
    /// Every catalog entry × [`ModelSel::ALL`] resolved once: model,
    /// policy and fingerprint ([`EnumQuery::resolve`]).
    pub(crate) table: Vec<Resolved>,
    /// One [`VerdictPlan`] per catalog entry, with its answer's constant
    /// bytes, built on the entry's first verdict, so start-up does no
    /// verdict work.
    plans: Vec<OnceLock<ServedPlan>>,
}

impl ServerState {
    /// Builds state with a cache of the given geometry and default
    /// telemetry (no span log).
    pub fn new(cache: EnumCache, default_budget: Option<u64>) -> Self {
        ServerState::with_telemetry(cache, default_budget, Telemetry::default())
    }

    /// Builds state with explicit telemetry.
    pub fn with_telemetry(
        cache: EnumCache,
        default_budget: Option<u64>,
        telemetry: Telemetry,
    ) -> Self {
        let mut state = ServerState {
            cache,
            default_budget,
            telemetry,
            cluster: None,
            table: Vec::new(),
            plans: catalog().iter().map(|_| OnceLock::new()).collect(),
        };
        state.table = resolution_table(&state.config(None));
        state
    }

    /// Looks up `test` and `model` (case-insensitively) in the
    /// resolution table: the catalog entry, the index of its row and the
    /// row. Every request that names a (test, model) pair resolves it
    /// here.
    ///
    /// # Errors
    ///
    /// The structured `unknown-test` / `unknown-model` errors, the test
    /// checked first.
    pub(crate) fn resolve(
        &self,
        test: &str,
        model: &str,
    ) -> Result<(&'static CatalogEntry, usize, &Resolved), ServiceError> {
        let entry = find_entry_index(test)?;
        let row = entry * ModelSel::ALL.len() + find_model_index(model)?;
        Ok((&catalog()[entry], row, &self.table[row]))
    }

    /// Attaches cluster membership; enumerate-backed requests are then
    /// routed through the consistent-hash ring.
    pub fn set_cluster(&mut self, cluster: Arc<Cluster>) {
        self.cluster = Some(cluster);
    }

    /// The enumeration configuration for one request: server defaults,
    /// request budget override, executions never kept (only outcome
    /// sets travel over the wire), and counters always on so fresh runs
    /// feed the aggregated closure-rule counters. No clock is read: a
    /// run whose phase timings someone reads asks for
    /// [`Observe::Timed`], which shares this configuration's cache key.
    pub(crate) fn config(&self, budget: Option<u64>) -> EnumConfig {
        EnumConfig::builder()
            .keep_executions(false)
            .observe(Observe::Count)
            .budget(budget.or(self.default_budget))
            .build()
    }

    /// The verdict plan of the catalog entry at `index`, built on first
    /// use with the DRF certifier, every certificate re-checked.
    pub(crate) fn verdict_plan(&self, index: usize) -> &VerdictPlan {
        &self.served_plan(index).plan
    }

    /// [`ServerState::verdict_plan`] with its answer's constant bytes.
    pub(crate) fn served_plan(&self, index: usize) -> &ServedPlan {
        self.plans[index].get_or_init(|| {
            let entry = &catalog()[index];
            let plan = VerdictPlan::new(entry, &self.config(None), Some(&drf_certifier));
            ServedPlan::new(entry, plan)
        })
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

/// Executes a parsed envelope, echoing its `id` (or a server-assigned
/// one) in the response, and appends its response line, newline
/// included, to `out`: the server's answer path. Never panics on bad
/// input: failures come back as `{"ok":false,"error":{...}}` objects.
/// `Shutdown` is answered with a plain ok — the connection loop, not
/// this function, performs the drain. Records latency telemetry
/// (per-kind histograms split by hit/miss/overbudget, the request-rate
/// window, the span log), honours the envelope's `fwd` marker (a
/// forwarded request is answered locally, never re-forwarded) and its
/// propagated `trace` context. Enumerate and verdict answers and batch
/// frames are written straight into `out`, with no [`Json`] tree in
/// between.
pub fn serve_envelope(state: &ServerState, envelope: &Envelope, out: &mut Vec<u8>) {
    handle_inner(
        state,
        envelope,
        envelope.id.clone(),
        envelope.fwd,
        true,
        envelope.trace,
    )
    .write_line(state, out);
}

/// [`serve_envelope`]'s answer, parsed back into a [`Json`] value, for
/// callers that read answers as trees. Its rendering equals the wire
/// line as a JSON value, though not always in bytes: parsing sorts the
/// keys of every object, and the spliced `stats`, witness and
/// refutation objects are not written in sorted order.
pub fn handle_envelope(state: &ServerState, envelope: &Envelope) -> Json {
    let mut line = Vec::new();
    serve_envelope(state, envelope, &mut line);
    crate::json::parse_bytes(&line).expect("the server writes well-formed JSON")
}

/// Executes one sub-request of a batch here, never forwarding it: the
/// batch routed its slots already. Per-kind latency telemetry and the
/// span log still apply, but the top-level `requests` counter does not —
/// the batch line was already counted once. `id` is the slot's
/// effective id (the client's, or a `{parent}.{slot}` child id derived
/// by the batch layer) and `ctx` the batch span's context, so the
/// slot's `sub` span is a child of the batch's `server` span, which
/// carries the batch id. A sub-envelope's own `trace` field, when
/// present, wins over `ctx`.
pub(crate) fn handle_sub(
    state: &ServerState,
    envelope: &Envelope,
    id: String,
    ctx: Option<TraceContext>,
) -> Answer {
    let ctx = envelope.trace.or(ctx);
    handle_inner(state, envelope, Some(id), true, false, ctx)
}

fn handle_inner(
    state: &ServerState,
    envelope: &Envelope,
    id: Option<String>,
    fwd: bool,
    top_level: bool,
    ctx: Option<TraceContext>,
) -> Answer {
    let request = &envelope.request;
    respond(state, request, id, fwd, top_level, ctx, |span, id| {
        let tree = match request {
            Request::Enumerate {
                test,
                model,
                budget,
            } => {
                // A key a peer owns goes to the owner, unless this
                // request was itself forwarded here.
                if let Some(cluster) = state.cluster.as_ref().filter(|_| !fwd) {
                    let slot = Some((envelope, id.to_owned()));
                    if let Some(relayed) =
                        cluster.route(state, &[slot], false, span).pop().flatten()
                    {
                        return Ok(Body::Relayed(relayed));
                    }
                }
                return enumerate_response(state, test, model, *budget, span);
            }
            Request::Batch(subs) => return Ok(crate::batch::execute(state, subs, fwd, id, span)),
            Request::Verdict { test, budget } => return verdict_response(state, test, *budget),
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
        tree.map(Body::Tree)
    })
}

/// Answers a top-level `enumerate` envelope whose answer is already in
/// the cache, without running or waiting on anything, appending the
/// response line to `out`: the event loop's inline path. Anything else
/// — another kind, an unknown name, a key that is absent or still being
/// filled — returns `false` having counted and written nothing, and
/// goes to a worker. The answer passes through the same id, counter,
/// histogram, span and writer as [`serve_envelope`], so it is the
/// worker's hit answer byte for byte.
pub fn serve_hit(state: &ServerState, envelope: &Envelope, out: &mut Vec<u8>) -> bool {
    let Some(answer) = answer_hit(state, envelope) else {
        return false;
    };
    answer.write_line(state, out);
    true
}

fn answer_hit(state: &ServerState, envelope: &Envelope) -> Option<Answer> {
    let query = EnumQuery::of(state, &envelope.request)?;
    let value = state.cache.probe(query.fp)?;
    Some(respond(
        state,
        &envelope.request,
        envelope.id.clone(),
        envelope.fwd,
        true,
        envelope.trace,
        |_, _| {
            // A resident key is never forwarded, even when a peer owns
            // it: zero hops.
            if state.cluster.is_some() && !envelope.fwd {
                state.telemetry.forward_hops.record(0);
            }
            Ok(Body::Enumerate {
                query,
                value,
                hit: true,
            })
        },
    ))
}

/// The request frame every answer passes through: assigns or echoes the
/// id, counts the request, opens the server span, runs `body`, turns an
/// error into its answer, records the per-kind latency and closes the
/// span.
fn respond(
    state: &ServerState,
    request: &Request,
    id: Option<String>,
    fwd: bool,
    top_level: bool,
    ctx: Option<TraceContext>,
    body: impl FnOnce(Option<&ActiveSpan>, &str) -> Result<Body, ServiceError>,
) -> Answer {
    let id = id.unwrap_or_else(|| state.telemetry.ids.next_id());
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
    let body =
        body(span.as_ref(), &id).unwrap_or_else(|err| Body::Tree(error_response(state, &err)));
    let elapsed = started.elapsed();
    if let Some(kind) = kind {
        let outcome = body.outcome();
        state.telemetry.record(kind, outcome, elapsed);
        if let Some(span) = &mut span {
            span.attr("outcome", outcome.label());
            span.attr("id", id.clone());
        }
    }
    if let Some(span) = span {
        span.finish(&state.telemetry);
    }
    Answer { id: Some(id), body }
}

/// Renders `err` as a response, counting it.
pub fn error_response(state: &ServerState, err: &ServiceError) -> Json {
    state.telemetry.errors.fetch_add(1, Ordering::Relaxed);
    err.to_response()
}

/// The catalog is immutable for the life of the process; building it
/// runs every litmus builder (~100µs), so memoize it once instead of
/// reconstructing it on every request.
pub(crate) fn catalog() -> &'static [CatalogEntry] {
    static CATALOG: OnceLock<Vec<CatalogEntry>> = OnceLock::new();
    CATALOG.get_or_init(catalog::all)
}

/// The catalog index of the entry named `name`, case-insensitively.
pub(crate) fn find_entry_index(name: &str) -> Result<usize, ServiceError> {
    catalog()
        .iter()
        .position(|e| e.test.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            ServiceError::new(
                ErrorKind::UnknownTest,
                format!("no catalog entry named '{name}'"),
            )
        })
}

/// The [`ModelSel::ALL`] index of the model named `name`,
/// case-insensitively.
pub(crate) fn find_model_index(name: &str) -> Result<usize, ServiceError> {
    ModelSel::ALL
        .iter()
        .position(|m| m.name().eq_ignore_ascii_case(name))
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

fn enumerate_response(
    state: &ServerState,
    test: &str,
    model: &str,
    budget: Option<u64>,
    span: Option<&ActiveSpan>,
) -> Result<Body, ServiceError> {
    let query = EnumQuery::resolve(state, test, model, budget)?;

    let work_span = span.map(|s| s.child("enumerate", SpanKind::Internal));
    // The cache keeps only the deterministic counters; the phase spans
    // need this run's own timers, so a run with a work span to record
    // them in, and only such a run, reads the clock.
    let mut run_obs = None;
    let config = EnumConfig {
        observe: if work_span.is_some() {
            Observe::Timed
        } else {
            Observe::Count
        },
        ..state.config(query.budget)
    };
    // The cache runs one fill per fingerprint; identical concurrent
    // queries wait for it and then hit.
    let (value, lookup) = state
        .cache
        .get_or_fill(query.fp, || {
            let result = enumerate_pruned(
                &query.entry.test.program,
                &state.table[query.row].policy,
                &config,
            )?;
            run_obs = result.stats.obs;
            Ok(Arc::new(CachedResult::from_result(result)))
        })
        .map_err(enum_error)?;
    if lookup.waited {
        state
            .telemetry
            .singleflight_waits
            .fetch_add(1, Ordering::Relaxed);
    }
    // A cache hit never records its work span: it would time nothing
    // but the cache probe, and the server span's `outcome` attribute
    // already says "hit". Dropping it keeps warm traced traffic cheap
    // and keeps trace logs proportional to work done, not requests
    // served. A fresh run decomposes into the engine's measured phases:
    // the disjoint obs timers become synthetic child spans, so a
    // flamegraph attributes the miss cost to closure/settle/resolve
    // work.
    if !lookup.hit {
        state.telemetry.fold_stats(&value.stats);
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
    Ok(Body::Enumerate {
        query,
        value,
        hit: lookup.hit,
    })
}

fn verdict_response(
    state: &ServerState,
    test: &str,
    budget: Option<u64>,
) -> Result<Body, ServiceError> {
    let index = find_entry_index(test)?;
    let answers = answer_plan(
        &catalog()[index],
        state.verdict_plan(index),
        &state.config(budget),
        Some(&state.cache),
    )
    .map_err(enum_error)?;
    // One fold per engine run; a classified view ran none.
    for answer in answers
        .iter()
        .filter(|answer| !answer.cache_hit && !answer.classified)
    {
        state.telemetry.fold_stats(&answer.result.stats);
    }
    Ok(Body::Verdict { index, answers })
}

/// `config` with instrumentation off: witness and refutation answers
/// read no counters.
fn uncounted(config: EnumConfig) -> EnumConfig {
    EnumConfig {
        observe: Observe::Off,
        ..config
    }
}

fn witness_response(
    state: &ServerState,
    test: &str,
    model: &str,
    condition: usize,
    budget: Option<u64>,
) -> Result<Json, ServiceError> {
    let (entry, _, resolved) = state.resolve(test, model)?;
    let (goal, text) = condition_goal(entry, condition)?;
    let config = uncounted(state.config(budget));
    let witness =
        find_witness(&entry.test.program, &resolved.policy, &config, &goal).map_err(enum_error)?;
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
    let (entry, _, resolved) = state.resolve(test, model)?;
    let (goal, text) = condition_goal(entry, condition)?;
    let config = uncounted(state.config(budget));
    let outcome =
        refute(&entry.test.program, &resolved.policy, &config, &goal).map_err(enum_error)?;
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
    let (entry, _, resolved) = state.resolve(test, model)?;
    let policy = &resolved.policy;
    let certificate = samm_analyze::certify(&entry.test.program, policy);
    let checked = certificate
        .as_ref()
        .is_some_and(|c| c.check(&entry.test.program, policy));
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("kind", Json::str("certify")),
        ("certified", Json::Bool(certificate.is_some())),
        ("checked", Json::Bool(checked)),
    ];
    if robust {
        let verdict = samm_analyze::analyze_static(&entry.test.program, policy);
        state.telemetry.record_robust_verdict(verdict.name());
        // Evidence self-checks: a robustness certificate or critical
        // cycle must revalidate before the client is told about it.
        let robust_checked = match &verdict {
            StaticVerdict::Robust(cert) => cert.check(&entry.test.program, policy),
            StaticVerdict::CycleFound(cycle) => cycle.check(&entry.test.program, policy),
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
        ("requests", count(&telemetry.requests)),
        ("monitoring", count(&telemetry.monitoring)),
        ("errors", count(&telemetry.errors)),
        ("overloaded", count(&telemetry.overloaded)),
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
                ("forwards", count(&telemetry.forwards_ok)),
                ("fallbacks", count(&telemetry.forward_fallbacks)),
                ("singleflight_waits", count(&telemetry.singleflight_waits)),
            ]),
        ));
    }
    Json::obj(fields)
}

/// A counter's value as a JSON number.
fn count(counter: &AtomicU64) -> Json {
    Json::num(counter.load(Ordering::Relaxed) as f64)
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
                let answered = cluster.forward(i, &env, |line| {
                    let resp = crate::json::parse_bytes(line).ok()?;
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
    use samm_core::cache::cached_enumerate;
    use samm_core::enumerate::EnumStats;
    use samm_core::fingerprint::{query_fingerprint, Fingerprint};
    use samm_core::policy::Policy;
    use samm_core::static_order::TableView;
    use samm_core::telemetry::trace::TraceRing;
    use samm_litmus::expect::{EntryReport, PlanRow, VerdictRow};

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
        let cold = handle_envelope(&state, &envelope(req, None));
        assert_eq!(cold.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(cold.get("cache_hit").and_then(Json::as_bool), Some(false));
        // The replay is a cache hit with the identical outcome set.
        let warm = handle_envelope(
            &state,
            &envelope(
                Request::Enumerate {
                    test: "sb".into(),
                    model: "tso".into(),
                    budget: None,
                },
                None,
            ),
        );
        assert_eq!(warm.get("cache_hit").and_then(Json::as_bool), Some(true));
        assert_eq!(cold.get("outcomes"), warm.get("outcomes"));
        assert_eq!(cold.get("outcome_count"), warm.get("outcome_count"));
    }

    /// Every row of the resolution table is the key a query computed on
    /// its own would have: its model, that model's policy, and the
    /// `query_fingerprint` under the server's config, whatever the
    /// request's budget and name case.
    #[test]
    fn resolution_rows_are_the_queries_own_keys() {
        let state = ServerState::new(EnumCache::new(8), None);
        let config = state.config(None);
        let mut rows = 0;
        for entry in catalog() {
            for sel in ModelSel::ALL {
                let name = entry.test.name.to_lowercase();
                let query = EnumQuery::resolve(&state, &name, sel.name(), Some(3)).unwrap();
                let row = &state.table[query.row];
                assert_eq!(
                    (query.entry.test.name.as_str(), row.sel),
                    (entry.test.name.as_str(), sel)
                );
                assert_eq!(row.policy, sel.policy());
                let fp = query_fingerprint(&entry.test.program, &sel.policy(), &config);
                assert_eq!(
                    (query.fp, row.fp),
                    (fp, fp),
                    "{}/{}",
                    entry.test.name,
                    sel.name()
                );
                rows += 1;
            }
        }
        assert_eq!(rows, state.table.len());
    }

    /// The entry's rendered fragments are byte-identical to rendering
    /// the answer through [`Json`]: the served line splices them in
    /// place, on a query's first request (a hit only if an earlier model
    /// shared its table view) and on its second, for every servable
    /// query.
    #[test]
    fn enumerate_fragments_match_the_json_rendering() {
        fn outcomes_json(outcomes: &samm_core::outcome::OutcomeSet) -> String {
            let render = |o: &samm_core::outcome::Outcome| {
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
            Json::Arr(outcomes.iter().map(render).collect()).to_string()
        }
        let state = state();
        let mut checked = 0;
        for entry in catalog() {
            // A key is warm from its first request when a model with the
            // same table view of this entry was answered before it.
            let mut views = std::collections::HashSet::new();
            for sel in ModelSel::ALL {
                let fresh =
                    enumerate_pruned(&entry.test.program, &sel.policy(), &state.config(None));
                let request = envelope(
                    Request::Enumerate {
                        test: entry.test.name.clone(),
                        model: sel.name().to_owned(),
                        budget: None,
                    },
                    None,
                );
                let Ok(fresh) = fresh else {
                    assert_eq!(
                        handle_envelope(&state, &request).get("ok"),
                        Some(&Json::Bool(false))
                    );
                    continue;
                };
                let fresh = CachedResult::from_result(fresh);
                let fragments = format!(
                    ",\"outcomes\":{},\"stats\":{},",
                    outcomes_json(&fresh.outcomes),
                    fresh.stats.to_json()
                );
                let shared = !views.insert(TableView::of(&entry.test.program, &sel.policy()));
                for hit in [shared, true] {
                    let mut line = Vec::new();
                    serve_envelope(&state, &request, &mut line);
                    let line = String::from_utf8(line).unwrap();
                    let resp = crate::json::parse(&line).unwrap();
                    let name = format!("{}/{} hit={hit}", entry.test.name, sel.name());
                    assert_eq!(resp.get("cache_hit"), Some(&Json::Bool(hit)), "{name}");
                    assert!(line.contains(&fragments), "{name}: {line}");
                    assert_eq!(
                        resp.get("outcome_count").and_then(Json::as_u64),
                        Some(fresh.outcomes.len() as u64),
                        "{name}"
                    );
                    assert_eq!(
                        resp.get("executions").and_then(Json::as_u64),
                        Some(fresh.stats.distinct_executions as u64),
                        "{name}"
                    );
                }
                checked += 1;
            }
        }
        assert!(checked >= 100, "only {checked} queries checked");
    }

    /// Everything a request may count: `requests`, `errors`, the cache
    /// hits, misses and insertions, and every per-kind histogram count.
    fn counters(state: &ServerState) -> Vec<u64> {
        let cache = state.cache.stats();
        let mut all = vec![
            state.telemetry.requests.load(Ordering::Relaxed),
            state.telemetry.errors.load(Ordering::Relaxed),
            cache.hits,
            cache.misses,
            cache.insertions,
        ];
        for k in &state.telemetry.kinds {
            all.extend([
                k.hit.count(),
                k.miss.count(),
                k.overbudget.count(),
                k.errors.load(Ordering::Relaxed),
            ]);
        }
        all
    }

    fn envelope(request: Request, id: Option<&str>) -> Envelope {
        Envelope {
            id: id.map(str::to_owned),
            request,
            fwd: false,
            trace: None,
        }
    }

    /// The inline entry declines a cold key, a name it cannot resolve
    /// and every other kind, counting nothing and running nothing.
    #[test]
    fn answer_hit_declines_without_counting() {
        let state = state();
        let enumerate = |test: &str| Request::Enumerate {
            test: test.into(),
            model: "TSO".into(),
            budget: None,
        };
        for request in [
            enumerate("SB"),
            enumerate("NoSuchTest"),
            Request::Batch(vec![Ok(envelope(enumerate("SB"), None))]),
            Request::Verdict {
                test: "SB".into(),
                budget: None,
            },
            Request::Metrics,
            Request::Shutdown,
        ] {
            let mut out = Vec::new();
            assert!(!serve_hit(
                &state,
                &envelope(request.clone(), None),
                &mut out
            ));
            assert!(out.is_empty(), "{request:?}");
            assert!(counters(&state).iter().all(|&c| c == 0), "{request:?}");
        }
        assert!(state.cache.is_empty(), "the inline entry never fills");
    }

    /// On a warm key the inline answer is the worker's hit answer: the
    /// same bytes apart from a server-assigned id, and exactly one more
    /// request and one more cache hit, for every servable query.
    #[test]
    fn answer_hit_matches_the_worker_hit() {
        let state = ServerState::new(EnumCache::new(4096), None);
        let serve = |request: &Request, id| {
            let mut line = Vec::new();
            serve_envelope(&state, &envelope(request.clone(), id), &mut line);
            line
        };
        let mut checked = 0;
        for entry in catalog() {
            for sel in ModelSel::ALL {
                let request = Request::Enumerate {
                    test: entry.test.name.clone(),
                    model: sel.name().to_owned(),
                    budget: None,
                };
                let name = format!("{}/{}", entry.test.name, sel.name());
                let cold = crate::json::parse_bytes(&serve(&request, Some("w"))).unwrap();
                if cold.get("ok") != Some(&Json::Bool(true)) {
                    continue;
                }
                let before = counters(&state);
                let worker = serve(&request, Some("w"));
                let worker_delta: Vec<u64> = counters(&state)
                    .iter()
                    .zip(&before)
                    .map(|(a, b)| a - b)
                    .collect();
                let before = counters(&state);
                let mut inline = Vec::new();
                assert!(
                    serve_hit(&state, &envelope(request.clone(), Some("w")), &mut inline),
                    "{name}: a warm key is answered inline"
                );
                let inline_delta: Vec<u64> = counters(&state)
                    .iter()
                    .zip(&before)
                    .map(|(a, b)| a - b)
                    .collect();
                assert_eq!(inline, worker, "{name}");
                assert_eq!(inline_delta, worker_delta, "{name}");
                let hits = |d: &[u64]| (d[0], d[2], d[3], d[4]);
                assert_eq!(hits(&inline_delta), (1, 1, 0, 0), "{name}");
                checked += 1;
            }
        }
        assert!(checked >= 100, "only {checked} queries checked");
        // Without a client id the inline answer gets a fresh server id.
        let request = Request::Enumerate {
            test: "SB".into(),
            model: "TSO".into(),
            budget: None,
        };
        let worker = String::from_utf8(serve(&request, None)).unwrap();
        let mut inline = Vec::new();
        assert!(serve_hit(&state, &envelope(request, None), &mut inline));
        let inline = String::from_utf8(inline).unwrap();
        let id = |line: &str| {
            let id = crate::json::parse(line)
                .unwrap()
                .get("id")
                .cloned()
                .unwrap();
            format!("\"id\":{id}")
        };
        assert_ne!(id(&worker), id(&inline));
        assert_eq!(inline, worker.replace(&id(&worker), &id(&inline)));
    }

    #[test]
    fn unknown_names_are_classified() {
        let state = state();
        let err = handle_envelope(
            &state,
            &envelope(
                Request::Enumerate {
                    test: "NoSuchTest".into(),
                    model: "TSO".into(),
                    budget: None,
                },
                None,
            ),
        );
        assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            err.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("unknown-test")
        );
        let err = handle_envelope(
            &state,
            &envelope(
                Request::Certify {
                    test: "SB".into(),
                    model: "NoSuchModel".into(),
                    robust: false,
                },
                None,
            ),
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
        let err = handle_envelope(
            &state,
            &envelope(
                Request::Enumerate {
                    test: "IRIW".into(),
                    model: "Weak".into(),
                    budget: Some(3),
                },
                None,
            ),
        );
        assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            err.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("overbudget")
        );
        // Errors are never cached: a retry with enough budget succeeds.
        let ok = handle_envelope(
            &state,
            &envelope(
                Request::Enumerate {
                    test: "IRIW".into(),
                    model: "Weak".into(),
                    budget: None,
                },
                None,
            ),
        );
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn verdict_report_passes() {
        let state = state();
        let resp = handle_envelope(
            &state,
            &envelope(
                Request::Verdict {
                    test: "SB".into(),
                    budget: None,
                },
                None,
            ),
        );
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        let report = resp.get("report").unwrap();
        assert_eq!(report.get("all_pass").and_then(Json::as_bool), Some(true));
        assert_eq!(
            report.get("rows").and_then(Json::as_arr).map(<[Json]>::len),
            Some(6)
        );
    }

    /// The verdict harness without plans or thread events: every
    /// running model's key is its [`query_fingerprint`], certified
    /// models run as SC, and each distinct key enumerates once through
    /// `cache` — except a view classified from a weaker one (dominating
    /// another running view), which, when neither it
    /// nor its base is resident, runs fresh outside the cache.
    fn reference_verdict(
        entry: &CatalogEntry,
        cache: &EnumCache,
        config: &EnumConfig,
    ) -> EntryReport {
        let program = &entry.test.program;
        let run_model = |m: ModelSel| {
            if m != ModelSel::Sc && drf_certifier(program, &m.policy()) {
                ModelSel::Sc
            } else {
                m
            }
        };
        let key = |m: ModelSel| query_fingerprint(program, &run_model(m).policy(), config);
        // The distinct running views, in model order, with whether each
        // was resident before the verdict.
        let mut views: Vec<(ModelSel, TableView, bool)> = Vec::new();
        for m in entry.models() {
            if !views.iter().any(|&(v, ..)| key(v) == key(m)) {
                let view = TableView::of(program, &run_model(m).policy());
                views.push((m, view, cache.contains(key(m))));
            }
        }
        let below = |a: &TableView, b: &TableView| a != b && a.dominates(b);
        let mut answers = std::collections::BTreeMap::new();
        for (m, view, resident) in &views {
            let base = views
                .iter()
                .find(|(_, b, _)| below(view, b) && !views.iter().any(|(_, c, _)| below(b, c)));
            let policy = run_model(*m).policy();
            let answer = match base {
                Some(&(_, _, false)) if !resident => {
                    let result = enumerate_pruned(program, &policy, config).unwrap();
                    let stats = EnumStats {
                        distinct_executions: result.stats.distinct_executions,
                        ..EnumStats::default()
                    };
                    (Arc::new(CachedResult::new(result.outcomes, stats)), false)
                }
                _ => cached_enumerate(cache, program, &policy, config).unwrap(),
            };
            answers.insert(key(*m), answer);
        }
        let rows = entry
            .verdicts
            .iter()
            .map(|v| {
                let (result, cache_hit) = &answers[&key(v.model)];
                let condition = &entry.test.conditions[v.condition];
                VerdictRow {
                    model: v.model,
                    condition: condition.text.clone(),
                    expected_allowed: v.allowed,
                    observed_allowed: condition.observable_in(&result.outcomes),
                    outcomes: result.outcomes.len(),
                    executions: result.stats.distinct_executions,
                    certified: run_model(v.model) != v.model,
                    cache_hit: *cache_hit,
                    classified: false,
                    fresh_run: false,
                    stats: result.stats,
                }
            })
            .collect();
        EntryReport {
            name: entry.test.name.clone(),
            rows,
        }
    }

    /// Asserts that a served verdict `report` says what `want` says,
    /// field by field.
    fn assert_report(report: &Json, want: &EntryReport, context: &str) {
        assert_eq!(
            report.get("name"),
            Some(&Json::str(&want.name)),
            "{context}"
        );
        assert_eq!(
            report.get("all_pass"),
            Some(&Json::Bool(want.all_pass())),
            "{context}"
        );
        let rows = report.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), want.rows.len(), "{context}");
        for (row, want) in rows.iter().zip(&want.rows) {
            let expected = Json::obj([
                ("model", Json::str(want.model.name())),
                ("condition", Json::str(&want.condition)),
                ("expected_allowed", Json::Bool(want.expected_allowed)),
                ("observed_allowed", Json::Bool(want.observed_allowed)),
                ("pass", Json::Bool(want.pass())),
                ("outcomes", Json::num(want.outcomes as f64)),
                ("executions", Json::num(want.executions as f64)),
                ("certified", Json::Bool(want.certified)),
                ("cache_hit", Json::Bool(want.cache_hit)),
            ]);
            assert_eq!(row, &expected, "{context}");
        }
    }

    /// The harness's one-run-per-view memo and its classified views
    /// change no byte of a verdict response, cache entry or counter from
    /// the reference harness's: every catalog verdict, cold, warm and
    /// warm again, with one model enumerated beforehand on every other
    /// entry, matches the reference harness (one cache lookup per
    /// distinct `query_fingerprint`, a classified view outside the cache)
    /// running on a cache of its own.
    #[test]
    fn verdicts_match_a_harness_that_runs_every_model() {
        let state = ServerState::new(EnumCache::new(4096), None);
        let reference = EnumCache::new(4096);
        let config = state.config(None);
        let counters = |cache: &EnumCache| {
            let s = cache.stats();
            (s.hits, s.misses, s.insertions)
        };
        for (i, entry) in catalog().iter().enumerate() {
            let name = &entry.test.name;
            if i % 2 == 1 {
                let models = entry.models();
                let model = models[i / 2 % models.len()];
                let request = Request::Enumerate {
                    test: name.clone(),
                    model: model.name().to_owned(),
                    budget: None,
                };
                assert_eq!(
                    handle_envelope(&state, &envelope(request, None)).get("ok"),
                    Some(&Json::Bool(true))
                );
                cached_enumerate(&reference, &entry.test.program, &model.policy(), &config)
                    .unwrap();
            }
            for pass in ["cold", "warm", "warm again"] {
                let verdict = Request::Verdict {
                    test: name.clone(),
                    budget: None,
                };
                let response = handle_envelope(&state, &envelope(verdict, None));
                assert_report(
                    response.get("report").unwrap(),
                    &reference_verdict(entry, &reference, &config),
                    &format!("{name} ({pass})"),
                );
                assert_eq!(
                    counters(&state.cache),
                    counters(&reference),
                    "{name} ({pass})"
                );
            }
        }
        let dir = std::env::temp_dir().join(format!("samm-verdict-parity-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (served, referenced) = (dir.join("served"), dir.join("reference"));
        state.cache.save_to(&served).unwrap();
        reference.save_to(&referenced).unwrap();
        let contents = |path| std::fs::read(path).unwrap();
        assert!(
            contents(&served) == contents(&referenced),
            "cache contents differ"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Verdict rows over models that `drf_certifier` proves
    /// SC-equivalent are answered from the SC run and marked
    /// `certified`, with the counts an uncertified harness reports.
    #[test]
    fn drf_certified_verdict_rows_match_the_uncertified_harness() {
        let state = state();
        for (test, certifies) in [("SB+fences", true), ("SB", false)] {
            let entry = &catalog()[find_entry_index(test).unwrap()];
            let resp = handle_envelope(
                &state,
                &envelope(
                    Request::Verdict {
                        test: test.into(),
                        budget: None,
                    },
                    None,
                ),
            );
            let rows = resp
                .get("report")
                .and_then(|r| r.get("rows"))
                .and_then(Json::as_arr)
                .unwrap();
            let reference = samm_litmus::expect::run_entry(entry, &state.config(None)).unwrap();
            assert_eq!(rows.len(), reference.rows.len());
            for (row, want) in rows.iter().zip(&reference.rows) {
                let certified = row.get("certified").and_then(Json::as_bool).unwrap();
                assert_eq!(
                    certified,
                    certifies && want.model != ModelSel::Sc,
                    "{test}: {row}"
                );
                assert_eq!(
                    row.get("observed_allowed").and_then(Json::as_bool),
                    Some(want.observed_allowed),
                    "{test}: {row}"
                );
                assert_eq!(
                    row.get("outcomes").and_then(Json::as_u64),
                    Some(want.outcomes as u64),
                    "{test}: {row}"
                );
                assert_eq!(
                    row.get("executions").and_then(Json::as_u64),
                    Some(want.executions as u64),
                    "{test}: {row}"
                );
            }
        }
    }

    /// A cold verdict folds each fresh enumeration into the counters
    /// once, however many rows share it; a warm one folds nothing. Rows
    /// share a run when their running models (SC for a certified model)
    /// have the same table view. fig7 classifies TSO from PSO: the
    /// classified view folds nothing until a verdict whose PSO run is a
    /// hit searches it.
    #[test]
    fn verdict_telemetry_folds_each_fresh_enumeration_once() {
        let state = state();
        let entry = &catalog()[find_entry_index("fig7").unwrap()];
        let models = entry.models();
        assert!(entry.verdicts.len() > models.len(), "rows must share runs");
        let program = &entry.test.program;
        let mut views: Vec<(TableView, Policy)> = Vec::new();
        for m in models {
            let policy = if m != ModelSel::Sc && drf_certifier(program, &m.policy()) {
                ModelSel::Sc.policy()
            } else {
                m.policy()
            };
            let view = TableView::of(program, &policy);
            if !views.iter().any(|(v, _)| *v == view) {
                views.push((view, policy));
            }
        }
        // A view that dominates another is classified from the other's
        // search on a cold verdict, and is never inserted; on the next
        // verdict its base is a hit, so it searches on its own.
        let (mut cold, mut classified) = (0, 0);
        for (view, policy) in &views {
            let explored = enumerate_pruned(program, policy, &state.config(None))
                .unwrap()
                .stats
                .explored as u64;
            if views.iter().any(|(v, _)| v != view && view.dominates(v)) {
                classified += explored;
            } else {
                cold += explored;
            }
        }
        assert!(cold > 0 && classified > 0);
        let verdict = envelope(
            Request::Verdict {
                test: "fig7".into(),
                budget: None,
            },
            None,
        );
        let explored = || state.telemetry.enum_explored.load(Ordering::Relaxed);
        let before = explored();
        handle_envelope(&state, &verdict);
        assert_eq!(explored() - before, cold);
        handle_envelope(&state, &verdict);
        assert_eq!(
            explored() - before,
            cold + classified,
            "the classified views searched"
        );
        handle_envelope(&state, &verdict);
        assert_eq!(
            explored() - before,
            cold + classified,
            "a warm verdict ran nothing"
        );
    }

    #[test]
    fn witness_and_refutation_agree_with_verdicts() {
        let state = state();
        // SB 0/0 is observable under TSO…
        let w = handle_envelope(
            &state,
            &envelope(
                Request::Witness {
                    test: "SB".into(),
                    model: "TSO".into(),
                    condition: 0,
                    budget: None,
                },
                None,
            ),
        );
        assert_eq!(w.get("found").and_then(Json::as_bool), Some(true));
        assert!(w.get("witness").is_some_and(|j| *j != Json::Null));
        // …and refuted under SC.
        let r = handle_envelope(
            &state,
            &envelope(
                Request::Refutation {
                    test: "SB".into(),
                    model: "SC".into(),
                    condition: 0,
                    budget: None,
                },
                None,
            ),
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
        let resp = handle_envelope(
            &state,
            &envelope(
                Request::Certify {
                    test: "MP+fences".into(),
                    model: "TSO".into(),
                    robust: false,
                },
                None,
            ),
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
        let resp = handle_envelope(
            &state,
            &envelope(
                Request::Certify {
                    test: "MP+fences+scratch".into(),
                    model: "Weak".into(),
                    robust: true,
                },
                None,
            ),
        );
        assert_eq!(resp.get("certified").and_then(Json::as_bool), Some(false));
        assert_eq!(resp.get("robust").and_then(Json::as_str), Some("robust"));
        assert_eq!(
            resp.get("robust_checked").and_then(Json::as_bool),
            Some(true)
        );
        // Unfenced SB under the weak model: a critical cycle, rendered.
        let resp = handle_envelope(
            &state,
            &envelope(
                Request::Certify {
                    test: "SB".into(),
                    model: "Weak".into(),
                    robust: true,
                },
                None,
            ),
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
        let resp = handle_envelope(
            &state,
            &envelope(
                Request::Certify {
                    test: "fig8".into(),
                    model: "Weak".into(),
                    robust: true,
                },
                None,
            ),
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
        handle_envelope(
            &state,
            &envelope(
                Request::Enumerate {
                    test: "SB".into(),
                    model: "SC".into(),
                    budget: None,
                },
                None,
            ),
        );
        let m = handle_envelope(&state, &envelope(Request::Metrics, None));
        assert_eq!(m.get("requests").and_then(Json::as_u64), Some(1));
        assert_eq!(m.get("errors").and_then(Json::as_u64), Some(0));
        let parsed = crate::json::parse(&m.to_string()).unwrap();
        assert!(parsed.get("cache").is_some());
        assert!(parsed.get("telemetry").is_some());
    }

    /// Self-monitoring must not skew the service counters: `metrics`,
    /// `metrics_cluster` and `metrics_prom` requests are tallied in
    /// `monitoring`, never in `requests`.
    #[test]
    fn monitoring_requests_are_reported_separately() {
        let state = state();
        handle_envelope(
            &state,
            &envelope(
                Request::Enumerate {
                    test: "SB".into(),
                    model: "SC".into(),
                    budget: None,
                },
                None,
            ),
        );
        // A burst of self-monitoring...
        for _ in 0..5 {
            handle_envelope(&state, &envelope(Request::Metrics, None));
        }
        handle_envelope(&state, &envelope(Request::MetricsProm, None));
        handle_envelope(&state, &envelope(Request::MetricsCluster, None));
        let m = handle_envelope(&state, &envelope(Request::Metrics, None));
        // ...leaves `requests` at the one real query.
        assert_eq!(m.get("requests").and_then(Json::as_u64), Some(1));
        // The metrics above plus this one, the prom scrape and the
        // fleet view.
        assert_eq!(m.get("monitoring").and_then(Json::as_u64), Some(8));
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
        let first = handle_envelope(&state, &envelope(req.clone(), None));
        let second = handle_envelope(&state, &envelope(req.clone(), None));
        let a = first.get("id").and_then(Json::as_str).unwrap();
        let b = second.get("id").and_then(Json::as_str).unwrap();
        assert_ne!(a, b);
        let echoed = handle_envelope(&state, &envelope(req, Some("client-77")));
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
        handle_envelope(
            &state,
            &envelope(
                Request::Enumerate {
                    test: "IRIW".into(),
                    model: "Weak".into(),
                    budget: Some(3),
                },
                None,
            ),
        );
        let k = &state.telemetry.kinds[0];
        assert_eq!(k.overbudget.count(), 1);
        assert_eq!(k.miss.count(), 0);
        assert_eq!(k.errors.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn metrics_prom_response_is_a_valid_exposition() {
        let state = state();
        handle_envelope(
            &state,
            &envelope(
                Request::Enumerate {
                    test: "SB".into(),
                    model: "TSO".into(),
                    budget: None,
                },
                None,
            ),
        );
        let resp = handle_envelope(&state, &envelope(Request::MetricsProm, None));
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        let text = resp.get("text").and_then(Json::as_str).unwrap();
        let summary = samm_core::telemetry::prom::check(text).expect("valid exposition");
        assert!(summary.has_family("samm_requests_total"));
        assert!(summary.has_family("samm_request_latency_seconds"));
        assert!(summary.has_family("samm_closure_rule_applications_total"));
        // The response as a whole is still one well-formed JSON line.
        crate::json::parse(&resp.to_string()).unwrap();
    }

    /// Each entry's verdict plan is built on its first verdict, and its
    /// rows are the keys the harness derives on its own: for every
    /// model, whether `drf_certifier` proves it SC-equivalent, and the
    /// policy and `query_fingerprint` of the run that answers it, under
    /// any budget.
    #[test]
    fn verdict_plans_are_the_keys_the_harness_derives() {
        let state = state();
        assert!(state.plans.iter().all(|plan| plan.get().is_none()));
        for (index, entry) in catalog().iter().enumerate() {
            let program = &entry.test.program;
            for budget in [None, Some(3)] {
                let config = state.config(budget);
                let mut derived: Vec<PlanRow> = entry
                    .models()
                    .into_iter()
                    .map(|model| {
                        let certified =
                            model != ModelSel::Sc && drf_certifier(program, &model.policy());
                        let policy = if certified { ModelSel::Sc } else { model }.policy();
                        let fp = query_fingerprint(program, &policy, &config);
                        PlanRow {
                            model,
                            certified,
                            fp,
                            policy,
                            run: 0,
                        }
                    })
                    .collect();
                // Each row's run is the first-use index of its key.
                let mut keys = Vec::new();
                for row in &mut derived {
                    row.run = keys.iter().position(|&fp| fp == row.fp).unwrap_or_else(|| {
                        keys.push(row.fp);
                        keys.len() - 1
                    });
                }
                assert_eq!(
                    state.verdict_plan(index).rows,
                    derived,
                    "{} under budget {budget:?}",
                    entry.test.name
                );
            }
        }
        assert!(state.plans.iter().all(|plan| plan.get().is_some()));
    }

    /// A traced `enumerate` miss still reads the clock: its work span
    /// has closure, settle and resolve children with measured time.
    #[test]
    fn a_traced_miss_records_timed_phase_children() {
        let ring = Arc::new(TraceRing::new(256));
        let telemetry = Telemetry::new(
            Some(Arc::clone(&ring) as Arc<dyn SpanSink>),
            std::time::Duration::ZERO,
        );
        let state = ServerState::with_telemetry(EnumCache::new(64), None, telemetry);
        let response = handle_envelope(
            &state,
            &envelope(
                Request::Enumerate {
                    test: "IRIW".into(),
                    model: "Weak".into(),
                    budget: None,
                },
                None,
            ),
        );
        assert_eq!(response.get("cache_hit"), Some(&Json::Bool(false)));
        let spans = ring.snapshot();
        let work = spans
            .iter()
            .find(|s| s.name == "enumerate")
            .expect("a miss records its work span");
        for phase in ["phase:closure", "phase:settle", "phase:resolve"] {
            let child = spans
                .iter()
                .find(|s| s.name == phase && s.parent == work.span)
                .unwrap_or_else(|| panic!("no {phase} child: {spans:?}"));
            assert!(child.dur_ns > 0, "{phase} was not timed: {child:?}");
        }
    }

    /// The Prometheus closure-rule counters after a fixed sequence of
    /// misses, hits, verdicts, witnesses and refutations are the sums of
    /// the counters of timed runs of each distinct key the sequence
    /// enumerated: counting without the clock loses no count.
    #[test]
    fn prom_closure_counters_equal_those_of_timed_runs() {
        let state = ServerState::new(EnumCache::new(4096), None);
        let mut keys: Vec<(Fingerprint, &'static CatalogEntry, Policy)> = Vec::new();
        let mut note = |fp, entry, policy: &Policy| {
            if !keys.iter().any(|(k, _, _)| *k == fp) {
                keys.push((fp, entry, policy.clone()));
            }
        };
        for (index, entry) in catalog().iter().enumerate() {
            let name = &entry.test.name;
            match index % 3 {
                0 => {
                    for sel in ModelSel::ALL {
                        let request = Request::Enumerate {
                            test: name.clone(),
                            model: sel.name().to_owned(),
                            budget: None,
                        };
                        if handle_envelope(&state, &envelope(request, None)).get("ok")
                            == Some(&Json::Bool(true))
                        {
                            let query = EnumQuery::resolve(&state, name, sel.name(), None).unwrap();
                            note(query.fp, entry, &state.table[query.row].policy);
                        }
                    }
                }
                1 => {
                    let request = Request::Verdict {
                        test: name.clone(),
                        budget: None,
                    };
                    assert_eq!(
                        handle_envelope(&state, &envelope(request, None)).get("ok"),
                        Some(&Json::Bool(true))
                    );
                    // A classified view runs no search of its own.
                    for run in &state.verdict_plan(index).runs {
                        if run.base.is_none() {
                            note(run.fp, entry, &run.policy);
                        }
                    }
                }
                _ => {
                    for request in [
                        Request::Witness {
                            test: name.clone(),
                            model: "SC".into(),
                            condition: 0,
                            budget: None,
                        },
                        Request::Refutation {
                            test: name.clone(),
                            model: "Weak".into(),
                            condition: 0,
                            budget: None,
                        },
                    ] {
                        assert_eq!(
                            handle_envelope(&state, &envelope(request, None)).get("ok"),
                            Some(&Json::Bool(true))
                        );
                    }
                }
            }
        }
        let timed = EnumConfig {
            observe: Observe::Timed,
            ..state.config(None)
        };
        let want = samm_core::obs::Obs::new();
        for (_, entry, policy) in &keys {
            let stats = enumerate_pruned(&entry.test.program, policy, &timed)
                .unwrap()
                .stats;
            want.add_counters(&stats.obs.expect("a timed run counts"));
        }
        let want = want.snapshot();
        assert!(want.rule_edges() > 0 && want.closure_rounds > 0);
        let text = state.render_prom();
        for line in [
            format!(
                "samm_closure_rule_applications_total{{rule=\"a\"}} {}",
                want.rule_a
            ),
            format!(
                "samm_closure_rule_applications_total{{rule=\"b\"}} {}",
                want.rule_b
            ),
            format!(
                "samm_closure_rule_applications_total{{rule=\"c\"}} {}",
                want.rule_c
            ),
            format!("samm_closure_rounds_total {}", want.closure_rounds),
            format!("samm_candidate_calls_total {}", want.candidate_calls),
            format!("samm_candidate_stores_total {}", want.candidate_stores),
        ] {
            assert!(
                text.lines().any(|l| l == line),
                "missing {line:?} in\n{text}"
            );
        }
    }
}
