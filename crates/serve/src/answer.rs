//! A request's answer between execution and the wire.
//!
//! The [`handler`](crate::handler) executes every request into an
//! `Answer`: a typed `enumerate` answer (the resolved [`EnumQuery`] and
//! the cache entry it found or filled), a typed `verdict` answer (the
//! entry's plan runs' answers), a batch of slot answers, or — for every
//! other kind, every error and every answer a cluster peer produced — a
//! [`Json`] tree. One renderer writes it: `Answer::write_line`, behind
//! [`serve_envelope`](crate::handler::serve_envelope) and
//! [`serve_hit`](crate::handler::serve_hit), appends the response line
//! to a byte buffer. Enumerate and verdict answers and batch frames are
//! written field by field in the wire's sorted key order, splicing
//! pre-rendered fragments in place: the cache entry's `outcomes` and
//! `stats`, and each verdict row's constant bytes, rendered once with
//! its entry's `ServedPlan`; trees go through [`Json`]'s one renderer.
//! The committed transcript `tests/golden/answers.jsonl` pins the bytes
//! it writes.

use std::sync::Arc;

use samm_core::cache::CachedResult;
use samm_core::enumerate::EnumConfig;
use samm_core::fingerprint::{view_fingerprint, Fingerprint};
use samm_core::policy::Policy;
use samm_core::static_order::{thread_events, TableView};
use samm_core::telemetry::write_escaped;
use samm_litmus::catalog::{CatalogEntry, ModelSel};
use samm_litmus::expect::{RunAnswer, VerdictPlan};

use crate::handler::{catalog, ServerState};
use crate::json::{ByteSink, Json};
use crate::protocol::{ServiceError, ENGINE};
use crate::telemetry::ReqOutcome;

/// One row of the server's resolution table: a (catalog entry, model)
/// pair resolved once, when the server state is built. Budgets are not
/// part of the fingerprint, so one row serves every budget.
#[derive(Debug)]
pub(crate) struct Resolved {
    pub(crate) sel: ModelSel,
    pub(crate) policy: Policy,
    /// The cache key: program, table view and the server's config.
    pub(crate) fp: Fingerprint,
}

/// The resolution table under `config`: one row per catalog entry and
/// [`ModelSel::ALL`] model, entry-major.
pub(crate) fn resolution_table(config: &EnumConfig) -> Vec<Resolved> {
    let mut rows = Vec::with_capacity(catalog().len() * ModelSel::ALL.len());
    for entry in catalog() {
        let program = &entry.test.program;
        let events: Vec<_> = program.threads().iter().map(thread_events).collect();
        rows.extend(ModelSel::ALL.map(|sel| {
            let policy = sel.policy();
            let view = TableView::from_events(&events, &policy);
            Resolved {
                sel,
                fp: view_fingerprint(program, &view, config),
                policy,
            }
        }));
    }
    rows
}

/// One `enumerate` query resolved against the catalog: its row of the
/// resolution table, and the budget it runs under on a miss.
#[derive(Debug)]
pub struct EnumQuery {
    pub(crate) entry: &'static CatalogEntry,
    pub(crate) sel: ModelSel,
    pub(crate) fp: Fingerprint,
    pub(crate) row: usize,
    pub(crate) budget: Option<u64>,
}

impl EnumQuery {
    /// Looks up `test` and `model` (case-insensitively) and reads the
    /// query's row of the server's resolution table.
    ///
    /// # Errors
    ///
    /// The structured `unknown-test` / `unknown-model` errors.
    pub fn resolve(
        state: &ServerState,
        test: &str,
        model: &str,
        budget: Option<u64>,
    ) -> Result<EnumQuery, ServiceError> {
        let (entry, row, resolved) = state.resolve(test, model)?;
        Ok(EnumQuery {
            entry,
            sel: resolved.sel,
            fp: resolved.fp,
            row,
            budget,
        })
    }

    /// The cache key of this query's answer.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fp
    }

    /// Appends this query's answer object — `value`, found in the cache
    /// (`hit`) or freshly filled — to `out`, echoing `id`. The fields
    /// are written in the order a [`Json`] object renders them.
    pub fn write_answer(
        &self,
        state: &ServerState,
        id: &str,
        value: &CachedResult,
        hit: bool,
        out: &mut Vec<u8>,
    ) {
        out.extend_from_slice(b"{\"cache_hit\":");
        write_bool(out, hit);
        out.extend_from_slice(b",\"engine\":");
        write_str(out, ENGINE);
        out.extend_from_slice(b",\"executions\":");
        write_count(out, value.stats.distinct_executions);
        out.extend_from_slice(b",\"id\":");
        write_str(out, id);
        out.extend_from_slice(b",\"kind\":\"enumerate\",\"model\":");
        write_str(out, self.sel.name());
        if let Some(cluster) = &state.cluster {
            out.extend_from_slice(b",\"node\":");
            write_str(out, cluster.self_id());
        }
        out.extend_from_slice(b",\"ok\":true,\"outcome_count\":");
        write_count(out, value.outcomes.len());
        out.extend_from_slice(b",\"outcomes\":");
        out.extend_from_slice(value.outcomes_json().as_bytes());
        out.extend_from_slice(b",\"stats\":");
        out.extend_from_slice(value.stats_json().as_bytes());
        out.extend_from_slice(b",\"test\":");
        write_str(out, &self.entry.test.name);
        out.push(b'}');
    }
}

/// A catalog entry's [`VerdictPlan`] with the constant bytes of its
/// verdict answer, rendered once when the plan is built.
#[derive(Debug)]
pub(crate) struct ServedPlan {
    pub(crate) plan: VerdictPlan,
    /// The entry's name as a JSON string.
    name: Vec<u8>,
    /// Per verdict, in catalog order: the bytes between `cache_hit`'s
    /// value and `executions`' (`certified`, `condition`), then those
    /// between `executions`' and `observed_allowed`'s value
    /// (`expected_allowed`, `model`), split at the index beside them.
    rows: Vec<(Vec<u8>, usize)>,
}

impl ServedPlan {
    /// Renders `plan`'s fragments for `entry`.
    pub(crate) fn new(entry: &CatalogEntry, plan: VerdictPlan) -> ServedPlan {
        let mut name = Vec::new();
        write_str(&mut name, &entry.test.name);
        let rows = entry
            .verdicts
            .iter()
            .enumerate()
            .map(|(index, v)| {
                let mut bytes = Vec::new();
                bytes.extend_from_slice(b",\"certified\":");
                write_bool(&mut bytes, plan.verdict_row(index).certified);
                bytes.extend_from_slice(b",\"condition\":");
                write_str(&mut bytes, &entry.test.conditions[v.condition].text);
                bytes.extend_from_slice(b",\"executions\":");
                let split = bytes.len();
                bytes.extend_from_slice(b",\"expected_allowed\":");
                write_bool(&mut bytes, v.allowed);
                bytes.extend_from_slice(b",\"model\":");
                write_str(&mut bytes, v.model.name());
                bytes.extend_from_slice(b",\"observed_allowed\":");
                (bytes, split)
            })
            .collect();
        ServedPlan { plan, name, rows }
    }

    /// Appends the verdict answer of `entry` from its plan runs'
    /// `answers` to `out`, echoing `id`, in the order a [`Json`] object
    /// renders its fields.
    fn write_answer(
        &self,
        entry: &CatalogEntry,
        id: &str,
        answers: &[RunAnswer],
        out: &mut Vec<u8>,
    ) {
        let observed: Vec<bool> = entry
            .verdicts
            .iter()
            .enumerate()
            .map(|(index, v)| {
                let answer = &answers[self.plan.verdict_row(index).run];
                entry.test.conditions[v.condition].observable_in(&answer.result.outcomes)
            })
            .collect();
        let all_pass = entry
            .verdicts
            .iter()
            .zip(&observed)
            .all(|(v, &observed)| observed == v.allowed);
        out.extend_from_slice(b"{\"id\":");
        write_str(out, id);
        out.extend_from_slice(b",\"kind\":\"verdict\",\"ok\":true,\"report\":{\"all_pass\":");
        write_bool(out, all_pass);
        out.extend_from_slice(b",\"name\":");
        out.extend_from_slice(&self.name);
        out.extend_from_slice(b",\"rows\":[");
        for (index, ((v, &observed), (bytes, split))) in entry
            .verdicts
            .iter()
            .zip(&observed)
            .zip(&self.rows)
            .enumerate()
        {
            let answer = &answers[self.plan.verdict_row(index).run];
            if index > 0 {
                out.push(b',');
            }
            out.extend_from_slice(b"{\"cache_hit\":");
            write_bool(out, answer.cache_hit);
            out.extend_from_slice(&bytes[..*split]);
            write_count(out, answer.result.stats.distinct_executions);
            out.extend_from_slice(&bytes[*split..]);
            write_bool(out, observed);
            out.extend_from_slice(b",\"outcomes\":");
            write_count(out, answer.result.outcomes.len());
            out.extend_from_slice(b",\"pass\":");
            write_bool(out, observed == v.allowed);
            out.push(b'}');
        }
        out.extend_from_slice(b"]}}");
    }
}

/// What a request produced, before its id is attached.
pub(crate) enum Body {
    /// An `enumerate` this node answered, from the cache (`hit`) or by a
    /// fresh run.
    Enumerate {
        query: EnumQuery,
        value: Arc<CachedResult>,
        hit: bool,
    },
    /// A `verdict` on the catalog entry at `index`: one answer per run
    /// of its plan.
    Verdict {
        index: usize,
        answers: Vec<RunAnswer>,
    },
    /// A batch: its slot answers in request order, and how many of them
    /// failed.
    Batch { failed: usize, slots: Vec<Answer> },
    /// Any other answer, error or peer reply, as a tree; the `id` field
    /// is set when it is rendered.
    Tree(Json),
}

impl Body {
    /// Whether the answer is a success (`"ok":true`).
    pub(crate) fn is_ok(&self) -> bool {
        match self {
            Body::Enumerate { .. } | Body::Verdict { .. } | Body::Batch { .. } => true,
            Body::Tree(tree) => tree.get("ok").and_then(Json::as_bool) == Some(true),
        }
    }

    /// How the answer counts in the per-kind latency telemetry.
    pub(crate) fn outcome(&self) -> ReqOutcome {
        match self {
            Body::Enumerate { hit: true, .. } => ReqOutcome::Hit,
            Body::Enumerate { hit: false, .. } | Body::Verdict { .. } | Body::Batch { .. } => {
                ReqOutcome::Miss
            }
            Body::Tree(tree) => ReqOutcome::classify(tree),
        }
    }
}

/// A request's answer with its effective id.
pub(crate) struct Answer {
    /// The client's id, or the one the server assigned. `None` only for
    /// a batch slot whose tree is complete as it stands: a peer's reply,
    /// which echoes the slot id it was sent, or a slot that failed to
    /// parse, which has no id.
    pub(crate) id: Option<String>,
    pub(crate) body: Body,
}

impl Answer {
    /// Appends the response line, newline included, to `out`.
    pub(crate) fn write_line(self, state: &ServerState, out: &mut Vec<u8>) {
        self.write(state, out);
        out.push(b'\n');
    }

    fn write(self, state: &ServerState, out: &mut Vec<u8>) {
        let Answer { id, body } = self;
        match body {
            Body::Enumerate { query, value, hit } => {
                query.write_answer(state, framed(&id), &value, hit, out);
            }
            Body::Verdict { index, answers } => {
                state.served_plan(index).write_answer(
                    &catalog()[index],
                    framed(&id),
                    &answers,
                    out,
                );
            }
            Body::Batch { failed, slots } => {
                out.extend_from_slice(b"{\"count\":");
                write_count(out, slots.len());
                out.extend_from_slice(b",\"failed\":");
                write_count(out, failed);
                out.extend_from_slice(b",\"id\":");
                write_str(out, framed(&id));
                out.extend_from_slice(b",\"kind\":\"batch\",\"ok\":true,\"responses\":[");
                for (i, slot) in slots.into_iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    slot.write(state, out);
                }
                out.extend_from_slice(b"]}");
            }
            Body::Tree(tree) => with_id(tree, id).write_bytes(out),
        }
    }
}

/// The id of an enumerate or verdict answer or a batch frame, which
/// always have one.
fn framed(id: &Option<String>) -> &str {
    id.as_deref().expect("enumerate and batch answers have ids")
}

/// Sets the `id` field of an answer object, when there is one to set.
fn with_id(mut tree: Json, id: Option<String>) -> Json {
    if let (Json::Obj(map), Some(id)) = (&mut tree, id) {
        map.insert("id".to_owned(), Json::Str(id));
    }
    tree
}

/// Appends `s` as an escaped JSON string.
fn write_str(out: &mut Vec<u8>, s: &str) {
    // Appending to a Vec never fails.
    let _ = write_escaped(&mut ByteSink(out), s);
}

/// Appends `b` as a JSON boolean.
fn write_bool(out: &mut Vec<u8>, b: bool) {
    out.extend_from_slice(if b { b"true" } else { b"false" });
}

/// Appends a count as a JSON number, as [`Json::num`] renders it.
fn write_count(out: &mut Vec<u8>, n: usize) {
    use std::fmt::Write;
    let _ = write!(ByteSink(out), "{n}");
}
