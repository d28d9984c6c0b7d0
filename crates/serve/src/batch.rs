//! The `batch` request kind: many sub-requests per round trip.
//!
//! A batch amortizes framing and syscalls over up to
//! [`crate::protocol::MAX_BATCH`] litmus queries: the client sends one
//! line, the server answers one line whose `responses` array matches
//! the sub-request order. Every slot is independent — a malformed or
//! failing sub-request yields a structured error object *in its slot*
//! and its neighbours still execute.
//!
//! In cluster mode, enumerate sub-requests owned by a peer are
//! regrouped into one forwarded sub-batch per owner (the `fwd` marker
//! prevents re-forwarding) and the peer's answers are spliced back into
//! their original slots; an unreachable peer degrades that group to
//! local execution, never to an error.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

use samm_core::telemetry::trace::{ActiveSpan, SpanKind};

use crate::answer::{Answer, Body, EnumQuery};
use crate::handler::{error_response, handle_sub, ServerState};
use crate::json::Json;
use crate::protocol::{Envelope, Request, ServiceError};

/// Executes a parsed batch. `fwd` marks a batch that already crossed
/// one cluster hop: its sub-requests are answered locally. `parent_id`
/// is the batch envelope's effective id — slots without a client id get
/// a distinct `{parent_id}.{slot}` child id — and `span` the batch's
/// server span, under which every slot opens its own child.
pub(crate) fn execute(
    state: &ServerState,
    subs: &[Result<Envelope, ServiceError>],
    fwd: bool,
    parent_id: &str,
    span: Option<&ActiveSpan>,
) -> Body {
    state.telemetry.batch_sizes.record(subs.len() as u64);
    let ctx = span.map(ActiveSpan::context);
    let mut spliced: Vec<Option<Json>> = vec![None; subs.len()];

    // Distinct per-slot ids, echoed in each slot's response: the
    // client's own id wins, otherwise the slot index under the batch's
    // id. Forwarded sub-envelopes carry them so peers echo the same id.
    let slot_ids: Vec<Option<String>> = subs
        .iter()
        .enumerate()
        .map(|(index, slot)| match slot {
            Ok(env) => Some(
                env.id
                    .clone()
                    .unwrap_or_else(|| format!("{parent_id}.{index}")),
            ),
            Err(_) => None,
        })
        .collect();

    // Cluster regrouping: collect peer-owned enumerate slots per owner.
    if let Some(cluster) = state.cluster.as_ref().filter(|_| !fwd) {
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (index, slot) in subs.iter().enumerate() {
            // Unresolvable requests execute locally, where they produce
            // their structured error.
            let Ok(Envelope {
                request:
                    Request::Enumerate {
                        test,
                        model,
                        budget,
                    },
                ..
            }) = slot
            else {
                continue;
            };
            let Ok(query) = EnumQuery::resolve(state, test, model, *budget) else {
                continue;
            };
            let owner = cluster.owner_of(query.fp);
            if cluster.node_id(owner) != cluster.self_id() && !state.cache.contains(query.fp) {
                groups.entry(owner).or_default().push(index);
            }
        }
        for (owner, indices) in groups {
            let fwd_span = span.map(|s| s.child("forward", SpanKind::Client));
            let forwarded = Envelope {
                id: None,
                request: Request::Batch(
                    indices
                        .iter()
                        .map(|&i| {
                            subs[i].clone().map(|mut env| {
                                env.id.clone_from(&slot_ids[i]);
                                env
                            })
                        })
                        .collect(),
                ),
                fwd: true,
                trace: fwd_span.as_ref().map(ActiveSpan::context),
            };
            let count = cluster
                .forward(owner, &forwarded)
                .and_then(|reply| splice(&indices, reply, &mut spliced));
            if let Some(mut fs) = fwd_span {
                fs.attr("peer", cluster.node_id(owner).to_owned());
                fs.attr("slots", indices.len() as u64);
                fs.attr("ok", count.is_some());
                fs.finish(&state.telemetry);
            }
            match count {
                Some(count) => {
                    for _ in 0..count {
                        state.telemetry.note_forward(cluster.node_id(owner));
                        state.telemetry.forward_hops.record(1);
                    }
                }
                None => {
                    // Transport failure or a malformed peer reply: the
                    // slots stay unfilled and execute locally below.
                    state
                        .telemetry
                        .forward_fallbacks
                        .fetch_add(indices.len() as u64, Ordering::Relaxed);
                }
            }
        }
    }

    let mut failed = 0;
    let slots: Vec<Answer> = subs
        .iter()
        .zip(spliced)
        .zip(slot_ids)
        .map(|((slot, spliced), slot_id)| {
            let answer = match (slot, spliced) {
                // The peer's reply carries the slot id it was sent.
                (_, Some(reply)) => Answer {
                    id: None,
                    body: Body::Tree(reply),
                },
                // Slots that already failed one forward attempt run
                // locally (`fwd` forced) rather than re-routing.
                (Ok(env), None) => {
                    let id = slot_id.expect("ok slots have ids");
                    handle_sub(state, env, true, id, ctx)
                }
                // A slot that does not parse counts in the request
                // family as a malformed line does.
                (Err(err), None) => {
                    state.telemetry.malformed.fetch_add(1, Ordering::Relaxed);
                    Answer {
                        id: None,
                        body: Body::Tree(error_response(state, err)),
                    }
                }
            };
            if !answer.body.is_ok() {
                failed += 1;
            }
            answer
        })
        .collect();
    Body::Batch { failed, slots }
}

/// Splices a peer's batch reply back into the origin slots, marking
/// each `forwarded`. Returns the number of slots filled, or `None` when
/// the reply does not line up (the caller then falls back to local
/// execution for the whole group).
fn splice(indices: &[usize], reply: Json, spliced: &mut [Option<Json>]) -> Option<usize> {
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        return None;
    }
    let Json::Obj(mut reply) = reply else {
        return None;
    };
    let Some(Json::Arr(peer_responses)) = reply.remove("responses") else {
        return None;
    };
    if peer_responses.len() != indices.len() {
        return None;
    }
    for (&index, mut response) in indices.iter().zip(peer_responses) {
        if let Json::Obj(map) = &mut response {
            map.insert("forwarded".to_owned(), Json::Bool(true));
        }
        spliced[index] = Some(response);
    }
    Some(indices.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::handle_envelope;
    use crate::protocol::parse_envelope;
    use samm_core::cache::EnumCache;

    fn state() -> ServerState {
        ServerState::new(EnumCache::new(64), None)
    }

    fn batch_line(subs: &[&str]) -> String {
        format!(r#"{{"kind":"batch","requests":[{}]}}"#, subs.join(","))
    }

    #[test]
    fn responses_preserve_slot_order_and_ids() {
        let state = state();
        let line = batch_line(&[
            r#"{"kind":"enumerate","test":"SB","model":"TSO","id":"s0"}"#,
            r#"{"kind":"metrics","id":"s1"}"#,
            r#"{"kind":"enumerate","test":"SB","model":"SC","id":"s2"}"#,
        ]);
        let request = parse_envelope(&line).unwrap();
        let response = handle_envelope(&state, &request);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(response.get("count").and_then(Json::as_u64), Some(3));
        assert_eq!(response.get("failed").and_then(Json::as_u64), Some(0));
        let responses = response.get("responses").and_then(Json::as_arr).unwrap();
        for (slot, id) in responses.iter().zip(["s0", "s1", "s2"]) {
            assert_eq!(slot.get("ok"), Some(&Json::Bool(true)));
            assert_eq!(slot.get("id").and_then(Json::as_str), Some(id));
        }
        // SB under TSO has 3 outcomes, under SC 2 fewer interleavings
        // are visible at slot granularity: just check the kinds.
        assert_eq!(
            responses[0].get("kind").and_then(Json::as_str),
            Some("enumerate")
        );
        assert_eq!(
            responses[1].get("kind").and_then(Json::as_str),
            Some("metrics")
        );
    }

    #[test]
    fn slots_without_ids_get_distinct_child_ids() {
        let state = state();
        let line = batch_line(&[
            r#"{"kind":"enumerate","test":"SB","model":"TSO"}"#,
            r#"{"kind":"metrics","id":"mine"}"#,
            r#"{"kind":"enumerate","test":"SB","model":"SC"}"#,
        ]);
        let request = parse_envelope(&line).unwrap();
        let response = handle_envelope(&state, &request);
        let parent = response
            .get("id")
            .and_then(Json::as_str)
            .expect("batch id")
            .to_owned();
        let responses = response.get("responses").and_then(Json::as_arr).unwrap();
        assert_eq!(
            responses[0].get("id").and_then(Json::as_str),
            Some(format!("{parent}.0").as_str())
        );
        // Client-supplied ids always win over derived ones.
        assert_eq!(responses[1].get("id").and_then(Json::as_str), Some("mine"));
        assert_eq!(
            responses[2].get("id").and_then(Json::as_str),
            Some(format!("{parent}.2").as_str())
        );
    }

    #[test]
    fn malformed_slots_fail_alone() {
        let state = state();
        let line = batch_line(&[
            r#"{"kind":"enumerate","test":"SB","model":"TSO"}"#,
            r#"{"kind":"enumerate","test":"SB"}"#,
            r#"{"kind":"shutdown"}"#,
            r#"{"kind":"enumerate","test":"no-such-test","model":"TSO"}"#,
        ]);
        let request = parse_envelope(&line).unwrap();
        let response = handle_envelope(&state, &request);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(response.get("failed").and_then(Json::as_u64), Some(3));
        let responses = response.get("responses").and_then(Json::as_arr).unwrap();
        assert_eq!(responses[0].get("ok"), Some(&Json::Bool(true)));
        for (slot, kind) in [(1, "malformed"), (2, "malformed"), (3, "unknown-test")] {
            assert_eq!(responses[slot].get("ok"), Some(&Json::Bool(false)));
            assert_eq!(
                responses[slot]
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str),
                Some(kind),
                "slot {slot}"
            );
        }
    }

    #[test]
    fn batch_matches_sequential_singles_cache_effects() {
        let batched = state();
        let singles = state();
        let subs = [
            r#"{"kind":"enumerate","test":"SB","model":"TSO"}"#,
            r#"{"kind":"enumerate","test":"SB","model":"SC"}"#,
            r#"{"kind":"enumerate","test":"SB","model":"TSO"}"#,
        ];
        let batch_request = parse_envelope(&batch_line(&subs)).unwrap();
        let response = handle_envelope(&batched, &batch_request);
        let batch_responses: Vec<Json> = response
            .get("responses")
            .and_then(Json::as_arr)
            .unwrap()
            .to_vec();

        let single_responses: Vec<Json> = subs
            .iter()
            .map(|line| handle_envelope(&singles, &parse_envelope(line).unwrap()))
            .collect();

        for (b, s) in batch_responses.iter().zip(&single_responses) {
            for field in ["kind", "test", "model", "cache_hit", "outcome_count"] {
                assert_eq!(b.get(field), s.get(field), "field {field}");
            }
            assert_eq!(b.get("outcomes"), s.get("outcomes"));
        }
        // Same fingerprints → same cache population either way.
        assert_eq!(batched.cache.len(), singles.cache.len());
        assert_eq!(batched.cache.stats().hits, singles.cache.stats().hits);
        assert_eq!(batched.cache.stats().misses, singles.cache.stats().misses);
        // The batch line counts once; its subs do not inflate requests.
        assert_eq!(batched.telemetry.requests.load(Ordering::Relaxed), 1);
        assert_eq!(singles.telemetry.requests.load(Ordering::Relaxed), 3);
        // Sub-kind latency telemetry still flows per sub-request.
        assert_eq!(batched.telemetry.kinds[0].total(), 3);
        assert_eq!(batched.telemetry.kinds[5].total(), 1);
        assert_eq!(batched.telemetry.batch_sizes.count(), 1);
    }
}
