//! Isolation of the pruned engine's per-thread arena.
//!
//! A stream takes its thread's arena (claim table, frontier, scratch
//! buffers, spare behaviours) and gives it back, cleared, when dropped;
//! only capacity may cross from one query to the next. So a query run on
//! a thread that has just run another must answer exactly as on a fresh
//! thread — same outcomes, statistics (instrumentation counters
//! included), kept executions and stream paths — whatever the earlier
//! query was and however it ended: drained, over budget, over its
//! behaviour limit, or a goal stream dropped at its first match. A
//! stream started while another runs on the same thread must work too.

use std::thread;

use samm::core::enumerate::{EnumConfig, EnumStats};
use samm::core::error::EnumError;
use samm::core::ids::NodeId;
use samm::core::instr::Program;
use samm::core::obs::Observe;
use samm::core::outcome::{Outcome, OutcomeSet};
use samm::core::policy::Policy;
use samm::core::pruned::{enumerate_pruned, stream};
use samm::litmus::{catalog, ModelSel};

/// One yielded behaviour of a stream: its id, its path and its outcome.
type Item = (usize, Vec<(NodeId, NodeId)>, Outcome);

/// Everything a query answers: the drained enumeration (outcomes,
/// statistics, kept executions' canonical keys) and the goal stream's
/// items in order with their paths and its final statistics.
#[derive(Debug, PartialEq)]
struct Answer {
    outcomes: OutcomeSet,
    stats: EnumStats,
    executions: Vec<Vec<u8>>,
    items: Vec<Item>,
    stream_stats: EnumStats,
}

fn config() -> EnumConfig {
    EnumConfig::builder().observe(Observe::Count).build()
}

fn answer(program: &Program, policy: &Policy) -> Answer {
    let config = config();
    let result = enumerate_pruned(program, policy, &config).expect("enumerates");
    let mut behaviors = stream(program, policy, &config).expect("streams");
    let mut items = Vec::new();
    while let Some(item) = behaviors.next() {
        let (id, behavior) = item.expect("streams");
        let path = behaviors.path_to(id).expect("a yielded id has a path");
        items.push((id, path, behavior.outcome()));
    }
    Answer {
        outcomes: result.outcomes,
        stats: result.stats,
        executions: result
            .executions
            .iter()
            .map(|b| b.canonical_key())
            .collect(),
        items,
        stream_stats: behaviors.stats(),
    }
}

/// Every (program, policy) query of the catalog, named.
fn queries() -> Vec<(String, Program, Policy)> {
    catalog::all()
        .into_iter()
        .flat_map(|entry| {
            ModelSel::ALL.map(|model| {
                (
                    format!("{} under {}", entry.test.name, model.name()),
                    entry.test.program.clone(),
                    model.policy(),
                )
            })
        })
        .collect()
}

/// Each query's answer, each computed on a thread of its own.
fn fresh_answers(queries: &[(String, Program, Policy)]) -> Vec<Answer> {
    queries
        .iter()
        .map(|(_, program, policy)| {
            thread::scope(|s| s.spawn(|| answer(program, policy)).join().unwrap())
        })
        .collect()
}

/// The widest catalog search, so an earlier query leaves a well-used
/// arena behind.
fn iriw() -> (Program, Policy) {
    (catalog::iriw().test.program, Policy::weak())
}

/// Runs `before` and then every query on one thread, checking each
/// answer against the fresh one.
fn check_after(what: &str, before: impl Fn() + Sync) {
    let queries = queries();
    let fresh = fresh_answers(&queries);
    thread::scope(|s| {
        s.spawn(|| {
            for ((name, program, policy), fresh) in queries.iter().zip(&fresh) {
                before();
                assert_eq!(&answer(program, policy), fresh, "{name} after {what}");
            }
        })
        .join()
        .unwrap()
    });
}

#[test]
fn a_query_after_a_drained_query_answers_as_on_a_fresh_thread() {
    let (program, policy) = iriw();
    check_after("a drained IRIW query", || {
        enumerate_pruned(&program, &policy, &config()).expect("enumerates");
    });
    // Each query after the one before it, in catalog order.
    check_after("the previous catalog query", || {});
}

#[test]
fn a_query_after_an_overbudget_query_answers_as_on_a_fresh_thread() {
    let (program, policy) = iriw();
    let tight = EnumConfig::builder().budget(Some(40)).build();
    check_after("an overbudget query", || {
        let err = enumerate_pruned(&program, &policy, &tight).unwrap_err();
        assert!(matches!(err, EnumError::Overbudget { budget: 40, .. }));
    });
}

#[test]
fn a_query_after_a_behavior_limit_answers_as_on_a_fresh_thread() {
    let (program, policy) = iriw();
    let tight = EnumConfig::builder().max_behaviors(6).build();
    check_after("a behaviour-limited query", || {
        let err = enumerate_pruned(&program, &policy, &tight).unwrap_err();
        assert!(matches!(err, EnumError::BehaviorLimit { limit: 6 }));
    });
}

#[test]
fn a_query_after_a_goal_stream_dropped_at_its_first_match_answers_as_on_a_fresh_thread() {
    let (program, policy) = iriw();
    check_after("a goal stream dropped at its first match", || {
        let config = config();
        let mut behaviors = stream(&program, &policy, &config).expect("streams");
        behaviors.next().expect("a first match").expect("streams");
    });
}

#[test]
fn a_stream_started_inside_another_on_the_same_thread_works() {
    let queries = queries();
    let fresh = fresh_answers(&queries);
    let (program, policy) = iriw();
    let outer_fresh = answer(&program, &policy);
    let config = config();
    let mut outer = stream(&program, &policy, &config).expect("streams");
    let mut items = Vec::new();
    for ((name, program, policy), fresh) in queries.iter().zip(&fresh) {
        // Every inner query runs while the outer stream holds the arena.
        assert_eq!(&answer(program, policy), fresh, "{name} inside a stream");
        if let Some(item) = outer.next() {
            let (id, behavior) = item.expect("streams");
            items.push((id, outer.path_to(id).expect("a path"), behavior.outcome()));
        }
    }
    while let Some(item) = outer.next() {
        let (id, behavior) = item.expect("streams");
        items.push((id, outer.path_to(id).expect("a path"), behavior.outcome()));
    }
    assert_eq!(items, outer_fresh.items, "the outer stream's items");
    assert_eq!(outer.stats(), outer_fresh.stream_stats);
}
