//! The Store Atomicity property (paper section 3.3).
//!
//! Given an execution `⟨≺, source, =ₐ⟩`, Store Atomicity demands three
//! additional families of `@` edges (Figure 6):
//!
//! * **rule a** — predecessor stores of a load are ordered before its
//!   source: `S =ₐ L ∧ S @ L ∧ S ≠ source(L) ⇒ S @ source(L)`;
//! * **rule b** — successor stores of an observed store are ordered after
//!   its observers: `S =ₐ L ∧ source(L) @ S ⇒ L @ S`;
//! * **rule c** — mutual ancestors of two same-address loads with distinct
//!   sources are ordered before mutual successors of those sources:
//!   `L =ₐ L′ ∧ A @ L ∧ A @ L′ ∧ source(L) ≠ source(L′) ∧ source(L) @ B ∧
//!   source(L′) @ B ⇒ A @ B`.
//!
//! "Including a dependency to enforce Store Atomicity can expose the need
//! for additional dependencies" (Figure 7), so [`enforce`] iterates the
//! rules to a fixpoint. A cycle while inserting an edge means the execution
//! is not serializable — impossible during non-speculative enumeration of a
//! store-atomic model, and the rollback trigger for speculation.

use std::cell::RefCell;
use std::fmt;
use std::time::Instant;

use crate::bitset::BitSet;
use crate::error::CycleError;
use crate::graph::ExecutionGraph;
use crate::ids::{Addr, NodeId};
use crate::obs::Obs;

/// Which of the paper's Figure 6 closure rules demanded an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Rule a: `S @ L ∧ S ≠ source(L) ⇒ S @ source(L)`.
    A,
    /// Rule b: `source(L) @ S ⇒ L @ S`.
    B,
    /// Rule c: common ancestors of two same-address loads with distinct
    /// sources precede common descendants of those sources.
    C,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rule::A => "a",
            Rule::B => "b",
            Rule::C => "c",
        })
    }
}

/// Runs the Store Atomicity rules to a fixpoint, inserting
/// [`crate::graph::EdgeKind::Atomicity`] edges tagged with the [`Rule`]
/// that demanded each.
///
/// Returns the number of edges inserted.
///
/// # Errors
///
/// Returns [`CycleError`] if an implied edge would make `@` cyclic (the
/// execution violates Store Atomicity and has no serialization). The graph
/// may be left with some of the implied edges already inserted; callers
/// treat the whole behaviour as discarded in that case.
pub fn enforce(graph: &mut ExecutionGraph) -> Result<usize, CycleError> {
    enforce_observed(graph, None)
}

/// [`enforce`] with optional instrumentation: when `obs` is present, the
/// per-rule edge counters, the fixpoint round count, and the closure
/// wall-clock are accumulated into it.
///
/// # Errors
///
/// As for [`enforce`].
pub fn enforce_observed(
    graph: &mut ExecutionGraph,
    obs: Option<&Obs>,
) -> Result<usize, CycleError> {
    SCRATCH.with(|cell| {
        let mut borrow = cell.borrow_mut();
        let scratch = &mut *borrow;
        let start = obs.map(|_| Instant::now());

        // Snapshots that are invariant across rounds: the closure only adds
        // `@` edges, never nodes or resolutions, so the resolved loads and
        // the per-address store lists can be collected once instead of per
        // round (this sits on the per-fork hot path of both engines). One
        // pass over the graph gathers both loads and stores; the per-addr
        // ranges then come from the small store list, not more node scans.
        scratch.loads.clear();
        scratch.raw_stores.clear();
        for (id, n) in graph.iter() {
            if n.is_load() && n.is_resolved() {
                scratch.loads.push((
                    id,
                    n.source().expect("resolved load has a source"),
                    n.addr().expect("resolved load has an address"),
                ));
            }
            if n.is_store() {
                if let Some(addr) = n.addr() {
                    scratch.raw_stores.push((addr, id));
                }
            }
        }
        scratch.store_ranges.clear();
        scratch.stores.clear();
        for i in 0..scratch.loads.len() {
            let addr = scratch.loads[i].2;
            if !scratch.store_ranges.iter().any(|&(a, _, _)| a == addr) {
                let from = scratch.stores.len();
                scratch.stores.extend(
                    scratch
                        .raw_stores
                        .iter()
                        .filter(|&&(a, _)| a == addr)
                        .map(|&(_, id)| id),
                );
                scratch
                    .store_ranges
                    .push((addr, from, scratch.stores.len()));
            }
        }

        let mut inserted = 0;
        let result = loop {
            if let Some(o) = obs {
                Obs::add(&o.closure_rounds, 1);
            }
            match enforce_round(graph, obs, scratch) {
                Ok(0) => break Ok(inserted),
                Ok(round) => inserted += round,
                Err(e) => break Err(e),
            }
        };
        if let (Some(o), Some(t)) = (obs, start) {
            Obs::add(&o.closure_nanos, t.elapsed().as_nanos() as u64);
        }
        result
    })
}

/// Reusable per-thread buffers for [`enforce_observed`]: the loop-invariant
/// load/store snapshots and rule c's intersection sets. Thread-local so the
/// serial and pruned enumerators each get an allocation-free
/// closure without threading state through every caller; `enforce_observed`
/// never re-enters itself, so the `RefCell` borrow cannot conflict.
#[derive(Default)]
struct EnforceScratch {
    /// Resolved loads: (load, source, addr).
    loads: Vec<(NodeId, NodeId, Addr)>,
    /// Every store with a known address, in node order: `(addr, store)`.
    raw_stores: Vec<(Addr, NodeId)>,
    /// Per-address `(addr, from, to)` ranges into `stores`, in first-seen
    /// load order.
    store_ranges: Vec<(Addr, usize, usize)>,
    /// Flat concatenation of the per-address store lists.
    stores: Vec<NodeId>,
    ancestors: BitSet,
    descendants: BitSet,
}

thread_local! {
    static SCRATCH: RefCell<EnforceScratch> = RefCell::default();
}

/// One pass over the three rules; returns how many new edges were added.
fn enforce_round(
    graph: &mut ExecutionGraph,
    obs: Option<&Obs>,
    scratch: &mut EnforceScratch,
) -> Result<usize, CycleError> {
    let EnforceScratch {
        loads,
        raw_stores: _,
        store_ranges,
        stores: all_stores,
        ancestors,
        descendants,
    } = scratch;
    let loads: &[(NodeId, NodeId, Addr)] = loads;
    let mut added = 0;

    // Rules a and b.
    for &(load, source, addr) in loads {
        let (_, from, to) = *store_ranges
            .iter()
            .find(|&&(a, _, _)| a == addr)
            .expect("store range collected for every load address");
        let stores: &[NodeId] = &all_stores[from..to];
        for &store in stores {
            if store == source {
                continue;
            }
            // An RMW node is its own load and store; the rules relate it
            // to *other* operations only.
            if store == load {
                continue;
            }
            // Rule a: S @ L ⇒ S @ source(L).
            if graph.precedes(store, load) && !graph.precedes(store, source) {
                graph.add_atomicity_edge(store, source, Rule::A)?;
                if let Some(o) = obs {
                    Obs::add(&o.rule_a, 1);
                }
                added += 1;
            }
            // Rule b: source(L) @ S ⇒ L @ S.
            if graph.precedes(source, store) && !graph.precedes(load, store) {
                graph.add_atomicity_edge(load, store, Rule::B)?;
                if let Some(o) = obs {
                    Obs::add(&o.rule_b, 1);
                }
                added += 1;
            }
        }
    }

    // Rule c: all pairs of same-address loads with distinct sources.
    for i in 0..loads.len() {
        for j in (i + 1)..loads.len() {
            let (l1, s1, a1) = loads[i];
            let (l2, s2, a2) = loads[j];
            if s1 == s2 {
                continue;
            }
            if a1 != a2 {
                continue;
            }
            let order = graph.order();
            order
                .predecessors(l1)
                .intersection_into(order.predecessors(l2), ancestors);
            if ancestors.is_empty() {
                continue;
            }
            order
                .successors(s1)
                .intersection_into(order.successors(s2), descendants);
            if descendants.is_empty() {
                continue;
            }
            for a in ancestors.iter() {
                for b in descendants.iter() {
                    let (a, b) = (NodeId::new(a), NodeId::new(b));
                    if a == b {
                        // A @ B with A = B is an immediate contradiction.
                        return Err(CycleError { from: a, to: b });
                    }
                    if !graph.precedes(a, b) {
                        graph.add_atomicity_edge(a, b, Rule::C)?;
                        if let Some(o) = obs {
                            Obs::add(&o.rule_c, 1);
                        }
                        added += 1;
                    }
                }
            }
        }
    }

    Ok(added)
}

/// Checks whether a graph already satisfies Store Atomicity without
/// modifying it (declarative use, paper section 3.3: "we can check an
/// arbitrary execution graph and say whether or not it obeys Store
/// Atomicity").
///
/// Returns `Ok(true)` when no rule demands a missing edge, `Ok(false)` when
/// at least one implied edge is absent (the graph is consistent but not yet
/// closed).
///
/// # Errors
///
/// Returns [`CycleError`] when closing the rules would create a cycle, i.e.
/// the execution violates Store Atomicity outright.
pub fn check(graph: &ExecutionGraph) -> Result<bool, CycleError> {
    let mut scratch = graph.clone();
    let added = enforce(&mut scratch)?;
    Ok(added == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{mk_init, mk_load, mk_store, observe, order};

    // Addresses used by the figures.
    const X: u64 = 1;
    const Y: u64 = 2;
    const Z: u64 = 3;

    /// Figure 3: Thread A = S1 x,1; fence; S2 y,2; L5 y = 3.
    ///           Thread B = S3 y,3; fence; S4 x,4; L6 x = 1?
    /// Observing S3 in thread A means S2 was overwritten: rule a forces
    /// S2 @ S3 (dotted edge a), hence S1 @ S4 @ L6 and L6 cannot observe
    /// the overwritten S1.
    #[test]
    fn figure_3_rule_a_orders_overwritten_store() {
        let mut g = ExecutionGraph::new();
        let s1 = mk_store(&mut g, 0, 0, X, 1);
        let s2 = mk_store(&mut g, 0, 1, Y, 2);
        let l5 = mk_load(&mut g, 0, 2, Y);
        let s3 = mk_store(&mut g, 1, 0, Y, 3);
        let s4 = mk_store(&mut g, 1, 1, X, 4);
        let l6 = mk_load(&mut g, 1, 2, X);
        // Local ordering under the weak rules (fences erased in the drawn
        // Load-Store graph; S2 ≺ L5 and S4 ≺ L6 are same-address edges).
        order(&mut g, s1, s2);
        order(&mut g, s1, l5);
        order(&mut g, s2, l5);
        order(&mut g, s3, s4);
        order(&mut g, s3, l6);
        order(&mut g, s4, l6);
        mk_init(&mut g, 0, X, 0);
        mk_init(&mut g, 1, Y, 0);

        observe(&mut g, s3, l5); // L5 y = 3
        enforce(&mut g).unwrap();

        // Dotted edge a of the figure.
        assert!(g.precedes(s2, s3), "rule a: overwritten S2 must precede S3");
        assert!(g.precedes(s1, s4), "transitively S1 @ S4");
        // Resolving L6 to S1 is now impossible: S1 @ S4 @ L6 with S4 to x.
        assert!(g.precedes(s4, l6));
    }

    /// Figure 4: Thread A = S1 x,1; S2 x,2; fence; L4 y = 3.
    ///           Thread B = S3 y,3; S5 y,5; fence; L6 x = 1?
    /// Observing S3 before it is overwritten orders L4 before the
    /// overwriting S5 (rule b, dotted edge b), hence S1 @ S2 @ L6 and L6
    /// cannot observe the overwritten S1.
    #[test]
    fn figure_4_rule_b_orders_observer_before_overwrite() {
        let mut g = ExecutionGraph::new();
        let s1 = mk_store(&mut g, 0, 0, X, 1);
        let s2 = mk_store(&mut g, 0, 1, X, 2);
        let l4 = mk_load(&mut g, 0, 2, Y);
        let s3 = mk_store(&mut g, 1, 0, Y, 3);
        let s5 = mk_store(&mut g, 1, 1, Y, 5);
        let l6 = mk_load(&mut g, 1, 2, X);
        order(&mut g, s1, s2);
        order(&mut g, s1, l4);
        order(&mut g, s2, l4);
        order(&mut g, s3, s5);
        order(&mut g, s3, l6);
        order(&mut g, s5, l6);
        mk_init(&mut g, 0, X, 0);
        mk_init(&mut g, 1, Y, 0);

        observe(&mut g, s3, l4); // L4 y = 3
        enforce(&mut g).unwrap();

        assert!(
            g.precedes(l4, s5),
            "rule b: observer L4 must precede overwriting S5"
        );
        assert!(g.precedes(s2, l6), "hence S1 @ S2 @ L6");
        assert!(g.precedes(s1, l6));
    }

    /// Figure 5: unordered store/load pairs on y still order S1 before L7
    /// (rule c), so L9 cannot observe S1.
    #[test]
    fn figure_5_rule_c_orders_mutual_ancestor_before_mutual_successor() {
        let mut g = ExecutionGraph::new();
        // Thread A: S1 x,1; fence; L3 y; L5 y.
        let s1 = mk_store(&mut g, 0, 0, X, 1);
        let l3 = mk_load(&mut g, 0, 1, Y);
        let l5 = mk_load(&mut g, 0, 2, Y);
        // Thread B: S2 y,2; fence; S6 z,6.
        let s2 = mk_store(&mut g, 1, 0, Y, 2);
        let s6 = mk_store(&mut g, 1, 1, Z, 6);
        // Thread C: S4 y,4; fence; L7 z; fence; S8 x,8; L9 x.
        let s4 = mk_store(&mut g, 2, 0, Y, 4);
        let l7 = mk_load(&mut g, 2, 1, Z);
        let s8 = mk_store(&mut g, 2, 2, X, 8);
        let l9 = mk_load(&mut g, 2, 3, X);
        order(&mut g, s1, l3);
        order(&mut g, s1, l5);
        order(&mut g, s2, s6);
        order(&mut g, s4, l7);
        order(&mut g, l7, s8);
        order(&mut g, s8, l9);
        mk_init(&mut g, 0, X, 0);
        mk_init(&mut g, 1, Y, 0);
        mk_init(&mut g, 2, Z, 0);

        observe(&mut g, s2, l3); // L3 y = 2
        observe(&mut g, s4, l5); // L5 y = 4
        observe(&mut g, s6, l7); // L7 z = 6
        enforce(&mut g).unwrap();

        // Edge c of the figure: the mutual ancestor S1 of {L3, L5} precedes
        // the mutual successor L7 of {S2, S4}.
        assert!(g.precedes(s1, l7), "rule c: S1 @ L7");
        assert!(g.precedes(s1, s8), "hence S1 @ S8");
        assert!(
            g.precedes(s8, l9),
            "so L9 cannot observe the overwritten S1"
        );
    }

    /// Figure 7: enforcing Store Atomicity on one location can expose the
    /// need for edges on another; the closure must cascade (edges a, b
    /// given; c then d derived).
    #[test]
    fn figure_7_closure_cascades_across_locations() {
        let mut g = ExecutionGraph::new();
        // Thread A: S1 x,1; fence; S3 y,3; L6 y.
        let s1 = mk_store(&mut g, 0, 0, X, 1);
        let s3 = mk_store(&mut g, 0, 1, Y, 3);
        let l6 = mk_load(&mut g, 0, 2, Y);
        // Thread B: S4 y,4; fence; L5 x.
        let s4 = mk_store(&mut g, 1, 0, Y, 4);
        let l5 = mk_load(&mut g, 1, 1, X);
        // Thread C: S2 x,2.
        let s2 = mk_store(&mut g, 2, 0, X, 2);
        order(&mut g, s1, s3);
        order(&mut g, s1, l6);
        order(&mut g, s3, l6);
        order(&mut g, s4, l5);
        mk_init(&mut g, 0, X, 0);
        mk_init(&mut g, 1, Y, 0);

        observe(&mut g, s2, l5); // edge a: L5 x = 2
        observe(&mut g, s4, l6); // edge b: L6 y = 4
        enforce(&mut g).unwrap();

        // Rule a on y: S3 @ L6 and S3 != source(L6) = S4, so S3 @ S4 (edge c).
        assert!(g.precedes(s3, s4), "edge c: S3 @ S4");
        // That reveals S1 @ S4 @ L5, so rule a on x demands S1 @ S2 (edge d).
        assert!(g.precedes(s1, l5), "S1 now precedes L5");
        assert!(g.precedes(s1, s2), "edge d: S1 @ S2");
    }

    #[test]
    fn enforce_is_idempotent() {
        let mut g = ExecutionGraph::new();
        let s1 = mk_store(&mut g, 0, 0, X, 1);
        let l1 = mk_load(&mut g, 1, 0, X);
        mk_init(&mut g, 0, X, 0);
        observe(&mut g, s1, l1);
        let first = enforce(&mut g).unwrap();
        let second = enforce(&mut g).unwrap();
        assert_eq!(
            second, 0,
            "second pass must add nothing (first added {first})"
        );
    }

    #[test]
    fn check_reports_closed_graphs() {
        let mut g = ExecutionGraph::new();
        let s1 = mk_store(&mut g, 0, 0, X, 1);
        let s2 = mk_store(&mut g, 1, 0, X, 2);
        let l1 = mk_load(&mut g, 2, 0, X);
        order(&mut g, s1, l1);
        observe(&mut g, s2, l1);
        // Rule a demands s1 @ s2; not yet inserted.
        assert_eq!(check(&g), Ok(false));
        enforce(&mut g).unwrap();
        assert_eq!(check(&g), Ok(true));
        assert!(g.precedes(s1, s2));
    }

    #[test]
    fn violating_execution_yields_cycle() {
        // Two stores to x ordered S1 @ S2; a load ordered after S2 observes
        // S1 — rule a demands S2 @ S1, a cycle.
        let mut g = ExecutionGraph::new();
        let s1 = mk_store(&mut g, 0, 0, X, 1);
        let s2 = mk_store(&mut g, 0, 1, X, 2);
        let l = mk_load(&mut g, 0, 2, X);
        order(&mut g, s1, s2);
        order(&mut g, s2, l);
        observe(&mut g, s1, l);
        assert!(enforce(&mut g).is_err());
    }

    #[test]
    fn rule_b_cycle_detected() {
        // L observes S2, S2 @ S3 (same addr), but S3 @ L: rule b demands
        // L @ S3 — cycle.
        let mut g = ExecutionGraph::new();
        let s2 = mk_store(&mut g, 0, 0, X, 2);
        let s3 = mk_store(&mut g, 1, 0, X, 3);
        let l = mk_load(&mut g, 2, 0, X);
        order(&mut g, s2, s3);
        order(&mut g, s3, l);
        observe(&mut g, s2, l);
        assert!(enforce(&mut g).is_err());
    }

    #[test]
    fn unrelated_addresses_are_untouched() {
        let mut g = ExecutionGraph::new();
        let sx = mk_store(&mut g, 0, 0, X, 1);
        let sy = mk_store(&mut g, 1, 0, Y, 2);
        let lx = mk_load(&mut g, 2, 0, X);
        observe(&mut g, sx, lx);
        enforce(&mut g).unwrap();
        assert!(!g.ordered(sy, sx));
        assert!(!g.ordered(sy, lx));
    }

    /// Two RMWs observing the same source contradict each other through
    /// rule b: each one's load facet must precede the other's store facet,
    /// and since facets share a node that is a cycle. This is the
    /// graph-level mechanism behind CAS mutual exclusion.
    #[test]
    fn competing_rmws_on_one_source_are_a_cycle() {
        use crate::ids::{Addr, ThreadId, Value};
        let mut g = ExecutionGraph::new();
        let init = g.add_init_store(0, Addr::new(X), Value::ZERO);
        let a = g.add_rmw_event(ThreadId::new(0), 0, Addr::new(X), Some(Value::new(1)));
        let b = g.add_rmw_event(ThreadId::new(1), 0, Addr::new(X), Some(Value::new(1)));
        g.add_edge(init, a, crate::graph::EdgeKind::Init).unwrap();
        g.add_edge(init, b, crate::graph::EdgeKind::Init).unwrap();
        g.observe_recorded(a, init).unwrap();
        g.observe_recorded(b, init).unwrap();
        assert!(
            enforce(&mut g).is_err(),
            "both RMWs reading the initial value violates Store Atomicity"
        );
    }

    /// One RMW reading the other's write is the consistent serialization.
    #[test]
    fn chained_rmws_are_consistent() {
        use crate::ids::{Addr, ThreadId, Value};
        let mut g = ExecutionGraph::new();
        let init = g.add_init_store(0, Addr::new(X), Value::ZERO);
        let a = g.add_rmw_event(ThreadId::new(0), 0, Addr::new(X), Some(Value::new(1)));
        let b = g.add_rmw_event(ThreadId::new(1), 0, Addr::new(X), Some(Value::new(2)));
        g.add_edge(init, a, crate::graph::EdgeKind::Init).unwrap();
        g.add_edge(init, b, crate::graph::EdgeKind::Init).unwrap();
        g.observe_recorded(a, init).unwrap();
        g.observe_recorded(b, a).unwrap();
        enforce(&mut g).unwrap();
        assert!(g.precedes(a, b));
        assert_eq!(check(&g), Ok(true));
    }

    #[test]
    fn rule_c_skips_same_source_pairs() {
        // Two loads observing the same store never trigger rule c.
        let mut g = ExecutionGraph::new();
        let s = mk_store(&mut g, 0, 0, X, 1);
        let l1 = mk_load(&mut g, 1, 0, X);
        let l2 = mk_load(&mut g, 1, 1, X);
        let a = mk_store(&mut g, 1, 2, Y, 9); // would-be mutual successor
        order(&mut g, l1, a);
        order(&mut g, l2, a);
        observe(&mut g, s, l1);
        observe(&mut g, s, l2);
        let added = enforce(&mut g).unwrap();
        assert_eq!(added, 0);
    }
}
