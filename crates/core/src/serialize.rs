//! Serializability of executions (paper section 3.1).
//!
//! A *serialization* of an execution is a total order `<` on all Load and
//! Store operations such that
//!
//! 1. `A ≺ B ⇒ A < B` — local instruction ordering is respected;
//! 2. `source(L) < L` — a load executes after the store it observes;
//! 3. `¬∃ S =ₐ L. source(L) < S < L` — no intervening overwriting store.
//!
//! Conditions 2 and 3 together say a serialization is exactly an
//! interleaving that *replays* correctly on a single atomic memory. This
//! module searches for witnesses by backtracking over topological orders
//! while simulating the atomic memory, so that the central theorem of the
//! paper — an execution closed under Store Atomicity without cycles is
//! serializable, and vice versa — can be *tested* rather than assumed (see
//! the property tests in `tests/`).
//!
//! The strict search walks the linearizations of the execution's own
//! closed `@` ([`ExecutionGraph::order`]). Every serialization
//! linearizes `@`: the base ordering (local `≺` edges and observation
//! edges) holds by conditions 1 and 2, and each Store Atomicity edge of
//! Figure 6 is derived from edges that hold in every serialization, so
//! it holds too (§3.3; DESIGN §4). Walking `@` instead of the base order
//! therefore prunes only prefixes that cannot complete, and the search
//! meets the same serializations in the same (lexicographic) order.
//!
//! TSO-bypassed loads observe their source before it is globally visible;
//! such executions genuinely violate memory atomicity and correctly report
//! "not serializable" here (the paper's Figure 10). Their *buffered*
//! witnesses ([`tso_serializations`]) are searched over the base ordering
//! alone, Store Atomicity edges excluded: a forwarded load is not placed
//! after its source, so the rules' premises need not hold in a buffered
//! order.

use std::collections::HashMap;
use std::error::Error as StdError;
use std::fmt;

use crate::closure::Closure;
use crate::exec::Behavior;
use crate::graph::{EdgeKind, ExecutionGraph};
use crate::ids::{Addr, NodeId};

/// Why a proposed serialization is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SerializationError {
    /// The order does not contain exactly the memory operations of the
    /// execution.
    WrongOperations,
    /// Local ordering violated: `first ≺ second` but `second` was placed
    /// earlier.
    LocalOrderViolated {
        /// The `≺`-earlier operation.
        first: NodeId,
        /// The `≺`-later operation.
        second: NodeId,
    },
    /// A load was placed when the most recent same-address store was not
    /// its source (violates condition 2 or 3).
    SourceNotMostRecent {
        /// The offending load.
        load: NodeId,
    },
}

impl fmt::Display for SerializationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerializationError::WrongOperations => {
                write!(f, "order must contain each memory operation exactly once")
            }
            SerializationError::LocalOrderViolated { first, second } => {
                write!(f, "local ordering violated: {first} must precede {second}")
            }
            SerializationError::SourceNotMostRecent { load } => write!(
                f,
                "{load} does not observe the most recent store to its address"
            ),
        }
    }
}

impl StdError for SerializationError {}

/// The base ordering of an execution: every recorded edge except the
/// derived Store Atomicity edges and the non-`@` bypass edges, closed
/// transitively.
fn base_closure(behavior: &Behavior) -> Option<Closure> {
    let graph = behavior.graph();
    let mut closure = Closure::new();
    for _ in 0..graph.len() {
        closure.add_node();
    }
    for edge in graph.edges() {
        match edge.kind {
            EdgeKind::Atomicity | EdgeKind::Bypass => {}
            EdgeKind::Program
            | EdgeKind::Data
            | EdgeKind::AddrResolve
            | EdgeKind::Alias
            | EdgeKind::Source
            | EdgeKind::Init => {
                if closure.add_edge(edge.from, edge.to).is_err() {
                    return None;
                }
            }
        }
    }
    Some(closure)
}

/// The memory operations of a complete behaviour and the order every
/// serialization of the search must extend, set up once for the
/// backtracking search. One search serves both witness kinds: a strict
/// search replays on an atomic memory, a buffered one with the
/// store-buffer forwarding exception (see [`tso_serializations`]).
struct Search<'a> {
    graph: &'a ExecutionGraph,
    /// The memory operations, in node order: the DFS tries them in this
    /// order at every step, so it finds serializations in lexicographic
    /// order of their operation indices.
    ops: Vec<NodeId>,
    /// Words per bitmask over `ops`.
    words: usize,
    /// Row `i` (`words` words): the operations the order puts before
    /// `ops[i]`.
    preds: Vec<u64>,
    /// Each operation's address, as an index into the last-store array.
    addrs: Vec<usize>,
    /// Buffered searches only: for each load, its thread's
    /// program-earlier stores to its address, newest first. The first of
    /// them not yet placed is still in the store buffer.
    buffers: Vec<Vec<usize>>,
    /// Remaining budget of search steps; guards against pathological
    /// graphs.
    budget: usize,
}

/// The search's position: the placed prefix, its bitmask, and the most
/// recent store to each address.
struct Prefix {
    placed: Vec<NodeId>,
    mask: Vec<u64>,
    last_store: Vec<Option<NodeId>>,
}

impl<'a> Search<'a> {
    /// Sets up a search over the linearizations of `order` restricted to
    /// the memory operations of `behavior`, buffered or strict.
    fn new(behavior: &'a Behavior, order: &Closure, buffered: bool) -> Search<'a> {
        let graph = behavior.graph();
        let ops: Vec<NodeId> = graph.memory_ops().collect();
        let words = ops.len().div_ceil(64);
        let mut index = vec![usize::MAX; graph.len()];
        for (i, op) in ops.iter().enumerate() {
            index[op.index()] = i;
        }
        let mut preds = vec![0u64; ops.len() * words];
        for (i, &op) in ops.iter().enumerate() {
            for p in order.predecessors(op).iter() {
                let j = index[p];
                if j != usize::MAX {
                    preds[i * words + j / 64] |= 1 << (j % 64);
                }
            }
        }
        let addr_of = |op: NodeId| {
            graph
                .node(op)
                .addr()
                .expect("complete execution has addresses")
        };
        let mut distinct: Vec<Addr> = ops.iter().map(|&op| addr_of(op)).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let addrs = ops
            .iter()
            .map(|&op| {
                distinct
                    .binary_search(&addr_of(op))
                    .expect("every address is collected")
            })
            .collect();
        let buffers = if buffered {
            ops.iter()
                .map(|&op| {
                    let load = graph.node(op);
                    if !load.is_load() {
                        return Vec::new();
                    }
                    let mut stores: Vec<usize> = (0..ops.len())
                        .filter(|&j| {
                            let n = graph.node(ops[j]);
                            n.is_store()
                                && n.thread() == load.thread()
                                && n.addr() == load.addr()
                                && n.index_in_thread() < load.index_in_thread()
                        })
                        .collect();
                    stores
                        .sort_by_key(|&j| std::cmp::Reverse(graph.node(ops[j]).index_in_thread()));
                    stores
                })
                .collect()
        } else {
            Vec::new()
        };
        Search {
            graph,
            ops,
            words,
            preds,
            addrs,
            buffers,
            budget: 2_000_000,
        }
    }

    fn is_placed(mask: &[u64], i: usize) -> bool {
        mask[i / 64] >> (i % 64) & 1 != 0
    }

    /// Whether every operation the order puts before `ops[i]` is placed.
    fn ready(&self, i: usize, mask: &[u64]) -> bool {
        self.preds[i * self.words..(i + 1) * self.words]
            .iter()
            .zip(mask)
            .all(|(&pred, &placed)| pred & !placed == 0)
    }

    /// The store a load placed now reads, or `None` when it cannot be
    /// placed now: the most recent store to its address, or, in a
    /// buffered search, the newest pending store of its own buffer.
    /// Forwarding is mandatory while such a store is pending, and RMWs
    /// never forward: they wait for the same-address entry to drain, so a
    /// pending store blocks placing the RMW here at all.
    fn reads(&self, i: usize, prefix: &Prefix) -> Option<Option<NodeId>> {
        let pending = self
            .buffers
            .get(i)
            .and_then(|stores| stores.iter().find(|&&j| !Self::is_placed(&prefix.mask, j)));
        match pending {
            Some(_) if self.graph.node(self.ops[i]).is_rmw() => None,
            Some(&j) => Some(Some(self.ops[j])),
            None => Some(prefix.last_store[self.addrs[i]]),
        }
    }

    /// Depth-first search: extend the prefix with every currently legal
    /// operation. Returns `true` to stop early (used by `find`).
    fn dfs(&mut self, prefix: &mut Prefix, out: &mut Vec<Vec<NodeId>>, limit: usize) -> bool {
        if self.budget == 0 {
            return true;
        }
        self.budget -= 1;
        if prefix.placed.len() == self.ops.len() {
            out.push(prefix.placed.clone());
            return out.len() >= limit;
        }
        for i in 0..self.ops.len() {
            if Self::is_placed(&prefix.mask, i) || !self.ready(i, &prefix.mask) {
                continue;
            }
            let op = self.ops[i];
            let node = self.graph.node(op);
            // Replay on an atomic memory. A node may have a load facet
            // (it must read its source), a store facet (it becomes the
            // most recent store), or — for successful RMWs — both,
            // atomically.
            if node.is_load() && self.reads(i, prefix) != Some(node.source()) {
                continue;
            }
            let addr = self.addrs[i];
            let prev = prefix.last_store[addr];
            if node.is_store() {
                prefix.last_store[addr] = Some(op);
            }
            prefix.placed.push(op);
            prefix.mask[i / 64] |= 1 << (i % 64);
            if self.dfs(prefix, out, limit) {
                return true;
            }
            prefix.placed.pop();
            prefix.mask[i / 64] &= !(1 << (i % 64));
            prefix.last_store[addr] = prev;
        }
        false
    }

    /// Runs the search from the empty prefix, up to `limit` orders.
    fn run(mut self, limit: usize) -> Vec<Vec<NodeId>> {
        let addresses = self.addrs.iter().max().map_or(0, |&a| a + 1);
        let mut prefix = Prefix {
            placed: Vec::with_capacity(self.ops.len()),
            mask: vec![0; self.words],
            last_store: vec![None; addresses],
        };
        let mut out = Vec::new();
        self.dfs(&mut prefix, &mut out, limit);
        out
    }
}

/// Enumerates serializations of a complete behaviour, up to `limit`.
///
/// Returns orders over the memory operations (loads and stores, including
/// initial stores). An empty result means the execution is not serializable
/// (e.g. a genuine TSO bypass execution) or the search budget was
/// exhausted.
///
/// # Panics
///
/// Panics if the behaviour is not complete.
pub fn serializations(behavior: &Behavior, limit: usize) -> Vec<Vec<NodeId>> {
    assert!(
        behavior.is_complete(),
        "serializations need a complete behaviour"
    );
    Search::new(behavior, behavior.graph().order(), false).run(limit)
}

/// Finds one serialization, if any exists.
///
/// # Panics
///
/// Panics if the behaviour is not complete.
pub fn find_serialization(behavior: &Behavior) -> Option<Vec<NodeId>> {
    serializations(behavior, 1).into_iter().next()
}

/// Whether the execution has at least one serialization.
///
/// # Panics
///
/// Panics if the behaviour is not complete.
pub fn is_serializable(behavior: &Behavior) -> bool {
    find_serialization(behavior).is_some()
}

/// Validates a proposed serialization against the three conditions of
/// section 3.1.
///
/// # Errors
///
/// Returns the first violated condition.
///
/// # Panics
///
/// Panics if the behaviour is not complete.
pub fn validate_serialization(
    behavior: &Behavior,
    order: &[NodeId],
) -> Result<(), SerializationError> {
    assert!(
        behavior.is_complete(),
        "validation needs a complete behaviour"
    );
    let graph = behavior.graph();
    let mut expected: Vec<NodeId> = graph.memory_ops().collect();
    expected.sort();
    let mut given: Vec<NodeId> = order.to_vec();
    given.sort();
    given.dedup();
    if expected != given {
        return Err(SerializationError::WrongOperations);
    }

    // Condition 1 (and 2): the base order must be respected.
    let base = base_closure(behavior).ok_or(SerializationError::WrongOperations)?;
    let position: HashMap<NodeId, usize> =
        order.iter().enumerate().map(|(i, &op)| (op, i)).collect();
    for &op in order {
        for p in base.predecessors(op).iter().map(NodeId::new) {
            if graph.node(p).is_memory() && position[&p] > position[&op] {
                return Err(SerializationError::LocalOrderViolated {
                    first: p,
                    second: op,
                });
            }
        }
    }

    // Conditions 2 + 3 via atomic-memory replay (RMWs check their load
    // facet and apply their store facet at the same position).
    let mut last_store: HashMap<Addr, NodeId> = HashMap::new();
    for &op in order {
        let node = graph.node(op);
        let addr = node.addr().expect("complete execution has addresses");
        if node.is_load() && last_store.get(&addr).copied() != node.source() {
            return Err(SerializationError::SourceNotMostRecent { load: op });
        }
        if node.is_store() {
            last_store.insert(addr, op);
        }
    }
    Ok(())
}

// --- TSO witnesses ------------------------------------------------------
//
// A TSO execution that uses the store-buffer bypass has no serialization
// in the strict sense above (that is Figure 10's point). It does have a
// *TSO witness*: a total memory order in which every load reads the most
// recent same-address store — except that a load may instead forward from
// the newest same-thread program-order-earlier store that has not yet
// reached memory (i.e. is placed later in the order). This is the
// standard x86-TSO/SPARC-TSO axiomatization, implemented as a replay with
// the forwarding exception.

/// Enumerates TSO witnesses of a complete behaviour produced under
/// [`Policy::tso`](crate::policy::Policy::tso) (or any stronger model), up
/// to `limit`.
///
/// The base ordering is taken from the execution's own local edges, so
/// this is only meaningful for executions enumerated under TSO-or-stronger
/// policies; weak-model executions lack the load→load edges TSO requires.
///
/// # Panics
///
/// Panics if the behaviour is not complete.
pub fn tso_serializations(behavior: &Behavior, limit: usize) -> Vec<Vec<NodeId>> {
    assert!(
        behavior.is_complete(),
        "TSO witnesses need a complete behaviour"
    );
    match base_closure(behavior) {
        Some(base) => Search::new(behavior, &base, true).run(limit),
        None => Vec::new(),
    }
}

/// Whether a TSO-model execution has a TSO witness (it always should; see
/// the integration tests).
///
/// # Panics
///
/// Panics if the behaviour is not complete.
pub fn is_tso_serializable(behavior: &Behavior) -> bool {
    !tso_serializations(behavior, 1).is_empty()
}

/// Validates a proposed TSO witness: the base order must be respected and
/// the order must replay on an atomic memory *with the store-buffer
/// forwarding exception* — a load whose same-thread, same-address,
/// program-earlier store appears later in the order forwards from that
/// (newest such) pending store instead of memory; forwarding is mandatory
/// while such a store is pending, and RMWs never forward.
///
/// # Errors
///
/// Returns the first violated condition, mirroring
/// [`validate_serialization`].
///
/// # Panics
///
/// Panics if the behaviour is not complete.
pub fn validate_tso_serialization(
    behavior: &Behavior,
    order: &[NodeId],
) -> Result<(), SerializationError> {
    assert!(
        behavior.is_complete(),
        "validation needs a complete behaviour"
    );
    let graph = behavior.graph();
    let mut expected: Vec<NodeId> = graph.memory_ops().collect();
    expected.sort();
    let mut given: Vec<NodeId> = order.to_vec();
    given.sort();
    given.dedup();
    if expected != given {
        return Err(SerializationError::WrongOperations);
    }

    let base = base_closure(behavior).ok_or(SerializationError::WrongOperations)?;
    let position: HashMap<NodeId, usize> =
        order.iter().enumerate().map(|(i, &op)| (op, i)).collect();
    for &op in order {
        for p in base.predecessors(op).iter().map(NodeId::new) {
            if graph.node(p).is_memory() && position[&p] > position[&op] {
                return Err(SerializationError::LocalOrderViolated {
                    first: p,
                    second: op,
                });
            }
        }
    }

    // Replay with the forwarding exception: the newest same-thread,
    // same-address, program-earlier store placed *later* in the order is
    // still "in the buffer" and must be the load's source.
    let mut last_store: HashMap<Addr, NodeId> = HashMap::new();
    for (i, &op) in order.iter().enumerate() {
        let node = graph.node(op);
        let addr = node.addr().expect("complete execution has addresses");
        if node.is_load() {
            let pending = order[i + 1..]
                .iter()
                .map(|&later| (later, graph.node(later)))
                .filter(|(_, n)| {
                    n.is_store()
                        && n.thread() == node.thread()
                        && n.addr() == Some(addr)
                        && n.index_in_thread() < node.index_in_thread()
                })
                .max_by_key(|(_, n)| n.index_in_thread())
                .map(|(later, _)| later);
            let expected = match pending {
                // RMWs never forward: a pending same-address local store
                // makes this placement illegal outright.
                Some(_) if node.is_rmw() => {
                    return Err(SerializationError::SourceNotMostRecent { load: op })
                }
                Some(pending) => Some(pending),
                None => last_store.get(&addr).copied(),
            };
            if expected != node.source() {
                return Err(SerializationError::SourceNotMostRecent { load: op });
            }
        }
        if node.is_store() {
            last_store.insert(addr, op);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{enumerate, EnumConfig};
    use crate::ids::Reg;
    use crate::instr::{Instr, Program, ThreadProgram};
    use crate::policy::Policy;

    const X: u64 = 0;
    const Y: u64 = 1;
    const Z: u64 = 2;

    fn st(a: u64, v: u64) -> Instr {
        Instr::Store {
            addr: a.into(),
            val: v.into(),
        }
    }

    fn ld(r: usize, a: u64) -> Instr {
        Instr::Load {
            dst: Reg::new(r),
            addr: a.into(),
        }
    }

    fn sb() -> Program {
        Program::new(vec![
            ThreadProgram::new(vec![st(X, 1), ld(0, Y)]),
            ThreadProgram::new(vec![st(Y, 1), ld(0, X)]),
        ])
    }

    #[test]
    fn every_weak_execution_is_serializable() {
        let r = enumerate(&sb(), &Policy::weak(), &EnumConfig::default()).unwrap();
        assert!(!r.executions.is_empty());
        for exec in &r.executions {
            let order =
                find_serialization(exec).expect("store-atomic executions must be serializable");
            validate_serialization(exec, &order).expect("witness must validate");
        }
    }

    #[test]
    fn every_sc_execution_is_serializable() {
        let r = enumerate(
            &sb(),
            &Policy::sequential_consistency(),
            &EnumConfig::default(),
        )
        .unwrap();
        for exec in &r.executions {
            let order = find_serialization(exec).expect("SC executions are serializable");
            validate_serialization(exec, &order).unwrap();
        }
    }

    #[test]
    fn tso_bypass_execution_is_not_serializable() {
        // A Figure-10-style program: each thread stores a flag, reads it
        // back (bypass), then reads the other thread's variable. The
        // "both flags forwarded, both remote reads stale" execution obeys
        // TSO but violates memory atomicity.
        let w = 3; // flag address
        let prog = Program::new(vec![
            ThreadProgram::new(vec![st(X, 1), st(w, 3), ld(0, w), ld(1, Y)]),
            ThreadProgram::new(vec![st(Y, 5), st(w, 8), ld(0, w), ld(1, X)]),
        ]);
        let r = enumerate(&prog, &Policy::tso(), &EnumConfig::default()).unwrap();
        let mut saw_double_bypass_stale = false;
        for exec in &r.executions {
            let has_bypass = exec.graph().iter().any(|(_, n)| n.is_bypass_source());
            if !has_bypass {
                assert!(
                    is_serializable(exec),
                    "store-atomic TSO executions must serialize"
                );
                continue;
            }
            let o = exec.outcome();
            let both_forwarded = o.reg(0, Reg::new(0)) == crate::ids::Value::new(3)
                && o.reg(1, Reg::new(0)) == crate::ids::Value::new(8);
            let both_stale = o.reg(0, Reg::new(1)) == crate::ids::Value::ZERO
                && o.reg(1, Reg::new(1)) == crate::ids::Value::ZERO;
            if both_forwarded && both_stale {
                saw_double_bypass_stale = true;
                assert!(
                    !is_serializable(exec),
                    "the double-bypass execution violates memory atomicity (Figure 10)"
                );
            }
        }
        assert!(
            saw_double_bypass_stale,
            "TSO must allow the Figure-10 execution"
        );
    }

    #[test]
    fn every_tso_execution_has_a_tso_witness() {
        // Including the bypassing ones that have no strict serialization.
        let w = 3;
        let prog = Program::new(vec![
            ThreadProgram::new(vec![st(X, 1), st(w, 3), ld(0, w), ld(1, Y)]),
            ThreadProgram::new(vec![st(Y, 5), st(w, 8), ld(0, w), ld(1, X)]),
        ]);
        let r = enumerate(&prog, &Policy::tso(), &EnumConfig::default()).unwrap();
        let mut bypassing = 0;
        for exec in &r.executions {
            assert!(
                is_tso_serializable(exec),
                "TSO execution without a TSO witness: {}",
                exec.outcome()
            );
            if exec.graph().iter().any(|(_, n)| n.is_bypass_source()) {
                bypassing += 1;
            }
        }
        assert!(bypassing > 0, "the program must exercise the bypass");
    }

    #[test]
    fn sc_executions_are_also_tso_serializable() {
        let r = enumerate(
            &sb(),
            &Policy::sequential_consistency(),
            &EnumConfig::default(),
        )
        .unwrap();
        for exec in &r.executions {
            assert!(is_tso_serializable(exec));
        }
    }

    #[test]
    fn tso_witness_respects_forwarding_of_newest_store() {
        // S x,1 ; S x,2 ; L x — the load forwards 2; a witness exists and
        // any witness places the load's observation consistently.
        let prog = Program::new(vec![ThreadProgram::new(vec![st(X, 1), st(X, 2), ld(0, X)])]);
        let r = enumerate(&prog, &Policy::tso(), &EnumConfig::default()).unwrap();
        assert_eq!(r.outcomes.len(), 1);
        for exec in &r.executions {
            let witnesses = tso_serializations(exec, 100);
            assert!(!witnesses.is_empty());
        }
    }

    #[test]
    fn one_graph_represents_many_serializations() {
        // Three independent single-store threads: one execution graph, but
        // with loads absent the three stores interleave freely.
        let prog = Program::new(vec![
            ThreadProgram::new(vec![st(X, 1)]),
            ThreadProgram::new(vec![st(Y, 1)]),
            ThreadProgram::new(vec![st(Z, 1)]),
        ]);
        let r = enumerate(&prog, &Policy::weak(), &EnumConfig::default()).unwrap();
        assert_eq!(r.executions.len(), 1, "no loads, so one execution");
        let orders = serializations(&r.executions[0], 1000);
        // 3 program stores interleave in 3! ways; init stores add more,
        // but at minimum the 6 program-store orders must appear.
        assert!(orders.len() >= 6, "found {}", orders.len());
        for order in &orders {
            validate_serialization(&r.executions[0], order).unwrap();
        }
    }

    #[test]
    fn validation_rejects_local_order_violation() {
        let prog = Program::new(vec![ThreadProgram::new(vec![st(X, 1), st(X, 2), ld(0, X)])]);
        let r = enumerate(&prog, &Policy::weak(), &EnumConfig::default()).unwrap();
        let exec = &r.executions[0];
        let good = find_serialization(exec).unwrap();
        validate_serialization(exec, &good).unwrap();
        // Swap the two program stores: violates the same-address edge.
        let mut bad = good.clone();
        let stores: Vec<usize> = bad
            .iter()
            .enumerate()
            .filter(|(_, &id)| {
                let n = exec.graph().node(id);
                n.is_store() && !n.is_init()
            })
            .map(|(i, _)| i)
            .collect();
        bad.swap(stores[0], stores[1]);
        assert!(validate_serialization(exec, &bad).is_err());
    }

    #[test]
    fn validation_rejects_wrong_operation_sets() {
        let prog = Program::new(vec![ThreadProgram::new(vec![st(X, 1)])]);
        let r = enumerate(&prog, &Policy::weak(), &EnumConfig::default()).unwrap();
        let exec = &r.executions[0];
        assert_eq!(
            validate_serialization(exec, &[]),
            Err(SerializationError::WrongOperations)
        );
    }

    #[test]
    fn error_messages_are_informative() {
        let e = SerializationError::SourceNotMostRecent {
            load: crate::ids::NodeId::new(3),
        };
        assert!(e.to_string().contains("n3"));
        let e2 = SerializationError::LocalOrderViolated {
            first: crate::ids::NodeId::new(1),
            second: crate::ids::NodeId::new(2),
        };
        assert!(e2.to_string().contains("n1"));
    }
}
