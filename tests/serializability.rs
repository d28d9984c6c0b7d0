//! The central theorem of the paper, tested: "A memory model with Store
//! Atomicity is serializable; there is a unique global interleaving of all
//! operations which respects the reordering rules."
//!
//! For every execution the enumerator produces under a store-atomic model,
//! a serialization witness must exist, validate against the three
//! conditions of section 3.1, and replay to the same load values. For TSO
//! executions that use the bypass, no serialization exists — memory
//! atomicity is genuinely violated (Figure 10).

use samm::core::enumerate::{enumerate, EnumConfig};
use samm::core::policy::Policy;
use samm::core::serialize;
use samm::litmus::catalog;
use samm::litmus::rand_prog::{corpus, RandConfig};

fn atomic_policies() -> Vec<Policy> {
    vec![
        Policy::sequential_consistency(),
        Policy::naive_tso(),
        Policy::pso(), // bypass executions are filtered below
        Policy::weak(),
        Policy::weak().with_alias_speculation(true),
    ]
}

fn check_all_serializable(program: &samm::core::instr::Program, label: &str) {
    for policy in atomic_policies() {
        let result = enumerate(program, &policy, &EnumConfig::default())
            .unwrap_or_else(|e| panic!("{label}/{}: {e}", policy.name()));
        for (i, exec) in result.executions.iter().enumerate() {
            let uses_bypass = exec.graph().iter().any(|(_, n)| n.is_bypass_source());
            if uses_bypass {
                continue;
            }
            let order = serialize::find_serialization(exec).unwrap_or_else(|| {
                panic!(
                    "{label}/{}: execution {i} has no serialization",
                    policy.name()
                )
            });
            serialize::validate_serialization(exec, &order).unwrap_or_else(|e| {
                panic!(
                    "{label}/{}: witness for execution {i} invalid: {e}",
                    policy.name()
                )
            });
        }
    }
}

#[test]
fn catalog_executions_are_serializable() {
    for entry in catalog::all() {
        check_all_serializable(&entry.test.program, &entry.test.name);
    }
}

#[test]
fn random_program_executions_are_serializable() {
    let cfg = RandConfig {
        threads: 2,
        ops_per_thread: 4,
        locations: 2,
        fence_prob: 0.15,
        store_prob: 0.5,
        data_dep_prob: 0.25,
        branch_prob: 0.2,
        rmw_prob: 0.0,
        addr_dep_prob: 0.0,
    };
    for (i, prog) in corpus(0x5EED, 30, &cfg).iter().enumerate() {
        check_all_serializable(prog, &format!("random #{i}"));
    }
}

#[test]
fn figure_10_bypass_executions_are_not_serializable() {
    let entry = catalog::fig10();
    let result = enumerate(&entry.test.program, &Policy::tso(), &EnumConfig::default()).unwrap();
    let cond = &entry.test.conditions[0];
    let mut found_violation = false;
    for exec in &result.executions {
        if cond.matches(&exec.outcome()) {
            found_violation = true;
            assert!(
                !serialize::is_serializable(exec),
                "the Figure 10 execution must violate memory atomicity"
            );
        }
    }
    assert!(
        found_violation,
        "Figure 10 execution must be enumerated under TSO"
    );
}

/// Every TSO execution of every catalog program has a *TSO witness* —
/// a memory order with the store-forwarding exception — even when it has
/// no strict serialization (Figure 10).
#[test]
fn every_tso_execution_has_a_tso_witness() {
    for entry in catalog::all() {
        let result = enumerate(
            &entry.test.program,
            &samm::core::policy::Policy::tso(),
            &EnumConfig::default(),
        )
        .unwrap();
        for (i, exec) in result.executions.iter().enumerate() {
            assert!(
                serialize::is_tso_serializable(exec),
                "{}: TSO execution {i} ({}) has no TSO witness",
                entry.test.name,
                exec.outcome()
            );
        }
    }
}

/// Minimality sanity check: the number of serializations of an execution
/// is at least one, and the paper's "one graph represents many
/// interleavings" claim is visible — across executions of SB, total
/// serializations exceed execution count.
#[test]
fn graphs_compress_many_serializations() {
    let entry = catalog::sb();
    let result = enumerate(&entry.test.program, &Policy::weak(), &EnumConfig::default()).unwrap();
    let mut total_serializations = 0usize;
    for exec in &result.executions {
        let orders = serialize::serializations(exec, 10_000);
        assert!(!orders.is_empty());
        for o in &orders {
            serialize::validate_serialization(exec, o).unwrap();
        }
        total_serializations += orders.len();
    }
    assert!(
        total_serializations > result.executions.len(),
        "expected compression: {} executions vs {} serializations",
        result.executions.len(),
        total_serializations
    );
}

/// The base-order search the serializer ran before it walked `@`: a
/// backtracking DFS over topological orders of the base ordering (every
/// edge but Store Atomicity and bypass edges), replaying on an atomic
/// memory, with the store-buffer forwarding exception when `buffered`.
/// Kept here only as the oracle of the `@`-walking search.
mod base_order {
    use std::collections::HashMap;

    use samm::core::closure::Closure;
    use samm::core::exec::Behavior;
    use samm::core::graph::EdgeKind;
    use samm::core::ids::{Addr, NodeId};

    fn base_closure(behavior: &Behavior) -> Option<Closure> {
        let graph = behavior.graph();
        let mut closure = Closure::new();
        for _ in 0..graph.len() {
            closure.add_node();
        }
        for edge in graph.edges() {
            if !matches!(edge.kind, EdgeKind::Atomicity | EdgeKind::Bypass)
                && closure.add_edge(edge.from, edge.to).is_err()
            {
                return None;
            }
        }
        Some(closure)
    }

    struct Search<'a> {
        behavior: &'a Behavior,
        base: Closure,
        mem_ops: Vec<NodeId>,
        buffered: bool,
        budget: usize,
    }

    impl Search<'_> {
        fn pending_local_store(&self, load: NodeId, addr: Addr, placed: &[bool]) -> Option<NodeId> {
            let graph = self.behavior.graph();
            let l = graph.node(load);
            let mut best: Option<(u32, NodeId)> = None;
            for (i, &op) in self.mem_ops.iter().enumerate() {
                let n = graph.node(op);
                if !placed[i]
                    && n.is_store()
                    && n.thread() == l.thread()
                    && n.addr() == Some(addr)
                    && n.index_in_thread() < l.index_in_thread()
                    && best.is_none_or(|(idx, _)| n.index_in_thread() > idx)
                {
                    best = Some((n.index_in_thread(), op));
                }
            }
            best.map(|(_, op)| op)
        }

        fn dfs(
            &mut self,
            placed: &mut Vec<NodeId>,
            mask: &mut Vec<bool>,
            last_store: &mut HashMap<Addr, NodeId>,
            out: &mut Vec<Vec<NodeId>>,
            limit: usize,
        ) -> bool {
            if self.budget == 0 {
                return true;
            }
            self.budget -= 1;
            if placed.len() == self.mem_ops.len() {
                out.push(placed.clone());
                return out.len() >= limit;
            }
            let graph = self.behavior.graph();
            for i in 0..self.mem_ops.len() {
                let op = self.mem_ops[i];
                if mask[i] {
                    continue;
                }
                let ready = self
                    .base
                    .predecessors(op)
                    .iter()
                    .map(NodeId::new)
                    .filter(|p| graph.node(*p).is_memory())
                    .all(|p| mask[self.mem_ops.iter().position(|&m| m == p).unwrap()]);
                if !ready {
                    continue;
                }
                let node = graph.node(op);
                let addr = node.addr().unwrap();
                if node.is_load() {
                    let pending = if self.buffered {
                        self.pending_local_store(op, addr, mask)
                    } else {
                        None
                    };
                    let expected = match pending {
                        Some(_) if node.is_rmw() => continue,
                        Some(pending) => Some(pending),
                        None => last_store.get(&addr).copied(),
                    };
                    if expected != node.source() {
                        continue;
                    }
                }
                let writes = node.is_store();
                let prev = if writes {
                    last_store.insert(addr, op)
                } else {
                    None
                };
                placed.push(op);
                mask[i] = true;
                if self.dfs(placed, mask, last_store, out, limit) {
                    return true;
                }
                placed.pop();
                mask[i] = false;
                if writes {
                    match prev {
                        Some(p) => last_store.insert(addr, p),
                        None => last_store.remove(&addr),
                    };
                }
            }
            false
        }
    }

    /// The first `limit` strict (or, when `buffered`, store-buffer)
    /// serializations in the base-order search's order.
    pub fn serializations(behavior: &Behavior, limit: usize, buffered: bool) -> Vec<Vec<NodeId>> {
        let Some(base) = base_closure(behavior) else {
            return Vec::new();
        };
        let mem_ops: Vec<NodeId> = behavior.graph().memory_ops().collect();
        let n = mem_ops.len();
        let mut search = Search {
            behavior,
            base,
            mem_ops,
            buffered,
            budget: 2_000_000,
        };
        let mut out = Vec::new();
        search.dfs(
            &mut Vec::with_capacity(n),
            &mut vec![false; n],
            &mut HashMap::new(),
            &mut out,
            limit,
        );
        out
    }
}

/// Walking `@` prunes only prefixes that cannot replay: on every
/// condition's witness of every catalog entry under every model, the
/// serializer finds the same first strict and store-buffer serialization
/// as the base-order search, the same serialization sets (up to 10,000),
/// and the witness carries that first serialization.
#[test]
fn walking_the_order_finds_what_the_base_order_search_finds() {
    use samm::core::explain::{find_witness, Goal, Serialization};
    use samm::litmus::ModelSel;

    let config = EnumConfig::default();
    let mut witnesses = 0;
    for entry in catalog::all() {
        let program = &entry.test.program;
        for model in ModelSel::ALL {
            let policy = model.policy();
            for (c, condition) in entry.test.conditions.iter().enumerate() {
                let label = format!("{}/{}/condition {c}", entry.test.name, model.name());
                let goal = Goal::new(condition.clauses.clone());
                let Some(witness) = find_witness(program, &policy, &config, &goal).unwrap() else {
                    continue;
                };
                let exec = &witness.execution;
                let strict = serialize::serializations(exec, 10_000);
                let buffered = serialize::tso_serializations(exec, 10_000);
                assert_eq!(
                    strict,
                    base_order::serializations(exec, 10_000, false),
                    "{label}: strict serializations"
                );
                assert_eq!(
                    buffered,
                    base_order::serializations(exec, 10_000, true),
                    "{label}: store-buffer serializations"
                );
                let expected = match (strict.first(), buffered.first()) {
                    (Some(order), _) => Serialization::Strict(order.clone()),
                    (None, Some(order)) => Serialization::Buffered(order.clone()),
                    (None, None) => Serialization::None,
                };
                assert_eq!(witness.serialization, expected, "{label}: witness");
                witnesses += 1;
            }
        }
    }
    assert!(witnesses > 100, "only {witnesses} witnesses checked");
}
