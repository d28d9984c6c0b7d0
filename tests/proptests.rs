//! Property-based tests (proptest) over the core data structures and the
//! paper's invariants. Each property runs against freshly generated
//! inputs and shrinks on failure.

use proptest::prelude::*;
use rand::prelude::*;

use samm::core::bitset::BitSet;
use samm::core::closure::Closure;
use samm::core::enumerate::{enumerate, EnumConfig};
use samm::core::ids::NodeId;
use samm::core::policy::Policy;
use samm::core::pruned::enumerate_pruned;
use samm::core::serialize;
use samm::litmus::rand_prog::{random_program, RandConfig};
use samm::oper;

// --- BitSet behaves like a reference set -------------------------------

proptest! {
    #[test]
    fn bitset_matches_btreeset(ops in prop::collection::vec((0usize..300, prop::bool::ANY), 0..100)) {
        let mut bits = BitSet::new();
        let mut reference = std::collections::BTreeSet::new();
        for (bit, insert) in ops {
            if insert {
                prop_assert_eq!(bits.insert(bit), reference.insert(bit));
            } else {
                prop_assert_eq!(bits.remove(bit), reference.remove(&bit));
            }
        }
        prop_assert_eq!(bits.len(), reference.len());
        prop_assert_eq!(bits.iter().collect::<Vec<_>>(),
                        reference.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn bitset_union_and_intersection_laws(
        a in prop::collection::btree_set(0usize..200, 0..40),
        b in prop::collection::btree_set(0usize..200, 0..40),
    ) {
        let sa: BitSet = a.iter().copied().collect();
        let sb: BitSet = b.iter().copied().collect();
        let mut union = sa.clone();
        union.union_with(&sb);
        let expected_union: Vec<usize> = a.union(&b).copied().collect();
        prop_assert_eq!(union.iter().collect::<Vec<_>>(), expected_union);
        let inter = sa.intersection(&sb);
        let expected_inter: Vec<usize> = a.intersection(&b).copied().collect();
        prop_assert_eq!(inter.iter().collect::<Vec<_>>(), expected_inter);
        prop_assert_eq!(sa.intersects(&sb), !expected_inter_is_empty(&a, &b));
    }
}

fn expected_inter_is_empty(
    a: &std::collections::BTreeSet<usize>,
    b: &std::collections::BTreeSet<usize>,
) -> bool {
    a.intersection(b).next().is_none()
}

// --- Closure is a strict partial order maintained incrementally --------

proptest! {
    #[test]
    fn closure_is_transitive_and_acyclic(
        n in 2usize..15,
        edges in prop::collection::vec((0usize..20, 0usize..20), 0..40),
    ) {
        let mut c = Closure::new();
        let ids: Vec<NodeId> = (0..n).map(|_| c.add_node()).collect();
        for (a, b) in edges {
            let (a, b) = (a % n, b % n);
            // Insert only forward edges so the graph stays acyclic.
            if a < b {
                c.add_edge(ids[a], ids[b]).expect("forward edges cannot cycle");
            }
        }
        for i in 0..n {
            prop_assert!(!c.reaches(ids[i], ids[i]), "strictness violated");
            for j in 0..n {
                for k in 0..n {
                    if c.reaches(ids[i], ids[j]) && c.reaches(ids[j], ids[k]) {
                        prop_assert!(c.reaches(ids[i], ids[k]), "transitivity violated");
                    }
                }
            }
        }
        // The topological order must linearize the relation.
        let order = c.topological_order();
        let pos = |x: NodeId| order.iter().position(|&o| o == x).unwrap();
        for i in 0..n {
            for j in 0..n {
                if c.reaches(ids[i], ids[j]) {
                    prop_assert!(pos(ids[i]) < pos(ids[j]));
                }
            }
        }
    }

    #[test]
    fn closure_rejects_exactly_the_back_edges(
        n in 2usize..12,
        edges in prop::collection::vec((0usize..15, 0usize..15), 1..30),
    ) {
        let mut c = Closure::new();
        let ids: Vec<NodeId> = (0..n).map(|_| c.add_node()).collect();
        for (a, b) in edges {
            let (a, b) = (a % n, b % n);
            if a == b {
                prop_assert!(c.add_edge(ids[a], ids[b]).is_err());
                continue;
            }
            let was_back_edge = c.reaches(ids[b], ids[a]);
            let result = c.add_edge(ids[a], ids[b]);
            prop_assert_eq!(result.is_err(), was_back_edge);
        }
    }
}

// --- Paper invariants over random programs ----------------------------

/// Builds a program from a proptest-chosen seed (keeps proptest shrinking
/// over the seed while reusing the tuned generator).
fn program_from_seed(seed: u64, branchy: bool) -> samm::core::instr::Program {
    let cfg = RandConfig {
        threads: 2,
        ops_per_thread: 4,
        locations: 2,
        fence_prob: 0.15,
        store_prob: 0.5,
        data_dep_prob: 0.25,
        branch_prob: if branchy { 0.3 } else { 0.0 },
        rmw_prob: 0.0,
        addr_dep_prob: 0.0,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    random_program(&mut rng, &cfg)
}

/// Like [`program_from_seed`] but with atomic RMWs mixed in.
fn rmw_program_from_seed(seed: u64) -> samm::core::instr::Program {
    let cfg = RandConfig {
        threads: 2,
        ops_per_thread: 4,
        locations: 2,
        fence_prob: 0.1,
        store_prob: 0.5,
        data_dep_prob: 0.2,
        branch_prob: 0.0,
        rmw_prob: 0.35,
        addr_dep_prob: 0.0,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    random_program(&mut rng, &cfg)
}

fn quick_config() -> EnumConfig {
    EnumConfig {
        keep_executions: false,
        ..EnumConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Graph-model SC equals interleaving SC on arbitrary programs.
    #[test]
    fn sc_graph_equals_sc_interleaving(seed in any::<u64>(), branchy in any::<bool>()) {
        let prog = program_from_seed(seed, branchy);
        let graph = enumerate(&prog, &Policy::sequential_consistency(), &quick_config())
            .unwrap().outcomes;
        let oper = oper::enumerate_sc(&prog, 2_000_000).unwrap();
        prop_assert_eq!(graph, oper);
    }

    /// Graph-model TSO equals the store-buffer machine.
    #[test]
    fn tso_graph_equals_store_buffer(seed in any::<u64>()) {
        let prog = program_from_seed(seed, false);
        let graph = enumerate(&prog, &Policy::tso(), &quick_config()).unwrap().outcomes;
        let oper = oper::enumerate_tso(&prog, 2_000_000).unwrap();
        prop_assert_eq!(graph, oper);
    }

    /// Deduplication never changes the outcome set.
    #[test]
    fn dedup_is_outcome_preserving(seed in any::<u64>()) {
        let prog = program_from_seed(seed, false);
        let with = enumerate(&prog, &Policy::weak(), &quick_config()).unwrap().outcomes;
        let without = enumerate(&prog, &Policy::weak(), &EnumConfig {
            dedup: false,
            keep_executions: false,
            ..EnumConfig::default()
        }).unwrap().outcomes;
        prop_assert_eq!(with, without);
    }

    /// Every weak-model execution is serializable with a valid witness
    /// (Store Atomicity ⇒ serializability).
    #[test]
    fn weak_executions_serialize(seed in any::<u64>()) {
        let prog = program_from_seed(seed, false);
        let result = enumerate(&prog, &Policy::weak(), &EnumConfig::default()).unwrap();
        for exec in &result.executions {
            let order = serialize::find_serialization(exec);
            prop_assert!(order.is_some(), "no serialization for an atomic execution");
            prop_assert!(serialize::validate_serialization(exec, &order.unwrap()).is_ok());
        }
    }

    /// Speculation only adds behaviours, never removes them.
    #[test]
    fn speculation_is_monotone(seed in any::<u64>()) {
        let prog = program_from_seed(seed, true);
        let base = enumerate(&prog, &Policy::weak(), &quick_config()).unwrap().outcomes;
        let spec = enumerate(&prog, &Policy::weak().with_alias_speculation(true), &quick_config())
            .unwrap().outcomes;
        prop_assert!(base.is_subset(&spec));
    }

    /// RMW programs also match the operational machines exactly — the
    /// single-node load+store treatment is equivalent to bus-locked
    /// atomics.
    #[test]
    fn rmw_graph_equals_operational(seed in any::<u64>()) {
        let prog = rmw_program_from_seed(seed);
        let graph_sc = enumerate(&prog, &Policy::sequential_consistency(), &quick_config())
            .unwrap().outcomes;
        let oper_sc = oper::enumerate_sc(&prog, 2_000_000).unwrap();
        prop_assert_eq!(graph_sc, oper_sc);
        let graph_tso = enumerate(&prog, &Policy::tso(), &quick_config()).unwrap().outcomes;
        let oper_tso = oper::enumerate_tso(&prog, 2_000_000).unwrap();
        prop_assert_eq!(graph_tso, oper_tso);
    }

    /// Every atomic-model RMW execution is serializable (RMWs replay as an
    /// adjacent load+store).
    #[test]
    fn rmw_executions_serialize(seed in any::<u64>()) {
        let prog = rmw_program_from_seed(seed);
        let result = enumerate(&prog, &Policy::weak(), &EnumConfig::default()).unwrap();
        for exec in &result.executions {
            let order = serialize::find_serialization(exec);
            prop_assert!(order.is_some());
            prop_assert!(serialize::validate_serialization(exec, &order.unwrap()).is_ok());
        }
    }

    /// Differential: the prune-before-expand engine yields exactly the
    /// serial oracle's outcome set and distinct-execution count on random
    /// programs, across the whole model chain (± speculation). Dominance
    /// pruning and copy-on-write forks must be invisible in the
    /// behaviour set.
    #[test]
    fn pruned_matches_serial_differentially(
        seed in any::<u64>(),
        branchy in any::<bool>(),
    ) {
        let prog = program_from_seed(seed, branchy);
        for policy in [
            Policy::sequential_consistency(),
            Policy::tso(),
            Policy::pso(),
            Policy::weak(),
            Policy::weak().with_alias_speculation(true),
        ] {
            let serial = enumerate(&prog, &policy, &quick_config()).unwrap();
            let pruned = enumerate_pruned(&prog, &policy, &quick_config()).unwrap();
            prop_assert_eq!(
                &serial.outcomes, &pruned.outcomes,
                "outcome sets differ under {}", policy.name()
            );
            prop_assert_eq!(
                serial.stats.distinct_executions, pruned.stats.distinct_executions,
                "execution counts differ under {}", policy.name()
            );
        }
    }

    /// Differential, with executions kept: the pruned engine keeps one
    /// representative per distinct behaviour — exactly the serial
    /// engine's deduplicated canonical-key set.
    #[test]
    fn pruned_kept_executions_equal_serials(seed in any::<u64>(), branchy in any::<bool>()) {
        let prog = program_from_seed(seed, branchy);
        let config = EnumConfig::default();
        let serial = enumerate(&prog, &Policy::weak(), &config).unwrap();
        let pruned = enumerate_pruned(&prog, &Policy::weak(), &config).unwrap();
        let mut serial_keys: Vec<Vec<u8>> =
            serial.executions.iter().map(|b| b.canonical_key()).collect();
        serial_keys.sort();
        serial_keys.dedup();
        let mut pruned_keys: Vec<Vec<u8>> =
            pruned.executions.iter().map(|b| b.canonical_key()).collect();
        pruned_keys.sort();
        prop_assert_eq!(serial_keys, pruned_keys);
    }

    /// Differential over RMW programs: single-node atomics prune through
    /// the same refinement tree on both engines.
    #[test]
    fn pruned_matches_serial_on_rmws(seed in any::<u64>()) {
        let prog = rmw_program_from_seed(seed);
        for policy in [Policy::tso(), Policy::weak()] {
            let serial = enumerate(&prog, &policy, &quick_config()).unwrap();
            let pruned = enumerate_pruned(&prog, &policy, &quick_config()).unwrap();
            prop_assert_eq!(&serial.outcomes, &pruned.outcomes);
            prop_assert_eq!(serial.stats.distinct_executions, pruned.stats.distinct_executions);
        }
    }

    /// Every `Robust` verdict of the static delay-set certifier matches
    /// true behaviour-set equality against SC — the proptest face of the
    /// zero-unsound-claims contract.
    #[test]
    fn robust_verdicts_match_behaviour_equality(seed in any::<u64>(), branchy in any::<bool>()) {
        use samm::analyze::{analyze_static, StaticVerdict};
        let prog = program_from_seed(seed, branchy);
        for policy in [Policy::tso(), Policy::pso(), Policy::weak()] {
            let weak = enumerate_pruned(&prog, &policy, &quick_config()).unwrap().outcomes;
            let sc = enumerate_pruned(&prog, &Policy::sequential_consistency(), &quick_config())
                .unwrap().outcomes;
            match analyze_static(&prog, &policy) {
                StaticVerdict::Robust(cert) => {
                    prop_assert!(cert.check(&prog, &policy),
                                 "certificate fails its own check under {}", policy.name());
                    prop_assert_eq!(
                        &weak, &sc,
                        "unsound robust claim under {}", policy.name()
                    );
                }
                StaticVerdict::CycleFound(cycle) => {
                    prop_assert!(cycle.check(&prog, &policy),
                                 "reported cycle fails its own check under {}", policy.name());
                }
                StaticVerdict::Unknown(_) => {}
            }
        }
    }

    /// Every critical cycle the dynamic layer confirms is realizable:
    /// its witness outcome lies in outcomes(M) ∖ outcomes(SC), and a
    /// `NotRobust` verdict never fires on behaviour-equal pairs.
    #[test]
    fn confirmed_cycles_are_realizable(seed in any::<u64>(), branchy in any::<bool>()) {
        use samm::analyze::{analyze_robustness, Robustness};
        let prog = program_from_seed(seed, branchy);
        for policy in [Policy::tso(), Policy::weak()] {
            let weak = enumerate_pruned(&prog, &policy, &quick_config()).unwrap().outcomes;
            let sc = enumerate_pruned(&prog, &Policy::sequential_consistency(), &quick_config())
                .unwrap().outcomes;
            match analyze_robustness(&prog, &policy, &quick_config()).unwrap() {
                Robustness::Robust(_) => {
                    prop_assert_eq!(&weak, &sc,
                                    "unsound dynamic robust claim under {}", policy.name());
                }
                Robustness::NotRobust { cycle, witness } => {
                    prop_assert!(cycle.check(&prog, &policy));
                    prop_assert!(weak.contains(&witness) && !sc.contains(&witness),
                                 "witness {} not in the weak-minus-SC difference under {}",
                                 witness, policy.name());
                }
                Robustness::Unknown(_) => {}
            }
        }
    }

    /// The coherence simulator always satisfies Store Atomicity and SC.
    #[test]
    fn coherence_runs_are_store_atomic(seed in any::<u64>(), schedule in any::<u64>()) {
        use samm::coherence::{check_trace, CoherentSystem, SystemConfig};
        let prog = program_from_seed(seed, false);
        let run = CoherentSystem::new(&prog, SystemConfig {
            seed: schedule,
            ..SystemConfig::default()
        }).run().unwrap();
        let report = check_trace(&run.trace, |a| prog.initial_value(a));
        prop_assert!(report.consistent);
        let sc = oper::enumerate_sc(&prog, 2_000_000).unwrap();
        prop_assert!(sc.contains(&run.outcome));
    }
}
