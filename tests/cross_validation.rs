//! Operational/axiomatic correspondence: the graph framework's outcome
//! sets must coincide exactly with the operational reference machines —
//! interleaving SC and store-buffer TSO/PSO — on the catalog and on a
//! corpus of random programs.
//!
//! This is the strongest internal evidence that the Store Atomicity
//! enumeration procedure (paper section 4) is correct: two completely
//! independent implementations of each model agree on every program.

use samm::core::enumerate::{enumerate, EnumConfig};
use samm::core::policy::Policy;
use samm::litmus::catalog;
use samm::litmus::rand_prog::{corpus, RandConfig};
use samm::oper;

const STATE_LIMIT: usize = 2_000_000;

fn config() -> EnumConfig {
    EnumConfig {
        keep_executions: false,
        ..EnumConfig::default()
    }
}

fn check_program(program: &samm::core::instr::Program, label: &str) {
    let graph_sc = enumerate(program, &Policy::sequential_consistency(), &config())
        .unwrap_or_else(|e| panic!("{label}: graph SC failed: {e}"))
        .outcomes;
    let oper_sc = oper::enumerate_sc(program, STATE_LIMIT)
        .unwrap_or_else(|e| panic!("{label}: oper SC failed: {e}"));
    assert_eq!(graph_sc, oper_sc, "{label}: SC outcome sets differ");

    let graph_tso = enumerate(program, &Policy::tso(), &config())
        .unwrap_or_else(|e| panic!("{label}: graph TSO failed: {e}"))
        .outcomes;
    let oper_tso = oper::enumerate_tso(program, STATE_LIMIT)
        .unwrap_or_else(|e| panic!("{label}: oper TSO failed: {e}"));
    assert_eq!(graph_tso, oper_tso, "{label}: TSO outcome sets differ");

    let graph_pso = enumerate(program, &Policy::pso(), &config())
        .unwrap_or_else(|e| panic!("{label}: graph PSO failed: {e}"))
        .outcomes;
    let oper_pso = oper::enumerate_pso(program, STATE_LIMIT)
        .unwrap_or_else(|e| panic!("{label}: oper PSO failed: {e}"));
    assert_eq!(graph_pso, oper_pso, "{label}: PSO outcome sets differ");
}

#[test]
fn catalog_programs_agree_with_operational_models() {
    for entry in catalog::all() {
        check_program(&entry.test.program, &entry.test.name);
    }
}

/// Complete small-world correspondence: on EVERY program of the 2×2
/// synthesis family (256 programs), the graph framework equals the
/// operational machines for SC, TSO and PSO. This is exhaustive over the
/// family, not sampled.
#[test]
fn synthesis_family_agrees_exhaustively() {
    use samm::litmus::synthesis::{programs, SynthConfig};
    for (i, prog) in programs(&SynthConfig::default()).enumerate() {
        check_program(&prog, &format!("synth #{i}"));
    }
}

#[test]
fn random_two_thread_programs_agree() {
    let cfg = RandConfig {
        threads: 2,
        ops_per_thread: 4,
        locations: 2,
        fence_prob: 0.2,
        store_prob: 0.5,
        data_dep_prob: 0.25,
        branch_prob: 0.0,
        rmw_prob: 0.0,
        addr_dep_prob: 0.0,
    };
    for (i, prog) in corpus(0xA11CE, 40, &cfg).iter().enumerate() {
        check_program(prog, &format!("random-2t #{i}"));
    }
}

#[test]
fn random_three_thread_programs_agree() {
    let cfg = RandConfig {
        threads: 3,
        ops_per_thread: 3,
        locations: 2,
        fence_prob: 0.15,
        store_prob: 0.5,
        data_dep_prob: 0.2,
        branch_prob: 0.0,
        rmw_prob: 0.0,
        addr_dep_prob: 0.0,
    };
    for (i, prog) in corpus(0xB0B, 15, &cfg).iter().enumerate() {
        check_program(prog, &format!("random-3t #{i}"));
    }
}

#[test]
fn random_programs_with_rmws_agree() {
    let cfg = RandConfig {
        threads: 2,
        ops_per_thread: 4,
        locations: 2,
        fence_prob: 0.1,
        store_prob: 0.5,
        data_dep_prob: 0.2,
        branch_prob: 0.1,
        rmw_prob: 0.35,
        addr_dep_prob: 0.0,
    };
    for (i, prog) in corpus(0xA70, 25, &cfg).iter().enumerate() {
        check_program(prog, &format!("random-rmw #{i}"));
    }
}

#[test]
fn random_programs_with_branches_agree() {
    let cfg = RandConfig {
        threads: 2,
        ops_per_thread: 4,
        locations: 2,
        fence_prob: 0.1,
        store_prob: 0.5,
        data_dep_prob: 0.3,
        branch_prob: 0.35,
        rmw_prob: 0.0,
        addr_dep_prob: 0.0,
    };
    for (i, prog) in corpus(0xCAFE, 25, &cfg).iter().enumerate() {
        check_program(prog, &format!("random-branchy #{i}"));
    }
}

/// A store-atomic model can meet a dead-end fork: the non-speculative
/// candidate rule offers a store whose Store Atomicity closure is cyclic.
/// This 3-thread program of straight-line loads and stores (no fences,
/// no RMWs) hits one under SC; both engines must roll the fork back and
/// agree with the interleaving machine.
#[test]
fn sc_rolls_back_a_dead_end_fork() {
    use samm::core::pruned::enumerate_pruned;
    let cfg = RandConfig {
        threads: 3,
        ..RandConfig::default()
    };
    let program = &corpus(2, 400, &cfg)[81];
    let oper_sc = oper::enumerate_sc(program, STATE_LIMIT).expect("oper SC succeeds");
    assert_eq!(oper_sc.len(), 386);
    let sc = Policy::sequential_consistency();
    let serial = enumerate(program, &sc, &config()).expect("serial SC succeeds");
    let pruned = enumerate_pruned(program, &sc, &config()).expect("pruned SC succeeds");
    assert_eq!(serial.outcomes, oper_sc);
    assert_eq!(pruned.outcomes, oper_sc);
    assert!(serial.stats.rolled_back > 0, "the dead end is rolled back");
    assert!(pruned.stats.rolled_back > 0, "the dead end is rolled back");
}
