//! Paper section 4.2, executable: "We can view a cache coherence protocol
//! as a conservative approximation to Store Atomicity."
//!
//! Every run of the MSI directory simulator — across many randomized
//! message/schedule interleavings — must (a) yield a trace whose execution
//! graph closes under the Store Atomicity rules without a cycle, and
//! (b) produce an outcome that interleaving SC also produces (SC cores +
//! coherence = SC).

use samm::coherence::{check_trace, CoherentSystem, SystemConfig};
use samm::litmus::catalog;
use samm::litmus::rand_prog::{corpus, RandConfig};
use samm::oper;

const SEEDS: u64 = 25;

fn check_program(program: &samm::core::instr::Program, label: &str) {
    let sc = oper::enumerate_sc(program, 2_000_000)
        .unwrap_or_else(|e| panic!("{label}: SC enumeration failed: {e}"));
    for seed in 0..SEEDS {
        let run = CoherentSystem::new(
            program,
            SystemConfig {
                seed,
                ..SystemConfig::default()
            },
        )
        .run()
        .unwrap_or_else(|e| panic!("{label}: seed {seed} failed: {e}"));

        // (a) Store Atomicity conformance of the observed trace.
        let report = check_trace(&run.trace, |a| program.initial_value(a));
        assert!(
            report.consistent,
            "{label}: seed {seed} produced a Store Atomicity violation: {:?}",
            report.violation
        );

        // (b) The outcome is sequentially consistent.
        assert!(
            sc.contains(&run.outcome),
            "{label}: seed {seed} produced a non-SC outcome {}",
            run.outcome
        );
    }
}

#[test]
fn catalog_programs_run_coherently() {
    for entry in catalog::all() {
        check_program(&entry.test.program, &entry.test.name);
    }
}

#[test]
fn random_programs_run_coherently() {
    let cfg = RandConfig {
        threads: 3,
        ops_per_thread: 4,
        locations: 2,
        fence_prob: 0.1,
        store_prob: 0.5,
        data_dep_prob: 0.2,
        branch_prob: 0.15,
        rmw_prob: 0.0,
        addr_dep_prob: 0.0,
    };
    for (i, prog) in corpus(0xD1CE, 20, &cfg).iter().enumerate() {
        check_program(prog, &format!("random #{i}"));
    }
}

#[test]
fn random_rmw_programs_run_coherently() {
    let cfg = RandConfig {
        threads: 2,
        ops_per_thread: 4,
        locations: 2,
        fence_prob: 0.05,
        store_prob: 0.5,
        data_dep_prob: 0.2,
        branch_prob: 0.1,
        rmw_prob: 0.4,
        addr_dep_prob: 0.0,
    };
    for (i, prog) in corpus(0xFAA, 15, &cfg).iter().enumerate() {
        check_program(prog, &format!("random-rmw #{i}"));
    }
}

#[test]
fn contended_single_line_is_coherent() {
    // Heavy contention on one address stresses ownership migration,
    // forwarding and invalidation.
    use samm::core::ids::Reg;
    use samm::core::instr::{Instr, Program, ThreadProgram};
    let thread = |base: u64| {
        ThreadProgram::new(vec![
            Instr::Store {
                addr: 0u64.into(),
                val: base.into(),
            },
            Instr::Load {
                dst: Reg::new(0),
                addr: 0u64.into(),
            },
            Instr::Store {
                addr: 0u64.into(),
                val: (base + 1).into(),
            },
            Instr::Load {
                dst: Reg::new(1),
                addr: 0u64.into(),
            },
        ])
    };
    let prog = Program::new(vec![thread(10), thread(20), thread(30)]);
    check_program(&prog, "contended");
}

#[test]
fn protocol_stats_reflect_sharing_patterns() {
    use samm::core::ids::Reg;
    use samm::core::instr::{Instr, Program, ThreadProgram};
    // Many readers of one location: misses once each, no invalidations
    // until the writer arrives.
    let reader = ThreadProgram::new(vec![Instr::Load {
        dst: Reg::new(0),
        addr: 0u64.into(),
    }]);
    let prog = Program::new(vec![reader.clone(), reader.clone(), reader]);
    let run = CoherentSystem::new(&prog, SystemConfig::default())
        .run()
        .unwrap();
    assert_eq!(
        run.stats.invalidations, 0,
        "read-only sharing never invalidates"
    );
    assert_eq!(run.stats.misses, 3);
}
