//! Model bracketing (paper section 6): "We can bracket TSO on either side
//! by models which treat every thread the same way", and more generally
//! the outcome-set inclusion chains
//!
//! ```text
//! SC ⊆ TSO ⊆ PSO
//! NaiveTSO ⊆ TSO
//! SC ⊆ NaiveTSO ⊆ Weak ⊆ Weak+spec
//! ```
//!
//! must hold on every program. Naive TSO sits strictly *inside* real TSO
//! on bypass-dependent programs (Figure 11 center). Real TSO and PSO are
//! *not* inside Weak: a load that TSO's store buffer forwards may feed an
//! address dependency, which Weak's `x ≠ y` entry for a same-address
//! store→load pair orders behind the store (reproduction finding 4,
//! [`tso_and_pso_are_not_contained_in_weak`]).

use samm::core::enumerate::{enumerate, EnumConfig};
use samm::core::ids::Reg;
use samm::core::instr::{BinOp, Instr, Program, ThreadProgram};
use samm::core::outcome::{Outcome, OutcomeSet};
use samm::core::pruned::enumerate_pruned;
use samm::litmus::catalog;
use samm::litmus::rand_prog::{corpus, RandConfig};
use samm::litmus::ModelSel;
use samm::oper;

/// The inclusion chains that hold, each strongest first.
const CHAINS: [&[ModelSel]; 3] = [
    &[ModelSel::Sc, ModelSel::Tso, ModelSel::Pso],
    &[ModelSel::NaiveTso, ModelSel::Tso],
    &[
        ModelSel::Sc,
        ModelSel::NaiveTso,
        ModelSel::Weak,
        ModelSel::WeakSpec,
    ],
];

fn config() -> EnumConfig {
    EnumConfig {
        keep_executions: false,
        ..EnumConfig::default()
    }
}

fn chain_outcomes(program: &Program, chain: &[ModelSel]) -> Vec<(ModelSel, OutcomeSet)> {
    chain
        .iter()
        .map(|&model| {
            let outcomes = enumerate(program, &model.policy(), &config())
                .unwrap_or_else(|e| panic!("{}: {e}", model.name()))
                .outcomes;
            (model, outcomes)
        })
        .collect()
}

fn assert_chain(program: &Program, label: &str) {
    for chain in CHAINS {
        let sets = chain_outcomes(program, chain);
        for pair in sets.windows(2) {
            let (weaker_model, stronger_set) = (&pair[1].0, &pair[0].1);
            assert!(
                stronger_set.is_subset(&pair[1].1),
                "{label}: {} outcomes must include {} outcomes",
                weaker_model.name(),
                pair[0].0.name(),
            );
        }
    }
}

#[test]
fn catalog_respects_the_inclusion_chain() {
    for entry in catalog::all() {
        assert_chain(&entry.test.program, &entry.test.name);
    }
}

#[test]
fn random_programs_respect_the_inclusion_chain() {
    let cfg = RandConfig {
        threads: 2,
        ops_per_thread: 4,
        locations: 2,
        fence_prob: 0.2,
        store_prob: 0.5,
        data_dep_prob: 0.25,
        branch_prob: 0.15,
        rmw_prob: 0.0,
        addr_dep_prob: 0.0,
    };
    for (i, prog) in corpus(0xBEEF, 40, &cfg).iter().enumerate() {
        assert_chain(prog, &format!("random #{i}"));
    }
}

#[test]
fn naive_tso_is_contained_in_tso_everywhere() {
    for entry in catalog::all() {
        let naive = enumerate(&entry.test.program, &ModelSel::NaiveTso.policy(), &config())
            .unwrap()
            .outcomes;
        let tso = enumerate(&entry.test.program, &ModelSel::Tso.policy(), &config())
            .unwrap()
            .outcomes;
        assert!(
            naive.is_subset(&tso),
            "{}: naive TSO must only remove behaviours",
            entry.test.name
        );
    }
}

#[test]
fn strict_inclusions_are_witnessed_somewhere() {
    // Each adjacent pair of each chain must be *strictly* separated by
    // some catalog program — the models are genuinely different.
    for chain in CHAINS {
        let mut separated = vec![false; chain.len() - 1];
        for entry in catalog::all() {
            let sets = chain_outcomes(&entry.test.program, chain);
            for (i, pair) in sets.windows(2).enumerate() {
                if pair[0].1 != pair[1].1 {
                    separated[i] = true;
                }
            }
        }
        for (i, sep) in separated.iter().enumerate() {
            assert!(
                sep,
                "no catalog program separates {} from {}",
                chain[i].name(),
                chain[i + 1].name()
            );
        }
    }
}

/// Reproduction finding 4: TSO ⊄ Weak. With x at address 1 and y at 2,
///
/// ```text
/// T0: st [1]=1; r0=ld [1]; r1=r0+1; r2=ld [r1]     T1: st [2]=1; fence; r0=ld [1]
/// ```
///
/// TSO forwards T0's buffered store to its load (`r0=1`), whose value
/// addresses y, read before T1's store is visible (`r2=0`), while T1's
/// load of x still misses T0's buffered store (`T1:r0=0`). Weak orders
/// the same-address store→load pair (`x ≠ y`), and the address
/// dependency orders the load of y behind it, so Store Atomicity closes
/// a cycle. This is TSO's forwarding as Colvin and Smith write it
/// (arXiv:1812.00996): a load passes an earlier same-address store by
/// taking its value — the paper's §6 bypass cell, not a reordering any
/// store-atomic table without it allows.
#[test]
fn tso_and_pso_are_not_contained_in_weak() {
    let r = Reg::new;
    let program = Program::new(vec![
        ThreadProgram::new(vec![
            Instr::Store {
                addr: 1u64.into(),
                val: 1u64.into(),
            },
            Instr::Load {
                dst: r(0),
                addr: 1u64.into(),
            },
            Instr::Binop {
                dst: r(1),
                op: BinOp::Add,
                lhs: r(0).into(),
                rhs: 1u64.into(),
            },
            Instr::Load {
                dst: r(2),
                addr: r(1).into(),
            },
        ]),
        ThreadProgram::new(vec![
            Instr::Store {
                addr: 2u64.into(),
                val: 1u64.into(),
            },
            Instr::Fence,
            Instr::Load {
                dst: r(0),
                addr: 1u64.into(),
            },
        ]),
    ]);
    let witness = |o: &Outcome| {
        o.reg(0, r(0)).raw() == 1 && o.reg(0, r(2)).raw() == 0 && o.reg(1, r(0)).raw() == 0
    };
    let observed = |set: &OutcomeSet| set.iter().any(witness);
    for model in ModelSel::ALL {
        let policy = model.policy();
        let serial = enumerate(&program, &policy, &config()).unwrap().outcomes;
        let pruned = enumerate_pruned(&program, &policy, &config())
            .unwrap()
            .outcomes;
        assert_eq!(serial, pruned, "{model}");
        let allowed = matches!(model, ModelSel::Tso | ModelSel::Pso);
        assert_eq!(observed(&serial), allowed, "{model}");
        let expected_size = match model {
            ModelSel::Tso | ModelSel::Pso => Some(4),
            ModelSel::Weak | ModelSel::WeakSpec => Some(3),
            _ => None,
        };
        if let Some(size) = expected_size {
            assert_eq!(serial.len(), size, "{model}");
        }
    }
    for (name, machine) in [
        ("TSO", oper::enumerate_tso as fn(&Program, usize) -> _),
        ("PSO", oper::enumerate_pso),
    ] {
        let outcomes = machine(&program, 100_000).expect("the machine finishes");
        assert!(observed(&outcomes), "operational {name}");
    }
}
