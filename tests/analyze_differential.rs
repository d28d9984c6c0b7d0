//! Differential validation of `samm-analyze` against the enumerators.
//!
//! The analyzer never enumerates, so every claim it makes is checked here
//! against exhaustive enumeration ground truth:
//!
//! * an SC-equivalence **certificate** under model M must mean the outcome
//!   set under M equals the SC outcome set — checked over the entire
//!   catalog under both the serial and the work-stealing engine, and over
//!   a random program corpus (no false certificates, by sweep);
//! * a **race-free** report on a straight-line program must agree with the
//!   dynamic well-synchronized discipline of `core::sync`, and implies a
//!   DRF certificate under every shipped model;
//! * every reported **read/write race** on the exact fragment
//!   (straight-line, static addresses, no RMWs) must be *realizable*: the
//!   racing load really sees more than one eligible source in some
//!   enumerated behaviour, and every write/write race really occurs in
//!   both coherence orders across SC executions.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::prelude::*;

use samm::analyze::{certify, find_races, harness, RaceKind};
use samm::core::enumerate::{enumerate, EnumConfig};
use samm::core::ids::ThreadId;
use samm::core::policy::Policy;
use samm::core::pruned::enumerate_pruned;
use samm::core::sync::check_well_synchronized;
use samm::litmus::catalog;
use samm::litmus::rand_prog::{random_program, RandConfig};

fn chain() -> [Policy; 4] {
    [
        Policy::sequential_consistency(),
        Policy::tso(),
        Policy::pso(),
        Policy::weak(),
    ]
}

fn fast() -> EnumConfig {
    EnumConfig {
        keep_executions: false,
        ..EnumConfig::default()
    }
}

/// A certificate under any model must reproduce the SC outcome set —
/// checked for every catalog entry under every shipped model, with both
/// engines. Conversely, whenever the outcome sets *differ*, the analyzer
/// must have declined: a full no-false-certificate sweep.
#[test]
fn catalog_certificates_match_enumeration_exactly() {
    let serial_config = fast();
    let mut certified = 0usize;
    for entry in catalog::all() {
        let program = &entry.test.program;
        let sc = enumerate(program, &Policy::sequential_consistency(), &serial_config)
            .expect("SC enumeration succeeds")
            .outcomes;
        for policy in chain() {
            let outcomes = enumerate(program, &policy, &serial_config)
                .expect("enumeration succeeds")
                .outcomes;
            match certify(program, &policy) {
                Some(cert) => {
                    certified += 1;
                    assert!(
                        cert.check(program, &policy),
                        "{} under {}: certificate fails its own check",
                        entry.test.name,
                        policy.name()
                    );
                    assert_eq!(
                        outcomes,
                        sc,
                        "{} under {}: FALSE CERTIFICATE — outcome sets differ",
                        entry.test.name,
                        policy.name()
                    );
                    let pruned = enumerate_pruned(program, &policy, &serial_config)
                        .expect("pruned enumeration succeeds")
                        .outcomes;
                    assert_eq!(
                        pruned,
                        sc,
                        "{} under {}: pruned engine disagrees with certificate",
                        entry.test.name,
                        policy.name()
                    );
                }
                None => {
                    // Declining is always sound; nothing to check. But the
                    // divergent cases MUST land here.
                    if outcomes != sc {
                        // e.g. SB/fig10 under weak models — reaching this
                        // arm is the expected behaviour.
                    }
                }
            }
        }
    }
    assert!(
        certified >= 30,
        "only {certified} certified (entry, model) pairs — the sweep lost its teeth"
    );
}

/// At least one catalog program must *diverge* between SC and a weak
/// model while the analyzer reports races and declines the certificate —
/// otherwise the no-false-certificate sweep above is vacuous.
#[test]
fn racy_catalog_programs_genuinely_diverge_and_are_declined() {
    let config = fast();
    let mut diverged = 0usize;
    for (entry, policy) in [
        (catalog::sb(), Policy::weak()),
        (catalog::fig10(), Policy::tso()),
    ] {
        let program = &entry.test.program;
        let sc = enumerate(program, &Policy::sequential_consistency(), &config)
            .unwrap()
            .outcomes;
        let weak = enumerate(program, &policy, &config).unwrap().outcomes;
        assert_ne!(
            sc,
            weak,
            "{} under {} no longer diverges from SC",
            entry.test.name,
            policy.name()
        );
        assert!(
            certify(program, &policy).is_none(),
            "{} under {}: certificate issued for a divergent program",
            entry.test.name,
            policy.name()
        );
        assert!(
            !find_races(program, &policy).races.is_empty(),
            "{}: divergence without a reported race",
            entry.test.name
        );
        diverged += 1;
    }
    assert_eq!(diverged, 2);
}

/// Random-corpus sweep of the certifier: fence-heavy straight-line
/// programs produce plenty of certificates, and each one must reproduce
/// the SC outcome set under both engines.
#[test]
fn random_corpus_certificates_match_enumeration() {
    let gen_config = RandConfig {
        threads: 2,
        ops_per_thread: 4,
        locations: 2,
        fence_prob: 0.35,
        store_prob: 0.5,
        data_dep_prob: 0.3,
        branch_prob: 0.0,
        rmw_prob: 0.1,
        addr_dep_prob: 0.0,
    };
    let serial_config = fast();
    let mut rng = StdRng::seed_from_u64(0x5a33);
    let mut certified = 0usize;
    for _ in 0..40 {
        let program = random_program(&mut rng, &gen_config);
        let sc = enumerate(&program, &Policy::sequential_consistency(), &serial_config)
            .expect("SC enumeration succeeds")
            .outcomes;
        for policy in chain() {
            if !harness::checked_certifier(&program, &policy) {
                continue;
            }
            certified += 1;
            let serial = enumerate(&program, &policy, &serial_config)
                .expect("enumeration succeeds")
                .outcomes;
            assert_eq!(
                serial,
                sc,
                "FALSE CERTIFICATE under {} for:\n{program:#?}",
                policy.name()
            );
            let pruned = enumerate_pruned(&program, &policy, &serial_config)
                .expect("pruned enumeration succeeds")
                .outcomes;
            assert_eq!(pruned, sc, "pruned engine disagrees");
        }
    }
    assert!(
        certified >= 40,
        "only {certified} certified cases across the corpus — raise fence_prob"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Branchy programs included: whenever the certifier says yes, the
    /// outcome sets must coincide. (Branches mostly defeat the
    /// total-order certificate but exercise the DRF path.)
    #[test]
    fn prop_certificates_never_lie(seed in 0u64..1_000_000, branchy in prop::bool::ANY) {
        let gen_config = RandConfig {
            threads: 2,
            ops_per_thread: 3,
            locations: 3,
            fence_prob: 0.25,
            store_prob: 0.5,
            data_dep_prob: 0.3,
            branch_prob: if branchy { 0.3 } else { 0.0 },
            rmw_prob: 0.1,
            addr_dep_prob: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let program = random_program(&mut rng, &gen_config);
        let config = fast();
        let sc = enumerate(&program, &Policy::sequential_consistency(), &config)
            .expect("SC enumeration succeeds")
            .outcomes;
        for policy in chain() {
            if harness::checked_certifier(&program, &policy) {
                let outcomes = enumerate(&program, &policy, &config)
                    .expect("enumeration succeeds")
                    .outcomes;
                prop_assert_eq!(
                    &outcomes, &sc,
                    "FALSE CERTIFICATE under {} for:\n{:#?}", policy.name(), program
                );
            }
        }
    }

    /// Static race freedom implies the dynamic well-synchronized
    /// discipline (with an empty synchronization set) and a DRF/total
    /// certificate under every shipped model; static races on the exact
    /// fragment (straight-line, plain, static addresses) are realizable.
    #[test]
    fn prop_races_agree_with_dynamic_ground_truth(seed in 0u64..1_000_000) {
        let gen_config = RandConfig {
            threads: 2,
            ops_per_thread: 3,
            locations: 4,
            fence_prob: 0.15,
            store_prob: 0.5,
            data_dep_prob: 0.25,
            branch_prob: 0.0,
            rmw_prob: 0.0,
            addr_dep_prob: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let program = random_program(&mut rng, &gen_config);
        let config = fast();
        let policy = Policy::weak();
        let report = find_races(&program, &policy);
        let sync = check_well_synchronized(&program, &policy, &config, &BTreeSet::new())
            .expect("sync check succeeds");

        // Soundness: dynamically racy loads must be statically reported.
        for &(thread, issue) in &sync.racy_loads {
            prop_assert!(
                report.races.iter().any(|r| [&r.first, &r.second].iter().any(
                    |a| a.thread == thread && a.issue_index == issue
                )),
                "dynamic racy load ({thread}, {issue}) missing from static report\n{program:#?}"
            );
        }

        // Realizability: on this exact fragment every static read/write
        // race's load really observes >1 candidate in some behaviour.
        for race in &report.races {
            if race.kind != RaceKind::ReadWrite {
                continue;
            }
            let load = if race.first.writes() { &race.second } else { &race.first };
            prop_assert!(
                sync.racy_loads.contains(&(load.thread, load.issue_index)),
                "static race not realized dynamically: {}\n{program:#?}",
                race.witness()
            );
        }

        if report.is_race_free() {
            prop_assert!(sync.is_well_synchronized());
            for policy in chain() {
                prop_assert!(
                    certify(&program, &policy).is_some(),
                    "race-free program declined under {}\n{program:#?}",
                    policy.name()
                );
            }
        }
    }
}

/// Write/write races are realizable too: the racing stores have no fixed
/// order across SC executions. Store Atomicity only orders conflicting
/// stores when a load forces it, so the dynamic reading of "no guaranteed
/// happens-before" is that neither direction holds in *every* execution —
/// either both orders occur, or some execution leaves the pair unordered.
/// (Plain `#[test]` with a fixed sweep — needs `keep_executions`.)
#[test]
fn write_write_races_have_no_fixed_order() {
    let gen_config = RandConfig {
        threads: 2,
        ops_per_thread: 3,
        locations: 2,
        fence_prob: 0.1,
        store_prob: 0.8,
        data_dep_prob: 0.0,
        branch_prob: 0.0,
        rmw_prob: 0.0,
        addr_dep_prob: 0.0,
    };
    let config = EnumConfig {
        keep_executions: true,
        ..EnumConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(0x7177);
    let mut checked = 0usize;
    for _ in 0..12 {
        let program = random_program(&mut rng, &gen_config);
        let report = find_races(&program, &Policy::sequential_consistency());
        let result = enumerate(&program, &Policy::sequential_consistency(), &config)
            .expect("enumeration succeeds");
        for race in &report.races {
            if race.kind != RaceKind::WriteWrite {
                continue;
            }
            let (mut always_ab, mut always_ba) = (true, true);
            assert!(!result.executions.is_empty());
            for behavior in &result.executions {
                let graph = behavior.graph();
                let find = |thread: usize, issue: u32| {
                    graph
                        .iter()
                        .find(|(_, n)| {
                            n.thread() == ThreadId::new(thread) && n.index_in_thread() == issue
                        })
                        .map(|(id, _)| id)
                        .expect("racing store present in every execution")
                };
                let a = find(race.first.thread, race.first.issue_index);
                let b = find(race.second.thread, race.second.issue_index);
                always_ab &= graph.precedes(a, b);
                always_ba &= graph.precedes(b, a);
            }
            assert!(
                !always_ab && !always_ba,
                "write/write race has a fixed dynamic order: {}\n{program:#?}",
                race.witness()
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 5,
        "only {checked} write/write races swept — raise store_prob"
    );
}
