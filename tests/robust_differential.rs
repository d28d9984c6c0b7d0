//! Differential fortress for the delay-set robustness certifier: every
//! static verdict checked against the pruned-enumeration oracle.
//!
//! Three layers:
//!
//! 1. **Catalog sweep** — every catalog entry under the full store-atomic
//!    chain (± speculation). A `Robust` verdict must coincide with
//!    outcome-set equality against SC (zero unsound claims — this is the
//!    soundness acceptance test), every reported critical cycle must
//!    re-check and, when the dynamic layer confirms it, realize a
//!    concrete witness outcome in the weak-minus-SC difference.
//! 2. **Random corpus** — a seeded corpus of generated programs across
//!    the same generator shapes as `pruned_differential.rs` (default 100,
//!    CI raises to 500 via `SAMM_DIFF_CORPUS`), asserting the same
//!    soundness contract; the seed is fixed so failures reproduce
//!    byte-for-byte.
//! 3. **Synthesis cross-validation** — cycle-guided fence synthesis
//!    ([`samm::analyze::synthesize_with_robust_seed`]) must return
//!    exactly the enumeration-based synthesizer's minimal placement on
//!    every fixable catalog entry, and the purely static
//!    [`samm::analyze::break_cycles`] placement must make the program
//!    statically robust when one exists.
//!
//! Soundness is one-directional by design: `CycleFound` may be a false
//! alarm on an equal-outcome pair (the static analysis over-approximates
//! reorderability) — the dynamic `analyze_robustness` layer resolves
//! exactly those cases and is held to the two-sided contract here.

use samm::analyze::{analyze_robustness, analyze_static, break_cycles, Robustness, StaticVerdict};
use samm::core::enumerate::EnumConfig;
use samm::core::instr::Program;
use samm::core::policy::Policy;
use samm::core::pruned::enumerate_pruned;
use samm::litmus::fences::synthesize_fences;
use samm::litmus::rand_prog::{random_program, RandConfig};
use samm::litmus::{catalog, ModelSel};

use rand::prelude::*;

const MODELS: [ModelSel; 5] = [
    ModelSel::Sc,
    ModelSel::Tso,
    ModelSel::Pso,
    ModelSel::Weak,
    ModelSel::WeakSpec,
];

fn fresh_config() -> EnumConfig {
    EnumConfig::builder().keep_executions(false).build()
}

/// The two-sided contract for one (program, policy) pair: static
/// `Robust` implies outcome-set equality with SC; a dynamically
/// confirmed cycle implies strict inequality with a concrete witness;
/// `Unknown` implies nothing (and asserts nothing).
fn assert_verdict_sound(program: &Program, policy: &Policy, label: &str) {
    let config = fresh_config();
    let sc = Policy::sequential_consistency();
    let weak_run = enumerate_pruned(program, policy, &config).expect("pruned oracle succeeds");
    let sc_run = enumerate_pruned(program, &sc, &config).expect("pruned oracle succeeds");
    let equal = weak_run.outcomes == sc_run.outcomes;

    match analyze_static(program, policy) {
        StaticVerdict::Robust(cert) => {
            assert!(
                cert.check(program, policy),
                "{label}: robustness certificate fails its own check"
            );
            assert!(
                equal,
                "{label}: UNSOUND robust claim — {} outcomes vs {} under SC",
                weak_run.outcomes.len(),
                sc_run.outcomes.len()
            );
        }
        StaticVerdict::CycleFound(cycle) => {
            assert!(
                cycle.check(program, policy),
                "{label}: reported cycle fails its own check"
            );
        }
        StaticVerdict::Unknown(_) => {}
    }

    match analyze_robustness(program, policy, &config).expect("dynamic analysis succeeds") {
        Robustness::Robust(_) => {
            assert!(equal, "{label}: UNSOUND robust claim (dynamic path)");
        }
        Robustness::NotRobust { cycle, witness } => {
            assert!(
                !equal,
                "{label}: NotRobust verdict but the outcome sets are equal"
            );
            assert!(
                cycle.check(program, policy),
                "{label}: confirmed cycle fails its own check"
            );
            assert!(
                weak_run.outcomes.contains(&witness) && !sc_run.outcomes.contains(&witness),
                "{label}: witness {witness} is not in the weak-minus-SC difference"
            );
        }
        Robustness::Unknown(_) => {
            // `Unknown` must only hide *equal* pairs when it came from an
            // unrealizable cycle; a diverging pair the static layer saw a
            // cycle for must be confirmed. Divergence with a genuinely
            // undecidable program (branches, pointers) is fine.
            if let StaticVerdict::CycleFound(_) = analyze_static(program, policy) {
                assert!(
                    equal,
                    "{label}: outcome sets differ but the cycle was called unrealizable"
                );
            }
        }
    }
}

/// Layer 1: the whole catalog under the whole model chain.
#[test]
fn robustness_verdicts_are_sound_on_full_catalog() {
    for entry in catalog::all() {
        for model in MODELS {
            assert_verdict_sound(
                &entry.test.program,
                &model.policy(),
                &format!("{} under {}", entry.test.name, model.name()),
            );
        }
    }
}

/// Corpus size: `SAMM_DIFF_CORPUS` (CI sets 500), default 100.
fn corpus_size() -> usize {
    std::env::var("SAMM_DIFF_CORPUS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100)
}

/// The generator shapes of `pruned_differential.rs`: plain racy,
/// branchy (exercises the `Unknown` guard), fence-heavy (exercises
/// `Robust`), RMW-mixed.
fn shapes() -> [RandConfig; 4] {
    let base = RandConfig {
        threads: 2,
        ops_per_thread: 4,
        locations: 2,
        fence_prob: 0.15,
        store_prob: 0.5,
        data_dep_prob: 0.25,
        branch_prob: 0.0,
        rmw_prob: 0.0,
        addr_dep_prob: 0.0,
    };
    [
        base.clone(),
        RandConfig {
            branch_prob: 0.3,
            ..base.clone()
        },
        RandConfig {
            fence_prob: 0.5,
            ..base.clone()
        },
        RandConfig {
            rmw_prob: 0.35,
            ..base
        },
    ]
}

/// Layer 2: the seeded random corpus. Program `i` of shape `s` is fully
/// determined by `(i, s)`; the seed constant differs from
/// `pruned_differential.rs` so the two fortresses cover disjoint
/// programs.
#[test]
fn robustness_verdicts_are_sound_on_seeded_corpus() {
    let shapes = shapes();
    let n = corpus_size();
    for i in 0..n {
        let shape = i % shapes.len();
        let mut rng = StdRng::seed_from_u64(0x0B57_C10E ^ (i as u64));
        let program = random_program(&mut rng, &shapes[shape]);
        for model in MODELS {
            assert_verdict_sound(
                &program,
                &model.policy(),
                &format!("corpus program {i} (shape {shape}) under {}", model.name()),
            );
        }
    }
}

/// Layer 3a: the cycle-guided synthesis budget preserves exact
/// minimality — seeded and unseeded synthesis agree on placement count
/// (and on unfixability) for every catalog entry with a forbidden
/// condition, under every weak model of the chain.
#[test]
fn seeded_synthesis_is_exactly_minimal_on_catalog() {
    use samm::analyze::synthesize_with_robust_seed;
    let config = fresh_config();
    // Entries small enough for unseeded synthesis to stay cheap; each
    // has condition 0 as a meaningful forbidden/allowed condition.
    for entry in [
        catalog::sb(),
        catalog::mp(),
        catalog::corr(),
        catalog::lb(),
        catalog::mp_fence_producer_only(),
    ] {
        for model in [ModelSel::Tso, ModelSel::Pso, ModelSel::Weak] {
            let policy = model.policy();
            let seeded = synthesize_with_robust_seed(
                &entry.test.program,
                &entry.test.conditions[0],
                &policy,
                &config,
            )
            .expect("seeded synthesis succeeds");
            let unseeded = synthesize_fences(
                &entry.test.program,
                &entry.test.conditions[0],
                &policy,
                4,
                &config,
            )
            .expect("unseeded synthesis succeeds");
            match (&seeded, &unseeded) {
                (Some(s), Some(u)) => assert_eq!(
                    s.placements.len(),
                    u.placements.len(),
                    "{} under {}: seeded synthesis lost minimality",
                    entry.test.name,
                    model.name()
                ),
                (None, None) => {}
                _ => panic!(
                    "{} under {}: seeded={:?} unseeded={:?} disagree on fixability",
                    entry.test.name,
                    model.name(),
                    seeded.as_ref().map(|f| f.placements.len()),
                    unseeded.as_ref().map(|f| f.placements.len()),
                ),
            }
        }
    }
}

/// Layer 3b: `break_cycles` placements actually certify — inserting the
/// returned fences makes the program statically robust, verified by the
/// oracle to be outcome-equal to SC.
#[test]
fn break_cycles_placements_certify_against_the_oracle() {
    use samm::litmus::fences::insert_fence;
    let config = fresh_config();
    for entry in [
        catalog::sb(),
        catalog::mp(),
        catalog::corr(),
        catalog::iriw(),
    ] {
        for model in [ModelSel::Pso, ModelSel::Weak] {
            let policy = model.policy();
            let Some(slots) = break_cycles(&entry.test.program, &policy) else {
                panic!(
                    "{} under {}: straight-line entry must admit a static placement",
                    entry.test.name,
                    model.name()
                );
            };
            let program = &entry.test.program;
            let mut by_thread: Vec<Vec<usize>> = vec![Vec::new(); program.threads().len()];
            for &(t, pos) in &slots {
                by_thread[t].push(pos);
            }
            let threads = program
                .threads()
                .iter()
                .zip(by_thread.iter_mut())
                .map(|(thread, positions)| {
                    positions.sort_unstable_by(|a, b| b.cmp(a));
                    let mut fenced = thread.clone();
                    for &pos in positions.iter() {
                        fenced = insert_fence(&fenced, pos);
                    }
                    fenced
                })
                .collect();
            let fenced = Program::with_init(threads, program.init_entries().collect());
            assert!(
                matches!(analyze_static(&fenced, &policy), StaticVerdict::Robust(_)),
                "{} under {}: placement does not certify",
                entry.test.name,
                model.name()
            );
            let weak_run =
                enumerate_pruned(&fenced, &policy, &config).expect("pruned oracle succeeds");
            let sc_run = enumerate_pruned(&fenced, &Policy::sequential_consistency(), &config)
                .expect("pruned oracle succeeds");
            assert_eq!(
                weak_run.outcomes,
                sc_run.outcomes,
                "{} under {}: fenced program is not SC-equal",
                entry.test.name,
                model.name()
            );
        }
    }
}
