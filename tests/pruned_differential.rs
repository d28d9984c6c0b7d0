//! Full-scale differential fortress: the prune-before-expand engine vs
//! the untouched serial oracle.
//!
//! Two layers:
//!
//! 1. **Catalog sweep** — every entry of the litmus catalog under every
//!    model of the chain (± speculation), asserting behaviour-set
//!    equality: identical outcome *sets* (not just counts) and identical
//!    distinct-execution counts.
//! 2. **Random corpus** — a seeded corpus of generated programs across
//!    several generator shapes (branchy, fence-heavy, RMW-mixed),
//!    sweeping the model chain on each. The corpus size defaults to 100
//!    programs and is raised in CI via `SAMM_DIFF_CORPUS=500`; the seed
//!    is fixed so failures reproduce byte-for-byte.
//!
//! Both layers also check the goal-directed searches, which run on the
//! pruned engine's behaviour stream: [`find_witness`] finds a witness
//! exactly when the serial outcome set satisfies the goal, and it is the
//! first match of the whole (unpinned) goal stream; every witness
//! replays; [`refute`] agrees on observability and every blocked proof
//! it returns verifies. The §8 discipline check, which drains the same
//! stream, is checked against the serial oracle too.
//!
//! Both layers also check table views ([`TableView`]): two models with
//! equal views of a program must run identically on both engines, which
//! is what lets the verdict harness enumerate once per view.
//!
//! These are the acceptance tests for the pruned engine's soundness
//! claims (dominance pruning, copy-on-write forks): neither may be
//! visible in the behaviour set.

use samm::analyze::harness::drf_certifier;
use samm::core::cache::{CachedResult, EnumCache};
use samm::core::enumerate::{enumerate, EnumConfig, EnumResult};
use samm::core::error::EnumError;
use samm::core::explain::{find_witness, refute, Goal, Refutation, RefuteOutcome, Witness};
use samm::core::fingerprint::query_fingerprint;
use samm::core::ids::{Reg, Value};
use samm::core::instr::Program;
use samm::core::outcome::OutcomeSet;
use samm::core::policy::Policy;
use samm::core::pruned::{enumerate_pruned, stream};
use samm::core::static_order::TableView;
use samm::core::sync::check_well_synchronized;
use samm::litmus::expect::{self, Certifier, EntryReport, VerdictPlan};
use samm::litmus::rand_prog::{random_program, RandConfig};
use samm::litmus::{catalog, CatalogEntry, CompiledCondition, CompiledLitmus, CondKind, ModelSel};

use std::collections::{BTreeSet, HashSet};

use proptest::prelude::*;
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

fn assert_engines_agree(program: &Program, policy: &Policy, label: &str) -> OutcomeSet {
    let config = fresh_config();
    let serial = enumerate(program, policy, &config).expect("serial oracle succeeds");
    let pruned = enumerate_pruned(program, policy, &config).expect("pruned engine succeeds");
    assert_eq!(
        serial.outcomes, pruned.outcomes,
        "{label}: outcome sets differ"
    );
    assert_eq!(
        serial.stats.distinct_executions, pruned.stats.distinct_executions,
        "{label}: distinct-execution counts differ"
    );
    serial.outcomes
}

/// The first behaviour of the whole goal stream that matches `goal`, as
/// a witness: what [`find_witness`] returns when it cannot pin the goal.
fn first_unpinned_match(
    program: &Program,
    policy: &Policy,
    config: &EnumConfig,
    goal: &Goal,
) -> Option<Witness> {
    let mut behaviors = stream(program, policy, config).expect("goal stream starts");
    while let Some(item) = behaviors.next() {
        let (id, behavior) = item.expect("goal stream succeeds");
        if goal.matches(&behavior.outcome()) {
            let path = behaviors
                .path_to(id)
                .expect("a yielded behaviour has a path");
            return Some(Witness::new(behavior, path));
        }
    }
    None
}

/// `goal` is observable in the serial outcome set `serial` exactly when
/// `find_witness` finds a witness and `refute` does not refute it. The
/// witness is the first match of the whole goal stream, so pinning the
/// goal's loads changes neither the execution found nor its path. Every
/// witness either search returns replays, and so does every blocked
/// proof.
fn assert_searches_agree(
    program: &Program,
    policy: &Policy,
    serial: &OutcomeSet,
    goal: &Goal,
    label: &str,
) {
    let config = fresh_config();
    let limit = config.max_nodes_per_thread;
    let observable = serial.iter().any(|o| goal.matches(o));
    let witness = find_witness(program, policy, &config, goal).expect("witness search succeeds");
    assert_eq!(
        witness.is_some(),
        observable,
        "{label}: find_witness disagrees with the serial outcome set on {goal}"
    );
    let witness_json = witness.as_ref().map(Witness::to_json);
    assert_eq!(
        witness_json,
        first_unpinned_match(program, policy, &config, goal).map(|w| w.to_json()),
        "{label}: find_witness is not the goal stream's first match for {goal}"
    );
    if let Some(w) = &witness {
        assert!(goal.matches(&w.outcome), "{label}: witness misses {goal}");
        w.verify(program, policy, limit)
            .unwrap_or_else(|e| panic!("{label}: witness for {goal} does not replay: {e}"));
    }
    match refute(program, policy, &config, goal).expect("refutation succeeds") {
        RefuteOutcome::Observable(w) => {
            assert_eq!(
                Some(w.to_json()),
                witness_json,
                "{label}: refute and find_witness disagree on {goal}"
            );
        }
        RefuteOutcome::Refuted(refutation) => {
            assert!(!observable, "{label}: refute refuted the observable {goal}");
            if let Refutation::Blocked(b) = refutation {
                b.verify(program, policy, limit)
                    .unwrap_or_else(|e| panic!("{label}: blocked proof for {goal} fails: {e}"));
            }
        }
    }
}

/// Catalog conditions: every condition of every entry under every model.
#[test]
fn goal_searches_match_serial_on_full_catalog() {
    for entry in catalog::all() {
        for model in MODELS {
            let policy = model.policy();
            let serial = enumerate(&entry.test.program, &policy, &fresh_config())
                .expect("serial oracle succeeds")
                .outcomes;
            for condition in &entry.test.conditions {
                assert_searches_agree(
                    &entry.test.program,
                    &policy,
                    &serial,
                    &Goal::new(condition.clauses.clone()),
                    &format!("{} under {}", entry.test.name, model.name()),
                );
            }
        }
    }
}

/// Goals for a corpus program: a few complete outcomes observed under
/// some model (so each is allowed by the weaker models and often
/// forbidden by the stronger ones), one single-register clause, and a
/// value no program of the generator stores.
fn corpus_goals(union: &OutcomeSet) -> Vec<Goal> {
    let mut goals: Vec<Goal> = union
        .iter()
        .step_by((union.len() / 4).max(1))
        .map(|o| {
            let mut clauses = Vec::new();
            for t in 0..o.thread_count() {
                for (r, &v) in o.thread_regs(t).iter().enumerate() {
                    clauses.push((t, Reg::new(r), v));
                }
            }
            Goal::new(clauses)
        })
        .collect();
    if let Some(o) = union.iter().last() {
        goals.push(Goal::new(vec![(0, Reg::new(0), o.reg(0, Reg::new(0)))]));
    }
    goals.push(Goal::new(vec![(0, Reg::new(0), Value::new(9_999))]));
    goals
}

/// Layer 1: the whole catalog under the whole model chain.
#[test]
fn pruned_matches_serial_on_full_catalog() {
    for entry in catalog::all() {
        for model in MODELS {
            assert_engines_agree(
                &entry.test.program,
                &model.policy(),
                &format!("{} under {}", entry.test.name, model.name()),
            );
        }
    }
}

/// `keep_executions` only decides whether executions are returned: the
/// pruned engine runs the same search either way, so its stats and
/// outcome set do not depend on it.
#[test]
fn kept_executions_leave_pruned_stats_unchanged() {
    let config = |keep| EnumConfig::builder().keep_executions(keep).build();
    for entry in catalog::all() {
        for model in ModelSel::ALL {
            let policy = model.policy();
            let run = |keep| {
                enumerate_pruned(&entry.test.program, &policy, &config(keep))
                    .expect("pruned engine succeeds")
            };
            let (kept, dropped) = (run(true), run(false));
            let label = format!("{} under {}", entry.test.name, model.name());
            assert_eq!(kept.stats, dropped.stats, "{label}: stats differ");
            assert_eq!(kept.outcomes, dropped.outcomes, "{label}: outcomes differ");
            assert_eq!(
                kept.executions.len(),
                kept.stats.distinct_executions,
                "{label}"
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

/// The generator shapes the corpus cycles through; together they cover
/// plain racy programs, speculation-relevant branches, fence-heavy
/// programs, single-node atomics and three-thread programs.
fn shapes() -> [RandConfig; 5] {
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
            ..base.clone()
        },
        RandConfig {
            threads: 3,
            ops_per_thread: 3,
            ..base
        },
    ]
}

/// Program `i` of the seeded corpus and its shape index; see
/// [`pruned_matches_serial_on_seeded_corpus`].
fn corpus_program(i: usize, shapes: &[RandConfig]) -> (Program, usize) {
    let shape = i % shapes.len();
    let mut rng = StdRng::seed_from_u64(0x5A44_1100 ^ (i as u64));
    (random_program(&mut rng, &shapes[shape]), shape)
}

/// Layer 2: the seeded random corpus. Seed 0xSAMM is fixed; program `i`
/// of shape `s` is fully determined by `(i, s)`, so any failure message
/// pinpoints a reproducible program.
#[test]
fn pruned_matches_serial_on_seeded_corpus() {
    let shapes = shapes();
    let n = corpus_size();
    for i in 0..n {
        let (program, shape) = corpus_program(i, &shapes);
        let label =
            |model: ModelSel| format!("corpus program {i} (shape {shape}) under {}", model.name());
        let serial: Vec<OutcomeSet> = MODELS
            .iter()
            .map(|&model| assert_engines_agree(&program, &model.policy(), &label(model)))
            .collect();
        let union: OutcomeSet = serial.iter().flat_map(|set| set.iter().cloned()).collect();
        for goal in corpus_goals(&union) {
            for (&model, set) in MODELS.iter().zip(&serial) {
                assert_searches_agree(&program, &model.policy(), set, &goal, &label(model));
            }
        }
    }
}

/// Paper §8: in a program that is well synchronized with no
/// synchronization addresses, every load has exactly one eligible store,
/// so the program is deterministic: under the model it has exactly one
/// outcome, its SC outcome set. The discipline check runs on the pruned
/// stream; the outcome sets come from the serial oracle.
#[test]
fn well_synchronized_programs_have_their_one_sc_outcome() {
    let config = fresh_config();
    let shapes = shapes();
    let programs = catalog::all()
        .into_iter()
        .map(|entry| (entry.test.name.clone(), entry.test.program))
        .chain((0..corpus_size()).map(|i| {
            let (program, shape) = corpus_program(i, &shapes);
            (format!("corpus program {i} (shape {shape})"), program)
        }));
    let mut synchronized = 0;
    for (name, program) in programs {
        let sc = enumerate(&program, &Policy::sequential_consistency(), &config)
            .expect("serial oracle succeeds")
            .outcomes;
        for model in [ModelSel::Tso, ModelSel::Pso, ModelSel::Weak] {
            let policy = model.policy();
            let report = check_well_synchronized(&program, &policy, &config, &BTreeSet::new())
                .expect("sync check succeeds");
            if !report.is_well_synchronized() {
                continue;
            }
            synchronized += 1;
            let outcomes = enumerate(&program, &policy, &config)
                .expect("serial oracle succeeds")
                .outcomes;
            let label = format!("{name} under {}", model.name());
            assert_eq!(outcomes.len(), 1, "{label}: well synchronized yet racy");
            assert_eq!(outcomes, sc, "{label}: differs from SC");
        }
    }
    assert!(synchronized > 0, "no well-synchronized program was checked");
}

type Engine = fn(&Program, &Policy, &EnumConfig) -> Result<EnumResult, EnumError>;

const ENGINES: [(&str, Engine); 2] = [("serial", enumerate), ("pruned", enumerate_pruned)];

/// Everything a run reports that does not depend on the clock: the
/// outcome set, the execution count, the search-shape counters and the
/// instrumentation counters.
fn run_record(engine: Engine, program: &Program, policy: &Policy) -> Result<CachedResult, String> {
    let config = EnumConfig::builder()
        .keep_executions(false)
        .observe(true)
        .build();
    engine(program, policy, &config)
        .map(CachedResult::from_result)
        .map_err(|e| e.to_string())
}

/// Checks that every pair of models with equal views of `program` runs
/// identically on both engines. Returns the number of such pairs.
fn assert_equal_views_run_identically(program: &Program, label: &str) -> usize {
    let views = ModelSel::ALL.map(|m| TableView::of(program, &m.policy()));
    let mut equal = 0;
    for (i, a) in ModelSel::ALL.iter().enumerate() {
        for (j, b) in ModelSel::ALL.iter().enumerate().skip(i + 1) {
            if views[i] != views[j] {
                continue;
            }
            equal += 1;
            for (name, engine) in ENGINES {
                assert_eq!(
                    run_record(engine, program, &a.policy()),
                    run_record(engine, program, &b.policy()),
                    "{label}: {} and {} share a view but their {name} runs differ",
                    a.name(),
                    b.name()
                );
            }
        }
    }
    equal
}

#[test]
fn equal_views_run_identically_on_full_catalog() {
    let equal: usize = catalog::all()
        .iter()
        .map(|entry| assert_equal_views_run_identically(&entry.test.program, &entry.test.name))
        .sum();
    assert!(equal > 0, "the catalog has equal-view model pairs");
}

#[test]
fn equal_views_run_identically_on_seeded_corpus() {
    let shapes = shapes();
    let mut equal = 0;
    for i in 0..corpus_size() {
        let (program, shape) = corpus_program(i, &shapes);
        equal += assert_equal_views_run_identically(
            &program,
            &format!("corpus program {i} (shape {shape})"),
        );
    }
    assert!(equal > 0, "the corpus has equal-view model pairs");
}

/// Views differ wherever the program can tell the tables apart, and the
/// runs differ with them.
#[test]
fn views_differ_where_the_program_reads_the_difference() {
    for (entry, a, b, why) in [
        (
            catalog::sb(),
            ModelSel::Sc,
            ModelSel::Weak,
            "store->load order",
        ),
        (
            catalog::fig8(),
            ModelSel::Weak,
            ModelSel::WeakSpec,
            "speculation past a register-held address",
        ),
        (
            catalog::fig3(),
            ModelSel::NaiveTso,
            ModelSel::Tso,
            "same-address store->load: x != y vs bypass",
        ),
    ] {
        let program = &entry.test.program;
        let label = format!("{} {} vs {} ({why})", entry.test.name, a.name(), b.name());
        assert_ne!(
            TableView::of(program, &a.policy()),
            TableView::of(program, &b.policy()),
            "{label}"
        );
        assert_ne!(
            run_record(enumerate_pruned, program, &a.policy()),
            run_record(enumerate_pruned, program, &b.policy()),
            "{label}"
        );
    }
}

/// Engine runs per catalog verdict: one per undominated table view of
/// the running models, where a certified model runs as SC; every other
/// view is classified from the run of a weaker view. Before views, every
/// (test, model) pair ran (141); with one run per view, 69 ran, or 52
/// with the DRF certifier. Classification leaves 31 searches either way:
/// 38 (uncertified) and 21 (certified) of those views are classified,
/// TSO from PSO under six entries among them.
#[test]
fn catalog_verdicts_run_once_per_view() {
    let config = fresh_config();
    let runs = |report: &EntryReport| report.rows.iter().filter(|r| r.fresh_run).count();
    let classified = |plan: &VerdictPlan| plan.runs.iter().filter(|r| r.base.is_some()).count();
    let (mut models, mut uncertified, mut certified) = (0, (0, 0), (0, 0));
    for entry in catalog::all() {
        models += entry.models().len();
        let report = expect::run_entry(&entry, &config).expect("verdict runs");
        uncertified.0 += runs(&report);
        uncertified.1 += classified(&VerdictPlan::new(&entry, &config, None));
        let report =
            expect::run_entry_certified(&entry, &config, &drf_certifier).expect("verdict runs");
        certified.0 += runs(&report);
        certified.1 += classified(&VerdictPlan::new(&entry, &config, Some(&drf_certifier)));
    }
    assert_eq!((models, uncertified, certified), (141, (31, 38), (31, 21)));
}

/// The cache key is (program, table view, config): over the catalog's
/// 141 verdict keys, two fingerprints are equal exactly when their
/// entries and views are, so the keys fill 69 cache entries.
#[test]
fn catalog_keys_share_a_fingerprint_iff_entry_and_view_agree() {
    let config = &fresh_config();
    let entries = catalog::all();
    let keys: Vec<_> = entries
        .iter()
        .enumerate()
        .flat_map(|(i, entry)| {
            let program = &entry.test.program;
            entry.models().into_iter().map(move |m| {
                let policy = m.policy();
                let view = TableView::of(program, &policy);
                ((i, view), query_fingerprint(program, &policy, config))
            })
        })
        .collect();
    assert_eq!(keys.len(), 141);
    for (a, fa) in &keys {
        for (b, fb) in &keys {
            assert_eq!(fa == fb, a == b, "{a:?} vs {b:?}");
        }
    }
    let distinct: HashSet<_> = keys.iter().map(|(_, fp)| fp).collect();
    assert_eq!(distinct.len(), 69);
}

/// A one-entry cache, as the `fresh-mix` benchmark runs, costs no extra
/// engine run: every new view evicts the last, yet each catalog verdict
/// runs (and misses) exactly once per distinct undominated view of its
/// running models, a certified model running as SC. The classified views
/// count neither a hit nor a miss and are never inserted.
#[test]
fn a_one_entry_cache_runs_each_view_once() {
    let config = fresh_config();
    // One shard of one entry, as `fresh-mix` starts the server
    // (`EnumCache::new(1)` would make one entry per shard).
    let cache = EnumCache::with_shards(1, 1);
    let mut total = 0;
    for entry in catalog::all() {
        let program = &entry.test.program;
        let views: HashSet<TableView> = entry
            .models()
            .into_iter()
            .map(|m| {
                let certified = m != ModelSel::Sc && drf_certifier(program, &m.policy());
                let run = if certified { ModelSel::Sc } else { m };
                TableView::of(program, &run.policy())
            })
            .collect();
        let plan = VerdictPlan::new(&entry, &config, Some(&drf_certifier));
        assert_eq!(
            plan.runs.len(),
            views.len(),
            "{}: plan runs",
            entry.test.name
        );
        let searched = plan.runs.iter().filter(|r| r.base.is_none()).count();
        let (misses, hits) = (cache.stats().misses, cache.stats().hits);
        let report = expect::run_entry_cached(&entry, &config, &cache, &drf_certifier)
            .expect("verdict runs");
        let runs = report.rows.iter().filter(|r| r.fresh_run).count();
        let name = &entry.test.name;
        assert_eq!(runs, searched, "{name}: engine runs");
        assert_eq!(
            cache.stats().misses - misses,
            searched as u64,
            "{name}: cache misses"
        );
        assert_eq!(cache.stats().hits, hits, "{name}: cache hits");
        for row in &report.rows {
            let planned = plan.rows.iter().find(|r| r.model == row.model);
            let run = planned.expect("every model is planned").run;
            assert_eq!(
                row.classified,
                plan.runs[run].base.is_some(),
                "{name}: {row}"
            );
            assert!(!row.cache_hit, "{name}: {row}");
        }
        total += runs;
    }
    assert_eq!(total, 31);
}

/// Every classified view of `entry`'s verdict plans, with and without the
/// DRF certifier, has the outcome set and execution count of a separate
/// pruned search and of the serial oracle under its policy. Returns the
/// `(base, classified view)` policy names of the classified views
/// checked.
fn assert_classification_is_exact(entry: &CatalogEntry, label: &str) -> Vec<(String, String)> {
    let config = fresh_config();
    let program = &entry.test.program;
    let mut checked = Vec::new();
    let certifiers: [Option<Certifier<'_>>; 2] = [None, Some(&drf_certifier)];
    for certifier in certifiers {
        let plan = VerdictPlan::new(entry, &config, certifier);
        let answers = expect::answer_plan(entry, &plan, &config, None).expect("plan runs");
        for (run, answer) in plan.runs.iter().zip(&answers) {
            assert_eq!(answer.classified, run.base.is_some(), "{label}");
            assert_eq!(answer.ran, run.base.is_none(), "{label}");
            if !answer.classified {
                continue;
            }
            let name = run.policy.name();
            let base = plan.runs[run.base.expect("classified")].policy.name();
            let pruned = enumerate_pruned(program, &run.policy, &config).expect("pruned runs");
            let serial = enumerate(program, &run.policy, &config).expect("serial runs");
            for (engine, result) in [("pruned", &pruned), ("serial", &serial)] {
                assert_eq!(
                    answer.result.outcomes, result.outcomes,
                    "{label}: {name} classified from {base} differs from its {engine} run"
                );
                assert_eq!(
                    answer.result.stats.distinct_executions, result.stats.distinct_executions,
                    "{label}: {name} classified from {base}: executions differ from its {engine} run"
                );
            }
            checked.push((base.to_owned(), name.to_owned()));
        }
    }
    checked
}

/// Whether `checked` classifies TSO from a PSO run: the two views share
/// their bypass cells, so TSO's executions are PSO's plus store→store
/// edges.
fn classifies_tso_from_pso(checked: &[(String, String)]) -> bool {
    checked
        .iter()
        .any(|(base, view)| base == "PSO" && view == "TSO")
}

/// A verdict entry for a generated program: one always-true condition
/// and a verdict under every model, so its plan classifies every plain
/// view that dominates another.
fn every_model_entry(program: Program, name: &str) -> CatalogEntry {
    let test = CompiledLitmus {
        name: name.to_owned(),
        program,
        addr_of: Default::default(),
        regs: Vec::new(),
        conditions: vec![CompiledCondition {
            kind: CondKind::Allowed,
            clauses: Vec::new(),
            text: "true".to_owned(),
        }],
    };
    let verdicts: Vec<(usize, ModelSel, bool)> =
        ModelSel::ALL.iter().map(|&m| (0, m, true)).collect();
    CatalogEntry::new(test, "generated", &verdicts)
}

/// Classification on the catalog: every classified view of every entry's
/// plan, and of a plan that names every model.
#[test]
fn classified_views_match_separate_runs_on_full_catalog() {
    let mut checked = Vec::new();
    for entry in catalog::all() {
        let name = entry.test.name.clone();
        checked.extend(assert_classification_is_exact(&entry, &name));
        checked.extend(assert_classification_is_exact(
            &every_model_entry(entry.test.program, &name),
            &format!("{name} (every model)"),
        ));
    }
    assert!(classifies_tso_from_pso(&checked), "{checked:?}");
}

/// Classification on the seeded corpus, every model named.
#[test]
fn classified_views_match_separate_runs_on_seeded_corpus() {
    let shapes = shapes();
    let mut checked = Vec::new();
    for i in 0..corpus_size() {
        let (program, shape) = corpus_program(i, &shapes);
        let label = format!("corpus program {i} (shape {shape})");
        checked.extend(assert_classification_is_exact(
            &every_model_entry(program, &label),
            &label,
        ));
    }
    assert!(classifies_tso_from_pso(&checked), "{checked:?}");
}

/// The corpus shapes with register-held addresses: aliasing, and with it
/// TSO's and PSO's bypass decisions and Weak+spec's speculation, is
/// decided only at run time.
fn address_dependent_shapes() -> [RandConfig; 5] {
    shapes().map(|shape| RandConfig {
        addr_dep_prob: 0.4,
        ..shape
    })
}

/// Classification on the address-dependent corpus, every model named.
#[test]
fn classified_views_match_separate_runs_on_address_dependent_corpus() {
    let shapes = address_dependent_shapes();
    let mut checked = Vec::new();
    for i in 0..corpus_size() {
        let (program, shape) = corpus_program(i, &shapes);
        let label = format!("address-dependent program {i} (shape {shape})");
        checked.extend(assert_classification_is_exact(
            &every_model_entry(program, &label),
            &label,
        ));
    }
    assert!(classifies_tso_from_pso(&checked), "{checked:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Classification on random programs of every corpus shape, with
    /// immediate or register-held addresses: every classified view equals
    /// its separate pruned and serial runs.
    #[test]
    fn pruned_classification_matches_separate_runs(
        seed in any::<u64>(),
        shape in 0usize..5,
        address_dependent in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shapes = if address_dependent { address_dependent_shapes() } else { shapes() };
        let program = random_program(&mut rng, &shapes[shape]);
        let label = format!("seed {seed} (shape {shape}, address-dependent {address_dependent})");
        assert_classification_is_exact(&every_model_entry(program, &label), &label);
    }
}
