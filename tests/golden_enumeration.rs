//! Golden enumeration regression: hard-coded outcome and
//! distinct-execution counts for every paper figure and every atomics
//! test of the catalog, across the full model chain, checked under BOTH
//! the serial oracle and the pruned production engine.
//!
//! These counts are the repository's measured ground truth (they also
//! back `EXPERIMENTS.md`); any enumeration change that shifts them must
//! update this table deliberately. The pruned engine must reproduce them
//! *exactly*, and each engine's statistics must be deterministic.

use samm::core::enumerate::{enumerate, EnumConfig, EnumResult};
use samm::core::pruned::enumerate_pruned;
use samm::litmus::{catalog, CatalogEntry, ModelSel};

/// `(test name, model, |outcomes|, distinct executions)` for every
/// paper figure (3, 4, 5, 7, 8, 10) and every atomics test.
const GOLDEN: &[(&str, ModelSel, usize, usize)] = &[
    ("fig3", ModelSel::Sc, 3, 3),
    ("fig3", ModelSel::Tso, 3, 3),
    ("fig3", ModelSel::Pso, 3, 3),
    ("fig3", ModelSel::Weak, 3, 3),
    ("fig3", ModelSel::WeakSpec, 3, 3),
    ("fig4", ModelSel::Sc, 5, 5),
    ("fig4", ModelSel::Tso, 5, 5),
    ("fig4", ModelSel::Pso, 5, 5),
    ("fig4", ModelSel::Weak, 5, 5),
    ("fig4", ModelSel::WeakSpec, 5, 5),
    ("fig5", ModelSel::Sc, 19, 19),
    ("fig5", ModelSel::Tso, 19, 19),
    ("fig5", ModelSel::Pso, 19, 19),
    ("fig5", ModelSel::Weak, 24, 24),
    ("fig5", ModelSel::WeakSpec, 24, 24),
    ("fig7", ModelSel::Sc, 5, 5),
    ("fig7", ModelSel::Tso, 5, 5),
    ("fig7", ModelSel::Pso, 5, 5),
    ("fig7", ModelSel::Weak, 5, 5),
    ("fig7", ModelSel::WeakSpec, 5, 5),
    ("fig8", ModelSel::Sc, 12, 12),
    ("fig8", ModelSel::Tso, 12, 12),
    ("fig8", ModelSel::Pso, 12, 12),
    ("fig8", ModelSel::Weak, 12, 12),
    ("fig8", ModelSel::WeakSpec, 15, 15),
    ("fig10", ModelSel::Sc, 7, 7),
    ("fig10", ModelSel::Tso, 15, 15),
    ("fig10", ModelSel::Pso, 27, 27),
    ("fig10", ModelSel::Weak, 27, 27),
    ("fig10", ModelSel::WeakSpec, 27, 27),
    ("CAS-mutex", ModelSel::Sc, 2, 2),
    ("CAS-mutex", ModelSel::Tso, 2, 2),
    ("CAS-mutex", ModelSel::Pso, 2, 2),
    ("CAS-mutex", ModelSel::Weak, 2, 2),
    ("CAS-mutex", ModelSel::WeakSpec, 2, 2),
    ("FAA-incr", ModelSel::Sc, 2, 2),
    ("FAA-incr", ModelSel::Tso, 2, 2),
    ("FAA-incr", ModelSel::Pso, 2, 2),
    ("FAA-incr", ModelSel::Weak, 2, 2),
    ("FAA-incr", ModelSel::WeakSpec, 2, 2),
    ("broken-incr", ModelSel::Sc, 3, 3),
    ("broken-incr", ModelSel::Tso, 3, 3),
    ("broken-incr", ModelSel::Pso, 3, 3),
    ("broken-incr", ModelSel::Weak, 3, 3),
    ("broken-incr", ModelSel::WeakSpec, 3, 3),
    ("SB+swap", ModelSel::Sc, 3, 3),
    ("SB+swap", ModelSel::Tso, 3, 3),
    ("SB+swap", ModelSel::Pso, 3, 3),
    ("SB+swap", ModelSel::Weak, 4, 4),
    ("SB+swap", ModelSel::WeakSpec, 4, 4),
];

fn entries() -> Vec<CatalogEntry> {
    let mut out = catalog::paper_figures();
    out.extend([
        catalog::cas_mutex(),
        catalog::atomic_increment(),
        catalog::broken_increment(),
        catalog::swap_sb(),
    ]);
    out
}

fn entry_by_name(name: &str) -> CatalogEntry {
    entries()
        .into_iter()
        .find(|e| e.test.name == name)
        .unwrap_or_else(|| panic!("no catalog entry named {name}"))
}

fn check_against_golden(label: &str, run: impl Fn(&CatalogEntry, ModelSel) -> EnumResult) {
    for &(name, model, outcomes, executions) in GOLDEN {
        let result = run(&entry_by_name(name), model);
        assert_eq!(
            result.outcomes.len(),
            outcomes,
            "{label}: {name} under {} outcome count drifted",
            model.name()
        );
        assert_eq!(
            result.stats.distinct_executions,
            executions,
            "{label}: {name} under {} execution count drifted",
            model.name()
        );
    }
}

#[test]
fn serial_counts_match_golden() {
    check_against_golden("serial", |entry, model| {
        enumerate(&entry.test.program, &model.policy(), &EnumConfig::default())
            .expect("enumeration succeeds")
    });
}

#[test]
fn pruned_counts_match_golden() {
    check_against_golden("pruned", |entry, model| {
        enumerate_pruned(&entry.test.program, &model.policy(), &EnumConfig::default())
            .expect("enumeration succeeds")
    });
}

/// The engines agree not just on counts but on the outcome *sets*, for
/// every golden entry and model; and each engine's full statistics are
/// deterministic, run after run.
#[test]
fn engines_agree_on_sets_and_deterministic_stats() {
    let config = EnumConfig::default();
    for entry in entries() {
        for model in [
            ModelSel::Sc,
            ModelSel::Tso,
            ModelSel::Pso,
            ModelSel::Weak,
            ModelSel::WeakSpec,
        ] {
            let program = &entry.test.program;
            let policy = model.policy();
            let serial = enumerate(program, &policy, &config).expect("serial enumeration succeeds");
            let pruned =
                enumerate_pruned(program, &policy, &config).expect("pruned enumeration succeeds");
            let name = &entry.test.name;
            assert_eq!(
                serial.outcomes,
                pruned.outcomes,
                "{name} under {}: outcome sets differ",
                model.name()
            );
            assert_eq!(
                serial.stats.distinct_executions, pruned.stats.distinct_executions,
                "{name}"
            );
            let serial_again = enumerate(program, &policy, &config).expect("serial rerun");
            let pruned_again = enumerate_pruned(program, &policy, &config).expect("pruned rerun");
            assert_eq!(
                serial.stats, serial_again.stats,
                "{name}: serial stats drifted"
            );
            assert_eq!(
                pruned.stats, pruned_again.stats,
                "{name}: pruned stats drifted"
            );
        }
    }
}
