//! Golden pruning-stats regression: hard-coded search-shape counters
//! for every paper figure and every atomics test of the catalog, across
//! the full model chain, under the prune-before-expand engine in its
//! fresh-query configuration (`keep_executions(false)`).
//!
//! The counters are the engine's observable search shape: how many
//! behaviours were explored, how many claims were attempted (`forks`),
//! how many died to dominance before a fork was paid for (`deduped`),
//! how many expanded forks were rolled back by Store Atomicity, the
//! largest graph reached, and how many expansions consumed the parent in
//! place. Any change to the pruning rule, the claim order, or the fork
//! representation that shifts this shape must update the table
//! deliberately — exactly like `golden_enumeration.rs` for counts.
//!
//! Regenerate with:
//! `cargo test --release --test golden_pruning -- --ignored --nocapture`

use samm::core::enumerate::{EnumConfig, EnumStats};
use samm::core::pruned::enumerate_pruned_stats;
use samm::litmus::{catalog, CatalogEntry, ModelSel};

/// One golden row: the deterministic search-shape counters of a
/// `(test, model)` query.
struct Row {
    name: &'static str,
    model: ModelSel,
    counters: Counters,
}

/// The `EnumStats` counters of a pruned run, plus `in_place`.
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    distinct_executions: usize,
    explored: usize,
    forks: usize,
    deduped: usize,
    rolled_back: usize,
    max_graph_nodes: usize,
    in_place: u64,
}

#[allow(clippy::too_many_arguments)]
const fn row(
    name: &'static str,
    model: ModelSel,
    distinct_executions: usize,
    explored: usize,
    forks: usize,
    deduped: usize,
    rolled_back: usize,
    max_graph_nodes: usize,
    in_place: u64,
) -> Row {
    Row {
        name,
        model,
        counters: Counters {
            distinct_executions,
            explored,
            forks,
            deduped,
            rolled_back,
            max_graph_nodes,
            in_place,
        },
    }
}

/// `(test, model, distinct, explored, forks, deduped, rolled_back,
/// max_graph_nodes, in_place)` ground truth.
const GOLDEN: &[Row] = &[
    row("fig3", ModelSel::Sc, 3, 8, 10, 3, 0, 10, 3),
    row("fig3", ModelSel::Tso, 3, 8, 16, 4, 5, 10, 4),
    row("fig3", ModelSel::Pso, 3, 8, 16, 4, 5, 10, 4),
    row("fig3", ModelSel::Weak, 3, 8, 10, 3, 0, 10, 3),
    row("fig3", ModelSel::WeakSpec, 3, 8, 10, 3, 0, 10, 3),
    row("fig4", ModelSel::Sc, 5, 12, 16, 5, 0, 10, 4),
    row("fig4", ModelSel::Tso, 5, 12, 16, 5, 0, 10, 4),
    row("fig4", ModelSel::Pso, 5, 12, 16, 5, 0, 10, 4),
    row("fig4", ModelSel::Weak, 5, 12, 16, 5, 0, 10, 4),
    row("fig4", ModelSel::WeakSpec, 5, 12, 16, 5, 0, 10, 4),
    row("fig5", ModelSel::Sc, 19, 66, 114, 49, 0, 16, 26),
    row("fig5", ModelSel::Tso, 19, 66, 136, 49, 22, 16, 40),
    row("fig5", ModelSel::Pso, 19, 66, 136, 49, 22, 16, 40),
    row("fig5", ModelSel::Weak, 24, 96, 220, 125, 0, 16, 26),
    row("fig5", ModelSel::WeakSpec, 24, 96, 220, 125, 0, 16, 26),
    row("fig7", ModelSel::Sc, 5, 11, 15, 5, 0, 10, 4),
    row("fig7", ModelSel::Tso, 5, 11, 19, 5, 4, 10, 4),
    row("fig7", ModelSel::Pso, 5, 11, 19, 5, 4, 10, 4),
    row("fig7", ModelSel::Weak, 5, 11, 15, 5, 0, 10, 4),
    row("fig7", ModelSel::WeakSpec, 5, 11, 15, 5, 0, 10, 4),
    row("fig8", ModelSel::Sc, 12, 23, 22, 0, 0, 14, 11),
    row("fig8", ModelSel::Tso, 12, 23, 22, 0, 0, 14, 11),
    row("fig8", ModelSel::Pso, 12, 23, 22, 0, 0, 14, 11),
    row("fig8", ModelSel::Weak, 12, 23, 22, 0, 0, 14, 11),
    row("fig8", ModelSel::WeakSpec, 15, 32, 46, 15, 0, 14, 10),
    row("fig10", ModelSel::Sc, 7, 33, 52, 20, 0, 13, 17),
    row("fig10", ModelSel::Tso, 15, 45, 94, 33, 17, 13, 23),
    row("fig10", ModelSel::Pso, 27, 65, 138, 49, 25, 13, 29),
    row("fig10", ModelSel::Weak, 27, 128, 352, 225, 0, 13, 48),
    row("fig10", ModelSel::WeakSpec, 27, 128, 352, 225, 0, 13, 48),
    row("CAS-mutex", ModelSel::Sc, 2, 5, 6, 1, 1, 3, 3),
    row("CAS-mutex", ModelSel::Tso, 2, 5, 6, 1, 1, 3, 3),
    row("CAS-mutex", ModelSel::Pso, 2, 5, 6, 1, 1, 3, 3),
    row("CAS-mutex", ModelSel::Weak, 2, 5, 6, 1, 1, 3, 3),
    row("CAS-mutex", ModelSel::WeakSpec, 2, 5, 6, 1, 1, 3, 3),
    row("FAA-incr", ModelSel::Sc, 2, 5, 6, 1, 1, 3, 3),
    row("FAA-incr", ModelSel::Tso, 2, 5, 6, 1, 1, 3, 3),
    row("FAA-incr", ModelSel::Pso, 2, 5, 6, 1, 1, 3, 3),
    row("FAA-incr", ModelSel::Weak, 2, 5, 6, 1, 1, 3, 3),
    row("FAA-incr", ModelSel::WeakSpec, 2, 5, 6, 1, 1, 3, 3),
    row("broken-incr", ModelSel::Sc, 3, 6, 6, 1, 0, 7, 3),
    row("broken-incr", ModelSel::Tso, 3, 6, 6, 1, 0, 7, 3),
    row("broken-incr", ModelSel::Pso, 3, 6, 6, 1, 0, 7, 3),
    row("broken-incr", ModelSel::Weak, 3, 6, 6, 1, 0, 7, 3),
    row("broken-incr", ModelSel::WeakSpec, 3, 6, 6, 1, 0, 7, 3),
    row("SB+swap", ModelSel::Sc, 3, 13, 18, 6, 0, 6, 7),
    row("SB+swap", ModelSel::Tso, 3, 13, 18, 6, 0, 6, 7),
    row("SB+swap", ModelSel::Pso, 3, 13, 18, 6, 0, 6, 7),
    row("SB+swap", ModelSel::Weak, 4, 25, 50, 26, 0, 6, 15),
    row("SB+swap", ModelSel::WeakSpec, 4, 25, 50, 26, 0, 6, 15),
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

fn measure(entry: &CatalogEntry, model: ModelSel) -> Counters {
    let (result, pstats) =
        enumerate_pruned_stats(&entry.test.program, &model.policy(), &fresh_config())
            .expect("pruned enumeration succeeds");
    let EnumStats {
        explored,
        forks,
        deduped,
        rolled_back,
        distinct_executions,
        max_graph_nodes,
        ..
    } = result.stats;
    Counters {
        distinct_executions,
        explored,
        forks,
        deduped,
        rolled_back,
        max_graph_nodes,
        in_place: pstats.in_place,
    }
}

#[test]
fn pruning_counters_match_golden() {
    assert_eq!(
        GOLDEN.len(),
        entries().len() * MODELS.len(),
        "golden table must cover the whole catalog × model chain"
    );
    for golden in GOLDEN {
        let entry = entries()
            .into_iter()
            .find(|e| e.test.name == golden.name)
            .unwrap_or_else(|| panic!("no catalog entry named {}", golden.name));
        assert_eq!(
            measure(&entry, golden.model),
            golden.counters,
            "pruning counters drifted for {} under {}",
            golden.name,
            golden.model.name()
        );
    }
}

/// Cross-invariants that must hold for every row regardless of the
/// concrete numbers: claims split into deduped and expanded, every
/// expansion that did not roll back is explored once (after the root),
/// and in-place expansions and rollbacks are subsets of expansions.
#[test]
fn pruning_counters_satisfy_invariants() {
    for entry in entries() {
        for model in MODELS {
            let r = measure(&entry, model);
            let name = format!("{} under {}", entry.test.name, model.name());
            assert!(r.deduped <= r.forks, "{name}");
            let expanded = r.forks - r.deduped;
            assert_eq!(
                r.explored,
                1 + expanded - r.rolled_back,
                "{name}: explored must be the root plus the settled expansions"
            );
            assert!(r.in_place as usize <= expanded, "{name}");
            assert!(r.rolled_back <= expanded, "{name}");
        }
    }
}

/// Regenerates the golden table (printed to stdout for pasting).
#[test]
#[ignore = "generator for the GOLDEN table"]
fn regenerate_golden_table() {
    for entry in entries() {
        for model in MODELS {
            let r = measure(&entry, model);
            println!(
                "    row(\"{}\", ModelSel::{:?}, {}, {}, {}, {}, {}, {}, {}),",
                entry.test.name,
                model,
                r.distinct_executions,
                r.explored,
                r.forks,
                r.deduped,
                r.rolled_back,
                r.max_graph_nodes,
                r.in_place
            );
        }
    }
}
