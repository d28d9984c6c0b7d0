//! The litmus-test catalog: classic shapes plus every figure of the paper.
//!
//! Each [`CatalogEntry`] bundles a compiled test with per-model *verdicts*:
//! which of its conditions must be observable (allowed) or unobservable
//! (forbidden) under which memory model. The expectation harness in
//! [`crate::expect`] turns the catalog into an executable conformance
//! suite, and the benchmark crate replays it to regenerate the paper's
//! figures.

mod atomics;
mod classic;
mod figures;

pub use atomics::{atomic_increment, broken_increment, cas_mutex, swap_sb};
pub use classic::{
    corr, iriw, iriw_fenced, lb, lb_data, mp, mp_fence_consumer_only, mp_fence_producer_only,
    mp_fenced, mp_fenced_scratch, sb, sb_fenced, wrc, wrc_fenced,
};
pub use figures::{fig10, fig3, fig4, fig5, fig7, fig8};

use samm_core::policy::Policy;

use crate::ast::CompiledLitmus;

/// The memory models the catalog takes verdicts over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModelSel {
    /// Sequential Consistency.
    Sc,
    /// The broken TSO of Figure 11 (center): store→load reordering with a
    /// plain same-address edge, no bypass.
    NaiveTso,
    /// Total Store Order with the correct store-buffer bypass (section 6).
    Tso,
    /// Partial Store Order (TSO plus store→store reordering).
    Pso,
    /// The paper's weak model (Figure 1).
    Weak,
    /// The weak model with address-aliasing speculation (section 5).
    WeakSpec,
}

impl ModelSel {
    /// All models, strongest first.
    pub const ALL: [ModelSel; 6] = [
        ModelSel::Sc,
        ModelSel::NaiveTso,
        ModelSel::Tso,
        ModelSel::Pso,
        ModelSel::Weak,
        ModelSel::WeakSpec,
    ];

    /// The paper's model sequence, strongest first. It is not one
    /// inclusion chain: `SC ⊆ TSO ⊆ PSO` and `SC ⊆ Weak ⊆ Weak+spec`
    /// hold on every program, but TSO and PSO are not contained in Weak,
    /// since TSO's forwarded load may feed an address dependency that
    /// Weak orders behind the store (reproduction finding 4). Naive TSO
    /// is left out: it sits inside TSO, and between SC and Weak (the
    /// point of Figure 11).
    pub const CHAIN: [ModelSel; 5] = [
        ModelSel::Sc,
        ModelSel::Tso,
        ModelSel::Pso,
        ModelSel::Weak,
        ModelSel::WeakSpec,
    ];

    /// Instantiates the policy for this model.
    pub fn policy(self) -> Policy {
        match self {
            ModelSel::Sc => Policy::sequential_consistency(),
            ModelSel::NaiveTso => Policy::naive_tso(),
            ModelSel::Tso => Policy::tso(),
            ModelSel::Pso => Policy::pso(),
            ModelSel::Weak => Policy::weak(),
            ModelSel::WeakSpec => Policy::weak().with_alias_speculation(true),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelSel::Sc => "SC",
            ModelSel::NaiveTso => "NaiveTSO",
            ModelSel::Tso => "TSO",
            ModelSel::Pso => "PSO",
            ModelSel::Weak => "Weak",
            ModelSel::WeakSpec => "Weak+spec",
        }
    }
}

impl std::fmt::Display for ModelSel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One expected verdict: under `model`, condition `condition` of the test
/// is observable iff `allowed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Index into the test's `conditions`.
    pub condition: usize,
    /// The model the verdict applies to.
    pub model: ModelSel,
    /// Whether the condition must be observable.
    pub allowed: bool,
}

/// A catalog entry: a compiled test plus its expected per-model verdicts.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// The compiled litmus test.
    pub test: CompiledLitmus,
    /// What the entry demonstrates (one line).
    pub description: String,
    /// Expected verdicts.
    pub verdicts: Vec<Verdict>,
}

impl CatalogEntry {
    /// Builds an entry; `verdicts` rows are `(condition, model, allowed)`.
    pub fn new(
        test: CompiledLitmus,
        description: &str,
        verdicts: &[(usize, ModelSel, bool)],
    ) -> Self {
        for &(condition, _, _) in verdicts {
            assert!(
                condition < test.conditions.len(),
                "verdict references condition {condition} but `{}` has {}",
                test.name,
                test.conditions.len()
            );
        }
        CatalogEntry {
            test,
            description: description.to_owned(),
            verdicts: verdicts
                .iter()
                .map(|&(condition, model, allowed)| Verdict {
                    condition,
                    model,
                    allowed,
                })
                .collect(),
        }
    }

    /// The distinct models this entry has verdicts for.
    pub fn models(&self) -> Vec<ModelSel> {
        let mut models: Vec<ModelSel> = self.verdicts.iter().map(|v| v.model).collect();
        models.sort();
        models.dedup();
        models
    }
}

/// Every entry of the catalog: the classic suite plus the paper's figures.
pub fn all() -> Vec<CatalogEntry> {
    vec![
        sb(),
        sb_fenced(),
        mp(),
        mp_fenced(),
        mp_fenced_scratch(),
        mp_fence_producer_only(),
        mp_fence_consumer_only(),
        lb(),
        lb_data(),
        corr(),
        iriw(),
        iriw_fenced(),
        wrc(),
        wrc_fenced(),
        cas_mutex(),
        atomic_increment(),
        broken_increment(),
        swap_sb(),
        fig3(),
        fig4(),
        fig5(),
        fig7(),
        fig8(),
        fig10(),
    ]
}

/// The subset of [`all`] that reproduces the paper's figures.
pub fn paper_figures() -> Vec<CatalogEntry> {
    vec![fig3(), fig4(), fig5(), fig7(), fig8(), fig10()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_well_formed() {
        let entries = all();
        assert!(entries.len() >= 17);
        for e in &entries {
            assert!(!e.test.name.is_empty());
            assert!(!e.description.is_empty());
            assert!(!e.verdicts.is_empty(), "{} has no verdicts", e.test.name);
            assert!(!e.test.conditions.is_empty());
            assert!(!e.models().is_empty());
        }
    }

    #[test]
    fn names_are_unique() {
        let entries = all();
        let mut names: Vec<&str> = entries.iter().map(|e| e.test.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn model_policies_have_matching_names() {
        for model in ModelSel::ALL {
            let policy = model.policy();
            assert_eq!(policy.name(), model.name());
        }
    }

    #[test]
    fn chain_excludes_naive_tso() {
        assert!(!ModelSel::CHAIN.contains(&ModelSel::NaiveTso));
        assert_eq!(ModelSel::CHAIN.len(), 5);
    }
}
