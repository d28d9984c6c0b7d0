//! The SC-equivalence certifiers the litmus harness plans with.
//!
//! Passed to [`samm_litmus::expect::VerdictPlan::new`], a certifier lets
//! any model the analyzer proves SC-equivalent for an entry's program
//! reuse a single SC enumeration instead of enumerating again. Two
//! certificate layers fire in order of cost: the DRF/TLO certifier
//! ([`mod@crate::certify`]) and, where it declines, the delay-set
//! robustness certifier ([`crate::robust`]) — which also covers
//! racy-but-fenced programs whose behaviour sets provably collapse to
//! SC. On a fully fenced test run under the whole model chain this
//! replaces N weak-model enumerations with one SC run plus N cheap
//! static checks (see the `analyze` and `robustness` Criterion benches).

use samm_core::instr::Program;
use samm_core::policy::Policy;

use crate::certify::certify;
use crate::robust::{analyze_static, StaticVerdict};

/// The DRF/TLO-only certifier (PR 2's layer): certificates are
/// re-checked before being trusted, so a bug in certificate
/// *construction* cannot silently skip enumeration. Models certified by
/// this layer reuse the SC run's outcome set *and* execution counts
/// (both certificate shapes preserve execution structure).
pub fn drf_certifier(program: &Program, policy: &Policy) -> bool {
    certify(program, policy).is_some_and(|cert| cert.check(program, policy))
}

/// The robustness certifier: `true` when the delay-set analysis finds
/// no harmful critical cycle and its [`crate::robust::RobustCertificate`]
/// re-checks. Guarantees outcome-set equality with SC — execution
/// *counts* may legitimately differ (a robust program can still reorder
/// internally; every reordering just converges to an SC-observable
/// outcome).
pub fn robust_certifier(program: &Program, policy: &Policy) -> bool {
    matches!(analyze_static(program, policy), StaticVerdict::Robust(cert) if cert.check(program, policy))
}

/// The combined certifier the harness plans with
/// ([`samm_litmus::expect::VerdictPlan::new`]): the DRF/TLO layer
/// first (cheapest, strongest guarantees), then the delay-set
/// robustness layer. Every certificate is re-checked before being
/// trusted.
pub fn checked_certifier(program: &Program, policy: &Policy) -> bool {
    drf_certifier(program, policy) || robust_certifier(program, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use samm_core::enumerate::EnumConfig;
    use samm_litmus::catalog::{self, CatalogEntry, ModelSel};
    use samm_litmus::expect::{run_entry_planned, EntryReport, VerdictPlan};

    fn fast() -> EnumConfig {
        EnumConfig {
            keep_executions: false,
            ..EnumConfig::default()
        }
    }

    /// `entry`'s report, planned with [`checked_certifier`].
    fn certified_report(entry: &CatalogEntry, config: &EnumConfig) -> EntryReport {
        let plan = VerdictPlan::new(entry, config, Some(&checked_certifier));
        run_entry_planned(entry, &plan, config, None).unwrap()
    }

    /// Whether `checked_certifier` proves `model` SC-equivalent on `entry`.
    fn certifies(entry: &CatalogEntry, model: ModelSel) -> bool {
        checked_certifier(&entry.test.program, &model.policy())
    }

    #[test]
    fn fenced_sb_short_circuits_every_weak_model() {
        let entry = catalog::sb_fenced();
        let report = certified_report(&entry, &fast());
        assert!(report.all_pass(), "{report}");
        for row in &report.rows {
            assert_eq!(
                row.certified,
                row.model != ModelSel::Sc,
                "{}: certification flag",
                row.model.name()
            );
        }
    }

    #[test]
    fn racy_sb_never_short_circuits() {
        let entry = catalog::sb();
        let report = certified_report(&entry, &fast());
        assert!(report.all_pass(), "{report}");
        assert!(report.rows.iter().all(|r| !r.certified));
        for model in entry.models().into_iter().filter(|&m| m != ModelSel::Sc) {
            assert!(!certifies(&entry, model), "{model}");
        }
    }

    #[test]
    fn certified_reports_match_plain_harness_verdicts() {
        for entry in catalog::all() {
            let plain = samm_litmus::expect::run_entry(&entry, &fast()).unwrap();
            let certified = certified_report(&entry, &fast());
            assert!(certified.all_pass(), "{certified}");
            assert_eq!(plain.rows.len(), certified.rows.len());
            for (p, c) in plain.rows.iter().zip(&certified.rows) {
                assert_eq!(
                    p.observed_allowed, c.observed_allowed,
                    "{}",
                    entry.test.name
                );
                assert_eq!(p.outcomes, c.outcomes, "{}", entry.test.name);
                // Certified rows report the SC run's execution count; a
                // robustness certificate only promises outcome-set
                // equality, so compare executions on fresh rows only.
                if !c.certified {
                    assert_eq!(p.executions, c.executions, "{}", entry.test.name);
                }
            }
        }
    }

    #[test]
    fn robust_scratch_entry_short_circuits_where_drf_declines() {
        let entry = catalog::mp_fenced_scratch();
        // NaiveTSO's plain same-address store→load edge keeps the local
        // order total, so TLO still fires there; under the real relaxed
        // models only the robustness layer certifies.
        for model in [
            ModelSel::Tso,
            ModelSel::Pso,
            ModelSel::Weak,
            ModelSel::WeakSpec,
        ] {
            assert!(
                !drf_certifier(&entry.test.program, &model.policy()),
                "{}: the DRF/TLO layer must decline",
                model.name()
            );
            assert!(
                robust_certifier(&entry.test.program, &model.policy()),
                "{}: the robustness layer must certify",
                model.name()
            );
        }
        let report = certified_report(&entry, &fast());
        assert!(report.all_pass(), "{report}");
        for row in &report.rows {
            assert_eq!(row.certified, row.model != ModelSel::Sc, "{}", row.model);
        }
        for model in entry.models().into_iter().filter(|&m| m != ModelSel::Sc) {
            assert!(certifies(&entry, model), "{model}");
        }
    }
}
