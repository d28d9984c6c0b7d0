//! The SC-equivalence short-circuit wired into the litmus harness.
//!
//! [`run_entry`] behaves like [`samm_litmus::expect::run_entry`] but
//! consults the static certifiers first: any model the analyzer proves
//! SC-equivalent for the entry's program reuses a single SC enumeration
//! instead of enumerating again. Two certificate layers fire in order of
//! cost: the DRF/TLO certifier ([`mod@crate::certify`]) and, where it
//! declines, the delay-set robustness certifier ([`crate::robust`]) —
//! which also covers racy-but-fenced programs whose behaviour sets
//! provably collapse to SC. On a fully fenced test run under the whole
//! model chain this replaces N weak-model enumerations with one SC run
//! plus N cheap static checks (see the `analyze` and `robustness`
//! Criterion benches).

use samm_core::enumerate::EnumConfig;
use samm_core::error::EnumError;
use samm_core::instr::Program;
use samm_core::policy::Policy;
use samm_litmus::catalog::{CatalogEntry, ModelSel};
use samm_litmus::expect::{run_entry_certified, EntryReport};

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

/// The combined certifier closure the harness plugs into
/// [`samm_litmus::expect::run_entry_certified`]: the DRF/TLO layer
/// first (cheapest, strongest guarantees), then the delay-set
/// robustness layer. Every certificate is re-checked before being
/// trusted.
pub fn checked_certifier(program: &Program, policy: &Policy) -> bool {
    drf_certifier(program, policy) || robust_certifier(program, policy)
}

/// Runs one catalog entry with the DRF-SC short-circuit.
///
/// # Errors
///
/// Propagates enumeration failures.
pub fn run_entry(entry: &CatalogEntry, config: &EnumConfig) -> Result<EntryReport, EnumError> {
    run_entry_certified(entry, config, &checked_certifier)
}

/// The models of an entry the certifier would short-circuit — handy for
/// reporting and for the bench harness.
pub fn certified_models(entry: &CatalogEntry) -> Vec<ModelSel> {
    entry
        .models()
        .into_iter()
        .filter(|m| *m != ModelSel::Sc && checked_certifier(&entry.test.program, &m.policy()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use samm_litmus::catalog;

    fn fast() -> EnumConfig {
        EnumConfig {
            keep_executions: false,
            ..EnumConfig::default()
        }
    }

    #[test]
    fn fenced_sb_short_circuits_every_weak_model() {
        let entry = catalog::sb_fenced();
        let report = run_entry(&entry, &fast()).unwrap();
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
        let report = run_entry(&entry, &fast()).unwrap();
        assert!(report.all_pass(), "{report}");
        assert!(report.rows.iter().all(|r| !r.certified));
        assert!(certified_models(&entry).is_empty());
    }

    #[test]
    fn certified_reports_match_plain_harness_verdicts() {
        for entry in catalog::all() {
            let plain = samm_litmus::expect::run_entry(&entry, &fast()).unwrap();
            let certified = run_entry(&entry, &fast()).unwrap();
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
        let report = run_entry(&entry, &fast()).unwrap();
        assert!(report.all_pass(), "{report}");
        for row in &report.rows {
            assert_eq!(row.certified, row.model != ModelSel::Sc, "{}", row.model);
        }
        assert_eq!(certified_models(&entry).len(), entry.models().len() - 1);
    }
}
