//! Checks for the enumeration instrumentation counters: they record
//! the closure work they claim to, stay empty when observation is off,
//! and are bit-for-bit deterministic apart from timings.

use samm_core::enumerate::{enumerate, EnumConfig};
use samm_litmus::catalog;

fn observed_config() -> EnumConfig {
    EnumConfig {
        keep_executions: false,
        observe: true,
        ..EnumConfig::default()
    }
}

#[test]
fn sb_under_sc_records_dedup_hits_and_rule_applications() {
    let entry = catalog::sb();
    let config = observed_config();
    let sc = samm_litmus::catalog::ModelSel::Sc.policy();
    let result = enumerate(&entry.test.program, &sc, &config).expect("enumeration succeeds");
    // SB under SC interleaves two independent forks into the same final
    // graphs, so the canonical-key dedup must fire.
    assert!(result.stats.deduped > 0, "stats: {:?}", result.stats);
    let obs = result.stats.obs.expect("observe=true populates obs");
    // Every load resolution consults candidates() and runs the closure.
    assert!(obs.candidate_calls > 0, "obs: {obs:?}");
    assert!(obs.closure_rounds > 0, "obs: {obs:?}");
    // SC outcomes are justified by rule-b edges (observed loads precede
    // later overwrites of their source).
    assert!(obs.rule_b > 0, "obs: {obs:?}");
}

#[test]
fn disabled_observation_leaves_obs_empty() {
    let entry = catalog::sb();
    let config = EnumConfig {
        keep_executions: false,
        ..EnumConfig::default()
    };
    let sc = samm_litmus::catalog::ModelSel::Sc.policy();
    let result = enumerate(&entry.test.program, &sc, &config).expect("enumeration succeeds");
    assert!(result.stats.obs.is_none());
}

#[test]
fn serial_stats_are_deterministic() {
    let config = observed_config();
    for entry in [catalog::sb(), catalog::iriw(), catalog::fig10()] {
        for model in entry.models() {
            let policy = model.policy();
            let a = enumerate(&entry.test.program, &policy, &config).expect("run 1");
            let b = enumerate(&entry.test.program, &policy, &config).expect("run 2");
            let ctx = format!("{} [{}]", entry.test.name, model.name());
            assert_eq!(a.outcomes, b.outcomes, "{ctx}: outcomes");
            // Timings differ run to run; everything else is exact.
            let (mut sa, mut sb) = (a.stats, b.stats);
            let (oa, ob) = (
                sa.obs.take().expect("obs").counters(),
                sb.obs.take().expect("obs").counters(),
            );
            assert_eq!(sa, sb, "{ctx}: base stats");
            assert_eq!(oa, ob, "{ctx}: obs counters");
        }
    }
}
