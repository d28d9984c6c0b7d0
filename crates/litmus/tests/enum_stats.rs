//! Checks for the enumeration instrumentation counters: they record
//! the closure work they claim to, stay empty when observation is off,
//! are bit-for-bit deterministic apart from timings and the same with
//! or without the clock, and the timings split a run into disjoint
//! phases.

use std::time::Instant;

use samm_core::enumerate::{enumerate, EnumConfig};
use samm_core::obs::Observe;
use samm_core::pruned::enumerate_pruned;
use samm_litmus::catalog::{self, ModelSel};

fn observed_config() -> EnumConfig {
    EnumConfig {
        keep_executions: false,
        observe: Observe::Timed,
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

/// A count-only run keeps every counter a timed run keeps, on both
/// engines and every catalog key, and reads no clock: all of its
/// timings are 0.
#[test]
fn counted_runs_keep_the_timed_counters_without_timings() {
    let counted = EnumConfig {
        observe: Observe::Count,
        ..observed_config()
    };
    let timed = observed_config();
    let engines = [
        ("pruned", enumerate_pruned as fn(&_, &_, &_) -> _),
        ("serial", enumerate),
    ];
    for entry in catalog::all() {
        for model in ModelSel::ALL {
            let policy = model.policy();
            for (name, engine) in engines {
                let ctx = format!("{} / {} ({name})", entry.test.name, model.name());
                let run = |config| {
                    let result: samm_core::enumerate::EnumResult =
                        engine(&entry.test.program, &policy, config)
                            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    let mut stats = result.stats;
                    let obs = stats.obs.take().expect("a counting run reports obs");
                    (result.outcomes, stats, obs)
                };
                let (c_outcomes, c_stats, c_obs) = run(&counted);
                let (t_outcomes, t_stats, t_obs) = run(&timed);
                assert_eq!(c_outcomes, t_outcomes, "{ctx}: outcomes");
                assert_eq!(c_stats, t_stats, "{ctx}: base stats");
                assert_eq!(c_obs.counters(), t_obs.counters(), "{ctx}: counters");
                assert_eq!(
                    c_obs,
                    c_obs.counters(),
                    "{ctx}: a counted run read the clock"
                );
            }
        }
    }
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

/// The closure, settle and resolve timers are disjoint: settle and
/// resolve exclude the closure time of the calls they make. So on every
/// catalog entry under every model, the three phases of a pruned run sum
/// to no more than the run's measured wall time.
#[test]
fn phase_timers_sum_to_at_most_the_wall_time() {
    let config = observed_config();
    for entry in catalog::all() {
        for model in ModelSel::ALL {
            let policy = model.policy();
            let started = Instant::now();
            let result = enumerate_pruned(&entry.test.program, &policy, &config);
            let wall = started.elapsed().as_nanos() as u64;
            let obs = result
                .unwrap_or_else(|e| panic!("{} / {}: {e}", entry.test.name, model.name()))
                .stats
                .obs
                .expect("observe=true populates obs");
            let phases = obs.closure_nanos + obs.settle_nanos + obs.resolve_nanos;
            assert!(
                phases <= wall,
                "{} / {}: phases {phases} ns exceed the wall time {wall} ns ({obs})",
                entry.test.name,
                model.name()
            );
        }
    }
}
