//! Differential validation of the content-addressed enumeration cache:
//! a cache hit must be observably identical to a fresh enumeration.
//!
//! Over a random-program corpus, each (program, policy) query is filled
//! into a cache and replayed, under each engine. The hit must return
//! the stored value, and that value must match a fresh run of the same
//! engine in outcomes and deterministic statistics — the property
//! `samm-serve` relies on to answer repeats from its cache. A final
//! check mutates the program and asserts the mutant can never be
//! answered by the original's entry.
//!
//! The pruned engine gets its own transparency property: its search
//! counters legitimately differ from the serial engine's, but the
//! engine-independent observables (outcome set, distinct execution
//! count) must agree under every dedup configuration, so a cache entry
//! filled by either engine answers for both.

use proptest::prelude::*;
use rand::prelude::*;

use samm::core::cache::{cached_enumerate, CachedResult, EnumCache};
use samm::core::enumerate::{enumerate, EnumConfig, EnumResult};
use samm::core::error::EnumError;
use samm::core::fingerprint::query_fingerprint;
use samm::core::ids::Value;
use samm::core::instr::{Instr, Operand, Program, ThreadProgram};
use samm::core::policy::Policy;
use samm::core::pruned::enumerate_pruned;
use samm::litmus::rand_prog::{random_program, RandConfig};

fn chain() -> [Policy; 4] {
    [
        Policy::sequential_consistency(),
        Policy::tso(),
        Policy::pso(),
        Policy::weak(),
    ]
}

/// An enumeration engine: the serial oracle or the pruned engine.
type Engine = fn(&Program, &Policy, &EnumConfig) -> Result<EnumResult, EnumError>;

fn fast() -> EnumConfig {
    EnumConfig::builder().keep_executions(false).build()
}

fn gen_config(branchy: bool) -> RandConfig {
    RandConfig {
        threads: 2,
        ops_per_thread: 3,
        locations: 3,
        fence_prob: 0.2,
        store_prob: 0.5,
        data_dep_prob: 0.25,
        branch_prob: if branchy { 0.25 } else { 0.0 },
        rmw_prob: 0.1,
        addr_dep_prob: 0.0,
    }
}

/// Asserts a [`CachedResult`] agrees with a fresh serial enumeration on
/// the engine-independent observables: the outcome set and the distinct
/// execution count. This is the contract both engines (serial, pruned)
/// must satisfy; search-shape counters (`explored`, `forks`, `deduped`)
/// are engine-specific and deliberately not compared here.
fn assert_semantics_match_fresh(cached: &CachedResult, program: &Program, policy: &Policy) {
    let fresh = enumerate(program, policy, &fast()).expect("fresh enumeration succeeds");
    assert_eq!(cached.outcomes, fresh.outcomes, "outcome sets differ");
    assert_eq!(
        cached.stats.distinct_executions,
        fresh.stats.distinct_executions
    );
}

/// Asserts a [`CachedResult`] equals a fresh serial enumeration of the
/// same query: same outcome set and same deterministic counters.
fn assert_matches_fresh(cached: &CachedResult, program: &Program, policy: &Policy) {
    assert_matches_fresh_run(cached, program, policy, enumerate);
}

/// As [`assert_matches_fresh`], with the fresh run on `engine`.
fn assert_matches_fresh_run(
    cached: &CachedResult,
    program: &Program,
    policy: &Policy,
    engine: Engine,
) {
    let fresh = engine(program, policy, &fast()).expect("fresh enumeration succeeds");
    assert_eq!(cached.outcomes, fresh.outcomes, "outcome sets differ");
    assert_eq!(cached.stats.explored, fresh.stats.explored);
    assert_eq!(cached.stats.forks, fresh.stats.forks);
    assert_eq!(cached.stats.deduped, fresh.stats.deduped);
    assert_eq!(
        cached.stats.distinct_executions,
        fresh.stats.distinct_executions
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The core transparency property, under each engine.
    #[test]
    fn prop_cache_hits_are_bit_identical_to_fresh_runs(
        seed in 0u64..1_000_000,
        branchy in prop::bool::ANY,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let program = random_program(&mut rng, &gen_config(branchy));
        let config = fast();
        let engines: [Engine; 2] = [enumerate, enumerate_pruned];
        for policy in chain() {
            for engine in engines {
                let cache = EnumCache::new(16);
                let (fill, hit) = cached_enumerate(&cache, &program, &policy, &config, engine)
                    .expect("fill succeeds");
                prop_assert!(!hit, "empty cache cannot hit");
                let (replay, hit) = cached_enumerate(&cache, &program, &policy, &config, engine)
                    .expect("hit succeeds");
                prop_assert!(hit, "second lookup must hit");
                prop_assert_eq!(&fill, &replay, "hit must return the stored value");
                assert_matches_fresh_run(&replay, &program, &policy, engine);
            }
        }
    }

    /// The pruned engine is cache-transparent: an entry it fills serves
    /// serial traffic (and vice versa) with the same outcomes and the
    /// same distinct-execution count, under both dedup configurations.
    /// With dedup off the serial engine must collapse duplicate complete
    /// behaviours even though no executions are kept — the pruned engine
    /// always reports the collapsed count, so any drift fails here.
    #[test]
    fn prop_pruned_engine_is_cache_transparent(
        seed in 0u64..1_000_000,
        branchy in prop::bool::ANY,
        dedup in prop::bool::ANY,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let program = random_program(&mut rng, &gen_config(branchy));
        let config = EnumConfig::builder()
            .keep_executions(false)
            .dedup(dedup)
            .build();
        for policy in chain() {
            // Pruned fills, serial hits.
            let cache = EnumCache::new(16);
            let (pruned_fill, hit) =
                cached_enumerate(&cache, &program, &policy, &config, enumerate_pruned)
                    .expect("pruned fill succeeds");
            prop_assert!(!hit, "empty cache cannot hit");
            let (serial_hit, hit) =
                cached_enumerate(&cache, &program, &policy, &config, enumerate)
                    .expect("hit succeeds");
            prop_assert!(hit, "second lookup must hit");
            prop_assert_eq!(&pruned_fill, &serial_hit, "hit must return the stored value");
            assert_semantics_match_fresh(&serial_hit, &program, &policy);

            // Serial fills, pruned hits: the fingerprint is engine-
            // independent, so the pruned replay lands on the entry.
            let other = EnumCache::new(16);
            let (serial_fill, _) =
                cached_enumerate(&other, &program, &policy, &config, enumerate)
                    .expect("serial fill succeeds");
            let (pruned_hit, hit) =
                cached_enumerate(&other, &program, &policy, &config, enumerate_pruned)
                    .expect("hit succeeds");
            prop_assert!(hit);
            prop_assert_eq!(&serial_fill, &pruned_hit);

            // The engine-independent observables agree across fills.
            prop_assert_eq!(&pruned_fill.outcomes, &serial_fill.outcomes);
            prop_assert_eq!(
                pruned_fill.stats.distinct_executions,
                serial_fill.stats.distinct_executions,
                "pruned and serial fills must agree on the distinct count"
            );
        }
    }

    /// Distinct programs in one cache never collide: sweeping a corpus
    /// through a single small cache (with evictions) still answers every
    /// replay correctly.
    #[test]
    fn prop_shared_cache_with_evictions_stays_correct(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = fast();
        // Shard capacity 2: the 8-program × 2-policy sweep evicts.
        let cache = EnumCache::with_shards(2, 2);
        let programs: Vec<Program> = (0..8)
            .map(|_| random_program(&mut rng, &gen_config(false)))
            .collect();
        for program in &programs {
            for policy in [Policy::sequential_consistency(), Policy::weak()] {
                let (value, _) =
                    cached_enumerate(&cache, program, &policy, &config, enumerate)
                        .expect("enumeration succeeds");
                assert_matches_fresh(&value, program, &policy);
            }
        }
        // Replay the whole corpus: hits and (post-eviction) refills must
        // both be correct.
        for program in &programs {
            for policy in [Policy::sequential_consistency(), Policy::weak()] {
                let (value, _) =
                    cached_enumerate(&cache, program, &policy, &config, enumerate)
                        .expect("enumeration succeeds");
                assert_matches_fresh(&value, program, &policy);
            }
        }
        let stats = cache.stats();
        prop_assert!(stats.evictions > 0, "sweep must exceed capacity");
    }

    /// Mutating a program always changes its fingerprint, so a stale
    /// entry can never answer for the mutant.
    #[test]
    fn prop_mutated_programs_never_alias(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let program = random_program(&mut rng, &gen_config(false));
        let policy = Policy::weak();
        let config = fast();
        let original = query_fingerprint(&program, &policy, &config);

        // Append a store of a fresh value to thread 0: a semantic change.
        let mut threads: Vec<Vec<Instr>> = program
            .threads()
            .iter()
            .map(|t| t.instrs().to_vec())
            .collect();
        threads[0].push(Instr::Store {
            addr: Operand::Imm(Value::new(0)),
            val: Operand::Imm(Value::new(991)),
        });
        let mutated = Program::with_init(
            threads.into_iter().map(ThreadProgram::new).collect(),
            program.init_entries().collect(),
        );
        prop_assert!(
            original != query_fingerprint(&mutated, &policy, &config),
            "mutation must change the fingerprint"
        );

        let cache = EnumCache::new(16);
        let (_, _) = cached_enumerate(&cache, &program, &policy, &config, enumerate)
            .expect("fill succeeds");
        let (mutant_value, hit) =
            cached_enumerate(&cache, &mutated, &policy, &config, enumerate)
                .expect("mutant enumerates");
        prop_assert!(!hit, "mutant must not be answered by the stale entry");
        assert_matches_fresh(&mutant_value, &mutated, &policy);
    }
}
