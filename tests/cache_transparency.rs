//! Differential validation of the content-addressed enumeration cache:
//! a cache hit must be observably identical to a fresh enumeration.
//!
//! The cache holds the production engine's answers only
//! ([`cached_enumerate`] runs [`enumerate_pruned`]). Over a
//! random-program corpus, each (program, policy) query is filled into a
//! cache and replayed. The hit must return the stored value, and that
//! value must match a fresh pruned run in outcomes and every
//! deterministic statistic — the property `samm-serve` relies on to
//! answer repeats from its cache. Further checks sweep a corpus through
//! a cache small enough to evict, and mutate a program to assert the
//! mutant can never be answered by the original's entry.
//!
//! Apart from the cache, the answer it stores is checked against the
//! serial oracle: the outcome set and the distinct execution count
//! agree with serial enumeration with dedup on and off.

use proptest::prelude::*;
use rand::prelude::*;

use samm::core::cache::{cached_enumerate, CachedResult, EnumCache};
use samm::core::enumerate::{enumerate, EnumConfig};
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

/// Asserts a [`CachedResult`] equals a fresh pruned enumeration of the
/// same query: the same outcome set and every deterministic statistic.
fn assert_matches_fresh(cached: &CachedResult, program: &Program, policy: &Policy) {
    let fresh = enumerate_pruned(program, policy, &fast()).expect("fresh enumeration succeeds");
    assert_eq!(cached, &CachedResult::from_result(fresh));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The core transparency property.
    #[test]
    fn prop_cache_hits_are_bit_identical_to_fresh_runs(
        seed in 0u64..1_000_000,
        branchy in prop::bool::ANY,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let program = random_program(&mut rng, &gen_config(branchy));
        let config = fast();
        for policy in chain() {
            let cache = EnumCache::new(16);
            let (fill, hit) = cached_enumerate(&cache, &program, &policy, &config)
                .expect("fill succeeds");
            prop_assert!(!hit, "empty cache cannot hit");
            let (replay, hit) = cached_enumerate(&cache, &program, &policy, &config)
                .expect("hit succeeds");
            prop_assert!(hit, "second lookup must hit");
            prop_assert_eq!(&fill, &replay, "hit must return the stored value");
            assert_matches_fresh(&replay, &program, &policy);
        }
    }

    /// The pruned engine's answer has the serial oracle's outcome set
    /// and distinct-execution count under both dedup configurations.
    /// With dedup off the serial engine must collapse duplicate complete
    /// behaviours even though no executions are kept — the pruned engine
    /// always reports the collapsed count, so any drift fails here.
    #[test]
    fn prop_pruned_answers_match_the_oracle_with_dedup_on_and_off(
        seed in 0u64..1_000_000,
        branchy in prop::bool::ANY,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let program = random_program(&mut rng, &gen_config(branchy));
        for policy in chain() {
            let pruned = enumerate_pruned(&program, &policy, &fast()).expect("pruned runs");
            for dedup in [true, false] {
                let config = EnumConfig::builder()
                    .keep_executions(false)
                    .dedup(dedup)
                    .build();
                let serial = enumerate(&program, &policy, &config).expect("serial runs");
                prop_assert_eq!(&pruned.outcomes, &serial.outcomes, "dedup {}", dedup);
                prop_assert_eq!(
                    pruned.stats.distinct_executions,
                    serial.stats.distinct_executions,
                    "dedup {}: distinct counts differ",
                    dedup
                );
            }
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
        // The first pass fills; replaying the whole corpus, hits and
        // (post-eviction) refills must both be correct.
        for _ in 0..2 {
            for program in &programs {
                for policy in [Policy::sequential_consistency(), Policy::weak()] {
                    let (value, _) = cached_enumerate(&cache, program, &policy, &config)
                        .expect("enumeration succeeds");
                    assert_matches_fresh(&value, program, &policy);
                }
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
        cached_enumerate(&cache, &program, &policy, &config).expect("fill succeeds");
        let (mutant_value, hit) =
            cached_enumerate(&cache, &mutated, &policy, &config).expect("mutant enumerates");
        prop_assert!(!hit, "mutant must not be answered by the stale entry");
        assert_matches_fresh(&mutant_value, &mutated, &policy);
    }
}
