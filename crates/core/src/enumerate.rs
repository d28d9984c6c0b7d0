//! Enumerating all behaviours of a program (paper section 4).
//!
//! "At each step, we remove a single behavior from B and refine it": run
//! graph generation and dataflow execution to quiescence, then fork one
//! copy per `(resolvable load, candidate store)` pair. Duplicate behaviours
//! (same Load-Store graph) are discarded; speculative or bypass forks that
//! violate Store Atomicity are rolled back.
//!
//! The result is the complete set of executions — and outcome set — of the
//! program under the chosen memory model.
//!
//! [`enumerate`] is the serial oracle: one plain depth-first loop, kept
//! deliberately simple so that the production engine
//! ([`crate::pruned`]), which every witness, refutation and discipline
//! check runs on, can be checked against it. The two loops are the only
//! searches in the crate.

use std::collections::HashSet;
use std::sync::Arc;

use crate::error::EnumError;
use crate::exec::{Behavior, Spare, StepError};
use crate::instr::Program;
use crate::obs::{Obs, ObsStats, Observe};
use crate::outcome::OutcomeSet;
use crate::policy::Policy;

/// Resource limits and switches for [`enumerate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumConfig {
    /// Maximum number of behaviours popped from the frontier before the
    /// enumeration aborts with [`EnumError::BehaviorLimit`].
    pub max_behaviors: usize,
    /// Maximum graph nodes one thread may generate (bounds loop unrolling).
    pub max_nodes_per_thread: u32,
    /// Discard duplicate behaviours via the canonical Load-Store-graph key.
    /// Disabling this only costs time; the outcome set is unchanged.
    pub dedup: bool,
    /// Keep the complete [`Behavior`]s in the result (disable to save
    /// memory when only outcomes matter).
    pub keep_executions: bool,
    /// How much [`crate::obs`] instrumentation to collect into
    /// [`EnumStats::obs`], at one of three levels:
    ///
    /// * [`Observe::Off`] (the default): no snapshot, and every
    ///   instrumentation site is a single null check;
    /// * [`Observe::Count`]: the closure-rule and candidate counters,
    ///   with no clock read and every `*_nanos` timing 0;
    /// * [`Observe::Timed`]: the same counters plus the closure, settle
    ///   and resolve timings, for callers that read them.
    ///
    /// Only whether the counters are on enters the fingerprint, so one
    /// cache entry serves counted and timed queries alike. Experiment
    /// E19 measures the overhead of each level.
    pub observe: Observe,
    /// Per-request fork fuel: the enumeration aborts with
    /// [`EnumError::Overbudget`] once it has attempted this many
    /// `(load, candidate)` forks. `None` (the default) means unlimited.
    /// Both the serial and the pruned engine honour the budget.
    pub budget: Option<u64>,
}

impl Default for EnumConfig {
    fn default() -> Self {
        EnumConfig {
            max_behaviors: 1_000_000,
            max_nodes_per_thread: 256,
            dedup: true,
            keep_executions: true,
            observe: Observe::Off,
            budget: None,
        }
    }
}

impl EnumConfig {
    /// Starts building a configuration from the defaults.
    ///
    /// # Examples
    ///
    /// ```
    /// use samm_core::enumerate::EnumConfig;
    /// use samm_core::obs::Observe;
    /// let config = EnumConfig::builder()
    ///     .observe(true)
    ///     .budget(10_000)
    ///     .build();
    /// assert_eq!(config.observe, Observe::Timed);
    /// assert_eq!(config.budget, Some(10_000));
    /// ```
    pub fn builder() -> EnumConfigBuilder {
        EnumConfigBuilder {
            config: EnumConfig::default(),
        }
    }
}

/// Builder for [`EnumConfig`], created by [`EnumConfig::builder`].
///
/// Prefer the builder over struct-literal updates at call sites: new
/// fields (like the fork budget) then flow through automatically instead
/// of being silently dropped by `..Default::default()` spreads.
#[derive(Debug, Clone)]
pub struct EnumConfigBuilder {
    config: EnumConfig,
}

impl EnumConfigBuilder {
    /// Sets [`EnumConfig::max_behaviors`].
    #[must_use]
    pub fn max_behaviors(mut self, limit: usize) -> Self {
        self.config.max_behaviors = limit;
        self
    }

    /// Sets [`EnumConfig::max_nodes_per_thread`].
    #[must_use]
    pub fn max_nodes_per_thread(mut self, limit: u32) -> Self {
        self.config.max_nodes_per_thread = limit;
        self
    }

    /// Sets [`EnumConfig::dedup`].
    #[must_use]
    pub fn dedup(mut self, enabled: bool) -> Self {
        self.config.dedup = enabled;
        self
    }

    /// Sets [`EnumConfig::keep_executions`].
    #[must_use]
    pub fn keep_executions(mut self, enabled: bool) -> Self {
        self.config.keep_executions = enabled;
        self
    }

    /// Sets [`EnumConfig::observe`]: an [`Observe`] level, or a `bool`
    /// where `true` is [`Observe::Timed`] and `false` is
    /// [`Observe::Off`].
    #[must_use]
    pub fn observe(mut self, level: impl Into<Observe>) -> Self {
        self.config.observe = level.into();
        self
    }

    /// Sets [`EnumConfig::budget`] (fork fuel); accepts `u64` or
    /// `Option<u64>`.
    #[must_use]
    pub fn budget(mut self, fuel: impl Into<Option<u64>>) -> Self {
        self.config.budget = fuel.into();
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> EnumConfig {
        self.config
    }
}

/// Counters describing an enumeration run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnumStats {
    /// Behaviours popped from the frontier.
    pub explored: usize,
    /// `(load, candidate)` forks attempted.
    pub forks: usize,
    /// Forks discarded as duplicates of an already-seen behaviour.
    pub deduped: usize,
    /// Forks rolled back because they violated Store Atomicity: mostly
    /// under speculation, bypass and RMWs, but a candidate store can
    /// close a cycle under any model.
    pub rolled_back: usize,
    /// Number of distinct complete executions (Load-Store graphs).
    pub distinct_executions: usize,
    /// Largest node count of any behaviour's graph.
    pub max_graph_nodes: usize,
    /// Instrumentation snapshot, present when [`EnumConfig::observe`]
    /// counts. Counter fields are deterministic; `*_nanos` timings are
    /// not, and are 0 unless the run was [`Observe::Timed`] (compare via
    /// [`ObsStats::counters`]).
    pub obs: Option<ObsStats>,
}

impl EnumStats {
    /// Renders the snapshot as a JSON object (hand-rolled; no external
    /// dependencies). The `obs` field is `null` when instrumentation was
    /// off.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"explored\":{},\"forks\":{},\"deduped\":{},\"rolled_back\":{},\
             \"distinct_executions\":{},\"max_graph_nodes\":{},\"obs\":{}}}",
            self.explored,
            self.forks,
            self.deduped,
            self.rolled_back,
            self.distinct_executions,
            self.max_graph_nodes,
            self.obs.map_or_else(|| "null".to_owned(), |o| o.to_json()),
        )
    }
}

/// The full result of enumerating a program's behaviours.
#[derive(Debug, Clone, Default)]
pub struct EnumResult {
    /// Every distinct final outcome (register files at halt).
    pub outcomes: OutcomeSet,
    /// Every distinct complete execution, when
    /// [`EnumConfig::keep_executions`] is set.
    pub executions: Vec<Behavior>,
    /// Run statistics.
    pub stats: EnumStats,
}

/// Settles the initial behaviour of `program` in `spare`'s allocations,
/// with a fresh instrumentation block attached when
/// [`EnumConfig::observe`] counts (its timers on when it is
/// [`Observe::Timed`]). Shared by both engines.
pub(crate) fn settled_root(
    program: &Program,
    policy: &Policy,
    config: &EnumConfig,
    spare: Spare,
) -> Result<(Behavior, Option<Arc<Obs>>), EnumError> {
    let obs = match config.observe {
        Observe::Off => None,
        Observe::Count => Some(Arc::new(Obs::new())),
        Observe::Timed => Some(Arc::new(Obs::timed())),
    };
    let mut root = Behavior::new_in(program, spare);
    if let Some(obs) = &obs {
        root.enable_obs(Arc::clone(obs));
    }
    match root.settle(program, policy, config.max_nodes_per_thread) {
        Ok(()) => Ok((root, obs)),
        Err(StepError::NodeLimit { thread, limit }) => Err(EnumError::NodeLimit { thread, limit }),
        Err(StepError::Inconsistent(e)) => Err(EnumError::UnexpectedCycle(e)),
    }
}

/// Enumerates every behaviour of `program` under `policy`: the serial
/// oracle the production engine ([`crate::pruned`]) is checked against.
///
/// One depth-first loop: pop a behaviour, and either record it (when
/// complete) or fork one copy per `(resolvable load, candidate store)`
/// pair, resolve and settle each fork, roll back the inconsistent ones
/// and, with [`EnumConfig::dedup`], discard forks whose canonical
/// Load-Store-graph key was seen before.
///
/// # Examples
///
/// Store-buffering has exactly four outcomes under a weak model and three
/// under SC:
///
/// ```
/// use samm_core::enumerate::{enumerate, EnumConfig};
/// use samm_core::instr::{Instr, Program, ThreadProgram};
/// use samm_core::ids::{Reg, Value};
/// use samm_core::policy::Policy;
///
/// fn sb() -> Program {
///     let t = |a: u64, b: u64| ThreadProgram::new(vec![
///         Instr::Store { addr: a.into(), val: 1u64.into() },
///         Instr::Load { dst: Reg::new(0), addr: b.into() },
///     ]);
///     Program::new(vec![t(0, 1), t(1, 0)])
/// }
/// let weak = enumerate(&sb(), &Policy::weak(), &EnumConfig::default()).unwrap();
/// let sc = enumerate(&sb(), &Policy::sequential_consistency(), &EnumConfig::default()).unwrap();
/// assert_eq!(weak.outcomes.len(), 4);
/// assert_eq!(sc.outcomes.len(), 3);
/// ```
///
/// # Errors
///
/// * [`EnumError::NodeLimit`] / [`EnumError::BehaviorLimit`] when limits are
///   exceeded;
/// * [`EnumError::Overbudget`] past [`EnumConfig::budget`] forks;
/// * [`EnumError::UnexpectedCycle`] when the initial behaviour is
///   inconsistent (a fork that closes a cycle is rolled back instead);
/// * [`EnumError::Stuck`] when a behaviour cannot make progress (likewise
///   an internal invariant violation).
pub fn enumerate(
    program: &Program,
    policy: &Policy,
    config: &EnumConfig,
) -> Result<EnumResult, EnumError> {
    let (root, obs) = settled_root(program, policy, config, Spare::default())?;
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    if config.dedup {
        seen.insert(root.canonical_key());
    }
    let mut frontier = vec![root];
    let mut result = EnumResult::default();
    let stats = &mut result.stats;
    let mut final_keys: HashSet<Vec<u8>> = HashSet::new();
    while let Some(behavior) = frontier.pop() {
        stats.explored += 1;
        if stats.explored > config.max_behaviors {
            return Err(EnumError::BehaviorLimit {
                limit: config.max_behaviors,
            });
        }
        stats.max_graph_nodes = stats.max_graph_nodes.max(behavior.graph().len());

        if behavior.is_complete() {
            stats.distinct_executions += 1;
            result.outcomes.insert(behavior.outcome());
            if config.keep_executions {
                result.executions.push(behavior);
            } else if !config.dedup {
                // Executions are dropped, but the distinct count must still
                // collapse duplicates reached through several resolution
                // orders.
                final_keys.insert(behavior.canonical_key());
            }
            continue;
        }

        let loads = behavior.resolvable_loads();
        if loads.is_empty() {
            return Err(EnumError::Stuck);
        }
        for load in loads {
            let stores = behavior.candidates(load);
            if let Some(obs) = behavior.obs() {
                Obs::add(&obs.candidate_calls, 1);
                Obs::add(&obs.candidate_stores, stores.len() as u64);
            }
            for store in stores {
                stats.forks += 1;
                if let Some(budget) = config.budget.filter(|&b| stats.forks as u64 > b) {
                    return Err(EnumError::Overbudget {
                        budget,
                        forks: stats.forks as u64,
                    });
                }
                let mut fork = behavior.clone();
                let step = fork
                    .resolve_load(load, store)
                    .and_then(|()| fork.settle(program, policy, config.max_nodes_per_thread));
                match step {
                    Ok(()) => {
                        if config.dedup && !seen.insert(fork.canonical_key()) {
                            stats.deduped += 1;
                            continue;
                        }
                        frontier.push(fork);
                    }
                    Err(StepError::Inconsistent(_)) => stats.rolled_back += 1,
                    Err(StepError::NodeLimit { thread, limit }) => {
                        return Err(EnumError::NodeLimit { thread, limit });
                    }
                }
            }
        }
    }
    stats.obs = obs.map(|obs| obs.snapshot());

    // Without dedup, identical complete behaviours are reached through
    // several resolution orders; collapse the count (and the kept
    // executions) so both configurations report the same executions.
    if !config.dedup {
        if config.keep_executions {
            result
                .executions
                .retain(|b| final_keys.insert(b.canonical_key()));
            result.stats.distinct_executions = result.executions.len();
        } else {
            result.stats.distinct_executions = final_keys.len();
        }
    }

    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Reg, Value};
    use crate::instr::{Instr, Operand, ThreadProgram};
    use crate::outcome::Outcome;

    const X: u64 = 0;
    const Y: u64 = 1;

    fn st(a: u64, v: u64) -> Instr {
        Instr::Store {
            addr: a.into(),
            val: v.into(),
        }
    }

    fn ld(r: usize, a: u64) -> Instr {
        Instr::Load {
            dst: Reg::new(r),
            addr: a.into(),
        }
    }

    fn outcome2(a: u64, b: u64) -> Outcome {
        Outcome::new(vec![vec![Value::new(a)], vec![Value::new(b)]])
    }

    /// Store buffering: T0 = S x,1; L y. T1 = S y,1; L x.
    fn sb() -> Program {
        Program::new(vec![
            ThreadProgram::new(vec![st(X, 1), ld(0, Y)]),
            ThreadProgram::new(vec![st(Y, 1), ld(0, X)]),
        ])
    }

    /// Message passing: T0 = S x,1; S y,1. T1 = L y; L x.
    fn mp() -> Program {
        Program::new(vec![
            ThreadProgram::new(vec![st(X, 1), st(Y, 1)]),
            ThreadProgram::new(vec![ld(0, Y), ld(1, X)]),
        ])
    }

    #[test]
    fn sb_under_sc_forbids_zero_zero() {
        let r = enumerate(
            &sb(),
            &Policy::sequential_consistency(),
            &EnumConfig::default(),
        )
        .unwrap();
        assert_eq!(r.outcomes.len(), 3);
        assert!(!r.outcomes.contains(&outcome2(0, 0)));
        assert!(r.outcomes.contains(&outcome2(1, 1)));
        assert!(r.outcomes.contains(&outcome2(0, 1)));
        assert!(r.outcomes.contains(&outcome2(1, 0)));
    }

    #[test]
    fn sb_under_weak_allows_zero_zero() {
        let r = enumerate(&sb(), &Policy::weak(), &EnumConfig::default()).unwrap();
        assert_eq!(r.outcomes.len(), 4);
        assert!(r.outcomes.contains(&outcome2(0, 0)));
    }

    #[test]
    fn sb_under_tso_allows_zero_zero() {
        let r = enumerate(&sb(), &Policy::tso(), &EnumConfig::default()).unwrap();
        assert!(
            r.outcomes.contains(&outcome2(0, 0)),
            "store buffering is TSO's hallmark"
        );
        assert_eq!(r.outcomes.len(), 4);
    }

    #[test]
    fn mp_under_sc_and_tso_forbids_stale_data() {
        for policy in [Policy::sequential_consistency(), Policy::tso()] {
            let r = enumerate(&mp(), &policy, &EnumConfig::default()).unwrap();
            assert!(
                !r.outcomes.contains(&Outcome::new(vec![
                    vec![],
                    vec![Value::new(1), Value::new(0)]
                ])),
                "r0=1,r1=0 must be forbidden under {}",
                policy.name()
            );
        }
    }

    #[test]
    fn mp_under_weak_allows_stale_data() {
        let r = enumerate(&mp(), &Policy::weak(), &EnumConfig::default()).unwrap();
        assert!(r.outcomes.contains(&Outcome::new(vec![
            vec![],
            vec![Value::new(1), Value::new(0)]
        ])));
    }

    #[test]
    fn mp_with_fences_is_sc_like_under_weak() {
        let prog = Program::new(vec![
            ThreadProgram::new(vec![st(X, 1), Instr::Fence, st(Y, 1)]),
            ThreadProgram::new(vec![ld(0, Y), Instr::Fence, ld(1, X)]),
        ]);
        let r = enumerate(&prog, &Policy::weak(), &EnumConfig::default()).unwrap();
        assert!(!r.outcomes.contains(&Outcome::new(vec![
            vec![],
            vec![Value::new(1), Value::new(0)]
        ])));
        assert_eq!(r.outcomes.len(), 3);
    }

    #[test]
    fn outcome_sets_nest_across_models() {
        for prog in [sb(), mp()] {
            let sc = enumerate(
                &prog,
                &Policy::sequential_consistency(),
                &EnumConfig::default(),
            )
            .unwrap()
            .outcomes;
            let tso = enumerate(&prog, &Policy::tso(), &EnumConfig::default())
                .unwrap()
                .outcomes;
            let pso = enumerate(&prog, &Policy::pso(), &EnumConfig::default())
                .unwrap()
                .outcomes;
            let weak = enumerate(&prog, &Policy::weak(), &EnumConfig::default())
                .unwrap()
                .outcomes;
            assert!(sc.is_subset(&tso));
            assert!(tso.is_subset(&pso));
            assert!(pso.is_subset(&weak));
        }
    }

    #[test]
    fn dedup_does_not_change_outcomes() {
        let with = enumerate(&sb(), &Policy::weak(), &EnumConfig::default()).unwrap();
        let without = enumerate(
            &sb(),
            &Policy::weak(),
            &EnumConfig {
                dedup: false,
                ..EnumConfig::default()
            },
        )
        .unwrap();
        assert_eq!(with.outcomes, without.outcomes);
        assert_eq!(
            with.stats.distinct_executions,
            without.stats.distinct_executions
        );
        assert!(without.stats.explored >= with.stats.explored);
    }

    #[test]
    fn behavior_limit_is_enforced() {
        let err = enumerate(
            &sb(),
            &Policy::weak(),
            &EnumConfig {
                max_behaviors: 2,
                ..EnumConfig::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, EnumError::BehaviorLimit { limit: 2 });
    }

    #[test]
    fn node_limit_propagates() {
        let looping = Program::new(vec![ThreadProgram::new(vec![
            st(X, 1),
            Instr::Jump { target: 0 },
        ])]);
        let err = enumerate(
            &looping,
            &Policy::weak(),
            &EnumConfig {
                max_nodes_per_thread: 4,
                ..EnumConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            EnumError::NodeLimit {
                thread: 0,
                limit: 4
            }
        ));
    }

    #[test]
    fn single_thread_program_is_deterministic() {
        let prog = Program::new(vec![ThreadProgram::new(vec![
            st(X, 1),
            ld(0, X),
            st(X, 2),
            ld(1, X),
        ])]);
        for policy in [
            Policy::sequential_consistency(),
            Policy::tso(),
            Policy::pso(),
            Policy::weak(),
            Policy::weak().with_alias_speculation(true),
        ] {
            let r = enumerate(&prog, &policy, &EnumConfig::default()).unwrap();
            assert_eq!(
                r.outcomes.len(),
                1,
                "single-threaded determinism under {}",
                policy.name()
            );
            let o = r.outcomes.iter().next().unwrap();
            assert_eq!(o.reg(0, Reg::new(0)), Value::new(1));
            assert_eq!(o.reg(0, Reg::new(1)), Value::new(2));
        }
    }

    #[test]
    fn coherent_read_read_under_weak_allows_reordering() {
        // CoRR: T0 = S x,1. T1 = L x; L x. Under the weak table L-L to the
        // same address is unconstrained, so r0=1, r1=0 is observable.
        let prog = Program::new(vec![
            ThreadProgram::new(vec![st(X, 1)]),
            ThreadProgram::new(vec![ld(0, X), ld(1, X)]),
        ]);
        let weak = enumerate(&prog, &Policy::weak(), &EnumConfig::default()).unwrap();
        assert!(weak.outcomes.contains(&Outcome::new(vec![
            vec![],
            vec![Value::new(1), Value::new(0)]
        ])));
        let sc = enumerate(
            &prog,
            &Policy::sequential_consistency(),
            &EnumConfig::default(),
        )
        .unwrap();
        assert!(!sc.outcomes.contains(&Outcome::new(vec![
            vec![],
            vec![Value::new(1), Value::new(0)]
        ])));
    }

    #[test]
    fn branch_dependent_store_enumerates_both_paths() {
        // T0: S x,1. T1: L x -> r0; bnz r0 to store-2; S y,5; halt; (2:) S y,9.
        let t1 = ThreadProgram::new(vec![
            ld(0, X),
            Instr::BranchNz {
                cond: Operand::Reg(Reg::new(0)),
                target: 4,
            },
            st(Y, 5),
            Instr::Halt,
            st(Y, 9),
        ]);
        let prog = Program::new(vec![ThreadProgram::new(vec![st(X, 1)]), t1]);
        let r = enumerate(&prog, &Policy::weak(), &EnumConfig::default()).unwrap();
        // r0 = 0 writes y=5; r0 = 1 writes y=9. Both paths must appear.
        assert!(r.outcomes.any(|o| o.reg(1, Reg::new(0)) == Value::ZERO));
        assert!(r.outcomes.any(|o| o.reg(1, Reg::new(0)) == Value::new(1)));
        assert_eq!(r.outcomes.len(), 2);
    }

    #[test]
    fn stats_are_populated() {
        let r = enumerate(&sb(), &Policy::weak(), &EnumConfig::default()).unwrap();
        assert!(r.stats.explored > 0);
        assert!(r.stats.forks > 0);
        assert!(r.stats.distinct_executions >= r.outcomes.len());
        assert!(r.stats.max_graph_nodes >= 6);
        assert_eq!(r.executions.len(), r.stats.distinct_executions);
    }

    #[test]
    fn keep_executions_off_drops_graphs() {
        let r = enumerate(
            &sb(),
            &Policy::weak(),
            &EnumConfig {
                keep_executions: false,
                ..EnumConfig::default()
            },
        )
        .unwrap();
        assert!(r.executions.is_empty());
        assert_eq!(r.outcomes.len(), 4);
    }

    #[test]
    fn fork_budget_is_enforced() {
        let err = enumerate(
            &sb(),
            &Policy::weak(),
            &EnumConfig::builder().budget(3).build(),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                EnumError::Overbudget {
                    budget: 3,
                    forks: 4
                }
            ),
            "expected Overbudget, got {err:?}"
        );
    }

    #[test]
    fn sufficient_budget_changes_nothing() {
        let unbudgeted = enumerate(&sb(), &Policy::weak(), &EnumConfig::default()).unwrap();
        let budgeted = enumerate(
            &sb(),
            &Policy::weak(),
            &EnumConfig::builder()
                .budget(unbudgeted.stats.forks as u64)
                .build(),
        )
        .unwrap();
        assert_eq!(budgeted.outcomes, unbudgeted.outcomes);
        assert_eq!(budgeted.stats.forks, unbudgeted.stats.forks);
    }

    #[test]
    fn builder_round_trips_every_field() {
        let config = EnumConfig::builder()
            .max_behaviors(17)
            .max_nodes_per_thread(9)
            .dedup(false)
            .keep_executions(false)
            .observe(true)
            .budget(Some(5))
            .build();
        let expected = EnumConfig {
            max_behaviors: 17,
            max_nodes_per_thread: 9,
            dedup: false,
            keep_executions: false,
            observe: Observe::Timed,
            budget: Some(5),
        };
        assert_eq!(config, expected);
        assert_eq!(
            EnumConfig::builder()
                .observe(Observe::Count)
                .build()
                .observe,
            Observe::Count
        );
        assert_eq!(EnumConfig::builder().build(), EnumConfig::default());
        // budget() also accepts a bare integer.
        assert_eq!(EnumConfig::builder().budget(7u64).build().budget, Some(7));
    }

    #[test]
    fn node_limit_during_refinement_propagates() {
        // T0 loops back to its load only while the loaded value is
        // non-zero, so the root settles fine and the node limit bites
        // during a later refinement (resolving the load against T1's
        // store of 1 unrolls the loop past the limit).
        let looping = Program::new(vec![
            ThreadProgram::new(vec![
                ld(0, X),
                Instr::BranchNz {
                    cond: Operand::Reg(Reg::new(0)),
                    target: 0,
                },
            ]),
            ThreadProgram::new(vec![st(X, 1)]),
        ]);
        let config = EnumConfig::builder().max_nodes_per_thread(6).build();
        let err = enumerate(&looping, &Policy::weak(), &config).unwrap_err();
        assert_eq!(
            err,
            EnumError::NodeLimit {
                thread: 0,
                limit: 6
            }
        );
    }
}
