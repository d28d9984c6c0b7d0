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

use std::collections::HashSet;
use std::sync::Arc;

use crate::error::EnumError;
use crate::exec::{Behavior, StepError};
use crate::ids::NodeId;
use crate::instr::Program;
use crate::obs::{Obs, ObsStats};
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
    /// Collect [`crate::obs`] instrumentation (closure-rule counters and
    /// per-phase timings) into [`EnumStats::obs`]. Off by default; when
    /// off every instrumentation site is a single null check (experiment
    /// E19 measures the overhead of both settings).
    pub observe: bool,
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
            observe: false,
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
    /// let config = EnumConfig::builder()
    ///     .observe(true)
    ///     .budget(10_000)
    ///     .build();
    /// assert!(config.observe);
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

    /// Sets [`EnumConfig::observe`].
    #[must_use]
    pub fn observe(mut self, enabled: bool) -> Self {
        self.config.observe = enabled;
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
    /// Forks rolled back because they violated Store Atomicity
    /// (speculation/bypass only).
    pub rolled_back: usize,
    /// Number of distinct complete executions (Load-Store graphs).
    pub distinct_executions: usize,
    /// Largest node count of any behaviour's graph.
    pub max_graph_nodes: usize,
    /// Instrumentation snapshot, present when [`EnumConfig::observe`] was
    /// set. Counter fields are deterministic; `*_nanos` timings are not
    /// (compare via [`ObsStats::counters`]).
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

/// A lazy stream of the complete behaviours of a program.
///
/// Created by [`behaviors`]; yields each distinct complete execution as it
/// is discovered, so callers can stop early (e.g. at the first execution
/// matching a violation condition) without paying for the full
/// enumeration.
#[derive(Debug)]
pub struct Behaviors {
    program: Program,
    policy: Policy,
    config: EnumConfig,
    may_roll_back: bool,
    frontier: Vec<Behavior>,
    seen: HashSet<Vec<u8>>,
    stats: EnumStats,
    finished: bool,
    /// Shared instrumentation counters (present iff `config.observe`).
    obs: Option<Arc<Obs>>,
    /// Resolution-path table, present when created by
    /// [`behaviors_with_paths`]: entry `id - 1` is the
    /// `(parent id, load, store)` fork that created behaviour `id` (the
    /// root is id 0 and has no entry).
    paths: Option<Vec<(u64, NodeId, NodeId)>>,
}

impl Behaviors {
    /// Statistics accumulated so far (complete once the iterator is
    /// drained). With [`EnumConfig::observe`] set, includes a live
    /// [`ObsStats`] snapshot.
    pub fn stats(&self) -> EnumStats {
        let mut stats = self.stats;
        if let Some(obs) = &self.obs {
            stats.obs = Some(obs.snapshot());
        }
        stats
    }

    /// The resolution path of behaviour `id` (its
    /// [`Behavior::fork_id`]): the `(load, store)` pairs applied from the
    /// root down to `id`, in application order, in O(depth). Returns
    /// `None` for the root, for an unknown id, and when the stream was
    /// not created by [`behaviors_with_paths`].
    pub fn path_to(&self, id: u64) -> Option<Vec<(NodeId, NodeId)>> {
        let paths = self.paths.as_ref()?;
        let mut cursor = usize::try_from(id)
            .ok()
            .filter(|&i| i > 0 && i <= paths.len())?;
        let mut path = Vec::new();
        while cursor > 0 {
            let (parent, load, store) = paths[cursor - 1];
            path.push((load, store));
            cursor = parent as usize;
        }
        path.reverse();
        Some(path)
    }
}

impl Iterator for Behaviors {
    type Item = Result<Behavior, EnumError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        while let Some(behavior) = self.frontier.pop() {
            self.stats.explored += 1;
            if self.stats.explored > self.config.max_behaviors {
                self.finished = true;
                return Some(Err(EnumError::BehaviorLimit {
                    limit: self.config.max_behaviors,
                }));
            }
            self.stats.max_graph_nodes = self.stats.max_graph_nodes.max(behavior.graph().len());

            if behavior.is_complete() {
                self.stats.distinct_executions += 1;
                return Some(Ok(behavior));
            }

            let loads = behavior.resolvable_loads();
            if loads.is_empty() {
                self.finished = true;
                return Some(Err(EnumError::Stuck));
            }
            for load in loads {
                let stores = behavior.candidates(load);
                if let Some(obs) = behavior.obs() {
                    Obs::add(&obs.candidate_calls, 1);
                    Obs::add(&obs.candidate_stores, stores.len() as u64);
                }
                for store in stores {
                    self.stats.forks += 1;
                    if let Some(budget) = self.config.budget {
                        if self.stats.forks as u64 > budget {
                            self.finished = true;
                            return Some(Err(EnumError::Overbudget {
                                budget,
                                forks: self.stats.forks as u64,
                            }));
                        }
                    }
                    let mut fork = behavior.clone();
                    if let Some(paths) = &mut self.paths {
                        paths.push((behavior.fork_id(), load, store));
                        fork.set_fork_id(paths.len() as u64);
                    }
                    let step = fork.resolve_load(load, store).and_then(|()| {
                        fork.settle(
                            &self.program,
                            &self.policy,
                            self.config.max_nodes_per_thread,
                        )
                    });
                    match step {
                        Ok(()) => {
                            if self.config.dedup && !self.seen.insert(fork.canonical_key()) {
                                self.stats.deduped += 1;
                                continue;
                            }
                            self.frontier.push(fork);
                        }
                        Err(StepError::Inconsistent(e)) => {
                            if self.may_roll_back {
                                self.stats.rolled_back += 1;
                            } else {
                                self.finished = true;
                                return Some(Err(EnumError::UnexpectedCycle(e)));
                            }
                        }
                        Err(StepError::NodeLimit { thread, limit }) => {
                            self.finished = true;
                            return Some(Err(EnumError::NodeLimit { thread, limit }));
                        }
                    }
                }
            }
        }
        self.finished = true;
        None
    }
}

/// Starts a lazy enumeration of `program` under `policy`.
///
/// Unlike [`enumerate`], behaviours are produced on demand. Note that with
/// [`EnumConfig::dedup`] disabled the stream may repeat equivalent
/// executions (reached through different resolution orders); [`enumerate`]
/// collapses those in post-processing.
///
/// # Errors
///
/// Fails immediately when the initial behaviour cannot settle (node limit
/// or an inconsistent root).
///
/// # Examples
///
/// Find the first weak-model execution where both SB loads read 0, without
/// enumerating the rest:
///
/// ```
/// use samm_core::enumerate::{behaviors, EnumConfig};
/// use samm_core::instr::{Instr, Program, ThreadProgram};
/// use samm_core::ids::{Reg, Value};
/// use samm_core::policy::Policy;
///
/// let t = |a: u64, b: u64| ThreadProgram::new(vec![
///     Instr::Store { addr: a.into(), val: 1u64.into() },
///     Instr::Load { dst: Reg::new(0), addr: b.into() },
/// ]);
/// let sb = Program::new(vec![t(0, 1), t(1, 0)]);
/// let mut stream = behaviors(&sb, &Policy::weak(), &EnumConfig::default()).unwrap();
/// let hit = stream.find(|b| {
///     b.as_ref().is_ok_and(|b| {
///         b.outcome().reg(0, Reg::new(0)) == Value::ZERO
///             && b.outcome().reg(1, Reg::new(0)) == Value::ZERO
///     })
/// });
/// assert!(hit.is_some());
/// ```
pub fn behaviors(
    program: &Program,
    policy: &Policy,
    config: &EnumConfig,
) -> Result<Behaviors, EnumError> {
    behaviors_with(program, policy, config, false)
}

/// Like [`behaviors`], but additionally recording every fork's
/// `(parent, load, store)` in a resolution-path table, so
/// [`Behaviors::path_to`] can answer which resolutions produced a
/// yielded behaviour — the raw material for the witnesses of
/// [`crate::explain`]. Fork ids are assigned in fork order from the
/// root's id 0, so the table is deterministic.
///
/// # Errors
///
/// As for [`behaviors`].
pub fn behaviors_with_paths(
    program: &Program,
    policy: &Policy,
    config: &EnumConfig,
) -> Result<Behaviors, EnumError> {
    behaviors_with(program, policy, config, true)
}

fn behaviors_with(
    program: &Program,
    policy: &Policy,
    config: &EnumConfig,
    record_paths: bool,
) -> Result<Behaviors, EnumError> {
    let may_roll_back = policy.alias_speculation() || policy.has_bypass() || program.uses_rmw();
    let obs = config.observe.then(|| Arc::new(Obs::new()));
    let mut root = Behavior::new(program);
    if let Some(obs) = &obs {
        root.enable_obs(Arc::clone(obs));
    }
    match root.settle(program, policy, config.max_nodes_per_thread) {
        Ok(()) => {}
        Err(StepError::NodeLimit { thread, limit }) => {
            return Err(EnumError::NodeLimit { thread, limit })
        }
        Err(StepError::Inconsistent(e)) => return Err(EnumError::UnexpectedCycle(e)),
    }
    let mut seen = HashSet::new();
    if config.dedup {
        seen.insert(root.canonical_key());
    }
    Ok(Behaviors {
        program: program.clone(),
        policy: policy.clone(),
        config: config.clone(),
        may_roll_back,
        frontier: vec![root],
        seen,
        stats: EnumStats::default(),
        finished: false,
        obs,
        paths: record_paths.then(Vec::new),
    })
}

/// Enumerates every behaviour of `program` under `policy`.
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
/// * [`EnumError::UnexpectedCycle`] when a non-speculative store-atomic
///   model produces an inconsistent behaviour (an internal invariant
///   violation);
/// * [`EnumError::Stuck`] when a behaviour cannot make progress (likewise
///   an internal invariant violation).
pub fn enumerate(
    program: &Program,
    policy: &Policy,
    config: &EnumConfig,
) -> Result<EnumResult, EnumError> {
    let mut stream = behaviors(program, policy, config)?;
    let mut result = EnumResult::default();
    let mut final_keys: HashSet<Vec<u8>> = HashSet::new();
    for item in &mut stream {
        let behavior = item?;
        result.outcomes.insert(behavior.outcome());
        if config.keep_executions {
            result.executions.push(behavior);
        } else if !config.dedup {
            // Executions are dropped, but the distinct count must still
            // collapse duplicates reached through several resolution
            // orders.
            final_keys.insert(behavior.canonical_key());
        }
    }
    result.stats = stream.stats();

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
            observe: true,
            budget: Some(5),
        };
        assert_eq!(config, expected);
        assert_eq!(EnumConfig::builder().build(), EnumConfig::default());
        // budget() also accepts a bare integer.
        assert_eq!(EnumConfig::builder().budget(7u64).build().budget, Some(7));
    }

    // --- Behaviors: the lazy stream --------------------------------------

    #[test]
    fn stream_early_stop_stats_are_consistent() {
        // Pull exactly one complete behaviour, then stop: the stats must
        // reflect one distinct execution and strictly less work than a
        // full drain.
        let config = EnumConfig::default();
        let mut stream = behaviors(&sb(), &Policy::weak(), &config).unwrap();
        let first = stream.next().unwrap().unwrap();
        assert!(first.is_complete());
        let early = stream.stats();
        assert_eq!(early.distinct_executions, 1);
        assert!(early.explored >= 1);

        let full = enumerate(&sb(), &Policy::weak(), &config).unwrap().stats;
        assert!(early.explored < full.explored);
        assert!(early.forks <= full.forks);

        // Draining the rest converges on the full-enumeration stats.
        for item in &mut stream {
            item.unwrap();
        }
        let drained = stream.stats();
        assert_eq!(drained.explored, full.explored);
        assert_eq!(drained.forks, full.forks);
        assert_eq!(drained.deduped, full.deduped);
        assert_eq!(drained.distinct_executions, full.distinct_executions);
    }

    #[test]
    fn stream_yields_every_distinct_execution_once() {
        let stream = behaviors(&sb(), &Policy::weak(), &EnumConfig::default()).unwrap();
        let mut keys = std::collections::HashSet::new();
        let mut outcomes = OutcomeSet::default();
        for item in stream {
            let behavior = item.unwrap();
            assert!(
                keys.insert(behavior.canonical_key()),
                "deduped stream repeated an execution"
            );
            outcomes.insert(behavior.outcome());
        }
        let reference = enumerate(&sb(), &Policy::weak(), &EnumConfig::default()).unwrap();
        assert_eq!(outcomes, reference.outcomes);
        assert_eq!(keys.len(), reference.stats.distinct_executions);
    }

    #[test]
    fn stream_behavior_limit_fuses_the_iterator() {
        let config = EnumConfig {
            max_behaviors: 2,
            ..EnumConfig::default()
        };
        let mut stream = behaviors(&sb(), &Policy::weak(), &config).unwrap();
        let err = loop {
            match stream.next() {
                Some(Ok(_)) => continue,
                Some(Err(e)) => break e,
                None => panic!("stream ended without hitting the limit"),
            }
        };
        assert_eq!(err, EnumError::BehaviorLimit { limit: 2 });
        // After the error the stream is fused: no further items, and the
        // stats stop moving.
        let stats = stream.stats();
        assert!(stream.next().is_none());
        assert!(stream.next().is_none());
        assert_eq!(stream.stats(), stats);
    }

    #[test]
    fn stream_node_limit_fuses_the_iterator() {
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
        let config = EnumConfig {
            max_nodes_per_thread: 6,
            ..EnumConfig::default()
        };
        // The root settles (the limit bites mid-refinement, not at
        // construction), so the error surfaces from the stream itself.
        let mut stream = behaviors(&looping, &Policy::weak(), &config).unwrap();
        let err = loop {
            match stream.next() {
                Some(Ok(_)) => continue,
                Some(Err(e)) => break e,
                None => panic!("stream ended without hitting the node limit"),
            }
        };
        assert!(matches!(
            err,
            EnumError::NodeLimit {
                thread: 0,
                limit: 6
            }
        ));
        assert!(stream.next().is_none());
    }

    #[test]
    fn path_table_replays_every_yielded_behavior() {
        let config = EnumConfig::default();
        let limit = config.max_nodes_per_thread;
        for prog in [sb(), mp()] {
            for policy in [Policy::weak(), Policy::sequential_consistency()] {
                let mut stream = behaviors_with_paths(&prog, &policy, &config).unwrap();
                let mut yielded = 0usize;
                while let Some(item) = stream.next() {
                    let behavior = item.unwrap();
                    let path = stream
                        .path_to(behavior.fork_id())
                        .expect("a yielded behaviour is a recorded fork");
                    let mut replay = Behavior::new(&prog);
                    replay.settle(&prog, &policy, limit).unwrap();
                    for &(load, store) in &path {
                        replay.resolve_load(load, store).unwrap();
                        replay.settle(&prog, &policy, limit).unwrap();
                    }
                    assert!(replay.is_complete(), "{}: {path:?}", policy.name());
                    assert_eq!(replay.outcome(), behavior.outcome(), "{}", policy.name());
                    yielded += 1;
                }
                assert_eq!(yielded, stream.stats().distinct_executions);
                assert_eq!(stream.path_to(0), None, "the root has no path");
                assert_eq!(stream.path_to(u64::MAX), None, "unknown id");
            }
        }
        // A stream created without the table answers no paths at all.
        let mut plain = behaviors(&sb(), &Policy::weak(), &config).unwrap();
        let first = plain.next().unwrap().unwrap();
        assert_eq!(plain.path_to(first.fork_id()), None);
    }

    #[test]
    fn stream_dedup_off_covers_the_same_outcomes() {
        // Without dedup the stream may repeat equivalent executions, but
        // the distinct key set and the outcome set must match the deduped
        // stream's exactly.
        let dedup_off = EnumConfig {
            dedup: false,
            ..EnumConfig::default()
        };
        let mut keys = std::collections::HashSet::new();
        let mut outcomes = OutcomeSet::default();
        let mut yielded = 0usize;
        for item in behaviors(&sb(), &Policy::weak(), &dedup_off).unwrap() {
            let behavior = item.unwrap();
            keys.insert(behavior.canonical_key());
            outcomes.insert(behavior.outcome());
            yielded += 1;
        }
        let reference = enumerate(&sb(), &Policy::weak(), &EnumConfig::default()).unwrap();
        assert_eq!(outcomes, reference.outcomes);
        assert_eq!(keys.len(), reference.stats.distinct_executions);
        assert!(
            yielded >= keys.len(),
            "dedup-off must yield at least every distinct execution"
        );
    }
}
