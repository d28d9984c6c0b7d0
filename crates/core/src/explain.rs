//! Witnesses for allowed outcomes, refutations for forbidden ones.
//!
//! The paper argues about litmus tests by exhibiting executions (Figures
//! 3–5, 7–11): an *allowed* outcome is justified by a concrete execution
//! graph plus a serialization, and a *forbidden* outcome by showing that
//! the Store Atomicity rules (Figure 6) leave some load with no candidate
//! store producing the required value. This module mechanizes both
//! directions on the production engine's behaviour stream:
//!
//! * [`find_witness`] pulls the pruned engine's goal-directed stream
//!   ([`crate::pruned::stream`], path table on) and, at the
//!   first complete behaviour matching a [`Goal`], packages the
//!   resolution path ([`crate::pruned::PrunedStream::path_to`]), the
//!   final outcome, every load's observed store, and a serialization
//!   into a [`Witness`]. The search stops there. The witness is
//!   *checkable*: [`Witness::verify`] replays the path from a fresh root
//!   and re-validates the serialization, so a stored witness re-executes
//!   to the same final values.
//! * [`refute`] proves a goal unobservable on the same stream. When the
//!   goal registers are written by unique loads in branch-free threads,
//!   the stream is [pinned](crate::pruned::PrunedStream::pin): a goal
//!   load resolves only to stores carrying the required value. Its first
//!   blocked state, a goal load that is resolvable but has no such
//!   candidate (or whose every such fork rolls back), becomes a
//!   [`BlockedRefutation`] naming the store that was excluded and the
//!   closure rule ([`Rule`]) responsible, diagnosed on the stream's copy
//!   of that state's graph ([`PrunedStream::blocked_graph`]).
//!   [`BlockedRefutation::verify`] replays the prefix and machine-checks
//!   that the candidate set is indeed empty of the required value and
//!   that the named rule's edge is present. Goals outside that fragment
//!   exhaust the whole stream ([`Refutation::Exhaustive`]).
//!
//! Both searches pull the same stream, so a witness from [`refute`] is
//! the one [`find_witness`] returns. Pinning does not change which
//! witness that is: the pinned stream is the whole stream restricted to
//! goal-consistent observation sets, so its first match is the same
//! execution, reached by the same path.
//!
//! ```
//! use samm_core::explain::{find_witness, refute, Goal, RefuteOutcome};
//! use samm_core::enumerate::EnumConfig;
//! use samm_core::instr::{Instr, Program, ThreadProgram};
//! use samm_core::ids::{Reg, Value};
//! use samm_core::policy::Policy;
//!
//! // Store-buffering: both loads reading 0 is allowed weak, forbidden SC.
//! let t = |a: u64, b: u64| ThreadProgram::new(vec![
//!     Instr::Store { addr: a.into(), val: 1u64.into() },
//!     Instr::Load { dst: Reg::new(0), addr: b.into() },
//! ]);
//! let sb = Program::new(vec![t(0, 1), t(1, 0)]);
//! let goal = Goal::new(vec![
//!     (0, Reg::new(0), Value::ZERO),
//!     (1, Reg::new(0), Value::ZERO),
//! ]);
//! let config = EnumConfig::default();
//!
//! let w = find_witness(&sb, &Policy::weak(), &config, &goal).unwrap().unwrap();
//! assert!(w.verify(&sb, &Policy::weak(), config.max_nodes_per_thread).is_ok());
//!
//! let r = refute(&sb, &Policy::sequential_consistency(), &config, &goal).unwrap();
//! assert!(matches!(r, RefuteOutcome::Refuted(_)));
//! ```

use std::fmt;

use crate::atomicity::Rule;
use crate::enumerate::EnumConfig;
use crate::error::EnumError;
use crate::exec::{Behavior, StepError};
use crate::graph::{EdgeKind, ExecutionGraph};
use crate::ids::{NodeId, Reg, Value};
use crate::instr::{Instr, Program};
use crate::outcome::Outcome;
use crate::policy::Policy;
use crate::pruned::{stream, Pins, PrunedStream};
use crate::serialize::{
    find_serialization, tso_serializations, validate_serialization, validate_tso_serialization,
};

/// A conjunction of final-register constraints, the machine form of a
/// litmus condition such as `0:r0=0 /\ 1:r0=0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Goal {
    clauses: Vec<(usize, Reg, Value)>,
}

impl Goal {
    /// Creates a goal from `(thread, register, value)` clauses.
    pub fn new(clauses: Vec<(usize, Reg, Value)>) -> Self {
        Goal { clauses }
    }

    /// The `(thread, register, value)` clauses.
    pub fn clauses(&self) -> &[(usize, Reg, Value)] {
        &self.clauses
    }

    /// Whether `outcome` satisfies every clause.
    pub fn matches(&self, outcome: &Outcome) -> bool {
        self.clauses.iter().all(|&(t, r, v)| outcome.reg(t, r) == v)
    }
}

impl fmt::Display for Goal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (t, r, v)) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " /\\ ")?;
            }
            write!(f, "{t}:{r}={v}")?;
        }
        Ok(())
    }
}

/// The serialization component of a [`Witness`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Serialization {
    /// A strict serialization: every load reads the most recent store in
    /// the total order (paper §3.1).
    Strict(Vec<NodeId>),
    /// A store-buffer (TSO) serialization: loads may forward from a
    /// program-earlier pending store (paper §6, Figure 10) — the
    /// execution has no strict serialization.
    Buffered(Vec<NodeId>),
    /// No serialization was found within the search budget. Never
    /// produced for behaviours of the built-in store-atomic models.
    None,
}

impl Serialization {
    /// The serialization order, if one was found.
    pub fn order(&self) -> Option<&[NodeId]> {
        match self {
            Serialization::Strict(o) | Serialization::Buffered(o) => Some(o),
            Serialization::None => None,
        }
    }
}

/// A checkable explanation of an *allowed* outcome: the paper's "exhibit
/// an execution" argument, in data.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The `(load, store)` resolutions, in order, that reach the
    /// execution from the root behaviour. Replaying them is
    /// deterministic (see [`Witness::verify`]).
    pub path: Vec<(NodeId, NodeId)>,
    /// The final register files.
    pub outcome: Outcome,
    /// A serialization of the execution graph.
    pub serialization: Serialization,
    /// Every load's observed store: `(load, source, bypassed)`. These are
    /// the `@` source edges justifying each loaded value.
    pub observations: Vec<(NodeId, NodeId, bool)>,
    /// The complete behaviour itself (execution graph + register files).
    pub execution: Behavior,
}

impl Witness {
    /// Packages a complete behaviour and the resolution path that reaches
    /// it (e.g. from [`PrunedStream::path_to`]), choosing a strict
    /// serialization when one exists and falling back to a store-buffer
    /// one (paper Figure 10: TSO bypass executions have no strict
    /// serialization).
    pub fn new(behavior: Behavior, path: Vec<(NodeId, NodeId)>) -> Witness {
        let serialization = match find_serialization(&behavior) {
            Some(order) => Serialization::Strict(order),
            None => match tso_serializations(&behavior, 1).into_iter().next() {
                Some(order) => Serialization::Buffered(order),
                None => Serialization::None,
            },
        };
        let observations: Vec<(NodeId, NodeId, bool)> = behavior
            .graph()
            .iter()
            .filter(|(_, n)| n.is_load())
            .filter_map(|(id, n)| n.source().map(|s| (id, s, n.is_bypass_source())))
            .collect();
        Witness {
            path,
            outcome: behavior.outcome(),
            serialization,
            observations,
            execution: behavior,
        }
    }

    /// Replays [`path`](Witness::path) from a fresh root and checks that
    /// the replay (a) completes, (b) produces
    /// [`outcome`](Witness::outcome), and (c) admits
    /// [`serialization`](Witness::serialization) as a valid (strict or
    /// store-buffer) serialization.
    ///
    /// Node ids are assigned deterministically by graph generation, so a
    /// stored path replays against the same ids.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first replay divergence.
    pub fn verify(
        &self,
        program: &Program,
        policy: &Policy,
        max_nodes_per_thread: u32,
    ) -> Result<(), String> {
        let behavior = replay(program, policy, max_nodes_per_thread, &self.path)?;
        if !behavior.is_complete() {
            return Err("replayed behaviour is incomplete".into());
        }
        let outcome = behavior.outcome();
        if outcome != self.outcome {
            return Err(format!(
                "replayed outcome {outcome} differs from witness outcome {}",
                self.outcome
            ));
        }
        match &self.serialization {
            Serialization::Strict(order) => validate_serialization(&behavior, order)
                .map_err(|e| format!("strict serialization invalid: {e}")),
            Serialization::Buffered(order) => validate_tso_serialization(&behavior, order)
                .map_err(|e| format!("store-buffer serialization invalid: {e}")),
            Serialization::None => Err("witness carries no serialization".into()),
        }
    }

    /// Renders the witness as a JSON object (hand-rolled; no external
    /// dependencies).
    pub fn to_json(&self) -> String {
        let path: Vec<String> = self
            .path
            .iter()
            .map(|(l, s)| format!("[{},{}]", l.index(), s.index()))
            .collect();
        let obsv: Vec<String> = self
            .observations
            .iter()
            .map(|(l, s, b)| format!("[{},{},{b}]", l.index(), s.index()))
            .collect();
        let ser = match &self.serialization {
            Serialization::Strict(o) => format!("{{\"kind\":\"strict\",\"order\":{}}}", ids(o)),
            Serialization::Buffered(o) => {
                format!("{{\"kind\":\"buffered\",\"order\":{}}}", ids(o))
            }
            Serialization::None => "null".to_owned(),
        };
        format!(
            "{{\"outcome\":\"{}\",\"path\":[{}],\"observations\":[{}],\"serialization\":{}}}",
            self.outcome,
            path.join(","),
            obsv.join(","),
            ser,
        )
    }
}

fn ids(order: &[NodeId]) -> String {
    let parts: Vec<String> = order.iter().map(|n| n.index().to_string()).collect();
    format!("[{}]", parts.join(","))
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "witness for outcome {}", self.outcome)?;
        let graph = self.execution.graph();
        for &(load, source, bypass) in &self.observations {
            writeln!(
                f,
                "  {} observes {}{}",
                graph.node(load).label(),
                graph.node(source).label(),
                if bypass {
                    "  (store-buffer bypass)"
                } else {
                    ""
                },
            )?;
        }
        match &self.serialization {
            Serialization::Strict(order) => {
                writeln!(f, "  strict serialization:")?;
                for n in order {
                    writeln!(f, "    {}", graph.node(*n).label())?;
                }
            }
            Serialization::Buffered(order) => {
                writeln!(f, "  store-buffer serialization (no strict one exists):")?;
                for n in order {
                    writeln!(f, "    {}", graph.node(*n).label())?;
                }
            }
            Serialization::None => writeln!(f, "  no serialization found")?,
        }
        Ok(())
    }
}

/// Why a store carrying the required value is missing from a goal load's
/// candidate set (paper §4: the conditions of `candidates(L)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefuteReason {
    /// The store is certainly overwritten for this load:
    /// `store @ blocker @ load` with `blocker` a same-address store.
    /// `rule` names the first Store Atomicity edge that contributes to
    /// the ordering (`None` when local reordering constraints alone
    /// produce it).
    Overwritten {
        /// The excluded store carrying the required value.
        store: NodeId,
        /// The same-address store that certainly overwrites it.
        blocker: NodeId,
        /// The closure rule that inserted an edge on the blocking chain.
        rule: Option<Rule>,
    },
    /// The store is ordered after the load (`load @ store`), so it can
    /// never be its source.
    AfterLoad {
        /// The excluded store.
        store: NodeId,
        /// The closure rule that inserted an edge on the `load @ store`
        /// chain (`None` for local ordering).
        rule: Option<Rule>,
    },
    /// The store had not yet executed at the decision point (it, or an
    /// `@`-predecessor of it, is unresolved; paper §4 condition 1).
    Unready {
        /// The excluded store.
        store: NodeId,
    },
    /// No store to the load's address ever produces the required value.
    NoSuchStore,
    /// Candidates with the required value exist, but resolving the load
    /// to any of them closes an ordering cycle (bypass/speculation
    /// rollback).
    ResolutionCycle {
        /// The first candidate whose resolution was inconsistent.
        store: NodeId,
    },
}

impl fmt::Display for RefuteReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rule_str = |r: &Option<Rule>| match r {
            Some(r) => format!("closure rule {r}"),
            None => "local ordering constraints".to_owned(),
        };
        match self {
            RefuteReason::Overwritten {
                store,
                blocker,
                rule,
            } => write!(
                f,
                "store {store} is certainly overwritten by {blocker} ({})",
                rule_str(rule)
            ),
            RefuteReason::AfterLoad { store, rule } => write!(
                f,
                "store {store} is ordered after the load ({})",
                rule_str(rule)
            ),
            RefuteReason::Unready { store } => {
                write!(f, "store {store} had not executed at the decision point")
            }
            RefuteReason::NoSuchStore => write!(f, "no store ever produces the required value"),
            RefuteReason::ResolutionCycle { store } => {
                write!(f, "observing store {store} closes an ordering cycle")
            }
        }
    }
}

/// A machine-checkable proof obligation that a goal is unobservable: in
/// the state reached by [`prefix`](BlockedRefutation::prefix), the goal
/// load is resolvable but no candidate store carries the required value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedRefutation {
    /// The `(load, store)` resolutions reaching the blocked state.
    pub prefix: Vec<(NodeId, NodeId)>,
    /// The goal load whose candidate set lacks the required value.
    pub load: NodeId,
    /// The value the goal requires the load to observe.
    pub required: Value,
    /// Why the required value is missing from `candidates(load)`.
    pub reason: RefuteReason,
}

impl BlockedRefutation {
    /// Replays [`prefix`](BlockedRefutation::prefix) and machine-checks
    /// the blocked site: the load is resolvable, its candidate set
    /// contains no store with the required value, and the
    /// [`reason`](BlockedRefutation::reason) — including any named
    /// closure [`Rule`] edge — holds in the replayed graph.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first check that fails.
    pub fn verify(
        &self,
        program: &Program,
        policy: &Policy,
        max_nodes_per_thread: u32,
    ) -> Result<(), String> {
        let behavior = replay(program, policy, max_nodes_per_thread, &self.prefix)?;
        let graph = behavior.graph();
        if !graph.node(self.load).is_load() {
            return Err(format!("{} is not a load", self.load));
        }
        if !crate::candidates::load_resolvable(graph, self.load) {
            return Err(format!(
                "{} is not resolvable in the replayed state",
                self.load
            ));
        }
        let cands = behavior.candidates(self.load);
        let valued: Vec<NodeId> = cands
            .iter()
            .copied()
            .filter(|&s| graph.node(s).stored_value() == Some(self.required))
            .collect();
        if !matches!(self.reason, RefuteReason::ResolutionCycle { .. }) && !valued.is_empty() {
            return Err(format!(
                "candidate {} does supply the required value {}",
                valued[0], self.required
            ));
        }
        let addr = graph
            .node(self.load)
            .addr()
            .ok_or_else(|| format!("load {} has no resolved address", self.load))?;
        match &self.reason {
            RefuteReason::NoSuchStore => {
                let produced: Vec<NodeId> = graph
                    .stores_to(addr)
                    .filter(|&s| graph.node(s).stored_value() == Some(self.required))
                    .collect();
                if produced.is_empty() {
                    Ok(())
                } else {
                    Err(format!(
                        "store {} does produce the required value",
                        produced[0]
                    ))
                }
            }
            RefuteReason::Unready { store } => {
                let s = graph.node(*store);
                let unready = !s.is_resolved()
                    || graph.predecessors(*store).iter().map(NodeId::new).any(|p| {
                        let pn = graph.node(p);
                        pn.is_memory() && !pn.is_resolved()
                    });
                if unready {
                    Ok(())
                } else {
                    Err(format!("store {store} is ready after all"))
                }
            }
            RefuteReason::AfterLoad { store, rule } => {
                if !graph.precedes(self.load, *store) {
                    return Err(format!("{} does not precede {}", self.load, store));
                }
                check_rule_on(graph, self.load, *store, *rule)
            }
            RefuteReason::Overwritten {
                store,
                blocker,
                rule,
            } => {
                if graph.node(*blocker).addr() != Some(addr) {
                    return Err(format!("blocker {blocker} stores to a different address"));
                }
                if !graph.precedes(*store, *blocker) || !graph.precedes(*blocker, self.load) {
                    return Err(format!(
                        "no {store} @ {blocker} @ {} overwrite chain",
                        self.load
                    ));
                }
                // The rule edge must lie on one of the two chain segments.
                check_rule_on(graph, *store, *blocker, *rule)
                    .or_else(|_| check_rule_on(graph, *blocker, self.load, *rule))
            }
            RefuteReason::ResolutionCycle { store } => {
                if !valued.contains(store) {
                    return Err(format!("{store} is not a required-value candidate"));
                }
                for &s in &valued {
                    let mut fork = behavior.clone();
                    let step = fork
                        .resolve_load(self.load, s)
                        .and_then(|()| fork.settle(program, policy, max_nodes_per_thread));
                    match step {
                        Err(StepError::Inconsistent(_)) => {}
                        Ok(()) => {
                            return Err(format!("resolving {} to {s} is consistent", self.load))
                        }
                        Err(e) => return Err(format!("replay failed: {e:?}")),
                    }
                }
                Ok(())
            }
        }
    }

    /// Renders the refutation as a JSON object (hand-rolled).
    pub fn to_json(&self) -> String {
        let prefix: Vec<String> = self
            .prefix
            .iter()
            .map(|(l, s)| format!("[{},{}]", l.index(), s.index()))
            .collect();
        let reason = match &self.reason {
            RefuteReason::Overwritten {
                store,
                blocker,
                rule,
            } => format!(
                "{{\"kind\":\"overwritten\",\"store\":{},\"blocker\":{},\"rule\":{}}}",
                store.index(),
                blocker.index(),
                rule_json(*rule)
            ),
            RefuteReason::AfterLoad { store, rule } => format!(
                "{{\"kind\":\"after_load\",\"store\":{},\"rule\":{}}}",
                store.index(),
                rule_json(*rule)
            ),
            RefuteReason::Unready { store } => {
                format!("{{\"kind\":\"unready\",\"store\":{}}}", store.index())
            }
            RefuteReason::NoSuchStore => "{\"kind\":\"no_such_store\"}".to_owned(),
            RefuteReason::ResolutionCycle { store } => {
                format!(
                    "{{\"kind\":\"resolution_cycle\",\"store\":{}}}",
                    store.index()
                )
            }
        };
        format!(
            "{{\"prefix\":[{}],\"load\":{},\"required\":\"{}\",\"reason\":{}}}",
            prefix.join(","),
            self.load.index(),
            self.required,
            reason,
        )
    }
}

fn rule_json(rule: Option<Rule>) -> String {
    match rule {
        Some(r) => format!("\"{r}\""),
        None => "null".to_owned(),
    }
}

/// A proof that a goal is unobservable under a policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refutation {
    /// The pinned goal stream reached a state in which a goal load's
    /// candidate set lacks the required value (or every fork to it rolls
    /// back), and exhausted every alternative.
    Blocked(BlockedRefutation),
    /// The goal stream was exhausted without observing the goal, and no
    /// blocked state names a reason: the goal fell outside the guided
    /// fragment (branching control flow or multiply-written goal
    /// registers), or no pinned state blocked.
    Exhaustive {
        /// Behaviours explored by the goal stream (pinned or whole).
        explored: usize,
        /// Distinct complete executions found.
        distinct: usize,
    },
}

impl fmt::Display for Refutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refutation::Blocked(b) => {
                writeln!(
                    f,
                    "refuted: after {} resolution(s), load {} cannot observe {}",
                    b.prefix.len(),
                    b.load,
                    b.required
                )?;
                write!(f, "  because {}", b.reason)
            }
            Refutation::Exhaustive { explored, distinct } => write!(
                f,
                "refuted by exhaustion: {explored} behaviours explored, \
                 {distinct} complete executions, none matches"
            ),
        }
    }
}

/// The result of [`refute`]: either the goal is observable after all
/// (with a [`Witness`]), or a [`Refutation`] proves it is not.
#[derive(Debug, Clone)]
pub enum RefuteOutcome {
    /// The goal is observable; here is the witness.
    Observable(Box<Witness>),
    /// The goal is unobservable; here is the proof.
    Refuted(Refutation),
}

/// Searches for the first complete behaviour matching `goal` and packages
/// it as a replayable [`Witness`]. Returns `Ok(None)` when the goal is
/// unobservable (see [`refute`] for an explanation instead).
///
/// Runs on the goal's stream: pinned when the goal falls in the guided
/// fragment (see [`refute`]), the whole goal stream otherwise. Either
/// way the first match is the same execution, reached by the same path.
///
/// # Errors
///
/// As for [`crate::pruned::stream`] and its items; the fork budget
/// counts the stream's claims, which a pinned stream makes only for
/// value-carrying candidates of the goal loads.
pub fn find_witness(
    program: &Program,
    policy: &Policy,
    config: &EnumConfig,
    goal: &Goal,
) -> Result<Option<Witness>, EnumError> {
    first_match(&mut goal_stream(program, policy, config, goal)?, goal)
}

/// The goal-directed stream for `goal`, pinned to the goal loads'
/// values when the goal falls in the guided fragment.
fn goal_stream<'a>(
    program: &'a Program,
    policy: &'a Policy,
    config: &'a EnumConfig,
    goal: &Goal,
) -> Result<PrunedStream<'a>, EnumError> {
    let mut behaviors = stream(program, policy, config)?;
    behaviors.pin(|root| goal_load_nodes(program, root, goal));
    Ok(behaviors)
}

/// Pulls `behaviors` up to the first behaviour matching `goal` and
/// packages it with its recorded path.
fn first_match(
    behaviors: &mut PrunedStream<'_>,
    goal: &Goal,
) -> Result<Option<Witness>, EnumError> {
    while let Some(item) = behaviors.next() {
        let (id, behavior) = item?;
        if goal.matches(&behavior.outcome()) {
            let path = behaviors
                .path_to(id)
                .expect("the stream records a path for every yielded behaviour");
            return Ok(Some(Witness::new(behavior, path)));
        }
    }
    Ok(None)
}

/// Proves `goal` unobservable under `policy`, or returns its witness.
///
/// When every goal register is written by exactly one Load/Rmw in a
/// branch-free thread, the goal's stream is *pinned*: each goal load
/// resolves only to stores carrying the required value. Pruned branches
/// can never match (the register is written once), so exhausting the
/// pinned stream is a sound unobservability proof, and its first blocked
/// state (a goal load with no value-carrying candidate, or whose
/// value-carrying forks all roll back) becomes a [`BlockedRefutation`]
/// naming the closure rule that emptied the candidate set. Otherwise the
/// whole goal stream is exhausted and [`Refutation::Exhaustive`] reports
/// its `explored` and distinct counts.
///
/// # Errors
///
/// As for [`find_witness`], including [`EnumError::Overbudget`] past
/// [`EnumConfig::budget`] claims.
pub fn refute(
    program: &Program,
    policy: &Policy,
    config: &EnumConfig,
    goal: &Goal,
) -> Result<RefuteOutcome, EnumError> {
    let mut behaviors = goal_stream(program, policy, config, goal)?;
    if let Some(witness) = first_match(&mut behaviors, goal)? {
        return Ok(RefuteOutcome::Observable(Box::new(witness)));
    }
    let refutation = match behaviors.blocked() {
        Some(blocked) => {
            let prefix = behaviors
                .path_to(blocked.id)
                .expect("the stream records a path for every expanded state");
            let reason = match blocked.cycle {
                Some(store) => RefuteReason::ResolutionCycle { store },
                None => diagnose(
                    behaviors
                        .blocked_graph()
                        .expect("a pinned stream keeps the graph of a load it blocks"),
                    blocked.load,
                    blocked.required,
                ),
            };
            Refutation::Blocked(BlockedRefutation {
                prefix,
                load: blocked.load,
                required: blocked.required,
                reason,
            })
        }
        None => {
            let stats = behaviors.stats();
            Refutation::Exhaustive {
                explored: stats.explored,
                distinct: stats.distinct_executions,
            }
        }
    };
    Ok(RefuteOutcome::Refuted(refutation))
}

/// Maps each goal clause to its load node in the settled root graph, or
/// `None` when the goal falls outside the guided fragment: a clause's
/// thread must be branch-free (no `BranchNz`/`Jump`) and its register
/// written by exactly one instruction, a `Load` or `Rmw`.
fn goal_load_nodes(program: &Program, graph: &ExecutionGraph, goal: &Goal) -> Option<Pins> {
    let mut map = Pins::new();
    for &(thread, reg, value) in goal.clauses() {
        let tp = program.threads().get(thread)?;
        let mut writers = 0usize;
        // Ordinal of the goal load among the thread's Load/Rmw instructions.
        let mut load_ordinal = None;
        let mut loads_in_program = 0usize;
        for instr in tp.instrs() {
            match instr {
                Instr::BranchNz { .. } | Instr::Jump { .. } => return None,
                Instr::Load { dst, .. } | Instr::Rmw { dst, .. } => {
                    if *dst == reg {
                        writers += 1;
                        load_ordinal = Some(loads_in_program);
                    }
                    loads_in_program += 1;
                }
                Instr::Mov { dst, .. } | Instr::Binop { dst, .. } => {
                    if *dst == reg {
                        return None;
                    }
                }
                Instr::Store { .. } | Instr::Fence | Instr::Halt => {}
            }
        }
        if writers != 1 {
            return None;
        }
        let ordinal = load_ordinal.expect("writers == 1 implies an ordinal");
        // Straight-line code generates each instruction exactly once, in
        // order, so the ordinal-th load node of the thread is the writer.
        let mut loads: Vec<NodeId> = graph
            .iter()
            .filter(|(_, n)| n.is_load() && !n.thread().is_init() && n.thread().index() == thread)
            .map(|(id, _)| id)
            .collect();
        loads.sort_by_key(|&id| graph.node(id).index_in_thread());
        if loads.len() != loads_in_program {
            // Generation is not complete for this thread; stay sound by
            // falling back to the exhaustive search.
            return None;
        }
        let node = *loads.get(ordinal)?;
        if let Some(prev) = map.insert(node, value) {
            if prev != value {
                return None; // contradictory clauses on one load
            }
        }
    }
    Some(map)
}

/// Explains why no candidate of `load` carries `required`, naming the
/// first Store Atomicity edge (in insertion order) on the blocking chain
/// when one exists.
fn diagnose(graph: &ExecutionGraph, load: NodeId, required: Value) -> RefuteReason {
    let addr = match graph.node(load).addr() {
        Some(a) => a,
        None => return RefuteReason::NoSuchStore,
    };
    let same_addr: Vec<NodeId> = graph.stores_to(addr).collect();
    let valued: Vec<NodeId> = same_addr
        .iter()
        .copied()
        .filter(|&s| graph.node(s).stored_value() == Some(required))
        .collect();
    if valued.is_empty() {
        return RefuteReason::NoSuchStore;
    }
    for &store in &valued {
        if graph.precedes(load, store) {
            return RefuteReason::AfterLoad {
                store,
                rule: blame(graph, &[(load, store)]),
            };
        }
        if let Some(&blocker) = same_addr.iter().find(|&&other| {
            other != store && graph.precedes(store, other) && graph.precedes(other, load)
        }) {
            return RefuteReason::Overwritten {
                store,
                blocker,
                rule: blame(graph, &[(store, blocker), (blocker, load)]),
            };
        }
    }
    RefuteReason::Unready { store: valued[0] }
}

/// The rule of the first insertion-order Store Atomicity edge lying on
/// any of the given `(from, to)` ordering segments (reach-or-equal at
/// both ends), or `None` when only local edges produce the ordering.
fn blame(graph: &ExecutionGraph, segments: &[(NodeId, NodeId)]) -> Option<Rule> {
    graph
        .edges()
        .iter()
        .find(|e| {
            e.kind == EdgeKind::Atomicity
                && segments
                    .iter()
                    .any(|&(from, to)| reach_eq(graph, from, e.from) && reach_eq(graph, e.to, to))
        })
        .and_then(|e| e.rule)
}

/// `a == b` or `a @ b`.
fn reach_eq(graph: &ExecutionGraph, a: NodeId, b: NodeId) -> bool {
    a == b || graph.precedes(a, b)
}

/// Checks that `rule`'s claim about the `from @ to` chain holds: when
/// `Some`, an Atomicity edge with that rule tag lies on the chain; when
/// `None`, the ordering merely needs to exist.
fn check_rule_on(
    graph: &ExecutionGraph,
    from: NodeId,
    to: NodeId,
    rule: Option<Rule>,
) -> Result<(), String> {
    match rule {
        None => Ok(()),
        Some(r) => {
            let found = graph.edges().iter().any(|e| {
                e.kind == EdgeKind::Atomicity
                    && e.rule == Some(r)
                    && reach_eq(graph, from, e.from)
                    && reach_eq(graph, e.to, to)
            });
            if found {
                Ok(())
            } else {
                Err(format!("no rule-{r} edge lies on {from} @ {to}"))
            }
        }
    }
}

/// Replays a resolution path from a fresh root: settle, then
/// resolve-and-settle each `(load, store)` pair.
fn replay(
    program: &Program,
    policy: &Policy,
    max_nodes_per_thread: u32,
    path: &[(NodeId, NodeId)],
) -> Result<Behavior, String> {
    let mut behavior = Behavior::new(program);
    behavior
        .settle(program, policy, max_nodes_per_thread)
        .map_err(|e| format!("root settle failed: {e:?}"))?;
    for &(load, store) in path {
        behavior
            .resolve_load(load, store)
            .and_then(|()| behavior.settle(program, policy, max_nodes_per_thread))
            .map_err(|e| format!("replaying {load} <- {store} failed: {e:?}"))?;
    }
    Ok(behavior)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomicity::Rule;
    use crate::instr::{Instr, Operand, RmwOp, ThreadProgram};

    fn sb() -> Program {
        let t = |a: u64, b: u64| {
            ThreadProgram::new(vec![
                Instr::Store {
                    addr: a.into(),
                    val: 1u64.into(),
                },
                Instr::Load {
                    dst: Reg::new(0),
                    addr: b.into(),
                },
            ])
        };
        Program::new(vec![t(0, 1), t(1, 0)])
    }

    fn zero_zero() -> Goal {
        Goal::new(vec![
            (0, Reg::new(0), Value::ZERO),
            (1, Reg::new(0), Value::ZERO),
        ])
    }

    #[test]
    fn weak_sb_witness_is_found_and_replays() {
        let config = EnumConfig::default();
        let w = find_witness(&sb(), &Policy::weak(), &config, &zero_zero())
            .unwrap()
            .expect("0/0 is allowed weak");
        assert!(matches!(w.serialization, Serialization::Strict(_)));
        w.verify(&sb(), &Policy::weak(), config.max_nodes_per_thread)
            .unwrap();
        assert!(w.to_json().contains("\"serialization\""));
    }

    #[test]
    fn refutation_honours_the_fork_budget() {
        let one = EnumConfig::builder().budget(1).build();
        for policy in [Policy::weak(), Policy::sequential_consistency()] {
            assert_eq!(
                refute(&sb(), &policy, &one, &zero_zero()).unwrap_err(),
                EnumError::Overbudget {
                    budget: 1,
                    forks: 2
                },
                "{}",
                policy.name()
            );
            // A budget the search fits in leaves the answer unchanged.
            let unbudgeted = refute(&sb(), &policy, &EnumConfig::default(), &zero_zero());
            let roomy = EnumConfig::builder().budget(1_000).build();
            let budgeted = refute(&sb(), &policy, &roomy, &zero_zero());
            assert_eq!(
                format!("{budgeted:?}"),
                format!("{unbudgeted:?}"),
                "{}",
                policy.name()
            );
        }
    }

    #[test]
    fn witness_budget_counts_only_pinned_claims() {
        // LB under Weak, both loads reading 1. The whole goal stream
        // claims every candidate of every load and runs out of a budget of
        // 7 before the match; the pinned stream claims only the
        // value-carrying candidates and reaches the same witness in it.
        let t = |mine: u64, theirs: u64| {
            ThreadProgram::new(vec![
                Instr::Load {
                    dst: Reg::new(0),
                    addr: mine.into(),
                },
                Instr::Store {
                    addr: theirs.into(),
                    val: 1u64.into(),
                },
            ])
        };
        let lb = Program::new(vec![t(0, 1), t(1, 0)]);
        let goal = Goal::new(vec![
            (0, Reg::new(0), Value::new(1)),
            (1, Reg::new(0), Value::new(1)),
        ]);
        let weak = Policy::weak();
        let seven = EnumConfig::builder().budget(7).build();
        let mut whole = stream(&lb, &weak, &seven).unwrap();
        assert_eq!(
            whole.find_map(Result::err),
            Some(EnumError::Overbudget {
                budget: 7,
                forks: 8
            })
        );
        let witness = find_witness(&lb, &weak, &seven, &goal)
            .unwrap()
            .expect("LB 1/1 is allowed weak");
        witness
            .verify(&lb, &weak, seven.max_nodes_per_thread)
            .unwrap();
        let unbudgeted = find_witness(&lb, &weak, &EnumConfig::default(), &goal)
            .unwrap()
            .unwrap();
        assert_eq!(witness.to_json(), unbudgeted.to_json());
    }

    #[test]
    fn sc_sb_refutation_names_rule_b() {
        let config = EnumConfig::default();
        let sc = Policy::sequential_consistency();
        let r = refute(&sb(), &sc, &config, &zero_zero()).unwrap();
        let RefuteOutcome::Refuted(Refutation::Blocked(b)) = r else {
            panic!("expected a blocked refutation, got {r:?}");
        };
        // The paper's argument: rule b orders the first-resolved load
        // before the other thread's store, which then certainly
        // overwrites the initial value for the remaining load.
        match &b.reason {
            RefuteReason::Overwritten { rule, .. } => assert_eq!(*rule, Some(Rule::B)),
            other => panic!("unexpected reason {other:?}"),
        }
        b.verify(&sb(), &sc, config.max_nodes_per_thread).unwrap();
        assert!(b.to_json().contains("overwritten"));
    }

    #[test]
    fn tso_forwarding_witness_needs_a_buffered_serialization() {
        // Figure 10: each thread forwards its own store and then misses
        // the other thread's — an execution with no strict serialization.
        let t = |mine: u64, theirs: u64| {
            ThreadProgram::new(vec![
                Instr::Store {
                    addr: mine.into(),
                    val: 1u64.into(),
                },
                Instr::Load {
                    dst: Reg::new(0),
                    addr: mine.into(),
                },
                Instr::Load {
                    dst: Reg::new(1),
                    addr: theirs.into(),
                },
            ])
        };
        let program = Program::new(vec![t(0, 1), t(1, 0)]);
        let goal = Goal::new(vec![
            (0, Reg::new(0), Value::new(1)),
            (0, Reg::new(1), Value::ZERO),
            (1, Reg::new(0), Value::new(1)),
            (1, Reg::new(1), Value::ZERO),
        ]);
        let config = EnumConfig::default();
        let tso = Policy::tso();
        let r = refute(&program, &tso, &config, &goal).unwrap();
        let RefuteOutcome::Observable(w) = r else {
            panic!("the Figure 10 outcome is allowed under TSO");
        };
        assert!(matches!(w.serialization, Serialization::Buffered(_)));
        w.verify(&program, &tso, config.max_nodes_per_thread)
            .unwrap();
    }

    #[test]
    fn impossible_value_refutes_with_no_such_store() {
        let config = EnumConfig::default();
        let goal = Goal::new(vec![(0, Reg::new(0), Value::new(7))]);
        let r = refute(&sb(), &Policy::weak(), &config, &goal).unwrap();
        let RefuteOutcome::Refuted(Refutation::Blocked(b)) = r else {
            panic!("value 7 is never stored");
        };
        assert_eq!(b.reason, RefuteReason::NoSuchStore);
        b.verify(&sb(), &Policy::weak(), config.max_nodes_per_thread)
            .unwrap();
    }

    #[test]
    fn branching_goal_falls_back_to_exhaustive() {
        // A thread with a branch is outside the guided fragment.
        let t0 = ThreadProgram::new(vec![
            Instr::Load {
                dst: Reg::new(0),
                addr: 0u64.into(),
            },
            Instr::BranchNz {
                cond: Operand::Reg(Reg::new(0)),
                target: 3,
            },
            Instr::Store {
                addr: 1u64.into(),
                val: 1u64.into(),
            },
            Instr::Halt,
        ]);
        let program = Program::new(vec![t0]);
        let goal = Goal::new(vec![(0, Reg::new(0), Value::new(3))]);
        let r = refute(
            &program,
            &Policy::sequential_consistency(),
            &EnumConfig::default(),
            &goal,
        )
        .unwrap();
        assert!(matches!(
            r,
            RefuteOutcome::Refuted(Refutation::Exhaustive { .. })
        ));
    }

    #[test]
    fn rmw_goal_register_is_guided() {
        // dst of a CAS receives the *old* value; requiring old = 1 on a
        // location only ever holding 0 or 2 is refutable via NoSuchStore.
        let t0 = ThreadProgram::new(vec![Instr::Rmw {
            dst: Reg::new(0),
            addr: 0u64.into(),
            op: RmwOp::Cas {
                expect: Operand::Imm(0u64.into()),
            },
            src: Operand::Imm(2u64.into()),
        }]);
        let program = Program::new(vec![t0]);
        let goal = Goal::new(vec![(0, Reg::new(0), Value::new(1))]);
        let r = refute(&program, &Policy::weak(), &EnumConfig::default(), &goal).unwrap();
        let RefuteOutcome::Refuted(Refutation::Blocked(b)) = r else {
            panic!("old value 1 unobservable");
        };
        assert_eq!(b.reason, RefuteReason::NoSuchStore);
    }

    /// A refutation diagnoses its blocked load on the stream's copy of
    /// the blocked state's graph; a replay of the prefix from a fresh
    /// root gives the same reason.
    #[test]
    fn blocked_state_graph_is_the_replayed_one() {
        let config = EnumConfig::default();
        let cases = [
            (Policy::sequential_consistency(), zero_zero()),
            (
                Policy::weak(),
                Goal::new(vec![(0, Reg::new(0), Value::new(7))]),
            ),
        ];
        let program = sb();
        for (policy, goal) in cases {
            let mut behaviors = goal_stream(&program, &policy, &config, &goal).unwrap();
            assert!(first_match(&mut behaviors, &goal).unwrap().is_none());
            let blocked = behaviors.blocked().expect("the goal blocks");
            assert_eq!(blocked.cycle, None);
            let prefix = behaviors.path_to(blocked.id).unwrap();
            let replayed = replay(&program, &policy, config.max_nodes_per_thread, &prefix).unwrap();
            let kept = behaviors.blocked_graph().expect("the graph is kept");
            assert_eq!(kept.edges(), replayed.graph().edges(), "{}", policy.name());
            assert_eq!(
                diagnose(kept, blocked.load, blocked.required),
                diagnose(replayed.graph(), blocked.load, blocked.required),
                "{}",
                policy.name()
            );
        }
    }

    #[test]
    fn witness_outcome_mismatch_is_detected() {
        let config = EnumConfig::default();
        let mut w = find_witness(&sb(), &Policy::weak(), &config, &zero_zero())
            .unwrap()
            .unwrap();
        w.outcome = Outcome::new(vec![vec![Value::new(9)], vec![Value::new(9)]]);
        assert!(w
            .verify(&sb(), &Policy::weak(), config.max_nodes_per_thread)
            .is_err());
    }
}
