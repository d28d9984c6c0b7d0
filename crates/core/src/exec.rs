//! Graph generation and dataflow execution of behaviours (paper §4.1).
//!
//! A [`Behavior`] holds the program graph together with each thread's PC and
//! register map. The paper's procedure alternates three phases:
//!
//! 1. **Graph generation** — "generate unresolved nodes for each thread...
//!    stopping at the first unresolved branch", inserting all the solid `≺`
//!    edges required by the reordering rules;
//! 2. **Execution** — values propagate dataflow-style; when an address
//!    becomes known, the `x ≠ y` alias pairs fire and insert `≺` edges;
//! 3. **Load resolution** — handled by the enumerator, which forks one copy
//!    of the behaviour per candidate store (see [`mod@crate::enumerate`]).
//!
//! Address-aliasing speculation (paper §5) is a property of the
//! [`Policy`]: non-speculative executions add an [`EdgeKind::AddrResolve`]
//! edge from the producer of every earlier potentially-aliasing operation's
//! address; speculative executions omit it, and a fork whose late alias
//! edge closes a cycle is rolled back (discarded) by the enumerator.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::atomicity;
use crate::candidates;
use crate::error::CycleError;
use crate::graph::{Edge, EdgeKind, ExecutionGraph, Input, NodeDetail, RmwKind};
use crate::ids::{Addr, NodeId, Reg, ThreadId, Value};
use crate::instr::{Instr, Operand, Program, RmwOp};
use crate::obs::Obs;
use crate::policy::{Constraint, Policy};

/// Why a behaviour step could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepError {
    /// An ordering edge closed a cycle: the behaviour violates Store
    /// Atomicity. After a load resolution this means "roll back the fork"
    /// under every model; in the initial behaviour it is an error.
    Inconsistent(CycleError),
    /// A thread exceeded the per-thread node budget (unbounded loop).
    NodeLimit {
        /// The offending thread index.
        thread: usize,
        /// The configured budget.
        limit: u32,
    },
}

impl From<CycleError> for StepError {
    fn from(e: CycleError) -> Self {
        StepError::Inconsistent(e)
    }
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::Inconsistent(e) => write!(f, "behaviour became inconsistent: {e}"),
            StepError::NodeLimit { thread, limit } => {
                write!(f, "thread {thread} exceeded node budget {limit}")
            }
        }
    }
}

impl std::error::Error for StepError {}

/// Decision state of a potentially-aliasing instruction pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AliasState {
    /// At least one address still unknown.
    Pending,
    /// Addresses known and different — no ordering required.
    Distinct,
    /// Addresses known and equal; for bypass pairs the ordering decision
    /// waits for load resolution.
    Aliased,
}

/// A program-ordered pair constrained by an `x ≠ y` (or bypass) table entry.
#[derive(Debug, Clone, Copy)]
struct AliasPair {
    first: NodeId,
    second: NodeId,
    /// TSO store→load pairs defer their ordering decision to resolution.
    bypass: bool,
    state: AliasState,
}

/// Per-thread architectural state: PC, register bindings, and control
/// status.
#[derive(Debug, Clone)]
struct ThreadState {
    pc: usize,
    regs: Vec<Input>,
    /// Set while generation is stopped at an unresolved branch.
    blocked_branch: Option<NodeId>,
    halted: bool,
    /// Number of graph nodes this thread has issued.
    emitted: u32,
}

impl ThreadState {
    fn new(reg_count: usize) -> Self {
        ThreadState {
            pc: 0,
            regs: vec![Input::Const(Value::ZERO); reg_count],
            blocked_branch: None,
            halted: false,
            emitted: 0,
        }
    }

    fn binding(&self, r: Reg) -> Input {
        self.regs
            .get(r.index())
            .copied()
            .unwrap_or(Input::Const(Value::ZERO))
    }

    fn bind(&mut self, r: Reg, input: Input) {
        if r.index() >= self.regs.len() {
            self.regs.resize(r.index() + 1, Input::Const(Value::ZERO));
        }
        self.regs[r.index()] = input;
    }
}

/// One (possibly partial) execution of a program: the graph plus every
/// thread's PC and register map.
///
/// Behaviours are cheap-ish to clone; the enumerator forks them at each
/// load-resolution choice.
#[derive(Debug)]
pub struct Behavior {
    graph: ExecutionGraph,
    /// Copy-on-write: mutated only while generation makes progress, so
    /// post-generation forks (the enumeration hot path) share one
    /// allocation with their parent.
    threads: Arc<Vec<ThreadState>>,
    alias_pairs: Vec<AliasPair>,
    /// Copy-on-write, like `threads` (mutated only by `ensure_init`).
    init_map: Arc<BTreeMap<Addr, NodeId>>,
    /// Issue-ordered node lists per program thread (for policy edges).
    /// Copy-on-write, like `threads` (mutated only by `emit_node`).
    thread_nodes: Arc<Vec<Vec<NodeId>>>,
    /// Shared instrumentation counters; `None` (the default) keeps every
    /// observation site at a single null check. Forks share the handle.
    obs: Option<Arc<Obs>>,
}

impl Clone for Behavior {
    fn clone(&self) -> Self {
        Behavior {
            graph: self.graph.clone(),
            threads: Arc::clone(&self.threads),
            alias_pairs: self.alias_pairs.clone(),
            init_map: Arc::clone(&self.init_map),
            thread_nodes: Arc::clone(&self.thread_nodes),
            obs: self.obs.clone(),
        }
    }
}

/// The allocations of a spent behaviour, kept to fork into
/// ([`Behavior::fork_into`]): its graph and alias pairs, which a fork
/// copies, without the copy-on-write state a fork shares.
#[derive(Debug, Default)]
pub(crate) struct Spare {
    graph: ExecutionGraph,
    alias_pairs: Vec<AliasPair>,
}

impl Spare {
    /// Drops the contents, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.graph.clear();
        self.alias_pairs.clear();
    }

    /// Bytes of heap the spare holds, used or not.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.graph.heap_bytes() + self.alias_pairs.capacity() * std::mem::size_of::<AliasPair>()
    }
}

impl Behavior {
    /// A clone of `self` built in `spare`'s allocations: equal to
    /// [`Clone::clone`], but with no graph allocation once the spare has
    /// held a graph as large.
    pub(crate) fn fork_into(&self, spare: Spare) -> Behavior {
        let Spare {
            mut graph,
            mut alias_pairs,
        } = spare;
        graph.clone_from(&self.graph);
        alias_pairs.clone_from(&self.alias_pairs);
        Behavior {
            graph,
            threads: Arc::clone(&self.threads),
            alias_pairs,
            init_map: Arc::clone(&self.init_map),
            thread_nodes: Arc::clone(&self.thread_nodes),
            obs: self.obs.clone(),
        }
    }

    /// Gives up the behaviour, keeping its allocations for
    /// [`Behavior::fork_into`].
    pub(crate) fn into_spare(self) -> Spare {
        Spare {
            graph: self.graph,
            alias_pairs: self.alias_pairs,
        }
    }

    /// Creates the initial behaviour of `program`: empty graph, every
    /// thread at PC 0, plus init stores for the explicitly initialized
    /// addresses. Init stores for other addresses appear lazily as soon as
    /// the address is first used.
    pub fn new(program: &Program) -> Self {
        Behavior::new_in(program, Spare::default())
    }

    /// [`Behavior::new`] built in `spare`'s allocations.
    pub(crate) fn new_in(program: &Program, mut spare: Spare) -> Self {
        spare.clear();
        let threads: Vec<ThreadState> = program
            .threads()
            .iter()
            .map(|t| ThreadState::new(t.reg_count()))
            .collect();
        let mut b = Behavior {
            graph: spare.graph,
            threads: Arc::new(threads),
            alias_pairs: spare.alias_pairs,
            init_map: Arc::new(BTreeMap::new()),
            thread_nodes: Arc::new(vec![Vec::new(); program.threads().len()]),
            obs: None,
        };
        for (addr, value) in program.init_entries() {
            b.ensure_init(addr, value);
        }
        b
    }

    /// The execution graph built so far.
    pub fn graph(&self) -> &ExecutionGraph {
        &self.graph
    }

    /// Attaches shared instrumentation counters. Every fork cloned from
    /// this behaviour reports into the same [`Obs`] block.
    pub fn enable_obs(&mut self, obs: Arc<Obs>) {
        self.obs = Some(obs);
    }

    /// The attached instrumentation counters, if any.
    pub fn obs(&self) -> Option<&Arc<Obs>> {
        self.obs.as_ref()
    }

    /// The current PC of a thread.
    pub fn pc(&self, thread: usize) -> usize {
        self.threads[thread].pc
    }

    /// Whether the thread has run to completion.
    pub fn thread_halted(&self, thread: usize) -> bool {
        self.threads[thread].halted
    }

    /// The current value bound to a register, when resolved.
    pub fn register_value(&self, thread: usize, reg: Reg) -> Option<Value> {
        match self.threads[thread].binding(reg) {
            Input::Const(v) => Some(v),
            Input::Node(id) => {
                let n = self.graph.node(id);
                if n.is_resolved() {
                    n.value()
                } else {
                    None
                }
            }
        }
    }

    /// Number of registers a thread's program uses.
    pub fn register_count(&self, thread: usize) -> usize {
        self.threads[thread].regs.len()
    }

    /// Number of program threads (excluding the init pseudo-thread).
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// True when every thread has halted, no branch is pending, and every
    /// node (in particular every load) is resolved.
    pub fn is_complete(&self) -> bool {
        self.threads
            .iter()
            .all(|t| t.halted && t.blocked_branch.is_none())
            && self.graph.fully_resolved()
    }

    /// The init store for `addr`, creating it (with `value`) if absent.
    fn ensure_init(&mut self, addr: Addr, value: Value) -> NodeId {
        if let Some(&id) = self.init_map.get(&addr) {
            return id;
        }
        let id = self.graph.add_init_store(0, addr, value);
        Arc::make_mut(&mut self.init_map).insert(addr, id);
        // Initial stores precede every non-init operation.
        let others: Vec<NodeId> = self
            .graph
            .iter()
            .filter(|(other, n)| *other != id && !n.is_init())
            .map(|(other, _)| other)
            .collect();
        for other in others {
            self.graph
                .add_edge(id, other, EdgeKind::Init)
                .expect("init store cannot close a cycle");
        }
        id
    }

    fn operand_input(&self, thread: usize, op: Operand) -> Input {
        match op {
            Operand::Imm(v) => Input::Const(v),
            Operand::Reg(r) => self.threads[thread].binding(r),
        }
    }

    /// The graph node producing a memory operation's address, if any.
    fn addr_producer(&self, id: NodeId) -> Option<NodeId> {
        match *self.graph.node(id).detail() {
            NodeDetail::Load { addr_in, .. }
            | NodeDetail::Store { addr_in, .. }
            | NodeDetail::Rmw { addr_in, .. } => addr_in.producer(),
            _ => None,
        }
    }

    /// Emits one graph node for thread `thread`, wiring data edges, policy
    /// edges against all earlier nodes of the thread, and init edges.
    /// Mutable access to one thread's state, unsharing the copy-on-write
    /// thread vector on first mutation after a fork.
    fn thread_mut(&mut self, thread: usize) -> &mut ThreadState {
        &mut Arc::make_mut(&mut self.threads)[thread]
    }

    fn emit_node(
        &mut self,
        policy: &Policy,
        thread: usize,
        detail: NodeDetail,
    ) -> Result<NodeId, StepError> {
        let index = self.threads[thread].emitted;
        let id = self.graph.add_node(ThreadId::new(thread), index, detail);
        self.thread_mut(thread).emitted += 1;

        // Data edges from node-valued inputs.
        let inputs: Vec<NodeId> = match detail {
            NodeDetail::Compute { lhs, rhs, .. } => {
                lhs.producer().into_iter().chain(rhs.producer()).collect()
            }
            NodeDetail::Branch { cond, .. } => cond.producer().into_iter().collect(),
            NodeDetail::Load { addr_in, .. } => addr_in.producer().into_iter().collect(),
            NodeDetail::Store { addr_in, val_in } => addr_in
                .producer()
                .into_iter()
                .chain(val_in.producer())
                .collect(),
            NodeDetail::Rmw {
                addr_in,
                src_in,
                expect_in,
                ..
            } => addr_in
                .producer()
                .into_iter()
                .chain(src_in.producer())
                .chain(expect_in.and_then(Input::producer))
                .collect(),
            NodeDetail::Fence | NodeDetail::Init => Vec::new(),
        };
        for p in inputs {
            self.graph.add_edge(p, id, EdgeKind::Data)?;
        }

        // Reordering-table edges against every earlier node of the thread.
        // RMW nodes carry both a Load and a Store facet; the constraint for
        // a pair is the strongest over all facet combinations.
        let classes = self.graph.node(id).classes();
        let priors: Vec<NodeId> = self.thread_nodes[thread].clone();
        for prior in priors {
            let prior_classes = self.graph.node(prior).classes();
            match policy.combined_constraint(prior_classes, classes) {
                Constraint::Never => {
                    self.graph.add_edge(prior, id, EdgeKind::Program)?;
                }
                c @ (Constraint::SameAddr | Constraint::Bypass) => {
                    self.alias_pairs.push(AliasPair {
                        first: prior,
                        second: id,
                        bypass: c == Constraint::Bypass,
                        state: AliasState::Pending,
                    });
                    // Non-speculative address disambiguation (§5.1): the
                    // later operation depends on the instruction providing
                    // the earlier operation's address.
                    if !policy.alias_speculation() {
                        if let Some(producer) = self.addr_producer(prior) {
                            self.graph.add_edge(producer, id, EdgeKind::AddrResolve)?;
                        }
                    }
                }
                Constraint::Free | Constraint::DataOnly => {}
            }
        }

        // Initial stores precede everything.
        for (_, &init) in self.init_map.iter() {
            self.graph.add_edge(init, id, EdgeKind::Init)?;
        }

        Arc::make_mut(&mut self.thread_nodes)[thread].push(id);
        Ok(id)
    }

    /// Phase 1 — graph generation: extends every thread's node supply up to
    /// its first unresolved branch (or halt). Returns `true` when any node
    /// was added or any PC moved.
    ///
    /// # Errors
    ///
    /// [`StepError::NodeLimit`] when a thread issues more than
    /// `max_nodes_per_thread` nodes; [`StepError::Inconsistent`] is
    /// impossible here in practice but propagated for uniformity.
    pub fn generate(
        &mut self,
        program: &Program,
        policy: &Policy,
        max_nodes_per_thread: u32,
    ) -> Result<bool, StepError> {
        let mut changed = false;
        for thread in 0..self.threads.len() {
            let instrs = program.threads()[thread].instrs();
            // Guard against no-node infinite loops (e.g. `jmp self`).
            let mut steps = 0u32;
            loop {
                steps += 1;
                if steps > max_nodes_per_thread.saturating_mul(4).saturating_add(64) {
                    return Err(StepError::NodeLimit {
                        thread,
                        limit: max_nodes_per_thread,
                    });
                }
                if self.threads[thread].halted {
                    break;
                }
                if let Some(branch) = self.threads[thread].blocked_branch {
                    let node = self.graph.node(branch);
                    if !node.is_resolved() {
                        break;
                    }
                    let taken = node
                        .value()
                        .expect("resolved branch has a value")
                        .is_truthy();
                    let (target, fallthrough) = match *node.detail() {
                        NodeDetail::Branch {
                            target,
                            fallthrough,
                            ..
                        } => (target, fallthrough),
                        _ => unreachable!("blocked_branch points at a branch"),
                    };
                    self.thread_mut(thread).pc = if taken { target } else { fallthrough };
                    self.thread_mut(thread).blocked_branch = None;
                    changed = true;
                    continue;
                }
                let pc = self.threads[thread].pc;
                if pc >= instrs.len() {
                    self.thread_mut(thread).halted = true;
                    changed = true;
                    break;
                }
                if self.threads[thread].emitted >= max_nodes_per_thread {
                    return Err(StepError::NodeLimit {
                        thread,
                        limit: max_nodes_per_thread,
                    });
                }
                match instrs[pc] {
                    Instr::Mov { dst, src } => {
                        let input = self.operand_input(thread, src);
                        self.thread_mut(thread).bind(dst, input);
                        self.thread_mut(thread).pc = pc + 1;
                    }
                    Instr::Binop { dst, op, lhs, rhs } => {
                        let lhs = self.operand_input(thread, lhs);
                        let rhs = self.operand_input(thread, rhs);
                        let id =
                            self.emit_node(policy, thread, NodeDetail::Compute { op, lhs, rhs })?;
                        self.thread_mut(thread).bind(dst, Input::Node(id));
                        self.thread_mut(thread).pc = pc + 1;
                    }
                    Instr::Load { dst, addr } => {
                        let addr_in = self.operand_input(thread, addr);
                        let id =
                            self.emit_node(policy, thread, NodeDetail::Load { addr_in, dst })?;
                        self.thread_mut(thread).bind(dst, Input::Node(id));
                        self.thread_mut(thread).pc = pc + 1;
                    }
                    Instr::Store { addr, val } => {
                        let addr_in = self.operand_input(thread, addr);
                        let val_in = self.operand_input(thread, val);
                        self.emit_node(policy, thread, NodeDetail::Store { addr_in, val_in })?;
                        self.thread_mut(thread).pc = pc + 1;
                    }
                    Instr::Rmw { dst, addr, op, src } => {
                        let addr_in = self.operand_input(thread, addr);
                        let src_in = self.operand_input(thread, src);
                        let (kind, expect_in) = match op {
                            RmwOp::Swap => (RmwKind::Swap, None),
                            RmwOp::FetchAdd => (RmwKind::FetchAdd, None),
                            RmwOp::Cas { expect } => {
                                (RmwKind::Cas, Some(self.operand_input(thread, expect)))
                            }
                        };
                        let id = self.emit_node(
                            policy,
                            thread,
                            NodeDetail::Rmw {
                                addr_in,
                                src_in,
                                expect_in,
                                kind,
                                dst,
                            },
                        )?;
                        self.thread_mut(thread).bind(dst, Input::Node(id));
                        self.thread_mut(thread).pc = pc + 1;
                    }
                    Instr::Fence => {
                        self.emit_node(policy, thread, NodeDetail::Fence)?;
                        self.thread_mut(thread).pc = pc + 1;
                    }
                    Instr::BranchNz { cond, target } => {
                        let cond = self.operand_input(thread, cond);
                        let id = self.emit_node(
                            policy,
                            thread,
                            NodeDetail::Branch {
                                cond,
                                target,
                                fallthrough: pc + 1,
                            },
                        )?;
                        self.thread_mut(thread).blocked_branch = Some(id);
                        // PC is updated when the branch resolves.
                    }
                    Instr::Jump { target } => {
                        self.thread_mut(thread).pc = target;
                    }
                    Instr::Halt => {
                        self.thread_mut(thread).halted = true;
                    }
                }
                changed = true;
            }
        }
        Ok(changed)
    }

    fn input_value(&self, input: Input) -> Option<Value> {
        match input {
            Input::Const(v) => Some(v),
            Input::Node(id) => {
                let n = self.graph.node(id);
                if n.is_resolved() {
                    n.value()
                } else {
                    None
                }
            }
        }
    }

    /// Phase 2 — dataflow execution: resolves every non-load node whose
    /// inputs are available, records addresses as they become known, and
    /// fires pending alias pairs. Returns `true` when anything changed.
    ///
    /// # Errors
    ///
    /// [`StepError::Inconsistent`] when a fired alias edge closes a cycle
    /// (possible only under speculation, where it triggers rollback).
    pub fn execute(&mut self, program: &Program) -> Result<bool, StepError> {
        let mut any_change = false;
        loop {
            let mut changed = false;
            for raw in 0..self.graph.len() {
                let id = NodeId::new(raw);
                let node = self.graph.node(id);
                match *node.detail() {
                    NodeDetail::Compute { op, lhs, rhs } => {
                        if !node.is_resolved() {
                            if let (Some(a), Some(b)) =
                                (self.input_value(lhs), self.input_value(rhs))
                            {
                                self.graph.set_value(id, op.apply(a, b));
                                self.graph.mark_resolved(id);
                                changed = true;
                            }
                        }
                    }
                    NodeDetail::Branch { cond, .. } => {
                        if !node.is_resolved() {
                            if let Some(v) = self.input_value(cond) {
                                self.graph.set_value(id, v);
                                self.graph.mark_resolved(id);
                                changed = true;
                            }
                        }
                    }
                    NodeDetail::Load { addr_in, .. } | NodeDetail::Rmw { addr_in, .. } => {
                        if node.addr().is_none() {
                            if let Some(v) = self.input_value(addr_in) {
                                let addr = Addr::from(v);
                                self.graph.set_addr(id, addr);
                                self.ensure_init(addr, program.initial_value(addr));
                                self.fire_alias_pairs(id)?;
                                changed = true;
                            }
                        }
                        // Loads (and RMWs) resolve only via load resolution.
                    }
                    NodeDetail::Store { addr_in, val_in } => {
                        let mut store_changed = false;
                        if node.addr().is_none() {
                            if let Some(v) = self.input_value(addr_in) {
                                let addr = Addr::from(v);
                                self.graph.set_addr(id, addr);
                                self.ensure_init(addr, program.initial_value(addr));
                                self.fire_alias_pairs(id)?;
                                store_changed = true;
                            }
                        }
                        if self.graph.node(id).value().is_none() {
                            if let Some(v) = self.input_value(val_in) {
                                self.graph.set_value(id, v);
                                store_changed = true;
                            }
                        }
                        let n = self.graph.node(id);
                        if !n.is_resolved() && n.addr().is_some() && n.value().is_some() {
                            self.graph.mark_resolved(id);
                            store_changed = true;
                        }
                        changed |= store_changed;
                    }
                    NodeDetail::Fence | NodeDetail::Init => {}
                }
            }
            if !changed {
                break;
            }
            any_change = true;
        }
        Ok(any_change)
    }

    /// Decides pending alias pairs that involve `id` once its address is
    /// known.
    fn fire_alias_pairs(&mut self, id: NodeId) -> Result<(), StepError> {
        for i in 0..self.alias_pairs.len() {
            let pair = self.alias_pairs[i];
            if pair.state != AliasState::Pending || (pair.first != id && pair.second != id) {
                continue;
            }
            let a1 = self.graph.node(pair.first).addr();
            let a2 = self.graph.node(pair.second).addr();
            let (Some(a1), Some(a2)) = (a1, a2) else {
                continue;
            };
            if a1 != a2 {
                self.alias_pairs[i].state = AliasState::Distinct;
                continue;
            }
            self.alias_pairs[i].state = AliasState::Aliased;
            let second_resolved = self.graph.node(pair.second).is_resolved();
            if pair.bypass && !second_resolved {
                // TSO store→load: the ordering decision waits for the
                // load's resolution (bypass vs. ordered).
                continue;
            }
            // Strict pairs — and bypass pairs whose load already resolved
            // speculatively to some *other* store — get the `≺` edge now.
            // A cycle here means a speculative fork must be rolled back.
            self.graph
                .add_edge(pair.first, pair.second, EdgeKind::Alias)?;
        }
        Ok(())
    }

    /// Runs generation and execution to quiescence, then closes Store
    /// Atomicity. Phase 3 (load resolution) is the enumerator's job.
    ///
    /// # Errors
    ///
    /// See [`Behavior::generate`] and [`Behavior::execute`]; additionally
    /// [`StepError::Inconsistent`] when the Store Atomicity closure finds a
    /// cycle.
    pub fn settle(
        &mut self,
        program: &Program,
        policy: &Policy,
        max_nodes_per_thread: u32,
    ) -> Result<(), StepError> {
        let start = self.obs.as_ref().and_then(|o| o.start_phase());
        let result = self.settle_inner(program, policy, max_nodes_per_thread);
        if let (Some(start), Some(o)) = (start, &self.obs) {
            o.end_phase(&o.settle_nanos, start);
        }
        result
    }

    fn settle_inner(
        &mut self,
        program: &Program,
        policy: &Policy,
        max_nodes_per_thread: u32,
    ) -> Result<(), StepError> {
        let mut progressed = false;
        loop {
            let generated = self.generate(program, policy, max_nodes_per_thread)?;
            let executed = self.execute(program)?;
            if !generated && !executed {
                break;
            }
            progressed = true;
        }
        // A zero-progress pass means the graph is exactly as the caller
        // left it: either fresh (no resolved loads, so the atomicity rules
        // are vacuous) or just closed by `resolve_load`. Both are already
        // at the fixpoint, so re-running the closure would verify and add
        // nothing — skip it. This keeps late-stage load resolutions (where
        // the graph is fully generated) at a single closure per fork.
        if progressed {
            atomicity::enforce_observed(&mut self.graph, self.obs.as_deref())?;
        }
        Ok(())
    }

    /// Unresolved loads that currently pass the resolution gate of §4
    /// (address known, all predecessor loads resolved).
    pub fn resolvable_loads(&self) -> Vec<NodeId> {
        self.graph
            .iter()
            .filter(|(_, n)| n.is_load() && !n.is_resolved())
            .map(|(id, _)| id)
            .filter(|&id| candidates::load_resolvable(&self.graph, id))
            .collect()
    }

    /// [`Behavior::resolvable_loads`] into a caller-provided buffer.
    pub fn resolvable_loads_into(&self, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(
            self.graph
                .iter()
                .filter(|(_, n)| n.is_load() && !n.is_resolved())
                .map(|(id, _)| id)
                .filter(|&id| candidates::load_resolvable(&self.graph, id)),
        );
    }

    /// Single-scan fusion of [`Behavior::is_complete`],
    /// [`Behavior::resolvable_loads_into`], and the per-address store
    /// index for the enumeration hot path.
    ///
    /// Fills `unresolved` with every unresolved memory operation and
    /// `stores` with every addressed store in node order (the gate and
    /// candidate inputs for [`Behavior::candidates_gated_into`]), fills
    /// `out` with the loads that pass the resolution gate of §4, and
    /// returns whether the behavior is complete. The per-load gate is a
    /// handful of O(1) reachability bit-tests against the unresolved set
    /// instead of a predecessor-set walk per load.
    pub fn completeness_scan(
        &self,
        unresolved: &mut Vec<NodeId>,
        stores: &mut Vec<(Addr, NodeId)>,
        out: &mut Vec<NodeId>,
    ) -> bool {
        unresolved.clear();
        stores.clear();
        out.clear();
        let mut all_resolved = true;
        for (id, n) in self.graph.iter() {
            if !n.is_resolved() {
                all_resolved = false;
                if n.is_memory() {
                    unresolved.push(id);
                }
            }
            if n.is_store() {
                if let Some(addr) = n.addr() {
                    stores.push((addr, id));
                }
            }
        }
        for i in 0..unresolved.len() {
            let l = unresolved[i];
            let n = self.graph.node(l);
            if !n.is_load() || n.addr().is_none() {
                continue;
            }
            let blocked = unresolved
                .iter()
                .any(|&u| u != l && self.graph.node(u).is_load() && self.graph.precedes(u, l));
            if !blocked {
                out.push(l);
            }
        }
        all_resolved
            && self
                .threads
                .iter()
                .all(|t| t.halted && t.blocked_branch.is_none())
    }

    /// `candidates(L)` for a resolvable load (see [`crate::candidates`]).
    pub fn candidates(&self, load: NodeId) -> Vec<NodeId> {
        candidates::candidates(&self.graph, load)
    }

    /// [`Behavior::candidates`] with caller-provided buffers (see
    /// [`crate::candidates::candidates_into`]).
    pub fn candidates_into(&self, load: NodeId, scratch: &mut Vec<NodeId>, out: &mut Vec<NodeId>) {
        candidates::candidates_into(&self.graph, load, scratch, out);
    }

    /// [`Behavior::candidates_into`] with the unresolved-memory-op list
    /// and store index precomputed by [`Behavior::completeness_scan`]
    /// (see [`crate::candidates::candidates_gated_into`]).
    pub fn candidates_gated_into(
        &self,
        load: NodeId,
        unresolved_mem: &[NodeId],
        all_stores: &[(Addr, NodeId)],
        scratch: &mut Vec<NodeId>,
        out: &mut Vec<NodeId>,
    ) {
        candidates::candidates_gated_into(
            &self.graph,
            load,
            unresolved_mem,
            all_stores,
            scratch,
            out,
        );
    }

    /// Summarizes the final register file of every thread.
    ///
    /// # Panics
    ///
    /// Panics when the behaviour is not [complete](Behavior::is_complete):
    /// partial behaviours have unresolved registers.
    pub fn outcome(&self) -> crate::outcome::Outcome {
        assert!(self.is_complete(), "outcome requires a complete behaviour");
        crate::outcome::Outcome::new(
            (0..self.threads.len())
                .map(|t| {
                    (0..self.threads[t].regs.len())
                        .map(|r| {
                            self.register_value(t, Reg::new(r))
                                .expect("complete behaviour has resolved registers")
                        })
                        .collect()
                })
                .collect(),
        )
    }

    /// Classifies this complete behaviour under a stronger store-atomic
    /// `policy`: adds every local `≺` edge `policy`'s table asks for (as
    /// [`Behavior::emit_node`] and the alias pairs would have, with every
    /// address now known) in one bulk closure update, then closes Store
    /// Atomicity. Returns whether the result is acyclic, i.e. whether
    /// this execution is one of `policy`'s (DESIGN §4). `edges` is
    /// scratch.
    ///
    /// `policy`'s view of the program must
    /// [dominate](crate::static_order::TableView::dominates) the view the
    /// behaviour was built under: the same speculation flag and bypass
    /// cells, every other cell at least as strong. Bypass cells are
    /// skipped: the behaviour already holds every edge they decide. A
    /// cyclic result leaves the behaviour in an unspecified state: it
    /// must be discarded.
    pub(crate) fn strengthen(&mut self, policy: &Policy, edges: &mut Vec<Edge>) -> bool {
        let graph = &self.graph;
        edges.clear();
        let mut push = |from: NodeId, to: NodeId, kind: EdgeKind| {
            if !graph.precedes(from, to) {
                edges.push(Edge {
                    from,
                    to,
                    kind,
                    rule: None,
                });
            }
        };
        for nodes in self.thread_nodes.iter() {
            for (j, &id) in nodes.iter().enumerate() {
                let node = graph.node(id);
                for &prior in &nodes[..j] {
                    let first = graph.node(prior);
                    match policy.combined_constraint(first.classes(), node.classes()) {
                        Constraint::Never => push(prior, id, EdgeKind::Program),
                        Constraint::SameAddr => {
                            if first.addr() == node.addr() {
                                push(prior, id, EdgeKind::Alias);
                            }
                            if !policy.alias_speculation() {
                                if let Some(producer) = self.addr_producer(prior) {
                                    push(producer, id, EdgeKind::AddrResolve);
                                }
                            }
                        }
                        Constraint::Bypass | Constraint::Free | Constraint::DataOnly => {}
                    }
                }
            }
        }
        edges.is_empty()
            || (self.graph.add_edges(edges).is_ok() && atomicity::enforce(&mut self.graph).is_ok())
    }

    /// A canonical byte string identifying this behaviour up to
    /// serialization-equivalence: node descriptors in a
    /// creation-order-independent labelling, the closed `@` relation, and
    /// per-thread control state.
    ///
    /// This implements the paper's Load-Store-graph comparison used to
    /// "discard duplicate behaviors from B at each Load Resolution step",
    /// conservatively refined with the non-memory nodes (whose values are a
    /// deterministic function of the load observations, so the refinement
    /// never splits an equivalence class).
    pub fn canonical_key(&self) -> Vec<u8> {
        // Canonical node order: program nodes by (thread, issue index),
        // then init nodes by address (init creation order varies between
        // enumeration paths).
        let mut order: Vec<NodeId> = self.graph.node_ids().collect();
        order.sort_by_key(|&id| {
            let n = self.graph.node(id);
            if n.is_init() {
                (1u8, n.addr().map_or(0, |a| a.raw()), 0u32)
            } else {
                (0u8, n.thread().index() as u64, n.index_in_thread())
            }
        });
        let mut relabel = vec![0u32; self.graph.len()];
        for (canon, &id) in order.iter().enumerate() {
            relabel[id.index()] = canon as u32;
        }

        let mut key = Vec::with_capacity(self.graph.len() * 32);
        for &id in &order {
            let n = self.graph.node(id);
            let tag: u8 = match n.detail() {
                NodeDetail::Compute { .. } => 0,
                NodeDetail::Branch { .. } => 1,
                NodeDetail::Load { .. } => 2,
                NodeDetail::Store { .. } => 3,
                NodeDetail::Fence => 4,
                NodeDetail::Init => 5,
                NodeDetail::Rmw { .. } => 6,
            };
            key.push(tag);
            match n.stored_value() {
                Some(v) => {
                    key.push(1);
                    key.extend_from_slice(&v.raw().to_le_bytes());
                }
                None => key.push(0),
            }
            match n.addr() {
                Some(a) => {
                    key.push(1);
                    key.extend_from_slice(&a.raw().to_le_bytes());
                }
                None => key.push(0),
            }
            match n.value() {
                Some(v) => {
                    key.push(1);
                    key.extend_from_slice(&v.raw().to_le_bytes());
                }
                None => key.push(0),
            }
            let src = n.source().map_or(u32::MAX, |s| relabel[s.index()]);
            key.extend_from_slice(&src.to_le_bytes());
            key.push(u8::from(n.is_resolved()));
            key.push(u8::from(n.is_bypass_source()));
        }
        key.push(0xFE);
        self.graph.order().encode_pairs(&relabel, &mut key);
        key.push(0xFF);
        for t in self.threads.iter() {
            key.extend_from_slice(&(t.pc as u32).to_le_bytes());
            key.push(u8::from(t.halted));
            key.push(u8::from(t.blocked_branch.is_some()));
        }
        key
    }

    /// Phase 3 — resolves `load` to observe `store`, inserting the
    /// observation edge (or a TSO bypass edge), any deferred same-address
    /// edges, and the Store Atomicity consequences.
    ///
    /// # Errors
    ///
    /// [`StepError::Inconsistent`] when the choice closes a cycle: under
    /// TSO this rejects illegal bypass pairings (e.g. reading a stale local
    /// store), under speculation it triggers rollback. The behaviour must
    /// be discarded in that case.
    pub fn resolve_load(&mut self, load: NodeId, store: NodeId) -> Result<(), StepError> {
        let start = self.obs.as_ref().and_then(|o| o.start_phase());
        let result = self.resolve_load_inner(load, store);
        if let (Some(start), Some(o)) = (start, &self.obs) {
            o.end_phase(&o.resolve_nanos, start);
        }
        result
    }

    fn resolve_load_inner(&mut self, load: NodeId, store: NodeId) -> Result<(), StepError> {
        // Deferred bypass pairs targeting this load. The paper states the
        // TSO rule as "S ⊀ L when S = source(L) and S ≺ L otherwise", but
        // taken literally that over-constrains TSO when the *bypassed*
        // store is not the oldest pending same-address store: an older
        // pending store S' is ordered before the source already (store
        // order) and drains after the forwarded load may have completed,
        // so S' ≺ L must NOT be imposed. We therefore order only
        //   * every aliased local store when the load reads memory (no
        //     bypass): the buffer must have drained first; and
        //   * stores *newer than the source* on a bypass: choosing a stale
        //     source is thereby rejected as a cycle.
        // The operational store-buffer machine in `samm-oper` is the
        // ground truth for this refinement (see the cross-validation
        // tests).
        let deferred: Vec<NodeId> = self
            .alias_pairs
            .iter()
            .filter(|p| p.bypass && p.second == load && p.state == AliasState::Aliased)
            .map(|p| p.first)
            .collect();
        let bypass = deferred.contains(&store);
        let source_index = self.graph.node(store).index_in_thread();
        for first in deferred {
            if first == store {
                continue;
            }
            if bypass && self.graph.node(first).index_in_thread() < source_index {
                // Older pending store: ordered before the source already.
                continue;
            }
            self.graph.add_edge(first, load, EdgeKind::Alias)?;
        }
        self.graph.set_source(load, store, bypass);
        let kind = if bypass {
            EdgeKind::Bypass
        } else {
            EdgeKind::Source
        };
        self.graph.add_edge(store, load, kind)?;
        atomicity::enforce_observed(&mut self.graph, self.obs.as_deref())?;
        Ok(())
    }
}

impl std::fmt::Display for Behavior {
    /// Renders the behaviour as a per-thread node listing with the
    /// resolved observations — a textual counterpart of the DOT output,
    /// handy in test failures and logs.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for t in 0..self.threads.len() {
            let state = &self.threads[t];
            writeln!(
                f,
                "thread {t}: pc={}{}{}",
                state.pc,
                if state.halted { " halted" } else { "" },
                if state.blocked_branch.is_some() {
                    " (blocked on branch)"
                } else {
                    ""
                }
            )?;
            for &id in &self.thread_nodes[t] {
                let n = self.graph.node(id);
                write!(f, "  {id}: {}", n.label())?;
                if let Some(src) = n.source() {
                    write!(
                        f,
                        " <- {}{}",
                        self.graph.node(src).label(),
                        if n.is_bypass_source() {
                            " (bypass)"
                        } else {
                            ""
                        }
                    )?;
                } else if n.is_load() && !n.is_resolved() {
                    write!(f, " (unresolved)")?;
                }
                writeln!(f)?;
            }
        }
        let inits: Vec<String> = self
            .init_map
            .values()
            .map(|&id| self.graph.node(id).label())
            .collect();
        if !inits.is_empty() {
            writeln!(f, "init: {}", inits.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{BinOp, ThreadProgram};

    const X: u64 = 10;
    const Y: u64 = 11;

    fn addr_op(a: u64) -> Operand {
        Operand::Imm(Value::new(a))
    }

    fn store(a: u64, v: u64) -> Instr {
        Instr::Store {
            addr: addr_op(a),
            val: Operand::Imm(Value::new(v)),
        }
    }

    fn load(r: usize, a: u64) -> Instr {
        Instr::Load {
            dst: Reg::new(r),
            addr: addr_op(a),
        }
    }

    #[test]
    fn single_thread_settles_and_resolves() {
        // S x,1 ; L x — the load's only candidate is the local store.
        let prog = Program::new(vec![ThreadProgram::new(vec![store(X, 1), load(0, X)])]);
        let policy = Policy::weak();
        let mut b = Behavior::new(&prog);
        b.settle(&prog, &policy, 64).unwrap();
        assert!(b.thread_halted(0));
        let loads = b.resolvable_loads();
        assert_eq!(loads.len(), 1);
        let c = b.candidates(loads[0]);
        assert_eq!(c.len(), 1, "init is overwritten by the local store");
        b.resolve_load(loads[0], c[0]).unwrap();
        assert!(b.is_complete());
        assert_eq!(b.register_value(0, Reg::new(0)), Some(Value::new(1)));
    }

    #[test]
    fn same_addr_store_load_edge_is_inserted() {
        let prog = Program::new(vec![ThreadProgram::new(vec![store(X, 1), load(0, X)])]);
        let policy = Policy::weak();
        let mut b = Behavior::new(&prog);
        b.settle(&prog, &policy, 64).unwrap();
        let s = b
            .graph()
            .iter()
            .find(|(_, n)| n.is_store() && !n.is_init())
            .unwrap()
            .0;
        let l = b.graph().iter().find(|(_, n)| n.is_load()).unwrap().0;
        assert!(b.graph().precedes(s, l), "x != y entry fired");
    }

    #[test]
    fn different_addr_store_load_not_ordered_under_weak() {
        let prog = Program::new(vec![ThreadProgram::new(vec![store(X, 1), load(0, Y)])]);
        let policy = Policy::weak();
        let mut b = Behavior::new(&prog);
        b.settle(&prog, &policy, 64).unwrap();
        let s = b
            .graph()
            .iter()
            .find(|(_, n)| n.is_store() && !n.is_init())
            .unwrap()
            .0;
        let l = b.graph().iter().find(|(_, n)| n.is_load()).unwrap().0;
        assert!(!b.graph().ordered(s, l));
    }

    #[test]
    fn sc_orders_everything_in_program_order() {
        let prog = Program::new(vec![ThreadProgram::new(vec![
            store(X, 1),
            load(0, Y),
            store(Y, 2),
        ])]);
        let policy = Policy::sequential_consistency();
        let mut b = Behavior::new(&prog);
        b.settle(&prog, &policy, 64).unwrap();
        let mems: Vec<NodeId> = b
            .graph()
            .iter()
            .filter(|(_, n)| n.is_memory() && !n.is_init())
            .map(|(id, _)| id)
            .collect();
        assert_eq!(mems.len(), 3);
        assert!(b.graph().precedes(mems[0], mems[1]));
        assert!(b.graph().precedes(mems[1], mems[2]));
    }

    #[test]
    fn fence_orders_memory_ops_under_weak() {
        let prog = Program::new(vec![ThreadProgram::new(vec![
            store(X, 1),
            Instr::Fence,
            load(0, Y),
        ])]);
        let policy = Policy::weak();
        let mut b = Behavior::new(&prog);
        b.settle(&prog, &policy, 64).unwrap();
        let s = b
            .graph()
            .iter()
            .find(|(_, n)| n.is_store() && !n.is_init())
            .unwrap()
            .0;
        let l = b.graph().iter().find(|(_, n)| n.is_load()).unwrap().0;
        assert!(b.graph().precedes(s, l), "ordered through the fence");
    }

    #[test]
    fn compute_nodes_fold_dataflow() {
        // r0 = 2 + 3; S x, r0; L x.
        let prog = Program::new(vec![ThreadProgram::new(vec![
            Instr::Binop {
                dst: Reg::new(0),
                op: BinOp::Add,
                lhs: 2u64.into(),
                rhs: 3u64.into(),
            },
            Instr::Store {
                addr: addr_op(X),
                val: Operand::Reg(Reg::new(0)),
            },
            load(1, X),
        ])]);
        let policy = Policy::weak();
        let mut b = Behavior::new(&prog);
        b.settle(&prog, &policy, 64).unwrap();
        let loads = b.resolvable_loads();
        let c = b.candidates(loads[0]);
        assert_eq!(c.len(), 1);
        b.resolve_load(loads[0], c[0]).unwrap();
        assert_eq!(b.register_value(0, Reg::new(1)), Some(Value::new(5)));
    }

    #[test]
    fn branch_blocks_generation_until_condition_resolves() {
        // L x into r0; bnz r0 -> skip store; S y,1.
        let prog = Program::new(vec![ThreadProgram::new(vec![
            load(0, X),
            Instr::BranchNz {
                cond: Operand::Reg(Reg::new(0)),
                target: 3,
            },
            store(Y, 1),
        ])]);
        let mut prog = prog;
        prog.set_init(Addr::new(X), Value::new(1));
        let policy = Policy::weak();
        let mut b = Behavior::new(&prog);
        b.settle(&prog, &policy, 64).unwrap();
        // The store after the branch must not have been generated yet.
        assert!(b.graph().stores_to(Addr::new(Y)).next().is_none());
        assert!(!b.thread_halted(0));
        // Resolve the load (init value 1) — the branch is taken, skipping
        // the store.
        let loads = b.resolvable_loads();
        let c = b.candidates(loads[0]);
        assert_eq!(c.len(), 1);
        b.resolve_load(loads[0], c[0]).unwrap();
        b.settle(&prog, &policy, 64).unwrap();
        assert!(b.thread_halted(0));
        assert!(b.graph().stores_to(Addr::new(Y)).next().is_none());
        assert!(b.is_complete());
    }

    #[test]
    fn untaken_branch_falls_through() {
        let prog = Program::new(vec![ThreadProgram::new(vec![
            Instr::BranchNz {
                cond: Operand::Imm(Value::ZERO),
                target: 2,
            },
            store(Y, 1),
        ])]);
        let policy = Policy::weak();
        let mut b = Behavior::new(&prog);
        b.settle(&prog, &policy, 64).unwrap();
        assert!(b.thread_halted(0));
        let program_stores = b
            .graph()
            .stores_to(Addr::new(Y))
            .filter(|&id| !b.graph().node(id).is_init())
            .count();
        assert_eq!(program_stores, 1);
    }

    #[test]
    fn store_does_not_cross_branch() {
        // bnz 0 -> fallthrough; S y,1: branch ≺ store required.
        let prog = Program::new(vec![ThreadProgram::new(vec![
            Instr::BranchNz {
                cond: Operand::Imm(Value::ZERO),
                target: 1,
            },
            store(Y, 1),
        ])]);
        let policy = Policy::weak();
        let mut b = Behavior::new(&prog);
        b.settle(&prog, &policy, 64).unwrap();
        let branch = b
            .graph()
            .iter()
            .find(|(_, n)| matches!(n.detail(), NodeDetail::Branch { .. }))
            .unwrap()
            .0;
        let s = b.graph().stores_to(Addr::new(Y)).next().unwrap();
        assert!(b.graph().precedes(branch, s));
    }

    #[test]
    fn display_shows_threads_and_observations() {
        let prog = Program::new(vec![ThreadProgram::new(vec![store(X, 1), load(0, X)])]);
        let policy = Policy::weak();
        let mut b = Behavior::new(&prog);
        b.settle(&prog, &policy, 64).unwrap();
        let before = b.to_string();
        assert!(before.contains("thread 0"));
        assert!(before.contains("(unresolved)"));
        let l = b.graph().iter().find(|(_, n)| n.is_load()).unwrap().0;
        let c = b.candidates(l);
        b.resolve_load(l, c[0]).unwrap();
        let after = b.to_string();
        assert!(after.contains("<-"), "observation rendered: {after}");
        assert!(after.contains("init"));
    }

    #[test]
    fn combined_constraint_takes_the_strongest_facet() {
        use crate::policy::OpClass::{Load, Store};
        let tso = Policy::tso();
        // (Store, RMW) under TSO: store->load is Bypass but store->store is
        // Never, so the pair is Never.
        assert_eq!(
            tso.combined_constraint(&[Store], &[Load, Store]),
            Constraint::Never
        );
        let weak = Policy::weak();
        // (Store, RMW) under the weak model: both facets say "same addr".
        assert_eq!(
            weak.combined_constraint(&[Store], &[Load, Store]),
            Constraint::SameAddr
        );
        // (Load, Load) stays free under the weak model.
        assert_eq!(weak.combined_constraint(&[Load], &[Load]), Constraint::Free);
    }

    #[test]
    fn node_limit_stops_infinite_loops() {
        // jmp 0 — no nodes, pure control loop.
        let prog = Program::new(vec![ThreadProgram::new(vec![Instr::Jump { target: 0 }])]);
        let policy = Policy::weak();
        let mut b = Behavior::new(&prog);
        let err = b.settle(&prog, &policy, 8).unwrap_err();
        assert!(matches!(err, StepError::NodeLimit { thread: 0, .. }));
    }

    #[test]
    fn node_limit_stops_store_loops() {
        // 0: S x,1 ; 1: jmp 0.
        let prog = Program::new(vec![ThreadProgram::new(vec![
            store(X, 1),
            Instr::Jump { target: 0 },
        ])]);
        let policy = Policy::weak();
        let mut b = Behavior::new(&prog);
        let err = b.settle(&prog, &policy, 8).unwrap_err();
        assert!(matches!(
            err,
            StepError::NodeLimit {
                thread: 0,
                limit: 8
            }
        ));
    }

    #[test]
    fn mov_renames_without_nodes() {
        let prog = Program::new(vec![ThreadProgram::new(vec![
            Instr::Mov {
                dst: Reg::new(0),
                src: 7u64.into(),
            },
            Instr::Mov {
                dst: Reg::new(1),
                src: Operand::Reg(Reg::new(0)),
            },
        ])]);
        let policy = Policy::weak();
        let mut b = Behavior::new(&prog);
        b.settle(&prog, &policy, 64).unwrap();
        assert!(b.graph().iter().all(|(_, n)| n.is_init()));
        assert_eq!(b.register_value(0, Reg::new(1)), Some(Value::new(7)));
    }

    #[test]
    fn init_entries_materialize_on_use() {
        let mut prog = Program::new(vec![ThreadProgram::new(vec![load(0, X)])]);
        prog.set_init(Addr::new(X), Value::new(9));
        let policy = Policy::weak();
        let mut b = Behavior::new(&prog);
        b.settle(&prog, &policy, 64).unwrap();
        let loads = b.resolvable_loads();
        let c = b.candidates(loads[0]);
        assert_eq!(c.len(), 1);
        b.resolve_load(loads[0], c[0]).unwrap();
        assert_eq!(b.register_value(0, Reg::new(0)), Some(Value::new(9)));
    }

    #[test]
    fn tso_bypass_pair_defers_ordering() {
        // TSO: S x,1 ; L x — resolving to the local store uses a bypass
        // (gray) edge, leaving the pair unordered in @.
        let prog = Program::new(vec![ThreadProgram::new(vec![store(X, 1), load(0, X)])]);
        let policy = Policy::tso();
        let mut b = Behavior::new(&prog);
        b.settle(&prog, &policy, 64).unwrap();
        let s = b
            .graph()
            .iter()
            .find(|(_, n)| n.is_store() && !n.is_init())
            .unwrap()
            .0;
        let l = b.graph().iter().find(|(_, n)| n.is_load()).unwrap().0;
        assert!(!b.graph().ordered(s, l), "bypass decision is deferred");
        // The pending bypass store does not overwrite init in @ yet, so both
        // appear as candidates; choosing init is rejected at resolution.
        let mut c = b.candidates(l);
        c.sort();
        assert_eq!(c.len(), 2);
        let init = c
            .iter()
            .copied()
            .find(|&id| b.graph().node(id).is_init())
            .unwrap();
        let mut wrong = b.clone();
        assert!(
            wrong.resolve_load(l, init).is_err(),
            "TSO forwarding is mandatory: reading init past a pending local store is rejected"
        );
        b.resolve_load(l, s).unwrap();
        assert!(b.graph().node(l).is_bypass_source());
        assert!(!b.graph().ordered(s, l), "gray edge stays out of @");
        assert_eq!(b.register_value(0, Reg::new(0)), Some(Value::new(1)));
    }

    #[test]
    fn rmw_node_has_both_facets() {
        // swap x,5 after S x,1: reads 1, writes 5; a later load reads 5.
        let prog = Program::new(vec![ThreadProgram::new(vec![
            store(X, 1),
            Instr::Rmw {
                dst: Reg::new(0),
                addr: addr_op(X),
                op: RmwOp::Swap,
                src: 5u64.into(),
            },
            load(1, X),
        ])]);
        let policy = Policy::weak();
        let mut b = Behavior::new(&prog);
        b.settle(&prog, &policy, 64).unwrap();
        let rmw = b.graph().iter().find(|(_, n)| n.is_rmw()).unwrap().0;
        assert!(b.graph().node(rmw).is_load());
        assert!(
            !b.graph().node(rmw).is_store(),
            "unresolved RMW is not yet a store"
        );
        // Resolve the RMW (only candidate: the local store).
        let c = b.candidates(rmw);
        assert_eq!(c.len(), 1);
        b.resolve_load(rmw, c[0]).unwrap();
        assert!(
            b.graph().node(rmw).is_store(),
            "successful swap has a store facet"
        );
        assert_eq!(
            b.graph().node(rmw).value(),
            Some(Value::new(1)),
            "dst gets the old value"
        );
        assert_eq!(b.graph().node(rmw).stored_value(), Some(Value::new(5)));
        // The trailing load must observe the swap.
        b.settle(&prog, &policy, 64).unwrap();
        let l = b
            .graph()
            .iter()
            .find(|(_, n)| n.is_load() && !n.is_rmw() && n.addr() == Some(Addr::new(X)))
            .unwrap()
            .0;
        let lc = b.candidates(l);
        assert_eq!(lc, vec![rmw], "the swap overwrote everything before it");
        b.resolve_load(l, rmw).unwrap();
        assert_eq!(b.register_value(0, Reg::new(1)), Some(Value::new(5)));
    }

    #[test]
    fn failed_cas_performs_no_store() {
        let prog = Program::new(vec![ThreadProgram::new(vec![
            store(X, 1),
            Instr::Rmw {
                dst: Reg::new(0),
                addr: addr_op(X),
                op: RmwOp::Cas {
                    expect: 7u64.into(), // never matches
                },
                src: 9u64.into(),
            },
            load(1, X),
        ])]);
        let policy = Policy::weak();
        let mut b = Behavior::new(&prog);
        b.settle(&prog, &policy, 64).unwrap();
        let rmw = b.graph().iter().find(|(_, n)| n.is_rmw()).unwrap().0;
        let c = b.candidates(rmw);
        b.resolve_load(rmw, c[0]).unwrap();
        let n = b.graph().node(rmw);
        assert_eq!(n.value(), Some(Value::new(1)));
        assert_eq!(n.stored_value(), None, "failed CAS writes nothing");
        assert!(!n.is_store());
        // The trailing load still sees the original store.
        b.settle(&prog, &policy, 64).unwrap();
        let l = b
            .graph()
            .iter()
            .find(|(_, n)| n.is_load() && !n.is_rmw() && n.addr() == Some(Addr::new(X)))
            .unwrap()
            .0;
        let lc = b.candidates(l);
        assert_eq!(lc.len(), 1, "only the original store remains");
        b.resolve_load(l, lc[0]).unwrap();
        assert_eq!(b.register_value(0, Reg::new(1)), Some(Value::new(1)));
    }

    #[test]
    fn fetch_add_accumulates() {
        let prog = Program::new(vec![ThreadProgram::new(vec![
            Instr::Rmw {
                dst: Reg::new(0),
                addr: addr_op(X),
                op: RmwOp::FetchAdd,
                src: 3u64.into(),
            },
            Instr::Rmw {
                dst: Reg::new(1),
                addr: addr_op(X),
                op: RmwOp::FetchAdd,
                src: 4u64.into(),
            },
        ])]);
        let policy = Policy::weak();
        let mut b = Behavior::new(&prog);
        b.settle(&prog, &policy, 64).unwrap();
        // First RMW reads init (0); the second must read 3.
        let rmws: Vec<NodeId> = b
            .graph()
            .iter()
            .filter(|(_, n)| n.is_rmw())
            .map(|(i, _)| i)
            .collect();
        let c0 = b.candidates(rmws[0]);
        assert_eq!(c0.len(), 1);
        b.resolve_load(rmws[0], c0[0]).unwrap();
        b.settle(&prog, &policy, 64).unwrap();
        let c1 = b.candidates(rmws[1]);
        assert_eq!(c1, vec![rmws[0]]);
        b.resolve_load(rmws[1], rmws[0]).unwrap();
        assert_eq!(b.register_value(0, Reg::new(0)), Some(Value::ZERO));
        assert_eq!(b.register_value(0, Reg::new(1)), Some(Value::new(3)));
        assert_eq!(b.graph().node(rmws[1]).stored_value(), Some(Value::new(7)));
    }

    #[test]
    fn competing_cas_forks_are_rejected_not_fatal() {
        use crate::enumerate::{enumerate, EnumConfig};
        // Two racing CAS(0 -> 1): exactly one winner in every model.
        let cas = |_: usize| {
            ThreadProgram::new(vec![Instr::Rmw {
                dst: Reg::new(0),
                addr: addr_op(X),
                op: RmwOp::Cas {
                    expect: 0u64.into(),
                },
                src: 1u64.into(),
            }])
        };
        let prog = Program::new(vec![cas(0), cas(1)]);
        for policy in [
            Policy::sequential_consistency(),
            Policy::tso(),
            Policy::weak(),
        ] {
            let r = enumerate(&prog, &policy, &EnumConfig::default()).unwrap();
            assert_eq!(
                r.outcomes.len(),
                2,
                "exactly one winner under {}",
                policy.name()
            );
            assert!(
                !r.outcomes.any(|o| o.reg(0, Reg::new(0)) == Value::ZERO
                    && o.reg(1, Reg::new(0)) == Value::ZERO),
                "both-win must be impossible under {}",
                policy.name()
            );
        }
    }

    /// Regression: forwarding from the *newest* of several pending
    /// same-address stores must not order the *older* pending stores
    /// before the load — the paper's blanket "S ≺ L otherwise" rule would
    /// forbid this store-buffer-legal outcome (found by cross-validation
    /// against the operational TSO machine).
    #[test]
    fn tso_forwarding_skips_older_pending_stores() {
        use crate::enumerate::{enumerate, EnumConfig};
        let prog = Program::new(vec![
            ThreadProgram::new(vec![store(Y, 1), Instr::Fence, load(0, X), load(1, X)]),
            ThreadProgram::new(vec![store(X, 2), store(X, 3), load(0, X), load(1, Y)]),
        ]);
        let r = enumerate(&prog, &Policy::tso(), &EnumConfig::default()).unwrap();
        // T1 forwards 3 from its buffer and reads y before T0's store
        // drains, while T0 reads x before T1's buffer drains.
        let target = crate::outcome::Outcome::new(vec![
            vec![Value::ZERO, Value::ZERO],
            vec![Value::new(3), Value::ZERO],
        ]);
        assert!(
            r.outcomes.contains(&target),
            "store-buffer-legal outcome must be enumerated:\n{}",
            r.outcomes
        );
    }

    #[test]
    fn tso_rejects_stale_local_store() {
        // TSO: S x,1 ; S x,2 ; L x — the load may bypass only the *newest*
        // local store; choosing the stale one must be rejected as a cycle.
        let prog = Program::new(vec![ThreadProgram::new(vec![
            store(X, 1),
            store(X, 2),
            load(0, X),
        ])]);
        let policy = Policy::tso();
        let mut b = Behavior::new(&prog);
        b.settle(&prog, &policy, 64).unwrap();
        let stores: Vec<NodeId> = b
            .graph()
            .iter()
            .filter(|(_, n)| n.is_store() && !n.is_init())
            .map(|(id, _)| id)
            .collect();
        let l = b.graph().iter().find(|(_, n)| n.is_load()).unwrap().0;
        let mut fresh = b.clone();
        assert!(
            fresh.resolve_load(l, stores[1]).is_ok(),
            "newest store bypasses"
        );
        let mut stale = b.clone();
        assert!(
            stale.resolve_load(l, stores[0]).is_err(),
            "stale local store must be rejected"
        );
    }
}
