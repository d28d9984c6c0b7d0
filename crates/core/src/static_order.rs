//! Static intra-thread ordering: the part of `≺` a reordering table
//! guarantees *before* any enumeration.
//!
//! The paper factors a memory model into a per-thread reordering table
//! (Figure 1) and the Store Atomicity closure (Figure 6). The table alone
//! already pins down a sub-relation of every execution's local order: a
//! `never` entry always inserts a `≺` edge, an `x ≠ y` entry inserts one
//! whenever the two addresses are statically known to be equal, and data
//! dependencies are respected by dataflow execution under every model.
//! This module extracts that *guaranteed* order — the foundation of the
//! static analyses in `samm-analyze` (race detection, DRF-SC
//! certification, dead-fence linting) and of the fence synthesizer's
//! vacuous-slot pruning.
//!
//! Everything here is a conservative under-approximation: an edge is
//! reported only when it is present in **every** execution of the thread
//! under the given policy. `Bypass` entries are never guaranteed (the
//! ordering decision is deferred to load resolution), and register-held
//! addresses are treated as statically unknown.

use std::collections::BTreeSet;

use crate::ids::Addr;
use crate::instr::{Instr, Operand, Program, RmwOp, ThreadProgram};
use crate::policy::{Constraint, OpClass, Policy};

/// The kind of a static event (an instruction that emits a graph node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// An arithmetic/logic instruction (a Compute node).
    Compute,
    /// A conditional branch.
    Branch,
    /// A memory load.
    Load,
    /// A memory store.
    Store,
    /// An atomic read-modify-write (both Load and Store facets).
    Rmw,
    /// A memory fence.
    Fence,
}

impl EventKind {
    /// The [`OpClass`] facets this event presents to the reordering
    /// table — `[Load, Store]` for an RMW, a single class otherwise.
    pub fn classes(self) -> &'static [OpClass] {
        match self {
            EventKind::Compute => &[OpClass::Compute],
            EventKind::Branch => &[OpClass::Branch],
            EventKind::Load => &[OpClass::Load],
            EventKind::Store => &[OpClass::Store],
            EventKind::Rmw => &[OpClass::Load, OpClass::Store],
            EventKind::Fence => &[OpClass::Fence],
        }
    }

    /// Whether the event reads memory (loads and RMWs).
    pub fn reads_memory(self) -> bool {
        matches!(self, EventKind::Load | EventKind::Rmw)
    }

    /// Whether the event writes memory (stores and RMWs; a CAS is
    /// conservatively counted as a writer even though a failed CAS
    /// performs no store).
    pub fn writes_memory(self) -> bool {
        matches!(self, EventKind::Store | EventKind::Rmw)
    }

    /// Whether the event accesses memory at all.
    pub fn is_memory(self) -> bool {
        self.reads_memory() || self.writes_memory()
    }
}

/// One node-emitting instruction of a thread, with everything the static
/// analyses need: its facets, its statically-known address (if any) and
/// the events whose values feed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticEvent {
    /// Index of the instruction in the thread's listing.
    pub instr_index: usize,
    /// Issue index among node-emitting instructions — for a straight-line
    /// thread this equals the emitted node's `index_in_thread`.
    pub issue_index: u32,
    /// The event kind.
    pub kind: EventKind,
    /// The memory address when statically known (an immediate operand);
    /// `None` for non-memory events and register-held (pointer)
    /// addresses.
    pub addr: Option<Addr>,
    /// Indices (into the event list) of earlier events whose register
    /// results this event consumes, transitively through `mov` renaming.
    pub deps: Vec<usize>,
}

impl StaticEvent {
    /// Whether this is a memory access with a statically unknown
    /// (register-held) address.
    pub fn addr_unknown(&self) -> bool {
        self.kind.is_memory() && self.addr.is_none()
    }
}

/// The static events of one thread plus its shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadEvents {
    /// Events in listing order.
    pub events: Vec<StaticEvent>,
    /// `true` when the thread is straight-line: no branches or jumps, and
    /// `halt` only as the final instruction. Only straight-line threads
    /// admit a complete static order; analyses over branchy threads must
    /// stay pairwise-conservative.
    pub straight_line: bool,
}

/// Extracts the static events of a thread.
///
/// Register definitions are tracked through `mov` renaming so that
/// `deps` reflects true dataflow: `r1 = load x; mov r2, r1; store y, r2`
/// records the store as depending on the load.
pub fn thread_events(thread: &ThreadProgram) -> ThreadEvents {
    let mut events: Vec<StaticEvent> = Vec::new();
    let mut straight_line = true;
    // Producer sets per register, transitively through movs.
    let mut producers: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); thread.reg_count()];
    let deps_of = |producers: &[BTreeSet<usize>], ops: &[&Operand]| -> Vec<usize> {
        let mut deps: BTreeSet<usize> = BTreeSet::new();
        for op in ops {
            if let Operand::Reg(r) = op {
                deps.extend(producers[r.index()].iter().copied());
            }
        }
        deps.into_iter().collect()
    };
    let static_addr = |addr: &Operand| match addr {
        Operand::Imm(v) => Some(Addr::from(*v)),
        Operand::Reg(_) => None,
    };
    let mut issue: u32 = 0;
    for (instr_index, instr) in thread.instrs().iter().enumerate() {
        let mut push = |kind: EventKind, addr: Option<Addr>, deps: Vec<usize>, issue: &mut u32| {
            events.push(StaticEvent {
                instr_index,
                issue_index: *issue,
                kind,
                addr,
                deps,
            });
            *issue += 1;
        };
        match instr {
            Instr::Mov { dst, src } => {
                producers[dst.index()] = match src {
                    Operand::Reg(r) => producers[r.index()].clone(),
                    Operand::Imm(_) => BTreeSet::new(),
                };
            }
            Instr::Binop { dst, lhs, rhs, .. } => {
                let deps = deps_of(&producers, &[lhs, rhs]);
                push(EventKind::Compute, None, deps, &mut issue);
                producers[dst.index()] = [events.len() - 1].into_iter().collect();
            }
            Instr::Load { dst, addr } => {
                let deps = deps_of(&producers, &[addr]);
                push(EventKind::Load, static_addr(addr), deps, &mut issue);
                producers[dst.index()] = [events.len() - 1].into_iter().collect();
            }
            Instr::Store { addr, val } => {
                let deps = deps_of(&producers, &[addr, val]);
                push(EventKind::Store, static_addr(addr), deps, &mut issue);
            }
            Instr::Rmw { dst, addr, op, src } => {
                let mut ops: Vec<&Operand> = vec![addr, src];
                if let RmwOp::Cas { expect } = op {
                    ops.push(expect);
                }
                let deps = deps_of(&producers, &ops);
                push(EventKind::Rmw, static_addr(addr), deps, &mut issue);
                producers[dst.index()] = [events.len() - 1].into_iter().collect();
            }
            Instr::Fence => push(EventKind::Fence, None, Vec::new(), &mut issue),
            Instr::BranchNz { cond, .. } => {
                straight_line = false;
                let deps = deps_of(&producers, &[cond]);
                push(EventKind::Branch, None, deps, &mut issue);
            }
            Instr::Jump { .. } => straight_line = false,
            Instr::Halt => {
                if instr_index + 1 != thread.len() {
                    straight_line = false;
                }
            }
        }
    }
    ThreadEvents {
        events,
        straight_line,
    }
}

/// The transitive closure of the *guaranteed* intra-thread order over a
/// thread's static events under one policy.
///
/// Base edges, for a program-ordered pair `(i, j)`:
///
/// * `Never` combined constraint — always an edge;
/// * `SameAddr` combined constraint with both addresses statically known
///   and equal — the alias pair resolves to an edge in every execution;
/// * a data dependency (`j` consumes `i`'s result) — dataflow execution
///   respects it under every model.
///
/// `Bypass` pairs contribute nothing: the gray edge is excluded from `@`
/// and the ordering decision is deferred to load resolution.
#[derive(Debug, Clone)]
pub struct StaticOrder {
    n: usize,
    ordered: Vec<bool>,
}

impl StaticOrder {
    /// Computes the guaranteed order over `events` under `policy`.
    pub fn compute(events: &[StaticEvent], policy: &Policy) -> StaticOrder {
        let n = events.len();
        let mut ordered = vec![false; n * n];
        for j in 0..n {
            for i in 0..j {
                if guaranteed_edge(&events[i], &events[j], policy) {
                    ordered[i * n + j] = true;
                }
            }
        }
        // Transitive closure; base edges only point forward, so a single
        // forward sweep per intermediate node suffices.
        for k in 0..n {
            for i in 0..k {
                if ordered[i * n + k] {
                    for j in (k + 1)..n {
                        if ordered[k * n + j] {
                            ordered[i * n + j] = true;
                        }
                    }
                }
            }
        }
        StaticOrder { n, ordered }
    }

    /// Whether event `i` is guaranteed to precede event `j` in every
    /// execution.
    pub fn ordered(&self, i: usize, j: usize) -> bool {
        i < self.n && j < self.n && self.ordered[i * self.n + j]
    }

    /// Whether the order is total over the thread's *memory* events —
    /// the certifiable shape where the policy's local edge structure
    /// collapses to full program order.
    pub fn total_over_memory(&self, events: &[StaticEvent]) -> bool {
        let mems: Vec<usize> = (0..events.len())
            .filter(|&i| events[i].kind.is_memory())
            .collect();
        mems.windows(2).all(|w| self.ordered(w[0], w[1]))
    }

    /// A shortest chain of guaranteed *base* edges from `i` to `j`, or
    /// `None` when unordered — the checkable witness used by DRF-SC
    /// certificates.
    pub fn chain(
        &self,
        events: &[StaticEvent],
        policy: &Policy,
        i: usize,
        j: usize,
    ) -> Option<Vec<usize>> {
        if i >= events.len() || j >= events.len() {
            return None;
        }
        // BFS over base edges.
        let mut prev: Vec<Option<usize>> = vec![None; events.len()];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(i);
        prev[i] = Some(i);
        while let Some(cur) = queue.pop_front() {
            if cur == j {
                let mut path = vec![j];
                let mut at = j;
                while at != i {
                    at = prev[at].expect("reached nodes have predecessors");
                    path.push(at);
                }
                path.reverse();
                return Some(path);
            }
            for next in (cur + 1)..events.len() {
                if prev[next].is_none() && guaranteed_edge(&events[cur], &events[next], policy) {
                    prev[next] = Some(cur);
                    queue.push_back(next);
                }
            }
        }
        None
    }
}

/// Whether the table guarantees a `≺` edge for the program-ordered event
/// pair `(first, second)` in every execution. This is the base relation
/// of [`StaticOrder`]; see the struct docs for the three edge sources.
pub fn guaranteed_edge(first: &StaticEvent, second: &StaticEvent, policy: &Policy) -> bool {
    // `deps` holds event-list indices, which coincide with issue indices
    // (events are pushed in issue order); it is sorted, being built from
    // a `BTreeSet`.
    if second
        .deps
        .binary_search(&(first.issue_index as usize))
        .is_ok()
    {
        return true;
    }
    match policy.combined_constraint(first.kind.classes(), second.kind.classes()) {
        Constraint::Never => true,
        Constraint::SameAddr => match (first.addr, second.addr) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        },
        Constraint::Bypass | Constraint::Free | Constraint::DataOnly => false,
    }
}

/// The part of a policy one program can observe: the effective table
/// cell of every same-thread event pair the engine may consult, plus the
/// speculation flag where it can matter.
///
/// The engine reads a policy in exactly two places, both when it emits a
/// node: the combined constraint against each earlier node of the thread,
/// and, for an address-sensitive pair, whether alias speculation skips
/// the edge from the producer of the earlier node's address. So two
/// policies with equal views run the same search step for step, and the
/// verdict harness enumerates once per view. Recorded pairs:
///
/// * straight-line threads: event `i` before event `j`, `i < j` (the
///   emitted node order is the listing order);
/// * branchy threads: every ordered pair, self-pairs included, since a
///   loop may emit any instruction after any other.
///
/// Cells are normalised where the engine cannot tell them apart:
///
/// * `DataOnly` is recorded as `Free`, as [`Policy::combined_constraint`]
///   already returns it (neither inserts anything);
/// * in a straight-line thread, an address-sensitive cell between two
///   different immediate addresses is `Free`: the alias pair it creates
///   is decided distinct as soon as the addresses are set, and an
///   immediate address has no producer to order behind;
/// * the speculation flag is kept only when some address-sensitive pair's
///   earlier event has a register-held address, the only case in which
///   [`Policy::alias_speculation`] changes an edge.
///
/// A view alone does not name its program: two different programs can
/// have equal views. Beside its program it is a cache key:
/// [`view_fingerprint`](crate::fingerprint::view_fingerprint) hashes the
/// program, the view and the config, so every policy with the same view
/// of that program shares one cache entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TableView {
    /// Per thread, the normalised cells of the recorded pairs, in
    /// row-major pair order.
    pub(crate) cells: Vec<Vec<Constraint>>,
    pub(crate) alias_speculation: bool,
}

impl TableView {
    /// The view of `policy` from `program`.
    pub fn of(program: &Program, policy: &Policy) -> TableView {
        let threads: Vec<ThreadEvents> = program.threads().iter().map(thread_events).collect();
        TableView::from_events(&threads, policy)
    }

    /// The view of `policy` from a program whose threads' static events
    /// are `threads` (one [`thread_events`] per thread), so one scan of
    /// the program serves the views of several policies.
    pub fn from_events(threads: &[ThreadEvents], policy: &Policy) -> TableView {
        let mut alias_speculation = false;
        let cells = threads
            .iter()
            .map(|thread| {
                let (events, straight_line) = (&thread.events, thread.straight_line);
                let mut cells = Vec::new();
                for (i, first) in events.iter().enumerate() {
                    let seconds = if straight_line {
                        &events[i + 1..]
                    } else {
                        &events[..]
                    };
                    for second in seconds {
                        let cell = view_cell(first, second, straight_line, policy);
                        alias_speculation |= cell.is_address_sensitive()
                            && first.addr_unknown()
                            && policy.alias_speculation();
                        cells.push(cell);
                    }
                }
                cells
            })
            .collect();
        TableView {
            cells,
            alias_speculation,
        }
    }

    /// Whether this view orders at least what `weaker` orders: both
    /// views have the same speculation flag and the same
    /// [`Constraint::Bypass`] cells, and every other cell dominates
    /// (`Never ⊒ SameAddr ⊒ Free`). Both views must be of the same
    /// program; then every local edge `weaker` inserts is in the closure
    /// of this view's local edges and the data edges, and both views
    /// decide every store-buffer bypass alike, so this view's executions
    /// are `weaker`'s that stay acyclic with this view's edges added
    /// (DESIGN §4).
    pub fn dominates(&self, weaker: &TableView) -> bool {
        self.alias_speculation == weaker.alias_speculation
            && self.cells.len() == weaker.cells.len()
            && self.cells.iter().zip(&weaker.cells).all(|(mine, theirs)| {
                mine.len() == theirs.len()
                    && mine.iter().zip(theirs).all(|(&m, &t)| {
                        (m == Constraint::Bypass) == (t == Constraint::Bypass) && rank(m) >= rank(t)
                    })
            })
    }

    /// The sum of the view's cell ranks: a view that dominates another,
    /// and differs from it, weighs more, so sorting views by weight puts
    /// every view after the views it dominates.
    pub fn weight(&self) -> usize {
        self.cells
            .iter()
            .flatten()
            .map(|&cell| usize::from(rank(cell)))
            .sum()
    }
}

/// A cell's place in the order `Never ⊒ SameAddr ⊒ Free`.
fn rank(cell: Constraint) -> u8 {
    match cell {
        Constraint::Never => 2,
        Constraint::SameAddr | Constraint::Bypass => 1,
        Constraint::Free | Constraint::DataOnly => 0,
    }
}

/// The normalised cell of one recorded pair; see [`TableView`].
fn view_cell(
    first: &StaticEvent,
    second: &StaticEvent,
    straight_line: bool,
    policy: &Policy,
) -> Constraint {
    let cell = policy.combined_constraint(first.kind.classes(), second.kind.classes());
    let distinct = matches!((first.addr, second.addr), (Some(a), Some(b)) if a != b);
    if cell.is_address_sensitive() && straight_line && distinct {
        Constraint::Free
    } else {
        cell
    }
}

/// Would a fence inserted at instruction boundary `pos` (between
/// instructions `pos - 1` and `pos`) of `thread` add any guaranteed
/// memory-memory order not already present under `policy`?
///
/// Returns `true` only when the fence is *provably* inert: the thread is
/// straight-line, and every memory pair the fence would order (one side
/// per boundary, for classes the fence row/column actually orders) is
/// already guaranteed. Branchy threads and unknown addresses always
/// report `false` — conservatively "useful".
pub fn fence_slot_is_vacuous(thread: &ThreadProgram, policy: &Policy, pos: usize) -> bool {
    let ThreadEvents {
        events,
        straight_line,
    } = thread_events(thread);
    if !straight_line {
        return false;
    }
    let order = StaticOrder::compute(&events, policy);
    let fence_orders = |e: &StaticEvent, before: bool| -> bool {
        let c = if before {
            policy.combined_constraint(e.kind.classes(), &[OpClass::Fence])
        } else {
            policy.combined_constraint(&[OpClass::Fence], e.kind.classes())
        };
        c == Constraint::Never
    };
    for (i, a) in events.iter().enumerate() {
        if a.instr_index >= pos || !a.kind.is_memory() || !fence_orders(a, true) {
            continue;
        }
        for (j, b) in events.iter().enumerate() {
            if b.instr_index < pos || !b.kind.is_memory() || !fence_orders(b, false) {
                continue;
            }
            if !order.ordered(i, j) {
                return false;
            }
        }
    }
    true
}

/// Whether the existing fence at `fence_instr_index` is dead: removing
/// it changes no guaranteed memory-memory order. Only claims death for
/// straight-line threads; returns `false` (alive) otherwise or when the
/// index is not a fence.
pub fn fence_is_dead(thread: &ThreadProgram, policy: &Policy, fence_instr_index: usize) -> bool {
    if !matches!(thread.instrs().get(fence_instr_index), Some(Instr::Fence)) {
        return false;
    }
    let ThreadEvents { straight_line, .. } = thread_events(thread);
    if !straight_line {
        return false;
    }
    // Re-check vacuity on the thread without this fence (straight-line, so
    // no targets need remapping).
    let reduced: Vec<Instr> = thread
        .instrs()
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != fence_instr_index)
        .map(|(_, instr)| *instr)
        .collect();
    fence_slot_is_vacuous(&ThreadProgram::new(reduced), policy, fence_instr_index)
}

/// The synchronization skeleton of a program: where its fences and
/// atomic RMWs sit. This is the "sync-edge" raw material the static
/// analyses work from — fences generate guaranteed intra-thread edges,
/// RMWs participate in Store Atomicity as both load and store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyncSkeleton {
    /// Per thread: instruction indices of fences.
    pub fences: Vec<Vec<usize>>,
    /// Per thread: instruction indices of atomic RMWs.
    pub rmws: Vec<Vec<usize>>,
}

/// Extracts the [`SyncSkeleton`] of a program.
pub fn sync_skeleton(program: &Program) -> SyncSkeleton {
    let mut skeleton = SyncSkeleton::default();
    for thread in program.threads() {
        let mut fences = Vec::new();
        let mut rmws = Vec::new();
        for (i, instr) in thread.instrs().iter().enumerate() {
            match instr {
                Instr::Fence => fences.push(i),
                Instr::Rmw { .. } => rmws.push(i),
                _ => {}
            }
        }
        skeleton.fences.push(fences);
        skeleton.rmws.push(rmws);
    }
    skeleton
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Reg, Value};

    fn imm(v: u64) -> Operand {
        Operand::Imm(Value::new(v))
    }

    fn store(addr: u64, val: u64) -> Instr {
        Instr::Store {
            addr: imm(addr),
            val: imm(val),
        }
    }

    fn load(dst: usize, addr: u64) -> Instr {
        Instr::Load {
            dst: Reg::new(dst),
            addr: imm(addr),
        }
    }

    #[test]
    fn events_track_issue_indices_and_movs() {
        let t = ThreadProgram::new(vec![
            load(0, 0),
            Instr::Mov {
                dst: Reg::new(1),
                src: Operand::Reg(Reg::new(0)),
            },
            Instr::Store {
                addr: imm(1),
                val: Operand::Reg(Reg::new(1)),
            },
        ]);
        let te = thread_events(&t);
        assert!(te.straight_line);
        assert_eq!(te.events.len(), 2, "mov emits no event");
        assert_eq!(te.events[1].issue_index, 1);
        assert_eq!(
            te.events[1].deps,
            vec![0],
            "store depends on the load through the mov"
        );
    }

    #[test]
    fn fenced_sb_thread_is_totally_ordered_under_weak() {
        let t = ThreadProgram::new(vec![store(0, 1), Instr::Fence, load(0, 1)]);
        let te = thread_events(&t);
        let order = StaticOrder::compute(&te.events, &Policy::weak());
        assert!(order.total_over_memory(&te.events));
        assert!(order.ordered(0, 2), "store before load through the fence");
        let chain = order
            .chain(&te.events, &Policy::weak(), 0, 2)
            .expect("chain exists");
        assert_eq!(chain, vec![0, 1, 2]);
    }

    #[test]
    fn unfenced_sb_thread_is_not_ordered_under_weak_but_is_under_sc() {
        let t = ThreadProgram::new(vec![store(0, 1), load(0, 1)]);
        let te = thread_events(&t);
        let weak = StaticOrder::compute(&te.events, &Policy::weak());
        assert!(!weak.total_over_memory(&te.events));
        let sc = StaticOrder::compute(&te.events, &Policy::sequential_consistency());
        assert!(sc.total_over_memory(&te.events));
    }

    #[test]
    fn same_address_pairs_are_ordered_under_weak() {
        let t = ThreadProgram::new(vec![store(0, 1), load(0, 0)]);
        let te = thread_events(&t);
        let order = StaticOrder::compute(&te.events, &Policy::weak());
        assert!(
            order.ordered(0, 1),
            "x != y entry orders the same-address pair"
        );
    }

    #[test]
    fn bypass_pairs_are_never_guaranteed() {
        // Same-address store->load under TSO resolves by bypass.
        let t = ThreadProgram::new(vec![store(0, 1), load(0, 0)]);
        let te = thread_events(&t);
        let order = StaticOrder::compute(&te.events, &Policy::tso());
        assert!(!order.ordered(0, 1));
    }

    #[test]
    fn data_dependencies_are_guaranteed_under_every_policy() {
        let t = ThreadProgram::new(vec![
            load(0, 0),
            Instr::Store {
                addr: imm(1),
                val: Operand::Reg(Reg::new(0)),
            },
        ]);
        let te = thread_events(&t);
        let order = StaticOrder::compute(&te.events, &Policy::weak());
        assert!(order.ordered(0, 1));
        assert!(order.total_over_memory(&te.events));
    }

    #[test]
    fn fence_between_independent_accesses_is_useful() {
        let t = ThreadProgram::new(vec![store(0, 1), load(0, 1)]);
        assert!(!fence_slot_is_vacuous(&t, &Policy::weak(), 1));
    }

    #[test]
    fn fence_between_same_address_accesses_is_vacuous_under_weak() {
        let t = ThreadProgram::new(vec![store(0, 1), load(0, 0)]);
        assert!(fence_slot_is_vacuous(&t, &Policy::weak(), 1));
    }

    #[test]
    fn duplicate_fence_is_dead() {
        let t = ThreadProgram::new(vec![store(0, 1), Instr::Fence, Instr::Fence, load(0, 1)]);
        assert!(fence_is_dead(&t, &Policy::weak(), 1));
        assert!(fence_is_dead(&t, &Policy::weak(), 2));
        // But a lone fence between the accesses is alive.
        let t2 = ThreadProgram::new(vec![store(0, 1), Instr::Fence, load(0, 1)]);
        assert!(!fence_is_dead(&t2, &Policy::weak(), 1));
    }

    #[test]
    fn branchy_threads_are_never_claimed_vacuous() {
        let t = ThreadProgram::new(vec![
            load(0, 0),
            Instr::BranchNz {
                cond: Operand::Reg(Reg::new(0)),
                target: 3,
            },
            store(0, 1),
        ]);
        let te = thread_events(&t);
        assert!(!te.straight_line);
        assert!(!fence_slot_is_vacuous(&t, &Policy::weak(), 1));
        assert!(!fence_is_dead(&t, &Policy::weak(), 1));
    }

    #[test]
    fn views_keep_only_cells_the_engine_reads() {
        use OpClass::{Load, Store};
        let view = |instrs: Vec<Instr>, policy: &Policy| {
            TableView::of(&Program::new(vec![ThreadProgram::new(instrs)]), policy)
        };
        let weak = Policy::weak();
        let free_sl = Policy::custom(
            "Weak, store->load free",
            weak.table().with_entry(Store, Load, Constraint::DataOnly),
        );
        let spec = weak.clone().with_alias_speculation(true);
        // Different immediate addresses: the x != y cell inserts nothing.
        let distinct = || vec![store(0, 1), load(0, 1)];
        assert_eq!(view(distinct(), &weak), view(distinct(), &free_sl));
        assert_eq!(view(distinct(), &weak), view(distinct(), &spec));
        // The same address: it orders the pair.
        let same = || vec![store(0, 1), load(0, 0)];
        assert_ne!(view(same(), &weak), view(same(), &free_sl));
        // A register-held address: speculation skips the producer edge.
        let pointer = || {
            vec![
                load(0, 0),
                Instr::Store {
                    addr: Operand::Reg(Reg::new(0)),
                    val: imm(1),
                },
                load(1, 1),
            ]
        };
        assert_ne!(view(pointer(), &weak), view(pointer(), &spec));
    }

    /// Views order by cell where their bypass cells and speculation
    /// flags agree; a bypass or speculation cell on one side only makes
    /// the views incomparable.
    #[test]
    fn views_dominate_cell_by_cell() {
        let view = |instrs: Vec<Instr>, policy: &Policy| {
            TableView::of(&Program::new(vec![ThreadProgram::new(instrs)]), policy)
        };
        let sb = || vec![store(0, 1), load(0, 1)];
        let (sc, tso, weak) = (
            view(sb(), &Policy::sequential_consistency()),
            view(sb(), &Policy::tso()),
            view(sb(), &Policy::weak()),
        );
        // Different immediate addresses: TSO's bypass cell is `Free`.
        assert!(sc.dominates(&weak) && sc.dominates(&tso) && tso.dominates(&weak));
        assert!(!weak.dominates(&sc));
        assert!(sc.weight() > weak.weight());
        // The same address keeps TSO's and PSO's bypass cell: TSO
        // dominates PSO, and neither compares with a view without it.
        let forwarding = || vec![store(0, 1), store(1, 1), load(0, 0)];
        let (tso, pso, sc) = (
            view(forwarding(), &Policy::tso()),
            view(forwarding(), &Policy::pso()),
            view(forwarding(), &Policy::sequential_consistency()),
        );
        assert!(tso.dominates(&pso) && !pso.dominates(&tso));
        assert!(!sc.dominates(&tso) && !sc.dominates(&pso));
        // Speculation past a register-held address.
        let pointer = || {
            vec![
                load(0, 0),
                Instr::Store {
                    addr: Operand::Reg(Reg::new(0)),
                    val: imm(1),
                },
                load(1, 1),
            ]
        };
        let (spec, weak) = (
            view(pointer(), &Policy::weak().with_alias_speculation(true)),
            view(pointer(), &Policy::weak()),
        );
        assert!(!weak.dominates(&spec) && !spec.dominates(&weak));
        assert!(view(pointer(), &Policy::sequential_consistency()).dominates(&weak));
    }

    #[test]
    fn sync_skeleton_lists_fences_and_rmws() {
        let t0 = ThreadProgram::new(vec![store(0, 1), Instr::Fence, load(0, 1)]);
        let t1 = ThreadProgram::new(vec![Instr::Rmw {
            dst: Reg::new(0),
            addr: imm(0),
            op: RmwOp::Swap,
            src: imm(1),
        }]);
        let skel = sync_skeleton(&Program::new(vec![t0, t1]));
        assert_eq!(skel.fences, vec![vec![1], vec![]]);
        assert_eq!(skel.rmws, vec![vec![], vec![0]]);
    }
}
