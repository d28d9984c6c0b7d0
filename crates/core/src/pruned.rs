//! Prune-before-expand enumeration.
//!
//! The serial engine of [`mod@crate::enumerate`] discovers duplicate
//! behaviours *after* paying for them: it clones the parent, resolves the
//! load, re-settles, computes the canonical Load-Store-graph key, and only
//! then discards the fork. This module reorders the search so every prune
//! happens *before* the clone:
//!
//! * **Dominance pruning.** A partial behaviour is determined, up to
//!   isomorphism, by its *observation set* — the set of
//!   `(load ident, store ident)` resolutions taken so far, with idents
//!   stable across enumeration orders (`(thread, issue index)` for
//!   program nodes, the address for init stores). Graph generation,
//!   dataflow execution, and the Store Atomicity closure are all
//!   deterministic given the observations, so two forks with equal
//!   observation sets settle to equal behaviours. The engine therefore
//!   claims each fork's observation set in a seen-table *first* and only
//!   clones, resolves, and settles the claim winners. This is the paper's
//!   §4.1 rule (discard a behaviour whose Load-Store graph was seen
//!   before), applied before the fork instead of after it.
//! * **Sleep-set / DPOR-style commute pruning.** Two independent
//!   resolutions `(L₁,S₁)`, `(L₂,S₂)` reach the same observation set in
//!   either order, so the second order loses the claim race at zero graph
//!   cost. The claim table *is* the sleep set: no commuting fork is ever
//!   expanded twice, without tracking per-state sleep sets explicitly.
//!
//! The search is a lazy stream of settled complete behaviours,
//! [`PrunedStream`], and it is the crate's one production search; the
//! serial [`crate::enumerate::enumerate`] stays only as its oracle. Every
//! distinct complete behaviour is yielded exactly once, in the order the
//! serial oracle's dedup would first reach it. [`enumerate_pruned`]
//! drains a stream and collects each behaviour's outcome. Every other
//! caller pulls a goal stream through [`stream`]:
//!
//! * [`crate::explain::find_witness`] and [`crate::explain::refute`]
//!   stop at the first match. When the goal allows, they first
//!   [pin](PrunedStream::pin) it: each goal load may resolve only to a
//!   store carrying the goal's value, and the stream records its first
//!   [blocked](PrunedStream::blocked) state, the refutation's proof.
//! * [`crate::sync::check_well_synchronized`] drains it with a hook that
//!   sees every resolvable load's candidate count
//!   ([`PrunedStream::on_candidates`]).
//!
//! A goal stream differs from [`enumerate_pruned`]'s only in recording a
//! *path table*: one `(parent id, load, store)` entry per expanded fork,
//! so the resolutions that reach a yielded behaviour are a walk up its
//! parents ([`PrunedStream::path_to`]).
//!
//! Each thread keeps one engine *arena*: the claim table, the frontier,
//! the scratch buffers and a bounded pool of spent behaviours' graphs.
//! A stream takes it when it starts and gives it back, cleared, when it
//! is dropped, so a fork copies into a spent behaviour's allocations and
//! a query on a thread that ran one before allocates little. Only
//! capacity crosses from one stream to the next: no claim, set,
//! behaviour or result.
//!
//! Soundness arguments for each rule live in `DESIGN.md`; the
//! differential test fortress (`tests/pruned_differential.rs`,
//! `tests/proptests.rs`, `tests/golden_pruning.rs`) pins behaviour-set
//! equality against the untouched serial oracle.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::mem::size_of;
use std::sync::Arc;

use crate::enumerate::{settled_root, EnumConfig, EnumResult, EnumStats};
use crate::error::EnumError;
use crate::exec::{Behavior, Spare, StepError};
use crate::graph::ExecutionGraph;
use crate::ids::{Addr, NodeId, Value};
use crate::instr::Program;
use crate::obs::Obs;
use crate::outcome::OutcomeSet;
use crate::policy::Policy;

/// Stable identity of a graph node across enumeration orders, packed into
/// one word for cheap hashing/comparison on the claim hot path: program
/// nodes are `(thread, issue index)`, init stores are the address. Layout:
/// kind in bits 120..128, a 64-bit payload (thread index or raw address) in
/// bits 32..96, and the 32-bit issue index in bits 0..32.
type Ident = u128;

const KIND_PROGRAM: u128 = 0;
const KIND_INIT: u128 = 1;

fn pack(kind: u128, a: u64, b: u32) -> Ident {
    kind << 120 | (a as u128) << 32 | b as u128
}

fn ident(graph: &ExecutionGraph, id: NodeId) -> Ident {
    let node = graph.node(id);
    if node.is_init() {
        pack(
            KIND_INIT,
            node.addr().expect("init stores have addresses").raw(),
            0,
        )
    } else {
        pack(
            KIND_PROGRAM,
            node.thread().index() as u64,
            node.index_in_thread(),
        )
    }
}

/// The multiply-rotate hasher popularized by rustc (`FxHasher`): claim
/// keys are short vectors of packed words, where SipHash's per-call
/// overhead dominates the whole claim race. Not DoS-resistant, which is
/// fine for a table keyed by enumeration-internal idents.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

/// Hash of one observation pair, mixed well enough that sums of pair
/// hashes distribute. An observation set's hash is the sum of its pairs'
/// hashes, so the child key's hash is an O(1) update of its parent's
/// (`insert` commutes) and a claim never re-hashes the whole set.
#[inline]
fn pair_hash(pair: (Ident, Ident)) -> u64 {
    let mut h = FxHasher::default();
    h.write_u128(pair.0);
    h.write_u128(pair.1);
    h.finish()
}

/// The index of a claimed observation set in its [`SeenTable`].
type SetId = usize;

/// The claim table and the one copy of every claimed observation set:
/// frontier entries and rolled-back claims refer to a set by its
/// [`SetId`]. An observation set is the resolutions taken so far as
/// `(load ident, store ident)` pairs, sorted; each load ident appears at
/// most once, so sorting by pair sorts by load. All sets lie back to back
/// in one buffer. Sets are found by commutative hash, comparing sets
/// exactly along each (nearly always one-long) chain of equal hashes — a
/// collision costs a memcmp, never a wrong prune.
#[derive(Default)]
struct SeenTable {
    /// Every claimed set's pairs, in claim order.
    pairs: Vec<(Ident, Ident)>,
    /// Every claimed set in claim order: its start and length in `pairs`,
    /// and the next-older set of the same hash.
    sets: Vec<(usize, usize, Option<SetId>)>,
    /// The newest claimed set of each hash.
    heads: FxHashMap<u64, SetId>,
}

impl SeenTable {
    /// Empties the table, then claims the empty set, the root's, as set 0
    /// with hash 0.
    fn reset(&mut self) {
        self.pairs.clear();
        self.sets.clear();
        self.heads.clear();
        self.heads.insert(0, 0);
        self.sets.push((0, 0, None));
    }

    fn get(&self, id: SetId) -> &[(Ident, Ident)] {
        let (start, len, _) = self.sets[id];
        &self.pairs[start..start + len]
    }

    /// Claims the set `parent` plus `pair`, whose hash is `hash`: its new
    /// id, or the id of the equal set claimed before. The candidate set is
    /// built at the end of `pairs` and stays there only when it wins, so
    /// a lost claim allocates nothing.
    fn claim(&mut self, parent: SetId, pair: (Ident, Ident), hash: u64) -> Result<SetId, SetId> {
        let (start, len, _) = self.sets[parent];
        let at = start + self.pairs[start..start + len].partition_point(|p| p < &pair);
        let child = self.pairs.len();
        self.pairs.extend_from_within(start..at);
        self.pairs.push(pair);
        self.pairs.extend_from_within(at..start + len);
        let mut next = self.heads.get(&hash).copied();
        while let Some(id) = next {
            if self.get(id) == &self.pairs[child..] {
                self.pairs.truncate(child);
                return Err(id);
            }
            next = self.sets[id].2;
        }
        let id = self.sets.len();
        let older = self.heads.insert(hash, id);
        self.sets.push((child, len + 1, older));
        Ok(id)
    }

    /// Bytes of heap the table holds, used or not.
    fn heap_bytes(&self) -> usize {
        self.pairs.capacity() * size_of::<(Ident, Ident)>()
            + self.sets.capacity() * size_of::<(usize, usize, Option<SetId>)>()
            + self.heads.capacity() * size_of::<(u64, SetId)>()
    }
}

/// The one counter of the prune-before-expand engine that [`EnumStats`]
/// cannot derive. The rest of its search shape is in [`EnumStats`]:
/// `forks` counts claim attempts, `deduped` the claims lost to an
/// already-claimed observation set before any fork was paid for, and
/// `forks - deduped` the claims that were expanded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Expansions that consumed the parent in place instead of cloning
    /// (always the last surviving fork of each explored behaviour).
    pub in_place: u64,
}

/// [`enumerate_pruned`] returning the engine-specific [`PruneStats`]
/// next to the ordinary result.
///
/// # Errors
///
/// As for [`enumerate_pruned`].
pub fn enumerate_pruned_stats(
    program: &Program,
    policy: &Policy,
    config: &EnumConfig,
) -> Result<(EnumResult, PruneStats), EnumError> {
    run(program, policy, config)
}

/// Enumerates every behaviour of `program` under `policy` with the
/// prune-before-expand engine.
///
/// Produces the same outcome set and the same `distinct_executions`
/// count as the serial oracle [`crate::enumerate::enumerate`] (with
/// dedup enabled), typically exploring far fewer behaviours. Note that
/// this engine *always* deduplicates — pruning is its search strategy,
/// so [`EnumConfig::dedup`] is ignored — and its `explored`/`forks`/
/// `deduped` statistics count pruned-search work, not serial-search
/// work. Timing-free statistics are deterministic.
///
/// # Errors
///
/// As for [`crate::enumerate::enumerate`]; the fork budget counts claim
/// attempts, so a budget that suffices for the serial engine always
/// suffices here.
///
/// # Examples
///
/// ```
/// use samm_core::enumerate::{enumerate, EnumConfig};
/// use samm_core::pruned::enumerate_pruned;
/// use samm_core::instr::{Instr, Program, ThreadProgram};
/// use samm_core::ids::Reg;
/// use samm_core::policy::Policy;
///
/// let t = |a: u64, b: u64| ThreadProgram::new(vec![
///     Instr::Store { addr: a.into(), val: 1u64.into() },
///     Instr::Load { dst: Reg::new(0), addr: b.into() },
/// ]);
/// let sb = Program::new(vec![t(0, 1), t(1, 0)]);
/// let config = EnumConfig::default();
/// let serial = enumerate(&sb, &Policy::weak(), &config).unwrap();
/// let pruned = enumerate_pruned(&sb, &Policy::weak(), &config).unwrap();
/// assert_eq!(serial.outcomes, pruned.outcomes);
/// assert_eq!(
///     serial.stats.distinct_executions,
///     pruned.stats.distinct_executions,
/// );
/// ```
pub fn enumerate_pruned(
    program: &Program,
    policy: &Policy,
    config: &EnumConfig,
) -> Result<EnumResult, EnumError> {
    run(program, policy, config).map(|(result, _)| result)
}

/// One explored partial behaviour: the behaviour, its observation set
/// in the claim table and that set's commutative hash, and its id in the
/// path table (0 when paths are not recorded).
type FrontierEntry = (Behavior, SetId, u64, usize);

/// The most spare behaviours an arena keeps. A fork beyond the pool
/// clones, so the bound costs allocations, never correctness; it keeps a
/// thread's spare graphs from growing with the widest search it ran.
const POOL_CAP: usize = 32;

/// The most heap an idle arena may hold: a stream whose arena grew past
/// it frees the arena when dropped, so one huge query does not pin its
/// memory to the thread for good.
const ARENA_KEEP_BYTES: usize = 1 << 20;

/// Everything a stream allocates that a later stream on the same thread
/// can reuse. Between streams every part is empty: only capacity is kept.
#[derive(Default)]
struct Arena {
    seen: SeenTable,
    frontier: Vec<FrontierEntry>,
    /// Spent behaviours' allocations, forked into before any clone: the
    /// rolled-back forks, the parents with no surviving fork, and the
    /// complete behaviours [`enumerate_pruned`] has read.
    pool: Vec<Spare>,
    /// The path table, used when paths are recorded: entry `id - 1` is
    /// the `(parent id, load, store)` fork that created behaviour `id`
    /// (the root is id 0 and has no entry).
    paths: Vec<(usize, NodeId, NodeId)>,
    // Reusable scratch buffers for the hot loop.
    loads_buf: Vec<NodeId>,
    stores_buf: Vec<NodeId>,
    stores_scratch: Vec<NodeId>,
    survivors_buf: Vec<(NodeId, NodeId, SetId, u64)>,
    /// Unresolved memory operations of the behavior under expansion
    /// (filled by `completeness_scan`, read by the candidate gate).
    unresolved_buf: Vec<NodeId>,
    /// Addressed stores of the behavior under expansion, in node order
    /// (filled by `completeness_scan`, read by the candidate gate).
    stores_index_buf: Vec<(Addr, NodeId)>,
}

thread_local! {
    /// The thread's idle arena; a running stream holds it, so a stream
    /// started inside another starts with a fresh one.
    static ARENA: Cell<Option<Arena>> = const { Cell::new(None) };
}

impl Arena {
    /// The thread's idle arena, or a new one when it has none.
    fn take() -> Arena {
        ARENA
            .try_with(Cell::take)
            .ok()
            .flatten()
            .unwrap_or_default()
    }

    /// Clears the arena and gives it back to the thread, unless it grew
    /// past [`ARENA_KEEP_BYTES`].
    fn give_back(mut self) {
        self.clear();
        if self.heap_bytes() <= ARENA_KEEP_BYTES {
            // Fails only while the thread is exiting; the arena is then
            // freed here.
            let _ = ARENA.try_with(|slot| slot.set(Some(self)));
        }
    }

    /// Keeps `behavior`'s allocations for a later fork, while the pool has
    /// room.
    fn spend(&mut self, behavior: Behavior) {
        if self.pool.len() < POOL_CAP {
            self.pool.push(behavior.into_spare());
        }
    }

    /// Empties every part, keeping the capacity.
    fn clear(&mut self) {
        while let Some((behavior, ..)) = self.frontier.pop() {
            self.spend(behavior);
        }
        self.pool.iter_mut().for_each(Spare::clear);
        self.seen.reset();
        self.paths.clear();
        self.loads_buf.clear();
        self.stores_buf.clear();
        self.stores_scratch.clear();
        self.survivors_buf.clear();
        self.unresolved_buf.clear();
        self.stores_index_buf.clear();
    }

    /// Bytes of heap the parts that grow with the search hold, used or
    /// not (the scratch buffers grow only with the program).
    fn heap_bytes(&self) -> usize {
        self.seen.heap_bytes()
            + self.frontier.capacity() * size_of::<FrontierEntry>()
            + self.pool.iter().map(Spare::heap_bytes).sum::<usize>()
            + self.paths.capacity() * size_of::<(usize, NodeId, NodeId)>()
    }
}

/// The goal loads of a pinned stream, each with the value it must
/// observe (see [`PrunedStream::pin`]).
pub type Pins = HashMap<NodeId, Value>;

/// The first blocked state of a pinned stream: a state in which a pinned
/// load has no candidate carrying its value, or in which every fork to
/// such a candidate rolls back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blocked {
    /// The blocked state's id in the path table
    /// ([`PrunedStream::path_to`] gives its resolutions).
    pub id: usize,
    /// The first blocked pinned load of that state, in load order.
    pub load: NodeId,
    /// The value the load is pinned to.
    pub required: Value,
    /// `None` when no candidate carries the value; otherwise the first
    /// candidate that does (every fork to such a candidate rolls back).
    pub cycle: Option<NodeId>,
}

/// One pinned load of the state under expansion: its first
/// value-carrying candidate, whether a lost claim of one survives, and
/// how many of its won claims have not rolled back.
struct PinTally {
    load: NodeId,
    first: Option<NodeId>,
    survived: bool,
    pending: usize,
}

/// The pins of a pinned stream and what blocked detection needs.
struct Pinning {
    pins: Pins,
    /// Claimed observation sets whose fork rolled back. A claim that loses
    /// to an earlier claim shares that claim's fate, so a lost claim
    /// survives exactly when its set is not in here.
    rolled: FxHashSet<SetId>,
    /// The pinned loads of the state under expansion, in load order.
    tally: Vec<PinTally>,
    blocked: Option<Blocked>,
    /// The graph of the first blocked state, kept when its blocked load
    /// has no value-carrying candidate.
    blocked_graph: Option<ExecutionGraph>,
}

impl Pinning {
    /// Keeps only the candidates carrying `load`'s pinned value and opens
    /// its tally; returns whether `load` is pinned.
    fn filter(&mut self, graph: &ExecutionGraph, load: NodeId, stores: &mut Vec<NodeId>) -> bool {
        let Some(&required) = self.pins.get(&load) else {
            return false;
        };
        stores.retain(|&s| graph.node(s).stored_value() == Some(required));
        self.tally.push(PinTally {
            load,
            first: stores.first().copied(),
            survived: false,
            pending: 0,
        });
        true
    }

    /// The current pinned load's claim lost to the earlier claim of the
    /// same set `winner`: it survives unless that claim rolled back.
    fn lost(&mut self, winner: SetId) {
        if !self.rolled.contains(&winner) {
            self.tally.last_mut().expect("tally opened").survived = true;
        }
    }

    /// The current pinned load's claim won; its fork is settled later.
    fn won(&mut self) {
        self.tally.last_mut().expect("tally opened").pending += 1;
    }

    /// Records the rollback of the claimed fork `(load, _)` with
    /// observation set `set`.
    fn rolled_back(&mut self, load: NodeId, set: SetId) {
        self.rolled.insert(set);
        if let Some(tally) = self.tally.iter_mut().find(|t| t.load == load) {
            tally.pending -= 1;
        }
    }

    /// Keeps a copy of the graph of the state under expansion when, with
    /// no state blocked before it, one of its pinned loads has no
    /// value-carrying candidate: the state is then the first blocked one,
    /// and a refutation diagnoses that load on this graph.
    fn keep_graph(&mut self, graph: &ExecutionGraph) {
        if self.blocked.is_none()
            && self.blocked_graph.is_none()
            && self.tally.iter().any(|t| t.first.is_none())
        {
            self.blocked_graph = Some(graph.clone());
        }
    }

    /// Closes the expansion of state `id`: the first pinned load none of
    /// whose value-carrying forks survives (a claim lost to a surviving
    /// set, or a won claim that settled) blocks it, unless an earlier
    /// state already blocked.
    fn close(&mut self, id: usize) {
        if self.blocked.is_none() {
            self.blocked = self
                .tally
                .iter()
                .find(|t| !t.survived && t.pending == 0)
                .map(|t| Blocked {
                    id,
                    load: t.load,
                    required: self.pins[&t.load],
                    cycle: t.first,
                });
            if self.blocked.is_some_and(|b| b.cycle.is_some()) {
                self.blocked_graph = None;
            }
        }
        self.tally.clear();
    }
}

/// A callback given `(graph, load, candidate count)` for each resolvable
/// load of each expanded state (see [`PrunedStream::on_candidates`]).
type CandidateHook<'a> = Box<dyn FnMut(&ExecutionGraph, NodeId, usize) + 'a>;

/// A lazy stream of the settled complete behaviours of a program, in
/// the pruned engine's depth-first order.
///
/// [`enumerate_pruned`] drains a stream and collects each behaviour;
/// [`stream`] hands one to a goal-directed caller: the witness and
/// refutation searches of [`crate::explain`], which stop at the first
/// match, and the discipline check of [`crate::sync`], which drains it.
/// Each item is a behaviour with its id in the stream's *path table*: one
/// `(parent id, load, store)` entry per expanded fork, so
/// [`PrunedStream::path_to`] rebuilds the resolutions that reach any
/// yielded behaviour by walking up the parents.
pub struct PrunedStream<'a> {
    program: &'a Program,
    policy: &'a Policy,
    config: &'a EnumConfig,
    /// The thread's arena while the stream runs.
    arena: Arena,
    stats: EnumStats,
    pstats: PruneStats,
    obs: Option<Arc<Obs>>,
    /// Whether the path table is recorded.
    record_paths: bool,
    /// Set once the stream has ended or failed.
    finished: bool,
    /// Goal pins and blocked detection, on pinned streams only.
    pinning: Option<Box<Pinning>>,
    /// Called with every resolvable load's candidate count, when set.
    on_candidates: Option<CandidateHook<'a>>,
}

impl Drop for PrunedStream<'_> {
    fn drop(&mut self) {
        std::mem::take(&mut self.arena).give_back();
    }
}

impl std::fmt::Debug for PrunedStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrunedStream")
            .field("stats", &self.stats)
            .field("frontier", &self.arena.frontier.len())
            .field("finished", &self.finished)
            .field("blocked", &self.blocked())
            .finish_non_exhaustive()
    }
}

/// Starts a goal-directed stream over the complete behaviours of
/// `program` under `policy`, recording the path table.
///
/// Every distinct complete behaviour is yielded exactly once, and its
/// path replays as is. Before the first pull, [`PrunedStream::pin`] can
/// restrict it to a goal and [`PrunedStream::on_candidates`] can watch
/// its candidate sets.
///
/// # Errors
///
/// Fails immediately when the initial behaviour cannot settle (node
/// limit or an inconsistent root).
///
/// # Examples
///
/// ```
/// use samm_core::enumerate::EnumConfig;
/// use samm_core::pruned::stream;
/// use samm_core::instr::{Instr, Program, ThreadProgram};
/// use samm_core::ids::{Reg, Value};
/// use samm_core::policy::Policy;
///
/// let t = |a: u64, b: u64| ThreadProgram::new(vec![
///     Instr::Store { addr: a.into(), val: 1u64.into() },
///     Instr::Load { dst: Reg::new(0), addr: b.into() },
/// ]);
/// let sb = Program::new(vec![t(0, 1), t(1, 0)]);
/// let (policy, config) = (Policy::weak(), EnumConfig::default());
/// let mut behaviors = stream(&sb, &policy, &config).unwrap();
/// let (id, hit) = behaviors
///     .find_map(|item| {
///         let (id, b) = item.unwrap();
///         let o = b.outcome();
///         (o.reg(0, Reg::new(0)) == Value::ZERO && o.reg(1, Reg::new(0)) == Value::ZERO)
///             .then_some((id, b))
///     })
///     .unwrap();
/// // SB 0/0 needs both loads resolved to the init stores.
/// assert_eq!(behaviors.path_to(id).unwrap().len(), 2);
/// assert!(hit.is_complete());
/// ```
pub fn stream<'a>(
    program: &'a Program,
    policy: &'a Policy,
    config: &'a EnumConfig,
) -> Result<PrunedStream<'a>, EnumError> {
    PrunedStream::new(program, policy, config, true)
}

impl<'a> PrunedStream<'a> {
    fn new(
        program: &'a Program,
        policy: &'a Policy,
        config: &'a EnumConfig,
        record_paths: bool,
    ) -> Result<Self, EnumError> {
        let mut arena = Arena::take();
        let spare = arena.pool.pop().unwrap_or_default();
        let (root, obs) = match settled_root(program, policy, config, spare) {
            Ok(settled) => settled,
            Err(e) => {
                arena.give_back();
                return Err(e);
            }
        };
        arena.seen.reset();
        // The root's set is the empty one, claimed first.
        arena.frontier.push((root, 0, 0, 0));
        Ok(PrunedStream {
            program,
            policy,
            config,
            arena,
            pstats: PruneStats::default(),
            stats: EnumStats::default(),
            obs,
            record_paths,
            finished: false,
            pinning: None,
            on_candidates: None,
        })
    }

    /// Pins the stream to a goal: `pins` reads the settled root's graph
    /// and returns the goal loads with the value each must observe, or
    /// `None` to leave the stream unpinned. In a pinned stream a pinned
    /// load resolves only to candidates carrying its value, and the first
    /// blocked state is recorded ([`PrunedStream::blocked`]). Returns
    /// whether the stream was pinned.
    ///
    /// A goal-consistent observation set has only goal-consistent subsets
    /// and claims happen in the same relative order, so the pinned stream
    /// is the unpinned one restricted to goal-consistent sets: its first
    /// match is the same execution, reached by the same path.
    ///
    /// # Panics
    ///
    /// When called after the first pull.
    pub fn pin(&mut self, pins: impl FnOnce(&ExecutionGraph) -> Option<Pins>) -> bool {
        assert_eq!(self.stats.explored, 0, "pin a stream before pulling it");
        let root = self.arena.frontier[0].0.graph();
        self.pinning = pins(root).map(|pins| {
            Box::new(Pinning {
                pins,
                rolled: FxHashSet::default(),
                tally: Vec::new(),
                blocked: None,
                blocked_graph: None,
            })
        });
        self.pinning.is_some()
    }

    /// The first blocked state of a pinned stream seen so far; `None` on
    /// unpinned streams.
    pub fn blocked(&self) -> Option<Blocked> {
        self.pinning.as_ref().and_then(|p| p.blocked)
    }

    /// The graph of the [first blocked state](PrunedStream::blocked) as
    /// the stream reached it, when its blocked load has no candidate
    /// carrying the value ([`Blocked::cycle`] is `None`): the graph a
    /// replay of the state's path from a fresh root settles to.
    pub fn blocked_graph(&self) -> Option<&ExecutionGraph> {
        let pinning = self.pinning.as_ref()?;
        pinning.blocked.and(pinning.blocked_graph.as_ref())
    }

    /// Calls `hook` with `(graph, load, candidate count)` for every
    /// resolvable load of every expanded state, before any pin filters
    /// the candidates.
    pub fn on_candidates(&mut self, hook: impl FnMut(&ExecutionGraph, NodeId, usize) + 'a) {
        self.on_candidates = Some(Box::new(hook));
    }

    /// Statistics accumulated so far (complete once the stream is
    /// drained). With [`EnumConfig::observe`] set, includes a live
    /// [`crate::obs::ObsStats`] snapshot.
    pub fn stats(&self) -> EnumStats {
        let mut stats = self.stats;
        if let Some(obs) = &self.obs {
            stats.obs = Some(obs.snapshot());
        }
        stats
    }

    /// The resolution path of the behaviour yielded with `id`: the
    /// `(load, store)` pairs applied from the root down to it, in
    /// application order, in O(depth). The root's path is empty.
    /// Returns `None` for an id the table does not hold.
    pub fn path_to(&self, id: usize) -> Option<Vec<(NodeId, NodeId)>> {
        let paths = &self.arena.paths;
        if !self.record_paths || id > paths.len() {
            return None;
        }
        let mut path = Vec::new();
        let mut cursor = id;
        while cursor > 0 {
            let (parent, load, store) = paths[cursor - 1];
            path.push((load, store));
            cursor = parent;
        }
        path.reverse();
        Some(path)
    }

    /// Explores until the next complete behaviour settles and returns it
    /// with its path id; `None` once the frontier is exhausted.
    fn next_settled(&mut self) -> Result<Option<(usize, Behavior)>, EnumError> {
        while let Some((behavior, set, set_h, id)) = self.arena.frontier.pop() {
            self.stats.explored += 1;
            if self.stats.explored > self.config.max_behaviors {
                return Err(EnumError::BehaviorLimit {
                    limit: self.config.max_behaviors,
                });
            }
            self.stats.max_graph_nodes = self.stats.max_graph_nodes.max(behavior.graph().len());

            let arena = &mut self.arena;
            if behavior.completeness_scan(
                &mut arena.unresolved_buf,
                &mut arena.stores_index_buf,
                &mut arena.loads_buf,
            ) {
                self.stats.distinct_executions += 1;
                return Ok(Some((id, behavior)));
            }

            if arena.loads_buf.is_empty() {
                return Err(EnumError::Stuck);
            }
            self.expand(behavior, set, set_h, id)?;
        }
        Ok(None)
    }

    /// Claims every fork of an incomplete `behavior` and pushes the
    /// settled claim winners onto the frontier.
    fn expand(
        &mut self,
        behavior: Behavior,
        set: SetId,
        set_h: u64,
        id: usize,
    ) -> Result<(), EnumError> {
        // Phase 1: claim. Every (load, candidate) pair computes its
        // child observation set and races for it in the seen-table;
        // losers are pruned here, before any clone or graph work.
        let arena = &mut self.arena;
        let loads = std::mem::take(&mut arena.loads_buf);
        let mut survivors = std::mem::take(&mut arena.survivors_buf);
        for &load in &loads {
            behavior.candidates_gated_into(
                load,
                &arena.unresolved_buf,
                &arena.stores_index_buf,
                &mut arena.stores_scratch,
                &mut arena.stores_buf,
            );
            if let Some(obs) = behavior.obs() {
                Obs::add(&obs.candidate_calls, 1);
                Obs::add(&obs.candidate_stores, arena.stores_buf.len() as u64);
            }
            if let Some(hook) = &mut self.on_candidates {
                hook(behavior.graph(), load, arena.stores_buf.len());
            }
            let pinned = match &mut self.pinning {
                Some(pinning) => pinning.filter(behavior.graph(), load, &mut arena.stores_buf),
                None => false,
            };
            let load_ident = ident(behavior.graph(), load);
            for &store in &arena.stores_buf {
                self.stats.forks += 1;
                if let Some(budget) = self.config.budget {
                    if self.stats.forks as u64 > budget {
                        return Err(EnumError::Overbudget {
                            budget,
                            forks: self.stats.forks as u64,
                        });
                    }
                }
                let pair = (load_ident, ident(behavior.graph(), store));
                let child_h = set_h.wrapping_add(pair_hash(pair));
                match arena.seen.claim(set, pair, child_h) {
                    Err(winner) => {
                        if pinned {
                            self.pinning.as_mut().expect("pinned").lost(winner);
                        }
                        self.stats.deduped += 1;
                    }
                    Ok(child_set) => {
                        if pinned {
                            self.pinning.as_mut().expect("pinned").won();
                        }
                        survivors.push((load, store, child_set, child_h));
                    }
                }
            }
        }
        arena.loads_buf = loads;
        if let Some(pinning) = &mut self.pinning {
            pinning.keep_graph(behavior.graph());
        }

        // Phase 2: expand the claim winners. The final winner takes
        // the parent by move — a behaviour with a single surviving
        // fork (the common case late in the search) never clones — and
        // the others copy into spare allocations while the pool has any.
        let total = survivors.len();
        let mut parent = Some(behavior);
        for (k, (load, store, child_set, child_h)) in survivors.drain(..).enumerate() {
            let source = parent.as_ref().expect("parent consumed early");
            let mut fork = if k + 1 == total {
                self.pstats.in_place += 1;
                parent.take().expect("parent consumed early")
            } else {
                match arena.pool.pop() {
                    Some(spare) => source.fork_into(spare),
                    None => source.clone(),
                }
            };
            let step = fork.resolve_load(load, store).and_then(|()| {
                fork.settle(self.program, self.policy, self.config.max_nodes_per_thread)
            });
            match step {
                Ok(()) => {
                    let child_id = if self.record_paths {
                        arena.paths.push((id, load, store));
                        arena.paths.len()
                    } else {
                        0
                    };
                    arena.frontier.push((fork, child_set, child_h, child_id));
                }
                Err(StepError::Inconsistent(_)) => {
                    // The claim stays: any other path to this
                    // observation set fails identically.
                    arena.spend(fork);
                    self.stats.rolled_back += 1;
                    if let Some(pinning) = &mut self.pinning {
                        pinning.rolled_back(load, child_set);
                    }
                }
                Err(StepError::NodeLimit { thread, limit }) => {
                    return Err(EnumError::NodeLimit { thread, limit });
                }
            }
        }
        arena.survivors_buf = survivors;
        if let Some(behavior) = parent {
            arena.spend(behavior);
        }
        if let Some(pinning) = &mut self.pinning {
            pinning.close(id);
        }
        Ok(())
    }
}

impl Iterator for PrunedStream<'_> {
    type Item = Result<(usize, Behavior), EnumError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        let item = self.next_settled().transpose();
        self.finished = !matches!(item, Some(Ok(_)));
        item
    }
}

/// Drains a stream without a path table, collecting every yielded
/// behaviour.
fn run(
    program: &Program,
    policy: &Policy,
    config: &EnumConfig,
) -> Result<(EnumResult, PruneStats), EnumError> {
    let mut stream = PrunedStream::new(program, policy, config, false)?;
    let mut result = EnumResult::default();
    while let Some((_, behavior)) = stream.next_settled()? {
        result.outcomes.insert(behavior.outcome());
        if config.keep_executions {
            result.executions.push(behavior);
        } else {
            stream.arena.spend(behavior);
        }
    }
    result.stats = stream.stats();
    if config.keep_executions {
        // Deterministic execution order, sorted by canonical key.
        let mut keyed: Vec<(Vec<u8>, Behavior)> = result
            .executions
            .drain(..)
            .map(|b| (b.canonical_key(), b))
            .collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        result.executions = keyed.into_iter().map(|(_, b)| b).collect();
    }
    Ok((result, stream.pstats))
}

/// One stronger view classified from a base run by
/// [`enumerate_classified`].
#[derive(Debug, Clone, Copy)]
pub struct Classify<'a> {
    /// The policy of the view: its view of the program
    /// [dominates](crate::static_order::TableView::dominates) the base
    /// policy's.
    pub policy: &'a Policy,
    /// The view also dominates the previous view of the list, so it is
    /// classified on the graph that view left, instead of on the base
    /// execution's.
    pub extends: bool,
}

/// What [`enumerate_classified`] found for one classified view: the same
/// outcome set and execution count as a run under its policy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Classified {
    /// Every distinct final outcome of the view's executions.
    pub outcomes: OutcomeSet,
    /// The view's distinct complete executions.
    pub executions: usize,
}

/// Enumerates `program` under the `base` policy, as
/// [`enumerate_pruned`] does, and classifies every complete execution
/// under each of `views`, weakest first: an execution is one of a
/// stronger view's when it stays acyclic once that view's local `≺`
/// edges are added and Store Atomicity is closed again
/// ([`Behavior::strengthen`], DESIGN §4). A view that
/// [extends](Classify::extends) the previous one starts from the graph
/// that one left, and is skipped once that one is cyclic; the last such
/// chain works on the base execution in place, so classification forks,
/// claims and clones nothing along a chain. The base run's statistics are
/// the only ones returned: the classified views ran no search. No
/// execution is kept, whatever [`EnumConfig::keep_executions`] says.
///
/// # Errors
///
/// As for [`enumerate_pruned`], for the base run.
pub fn enumerate_classified(
    program: &Program,
    base: &Policy,
    views: &[Classify<'_>],
    config: &EnumConfig,
) -> Result<(EnumResult, Vec<Classified>), EnumError> {
    let mut stream = PrunedStream::new(program, base, config, false)?;
    let mut result = EnumResult::default();
    let mut classified = vec![Classified::default(); views.len()];
    let mut edges = Vec::new();
    while let Some((_, mut behavior)) = stream.next_settled()? {
        let outcome = behavior.outcome();
        let mut start = 0;
        while start < views.len() {
            let end = start
                + 1
                + views[start + 1..]
                    .iter()
                    .take_while(|view| view.extends)
                    .count();
            let in_place = end == views.len();
            let mut copy = (!in_place).then(|| {
                let spare = stream.arena.pool.pop().unwrap_or_default();
                behavior.fork_into(spare)
            });
            let target = copy.as_mut().unwrap_or(&mut behavior);
            for (view, found) in views[start..end].iter().zip(&mut classified[start..end]) {
                if !target.strengthen(view.policy, &mut edges) {
                    break;
                }
                if !found.outcomes.contains(&outcome) {
                    found.outcomes.insert(outcome.clone());
                }
                found.executions += 1;
            }
            if let Some(copy) = copy {
                stream.arena.spend(copy);
            }
            start = end;
        }
        result.outcomes.insert(outcome);
        stream.arena.spend(behavior);
    }
    result.stats = stream.stats();
    Ok((result, classified))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate;
    use crate::ids::{Reg, Value};
    use crate::instr::{Instr, ThreadProgram};

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

    /// Message passing with distinct per-thread code.
    fn mp() -> Program {
        Program::new(vec![
            ThreadProgram::new(vec![
                Instr::Store {
                    addr: 0u64.into(),
                    val: 42u64.into(),
                },
                Instr::Store {
                    addr: 1u64.into(),
                    val: 1u64.into(),
                },
            ]),
            ThreadProgram::new(vec![
                Instr::Load {
                    dst: Reg::new(0),
                    addr: 1u64.into(),
                },
                Instr::Load {
                    dst: Reg::new(1),
                    addr: 0u64.into(),
                },
            ]),
        ])
    }

    /// Two identical threads racing on one location, with asymmetric
    /// complete executions (each load may observe its own or the other
    /// thread's store).
    fn symmetric_sb() -> Program {
        let t = || {
            ThreadProgram::new(vec![
                Instr::Store {
                    addr: 0u64.into(),
                    val: 1u64.into(),
                },
                Instr::Load {
                    dst: Reg::new(0),
                    addr: 0u64.into(),
                },
            ])
        };
        Program::new(vec![t(), t()])
    }

    /// Two identical threads that each read a location and then write
    /// it: a program of identical threads whose outcomes are *not* all
    /// symmetric (`0/1` and `1/0` are both observable). The symmetric SB
    /// above cannot serve here: its loads read 1 in every execution.
    fn symmetric_race() -> Program {
        let t = || {
            ThreadProgram::new(vec![
                Instr::Load {
                    dst: Reg::new(0),
                    addr: 0u64.into(),
                },
                Instr::Store {
                    addr: 0u64.into(),
                    val: 1u64.into(),
                },
            ])
        };
        Program::new(vec![t(), t()])
    }

    fn policies() -> [Policy; 4] {
        [
            Policy::sequential_consistency(),
            Policy::tso(),
            Policy::pso(),
            Policy::weak(),
        ]
    }

    #[test]
    fn agrees_with_serial_on_fixtures() {
        for program in [sb(), mp(), symmetric_sb()] {
            for policy in policies() {
                let config = EnumConfig::builder().keep_executions(false).build();
                let serial = enumerate(&program, &policy, &config).unwrap();
                let pruned = enumerate_pruned(&program, &policy, &config).unwrap();
                assert_eq!(serial.outcomes, pruned.outcomes, "{}", policy.name());
                assert_eq!(
                    serial.stats.distinct_executions,
                    pruned.stats.distinct_executions,
                    "{}",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn kept_executions_match_serial_executions() {
        let config = EnumConfig::builder().keep_executions(true).build();
        let policy = Policy::weak();
        let pruned = enumerate_pruned(&symmetric_sb(), &policy, &config).unwrap();
        let serial = enumerate(&symmetric_sb(), &policy, &config).unwrap();
        assert_eq!(pruned.executions.len(), serial.executions.len());
        assert_eq!(
            pruned.stats.distinct_executions,
            serial.stats.distinct_executions
        );
        // Same executions up to order: compare sorted canonical keys.
        let keys = |r: &EnumResult| {
            let mut k: Vec<Vec<u8>> = r.executions.iter().map(|b| b.canonical_key()).collect();
            k.sort();
            k
        };
        assert_eq!(keys(&pruned), keys(&serial));
    }

    #[test]
    fn expands_fewer_forks_than_serial_attempts() {
        let config = EnumConfig::builder().keep_executions(false).build();
        let policy = Policy::weak();
        let serial = enumerate(&sb(), &policy, &config).unwrap();
        let (pruned, pstats) = enumerate_pruned_stats(&sb(), &policy, &config).unwrap();
        let expanded = pruned.stats.forks - pruned.stats.deduped;
        assert!(
            expanded < serial.stats.forks,
            "expanded {expanded} vs serial forks {}",
            serial.stats.forks
        );
        assert!(pstats.in_place > 0, "last fork must move, not clone");
        assert!(pstats.in_place as usize <= expanded);
    }

    #[test]
    fn budget_aborts_with_overbudget() {
        let config = EnumConfig::builder()
            .keep_executions(false)
            .budget(Some(2))
            .build();
        let err = enumerate_pruned(&sb(), &Policy::weak(), &config).unwrap_err();
        assert!(matches!(err, EnumError::Overbudget { budget: 2, .. }));
    }

    #[test]
    fn behavior_limit_propagates() {
        let config = EnumConfig::builder()
            .keep_executions(false)
            .max_behaviors(1)
            .build();
        let err = enumerate_pruned(&sb(), &Policy::weak(), &config).unwrap_err();
        assert!(matches!(err, EnumError::BehaviorLimit { limit: 1 }));
    }

    #[test]
    fn deterministic_across_runs() {
        let config = EnumConfig::builder().keep_executions(false).build();
        let a = enumerate_pruned(&symmetric_sb(), &Policy::weak(), &config).unwrap();
        let b = enumerate_pruned(&symmetric_sb(), &Policy::weak(), &config).unwrap();
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn path_table_replays_every_yielded_behavior() {
        let config = EnumConfig::default();
        let limit = config.max_nodes_per_thread;
        for prog in [sb(), mp(), symmetric_sb()] {
            for policy in policies() {
                let mut behaviors = stream(&prog, &policy, &config).unwrap();
                let mut yielded = 0usize;
                while let Some(item) = behaviors.next() {
                    let (id, behavior) = item.unwrap();
                    let path = behaviors
                        .path_to(id)
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
                // Every distinct execution is yielded.
                let serial = enumerate(&prog, &policy, &config).unwrap();
                assert_eq!(yielded, behaviors.stats().distinct_executions);
                assert_eq!(yielded, serial.stats.distinct_executions);
                assert_eq!(behaviors.path_to(0), Some(Vec::new()), "the root's path");
                assert_eq!(behaviors.path_to(usize::MAX), None, "unknown id");
            }
        }
        // A stream created without the table answers no paths at all.
        let (program, policy) = (sb(), Policy::weak());
        let mut plain = PrunedStream::new(&program, &policy, &config, false).unwrap();
        let (id, _) = plain.next().unwrap().unwrap();
        assert_eq!(plain.path_to(id), None);
    }

    #[test]
    fn a_claim_lost_to_a_rolled_back_set_shares_its_fate() {
        let (goal_load, other_load) = (NodeId::new(4), NodeId::new(5));
        let (store, required) = (NodeId::new(1), Value::new(1));
        let mut pinning = Pinning {
            pins: Pins::from([(goal_load, required)]),
            rolled: FxHashSet::default(),
            tally: Vec::new(),
            blocked: None,
            blocked_graph: None,
        };
        let open = |pinning: &mut Pinning| {
            pinning.tally.push(PinTally {
                load: goal_load,
                first: Some(store),
                survived: false,
                pending: 0,
            })
        };
        let (rolled, settled): (SetId, SetId) = (1, 2);
        // State 1 claims both sets by forking an unpinned load; the first
        // fork rolls back, the second settles.
        pinning.rolled_back(other_load, rolled);
        pinning.close(1);
        // State 2's goal fork loses to the settled set: it survives.
        open(&mut pinning);
        pinning.lost(settled);
        pinning.close(2);
        assert_eq!(pinning.blocked, None);
        // State 3's goal fork loses to the rolled-back set: it rolls back
        // too, so the goal load is blocked by a resolution cycle.
        open(&mut pinning);
        pinning.lost(rolled);
        pinning.close(3);
        let blocked = Blocked {
            id: 3,
            load: goal_load,
            required,
            cycle: Some(store),
        };
        assert_eq!(pinning.blocked, Some(blocked));
        // Only the first blocked state is kept.
        open(&mut pinning);
        pinning.close(4);
        assert_eq!(pinning.blocked, Some(blocked));
    }

    #[test]
    fn goal_searches_find_both_images_on_identical_threads() {
        use crate::explain::{find_witness, Goal};
        let program = symmetric_race();
        let config = EnumConfig::builder().keep_executions(false).build();
        let goal = |a: u64, b: u64| {
            Goal::new(vec![
                (0, Reg::new(0), Value::new(a)),
                (1, Reg::new(0), Value::new(b)),
            ])
        };
        for policy in policies() {
            let result = enumerate_pruned(&program, &policy, &config).unwrap();
            assert_eq!(result.outcomes.len(), 3, "{}", policy.name());
            // Both asymmetric outcomes have witnesses of their own.
            for (a, b) in [(1, 0), (0, 1)] {
                let witness = find_witness(&program, &policy, &config, &goal(a, b))
                    .unwrap()
                    .unwrap_or_else(|| panic!("{}: {a}/{b} is observable", policy.name()));
                witness
                    .verify(&program, &policy, config.max_nodes_per_thread)
                    .unwrap();
                assert!(goal(a, b).matches(&witness.outcome));
            }
            // Both loads reading the other's store would close a cycle.
            assert!(find_witness(&program, &policy, &config, &goal(1, 1))
                .unwrap()
                .is_none());
        }
    }
}
