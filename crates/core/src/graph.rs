//! Execution graphs: partially ordered sets of instruction instances.
//!
//! An execution of a program is represented as a DAG whose nodes are
//! dynamic instruction instances and whose edges are the ordering
//! relationships of the paper's Figure 2:
//!
//! * solid local-ordering edges `A ≺ B` required by the reordering axioms
//!   and by data dependence;
//! * ringed observation edges `source(L) → L`;
//! * dotted Store Atomicity edges inserted by the closure rules; and
//! * (for TSO) gray bypass edges that do **not** participate in `@`.
//!
//! The graph keeps the strict transitive closure of all `@`-relevant edges
//! incrementally (see [`crate::closure`]), so `A @ B` is a bit test.

use std::fmt;

use crate::atomicity::Rule;
use crate::bitset::BitSetRef;
use crate::closure::Closure;
use crate::error::CycleError;
use crate::ids::{Addr, NodeId, Reg, ThreadId, Value};
use crate::instr::BinOp;
use crate::policy::OpClass;

/// A dataflow input of a node: an immediate constant or the value produced
/// by another node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Input {
    /// A constant, available immediately.
    Const(Value),
    /// The value of another graph node, available once that node resolves.
    Node(NodeId),
}

impl Input {
    /// The producing node, when the input is not a constant.
    pub fn producer(self) -> Option<NodeId> {
        match self {
            Input::Const(_) => None,
            Input::Node(id) => Some(id),
        }
    }
}

/// The operation-specific payload of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum NodeDetail {
    /// An ALU operation.
    Compute {
        /// The operation.
        op: BinOp,
        /// Left input.
        lhs: Input,
        /// Right input.
        rhs: Input,
    },
    /// A conditional branch; resolving it redirects the thread's PC.
    Branch {
        /// Branch condition (taken when non-zero).
        cond: Input,
        /// Instruction index when taken.
        target: usize,
        /// Instruction index when not taken.
        fallthrough: usize,
    },
    /// A memory load.
    Load {
        /// Address input.
        addr_in: Input,
        /// Destination register (informational; bindings live in the
        /// thread state).
        dst: Reg,
    },
    /// A memory store.
    Store {
        /// Address input.
        addr_in: Input,
        /// Value input.
        val_in: Input,
    },
    /// An atomic read-modify-write: one node acting as both Load and
    /// Store (paper section 8's Compare-and-Swap extension).
    Rmw {
        /// Address input.
        addr_in: Input,
        /// The combined/replacing operand.
        src_in: Input,
        /// Comparison operand for CAS.
        expect_in: Option<Input>,
        /// The flavour.
        kind: RmwKind,
        /// Destination register (informational).
        dst: Reg,
    },
    /// A memory fence (no data; resolves immediately).
    Fence,
    /// An initial-memory store, created before any thread runs.
    Init,
}

/// The flavour of a read-modify-write node (mirrors
/// [`crate::instr::RmwOp`] with operands lifted into inputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmwKind {
    /// Unconditional exchange.
    Swap,
    /// Atomic fetch-and-add.
    FetchAdd,
    /// Compare-and-swap; performs no store when the comparison fails.
    Cas,
}

/// One dynamic instruction instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    thread: ThreadId,
    index_in_thread: u32,
    detail: NodeDetail,
    addr: Option<Addr>,
    value: Option<Value>,
    /// For stores: same as `value`. For resolved RMWs: the value written
    /// (`None` = failed CAS, no store performed).
    store_value: Option<Value>,
    source: Option<NodeId>,
    bypass_source: bool,
    resolved: bool,
}

impl Node {
    /// The thread that issued this node ([`ThreadId::INIT`] for initial
    /// stores).
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// Zero-based issue index of this node within its thread.
    pub fn index_in_thread(&self) -> u32 {
        self.index_in_thread
    }

    /// The operation payload.
    pub fn detail(&self) -> &NodeDetail {
        &self.detail
    }

    /// The primary instruction class, for display purposes. RMW nodes
    /// report [`OpClass::Load`]; use [`Node::classes`] for reordering-table
    /// lookups, which must consider both of an RMW's facets.
    pub fn class(&self) -> OpClass {
        match self.detail {
            NodeDetail::Compute { .. } => OpClass::Compute,
            NodeDetail::Branch { .. } => OpClass::Branch,
            NodeDetail::Load { .. } | NodeDetail::Rmw { .. } => OpClass::Load,
            NodeDetail::Store { .. } | NodeDetail::Init => OpClass::Store,
            NodeDetail::Fence => OpClass::Fence,
        }
    }

    /// Every instruction class this node belongs to: one for ordinary
    /// nodes, `[Load, Store]` for atomic read-modify-writes.
    pub fn classes(&self) -> &'static [OpClass] {
        match self.detail {
            NodeDetail::Compute { .. } => &[OpClass::Compute],
            NodeDetail::Branch { .. } => &[OpClass::Branch],
            NodeDetail::Load { .. } => &[OpClass::Load],
            NodeDetail::Store { .. } | NodeDetail::Init => &[OpClass::Store],
            NodeDetail::Rmw { .. } => &[OpClass::Load, OpClass::Store],
            NodeDetail::Fence => &[OpClass::Fence],
        }
    }

    /// Returns `true` for nodes with a load facet (loads and RMWs): they
    /// observe a source store and are resolved by load resolution.
    pub fn is_load(&self) -> bool {
        matches!(
            self.detail,
            NodeDetail::Load { .. } | NodeDetail::Rmw { .. }
        )
    }

    /// Returns `true` for nodes with an *active* store facet: stores,
    /// initial-memory stores, and resolved RMWs that actually wrote (a
    /// failed CAS performs no store). An unresolved RMW is not yet a
    /// store — it cannot serve as a source and does not overwrite — but
    /// its load facet keeps it on every candidate-blocking path.
    pub fn is_store(&self) -> bool {
        match self.detail {
            NodeDetail::Store { .. } | NodeDetail::Init => true,
            NodeDetail::Rmw { .. } => self.resolved && self.store_value.is_some(),
            _ => false,
        }
    }

    /// Returns `true` for loads, stores and RMWs.
    pub fn is_memory(&self) -> bool {
        matches!(
            self.detail,
            NodeDetail::Load { .. }
                | NodeDetail::Store { .. }
                | NodeDetail::Init
                | NodeDetail::Rmw { .. }
        )
    }

    /// Returns `true` for atomic read-modify-write nodes.
    pub fn is_rmw(&self) -> bool {
        matches!(self.detail, NodeDetail::Rmw { .. })
    }

    /// The value this node wrote to memory, once known: the stored value
    /// for stores, the new value for successful RMWs, `None` for failed
    /// CAS and for non-stores.
    pub fn stored_value(&self) -> Option<Value> {
        match self.detail {
            NodeDetail::Store { .. } | NodeDetail::Init => self.value,
            NodeDetail::Rmw { .. } => self.store_value,
            _ => None,
        }
    }

    /// Returns `true` for initial-memory stores.
    pub fn is_init(&self) -> bool {
        matches!(self.detail, NodeDetail::Init)
    }

    /// The memory address, once known.
    pub fn addr(&self) -> Option<Addr> {
        self.addr
    }

    /// The node's value, once computed: the loaded value for a load, the
    /// stored value for a store, the result for a compute node, the
    /// condition for a branch.
    pub fn value(&self) -> Option<Value> {
        self.value
    }

    /// For a resolved load, the store it observes (`source(L)`).
    pub fn source(&self) -> Option<NodeId> {
        self.source
    }

    /// Returns `true` when the load observed its source through the TSO
    /// store-buffer bypass (gray edge; `source(L) ⊀ L`).
    pub fn is_bypass_source(&self) -> bool {
        self.bypass_source
    }

    /// Whether the node has executed (value known; for loads, source
    /// chosen).
    pub fn is_resolved(&self) -> bool {
        self.resolved
    }

    /// A short human-readable label such as `S @1,2` or `L @1`.
    pub fn label(&self) -> String {
        let pos = format!("{}.{}", self.thread, self.index_in_thread);
        match &self.detail {
            NodeDetail::Compute { op, .. } => format!("{pos}: {op}"),
            NodeDetail::Branch { .. } => format!("{pos}: bnz"),
            NodeDetail::Load { .. } => match (self.addr, self.value) {
                (Some(a), Some(v)) => format!("{pos}: L {a} = {v}"),
                (Some(a), None) => format!("{pos}: L {a}"),
                _ => format!("{pos}: L ?"),
            },
            NodeDetail::Store { .. } => match (self.addr, self.value) {
                (Some(a), Some(v)) => format!("{pos}: S {a},{v}"),
                (Some(a), None) => format!("{pos}: S {a},?"),
                (None, Some(v)) => format!("{pos}: S ?,{v}"),
                _ => format!("{pos}: S ?,?"),
            },
            NodeDetail::Rmw { kind, .. } => {
                let k = match kind {
                    RmwKind::Swap => "swap",
                    RmwKind::FetchAdd => "faa",
                    RmwKind::Cas => "cas",
                };
                match (self.addr, self.value, self.store_value) {
                    (Some(a), Some(old), Some(new)) => format!("{pos}: {k} {a} {old}->{new}"),
                    (Some(a), Some(old), None) if self.resolved => {
                        format!("{pos}: {k} {a} {old} (no store)")
                    }
                    (Some(a), _, _) => format!("{pos}: {k} {a}"),
                    _ => format!("{pos}: {k} ?"),
                }
            }
            NodeDetail::Fence => format!("{pos}: fence"),
            NodeDetail::Init => format!(
                "init {},{}",
                self.addr.map(|a| a.to_string()).unwrap_or_default(),
                self.value.map(|v| v.to_string()).unwrap_or_default()
            ),
        }
    }
}

/// The kind of an ordering edge (the paper's Figure 2, plus bookkeeping
/// kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Local ordering required by a `never` table entry.
    Program,
    /// Dataflow dependence (operand producer → consumer).
    Data,
    /// Non-speculative address disambiguation: the producer of an earlier
    /// potentially-aliasing operation's address precedes the later
    /// operation (section 5.1, the `L6 ≺ L8` edge).
    AddrResolve,
    /// Same-address local ordering inserted once both addresses are known
    /// (an `x ≠ y` table entry that fired).
    Alias,
    /// Observation: `source(L) → L` (ringed in the paper's figures).
    Source,
    /// Store Atomicity edge inserted by rules a/b/c (dotted).
    Atomicity,
    /// Initial store precedes every other operation.
    Init,
    /// TSO bypass (gray): records `source(L)` for a load satisfied from the
    /// local store pipeline. **Not** part of `@`.
    Bypass,
}

impl EdgeKind {
    /// Whether edges of this kind participate in the `@` ordering.
    #[inline]
    pub fn in_order(self) -> bool {
        !matches!(self, EdgeKind::Bypass)
    }
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EdgeKind::Program => "program",
            EdgeKind::Data => "data",
            EdgeKind::AddrResolve => "addr-resolve",
            EdgeKind::Alias => "alias",
            EdgeKind::Source => "source",
            EdgeKind::Atomicity => "atomicity",
            EdgeKind::Init => "init",
            EdgeKind::Bypass => "bypass",
        };
        f.write_str(s)
    }
}

/// A recorded edge (for rendering and projection; ordering queries go
/// through the closure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// Edge kind.
    pub kind: EdgeKind,
    /// For [`EdgeKind::Atomicity`] edges inserted through
    /// [`ExecutionGraph::add_atomicity_edge`]: which closure rule of the
    /// paper's Figure 6 demanded the edge. `None` for every other kind
    /// (and for atomicity edges built by hand in tests).
    pub rule: Option<Rule>,
}

/// A partially ordered execution: the node arena, the typed edge list, and
/// the transitive closure of `@`.
#[derive(Debug, Default)]
pub struct ExecutionGraph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    closure: Closure,
}

impl Clone for ExecutionGraph {
    fn clone(&self) -> Self {
        ExecutionGraph {
            nodes: self.nodes.clone(),
            edges: self.edges.clone(),
            closure: self.closure.clone(),
        }
    }

    // Capacity-reusing clone for the pruned engine's spare behaviours.
    fn clone_from(&mut self, source: &Self) {
        self.nodes.clone_from(&source.nodes);
        self.edges.clone_from(&source.edges);
        self.closure.clone_from(&source.closure);
    }
}

impl ExecutionGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        ExecutionGraph::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Removes every node and edge, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.nodes.clear();
        self.edges.clear();
        self.closure.clear();
    }

    /// Bytes of heap the graph holds, used or not.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.edges.capacity() * std::mem::size_of::<Edge>()
            + self.closure.heap_bytes()
    }

    /// Adds a node issued by `thread` with payload `detail`.
    ///
    /// Fences resolve immediately (they carry no data); all other nodes
    /// start unresolved.
    pub fn add_node(
        &mut self,
        thread: ThreadId,
        index_in_thread: u32,
        detail: NodeDetail,
    ) -> NodeId {
        let resolved = matches!(detail, NodeDetail::Fence);
        let node = Node {
            thread,
            index_in_thread,
            detail,
            addr: None,
            value: if resolved { Some(Value::ZERO) } else { None },
            store_value: None,
            source: None,
            bypass_source: false,
            resolved,
        };
        let id = self.closure.add_node();
        debug_assert_eq!(id.index(), self.nodes.len());
        self.nodes.push(node);
        id
    }

    /// Adds a resolved initial-memory store for `addr` holding `value`.
    ///
    /// The caller is responsible for ordering it before other nodes (see
    /// [`ExecutionGraph::add_edge`] with [`EdgeKind::Init`]).
    pub fn add_init_store(&mut self, index: u32, addr: Addr, value: Value) -> NodeId {
        let id = self.closure.add_node();
        debug_assert_eq!(id.index(), self.nodes.len());
        self.nodes.push(Node {
            thread: ThreadId::INIT,
            index_in_thread: index,
            detail: NodeDetail::Init,
            addr: Some(addr),
            value: Some(value),
            store_value: Some(value),
            source: None,
            bypass_source: false,
            resolved: true,
        });
        id
    }

    /// Borrows a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Iterates over `(id, node)` pairs in creation order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::new(i), n))
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId::new)
    }

    /// Ids of all memory operations (loads and stores, including init).
    pub fn memory_ops(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter().filter(|(_, n)| n.is_memory()).map(|(id, _)| id)
    }

    /// Ids of all stores (including init) whose address is known to equal
    /// `addr`.
    pub fn stores_to(&self, addr: Addr) -> impl Iterator<Item = NodeId> + '_ {
        self.iter()
            .filter(move |(_, n)| n.is_store() && n.addr() == Some(addr))
            .map(|(id, _)| id)
    }

    /// Ids of all loads whose address is known to equal `addr`.
    pub fn loads_of(&self, addr: Addr) -> impl Iterator<Item = NodeId> + '_ {
        self.iter()
            .filter(move |(_, n)| n.is_load() && n.addr() == Some(addr))
            .map(|(id, _)| id)
    }

    /// The typed edge list, in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Inserts an ordering edge.
    ///
    /// [`EdgeKind::Bypass`] edges are recorded but not added to `@`. Any
    /// other kind updates the transitive closure.
    ///
    /// Returns `Ok(true)` when a genuinely new ordering pair (or bypass
    /// record) was added.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] when the edge would make `@` cyclic; the graph
    /// is unchanged in that case.
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        kind: EdgeKind,
    ) -> Result<bool, CycleError> {
        if kind == EdgeKind::Bypass {
            self.edges.push(Edge {
                from,
                to,
                kind,
                rule: None,
            });
            return Ok(true);
        }
        let added = self.closure.add_edge(from, to)?;
        // Record the direct edge even when redundant in the closure: the
        // drawn figures distinguish "required" edges from implied ones.
        self.edges.push(Edge {
            from,
            to,
            kind,
            rule: None,
        });
        Ok(added)
    }

    /// Inserts every edge of `edges` (none of them [`EdgeKind::Bypass`])
    /// and re-closes `@` once ([`Closure::add_edges`]).
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] when the edges make `@` cyclic; the graph is
    /// then left cyclic and must be discarded.
    pub(crate) fn add_edges(&mut self, edges: &[Edge]) -> Result<(), CycleError> {
        debug_assert!(edges.iter().all(|e| e.kind.in_order()));
        self.closure
            .add_edges(edges.iter().map(|e| (e.from, e.to)))?;
        self.edges.extend_from_slice(edges);
        Ok(())
    }

    /// Inserts a Store Atomicity edge tagged with the closure [`Rule`]
    /// that demanded it, so witnesses and refutations can cite the rule.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] when the edge would make `@` cyclic; the
    /// graph is unchanged in that case.
    pub fn add_atomicity_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        rule: Rule,
    ) -> Result<bool, CycleError> {
        let added = self.closure.add_edge(from, to)?;
        self.edges.push(Edge {
            from,
            to,
            kind: EdgeKind::Atomicity,
            rule: Some(rule),
        });
        Ok(added)
    }

    /// Returns `true` when `a @ b` (strictly).
    #[inline]
    pub fn precedes(&self, a: NodeId, b: NodeId) -> bool {
        self.closure.reaches(a, b)
    }

    /// Returns `true` when the nodes are ordered either way by `@`.
    #[inline]
    pub fn ordered(&self, a: NodeId, b: NodeId) -> bool {
        self.closure.ordered(a, b)
    }

    /// The strict `@`-predecessor set of a node.
    pub fn predecessors(&self, id: NodeId) -> BitSetRef<'_> {
        self.closure.predecessors(id)
    }

    /// The strict `@`-successor set of a node.
    pub fn successors(&self, id: NodeId) -> BitSetRef<'_> {
        self.closure.successors(id)
    }

    /// The underlying closure (for algorithms that need set operations).
    pub fn order(&self) -> &Closure {
        &self.closure
    }

    /// The value carried by a dataflow input, when available.
    pub(crate) fn input_value(&self, input: Input) -> Option<Value> {
        match input {
            Input::Const(v) => Some(v),
            Input::Node(id) => {
                let n = self.node(id);
                if n.is_resolved() {
                    n.value()
                } else {
                    None
                }
            }
        }
    }

    /// Marks load (or RMW) `load` as observing store `source`; sets its
    /// loaded value, computes and records an RMW's written value, and
    /// resolves it. `bypass` records a TSO store-buffer observation.
    ///
    /// This only mutates the node; the caller inserts the corresponding
    /// [`EdgeKind::Source`] or [`EdgeKind::Bypass`] edge and re-closes
    /// Store Atomicity.
    ///
    /// # Panics
    ///
    /// Panics if `load` is not an unresolved load/RMW, `source` is not a
    /// resolved store, or an RMW's operands are not yet available (the
    /// resolution gate guarantees they are).
    pub(crate) fn set_source(&mut self, load: NodeId, source: NodeId, bypass: bool) {
        let loaded = {
            let src = self.node(source);
            assert!(
                src.is_store() && src.is_resolved(),
                "source must be a resolved store"
            );
            src.stored_value().expect("active store has a stored value")
        };
        // Compute an RMW's written value before mutating the node.
        let store_value = match *self.node(load).detail() {
            NodeDetail::Rmw {
                src_in,
                expect_in,
                kind,
                ..
            } => {
                let src = self
                    .input_value(src_in)
                    .expect("RMW operand resolved before resolution");
                match kind {
                    RmwKind::Swap => Some(src),
                    RmwKind::FetchAdd => Some(Value::new(loaded.raw().wrapping_add(src.raw()))),
                    RmwKind::Cas => {
                        let expect = self
                            .input_value(expect_in.expect("CAS carries an expect operand"))
                            .expect("CAS operand resolved before resolution");
                        if loaded == expect {
                            Some(src)
                        } else {
                            None
                        }
                    }
                }
            }
            _ => None,
        };
        let node = self.node_mut(load);
        assert!(
            node.is_load() && !node.is_resolved(),
            "target must be an unresolved load"
        );
        node.source = Some(source);
        node.bypass_source = bypass;
        node.value = Some(loaded);
        node.store_value = store_value;
        node.resolved = true;
    }

    pub(crate) fn set_addr(&mut self, id: NodeId, addr: Addr) {
        let node = self.node_mut(id);
        debug_assert!(node.addr.is_none() || node.addr == Some(addr));
        node.addr = Some(addr);
    }

    pub(crate) fn set_value(&mut self, id: NodeId, value: Value) {
        let node = self.node_mut(id);
        debug_assert!(node.value.is_none() || node.value == Some(value));
        node.value = Some(value);
    }

    pub(crate) fn mark_resolved(&mut self, id: NodeId) {
        self.node_mut(id).resolved = true;
    }

    /// Returns `true` when every node in the graph is resolved.
    pub fn fully_resolved(&self) -> bool {
        self.nodes.iter().all(Node::is_resolved)
    }

    // --- Observed-execution construction -------------------------------
    //
    // Public constructors for building a graph out of an *observed*
    // execution (a hardware or simulator trace) and checking it against
    // Store Atomicity — the TSOtool-style use case of the paper's
    // section 8 ("Tools for verifying memory model violations"). The
    // coherence-protocol checker in `samm-coherence` is built on these.

    /// Adds an already-executed store observed in a trace.
    pub fn add_store_event(
        &mut self,
        thread: ThreadId,
        index_in_thread: u32,
        addr: Addr,
        value: Value,
    ) -> NodeId {
        let id = self.add_node(
            thread,
            index_in_thread,
            NodeDetail::Store {
                addr_in: Input::Const(addr.into()),
                val_in: Input::Const(value),
            },
        );
        self.set_addr(id, addr);
        self.set_value(id, value);
        self.mark_resolved(id);
        id
    }

    /// Adds a load observed in a trace; its source is attached with
    /// [`ExecutionGraph::observe`].
    pub fn add_load_event(&mut self, thread: ThreadId, index_in_thread: u32, addr: Addr) -> NodeId {
        let id = self.add_node(
            thread,
            index_in_thread,
            NodeDetail::Load {
                addr_in: Input::Const(addr.into()),
                dst: Reg::new(0),
            },
        );
        self.set_addr(id, addr);
        id
    }

    /// Adds an already-executed atomic read-modify-write observed in a
    /// trace. `stored` is `Some(new_value)` for a successful operation and
    /// `None` for a failed CAS. Its source is attached with
    /// [`ExecutionGraph::observe`], which recomputes nothing — the trace's
    /// own values are kept.
    pub fn add_rmw_event(
        &mut self,
        thread: ThreadId,
        index_in_thread: u32,
        addr: Addr,
        stored: Option<Value>,
    ) -> NodeId {
        let id = self.add_node(
            thread,
            index_in_thread,
            NodeDetail::Rmw {
                addr_in: Input::Const(addr.into()),
                src_in: Input::Const(stored.unwrap_or(Value::ZERO)),
                expect_in: None,
                kind: RmwKind::Swap,
                dst: Reg::new(0),
            },
        );
        self.set_addr(id, addr);
        // Pre-record the traced written value; attach the source with
        // [`ExecutionGraph::observe_recorded`], which preserves it (plain
        // `observe` would recompute it and lose failed-CAS shapes).
        self.node_mut(id).store_value = stored;
        id
    }

    /// Like [`ExecutionGraph::observe`], but preserves the written value
    /// pre-recorded by [`ExecutionGraph::add_rmw_event`] instead of
    /// recomputing it — for observed-trace RMW events.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] when the observation contradicts the
    /// ordering already present.
    ///
    /// # Panics
    ///
    /// Panics if `rmw` is not an unresolved RMW or `source` is not a
    /// resolved store.
    pub fn observe_recorded(&mut self, rmw: NodeId, source: NodeId) -> Result<bool, CycleError> {
        let loaded = {
            let src = self.node(source);
            assert!(
                src.is_store() && src.is_resolved(),
                "source must be a resolved store"
            );
            src.stored_value().expect("active store has a stored value")
        };
        let added = self.add_edge(source, rmw, EdgeKind::Source)?;
        let node = self.node_mut(rmw);
        assert!(
            node.is_rmw() && !node.is_resolved(),
            "target must be an unresolved RMW"
        );
        node.source = Some(source);
        node.value = Some(loaded);
        node.resolved = true;
        Ok(added)
    }

    /// Records that `load` observed `source` (an [`EdgeKind::Source`]
    /// edge) and resolves the load with the store's value.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] when the observation contradicts the
    /// ordering already present.
    ///
    /// # Panics
    ///
    /// Panics if `load` is not an unresolved load or `source` is not a
    /// resolved store.
    pub fn observe(&mut self, load: NodeId, source: NodeId) -> Result<bool, CycleError> {
        let added = self.add_edge(source, load, EdgeKind::Source)?;
        self.set_source(load, source, false);
        Ok(added)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(g: &mut ExecutionGraph, t: usize, i: u32, addr: u64, val: u64) -> NodeId {
        let id = g.add_node(
            ThreadId::new(t),
            i,
            NodeDetail::Store {
                addr_in: Input::Const(Value::new(addr)),
                val_in: Input::Const(Value::new(val)),
            },
        );
        g.set_addr(id, Addr::new(addr));
        g.set_value(id, Value::new(val));
        g.mark_resolved(id);
        id
    }

    fn load(g: &mut ExecutionGraph, t: usize, i: u32, addr: u64) -> NodeId {
        let id = g.add_node(
            ThreadId::new(t),
            i,
            NodeDetail::Load {
                addr_in: Input::Const(Value::new(addr)),
                dst: Reg::new(0),
            },
        );
        g.set_addr(id, Addr::new(addr));
        id
    }

    #[test]
    fn nodes_report_classes() {
        let mut g = ExecutionGraph::new();
        let s = store(&mut g, 0, 0, 1, 7);
        let l = load(&mut g, 0, 1, 1);
        let f = g.add_node(ThreadId::new(0), 2, NodeDetail::Fence);
        let init = g.add_init_store(0, Addr::new(1), Value::ZERO);
        assert_eq!(g.node(s).class(), OpClass::Store);
        assert_eq!(g.node(l).class(), OpClass::Load);
        assert_eq!(g.node(f).class(), OpClass::Fence);
        assert_eq!(g.node(init).class(), OpClass::Store);
        assert!(g.node(init).is_init());
        assert!(g.node(init).is_resolved());
        assert!(g.node(f).is_resolved(), "fences resolve immediately");
        assert!(!g.node(l).is_resolved());
    }

    #[test]
    fn edges_update_reachability() {
        let mut g = ExecutionGraph::new();
        let a = store(&mut g, 0, 0, 1, 1);
        let b = store(&mut g, 0, 1, 2, 2);
        let c = store(&mut g, 0, 2, 3, 3);
        g.add_edge(a, b, EdgeKind::Program).unwrap();
        g.add_edge(b, c, EdgeKind::Program).unwrap();
        assert!(g.precedes(a, c));
        assert!(!g.precedes(c, a));
        assert_eq!(g.edges().len(), 2);
    }

    #[test]
    fn bypass_edges_do_not_enter_the_order() {
        let mut g = ExecutionGraph::new();
        let s = store(&mut g, 0, 0, 1, 1);
        let l = load(&mut g, 0, 1, 1);
        g.add_edge(s, l, EdgeKind::Bypass).unwrap();
        assert!(!g.precedes(s, l));
        assert!(!g.ordered(s, l));
        assert_eq!(g.edges().len(), 1);
        // The reverse direction can still be ordered later without a cycle.
        g.add_edge(l, s, EdgeKind::Atomicity).unwrap();
        assert!(g.precedes(l, s));
    }

    #[test]
    fn cycle_insertion_fails_cleanly() {
        let mut g = ExecutionGraph::new();
        let a = store(&mut g, 0, 0, 1, 1);
        let b = store(&mut g, 1, 0, 1, 2);
        g.add_edge(a, b, EdgeKind::Atomicity).unwrap();
        let before = g.edges().len();
        assert!(g.add_edge(b, a, EdgeKind::Atomicity).is_err());
        assert_eq!(g.edges().len(), before, "failed edge must not be recorded");
        assert!(g.precedes(a, b));
    }

    #[test]
    fn stores_to_and_loads_of_filter_by_address() {
        let mut g = ExecutionGraph::new();
        let s1 = store(&mut g, 0, 0, 1, 10);
        let _s2 = store(&mut g, 0, 1, 2, 20);
        let l1 = load(&mut g, 1, 0, 1);
        let init = g.add_init_store(0, Addr::new(1), Value::ZERO);
        let stores: Vec<_> = g.stores_to(Addr::new(1)).collect();
        assert_eq!(stores, vec![s1, init]);
        let loads: Vec<_> = g.loads_of(Addr::new(1)).collect();
        assert_eq!(loads, vec![l1]);
    }

    #[test]
    fn set_source_resolves_load_with_store_value() {
        let mut g = ExecutionGraph::new();
        let s = store(&mut g, 0, 0, 1, 99);
        let l = load(&mut g, 1, 0, 1);
        g.set_source(l, s, false);
        let n = g.node(l);
        assert!(n.is_resolved());
        assert_eq!(n.value(), Some(Value::new(99)));
        assert_eq!(n.source(), Some(s));
        assert!(!n.is_bypass_source());
    }

    #[test]
    #[should_panic(expected = "unresolved load")]
    fn set_source_rejects_double_resolution() {
        let mut g = ExecutionGraph::new();
        let s = store(&mut g, 0, 0, 1, 1);
        let l = load(&mut g, 1, 0, 1);
        g.set_source(l, s, false);
        g.set_source(l, s, false);
    }

    #[test]
    fn memory_ops_excludes_fences_and_computes() {
        let mut g = ExecutionGraph::new();
        let _f = g.add_node(ThreadId::new(0), 0, NodeDetail::Fence);
        let s = store(&mut g, 0, 1, 1, 1);
        let c = g.add_node(
            ThreadId::new(0),
            2,
            NodeDetail::Compute {
                op: BinOp::Add,
                lhs: Input::Const(Value::ZERO),
                rhs: Input::Const(Value::ZERO),
            },
        );
        assert_eq!(g.memory_ops().collect::<Vec<_>>(), vec![s]);
        assert_eq!(g.node(c).class(), OpClass::Compute);
    }

    #[test]
    fn labels_are_nonempty_and_descriptive() {
        let mut g = ExecutionGraph::new();
        let s = store(&mut g, 0, 0, 3, 9);
        let l = load(&mut g, 1, 0, 3);
        assert!(g.node(s).label().contains("S @3,9"));
        assert!(g.node(l).label().contains("L @3"));
        let init = g.add_init_store(0, Addr::new(3), Value::new(0));
        assert!(g.node(init).label().contains("init"));
    }

    #[test]
    fn observe_builds_checked_executions() {
        let mut g = ExecutionGraph::new();
        let s = g.add_store_event(ThreadId::new(0), 0, Addr::new(1), Value::new(9));
        let l = g.add_load_event(ThreadId::new(1), 0, Addr::new(1));
        assert!(g.observe(l, s).is_ok());
        assert_eq!(g.node(l).value(), Some(Value::new(9)));
        assert_eq!(g.node(l).source(), Some(s));
        assert!(g.precedes(s, l));
    }

    #[test]
    fn observe_rejects_contradictory_orders() {
        let mut g = ExecutionGraph::new();
        let s = g.add_store_event(ThreadId::new(0), 0, Addr::new(1), Value::new(9));
        let l = g.add_load_event(ThreadId::new(1), 0, Addr::new(1));
        g.add_edge(l, s, EdgeKind::Program).unwrap();
        assert!(g.observe(l, s).is_err(), "source after the load is a cycle");
    }

    #[test]
    fn rmw_events_keep_recorded_store_values() {
        let mut g = ExecutionGraph::new();
        let s = g.add_store_event(ThreadId::new(0), 0, Addr::new(1), Value::new(5));
        // A successful traced RMW that wrote 7...
        let ok = g.add_rmw_event(ThreadId::new(1), 0, Addr::new(1), Some(Value::new(7)));
        g.observe_recorded(ok, s).unwrap();
        assert!(g.node(ok).is_store());
        assert_eq!(g.node(ok).stored_value(), Some(Value::new(7)));
        assert_eq!(
            g.node(ok).value(),
            Some(Value::new(5)),
            "loaded the old value"
        );
        // ...and a failed traced CAS that wrote nothing.
        let failed = g.add_rmw_event(ThreadId::new(1), 1, Addr::new(1), None);
        g.observe_recorded(failed, ok).unwrap();
        assert!(!g.node(failed).is_store());
        assert_eq!(g.node(failed).value(), Some(Value::new(7)));
        assert_eq!(g.node(failed).stored_value(), None);
    }

    #[test]
    fn rmw_nodes_report_both_classes() {
        let mut g = ExecutionGraph::new();
        let r = g.add_rmw_event(ThreadId::new(0), 0, Addr::new(1), Some(Value::new(1)));
        assert_eq!(g.node(r).classes(), &[OpClass::Load, OpClass::Store]);
        assert!(g.node(r).is_load());
        assert!(g.node(r).is_rmw());
        assert!(g.node(r).is_memory());
        assert!(!g.node(r).is_store(), "unresolved RMW is not yet a store");
        assert!(g.node(r).label().contains("swap"));
    }

    #[test]
    fn fully_resolved_tracks_all_nodes() {
        let mut g = ExecutionGraph::new();
        let s = store(&mut g, 0, 0, 1, 1);
        let l = load(&mut g, 1, 0, 1);
        assert!(!g.fully_resolved());
        g.set_source(l, s, false);
        assert!(g.fully_resolved());
    }
}
