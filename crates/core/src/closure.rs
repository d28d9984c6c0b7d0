//! Incrementally maintained transitive closure with cycle detection.
//!
//! The `@` relation of the paper ("A is before B in every serialization") is
//! built by repeatedly adding edges — local reordering edges, observation
//! (source) edges, and Store Atomicity edges — and asking reachability
//! questions such as "is there a store between `source(L)` and `L`?".
//! Keeping the full strict transitive closure in per-node predecessor and
//! successor bit rows makes every such query a constant-time bit test and
//! keeps edge insertion at `O(n²/64)` worst case, which is ideal for the
//! litmus-scale graphs this framework works on.
//!
//! Inserting an edge that would create a cycle is reported as a
//! [`CycleError`]; a cycle in `@` means the execution is not serializable
//! (used to discard speculative forks, paper section 5.2).

use std::cell::RefCell;

use crate::bitset::{BitSet, BitSetRef};
use crate::error::CycleError;
use crate::ids::NodeId;

const WORD_BITS: usize = 64;

thread_local! {
    /// Scratch frontier sets for [`Closure::add_edge`] (down, up).
    static EDGE_SCRATCH: RefCell<(BitSet, BitSet)> = RefCell::default();
}

/// A strict partial order over dense node indices, closed under
/// transitivity, with incremental edge insertion and cycle detection.
///
/// Rows live in one flat row-major matrix (`row_words` words per node)
/// rather than per-node allocations: cloning a `Closure` — which happens
/// on every enumeration fork — is two `memcpy`s with no per-row
/// allocation or reference-count traffic, and `add_edge` updates rows in
/// place. At litmus scale a whole matrix is a few cache lines, so a flat
/// copy beats any sharing scheme's bookkeeping.
///
/// # Examples
///
/// ```
/// use samm_core::closure::Closure;
/// use samm_core::ids::NodeId;
///
/// let mut c = Closure::new();
/// let a = c.add_node();
/// let b = c.add_node();
/// let d = c.add_node();
/// c.add_edge(a, b).unwrap();
/// c.add_edge(b, d).unwrap();
/// assert!(c.reaches(a, d));
/// assert!(c.add_edge(d, a).is_err()); // would close a cycle
/// ```
#[derive(Debug, Default)]
pub struct Closure {
    /// Number of nodes.
    n: usize,
    /// Words per row; rows widen (rarely) when `n` crosses a multiple
    /// of 64.
    row_words: usize,
    /// Row-major `n × row_words` matrix: bit `j` of row `i` means
    /// `i @ j` (strict: row `i` never contains `i`).
    succ: Vec<u64>,
    /// Transpose: bit `i` of row `j` means `i @ j` (strict).
    pred: Vec<u64>,
}

impl Clone for Closure {
    fn clone(&self) -> Self {
        Closure {
            n: self.n,
            row_words: self.row_words,
            succ: self.succ.clone(),
            pred: self.pred.clone(),
        }
    }

    // Capacity-reusing clone for the pruned engine's spare behaviours:
    // `Vec`'s `clone_from` keeps the matrix allocation when it fits.
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.row_words = source.row_words;
        self.succ.clone_from(&source.succ);
        self.pred.clone_from(&source.pred);
    }
}

impl Closure {
    /// Creates an empty order with no nodes.
    pub fn new() -> Self {
        Closure::default()
    }

    /// Number of nodes in the order.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` when the order has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Removes every node, keeping the matrices' allocations.
    pub(crate) fn clear(&mut self) {
        self.n = 0;
        self.row_words = 0;
        self.succ.clear();
        self.pred.clear();
    }

    /// Bytes of heap the matrices hold, used or not.
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.succ.capacity() + self.pred.capacity()) * std::mem::size_of::<u64>()
    }

    /// Adds a fresh, unordered node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::new(self.n);
        if self.n == self.row_words * WORD_BITS {
            self.widen();
        }
        self.succ.resize(self.succ.len() + self.row_words, 0);
        self.pred.resize(self.pred.len() + self.row_words, 0);
        self.n += 1;
        id
    }

    /// Grows every row by one word (when node count crosses a multiple
    /// of 64). Rare: O(n²/64) work amortized over 64 node insertions.
    /// An empty order has no rows to move, so it widens in place and
    /// keeps the matrices' allocations (a cleared spare's first node).
    fn widen(&mut self) {
        let old = self.row_words;
        let new = old + 1;
        if self.n == 0 {
            self.row_words = new;
            return;
        }
        for matrix in [&mut self.succ, &mut self.pred] {
            let mut widened = Vec::with_capacity((self.n + 1) * new);
            for row in 0..self.n {
                widened.extend_from_slice(&matrix[row * old..(row + 1) * old]);
                widened.push(0);
            }
            *matrix = widened;
        }
        self.row_words = new;
    }

    #[inline]
    fn srow(&self, i: usize) -> &[u64] {
        &self.succ[i * self.row_words..(i + 1) * self.row_words]
    }

    #[inline]
    fn prow(&self, i: usize) -> &[u64] {
        &self.pred[i * self.row_words..(i + 1) * self.row_words]
    }

    /// Returns `true` when `a @ b` (strictly before; `a != b` implied).
    #[inline]
    pub fn reaches(&self, a: NodeId, b: NodeId) -> bool {
        let (i, j) = (a.index(), b.index());
        self.succ[i * self.row_words + j / WORD_BITS] >> (j % WORD_BITS) & 1 != 0
    }

    /// Returns `true` when the two nodes are ordered either way.
    #[inline]
    pub fn ordered(&self, a: NodeId, b: NodeId) -> bool {
        self.reaches(a, b) || self.reaches(b, a)
    }

    /// All strict successors of `a` (everything `a` precedes).
    #[inline]
    pub fn successors(&self, a: NodeId) -> BitSetRef<'_> {
        BitSetRef::from_words(self.srow(a.index()))
    }

    /// All strict predecessors of `a` (everything preceding `a`).
    #[inline]
    pub fn predecessors(&self, a: NodeId) -> BitSetRef<'_> {
        BitSetRef::from_words(self.prow(a.index()))
    }

    /// Inserts `from @ to` and re-closes transitively.
    ///
    /// Returns `Ok(true)` if any new ordering pair was added, `Ok(false)`
    /// when the pair was already implied.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] when `from == to` or when `to` already reaches
    /// `from` — i.e. the edge would make the order cyclic. The order is left
    /// unchanged in that case.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<bool, CycleError> {
        if from == to || self.reaches(to, from) {
            return Err(CycleError { from, to });
        }
        if self.reaches(from, to) {
            return Ok(false);
        }
        // New pairs: (ancestors(from) ∪ {from}) × (descendants(to) ∪ {to}).
        // The frontier sets live in per-thread scratch (edge insertion is
        // never re-entrant) so an insert allocates nothing of its own.
        let rw = self.row_words;
        EDGE_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            let (down, up) = &mut *scratch;
            down.copy_from_words(self.srow(to.index()));
            down.insert(to.index());
            up.copy_from_words(self.prow(from.index()));
            up.insert(from.index());

            for a in up.iter() {
                let row = &mut self.succ[a * rw..(a + 1) * rw];
                for (dst, &src) in row.iter_mut().zip(down.words()) {
                    *dst |= src;
                }
            }
            for d in down.iter() {
                let row = &mut self.pred[d * rw..(d + 1) * rw];
                for (dst, &src) in row.iter_mut().zip(up.words()) {
                    *dst |= src;
                }
            }
        });
        Ok(true)
    }

    /// Inserts every `(from, to)` edge of `edges` and re-closes once: the
    /// bulk counterpart of [`Closure::add_edge`], for a batch of edges
    /// that would pay one incremental update each. The successor rows are
    /// re-closed by Warshall's algorithm with only the new edges'
    /// endpoints as pivots — the old relation is already closed, so a new
    /// path alternates closed segments and new edges, and its only
    /// intermediate nodes are those endpoints — and the predecessor rows
    /// are then rebuilt as the transpose.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] when the edges make the order cyclic. The
    /// order is then left cyclic and must be discarded.
    pub fn add_edges(
        &mut self,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<(), CycleError> {
        let rw = self.row_words;
        EDGE_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            let (pivots, _) = &mut *scratch;
            pivots.clear();
            for (from, to) in edges {
                if from == to {
                    return Err(CycleError { from, to });
                }
                let (i, j) = (from.index(), to.index());
                self.succ[i * rw + j / WORD_BITS] |= 1 << (j % WORD_BITS);
                pivots.insert(i);
                pivots.insert(j);
            }
            for k in pivots.iter() {
                let (kw, kb) = (k / WORD_BITS, k % WORD_BITS);
                for i in 0..self.n {
                    if self.succ[i * rw + kw] >> kb & 1 != 0 {
                        for w in 0..rw {
                            let bits = self.succ[k * rw + w];
                            self.succ[i * rw + w] |= bits;
                        }
                    }
                }
            }
            // Every cycle runs through a new edge, so through a pivot.
            if let Some(k) = pivots
                .iter()
                .find(|&k| self.succ[k * rw + k / WORD_BITS] >> (k % WORD_BITS) & 1 != 0)
            {
                let node = NodeId::new(k);
                return Err(CycleError {
                    from: node,
                    to: node,
                });
            }
            self.pred.fill(0);
            for i in 0..self.n {
                for w in 0..rw {
                    let mut bits = self.succ[i * rw + w];
                    while bits != 0 {
                        let j = w * WORD_BITS + bits.trailing_zeros() as usize;
                        self.pred[j * rw + i / WORD_BITS] |= 1 << (i % WORD_BITS);
                        bits &= bits - 1;
                    }
                }
            }
            Ok(())
        })
    }

    /// Common strict ancestors of `a` and `b`.
    pub fn common_ancestors(&self, a: NodeId, b: NodeId) -> BitSet {
        let mut out = BitSet::new();
        self.predecessors(a)
            .intersection_into(self.predecessors(b), &mut out);
        out
    }

    /// Common strict descendants of `a` and `b`.
    pub fn common_descendants(&self, a: NodeId, b: NodeId) -> BitSet {
        let mut out = BitSet::new();
        self.successors(a)
            .intersection_into(self.successors(b), &mut out);
        out
    }

    /// A topological order of all nodes (any one consistent with the order).
    pub fn topological_order(&self) -> Vec<NodeId> {
        let n = self.len();
        let mut out = Vec::with_capacity(n);
        let mut emitted = BitSet::new();
        // Kahn's algorithm on the closed relation: a node is ready when all
        // its predecessors have been emitted. O(n²) — fine at this scale.
        let mut remaining: Vec<usize> = (0..n).collect();
        while !remaining.is_empty() {
            let before = remaining.len();
            remaining.retain(|&i| {
                let ready = self
                    .predecessors(NodeId::new(i))
                    .iter()
                    .all(|p| emitted.contains(p));
                if ready {
                    emitted.insert(i);
                    out.push(NodeId::new(i));
                }
                !ready
            });
            assert!(remaining.len() < before, "closure contains a cycle");
        }
        out
    }

    /// Serializes the ordering pairs into `out` in a canonical order, using
    /// `relabel` to map raw indices to canonical indices.
    ///
    /// Used by behaviour deduplication: two graphs are compared by their
    /// closed ordering relation, not by which redundant edges happen to have
    /// been inserted.
    pub fn encode_pairs(&self, relabel: &[u32], out: &mut Vec<u8>) {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for i in 0..self.n {
            for j in self.successors(NodeId::new(i)).iter() {
                pairs.push((relabel[i], relabel[j]));
            }
        }
        pairs.sort_unstable();
        for (a, b) in pairs {
            out.extend_from_slice(&a.to_le_bytes());
            out.extend_from_slice(&b.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(c: &mut Closure, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| c.add_node()).collect()
    }

    #[test]
    fn empty_closure() {
        let c = Closure::new();
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert!(c.topological_order().is_empty());
    }

    #[test]
    fn direct_edge_reaches() {
        let mut c = Closure::new();
        let v = ids(&mut c, 2);
        assert_eq!(c.add_edge(v[0], v[1]), Ok(true));
        assert!(c.reaches(v[0], v[1]));
        assert!(!c.reaches(v[1], v[0]));
        assert!(c.ordered(v[0], v[1]));
    }

    #[test]
    fn transitivity_through_chain() {
        let mut c = Closure::new();
        let v = ids(&mut c, 4);
        c.add_edge(v[0], v[1]).unwrap();
        c.add_edge(v[1], v[2]).unwrap();
        c.add_edge(v[2], v[3]).unwrap();
        assert!(c.reaches(v[0], v[3]));
        assert!(c.reaches(v[1], v[3]));
        assert!(c.reaches(v[0], v[2]));
    }

    #[test]
    fn linking_two_chains_closes_cross_pairs() {
        // a0 -> a1, b0 -> b1; adding a1 -> b0 must order a0 before b1.
        let mut c = Closure::new();
        let v = ids(&mut c, 4);
        c.add_edge(v[0], v[1]).unwrap();
        c.add_edge(v[2], v[3]).unwrap();
        c.add_edge(v[1], v[2]).unwrap();
        assert!(c.reaches(v[0], v[3]));
        assert!(c.reaches(v[0], v[2]));
        assert!(c.reaches(v[1], v[3]));
    }

    #[test]
    fn redundant_edge_reports_no_change() {
        let mut c = Closure::new();
        let v = ids(&mut c, 3);
        c.add_edge(v[0], v[1]).unwrap();
        c.add_edge(v[1], v[2]).unwrap();
        assert_eq!(c.add_edge(v[0], v[2]), Ok(false));
    }

    #[test]
    fn self_edge_is_a_cycle() {
        let mut c = Closure::new();
        let v = ids(&mut c, 1);
        assert!(c.add_edge(v[0], v[0]).is_err());
    }

    #[test]
    fn back_edge_is_detected_and_rolls_back_nothing() {
        let mut c = Closure::new();
        let v = ids(&mut c, 3);
        c.add_edge(v[0], v[1]).unwrap();
        c.add_edge(v[1], v[2]).unwrap();
        let err = c.add_edge(v[2], v[0]).unwrap_err();
        assert_eq!(err.from, v[2]);
        assert_eq!(err.to, v[0]);
        // Order unchanged: still exactly the old pairs.
        assert!(c.reaches(v[0], v[2]));
        assert!(!c.reaches(v[2], v[0]));
        assert!(!c.reaches(v[2], v[1]));
    }

    /// Bulk insertion closes to the same order as one `add_edge` per
    /// edge, over a row-word boundary too, and finds exactly the cycles
    /// incremental insertion would.
    #[test]
    fn bulk_edges_match_incremental_insertion() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % bound as u64) as usize
        };
        for round in 0..200 {
            let n = if round % 4 == 0 { 70 } else { 2 + next(20) };
            let mut base = Closure::new();
            let v = ids(&mut base, n);
            for _ in 0..n {
                let (a, b) = (next(n), next(n));
                let _ = base.add_edge(v[a.min(b)], v[a.max(b)]);
            }
            let batch: Vec<(NodeId, NodeId)> =
                (0..1 + next(n)).map(|_| (v[next(n)], v[next(n)])).collect();
            let mut incremental = base.clone();
            let expected = batch
                .iter()
                .try_for_each(|&(a, b)| incremental.add_edge(a, b).map(drop));
            let mut bulk = base.clone();
            let got = bulk.add_edges(batch.iter().copied());
            assert_eq!(got.is_ok(), expected.is_ok(), "round {round}: {batch:?}");
            if got.is_ok() {
                for &a in &v {
                    assert_eq!(
                        bulk.successors(a).iter().collect::<Vec<_>>(),
                        incremental.successors(a).iter().collect::<Vec<_>>(),
                        "round {round}"
                    );
                    assert_eq!(
                        bulk.predecessors(a).iter().collect::<Vec<_>>(),
                        incremental.predecessors(a).iter().collect::<Vec<_>>(),
                        "round {round}"
                    );
                }
            }
        }
    }

    #[test]
    fn predecessors_and_successors_are_strict() {
        let mut c = Closure::new();
        let v = ids(&mut c, 3);
        c.add_edge(v[0], v[1]).unwrap();
        c.add_edge(v[1], v[2]).unwrap();
        assert_eq!(c.successors(v[0]).iter().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(c.predecessors(v[2]).iter().collect::<Vec<_>>(), vec![0, 1]);
        assert!(!c.successors(v[0]).contains(0));
    }

    #[test]
    fn common_ancestors_and_descendants() {
        // Diamond: r -> a, r -> b, a -> s, b -> s.
        let mut c = Closure::new();
        let v = ids(&mut c, 4);
        let (r, a, b, s) = (v[0], v[1], v[2], v[3]);
        c.add_edge(r, a).unwrap();
        c.add_edge(r, b).unwrap();
        c.add_edge(a, s).unwrap();
        c.add_edge(b, s).unwrap();
        assert_eq!(c.common_ancestors(a, b).iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(
            c.common_descendants(a, b).iter().collect::<Vec<_>>(),
            vec![3]
        );
    }

    #[test]
    fn topological_order_respects_edges() {
        let mut c = Closure::new();
        let v = ids(&mut c, 5);
        c.add_edge(v[3], v[1]).unwrap();
        c.add_edge(v[1], v[4]).unwrap();
        c.add_edge(v[0], v[4]).unwrap();
        let order = c.topological_order();
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(v[3]) < pos(v[1]));
        assert!(pos(v[1]) < pos(v[4]));
        assert!(pos(v[0]) < pos(v[4]));
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn matches_floyd_warshall_on_random_dags() {
        // Reference check: build random edge sets (forward edges only, so
        // acyclic), compare incremental closure with Floyd–Warshall.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for _ in 0..50 {
            let n = rng.gen_range(2..20);
            let mut c = Closure::new();
            let v = ids(&mut c, n);
            let mut direct = vec![vec![false; n]; n];
            for _ in 0..rng.gen_range(0..3 * n) {
                let i = rng.gen_range(0..n - 1);
                let j = rng.gen_range(i + 1..n);
                direct[i][j] = true;
                c.add_edge(v[i], v[j]).unwrap();
            }
            // Floyd–Warshall reachability.
            let mut reach = direct.clone();
            for k in 0..n {
                for i in 0..n {
                    if reach[i][k] {
                        let row_k = reach[k].clone();
                        for (j, &through) in row_k.iter().enumerate() {
                            if through {
                                reach[i][j] = true;
                            }
                        }
                    }
                }
            }
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(
                        c.reaches(v[i], v[j]),
                        reach[i][j],
                        "mismatch at ({i},{j}) with n={n}"
                    );
                }
            }
        }
    }

    /// A clone's matrix is independent storage: edges added to the fork
    /// never appear in the parent, and vice versa.
    #[test]
    fn clone_is_independent_storage() {
        let mut c = Closure::new();
        let v = ids(&mut c, 4);
        c.add_edge(v[0], v[1]).unwrap();

        let mut fork = c.clone();
        fork.add_edge(v[2], v[3]).unwrap();
        c.add_edge(v[1], v[2]).unwrap();

        assert!(fork.reaches(v[2], v[3]));
        assert!(!c.reaches(v[2], v[3]));
        assert!(c.reaches(v[0], v[2]));
        assert!(!fork.reaches(v[0], v[2]));
    }

    /// Mutation-after-fork isolation, exhaustively over a small universe:
    /// for every pair of distinct single edges on 4 nodes, adding one to
    /// the fork never changes what the parent reaches.
    #[test]
    fn fork_mutation_isolation_exhaustive() {
        let n = 4;
        for pi in 0..n {
            for pj in 0..n {
                if pi == pj {
                    continue;
                }
                let mut parent = Closure::new();
                let v = ids(&mut parent, n);
                parent.add_edge(v[pi], v[pj]).unwrap();
                let snapshot: Vec<Vec<bool>> = (0..n)
                    .map(|i| (0..n).map(|j| parent.reaches(v[i], v[j])).collect())
                    .collect();
                for fi in 0..n {
                    for fj in 0..n {
                        if fi == fj {
                            continue;
                        }
                        let mut fork = parent.clone();
                        let _ = fork.add_edge(v[fi], v[fj]); // may be cyclic; irrelevant
                        for i in 0..n {
                            for j in 0..n {
                                assert_eq!(
                                    parent.reaches(v[i], v[j]),
                                    snapshot[i][j],
                                    "fork edge ({fi},{fj}) leaked into parent at ({i},{j})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Merge commutativity: applying the same acyclic edge set to forks
    /// in any order yields the same closed relation.
    #[test]
    fn fork_merge_commutativity() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0xD15C);
        for _ in 0..30 {
            let n = rng.gen_range(3..10);
            let mut base = Closure::new();
            let v = ids(&mut base, n);
            // Seed the base with one edge so forks start non-empty.
            base.add_edge(v[0], v[n - 1]).unwrap();
            let mut edges: Vec<(usize, usize)> = Vec::new();
            for _ in 0..rng.gen_range(1..2 * n) {
                let i = rng.gen_range(0..n - 1);
                let j = rng.gen_range(i + 1..n);
                edges.push((i, j));
            }
            let mut forward = base.clone();
            for &(i, j) in &edges {
                forward.add_edge(v[i], v[j]).unwrap();
            }
            let mut reversed = base.clone();
            for &(i, j) in edges.iter().rev() {
                reversed.add_edge(v[i], v[j]).unwrap();
            }
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(
                        forward.reaches(v[i], v[j]),
                        reversed.reaches(v[i], v[j]),
                        "order-dependent closure at ({i},{j})"
                    );
                }
            }
        }
    }

    /// Row widening at the 64-node boundary preserves the relation and
    /// keeps freshly added nodes unordered.
    #[test]
    fn widening_across_word_boundary_preserves_relation() {
        let mut c = Closure::new();
        let v = ids(&mut c, 63);
        for w in v.windows(2) {
            c.add_edge(w[0], w[1]).unwrap();
        }
        // Crossing 64 and 128 nodes forces two widenings.
        let more = ids(&mut c, 70);
        assert!(c.reaches(v[0], v[62]));
        c.add_edge(v[62], more[69]).unwrap();
        assert!(c.reaches(v[0], more[69]));
        for &m in &more[..69] {
            assert!(!c.ordered(v[0], m), "fresh node unexpectedly ordered");
        }
    }

    #[test]
    fn encode_pairs_is_insertion_order_independent() {
        let relabel: Vec<u32> = (0..3).collect();
        let mut c1 = Closure::new();
        let v1 = ids(&mut c1, 3);
        c1.add_edge(v1[0], v1[1]).unwrap();
        c1.add_edge(v1[1], v1[2]).unwrap();

        let mut c2 = Closure::new();
        let v2 = ids(&mut c2, 3);
        c2.add_edge(v2[1], v2[2]).unwrap();
        c2.add_edge(v2[0], v2[1]).unwrap();
        c2.add_edge(v2[0], v2[2]).unwrap(); // redundant

        let (mut b1, mut b2) = (Vec::new(), Vec::new());
        c1.encode_pairs(&relabel, &mut b1);
        c2.encode_pairs(&relabel, &mut b2);
        assert_eq!(b1, b2);
    }
}
