//! Instruction-reordering axioms: memory models as constraint tables.
//!
//! Paper section 2: a memory model in this framework is parameterized by a
//! table (Figure 1) saying, for every ordered pair of instruction classes in
//! one thread, whether the later instruction may be reordered before the
//! earlier one. The table entries are:
//!
//! * blank — the pair may always be reordered ([`Constraint::Free`]);
//! * `indep` — ordered only by data dependence ([`Constraint::DataOnly`];
//!   operationally identical to `Free` because dataflow execution always
//!   respects data dependencies, but kept distinct so the printed table
//!   matches the paper);
//! * `never` — the pair may never be reordered ([`Constraint::Never`]);
//! * `x ≠ y` — reorderable only when the two memory addresses differ
//!   ([`Constraint::SameAddr`]); the paper has exactly three such entries,
//!   (Load, Store), (Store, Load) and (Store, Store), which keep
//!   single-threaded execution deterministic;
//! * [`Constraint::Bypass`] — the TSO extension of section 6: a later Load
//!   may pass an earlier same-address Store *by observing it early from the
//!   store pipeline*; the resulting "gray" edge does not participate in `@`.
//!
//! The table rows/columns are indexed by [`OpClass`]. A [`Policy`] bundles a
//! table with a name and an address-speculation flag (section 5).

use std::fmt;

/// The five instruction classes of the paper's reordering table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// Arithmetic and logic ("+, etc.").
    Compute,
    /// Conditional branch.
    Branch,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Memory fence.
    Fence,
}

impl OpClass {
    /// All classes, in table order.
    pub const ALL: [OpClass; 5] = [
        OpClass::Compute,
        OpClass::Branch,
        OpClass::Load,
        OpClass::Store,
        OpClass::Fence,
    ];

    /// Dense index of this class within [`OpClass::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        match self {
            OpClass::Compute => 0,
            OpClass::Branch => 1,
            OpClass::Load => 2,
            OpClass::Store => 3,
            OpClass::Fence => 4,
        }
    }

    /// Returns `true` for loads and stores.
    #[inline]
    pub fn is_memory(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::Compute => "+, etc.",
            OpClass::Branch => "Branch",
            OpClass::Load => "L",
            OpClass::Store => "S",
            OpClass::Fence => "Fence",
        };
        f.write_str(s)
    }
}

/// One entry of the reordering table: may instruction pair `(first, second)`
/// (in program order) be reordered?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Constraint {
    /// Blank entry: always reorderable.
    Free,
    /// "indep": ordered only through data dependencies.
    DataOnly,
    /// "never": a local `≺` edge is always inserted.
    Never,
    /// "x ≠ y": a `≺` edge is inserted when the two addresses are equal;
    /// additionally, in a non-speculative execution the later operation
    /// depends on the producer of the earlier operation's address
    /// (section 5.1).
    SameAddr,
    /// TSO store→load: same-address pairs may be satisfied by bypass; the
    /// ordering decision is deferred to load resolution (section 6).
    Bypass,
}

impl Constraint {
    /// Returns `true` when this entry involves address comparison
    /// (`SameAddr` or `Bypass`).
    #[inline]
    pub fn is_address_sensitive(self) -> bool {
        matches!(self, Constraint::SameAddr | Constraint::Bypass)
    }

    /// Syntactic strictness used by [`Policy::combined_constraint`]:
    /// `Never (3) > SameAddr (2) > Bypass (1) > DataOnly/Free (0)`.
    ///
    /// This is the order in which constraints *merge* when an operation
    /// carries several facets; it is not an observational comparison (see
    /// [`Constraint::observational_strength`]).
    #[inline]
    pub fn strength(self) -> u8 {
        match self {
            Constraint::Free | Constraint::DataOnly => 0,
            Constraint::Bypass => 1,
            Constraint::SameAddr => 2,
            Constraint::Never => 3,
        }
    }

    /// Observational strictness for strength-containment comparisons:
    /// `Never (2) > SameAddr = Bypass (1) > DataOnly = Free (0)`.
    ///
    /// `SameAddr` and `Bypass` share a level: both forbid reordering of
    /// different-address pairs never and same-address pairs always in
    /// terms of *observed values* — a bypassed load reads the very value
    /// the ordered load would. (They are not equivalent in general — the
    /// paper's Figure 11 separates real TSO from the naive `x ≠ y`
    /// variant via the store *pipeline* — so this comparison is a
    /// necessary condition checked by the linter, while the dynamic
    /// bracketing tests remain the semantic ground truth.)
    #[inline]
    pub fn observational_strength(self) -> u8 {
        match self {
            Constraint::Free | Constraint::DataOnly => 0,
            Constraint::Bypass | Constraint::SameAddr => 1,
            Constraint::Never => 2,
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Constraint::Free => "",
            Constraint::DataOnly => "indep",
            Constraint::Never => "never",
            Constraint::SameAddr => "x != y",
            Constraint::Bypass => "bypass",
        };
        f.write_str(s)
    }
}

/// A full 5×5 reordering table: `entry(first, second)` constrains a pair
/// where `first` comes earlier in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstraintTable {
    entries: [[Constraint; 5]; 5],
}

impl ConstraintTable {
    /// Builds a table from explicit rows (row = earlier instruction class,
    /// in [`OpClass::ALL`] order).
    pub fn from_rows(entries: [[Constraint; 5]; 5]) -> Self {
        ConstraintTable { entries }
    }

    /// The constraint for the ordered pair `(first, second)`.
    #[inline]
    pub fn entry(&self, first: OpClass, second: OpClass) -> Constraint {
        self.entries[first.index()][second.index()]
    }

    /// Returns a copy with one entry replaced — convenient for building
    /// model variants.
    #[must_use]
    pub fn with_entry(mut self, first: OpClass, second: OpClass, c: Constraint) -> Self {
        self.entries[first.index()][second.index()] = c;
        self
    }

    /// Iterates over every `(first, second, constraint)` cell in
    /// [`OpClass::ALL`] order — row-major, 25 entries.
    pub fn cells(&self) -> impl Iterator<Item = (OpClass, OpClass, Constraint)> + '_ {
        OpClass::ALL.into_iter().flat_map(move |first| {
            OpClass::ALL
                .into_iter()
                .map(move |second| (first, second, self.entry(first, second)))
        })
    }

    /// Entry-wise observational containment over the memory-relevant
    /// cells (both classes among Load/Store/Fence): `true` when this
    /// table forbids at least as much reordering as `weaker` on every
    /// such cell, per [`Constraint::observational_strength`].
    ///
    /// Branch and compute cells are excluded — they govern speculation
    /// depth, not memory ordering, and differ benignly across the shipped
    /// chain (e.g. TSO frees `(Store, Branch)` so buffered stores can
    /// drain past branches).
    pub fn at_least_as_strong(&self, weaker: &ConstraintTable) -> bool {
        self.cells().all(|(first, second, mine)| {
            let memory_cell = matches!(first, OpClass::Load | OpClass::Store | OpClass::Fence)
                && matches!(second, OpClass::Load | OpClass::Store | OpClass::Fence);
            !memory_cell
                || mine.observational_strength()
                    >= weaker.entry(first, second).observational_strength()
        })
    }
}

impl fmt::Display for ConstraintTable {
    /// Renders the table in the layout of the paper's Figure 1.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<10}", "1st\\2nd")?;
        for c in OpClass::ALL {
            write!(f, "|{:^9}", c.to_string())?;
        }
        writeln!(f)?;
        for first in OpClass::ALL {
            write!(f, "{:<10}", first.to_string())?;
            for second in OpClass::ALL {
                write!(f, "|{:^9}", self.entry(first, second).to_string())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A complete memory-model definition: a reordering table plus the
/// speculation mode.
///
/// Use the provided constructors for the models studied in the paper, or
/// [`Policy::custom`] to experiment ("it is easy to experiment with a broad
/// range of memory models simply by changing the requirements for
/// instruction reordering", section 8).
///
/// # Examples
///
/// ```
/// use samm_core::policy::{Constraint, OpClass, Policy};
///
/// let weak = Policy::weak();
/// assert_eq!(
///     weak.constraint(OpClass::Store, OpClass::Store),
///     Constraint::SameAddr
/// );
/// let spec = weak.with_alias_speculation(true);
/// assert!(spec.alias_speculation());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Policy {
    name: String,
    table: ConstraintTable,
    alias_speculation: bool,
}

impl Policy {
    /// The paper's running example: the weak model of Figure 1, similar in
    /// spirit to PowerPC / SPARC RMO.
    ///
    /// Table notes (the published figure is reconstructed faithfully):
    /// exactly three `x ≠ y` entries — (L,S), (S,L), (S,S); `never` between
    /// every load/store and a fence in both directions; and `never` between
    /// stores and branches in both directions, so stores never cross an
    /// unresolved branch ("Stores after a speculative branch are not made
    /// visible until the speculation is resolved").
    pub fn weak() -> Self {
        use Constraint::{DataOnly as D, Free as F, Never as N, SameAddr as A};
        Policy {
            name: "Weak".to_owned(),
            table: ConstraintTable::from_rows([
                // second:  +  Branch  L  S  Fence      first:
                [D, D, D, D, F], // +, etc.
                [F, F, F, N, F], // Branch
                [D, D, F, A, N], // L y
                [D, N, A, A, N], // S y,w
                [F, F, N, N, F], // Fence
            ]),
            alias_speculation: false,
        }
    }

    /// Sequential Consistency: serializations respect full program order
    /// (Lamport). Every pair of branch/load/store/fence instructions is
    /// `never`-reorderable; compute instructions are ordered by data only.
    pub fn sequential_consistency() -> Self {
        use Constraint::{DataOnly as D, Never as N};
        let mut rows = [[N; 5]; 5];
        for (i, row) in rows.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                if i == OpClass::Compute.index() || j == OpClass::Compute.index() {
                    *cell = D;
                }
            }
        }
        Policy {
            name: "SC".to_owned(),
            table: ConstraintTable::from_rows(rows),
            alias_speculation: false,
        }
    }

    /// Total Store Order with the correct store-buffer bypass of section 6:
    /// the only relaxation over SC is that a later load may pass an earlier
    /// store; a same-address store→load pair is resolved by bypass (gray
    /// edge, excluded from `@`).
    ///
    /// A buffered store also passes later *branches* (the store drains
    /// whenever the bus allows, regardless of control flow), so
    /// `(Store, Branch)` is unconstrained — otherwise the chain
    /// `S ≺ branch ≺ L` would smuggle a store→load ordering back in.
    /// Branches still never pass stores the other way (no speculative
    /// stores).
    pub fn tso() -> Self {
        let mut p = Policy::sequential_consistency();
        p.name = "TSO".to_owned();
        p.table = p
            .table
            .with_entry(OpClass::Store, OpClass::Load, Constraint::Bypass)
            .with_entry(OpClass::Store, OpClass::Branch, Constraint::Free);
        p
    }

    /// The *incorrect* TSO variant of Figure 11 (center): store→load
    /// reordering is simply allowed, with an ordinary `x ≠ y` same-address
    /// edge and no bypass. This model forbids executions real TSO allows —
    /// it is included to reproduce the paper's demonstration that "simple
    /// globally-applicable reordering rules cannot precisely capture" TSO.
    pub fn naive_tso() -> Self {
        let mut p = Policy::sequential_consistency();
        p.name = "NaiveTSO".to_owned();
        p.table = p
            .table
            .with_entry(OpClass::Store, OpClass::Load, Constraint::SameAddr)
            .with_entry(OpClass::Store, OpClass::Branch, Constraint::Free);
        p
    }

    /// Partial Store Order: TSO plus store→store reordering to different
    /// addresses (per-address store FIFOs). An extension model used to
    /// bracket TSO between SC and the weak model.
    pub fn pso() -> Self {
        let mut p = Policy::tso();
        p.name = "PSO".to_owned();
        p.table = p
            .table
            .with_entry(OpClass::Store, OpClass::Store, Constraint::SameAddr);
        p
    }

    /// A custom model from an explicit table.
    pub fn custom(name: impl Into<String>, table: ConstraintTable) -> Self {
        Policy {
            name: name.into(),
            table,
            alias_speculation: false,
        }
    }

    /// Returns a copy with address-aliasing speculation switched on or off
    /// (paper section 5).
    ///
    /// Non-speculative executions insert the subtle ordering dependency from
    /// the producer of each earlier potentially-aliasing operation's address
    /// (the `L6 ≺ L8` edge of Figure 9); speculative executions omit it and
    /// instead roll back forks that turn out to violate Store Atomicity.
    #[must_use]
    pub fn with_alias_speculation(mut self, enabled: bool) -> Self {
        self.alias_speculation = enabled;
        if enabled && !self.name.ends_with("+spec") {
            self.name.push_str("+spec");
        }
        self
    }

    /// The model's display name ("SC", "TSO", "Weak", "Weak+spec", ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The reordering table.
    pub fn table(&self) -> &ConstraintTable {
        &self.table
    }

    /// The constraint for a program-ordered pair of instruction classes.
    #[inline]
    pub fn constraint(&self, first: OpClass, second: OpClass) -> Constraint {
        self.table.entry(first, second)
    }

    /// Whether address-aliasing speculation is enabled.
    #[inline]
    pub fn alias_speculation(&self) -> bool {
        self.alias_speculation
    }

    /// The strongest constraint over all facet combinations of two
    /// (possibly composite) operations — e.g. an atomic RMW carries both
    /// `[Load, Store]` facets. Strictness order:
    /// `Never > SameAddr > Bypass > DataOnly/Free`.
    pub fn combined_constraint(&self, first: &[OpClass], second: &[OpClass]) -> Constraint {
        let mut strongest = Constraint::Free;
        for &a in first {
            for &b in second {
                let c = self.constraint(a, b);
                strongest = match (strongest, c) {
                    (_, Constraint::Never) | (Constraint::Never, _) => Constraint::Never,
                    (_, Constraint::SameAddr) | (Constraint::SameAddr, _) => Constraint::SameAddr,
                    (_, Constraint::Bypass) | (Constraint::Bypass, _) => Constraint::Bypass,
                    _ => strongest,
                };
            }
        }
        strongest
    }

    /// Whether this model's table is observationally at least as strong
    /// as `weaker`'s on every memory-relevant cell; see
    /// [`ConstraintTable::at_least_as_strong`]. The shipped chain
    /// satisfies `SC ⊒ TSO ⊒ PSO ⊒ Weak`.
    pub fn at_least_as_strong(&self, weaker: &Policy) -> bool {
        self.table.at_least_as_strong(&weaker.table)
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:", self.name)?;
        write!(f, "{}", self.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Constraint::*;

    #[test]
    fn weak_table_matches_figure_1() {
        let p = Policy::weak();
        use OpClass::*;
        // The three x != y entries.
        assert_eq!(p.constraint(Load, Store), SameAddr);
        assert_eq!(p.constraint(Store, Load), SameAddr);
        assert_eq!(p.constraint(Store, Store), SameAddr);
        // Load-load to the same address is NOT constrained in the figure.
        assert_eq!(p.constraint(Load, Load), Free);
        // Fences order against all loads and stores, both directions.
        assert_eq!(p.constraint(Load, Fence), Never);
        assert_eq!(p.constraint(Store, Fence), Never);
        assert_eq!(p.constraint(Fence, Load), Never);
        assert_eq!(p.constraint(Fence, Store), Never);
        // Fence-fence is unconstrained (ordered transitively in practice).
        assert_eq!(p.constraint(Fence, Fence), Free);
        // Stores may not cross branches in either direction.
        assert_eq!(p.constraint(Branch, Store), Never);
        assert_eq!(p.constraint(Store, Branch), Never);
        // Loads speculate past branches.
        assert_eq!(p.constraint(Branch, Load), Free);
        // Compute rows are data-only.
        assert_eq!(p.constraint(Compute, Store), DataOnly);
        assert_eq!(p.constraint(Load, Compute), DataOnly);
    }

    #[test]
    fn weak_has_exactly_three_same_addr_entries() {
        let p = Policy::weak();
        let mut count = 0;
        for &a in &OpClass::ALL {
            for &b in &OpClass::ALL {
                if p.constraint(a, b) == SameAddr {
                    count += 1;
                }
            }
        }
        assert_eq!(count, 3);
    }

    #[test]
    fn sc_orders_all_memory_pairs() {
        let p = Policy::sequential_consistency();
        use OpClass::*;
        for a in [Branch, Load, Store, Fence] {
            for b in [Branch, Load, Store, Fence] {
                assert_eq!(p.constraint(a, b), Never, "{a} then {b}");
            }
        }
        assert_eq!(p.constraint(Compute, Load), DataOnly);
        assert_eq!(p.constraint(Store, Compute), DataOnly);
        assert!(p.table().cells().all(|(_, _, c)| c != Bypass));
    }

    #[test]
    fn tso_relaxes_only_store_load() {
        let p = Policy::tso();
        use OpClass::*;
        assert_eq!(p.constraint(Store, Load), Bypass);
        assert_eq!(p.constraint(Load, Store), Never);
        assert_eq!(p.constraint(Store, Store), Never);
        assert_eq!(p.constraint(Load, Load), Never);
        // Buffered stores pass later branches; branches never pass stores.
        assert_eq!(p.constraint(Store, Branch), Free);
        assert_eq!(p.constraint(Branch, Store), Never);
    }

    #[test]
    fn naive_tso_uses_plain_same_addr_edge() {
        let p = Policy::naive_tso();
        assert_eq!(p.constraint(OpClass::Store, OpClass::Load), SameAddr);
        assert!(p.table().cells().all(|(_, _, c)| c != Bypass));
    }

    #[test]
    fn pso_also_relaxes_store_store() {
        let p = Policy::pso();
        assert_eq!(p.constraint(OpClass::Store, OpClass::Store), SameAddr);
        assert_eq!(p.constraint(OpClass::Store, OpClass::Load), Bypass);
    }

    #[test]
    fn speculation_flag_renames_model() {
        let p = Policy::weak().with_alias_speculation(true);
        assert!(p.alias_speculation());
        assert_eq!(p.name(), "Weak+spec");
        // Toggling twice does not double the suffix.
        let p2 = p.clone().with_alias_speculation(true);
        assert_eq!(p2.name(), "Weak+spec");
    }

    #[test]
    fn table_display_resembles_figure_1() {
        let s = Policy::weak().table().to_string();
        assert!(s.contains("never"));
        assert!(s.contains("x != y"));
        assert!(s.contains("+, etc."));
        // Five data rows plus the header.
        assert_eq!(s.lines().count(), 6);
    }

    #[test]
    fn with_entry_replaces_single_cell() {
        let t = Policy::weak()
            .table()
            .with_entry(OpClass::Load, OpClass::Load, Never);
        assert_eq!(t.entry(OpClass::Load, OpClass::Load), Never);
        // Everything else untouched.
        assert_eq!(t.entry(OpClass::Load, OpClass::Store), SameAddr);
    }

    #[test]
    fn op_class_index_round_trips() {
        for (i, c) in OpClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert!(OpClass::Load.is_memory());
        assert!(OpClass::Store.is_memory());
        assert!(!OpClass::Fence.is_memory());
    }

    #[test]
    fn constraint_address_sensitivity() {
        assert!(SameAddr.is_address_sensitive());
        assert!(Bypass.is_address_sensitive());
        assert!(!Never.is_address_sensitive());
        assert!(!Free.is_address_sensitive());
    }

    #[test]
    fn cells_visits_all_25_entries_in_row_major_order() {
        let t = *Policy::weak().table();
        let cells: Vec<_> = t.cells().collect();
        assert_eq!(cells.len(), 25);
        assert_eq!(cells[0], (OpClass::Compute, OpClass::Compute, DataOnly));
        assert_eq!(
            cells[OpClass::Store.index() * 5 + OpClass::Load.index()],
            (OpClass::Store, OpClass::Load, SameAddr)
        );
    }

    #[test]
    fn shipped_chain_is_monotonically_strong() {
        let chain = [
            Policy::sequential_consistency(),
            Policy::tso(),
            Policy::pso(),
            Policy::weak(),
        ];
        for pair in chain.windows(2) {
            assert!(
                pair[0].at_least_as_strong(&pair[1]),
                "{} should be at least as strong as {}",
                pair[0].name(),
                pair[1].name()
            );
        }
        // The weak model is strictly weaker than SC, not just incomparable.
        assert!(!Policy::weak().at_least_as_strong(&Policy::sequential_consistency()));
    }

    #[test]
    fn strength_orders_match_combined_constraint_merge() {
        assert!(Never.strength() > SameAddr.strength());
        assert!(SameAddr.strength() > Bypass.strength());
        assert!(Bypass.strength() > Free.strength());
        assert_eq!(Free.strength(), DataOnly.strength());
        // Observationally, bypass and the x != y edge coincide.
        assert_eq!(
            Bypass.observational_strength(),
            SameAddr.observational_strength()
        );
    }

    #[test]
    fn custom_policy_keeps_name_and_table() {
        let t = ConstraintTable::from_rows([[Free; 5]; 5]);
        let p = Policy::custom("anything-goes", t);
        assert_eq!(p.name(), "anything-goes");
        assert_eq!(p.constraint(OpClass::Store, OpClass::Store), Free);
    }
}
