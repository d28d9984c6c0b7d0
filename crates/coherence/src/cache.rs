//! Private L1 cache with MESI line states.
//!
//! Caches are unbounded (litmus working sets are a handful of lines), so
//! there are no capacity evictions — lines change state only through the
//! protocol. Each line tracks the id of the store event that produced its
//! data, which is how the simulator reconstructs `source(L)` for the
//! Store Atomicity check.

use std::collections::BTreeMap;

use samm_core::ids::{Addr, Value};

use crate::msg::WriterId;

/// Stable MESI states of a cached line (Invalid lines are simply absent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Read-only shared copy.
    Shared,
    /// Sole clean copy: readable, and writable after a *silent* upgrade to
    /// Modified — the E state's entire point is that the upgrade needs no
    /// protocol traffic.
    Exclusive,
    /// Exclusive owned, possibly dirty.
    Modified,
}

/// A cached line: state plus the data and its producing store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line {
    /// MESI state (absent lines are Invalid).
    pub state: LineState,
    /// Line contents.
    pub value: Value,
    /// Store event that wrote the value (`None` = initial memory).
    pub writer: WriterId,
}

/// A private L1 cache.
#[derive(Debug, Clone, Default)]
pub struct L1Cache {
    lines: BTreeMap<Addr, Line>,
}

impl L1Cache {
    /// Creates an empty cache (all lines Invalid).
    pub fn new() -> Self {
        L1Cache::default()
    }

    /// The line for `addr`, if present (Invalid lines are absent).
    pub fn line(&self, addr: Addr) -> Option<&Line> {
        self.lines.get(&addr)
    }

    /// Whether a load can hit: any valid copy.
    pub fn can_read(&self, addr: Addr) -> bool {
        self.lines.contains_key(&addr)
    }

    /// Whether a store can hit: requires ownership (Exclusive lines count —
    /// they upgrade silently on write).
    pub fn can_write(&self, addr: Addr) -> bool {
        matches!(
            self.lines.get(&addr),
            Some(Line {
                state: LineState::Modified | LineState::Exclusive,
                ..
            })
        )
    }

    /// Reads a valid line.
    ///
    /// # Panics
    ///
    /// Panics when the line is Invalid — callers must check
    /// [`L1Cache::can_read`] first.
    pub fn read(&self, addr: Addr) -> (Value, WriterId) {
        let line = self.lines.get(&addr).expect("read of invalid line");
        (line.value, line.writer)
    }

    /// Writes an owned line; an Exclusive line silently upgrades to
    /// Modified.
    ///
    /// # Panics
    ///
    /// Panics when the line is Shared or Invalid.
    pub fn write(&mut self, addr: Addr, value: Value, writer: WriterId) {
        let line = self.lines.get_mut(&addr).expect("write of invalid line");
        assert!(
            matches!(line.state, LineState::Modified | LineState::Exclusive),
            "write requires ownership"
        );
        line.state = LineState::Modified;
        line.value = value;
        line.writer = writer;
    }

    /// Installs a line in the given state (protocol fill).
    pub fn install(&mut self, addr: Addr, state: LineState, value: Value, writer: WriterId) {
        self.lines.insert(
            addr,
            Line {
                state,
                value,
                writer,
            },
        );
    }

    /// Downgrades an owned line to Shared (M→S on FwdGetS), returning its
    /// data for the writeback.
    ///
    /// # Panics
    ///
    /// Panics when the line is not Modified.
    pub fn downgrade(&mut self, addr: Addr) -> (Value, WriterId) {
        let line = self
            .lines
            .get_mut(&addr)
            .expect("downgrade of invalid line");
        assert!(matches!(
            line.state,
            LineState::Modified | LineState::Exclusive
        ));
        line.state = LineState::Shared;
        (line.value, line.writer)
    }

    /// Drops a line (invalidation). Returns the data if the line was
    /// owned (the FwdGetM case, where data travels to the requester).
    pub fn invalidate(&mut self, addr: Addr) -> Option<(Value, WriterId)> {
        match self.lines.remove(&addr) {
            Some(Line {
                state: LineState::Modified | LineState::Exclusive,
                value,
                writer,
            }) => Some((value, writer)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Addr = Addr::new(1);

    #[test]
    fn invalid_lines_do_not_hit() {
        let c = L1Cache::new();
        assert!(!c.can_read(A));
        assert!(!c.can_write(A));
        assert!(c.line(A).is_none());
    }

    #[test]
    fn shared_lines_read_but_do_not_write() {
        let mut c = L1Cache::new();
        c.install(A, LineState::Shared, Value::new(5), Some(3));
        assert!(c.can_read(A));
        assert!(!c.can_write(A));
        assert_eq!(c.read(A), (Value::new(5), Some(3)));
    }

    #[test]
    fn modified_lines_write_and_track_writer() {
        let mut c = L1Cache::new();
        c.install(A, LineState::Modified, Value::new(5), None);
        assert!(c.can_write(A));
        c.write(A, Value::new(9), Some(11));
        assert_eq!(c.read(A), (Value::new(9), Some(11)));
    }

    #[test]
    fn downgrade_keeps_data_and_shares() {
        let mut c = L1Cache::new();
        c.install(A, LineState::Modified, Value::new(9), Some(1));
        let (v, w) = c.downgrade(A);
        assert_eq!((v, w), (Value::new(9), Some(1)));
        assert!(c.can_read(A));
        assert!(!c.can_write(A));
    }

    #[test]
    fn invalidate_returns_owned_data_only() {
        let mut c = L1Cache::new();
        c.install(A, LineState::Shared, Value::new(2), None);
        assert_eq!(c.invalidate(A), None);
        assert!(!c.can_read(A));
        c.install(A, LineState::Modified, Value::new(3), Some(7));
        assert_eq!(c.invalidate(A), Some((Value::new(3), Some(7))));
    }

    #[test]
    #[should_panic(expected = "ownership")]
    fn writing_a_shared_line_panics() {
        let mut c = L1Cache::new();
        c.install(A, LineState::Shared, Value::ZERO, None);
        c.write(A, Value::new(1), Some(0));
    }
}
