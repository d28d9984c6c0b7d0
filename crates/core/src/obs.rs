//! Observability: enumeration counters and per-phase timings.
//!
//! The enumerators answer "which behaviours exist"; this module answers
//! *how much work* finding them took. [`Obs`] is a block of relaxed
//! atomic counters shared (via `Arc`) by every fork of a
//! [`crate::exec::Behavior`]. It counts closure-rule applications by
//! rule (a/b/c of the paper's Figure 6), closure rounds and
//! `candidates(L)` queries, and, when timed, accumulates wall-clock
//! nanos per enumeration phase.
//!
//! [`Observe`] sets the level a run collects
//! ([`crate::enumerate::EnumConfig::observe`]):
//!
//! * [`Observe::Off`] attaches no block: every site is one pointer-null
//!   check;
//! * [`Observe::Count`] keeps the counters and reads no clock: a phase
//!   site costs one more branch on the block's timing switch;
//! * [`Observe::Timed`] also reads the clock around the closure, settle
//!   and resolve phases, about eight reads per fork.
//!
//! The counters are the same at both enabled levels. Experiment E19
//! measures the cost of each level.
//!
//! There is no engine event stream. *Which* `(load, store)` resolutions
//! produced a behaviour is answered by the pruned stream's path table
//! ([`crate::pruned::stream`] and [`crate::pruned::PrunedStream::path_to`]),
//! the one input [`crate::explain`] needs for witnesses; the pruned
//! engine's claim counts are [`crate::enumerate::EnumStats`]'s `forks`
//! and `deduped`, and [`crate::pruned::PruneStats`] adds `in_place`.
//!
//! No external dependencies: the JSON emitted by [`ObsStats::to_json`]
//! is hand-rolled (flat objects of unsigned integers only).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How much instrumentation a run collects.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Observe {
    /// None: [`crate::enumerate::EnumStats::obs`] stays `None`.
    #[default]
    Off,
    /// The counters, with every `*_nanos` timing left at 0.
    Count,
    /// The counters and the per-phase wall-clock timings.
    Timed,
}

impl Observe {
    /// Whether the run keeps the counters (and so reports an
    /// [`ObsStats`]).
    pub fn counts(self) -> bool {
        self != Observe::Off
    }
}

/// `true` is [`Observe::Timed`], `false` is [`Observe::Off`].
impl From<bool> for Observe {
    fn from(enabled: bool) -> Self {
        if enabled {
            Observe::Timed
        } else {
            Observe::Off
        }
    }
}

/// Live atomic counters, shared by every fork of an instrumented
/// enumeration. All updates use [`Ordering::Relaxed`]: the counters are
/// statistics, not synchronization.
#[derive(Debug, Default)]
pub struct Obs {
    /// Store Atomicity rule-a edge insertions (Figure 6 left).
    pub rule_a: AtomicU64,
    /// Store Atomicity rule-b edge insertions (Figure 6 middle).
    pub rule_b: AtomicU64,
    /// Store Atomicity rule-c edge insertions (Figure 6 right).
    pub rule_c: AtomicU64,
    /// Fixpoint rounds executed by [`crate::atomicity::enforce`].
    pub closure_rounds: AtomicU64,
    /// Calls to [`crate::candidates::candidates`] made by the fork loops.
    pub candidate_calls: AtomicU64,
    /// Total candidate stores those calls returned (i.e. forks offered).
    pub candidate_stores: AtomicU64,
    /// Nanoseconds inside the Store Atomicity closure.
    pub closure_nanos: AtomicU64,
    /// Nanoseconds inside [`crate::exec::Behavior::settle`], excluding
    /// the closure time of the calls it makes (that is in
    /// `closure_nanos`).
    pub settle_nanos: AtomicU64,
    /// Nanoseconds inside [`crate::exec::Behavior::resolve_load`],
    /// excluding the closure time of the calls it makes.
    pub resolve_nanos: AtomicU64,
    /// Whether the phase sites read the clock.
    timed: bool,
}

impl Obs {
    /// Fresh zeroed counters that read no clock.
    pub fn new() -> Self {
        Obs::default()
    }

    /// Fresh zeroed counters with the phase timers on.
    pub fn timed() -> Self {
        Obs {
            timed: true,
            ..Obs::default()
        }
    }

    /// Whether the phase timers are on.
    #[inline]
    pub fn is_timed(&self) -> bool {
        self.timed
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds the six counters of `stats` to these and leaves the timers
    /// alone: statistics that came through the cache carry no timings.
    pub fn add_counters(&self, stats: &ObsStats) {
        Obs::add(&self.rule_a, stats.rule_a);
        Obs::add(&self.rule_b, stats.rule_b);
        Obs::add(&self.rule_c, stats.rule_c);
        Obs::add(&self.closure_rounds, stats.closure_rounds);
        Obs::add(&self.candidate_calls, stats.candidate_calls);
        Obs::add(&self.candidate_stores, stats.candidate_stores);
    }

    /// Starts timing a phase that may run the closure: the clock and
    /// the closure time recorded so far, or `None` without reading the
    /// clock when the timers are off. Pair with [`Obs::end_phase`].
    #[inline]
    pub fn start_phase(&self) -> Option<(Instant, u64)> {
        self.timed
            .then(|| (Instant::now(), self.closure_nanos.load(Ordering::Relaxed)))
    }

    /// Adds the time since `start` to `counter`, less the closure time
    /// recorded meanwhile, so the closure, settle and resolve timers
    /// are disjoint. A run owns its `Obs` and runs on one thread, so
    /// the closure delta is this phase's own.
    pub fn end_phase(&self, counter: &AtomicU64, (started, closure_before): (Instant, u64)) {
        let elapsed = started.elapsed().as_nanos() as u64;
        let closure = self.closure_nanos.load(Ordering::Relaxed) - closure_before;
        Obs::add(counter, elapsed.saturating_sub(closure));
    }

    /// A point-in-time plain-value snapshot.
    pub fn snapshot(&self) -> ObsStats {
        ObsStats {
            rule_a: self.rule_a.load(Ordering::Relaxed),
            rule_b: self.rule_b.load(Ordering::Relaxed),
            rule_c: self.rule_c.load(Ordering::Relaxed),
            closure_rounds: self.closure_rounds.load(Ordering::Relaxed),
            candidate_calls: self.candidate_calls.load(Ordering::Relaxed),
            candidate_stores: self.candidate_stores.load(Ordering::Relaxed),
            closure_nanos: self.closure_nanos.load(Ordering::Relaxed),
            settle_nanos: self.settle_nanos.load(Ordering::Relaxed),
            resolve_nanos: self.resolve_nanos.load(Ordering::Relaxed),
        }
    }
}

/// A serializable snapshot of [`Obs`], carried on
/// [`crate::enumerate::EnumStats::obs`] when instrumentation is on.
///
/// The counter fields are deterministic for a fixed program/policy/config
/// (both engines apply the same closure to the same fork set); the
/// `*_nanos` timings are wall-clock and vary run to run, and are 0 on
/// an [`Observe::Count`] run. The three timings are disjoint, so their
/// sum never exceeds the run's wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsStats {
    /// Rule-a edge insertions.
    pub rule_a: u64,
    /// Rule-b edge insertions.
    pub rule_b: u64,
    /// Rule-c edge insertions.
    pub rule_c: u64,
    /// Closure fixpoint rounds.
    pub closure_rounds: u64,
    /// `candidates(L)` queries.
    pub candidate_calls: u64,
    /// Candidate stores returned across all queries.
    pub candidate_stores: u64,
    /// Nanoseconds inside the Store Atomicity closure.
    pub closure_nanos: u64,
    /// Nanoseconds inside `settle`, excluding its closure time.
    pub settle_nanos: u64,
    /// Nanoseconds inside `resolve_load`, excluding its closure time.
    pub resolve_nanos: u64,
}

impl ObsStats {
    /// Renders the snapshot as a flat JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule_a\":{},\"rule_b\":{},\"rule_c\":{},\"closure_rounds\":{},\
             \"candidate_calls\":{},\"candidate_stores\":{},\"closure_nanos\":{},\
             \"settle_nanos\":{},\"resolve_nanos\":{}}}",
            self.rule_a,
            self.rule_b,
            self.rule_c,
            self.closure_rounds,
            self.candidate_calls,
            self.candidate_stores,
            self.closure_nanos,
            self.settle_nanos,
            self.resolve_nanos,
        )
    }

    /// The counter fields only, with timings zeroed — the deterministic
    /// part suitable for cross-engine and cross-run comparison.
    pub fn counters(&self) -> ObsStats {
        ObsStats {
            closure_nanos: 0,
            settle_nanos: 0,
            resolve_nanos: 0,
            ..*self
        }
    }

    /// Total closure-rule edge insertions (a + b + c).
    pub fn rule_edges(&self) -> u64 {
        self.rule_a + self.rule_b + self.rule_c
    }
}

impl fmt::Display for ObsStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rules a/b/c {}/{}/{} over {} rounds, {} candidate queries \
             yielding {} stores, closure {}µs, settle {}µs, resolve {}µs",
            self.rule_a,
            self.rule_b,
            self.rule_c,
            self.closure_rounds,
            self.candidate_calls,
            self.candidate_stores,
            self.closure_nanos / 1_000,
            self.settle_nanos / 1_000,
            self.resolve_nanos / 1_000,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_adds() {
        let obs = Obs::new();
        Obs::add(&obs.rule_a, 2);
        Obs::add(&obs.rule_c, 1);
        Obs::add(&obs.closure_rounds, 3);
        let snap = obs.snapshot();
        assert_eq!(snap.rule_a, 2);
        assert_eq!(snap.rule_b, 0);
        assert_eq!(snap.rule_c, 1);
        assert_eq!(snap.rule_edges(), 3);
        assert_eq!(snap.closure_rounds, 3);
    }

    #[test]
    fn only_a_timed_block_reads_the_clock() {
        let counted = Obs::new();
        assert!(!counted.is_timed());
        assert!(counted.start_phase().is_none());
        let timed = Obs::timed();
        assert!(timed.is_timed());
        let start = timed.start_phase().expect("a timed block starts phases");
        timed.end_phase(&timed.settle_nanos, start);
        assert_eq!(timed.snapshot().closure_nanos, 0);
        assert!(Observe::Timed.counts() && Observe::Count.counts());
        assert!(!Observe::Off.counts());
        assert_eq!(Observe::from(true), Observe::Timed);
        assert_eq!(Observe::from(false), Observe::Off);
    }

    #[test]
    fn counters_zeroes_timings() {
        let snap = ObsStats {
            rule_a: 1,
            closure_nanos: 99,
            settle_nanos: 7,
            resolve_nanos: 3,
            ..ObsStats::default()
        };
        let counters = snap.counters();
        assert_eq!(counters.rule_a, 1);
        assert_eq!(counters.closure_nanos, 0);
        assert_eq!(counters.settle_nanos, 0);
        assert_eq!(counters.resolve_nanos, 0);
    }

    #[test]
    fn json_is_flat_and_complete() {
        let json = ObsStats::default().to_json();
        for key in [
            "rule_a",
            "rule_b",
            "rule_c",
            "closure_rounds",
            "candidate_calls",
            "candidate_stores",
            "closure_nanos",
            "settle_nanos",
            "resolve_nanos",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
    }
}
