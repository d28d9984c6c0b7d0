//! Executable conformance harness over the catalog.
//!
//! [`run_entry`] enumerates a catalog test under every model its verdicts
//! mention and compares observability of each condition against the
//! expected verdict — turning the paper's prose claims ("L6 cannot observe
//! S1") into pass/fail rows. The `experiments` binary of `samm-bench`
//! prints these rows as the reproduction record.
//!
//! Every harness entry point enumerates with the production engine,
//! [`enumerate_pruned`]. [`run_entry_serial`] runs the same harness on
//! the serial oracle ([`enumerate`]) for differential checks.
//!
//! One entry runs the engine once per [`TableView`]: models whose
//! tables agree on every cell the program reaches run the same search,
//! so the later ones reuse the first one's answer (a certified model
//! runs as SC). Runs are keyed by
//! [`view_fingerprint`], the cache's own key, so a cached harness makes
//! one cache lookup per view.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use samm_core::cache::{CachedResult, EnumCache};
use samm_core::enumerate::{enumerate, EnumConfig, EnumResult, EnumStats};
use samm_core::error::EnumError;
use samm_core::fingerprint::{view_fingerprint, Fingerprint};
use samm_core::instr::Program;
use samm_core::policy::Policy;
use samm_core::pruned::enumerate_pruned;
use samm_core::static_order::{thread_events, TableView, ThreadEvents};

use crate::catalog::{CatalogEntry, ModelSel};

/// An enumeration engine: the pruned [`enumerate_pruned`] or the serial
/// oracle [`enumerate`].
type Engine = fn(&Program, &Policy, &EnumConfig) -> Result<EnumResult, EnumError>;

/// An SC-equivalence certifier: returns `true` when it can prove the
/// program's behaviour set under the given (weak) policy equals its SC
/// behaviour set, licensing the harness to reuse a single SC enumeration
/// instead of enumerating under the weak model. `samm-analyze` provides
/// the static DRF/total-order certifier; `|_, _| false` disables the
/// short-circuit.
pub type Certifier<'a> = &'a dyn Fn(&Program, &Policy) -> bool;

/// One evaluated verdict.
#[derive(Debug, Clone)]
pub struct VerdictRow {
    /// The model evaluated.
    pub model: ModelSel,
    /// Condition text (`P0:r0=0 & P1:r0=0`).
    pub condition: String,
    /// Whether the paper/catalog expects the condition observable.
    pub expected_allowed: bool,
    /// Whether enumeration observed it.
    pub observed_allowed: bool,
    /// Total distinct outcomes under the model.
    pub outcomes: usize,
    /// Total distinct executions under the model.
    pub executions: usize,
    /// `true` when this row was answered by an SC-equivalence
    /// certificate instead of a fresh enumeration under the model: the
    /// outcome set (and the reported counts) are the SC run's.
    pub certified: bool,
    /// `true` when the enumeration behind this row was answered from the
    /// content-addressed [`EnumCache`] instead of running fresh (only
    /// possible via [`run_entry_cached`] and friends).
    pub cache_hit: bool,
    /// `true` on exactly one row per engine run the call made: the first
    /// row that run answered. Rows of models with the same
    /// [`TableView`], and certified rows, share a run, so folding the
    /// `stats` of these rows counts every run once.
    pub fresh_run: bool,
    /// Statistics of the enumeration that answered this row. For
    /// [certified](VerdictRow::certified) rows these are the SC run's
    /// stats. With [`EnumConfig::observe`] set they carry an
    /// [`samm_core::obs::ObsStats`] snapshot in
    /// [`EnumStats::obs`].
    pub stats: EnumStats,
}

impl VerdictRow {
    /// Whether observation matched expectation.
    pub fn pass(&self) -> bool {
        self.expected_allowed == self.observed_allowed
    }
}

impl fmt::Display for VerdictRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {:9} {:7} {} (expected {}, {} outcomes, {} executions)",
            if self.pass() { "ok" } else { "FAIL" },
            self.model.name(),
            if self.observed_allowed {
                "allowed"
            } else {
                "forbidden"
            },
            self.condition,
            if self.expected_allowed {
                "allowed"
            } else {
                "forbidden"
            },
            self.outcomes,
            self.executions,
        )?;
        if self.certified {
            write!(f, " [certified SC-equivalent]")?;
        }
        if self.cache_hit {
            write!(f, " [cached]")?;
        }
        Ok(())
    }
}

/// All evaluated verdicts of one catalog entry.
#[derive(Debug, Clone)]
pub struct EntryReport {
    /// Test name.
    pub name: String,
    /// One row per verdict, in catalog order.
    pub rows: Vec<VerdictRow>,
}

impl EntryReport {
    /// Whether every verdict matched.
    pub fn all_pass(&self) -> bool {
        self.rows.iter().all(VerdictRow::pass)
    }

    /// The failing rows, if any.
    pub fn failures(&self) -> Vec<&VerdictRow> {
        self.rows.iter().filter(|r| !r.pass()).collect()
    }
}

impl fmt::Display for EntryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:", self.name)?;
        for row in &self.rows {
            writeln!(f, "  {row}")?;
        }
        Ok(())
    }
}

/// Runs one catalog entry: enumerates under each referenced model and
/// evaluates every verdict.
///
/// # Errors
///
/// Propagates enumeration failures.
pub fn run_entry(entry: &CatalogEntry, config: &EnumConfig) -> Result<EntryReport, EnumError> {
    run_entry_with(entry, config, enumerate_pruned, None, None)
}

/// Like [`run_entry`], but enumerating with the serial oracle
/// ([`enumerate`]). Verdicts, outcome sets and execution counts are
/// identical to [`run_entry`]'s — the engines are behaviour-equivalent —
/// but the search-shape statistics (`explored`, `forks`, `deduped`)
/// count unpruned work.
///
/// # Errors
///
/// Propagates enumeration failures.
pub fn run_entry_serial(
    entry: &CatalogEntry,
    config: &EnumConfig,
) -> Result<EntryReport, EnumError> {
    run_entry_with(entry, config, enumerate, None, None)
}

/// Like [`run_entry`], but consulting `certifier` before enumerating
/// under each non-SC model (as [`run_entry_certified`] does) and
/// consulting (and filling) the content-addressed `cache` for every
/// enumeration that still runs. Rows answered from the cache are marked
/// [`VerdictRow::cache_hit`]; their outcome sets and deterministic
/// statistics are bit-identical to a fresh run's, but their `stats`
/// never carry wall-clock timings (see [`samm_core::cache`]). Pass
/// `&|_, _| false` to certify nothing.
///
/// # Errors
///
/// Propagates enumeration failures (which are never cached).
pub fn run_entry_cached(
    entry: &CatalogEntry,
    config: &EnumConfig,
    cache: &EnumCache,
    certifier: Certifier<'_>,
) -> Result<EntryReport, EnumError> {
    run_entry_with(
        entry,
        config,
        enumerate_pruned,
        Some(certifier),
        Some(cache),
    )
}

/// Like [`run_entry`], but consulting `certifier` before enumerating
/// under each non-SC model: models the certifier proves SC-equivalent
/// reuse a single SC enumeration, and their rows are marked
/// [`VerdictRow::certified`]. For certified rows the reported outcome
/// and execution counts are the SC run's: outcome sets are provably
/// equal, while execution counts are the SC run's by convention — the
/// DRF/TLO certificates preserve them exactly, robustness certificates
/// only promise outcome-set equality.
///
/// # Errors
///
/// Propagates enumeration failures.
pub fn run_entry_certified(
    entry: &CatalogEntry,
    config: &EnumConfig,
    certifier: Certifier<'_>,
) -> Result<EntryReport, EnumError> {
    run_entry_with(entry, config, enumerate_pruned, Some(certifier), None)
}

/// The answer of one engine run, assembled by [`run_entry_with`].
struct RunAnswer {
    result: Arc<CachedResult>,
    cache_hit: bool,
    /// The engine ran: there is no cache, or it missed.
    ran: bool,
}

fn run_entry_with(
    entry: &CatalogEntry,
    config: &EnumConfig,
    engine: Engine,
    certifier: Option<Certifier<'_>>,
    cache: Option<&EnumCache>,
) -> Result<EntryReport, EnumError> {
    let program = &entry.test.program;
    // Rows never carry executions.
    let run_config = EnumConfig {
        keep_executions: false,
        ..config.clone()
    };
    let events: Vec<ThreadEvents> = program.threads().iter().map(thread_events).collect();
    // Per model: whether it is certified, and the view fingerprint of
    // the run that answers it (SC's for a certified model).
    let mut keys: BTreeMap<ModelSel, (bool, Fingerprint)> = BTreeMap::new();
    // One run per view fingerprint, even with a cache: a small cache may
    // evict a view between two models that share it.
    let mut runs: HashMap<Fingerprint, RunAnswer> = HashMap::new();
    for model in entry.models() {
        let certified =
            model != ModelSel::Sc && certifier.is_some_and(|c| c(program, &model.policy()));
        let policy = if certified { ModelSel::Sc } else { model }.policy();
        let view = TableView::from_events(&events, &policy);
        let fp = view_fingerprint(program, &view, config);
        keys.insert(model, (certified, fp));
        if runs.contains_key(&fp) {
            continue;
        }
        let mut ran = false;
        let mut fill = || -> Result<Arc<CachedResult>, EnumError> {
            ran = true;
            let result = engine(program, &policy, &run_config)?;
            // Cache entries keep only deterministic statistics.
            Ok(Arc::new(match cache {
                Some(_) => CachedResult::from_result(result),
                None => CachedResult::new(result.outcomes, result.stats),
            }))
        };
        let (result, cache_hit) = match cache {
            Some(cache) => {
                let (result, lookup) = cache.get_or_fill(fp, fill)?;
                (result, lookup.hit)
            }
            None => (fill()?, false),
        };
        runs.insert(
            fp,
            RunAnswer {
                result,
                cache_hit,
                ran,
            },
        );
    }
    let mut unfolded: HashSet<Fingerprint> = runs
        .iter()
        .filter(|(_, answer)| answer.ran)
        .map(|(&fp, _)| fp)
        .collect();
    let rows = entry
        .verdicts
        .iter()
        .map(|v| {
            let (certified, fp) = keys[&v.model];
            let answer = &runs[&fp];
            let condition = &entry.test.conditions[v.condition];
            VerdictRow {
                model: v.model,
                condition: condition.text.clone(),
                expected_allowed: v.allowed,
                observed_allowed: condition.observable_in(&answer.result.outcomes),
                outcomes: answer.result.outcomes.len(),
                executions: answer.result.stats.distinct_executions,
                certified,
                cache_hit: answer.cache_hit,
                fresh_run: unfolded.remove(&fp),
                stats: answer.result.stats,
            }
        })
        .collect();
    Ok(EntryReport {
        name: entry.test.name.clone(),
        rows,
    })
}

/// Runs a set of entries, collecting per-entry reports.
///
/// # Errors
///
/// Stops at the first enumeration failure.
pub fn run_all(
    entries: &[CatalogEntry],
    config: &EnumConfig,
) -> Result<Vec<EntryReport>, EnumError> {
    entries.iter().map(|e| run_entry(e, config)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn fast_config() -> EnumConfig {
        EnumConfig {
            keep_executions: false,
            ..EnumConfig::default()
        }
    }

    #[test]
    fn sb_report_matches_catalog() {
        let report = run_entry(&catalog::sb(), &fast_config()).unwrap();
        assert!(report.all_pass(), "{report}");
        assert_eq!(report.rows.len(), 6);
    }

    #[test]
    fn rows_render_with_verdicts() {
        let report = run_entry(&catalog::sb(), &fast_config()).unwrap();
        let text = report.to_string();
        assert!(text.contains("SB"));
        assert!(text.contains("[ok]"));
        assert!(text.contains("forbidden"));
    }

    #[test]
    fn pruned_harness_agrees_with_the_serial_oracle() {
        let config = fast_config();
        for entry in [catalog::sb(), catalog::iriw(), catalog::fig10()] {
            let serial = run_entry_serial(&entry, &config).unwrap();
            let pruned = run_entry(&entry, &config).unwrap();
            assert!(pruned.all_pass(), "{pruned}");
            assert_eq!(serial.rows.len(), pruned.rows.len());
            for (s, p) in serial.rows.iter().zip(&pruned.rows) {
                assert_eq!(s.observed_allowed, p.observed_allowed);
                assert_eq!(s.outcomes, p.outcomes);
                assert_eq!(s.executions, p.executions);
            }
        }
    }

    #[test]
    fn cached_harness_is_transparent() {
        let cache = EnumCache::new(256);
        let config = fast_config();
        for entry in [catalog::sb(), catalog::iriw()] {
            let fresh = run_entry(&entry, &config).unwrap();
            let cold = run_entry_cached(&entry, &config, &cache, &|_, _| false).unwrap();
            assert!(cold.rows.iter().all(|r| !r.cache_hit));
            let warm = run_entry_cached(&entry, &config, &cache, &|_, _| false).unwrap();
            assert!(warm.rows.iter().all(|r| r.cache_hit), "{warm}");
            // Hits must be transparent — same verdicts and counts as an
            // uncached run.
            for (f, rows) in fresh
                .rows
                .iter()
                .zip(cold.rows.iter().zip(&warm.rows))
                .map(|(f, (c, w))| (f, [c, w]))
            {
                for r in rows {
                    assert_eq!(f.observed_allowed, r.observed_allowed);
                    assert_eq!(f.outcomes, r.outcomes);
                    assert_eq!(f.executions, r.executions);
                    assert_eq!(f.stats.forks, r.stats.forks);
                }
            }
        }
        assert!(cache.stats().hits > 0);
        let text = run_entry_cached(&catalog::sb(), &config, &cache, &|_, _| false)
            .unwrap()
            .to_string();
        assert!(text.contains("[cached]"));
    }

    #[test]
    fn certified_models_reuse_the_one_sc_run() {
        let cache = EnumCache::new(16);
        let entry = catalog::sb();
        assert!(entry.models().len() > 2);
        let report = run_entry_cached(&entry, &fast_config(), &cache, &|_, _| true).unwrap();
        // Only SC enumerated; every other model answered from its run.
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.len(), 1);
        let sc = run_entry(&entry, &fast_config()).unwrap();
        let sc_row = sc.rows.iter().find(|r| r.model == ModelSel::Sc).unwrap();
        for row in &report.rows {
            assert_eq!(row.certified, row.model != ModelSel::Sc, "{row}");
            assert_eq!(row.outcomes, sc_row.outcomes, "{row}");
            assert_eq!(row.executions, sc_row.executions, "{row}");
            assert!(!row.cache_hit, "{row}");
        }
    }

    #[test]
    fn failures_lists_mismatches() {
        // Deliberately wrong verdict: SB 0/0 "forbidden" under weak.
        let mut entry = catalog::sb();
        entry.verdicts[4].allowed = false;
        let report = run_entry(&entry, &fast_config()).unwrap();
        assert!(!report.all_pass());
        assert_eq!(report.failures().len(), 1);
    }
}
