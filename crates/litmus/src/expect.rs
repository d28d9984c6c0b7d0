//! Executable conformance harness over the catalog.
//!
//! [`run_entry`] enumerates a catalog test under every model its verdicts
//! mention and compares observability of each condition against the
//! expected verdict — turning the paper's prose claims ("L6 cannot observe
//! S1") into pass/fail rows. The `experiments` binary of `samm-bench`
//! prints these rows as the reproduction record.
//!
//! One entry runs the engine once per [`TableView`]: models whose
//! tables agree on every cell the program reaches run the same search,
//! so the later ones reuse the first one's answer (a certified model
//! runs as SC). Runs are keyed by
//! [`view_fingerprint`], the cache's own key, so a cached harness makes
//! one cache lookup per view. Which model is certified, and each run's
//! policy and key, form the entry's [`VerdictPlan`]. [`answer_plan`] is
//! the one code that answers a plan, on the production engine
//! ([`enumerate_pruned`]); [`run_entry`] and [`run_entry_planned`] turn
//! its answers into rows with [`plan_report`]. A caller that answers the
//! same entry repeatedly builds its plan once ([`run_entry_planned`]).
//!
//! [`run_entry_serial`] is the serial oracle's own loop for differential
//! checks: one [`enumerate`] per view of the same plan, with no cache
//! and no classification.

use std::fmt;
use std::sync::Arc;

use samm_core::cache::{CachedResult, EnumCache};
use samm_core::enumerate::{enumerate, EnumConfig, EnumStats};
use samm_core::error::EnumError;
use samm_core::fingerprint::{view_fingerprint, Fingerprint};
use samm_core::instr::Program;
use samm_core::policy::Policy;
use samm_core::pruned::{enumerate_classified, enumerate_pruned, Classify};
use samm_core::static_order::{thread_events, TableView, ThreadEvents};

use crate::catalog::{CatalogEntry, ModelSel};

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
    /// possible when [`run_entry_planned`] or [`answer_plan`] is given a
    /// cache).
    pub cache_hit: bool,
    /// `true` when this row's view was classified from a weaker view's
    /// search in this call instead of searched (see [`VerdictPlan`]); its
    /// `stats` then hold only the execution count.
    pub classified: bool,
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
        if self.classified {
            write!(f, " [classified]")?;
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

/// The static facts behind one entry's verdicts: for each model its
/// verdicts mention, whether the certifier proves it SC-equivalent, and
/// the policy and view fingerprint of the run that answers it (SC's for
/// a certified model); which distinct runs those rows need; and which of
/// those runs are classified from a weaker run instead of searched.
///
/// A run is *classified* when its [`TableView`]
/// [dominates](TableView::dominates) another run's view (the same bypass
/// cells and speculation flag, every other cell at least as strong): the
/// pruned harness then searches only under
/// the weakest such view, its *base*, and keeps each of the base's
/// executions under the stronger view when it stays acyclic with the
/// stronger view's edges added ([`enumerate_classified`], DESIGN §4). A
/// base is undominated, so it always runs a search.
///
/// A plan is a pure function of a fixed program, the certifier and the
/// fingerprinted fields of the configuration (never the budget), and it
/// holds no outcome. A server can therefore build each entry's plan once
/// and run it for every verdict request ([`run_entry_planned`]);
/// [`run_entry`] and [`run_entry_serial`] build an uncertified plan and
/// run it on the spot.
#[derive(Debug, Clone)]
pub struct VerdictPlan {
    /// One row per model, in [`CatalogEntry::models`] order.
    pub rows: Vec<PlanRow>,
    /// One run per distinct view the rows need, in first-use order.
    pub runs: Vec<PlanRun>,
    /// For each verdict of the entry, in catalog order, the index of its
    /// model's row.
    pub verdict_rows: Vec<usize>,
}

/// One model's row of a [`VerdictPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanRow {
    /// The model a verdict names.
    pub model: ModelSel,
    /// The certifier proved the model SC-equivalent, so the SC run
    /// answers it.
    pub certified: bool,
    /// The policy the answering run enumerates under.
    pub policy: Policy,
    /// The answering run's [`view_fingerprint`]: its cache key.
    pub fp: Fingerprint,
    /// The index of the answering run in [`VerdictPlan::runs`].
    pub run: usize,
}

/// One distinct view of a [`VerdictPlan`]: what answers the rows that
/// share it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanRun {
    /// The policy a search under this view enumerates under.
    pub policy: Policy,
    /// The view's [`view_fingerprint`]: its cache key.
    pub fp: Fingerprint,
    /// `Some(base)` when this view is classified from the run at index
    /// `base` instead of searched.
    pub base: Option<usize>,
    /// On a base run, the runs classified from it, weakest first, each
    /// with whether it dominates the one before it
    /// ([`Classify::extends`]).
    pub classifies: Vec<(usize, bool)>,
}

impl VerdictPlan {
    /// Plans `entry` under `config`, asking `certifier` (when given)
    /// about every model but SC. A model it proves SC-equivalent is
    /// answered by the SC run: its outcome set provably equals SC's, and
    /// its execution count is the SC run's by convention (the DRF/TLO
    /// certificates preserve it exactly, robustness certificates only
    /// promise outcome-set equality).
    pub fn new(
        entry: &CatalogEntry,
        config: &EnumConfig,
        certifier: Option<Certifier<'_>>,
    ) -> VerdictPlan {
        let program = &entry.test.program;
        let events: Vec<ThreadEvents> = program.threads().iter().map(thread_events).collect();
        let mut runs: Vec<PlanRun> = Vec::new();
        let mut views: Vec<TableView> = Vec::new();
        let rows: Vec<PlanRow> = entry
            .models()
            .into_iter()
            .map(|model| {
                let certified =
                    model != ModelSel::Sc && certifier.is_some_and(|c| c(program, &model.policy()));
                let policy = if certified { ModelSel::Sc } else { model }.policy();
                let view = TableView::from_events(&events, &policy);
                let fp = view_fingerprint(program, &view, config);
                let run = match runs.iter().position(|run| run.fp == fp) {
                    Some(run) => run,
                    None => {
                        runs.push(PlanRun {
                            policy: policy.clone(),
                            fp,
                            base: None,
                            classifies: Vec::new(),
                        });
                        views.push(view);
                        runs.len() - 1
                    }
                };
                PlanRow {
                    model,
                    certified,
                    policy,
                    fp,
                    run,
                }
            })
            .collect();
        // Each view that dominates another is classified from the first
        // minimal view it dominates, which is undominated.
        let below = |i: usize, j: usize| i != j && views[i].dominates(&views[j]);
        for i in 0..runs.len() {
            runs[i].base =
                (0..runs.len()).find(|&j| below(i, j) && !(0..runs.len()).any(|k| below(j, k)));
        }
        for b in 0..runs.len() {
            let mut classified: Vec<usize> = (0..runs.len())
                .filter(|&i| runs[i].base == Some(b))
                .collect();
            classified.sort_by_key(|&i| views[i].weight());
            runs[b].classifies = classified
                .iter()
                .enumerate()
                .map(|(k, &i)| (i, k > 0 && views[i].dominates(&views[classified[k - 1]])))
                .collect();
        }
        let verdict_rows = entry
            .verdicts
            .iter()
            .map(|v| {
                rows.iter()
                    .position(|row| row.model == v.model)
                    .expect("a plan has a row for every model its entry's verdicts name")
            })
            .collect();
        VerdictPlan {
            rows,
            runs,
            verdict_rows,
        }
    }

    /// The row answering verdict `index` of the entry.
    pub fn verdict_row(&self, index: usize) -> &PlanRow {
        &self.rows[self.verdict_rows[index]]
    }
}

/// Runs one catalog entry: enumerates under each referenced model and
/// evaluates every verdict.
///
/// # Errors
///
/// Propagates enumeration failures.
pub fn run_entry(entry: &CatalogEntry, config: &EnumConfig) -> Result<EntryReport, EnumError> {
    run_entry_planned(entry, &VerdictPlan::new(entry, config, None), config, None)
}

/// The serial oracle's harness: one serial [`enumerate`] per view of
/// `entry`'s uncertified plan, with no cache and no classification.
/// Verdicts, outcome sets and execution counts are identical to
/// [`run_entry`]'s — the engines are behaviour-equivalent — but the
/// search-shape statistics (`explored`, `forks`, `deduped`) count
/// unpruned work.
///
/// # Errors
///
/// Propagates enumeration failures.
pub fn run_entry_serial(
    entry: &CatalogEntry,
    config: &EnumConfig,
) -> Result<EntryReport, EnumError> {
    let plan = VerdictPlan::new(entry, config, None);
    let config = EnumConfig {
        keep_executions: false,
        ..config.clone()
    };
    let answers = plan
        .runs
        .iter()
        .map(|run| {
            let result = enumerate(&entry.test.program, &run.policy, &config)?;
            Ok(RunAnswer {
                result: Arc::new(CachedResult::new(result.outcomes, result.stats)),
                cache_hit: false,
                classified: false,
            })
        })
        .collect::<Result<Vec<_>, EnumError>>()?;
    Ok(plan_report(entry, &plan, &answers))
}

/// Runs `plan`, built for `entry` by [`VerdictPlan::new`], through
/// [`answer_plan`] and reports its verdicts. Rows answered from `cache`
/// are marked [`VerdictRow::cache_hit`]; their outcome sets and
/// deterministic statistics are bit-identical to a fresh run's, but
/// their `stats` never carry wall-clock timings (see
/// [`samm_core::cache`]). `config` may differ from the plan's only in
/// fields the fingerprint leaves out, such as the budget or whether a
/// counting run is timed.
///
/// # Errors
///
/// Propagates enumeration failures (which are never cached).
pub fn run_entry_planned(
    entry: &CatalogEntry,
    plan: &VerdictPlan,
    config: &EnumConfig,
    cache: Option<&EnumCache>,
) -> Result<EntryReport, EnumError> {
    let answers = answer_plan(entry, plan, config, cache)?;
    Ok(plan_report(entry, plan, &answers))
}

/// How one run of a [`VerdictPlan`] was answered by [`answer_plan`]. A
/// run that is neither a hit nor classified was searched in this call.
#[derive(Debug, Clone)]
pub struct RunAnswer {
    /// The run's outcome set and statistics. A classified run's
    /// statistics hold only its execution count: it ran no search.
    pub result: Arc<CachedResult>,
    /// Answered from the content-addressed cache.
    pub cache_hit: bool,
    /// Classified from its base run's executions in this call.
    pub classified: bool,
}

/// Answers every run of `plan`, built for `entry` by [`VerdictPlan::new`],
/// on the pruned engine, consulting and filling `cache` when given. A
/// classified run that is resident in the cache is a hit; otherwise it is
/// classified when its base searches in this call, and never inserted
/// (it has no search statistics of its own), and it searches on its own
/// when its base was a hit. `config` may differ from the plan's only in
/// fields the fingerprint leaves out, such as the budget or whether a
/// counting run is timed.
///
/// # Errors
///
/// Propagates enumeration failures (which are never cached).
pub fn answer_plan(
    entry: &CatalogEntry,
    plan: &VerdictPlan,
    config: &EnumConfig,
    cache: Option<&EnumCache>,
) -> Result<Vec<RunAnswer>, EnumError> {
    let program = &entry.test.program;
    // Rows never carry executions.
    let run_config = EnumConfig {
        keep_executions: false,
        ..config.clone()
    };
    let mut answers: Vec<Option<RunAnswer>> = vec![None; plan.runs.len()];
    if let Some(cache) = cache {
        for (answer, run) in answers.iter_mut().zip(&plan.runs) {
            if run.base.is_some() {
                *answer = cache.probe(run.fp).map(|result| RunAnswer {
                    result,
                    cache_hit: true,
                    classified: false,
                });
            }
        }
    }
    // Bases and unclassified runs first, then the classified runs no
    // search of their base answered. One run per view, even with a
    // cache: a small cache may evict a view between two models that
    // share it.
    let classified = |i: &usize| plan.runs[*i].base.is_some();
    let order = (0..plan.runs.len())
        .filter(|i| !classified(i))
        .chain((0..plan.runs.len()).filter(classified));
    for i in order {
        if answers[i].is_some() {
            continue;
        }
        let run = &plan.runs[i];
        // The views classified from this run's search: those still
        // unanswered. A view whose predecessor is answered already
        // starts again from the base execution.
        let mut views = Vec::new();
        let mut targets = Vec::new();
        let mut previous = None;
        for &(k, extends) in &run.classifies {
            if answers[k].is_none() {
                views.push(Classify {
                    policy: &plan.runs[k].policy,
                    extends: extends && previous == targets.last().copied(),
                });
                targets.push(k);
            }
            previous = Some(k);
        }
        let mut found = Vec::new();
        let mut fill = || -> Result<Arc<CachedResult>, EnumError> {
            let result = if views.is_empty() {
                enumerate_pruned(program, &run.policy, &run_config)?
            } else {
                let (result, classified) =
                    enumerate_classified(program, &run.policy, &views, &run_config)?;
                found = classified;
                result
            };
            // Cache entries keep only deterministic statistics.
            Ok(Arc::new(match cache {
                Some(_) => CachedResult::from_result(result),
                None => CachedResult::new(result.outcomes, result.stats),
            }))
        };
        let (result, cache_hit) = match cache {
            Some(cache) => {
                let (result, lookup) = cache.get_or_fill(run.fp, fill)?;
                (result, lookup.hit)
            }
            None => (fill()?, false),
        };
        answers[i] = Some(RunAnswer {
            result,
            cache_hit,
            classified: false,
        });
        for (k, view) in targets.into_iter().zip(found) {
            let stats = EnumStats {
                distinct_executions: view.executions,
                ..EnumStats::default()
            };
            answers[k] = Some(RunAnswer {
                result: Arc::new(CachedResult::new(view.outcomes, stats)),
                cache_hit: false,
                classified: true,
            });
        }
    }
    Ok(answers
        .into_iter()
        .map(|answer| answer.expect("every run of a plan is answered"))
        .collect())
}

/// The report of `entry`'s verdicts from its plan's run answers
/// ([`answer_plan`]).
pub fn plan_report(entry: &CatalogEntry, plan: &VerdictPlan, answers: &[RunAnswer]) -> EntryReport {
    let mut unfolded: Vec<bool> = answers
        .iter()
        .map(|answer| !answer.cache_hit && !answer.classified)
        .collect();
    let rows = entry
        .verdicts
        .iter()
        .enumerate()
        .map(|(index, v)| {
            let &PlanRow { certified, run, .. } = plan.verdict_row(index);
            let answer = &answers[run];
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
                classified: answer.classified,
                fresh_run: std::mem::take(&mut unfolded[run]),
                stats: answer.result.stats,
            }
        })
        .collect();
    EntryReport {
        name: entry.test.name.clone(),
        rows,
    }
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

    /// `entry`'s report through `cache`, with `certifier` planning.
    fn cached(
        entry: &CatalogEntry,
        config: &EnumConfig,
        cache: &EnumCache,
        certifier: Certifier<'_>,
    ) -> EntryReport {
        let plan = VerdictPlan::new(entry, config, Some(certifier));
        run_entry_planned(entry, &plan, config, Some(cache)).unwrap()
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

    /// The serial oracle's harness and the production harness agree row
    /// by row on every catalog entry.
    #[test]
    fn pruned_harness_agrees_with_the_serial_oracle() {
        let config = fast_config();
        for entry in catalog::all() {
            let serial = run_entry_serial(&entry, &config).unwrap();
            let pruned = run_entry(&entry, &config).unwrap();
            assert!(pruned.all_pass(), "{pruned}");
            assert_eq!(serial.rows.len(), pruned.rows.len());
            for (s, p) in serial.rows.iter().zip(&pruned.rows) {
                let name = &entry.test.name;
                assert_eq!(s.observed_allowed, p.observed_allowed, "{name}: {p}");
                assert_eq!(s.outcomes, p.outcomes, "{name}: {p}");
                assert_eq!(s.executions, p.executions, "{name}: {p}");
            }
        }
    }

    #[test]
    fn cached_harness_is_transparent() {
        let cache = EnumCache::new(256);
        let config = fast_config();
        for entry in [catalog::sb(), catalog::iriw()] {
            let fresh = run_entry(&entry, &config).unwrap();
            let cold = cached(&entry, &config, &cache, &|_, _| false);
            assert!(cold.rows.iter().all(|r| !r.cache_hit));
            assert!(cold.rows.iter().any(|r| r.classified), "{cold}");
            // The classified views were not inserted: with their bases
            // resident, they search on their own once, then hit.
            let misses = cache.stats().misses;
            let warm = cached(&entry, &config, &cache, &|_, _| false);
            assert!(warm.rows.iter().all(|r| !r.classified), "{warm}");
            let searched = warm.rows.iter().filter(|r| r.fresh_run).count();
            assert_eq!(cache.stats().misses - misses, searched as u64, "{warm}");
            assert!(
                searched > 0 && warm.rows.iter().any(|r| r.cache_hit),
                "{warm}"
            );
            let warmer = cached(&entry, &config, &cache, &|_, _| false);
            assert!(warmer.rows.iter().all(|r| r.cache_hit), "{warmer}");
            // Hits and classified rows must be transparent — same verdicts
            // and counts as an uncached run; a search's statistics are
            // its own, and a classified row has none.
            for (f, rows) in fresh
                .rows
                .iter()
                .zip(cold.rows.iter().zip(warm.rows.iter().zip(&warmer.rows)))
                .map(|(f, (c, (w, v)))| (f, [c, w, v]))
            {
                for r in rows {
                    assert_eq!(f.observed_allowed, r.observed_allowed);
                    assert_eq!(f.outcomes, r.outcomes);
                    assert_eq!(f.executions, r.executions);
                    if !f.classified && !r.classified {
                        assert_eq!(f.stats.forks, r.stats.forks);
                    }
                }
            }
        }
        assert!(cache.stats().hits > 0);
        let text = cached(&catalog::sb(), &config, &cache, &|_, _| false).to_string();
        assert!(text.contains("[cached]"));
        let text = run_entry(&catalog::sb(), &config).unwrap().to_string();
        assert!(text.contains("[classified]"));
    }

    #[test]
    fn certified_models_reuse_the_one_sc_run() {
        let cache = EnumCache::new(16);
        let entry = catalog::sb();
        assert!(entry.models().len() > 2);
        let report = cached(&entry, &fast_config(), &cache, &|_, _| true);
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
