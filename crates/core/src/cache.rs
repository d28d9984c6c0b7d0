//! A content-addressed cache of enumeration answers.
//!
//! Enumeration is pure — the answer to a query is fully determined by its
//! [`Fingerprint`] — so results can be memoized across calls, binaries,
//! and (via the optional file persistence) processes. [`EnumCache`] is a
//! sharded in-memory LRU keyed by fingerprint; the litmus harness, the
//! CLI sweeps, and the `samm-serve` service all consult one instance so a
//! repeated query costs a hash and a map probe instead of a fresh
//! enumeration.
//!
//! What is cached is a [`CachedResult`]: the outcome set plus the
//! *deterministic* statistics of the run. Kept executions are never
//! cached (they are large, and callers that need graphs re-enumerate),
//! and wall-clock observation timings are zeroed on insert so a hit
//! returns the same bytes whichever run produced it.
//!
//! Budget interaction: a cache hit consumes no fork fuel. The cached
//! answer is the *complete* answer, so serving it under a small
//! [`EnumConfig::budget`](crate::enumerate::EnumConfig) is strictly
//! better than re-running and failing with
//! [`EnumError::Overbudget`](crate::error::EnumError) — budgets bound
//! work, not answers (and are accordingly excluded from the
//! fingerprint).
//!
//! # Examples
//!
//! ```
//! use samm_core::cache::{cached_enumerate, EnumCache};
//! use samm_core::enumerate::{enumerate, EnumConfig};
//! use samm_core::instr::{Instr, Program, ThreadProgram};
//! use samm_core::ids::Reg;
//! use samm_core::policy::Policy;
//!
//! let t = |a: u64, b: u64| ThreadProgram::new(vec![
//!     Instr::Store { addr: a.into(), val: 1u64.into() },
//!     Instr::Load { dst: Reg::new(0), addr: b.into() },
//! ]);
//! let sb = Program::new(vec![t(0, 1), t(1, 0)]);
//! let cache = EnumCache::new(1024);
//! let config = EnumConfig::default();
//!
//! let (cold, hit) = cached_enumerate(&cache, &sb, &Policy::weak(), &config, enumerate).unwrap();
//! assert!(!hit);
//! let (warm, hit) = cached_enumerate(&cache, &sb, &Policy::weak(), &config, enumerate).unwrap();
//! assert!(hit);
//! assert_eq!(warm, cold);
//! assert_eq!(cache.stats().hits, 1);
//! ```

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::enumerate::{EnumConfig, EnumResult, EnumStats};
use crate::error::EnumError;
use crate::fingerprint::{query_fingerprint, Fingerprint};
use crate::ids::Value;
use crate::instr::Program;
use crate::outcome::{Outcome, OutcomeSet};
use crate::policy::Policy;

/// The memoized answer to one enumeration query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedResult {
    /// Every distinct final outcome of the program under the policy.
    pub outcomes: OutcomeSet,
    /// Deterministic run statistics (wall-clock timings zeroed; see the
    /// module docs).
    pub stats: EnumStats,
}

impl CachedResult {
    /// Extracts the cacheable part of an [`EnumResult`], normalizing the
    /// statistics to their deterministic subset.
    pub fn from_result(result: &EnumResult) -> Self {
        let mut stats = result.stats;
        stats.obs = stats.obs.map(|o| o.counters());
        CachedResult {
            outcomes: result.outcomes.clone(),
            stats,
        }
    }

    /// Number of distinct complete executions behind the outcome set.
    pub fn distinct_executions(&self) -> usize {
        self.stats.distinct_executions
    }
}

/// One LRU shard: fingerprint → (last-touch stamp, answer).
struct Shard {
    entries: HashMap<u128, (u64, CachedResult)>,
    clock: u64,
}

impl Shard {
    fn touch(&mut self, key: u128) -> Option<CachedResult> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(&key).map(|slot| {
            slot.0 = clock;
            slot.1.clone()
        })
    }

    /// Inserts, evicting the least-recently-touched entry when the shard
    /// is at `capacity`. Returns `true` when an eviction happened.
    fn insert(&mut self, key: u128, value: CachedResult, capacity: usize) -> bool {
        self.clock += 1;
        let mut evicted = false;
        if !self.entries.contains_key(&key) && self.entries.len() >= capacity {
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, (stamp, _))| *stamp) {
                self.entries.remove(&victim);
                evicted = true;
            }
        }
        self.entries.insert(key, (self.clock, value));
        evicted
    }
}

/// Point-in-time cache counters, rendered into `samm-serve`'s `metrics`
/// response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries inserted (including re-insertions over an existing key).
    pub insertions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hits as a fraction of lookups (`0.0` when there were none).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// Renders the counters as a JSON object (hand-rolled; no external
    /// dependencies).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"insertions\":{},\
             \"entries\":{},\"hit_rate\":{:.4}}}",
            self.hits,
            self.misses,
            self.evictions,
            self.insertions,
            self.entries,
            self.hit_rate(),
        )
    }
}

/// Point-in-time counters of one cache shard, for the per-shard
/// Prometheus labels of the serving tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Entries resident in this shard.
    pub entries: usize,
    /// Lookups answered by this shard.
    pub hits: u64,
    /// Lookups that missed in this shard.
    pub misses: u64,
}

/// A sharded, thread-safe LRU cache of enumeration answers.
///
/// Lookups hash the [`Fingerprint`] to one of the mutex-protected shards,
/// so concurrent service workers rarely contend. Capacity is enforced
/// per shard with least-recently-used eviction.
pub struct EnumCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
    shard_hits: Vec<AtomicU64>,
    shard_misses: Vec<AtomicU64>,
}

impl std::fmt::Debug for EnumCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnumCache")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.capacity_per_shard)
            .field("stats", &self.stats())
            .finish()
    }
}

const DEFAULT_SHARDS: usize = 16;

impl EnumCache {
    /// A cache holding roughly `capacity` entries across
    /// [`DEFAULT_SHARDS`](Self::with_shards) shards.
    pub fn new(capacity: usize) -> Self {
        EnumCache::with_shards(DEFAULT_SHARDS, capacity.div_ceil(DEFAULT_SHARDS).max(1))
    }

    /// A cache with an explicit geometry: `shard_count` shards of
    /// `capacity_per_shard` entries each. A single shard gives exact
    /// global LRU order (useful in tests).
    pub fn with_shards(shard_count: usize, capacity_per_shard: usize) -> Self {
        let shard_count = shard_count.max(1);
        EnumCache {
            shards: (0..shard_count)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        clock: 0,
                    })
                })
                .collect(),
            capacity_per_shard: capacity_per_shard.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            shard_hits: (0..shard_count).map(|_| AtomicU64::new(0)).collect(),
            shard_misses: (0..shard_count).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn shard_index(&self, fp: Fingerprint) -> usize {
        // The fingerprint is already a high-quality hash; fold the high
        // half in so shard choice uses all 128 bits.
        let raw = fp.raw();
        ((raw >> 64) ^ raw) as usize % self.shards.len()
    }

    fn shard_of(&self, fp: Fingerprint) -> &Mutex<Shard> {
        &self.shards[self.shard_index(fp)]
    }

    /// Looks up an answer, refreshing its LRU stamp on a hit.
    pub fn get(&self, fp: Fingerprint) -> Option<CachedResult> {
        let idx = self.shard_index(fp);
        let found = self.shards[idx]
            .lock()
            .expect("cache shard poisoned")
            .touch(fp.raw());
        match &found {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.shard_hits[idx].fetch_add(1, Ordering::Relaxed)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.shard_misses[idx].fetch_add(1, Ordering::Relaxed)
            }
        };
        found
    }

    /// Inserts (or replaces) an answer.
    pub fn insert(&self, fp: Fingerprint, value: CachedResult) {
        let evicted = self
            .shard_of(fp)
            .lock()
            .expect("cache shard poisoned")
            .insert(fp.raw(), value, self.capacity_per_shard);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Removes one entry; returns `true` when it was present.
    pub fn invalidate(&self, fp: Fingerprint) -> bool {
        self.shard_of(fp)
            .lock()
            .expect("cache shard poisoned")
            .entries
            .remove(&fp.raw())
            .is_some()
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard poisoned").entries.clear();
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").entries.len())
            .sum()
    }

    /// Returns `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `fp` is resident, without counting a hit/miss or
    /// refreshing LRU recency — the cluster router's pre-check, which
    /// must not skew the cache statistics of queries it never answers.
    pub fn contains(&self, fp: Fingerprint) -> bool {
        self.shard_of(fp)
            .lock()
            .expect("cache shard poisoned")
            .entries
            .contains_key(&fp.raw())
    }

    /// Number of shards in this cache's geometry.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard counters, indexed by shard, for per-shard exposition
    /// labels. Hit/miss tallies are maintained per shard alongside the
    /// global counters, so the per-shard rows always sum to the totals.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, shard)| ShardStats {
                entries: shard.lock().expect("cache shard poisoned").entries.len(),
                hits: self.shard_hits[i].load(Ordering::Relaxed),
                misses: self.shard_misses[i].load(Ordering::Relaxed),
            })
            .collect()
    }

    /// A point-in-time snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    /// Writes every resident entry to `path` in the line format described
    /// at [`EnumCache::load_from`], sorted by fingerprint for determinism.
    /// Returns the number of entries written.
    ///
    /// The write is atomic: entries are written to a sibling `.tmp` file,
    /// synced, and renamed over `path`, so a crash (or a kill mid-drain)
    /// never leaves a truncated cache file behind — the previous file
    /// survives intact until the rename commits the new one.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from creating, writing, syncing, or
    /// renaming the file; on failure the partially written temporary is
    /// removed best-effort and `path` is untouched.
    pub fn save_to(&self, path: impl AsRef<Path>) -> std::io::Result<usize> {
        let path = path.as_ref();
        let mut rows: Vec<(u128, CachedResult)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            rows.extend(shard.entries.iter().map(|(&k, (_, v))| (k, v.clone())));
        }
        rows.sort_by_key(|(k, _)| *k);
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        let tmp: std::path::PathBuf = tmp_name.into();
        let write_all = || -> std::io::Result<()> {
            let mut out = BufWriter::new(std::fs::File::create(&tmp)?);
            for (key, value) in &rows {
                writeln!(
                    out,
                    "{}|{}|{}|{}|{}",
                    PERSIST_VERSION,
                    Fingerprint::from_raw(*key),
                    encode_stats(&value.stats),
                    encode_obs(&value.stats),
                    encode_outcomes(&value.outcomes),
                )?;
            }
            out.flush()?;
            out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
            std::fs::rename(&tmp, path)
        };
        write_all().inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })?;
        Ok(rows.len())
    }

    /// Loads entries persisted by [`EnumCache::save_to`], skipping (and
    /// counting separately) lines that fail to parse — a corrupt or
    /// version-skewed file degrades to a cold cache, never a wrong
    /// answer. Returns `(loaded, skipped)`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from opening or reading the file.
    pub fn load_from(&self, path: impl AsRef<Path>) -> std::io::Result<(usize, usize)> {
        let reader = BufReader::new(std::fs::File::open(path)?);
        let mut loaded = 0usize;
        let mut skipped = 0usize;
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match parse_line(&line) {
                Some((fp, value)) => {
                    self.insert(fp, value);
                    loaded += 1;
                }
                None => skipped += 1,
            }
        }
        Ok((loaded, skipped))
    }
}

/// Version tag of the persistence line format.
const PERSIST_VERSION: u32 = 1;

fn encode_stats(stats: &EnumStats) -> String {
    format!(
        "{},{},{},{},{},{}",
        stats.explored,
        stats.forks,
        stats.deduped,
        stats.rolled_back,
        stats.distinct_executions,
        stats.max_graph_nodes,
    )
}

fn encode_obs(stats: &EnumStats) -> String {
    match &stats.obs {
        None => "-".to_owned(),
        Some(o) => format!(
            "{},{},{},{},{},{}",
            o.rule_a, o.rule_b, o.rule_c, o.closure_rounds, o.candidate_calls, o.candidate_stores,
        ),
    }
}

/// Outcomes separated by `;`; within an outcome, threads separated by
/// `/`; within a thread, register values comma-separated.
fn encode_outcomes(outcomes: &OutcomeSet) -> String {
    outcomes
        .iter()
        .map(|o| {
            (0..o.thread_count())
                .map(|t| {
                    o.thread_regs(t)
                        .iter()
                        .map(|v| v.raw().to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .collect::<Vec<_>>()
                .join("/")
        })
        .collect::<Vec<_>>()
        .join(";")
}

fn parse_fixed<const N: usize>(field: &str) -> Option<[u64; N]> {
    let mut out = [0u64; N];
    let mut parts = field.split(',');
    for slot in &mut out {
        *slot = parts.next()?.parse().ok()?;
    }
    parts.next().is_none().then_some(out)
}

fn parse_line(line: &str) -> Option<(Fingerprint, CachedResult)> {
    let mut fields = line.splitn(5, '|');
    let version: u32 = fields.next()?.parse().ok()?;
    if version != PERSIST_VERSION {
        return None;
    }
    let fp = Fingerprint::from_hex(fields.next()?)?;
    let [explored, forks, deduped, rolled_back, distinct_executions, max_graph_nodes] =
        parse_fixed::<6>(fields.next()?)?;
    let obs_field = fields.next()?;
    let obs = if obs_field == "-" {
        None
    } else {
        let [rule_a, rule_b, rule_c, closure_rounds, candidate_calls, candidate_stores] =
            parse_fixed::<6>(obs_field)?;
        Some(crate::obs::ObsStats {
            rule_a,
            rule_b,
            rule_c,
            closure_rounds,
            candidate_calls,
            candidate_stores,
            closure_nanos: 0,
            settle_nanos: 0,
            resolve_nanos: 0,
        })
    };
    let outcomes_field = fields.next()?;
    let mut outcomes = OutcomeSet::default();
    if !outcomes_field.is_empty() {
        for enc in outcomes_field.split(';') {
            let regs: Option<Vec<Vec<Value>>> = enc
                .split('/')
                .map(|thread| {
                    if thread.is_empty() {
                        Some(Vec::new())
                    } else {
                        thread
                            .split(',')
                            .map(|v| v.parse().ok().map(Value::new))
                            .collect()
                    }
                })
                .collect();
            outcomes.insert(Outcome::new(regs?));
        }
    }
    let stats = EnumStats {
        explored: explored as usize,
        forks: forks as usize,
        deduped: deduped as usize,
        rolled_back: rolled_back as usize,
        distinct_executions: distinct_executions as usize,
        max_graph_nodes: max_graph_nodes as usize,
        obs,
    };
    Some((fp, CachedResult { outcomes, stats }))
}

/// Runs `engine` through the cache: on a hit the memoized answer is
/// returned without enumerating; on a miss the engine runs (with
/// `keep_executions` forced off — executions are never cached) and the
/// normalized answer is inserted. The boolean is `true` on a hit.
///
/// Errors are **not** cached: a query that fails (over budget, node
/// limit, ...) is retried fresh on the next call, so raising the budget
/// or the limits immediately takes effect.
///
/// # Errors
///
/// Whatever `engine` returns on a miss.
pub fn cached_enumerate(
    cache: &EnumCache,
    program: &Program,
    policy: &Policy,
    config: &EnumConfig,
    engine: impl FnOnce(&Program, &Policy, &EnumConfig) -> Result<EnumResult, EnumError>,
) -> Result<(CachedResult, bool), EnumError> {
    let fp = query_fingerprint(program, policy, config);
    if let Some(hit) = cache.get(fp) {
        return Ok((hit, true));
    }
    let run_config = EnumConfig {
        keep_executions: false,
        ..config.clone()
    };
    let result = engine(program, policy, &run_config)?;
    let value = CachedResult::from_result(&result);
    cache.insert(fp, value.clone());
    Ok((value, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate;
    use crate::ids::{Addr, Reg};
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

    #[test]
    fn hit_returns_the_memoized_answer() {
        let cache = EnumCache::new(64);
        let config = EnumConfig::default();
        let (cold, hit) =
            cached_enumerate(&cache, &sb(), &Policy::weak(), &config, enumerate).unwrap();
        assert!(!hit);
        assert_eq!(cold.outcomes.len(), 4);
        let (warm, hit) =
            cached_enumerate(&cache, &sb(), &Policy::weak(), &config, enumerate).unwrap();
        assert!(hit);
        assert_eq!(warm, cold);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn observed_fills_are_identical_across_runs() {
        let config = EnumConfig::builder().observe(true).build();
        let fill = || {
            let cache = EnumCache::new(64);
            cached_enumerate(&cache, &sb(), &Policy::weak(), &config, enumerate)
                .unwrap()
                .0
        };
        let (first, second) = (fill(), fill());
        assert!(first.stats.obs.is_some());
        assert_eq!(first, second, "normalization must erase the timings");
    }

    #[test]
    fn mutated_ast_never_hits_the_stale_entry() {
        let cache = EnumCache::new(64);
        let config = EnumConfig::default();
        let (_, hit) =
            cached_enumerate(&cache, &sb(), &Policy::weak(), &config, enumerate).unwrap();
        assert!(!hit);
        // Poison scenario: the program changes underneath the cache. The
        // mutated AST has a different fingerprint, so the stale entry is
        // unreachable and a fresh enumeration runs.
        let mut mutated = sb();
        mutated.set_init(Addr::new(1), Value::new(1));
        let (fresh, hit) =
            cached_enumerate(&cache, &mutated, &Policy::weak(), &config, enumerate).unwrap();
        assert!(
            !hit,
            "a mutated program must not be served the stale answer"
        );
        // With y initially 1, thread 0's load can read 1 even before
        // thread 1's store: the answer genuinely differs.
        let (stale, _) =
            cached_enumerate(&cache, &sb(), &Policy::weak(), &config, enumerate).unwrap();
        assert_ne!(fresh.outcomes, stale.outcomes);
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        // One shard of two entries gives exact global LRU order.
        let cache = EnumCache::with_shards(1, 2);
        let value = CachedResult {
            outcomes: OutcomeSet::default(),
            stats: EnumStats::default(),
        };
        let fp = |n: u128| Fingerprint::from_raw(n);
        cache.insert(fp(1), value.clone());
        cache.insert(fp(2), value.clone());
        assert!(cache.get(fp(1)).is_some()); // refresh 1; 2 is now LRU
        cache.insert(fp(3), value.clone());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(fp(1)).is_some());
        assert!(cache.get(fp(2)).is_none(), "LRU entry must be evicted");
        assert!(cache.get(fp(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.invalidate(fp(3)));
        assert!(!cache.invalidate(fp(3)));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn persistence_round_trips() {
        let dir = std::env::temp_dir().join("samm-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("roundtrip-{}.cache", std::process::id()));

        let cache = EnumCache::new(64);
        let config = EnumConfig::default();
        let observed = EnumConfig::builder().observe(true).build();
        for policy in [Policy::weak(), Policy::tso()] {
            cached_enumerate(&cache, &sb(), &policy, &config, enumerate).unwrap();
            cached_enumerate(&cache, &sb(), &policy, &observed, enumerate).unwrap();
        }
        let written = cache.save_to(&path).unwrap();
        assert_eq!(written, 4);

        let restored = EnumCache::new(64);
        let (loaded, skipped) = restored.load_from(&path).unwrap();
        assert_eq!((loaded, skipped), (4, 0));
        for policy in [Policy::weak(), Policy::tso()] {
            for cfg in [&config, &observed] {
                let (value, hit) =
                    cached_enumerate(&restored, &sb(), &policy, cfg, enumerate).unwrap();
                assert!(hit, "persisted entry must hit after reload");
                let (direct, _) =
                    cached_enumerate(&EnumCache::new(8), &sb(), &policy, cfg, enumerate).unwrap();
                assert_eq!(value, direct);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_lines_are_skipped_not_served() {
        let dir = std::env::temp_dir().join("samm-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("corrupt-{}.cache", std::process::id()));
        let good = format!(
            "1|{}|1,2,0,0,1,6|-|0,1/1,0;1,1/0,0",
            Fingerprint::from_raw(42)
        );
        let body = format!(
            "{good}\nnot a cache line\n9|{}|1,2,0,0,1,6|-|\n\n",
            Fingerprint::from_raw(7)
        );
        std::fs::write(&path, body).unwrap();
        let cache = EnumCache::new(8);
        let (loaded, skipped) = cache.load_from(&path).unwrap();
        assert_eq!((loaded, skipped), (1, 2));
        let entry = cache.get(Fingerprint::from_raw(42)).unwrap();
        assert_eq!(entry.outcomes.len(), 2);
        assert_eq!(entry.distinct_executions(), 1);
        assert!(cache.get(Fingerprint::from_raw(7)).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_replaces_atomically_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join("samm-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("atomic-{}.cache", std::process::id()));
        let tmp = dir.join(format!("atomic-{}.cache.tmp", std::process::id()));

        // A pre-existing file simulates the previous generation's state;
        // save_to must replace it wholesale, never append or truncate.
        std::fs::write(&path, "garbage from a previous run\n").unwrap();

        let cache = EnumCache::new(8);
        let value = CachedResult {
            outcomes: OutcomeSet::default(),
            stats: EnumStats::default(),
        };
        cache.insert(Fingerprint::from_raw(1), value.clone());
        cache.insert(Fingerprint::from_raw(2), value);
        assert_eq!(cache.save_to(&path).unwrap(), 2);
        assert!(!tmp.exists(), "temp file must be renamed away");

        let restored = EnumCache::new(8);
        let (loaded, skipped) = restored.load_from(&path).unwrap();
        assert_eq!((loaded, skipped), (2, 0), "old contents must be gone");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_stats_sum_to_the_global_counters() {
        let cache = EnumCache::with_shards(4, 16);
        let value = CachedResult {
            outcomes: OutcomeSet::default(),
            stats: EnumStats::default(),
        };
        for n in 0..10u128 {
            cache.insert(Fingerprint::from_raw(n), value.clone());
        }
        for n in 0..20u128 {
            cache.get(Fingerprint::from_raw(n));
        }
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard.len(), cache.shard_count());
        let global = cache.stats();
        assert_eq!(
            per_shard.iter().map(|s| s.entries).sum::<usize>(),
            global.entries
        );
        assert_eq!(per_shard.iter().map(|s| s.hits).sum::<u64>(), global.hits);
        assert_eq!(
            per_shard.iter().map(|s| s.misses).sum::<u64>(),
            global.misses
        );
        assert_eq!(global.hits, 10);
        assert_eq!(global.misses, 10);
    }
}
