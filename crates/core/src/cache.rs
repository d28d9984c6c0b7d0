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
//! The entry is the only per-fingerprint state. Shards hold
//! `Arc<CachedResult>`, so a hit clones no outcome set.
//! [`EnumCache::get_or_fill`] runs one fill per fingerprint; concurrent
//! callers for that key wait and count as hits, and a fill that errors
//! or panics wakes them so the next caller fills. A fill must not look
//! up its own fingerprint: it would wait on itself forever. The entry
//! renders its wire JSON once ([`CachedResult::outcomes_json`],
//! [`CachedResult::stats_json`]) for warm responses to splice.
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
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

use crate::enumerate::{EnumConfig, EnumResult, EnumStats};
use crate::error::EnumError;
use crate::fingerprint::{query_fingerprint, Fingerprint};
use crate::ids::Value;
use crate::instr::Program;
use crate::outcome::{Outcome, OutcomeSet};
use crate::policy::Policy;

/// The memoized answer to one enumeration query.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// Every distinct final outcome of the program under the policy.
    pub outcomes: OutcomeSet,
    /// Deterministic run statistics (wall-clock timings zeroed; see the
    /// module docs).
    pub stats: EnumStats,
    /// The `outcomes` and `stats` JSON fragments, rendered on first use;
    /// the cache hands entries out behind `Arc`, so they cannot change.
    wire: OnceLock<(String, String)>,
}

/// Equality is on the answer; the rendered fragments are derived from it.
impl PartialEq for CachedResult {
    fn eq(&self, other: &Self) -> bool {
        self.outcomes == other.outcomes && self.stats == other.stats
    }
}

impl Eq for CachedResult {}

impl CachedResult {
    /// An entry for `outcomes` with run statistics `stats`, taken as given.
    pub fn new(outcomes: OutcomeSet, stats: EnumStats) -> Self {
        CachedResult {
            outcomes,
            stats,
            wire: OnceLock::new(),
        }
    }

    /// Takes the cacheable part of an [`EnumResult`], normalizing the
    /// statistics to their deterministic subset. The outcome set moves
    /// into the entry; kept executions are dropped.
    pub fn from_result(result: EnumResult) -> Self {
        let mut stats = result.stats;
        stats.obs = stats.obs.map(|o| o.counters());
        CachedResult::new(result.outcomes, stats)
    }

    /// The outcome set as JSON: one array per outcome, holding one array
    /// of register values per thread (`[[[r,…],…],…]`).
    pub fn outcomes_json(&self) -> &str {
        &self.wire().0
    }

    /// The statistics as JSON ([`EnumStats::to_json`]).
    pub fn stats_json(&self) -> &str {
        &self.wire().1
    }

    fn wire(&self) -> &(String, String) {
        self.wire.get_or_init(|| {
            // A comma goes before every element but the first of its
            // array.
            let mut outcomes = String::from("[");
            for (i, o) in self.outcomes.iter().enumerate() {
                if i > 0 {
                    outcomes.push(',');
                }
                outcomes.push('[');
                for t in 0..o.thread_count() {
                    if t > 0 {
                        outcomes.push(',');
                    }
                    outcomes.push('[');
                    for (r, v) in o.thread_regs(t).iter().enumerate() {
                        if r > 0 {
                            outcomes.push(',');
                        }
                        let _ = write!(outcomes, "{}", v.raw());
                    }
                    outcomes.push(']');
                }
                outcomes.push(']');
            }
            outcomes.push(']');
            (outcomes, self.stats.to_json())
        })
    }
}

/// How [`EnumCache::get_or_fill`] found its answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup {
    /// Answered from the cache, perhaps after waiting; `false` for the filler.
    pub hit: bool,
    /// This caller waited on another caller's fill for the same key.
    pub waited: bool,
}

/// One LRU shard: fingerprint → (last-touch stamp, answer), plus the
/// running fills, each with whether a caller waits on it (waking is a
/// system call, so an unwatched fill skips it).
#[derive(Default)]
struct Shard {
    entries: HashMap<u128, (u64, Arc<CachedResult>)>,
    pending: HashMap<u128, bool>,
    clock: u64,
}

impl Shard {
    /// Returns a resident answer and refreshes its stamp; an absent key
    /// leaves the shard as it was.
    fn touch(&mut self, key: u128) -> Option<Arc<CachedResult>> {
        let slot = self.entries.get_mut(&key)?;
        self.clock += 1;
        slot.0 = self.clock;
        Some(Arc::clone(&slot.1))
    }

    /// Inserts, evicting the least-recently-touched entry when the shard
    /// is at `capacity`. Returns `true` when an eviction happened.
    fn insert(&mut self, key: u128, value: Arc<CachedResult>, capacity: usize) -> bool {
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

/// A shard, the condition variable notified when one of its fills ends,
/// and its lookup tallies.
#[derive(Default)]
struct ShardSlot {
    shard: Mutex<Shard>,
    filled: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ShardSlot {
    fn lock(&self) -> MutexGuard<'_, Shard> {
        self.shard.lock().expect("cache shard poisoned")
    }

    fn count(&self, hit: bool) {
        let tally = if hit { &self.hits } else { &self.misses };
        tally.fetch_add(1, Ordering::Relaxed);
    }
}

/// Clears a fill's pending mark and wakes the shard's waiters when
/// dropped, whether the fill returned or unwound.
struct PendingFill<'a> {
    slot: &'a ShardSlot,
    key: u128,
}

impl Drop for PendingFill<'_> {
    fn drop(&mut self) {
        if self.slot.lock().pending.remove(&self.key) == Some(true) {
            self.slot.filled.notify_all();
        }
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
    shards: Vec<ShardSlot>,
    capacity_per_shard: usize,
    evictions: AtomicU64,
    insertions: AtomicU64,
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
            shards: (0..shard_count).map(|_| ShardSlot::default()).collect(),
            capacity_per_shard: capacity_per_shard.max(1),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        }
    }

    fn shard_index(&self, fp: Fingerprint) -> usize {
        // The fingerprint is already a high-quality hash; fold the high
        // half in so shard choice uses all 128 bits.
        let raw = fp.raw();
        ((raw >> 64) ^ raw) as usize % self.shards.len()
    }

    fn shard_of(&self, fp: Fingerprint) -> MutexGuard<'_, Shard> {
        self.shards[self.shard_index(fp)].lock()
    }

    fn insert_at(&self, shard: &mut Shard, key: u128, value: Arc<CachedResult>) {
        if shard.insert(key, value, self.capacity_per_shard) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Looks up an answer, refreshing its LRU stamp on a hit. Does not
    /// wait for a running fill: a key being filled is a miss.
    pub fn get(&self, fp: Fingerprint) -> Option<Arc<CachedResult>> {
        let slot = &self.shards[self.shard_index(fp)];
        let found = slot.lock().touch(fp.raw());
        slot.count(found.is_some());
        found
    }

    /// Looks up a resident answer, counting a hit and refreshing its LRU
    /// stamp. A key that is absent, or still being filled, counts
    /// nothing and changes nothing, so a caller that must never run a
    /// fill itself (the event loop) can probe first and leave the miss
    /// to [`EnumCache::get_or_fill`], which counts it once.
    pub fn probe(&self, fp: Fingerprint) -> Option<Arc<CachedResult>> {
        let slot = &self.shards[self.shard_index(fp)];
        let found = slot.lock().touch(fp.raw())?;
        slot.count(true);
        Some(found)
    }

    /// Looks up an answer, running `fill` to compute and insert it on a
    /// miss. `fill` returns the entry behind an `Arc`, so an answer that
    /// is already shared elsewhere is inserted without a copy. One fill
    /// per fingerprint runs at a time: a caller that finds the key being
    /// filled waits, then counts as a hit (or fills itself when that
    /// fill failed). Every call counts one hit or one miss.
    /// `fill` runs with no lock held and must not look up `fp` itself, or
    /// it waits on its own pending mark forever.
    ///
    /// # Errors
    ///
    /// Whatever `fill` returns; errors are not cached. An error or a
    /// panic in `fill` clears the pending mark and wakes the waiters.
    pub fn get_or_fill<E>(
        &self,
        fp: Fingerprint,
        fill: impl FnOnce() -> Result<Arc<CachedResult>, E>,
    ) -> Result<(Arc<CachedResult>, Lookup), E> {
        let (slot, key) = (&self.shards[self.shard_index(fp)], fp.raw());
        let mut shard = slot.lock();
        let mut waited = false;
        loop {
            if let Some(found) = shard.touch(key) {
                slot.count(true);
                return Ok((found, Lookup { hit: true, waited }));
            }
            match shard.pending.get_mut(&key) {
                Some(watched) => *watched = true,
                None => {
                    shard.pending.insert(key, false);
                    break;
                }
            }
            waited = true;
            shard = slot.filled.wait(shard).expect("cache shard poisoned");
        }
        drop(shard);
        slot.count(false);
        let pending = PendingFill { slot, key };
        let value = fill()?;
        self.insert_at(&mut slot.lock(), key, Arc::clone(&value));
        drop(pending);
        Ok((value, Lookup { hit: false, waited }))
    }

    /// Inserts (or replaces) an answer.
    pub fn insert(&self, fp: Fingerprint, value: CachedResult) {
        self.insert_at(&mut self.shard_of(fp), fp.raw(), Arc::new(value));
    }

    /// Removes one entry; returns `true` when it was present.
    pub fn invalidate(&self, fp: Fingerprint) -> bool {
        self.shard_of(fp).entries.remove(&fp.raw()).is_some()
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        for slot in &self.shards {
            slot.lock().entries.clear();
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// Returns `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `fp` is resident, without counting a hit/miss or
    /// refreshing LRU recency — the cluster router's pre-check, which
    /// must not skew the cache statistics of queries it never answers.
    pub fn contains(&self, fp: Fingerprint) -> bool {
        self.shard_of(fp).entries.contains_key(&fp.raw())
    }

    /// Number of shards in this cache's geometry.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard counters, indexed by shard, for per-shard exposition
    /// labels. Hits and misses are only tallied per shard, so the rows
    /// always sum to the totals of [`EnumCache::stats`].
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|slot| ShardStats {
                entries: slot.lock().entries.len(),
                hits: slot.hits.load(Ordering::Relaxed),
                misses: slot.misses.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// A point-in-time snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let shards = self.shard_stats();
        CacheStats {
            hits: shards.iter().map(|s| s.hits).sum(),
            misses: shards.iter().map(|s| s.misses).sum(),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            entries: shards.iter().map(|s| s.entries).sum(),
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
        let mut rows: Vec<(u128, Arc<CachedResult>)> = Vec::new();
        for slot in &self.shards {
            let shard = slot.lock();
            rows.extend(shard.entries.iter().map(|(&k, (_, v))| (k, Arc::clone(v))));
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

/// Version tag of the persistence line format. Bumped whenever the
/// meaning of a stored field changes: version 2 keyed lines by table
/// view, version 3 stores pruned-engine stats that no longer depend on
/// `keep_executions`.
const PERSIST_VERSION: u32 = 3;

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
    Some((fp, CachedResult::new(outcomes, stats)))
}

/// Runs `engine` through the cache with [`EnumCache::get_or_fill`]: on
/// a hit the memoized answer is returned without enumerating; on a miss
/// the engine runs (with `keep_executions` forced off — executions are
/// never cached) and the normalized answer is inserted. Identical
/// concurrent calls share one run. The boolean is `true` on a hit.
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
) -> Result<(Arc<CachedResult>, bool), EnumError> {
    let fp = query_fingerprint(program, policy, config);
    let (value, lookup) = cache.get_or_fill(fp, || {
        let run_config = EnumConfig {
            keep_executions: false,
            ..config.clone()
        };
        engine(program, policy, &run_config)
            .map(|result| Arc::new(CachedResult::from_result(result)))
    })?;
    Ok((value, lookup.hit))
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

    /// The hit-only probe: a cold key counts nothing and touches no
    /// entry; a resident key counts one hit and refreshes its recency.
    #[test]
    fn probe_counts_and_refreshes_only_hits() {
        let cache = EnumCache::with_shards(1, 2);
        let value = CachedResult::new(OutcomeSet::default(), EnumStats::default());
        let fp = |n: u128| Fingerprint::from_raw(n);
        let counters = |cache: &EnumCache| {
            let s = cache.stats();
            (s.hits, s.misses, s.insertions, s.evictions)
        };
        assert!(cache.probe(fp(1)).is_none());
        assert_eq!(counters(&cache), (0, 0, 0, 0));
        cache.insert(fp(1), value.clone());
        cache.insert(fp(2), value.clone());
        assert!(cache.probe(fp(3)).is_none());
        assert_eq!(counters(&cache), (0, 0, 2, 0));
        assert!(cache.probe(fp(1)).is_some()); // refresh 1; 2 is now LRU
        assert_eq!(counters(&cache), (1, 0, 2, 0));
        cache.insert(fp(3), value);
        assert!(cache.contains(fp(1)));
        assert!(!cache.contains(fp(2)), "the probe must refresh recency");
    }

    /// A key whose fill is still running is a probe miss that counts
    /// nothing: the probe never waits on a fill.
    #[test]
    fn probe_does_not_wait_on_a_running_fill() {
        let cache = Arc::new(EnumCache::new(64));
        let fp = Fingerprint::from_raw(9);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let filler = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache
                    .get_or_fill::<()>(fp, || {
                        started_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        Ok(Arc::new(sb_entry()))
                    })
                    .unwrap()
            })
        };
        started_rx.recv().unwrap();
        assert!(cache.probe(fp).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (0, 1, 0));
        release_tx.send(()).unwrap();
        filler.join().unwrap();
        assert!(cache.probe(fp).is_some());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        // One shard of two entries gives exact global LRU order.
        let cache = EnumCache::with_shards(1, 2);
        let value = CachedResult::new(OutcomeSet::default(), EnumStats::default());
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
        // Weak and SC differ on SB's one store->load cell; TSO would
        // share Weak's view, and its entry.
        for policy in [Policy::weak(), Policy::sequential_consistency()] {
            cached_enumerate(&cache, &sb(), &policy, &config, enumerate).unwrap();
            cached_enumerate(&cache, &sb(), &policy, &observed, enumerate).unwrap();
        }
        let written = cache.save_to(&path).unwrap();
        assert_eq!(written, 4);

        let restored = EnumCache::new(64);
        let (loaded, skipped) = restored.load_from(&path).unwrap();
        assert_eq!((loaded, skipped), (4, 0));
        for policy in [Policy::weak(), Policy::sequential_consistency()] {
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
            "{PERSIST_VERSION}|{}|1,2,0,0,1,6|-|0,1/1,0;1,1/0,0",
            Fingerprint::from_raw(42)
        );
        // A well-formed line of the previous version: its stats were
        // counted under rules this version no longer applies.
        let stale = format!(
            "2|{}|1,2,0,0,1,6|-|0,1/1,0;1,1/0,0",
            Fingerprint::from_raw(9)
        );
        let body = format!(
            "{good}\nnot a cache line\n9|{}|1,2,0,0,1,6|-|\n{stale}\n\n",
            Fingerprint::from_raw(7)
        );
        std::fs::write(&path, body).unwrap();
        let cache = EnumCache::new(8);
        let (loaded, skipped) = cache.load_from(&path).unwrap();
        assert_eq!((loaded, skipped), (1, 3));
        let entry = cache.get(Fingerprint::from_raw(42)).unwrap();
        assert_eq!(entry.outcomes.len(), 2);
        assert_eq!(entry.stats.distinct_executions, 1);
        assert!(cache.get(Fingerprint::from_raw(7)).is_none());
        assert!(cache.get(Fingerprint::from_raw(9)).is_none());
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
        let value = CachedResult::new(OutcomeSet::default(), EnumStats::default());
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
        let value = CachedResult::new(OutcomeSet::default(), EnumStats::default());
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

    /// An entry distinguishable from the empty one.
    fn sb_entry() -> CachedResult {
        let result = enumerate(&sb(), &Policy::weak(), &EnumConfig::default()).unwrap();
        CachedResult::from_result(result)
    }

    #[test]
    fn concurrent_callers_share_one_fill() {
        const CALLERS: usize = 8;
        let cache = EnumCache::new(64);
        let fp = Fingerprint::from_raw(99);
        let fills = AtomicU64::new(0);
        let barrier = std::sync::Barrier::new(CALLERS);
        let answers: Vec<(Arc<CachedResult>, Lookup)> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..CALLERS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache
                            .get_or_fill(fp, || {
                                fills.fetch_add(1, Ordering::Relaxed);
                                // Long enough for every caller to arrive.
                                std::thread::sleep(std::time::Duration::from_millis(50));
                                Ok::<_, EnumError>(Arc::new(sb_entry()))
                            })
                            .unwrap()
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        assert_eq!(fills.load(Ordering::Relaxed), 1, "one fill per key");
        assert_eq!(answers.iter().filter(|(_, l)| !l.hit).count(), 1);
        assert!(answers.iter().all(|(v, _)| **v == sb_entry()));
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, CALLERS as u64);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
    }

    /// A `get_or_fill` of `fp` on another thread, given up on after ten
    /// seconds, so a lost wake-up fails the test instead of hanging it.
    fn fill_in_time(cache: &Arc<EnumCache>, fp: Fingerprint) -> Lookup {
        let (cache, (done, answer)) = (Arc::clone(cache), std::sync::mpsc::channel());
        std::thread::spawn(move || {
            let filled = cache.get_or_fill(fp, || Ok::<_, EnumError>(Arc::new(sb_entry())));
            done.send(filled.unwrap().1).unwrap();
        });
        answer
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("get_or_fill must not wait on a finished fill")
    }

    #[test]
    fn a_failed_fill_caches_nothing_and_the_next_caller_fills() {
        let cache = Arc::new(EnumCache::new(64));
        let fp = Fingerprint::from_raw(5);
        let failed = cache.get_or_fill(fp, || Err(EnumError::Stuck));
        assert!(matches!(failed, Err(EnumError::Stuck)));
        assert!(cache.is_empty(), "errors are never cached");
        let filled = Lookup {
            hit: false,
            waited: false,
        };
        assert_eq!(fill_in_time(&cache, fp), filled);
        assert_eq!(*cache.get(fp).unwrap(), sb_entry());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 2, 1));
    }

    #[test]
    fn a_panicking_fill_releases_its_waiters() {
        let cache = Arc::new(EnumCache::new(64));
        let fp = Fingerprint::from_raw(6);
        let (started, filling) = std::sync::mpsc::channel();
        let filler = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.get_or_fill(fp, || -> Result<Arc<CachedResult>, EnumError> {
                    started.send(()).unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    panic!("fill panics")
                })
            })
        };
        filling.recv().unwrap();
        let after_the_panic = Lookup {
            hit: false,
            waited: true,
        };
        assert_eq!(fill_in_time(&cache, fp), after_the_panic);
        assert!(filler.join().is_err());
        assert!(cache.contains(fp));
    }
}
