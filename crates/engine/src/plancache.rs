//! A sharded, LRU plan cache — the serving layer's memory.
//!
//! [`Session::query`](crate::Session::query) re-parses, re-binds and
//! re-optimizes every statement, including the paper's Algorithm 1
//! CNF→DNF uniqueness tests, even when the same query text arrives over
//! and over. This module amortizes that work the way production engines
//! do: a map from a *normalized query fingerprint* to the optimized
//! [`BoundOutput`] plus its rewrite trace, shared by every thread
//! serving the session.
//!
//! **Keying.** The fingerprint is the FNV-1a hash
//! ([`uniq_types::hash`]) of the canonical printed form of the parsed
//! query (`sql::printer` normalizes whitespace, case and parenthesis
//! noise) mixed with an optimizer-options tag, since differently
//! configured sessions must not share plans. The canonical text is
//! stored in the entry and re-verified on every probe, so a 64-bit hash
//! collision degrades to a cache miss, never a wrong plan. Host-variable
//! queries key naturally: `:X` prints canonically, and variable *values*
//! are supplied at execution, so one cached plan serves every binding.
//!
//! **Invalidation.** Each entry records the
//! [`Database::version`](uniq_catalog::Database::version) it was
//! compiled against. A probe presenting a different version treats the
//! entry as stale, removes it, and counts an invalidation — schema DDL
//! invalidates lazily, with no stop-the-world sweep. All sessions
//! sharing one cache must share one schema history (clones made for
//! read-only fan-out are fine; divergent DDL on clones is not).
//!
//! **Concurrency.** The map is split into [`SHARDS`] shards, each behind
//! its own `std::sync::RwLock`, selected by the fingerprint's high bits.
//! Probes take a shard read lock; recency is an atomic stamp from a
//! cache-global clock, so hits never take a write lock. Inserts take the
//! shard write lock and evict that shard's least-recently-used entry at
//! capacity. Hit/miss/eviction/invalidation counters are atomics,
//! accurate under concurrent load.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use uniq_core::pipeline::{OptimizerOptions, RewriteTrace};
use uniq_cost::PlannerOptions;
use uniq_plan::BoundOutput;
use uniq_types::{ColumnName, Fnv64};

/// Number of independently locked shards.
pub const SHARDS: usize = 8;

/// Default total capacity of a session's plan cache.
pub const DEFAULT_CAPACITY: usize = 1024;

/// A compiled, optimized query ready to execute.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The optimized query: body plus aggregation / `ORDER BY` /
    /// `LIMIT` output clauses (empty for the paper's §2 subset).
    pub query: BoundOutput,
    /// The rewrite trace the optimizer produced when compiling it —
    /// steps, per-rule stats and fixpoint shape, served verbatim on
    /// every hit so `EXPLAIN` can show what compilation did. Shared, so
    /// a hit hands it out without copying its bound ASTs.
    pub trace: Arc<RewriteTrace>,
    /// Output column names (derived from `query`, shared with every
    /// hit's output so the hit path copies nothing).
    pub columns: Arc<[ColumnName]>,
    /// The physical plan every execution of `query` runs: cost-based
    /// after `ANALYZE`, the fixed plan before it.
    pub physical: Arc<uniq_cost::PhysicalPlan>,
}

/// The tag mixed into plan fingerprints so differently configured
/// engines never share plans. It covers the optimizer knobs, the planner
/// configuration and the statistics epoch (cached plans embed physical
/// choices made from statistics, so re-`ANALYZE` must recompile them).
/// The option structs are hashed field by field through their derived
/// `Hash`, so every knob, present or future, is covered without
/// formatting anything on the query path.
pub fn options_tag(
    optimizer: &OptimizerOptions,
    planner: &PlannerOptions,
    stats_epoch: u64,
) -> u64 {
    let mut h = Fnv64::new();
    (optimizer, planner, stats_epoch).hash(&mut h);
    h.finish()
}

struct Entry {
    /// Full canonical key (printed query + options tag); verified on
    /// every probe so fingerprint collisions cannot serve a wrong plan.
    text: String,
    /// Catalog version the plan was compiled against.
    catalog_version: u64,
    /// Recency stamp from the cache-global clock (atomic so read-locked
    /// probes can update it).
    last_used: AtomicU64,
    plan: Arc<CachedPlan>,
}

/// Counter snapshot; see [`PlanCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes that returned a valid plan.
    pub hits: u64,
    /// Probes that found nothing usable.
    pub misses: u64,
    /// Plans stored.
    pub insertions: u64,
    /// Entries evicted to make room (LRU within the shard).
    pub evictions: u64,
    /// Entries dropped because their catalog version was stale.
    pub invalidations: u64,
}

impl CacheStats {
    /// Hits as a fraction of probes, 0.0 when nothing was probed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulate another snapshot into this one.
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.invalidations += other.invalidations;
    }
}

/// The sharded LRU plan cache. Create one per logical database (a
/// [`Session`](crate::Session) does this for you) and share it freely
/// across threads.
pub struct PlanCache {
    shards: Vec<RwLock<HashMap<u64, Entry>>>,
    /// Per-shard entry budget; 0 disables the cache entirely (every
    /// probe misses, nothing is stored) — the uncached baseline.
    shard_capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_CAPACITY)
    }
}

impl PlanCache {
    /// A cache holding up to `capacity` plans (rounded up to a multiple
    /// of [`SHARDS`]). `capacity == 0` yields a disabled cache: probes
    /// always miss and inserts are dropped, which is the uncached
    /// baseline used by benchmarks.
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            shard_capacity: capacity.div_ceil(SHARDS),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Total plan capacity.
    pub fn capacity(&self) -> usize {
        self.shard_capacity * SHARDS
    }

    /// Hash a canonicalized query text once. Callers that probe the
    /// cache repeatedly (or under several option tags) should compute
    /// this interned hash a single time and combine it with each tag via
    /// [`PlanCache::fingerprint_with`] — re-hashing the full SQL text on
    /// every probe is the cost this split removes.
    pub fn sql_hash(canonical: &str) -> u64 {
        uniq_types::fnv64(canonical.as_bytes())
    }

    /// Combine an interned [`PlanCache::sql_hash`] with an options tag
    /// into a cache fingerprint. O(1): two 64-bit words through FNV,
    /// independent of the query text's length.
    pub fn fingerprint_with(sql_hash: u64, options_tag: u64) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(options_tag).write_u64(sql_hash);
        h.finish()
    }

    /// The fingerprint of a canonicalized query under an options tag.
    /// `canonical` should come from printing the parsed AST (so textual
    /// noise — whitespace, case of keywords — has been normalized away),
    /// and `options_tag` distinguishes optimizer configurations.
    /// Equivalent to `fingerprint_with(sql_hash(canonical), options_tag)`;
    /// prefer the split form when the same text is probed more than once.
    pub fn fingerprint(canonical: &str, options_tag: u64) -> u64 {
        PlanCache::fingerprint_with(PlanCache::sql_hash(canonical), options_tag)
    }

    fn shard(&self, fingerprint: u64) -> &RwLock<HashMap<u64, Entry>> {
        // High bits: FNV mixes them well, and the low bits already pick
        // the bucket inside the shard's HashMap.
        &self.shards[(fingerprint >> 59) as usize % SHARDS]
    }

    /// Probe for a plan compiled for `canonical` text (including the
    /// options tag, exactly as passed to [`PlanCache::insert`]) at the
    /// given catalog version. Counts a hit or a miss; stale entries are
    /// removed and counted as invalidations.
    pub fn get(
        &self,
        fingerprint: u64,
        canonical: &str,
        catalog_version: u64,
    ) -> Option<Arc<CachedPlan>> {
        if self.shard_capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let shard = self.shard(fingerprint);
        let mut stale = false;
        {
            let map = shard.read().expect("plan cache shard poisoned");
            match map.get(&fingerprint) {
                Some(entry) if entry.text == canonical => {
                    if entry.catalog_version == catalog_version {
                        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
                        entry.last_used.store(stamp, Ordering::Relaxed);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Some(Arc::clone(&entry.plan));
                    }
                    stale = true;
                }
                _ => {}
            }
        }
        if stale {
            let mut map = shard.write().expect("plan cache shard poisoned");
            // Re-check under the write lock: another thread may already
            // have replaced the stale entry with a fresh compilation.
            if let Some(entry) = map.get(&fingerprint) {
                if entry.text == canonical && entry.catalog_version != catalog_version {
                    map.remove(&fingerprint);
                    self.invalidations.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Store a compiled plan and return it, shared with the cache entry.
    /// At capacity the shard's least-recently used entry is evicted. A
    /// plan for the same fingerprint simply replaces the old entry (last
    /// compilation wins); a disabled cache stores nothing.
    pub fn insert(
        &self,
        fingerprint: u64,
        canonical: &str,
        catalog_version: u64,
        plan: CachedPlan,
    ) -> Arc<CachedPlan> {
        let plan = Arc::new(plan);
        if self.shard_capacity == 0 {
            return plan;
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let entry = Entry {
            text: canonical.to_string(),
            catalog_version,
            last_used: AtomicU64::new(stamp),
            plan: Arc::clone(&plan),
        };
        let shard = self.shard(fingerprint);
        let mut map = shard.write().expect("plan cache shard poisoned");
        if map.len() >= self.shard_capacity && !map.contains_key(&fingerprint) {
            if let Some((&victim, _)) = map
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
            {
                map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        map.insert(fingerprint, entry);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        plan
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("plan cache shard poisoned").len())
            .sum()
    }

    /// Whether the cache currently holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached plan (counters are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().expect("plan cache shard poisoned").clear();
        }
    }

    /// A consistent-enough snapshot of the counters (each counter is
    /// read atomically; the set is not a single atomic snapshot).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> CachedPlan {
        // A minimal bound query to stand in for a real plan.
        let db = uniq_catalog::sample::supplier_database().unwrap();
        let ast = uniq_sql::parse_query("SELECT S.SNO FROM SUPPLIER S").unwrap();
        let query = BoundOutput::plain(uniq_plan::bind_query(db.catalog(), &ast).unwrap());
        let physical = uniq_cost::plan_output(&query, None, PlannerOptions::default());
        CachedPlan {
            columns: query.output_names().into(),
            query,
            trace: Arc::default(),
            physical: Arc::new(physical),
        }
    }

    #[test]
    fn hit_after_insert_and_miss_before() {
        let cache = PlanCache::new(16);
        let fp = PlanCache::fingerprint("SELECT 1", 0);
        assert!(cache.get(fp, "SELECT 1", 1).is_none());
        cache.insert(fp, "SELECT 1", 1, plan());
        assert!(cache.get(fp, "SELECT 1", 1).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn version_mismatch_invalidates() {
        let cache = PlanCache::new(16);
        let fp = PlanCache::fingerprint("Q", 0);
        cache.insert(fp, "Q", 1, plan());
        assert!(cache.get(fp, "Q", 2).is_none(), "stale plan must not serve");
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.len(), 0, "stale entry removed");
    }

    #[test]
    fn colliding_fingerprint_with_different_text_is_a_miss() {
        let cache = PlanCache::new(16);
        let fp = 0xDEAD_BEEF;
        cache.insert(fp, "QUERY A", 1, plan());
        assert!(cache.get(fp, "QUERY B", 1).is_none());
        assert!(cache.get(fp, "QUERY A", 1).is_some());
    }

    #[test]
    fn lru_eviction_at_capacity() {
        // Capacity rounds up to one entry per shard; overfill a single
        // shard by pinning the fingerprints' shard-selector bits.
        let cache = PlanCache::new(SHARDS);
        let fp = |i: u64| i; // shard selector = high bits = 0 for small i
        cache.insert(fp(1), "Q1", 1, plan());
        cache.insert(fp(2), "Q2", 1, plan());
        // Shard 0 has capacity 1: Q1 was evicted by Q2.
        assert!(cache.get(fp(1), "Q1", 1).is_none());
        assert!(cache.get(fp(2), "Q2", 1).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn recency_protects_hot_entries() {
        let cache = PlanCache::new(2 * SHARDS);
        cache.insert(1, "Q1", 1, plan());
        cache.insert(2, "Q2", 1, plan());
        // Touch Q1 so Q2 is the LRU victim when Q3 arrives.
        assert!(cache.get(1, "Q1", 1).is_some());
        cache.insert(3, "Q3", 1, plan());
        assert!(cache.get(1, "Q1", 1).is_some(), "hot entry survived");
        assert!(cache.get(2, "Q2", 1).is_none(), "cold entry evicted");
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let cache = PlanCache::new(0);
        let fp = PlanCache::fingerprint("Q", 0);
        cache.insert(fp, "Q", 1, plan());
        assert!(cache.get(fp, "Q", 1).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().insertions, 0);
    }

    #[test]
    fn options_tag_separates_configurations() {
        let a = PlanCache::fingerprint("SELECT 1", 0);
        let b = PlanCache::fingerprint("SELECT 1", 1);
        assert_ne!(a, b);
    }

    #[test]
    fn interned_sql_hash_matches_direct_fingerprint() {
        // The split form (hash the text once, mix each tag in O(1))
        // must agree with the one-shot fingerprint for every tag.
        let text = "SELECT S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto'";
        let h = PlanCache::sql_hash(text);
        for tag in [0, 1, 7, u64::MAX] {
            assert_eq!(
                PlanCache::fingerprint_with(h, tag),
                PlanCache::fingerprint(text, tag)
            );
        }
        // Different texts intern to different hashes.
        assert_ne!(h, PlanCache::sql_hash("SELECT 1"));
    }

    #[test]
    fn options_tag_differs_whenever_any_option_or_the_epoch_does() {
        use uniq_core::rewrite::distinct::UniquenessTest;
        use uniq_cost::{DistinctMethod, JoinMethod};
        type Options = (OptimizerOptions, PlannerOptions);
        let base: Options = (OptimizerOptions::relational(), PlannerOptions::default());
        let flips: Vec<fn(&mut Options)> = vec![
            |o| o.0.remove_redundant_distinct ^= true,
            |o| o.0.subquery_to_join ^= true,
            |o| o.0.setops_to_exists ^= true,
            |o| o.0.join_to_subquery ^= true,
            |o| o.0.join_elimination ^= true,
            |o| o.0.distinct_pushdown ^= true,
            |o| o.0.agg_elision ^= true,
            |o| o.0.test = UniquenessTest::Algorithm1,
            |o| o.0.test = UniquenessTest::FdClosure,
            |o| o.0.max_steps += 1,
            |o| o.1.distinct = DistinctMethod::Hash,
            |o| o.1.join = JoinMethod::NestedLoop,
            |o| o.1.early_stop ^= true,
        ];
        let tag = |o: &Options, epoch| options_tag(&o.0, &o.1, epoch);
        let mut tags = vec![tag(&base, 0), tag(&base, 1), tag(&base, 2)];
        for flip in flips {
            let mut changed = base;
            flip(&mut changed);
            tags.push(tag(&changed, 0));
        }
        let distinct: std::collections::HashSet<u64> = tags.iter().copied().collect();
        assert_eq!(distinct.len(), tags.len(), "every change moves the tag");
        // Equal options give equal tags, so equal engines share plans.
        assert_eq!(tag(&base, 3), tag(&base, 3));
    }

    #[test]
    fn concurrent_probes_lose_no_counter_updates() {
        let cache = PlanCache::new(64);
        let fp = PlanCache::fingerprint("HOT", 0);
        cache.insert(fp, "HOT", 1, plan());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        assert!(cache.get(fp, "HOT", 1).is_some());
                    }
                });
            }
        });
        assert_eq!(cache.stats().hits, 8 * 1000);
    }
}
