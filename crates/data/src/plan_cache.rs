//! A bounded prepared-statement cache: SQL text → compiled plan.
//!
//! The seed engine parsed and planned every statement from scratch on
//! each call. Repeated statements — the common case in an OLTP-ish
//! workload — now hit a small LRU map keyed by the exact SQL text.
//! Entries carry the *epoch* they were planned under (catalog schema
//! version plus planner settings); a lookup whose epoch differs is a
//! miss and evicts the stale entry, so DDL and join-algorithm changes
//! invalidate cached plans without any explicit flush hook.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::planner::PlannedQuery;

struct CachedPlan {
    epoch: u64,
    planned: Arc<PlannedQuery>,
    /// Logical clock of the last lookup that returned this entry.
    last_used: u64,
}

struct CacheInner {
    entries: HashMap<String, CachedPlan>,
    clock: u64,
}

/// Counters for observing cache effectiveness (E9 reports them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that returned a current-epoch plan.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries (0 = caching disabled).
    pub capacity: usize,
}

/// Bounded LRU plan cache. Capacity 0 disables caching entirely (every
/// lookup misses, inserts are dropped) — the embedded profile's choice.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// Create a cache holding at most `capacity` plans.
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                clock: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look up `sql`. Returns the cached plan only if it was built under
    /// `epoch`; a stale entry is dropped on the spot.
    pub fn get(&self, sql: &str, epoch: u64) -> Option<Arc<PlannedQuery>> {
        if self.capacity == 0 {
            return None;
        }
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.entries.get_mut(sql) {
            Some(entry) if entry.epoch == epoch => {
                entry.last_used = clock;
                let planned = entry.planned.clone();
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(planned)
            }
            Some(_) => {
                inner.entries.remove(sql);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a freshly built plan, evicting the least-recently-used
    /// entry if the cache is full.
    pub fn insert(&self, sql: &str, epoch: u64, planned: Arc<PlannedQuery>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if !inner.entries.contains_key(sql) && inner.entries.len() >= self.capacity {
            if let Some(victim) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.entries.remove(&victim);
            }
        }
        inner.entries.insert(
            sql.to_string(),
            CachedPlan {
                epoch,
                planned,
                last_used: clock,
            },
        );
    }

    /// Drop every cached plan (does not reset hit/miss counters).
    pub fn clear(&self) {
        self.inner.lock().entries.clear();
    }

    /// Current counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.inner.lock().entries.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Plan;

    fn planned(label: &str) -> Arc<PlannedQuery> {
        Arc::new(PlannedQuery {
            plan: Plan::Values { rows: vec![] },
            columns: vec![label.to_string()],
            decisions: vec![],
        })
    }

    #[test]
    fn hit_requires_matching_epoch() {
        let cache = PlanCache::new(4);
        cache.insert("SELECT 1", 7, planned("a"));
        assert!(cache.get("SELECT 1", 7).is_some());
        // Epoch moved: the entry is stale and gets evicted.
        assert!(cache.get("SELECT 1", 8).is_none());
        assert!(cache.get("SELECT 1", 7).is_none(), "stale entry dropped");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let cache = PlanCache::new(2);
        cache.insert("q1", 0, planned("1"));
        cache.insert("q2", 0, planned("2"));
        // Touch q1 so q2 is the LRU victim.
        assert!(cache.get("q1", 0).is_some());
        cache.insert("q3", 0, planned("3"));
        assert!(cache.get("q2", 0).is_none(), "LRU entry evicted");
        assert!(cache.get("q1", 0).is_some());
        assert!(cache.get("q3", 0).is_some());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn reinsert_does_not_evict() {
        let cache = PlanCache::new(2);
        cache.insert("q1", 0, planned("1"));
        cache.insert("q2", 0, planned("2"));
        // Same key at capacity: replaces in place.
        cache.insert("q1", 1, planned("1b"));
        assert_eq!(cache.stats().entries, 2);
        assert!(cache.get("q1", 1).is_some());
        assert!(cache.get("q2", 0).is_some());
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let cache = PlanCache::new(0);
        cache.insert("q", 0, planned("x"));
        assert!(cache.get("q", 0).is_none());
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().capacity, 0);
    }

    #[test]
    fn clear_empties_entries() {
        let cache = PlanCache::new(4);
        cache.insert("q", 0, planned("x"));
        cache.clear();
        assert!(cache.get("q", 0).is_none());
    }

    /// Index DDL flows through `Catalog::update_table`, which bumps the
    /// catalog version folded into the plan-cache epoch — so CREATE and
    /// DROP INDEX must both stop a cached plan from serving (a cached
    /// seq scan would miss the new index; a cached index scan would
    /// probe a dropped one).
    #[test]
    fn index_ddl_invalidates_cached_plans() {
        use crate::executor::Database;
        let dir = std::env::temp_dir()
            .join("sbdms-plan-cache-tests")
            .join(format!("index-ddl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::open(&dir).unwrap();
        let s = db.session();
        s.execute("CREATE TABLE t (k INT NOT NULL, v INT NOT NULL)")
            .unwrap();
        s.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
            .unwrap();
        let explain = |sql: &str| {
            s.execute(&format!("EXPLAIN {sql}"))
                .unwrap()
                .rows
                .iter()
                .map(|r| r[0].to_string())
                .collect::<Vec<_>>()
                .join("\n")
        };
        let sql = "SELECT v FROM t WHERE k = 2";
        s.execute(sql).unwrap();
        let hits0 = db.plan_cache_stats().hits;
        s.execute(sql).unwrap();
        assert_eq!(db.plan_cache_stats().hits, hits0 + 1, "repeat should hit");

        s.execute("CREATE INDEX t_k ON t (k)").unwrap();
        assert!(explain(sql).contains("IndexScan"), "new index should be taken");
        s.execute(sql).unwrap();
        assert_eq!(
            db.plan_cache_stats().hits,
            hits0 + 1,
            "CREATE INDEX must invalidate the cached plan"
        );
        s.execute(sql).unwrap();
        assert_eq!(db.plan_cache_stats().hits, hits0 + 2, "fresh plan caches again");

        s.execute("DROP INDEX t_k ON t").unwrap();
        assert!(explain(sql).contains("TableScan"), "dropped index must not plan");
        s.execute(sql).unwrap();
        assert_eq!(
            db.plan_cache_stats().hits,
            hits0 + 2,
            "DROP INDEX must invalidate the cached plan"
        );
        s.execute(sql).unwrap();
        assert_eq!(db.plan_cache_stats().hits, hits0 + 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
