//! A bounded plan cache of *generic* plans: statement shape → plans.
//!
//! A statement reaches the cache as a shape and its parameter values.
//! [`crate::parser::lift_literals`] turns a text SELECT, UPDATE or DELETE
//! into that form in one tokenizer pass (`k = 7` and `k = 8` are both
//! the shape `k = ?`), and a wire `execute` brings its `?` values along.
//! A shape holds a few *variants*, each a plan for the values it was
//! planned with plus the guards that say which other values it serves:
//!
//! * the type of every parameter (NULL, bool, int, float or text) is
//!   part of every variant;
//! * an equality parameter the cost model read through
//!   `ColumnStats::selectivity_eq` holds for every value on the same
//!   side of the column's [min, max] ([`Guard::Domain`]);
//! * a value the planner consumed exactly (a range bound, an IN-list
//!   member, an ORDER BY ordinal, a structural match) is pinned
//!   ([`Guard::Pin`]).
//!
//! The planner records these as it reads each value ([`Binding`]), so
//! there is one planner: a lookup whose values fail every variant's
//! guards plans afresh with those values and adds a variant.
//!
//! Variants also carry the *epoch* they were planned under (catalog
//! schema version, statistics version and planner settings); a lookup
//! whose epoch differs drops them, so DDL, ANALYZE and knob changes
//! invalidate cached plans without an explicit flush hook.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use sbdms_access::record::Datum;
use sbdms_kernel::error::Result;

use crate::catalog::TableMeta;
use crate::planner::{CatalogView, ParamRead, PlannerKnobs};

/// Most variants one shape keeps; past it the shape's least recently
/// used variant goes.
pub const MAX_VARIANTS_PER_SHAPE: usize = 8;

/// The value region a generic plan's choices hold for, for one
/// parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum Guard {
    /// Parameter `param` must be exactly `value`.
    Pin {
        /// 0-based parameter index.
        param: usize,
        /// The value the plan was built with.
        value: Datum,
    },
    /// Parameter `param` must be non-NULL and lie inside [min, max]
    /// (`inside`) or outside it (`!inside`).
    Domain {
        /// 0-based parameter index.
        param: usize,
        /// The column's smallest value in its statistics.
        min: Datum,
        /// The column's largest value in its statistics.
        max: Datum,
        /// Which side of the domain the plan was built for.
        inside: bool,
    },
}

/// Whether `value` lies in [min, max] the way
/// `ColumnStats::selectivity_eq` decides it.
fn in_domain(value: &Datum, min: &Datum, max: &Datum) -> bool {
    value.order(min) != std::cmp::Ordering::Less
        && value.order(max) != std::cmp::Ordering::Greater
}

impl Guard {
    /// Whether `params` satisfy this guard.
    pub fn admits(&self, params: &[Datum]) -> bool {
        match self {
            Guard::Pin { param, value } => params.get(*param) == Some(value),
            Guard::Domain {
                param,
                min,
                max,
                inside,
            } => params
                .get(*param)
                .is_some_and(|v| !v.is_null() && in_domain(v, min, max) == *inside),
        }
    }

    fn param(&self) -> usize {
        match self {
            Guard::Pin { param, .. } | Guard::Domain { param, .. } => *param,
        }
    }
}

/// A value as EXPLAIN's generic line shows it (text quoted).
fn show(d: &Datum) -> String {
    match d {
        Datum::Str(s) => format!("'{s}'"),
        other => other.to_string(),
    }
}

/// The `generic: ...` line EXPLAIN prints for a plan over `n`
/// parameters: each parameter's region, `any` when no choice read it.
pub fn describe_guards(guards: &[Guard], n: usize) -> String {
    let parts: Vec<String> = (0..n)
        .map(|i| {
            let mine: Vec<&Guard> = guards.iter().filter(|g| g.param() == i).collect();
            let pin = mine.iter().find_map(|g| match g {
                Guard::Pin { value, .. } => Some(value),
                _ => None,
            });
            let regions: Vec<String> = mine
                .iter()
                .filter_map(|g| match g {
                    Guard::Domain { min, max, inside, .. } => Some(format!(
                        "{} [{}, {}]",
                        if *inside { "in" } else { "outside" },
                        show(min),
                        show(max)
                    )),
                    Guard::Pin { .. } => None,
                })
                .collect();
            match (pin, regions.is_empty()) {
                (Some(v), _) => format!("${} = {}", i + 1, show(v)),
                (None, true) => format!("${} any", i + 1),
                (None, false) => format!("${} {}", i + 1, regions.join(" and ")),
            }
        })
        .collect();
    format!("generic: {}", parts.join("; "))
}

/// A one-byte type tag per datum variant.
fn type_tag(d: &Datum) -> u8 {
    match d {
        Datum::Null => 0,
        Datum::Bool(_) => 1,
        Datum::Int(_) => 2,
        Datum::Float(_) => 3,
        Datum::Str(_) => 4,
    }
}

/// A planner's view of the catalog with one statement's parameter
/// values bound: every read of a value through
/// [`CatalogView::param`] records the guard that keeps the choice it
/// informs valid.
pub struct Binding<'a> {
    catalog: &'a dyn CatalogView,
    params: &'a [Datum],
    guards: RefCell<Vec<Guard>>,
}

impl<'a> Binding<'a> {
    /// Bind `params` over `catalog`.
    pub fn new(catalog: &'a dyn CatalogView, params: &'a [Datum]) -> Binding<'a> {
        Binding {
            catalog,
            params,
            guards: RefCell::new(Vec::new()),
        }
    }

    /// The guards recorded so far.
    pub fn guards(&self) -> Vec<Guard> {
        self.guards.borrow().clone()
    }
}

impl CatalogView for Binding<'_> {
    fn table(&self, name: &str) -> Result<Arc<TableMeta>> {
        self.catalog.table(name)
    }

    fn view_query(&self, name: &str) -> Option<String> {
        self.catalog.view_query(name)
    }

    fn mvcc_scan_multiplier(&self, table: &str) -> f64 {
        self.catalog.mvcc_scan_multiplier(table)
    }

    fn knobs(&self) -> PlannerKnobs {
        self.catalog.knobs()
    }

    fn param(&self, i: usize, read: ParamRead<'_>) -> Option<Datum> {
        let value = self.params.get(i)?.clone();
        let guard = match read {
            ParamRead::Eq(stats) if !value.is_null() => match (&stats.min, &stats.max) {
                (Some(min), Some(max)) => {
                    let (min, max) = (min.to_datum(), max.to_datum());
                    Guard::Domain {
                        param: i,
                        inside: in_domain(&value, &min, &max),
                        min,
                        max,
                    }
                }
                // No domain: the estimate is the same for every value.
                _ => return Some(value),
            },
            _ => Guard::Pin {
                param: i,
                value: value.clone(),
            },
        };
        let mut guards = self.guards.borrow_mut();
        if !guards.contains(&guard) {
            guards.push(guard);
        }
        Some(value)
    }
}

/// One generic plan of a shape.
struct Variant<T> {
    epoch: u64,
    types: Vec<u8>,
    guards: Vec<Guard>,
    plan: Arc<T>,
    /// Logical clock of the last lookup that returned this variant.
    last_used: u64,
}

impl<T> Variant<T> {
    fn admits(&self, params: &[Datum]) -> bool {
        self.types.len() == params.len()
            && self.types.iter().zip(params).all(|(&t, d)| t == type_tag(d))
            && self.guards.iter().all(|g| g.admits(params))
    }
}

struct CacheInner<T> {
    shapes: HashMap<String, Vec<Variant<T>>>,
    /// Variants resident across all shapes.
    len: usize,
    clock: u64,
}

impl<T> CacheInner<T> {
    /// Drop the least recently used variant of the whole cache.
    fn evict_lru(&mut self) {
        let victim = self
            .shapes
            .iter()
            .flat_map(|(k, vs)| vs.iter().enumerate().map(move |(i, v)| (v.last_used, k, i)))
            .min_by_key(|(used, _, _)| *used)
            .map(|(_, k, i)| (k.clone(), i));
        if let Some((shape, i)) = victim {
            self.remove(&shape, i);
        }
    }

    fn remove(&mut self, shape: &str, i: usize) {
        if let Some(vs) = self.shapes.get_mut(shape) {
            vs.remove(i);
            self.len -= 1;
            if vs.is_empty() {
                self.shapes.remove(shape);
            }
        }
    }
}

/// Counters for observing cache effectiveness (E9 reports them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that returned a current-epoch plan.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Plans currently resident (every variant of every shape).
    pub entries: usize,
    /// Maximum resident plans (0 = caching disabled).
    pub capacity: usize,
}

/// Bounded LRU cache of generic plans. Capacity 0 disables caching
/// entirely (every lookup misses, inserts are dropped) — the embedded
/// profile's choice.
pub struct PlanCache<T> {
    capacity: usize,
    inner: Mutex<CacheInner<T>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<T> PlanCache<T> {
    /// Create a cache holding at most `capacity` plans.
    pub fn new(capacity: usize) -> PlanCache<T> {
        PlanCache {
            capacity,
            inner: Mutex::new(CacheInner {
                shapes: HashMap::new(),
                len: 0,
                clock: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look up a plan of `shape` that serves `params` and was built
    /// under `epoch`. The shape's variants from another epoch are
    /// dropped on the spot.
    pub fn get(&self, shape: &str, params: &[Datum], epoch: u64) -> Option<Arc<T>> {
        if self.capacity == 0 {
            return None;
        }
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.clock += 1;
        let clock = inner.clock;
        let mut found = None;
        if let Some(variants) = inner.shapes.get_mut(shape) {
            let before = variants.len();
            variants.retain(|v| v.epoch == epoch);
            inner.len -= before - variants.len();
            if let Some(v) = variants.iter_mut().find(|v| v.admits(params)) {
                v.last_used = clock;
                found = Some(v.plan.clone());
            }
            if variants.is_empty() {
                inner.shapes.remove(shape);
            }
        }
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// The plan [`PlanCache::get`] would return, without counting the
    /// lookup or touching any variant.
    pub fn peek(&self, shape: &str, params: &[Datum], epoch: u64) -> Option<Arc<T>> {
        let inner = self.inner.lock();
        let variants = inner.shapes.get(shape)?;
        variants
            .iter()
            .find(|v| v.epoch == epoch && v.admits(params))
            .map(|v| v.plan.clone())
    }

    /// Add a plan of `shape` built for `params` under `epoch`, valid
    /// wherever `guards` hold. A variant with the same types and guards
    /// is replaced; otherwise the shape's, then the cache's, least
    /// recently used variant makes room.
    pub fn insert(
        &self,
        shape: &str,
        params: &[Datum],
        guards: Vec<Guard>,
        epoch: u64,
        plan: Arc<T>,
    ) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let variant = Variant {
            epoch,
            types: params.iter().map(type_tag).collect(),
            guards,
            plan,
            last_used: inner.clock,
        };
        let mut full = None;
        if let Some(variants) = inner.shapes.get_mut(shape) {
            if let Some(same) = variants
                .iter_mut()
                .find(|v| v.types == variant.types && v.guards == variant.guards)
            {
                *same = variant;
                return;
            }
            if variants.len() >= MAX_VARIANTS_PER_SHAPE {
                full = (0..variants.len()).min_by_key(|&i| variants[i].last_used);
            }
        }
        if let Some(i) = full {
            inner.remove(shape, i);
        }
        if inner.len >= self.capacity {
            inner.evict_lru();
        }
        inner.len += 1;
        inner.shapes.entry(shape.to_string()).or_default().push(variant);
    }

    /// Drop every cached plan (does not reset hit/miss counters).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.shapes.clear();
        inner.len = 0;
    }

    /// Current counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.inner.lock().len,
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{Plan, PlannedQuery};

    fn insert(cache: &PlanCache<PlannedQuery>, shape: &str, epoch: u64, plan: Arc<PlannedQuery>) {
        cache.insert(shape, &[], Vec::new(), epoch, plan);
    }

    fn get(cache: &PlanCache<PlannedQuery>, shape: &str, epoch: u64) -> Option<Arc<PlannedQuery>> {
        cache.get(shape, &[], epoch)
    }

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
        insert(&cache, "SELECT 1", 7, planned("a"));
        assert!(get(&cache, "SELECT 1", 7).is_some());
        // Epoch moved: the entry is stale and gets evicted.
        assert!(get(&cache, "SELECT 1", 8).is_none());
        assert!(get(&cache, "SELECT 1", 7).is_none(), "stale entry dropped");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let cache = PlanCache::new(2);
        insert(&cache, "q1", 0, planned("1"));
        insert(&cache, "q2", 0, planned("2"));
        // Touch q1 so q2 is the LRU victim.
        assert!(get(&cache, "q1", 0).is_some());
        insert(&cache, "q3", 0, planned("3"));
        assert!(get(&cache, "q2", 0).is_none(), "LRU entry evicted");
        assert!(get(&cache, "q1", 0).is_some());
        assert!(get(&cache, "q3", 0).is_some());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn reinsert_does_not_evict() {
        let cache = PlanCache::new(2);
        insert(&cache, "q1", 0, planned("1"));
        insert(&cache, "q2", 0, planned("2"));
        // Same key at capacity: replaces in place.
        insert(&cache, "q1", 1, planned("1b"));
        assert_eq!(cache.stats().entries, 2);
        assert!(get(&cache, "q1", 1).is_some());
        assert!(get(&cache, "q2", 0).is_some());
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let cache = PlanCache::new(0);
        insert(&cache, "q", 0, planned("x"));
        assert!(get(&cache, "q", 0).is_none());
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().capacity, 0);
    }

    #[test]
    fn clear_empties_entries() {
        let cache = PlanCache::new(4);
        insert(&cache, "q", 0, planned("x"));
        cache.clear();
        assert!(get(&cache, "q", 0).is_none());
    }

    /// Index DDL flows through `Catalog::update_table`, which bumps the
    /// catalog version folded into the plan-cache epoch — so CREATE and
    /// DROP INDEX must both stop a cached plan from serving (a cached
    /// seq scan would miss the new index; a cached index scan would
    /// probe a dropped one). The statements vary their literal, so the
    /// plan they share is one generic entry; ANALYZE drops it too.
    #[test]
    fn index_ddl_invalidates_cached_plans() {
        use crate::executor::Database;
        let dir = test_dir("index-ddl");
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
        let mut key = 0;
        let mut point = || {
            key = key % 3 + 1;
            let sql = format!("SELECT v FROM t WHERE k = {key}");
            assert_eq!(s.execute(&sql).unwrap().rows, vec![vec![Datum::Int(key * 10)]]);
        };
        point();
        let hits0 = db.plan_cache_stats().hits;
        point();
        assert_eq!(db.plan_cache_stats().hits, hits0 + 1, "another literal should hit");

        s.execute("CREATE INDEX t_k ON t (k)").unwrap();
        assert!(explain("SELECT v FROM t WHERE k = 2").contains("IndexScan"), "new index should be taken");
        point();
        assert_eq!(
            db.plan_cache_stats().hits,
            hits0 + 1,
            "CREATE INDEX must invalidate the cached plan"
        );
        point();
        assert_eq!(db.plan_cache_stats().hits, hits0 + 2, "fresh plan caches again");

        s.execute("ANALYZE t").unwrap();
        point();
        assert_eq!(db.plan_cache_stats().hits, hits0 + 2, "ANALYZE must invalidate the cached plan");
        point();
        assert_eq!(db.plan_cache_stats().hits, hits0 + 3);

        s.execute("DROP INDEX t_k ON t").unwrap();
        assert!(explain("SELECT v FROM t WHERE k = 2").contains("TableScan"), "dropped index must not plan");
        point();
        assert_eq!(
            db.plan_cache_stats().hits,
            hits0 + 3,
            "DROP INDEX must invalidate the cached plan"
        );
        point();
        assert_eq!(db.plan_cache_stats().hits, hits0 + 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn test_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("sbdms-plan-cache-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The win of generic plans: point SELECTs that differ only in their
    /// key share one plan, so a thousand of them plan once.
    #[test]
    fn literal_varying_point_selects_plan_once() {
        use crate::executor::Database;
        let dir = test_dir("plan-once");
        let db = Database::open(&dir).unwrap();
        let s = db.session();
        s.execute("CREATE TABLE t (k INT NOT NULL, v INT NOT NULL)").unwrap();
        let rows: Vec<String> = (0..1000).map(|k| format!("({k}, {})", k * 2)).collect();
        s.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();
        s.execute("CREATE INDEX t_k ON t (k)").unwrap();
        s.execute("ANALYZE t").unwrap();
        let planned = db.plans_selected();
        for k in 0..1000 {
            let out = s.execute(&format!("SELECT v FROM t WHERE k = {k}")).unwrap();
            assert_eq!(out.rows, vec![vec![Datum::Int(k * 2)]]);
        }
        assert_eq!(db.plans_selected(), planned + 1);
        let explain = s.execute("EXPLAIN SELECT v FROM t WHERE k = 7").unwrap().rows;
        assert!(
            explain.iter().any(|r| r[0].to_string() == "-- generic: $1 in [0, 999]"),
            "{explain:?}"
        );
        // A key outside the domain is another region: one more plan,
        // then that one serves every out-of-domain key.
        for k in [5000, 1000, 1_000_000] {
            assert!(s.execute(&format!("SELECT v FROM t WHERE k = {k}")).unwrap().rows.is_empty());
        }
        assert_eq!(db.plans_selected(), planned + 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A hot shape never misses, so its hits must notice stale
    /// statistics: past the write threshold, literal-varying SELECTs
    /// re-ANALYZE their table (the statistics version advances).
    #[test]
    fn hits_refresh_stale_statistics() {
        use crate::executor::Database;
        let dir = test_dir("stale-hit");
        let db = Database::open(&dir).unwrap();
        let s = db.session();
        s.execute("CREATE TABLE t (k INT NOT NULL, v INT NOT NULL)").unwrap();
        let rows: Vec<String> = (0..100).map(|k| format!("({k}, {k})")).collect();
        s.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();
        s.execute("ANALYZE t").unwrap();
        for k in 0..5 {
            s.execute(&format!("SELECT v FROM t WHERE k = {k}")).unwrap();
        }
        let analyzed = db.catalog().stats_version();
        let writes: Vec<String> = (100..100 + STALE_WRITES).map(|k| format!("({k}, {k})")).collect();
        s.execute(&format!("INSERT INTO t VALUES {}", writes.join(", "))).unwrap();
        assert!(db.catalog().stats_stale("t"), "the writes should make the statistics stale");
        for k in 5..10 {
            s.execute(&format!("SELECT v FROM t WHERE k = {k}")).unwrap();
        }
        assert!(!db.catalog().stats_stale("t"), "a SELECT should have re-sampled `t`");
        assert!(db.catalog().stats_version() > analyzed + 1, "ANALYZE bumps the version");
        let stats = db.catalog().table("t").unwrap().stats.clone().unwrap();
        assert_eq!(stats.row_count, 100 + STALE_WRITES as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// More row writes than the staleness threshold (`STALE_MIN_WRITES`).
    const STALE_WRITES: i64 = 65;

    #[test]
    fn guards_admit_their_region_and_types() {
        let pin = Guard::Pin {
            param: 0,
            value: Datum::Int(5),
        };
        assert!(pin.admits(&[Datum::Int(5)]));
        assert!(!pin.admits(&[Datum::Int(6)]));
        let inside = Guard::Domain {
            param: 1,
            min: Datum::Int(0),
            max: Datum::Int(9),
            inside: true,
        };
        assert!(inside.admits(&[Datum::Null, Datum::Int(0)]));
        assert!(inside.admits(&[Datum::Null, Datum::Int(9)]));
        assert!(!inside.admits(&[Datum::Null, Datum::Int(10)]));
        assert!(!inside.admits(&[Datum::Null, Datum::Null]), "NULL is in no domain");
        let outside = Guard::Domain {
            param: 1,
            min: Datum::Int(0),
            max: Datum::Int(9),
            inside: false,
        };
        assert!(outside.admits(&[Datum::Null, Datum::Int(-1)]));
        assert!(!outside.admits(&[Datum::Null, Datum::Int(3)]));

        let cache = PlanCache::new(4);
        cache.insert("q ?", &[Datum::Int(3)], vec![], 0, planned("int"));
        assert!(cache.get("q ?", &[Datum::Int(4)], 0).is_some());
        assert!(cache.get("q ?", &[Datum::Str("4".into())], 0).is_none(), "types must match");
        assert_eq!(
            describe_guards(&[pin, outside], 3),
            "generic: $1 = 5; $2 outside [0, 9]; $3 any"
        );
    }

    #[test]
    fn shapes_keep_a_bounded_number_of_variants() {
        let cache = PlanCache::new(64);
        for v in 0..20 {
            let pin = Guard::Pin {
                param: 0,
                value: Datum::Int(v),
            };
            cache.insert("q ?", &[Datum::Int(v)], vec![pin], 0, planned("v"));
        }
        assert_eq!(cache.stats().entries, MAX_VARIANTS_PER_SHAPE);
        assert!(cache.get("q ?", &[Datum::Int(19)], 0).is_some());
        assert!(cache.get("q ?", &[Datum::Int(0)], 0).is_none(), "oldest variant evicted");
    }
}
