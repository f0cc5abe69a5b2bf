//! The catalog: persistent metadata for tables, indexes, and views.
//!
//! Catalog records are serde-serialised documents in a dedicated heap
//! file whose directory page is — by convention — the first page ever
//! allocated in the database file (page 1), so a reopened database finds
//! its catalog without external state.
//!
//! Table metadata is handed out as shared snapshots (`Arc<TableMeta>`):
//! a lookup clones a pointer, not the schema, index list and statistics
//! (histogram bounds included), so planning a statement copies none of
//! them. A DDL change or `ANALYZE` replaces a table's snapshot; holders
//! of the old one keep a consistent, if stale, view.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use sbdms_access::heap::{HeapFile, Rid};
use sbdms_kernel::error::{Result, ServiceError};
use sbdms_storage::buffer::BufferPool;
use sbdms_storage::page::PageId;

use crate::schema::Schema;
use crate::stats::TableStats;

/// Metadata of one secondary index: the *descriptor* the planner
/// matches predicates against. An index covers one or more columns in
/// declaration order; the B+tree key is the tuple of those columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexMeta {
    /// Index name (unique per table).
    pub name: String,
    /// Indexed column names (lower-cased), leading column first.
    pub columns: Vec<String>,
    /// B+tree meta page.
    pub meta_page: PageId,
}

impl IndexMeta {
    /// Position of `column` in the key, if indexed.
    pub fn column_position(&self, column: &str) -> Option<usize> {
        let column = column.to_lowercase();
        self.columns.iter().position(|c| *c == column)
    }

    /// Whether every name in `needed` is an index key column (the
    /// covering-scan test).
    pub fn covers<'a>(&self, mut needed: impl Iterator<Item = &'a str>) -> bool {
        needed.all(|n| self.column_position(n).is_some())
    }
}

/// Metadata of one table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableMeta {
    /// Table name (lower-cased).
    pub name: String,
    /// The schema.
    pub schema: Schema,
    /// Root directory page of the table's heap file.
    pub heap_dir_page: PageId,
    /// Secondary indexes.
    pub indexes: Vec<IndexMeta>,
    /// Optimiser statistics from the last `ANALYZE` (absent until one
    /// runs; the serde shim reads a missing field as `None`, keeping
    /// pre-stats catalog records readable).
    pub stats: Option<TableStats>,
}

/// Metadata of one view: a named, stored query text (paper §3.1 "logical
/// structures like tables or views").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ViewMeta {
    /// View name (lower-cased).
    pub name: String,
    /// The stored SELECT text.
    pub query: String,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum CatalogRecord {
    Table(TableMeta),
    View(ViewMeta),
}

/// The persistent catalog.
pub struct Catalog {
    buffer: Arc<BufferPool>,
    heap: HeapFile,
    tables: Mutex<HashMap<String, (Rid, Arc<TableMeta>)>>,
    views: Mutex<HashMap<String, (Rid, ViewMeta)>>,
    /// Monotonic schema version, bumped on every DDL mutation. Cached
    /// query plans embed the version they were built against and are
    /// discarded when it moves.
    version: AtomicU64,
    /// Monotonic statistics version, bumped whenever a table's stats
    /// change (ANALYZE) or cross the staleness threshold. Folded into
    /// the plan-cache epoch alongside the DDL version so stale plans
    /// are invalidated.
    stats_version: AtomicU64,
    /// Writes (inserted + deleted + updated rows) per table since its
    /// last ANALYZE. In-memory only: after a restart counters start at
    /// zero, which merely delays the next automatic re-sample.
    writes: Mutex<HashMap<String, TableWrites>>,
    /// Tables whose `stale_announced` is set, so [`Catalog::stats_stale`]
    /// answers without a lock while none is.
    stale_tables: AtomicUsize,
}

#[derive(Default)]
struct TableWrites {
    since_analyze: u64,
    /// Whether crossing the staleness threshold already bumped
    /// `stats_version` (so we bump once per stale period, not per row):
    /// the table's statistics are stale.
    stale_announced: bool,
}

/// Minimum write count before stats are considered stale.
const STALE_MIN_WRITES: u64 = 64;
/// Stats are stale once writes exceed this fraction of the analyzed
/// row count (or `STALE_MIN_WRITES`, whichever is larger).
const STALE_FRACTION: f64 = 0.2;

/// The conventional page id of the catalog heap directory.
pub const CATALOG_DIR_PAGE: PageId = 1;

impl Catalog {
    /// Open the catalog, bootstrapping it in a fresh database (detected
    /// by the disk having no user pages yet).
    pub fn open(buffer: Arc<BufferPool>) -> Result<Catalog> {
        let heap = if buffer.disk().page_count() <= 1 {
            let heap = HeapFile::create(buffer.clone())?;
            if heap.dir_page() != CATALOG_DIR_PAGE {
                return Err(ServiceError::Storage(format!(
                    "catalog bootstrap expected page {CATALOG_DIR_PAGE}, got {}",
                    heap.dir_page()
                )));
            }
            heap
        } else {
            HeapFile::open(buffer.clone(), CATALOG_DIR_PAGE)
        };

        let catalog = Catalog {
            buffer,
            heap,
            tables: Mutex::new(HashMap::new()),
            views: Mutex::new(HashMap::new()),
            version: AtomicU64::new(0),
            stats_version: AtomicU64::new(0),
            writes: Mutex::new(HashMap::new()),
            stale_tables: AtomicUsize::new(0),
        };
        catalog.reload()?;
        Ok(catalog)
    }

    /// The buffer pool backing this catalog.
    pub fn buffer(&self) -> &Arc<BufferPool> {
        &self.buffer
    }

    /// Current schema version. Any DDL (table/view/index create, update
    /// or drop, plus [`reload`](Catalog::reload)) increments it.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    fn bump_version(&self) {
        self.version.fetch_add(1, Ordering::AcqRel);
    }

    /// Current statistics version. ANALYZE and staleness-threshold
    /// crossings increment it; the plan-cache epoch folds it in.
    pub fn stats_version(&self) -> u64 {
        self.stats_version.load(Ordering::Acquire)
    }

    fn bump_stats_version(&self) {
        self.stats_version.fetch_add(1, Ordering::AcqRel);
    }

    /// Replace a table's optimiser statistics (the `ANALYZE` path).
    /// Persists the enclosing catalog record, resets the table's write
    /// counter and bumps `stats_version` — but not the DDL version, so
    /// only plan-cache entries (not schema snapshots) are invalidated.
    pub fn update_stats(&self, name: &str, stats: TableStats) -> Result<()> {
        let name = name.to_lowercase();
        self.replace_table(&name, |meta| meta.stats = Some(stats))?;
        let was = std::mem::take(self.writes.lock().entry(name).or_default());
        if was.stale_announced {
            self.stale_tables.fetch_sub(1, Ordering::AcqRel);
        }
        self.bump_stats_version();
        Ok(())
    }

    /// Record `n` row writes (insert/delete/update) against a table.
    /// Crossing the staleness threshold bumps `stats_version` once so
    /// cached plans built on the now-stale stats stop matching.
    pub fn note_writes(&self, name: &str, n: u64) {
        if n == 0 {
            return;
        }
        let name = name.to_lowercase();
        let analyzed_rows = match self.tables.lock().get(&name) {
            Some((_, meta)) => meta.stats.as_ref().map(|s| s.row_count),
            None => return,
        };
        let mut writes = self.writes.lock();
        let entry = writes.entry(name).or_default();
        entry.since_analyze += n;
        if let Some(rows) = analyzed_rows {
            let threshold = STALE_MIN_WRITES.max((rows as f64 * STALE_FRACTION) as u64);
            if entry.since_analyze > threshold && !entry.stale_announced {
                entry.stale_announced = true;
                self.stale_tables.fetch_add(1, Ordering::AcqRel);
                drop(writes);
                self.bump_stats_version();
            }
        }
    }

    /// Whether a table's stats are stale: it has been analyzed, and
    /// writes since then exceed the staleness threshold. `name` is
    /// lower-case, as the parser and the catalog keep names. Cheap
    /// enough for every plan-cache hit: no lock at all while no table
    /// is stale, one otherwise.
    pub fn stats_stale(&self, name: &str) -> bool {
        self.stale_tables.load(Ordering::Acquire) > 0
            && self.writes.lock().get(name).is_some_and(|w| w.stale_announced)
    }

    /// Re-read all catalog records from disk into the cache.
    pub fn reload(&self) -> Result<()> {
        let mut tables = HashMap::new();
        let mut views = HashMap::new();
        for (rid, bytes) in self.heap.scan()? {
            let record: CatalogRecord = serde_json::from_slice(&bytes)
                .map_err(|e| ServiceError::Storage(format!("corrupt catalog record: {e}")))?;
            match record {
                CatalogRecord::Table(meta) => {
                    tables.insert(meta.name.clone(), (rid, Arc::new(meta)));
                }
                CatalogRecord::View(meta) => {
                    views.insert(meta.name.clone(), (rid, meta));
                }
            }
        }
        *self.tables.lock() = tables;
        *self.views.lock() = views;
        self.bump_version();
        Ok(())
    }

    /// Register a new table.
    pub fn create_table(&self, meta: TableMeta) -> Result<()> {
        let name = meta.name.clone();
        if self.tables.lock().contains_key(&name) || self.views.lock().contains_key(&name) {
            return Err(ServiceError::InvalidInput(format!(
                "table or view `{name}` already exists"
            )));
        }
        let rid = self.persist(&CatalogRecord::Table(meta.clone()))?;
        self.tables.lock().insert(name, (rid, Arc::new(meta)));
        self.bump_version();
        Ok(())
    }

    /// A shared snapshot of a table's metadata.
    pub fn table(&self, name: &str) -> Result<Arc<TableMeta>> {
        self.tables
            .lock()
            .get(&name.to_lowercase())
            .map(|(_, m)| m.clone())
            .ok_or_else(|| ServiceError::InvalidInput(format!("no such table `{name}`")))
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Rewrite a table's metadata (e.g. after adding an index).
    pub fn update_table(&self, meta: TableMeta) -> Result<()> {
        let name = meta.name.clone();
        self.replace_table(&name, |current| *current = meta)?;
        self.bump_version();
        Ok(())
    }

    /// Rewrite one table's catalog record: edit its cached metadata,
    /// delete the old record and persist the new one, all under the
    /// `tables` lock, so concurrent rewrites of one table (two sessions'
    /// `ANALYZE`s) serialize instead of deleting the same record twice.
    fn replace_table(&self, name: &str, edit: impl FnOnce(&mut TableMeta)) -> Result<()> {
        let mut tables = self.tables.lock();
        let (rid, meta) = tables
            .get_mut(name)
            .ok_or_else(|| ServiceError::InvalidInput(format!("no such table `{name}`")))?;
        let mut edited = TableMeta::clone(meta);
        edit(&mut edited);
        self.heap.delete(*rid)?;
        *rid = self.persist(&CatalogRecord::Table(edited.clone()))?;
        *meta = Arc::new(edited);
        Ok(())
    }

    /// Remove a table's metadata; the caller destroys its storage.
    pub fn drop_table(&self, name: &str) -> Result<Arc<TableMeta>> {
        let name = name.to_lowercase();
        let (rid, meta) = self
            .tables
            .lock()
            .remove(&name)
            .ok_or_else(|| ServiceError::InvalidInput(format!("no such table `{name}`")))?;
        self.heap.delete(rid)?;
        if self.writes.lock().remove(&name).is_some_and(|w| w.stale_announced) {
            self.stale_tables.fetch_sub(1, Ordering::AcqRel);
        }
        self.bump_version();
        Ok(meta)
    }

    /// Register a view.
    pub fn create_view(&self, meta: ViewMeta) -> Result<()> {
        let name = meta.name.clone();
        if self.tables.lock().contains_key(&name) || self.views.lock().contains_key(&name) {
            return Err(ServiceError::InvalidInput(format!(
                "table or view `{name}` already exists"
            )));
        }
        let rid = self.persist(&CatalogRecord::View(meta.clone()))?;
        self.views.lock().insert(name, (rid, meta));
        self.bump_version();
        Ok(())
    }

    /// Fetch a view.
    pub fn view(&self, name: &str) -> Option<ViewMeta> {
        self.views.lock().get(&name.to_lowercase()).map(|(_, m)| m.clone())
    }

    /// Remove a view.
    pub fn drop_view(&self, name: &str) -> Result<()> {
        let name = name.to_lowercase();
        let (rid, _) = self
            .views
            .lock()
            .remove(&name)
            .ok_or_else(|| ServiceError::InvalidInput(format!("no such view `{name}`")))?;
        self.heap.delete(rid)?;
        self.bump_version();
        Ok(())
    }

    /// All view names, sorted.
    pub fn view_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.views.lock().keys().cloned().collect();
        names.sort();
        names
    }

    fn persist(&self, record: &CatalogRecord) -> Result<Rid> {
        let bytes = serde_json::to_vec(record)
            .map_err(|e| ServiceError::Internal(format!("catalog serialise: {e}")))?;
        self.heap.insert(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};
    use sbdms_storage::services::StorageEngine;

    fn fresh(name: &str) -> (Arc<BufferPool>, std::path::PathBuf) {
        let dir = std::env::temp_dir()
            .join("sbdms-catalog-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = StorageEngine::open(&dir, 32).unwrap();
        (engine.buffer, dir)
    }

    fn users_meta(heap_dir_page: PageId) -> TableMeta {
        TableMeta {
            name: "users".into(),
            schema: Schema::new(vec![
                Column::not_null("id", ColumnType::Int),
                Column::new("name", ColumnType::Text),
            ])
            .unwrap(),
            heap_dir_page,
            indexes: vec![],
            stats: None,
        }
    }

    #[test]
    fn create_and_fetch_table() {
        let (buffer, _) = fresh("create");
        let catalog = Catalog::open(buffer).unwrap();
        catalog.create_table(users_meta(42)).unwrap();
        let meta = catalog.table("USERS").unwrap();
        assert_eq!(meta.heap_dir_page, 42);
        assert_eq!(meta.schema.len(), 2);
        assert!(catalog.table("ghosts").is_err());
        assert_eq!(catalog.table_names(), vec!["users"]);
    }

    #[test]
    fn duplicate_table_rejected() {
        let (buffer, _) = fresh("dup");
        let catalog = Catalog::open(buffer).unwrap();
        catalog.create_table(users_meta(1)).unwrap();
        assert!(catalog.create_table(users_meta(2)).is_err());
    }

    #[test]
    fn persists_across_reopen() {
        let dir = std::env::temp_dir()
            .join("sbdms-catalog-tests")
            .join(format!("reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let engine = StorageEngine::open(&dir, 32).unwrap();
            let catalog = Catalog::open(engine.buffer.clone()).unwrap();
            catalog.create_table(users_meta(7)).unwrap();
            catalog
                .create_view(ViewMeta {
                    name: "adults".into(),
                    query: "SELECT * FROM users".into(),
                })
                .unwrap();
            engine.buffer.flush_all().unwrap();
        }
        let engine = StorageEngine::open(&dir, 32).unwrap();
        let catalog = Catalog::open(engine.buffer).unwrap();
        assert_eq!(catalog.table("users").unwrap().heap_dir_page, 7);
        assert_eq!(catalog.view("adults").unwrap().query, "SELECT * FROM users");
    }

    #[test]
    fn update_table_replaces_record() {
        let (buffer, _) = fresh("update");
        let catalog = Catalog::open(buffer).unwrap();
        catalog.create_table(users_meta(1)).unwrap();
        let mut meta = TableMeta::clone(&catalog.table("users").unwrap());
        meta.indexes.push(IndexMeta {
            name: "users_id".into(),
            columns: vec!["id".into(), "name".into()],
            meta_page: 99,
        });
        catalog.update_table(meta).unwrap();
        let fetched = catalog.table("users").unwrap();
        assert_eq!(fetched.indexes.len(), 1);
        // Reload from disk agrees (no duplicate records).
        catalog.reload().unwrap();
        assert_eq!(catalog.table("users").unwrap().indexes.len(), 1);
        assert_eq!(catalog.table_names().len(), 1);
    }

    #[test]
    fn drop_table_and_view() {
        let (buffer, _) = fresh("drop");
        let catalog = Catalog::open(buffer).unwrap();
        catalog.create_table(users_meta(1)).unwrap();
        catalog
            .create_view(ViewMeta {
                name: "v".into(),
                query: "SELECT 1".into(),
            })
            .unwrap();
        catalog.drop_table("users").unwrap();
        assert!(catalog.table("users").is_err());
        catalog.drop_view("v").unwrap();
        assert!(catalog.view("v").is_none());
        assert!(catalog.drop_view("v").is_err());
        // Names are reusable after drop.
        catalog.create_table(users_meta(5)).unwrap();
    }

    #[test]
    fn version_bumps_on_every_ddl() {
        let (buffer, _) = fresh("version");
        let catalog = Catalog::open(buffer).unwrap();
        let mut last = catalog.version();
        let mut expect_bump = |catalog: &Catalog, what: &str| {
            let v = catalog.version();
            assert!(v > last, "{what} must bump the catalog version");
            last = v;
        };

        catalog.create_table(users_meta(1)).unwrap();
        expect_bump(&catalog, "create_table");
        let mut meta = TableMeta::clone(&catalog.table("users").unwrap());
        meta.indexes.push(IndexMeta {
            name: "i".into(),
            columns: vec!["id".into()],
            meta_page: 9,
        });
        catalog.update_table(meta).unwrap();
        expect_bump(&catalog, "update_table");
        catalog
            .create_view(ViewMeta {
                name: "v".into(),
                query: "SELECT 1".into(),
            })
            .unwrap();
        expect_bump(&catalog, "create_view");
        catalog.drop_view("v").unwrap();
        expect_bump(&catalog, "drop_view");
        catalog.drop_table("users").unwrap();
        expect_bump(&catalog, "drop_table");
        catalog.reload().unwrap();
        expect_bump(&catalog, "reload");

        // Failed DDL leaves the version alone.
        assert!(catalog.drop_table("ghost").is_err());
        assert_eq!(catalog.version(), last);
    }

    #[test]
    fn view_name_collides_with_table() {
        let (buffer, _) = fresh("collide");
        let catalog = Catalog::open(buffer).unwrap();
        catalog.create_table(users_meta(1)).unwrap();
        let v = ViewMeta {
            name: "users".into(),
            query: "SELECT 1".into(),
        };
        assert!(catalog.create_view(v).is_err());
    }
}
