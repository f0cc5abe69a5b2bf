//! Table handles: schema-checked row storage with index maintenance.

use std::sync::Arc;

use sbdms_access::btree::{BTree, IndexEntry};
use sbdms_access::heap::{HeapFile, Rid};
use sbdms_access::record::{decode_tuple, encode_tuple, for_each_field, Datum, Tuple};
use sbdms_kernel::error::{Result, ServiceError};
use sbdms_storage::buffer::BufferPool;

use crate::catalog::{Catalog, IndexMeta, TableMeta};
use crate::schema::Schema;

/// A live handle to one table: heap file + open indexes + schema.
pub struct Table {
    meta: Arc<TableMeta>,
    heap: HeapFile,
    indexes: Vec<(IndexMeta, BTree)>,
    buffer: Arc<BufferPool>,
}

impl Table {
    /// Create a table: allocates its heap, registers it in the catalog.
    pub fn create(catalog: &Catalog, name: &str, schema: Schema) -> Result<Table> {
        let buffer = catalog.buffer().clone();
        let heap = HeapFile::create(buffer.clone())?;
        let meta = TableMeta {
            name: name.to_lowercase(),
            schema,
            heap_dir_page: heap.dir_page(),
            indexes: vec![],
            stats: None,
        };
        catalog.create_table(meta.clone())?;
        Ok(Table {
            meta: Arc::new(meta),
            heap,
            indexes: vec![],
            buffer,
        })
    }

    /// Open a table from its catalog metadata.
    pub fn open(catalog: &Catalog, name: &str) -> Result<Table> {
        let buffer = catalog.buffer().clone();
        let meta = catalog.table(name)?;
        let heap = HeapFile::open(buffer.clone(), meta.heap_dir_page);
        let mut indexes = Vec::with_capacity(meta.indexes.len());
        for im in &meta.indexes {
            indexes.push((im.clone(), BTree::open(buffer.clone(), im.meta_page)?));
        }
        Ok(Table {
            meta,
            heap,
            indexes,
            buffer,
        })
    }

    /// The table's metadata.
    pub fn meta(&self) -> &TableMeta {
        &self.meta
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.meta.schema
    }

    /// The underlying heap file.
    pub fn heap(&self) -> &HeapFile {
        &self.heap
    }

    /// All open indexes with their descriptors.
    pub fn indexes(&self) -> &[(IndexMeta, BTree)] {
        &self.indexes
    }

    /// Open index by name, if any.
    pub fn index_named(&self, name: &str) -> Option<&(IndexMeta, BTree)> {
        let name = name.to_lowercase();
        self.indexes.iter().find(|(m, _)| m.name == name)
    }

    /// Open index whose *leading* key column is `column`, if any
    /// (single-column convenience; prefers the shortest such key).
    pub fn index_on(&self, column: &str) -> Option<&BTree> {
        let column = column.to_lowercase();
        self.indexes
            .iter()
            .filter(|(m, _)| m.columns.first() == Some(&column))
            .min_by_key(|(m, _)| m.columns.len())
            .map(|(_, t)| t)
    }

    /// The composite index key of `row` under descriptor `im`.
    fn index_key(&self, im: &IndexMeta, row: &Tuple) -> Result<Vec<Datum>> {
        im.columns
            .iter()
            .map(|c| Ok(row[self.column_index(c)?].clone()))
            .collect()
    }

    /// Insert a row (validated against the schema). Returns its rid.
    pub fn insert(&self, row: Tuple) -> Result<Rid> {
        let row = self.meta.schema.validate(row)?;
        let rid = self.heap.insert(&encode_tuple(&row))?;
        for (im, tree) in &self.indexes {
            tree.insert(&self.index_key(im, &row)?, rid)?;
        }
        Ok(rid)
    }

    /// Read a row.
    pub fn get(&self, rid: Rid) -> Result<Tuple> {
        decode_tuple(&self.heap.get(rid)?)
    }

    /// Delete a row, maintaining indexes. Returns the old row.
    pub fn delete(&self, rid: Rid) -> Result<Tuple> {
        let old = self.get(rid)?;
        for (im, tree) in &self.indexes {
            tree.delete(&self.index_key(im, &old)?, rid)?;
        }
        self.heap.delete(rid)?;
        Ok(old)
    }

    /// Put a deleted row back under its old rid, maintaining indexes
    /// (the inverse of [`Table::delete`]).
    pub fn restore(&self, rid: Rid, row: Tuple) -> Result<()> {
        self.heap.restore(rid, &encode_tuple(&row))?;
        for (im, tree) in &self.indexes {
            tree.insert(&self.index_key(im, &row)?, rid)?;
        }
        Ok(())
    }

    /// Replace a row in place (rid stable), maintaining indexes. Returns
    /// the old row.
    pub fn update(&self, rid: Rid, row: Tuple) -> Result<Tuple> {
        let row = self.meta.schema.validate(row)?;
        let old = self.get(rid)?;
        self.heap.update(rid, &encode_tuple(&row))?;
        for (im, tree) in &self.indexes {
            let old_key = self.index_key(im, &old)?;
            let new_key = self.index_key(im, &row)?;
            if old_key != new_key {
                tree.delete(&old_key, rid)?;
                tree.insert(&new_key, rid)?;
            }
        }
        Ok(old)
    }

    /// Materialised scan of all rows, each decoded straight from its
    /// page frame.
    pub fn scan(&self) -> Result<Vec<(Rid, Tuple)>> {
        let mut rows = Vec::new();
        self.heap.walk(|rid, record| {
            rows.push((rid, decode_tuple(record)?));
            Ok(())
        })?;
        Ok(rows)
    }

    /// Row count.
    pub fn len(&self) -> Result<usize> {
        self.heap.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> Result<bool> {
        self.heap.is_empty()
    }

    /// Create a secondary index over `columns` (leading column first),
    /// backfilling existing rows, and persist the new metadata.
    pub fn create_index(&mut self, catalog: &Catalog, name: &str, columns: &[String]) -> Result<()> {
        if columns.is_empty() {
            return Err(ServiceError::InvalidInput("index needs at least one column".into()));
        }
        let name = name.to_lowercase();
        let columns: Vec<String> = columns.iter().map(|c| c.to_lowercase()).collect();
        let mut cols = Vec::with_capacity(columns.len());
        for c in &columns {
            let i = self.column_index(c)?;
            if cols.contains(&i) {
                return Err(ServiceError::InvalidInput(format!(
                    "column `{c}` repeated in index key"
                )));
            }
            cols.push(i);
        }
        if self.indexes.iter().any(|(m, _)| m.name == name) {
            return Err(ServiceError::InvalidInput(format!(
                "index `{name}` already exists on `{}`",
                self.meta.name
            )));
        }
        if self.indexes.iter().any(|(m, _)| m.columns == columns) {
            return Err(ServiceError::InvalidInput(format!(
                "columns ({}) are already indexed",
                columns.join(", ")
            )));
        }
        let entries = self.index_entries(&[cols])?.remove(0);
        let tree = BTree::build(self.buffer.clone(), entries)?;
        let im = IndexMeta {
            name,
            columns,
            meta_page: tree.meta_page(),
        };
        Arc::make_mut(&mut self.meta).indexes.push(im.clone());
        catalog.update_table(TableMeta::clone(&self.meta))?;
        self.indexes.push((im, tree));
        Ok(())
    }

    /// The `(key, rid)` entries of one index per column list in `keys`,
    /// from one heap walk that decodes only the key columns of each
    /// record straight off its page: the input [`BTree::build`] sorts.
    fn index_entries(&self, keys: &[Vec<usize>]) -> Result<Vec<Vec<IndexEntry>>> {
        let width = self.meta.schema.len();
        let wanted: Vec<bool> = (0..width).map(|i| keys.iter().any(|k| k.contains(&i))).collect();
        let mut fields = vec![Datum::Null; width];
        let mut entries = vec![Vec::new(); keys.len()];
        self.heap.walk(|rid, record| {
            for_each_field(record, |i, d| {
                if wanted.get(i) == Some(&true) {
                    fields[i] = d.to_owned();
                }
            })?;
            for (key, out) in keys.iter().zip(&mut entries) {
                out.push((key.iter().map(|&i| fields[i].clone()).collect(), rid));
            }
            Ok(())
        })?;
        Ok(entries)
    }

    /// Drop a secondary index by name, persisting the new metadata. The
    /// tree's meta page is freed; node pages are leaked like
    /// [`rebuild_indexes`](Table::rebuild_indexes) (bounded by the next
    /// checkpoint's fresh baseline).
    pub fn drop_index(&mut self, catalog: &Catalog, name: &str) -> Result<()> {
        let name = name.to_lowercase();
        let pos = self
            .indexes
            .iter()
            .position(|(m, _)| m.name == name)
            .ok_or_else(|| {
                ServiceError::InvalidInput(format!(
                    "no such index `{name}` on `{}`",
                    self.meta.name
                ))
            })?;
        let (im, _) = self.indexes.remove(pos);
        Arc::make_mut(&mut self.meta).indexes.retain(|m| m.name != name);
        catalog.update_table(TableMeta::clone(&self.meta))?;
        let _ = self.buffer.free_page(im.meta_page);
        Ok(())
    }

    /// Consistency check for crash recovery: every heap row decodes and
    /// passes the schema, every index is structurally valid, and each
    /// index's entry set is exactly the heap's `(column value, rid)` set.
    pub fn validate(&self) -> Result<()> {
        let rows = self.scan()?;
        for (rid, row) in &rows {
            self.meta.schema.validate(row.clone()).map_err(|e| {
                ServiceError::Storage(format!(
                    "table `{}`: row at {rid:?} fails schema: {e}",
                    self.meta.name
                ))
            })?;
        }
        for (im, tree) in &self.indexes {
            tree.validate()?;
            let entries = tree.range(None, None, true, true)?;
            if entries.len() != rows.len() {
                return Err(ServiceError::Storage(format!(
                    "index `{}` on `{}` has {} entries for {} rows",
                    im.name,
                    self.meta.name,
                    entries.len(),
                    rows.len()
                )));
            }
            let by_rid: std::collections::HashMap<Rid, &Tuple> =
                rows.iter().map(|(rid, row)| (*rid, row)).collect();
            for (key, rid) in entries {
                match by_rid.get(&rid) {
                    Some(row) if self.index_key(im, row)? == key => {}
                    Some(_) => {
                        return Err(ServiceError::Storage(format!(
                            "index `{}` on `{}`: stale key for {rid:?}",
                            im.name, self.meta.name
                        )))
                    }
                    None => {
                        return Err(ServiceError::Storage(format!(
                            "index `{}` on `{}`: dangling entry {rid:?}",
                            im.name, self.meta.name
                        )))
                    }
                }
            }
        }
        Ok(())
    }

    /// Rebuild every index from the heap, repointing the catalog at the
    /// fresh trees. Used after crash recovery rolled transactions back:
    /// a stolen index page may have persisted while the matching heap
    /// write did not (or vice versa), leaving stale or dangling entries
    /// that incremental maintenance cannot see. The old trees' pages are
    /// leaked rather than freed — recovery may crash again, and a freed
    /// page that the durable catalog still references would be worse
    /// than a space leak (the next checkpoint's fresh baseline bounds it).
    pub fn rebuild_indexes(&mut self, catalog: &Catalog) -> Result<()> {
        if self.indexes.is_empty() {
            return Ok(());
        }
        let keys = self
            .indexes
            .iter()
            .map(|(im, _)| im.columns.iter().map(|c| self.column_index(c)).collect())
            .collect::<Result<Vec<Vec<usize>>>>()?;
        let entries = self.index_entries(&keys)?;
        let mut rebuilt = Vec::with_capacity(self.indexes.len());
        for ((im, _), entries) in self.indexes.iter().zip(entries) {
            let tree = BTree::build(self.buffer.clone(), entries)?;
            let mut im = im.clone();
            im.meta_page = tree.meta_page();
            rebuilt.push((im, tree));
        }
        Arc::make_mut(&mut self.meta).indexes = rebuilt.iter().map(|(im, _)| im.clone()).collect();
        catalog.update_table(TableMeta::clone(&self.meta))?;
        self.indexes = rebuilt;
        Ok(())
    }

    /// Destroy the table's storage and remove it from the catalog.
    pub fn drop(self, catalog: &Catalog) -> Result<()> {
        catalog.drop_table(&self.meta.name)?;
        self.heap.destroy()?;
        // Index pages are leaked intentionally-simply? No: free their
        // meta pages at least; node pages are reachable only through the
        // tree, which we drop wholesale by freeing what we can reach.
        for (im, _) in &self.indexes {
            let _ = self.buffer.free_page(im.meta_page);
        }
        Ok(())
    }

    fn column_index(&self, column: &str) -> Result<usize> {
        self.meta.schema.index_of(column).ok_or_else(|| {
            ServiceError::Internal(format!(
                "index column `{column}` missing from schema of `{}`",
                self.meta.name
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};
    use sbdms_access::record::Datum;
    use sbdms_storage::services::StorageEngine;

    fn setup(name: &str) -> Catalog {
        let dir = std::env::temp_dir()
            .join("sbdms-table-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = StorageEngine::open(&dir, 64).unwrap();
        Catalog::open(engine.buffer).unwrap()
    }

    fn users_schema() -> Schema {
        Schema::new(vec![
            Column::not_null("id", ColumnType::Int),
            Column::not_null("name", ColumnType::Text),
        ])
        .unwrap()
    }

    fn row(id: i64, name: &str) -> Tuple {
        vec![Datum::Int(id), Datum::Str(name.into())]
    }

    #[test]
    fn crud_lifecycle() {
        let catalog = setup("crud");
        let table = Table::create(&catalog, "users", users_schema()).unwrap();
        let rid = table.insert(row(1, "alice")).unwrap();
        assert_eq!(table.get(rid).unwrap(), row(1, "alice"));

        table.update(rid, row(1, "alicia")).unwrap();
        assert_eq!(table.get(rid).unwrap()[1], Datum::Str("alicia".into()));

        let old = table.delete(rid).unwrap();
        assert_eq!(old[1], Datum::Str("alicia".into()));
        assert!(table.get(rid).is_err());
        assert!(table.is_empty().unwrap());
    }

    #[test]
    fn schema_enforced_on_write() {
        let catalog = setup("schema");
        let table = Table::create(&catalog, "users", users_schema()).unwrap();
        assert!(table.insert(vec![Datum::Int(1)]).is_err());
        assert!(table
            .insert(vec![Datum::Str("not-an-int".into()), Datum::Str("x".into())])
            .is_err());
        assert!(table.insert(vec![Datum::Null, Datum::Str("x".into())]).is_err());
    }

    fn cols(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn index_maintenance_through_dml() {
        let catalog = setup("index");
        let mut table = Table::create(&catalog, "users", users_schema()).unwrap();
        for i in 0..50 {
            table.insert(row(i, &format!("user{i}"))).unwrap();
        }
        table.create_index(&catalog, "users_id", &cols(&["id"])).unwrap();

        let tree = table.index_on("id").unwrap();
        assert_eq!(tree.len().unwrap(), 50, "backfill indexed existing rows");
        let hits = tree.search(&[Datum::Int(7)]).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(table.get(hits[0]).unwrap(), row(7, "user7"));

        // Insert/update/delete maintain the index.
        let rid = table.insert(row(100, "newbie")).unwrap();
        assert_eq!(table.index_on("id").unwrap().search(&[Datum::Int(100)]).unwrap(), vec![rid]);

        table.update(rid, row(200, "renamed")).unwrap();
        assert!(table.index_on("id").unwrap().search(&[Datum::Int(100)]).unwrap().is_empty());
        assert_eq!(table.index_on("id").unwrap().search(&[Datum::Int(200)]).unwrap(), vec![rid]);

        table.delete(rid).unwrap();
        assert!(table.index_on("id").unwrap().search(&[Datum::Int(200)]).unwrap().is_empty());
    }

    #[test]
    fn composite_index_maintenance_and_drop() {
        let catalog = setup("composite-index");
        let mut table = Table::create(&catalog, "users", users_schema()).unwrap();
        for i in 0..30 {
            table.insert(row(i % 3, &format!("user{i}"))).unwrap();
        }
        table
            .create_index(&catalog, "users_id_name", &cols(&["id", "name"]))
            .unwrap();
        let (im, tree) = table.index_named("users_id_name").unwrap();
        assert_eq!(im.columns, vec!["id", "name"]);
        assert_eq!(tree.len().unwrap(), 30);
        // Full composite probe hits exactly one row.
        let hits = tree
            .search(&[Datum::Int(1), Datum::Str("user7".into())])
            .unwrap();
        assert_eq!(hits.len(), 1);
        // Prefix probe hits the whole id group.
        assert_eq!(tree.search(&[Datum::Int(1)]).unwrap().len(), 10);

        // Update that changes only the second key column re-keys the index.
        let rid = hits[0];
        table.update(rid, row(1, "renamed")).unwrap();
        let (_, tree) = table.index_named("users_id_name").unwrap();
        assert!(tree
            .search(&[Datum::Int(1), Datum::Str("user7".into())])
            .unwrap()
            .is_empty());
        assert_eq!(
            tree.search(&[Datum::Int(1), Datum::Str("renamed".into())]).unwrap(),
            vec![rid]
        );
        table.validate().unwrap();

        // Drop removes it from the handle and the catalog.
        table.drop_index(&catalog, "users_id_name").unwrap();
        assert!(table.index_named("users_id_name").is_none());
        assert!(catalog.table("users").unwrap().indexes.is_empty());
        assert!(table.drop_index(&catalog, "users_id_name").is_err());
    }

    #[test]
    fn duplicate_index_rejected() {
        let catalog = setup("dup-index");
        let mut table = Table::create(&catalog, "users", users_schema()).unwrap();
        table.create_index(&catalog, "i1", &cols(&["id"])).unwrap();
        assert!(table.create_index(&catalog, "i2", &cols(&["id"])).is_err(), "same column set");
        assert!(table.create_index(&catalog, "i1", &cols(&["name"])).is_err(), "same name");
        assert!(table.create_index(&catalog, "i3", &cols(&["ghost"])).is_err());
        assert!(table.create_index(&catalog, "i4", &cols(&["id", "id"])).is_err(), "repeated column");
        assert!(table.create_index(&catalog, "i5", &[]).is_err());
        // A composite over the same leading column is allowed.
        table.create_index(&catalog, "i6", &cols(&["id", "name"])).unwrap();
    }

    #[test]
    fn reopen_table_with_indexes() {
        let dir = std::env::temp_dir()
            .join("sbdms-table-tests")
            .join(format!("reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let engine = StorageEngine::open(&dir, 64).unwrap();
            let catalog = Catalog::open(engine.buffer.clone()).unwrap();
            let mut table = Table::create(&catalog, "users", users_schema()).unwrap();
            for i in 0..20 {
                table.insert(row(i, &format!("u{i}"))).unwrap();
            }
            table.create_index(&catalog, "users_id", &cols(&["id"])).unwrap();
            engine.buffer.flush_all().unwrap();
        }
        let engine = StorageEngine::open(&dir, 64).unwrap();
        let catalog = Catalog::open(engine.buffer).unwrap();
        let table = Table::open(&catalog, "users").unwrap();
        assert_eq!(table.len().unwrap(), 20);
        let hits = table.index_on("id").unwrap().search(&[Datum::Int(13)]).unwrap();
        assert_eq!(table.get(hits[0]).unwrap(), row(13, "u13"));
    }

    #[test]
    fn drop_removes_table() {
        let catalog = setup("drop");
        let table = Table::create(&catalog, "users", users_schema()).unwrap();
        table.insert(row(1, "a")).unwrap();
        table.drop(&catalog).unwrap();
        assert!(catalog.table("users").is_err());
        assert!(Table::open(&catalog, "users").is_err());
    }

    #[test]
    fn update_same_indexed_value_is_noop_on_index() {
        let catalog = setup("noop");
        let mut table = Table::create(&catalog, "users", users_schema()).unwrap();
        let rid = table.insert(row(1, "a")).unwrap();
        table.create_index(&catalog, "i", &cols(&["id"])).unwrap();
        table.update(rid, row(1, "b")).unwrap();
        assert_eq!(table.index_on("id").unwrap().search(&[Datum::Int(1)]).unwrap(), vec![rid]);
    }
}
