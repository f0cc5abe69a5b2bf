//! Allocation pins for the point-read path and recovery, counted by a
//! global allocator that keeps per-thread tallies (so tests running on
//! parallel threads do not see each other's allocations).
//!
//! * A point `BTree::search` on a three-level tree allocates only its
//!   result vector: nodes are probed in place on the page frame.
//! * Planning an indexed point SELECT makes the same number of
//!   allocations whatever the histogram size: the catalog shares its
//!   statistics instead of cloning them into the planner.
//! * Recovery over a multi-MiB log keeps its heap high-water mark under a
//!   quarter of the log size: the log streams through one chunk.
//! * GROUP BY allocates per batch and per new group, not per row: 64k
//!   rows into 100 groups allocate no more than 4k rows do, plus a
//!   constant per extra batch.
//! * DISTINCT allocates per batch and per new row, not per row: it runs
//!   on the GROUP BY kernel, so 64k rows into 100 values allocate no
//!   more than 4k rows do, plus a constant per extra batch.
//! * A buffer-pool miss that evicts a clean page allocates nothing: the
//!   page is read straight into the frame it replaces.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;

use sbdms_access::btree::BTree;
use sbdms_access::exec::{AggFunc, AggSpec, Expr, VectorEngine, BATCH_ROWS};
use sbdms_access::heap::Rid;
use sbdms_access::record::{Datum, Tuple};
use sbdms_data::ast::Statement;
use sbdms_data::table::Table;
use sbdms_data::txn::{TableResolver, TransactionManager, UndoOp};
use sbdms_data::{parse, plan_select, Database, DbOptions};
use sbdms_kernel::error::{Result, ServiceError};
use sbdms_storage::services::StorageEngine;
use sbdms_storage::wal::Wal;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn note(allocated: usize, freed: usize) {
    // `try_with`: the tallies may already be gone while a thread exits.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + allocated as i64 - freed as i64;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
    if allocated > 0 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only const-initialized thread-local
// cells, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Bytes this thread's heap grew by at its peak while running `f`,
/// over what it held when `f` started.
fn heap_high_water<R>(f: impl FnOnce() -> R) -> (i64, R) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (PEAK.with(Cell::get) - base, out)
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("sbdms-alloc-pins")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn point_search_allocates_only_its_result() {
    let engine = StorageEngine::open(scratch_dir("search"), 512).unwrap();
    let tree = BTree::create(engine.buffer.clone()).unwrap();
    let key = |i: i64| vec![Datum::Int(i), Datum::Str(format!("{i:06}-{}", "k".repeat(40)))];
    for i in 0..6000 {
        tree.insert(&key(i), Rid::new(i as u64, 0)).unwrap();
    }
    assert!(tree.height().unwrap() >= 3, "the pin needs a three-level tree");
    for i in [0i64, 17, 2999, 5999] {
        let probe = [Datum::Int(i)];
        tree.search(&probe).unwrap(); // every node on the path cached
        let (n, rids) = allocations(|| tree.search(&probe).unwrap());
        assert_eq!(rids, vec![Rid::new(i as u64, 0)]);
        assert_eq!(n, 1, "search({i}) made {n} allocations; only the result vector may allocate");
    }
    let (n, rids) = allocations(|| tree.search(&[Datum::Int(-1)]).unwrap());
    assert!(rids.is_empty());
    assert_eq!(n, 0, "a miss allocates nothing");
}

/// Allocations made planning an indexed point SELECT against a table
/// analyzed with `buckets`-bucket histograms.
fn point_plan_allocations(buckets: usize) -> u64 {
    let db = Database::open_opts(
        scratch_dir(&format!("plan-{buckets}")),
        DbOptions {
            histogram_buckets: buckets,
            ..DbOptions::default()
        },
    )
    .unwrap();
    let s = db.session();
    s.execute("CREATE TABLE t (k INT NOT NULL, v INT, pad TEXT)").unwrap();
    s.execute("CREATE INDEX t_k ON t (k)").unwrap();
    for chunk in 0..10 {
        let rows: Vec<String> = (0..100)
            .map(|i| {
                let k = chunk * 100 + i;
                format!("({k}, {}, '{k:04}-{}')", k * 3, "p".repeat(40))
            })
            .collect();
        s.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();
    }
    s.execute("ANALYZE t").unwrap();
    let meta = db.catalog().table("t").unwrap();
    let stats = meta.stats.as_ref().unwrap();
    for column in ["k", "v", "pad"] {
        let bounds = stats.column(column).unwrap().histogram.as_ref().unwrap().bounds.len();
        assert_eq!(bounds, buckets, "{column} must carry {buckets} buckets");
    }
    let Statement::Select(select) = parse("SELECT v FROM t WHERE k = 77").unwrap() else {
        panic!("not a SELECT")
    };
    let planned = plan_select(&select, &*db).unwrap();
    assert!(planned.plan.explain().contains("IndexScan"), "{}", planned.plan.explain());
    allocations(|| plan_select(&select, &*db).unwrap()).0
}

#[test]
fn planning_does_not_copy_statistics() {
    let small = point_plan_allocations(32);
    let large = point_plan_allocations(256);
    assert_eq!(
        small, large,
        "planning allocates with the histogram size: statistics are being copied"
    );
}

/// Every transaction in the log committed, so recovery never resolves a
/// table.
struct NoTables;

impl TableResolver for NoTables {
    fn resolve(&self, name: &str) -> Result<Table> {
        Err(ServiceError::Internal(format!("recovery resolved `{name}`")))
    }
}

#[test]
fn recovery_streams_the_log() {
    const LOG_BYTES: u64 = 8 << 20;
    let dir = scratch_dir("recovery");
    let row = vec![Datum::Int(7), Datum::Str("r".repeat(200))];
    {
        let engine = StorageEngine::open(&dir, 64).unwrap();
        let txns = TransactionManager::new(engine.wal.clone(), engine.buffer.clone());
        // Transactions overlap two at a time, so some undo is pending at
        // every point of the scan.
        let mut open = txns.begin();
        while engine.wal.next_lsn() < LOG_BYTES {
            let next = txns.begin();
            for _ in 0..4 {
                txns.record(open, UndoOp::insert("t", &row)).unwrap();
                txns.record(next, UndoOp::insert("t", &row)).unwrap();
            }
            txns.commit(open).unwrap();
            open = next;
        }
        txns.commit(open).unwrap();
        engine.wal.sync().unwrap();
    }
    let wal_path = dir.join("wal.log");
    let log_len = std::fs::metadata(&wal_path).unwrap().len();
    assert!(log_len >= LOG_BYTES, "log is only {log_len} bytes");

    let engine = StorageEngine::open(dir.join("pages"), 64).unwrap();
    let (peak, rolled_back) = heap_high_water(|| {
        let wal = Arc::new(Wal::open(&wal_path).unwrap());
        let txns = TransactionManager::new(wal, engine.buffer.clone());
        txns.recover(&NoTables).unwrap()
    });
    assert!(rolled_back.is_empty());
    assert!(
        (peak as u64) < log_len / 4,
        "recovery peaked at {peak} heap bytes over a {log_len}-byte log"
    );
}

/// Allocations made grouping `rows` rows into 100 groups, with every
/// aggregate over INT arguments, in full batches.
fn group_by_allocations(rows: i64) -> u64 {
    let engine = VectorEngine::default();
    let input: Vec<Tuple> = (0..rows)
        .map(|i| vec![Datum::Int(i % 100), Datum::Int(i), Datum::Int(i * 3)])
        .collect();
    let aggs = vec![
        AggSpec::new(AggFunc::CountAll, Expr::int(0)),
        AggSpec::new(AggFunc::Count, Expr::col(1)),
        AggSpec::new(AggFunc::Sum, Expr::col(1)),
        AggSpec::new(AggFunc::Avg, Expr::col(2)),
        AggSpec::new(AggFunc::Min, Expr::col(1)),
        AggSpec::new(AggFunc::Max, Expr::col(2)),
    ];
    allocations(|| {
        let out = engine.hash_aggregate(engine.values(input), vec![Expr::col(0)], aggs).unwrap();
        assert_eq!(engine.collect(out).unwrap().len(), 100);
    })
    .0
}

#[test]
fn group_by_allocates_per_batch_not_per_row() {
    let (small, large) = (4 << 10, 64 << 10);
    let extra_batches = ((large - small) / BATCH_ROWS as i64) as u64;
    let (a_small, a_large) = (group_by_allocations(small), group_by_allocations(large));
    assert!(
        a_large <= a_small + 16 * extra_batches,
        "GROUP BY allocated {a_small} times over {small} rows and {a_large} over {large}: \
         more than 16 per extra batch, so it allocates per row"
    );
}

/// Allocations made by DISTINCT over `rows` rows of 100 values, in
/// full batches.
fn distinct_allocations(rows: i64) -> u64 {
    let engine = VectorEngine::default();
    let input: Vec<Tuple> = (0..rows).map(|i| vec![Datum::Int(i % 100)]).collect();
    allocations(|| {
        let out = engine.distinct(engine.values(input));
        assert_eq!(engine.collect(out).unwrap().len(), 100);
    })
    .0
}

#[test]
fn distinct_allocates_per_batch_not_per_row() {
    let (small, large) = (4 << 10, 64 << 10);
    let extra_batches = ((large - small) / BATCH_ROWS as i64) as u64;
    let (a_small, a_large) = (distinct_allocations(small), distinct_allocations(large));
    assert!(
        a_large <= a_small + 16 * extra_batches,
        "DISTINCT allocated {a_small} times over {small} rows and {a_large} over {large}: \
         more than 16 per extra batch, so it allocates per row"
    );
}

#[test]
fn a_buffer_miss_allocates_nothing() {
    let engine = StorageEngine::open(scratch_dir("miss"), 4).unwrap();
    let pool = &engine.buffer;
    let pages: Vec<u64> = (0..16).map(|_| pool.new_page().unwrap()).collect();
    for &p in &pages {
        pool.with_page_mut(p, |page| page.insert(b"row").unwrap()).unwrap();
    }
    pool.flush_all().unwrap();
    // Every page has been through a frame once, so the pool's own maps
    // are at their working size; the first half is no longer resident.
    for &p in &pages {
        pool.with_page(p, |_| ()).unwrap();
    }
    let misses = pool.stats().misses;
    for &p in &pages[..8] {
        let (n, slots) = allocations(|| pool.with_page(p, |page| page.slot_count()).unwrap());
        assert_eq!(slots, 1);
        assert_eq!(n, 0, "a miss on page {p} made {n} allocations");
    }
    assert_eq!(pool.stats().misses, misses + 8, "every read must have missed");
}
