//! Batch-size differential suite: the execution engine must produce
//! byte-identical answers at every rows-per-batch setting, so batch
//! boundaries never leak into results. Replicas open at batch 1 (row at
//! a time), 64 (the embedded profile) and 1024 (the default and the
//! full-fledged profile) through `DbOptions::execution_engine`. Three
//! attacks:
//!
//! 1. every `tests/slt/*.slt` script is replayed on three databases over
//!    identically-seeded simulated devices, one per batch size; every
//!    statement must agree on success/failure and every query, EXPLAIN
//!    included, on its exact rows in order (crash directives power-cycle
//!    every replica);
//! 2. the cost-differential star workload's query shapes run on one
//!    database per batch size, compared in exact order;
//! 3. a proptest over random filters, joins, sorts, and aggregates,
//!    compared in exact order across batch sizes and, as a multiset,
//!    against every equi-join forced onto the nested-loop algorithm;
//! 4. the columnar heap scan itself, against `Table::scan` transposed,
//!    over deleted slots, emptied pages and overflow records, in both
//!    CC modes, in autocommit and inside a transaction with own writes,
//!    and against rows a later commit changed that only the version
//!    chains still hold.

mod nested_loop_oracle;
mod slt_common;

use std::sync::Arc;

use std::collections::BTreeMap;

use proptest::prelude::*;
use sbdms_access::exec::batch::{Batch, BatchStream};
use sbdms_access::exec::engine::VectorEngine;
use sbdms_access::heap::{HeapFile, Rid};
use sbdms_access::record::{encode_tuple, Datum, Tuple};
use sbdms_data::executor::{Database, DbOptions};
use sbdms_data::Plan;
use sbdms_data::txn::Durability;
use sbdms_data::{ConcurrencyControl, Session};
use sbdms_storage::{SimBackend, SimConfig};

use nested_loop_oracle::nested_loop_oracle;
use slt_common::{
    format_rows, parse_script, script_concurrency, script_seed, uses_sessions, Directive,
};

/// The rows-per-batch settings every workload is replayed at.
const BATCH_SIZES: [usize; 3] = [1, 64, 1024];

/// Open options for one batch size.
fn opts(batch_rows: usize, concurrency: ConcurrencyControl) -> DbOptions {
    DbOptions {
        execution_engine: Some(batch_rows),
        concurrency,
        ..DbOptions::default()
    }
}

/// One batch size's replica of a script run: a seeded simulated device
/// plus a session on a database opened at that batch size.
struct Replica {
    batch_rows: usize,
    concurrency: ConcurrencyControl,
    sim: Arc<SimBackend>,
    session: Option<Session>,
}

impl Replica {
    fn new(batch_rows: usize, concurrency: ConcurrencyControl, seed: u64) -> Replica {
        let sim = SimBackend::new(SimConfig::seeded(seed));
        let mut replica = Replica { batch_rows, concurrency, sim, session: None };
        replica.open();
        replica
    }

    fn open(&mut self) {
        let db = Database::open_at(&*self.sim, opts(self.batch_rows, self.concurrency))
            .unwrap_or_else(|e| panic!("batch {}: open failed: {e}", self.batch_rows));
        db.set_durability(Durability::Full);
        self.session = Some(db.session());
    }

    fn session(&self) -> &Session {
        self.session.as_ref().unwrap()
    }

    /// Power loss: drop the handle, lose unsynced writes, recover.
    fn crash(&mut self) {
        self.session = None;
        self.sim.power_cycle();
        self.open();
    }
}

fn replay_script(path: &std::path::Path) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let directives = parse_script(&text, path);
    let seed = script_seed(path);
    let concurrency = script_concurrency(&directives);
    let mut replicas: Vec<Replica> = BATCH_SIZES
        .iter()
        .map(|&b| Replica::new(b, concurrency, seed))
        .collect();
    if uses_sessions(&directives) {
        replay_session_script(path, &directives, &replicas);
        return;
    }

    for directive in directives {
        match directive {
            Directive::Statement { sql, expect_ok, error_contains, line } => {
                let ctx = format!("{}:{line}", path.display());
                for replica in &replicas {
                    let handle = replica.session();
                    let upper = sql.to_ascii_uppercase();
                    let result = match upper.as_str() {
                        "BEGIN" => handle.begin().map(|_| ()),
                        "COMMIT" => handle.commit(),
                        "ROLLBACK" => handle.rollback(),
                        _ => handle.execute(&sql).map(|_| ()),
                    };
                    match (expect_ok, result) {
                        (true, Err(e)) => panic!(
                            "{ctx} [batch {}]: expected ok, got error: {e}",
                            replica.batch_rows
                        ),
                        (false, Ok(())) => panic!(
                            "{ctx} [batch {}]: expected an error, got ok",
                            replica.batch_rows
                        ),
                        (false, Err(e)) => {
                            if let Some(text) = &error_contains {
                                assert!(
                                    e.to_string().contains(text),
                                    "{ctx} [batch {}]: error `{e}` does not contain `{text}`",
                                    replica.batch_rows
                                );
                            }
                        }
                        (true, Ok(())) => {}
                    }
                }
            }
            Directive::Deadline { ms, .. } => {
                for replica in &replicas {
                    replica.session().set_statement_deadline_ms(ms);
                }
            }
            Directive::MemLimit { bytes, .. } => {
                for replica in &replicas {
                    replica.session().set_statement_memory_limit(bytes);
                }
            }
            Directive::Query { sql, line, .. } => {
                let ctx = format!("{}:{line}", path.display());
                let answers: Vec<(Vec<String>, Vec<String>)> = replicas
                    .iter()
                    .map(|r| {
                        let result = r.session().execute(&sql).unwrap_or_else(|e| {
                            panic!("{ctx} [batch {}]: query failed: {e}", r.batch_rows)
                        });
                        (result.columns.clone(), format_rows(&result))
                    })
                    .collect();
                for (replica, answer) in replicas.iter().zip(&answers).skip(1) {
                    assert_eq!(
                        answer, &answers[0],
                        "{ctx}: batch {} diverged from batch {} on `{sql}`",
                        replica.batch_rows, BATCH_SIZES[0]
                    );
                }
            }
            Directive::Crash { .. } => {
                for replica in &mut replicas {
                    replica.crash();
                }
            }
            Directive::Concurrency { .. } => {}
            Directive::Session { .. } => unreachable!("session scripts take the session replay"),
        }
    }
}

/// Replay a multi-session script at every batch size: each replica
/// keeps its own named sessions, every statement must agree on
/// success/failure, and every query on its exact rows.
fn replay_session_script(path: &std::path::Path, directives: &[Directive], replicas: &[Replica]) {
    let mut sessions: Vec<(usize, &Arc<Database>, BTreeMap<String, Session>)> = replicas
        .iter()
        .map(|r| (r.batch_rows, r.session().database(), BTreeMap::new()))
        .collect();
    let mut current = "main".to_string();
    for directive in directives {
        match directive {
            Directive::Session { name, .. } => current = name.clone(),
            Directive::Concurrency { .. } => {}
            Directive::Statement { sql, expect_ok, error_contains, line } => {
                let ctx = format!("{}:{line}", path.display());
                for (batch, db, map) in &mut sessions {
                    let session = map.entry(current.clone()).or_insert_with(|| db.session());
                    let result = match sql.to_ascii_uppercase().as_str() {
                        "BEGIN" => session.begin().map(|_| ()),
                        "COMMIT" => session.commit(),
                        "ROLLBACK" => session.rollback(),
                        _ => session.execute(sql).map(|_| ()),
                    };
                    match (expect_ok, result) {
                        (true, Err(e)) => {
                            panic!("{ctx} [batch {batch}/{current}]: expected ok, got error: {e}")
                        }
                        (false, Ok(())) => {
                            panic!("{ctx} [batch {batch}/{current}]: expected an error, got ok")
                        }
                        (false, Err(e)) => {
                            if let Some(text) = error_contains {
                                assert!(
                                    e.to_string().contains(text),
                                    "{ctx} [batch {batch}/{current}]: error `{e}` misses `{text}`"
                                );
                            }
                        }
                        (true, Ok(())) => {}
                    }
                }
            }
            Directive::Query { sql, line, .. } => {
                let ctx = format!("{}:{line}", path.display());
                let mut answers = Vec::new();
                for (batch, db, map) in &mut sessions {
                    let session = map.entry(current.clone()).or_insert_with(|| db.session());
                    let result = session.execute(sql).unwrap_or_else(|e| {
                        panic!("{ctx} [batch {batch}/{current}]: query failed: {e}")
                    });
                    answers.push((result.columns.clone(), format_rows(&result)));
                }
                for answer in &answers[1..] {
                    assert_eq!(
                        answer, &answers[0],
                        "{ctx}: batch sizes diverged on `{sql}` in session `{current}`"
                    );
                }
            }
            Directive::Deadline { line, .. }
            | Directive::MemLimit { line, .. }
            | Directive::Crash { line } => {
                panic!("{}:{line}: directive not supported in session scripts", path.display())
            }
        }
    }
}

#[test]
fn slt_scripts_agree_across_engines() {
    for script in slt_common::slt_scripts() {
        println!("replaying {}", script.display());
        replay_script(&script);
    }
}

/// Mirrors the star workload in `cost_differential.rs`: a 600-row fact
/// table, a 3-row and a 120-row dimension, indexes on `fact.val` and
/// `dim_big.id`.
fn load_star_workload(db: &Session) {
    db.execute("CREATE TABLE fact (id INT NOT NULL, d1 INT NOT NULL, d2 INT NOT NULL, val INT NOT NULL)")
        .unwrap();
    db.execute("CREATE TABLE dim_small (id INT NOT NULL, name TEXT NOT NULL)")
        .unwrap();
    db.execute("CREATE TABLE dim_big (id INT NOT NULL, label TEXT NOT NULL)")
        .unwrap();
    db.execute("CREATE INDEX fact_val ON fact (val)").unwrap();
    db.execute("CREATE INDEX dim_big_id ON dim_big (id)").unwrap();
    for chunk in (0..600i64).collect::<Vec<_>>().chunks(150) {
        let vals: Vec<String> = chunk
            .iter()
            .map(|i| format!("({i}, {}, {}, {})", i % 3, i % 120, (i * 7) % 600))
            .collect();
        db.execute(&format!("INSERT INTO fact VALUES {}", vals.join(", ")))
            .unwrap();
    }
    let vals: Vec<String> = (0..3i64).map(|i| format!("({i}, 'n{i}')")).collect();
    db.execute(&format!("INSERT INTO dim_small VALUES {}", vals.join(", ")))
        .unwrap();
    let vals: Vec<String> = (0..120i64).map(|i| format!("({i}, 'l{i}')")).collect();
    db.execute(&format!("INSERT INTO dim_big VALUES {}", vals.join(", ")))
        .unwrap();
}

/// The `cost_differential.rs` query shapes: join algorithm, join order,
/// and access-path decisions all get exercised at every batch size.
const STAR_QUERIES: &[&str] = &[
    "SELECT fact.id, dim_small.name FROM fact JOIN dim_small ON fact.d1 = dim_small.id",
    "SELECT fact.id, dim_big.label FROM fact JOIN dim_big ON fact.d2 = dim_big.id WHERE dim_big.id < 4",
    "SELECT fact.id, dim_small.name, dim_big.label FROM fact \
     JOIN dim_small ON fact.d1 = dim_small.id \
     JOIN dim_big ON fact.d2 = dim_big.id \
     WHERE dim_big.id < 10 AND fact.val < 300",
    "SELECT id FROM fact WHERE val >= 590",
    "SELECT id FROM fact WHERE val >= 0",
    "SELECT id FROM fact WHERE val >= 100 AND val <= 110",
    "SELECT fact.id FROM fact JOIN dim_big ON fact.d2 = dim_big.id WHERE fact.val = 7",
];

/// Run `sql`; column headers and rows in exact order.
fn rows_of(db: &Session, sql: &str) -> (Vec<String>, Vec<String>) {
    let result = db
        .execute(sql)
        .unwrap_or_else(|e| panic!("`{sql}` failed: {e}"));
    let rows = format_rows(&result);
    (result.columns, rows)
}

/// One in-memory database per batch size, each prepared by `load`, and
/// a session on it.
fn databases(seed: u64, load: impl Fn(&Session)) -> Vec<(Arc<SimBackend>, Session)> {
    BATCH_SIZES
        .iter()
        .map(|&b| {
            let sim = SimBackend::new(SimConfig::seeded(seed));
            let db = Database::open_at(&*sim, opts(b, ConcurrencyControl::default())).unwrap();
            let session = db.session();
            load(&session);
            (sim, session)
        })
        .collect()
}

#[test]
fn star_workload_queries_agree_across_engines() {
    let dbs = databases(0xe12, |db| {
        load_star_workload(db);
        for table in ["fact", "dim_small", "dim_big"] {
            db.execute(&format!("ANALYZE {table}")).unwrap();
        }
    });
    for sql in STAR_QUERIES {
        let reference = rows_of(&dbs[0].1, sql);
        for (&batch, (_, db)) in BATCH_SIZES.iter().zip(&dbs).skip(1) {
            assert_eq!(
                rows_of(db, sql),
                reference,
                "batch {batch} diverged on `{sql}`"
            );
        }
        let explain = format!("EXPLAIN {sql}");
        let reference = rows_of(&dbs[0].1, &explain);
        for (&batch, (_, db)) in BATCH_SIZES.iter().zip(&dbs).skip(1) {
            assert_eq!(
                rows_of(db, &explain),
                reference,
                "batch {batch} diverged on `{explain}`"
            );
        }
    }
}

/// An INT literal or NULL, biased toward a small range so filters and
/// joins actually select and match.
fn small_value() -> impl Strategy<Value = String> {
    prop_oneof![
        8 => (-9i64..10).prop_map(|v| v.to_string()),
        1 => Just("NULL".to_string()),
    ]
}

fn comparison_op() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("<"),
        Just("<="),
        Just("="),
        Just(">="),
        Just(">"),
        Just("<>"),
    ]
}

fn insert_rows(db: &Session, table: &str, rows: &[String]) {
    if rows.is_empty() {
        return;
    }
    db.execute(&format!("INSERT INTO {table} VALUES {}", rows.join(", ")))
        .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random data, random query shapes, every batch size in exact row
    /// order, and the nested-loop join as a multiset reference.
    #[test]
    fn random_queries_agree_across_engines(
        t_rows in proptest::collection::vec((small_value(), 0i64..6), 0..48),
        u_rows in proptest::collection::vec((0i64..6, -9i64..10), 0..24),
        op in comparison_op(),
        lit in -5i64..6,
        seed in 0u64..1_000,
    ) {
        let t_vals: Vec<String> =
            t_rows.iter().map(|(a, b)| format!("({a}, {b})")).collect();
        let u_vals: Vec<String> =
            u_rows.iter().map(|(k, w)| format!("({k}, {w})")).collect();
        let dbs = databases(0xd1ff ^ seed, |db| {
            db.execute("CREATE TABLE t (a INT, b INT NOT NULL)").unwrap();
            db.execute("CREATE TABLE u (k INT NOT NULL, w INT NOT NULL)").unwrap();
            insert_rows(db, "t", &t_vals);
            insert_rows(db, "u", &u_vals);
        });

        let queries = [
            format!("SELECT a, b FROM t WHERE a {op} {lit}"),
            format!("SELECT t.a, u.w FROM t JOIN u ON t.b = u.k WHERE u.w {op} {lit}"),
            "SELECT t.a, u.w FROM t JOIN u ON t.b = u.k".to_string(),
            // Join on the nullable column: NULL keys must never match,
            // and duplicate build keys must fan out in the same order.
            "SELECT t.a, u.w FROM t JOIN u ON t.a = u.k".to_string(),
            // Selection-vector edge cases feeding the join: a filter
            // every row passes (the selection is elided), one no row
            // passes (empty probe side), and one that leaves few
            // survivors (sparse selection into the probe kernel).
            "SELECT t.a, u.w FROM t JOIN u ON t.b = u.k WHERE t.b >= 0".to_string(),
            "SELECT t.a, u.w FROM t JOIN u ON t.b = u.k WHERE t.b < 0".to_string(),
            format!("SELECT t.a, u.w FROM t JOIN u ON t.b = u.k WHERE t.a = {lit}"),
            "SELECT b, COUNT(*), COUNT(a), SUM(a), MIN(a), MAX(a) FROM t GROUP BY b"
                .to_string(),
            "SELECT COUNT(*), SUM(a), AVG(a) FROM t".to_string(),
            "SELECT DISTINCT b FROM t".to_string(),
            "SELECT a FROM t ORDER BY a DESC LIMIT 5".to_string(),
            // OFFSET skips whole batches at small batch sizes and slices
            // inside one at the default size.
            "SELECT a, b FROM t ORDER BY b, a LIMIT 7 OFFSET 3".to_string(),
        ];
        for sql in &queries {
            let reference = rows_of(&dbs[0].1, sql);
            for (&batch, (_, db)) in BATCH_SIZES.iter().zip(&dbs).skip(1) {
                prop_assert_eq!(rows_of(db, sql), reference.clone(), "batch {} diverged on `{}`", batch, sql);
            }
            // The same join as a nested loop (its ON equality written
            // `l + 0 = r`, no edge the planner can hash) emits its
            // matches in another order; as a multiset the answer must
            // not change.
            if !sql.contains(" JOIN ") {
                continue;
            }
            let nested = nested_loop_oracle(sql);
            let db = &dbs[0].1;
            let (_, plan) = rows_of(db, &format!("EXPLAIN {nested}"));
            let has = |node: &str| plan.iter().any(|l| l.contains(node));
            prop_assert!(
                has("NlJoin") && !has("EquiJoin"),
                "`{}` should plan a nested loop: {:?}", nested, plan
            );
            let (columns, mut nl) = rows_of(db, &nested);
            let (ref_columns, mut want) = reference;
            nl.sort();
            want.sort();
            prop_assert_eq!((columns, nl), (ref_columns, want), "nested loop diverged on `{}`", sql);
        }
    }
}

/// `t(k, v, pad)`: 400 rows, ~13 to a page, every 17th with a pad
/// longer than a page (an overflow record); then every 5th row and a
/// run of whole pages deleted.
fn load_scan_table(db: &Arc<Database>) {
    let s = db.session();
    s.execute("CREATE TABLE t (k INT NOT NULL, v INT NOT NULL, pad TEXT NOT NULL)")
        .unwrap();
    for chunk in (0..400i64).collect::<Vec<_>>().chunks(50) {
        let vals: Vec<String> = chunk
            .iter()
            .map(|k| {
                let len = if k % 17 == 3 { 6000 } else { 200 + (k % 7) as usize * 30 };
                format!("({k}, {}, '{k}-{}')", k * 10, "x".repeat(len))
            })
            .collect();
        s.execute(&format!("INSERT INTO t VALUES {}", vals.join(", ")))
            .unwrap();
    }
    s.execute("DELETE FROM t WHERE k % 5 = 0 OR (k >= 100 AND k < 160)")
        .unwrap();
    let t = db.table("t").unwrap();
    let buffer = t.heap().buffer().clone();
    let empty_pages = t
        .heap()
        .data_pages()
        .unwrap()
        .into_iter()
        .filter(|&page| {
            let mut live = 0;
            HeapFile::walk_page(&buffer, page, &mut Vec::new(), |_, records| {
                live += records.len();
                Ok(())
            })
            .unwrap();
            live == 0
        })
        .count();
    assert!(empty_pages >= 2, "the load must leave whole pages empty");
}

/// The committed heap, `Table::scan`, in storage order.
fn heap_rows(db: &Database) -> Vec<(Rid, Tuple)> {
    db.table("t").unwrap().scan().unwrap()
}

/// A database at `batch_rows` rows per batch on a fresh seeded device,
/// loaded by [`load_scan_table`].
fn scan_db(
    seed: u64,
    batch_rows: usize,
    cc: ConcurrencyControl,
) -> (Arc<SimBackend>, Arc<Database>) {
    let sim = SimBackend::new(SimConfig::seeded(seed));
    let db = Database::open_at(&*sim, opts(batch_rows, cc)).unwrap();
    load_scan_table(&db);
    (sim, db)
}

/// A `TableScan` of `t` through the engine at `batch_rows`, on a
/// session with no transaction.
fn scan_stream(db: &Database, batch_rows: usize) -> BatchStream {
    let engine = VectorEngine {
        batch_rows,
        ..VectorEngine::default()
    };
    db.run_plan_with(&engine, &Plan::TableScan { table: "t".into() })
        .unwrap()
}

/// Drain a scan, checking that every batch but the last is full, into
/// the encoded bytes of each row.
fn drain_scan(stream: BatchStream, batch_rows: usize) -> Vec<Vec<u8>> {
    let batches: Vec<Batch> = stream.collect::<Result<_, _>>().unwrap();
    if let Some((last, full)) = batches.split_last() {
        assert!(full.iter().all(|b| b.rows() == batch_rows), "batch {batch_rows}: short batch");
        assert!((1..=batch_rows).contains(&last.rows()), "batch {batch_rows}: bad last batch");
    }
    batches
        .iter()
        .flat_map(|b| (0..b.rows()).map(|r| b.encode_row(r)))
        .collect()
}

fn encoded<'a>(rows: impl IntoIterator<Item = &'a Tuple>) -> Vec<Vec<u8>> {
    rows.into_iter().map(|row| encode_tuple(row)).collect()
}

/// Every row of `t` a session's SELECT sees, encoded, in scan order.
fn session_scan(s: &Session) -> Vec<Vec<u8>> {
    encoded(&s.execute("SELECT * FROM t").unwrap().rows)
}

/// Queries whose scans decode only some columns of `t` (the rest are
/// left NULL) must answer as `rows` — what the scan reader sees — does.
fn check_pruned_scans(db: &Session, rows: &[Tuple], ctx: &str) {
    let int = |d: &Datum| match d {
        Datum::Int(i) => *i,
        other => panic!("not an int: {other:?}"),
    };
    let (ks, vs): (Vec<i64>, Vec<i64>) = rows.iter().map(|r| (int(&r[0]), int(&r[1]))).unzip();
    let got = db.execute("SELECT COUNT(*), SUM(v), MIN(k) FROM t").unwrap();
    let want = vec![
        Datum::Int(rows.len() as i64),
        Datum::Int(vs.iter().sum()),
        Datum::Int(*ks.iter().min().unwrap()),
    ];
    assert_eq!(got.rows, vec![want], "{ctx}: pruned aggregate");
    let got = db.execute("SELECT k FROM t WHERE v % 2 = 0").unwrap();
    let want: Vec<Tuple> = ks
        .iter()
        .zip(&vs)
        .filter(|(_, v)| *v % 2 == 0)
        .map(|(k, _)| vec![Datum::Int(*k)])
        .collect();
    assert_eq!(got.rows, want, "{ctx}: pruned projection");
}

/// What a snapshot taken at heap state `before` sees once later commits
/// left the heap at `after`: the `before` rows in storage order where
/// their slot is still walked, then those a later commit deleted (only
/// the version chains hold them) in rid order. `view` applies the
/// reader's own writes to each row (`None` = deleted by the reader).
fn snapshot_rows(
    before: &[(Rid, Tuple)],
    after: &[(Rid, Tuple)],
    view: impl Fn(&Tuple) -> Option<Tuple>,
) -> Vec<Tuple> {
    let at_snapshot: BTreeMap<Rid, &Tuple> = before.iter().map(|(rid, row)| (*rid, row)).collect();
    let walked: std::collections::BTreeSet<Rid> = after.iter().map(|(rid, _)| *rid).collect();
    let in_place = after.iter().filter_map(|(rid, _)| at_snapshot.get(rid).copied());
    let chain_only = at_snapshot
        .iter()
        .filter(|(rid, _)| !walked.contains(rid))
        .map(|(_, row)| *row);
    in_place.chain(chain_only).filter_map(view).collect()
}

/// The reader's own writes inside a transaction: rows with `k < 200`
/// only, so they never conflict with the concurrent writer's.
const OWN_WRITES: [&str; 3] = [
    "UPDATE t SET v = v + 1000000 WHERE k < 200 AND k % 3 = 1",
    "DELETE FROM t WHERE k < 200 AND k % 7 = 2",
    "INSERT INTO t VALUES (1000, 1, 'own-a'), (1001, 2, 'own-b')",
];

/// [`OWN_WRITES`] applied to one committed row.
fn own_view(row: &Tuple) -> Option<Tuple> {
    let Datum::Int(k) = row[0] else { unreachable!() };
    let Datum::Int(v) = row[1] else { unreachable!() };
    if k < 200 && k % 7 == 2 {
        return None;
    }
    let mut row = row.clone();
    if k < 200 && k % 3 == 1 {
        row[1] = Datum::Int(v + 1_000_000);
    }
    Some(row)
}

fn own_inserts() -> Vec<Tuple> {
    vec![
        vec![Datum::Int(1000), Datum::Int(1), Datum::Str("own-a".into())],
        vec![Datum::Int(1001), Datum::Int(2), Datum::Str("own-b".into())],
    ]
}

/// A commit by another session: updates and deletes among `k >= 200`
/// (`round` varies which), and inserts that may reuse freed slots.
fn concurrent_commit(db: &Arc<Database>, round: i64) {
    let other = db.session();
    other.begin().unwrap();
    other
        .execute(&format!("UPDATE t SET v = v + 7 WHERE k >= 200 AND k % 3 = {}", round % 3))
        .unwrap();
    other
        .execute(&format!("DELETE FROM t WHERE k >= 200 AND k % 11 = {}", round % 11))
        .unwrap();
    other
        .execute(&format!(
            "INSERT INTO t VALUES ({}, 0, 'late'), ({}, 0, '{}')",
            2000 + round * 2,
            2001 + round * 2,
            "y".repeat(6000)
        ))
        .unwrap();
    other.commit().unwrap();
}

#[test]
fn columnar_scan_equals_table_scan() {
    for cc in [ConcurrencyControl::SingleWriter, ConcurrencyControl::Mvcc] {
        // Autocommit: the committed heap, byte for byte.
        let (_sim, db) = scan_db(0x5ca2, BATCH_ROWS_DB, cc);
        let committed: Vec<Tuple> = heap_rows(&db).into_iter().map(|(_, row)| row).collect();
        let want = encoded(&committed);
        for b in BATCH_SIZES {
            assert_eq!(drain_scan(scan_stream(&db, b), b), want, "{cc} autocommit, batch {b}");
        }
        check_pruned_scans(&db.session(), &committed, &format!("{cc} autocommit"));

        // Inside a transaction with own inserts, updates and deletes: a
        // transaction lives in a session, so each batch size gets a
        // database of its own.
        for b in BATCH_SIZES {
            let (_sim, db) = scan_db(0x5ca2, b, cc);
            let s = db.session();
            let before = heap_rows(&db);
            s.begin().unwrap();
            for sql in OWN_WRITES {
                s.execute(sql).unwrap();
            }
            // Buffered in both modes: the heap is untouched, own images
            // replace their rows in place, own inserts come last.
            assert_eq!(heap_rows(&db), before, "{cc}: own writes stay out of the heap");
            let mut seen: Vec<Tuple> = before.iter().filter_map(|(_, row)| own_view(row)).collect();
            seen.extend(own_inserts());
            assert_eq!(session_scan(&s), encoded(&seen), "{cc} in a transaction, batch {b}");
            check_pruned_scans(&s, &seen, &format!("{cc} in a transaction, batch {b}"));
            s.rollback().unwrap();
            assert_eq!(heap_rows(&db), before, "{cc}: rollback leaves the heap as it was");
        }
    }
}

#[test]
fn mvcc_scan_serves_rows_only_the_chains_hold() {
    let (_sim, db) = scan_db(0xc4a1, BATCH_ROWS_DB, ConcurrencyControl::Mvcc);

    // Autocommit: the stream pins its snapshot when built; a commit
    // lands before the first batch is pulled.
    for (round, b) in BATCH_SIZES.into_iter().enumerate() {
        let before = heap_rows(&db);
        let stream = scan_stream(&db, b);
        concurrent_commit(&db, round as i64);
        let after = heap_rows(&db);
        assert_ne!(before, after, "round {round}: the commit changed the heap");
        let want = encoded(&snapshot_rows(&before, &after, |row| Some(row.clone())));
        assert_eq!(drain_scan(stream, b), want, "autocommit, batch {b}");
    }
    let stats = db.mvcc().unwrap().stats();
    assert_eq!(stats.snapshots_active, 0, "every scan released its snapshot");

    // Inside a transaction with own writes, after a concurrent commit,
    // on a database per batch size.
    for b in BATCH_SIZES {
        let (_sim, db) = scan_db(0xc4a1, b, ConcurrencyControl::Mvcc);
        let s = db.session();
        let before = heap_rows(&db);
        s.begin().unwrap();
        for sql in OWN_WRITES {
            s.execute(sql).unwrap();
        }
        concurrent_commit(&db, 7);
        let after = heap_rows(&db);
        let mut rows = snapshot_rows(&before, &after, own_view);
        rows.extend(own_inserts());
        assert_eq!(session_scan(&s), encoded(&rows), "in a transaction, batch {b}");
        check_pruned_scans(&s, &rows, &format!("in a transaction beside a later commit, batch {b}"));
        s.rollback().unwrap();
        let stats = db.mvcc().unwrap().stats();
        assert_eq!(stats.snapshots_active, 0, "batch {b}: every scan released its snapshot");
    }
}

/// The database's own batch size; the scans above pick theirs per call.
const BATCH_ROWS_DB: usize = 1024;
