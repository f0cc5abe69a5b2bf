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
//!    against every equi-join forced onto the nested-loop algorithm.

mod slt_common;

use std::sync::Arc;

use std::collections::BTreeMap;

use proptest::prelude::*;
use sbdms_access::exec::join::JoinAlgorithm;
use sbdms_data::executor::{Database, DbOptions};
use sbdms_data::txn::Durability;
use sbdms_data::{ConcurrencyControl, Session};
use sbdms_storage::{SimBackend, SimConfig};

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
/// plus a database handle opened at that batch size.
struct Replica {
    batch_rows: usize,
    concurrency: ConcurrencyControl,
    sim: Arc<SimBackend>,
    db: Option<Arc<Database>>,
}

impl Replica {
    fn new(batch_rows: usize, concurrency: ConcurrencyControl, seed: u64) -> Replica {
        let sim = SimBackend::new(SimConfig::seeded(seed));
        let mut replica = Replica { batch_rows, concurrency, sim, db: None };
        replica.open();
        replica
    }

    fn open(&mut self) {
        let db = Database::open_at(&*self.sim, opts(self.batch_rows, self.concurrency))
            .unwrap_or_else(|e| panic!("batch {}: open failed: {e}", self.batch_rows));
        db.set_durability(Durability::Full);
        self.db = Some(db);
    }

    fn db(&self) -> &Arc<Database> {
        self.db.as_ref().unwrap()
    }

    /// Power loss: drop the handle, lose unsynced writes, recover.
    fn crash(&mut self) {
        self.db = None;
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
                    let handle = replica.db();
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
                    replica.db().set_statement_deadline_ms(ms);
                }
            }
            Directive::MemLimit { bytes, .. } => {
                for replica in &replicas {
                    replica.db().set_statement_memory_limit(bytes);
                }
            }
            Directive::Query { sql, line, .. } => {
                let ctx = format!("{}:{line}", path.display());
                let answers: Vec<(Vec<String>, Vec<String>)> = replicas
                    .iter()
                    .map(|r| {
                        let result = r.db().execute(&sql).unwrap_or_else(|e| {
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
        .map(|r| (r.batch_rows, r.db(), BTreeMap::new()))
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
fn load_star_workload(db: &Database) {
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
fn rows_of(db: &Database, sql: &str) -> (Vec<String>, Vec<String>) {
    let result = db
        .execute(sql)
        .unwrap_or_else(|e| panic!("`{sql}` failed: {e}"));
    let rows = format_rows(&result);
    (result.columns, rows)
}

/// One in-memory database per batch size, each prepared by `load`.
fn databases(seed: u64, load: impl Fn(&Database)) -> Vec<(Arc<SimBackend>, Arc<Database>)> {
    BATCH_SIZES
        .iter()
        .map(|&b| {
            let sim = SimBackend::new(SimConfig::seeded(seed));
            let db = Database::open_at(&*sim, opts(b, ConcurrencyControl::default())).unwrap();
            load(&db);
            (sim, db)
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

fn insert_rows(db: &Database, table: &str, rows: &[String]) {
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
            // The nested-loop join emits its matches in another order;
            // as a multiset the answer must not change.
            let db = &dbs[0].1;
            db.force_join_algorithm(Some(JoinAlgorithm::NestedLoop));
            let (columns, mut nl) = rows_of(db, sql);
            db.force_join_algorithm(None);
            let (ref_columns, mut want) = reference;
            nl.sort();
            want.sort();
            prop_assert_eq!((columns, nl), (ref_columns, want), "nested loop diverged on `{}`", sql);
        }
    }
}
