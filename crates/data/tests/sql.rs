//! End-to-end SQL tests against the `Database` engine.

use sbdms_access::record::Datum;
use sbdms_data::executor::{Database, DbOptions};
use sbdms_data::Session;
use sbdms_data::txn::Durability;

fn db(name: &str) -> std::sync::Arc<Database> {
    let dir = std::env::temp_dir()
        .join("sbdms-sql-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Database::open(&dir).unwrap()
}

fn seed(s: &Session) {
    s.execute("CREATE TABLE users (id INT NOT NULL, name TEXT NOT NULL, age INT)")
        .unwrap();
    s.execute(
        "INSERT INTO users VALUES \
         (1, 'alice', 30), (2, 'bob', 25), (3, 'carol', 35), (4, 'dave', NULL)",
    )
    .unwrap();
    s.execute("CREATE TABLE orders (oid INT NOT NULL, user_id INT NOT NULL, amount INT NOT NULL)")
        .unwrap();
    s.execute(
        "INSERT INTO orders VALUES \
         (100, 1, 50), (101, 1, 75), (102, 2, 20), (103, 3, 500), (104, 3, 1)",
    )
    .unwrap();
}

fn ints(s: &Session, sql: &str) -> Vec<i64> {
    s.execute(sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| match &r[0] {
            Datum::Int(i) => *i,
            other => panic!("expected int, got {other:?}"),
        })
        .collect()
}

fn strs(s: &Session, sql: &str) -> Vec<String> {
    s.execute(sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].to_string())
        .collect()
}

#[test]
fn create_insert_select() {
    let db = db("basic");
    let s = db.session();
    seed(&s);
    let r = s.execute("SELECT * FROM users ORDER BY id").unwrap();
    assert_eq!(r.columns, vec!["id", "name", "age"]);
    assert_eq!(r.rows.len(), 4);
    assert_eq!(r.rows[0][1], Datum::Str("alice".into()));
    assert_eq!(r.rows[3][2], Datum::Null);
}

#[test]
fn where_filters_and_null_semantics() {
    let db = db("where");
    let s = db.session();
    seed(&s);
    assert_eq!(ints(&s, "SELECT id FROM users WHERE age > 26 ORDER BY id"), vec![1, 3]);
    // dave (NULL age) is dropped by any comparison.
    assert_eq!(
        ints(&s, "SELECT id FROM users WHERE age > 0 OR age <= 0 ORDER BY id"),
        vec![1, 2, 3]
    );
    assert_eq!(ints(&s, "SELECT id FROM users WHERE age IS NULL"), vec![4]);
    assert_eq!(
        ints(&s, "SELECT id FROM users WHERE age IS NOT NULL ORDER BY id"),
        vec![1, 2, 3]
    );
}

#[test]
fn projection_expressions_and_aliases() {
    let db = db("project");
    let s = db.session();
    seed(&s);
    let r = s
        .execute("SELECT name, age * 2 AS double_age FROM users WHERE id = 1")
        .unwrap();
    assert_eq!(r.columns, vec!["name", "double_age"]);
    assert_eq!(r.rows[0][1], Datum::Int(60));
}

#[test]
fn joins_two_and_three_way() {
    let db = db("joins");
    let s = db.session();
    seed(&s);
    let r = s
        .execute(
            "SELECT name, amount FROM users u JOIN orders o ON u.id = o.user_id \
             ORDER BY amount DESC",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 5);
    assert_eq!(r.rows[0][0], Datum::Str("carol".into()));
    assert_eq!(r.rows[0][1], Datum::Int(500));

    // Self-join through qualifiers.
    let r = s
        .execute(
            "SELECT a.oid FROM orders a JOIN orders b ON a.user_id = b.user_id \
             WHERE a.oid <> b.oid ORDER BY a.oid",
        )
        .unwrap();
    // pairs within user 1 (100,101) and user 3 (103,104): each direction.
    assert_eq!(r.rows.len(), 4);
}

#[test]
fn aggregates_group_by_having() {
    let db = db("aggs");
    let s = db.session();
    seed(&s);
    let r = s
        .execute(
            "SELECT user_id, COUNT(*) AS n, SUM(amount) AS total \
             FROM orders GROUP BY user_id ORDER BY user_id",
        )
        .unwrap();
    assert_eq!(r.columns, vec!["user_id", "n", "total"]);
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[0], vec![Datum::Int(1), Datum::Int(2), Datum::Int(125)]);
    assert_eq!(r.rows[2], vec![Datum::Int(3), Datum::Int(2), Datum::Int(501)]);

    // HAVING may use aggregates that are not projected: a hidden agg
    // slot is appended and dropped by the final projection.
    let r = s
        .execute(
            "SELECT user_id FROM orders GROUP BY user_id HAVING COUNT(*) > 1 ORDER BY user_id",
        )
        .unwrap();
    assert_eq!(r.columns, vec!["user_id"]);
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0], vec![Datum::Int(1)]);
    assert_eq!(r.rows[1], vec![Datum::Int(3)]);

    // And mixed forms: alias + hidden aggregate + group column.
    let r = s
        .execute(
            "SELECT user_id, COUNT(*) AS n FROM orders GROUP BY user_id \
             HAVING SUM(amount) > 100 AND user_id > 0 ORDER BY user_id",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2); // users 1 (125) and 3 (501)

    let r = s
        .execute(
            "SELECT user_id, COUNT(*) AS n FROM orders GROUP BY user_id \
             HAVING n > 1 ORDER BY user_id",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn global_aggregates() {
    let db = db("global-aggs");
    let s = db.session();
    seed(&s);
    let r = s
        .execute("SELECT COUNT(*), AVG(amount), MIN(amount), MAX(amount) FROM orders")
        .unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(5));
    assert_eq!(r.rows[0][1], Datum::Float(129.2));
    assert_eq!(r.rows[0][2], Datum::Int(1));
    assert_eq!(r.rows[0][3], Datum::Int(500));
    // COUNT(age) skips NULLs.
    let r = s.execute("SELECT COUNT(age) FROM users").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(3));
}

#[test]
fn distinct_order_limit_offset() {
    let db = db("dlo");
    let s = db.session();
    seed(&s);
    assert_eq!(
        ints(&s, "SELECT DISTINCT user_id FROM orders ORDER BY user_id"),
        vec![1, 2, 3]
    );
    assert_eq!(
        ints(&s, "SELECT oid FROM orders ORDER BY amount DESC LIMIT 2"),
        vec![103, 101]
    );
    assert_eq!(
        ints(&s, "SELECT oid FROM orders ORDER BY amount DESC LIMIT 2 OFFSET 1"),
        vec![101, 100]
    );
}

#[test]
fn update_and_delete() {
    let db = db("dml");
    let s = db.session();
    seed(&s);
    let r = s.execute("UPDATE users SET age = age + 1 WHERE age IS NOT NULL").unwrap();
    assert_eq!(r.affected, 3);
    assert_eq!(ints(&s, "SELECT age FROM users WHERE id = 1"), vec![31]);

    let r = s.execute("DELETE FROM orders WHERE amount < 50").unwrap();
    assert_eq!(r.affected, 2);
    assert_eq!(ints(&s, "SELECT COUNT(*) FROM orders"), vec![3]);

    let r = s.execute("DELETE FROM orders").unwrap();
    assert_eq!(r.affected, 3);
    assert_eq!(ints(&s, "SELECT COUNT(*) FROM orders"), vec![0]);
}

#[test]
fn insert_with_column_list_fills_nulls() {
    let db = db("collist");
    let s = db.session();
    seed(&s);
    s.execute("INSERT INTO users (name, id) VALUES ('eve', 9)").unwrap();
    let r = s.execute("SELECT age, name FROM users WHERE id = 9").unwrap();
    assert_eq!(r.rows[0][0], Datum::Null);
    assert_eq!(r.rows[0][1], Datum::Str("eve".into()));
    // NOT NULL violation when omitted.
    assert!(s.execute("INSERT INTO users (id) VALUES (10)").is_err());
}

#[test]
fn index_accelerated_queries_agree_with_scans() {
    let db = db("index");
    let s = db.session();
    seed(&s);
    let before = strs(&s, "SELECT name FROM users WHERE id = 3");
    s.execute("CREATE INDEX users_id ON users (id)").unwrap();
    let after = strs(&s, "SELECT name FROM users WHERE id = 3");
    assert_eq!(before, after);
    // Range through the index.
    assert_eq!(
        ints(&s, "SELECT id FROM users WHERE id >= 2 AND id < 4 ORDER BY id"),
        vec![2, 3]
    );
    // DML keeps the index fresh.
    s.execute("DELETE FROM users WHERE id = 3").unwrap();
    assert!(strs(&s, "SELECT name FROM users WHERE id = 3").is_empty());
}

#[test]
fn views_select_and_join() {
    let db = db("views");
    let s = db.session();
    seed(&s);
    s.execute("CREATE VIEW big_orders AS SELECT user_id, amount FROM orders WHERE amount >= 50")
        .unwrap();
    assert_eq!(ints(&s, "SELECT COUNT(*) FROM big_orders"), vec![3]);
    let r = s
        .execute(
            "SELECT name FROM users u JOIN big_orders b ON u.id = b.user_id \
             ORDER BY name",
        )
        .unwrap();
    let names: Vec<String> = r.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(names, vec!["alice", "alice", "carol"]);
    s.execute("DROP VIEW big_orders").unwrap();
    assert!(s.execute("SELECT * FROM big_orders").is_err());
}

#[test]
fn transaction_commit_and_rollback() {
    let db = db("txn");
    let s = db.session();
    seed(&s);
    s.begin().unwrap();
    s.execute("INSERT INTO users VALUES (50, 'temp', 1)").unwrap();
    s.execute("UPDATE users SET name = 'bobby' WHERE id = 2").unwrap();
    s.execute("DELETE FROM users WHERE id = 1").unwrap();
    assert_eq!(ints(&s, "SELECT COUNT(*) FROM users"), vec![4]);
    s.rollback().unwrap();

    // Everything restored.
    assert_eq!(ints(&s, "SELECT COUNT(*) FROM users"), vec![4]);
    assert_eq!(strs(&s, "SELECT name FROM users WHERE id = 2"), vec!["bob"]);
    assert_eq!(strs(&s, "SELECT name FROM users WHERE id = 1"), vec!["alice"]);
    assert!(strs(&s, "SELECT name FROM users WHERE id = 50").is_empty());

    // Commit persists.
    s.begin().unwrap();
    s.execute("INSERT INTO users VALUES (60, 'kept', 2)").unwrap();
    s.commit().unwrap();
    assert_eq!(strs(&s, "SELECT name FROM users WHERE id = 60"), vec!["kept"]);
}

#[test]
fn transaction_misuse_errors() {
    let db = db("txn-misuse");
    let s = db.session();
    assert!(s.commit().is_err());
    assert!(s.rollback().is_err());
    s.begin().unwrap();
    assert!(s.begin().is_err(), "one txn per session");
    assert!(db.checkpoint().is_err(), "no checkpoint inside txn");
    s.commit().unwrap();
    db.checkpoint().unwrap();
}

/// Dropping a session rolls back its open transaction. Under
/// single-writer that releases the writer slot: a session dropped
/// mid-transaction no longer locks every other session out.
#[test]
fn dropped_single_writer_session_frees_the_writer_slot() {
    let db = db("drop-single-writer");
    let setup = db.session();
    setup.execute("CREATE TABLE t (k INT NOT NULL)").unwrap();
    setup.execute("INSERT INTO t VALUES (1)").unwrap();
    let a = db.session();
    a.begin().unwrap();
    a.execute("INSERT INTO t VALUES (2)").unwrap();
    drop(a);
    let b = db.session();
    b.begin().expect("the dropped session still holds the writer slot");
    assert_eq!(ints(&b, "SELECT COUNT(*) FROM t"), vec![1], "A's insert was discarded");
    b.execute("INSERT INTO t VALUES (3)").unwrap();
    b.commit().unwrap();
    assert_eq!(ints(&setup, "SELECT k FROM t ORDER BY k"), vec![1, 3]);
}

/// Under MVCC, a session dropped mid-transaction releases its write
/// locks and its pinned snapshot: another session updates the same row
/// and commits, and no snapshot stays pinned to hold back GC.
#[test]
fn dropped_mvcc_session_releases_locks_and_snapshot() {
    use sbdms_data::executor::DbOptions;
    use sbdms_data::ConcurrencyControl;
    let dir = std::env::temp_dir()
        .join("sbdms-sql-tests")
        .join(format!("drop-mvcc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = DbOptions {
        concurrency: ConcurrencyControl::Mvcc,
        ..DbOptions::default()
    };
    let db = Database::open_opts(&dir, opts).unwrap();
    let setup = db.session();
    setup.execute("CREATE TABLE t (k INT NOT NULL, v INT NOT NULL)").unwrap();
    setup.execute("INSERT INTO t VALUES (1, 0)").unwrap();
    let mvcc = db.mvcc().unwrap();
    let a = db.session();
    a.begin().unwrap();
    a.execute("UPDATE t SET v = 1 WHERE k = 1").unwrap();
    assert_eq!(mvcc.stats().snapshots_active, 1);
    drop(a);
    assert_eq!(mvcc.stats().snapshots_active, 0, "the dropped session's snapshot is unpinned");
    let b = db.session();
    b.begin().unwrap();
    b.execute("UPDATE t SET v = 2 WHERE k = 1")
        .expect("the dropped session still holds the row's write lock");
    b.commit().unwrap();
    assert_eq!(ints(&setup, "SELECT v FROM t WHERE k = 1"), vec![2]);
    assert_eq!(mvcc.stats().snapshots_active, 0);
}

/// Under single-writer, BEGIN's busy check and its claim of the writer
/// slot are one step: two sessions released together into BEGIN, round
/// after round, never both open a transaction — and one always does.
/// The threads meet at a polling barrier and then stagger their BEGINs
/// by a varying few spins, so some rounds start both at the same time.
#[test]
fn single_writer_begin_race_has_one_winner() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    const ROUNDS: usize = 20_000;
    let db = db("begin-race");
    let s = db.session();
    s.execute("CREATE TABLE t (k INT NOT NULL)").unwrap();
    let winners = AtomicUsize::new(0);
    let bad_rounds = AtomicUsize::new(0);
    let arrived = AtomicUsize::new(0);
    // Barrier `n` releases once both threads have arrived `n` times.
    // Yielding keeps it live on a host with fewer free cores than threads.
    let meet = |n: usize| {
        arrived.fetch_add(1, Ordering::SeqCst);
        while arrived.load(Ordering::SeqCst) < 2 * n {
            std::thread::yield_now();
        }
    };
    std::thread::scope(|scope| {
        for thread in 0..2 {
            let (db, winners, bad_rounds, meet) = (&db, &winners, &bad_rounds, &meet);
            scope.spawn(move || {
                let session = db.session();
                for round in 0..ROUNDS {
                    meet(3 * round + 1);
                    // Sweep the two starts across each other: whichever
                    // thread the barrier releases first, some rounds
                    // line both BEGINs up on the same instant.
                    for _ in 0..(round * (thread + 1)) % 61 {
                        std::hint::spin_loop();
                    }
                    let won = session.begin().is_ok();
                    if won {
                        winners.fetch_add(1, Ordering::SeqCst);
                    }
                    meet(3 * round + 2);
                    if thread == 0 && winners.load(Ordering::SeqCst) != 1 {
                        bad_rounds.fetch_add(1, Ordering::SeqCst);
                    }
                    if won {
                        session.rollback().unwrap();
                    }
                    meet(3 * round + 3);
                    if thread == 0 {
                        winners.store(0, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    let bad = bad_rounds.load(Ordering::SeqCst);
    assert_eq!(
        bad, 0,
        "{bad} of {ROUNDS} rounds did not have exactly one writer"
    );
    // Every hold was released: a third session writes freely.
    db.session().execute("INSERT INTO t VALUES (1)").unwrap();
}

/// A transaction still open at a crash leaves no trace: its writes wait
/// in the session's write set, so neither the heap pages flushed before
/// the crash nor the synced WAL carry any of them, and the reopened
/// database holds exactly the committed rows.
#[test]
fn open_transaction_leaves_no_trace_after_crash() {
    let dir = std::env::temp_dir()
        .join("sbdms-sql-tests")
        .join(format!("recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Database::open(&dir).unwrap();
        let s = db.session();
        db.set_durability(Durability::Full);
        seed(&s);
        db.checkpoint().unwrap();
        s.begin().unwrap();
        s.execute("DELETE FROM users WHERE id = 1").unwrap();
        s.execute("INSERT INTO users VALUES (99, 'phantom', 1)").unwrap();
        // Flush every dirty page and the WAL, then drop without commit:
        // the crash.
        db.storage().buffer.flush_all().unwrap();
        db.storage().wal.sync().unwrap();
        assert!(
            db.storage().wal.records().unwrap().is_empty(),
            "the open transaction logged nothing"
        );
    }
    let db = Database::open(&dir).unwrap();
    let s = db.session();
    assert_eq!(strs(&s, "SELECT name FROM users WHERE id = 1"), vec!["alice"]);
    assert!(strs(&s, "SELECT name FROM users WHERE id = 99").is_empty());
    assert_eq!(ints(&s, "SELECT COUNT(*) FROM users"), vec![4]);
}

#[test]
fn reopen_preserves_committed_data() {
    let dir = std::env::temp_dir()
        .join("sbdms-sql-tests")
        .join(format!("reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Database::open(&dir).unwrap();
        let s = db.session();
        seed(&s);
        s.execute("CREATE INDEX users_id ON users (id)").unwrap();
        db.checkpoint().unwrap();
    }
    let opts = DbOptions {
        buffer_frames: 32,
        ..DbOptions::default()
    };
    let db = Database::open_opts(&dir, opts).unwrap();
    let s = db.session();
    assert_eq!(ints(&s, "SELECT COUNT(*) FROM users"), vec![4]);
    assert_eq!(strs(&s, "SELECT name FROM users WHERE id = 2"), vec!["bob"]);
    assert_eq!(
        db.catalog().table_names(),
        vec!["orders".to_string(), "users".to_string()]
    );
}

#[test]
fn drop_table_frees_name() {
    let db = db("drop");
    let s = db.session();
    seed(&s);
    s.execute("DROP TABLE orders").unwrap();
    assert!(s.execute("SELECT * FROM orders").is_err());
    s.execute("CREATE TABLE orders (x INT)").unwrap();
    assert_eq!(ints(&s, "SELECT COUNT(*) FROM orders"), vec![0]);
}

#[test]
fn select_without_from_and_errors() {
    let db = db("misc");
    let s = db.session();
    let r = s.execute("SELECT 2 + 3 AS five, 'hi'").unwrap();
    assert_eq!(r.rows[0], vec![Datum::Int(5), Datum::Str("hi".into())]);
    assert!(s.execute("SELECT * FROM nothing").is_err());
    assert!(s.execute("INSERT INTO nothing VALUES (1)").is_err());
    assert!(s.execute("total nonsense").is_err());
    assert!(s.execute("SELECT 1 / 0").is_err());
}

#[test]
fn larger_workload_spans_pages() {
    let db = db("volume");
    let s = db.session();
    s.execute("CREATE TABLE items (id INT NOT NULL, payload TEXT NOT NULL)")
        .unwrap();
    for batch in 0..20 {
        let values: Vec<String> = (0..50)
            .map(|i| {
                let id = batch * 50 + i;
                format!("({id}, 'payload-{id}-{}')", "x".repeat(60))
            })
            .collect();
        s.execute(&format!("INSERT INTO items VALUES {}", values.join(",")))
            .unwrap();
    }
    assert_eq!(ints(&s, "SELECT COUNT(*) FROM items"), vec![1000]);
    assert_eq!(
        ints(&s, "SELECT id FROM items WHERE id % 250 = 0 ORDER BY id"),
        vec![0, 250, 500, 750]
    );
    s.execute("CREATE INDEX items_id ON items (id)").unwrap();
    assert_eq!(ints(&s, "SELECT id FROM items WHERE id = 777"), vec![777]);
}

#[test]
fn nested_views_expand_transitively() {
    let db = db("nested-views");
    let s = db.session();
    seed(&s);
    s.execute("CREATE VIEW adults AS SELECT id, name, age FROM users WHERE age >= 30")
        .unwrap();
    s.execute("CREATE VIEW adult_names AS SELECT name FROM adults ORDER BY name")
        .unwrap();
    assert_eq!(strs(&s, "SELECT * FROM adult_names"), vec!["alice", "carol"]);
    // A view of a view of a view.
    s.execute("CREATE VIEW first_adult AS SELECT name FROM adult_names LIMIT 1")
        .unwrap();
    assert_eq!(strs(&s, "SELECT * FROM first_adult"), vec!["alice"]);
}

#[test]
fn dropping_base_table_breaks_views_gracefully() {
    let db = db("view-dangles");
    let s = db.session();
    seed(&s);
    s.execute("CREATE VIEW v AS SELECT id FROM users").unwrap();
    s.execute("DROP TABLE users").unwrap();
    // The view survives in the catalog but queries error cleanly.
    assert!(s.execute("SELECT * FROM v").is_err());
    s.execute("DROP VIEW v").unwrap();
}

#[test]
fn qualified_star_semantics_and_multi_join() {
    let db = db("multi-join");
    let s = db.session();
    seed(&s);
    s.execute("CREATE TABLE regions (uid INT NOT NULL, region TEXT NOT NULL)")
        .unwrap();
    s.execute("INSERT INTO regions VALUES (1, 'eu'), (2, 'us'), (3, 'eu')")
        .unwrap();
    // Three-way join: users -> orders -> regions.
    let r = s
        .execute(
            "SELECT region, SUM(amount) AS total \
             FROM users u JOIN orders o ON u.id = o.user_id \
             JOIN regions r ON u.id = r.uid \
             GROUP BY region ORDER BY region",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][0], Datum::Str("eu".into()));
    assert_eq!(r.rows[0][1], Datum::Int(626)); // alice 125 + carol 501
    assert_eq!(r.rows[1][1], Datum::Int(20)); // bob
}

#[test]
fn update_with_expression_over_multiple_columns() {
    let db = db("update-expr");
    let s = db.session();
    seed(&s);
    s.execute("UPDATE orders SET amount = amount * 2 + oid WHERE user_id = 1")
        .unwrap();
    assert_eq!(
        ints(&s, "SELECT amount FROM orders WHERE user_id = 1 ORDER BY oid"),
        vec![200, 251] // 50*2+100, 75*2+101
    );
}

#[test]
fn boolean_columns_and_literals() {
    let db = db("bools");
    let s = db.session();
    s.execute("CREATE TABLE flags (name TEXT NOT NULL, active BOOL NOT NULL)")
        .unwrap();
    s.execute("INSERT INTO flags VALUES ('a', true), ('b', false), ('c', true)")
        .unwrap();
    assert_eq!(
        strs(&s, "SELECT name FROM flags WHERE active = true ORDER BY name"),
        vec!["a", "c"]
    );
    assert_eq!(
        strs(&s, "SELECT name FROM flags WHERE NOT active"),
        vec!["b"]
    );
}

#[test]
fn text_ordering_and_like_free_filters() {
    let db = db("text-order");
    let s = db.session();
    seed(&s);
    // ORDER BY text column descending.
    assert_eq!(
        strs(&s, "SELECT name FROM users ORDER BY name DESC LIMIT 2"),
        vec!["dave", "carol"]
    );
    // String comparison predicates.
    assert_eq!(
        strs(&s, "SELECT name FROM users WHERE name >= 'c' ORDER BY name"),
        vec!["carol", "dave"]
    );
}

#[test]
fn large_text_values_roundtrip_via_overflow() {
    let db = db("big-text");
    let s = db.session();
    s.execute("CREATE TABLE blobs (id INT NOT NULL, body TEXT NOT NULL)")
        .unwrap();
    let big = "z".repeat(12_000);
    s.execute(&format!("INSERT INTO blobs VALUES (1, '{big}')")).unwrap();
    let r = s.execute("SELECT body FROM blobs WHERE id = 1").unwrap();
    assert_eq!(r.rows[0][0], Datum::Str(big));
    // Update shrinks it back inline.
    s.execute("UPDATE blobs SET body = 'small' WHERE id = 1").unwrap();
    assert_eq!(strs(&s, "SELECT body FROM blobs"), vec!["small"]);
}

#[test]
fn order_by_expression_via_alias() {
    let db = db("alias-order");
    let s = db.session();
    seed(&s);
    let r = s
        .execute("SELECT oid, amount * 2 AS doubled FROM orders ORDER BY doubled DESC LIMIT 1")
        .unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(103));
    assert_eq!(r.rows[0][1], Datum::Int(1000));
}

#[test]
fn like_in_between_end_to_end() {
    let db = db("like-in-between");
    let s = db.session();
    seed(&s);
    assert_eq!(
        strs(&s, "SELECT name FROM users WHERE name LIKE '%a%' ORDER BY name"),
        vec!["alice", "carol", "dave"]
    );
    assert_eq!(
        strs(&s, "SELECT name FROM users WHERE name LIKE '_ob'"),
        vec!["bob"]
    );
    assert_eq!(
        ints(&s, "SELECT oid FROM orders WHERE amount BETWEEN 20 AND 75 ORDER BY oid"),
        vec![100, 101, 102]
    );
    assert_eq!(
        ints(&s, "SELECT id FROM users WHERE id IN (1, 3, 99) ORDER BY id"),
        vec![1, 3]
    );
    assert_eq!(
        ints(&s, "SELECT id FROM users WHERE id NOT IN (1, 3) ORDER BY id"),
        vec![2, 4]
    );
    assert_eq!(
        strs(&s, "SELECT name FROM users WHERE name NOT LIKE '%a%' ORDER BY name"),
        vec!["bob"]
    );
    assert_eq!(
        ints(&s, "SELECT oid FROM orders WHERE amount NOT BETWEEN 20 AND 500"),
        vec![104]
    );
}

/// The hash join answers like a nested loop over the same join: its ON
/// equality written `u.id + 0 = o.user_id` is no equi edge to the
/// planner.
#[test]
fn join_algorithms_agree_through_sql() {
    let db = db("join-algos");
    let s = db.session();
    seed(&s);
    let (hash, nested_loop) = (
        "SELECT name, amount FROM users u JOIN orders o ON u.id = o.user_id \
         ORDER BY amount, name",
        "SELECT name, amount FROM users u JOIN orders o ON u.id + 0 = o.user_id \
         ORDER BY amount, name",
    );
    let reference = s.execute(hash).unwrap().rows;
    assert_eq!(reference.len(), 5);
    assert_eq!(s.execute(nested_loop).unwrap().rows, reference);
    for (sql, node) in [(hash, "EquiJoin[Hash]"), (nested_loop, "NlJoin")] {
        let plan = db.cached_plan(sql).expect("the statement left a cached plan").explain();
        assert!(plan.contains(node), "{node}: {plan}");
    }
}

#[test]
fn plan_cache_hits_on_repeated_select() {
    let db = db("plan-cache-hit");
    let s = db.session();
    seed(&s);
    let sql = "SELECT name FROM users WHERE id = 2";
    let first = s.execute(sql).unwrap();
    let before = db.plan_cache_stats();
    for _ in 0..5 {
        assert_eq!(s.execute(sql).unwrap(), first);
    }
    let after = db.plan_cache_stats();
    assert_eq!(after.hits - before.hits, 5, "repeats must hit the cache");
    assert_eq!(after.misses, before.misses);
    assert!(after.entries >= 1);
}

#[test]
fn plan_cache_invalidated_by_ddl() {
    let db = db("plan-cache-ddl");
    let s = db.session();
    seed(&s);
    let sql = "SELECT id FROM users ORDER BY id";
    s.execute(sql).unwrap();
    assert!(s.execute(sql).is_ok());
    let hits_before = db.plan_cache_stats().hits;

    // DDL bumps the catalog version: the cached plan must not be reused.
    s.execute("CREATE TABLE extra (x INT)").unwrap();
    s.execute(sql).unwrap();
    let stats = db.plan_cache_stats();
    assert_eq!(stats.hits, hits_before, "post-DDL lookup must miss");

    // Dropping a table a cached plan depends on must not leave the
    // stale plan runnable.
    let scan_extra = "SELECT x FROM extra";
    s.execute(scan_extra).unwrap();
    s.execute("DROP TABLE extra").unwrap();
    assert!(s.execute(scan_extra).is_err(), "dropped table must error");
}

/// Flipping a join planner knob (join reordering) invalidates cached
/// join plans.
#[test]
fn plan_cache_invalidated_by_join_algorithm_change() {
    let db = db("plan-cache-join");
    let s = db.session();
    seed(&s);
    let sql = "SELECT name, amount FROM users u JOIN orders o ON u.id = o.user_id \
               ORDER BY amount, name";
    let reference = s.execute(sql).unwrap().rows;
    let hits_before = db.plan_cache_stats().hits;
    db.set_join_reordering(false);
    assert_eq!(s.execute(sql).unwrap().rows, reference);
    assert_eq!(
        db.plan_cache_stats().hits,
        hits_before,
        "a join knob change must invalidate cached plans"
    );
    // Same knobs again: now it can hit.
    assert_eq!(s.execute(sql).unwrap().rows, reference);
    assert_eq!(db.plan_cache_stats().hits, hits_before + 1);
}

/// A buffer pool striped into shards answers exactly like a single
/// stripe. (The name predates the retired `parallelism` option; sort
/// workers are now chosen from the input's size and are checked in
/// `sort::tests::auto_sort_matches_serial_across_the_crossover`.)
#[test]
fn parallel_execution_matches_serial() {
    use sbdms_data::executor::DbOptions;

    let open = |shards: usize| {
        let dir = std::env::temp_dir()
            .join("sbdms-sql-tests")
            .join(format!("shards-{shards}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Database::open_opts(
            &dir,
            DbOptions {
                buffer_frames: 16,
                buffer_shards: Some(shards),
                ..DbOptions::default()
            },
        )
        .unwrap()
    };
    let (single, sharded) = (open(1), open(4));
    let (single, sharded) = (single.session(), sharded.session());

    for s in [&single, &sharded] {
        s.execute("CREATE TABLE nums (n INT NOT NULL, label TEXT NOT NULL)")
            .unwrap();
        s.execute("CREATE INDEX nums_n ON nums (n)").unwrap();
        for chunk in (0..2000).collect::<Vec<i64>>().chunks(100) {
            let values: Vec<String> = chunk
                .iter()
                .map(|i| format!("({}, 'row{}')", (i * 37) % 1000, i))
                .collect();
            s.execute(&format!("INSERT INTO nums VALUES {}", values.join(", ")))
                .unwrap();
        }
        s.execute("UPDATE nums SET label = 'moved' WHERE n < 50").unwrap();
        s.execute("DELETE FROM nums WHERE n >= 950").unwrap();
    }
    for sql in [
        "SELECT n, label FROM nums ORDER BY n, label",
        "SELECT n FROM nums WHERE n < 100 ORDER BY n DESC",
        "SELECT label FROM nums WHERE n = 37",
        "SELECT COUNT(*) FROM nums",
    ] {
        let a = single.execute(sql).unwrap();
        let b = sharded.execute(sql).unwrap();
        assert_eq!(a.rows, b.rows, "{sql}");
        assert_eq!(a.columns, b.columns);
    }
}

#[test]
fn configured_sort_budget_still_sorts_correctly() {
    use sbdms_data::executor::DbOptions;
    let dir = std::env::temp_dir()
        .join("sbdms-sql-tests")
        .join(format!("tiny-sort-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // A 1 KiB budget forces external-sort spills on any real input.
    let db = Database::open_opts(
        &dir,
        DbOptions {
            sort_budget: 1 << 10,
            ..DbOptions::default()
        },
    )
    .unwrap();
    let s = db.session();
    s.execute("CREATE TABLE t (n INT NOT NULL)").unwrap();
    let values: Vec<String> = (0..500).rev().map(|i| format!("({i})")).collect();
    s.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
        .unwrap();
    let got = ints(&s, "SELECT n FROM t ORDER BY n");
    assert_eq!(got, (0..500).collect::<Vec<i64>>());
}
