//! Catalog and DDL stress: many tables, indexes, and views in one
//! database, exercised through SQL, with persistence across reopen.

use sbdms_access::record::Datum;
use sbdms_data::executor::Database;

#[test]
fn fifty_tables_with_indexes_and_views() {
    let dir = std::env::temp_dir()
        .join("sbdms-catalog-stress")
        .join(format!("many-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Database::open(&dir).unwrap();
        let s = db.session();
        for t in 0..50 {
            s.execute(&format!(
                "CREATE TABLE t{t} (id INT NOT NULL, payload TEXT NOT NULL)"
            ))
            .unwrap();
            let rows: Vec<String> = (0..20).map(|i| format!("({i}, 'r{t}_{i}')")).collect();
            s.execute(&format!("INSERT INTO t{t} VALUES {}", rows.join(","))).unwrap();
            if t % 2 == 0 {
                s.execute(&format!("CREATE INDEX t{t}_id ON t{t} (id)")).unwrap();
            }
            if t % 5 == 0 {
                s.execute(&format!(
                    "CREATE VIEW v{t} AS SELECT id FROM t{t} WHERE id >= 10"
                ))
                .unwrap();
            }
        }
        assert_eq!(db.catalog().table_names().len(), 50);
        db.checkpoint().unwrap();
    }
    // Reopen: everything is still there and queryable.
    let db = Database::open(&dir).unwrap();
    let s = db.session();
    assert_eq!(db.catalog().table_names().len(), 50);
    for t in (0..50).step_by(7) {
        let r = s.execute(&format!("SELECT COUNT(*) FROM t{t}")).unwrap();
        assert_eq!(r.rows[0][0], Datum::Int(20), "t{t}");
    }
    // Indexed point query on a reopened table.
    let r = s.execute("SELECT payload FROM t10 WHERE id = 7").unwrap();
    assert_eq!(r.rows[0][0], Datum::Str("r10_7".into()));
    // Views survive too.
    let r = s.execute("SELECT COUNT(*) FROM v10").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(10));

    // Drop a third of the tables; the rest are unharmed.
    for t in (0..50).step_by(3) {
        if t % 5 == 0 {
            // Views on dropped tables are dropped first.
            let _ = s.execute(&format!("DROP VIEW v{t}"));
        }
        s.execute(&format!("DROP TABLE t{t}")).unwrap();
    }
    assert!(db.catalog().table_names().len() < 50);
    let r = s.execute("SELECT COUNT(*) FROM t1").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(20));
    assert!(s.execute("SELECT * FROM t0").is_err());
}

#[test]
fn wide_table_and_long_names() {
    let dir = std::env::temp_dir()
        .join("sbdms-catalog-stress")
        .join(format!("wide-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(&dir).unwrap();
    let s = db.session();
    // 40 columns, long identifiers.
    let cols: Vec<String> = (0..40)
        .map(|i| format!("very_long_column_name_number_{i} INT"))
        .collect();
    s.execute(&format!(
        "CREATE TABLE extremely_wide_measurement_table ({})",
        cols.join(", ")
    ))
    .unwrap();
    let vals: Vec<String> = (0..40).map(|i| i.to_string()).collect();
    s.execute(&format!(
        "INSERT INTO extremely_wide_measurement_table VALUES ({})",
        vals.join(", ")
    ))
    .unwrap();
    let r = s
        .execute(
            "SELECT very_long_column_name_number_39, very_long_column_name_number_0 \
             FROM extremely_wide_measurement_table",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(39));
    assert_eq!(r.rows[0][1], Datum::Int(0));
}

/// Two sessions re-`ANALYZE` one table at once: each rewrite of the
/// table's catalog record (delete the old record, persist the new one)
/// is atomic, so every call succeeds and the last statistics stick.
#[test]
fn concurrent_analyze_of_one_table_succeeds() {
    let dir = std::env::temp_dir()
        .join("sbdms-catalog-stress")
        .join(format!("analyze-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(&dir).unwrap();
    let s = db.session();
    s.execute("CREATE TABLE acct (k INT NOT NULL, v INT NOT NULL)").unwrap();
    s.execute("CREATE INDEX acct_k ON acct (k)").unwrap();
    let rows: Vec<String> = (0..200).map(|i| format!("({i}, {})", i * 10)).collect();
    s.execute(&format!("INSERT INTO acct VALUES {}", rows.join(","))).unwrap();
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let session = db.session();
            std::thread::spawn(move || {
                for i in 0..300 {
                    if let Err(e) = session.execute("ANALYZE acct") {
                        panic!("ANALYZE #{i} failed: {e}");
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(db.catalog().table("acct").unwrap().stats.as_ref().unwrap().row_count, 200);
    let r = s.execute("SELECT v FROM acct WHERE k = 7").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(70));
}
