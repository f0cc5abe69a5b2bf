//! Differential tests for cost-based plan selection: whatever plan the
//! cost model picks, the answer must be byte-identical to every
//! baseline (nested-loop joins, textual join order, sequential scans
//! only) and to the plans of an un-analyzed twin of the same data,
//! which the cost model plans with its default statistics. A proptest
//! closes the loop on the ANALYZE lifecycle: fresh statistics must
//! change the chosen plan for a non-selective indexed predicate and
//! invalidate cached plans. Another holds the default statistics to
//! their own estimates: on random indexes and conjuncts, no chosen
//! access path costs more than the sequential scan.

mod nested_loop_oracle;

use std::sync::Arc;

use nested_loop_oracle::nested_loop_oracle;
use proptest::prelude::*;
use sbdms_access::record::Datum;
use sbdms_data::ast::Statement;
use sbdms_data::executor::{Database, DbOptions};
use sbdms_data::planner::CatalogView;
use sbdms_data::{
    parse, plan_select, Column, ColumnType, ConcurrencyControl, Estimator, IndexMeta, Plan, Schema,
    Session, TableMeta,
};
use sbdms_storage::{SimBackend, SimConfig};

fn open_db(seed: u64) -> Arc<Database> {
    let sim = SimBackend::new(SimConfig::seeded(seed));
    Database::open_at(&*sim, DbOptions::default()).unwrap()
}

/// A star-ish schema with skewed sizes: a 600-row fact table, a 3-row
/// dimension and a 120-row dimension, plus indexes the access-path
/// selector can pick or reject.
fn load_workload(s: &Session) {
    s.execute("CREATE TABLE fact (id INT NOT NULL, d1 INT NOT NULL, d2 INT NOT NULL, val INT NOT NULL)")
        .unwrap();
    s.execute("CREATE TABLE dim_small (id INT NOT NULL, name TEXT NOT NULL)")
        .unwrap();
    s.execute("CREATE TABLE dim_big (id INT NOT NULL, label TEXT NOT NULL)")
        .unwrap();
    s.execute("CREATE INDEX fact_val ON fact (val)").unwrap();
    s.execute("CREATE INDEX dim_big_id ON dim_big (id)").unwrap();
    for chunk in (0..600i64).collect::<Vec<_>>().chunks(150) {
        let vals: Vec<String> = chunk
            .iter()
            .map(|i| format!("({i}, {}, {}, {})", i % 3, i % 120, (i * 7) % 600))
            .collect();
        s.execute(&format!("INSERT INTO fact VALUES {}", vals.join(", ")))
            .unwrap();
    }
    let vals: Vec<String> = (0..3i64).map(|i| format!("({i}, 'n{i}')")).collect();
    s.execute(&format!("INSERT INTO dim_small VALUES {}", vals.join(", ")))
        .unwrap();
    let vals: Vec<String> = (0..120i64).map(|i| format!("({i}, 'l{i}')")).collect();
    s.execute(&format!("INSERT INTO dim_big VALUES {}", vals.join(", ")))
        .unwrap();
}

/// Queries spanning the decisions the cost model makes: join algorithm,
/// join order (fact listed first = worst textual order), access path
/// (selective range, non-selective range, point probe, BETWEEN).
const QUERIES: &[&str] = &[
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

/// The rows of `sql` with every join run as a nested loop
/// ([`nested_loop_oracle`]), checked through `EXPLAIN`.
fn nested_loop_rows(s: &Session, sql: &str) -> (Vec<String>, Vec<String>) {
    let nested = nested_loop_oracle(sql);
    let explain = explain_text(s, &nested);
    let joins = sql.matches(" ON ").count();
    assert!(
        !explain.contains("EquiJoin") && explain.matches("NlJoin").count() == joins,
        "`{nested}` should plan a nested loop per join:\n{explain}"
    );
    sorted_rows(s, &nested)
}

fn sorted_rows(s: &Session, sql: &str) -> (Vec<String>, Vec<String>) {
    let result = s.execute(sql).unwrap();
    let mut rows: Vec<String> = result
        .rows
        .iter()
        .map(|row| row.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("|"))
        .collect();
    rows.sort();
    (result.columns, rows)
}

#[test]
fn cost_based_plans_match_every_forced_baseline() {
    let db = open_db(11);
    let s = db.session();
    load_workload(&s);
    for table in ["fact", "dim_small", "dim_big"] {
        s.execute(&format!("ANALYZE {table}")).unwrap();
    }

    // Reference answers under full cost-based selection.
    let reference: Vec<_> = QUERIES.iter().map(|q| sorted_rows(&s, q)).collect();

    // Nested-loop baseline: every equi-join as a nested loop.
    for (q, want) in QUERIES.iter().zip(&reference) {
        let got = nested_loop_rows(&s, q);
        assert_eq!(&got, want, "the nested loop diverged on `{q}`");
    }

    // Textual join order.
    db.set_join_reordering(false);
    for (q, want) in QUERIES.iter().zip(&reference) {
        let got = sorted_rows(&s, q);
        assert_eq!(&got, want, "textual join order diverged on `{q}`");
    }
    db.set_join_reordering(true);

    // Sequential scans only.
    db.set_index_selection(false);
    for (q, want) in QUERIES.iter().zip(&reference) {
        let got = sorted_rows(&s, q);
        assert_eq!(&got, want, "seq-scan-only diverged on `{q}`");
    }
    db.set_index_selection(true);

    // The same data never analyzed: every table planned with the
    // default statistics.
    let twin = open_db(11);
    let t = twin.session();
    load_workload(&t);
    for (q, want) in QUERIES.iter().zip(&reference) {
        let got = sorted_rows(&t, q);
        assert_eq!(&got, want, "un-analyzed planning diverged on `{q}`");
    }
}

#[test]
fn knob_flips_invalidate_cached_plans() {
    let db = open_db(12);
    let s = db.session();
    load_workload(&s);
    let sql = QUERIES[0];
    s.execute(sql).unwrap();
    let hits_before = db.plan_cache_stats().hits;
    s.execute(sql).unwrap();
    assert_eq!(db.plan_cache_stats().hits, hits_before + 1, "repeat should hit");
    // Any knob change moves the epoch: the cached plan no longer serves.
    db.set_join_reordering(false);
    s.execute(sql).unwrap();
    assert_eq!(db.plan_cache_stats().hits, hits_before + 1, "knob flip must miss");
}

fn explain_text(s: &Session, sql: &str) -> String {
    s.execute(&format!("EXPLAIN {sql}"))
        .unwrap()
        .rows
        .iter()
        .map(|row| row[0].to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Two analyzed tables with an index on `k`, joined over `k < 600` on
/// both sides: each join input is a covering index-only range scan that
/// arrives sorted on the join key. The cost model once priced a merge
/// join cheapest here, and it ran 2.6–3.3× slower than hash; the plan
/// is a hash join, and it answers like a nested loop.
#[test]
fn index_ordered_join_plans_hash_and_matches_nested_loop() {
    let db = open_db(13);
    let s = db.session();
    for t in ["a", "b"] {
        s.execute(&format!(
            "CREATE TABLE {t} (k INT NOT NULL, v INT NOT NULL)"
        ))
        .unwrap();
        s.execute(&format!("CREATE INDEX {t}_k ON {t} (k)"))
            .unwrap();
        for chunk in (0..4_000i64).collect::<Vec<_>>().chunks(1_000) {
            let vals: Vec<String> = chunk.iter().map(|i| format!("({i}, {})", i % 97)).collect();
            s.execute(&format!("INSERT INTO {t} VALUES {}", vals.join(", ")))
                .unwrap();
        }
        s.execute(&format!("ANALYZE {t}")).unwrap();
    }
    for sql in [
        "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k WHERE a.k < 600 AND b.k < 600",
        "SELECT a.k FROM a JOIN b ON a.k = b.k WHERE a.k < 600 AND b.k < 600",
    ] {
        let explain = explain_text(&s, sql);
        let covering = explain
            .lines()
            .filter(|l| l.contains("IndexScan") && l.contains("covering"));
        assert!(
            explain.contains("EquiJoin[Hash]") && covering.count() == 2,
            "`{sql}` should hash-join two covering index scans:\n{explain}"
        );
        let chosen = sorted_rows(&s, sql);
        let nested_loop = nested_loop_rows(&s, sql);
        assert_eq!(chosen, nested_loop, "`{sql}` diverged from the nested loop");
    }
    assert_eq!(
        sorted_rows(
            &s,
            "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k WHERE a.k < 600 AND b.k < 600"
        )
        .1,
        vec!["600".to_string()]
    );
}
/// Analyzed equi-joins of a few rows against many plan a hash join.
/// The nested loop was once an equi-join algorithm the cost model chose
/// for them, and it ran 4–8× slower than hash on every one (EXPERIMENTS
/// §A1, §E11): `a ⋈ b` at 1 × 1 000 and 3 × 10 000 rows, and E11's
/// join, whose filtered `tiny` (one row) meets 1 500-row `big2`.
#[test]
fn analyzed_small_outer_equi_joins_plan_hash() {
    let db = open_db(14);
    let s = db.session();
    let load = |table: &str, rows: Vec<String>| {
        for chunk in rows.chunks(1_000) {
            s.execute(&format!("INSERT INTO {table} VALUES {}", chunk.join(", ")))
                .unwrap();
        }
        s.execute(&format!("ANALYZE {table}")).unwrap();
    };
    let hash_only = |sql: &str, joins: usize| {
        let explain = explain_text(&s, sql);
        let nodes: Vec<&str> = explain.lines().filter(|l| l.contains("EquiJoin")).collect();
        assert!(
            nodes.len() == joins && nodes.iter().all(|l| l.contains("EquiJoin[Hash]")),
            "`{sql}` should hash every join:\n{explain}"
        );
    };
    for (outer, inner) in [(1i64, 1_000i64), (3, 10_000)] {
        let (a, b) = (format!("a{outer}"), format!("b{inner}"));
        for t in [&a, &b] {
            s.execute(&format!("CREATE TABLE {t} (k INT NOT NULL, v INT NOT NULL)"))
                .unwrap();
        }
        load(&a, (0..outer).map(|i| format!("({}, {i})", i * 5)).collect());
        load(&b, (0..inner).map(|i| format!("({i}, {i})")).collect());
        let sql = format!("SELECT COUNT(*) FROM {a} JOIN {b} ON {a}.k = {b}.k");
        hash_only(&sql, 1);
        let want = vec![outer.to_string()];
        assert_eq!(sorted_rows(&s, &sql).1, want, "{outer} × {inner}");
        assert_eq!(nested_loop_rows(&s, &sql).1, want, "{outer} × {inner}");
    }

    // E11's tables: `big1` and `big2` of 1 500 rows (x in 0..50, y in
    // 0..100), `tiny` of 100 tagged ids.
    for big in ["big1", "big2"] {
        s.execute(&format!("CREATE TABLE {big} (id INT NOT NULL, x INT NOT NULL, y INT NOT NULL)"))
            .unwrap();
        load(big, (0..1_500i64).map(|i| format!("({i}, {}, {})", i % 50, i % 100)).collect());
    }
    s.execute("CREATE TABLE tiny (id INT NOT NULL, tag TEXT NOT NULL)").unwrap();
    load("tiny", (0..100i64).map(|i| format!("({i}, 't{i}')")).collect());
    let sql = "SELECT COUNT(*) FROM big1 JOIN big2 ON big1.x = big2.x \
               JOIN tiny ON big2.y = tiny.id WHERE tiny.tag = 't7'";
    hash_only(sql, 2);
    // 15 `big2` rows have y = 7, and each x meets 30 `big1` rows.
    assert_eq!(sorted_rows(&s, sql).1, vec!["450".to_string()]);
}

/// `rows=` of the first `EXPLAIN` line of `sql` whose node is `node`.
fn estimated_rows(s: &Session, sql: &str, node: &str) -> f64 {
    let explain = explain_text(s, sql);
    let line = explain
        .lines()
        .find(|l| l.trim_start_matches("| ").starts_with(node))
        .unwrap_or_else(|| panic!("`{sql}` has no {node}:\n{explain}"));
    let rows = line.split("[rows=").nth(1).and_then(|r| r.split(' ').next());
    rows.and_then(|r| r.parse().ok())
        .unwrap_or_else(|| panic!("no estimate in `{line}`"))
}

/// Row estimates over an analyzed 100k-row table indexed on `k` stay
/// within 2× of the truth, both the index range's and the residual
/// filter's above it. The first histogram bucket interpolates from the
/// column minimum (a range inside it once estimated half a bucket, or
/// 0 rows between two bounds in it), and the residual filter does not
/// apply the conjuncts the index bounds already applied a second time
/// (`k = 5` once estimated 0.0 rows).
#[test]
fn index_range_estimates_hold_within_2x() {
    let db = open_db(15);
    let s = db.session();
    s.execute("CREATE TABLE t (k INT NOT NULL, v INT NOT NULL)").unwrap();
    for chunk in (0..100_000i64).collect::<Vec<_>>().chunks(2_000) {
        let vals: Vec<String> = chunk.iter().map(|i| format!("({i}, {})", i % 97)).collect();
        s.execute(&format!("INSERT INTO t VALUES {}", vals.join(", ")))
            .unwrap();
    }
    s.execute("CREATE INDEX t_k ON t (k)").unwrap();
    s.execute("ANALYZE t").unwrap();
    for (filter, truth) in [
        ("k >= 10 AND k < 2000", 1_990.0),
        ("k < 200", 200.0),
        ("k < 2000", 2_000.0),
        ("k = 5", 1.0),
    ] {
        let sql = format!("SELECT v FROM t WHERE {filter}");
        assert_eq!(sorted_rows(&s, &sql).1.len() as f64, truth, "`{sql}`");
        for node in ["IndexScan", "Filter"] {
            let est = estimated_rows(&s, &sql, node);
            assert!(
                est >= truth / 2.0 && est <= truth * 2.0,
                "`{sql}`: {node} estimates {est} rows, the truth is {truth}"
            );
        }
    }
}

/// The richer access paths — composite-equality probes, prefix-range
/// scans, IndexOr probe unions, IndexAnd intersections, covering
/// index-only scans — must each be provably *chosen* by the cost model
/// on a shape built for it, and byte-identical to the forced
/// sequential-scan baseline. The data includes NULLs in an indexed
/// column (NULL keys live in the B-tree but `= NULL` is never true in
/// SQL: the residual filter must drop what the probe admits) and the
/// IN list carries a duplicate literal (plan-time key dedup).
/// The `ev` table: 900 rows over a composite (tenant, ts) index and a
/// single-column kind index with 10 NULL keys, analyzed.
fn load_ev(s: &Session) {
    s.execute(
        "CREATE TABLE ev (tenant INT NOT NULL, ts INT NOT NULL, kind INT, payload TEXT)",
    )
    .unwrap();
    s.execute("CREATE INDEX ev_tenant_ts ON ev (tenant, ts)").unwrap();
    s.execute("CREATE INDEX ev_kind ON ev (kind)").unwrap();
    for chunk in (0..900i64).collect::<Vec<_>>().chunks(150) {
        let vals: Vec<String> = chunk
            .iter()
            .map(|i| {
                let kind = if i % 97 == 0 {
                    "NULL".to_string()
                } else {
                    (i % 45).to_string()
                };
                format!("({}, {i}, {kind}, 'p{i}')", i % 9)
            })
            .collect();
        s.execute(&format!("INSERT INTO ev VALUES {}", vals.join(", ")))
            .unwrap();
    }
    s.execute("ANALYZE ev").unwrap();
}

#[test]
fn new_access_paths_chosen_and_differentially_correct() {
    let db = open_db(21);
    let s = db.session();
    load_ev(&s);

    // (query, marker the chosen plan must carry)
    let cases: &[(&str, &str)] = &[
        // Composite equality on both key columns.
        (
            "SELECT payload FROM ev WHERE tenant = 4 AND ts = 400",
            "eq=[Int(4), Int(400)]",
        ),
        // Equality prefix + range on the next key column.
        (
            "SELECT payload FROM ev WHERE tenant = 4 AND ts >= 100 AND ts <= 140",
            "eq=[Int(4)] lo=Some(Int(100)) hi=Some(Int(140)) hi_inc=true",
        ),
        // IN list → IndexOr; the duplicate literal dedups to 2 keys.
        (
            "SELECT payload FROM ev WHERE kind IN (3, 3, 7)",
            "IndexOr ev.ev_kind (2 keys)",
        ),
        // Two moderately selective equalities → sorted-rid intersection.
        // (tenant = i%9 and kind = i%45 correlate: kind 7 rows all live
        // in tenant 7, so the intersection is non-empty.)
        (
            "SELECT payload FROM ev WHERE tenant = 7 AND kind = 7",
            "IndexAnd ev [ev_tenant_ts ∩ ev_kind]",
        ),
        // Key columns answer the query → index-only scan.
        (
            "SELECT tenant, ts FROM ev WHERE tenant = 7",
            "covering",
        ),
    ];
    for (sql, marker) in cases {
        let explain = explain_text(&s, sql);
        assert!(explain.contains(marker), "`{sql}` should plan {marker}:\n{explain}");
        let chosen = sorted_rows(&s, sql);
        db.set_index_selection(false);
        let baseline = sorted_rows(&s, sql);
        db.set_index_selection(true);
        assert_eq!(chosen, baseline, "`{sql}` diverged from seq-scan baseline");
        assert!(!chosen.1.is_empty(), "`{sql}` should return rows");
    }

    // The residual filter over the intersection re-applies only what
    // its probes did not: here nothing, so it keeps their rows.
    let sql = "SELECT payload FROM ev WHERE tenant = 7 AND kind = 7";
    assert_eq!(
        estimated_rows(&s, sql, "Filter"),
        estimated_rows(&s, sql, "IndexAnd"),
        "{}",
        explain_text(&s, sql)
    );

    // NULL keys sit in ev_kind's B-tree, but SQL `=` never matches NULL:
    // the probes above must not leak the 10 NULL-kind rows, and IS NULL
    // (not index-eligible) still finds them.
    let (_, nulls) = sorted_rows(&s, "SELECT payload FROM ev WHERE kind IS NULL");
    assert_eq!(nulls.len(), 10);

    // Adversarial shapes: the cost model must *decline* the new paths.
    // A 4-of-9-tenants OR covers ~44% of the table — random fetches
    // lose to one sequential pass.
    let explain = explain_text(&s, "SELECT payload FROM ev WHERE tenant IN (1, 2, 3, 4)");
    assert!(
        explain.contains("TableScan ev") && !explain.contains("IndexOr"),
        "non-selective OR must fall back to seq scan:\n{explain}"
    );
    // ts is not a leading key column anywhere: no candidate exists.
    let explain = explain_text(&s, "SELECT payload FROM ev WHERE ts = 400");
    assert!(
        explain.contains("TableScan ev") && !explain.contains("IndexScan"),
        "weak prefix (non-leading column) must not probe:\n{explain}"
    );
}

/// A residual filter over an `IndexOr` does not apply the IN list a
/// second time: the probes already returned only rows with those keys,
/// so the filter keeps every row the probe union estimates (it once
/// multiplied in the list's selectivity again: `Filter [rows=0.9]` over
/// `IndexOr [rows=7.6]` in `indexes.slt`). A conjunct the probes did not
/// apply still narrows it.
#[test]
fn index_or_residual_keeps_the_probe_rows() {
    let db = open_db(22);
    let s = db.session();
    load_ev(&s);
    for sql in [
        "SELECT payload FROM ev WHERE kind IN (3, 3, 7)",
        "SELECT payload FROM ev WHERE kind IN (7, 3)",
        "SELECT payload FROM ev WHERE kind = 3 OR 7 = kind",
    ] {
        let explain = explain_text(&s, sql);
        assert!(explain.contains("IndexOr ev.ev_kind (2 keys)"), "`{sql}`:\n{explain}");
        let (filter, probes) = (estimated_rows(&s, sql, "Filter"), estimated_rows(&s, sql, "IndexOr"));
        assert_eq!(filter, probes, "`{sql}`:\n{explain}");
    }
    let sql = "SELECT payload FROM ev WHERE kind IN (3, 7) AND tenant = 3";
    let explain = explain_text(&s, sql);
    let (filter, probes) = (estimated_rows(&s, sql, "Filter"), estimated_rows(&s, sql, "IndexOr"));
    assert!(filter < probes, "`{sql}`: tenant = 3 still filters:\n{explain}");
}

/// DML picks its targets through the same access paths as SELECT. Each
/// shape runs as an UPDATE and as a DELETE on twin databases, one with
/// index selection on and one forced to sequential targets, in both CC
/// modes, in autocommit and inside an explicit transaction whose own
/// earlier writes (an insert and a key-moving update) match the shape.
/// Under MVCC those own writes are not in the B-tree yet. The affected
/// counts and the final table contents must be identical.
#[test]
fn indexed_dml_matches_sequential_dml() {
    // (WHERE, SET for the UPDATE, the indexed twin's plan marker, the
    // writes an explicit transaction makes first)
    let shapes: &[(&str, &str, &str, [&str; 2])] = &[
        (
            "tenant = 4 AND ts = 400",
            "payload = 'u'",
            "eq=[Int(4), Int(400)]",
            [
                "INSERT INTO ev VALUES (4, 400, 1, 'own')",
                "UPDATE ev SET ts = 400 WHERE tenant = 4 AND ts = 13",
            ],
        ),
        (
            "tenant = 4 AND ts >= 100 AND ts <= 140",
            "payload = 'u'",
            "eq=[Int(4)] lo=Some(Int(100)) hi=Some(Int(140))",
            [
                "INSERT INTO ev VALUES (4, 120, 2, 'own')",
                "UPDATE ev SET ts = 130 WHERE tenant = 4 AND ts = 301",
            ],
        ),
        (
            "kind IN (3, 8)",
            "payload = 'u'",
            "IndexOr ev.ev_kind (2 keys)",
            [
                "INSERT INTO ev VALUES (1, 1000, 3, 'own')",
                "UPDATE ev SET kind = 8 WHERE tenant = 2 AND ts = 11",
            ],
        ),
        (
            "tenant = 7 AND kind = 7",
            "payload = 'u'",
            "IndexAnd ev [ev_tenant_ts ∩ ev_kind]",
            [
                "INSERT INTO ev VALUES (7, 1001, 7, 'own')",
                "UPDATE ev SET kind = 7 WHERE tenant = 7 AND ts = 16",
            ],
        ),
        // The probe admits the NULL keys; SQL `=` never matches them.
        (
            "kind = NULL",
            "payload = 'u'",
            "IndexScan ev.ev_kind",
            [
                "INSERT INTO ev VALUES (1, 1002, NULL, 'own')",
                "UPDATE ev SET kind = NULL WHERE tenant = 3 AND ts = 12",
            ],
        ),
        // The UPDATE moves rows forward inside the range it scans.
        (
            "tenant = 5 AND ts >= 200 AND ts <= 260",
            "ts = ts + 1",
            "eq=[Int(5)] lo=Some(Int(200)) hi=Some(Int(260))",
            [
                "INSERT INTO ev VALUES (5, 210, 1, 'own')",
                "UPDATE ev SET ts = 250 WHERE tenant = 5 AND ts = 5",
            ],
        ),
    ];
    for concurrency in [ConcurrencyControl::SingleWriter, ConcurrencyControl::Mvcc] {
        for delete in [false, true] {
            for explicit in [false, true] {
                let open = || {
                    let sim = SimBackend::new(SimConfig::seeded(31));
                    let opts = DbOptions { concurrency, ..DbOptions::default() };
                    let s = Database::open_at(&*sim, opts).unwrap().session();
                    load_ev(&s);
                    s
                };
                let (indexed, seq) = (open(), open());
                seq.database().set_index_selection(false);
                for (filter, set, marker, own) in shapes {
                    let sql = if delete {
                        format!("DELETE FROM ev WHERE {filter}")
                    } else {
                        format!("UPDATE ev SET {set} WHERE {filter}")
                    };
                    let ctx = format!("{concurrency} explicit={explicit}: `{sql}`");
                    let explain = explain_text(&indexed, &sql);
                    assert!(explain.contains(marker), "{ctx} should plan {marker}:\n{explain}");
                    let explain = explain_text(&seq, &sql);
                    assert!(explain.contains("TableScan ev"), "{ctx} forced seq:\n{explain}");
                    let run = |s: &Session| {
                        if explicit {
                            s.begin().unwrap();
                            for w in own {
                                s.execute(w).unwrap();
                            }
                        }
                        let affected = s.execute(&sql).unwrap().affected;
                        if explicit {
                            s.commit().unwrap();
                        }
                        (affected, sorted_rows(s, "SELECT * FROM ev"))
                    };
                    let ((affected, got), (want_affected, want)) = (run(&indexed), run(&seq));
                    assert_eq!(affected, want_affected, "{ctx}: affected counts differ");
                    let only = |a: &[String], b: &[String]| -> Vec<String> {
                        a.iter().filter(|r| !b.contains(r)).cloned().collect()
                    };
                    assert!(
                        got == want,
                        "{ctx}: final tables differ: indexed only {:?}, sequential only {:?}",
                        only(&got.1, &want.1),
                        only(&want.1, &got.1)
                    );
                    if !filter.contains("NULL") {
                        assert!(affected > 0, "{ctx} should affect rows");
                    }
                }
            }
        }
    }
}

/// Buffer-pool page fetches (hits + misses) one statement costs.
fn page_fetches(s: &Session, sql: &str) -> u64 {
    let fetches = |s: sbdms_storage::buffer::BufferStats| s.hits + s.misses;
    let buffer = &s.database().storage().buffer;
    let before = fetches(buffer.stats());
    assert_eq!(s.execute(sql).unwrap().affected, 1, "`{sql}`");
    fetches(buffer.stats()) - before
}

/// A point UPDATE or DELETE on an indexed key probes the index instead
/// of scanning the heap: from 1k to 16k rows its page fetches grow only
/// with the B+tree's height, in both CC modes. Each descent reads one
/// more page per extra level; an UPDATE of a non-key column descends
/// once (the probe), a DELETE twice (the probe, then removing the
/// posting). Rolling back a transaction's point UPDATE fetches no page
/// at all: the write set never reached the heap, so discarding it is
/// the whole undo. Counted, not timed, so it is deterministic.
#[test]
fn point_dml_cost_is_flat_in_table_size() {
    for concurrency in [ConcurrencyControl::SingleWriter, ConcurrencyControl::Mvcc] {
        let mut costs = Vec::new();
        for rows in [1_000i64, 16_000] {
            let sim = SimBackend::new(SimConfig::seeded(41));
            let opts = DbOptions { concurrency, ..DbOptions::default() };
            let db = Database::open_at(&*sim, opts).unwrap();
            let s = db.session();
            s.execute("CREATE TABLE t (k INT NOT NULL, v INT NOT NULL)").unwrap();
            s.execute("CREATE INDEX t_k ON t (k)").unwrap();
            for chunk in (0..rows).collect::<Vec<_>>().chunks(1_000) {
                let vals: Vec<String> = chunk.iter().map(|i| format!("({i}, {i})")).collect();
                s.execute(&format!("INSERT INTO t VALUES {}", vals.join(", "))).unwrap();
            }
            let height = db.table("t").unwrap().index_named("t_k").unwrap().1.height().unwrap();
            let update = page_fetches(&s, "UPDATE t SET v = 0 WHERE k = 417");
            let delete = page_fetches(&s, "DELETE FROM t WHERE k = 418");
            s.begin().unwrap();
            assert_eq!(
                s.execute("UPDATE t SET v = 0 WHERE k = 419")
                    .unwrap()
                    .affected,
                1
            );
            let fetches = |s: sbdms_storage::buffer::BufferStats| s.hits + s.misses;
            let before = fetches(db.storage().buffer.stats());
            s.rollback().unwrap();
            let rollback = fetches(db.storage().buffer.stats()) - before;
            assert_eq!(
                rollback, 0,
                "{concurrency} at {rows} rows: ROLLBACK fetched pages"
            );
            let v = s.execute("SELECT v FROM t WHERE k = 419").unwrap().rows;
            assert_eq!(v, vec![vec![Datum::Int(419)]], "{concurrency}: rolled back");
            costs.push((height as u64, update, delete));
        }
        let [(h_small, u_small, d_small), (h_big, u_big, d_big)] = costs[..] else {
            unreachable!()
        };
        let growth = h_big - h_small;
        assert!(u_big <= u_small + growth, "{concurrency}: UPDATE {u_small} -> {u_big}");
        assert!(d_big <= d_small + 2 * growth, "{concurrency}: DELETE {d_small} -> {d_big}");
    }
}

/// Loading is linear: the buffer fetches a 1 000-row INSERT costs per
/// row stay the same whether the table holds 1k or 64k rows. An insert
/// asks the heap's free-space map for a page with room, so filling the
/// last page costs one new page, not a try of every page of the heap.
#[test]
fn insert_cost_is_flat_in_table_size() {
    let mut per_row = Vec::new();
    for rows in [1_000i64, 64_000] {
        let db = open_db(43);
        let s = db.session();
        s.execute("CREATE TABLE t (k INT NOT NULL, v INT NOT NULL, pad TEXT NOT NULL)").unwrap();
        let batch = |from: i64| {
            let vals: Vec<String> =
                (from..from + 1_000).map(|i| format!("({i}, {i}, '{}')", "p".repeat(40))).collect();
            format!("INSERT INTO t VALUES {}", vals.join(", "))
        };
        for from in (0..rows).step_by(1_000) {
            s.execute(&batch(from)).unwrap();
        }
        let fetches = |s: sbdms_storage::buffer::BufferStats| s.hits + s.misses;
        let before = fetches(db.storage().buffer.stats());
        assert_eq!(s.execute(&batch(rows)).unwrap().affected, 1_000);
        let fetched = fetches(db.storage().buffer.stats()) - before;
        per_row.push(fetched.div_ceil(1_000));
    }
    let [small, big] = per_row[..] else { unreachable!() };
    assert!(big <= small + 1, "fetches per inserted row: {small} at 1k rows, {big} at 64k");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// After a bulk load, ANALYZE (a) changes the chosen plan for a
    /// non-selective predicate on an indexed column — under default
    /// statistics a one-sided range takes the index, the cost model
    /// rejects it once row counts say a sequential scan is cheaper —
    /// and (b) bumps the plan-cache epoch so the stale cached plan
    /// stops serving.
    #[test]
    fn analyze_changes_plan_and_invalidates_cache(
        rows in 100i64..400,
        seed in 0u64..1_000,
    ) {
        let db = open_db(0x5eed ^ seed);
        let s = db.session();
        s.execute("CREATE TABLE t (k INT NOT NULL, v INT NOT NULL)").unwrap();
        s.execute("CREATE INDEX t_k ON t (k)").unwrap();
        for chunk in (0..rows).collect::<Vec<_>>().chunks(200) {
            let vals: Vec<String> = chunk
                .iter()
                .map(|i| format!("({i}, {})", (i * 13 + seed as i64) % 50))
                .collect();
            s.execute(&format!("INSERT INTO t VALUES {}", vals.join(", "))).unwrap();
        }
        // k >= 0 matches every row: a seq scan is the right plan, but
        // only statistics can prove it.
        let sql = "SELECT v FROM t WHERE k >= 0";
        let before = explain_text(&s, sql);
        prop_assert!(before.contains("IndexScan"), "default statistics should take the index:\n{before}");

        s.execute(sql).unwrap();
        let hits0 = db.plan_cache_stats().hits;
        s.execute(sql).unwrap();
        prop_assert_eq!(db.plan_cache_stats().hits, hits0 + 1, "repeat before ANALYZE should hit");

        s.execute("ANALYZE t").unwrap();
        let after = explain_text(&s, sql);
        prop_assert!(after.contains("TableScan"), "cost model should reject the index:\n{after}");
        prop_assert_ne!(&before, &after, "ANALYZE must change the chosen plan");

        // The cached pre-ANALYZE plan must not serve the post-ANALYZE query.
        s.execute(sql).unwrap();
        prop_assert_eq!(db.plan_cache_stats().hits, hits0 + 1, "ANALYZE must invalidate the cached plan");
        // And the refreshed plan caches normally again.
        s.execute(sql).unwrap();
        prop_assert_eq!(db.plan_cache_stats().hits, hits0 + 2);
    }
}

/// An un-analyzed table `r(a, b, c, d)` with arbitrary indexes.
struct RandomIndexCatalog {
    indexes: Vec<IndexMeta>,
}

impl CatalogView for RandomIndexCatalog {
    fn table(&self, name: &str) -> sbdms_kernel::error::Result<Arc<TableMeta>> {
        let columns = ["a", "b", "c", "d"].map(|c| Column::not_null(c, ColumnType::Int));
        Ok(Arc::new(TableMeta {
            name: name.to_string(),
            schema: Schema::new(columns.to_vec())?,
            heap_dir_page: 0,
            indexes: self.indexes.clone(),
            stats: None,
        }))
    }

    fn view_query(&self, _name: &str) -> Option<String> {
        None
    }
}

/// The access-path leaf of a single-table plan.
fn access_leaf(plan: &Plan) -> &Plan {
    match plan {
        Plan::TableScan { .. } | Plan::IndexScan { .. } | Plan::IndexOr { .. } | Plan::IndexAnd { .. } => plan,
        other => access_leaf(other.children()[0]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Without statistics the planner never picks an access path its
    /// own estimates price above the sequential scan, and it says why
    /// in a decision line naming both costs.
    #[test]
    fn unanalyzed_access_path_never_costs_more_than_seq_scan(
        index_cols in proptest::collection::vec((0usize..4, proptest::option::of(0usize..4)), 1..4),
        conjuncts in proptest::collection::vec((0usize..4, 0usize..7, -5i64..50, 0i64..20), 1..4),
    ) {
        const COLS: [&str; 4] = ["a", "b", "c", "d"];
        let indexes = index_cols
            .iter()
            .enumerate()
            .map(|(i, (lead, next))| {
                let mut columns = vec![COLS[*lead].to_string()];
                columns.extend(next.filter(|n| n != lead).map(|n| COLS[n].to_string()));
                IndexMeta { name: format!("ix{i}"), columns, meta_page: 0 }
            })
            .collect();
        let catalog = RandomIndexCatalog { indexes };
        let terms: Vec<String> = conjuncts
            .iter()
            .map(|&(col, op, lit, width)| {
                let c = COLS[col];
                match op {
                    0 => format!("{c} = {lit}"),
                    1 => format!("{c} < {lit}"),
                    2 => format!("{c} >= {lit}"),
                    3 => format!("{c} BETWEEN {lit} AND {}", lit + width),
                    4 => format!("{c} IN ({lit}, {}, {})", lit + 1, lit + width),
                    5 => format!("{c} <= {lit}"),
                    _ => format!("{c} > {lit}"),
                }
            })
            .collect();
        let sql = format!("SELECT * FROM r WHERE {}", terms.join(" AND "));
        let Statement::Select(select) = parse(&sql).unwrap() else { unreachable!() };
        let p = plan_select(&select, &catalog).unwrap();
        let est = Estimator::new(&catalog);
        let leaf = access_leaf(&p.plan);
        let leaf_cost = est.estimate(leaf).cost;
        let seq_cost = est.estimate(&Plan::TableScan { table: "r".into() }).cost;
        prop_assert!(
            leaf_cost <= seq_cost,
            "`{sql}`: {} costs {leaf_cost} > seq {seq_cost}",
            leaf.node_label()
        );
        if !matches!(leaf, Plan::TableScan { .. }) {
            let named = p.decisions.iter().any(|d| {
                d.starts_with("access r: ")
                    && d.contains(&format!("={leaf_cost:.0}"))
                    && d.contains(&format!("seq={seq_cost:.0}"))
            });
            prop_assert!(named, "`{sql}`: {:?}", p.decisions);
        }
    }
}
