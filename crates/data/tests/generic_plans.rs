//! Generic-plan differential: a text statement's literals are lifted
//! into parameters and one cached plan per statement shape serves every
//! value inside its guards. For every `cost_differential` and E11 query
//! shape, with random literals (in and out of each column's domain,
//! negative, NULL, text against integer columns, IN lists with
//! duplicates, LIMIT/OFFSET counts and ORDER BY ordinals), the answer
//! through the plan cache must equal the answer of a plan built from
//! scratch for the literal text, and the cached plan, with this
//! statement's values bound, must be that very plan: the guards say
//! where a cached plan's choices hold, so inside them nothing may
//! differ, access path and join order included.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbdms_access::exec::engine::VectorEngine;
use sbdms_access::record::Datum;
use sbdms_data::ast::Statement;
use sbdms_data::executor::{Database, DbOptions};
use sbdms_data::{lift_literals, parse, plan_select, Session};
use sbdms_storage::{SimBackend, SimConfig};

fn open_db(seed: u64, plan_cache_capacity: usize) -> Arc<Database> {
    let sim = SimBackend::new(SimConfig::seeded(seed));
    let opts = DbOptions {
        plan_cache_capacity,
        ..DbOptions::default()
    };
    Database::open_at(&*sim, opts).unwrap()
}

fn insert_rows(s: &Session, table: &str, rows: impl Iterator<Item = String>) {
    let rows: Vec<String> = rows.collect();
    for chunk in rows.chunks(150) {
        s.execute(&format!("INSERT INTO {table} VALUES {}", chunk.join(", ")))
            .unwrap();
    }
}

/// The `cost_differential` schema (fact, dim_small, dim_big), its `ev`
/// table, and the E11 tables (big1, big2, tiny, items), all analyzed.
fn load(s: &Session) {
    for ddl in [
        "CREATE TABLE fact (id INT NOT NULL, d1 INT NOT NULL, d2 INT NOT NULL, val INT NOT NULL)",
        "CREATE TABLE dim_small (id INT NOT NULL, name TEXT NOT NULL)",
        "CREATE TABLE dim_big (id INT NOT NULL, label TEXT NOT NULL)",
        "CREATE INDEX fact_val ON fact (val)",
        "CREATE INDEX dim_big_id ON dim_big (id)",
        "CREATE TABLE ev (tenant INT NOT NULL, ts INT NOT NULL, kind INT, payload TEXT)",
        "CREATE INDEX ev_tenant_ts ON ev (tenant, ts)",
        "CREATE INDEX ev_kind ON ev (kind)",
        "CREATE TABLE big1 (id INT NOT NULL, x INT NOT NULL, y INT NOT NULL)",
        "CREATE TABLE big2 (id INT NOT NULL, x INT NOT NULL, y INT NOT NULL)",
        "CREATE TABLE tiny (id INT NOT NULL, tag TEXT NOT NULL)",
        "CREATE TABLE items (id INT NOT NULL, val INT NOT NULL)",
        "CREATE INDEX items_val ON items (val)",
    ] {
        s.execute(ddl).unwrap();
    }
    insert_rows(
        s,
        "fact",
        (0..600i64).map(|i| format!("({i}, {}, {}, {})", i % 3, i % 120, (i * 7) % 600)),
    );
    insert_rows(s, "dim_small", (0..3i64).map(|i| format!("({i}, 'n{i}')")));
    insert_rows(s, "dim_big", (0..120i64).map(|i| format!("({i}, 'l{i}')")));
    insert_rows(
        s,
        "ev",
        (0..900i64).map(|i| {
            let kind = if i % 97 == 0 { "NULL".to_string() } else { (i % 45).to_string() };
            format!("({}, {i}, {kind}, 'p{i}')", i % 9)
        }),
    );
    for table in ["big1", "big2"] {
        insert_rows(s, table, (0..240i64).map(|i| format!("({i}, {}, {})", i % 8, i % 100)));
    }
    insert_rows(s, "tiny", (0..100i64).map(|i| format!("({i}, 't{i}')")));
    insert_rows(s, "items", (0..1200i64).map(|i| format!("({i}, {})", (i * 7919) % 1200)));
    for table in ["fact", "dim_small", "dim_big", "ev", "big1", "big2", "tiny", "items"] {
        s.execute(&format!("ANALYZE {table}")).unwrap();
    }
}

/// A literal for an integer column whose data spans `[lo, hi]`: mostly
/// inside the domain, sometimes just past either end, far outside,
/// negative, NULL, or text.
fn int_lit(rng: &mut StdRng, lo: i64, hi: i64) -> String {
    match rng.gen_range(0..12) {
        0 => (lo - 1).to_string(),
        1 => (hi + 1).to_string(),
        2 => (hi * 10 + 7).to_string(),
        3 => format!("-{}", rng.gen_range(1..50)),
        4 => "NULL".into(),
        5 => format!("'{}'", rng.gen_range(0..9)),
        _ => (lo + rng.gen_range(0..(hi - lo + 1) as u64) as i64).to_string(),
    }
}

/// A literal for a text column holding `{prefix}0 ..= {prefix}{n-1}`.
fn text_lit(rng: &mut StdRng, prefix: &str, n: u64) -> String {
    match rng.gen_range(0..8) {
        0 => "'zz'".into(),
        1 => "''".into(),
        2 => rng.gen_range(0..n).to_string(),
        _ => format!("'{prefix}{}'", rng.gen_range(0..n)),
    }
}

/// One random instance of query shape `shape`.
fn instance(shape: usize, rng: &mut StdRng) -> String {
    let r = |rng: &mut StdRng, lo: i64, hi: i64| int_lit(rng, lo, hi);
    match shape {
        // cost_differential shapes.
        0 => format!(
            "SELECT fact.id, dim_small.name FROM fact JOIN dim_small ON fact.d1 = dim_small.id \
             WHERE dim_small.name = {}",
            text_lit(rng, "n", 4)
        ),
        1 => format!(
            "SELECT fact.id, dim_big.label FROM fact JOIN dim_big ON fact.d2 = dim_big.id \
             WHERE dim_big.id < {}",
            r(rng, 0, 119)
        ),
        2 => format!(
            "SELECT fact.id, dim_small.name, dim_big.label FROM fact \
             JOIN dim_small ON fact.d1 = dim_small.id \
             JOIN dim_big ON fact.d2 = dim_big.id \
             WHERE dim_big.id < {} AND fact.val < {}",
            r(rng, 0, 119),
            r(rng, 0, 599)
        ),
        3 => format!("SELECT id FROM fact WHERE val >= {}", r(rng, 0, 599)),
        4 => {
            let a = rng.gen_range(0..600) as i64;
            format!(
                "SELECT id FROM fact WHERE val >= {a} AND val <= {}",
                a + rng.gen_range(0..40) as i64
            )
        }
        5 => format!(
            "SELECT fact.id FROM fact JOIN dim_big ON fact.d2 = dim_big.id WHERE fact.val = {}",
            r(rng, 0, 599)
        ),
        // The access paths of `ev`.
        6 => format!(
            "SELECT payload FROM ev WHERE tenant = {} AND ts = {}",
            r(rng, 0, 8),
            r(rng, 0, 899)
        ),
        7 => {
            let a = rng.gen_range(0..900) as i64;
            format!(
                "SELECT payload FROM ev WHERE tenant = {} AND ts >= {a} AND ts <= {}",
                r(rng, 0, 8),
                a + rng.gen_range(0..200) as i64
            )
        }
        8 => {
            let a = r(rng, 0, 44);
            format!("SELECT payload FROM ev WHERE kind IN ({a}, {}, {a})", r(rng, 0, 44))
        }
        9 => format!(
            "SELECT payload FROM ev WHERE tenant = {} AND kind = {}",
            r(rng, 0, 8),
            r(rng, 0, 44)
        ),
        10 => format!("SELECT tenant, ts FROM ev WHERE tenant = {}", r(rng, 0, 8)),
        // Folded values: ORDER BY ordinals, LIMIT/OFFSET counts, a
        // GROUP BY expression matched against its SELECT item, HAVING.
        11 => format!(
            "SELECT id, val FROM fact WHERE val < {} ORDER BY {} DESC LIMIT {} OFFSET {}",
            r(rng, 0, 599),
            rng.gen_range(1..3),
            rng.gen_range(0..20),
            rng.gen_range(0..5)
        ),
        12 => {
            let m = rng.gen_range(1..6);
            let n = if rng.gen_bool(0.8) { m } else { m + 1 };
            format!("SELECT d2 % {m}, COUNT(*) FROM fact GROUP BY d2 % {n}")
        }
        13 => format!(
            "SELECT d2, COUNT(*), SUM(val * {}) FROM fact GROUP BY d2 HAVING SUM(val * {}) > {}",
            rng.gen_range(1..3),
            rng.gen_range(1..3),
            rng.gen_range(0..9000)
        ),
        // E11 shapes.
        14 => format!(
            "SELECT COUNT(*) FROM big1 JOIN big2 ON big1.x = big2.x \
             JOIN tiny ON big2.y = tiny.id WHERE tiny.tag = {}",
            text_lit(rng, "t", 110)
        ),
        15 => {
            let a = rng.gen_range(0..1300) as i64 - 50;
            format!(
                "SELECT COUNT(*) FROM items WHERE val >= {a} AND val <= {}",
                a + rng.gen_range(0..60) as i64
            )
        }
        _ => format!("SELECT COUNT(*) FROM items WHERE val >= {}", r(rng, 0, 1199)),
    }
}

const SHAPES: usize = 17;

/// Rows as text, sorted unless the query orders them itself; an error
/// is its message's absence of rows (both sides must fail alike).
fn answer(rows: sbdms_kernel::error::Result<Vec<Vec<Datum>>>, ordered: bool) -> Option<Vec<String>> {
    let mut rows: Vec<String> = rows
        .ok()?
        .iter()
        .map(|row| row.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("|"))
        .collect();
    if !ordered {
        rows.sort();
    }
    Some(rows)
}

/// Plan `sql` from scratch, literals in place, and run it.
fn fresh(db: &Arc<Database>, sql: &str) -> (Option<sbdms_data::Plan>, Option<Vec<String>>) {
    let Ok(Statement::Select(select)) = parse(sql) else {
        panic!("`{sql}` does not parse as a SELECT");
    };
    let Ok(planned) = plan_select(&select, db.as_ref()) else {
        return (None, None);
    };
    let engine = VectorEngine::default();
    let rows = db
        .run_plan_with(&engine, &planned.plan)
        .and_then(|stream| engine.collect(stream));
    (Some(planned.plan), answer(rows, sql.contains("ORDER BY")))
}

#[test]
fn cached_generic_plans_answer_and_plan_like_fresh_ones() {
    let db = open_db(41, 64);
    let s = db.session();
    load(&s);
    let mut rng = StdRng::seed_from_u64(0x5eed_0019);
    let mut hits_checked = 0;
    for round in 0..24 {
        for shape in 0..SHAPES {
            let sql = instance(shape, &mut rng);
            let hits = db.plan_cache_stats().hits;
            let got = answer(s.execute(&sql).map(|r| r.rows), sql.contains("ORDER BY"));
            let hit = db.plan_cache_stats().hits > hits;
            let (plan, want) = fresh(&db, &sql);
            assert_eq!(got, want, "round {round}: `{sql}` answered unlike a fresh plan");
            let Some(plan) = plan else { continue };
            let lifted = lift_literals(&sql, &[]).unwrap().unwrap();
            let cached = db
                .cached_plan(&sql)
                .unwrap_or_else(|| panic!("`{sql}` ran but left no cached plan"));
            assert_eq!(
                cached.bind(&lifted.params),
                plan,
                "round {round}: the cached plan for `{sql}` (hit: {hit}) is not the fresh plan"
            );
            hits_checked += hit as usize;
        }
    }
    // The differential means little unless the cache actually served.
    assert!(hits_checked > SHAPES * 6, "only {hits_checked} cache hits were checked");
}

/// UPDATE and DELETE targets are cached the same way: twin databases,
/// one caching generic plans and one planning every statement afresh,
/// run the same random writes and must agree on every count and on the
/// final table.
#[test]
fn cached_write_targets_match_uncached_ones() {
    let twins = [open_db(42, 64), open_db(42, 0)];
    let sessions: Vec<Session> = twins.iter().map(|db| db.session()).collect();
    for s in &sessions {
        load(s);
    }
    let mut rng = StdRng::seed_from_u64(0x5eed_0020);
    for round in 0..150 {
        let r = |rng: &mut StdRng, lo, hi| int_lit(rng, lo, hi);
        let sql = match round % 4 {
            0 => format!(
                "UPDATE ev SET payload = 'u{round}' WHERE tenant = {} AND ts >= {}",
                r(&mut rng, 0, 8),
                r(&mut rng, 0, 899)
            ),
            1 => format!(
                "UPDATE ev SET kind = kind + {} WHERE kind IN ({}, {})",
                rng.gen_range(1..4),
                r(&mut rng, 0, 44),
                r(&mut rng, 0, 44)
            ),
            2 => format!(
                "DELETE FROM ev WHERE tenant = {} AND ts = {}",
                r(&mut rng, 0, 8),
                r(&mut rng, 0, 899)
            ),
            _ => format!("UPDATE fact SET val = val + 600 WHERE val = {}", r(&mut rng, 0, 599)),
        };
        let outs: Vec<Option<usize>> = sessions
            .iter()
            .map(|s| s.execute(&sql).ok().map(|r| r.affected))
            .collect();
        assert_eq!(outs[0], outs[1], "round {round}: `{sql}`");
    }
    for table in ["ev", "fact"] {
        let rows: Vec<_> = sessions
            .iter()
            .map(|s| answer(s.execute(&format!("SELECT * FROM {table}")).map(|r| r.rows), false))
            .collect();
        assert_eq!(rows[0], rows[1], "{table} diverged");
    }
    let hits = twins[0].plan_cache_stats().hits;
    assert!(hits > 40, "the caching twin should hit, hit {hits}");
    assert_eq!(twins[1].plan_cache_stats().hits, 0);
}

/// The lines of `EXPLAIN sql`.
fn explain(s: &Session, sql: &str) -> Vec<String> {
    s.execute(&format!("EXPLAIN {sql}"))
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].to_string())
        .collect()
}

/// Without statistics a range is costed with the default range
/// selectivity, which reads no bound: one generic plan, unpinned,
/// serves every literal of a one-sided range.
#[test]
fn unanalyzed_range_selects_share_one_generic_plan() {
    let db = open_db(43, 64);
    let s = db.session();
    s.execute("CREATE TABLE u (k INT NOT NULL, v INT NOT NULL)").unwrap();
    s.execute("CREATE INDEX u_k ON u (k)").unwrap();
    insert_rows(&s, "u", (0..1000i64).map(|k| format!("({k}, {})", k * 2)));
    let planned = db.plans_selected();
    for i in 0..200i64 {
        let lo = i * 5;
        let out = s.execute(&format!("SELECT COUNT(*) FROM u WHERE k >= {lo}")).unwrap();
        assert_eq!(out.rows, vec![vec![Datum::Int(1000 - lo)]], "k >= {lo}");
    }
    assert_eq!(db.plans_selected(), planned + 1);
    let lines = explain(&s, "SELECT COUNT(*) FROM u WHERE k >= 480");
    assert!(lines.iter().any(|l| l == "-- generic: $1 any"), "{lines:?}");
    assert!(lines.iter().any(|l| l.contains("IndexScan u.u_k(k)")), "{lines:?}");
    // The index was chosen by cost, against the scan.
    let decision = "-- access u: u_k(eq=0+range) (cost model: u_k(eq=0+range)=810 seq=1000)";
    assert!(lines.iter().any(|l| l == decision), "{lines:?}");
}

/// A negative literal is one value, in lifted text and parsed text
/// alike, so it reaches the index; a minus between operands stays a
/// subtraction.
#[test]
fn negative_literals_reach_the_index() {
    let db = open_db(44, 64);
    let s = db.session();
    s.execute("CREATE TABLE n (k INT NOT NULL, v INT NOT NULL)").unwrap();
    s.execute("CREATE INDEX n_k ON n (k)").unwrap();
    insert_rows(&s, "n", (-500..500i64).map(|k| format!("({k}, {})", k * 2)));
    s.execute("ANALYZE n").unwrap();
    for (sql, path) in [
        ("SELECT v FROM n WHERE k = -5", "IndexScan n.n_k(k) eq=[Int(-5)]"),
        ("SELECT v FROM n WHERE k IN (-1, -2)", "IndexOr n.n_k (2 keys)"),
        (
            "SELECT v FROM n WHERE k BETWEEN -5 AND -3",
            "IndexScan n.n_k(k) eq=[] lo=Some(Int(-5)) hi=Some(Int(-3))",
        ),
    ] {
        let lines = explain(&s, sql);
        assert!(lines.iter().any(|l| l.contains(path)), "{sql}: {lines:?}");
    }
    let ints = |sql: &str| -> Vec<Vec<Datum>> { s.execute(sql).unwrap().rows };
    assert_eq!(ints("SELECT v FROM n WHERE k = -5"), vec![vec![Datum::Int(-10)]]);
    assert_eq!(ints("SELECT COUNT(*) FROM n WHERE k BETWEEN -5 AND -3"), vec![vec![Datum::Int(3)]]);
    assert_eq!(
        ints("SELECT v - 5, v -5, 5 - -3, - -5, -(5) FROM n WHERE k = 1"),
        vec![vec![Datum::Int(-3), Datum::Int(-3), Datum::Int(8), Datum::Int(5), Datum::Int(-5)]]
    );
    // Negative and positive keys share one cached shape.
    let planned = db.plans_selected();
    assert_eq!(ints("SELECT k, v FROM n WHERE k = -7"), vec![vec![Datum::Int(-7), Datum::Int(-14)]]);
    assert_eq!(ints("SELECT k, v FROM n WHERE k = 7"), vec![vec![Datum::Int(7), Datum::Int(14)]]);
    assert_eq!(db.plans_selected(), planned + 1);
    // A view's stored text is parsed, not lifted: the folded literal
    // reaches the index there too.
    s.execute("CREATE VIEW neg AS SELECT v FROM n WHERE k = -5").unwrap();
    let lines = explain(&s, "SELECT v FROM neg");
    assert!(lines.iter().any(|l| l.contains("IndexScan n.n_k(k) eq=[Int(-5)]")), "{lines:?}");
}
