//! Column pruning through joins, differentially: a join reads only the
//! columns its consumers use (plus its keys or predicate), and the
//! columns it leaves NULL must never change an answer. Each pruned query
//! over a wide table with unread TEXT columns is checked against its
//! unpruned reference, the same join selecting every column of both
//! tables and reduced in the test. Every forced join algorithm runs,
//! hash joins build on both sides, and the reads happen under MVCC
//! inside a transaction with its own uncommitted writes as well as from
//! a second session that sees only committed rows. A statement memory
//! limit shows the pruning itself: the pruned hash build fits it, the
//! unpruned one does not.

use std::sync::Arc;

use sbdms_access::exec::join::{BuildSide, JoinAlgorithm};
use sbdms_access::record::{encode_tuple, Datum, Tuple};
use sbdms_data::ast::Statement;
use sbdms_data::executor::{Database, DbOptions};
use sbdms_data::{parse, plan_select, ConcurrencyControl, Plan, Session};

/// Every column of `w ⋈ d`, in this order: `w.id, w.x, w.pad1, w.k,
/// w.pad2, d.x, d.note, d.y`.
const ALL: &str = "w.id, w.x, w.pad1, w.k, w.pad2, d.x, d.note, d.y";

fn open_db(name: &str) -> Arc<Database> {
    let dir = std::env::temp_dir()
        .join("sbdms-join-pruning")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Database::open_opts(
        &dir,
        DbOptions {
            concurrency: ConcurrencyControl::Mvcc,
            ..DbOptions::default()
        },
    )
    .unwrap()
}

/// `w` is 600 wide rows with two 150-character pads; `d` is 40 rows
/// with a 200-character note. `w.x` ranges over `d.x`.
fn load(s: &Session) {
    s.execute(
        "CREATE TABLE w (id INT NOT NULL, x INT NOT NULL, pad1 TEXT NOT NULL, \
         k INT NOT NULL, pad2 TEXT NOT NULL)",
    )
    .unwrap();
    s.execute("CREATE TABLE d (x INT NOT NULL, note TEXT NOT NULL, y INT NOT NULL)")
        .unwrap();
    let (pad1, pad2) = ("a".repeat(150), "b".repeat(150));
    for chunk in (0..600i64).collect::<Vec<_>>().chunks(150) {
        let rows: Vec<String> = chunk
            .iter()
            .map(|i| {
                format!(
                    "({i}, {}, '{pad1}{i}', {}, '{pad2}')",
                    i % 40,
                    (i * 7) % 600
                )
            })
            .collect();
        s.execute(&format!("INSERT INTO w VALUES {}", rows.join(", ")))
            .unwrap();
    }
    let note = "n".repeat(200);
    let rows: Vec<String> = (0..40i64)
        .map(|j| format!("({j}, '{note}{j}', {})", j % 9))
        .collect();
    s.execute(&format!("INSERT INTO d VALUES {}", rows.join(", ")))
        .unwrap();
    s.execute("ANALYZE w").unwrap();
    s.execute("ANALYZE d").unwrap();
}

/// Uncommitted writes to both tables: new and moved `w` rows, a deleted
/// and two new `d` keys, one of them a duplicate.
fn own_writes(s: &Session) {
    s.execute("INSERT INTO w VALUES (900, 41, 'p', 3, 'q'), (901, 1, 'p', 4, 'q')")
        .unwrap();
    s.execute("UPDATE w SET x = 3 WHERE id < 20").unwrap();
    s.execute("DELETE FROM d WHERE x = 5").unwrap();
    s.execute("INSERT INTO d VALUES (41, 'new', 1), (1, 'dup', 2)")
        .unwrap();
}

/// A pruned query, its unpruned reference (a `SELECT` of [`ALL`] with
/// the same `FROM` and `WHERE`) and the reduction that turns the
/// reference's rows into the pruned query's answer.
struct Case {
    pruned: &'static str,
    from_where: &'static str,
    reduce: fn(&[Tuple]) -> Vec<Tuple>,
}

fn int(d: &Datum) -> i64 {
    match d {
        Datum::Int(i) => *i,
        other => panic!("not an INT: {other}"),
    }
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            pruned: "SELECT SUM(d.y), COUNT(*), MIN(w.k) FROM w JOIN d ON w.x = d.x",
            from_where: "FROM w JOIN d ON w.x = d.x",
            reduce: |rows| {
                let sum = rows.iter().map(|r| int(&r[7])).sum::<i64>();
                let min = rows.iter().map(|r| int(&r[3])).min();
                vec![vec![
                    if rows.is_empty() {
                        Datum::Null
                    } else {
                        Datum::Int(sum)
                    },
                    Datum::Int(rows.len() as i64),
                    min.map_or(Datum::Null, Datum::Int),
                ]]
            },
        },
        Case {
            pruned: "SELECT w.k, d.y FROM w JOIN d ON w.x = d.x WHERE w.k < 10",
            from_where: "FROM w JOIN d ON w.x = d.x WHERE w.k < 10",
            reduce: |rows| {
                rows.iter()
                    .map(|r| vec![r[3].clone(), r[7].clone()])
                    .collect()
            },
        },
        Case {
            pruned: "SELECT d.y, w.id FROM d JOIN w ON d.x = w.x WHERE d.y < 2",
            from_where: "FROM d JOIN w ON d.x = w.x WHERE d.y < 2",
            reduce: |rows| {
                rows.iter()
                    .map(|r| vec![r[7].clone(), r[0].clone()])
                    .collect()
            },
        },
        Case {
            pruned: "SELECT w.k + d.y, d.x FROM w JOIN d ON w.x = d.x WHERE w.id < 100",
            from_where: "FROM w JOIN d ON w.x = d.x WHERE w.id < 100",
            reduce: |rows| {
                rows.iter()
                    .map(|r| vec![Datum::Int(int(&r[3]) + int(&r[7])), r[5].clone()])
                    .collect()
            },
        },
        Case {
            pruned: "SELECT w.id, d.y FROM w JOIN d ON w.x < d.x WHERE d.y = 1",
            from_where: "FROM w JOIN d ON w.x < d.x WHERE d.y = 1",
            reduce: |rows| {
                rows.iter()
                    .map(|r| vec![r[0].clone(), r[7].clone()])
                    .collect()
            },
        },
    ]
}

/// Rows as a multiset: the byte encodings, sorted.
fn multiset(rows: &[Tuple]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = rows.iter().map(|r| encode_tuple(r)).collect();
    out.sort();
    out
}

fn explain(s: &Session, sql: &str) -> String {
    let rows = s.execute(&format!("EXPLAIN {sql}")).unwrap().rows;
    rows.iter()
        .map(|r| r[0].to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// The build sides of the hash joins the planner picks for `sql`.
fn hash_builds(db: &Database, sql: &str) -> Vec<BuildSide> {
    fn walk(plan: &Plan, out: &mut Vec<BuildSide>) {
        if let Plan::EquiJoin {
            algorithm: JoinAlgorithm::Hash,
            build,
            ..
        } = plan
        {
            out.push(*build);
        }
        for child in plan.children() {
            walk(child, out);
        }
    }
    let Statement::Select(select) = parse(sql).unwrap() else {
        panic!("not a SELECT: {sql}")
    };
    let mut out = Vec::new();
    walk(&plan_select(&select, db).unwrap().plan, &mut out);
    out
}

/// Check every case on `s` under every forced algorithm, with join
/// reordering on and off (off keeps the textual order, so a large left
/// input makes a hash join build on the right). Returns the build sides
/// the hash joins used.
fn check_all(db: &Database, s: &Session, who: &str) -> Vec<BuildSide> {
    let mut builds = Vec::new();
    for reorder in [true, false] {
        db.set_join_reordering(reorder);
        for algorithm in [
            None,
            Some(JoinAlgorithm::Hash),
            Some(JoinAlgorithm::NestedLoop),
        ] {
            db.force_join_algorithm(algorithm);
            for case in cases() {
                let reference = s
                    .execute(&format!("SELECT {ALL} {}", case.from_where))
                    .unwrap()
                    .rows;
                assert!(
                    !reference.is_empty(),
                    "{who}: `{}` joins nothing",
                    case.from_where
                );
                let want = (case.reduce)(&reference);
                let got = s.execute(case.pruned).unwrap().rows;
                assert_eq!(
                    multiset(&got),
                    multiset(&want),
                    "{who}, {algorithm:?}, reordering {reorder}: `{}`\n{}",
                    case.pruned,
                    explain(s, case.pruned)
                );
                builds.extend(hash_builds(db, case.pruned));
            }
        }
    }
    db.force_join_algorithm(None);
    db.set_join_reordering(true);
    builds
}

#[test]
fn pruned_joins_answer_like_unpruned_ones() {
    let db = open_db("differential");
    let writer = db.session();
    load(&writer);
    writer.begin().unwrap();
    own_writes(&writer);
    // A committed change the open transaction's snapshot must not see.
    let other = db.session();
    other.execute("UPDATE d SET y = 100 WHERE x = 2").unwrap();

    let mut builds = check_all(&db, &writer, "own writes");
    builds.extend(check_all(&db, &other, "committed"));
    for side in [BuildSide::Left, BuildSide::Right] {
        assert!(
            builds.contains(&side),
            "no hash join built on {side:?}: {builds:?}"
        );
    }
    writer.commit().unwrap();
    check_all(&db, &other, "after commit");
}

#[test]
fn pruning_shrinks_the_hash_build_under_a_memory_limit() {
    let db = open_db("memory");
    let s = db.session();
    load(&s);
    s.begin().unwrap();
    own_writes(&s);
    db.force_join_algorithm(Some(JoinAlgorithm::Hash));
    let case = &cases()[0];
    let plan = explain(&s, case.pruned);
    assert!(plan.contains("TableScan d"), "{plan}");
    // `d` builds: about 4.4 KiB of row and table overhead for its 41 rows,
    // plus 8.2 KiB of notes unless the note column is pruned.
    s.set_statement_memory_limit(Some(8 << 10));
    let err = s
        .execute(&format!("SELECT {ALL} {}", case.from_where))
        .expect_err("the unpruned build must overrun the limit");
    assert_eq!(err.code(), "resources", "{err}");
    let got = s.execute(case.pruned).unwrap().rows;
    s.set_statement_memory_limit(None);
    let reference = s
        .execute(&format!("SELECT {ALL} {}", case.from_where))
        .unwrap()
        .rows;
    assert_eq!(multiset(&got), multiset(&(case.reduce)(&reference)));
    s.rollback().unwrap();
}
