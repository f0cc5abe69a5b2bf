//! A sqllogictest-style golden-file runner.
//!
//! Scripts live in `tests/slt/*.slt` and use a small directive language:
//!
//! ```text
//! statement ok
//! CREATE TABLE t (k INT, v TEXT)
//!
//! statement error
//! CREATE TABLE t (k INT)        # duplicate: must fail
//!
//! query
//! SELECT k, v FROM t ORDER BY k
//! ----
//! 1 one
//! 2 two
//!
//! crash
//! ```
//!
//! `query rowsort` sorts the result rows before comparing, for queries
//! without a total ORDER BY. `BEGIN` / `COMMIT` / `ROLLBACK` are
//! intercepted by the runner (the SQL dialect has no transaction
//! statements) and mapped onto `Session::begin/commit/rollback`. The
//! `crash` directive simulates a power loss: the database handle drops,
//! the simulated device loses its unsynced writes, and the script
//! continues on a freshly recovered handle.
//!
//! Every script runs on a `SimBackend` with full durability, and the
//! runner differential-tests the engine against a simple in-memory
//! oracle: each DML statement is also interpreted over plain row
//! vectors (a deliberately restricted dialect — literal inserts,
//! literal SET clauses, single `col op literal` predicates), and after
//! every statement the full contents of every table must match the
//! oracle exactly. Golden `query` blocks check the relational surface
//! (joins, aggregates, expressions) that the oracle does not model.

mod slt_common;

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use sbdms_data::executor::{Database, DbOptions};
use sbdms_data::txn::Durability;
use sbdms_data::Session;
use sbdms_storage::{SimBackend, SimConfig};

use slt_common::{
    format_rows, parse_script, script_concurrency, script_seed, uses_sessions, Directive,
};

/// One oracle table: column names plus rows of display-formatted values.
#[derive(Clone, Debug, PartialEq)]
struct OracleTable {
    cols: Vec<String>,
    rows: Vec<Vec<String>>,
}

type OracleTables = BTreeMap<String, OracleTable>;

/// The differential oracle: committed state plus an optional staged
/// copy while a transaction is open.
#[derive(Default)]
struct Oracle {
    committed: OracleTables,
    staged: Option<OracleTables>,
}

impl Oracle {
    fn current(&mut self) -> &mut OracleTables {
        self.staged.as_mut().unwrap_or(&mut self.committed)
    }

    fn begin(&mut self) {
        assert!(self.staged.is_none(), "oracle: BEGIN inside a transaction");
        self.staged = Some(self.committed.clone());
    }

    fn commit(&mut self) {
        let staged = self.staged.take().expect("oracle: COMMIT outside a transaction");
        self.committed = staged;
    }

    fn rollback(&mut self) {
        self.staged.take().expect("oracle: ROLLBACK outside a transaction");
    }

    /// Power loss: staged work is gone, committed state survives.
    fn crash(&mut self) {
        self.staged = None;
    }
}

/// Split `s` on commas that sit at paren/quote nesting depth zero.
fn split_top_level(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut cur = String::new();
    for ch in s.chars() {
        match ch {
            '\'' => {
                in_str = !in_str;
                cur.push(ch);
            }
            '(' if !in_str => {
                depth += 1;
                cur.push(ch);
            }
            ')' if !in_str => {
                depth = depth.saturating_sub(1);
                cur.push(ch);
            }
            ',' if !in_str && depth == 0 => {
                parts.push(cur.trim().to_string());
                cur = String::new();
            }
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        parts.push(cur.trim().to_string());
    }
    parts
}

/// Parse a literal from the restricted dialect into its display form
/// (the same formatting `Datum` uses when printed).
fn parse_literal(s: &str) -> String {
    let s = s.trim();
    if let Some(inner) = s.strip_prefix('\'').and_then(|r| r.strip_suffix('\'')) {
        return inner.to_string();
    }
    if s.eq_ignore_ascii_case("null") {
        return "NULL".to_string();
    }
    if let Ok(i) = s.parse::<i64>() {
        return i.to_string();
    }
    if let Ok(f) = s.parse::<f64>() {
        return f.to_string();
    }
    panic!("oracle: `{s}` is not a literal the oracle understands");
}

/// A `col op literal` predicate from a WHERE clause.
struct Predicate {
    col: String,
    op: String,
    value: String,
}

impl Predicate {
    fn parse(clause: &str) -> Predicate {
        let clause = clause.trim();
        for op in ["<=", ">=", "<>", "!=", "=", "<", ">"] {
            if let Some(idx) = clause.find(op) {
                let col = clause[..idx].trim().to_string();
                let value = parse_literal(&clause[idx + op.len()..]);
                assert!(
                    !col.is_empty() && col.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                    "oracle: WHERE clause `{clause}` is more than `col op literal`"
                );
                return Predicate { col, op: op.to_string(), value };
            }
        }
        panic!("oracle: cannot parse predicate `{clause}`");
    }

    fn matches(&self, table: &OracleTable, row: &[String]) -> bool {
        let idx = table
            .cols
            .iter()
            .position(|c| c.eq_ignore_ascii_case(&self.col))
            .unwrap_or_else(|| panic!("oracle: no column `{}`", self.col));
        let lhs = &row[idx];
        let rhs = &self.value;
        let ord = match (lhs.parse::<f64>(), rhs.parse::<f64>()) {
            (Ok(a), Ok(b)) => a.partial_cmp(&b),
            _ => Some(lhs.as_str().cmp(rhs.as_str())),
        };
        let Some(ord) = ord else { return false };
        match self.op.as_str() {
            "=" => ord.is_eq(),
            "<>" | "!=" => ord.is_ne(),
            "<" => ord.is_lt(),
            ">" => ord.is_gt(),
            "<=" => ord.is_le(),
            ">=" => ord.is_ge(),
            _ => unreachable!(),
        }
    }
}

/// Case-insensitively strip a leading keyword and any following space.
fn strip_keyword<'a>(s: &'a str, kw: &str) -> Option<&'a str> {
    let trimmed = s.trim_start();
    if trimmed.len() >= kw.len() && trimmed[..kw.len()].eq_ignore_ascii_case(kw) {
        let rest = &trimmed[kw.len()..];
        if rest.is_empty() || rest.starts_with([' ', '\t', '(']) {
            return Some(rest.trim_start());
        }
    }
    None
}

/// Mirror one DML/DDL statement onto the oracle tables.
fn oracle_apply(tables: &mut OracleTables, sql: &str) {
    let sql = sql.trim().trim_end_matches(';');
    if let Some(rest) = strip_keyword(sql, "CREATE TABLE") {
        let open = rest.find('(').expect("oracle: CREATE TABLE without column list");
        let name = rest[..open].trim().to_string();
        let body = rest[open + 1..].trim_end_matches(')');
        let cols = split_top_level(body)
            .iter()
            .map(|def| def.split_whitespace().next().unwrap().to_string())
            .collect();
        let prev = tables.insert(name.clone(), OracleTable { cols, rows: Vec::new() });
        assert!(prev.is_none(), "oracle: table `{name}` created twice");
    } else if let Some(rest) = strip_keyword(sql, "DROP TABLE") {
        tables.remove(rest.trim()).expect("oracle: DROP of unknown table");
    } else if let Some(rest) = strip_keyword(sql, "INSERT INTO") {
        let (name, tail) = rest.split_once(char::is_whitespace).expect("oracle: bad INSERT");
        let values = strip_keyword(tail, "VALUES")
            .expect("oracle: INSERT must be `INSERT INTO t VALUES (...)`");
        let table = tables
            .get_mut(name.trim())
            .unwrap_or_else(|| panic!("oracle: INSERT into unknown table `{name}`"));
        for tuple in split_top_level(values) {
            let inner = tuple
                .strip_prefix('(')
                .and_then(|t| t.strip_suffix(')'))
                .expect("oracle: INSERT tuple must be parenthesised");
            let row: Vec<String> = split_top_level(inner).iter().map(|v| parse_literal(v)).collect();
            assert_eq!(row.len(), table.cols.len(), "oracle: INSERT arity mismatch");
            table.rows.push(row);
        }
    } else if let Some(rest) = strip_keyword(sql, "DELETE FROM") {
        let (name, pred) = match rest.split_once(|c: char| c.is_whitespace()) {
            Some((name, tail)) => {
                let clause = strip_keyword(tail, "WHERE").expect("oracle: DELETE tail must be WHERE");
                (name, Some(Predicate::parse(clause)))
            }
            None => (rest, None),
        };
        let table = tables
            .get_mut(name.trim())
            .unwrap_or_else(|| panic!("oracle: DELETE from unknown table `{name}`"));
        match pred {
            Some(p) => {
                let cols = table.clone();
                table.rows.retain(|row| !p.matches(&cols, row));
            }
            None => table.rows.clear(),
        }
    } else if let Some(rest) = strip_keyword(sql, "UPDATE") {
        let (name, tail) = rest.split_once(char::is_whitespace).expect("oracle: bad UPDATE");
        let tail = strip_keyword(tail, "SET").expect("oracle: UPDATE without SET");
        let (sets, pred) = match tail.to_ascii_uppercase().find(" WHERE ") {
            Some(idx) => (&tail[..idx], Some(Predicate::parse(&tail[idx + 7..]))),
            None => (tail, None),
        };
        let assignments: Vec<(String, String)> = split_top_level(sets)
            .iter()
            .map(|a| {
                let (col, lit) = a.split_once('=').expect("oracle: SET must be `col = literal`");
                (col.trim().to_string(), parse_literal(lit))
            })
            .collect();
        let table = tables
            .get_mut(name.trim())
            .unwrap_or_else(|| panic!("oracle: UPDATE of unknown table `{name}`"));
        let snapshot = table.clone();
        for row in &mut table.rows {
            if pred.as_ref().is_none_or(|p| p.matches(&snapshot, row)) {
                for (col, value) in &assignments {
                    let idx = snapshot
                        .cols
                        .iter()
                        .position(|c| c.eq_ignore_ascii_case(col))
                        .unwrap_or_else(|| panic!("oracle: no column `{col}`"));
                    row[idx] = value.clone();
                }
            }
        }
    } else if strip_keyword(sql, "CREATE INDEX").is_some()
        || strip_keyword(sql, "DROP INDEX").is_some()
        || strip_keyword(sql, "CREATE VIEW").is_some()
        || strip_keyword(sql, "DROP VIEW").is_some()
        || strip_keyword(sql, "ANALYZE").is_some()
    {
        // No effect on base-table contents (ANALYZE only refreshes
        // optimizer statistics).
    } else {
        panic!("oracle: statement `{sql}` is outside the oracle dialect");
    }
}

/// Assert every oracle table matches the engine's view of it, as a
/// sorted multiset of formatted rows.
fn cross_check(db: &Session, tables: &OracleTables, ctx: &str) {
    for (name, table) in tables {
        let result = db
            .execute(&format!("SELECT * FROM {name}"))
            .unwrap_or_else(|e| panic!("{ctx}: oracle cross-check scan of `{name}` failed: {e}"));
        let mut engine = format_rows(&result);
        let mut oracle: Vec<String> = table.rows.iter().map(|r| r.join(" ")).collect();
        engine.sort();
        oracle.sort();
        assert_eq!(engine, oracle, "{ctx}: table `{name}` diverged from the oracle");
    }
}

fn run_script(path: &Path) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let directives = parse_script(&text, path);
    let concurrency = script_concurrency(&directives);
    let sim: Arc<SimBackend> = SimBackend::new(SimConfig::seeded(script_seed(path)));
    let open = |sim: &SimBackend| {
        let db = Database::open_at(sim, DbOptions { concurrency, ..DbOptions::default() })
            .unwrap_or_else(|e| panic!("{}: open failed: {e}", path.display()));
        db.set_durability(Durability::Full);
        db.session()
    };
    if uses_sessions(&directives) {
        // Multi-session scripts exercise concurrency-control semantics
        // (snapshot visibility, conflicts, busy rejection); the simple
        // staged oracle models a single serial session, so they replay
        // on a dedicated runner checked by golden blocks only.
        let db = open(&sim);
        run_session_script(path, &directives, db.database());
        return;
    }
    let mut db = Some(open(&sim));
    let mut oracle = Oracle::default();
    let mut in_txn = false;

    for directive in directives {
        match directive {
            Directive::Statement { sql, expect_ok, error_contains, line } => {
                let ctx = format!("{}:{line}", path.display());
                let handle = db.as_ref().unwrap();
                let upper = sql.to_ascii_uppercase();
                let result = match upper.as_str() {
                    "BEGIN" => handle.begin().map(|_| ()),
                    "COMMIT" => handle.commit(),
                    "ROLLBACK" => handle.rollback(),
                    _ => handle.execute(&sql).map(|_| ()),
                };
                match (expect_ok, result) {
                    (true, Err(e)) => panic!("{ctx}: expected ok, got error: {e}"),
                    (false, Ok(())) => panic!("{ctx}: expected an error, statement succeeded"),
                    (false, Err(e)) => {
                        if let Some(text) = &error_contains {
                            assert!(
                                e.to_string().contains(text),
                                "{ctx}: error `{e}` does not contain `{text}`"
                            );
                        }
                        continue;
                    }
                    (true, Ok(())) => {}
                }
                match upper.as_str() {
                    "BEGIN" => {
                        oracle.begin();
                        in_txn = true;
                    }
                    "COMMIT" => {
                        oracle.commit();
                        in_txn = false;
                    }
                    "ROLLBACK" => {
                        oracle.rollback();
                        in_txn = false;
                    }
                    _ => oracle_apply(oracle.current(), &sql),
                }
                let visible = oracle.staged.as_ref().unwrap_or(&oracle.committed);
                cross_check(db.as_ref().unwrap(), visible, &ctx);
            }
            Directive::Query { sql, expected, rowsort, line } => {
                let ctx = format!("{}:{line}", path.display());
                let result = db
                    .as_ref()
                    .unwrap()
                    .execute(&sql)
                    .unwrap_or_else(|e| panic!("{ctx}: query failed: {e}"));
                let mut rows = format_rows(&result);
                let mut expected = expected;
                if rowsort {
                    rows.sort();
                    expected.sort();
                }
                assert_eq!(rows, expected, "{ctx}: query result mismatch");
            }
            Directive::Deadline { ms, .. } => {
                db.as_ref().unwrap().set_statement_deadline_ms(ms);
            }
            Directive::MemLimit { bytes, .. } => {
                db.as_ref().unwrap().set_statement_memory_limit(bytes);
            }
            Directive::Crash { line } => {
                let ctx = format!("{}:{line}", path.display());
                // Power loss: the handle drops with its open transaction
                // (if any), unsynced device writes are lost, and the
                // reopen runs crash recovery.
                assert!(
                    !in_txn || oracle.staged.is_some(),
                    "{ctx}: runner transaction state is inconsistent"
                );
                drop(db.take());
                sim.power_cycle();
                oracle.crash();
                in_txn = false;
                db = Some(open(&sim));
                cross_check(db.as_ref().unwrap(), &oracle.committed, &ctx);
            }
            // Pre-scanned into the open options.
            Directive::Concurrency { .. } => {}
            Directive::Session { .. } => unreachable!("session scripts take the session runner"),
        }
    }
    assert!(!in_txn, "{}: script ended inside a transaction", path.display());
}

/// Replay a multi-session script: statements and queries route through
/// named [`Session`]s (created on first mention), golden blocks carry
/// the verification. No oracle, no crash directives — concurrency
/// semantics are exactly what these scripts pin down.
fn run_session_script(path: &Path, directives: &[Directive], db: &Arc<Database>) {
    let mut sessions: BTreeMap<String, Session> = BTreeMap::new();
    let mut current = "main".to_string();
    for directive in directives {
        match directive {
            Directive::Session { name, .. } => current = name.clone(),
            Directive::Concurrency { .. } => {}
            Directive::Statement { sql, expect_ok, error_contains, line } => {
                let ctx = format!("{}:{line}", path.display());
                let session = sessions.entry(current.clone()).or_insert_with(|| db.session());
                let result = match sql.to_ascii_uppercase().as_str() {
                    "BEGIN" => session.begin().map(|_| ()),
                    "COMMIT" => session.commit(),
                    "ROLLBACK" => session.rollback(),
                    _ => session.execute(sql).map(|_| ()),
                };
                match (expect_ok, result) {
                    (true, Err(e)) => panic!("{ctx} [{current}]: expected ok, got error: {e}"),
                    (false, Ok(())) => {
                        panic!("{ctx} [{current}]: expected an error, statement succeeded")
                    }
                    (false, Err(e)) => {
                        if let Some(text) = error_contains {
                            assert!(
                                e.to_string().contains(text),
                                "{ctx} [{current}]: error `{e}` does not contain `{text}`"
                            );
                        }
                    }
                    (true, Ok(())) => {}
                }
            }
            Directive::Query { sql, expected, rowsort, line } => {
                let ctx = format!("{}:{line}", path.display());
                let session = sessions.entry(current.clone()).or_insert_with(|| db.session());
                let result = session
                    .execute(sql)
                    .unwrap_or_else(|e| panic!("{ctx} [{current}]: query failed: {e}"));
                let mut rows = format_rows(&result);
                let mut expected = expected.clone();
                if *rowsort {
                    rows.sort();
                    expected.sort();
                }
                assert_eq!(rows, expected, "{ctx} [{current}]: query result mismatch");
            }
            Directive::Deadline { line, .. }
            | Directive::MemLimit { line, .. }
            | Directive::Crash { line } => {
                panic!("{}:{line}: directive not supported in session scripts", path.display())
            }
        }
    }
    for (name, session) in &sessions {
        assert!(!session.in_txn(), "{}: session `{name}` ended inside a transaction", path.display());
    }
}

#[test]
fn run_all_slt_scripts() {
    for script in slt_common::slt_scripts() {
        println!("running {}", script.display());
        run_script(&script);
    }
}
