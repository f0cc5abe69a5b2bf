//! Prepared-statement differential: every `.slt` golden script replays
//! over the wire — each statement *prepared then executed* through a
//! real TCP connection — against a twin database driven in-process, and
//! every result must match byte for byte.
//!
//! This pins three things at once: the wire row encoding is lossless,
//! the prepared-statement path (plan-once, execute-later through the
//! shared plan cache) computes exactly what direct execution computes,
//! and typed errors render identically on both sides of the socket.
//!
//! A second replay prepares each SELECT, INSERT, UPDATE, DELETE and
//! EXPLAIN with its literals turned into `?` placeholders and sends the
//! values as the `execute` frame's typed `params`, so parameters cross
//! the wire and bind server-side exactly as the text's literals would.
//!
//! Scripts stop at a `crash` directive (a live server cannot replay a
//! simulated power loss mid-connection); the crash semantics themselves
//! are owned by the data crate's slt runner and the torture suite.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sbdms_data::executor::{Database, DbOptions, QueryResult};
use sbdms_data::lift_literals;
use sbdms_data::session::Session;
use sbdms_data::txn::Durability;
use sbdms_server::{Client, QueryOutcome, Server, ServerConfig};
use sbdms_storage::{SimBackend, SimConfig};

#[path = "../../data/tests/slt_common/mod.rs"]
mod slt_common;

use slt_common::{parse_script, script_concurrency, script_seed, Directive};

fn slt_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../data/tests/slt")
}

fn scripts() -> Vec<PathBuf> {
    let mut scripts: Vec<_> = std::fs::read_dir(slt_dir())
        .expect("slt golden directory")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "slt"))
        .collect();
    scripts.sort();
    assert!(scripts.len() >= 6, "expected the golden scripts, found {scripts:?}");
    scripts
}

fn open_twin(path: &Path) -> Arc<Database> {
    let directives = parse_script(&std::fs::read_to_string(path).unwrap(), path);
    let concurrency = script_concurrency(&directives);
    let sim = SimBackend::new(SimConfig::seeded(script_seed(path)));
    let db = Database::open_at(&*sim, DbOptions { concurrency, ..DbOptions::default() }).unwrap();
    db.set_durability(Durability::Full);
    db
}

/// In-process statement result, normalised to the wire outcome shape.
fn run_local(session: &Session, sql: &str) -> Result<QueryResult, String> {
    let upper = sql.trim().to_ascii_uppercase();
    let result = match upper.as_str() {
        "BEGIN" => session.begin().map(|_| QueryResult::default()),
        "COMMIT" => session.commit().map(|_| QueryResult::default()),
        "ROLLBACK" => session.rollback().map(|_| QueryResult::default()),
        _ => session.execute(sql),
    };
    result.map_err(|e| e.to_string())
}

/// Wire statement result through prepare-then-execute. With `params`,
/// a statement that takes them is prepared with its literals as `?`
/// placeholders and executed with their values.
fn run_wire(
    client: &mut Client,
    sql: &str,
    params: bool,
    sent: &mut usize,
) -> Result<QueryOutcome, String> {
    let verb = sql.split_whitespace().next().unwrap_or("").to_ascii_lowercase();
    let takes_params = ["select", "insert", "update", "delete", "explain"].contains(&verb.as_str());
    let (text, values) = match lift_literals(sql, &[]) {
        Ok(Some(lifted)) if params && takes_params => (lifted.text, lifted.params),
        _ => (sql.to_string(), Vec::new()),
    };
    *sent += values.len();
    let prepared = client.prepare(&text).map_err(|e| e.to_string())?;
    let out = client.execute_params(&prepared, &values).map_err(|e| e.to_string());
    let _ = client.close_statement(prepared);
    out
}

fn format_result(r: &QueryResult) -> Vec<String> {
    slt_common::format_rows(r)
}

#[test]
fn every_slt_golden_replays_identically_over_the_wire() {
    for path in scripts() {
        replay(&path, false);
    }
}

#[test]
fn every_slt_golden_replays_identically_with_wire_parameters() {
    let sent: usize = scripts().iter().map(|path| replay(path, true)).sum();
    assert!(sent > 500, "only {sent} parameters crossed the wire");
}

/// Replay one script; returns how many parameter values were sent.
fn replay(path: &Path, params: bool) -> usize {
    let text = std::fs::read_to_string(path).unwrap();
    let directives = parse_script(&text, path);

    let local_db = open_twin(path);
    let wire_db = open_twin(path);
    let server = Server::start(wire_db, ServerConfig::default()).unwrap();

    let mut local_sessions: BTreeMap<String, Session> = BTreeMap::new();
    let mut wire_sessions: BTreeMap<String, Client> = BTreeMap::new();
    let mut current = String::new();
    let mut sent = 0;

    for directive in &directives {
        // Resolve the current session pair lazily so `session`
        // directives and the script's unnamed first session share one
        // code path.
        macro_rules! pair {
            () => {{
                let local = local_sessions
                    .entry(current.clone())
                    .or_insert_with(|| local_db.session());
                let wire = wire_sessions
                    .entry(current.clone())
                    .or_insert_with(|| Client::connect(server.addr()).unwrap());
                (local, wire)
            }};
        }
        match directive {
            Directive::Crash { .. } => break,
            Directive::Session { name, .. } => current = name.clone(),
            Directive::Concurrency { .. } => {}
            Directive::Deadline { ms, line } => {
                let (local, wire) = pair!();
                local.set_statement_deadline_ms(*ms);
                wire.set_deadline_ms(*ms)
                    .unwrap_or_else(|e| panic!("{}:{line}: wire deadline: {e}", path.display()));
            }
            Directive::MemLimit { bytes, line } => {
                let (local, wire) = pair!();
                local.set_statement_memory_limit(*bytes);
                wire.set_memory_limit(*bytes)
                    .unwrap_or_else(|e| panic!("{}:{line}: wire memlimit: {e}", path.display()));
            }
            Directive::Statement { sql, line, .. } | Directive::Query { sql, line, .. } => {
                let ctx = format!("{}:{line}", path.display());
                let (local, wire) = pair!();
                let local_out = run_local(local, sql);
                let wire_out = run_wire(wire, sql, params, &mut sent);
                match (local_out, wire_out) {
                    (Ok(l), Ok(w)) => {
                        assert_eq!(
                            l.columns, w.columns,
                            "{ctx}: column labels diverge over the wire"
                        );
                        assert_eq!(
                            format_result(&l),
                            w.formatted_rows(),
                            "{ctx}: rows diverge over the wire"
                        );
                        assert_eq!(l.rows, w.rows, "{ctx}: typed rows diverge over the wire");
                        assert_eq!(l.affected, w.affected, "{ctx}: affected count diverges");
                    }
                    (Err(l), Err(w)) => {
                        assert_eq!(l, w, "{ctx}: error text diverges over the wire");
                    }
                    (l, w) => panic!(
                        "{ctx}: outcomes diverge over the wire:\n  local: {l:?}\n  wire:  {w:?}"
                    ),
                }
            }
        }
    }
    sent
}
