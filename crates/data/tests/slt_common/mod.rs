//! Shared plumbing for the sqllogictest-style runners: the directive
//! parser, the per-script deterministic seed, and result formatting.
//! `slt.rs` replays scripts against golden output and an in-memory
//! oracle; `engine_differential.rs` replays the same scripts under both
//! execution engines and asserts byte-identical answers.

#![allow(dead_code)]

use std::path::{Path, PathBuf};

use sbdms_data::executor::QueryResult;
use sbdms_data::ConcurrencyControl;

/// One parsed directive from a script.
pub enum Directive {
    Statement {
        sql: String,
        expect_ok: bool,
        /// For `statement error <substring>`: the typed error text the
        /// failure must contain.
        error_contains: Option<String>,
        line: usize,
    },
    Query { sql: String, expected: Vec<String>, rowsort: bool, line: usize },
    Crash { line: usize },
    /// `deadline <ms>` / `deadline none`: statement deadline for every
    /// following statement until changed.
    Deadline { ms: Option<u64>, line: usize },
    /// `memlimit <bytes>` / `memlimit none`: per-statement memory limit
    /// for every following statement until changed.
    MemLimit { bytes: Option<u64>, line: usize },
    /// `concurrency mvcc` / `concurrency single-writer`: the
    /// concurrency-control service the whole script runs under (must
    /// appear before the first statement; default is single-writer).
    Concurrency { mode: ConcurrencyControl, line: usize },
    /// `session <name>`: route following statements and queries through
    /// the named session (created on first use). Scripts without any
    /// `session` directive run on one session the runner opens.
    Session { name: String, line: usize },
}

pub fn parse_script(text: &str, path: &Path) -> Vec<Directive> {
    let lines: Vec<&str> = text.lines().collect();
    let mut directives = Vec::new();
    let mut i = 0;
    let bad = |line: usize, msg: &str| -> ! { panic!("{}:{line}: {msg}", path.display()) };
    while i < lines.len() {
        let line = lines[i].trim();
        let lineno = i + 1;
        if line.is_empty() || line.starts_with('#') {
            i += 1;
            continue;
        }
        if line == "crash" {
            directives.push(Directive::Crash { line: lineno });
            i += 1;
        } else if let Some(rest) = line.strip_prefix("deadline") {
            let ms = match rest.trim() {
                "none" => None,
                n => Some(n.parse().unwrap_or_else(|_| {
                    bad(lineno, &format!("deadline wants milliseconds or `none`, got `{n}`"))
                })),
            };
            directives.push(Directive::Deadline { ms, line: lineno });
            i += 1;
        } else if let Some(rest) = line.strip_prefix("memlimit") {
            let bytes = match rest.trim() {
                "none" => None,
                n => Some(n.parse().unwrap_or_else(|_| {
                    bad(lineno, &format!("memlimit wants bytes or `none`, got `{n}`"))
                })),
            };
            directives.push(Directive::MemLimit { bytes, line: lineno });
            i += 1;
        } else if let Some(rest) = line.strip_prefix("concurrency") {
            let mode = match rest.trim() {
                "mvcc" => ConcurrencyControl::Mvcc,
                "single-writer" => ConcurrencyControl::SingleWriter,
                other => bad(
                    lineno,
                    &format!("concurrency wants `mvcc` or `single-writer`, got `{other}`"),
                ),
            };
            directives.push(Directive::Concurrency { mode, line: lineno });
            i += 1;
        } else if let Some(rest) = line.strip_prefix("session") {
            let name = rest.trim();
            if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                bad(lineno, &format!("session wants a simple name, got `{name}`"));
            }
            directives.push(Directive::Session { name: name.to_string(), line: lineno });
            i += 1;
        } else if let Some(rest) = line.strip_prefix("statement") {
            let (expect_ok, error_contains) = match rest.trim() {
                "ok" => (true, None),
                "error" => (false, None),
                other => match other.strip_prefix("error ") {
                    Some(text) => (false, Some(text.trim().to_string())),
                    None => bad(lineno, &format!("unknown statement kind `{other}`")),
                },
            };
            let mut sql = String::new();
            i += 1;
            while i < lines.len() && !lines[i].trim().is_empty() {
                if !sql.is_empty() {
                    sql.push(' ');
                }
                sql.push_str(lines[i].trim());
                i += 1;
            }
            if sql.is_empty() {
                bad(lineno, "statement directive without SQL");
            }
            directives.push(Directive::Statement { sql, expect_ok, error_contains, line: lineno });
        } else if let Some(rest) = line.strip_prefix("query") {
            let rowsort = rest.contains("rowsort");
            let mut sql = String::new();
            i += 1;
            while i < lines.len() && lines[i].trim() != "----" {
                if lines[i].trim().is_empty() {
                    bad(lineno, "query directive without a ---- separator");
                }
                if !sql.is_empty() {
                    sql.push(' ');
                }
                sql.push_str(lines[i].trim());
                i += 1;
            }
            if i >= lines.len() {
                bad(lineno, "query directive without a ---- separator");
            }
            i += 1; // past ----
            let mut expected = Vec::new();
            while i < lines.len() && !lines[i].trim().is_empty() {
                expected.push(lines[i].trim().to_string());
                i += 1;
            }
            directives.push(Directive::Query { sql, expected, rowsort, line: lineno });
        } else {
            bad(lineno, &format!("unknown directive `{line}`"));
        }
    }
    directives
}

/// The concurrency-control mode a script pinned (default single-writer).
pub fn script_concurrency(directives: &[Directive]) -> ConcurrencyControl {
    directives
        .iter()
        .find_map(|d| match d {
            Directive::Concurrency { mode, .. } => Some(*mode),
            _ => None,
        })
        .unwrap_or_default()
}

/// Whether the script routes statements through named sessions.
pub fn uses_sessions(directives: &[Directive]) -> bool {
    directives.iter().any(|d| matches!(d, Directive::Session { .. }))
}

/// Seed the per-script simulator deterministically from the file name.
pub fn script_seed(path: &Path) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in path.file_name().unwrap().to_string_lossy().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Format engine result rows the way expected blocks are written.
pub fn format_rows(result: &QueryResult) -> Vec<String> {
    result
        .rows
        .iter()
        .map(|row| row.iter().map(|d| d.to_string()).collect::<Vec<_>>().join(" "))
        .collect()
}

/// All `.slt` scripts in this crate's `tests/slt` directory, sorted.
pub fn slt_scripts() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/slt");
    let mut scripts: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "slt"))
        .collect();
    scripts.sort();
    assert!(scripts.len() >= 6, "expected at least 6 .slt scripts, found {}", scripts.len());
    scripts
}
