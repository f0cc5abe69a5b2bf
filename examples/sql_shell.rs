//! An interactive SQL shell over an SBDMS deployment.
//!
//! ```text
//! cargo run --example sql_shell [data-dir]
//! ```
//!
//! Meta commands: `.tables`, `.views`, `.services`, `.metrics`,
//! `.explain <select>`, `.begin/.commit/.rollback`, `.quit`.

use std::io::{BufRead, Write};

use sbdms::data::parser::parse;
use sbdms::data::planner::plan_select;
use sbdms::data::services::QUERY_INTERFACE;
use sbdms::kernel::value::Value;
use sbdms::{Profile, Sbdms};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("sbdms-shell"));
    let system = Sbdms::open(Profile::FullFledged, &dir)?;
    println!("SBDMS shell — data in {} — `.quit` to exit", dir.display());

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("sbdms> ");
        out.flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            ".quit" | ".exit" => break,
            ".tables" => println!("{:?}", system.database().catalog().table_names()),
            ".views" => println!("{:?}", system.database().catalog().view_names()),
            ".services" => {
                for key in system.service_keys() {
                    let id = system.service(&key).unwrap();
                    let enabled = if system.bus().is_enabled(id) { "enabled" } else { "disabled" };
                    println!("  {key:12} {id} [{enabled}]");
                }
            }
            ".metrics" => {
                for (id, snap) in system.bus().metrics().snapshot_all() {
                    if snap.calls + snap.errors > 0 {
                        println!(
                            "  {id}: {} calls, {} errors, mean {:.1}µs",
                            snap.calls,
                            snap.errors,
                            snap.mean_latency_ns() / 1000.0
                        );
                    }
                }
            }
            // Transaction control goes through the query service, whose
            // one session also runs the shell's SQL.
            ".begin" | ".commit" | ".rollback" => {
                let op = &line[1..];
                let reply = system.bus().invoke_interface(QUERY_INTERFACE, op, Value::map());
                report(reply.map(|txn| match op {
                    "begin" => format!("txn {} open", txn.as_int().unwrap_or_default()),
                    "commit" => "committed".to_string(),
                    _ => "rolled back".to_string(),
                }));
            }
            _ if line.starts_with(".explain ") => {
                let sql = &line[".explain ".len()..];
                match parse(sql) {
                    Ok(sbdms::data::ast::Statement::Select(s)) => {
                        match plan_select(&s, system.database().as_ref()) {
                            Ok(planned) => print!("{}", planned.plan.explain()),
                            Err(e) => println!("error: {e}"),
                        }
                    }
                    Ok(_) => println!("error: .explain takes a SELECT"),
                    Err(e) => println!("error: {e}"),
                }
            }
            _ if line.starts_with('.') => println!("unknown meta command {line}"),
            sql => match system.execute_sql(sql) {
                Ok(result) => print_result(&result),
                Err(e) => println!("error: {e}"),
            },
        }
    }
    system.checkpoint()?;
    println!("bye.");
    Ok(())
}

fn report(r: Result<String, sbdms::kernel::error::ServiceError>) {
    match r {
        Ok(msg) => println!("{msg}"),
        Err(e) => println!("error: {e}"),
    }
}

fn print_result(out: &Value) {
    let columns = out.get("columns").unwrap().as_list().unwrap();
    let rows = out.get("rows").unwrap().as_list().unwrap();
    let affected = out.get("affected").unwrap().as_int().unwrap();
    if columns.is_empty() {
        println!("ok ({affected} row(s) affected)");
        return;
    }
    let header: Vec<String> = columns
        .iter()
        .map(|c| c.as_str().unwrap_or("?").to_string())
        .collect();
    println!("{}", header.join(" | "));
    println!("{}", "-".repeat(header.join(" | ").len().max(4)));
    for row in rows {
        let cells: Vec<String> = row
            .as_list()
            .unwrap()
            .iter()
            .map(|v| match v {
                Value::Null => "NULL".into(),
                Value::Int(i) => i.to_string(),
                Value::Float(x) => format!("{x}"),
                Value::Str(s) => s.clone(),
                Value::Bool(b) => b.to_string(),
                other => format!("{other:?}"),
            })
            .collect();
        println!("{}", cells.join(" | "));
    }
    println!("({} row(s))", rows.len());
}
