//! Stored-procedure extension: named, parameterised SQL programs.
//!
//! Paper Fig. 2 lists "procedures" among the extension services. A
//! procedure is an ordered list of SQL statements with `$1..$n`
//! placeholders; calling it binds arguments (safely quoted), runs the
//! statements inside one transaction, and returns the last result.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use sbdms_access::record::Datum;
use sbdms_data::executor::{Database, QueryResult};
use sbdms_kernel::contract::{Contract, Quality};
use sbdms_kernel::error::{Result, ServiceError};
use sbdms_kernel::interface::{Interface, Operation, Param};
use sbdms_kernel::service::{unknown_op, Descriptor, Service, ServiceRef};
use sbdms_kernel::value::{TypeTag, Value};

fn err(msg: impl Into<String>) -> ServiceError {
    ServiceError::InvalidInput(format!("procedure: {}", msg.into()))
}

/// A registered procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct Procedure {
    /// Procedure name.
    pub name: String,
    /// SQL statements with `$1..$n` placeholders.
    pub statements: Vec<String>,
    /// Number of parameters.
    pub arity: usize,
}

/// Registry + executor for procedures over one database.
pub struct ProcedureEngine {
    db: Arc<Database>,
    procedures: Mutex<HashMap<String, Procedure>>,
}

impl ProcedureEngine {
    /// Create over a database.
    pub fn new(db: Arc<Database>) -> ProcedureEngine {
        ProcedureEngine {
            db,
            procedures: Mutex::new(HashMap::new()),
        }
    }

    /// Register a procedure. Arity is inferred from the highest `$n`.
    pub fn register(&self, name: &str, statements: Vec<String>) -> Result<()> {
        if statements.is_empty() {
            return Err(err("a procedure needs at least one statement"));
        }
        let arity = statements
            .iter()
            .map(|s| max_placeholder(s))
            .max()
            .unwrap_or(0);
        let mut procedures = self.procedures.lock();
        if procedures.contains_key(name) {
            return Err(err(format!("procedure `{name}` already exists")));
        }
        procedures.insert(
            name.to_string(),
            Procedure {
                name: name.to_string(),
                statements,
                arity,
            },
        );
        Ok(())
    }

    /// Look up a procedure.
    pub fn get(&self, name: &str) -> Option<Procedure> {
        self.procedures.lock().get(name).cloned()
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.procedures.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Remove a procedure.
    pub fn remove(&self, name: &str) -> Result<()> {
        self.procedures
            .lock()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| err(format!("no procedure `{name}`")))
    }

    /// Call a procedure: all statements run inside one transaction; any
    /// failure rolls the whole call back. Returns the last statement's
    /// result.
    pub fn call(&self, name: &str, args: &[Datum]) -> Result<QueryResult> {
        let procedure = self
            .get(name)
            .ok_or_else(|| err(format!("no procedure `{name}`")))?;
        if args.len() != procedure.arity {
            return Err(err(format!(
                "`{name}` expects {} argument(s), got {}",
                procedure.arity,
                args.len()
            )));
        }
        // A session of its own per call: concurrent calls run as
        // independent transactions under the profile's CC service, and
        // an early return drops the session, rolling the call back.
        let session = self.db.session();
        session.begin()?;
        let mut last = QueryResult::default();
        for template in &procedure.statements {
            last = session.execute(&substitute(template, args)?)?;
        }
        session.commit()?;
        Ok(last)
    }
}

/// Highest `$n` placeholder in a statement.
fn max_placeholder(sql: &str) -> usize {
    let bytes = sql.as_bytes();
    let mut max = 0;
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'$' {
            let mut j = i + 1;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            if j > i + 1 {
                if let Ok(n) = sql[i + 1..j].parse::<usize>() {
                    max = max.max(n);
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    max
}

/// Substitute `$n` placeholders with safely rendered literals.
fn substitute(template: &str, args: &[Datum]) -> Result<String> {
    let mut out = String::with_capacity(template.len() + 16);
    let bytes = template.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'$' {
            let mut j = i + 1;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            if j > i + 1 {
                let n: usize = template[i + 1..j].parse().map_err(|_| err("bad placeholder"))?;
                let arg = args
                    .get(n - 1)
                    .ok_or_else(|| err(format!("missing argument ${n}")))?;
                out.push_str(&render_literal(arg));
                i = j;
                continue;
            }
        }
        out.push(bytes[i] as char);
        i += 1;
    }
    Ok(out)
}

/// Render a datum as a SQL literal (strings quoted with `''` escaping).
fn render_literal(d: &Datum) -> String {
    match d {
        Datum::Null => "NULL".to_string(),
        Datum::Bool(b) => b.to_string(),
        Datum::Int(i) => i.to_string(),
        Datum::Float(x) => format!("{x:?}"),
        Datum::Str(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

/// Interface name of the procedure service.
pub const PROCEDURE_INTERFACE: &str = "sbdms.extension.Procedure";

/// The canonical procedure interface.
pub fn procedure_interface() -> Interface {
    Interface::new(
        PROCEDURE_INTERFACE,
        1,
        vec![
            Operation::new(
                "register",
                vec![
                    Param::required("name", TypeTag::Str),
                    Param::required("statements", TypeTag::List),
                ],
                TypeTag::Null,
            ),
            Operation::new(
                "call",
                vec![
                    Param::required("name", TypeTag::Str),
                    Param::optional("args", TypeTag::List),
                ],
                TypeTag::Map,
            ),
            Operation::new("list", vec![], TypeTag::List),
            Operation::new(
                "remove",
                vec![Param::required("name", TypeTag::Str)],
                TypeTag::Null,
            ),
        ],
    )
}

/// The procedure engine published as a service.
pub struct ProcedureService {
    descriptor: Descriptor,
    engine: ProcedureEngine,
}

impl ProcedureService {
    /// Wrap an engine.
    pub fn new(name: &str, engine: ProcedureEngine) -> ProcedureService {
        let contract = Contract::for_interface(procedure_interface())
            .describe("named, parameterised, transactional SQL programs", "extension")
            .capability("task:procedures")
            .depends_on(sbdms_data::services::QUERY_INTERFACE)
            .quality(Quality {
                expected_latency_ns: 100_000,
                footprint_bytes: 32 * 1024,
                ..Quality::default()
            });
        ProcedureService {
            descriptor: Descriptor::new(name, contract),
            engine,
        }
    }

    /// Wrap into a shared handle.
    pub fn into_ref(self) -> ServiceRef {
        Arc::new(self)
    }
}

impl Service for ProcedureService {
    fn descriptor(&self) -> &Descriptor {
        &self.descriptor
    }

    fn invoke(&self, op: &str, input: Value) -> Result<Value> {
        match op {
            "register" => {
                let name = input.require("name")?.as_str()?;
                let statements = input
                    .require("statements")?
                    .as_list()?
                    .iter()
                    .map(|v| v.as_str().map(str::to_string))
                    .collect::<Result<Vec<_>>>()?;
                self.engine.register(name, statements)?;
                Ok(Value::Null)
            }
            "call" => {
                let name = input.require("name")?.as_str()?;
                let args: Vec<Datum> = match input.get("args") {
                    Some(Value::List(items)) => items
                        .iter()
                        .map(Datum::from_value)
                        .collect::<Result<Vec<_>>>()?,
                    _ => Vec::new(),
                };
                let result = self.engine.call(name, &args)?;
                Ok(sbdms_data::services::result_to_value(&result))
            }
            "list" => Ok(Value::List(
                self.engine.names().into_iter().map(Value::Str).collect(),
            )),
            "remove" => {
                self.engine.remove(input.require("name")?.as_str()?)?;
                Ok(Value::Null)
            }
            other => Err(unknown_op(&self.descriptor, other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(name: &str) -> ProcedureEngine {
        engine_with(name, sbdms_data::DbOptions::default())
    }

    fn engine_with(name: &str, opts: sbdms_data::DbOptions) -> ProcedureEngine {
        let dir = std::env::temp_dir()
            .join("sbdms-proc-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::open_opts(&dir, opts).unwrap();
        let s = db.session();
        s.execute("CREATE TABLE accounts (id INT NOT NULL, balance INT NOT NULL)")
            .unwrap();
        s.execute("INSERT INTO accounts VALUES (1, 100), (2, 50)").unwrap();
        ProcedureEngine::new(db)
    }

    /// Each call runs in a session of its own: under MVCC, calls that
    /// overlap in time on distinct rows all commit.
    #[test]
    fn concurrent_calls_on_distinct_rows_all_succeed() {
        const THREADS: i64 = 4;
        const CALLS: i64 = 40;
        let opts = sbdms_data::DbOptions {
            concurrency: sbdms_data::ConcurrencyControl::Mvcc,
            ..Default::default()
        };
        let e = engine_with("concurrent", opts);
        let rows: Vec<String> = (10..10 + THREADS).map(|id| format!("({id}, 0)")).collect();
        e.db.session()
            .execute(&format!("INSERT INTO accounts VALUES {}", rows.join(", ")))
            .unwrap();
        e.register(
            "bump",
            vec![
                "UPDATE accounts SET balance = balance + 1 WHERE id = $1".into(),
                "SELECT COUNT(*) FROM accounts".into(),
                "UPDATE accounts SET balance = balance + 1 WHERE id = $1".into(),
            ],
        )
        .unwrap();
        // Every round starts all calls together, so they overlap.
        let round = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for id in 10..10 + THREADS {
                let (e, round) = (&e, &round);
                scope.spawn(move || {
                    for call in 0..CALLS {
                        round.wait();
                        e.call("bump", &[Datum::Int(id)])
                            .unwrap_or_else(|err| panic!("row {id}, call {call}: {err}"));
                    }
                });
            }
        });
        let r = e
            .db
            .session()
            .execute("SELECT balance FROM accounts WHERE id >= 10 ORDER BY id")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Datum::Int(2 * CALLS)]; THREADS as usize]);
    }

    #[test]
    fn register_and_call_transfer() {
        let e = engine("transfer");
        e.register(
            "transfer",
            vec![
                "UPDATE accounts SET balance = balance - $3 WHERE id = $1".into(),
                "UPDATE accounts SET balance = balance + $3 WHERE id = $2".into(),
                "SELECT balance FROM accounts ORDER BY id".into(),
            ],
        )
        .unwrap();
        let result = e
            .call("transfer", &[Datum::Int(1), Datum::Int(2), Datum::Int(30)])
            .unwrap();
        assert_eq!(result.rows[0][0], Datum::Int(70));
        assert_eq!(result.rows[1][0], Datum::Int(80));
    }

    #[test]
    fn failed_statement_rolls_back_whole_call() {
        let e = engine("atomic");
        e.register(
            "bad",
            vec![
                "UPDATE accounts SET balance = 0 WHERE id = 1".into(),
                "INSERT INTO nonexistent VALUES (1)".into(),
            ],
        )
        .unwrap();
        assert!(e.call("bad", &[]).is_err());
        // First statement's effect must be rolled back.
        let check = e.db.session().execute("SELECT balance FROM accounts WHERE id = 1").unwrap();
        assert_eq!(check.rows[0][0], Datum::Int(100));
    }

    #[test]
    fn arity_checked() {
        let e = engine("arity");
        e.register("p", vec!["SELECT $1 + $2".into()]).unwrap();
        assert_eq!(e.get("p").unwrap().arity, 2);
        assert!(e.call("p", &[Datum::Int(1)]).is_err());
        let r = e.call("p", &[Datum::Int(1), Datum::Int(2)]).unwrap();
        assert_eq!(r.rows[0][0], Datum::Int(3));
    }

    #[test]
    fn string_arguments_are_quoted_safely() {
        let e = engine("quoting");
        e.db.session().execute("CREATE TABLE notes (body TEXT)").unwrap();
        e.register("add_note", vec!["INSERT INTO notes VALUES ($1)".into()])
            .unwrap();
        // A classic injection attempt becomes a plain string.
        let evil = "x'); DELETE FROM accounts; --";
        e.call("add_note", &[Datum::Str(evil.into())]).unwrap();
        let r = e.db.session().execute("SELECT body FROM notes").unwrap();
        assert_eq!(r.rows[0][0], Datum::Str(evil.into()));
        let r = e.db.session().execute("SELECT COUNT(*) FROM accounts").unwrap();
        assert_eq!(r.rows[0][0], Datum::Int(2), "accounts untouched");
    }

    #[test]
    fn registry_operations() {
        let e = engine("registry");
        e.register("a", vec!["SELECT 1".into()]).unwrap();
        assert!(e.register("a", vec!["SELECT 2".into()]).is_err());
        assert!(e.register("empty", vec![]).is_err());
        assert_eq!(e.names(), vec!["a"]);
        e.remove("a").unwrap();
        assert!(e.remove("a").is_err());
        assert!(e.call("a", &[]).is_err());
    }

    #[test]
    fn null_and_float_literals() {
        let e = engine("literals");
        e.db.session().execute("CREATE TABLE vals (x FLOAT, note TEXT)").unwrap();
        e.register("put", vec!["INSERT INTO vals VALUES ($1, $2)".into()])
            .unwrap();
        e.call("put", &[Datum::Float(2.5), Datum::Null]).unwrap();
        let r = e.db.session().execute("SELECT x, note FROM vals").unwrap();
        assert_eq!(r.rows[0][0], Datum::Float(2.5));
        assert_eq!(r.rows[0][1], Datum::Null);
    }

    #[test]
    fn service_over_bus() {
        let bus = sbdms_kernel::bus::ServiceBus::new();
        let e = engine("bus");
        let id = bus.deploy(ProcedureService::new("proc", e).into_ref()).unwrap();
        bus.invoke(
            id,
            "register",
            Value::map().with("name", "sum").with(
                "statements",
                Value::List(vec![Value::Str("SELECT $1 + $2 AS total".into())]),
            ),
        )
        .unwrap();
        let out = bus
            .invoke(
                id,
                "call",
                Value::map()
                    .with("name", "sum")
                    .with("args", Value::List(vec![Value::Int(2), Value::Int(40)])),
            )
            .unwrap();
        let rows = out.get("rows").unwrap().as_list().unwrap();
        assert_eq!(rows[0].as_list().unwrap()[0], Value::Int(42));
        let names = bus.invoke(id, "list", Value::map()).unwrap();
        assert_eq!(names.as_list().unwrap().len(), 1);
    }
}
