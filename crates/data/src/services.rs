//! Data-layer service facade: the query service (paper Fig. 2 "Data
//! Services ... present the data in logical structures like tables or
//! views").

use std::sync::Arc;

use sbdms_kernel::contract::{Contract, Quality};
use sbdms_kernel::error::Result;
use sbdms_kernel::interface::{Interface, Operation, Param};
use sbdms_kernel::service::{unknown_op, Descriptor, Service, ServiceRef};
use sbdms_kernel::value::{TypeTag, Value};

use crate::executor::{Database, QueryResult};
use crate::session::Session;

/// Interface name of the query service.
pub const QUERY_INTERFACE: &str = "sbdms.data.Query";

/// The canonical query interface.
pub fn query_interface() -> Interface {
    Interface::new(
        QUERY_INTERFACE,
        1,
        vec![
            Operation::new(
                "execute",
                vec![Param::required("sql", TypeTag::Str)],
                TypeTag::Map,
            ),
            Operation::new("begin", vec![], TypeTag::Int),
            Operation::new("commit", vec![], TypeTag::Null),
            Operation::new("rollback", vec![], TypeTag::Null),
            Operation::new("checkpoint", vec![], TypeTag::Null),
            Operation::new("tables", vec![], TypeTag::List),
            Operation::new(
                "analyze",
                vec![Param::required("table", TypeTag::Str)],
                TypeTag::Null,
            ),
            Operation::new(
                "explain",
                vec![Param::required("sql", TypeTag::Str)],
                TypeTag::List,
            ),
        ],
    )
}

/// Render a query result into a service payload.
pub fn result_to_value(result: &QueryResult) -> Value {
    Value::map()
        .with(
            "columns",
            Value::List(result.columns.iter().map(|c| Value::Str(c.clone())).collect()),
        )
        .with(
            "rows",
            Value::List(
                result
                    .rows
                    .iter()
                    .map(|row| Value::List(row.iter().map(|d| d.to_value()).collect()))
                    .collect(),
            ),
        )
        .with("affected", result.affected)
}

/// The SQL engine published as a service. It owns one session, so the
/// `execute`, `begin`, `commit` and `rollback` operations of all its
/// callers share one transaction.
pub struct QueryService {
    descriptor: Descriptor,
    session: Session,
}

impl QueryService {
    /// Wrap a database. The contract publishes the query task, the
    /// profile's concurrency-control service, and the engine's quality.
    pub fn new(name: &str, db: Arc<Database>) -> QueryService {
        let quality = Quality {
            expected_latency_ns: 20_000,
            footprint_bytes: 512 * 1024,
            ..Quality::default()
        };
        let contract = Contract::for_interface(query_interface())
            .describe("SQL over tables and views", "data")
            .capability("task:query")
            .capability(&format!("cc:{}", db.concurrency()))
            .depends_on(sbdms_storage::services::BUFFER_INTERFACE)
            .quality(quality);
        QueryService {
            descriptor: Descriptor::new(name, contract),
            session: db.session(),
        }
    }

    /// Wrap into a shared handle.
    pub fn into_ref(self) -> ServiceRef {
        Arc::new(self)
    }

    /// The wrapped database.
    pub fn database(&self) -> &Arc<Database> {
        self.session.database()
    }
}

impl Service for QueryService {
    fn descriptor(&self) -> &Descriptor {
        &self.descriptor
    }

    fn invoke(&self, op: &str, input: Value) -> Result<Value> {
        let db = self.database();
        match op {
            "execute" => {
                let sql = input.require("sql")?.as_str()?;
                let result = self.session.execute(sql)?;
                Ok(result_to_value(&result))
            }
            "begin" => Ok(Value::Int(self.session.begin()? as i64)),
            "commit" => {
                self.session.commit()?;
                Ok(Value::Null)
            }
            "rollback" => {
                self.session.rollback()?;
                Ok(Value::Null)
            }
            "checkpoint" => {
                db.checkpoint()?;
                Ok(Value::Null)
            }
            "tables" => Ok(Value::List(
                db.catalog()
                    .table_names()
                    .into_iter()
                    .map(Value::Str)
                    .collect(),
            )),
            "analyze" => {
                let table = input.require("table")?.as_str()?;
                db.analyze(table)?;
                Ok(Value::Null)
            }
            "explain" => {
                // `sql` is the SELECT to explain; returns the annotated
                // plan as a list of text lines.
                let sql = input.require("sql")?.as_str()?;
                let result = self.session.execute(&format!("EXPLAIN {sql}"))?;
                Ok(Value::List(
                    result
                        .rows
                        .iter()
                        .filter_map(|row| row.first())
                        .map(|d| Value::Str(d.to_string()))
                        .collect(),
                ))
            }
            other => Err(unknown_op(&self.descriptor, other)),
        }
    }

    fn stop(&self) -> Result<()> {
        self.database().checkpoint()
    }
}
