//! Replication extension: statement-based primary/replica replication
//! with promotion.
//!
//! Paper Fig. 2 lists "replication" among the extension services, and §4
//! motivates it: "if a storage service exhibits reduced performance ...
//! our architecture can use or adapt an alternative storage service to
//! prevent system failures." Writes execute on the primary and are
//! forwarded (statement-based) to every replica; reads can be served by a
//! replica; `promote` turns a replica into the new primary after the
//! primary fails.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use sbdms_data::executor::{Database, QueryResult};
use sbdms_data::session::Session;
use sbdms_kernel::contract::{Contract, Quality};
use sbdms_kernel::error::{Result, ServiceError};
use sbdms_kernel::interface::{Interface, Operation, Param};
use sbdms_kernel::service::{unknown_op, Descriptor, Service, ServiceRef};
use sbdms_kernel::value::{TypeTag, Value};

fn err(msg: impl Into<String>) -> ServiceError {
    ServiceError::Internal(format!("replication: {}", msg.into()))
}

/// A replicated database group: one primary, N replicas, each reached
/// through one session.
pub struct ReplicationGroup {
    nodes: Vec<Session>,
    primary: AtomicUsize,
    /// Statements applied on the primary since creation.
    applied: AtomicU64,
    /// Statement forwards that failed on some replica (divergence signal).
    forward_failures: AtomicU64,
}

impl ReplicationGroup {
    /// Build a group; `nodes[0]` starts as primary.
    pub fn new(nodes: Vec<Arc<Database>>) -> Result<ReplicationGroup> {
        if nodes.is_empty() {
            return Err(err("a replication group needs at least one node"));
        }
        Ok(ReplicationGroup {
            nodes: nodes.iter().map(Database::session).collect(),
            primary: AtomicUsize::new(0),
            applied: AtomicU64::new(0),
            forward_failures: AtomicU64::new(0),
        })
    }

    /// Index of the current primary.
    pub fn primary_index(&self) -> usize {
        self.primary.load(Ordering::SeqCst)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Execute a statement on the primary and forward it to replicas.
    /// SELECTs are not forwarded (they have no effects).
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        let primary = self.primary_index();
        let result = self.nodes[primary].execute(sql)?;
        self.applied.fetch_add(1, Ordering::Relaxed);
        let is_select = sql.trim_start().to_ascii_lowercase().starts_with("select");
        if !is_select {
            for (i, node) in self.nodes.iter().enumerate() {
                if i == primary {
                    continue;
                }
                if node.execute(sql).is_err() {
                    self.forward_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(result)
    }

    /// Serve a read from a replica (round-robin over non-primary nodes;
    /// falls back to the primary when there is no replica).
    pub fn read(&self, sql: &str) -> Result<QueryResult> {
        let primary = self.primary_index();
        let replica = self
            .nodes
            .iter()
            .enumerate()
            .find(|(i, _)| *i != primary)
            .map_or(&self.nodes[primary], |(_, n)| n);
        replica.execute(sql)
    }

    /// Promote node `index` to primary (after the old primary failed).
    pub fn promote(&self, index: usize) -> Result<()> {
        if index >= self.node_count() {
            return Err(err(format!("no node {index}")));
        }
        self.primary.store(index, Ordering::SeqCst);
        Ok(())
    }

    /// (applied statements, forward failures).
    pub fn stats(&self) -> (u64, u64) {
        (
            self.applied.load(Ordering::Relaxed),
            self.forward_failures.load(Ordering::Relaxed),
        )
    }
}

/// Interface name of the replication service.
pub const REPLICATION_INTERFACE: &str = "sbdms.extension.Replication";

/// The canonical replication interface.
pub fn replication_interface() -> Interface {
    Interface::new(
        REPLICATION_INTERFACE,
        1,
        vec![
            Operation::new(
                "execute",
                vec![Param::required("sql", TypeTag::Str)],
                TypeTag::Map,
            ),
            Operation::new(
                "read",
                vec![Param::required("sql", TypeTag::Str)],
                TypeTag::Map,
            ),
            Operation::new(
                "promote",
                vec![Param::required("node", TypeTag::Int)],
                TypeTag::Null,
            ),
            Operation::new("status", vec![], TypeTag::Map),
        ],
    )
}

/// A replication group published as a service.
pub struct ReplicationService {
    descriptor: Descriptor,
    group: Arc<ReplicationGroup>,
}

impl ReplicationService {
    /// Wrap a group.
    pub fn new(name: &str, group: Arc<ReplicationGroup>) -> ReplicationService {
        let contract = Contract::for_interface(replication_interface())
            .describe("statement-based primary/replica replication", "extension")
            .capability("task:replication")
            .depends_on(sbdms_data::services::QUERY_INTERFACE)
            .quality(Quality {
                expected_latency_ns: 120_000,
                footprint_bytes: 128 * 1024,
                ..Quality::default()
            });
        ReplicationService {
            descriptor: Descriptor::new(name, contract),
            group,
        }
    }

    /// Wrap into a shared handle.
    pub fn into_ref(self) -> ServiceRef {
        Arc::new(self)
    }
}

impl Service for ReplicationService {
    fn descriptor(&self) -> &Descriptor {
        &self.descriptor
    }

    fn invoke(&self, op: &str, input: Value) -> Result<Value> {
        match op {
            "execute" => {
                let result = self.group.execute(input.require("sql")?.as_str()?)?;
                Ok(sbdms_data::services::result_to_value(&result))
            }
            "read" => {
                let result = self.group.read(input.require("sql")?.as_str()?)?;
                Ok(sbdms_data::services::result_to_value(&result))
            }
            "promote" => {
                self.group.promote(input.require("node")?.as_u64()? as usize)?;
                Ok(Value::Null)
            }
            "status" => {
                let (applied, failures) = self.group.stats();
                Ok(Value::map()
                    .with("primary", self.group.primary_index())
                    .with("nodes", self.group.node_count())
                    .with("applied", applied)
                    .with("forward_failures", failures))
            }
            other => Err(unknown_op(&self.descriptor, other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbdms_access::record::Datum;

    fn group(name: &str, nodes: usize) -> Arc<ReplicationGroup> {
        let base = std::env::temp_dir()
            .join("sbdms-repl-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let dbs = (0..nodes)
            .map(|i| Database::open(base.join(format!("node{i}"))).unwrap())
            .collect();
        Arc::new(ReplicationGroup::new(dbs).unwrap())
    }

    #[test]
    fn writes_replicate_to_all_nodes() {
        let g = group("writes", 3);
        g.execute("CREATE TABLE t (x INT)").unwrap();
        g.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        // Read from a replica sees the data.
        let r = g.read("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Datum::Int(3));
        let (applied, failures) = g.stats();
        assert_eq!(applied, 2);
        assert_eq!(failures, 0);
    }

    #[test]
    fn selects_are_not_forwarded() {
        let g = group("selects", 2);
        g.execute("CREATE TABLE t (x INT)").unwrap();
        g.execute("SELECT COUNT(*) FROM t").unwrap();
        let (applied, failures) = g.stats();
        assert_eq!(applied, 2);
        assert_eq!(failures, 0);
    }

    #[test]
    fn promote_switches_primary() {
        let g = group("promote", 2);
        g.execute("CREATE TABLE t (x INT)").unwrap();
        g.execute("INSERT INTO t VALUES (7)").unwrap();
        // "Fail" the primary by promoting the replica; all traffic now
        // runs against node 1, which has the replicated data.
        g.promote(1).unwrap();
        assert_eq!(g.primary_index(), 1);
        let r = g.execute("SELECT x FROM t").unwrap();
        assert_eq!(r.rows[0][0], Datum::Int(7));
        g.execute("INSERT INTO t VALUES (8)").unwrap();
        let r = g.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Datum::Int(2));
        assert!(g.promote(9).is_err());
    }

    #[test]
    fn single_node_group_reads_from_primary() {
        let g = group("single", 1);
        g.execute("CREATE TABLE t (x INT)").unwrap();
        g.execute("INSERT INTO t VALUES (1)").unwrap();
        let r = g.read("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Datum::Int(1));
    }

    #[test]
    fn empty_group_rejected() {
        assert!(ReplicationGroup::new(vec![]).is_err());
    }

    #[test]
    fn service_over_bus() {
        let bus = sbdms_kernel::bus::ServiceBus::new();
        let g = group("bus", 2);
        let id = bus
            .deploy(ReplicationService::new("repl", g).into_ref())
            .unwrap();
        bus.invoke(id, "execute", Value::map().with("sql", "CREATE TABLE t (x INT)"))
            .unwrap();
        bus.invoke(id, "execute", Value::map().with("sql", "INSERT INTO t VALUES (5)"))
            .unwrap();
        let out = bus
            .invoke(id, "read", Value::map().with("sql", "SELECT x FROM t"))
            .unwrap();
        let rows = out.get("rows").unwrap().as_list().unwrap();
        assert_eq!(rows[0].as_list().unwrap()[0], Value::Int(5));

        let status = bus.invoke(id, "status", Value::map()).unwrap();
        assert_eq!(status.get("nodes").unwrap().as_int().unwrap(), 2);
        assert_eq!(status.get("primary").unwrap().as_int().unwrap(), 0);
        bus.invoke(id, "promote", Value::map().with("node", 1i64)).unwrap();
        let status = bus.invoke(id, "status", Value::map()).unwrap();
        assert_eq!(status.get("primary").unwrap().as_int().unwrap(), 1);
    }
}
