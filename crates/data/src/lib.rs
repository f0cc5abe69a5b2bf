//! # sbdms-data — the data layer of the Service-Based DBMS
//!
//! Paper Fig. 2, third layer: "Data Services present the data in logical
//! structures like tables or views."
//!
//! * [`schema`]: typed, named columns with validation,
//! * [`catalog`]: persistent metadata for tables, indexes and views,
//! * [`table`]: schema-checked row storage with index maintenance,
//! * [`ast`] / [`parser`]: a compact SQL dialect,
//! * [`stats`] / [`cost`]: ANALYZE statistics and the cost model,
//! * [`planner`]: name resolution, cost-based access-path, hash build
//!   side and join-order selection,
//! * [`plan_cache`]: generic plans per statement shape, each guarded by
//!   the parameter values it serves,
//! * [`executor`]: the [`executor::Database`] engine executing plans,
//! * [`session`]: sessions and the profile's concurrency-control choice
//!   (single-writer vs kernel MVCC snapshot isolation),
//! * [`txn`]: WAL-logged transactions (undo rollback + crash recovery),
//! * [`services`]: the query-service facade for the kernel bus.

#![warn(missing_docs)]

pub mod ast;
pub mod catalog;
pub mod cost;
pub mod executor;
pub mod parser;
pub mod plan_cache;
pub mod planner;
pub mod schema;
pub mod services;
pub mod session;
pub mod stats;
pub mod table;
pub mod txn;

pub use catalog::{Catalog, IndexMeta, TableMeta, ViewMeta};
pub use executor::{Database, DbOptions, QueryResult};
pub use session::{ConcurrencyControl, Session};
pub use parser::{lift_literals, parse, Lifted};
pub use plan_cache::{Binding, Guard, PlanCache, PlanCacheStats};
pub use cost::{Estimate, Estimator};
pub use planner::{plan_select, ParamRead, Plan, PlannedQuery, PlannerKnobs};
pub use stats::{ColumnStats, Histogram, TableStats};
pub use schema::{Column, ColumnType, Schema};
pub use services::QueryService;
pub use table::Table;
pub use txn::{Durability, TransactionManager, TxnId};
