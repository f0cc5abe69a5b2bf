//! Execution operators over columnar batch streams.
//!
//! Paper §3.1: the access layer is "responsible for higher level
//! operations, such as joins, selections, and sorting of record sets".
//! One engine, [`VectorEngine`], builds every operator as a pull-based
//! iterator over [`BatchStream`]; its rows-per-batch parameter is what
//! the profiles select. A batch holds one typed [`Column`] per field.

pub mod aggregate;
pub mod batch;
pub mod column;
pub mod engine;
pub mod expr;
pub mod join;
mod vhash;

/// How many rows an operator processes between cooperative
/// cancellation checks — one "scheduling quantum" of the governor.
pub const CANCEL_QUANTUM: usize = 256;

pub use aggregate::{AggFunc, AggSpec};
pub use batch::{hash_join_phases, Batch, BatchStream, BATCH_ROWS};
pub use column::{Column, ColumnKind};
pub use engine::VectorEngine;
/// The name `perfbench/src/replay.rs` imports the engine under; that
/// file is the only reason this alias exists.
pub use engine::VectorEngine as Engine;
pub use expr::{BinOp, Expr, UnaryOp};
pub use join::BuildSide;
pub use sbdms_kernel::governor::ExecContext;
