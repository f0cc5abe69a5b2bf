//! Sessions and the per-session transaction state.
//!
//! A [`Session`] is one logical client of a [`Database`]: it owns at
//! most one open transaction and routes statements through the shared
//! engine. The profile's concurrency-control choice decides what an
//! open transaction *is*:
//!
//! * **single-writer** (embedded profile): the transaction is the
//!   WAL-undo transaction of [`crate::txn`], applied to the heap as it
//!   goes. While any session holds one open, every statement from any
//!   other session fails immediately with a recoverable
//!   `SerializationConflict` ("busy", in SQLite terms) — writers block
//!   readers, which is exactly the cheapness/concurrency trade the
//!   embedded profile makes.
//! * **MVCC** (full-fledged profile): the transaction pins a snapshot
//!   from the kernel's [`sbdms_kernel::mvcc::Mvcc`] service and buffers
//!   its writes here, in the session, never touching the heap until
//!   commit. Readers run against their snapshot concurrently with open
//!   writers; write-write conflicts surface eagerly as
//!   `SerializationConflict`.
//!
//! The buffered MVCC write set is deterministic by construction
//! (`BTreeMap` keyed by [`RowKey`]), so the concurrent torture suite can
//! replay identical commit schedules crash after crash.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use sbdms_access::heap::Rid;
use sbdms_access::record::Tuple;
use sbdms_kernel::error::Result;
use sbdms_kernel::mvcc::MvccTxn;

use crate::executor::{Database, QueryResult};
use crate::txn::TxnId;

/// The profile's concurrency-control service choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConcurrencyControl {
    /// One writer at a time, WAL-undo, applied in place. Cheapest; any
    /// other session is locked out while a transaction is open.
    #[default]
    SingleWriter,
    /// Snapshot isolation through the kernel MVCC service: concurrent
    /// readers and writers, first-committer-wins conflicts.
    Mvcc,
}

impl std::fmt::Display for ConcurrencyControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConcurrencyControl::SingleWriter => write!(f, "single-writer"),
            ConcurrencyControl::Mvcc => write!(f, "mvcc"),
        }
    }
}

/// Identity of one row inside an MVCC write set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum RowKey {
    /// An existing heap row.
    Heap(Rid),
    /// A row this transaction inserted; numbered locally until commit
    /// assigns it a real rid.
    Local(u64),
}

/// One row's pending state inside an MVCC transaction.
#[derive(Debug, Clone)]
pub(crate) enum OwnWrite {
    /// An existing heap row this transaction rewrote. `old` is the
    /// committed image the lock was taken against; `new` is the pending
    /// image (`None` once deleted).
    Heap { old: Tuple, new: Option<Tuple> },
    /// A row inserted by this transaction (current pending image).
    Local(Tuple),
}

/// One transaction's pending writes to one table, in row-key order.
pub(crate) type OwnWrites = BTreeMap<RowKey, OwnWrite>;

/// Buffered state of one open MVCC transaction.
pub(crate) struct MvccTxnState {
    /// The kernel-side transaction: token + pinned snapshot.
    pub txn: MvccTxn,
    /// Next local row number for fresh inserts.
    pub next_local: u64,
    /// The write set, per table, in deterministic order.
    pub overlay: BTreeMap<String, OwnWrites>,
}

impl MvccTxnState {
    pub fn new(txn: MvccTxn) -> MvccTxnState {
        MvccTxnState {
            txn,
            next_local: 0,
            overlay: BTreeMap::new(),
        }
    }

    /// Rows buffered across all tables (for governor accounting tests).
    pub fn buffered_rows(&self) -> usize {
        self.overlay.values().map(BTreeMap::len).sum()
    }
}

/// The session's open transaction, if any.
pub(crate) enum ActiveTxn {
    /// A WAL-undo transaction applied in place (single-writer mode).
    Single(TxnId),
    /// A buffered snapshot transaction (MVCC mode).
    Mvcc(MvccTxnState),
}

/// Shared per-session state: the open transaction plus the session's
/// statement knobs (deadline, memory cap, degraded-quality contract,
/// cancel token). The `Database` holds one default session (serving its
/// session-free legacy API) and hands out more via [`Database::session`];
/// a network server holds one per connection.
pub(crate) struct SessionCore {
    /// Session id, for the single-writer ownership check.
    pub id: u64,
    /// The open transaction.
    pub txn: Mutex<Option<ActiveTxn>>,
    /// Deadline applied to each statement, in milliseconds.
    pub deadline_ms: Mutex<Option<u64>>,
    /// Per-statement operator memory limit, in bytes.
    pub memory_limit: Mutex<Option<u64>>,
    /// Whether this session's contract accepts degraded quality under
    /// overload (cheaper plan instead of shedding).
    pub allow_degraded: std::sync::atomic::AtomicBool,
    /// Cancel-token override: when set, every statement runs under this
    /// token (deterministic cancellation injection).
    pub cancel: Mutex<Option<sbdms_kernel::governor::CancelToken>>,
}

impl SessionCore {
    pub fn new(id: u64) -> Arc<SessionCore> {
        Arc::new(SessionCore {
            id,
            txn: Mutex::new(None),
            deadline_ms: Mutex::new(None),
            memory_limit: Mutex::new(None),
            allow_degraded: std::sync::atomic::AtomicBool::new(false),
            cancel: Mutex::new(None),
        })
    }
}

/// One logical client connection to a [`Database`]. The handle *owns*
/// its database reference (`Arc`), so it is `Send + 'static`: a server
/// can hold thousands of sessions with independent lifetimes, park them
/// on connection threads, and drop them in any order relative to each
/// other. Cheap to create. Statements from different sessions interleave
/// under the profile's concurrency-control service.
///
/// Dropping a session does *not* roll back an open transaction — the
/// crash-torture suite depends on abandoned sessions leaving the same
/// state as a power loss. Callers that own a connection lifecycle (the
/// TCP server) roll back explicitly on teardown.
pub struct Session {
    pub(crate) db: Arc<Database>,
    pub(crate) core: Arc<SessionCore>,
}

impl Session {
    /// Execute one SQL statement in this session.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.db.execute_on(&self.core, sql)
    }

    /// Begin an explicit transaction (one per session).
    pub fn begin(&self) -> Result<TxnId> {
        self.db.begin_on(&self.core)
    }

    /// Commit the open transaction. Under MVCC this is where buffered
    /// writes reach the heap (and the WAL, via group commit).
    pub fn commit(&self) -> Result<()> {
        self.db.commit_on(&self.core)
    }

    /// Roll back the open transaction.
    pub fn rollback(&self) -> Result<()> {
        self.db.rollback_on(&self.core)
    }

    /// Whether this session has an open transaction.
    pub fn in_txn(&self) -> bool {
        self.core.txn.lock().is_some()
    }

    /// The database this session belongs to.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Parse and plan `sql` without executing it, warming the shared
    /// per-database plan cache, and return the statement's result
    /// columns — the server side of a wire-protocol `prepare`.
    pub fn prepare(&self, sql: &str) -> Result<Vec<String>> {
        self.db.prepare(sql)
    }

    /// Apply a deadline to each subsequent statement (`None` clears).
    pub fn set_statement_deadline_ms(&self, ms: Option<u64>) {
        *self.core.deadline_ms.lock() = ms;
    }

    /// Cap each subsequent statement's operator memory (`None` clears).
    pub fn set_statement_memory_limit(&self, bytes: Option<u64>) {
        *self.core.memory_limit.lock() = bytes;
    }

    /// Declare whether this session's contract accepts degraded quality
    /// under overload.
    pub fn set_allow_degraded(&self, on: bool) {
        self.core
            .allow_degraded
            .store(on, std::sync::atomic::Ordering::Relaxed);
    }

    /// Run every subsequent statement under `token` (`None` restores
    /// per-statement tokens).
    pub fn set_cancel_token(&self, token: Option<sbdms_kernel::governor::CancelToken>) {
        *self.core.cancel.lock() = token;
    }
}

/// Encode a rid as the opaque `u64` row key the kernel MVCC service
/// tracks. Slots are 16-bit, so `(page << 16) | slot` is collision-free.
pub(crate) fn rid_key(rid: Rid) -> u64 {
    (rid.page << 16) | rid.slot as u64
}

/// Reverse of [`rid_key`].
pub(crate) fn key_rid(key: u64) -> Rid {
    Rid {
        page: key >> 16,
        slot: (key & 0xFFFF) as u16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rid_key_roundtrip() {
        for (page, slot) in [(0u64, 0u16), (1, 5), (1 << 40, u16::MAX)] {
            let rid = Rid { page, slot };
            assert_eq!(key_rid(rid_key(rid)), rid);
        }
    }

    #[test]
    fn row_keys_order_heap_before_local() {
        let heap = RowKey::Heap(Rid { page: 9, slot: 9 });
        let local = RowKey::Local(0);
        assert!(heap < local);
    }
}
