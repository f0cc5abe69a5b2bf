//! Sessions and the per-session transaction state.
//!
//! A [`Session`] is one logical client of a [`Database`], and the only
//! way to run a statement: it owns at most one open transaction and the
//! per-statement knobs, and routes statements through the shared
//! engine. Every transaction, explicit or autocommit, is the same
//! [`TxnState`]: a write set buffered here, in the session, that reaches
//! the heap only through the commit apply and is simply dropped on
//! rollback. The profile's concurrency-control choice is a policy over
//! that one write path:
//!
//! * **single-writer** (embedded profile): a lock. An explicit
//!   transaction, and the read-then-apply span of an autocommit
//!   statement, hold the database's one writer slot; while another
//!   session holds it, every statement fails immediately with a
//!   recoverable `SerializationConflict` ("busy", in SQLite terms) —
//!   writers block readers, which is exactly the cheapness/concurrency
//!   trade the embedded profile makes. Reads see the committed heap with
//!   the transaction's own writes merged in.
//! * **MVCC** (full-fledged profile): the transaction also pins a
//!   snapshot from the kernel's [`sbdms_kernel::mvcc::Mvcc`] service.
//!   Readers run against their snapshot concurrently with open writers;
//!   write-write conflicts surface eagerly as `SerializationConflict`.
//!
//! The buffered write set is deterministic by construction (`BTreeMap`
//! keyed by [`RowKey`]), so the torture suites can replay identical
//! commit schedules crash after crash.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use sbdms_access::heap::Rid;
use sbdms_access::record::Tuple;
use sbdms_kernel::mvcc::MvccTxn;

use crate::executor::Database;
use crate::txn::TxnId;

/// The profile's concurrency-control service choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConcurrencyControl {
    /// One writer at a time: a lock over the shared buffered write
    /// path, no version bookkeeping. Cheapest; any other session is
    /// locked out while a transaction is open.
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

/// Identity of one row inside a write set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum RowKey {
    /// An existing heap row.
    Heap(Rid),
    /// A row this transaction inserted; numbered locally until commit
    /// assigns it a real rid.
    Local(u64),
}

/// One row's pending state inside a transaction.
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

/// Buffered state of one open transaction, in either CC mode.
pub(crate) struct TxnState {
    /// The WAL transaction id its commit record carries.
    pub id: TxnId,
    /// The kernel-side MVCC transaction: token + pinned snapshot.
    /// `None` under single-writer, where the committed heap is current.
    pub mvcc: Option<MvccTxn>,
    /// Next local row number for fresh inserts.
    pub next_local: u64,
    /// The write set, per table, in deterministic order.
    pub overlay: BTreeMap<String, OwnWrites>,
}

impl TxnState {
    pub fn new(id: TxnId, mvcc: Option<MvccTxn>) -> TxnState {
        TxnState {
            id,
            mvcc,
            next_local: 0,
            overlay: BTreeMap::new(),
        }
    }

    /// Rows buffered across all tables.
    pub fn buffered_rows(&self) -> usize {
        self.overlay.values().map(BTreeMap::len).sum()
    }
}

/// Shared per-session state: the open transaction plus the session's
/// statement knobs (deadline, memory cap, degraded-quality contract,
/// cancel token). [`Database::session`] hands one out per [`Session`];
/// a network server holds one per connection.
pub(crate) struct SessionCore {
    /// Session id, for the single-writer ownership check.
    pub id: u64,
    /// The open transaction.
    pub txn: Mutex<Option<TxnState>>,
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
/// under the profile's concurrency-control service. The statement
/// methods (`execute`, `begin`, `commit`, `rollback`, `prepare`) live
/// beside the engine they drive, in the executor.
///
/// Dropping a session rolls back its open transaction. The write set
/// never reached the heap, so that is an in-memory discard with no I/O:
/// an abandoned session still leaves the same durable state as a power
/// loss, and it releases its single-writer slot, MVCC write locks and
/// pinned snapshot.
pub struct Session {
    pub(crate) db: Arc<Database>,
    pub(crate) core: Arc<SessionCore>,
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.in_txn() {
            let _ = self.rollback();
        }
    }
}

impl Session {
    /// Whether this session has an open transaction.
    pub fn in_txn(&self) -> bool {
        self.core.txn.lock().is_some()
    }

    /// The database this session belongs to.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
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
