//! Transactions: WAL-logged atomicity for the one commit apply, with
//! crash recovery as the only undo.
//!
//! Every write reaches the heap through one place: a session's
//! buffered write set applied at commit (`Database::commit_txn`). The
//! apply is steal/undo: dirty pages may reach disk before the commit
//! record, so each row change logs its undo information to the WAL first
//! ([`TransactionManager::record`]). A live rollback never needs the
//! log — the write set never touched the heap, so discarding it is the
//! whole undo. Crash recovery undoes the one apply a power loss can
//! interrupt, from its logged records. Durability is configurable:
//!
//! * [`Durability::Full`] — commit syncs the WAL and force-flushes pages
//!   (no redo needed, committed data survives a crash).
//! * [`Durability::Relaxed`] — commit only appends to the WAL buffer;
//!   atomicity is preserved but a crash may lose recent commits (the
//!   classic `synchronous=off` trade).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use sbdms_access::heap::Rid;
use sbdms_access::record::Tuple;
use sbdms_kernel::error::{Result, ServiceError};
use sbdms_storage::buffer::BufferPool;
use sbdms_storage::wal::{Lsn, Wal};

use crate::table::Table;

/// Transaction identifier.
pub type TxnId = u64;

/// WAL record kind: an undo-logged data change (JSON payload).
pub const KIND_DATA: u8 = 1;
/// WAL record kind: transaction commit (payload: `TxnId` LE bytes).
pub const KIND_COMMIT: u8 = 2;
/// WAL record kind: transaction abort (payload: `TxnId` LE bytes).
pub const KIND_ABORT: u8 = 3;

/// Durability level at commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Sync WAL + force-flush pages at every commit.
    Full,
    /// Buffered commit; atomic but a crash may lose recent commits.
    Relaxed,
}

/// One logged, undoable change.
///
/// Undo is *value-based* (logical): records carry row images, not rids.
/// Rids are unsafe as undo anchors because slot recycling lets a
/// delete-undo reinsertion land in the slot a later (in reverse order)
/// insert-undo would delete — value-based application preserves the
/// table's multiset of rows regardless of physical placement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum UndoOp {
    /// A row was inserted; undo deletes one row equal to it.
    Insert {
        /// Table name.
        table: String,
        /// Binary-encoded inserted tuple.
        row: Vec<u8>,
    },
    /// A row was deleted; undo re-inserts it.
    Delete {
        /// Table name.
        table: String,
        /// Binary-encoded old tuple.
        old: Vec<u8>,
    },
    /// A row was updated; undo restores the old image over one row equal
    /// to the new image.
    Update {
        /// Table name.
        table: String,
        /// Binary-encoded old tuple.
        old: Vec<u8>,
        /// Binary-encoded new tuple.
        new: Vec<u8>,
    },
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct LogPayload {
    txn: TxnId,
    op: UndoOp,
}

/// Resolves table names to live handles during crash recovery.
pub trait TableResolver {
    /// Open a table by name.
    fn resolve(&self, name: &str) -> Result<Table>;
}

/// The transaction manager.
pub struct TransactionManager {
    wal: Arc<Wal>,
    buffer: Arc<BufferPool>,
    next_txn: AtomicU64,
    /// Transactions with logged changes and no commit or abort record
    /// yet: what crash recovery would undo.
    active: Mutex<HashSet<TxnId>>,
    durability: Mutex<Durability>,
    /// Group-commit window: how long a commit leader holds the WAL
    /// barrier open for concurrent committers to pile on. Zero keeps
    /// the classic one-sync-per-commit behaviour (and deterministic
    /// single-threaded schedules).
    commit_window: Mutex<std::time::Duration>,
}

impl TransactionManager {
    /// Create a manager over a WAL and buffer pool.
    pub fn new(wal: Arc<Wal>, buffer: Arc<BufferPool>) -> TransactionManager {
        TransactionManager {
            wal,
            buffer,
            next_txn: AtomicU64::new(1),
            active: Mutex::new(HashSet::new()),
            durability: Mutex::new(Durability::Relaxed),
            commit_window: Mutex::new(std::time::Duration::ZERO),
        }
    }

    /// Set the commit durability level.
    pub fn set_durability(&self, d: Durability) {
        *self.durability.lock() = d;
    }

    /// Current durability level.
    pub fn durability(&self) -> Durability {
        *self.durability.lock()
    }

    /// Set the group-commit window (see [`Wal::sync_coalesced`]).
    pub fn set_commit_window(&self, window: std::time::Duration) {
        *self.commit_window.lock() = window;
    }

    /// Begin a transaction: allocate its id. It becomes active with its
    /// first logged change.
    pub fn begin(&self) -> TxnId {
        self.next_txn.fetch_add(1, Ordering::SeqCst)
    }

    /// Record a change made by `txn`: logs the undo information to the
    /// WAL *before* the caller's page changes can be flushed (the heap
    /// mutation already happened in memory; what matters is that the log
    /// record precedes any flush, which the force-at-commit/steal policy
    /// guarantees because flushes happen under commit or eviction after
    /// this append).
    pub fn record(&self, txn: TxnId, op: UndoOp) -> Result<()> {
        let payload = serde_json::to_vec(&LogPayload { txn, op })
            .map_err(|e| ServiceError::Internal(format!("log encode: {e}")))?;
        self.wal.append(KIND_DATA, &payload)?;
        self.active.lock().insert(txn);
        Ok(())
    }

    /// Commit: append the commit record and apply the durability policy.
    ///
    /// Under [`Durability::Full`] the order is force-then-commit: all
    /// dirty pages are flushed *first* (each write-back syncs the undo
    /// records ahead of it via the buffer pool's write hook), then the
    /// commit record is appended and the WAL synced. The commit-record
    /// sync is the single durability point: a crash anywhere before it
    /// leaves no commit record, and recovery rolls the transaction back
    /// from its durable undo records. On error the transaction stays
    /// active, so the caller may still abort it.
    pub fn commit(&self, txn: TxnId) -> Result<()> {
        let barrier = self.commit_publish(txn)?;
        self.commit_sync(barrier)
    }

    /// First half of a commit: flush data pages (force-then-commit) and
    /// append the commit record, returning the durability barrier the
    /// second half must reach (`None` under relaxed durability). Split
    /// from [`TransactionManager::commit_sync`] so the commit apply can
    /// publish MVCC visibility before waiting on the (group) fsync —
    /// keeping the apply latch out of the sync window.
    pub(crate) fn commit_publish(&self, txn: TxnId) -> Result<Option<Lsn>> {
        let barrier = if self.durability() == Durability::Full {
            self.buffer.flush_all()?;
            self.wal.append(KIND_COMMIT, &txn.to_le_bytes())?;
            Some(self.wal.next_lsn())
        } else {
            self.wal.append(KIND_COMMIT, &txn.to_le_bytes())?;
            None
        };
        self.active.lock().remove(&txn);
        Ok(barrier)
    }

    /// Second half of a commit: wait until the WAL is durable up to the
    /// barrier. Group commit: one leader's sync can cover many
    /// committers' records (see [`Wal::sync_coalesced`]).
    pub(crate) fn commit_sync(&self, barrier: Option<Lsn>) -> Result<()> {
        match barrier {
            Some(upto) => self.wal.sync_coalesced(upto, *self.commit_window.lock()),
            None => Ok(()),
        }
    }

    /// Close `txn` without committing: append its abort record, so
    /// recovery leaves its logged changes alone. The caller has already
    /// put the heap back.
    pub(crate) fn abort(&self, txn: TxnId) -> Result<()> {
        self.wal.append(KIND_ABORT, &txn.to_le_bytes())?;
        self.active.lock().remove(&txn);
        Ok(())
    }

    /// Crash recovery: scan the WAL, find transactions with data records
    /// but no commit/abort, and undo them in reverse order. Returns the
    /// ids of the rolled-back transactions. Call once at open, before any
    /// new transaction starts.
    ///
    /// The log streams through one chunk-sized buffer
    /// ([`Wal::for_each_record`]), so recovery holds only the undo ops
    /// of transactions still open at the current point of the scan,
    /// never the whole log.
    pub fn recover(&self, resolver: &dyn TableResolver) -> Result<Vec<TxnId>> {
        let mut pending: HashMap<TxnId, Vec<UndoOp>> = HashMap::new();
        let mut max_txn = 0;
        self.wal.for_each_record(|_, kind, payload| {
            match kind {
                KIND_DATA => {
                    let payload: LogPayload = serde_json::from_slice(payload)
                        .map_err(|e| ServiceError::Storage(format!("corrupt log: {e}")))?;
                    max_txn = max_txn.max(payload.txn);
                    pending.entry(payload.txn).or_default().push(payload.op);
                }
                KIND_COMMIT | KIND_ABORT if payload.len() == 8 => {
                    let txn = u64::from_le_bytes(payload.try_into().unwrap());
                    max_txn = max_txn.max(txn);
                    pending.remove(&txn);
                }
                _ => {}
            }
            Ok(())
        })?;
        let mut rolled_back: Vec<TxnId> = pending.keys().copied().collect();
        rolled_back.sort_unstable();
        // Undo in reverse txn order. After a crash any suffix of the
        // logged page effects may be missing from disk, so each row's
        // undo applies only where its effect actually persisted.
        for txn in rolled_back.iter().rev() {
            apply_undo_recovery(&pending[txn], resolver)?;
        }
        self.next_txn.store(max_txn + 1, Ordering::SeqCst);
        // Checkpoint: recovered state is the new baseline.
        self.buffer.flush_all()?;
        self.wal.reset()?;
        Ok(rolled_back)
    }

    /// Checkpoint: flush all pages and truncate the log. Only valid with
    /// no active transactions.
    pub fn checkpoint(&self) -> Result<()> {
        if !self.active.lock().is_empty() {
            return Err(ServiceError::Transaction(
                "cannot checkpoint with active transactions".into(),
            ));
        }
        self.buffer.flush_all()?;
        self.wal.sync()?;
        self.wal.reset()
    }
}

/// One logical row's history inside a single transaction: the image
/// the transaction found (`pre`, `None` for a fresh insert) and every
/// image it put in the row's heap slot along the way.
struct UndoChain {
    table: String,
    pre: Option<Vec<u8>>,
    /// The latest image (`None` once the chain ends in a delete); used
    /// only while composing, to link the next op onto this chain.
    cur: Option<Vec<u8>>,
    images: Vec<Vec<u8>>,
}

/// Crash recovery: undo per row *chain*, not per op.
///
/// After a power loss, any prefix of a transaction's effects on one
/// row may have persisted — the durable heap shows exactly one image
/// of the chain (or none), because a chain occupies a single heap slot
/// and page writes are atomic. Per-op reverse undo mis-infers here:
/// seeing `update a→b; delete b` with neither persisted, a lenient
/// delete-undo would re-insert `b` ("it is absent, so the delete must
/// have stuck") and the update-undo would then turn it into a second
/// copy of `a`. Composing each chain first and restoring its pre-image
/// over whichever image actually survived is immune to that.
fn apply_undo_recovery(undo: &[UndoOp], resolver: &dyn TableResolver) -> Result<()> {
    // Compose ops (forward order) into per-row chains. Linking is by
    // exact image bytes: an op whose `old` matches a live chain's
    // latest image continues that chain, anything else starts one.
    let mut chains: Vec<UndoChain> = Vec::new();
    fn link(chains: &mut [UndoChain], table: &str, old: &[u8]) -> Option<usize> {
        chains
            .iter()
            .rposition(|c| c.table == table && c.cur.as_deref() == Some(old))
    }
    for op in undo {
        match op {
            UndoOp::Insert { table, row } => chains.push(UndoChain {
                table: table.clone(),
                pre: None,
                cur: Some(row.clone()),
                images: vec![row.clone()],
            }),
            UndoOp::Update { table, old, new } => match link(&mut chains, table, old) {
                Some(i) => {
                    chains[i].cur = Some(new.clone());
                    chains[i].images.push(new.clone());
                }
                None => chains.push(UndoChain {
                    table: table.clone(),
                    pre: Some(old.clone()),
                    cur: Some(new.clone()),
                    images: vec![old.clone(), new.clone()],
                }),
            },
            UndoOp::Delete { table, old } => match link(&mut chains, table, old) {
                Some(i) => chains[i].cur = None,
                None => chains.push(UndoChain {
                    table: table.clone(),
                    pre: Some(old.clone()),
                    cur: None,
                    images: vec![old.clone()],
                }),
            },
        }
    }
    // Undo each chain: locate whichever of its images persisted and
    // put the pre-image back in its place.
    for chain in chains.iter().rev() {
        let t = resolver.resolve(&chain.table)?;
        let images: Vec<Tuple> = chain
            .images
            .iter()
            .map(|b| sbdms_access::record::decode_tuple(b))
            .collect::<Result<_>>()?;
        let mut found: Option<(Rid, Tuple)> = None;
        for (rid, row) in t.scan()? {
            if images.contains(&row) {
                found = Some((rid, row));
                break;
            }
        }
        let pre: Option<Tuple> = chain
            .pre
            .as_ref()
            .map(|b| sbdms_access::record::decode_tuple(b))
            .transpose()?;
        match (pre, found) {
            // Some mid-chain image stuck: restore the pre-image over it.
            (Some(pre), Some((rid, row))) => {
                if row != pre {
                    t.update(rid, pre)?;
                }
            }
            // The row vanished (its delete persisted, or the slot's
            // page never made it): put the pre-image back.
            (Some(pre), None) => {
                t.insert(pre)?;
            }
            // Fresh insert whose image stuck: remove it.
            (None, Some((rid, _))) => {
                t.delete(rid)?;
            }
            // Fresh insert that never persisted: nothing to undo.
            (None, None) => {}
        }
    }
    Ok(())
}

/// Helpers to build undo ops from table mutations.
impl UndoOp {
    /// Undo record for an insert.
    pub fn insert(table: &str, row: &Tuple) -> UndoOp {
        UndoOp::Insert {
            table: table.to_string(),
            row: sbdms_access::record::encode_tuple(row),
        }
    }

    /// Undo record for a delete.
    pub fn delete(table: &str, old: &Tuple) -> UndoOp {
        UndoOp::Delete {
            table: table.to_string(),
            old: sbdms_access::record::encode_tuple(old),
        }
    }

    /// Undo record for an update.
    pub fn update(table: &str, old: &Tuple, new: &Tuple) -> UndoOp {
        UndoOp::Update {
            table: table.to_string(),
            old: sbdms_access::record::encode_tuple(old),
            new: sbdms_access::record::encode_tuple(new),
        }
    }
}
