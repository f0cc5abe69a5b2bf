//! Multi-version concurrency control as an unbundled kernel service.
//!
//! The paper's service decomposition puts transaction services in the
//! kernel layer, selected per profile by quality (§3 "flexibility by
//! selection"); "Unbundling Transaction Services in the Cloud"
//! (Lomet/Fekete/Weikum) and "Transparent Concurrency Control" argue the
//! same TC/DC split. This module is the transactional-component half:
//! snapshot-isolation MVCC that knows nothing about SQL, tuples, pages,
//! or the WAL. The data layer keeps the heap and the undo log (the DC);
//! it invokes this service for timestamps, visibility, write locks, and
//! first-committer-wins conflict detection.
//!
//! ## The version model
//!
//! The heap always holds the *latest committed* version of every row.
//! This service layers visibility on top with two in-memory maps per
//! table, keyed by an opaque `u64` row id supplied by the data layer:
//!
//! * `write_ts[key]` — commit timestamp of the most recent committed
//!   write (insert, update, or delete) to the key. Absent means 0:
//!   the row predates every live snapshot and is visible to all.
//! * `chains[key]` — superseded committed versions, each carrying the
//!   half-open validity interval `[begin, end)` and the full row image.
//!
//! A snapshot `S` sees the heap row at `key` iff `write_ts[key] <= S`;
//! otherwise it sees the chain version with `begin <= S < end`, if any.
//! Because chain entries carry their own intervals, heap row-id reuse
//! after a delete is safe: the old row's interval closed at the delete
//! timestamp, so no snapshot can confuse it with the new occupant.
//!
//! ## Uncommitted writes never touch the heap
//!
//! Transactions buffer their writes in the data layer and apply them at
//! commit. Dirty reads are therefore *structurally* impossible, and a
//! conflict abort is free: discard the buffer, release the locks —
//! nothing to undo. Crash recovery needs no MVCC awareness either: this
//! state is volatile, and after a restart every surviving (committed)
//! heap row is correctly visible to everyone.
//!
//! ## First-committer-wins, checked eagerly
//!
//! [`Mvcc::lock_write`] takes a per-key write lock at statement time and
//! fails with [`ServiceError::SerializationConflict`] if the key is
//! locked by another transaction *or* was committed past the caller's
//! snapshot — the first committer already won. Eager checking turns the
//! classic commit-time validation into an immediate, typed, recoverable
//! error the caller can retry on a fresh snapshot.
//!
//! ## The apply latch
//!
//! Commits install versions and mutate the heap under the write side of
//! one `RwLock`; snapshot acquisition and the resolution of each heap
//! page a scan reads take the read side. Readers never block readers,
//! and a commit waits for at most one page of a running scan — not for
//! the scan, nor for the lifetime of a transaction, which is the whole
//! point versus the single-writer path.
//!
//! ## Resolving a scan page by page
//!
//! A scan resolves visibility next to the page it reads:
//! [`Mvcc::replaced_in`] names the keys of one page the snapshot must
//! not take from the heap, and [`Mvcc::chain_rows`] the rows it sees
//! only in the chains (rows a later commit deleted). A statement outside
//! any transaction pins its snapshot with [`Mvcc::read_snapshot`].

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::contract::Contract;
use crate::error::{Result, ServiceError};
use crate::interface::{Interface, Operation};
use crate::service::{Descriptor, Service, ServiceRef};
use crate::value::{TypeTag, Value};

/// Commit timestamp / snapshot watermark. 0 predates every snapshot.
pub type Ts = u64;

/// Transaction token handed out by [`Mvcc::begin`].
pub type TxnToken = u64;

/// One superseded committed version: the row image that was current
/// during `[begin, end)`.
#[derive(Debug, Clone)]
pub struct Version {
    /// Commit timestamp that installed this version.
    pub begin: Ts,
    /// Commit timestamp that replaced (or deleted) it.
    pub end: Ts,
    /// Encoded row image, exactly as the heap held it.
    pub row: Vec<u8>,
}

/// Visibility of the *current heap occupant* of a key at a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Visibility {
    /// Whatever the heap holds at this key (possibly nothing, if the
    /// last committed write was a delete old enough to be visible).
    Current,
    /// The heap occupant is too new; this older row image is visible.
    Replaced(Vec<u8>),
    /// Nothing at this key is visible to the snapshot.
    Hidden,
}

#[derive(Default)]
struct TableCc {
    /// Commit ts of the last committed write per key (absent = 0),
    /// ordered so one heap page's keys are one range.
    write_ts: BTreeMap<u64, Ts>,
    /// Superseded committed versions per key, oldest first.
    chains: HashMap<u64, Vec<Version>>,
    /// Versions held in `chains`, kept as chains grow and GC trims
    /// them, so scan costing reads it without walking every chain.
    versions_live: u64,
    /// Per-key write locks: which in-flight txn owns the key.
    locks: HashMap<u64, TxnToken>,
}

#[derive(Default)]
struct MvccState {
    tables: HashMap<String, TableCc>,
    /// Keys locked per in-flight txn, for O(owned) release.
    owned: HashMap<TxnToken, Vec<(String, u64)>>,
    /// Active snapshot watermarks, refcounted (several txns may share
    /// one watermark). The oldest bounds garbage collection.
    snapshots: BTreeMap<Ts, usize>,
}

impl MvccState {
    fn unpin(&mut self, snapshot: Ts) {
        if let Some(n) = self.snapshots.get_mut(&snapshot) {
            *n -= 1;
            if *n == 0 {
                self.snapshots.remove(&snapshot);
            }
        }
    }

    fn min_active_snapshot(&self, clock: Ts) -> Ts {
        self.snapshots.keys().next().copied().unwrap_or(clock)
    }

    /// Drop versions and write timestamps no live (or future) snapshot
    /// can ever observe differently from the heap itself.
    fn gc(&mut self, clock: Ts, pruned: &AtomicU64) {
        let min = self.min_active_snapshot(clock);
        let mut removed = 0u64;
        for cc in self.tables.values_mut() {
            let mut trimmed = 0u64;
            cc.chains.retain(|_, versions| {
                let before = versions.len();
                versions.retain(|v| v.end > min);
                trimmed += (before - versions.len()) as u64;
                !versions.is_empty()
            });
            cc.versions_live -= trimmed;
            removed += trimmed;
            cc.write_ts.retain(|_, ts| *ts > min);
        }
        self.tables
            .retain(|_, cc| !(cc.write_ts.is_empty() && cc.chains.is_empty() && cc.locks.is_empty()));
        if removed > 0 {
            pruned.fetch_add(removed, Ordering::Relaxed);
        }
    }
}

/// Monotonic counters exposed by the service facade.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MvccStats {
    /// Transactions begun.
    pub begins: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Write-write conflicts detected (first-committer-wins losses).
    pub conflicts: u64,
    /// Transactions rolled back (including conflict aborts).
    pub aborts: u64,
    /// Superseded versions reclaimed by garbage collection.
    pub versions_pruned: u64,
    /// Superseded versions currently retained for live snapshots.
    pub versions_live: u64,
    /// Snapshots currently pinned.
    pub snapshots_active: u64,
}

/// An open MVCC transaction: its identity and pinned snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MvccTxn {
    /// Token identifying this transaction to the lock table.
    pub token: TxnToken,
    /// Snapshot watermark: commits with `ts <= snapshot` are visible.
    pub snapshot: Ts,
}

/// The snapshot-isolation MVCC service. One instance serves one
/// database deployment; the data layer and the ServiceBus facade share
/// it through an `Arc`.
pub struct Mvcc {
    /// Timestamp oracle: last assigned commit timestamp.
    clock: AtomicU64,
    next_token: AtomicU64,
    /// The apply latch (see module docs).
    apply: RwLock<()>,
    state: Mutex<MvccState>,
    begins: AtomicU64,
    commits: AtomicU64,
    conflicts: AtomicU64,
    aborts: AtomicU64,
    pruned: AtomicU64,
}

impl Default for Mvcc {
    fn default() -> Self {
        Mvcc::new()
    }
}

impl Mvcc {
    /// A fresh service: clock at 0, no versions, no locks.
    pub fn new() -> Mvcc {
        Mvcc {
            clock: AtomicU64::new(0),
            next_token: AtomicU64::new(1),
            apply: RwLock::new(()),
            state: Mutex::new(MvccState::default()),
            begins: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
        }
    }

    /// Begin a transaction: pin a snapshot at the current watermark.
    /// Taken under the apply latch so the snapshot never observes a
    /// half-applied commit.
    pub fn begin(&self) -> MvccTxn {
        let _latch = self.apply.read();
        let snapshot = self.clock.load(Ordering::SeqCst);
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let mut state = self.state.lock();
        *state.snapshots.entry(snapshot).or_insert(0) += 1;
        self.begins.fetch_add(1, Ordering::Relaxed);
        MvccTxn { token, snapshot }
    }

    /// Take (or re-take) the write lock on `key` for `txn`, enforcing
    /// first-committer-wins: fails with a recoverable
    /// [`ServiceError::SerializationConflict`] if another in-flight
    /// transaction holds the key or a commit newer than the caller's
    /// snapshot already wrote it.
    pub fn lock_write(&self, txn: &MvccTxn, table: &str, key: u64) -> Result<()> {
        let mut state = self.state.lock();
        let cc = state.tables.entry(table.to_string()).or_default();
        if cc.write_ts.get(&key).copied().unwrap_or(0) > txn.snapshot {
            self.conflicts.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::SerializationConflict {
                reason: format!("write-write conflict on {table}: row committed past snapshot"),
            });
        }
        match cc.locks.get(&key) {
            Some(owner) if *owner == txn.token => Ok(()),
            Some(_) => {
                self.conflicts.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::SerializationConflict {
                    reason: format!(
                        "write-write conflict on {table}: row locked by a concurrent transaction"
                    ),
                })
            }
            None => {
                cc.locks.insert(key, txn.token);
                state
                    .owned
                    .entry(txn.token)
                    .or_default()
                    .push((table.to_string(), key));
                Ok(())
            }
        }
    }

    /// Visibility of the current heap occupant of `key` at `snapshot`.
    /// Callers resolving rows should hold a [`Mvcc::read_latch`] across
    /// the heap read so no commit applies in between.
    pub fn visibility(&self, table: &str, key: u64, snapshot: Ts) -> Visibility {
        let state = self.state.lock();
        let Some(cc) = state.tables.get(table) else {
            return Visibility::Current;
        };
        visibility_in(cc, key, snapshot)
    }

    /// The keys in `keys` whose current heap occupant `snapshot` must
    /// not see (a commit after the snapshot wrote them), in key order,
    /// each with what the snapshot sees instead. Every other key in the
    /// range is [`Visibility::Current`]. A scan asks once per heap page,
    /// under a [`Mvcc::read_latch`] held across the page read.
    pub fn replaced_in(
        &self,
        table: &str,
        snapshot: Ts,
        keys: Range<u64>,
    ) -> Vec<(u64, Visibility)> {
        let state = self.state.lock();
        let Some(cc) = state.tables.get(table) else {
            return Vec::new();
        };
        cc.write_ts
            .range(keys)
            .filter(|(_, &ts)| ts > snapshot)
            .map(|(&key, _)| (key, visibility_in(cc, key, snapshot)))
            .collect()
    }

    /// Every superseded version visible at `snapshot`, by key: the row
    /// a key held at the snapshot when a later commit replaced or
    /// deleted it. A read emits those at keys it did not reach in the
    /// heap (for a scan: rows a later commit deleted).
    pub fn chain_rows(&self, table: &str, snapshot: Ts) -> Vec<(u64, Vec<u8>)> {
        let state = self.state.lock();
        let Some(cc) = state.tables.get(table) else {
            return Vec::new();
        };
        let mut rows: Vec<(u64, Vec<u8>)> = cc
            .chains
            .iter()
            .filter_map(|(&key, versions)| {
                versions
                    .iter()
                    .find(|v| v.begin <= snapshot && snapshot < v.end)
                    .map(|v| (key, v.row.clone()))
            })
            .collect();
        rows.sort_unstable_by_key(|(key, _)| *key);
        rows
    }

    /// Pin a read-only snapshot at the current watermark for a statement
    /// that runs outside any transaction. It holds back garbage
    /// collection like a transaction's snapshot and is released when the
    /// handle drops, counting neither a begin, a commit nor an abort.
    pub fn read_snapshot(self: &Arc<Self>) -> ReadSnapshot {
        let _latch = self.apply.read();
        let snapshot = self.clock.load(Ordering::SeqCst);
        *self.state.lock().snapshots.entry(snapshot).or_insert(0) += 1;
        ReadSnapshot {
            mvcc: Arc::clone(self),
            snapshot,
        }
    }

    /// Hold off commit application while reading a consistent view:
    /// one heap page of a scan, or one index probe's rows.
    pub fn read_latch(&self) -> RwLockReadGuard<'_, ()> {
        self.apply.read()
    }

    /// The last commit timestamp assigned. [`Mvcc::commit_begin`] moves
    /// it only while it holds the apply latch exclusively, so under a
    /// [`Mvcc::read_latch`] it stays put, and while it still equals a
    /// snapshot's timestamp the heap holds no version newer than that
    /// snapshot: every key is [`Visibility::Current`] to it and no chain
    /// holds a row it sees.
    pub fn clock(&self) -> Ts {
        self.clock.load(Ordering::SeqCst)
    }

    /// Start committing `txn`: takes the apply latch exclusively and
    /// assigns the commit timestamp. The caller applies its buffered
    /// writes to the heap and records each one on the guard, then calls
    /// [`CommitGuard::finish`]. Dropping the guard without finishing
    /// aborts (releases locks and the snapshot, keeps versions intact).
    pub fn commit_begin<'a>(&'a self, txn: &MvccTxn) -> CommitGuard<'a> {
        let latch = self.apply.write();
        let ts = self.clock.fetch_add(1, Ordering::SeqCst) + 1;
        CommitGuard {
            mvcc: self,
            txn: *txn,
            ts,
            finished: false,
            _latch: latch,
        }
    }

    /// Roll back `txn`: release its locks and snapshot. Buffered writes
    /// never touched the heap, so there is nothing else to undo.
    pub fn rollback(&self, txn: &MvccTxn) {
        self.release(txn);
        self.aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Forget all concurrency-control state for `table` (DROP TABLE).
    pub fn forget_table(&self, table: &str) {
        self.state.lock().tables.remove(table);
    }

    /// Current counters.
    pub fn stats(&self) -> MvccStats {
        let state = self.state.lock();
        let versions_live = state.tables.values().map(|cc| cc.versions_live).sum();
        let snapshots_active = state.snapshots.values().map(|n| *n as u64).sum();
        MvccStats {
            begins: self.begins.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            versions_pruned: self.pruned.load(Ordering::Relaxed),
            versions_live,
            snapshots_active,
        }
    }

    /// Live superseded versions retained in `table`'s chains — the
    /// version-chain density input to MVCC-aware scan costing: every
    /// retained version is extra visibility-patching work a scan of that
    /// table must do. A counter read, O(1) under the state lock.
    pub fn table_versions_live(&self, table: &str) -> u64 {
        self.state
            .lock()
            .tables
            .get(table)
            .map_or(0, |cc| cc.versions_live)
    }

    /// [`Mvcc::table_versions_live`] recomputed by summing every chain
    /// of `table`: the audit the maintained counter must always equal.
    pub fn table_versions_recount(&self, table: &str) -> u64 {
        self.state
            .lock()
            .tables
            .get(table)
            .map_or(0, |cc| cc.chains.values().map(Vec::len).sum::<usize>() as u64)
    }

    /// Release locks and the pinned snapshot, then garbage-collect.
    fn release(&self, txn: &MvccTxn) {
        let clock = self.clock.load(Ordering::SeqCst);
        let mut state = self.state.lock();
        if let Some(keys) = state.owned.remove(&txn.token) {
            for (table, key) in keys {
                if let Some(cc) = state.tables.get_mut(&table) {
                    if cc.locks.get(&key) == Some(&txn.token) {
                        cc.locks.remove(&key);
                    }
                }
            }
        }
        state.unpin(txn.snapshot);
        state.gc(clock, &self.pruned);
    }
}

fn visibility_in(cc: &TableCc, key: u64, snapshot: Ts) -> Visibility {
    if cc.write_ts.get(&key).copied().unwrap_or(0) <= snapshot {
        return Visibility::Current;
    }
    match cc
        .chains
        .get(&key)
        .and_then(|versions| versions.iter().find(|v| v.begin <= snapshot && snapshot < v.end))
    {
        Some(v) => Visibility::Replaced(v.row.clone()),
        None => Visibility::Hidden,
    }
}

/// A read-only snapshot pinned by [`Mvcc::read_snapshot`]; dropping it
/// releases the pin.
pub struct ReadSnapshot {
    mvcc: Arc<Mvcc>,
    snapshot: Ts,
}

impl ReadSnapshot {
    /// The snapshot watermark: commits with `ts <= ts()` are visible.
    pub fn ts(&self) -> Ts {
        self.snapshot
    }
}

impl Drop for ReadSnapshot {
    fn drop(&mut self) {
        let clock = self.mvcc.clock.load(Ordering::SeqCst);
        let mut state = self.mvcc.state.lock();
        state.unpin(self.snapshot);
        state.gc(clock, &self.mvcc.pruned);
    }
}

/// Exclusive commit window handed out by [`Mvcc::commit_begin`].
pub struct CommitGuard<'a> {
    mvcc: &'a Mvcc,
    txn: MvccTxn,
    ts: Ts,
    finished: bool,
    _latch: RwLockWriteGuard<'a, ()>,
}

impl CommitGuard<'_> {
    /// The commit timestamp assigned to this transaction.
    pub fn ts(&self) -> Ts {
        self.ts
    }

    /// Record that the heap row at `key` (image `old_row`) was replaced
    /// or deleted by this commit: the old image moves to the version
    /// chain with validity ending here.
    pub fn record_supersede(&self, table: &str, key: u64, old_row: Vec<u8>) {
        let mut state = self.mvcc.state.lock();
        let cc = state.tables.entry(table.to_string()).or_default();
        let begin = cc.write_ts.get(&key).copied().unwrap_or(0);
        cc.chains.entry(key).or_default().push(Version {
            begin,
            end: self.ts,
            row: old_row,
        });
        cc.versions_live += 1;
        cc.write_ts.insert(key, self.ts);
    }

    /// Record that this commit installed a brand-new heap row at `key`
    /// (insert, or the new image of an update).
    pub fn record_install(&self, table: &str, key: u64) {
        let mut state = self.mvcc.state.lock();
        let cc = state.tables.entry(table.to_string()).or_default();
        cc.write_ts.insert(key, self.ts);
    }

    /// Complete the commit: bump counters, release locks and snapshot.
    pub fn finish(mut self) {
        self.finished = true;
        self.mvcc.commits.fetch_add(1, Ordering::Relaxed);
        self.mvcc.release(&self.txn);
    }
}

impl Drop for CommitGuard<'_> {
    fn drop(&mut self) {
        if !self.finished {
            // Abort path: the caller rolled its heap writes back (or
            // never applied any); locks and snapshot must still go.
            self.mvcc.release(&self.txn);
            self.mvcc.aborts.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Interface name for the concurrency-control facade on the bus.
pub const CC_INTERFACE: &str = "sbdms.kernel.concurrency";

/// The facade's interface: stats sampling and an explicit GC poke.
pub fn cc_interface() -> Interface {
    Interface::new(
        CC_INTERFACE,
        1,
        vec![Operation::new("stats", vec![], TypeTag::Map)],
    )
}

/// ServiceBus facade over a shared [`Mvcc`] instance: the same object
/// the data layer drives on the hot path, published as a first-class
/// service so coordinators and monitors can observe the CC tier
/// (mirroring how the governor is surfaced).
pub struct ConcurrencyControlService {
    descriptor: Descriptor,
    mvcc: Arc<Mvcc>,
}

impl ConcurrencyControlService {
    /// Wrap `mvcc` for bus registration under `name`.
    pub fn new(name: &str, mvcc: Arc<Mvcc>) -> ConcurrencyControlService {
        let contract = Contract::for_interface(cc_interface())
            .describe(
                "snapshot-isolation MVCC: timestamps, visibility, first-committer-wins",
                "kernel",
            )
            .capability("task:concurrency-control")
            .capability("cc:mvcc");
        ConcurrencyControlService {
            descriptor: Descriptor::new(name, contract),
            mvcc,
        }
    }

    /// Wrap into a shared handle.
    pub fn into_ref(self) -> ServiceRef {
        Arc::new(self)
    }
}

impl Service for ConcurrencyControlService {
    fn descriptor(&self) -> &Descriptor {
        &self.descriptor
    }

    fn invoke(&self, op: &str, _input: Value) -> Result<Value> {
        match op {
            "stats" => {
                let s = self.mvcc.stats();
                Ok(Value::map()
                    .with("begins", s.begins as i64)
                    .with("commits", s.commits as i64)
                    .with("conflicts", s.conflicts as i64)
                    .with("aborts", s.aborts as i64)
                    .with("versions_pruned", s.versions_pruned as i64)
                    .with("versions_live", s.versions_live as i64)
                    .with("snapshots_active", s.snapshots_active as i64))
            }
            other => Err(ServiceError::UnknownOperation {
                service: self.descriptor.name.clone(),
                operation: other.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit_install(mvcc: &Mvcc, txn: &MvccTxn, table: &str, key: u64) -> Ts {
        let guard = mvcc.commit_begin(txn);
        let ts = guard.ts();
        guard.record_install(table, key);
        guard.finish();
        ts
    }

    #[test]
    fn snapshot_does_not_see_later_commit() {
        let mvcc = Mvcc::new();
        let reader = mvcc.begin();
        let writer = mvcc.begin();
        mvcc.lock_write(&writer, "t", 1).unwrap();
        commit_install(&mvcc, &writer, "t", 1);
        // The reader's snapshot predates the commit: heap row hidden.
        assert_eq!(mvcc.visibility("t", 1, reader.snapshot), Visibility::Hidden);
        // A fresh snapshot sees it.
        let late = mvcc.begin();
        assert_eq!(mvcc.visibility("t", 1, late.snapshot), Visibility::Current);
        mvcc.rollback(&reader);
        mvcc.rollback(&late);
    }

    #[test]
    fn superseded_version_served_to_old_snapshot() {
        let mvcc = Mvcc::new();
        // Install v1 so it is committed before the reader begins.
        let w1 = mvcc.begin();
        mvcc.lock_write(&w1, "t", 7).unwrap();
        commit_install(&mvcc, &w1, "t", 7);

        let reader = mvcc.begin();
        let w2 = mvcc.begin();
        mvcc.lock_write(&w2, "t", 7).unwrap();
        let guard = mvcc.commit_begin(&w2);
        guard.record_supersede("t", 7, b"v1".to_vec());
        guard.finish();

        match mvcc.visibility("t", 7, reader.snapshot) {
            Visibility::Replaced(row) => assert_eq!(row, b"v1"),
            other => panic!("expected replaced version, got {other:?}"),
        }
        mvcc.rollback(&reader);
    }

    #[test]
    fn first_committer_wins_on_lock() {
        let mvcc = Mvcc::new();
        let a = mvcc.begin();
        let b = mvcc.begin();
        mvcc.lock_write(&a, "t", 3).unwrap();
        let err = mvcc.lock_write(&b, "t", 3).unwrap_err();
        assert_eq!(err.code(), "conflict");
        assert!(err.is_recoverable());
        // Re-locking one's own key is idempotent.
        mvcc.lock_write(&a, "t", 3).unwrap();
        mvcc.rollback(&a);
        mvcc.rollback(&b);
    }

    #[test]
    fn first_committer_wins_after_release() {
        let mvcc = Mvcc::new();
        let a = mvcc.begin();
        let b = mvcc.begin();
        mvcc.lock_write(&a, "t", 3).unwrap();
        commit_install(&mvcc, &a, "t", 3);
        // The lock is free now, but the commit postdates b's snapshot.
        let err = mvcc.lock_write(&b, "t", 3).unwrap_err();
        assert_eq!(err.code(), "conflict");
        mvcc.rollback(&b);
    }

    #[test]
    fn rollback_releases_locks() {
        let mvcc = Mvcc::new();
        let a = mvcc.begin();
        mvcc.lock_write(&a, "t", 9).unwrap();
        mvcc.rollback(&a);
        let b = mvcc.begin();
        mvcc.lock_write(&b, "t", 9).unwrap();
        mvcc.rollback(&b);
        assert_eq!(mvcc.stats().aborts, 2);
    }

    #[test]
    fn abandoned_commit_guard_aborts() {
        let mvcc = Mvcc::new();
        let a = mvcc.begin();
        mvcc.lock_write(&a, "t", 4).unwrap();
        drop(mvcc.commit_begin(&a));
        let b = mvcc.begin();
        // Lock free and no write installed past b's snapshot.
        mvcc.lock_write(&b, "t", 4).unwrap();
        mvcc.rollback(&b);
        assert_eq!(mvcc.stats().commits, 0);
        assert_eq!(mvcc.stats().aborts, 2);
    }

    #[test]
    fn gc_prunes_when_last_snapshot_releases() {
        let mvcc = Mvcc::new();
        let reader = mvcc.begin();
        let w = mvcc.begin();
        mvcc.lock_write(&w, "t", 1).unwrap();
        let guard = mvcc.commit_begin(&w);
        guard.record_supersede("t", 1, b"old".to_vec());
        guard.finish();
        // The old snapshot pins the version.
        assert_eq!(mvcc.stats().versions_live, 1);
        mvcc.rollback(&reader);
        assert_eq!(mvcc.stats().versions_live, 0);
        assert_eq!(mvcc.stats().versions_pruned, 1);
        // write_ts pruned too: everything visible to everyone again.
        assert!(mvcc.state.lock().tables.is_empty());
    }

    #[test]
    fn rid_reuse_keeps_intervals_separate() {
        let mvcc = Mvcc::new();
        // Row installed at t1, old reader pins a snapshot, row deleted
        // at t2, rid reused by a new insert at t3.
        let w1 = mvcc.begin();
        mvcc.lock_write(&w1, "t", 5).unwrap();
        commit_install(&mvcc, &w1, "t", 5);
        let old_reader = mvcc.begin();
        let w2 = mvcc.begin();
        mvcc.lock_write(&w2, "t", 5).unwrap();
        let guard = mvcc.commit_begin(&w2);
        guard.record_supersede("t", 5, b"first-life".to_vec());
        guard.finish();
        let mid_reader = mvcc.begin();
        let w3 = mvcc.begin();
        mvcc.lock_write(&w3, "t", 5).unwrap();
        commit_install(&mvcc, &w3, "t", 5);

        // Old reader sees the first life through the chain.
        match mvcc.visibility("t", 5, old_reader.snapshot) {
            Visibility::Replaced(row) => assert_eq!(row, b"first-life"),
            other => panic!("old reader got {other:?}"),
        }
        // Mid reader (between delete and reuse) sees nothing.
        assert_eq!(mvcc.visibility("t", 5, mid_reader.snapshot), Visibility::Hidden);
        // A fresh reader sees the current (second-life) heap row.
        let fresh = mvcc.begin();
        assert_eq!(mvcc.visibility("t", 5, fresh.snapshot), Visibility::Current);
        mvcc.rollback(&old_reader);
        mvcc.rollback(&mid_reader);
        mvcc.rollback(&fresh);
    }

    #[test]
    fn page_resolution_matches_point_queries() {
        let mvcc = Mvcc::new();
        let w1 = mvcc.begin();
        for key in [1, 2, 3] {
            mvcc.lock_write(&w1, "t", key).unwrap();
        }
        let guard = mvcc.commit_begin(&w1);
        for key in [1, 2, 3] {
            guard.record_install("t", key);
        }
        guard.finish();
        let reader = mvcc.begin();
        // After the snapshot: key 1 updated, key 2 deleted, key 9
        // inserted.
        let w2 = mvcc.begin();
        for key in [1, 2, 9] {
            mvcc.lock_write(&w2, "t", key).unwrap();
        }
        let guard = mvcc.commit_begin(&w2);
        guard.record_supersede("t", 1, b"one".to_vec());
        guard.record_supersede("t", 2, b"two".to_vec());
        guard.record_install("t", 9);
        guard.finish();

        let replaced = mvcc.replaced_in("t", reader.snapshot, 0..u64::MAX);
        assert_eq!(
            replaced.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![1, 2, 9]
        );
        for (key, vis) in &replaced {
            assert_eq!(*vis, mvcc.visibility("t", *key, reader.snapshot));
        }
        assert!(mvcc.replaced_in("t", reader.snapshot, 3..9).is_empty());
        assert_eq!(
            mvcc.chain_rows("t", reader.snapshot),
            vec![(1, b"one".to_vec()), (2, b"two".to_vec())]
        );
        // A fresh snapshot sees the heap everywhere.
        let fresh = mvcc.begin();
        assert!(mvcc.replaced_in("t", fresh.snapshot, 0..u64::MAX).is_empty());
        assert!(mvcc.chain_rows("t", fresh.snapshot).is_empty());
        assert!(mvcc.replaced_in("other", reader.snapshot, 0..u64::MAX).is_empty());
        mvcc.rollback(&reader);
        mvcc.rollback(&fresh);
    }

    #[test]
    fn read_snapshot_pins_versions_without_counting_a_transaction() {
        let mvcc = Arc::new(Mvcc::new());
        let w1 = mvcc.begin();
        mvcc.lock_write(&w1, "t", 1).unwrap();
        commit_install(&mvcc, &w1, "t", 1);
        let read = mvcc.read_snapshot();
        let w2 = mvcc.begin();
        mvcc.lock_write(&w2, "t", 1).unwrap();
        let guard = mvcc.commit_begin(&w2);
        guard.record_supersede("t", 1, b"old".to_vec());
        guard.finish();
        assert_eq!(mvcc.chain_rows("t", read.ts()), vec![(1, b"old".to_vec())]);
        let before = mvcc.stats();
        assert_eq!(before.snapshots_active, 1);
        assert_eq!(before.versions_live, 1);
        drop(read);
        let after = mvcc.stats();
        assert_eq!(after.snapshots_active, 0);
        assert_eq!(after.versions_live, 0, "the pin was the last reader");
        assert_eq!(
            (after.begins, after.commits, after.aborts),
            (before.begins, before.commits, before.aborts)
        );
    }

    #[test]
    fn facade_serves_stats() {
        let mvcc = Arc::new(Mvcc::new());
        let txn = mvcc.begin();
        mvcc.lock_write(&txn, "t", 1).unwrap();
        commit_install(&mvcc, &txn, "t", 1);
        let svc = ConcurrencyControlService::new("cc", Arc::clone(&mvcc));
        let out = svc.invoke("stats", Value::Null).unwrap();
        assert_eq!(out.get("commits").and_then(|v| v.as_int().ok()), Some(1));
        assert_eq!(out.get("begins").and_then(|v| v.as_int().ok()), Some(1));
        let err = svc.invoke("nope", Value::Null).unwrap_err();
        assert_eq!(err.code(), "unknown_op");
        let caps = &svc.descriptor().contract.description.capabilities;
        assert!(caps.iter().any(|c| c == "cc:mvcc"));
    }
}
