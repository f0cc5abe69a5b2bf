//! Property tests for the kernel MVCC snapshot-isolation service:
//! random interleavings of concurrent transactions, differential
//! against serial re-execution.
//!
//! Soundness of the oracle: every transaction here only *reads* rows it
//! also writes (read-modify-write increments guarded by
//! first-committer-wins), and inserts land in per-transaction disjoint
//! key ranges so no concurrent transaction's predicate can match
//! another's insert (no phantoms). Under those conditions a snapshot-
//! isolation history is serializable in commit order — so replaying the
//! committed transactions serially, in the order their commits
//! returned, on a fresh single-writer database must reach the identical
//! final state. Conflict-aborted transactions are retried serially
//! afterwards and must converge: snapshot isolation may abort, but it
//! must never lose an update.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use sbdms_data::executor::{Database, DbOptions};
use sbdms_data::txn::Durability;
use sbdms_data::{ConcurrencyControl, Session};
use sbdms_storage::{SimBackend, SimConfig};

/// Seeded keys every transaction contends on.
const SHARED_KEYS: i64 = 6;

/// One mutation in a transaction's program. `Own*` keys are private to
/// the issuing transaction (no concurrent phantom can arise).
#[derive(Debug, Clone, Copy)]
enum MvccOp {
    /// Read-modify-write on a shared key: `v = v + 1`.
    Inc(i64),
    /// Blind write of a literal to a shared key.
    Set(i64, i64),
    /// Delete a shared key.
    Delete(i64),
    /// Insert into the transaction's private key range.
    InsertOwn(u8, i64),
    /// Increment a private key (may not exist yet: affects 0 rows,
    /// identically under concurrent and serial execution).
    IncOwn(u8),
}

impl MvccOp {
    fn sql(&self, txn: usize) -> String {
        let own = |slot: u8| 100 + (txn as i64) * 10 + slot as i64;
        match *self {
            MvccOp::Inc(k) => format!("UPDATE kv SET v = v + 1 WHERE k = {k}"),
            MvccOp::Set(k, v) => format!("UPDATE kv SET v = {v} WHERE k = {k}"),
            MvccOp::Delete(k) => format!("DELETE FROM kv WHERE k = {k}"),
            MvccOp::InsertOwn(slot, v) => format!("INSERT INTO kv VALUES ({}, {v})", own(slot)),
            MvccOp::IncOwn(slot) => {
                format!("UPDATE kv SET v = v + 1 WHERE k = {}", own(slot))
            }
        }
    }
}

fn op_strategy() -> impl Strategy<Value = MvccOp> {
    prop_oneof![
        3 => (0..SHARED_KEYS).prop_map(MvccOp::Inc),
        2 => (0..SHARED_KEYS, 0i64..1000).prop_map(|(k, v)| MvccOp::Set(k, v)),
        1 => (0..SHARED_KEYS).prop_map(MvccOp::Delete),
        2 => (0u8..3, 0i64..1000).prop_map(|(s, v)| MvccOp::InsertOwn(s, v)),
        1 => (0u8..3).prop_map(MvccOp::IncOwn),
    ]
}

fn open_mvcc(seed: u64) -> Arc<Database> {
    let sim = SimBackend::new(SimConfig::seeded(seed));
    let db = Database::open_at(
        &*sim,
        DbOptions { concurrency: ConcurrencyControl::Mvcc, ..DbOptions::default() },
    )
    .unwrap();
    db.set_durability(Durability::Full);
    db
}

fn open_single(seed: u64) -> Arc<Database> {
    let sim = SimBackend::new(SimConfig::seeded(seed));
    Database::open_at(&*sim, DbOptions::default()).unwrap()
}

fn seed_table(db: &Arc<Database>) {
    let s = db.session();
    s.execute("CREATE TABLE kv (k INT NOT NULL, v INT NOT NULL)").unwrap();
    let vals: Vec<String> = (0..SHARED_KEYS).map(|k| format!("({k}, {})", k * 10)).collect();
    s.execute(&format!("INSERT INTO kv VALUES {}", vals.join(", "))).unwrap();
}

/// Full table contents as a sorted multiset of `k v` lines.
fn table_state(db: &Arc<Database>) -> Vec<String> {
    let result = db.session().execute("SELECT k, v FROM kv").unwrap();
    let mut rows: Vec<String> = result
        .rows
        .iter()
        .map(|row| row.iter().map(|d| d.to_string()).collect::<Vec<_>>().join(" "))
        .collect();
    rows.sort();
    rows
}

/// Derive a concrete interleaving from the free `picks` stream: each
/// pick chooses among the transactions that still have steps left.
fn schedule(txn_steps: &[usize], picks: &[u8]) -> Vec<usize> {
    let mut remaining: Vec<usize> = txn_steps.to_vec();
    let mut order = Vec::new();
    let mut picks = picks.iter().cycle();
    while remaining.iter().any(|&r| r > 0) {
        let alive: Vec<usize> =
            (0..remaining.len()).filter(|&i| remaining[i] > 0).collect();
        let i = alive[*picks.next().unwrap() as usize % alive.len()];
        remaining[i] -= 1;
        order.push(i);
    }
    order
}

/// The MVCC service's maintained live-version counter for `kv` must
/// equal the sum over its version chains after every step.
fn assert_version_count(db: &Database, step: &str) {
    let mvcc = db.mvcc().expect("MVCC deployment");
    assert_eq!(
        mvcc.table_versions_live("kv"),
        mvcc.table_versions_recount("kv"),
        "live-version counter drifted after {step}"
    );
}

/// Drive the interleaved run; returns the committed programs in commit
/// order (retries of conflict-aborted transactions appended serially).
/// The live-version counter is audited after every step.
fn run_interleaved(db: &Arc<Database>, programs: &[Vec<MvccOp>], order: &[usize]) -> Vec<usize> {
    let sessions: Vec<Session> = programs.iter().map(|_| db.session()).collect();
    for session in &sessions {
        session.begin().unwrap();
    }
    let mut cursor: Vec<usize> = vec![0; programs.len()];
    let mut aborted: Vec<usize> = Vec::new();
    let mut commit_order: Vec<usize> = Vec::new();
    for &i in order {
        if aborted.contains(&i) {
            continue;
        }
        let step = cursor[i];
        cursor[i] += 1;
        if step < programs[i].len() {
            match sessions[i].execute(&programs[i][step].sql(i)) {
                Ok(_) => {}
                Err(e) => {
                    assert_eq!(e.code(), "conflict", "only conflicts may abort: {e}");
                    assert!(e.is_recoverable(), "conflicts must invite retry: {e}");
                    sessions[i].rollback().unwrap();
                    aborted.push(i);
                }
            }
        } else {
            sessions[i].commit().unwrap();
            commit_order.push(i);
        }
        assert_version_count(db, &format!("step {step} of txn {i}"));
    }
    // Conflict losers retry serially: with no concurrent writer left,
    // every retry must succeed on the first attempt.
    for i in aborted {
        sessions[i].begin().unwrap();
        for op in &programs[i] {
            sessions[i]
                .execute(&op.sql(i))
                .unwrap_or_else(|e| panic!("serial retry of txn {i} hit {e}"));
            assert_version_count(db, &format!("retry of txn {i}"));
        }
        sessions[i].commit().unwrap();
        commit_order.push(i);
        assert_version_count(db, &format!("retry commit of txn {i}"));
    }
    drop(sessions);
    assert_version_count(db, "the sessions closed");
    commit_order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving of concurrent transactions, executed under MVCC
    /// with conflict-losers retried, ends in exactly the state of
    /// serial execution in commit order.
    #[test]
    fn random_interleavings_match_serial_oracle(
        programs in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 1..4),
            2..5,
        ),
        picks in proptest::collection::vec(any::<u8>(), 8..9),
        seed in 0u64..1_000,
    ) {
        let db = open_mvcc(0x3513c ^ seed);
        seed_table(&db);
        // +1 step per transaction: the commit.
        let steps: Vec<usize> = programs.iter().map(|p| p.len() + 1).collect();
        let order = schedule(&steps, &picks);
        let commit_order = run_interleaved(&db, &programs, &order);
        prop_assert_eq!(commit_order.len(), programs.len(), "every txn must commit");

        let oracle = open_single(0x5e41a1 ^ seed);
        seed_table(&oracle);
        let serial = oracle.session();
        for &i in &commit_order {
            serial.begin().unwrap();
            for op in &programs[i] {
                serial.execute(&op.sql(i)).unwrap();
            }
            serial.commit().unwrap();
        }
        prop_assert_eq!(table_state(&db), table_state(&oracle));
    }

    /// The live-version counter under staggered snapshots: read-only
    /// transactions begin and commit at random points while autocommit
    /// writers supersede rows between them, so garbage collection trims
    /// some chains while pinned snapshots keep others alive. The
    /// maintained counter must equal the recount after every step.
    #[test]
    fn live_version_counter_survives_partial_gc(
        steps in proptest::collection::vec((0usize..3, 0u8..4, 0..SHARED_KEYS), 1..40),
        seed in 0u64..1_000,
    ) {
        let db = open_mvcc(0x6c1e ^ seed);
        seed_table(&db);
        let readers: Vec<Session> = (0..3).map(|_| db.session()).collect();
        let writer = db.session();
        let mut open = [false; 3];
        for (i, &(r, action, k)) in steps.iter().enumerate() {
            match action {
                0 if !open[r] => {
                    readers[r].begin().unwrap();
                    open[r] = true;
                }
                1 if open[r] => {
                    readers[r].execute(&format!("SELECT v FROM kv WHERE k = {k}")).unwrap();
                }
                2 if open[r] => {
                    readers[r].commit().unwrap();
                    open[r] = false;
                }
                _ => {
                    writer.execute(&format!("UPDATE kv SET v = v + 1 WHERE k = {k}")).unwrap();
                }
            }
            assert_version_count(&db, &format!("step {i}"));
        }
        for (r, reader) in readers.iter().enumerate() {
            if open[r] {
                reader.commit().unwrap();
            }
            assert_version_count(&db, &format!("closing reader {r}"));
        }
    }

    /// The direct no-lost-update property: N transactions increment
    /// shared counters under any interleaving; with conflict-aborted
    /// transactions retried, every increment lands exactly once.
    #[test]
    fn concurrent_increments_never_lose_updates(
        programs in proptest::collection::vec(
            proptest::collection::vec(0..SHARED_KEYS, 1..4),
            2..5,
        ),
        picks in proptest::collection::vec(any::<u8>(), 8..9),
        seed in 0u64..1_000,
    ) {
        let db = open_mvcc(0x10c4ed ^ seed);
        seed_table(&db);
        let programs: Vec<Vec<MvccOp>> = programs
            .iter()
            .map(|keys| keys.iter().map(|&k| MvccOp::Inc(k)).collect())
            .collect();
        let steps: Vec<usize> = programs.iter().map(|p| p.len() + 1).collect();
        let order = schedule(&steps, &picks);
        run_interleaved(&db, &programs, &order);

        let mut expected: BTreeMap<i64, i64> =
            (0..SHARED_KEYS).map(|k| (k, k * 10)).collect();
        for program in &programs {
            for op in program {
                if let MvccOp::Inc(k) = op {
                    *expected.get_mut(k).unwrap() += 1;
                }
            }
        }
        let want: Vec<String> =
            expected.iter().map(|(k, v)| format!("{k} {v}")).collect();
        prop_assert_eq!(table_state(&db), want);
    }
}
