//! Property-based crash-recovery testing.
//!
//! Random DML workloads run against a database with full durability; a
//! random prefix commits, a random suffix is left uncommitted when the
//! process "crashes" (the handle drops without commit after flushing
//! dirty pages — the steal-policy worst case). On reopen, recovery must
//! restore exactly the committed state.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use sbdms_access::record::Datum;
use sbdms_data::executor::{Database, DbOptions};
use sbdms_data::Session;
use sbdms_data::txn::{Durability, KIND_COMMIT};
use sbdms_storage::{SimBackend, SimConfig};

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, String),
    UpdateAll(i64),
    DeleteBelow(i64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0i64..1000), "[a-z]{1,8}").prop_map(|(k, v)| Op::Insert(k, v)),
        (0i64..100).prop_map(Op::UpdateAll),
        (0i64..500).prop_map(Op::DeleteBelow),
    ]
}

fn apply(s: &Session, op: &Op) {
    match op {
        Op::Insert(k, v) => {
            s.execute(&format!("INSERT INTO kv VALUES ({k}, '{v}')")).unwrap();
        }
        Op::UpdateAll(delta) => {
            s.execute(&format!("UPDATE kv SET k = k + {delta} WHERE k < 100"))
                .unwrap();
        }
        Op::DeleteBelow(bound) => {
            s.execute(&format!("DELETE FROM kv WHERE k < {bound}")).unwrap();
        }
    }
}

fn state(s: &Session) -> Vec<(i64, String)> {
    s.execute("SELECT k, v FROM kv ORDER BY k, v")
        .unwrap()
        .rows
        .into_iter()
        .map(|row| {
            let k = match &row[0] {
                Datum::Int(i) => *i,
                other => panic!("{other:?}"),
            };
            let v = row[1].to_string();
            (k, v)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn committed_state_survives_crash_with_uncommitted_tail(
        committed_ops in proptest::collection::vec(arb_op(), 0..12),
        uncommitted_ops in proptest::collection::vec(arb_op(), 1..8),
        seed in any::<u32>(),
    ) {
        let dir = std::env::temp_dir()
            .join("sbdms-recovery-prop")
            .join(format!("{}-{seed:x}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let committed_state = {
            let db = Database::open(&dir).unwrap();
            let s = db.session();
            db.set_durability(Durability::Full);
            s.execute("CREATE TABLE kv (k INT NOT NULL, v TEXT NOT NULL)").unwrap();
            // Committed workload: each op inside its own committed txn.
            for op in &committed_ops {
                s.begin().unwrap();
                apply(&s, op);
                s.commit().unwrap();
            }
            let snapshot = state(&s);

            // Uncommitted tail in one open transaction; flush everything
            // (steal) and crash.
            s.begin().unwrap();
            for op in &uncommitted_ops {
                apply(&s, op);
            }
            db.storage().buffer.flush_all().unwrap();
            db.storage().wal.sync().unwrap();
            snapshot
            // db drops here without commit: the crash.
        };

        let db = Database::open(&dir).unwrap();
        let s = db.session();
        prop_assert_eq!(state(&s), committed_state);
        // The recovered database is fully usable.
        s.execute("INSERT INTO kv VALUES (9999, 'after')").unwrap();
        prop_assert!(state(&s).iter().any(|(k, _)| *k == 9999));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One DML step inside a transaction of the simulated-crash property.
/// Steps adapt to the live state at runtime (an `Insert` on an existing
/// key becomes an update and so on), so any drawn sequence is valid.
#[derive(Debug, Clone)]
enum TxStep {
    Insert(i64),
    Update(i64),
    Delete(i64),
}

fn arb_txn() -> impl Strategy<Value = (Vec<TxStep>, bool)> {
    let step = prop_oneof![
        (0i64..12).prop_map(TxStep::Insert),
        (0i64..12).prop_map(TxStep::Update),
        (0i64..12).prop_map(TxStep::Delete),
    ];
    (proptest::collection::vec(step, 1..5), any::<bool>())
}

/// Where a run of the drawn workload stopped.
enum Outcome {
    /// Ran to completion; the oracle is the final committed state.
    Completed,
    /// An injected power loss interrupted it mid-transaction (or
    /// between transactions). If the failure hit `commit()` itself the
    /// staged state rides along: the durable WAL decides its fate.
    Crashed { in_flight: Option<(u64, BTreeMap<i64, i64>)> },
}

/// Run the workload, advancing `oracle` only on successful commits.
/// `next_v` keeps every row image globally unique so recovery's image
/// matching is exact.
fn run_workload(
    s: &Session,
    txns: &[(Vec<TxStep>, bool)],
    oracle: &mut BTreeMap<i64, i64>,
    next_v: &mut i64,
) -> Outcome {
    for (steps, commit) in txns {
        let txn_id = match s.begin() {
            Ok(id) => id,
            Err(_) => return Outcome::Crashed { in_flight: None },
        };
        let mut staged = oracle.clone();
        for step in steps {
            let v = *next_v;
            *next_v += 1;
            let sql = match step {
                TxStep::Insert(k) | TxStep::Update(k) if staged.contains_key(k) => {
                    staged.insert(*k, v);
                    format!("UPDATE kv SET v = {v} WHERE k = {k}")
                }
                TxStep::Insert(k) | TxStep::Update(k) => {
                    staged.insert(*k, v);
                    format!("INSERT INTO kv VALUES ({k}, {v})")
                }
                TxStep::Delete(k) => {
                    if staged.remove(k).is_none() {
                        continue;
                    }
                    format!("DELETE FROM kv WHERE k = {k}")
                }
            };
            if s.execute(&sql).is_err() {
                return Outcome::Crashed { in_flight: None };
            }
        }
        if *commit {
            match s.commit() {
                Ok(()) => *oracle = staged,
                Err(_) => return Outcome::Crashed { in_flight: Some((txn_id, staged)) },
            }
        } else if s.rollback().is_err() {
            return Outcome::Crashed { in_flight: None };
        }
    }
    Outcome::Completed
}

fn sim_state(s: &Session) -> BTreeMap<i64, i64> {
    let mut out = BTreeMap::new();
    for row in s.execute("SELECT k, v FROM kv ORDER BY k").unwrap().rows {
        let (Datum::Int(k), Datum::Int(v)) = (&row[0], &row[1]) else {
            panic!("unexpected row shape: {row:?}");
        };
        assert!(out.insert(*k, *v).is_none(), "duplicate key {k} after recovery");
    }
    out
}

fn sim_open(sim: &SimBackend) -> std::sync::Arc<Database> {
    let db = Database::open_at(sim, DbOptions::default()).expect("open on sim backend");
    db.set_durability(Durability::Full);
    db
}

/// Did the in-flight transaction's commit record reach durable storage?
/// The same WAL scan recovery uses settles the ambiguity exactly.
fn commit_is_durable(sim: &SimBackend, txn_id: u64) -> bool {
    let bytes = sim.durable_bytes("wal.log").unwrap_or_default();
    sbdms_storage::wal::scan_bytes(&bytes)
        .iter()
        .any(|r| r.kind == KIND_COMMIT && r.payload == txn_id.to_le_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Random commit/rollback interleavings on the simulated device,
    /// power-cycled at a random durability-event boundary: recovery
    /// must land exactly on the oracle state.
    #[test]
    fn simulated_power_loss_recovers_the_oracle_state(
        txns in proptest::collection::vec(arb_txn(), 1..6),
        seed in any::<u64>(),
        point_sel in any::<u64>(),
    ) {
        // Fault-free profiling pass: count the durability events the
        // workload generates so the crash point can land on any of them.
        let sim: Arc<SimBackend> = SimBackend::new(SimConfig::seeded(seed));
        let base;
        let span;
        {
            let db = sim_open(&sim);
            let s = db.session();
            s.execute("CREATE TABLE kv (k INT NOT NULL, v INT NOT NULL)").unwrap();
            db.checkpoint().unwrap();
            base = sim.io_events();
            let mut oracle = BTreeMap::new();
            let mut next_v = 0;
            prop_assert!(matches!(
                run_workload(&s, &txns, &mut oracle, &mut next_v),
                Outcome::Completed
            ));
            span = sim.io_events() - base;
        }
        // A workload whose every step degenerates to a no-op generates
        // no durability events and nothing to crash into: vacuous pass.
        if span > 0 {
        let point = 1 + point_sel % span;

        // Armed pass on a fresh device with the same seed: identical
        // I/O up to the crash point, then the lights go out.
        let sim: Arc<SimBackend> = SimBackend::new(SimConfig::seeded(seed));
        let db = sim_open(&sim);
        let s = db.session();
        s.execute("CREATE TABLE kv (k INT NOT NULL, v INT NOT NULL)").unwrap();
        db.checkpoint().unwrap();
        prop_assert_eq!(sim.io_events(), base);
        sim.crash_after_events(base + point - 1);
        let mut oracle = BTreeMap::new();
        let mut next_v = 0;
        let outcome = run_workload(&s, &txns, &mut oracle, &mut next_v);
        let Outcome::Crashed { in_flight } = outcome else {
            panic!("seed={seed:#x} point={point}: workload outran its own event count");
        };
        prop_assert!(sim.halted());
        drop((s, db));
        sim.power_cycle();

        // If the crash hit commit() itself, the durable WAL decides
        // whether that transaction made it.
        let expected = match in_flight {
            Some((txn_id, staged)) if commit_is_durable(&sim, txn_id) => staged,
            _ => oracle,
        };

        let db = sim_open(&sim);
        let s = db.session();
        prop_assert_eq!(sim_state(&s), expected.clone());
        // The WAL tail was cleanly truncated by recovery.
        prop_assert!(db.storage().wal.records().unwrap().is_empty());
        // The recovered database is fully usable.
        s.begin().unwrap();
        s.execute("INSERT INTO kv VALUES (9999, -1)").unwrap();
        s.commit().unwrap();
        prop_assert_eq!(sim_state(&s).get(&9999), Some(&-1));
        }
    }
}

#[test]
fn double_crash_recovery_is_stable() {
    // Crash during a transaction, recover, crash again mid-transaction,
    // recover again: each recovery lands on the last committed state.
    let dir = std::env::temp_dir()
        .join("sbdms-recovery-prop")
        .join(format!("double-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Database::open(&dir).unwrap();
        let s = db.session();
        db.set_durability(Durability::Full);
        s.execute("CREATE TABLE kv (k INT NOT NULL, v TEXT NOT NULL)").unwrap();
        s.begin().unwrap();
        s.execute("INSERT INTO kv VALUES (1, 'committed')").unwrap();
        s.commit().unwrap();
        s.begin().unwrap();
        s.execute("INSERT INTO kv VALUES (2, 'lost-1')").unwrap();
        db.storage().buffer.flush_all().unwrap();
        db.storage().wal.sync().unwrap();
    }
    {
        let db = Database::open(&dir).unwrap();
        let s = db.session();
        db.set_durability(Durability::Full);
        assert_eq!(state(&s).len(), 1);
        s.begin().unwrap();
        s.execute("DELETE FROM kv").unwrap();
        s.execute("INSERT INTO kv VALUES (3, 'lost-2')").unwrap();
        db.storage().buffer.flush_all().unwrap();
        db.storage().wal.sync().unwrap();
    }
    let db = Database::open(&dir).unwrap();
    let s = db.session();
    let final_state = state(&s);
    assert_eq!(final_state.len(), 1);
    assert_eq!(final_state[0].0, 1);
    assert_eq!(final_state[0].1, "committed");
}

/// A checkpoint never runs inside another session's commit apply. The
/// apply writes each row to the heap before logging its undo; a
/// checkpoint in between would make the half-applied pages durable and
/// truncate the undo already logged, so a power loss before the commit
/// record left a partial transaction recovery cannot see. Here one
/// multi-thousand-row MVCC transaction commits while a checkpoint loop
/// runs, the power fails at a point inside the commit, and the reopened
/// table must hold all of the transaction or none of it.
#[test]
fn checkpoint_beside_a_commit_keeps_it_all_or_nothing() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    const ROWS: i64 = 2_000;
    const ROUNDS: u64 = 8;
    let open = |sim: &SimBackend| {
        let opts = DbOptions {
            buffer_frames: 16,
            concurrency: sbdms_data::ConcurrencyControl::Mvcc,
            ..DbOptions::default()
        };
        let db = Database::open_at(sim, opts).expect("open on sim backend");
        db.set_durability(Durability::Full);
        db
    };
    // A fresh device with the table and an open transaction holding
    // every row, buffered and not yet applied.
    let prepare = |seed: u64| {
        let sim = SimBackend::new(SimConfig::seeded(seed));
        let db = open(&sim);
        let s = db.session();
        s.execute("CREATE TABLE kv (k INT NOT NULL, v INT NOT NULL)").unwrap();
        db.checkpoint().unwrap();
        s.begin().unwrap();
        let keys: Vec<i64> = (0..ROWS).collect();
        for chunk in keys.chunks(500) {
            let rows: Vec<String> = chunk.iter().map(|k| format!("({k}, {k})")).collect();
            s.execute(&format!("INSERT INTO kv VALUES {}", rows.join(", "))).unwrap();
        }
        (sim, db, s)
    };
    // Fault-free, without checkpoints: the commit's durability events.
    let span = {
        let (sim, _db, s) = prepare(0);
        let base = sim.io_events();
        s.commit().unwrap();
        sim.io_events() - base
    };
    assert!(span > 20, "the commit must steal pages: {span} events");
    let mut partial = Vec::new();
    for round in 0..ROUNDS {
        let (sim, db, s) = prepare(round);
        let (checkpoints, done) = (AtomicU64::new(0), AtomicBool::new(false));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    let _ = db.checkpoint();
                    checkpoints.fetch_add(1, Ordering::SeqCst);
                }
            });
            // Commit once the loop runs, so a checkpoint can start just
            // before the apply does. The power fails in the second half
            // of the commit's own durability events.
            while checkpoints.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
            let crash_at = span / 2 + round * span / (2 * ROUNDS);
            sim.crash_after_events(sim.io_events() + crash_at);
            let _ = s.commit();
            done.store(true, Ordering::SeqCst);
        });
        drop((s, db));
        sim.power_cycle();
        let db = open(&sim);
        let n = match db.session().execute("SELECT COUNT(*) FROM kv").unwrap().rows[0][0] {
            Datum::Int(n) => n,
            ref other => panic!("COUNT(*) returned {other:?}"),
        };
        if n != 0 && n != ROWS {
            partial.push((round, n));
        }
    }
    assert!(
        partial.is_empty(),
        "(round, rows) after a power loss beside checkpoints, of {ROWS}: {partial:?}"
    );
}
