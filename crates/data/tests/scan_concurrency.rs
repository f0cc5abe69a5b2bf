//! MVCC table scans beside concurrent commits. A scan resolves each heap
//! page against its snapshot under one short hold of the apply read
//! latch, so:
//!
//! 1. a commit never waits for an open scan, and the scan still returns
//!    exactly its snapshot;
//! 2. no scan sees half of a transaction: `SUM(v)` over accounts that
//!    concurrent transfers move money between always reads the
//!    invariant total, whether a transfer updates both rows or deletes
//!    and re-inserts one of them;
//! 3. a dropped or cancelled scan releases its latch and its snapshot;
//! 4. every row comes out once: a row a commit replaces on a page the
//!    scan already walked is not emitted again from the version chains,
//!    and a transaction sees each of its own writes exactly once, with
//!    or without version chains.
//!
//! CI runs this file as its own step with a hard timeout: a latch or
//! snapshot leak in the stream shows up as a commit that never returns.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use sbdms_access::exec::batch::{Batch, BatchStream};
use sbdms_access::exec::engine::VectorEngine;
use sbdms_access::record::{encode_tuple, Datum, Tuple};
use sbdms_data::executor::{Database, DbOptions};
use sbdms_data::{ConcurrencyControl, Plan, Session};
use sbdms_kernel::error::ServiceError;
use sbdms_kernel::governor::{CancelToken, ExecContext, QueryMemory};

/// How long a commit may take beside an open scan before the test
/// calls it blocked.
const COMMIT_TIMEOUT: Duration = Duration::from_secs(20);

fn open_mvcc(name: &str) -> Arc<Database> {
    let dir = std::env::temp_dir()
        .join("sbdms-scan-concurrency")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Database::open_opts(
        &dir,
        DbOptions {
            concurrency: ConcurrencyControl::Mvcc,
            ..DbOptions::default()
        },
    )
    .unwrap()
}

/// `acct(k, v)`: `rows` accounts holding 100 each, spread over many
/// heap pages by a pad column.
fn load_accounts(s: &Session, rows: i64) {
    s.execute("CREATE TABLE acct (k INT NOT NULL, v INT NOT NULL, pad TEXT NOT NULL)")
        .unwrap();
    for chunk in (0..rows).collect::<Vec<_>>().chunks(200) {
        let vals: Vec<String> = chunk
            .iter()
            .map(|k| format!("({k}, 100, '{}')", "p".repeat(60)))
            .collect();
        s.execute(&format!("INSERT INTO acct VALUES {}", vals.join(", ")))
            .unwrap();
    }
    s.execute("CREATE INDEX acct_k ON acct (k)").unwrap();
}

/// A `TableScan` of `acct` at `batch_rows` rows per batch, under `ctx`.
fn scan(db: &Database, batch_rows: usize, ctx: ExecContext) -> BatchStream {
    let engine = VectorEngine { batch_rows, ctx };
    db.run_plan_with(&engine, &Plan::TableScan { table: "acct".into() })
        .unwrap()
}

fn rows_of(batches: impl IntoIterator<Item = Batch>) -> Vec<Tuple> {
    batches.into_iter().flat_map(Batch::into_rows).collect()
}

/// The committed rows as a sorted multiset of encodings.
fn sorted(rows: &[Tuple]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = rows.iter().map(|r| encode_tuple(r)).collect();
    out.sort();
    out
}

/// Run `f` on another thread; fail if it does not finish in time.
fn finishes_in_time(what: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    rx.recv_timeout(COMMIT_TIMEOUT)
        .unwrap_or_else(|_| panic!("{what} did not finish within {COMMIT_TIMEOUT:?}"));
}

/// Updates and deletes spread over every page, plus inserts.
fn commit_everywhere(db: &Arc<Database>) {
    let session = db.session();
    session.begin().unwrap();
    session.execute("UPDATE acct SET v = v + 1 WHERE k % 10 = 0").unwrap();
    session.execute("DELETE FROM acct WHERE k % 10 = 5").unwrap();
    session.execute("INSERT INTO acct VALUES (-1, 1, 'late'), (-2, 2, 'late')").unwrap();
    session.commit().unwrap();
}

#[test]
fn commit_proceeds_while_a_scan_is_open() {
    let db = open_mvcc("open-scan");
    let s = db.session();
    load_accounts(&s, 3000);
    let snapshot = db.table("acct").unwrap().scan().unwrap();
    let snapshot: Vec<Tuple> = snapshot.into_iter().map(|(_, row)| row).collect();

    let mut stream = scan(&db, 64, ExecContext::default());
    let first = stream.next().unwrap().unwrap();
    assert_eq!(first.rows(), 64);
    let writer = db.clone();
    finishes_in_time("a commit beside an open scan", move || commit_everywhere(&writer));

    // The rest of the stream still reads the scan's snapshot.
    let rest: Vec<Batch> = stream.collect::<Result<_, _>>().unwrap();
    let mut seen = rows_of([first]);
    seen.extend(rows_of(rest));
    assert_eq!(sorted(&seen), sorted(&snapshot));
    // A new scan sees the commit.
    let now = rows_of(
        scan(&db, 64, ExecContext::default()).collect::<Result<Vec<_>, _>>().unwrap(),
    );
    assert_ne!(sorted(&now), sorted(&snapshot));
    assert_eq!(now.len(), snapshot.len() - 300 + 2);
    assert_eq!(db.mvcc().unwrap().stats().snapshots_active, 0);
}

/// Move `amount` from account `from` to account `to` in one
/// transaction. Every third transfer deletes and re-inserts the debited
/// row instead of updating it. Returns false on a write conflict.
fn transfer(db: &Arc<Database>, from: i64, to: i64, amount: i64, reinsert: bool) -> bool {
    let session = db.session();
    session.begin().unwrap();
    let run = || -> Result<(), ServiceError> {
        if reinsert {
            let found = session.execute(&format!("SELECT v FROM acct WHERE k = {from}"))?;
            let Datum::Int(v) = found.rows[0][0] else {
                panic!("account {from} has no balance")
            };
            session.execute(&format!("DELETE FROM acct WHERE k = {from}"))?;
            session.execute(&format!(
                "INSERT INTO acct VALUES ({from}, {}, 'moved')",
                v - amount
            ))?;
        } else {
            session.execute(&format!("UPDATE acct SET v = v - {amount} WHERE k = {from}"))?;
        }
        session.execute(&format!("UPDATE acct SET v = v + {amount} WHERE k = {to}"))?;
        Ok(())
    };
    match run().and_then(|()| session.commit()) {
        Ok(()) => true,
        Err(ServiceError::SerializationConflict { .. }) => {
            if session.in_txn() {
                session.rollback().unwrap();
            }
            false
        }
        Err(e) => panic!("transfer failed: {e}"),
    }
}

#[test]
fn sum_scans_never_see_a_torn_transfer() {
    const ACCOUNTS: i64 = 1500;
    let db = open_mvcc("transfers");
    let s = db.session();
    load_accounts(&s, ACCOUNTS);
    let total = ACCOUNTS * 100;
    let done = Arc::new(AtomicBool::new(false));

    let writer = {
        let (db, done) = (db.clone(), done.clone());
        thread::spawn(move || {
            let mut committed = 0u64;
            let start = Instant::now();
            let mut i = 0i64;
            while committed < 150 && start.elapsed() < Duration::from_secs(30) {
                // Accounts far apart, so the two writes land on
                // different pages.
                let from = (i * 37) % (ACCOUNTS / 2);
                let to = ACCOUNTS / 2 + (i * 53) % (ACCOUNTS / 2);
                committed += u64::from(transfer(&db, from, to, 1 + i % 9, i % 3 == 0));
                i += 1;
            }
            done.store(true, Ordering::SeqCst);
            committed
        })
    };
    let mut scans = 0;
    while !done.load(Ordering::SeqCst) {
        let sum = s.execute("SELECT SUM(v), COUNT(*) FROM acct").unwrap();
        assert_eq!(
            sum.rows[0],
            vec![Datum::Int(total), Datum::Int(ACCOUNTS)],
            "autocommit scan {scans} saw a torn transfer"
        );
        // The same inside an explicit (read-only) transaction.
        let session = db.session();
        session.begin().unwrap();
        let sum = session.execute("SELECT SUM(v) FROM acct").unwrap();
        session.commit().unwrap();
        assert_eq!(sum.rows[0], vec![Datum::Int(total)], "scan {scans} in a transaction");
        scans += 1;
    }
    let committed = writer.join().unwrap();
    assert!(committed >= 150, "only {committed} transfers committed");
    assert!(scans > 0);
    assert_eq!(db.mvcc().unwrap().stats().snapshots_active, 0);
}

#[test]
fn dropped_or_cancelled_scan_releases_latch_and_snapshot() {
    let db = open_mvcc("release");
    let s = db.session();
    load_accounts(&s, 2000);
    let active = |db: &Database| db.mvcc().unwrap().stats().snapshots_active;

    // Dropped after one batch.
    let mut stream = scan(&db, 32, ExecContext::default());
    stream.next().unwrap().unwrap();
    assert_eq!(active(&db), 1, "an open scan pins its snapshot");
    drop(stream);
    assert_eq!(active(&db), 0, "a dropped scan releases its snapshot");
    let writer = db.clone();
    finishes_in_time("a commit after a dropped scan", move || commit_everywhere(&writer));

    // Cancelled after one batch: the failing pull releases the
    // snapshot even while the stream itself is still alive.
    let token = CancelToken::new();
    let mut stream = scan(&db, 32, ExecContext::new(token.clone(), QueryMemory::unlimited()));
    stream.next().unwrap().unwrap();
    token.cancel("test");
    let mut pulls = 0;
    let err = loop {
        match stream.next() {
            Some(Ok(_)) => pulls += 1,
            Some(Err(e)) => break e,
            None => panic!("a cancelled scan ran to completion"),
        }
    };
    assert!(matches!(err, ServiceError::Cancelled { .. }), "{err}");
    assert!(pulls <= 1, "the scan noticed the cancellation at the next page");
    assert!(stream.next().is_none(), "a failed scan stays finished");
    assert_eq!(active(&db), 0, "a cancelled scan releases its snapshot");
    let writer = db.clone();
    finishes_in_time("a commit after a cancelled scan", move || {
        let session = writer.session();
        session.execute("UPDATE acct SET v = v + 1 WHERE k = 3").unwrap();
    });
    drop(stream);

    // A statement cancelled mid-scan through the SQL path.
    let session = db.session();
    let token = CancelToken::new();
    token.cancel_after_checks(3);
    session.set_cancel_token(Some(token));
    let err = session.execute("SELECT SUM(v) FROM acct").unwrap_err();
    assert!(matches!(err, ServiceError::Cancelled { .. }), "{err}");
    assert_eq!(active(&db), 0, "a cancelled statement releases its snapshot");
}

/// `(k, v)` of every row, sorted.
fn key_values(rows: &[Tuple]) -> Vec<(i64, i64)> {
    let mut out: Vec<(i64, i64)> = rows
        .iter()
        .map(|r| match (&r[0], &r[1]) {
            (Datum::Int(k), Datum::Int(v)) => (*k, *v),
            other => panic!("not an account row: {other:?}"),
        })
        .collect();
    out.sort_unstable();
    out
}

#[test]
fn a_commit_behind_the_scan_does_not_repeat_a_row() {
    let db = open_mvcc("behind");
    let s = db.session();
    load_accounts(&s, 1000);
    assert!(db.mvcc().unwrap().chain_rows("acct", u64::MAX).is_empty());
    // Free a slot on the first page before the scan, so the commit's
    // insert can reuse it.
    s.execute("DELETE FROM acct WHERE k = 2").unwrap();
    let committed = db.table("acct").unwrap().scan().unwrap();
    let first_page = committed[0].0.page;
    let snapshot = key_values(&committed.into_iter().map(|(_, row)| row).collect::<Vec<_>>());

    // The first batch walks the first pages, which hold the lowest keys.
    let mut stream = scan(&db, 64, ExecContext::default());
    let first = stream.next().unwrap().unwrap();
    let walked = key_values(&rows_of([first.clone()]));
    assert!(walked.iter().any(|&(k, _)| k == 0) && walked.iter().any(|&(k, _)| k == 1));
    // Replace and delete rows the scan has passed, delete and replace
    // rows it has not reached yet, and insert into the freed slot of a
    // page it has passed.
    let writer = db.clone();
    finishes_in_time("a commit behind an open scan", move || {
        let session = writer.session();
        session.begin().unwrap();
        session.execute("UPDATE acct SET v = 7 WHERE k = 0").unwrap();
        session.execute("DELETE FROM acct WHERE k = 1").unwrap();
        session.execute("DELETE FROM acct WHERE k = 998").unwrap();
        session.execute("UPDATE acct SET v = 9 WHERE k = 999").unwrap();
        session.execute("INSERT INTO acct VALUES (-7, 7, 'reused')").unwrap();
        session.commit().unwrap();
    });
    let now = db.table("acct").unwrap().scan().unwrap();
    assert!(now.iter().any(|(rid, row)| rid.page == first_page && row[0] == Datum::Int(-7)));
    let rest: Vec<Batch> = stream.collect::<Result<_, _>>().unwrap();
    let mut seen = rows_of([first]);
    seen.extend(rows_of(rest));
    // Exactly the snapshot: rows 0 and 1 once each, at their old values,
    // row 998 still there and the insert not.
    assert_eq!(key_values(&seen), snapshot);
    assert_eq!(db.mvcc().unwrap().stats().snapshots_active, 0);
}

#[test]
fn own_writes_are_seen_once_without_version_chains() {
    for cc in [ConcurrencyControl::Mvcc, ConcurrencyControl::SingleWriter] {
        let dir = std::env::temp_dir()
            .join("sbdms-scan-concurrency")
            .join(format!("own-{cc:?}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::open_opts(
            &dir,
            DbOptions {
                concurrency: cc,
                ..DbOptions::default()
            },
        )
        .unwrap();
        let s = db.session();
        load_accounts(&s, 600);
        if let Some(mvcc) = db.mvcc() {
            assert!(mvcc.chain_rows("acct", u64::MAX).is_empty(), "no version chain");
        }
        s.begin().unwrap();
        s.execute("UPDATE acct SET v = v + 1 WHERE k % 7 = 0").unwrap();
        s.execute("DELETE FROM acct WHERE k % 7 = 3").unwrap();
        // Rewrite an own update, and insert two rows.
        s.execute("UPDATE acct SET v = v + 10 WHERE k = 14").unwrap();
        s.execute("INSERT INTO acct VALUES (-1, 1, 'own'), (-2, 2, 'own')").unwrap();
        let mut want: Vec<(i64, i64)> = (0..600)
            .filter(|k| k % 7 != 3)
            .map(|k| (k, if k == 14 { 111 } else if k % 7 == 0 { 101 } else { 100 }))
            .collect();
        want.extend([(-1, 1), (-2, 2)]);
        want.sort_unstable();
        let got = s.execute("SELECT k, v FROM acct").unwrap().rows;
        assert_eq!(key_values(&got), want, "{cc:?}");
        // The DML target list reads the same rows, once each.
        let touched = s.execute("UPDATE acct SET v = v WHERE k >= -2").unwrap().affected;
        assert_eq!(touched, want.len(), "{cc:?}");
        s.rollback().unwrap();
    }
}

#[test]
fn own_writes_on_one_page_beside_pages_no_commit_touched() {
    for commit_beside in [false, true] {
        let db = open_mvcc(&format!("own-one-page-{commit_beside}"));
        let s = db.session();
        load_accounts(&s, 1000);
        let first_page = db.table("acct").unwrap().scan().unwrap()[0].0.page;
        let clock = db.mvcc().unwrap().clock();
        // Own writes on the first page only: an update, a delete, and an
        // insert (buffered, so on no page until commit).
        s.begin().unwrap();
        s.execute("UPDATE acct SET v = v + 1 WHERE k = 0").unwrap();
        s.execute("DELETE FROM acct WHERE k = 1").unwrap();
        s.execute("INSERT INTO acct VALUES (-1, 1, 'own')").unwrap();
        let heap = db.table("acct").unwrap().scan().unwrap();
        assert!(heap.iter().any(|(rid, row)| rid.page == first_page && row[0] == Datum::Int(1)));
        if commit_beside {
            // Another session commits on a later page: the snapshot now
            // lags the clock, so every page is resolved row by row.
            let other = db.session();
            other.execute("UPDATE acct SET v = 50 WHERE k = 900").unwrap();
            other.execute("DELETE FROM acct WHERE k = 901").unwrap();
            assert_ne!(db.mvcc().unwrap().clock(), clock);
        } else {
            // No commit since the snapshot: every page but the first is
            // read as the committed heap.
            assert_eq!(db.mvcc().unwrap().clock(), clock);
        }
        let mut want: Vec<(i64, i64)> = (0..1000)
            .filter(|&k| k != 1)
            .map(|k| (k, if k == 0 { 101 } else { 100 }))
            .collect();
        want.push((-1, 1));
        want.sort_unstable();
        let got = s.execute("SELECT k, v FROM acct").unwrap().rows;
        assert_eq!(key_values(&got), want, "commit beside: {commit_beside}");
        // The DML target list (a table scan: `k + 0` takes no index)
        // reads the same rows once each; it leaves rows 900 and 901 out,
        // which a commit newer than the snapshot wrote.
        let touched = s.execute("UPDATE acct SET v = v WHERE k + 0 < 900").unwrap().affected;
        assert_eq!(touched, want.iter().filter(|&&(k, _)| k < 900).count());
        s.rollback().unwrap();
        assert_eq!(db.mvcc().unwrap().stats().snapshots_active, 0);
    }
}
