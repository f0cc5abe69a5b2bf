//! Overload-protection integration tests: admission control, load
//! shedding, degraded-quality admission, statement deadlines and
//! memory limits, and cancellation unwinding through the transaction
//! rollback path — on real directories and on the deterministic sim
//! backend.

use std::time::Duration;

use sbdms_access::record::Datum;
use sbdms_data::executor::{Database, DbOptions};
use sbdms_data::Session;
use sbdms_kernel::error::ServiceError;
use sbdms_kernel::events::{Event, EventBus};
use sbdms_kernel::governor::{CancelToken, GovernorConfig};
use sbdms_storage::{SimBackend, SimConfig};

fn db(name: &str) -> std::sync::Arc<Database> {
    db_opts(name, DbOptions::default())
}

fn db_opts(name: &str, opts: DbOptions) -> std::sync::Arc<Database> {
    let dir = std::env::temp_dir()
        .join("sbdms-governor-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Database::open_opts(&dir, opts).unwrap()
}

fn seed(s: &Session, rows: i64) {
    s.execute("CREATE TABLE t (id INT NOT NULL, grp INT NOT NULL, label TEXT NOT NULL)")
        .unwrap();
    let mut batch = Vec::new();
    for i in 0..rows {
        batch.push(format!("({i}, {}, 'row-{i}')", i % 7));
        if batch.len() == 200 {
            s.execute(&format!("INSERT INTO t VALUES {}", batch.join(", ")))
                .unwrap();
            batch.clear();
        }
    }
    if !batch.is_empty() {
        s.execute(&format!("INSERT INTO t VALUES {}", batch.join(", ")))
            .unwrap();
    }
}

/// A governor sized so one pinned slot saturates it immediately.
fn tiny_governor(queue_depth: usize) -> GovernorConfig {
    GovernorConfig {
        enabled: true,
        max_concurrent: 1,
        queue_depth,
        queue_wait_ms: 5,
        ..GovernorConfig::default()
    }
}

/// A database opened at `batch_rows` rows per batch.
fn db_batch(name: &str, batch_rows: usize) -> std::sync::Arc<Database> {
    db_opts(
        &format!("{name}-{batch_rows}"),
        DbOptions {
            execution_engine: Some(batch_rows),
            ..DbOptions::default()
        },
    )
}

/// The two ends of the engine's batch-size range: row at a time, and
/// the default full batch.
const BATCH_ENDS: [usize; 2] = [1, 1024];

#[test]
fn deadline_expired_query_aborts_midscan_on_both_engines() {
    for batch in BATCH_ENDS {
        let db = db_batch("deadline-engines", batch);
        let s = db.session();
        seed(&s, 800);
        // An already-expired deadline: the first cooperative check (one
        // page into the scan) aborts the statement.
        s.set_statement_deadline_ms(Some(0));
        std::thread::sleep(Duration::from_millis(2));
        let err = s.execute("SELECT * FROM t").unwrap_err();
        assert_eq!(err.code(), "cancelled", "batch {batch}: {err}");
        assert!(err.to_string().contains("deadline"), "batch {batch}: {err}");
        assert!(!err.is_recoverable(), "cancellation must not invite retry");
        // The session survives: clearing the deadline, the same
        // statement runs to completion.
        s.set_statement_deadline_ms(None);
        let rows = s.execute("SELECT * FROM t").unwrap().rows;
        assert_eq!(rows.len(), 800, "batch {batch}");
    }
}

#[test]
fn cancel_mid_transaction_rolls_back_like_a_crash() {
    let db = db("cancel-txn");
    let s = db.session();
    seed(&s, 400);
    s.execute("CREATE TABLE audit (id INT NOT NULL)").unwrap();

    s.begin().unwrap();
    s.execute("INSERT INTO audit VALUES (1)").unwrap();
    // Arm a token that fires during the next statement's scan.
    let token = CancelToken::new();
    token.cancel_after_checks(2);
    s.set_cancel_token(Some(token));
    let err = s.execute("SELECT * FROM t ORDER BY label").unwrap_err();
    assert_eq!(err.code(), "cancelled");
    s.set_cancel_token(None);

    // The open transaction was rolled back by the cancellation: the
    // uncommitted insert is gone and the session has no open txn.
    assert!(s.commit().is_err(), "txn must already be closed");
    let rows = s.execute("SELECT * FROM audit").unwrap().rows;
    assert!(rows.is_empty(), "uncommitted insert must be undone");
    // Committed data is intact and the session still works.
    assert_eq!(s.execute("SELECT * FROM t").unwrap().rows.len(), 400);
}

#[test]
fn deadline_abort_on_sim_backend_preserves_invariants() {
    let sim = SimBackend::new(SimConfig::seeded(0x60f));
    let db = Database::open_at(&*sim, DbOptions::default()).unwrap();
    let s = db.session();
    seed(&s, 300);
    s.begin().unwrap();
    s.execute("INSERT INTO t VALUES (9999, 0, 'phantom')").unwrap();
    let token = CancelToken::new();
    token.cancel_after_checks(1);
    s.set_cancel_token(Some(token));
    let err = s.execute("SELECT * FROM t").unwrap_err();
    assert_eq!(err.code(), "cancelled");
    s.set_cancel_token(None);
    // Same invariants as a crash, without a reopen: committed rows
    // visible, the uncommitted insert absent.
    let rows = s.execute("SELECT * FROM t").unwrap().rows;
    assert_eq!(rows.len(), 300);
    assert!(rows.iter().all(|r| r[0] != Datum::Int(9999)));
}

#[test]
fn overload_sheds_with_typed_error_and_session_survives() {
    let db = db_opts(
        "shed",
        DbOptions {
            governor: tiny_governor(0),
            ..DbOptions::default()
        },
    );
    let s = db.session();
    seed(&s, 50);
    // Pin the only slot: with queue depth 0 the next statement sheds
    // immediately with the typed, retryable Overloaded error.
    let blocker = db.governor().admit(false).unwrap();
    let err = s.execute("SELECT * FROM t").unwrap_err();
    assert!(matches!(err, ServiceError::Overloaded { .. }), "{err}");
    assert_eq!(err.code(), "overloaded");
    assert!(err.is_recoverable(), "shed load invites retry with backoff");
    drop(blocker);
    // Slot freed: the same session executes normally.
    assert_eq!(s.execute("SELECT * FROM t").unwrap().rows.len(), 50);
    let snap = db.governor().snapshot();
    assert_eq!(snap.shed, 1);
    assert!(snap.admitted >= 1);
}

#[test]
fn degraded_admission_clamps_sort_budget_and_announces_itself() {
    let db = db_opts(
        "degraded",
        DbOptions {
            governor: tiny_governor(2),
            ..DbOptions::default()
        },
    );
    let s = db.session();
    let decision = format!(
        "degraded: overload (sort budget {})",
        db.governor().config().degraded_sort_budget
    );
    seed(&s, 50);
    let bus = EventBus::new();
    let events = bus.subscribe();
    db.set_event_bus(bus);
    s.set_allow_degraded(true);

    // Saturate the governor, then run under the degraded contract.
    let blocker = db.governor().admit(false).unwrap();
    let explain = s.execute("EXPLAIN SELECT grp FROM t ORDER BY grp").unwrap();
    let plan_text: Vec<String> = explain.rows.iter().map(|r| r[0].to_string()).collect();
    assert!(
        plan_text.iter().any(|l| l == &format!("-- {decision}")),
        "EXPLAIN must show the degradation decision: {plan_text:?}"
    );
    let rows = s
        .execute("SELECT grp FROM t ORDER BY grp")
        .unwrap()
        .rows;
    assert_eq!(rows.len(), 50, "degraded result is still correct");
    drop(blocker);

    let snap = db.governor().snapshot();
    assert!(snap.degraded >= 2, "both statements were degraded: {snap:?}");
    assert_eq!(snap.shed, 0);

    // The degradation surfaced on the event bus too: a plan.selected
    // event names the clamped budget, and governor.degraded fired.
    let mut saw_plan = false;
    let mut saw_governor = false;
    while let Ok(ev) = events.try_recv() {
        if let Event::Custom { topic, detail } = ev {
            if topic == "plan.selected" && detail.ends_with(&decision) {
                saw_plan = true;
            }
            if topic == "governor.degraded" {
                saw_governor = true;
            }
        }
    }
    assert!(saw_plan, "plan.selected must announce the degraded run");
    assert!(saw_governor, "governor.degraded event must fire");

    // Off the overload, statements run undegraded again.
    s.set_allow_degraded(false);
    let explain = s.execute("EXPLAIN SELECT grp FROM t").unwrap();
    assert!(!explain
        .rows
        .iter()
        .any(|r| r[0].to_string().contains("degraded")));
}

#[test]
fn statement_memory_limit_fails_recoverably_and_clears() {
    let db = db("memlimit");
    let s = db.session();
    seed(&s, 300);
    s.set_statement_memory_limit(Some(64));
    let err = s.execute("SELECT DISTINCT label FROM t").unwrap_err();
    assert_eq!(err.code(), "resources", "{err}");
    assert!(err.is_recoverable());
    // Sort spills instead of failing under the same limit.
    let rows = s
        .execute("SELECT label FROM t ORDER BY label")
        .unwrap()
        .rows;
    assert_eq!(rows.len(), 300);
    s.set_statement_memory_limit(None);
    let rows = s.execute("SELECT DISTINCT label FROM t").unwrap().rows;
    assert_eq!(rows.len(), 300);
}

#[test]
fn memory_limited_hash_join_fails_recoverably_on_both_engines() {
    let join = "SELECT t.id, g.name FROM t JOIN g ON t.grp = g.grp";
    for batch in BATCH_ENDS {
        let db = db_batch("memlimit-join", batch);
        let s = db.session();
        seed(&s, 400);
        s.execute("CREATE TABLE g (grp INT NOT NULL, name TEXT NOT NULL)")
            .unwrap();
        let vals: Vec<String> = (0..7).map(|g| format!("({g}, 'g{g}')")).collect();
        s.execute(&format!("INSERT INTO g VALUES {}", vals.join(", ")))
            .unwrap();
        // The build side cannot fit in 64 bytes: the hash build is
        // charged the same at every batch size (valid-key rows only),
        // so both fail with the typed, recoverable resource error.
        s.set_statement_memory_limit(Some(64));
        let err = s.execute(join).unwrap_err();
        assert_eq!(err.code(), "resources", "batch {batch}: {err}");
        assert!(
            err.is_recoverable(),
            "batch {batch}: memory limits invite retry"
        );
        // Clearing the limit, the same session joins normally.
        s.set_statement_memory_limit(None);
        let rows = s.execute(join).unwrap().rows;
        assert_eq!(rows.len(), 400, "batch {batch}");
        let snap = db.governor().snapshot();
        assert_eq!(snap.mem_used, 0, "batch {batch}: join memory released");
    }
}

#[test]
fn conflict_abort_releases_governor_tickets_and_memory() {
    // A serialization conflict under MVCC unwinds through the same
    // admission guard as a successful statement: no ticket and no
    // memory reservation may leak, and both sessions stay usable.
    let db = db_opts(
        "conflict-release",
        DbOptions {
            concurrency: sbdms_data::ConcurrencyControl::Mvcc,
            governor: tiny_governor(4),
            ..DbOptions::default()
        },
    );
    let s = db.session();
    seed(&s, 50);
    let a = db.session();
    let b = db.session();
    a.begin().unwrap();
    a.execute("UPDATE t SET grp = 100 WHERE id = 1").unwrap();
    b.begin().unwrap();
    // First-committer-wins: b hits a's write lock on the same row.
    let err = b.execute("UPDATE t SET grp = 200 WHERE id = 1").unwrap_err();
    assert_eq!(err.code(), "conflict", "{err}");
    assert!(err.is_recoverable(), "conflicts invite retry");
    let snap = db.governor().snapshot();
    assert_eq!(snap.in_flight, 0, "conflict must release its ticket");
    assert_eq!(snap.mem_used, 0, "conflict must release its memory");
    assert_eq!(snap.shed, 0);
    // The losing transaction rolls back cleanly; the winner commits,
    // and a retry of the loser's statement now succeeds.
    b.rollback().unwrap();
    a.commit().unwrap();
    b.execute("UPDATE t SET grp = 200 WHERE id = 1").unwrap();
    let rows = s.execute("SELECT grp FROM t WHERE id = 1").unwrap().rows;
    assert_eq!(rows, vec![vec![Datum::Int(200)]]);
    let snap = db.governor().snapshot();
    assert_eq!(snap.in_flight, 0);
    assert_eq!(snap.mem_used, 0);
}

#[test]
fn single_writer_busy_rejection_releases_governor_state() {
    // The embedded profile's single-writer path reports the same typed
    // conflict when another session holds the database, checked before
    // admission — nothing may be held afterwards either way.
    let db = db_opts(
        "busy-release",
        DbOptions {
            governor: tiny_governor(4),
            ..DbOptions::default()
        },
    );
    let s = db.session();
    seed(&s, 20);
    let a = db.session();
    let b = db.session();
    a.begin().unwrap();
    let err = b.execute("SELECT * FROM t").unwrap_err();
    assert_eq!(err.code(), "conflict", "{err}");
    assert!(err.is_recoverable());
    let snap = db.governor().snapshot();
    assert_eq!(snap.in_flight, 0);
    assert_eq!(snap.mem_used, 0);
    a.rollback().unwrap();
    assert_eq!(b.execute("SELECT * FROM t").unwrap().rows.len(), 20);
}

#[test]
fn governor_counters_track_admissions() {
    let db = db_opts(
        "counters",
        DbOptions {
            governor: tiny_governor(4),
            ..DbOptions::default()
        },
    );
    let s = db.session();
    seed(&s, 20);
    for _ in 0..5 {
        s.execute("SELECT * FROM t").unwrap();
    }
    let snap = db.governor().snapshot();
    assert!(snap.enabled);
    assert!(snap.admitted >= 5);
    assert_eq!(snap.in_flight, 0, "admissions release on completion");
    assert_eq!(snap.shed, 0);
    assert_eq!(snap.cancelled, 0);
    // Memory pool saw the DISTINCT/sort traffic only when charged; at
    // rest nothing is held.
    assert_eq!(snap.mem_used, 0);
}
