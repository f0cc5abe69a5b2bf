//! Deterministic crash-recovery torture harness.
//!
//! The paper's reliability claims (§2: services "can continue to
//! operate" through faults) are qualitative; this crate makes them
//! falsifiable. A seeded workload runs against the deterministic
//! simulated storage device ([`sbdms_storage::sim`]), a crash-point
//! scheduler kills the power at *every* durability event (write,
//! truncate, sync) the workload performs, and after each simulated
//! power loss the database is reopened through its ordinary recovery
//! path and checked against an in-memory oracle:
//!
//! * every transaction whose `commit()` returned `Ok` is fully visible;
//! * no effect of an uncommitted transaction survives;
//! * a commit in flight when the power failed is atomic — all or
//!   nothing, never partial;
//! * the catalog reloads, B-trees validate structurally, and every
//!   index agrees with its heap;
//! * the WAL tail was truncated cleanly at the first torn record
//!   (recovery checkpoints, so the reopened log is empty).
//!
//! Everything — workload, fault decisions, torn writes, bit flips — is
//! a pure function of one `u64` seed, so any failure reproduces from
//! the `seed=… crash_point=…` pair its panic message prints.

use std::collections::BTreeMap;
use std::sync::Arc;

use sbdms_data::executor::{Database, DbOptions};
use sbdms_data::session::{ConcurrencyControl, Session};
use sbdms_data::table::Table;
use sbdms_data::txn::{Durability, TxnId, KIND_COMMIT};
use sbdms_kernel::governor::{CancelToken, GovernorConfig};
use sbdms_storage::replacement::PolicyKind;
use sbdms_storage::{SimBackend, SimConfig, SimStats};

/// Key-space the workload draws from (small, so updates and deletes
/// hit existing rows often).
const KEY_SPACE: i64 = 48;

/// One mutation against the `kv (k INT, v INT)` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert `(k, v)`; `k` is free in the projected state.
    Insert {
        /// Key (unique among live rows).
        k: i64,
        /// Value (globally unique across the whole workload).
        v: i64,
    },
    /// Set `v` for the existing key `k`.
    Update {
        /// Existing key.
        k: i64,
        /// New, globally unique value.
        v: i64,
    },
    /// Delete the existing key `k`.
    Delete {
        /// Existing key.
        k: i64,
    },
}

impl Op {
    /// The SQL statement performing this op.
    pub fn sql(&self) -> String {
        match self {
            Op::Insert { k, v } => format!("INSERT INTO kv VALUES ({k}, {v})"),
            Op::Update { k, v } => format!("UPDATE kv SET v = {v} WHERE k = {k}"),
            Op::Delete { k } => format!("DELETE FROM kv WHERE k = {k}"),
        }
    }

    /// Apply this op to a model state.
    fn apply(&self, state: &mut BTreeMap<i64, i64>) {
        match *self {
            Op::Insert { k, v } | Op::Update { k, v } => {
                state.insert(k, v);
            }
            Op::Delete { k } => {
                state.remove(&k);
            }
        }
    }
}

/// One transaction of the workload.
#[derive(Debug, Clone)]
pub struct WorkloadTxn {
    /// The mutations, in order.
    pub ops: Vec<Op>,
    /// `true` → commit, `false` → roll back.
    pub commit: bool,
}

/// A deterministic transactional workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The transactions, in execution order.
    pub txns: Vec<WorkloadTxn>,
}

/// splitmix64 — the same generator family the sim device uses, kept
/// separate so workload shape and fault decisions draw independent
/// streams from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

impl Workload {
    /// Generate `txns` transactions from `seed`.
    ///
    /// Every inserted or updated value is globally unique, so row
    /// images never repeat — the distinct-row precondition of the
    /// lenient value-based undo recovery applies (see DESIGN.md §4e).
    pub fn generate(seed: u64, txns: usize) -> Workload {
        // Offset the stream so a workload seed and a sim seed that
        // happen to be equal do not walk in lockstep.
        let mut rng = Rng(seed ^ 0x5bd1_e995_7b7d_159d);
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        let mut next_v: i64 = 1_000;
        let mut out = Vec::with_capacity(txns);
        for _ in 0..txns {
            let mut staged = model.clone();
            let mut ops = Vec::new();
            for _ in 0..(1 + rng.below(5)) {
                let roll = rng.below(5);
                let op = if staged.len() < 2 || roll < 2 {
                    // Insert a key that is free in the staged state.
                    let mut k = rng.below(KEY_SPACE as u64) as i64;
                    while staged.contains_key(&k) {
                        k = (k + 1) % KEY_SPACE;
                    }
                    next_v += 1;
                    Op::Insert { k, v: next_v }
                } else {
                    let nth = rng.below(staged.len() as u64) as usize;
                    let k = *staged.keys().nth(nth).expect("non-empty staged state");
                    if roll < 4 {
                        next_v += 1;
                        Op::Update { k, v: next_v }
                    } else {
                        Op::Delete { k }
                    }
                };
                op.apply(&mut staged);
                ops.push(op);
            }
            let commit = rng.below(5) < 4;
            if commit {
                model = staged;
            }
            out.push(WorkloadTxn { ops, commit });
        }
        Workload { txns: out }
    }
}

/// Outcome of driving a workload until completion or power loss.
#[derive(Debug, Clone)]
pub struct CrashRun {
    /// State as of the last transaction whose commit returned `Ok`.
    pub committed: BTreeMap<i64, i64>,
    /// Set when the power failed *inside* a commit call: the commit
    /// record may or may not have become durable. The harness settles
    /// the ambiguity by scanning the durable WAL image for this
    /// transaction's commit record; recovery must agree exactly.
    pub ambiguous: Option<(TxnId, BTreeMap<i64, i64>)>,
    /// The error that stopped the run (`None` = ran to completion).
    pub error: Option<String>,
}

/// Drive `workload` on one session, stopping at the first error.
///
/// The returned oracle advances only when `commit()` returns `Ok` —
/// the same contract the application layer sees.
pub fn run_until_crash(db: &Session, workload: &Workload) -> CrashRun {
    let mut committed: BTreeMap<i64, i64> = BTreeMap::new();
    for txn in &workload.txns {
        let mut staged = committed.clone();
        let txn_id = match db.begin() {
            Ok(id) => id,
            Err(e) => {
                return CrashRun {
                    committed,
                    ambiguous: None,
                    error: Some(e.to_string()),
                }
            }
        };
        for op in &txn.ops {
            op.apply(&mut staged);
            if let Err(e) = db.execute(&op.sql()) {
                return CrashRun {
                    committed,
                    ambiguous: None,
                    error: Some(e.to_string()),
                };
            }
        }
        if txn.commit {
            match db.commit() {
                Ok(()) => committed = staged,
                Err(e) => {
                    return CrashRun {
                        committed,
                        ambiguous: Some((txn_id, staged)),
                        error: Some(e.to_string()),
                    }
                }
            }
        } else if let Err(e) = db.rollback() {
            return CrashRun {
                committed,
                ambiguous: None,
                error: Some(e.to_string()),
            };
        }
    }
    CrashRun {
        committed,
        ambiguous: None,
        error: None,
    }
}

/// Torture-run tuning.
#[derive(Debug, Clone, Copy)]
pub struct TortureConfig {
    /// Transactions per workload. The default is sized so one seed
    /// yields well over 200 distinct crash points.
    pub txns: usize,
    /// Buffer pool frames — small, so steal evictions (dirty
    /// write-back before commit) happen under torture.
    pub buffer_frames: usize,
    /// Concurrency-control service the database deploys. Both modes
    /// share the one buffered write path and commit apply; the serial
    /// and autocommit suites run single-writer, the
    /// concurrent-interleaving suite MVCC.
    pub concurrency: ConcurrencyControl,
}

impl Default for TortureConfig {
    fn default() -> TortureConfig {
        TortureConfig {
            txns: 48,
            buffer_frames: 8,
            concurrency: ConcurrencyControl::SingleWriter,
        }
    }
}

/// What one full torture run covered.
#[derive(Debug, Clone, Copy)]
pub struct TortureReport {
    /// The seed everything derived from.
    pub seed: u64,
    /// Distinct crash points simulated (one reopen + check each).
    pub crash_points: u64,
    /// Crash points that landed inside a commit call (settled against
    /// the durable WAL image).
    pub ambiguous_commits: u64,
    /// Ambiguous commits whose commit record survived the power loss
    /// (recovery must keep the transaction).
    pub ambiguous_kept: u64,
    /// Summed device statistics across all crash points.
    pub stats: SimStats,
}

fn opts(config: &TortureConfig) -> DbOptions {
    DbOptions {
        buffer_frames: config.buffer_frames,
        replacement: PolicyKind::Lru,
        buffer_shards: Some(1),
        sort_budget: 64 << 10,
        parallelism: 1,
        plan_cache_capacity: 0,
        histogram_buckets: 0,
        execution_engine: None,
        governor: GovernorConfig::default(),
        concurrency: config.concurrency,
        // Torture needs deterministic sync schedules: no commit window.
        commit_window_micros: 0,
    }
}

/// Open a fresh database on `sim` and run the durable setup phase
/// (DDL is not undo-logged, so it is confined to a checkpointed
/// prefix the crash scheduler never points into).
fn setup(sim: &SimBackend, config: &TortureConfig) -> Arc<Database> {
    let db = Database::open_at(sim, opts(config)).expect("setup open");
    db.set_durability(Durability::Full);
    let s = db.session();
    s.execute("CREATE TABLE kv (k INT, v INT)").expect("setup ddl");
    s.execute("CREATE INDEX kv_k ON kv (k)").expect("setup index");
    db.checkpoint().expect("setup checkpoint");
    db
}

/// Read the whole `kv` table into a map, panicking on duplicates
/// (duplicate keys after recovery would themselves be a bug).
fn observed_state(db: &Session, ctx: &str) -> BTreeMap<i64, i64> {
    let result = db
        .execute("SELECT k, v FROM kv")
        .unwrap_or_else(|e| panic!("{ctx}: post-recovery scan failed: {e}"));
    let mut state = BTreeMap::new();
    for row in &result.rows {
        let (k, v) = match (&row[0], &row[1]) {
            (sbdms_access::record::Datum::Int(k), sbdms_access::record::Datum::Int(v)) => (*k, *v),
            other => panic!("{ctx}: non-integer row {other:?}"),
        };
        if state.insert(k, v).is_some() {
            panic!("{ctx}: duplicate key {k} after recovery");
        }
    }
    state
}

/// Whether `txn`'s commit record survived in the durable WAL image —
/// read with the same scan recovery uses, so a torn tail that swallows
/// the record counts as "not committed" for both.
fn commit_is_durable(sim: &SimBackend, txn: TxnId) -> bool {
    let bytes = sim.durable_bytes("wal.log").unwrap_or_default();
    sbdms_storage::wal::scan_bytes(&bytes)
        .iter()
        .any(|r| r.kind == KIND_COMMIT && r.payload == txn.to_le_bytes())
}

/// All invariants on a freshly recovered database, given the exact
/// expected state (ambiguity already settled against the durable WAL).
fn check_recovered(db: &Arc<Database>, expected: &BTreeMap<i64, i64>, ctx: &str) {
    let observed = observed_state(&db.session(), ctx);
    assert_eq!(
        &observed, expected,
        "{ctx}: recovered state diverges from the oracle"
    );
    // Structural validation: B-tree shape, heap/index agreement.
    let table = Table::open(db.catalog(), "kv")
        .unwrap_or_else(|e| panic!("{ctx}: catalog lost table `kv`: {e}"));
    table
        .validate()
        .unwrap_or_else(|e| panic!("{ctx}: structural validation failed: {e}"));
    // Recovery checkpointed: the WAL tail (torn or not) is gone.
    let records = db
        .storage()
        .wal
        .records()
        .unwrap_or_else(|e| panic!("{ctx}: recovered WAL does not scan: {e}"));
    assert!(
        records.is_empty(),
        "{ctx}: recovery left {} records in the WAL",
        records.len()
    );
}

/// Profile the workload on a fault-free device: durability events
/// consumed by setup and by the workload (= the crash-point count).
fn profile(seed: u64, config: &TortureConfig, workload: &Workload) -> (u64, u64) {
    let sim = SimBackend::new(SimConfig::seeded(seed));
    let db = setup(&sim, config);
    let base = sim.io_events();
    let run = run_until_crash(&db.session(), workload);
    assert!(
        run.error.is_none(),
        "seed={seed:#x}: fault-free profiling run failed: {:?}",
        run.error
    );
    (base, sim.io_events() - base)
}

/// Run the full torture suite for one seed: simulate a power loss at
/// every durability event the workload performs, recover, and check
/// every invariant. Panics (printing `seed` and `crash_point`) on the
/// first violation.
pub fn torture(seed: u64, config: TortureConfig) -> TortureReport {
    let workload = Workload::generate(seed, config.txns);
    let (base, span) = profile(seed, &config, &workload);
    let mut report = TortureReport {
        seed,
        crash_points: span,
        ambiguous_commits: 0,
        ambiguous_kept: 0,
        stats: SimStats::default(),
    };
    for point in 1..=span {
        let ctx = format!("seed={seed:#x} crash_point={point}");
        let sim = SimBackend::new(SimConfig::seeded(seed));
        let db = setup(&sim, &config);
        assert_eq!(
            sim.io_events(),
            base,
            "{ctx}: nondeterministic setup phase"
        );
        // Durability event `base + point` (the point-th workload
        // event) fails, and the device stays dead until power-cycled.
        sim.crash_after_events(base + point - 1);
        let run = run_until_crash(&db.session(), &workload);
        let error = run.error.clone().unwrap_or_else(|| {
            panic!("{ctx}: armed run finished without crashing")
        });
        assert!(
            error.contains("power loss"),
            "{ctx}: crashed with an unexpected error: {error}"
        );
        assert!(sim.halted(), "{ctx}: device not halted after crash");
        drop(db);
        // Power comes back: unsynced writes independently survive,
        // tear, or vanish per the seeded RNG.
        sim.power_cycle();
        // Settle an in-flight commit against the durable WAL image
        // *before* recovery truncates it: record present → the
        // transaction must be visible, absent → it must not be.
        let expected = match &run.ambiguous {
            None => &run.committed,
            Some((txn, post)) => {
                report.ambiguous_commits += 1;
                if commit_is_durable(&sim, *txn) {
                    report.ambiguous_kept += 1;
                    post
                } else {
                    &run.committed
                }
            }
        };
        let expected = expected.clone();
        let db = Database::open_at(&*sim, opts(&config))
            .unwrap_or_else(|e| panic!("{ctx}: recovery failed to open: {e}"));
        check_recovered(&db, &expected, &ctx);
        let s = sim.stats();
        report.stats.reads += s.reads;
        report.stats.writes += s.writes;
        report.stats.syncs += s.syncs;
        report.stats.power_cycles += s.power_cycles;
        report.stats.writes_dropped += s.writes_dropped;
        report.stats.writes_torn += s.writes_torn;
        report.stats.bits_flipped += s.bits_flipped;
    }
    report
}

/// What one cancellation-torture run covered.
#[derive(Debug, Clone, Copy)]
pub struct CancelReport {
    /// The seed everything derived from.
    pub seed: u64,
    /// Cooperative check quanta the workload passes through — each one
    /// became an injected cancellation (one run + check each).
    pub cancel_points: u64,
}

/// The cancellation half of the torture suite: inject a cooperative
/// cancellation at *every* check quantum the workload passes through,
/// in turn, and verify — on the same handle, without a reopen — that
/// the unwinding left exactly the crash invariants:
///
/// * every transaction whose `commit()` returned `Ok` is fully visible;
/// * no effect of the cancelled (auto-rolled-back) transaction
///   survives;
/// * the B-tree validates and every index agrees with its heap;
/// * the session stays usable (transactions open and commit again).
///
/// Cancellation never lands inside a commit call — checks sit in
/// statement execution only — so there is no ambiguous case to settle.
pub fn cancel_torture(seed: u64, config: TortureConfig) -> CancelReport {
    let workload = Workload::generate(seed, config.txns);
    // Profile on a fault-free run: count the cooperative checks the
    // workload consumes; each one is an injection point.
    let sim = SimBackend::new(SimConfig::seeded(seed));
    let db = setup(&sim, &config);
    let probe = CancelToken::new();
    let session = db.session();
    session.set_cancel_token(Some(probe.clone()));
    let run = run_until_crash(&session, &workload);
    assert!(
        run.error.is_none(),
        "seed={seed:#x}: cancellation profiling run failed: {:?}",
        run.error
    );
    let span = probe.checks();
    assert!(span > 0, "seed={seed:#x}: workload passed no cancellation points");
    drop((session, db));

    for point in 1..=span {
        let ctx = format!("seed={seed:#x} cancel_point={point}");
        let sim = SimBackend::new(SimConfig::seeded(seed));
        let db = setup(&sim, &config);
        let token = CancelToken::new();
        token.cancel_after_checks(point);
        let session = db.session();
        session.set_cancel_token(Some(token));
        let run = run_until_crash(&session, &workload);
        let error = run
            .error
            .unwrap_or_else(|| panic!("{ctx}: armed run finished uncancelled"));
        assert!(error.contains("cancelled"), "{ctx}: unexpected error: {error}");
        assert!(
            run.ambiguous.is_none(),
            "{ctx}: cancellation must not interrupt a commit call"
        );
        // No reopen: the cancellation already unwound via transaction
        // rollback, so this very handle shows the committed state.
        session.set_cancel_token(None);
        let observed = observed_state(&session, &ctx);
        assert_eq!(
            observed, run.committed,
            "{ctx}: state after cancellation diverges from the oracle"
        );
        let table = Table::open(db.catalog(), "kv")
            .unwrap_or_else(|e| panic!("{ctx}: catalog lost table `kv`: {e}"));
        table
            .validate()
            .unwrap_or_else(|e| panic!("{ctx}: structural validation failed: {e}"));
        // The session keeps working: the transaction machinery is not
        // wedged by the unwound statement.
        session
            .begin()
            .unwrap_or_else(|e| panic!("{ctx}: begin after cancel: {e}"));
        session
            .execute("DELETE FROM kv")
            .unwrap_or_else(|e| panic!("{ctx}: statement after cancel: {e}"));
        session
            .rollback()
            .unwrap_or_else(|e| panic!("{ctx}: rollback after cancel: {e}"));
        assert_eq!(
            observed_state(&session, &ctx),
            run.committed,
            "{ctx}: probe transaction leaked"
        );
    }
    CancelReport { seed, cancel_points: span }
}

/// Keys in the private insert range of concurrent transaction `i`:
/// `CONC_OWN_BASE + i * CONC_OWN_SLOTS + slot`. Disjoint per
/// transaction, so no concurrent transaction's predicate can match
/// another's insert — the phantom-free precondition that makes the
/// commit-order model below exact under snapshot isolation.
const CONC_OWN_BASE: i64 = KEY_SPACE;
const CONC_OWN_SLOTS: i64 = 4;

/// One transaction of the concurrent workload.
#[derive(Debug, Clone)]
pub struct ConcurrentTxn {
    /// The mutations, in order.
    pub ops: Vec<Op>,
    /// `true` → commit, `false` → roll back.
    pub commit: bool,
}

/// A deterministic multi-session workload: per-transaction programs
/// plus the seeded pick stream that interleaves their steps.
///
/// Shared-key updates and deletes contend across transactions (the
/// first-committer-wins conflicts under torture), inserts land in
/// per-transaction private ranges, and — like [`Workload`] — every
/// inserted or updated value is globally unique, preserving the
/// distinct-row precondition of value-based undo recovery.
#[derive(Debug, Clone)]
pub struct ConcurrentWorkload {
    /// The transaction programs, indexed by session.
    pub programs: Vec<ConcurrentTxn>,
    /// Seeded stream the scheduler draws interleaving decisions from.
    pub picks: Vec<u64>,
}

impl ConcurrentWorkload {
    /// Generate `txns` concurrent transactions from `seed`.
    pub fn generate(seed: u64, txns: usize) -> ConcurrentWorkload {
        // A third stream: independent of both the sim device and the
        // serial workload generator.
        let mut rng = Rng(seed ^ 0xa076_1d64_78bd_642f);
        let mut next_v: i64 = 500_000;
        let mut programs = Vec::with_capacity(txns);
        for i in 0..txns {
            let mut ops = Vec::new();
            let mut free_slots: Vec<i64> = (0..CONC_OWN_SLOTS).collect();
            for _ in 0..(1 + rng.below(4)) {
                let roll = rng.below(5);
                let op = if roll < 2 && !free_slots.is_empty() {
                    let slot = free_slots.remove(rng.below(free_slots.len() as u64) as usize);
                    next_v += 1;
                    Op::Insert {
                        k: CONC_OWN_BASE + i as i64 * CONC_OWN_SLOTS + slot,
                        v: next_v,
                    }
                } else if roll < 4 {
                    next_v += 1;
                    Op::Update { k: rng.below(KEY_SPACE as u64) as i64, v: next_v }
                } else {
                    Op::Delete { k: rng.below(KEY_SPACE as u64) as i64 }
                };
                ops.push(op);
            }
            let commit = rng.below(5) < 4;
            programs.push(ConcurrentTxn { ops, commit });
        }
        let picks = (0..64).map(|_| rng.next()).collect();
        ConcurrentWorkload { programs, picks }
    }

    /// The interleaving: step `order[n]` advances that transaction by
    /// one step (its ops, then its commit/rollback).
    fn schedule(&self) -> Vec<usize> {
        let mut remaining: Vec<usize> =
            self.programs.iter().map(|p| p.ops.len() + 1).collect();
        let mut order = Vec::new();
        let mut picks = self.picks.iter().cycle();
        while remaining.iter().any(|&r| r > 0) {
            let alive: Vec<usize> =
                (0..remaining.len()).filter(|&i| remaining[i] > 0).collect();
            let i = alive[(*picks.next().expect("cycle") % alive.len() as u64) as usize];
            remaining[i] -= 1;
            order.push(i);
        }
        order
    }
}

/// Apply a committed program to the model with the engine's statement
/// semantics (an UPDATE or DELETE of an absent key affects nothing),
/// returning whether any row actually changed. Exact at commit time:
/// first-committer-wins guarantees no key this transaction matched was
/// concurrently modified, and private insert ranges rule out phantoms.
fn apply_concurrent(model: &BTreeMap<i64, i64>, ops: &[Op]) -> (BTreeMap<i64, i64>, bool) {
    let mut m = model.clone();
    let mut effectful = false;
    for op in ops {
        match *op {
            Op::Insert { k, v } => {
                m.insert(k, v);
                effectful = true;
            }
            Op::Update { k, v } => {
                if let Some(slot) = m.get_mut(&k) {
                    *slot = v;
                    effectful = true;
                }
            }
            Op::Delete { k } => {
                effectful |= m.remove(&k).is_some();
            }
        }
    }
    (m, effectful)
}

/// Outcome of driving a concurrent workload until completion or power
/// loss.
#[derive(Debug, Clone)]
pub struct ConcurrentCrashRun {
    /// Exact state as of the last commit that returned `Ok`.
    pub committed: BTreeMap<i64, i64>,
    /// Commits that returned `Ok` *and* wrote rows — each appended
    /// exactly one durable commit record to the WAL.
    pub durable_commits: u64,
    /// Set when the power failed inside a commit call: the state if
    /// that commit's record turns out to have become durable.
    pub ambiguous: Option<BTreeMap<i64, i64>>,
    /// Statements aborted by first-committer-wins (each rolled its
    /// transaction back; losers are retried serially at the end).
    pub conflicts: u64,
    /// The error that stopped the run (`None` = ran to completion).
    pub error: Option<String>,
}

/// Drive the interleaved workload against `db` (one [`Session`] per
/// transaction), stopping at the first non-conflict error. Conflict
/// losers roll back and are retried serially after the schedule — under
/// snapshot isolation an update may be aborted, but never lost.
pub fn run_concurrent_until_crash(
    db: &Arc<Database>,
    workload: &ConcurrentWorkload,
    initial: &BTreeMap<i64, i64>,
) -> ConcurrentCrashRun {
    #[derive(Clone, Copy, PartialEq)]
    enum St {
        Pending,
        Active,
        Closed,
        ConflictAborted,
    }
    let sessions: Vec<Session> = workload.programs.iter().map(|_| db.session()).collect();
    let mut status = vec![St::Pending; workload.programs.len()];
    let mut cursor = vec![0usize; workload.programs.len()];
    let mut aborted: Vec<usize> = Vec::new();
    let mut run = ConcurrentCrashRun {
        committed: initial.clone(),
        durable_commits: 0,
        ambiguous: None,
        conflicts: 0,
        error: None,
    };
    // One closing step for transaction `i`: commit (settling the model)
    // or roll back. Returns `false` when the run must stop.
    let close = |i: usize, run: &mut ConcurrentCrashRun| -> bool {
        let program = &workload.programs[i];
        if program.commit {
            let (post, effectful) = apply_concurrent(&run.committed, &program.ops);
            match sessions[i].commit() {
                Ok(()) => {
                    run.committed = post;
                    run.durable_commits += u64::from(effectful);
                    true
                }
                Err(e) => {
                    run.ambiguous = Some(post);
                    run.error = Some(e.to_string());
                    false
                }
            }
        } else {
            match sessions[i].rollback() {
                Ok(()) => true,
                Err(e) => {
                    run.error = Some(e.to_string());
                    false
                }
            }
        }
    };
    for i in workload.schedule() {
        if status[i] != St::Pending && status[i] != St::Active {
            continue; // closed or conflict-aborted: steps already settled
        }
        if status[i] == St::Pending {
            if let Err(e) = sessions[i].begin() {
                run.error = Some(e.to_string());
                return run;
            }
            status[i] = St::Active;
        }
        let step = cursor[i];
        cursor[i] += 1;
        if step == workload.programs[i].ops.len() {
            if !close(i, &mut run) {
                return run;
            }
            status[i] = St::Closed;
            continue;
        }
        match sessions[i].execute(&workload.programs[i].ops[step].sql()) {
            Ok(_) => {}
            Err(e) if e.code() == "conflict" => {
                run.conflicts += 1;
                if let Err(e) = sessions[i].rollback() {
                    run.error = Some(e.to_string());
                    return run;
                }
                status[i] = St::ConflictAborted;
                aborted.push(i);
            }
            Err(e) => {
                run.error = Some(e.to_string());
                return run;
            }
        }
    }
    // The serial retry tail: conflict losers rerun one at a time. With
    // no concurrent writer left, a retry must never conflict again —
    // snapshot isolation may abort an update, but never lose it.
    for i in aborted {
        if let Err(e) = sessions[i].begin() {
            run.error = Some(e.to_string());
            return run;
        }
        for op in &workload.programs[i].ops {
            if let Err(e) = sessions[i].execute(&op.sql()) {
                assert!(
                    e.code() != "conflict",
                    "txn {i}: conflict on the serial retry: {e}"
                );
                run.error = Some(e.to_string());
                return run;
            }
        }
        if !close(i, &mut run) {
            return run;
        }
    }
    run
}

/// What one concurrent- or autocommit-torture run covered.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrentReport {
    /// The seed everything derived from.
    pub seed: u64,
    /// Distinct crash points simulated (one reopen + check each).
    pub crash_points: u64,
    /// First-committer-wins conflicts the fault-free run hit (each one
    /// rolled a transaction back and retried it serially).
    pub conflicts: u64,
    /// Crash points that landed inside a commit call.
    pub ambiguous_commits: u64,
    /// Ambiguous commits whose commit record survived the power loss.
    pub ambiguous_kept: u64,
    /// Summed device statistics across all crash points.
    pub stats: SimStats,
}

/// The durable setup phase of the concurrent suite: the serial setup
/// plus a seeded shared key range the transactions contend on, all
/// checkpointed so the crash scheduler never points into it. Returns
/// the handle and the initial model state.
fn setup_concurrent(sim: &SimBackend, config: &TortureConfig) -> (Arc<Database>, BTreeMap<i64, i64>) {
    let db = setup(sim, config);
    let mut initial = BTreeMap::new();
    let vals: Vec<String> = (0..KEY_SPACE / 2)
        .map(|k| {
            initial.insert(k, k + 1);
            format!("({k}, {})", k + 1)
        })
        .collect();
    db.session()
        .execute(&format!("INSERT INTO kv VALUES {}", vals.join(", ")))
        .expect("setup seed rows");
    db.checkpoint().expect("setup checkpoint");
    (db, initial)
}

/// Commit records in the durable WAL image — read with the same scan
/// recovery uses. Every effectful commit that returned `Ok` synced
/// exactly one, so the count settles an in-flight commit: expected
/// count → lost, expected + 1 → kept.
fn durable_commit_count(sim: &SimBackend) -> u64 {
    let bytes = sim.durable_bytes("wal.log").unwrap_or_default();
    sbdms_storage::wal::scan_bytes(&bytes)
        .iter()
        .filter(|r| r.kind == KIND_COMMIT)
        .count() as u64
}

/// The concurrent-interleaving torture suite: a multi-session MVCC
/// workload replayed with a power loss at *every* durability event, the
/// database reopened through ordinary recovery each time, and the
/// recovered state checked for committed-visible, uncommitted-absent,
/// no-lost-update, and structural integrity. In-flight commits are
/// settled against the durable WAL image before recovery truncates it.
/// Panics (printing `seed` and `crash_point`) on the first violation.
pub fn concurrent_torture(seed: u64, config: TortureConfig) -> ConcurrentReport {
    let config = TortureConfig { concurrency: ConcurrencyControl::Mvcc, ..config };
    let workload = ConcurrentWorkload::generate(seed, config.txns);
    crash_every_event(
        seed,
        &config,
        "concurrent",
        |sim| setup_concurrent(sim, &config),
        |db, initial| run_concurrent_until_crash(db, &workload, initial),
    )
}

/// Crash a workload at *every* durability event it performs, reopen
/// through ordinary recovery each time, and check the recovered state.
/// `setup` builds the checkpointed starting state and `drive` runs the
/// workload until its first error. An in-flight commit is settled by
/// counting the durable commit records: every effectful commit that
/// returned `Ok` synced exactly one. Shared by the concurrent and the
/// autocommit suites (`suite` names the one in panic messages).
fn crash_every_event(
    seed: u64,
    config: &TortureConfig,
    suite: &str,
    setup: impl Fn(&SimBackend) -> (Arc<Database>, BTreeMap<i64, i64>),
    drive: impl Fn(&Arc<Database>, &BTreeMap<i64, i64>) -> ConcurrentCrashRun,
) -> ConcurrentReport {
    // Fault-free profiling run: the durability-event span of the
    // workload (= the crash-point count) and the conflict pattern.
    let sim = SimBackend::new(SimConfig::seeded(seed));
    let (db, initial) = setup(&sim);
    let base = sim.io_events();
    let profile_run = drive(&db, &initial);
    assert!(
        profile_run.error.is_none(),
        "seed={seed:#x}: fault-free {suite} profiling run failed: {:?}",
        profile_run.error
    );
    let span = sim.io_events() - base;
    drop(db);

    let mut report = ConcurrentReport {
        seed,
        crash_points: span,
        conflicts: profile_run.conflicts,
        ambiguous_commits: 0,
        ambiguous_kept: 0,
        stats: SimStats::default(),
    };
    for point in 1..=span {
        let ctx = format!("seed={seed:#x} crash_point={point} ({suite})");
        let sim = SimBackend::new(SimConfig::seeded(seed));
        let (db, initial) = setup(&sim);
        assert_eq!(sim.io_events(), base, "{ctx}: nondeterministic setup phase");
        sim.crash_after_events(base + point - 1);
        let run = drive(&db, &initial);
        let error = run
            .error
            .clone()
            .unwrap_or_else(|| panic!("{ctx}: armed run finished without crashing"));
        assert!(
            error.contains("power loss"),
            "{ctx}: crashed with an unexpected error: {error}"
        );
        assert!(sim.halted(), "{ctx}: device not halted after crash");
        drop(db);
        sim.power_cycle();
        let expected = match &run.ambiguous {
            None => run.committed.clone(),
            Some(post) => {
                report.ambiguous_commits += 1;
                let durable = durable_commit_count(&sim);
                if durable == run.durable_commits + 1 {
                    report.ambiguous_kept += 1;
                    post.clone()
                } else {
                    assert_eq!(
                        durable, run.durable_commits,
                        "{ctx}: durable commit-record count is neither outcome"
                    );
                    run.committed.clone()
                }
            }
        };
        let db = Database::open_at(&*sim, opts(config))
            .unwrap_or_else(|e| panic!("{ctx}: recovery failed to open: {e}"));
        check_recovered(&db, &expected, &ctx);
        let s = sim.stats();
        report.stats.reads += s.reads;
        report.stats.writes += s.writes;
        report.stats.syncs += s.syncs;
        report.stats.power_cycles += s.power_cycles;
        report.stats.writes_dropped += s.writes_dropped;
        report.stats.writes_torn += s.writes_torn;
        report.stats.bits_flipped += s.bits_flipped;
    }
    report
}

/// Rows the autocommit suite seeds: `kv` spans several heap pages, so
/// one statement's apply writes back more than one page and a power
/// loss can land between them.
const AUTO_ROWS: i64 = 600;

/// One statement of the autocommit suite: a multi-row
/// `UPDATE kv SET v = … WHERE k < bound`, run outside any transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutocommitUpdate {
    /// Exclusive key bound (at least 2, so at least two rows match).
    pub bound: i64,
    /// New value, unique per statement.
    pub v: i64,
}

impl AutocommitUpdate {
    /// Generate `n` seeded statements.
    pub fn generate(seed: u64, n: usize) -> Vec<AutocommitUpdate> {
        // A fourth stream, independent of the other generators.
        let mut rng = Rng(seed ^ 0x2545_f491_4f6c_dd1d);
        (0..n)
            .map(|i| AutocommitUpdate {
                bound: 2 + rng.below(AUTO_ROWS as u64 - 1) as i64,
                v: 2_000_000 + i as i64,
            })
            .collect()
    }

    /// The SQL statement.
    pub fn sql(&self) -> String {
        format!("UPDATE kv SET v = {} WHERE k < {}", self.v, self.bound)
    }

    /// The state after the whole statement.
    fn applied(&self, state: &BTreeMap<i64, i64>) -> BTreeMap<i64, i64> {
        let mut next = state.clone();
        for (_, v) in next.range_mut(..self.bound) {
            *v = self.v;
        }
        next
    }
}

/// Drive the statements on one session of `db` until the first error.
/// Every statement matches rows, so each one that returned `Ok` synced
/// exactly one commit record; the one that failed is in flight.
fn run_autocommit_until_crash(
    db: &Arc<Database>,
    stmts: &[AutocommitUpdate],
    initial: &BTreeMap<i64, i64>,
) -> ConcurrentCrashRun {
    let mut run = ConcurrentCrashRun {
        committed: initial.clone(),
        durable_commits: 0,
        ambiguous: None,
        conflicts: 0,
        error: None,
    };
    let session = db.session();
    for stmt in stmts {
        let post = stmt.applied(&run.committed);
        match session.execute(&stmt.sql()) {
            Ok(_) => {
                run.committed = post;
                run.durable_commits += 1;
            }
            Err(e) => {
                run.ambiguous = Some(post);
                run.error = Some(e.to_string());
                return run;
            }
        }
    }
    run
}

/// The autocommit-atomicity suite: multi-row autocommit UPDATEs under
/// single-writer at [`Durability::Full`], a power loss at *every*
/// durability event, and each recovered state must show every statement
/// whole or not at all — the one in flight settled, like a commit call,
/// against the durable commit records. Panics (printing `seed` and
/// `crash_point`) on the first violation.
pub fn autocommit_torture(seed: u64, config: TortureConfig) -> ConcurrentReport {
    let config = TortureConfig {
        concurrency: ConcurrencyControl::SingleWriter,
        ..config
    };
    let stmts = AutocommitUpdate::generate(seed, config.txns);
    let setup = |sim: &SimBackend| {
        let db = setup(sim, &config);
        let initial: BTreeMap<i64, i64> = (0..AUTO_ROWS).map(|k| (k, k)).collect();
        let rows: Vec<String> = initial.iter().map(|(k, v)| format!("({k}, {v})")).collect();
        let s = db.session();
        for chunk in rows.chunks(300) {
            s.execute(&format!("INSERT INTO kv VALUES {}", chunk.join(", ")))
                .expect("setup seed rows");
        }
        db.checkpoint().expect("setup checkpoint");
        (db, initial)
    };
    crash_every_event(seed, &config, "autocommit", setup, |db, initial| {
        run_autocommit_until_crash(db, &stmts, initial)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbdms_access::record::Datum;
    use sbdms_kernel::faults::FaultMode;

    #[test]
    fn workload_generation_is_deterministic() {
        let a = Workload::generate(9, 20);
        let b = Workload::generate(9, 20);
        for (x, y) in a.txns.iter().zip(&b.txns) {
            assert_eq!(x.ops, y.ops);
            assert_eq!(x.commit, y.commit);
        }
        // Different seeds shape different workloads.
        let c = Workload::generate(10, 20);
        assert!(a.txns.iter().zip(&c.txns).any(|(x, y)| x.ops != y.ops));
    }

    #[test]
    fn workload_keeps_row_images_distinct() {
        let wl = Workload::generate(3, 60);
        let mut values = std::collections::HashSet::new();
        for txn in &wl.txns {
            for op in &txn.ops {
                if let Op::Insert { v, .. } | Op::Update { v, .. } = op {
                    assert!(values.insert(*v), "value {v} reused");
                }
            }
        }
    }

    #[test]
    fn fault_free_run_matches_oracle() {
        let config = TortureConfig::default();
        let sim = SimBackend::new(SimConfig::seeded(11));
        let db = setup(&sim, &config);
        let wl = Workload::generate(11, config.txns);
        let s = db.session();
        let run = run_until_crash(&s, &wl);
        assert!(run.error.is_none());
        assert_eq!(observed_state(&s, "fault-free"), run.committed);
        Table::open(db.catalog(), "kv").unwrap().validate().unwrap();
    }

    #[test]
    fn injected_io_faults_surface_and_clear() {
        // The kernel fault taxonomy drives the device: after the fault
        // budget is exhausted every call fails; clearing the mode
        // restores service and the database is still consistent.
        for concurrency in [ConcurrencyControl::SingleWriter, ConcurrencyControl::Mvcc] {
            let ctx = format!("{concurrency}");
            let config = TortureConfig {
                concurrency,
                ..TortureConfig::default()
            };
            let sim = SimBackend::new(SimConfig::seeded(5));
            let db = setup(&sim, &config);
            let wl = Workload::generate(5, config.txns);
            sim.set_fault_mode(FaultMode::FailAfter(40));
            let run = run_until_crash(&db.session(), &wl);
            let err = run.error.expect("fault budget must eventually trip");
            assert!(err.contains("sim disk fault"), "{ctx}: {err}");
            sim.set_fault_mode(FaultMode::None);
            drop(db);
            // No power loss happened: volatile state is intact, reopen
            // recovers the interrupted transaction. A fault inside a
            // commit call leaves either outcome valid (never a blend).
            let db = Database::open_at(&*sim, opts(&config)).unwrap();
            let observed = observed_state(&db.session(), &ctx);
            match &run.ambiguous {
                None => assert_eq!(observed, run.committed, "{ctx}"),
                Some((_, alt)) => {
                    assert!(observed == run.committed || observed == *alt, "{ctx}")
                }
            }
            Table::open(db.catalog(), "kv").unwrap().validate().unwrap();
            drop(db);
            fault_mid_apply(&config);
        }
    }

    /// Every `kv` row as `(k, v)`, sorted: the table's multiset.
    fn kv_multiset(db: &Session) -> Vec<(i64, i64)> {
        let mut rows: Vec<(i64, i64)> = db
            .execute("SELECT k, v FROM kv")
            .unwrap()
            .rows
            .iter()
            .map(|row| match (&row[0], &row[1]) {
                (Datum::Int(k), Datum::Int(v)) => (*k, *v),
                other => panic!("non-integer row {other:?}"),
            })
            .collect();
        rows.sort_unstable();
        rows
    }

    /// A commit apply that fails part-way is reverted from the write
    /// set. One transaction turns `(0, 7)` into a byte-identical copy of
    /// `(0, 0)` — on a hot page, applied first — and rewrites a row on a
    /// page the pool has evicted. The device fails every call from the
    /// commit on, so the apply trips on the second row's page fetch.
    /// Afterwards the table's multiset and its index equal the
    /// pre-commit state, and the session keeps working.
    fn fault_mid_apply(config: &TortureConfig) {
        let ctx = format!("{} fault mid-apply", config.concurrency);
        let sim = SimBackend::new(SimConfig::seeded(6));
        let db = setup(&sim, config);
        let s = db.session();
        s.execute("INSERT INTO kv VALUES (0, 7)").unwrap();
        let rows: Vec<String> = (0..3_000).map(|k| format!("({k}, {k})")).collect();
        for chunk in rows.chunks(500) {
            s.execute(&format!("INSERT INTO kv VALUES {}", chunk.join(", ")))
                .unwrap();
        }
        db.checkpoint().unwrap();
        let before = kv_multiset(&s);
        s.begin().unwrap();
        // The far row first; a full scan then moves the pool past its
        // page, and the near row's probe evicts it.
        s.execute("UPDATE kv SET v = -1 WHERE k = 1500").unwrap();
        s.execute("SELECT COUNT(*) FROM kv").unwrap();
        s.execute("UPDATE kv SET v = 0 WHERE k = 0 AND v = 7")
            .unwrap();
        sim.set_fault_mode(FaultMode::FailAlways("disk gone".into()));
        let err = s
            .commit()
            .expect_err("the apply must trip on the cold page");
        assert!(err.to_string().contains("sim disk fault"), "{ctx}: {err}");
        sim.set_fault_mode(FaultMode::None);
        assert!(
            s.rollback().is_err(),
            "{ctx}: a failed commit closes the transaction"
        );
        assert_eq!(
            kv_multiset(&s),
            before,
            "{ctx}: the revert restores the multiset"
        );
        Table::open(db.catalog(), "kv").unwrap().validate().unwrap();
        let zeros = s
            .execute("SELECT v FROM kv WHERE k = 0 ORDER BY v")
            .unwrap()
            .rows;
        assert_eq!(
            zeros,
            vec![vec![Datum::Int(0)], vec![Datum::Int(7)]],
            "{ctx}: index probe"
        );
        // The session is usable: the same transaction now commits.
        s.begin().unwrap();
        s.execute("UPDATE kv SET v = 0 WHERE k = 0 AND v = 7")
            .unwrap();
        s.commit().unwrap();
        let zeros = s.execute("SELECT v FROM kv WHERE k = 0").unwrap().rows;
        assert_eq!(
            zeros,
            vec![vec![Datum::Int(0)]; 2],
            "{ctx}: committed after the fault"
        );
        Table::open(db.catalog(), "kv").unwrap().validate().unwrap();
    }

    #[test]
    fn a_short_cancellation_torture_run_passes() {
        let report = cancel_torture(
            0xCA11,
            TortureConfig {
                txns: 6,
                buffer_frames: 16,
                ..TortureConfig::default()
            },
        );
        assert!(report.cancel_points > 10, "{report:?}");
    }

    #[test]
    fn concurrent_workload_generation_is_deterministic() {
        let a = ConcurrentWorkload::generate(7, 12);
        let b = ConcurrentWorkload::generate(7, 12);
        for (x, y) in a.programs.iter().zip(&b.programs) {
            assert_eq!(x.ops, y.ops);
            assert_eq!(x.commit, y.commit);
        }
        assert_eq!(a.picks, b.picks);
        assert_eq!(a.schedule(), b.schedule());
        // Private insert ranges really are disjoint per transaction.
        for (i, txn) in a.programs.iter().enumerate() {
            for op in &txn.ops {
                if let Op::Insert { k, .. } = op {
                    let owner = (k - CONC_OWN_BASE) / CONC_OWN_SLOTS;
                    assert_eq!(owner as usize, i, "insert key {k} leaked across txns");
                }
            }
        }
    }

    #[test]
    fn concurrent_fault_free_run_matches_oracle() {
        let config = TortureConfig {
            concurrency: ConcurrencyControl::Mvcc,
            ..TortureConfig::default()
        };
        let sim = SimBackend::new(SimConfig::seeded(21));
        let (db, initial) = setup_concurrent(&sim, &config);
        let wl = ConcurrentWorkload::generate(21, config.txns);
        let run = run_concurrent_until_crash(&db, &wl, &initial);
        assert!(run.error.is_none(), "{:?}", run.error);
        assert_eq!(observed_state(&db.session(), "concurrent fault-free"), run.committed);
        Table::open(db.catalog(), "kv").unwrap().validate().unwrap();
    }

    #[test]
    fn a_short_concurrent_torture_run_passes() {
        let report = concurrent_torture(
            0xC0C0A,
            TortureConfig {
                txns: 5,
                buffer_frames: 16,
                ..TortureConfig::default()
            },
        );
        assert!(report.crash_points > 20, "{report:?}");
        assert_eq!(report.stats.power_cycles, report.crash_points);
    }

    #[test]
    fn a_short_autocommit_torture_run_passes() {
        let report = autocommit_torture(
            0xA7C0,
            TortureConfig {
                txns: 3,
                ..TortureConfig::default()
            },
        );
        assert!(report.crash_points > 10, "{report:?}");
        assert_eq!(report.stats.power_cycles, report.crash_points);
    }

    #[test]
    fn a_short_torture_run_passes() {
        let report = torture(
            0xDECAF,
            TortureConfig {
                txns: 6,
                buffer_frames: 16,
                ..TortureConfig::default()
            },
        );
        assert!(report.crash_points > 20, "{report:?}");
        assert!(report.stats.power_cycles == report.crash_points);
    }
}
