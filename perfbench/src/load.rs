//! The load generator: one thread per connection, each a closed or open
//! loop of generated SQL text sent through `sbdms_server::Client`.
//!
//! Client code is the same in every phase and in traced and untraced
//! runs: each thread logs every operation and statement with its start
//! time, and the caller cuts the logs into phases afterwards.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sbdms::access::Datum;
use sbdms::kernel::error::ServiceError;
use sbdms_server::{Client, QueryOutcome};

use crate::gen::{
    partitions, txn_pair, Data, KeyStream, Rng, ScanQuery, ScanRotation, Schedule, Shape,
};

/// Open-loop rate of `scan_mix`'s writer, per second.
pub const WRITE_RATE: f64 = 20.0;

/// Keep every this-many-th unit of work as a replay sample.
const SAMPLE_EVERY: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointRead,
    WriteTxn,
    ScanMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PointRead, Workload::WriteTxn, Workload::ScanMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRead => "point_read",
            Workload::WriteTxn => "write_txn",
            Workload::ScanMix => "scan_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The operation whose rate and latency are the workload's headline.
    pub fn primary(self) -> Kind {
        match self {
            Workload::PointRead => Kind::Read,
            Workload::WriteTxn => Kind::Txn,
            Workload::ScanMix => Kind::Scan(Shape::Sum),
        }
    }

    /// The table the workload's keyed statements address.
    pub fn keyed_table(self) -> &'static str {
        match self {
            Workload::PointRead => "t",
            Workload::WriteTxn | Workload::ScanMix => "acct",
        }
    }
}

/// One unit of work: a statement, or a whole transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Txn,
    Scan(Shape),
    Write,
}

impl Kind {
    /// Kinds that match ignoring the scan shape.
    pub fn same_op(self, other: Kind) -> bool {
        matches!(
            (self, other),
            (Kind::Read, Kind::Read)
                | (Kind::Txn, Kind::Txn)
                | (Kind::Scan(_), Kind::Scan(_))
                | (Kind::Write, Kind::Write)
        )
    }
}

/// A unit of work with its inputs, for replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Point read of key `k` in `t`.
    Read(i64),
    /// Write transaction: +1 on the first key, -1 on the second.
    Txn(i64, i64),
    /// The scan query at this index of `scan_queries`.
    Scan(usize),
    /// Single `UPDATE` adding 1 to one `acct` key.
    Write(i64),
}

impl Unit {
    /// The SQL statements of the unit, without transaction verbs.
    pub fn statements(self, queries: &[ScanQuery]) -> Vec<String> {
        match self {
            Unit::Read(k) => vec![format!("SELECT v FROM t WHERE k = {k}")],
            Unit::Txn(a, b) => vec![
                format!("SELECT v FROM acct WHERE k = {a}"),
                format!("UPDATE acct SET v = v + 1 WHERE k = {a}"),
                format!("UPDATE acct SET v = v - 1 WHERE k = {b}"),
            ],
            Unit::Scan(q) => vec![queries[q].sql.clone()],
            Unit::Write(k) => vec![format!("UPDATE acct SET v = v + 1 WHERE k = {k}")],
        }
    }

    /// Whether the unit runs inside `BEGIN` … `COMMIT`.
    pub fn explicit_txn(self) -> bool {
        matches!(self, Unit::Txn(..))
    }

    /// The changes to `acct` the unit makes once committed.
    pub fn deltas(self) -> Vec<(i64, i64)> {
        match self {
            Unit::Txn(a, b) => vec![(a, 1), (b, -1)],
            Unit::Write(k) => vec![(k, 1)],
            Unit::Read(_) | Unit::Scan(_) => Vec::new(),
        }
    }

    /// The indexed key the unit looks up first, if any.
    pub fn key(self) -> Option<i64> {
        match self {
            Unit::Read(k) | Unit::Txn(k, _) | Unit::Write(k) => Some(k),
            Unit::Scan(_) => None,
        }
    }
}

/// How long each client runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until this instant.
    Until(Instant),
    /// Exactly this many units per client (the self-tests' fixed-size
    /// runs).
    #[cfg(test)]
    Ops(u64),
}

/// One attempted unit of work.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub kind: Kind,
    /// When it was due (open loop) or sent (closed loop).
    pub start: Instant,
    pub lat_ns: u64,
    /// Error code if it failed.
    pub code: Option<&'static str>,
}

/// Everything one client thread saw.
#[derive(Debug, Default)]
pub struct WorkerLog {
    pub ops: Vec<OpRecord>,
    /// Round trip of each SQL statement sent, transaction verbs
    /// excluded: `(sent, nanoseconds)`.
    pub stmts: Vec<(Instant, u64)>,
    /// How late each request went out: behind its due time (open
    /// loop), or after the previous reply (closed loop).
    pub lag: Vec<(Instant, u64)>,
    /// Every `SAMPLE_EVERY`-th unit, with its start.
    pub samples: Vec<(Instant, Unit)>,
    /// Changes to `acct` committed in this phase, by key.
    pub tally: BTreeMap<i64, i64>,
    /// First wrong answer or unrecoverable error; ends the run.
    pub fatal: Option<String>,
}

/// What the load generator needs to know about the database.
pub struct Target<'a> {
    pub addr: SocketAddr,
    pub data: &'a Data,
    pub queries: &'a [ScanQuery],
}

/// Errors a client may meet and carry on from. Every other error ends
/// the run.
pub fn tolerated(e: &ServiceError) -> bool {
    e.is_recoverable() || matches!(e, ServiceError::Cancelled { .. })
}

/// Run `workload` on one connection per client state until `budget` is
/// spent. The generator state carries over, so successive phases draw
/// fresh keys. On `scan_mix` the last of two or more clients is the
/// open-loop writer and the others scan.
pub fn drive(
    workload: Workload,
    target: &Target,
    state: &mut [ClientState],
    budget: Budget,
) -> Vec<WorkerLog> {
    let stop = AtomicBool::new(false);
    let writer_index = state.len().saturating_sub(1).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = state
            .iter_mut()
            .enumerate()
            .map(|(c, st)| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut w = Worker {
                        log: WorkerLog::default(),
                        stop,
                        budget,
                        done_ops: 0,
                        failed_sql: None,
                    };
                    let role = match workload {
                        Workload::ScanMix if c == writer_index => Role::Writer,
                        Workload::ScanMix => Role::Scanner,
                        Workload::PointRead => Role::Reader,
                        Workload::WriteTxn => Role::Transfer,
                    };
                    if let Err(e) = w.run(role, target, st) {
                        w.fail(e);
                    }
                    w.log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

enum Role {
    Reader,
    Transfer,
    Scanner,
    Writer,
}

/// Generator state of one client, carried across phases.
pub struct ClientState {
    keys: KeyStream,
    pairs: Rng,
    partition: Vec<i64>,
    rotation: ScanRotation,
    schedule: Schedule,
    writer_keys: Rng,
    /// `Schedule` times count from here.
    origin: Option<Instant>,
    units: usize,
    /// Changes to `acct` this client has committed in every phase so
    /// far; write transactions check their reads against it.
    tally: BTreeMap<i64, i64>,
}

impl ClientState {
    pub fn for_clients(seed: u64, data: &Data, clients: usize) -> Vec<ClientState> {
        let keys = KeyStream::per_client(seed, data.scale.t_rows, clients);
        let parts = partitions(seed, data.scale.acct_rows, clients);
        keys.into_iter()
            .zip(parts)
            .enumerate()
            .map(|(c, (keys, partition))| ClientState {
                keys,
                pairs: Rng::stream(seed, &format!("txn-pairs-{c}")),
                partition,
                rotation: ScanRotation::new(seed ^ c as u64, data.scale.scan_variants),
                schedule: Schedule::new(seed, WRITE_RATE),
                writer_keys: Rng::stream(seed, "writer-keys"),
                origin: None,
                units: 0,
                tally: BTreeMap::new(),
            })
            .collect()
    }
}

struct Worker<'a> {
    log: WorkerLog,
    stop: &'a AtomicBool,
    budget: Budget,
    done_ops: u64,
    /// The statement behind an unrecoverable error, for the report.
    failed_sql: Option<String>,
}

type Step = Result<(), String>;

impl Worker<'_> {
    fn fail(&mut self, why: String) {
        if self.log.fatal.is_none() {
            self.log.fatal = Some(match self.failed_sql.take() {
                Some(sql) => format!("{why}, from `{sql}`"),
                None => why,
            });
        }
        self.stop.store(true, Ordering::SeqCst);
    }

    fn more(&mut self, next_start: Instant) -> bool {
        if self.stop.load(Ordering::SeqCst) {
            return false;
        }
        match self.budget {
            Budget::Until(end) => next_start < end,
            #[cfg(test)]
            Budget::Ops(n) => self.done_ops < n,
        }
    }

    fn sample(&mut self, st: &mut ClientState, at: Instant, unit: Unit) {
        if st.units.is_multiple_of(SAMPLE_EVERY) {
            self.log.samples.push((at, unit));
        }
        st.units += 1;
    }

    /// Record an acknowledged commit of `unit`.
    fn committed(&mut self, st: &mut ClientState, unit: Unit) {
        for (k, d) in unit.deltas() {
            *st.tally.entry(k).or_default() += d;
            *self.log.tally.entry(k).or_default() += d;
        }
    }

    /// Send one statement, logging its round trip unless it is a
    /// transaction verb.
    fn query(&mut self, client: &mut Client, sql: &str) -> Result<QueryOutcome, ServiceError> {
        let sent = Instant::now();
        let out = client.query(sql);
        if !matches!(sql, "BEGIN" | "COMMIT" | "ROLLBACK") {
            self.log
                .stmts
                .push((sent, sent.elapsed().as_nanos() as u64));
        }
        if matches!(&out, Err(e) if !tolerated(e)) {
            self.failed_sql = Some(sql.to_string());
        }
        out
    }
    /// Log a finished unit. Every failure counts, with its code; a
    /// tolerated one lets the run go on, any other ends it.
    fn finish(
        &mut self,
        kind: Kind,
        start: Instant,
        end: Instant,
        out: Result<(), Failure>,
    ) -> Step {
        self.done_ops += 1;
        let (code, fatal) = match out {
            Ok(()) => (None, None),
            Err(Failure::Tolerated(e)) => (Some(e.code()), None),
            Err(Failure::Fatal(code, why)) => (Some(code), Some(why)),
        };
        self.log.ops.push(OpRecord {
            kind,
            start,
            lat_ns: end.duration_since(start).as_nanos() as u64,
            code,
        });
        fatal.map_or(Ok(()), Err)
    }

    fn run(&mut self, role: Role, target: &Target, st: &mut ClientState) -> Step {
        let mut client =
            Client::connect(target.addr).map_err(|e| format!("connect failed: {e}"))?;
        let out = match role {
            Role::Reader => self.reader(&mut client, target, st),
            Role::Transfer => self.transfer(&mut client, target, st),
            Role::Scanner => self.scanner(&mut client, target, st),
            Role::Writer => self.writer(&mut client, target, st),
        };
        let _ = client.close();
        out
    }

    /// Closed loop of point reads; each answer must be the loaded `v`.
    fn reader(&mut self, client: &mut Client, target: &Target, st: &mut ClientState) -> Step {
        let mut prev = Instant::now();
        loop {
            let start = Instant::now();
            if !self.more(start) {
                return Ok(());
            }
            self.log
                .lag
                .push((start, start.duration_since(prev).as_nanos() as u64));
            let k = st.keys.next().expect("endless key stream");
            self.sample(st, start, Unit::Read(k));
            let out = self.query(client, &format!("SELECT v FROM t WHERE k = {k}"));
            prev = Instant::now();
            let out = out.map_err(Failure::from).and_then(|rows| {
                check_rows(&rows, &[vec![target.data.t_v[k as usize]]], "point read")
            });
            self.finish(Kind::Read, start, prev, out)?;
        }
    }

    /// Closed loop of write transactions inside this client's partition.
    fn transfer(&mut self, client: &mut Client, target: &Target, st: &mut ClientState) -> Step {
        let mut prev = Instant::now();
        loop {
            let start = Instant::now();
            if !self.more(start) {
                return Ok(());
            }
            self.log
                .lag
                .push((start, start.duration_since(prev).as_nanos() as u64));
            let (a, b) = txn_pair(&mut st.pairs, &st.partition);
            let unit = Unit::Txn(a, b);
            self.sample(st, start, unit);
            let expected_a =
                target.data.acct_v0[a as usize] + st.tally.get(&a).copied().unwrap_or(0);
            let out = self.txn(client, unit, target.queries, Some(expected_a));
            prev = Instant::now();
            if out.is_ok() {
                self.committed(st, unit);
            }
            self.finish(Kind::Txn, start, prev, out)?;
        }
    }

    /// `BEGIN`, the unit's statements, `COMMIT`; a tolerated failure
    /// rolls back. `expected_first` checks the first statement's answer.
    fn txn(
        &mut self,
        client: &mut Client,
        unit: Unit,
        queries: &[ScanQuery],
        expected_first: Option<i64>,
    ) -> Result<(), Failure> {
        self.query(client, "BEGIN")?;
        let result = (|| {
            for (i, sql) in unit.statements(queries).iter().enumerate() {
                let rows = self.query(client, sql)?;
                if i == 0 {
                    if let Some(v) = expected_first {
                        check_rows(&rows, &[vec![v]], "read in a write transaction")?;
                    }
                } else {
                    check_affected(&rows, sql)?;
                }
            }
            self.query(client, "COMMIT")?;
            Ok(())
        })();
        if let Err(Failure::Tolerated(_)) = &result {
            // The transaction may already be gone; either way it left
            // nothing behind.
            let _ = self.query(client, "ROLLBACK");
        }
        result
    }

    /// Closed loop over the scan rotation; each answer must match the
    /// one computed from the generated data.
    fn scanner(&mut self, client: &mut Client, target: &Target, st: &mut ClientState) -> Step {
        let mut prev = Instant::now();
        loop {
            let start = Instant::now();
            if !self.more(start) {
                return Ok(());
            }
            self.log
                .lag
                .push((start, start.duration_since(prev).as_nanos() as u64));
            let q = st.rotation.next().expect("endless rotation");
            self.sample(st, start, Unit::Scan(q));
            let query = &target.queries[q];
            let out = self.query(client, &query.sql);
            prev = Instant::now();
            let out = out
                .map_err(Failure::from)
                .and_then(|rows| check_rows(&rows, &query.expected, query.shape.name()));
            self.finish(Kind::Scan(query.shape), start, prev, out)?;
        }
    }

    /// Open loop of single-`UPDATE` transactions at `WRITE_RATE`, each
    /// timed from when it was due.
    fn writer(&mut self, client: &mut Client, target: &Target, st: &mut ClientState) -> Step {
        let origin = *st.origin.get_or_insert_with(Instant::now);
        loop {
            let at = st.schedule.next().expect("endless schedule");
            let due = origin + Duration::from_secs_f64(at);
            if !self.more(due) {
                return Ok(());
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            self.log
                .lag
                .push((due, sent.duration_since(due).as_nanos() as u64));
            let k = st.writer_keys.below(target.data.scale.acct_rows as u64) as i64;
            let unit = Unit::Write(k);
            self.sample(st, due, unit);
            let sql = &unit.statements(target.queries)[0];
            let out = self.query(client, sql);
            let done = Instant::now();
            let out = out
                .map_err(Failure::from)
                .and_then(|rows| check_affected(&rows, sql));
            if out.is_ok() {
                self.committed(st, unit);
            }
            self.finish(Kind::Write, due, done, out)?;
        }
    }
}

/// Why a unit of work failed.
pub enum Failure {
    /// A tolerated error: counted, and the run goes on.
    Tolerated(ServiceError),
    /// A wrong answer (code `wrong_answer`) or an unrecoverable error:
    /// counted under its code, and the run ends.
    Fatal(&'static str, String),
}

impl From<ServiceError> for Failure {
    fn from(e: ServiceError) -> Failure {
        if tolerated(&e) {
            Failure::Tolerated(e)
        } else {
            Failure::Fatal(e.code(), format!("unrecoverable error ({}): {e}", e.code()))
        }
    }
}

fn wrong_answer(why: String) -> Failure {
    Failure::Fatal("wrong_answer", why)
}

/// Fail unless a write statement changed exactly one row.
fn check_affected(rows: &QueryOutcome, sql: &str) -> Result<(), Failure> {
    if rows.affected == 1 {
        Ok(())
    } else {
        Err(wrong_answer(format!(
            "`{sql}` changed {} rows, expected 1",
            rows.affected
        )))
    }
}

/// Integer rows of a result, sorted.
pub fn int_rows(rows: &[Vec<Datum>]) -> Option<Vec<Vec<i64>>> {
    let mut out: Vec<Vec<i64>> = rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|d| match d {
                    Datum::Int(i) => Some(*i),
                    _ => None,
                })
                .collect()
        })
        .collect::<Option<_>>()?;
    out.sort_unstable();
    Some(out)
}

/// Fail unless `rows` holds exactly the `expected` integer rows.
fn check_rows(rows: &QueryOutcome, expected: &[Vec<i64>], what: &str) -> Result<(), Failure> {
    check_answer(&rows.rows, expected, what).map_err(wrong_answer)
}

pub fn check_answer(rows: &[Vec<Datum>], expected: &[Vec<i64>], what: &str) -> Step {
    match int_rows(rows) {
        Some(got) if got == expected => Ok(()),
        got => Err(format!(
            "wrong answer for {what}: got {:?}, expected {:?}",
            got.map(|g| g.into_iter().take(3).collect::<Vec<_>>()),
            expected.iter().take(3).collect::<Vec<_>>()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker(stop: &AtomicBool) -> Worker<'_> {
        Worker {
            log: WorkerLog::default(),
            stop,
            budget: Budget::Ops(100),
            done_ops: 0,
            failed_sql: None,
        }
    }

    #[test]
    fn failures_count_against_attempts_with_their_codes() {
        let stop = AtomicBool::new(false);
        let mut w = worker(&stop);
        let t = Instant::now();
        w.finish(Kind::Read, t, t, Ok(())).unwrap();
        let tolerated_errors = [
            ServiceError::SerializationConflict {
                reason: "write-write".into(),
            },
            ServiceError::Overloaded {
                in_flight: 8,
                waiting: 16,
            },
            ServiceError::Cancelled {
                reason: "deadline".into(),
            },
        ];
        for e in tolerated_errors {
            w.finish(Kind::Txn, t, t, Err(Failure::from(e))).unwrap();
        }
        let codes: Vec<_> = w.log.ops.iter().map(|o| o.code).collect();
        assert_eq!(
            codes,
            [
                None,
                Some("conflict"),
                Some("overloaded"),
                Some("cancelled")
            ]
        );
        assert!(!stop.load(Ordering::SeqCst)); // Anything else ends the run, and counts too.
        let storage = Failure::from(ServiceError::Storage("torn page".into()));
        assert!(w
            .finish(Kind::Read, t, t, Err(storage))
            .unwrap_err()
            .contains("storage"));
        let wrong = wrong_answer("got 3, expected 4".into());
        assert!(w.finish(Kind::Read, t, t, Err(wrong)).is_err());
        let codes: Vec<_> = w.log.ops.iter().skip(4).map(|o| o.code).collect();
        assert_eq!(codes, [Some("storage"), Some("wrong_answer")]);
        w.fail("stop".into());
        assert!(stop.load(Ordering::SeqCst));
        assert!(!w.more(Instant::now()));
    }

    #[test]
    fn answer_checks_reject_a_corrupted_expected_value() {
        let rows = vec![
            vec![Datum::Int(3), Datum::Int(10)],
            vec![Datum::Int(1), Datum::Int(20)],
        ];
        let good = vec![vec![1, 20], vec![3, 10]];
        assert!(check_answer(&rows, &good, "group").is_ok());
        let mut bad = good.clone();
        bad[1][1] += 1;
        assert!(check_answer(&rows, &bad, "group").is_err());
        assert!(check_answer(&rows, &good[..1], "group").is_err());
        let text = vec![vec![Datum::Str("10".into())]];
        assert!(check_answer(&text, &[vec![10]], "point read").is_err());
    }

    #[test]
    fn units_carry_their_writes() {
        assert_eq!(Unit::Txn(4, 9).deltas(), [(4, 1), (9, -1)]);
        assert_eq!(Unit::Write(5).deltas(), [(5, 1)]);
        assert!(Unit::Read(5).deltas().is_empty());
        assert_eq!(Unit::Txn(4, 9).statements(&[]).len(), 3);
    }
}
