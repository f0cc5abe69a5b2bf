//! One run: set up, drive, tear down, check, and turn the logs and
//! counters into the metrics `BENCHMARK.json` names.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sbdms::data::Database;

use crate::gen::{scan_queries, Data, Scale, ScanQuery, Shape};
use crate::load::{
    drive, int_rows, Budget, ClientState, Kind, OpRecord, Target, Unit, WorkerLog, Workload,
    WRITE_RATE,
};
use crate::replay::{span_name, Replay};
use crate::setup::{self, Deployment};
use crate::stats::{interquartile_mean, median, Summary};
use crate::trace::{FileSnapshot, Tracer};
use crate::Args;

/// Connections the load generator opens.
const CLIENTS: usize = 2;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Load before timing starts, so caches fill and lazy set-up finishes.
const WARMUP: Duration = Duration::from_secs(1);

/// Window over which `ops_per_s` counts completions.
const RATE_WINDOW: Duration = Duration::from_secs(1);

/// Reopens timed after the run; `reopen_s` is their median.
const REOPENS: usize = 9;

/// End-to-end metrics (untraced runs), with units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("reopen_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("space_amp", "ratio"),
    ("ok_ratio", "ratio"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
];

/// Per-layer metrics (traced runs), with units.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("server.roundtrip_us", "us"),
    ("server.wire_us", "us"),
    ("governor.admitted", "count"),
    ("governor.shed", "count"),
    ("governor.degraded", "count"),
    ("governor.cancelled", "count"),
    ("parser.parse_us", "us"),
    ("planner.plan_us", "us"),
    ("planner.plans_per_stmt", "ratio"),
    ("plan_cache.hit_ratio", "ratio"),
    ("plan_cache.lookups", "count"),
    ("executor.execute_us", "us"),
    ("executor.self_us", "us"),
    ("buffer.fetches_per_stmt", "count"),
    ("txn.commit_us", "us"),
    ("txn.p50_ms", "ms"),
    ("txn.tail_ms", "ms"),
    ("mvcc.commits", "count"),
    ("mvcc.conflicts", "count"),
    ("mvcc.aborts", "count"),
    ("mvcc.versions_live_peak", "count"),
    ("btree.probe_us", "us"),
    ("btree.height", "count"),
    ("heap.get_us", "us"),
    ("heap.scan_rows_per_s", "1/s"),
    ("exec.run_ms", "ms"),
    ("exec.sum_ms", "ms"),
    ("exec.group_ms", "ms"),
    ("exec.join_ms", "ms"),
    ("buffer.hit_ratio", "ratio"),
    ("buffer.misses_per_stmt", "count"),
    ("buffer.evictions_per_stmt", "count"),
    ("disk.page_reads_per_stmt", "count"),
    ("disk.page_writes_per_commit", "count"),
    ("disk.read_us", "us"),
    ("wal.bytes_per_commit", "B"),
    ("wal.syncs_per_commit", "count"),
    ("wal.sync_us", "us"),
    ("wal.bytes_at_end", "B"),
    ("gen.lag_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("failed_ratio", "ratio"),
    ("op_p99_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("op_tail_pct", "%"),
    ("op_tail_beyond", "count"),
    ("op_samples", "count"),
    ("stmts_per_s", "1/s"),
    ("host.steal_ratio", "ratio"),
];

/// Alternating slices of untraced and traced load in a traced run.
const TRACE_SLICES: usize = 4;

/// Units replayed layer by layer in a traced run.
fn replay_budget(workload: Workload) -> usize {
    match workload {
        Workload::PointRead => 200,
        Workload::WriteTxn => 40,
        Workload::ScanMix => 30,
    }
}

/// The result line of a run, plus the details printed above it.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    finite(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self.notes.iter().map(|n| format!("# {n}")).collect();
        out.extend(
            self.metrics
                .iter()
                .map(|(name, value, unit)| format!("{name} = {} {unit}", finite(*value))),
        );
        out.push(self.json());
        out
    }

    pub fn print(&self) {
        for line in self.lines() {
            println!("{line}");
        }
    }
}

/// JSON has no NaN or infinity; a metric with no samples reads 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The logs of one phase of load, cut to operations that started in
/// its time windows.
struct Phase {
    logs: Vec<WorkerLog>,
    windows: Vec<(Instant, Instant)>,
    /// CPU time the whole process (server and load) used in the phase.
    cpu_s: f64,
    /// Share of the host's CPU time stolen by other tenants meanwhile.
    steal: f64,
}

impl Phase {
    fn run(
        workload: Workload,
        target: &Target,
        states: &mut [ClientState],
        length: Duration,
    ) -> Phase {
        let (cpu, (stolen, ticks)) = (setup::cpu_seconds(), setup::host_ticks());
        let from = Instant::now();
        let to = from + length;
        let logs = drive(workload, target, states, Budget::Until(to));
        let (stolen_end, ticks_end) = setup::host_ticks();
        Phase {
            logs,
            windows: vec![(from, to)],
            cpu_s: setup::cpu_seconds() - cpu,
            steal: ratio((stolen_end - stolen) as f64, (ticks_end - ticks) as f64),
        }
    }

    /// One phase made of several, run at different times.
    fn merge(phases: Vec<Phase>) -> Phase {
        let seconds: f64 = phases.iter().map(Phase::seconds).sum();
        let steal = phases.iter().map(|p| p.steal * p.seconds()).sum::<f64>() / seconds;
        let mut merged = Phase {
            logs: Vec::new(),
            windows: Vec::new(),
            cpu_s: phases.iter().map(|p| p.cpu_s).sum(),
            steal,
        };
        for p in phases {
            merged.logs.extend(p.logs);
            merged.windows.extend(p.windows);
        }
        merged
    }

    fn seconds(&self) -> f64 {
        self.windows
            .iter()
            .map(|(from, to)| to.duration_since(*from).as_secs_f64())
            .sum()
    }

    fn within(&self, at: Instant) -> bool {
        self.windows.iter().any(|&(from, to)| at >= from && at < to)
    }

    fn ops(&self) -> impl Iterator<Item = &OpRecord> {
        self.logs
            .iter()
            .flat_map(|l| &l.ops)
            .filter(|o| self.within(o.start))
    }

    /// Latencies in ms of the successful operations of `kind`.
    fn latencies_ms(&self, kind: Kind) -> Vec<f64> {
        self.ops()
            .filter(|o| o.code.is_none() && o.kind.same_op(kind))
            .map(|o| o.lat_ns as f64 / 1e6)
            .collect()
    }

    /// Process CPU milliseconds per successful operation of `kind`,
    /// counting every operation the phase ran.
    fn cpu_ms_per_op(&self, kind: Kind) -> f64 {
        let ops = self
            .logs
            .iter()
            .flat_map(|l| &l.ops)
            .filter(|o| o.code.is_none() && o.kind.same_op(kind))
            .count();
        ratio(self.cpu_s * 1e3, ops as f64)
    }

    /// Successful operations of `kind` per second in each
    /// `RATE_WINDOW`-long slice of the phase's windows.
    fn window_rates(&self, kind: Kind) -> Vec<f64> {
        let slice = RATE_WINDOW.as_secs_f64();
        let mut rates = Vec::new();
        for &(from, to) in &self.windows {
            let slices = (to.duration_since(from).as_secs_f64() / slice)
                .floor()
                .max(1.0);
            let mut counts = vec![0u32; slices as usize];
            for o in self
                .ops()
                .filter(|o| o.code.is_none() && o.kind.same_op(kind))
            {
                if o.start < from {
                    continue;
                }
                let i = (o.start.duration_since(from).as_secs_f64() / slice) as usize;
                if let Some(c) = counts.get_mut(i) {
                    *c += 1;
                }
            }
            rates.extend(counts.iter().map(|&c| c as f64 / slice));
        }
        rates
    }

    fn stmts_us(&self) -> Vec<f64> {
        self.logs
            .iter()
            .flat_map(|l| &l.stmts)
            .filter(|(at, _)| self.within(*at))
            .map(|&(_, ns)| ns as f64 / 1e3)
            .collect()
    }

    fn lag_ms(&self) -> Vec<f64> {
        self.logs
            .iter()
            .flat_map(|l| &l.lag)
            .filter(|(at, _)| self.within(*at))
            .map(|&(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    fn samples(&self) -> Vec<Unit> {
        let mut s: Vec<(Instant, Unit)> = self
            .logs
            .iter()
            .flat_map(|l| &l.samples)
            .filter(|(at, _)| self.within(*at))
            .copied()
            .collect();
        s.sort_by_key(|&(at, _)| at);
        s.into_iter().map(|(_, u)| u).collect()
    }
}

/// Every operation attempted in `phases`, whichever phase it fell in.
struct Totals {
    attempted: u64,
    failed: u64,
    codes: BTreeMap<&'static str, u64>,
    tally: BTreeMap<i64, i64>,
    fatal: Option<String>,
}

fn totals<'a>(phases: impl IntoIterator<Item = &'a Phase>) -> Totals {
    let mut t = Totals {
        attempted: 0,
        failed: 0,
        codes: BTreeMap::new(),
        tally: BTreeMap::new(),
        fatal: None,
    };
    for log in phases.into_iter().flat_map(|p| &p.logs) {
        for op in &log.ops {
            t.attempted += 1;
            if let Some(code) = op.code {
                t.failed += 1;
                *t.codes.entry(code).or_default() += 1;
            }
        }
        merge(&mut t.tally, &log.tally);
        if t.fatal.is_none() {
            t.fatal = log.fatal.clone();
        }
    }
    t
}

fn merge(into: &mut BTreeMap<i64, i64>, from: &BTreeMap<i64, i64>) {
    for (&k, &d) in from {
        *into.entry(k).or_default() += d;
    }
}

/// After clean shutdown and reopen: every acknowledged write to `acct`
/// is there, `acct` sums to the net of those writes, and `t` is as
/// loaded.
pub fn verify(db: &Arc<Database>, data: &Data, tally: &BTreeMap<i64, i64>) -> Result<(), String> {
    let session = db.session();
    let query = |sql: &str| -> Result<Vec<Vec<i64>>, String> {
        let rows = session
            .execute(sql)
            .map_err(|e| format!("`{sql}` failed: {e}"))?
            .rows;
        int_rows(&rows).ok_or_else(|| format!("`{sql}` returned non-integers"))
    };
    let rows = query("SELECT k, v FROM acct")?;
    if rows.len() != data.acct_v0.len() {
        return Err(format!(
            "acct has {} rows, loaded {}",
            rows.len(),
            data.acct_v0.len()
        ));
    }
    for row in &rows {
        let (k, v) = (row[0], row[1]);
        let want = data.acct_v0[k as usize] + tally.get(&k).copied().unwrap_or(0);
        if v != want {
            return Err(format!(
                "acct key {k} reads {v}, acknowledged writes give {want}"
            ));
        }
    }
    let net: i64 = tally.values().sum();
    if query("SELECT SUM(v) FROM acct")? != [vec![net]] {
        return Err(format!("SUM(v) over acct is not {net}"));
    }
    let t_sum: i64 = data.t_v.iter().sum();
    if query("SELECT SUM(v), COUNT(*) FROM t")? != [vec![t_sum, data.t_v.len() as i64]] {
        return Err("t changed".into());
    }
    Ok(())
}

struct Finished {
    reopen_s: f64,
    /// Every timed reopen, seconds.
    reopens: Vec<f64>,
    space_amp: f64,
    check: Result<(), String>,
}

/// Clean shutdown; the space the files take; then reopen with
/// recovery, timed on the files and on copies of them for a steady
/// median, with the acknowledged-write check after the first.
fn finish(dep: Deployment, data: &Data, tally: &BTreeMap<i64, i64>) -> Result<Finished, String> {
    let dir = dep.shut_down();
    let space_amp = setup::stored_bytes(&dir) as f64 / data.user_bytes() as f64;
    let copies = (1..REOPENS)
        .map(|i| setup::copy_files(&dir, i))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("cannot copy the database: {e}"))?;
    let mut reopens = Vec::new();
    let mut check = Ok(());
    for (i, d) in std::iter::once(&dir).chain(&copies).enumerate() {
        let start = Instant::now();
        let system = setup::reopen(d).map_err(|e| format!("reopen failed: {e}"))?;
        reopens.push(start.elapsed().as_secs_f64());
        if i == 0 {
            check = verify(system.database(), data, tally);
        }
        drop(system);
        let _ = std::fs::remove_dir_all(d);
    }
    Ok(Finished {
        reopen_s: median(&reopens),
        reopens,
        space_amp,
        check,
    })
}

/// Counters read from the database's public surfaces.
#[derive(Clone, Copy)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    cache_hits: u64,
    cache_misses: u64,
    plans_selected: u64,
    admitted: u64,
    shed: u64,
    degraded: u64,
    cancelled: u64,
    commits: u64,
    conflicts: u64,
    aborts: u64,
    wal_lsn: u64,
    page_reads: u64,
    page_writes: u64,
    data_file: FileSnapshot,
    wal_file: FileSnapshot,
}

impl Counters {
    fn read(dep: &Deployment) -> Counters {
        let db = &dep.db;
        let buffer = db.storage().buffer.stats();
        let cache = db.plan_cache_stats();
        let gov = db.governor().snapshot();
        let mvcc = db.mvcc().map(|m| m.stats());
        let probes = dep.probes.as_ref();
        Counters {
            hits: buffer.hits,
            misses: buffer.misses,
            evictions: buffer.evictions,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            plans_selected: db.plans_selected(),
            admitted: gov.admitted,
            shed: gov.shed,
            degraded: gov.degraded,
            cancelled: gov.cancelled,
            commits: mvcc.as_ref().map_or(0, |m| m.commits),
            conflicts: mvcc.as_ref().map_or(0, |m| m.conflicts),
            aborts: mvcc.as_ref().map_or(0, |m| m.aborts),
            wal_lsn: db.storage().wal.next_lsn(),
            page_reads: probes.map_or(0, |p| p.page_reads.load(Ordering::Relaxed)),
            page_writes: probes.map_or(0, |p| p.page_writes.load(Ordering::Relaxed)),
            data_file: probes.map_or_else(FileSnapshot::default, |p| p.data.snapshot()),
            wal_file: probes.map_or_else(FileSnapshot::default, |p| p.wal.snapshot()),
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn run(args: &Args, work: &Path) -> Result<RunResult, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let data = Data::generate(args.seed, Scale::FULL);
    let queries = scan_queries(&data);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cfg = setup::profile(work);
    let mut notes = vec![
        format!(
            "workload={} seed={} seconds={} trace={} clients={CLIENTS} nproc={nproc}",
            args.workload.name(),
            args.seed,
            args.seconds,
            args.trace as u8,
        ),
        format!(
            "profile=FullFledged flush={:?} group_commit_window_us={} pool_frames={} page_bytes={} plan_cache={} engine={:?} concurrency={:?}",
            setup::DURABILITY,
            cfg.commit_window_micros,
            cfg.buffer_frames,
            sbdms::storage::PAGE_SIZE,
            cfg.plan_cache,
            cfg.execution_engine,
            cfg.concurrency
        ),
        loop_note(args),
    ];
    let mut result = if args.trace {
        traced(args, work, &data, &queries, &mut notes)?
    } else {
        untraced(args, work, &data, &queries, &mut notes)?
    };
    result.notes = notes;
    let name = format!(
        "result-{}-seed{}-trace{}.txt",
        args.workload.name(),
        args.seed,
        args.trace as u8
    );
    let _ = std::fs::write(work.join(name), result.lines().join("\n") + "\n");
    Ok(result)
}

fn loop_note(args: &Args) -> String {
    match args.workload {
        Workload::PointRead => format!("loop=closed clients={CLIENTS} keys=zipf(0.99)"),
        Workload::WriteTxn => format!("loop=closed clients={CLIENTS} partitions={CLIENTS}"),
        Workload::ScanMix => format!(
            "loop=closed scanners={} + open writer at {WRITE_RATE}/s",
            CLIENTS - 1
        ),
    }
}

fn db_dir(work: &Path, args: &Args, tag: &str) -> std::path::PathBuf {
    work.join(format!(
        "db-{}-{}-{tag}",
        args.workload.name(),
        std::process::id()
    ))
}

fn target<'a>(dep: &Deployment, data: &'a Data, queries: &'a [ScanQuery]) -> Target<'a> {
    Target {
        addr: dep.addr(),
        data,
        queries,
    }
}

fn pages_note(dep: &Deployment, frames: usize) -> Result<String, String> {
    let pages = dep.table_pages().map_err(|e| format!("table sizes: {e}"))?;
    Ok(pages
        .iter()
        .map(|(t, p)| format!("{t}={p}pages({:.2}x pool)", *p as f64 / frames as f64))
        .collect::<Vec<_>>()
        .join(" "))
}

fn untraced(
    args: &Args,
    work: &Path,
    data: &Data,
    queries: &[ScanQuery],
    notes: &mut Vec<String>,
) -> Result<RunResult, String> {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let (dep, took) = setup::setup(&db_dir(work, args, &i.to_string()), data, false)
            .map_err(|e| format!("setup failed: {e}"))?;
        setup_s.push(took.as_secs_f64());
        if i + 1 < SETUPS {
            dep.discard();
        } else {
            kept = Some(dep);
        }
    }
    let dep = kept.expect("at least one set-up");
    notes.push(format!(
        "tables {}",
        pages_note(&dep, setup::profile(work).buffer_frames)?
    ));
    notes.push(format!("setup_s samples {setup_s:?}"));
    let target = target(&dep, data, queries);
    let mut states = ClientState::for_clients(args.seed, data, CLIENTS);
    let warm = Phase::run(args.workload, &target, &mut states, WARMUP);
    let meas = Phase::run(
        args.workload,
        &target,
        &mut states,
        Duration::from_secs_f64(args.seconds),
    );
    let tot = totals([&warm, &meas]);
    let fin = finish(dep, data, &tot.tally)?;

    let primary = Summary::of(meas.latencies_ms(args.workload.primary()));
    let (attempted, failed) = meas.ops().fold((0u64, 0u64), |(a, f), o| {
        (a + 1, f + o.code.is_some() as u64)
    });
    // The mean of the middle half of the window rates: a burst of
    // interference on the host moves a few windows, not the figure, and
    // the mean keeps a resolution finer than one operation per window.
    let rates = meas.window_rates(args.workload.primary());
    notes.push(format!("op rate per {RATE_WINDOW:?} window: {rates:?}"));
    notes.push(format!("reopens (s): {:?}", fin.reopens));
    notes.push(format!(
        "host CPU stolen by other tenants while measuring: {:.1}%",
        meas.steal * 100.0
    ));
    shape_notes(&meas, notes);
    notes.push(tail_note("op", &primary));
    let correct = conclude(&tot, &fin.check, notes);
    let metrics = vec![
        ("setup_s", median(&setup_s)),
        ("reopen_s", fin.reopen_s),
        ("peak_rss_mb", setup::peak_rss_mb()),
        ("space_amp", fin.space_amp),
        ("ok_ratio", 1.0 - ratio(failed as f64, attempted as f64)),
        ("ops_per_s", interquartile_mean(&rates)),
        ("cpu_ms_per_op", meas.cpu_ms_per_op(args.workload.primary())),
        ("op_p50_ms", primary.p50),
        ("op_p90_ms", primary.p90),
    ];
    Ok(RunResult {
        correct,
        attempted: tot.attempted,
        failed: tot.failed,
        metrics: with_units(metrics, &END_TO_END),
        notes: Vec::new(),
    })
}

/// Print failures, and decide whether the run was correct.
fn conclude(tot: &Totals, check: &Result<(), String>, notes: &mut Vec<String>) -> bool {
    notes.push(format!(
        "attempted={} failed={} codes={:?}",
        tot.attempted, tot.failed, tot.codes
    ));
    if let Some(why) = &tot.fatal {
        notes.push(format!("FAILED during load: {why}"));
    }
    if let Err(why) = check {
        notes.push(format!("FAILED after reopen: {why}"));
    }
    tot.fatal.is_none() && check.is_ok()
}

fn tail_note(what: &str, s: &Summary) -> String {
    match s.tail {
        Some(t) => format!(
            "{what} latency: n={} p50={:.4}ms p90={:.4}ms p99={:.4}ms tail p{}={:.4}ms with {} samples beyond",
            s.count, s.p50, s.p90, s.p99, t.pct, t.value, t.beyond
        ),
        None => format!(
            "{what} latency: n={} p50={:.4}ms, too few samples for a tail",
            s.count, s.p50
        ),
    }
}

fn shape_notes(meas: &Phase, notes: &mut Vec<String>) {
    for shape in Shape::ALL {
        let lat: Vec<f64> = meas
            .ops()
            .filter(|o| o.code.is_none() && o.kind == Kind::Scan(shape))
            .map(|o| o.lat_ns as f64 / 1e6)
            .collect();
        if !lat.is_empty() {
            let s = Summary::of(lat);
            notes.push(format!(
                "scan {}: n={} p50={:.3}ms p90={:.3}ms",
                shape.name(),
                s.count,
                s.p50,
                s.p90
            ));
        }
    }
}

fn with_units(
    metrics: Vec<(&'static str, f64)>,
    table: &[(&'static str, &'static str)],
) -> Vec<(&'static str, f64, &'static str)> {
    metrics
        .into_iter()
        .map(|(name, value)| {
            let unit = table
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, u)| *u)
                .unwrap_or_else(|| panic!("metric {name} is not declared"));
            (name, value, unit)
        })
        .collect()
}

/// The transaction latency of a workload: its writing transactions, or
/// its autocommit reads where it writes nothing.
fn txn_kind(workload: Workload) -> Kind {
    match workload {
        Workload::PointRead => Kind::Read,
        Workload::WriteTxn => Kind::Txn,
        Workload::ScanMix => Kind::Write,
    }
}

fn traced(
    args: &Args,
    work: &Path,
    data: &Data,
    queries: &[ScanQuery],
    notes: &mut Vec<String>,
) -> Result<RunResult, String> {
    // The workload runs on two deployments at once, alternating in
    // slices: the deployed system untraced, for the tracing overhead,
    // and the instrumented database. Alternating cancels drift in the
    // host's speed out of the comparison.
    let slice = Duration::from_secs_f64(args.seconds / 2.0 / TRACE_SLICES as f64);
    let (plain, _) = setup::setup(&db_dir(work, args, "plain"), data, false)
        .map_err(|e| format!("setup failed: {e}"))?;
    let (dep, _) = setup::setup(&db_dir(work, args, "traced"), data, true)
        .map_err(|e| format!("setup failed: {e}"))?;
    notes.push(format!(
        "tables {}",
        pages_note(&dep, setup::profile(work).buffer_frames)?
    ));
    let target_plain = target(&plain, data, queries);
    let target = target(&dep, data, queries);
    let mut states_plain = ClientState::for_clients(args.seed, data, CLIENTS);
    let mut states = ClientState::for_clients(args.seed, data, CLIENTS);
    let plain_warm = Phase::run(args.workload, &target_plain, &mut states_plain, WARMUP);
    let warm = Phase::run(args.workload, &target, &mut states, WARMUP);
    let before = Counters::read(&dep);
    let versions_peak = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let (plain_meas, meas) = std::thread::scope(|scope| {
        let db = &dep.db;
        let (peak, stop) = (&versions_peak, &stop);
        scope.spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                if let Some(m) = db.mvcc() {
                    peak.fetch_max(m.stats().versions_live, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let (mut plain_slices, mut traced_slices) = (Vec::new(), Vec::new());
        for i in 0..TRACE_SLICES {
            let mut plain_slice =
                || Phase::run(args.workload, &target_plain, &mut states_plain, slice);
            if i % 2 == 0 {
                plain_slices.push(plain_slice());
                traced_slices.push(Phase::run(args.workload, &target, &mut states, slice));
            } else {
                traced_slices.push(Phase::run(args.workload, &target, &mut states, slice));
                plain_slices.push(plain_slice());
            }
        }
        stop.store(true, Ordering::SeqCst);
        (Phase::merge(plain_slices), Phase::merge(traced_slices))
    });
    let plain_tot = totals([&plain_warm, &plain_meas]);
    let plain_fin = finish(plain, data, &plain_tot.tally)?;
    let untraced_ops =
        plain_meas.latencies_ms(args.workload.primary()).len() as f64 / plain_meas.seconds();
    let after = Counters::read(&dep);
    let mut tot = totals([&warm, &meas]);

    let tracer = Tracer::new();
    let mut units = meas.samples();
    let budget = replay_budget(args.workload);
    if units.len() > budget {
        let step = units.len() as f64 / budget as f64;
        units = (0..budget)
            .map(|i| units[(i as f64 * step) as usize])
            .collect();
    }
    let replay = Replay {
        db: &dep.db,
        addr: dep.addr(),
        data,
        queries,
        tracer: &tracer,
        committed: &tot.tally,
    }
    .run(args.workload, &units);
    let replayed = match replay {
        Ok(r) => r,
        Err(why) => {
            tot.fatal.get_or_insert(why);
            dep.discard();
            let correct = conclude(&tot, &Ok(()), notes);
            return Ok(RunResult {
                correct,
                attempted: tot.attempted,
                failed: tot.failed,
                metrics: Vec::new(),
                notes: Vec::new(),
            });
        }
    };
    merge(&mut tot.tally, &replayed.tally);
    let spans = work.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    tracer
        .write(&spans)
        .map_err(|e| format!("cannot write spans: {e}"))?;
    notes.push(format!(
        "spans: {} in {}",
        tracer.spans().len(),
        spans.display()
    ));
    let fin = finish(dep, data, &tot.tally)?;

    let d = |f: fn(&Counters) -> u64| (f(&after) - f(&before)) as f64;
    let stmts = meas.stmts_us();
    let n_stmts = stmts.len() as f64;
    let commits = d(|c| c.commits);
    let fetches = d(|c| c.hits) + d(|c| c.misses);
    let us = |name: &str| median(&tracer.micros(name));
    let ms = |name: &str| us(name) / 1e3;
    let primary = Summary::of(meas.latencies_ms(args.workload.primary()));
    let txn = Summary::of(meas.latencies_ms(txn_kind(args.workload)));
    let traced_ops = primary.count as f64 / meas.seconds();
    let (attempted, failed) = meas.ops().fold((0u64, 0u64), |(a, f), o| {
        (a + 1, f + o.code.is_some() as u64)
    });
    let scan_us = us("heap.scan");
    let tail = primary.tail;
    let data_file = after.data_file;
    let wal_file = after.wal_file;
    let metrics = vec![
        ("server.roundtrip_us", median(&stmts)),
        ("server.wire_us", median(&replayed.wire_us)),
        ("governor.admitted", d(|c| c.admitted)),
        ("governor.shed", d(|c| c.shed)),
        ("governor.degraded", d(|c| c.degraded)),
        ("governor.cancelled", d(|c| c.cancelled)),
        ("parser.parse_us", us("parser.parse")),
        ("planner.plan_us", us("planner.plan")),
        (
            "planner.plans_per_stmt",
            ratio(d(|c| c.plans_selected), n_stmts),
        ),
        (
            "plan_cache.hit_ratio",
            ratio(
                d(|c| c.cache_hits),
                d(|c| c.cache_hits) + d(|c| c.cache_misses),
            ),
        ),
        (
            "plan_cache.lookups",
            d(|c| c.cache_hits) + d(|c| c.cache_misses),
        ),
        ("executor.execute_us", us("executor.execute")),
        ("executor.self_us", median(&replayed.exec_self_us)),
        ("buffer.fetches_per_stmt", ratio(fetches, n_stmts)),
        ("txn.commit_us", us("txn.commit")),
        ("txn.p50_ms", txn.p50),
        ("txn.tail_ms", txn.tail.map_or(txn.p99, |t| t.value)),
        ("mvcc.commits", commits),
        ("mvcc.conflicts", d(|c| c.conflicts)),
        ("mvcc.aborts", d(|c| c.aborts)),
        (
            "mvcc.versions_live_peak",
            versions_peak.load(Ordering::Relaxed) as f64,
        ),
        ("btree.probe_us", us("btree.probe")),
        ("btree.height", replayed.btree_height as f64),
        ("heap.get_us", us("heap.get")),
        (
            "heap.scan_rows_per_s",
            ratio(replayed.scan_rows as f64, scan_us / 1e6),
        ),
        ("exec.run_ms", ms("exec.run")),
        ("exec.sum_ms", ms(span_name(Shape::Sum))),
        ("exec.group_ms", ms(span_name(Shape::Group))),
        ("exec.join_ms", ms(span_name(Shape::Join))),
        ("buffer.hit_ratio", ratio(d(|c| c.hits), fetches)),
        ("buffer.misses_per_stmt", ratio(d(|c| c.misses), n_stmts)),
        (
            "buffer.evictions_per_stmt",
            ratio(d(|c| c.evictions), n_stmts),
        ),
        (
            "disk.page_reads_per_stmt",
            ratio(d(|c| c.page_reads), n_stmts),
        ),
        (
            "disk.page_writes_per_commit",
            ratio(d(|c| c.page_writes), commits),
        ),
        (
            "disk.read_us",
            ratio(data_file.read_ns as f64 / 1e3, data_file.reads as f64),
        ),
        ("wal.bytes_per_commit", ratio(d(|c| c.wal_lsn), commits)),
        (
            "wal.syncs_per_commit",
            ratio(d(|c| c.wal_file.syncs), commits),
        ),
        (
            "wal.sync_us",
            ratio(wal_file.sync_ns as f64 / 1e3, wal_file.syncs as f64),
        ),
        ("wal.bytes_at_end", after.wal_lsn as f64),
        ("gen.lag_ms", median(&meas.lag_ms())),
        (
            "trace.overhead_ratio",
            ratio(untraced_ops, traced_ops) - 1.0,
        ),
        ("trace.untraced_ops_per_s", untraced_ops),
        ("trace.traced_ops_per_s", traced_ops),
        ("failed_ratio", ratio(failed as f64, attempted as f64)),
        ("op_p99_ms", primary.p99),
        ("op_tail_ms", tail.map_or(primary.p99, |t| t.value)),
        ("op_tail_pct", tail.map_or(99.0, |t| t.pct)),
        ("op_tail_beyond", tail.map_or(0.0, |t| t.beyond as f64)),
        ("op_samples", primary.count as f64),
        ("stmts_per_s", n_stmts / meas.seconds()),
        ("host.steal_ratio", meas.steal),
    ];
    notes.push(tail_note("op", &primary));
    notes.push(tail_note("txn", &txn));
    notes.push(format!("replayed units: {}", units.len()));
    shape_notes(&meas, notes);
    let mut all = tot;
    all.attempted += plain_tot.attempted;
    all.failed += plain_tot.failed;
    for (code, n) in plain_tot.codes {
        *all.codes.entry(code).or_default() += n;
    }
    if all.fatal.is_none() {
        all.fatal = plain_tot.fatal;
    }
    let check = plain_fin.check.and(fin.check);
    let correct = conclude(&all, &check, notes);
    Ok(RunResult {
        correct,
        attempted: all.attempted,
        failed: all.failed,
        metrics: with_units(metrics, &PER_LAYER),
        notes: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Scale;

    fn smoke_dir(name: &str) -> std::path::PathBuf {
        Path::new(".bench_work").join(format!("selftest-{name}-{}", std::process::id()))
    }

    fn smoke(seed: u64, name: &str, traced: bool) -> (Data, Vec<ScanQuery>, Deployment) {
        let data = Data::generate(seed, Scale::SMOKE);
        let queries = scan_queries(&data);
        let (dep, _) = setup::setup(&smoke_dir(name), &data, traced).expect("smoke set-up");
        (data, queries, dep)
    }

    fn run_ops(
        workload: Workload,
        dep: &Deployment,
        data: &Data,
        queries: &[ScanQuery],
        seed: u64,
        clients: usize,
        ops: u64,
    ) -> Vec<WorkerLog> {
        let target = Target {
            addr: dep.addr(),
            data,
            queries,
        };
        let mut states = ClientState::for_clients(seed, data, clients);
        drive(workload, &target, &mut states, Budget::Ops(ops))
    }

    fn counts(c: &Counters) -> [u64; 7] {
        [
            c.hits,
            c.misses,
            c.evictions,
            c.page_reads,
            c.page_writes,
            c.wal_lsn,
            c.wal_file.syncs,
        ]
    }

    /// One client, fixed work: buffer, disk and WAL counts repeat.
    #[test]
    fn one_client_counts_repeat_exactly() {
        let mut seen = Vec::new();
        for attempt in 0..2 {
            let (data, queries, dep) = smoke(21, &format!("repeat-{attempt}"), true);
            let before = Counters::read(&dep);
            let mut logs = run_ops(Workload::WriteTxn, &dep, &data, &queries, 21, 1, 30);
            logs.extend(run_ops(
                Workload::PointRead,
                &dep,
                &data,
                &queries,
                21,
                1,
                200,
            ));
            let after = Counters::read(&dep);
            assert!(logs.iter().all(|l| l.fatal.is_none()));
            seen.push((counts(&before), counts(&after)));
            dep.discard();
        }
        assert_eq!(seen[0], seen[1]);
        assert!(
            seen[0].1[5] > seen[0].0[5],
            "the transactions wrote to the log"
        );
    }

    #[test]
    fn workloads_pass_their_answer_checks_and_survive_reopen() {
        let (data, queries, dep) = smoke(22, "answers", false);
        let mut logs = run_ops(Workload::WriteTxn, &dep, &data, &queries, 22, 2, 20);
        logs.extend(run_ops(
            Workload::PointRead,
            &dep,
            &data,
            &queries,
            22,
            2,
            50,
        ));
        logs.extend(run_ops(Workload::ScanMix, &dep, &data, &queries, 22, 2, 6));
        let phase = Phase {
            logs,
            windows: vec![(Instant::now() - Duration::from_secs(3600), Instant::now())],
            cpu_s: 0.0,
            steal: 0.0,
        };
        let tot = totals([&phase]);
        assert_eq!(tot.fatal, None);
        assert_eq!((tot.failed, tot.attempted), (0, 2 * 20 + 2 * 50 + 2 * 6));
        assert!(!tot.tally.is_empty());
        let fin = finish(dep, &data, &tot.tally).unwrap();
        assert_eq!(fin.check, Ok(()));
        assert!(fin.space_amp > 1.0);
    }

    #[test]
    fn a_corrupted_expected_answer_fails_the_run() {
        let (data, mut queries, dep) = smoke(23, "corrupt", false);
        for q in &mut queries {
            q.expected[0][0] += 1;
        }
        let logs = run_ops(Workload::ScanMix, &dep, &data, &queries, 23, 1, 3);
        let why = logs[0]
            .fatal
            .as_deref()
            .expect("the corrupted scan answer is caught");
        assert!(why.contains("wrong answer"), "{why}");

        // A write the benchmark never acknowledged fails the reopen check.
        let mut tally = BTreeMap::new();
        tally.insert(3, 1);
        let fin = finish(dep, &data, &tally).unwrap();
        assert!(fin.check.is_err());
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let declared = |section: &str| -> Vec<String> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').unwrap()].to_string())
                .collect()
        };
        let names = |t: &[(&str, &str)]| t.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(declared("end_to_end"), names(&END_TO_END));
        assert_eq!(declared("per_layer"), names(&PER_LAYER));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "{name} must be declared with unit {unit}"
            );
        }
    }
}
