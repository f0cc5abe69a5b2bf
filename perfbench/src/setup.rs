//! Deploying, loading, serving, and the clean shutdown and reopen.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sbdms::data::txn::Durability;
use sbdms::data::{Database, DbOptions};
use sbdms::kernel::error::Result;
use sbdms::kernel::events::EventBus;
use sbdms::storage::IoKind;
use sbdms::{ArchitectureConfig, Profile, Sbdms};
use sbdms_server::{Server, ServerConfig};

use crate::gen::Data;
use crate::trace::{CountingBackend, FileCounters};

/// Rows per `INSERT` statement while loading.
const LOAD_BATCH: usize = 1_000;

/// The tables the workloads use, with their indexed key column and
/// whether set-up runs `ANALYZE` on them.
///
/// `acct` is not analyzed. Statistics are opt-in, and once a table has
/// them every `SELECT` that finds them stale re-analyzes it. Under
/// `write_txn` both connections' reads of `acct` find them stale at the
/// same moment, and two concurrent re-analyses race in
/// `Catalog::update_stats` (both delete the same catalog record; the
/// second fails with `slot N is deleted`). See
/// `tests::concurrent_analyze_of_one_table_succeeds`. The plans of the
/// `acct` statements are the same with and without statistics
/// (`tests::acct_plans_do_not_depend_on_statistics`).
pub const TABLES: [(&str, Option<&str>, bool); 3] = [
    ("t", Some("k"), true),
    ("d", None, true),
    ("acct", Some("k"), false),
];

/// The files a database directory holds.
const FILES: [&str; 2] = ["data.db", "wal.log"];

/// Every comparison runs with commits forced to disk.
pub const DURABILITY: Durability = Durability::Full;

pub fn profile(dir: &Path) -> ArchitectureConfig {
    ArchitectureConfig::for_profile(Profile::FullFledged, dir)
}

/// The options `Sbdms::deploy` derives from a profile, so the traced
/// database runs with exactly the settings of the deployed one.
fn db_options(cfg: &ArchitectureConfig) -> DbOptions {
    DbOptions {
        buffer_frames: cfg.buffer_frames,
        replacement: cfg.replacement,
        buffer_shards: cfg.buffer_shards,
        sort_budget: cfg.sort_budget,
        parallelism: cfg.parallelism,
        plan_cache_capacity: cfg.plan_cache,
        histogram_buckets: cfg.histogram_buckets,
        execution_engine: Some(cfg.execution_engine),
        governor: cfg.governor.clone(),
        concurrency: cfg.concurrency,
        commit_window_micros: cfg.commit_window_micros,
    }
}

/// Storage instruments of a traced database.
pub struct Probes {
    pub data: Arc<FileCounters>,
    pub wal: Arc<FileCounters>,
    /// Page reads and writes seen by the disk manager's I/O hook.
    pub page_reads: Arc<AtomicU64>,
    pub page_writes: Arc<AtomicU64>,
}

/// A served database.
pub struct Deployment {
    pub dir: PathBuf,
    pub db: Arc<Database>,
    /// The deployed system when untraced, kept alive with the database;
    /// the traced database is opened directly over the counting backend.
    _system: Option<Sbdms>,
    server: Option<Server>,
    pub probes: Option<Probes>,
}

fn open(dir: &Path, traced: bool) -> Result<(Arc<Database>, Option<Sbdms>, Option<Probes>)> {
    let cfg = profile(dir);
    if !traced {
        let system = Sbdms::deploy(cfg)?;
        let db = system.database().clone();
        return Ok((db, Some(system), None));
    }
    let backend = CountingBackend::new(dir);
    let db = Database::open_at(&backend, db_options(&cfg))?;
    // `Sbdms::deploy` publishes planner decisions on its bus; keep that
    // cost in the traced database too.
    db.set_event_bus(EventBus::new());
    let (page_reads, page_writes) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let (r, w) = (page_reads.clone(), page_writes.clone());
    db.storage()
        .disk
        .set_io_hook(Some(Arc::new(move |kind, _page| {
            match kind {
                IoKind::Read => r.fetch_add(1, Ordering::Relaxed),
                IoKind::Write => w.fetch_add(1, Ordering::Relaxed),
            };
        })));
    let probes = Probes {
        data: backend.data.clone(),
        wal: backend.wal.clone(),
        page_reads,
        page_writes,
    };
    Ok((db, None, Some(probes)))
}

/// Deploy, load every table, index, `ANALYZE` and start the server.
/// Returns the deployment and the time all of that took.
pub fn setup(dir: &Path, data: &Data, traced: bool) -> Result<(Deployment, Duration)> {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let (db, system, probes) = open(dir, traced)?;
    db.set_durability(DURABILITY);
    let session = db.session();
    session.execute("CREATE TABLE t (k INT NOT NULL, v INT NOT NULL, pad TEXT NOT NULL)")?;
    session.execute("CREATE TABLE d (dv INT NOT NULL, w INT NOT NULL)")?;
    session.execute("CREATE TABLE acct (k INT NOT NULL, v INT NOT NULL)")?;
    for sql in data.load_statements(LOAD_BATCH) {
        session.execute(&sql)?;
    }
    for (table, key, analyze) in TABLES {
        if let Some(key) = key {
            session.execute(&format!("CREATE INDEX {table}_{key} ON {table} ({key})"))?;
        }
        if analyze {
            session.execute(&format!("ANALYZE {table}"))?;
        }
    }
    drop(session);
    let server = Server::start_on(db.clone(), ServerConfig::default(), "127.0.0.1:0")?;
    let deployment = Deployment {
        dir: dir.to_path_buf(),
        db,
        _system: system,
        server: Some(server),
        probes,
    };
    Ok((deployment, start.elapsed()))
}

impl Deployment {
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.as_ref().expect("server running").addr()
    }

    /// Heap pages of each table, for comparison with the buffer pool.
    pub fn table_pages(&self) -> Result<Vec<(&'static str, usize)>> {
        TABLES
            .iter()
            .map(|&(name, _, _)| Ok((name, self.db.table(name)?.heap().data_pages()?.len())))
            .collect()
    }

    /// Stop the server once every connection has ended.
    fn stop_server(&mut self) {
        if let Some(server) = self.server.take() {
            let deadline = Instant::now() + Duration::from_secs(10);
            while server.stats().active > 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            server.shutdown();
        }
    }

    /// Clean shutdown: stop serving once every connection has ended,
    /// and close the database. Commits are already durable; the log is
    /// left for the reopen to recover from.
    pub fn shut_down(mut self) -> PathBuf {
        self.stop_server();
        self.dir.clone()
    }

    /// Shut down and delete the files.
    pub fn discard(mut self) {
        self.stop_server();
        let dir = self.dir.clone();
        drop(self);
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Reopen a cleanly shut down database with the deployed profile,
/// running recovery.
pub fn reopen(dir: &Path) -> Result<Sbdms> {
    let system = Sbdms::deploy(profile(dir))?;
    system.database().set_durability(DURABILITY);
    Ok(system)
}

/// Copy the database files of `dir` into a sibling directory tagged
/// `n`, for one more reopen of the same state.
pub fn copy_files(dir: &Path, n: usize) -> std::io::Result<PathBuf> {
    let copy = dir.with_extension(format!("copy{n}"));
    let _ = std::fs::remove_dir_all(&copy);
    std::fs::create_dir_all(&copy)?;
    for f in FILES {
        std::fs::copy(dir.join(f), copy.join(f))?;
    }
    Ok(copy)
}

/// Bytes of the data file and the log.
pub fn stored_bytes(dir: &Path) -> u64 {
    FILES
        .iter()
        .map(|f| std::fs::metadata(dir.join(f)).map_or(0, |m| m.len()))
        .sum()
}

/// CPU time this process has used, user and system, in seconds.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, after the parenthesised
    // command name, in clock ticks of 1/100 s (Linux's fixed USER_HZ).
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?) / 100.0)
        })
        .unwrap_or(f64::NAN)
}

/// Host CPU time stolen by other tenants and total CPU time, in ticks
/// (the first line of /proc/stat).
pub fn host_ticks() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let ticks: Vec<u64> = s
                .lines()
                .next()?
                .split_whitespace()
                .skip(1)
                .filter_map(|f| f.parse().ok())
                .collect();
            Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
        })
        .unwrap_or((0, 0))
}

/// Peak resident set of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Scale;
    use crate::load::Unit;
    use sbdms::access::Datum;

    fn smoke(name: &str, analyze_acct: bool) -> Deployment {
        let data = Data::generate(24, Scale::SMOKE);
        let dir = Path::new(".bench_work").join(format!("selftest-{name}-{}", std::process::id()));
        let (dep, _) = setup(&dir, &data, false).expect("smoke set-up");
        if analyze_acct {
            dep.db.session().execute("ANALYZE acct").unwrap();
        }
        dep
    }

    /// The operator lines of `EXPLAIN`, without estimates or decisions.
    fn plan(db: &Arc<Database>, sql: &str) -> Vec<String> {
        let rows = db
            .session()
            .execute(&format!("EXPLAIN {sql}"))
            .unwrap()
            .rows;
        rows.iter()
            .filter_map(|r| match &r[0] {
                Datum::Str(l) if !l.starts_with("--") => {
                    Some(l.split(" [rows=").next().unwrap_or_default().to_string())
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn acct_plans_do_not_depend_on_statistics() {
        let select = &Unit::Txn(7, 8).statements(&[])[0];
        let plans: Vec<Vec<String>> = [false, true]
            .into_iter()
            .map(|analyzed| {
                let dep = smoke(&format!("plans-{analyzed}"), analyzed);
                let p = plan(&dep.db, select);
                dep.discard();
                p
            })
            .collect();
        assert!(plans[0].iter().any(|l| l.contains("IndexScan acct.acct_k")));
        assert_eq!(plans[0], plans[1]);
    }

    /// Two sessions re-analyzing one table at once, as two connections'
    /// reads of a table with stale statistics do.
    #[test]
    #[ignore = "fails: concurrent Catalog::update_stats calls delete the same catalog record"]
    fn concurrent_analyze_of_one_table_succeeds() {
        let dep = smoke("analyze-race", true);
        let results: Vec<Result<()>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let session = dep.db.session();
                    s.spawn(move || {
                        (0..300).try_for_each(|_| session.execute("ANALYZE acct").map(drop))
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        dep.discard();
        for r in results {
            assert!(r.is_ok(), "{r:?}");
        }
    }
}
