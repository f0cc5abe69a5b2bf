//! Shared workload helpers for the SBDMS experiment harness.
//!
//! One function per experiment lives in [`experiments`]; the `report`
//! binary runs them with plain timers to print the paper-vs-measured
//! tables recorded in EXPERIMENTS.md.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A unique temp directory for one experiment instance.
pub fn bench_dir(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join("sbdms-bench")
        .join(format!("{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic payload generator for record workloads.
pub fn payload(i: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    while out.len() < len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(len);
    out
}

pub mod experiments {
    //! One self-contained runner per experiment, run by the report
    //! binary.

    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use sbdms::baseline::{ArchitectureStyle, StyleUnderTest};
    use sbdms::distributed::{Cluster, PlacementStrategy};
    use sbdms::embedded::footprint;
    use sbdms::flexibility::adaptation::AdaptationManager;
    use sbdms::flexibility::extension::publish_and_probe;
    use sbdms::flexibility::selection::{SelectionStrategy, ServiceSelector};
    use sbdms::granularity::{GranularDeployment, Granularity};
    use sbdms::kernel::binding::BindingKind;
    use sbdms::kernel::bus::ServiceBus;
    use sbdms::kernel::contract::{Contract, Quality};
    use sbdms::kernel::coordinator::Coordinator;
    use sbdms::kernel::faults::{FaultHandle, FaultMode, FaultableService};
    use sbdms::kernel::interface::{Interface, Operation, Param};
    use sbdms::kernel::resource::ResourceManager;
    use sbdms::kernel::service::{FnService, ServiceRef};
    use sbdms::kernel::value::{TypeTag, Value};
    use sbdms::{Profile, Sbdms};

    use super::{bench_dir, payload};

    /// E1 workload driver: build one architecture style pre-loaded with
    /// `preload` records.
    pub fn e1_style(style: ArchitectureStyle, preload: i64) -> StyleUnderTest {
        let s = StyleUnderTest::new(style, bench_dir(&format!("e1-{}", style.name()))).unwrap();
        for i in 0..preload {
            s.insert(i, std::str::from_utf8(&payload(i as u64, 64)).unwrap_or("x")).unwrap();
        }
        s
    }

    /// E1: run the OLTP op round (1 insert + 3 point reads), returning
    /// ops done. The scan is measured separately — against a 2000-row
    /// scan the per-call architecture overhead would be invisible, and
    /// that *contrast* is itself part of the E1 result.
    pub fn e1_round(s: &StyleUnderTest, round: i64, preload: i64) -> usize {
        s.insert(preload + round, "new-record").unwrap();
        for k in 0..3 {
            let _ = s.point_read((round * 37 + k) % preload).unwrap();
        }
        4
    }

    /// E1: a single point read (the micro-op where dispatch overhead is
    /// most visible).
    pub fn e1_point_read(s: &StyleUnderTest, round: i64, preload: i64) {
        let _ = s.point_read((round * 17) % preload).unwrap();
    }

    /// E1: a full scan (functional work dominates; overheads vanish).
    pub fn e1_scan(s: &StyleUnderTest) -> usize {
        s.scan_count().unwrap()
    }

    /// E2: a deployed full system plus prepared state (one table, one
    /// heap, one XML doc) so every layer has a cheap, side-effect-free
    /// representative op. The heap handle is parked in the property store.
    pub fn e2_system() -> Sbdms {
        let system = Sbdms::open(Profile::FullFledged, bench_dir("e2")).unwrap();
        system.execute_sql("CREATE TABLE probe (x INT)").unwrap();
        system.execute_sql("INSERT INTO probe VALUES (1)").unwrap();
        let bus = system.bus();
        bus.invoke(
            system.service("xml").unwrap(),
            "put",
            Value::map().with("name", "probe").with("xml", "<p><v>1</v></p>"),
        )
        .unwrap();
        let heap = bus
            .invoke(system.service("heap").unwrap(), "create_heap", Value::map())
            .unwrap();
        bus.invoke(
            system.service("heap").unwrap(),
            "insert",
            Value::map()
                .with("heap", heap.as_int().unwrap())
                .with("record", b"probe".to_vec()),
        )
        .unwrap();
        bus.properties().set("bench.e2.heap", heap);
        system
    }

    /// E2: the representative op for one layer, returning the op spec.
    pub fn e2_layer_op(
        system: &Sbdms,
        layer: &str,
    ) -> (sbdms::kernel::service::ServiceId, &'static str, Value) {
        match layer {
            "storage" => (system.service("buffer").unwrap(), "stats", Value::map()),
            "access" => {
                let heap = system.bus().properties().get("bench.e2.heap").unwrap();
                (
                    system.service("heap").unwrap(),
                    "count",
                    Value::map().with("heap", heap),
                )
            }
            "data" => (
                system.service("query").unwrap(),
                "execute",
                Value::map().with("sql", "SELECT x FROM probe"),
            ),
            "extension" => (
                system.service("xml").unwrap(),
                "query",
                Value::map().with("name", "probe").with("path", "p/v"),
            ),
            other => panic!("unknown layer {other}"),
        }
    }

    /// E3: build a granularity × binding deployment.
    pub fn e3_deployment(g: Granularity, binding: BindingKind) -> GranularDeployment {
        GranularDeployment::new(g, binding, bench_dir(&format!("e3-{}", g.name()))).unwrap()
    }

    /// E3: one operation pair (insert + read back).
    pub fn e3_op(dep: &GranularDeployment, i: u64) {
        let (page, slot) = dep.insert(&payload(i, 100)).unwrap();
        let got = dep.get(page, slot).unwrap();
        assert_eq!(got.len(), 100);
    }

    /// E4: a bus pre-populated with `registry_size` services.
    pub fn e4_bus(registry_size: usize) -> ServiceBus {
        let bus = ServiceBus::new();
        for i in 0..registry_size {
            let iface = Interface::new(&format!("filler.I{i}"), 1, vec![Operation::opaque("noop")]);
            bus.deploy(
                FnService::new(
                    &format!("filler-{i}"),
                    Contract::for_interface(iface),
                    |_, v| Ok(v),
                )
                .into_ref(),
            )
            .unwrap();
        }
        bus
    }

    /// E4: publish one new service and first-use it; returns both times.
    pub fn e4_publish_once(bus: &ServiceBus, n: u64) -> (Duration, Duration) {
        let iface = Interface::new(
            &format!("user.Published{n}"),
            1,
            vec![Operation::opaque("ping")],
        );
        let svc =
            FnService::new(&format!("published-{n}"), Contract::for_interface(iface), |_, v| Ok(v))
                .into_ref();
        let report = publish_and_probe(bus, svc, "ping", Value::map()).unwrap();
        (report.publish_time, report.first_use_time)
    }

    /// E5/E6 shared: the kv interface used by alternates.
    pub fn kv_interface() -> Interface {
        Interface::new(
            "bench.Kv",
            1,
            vec![Operation::new(
                "get",
                vec![Param::required("key", TypeTag::Str)],
                TypeTag::Str,
            )],
        )
    }

    /// A kv provider with an advertised latency.
    pub fn kv_service(name: &str, advertised_ns: u64) -> ServiceRef {
        let marker = name.to_string();
        FnService::new(
            name,
            Contract::for_interface(kv_interface()).quality(Quality {
                expected_latency_ns: advertised_ns,
                ..Quality::default()
            }),
            move |_, input| {
                let key = input.require("key")?.as_str()?;
                Ok(Value::Str(format!("{marker}:{key}")))
            },
        )
        .into_ref()
    }

    /// E5: bus with `n` alternates and a selector.
    pub fn e5_setup(n: usize, strategy: SelectionStrategy) -> ServiceSelector {
        let bus = ServiceBus::new();
        for i in 0..n {
            bus.deploy(kv_service(&format!("alt-{i}"), 100 * (i as u64 + 1)))
                .unwrap();
        }
        ServiceSelector::new(bus, strategy)
    }

    /// E6 scenario variants.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum E6Scenario {
        /// A same-interface twin exists (direct substitution).
        DirectSubstitute,
        /// Only an incompatible service + schema exist (adaptor path).
        AdaptedSubstitute,
    }

    /// E6: build a bus with a killable primary and the chosen substitute,
    /// returning (bus, manager, kill-switch).
    pub fn e6_setup(scenario: E6Scenario) -> (ServiceBus, AdaptationManager, FaultHandle) {
        let bus = ServiceBus::new();
        let (primary, handle) = FaultableService::wrap(kv_service("primary", 10));
        bus.deploy(primary).unwrap();
        match scenario {
            E6Scenario::DirectSubstitute => {
                bus.deploy(kv_service("twin", 50)).unwrap();
            }
            E6Scenario::AdaptedSubstitute => {
                let alt_iface = Interface::new(
                    "bench.AltKv",
                    1,
                    vec![Operation::new(
                        "lookup",
                        vec![Param::required("k", TypeTag::Str)],
                        TypeTag::Map,
                    )],
                );
                bus.deploy(
                    FnService::new("alt", Contract::for_interface(alt_iface), |_, input| {
                        let k = input.require("k")?.as_str()?;
                        Ok(Value::map().with("v", format!("alt:{k}")))
                    })
                    .into_ref(),
                )
                .unwrap();
                bus.repository().store_schema(
                    sbdms::kernel::repository::TransformationalSchema::new(
                        "bench.Kv",
                        "bench.AltKv",
                    )
                    .with_op(
                        sbdms::kernel::repository::OperationMapping::identity("get")
                            .to_op("lookup")
                            .rename("key", "k")
                            .extract("v"),
                    ),
                );
            }
        }
        let resources = ResourceManager::new(bus.events().clone(), bus.properties().clone());
        let manager =
            AdaptationManager::new(bus.clone(), Coordinator::new(bus.clone(), resources));
        (bus, manager, handle)
    }

    /// E6: kill, recover, verify routing; returns the recovery latency.
    pub fn e6_failover_once(scenario: E6Scenario) -> Duration {
        let (bus, manager, handle) = e6_setup(scenario);
        handle.kill("bench");
        let start = Instant::now();
        let report = manager.tick();
        let elapsed = start.elapsed();
        assert_eq!(report.recovered(), 1, "{scenario:?}");
        let out = bus
            .invoke_interface("bench.Kv", "get", Value::map().with("key", "k"))
            .unwrap();
        assert!(matches!(out, Value::Str(_)));
        elapsed
    }

    /// E6 MTTR: recovery from a *silent* failure, measured in
    /// caller-visible calls. The primary keeps reporting
    /// `Health::Healthy` while every call fails, so late binding cannot
    /// route around it and the health monitor cannot detect it — only
    /// the resilient invocation layer (retry → breaker trip → failover)
    /// sees the failures. Returns `(calls_until_success,
    /// caller_visible_errors)`; callers that never recover within `cap`
    /// calls report `(cap, cap)`.
    ///
    /// With resilience on, the first call already succeeds: the breaker
    /// trips inside it and the coordinator's hook re-routes to the twin
    /// (MTTR = 1 call ≤ retries + 1). With resilience off, the seed
    /// dispatch returns the error every time — the outage is permanent.
    pub fn e6_mttr(resilience_on: bool, cap: u32) -> (u32, u32) {
        let bus = ServiceBus::new();
        let (primary, handle) = FaultableService::wrap(kv_service("primary", 10));
        bus.deploy(primary).unwrap();
        bus.deploy(kv_service("twin", 50)).unwrap();
        let resources = ResourceManager::new(bus.events().clone(), bus.properties().clone());
        let coordinator = Coordinator::new(bus.clone(), resources);
        coordinator.install_failover();
        bus.resilience().set_enabled(resilience_on);
        handle.set_mode(FaultMode::Flaky {
            period: u64::MAX,
            fail_every: u64::MAX,
        });
        let mut errors = 0;
        for call in 1..=cap {
            match bus.invoke_interface("bench.Kv", "get", Value::map().with("key", "k")) {
                Ok(_) => return (call, errors),
                Err(_) => errors += 1,
            }
        }
        (cap, errors)
    }

    /// E7: deploy a profile, returning (setup time, footprint report).
    pub fn e7_deploy(profile: Profile) -> (Duration, sbdms::embedded::FootprintReport) {
        let start = Instant::now();
        let system = Sbdms::open(profile, bench_dir("e7")).unwrap();
        let setup = start.elapsed();
        (setup, footprint(&system))
    }

    /// E8: a 3-device cluster spanning zones 0/25/50 with generous
    /// batteries (placement is the variable, not redirection).
    pub fn e8_cluster() -> Arc<Cluster> {
        let cluster = Arc::new(Cluster::new(&[0, 25, 50], u64::MAX / 2, 0, 1).unwrap());
        cluster.seed(&[("k", "v")]);
        cluster
    }

    /// E8: one read from a client at `zone` under a strategy.
    pub fn e8_read(cluster: &Cluster, zone: i64, strategy: PlacementStrategy) {
        let (out, _) = cluster
            .request(zone, strategy, "get", Value::map().with("key", "k"))
            .unwrap();
        assert_eq!(out, Value::Str("v".into()));
    }

    // --- E9: data-plane concurrency -------------------------------------

    use sbdms::data::executor::{Database, DbOptions};
    use sbdms::data::Session;
    use sbdms::storage::{BufferPool, DiskManager};

    /// E9: a warmed buffer pool with `shards` lock stripes and one frame
    /// per preloaded page, so concurrent point reads are all cache hits —
    /// the experiment measures lock contention, not disk I/O. Returns the
    /// pool and the preloaded page ids.
    pub fn e9_pool(shards: usize, pages: usize) -> (Arc<BufferPool>, Vec<u64>) {
        let dir = bench_dir(&format!("e9-pool-{shards}"));
        std::fs::create_dir_all(&dir).unwrap();
        let disk = Arc::new(DiskManager::open(dir.join("data.db")).unwrap());
        let pool = Arc::new(BufferPool::new_sharded(disk, pages, shards));
        let ids: Vec<u64> = (0..pages)
            .map(|i| {
                let id = pool.new_page().unwrap();
                pool.with_page_mut(id, |p| {
                    p.insert(&payload(i as u64, 64)).unwrap();
                })
                .unwrap();
                id
            })
            .collect();
        (pool, ids)
    }

    /// E9: hammer cached point reads from `threads` workers; returns
    /// operations per second over the whole run.
    pub fn e9_point_read_throughput(
        pool: &Arc<BufferPool>,
        pages: &[u64],
        threads: usize,
        iters_per_thread: usize,
    ) -> f64 {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || {
                    let mut x = (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                    for _ in 0..iters_per_thread {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let id = pages[(x % pages.len() as u64) as usize];
                        let n = pool.with_page(id, |p| p.live_records()).unwrap();
                        assert!(n > 0);
                    }
                });
            }
        });
        (threads * iters_per_thread) as f64 / start.elapsed().as_secs_f64()
    }

    /// E9: a database for scan and plan-cache experiments — `rows` rows
    /// in one table, pool striped into `shards`, and the plan cache on
    /// or off.
    pub fn e9_db(rows: usize, shards: usize, plan_cache: bool) -> Arc<Database> {
        let db = Database::open_opts(
            bench_dir(&format!("e9-db-{shards}-{plan_cache}")),
            DbOptions {
                buffer_frames: 512,
                buffer_shards: Some(shards),
                plan_cache_capacity: if plan_cache { 64 } else { 0 },
                ..DbOptions::default()
            },
        )
        .unwrap();
        let s = db.session();
        s.execute("CREATE TABLE events (id INT NOT NULL, label TEXT NOT NULL)")
            .unwrap();
        for chunk in (0..rows as i64).collect::<Vec<_>>().chunks(200) {
            let values: Vec<String> = chunk
                .iter()
                .map(|i| format!("({i}, 'event-{i}')"))
                .collect();
            s.execute(&format!("INSERT INTO events VALUES {}", values.join(", ")))
                .unwrap();
        }
        // Index-backed point statements: execution is cheap, so the
        // parse+plan cost the plan cache removes is visible.
        s.execute("CREATE INDEX events_id ON events (id)").unwrap();
        db
    }

    /// E9: full-table-scan queries from `threads` concurrent sessions;
    /// returns scans per second.
    pub fn e9_scan_throughput(
        db: &Arc<Database>,
        threads: usize,
        scans_per_thread: usize,
    ) -> f64 {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let session = db.session();
                    for _ in 0..scans_per_thread {
                        let n = session.execute("SELECT id, label FROM events").unwrap().rows.len();
                        assert!(n > 0);
                    }
                });
            }
        });
        (threads * scans_per_thread) as f64 / start.elapsed().as_secs_f64()
    }

    /// E9: one hot point statement — a small set of 16 distinct texts
    /// cycled round-robin, the repeated-statement workload the plan
    /// cache accelerates.
    pub fn e9_statement(session: &Session, round: u64) {
        let id = (round % 16) * 3;
        let out = session
            .execute(&format!("SELECT label FROM events WHERE id = {id}"))
            .unwrap();
        assert_eq!(out.columns.len(), 1);
    }

    // --- E10: crash recovery and checksum cost --------------------------

    use sbdms::data::txn::{Durability, KIND_COMMIT, KIND_DATA};
    use sbdms::storage::{SimBackend, SimConfig};

    /// E10: build a simulated database whose WAL holds `committed`
    /// committed transactions of `ops_per_txn` rows plus a tail
    /// transaction of as many rows that lost power inside its commit:
    /// after the commit apply wrote its pages back and synced them, and
    /// before its commit record reached the log. Recovery therefore has
    /// the tail's rows to take back out of the heap. Returns the backend
    /// (ready for a timed recovery open), the durable WAL size in bytes,
    /// and the tail's undo records in the durable WAL.
    pub fn e10_crashed_sim(committed: usize, ops_per_txn: usize) -> (Arc<SimBackend>, u64, usize) {
        // A fault-free run counts the tail commit's durability events;
        // the last two are the commit record's log write and sync.
        let (_, span) = e10_run(committed, ops_per_txn, None);
        let (sim, _) = e10_run(committed, ops_per_txn, Some(span - 2));
        sim.power_cycle();
        let wal = sim.durable_bytes("wal.log").unwrap_or_default();
        let records = sbdms::storage::wal::scan_bytes(&wal);
        let tail_start = records
            .iter()
            .rposition(|r| r.kind == KIND_COMMIT)
            .map_or(0, |i| i + 1);
        let undo = records[tail_start..]
            .iter()
            .filter(|r| r.kind == KIND_DATA)
            .count();
        (sim, wal.len() as u64, undo)
    }

    /// One deterministic E10 run on a fresh device: the committed
    /// prefix, then the tail transaction's commit, with the power set to
    /// fail after `crash_after` of the commit's durability events.
    /// Returns the device and the commit's event count.
    fn e10_run(
        committed: usize,
        ops_per_txn: usize,
        crash_after: Option<u64>,
    ) -> (Arc<SimBackend>, u64) {
        let sim = SimBackend::new(SimConfig::seeded(0xE10));
        let db = Database::open_at(&*sim, DbOptions::default()).unwrap();
        db.set_durability(Durability::Full);
        let s = db.session();
        s.execute("CREATE TABLE kv (k INT NOT NULL, v INT NOT NULL)")
            .unwrap();
        db.checkpoint().unwrap();
        let mut next = 0i64;
        let mut txn = |rows: usize| {
            s.begin().unwrap();
            for _ in 0..rows {
                s.execute(&format!("INSERT INTO kv VALUES ({next}, {next})"))
                    .unwrap();
                next += 1;
            }
        };
        for _ in 0..committed {
            txn(ops_per_txn);
            s.commit().unwrap();
        }
        txn(ops_per_txn);
        let base = sim.io_events();
        if let Some(n) = crash_after {
            sim.crash_after_events(base + n);
        }
        let outcome = s.commit();
        assert_eq!(outcome.is_ok(), crash_after.is_none(), "E10 tail commit: {outcome:?}");
        let span = sim.io_events() - base;
        drop((s, db));
        (sim, span)
    }

    /// E10: timed crash-recovery open on a backend prepared by
    /// [`e10_crashed_sim`]. Returns the open duration and the row count
    /// the recovered database reports (committed rows only).
    pub fn e10_recover(sim: &SimBackend) -> (Duration, i64) {
        let start = Instant::now();
        let db = Database::open_at(sim, DbOptions::default()).unwrap();
        let elapsed = start.elapsed();
        let out = db.session().execute("SELECT COUNT(*) FROM kv").unwrap();
        let sbdms::access::record::Datum::Int(rows) = out.rows[0][0] else {
            panic!("COUNT(*) did not return an integer");
        };
        (elapsed, rows)
    }

    /// E10: the pre-optimisation bitwise CRC-32, kept as the baseline
    /// side of the table-vs-bitwise checksum comparison.
    pub fn e10_crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    /// E10: checksum throughput in MiB/s over `rounds` passes of a
    /// deterministic `len`-byte payload.
    pub fn e10_crc_throughput(table_driven: bool, len: usize, rounds: usize) -> f64 {
        let data = crate::payload(0xC2C, len);
        let start = Instant::now();
        let mut acc = 0u32;
        for _ in 0..rounds {
            acc ^= if table_driven {
                sbdms::storage::wal::crc32(&data)
            } else {
                e10_crc32_bitwise(&data)
            };
        }
        std::hint::black_box(acc);
        (len * rounds) as f64 / (1 << 20) as f64 / start.elapsed().as_secs_f64()
    }

    // --- E11: cost-based plan selection ---------------------------------

    /// E11 join-order query: textually the two big relations join first
    /// (an exploding intermediate); the cost model starts from the
    /// filtered tiny relation instead.
    pub const E11_JOIN_Q: &str = "SELECT COUNT(*) FROM big1 \
        JOIN big2 ON big1.x = big2.x \
        JOIN tiny ON big2.y = tiny.id \
        WHERE tiny.tag = 't7'";

    /// E11 selective index probe: ~0.1% of `items` by value range — the
    /// access path a cost model should take.
    pub const E11_IDX_SEL_Q: &str =
        "SELECT COUNT(*) FROM items WHERE val >= 500 AND val <= 519";

    /// E11 non-selective range: matches every row — the access path a
    /// cost model with statistics should *refuse* (without them it
    /// cannot tell this range from a selective one, and takes the index).
    pub const E11_IDX_NONSEL_Q: &str = "SELECT COUNT(*) FROM items WHERE val >= 0";

    /// E11: the database. `big_rows` sizes the two fact-like tables (x
    /// fans out ~30-way between them, y points into the 100-row `tiny`);
    /// `item_rows` sizes the indexed lookup table. With `analyze` every
    /// table is ANALYZEd; without it the cost model plans them all with
    /// its default statistics (the un-analyzed twin).
    pub fn e11_db(big_rows: usize, item_rows: usize, analyze: bool) -> Arc<Database> {
        let db = Database::open_opts(bench_dir("e11"), DbOptions::default()).unwrap();
        let s = db.session();
        for ddl in [
            "CREATE TABLE big1 (id INT NOT NULL, x INT NOT NULL, y INT NOT NULL)",
            "CREATE TABLE big2 (id INT NOT NULL, x INT NOT NULL, y INT NOT NULL)",
            "CREATE TABLE tiny (id INT NOT NULL, tag TEXT NOT NULL)",
            "CREATE TABLE items (id INT NOT NULL, val INT NOT NULL)",
            "CREATE INDEX items_val ON items (val)",
        ] {
            s.execute(ddl).unwrap();
        }
        let xs = (big_rows / 30).max(1);
        for table in ["big1", "big2"] {
            for chunk in (0..big_rows as i64).collect::<Vec<_>>().chunks(200) {
                let vals: Vec<String> = chunk
                    .iter()
                    .map(|i| format!("({i}, {}, {})", i % xs as i64, i % 100))
                    .collect();
                s.execute(&format!("INSERT INTO {table} VALUES {}", vals.join(", ")))
                    .unwrap();
            }
        }
        let vals: Vec<String> = (0..100i64).map(|i| format!("({i}, 't{i}')")).collect();
        s.execute(&format!("INSERT INTO tiny VALUES {}", vals.join(", ")))
            .unwrap();
        // `val` is a permutation-ish spread so the histogram sees the
        // full domain and BETWEEN windows stay narrow.
        for chunk in (0..item_rows as i64).collect::<Vec<_>>().chunks(200) {
            let vals: Vec<String> = chunk
                .iter()
                .map(|i| format!("({i}, {})", (i * 7919) % item_rows as i64))
                .collect();
            s.execute(&format!("INSERT INTO items VALUES {}", vals.join(", ")))
                .unwrap();
        }
        if analyze {
            for table in ["big1", "big2", "tiny", "items"] {
                s.execute(&format!("ANALYZE {table}")).unwrap();
            }
        }
        db
    }

    /// E11 planner configurations: full cost-based selection plus the
    /// baselines the experiment compares it against.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum E11Config {
        /// Statistics, reordering and access-path selection on.
        CostBased,
        /// Joins stay in textual order; everything else cost-based.
        NoReorder,
        /// Sequential scans only.
        NoIndex,
    }

    impl E11Config {
        /// Display name for report tables.
        pub fn name(&self) -> String {
            match self {
                E11Config::CostBased => "cost-based".into(),
                E11Config::NoReorder => "textual-order".into(),
                E11Config::NoIndex => "seq-only".into(),
            }
        }
    }

    /// E11: put the database's planner knobs into `config`.
    pub fn e11_apply(db: &Database, config: E11Config) {
        // Reset to the cost-based defaults first.
        db.set_join_reordering(true);
        db.set_index_selection(true);
        match config {
            E11Config::CostBased => {}
            E11Config::NoReorder => db.set_join_reordering(false),
            E11Config::NoIndex => db.set_index_selection(false),
        }
    }

    /// E11: run one query and return its single COUNT(*) value.
    pub fn e11_count(session: &Session, sql: &str) -> i64 {
        let out = session.execute(sql).unwrap();
        let sbdms::access::record::Datum::Int(n) = out.rows[0][0] else {
            panic!("E11 query did not return an integer count");
        };
        n
    }

    // --- E12: full batches vs row-at-a-time batches ----------------------

    use sbdms::access::exec::aggregate::{AggFunc, AggSpec};
    use sbdms::access::exec::engine::VectorEngine;
    use sbdms::access::exec::expr::Expr;
    use sbdms::access::exec::join::BuildSide;
    use sbdms::access::record::{Datum, Tuple};

    /// E12 fact rows `(id, grp, val)`: grp fans into 64 groups, val is a
    /// 7919-step permutation-ish spread over `0..n`. Pre-materialised so
    /// the batch sizes are measured on pure execution, not page decoding
    /// (which every batch size shares byte-for-byte).
    pub fn e12_fact(n: usize) -> Vec<Tuple> {
        (0..n as i64)
            .map(|i| {
                vec![
                    Datum::Int(i),
                    Datum::Int(i % 64),
                    Datum::Int(i.wrapping_mul(7919) % n as i64),
                ]
            })
            .collect()
    }

    /// E12 dimension rows `(grp, weight)`, one per group.
    pub fn e12_dim(groups: usize) -> Vec<Tuple> {
        (0..groups as i64)
            .map(|g| vec![Datum::Int(g), Datum::Int(g * 10)])
            .collect()
    }

    /// E12 duplicate-key dimension: each group appears `dups` times, so
    /// every probe hit walks a `dups`-long chain and the join fans out
    /// `dups`×.
    pub fn e12_dim_dup(groups: usize, dups: usize) -> Vec<Tuple> {
        (0..groups as i64)
            .flat_map(|g| {
                (0..dups as i64).map(move |d| vec![Datum::Int(g), Datum::Int(g * 10 + d)])
            })
            .collect()
    }

    /// E12 high-NDV dimension `(id, weight)`: one row per fact id, so
    /// the build side holds `n` distinct keys — the stress case for
    /// per-key allocation in a hash-map build.
    pub fn e12_dim_highndv(n: usize) -> Vec<Tuple> {
        (0..n as i64)
            .map(|id| vec![Datum::Int(id), Datum::Int(id * 3)])
            .collect()
    }

    /// E12 scan→filter→aggregate:
    /// `SELECT grp, COUNT(*), SUM(val), MIN(val) WHERE val < threshold
    /// GROUP BY grp`. Returns the number of groups.
    pub fn e12_scan_filter_aggregate(
        engine: &VectorEngine,
        rows: Vec<Tuple>,
        threshold: i64,
    ) -> usize {
        let scan = engine.values(rows);
        let filtered = engine.filter(scan, Expr::col(2).lt(Expr::int(threshold)));
        let grouped = engine
            .hash_aggregate(
                filtered,
                vec![Expr::col(1)],
                vec![
                    AggSpec::new(AggFunc::CountAll, Expr::int(0)),
                    AggSpec::new(AggFunc::Sum, Expr::col(2)),
                    AggSpec::new(AggFunc::Min, Expr::col(2)),
                ],
            )
            .unwrap();
        engine.collect(grouped).unwrap().len()
    }

    /// Shared E12 join pipeline: fact ⋈ dim on `fact_col` = dim col 0
    /// (hash join building on the dimension), then a global
    /// `COUNT(*), SUM(weight)` — the standard star-join shape, where
    /// the join's output feeds an aggregate instead of being shipped
    /// back to the client row by row. Returns the joined row count
    /// (the COUNT(*) value).
    fn e12_join_on(
        engine: &VectorEngine,
        fact: Vec<Tuple>,
        dim: Vec<Tuple>,
        fact_col: usize,
    ) -> usize {
        let joined = engine
            .equi_join(engine.values(fact), engine.values(dim), fact_col, 0, BuildSide::Right)
            .unwrap();
        // Joined rows are fact(id, grp, val) ++ dim(key, weight):
        // weight is column 4.
        let agg = engine
            .hash_aggregate(
                joined,
                vec![],
                vec![
                    AggSpec::new(AggFunc::CountAll, Expr::int(0)),
                    AggSpec::new(AggFunc::Sum, Expr::col(4)),
                ],
            )
            .unwrap();
        let out = engine.collect(agg).unwrap();
        let Datum::Int(n) = out[0][0] else {
            panic!("E12 join aggregate did not return an integer count");
        };
        std::hint::black_box(&out[0][1]);
        n as usize
    }

    /// E12 join throughput: fact ⋈ dim on grp, feeding a global
    /// `COUNT(*), SUM(weight)` aggregate. Returns the joined row count.
    pub fn e12_join(engine: &VectorEngine, fact: Vec<Tuple>, dim: Vec<Tuple>) -> usize {
        e12_join_on(engine, fact, dim, 1)
    }

    /// E12 high-NDV join: fact ⋈ dim on the unique id column, so the
    /// build side has one chain per fact row.
    pub fn e12_join_highndv(engine: &VectorEngine, fact: Vec<Tuple>, dim: Vec<Tuple>) -> usize {
        e12_join_on(engine, fact, dim, 0)
    }

    /// E12 join with full row materialisation: the same fact ⋈ dim join
    /// but collecting every joined row back to row-major tuples —
    /// isolates the transpose-out cost the aggregate pipeline avoids.
    pub fn e12_join_rows(engine: &VectorEngine, fact: Vec<Tuple>, dim: Vec<Tuple>) -> usize {
        let joined = engine
            .equi_join(engine.values(fact), engine.values(dim), 1, 0, BuildSide::Right)
            .unwrap();
        engine.collect(joined).unwrap().len()
    }

    /// Rows of the E12 SQL-shape table `t (k, v, pad)`: with a
    /// 40-character pad they fill about 690 heap pages, 2.7× the
    /// 256-frame pool, as `perfbench`'s `scan_mix` table does.
    pub const E12_SQL_ROWS: usize = 40_000;

    /// Rows of the E12 SQL-shape dimension `d (dv, w)`; `t.v` ranges over
    /// `0..E12_SQL_DIM`.
    pub const E12_SQL_DIM: usize = 1_000;

    /// The E12 SQL-shape database: `t` and `d` loaded and analyzed under
    /// the full-fledged profile's MVCC with a 256-frame pool, so every
    /// scan of `t` misses the pool.
    pub fn e12_sql_db(rows: usize) -> Arc<Database> {
        let db = Database::open_opts(
            bench_dir(&format!("e12-sql-{rows}")),
            DbOptions {
                buffer_frames: 256,
                concurrency: sbdms::data::ConcurrencyControl::Mvcc,
                ..DbOptions::default()
            },
        )
        .unwrap();
        let s = db.session();
        s.execute("CREATE TABLE t (k INT NOT NULL, v INT NOT NULL, pad TEXT NOT NULL)").unwrap();
        s.execute("CREATE TABLE d (dv INT NOT NULL, w INT NOT NULL)").unwrap();
        let pad = "p".repeat(40);
        let keys: Vec<usize> = (0..rows).collect();
        for chunk in keys.chunks(1_000) {
            let values: Vec<String> = chunk
                .iter()
                .map(|&k| format!("({k}, {}, '{pad}')", (k * 7_919 + 13) % E12_SQL_DIM))
                .collect();
            s.execute(&format!("INSERT INTO t VALUES {}", values.join(", "))).unwrap();
        }
        let dims: Vec<String> =
            (0..E12_SQL_DIM).map(|dv| format!("({dv}, {})", dv * 37 % 1_000)).collect();
        s.execute(&format!("INSERT INTO d VALUES {}", dims.join(", "))).unwrap();
        s.execute("CREATE INDEX t_k ON t (k)").unwrap();
        s.execute("ANALYZE t").unwrap();
        s.execute("ANALYZE d").unwrap();
        db
    }

    /// The three `scan_mix` SQL shapes as `(name, statement)`, each with
    /// its filter constant in the middle of the domain.
    pub fn e12_sql_shapes() -> [(&'static str, String); 3] {
        let c = E12_SQL_DIM / 2;
        [
            ("sum", format!("SELECT SUM(v), COUNT(*) FROM t WHERE v < {c}")),
            ("group_by", format!("SELECT v, COUNT(*), SUM(k) FROM t WHERE v >= {c} GROUP BY v")),
            ("join", format!("SELECT SUM(d.w), COUNT(*) FROM t JOIN d ON t.v = d.dv WHERE d.w < {c}")),
        ]
    }

    /// The layers of one full scan of the E12 table `t`, cheapest first:
    /// each sweeps every data page in storage order and adds one layer
    /// to the one before, so the difference between neighbours is what
    /// that layer costs.
    /// - `io`: read each page from the data file, no pool;
    /// - `miss`: fetch each page through the pool (the table is 2.7x the
    ///   pool, so in a sweep every fetch misses and evicts);
    /// - `walk`: list each page's live records on the frame, as a scan
    ///   hands them to its decoder;
    /// - `decode`: decode the records into typed column vectors with the
    ///   scan's `PageDecoder`, `k` and `v` only, as the `scan_mix` shapes
    ///   read them (`pad` is counted, not built);
    /// - `batches`: cut the columns into `BATCH_ROWS`-row batches
    ///   (`scan_batches`);
    /// - `table_read`: the `TableScan` leaf under an MVCC read snapshot,
    ///   the read every `scan_mix` statement makes, below a projection
    ///   of `k` and `v` that prunes `pad` as those statements do.
    pub const E12_SCAN_LAYERS: [&str; 6] =
        ["io", "miss", "walk", "decode", "batches", "table_read"];

    /// One sweep of layer `E12_SCAN_LAYERS[layer]` over `t`; returns the
    /// rows (or, for `io` and `miss`, the pages) it saw.
    pub fn e12_scan_layer(db: &Database, layer: usize) -> usize {
        use sbdms::access::exec::batch::{scan_batches, PageSource};
        use sbdms::access::exec::{Column, BATCH_ROWS};
        use sbdms::access::heap::HeapFile;
        use sbdms::access::record::PageDecoder;
        use sbdms::data::Plan;
        use sbdms::kernel::governor::ExecContext;
        use sbdms::storage::{PageId, SlotId, PAGE_SIZE};
        use std::ops::Range;

        /// Every live record of a page, decoded by the scan's decoder.
        struct Decode(Arc<BufferPool>, PageDecoder, Vec<(SlotId, Range<usize>)>);
        impl PageSource for Decode {
            fn page(
                &mut self,
                page: PageId,
                columns: &mut [Column],
            ) -> sbdms::kernel::error::Result<usize> {
                let Decode(buffer, decoder, records) = self;
                let mut rows = 0;
                HeapFile::walk_page(buffer, page, records, |bytes, records| {
                    rows += records.len();
                    decoder.decode(bytes, records, columns)
                })?;
                Ok(rows)
            }
        }

        let t = db.table("t").unwrap();
        let pages = t.heap().data_pages().unwrap();
        // `k` and `v` typed, `pad` its length alone, as `scan_mix` reads t:
        // the decoder the `TableScan` leaf builds for those statements.
        let keep = [true, true, false];
        let kinds = t.schema().column_kinds(Some(&keep));
        let decode = |buffer| Decode(buffer, PageDecoder::new(&t.schema().column_kinds(None), Some(&keep)), Vec::new());
        let buffer = db.storage().buffer.clone();
        match E12_SCAN_LAYERS[layer] {
            "io" => {
                let mut buf = vec![0u8; PAGE_SIZE];
                for &p in &pages {
                    db.storage().disk.read_page_into(p, &mut buf).unwrap();
                }
                pages.len()
            }
            "miss" => {
                for &p in &pages {
                    buffer.with_page(p, |_| ()).unwrap();
                }
                pages.len()
            }
            "walk" => {
                let (mut rows, mut records) = (0, Vec::new());
                for &p in &pages {
                    HeapFile::walk_page(&buffer, p, &mut records, |_, records| {
                        rows += records.len();
                        Ok(())
                    })
                    .unwrap();
                }
                rows
            }
            "decode" => {
                let (mut decode, mut rows) = (decode(buffer), 0);
                let mut columns: Vec<Column> = kinds.iter().map(|&k| Column::new(k)).collect();
                for &p in &pages {
                    columns.iter_mut().for_each(|c| c.truncate(0));
                    rows += decode.page(p, &mut columns).unwrap();
                }
                rows
            }
            "batches" => {
                let ctx = ExecContext::default();
                let scan = scan_batches(pages, &kinds, decode(buffer), BATCH_ROWS, ctx);
                scan.map(|b| b.unwrap().rows()).sum()
            }
            _ => {
                let engine = VectorEngine::default();
                let plan = Plan::Project {
                    input: Box::new(Plan::TableScan { table: "t".into() }),
                    exprs: vec![Expr::col(0), Expr::col(1)],
                };
                let scan = db.run_plan_with(&engine, &plan).unwrap();
                scan.map(|b| b.unwrap().rows()).sum()
            }
        }
    }

    /// E12's decoder workloads, `(name, table, read set)` over the
    /// tables of [`e12_decode_db`]: `t` as `scan_mix` reads it (`pad`
    /// skipped), `t` with `pad` read, and the same two over `tn`, whose
    /// `v` is NULL in one row of ten.
    pub const E12_DECODE_WORKLOADS: [(&str, &str, [bool; 3]); 4] = [
        ("k_v", "t", [true, true, false]),
        ("k_v_pad", "t", [true, true, true]),
        ("nulls_k_v", "tn", [true, true, false]),
        ("nulls_k_v_pad", "tn", [true, true, true]),
    ];

    /// `t (k, v, pad)` as [`e12_sql_db`] loads it, and `tn`, the same
    /// rows with `v` NULL where `k % 10 = 3`, under a 256-frame pool.
    pub fn e12_decode_db(rows: usize) -> Arc<Database> {
        let db = Database::open_opts(
            bench_dir(&format!("e12-decode-{rows}")),
            DbOptions {
                buffer_frames: 256,
                ..DbOptions::default()
            },
        )
        .unwrap();
        let s = db.session();
        let pad = "p".repeat(40);
        for (table, null_v) in [("t", "NOT NULL"), ("tn", "")] {
            s.execute(&format!("CREATE TABLE {table} (k INT NOT NULL, v INT {null_v}, pad TEXT NOT NULL)"))
                .unwrap();
            let keys: Vec<usize> = (0..rows).collect();
            for chunk in keys.chunks(1_000) {
                let values: Vec<String> = chunk
                    .iter()
                    .map(|&k| match (table, k % 10) {
                        ("tn", 3) => format!("({k}, NULL, '{pad}')"),
                        _ => format!("({k}, {}, '{pad}')", (k * 7_919 + 13) % E12_SQL_DIM),
                    })
                    .collect();
                s.execute(&format!("INSERT INTO {table} VALUES {}", values.join(", "))).unwrap();
            }
        }
        db
    }

    /// One sweep of `table`'s data pages reading the fields `keep` marks:
    /// `None` lists each page's records and decodes nothing (the walk
    /// below a decode), `Some(false)` decodes record by record
    /// (`decode_tuple_into`), `Some(true)` a page at a time (the scan's
    /// `PageDecoder`). Returns the rows seen.
    pub fn e12_decode_sweep(db: &Database, table: &str, keep: &[bool], by_page: Option<bool>) -> usize {
        use sbdms::access::exec::Column;
        use sbdms::access::heap::HeapFile;
        use sbdms::access::record::{decode_tuple_into, PageDecoder};

        let t = db.table(table).unwrap();
        let buffer = db.storage().buffer.clone();
        let mut columns: Vec<Column> =
            t.schema().column_kinds(Some(keep)).into_iter().map(Column::new).collect();
        let mut decoder = PageDecoder::new(&t.schema().column_kinds(None), Some(keep));
        let (mut rows, mut records) = (0, Vec::new());
        for page in t.heap().data_pages().unwrap() {
            columns.iter_mut().for_each(|c| c.truncate(0));
            HeapFile::walk_page(&buffer, page, &mut records, |bytes, records| {
                rows += records.len();
                match by_page {
                    None => Ok(()),
                    Some(true) => decoder.decode(bytes, records, &mut columns),
                    Some(false) => records.iter().try_for_each(|(_, range)| {
                        decode_tuple_into(&bytes[range.clone()], &mut columns, Some(keep))
                    }),
                }
            })
            .unwrap();
        }
        rows
    }

    // --- E13: overload protection under concurrent sessions -------------

    use sbdms::kernel::governor::GovernorConfig;

    /// E13 admission capacity. Session counts are expressed as
    /// multiples of this, so 2x/4x genuinely oversubscribe the slots.
    pub const E13_MAX_CONCURRENT: usize = 4;

    /// The E13 governor: a small fixed concurrency with a short queue,
    /// so an oversubscribed burst sheds (or degrades) fast instead of
    /// piling up unbounded.
    pub fn e13_governor() -> GovernorConfig {
        GovernorConfig {
            enabled: true,
            max_concurrent: E13_MAX_CONCURRENT,
            queue_depth: E13_MAX_CONCURRENT * 2,
            queue_wait_ms: 40,
            ..GovernorConfig::default()
        }
    }

    /// E13 database: `t (id, grp, label)` sized so the probe query
    /// holds its admission slot for a visible quantum.
    pub fn e13_db(rows: usize, governor_on: bool) -> Arc<Database> {
        let db = Database::open_opts(
            bench_dir(&format!("e13-db-{rows}-{governor_on}")),
            DbOptions {
                buffer_frames: 512,
                governor: if governor_on {
                    e13_governor()
                } else {
                    GovernorConfig::default()
                },
                ..DbOptions::default()
            },
        )
        .unwrap();
        let s = db.session();
        s.execute("CREATE TABLE t (id INT NOT NULL, grp INT NOT NULL, label TEXT NOT NULL)")
            .unwrap();
        for chunk in (0..rows as i64).collect::<Vec<_>>().chunks(200) {
            let values: Vec<String> = chunk
                .iter()
                .map(|i| format!("({i}, {}, 'row-{i}')", i % 64))
                .collect();
            s.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
                .unwrap();
        }
        db
    }

    /// One E13 overload drive, aggregated over every session.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct E13Outcome {
        /// Queries that returned rows.
        pub completed: u64,
        /// Queries shed with the typed `Overloaded` error.
        pub shed: u64,
        /// Queries admitted under the degraded contract (clamped sort
        /// budget).
        pub degraded: u64,
        /// Median latency of completed queries, milliseconds.
        pub p50_ms: f64,
        /// 99th-percentile latency of completed queries, milliseconds.
        pub p99_ms: f64,
    }

    /// Drive `sessions` concurrent sessions, each issuing
    /// `per_session` aggregate queries against the shared database.
    /// Shed queries are counted, not retried — the client-visible
    /// contract under overload.
    pub fn e13_drive(
        db: &Arc<Database>,
        sessions: usize,
        per_session: usize,
        allow_degraded: bool,
    ) -> E13Outcome {
        let before = db.governor().snapshot();
        let per_thread: Vec<(Vec<f64>, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..sessions)
                .map(|_| {
                    scope.spawn(|| {
                        let session = db.session();
                        session.set_allow_degraded(allow_degraded);
                        let mut lat = Vec::with_capacity(per_session);
                        let mut shed = 0u64;
                        for _ in 0..per_session {
                            let start = Instant::now();
                            match session.execute(
                                "SELECT grp, COUNT(*), MIN(label) FROM t GROUP BY grp ORDER BY grp",
                            ) {
                                Ok(out) => {
                                    assert!(!out.rows.is_empty());
                                    lat.push(start.elapsed().as_secs_f64() * 1e3);
                                }
                                Err(e) if e.code() == "overloaded" => shed += 1,
                                Err(e) => panic!("E13 query failed: {e}"),
                            }
                        }
                        (lat, shed)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let after = db.governor().snapshot();
        let mut latencies: Vec<f64> = Vec::new();
        let mut shed = 0u64;
        for (lat, s) in per_thread {
            latencies.extend(lat);
            shed += s;
        }
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pct = |p: f64| -> f64 {
            if latencies.is_empty() {
                return 0.0;
            }
            let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
            latencies[idx]
        };
        E13Outcome {
            completed: latencies.len() as u64,
            shed,
            degraded: after.degraded - before.degraded,
            p50_ms: pct(0.50),
            p99_ms: pct(0.99),
        }
    }

    // --- E14: MVCC snapshot readers under a concurrent writer -----------

    use sbdms::data::ConcurrencyControl;

    /// E14 reader fan-out (kept small: the contrast under test is
    /// blocked-vs-unblocked readers, not scheduler throughput).
    pub const E14_READERS: usize = 2;

    /// E14 database: `t (k, v)` under the requested concurrency-control
    /// service, with the same window pairing the profiles select — MVCC
    /// gets the full-fledged profile's 200µs group-commit coalescing,
    /// single-writer commits synchronously.
    pub fn e14_db(rows: usize, concurrency: ConcurrencyControl) -> Arc<Database> {
        let db = Database::open_opts(
            bench_dir(&format!("e14-db-{rows}-{concurrency}")),
            DbOptions {
                buffer_frames: 512,
                concurrency,
                commit_window_micros: match concurrency {
                    ConcurrencyControl::Mvcc => 200,
                    ConcurrencyControl::SingleWriter => 0,
                },
                ..DbOptions::default()
            },
        )
        .unwrap();
        let s = db.session();
        s.execute("CREATE TABLE t (k INT NOT NULL, v INT NOT NULL)").unwrap();
        // The writer's `UPDATE … WHERE k = …` picks its target through
        // the planner's access paths, like a SELECT: an index probe on
        // t_k plus a residual re-check, so it is an OLTP writer rather
        // than a full scan competing with the readers for CPU.
        s.execute("CREATE INDEX t_k ON t (k)").unwrap();
        for chunk in (0..rows as i64).collect::<Vec<_>>().chunks(200) {
            let values: Vec<String> = chunk.iter().map(|k| format!("({k}, {})", k + 1)).collect();
            s.execute(&format!("INSERT INTO t VALUES {}", values.join(", "))).unwrap();
        }
        db
    }

    /// One E14 drive, aggregated over every reader session.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct E14Outcome {
        /// Aggregate scans completed across reader sessions.
        pub reads: u64,
        /// Median reader latency, milliseconds, timed start-to-success
        /// (lockout retries are charged to the read that suffered them).
        pub read_p50_ms: f64,
        /// 99th-percentile reader latency, milliseconds.
        pub read_p99_ms: f64,
        /// Times a reader was turned away with the typed recoverable
        /// conflict (single-writer lockouts; always 0 under MVCC).
        pub reader_retries: u64,
        /// Update transactions the writer committed during the drive: at
        /// least one, unless its first commit takes more than 10 s.
        pub writer_commits: u64,
    }

    /// Drive `readers` sessions, each timing `per_reader` aggregate
    /// scans start-to-success, optionally against one concurrent writer
    /// session committing small update transactions in a loop; the drive
    /// ends once the readers are done and the writer has committed at
    /// least once (waiting at most 10 s for that). A reader
    /// bounced with the recoverable conflict retries the same query, and
    /// the retry spin is charged to that read's latency — the
    /// client-visible cost of being locked out.
    pub fn e14_drive(
        db: &Arc<Database>,
        readers: usize,
        per_reader: usize,
        with_writer: bool,
    ) -> E14Outcome {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        let stop = AtomicBool::new(false);
        let commits = AtomicU64::new(0);
        let per_thread: Vec<(Vec<f64>, u64)> = std::thread::scope(|scope| {
            let writer = with_writer.then(|| {
                let (db, stop, commits) = (&db, &stop, &commits);
                scope.spawn(move || {
                    let session = db.session();
                    let mut round = 0i64;
                    while !stop.load(Ordering::Relaxed) {
                        session.begin().unwrap();
                        for i in 0..4 {
                            let k = (round * 4 + i) % 32;
                            session
                                .execute(&format!("UPDATE t SET v = v + 1 WHERE k = {k}"))
                                .unwrap();
                        }
                        session.commit().unwrap();
                        commits.fetch_add(1, Ordering::Relaxed);
                        round += 1;
                        // Breathe between transactions so single-writer
                        // readers are locked out, not starved outright.
                        std::thread::sleep(Duration::from_micros(100));
                    }
                })
            });
            let handles: Vec<_> = (0..readers)
                .map(|_| {
                    scope.spawn(|| {
                        let session = db.session();
                        let mut lat = Vec::with_capacity(per_reader);
                        let mut retries = 0u64;
                        for _ in 0..per_reader {
                            let start = Instant::now();
                            loop {
                                match session.execute("SELECT COUNT(*), SUM(v), MAX(v) FROM t") {
                                    Ok(out) => {
                                        assert_eq!(out.rows.len(), 1);
                                        break;
                                    }
                                    Err(e) => {
                                        assert_eq!(e.code(), "conflict", "reader hit {e}");
                                        assert!(e.is_recoverable(), "lockout must invite retry");
                                        retries += 1;
                                        std::thread::sleep(Duration::from_micros(50));
                                    }
                                }
                            }
                            lat.push(start.elapsed().as_secs_f64() * 1e3);
                        }
                        (lat, retries)
                    })
                })
                .collect();
            let collected: Vec<(Vec<f64>, u64)> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            // A short drive can end before the writer's first commit (an
            // fsync) does: give it a bounded wait to commit once.
            let deadline = Instant::now() + Duration::from_secs(10);
            while writer.is_some()
                && commits.load(Ordering::Relaxed) == 0
                && Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            stop.store(true, Ordering::Relaxed);
            if let Some(w) = writer {
                w.join().unwrap();
            }
            collected
        });
        let mut latencies: Vec<f64> = Vec::new();
        let mut retries = 0u64;
        for (lat, r) in per_thread {
            latencies.extend(lat);
            retries += r;
        }
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pct = |p: f64| -> f64 {
            if latencies.is_empty() {
                return 0.0;
            }
            let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
            latencies[idx]
        };
        E14Outcome {
            reads: latencies.len() as u64,
            read_p50_ms: pct(0.50),
            read_p99_ms: pct(0.99),
            reader_retries: retries,
            writer_commits: commits.load(std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// E14 group-commit probe: `committers` sessions each commit
    /// `commits_per` disjoint single-row update transactions under full
    /// durability on a simulated device that counts its sync barriers;
    /// returns fsyncs per commit. With a coalescing window, concurrent
    /// committers share barriers and the ratio drops below 1.
    pub fn e14_syncs_per_commit(committers: usize, commits_per: usize, window_micros: u64) -> f64 {
        let sim = SimBackend::new(SimConfig::seeded(0xE14));
        let db = Database::open_at(
            &*sim,
            DbOptions {
                concurrency: ConcurrencyControl::Mvcc,
                commit_window_micros: window_micros,
                ..DbOptions::default()
            },
        )
        .unwrap();
        db.set_durability(Durability::Full);
        let s = db.session();
        s.execute("CREATE TABLE g (k INT NOT NULL, v INT NOT NULL)").unwrap();
        let values: Vec<String> = (0..committers as i64).map(|k| format!("({k}, 0)")).collect();
        s.execute(&format!("INSERT INTO g VALUES {}", values.join(", "))).unwrap();
        let before = sim.stats().syncs;
        let db = &db;
        std::thread::scope(|scope| {
            for c in 0..committers as i64 {
                scope.spawn(move || {
                    let session = db.session();
                    for _ in 0..commits_per {
                        session.begin().unwrap();
                        session
                            .execute(&format!("UPDATE g SET v = v + 1 WHERE k = {c}"))
                            .unwrap();
                        session.commit().unwrap();
                    }
                });
            }
        });
        let syncs = sim.stats().syncs - before;
        syncs as f64 / (committers * commits_per) as f64
    }

    // --- E15: richer access paths -----------------------------------------

    /// E15 composite point probe: both key columns of `ev_tenant_ts`
    /// consumed as an equality prefix; matches exactly one row.
    pub const E15_POINT_Q: &str = "SELECT COUNT(*) FROM ev WHERE tenant = 37 AND ts = 1037";

    /// E15 prefix + range: equality on the leading key column, a range
    /// on the second.
    pub const E15_PREFIX_Q: &str =
        "SELECT COUNT(*) FROM ev WHERE tenant = 37 AND ts >= 5000 AND ts <= 15000";

    /// E15 IN-list: a probe union over the single-column `ev_kind`
    /// index (pre-PR planners had no IndexOr — this was a seq scan).
    pub const E15_INLIST_Q: &str = "SELECT COUNT(*) FROM ev \
        WHERE kind IN (11, 211, 411, 611, 811, 1011, 1211, 1411)";

    /// E15 intersection: equality on the leading columns of two indexes
    /// whose postings are each large but whose intersection is tiny.
    pub const E15_AND_Q: &str = "SELECT COUNT(*) FROM ev WHERE tenant = 37 AND cat = 41";

    /// E15 covering: the composite key answers the aggregate by itself,
    /// so the index-only scan never touches the heap.
    pub const E15_COVER_Q: &str = "SELECT SUM(ts) FROM ev WHERE tenant = 37";

    /// E15: one statistics-bearing events table. `tenant` fans 100 ways,
    /// `ts` is unique, `kind` fans `rows/100` ways (ndv scales with the
    /// table so IN-lists stay selective), `cat` fans 97 ways, and `pad`
    /// gives seq scans a realistic per-row decode cost. When
    /// `composite` is false only the single-column indexes a pre-PR
    /// planner could use exist — that database's plans are the "best
    /// previously available" baseline. It has no `cat` index either, so
    /// its plan for a two-column conjunction is the one index a planner
    /// without IndexAnd took.
    pub fn e15_db(rows: usize, composite: bool) -> Arc<Database> {
        let db = Database::open_opts(bench_dir("e15"), DbOptions::default()).unwrap();
        let s = db.session();
        s.execute(
            "CREATE TABLE ev (tenant INT NOT NULL, ts INT NOT NULL, \
             kind INT NOT NULL, cat INT NOT NULL, pad TEXT NOT NULL)",
        )
        .unwrap();
        let kinds = (rows / 100).max(1) as i64;
        for chunk in (0..rows as i64).collect::<Vec<_>>().chunks(250) {
            let vals: Vec<String> = chunk
                .iter()
                .map(|i| {
                    format!(
                        "({}, {i}, {}, {}, 'payload-{i}-xxxxxxxxxxxxxxxx')",
                        i % 100,
                        i % kinds,
                        i % 97
                    )
                })
                .collect();
            s.execute(&format!("INSERT INTO ev VALUES {}", vals.join(", ")))
                .unwrap();
        }
        // The composite database *replaces* the single-column tenant
        // index (the natural migration); the baseline keeps what a
        // single-column-only planner could use.
        if composite {
            s.execute("CREATE INDEX ev_tenant_ts ON ev (tenant, ts)").unwrap();
        } else {
            s.execute("CREATE INDEX ev_tenant ON ev (tenant)").unwrap();
        }
        s.execute("CREATE INDEX ev_kind ON ev (kind)").unwrap();
        if composite {
            s.execute("CREATE INDEX ev_cat ON ev (cat)").unwrap();
        }
        s.execute("ANALYZE ev").unwrap();
        db
    }

    /// E15: the access-path label EXPLAIN reports for `sql` — the first
    /// IndexScan/IndexOr/IndexAnd/TableScan node in the plan.
    pub fn e15_path(session: &Session, sql: &str) -> String {
        let out = session.execute(&format!("EXPLAIN {sql}")).unwrap();
        out.rows
            .iter()
            .map(|r| r[0].to_string())
            .find(|line| {
                ["IndexScan", "IndexOr", "IndexAnd", "TableScan"]
                    .iter()
                    .any(|n| line.contains(n))
            })
            .map(|line| line.trim_start_matches(['|', ' ']).to_string())
            .unwrap_or_else(|| "?".into())
    }

    /// E16 database: MVCC (the server profile), indexed point reads.
    pub fn e16_db(rows: usize) -> Arc<Database> {
        let db = Database::open_opts(
            bench_dir(&format!("e16-db-{rows}")),
            DbOptions {
                buffer_frames: 512,
                concurrency: ConcurrencyControl::Mvcc,
                ..DbOptions::default()
            },
        )
        .unwrap();
        let s = db.session();
        s.execute("CREATE TABLE t (k INT NOT NULL, v INT NOT NULL)").unwrap();
        s.execute("CREATE INDEX t_k ON t (k)").unwrap();
        for chunk in (0..rows as i64).collect::<Vec<_>>().chunks(200) {
            let values: Vec<String> = chunk.iter().map(|k| format!("({k}, {})", k + 1)).collect();
            s.execute(&format!("INSERT INTO t VALUES {}", values.join(", "))).unwrap();
        }
        db
    }

    /// E16: per-call cost of one binding for an `echo` service with a
    /// `bytes`-sized opaque payload — the protocol overhead isolated
    /// from any engine work. Used to line the real TCP binding up
    /// against in-process, channel and the simulated network models.
    pub fn e16_binding_call_cost(
        binding: &dyn sbdms::kernel::binding::Binding,
        bytes: usize,
        iters: u32,
    ) -> Duration {
        let iface = Interface::new("e16.echo", 1, vec![Operation::opaque("echo")]);
        let svc: ServiceRef =
            FnService::new("echo", Contract::for_interface(iface), |_, input| Ok(input))
                .into_ref();
        let input = Value::map().with("payload", Value::Bytes(payload(16, bytes)));
        binding.call(&svc, "echo", input.clone()).unwrap();
        let start = Instant::now();
        for _ in 0..iters {
            binding.call(&svc, "echo", input.clone()).unwrap();
        }
        start.elapsed() / iters
    }

    /// One E16 drive outcome: aggregate throughput plus the latency
    /// distribution of individual statements.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct E16Outcome {
        /// Statements completed across all sessions/connections.
        pub statements: u64,
        /// Wall-clock of the whole drive, seconds.
        pub elapsed_s: f64,
        /// Aggregate statements per second.
        pub per_sec: f64,
        /// Median per-statement latency, microseconds.
        pub p50_us: f64,
        /// 99th-percentile per-statement latency, microseconds.
        pub p99_us: f64,
    }

    fn e16_outcome(mut latencies_ns: Vec<u64>, elapsed: Duration) -> E16Outcome {
        latencies_ns.sort_unstable();
        let n = latencies_ns.len().max(1);
        let pct = |p: f64| latencies_ns[((n - 1) as f64 * p) as usize] as f64 / 1e3;
        E16Outcome {
            statements: latencies_ns.len() as u64,
            elapsed_s: elapsed.as_secs_f64(),
            per_sec: latencies_ns.len() as f64 / elapsed.as_secs_f64().max(1e-9),
            p50_us: pct(0.50),
            p99_us: pct(0.99),
        }
    }

    /// E16: `sessions` in-process sessions each running `per_session`
    /// point SELECTs concurrently — the no-network baseline the TCP
    /// numbers are compared against.
    pub fn e16_inproc_drive(db: &Arc<Database>, sessions: usize, per_session: usize) -> E16Outcome {
        let rows = 10_000i64;
        let started = Instant::now();
        let mut all: Vec<u64> = Vec::with_capacity(sessions * per_session);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..sessions)
                .map(|s| {
                    scope.spawn(move || {
                        let session = db.session();
                        let mut lat = Vec::with_capacity(per_session);
                        for i in 0..per_session {
                            let k = ((s * per_session + i) as i64 * 37) % rows;
                            let sql = format!("SELECT v FROM t WHERE k = {k}");
                            let t = Instant::now();
                            session.execute(&sql).unwrap();
                            lat.push(t.elapsed().as_nanos() as u64);
                        }
                        lat
                    })
                })
                .collect();
            for h in handles {
                all.extend(h.join().unwrap());
            }
        });
        e16_outcome(all, started.elapsed())
    }

    /// E16: `connections` real TCP connections each running
    /// `per_connection` point SELECTs concurrently against a live
    /// [`sbdms_server::Server`].
    pub fn e16_wire_drive(
        addr: std::net::SocketAddr,
        connections: usize,
        per_connection: usize,
    ) -> E16Outcome {
        let rows = 10_000i64;
        let started = Instant::now();
        let mut all: Vec<u64> = Vec::with_capacity(connections * per_connection);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..connections)
                .map(|c| {
                    scope.spawn(move || {
                        let mut client = sbdms_server::Client::connect(addr).unwrap();
                        let mut lat = Vec::with_capacity(per_connection);
                        for i in 0..per_connection {
                            let k = ((c * per_connection + i) as i64 * 37) % rows;
                            let sql = format!("SELECT v FROM t WHERE k = {k}");
                            let t = Instant::now();
                            client.query(&sql).unwrap();
                            lat.push(t.elapsed().as_nanos() as u64);
                        }
                        let _ = client.close();
                        lat
                    })
                })
                .collect();
            for h in handles {
                all.extend(h.join().unwrap());
            }
        });
        e16_outcome(all, started.elapsed())
    }

    /// E16: per-statement cost of one prepared statement executed over
    /// the wire vs the same SQL executed in-process, microseconds
    /// `(in_process, wire_text, wire_prepared)`.
    pub fn e16_statement_overhead(
        db: &Arc<Database>,
        addr: std::net::SocketAddr,
        iters: u32,
    ) -> (f64, f64, f64) {
        const SQL: &str = "SELECT v FROM t WHERE k = 42";
        let session = db.session();
        session.execute(SQL).unwrap();
        let t = Instant::now();
        for _ in 0..iters {
            session.execute(SQL).unwrap();
        }
        let inproc = t.elapsed().as_nanos() as f64 / iters as f64 / 1e3;

        let mut client = sbdms_server::Client::connect(addr).unwrap();
        client.query(SQL).unwrap();
        let t = Instant::now();
        for _ in 0..iters {
            client.query(SQL).unwrap();
        }
        let wire_text = t.elapsed().as_nanos() as f64 / iters as f64 / 1e3;

        let prepared = client.prepare(SQL).unwrap();
        client.execute(&prepared).unwrap();
        let t = Instant::now();
        for _ in 0..iters {
            client.execute(&prepared).unwrap();
        }
        let wire_prepared = t.elapsed().as_nanos() as f64 / iters as f64 / 1e3;
        let _ = client.close();
        (inproc, wire_text, wire_prepared)
    }

    // --- E17: linear-time load --------------------------------------------

    /// What one E17 load measured.
    #[derive(Debug, Clone)]
    pub struct E17Load {
        /// Rows loaded.
        pub rows: usize,
        /// Buffer-pool frames.
        pub frames: usize,
        /// Wall time of the 1 000-row INSERTs.
        pub load: Duration,
        /// Median wall time of one 1 000-row INSERT: flat in the table
        /// size when loading is linear.
        pub insert_median: Duration,
        /// Wall time of `CREATE INDEX t_k ON t (k)` over the loaded rows.
        pub create_index: Duration,
        /// Buffer-pool fetches (hits + misses) per inserted row.
        pub fetches_per_insert: f64,
        /// Data pages of `t`'s heap.
        pub heap_pages: usize,
        /// Pages the index build allocated (nodes and meta page).
        pub index_pages: u64,
    }

    /// E17: load `rows` rows of `t(k, v, pad TEXT(40))` in 1 000-row
    /// INSERTs at the default (Relaxed) durability on real files and a
    /// pool of `frames` frames, keys in a scrambled order, then build
    /// `CREATE INDEX t_k` over them. The database is deleted afterwards.
    pub fn e17_load(rows: usize, frames: usize) -> E17Load {
        let dir = bench_dir("e17");
        let out = {
            let opts = DbOptions {
                buffer_frames: frames,
                ..DbOptions::default()
            };
            let db = Database::open_opts(&dir, opts).unwrap();
            let s = db.session();
            s.execute("CREATE TABLE t (k INT NOT NULL, v INT NOT NULL, pad TEXT NOT NULL)")
                .unwrap();
            let pad = "p".repeat(40);
            let buffer = &db.storage().buffer;
            let fetches = || {
                let stats = buffer.stats();
                stats.hits + stats.misses
            };
            let before = fetches();
            let mut load = Duration::ZERO;
            let mut inserts = Vec::with_capacity(rows / 1_000 + 1);
            for chunk in (0..rows).collect::<Vec<_>>().chunks(1_000) {
                // 7 919 is prime, so `i * 7919 % rows` permutes the keys.
                let values: Vec<String> = chunk
                    .iter()
                    .map(|&i| format!("({}, {i}, '{pad}')", i * 7_919 % rows))
                    .collect();
                let sql = format!("INSERT INTO t VALUES {}", values.join(", "));
                let start = Instant::now();
                s.execute(&sql).unwrap();
                inserts.push(start.elapsed());
                load += inserts[inserts.len() - 1];
            }
            inserts.sort_unstable();
            let fetches_per_insert = (fetches() - before) as f64 / rows as f64;
            let pages_before = buffer.disk().page_count();
            let start = Instant::now();
            s.execute("CREATE INDEX t_k ON t (k)").unwrap();
            let create_index = start.elapsed();
            let t = db.table("t").unwrap();
            assert_eq!(t.index_named("t_k").unwrap().1.len().unwrap(), rows);
            E17Load {
                rows,
                frames,
                load,
                insert_median: inserts[inserts.len() / 2],
                create_index,
                fetches_per_insert,
                heap_pages: t.heap().data_pages().unwrap().len(),
                index_pages: buffer.disk().page_count() - pages_before,
            }
        };
        let _ = std::fs::remove_dir_all(&dir);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::experiments::*;
    use super::*;
    use sbdms::baseline::ArchitectureStyle;
    use sbdms::distributed::PlacementStrategy;
    use sbdms::flexibility::selection::SelectionStrategy;
    use sbdms::granularity::Granularity;
    use sbdms::kernel::binding::BindingKind;
    use sbdms::kernel::value::Value;

    #[test]
    fn payload_is_deterministic() {
        assert_eq!(payload(7, 32), payload(7, 32));
        assert_ne!(payload(7, 32), payload(8, 32));
        assert_eq!(payload(1, 100).len(), 100);
    }

    #[test]
    fn e1_harness_runs() {
        let s = e1_style(ArchitectureStyle::ServiceBased, 50);
        assert_eq!(e1_round(&s, 0, 50), 4);
        e1_point_read(&s, 1, 50);
        assert!(e1_scan(&s) >= 50);
    }

    #[test]
    fn e2_harness_runs_every_layer() {
        let system = e2_system();
        for layer in ["storage", "access", "data", "extension"] {
            let (id, op, input) = e2_layer_op(&system, layer);
            system.bus().invoke(id, op, input).unwrap();
        }
    }

    #[test]
    fn e3_harness_runs() {
        let dep = e3_deployment(Granularity::Medium, BindingKind::InProcess);
        e3_op(&dep, 1);
        e3_op(&dep, 2);
    }

    #[test]
    fn e4_harness_runs() {
        let bus = e4_bus(10);
        let (publish, first_use) = e4_publish_once(&bus, 0);
        assert!(publish.as_nanos() > 0 && first_use.as_nanos() > 0);
    }

    #[test]
    fn e5_harness_runs() {
        let selector = e5_setup(4, SelectionStrategy::RoundRobin);
        for _ in 0..8 {
            selector
                .invoke("bench.Kv", "get", Value::map().with("key", "x"))
                .unwrap();
        }
    }

    #[test]
    fn e6_both_scenarios_recover() {
        let direct = e6_failover_once(E6Scenario::DirectSubstitute);
        let adapted = e6_failover_once(E6Scenario::AdaptedSubstitute);
        assert!(direct.as_nanos() > 0 && adapted.as_nanos() > 0);
    }

    #[test]
    fn e6_mttr_on_recovers_within_retry_budget() {
        // Acceptance: with resilience on, a masked failover means the
        // very first call succeeds — well inside retries + 1.
        let (calls, errors) = e6_mttr(true, 50);
        assert!(calls <= 4, "calls to recover: {calls}");
        assert_eq!(errors, 0, "the outage must be invisible to callers");
    }

    #[test]
    fn e6_mttr_off_never_recovers_from_silent_failure() {
        let (calls, errors) = e6_mttr(false, 20);
        assert_eq!((calls, errors), (20, 20));
    }

    #[test]
    fn e7_profiles_deploy() {
        let (_, full) = e7_deploy(sbdms::Profile::FullFledged);
        let (_, embedded) = e7_deploy(sbdms::Profile::Embedded);
        assert!(embedded.footprint_bytes < full.footprint_bytes);
    }

    #[test]
    fn e8_harness_runs() {
        let cluster = e8_cluster();
        e8_read(&cluster, 50, PlacementStrategy::Nearest);
        e8_read(&cluster, 50, PlacementStrategy::First);
    }

    #[test]
    fn e9_point_read_harness_runs() {
        for shards in [1, 4] {
            let (pool, pages) = e9_pool(shards, 32);
            assert_eq!(pool.shard_count(), shards);
            let ops = e9_point_read_throughput(&pool, &pages, 2, 50);
            assert!(ops > 0.0);
        }
    }

    #[test]
    fn e9_db_harness_runs() {
        let db = e9_db(300, 4, true);
        let scans = e9_scan_throughput(&db, 2, 3);
        assert!(scans > 0.0);
        let session = db.session();
        for round in 0..32 {
            e9_statement(&session, round);
        }
        let stats = db.plan_cache_stats();
        assert!(stats.hits >= 16, "second pass over 16 texts must hit: {stats:?}");

        let uncached = e9_db(100, 1, false);
        let session = uncached.session();
        for round in 0..8 {
            e9_statement(&session, round);
        }
        assert_eq!(uncached.plan_cache_stats().hits, 0);
    }

    #[test]
    fn e10_harness_runs() {
        let (sim, wal_bytes, undo) = e10_crashed_sim(3, 2);
        assert!(wal_bytes > 0, "the crashed WAL must not be empty");
        // The tail's rows reached the log and the synced heap pages:
        // recovery has both of them to roll back.
        assert_eq!(undo, 2, "undo records of the crashed tail");
        let (elapsed, rows) = e10_recover(&sim);
        assert!(elapsed.as_nanos() > 0);
        // Only committed rows survive; the crashed tail is undone.
        assert_eq!(rows, 6);

        // A bigger committed prefix means a bigger durable WAL.
        let (_, bigger, _) = e10_crashed_sim(12, 2);
        assert!(bigger > wal_bytes);
    }

    #[test]
    fn e11_harness_runs() {
        let db = e11_db(120, 600, true);
        let s = db.session();
        e11_apply(&db, E11Config::CostBased);
        let join_ref = e11_count(&s, E11_JOIN_Q);
        let sel_ref = e11_count(&s, E11_IDX_SEL_Q);
        let nonsel_ref = e11_count(&s, E11_IDX_NONSEL_Q);
        assert!(join_ref > 0, "the skewed join must produce rows");
        assert_eq!(nonsel_ref, 600, "full range covers the table");
        // Every baseline must return the same answers.
        for config in [E11Config::NoReorder, E11Config::NoIndex] {
            e11_apply(&db, config);
            assert_eq!(e11_count(&s, E11_JOIN_Q), join_ref, "{config:?}");
            assert_eq!(e11_count(&s, E11_IDX_SEL_Q), sel_ref, "{config:?}");
            assert_eq!(e11_count(&s, E11_IDX_NONSEL_Q), nonsel_ref, "{config:?}");
        }
        e11_apply(&db, E11Config::CostBased);
        // So must the join with its ON equalities hidden from the
        // planner (`x + 0 = y`): a nested loop per join.
        let nested = E11_JOIN_Q
            .split(" ON ")
            .map(|part| part.replacen(" = ", " + 0 = ", 1))
            .collect::<Vec<_>>()
            .join(" ON ");
        let explain: Vec<String> = s
            .execute(&format!("EXPLAIN {nested}"))
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].to_string())
            .collect();
        let nl_joins = explain.iter().filter(|l| l.contains("NlJoin")).count();
        assert!(
            nl_joins == 2 && !explain.iter().any(|l| l.contains("EquiJoin")),
            "{explain:#?}"
        );
        assert_eq!(e11_count(&s, &nested), join_ref);
        // So must the un-analyzed twin.
        let twin = e11_db(120, 600, false);
        let t = twin.session();
        assert_eq!(e11_count(&t, E11_JOIN_Q), join_ref);
        assert_eq!(e11_count(&t, E11_IDX_SEL_Q), sel_ref);
        assert_eq!(e11_count(&t, E11_IDX_NONSEL_Q), nonsel_ref);
    }

    #[test]
    fn e15_harness_picks_each_new_path_and_answers_agree() {
        let previous = e15_db(16_000, false);
        let current = e15_db(16_000, true);
        let (on_previous, on_current) = (previous.session(), current.session());
        // The composite database must take each new access path.
        for (sql, marker) in [
            (E15_POINT_Q, "IndexScan ev.ev_tenant_ts(tenant,ts) eq=[Int(37), Int(1037)]"),
            (E15_PREFIX_Q, "eq=[Int(37)] lo=Some(Int(5000)) hi=Some(Int(15000))"),
            (E15_INLIST_Q, "IndexOr ev.ev_kind (8 keys)"),
            (E15_AND_Q, "IndexAnd ev [ev_tenant_ts ∩ ev_cat]"),
            (E15_COVER_Q, "covering"),
        ] {
            e11_apply(&current, E11Config::CostBased);
            let path = e15_path(&on_current, sql);
            assert!(path.contains(marker), "{sql}: got `{path}`");
        }
        // Without a `cat` index the baseline's intersection takes the
        // one tenant index.
        let and_path = e15_path(&on_previous, E15_AND_Q);
        assert!(and_path.starts_with("IndexScan ev.ev_tenant(tenant)"), "{and_path}");
        // The per-shape baseline knobs must reproduce the same answers.
        for (sql, prev_knob) in [
            (E15_POINT_Q, E11Config::CostBased),
            (E15_PREFIX_Q, E11Config::CostBased),
            (E15_INLIST_Q, E11Config::NoIndex),
            (E15_AND_Q, E11Config::CostBased),
            (E15_COVER_Q, E11Config::CostBased),
        ] {
            e11_apply(&previous, prev_knob);
            e11_apply(&current, E11Config::CostBased);
            let want = e11_count(&on_previous, sql);
            assert!(want > 0, "{sql}: baseline found no rows");
            assert_eq!(e11_count(&on_current, sql), want, "{sql}");
        }
    }

    #[test]
    fn e12_sql_shapes_answer_from_the_generated_data() {
        use sbdms::access::record::Datum;
        let rows = 3_000;
        let db = e12_sql_db(rows);
        let s = db.session();
        let v = |k: usize| ((k * 7_919 + 13) % E12_SQL_DIM) as i64;
        let w = |dv: i64| dv * 37 % 1_000;
        let c = (E12_SQL_DIM / 2) as i64;
        let [(_, sum), (_, group), (_, join)] = e12_sql_shapes();
        let below: Vec<i64> = (0..rows).map(v).filter(|&x| x < c).collect();
        let got = s.execute(&sum).unwrap().rows;
        let want = vec![Datum::Int(below.iter().sum()), Datum::Int(below.len() as i64)];
        assert_eq!(got, vec![want]);
        let got = s.execute(&group).unwrap().rows;
        let groups: std::collections::BTreeSet<i64> = (0..rows).map(v).filter(|&x| x >= c).collect();
        assert_eq!(got.len(), groups.len());
        let counted: i64 = got
            .iter()
            .map(|r| match r[1] {
                Datum::Int(n) => n,
                ref other => panic!("COUNT(*) returned {other}"),
            })
            .sum();
        assert_eq!(counted, (rows - below.len()) as i64);
        let matched: Vec<i64> = (0..rows).map(|k| w(v(k))).filter(|&x| x < c).collect();
        let got = s.execute(&join).unwrap().rows;
        let want = vec![Datum::Int(matched.iter().sum()), Datum::Int(matched.len() as i64)];
        assert_eq!(got, vec![want]);
    }

    #[test]
    fn e12_scan_layers_see_every_page_and_row() {
        let rows = 3_000;
        let db = e12_sql_db(rows);
        let pages = db.table("t").unwrap().heap().data_pages().unwrap().len();
        let seen: Vec<usize> =
            (0..E12_SCAN_LAYERS.len()).map(|layer| e12_scan_layer(&db, layer)).collect();
        assert_eq!(seen, [pages, pages, rows, rows, rows, rows]);
    }

    #[test]
    fn e12_decoders_see_every_row() {
        use sbdms::access::record::Datum;
        let rows = 2_000;
        let db = e12_decode_db(rows);
        for (_, table, keep) in E12_DECODE_WORKLOADS {
            for by_page in [None, Some(false), Some(true)] {
                assert_eq!(e12_decode_sweep(&db, table, &keep, by_page), rows, "{table}");
            }
        }
        let nulls = db.session().execute("SELECT COUNT(*) FROM tn WHERE v IS NULL").unwrap();
        assert_eq!(nulls.rows[0][0], Datum::Int(rows as i64 / 10));
    }

    #[test]
    fn e12_harness_runs_and_engines_agree() {
        use sbdms::access::exec::engine::VectorEngine;
        // The E12 baseline (one row per batch) against the default batch.
        let row = VectorEngine {
            batch_rows: 1,
            ..VectorEngine::default()
        };
        let full = VectorEngine::default();
        let fact = e12_fact(2_000);
        let dim = e12_dim(64);
        let row_groups = e12_scan_filter_aggregate(&row, fact.clone(), 1_000);
        let full_groups = e12_scan_filter_aggregate(&full, fact.clone(), 1_000);
        assert_eq!(row_groups, full_groups);
        assert_eq!(row_groups, 64, "every group survives a 50% filter");
        let row_joined = e12_join(&row, fact.clone(), dim.clone());
        let full_joined = e12_join(&full, fact.clone(), dim.clone());
        assert_eq!(row_joined, full_joined);
        assert_eq!(row_joined, 2_000, "every fact row has its dimension");
        assert_eq!(
            e12_join_rows(&full, fact.clone(), dim),
            2_000,
            "materialised join yields the same row count"
        );
        let dup = e12_dim_dup(64, 4);
        assert_eq!(
            e12_join(&row, fact.clone(), dup.clone()),
            e12_join(&full, fact.clone(), dup),
        );
        let hi = e12_dim_highndv(2_000);
        let row_hi = e12_join_highndv(&row, fact.clone(), hi.clone());
        let full_hi = e12_join_highndv(&full, fact, hi);
        assert_eq!(row_hi, full_hi);
        assert_eq!(row_hi, 2_000, "unique ids join one-to-one");
    }

    /// Drain `stream`, failing on any batch with a `Datum`-fallback
    /// column; returns the rows seen.
    fn typed_rows(what: &str, stream: sbdms::access::exec::BatchStream) -> usize {
        use sbdms::access::exec::ColumnKind;
        let mut rows = 0;
        for batch in stream {
            let batch = batch.unwrap();
            let kinds = batch.kinds();
            assert!(!kinds.contains(&ColumnKind::Datum), "{what}: column kinds {kinds:?}");
            rows += batch.rows();
        }
        rows
    }

    #[test]
    fn scan_mix_shapes_and_e12_pipelines_build_typed_columns() {
        use sbdms::access::exec::engine::VectorEngine;
        use sbdms::access::exec::{AggFunc, AggSpec, BuildSide, Expr};
        use sbdms::data::ast::Statement;
        use sbdms::data::{parse, plan_select, Plan};
        // Every node of each `scan_mix` statement's plan (scan, filter,
        // aggregate, join, projection), run on its own and whole.
        let db = e12_sql_db(3_000);
        let engine = VectorEngine::default();
        for (name, sql) in e12_sql_shapes() {
            let Statement::Select(select) = parse(&sql).unwrap() else {
                panic!("{name} is not a SELECT");
            };
            let plan = plan_select(&select, db.as_ref()).unwrap().plan;
            let mut nodes: Vec<&Plan> = vec![&plan];
            while let Some(node) = nodes.pop() {
                let what = format!("{name}: {}", node.node_label());
                typed_rows(&what, db.run_plan_with(&engine, node).unwrap());
                nodes.extend(node.children());
            }
        }
        // E12's pipelines, stage by stage, over its pre-built rows.
        let fact = || engine.values(e12_fact(2_000));
        let filtered = || engine.filter(fact(), Expr::col(2).lt(Expr::int(1_000)));
        assert_eq!(typed_rows("values", fact()), 2_000);
        assert_eq!(typed_rows("filter", filtered()), 1_000);
        let aggs = vec![
            AggSpec::new(AggFunc::CountAll, Expr::int(0)),
            AggSpec::new(AggFunc::Sum, Expr::col(2)),
            AggSpec::new(AggFunc::Min, Expr::col(2)),
        ];
        let grouped = engine.hash_aggregate(filtered(), vec![Expr::col(1)], aggs).unwrap();
        assert_eq!(typed_rows("aggregate", grouped), 64);
        for (dim, key) in [(e12_dim(64), 1), (e12_dim_dup(64, 4), 1), (e12_dim_highndv(2_000), 0)] {
            let join = || {
                let dim = engine.values(dim.clone());
                engine.equi_join(fact(), dim, key, 0, BuildSide::Right).unwrap()
            };
            let joined = typed_rows("join", join());
            let sums = vec![
                AggSpec::new(AggFunc::CountAll, Expr::int(0)),
                AggSpec::new(AggFunc::Sum, Expr::col(4)),
            ];
            let total = engine.hash_aggregate(join(), vec![], sums).unwrap();
            assert_eq!(typed_rows("join aggregate", total), 1);
            assert!(joined >= 2_000, "{joined} joined rows");
        }
    }

    #[test]
    fn e13_harness_sheds_under_oversubscription_and_degrades_on_contract() {
        let db = e13_db(600, true);
        // Within capacity: everything completes.
        let calm = e13_drive(&db, E13_MAX_CONCURRENT, 2, false);
        assert_eq!(calm.completed, (E13_MAX_CONCURRENT * 2) as u64);
        assert_eq!(calm.shed + calm.degraded, 0, "{calm:?}");
        assert!(calm.p99_ms >= calm.p50_ms);
        // Far past capacity with strict admission, a single held slot
        // makes the shed path deterministic even on one core.
        let blocker = db.governor().admit(false).unwrap();
        let strict = e13_drive(&db, E13_MAX_CONCURRENT * 4, 1, false);
        // Under the degraded contract the same pressure is absorbed with
        // a clamped sort budget instead. Saturate every slot first so each
        // arrival finds the governor at capacity — degraded admission
        // is then deterministic, not a race against query latency.
        let full: Vec<_> = (1..E13_MAX_CONCURRENT)
            .map(|_| db.governor().admit(false).unwrap())
            .collect();
        let degraded = e13_drive(&db, E13_MAX_CONCURRENT * 4, 1, true);
        drop(full);
        drop(blocker);
        assert!(strict.shed + strict.completed > 0, "{strict:?}");
        assert!(degraded.degraded > 0, "{degraded:?}");
        // Governor off: nothing sheds, nothing degrades.
        let off = e13_db(600, false);
        let unprotected = e13_drive(&off, E13_MAX_CONCURRENT * 2, 2, false);
        assert_eq!(unprotected.shed + unprotected.degraded, 0);
        assert_eq!(unprotected.completed, (E13_MAX_CONCURRENT * 2 * 2) as u64);
    }

    #[test]
    fn e14_harness_contrasts_mvcc_and_single_writer_readers() {
        use sbdms::data::ConcurrencyControl;
        // MVCC: readers run against snapshots, a live writer never
        // bounces them.
        let mvcc = e14_db(300, ConcurrencyControl::Mvcc);
        let calm = e14_drive(&mvcc, E14_READERS, 3, false);
        assert_eq!(calm.reads, (E14_READERS * 3) as u64);
        assert_eq!(calm.reader_retries + calm.writer_commits, 0, "{calm:?}");
        let busy = e14_drive(&mvcc, E14_READERS, 3, true);
        assert_eq!(busy.reads, (E14_READERS * 3) as u64);
        assert_eq!(busy.reader_retries, 0, "MVCC readers must never be locked out: {busy:?}");
        assert!(busy.writer_commits > 0, "{busy:?}");
        assert!(busy.read_p99_ms >= busy.read_p50_ms);
        // Single-writer: the same drive completes too (retries are
        // charged to latency), and a held transaction provably bounces
        // a reader with the typed recoverable conflict.
        let single = e14_db(300, ConcurrencyControl::SingleWriter);
        let sw = e14_drive(&single, E14_READERS, 3, true);
        assert_eq!(sw.reads, (E14_READERS * 3) as u64);
        let holder = single.session();
        holder.begin().unwrap();
        holder.execute("UPDATE t SET v = v + 1 WHERE k = 0").unwrap();
        let bounced = single.session().execute("SELECT COUNT(*) FROM t");
        let err = bounced.expect_err("single-writer must lock readers out");
        assert_eq!(err.code(), "conflict");
        holder.rollback().unwrap();
    }

    #[test]
    fn e14_group_commit_window_coalesces_syncs() {
        // Per-commit barriers without a window; coalesced (strictly
        // fewer syncs than commits) with one. The windowed ratio being
        // *at most* the unwindowed one is the invariant; the wal-level
        // tests pin the leader/follower protocol itself.
        let solo = e14_syncs_per_commit(1, 6, 0);
        assert!(solo >= 1.0, "full durability must sync every commit, got {solo}");
        let windowed = e14_syncs_per_commit(4, 6, 400);
        assert!(
            windowed <= solo,
            "a 400µs window must not sync more often than none: {windowed} vs {solo}"
        );
    }

    #[test]
    fn e17_harness_loads_and_indexes() {
        let small = e17_load(2_000, 64);
        assert_eq!(small.rows, 2_000);
        assert!(small.heap_pages > 10 && small.index_pages > 2);
        // One heap fetch per row, plus a fraction for the pages it fills.
        assert!(small.fetches_per_insert < 2.0, "{small:?}");
    }

    #[test]
    fn e10_crc_variants_agree() {
        for len in [0usize, 1, 63, 1024] {
            let data = payload(len as u64, len);
            assert_eq!(
                sbdms::storage::wal::crc32(&data),
                e10_crc32_bitwise(&data),
                "length {len}"
            );
        }
        assert!(e10_crc_throughput(true, 4 << 10, 2) > 0.0);
        assert!(e10_crc_throughput(false, 4 << 10, 2) > 0.0);
    }
}
