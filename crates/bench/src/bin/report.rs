//! The experiment report: runs every experiment (E1–E17) with plain
//! timers and prints the tables recorded in EXPERIMENTS.md.
//!
//! `cargo run --release -p sbdms-bench --bin report`
//!
//! `--only <name>` runs a single experiment (`e1` … `e17`, `a1`);
//! `--smoke` shrinks the workloads for a fast CI sanity pass;
//! `--gate-join <min>` exits nonzero if E12's base join speedup (full
//! batches over one row per batch) falls below `min`, `--gate-mvcc <max>` if E14's MVCC reader latency
//! under a concurrent writer exceeds `max` times the read-only
//! baseline, and `--gate-index <min>` if fewer than two of E15's
//! headline access-path shapes reach a `min`-fold speedup over the
//! best previously available plan, and `--gate-wire <max_us>` if
//! E16's median TCP per-statement latency exceeds `max_us`
//! microseconds (the CI perf gates). E11–E17 also write their
//! measured tables to `BENCH_e11.json` … `BENCH_e17.json` at the
//! workspace root (full runs only, never under `--smoke`).

use std::time::{Duration, Instant};

use sbdms::baseline::ArchitectureStyle;
use sbdms::distributed::PlacementStrategy;
use sbdms::flexibility::selection::SelectionStrategy;
use sbdms::granularity::Granularity;
use sbdms::kernel::binding::BindingKind;
use sbdms::kernel::value::Value;
use sbdms::Profile;
use sbdms_bench::experiments::*;

fn time<F: FnMut()>(iterations: u32, mut f: F) -> Duration {
    // One warmup pass.
    f();
    let start = Instant::now();
    for _ in 0..iterations {
        f();
    }
    start.elapsed() / iterations
}

fn per_sec(d: Duration) -> f64 {
    if d.as_nanos() == 0 {
        f64::INFINITY
    } else {
        1e9 / d.as_nanos() as f64
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut only: Option<String> = None;
    let mut smoke = false;
    let mut gate_join: Option<f64> = None;
    let mut gate_mvcc: Option<f64> = None;
    let mut gate_index: Option<f64> = None;
    let mut gate_wire: Option<f64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--only" => {
                only = Some(
                    it.next()
                        .unwrap_or_else(|| {
                            eprintln!("--only requires an experiment name (e1..e17, a1)");
                            std::process::exit(2);
                        })
                        .to_lowercase(),
                )
            }
            "--smoke" => smoke = true,
            "--gate-join" => {
                let min = it.next().and_then(|v| v.parse::<f64>().ok());
                gate_join = Some(min.unwrap_or_else(|| {
                    eprintln!("--gate-join requires a minimum speedup (e.g. 2.0)");
                    std::process::exit(2);
                }));
            }
            "--gate-mvcc" => {
                let max = it.next().and_then(|v| v.parse::<f64>().ok());
                gate_mvcc = Some(max.unwrap_or_else(|| {
                    eprintln!("--gate-mvcc requires a maximum reader-latency ratio (e.g. 2.0)");
                    std::process::exit(2);
                }));
            }
            "--gate-index" => {
                let min = it.next().and_then(|v| v.parse::<f64>().ok());
                gate_index = Some(min.unwrap_or_else(|| {
                    eprintln!("--gate-index requires a minimum speedup (e.g. 5.0)");
                    std::process::exit(2);
                }));
            }
            "--gate-wire" => {
                let max = it.next().and_then(|v| v.parse::<f64>().ok());
                gate_wire = Some(max.unwrap_or_else(|| {
                    eprintln!("--gate-wire requires a maximum median latency in µs (e.g. 2000)");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!(
                    "unknown argument `{other}` (expected --only <name> / --smoke / \
                     --gate-join <min> / --gate-mvcc <max> / --gate-index <min> / \
                     --gate-wire <max_us>)"
                );
                std::process::exit(2);
            }
        }
    }
    let run = |name: &str| only.as_deref().is_none_or(|o| o == name);

    println!("SBDMS experiment report");
    println!("=======================");

    if run("e1") {
        e1();
    }
    if run("e2") {
        e2();
    }
    if run("e3") {
        e3();
    }
    if run("e4") {
        e4();
    }
    if run("e5") {
        e5();
    }
    if run("e6") {
        e6();
    }
    if run("e7") {
        e7();
    }
    if run("e8") {
        e8();
    }
    if run("e9") {
        e9();
    }
    if run("e10") {
        e10();
    }
    if run("e11") {
        e11(smoke);
    }
    if run("e12") {
        let join_speedup = e12(smoke);
        if let Some(min) = gate_join {
            if join_speedup < min {
                eprintln!(
                    "E12 join gate FAILED: full-batch speedup {join_speedup:.2}x < required {min:.2}x"
                );
                std::process::exit(1);
            }
            println!("E12 join gate passed: {join_speedup:.2}x >= {min:.2}x");
        }
    }
    if run("e13") {
        e13(smoke);
    }
    if run("e14") {
        let reader_overhead = e14(smoke);
        if let Some(max) = gate_mvcc {
            if reader_overhead > max {
                eprintln!(
                    "E14 MVCC gate FAILED: reader latency under a concurrent writer is \
                     {reader_overhead:.2}x the read-only baseline (max {max:.2}x)"
                );
                std::process::exit(1);
            }
            println!("E14 MVCC gate passed: {reader_overhead:.2}x <= {max:.2}x");
        }
    }
    if run("e15") {
        let index_speedup = e15(smoke);
        if let Some(min) = gate_index {
            if index_speedup < min {
                eprintln!(
                    "E15 index gate FAILED: only the single best access-path shape beats \
                     {min:.2}x (2nd-best speedup {index_speedup:.2}x)"
                );
                std::process::exit(1);
            }
            println!("E15 index gate passed: {index_speedup:.2}x >= {min:.2}x (2nd-best shape)");
        }
    }
    if run("e16") {
        let wire_p50_us = e16(smoke);
        if let Some(max) = gate_wire {
            if wire_p50_us > max {
                eprintln!(
                    "E16 wire gate FAILED: median TCP per-statement latency \
                     {wire_p50_us:.0}µs > {max:.0}µs"
                );
                std::process::exit(1);
            }
            println!(
                "E16 wire gate passed: {wire_p50_us:.0}µs <= {max:.0}µs (median TCP statement)"
            );
        }
    }
    if run("e17") {
        e17(smoke);
    }
    if run("a1") {
        a1(smoke);
    }

    println!("\ndone.");
}

fn e1() {
    println!("\nE1 — Fig. 1 architecture evolution over identical engine code");
    println!(
        "{:<16} {:>14} {:>14} {:>14}",
        "style", "point read", "oltp round", "full scan"
    );
    const PRELOAD: i64 = 2_000;
    for style in ArchitectureStyle::all() {
        let s = e1_style(style, PRELOAD);
        let mut round = 0i64;
        let read = time(2_000, || {
            round += 1;
            e1_point_read(&s, round, PRELOAD);
        });
        let mixed = time(200, || {
            round += 1;
            e1_round(&s, round, PRELOAD);
        });
        let scan = time(50, || {
            e1_scan(&s);
        });
        println!(
            "{:<16} {:>12.2}µs {:>12.1}µs {:>12.1}µs",
            style.name(),
            read.as_nanos() as f64 / 1e3,
            mixed.as_nanos() as f64 / 1e3,
            scan.as_nanos() as f64 / 1e3
        );
    }
}

fn e2() {
    println!("\nE2 — Fig. 2 per-layer representative op (bus-routed, in-process binding)");
    println!("{:<12} {:>14}", "layer", "op latency");
    let system = e2_system();
    for layer in ["storage", "access", "data", "extension"] {
        let (id, op, input) = e2_layer_op(&system, layer);
        let d = time(500, || {
            system.bus().invoke(id, op, input.clone()).unwrap();
        });
        println!("{:<12} {:>12.1}µs", layer, d.as_nanos() as f64 / 1e3);
    }
}

fn e3() {
    println!("\nE3 — §5 granularity sweep (record insert+read pair)");
    println!(
        "{:<12} {:<10} {:>12} {:>12}",
        "binding", "granularity", "pair latency", "pairs/s"
    );
    for binding in [
        BindingKind::InProcess,
        BindingKind::SerialisedOnly,
        BindingKind::Channel,
        BindingKind::SimulatedLan,
    ] {
        for g in Granularity::all() {
            let dep = e3_deployment(g, binding);
            let mut i = 0u64;
            let iters = if binding == BindingKind::SimulatedLan { 50 } else { 300 };
            let d = time(iters, || {
                i += 1;
                e3_op(&dep, i);
            });
            println!(
                "{:<12} {:<10} {:>10.1}µs {:>12.0}",
                format!("{binding:?}"),
                g.name(),
                d.as_nanos() as f64 / 1e3,
                per_sec(d)
            );
        }
    }
}

fn e4() {
    println!("\nE4 — Fig. 5 run-time extension (publish + first use)");
    println!(
        "{:<16} {:>14} {:>14}",
        "registry size", "publish", "first use"
    );
    for registry_size in [10usize, 100, 1000] {
        let bus = e4_bus(registry_size);
        let mut publishes = Vec::new();
        let mut first_uses = Vec::new();
        for n in 0..50u64 {
            let (p, f) = e4_publish_once(&bus, n);
            publishes.push(p);
            first_uses.push(f);
        }
        let mean = |v: &[Duration]| v.iter().sum::<Duration>() / v.len() as u32;
        println!(
            "{:<16} {:>12.1}µs {:>12.1}µs",
            registry_size,
            mean(&publishes).as_nanos() as f64 / 1e3,
            mean(&first_uses).as_nanos() as f64 / 1e3
        );
    }
}

fn e5() {
    println!("\nE5 — Fig. 6 selection among alternates (select + invoke)");
    println!("{:<14} {:>11} {:>14}", "strategy", "alternates", "call latency");
    for n in [2usize, 8, 32] {
        for strategy in SelectionStrategy::all() {
            let selector = e5_setup(n, strategy);
            let d = time(500, || {
                selector
                    .invoke("bench.Kv", "get", Value::map().with("key", "k"))
                    .unwrap();
            });
            println!(
                "{:<14} {:>11} {:>12.2}µs",
                strategy.name(),
                n,
                d.as_nanos() as f64 / 1e3
            );
        }
    }
}

fn e6() {
    println!("\nE6 — Fig. 7 adaptation (detect -> substitute -> recompose, full pass)");
    println!("{:<20} {:>16}", "recovery path", "failover latency");
    for (name, scenario) in [
        ("direct-substitute", E6Scenario::DirectSubstitute),
        ("adapted-substitute", E6Scenario::AdaptedSubstitute),
    ] {
        let mut samples = Vec::new();
        for _ in 0..30 {
            samples.push(e6_failover_once(scenario));
        }
        let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
        println!("{:<20} {:>14.1}µs", name, mean.as_nanos() as f64 / 1e3);
    }

    println!("\nE6b — MTTR under a silent failure (caller calls until first success, cap 50)");
    println!("{:<20} {:>16} {:>16}", "invocation layer", "calls to recover", "caller errors");
    for (name, on) in [("resilience on", true), ("resilience off", false)] {
        let (calls, errors) = e6_mttr(on, 50);
        let calls_s = if on { calls.to_string() } else { format!(">{calls}") };
        println!("{:<20} {:>16} {:>16}", name, calls_s, errors);
    }
}

fn e7() {
    println!("\nE7 — §4 profiles: setup time and footprint");
    println!(
        "{:<14} {:>12} {:>10} {:>16} {:>12}",
        "profile", "setup time", "services", "advertised bytes", "buffer KiB"
    );
    for (name, profile) in [
        ("full-fledged", Profile::FullFledged),
        ("embedded", Profile::Embedded),
    ] {
        let (setup, fp) = e7_deploy(profile);
        println!(
            "{:<14} {:>10.2}ms {:>10} {:>16} {:>12}",
            name,
            setup.as_nanos() as f64 / 1e6,
            fp.enabled_services,
            fp.footprint_bytes,
            fp.buffer_bytes / 1024
        );
    }
}

fn e9() {
    println!("\nE9 — data-plane concurrency (sharded buffer pool, concurrent scans, plan cache)");

    // Cached point reads: throughput vs threads, single stripe vs 8.
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "pool", "1 thread", "2 threads", "4 threads", "8 threads", "8T/1T"
    );
    const PAGES: usize = 256;
    const ITERS: usize = 40_000;
    for shards in [1usize, 8] {
        let (pool, pages) = e9_pool(shards, PAGES);
        // Warm every frame once.
        e9_point_read_throughput(&pool, &pages, 1, PAGES);
        let mut per_thread = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            per_thread.push(e9_point_read_throughput(&pool, &pages, threads, ITERS / threads));
        }
        println!(
            "{:<14} {:>10.2}M/s {:>10.2}M/s {:>10.2}M/s {:>10.2}M/s {:>9.1}x",
            format!("{shards}-shard"),
            per_thread[0] / 1e6,
            per_thread[1] / 1e6,
            per_thread[2] / 1e6,
            per_thread[3] / 1e6,
            per_thread[3] / per_thread[0]
        );
    }

    // Concurrent full-scan sessions.
    const ROWS: usize = 2_000;
    println!(
        "\n{:<14} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "pool", "1 session", "2 sessions", "4 sessions", "8 sessions", "8S/1S"
    );
    for shards in [1usize, 8] {
        let db = e9_db(ROWS, shards, true);
        e9_scan_throughput(&db, 1, 2);
        let mut per_threads = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            per_threads.push(e9_scan_throughput(&db, threads, 24 / threads.min(4)));
        }
        println!(
            "{:<14} {:>10.0}/s {:>10.0}/s {:>10.0}/s {:>10.0}/s {:>9.1}x",
            format!("{shards}-shard"),
            per_threads[0],
            per_threads[1],
            per_threads[2],
            per_threads[3],
            per_threads[3] / per_threads[0]
        );
    }

    // Repeated-statement latency with and without the plan cache.
    print!("  repeated point statement:                ");
    for (name, cached) in [("cache-on", true), ("cache-off", false)] {
        let session = e9_db(ROWS, 8, cached).session();
        let mut round = 0u64;
        let d = time(400, || {
            round += 1;
            e9_statement(&session, round);
        });
        print!("{name}={:.1}µs  ", d.as_nanos() as f64 / 1e3);
    }
    println!();
    let db = e9_db(ROWS, 8, true);
    let session = db.session();
    for round in 0..64 {
        e9_statement(&session, round);
    }
    let stats = db.plan_cache_stats();
    println!(
        "  plan cache after 64 statements over 16 texts: {} hits / {} misses",
        stats.hits, stats.misses
    );
}

fn e10() {
    println!("\nE10 — crash recovery and durability overheads (simulated device)");

    // Recovery time as the WAL grows: `committed` transactions of 4
    // rows each, plus a 4-row tail that lost power inside its commit
    // (pages written back, no commit record), which recovery undoes.
    println!(
        "{:<16} {:>12} {:>14} {:>10} {:>12}",
        "wal", "size", "recovery", "undone", "rows kept"
    );
    for committed in [4usize, 32, 128, 512] {
        // Average over a few fresh crashes; each recovery consumes its
        // prepared backend (the reopened WAL is truncated).
        const RUNS: usize = 5;
        let mut total = Duration::ZERO;
        let mut wal_bytes = 0;
        let mut undone = 0;
        let mut rows = 0;
        for _ in 0..RUNS {
            let (sim, bytes, undo) = e10_crashed_sim(committed, 4);
            let (elapsed, kept) = e10_recover(&sim);
            total += elapsed;
            wal_bytes = bytes;
            undone = undo;
            rows = kept;
        }
        println!(
            "{:<16} {:>10.1}KiB {:>12.2}ms {:>10} {:>12}",
            format!("{committed}-txn"),
            wal_bytes as f64 / 1024.0,
            (total / RUNS as u32).as_nanos() as f64 / 1e6,
            undone,
            rows
        );
    }

    // Table-driven vs bitwise CRC-32 over 64 KiB payloads.
    print!("\n  crc32 throughput (64 KiB blocks):        ");
    for (name, table_driven) in [("table", true), ("bitwise", false)] {
        let mut mibs = 0.0;
        let d = time(40, || {
            mibs = e10_crc_throughput(table_driven, 64 << 10, 4);
        });
        let _ = d;
        print!("{name}={mibs:.0}MiB/s  ");
    }
    println!();
}

fn e11(smoke: bool) {
    use sbdms_bench::experiments::{
        e11_apply, e11_count, e11_db, E11Config, E11_IDX_NONSEL_Q, E11_IDX_SEL_Q, E11_JOIN_Q,
    };

    println!("\nE11 — cost-based plan selection (statistics, join order, access paths)");
    let (big, items, rounds) = if smoke { (300usize, 1_000usize, 3u32) } else { (1_500, 20_000, 41) };
    let db = e11_db(big, items, true);
    // The same data never analyzed: the cost model plans it with its
    // default statistics.
    let twin = e11_db(big, items, false);
    let (session, twin_session) = (db.session(), twin.session());
    // (row name, session, knobs on the analyzed database)
    let row = |config: E11Config| (config.name(), &session, Some(config));
    let unanalyzed = ("un-analyzed".to_string(), &twin_session, None);
    // JSON keys are the row names in snake case.
    let key = |name: &str| name.replace('-', "_");

    println!(
        "  skewed-join-order: {} ({big}-row big tables)",
        E11_JOIN_Q.replace("SELECT COUNT(*) FROM ", "")
    );
    let join_configs = [
        row(E11Config::CostBased),
        row(E11Config::NoReorder),
        unanalyzed.clone(),
        row(E11Config::NoIndex),
    ];
    let access_configs = [row(E11Config::CostBased), row(E11Config::NoIndex), unanalyzed];
    // Every configuration must agree on each answer.
    for (sql, configs) in [(E11_JOIN_Q, &join_configs[..]), (E11_IDX_SEL_Q, &access_configs[..])] {
        let answers: Vec<i64> = configs
            .iter()
            .map(|(_, s, config)| {
                config.iter().for_each(|&c| e11_apply(&db, c));
                e11_count(s, sql)
            })
            .collect();
        assert!(answers.windows(2).all(|w| w[0] == w[1]), "{sql}: answers {answers:?}");
    }
    // One alternation over every row: each round re-applies a row's
    // knobs and runs it once untimed before its timed run, so a knob
    // flip's re-planning is never timed.
    fn timed<'a>(
        db: &'a sbdms::data::Database,
        (_, s, config): &(String, &'a sbdms::data::Session, Option<E11Config>),
        sql: &'static str,
    ) -> Row<'a> {
        let (s, config) = (*s, *config);
        Row {
            switch: Box::new(move || config.iter().for_each(|&c| e11_apply(db, c))),
            run: Box::new(move || {
                std::hint::black_box(e11_count(s, sql));
            }),
        }
    }
    let mut rows: Vec<Row> = join_configs.iter().map(|c| timed(&db, c, E11_JOIN_Q)).collect();
    rows.extend(access_configs.iter().map(|c| timed(&db, c, E11_IDX_SEL_Q)));
    rows.extend(access_configs.iter().map(|c| timed(&db, c, E11_IDX_NONSEL_Q)));
    let times = alternating(rounds, true, &mut rows);
    drop(rows);
    let (join_t, access_t) = times.split_at(join_configs.len());
    let (sel_t, full_t) = access_t.split_at(access_configs.len());
    let cost_based = join_t[0];
    // (name, ms, time over the cost-based plan's)
    let mut join_rows: Vec<(String, f64, f64)> = Vec::new();
    for ((name, _, _), d) in join_configs.iter().zip(join_t) {
        let (ms, ratio) = (
            d.as_nanos() as f64 / 1e6,
            d.as_nanos() as f64 / cost_based.as_nanos().max(1) as f64,
        );
        println!("    {:<18} {:>10.2}ms {:>8.1}x", name, ms, ratio);
        join_rows.push((name.clone(), ms, ratio));
    }

    println!("\n  access paths over {items}-row indexed table:");
    println!(
        "    {:<18} {:>14} {:>14}",
        "config", "selective 0.1%", "full-range"
    );
    // (name, selective µs, full-range ms)
    let mut access_rows: Vec<(String, f64, f64)> = Vec::new();
    for (((name, _, _), sel), nonsel) in access_configs.iter().zip(sel_t).zip(full_t) {
        let (sel_us, nonsel_ms) = (sel.as_nanos() as f64 / 1e3, nonsel.as_nanos() as f64 / 1e6);
        println!("    {:<18} {:>12.1}µs {:>12.2}ms", name, sel_us, nonsel_ms);
        access_rows.push((name.clone(), sel_us, nonsel_ms));
    }
    e11_apply(&db, E11Config::CostBased);
    let plans_selected = db.plans_selected();
    println!("  plans selected: {plans_selected} (each knob flip re-plans via the epoch)");

    if smoke {
        return;
    }
    let fields = |rows: Vec<String>| rows.join(",\n      ");
    let join_ms = fields(join_rows.iter().map(|(n, ms, _)| format!("\"{}\": {ms:.2}", key(n))).collect());
    let join_x = fields(
        join_rows[1..].iter().map(|(n, _, x)| format!("\"{}\": {x:.1}", key(n))).collect(),
    );
    let sel_us =
        fields(access_rows.iter().map(|(n, us, _)| format!("\"{}\": {us:.1}", key(n))).collect());
    let full_ms =
        fields(access_rows.iter().map(|(n, _, ms)| format!("\"{}\": {ms:.2}", key(n))).collect());
    // Baselines the cost-based plan beats at least threefold.
    let beaten = |rows: Vec<(String, f64)>| {
        rows.iter()
            .filter(|(_, x)| *x >= 3.0)
            .map(|(n, x)| format!("\"{} ({x:.1}x)\"", key(n)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let join_beaten = beaten(join_rows[1..].iter().map(|(n, _, x)| (n.clone(), *x)).collect());
    let sel_base = access_rows[0].1.max(f64::MIN_POSITIVE);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e11.json");
    // The numbers the file holds move to the `_previous` fields.
    let old = std::fs::read_to_string(path).unwrap_or_default();
    let sel_beaten =
        beaten(access_rows[1..].iter().map(|(n, us, _)| (n.clone(), us / sel_base)).collect());
    let json = format!(
        r#"{{
  "experiment": "E11",
  "title": "Cost-based plan selection: join ordering, hash build side, access paths",
  "date": "{date}",
  "build": "cargo run --release -p sbdms-bench --bin report -- --only e11",
  "note": "The un_analyzed rows run a twin database built without ANALYZE, planned by the one cost model with default statistics.",
  "workload": {{
    "skewed_join_order": {{
      "query": "{join_q}",
      "big_rows": {big},
      "tiny_rows": 100,
      "note": "textual order builds the skewed big1<<>>big2 intermediate first; cost-based starts from the filtered tiny relation"
    }},
    "access_paths": {{
      "selective_query": "{sel_q}",
      "full_range_query": "{nonsel_q}",
      "item_rows": {items},
      "index": "items_val ON items(val)"
    }},
    "timing": "median of {rounds} alternating rounds; each round runs every row once: re-apply its knobs, one untimed run, one timed run; the _previous fields hold the run this file held before"
  }},
  "results": {{
    "skewed_join_order_ms_previous": {join_ms_previous},
    "skewed_join_order_ms": {{
      {join_ms}
    }},
    "skewed_join_order_speedup_vs_cost_based": {{
      {join_x}
    }},
    "access_path_selective_us_previous": {sel_us_previous},
    "access_path_selective_us": {{
      {sel_us}
    }},
    "access_path_full_range_ms_previous": {full_ms_previous},
    "access_path_full_range_ms": {{
      {full_ms}
    }},
    "plans_selected": {plans_selected}
  }},
  "acceptance": {{
    "join_order_baselines_beaten_3x": [{join_beaten}],
    "selective_index_baselines_beaten_3x": [{sel_beaten}]
  }}
}}
"#,
        date = today_utc(),
        join_q = E11_JOIN_Q,
        sel_q = E11_IDX_SEL_Q,
        nonsel_q = E11_IDX_NONSEL_Q,
        join_ms_previous = previous_entry(&old, "skewed_join_order_ms"),
        sel_us_previous = previous_entry(&old, "access_path_selective_us"),
        full_ms_previous = previous_entry(&old, "access_path_full_range_ms"),
    );
    match std::fs::write(path, json) {
        Ok(()) => println!("  wrote BENCH_e11.json"),
        Err(e) => eprintln!("  could not write BENCH_e11.json: {e}"),
    }
}

/// The value `key` has in a report's JSON text `old` (an object is
/// brace-matched and put on one line), or `null`: how a rewritten
/// `BENCH_*.json` keeps the run it replaces as `<key>_previous`.
fn previous_entry(old: &str, key: &str) -> String {
    let needle = format!("\"{key}\": ");
    let Some(at) = old.find(&needle) else {
        return "null".to_string();
    };
    let rest = &old[at + needle.len()..];
    let value = if rest.starts_with('{') {
        let mut depth = 0;
        let end = rest.char_indices().find_map(|(i, c)| {
            depth += (c == '{') as i32 - (c == '}') as i32;
            (depth == 0).then_some(i + 1)
        });
        &rest[..end.unwrap_or(rest.len())]
    } else {
        rest.lines().next().unwrap_or("").trim_end_matches(',')
    };
    value.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// One row of an [`alternating`] timing: `switch` puts the system into
/// the row's configuration (untimed) and `run` is what is timed.
struct Row<'a> {
    switch: Box<dyn FnMut() + 'a>,
    run: Box<dyn FnMut() + 'a>,
}

impl<'a> Row<'a> {
    /// A row with nothing to switch.
    fn run(run: impl FnMut() + 'a) -> Row<'a> {
        Row {
            switch: Box::new(|| ()),
            run: Box::new(run),
        }
    }

    /// A row whose run consumes its input: `make` builds a fresh one
    /// before every run, untimed (as the row's switch; time it with
    /// `warm` off).
    fn consuming<I: 'a>(mut make: impl FnMut() -> I + 'a, mut run: impl FnMut(I) + 'a) -> Row<'a> {
        let input = std::rc::Rc::new(std::cell::Cell::new(None));
        let slot = input.clone();
        Row {
            switch: Box::new(move || slot.set(Some(make()))),
            run: Box::new(move || run(input.take().expect("the switch builds the input"))),
        }
    }
}

/// Alternating-rounds timing of rows against each other: each round
/// runs every row once, in order, and a row's time is its median over
/// `rounds` (one untimed round comes first). Rows timed side by side
/// meet the same moments of a shared host, so noise that drifts over a
/// run moves them together instead of apart, and their differences can
/// be read. With `warm`, every row's `switch` is followed by one untimed
/// run (a knob flip re-plans: its first run pays the planning).
fn alternating(rounds: u32, warm: bool, rows: &mut [Row]) -> Vec<Duration> {
    let mut times = vec![Vec::with_capacity(rounds as usize); rows.len()];
    for round in 0..=rounds.max(1) {
        for (row, times) in rows.iter_mut().zip(&mut times) {
            (row.switch)();
            if warm {
                (row.run)();
            }
            let start = Instant::now();
            (row.run)();
            if round > 0 {
                times.push(start.elapsed());
            }
        }
    }
    times
        .into_iter()
        .map(|mut runs| {
            runs.sort();
            runs[runs.len() / 2]
        })
        .collect()
}

/// Today's UTC date as `YYYY-MM-DD` (Howard Hinnant's civil-from-days).
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs()) as i64;
    let z = secs.div_euclid(86_400) + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Returns the base-join speedup (one row per batch / full batch) for
/// `--gate-join`.
fn e12(smoke: bool) -> f64 {
    use sbdms::access::exec::engine::VectorEngine;
    use sbdms::access::exec::BATCH_ROWS;
    use sbdms::access::exec::hash_join_phases;
    use sbdms_bench::experiments::{
        e12_dim, e12_dim_dup, e12_dim_highndv, e12_fact, e12_join, e12_join_highndv,
        e12_join_rows, e12_scan_filter_aggregate, e12_scan_layer, e12_sql_db, e12_sql_shapes,
        e12_decode_db, e12_decode_sweep, E12_DECODE_WORKLOADS, E12_SCAN_LAYERS, E12_SQL_DIM,
        E12_SQL_ROWS,
    };

    println!("\nE12 — vectorized execution: full batches vs one row per batch");
    let (rows, iters) = if smoke { (20_000usize, 5u32) } else { (200_000, 11) };
    const GROUPS: usize = 64;
    const DUPS: usize = 8;
    let fact = e12_fact(rows);
    let dim = e12_dim(GROUPS);
    let dup = e12_dim_dup(GROUPS, DUPS);
    let hi = e12_dim_highndv(rows);
    let threshold = (rows / 2) as i64;
    // The baseline is the same engine at one row per batch: what is
    // measured is what batching buys.
    let row = VectorEngine {
        batch_rows: 1,
        ..VectorEngine::default()
    };
    let full = VectorEngine::default();

    // The engine consumes its input rows, so every run gets a fresh
    // clone, built outside the timer: what is timed is execution alone.
    // The ten pipelines alternate, so their ratios meet the same moments
    // of a shared host.
    let one = || fact.clone();
    let two = |d: &Vec<_>| (fact.clone(), d.clone());
    let mut timed = Vec::new();
    for engine in [&row, &full] {
        timed.push(Row::consuming(one, move |f| {
            std::hint::black_box(e12_scan_filter_aggregate(engine, f, threshold));
        }));
    }
    for (d, join) in [(&dim, e12_join as fn(&VectorEngine, _, _) -> usize), (&dup, e12_join), (&hi, e12_join_highndv)] {
        for engine in [&row, &full] {
            timed.push(Row::consuming(move || two(d), move |(f, d)| {
                std::hint::black_box(join(engine, f, d));
            }));
        }
    }
    for engine in [&row, &full] {
        timed.push(Row::consuming(|| two(&dim), move |(f, d)| {
            std::hint::black_box(e12_join_rows(engine, f, d));
        }));
    }
    let pipeline_times = alternating(iters, false, &mut timed);
    drop(timed);
    let [sfa_row, sfa_full, join_row, join_full, dup_row, dup_full, hi_row, hi_full, rows_row, rows_full] =
        pipeline_times[..]
    else {
        unreachable!("ten pipeline rows")
    };

    let ms = |d: Duration| d.as_nanos() as f64 / 1e6;
    let speedup = |t: Duration, v: Duration| t.as_nanos() as f64 / v.as_nanos().max(1) as f64;
    println!(
        "  {:<30} {:>12} {:>12} {:>9}",
        format!("pipeline ({rows} rows, median of {iters})"),
        "batch 1",
        format!("batch {BATCH_ROWS}"),
        "speedup"
    );
    let print_row = |label: &str, t: Duration, v: Duration| {
        println!(
            "  {:<30} {:>10.2}ms {:>10.2}ms {:>8.1}x",
            label,
            ms(t),
            ms(v),
            speedup(t, v)
        );
    };
    print_row("scan->filter->aggregate", sfa_row, sfa_full);
    print_row(
        &format!("join->aggregate (x{GROUPS} dim)"),
        join_row,
        join_full,
    );
    print_row(
        &format!("join->aggregate (dup x{DUPS})"),
        dup_row,
        dup_full,
    );
    print_row("join->aggregate (high NDV)", hi_row, hi_full);
    print_row("join, materialise all rows", rows_row, rows_full);

    // Columnar join phase breakdown (engine internals, full batches):
    // where the join's own time goes, without the values adapters.
    let (b1, p1, g1, out1) = hash_join_phases(&dim, &fact, 0, 1, BATCH_ROWS);
    let (b2, p2, g2, out2) = hash_join_phases(&hi, &fact, 0, 0, BATCH_ROWS);
    println!("  columnar join phases (build/probe/gather):");
    println!(
        "    base:     {:>8.2}ms / {:>8.2}ms / {:>8.2}ms  ({out1} pairs)",
        ms(b1),
        ms(p1),
        ms(g1)
    );
    println!(
        "    high NDV: {:>8.2}ms / {:>8.2}ms / {:>8.2}ms  ({out2} pairs)",
        ms(b2),
        ms(p2),
        ms(g2)
    );

    // The `scan_mix` SQL shapes, in process through `Session::execute`:
    // page decoding, MVCC visibility, filter, aggregate and join over a
    // heap 2.7x the buffer pool.
    let (sql_rows, sql_rounds) = if smoke { (4_000, 3) } else { (E12_SQL_ROWS, 31) };
    let db = e12_sql_db(sql_rows);
    let session = db.session();
    println!(
        "  scan_mix SQL shapes ({sql_rows}-row t, 256 frames, median of {sql_rounds} alternating rounds):"
    );
    let shapes = e12_sql_shapes();
    let mut timed: Vec<Row> = shapes
        .iter()
        .map(|(_, sql)| {
            let session = &session;
            Row::run(move || {
                std::hint::black_box(session.execute(sql).unwrap());
            })
        })
        .collect();
    let shape_times = alternating(sql_rounds, false, &mut timed);
    drop(timed);
    let mut sql_ms = Vec::new();
    for ((name, sql), d) in shapes.iter().zip(shape_times) {
        println!("    {name:<10} {:>8.2}ms  {sql}", ms(d));
        sql_ms.push(format!("\"{name}\": {:.2}", ms(d)));
    }
    // The same scan of `t`, one layer at a time (see E12_SCAN_LAYERS),
    // the layers alternating so that neighbours can be subtracted.
    println!("  scan of t by layer (cumulative, median of {sql_rounds} alternating rounds):");
    let db_ref = &db;
    let mut timed: Vec<Row> = (0..E12_SCAN_LAYERS.len())
        .map(|layer| {
            Row::run(move || {
                std::hint::black_box(e12_scan_layer(db_ref, layer));
            })
        })
        .collect();
    let layer_times = alternating(sql_rounds, false, &mut timed);
    drop(timed);
    let mut layer_ms = Vec::new();
    for (name, d) in E12_SCAN_LAYERS.iter().zip(layer_times) {
        println!("    {name:<10} {:>8.2}ms", ms(d));
        layer_ms.push(format!("\"{name}\": {:.2}", ms(d)));
    }
    drop(session);
    drop(db);
    // The two decoders on the same pages, with and without NULLs and a
    // read TEXT field: each workload's walk, then its decode step record
    // by record and a page at a time.
    let ddb = e12_decode_db(sql_rows);
    println!("  decode step by workload (ms past the walk, median of {sql_rounds} alternating rounds):");
    let ddb_ref = &ddb;
    let mut timed: Vec<Row> = E12_DECODE_WORKLOADS
        .iter()
        .flat_map(|&(_, table, keep)| {
            [None, Some(false), Some(true)].map(|by_page| {
                Row::run(move || {
                    std::hint::black_box(e12_decode_sweep(ddb_ref, table, &keep, by_page));
                })
            })
        })
        .collect();
    let decode_times = alternating(sql_rounds, false, &mut timed);
    drop(timed);
    drop(ddb);
    let mut decode_ms = Vec::new();
    for ((name, _, _), d) in E12_DECODE_WORKLOADS.iter().zip(decode_times.chunks(3)) {
        let (record, page) = (ms(d[1]) - ms(d[0]), ms(d[2]) - ms(d[0]));
        println!(
            "    {name:<14} walk {:>6.2}ms  record by record {record:>6.2}ms  page at a time {page:>6.2}ms",
            ms(d[0])
        );
        decode_ms.push(format!("\"{name}\": {{\"record\": {record:.2}, \"page\": {page:.2}}}"));
    }

    let join_x = speedup(join_row, join_full);
    // Machine-parsable for the CI gate (see --gate-join).
    println!("  E12-GATE join_speedup={join_x:.2}");

    if smoke {
        // A smoke pass sanity-checks the harness; don't overwrite the
        // recorded full-workload artifact with shrunken numbers.
        return join_x;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e12.json");
    // The SQL rows and scan layers compare this build with the last
    // recorded run: the numbers the file holds move to the `_previous`
    // fields.
    let now = |entries: &[String]| {
        format!("{{\"date\": \"{}\", {}}}", today_utc(), entries.join(", "))
    };
    let (sql_now, layers_now, decode_now) = (now(&sql_ms), now(&layer_ms), now(&decode_ms));
    let old = std::fs::read_to_string(path).unwrap_or_default();
    let (sql_previous, layers_previous) =
        (previous_entry(&old, "sql_shapes_ms"), previous_entry(&old, "scan_layers_ms"));
    let json = format!(
        r#"{{
  "experiment": "E12",
  "title": "Vectorized execution: full batches vs one row per batch",
  "date": "{date}",
  "build": "cargo run --release -p sbdms-bench --bin report -- --only e12",
  "workload": {{
    "scan_filter_aggregate": {{
      "pipeline": "values({rows}) -> filter(val < {threshold}) -> hash_aggregate(grp; COUNT(*), SUM(val), MIN(val))",
      "rows": {rows},
      "groups": {GROUPS},
      "selectivity": 0.5
    }},
    "join": {{
      "pipeline": "values({rows}) hash-join values(dim) on grp -> aggregate(COUNT(*), SUM(weight))",
      "fact_rows": {rows},
      "dim_rows": {GROUPS},
      "variants": {{
        "dup": "dimension repeats each key {DUPS}x (chains fan out)",
        "high_ndv": "dimension keyed on the unique id column ({rows} distinct build keys)",
        "materialise_rows": "same join, all joined rows transposed back to tuples (no aggregate)"
      }}
    }},
    "sql_shapes": {{
      "statements": ["{sql_sum}", "{sql_group}", "{sql_join}"],
      "t_rows": {E12_SQL_ROWS},
      "d_rows": {E12_SQL_DIM},
      "buffer_frames": 256,
      "timing": "Session::execute in process under MVCC, median of {sql_rounds} alternating rounds (each round runs every shape once, after one untimed round); sql_shapes_ms_previous is the run this file held before"
    }},
    "scan_layers": {{
      "layers": ["io: pread every data page of t, no pool", "miss: + fetch each through the 256-frame pool (every fetch misses)", "walk: + visit each live record", "decode: + decode k and v into typed column vectors (pad skipped, as scan_mix reads t)", "batches: + cut into {BATCH_ROWS}-row batches (scan_batches)", "table_read: the TableScan leaf under an MVCC read snapshot, projected to k and v"],
      "timing": "cumulative: each layer includes the ones before it; median of {sql_rounds} alternating rounds (each round sweeps every layer once, after one untimed round); scan_layers_ms_previous is the run this file held before"
    }},
    "decode_steps": {{
      "workloads": ["k_v: t, k and v read (pad skipped)", "k_v_pad: t, every field read", "nulls_k_v: tn (v NULL in one row of ten), k and v read", "nulls_k_v_pad: tn, every field read"],
      "timing": "ms past a walk that lists each page's records, record by record (decode_tuple_into) and a page at a time (PageDecoder), {sql_rows}-row tables under a 256-frame pool; median of {sql_rounds} alternating rounds"
    }},
    "baseline": "the same engine at batch_rows = 1; until 2026-10 the baseline was the deleted tuple-at-a-time engine",
    "note": "pre-materialised rows; median of {iters} alternating rounds (each round runs all ten pipelines once, after one untimed round); each run consumes a fresh input clone built outside the timer"
  }},
  "results": {{
    "scan_filter_aggregate_ms": {{
      "batch_1": {sfa_t:.2},
      "batch_{BATCH_ROWS}": {sfa_v:.2},
      "speedup": {sfa_x:.1}
    }},
    "join_ms": {{
      "batch_1": {join_t:.2},
      "batch_{BATCH_ROWS}": {join_v:.2},
      "speedup": {join_x:.1}
    }},
    "join_dup_ms": {{
      "batch_1": {dup_t:.2},
      "batch_{BATCH_ROWS}": {dup_v:.2},
      "speedup": {dup_x:.1}
    }},
    "join_high_ndv_ms": {{
      "batch_1": {hi_t:.2},
      "batch_{BATCH_ROWS}": {hi_v:.2},
      "speedup": {hi_x:.1}
    }},
    "join_materialise_rows_ms": {{
      "batch_1": {rows_t:.2},
      "batch_{BATCH_ROWS}": {rows_v:.2},
      "speedup": {rows_x:.1}
    }},
    "join_phases_ms": {{
      "base": {{"build": {b1:.3}, "probe": {p1:.3}, "gather": {g1:.3}}},
      "high_ndv": {{"build": {b2:.3}, "probe": {p2:.3}, "gather": {g2:.3}}}
    }},
    "sql_shapes_ms_previous": {sql_previous},
    "sql_shapes_ms": {sql_now},
    "scan_layers_ms_previous": {layers_previous},
    "scan_layers_ms": {layers_now},
    "decode_steps_ms": {decode_now}
  }},
  "acceptance": {{
    "full_batch_2x_on_scan_filter_aggregate": {accept_sfa},
    "full_batch_3x_on_join": {accept_join}
  }}
}}
"#,
        date = today_utc(),
        sfa_t = ms(sfa_row),
        sfa_v = ms(sfa_full),
        sfa_x = speedup(sfa_row, sfa_full),
        join_t = ms(join_row),
        join_v = ms(join_full),
        dup_t = ms(dup_row),
        dup_v = ms(dup_full),
        dup_x = speedup(dup_row, dup_full),
        hi_t = ms(hi_row),
        hi_v = ms(hi_full),
        hi_x = speedup(hi_row, hi_full),
        rows_t = ms(rows_row),
        rows_v = ms(rows_full),
        rows_x = speedup(rows_row, rows_full),
        b1 = ms(b1),
        p1 = ms(p1),
        g1 = ms(g1),
        b2 = ms(b2),
        p2 = ms(p2),
        g2 = ms(g2),
        accept_sfa = speedup(sfa_row, sfa_full) >= 2.0,
        accept_join = join_x >= 3.0,
        sql_sum = shapes[0].1,
        sql_group = shapes[1].1,
        sql_join = shapes[2].1,
    );
    match std::fs::write(path, json) {
        Ok(()) => println!("  wrote BENCH_e12.json"),
        Err(e) => eprintln!("  could not write BENCH_e12.json: {e}"),
    }
    join_x
}

fn e13(smoke: bool) {
    use sbdms_bench::experiments::{e13_db, e13_drive, E13Outcome, E13_MAX_CONCURRENT};

    println!("\nE13 — overload protection: resource governor under oversubscription");
    let (rows, per_session) = if smoke { (1_000usize, 3usize) } else { (20_000, 12) };
    let multipliers = [1usize, 2, 4];

    // Three configurations: no governor (every session queues on raw
    // locks), governor with strict admission (excess load sheds), and
    // governor with the degraded contract (excess load admits with the
    // sort budget clamped to the governor's degraded budget).
    let configs: [(&str, bool, bool); 3] = [
        ("governor off", false, false),
        ("governor on", true, false),
        ("on + degraded", true, true),
    ];
    println!(
        "  {:<16} {:>9} {:>10} {:>6} {:>9} {:>10} {:>10}",
        "config", "sessions", "completed", "shed", "degraded", "p50", "p99"
    );
    let mut table: Vec<(String, usize, E13Outcome)> = Vec::new();
    for (label, governor_on, allow_degraded) in configs {
        let db = e13_db(rows, governor_on);
        for mult in multipliers {
            let sessions = E13_MAX_CONCURRENT * mult;
            let outcome = e13_drive(&db, sessions, per_session, allow_degraded);
            println!(
                "  {:<16} {:>7}x {:>10} {:>6} {:>9} {:>8.2}ms {:>8.2}ms",
                label,
                mult,
                outcome.completed,
                outcome.shed,
                outcome.degraded,
                outcome.p50_ms,
                outcome.p99_ms
            );
            table.push((label.to_string(), mult, outcome));
        }
    }

    if smoke {
        // A smoke pass sanity-checks the harness; don't overwrite the
        // recorded full-workload artifact with shrunken numbers.
        return;
    }
    let cell = |label: &str, mult: usize| -> &E13Outcome {
        &table.iter().find(|(l, m, _)| l == label && *m == mult).unwrap().2
    };
    let off4 = cell("governor off", 4);
    let on4 = cell("governor on", 4);
    let deg4 = cell("on + degraded", 4);
    let runs: Vec<String> = table
        .iter()
        .map(|(label, mult, o)| {
            format!(
                r#"    {{
      "config": "{label}",
      "capacity_multiple": {mult},
      "sessions": {sessions},
      "completed": {completed},
      "shed": {shed},
      "degraded": {degraded},
      "p50_ms": {p50:.2},
      "p99_ms": {p99:.2}
    }}"#,
                sessions = sbdms_bench::experiments::E13_MAX_CONCURRENT * mult,
                completed = o.completed,
                shed = o.shed,
                degraded = o.degraded,
                p50 = o.p50_ms,
                p99 = o.p99_ms,
            )
        })
        .collect();
    let json = format!(
        r#"{{
  "experiment": "E13",
  "title": "Overload protection: resource governor, shedding, and degraded admission",
  "date": "{date}",
  "build": "cargo run --release -p sbdms-bench --bin report -- --only e13",
  "workload": {{
    "query": "SELECT grp, COUNT(*), MIN(label) FROM t GROUP BY grp ORDER BY grp",
    "rows": {rows},
    "queries_per_session": {per_session},
    "admission_capacity": {cap},
    "queue_depth": {queue},
    "queue_wait_ms": 40,
    "note": "sessions = capacity x multiple; shed queries are counted, not retried"
  }},
  "runs": [
{runs}
  ],
  "acceptance": {{
    "p99_bounded_with_governor_at_4x": {accept},
    "off_p99_ms_at_4x": {off_p99:.2},
    "on_p99_ms_at_4x": {on_p99:.2},
    "degraded_admissions_at_4x": {deg_count}
  }}
}}
"#,
        date = today_utc(),
        cap = sbdms_bench::experiments::E13_MAX_CONCURRENT,
        queue = sbdms_bench::experiments::E13_MAX_CONCURRENT * 2,
        runs = runs.join(",\n"),
        accept = on4.p99_ms <= off4.p99_ms,
        off_p99 = off4.p99_ms,
        on_p99 = on4.p99_ms,
        deg_count = deg4.degraded,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e13.json");
    match std::fs::write(path, json) {
        Ok(()) => println!("  wrote BENCH_e13.json"),
        Err(e) => eprintln!("  could not write BENCH_e13.json: {e}"),
    }
}

/// Returns the MVCC reader-latency overhead under a concurrent writer
/// (median with writer / median read-only) for `--gate-mvcc`.
fn e14(smoke: bool) -> f64 {
    use sbdms::data::ConcurrencyControl;
    use sbdms_bench::experiments::{
        e14_db, e14_drive, e14_syncs_per_commit, E14Outcome, E14_READERS,
    };

    println!("\nE14 — concurrency control: MVCC snapshot readers vs the single-writer lock");
    let (rows, per_reader, commits_per) =
        if smoke { (1_000usize, 24usize, 25usize) } else { (8_000, 120, 200) };

    // Each concurrency-control service gets a read-only baseline and a
    // drive against one writer committing update transactions in a loop.
    let configs: [(&str, ConcurrencyControl, bool); 4] = [
        ("mvcc read-only", ConcurrencyControl::Mvcc, false),
        ("mvcc + writer", ConcurrencyControl::Mvcc, true),
        ("single-writer read-only", ConcurrencyControl::SingleWriter, false),
        ("single-writer + writer", ConcurrencyControl::SingleWriter, true),
    ];
    println!(
        "  {:<24} {:>6} {:>10} {:>10} {:>8} {:>8}",
        "config", "reads", "p50", "p99", "retries", "commits"
    );
    let mut table: Vec<(String, E14Outcome)> = Vec::new();
    for (label, cc, with_writer) in configs {
        let db = e14_db(rows, cc);
        let outcome = e14_drive(&db, E14_READERS, per_reader, with_writer);
        println!(
            "  {:<24} {:>6} {:>8.2}ms {:>8.2}ms {:>8} {:>8}",
            label,
            outcome.reads,
            outcome.read_p50_ms,
            outcome.read_p99_ms,
            outcome.reader_retries,
            outcome.writer_commits
        );
        table.push((label.to_string(), outcome));
    }
    let cell = |label: &str| -> &E14Outcome {
        &table.iter().find(|(l, _)| l == label).unwrap().1
    };
    let reader_overhead =
        cell("mvcc + writer").read_p50_ms / cell("mvcc read-only").read_p50_ms.max(1e-6);
    println!("  mvcc reader overhead under a concurrent writer: {reader_overhead:.2}x (p50)");

    // Group commit: fsyncs per commit with and without the coalescing
    // window, on a simulated device that counts its sync barriers.
    let gc_off = e14_syncs_per_commit(4, commits_per, 0);
    let gc_on = e14_syncs_per_commit(4, commits_per, 200);
    println!(
        "  group commit (4 committers): {gc_off:.2} syncs/commit without window, \
         {gc_on:.2} with the 200µs window"
    );

    if smoke {
        // A smoke pass sanity-checks the harness; don't overwrite the
        // recorded full-workload artifact with shrunken numbers.
        return reader_overhead;
    }
    let runs: Vec<String> = table
        .iter()
        .map(|(label, o)| {
            format!(
                r#"    {{
      "config": "{label}",
      "readers": {readers},
      "reads": {reads},
      "read_p50_ms": {p50:.3},
      "read_p99_ms": {p99:.3},
      "reader_retries": {retries},
      "writer_commits": {commits}
    }}"#,
                readers = E14_READERS,
                reads = o.reads,
                p50 = o.read_p50_ms,
                p99 = o.read_p99_ms,
                retries = o.reader_retries,
                commits = o.writer_commits,
            )
        })
        .collect();
    let json = format!(
        r#"{{
  "experiment": "E14",
  "title": "Concurrency control as a kernel service: MVCC snapshot readers vs the single-writer lock",
  "date": "{date}",
  "build": "cargo run --release -p sbdms-bench --bin report -- --only e14",
  "workload": {{
    "query": "SELECT COUNT(*), SUM(v), MAX(v) FROM t",
    "rows": {rows},
    "reads_per_reader": {per_reader},
    "writer": "loop of 4-row UPDATE transactions, 100us apart",
    "note": "reader latency is timed start-to-success; single-writer lockout retries are charged to the read that suffered them"
  }},
  "runs": [
{runs}
  ],
  "group_commit": {{
    "committers": 4,
    "commits_per_committer": {commits_per},
    "syncs_per_commit_no_window": {gc_off:.3},
    "syncs_per_commit_200us_window": {gc_on:.3}
  }},
  "acceptance": {{
    "mvcc_reader_overhead_p50": {overhead:.3},
    "mvcc_readers_within_2x_of_baseline": {within},
    "mvcc_reader_lockouts": {lockouts},
    "group_commit_coalesces": {coalesces}
  }}
}}
"#,
        date = today_utc(),
        runs = runs.join(",\n"),
        overhead = reader_overhead,
        within = reader_overhead <= 2.0,
        lockouts = cell("mvcc + writer").reader_retries,
        coalesces = gc_on < gc_off,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e14.json");
    match std::fs::write(path, json) {
        Ok(()) => println!("  wrote BENCH_e14.json"),
        Err(e) => eprintln!("  could not write BENCH_e14.json: {e}"),
    }
    reader_overhead
}

/// Returns the 2nd-best speedup among the three headline shapes
/// (composite point probe, IN-list IndexOr, covering scan) so
/// `--gate-index <min>` enforces "at least two of three beat min".
fn e15(smoke: bool) -> f64 {
    use sbdms_bench::experiments::{
        e11_apply, e11_count, e15_db, e15_path, E11Config, E15_AND_Q, E15_COVER_Q, E15_INLIST_Q,
        E15_POINT_Q, E15_PREFIX_Q,
    };

    println!("\nE15 — richer access paths: composite keys, IndexOr/IndexAnd, covering scans");
    let (rows, iters) = if smoke { (20_000usize, 3u32) } else { (200_000, 30) };
    // `previous` has only the single-column indexes a pre-composite
    // planner could use; `current` replaces the tenant index with the
    // composite (tenant, ts) key. Per shape, the baseline knob pins the
    // plan the old planner would actually have produced: IN-lists were
    // seq scans (no IndexOr existed), and two-column conjunctions took
    // one index (no IndexAnd), which `previous` reproduces by having no
    // index on the second column.
    let previous = e15_db(rows, false);
    let current = e15_db(rows, true);

    let shapes: [(&str, &str, E11Config, bool); 5] = [
        ("composite point probe", E15_POINT_Q, E11Config::CostBased, true),
        ("prefix + range", E15_PREFIX_Q, E11Config::CostBased, false),
        ("IN-list (IndexOr)", E15_INLIST_Q, E11Config::NoIndex, true),
        ("intersection (IndexAnd)", E15_AND_Q, E11Config::CostBased, false),
        ("covering index-only", E15_COVER_Q, E11Config::CostBased, true),
    ];
    println!(
        "  {:<24} {:>10} {:>10} {:>8}  chosen path ({rows} rows)",
        "shape", "previous", "new", "speedup"
    );
    let mut gated: Vec<f64> = Vec::new();
    let mut measured: Vec<(String, f64, f64, f64, String, String)> = Vec::new();
    let (on_previous, on_current) = (previous.session(), current.session());
    for (name, sql, prev_knob, gate) in shapes {
        e11_apply(&previous, prev_knob);
        let prev_path = e15_path(&on_previous, sql);
        let mut n_prev = 0;
        let d_prev = time(iters, || {
            n_prev = e11_count(&on_previous, sql);
        });
        e11_apply(&current, E11Config::CostBased);
        let new_path = e15_path(&on_current, sql);
        let mut n_new = 0;
        let d_new = time(iters, || {
            n_new = e11_count(&on_current, sql);
        });
        assert_eq!(n_prev, n_new, "{name}: access paths changed the answer");
        let speedup = d_prev.as_nanos() as f64 / d_new.as_nanos().max(1) as f64;
        if gate {
            gated.push(speedup);
        }
        let short = new_path.split(" [rows").next().unwrap_or(&new_path).to_string();
        println!(
            "  {:<24} {:>8.1}µs {:>8.1}µs {:>7.1}x  {short}",
            name,
            d_prev.as_nanos() as f64 / 1e3,
            d_new.as_nanos() as f64 / 1e3,
            speedup,
        );
        let prev_short = prev_path.split(" [rows").next().unwrap_or(&prev_path).to_string();
        measured.push((
            name.to_string(),
            d_prev.as_nanos() as f64 / 1e3,
            d_new.as_nanos() as f64 / 1e3,
            speedup,
            prev_short,
            short,
        ));
    }
    gated.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let second_best = gated[1];
    println!(
        "  gate metric: 2nd-best of {{point, IN-list, covering}} speedups = {second_best:.2}x"
    );

    if smoke {
        // A smoke pass sanity-checks the harness; don't overwrite the
        // recorded full-workload artifact with shrunken numbers.
        return second_best;
    }
    let runs: Vec<String> = measured
        .iter()
        .map(|(name, prev_us, new_us, speedup, prev_path, new_path)| {
            format!(
                r#"    {{
      "shape": "{name}",
      "previous_us": {prev_us:.1},
      "new_us": {new_us:.1},
      "speedup": {speedup:.2},
      "previous_path": "{prev_path}",
      "new_path": "{new_path}"
    }}"#
            )
        })
        .collect();
    let json = format!(
        r#"{{
  "experiment": "E15",
  "title": "Richer access paths: composite keys, IndexOr/IndexAnd, covering index-only scans",
  "date": "{date}",
  "build": "cargo run --release -p sbdms-bench --bin report -- --only e15",
  "workload": {{
    "rows": {rows},
    "table": "ev (tenant 100-way, ts unique, kind rows/100-way, cat 97-way, pad text)",
    "baseline": "best plan available before composite keys: single-column probes, seq scan for IN-lists, one index for two-column conjunctions"
  }},
  "runs": [
{runs}
  ],
  "acceptance": {{
    "second_best_headline_speedup": {second_best:.2},
    "two_of_three_beat_5x": {pass}
  }}
}}
"#,
        date = today_utc(),
        runs = runs.join(",\n"),
        pass = second_best >= 5.0,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e15.json");
    match std::fs::write(path, json) {
        Ok(()) => println!("  wrote BENCH_e15.json"),
        Err(e) => eprintln!("  could not write BENCH_e15.json: {e}"),
    }
    second_best
}

fn e16(smoke: bool) -> f64 {
    use sbdms_bench::experiments::{
        e16_binding_call_cost, e16_db, e16_inproc_drive, e16_statement_overhead, e16_wire_drive,
    };
    use sbdms::kernel::binding::Binding as _;
    use sbdms_server::{NetworkBinding, Server, ServerConfig};

    println!("\nE16 — the network data plane: owned sessions behind a real TCP wire protocol");
    let db = e16_db(10_000);
    let server = Server::start(db.clone(), ServerConfig::default()).unwrap();
    let addr = server.addr();

    // Layer 1: raw binding cost, engine excluded — a 1 KiB echo through
    // every binding family plus the real socket. This is the SCA
    // "communication separated from functionality" ladder with the real
    // network as its measured top rung.
    let iters = if smoke { 30u32 } else { 300 };
    println!("  per-call binding overhead, 1KiB echo payload:");
    let mut binding_rows: Vec<(String, f64)> = Vec::new();
    for kind in BindingKind::all() {
        let b = kind.build();
        let cost = e16_binding_call_cost(&*b, 1024, iters);
        let name = b.protocol().to_string();
        println!("    {:<22} {:>9.1}µs", name, cost.as_nanos() as f64 / 1e3);
        binding_rows.push((name, cost.as_nanos() as f64 / 1e3));
    }
    let tcp_binding = NetworkBinding::new().unwrap();
    let cost = e16_binding_call_cost(&tcp_binding, 1024, iters);
    println!("    {:<22} {:>9.1}µs", tcp_binding.protocol(), cost.as_nanos() as f64 / 1e3);
    binding_rows.push(("tcp-loopback".into(), cost.as_nanos() as f64 / 1e3));

    // Layer 2: one indexed point SELECT, per statement — the engine's
    // work plus whatever each path adds on top.
    let (inproc_us, wire_text_us, wire_prepared_us) = e16_statement_overhead(&db, addr, iters);
    println!("  per-statement cost, indexed point SELECT:");
    println!("    {:<22} {:>9.1}µs", "in-process session", inproc_us);
    println!(
        "    {:<22} {:>9.1}µs  (+{:.1}µs wire overhead)",
        "tcp, query text",
        wire_text_us,
        wire_text_us - inproc_us
    );
    println!(
        "    {:<22} {:>9.1}µs  (+{:.1}µs wire overhead)",
        "tcp, prepared stmt",
        wire_prepared_us,
        wire_prepared_us - inproc_us
    );

    // Layer 3: throughput and latency as connections scale. On a
    // single-core host this measures contention and scheduling cost,
    // not parallel speedup.
    let counts: &[usize] = if smoke { &[1, 8] } else { &[1, 8, 64, 256] };
    let per_conn = if smoke { 20 } else { 50 };
    println!(
        "  {:<6} {:>12} {:>12} {:>10} {:>10}   ({per_conn} point SELECTs per connection)",
        "conns", "tcp stmt/s", "inproc st/s", "tcp p50", "tcp p99"
    );
    let mut scale_rows = Vec::new();
    let mut wire_p50_1conn = f64::NAN;
    for &n in counts {
        let wire = e16_wire_drive(addr, n, per_conn);
        let inproc = e16_inproc_drive(&db, n, per_conn);
        if n == 1 {
            wire_p50_1conn = wire.p50_us;
        }
        println!(
            "  {:<6} {:>12.0} {:>12.0} {:>8.1}µs {:>8.1}µs",
            n, wire.per_sec, inproc.per_sec, wire.p50_us, wire.p99_us
        );
        scale_rows.push((n, wire, inproc));
    }
    let stats = server.stats();
    println!(
        "  server lifecycle: {} accepted, {} refused, {} teardown rollbacks",
        stats.accepted, stats.refused, stats.teardown_rollbacks
    );

    if smoke {
        // Smoke sanity-checks the harness; keep the recorded artifact
        // from the full workload.
        return wire_p50_1conn;
    }
    let bindings_json: Vec<String> = binding_rows
        .iter()
        .map(|(name, us)| format!(r#"    {{ "binding": "{name}", "per_call_us": {us:.1} }}"#))
        .collect();
    let scale_json: Vec<String> = scale_rows
        .iter()
        .map(|(n, w, i)| {
            format!(
                r#"    {{
      "connections": {n},
      "tcp_stmts_per_sec": {:.0},
      "inproc_stmts_per_sec": {:.0},
      "tcp_p50_us": {:.1},
      "tcp_p99_us": {:.1},
      "inproc_p50_us": {:.1}
    }}"#,
                w.per_sec, i.per_sec, w.p50_us, w.p99_us, i.p50_us
            )
        })
        .collect();
    let json = format!(
        r#"{{
  "experiment": "E16",
  "title": "The network data plane: TCP wire protocol vs in-process and simulated bindings",
  "date": "{date}",
  "build": "cargo run --release -p sbdms-bench --bin report -- --only e16",
  "workload": {{
    "rows": 10000,
    "statement": "indexed point SELECT",
    "host": "single-core container; connection scaling measures contention, not parallelism"
  }},
  "binding_overhead": [
{bindings}
  ],
  "per_statement_us": {{
    "in_process": {inproc_us:.1},
    "tcp_query_text": {wire_text_us:.1},
    "tcp_prepared": {wire_prepared_us:.1}
  }},
  "connection_scaling": [
{scale}
  ],
  "acceptance": {{
    "max_connections_measured": {max_conns},
    "tcp_p50_us_at_1_conn": {wire_p50_1conn:.1}
  }}
}}
"#,
        date = today_utc(),
        bindings = bindings_json.join(",\n"),
        scale = scale_json.join(",\n"),
        max_conns = counts.last().copied().unwrap_or(0),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e16.json");
    match std::fs::write(path, json) {
        Ok(()) => println!("  wrote BENCH_e16.json"),
        Err(e) => eprintln!("  could not write BENCH_e16.json: {e}"),
    }
    wire_p50_1conn
}

fn e17(smoke: bool) {
    println!("\nE17 — linear-time load: free-space map inserts, bottom-up CREATE INDEX");
    // The default 256-frame pool holds a 10k-row `t` but not a 100k-row
    // one, so only the larger load writes pages back while it runs. A
    // 4 096-frame pool holds both and shows the load without that step.
    let mut runs: Vec<(usize, usize)> = vec![(10_000, 256), (100_000, 256)];
    if !smoke {
        runs.push((1_000_000, 256));
    }
    runs.extend([(10_000, 4_096), (100_000, 4_096)]);
    println!(
        "  {:>9} {:>7} {:>9} {:>11} {:>11} {:>13} {:>12} {:>9} {:>10}",
        "rows",
        "frames",
        "load",
        "rows/s",
        "insert p50",
        "create index",
        "fetches/row",
        "heap pgs",
        "index pgs"
    );
    let mut loads = Vec::new();
    for (rows, frames) in runs {
        // A 10k load lasts ~0.1 s, where one scheduler hiccup on a
        // shared host shows: keep the fastest of three below 1M rows.
        let tries = if rows < 1_000_000 { 3 } else { 1 };
        let l = (0..tries)
            .map(|_| e17_load(rows, frames))
            .min_by_key(|l| l.load)
            .expect("at least one try");
        println!(
            "  {:>9} {:>7} {:>8.2}s {:>11.0} {:>9.2}ms {:>12.2}s {:>12.3} {:>9} {:>10}",
            l.rows,
            l.frames,
            l.load.as_secs_f64(),
            l.rows as f64 / l.load.as_secs_f64(),
            l.insert_median.as_secs_f64() * 1e3,
            l.create_index.as_secs_f64(),
            l.fetches_per_insert,
            l.heap_pages,
            l.index_pages
        );
        loads.push(l);
    }
    let load_s = |rows: usize, frames: usize| {
        loads
            .iter()
            .find(|l| l.rows == rows && l.frames == frames)
            .map_or(f64::NAN, |l| l.load.as_secs_f64())
    };
    let ratios = [256, 4_096].map(|frames| (frames, load_s(100_000, frames) / load_s(10_000, frames)));
    for (frames, ratio) in ratios {
        println!("  load 100k / load 10k at {frames} frames = {ratio:.1}x for 10x the rows");
    }
    if smoke {
        // Smoke sanity-checks the harness; keep the recorded artifact
        // from the full workload.
        return;
    }
    // Every metric is better lower.
    let metric = |name: String, value: f64, unit: &str| {
        format!(
            r#"    {{ "name": "{name}", "value": {value:.4}, "unit": "{unit}", "better": "lower" }}"#
        )
    };
    let mut metrics = Vec::new();
    for l in &loads {
        let tag = format!("{}k.{}f", l.rows / 1_000, l.frames);
        metrics.push(metric(format!("load_s.{tag}"), l.load.as_secs_f64(), "s"));
        let median_ms = l.insert_median.as_secs_f64() * 1e3;
        metrics.push(metric(format!("insert_1000_rows_p50_ms.{tag}"), median_ms, "ms"));
        metrics.push(metric(format!("create_index_s.{tag}"), l.create_index.as_secs_f64(), "s"));
        metrics.push(metric(format!("fetches_per_insert.{tag}"), l.fetches_per_insert, "count"));
        metrics.push(metric(format!("heap_pages.{tag}"), l.heap_pages as f64, "count"));
        metrics.push(metric(format!("index_pages.{tag}"), l.index_pages as f64, "count"));
    }
    for (frames, ratio) in ratios {
        metrics.push(metric(format!("load_ratio.100k_over_10k.{frames}f"), ratio, "ratio"));
    }
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let json = format!(
        r#"{{
  "experiment": "E17",
  "title": "Linear-time load: a free-space map for heap inserts and a bottom-up CREATE INDEX build",
  "git_commit": "{commit}",
  "date": "{date}",
  "host": "2-vCPU shared container, real files",
  "build": "cargo run --release -p sbdms-bench --bin report -- --only e17",
  "workload": {{
    "table": "t(k INT, v INT, pad TEXT) with 40-byte pads, keys in a scrambled order",
    "load": "1 000-row INSERT statements, autocommit, Relaxed durability",
    "index": "CREATE INDEX t_k ON t (k) after the load",
    "pool": "256 frames (the default) and 4 096 frames; metric names end in the frame count"
  }},
  "metrics": [
{metrics}
  ]
}}
"#,
        date = today_utc(),
        metrics = metrics.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e17.json");
    match std::fs::write(path, json) {
        Ok(()) => println!("  wrote BENCH_e17.json"),
        Err(e) => eprintln!("  could not write BENCH_e17.json: {e}"),
    }
}

fn a1(smoke: bool) {
    use sbdms::data::txn::Durability;
    use sbdms::data::Database;
    use sbdms::kernel::bus::ServiceBus;
    use sbdms::kernel::contract::{Assertion, Contract};
    use sbdms::kernel::interface::{Interface, Operation, Param};
    use sbdms::kernel::service::FnService;
    use sbdms::kernel::value::TypeTag;
    use sbdms_bench::bench_dir;

    println!("\nA1 — ablations");

    // Contract policy enforcement.
    let bus = ServiceBus::new();
    bus.properties().set("free_memory", 1_000_000i64);
    let iface = Interface::new(
        "abl.Echo",
        1,
        vec![Operation::new(
            "echo",
            vec![Param::required("v", TypeTag::Int)],
            TypeTag::Int,
        )],
    );
    let contract = Contract::for_interface(iface)
        .assert(Assertion::RequiresField("v".into()))
        .assert(Assertion::PropertyAtLeast("free_memory".into(), 1024))
        .assert(Assertion::MaxRequestBytes(1024));
    let id = bus
        .deploy(FnService::new("echo", contract, |_, v| Ok(v)).into_ref())
        .unwrap();
    print!("  policy checks (3 assertions): ");
    for (name, on) in [("enforced", true), ("skipped", false)] {
        bus.set_enforce_policies(on);
        let d = time(2_000, || {
            bus.invoke(id, "echo", Value::map().with("v", 1i64)).unwrap();
        });
        print!("{name}={:.2}µs  ", d.as_nanos() as f64 / 1e3);
    }
    println!();

    // Commit durability.
    print!("  txn commit (1 insert):        ");
    for (name, durability) in [("relaxed", Durability::Relaxed), ("full", Durability::Full)] {
        let db = Database::open(bench_dir("rep-a1-dur")).unwrap();
        let s = db.session();
        s.execute("CREATE TABLE t (x INT)").unwrap();
        db.set_durability(durability);
        let mut i = 0i64;
        let d = time(100, || {
            i += 1;
            s.begin().unwrap();
            s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
            s.commit().unwrap();
        });
        print!("{name}={:.1}µs  ", d.as_nanos() as f64 / 1e3);
    }
    println!();

    a1_order_by(smoke);
}

/// `ORDER BY n` over `(n INT, label TEXT)` rows under the default 8 MiB
/// sort budget: the serial sort against the path the sort operator
/// selects from the input's size (median of alternating runs).
fn a1_order_by(smoke: bool) {
    use sbdms::access::record::{Datum, Tuple};
    use sbdms::access::sort::{ExternalSorter, SortKey};

    let sizes: &[usize] = if smoke {
        &[20_000]
    } else {
        &[20_000, 300_000, 1_000_000]
    };
    let keys = [SortKey::asc(0)];
    let sorter = ExternalSorter::new(8 << 20);
    for &n in sizes {
        let input: Vec<Tuple> = (0..n)
            .map(|i| {
                vec![
                    Datum::Int(((i * 7_919) % n) as i64),
                    Datum::Str(format!("row{i}")),
                ]
            })
            .collect();
        // Alternate the two sorts so that drift in the host's speed
        // reaches both alike; each run sorts a fresh clone.
        let runs = if n >= 1_000_000 { 5 } else { 15 };
        let sort = |serial: bool| {
            let (input, sorter, keys) = (&input, &sorter, &keys);
            Row::run(move || {
                let out = if serial {
                    sorter.sort(input.clone(), keys)
                } else {
                    sorter.sort_auto(input.clone(), keys)
                };
                std::hint::black_box(out.unwrap());
            })
        };
        let times = alternating(runs, false, &mut [sort(true), sort(false)]);
        let (serial, selected) = (times[0], times[1]);
        println!(
            "  ORDER BY, {n} rows: serial={:.1}ms  selected={:.1}ms ({} workers, {:.2}x)",
            serial.as_nanos() as f64 / 1e6,
            selected.as_nanos() as f64 / 1e6,
            sorter.workers_for(&input),
            serial.as_secs_f64() / selected.as_secs_f64()
        );
    }
}

fn e8() {
    println!("\nE8 — §4 proximity composition (device zones 0/25/50; 200µs per zone hop)");
    println!(
        "{:<12} {:>14} {:>14} {:>8}",
        "client zone", "nearest", "naive-first", "speedup"
    );
    let cluster = e8_cluster();
    for zone in [0i64, 25, 50] {
        let near = time(50, || e8_read(&cluster, zone, PlacementStrategy::Nearest));
        let naive = time(50, || e8_read(&cluster, zone, PlacementStrategy::First));
        println!(
            "{:<12} {:>12.1}µs {:>12.1}µs {:>7.1}x",
            zone,
            near.as_nanos() as f64 / 1e3,
            naive.as_nanos() as f64 / 1e3,
            naive.as_nanos() as f64 / near.as_nanos().max(1) as f64
        );
    }
}
