//! Heavier full-stack scenarios: volume, mixed workloads across bindings,
//! recovery, and the baseline/granularity harnesses used by the benches.

use sbdms::baseline::{ArchitectureStyle, StyleUnderTest};
use sbdms::granularity::{GranularDeployment, Granularity};
use sbdms::kernel::binding::BindingKind;
use sbdms::kernel::value::Value;
use sbdms::{ArchitectureConfig, Profile, Sbdms};

fn dir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir()
        .join("sbdms-full-stack")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn volume_workload_with_joins_and_aggregates() {
    let s = Sbdms::open(Profile::FullFledged, dir("volume")).unwrap();
    s.execute_sql("CREATE TABLE customers (id INT NOT NULL, region TEXT NOT NULL)")
        .unwrap();
    s.execute_sql("CREATE TABLE purchases (pid INT NOT NULL, customer_id INT NOT NULL, cents INT NOT NULL)")
        .unwrap();

    let regions = ["north", "south", "east", "west"];
    let mut customer_values = Vec::new();
    for id in 0..200 {
        customer_values.push(format!("({id}, '{}')", regions[id % 4]));
    }
    s.execute_sql(&format!(
        "INSERT INTO customers VALUES {}",
        customer_values.join(",")
    ))
    .unwrap();

    let mut purchase_values = Vec::new();
    for pid in 0..1000 {
        purchase_values.push(format!("({pid}, {}, {})", pid % 200, (pid * 37) % 10_000));
    }
    for chunk in purchase_values.chunks(250) {
        s.execute_sql(&format!("INSERT INTO purchases VALUES {}", chunk.join(",")))
            .unwrap();
    }

    let out = s
        .execute_sql(
            "SELECT region, COUNT(*) AS n, SUM(cents) AS total \
             FROM customers c JOIN purchases p ON c.id = p.customer_id \
             GROUP BY region ORDER BY region",
        )
        .unwrap();
    let rows = out.get("rows").unwrap().as_list().unwrap();
    assert_eq!(rows.len(), 4);
    let total: i64 = rows
        .iter()
        .map(|r| r.as_list().unwrap()[1].as_int().unwrap())
        .sum();
    assert_eq!(total, 1000, "every purchase joined exactly once");
}

#[test]
fn all_architecture_styles_agree_on_results() {
    let mut counts = Vec::new();
    for style in ArchitectureStyle::all() {
        let s = StyleUnderTest::new(style, dir(&format!("style-{}", style.name()))).unwrap();
        for i in 0..50 {
            s.insert(i, &format!("val-{i}")).unwrap();
        }
        assert_eq!(s.point_read(25).unwrap().as_deref(), Some("val-25"));
        counts.push(s.scan_count().unwrap());
    }
    assert!(counts.iter().all(|&c| c == 50));
}

#[test]
fn granularity_matrix_round_trips_over_every_binding() {
    for binding in [BindingKind::InProcess, BindingKind::Channel, BindingKind::SerialisedOnly] {
        for g in Granularity::all() {
            let dep = GranularDeployment::new(
                g,
                binding,
                dir(&format!("gran-{:?}-{}", binding, g.name())),
            )
            .unwrap();
            let payload = format!("payload-{:?}-{}", binding, g.name());
            let (page, slot) = dep.insert(payload.as_bytes()).unwrap();
            assert_eq!(dep.get(page, slot).unwrap(), payload.as_bytes());
        }
    }
}

#[test]
fn simulated_wan_binding_still_correct() {
    // Slow but correct: the binding must not change semantics.
    let config = ArchitectureConfig::for_profile(Profile::Embedded, dir("wan"))
        .with_binding(BindingKind::SimulatedLan);
    let s = Sbdms::deploy(config).unwrap();
    s.execute_sql("CREATE TABLE t (x INT)").unwrap();
    s.execute_sql("INSERT INTO t VALUES (1), (2)").unwrap();
    let out = s.execute_sql("SELECT SUM(x) FROM t").unwrap();
    let rows = out.get("rows").unwrap().as_list().unwrap();
    assert_eq!(rows[0].as_list().unwrap()[0], Value::Int(3));
}

#[test]
fn transactional_workload_with_crash_recovery() {
    let d = dir("crash");
    {
        let s = Sbdms::open(Profile::FullFledged, &d).unwrap();
        s.database().set_durability(sbdms::data::txn::Durability::Full);
        s.execute_sql("CREATE TABLE ledger (entry INT NOT NULL)").unwrap();
        s.execute_sql("INSERT INTO ledger VALUES (1), (2)").unwrap();
        s.database().checkpoint().unwrap();

        // An uncommitted transaction with flushed pages = crash victim.
        let session = s.database().session();
        session.begin().unwrap();
        session.execute("INSERT INTO ledger VALUES (999)").unwrap();
        session.execute("DELETE FROM ledger WHERE entry = 1").unwrap();
        s.database().storage().buffer.flush_all().unwrap();
        s.database().storage().wal.sync().unwrap();
        // Dropped without commit.
    }
    let s = Sbdms::open(Profile::FullFledged, &d).unwrap();
    let out = s.execute_sql("SELECT entry FROM ledger ORDER BY entry").unwrap();
    let rows = out.get("rows").unwrap().as_list().unwrap();
    let entries: Vec<i64> = rows
        .iter()
        .map(|r| r.as_list().unwrap()[0].as_int().unwrap())
        .collect();
    assert_eq!(entries, vec![1, 2], "uncommitted txn fully undone");
}

#[test]
fn views_and_procedures_compose() {
    let s = Sbdms::open(Profile::FullFledged, dir("compose")).unwrap();
    s.execute_sql("CREATE TABLE readings (sensor TEXT NOT NULL, v INT NOT NULL)").unwrap();
    s.execute_sql(
        "INSERT INTO readings VALUES ('a', 5), ('a', 15), ('b', 25), ('b', 3)",
    )
    .unwrap();
    s.execute_sql("CREATE VIEW hot AS SELECT sensor, v FROM readings WHERE v > 10")
        .unwrap();

    let out = s
        .execute_sql("SELECT sensor, COUNT(*) AS n FROM hot GROUP BY sensor ORDER BY sensor")
        .unwrap();
    let rows = out.get("rows").unwrap().as_list().unwrap();
    assert_eq!(rows.len(), 2);

    // A procedure querying the view.
    let procedures = s.service("procedures").unwrap();
    s.bus()
        .invoke(
            procedures,
            "register",
            Value::map().with("name", "hot_count").with(
                "statements",
                Value::List(vec![Value::Str(
                    "SELECT COUNT(*) FROM hot WHERE sensor = $1".into(),
                )]),
            ),
        )
        .unwrap();
    let out = s
        .bus()
        .invoke(
            procedures,
            "call",
            Value::map()
                .with("name", "hot_count")
                .with("args", Value::List(vec![Value::Str("a".into())])),
        )
        .unwrap();
    let rows = out.get("rows").unwrap().as_list().unwrap();
    assert_eq!(rows[0].as_list().unwrap()[0], Value::Int(1));
}

#[test]
fn concurrent_bus_traffic_is_safe() {
    let s = std::sync::Arc::new(Sbdms::open(Profile::FullFledged, dir("concurrent")).unwrap());
    let stream = s.service("stream").unwrap();
    s.bus()
        .invoke(stream, "create", Value::map().with("name", "c"))
        .unwrap();

    let mut handles = Vec::new();
    for t in 0..4 {
        let s = s.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..100i64 {
                s.bus()
                    .invoke(
                        stream,
                        "push",
                        Value::map()
                            .with("name", "c")
                            .with("timestamp", i)
                            .with("key", format!("t{t}"))
                            .with("value", i as f64),
                    )
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let stats = s
        .bus()
        .invoke(stream, "stats", Value::map().with("name", "c"))
        .unwrap();
    assert_eq!(stats.get("retained").unwrap().as_int().unwrap(), 400);
}
