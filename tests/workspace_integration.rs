//! Cross-crate integration: the full stack wired together — kernel bus,
//! storage engine, access paths, SQL, extensions — through the public
//! `sbdms` API.

use sbdms::kernel::value::Value;
use sbdms::{Profile, Sbdms};

fn system(name: &str) -> Sbdms {
    let dir = std::env::temp_dir()
        .join("sbdms-ws-integration")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Sbdms::open(Profile::FullFledged, dir).unwrap()
}

fn rows(out: &Value) -> Vec<Vec<Value>> {
    out.get("rows")
        .unwrap()
        .as_list()
        .unwrap()
        .iter()
        .map(|r| r.as_list().unwrap().to_vec())
        .collect()
}

#[test]
fn sql_workload_through_every_layer() {
    let s = system("layers");
    s.execute_sql("CREATE TABLE accounts (id INT NOT NULL, owner TEXT NOT NULL, balance INT NOT NULL)")
        .unwrap();
    s.execute_sql("CREATE INDEX accounts_id ON accounts (id)").unwrap();
    for chunk in 0..5 {
        let values: Vec<String> = (0..100)
            .map(|i| {
                let id = chunk * 100 + i;
                format!("({id}, 'owner-{id}', {})", (id * 7) % 1000)
            })
            .collect();
        s.execute_sql(&format!("INSERT INTO accounts VALUES {}", values.join(",")))
            .unwrap();
    }

    // Point query via index.
    let out = s.execute_sql("SELECT owner FROM accounts WHERE id = 250").unwrap();
    assert_eq!(rows(&out)[0][0], Value::Str("owner-250".into()));

    // Aggregation over the full set.
    let out = s.execute_sql("SELECT COUNT(*), MAX(balance) FROM accounts").unwrap();
    assert_eq!(rows(&out)[0][0], Value::Int(500));

    // Every storage-layer metric moved: the workload really crossed the
    // layers.
    let buffer_stats = s.database().storage().buffer.stats();
    assert!(buffer_stats.hits + buffer_stats.misses > 0);
    let (reads, writes) = s.database().storage().disk.io_counts();
    assert!(reads + writes > 0);
}

#[test]
fn service_fabric_and_direct_api_agree() {
    let s = system("agree");
    s.execute_sql("CREATE TABLE t (x INT)").unwrap();
    s.execute_sql("INSERT INTO t VALUES (1), (2), (3)").unwrap();

    // Through the bus.
    let via_bus = s.execute_sql("SELECT COUNT(*) FROM t").unwrap();
    // Direct co-located call.
    let via_db = s.database().session().execute("SELECT COUNT(*) FROM t").unwrap();

    assert_eq!(rows(&via_bus)[0][0], Value::Int(3));
    assert_eq!(via_db.rows[0][0], sbdms::access::record::Datum::Int(3));
}

#[test]
fn extensions_share_the_same_storage_substrate() {
    let s = system("substrate");
    let xml = s.service("xml").unwrap();
    // XML documents live in the same database file as tables.
    let pages_before = s.database().storage().disk.page_count();
    s.bus()
        .invoke(
            xml,
            "put",
            Value::map()
                .with("name", "big")
                .with("xml", format!("<doc>{}</doc>", "x".repeat(8000))),
        )
        .unwrap();
    let pages_after = s.database().storage().disk.page_count();
    assert!(pages_after > pages_before, "XML allocated real pages");
}

#[test]
fn procedures_drive_sql_transactionally() {
    let s = system("procedures");
    s.execute_sql("CREATE TABLE inv (item TEXT NOT NULL, qty INT NOT NULL)").unwrap();
    s.execute_sql("INSERT INTO inv VALUES ('bolt', 10)").unwrap();

    let procedures = s.service("procedures").unwrap();
    s.bus()
        .invoke(
            procedures,
            "register",
            Value::map().with("name", "consume").with(
                "statements",
                Value::List(vec![
                    Value::Str("UPDATE inv SET qty = qty - $2 WHERE item = $1".into()),
                    Value::Str("SELECT qty FROM inv WHERE item = $1".into()),
                ]),
            ),
        )
        .unwrap();
    let out = s
        .bus()
        .invoke(
            procedures,
            "call",
            Value::map()
                .with("name", "consume")
                .with("args", Value::List(vec![Value::Str("bolt".into()), Value::Int(4)])),
        )
        .unwrap();
    assert_eq!(rows(&out)[0][0], Value::Int(6));
}

#[test]
fn monitoring_mirrors_into_architecture_properties() {
    let s = system("monitoring");
    s.execute_sql("CREATE TABLE t (x INT)").unwrap();
    let monitor = s.service("monitor").unwrap();
    s.bus().invoke(monitor, "sample", Value::map()).unwrap();
    assert!(s.bus().properties().get_int("storage.main.workload").is_some());
    assert_eq!(
        s.bus().properties().get_int("storage.main.page_size"),
        Some(sbdms::storage::page::PAGE_SIZE as i64)
    );
}

#[test]
fn coordinator_service_reports_architecture_status() {
    let s = system("coordinator");
    let coordinator = s.service("coordinator").unwrap();
    let status = s.bus().invoke(coordinator, "status", Value::map()).unwrap();
    assert_eq!(
        status.get("deployed").unwrap().as_int().unwrap() as usize,
        s.service_keys().len()
    );
    assert!(status.get("footprint_bytes").unwrap().as_int().unwrap() > 0);
}

#[test]
fn durable_across_full_redeploy() {
    let dir = std::env::temp_dir()
        .join("sbdms-ws-integration")
        .join(format!("redeploy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let s = Sbdms::open(Profile::FullFledged, &dir).unwrap();
        s.execute_sql("CREATE TABLE persist (x INT)").unwrap();
        s.execute_sql("INSERT INTO persist VALUES (7)").unwrap();
        let xml = s.service("xml").unwrap();
        s.bus()
            .invoke(
                xml,
                "put",
                Value::map().with("name", "d").with("xml", "<k><v>9</v></k>"),
            )
            .unwrap();
        s.checkpoint().unwrap();
    }
    let s = Sbdms::open(Profile::FullFledged, &dir).unwrap();
    let out = s.execute_sql("SELECT x FROM persist").unwrap();
    assert_eq!(rows(&out)[0][0], Value::Int(7));
    let xml = s.service("xml").unwrap();
    let hits = s
        .bus()
        .invoke(xml, "query", Value::map().with("name", "d").with("path", "k/v"))
        .unwrap();
    assert_eq!(hits.as_list().unwrap()[0], Value::Str("9".into()));
}

#[test]
fn registry_discovery_spans_all_layers() {
    let s = system("discovery");
    let registry = s.bus().registry();
    assert!(!registry.find_by_layer("storage").is_empty());
    assert!(!registry.find_by_layer("access").is_empty());
    assert!(!registry.find_by_layer("data").is_empty());
    assert!(!registry.find_by_layer("extension").is_empty());
    // Gossip to a peer registry (paper §4 P2P repositories).
    let peer = sbdms::kernel::registry::Registry::new();
    let pulled = peer.sync_from(registry);
    assert_eq!(pulled, registry.len());
}
