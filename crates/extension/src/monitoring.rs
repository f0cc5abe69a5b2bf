//! The §4 custom monitoring service.
//!
//! Paper §4: "developers may require additional information to monitor
//! the state of a storage service (e.g., work load, buffer size, page
//! size, and data fragmentation). Here, developers invoke existing
//! coordinator services, or create customised monitoring services that
//! read the properties from the storage service and retrieve data."
//!
//! `StorageMonitorService` is exactly that customised service: it samples
//! a buffer pool and publishes the four quantities the paper names, both
//! as a response payload and into the architecture property store. Given
//! a database, it adds each open table heap's free space and data pages,
//! read from the heaps' free-space maps rather than by a page walk.

use std::sync::Arc;

use sbdms_kernel::contract::{Contract, Quality};
use sbdms_kernel::error::Result;
use sbdms_kernel::interface::{Interface, Operation};
use sbdms_kernel::property::PropertyStore;
use sbdms_kernel::service::{unknown_op, Descriptor, Service, ServiceRef};
use sbdms_kernel::value::{TypeTag, Value};
use sbdms_data::executor::Database;
use sbdms_storage::buffer::BufferPool;
use sbdms_storage::page::PAGE_SIZE;

/// Interface name of the storage monitor.
pub const MONITOR_INTERFACE: &str = "sbdms.extension.StorageMonitor";

/// The canonical monitor interface.
pub fn monitor_interface() -> Interface {
    Interface::new(
        MONITOR_INTERFACE,
        1,
        vec![
            Operation::new("sample", vec![], TypeTag::Map),
        ],
    )
}

/// A user-created monitoring service over one buffer pool.
pub struct StorageMonitorService {
    descriptor: Descriptor,
    pool: Arc<BufferPool>,
    properties: PropertyStore,
    prefix: String,
    db: Option<Arc<Database>>,
}

impl StorageMonitorService {
    /// Create a monitor publishing under `storage.<prefix>.*` properties.
    pub fn new(
        name: &str,
        pool: Arc<BufferPool>,
        properties: PropertyStore,
        prefix: &str,
    ) -> StorageMonitorService {
        let contract = Contract::for_interface(monitor_interface())
            .describe(
                "samples work load, buffer size, page size and fragmentation",
                "extension",
            )
            .capability("task:monitoring")
            .depends_on(sbdms_storage::services::BUFFER_INTERFACE)
            .quality(Quality {
                expected_latency_ns: 1_000,
                footprint_bytes: 4 * 1024,
                ..Quality::default()
            });
        StorageMonitorService {
            descriptor: Descriptor::new(name, contract),
            pool,
            properties,
            prefix: prefix.to_string(),
            db: None,
        }
    }

    /// Also report the free space of `db`'s table heaps.
    pub fn with_database(mut self, db: Arc<Database>) -> StorageMonitorService {
        self.db = Some(db);
        self
    }

    /// Wrap into a shared handle.
    pub fn into_ref(self) -> ServiceRef {
        Arc::new(self)
    }

    /// Take one sample: returns the paper's four quantities and mirrors
    /// them into the property store. With a database, `heaps` lists
    /// each open table heap's `free_bytes` and `data_pages` from its
    /// free-space map (mirrored as `storage.<prefix>.heap.<table>.*`).
    pub fn sample(&self) -> Value {
        let stats = self.pool.stats();
        let workload = stats.hits + stats.misses;
        let p = &self.prefix;
        self.properties
            .set(&format!("storage.{p}.workload"), workload as i64);
        self.properties
            .set(&format!("storage.{p}.buffer_size"), stats.capacity as i64);
        self.properties
            .set(&format!("storage.{p}.page_size"), PAGE_SIZE as i64);
        self.properties
            .set(&format!("storage.{p}.fragmentation"), stats.mean_fragmentation);
        let heaps = self.db.iter().flat_map(|db| db.heap_space()).map(|(table, space)| {
            let key = format!("storage.{p}.heap.{table}");
            self.properties
                .set(&format!("{key}.free_bytes"), space.free_bytes as i64);
            self.properties
                .set(&format!("{key}.data_pages"), space.data_pages as i64);
            Value::map()
                .with("table", table.as_str())
                .with("free_bytes", space.free_bytes)
                .with("data_pages", space.data_pages)
        });
        Value::map()
            .with("workload", workload)
            .with("buffer_size", stats.capacity)
            .with("page_size", PAGE_SIZE)
            .with("fragmentation", stats.mean_fragmentation)
            .with("hit_ratio", stats.hit_ratio())
            .with("dirty", stats.dirty)
            .with("resident", stats.resident)
            .with("heaps", Value::List(heaps.collect()))
    }
}

impl Service for StorageMonitorService {
    fn descriptor(&self) -> &Descriptor {
        &self.descriptor
    }

    fn invoke(&self, op: &str, _input: Value) -> Result<Value> {
        match op {
            "sample" => Ok(self.sample()),
            other => Err(unknown_op(&self.descriptor, other)),
        }
    }
}

/// Interface name of the governor monitor.
pub const GOVERNOR_MONITOR_INTERFACE: &str = "sbdms.extension.GovernorMonitor";

/// The canonical governor-monitor interface.
pub fn governor_monitor_interface() -> Interface {
    Interface::new(
        GOVERNOR_MONITOR_INTERFACE,
        1,
        vec![Operation::new("sample", vec![], TypeTag::Map)],
    )
}

/// A monitoring service over the resource governor: surfaces admission,
/// shedding, degradation, and memory-pool counters — the overload
/// half of the paper's "work load" monitoring concern.
pub struct GovernorMonitorService {
    descriptor: Descriptor,
    governor: sbdms_kernel::governor::Governor,
    properties: PropertyStore,
    prefix: String,
}

impl GovernorMonitorService {
    /// Create a monitor publishing under `governor.<prefix>.*`.
    pub fn new(
        name: &str,
        governor: sbdms_kernel::governor::Governor,
        properties: PropertyStore,
        prefix: &str,
    ) -> GovernorMonitorService {
        let contract = Contract::for_interface(governor_monitor_interface())
            .describe(
                "samples admission, shed, degraded, cancelled and memory counters",
                "extension",
            )
            .capability("task:monitoring")
            .quality(Quality {
                expected_latency_ns: 1_000,
                footprint_bytes: 1024,
                ..Quality::default()
            });
        GovernorMonitorService {
            descriptor: Descriptor::new(name, contract),
            governor,
            properties,
            prefix: prefix.to_string(),
        }
    }

    /// Wrap into a shared handle.
    pub fn into_ref(self) -> ServiceRef {
        Arc::new(self)
    }

    /// Take one sample: returns the governor counters and mirrors them
    /// into the property store for policy gating.
    pub fn sample(&self) -> Value {
        let s = self.governor.snapshot();
        let p = &self.prefix;
        self.properties
            .set(&format!("governor.{p}.enabled"), s.enabled);
        self.properties
            .set(&format!("governor.{p}.in_flight"), s.in_flight as i64);
        self.properties
            .set(&format!("governor.{p}.admitted"), s.admitted as i64);
        self.properties
            .set(&format!("governor.{p}.shed"), s.shed as i64);
        self.properties
            .set(&format!("governor.{p}.degraded"), s.degraded as i64);
        self.properties
            .set(&format!("governor.{p}.cancelled"), s.cancelled as i64);
        self.properties
            .set(&format!("governor.{p}.mem_peak"), s.mem_peak as i64);
        Value::map()
            .with("enabled", s.enabled)
            .with("in_flight", s.in_flight as i64)
            .with("waiting", s.waiting as i64)
            .with("admitted", s.admitted as i64)
            .with("shed", s.shed as i64)
            .with("degraded", s.degraded as i64)
            .with("cancelled", s.cancelled as i64)
            .with("mem_used", s.mem_used as i64)
            .with("mem_peak", s.mem_peak as i64)
            .with("mem_capacity", s.mem_capacity as i64)
    }
}

impl Service for GovernorMonitorService {
    fn descriptor(&self) -> &Descriptor {
        &self.descriptor
    }

    fn invoke(&self, op: &str, _input: Value) -> Result<Value> {
        match op {
            "sample" => Ok(self.sample()),
            other => Err(unknown_op(&self.descriptor, other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbdms_storage::services::StorageEngine;

    fn pool(name: &str) -> Arc<BufferPool> {
        let dir = std::env::temp_dir()
            .join("sbdms-monitor-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        StorageEngine::open(&dir, 8).unwrap().buffer
    }

    #[test]
    fn sample_reports_paper_quantities() {
        let pool = pool("quantities");
        let props = PropertyStore::new();
        let monitor = StorageMonitorService::new("mon", pool.clone(), props.clone(), "main");

        // Generate some activity with fragmentation.
        let page = pool.new_page().unwrap();
        let slot = pool
            .try_with_page_mut(page, |p| {
                p.insert(&[0u8; 500])?;
                p.insert(&[1u8; 500])
            })
            .unwrap();
        pool.try_with_page_mut(page, |p| p.delete(slot)).unwrap();

        let sample = monitor.sample();
        assert!(sample.get("workload").unwrap().as_int().unwrap() > 0);
        assert_eq!(sample.get("buffer_size").unwrap().as_int().unwrap(), 8);
        assert_eq!(
            sample.get("page_size").unwrap().as_int().unwrap(),
            PAGE_SIZE as i64
        );
        assert!(sample.get("fragmentation").unwrap().as_float().unwrap() > 0.0);

        // Mirrored into architecture properties for policy gating.
        assert_eq!(props.get_int("storage.main.buffer_size"), Some(8));
        assert!(props.get("storage.main.fragmentation").is_some());
        assert_eq!(
            props.get_int("storage.main.page_size"),
            Some(PAGE_SIZE as i64)
        );
    }

    #[test]
    fn sample_reports_heap_free_space_from_the_map() {
        let dir = std::env::temp_dir()
            .join("sbdms-monitor-tests")
            .join(format!("heaps-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::open(&dir).unwrap();
        let s = db.session();
        s.execute("CREATE TABLE t (k INT NOT NULL, pad TEXT NOT NULL)").unwrap();
        let rows: Vec<String> = (0..400).map(|k| format!("({k}, '{}')", "p".repeat(40))).collect();
        s.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();
        s.execute("DELETE FROM t WHERE k < 100").unwrap();

        let props = PropertyStore::new();
        let pool = db.storage().buffer.clone();
        let monitor = StorageMonitorService::new("mon", pool, props.clone(), "main")
            .with_database(db.clone());
        let stats = |pool: &BufferPool| {
            let s = pool.stats();
            s.hits + s.misses
        };
        let before = stats(&db.storage().buffer);
        let sample = monitor.sample();
        assert_eq!(stats(&db.storage().buffer), before, "sampling fetched no page");

        let heaps = sample.get("heaps").unwrap().as_list().unwrap();
        assert_eq!(heaps.len(), 1);
        assert_eq!(heaps[0].get("table").unwrap().as_str().unwrap(), "t");
        // The same quantities by a walk of the heap's pages.
        let t = db.table("t").unwrap();
        let pages = t.heap().data_pages().unwrap();
        let free: usize = pages
            .iter()
            .map(|&page| db.storage().buffer.with_page(page, |p| p.insert_room()).unwrap())
            .sum();
        let data_pages = heaps[0].get("data_pages").unwrap().as_int().unwrap();
        let free_bytes = heaps[0].get("free_bytes").unwrap().as_int().unwrap();
        assert_eq!(data_pages, pages.len() as i64);
        assert!(data_pages > 1);
        assert_eq!(free_bytes, free as i64, "the deletes' freed room is in the map");
        assert_eq!(props.get_int("storage.main.heap.t.free_bytes"), Some(free_bytes));
        assert_eq!(props.get_int("storage.main.heap.t.data_pages"), Some(data_pages));
    }

    #[test]
    fn governor_monitor_samples_counters_and_mirrors_properties() {
        use sbdms_kernel::governor::{Governor, GovernorConfig};

        let governor = Governor::new(GovernorConfig {
            enabled: true,
            max_concurrent: 2,
            queue_depth: 0,
            queue_wait_ms: 1,
            ..GovernorConfig::default()
        });
        let bus = sbdms_kernel::bus::ServiceBus::new();
        let monitor = GovernorMonitorService::new(
            "gov-mon",
            governor.clone(),
            bus.properties().clone(),
            "main",
        );
        let id = bus.deploy(monitor.into_ref()).unwrap();

        // Drive some admissions: two held tickets fill both slots, the
        // third sheds.
        let a = governor.admit(false).unwrap();
        let b = governor.admit(false).unwrap();
        assert!(governor.admit(false).is_err());
        drop(a);
        drop(b);

        let sample = bus.invoke(id, "sample", Value::map()).unwrap();
        assert_eq!(sample.get("admitted").unwrap().as_int().unwrap(), 2);
        assert_eq!(sample.get("shed").unwrap().as_int().unwrap(), 1);
        assert_eq!(sample.get("in_flight").unwrap().as_int().unwrap(), 0);
        assert!(sample.get("mem_capacity").unwrap().as_int().unwrap() > 0);

        // Mirrored into architecture properties for policy gating.
        let props = bus.properties();
        assert_eq!(props.get_int("governor.main.admitted"), Some(2));
        assert_eq!(props.get_int("governor.main.shed"), Some(1));
        assert!(bus.invoke(id, "explode", Value::map()).is_err());
    }

    #[test]
    fn deployable_on_bus_like_any_extension() {
        let bus = sbdms_kernel::bus::ServiceBus::new();
        let monitor = StorageMonitorService::new(
            "mon",
            pool("bus"),
            bus.properties().clone(),
            "embedded",
        );
        let id = bus.deploy(monitor.into_ref()).unwrap();
        let sample = bus.invoke(id, "sample", Value::map()).unwrap();
        assert!(sample.get("page_size").is_some());
        assert!(bus.invoke(id, "explode", Value::map()).is_err());
        // Discoverable by capability, like the paper's developer would.
        assert_eq!(
            bus.registry().find_by_capability("task:monitoring").len(),
            1
        );
    }
}
