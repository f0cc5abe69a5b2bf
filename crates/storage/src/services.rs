//! Storage-layer service facades: the paper's Fig. 2 "Storage Services"
//! published on the kernel bus.
//!
//! Each facade wraps an engine object (`DiskManager`, `BufferPool`, `Wal`)
//! behind the kernel `Service` trait with a full contract. The same engine
//! objects are also usable directly — that is exactly what the monolithic
//! baseline in the `sbdms` crate does, so E1/E3 compare identical engine
//! code with and without the service boundary.

use std::sync::Arc;

use sbdms_kernel::contract::{Contract, Quality};
use sbdms_kernel::error::{Result, ServiceError};
use sbdms_kernel::interface::{Interface, Operation, Param};
use sbdms_kernel::service::{unknown_op, Descriptor, Service, ServiceRef};
use sbdms_kernel::value::{TypeTag, Value};

use crate::buffer::BufferPool;
use crate::disk::DiskManager;
use crate::page::PageId;
use crate::wal::Wal;

/// Interface name of the disk service.
pub const DISK_INTERFACE: &str = "sbdms.storage.Disk";
/// Interface name of the buffer service.
pub const BUFFER_INTERFACE: &str = "sbdms.storage.Buffer";
/// Interface name of the log service.
pub const LOG_INTERFACE: &str = "sbdms.storage.Log";

/// The canonical disk interface (paper §3.1: services "for updating and
/// finding data" at byte level).
pub fn disk_interface() -> Interface {
    Interface::new(
        DISK_INTERFACE,
        1,
        vec![
            Operation::new("allocate_page", vec![], TypeTag::Int),
            Operation::new(
                "free_page",
                vec![Param::required("page_id", TypeTag::Int)],
                TypeTag::Null,
            ),
            Operation::new(
                "read_page",
                vec![Param::required("page_id", TypeTag::Int)],
                TypeTag::Bytes,
            ),
            Operation::new(
                "write_page",
                vec![
                    Param::required("page_id", TypeTag::Int),
                    Param::required("data", TypeTag::Bytes),
                ],
                TypeTag::Null,
            ),
            Operation::new("sync", vec![], TypeTag::Null),
            Operation::new("page_count", vec![], TypeTag::Int),
        ],
    )
}

/// The canonical buffer interface: record-level operations over cached
/// pages plus the §4 monitoring statistics.
pub fn buffer_interface() -> Interface {
    Interface::new(
        BUFFER_INTERFACE,
        1,
        vec![
            Operation::new("new_page", vec![], TypeTag::Int),
            Operation::new(
                "free_page",
                vec![Param::required("page_id", TypeTag::Int)],
                TypeTag::Null,
            ),
            Operation::new(
                "insert",
                vec![
                    Param::required("page_id", TypeTag::Int),
                    Param::required("record", TypeTag::Bytes),
                ],
                TypeTag::Int,
            ),
            Operation::new(
                "get",
                vec![
                    Param::required("page_id", TypeTag::Int),
                    Param::required("slot", TypeTag::Int),
                ],
                TypeTag::Bytes,
            ),
            Operation::new(
                "update",
                vec![
                    Param::required("page_id", TypeTag::Int),
                    Param::required("slot", TypeTag::Int),
                    Param::required("record", TypeTag::Bytes),
                ],
                TypeTag::Null,
            ),
            Operation::new(
                "delete",
                vec![
                    Param::required("page_id", TypeTag::Int),
                    Param::required("slot", TypeTag::Int),
                ],
                TypeTag::Null,
            ),
            Operation::new(
                "flush_page",
                vec![Param::required("page_id", TypeTag::Int)],
                TypeTag::Null,
            ),
            Operation::new("flush_all", vec![], TypeTag::Null),
            Operation::new("stats", vec![], TypeTag::Map),
            Operation::new(
                "resize",
                vec![Param::required("capacity", TypeTag::Int)],
                TypeTag::Null,
            ),
        ],
    )
}

/// The canonical log interface.
pub fn log_interface() -> Interface {
    Interface::new(
        LOG_INTERFACE,
        1,
        vec![
            Operation::new(
                "append",
                vec![
                    Param::required("kind", TypeTag::Int),
                    Param::required("payload", TypeTag::Bytes),
                ],
                TypeTag::Int,
            ),
            Operation::new("sync", vec![], TypeTag::Null),
            Operation::new("record_count", vec![], TypeTag::Int),
            Operation::new("reset", vec![], TypeTag::Null),
        ],
    )
}

/// Disk manager published as a service.
pub struct DiskService {
    descriptor: Descriptor,
    disk: Arc<DiskManager>,
}

impl DiskService {
    /// Wrap a disk manager.
    pub fn new(name: &str, disk: Arc<DiskManager>) -> DiskService {
        let contract = Contract::for_interface(disk_interface())
            .describe("byte-level page storage on a non-volatile device", "storage")
            .capability("task:page-io")
            .quality(Quality {
                expected_latency_ns: 20_000,
                footprint_bytes: 64 * 1024,
                ..Quality::default()
            });
        DiskService {
            descriptor: Descriptor::new(name, contract),
            disk,
        }
    }

    /// Wrap into a shared handle.
    pub fn into_ref(self) -> ServiceRef {
        Arc::new(self)
    }
}

impl Service for DiskService {
    fn descriptor(&self) -> &Descriptor {
        &self.descriptor
    }

    fn invoke(&self, op: &str, input: Value) -> Result<Value> {
        match op {
            "allocate_page" => Ok(Value::Int(self.disk.allocate_page()? as i64)),
            "free_page" => {
                self.disk.free_page(input.require("page_id")?.as_u64()?)?;
                Ok(Value::Null)
            }
            "read_page" => {
                let id = input.require("page_id")?.as_u64()?;
                Ok(Value::Bytes(self.disk.read_page(id)?))
            }
            "write_page" => {
                let id = input.require("page_id")?.as_u64()?;
                let data = input.require("data")?.as_bytes()?;
                self.disk.write_page(id, data)?;
                Ok(Value::Null)
            }
            "sync" => {
                self.disk.sync()?;
                Ok(Value::Null)
            }
            "page_count" => Ok(Value::Int(self.disk.page_count() as i64)),
            other => Err(unknown_op(&self.descriptor, other)),
        }
    }
}

/// Buffer pool published as a service (the paper's "Buffer Manager").
pub struct BufferService {
    descriptor: Descriptor,
    pool: Arc<BufferPool>,
}

impl BufferService {
    /// Wrap a buffer pool.
    pub fn new(name: &str, pool: Arc<BufferPool>) -> BufferService {
        let contract = Contract::for_interface(buffer_interface())
            .describe("cached page frames with record-level access", "storage")
            .capability("task:record-io")
            .depends_on(DISK_INTERFACE)
            .quality(Quality {
                expected_latency_ns: 2_000,
                footprint_bytes: (pool.stats().capacity * crate::page::PAGE_SIZE) as u64,
                ..Quality::default()
            });
        BufferService {
            descriptor: Descriptor::new(name, contract),
            pool,
        }
    }

    /// Wrap into a shared handle.
    pub fn into_ref(self) -> ServiceRef {
        Arc::new(self)
    }

    /// The wrapped pool (for co-located components).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }
}

impl Service for BufferService {
    fn descriptor(&self) -> &Descriptor {
        &self.descriptor
    }

    fn invoke(&self, op: &str, input: Value) -> Result<Value> {
        let page_arg = || -> Result<PageId> { input.require("page_id")?.as_u64() };
        match op {
            "new_page" => Ok(Value::Int(self.pool.new_page()? as i64)),
            "free_page" => {
                self.pool.free_page(page_arg()?)?;
                Ok(Value::Null)
            }
            "insert" => {
                let record = input.require("record")?.as_bytes()?.to_vec();
                let slot = self
                    .pool
                    .try_with_page_mut(page_arg()?, |p| p.insert(&record))?;
                Ok(Value::Int(slot as i64))
            }
            "get" => {
                let slot = input.require("slot")?.as_u64()? as u16;
                let data = self
                    .pool
                    .with_page(page_arg()?, |p| p.get(slot).map(|r| r.to_vec()))??;
                Ok(Value::Bytes(data))
            }
            "update" => {
                let slot = input.require("slot")?.as_u64()? as u16;
                let record = input.require("record")?.as_bytes()?.to_vec();
                self.pool
                    .try_with_page_mut(page_arg()?, |p| p.update(slot, &record))?;
                Ok(Value::Null)
            }
            "delete" => {
                let slot = input.require("slot")?.as_u64()? as u16;
                self.pool.try_with_page_mut(page_arg()?, |p| p.delete(slot))?;
                Ok(Value::Null)
            }
            "flush_page" => {
                self.pool.flush_page(page_arg()?)?;
                Ok(Value::Null)
            }
            "flush_all" => {
                self.pool.flush_all()?;
                Ok(Value::Null)
            }
            "stats" => {
                let s = self.pool.stats();
                Ok(Value::map()
                    .with("capacity", s.capacity)
                    .with("resident", s.resident)
                    .with("dirty", s.dirty)
                    .with("pinned", s.pinned)
                    .with("hits", s.hits)
                    .with("misses", s.misses)
                    .with("evictions", s.evictions)
                    .with("shards", s.shards)
                    .with("hit_ratio", s.hit_ratio())
                    .with("mean_fragmentation", s.mean_fragmentation))
            }
            "resize" => {
                let capacity = input.require("capacity")?.as_u64()? as usize;
                if capacity == 0 {
                    return Err(ServiceError::InvalidInput("capacity must be > 0".into()));
                }
                self.pool.resize(capacity)?;
                Ok(Value::Null)
            }
            other => Err(unknown_op(&self.descriptor, other)),
        }
    }

    fn stop(&self) -> Result<()> {
        self.pool.flush_all()
    }
}

/// WAL published as a service.
pub struct LogService {
    descriptor: Descriptor,
    wal: Arc<Wal>,
}

impl LogService {
    /// Wrap a WAL.
    pub fn new(name: &str, wal: Arc<Wal>) -> LogService {
        let contract = Contract::for_interface(log_interface())
            .describe("append-only checksummed write-ahead log", "storage")
            .capability("task:logging")
            .quality(Quality {
                expected_latency_ns: 5_000,
                footprint_bytes: 16 * 1024,
                ..Quality::default()
            });
        LogService {
            descriptor: Descriptor::new(name, contract),
            wal,
        }
    }

    /// Wrap into a shared handle.
    pub fn into_ref(self) -> ServiceRef {
        Arc::new(self)
    }
}

impl Service for LogService {
    fn descriptor(&self) -> &Descriptor {
        &self.descriptor
    }

    fn invoke(&self, op: &str, input: Value) -> Result<Value> {
        match op {
            "append" => {
                let kind = input.require("kind")?.as_u64()? as u8;
                let payload = input.require("payload")?.as_bytes()?;
                Ok(Value::Int(self.wal.append(kind, payload)? as i64))
            }
            "sync" => {
                self.wal.sync()?;
                Ok(Value::Null)
            }
            "record_count" => Ok(Value::Int(self.wal.records()?.len() as i64)),
            "reset" => {
                self.wal.reset()?;
                Ok(Value::Null)
            }
            other => Err(unknown_op(&self.descriptor, other)),
        }
    }

    fn stop(&self) -> Result<()> {
        self.wal.sync()
    }
}

/// A bundled storage engine: the raw objects behind the service facades,
/// shared so co-located layers can bypass or publish them as they choose.
pub struct StorageEngine {
    /// The disk manager.
    pub disk: Arc<DiskManager>,
    /// The buffer pool over `disk`.
    pub buffer: Arc<BufferPool>,
    /// The write-ahead log.
    pub wal: Arc<Wal>,
}

impl StorageEngine {
    /// Open a storage engine in `dir` with the given buffer capacity.
    pub fn open(dir: impl AsRef<std::path::Path>, buffer_frames: usize) -> Result<StorageEngine> {
        StorageEngine::open_inner(dir.as_ref(), buffer_frames, None)
    }

    /// Like [`open`](StorageEngine::open) but with an explicit buffer
    /// pool shard count (lock stripes for concurrent access).
    pub fn open_sharded(
        dir: impl AsRef<std::path::Path>,
        buffer_frames: usize,
        shards: usize,
    ) -> Result<StorageEngine> {
        StorageEngine::open_inner(dir.as_ref(), buffer_frames, Some(shards))
    }

    fn open_inner(
        dir: &std::path::Path,
        buffer_frames: usize,
        shards: Option<usize>,
    ) -> Result<StorageEngine> {
        std::fs::create_dir_all(dir)?;
        let disk = Arc::new(DiskManager::open(dir.join("data.db"))?);
        let buffer = Arc::new(match shards {
            Some(n) => BufferPool::new_sharded(disk.clone(), buffer_frames, n),
            None => BufferPool::new(disk.clone(), buffer_frames),
        });
        let wal = Arc::new(Wal::open(dir.join("wal.log"))?);
        Ok(StorageEngine { disk, buffer, wal })
    }

    /// Open a storage engine over an arbitrary [`StorageBackend`] — the
    /// deterministic sim device for the torture suite, or a
    /// [`FileBackend`](crate::backend::FileBackend) for real directories.
    /// File names (`data.db`, `wal.log`) match the path-based open so
    /// either construction reads the other's state.
    pub fn open_with_backend(
        backend: &dyn crate::backend::StorageBackend,
        buffer_frames: usize,
        shards: Option<usize>,
    ) -> Result<StorageEngine> {
        let disk = Arc::new(DiskManager::open_backend(backend.open("data.db")?)?);
        let buffer = Arc::new(match shards {
            Some(n) => BufferPool::new_sharded(disk.clone(), buffer_frames, n),
            None => BufferPool::new(disk.clone(), buffer_frames),
        });
        let wal = Arc::new(Wal::open_backend(backend.open("wal.log")?)?);
        Ok(StorageEngine { disk, buffer, wal })
    }

    /// Publish the engine as three storage-layer services, named with the
    /// given prefix: `<prefix>-disk`, `<prefix>-buffer`, `<prefix>-log`.
    pub fn services(&self, prefix: &str) -> Vec<ServiceRef> {
        vec![
            DiskService::new(&format!("{prefix}-disk"), self.disk.clone()).into_ref(),
            BufferService::new(&format!("{prefix}-buffer"), self.buffer.clone()).into_ref(),
            LogService::new(&format!("{prefix}-log"), self.wal.clone()).into_ref(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbdms_kernel::bus::ServiceBus;

    fn engine(name: &str) -> StorageEngine {
        let dir = std::env::temp_dir()
            .join("sbdms-services-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        StorageEngine::open(&dir, 16).unwrap()
    }

    #[test]
    fn disk_service_roundtrip_over_bus() {
        let bus = ServiceBus::new();
        let eng = engine("disk-svc");
        let id = bus
            .deploy(DiskService::new("disk", eng.disk.clone()).into_ref())
            .unwrap();
        let page = bus.invoke(id, "allocate_page", Value::map()).unwrap().as_int().unwrap();
        let mut image = crate::page::Page::new();
        image.insert(b"via-bus").unwrap();
        bus.invoke(
            id,
            "write_page",
            Value::map()
                .with("page_id", page)
                .with("data", image.as_bytes().to_vec()),
        )
        .unwrap();
        let back = bus
            .invoke(id, "read_page", Value::map().with("page_id", page))
            .unwrap();
        let restored = crate::page::Page::from_bytes(back.as_bytes().unwrap()).unwrap();
        assert_eq!(restored.get(0).unwrap(), b"via-bus");
    }

    #[test]
    fn buffer_service_record_lifecycle() {
        let bus = ServiceBus::new();
        let eng = engine("buf-svc");
        let id = bus
            .deploy(BufferService::new("buffer", eng.buffer.clone()).into_ref())
            .unwrap();

        let page = bus.invoke(id, "new_page", Value::map()).unwrap().as_int().unwrap();
        let slot = bus
            .invoke(
                id,
                "insert",
                Value::map().with("page_id", page).with("record", b"rec".to_vec()),
            )
            .unwrap()
            .as_int()
            .unwrap();
        let data = bus
            .invoke(id, "get", Value::map().with("page_id", page).with("slot", slot))
            .unwrap();
        assert_eq!(data.as_bytes().unwrap(), b"rec");

        bus.invoke(
            id,
            "update",
            Value::map()
                .with("page_id", page)
                .with("slot", slot)
                .with("record", b"rec2".to_vec()),
        )
        .unwrap();
        let data = bus
            .invoke(id, "get", Value::map().with("page_id", page).with("slot", slot))
            .unwrap();
        assert_eq!(data.as_bytes().unwrap(), b"rec2");

        bus.invoke(id, "delete", Value::map().with("page_id", page).with("slot", slot))
            .unwrap();
        assert!(bus
            .invoke(id, "get", Value::map().with("page_id", page).with("slot", slot))
            .is_err());

        let stats = bus.invoke(id, "stats", Value::map()).unwrap();
        assert!(stats.get("capacity").unwrap().as_int().unwrap() == 16);
        assert!(stats.get("hits").unwrap().as_int().unwrap() > 0);
    }

    #[test]
    fn buffer_service_resize_validates() {
        let bus = ServiceBus::new();
        let eng = engine("buf-resize");
        let id = bus
            .deploy(BufferService::new("buffer", eng.buffer.clone()).into_ref())
            .unwrap();
        bus.invoke(id, "resize", Value::map().with("capacity", 4i64)).unwrap();
        let stats = bus.invoke(id, "stats", Value::map()).unwrap();
        assert_eq!(stats.get("capacity").unwrap().as_int().unwrap(), 4);
        assert!(bus
            .invoke(id, "resize", Value::map().with("capacity", 0i64))
            .is_err());
    }

    #[test]
    fn log_service_append_and_count() {
        let bus = ServiceBus::new();
        let eng = engine("log-svc");
        let id = bus
            .deploy(LogService::new("log", eng.wal.clone()).into_ref())
            .unwrap();
        for i in 0..3u8 {
            bus.invoke(
                id,
                "append",
                Value::map().with("kind", i as i64).with("payload", vec![i]),
            )
            .unwrap();
        }
        let count = bus.invoke(id, "record_count", Value::map()).unwrap();
        assert_eq!(count.as_int().unwrap(), 3);
        bus.invoke(id, "reset", Value::map()).unwrap();
        let count = bus.invoke(id, "record_count", Value::map()).unwrap();
        assert_eq!(count.as_int().unwrap(), 0);
    }

    #[test]
    fn engine_publishes_three_services() {
        let bus = ServiceBus::new();
        let eng = engine("publish");
        for svc in eng.services("storage") {
            bus.deploy(svc).unwrap();
        }
        assert_eq!(bus.registry().find_by_layer("storage").len(), 3);
        assert!(bus.registry().find_by_interface(DISK_INTERFACE).len() == 1);
        assert!(bus.registry().find_by_interface(BUFFER_INTERFACE).len() == 1);
        assert!(bus.registry().find_by_interface(LOG_INTERFACE).len() == 1);
    }

    #[test]
    fn contract_rejects_bad_requests_at_bus() {
        let bus = ServiceBus::new();
        let eng = engine("contract");
        let id = bus
            .deploy(BufferService::new("buffer", eng.buffer.clone()).into_ref())
            .unwrap();
        // Unknown op rejected by the interface check.
        assert!(bus.invoke(id, "explode", Value::map()).is_err());
        // Missing field rejected by the service.
        assert!(bus.invoke(id, "get", Value::map()).is_err());
    }
}
