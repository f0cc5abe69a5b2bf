//! Access-layer service facades: heap files and B+tree indexes published
//! on the kernel bus (paper Fig. 2, "Access Services").

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use sbdms_kernel::contract::{Contract, Quality};
use sbdms_kernel::error::Result;
use sbdms_kernel::interface::{Interface, Operation, Param};
use sbdms_kernel::service::{unknown_op, Descriptor, Service, ServiceRef};
use sbdms_kernel::value::{TypeTag, Value};
use sbdms_storage::buffer::BufferPool;
use sbdms_storage::page::PageId;

use crate::btree::BTree;
use crate::heap::{HeapFile, Rid};
use crate::record::Datum;

/// Interface name of the heap service.
pub const HEAP_INTERFACE: &str = "sbdms.access.Heap";
/// Interface name of the index service.
pub const INDEX_INTERFACE: &str = "sbdms.access.Index";

/// The canonical heap interface.
pub fn heap_interface() -> Interface {
    Interface::new(
        HEAP_INTERFACE,
        1,
        vec![
            Operation::new("create_heap", vec![], TypeTag::Int),
            Operation::new(
                "insert",
                vec![
                    Param::required("heap", TypeTag::Int),
                    Param::required("record", TypeTag::Bytes),
                ],
                TypeTag::Map,
            ),
            Operation::new(
                "get",
                vec![
                    Param::required("page", TypeTag::Int),
                    Param::required("slot", TypeTag::Int),
                ],
                TypeTag::Bytes,
            ),
            Operation::new(
                "update",
                vec![
                    Param::required("heap", TypeTag::Int),
                    Param::required("page", TypeTag::Int),
                    Param::required("slot", TypeTag::Int),
                    Param::required("record", TypeTag::Bytes),
                ],
                TypeTag::Null,
            ),
            Operation::new(
                "delete",
                vec![
                    Param::required("heap", TypeTag::Int),
                    Param::required("page", TypeTag::Int),
                    Param::required("slot", TypeTag::Int),
                ],
                TypeTag::Null,
            ),
            Operation::new(
                "scan",
                vec![Param::required("heap", TypeTag::Int)],
                TypeTag::List,
            ),
            Operation::new(
                "count",
                vec![Param::required("heap", TypeTag::Int)],
                TypeTag::Int,
            ),
            Operation::new(
                "destroy",
                vec![Param::required("heap", TypeTag::Int)],
                TypeTag::Null,
            ),
        ],
    )
}

/// The canonical index interface.
pub fn index_interface() -> Interface {
    Interface::new(
        INDEX_INTERFACE,
        1,
        vec![
            Operation::new("create_index", vec![], TypeTag::Int),
            Operation::new(
                "insert",
                vec![
                    Param::required("index", TypeTag::Int),
                    Param::required("key", TypeTag::Any),
                    Param::required("page", TypeTag::Int),
                    Param::required("slot", TypeTag::Int),
                ],
                TypeTag::Null,
            ),
            Operation::new(
                "search",
                vec![
                    Param::required("index", TypeTag::Int),
                    Param::required("key", TypeTag::Any),
                ],
                TypeTag::List,
            ),
            Operation::new(
                "range",
                vec![
                    Param::required("index", TypeTag::Int),
                    Param::optional("lo", TypeTag::Any),
                    Param::optional("hi", TypeTag::Any),
                    Param::optional("hi_inclusive", TypeTag::Bool),
                ],
                TypeTag::List,
            ),
            Operation::new(
                "delete",
                vec![
                    Param::required("index", TypeTag::Int),
                    Param::required("key", TypeTag::Any),
                    Param::required("page", TypeTag::Int),
                    Param::required("slot", TypeTag::Int),
                ],
                TypeTag::Bool,
            ),
            Operation::new(
                "count",
                vec![Param::required("index", TypeTag::Int)],
                TypeTag::Int,
            ),
        ],
    )
}

fn rid_value(rid: Rid) -> Value {
    Value::map().with("page", rid.page).with("slot", rid.slot as i64)
}

fn rid_from(input: &Value) -> Result<Rid> {
    Ok(Rid::new(
        input.require("page")?.as_u64()?,
        input.require("slot")?.as_u64()? as u16,
    ))
}

/// Heap files published as a service. Heaps are addressed by their root
/// directory page id, so handles survive restarts.
pub struct HeapService {
    descriptor: Descriptor,
    buffer: Arc<BufferPool>,
    open_heaps: Mutex<HashMap<PageId, Arc<HeapFile>>>,
}

impl HeapService {
    /// Wrap a buffer pool.
    pub fn new(name: &str, buffer: Arc<BufferPool>) -> HeapService {
        let contract = Contract::for_interface(heap_interface())
            .describe("unordered record files over the buffer pool", "access")
            .capability("task:heap")
            .depends_on(sbdms_storage::services::BUFFER_INTERFACE)
            .quality(Quality {
                expected_latency_ns: 3_000,
                footprint_bytes: 32 * 1024,
                ..Quality::default()
            });
        HeapService {
            descriptor: Descriptor::new(name, contract),
            buffer,
            open_heaps: Mutex::new(HashMap::new()),
        }
    }

    /// Wrap into a shared handle.
    pub fn into_ref(self) -> ServiceRef {
        Arc::new(self)
    }

    fn heap(&self, dir_page: PageId) -> Arc<HeapFile> {
        self.open_heaps
            .lock()
            .entry(dir_page)
            .or_insert_with(|| Arc::new(HeapFile::open(self.buffer.clone(), dir_page)))
            .clone()
    }
}

impl Service for HeapService {
    fn descriptor(&self) -> &Descriptor {
        &self.descriptor
    }

    fn invoke(&self, op: &str, input: Value) -> Result<Value> {
        match op {
            "create_heap" => {
                let heap = HeapFile::create(self.buffer.clone())?;
                let id = heap.dir_page();
                self.open_heaps.lock().insert(id, Arc::new(heap));
                Ok(Value::Int(id as i64))
            }
            "insert" => {
                let heap = self.heap(input.require("heap")?.as_u64()?);
                let record = input.require("record")?.as_bytes()?;
                Ok(rid_value(heap.insert(record)?))
            }
            "get" => {
                let rid = rid_from(&input)?;
                Ok(Value::Bytes(HeapFile::read_record(&self.buffer, rid)?))
            }
            "update" => {
                let heap = self.heap(input.require("heap")?.as_u64()?);
                let record = input.require("record")?.as_bytes()?;
                heap.update(rid_from(&input)?, record)?;
                Ok(Value::Null)
            }
            "delete" => {
                let heap = self.heap(input.require("heap")?.as_u64()?);
                heap.delete(rid_from(&input)?)?;
                Ok(Value::Null)
            }
            "scan" => {
                let heap = self.heap(input.require("heap")?.as_u64()?);
                let rows = heap.scan()?;
                Ok(Value::List(
                    rows.into_iter()
                        .map(|(rid, record)| {
                            rid_value(rid).with("record", Value::Bytes(record))
                        })
                        .collect(),
                ))
            }
            "count" => {
                let heap = self.heap(input.require("heap")?.as_u64()?);
                Ok(Value::Int(heap.len()? as i64))
            }
            "destroy" => {
                let id = input.require("heap")?.as_u64()?;
                self.open_heaps.lock().remove(&id);
                HeapFile::open(self.buffer.clone(), id).destroy()?;
                Ok(Value::Null)
            }
            other => Err(unknown_op(&self.descriptor, other)),
        }
    }
}

/// B+tree indexes published as a service, addressed by meta page id.
pub struct IndexService {
    descriptor: Descriptor,
    buffer: Arc<BufferPool>,
    open_indexes: Mutex<HashMap<PageId, Arc<BTree>>>,
}

impl IndexService {
    /// Wrap a buffer pool.
    pub fn new(name: &str, buffer: Arc<BufferPool>) -> IndexService {
        let contract = Contract::for_interface(index_interface())
            .describe("B+tree access paths over the buffer pool", "access")
            .capability("task:index")
            .depends_on(sbdms_storage::services::BUFFER_INTERFACE)
            .quality(Quality {
                expected_latency_ns: 4_000,
                footprint_bytes: 32 * 1024,
                ..Quality::default()
            });
        IndexService {
            descriptor: Descriptor::new(name, contract),
            buffer,
            open_indexes: Mutex::new(HashMap::new()),
        }
    }

    /// Wrap into a shared handle.
    pub fn into_ref(self) -> ServiceRef {
        Arc::new(self)
    }

    fn index(&self, meta: PageId) -> Result<Arc<BTree>> {
        if let Some(t) = self.open_indexes.lock().get(&meta) {
            return Ok(t.clone());
        }
        let tree = Arc::new(BTree::open(self.buffer.clone(), meta)?);
        self.open_indexes.lock().insert(meta, tree.clone());
        Ok(tree)
    }

    fn key_from(input: &Value, field: &str) -> Result<Datum> {
        Datum::from_value(input.require(field)?)
    }
}

impl Service for IndexService {
    fn descriptor(&self) -> &Descriptor {
        &self.descriptor
    }

    fn invoke(&self, op: &str, input: Value) -> Result<Value> {
        match op {
            "create_index" => {
                let tree = BTree::create(self.buffer.clone())?;
                let meta = tree.meta_page();
                self.open_indexes.lock().insert(meta, Arc::new(tree));
                Ok(Value::Int(meta as i64))
            }
            "insert" => {
                let tree = self.index(input.require("index")?.as_u64()?)?;
                let key = Self::key_from(&input, "key")?;
                tree.insert(std::slice::from_ref(&key), rid_from(&input)?)?;
                Ok(Value::Null)
            }
            "search" => {
                let tree = self.index(input.require("index")?.as_u64()?)?;
                let key = Self::key_from(&input, "key")?;
                Ok(Value::List(
                    tree.search(std::slice::from_ref(&key))?
                        .into_iter()
                        .map(rid_value)
                        .collect(),
                ))
            }
            "range" => {
                let tree = self.index(input.require("index")?.as_u64()?)?;
                let lo = match input.get("lo") {
                    Some(v) if !matches!(v, Value::Null) => Some(Datum::from_value(v)?),
                    _ => None,
                };
                let hi = match input.get("hi") {
                    Some(v) if !matches!(v, Value::Null) => Some(Datum::from_value(v)?),
                    _ => None,
                };
                let hi_inclusive = input
                    .get("hi_inclusive")
                    .map(|v| v.as_bool())
                    .transpose()?
                    .unwrap_or(true);
                let rows = tree.range(
                    lo.as_ref().map(std::slice::from_ref),
                    hi.as_ref().map(std::slice::from_ref),
                    true,
                    hi_inclusive,
                )?;
                // Service-level indexes are single-column; surface the
                // key's one component as the payload value.
                Ok(Value::List(
                    rows.into_iter()
                        .map(|(key, rid)| rid_value(rid).with("key", key[0].to_value()))
                        .collect(),
                ))
            }
            "delete" => {
                let tree = self.index(input.require("index")?.as_u64()?)?;
                let key = Self::key_from(&input, "key")?;
                Ok(Value::Bool(
                    tree.delete(std::slice::from_ref(&key), rid_from(&input)?)?,
                ))
            }
            "count" => {
                let tree = self.index(input.require("index")?.as_u64()?)?;
                Ok(Value::Int(tree.len()? as i64))
            }
            other => Err(unknown_op(&self.descriptor, other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbdms_kernel::bus::ServiceBus;
    use sbdms_storage::services::StorageEngine;

    fn setup(name: &str) -> (ServiceBus, sbdms_kernel::service::ServiceId, sbdms_kernel::service::ServiceId) {
        let dir = std::env::temp_dir()
            .join("sbdms-access-svc-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = StorageEngine::open(&dir, 64).unwrap();
        let bus = ServiceBus::new();
        let heap_id = bus
            .deploy(HeapService::new("heap", engine.buffer.clone()).into_ref())
            .unwrap();
        let index_id = bus
            .deploy(IndexService::new("index", engine.buffer.clone()).into_ref())
            .unwrap();
        (bus, heap_id, index_id)
    }

    #[test]
    fn heap_service_crud_over_bus() {
        let (bus, heap_id, _) = setup("heap-crud");
        let heap = bus
            .invoke(heap_id, "create_heap", Value::map())
            .unwrap()
            .as_int()
            .unwrap();
        let rid = bus
            .invoke(
                heap_id,
                "insert",
                Value::map().with("heap", heap).with("record", b"row-1".to_vec()),
            )
            .unwrap();
        let page = rid.get("page").unwrap().as_int().unwrap();
        let slot = rid.get("slot").unwrap().as_int().unwrap();

        let data = bus
            .invoke(heap_id, "get", Value::map().with("page", page).with("slot", slot))
            .unwrap();
        assert_eq!(data.as_bytes().unwrap(), b"row-1");

        bus.invoke(
            heap_id,
            "update",
            Value::map()
                .with("heap", heap)
                .with("page", page)
                .with("slot", slot)
                .with("record", b"row-2".to_vec()),
        )
        .unwrap();
        let count = bus
            .invoke(heap_id, "count", Value::map().with("heap", heap))
            .unwrap();
        assert_eq!(count.as_int().unwrap(), 1);

        let scan = bus
            .invoke(heap_id, "scan", Value::map().with("heap", heap))
            .unwrap();
        assert_eq!(scan.as_list().unwrap().len(), 1);

        bus.invoke(
            heap_id,
            "delete",
            Value::map().with("heap", heap).with("page", page).with("slot", slot),
        )
        .unwrap();
        let count = bus
            .invoke(heap_id, "count", Value::map().with("heap", heap))
            .unwrap();
        assert_eq!(count.as_int().unwrap(), 0);

        bus.invoke(heap_id, "destroy", Value::map().with("heap", heap)).unwrap();
    }

    #[test]
    fn index_service_over_bus() {
        let (bus, _, index_id) = setup("index");
        let index = bus
            .invoke(index_id, "create_index", Value::map())
            .unwrap()
            .as_int()
            .unwrap();
        for i in 0..100i64 {
            bus.invoke(
                index_id,
                "insert",
                Value::map()
                    .with("index", index)
                    .with("key", i % 10)
                    .with("page", i)
                    .with("slot", 0i64),
            )
            .unwrap();
        }
        let found = bus
            .invoke(
                index_id,
                "search",
                Value::map().with("index", index).with("key", 3i64),
            )
            .unwrap();
        assert_eq!(found.as_list().unwrap().len(), 10);

        let range = bus
            .invoke(
                index_id,
                "range",
                Value::map()
                    .with("index", index)
                    .with("lo", 8i64)
                    .with("hi", 9i64)
                    .with("hi_inclusive", true),
            )
            .unwrap();
        assert_eq!(range.as_list().unwrap().len(), 20);

        let deleted = bus
            .invoke(
                index_id,
                "delete",
                Value::map()
                    .with("index", index)
                    .with("key", 3i64)
                    .with("page", 3i64)
                    .with("slot", 0i64),
            )
            .unwrap();
        assert_eq!(deleted, Value::Bool(true));
        let count = bus
            .invoke(index_id, "count", Value::map().with("index", index))
            .unwrap();
        assert_eq!(count.as_int().unwrap(), 99);
    }

    #[test]
    fn index_range_without_bounds() {
        let (bus, _, index_id) = setup("range-open");
        let index = bus
            .invoke(index_id, "create_index", Value::map())
            .unwrap()
            .as_int()
            .unwrap();
        for i in 0..5i64 {
            bus.invoke(
                index_id,
                "insert",
                Value::map()
                    .with("index", index)
                    .with("key", format!("k{i}"))
                    .with("page", i)
                    .with("slot", 0i64),
            )
            .unwrap();
        }
        let all = bus
            .invoke(index_id, "range", Value::map().with("index", index))
            .unwrap();
        assert_eq!(all.as_list().unwrap().len(), 5);
        assert_eq!(
            all.as_list().unwrap()[0].get("key").unwrap().as_str().unwrap(),
            "k0"
        );
    }

    #[test]
    fn services_reject_malformed_requests() {
        let (bus, heap_id, index_id) = setup("malformed");
        assert!(bus.invoke(heap_id, "insert", Value::map()).is_err());
        assert!(bus.invoke(index_id, "search", Value::map()).is_err());
        assert!(bus
            .invoke(
                index_id,
                "insert",
                Value::map()
                    .with("index", 1i64)
                    .with("key", Value::Bytes(vec![1])) // bytes are not a valid key
                    .with("page", 1i64)
                    .with("slot", 0i64),
            )
            .is_err());
    }
}
