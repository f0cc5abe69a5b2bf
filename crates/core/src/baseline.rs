//! Architectural baselines: the paper's Fig. 1 evolution ladder, built
//! over *identical engine code* so measured differences are purely the
//! cost/benefit of each architecture's call path.
//!
//! * **Monolithic** — direct Rust calls into the engine (no indirection).
//! * **Extensible** — a dispatch table of named operations at the "top
//!   level of the architecture" (EXODUS/Postgres-style front-end
//!   extension point).
//! * **Component (CDBS)** — operations behind component interfaces with
//!   self-describing payloads, statically wired (no registry, no
//!   contracts enforced at call time).
//! * **Service-based (SBDMS)** — full bus dispatch: registry resolution,
//!   contract policy checks, binding, metrics.

use std::collections::HashMap;
use std::sync::Arc;

use sbdms_access::btree::BTree;
use sbdms_access::heap::HeapFile;
use sbdms_access::record::{decode_tuple, encode_tuple, Datum};
use sbdms_kernel::bus::ServiceBus;
use sbdms_kernel::contract::Contract;
use sbdms_kernel::error::{Result, ServiceError};
use sbdms_kernel::interface::{Interface, Operation, Param};
use sbdms_kernel::service::{FnService, ServiceId, ServiceRef};
use sbdms_kernel::value::{TypeTag, Value};
use sbdms_storage::services::StorageEngine;

/// The four architectural styles of paper Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchitectureStyle {
    /// Early DBMS: "large and heavy-weight monoliths".
    Monolithic,
    /// "Extensible systems ... extensibility through application front
    /// ends at the top level of the architecture."
    Extensible,
    /// "Component Database Systems ... improved flexibility due to a
    /// higher degree of modularity."
    Component,
    /// The paper's SBDMS.
    ServiceBased,
}

impl ArchitectureStyle {
    /// All styles in evolution order.
    pub fn all() -> [ArchitectureStyle; 4] {
        [
            ArchitectureStyle::Monolithic,
            ArchitectureStyle::Extensible,
            ArchitectureStyle::Component,
            ArchitectureStyle::ServiceBased,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ArchitectureStyle::Monolithic => "monolithic",
            ArchitectureStyle::Extensible => "extensible",
            ArchitectureStyle::Component => "component",
            ArchitectureStyle::ServiceBased => "service-based",
        }
    }
}

/// The shared engine under every style: one heap + one id index.
struct Engine {
    heap: HeapFile,
    index: BTree,
}

impl Engine {
    fn insert(&self, id: i64, payload: &str) -> Result<()> {
        let tuple = vec![Datum::Int(id), Datum::Str(payload.to_string())];
        let rid = self.heap.insert(&encode_tuple(&tuple))?;
        self.index.insert(&[Datum::Int(id)], rid)
    }

    fn point_read(&self, id: i64) -> Result<Option<String>> {
        let rids = self.index.search(&[Datum::Int(id)])?;
        match rids.first() {
            None => Ok(None),
            Some(rid) => {
                let tuple = decode_tuple(&self.heap.get(*rid)?)?;
                match &tuple[1] {
                    Datum::Str(s) => Ok(Some(s.clone())),
                    _ => Err(ServiceError::Storage("bad payload".into())),
                }
            }
        }
    }

    fn scan_count(&self) -> Result<usize> {
        self.heap.len()
    }
}

fn record_interface() -> Interface {
    Interface::new(
        "sbdms.e1.RecordStore",
        1,
        vec![
            Operation::new(
                "insert",
                vec![
                    Param::required("id", TypeTag::Int),
                    Param::required("payload", TypeTag::Str),
                ],
                TypeTag::Null,
            ),
            Operation::new(
                "point_read",
                vec![Param::required("id", TypeTag::Int)],
                TypeTag::Any,
            ),
            Operation::new("scan_count", vec![], TypeTag::Int),
        ],
    )
}

fn engine_service(engine: Arc<Engine>) -> ServiceRef {
    FnService::new(
        "record-store",
        Contract::for_interface(record_interface()).describe("E1 record store", "storage"),
        move |op, input| match op {
            "insert" => {
                engine.insert(
                    input.require("id")?.as_int()?,
                    input.require("payload")?.as_str()?,
                )?;
                Ok(Value::Null)
            }
            "point_read" => {
                let found = engine.point_read(input.require("id")?.as_int()?)?;
                Ok(found.map(Value::Str).unwrap_or(Value::Null))
            }
            "scan_count" => Ok(Value::Int(engine.scan_count()? as i64)),
            other => Err(ServiceError::Internal(format!("bad op {other}"))),
        },
    )
    .into_ref()
}

type ExtensionOp = Box<dyn Fn(&[Datum]) -> Result<Datum> + Send + Sync>;

/// One architectural style over the shared engine, exposing the E1
/// workload operations through that style's call path.
pub struct StyleUnderTest {
    style: ArchitectureStyle,
    engine: Arc<Engine>,
    /// Extensible style: named-op dispatch table.
    dispatch: HashMap<&'static str, ExtensionOp>,
    /// Component style: the service called directly (marshalled payloads,
    /// static wiring).
    component: Option<ServiceRef>,
    /// Service style: bus + deployed id (registry, contracts, metrics).
    bus: Option<(ServiceBus, ServiceId)>,
}

impl StyleUnderTest {
    /// Build a style instance over a fresh engine in `dir`.
    pub fn new(style: ArchitectureStyle, dir: impl AsRef<std::path::Path>) -> Result<StyleUnderTest> {
        let storage = StorageEngine::open(dir, 128)?;
        let heap = HeapFile::create(storage.buffer.clone())?;
        let index = BTree::create(storage.buffer.clone())?;
        let engine = Arc::new(Engine { heap, index });

        let mut under_test = StyleUnderTest {
            style,
            engine: engine.clone(),
            dispatch: HashMap::new(),
            component: None,
            bus: None,
        };
        match style {
            ArchitectureStyle::Monolithic => {}
            ArchitectureStyle::Extensible => {
                let e = engine.clone();
                under_test.dispatch.insert(
                    "insert",
                    Box::new(move |args| {
                        let (Datum::Int(id), Datum::Str(payload)) = (&args[0], &args[1]) else {
                            return Err(ServiceError::InvalidInput("bad args".into()));
                        };
                        e.insert(*id, payload)?;
                        Ok(Datum::Null)
                    }),
                );
                let e = engine.clone();
                under_test.dispatch.insert(
                    "point_read",
                    Box::new(move |args| {
                        let Datum::Int(id) = &args[0] else {
                            return Err(ServiceError::InvalidInput("bad args".into()));
                        };
                        Ok(e.point_read(*id)?.map(Datum::Str).unwrap_or(Datum::Null))
                    }),
                );
                let e = engine;
                under_test.dispatch.insert(
                    "scan_count",
                    Box::new(move |_| Ok(Datum::Int(e.scan_count()? as i64))),
                );
            }
            ArchitectureStyle::Component => {
                under_test.component = Some(engine_service(engine));
            }
            ArchitectureStyle::ServiceBased => {
                let bus = ServiceBus::new();
                let id = bus.deploy(engine_service(engine))?;
                under_test.bus = Some((bus, id));
            }
        }
        Ok(under_test)
    }

    /// The style this instance exercises.
    pub fn style(&self) -> ArchitectureStyle {
        self.style
    }

    /// Workload op: insert a record through the style's call path.
    pub fn insert(&self, id: i64, payload: &str) -> Result<()> {
        match self.style {
            ArchitectureStyle::Monolithic => self.engine.insert(id, payload),
            ArchitectureStyle::Extensible => {
                self.dispatch["insert"](&[Datum::Int(id), Datum::Str(payload.to_string())])
                    .map(|_| ())
            }
            ArchitectureStyle::Component => self.component.as_ref().unwrap().invoke(
                "insert",
                Value::map().with("id", id).with("payload", payload),
            ).map(|_| ()),
            ArchitectureStyle::ServiceBased => {
                let (bus, svc) = self.bus.as_ref().unwrap();
                bus.invoke(
                    *svc,
                    "insert",
                    Value::map().with("id", id).with("payload", payload),
                )
                .map(|_| ())
            }
        }
    }

    /// Workload op: point read by id.
    pub fn point_read(&self, id: i64) -> Result<Option<String>> {
        match self.style {
            ArchitectureStyle::Monolithic => self.engine.point_read(id),
            ArchitectureStyle::Extensible => {
                match self.dispatch["point_read"](&[Datum::Int(id)])? {
                    Datum::Str(s) => Ok(Some(s)),
                    _ => Ok(None),
                }
            }
            ArchitectureStyle::Component => {
                match self
                    .component
                    .as_ref()
                    .unwrap()
                    .invoke("point_read", Value::map().with("id", id))?
                {
                    Value::Str(s) => Ok(Some(s)),
                    _ => Ok(None),
                }
            }
            ArchitectureStyle::ServiceBased => {
                let (bus, svc) = self.bus.as_ref().unwrap();
                match bus.invoke(*svc, "point_read", Value::map().with("id", id))? {
                    Value::Str(s) => Ok(Some(s)),
                    _ => Ok(None),
                }
            }
        }
    }

    /// Workload op: full count.
    pub fn scan_count(&self) -> Result<usize> {
        match self.style {
            ArchitectureStyle::Monolithic => self.engine.scan_count(),
            ArchitectureStyle::Extensible => match self.dispatch["scan_count"](&[])? {
                Datum::Int(n) => Ok(n as usize),
                _ => Err(ServiceError::Internal("bad count".into())),
            },
            ArchitectureStyle::Component => {
                let v = self
                    .component
                    .as_ref()
                    .unwrap()
                    .invoke("scan_count", Value::map())?;
                Ok(v.as_int()? as usize)
            }
            ArchitectureStyle::ServiceBased => {
                let (bus, svc) = self.bus.as_ref().unwrap();
                let v = bus.invoke(*svc, "scan_count", Value::map())?;
                Ok(v.as_int()? as usize)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir()
            .join("sbdms-baseline-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn all_styles_compute_identical_results() {
        for style in ArchitectureStyle::all() {
            let s = StyleUnderTest::new(style, dir(style.name())).unwrap();
            for i in 0..100 {
                s.insert(i, &format!("payload-{i}")).unwrap();
            }
            assert_eq!(s.scan_count().unwrap(), 100, "{style:?}");
            assert_eq!(
                s.point_read(42).unwrap().as_deref(),
                Some("payload-42"),
                "{style:?}"
            );
            assert_eq!(s.point_read(1000).unwrap(), None, "{style:?}");
        }
    }

    #[test]
    fn service_based_is_metered_by_the_bus() {
        let s = StyleUnderTest::new(ArchitectureStyle::ServiceBased, dir("metered")).unwrap();
        s.insert(1, "x").unwrap();
        s.point_read(1).unwrap();
        let (bus, id) = s.bus.as_ref().unwrap();
        assert_eq!(bus.metrics().snapshot(*id).calls, 2);
    }

    #[test]
    fn style_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            ArchitectureStyle::all().iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 4);
    }
}
