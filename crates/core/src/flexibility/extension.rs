//! Flexibility by extension (paper §3.4, Fig. 5).
//!
//! "The user creates the required component (e.g., a Page Coordinator, as
//! shown in Figure 5) and then publishes the desired interfaces as
//! services in the architecture. From this point on, the desired
//! functionality of the component is exposed and available for reuse."

use std::sync::Arc;
use std::time::{Duration, Instant};

use sbdms_kernel::bus::ServiceBus;
use sbdms_kernel::contract::Contract;
use sbdms_kernel::error::Result;
use sbdms_kernel::interface::{Interface, Operation, Param};
use sbdms_kernel::service::{FnService, ServiceId, ServiceRef};
use sbdms_kernel::value::{TypeTag, Value};
use sbdms_storage::buffer::BufferPool;

/// What publishing a service cost and produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishReport {
    /// The new service.
    pub id: ServiceId,
    /// Time to deploy + register + archive the contract.
    pub publish_time: Duration,
    /// Time from publication to a successful first use.
    pub first_use_time: Duration,
}

/// Publish a user service at run time and immediately exercise it once
/// (`probe_op` with `probe_input`), measuring both steps — the Fig. 5
/// lifecycle with numbers attached.
pub fn publish_and_probe(
    bus: &ServiceBus,
    service: ServiceRef,
    probe_op: &str,
    probe_input: Value,
) -> Result<PublishReport> {
    let start = Instant::now();
    let id = bus.deploy(service)?;
    let publish_time = start.elapsed();

    let start = Instant::now();
    bus.invoke(id, probe_op, probe_input)?;
    let first_use_time = start.elapsed();

    Ok(PublishReport {
        id,
        publish_time,
        first_use_time,
    })
}

/// The interface of the paper's Fig. 5 example extension.
pub fn page_coordinator_interface() -> Interface {
    Interface::new(
        "sbdms.user.PageCoordinator",
        1,
        vec![
            Operation::new("page_stats", vec![], TypeTag::Map),
            Operation::new(
                "advise_resize",
                vec![Param::required("target_frames", TypeTag::Int)],
                TypeTag::Map,
            ),
        ],
    )
}

/// Build the Fig. 5 "Page Coordinator": a user-created component that
/// supervises page/buffer state and can advise resizing. This is the
/// service the example and E4 publish at run time.
pub fn page_coordinator(name: &str, pool: Arc<BufferPool>) -> ServiceRef {
    let contract = Contract::for_interface(page_coordinator_interface())
        .describe("user-created page coordinator (paper Fig. 5)", "extension")
        .capability("task:page-coordination")
        .depends_on(sbdms_storage::services::BUFFER_INTERFACE);
    FnService::new(name, contract, move |op, input| match op {
        "page_stats" => {
            let s = pool.stats();
            Ok(Value::map()
                .with("resident", s.resident)
                .with("dirty", s.dirty)
                .with("capacity", s.capacity)
                .with("hit_ratio", s.hit_ratio()))
        }
        "advise_resize" => {
            let target = input.require("target_frames")?.as_u64()? as usize;
            let before = pool.stats().capacity;
            pool.resize(target)?;
            Ok(Value::map().with("before", before).with("after", target))
        }
        other => Err(sbdms_kernel::error::ServiceError::Internal(format!(
            "bad op {other}"
        ))),
    })
    .into_ref()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbdms_kernel::events::Event;
    use sbdms_storage::services::StorageEngine;

    fn pool(name: &str) -> Arc<BufferPool> {
        let dir = std::env::temp_dir()
            .join("sbdms-flex-ext-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        StorageEngine::open(&dir, 8).unwrap().buffer
    }

    #[test]
    fn fig5_publish_exposes_functionality_for_reuse() {
        let bus = ServiceBus::new();
        let rx = bus.events().subscribe();
        let report = publish_and_probe(
            &bus,
            page_coordinator("page-coordinator", pool("fig5")),
            "page_stats",
            Value::map(),
        )
        .unwrap();
        assert!(report.publish_time > Duration::ZERO);

        // Registered, discoverable, contract archived.
        assert!(bus.registry().get(report.id).is_some());
        assert_eq!(
            bus.registry()
                .find_by_capability("task:page-coordination")
                .len(),
            1
        );
        assert!(bus.repository().contract("page-coordinator").is_ok());
        assert!(rx
            .try_iter()
            .any(|e| matches!(e, Event::ServiceRegistered { .. })));

        // And reusable by any caller via the interface name.
        let stats = bus
            .invoke_interface("sbdms.user.PageCoordinator", "page_stats", Value::map())
            .unwrap();
        assert!(stats.get("capacity").is_some());
    }

    #[test]
    fn page_coordinator_can_resize_the_buffer() {
        let bus = ServiceBus::new();
        let pool = pool("resize");
        let id = bus.deploy(page_coordinator("pc", pool.clone())).unwrap();
        let out = bus
            .invoke(id, "advise_resize", Value::map().with("target_frames", 4i64))
            .unwrap();
        assert_eq!(out.get("before").unwrap().as_int().unwrap(), 8);
        assert_eq!(pool.stats().capacity, 4);
    }
}
