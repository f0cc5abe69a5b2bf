//! Service granularity: the paper's future-work experiment, made
//! runnable.
//!
//! Paper §5: "Testing with different levels of service granularity will
//! give us insights into the right tradeoff between service granularity
//! and system performance in a SBDMS."
//!
//! Granularity here is the number of service boundaries one record
//! operation crosses. The base service performs the real storage work
//! (heap insert/read); every further level wraps it in a forwarding
//! service deployed over the configured binding — exactly the cost a
//! finer functional decomposition adds, with the functional work held
//! constant:
//!
//! * `Coarse`  — 1 boundary (a whole-DBMS service),
//! * `Medium`  — 2 boundaries (data layer → storage layer),
//! * `Fine`    — 4 boundaries (data → access → buffer → disk).

use std::sync::Arc;

use sbdms_access::heap::HeapFile;
use sbdms_kernel::binding::BindingKind;
use sbdms_kernel::bus::ServiceBus;
use sbdms_kernel::contract::Contract;
use sbdms_kernel::error::{Result, ServiceError};
use sbdms_kernel::interface::{Interface, Operation, Param};
use sbdms_kernel::service::{FnService, ServiceId, ServiceRef};
use sbdms_kernel::value::{TypeTag, Value};
use sbdms_storage::services::StorageEngine;

/// Decomposition depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// One service boundary.
    Coarse,
    /// Two service boundaries.
    Medium,
    /// Four service boundaries.
    Fine,
}

impl Granularity {
    /// Service boundaries one operation crosses.
    pub fn boundaries(&self) -> usize {
        match self {
            Granularity::Coarse => 1,
            Granularity::Medium => 2,
            Granularity::Fine => 4,
        }
    }

    /// All levels, coarse to fine.
    pub fn all() -> [Granularity; 3] {
        [Granularity::Coarse, Granularity::Medium, Granularity::Fine]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Granularity::Coarse => "coarse",
            Granularity::Medium => "medium",
            Granularity::Fine => "fine",
        }
    }
}

fn record_interface(name: &str) -> Interface {
    Interface::new(
        name,
        1,
        vec![
            Operation::new(
                "insert",
                vec![Param::required("record", TypeTag::Bytes)],
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
        ],
    )
}

/// A record store deployed at a chosen granularity over a chosen binding.
pub struct GranularDeployment {
    bus: ServiceBus,
    entry: ServiceId,
    granularity: Granularity,
}

impl GranularDeployment {
    /// Build the layered deployment in `dir`.
    pub fn new(
        granularity: Granularity,
        binding: BindingKind,
        dir: impl AsRef<std::path::Path>,
    ) -> Result<GranularDeployment> {
        let storage = StorageEngine::open(dir, 128)?;
        let heap = Arc::new(HeapFile::create(storage.buffer.clone())?);
        let bus = ServiceBus::new();

        // Level 0: the real storage work.
        let base_iface = record_interface("sbdms.e3.Level0");
        let heap2 = heap.clone();
        let base = FnService::new(
            "level-0",
            Contract::for_interface(base_iface).describe("base record store", "storage"),
            move |op, input| match op {
                "insert" => {
                    let rid = heap2.insert(input.require("record")?.as_bytes()?)?;
                    Ok(Value::map().with("page", rid.page).with("slot", rid.slot as i64))
                }
                "get" => {
                    let rid = sbdms_access::heap::Rid::new(
                        input.require("page")?.as_u64()?,
                        input.require("slot")?.as_u64()? as u16,
                    );
                    Ok(Value::Bytes(heap2.get(rid)?))
                }
                other => Err(ServiceError::Internal(format!("bad op {other}"))),
            },
        )
        .into_ref();
        let mut inner = bus.deploy_with_binding(base, binding.build())?;

        // Levels 1..n-1: forwarding boundaries.
        for level in 1..granularity.boundaries() {
            let iface = record_interface(&format!("sbdms.e3.Level{level}"));
            let bus2 = bus.clone();
            let target = inner;
            let forwarder: ServiceRef = FnService::new(
                &format!("level-{level}"),
                Contract::for_interface(iface)
                    .describe(&format!("forwarding boundary {level}"), "composition"),
                move |op, input| bus2.invoke(target, op, input),
            )
            .into_ref();
            inner = bus.deploy_with_binding(forwarder, binding.build())?;
        }

        Ok(GranularDeployment {
            bus,
            entry: inner,
            granularity,
        })
    }

    /// The configured granularity.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Insert a record through every boundary; returns `(page, slot)`.
    pub fn insert(&self, record: &[u8]) -> Result<(u64, u16)> {
        let out = self.bus.invoke(
            self.entry,
            "insert",
            Value::map().with("record", record.to_vec()),
        )?;
        Ok((
            out.require("page")?.as_u64()?,
            out.require("slot")?.as_u64()? as u16,
        ))
    }

    /// Read a record back through every boundary.
    pub fn get(&self, page: u64, slot: u16) -> Result<Vec<u8>> {
        let out = self.bus.invoke(
            self.entry,
            "get",
            Value::map().with("page", page).with("slot", slot as i64),
        )?;
        Ok(out.as_bytes()?.to_vec())
    }

    /// Total bus calls made so far (boundaries × operations).
    pub fn total_bus_calls(&self) -> u64 {
        self.bus.metrics().total_calls()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir()
            .join("sbdms-granularity-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn every_granularity_round_trips() {
        for g in Granularity::all() {
            let dep = GranularDeployment::new(g, BindingKind::InProcess, dir(g.name())).unwrap();
            let (page, slot) = dep.insert(b"hello granularity").unwrap();
            assert_eq!(dep.get(page, slot).unwrap(), b"hello granularity", "{g:?}");
        }
    }

    #[test]
    fn finer_granularity_crosses_more_boundaries() {
        let mut calls_by_level = Vec::new();
        for g in Granularity::all() {
            let dep =
                GranularDeployment::new(g, BindingKind::InProcess, dir(&format!("calls-{}", g.name())))
                    .unwrap();
            let (page, slot) = dep.insert(b"x").unwrap();
            dep.get(page, slot).unwrap();
            calls_by_level.push(dep.total_bus_calls());
        }
        // 2 ops × boundaries: [2, 4, 8]
        assert_eq!(calls_by_level, vec![2, 4, 8]);
    }

    #[test]
    fn boundary_counts() {
        assert_eq!(Granularity::Coarse.boundaries(), 1);
        assert_eq!(Granularity::Medium.boundaries(), 2);
        assert_eq!(Granularity::Fine.boundaries(), 4);
    }

    #[test]
    fn works_over_serialised_binding() {
        let dep = GranularDeployment::new(
            Granularity::Medium,
            BindingKind::SerialisedOnly,
            dir("serialised"),
        )
        .unwrap();
        let (page, slot) = dep.insert(&[1, 2, 3]).unwrap();
        assert_eq!(dep.get(page, slot).unwrap(), vec![1, 2, 3]);
    }
}
