//! The assembled SBDMS: setup phase, operational phase, and the deployed
//! service fabric.
//!
//! Paper §3.3: "From a general view we can envision two service phases:
//! the setup phase and the operational phase. The setup phase consists of
//! process composition according to architectural properties and service
//! configuration. ... In the operational phase coordinator services
//! monitor architectural changes and service properties."
//!
//! [`Sbdms::deploy`] is the setup phase; [`Sbdms::operational_tick`] is
//! one beat of the operational phase (monitor sweep + supervision).

use std::collections::HashMap;
use std::sync::Arc;

use sbdms_data::catalog::ViewMeta;
use sbdms_data::executor::{Database, DbOptions};
use sbdms_data::QueryService;
use sbdms_extension::monitoring::{GovernorMonitorService, StorageMonitorService};
use sbdms_extension::procedures::{ProcedureEngine, ProcedureService};
use sbdms_extension::stream::{StreamEngine, StreamService};
use sbdms_extension::xml::{XmlService, XmlStore};
use sbdms_kernel::bus::ServiceBus;
use sbdms_kernel::coordinator::{Coordinator, CoordinatorService, Recovery};
use sbdms_kernel::error::{Result, ServiceError};
use sbdms_kernel::monitor::{HealthMonitor, ScanReport};
use sbdms_kernel::resource::ResourceManager;
use sbdms_kernel::service::{ServiceId, ServiceRef};
use sbdms_kernel::value::Value;
use sbdms_kernel::workflow::WorkflowEngine;
use sbdms_access::services::{HeapService, IndexService};
use sbdms_storage::services::{BufferService, DiskService, LogService};

use crate::config::{ArchitectureConfig, Profile};

/// Floor for adaptive buffer shrinking (frames).
pub const MIN_BUFFER_FRAMES: usize = 8;

/// Catalog key under which the XML store's root page persists (stored as
/// a pseudo-view so the extension needs no schema changes in the core
/// catalog).
const XML_STORE_KEY: &str = "__sbdms_xml_store_root";

/// Resilience interventions observed during one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interventions {
    /// Retries spent.
    pub retries: u64,
    /// Synchronous failovers to a substitute provider.
    pub failovers: u64,
    /// Hedges away from degraded providers.
    pub hedges: u64,
}

/// Outcome of a resilient SQL execution: the caller got an answer either
/// way, but `Degraded` says the invocation layer had to intervene —
/// the paper's "the system can continue to operate" made observable.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// Served cleanly on the first attempt.
    Ok(Value),
    /// Served, but only after retries, failover, or hedging.
    Degraded {
        /// The (complete, correct) result.
        value: Value,
        /// What the resilience layer had to do to produce it.
        interventions: Interventions,
    },
}

impl ExecOutcome {
    /// The result value, regardless of how it was obtained.
    pub fn value(&self) -> &Value {
        match self {
            ExecOutcome::Ok(v) => v,
            ExecOutcome::Degraded { value, .. } => value,
        }
    }

    /// Whether the resilience layer had to intervene.
    pub fn is_degraded(&self) -> bool {
        matches!(self, ExecOutcome::Degraded { .. })
    }
}

/// A deployed Service-Based Data Management System.
pub struct Sbdms {
    config: ArchitectureConfig,
    bus: ServiceBus,
    db: Arc<Database>,
    coordinator: Coordinator,
    monitor: HealthMonitor,
    workflows: WorkflowEngine,
    deployed: HashMap<String, ServiceId>,
}

impl Sbdms {
    /// Run the setup phase for a profile rooted at `data_dir`.
    pub fn open(profile: Profile, data_dir: impl Into<std::path::PathBuf>) -> Result<Sbdms> {
        Sbdms::deploy(ArchitectureConfig::for_profile(profile, data_dir))
    }

    /// Run the setup phase: open storage, compose and deploy the selected
    /// services over the configured binding, wire coordination.
    pub fn deploy(config: ArchitectureConfig) -> Result<Sbdms> {
        let opts = DbOptions {
            buffer_frames: config.buffer_frames,
            replacement: config.replacement,
            buffer_shards: config.buffer_shards,
            sort_budget: config.sort_budget,
            parallelism: config.parallelism,
            plan_cache_capacity: config.plan_cache,
            histogram_buckets: config.histogram_buckets,
            execution_engine: Some(config.execution_engine),
            governor: config.governor.clone(),
            concurrency: config.concurrency,
            commit_window_micros: config.commit_window_micros,
        };
        let db = match config.storage_mode {
            crate::config::StorageMode::File => Database::open_opts(&config.data_dir, opts)?,
            crate::config::StorageMode::Sim { seed } => {
                let backend =
                    sbdms_storage::SimBackend::new(sbdms_storage::SimConfig::seeded(seed));
                Database::open_at(&*backend, opts)?
            }
        };
        let bus = ServiceBus::new();
        // Planner decisions surface on the kernel bus: every freshly
        // planned query that made a choice publishes a `plan.selected`
        // event explaining the chosen join order/algorithm and access
        // paths.
        db.set_event_bus(bus.events().clone());
        bus.set_enforce_policies(config.enforce_policies);
        bus.resilience().set_enabled(config.resilience.enabled);
        bus.resilience().set_policy(config.resilience.invoke_policy());
        bus.resilience()
            .set_breaker_config(config.resilience.breaker_config());

        let resources = ResourceManager::new(bus.events().clone(), bus.properties().clone());
        resources.define("memory", config.memory_budget, config.memory_alert_below);
        let coordinator = Coordinator::new(bus.clone(), resources);
        // Synchronous failover: a tripped breaker recovers inside the
        // failing call instead of waiting for the next operational tick.
        coordinator.install_failover();
        let monitor = HealthMonitor::new(bus.clone());
        let workflows = WorkflowEngine::new(bus.clone());

        let mut system = Sbdms {
            config,
            bus,
            db,
            coordinator,
            monitor,
            workflows,
            deployed: HashMap::new(),
        };
        system.deploy_selected()?;
        Ok(system)
    }

    /// Compose the deployment as a recursive SCA composite (paper
    /// Figs. 3–4: components with services, references and properties,
    /// contained in layer composites, contained in the root composite)
    /// and instantiate it — the setup phase proper.
    fn deploy_selected(&mut self) -> Result<()> {
        use sbdms_kernel::component::{Component, Composite, Reference};
        use sbdms_storage::services::{BUFFER_INTERFACE, DISK_INTERFACE};

        let storage = self.db.storage();
        let selection = self.config.services.clone();
        let binding = self.config.binding;
        let component = |name: &str, svc: ServiceRef| {
            Component::service(name, svc).with_binding(binding)
        };

        let mut storage_layer = Composite::new("storage-layer");
        if selection.disk {
            storage_layer = storage_layer.with(component(
                "disk",
                DiskService::new("disk", storage.disk.clone()).into_ref(),
            ));
        }
        if selection.buffer {
            storage_layer = storage_layer.with(
                component(
                    "buffer",
                    BufferService::new("buffer", storage.buffer.clone()).into_ref(),
                )
                .with_reference(Reference::optional("disk", DISK_INTERFACE))
                .with_property("frames", self.config.buffer_frames as i64)
                .with_property(
                    "policy",
                    match self.config.replacement {
                        sbdms_storage::replacement::PolicyKind::Lru => "lru",
                        sbdms_storage::replacement::PolicyKind::Clock => "clock",
                    },
                ),
            );
        }
        if selection.log {
            storage_layer =
                storage_layer.with(component("log", LogService::new("log", storage.wal.clone()).into_ref()));
        }

        let mut access_layer = Composite::new("access-layer");
        if selection.heap {
            access_layer = access_layer.with(
                component("heap", HeapService::new("heap", storage.buffer.clone()).into_ref())
                    .with_reference(Reference::required("buffer", BUFFER_INTERFACE)),
            );
        }
        if selection.index {
            access_layer = access_layer.with(
                component(
                    "index",
                    IndexService::new("index", storage.buffer.clone()).into_ref(),
                )
                .with_reference(Reference::required("buffer", BUFFER_INTERFACE)),
            );
        }

        let mut data_layer = Composite::new("data-layer");
        if selection.query {
            data_layer = data_layer.with(
                component("query", QueryService::new("query", self.db.clone()).into_ref())
                    .with_reference(Reference::required("buffer", BUFFER_INTERFACE)),
            );
        }
        // The concurrency-control service the data layer's transactions
        // run through: published on the bus whenever the profile
        // selected MVCC, so coordinators and monitors can observe the
        // snapshot/conflict counters of the transactional component.
        if let Some(mvcc) = self.db.mvcc() {
            data_layer = data_layer.with(component(
                "concurrency",
                sbdms_kernel::mvcc::ConcurrencyControlService::new("concurrency", mvcc.clone())
                    .into_ref(),
            ));
        }

        let mut extension_layer = Composite::new("extension-layer");
        if selection.xml {
            let store = self.open_xml_store()?;
            extension_layer = extension_layer.with(
                component("xml", XmlService::new("xml", store).into_ref())
                    .with_reference(Reference::required("buffer", BUFFER_INTERFACE)),
            );
        }
        if selection.streaming {
            extension_layer = extension_layer.with(component(
                "stream",
                StreamService::new("stream", StreamEngine::new()).into_ref(),
            ));
        }
        if selection.procedures {
            extension_layer = extension_layer.with(
                component(
                    "procedures",
                    ProcedureService::new("procedures", ProcedureEngine::new(self.db.clone()))
                        .into_ref(),
                )
                .with_reference(Reference::required(
                    "query",
                    sbdms_data::services::QUERY_INTERFACE,
                )),
            );
        }
        if selection.monitor {
            extension_layer = extension_layer.with(
                component(
                    "monitor",
                    StorageMonitorService::new(
                        "monitor",
                        storage.buffer.clone(),
                        self.bus.properties().clone(),
                        "main",
                    )
                    .into_ref(),
                )
                .with_reference(Reference::required("buffer", BUFFER_INTERFACE)),
            );
            // The overload half of the monitoring concern: admission,
            // shedding, degradation, and memory-pool counters.
            extension_layer = extension_layer.with(component(
                "governor-monitor",
                GovernorMonitorService::new(
                    "governor-monitor",
                    self.db.governor().clone(),
                    self.bus.properties().clone(),
                    "main",
                )
                .into_ref(),
            ));
        }

        // The coordinator itself is a service (paper §4: "developers
        // invoke existing coordinator services").
        let coordination_layer = Composite::new("coordination-layer").with(component(
            "coordinator",
            CoordinatorService::new("coordinator", self.coordinator.clone()).into_ref(),
        ));

        let root = Composite::new("sbdms")
            .with(Component::composite("storage", storage_layer))
            .with(Component::composite("access", access_layer))
            .with(Component::composite("data", data_layer))
            .with(Component::composite("extension", extension_layer))
            .with(Component::composite("coordination", coordination_layer));

        let deployment = root.instantiate(&self.bus)?;
        for deployed in &deployment.services {
            if deployed.id.0 != 0 {
                self.deployed.insert(deployed.component.clone(), deployed.id);
            }
        }
        Ok(())
    }

    /// Open (or create) the persistent XML store, remembering its root
    /// page in the catalog.
    fn open_xml_store(&self) -> Result<XmlStore> {
        let buffer = self.db.storage().buffer.clone();
        if let Some(meta) = self.db.catalog().view(XML_STORE_KEY) {
            let page: u64 = meta
                .query
                .parse()
                .map_err(|_| ServiceError::Storage("corrupt xml store root".into()))?;
            return XmlStore::open(buffer, page);
        }
        let store = XmlStore::create(buffer)?;
        self.db.catalog().create_view(ViewMeta {
            name: XML_STORE_KEY.to_string(),
            query: store.dir_page().to_string(),
        })?;
        Ok(store)
    }

    /// The service bus of this deployment.
    pub fn bus(&self) -> &ServiceBus {
        &self.bus
    }

    /// Direct handle to the embedded database engine (the co-located
    /// fast path; service-routed access goes through [`Sbdms::execute_sql`]).
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The coordinator.
    pub fn coordinator(&self) -> &Coordinator {
        &self.coordinator
    }

    /// The workflow engine.
    pub fn workflows(&self) -> &WorkflowEngine {
        &self.workflows
    }

    /// The configuration this system was deployed from.
    pub fn config(&self) -> &ArchitectureConfig {
        &self.config
    }

    /// Deployed service id by role key (e.g. `"buffer"`, `"query"`).
    pub fn service(&self, key: &str) -> Option<ServiceId> {
        self.deployed.get(key).copied()
    }

    /// Role keys of all deployed services, sorted.
    pub fn service_keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.deployed.keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Execute SQL through the service fabric (bus-routed, metered,
    /// contract-checked): the SBDMS call path.
    pub fn execute_sql(&self, sql: &str) -> Result<Value> {
        self.bus.invoke_interface(
            sbdms_data::services::QUERY_INTERFACE,
            "execute",
            Value::map().with("sql", sql),
        )
    }

    /// Execute SQL and report whether the resilience layer had to step
    /// in. The result value is identical to [`Sbdms::execute_sql`]; the
    /// outcome type makes graceful degradation visible to callers that
    /// care (monitoring, benchmarks) without changing the plain API.
    pub fn execute_sql_outcome(&self, sql: &str) -> Result<ExecOutcome> {
        let before = self.query_fabric_interventions();
        let value = self.execute_sql(sql)?;
        let after = self.query_fabric_interventions();
        let interventions = Interventions {
            retries: after.retries - before.retries,
            failovers: after.failovers - before.failovers,
            hedges: after.hedges - before.hedges,
        };
        if interventions.retries == 0 && interventions.failovers == 0 && interventions.hedges == 0 {
            Ok(ExecOutcome::Ok(value))
        } else {
            Ok(ExecOutcome::Degraded {
                value,
                interventions,
            })
        }
    }

    /// Sum of resilience interventions across all providers of the query
    /// interface (the call path `execute_sql` routes over).
    fn query_fabric_interventions(&self) -> Interventions {
        let mut total = Interventions::default();
        for d in self
            .bus
            .registry()
            .find_by_interface(sbdms_data::services::QUERY_INTERFACE)
        {
            let snap = self.bus.metrics().snapshot(d.id);
            total.retries += snap.retries;
            total.failovers += snap.failovers;
            total.hedges += snap.hedges;
        }
        total
    }

    /// One beat of the operational phase: health sweep, supervision
    /// (recovery of failed services), and resource reaction (paper
    /// Fig. 6: under memory pressure the Buffer Coordinator "advises the
    /// Buffer Manager to adapt to the new situation"). Returns what
    /// happened.
    pub fn operational_tick(&self) -> (ScanReport, Vec<(ServiceId, Result<Recovery>)>) {
        let report = self.monitor.scan_once();
        let recoveries = self.coordinator.supervise_once();
        let _ = self.react_to_memory_pressure();
        (report, recoveries)
    }

    /// The Fig. 6 reaction: when the memory pool is in its alert region,
    /// halve the buffer pool (never below [`MIN_BUFFER_FRAMES`]) and
    /// release the freed bytes back to the budget. Returns the new frame
    /// count if a resize happened.
    pub fn react_to_memory_pressure(&self) -> Result<Option<usize>> {
        if !self.coordinator.resources().is_low("memory") {
            return Ok(None);
        }
        let buffer = &self.db.storage().buffer;
        let capacity = buffer.stats().capacity;
        if capacity <= MIN_BUFFER_FRAMES {
            return Ok(None);
        }
        let target = (capacity / 2).max(MIN_BUFFER_FRAMES);
        buffer.resize(target)?;
        let freed = ((capacity - target) * sbdms_storage::page::PAGE_SIZE) as u64;
        self.coordinator.resources().release("memory", freed);
        self.bus.events().publish(sbdms_kernel::events::Event::Custom {
            topic: "buffer.adapted".into(),
            detail: format!("resized {capacity} -> {target} frames under memory pressure"),
        });
        self.bus
            .properties()
            .set("component.buffer.frames", target as i64);
        Ok(Some(target))
    }

    /// Re-calibrate every service's advertised quality from observed bus
    /// metrics (paper §4's open issue, answered with measurements; see
    /// `Coordinator::calibrate_quality`). Returns the changed services.
    pub fn calibrate_quality(&self, min_calls: u64) -> Vec<ServiceId> {
        self.coordinator.calibrate_quality(min_calls)
    }

    /// Advertised footprint of all enabled services (experiment E7).
    pub fn footprint_bytes(&self) -> u64 {
        self.bus.footprint_bytes()
    }

    /// Flush all state.
    pub fn checkpoint(&self) -> Result<()> {
        self.db.checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbdms_kernel::binding::BindingKind;

    fn data_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("sbdms-system-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn full_profile_deploys_all_layers() {
        let system = Sbdms::open(Profile::FullFledged, data_dir("full")).unwrap();
        // 12 selected + coordinator.
        assert_eq!(system.service_keys().len(), 13);
        for layer in ["storage", "access", "data", "extension"] {
            assert!(
                !system.bus().registry().find_by_layer(layer).is_empty(),
                "layer {layer} must be populated"
            );
        }
        assert!(system.service("query").is_some());
        assert!(system.service("coordinator").is_some());
    }

    #[test]
    fn embedded_profile_is_smaller() {
        let full = Sbdms::open(Profile::FullFledged, data_dir("cmp-full")).unwrap();
        let embedded = Sbdms::open(Profile::Embedded, data_dir("cmp-embedded")).unwrap();
        assert!(embedded.service_keys().len() < full.service_keys().len());
        assert!(embedded.footprint_bytes() < full.footprint_bytes());
        assert!(embedded.service("xml").is_none());
        assert!(embedded.service("query").is_some());
    }

    #[test]
    fn sql_through_the_service_fabric() {
        let system = Sbdms::open(Profile::FullFledged, data_dir("sql")).unwrap();
        system.execute_sql("CREATE TABLE t (x INT)").unwrap();
        system.execute_sql("INSERT INTO t VALUES (1), (2)").unwrap();
        let out = system.execute_sql("SELECT COUNT(*) FROM t").unwrap();
        let rows = out.get("rows").unwrap().as_list().unwrap();
        assert_eq!(rows[0].as_list().unwrap()[0], Value::Int(2));
        // The query service is metered because the call went over the bus.
        let qid = system.service("query").unwrap();
        assert!(system.bus().metrics().snapshot(qid).calls >= 3);
    }

    /// Shadow provider of the query interface that out-ranks the real
    /// one on advertised quality, so `invoke_interface` routes to it.
    fn shadow_query_provider() -> sbdms_kernel::service::ServiceRef {
        use sbdms_kernel::contract::{Contract, Quality};
        use sbdms_kernel::service::FnService;
        let contract = Contract::for_interface(sbdms_data::services::query_interface()).quality(
            Quality {
                expected_latency_ns: 10,
                ..Quality::default()
            },
        );
        FnService::new("query-shadow", contract, |_, _| {
            Ok(Value::map()
                .with("columns", Value::List(vec![]))
                .with("rows", Value::List(vec![]))
                .with("affected", 0i64))
        })
        .into_ref()
    }

    #[test]
    fn execute_sql_outcome_is_clean_on_the_happy_path() {
        let system = Sbdms::open(Profile::FullFledged, data_dir("outcome-clean")).unwrap();
        let outcome = system.execute_sql_outcome("CREATE TABLE t (x INT)").unwrap();
        assert!(!outcome.is_degraded());
        assert!(matches!(outcome, ExecOutcome::Ok(_)));
    }

    #[test]
    fn execute_sql_outcome_reports_retries_as_degraded() {
        use sbdms_kernel::faults::{FaultMode, FaultableService};
        let system = Sbdms::open(Profile::FullFledged, data_dir("outcome-retry")).unwrap();
        // A flaky shadow wins routing, fails its first two calls, then
        // serves; the resilient bus steps over the failures invisibly.
        let (faulty, handle) = FaultableService::wrap(shadow_query_provider());
        system.bus().deploy(faulty).unwrap();
        handle.set_mode(FaultMode::Flaky {
            period: 1_000_000,
            fail_every: 2,
        });
        let outcome = system.execute_sql_outcome("SELECT 1").unwrap();
        match outcome {
            ExecOutcome::Degraded { interventions, .. } => {
                assert!(interventions.retries >= 2, "retries: {interventions:?}");
                assert_eq!(interventions.failovers, 0);
            }
            other => panic!("expected a degraded outcome, got {other:?}"),
        }
    }

    #[test]
    fn execute_sql_outcome_survives_a_dead_provider_via_failover() {
        use sbdms_kernel::faults::{FaultMode, FaultableService};
        let system = Sbdms::open(Profile::FullFledged, data_dir("outcome-failover")).unwrap();
        system.execute_sql("CREATE TABLE t (x INT)").unwrap();
        system.execute_sql("INSERT INTO t VALUES (1), (2)").unwrap();

        // A silently-broken shadow wins routing: it still reports
        // `Health::Healthy` (so resolution cannot route around it — that
        // is what breakers are for) but every call fails. The breaker
        // trips and the deploy-time failover hook re-routes the call to
        // the real query service inside the same invocation.
        let (faulty, handle) = FaultableService::wrap(shadow_query_provider());
        let shadow = system.bus().deploy(faulty).unwrap();
        handle.set_mode(FaultMode::Flaky {
            period: 1_000_000,
            fail_every: 1_000_000,
        });

        let outcome = system
            .execute_sql_outcome("SELECT COUNT(*) FROM t")
            .unwrap();
        match outcome {
            ExecOutcome::Degraded {
                value,
                interventions,
            } => {
                assert!(interventions.failovers >= 1, "failovers: {interventions:?}");
                let rows = value.get("rows").unwrap().as_list().unwrap();
                assert_eq!(rows[0].as_list().unwrap()[0], Value::Int(2));
            }
            other => panic!("expected a degraded outcome, got {other:?}"),
        }
        // The dead provider is quarantined, not just stepped around.
        assert!(!system.bus().is_enabled(shadow));
        assert!(system.bus().metrics().snapshot(shadow).breaker_trips >= 1);
    }

    #[test]
    fn operational_tick_reports_health() {
        let system = Sbdms::open(Profile::Embedded, data_dir("tick")).unwrap();
        let (report, recoveries) = system.operational_tick();
        assert_eq!(report.scanned, system.service_keys().len());
        assert!(report.new_failures.is_empty());
        assert!(recoveries.is_empty());
    }

    #[test]
    fn xml_store_persists_across_redeploy() {
        let dir = data_dir("xml-persist");
        {
            let system = Sbdms::open(Profile::FullFledged, &dir).unwrap();
            let xml_id = system.service("xml").unwrap();
            system
                .bus()
                .invoke(
                    xml_id,
                    "put",
                    Value::map().with("name", "d").with("xml", "<a><b>1</b></a>"),
                )
                .unwrap();
            system.checkpoint().unwrap();
        }
        let system = Sbdms::open(Profile::FullFledged, &dir).unwrap();
        let xml_id = system.service("xml").unwrap();
        let hits = system
            .bus()
            .invoke(xml_id, "query", Value::map().with("name", "d").with("path", "a/b"))
            .unwrap();
        assert_eq!(hits.as_list().unwrap().len(), 1);
    }

    #[test]
    fn memory_pressure_shrinks_the_buffer_fig6() {
        let system = Sbdms::open(Profile::FullFledged, data_dir("fig6-memory")).unwrap();
        let rx = system.bus().events().subscribe();
        assert_eq!(system.react_to_memory_pressure().unwrap(), None, "no pressure yet");

        // Drive the memory pool into its alert region.
        let budget = system.coordinator().resources().budget("memory").unwrap();
        system
            .coordinator()
            .resources()
            .request("memory", budget.capacity - budget.alert_below)
            .unwrap();

        let (_, _) = system.operational_tick();
        let capacity = system.database().storage().buffer.stats().capacity;
        assert_eq!(capacity, 128, "256 frames halved");
        assert!(rx
            .try_iter()
            .any(|e| matches!(e, sbdms_kernel::events::Event::Custom { topic, .. } if topic == "buffer.adapted")));

        // Repeated pressure keeps shrinking but never below the floor.
        for _ in 0..10 {
            let _ = system.react_to_memory_pressure().unwrap();
        }
        assert!(
            system.database().storage().buffer.stats().capacity >= crate::system::MIN_BUFFER_FRAMES
        );

        // The system still answers queries after adaptation.
        system.execute_sql("CREATE TABLE t (x INT)").unwrap();
        system.execute_sql("INSERT INTO t VALUES (1)").unwrap();
        let out = system.execute_sql("SELECT COUNT(*) FROM t").unwrap();
        let rows = out.get("rows").unwrap().as_list().unwrap();
        assert_eq!(rows[0].as_list().unwrap()[0], Value::Int(1));
    }

    #[test]
    fn sca_composition_publishes_component_properties() {
        let system = Sbdms::open(Profile::FullFledged, data_dir("sca-props")).unwrap();
        // The buffer component's instantiation-time properties (Fig. 3)
        // are readable by the whole architecture.
        assert_eq!(
            system.bus().properties().get_int("component.buffer.frames"),
            Some(256)
        );
        assert_eq!(
            system.bus().properties().get("component.buffer.policy").unwrap(),
            Value::Str("lru".into())
        );
    }

    #[test]
    fn invalid_composition_rejected_at_setup() {
        // Selecting the query service without the buffer service leaves
        // an unresolved SCA reference: the setup phase must fail, not
        // deploy a broken system.
        let mut services = crate::config::ServiceSelection::minimal();
        services.buffer = false;
        let config = ArchitectureConfig::for_profile(Profile::Embedded, data_dir("sca-invalid"))
            .with_services(services);
        assert!(Sbdms::deploy(config).is_err());
    }

    #[test]
    fn any_profile_deploys_on_the_sim_backend() {
        // The storage-mode knob: the same architecture configurations,
        // but every byte lives in the deterministic simulator.
        for profile in [Profile::FullFledged, Profile::Embedded] {
            let config =
                ArchitectureConfig::for_profile(profile, data_dir("sim")).with_sim_storage(7);
            let system = Sbdms::deploy(config).unwrap();
            system.execute_sql("CREATE TABLE t (x INT)").unwrap();
            system.execute_sql("INSERT INTO t VALUES (1), (2)").unwrap();
            let out = system.execute_sql("SELECT COUNT(*) FROM t").unwrap();
            let rows = out.get("rows").unwrap().as_list().unwrap();
            assert_eq!(rows[0].as_list().unwrap()[0], Value::Int(2));
        }
    }

    #[test]
    fn channel_binding_deployment_works() {
        let config = ArchitectureConfig::for_profile(Profile::Embedded, data_dir("channel"))
            .with_binding(BindingKind::Channel);
        let system = Sbdms::deploy(config).unwrap();
        system.execute_sql("CREATE TABLE t (x INT)").unwrap();
        let out = system.execute_sql("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(out.get("affected").unwrap().as_int().unwrap(), 0);
    }
}
