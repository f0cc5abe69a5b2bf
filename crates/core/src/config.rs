//! Architecture configuration: what a deployment installs and how.
//!
//! Paper §3.3: "Configurations of the SBDMS depend on the specific
//! environment requirements and on the available services in the system.
//! ... The setup phase consists of process composition according to
//! architectural properties and service configuration. These properties
//! specify the installed services, available resources, and service
//! specific settings."

use std::path::PathBuf;
use std::time::Duration;

use sbdms_access::exec::BATCH_ROWS;
use sbdms_data::ConcurrencyControl;
use sbdms_kernel::binding::BindingKind;
use sbdms_kernel::governor::GovernorConfig;
use sbdms_kernel::resilience::{BreakerConfig, InvokePolicy};
use sbdms_storage::replacement::PolicyKind;

/// Which functional services a deployment installs (paper Fig. 2 layers
/// plus individual extensions). Downsizing = turning entries off
/// (paper §2: "the architecture should be able to adapt to downsized
/// requirements as well").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceSelection {
    /// Storage layer: disk service.
    pub disk: bool,
    /// Storage layer: buffer service.
    pub buffer: bool,
    /// Storage layer: log service.
    pub log: bool,
    /// Access layer: heap service.
    pub heap: bool,
    /// Access layer: index service.
    pub index: bool,
    /// Data layer: query service.
    pub query: bool,
    /// Extension: XML document store.
    pub xml: bool,
    /// Extension: streaming.
    pub streaming: bool,
    /// Extension: stored procedures.
    pub procedures: bool,
    /// Extension: storage monitor (§4).
    pub monitor: bool,
}

impl ServiceSelection {
    /// Everything on.
    pub fn all() -> ServiceSelection {
        ServiceSelection {
            disk: true,
            buffer: true,
            log: true,
            heap: true,
            index: true,
            query: true,
            xml: true,
            streaming: true,
            procedures: true,
            monitor: true,
        }
    }

    /// The minimal relational core: storage + query, no extensions.
    pub fn minimal() -> ServiceSelection {
        ServiceSelection {
            xml: false,
            streaming: false,
            procedures: false,
            monitor: false,
            heap: false,
            index: false,
            ..ServiceSelection::all()
        }
    }

    /// Number of enabled services.
    pub fn count(&self) -> usize {
        [
            self.disk,
            self.buffer,
            self.log,
            self.heap,
            self.index,
            self.query,
            self.xml,
            self.streaming,
            self.procedures,
            self.monitor,
        ]
        .iter()
        .filter(|b| **b)
        .count()
    }
}

/// Tuning of the bus's resilient invocation layer (retries, deadlines,
/// circuit breakers) for one deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Whether the resilient invocation path is active at all. Off means
    /// the seed single-attempt dispatch (benchmarks sweep this).
    pub enabled: bool,
    /// Retries after the first attempt for recoverable errors.
    pub retries: u32,
    /// Total wall-clock budget per invocation, milliseconds (`None` =
    /// unbounded).
    pub deadline_ms: Option<u64>,
    /// Consecutive failures that trip a service's circuit breaker.
    pub breaker_failure_threshold: u32,
    /// Rejected calls while open before a half-open probe is admitted.
    pub breaker_cooldown_calls: u64,
    /// Route around providers self-reporting `Health::Degraded`.
    pub hedge_on_degraded: bool,
}

impl ResilienceConfig {
    /// The kernel invocation policy this configuration selects.
    pub fn invoke_policy(&self) -> InvokePolicy {
        InvokePolicy {
            retries: self.retries,
            deadline: self.deadline_ms.map(Duration::from_millis),
            hedge_on_degraded: self.hedge_on_degraded,
            ..InvokePolicy::default()
        }
    }

    /// The kernel breaker configuration this configuration selects.
    pub fn breaker_config(&self) -> BreakerConfig {
        BreakerConfig {
            failure_threshold: self.breaker_failure_threshold,
            cooldown_calls: self.breaker_cooldown_calls,
            ..BreakerConfig::default()
        }
    }
}

/// Deployment profiles from the paper's §4 discussion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// "A fully-fledged DBMS bundled with extensions."
    FullFledged,
    /// "A small footprint DBMS capable of running in an embedded system
    /// environment": extensions off, tiny buffer, resource budgets low.
    Embedded,
}

/// Which storage device the deployment runs on. Any profile can run on
/// either: the torture suite deploys full architectures onto the
/// deterministic simulator to crash them reproducibly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageMode {
    /// Real files under [`ArchitectureConfig::data_dir`] (the default).
    File,
    /// The in-memory deterministic simulation backend with seeded fault
    /// injection (`sbdms_storage::sim`); `data_dir` is ignored.
    Sim {
        /// Seed for every fault decision the device makes.
        seed: u64,
    },
}

/// Full configuration for the setup phase.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchitectureConfig {
    /// Where data files live.
    pub data_dir: PathBuf,
    /// Installed services.
    pub services: ServiceSelection,
    /// Binding used for deployed services.
    pub binding: BindingKind,
    /// Buffer pool frames.
    pub buffer_frames: usize,
    /// Replacement policy.
    pub replacement: PolicyKind,
    /// Buffer pool lock stripes; `None` derives a count from the
    /// capacity.
    pub buffer_shards: Option<usize>,
    /// Sort memory budget in bytes before spilling to disk.
    pub sort_budget: usize,
    /// Worker threads for parallel sorts (1 = serial).
    pub parallelism: usize,
    /// Plan cache entries (0 disables plan caching).
    pub plan_cache: usize,
    /// Equi-depth histogram buckets collected per column by `ANALYZE`
    /// (0 keeps row counts/min/max/NDV but skips histograms — the
    /// embedded profile's cheaper setting).
    pub histogram_buckets: usize,
    /// Rows per batch of the execution engine. Flexibility by selection
    /// (paper Fig. 6) reduced to the one parameter where the profiles
    /// really differ: large batches amortise per-batch dispatch on a
    /// server, small ones keep operator buffers small on a device.
    /// Results do not depend on it.
    pub execution_engine: usize,
    /// Which concurrency-control service arbitrates transactions: the
    /// embedded profile keeps the cheap single-writer WAL-undo path
    /// (other sessions fail busy while one transaction is open); the
    /// full-fledged profile deploys the kernel MVCC service — snapshot
    /// reads that never block behind writers, first-committer-wins
    /// conflicts surfaced as typed recoverable errors.
    pub concurrency: ConcurrencyControl,
    /// Group-commit window in microseconds: how long a commit leader
    /// holds the WAL sync barrier open so concurrent committers share
    /// one fsync. 0 keeps one sync per commit.
    pub commit_window_micros: u64,
    /// Memory budget tracked by the resource manager, bytes.
    pub memory_budget: u64,
    /// Memory alert threshold, bytes.
    pub memory_alert_below: u64,
    /// Whether policy assertions are enforced on the hot path.
    pub enforce_policies: bool,
    /// Overload protection: the resource governor's admission control,
    /// load shedding, and memory budgets. The full-fledged profile
    /// (concurrent sessions, finite memory) turns it on; the embedded
    /// profile (one caller, one core) runs ungoverned.
    pub governor: GovernorConfig,
    /// Resilient invocation tuning.
    pub resilience: ResilienceConfig,
    /// Storage device: real files or the deterministic simulator.
    pub storage_mode: StorageMode,
}

impl ArchitectureConfig {
    /// Configuration for a profile rooted at `data_dir`.
    pub fn for_profile(profile: Profile, data_dir: impl Into<PathBuf>) -> ArchitectureConfig {
        match profile {
            Profile::FullFledged => ArchitectureConfig {
                data_dir: data_dir.into(),
                services: ServiceSelection::all(),
                binding: BindingKind::InProcess,
                buffer_frames: 256,
                replacement: PolicyKind::Lru,
                // A server-class deployment expects concurrent sessions:
                // stripe the pool, scan and sort on worker threads, and
                // cache plans for repeated statements.
                buffer_shards: Some(8),
                sort_budget: 8 << 20,
                parallelism: 4,
                plan_cache: 64,
                histogram_buckets: 32,
                // Throughput-oriented: full batches amortise the
                // operator dispatch and keep columns cache-resident.
                execution_engine: BATCH_ROWS,
                // Concurrent sessions are the point of a server profile:
                // snapshot isolation keeps readers off writers' backs,
                // and a small group-commit window amortises fsyncs
                // across concurrent committers.
                concurrency: ConcurrencyControl::Mvcc,
                commit_window_micros: 200,
                memory_budget: 64 << 20,
                memory_alert_below: 4 << 20,
                enforce_policies: true,
                // A server deployment shares finite memory across many
                // sessions: admit a bounded number of queries, queue a
                // few more, and shed (or degrade, per contract) the rest
                // rather than thrash.
                governor: GovernorConfig {
                    enabled: true,
                    max_concurrent: 8,
                    queue_depth: 16,
                    queue_wait_ms: 100,
                    memory_capacity: 64 << 20,
                    query_memory: 16 << 20,
                    degraded_sort_budget: 1 << 20,
                },
                // Plenty of headroom: retry generously and hedge away
                // from degraded providers.
                resilience: ResilienceConfig {
                    enabled: true,
                    retries: 3,
                    deadline_ms: Some(250),
                    breaker_failure_threshold: 3,
                    breaker_cooldown_calls: 8,
                    hedge_on_degraded: true,
                },
                storage_mode: StorageMode::File,
            },
            Profile::Embedded => ArchitectureConfig {
                data_dir: data_dir.into(),
                services: ServiceSelection::minimal(),
                binding: BindingKind::InProcess,
                buffer_frames: 16,
                replacement: PolicyKind::Clock,
                // One core, little RAM: a single stripe, serial
                // execution, a small sort budget, and no plan cache.
                buffer_shards: Some(1),
                sort_budget: 256 << 10,
                parallelism: 1,
                plan_cache: 0,
                // Row counts and min/max/NDV still collect (they are a
                // few words per column); histograms are the part whose
                // memory scales with bucket count, so they stay off.
                histogram_buckets: 0,
                // Small batches: per-operator batch buffers stay a
                // sixteenth of the server's on a constrained device.
                execution_engine: 64,
                // One caller at a time: version chains and snapshot
                // bookkeeping buy nothing, so transactions stay on the
                // single-writer undo path and commits sync immediately.
                concurrency: ConcurrencyControl::SingleWriter,
                commit_window_micros: 0,
                memory_budget: 1 << 20,
                memory_alert_below: 128 << 10,
                enforce_policies: true,
                // One embedded caller cannot overload itself: no
                // admission queue, no shedding, no per-query accounting
                // overhead.
                governor: GovernorConfig::default(),
                // Constrained device: fail fast (tight deadline, single
                // retry, eager breaker) rather than burn battery on
                // backoff loops; no hedging — redundant providers are
                // unlikely in an embedded deployment.
                resilience: ResilienceConfig {
                    enabled: true,
                    retries: 1,
                    deadline_ms: Some(50),
                    breaker_failure_threshold: 2,
                    breaker_cooldown_calls: 4,
                    hedge_on_degraded: false,
                },
                storage_mode: StorageMode::File,
            },
        }
    }

    /// Builder: override the binding.
    pub fn with_binding(mut self, binding: BindingKind) -> ArchitectureConfig {
        self.binding = binding;
        self
    }

    /// Builder: override the buffer size.
    pub fn with_buffer_frames(mut self, frames: usize) -> ArchitectureConfig {
        self.buffer_frames = frames;
        self
    }

    /// Builder: override the service selection.
    pub fn with_services(mut self, services: ServiceSelection) -> ArchitectureConfig {
        self.services = services;
        self
    }

    /// Builder: override the buffer shard count.
    pub fn with_buffer_shards(mut self, shards: usize) -> ArchitectureConfig {
        self.buffer_shards = Some(shards);
        self
    }

    /// Builder: override the scan/sort worker count.
    pub fn with_parallelism(mut self, workers: usize) -> ArchitectureConfig {
        self.parallelism = workers.max(1);
        self
    }

    /// Builder: override the sort memory budget.
    pub fn with_sort_budget(mut self, bytes: usize) -> ArchitectureConfig {
        self.sort_budget = bytes.max(1);
        self
    }

    /// Builder: override the plan cache capacity.
    pub fn with_plan_cache(mut self, entries: usize) -> ArchitectureConfig {
        self.plan_cache = entries;
        self
    }

    /// Builder: override the execution engine's rows per batch
    /// (clamped to at least 1).
    pub fn with_execution_engine(mut self, batch_rows: usize) -> ArchitectureConfig {
        self.execution_engine = batch_rows.max(1);
        self
    }

    /// Builder: override the concurrency-control service.
    pub fn with_concurrency(mut self, concurrency: ConcurrencyControl) -> ArchitectureConfig {
        self.concurrency = concurrency;
        self
    }

    /// Builder: override the group-commit window.
    pub fn with_commit_window_micros(mut self, micros: u64) -> ArchitectureConfig {
        self.commit_window_micros = micros;
        self
    }

    /// Builder: override the resilience tuning.
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> ArchitectureConfig {
        self.resilience = resilience;
        self
    }

    /// Builder: override the resource-governor tuning.
    pub fn with_governor(mut self, governor: GovernorConfig) -> ArchitectureConfig {
        self.governor = governor;
        self
    }

    /// Builder: deploy onto the deterministic simulation backend with the
    /// given fault seed instead of real files. `data_dir` is ignored.
    pub fn with_sim_storage(mut self, seed: u64) -> ArchitectureConfig {
        self.storage_mode = StorageMode::Sim { seed };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ_meaningfully() {
        let full = ArchitectureConfig::for_profile(Profile::FullFledged, "/tmp/x");
        let embedded = ArchitectureConfig::for_profile(Profile::Embedded, "/tmp/x");
        assert!(full.services.count() > embedded.services.count());
        assert!(full.buffer_frames > embedded.buffer_frames);
        assert!(full.memory_budget > embedded.memory_budget);
        // The data plane scales out on the server profile and stays
        // strictly serial in the embedded one.
        assert!(full.buffer_shards.unwrap() > embedded.buffer_shards.unwrap());
        assert!(full.parallelism > 1 && embedded.parallelism == 1);
        assert!(full.sort_budget > embedded.sort_budget);
        assert!(full.plan_cache > 0 && embedded.plan_cache == 0);
        // Full deployments afford histograms; embedded keeps only the
        // cheap scalar statistics.
        assert!(full.histogram_buckets > 0 && embedded.histogram_buckets == 0);
        // Flexibility by selection: the one execution engine runs full
        // batches on the server and small ones embedded.
        assert_eq!(full.execution_engine, BATCH_ROWS);
        assert_eq!(embedded.execution_engine, 64);
        // Concurrency control is a profile-selected kernel service:
        // snapshot isolation (plus a group-commit window) on the server,
        // the cheap single-writer path embedded.
        assert_eq!(full.concurrency, ConcurrencyControl::Mvcc);
        assert_eq!(embedded.concurrency, ConcurrencyControl::SingleWriter);
        assert!(full.commit_window_micros > 0 && embedded.commit_window_micros == 0);
        // The embedded profile fails fast; the full profile tries harder.
        assert!(full.resilience.retries > embedded.resilience.retries);
        assert!(full.resilience.deadline_ms > embedded.resilience.deadline_ms);
        assert!(full.resilience.hedge_on_degraded && !embedded.resilience.hedge_on_degraded);
        // Overload protection guards the shared server; the embedded
        // single-caller deployment runs ungoverned.
        assert!(full.governor.enabled && !embedded.governor.enabled);
        assert!(full.governor.max_concurrent > 1);
        assert!(full.governor.queue_depth > 0);
    }

    #[test]
    fn governor_builder_override() {
        let c = ArchitectureConfig::for_profile(Profile::Embedded, "/tmp/x").with_governor(
            GovernorConfig {
                enabled: true,
                max_concurrent: 2,
                ..GovernorConfig::default()
            },
        );
        assert!(c.governor.enabled);
        assert_eq!(c.governor.max_concurrent, 2);
    }

    #[test]
    fn resilience_config_maps_to_kernel_policy() {
        let r = ArchitectureConfig::for_profile(Profile::FullFledged, "/tmp/x").resilience;
        let policy = r.invoke_policy();
        assert_eq!(policy.retries, 3);
        assert_eq!(policy.deadline, Some(Duration::from_millis(250)));
        assert!(policy.hedge_on_degraded);
        let breaker = r.breaker_config();
        assert_eq!(breaker.failure_threshold, 3);
        assert_eq!(breaker.cooldown_calls, 8);
    }

    #[test]
    fn selection_counting() {
        assert_eq!(ServiceSelection::all().count(), 10);
        let minimal = ServiceSelection::minimal();
        assert_eq!(minimal.count(), 4);
        assert!(minimal.query && minimal.disk && !minimal.xml);
    }

    #[test]
    fn builder_overrides() {
        let c = ArchitectureConfig::for_profile(Profile::FullFledged, "/tmp/x")
            .with_binding(BindingKind::Channel)
            .with_buffer_frames(8)
            .with_buffer_shards(2)
            .with_parallelism(0)
            .with_sort_budget(0)
            .with_plan_cache(7)
            .with_execution_engine(0);
        assert_eq!(c.binding, BindingKind::Channel);
        assert_eq!(c.execution_engine, 1);
        assert_eq!(c.buffer_frames, 8);
        assert_eq!(c.buffer_shards, Some(2));
        // Degenerate values clamp to the serial minimum.
        assert_eq!(c.parallelism, 1);
        assert_eq!(c.sort_budget, 1);
        assert_eq!(c.plan_cache, 7);
    }

    #[test]
    fn storage_mode_defaults_to_file_and_sim_is_opt_in() {
        let c = ArchitectureConfig::for_profile(Profile::Embedded, "/tmp/x");
        assert_eq!(c.storage_mode, StorageMode::File);
        let sim = c.with_sim_storage(42);
        assert_eq!(sim.storage_mode, StorageMode::Sim { seed: 42 });
    }
}
