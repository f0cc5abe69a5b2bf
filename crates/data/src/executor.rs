//! The database engine: statement execution over plans, tables, and
//! transactions. This is the object both the monolithic baseline and the
//! data-layer services wrap.

use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use sbdms_access::exec::batch::{BatchStream, PageSource, BATCH_ROWS};
use sbdms_access::exec::engine::VectorEngine;
use sbdms_access::exec::join::JoinAlgorithm;
use sbdms_access::exec;
use sbdms_access::heap::{HeapFile, HeapSpace, Rid};
use sbdms_access::record::{decode_tuple, decode_tuple_into, encode_tuple, Datum, Tuple};
use sbdms_kernel::error::{Result, ServiceError};
use sbdms_kernel::events::{Event, EventBus};
use sbdms_kernel::governor::{CancelToken, ExecContext, Governor, GovernorConfig};
use sbdms_kernel::mvcc::{Mvcc, ReadSnapshot, Ts, Visibility};
use sbdms_storage::buffer::BufferPool;
use sbdms_storage::page::{PageId, SlotId};
use sbdms_storage::services::StorageEngine;

use crate::ast::{AstExpr, Statement};
use crate::catalog::{Catalog, TableMeta, ViewMeta};
use crate::cost::Estimator;
use crate::parser::{lift_literals, parse, parse_counted, Lifted};
use crate::plan_cache::{describe_guards, Binding, PlanCache, PlanCacheStats};
use crate::planner::{
    compile_expr, plan_dml_target, plan_select, BindEnv, CatalogView, Plan,
    PlannedQuery, PlannerKnobs,
};
use crate::schema::Schema;
use crate::session::{
    key_rid, rid_key, ConcurrencyControl, OwnWrite, OwnWrites, RowKey, Session, SessionCore,
    TxnState,
};
use crate::stats::{ColumnStats, TableStats};
use crate::table::Table;
use crate::txn::{Durability, TableResolver, TransactionManager, TxnId, UndoOp};

fn err(msg: impl Into<String>) -> ServiceError {
    ServiceError::InvalidInput(msg.into())
}

/// The recoverable conflict a statement gets while another session
/// holds the single-writer slot.
fn writer_busy() -> ServiceError {
    ServiceError::SerializationConflict {
        reason: "single-writer: database is locked by another session".into(),
    }
}

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    /// Output column labels (SELECT only).
    pub columns: Vec<String>,
    /// Output rows (SELECT only).
    pub rows: Vec<Tuple>,
    /// Rows affected (DML) or 0.
    pub affected: usize,
}

impl QueryResult {
    fn affected(n: usize) -> QueryResult {
        QueryResult {
            affected: n,
            ..QueryResult::default()
        }
    }
}

/// Tunables for opening a [`Database`]. The defaults match the seed
/// engine: 256-frame pool, 8 MiB sort budget, and a modest plan cache.
#[derive(Debug, Clone)]
pub struct DbOptions {
    /// Buffer pool capacity in frames.
    pub buffer_frames: usize,
    /// Retired: the buffer pool's only replacement policy is Clock, so
    /// this field holds nothing. It stays only because the benchmark's
    /// option literal (`perfbench/src/setup.rs`) names it; it goes with
    /// the next change to the benchmark (ROADMAP item 10).
    pub replacement: (),
    /// Buffer pool shard count; `None` derives one from the capacity.
    pub buffer_shards: Option<usize>,
    /// Sort memory budget in bytes before spilling to disk.
    pub sort_budget: usize,
    /// Retired: a sort picks its workers from its input's size, so this
    /// field holds nothing. It stays only because the benchmark's option
    /// literal (`perfbench/src/setup.rs`) names it; it goes with the
    /// next change to the benchmark (ROADMAP item 10).
    pub parallelism: (),
    /// Plan cache entries (0 disables plan caching).
    pub plan_cache_capacity: usize,
    /// Equi-depth histogram buckets per column collected by `ANALYZE`
    /// (0 keeps row counts/min/max/NDV but disables histograms — the
    /// embedded profile's cheaper setting).
    pub histogram_buckets: usize,
    /// Rows per batch of the execution engine, the profile's selection
    /// parameter (full-fledged → 1024, embedded → 64). `None` uses
    /// [`BATCH_ROWS`]. Results do not depend on it.
    pub execution_engine: Option<usize>,
    /// Resource-governor configuration: admission control, load
    /// shedding, and memory budgets. Disabled by default (the embedded
    /// profile's setting); the full-fledged profile enables it.
    pub governor: GovernorConfig,
    /// The profile's concurrency-control service, a policy over the one
    /// buffered write path: single-writer locking (embedded default) or
    /// kernel MVCC snapshot isolation (full-fledged).
    pub concurrency: ConcurrencyControl,
    /// Group-commit window in microseconds: how long a commit leader
    /// holds the WAL sync barrier open for other committers to share the
    /// fsync. 0 (default) keeps one sync per commit.
    pub commit_window_micros: u64,
}

impl Default for DbOptions {
    fn default() -> DbOptions {
        DbOptions {
            buffer_frames: 256,
            replacement: (),
            buffer_shards: None,
            sort_budget: 8 << 20,
            parallelism: (),
            plan_cache_capacity: 64,
            histogram_buckets: crate::stats::HISTOGRAM_BUCKETS,
            execution_engine: None,
            governor: GovernorConfig::default(),
            concurrency: ConcurrencyControl::default(),
            commit_window_micros: 0,
        }
    }
}

/// How one admitted statement runs: its cancellation/memory context,
/// whether the governor degraded it (clamping its sort budget), the
/// session that issued it, the values of its parameters (which a
/// generic plan's index bounds and expressions read), and, under MVCC
/// outside a transaction, the read snapshot its table scans share
/// (pinned by the first one).
struct RunMode {
    ctx: ExecContext,
    degraded: bool,
    session: Arc<SessionCore>,
    params: Vec<Datum>,
    read: OnceLock<Arc<ReadSnapshot>>,
}

/// A statement the plan cache holds: generic over its parameters.
enum Prepared {
    /// A planned SELECT and the base tables it names, whose statistics
    /// a cache hit checks for staleness.
    Select {
        planned: PlannedQuery,
        tables: Vec<String>,
    },
    /// An UPDATE or DELETE with its target access path.
    Write(PlannedWrite),
}

/// An UPDATE (`assignments` set) or DELETE compiled against its table:
/// the new-value expressions by column position, the WHERE predicate
/// (re-applied to every candidate as the residual) and the planner's
/// target access path.
struct PlannedWrite {
    table: String,
    assignments: Option<Vec<(usize, exec::Expr)>>,
    predicate: Option<exec::Expr>,
    leaf: Plan,
    decisions: Vec<String>,
}

/// A statement made ready to run: served by the plan cache, or parsed
/// for a one-off run; both with their parameter values.
enum Ready {
    Cached(Arc<Prepared>, Vec<Datum>),
    Parsed(Statement, Vec<Datum>),
}

/// An embedded SBDMS database engine: the shared handle every
/// [`Session`] runs its statements on. It keeps only database-wide
/// state and settings; each statement's transaction and knobs live in
/// the session that issued it.
pub struct Database {
    engine: StorageEngine,
    catalog: Catalog,
    txns: TransactionManager,
    /// The profile's concurrency-control choice (fixed at open).
    concurrency: ConcurrencyControl,
    /// The kernel MVCC service (`Some` iff `concurrency` is MVCC).
    mvcc: Option<Arc<Mvcc>>,
    /// Id allocator for [`Database::session`]; 0 is never handed out
    /// (a checkpoint holds the single-writer slot under it).
    next_session: AtomicU64,
    /// Under single-writer: the session holding the one writer slot and
    /// how many holds it has (its explicit transaction and any autocommit
    /// statements in flight). Statements from any other session fail
    /// busy with a recoverable `SerializationConflict` while it is set.
    single_owner: Mutex<Option<(u64, usize)>>,
    tables: Mutex<HashMap<String, Arc<Table>>>,
    knobs: Mutex<PlannerKnobs>,
    plan_cache: PlanCache<Prepared>,
    /// Rows per batch of the execution engine (fixed at open).
    batch_rows: usize,
    sort_budget: usize,
    histogram_buckets: usize,
    event_bus: Mutex<Option<EventBus>>,
    plans_selected: AtomicU64,
    governor: Governor,
}

impl Database {
    /// Open (or create) a database in `dir` with default settings
    /// (256-frame buffer pool). Runs crash recovery.
    ///
    /// All open paths return `Arc<Database>`: sessions own a clone of
    /// the handle ([`Database::session`]), so a server can hand
    /// thousands of independently-lived connections their own handles.
    pub fn open(dir: impl AsRef<Path>) -> Result<Arc<Database>> {
        Database::open_opts(dir, DbOptions::default())
    }

    /// Open with the full option set. Runs crash recovery.
    pub fn open_opts(dir: impl AsRef<Path>, opts: DbOptions) -> Result<Arc<Database>> {
        let engine = match opts.buffer_shards {
            Some(shards) => StorageEngine::open_sharded(dir, opts.buffer_frames, shards)?,
            None => StorageEngine::open(dir, opts.buffer_frames)?,
        };
        Database::from_engine(engine, opts)
    }

    /// Open over an arbitrary storage backend — the reopen path the
    /// crash torture suite drives against the deterministic sim device.
    /// Runs crash recovery exactly like the directory-based opens.
    pub fn open_at(
        backend: &dyn sbdms_storage::backend::StorageBackend,
        opts: DbOptions,
    ) -> Result<Arc<Database>> {
        let engine =
            StorageEngine::open_with_backend(backend, opts.buffer_frames, opts.buffer_shards)?;
        Database::from_engine(engine, opts)
    }

    fn from_engine(engine: StorageEngine, opts: DbOptions) -> Result<Arc<Database>> {
        // The write-ahead rule: before any dirty data page is written
        // back (commit force or steal eviction), sync the WAL so the
        // undo records covering that page are durable first. The hook is
        // a no-op when the log is already synced.
        let wal = engine.wal.clone();
        engine
            .buffer
            .set_write_hook(Some(Arc::new(move || wal.sync())));
        let catalog = Catalog::open(engine.buffer.clone())?;
        let txns = TransactionManager::new(engine.wal.clone(), engine.buffer.clone());
        txns.set_commit_window(std::time::Duration::from_micros(opts.commit_window_micros));
        let db = Database {
            engine,
            catalog,
            txns,
            concurrency: opts.concurrency,
            mvcc: match opts.concurrency {
                ConcurrencyControl::Mvcc => Some(Arc::new(Mvcc::new())),
                ConcurrencyControl::SingleWriter => None,
            },
            next_session: AtomicU64::new(1),
            single_owner: Mutex::new(None),
            tables: Mutex::new(HashMap::new()),
            knobs: Mutex::new(PlannerKnobs::default()),
            plan_cache: PlanCache::new(opts.plan_cache_capacity),
            batch_rows: opts.execution_engine.unwrap_or(BATCH_ROWS),
            sort_budget: opts.sort_budget.max(1),
            histogram_buckets: opts.histogram_buckets,
            event_bus: Mutex::new(None),
            plans_selected: AtomicU64::new(0),
            governor: Governor::new(opts.governor),
        };
        let rolled_back = db.txns.recover(&DbResolver { db: &db })?;
        if !rolled_back.is_empty() {
            // Steal write-back makes heap and index pages independently
            // durable: an index entry can persist while its heap row's
            // write was lost (or the reverse). Value-based undo restores
            // the heap; the indexes are rebuilt from it wholesale.
            for name in db.catalog.table_names() {
                let mut t = Table::open(&db.catalog, &name)?;
                t.rebuild_indexes(&db.catalog)?;
            }
            db.engine.buffer.flush_all()?;
        }
        Ok(Arc::new(db))
    }

    /// The underlying storage engine (for services and monitoring).
    pub fn storage(&self) -> &StorageEngine {
        &self.engine
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Set commit durability.
    pub fn set_durability(&self, d: Durability) {
        self.txns.set_durability(d);
    }

    /// Force every equi-join onto one algorithm regardless of cost
    /// estimates (`None` hands control back to the cost model). The
    /// strongest override tier — used by experiments to build forced
    /// baselines against the cost-based plans.
    pub fn force_join_algorithm(&self, algorithm: Option<JoinAlgorithm>) {
        self.knobs.lock().forced_join = algorithm;
    }

    /// Enable or disable cost-based join reordering (on by default).
    pub fn set_join_reordering(&self, on: bool) {
        self.knobs.lock().join_reordering = on;
    }

    /// Enable or disable index access-path selection (on by default).
    /// Off forces sequential scans everywhere — the forced baseline for
    /// the access-path experiments.
    pub fn set_index_selection(&self, on: bool) {
        self.knobs.lock().index_selection = on;
    }

    /// Attach a kernel event bus: each freshly planned query that made a
    /// choice (and each degraded run) publishes a `plan.selected` event
    /// describing it, and the governor publishes `governor.shed` /
    /// `governor.degraded` events.
    pub fn set_event_bus(&self, bus: EventBus) {
        self.governor.set_event_bus(bus.clone());
        *self.event_bus.lock() = Some(bus);
    }

    /// The resource governor (admission control, load shedding, memory
    /// budgets) — for monitoring and experiments.
    pub fn governor(&self) -> &Governor {
        &self.governor
    }

    /// The cancellation/memory context for one statement of one session.
    fn exec_context(&self, core: &SessionCore) -> ExecContext {
        let cancel = if let Some(tok) = core.cancel.lock().clone() {
            tok
        } else if let Some(ms) = *core.deadline_ms.lock() {
            CancelToken::with_deadline(std::time::Duration::from_millis(ms))
        } else {
            CancelToken::new()
        };
        ExecContext {
            cancel,
            memory: self.governor.query_memory(*core.memory_limit.lock()),
        }
    }

    /// Number of plans selected (planned fresh, not served from cache)
    /// since open — the planner's decision counter.
    pub fn plans_selected(&self) -> u64 {
        self.plans_selected.load(Ordering::Relaxed)
    }

    /// Sample `table` and store optimizer statistics (row count and
    /// per-column min/max/NDV/null-count/histogram) in the catalog.
    /// Bumps the statistics version so cached plans are re-costed. One
    /// heap walk per column decodes only that column, so ANALYZE holds
    /// one column's values at a time, never the table's rows.
    pub fn analyze(&self, table: &str) -> Result<()> {
        let t = self.table(table)?;
        let width = t.schema().len();
        let mut stats = TableStats {
            row_count: 0,
            columns: Default::default(),
        };
        for (i, col) in t.schema().columns.iter().enumerate() {
            let keep: Vec<bool> = (0..width).map(|c| c == i).collect();
            let mut row: Vec<Vec<Datum>> = vec![Vec::with_capacity(1); width];
            let mut values = Vec::new();
            t.heap().walk(|_, record| {
                decode_tuple_into(record, &mut row, Some(&keep))?;
                values.extend(row[i].pop());
                row.iter_mut().for_each(Vec::clear);
                Ok(())
            })?;
            stats.row_count = values.len() as u64;
            let column = ColumnStats::collect(values, self.histogram_buckets);
            stats.columns.insert(col.name.to_lowercase(), column);
        }
        self.catalog.update_stats(&table.to_lowercase(), stats)
    }

    /// The profile's concurrency-control choice.
    pub fn concurrency(&self) -> ConcurrencyControl {
        self.concurrency
    }

    /// The kernel MVCC service, when the profile selected it.
    pub fn mvcc(&self) -> Option<&Arc<Mvcc>> {
        self.mvcc.as_ref()
    }

    /// Open a new session: an independent logical client with its own
    /// transaction and statement knobs. The session *owns* a database
    /// handle, so it is `Send + 'static` — move it onto a connection
    /// thread and drop it whenever the client goes away. Sessions
    /// interleave under the profile's concurrency-control service.
    pub fn session(self: &Arc<Self>) -> Session {
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        Session {
            db: self.clone(),
            core: SessionCore::new(id),
        }
    }

    /// The busy check of the single-writer service: while another
    /// session holds the writer slot, every statement from this one
    /// fails immediately with a recoverable conflict (no blocking, no
    /// deadlocks — the caller retries). A no-op under MVCC.
    fn check_single_writer_busy(&self, core: &SessionCore) -> Result<()> {
        if self.mvcc.is_some() {
            return Ok(());
        }
        match *self.single_owner.lock() {
            Some((owner, _)) if owner != core.id => Err(writer_busy()),
            _ => Ok(()),
        }
    }

    /// The single-writer lock policy: take a hold on the writer slot
    /// for session `session`, or fail busy if another session has it —
    /// the check and the claim are one step under the slot's lock. A
    /// no-op under MVCC. Every hold ends in [`Database::release_writer`].
    fn claim_writer(&self, session: u64) -> Result<()> {
        if self.mvcc.is_some() {
            return Ok(());
        }
        let mut owner = self.single_owner.lock();
        match &mut *owner {
            None => *owner = Some((session, 1)),
            Some((id, holds)) if *id == session => *holds += 1,
            Some(_) => return Err(writer_busy()),
        }
        Ok(())
    }

    /// Drop one hold on the writer slot (a no-op under MVCC).
    fn release_writer(&self) {
        if self.mvcc.is_some() {
            return;
        }
        let mut owner = self.single_owner.lock();
        if let Some((_, holds)) = &mut *owner {
            *holds -= 1;
            if *holds == 0 {
                *owner = None;
            }
        }
    }

    /// A fresh transaction: its WAL id and, under MVCC, a snapshot.
    fn txn_state(&self) -> TxnState {
        TxnState::new(
            self.txns.begin(),
            self.mvcc.as_ref().map(|mvcc| mvcc.begin()),
        )
    }

    /// Drop a transaction that never reached the heap: the write set is
    /// discarded, and under MVCC its locks and snapshot are released.
    fn discard(&self, state: TxnState) {
        if let (Some(mvcc), Some(txn)) = (&self.mvcc, &state.mvcc) {
            mvcc.rollback(txn);
        }
    }

    /// Flush everything and truncate the log, excluded from every commit
    /// apply so no half-applied write set becomes durable with its undo
    /// truncated. Under MVCC it holds the apply latch shared across flush
    /// and truncate (scans run on, commits wait); under single-writer it
    /// holds the writer slot, so it refuses while any session has a
    /// transaction open.
    pub fn checkpoint(&self) -> Result<()> {
        let _latch = self.mvcc.as_ref().map(|mvcc| mvcc.read_latch());
        self.claim_writer(0).map_err(|_| {
            ServiceError::Transaction("cannot checkpoint inside a transaction".into())
        })?;
        let out = self.txns.checkpoint();
        self.release_writer();
        out
    }

    /// Plan-cache hit/miss counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// The generic plan the cache holds for the SELECT `sql` (with its
    /// literals lifted), if any; parameters stay [`exec::Expr::Param`]
    /// in it. A diagnostic read: it counts no lookup.
    pub fn cached_plan(&self, sql: &str) -> Option<Plan> {
        let lifted = lift_literals(sql, &[]).ok()??;
        let prepared = self.plan_cache.peek(&lifted.text, &lifted.params, self.plan_epoch())?;
        match &*prepared {
            Prepared::Select { planned, .. } => Some(planned.plan.clone()),
            Prepared::Write(_) => None,
        }
    }

    /// The epoch cached plans are valid under: the catalog schema
    /// version and the statistics version (so both DDL and `ANALYZE`
    /// invalidate plans), salted with the planner knobs so flipping any
    /// of them re-plans too.
    fn plan_epoch(&self) -> u64 {
        let k = self.knobs.lock();
        let forced: u64 = match k.forced_join {
            None => 0,
            Some(JoinAlgorithm::NestedLoop) => 1,
            Some(JoinAlgorithm::Hash) => 2,
        };
        let knob_bits =
            (forced << 2) | ((k.join_reordering as u64) << 1) | (k.index_selection as u64);
        (self.catalog.version() << 40) ^ (self.catalog.stats_version() << 10) ^ knob_bits
    }

    /// Re-`ANALYZE` any of `tables` whose statistics have gone stale
    /// (enough writes since the last sample), returning whether any did.
    /// Only previously analyzed tables refresh — statistics stay opt-in.
    fn refresh_stale_stats<'t>(&self, tables: impl IntoIterator<Item = &'t String>) -> Result<bool> {
        let mut refreshed = false;
        for name in tables {
            if self.catalog.stats_stale(name) {
                self.analyze(name)?;
                refreshed = true;
            }
        }
        Ok(refreshed)
    }

    /// Count a fresh planning decision and publish it on the event bus.
    fn note_plan_selected(&self, sql: &str, decisions: &[String]) {
        self.plans_selected.fetch_add(1, Ordering::Relaxed);
        if decisions.is_empty() {
            return;
        }
        if let Some(bus) = self.event_bus.lock().as_ref() {
            bus.publish(Event::Custom {
                topic: "plan.selected".into(),
                detail: format!("{sql} :: {}", decisions.join("; ")),
            });
        }
    }

    /// [`Session::execute_params`] past admission, under one run mode.
    fn execute_with(&self, sql: &str, given: &[Datum], mode: &mut RunMode) -> Result<QueryResult> {
        match self.ready(sql, given)? {
            Ready::Cached(prepared, params) => {
                mode.params = params;
                match &*prepared {
                    Prepared::Select { planned, .. } => {
                        self.note_degraded_run(sql, mode);
                        self.run_planned_with(planned, mode)
                    }
                    Prepared::Write(write) => self.run_write(write, mode),
                }
            }
            Ready::Parsed(stmt, params) => {
                mode.params = params;
                self.run_statement(stmt, mode)
            }
        }
    }

    /// Make `sql` (with the values `given` for its `?` placeholders)
    /// ready to run. A SELECT, UPDATE or DELETE has its literals lifted
    /// into parameters and is served by the plan cache; EXPLAIN is
    /// lifted the same way so it shows the generic plan; anything else
    /// is parsed as it stands. The keyword peek keeps other statements
    /// off the cache (and out of its hit/miss accounting).
    fn ready(&self, sql: &str, given: &[Datum]) -> Result<Ready> {
        let verb = sql
            .trim_start()
            .split(|c: char| !c.is_ascii_alphabetic())
            .next()
            .unwrap_or("");
        let is = |kw: &str| verb.eq_ignore_ascii_case(kw);
        let cached = is("select") || is("update") || is("delete");
        if cached || is("explain") {
            if let Some(Lifted { text, params }) = lift_literals(sql, given)? {
                if !cached {
                    return Ok(Ready::Parsed(parse(&text)?, params));
                }
                let prepared = self.generic_plan(&text, &params)?;
                return Ok(Ready::Cached(prepared, params));
            }
        }
        Ok(Ready::Parsed(parse(sql)?, given.to_vec()))
    }

    /// The cached generic plan of `shape` for `params`, or a fresh one
    /// planned with those values and cached with the guards its choices
    /// recorded. A hit whose tables' statistics went stale re-samples
    /// them and plans afresh.
    fn generic_plan(&self, shape: &str, params: &[Datum]) -> Result<Arc<Prepared>> {
        if let Some(prepared) = self.plan_cache.get(shape, params, self.plan_epoch()) {
            let fresh = match &*prepared {
                Prepared::Select { tables, .. } => !self.refresh_stale_stats(tables)?,
                Prepared::Write(_) => true,
            };
            if fresh {
                return Ok(prepared);
            }
        }
        let binding = Binding::new(self, params);
        let (prepared, epoch) = match parse(shape)? {
            Statement::Select(select) => {
                let tables: Vec<String> = select
                    .from
                    .iter()
                    .chain(select.joins.iter().map(|j| &j.table))
                    .cloned()
                    .collect();
                self.refresh_stale_stats(&tables)?;
                // The epoch after the refresh: a refresh bumps it.
                let epoch = self.plan_epoch();
                let planned = plan_select(&select, &binding)?;
                (Prepared::Select { planned, tables }, epoch)
            }
            Statement::Update { table, set, filter } => {
                let epoch = self.plan_epoch();
                let write = self.plan_write(&table, Some(&set), filter.as_ref(), &binding)?;
                (Prepared::Write(write), epoch)
            }
            Statement::Delete { table, filter } => {
                let epoch = self.plan_epoch();
                (Prepared::Write(self.plan_write(&table, None, filter.as_ref(), &binding)?), epoch)
            }
            _ => return Err(err("only SELECT, UPDATE and DELETE plans are cached")),
        };
        let decisions = match &prepared {
            Prepared::Select { planned, .. } => &planned.decisions,
            Prepared::Write(write) => &write.decisions,
        };
        self.note_plan_selected(shape, decisions);
        let prepared = Arc::new(prepared);
        self.plan_cache
            .insert(shape, params, binding.guards(), epoch, prepared.clone());
        Ok(prepared)
    }

    /// Compile an UPDATE (`set` given) or DELETE against `table` and
    /// plan its target access path.
    fn plan_write(
        &self,
        table: &str,
        set: Option<&[(String, AstExpr)]>,
        filter: Option<&AstExpr>,
        catalog: &dyn CatalogView,
    ) -> Result<PlannedWrite> {
        let t = self.table(table)?;
        let schema = t.schema();
        let mut env = BindEnv::default();
        env.push_table(table, schema);
        let assignments = set
            .map(|set| {
                set.iter()
                    .map(|(col, e)| {
                        let pos = schema
                            .index_of(col)
                            .ok_or_else(|| err(format!("no column `{col}` in `{table}`")))?;
                        Ok((pos, compile_expr(e, &env)?))
                    })
                    .collect::<Result<_>>()
            })
            .transpose()?;
        let predicate = filter.map(|f| compile_expr(f, &env)).transpose()?;
        let (leaf, decisions) = plan_dml_target(&t.meta().name, predicate.as_ref(), catalog)?;
        Ok(PlannedWrite {
            table: t.meta().name.clone(),
            assignments,
            predicate,
            leaf,
            decisions,
        })
    }

    /// Publish the degradation decision for this run. Cached plans keep
    /// their normal decision strings (the cache is shared across runs),
    /// so a degraded admission announces itself per execution.
    fn note_degraded_run(&self, sql: &str, mode: &RunMode) {
        if !mode.degraded {
            return;
        }
        if let Some(bus) = self.event_bus.lock().as_ref() {
            bus.publish(Event::Custom {
                topic: "plan.selected".into(),
                detail: format!("{sql} :: {}", self.degraded_decision()),
            });
        }
    }

    /// The sort budget a degraded admission runs with.
    fn degraded_sort_budget(&self) -> usize {
        self.governor.config().degraded_sort_budget.max(1)
    }

    /// The decision line that announces a degraded admission.
    fn degraded_decision(&self) -> String {
        format!("degraded: overload (sort budget {})", self.degraded_sort_budget())
    }

    /// Run one parsed statement under one run mode.
    fn run_statement(&self, stmt: Statement, mode: &RunMode) -> Result<QueryResult> {
        // DDL versions neither the catalog nor the schema: inside an
        // open snapshot transaction it cannot be isolated or rolled
        // back, so MVCC rejects it there (autocommit DDL is fine).
        if self.mvcc.is_some()
            && !matches!(
                stmt,
                Statement::Insert { .. }
                    | Statement::Update { .. }
                    | Statement::Delete { .. }
                    | Statement::Select(_)
                    | Statement::Explain(_)
            )
            && mode.session.txn.lock().is_some()
        {
            return Err(ServiceError::Transaction(
                "DDL is not allowed inside a transaction under mvcc".into(),
            ));
        }
        match stmt {
            Statement::CreateTable { name, columns } => {
                let schema = Schema::new(columns)?;
                Table::create(&self.catalog, &name, schema)?;
                self.tables.lock().remove(&name);
                Ok(QueryResult::affected(0))
            }
            Statement::CreateIndex { name, table, columns } => {
                let mut t = Table::open(&self.catalog, &table)?;
                t.create_index(&self.catalog, &name, &columns)?;
                self.tables.lock().remove(&table);
                Ok(QueryResult::affected(0))
            }
            Statement::DropIndex { name, table } => {
                let mut t = Table::open(&self.catalog, &table)?;
                t.drop_index(&self.catalog, &name)?;
                self.tables.lock().remove(&table);
                Ok(QueryResult::affected(0))
            }
            Statement::CreateView { name, query_text, query } => {
                // Validate the view by planning it now.
                plan_select(&query, self)?;
                self.catalog.create_view(ViewMeta {
                    name,
                    query: query_text,
                })?;
                Ok(QueryResult::affected(0))
            }
            Statement::DropTable { name } => {
                let table = Table::open(&self.catalog, &name)?;
                table.drop(&self.catalog)?;
                self.tables.lock().remove(&name);
                if let Some(mvcc) = &self.mvcc {
                    mvcc.forget_table(&name.to_lowercase());
                }
                Ok(QueryResult::affected(0))
            }
            Statement::DropView { name } => {
                self.catalog.drop_view(&name)?;
                Ok(QueryResult::affected(0))
            }
            Statement::Insert { table, columns, rows } => {
                self.run_insert(&table, columns, rows, mode)
            }
            Statement::Update { table, set, filter } => {
                let binding = Binding::new(self, &mode.params);
                let write = self.plan_write(&table, Some(&set), filter.as_ref(), &binding)?;
                self.run_write(&write, mode)
            }
            Statement::Delete { table, filter } => {
                let binding = Binding::new(self, &mode.params);
                self.run_write(&self.plan_write(&table, None, filter.as_ref(), &binding)?, mode)
            }
            Statement::Select(select) => {
                let planned = plan_select(&select, &Binding::new(self, &mode.params))?;
                self.run_planned_with(&planned, mode)
            }
            Statement::Analyze { table } => {
                self.analyze(&table)?;
                Ok(QueryResult::affected(0))
            }
            Statement::Explain(stmt) => self.run_explain(&stmt, mode),
        }
    }

    /// Plan a SELECT, or the target rows of an UPDATE/DELETE, and return
    /// its annotated plan (one row per line) instead of executing it.
    /// Each node line carries the estimated rows and cost, with the
    /// statement's parameter values in place; the planner's selection
    /// decisions follow as `-- ...` comment lines, then, for a statement
    /// with parameters, the `-- generic: ...` line naming the values
    /// the cached plan serves. A DML plan is its target access path
    /// under the residual WHERE.
    fn run_explain(&self, stmt: &Statement, mode: &RunMode) -> Result<QueryResult> {
        let estimator = Estimator::new(self);
        let binding = Binding::new(self, &mode.params);
        let (mut lines, mut decisions) = match stmt {
            Statement::Select(select) => {
                let planned = plan_select(select, &binding)?;
                let plan = planned.plan.bind(&mode.params);
                (estimator.explain_annotated(&plan), planned.decisions)
            }
            Statement::Update { table, set, filter } => {
                let write = self.plan_write(table, Some(set), filter.as_ref(), &binding)?;
                (self.explain_write("Update", &write, &mode.params), write.decisions)
            }
            Statement::Delete { table, filter } => {
                let write = self.plan_write(table, None, filter.as_ref(), &binding)?;
                (self.explain_write("Delete", &write, &mode.params), write.decisions)
            }
            _ => return Err(err("EXPLAIN takes SELECT, UPDATE or DELETE")),
        };
        if mode.degraded && matches!(stmt, Statement::Select(_)) {
            decisions.push(self.degraded_decision());
        }
        if !mode.params.is_empty() {
            decisions.push(describe_guards(&binding.guards(), mode.params.len()));
        }
        decisions.push(format!("concurrency: {} (profile)", self.concurrency));
        lines.extend(decisions.iter().map(|d| format!("-- {d}")));
        Ok(QueryResult {
            columns: vec!["plan".into()],
            rows: lines.into_iter().map(|l| vec![Datum::Str(l)]).collect(),
            affected: 0,
        })
    }

    /// The annotated node lines of a write's target: its access path
    /// under the residual WHERE.
    fn explain_write(&self, verb: &str, write: &PlannedWrite, params: &[Datum]) -> Vec<String> {
        let target = match &write.predicate {
            Some(predicate) => Plan::Filter {
                input: Box::new(write.leaf.clone()),
                predicate: predicate.clone(),
            },
            None => write.leaf.clone(),
        };
        let mut lines = vec![format!("{verb} {}", write.table)];
        let nodes = Estimator::new(self).explain_annotated(&target.bind(params));
        lines.extend(nodes.into_iter().map(|l| format!("| {l}")));
        lines
    }

    /// Run a planned query on the engine at the profile's batch size. A
    /// degraded admission runs the same engine with its sort budget
    /// clamped to the governor's `degraded_sort_budget`.
    fn run_planned_with(&self, planned: &PlannedQuery, mode: &RunMode) -> Result<QueryResult> {
        let sort_budget = if mode.degraded {
            self.degraded_sort_budget()
        } else {
            self.sort_budget
        };
        let engine = VectorEngine {
            batch_rows: self.batch_rows,
            ctx: mode.ctx.clone(),
        };
        let stream = self.run_plan_budgeted(&engine, &planned.plan, None, sort_budget, mode)?;
        let rows = engine.collect(stream)?;
        Ok(QueryResult {
            columns: planned.columns.clone(),
            rows,
            affected: 0,
        })
    }

    /// Table handle (cached).
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        let name = name.to_lowercase();
        if let Some(t) = self.tables.lock().get(&name) {
            return Ok(t.clone());
        }
        let t = Arc::new(Table::open(&self.catalog, &name)?);
        self.tables.lock().insert(name, t.clone());
        Ok(t)
    }

    /// Free space of each open table's heap, by table name, read from
    /// the heaps' free-space maps without touching a page. A table whose
    /// handle is not open, or whose map no insert has built since it
    /// opened, is left out (see [`HeapFile::space`]).
    pub fn heap_space(&self) -> Vec<(String, HeapSpace)> {
        let mut out: Vec<(String, HeapSpace)> = self
            .tables
            .lock()
            .iter()
            .filter_map(|(name, t)| Some((name.clone(), t.heap().space()?)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Run `f` against the session's open transaction — or, in
    /// autocommit, against a fresh implicit one that commits (or is
    /// discarded) around it, holding the writer slot meanwhile.
    fn with_txn<R>(&self, mode: &RunMode, f: impl FnOnce(&mut TxnState) -> Result<R>) -> Result<R> {
        let core = &mode.session;
        if let Some(state) = core.txn.lock().as_mut() {
            return f(state);
        }
        self.claim_writer(core.id)?;
        let mut state = self.txn_state();
        let out = match f(&mut state) {
            Ok(out) => self.commit_txn(state).map(|()| out),
            Err(e) => {
                self.discard(state);
                Err(e)
            }
        };
        self.release_writer();
        out
    }

    /// Apply a buffered write set: the one way a write reaches the heap.
    /// Under MVCC it first takes the commit window (apply latch + commit
    /// timestamp). Each row change is undo-logged to the WAL as it is
    /// applied; the commit record follows, version bookkeeping is
    /// installed (MVCC only) and the latch released — and only then does
    /// the commit wait on the (group) fsync, so the durability stall
    /// never blocks snapshot readers. Version ops are replayed onto the
    /// guard only after the whole apply succeeded. A failed apply is
    /// reverted ([`Database::revert`]) and, under MVCC, aborts with its
    /// chains untouched.
    fn commit_txn(&self, state: TxnState) -> Result<()> {
        let guard = self
            .mvcc
            .as_ref()
            .zip(state.mvcc.as_ref())
            .map(|(mvcc, txn)| mvcc.commit_begin(txn));
        if state.buffered_rows() == 0 {
            if let Some(guard) = guard {
                guard.finish();
            }
            return Ok(());
        }
        let mut applied = Vec::with_capacity(state.buffered_rows());
        let barrier = match self
            .apply(&state, &mut applied)
            .and_then(|()| self.txns.commit_publish(state.id))
        {
            Ok(barrier) => barrier,
            Err(e) => {
                self.revert(state.id, &applied);
                return Err(e); // dropping the guard aborts the MVCC transaction
            }
        };
        for (table, rows) in &state.overlay {
            self.catalog.note_writes(table, rows.len() as u64);
        }
        if let Some(guard) = guard {
            for a in &applied {
                match a.write {
                    OwnWrite::Heap { old, .. } => {
                        guard.record_supersede(a.table, rid_key(a.rid), encode_tuple(old))
                    }
                    OwnWrite::Local(_) => guard.record_install(a.table, rid_key(a.rid)),
                }
            }
            guard.finish();
        }
        self.txns.commit_sync(barrier)
    }

    /// Put the write set into the heap, in write-set order, undo-logging
    /// each row. `applied` collects every change that took effect.
    fn apply<'s>(&self, state: &'s TxnState, applied: &mut Vec<Applied<'s>>) -> Result<()> {
        for (table, rows) in &state.overlay {
            let t = self.table(table)?;
            for (key, write) in rows {
                let (rid, undo) = match (key, write) {
                    (
                        RowKey::Heap(rid),
                        OwnWrite::Heap {
                            old,
                            new: Some(img),
                        },
                    ) => {
                        t.update(*rid, img.clone())?;
                        (*rid, UndoOp::update(table, old, img))
                    }
                    (RowKey::Heap(rid), OwnWrite::Heap { old, new: None }) => {
                        t.delete(*rid)?;
                        (*rid, UndoOp::delete(table, old))
                    }
                    (RowKey::Local(_), OwnWrite::Local(img)) => {
                        (t.insert(img.clone())?, UndoOp::insert(table, img))
                    }
                    _ => return Err(ServiceError::Internal("mismatched write-set entry".into())),
                };
                applied.push(Applied { table, rid, write });
                self.txns.record(state.id, undo)?;
            }
        }
        Ok(())
    }

    /// Undo the applied prefix of a failed commit apply from the
    /// in-memory write set: newest first, by rid, slot for slot, with no
    /// log read and no table scan, then close the WAL transaction with
    /// an abort record. The reverted pages are written back first, so
    /// the abort is not durable while a stolen page still shows the
    /// applied change (unless that write-back fails too). If the revert
    /// itself fails, the transaction stays open in the log and crash
    /// recovery undoes it at the next open.
    fn revert(&self, txn: TxnId, applied: &[Applied]) {
        let undo = || -> Result<()> {
            for a in applied.iter().rev() {
                let t = self.table(a.table)?;
                match a.write {
                    OwnWrite::Heap { old, new: Some(_) } => {
                        t.update(a.rid, old.clone()).map(drop)?
                    }
                    OwnWrite::Heap { old, new: None } => t.restore(a.rid, old.clone())?,
                    OwnWrite::Local(_) => t.delete(a.rid).map(drop)?,
                }
            }
            Ok(())
        };
        if undo().is_ok() {
            // Best effort: under a persistent I/O fault the pages stay
            // dirty in the pool and reach disk with the next flush.
            let _ = self.engine.buffer.flush_all();
            let _ = self.txns.abort(txn);
        }
    }

    /// The rows a row-access leaf (`TableScan`, `IndexScan`, `IndexOr`,
    /// `IndexAnd`) reaches, with their row keys: the one path by which
    /// DML target lists and index leaves read a table, in either CC
    /// mode. A table scan is a [`TableRead`] walked page by page. An
    /// index leaf collects its B-tree probes' rids under the read latch;
    /// with neither an MVCC snapshot nor own writes to the table, the
    /// committed heap is the answer and the probes are exact against
    /// it. Otherwise each candidate resolves through [`resolve`], and
    /// the rows the transaction sees that no probe reached follow
    /// ([`unreached`]). Every image that is not the current heap
    /// occupant is re-checked against the leaf's key bounds.
    /// Cancellation is checked every page, or every
    /// [`exec::CANCEL_QUANTUM`] candidates.
    fn access_rows(
        &self,
        t: &Table,
        leaf: &Plan,
        state: Option<&TxnState>,
        mode: &RunMode,
    ) -> Result<Vec<(RowKey, Tuple)>> {
        if let Plan::TableScan { .. } = leaf {
            let read = self.table_read(t, state, mode, None);
            return read.rows(t.heap().data_pages()?, t.schema().len(), &mode.ctx);
        }
        let _latch = self.mvcc.as_ref().map(|m| m.read_latch());
        let rids = index_rids(t, leaf, &mode.params)?;
        let mut out = Vec::with_capacity(rids.len());
        let table = t.meta().name.as_str();
        let own = state.and_then(|s| s.overlay.get(table));
        let snapshot = self.mvcc.as_ref().zip(state.and_then(|s| s.mvcc.as_ref()));
        if own.is_none() && snapshot.is_none() {
            for (i, rid) in rids.into_iter().enumerate() {
                if i % exec::CANCEL_QUANTUM == 0 {
                    mode.ctx.check()?;
                }
                out.push((RowKey::Heap(rid), t.get(rid)?));
            }
            return Ok(out);
        }
        let admits = key_bounds(t, leaf, &mode.params)?;
        let mut reached: BTreeSet<RowKey> = BTreeSet::new();
        for (i, rid) in rids.into_iter().enumerate() {
            if i % exec::CANCEL_QUANTUM == 0 {
                mode.ctx.check()?;
            }
            let key = RowKey::Heap(rid);
            if !reached.insert(key) {
                continue;
            }
            let visibility = || {
                snapshot.map_or(Visibility::Current, |(mvcc, txn)| {
                    mvcc.visibility(table, rid_key(rid), txn.snapshot)
                })
            };
            match resolve(own, key, visibility) {
                Seen::Heap => out.push((key, t.get(rid)?)),
                Seen::Image(img) => {
                    let img = img.into_tuple()?;
                    if admits(&img) {
                        out.push((key, img));
                    }
                }
                Seen::Nothing => {}
            }
        }
        let chain =
            snapshot.map_or_else(Vec::new, |(mvcc, txn)| mvcc.chain_rows(table, txn.snapshot));
        let rest = unreached(chain, own, |key| reached.contains(&key));
        for (i, (key, img)) in rest.into_iter().enumerate() {
            if i % exec::CANCEL_QUANTUM == 0 {
                mode.ctx.check()?;
            }
            let img = img.into_tuple()?;
            if admits(&img) {
                out.push((key, img));
            }
        }
        Ok(out)
    }

    /// A page-by-page read of `t`. It merges the open transaction's own
    /// writes into the committed heap and, under MVCC, resolves against
    /// the transaction's snapshot or, outside a transaction, against the
    /// statement's read snapshot (pinned by the first read and shared by
    /// every table the statement reads). Take the heap's page list after
    /// this call, so it covers every page the snapshot can see. Columns
    /// `keep` marks false are left NULL.
    fn table_read(
        &self,
        t: &Table,
        state: Option<&TxnState>,
        mode: &RunMode,
        keep: Option<Vec<bool>>,
    ) -> TableRead {
        let table = &t.meta().name;
        let own = state.and_then(|s| s.overlay.get(table));
        let versions = match (&self.mvcc, state.and_then(|s| s.mvcc.as_ref())) {
            (None, _) => None,
            (Some(mvcc), Some(txn)) => Some((mvcc.clone(), txn.snapshot, None)),
            (Some(mvcc), None) => {
                let pin = mode.read.get_or_init(|| Arc::new(mvcc.read_snapshot()));
                Some((mvcc.clone(), pin.ts(), Some(pin.clone())))
            }
        };
        let snapshot = (versions.is_some() || own.is_some()).then(|| SnapshotRead {
            versions,
            table: table.clone(),
            own: own.cloned().unwrap_or_default(),
            walked: Vec::new(),
        });
        TableRead {
            buffer: t.heap().buffer().clone(),
            snapshot,
            keep,
            keys: None,
        }
    }

    /// The rows an UPDATE or DELETE targets: the planner's access path
    /// `leaf` over the WHERE conjuncts, with the whole (bound) WHERE
    /// re-applied as the residual. Every cancellation check happens
    /// here, before any mutation: a cancelled autocommit statement
    /// touches zero rows, and an explicit transaction unwinds through
    /// its rollback. Targets come in row-key order whichever path found
    /// them.
    fn dml_targets(
        &self,
        t: &Table,
        leaf: &Plan,
        predicate: Option<&exec::Expr>,
        state: Option<&TxnState>,
        mode: &RunMode,
    ) -> Result<Vec<(RowKey, Tuple)>> {
        let mut out = Vec::new();
        for (key, row) in self.access_rows(t, leaf, state, mode)? {
            if predicate.map_or(Ok(true), |p| p.eval(&row).map(|d| d.is_true()))? {
                out.push((key, row));
            }
        }
        out.sort_by_key(|(key, _)| *key);
        Ok(out)
    }

    fn run_insert(
        &self,
        table: &str,
        columns: Option<Vec<String>>,
        rows: Vec<Vec<AstExpr>>,
        mode: &RunMode,
    ) -> Result<QueryResult> {
        mode.ctx.check()?;
        let t = self.table(table)?;
        let schema = t.schema().clone();
        // Map provided columns onto schema positions; missing -> NULL.
        let positions: Vec<usize> = match &columns {
            None => (0..schema.len()).collect(),
            Some(cols) => cols
                .iter()
                .map(|c| {
                    schema
                        .index_of(c)
                        .ok_or_else(|| err(format!("no column `{c}` in `{table}`")))
                })
                .collect::<Result<_>>()?,
        };
        let empty_env = BindEnv::default();
        let mut tuples: Vec<Tuple> = Vec::with_capacity(rows.len());
        for row in rows {
            if row.len() != positions.len() {
                return Err(err(format!(
                    "INSERT expects {} values, got {}",
                    positions.len(),
                    row.len()
                )));
            }
            let mut tuple: Tuple = vec![Datum::Null; schema.len()];
            for (expr, &pos) in row.iter().zip(&positions) {
                // Literal-only expressions (no columns in scope).
                let compiled = compile_expr(expr, &empty_env)?.bind(&mode.params);
                tuple[pos] = compiled.eval(&vec![])?;
            }
            tuples.push(tuple);
        }
        // Buffer into the write set; the heap is untouched until commit.
        // Validate now so the overlay holds stored images.
        let stored: Vec<Tuple> = tuples
            .into_iter()
            .map(|tuple| schema.validate(tuple))
            .collect::<Result<_>>()?;
        let n = stored.len();
        self.with_txn(mode, |state| {
            let entry = state.overlay.entry(t.meta().name.clone()).or_default();
            for img in stored {
                let k = RowKey::Local(state.next_local);
                state.next_local += 1;
                entry.insert(k, OwnWrite::Local(img));
            }
            Ok(())
        })?;
        Ok(QueryResult::affected(n))
    }

    /// Run a planned UPDATE or DELETE with the statement's parameters.
    /// Targets come from [`Database::dml_targets`] and every new image
    /// is evaluated before the first write, so an evaluation error
    /// leaves the statement a no-op. The images are buffered in the
    /// transaction's overlay; under MVCC only after every write lock is
    /// taken.
    fn run_write(&self, write: &PlannedWrite, mode: &RunMode) -> Result<QueryResult> {
        let t = self.table(&write.table)?;
        let schema = t.schema().clone();
        let params = &mode.params;
        let assignments: Option<Vec<(usize, exec::Expr)>> = write
            .assignments
            .as_ref()
            .map(|set| set.iter().map(|(pos, e)| (*pos, e.bind(params))).collect());
        let predicate = write.predicate.as_ref().map(|p| p.bind(params));
        // The new image of one target (`None` deletes it). It is the
        // validated image, which may differ from the evaluated one (int
        // -> float column widening): that is what the heap stores.
        let stage = |targets: Vec<(RowKey, Tuple)>| -> Result<Vec<(RowKey, Tuple, Option<Tuple>)>> {
            targets
                .into_iter()
                .map(|(key, old)| {
                    let Some(assignments) = &assignments else {
                        return Ok((key, old, None));
                    };
                    let mut new = old.clone();
                    for (pos, expr) in assignments {
                        new[*pos] = expr.eval(&old)?;
                    }
                    let stored = schema.validate(new)?;
                    Ok((key, old, Some(stored)))
                })
                .collect()
        };

        let name = &t.meta().name;
        self.with_txn(mode, |state| {
            let targets = self.dml_targets(&t, &write.leaf, predicate.as_ref(), Some(state), mode)?;
            let staged = stage(targets)?;
            // Every lock before any overlay change: a conflict leaves the
            // statement a no-op and the transaction open.
            if let (Some(mvcc), Some(txn)) = (&self.mvcc, &state.mvcc) {
                for (key, _, _) in &staged {
                    if let RowKey::Heap(rid) = key {
                        mvcc.lock_write(txn, name, rid_key(*rid))?;
                    }
                }
            }
            let affected = staged.len();
            let entry = state.overlay.entry(name.clone()).or_default();
            for (key, old, new) in staged {
                apply_own_write(entry, key, old, new);
            }
            Ok(QueryResult::affected(affected))
        })
    }

    /// Evaluate a physical plan on an explicit engine (its batch size
    /// and context), outside admission, on a fresh session that has no
    /// transaction.
    pub fn run_plan_with(&self, engine: &VectorEngine, plan: &Plan) -> Result<BatchStream> {
        let mode = RunMode {
            ctx: ExecContext::default(),
            degraded: false,
            session: SessionCore::new(self.next_session.fetch_add(1, Ordering::Relaxed)),
            params: Vec::new(),
            read: OnceLock::new(),
        };
        self.run_plan_budgeted(engine, plan, None, self.sort_budget, &mode)
    }

    /// [`Database::run_plan_with`] with an explicit sort budget — the
    /// hook a degraded admission uses to shrink operator memory.
    ///
    /// `reads` names the output columns of `plan` its consumers read
    /// (`None`: all of them); a table scan decodes only those and leaves
    /// the others NULL. Each operator passes its input the columns it
    /// needs for `reads`:
    /// - a filter adds its predicate's columns, and a limit passes
    ///   `reads` on;
    /// - an aggregate asks for its keys' and arguments' columns;
    /// - a projection asks for the columns of the outputs that are read,
    ///   and of every output that is not a bare column, so an expression
    ///   that can fail still sees its input. An unread bare-column output
    ///   is left to come out NULL;
    /// - a join splits `reads` between its inputs and adds its keys (or
    ///   its predicate's columns) to each side.
    ///
    /// Sorts and DISTINCT read every column of their inputs, so the
    /// memory they account never depends on `reads`. A join's does: a
    /// column left NULL stores no string payload in a hash table or
    /// sort run.
    fn run_plan_budgeted(
        &self,
        engine: &VectorEngine,
        plan: &Plan,
        reads: Option<&BTreeSet<usize>>,
        sort_budget: usize,
        mode: &RunMode,
    ) -> Result<BatchStream> {
        let input = |plan: &Plan, reads: Option<&BTreeSet<usize>>| {
            self.run_plan_budgeted(engine, plan, reads, sort_budget, mode)
        };
        match plan {
            Plan::TableScan { table } => {
                let t = self.table(table)?;
                let width = t.schema().len();
                let keep = reads
                    .map(|cols| (0..width).map(|c| cols.contains(&c)).collect::<Vec<bool>>())
                    .filter(|keep| keep.contains(&false));
                let read = {
                    let guard = mode.session.txn.lock();
                    self.table_read(&t, guard.as_ref(), mode, keep)
                };
                Ok(engine.scan(t.heap().data_pages()?, width, read))
            }
            Plan::IndexScan { table, .. }
            | Plan::IndexOr { table, .. }
            | Plan::IndexAnd { table, .. } => {
                let t = self.table(table)?;
                let guard = mode.session.txn.lock();
                let own_writes = guard.as_ref().map(|s| &s.overlay);
                let heap_free = self.mvcc.is_none()
                    && !own_writes.is_some_and(|o| o.contains_key(&t.meta().name));
                // Without MVCC or own writes to the table a covering scan
                // never touches the heap: the B-tree entries already
                // carry the key columns, and the engine receives them
                // columnar.
                let covering = match plan {
                    Plan::IndexScan {
                        covering: true,
                        key_columns,
                        ..
                    } if heap_free => Some(key_columns),
                    _ => None,
                };
                if let Some(key_columns) = covering {
                    let mut columns: Vec<Vec<Datum>> = vec![Vec::new(); key_columns.len()];
                    let mut nrows = 0;
                    scan_index(&t, plan, &mode.params, |key, _| {
                        nrows += 1;
                        decode_tuple_into(key, &mut columns, None)
                    })?;
                    return Ok(engine.values_columnar(columns, nrows));
                }
                // Every other index leaf materializes through the shared
                // access path (under MVCC: a consistent snapshot no
                // concurrent commit can tear, with no latch outliving
                // this arm).
                let rows = self.access_rows(&t, plan, guard.as_ref(), mode)?;
                drop(guard);
                let rows = rows.into_iter().map(|(_, row)| row);
                let rows: Vec<Tuple> = match plan {
                    // Index-only output under MVCC or beside own writes
                    // still resolves through the heap and overlay;
                    // project the visible rows down to the key columns.
                    Plan::IndexScan { covering: true, key_columns, .. } => {
                        let positions = key_positions(&t, key_columns)?;
                        rows.map(|r| positions.iter().map(|&p| r[p].clone()).collect())
                            .collect()
                    }
                    _ => rows.collect(),
                };
                Ok(engine.values(rows))
            }
            Plan::Values { rows } => Ok(engine.values(rows.clone())),
            Plan::Filter {
                input: child,
                predicate,
            } => {
                let mut cols = reads.cloned();
                if let Some(cols) = &mut cols {
                    predicate.columns_into(cols);
                }
                Ok(engine.filter(input(child, cols.as_ref())?, predicate.bind(&mode.params)))
            }
            Plan::EquiJoin {
                left,
                right,
                algorithm,
                left_col,
                right_col,
                left_width,
                build,
            } => {
                let keys = BTreeSet::from([*left_col, *left_width + *right_col]);
                let (l, r) = join_reads(reads, &keys, *left_width);
                engine.equi_join(
                    *algorithm,
                    input(left, l.as_ref())?,
                    input(right, r.as_ref())?,
                    *left_col,
                    *right_col,
                    *left_width,
                    *build,
                )
            }
            Plan::NlJoin {
                left,
                right,
                predicate,
                left_width,
            } => {
                let mut own = BTreeSet::new();
                predicate.columns_into(&mut own);
                let (l, r) = join_reads(reads, &own, *left_width);
                engine.nested_loop_join(
                    input(left, l.as_ref())?,
                    input(right, r.as_ref())?,
                    predicate.bind(&mode.params),
                )
            }
            Plan::Aggregate {
                input: child,
                group_by,
                aggs,
            } => {
                let mut cols = BTreeSet::new();
                for e in group_by.iter().chain(aggs.iter().map(|a| &a.arg)) {
                    e.columns_into(&mut cols);
                }
                let bind = |e: &exec::Expr| e.bind(&mode.params);
                let group_by = group_by.iter().map(bind).collect();
                let aggs = aggs
                    .iter()
                    .map(|a| exec::aggregate::AggSpec::new(a.func, bind(&a.arg)))
                    .collect();
                engine.hash_aggregate(input(child, Some(&cols))?, group_by, aggs)
            }
            Plan::Project {
                input: child,
                exprs,
            } => {
                let mut cols = BTreeSet::new();
                for (i, e) in exprs.iter().enumerate() {
                    let unread = reads.is_some_and(|r| !r.contains(&i));
                    if !(unread && matches!(e, exec::Expr::Col(_))) {
                        e.columns_into(&mut cols);
                    }
                }
                let exprs = exprs.iter().map(|e| e.bind(&mode.params)).collect();
                Ok(engine.project(input(child, Some(&cols))?, exprs))
            }
            Plan::Distinct { input: child } => Ok(engine.distinct(input(child, None)?)),
            Plan::Sort { input: child, keys } => {
                engine.sort(input(child, None)?, keys.clone(), sort_budget)
            }
            Plan::Limit {
                input: child,
                n,
                offset,
            } => Ok(engine.limit(input(child, reads)?, *n, *offset)),
        }
    }
}

impl Session {
    /// Parse and execute one SQL statement. A SELECT, UPDATE or DELETE
    /// runs through the plan cache with its literals lifted into
    /// parameters: a statement that differs from an earlier one only in
    /// its literals skips parsing and planning unless the catalog
    /// changed underneath it or a value leaves the region the cached
    /// plan was built for.
    ///
    /// Every statement passes the resource governor first: over the
    /// high-watermark the governor queues, sheds (typed `Overloaded`
    /// error), or — when the session contract allows degraded quality —
    /// admits with a clamped sort budget. A statement cancelled
    /// mid-transaction (deadline or injected token) rolls the open
    /// transaction back, leaving the same invariants as a crash.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.execute_params(sql, &[])
    }

    /// [`Session::execute`] with `params` bound, in order, to the
    /// statement's `?` placeholders (a SELECT, INSERT, UPDATE or DELETE;
    /// EXPLAIN too). The count must match.
    pub fn execute_params(&self, sql: &str, params: &[Datum]) -> Result<QueryResult> {
        let (db, core) = (&self.db, &self.core);
        // The single-writer busy check comes before admission: a locked
        // database is a concurrency outcome, not governor load.
        db.check_single_writer_busy(core)?;
        let admission = db.governor.admit(core.allow_degraded.load(Ordering::Relaxed))?;
        let mut mode = RunMode {
            ctx: db.exec_context(core),
            degraded: admission.is_degraded(),
            session: core.clone(),
            params: Vec::new(),
            read: OnceLock::new(),
        };
        let out = db.execute_with(sql, params, &mut mode);
        if matches!(out, Err(ServiceError::Cancelled { .. })) {
            db.governor.note_cancelled();
            if self.in_txn() {
                // Unwind through the transaction rollback path: the
                // session stays usable and committed data stays intact.
                let _ = self.rollback();
            }
        }
        drop(admission);
        out
    }

    /// Begin an explicit transaction (one per session). Returns the id
    /// its commit record will carry.
    pub fn begin(&self) -> Result<TxnId> {
        let mut current = self.core.txn.lock();
        if current.is_some() {
            return Err(ServiceError::Transaction("transaction already open".into()));
        }
        self.db.claim_writer(self.core.id)?;
        let state = self.db.txn_state();
        let id = state.id;
        *current = Some(state);
        Ok(id)
    }

    /// Commit the open transaction: this is where its buffered writes
    /// reach the heap and the WAL.
    pub fn commit(&self) -> Result<()> {
        let state = self.take_txn()?;
        let out = self.db.commit_txn(state);
        self.db.release_writer();
        out
    }

    /// Roll back the open transaction: drop its buffered writes.
    pub fn rollback(&self) -> Result<()> {
        let state = self.take_txn()?;
        self.db.discard(state);
        self.db.release_writer();
        Ok(())
    }

    fn take_txn(&self) -> Result<TxnState> {
        self.core
            .txn
            .lock()
            .take()
            .ok_or_else(|| ServiceError::Transaction("no open transaction".into()))
    }

    /// Parse and plan `sql` without executing it and return the
    /// statement's result columns (empty for non-SELECT statements,
    /// which are validated only) — the server side of a wire-protocol
    /// `prepare`. A statement without `?` placeholders warms the shared
    /// per-database plan cache, so the subsequent `execute` from *any*
    /// session or connection is a cache hit. One with placeholders has
    /// no values yet: it is parsed, and planned with its parameters
    /// unbound only to name its columns (none when that planning needs
    /// a value, such as an ORDER BY ordinal); its first `execute` plans
    /// and caches the generic plan and reports any planning error.
    pub fn prepare(&self, sql: &str) -> Result<Vec<String>> {
        let (stmt, placeholders) = parse_counted(sql)?;
        if placeholders == 0 {
            return Ok(match self.db.ready(sql, &[])? {
                Ready::Cached(prepared, _) => match &*prepared {
                    Prepared::Select { planned, .. } => planned.columns.clone(),
                    Prepared::Write(_) => Vec::new(),
                },
                Ready::Parsed(..) => Vec::new(),
            });
        }
        Ok(match stmt {
            Statement::Select(select) => plan_select(&select, self.db.as_ref())
                .map(|planned| planned.columns)
                .unwrap_or_default(),
            _ => Vec::new(),
        })
    }
}

/// One write-set entry the commit apply put into the heap: its table,
/// the rid it occupies (or, for a delete, occupied), and the entry.
struct Applied<'s> {
    table: &'s str,
    rid: Rid,
    write: &'s OwnWrite,
}

/// The pending image an own-write presents to its transaction (`None`
/// once deleted).
fn own_image(w: &OwnWrite) -> Option<&Tuple> {
    match w {
        OwnWrite::Heap { new, .. } => new.as_ref(),
        OwnWrite::Local(img) => Some(img),
    }
}

/// What a snapshot sees at one row key.
enum Seen<'o> {
    /// The heap's current occupant.
    Heap,
    /// Another image: an own write or an older committed version.
    Image(Img<'o>),
    /// Nothing.
    Nothing,
}

/// A row image other than the heap's current occupant.
enum Img<'o> {
    /// The transaction's own pending image.
    Own(&'o Tuple),
    /// A committed version from the chains, encoded.
    Old(Vec<u8>),
}

impl Img<'_> {
    fn into_tuple(self) -> Result<Tuple> {
        match self {
            Img::Own(row) => Ok(row.clone()),
            Img::Old(bytes) => decode_tuple(&bytes),
        }
    }

    /// Append the image as one row of `columns`, NULL where `keep` is
    /// false.
    fn push_into(self, columns: &mut [Vec<Datum>], keep: Option<&[bool]>) -> Result<()> {
        match self {
            Img::Own(row) => {
                for (i, (col, d)) in columns.iter_mut().zip(row).enumerate() {
                    col.push(if keep.is_none_or(|keep| keep[i]) { d.clone() } else { Datum::Null });
                }
                Ok(())
            }
            Img::Old(bytes) => decode_tuple_into(&bytes, columns, keep),
        }
    }
}

/// The one MVCC visibility decision, for a heap key whose current
/// occupant a read reached: the transaction's own write wins, then the
/// snapshot's [`Visibility`] of the occupant (asked only when needed).
fn resolve<'o>(
    own: Option<&'o OwnWrites>,
    key: RowKey,
    visibility: impl FnOnce() -> Visibility,
) -> Seen<'o> {
    if let Some(w) = own.and_then(|m| m.get(&key)) {
        return own_image(w).map_or(Seen::Nothing, |img| Seen::Image(Img::Own(img)));
    }
    match visibility() {
        Visibility::Current => Seen::Heap,
        Visibility::Replaced(bytes) => Seen::Image(Img::Old(bytes)),
        Visibility::Hidden => Seen::Nothing,
    }
}

/// The rows a snapshot sees that a read's heap candidates did not
/// reach, in order: versions that live only in the chains (`chain`, from
/// [`Mvcc::chain_rows`]: rows a later commit deleted, or whose slot it
/// reused), then the transaction's own writes (own inserts, and
/// rewrites an index probe could not find: the B-trees index committed
/// state only). `reached` names the heap keys already resolved.
fn unreached<'o>(
    chain: Vec<(u64, Vec<u8>)>,
    own: Option<&'o OwnWrites>,
    reached: impl Fn(RowKey) -> bool,
) -> Vec<(RowKey, Img<'o>)> {
    let mut out = Vec::new();
    for (k, bytes) in chain {
        let key = RowKey::Heap(key_rid(k));
        if !reached(key) && !own.is_some_and(|m| m.contains_key(&key)) {
            out.push((key, Img::Old(bytes)));
        }
    }
    for (key, w) in own.into_iter().flatten() {
        if let (false, Some(img)) = (reached(*key), own_image(w)) {
            out.push((*key, Img::Own(img)));
        }
    }
    out
}

/// One table read in storage order, page by page: the heap walk behind
/// every `TableScan` leaf (streamed into column batches) and every
/// sequential DML target list. With neither a snapshot nor own writes
/// the committed heap is the answer. Otherwise each page's records
/// resolve against the own writes and (MVCC) the snapshot together,
/// under one hold of the apply read latch, so a commit waits for at
/// most one page; the rows only the version chains hold and the
/// transaction's own inserts follow the last page. A streamed read
/// carries no row keys: it counts the rows it appends, and only a DML
/// target list ([`TableRead::rows`]) collects their keys.
struct TableRead {
    buffer: Arc<BufferPool>,
    snapshot: Option<SnapshotRead>,
    /// The columns to decode (`None`: all); the rest are left NULL.
    keep: Option<Vec<bool>>,
    /// Row keys of the rows the last `page` or `tail` call appended,
    /// kept only for a DML target list (`None` when streamed).
    keys: Option<Vec<RowKey>>,
}

/// What one table read resolves against besides the heap.
struct SnapshotRead {
    /// Under MVCC: the version store, the snapshot timestamp, and the
    /// statement's read snapshot pin (outside a transaction), held until
    /// the read ends. `None` under single-writer: the committed heap is
    /// current.
    versions: Option<(Arc<Mvcc>, Ts, Option<Arc<ReadSnapshot>>)>,
    table: String,
    /// The transaction's own writes to the table (none in autocommit).
    own: OwnWrites,
    /// The live slots of every page walked so far, in walk order: what
    /// the read sees at those keys was resolved in place. Looked up only
    /// at the tail, and only when chain rows or own writes remain.
    walked: Vec<(PageId, Vec<SlotId>)>,
}

impl TableRead {
    /// Every row the read sees, with its row key (DML target lists).
    fn rows(
        mut self,
        pages: Vec<PageId>,
        width: usize,
        ctx: &ExecContext,
    ) -> Result<Vec<(RowKey, Tuple)>> {
        self.keys = Some(Vec::new());
        let mut out = Vec::new();
        let mut columns = vec![Vec::new(); width];
        for page in pages {
            ctx.check()?;
            self.page(page, &mut columns)?;
            self.drain_rows(&mut columns, &mut out);
        }
        self.tail(&mut columns)?;
        self.drain_rows(&mut columns, &mut out);
        Ok(out)
    }

    /// Move the rows of the last call out of `columns`, keyed.
    fn drain_rows(&mut self, columns: &mut [Vec<Datum>], out: &mut Vec<(RowKey, Tuple)>) {
        let mut cols: Vec<_> = columns.iter_mut().map(|c| c.drain(..)).collect();
        for key in self.keys.iter_mut().flat_map(|keys| keys.drain(..)) {
            out.push((key, cols.iter_mut().map(|c| c.next().expect("one datum per key")).collect()));
        }
    }
}

impl PageSource for TableRead {
    fn page(&mut self, page: PageId, columns: &mut [Vec<Datum>]) -> Result<usize> {
        let TableRead { buffer, snapshot, keep, keys } = self;
        let keep = keep.as_deref();
        if let Some(keys) = keys.as_mut() {
            keys.clear();
        }
        let Some(snap) = snapshot else {
            let mut n = 0;
            HeapFile::walk_page(buffer, page, |rid, record| {
                n += 1;
                if let Some(keys) = keys.as_mut() {
                    keys.push(RowKey::Heap(rid));
                }
                decode_tuple_into(record, columns, keep)
            })?;
            return Ok(n);
        };
        let _latch = snap.versions.as_ref().map(|(mvcc, _, _)| mvcc.read_latch());
        let base = columns.first().map_or(0, Vec::len);
        let mut slots = Vec::new();
        HeapFile::walk_page(buffer, page, |rid, record| {
            slots.push(rid.slot);
            decode_tuple_into(record, columns, keep)
        })?;
        let (first, next) = (Rid::new(page, 0), Rid::new(page + 1, 0));
        let page_keys = rid_key(first)..rid_key(next);
        let replaced = match &snap.versions {
            Some((mvcc, ts, _)) => mvcc.replaced_in(&snap.table, *ts, page_keys),
            None => Vec::new(),
        };
        let own_here = snap.own.range(RowKey::Heap(first)..RowKey::Heap(next)).next();
        let n = if replaced.is_empty() && own_here.is_none() {
            if let Some(keys) = keys {
                keys.extend(slots.iter().map(|&slot| RowKey::Heap(Rid::new(page, slot))));
            }
            slots.len()
        } else {
            // Re-emit the page row by row: the occupant where the
            // snapshot sees it, another image or nothing elsewhere.
            let mut heap: Vec<_> = columns
                .iter_mut()
                .map(|c| c.split_off(base).into_iter())
                .collect();
            let mut n = 0;
            for &slot in &slots {
                let rid = Rid::new(page, slot);
                let key = RowKey::Heap(rid);
                let visibility = || {
                    replaced
                        .binary_search_by_key(&rid_key(rid), |(k, _)| *k)
                        .map_or(Visibility::Current, |i| replaced[i].1.clone())
                };
                let occupant = heap.iter_mut().map(|c| c.next().expect("one datum per slot"));
                match resolve(Some(&snap.own), key, visibility) {
                    Seen::Heap => columns.iter_mut().zip(occupant).for_each(|(c, d)| c.push(d)),
                    Seen::Image(img) => {
                        occupant.for_each(drop);
                        img.push_into(columns, keep)?;
                    }
                    Seen::Nothing => {
                        occupant.for_each(drop);
                        continue;
                    }
                }
                n += 1;
                if let Some(keys) = keys.as_mut() {
                    keys.push(key);
                }
            }
            n
        };
        snap.walked.push((page, slots));
        Ok(n)
    }

    fn tail(&mut self, columns: &mut [Vec<Datum>]) -> Result<usize> {
        if let Some(keys) = self.keys.as_mut() {
            keys.clear();
        }
        // Taken: the snapshot (and any pin) is released with this call.
        let Some(mut snap) = self.snapshot.take() else {
            return Ok(0);
        };
        let chain = match &snap.versions {
            Some((mvcc, ts, _)) => {
                let _latch = mvcc.read_latch();
                mvcc.chain_rows(&snap.table, *ts)
            }
            None => Vec::new(),
        };
        if chain.is_empty() && snap.own.is_empty() {
            return Ok(0);
        }
        snap.walked.sort_unstable_by_key(|(page, _)| *page);
        let walked = |key: RowKey| match key {
            RowKey::Heap(rid) => snap
                .walked
                .binary_search_by_key(&rid.page, |(page, _)| *page)
                .is_ok_and(|i| snap.walked[i].1.binary_search(&rid.slot).is_ok()),
            RowKey::Local(_) => false,
        };
        let mut n = 0;
        for (key, img) in unreached(chain, Some(&snap.own), walked) {
            img.push_into(columns, self.keep.as_deref())?;
            n += 1;
            if let Some(keys) = self.keys.as_mut() {
                keys.push(key);
            }
        }
        Ok(n)
    }
}

/// Fold one statement's write into a table's overlay. `new = None` is a
/// delete. Rewrites of an existing own write keep the original committed
/// `old` image (the one the lock was taken against); deleting an own
/// insert removes it from the write set entirely.
fn apply_own_write(
    entry: &mut OwnWrites,
    key: RowKey,
    old: Tuple,
    new: Option<Tuple>,
) {
    match key {
        RowKey::Local(_) => match new {
            Some(img) => {
                entry.insert(key, OwnWrite::Local(img));
            }
            None => {
                entry.remove(&key);
            }
        },
        RowKey::Heap(_) => {
            if let Some(OwnWrite::Heap { new: slot, .. }) = entry.get_mut(&key) {
                *slot = new;
            } else {
                entry.insert(key, OwnWrite::Heap { old, new });
            }
        }
    }
}

/// Split the columns a join's consumers read (`reads`, numbered over
/// `left ++ right`) into each input's own numbering, adding the columns
/// the join itself reads (`own`, same numbering). `None` (every column)
/// stays `None` on both sides.
fn join_reads(
    reads: Option<&BTreeSet<usize>>,
    own: &BTreeSet<usize>,
    left_width: usize,
) -> (Option<BTreeSet<usize>>, Option<BTreeSet<usize>>) {
    let Some(reads) = reads else {
        return (None, None);
    };
    let (mut left, mut right) = (BTreeSet::new(), BTreeSet::new());
    for &c in reads.iter().chain(own) {
        if c < left_width {
            left.insert(c);
        } else {
            right.insert(c - left_width);
        }
    }
    (Some(left), Some(right))
}

/// The value of an index bound: a literal, or the statement parameter
/// it names.
fn bound_value(e: &exec::Expr, params: &[Datum]) -> Result<Datum> {
    match e {
        exec::Expr::Lit(d) => Ok(d.clone()),
        exec::Expr::Param(i) => params
            .get(*i)
            .cloned()
            .ok_or_else(|| err(format!("parameter ${} is not bound", i + 1))),
        other => Err(ServiceError::Internal(format!("index bound is not a value: {other:?}"))),
    }
}

/// The values of a list of index bounds.
fn bound_values(es: &[exec::Expr], params: &[Datum]) -> Result<Vec<Datum>> {
    es.iter().map(|e| bound_value(e, params)).collect()
}

/// B-tree bound for an index scan: the equality prefix extended by the
/// optional range endpoint; `None` when that side is unconstrained.
/// The resulting bound may be a key *prefix* — `BTree::range` compares
/// only the bound's own components.
fn index_bound(eq: &[Datum], end: Option<Datum>) -> Option<Vec<Datum>> {
    if eq.is_empty() && end.is_none() {
        return None;
    }
    let mut key = eq.to_vec();
    key.extend(end);
    Some(key)
}

/// Visit the B-tree entries a [`Plan::IndexScan`] reaches, as
/// `(encoded key, rid)` read in place ([`BTree::scan_range`]). A bare
/// equality prefix is an inclusive prefix bound on both ends; an
/// explicit range keeps its own upper-bound flag.
///
/// [`BTree::scan_range`]: sbdms_access::btree::BTree::scan_range
fn scan_index(
    t: &Table,
    leaf: &Plan,
    params: &[Datum],
    visit: impl FnMut(&[u8], Rid) -> Result<()>,
) -> Result<()> {
    let Plan::IndexScan { index, eq, lo, hi, hi_inclusive, .. } = leaf else {
        return Err(ServiceError::Internal("not an index scan".into()));
    };
    let hi_flag = if hi.is_some() { *hi_inclusive } else { true };
    let eq = bound_values(eq, params)?;
    let end = |e: &Option<exec::Expr>| e.as_ref().map(|e| bound_value(e, params)).transpose();
    let (lo_key, hi_key) = (index_bound(&eq, end(lo)?), index_bound(&eq, end(hi)?));
    index_tree(t, index)?.scan_range(lo_key.as_deref(), hi_key.as_deref(), true, hi_flag, visit)
}

/// Candidate rids of an index leaf, in the leaf's output order: key
/// order for a range scan; rid order, deduplicated, for a probe union
/// or a sorted-rid intersection (each rid is fetched once).
fn index_rids(t: &Table, leaf: &Plan, params: &[Datum]) -> Result<Vec<Rid>> {
    match leaf {
        Plan::IndexScan { .. } => {
            let mut rids = Vec::new();
            scan_index(t, leaf, params, |_, rid| {
                rids.push(rid);
                Ok(())
            })?;
            Ok(rids)
        }
        Plan::IndexOr { index, keys, .. } => {
            let tree = index_tree(t, index)?;
            let mut rids: BTreeSet<Rid> = BTreeSet::new();
            for key in keys {
                rids.extend(tree.search(&bound_values(key, params)?)?);
            }
            Ok(rids.into_iter().collect())
        }
        Plan::IndexAnd { probes, .. } => {
            let mut acc: Option<Vec<Rid>> = None;
            for p in probes {
                let mut rids = index_tree(t, &p.index)?.search(&bound_values(&p.eq, params)?)?;
                rids.sort_unstable();
                rids.dedup();
                acc = Some(match acc {
                    None => rids,
                    Some(prev) => intersect_sorted(prev, rids),
                });
            }
            Ok(acc.unwrap_or_default())
        }
        _ => Err(ServiceError::Internal(format!("not an index leaf: {}", leaf.node_label()))),
    }
}

/// A predicate over one row image.
type RowTest<'p> = Box<dyn Fn(&Tuple) -> bool + 'p>;

/// A leaf's key bounds as a row test, with B-tree semantics
/// (`Datum::order` comparisons, not SQL equality: a NULL key component
/// matches a NULL constraint). A table scan admits every row.
fn key_bounds(t: &Table, leaf: &Plan, params: &[Datum]) -> Result<RowTest<'static>> {
    fn eq_at(img: &Tuple, eq: &[Datum], positions: &[usize]) -> bool {
        eq.iter()
            .zip(positions)
            .all(|(d, &p)| img[p].order(d) == std::cmp::Ordering::Equal)
    }
    Ok(match leaf {
        Plan::IndexScan { key_columns, eq, lo, hi, hi_inclusive, .. } => {
            let positions = key_positions(t, key_columns)?;
            let eq = bound_values(eq, params)?;
            let end = |e: &Option<exec::Expr>| e.as_ref().map(|e| bound_value(e, params)).transpose();
            let (lo, hi, hi_inclusive) = (end(lo)?, end(hi)?, *hi_inclusive);
            Box::new(move |img| {
                eq_at(img, &eq, &positions)
                    && positions.get(eq.len()).is_none_or(|&p| {
                        datum_in_range(&img[p], lo.as_ref(), hi.as_ref(), hi_inclusive)
                    })
            })
        }
        Plan::IndexOr { key_columns, keys, .. } => {
            let positions = key_positions(t, key_columns)?;
            let keys: Vec<Vec<Datum>> =
                keys.iter().map(|k| bound_values(k, params)).collect::<Result<_>>()?;
            Box::new(move |img| keys.iter().any(|key| eq_at(img, key, &positions)))
        }
        Plan::IndexAnd { probes, .. } => {
            let probes: Vec<(Vec<Datum>, Vec<usize>)> = probes
                .iter()
                .map(|p| Ok((bound_values(&p.eq, params)?, key_positions(t, &p.key_columns)?)))
                .collect::<Result<_>>()?;
            Box::new(move |img| probes.iter().all(|(eq, pos)| eq_at(img, eq, pos)))
        }
        _ => Box::new(|_| true),
    })
}

/// The B-tree of a named index on an open table.
fn index_tree<'t>(t: &'t Table, index: &str) -> Result<&'t sbdms_access::btree::BTree> {
    t.index_named(index)
        .map(|(_, tree)| tree)
        .ok_or_else(|| ServiceError::Internal(format!("lost index {index}")))
}

/// Schema positions of an index's key columns.
fn key_positions(t: &Table, key_columns: &[String]) -> Result<Vec<usize>> {
    key_columns
        .iter()
        .map(|c| {
            t.schema()
                .index_of(c)
                .ok_or_else(|| ServiceError::Internal(format!("lost column {c}")))
        })
        .collect()
}

/// Intersection of two sorted, deduplicated rid lists.
fn intersect_sorted(a: Vec<Rid>, b: Vec<Rid>) -> Vec<Rid> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Whether a key falls in an index-scan range — the exact semantics of
/// `BTree::range`: inclusive lower bound, upper bound per
/// `hi_inclusive`, ordered by `Datum::order`.
fn datum_in_range(d: &Datum, lo: Option<&Datum>, hi: Option<&Datum>, hi_inclusive: bool) -> bool {
    if let Some(lo) = lo {
        if d.order(lo) == std::cmp::Ordering::Less {
            return false;
        }
    }
    if let Some(hi) = hi {
        match d.order(hi) {
            std::cmp::Ordering::Greater => return false,
            std::cmp::Ordering::Equal if !hi_inclusive => return false,
            _ => {}
        }
    }
    true
}

impl CatalogView for Database {
    fn table(&self, name: &str) -> Result<Arc<TableMeta>> {
        self.catalog.table(name)
    }

    fn view_query(&self, name: &str) -> Option<String> {
        self.catalog.view(name).map(|v| v.query)
    }

    fn mvcc_scan_multiplier(&self, table: &str) -> f64 {
        let Some(mvcc) = &self.mvcc else { return 1.0 };
        let versions = mvcc.table_versions_live(&table.to_lowercase()) as f64;
        if versions == 0.0 {
            return 1.0;
        }
        let rows = self
            .catalog
            .table(table)
            .ok()
            .and_then(|m| m.stats.as_ref().map(|s| s.row_count as f64))
            .unwrap_or(crate::cost::DEFAULT_TABLE_ROWS)
            .max(1.0);
        // Each live chained version is an extra image the scan resolves
        // through the overlay; cap the penalty so a pathological chain
        // cannot make sequential scans look infinitely bad.
        (1.0 + versions / rows).min(10.0)
    }

    fn knobs(&self) -> PlannerKnobs {
        self.knobs.lock().clone()
    }
}

struct DbResolver<'a> {
    db: &'a Database,
}

impl TableResolver for DbResolver<'_> {
    fn resolve(&self, name: &str) -> Result<Table> {
        Table::open(&self.db.catalog, name)
    }
}
