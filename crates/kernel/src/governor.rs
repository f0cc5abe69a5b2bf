//! Overload protection: admission control, memory budgets, and
//! cooperative cancellation.
//!
//! The paper's *flexibility by selection* (Fig. 6) lets the coordinator
//! pick a cheaper provider when quality constraints demand it; under
//! sustained load that choice must be made *at admission time*. The
//! [`Governor`] tracks in-flight queries against a concurrency
//! watermark: below it queries run normally, above it they either wait
//! in a bounded queue, are admitted **degraded** (the session's contract
//! allows lower quality, so the coordinator selects the cheaper engine
//! variant), or are **shed** with a typed, recoverable
//! [`ServiceError::Overloaded`] that callers may retry with backoff.
//!
//! Two companion primitives thread through the execution layers:
//!
//! * [`CancelToken`] — cooperative cancellation with an optional
//!   deadline, checked per-page / per-batch / per-merge-run so a query
//!   aborts within one scheduling quantum;
//! * [`QueryMemory`] — per-query memory accounting against an optional
//!   shared [`MemoryPool`], so sort / hash-join / aggregate / DISTINCT
//!   either spill or fail with a recoverable resource error instead of
//!   blowing the process heap.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// The admission queue uses std's Mutex/Condvar pair (the vendored
// parking_lot shim has no Condvar); the small metadata locks stay on
// parking_lot like the rest of the kernel.
use std::sync::{Condvar, Mutex as StdMutex};

use parking_lot::Mutex;

use crate::error::{Result, ServiceError};
use crate::events::{Event, EventBus};

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

/// Cooperative cancellation token, cloned into every operator of a
/// running statement. Checks are cheap (two atomic loads on the happy
/// path); operators call [`CancelToken::check`] at natural quanta —
/// per heap page, per batch, per merge step — so cancellation and
/// deadline expiry surface within one quantum.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug)]
struct CancelInner {
    cancelled: AtomicBool,
    reason: Mutex<String>,
    /// Absolute deadline, fixed at construction.
    deadline: Option<Instant>,
    /// The deadline budget in ms, kept for the error message.
    budget_ms: u64,
    /// Deterministic injection: when >= 0, the countdown'th call to
    /// `check` cancels the token ("fail at exactly this quantum" — the
    /// torture suite's cancel analogue of `crash_after_events`).
    countdown: AtomicI64,
    /// Total `check` calls, for profiling runs that enumerate quanta.
    checks: AtomicU64,
}

impl Default for CancelInner {
    fn default() -> CancelInner {
        CancelInner {
            cancelled: AtomicBool::new(false),
            reason: Mutex::new(String::new()),
            deadline: None,
            budget_ms: 0,
            countdown: AtomicI64::new(-1),
            checks: AtomicU64::new(0),
        }
    }
}

impl CancelToken {
    /// A token that never fires on its own (cancel explicitly or via
    /// [`CancelToken::cancel_after_checks`]).
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token whose deadline expires `budget` from now.
    pub fn with_deadline(budget: Duration) -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelInner {
                deadline: Some(Instant::now() + budget),
                budget_ms: budget.as_millis() as u64,
                ..CancelInner::default()
            }),
        }
    }

    /// Cancel now, with a reason that surfaces in the error text.
    pub fn cancel(&self, reason: &str) {
        let mut r = self.inner.reason.lock();
        if !self.inner.cancelled.swap(true, Ordering::SeqCst) {
            *r = reason.to_string();
        }
    }

    /// Arm deterministic injection: the `n`-th subsequent call to
    /// [`CancelToken::check`] cancels the token (n = 1 fires on the
    /// very next check). Used by the torture suite to cancel at every
    /// recorded quantum in turn.
    pub fn cancel_after_checks(&self, n: u64) {
        self.inner.countdown.store(n as i64, Ordering::SeqCst);
    }

    /// How many times `check` has been called on this token.
    pub fn checks(&self) -> u64 {
        self.inner.checks.load(Ordering::Relaxed)
    }

    /// Whether the token has been cancelled (by call, countdown, or
    /// deadline observed by a previous check).
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
    }

    /// One cooperative cancellation point. Returns the typed
    /// [`ServiceError::Cancelled`] once the token is cancelled or its
    /// deadline has passed; `Ok(())` otherwise.
    pub fn check(&self) -> Result<()> {
        self.inner.checks.fetch_add(1, Ordering::Relaxed);
        if self.inner.countdown.load(Ordering::SeqCst) >= 0
            && self.inner.countdown.fetch_sub(1, Ordering::SeqCst) == 1
        {
            self.cancel("injected cancellation");
        }
        if self.inner.cancelled.load(Ordering::SeqCst) {
            return Err(ServiceError::Cancelled {
                reason: self.inner.reason.lock().clone(),
            });
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                let reason = format!("deadline of {}ms exceeded", self.inner.budget_ms);
                self.cancel(&reason);
                return Err(ServiceError::Cancelled { reason });
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Memory accounting
// ---------------------------------------------------------------------------

/// A shared memory pool (the governor's global budget). Cloning shares
/// the pool; the default pool is unlimited.
#[derive(Clone, Debug)]
pub struct MemoryPool {
    inner: Arc<PoolInner>,
}

#[derive(Debug)]
struct PoolInner {
    capacity: u64,
    used: AtomicU64,
    peak: AtomicU64,
}

impl Default for MemoryPool {
    fn default() -> MemoryPool {
        MemoryPool::new(u64::MAX)
    }
}

impl MemoryPool {
    /// A pool holding `capacity` bytes.
    pub fn new(capacity: u64) -> MemoryPool {
        MemoryPool {
            inner: Arc::new(PoolInner {
                capacity,
                used: AtomicU64::new(0),
                peak: AtomicU64::new(0),
            }),
        }
    }

    /// Reserve bytes, failing with a recoverable `ResourceExhausted`
    /// when the pool cannot satisfy the request.
    pub fn reserve(&self, bytes: u64) -> Result<()> {
        let new = self.inner.used.fetch_add(bytes, Ordering::SeqCst) + bytes;
        if new > self.inner.capacity {
            self.inner.used.fetch_sub(bytes, Ordering::SeqCst);
            return Err(ServiceError::ResourceExhausted {
                resource: "memory".into(),
                requested: bytes,
                available: self.inner.capacity.saturating_sub(new - bytes),
            });
        }
        self.inner.peak.fetch_max(new, Ordering::SeqCst);
        Ok(())
    }

    /// Release a previous reservation (over-release is a bug upstream;
    /// clamped via saturating subtraction of the stored value).
    pub fn release(&self, bytes: u64) {
        let mut cur = self.inner.used.load(Ordering::SeqCst);
        loop {
            let next = cur.saturating_sub(bytes);
            match self.inner.used.compare_exchange(
                cur,
                next,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> u64 {
        self.inner.used.load(Ordering::SeqCst)
    }

    /// High-watermark of reserved bytes.
    pub fn peak(&self) -> u64 {
        self.inner.peak.load(Ordering::SeqCst)
    }

    /// Pool capacity.
    pub fn capacity(&self) -> u64 {
        self.inner.capacity
    }
}

/// Per-query memory accounting: a local limit plus an optional share of
/// the governor's global [`MemoryPool`]. Cloned into every operator of
/// a statement; everything still reserved is returned to the pool when
/// the last clone drops (end of statement), so operators only need to
/// `charge` — precise paired releases are an optimisation (the sorter
/// uses them when it spills).
#[derive(Clone, Debug, Default)]
pub struct QueryMemory {
    inner: Arc<QueryMemInner>,
}

#[derive(Debug)]
struct QueryMemInner {
    limit: u64,
    pool: Option<MemoryPool>,
    used: AtomicU64,
    peak: AtomicU64,
}

impl Default for QueryMemInner {
    fn default() -> QueryMemInner {
        QueryMemInner {
            limit: u64::MAX,
            pool: None,
            used: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }
}

impl Drop for QueryMemInner {
    fn drop(&mut self) {
        if let Some(pool) = &self.pool {
            pool.release(self.used.load(Ordering::SeqCst));
        }
    }
}

impl QueryMemory {
    /// Unlimited accounting (no limit, no pool) — the default context.
    pub fn unlimited() -> QueryMemory {
        QueryMemory::default()
    }

    /// Accounting against `limit` bytes and, optionally, a shared pool.
    pub fn new(limit: u64, pool: Option<MemoryPool>) -> QueryMemory {
        QueryMemory {
            inner: Arc::new(QueryMemInner {
                limit,
                pool,
                used: AtomicU64::new(0),
                peak: AtomicU64::new(0),
            }),
        }
    }

    /// Reserve bytes against the query limit and the shared pool.
    /// Fails with a recoverable `ResourceExhausted` on either budget.
    pub fn charge(&self, bytes: u64) -> Result<()> {
        let new = self.inner.used.fetch_add(bytes, Ordering::SeqCst) + bytes;
        if new > self.inner.limit {
            self.inner.used.fetch_sub(bytes, Ordering::SeqCst);
            return Err(ServiceError::ResourceExhausted {
                resource: "query-memory".into(),
                requested: bytes,
                available: self.inner.limit.saturating_sub(new - bytes),
            });
        }
        if let Some(pool) = &self.inner.pool {
            if let Err(e) = pool.reserve(bytes) {
                self.inner.used.fetch_sub(bytes, Ordering::SeqCst);
                return Err(e);
            }
        }
        self.inner.peak.fetch_max(new, Ordering::SeqCst);
        Ok(())
    }

    /// Release part of the reservation early (spill paths).
    pub fn release(&self, bytes: u64) {
        let mut cur = self.inner.used.load(Ordering::SeqCst);
        let released;
        loop {
            let next = cur.saturating_sub(bytes);
            match self.inner.used.compare_exchange(
                cur,
                next,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    released = cur - next;
                    break;
                }
                Err(actual) => cur = actual,
            }
        }
        if let Some(pool) = &self.inner.pool {
            pool.release(released);
        }
    }

    /// Bytes currently charged to this query.
    pub fn used(&self) -> u64 {
        self.inner.used.load(Ordering::SeqCst)
    }

    /// High-watermark of bytes charged to this query.
    pub fn peak(&self) -> u64 {
        self.inner.peak.load(Ordering::SeqCst)
    }

    /// The per-query limit.
    pub fn limit(&self) -> u64 {
        self.inner.limit
    }
}

/// Everything an executing operator needs from the governor: the
/// cancellation token and the memory account. Cloned freely (Arc
/// inside); the default context is unlimited and never cancels.
#[derive(Clone, Debug, Default)]
pub struct ExecContext {
    /// Cooperative cancellation / deadline.
    pub cancel: CancelToken,
    /// Memory accounting.
    pub memory: QueryMemory,
}

impl ExecContext {
    /// No limits, never cancels — what unmanaged callers use.
    pub fn unlimited() -> ExecContext {
        ExecContext::default()
    }

    /// A context from explicit parts.
    pub fn new(cancel: CancelToken, memory: QueryMemory) -> ExecContext {
        ExecContext { cancel, memory }
    }

    /// One cancellation point (see [`CancelToken::check`]).
    pub fn check(&self) -> Result<()> {
        self.cancel.check()
    }

    /// Reserve operator memory (see [`QueryMemory::charge`]).
    pub fn charge(&self, bytes: u64) -> Result<()> {
        self.memory.charge(bytes)
    }

    /// Reserve if possible; `false` signals the caller to spill.
    pub fn try_charge(&self, bytes: u64) -> bool {
        self.memory.charge(bytes).is_ok()
    }

    /// Return an early release to the account.
    pub fn release(&self, bytes: u64) {
        self.memory.release(bytes)
    }
}

// ---------------------------------------------------------------------------
// The governor
// ---------------------------------------------------------------------------

/// Governor tunables. The defaults describe a small node; profiles
/// override them (full-fledged: enabled, embedded: disabled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GovernorConfig {
    /// Master switch; disabled admits everything with no accounting.
    pub enabled: bool,
    /// Concurrency high-watermark: queries admitted normally.
    pub max_concurrent: usize,
    /// Bounded admission queue depth; also bounds how far degraded
    /// admissions may overshoot the watermark.
    pub queue_depth: usize,
    /// How long a queued query waits for a slot before being shed.
    pub queue_wait_ms: u64,
    /// Global memory pool for all managed queries, in bytes.
    pub memory_capacity: u64,
    /// Default per-query memory limit, in bytes.
    pub query_memory: u64,
    /// Sort budget forced onto degraded admissions, in bytes.
    pub degraded_sort_budget: usize,
}

impl Default for GovernorConfig {
    fn default() -> GovernorConfig {
        GovernorConfig {
            enabled: false,
            max_concurrent: 4,
            queue_depth: 8,
            queue_wait_ms: 100,
            memory_capacity: 64 << 20,
            query_memory: 16 << 20,
            degraded_sort_budget: 1 << 20,
        }
    }
}

/// How a query was admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionKind {
    /// Below the watermark: full-quality plan.
    Normal,
    /// Over the watermark but the session's contract allows degraded
    /// quality: admitted immediately with a clamped sort budget.
    Degraded,
}

/// RAII admission: holding it occupies a governor slot; dropping it
/// frees the slot and wakes one queued query.
#[derive(Debug)]
pub struct Admission {
    kind: AdmissionKind,
    _ticket: Option<Ticket>,
}

impl Admission {
    /// How this query was admitted.
    pub fn kind(&self) -> AdmissionKind {
        self.kind
    }

    /// Whether the governor downgraded this query's quality contract.
    pub fn is_degraded(&self) -> bool {
        self.kind == AdmissionKind::Degraded
    }
}

struct Ticket {
    gov: Arc<GovernorInner>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Ticket")
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        {
            let mut st = self.gov.state.lock().expect("governor state poisoned");
            st.in_flight = st.in_flight.saturating_sub(1);
        }
        self.gov.freed.notify_one();
    }
}

#[derive(Default)]
struct GovState {
    in_flight: usize,
    waiting: usize,
}

struct GovernorInner {
    cfg: GovernorConfig,
    state: StdMutex<GovState>,
    freed: Condvar,
    pool: MemoryPool,
    admitted: AtomicU64,
    degraded: AtomicU64,
    shed: AtomicU64,
    cancelled: AtomicU64,
    events: Mutex<Option<EventBus>>,
}

/// Counters and gauges for monitoring (see
/// `extension::monitoring::GovernorMonitorService`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorSnapshot {
    /// Whether the governor is enforcing anything.
    pub enabled: bool,
    /// Queries currently holding a slot.
    pub in_flight: usize,
    /// Queries currently parked in the admission queue.
    pub waiting: usize,
    /// Queries admitted at full quality since open.
    pub admitted: u64,
    /// Queries admitted degraded since open.
    pub degraded: u64,
    /// Queries shed with `Overloaded` since open.
    pub shed: u64,
    /// Queries cancelled (deadline or explicit) since open.
    pub cancelled: u64,
    /// Bytes currently reserved from the global pool.
    pub mem_used: u64,
    /// High-watermark of reserved bytes.
    pub mem_peak: u64,
    /// Global pool capacity.
    pub mem_capacity: u64,
}

/// The admission-control service: bounded concurrency with a bounded
/// wait queue, quality-aware degraded admission, and a global memory
/// pool. Cloning shares the governor.
#[derive(Clone)]
pub struct Governor {
    inner: Arc<GovernorInner>,
}

impl Governor {
    /// Build a governor from its config.
    pub fn new(cfg: GovernorConfig) -> Governor {
        let pool = if cfg.enabled {
            MemoryPool::new(cfg.memory_capacity)
        } else {
            MemoryPool::default()
        };
        Governor {
            inner: Arc::new(GovernorInner {
                cfg,
                state: StdMutex::new(GovState::default()),
                freed: Condvar::new(),
                pool,
                admitted: AtomicU64::new(0),
                degraded: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                cancelled: AtomicU64::new(0),
                events: Mutex::new(None),
            }),
        }
    }

    /// The configuration this governor enforces.
    pub fn config(&self) -> &GovernorConfig {
        &self.inner.cfg
    }

    /// Attach a kernel event bus: shed and degraded admissions publish
    /// `governor.shed` / `governor.degraded` events.
    pub fn set_event_bus(&self, bus: EventBus) {
        *self.inner.events.lock() = Some(bus);
    }

    /// Admit one query. Below the watermark this returns immediately;
    /// above it, sessions whose contract allows degraded quality are
    /// admitted [`AdmissionKind::Degraded`] at once, others wait in the
    /// bounded queue and are shed with [`ServiceError::Overloaded`]
    /// when the queue is full or the wait times out.
    pub fn admit(&self, allow_degraded: bool) -> Result<Admission> {
        if !self.inner.cfg.enabled {
            self.inner.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(Admission {
                kind: AdmissionKind::Normal,
                _ticket: None,
            });
        }
        let cfg = &self.inner.cfg;
        let mut st = self.inner.state.lock().expect("governor state poisoned");
        if st.in_flight < cfg.max_concurrent {
            st.in_flight += 1;
            drop(st);
            self.inner.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(self.ticket(AdmissionKind::Normal));
        }
        if allow_degraded && st.in_flight < cfg.max_concurrent + cfg.queue_depth {
            st.in_flight += 1;
            let in_flight = st.in_flight;
            drop(st);
            self.inner.degraded.fetch_add(1, Ordering::Relaxed);
            self.publish(
                "governor.degraded",
                format!("admitted degraded at {in_flight} in flight"),
            );
            return Ok(self.ticket(AdmissionKind::Degraded));
        }
        if st.waiting >= cfg.queue_depth {
            let (in_flight, waiting) = (st.in_flight, st.waiting);
            drop(st);
            return Err(self.shed(in_flight, waiting));
        }
        st.waiting += 1;
        let give_up = Instant::now() + Duration::from_millis(cfg.queue_wait_ms);
        loop {
            if st.in_flight < cfg.max_concurrent {
                st.waiting -= 1;
                st.in_flight += 1;
                drop(st);
                self.inner.admitted.fetch_add(1, Ordering::Relaxed);
                return Ok(self.ticket(AdmissionKind::Normal));
            }
            let remaining = give_up.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                st.waiting -= 1;
                let (in_flight, waiting) = (st.in_flight, st.waiting);
                drop(st);
                return Err(self.shed(in_flight, waiting));
            }
            st = self
                .inner
                .freed
                .wait_timeout(st, remaining)
                .expect("governor state poisoned")
                .0;
        }
    }

    /// A memory account for one query: the session limit (or the
    /// config default when the governor is enabled) backed by the
    /// global pool. With the governor disabled and no session limit,
    /// the account is unlimited.
    pub fn query_memory(&self, session_limit: Option<u64>) -> QueryMemory {
        let limit = session_limit.or_else(|| {
            self.inner
                .cfg
                .enabled
                .then_some(self.inner.cfg.query_memory)
        });
        match limit {
            Some(limit) if self.inner.cfg.enabled => {
                QueryMemory::new(limit, Some(self.inner.pool.clone()))
            }
            Some(limit) => QueryMemory::new(limit, None),
            None => QueryMemory::unlimited(),
        }
    }

    /// Record one cancelled query (deadline or explicit).
    pub fn note_cancelled(&self) {
        self.inner.cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Current counters and gauges.
    pub fn snapshot(&self) -> GovernorSnapshot {
        let st = self.inner.state.lock().expect("governor state poisoned");
        GovernorSnapshot {
            enabled: self.inner.cfg.enabled,
            in_flight: st.in_flight,
            waiting: st.waiting,
            admitted: self.inner.admitted.load(Ordering::Relaxed),
            degraded: self.inner.degraded.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed),
            cancelled: self.inner.cancelled.load(Ordering::Relaxed),
            mem_used: self.inner.pool.used(),
            mem_peak: self.inner.pool.peak(),
            mem_capacity: self.inner.pool.capacity(),
        }
    }

    fn ticket(&self, kind: AdmissionKind) -> Admission {
        Admission {
            kind,
            _ticket: Some(Ticket {
                gov: self.inner.clone(),
            }),
        }
    }

    fn shed(&self, in_flight: usize, waiting: usize) -> ServiceError {
        self.inner.shed.fetch_add(1, Ordering::Relaxed);
        self.publish(
            "governor.shed",
            format!("shed at {in_flight} in flight, {waiting} waiting"),
        );
        ServiceError::Overloaded {
            in_flight: in_flight as u64,
            waiting: waiting as u64,
        }
    }

    fn publish(&self, topic: &str, detail: String) {
        if let Some(bus) = self.inner.events.lock().as_ref() {
            bus.publish(Event::Custom {
                topic: topic.into(),
                detail,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled(max_concurrent: usize, queue_depth: usize) -> Governor {
        Governor::new(GovernorConfig {
            enabled: true,
            max_concurrent,
            queue_depth,
            queue_wait_ms: 10,
            ..GovernorConfig::default()
        })
    }

    #[test]
    fn disabled_governor_admits_everything() {
        let gov = Governor::new(GovernorConfig::default());
        let tickets: Vec<_> = (0..100).map(|_| gov.admit(false).unwrap()).collect();
        assert!(tickets.iter().all(|a| a.kind() == AdmissionKind::Normal));
        let snap = gov.snapshot();
        assert_eq!(snap.admitted, 100);
        assert_eq!(snap.shed, 0);
        assert!(!snap.enabled);
    }

    #[test]
    fn slots_are_raii_and_reusable() {
        let gov = enabled(1, 0);
        let first = gov.admit(false).unwrap();
        assert_eq!(gov.snapshot().in_flight, 1);
        // Queue depth 0: the second query is shed immediately.
        let err = gov.admit(false).unwrap_err();
        assert!(matches!(err, ServiceError::Overloaded { .. }));
        assert!(err.is_recoverable());
        drop(first);
        assert_eq!(gov.snapshot().in_flight, 0);
        gov.admit(false).unwrap();
        let snap = gov.snapshot();
        assert_eq!(snap.admitted, 2);
        assert_eq!(snap.shed, 1);
    }

    #[test]
    fn degraded_contract_admits_over_watermark() {
        let gov = enabled(1, 2);
        let _full = gov.admit(false).unwrap();
        let second = gov.admit(true).unwrap();
        assert!(second.is_degraded());
        let snap = gov.snapshot();
        assert_eq!(snap.in_flight, 2);
        assert_eq!(snap.degraded, 1);
        // Even degraded admission is bounded (watermark + queue depth).
        let _third = gov.admit(true).unwrap();
        let err = gov.admit(true).unwrap_err();
        assert!(matches!(err, ServiceError::Overloaded { .. }));
    }

    #[test]
    fn queued_query_gets_freed_slot() {
        let gov = Governor::new(GovernorConfig {
            enabled: true,
            max_concurrent: 1,
            queue_depth: 4,
            queue_wait_ms: 5_000,
            ..GovernorConfig::default()
        });
        let first = gov.admit(false).unwrap();
        let gov2 = gov.clone();
        let waiter = std::thread::spawn(move || gov2.admit(false).map(|a| a.kind()));
        // Give the waiter time to park, then free the slot.
        std::thread::sleep(Duration::from_millis(20));
        drop(first);
        assert_eq!(waiter.join().unwrap().unwrap(), AdmissionKind::Normal);
        assert_eq!(gov.snapshot().admitted, 2);
    }

    #[test]
    fn shed_under_forced_low_watermark_stress() {
        // The CI stress case: a watermark of 1 with no queue under a
        // burst of concurrent admissions must shed all but the winners
        // and never lose a slot.
        let gov = enabled(1, 0);
        let events = EventBus::new();
        let rx = events.subscribe();
        gov.set_event_bus(events);
        // Pin the only slot for the whole burst so every concurrent
        // admission must shed, deterministically even on one core.
        let blocker = gov.admit(false).unwrap();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let g = gov.clone();
            handles.push(std::thread::spawn(move || {
                let mut ok = 0u64;
                for _ in 0..50 {
                    if let Ok(t) = g.admit(false) {
                        ok += 1;
                        drop(t);
                    }
                }
                ok
            }));
        }
        let admitted: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(admitted, 0, "the pinned slot sheds the whole burst");
        drop(blocker);
        let snap = gov.snapshot();
        assert_eq!(snap.in_flight, 0, "all slots returned");
        assert_eq!(snap.admitted, 1);
        assert_eq!(snap.shed, 400);
        let shed_events = rx
            .try_iter()
            .filter(|e| matches!(e, Event::Custom { topic, .. } if topic == "governor.shed"))
            .count() as u64;
        assert_eq!(shed_events, snap.shed);
    }

    #[test]
    fn cancel_token_explicit_and_injected() {
        let t = CancelToken::new();
        t.check().unwrap();
        t.cancel("user request");
        let err = t.check().unwrap_err();
        assert_eq!(err.code(), "cancelled");
        assert!(!err.is_recoverable());
        assert!(err.to_string().contains("user request"));

        let t = CancelToken::new();
        t.cancel_after_checks(3);
        t.check().unwrap();
        t.check().unwrap();
        let err = t.check().unwrap_err();
        assert!(err.to_string().contains("injected"));
        assert!(t.is_cancelled());
        assert_eq!(t.checks(), 3);
    }

    #[test]
    fn cancel_token_deadline_expires() {
        let t = CancelToken::with_deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        let err = t.check().unwrap_err();
        assert_eq!(err.code(), "cancelled");
        assert!(err.to_string().contains("deadline"));
        // Sticky: later checks keep failing.
        assert!(t.check().is_err());
    }

    #[test]
    fn query_memory_enforces_limit_and_releases_pool_on_drop() {
        let pool = MemoryPool::new(1000);
        let mem = QueryMemory::new(600, Some(pool.clone()));
        mem.charge(500).unwrap();
        assert_eq!(pool.used(), 500);
        let err = mem.charge(200).unwrap_err();
        assert!(err.is_recoverable());
        assert!(matches!(
            err,
            ServiceError::ResourceExhausted { requested: 200, .. }
        ));
        assert_eq!(pool.used(), 500, "failed charge rolls back");
        mem.release(100);
        assert_eq!(mem.used(), 400);
        assert_eq!(mem.peak(), 500);
        drop(mem);
        assert_eq!(pool.used(), 0, "drop returns everything");
        assert_eq!(pool.peak(), 500);
    }

    #[test]
    fn pool_exhaustion_fails_before_query_limit() {
        let pool = MemoryPool::new(100);
        let a = QueryMemory::new(u64::MAX, Some(pool.clone()));
        let b = QueryMemory::new(u64::MAX, Some(pool.clone()));
        a.charge(80).unwrap();
        let err = b.charge(50).unwrap_err();
        assert!(matches!(err, ServiceError::ResourceExhausted { .. }));
        assert_eq!(b.used(), 0);
        drop(a);
        b.charge(50).unwrap();
    }

    #[test]
    fn governor_query_memory_tiers() {
        let on = Governor::new(GovernorConfig {
            enabled: true,
            query_memory: 123,
            ..GovernorConfig::default()
        });
        assert_eq!(on.query_memory(None).limit(), 123);
        assert_eq!(on.query_memory(Some(7)).limit(), 7);
        let off = Governor::new(GovernorConfig::default());
        assert_eq!(off.query_memory(None).limit(), u64::MAX);
        // A session limit is enforced even with the governor off.
        let m = off.query_memory(Some(10));
        assert!(m.charge(11).is_err());
    }

    #[test]
    fn exec_context_default_is_unlimited() {
        let ctx = ExecContext::default();
        ctx.check().unwrap();
        ctx.charge(u64::MAX / 2).unwrap();
        assert!(ctx.try_charge(1));
        ctx.release(5);
    }
}
